//! Tape-free inference: a frozen, immutable EGNN forward pass.
//!
//! Training runs through the autodiff [`Tape`](matgnn_tensor::Tape), which
//! records an op graph, keeps every intermediate alive for backward, and
//! pays a tape-node allocation per op. Inference needs none of that: the
//! [`FrozenEgnn`] here is built once from a trained model's parameters and
//! then runs the identical layer equations directly on [`Tensor`]s —
//! activations overwrite their inputs in place, temporaries cycle through
//! the size-bucketed recycler, and steady-state requests allocate nothing.
//!
//! Two freeze-time weight transformations make the forward cheaper without
//! changing what is computed:
//!
//! * **Concat elimination.** The first layer of `φ_e` (and the force head)
//!   consumes `[h_src ‖ h_dst ‖ dist_feat]`; its `[2h+e, h]` weight matrix
//!   is split at freeze time into row blocks `W_hi`, `W_hj`, `W_d` so the
//!   concatenated `[E, 2h+e]` edge matrix is never materialized —
//!   `m = df·W_d + ((h_src·W_hi + h_dst·W_hj) + b)`. Same for `φ_h`'s
//!   `[2h, h]` first layer: `(h·W_h + agg·W_agg) + b`.
//! * **Transform-then-gather.** `h·W_hi` is computed once per *node* and
//!   then gathered per *edge* (matmul rows are independent, so gathering
//!   before or after the product yields the same rows) — with mean degree
//!   `deg`, that divides the first-layer edge FLOPs by `deg`.
//!
//! The tape runs the same two layers as `Tape::block_linear` nodes, which
//! take the same products and sum them in the same order, so within one
//! SIMD tier the frozen forward equals the tape forward **bitwise**; it is
//! also bitwise deterministic for any pool size, exactly like the training
//! kernels.

use std::fmt;

use matgnn_graph::GraphBatch;
use matgnn_tensor::Tensor;

use crate::mlp::{Activation, LayerNorm};
use crate::{Egnn, EgnnConfig, GnnModel, ParamSet};

/// Upper end of the Gaussian RBF center grid, in Å (mirrors `egnn.rs`).
const RBF_RMAX: f32 = 3.5;

/// Why a parameter set could not be frozen into an inference engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FreezeError {
    /// The parameter set ended before the architecture was fully bound.
    MissingParam {
        /// Name the architecture expected next.
        expected: String,
    },
    /// A parameter's name did not match the architecture-derived name.
    NameMismatch {
        /// Position in the parameter set.
        index: usize,
        /// Name the architecture expected.
        expected: String,
        /// Name found in the checkpoint.
        found: String,
    },
    /// A parameter's shape did not match the architecture-derived shape.
    ShapeMismatch {
        /// Parameter name.
        name: String,
        /// Shape the architecture expected, as `rows × cols` (`cols = 0`
        /// for vectors).
        expected: (usize, usize),
        /// Element count found in the checkpoint.
        found: usize,
    },
    /// The parameter set has more entries than the architecture uses.
    TrailingParams {
        /// Number of unconsumed entries.
        extra: usize,
    },
}

impl fmt::Display for FreezeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FreezeError::MissingParam { expected } => {
                write!(f, "parameter set ended early: expected `{expected}`")
            }
            FreezeError::NameMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "parameter {index}: expected `{expected}`, found `{found}` \
                 (config does not describe this checkpoint)"
            ),
            FreezeError::ShapeMismatch {
                name,
                expected: (r, c),
                found,
            } => write!(
                f,
                "parameter `{name}`: expected shape {r}×{c}, found {found} elements"
            ),
            FreezeError::TrailingParams { extra } => {
                write!(f, "parameter set has {extra} unconsumed entries")
            }
        }
    }
}

impl std::error::Error for FreezeError {}

/// A dense layer with materialized (frozen) weights.
#[derive(Debug, Clone)]
struct FrozenLinear {
    w: Tensor,
    b: Tensor,
}

impl FrozenLinear {
    /// `x·W + b`, bias added in place on the fresh product.
    fn apply(&self, x: &Tensor) -> Tensor {
        let mut y = x.matmul(&self.w);
        y.add_row_in_place(&self.b);
        y
    }
}

/// First layer of an edge MLP with the `[h_src ‖ h_dst ‖ dist_feat]`
/// weight matrix pre-split into row blocks (concat elimination). The two
/// node-side blocks are stored column-paired (`[W_hi | W_hj]`, shape
/// `h × 2·out`) so one node-level matmul produces both partial products
/// and the per-edge assembly is a single fused pass.
#[derive(Debug, Clone)]
struct SplitEdgeLinear {
    w_pair: Tensor,
    w_d: Tensor,
    b: Tensor,
}

/// Packs the `h_src` / `h_dst` row blocks side by side: `[W_hi | W_hj]`.
fn pair_cols(w_hi: &Tensor, w_hj: &Tensor) -> Tensor {
    let (rows, cols) = (w_hi.rows(), w_hi.cols());
    let mut out = Tensor::zeros((rows, 2 * cols));
    let o = out.data_mut();
    let a = w_hi.data();
    let b = w_hj.data();
    for r in 0..rows {
        o[r * 2 * cols..r * 2 * cols + cols].copy_from_slice(&a[r * cols..(r + 1) * cols]);
        o[r * 2 * cols + cols..(r + 1) * 2 * cols].copy_from_slice(&b[r * cols..(r + 1) * cols]);
    }
    out
}

/// First layer of `φ_h` with the `[h ‖ agg]` weight split into row blocks.
#[derive(Debug, Clone)]
struct SplitNodeLinear {
    w_h: Tensor,
    w_agg: Tensor,
    b: Tensor,
}

/// One frozen EGNN message-passing layer.
#[derive(Debug, Clone)]
struct FrozenLayer {
    phi_e1: SplitEdgeLinear,
    phi_e2: FrozenLinear,
    phi_x: Option<(FrozenLinear, FrozenLinear)>,
    phi_h1: SplitNodeLinear,
    phi_h2: FrozenLinear,
    gate: Option<FrozenLinear>,
    norm: Option<(Tensor, Tensor)>,
}

/// Gaussian RBF constants (negated centers and width).
#[derive(Debug, Clone)]
struct RbfConsts {
    neg_mu: Tensor,
    gamma: f32,
}

/// An immutable, tape-free EGNN forward pass.
///
/// Built once from a trained model (or a checkpointed [`ParamSet`] plus
/// its [`EgnnConfig`]); [`predict`](FrozenEgnn::predict) then serves any
/// number of batches from shared state (`&self`), so one engine can back a
/// whole worker pool.
///
/// # Examples
///
/// ```
/// use matgnn_graph::{AtomicStructure, Element, GraphBatch, MolGraph};
/// use matgnn_model::{Egnn, EgnnConfig, FrozenEgnn};
///
/// let s = AtomicStructure::new(
///     vec![Element::O, Element::H, Element::H],
///     vec![[0.0, 0.0, 0.0], [0.96, 0.0, 0.0], [-0.24, 0.93, 0.0]],
/// )?;
/// let g = MolGraph::from_structure(&s, 2.0);
/// let batch = GraphBatch::from_graphs(&[&g]);
///
/// let model = Egnn::new(EgnnConfig::new(16, 2));
/// let frozen = FrozenEgnn::freeze(&model);
/// let (energy, forces) = frozen.predict(&batch);
/// assert_eq!(energy.shape().dims(), &[1, 1]);
/// assert_eq!(forces.shape().dims(), &[3, 3]);
/// # Ok::<(), matgnn_graph::StructureError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FrozenEgnn {
    config: EgnnConfig,
    embed: FrozenLinear,
    layers: Vec<FrozenLayer>,
    energy1: FrozenLinear,
    energy2: FrozenLinear,
    force1: SplitEdgeLinear,
    force2: FrozenLinear,
    rbf: Option<RbfConsts>,
}

/// Sequential reader over a [`ParamSet`], checking each entry's
/// architecture-derived name and shape as it is consumed.
struct Cursor<'a> {
    params: &'a ParamSet,
    next: usize,
}

impl<'a> Cursor<'a> {
    fn take(
        &mut self,
        name: String,
        numel: usize,
        shape: (usize, usize),
    ) -> Result<&'a Tensor, FreezeError> {
        if self.next >= self.params.len() {
            return Err(FreezeError::MissingParam { expected: name });
        }
        let entry = self.params.entry(self.next);
        if entry.name != name {
            return Err(FreezeError::NameMismatch {
                index: self.next,
                expected: name,
                found: entry.name.clone(),
            });
        }
        if entry.tensor.numel() != numel {
            return Err(FreezeError::ShapeMismatch {
                name,
                expected: shape,
                found: entry.tensor.numel(),
            });
        }
        self.next += 1;
        Ok(&entry.tensor)
    }

    /// Consumes one `Linear`'s weight `[rows × cols]` and bias `[cols]`.
    fn linear(
        &mut self,
        name: &str,
        rows: usize,
        cols: usize,
    ) -> Result<FrozenLinear, FreezeError> {
        let w = self.take(format!("{name}.weight"), rows * cols, (rows, cols))?;
        let b = self.take(format!("{name}.bias"), cols, (cols, 0))?;
        Ok(FrozenLinear {
            w: w.reshape((rows, cols)).expect("weight numel checked"),
            b: b.clone(),
        })
    }
}

/// Extracts rows `[start, end)` of a row-major `[rows × cols]` weight as
/// an owned `[(end − start) × cols]` tensor (row blocks are contiguous).
fn row_block(w: &Tensor, cols: usize, start: usize, end: usize) -> Tensor {
    Tensor::from_vec(
        (end - start, cols),
        w.data()[start * cols..end * cols].to_vec(),
    )
    .expect("row block dims")
}

impl FrozenEgnn {
    /// Freezes a live model's current parameters.
    ///
    /// # Panics
    ///
    /// Never panics for a model built by [`Egnn::new`] — its parameter set
    /// matches its config by construction.
    pub fn freeze(model: &Egnn) -> Self {
        Self::from_params(*model.config(), model.params())
            .expect("a constructed Egnn always matches its own config")
    }

    /// Builds the engine from a checkpointed parameter set and the config
    /// describing its architecture (the MGTC format stores parameters
    /// only, so callers supply the config they trained with). Every entry
    /// is validated by name and shape against the architecture before any
    /// weight is accepted.
    pub fn from_params(config: EgnnConfig, params: &ParamSet) -> Result<Self, FreezeError> {
        let h = config.hidden_dim;
        let e = config.edge_feat_dim();
        let mut cur = Cursor { params, next: 0 };

        let embed = cur.linear("embed.0", config.node_feat_dim, h)?;

        let mut layers = Vec::with_capacity(config.n_layers);
        for l in 0..config.n_layers {
            let phi_e1 = {
                let lin = cur.linear(&format!("layer{l}.phi_e.0"), 2 * h + e, h)?;
                SplitEdgeLinear {
                    w_pair: pair_cols(&row_block(&lin.w, h, 0, h), &row_block(&lin.w, h, h, 2 * h)),
                    w_d: row_block(&lin.w, h, 2 * h, 2 * h + e),
                    b: lin.b,
                }
            };
            let phi_e2 = cur.linear(&format!("layer{l}.phi_e.1"), h, h)?;
            let phi_x = if config.update_coords {
                Some((
                    cur.linear(&format!("layer{l}.phi_x.0"), h, h)?,
                    cur.linear(&format!("layer{l}.phi_x.1"), h, 1)?,
                ))
            } else {
                None
            };
            let phi_h1 = {
                let lin = cur.linear(&format!("layer{l}.phi_h.0"), 2 * h, h)?;
                SplitNodeLinear {
                    w_h: row_block(&lin.w, h, 0, h),
                    w_agg: row_block(&lin.w, h, h, 2 * h),
                    b: lin.b,
                }
            };
            let phi_h2 = cur.linear(&format!("layer{l}.phi_h.1"), h, h)?;
            let gate = if config.edge_gate {
                Some(cur.linear(&format!("layer{l}.gate.0"), h, 1)?)
            } else {
                None
            };
            let norm = if config.layer_norm {
                let gamma = cur.take(format!("layer{l}.norm.gamma"), h, (h, 0))?.clone();
                let beta = cur.take(format!("layer{l}.norm.beta"), h, (h, 0))?.clone();
                Some((gamma, beta))
            } else {
                None
            };
            layers.push(FrozenLayer {
                phi_e1,
                phi_e2,
                phi_x,
                phi_h1,
                phi_h2,
                gate,
                norm,
            });
        }

        let energy1 = cur.linear("energy_head.0", h, h)?;
        let energy2 = cur.linear("energy_head.1", h, 1)?;
        let force1 = {
            let lin = cur.linear("force_head.0", 2 * h + e, h)?;
            SplitEdgeLinear {
                w_pair: pair_cols(&row_block(&lin.w, h, 0, h), &row_block(&lin.w, h, h, 2 * h)),
                w_d: row_block(&lin.w, h, 2 * h, 2 * h + e),
                b: lin.b,
            }
        };
        let force2 = cur.linear("force_head.1", h, 1)?;

        if cur.next != params.len() {
            return Err(FreezeError::TrailingParams {
                extra: params.len() - cur.next,
            });
        }

        let rbf = (config.n_rbf > 0).then(|| {
            let k = config.n_rbf;
            let delta = RBF_RMAX / (k.max(2) - 1) as f32;
            let neg_mu: Vec<f32> = (0..k).map(|i| -(i as f32) * delta).collect();
            RbfConsts {
                neg_mu: Tensor::from_vec(k, neg_mu).expect("centers"),
                gamma: 1.0 / (2.0 * delta * delta),
            }
        });

        Ok(FrozenEgnn {
            config,
            embed,
            layers,
            energy1,
            energy2,
            force1,
            force2,
            rbf,
        })
    }

    /// The architecture this engine was frozen from.
    pub fn config(&self) -> &EgnnConfig {
        &self.config
    }

    /// Runs the forward pass, returning `(energies [n_graphs × 1],
    /// forces [n_nodes × 3])` in the model's (normalized) output units —
    /// the same quantities as the tape forward's two heads.
    ///
    /// Takes `&self`: the engine is immutable and can serve concurrent
    /// callers. With warmed recycler buckets, a steady-state call performs
    /// zero heap allocations (asserted by `exp_serving`).
    pub fn predict(&self, batch: &GraphBatch) -> (Tensor, Tensor) {
        let n = batch.n_nodes();
        let src: &[usize] = batch.src();

        // Embed (single layer, final act SiLU).
        let mut h = self.embed.apply(batch.node_feats());
        h.silu_in_place();

        // Learned coordinate displacement (only with `update_coords`).
        let mut d = self.config.update_coords.then(|| Tensor::zeros((n, 3)));

        // Static geometry: without coordinate updates the rel vectors —
        // and therefore the distance features — are identical in every
        // layer and in the force head, so compute them once. (The tape
        // recomputes them per layer; this is pure saved work.)
        let static_geom = match d {
            None => Some(self.edge_geometry(batch, None)),
            Some(_) => None,
        };

        for layer in &self.layers {
            let layer_geom;
            let (rel, dist_feat) = match &static_geom {
                Some((rel, feat)) => (rel, feat),
                None => {
                    layer_geom = self.edge_geometry(batch, d.as_ref());
                    (&layer_geom.0, &layer_geom.1)
                }
            };
            let mut m = self.edge_mlp(
                batch,
                &h,
                dist_feat,
                &layer.phi_e1,
                &layer.phi_e2,
                Activation::Silu,
            );

            if let Some(gate) = &layer.gate {
                let mut g = gate.apply(&m);
                g.sigmoid_in_place();
                m.mul_col_in_place(&g);
            }

            if let (Some((x1, x2)), Some(d)) = (&layer.phi_x, d.as_mut()) {
                let mut w = x1.apply(&m);
                w.silu_in_place();
                let w = x2.apply(&w); // final act: none
                let weighted = rel.mul_col(&w);
                let mut upd = weighted.scatter_add_rows(src, n);
                upd.mul_col_in_place(batch.inv_src_degree());
                d.axpy(1.0, &upd);
            }

            let agg = m.scatter_add_rows(src, n);
            // φ_h first layer with the [h ‖ agg] concat split away.
            let mut hn = h.matmul(&layer.phi_h1.w_h);
            let t = agg.matmul(&layer.phi_h1.w_agg);
            hn.axpy(1.0, &t);
            hn.add_row_in_place(&layer.phi_h1.b);
            hn.silu_in_place();
            let mut out = layer.phi_h2.apply(&hn); // final act: none
            if self.config.residual {
                out.axpy(1.0, &h);
            }
            h = out;
            if let Some((gamma, beta)) = &layer.norm {
                layer_norm_in_place(&mut h, gamma, beta);
            }
        }

        // Energy head: per-node contributions summed per graph.
        let mut node_e = self.energy1.apply(&h);
        node_e.silu_in_place();
        let node_e = self.energy2.apply(&node_e); // final act: none
        let energy = node_e.scatter_add_rows(batch.node_graph(), batch.n_graphs());

        // Equivariant force head: per-edge scalar times rel vector.
        let head_geom;
        let (rel, dist_feat) = match &static_geom {
            Some((rel, feat)) => (rel, feat),
            None => {
                head_geom = self.edge_geometry(batch, d.as_ref());
                (&head_geom.0, &head_geom.1)
            }
        };
        let w = self.edge_mlp(
            batch,
            &h,
            dist_feat,
            &self.force1,
            &self.force2,
            Activation::None,
        );
        let weighted = rel.mul_col(&w);
        let forces = weighted.scatter_add_rows(src, n);

        (energy, forces)
    }

    /// Current rel vectors and distance features for the edge set:
    /// `(rel [E × 3], dist_feat [E × K or E × 1])`.
    fn edge_geometry(&self, batch: &GraphBatch, d: Option<&Tensor>) -> (Tensor, Tensor) {
        let rel = match d {
            Some(d) => {
                // rel = rel0 + (d_src − d_dst), as on the tape.
                let di = d.gather_rows(batch.src());
                let dj = d.gather_rows(batch.dst());
                let mut rel = di.sub(&dj);
                rel.axpy(1.0, batch.edge_vectors());
                rel
            }
            None => batch.edge_vectors().clone(),
        };
        let mut dist2 = rel.square().sum_axis1();
        let dist_feat = match &self.rbf {
            None => dist2,
            Some(consts) => {
                // ‖r‖ from ‖r‖² (same tiny shift as the tape path).
                dist2.add_scalar_in_place(1e-8);
                dist2.sqrt_in_place();
                rbf_expand(&dist2, consts)
            }
        };
        (rel, dist_feat)
    }

    /// The two-layer edge MLP with concat elimination and
    /// transform-then-gather on the first layer. Returns the MLP output
    /// `[E × out]`.
    fn edge_mlp(
        &self,
        batch: &GraphBatch,
        h: &Tensor,
        dist_feat: &Tensor,
        l1: &SplitEdgeLinear,
        l2: &FrozenLinear,
        final_act: Activation,
    ) -> Tensor {
        let src: &[usize] = batch.src();
        let dst: &[usize] = batch.dst();

        // Transform-then-gather: both node-side partial products from one
        // node-level matmul (~mean-degree× fewer FLOPs than an edge-level
        // matmul over the concatenated inputs), then a single fused
        // per-edge pass adding src block + dst block + bias onto the
        // dist-feature product in place — `Tape::block_linear`'s order.
        let mut m = dist_feat.matmul(&l1.w_d);
        let p = h.matmul(&l1.w_pair); // [n × 2·out]
        {
            let cols = m.cols();
            let pd = p.data();
            let b = l1.b.data();
            let md = m.data_mut();
            for (e, row) in md.chunks_exact_mut(cols).enumerate() {
                let ps = &pd[src[e] * 2 * cols..][..cols];
                let pj = &pd[dst[e] * 2 * cols + cols..][..cols];
                for ((x, (s, j)), bias) in row.iter_mut().zip(ps.iter().zip(pj)).zip(b) {
                    *x += s + j + bias;
                }
            }
        }
        m.silu_in_place(); // hidden activation

        let mut out = l2.apply(&m);
        apply_in_place(final_act, &mut out);
        out
    }
}

/// Gaussian RBF expansion of `‖r‖` (`[E × 1]` → `[E × K]`). The tape path
/// broadcasts via `matmul(dist, ones_row)` — an exact row copy — so
/// building `dist[i] + neg_mu[j]` directly is bit-identical, and the
/// square/scale/exp chain reuses the same elementwise kernels.
fn rbf_expand(dist: &Tensor, consts: &RbfConsts) -> Tensor {
    let k = consts.neg_mu.numel();
    let rows = dist.rows();
    let mut out = Tensor::zeros((rows, k));
    {
        let d = dist.data();
        let mu = consts.neg_mu.data();
        let o = out.data_mut();
        for (i, row) in o.chunks_exact_mut(k).enumerate() {
            let di = d[i];
            for (x, m) in row.iter_mut().zip(mu) {
                *x = di + m;
            }
        }
    }
    out.square_in_place();
    out.scale_in_place(-consts.gamma);
    out.exp_in_place();
    out
}

/// Row-wise layer normalization, mirroring the tape op sequence of
/// [`LayerNorm::forward`] with in-place ops.
fn layer_norm_in_place(h: &mut Tensor, gamma: &Tensor, beta: &Tensor) {
    let inv_m = 1.0 / h.cols() as f32;
    let mut mean = h.sum_axis1();
    mean.scale_in_place(inv_m);
    mean.map_in_place(|x| -x);
    h.add_col_in_place(&mean); // centered
    let mut var = h.square().sum_axis1();
    var.scale_in_place(inv_m);
    var.add_scalar_in_place(LayerNorm::EPS);
    var.sqrt_in_place();
    var.map_in_place(|x| 1.0 / x); // matches the tape's recip
    h.mul_col_in_place(&var);
    h.mul_row_in_place(gamma);
    h.add_row_in_place(beta);
}

/// Applies an activation in place (the tape's `Activation::apply`,
/// without the tape).
fn apply_in_place(act: Activation, t: &mut Tensor) {
    match act {
        Activation::Silu => t.silu_in_place(),
        Activation::Relu => t.relu_in_place(),
        Activation::Tanh => t.map_in_place(f32::tanh),
        Activation::None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgnn_graph::{AtomicStructure, Element, MolGraph};
    use matgnn_tensor::{Runtime, Tape};

    /// A deterministic little batch of two molecules.
    fn test_batch() -> GraphBatch {
        let water = AtomicStructure::new(
            vec![Element::O, Element::H, Element::H],
            vec![[0.0, 0.0, 0.0], [0.96, 0.0, 0.0], [-0.24, 0.93, 0.0]],
        )
        .unwrap();
        let methane = AtomicStructure::new(
            vec![Element::C, Element::H, Element::H, Element::H, Element::H],
            vec![
                [0.0, 0.0, 0.0],
                [0.63, 0.63, 0.63],
                [-0.63, -0.63, 0.63],
                [-0.63, 0.63, -0.63],
                [0.63, -0.63, -0.63],
            ],
        )
        .unwrap();
        let g1 = MolGraph::from_structure(&water, 2.0);
        let g2 = MolGraph::from_structure(&methane, 2.0);
        GraphBatch::from_graphs(&[&g1, &g2])
    }

    fn tape_forward(model: &Egnn, batch: &GraphBatch) -> (Tensor, Tensor) {
        let mut tape = Tape::new();
        let (_, out) = model.bind_and_forward(&mut tape, batch);
        (
            tape.value(out.energy).clone(),
            tape.value(out.forces).clone(),
        )
    }

    fn assert_bitwise(tag: &str, tape: &Tensor, frozen: &Tensor) {
        assert_eq!(tape.shape(), frozen.shape(), "{tag}: shape mismatch");
        for (i, (a, b)) in tape.data().iter().zip(frozen.data()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{tag}[{i}]: tape {a:e} vs frozen {b:e}"
            );
        }
    }

    /// The frozen forward runs the tape's arithmetic in the tape's order,
    /// so energies and forces agree to the bit.
    fn check_config(config: EgnnConfig) {
        let model = Egnn::new(config);
        let batch = test_batch();
        let (te, tf) = tape_forward(&model, &batch);
        let frozen = FrozenEgnn::freeze(&model);
        let (fe, ff) = frozen.predict(&batch);
        assert_bitwise("energy", &te, &fe);
        assert_bitwise("forces", &tf, &ff);
    }

    #[test]
    fn frozen_matches_tape_default_config() {
        check_config(EgnnConfig::new(16, 3));
    }

    #[test]
    fn frozen_matches_tape_all_features_on() {
        check_config(
            EgnnConfig::new(12, 2)
                .with_edge_gate(true)
                .with_layer_norm(true)
                .with_rbf(8)
                .with_seed(5),
        );
    }

    #[test]
    fn frozen_matches_tape_minimal_features() {
        check_config(
            EgnnConfig::new(8, 2)
                .with_update_coords(false)
                .with_residual(false)
                .with_rbf(0)
                .with_seed(9),
        );
    }

    /// The frozen forward keeps the kernel contract: bitwise-identical
    /// output for any pool size (within a SIMD tier).
    #[test]
    fn frozen_forward_pool_size_invariant() {
        let model = Egnn::new(EgnnConfig::new(16, 3).with_rbf(8));
        let frozen = FrozenEgnn::freeze(&model);
        let batch = test_batch();
        let predict_on = |threads| {
            let _rt = Runtime::current().with_threads(threads).enter();
            frozen.predict(&batch)
        };
        let (e1, f1) = predict_on(1);
        let (e4, f4) = predict_on(4);
        assert_eq!(e1, e4, "energy not pool-size invariant");
        assert_eq!(f1, f4, "forces not pool-size invariant");
    }

    /// Repeated predictions from one engine are bitwise identical
    /// (immutability: no hidden state drifts between requests).
    #[test]
    fn frozen_forward_is_deterministic_across_calls() {
        let model = Egnn::new(EgnnConfig::new(16, 2));
        let frozen = FrozenEgnn::freeze(&model);
        let batch = test_batch();
        let (e1, f1) = frozen.predict(&batch);
        for _ in 0..3 {
            let (e, f) = frozen.predict(&batch);
            assert_eq!(e1, e);
            assert_eq!(f1, f);
        }
    }

    #[test]
    fn mismatched_config_is_rejected() {
        let model = Egnn::new(EgnnConfig::new(16, 3));
        // Wrong depth: the layer-2 parameters are missing.
        let err = FrozenEgnn::from_params(EgnnConfig::new(16, 4), model.params());
        assert!(err.is_err(), "depth mismatch accepted");
        // Wrong width: first weight has the wrong shape.
        let err = FrozenEgnn::from_params(EgnnConfig::new(24, 3), model.params());
        assert!(err.is_err(), "width mismatch accepted");
        // Extra features change parameter names.
        let err =
            FrozenEgnn::from_params(EgnnConfig::new(16, 3).with_layer_norm(true), model.params());
        assert!(err.is_err(), "feature mismatch accepted");
    }
}
