//! The E(n)-equivariant graph neural network (EGNN) of Satorras et al.,
//! with graph-level (energy) and node-level (force) output heads — the
//! backbone the paper scales from 0.1 M to 2 B parameters.
//!
//! Per layer, for every directed edge `(i, j)` with relative vector
//! `r_ij = x_i − x_j`:
//!
//! ```text
//! m_ij = φ_e(h_i, h_j, ‖r_ij‖²)
//! d_i += (1/deg_i) Σ_j r_ij · φ_x(m_ij)        (coordinate channel)
//! h_i  = φ_h(h_i, Σ_j m_ij)                    (+ h_i if residual)
//! ```
//!
//! Invariances (energy) and equivariances (forces) under rotation,
//! translation and permutation hold by construction and are asserted by
//! the test suite.

use std::sync::Arc;

use matgnn_graph::GraphBatch;
use matgnn_tensor::{BlockPart, Exec, Tape, Tensor, Var};

use crate::mlp::{init_rng, Activation, LayerNorm, Mlp};
use crate::{EgnnConfig, GnnModel, ModelOutput, ParamSet};

#[derive(Debug, Clone)]
struct EgnnLayer {
    phi_e: Mlp,
    phi_x: Option<Mlp>,
    phi_h: Mlp,
    gate: Option<Mlp>,
    norm: Option<LayerNorm>,
}

/// The EGNN model.
///
/// # Examples
///
/// ```
/// use matgnn_graph::{AtomicStructure, Element, GraphBatch, MolGraph};
/// use matgnn_model::{Egnn, EgnnConfig, GnnModel};
/// use matgnn_tensor::Tape;
///
/// let s = AtomicStructure::new(
///     vec![Element::O, Element::H, Element::H],
///     vec![[0.0, 0.0, 0.0], [0.96, 0.0, 0.0], [-0.24, 0.93, 0.0]],
/// )?;
/// let g = MolGraph::from_structure(&s, 2.0);
/// let batch = GraphBatch::from_graphs(&[&g]);
///
/// let model = Egnn::new(EgnnConfig::new(16, 2));
/// let mut tape = Tape::new();
/// let (_, out) = model.bind_and_forward(&mut tape, &batch);
/// assert_eq!(tape.shape(out.energy).dims(), &[1, 1]);
/// assert_eq!(tape.shape(out.forces).dims(), &[3, 3]);
/// # Ok::<(), matgnn_graph::StructureError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Egnn {
    config: EgnnConfig,
    params: ParamSet,
    embed: Mlp,
    layers: Vec<EgnnLayer>,
    energy_head: Mlp,
    force_head: Mlp,
    /// Param-index range per segment: `[embed, layer0.., heads]`.
    segment_ranges: Vec<(usize, usize)>,
    /// RBF broadcast row (`[1 × K]` of ones) and negated centers, built
    /// once here instead of per `rbf_expand` call (`None` iff `n_rbf == 0`).
    rbf_consts: Option<(Tensor, Tensor)>,
}

/// Upper end of the Gaussian RBF center grid, in Å.
const RBF_RMAX: f32 = 3.5;

impl Egnn {
    /// Builds and initializes the model described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if `hidden_dim` or `n_layers` is zero.
    pub fn new(config: EgnnConfig) -> Self {
        assert!(config.hidden_dim > 0, "hidden_dim must be positive");
        assert!(config.n_layers > 0, "n_layers must be positive");
        Self::build(config)
    }

    /// [`new`](Egnn::new) without its checks: a zero width or depth gives
    /// a degenerate model, which `FrozenEgnn::from_params` then rejects
    /// against a real checkpoint with a typed error instead of a panic.
    pub(crate) fn build(config: EgnnConfig) -> Self {
        let h = config.hidden_dim;
        let e = config.edge_feat_dim();
        let mut params = ParamSet::new();
        let mut rng = init_rng(config.seed);
        let mut segment_ranges = Vec::with_capacity(config.n_layers + 2);

        let mut start = params.len();
        let embed = Mlp::new(
            &mut params,
            "embed",
            &[config.node_feat_dim, h],
            Activation::Silu,
            Activation::Silu,
            1.0,
            &mut rng,
        );
        segment_ranges.push((start, params.len()));

        let mut layers = Vec::with_capacity(config.n_layers);
        for l in 0..config.n_layers {
            start = params.len();
            let phi_e = Mlp::new(
                &mut params,
                &format!("layer{l}.phi_e"),
                &[2 * h + e, h, h],
                Activation::Silu,
                Activation::Silu,
                1.0,
                &mut rng,
            );
            let phi_x = config.update_coords.then(|| {
                Mlp::new(
                    &mut params,
                    &format!("layer{l}.phi_x"),
                    &[h, h, 1],
                    Activation::Silu,
                    Activation::None,
                    0.1,
                    &mut rng,
                )
            });
            let phi_h = Mlp::new(
                &mut params,
                &format!("layer{l}.phi_h"),
                &[2 * h, h, h],
                Activation::Silu,
                Activation::None,
                1.0,
                &mut rng,
            );
            let gate = config.edge_gate.then(|| {
                Mlp::new(
                    &mut params,
                    &format!("layer{l}.gate"),
                    &[h, 1],
                    Activation::Silu,
                    Activation::None,
                    1.0,
                    &mut rng,
                )
            });
            let norm = config
                .layer_norm
                .then(|| LayerNorm::new(&mut params, &format!("layer{l}.norm"), h));
            layers.push(EgnnLayer {
                phi_e,
                phi_x,
                phi_h,
                gate,
                norm,
            });
            segment_ranges.push((start, params.len()));
        }

        start = params.len();
        let energy_head = Mlp::new(
            &mut params,
            "energy_head",
            &[h, h, 1],
            Activation::Silu,
            Activation::None,
            1.0,
            &mut rng,
        );
        let force_head = Mlp::new(
            &mut params,
            "force_head",
            &[2 * h + e, h, 1],
            Activation::Silu,
            Activation::None,
            0.1,
            &mut rng,
        );
        segment_ranges.push((start, params.len()));

        debug_assert_eq!(
            params.n_scalars(),
            config.param_count(),
            "param count formula drift"
        );

        let rbf_consts = (config.n_rbf > 0).then(|| {
            let k = config.n_rbf;
            let delta = RBF_RMAX / (k.max(2) - 1) as f32;
            let neg_mu: Vec<f32> = (0..k).map(|i| -(i as f32) * delta).collect();
            (
                Tensor::ones((1, k)),
                Tensor::from_vec(k, neg_mu).expect("centers"),
            )
        });

        Egnn {
            config,
            params,
            embed,
            layers,
            energy_head,
            force_head,
            segment_ranges,
            rbf_consts,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &EgnnConfig {
        &self.config
    }

    /// Total scalar parameter count.
    pub fn n_params(&self) -> usize {
        self.params.n_scalars()
    }

    /// Predicts **energy-conserving forces** `F = −∂E/∂x` by
    /// differentiating the energy head with respect to atom positions
    /// (through the edge vectors), instead of using the direct force head.
    ///
    /// Conservative forces integrate to the predicted energy surface by
    /// construction — the property MD applications need (SchNet-style
    /// gradient forces). Returns `(energies [n_graphs × 1], forces
    /// [n_nodes × 3])` in the model's (normalized) output units.
    pub fn conservative_forces(&self, batch: &GraphBatch) -> (Tensor, Tensor) {
        let mut tape = Tape::new();
        // Parameters frozen; only the edge vectors require gradients.
        let pvars = self.params.bind_frozen(&mut tape);
        let rel0 = tape.param(batch.edge_vectors().clone());
        let (energy, _) = self.run(&mut tape, &pvars, batch, rel0);
        let energies = tape.value(energy).clone();
        // Differentiate the total (sum over graphs) energy; graphs are
        // disjoint, so per-atom gradients stay per-graph.
        let total = tape.sum_all(energy);
        let mut grads = tape.backward(total);
        let g_rel = grads
            .take(rel0)
            .unwrap_or_else(|| Tensor::zeros((batch.n_edges(), 3)));
        // rel_e = (x_src + d_src) − (x_dst + d_dst) + … , so
        // ∂E/∂x_i = Σ_{src(e)=i} g_e − Σ_{dst(e)=i} g_e and F = −∂E/∂x.
        let n = batch.n_nodes();
        let from_src = g_rel.scatter_add_rows(batch.src(), n);
        let from_dst = g_rel.scatter_add_rows(batch.dst(), n);
        let forces = from_dst.sub(&from_src);
        (energies, forces)
    }

    /// The head segment at **node granularity**: per-node energies
    /// `[n × 1]` (before the per-graph reduction) and per-node force rows
    /// `[n × 3]`. This is the entry point the graph-parallel engine uses:
    /// on a partition-local batch the owned rows of both outputs are
    /// bitwise identical to the same rows of the full-graph heads, while
    /// the per-graph energy reduction is left to the caller (which must
    /// sum node energies in global node order to preserve parity).
    /// `pvars` must bind the heads segment's parameters.
    pub fn head_forward_nodes(
        &self,
        tape: &mut Tape,
        pvars: &[Var],
        batch: &GraphBatch,
        h: Var,
        d: Var,
        rel0: Var,
    ) -> (Var, Var) {
        let (offset, _) = self.segment_ranges[self.n_segments() - 1];
        let geometry = self.edge_geometry(tape, batch, &d, &rel0);
        self.heads(tape, pvars, offset, batch, &h, geometry)
    }

    /// The whole forward on any executor — `(energies [n_graphs × 1],
    /// forces [n_nodes × 3])`, with `pvars` binding the entire parameter
    /// set and `rel0` the batch's edge vectors. Runs the segments' own
    /// bodies in order, except that without coordinate updates the edge
    /// geometry is the same in every layer and the force head, so it is
    /// computed once.
    pub(crate) fn run<C: Exec>(
        &self,
        cx: &mut C,
        pvars: &[C::V],
        batch: &GraphBatch,
        rel0: C::V,
    ) -> (C::V, C::V) {
        let [mut h, mut d] = self.embed(cx, pvars, 0, batch);
        let fixed = (!self.config.update_coords).then(|| self.edge_geometry(cx, batch, &d, &rel0));
        let geometry = |cx: &mut C, d: &C::V| match &fixed {
            Some(g) => g.clone(),
            None => self.edge_geometry(cx, batch, d, &rel0),
        };
        for li in 0..self.layers.len() {
            let g = geometry(cx, &d);
            (h, d) = self.layer_forward(li, cx, pvars, 0, batch, h, d, g);
        }
        let g = geometry(cx, &d);
        let (node_e, forces) = self.heads(cx, pvars, 0, batch, &h, g);
        // Energy is extensive: sum node contributions per graph.
        let energy = cx.scatter_add_rows(&node_e, batch.node_graph(), batch.n_graphs());
        (energy, forces)
    }

    /// Embed: node features → `h`, and a zero coordinate displacement `d`.
    fn embed<C: Exec>(
        &self,
        cx: &mut C,
        pvars: &[C::V],
        offset: usize,
        batch: &GraphBatch,
    ) -> [C::V; 2] {
        let feats = cx.constant(batch.node_feats().clone());
        let h = self.embed.forward(cx, pvars, offset, &feats);
        let d = cx.constant(Tensor::zeros((batch.n_nodes(), 3)));
        [h, d]
    }

    /// The rel vectors — the base minimum-image vectors plus the learned
    /// displacement delta (if coordinates update) — and their distance
    /// features: raw `‖r‖²` or, with `n_rbf > 0`, a Gaussian radial-basis
    /// expansion of `‖r‖`.
    fn edge_geometry<C: Exec>(
        &self,
        cx: &mut C,
        batch: &GraphBatch,
        d: &C::V,
        rel0: &C::V,
    ) -> (C::V, C::V) {
        let rel = if self.config.update_coords {
            let di = cx.gather_rows(d, batch.src());
            let dj = cx.gather_rows(d, batch.dst());
            let delta = cx.sub(di, &dj);
            cx.add(delta, rel0)
        } else {
            rel0.clone()
        };
        let sq = cx.square(rel.clone());
        let dist2 = cx.sum_axis1(&sq);
        let dist_feat = if self.config.n_rbf == 0 {
            dist2
        } else {
            self.rbf_expand(cx, dist2)
        };
        (rel, dist_feat)
    }

    /// Gaussian RBF expansion `exp(−γ(‖r‖ − μ_k)²)` with centers spread
    /// over `[0, RBF_RMAX]`.
    fn rbf_expand<C: Exec>(&self, cx: &mut C, dist2: C::V) -> C::V {
        let k = self.config.n_rbf;
        let delta = RBF_RMAX / (k.max(2) - 1) as f32;
        let gamma = 1.0 / (2.0 * delta * delta);
        // ‖r‖ from ‖r‖² (tiny shift keeps the sqrt adjoint bounded).
        let shifted = cx.add_scalar(dist2, 1e-8);
        let dist = cx.sqrt(shifted);
        // Broadcast to [E, K] and subtract the centers; the clones share
        // the model-lifetime buffers built in `new`.
        let (ones, mu) = self.rbf_consts.as_ref().expect("n_rbf > 0");
        let ones_row = cx.constant(ones.clone());
        let d_mat = cx.matmul(&dist, &ones_row);
        let neg_mu = cx.constant(mu.clone());
        let centered = cx.add_row(d_mat, &neg_mu);
        let sq = cx.square(centered);
        let scaled = cx.scale(sq, -gamma);
        cx.exp(scaled)
    }

    /// One message-passing layer, given this layer's edge geometry
    /// `(rel, dist_feat)`: returns the next `(h, d)`.
    #[allow(clippy::too_many_arguments)] // mirrors the EGNN layer equation inputs
    fn layer_forward<C: Exec>(
        &self,
        li: usize,
        cx: &mut C,
        pvars: &[C::V],
        offset: usize,
        batch: &GraphBatch,
        h: C::V,
        d: C::V,
        (rel, dist_feat): (C::V, C::V),
    ) -> (C::V, C::V) {
        let layer = &self.layers[li];
        let n = batch.n_nodes();
        let mut m = edge_mlp(&layer.phi_e, cx, pvars, offset, batch, &h, dist_feat);
        if let Some(gate) = &layer.gate {
            let g = gate.forward(cx, pvars, offset, &m);
            let g = cx.sigmoid(g);
            m = cx.mul_col(m, &g);
        }

        let d_next = match &layer.phi_x {
            Some(phi_x) => {
                let w = phi_x.forward(cx, pvars, offset, &m);
                let weighted = cx.mul_col(rel, &w);
                let upd = cx.scatter_add_rows(&weighted, batch.src(), n);
                // Precomputed at batch build time (was rebuilt per layer).
                let inv_deg = cx.constant(batch.inv_src_degree().clone());
                let upd = cx.mul_col(upd, &inv_deg);
                cx.add(d, &upd)
            }
            None => d,
        };

        let agg = cx.scatter_add_rows(&m, batch.src(), n);
        // The parts array is a temporary, so the residual below finds `h`
        // unshared again (and, without a tape, updates it in place).
        let out = layer.phi_h.forward_blocks(
            cx,
            pvars,
            offset,
            &[BlockPart::dense(h.clone()), BlockPart::dense(agg)],
        );
        let mut h_next = if self.config.residual {
            cx.add(h, &out)
        } else {
            out
        };
        if let Some(norm) = &layer.norm {
            h_next = norm.forward(cx, pvars, offset, h_next);
        }
        (h_next, d_next)
    }

    /// The energy head's per-node contributions and the equivariant force
    /// head (per-edge scalar times rel vector), given the edge geometry.
    fn heads<C: Exec>(
        &self,
        cx: &mut C,
        pvars: &[C::V],
        offset: usize,
        batch: &GraphBatch,
        h: &C::V,
        (rel, dist_feat): (C::V, C::V),
    ) -> (C::V, C::V) {
        let node_e = self.energy_head.forward(cx, pvars, offset, h);
        let w = edge_mlp(&self.force_head, cx, pvars, offset, batch, h, dist_feat);
        let weighted = cx.mul_col(rel, &w);
        let forces = cx.scatter_add_rows(&weighted, batch.src(), batch.n_nodes());
        (node_e, forces)
    }
}

/// Applies an edge MLP to `[h_src ‖ h_dst ‖ dist_feat]` per edge without
/// building that matrix: the first layer multiplies `h` by its row blocks
/// per atom and gathers the products per edge (transform-then-gather),
/// dividing its `h` FLOPs by the mean degree.
fn edge_mlp<C: Exec>(
    mlp: &Mlp,
    cx: &mut C,
    pvars: &[C::V],
    offset: usize,
    batch: &GraphBatch,
    h: &C::V,
    dist_feat: C::V,
) -> C::V {
    let parts = [
        BlockPart::gathered(h.clone(), Arc::clone(batch.src())),
        BlockPart::gathered(h.clone(), Arc::clone(batch.dst())),
        BlockPart::dense(dist_feat),
    ];
    mlp.forward_blocks(cx, pvars, offset, &parts)
}

impl GnnModel for Egnn {
    fn params(&self) -> &ParamSet {
        &self.params
    }

    fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    fn n_segments(&self) -> usize {
        self.config.n_layers + 2
    }

    fn segment_param_range(&self, seg: usize) -> (usize, usize) {
        self.segment_ranges[seg]
    }

    fn segment_forward(
        &self,
        tape: &mut Tape,
        seg: usize,
        pvars: &[Var],
        batch: &GraphBatch,
        state: &[Var],
    ) -> Vec<Var> {
        let (offset, _) = self.segment_ranges[seg];
        let last = self.n_segments() - 1;
        if seg == 0 {
            // The base edge vectors travel with the state, so a caller can
            // substitute a gradient-requiring binding.
            assert!(state.is_empty(), "embed segment takes no state");
            let [h, d] = self.embed(tape, pvars, offset, batch);
            vec![h, d, tape.constant(batch.edge_vectors().clone())]
        } else if seg < last {
            let (h, d, rel0) = (state[0], state[1], state[2]);
            let geometry = self.edge_geometry(tape, batch, &d, &rel0);
            let (h2, d2) = self.layer_forward(seg - 1, tape, pvars, offset, batch, h, d, geometry);
            vec![h2, d2, rel0]
        } else {
            let (node_e, forces) =
                self.head_forward_nodes(tape, pvars, batch, state[0], state[1], state[2]);
            // Energy is extensive: sum node contributions per graph.
            let energy =
                tape.scatter_add_rows(node_e, Arc::clone(batch.node_graph()), batch.n_graphs());
            vec![energy, forces]
        }
    }

    /// The whole forward on the tape: the body the frozen engine runs
    /// without one.
    fn forward(&self, tape: &mut Tape, pvars: &[Var], batch: &GraphBatch) -> ModelOutput {
        let rel0 = tape.constant(batch.edge_vectors().clone());
        let (energy, forces) = self.run(tape, pvars, batch, rel0);
        ModelOutput { energy, forces }
    }

    fn describe(&self) -> String {
        self.config.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgnn_graph::vec3::{matvec, rotation_about};
    use matgnn_graph::{AtomicStructure, Element, MolGraph};
    use matgnn_tensor::gradcheck;
    use matgnn_tensor::rng::Rng;

    fn random_structure(n: usize, seed: u64) -> AtomicStructure {
        let mut rng = Rng::seed_from_u64(seed);
        let pool = [Element::H, Element::C, Element::N, Element::O];
        let species = (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
        let positions = (0..n)
            .map(|i| {
                [
                    (i % 3) as f64 * 1.3 + rng.gen_range(-0.3..0.3),
                    ((i / 3) % 3) as f64 * 1.3 + rng.gen_range(-0.3..0.3),
                    (i / 9) as f64 * 1.3 + rng.gen_range(-0.3..0.3),
                ]
            })
            .collect();
        AtomicStructure::new(species, positions).unwrap()
    }

    fn batch_of(structures: &[AtomicStructure]) -> GraphBatch {
        let graphs: Vec<MolGraph> = structures
            .iter()
            .map(|s| MolGraph::from_structure(s, 3.0))
            .collect();
        let refs: Vec<&MolGraph> = graphs.iter().collect();
        GraphBatch::from_graphs(&refs)
    }

    fn run(model: &Egnn, batch: &GraphBatch) -> (Tensor, Tensor) {
        let mut tape = Tape::new();
        let (_, out) = model.bind_and_forward(&mut tape, batch);
        (
            tape.value(out.energy).clone(),
            tape.value(out.forces).clone(),
        )
    }

    #[test]
    fn output_shapes() {
        let model = Egnn::new(EgnnConfig::new(8, 2));
        let b = batch_of(&[random_structure(5, 1), random_structure(7, 2)]);
        let (e, f) = run(&model, &b);
        assert_eq!(e.shape().dims(), &[2, 1]);
        assert_eq!(f.shape().dims(), &[12, 3]);
        assert!(e.is_finite());
        assert!(f.is_finite());
    }

    #[test]
    fn built_param_count_matches_config_formula() {
        for cfg in [
            EgnnConfig::new(8, 2),
            EgnnConfig::new(16, 4).with_edge_gate(true),
            EgnnConfig::new(12, 3).with_update_coords(false),
            EgnnConfig::new(10, 1).with_residual(true),
            EgnnConfig::new(9, 2).with_layer_norm(true),
        ] {
            assert_eq!(
                Egnn::new(cfg).n_params(),
                cfg.param_count(),
                "{}",
                cfg.summary()
            );
        }
    }

    #[test]
    fn energy_invariant_under_translation() {
        let model = Egnn::new(EgnnConfig::new(8, 2));
        let s = random_structure(6, 3);
        let mut t = s.clone();
        t.translate([7.0, -4.0, 2.5]);
        let (e1, f1) = run(&model, &batch_of(&[s]));
        let (e2, f2) = run(&model, &batch_of(&[t]));
        assert!(e1.allclose(&e2, 1e-4), "{e1:?} vs {e2:?}");
        assert!(f1.allclose(&f2, 1e-4));
    }

    #[test]
    fn energy_invariant_forces_covariant_under_rotation() {
        let model = Egnn::new(EgnnConfig::new(8, 3));
        let s = random_structure(6, 4);
        let rot = rotation_about([0.3, 1.0, -0.2], 1.2);
        let mut t = s.clone();
        t.rotate(&rot);
        let (e1, f1) = run(&model, &batch_of(&[s]));
        let (e2, f2) = run(&model, &batch_of(&[t]));
        assert!(e1.allclose(&e2, 1e-3), "energy changed under rotation");
        for a in 0..f1.rows() {
            let v = [
                f1.get(a, 0) as f64,
                f1.get(a, 1) as f64,
                f1.get(a, 2) as f64,
            ];
            let rv = matvec(&rot, v);
            for k in 0..3 {
                assert!(
                    (rv[k] as f32 - f2.get(a, k)).abs() < 1e-3,
                    "atom {a} force not covariant: {rv:?} vs row {a} of {f2:?}"
                );
            }
        }
    }

    #[test]
    fn permutation_equivariance() {
        let model = Egnn::new(EgnnConfig::new(8, 2));
        let s = random_structure(5, 5);
        // Reverse atom order.
        let perm: Vec<usize> = (0..s.len()).rev().collect();
        let species: Vec<Element> = perm.iter().map(|&i| s.species()[i]).collect();
        let positions: Vec<[f64; 3]> = perm.iter().map(|&i| s.positions()[i]).collect();
        let p = AtomicStructure::new(species, positions).unwrap();
        let (e1, f1) = run(&model, &batch_of(&[s]));
        let (e2, f2) = run(&model, &batch_of(&[p]));
        assert!(e1.allclose(&e2, 1e-4), "energy changed under permutation");
        for (new_row, &old_row) in perm.iter().enumerate() {
            for k in 0..3 {
                assert!((f1.get(old_row, k) - f2.get(new_row, k)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn batching_consistent_with_individual_graphs() {
        let model = Egnn::new(EgnnConfig::new(8, 2));
        let s1 = random_structure(5, 6);
        let s2 = random_structure(8, 7);
        let (e1, f1) = run(&model, &batch_of(std::slice::from_ref(&s1)));
        let (e2, f2) = run(&model, &batch_of(std::slice::from_ref(&s2)));
        let (eb, fb) = run(&model, &batch_of(&[s1, s2]));
        assert!((eb.get(0, 0) - e1.get(0, 0)).abs() < 1e-4);
        assert!((eb.get(1, 0) - e2.get(0, 0)).abs() < 1e-4);
        for a in 0..5 {
            for k in 0..3 {
                assert!((fb.get(a, k) - f1.get(a, k)).abs() < 1e-4);
            }
        }
        for a in 0..8 {
            for k in 0..3 {
                assert!((fb.get(5 + a, k) - f2.get(a, k)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn layer_norm_variant_gradcheck() {
        let model = Egnn::new(EgnnConfig::new(4, 2).with_layer_norm(true).with_seed(29));
        let b = batch_of(&[random_structure(4, 30)]);
        let inputs: Vec<Tensor> = model.params().iter().map(|e| e.tensor.clone()).collect();
        gradcheck::check_grad(
            &inputs,
            move |tape, vars| {
                let out = model.forward(tape, vars, &b);
                let e2 = tape.square(out.energy);
                let f2 = tape.square(out.forces);
                let le = tape.mean_all(e2);
                let lf = tape.mean_all(f2);
                tape.add(le, lf)
            },
            3e-2,
        );
    }

    #[test]
    fn whole_model_gradcheck() {
        // Check d(loss)/d(params) for a tiny EGNN against finite
        // differences, where loss = mean(E²) + mean(F²).
        let model = Egnn::new(EgnnConfig::new(4, 2).with_seed(11));
        let b = batch_of(&[random_structure(4, 8)]);
        let inputs: Vec<Tensor> = model.params().iter().map(|e| e.tensor.clone()).collect();
        gradcheck::check_grad(
            &inputs,
            move |tape, vars| {
                let out = model.forward(tape, vars, &b);
                let e2 = tape.square(out.energy);
                let f2 = tape.square(out.forces);
                let le = tape.mean_all(e2);
                let lf = tape.mean_all(f2);
                tape.add(le, lf)
            },
            3e-2,
        );
    }

    #[test]
    fn conservative_forces_match_finite_differences() {
        // F = −∂E/∂x must agree with central differences of the predicted
        // energy under edge-vector perturbations that mimic moving one
        // atom (the edge set is held fixed, as in a single MD step).
        let model = Egnn::new(EgnnConfig::new(6, 2).with_seed(23));
        let s = random_structure(5, 21);
        let graph = MolGraph::from_structure(&s, 3.0);
        let batch = GraphBatch::from_graphs(&[&graph]);
        let (_, forces) = model.conservative_forces(&batch);

        let energy_with_shift = |atom: usize, axis: usize, eps: f32| -> f32 {
            // Shift edge vectors exactly as moving `atom` by eps would.
            let mut ev = batch.edge_vectors().clone();
            {
                let data = ev.data_mut();
                for (e, (&src, &dst)) in batch.src().iter().zip(batch.dst().iter()).enumerate() {
                    if src == atom {
                        data[e * 3 + axis] += eps;
                    }
                    if dst == atom {
                        data[e * 3 + axis] -= eps;
                    }
                }
            }
            let mut tape = Tape::new();
            let pvars = model.params().bind_frozen(&mut tape);
            let rel0 = tape.constant(ev);
            let mut state = {
                let (st, en) = model.segment_param_range(0);
                model.segment_forward(&mut tape, 0, &pvars[st..en], &batch, &[])
            };
            state[2] = rel0;
            for seg in 1..model.n_segments() {
                let (st, en) = model.segment_param_range(seg);
                state = model.segment_forward(&mut tape, seg, &pvars[st..en], &batch, &state);
            }
            tape.value(state[0]).sum_all()
        };

        let eps = 2e-3;
        for atom in 0..s.len() {
            for axis in 0..3 {
                let fd = -(energy_with_shift(atom, axis, eps)
                    - energy_with_shift(atom, axis, -eps))
                    / (2.0 * eps);
                let got = forces.get(atom, axis);
                assert!(
                    (fd - got).abs() < 2e-2 * (1.0 + fd.abs()),
                    "atom {atom} axis {axis}: FD {fd} vs analytic {got}"
                );
            }
        }
    }

    #[test]
    fn conservative_forces_sum_to_zero_and_rotate() {
        let model = Egnn::new(EgnnConfig::new(8, 2).with_seed(24));
        let s = random_structure(6, 22);
        let rot = rotation_about([0.2, 0.9, -0.5], 1.1);
        let mut r = s.clone();
        r.rotate(&rot);
        let get = |s: &AtomicStructure| {
            let g = MolGraph::from_structure(s, 3.0);
            let b = GraphBatch::from_graphs(&[&g]);
            model.conservative_forces(&b)
        };
        let (e1, f1) = get(&s);
        let (e2, f2) = get(&r);
        // Energy invariant; forces covariant; net force exactly zero
        // (the model sees only relative vectors).
        assert!(e1.allclose(&e2, 1e-3));
        for axis in 0..3 {
            let net: f32 = (0..s.len()).map(|a| f1.get(a, axis)).sum();
            assert!(
                net.abs() < 1e-4,
                "net conservative force {net} on axis {axis}"
            );
        }
        for a in 0..s.len() {
            let v = [
                f1.get(a, 0) as f64,
                f1.get(a, 1) as f64,
                f1.get(a, 2) as f64,
            ];
            let rv = matvec(&rot, v);
            for (k, &rvk) in rv.iter().enumerate() {
                assert!((rvk as f32 - f2.get(a, k)).abs() < 1e-3, "atom {a}");
            }
        }
    }

    #[test]
    fn rbf_variant_gradcheck_and_equivariance() {
        let model = Egnn::new(EgnnConfig::new(4, 2).with_rbf(6).with_seed(17));
        let b = batch_of(&[random_structure(4, 12)]);
        let inputs: Vec<Tensor> = model.params().iter().map(|e| e.tensor.clone()).collect();
        let m2 = model.clone();
        gradcheck::check_grad(
            &inputs,
            move |tape, vars| {
                let out = m2.forward(tape, vars, &b);
                let e2 = tape.square(out.energy);
                let f2 = tape.square(out.forces);
                let le = tape.mean_all(e2);
                let lf = tape.mean_all(f2);
                tape.add(le, lf)
            },
            3e-2,
        );
        // RBF features depend only on distances → rotation invariance holds.
        let s = random_structure(6, 13);
        let rot = rotation_about([0.7, 0.1, -0.4], 0.8);
        let mut t = s.clone();
        t.rotate(&rot);
        let (e1, _) = run(&model, &batch_of(&[s]));
        let (e2, _) = run(&model, &batch_of(&[t]));
        assert!(
            e1.allclose(&e2, 1e-3),
            "RBF variant broke rotation invariance"
        );
    }

    #[test]
    fn gated_and_residual_variants_run() {
        for cfg in [
            EgnnConfig::new(6, 2).with_edge_gate(true),
            EgnnConfig::new(6, 2).with_residual(true),
            EgnnConfig::new(6, 2).with_update_coords(false),
            EgnnConfig::new(6, 2).with_rbf(8),
            EgnnConfig::new(6, 2)
                .with_layer_norm(true)
                .with_residual(true),
        ] {
            let model = Egnn::new(cfg);
            let b = batch_of(&[random_structure(5, 9)]);
            let (e, f) = run(&model, &b);
            assert!(e.is_finite() && f.is_finite(), "{}", cfg.summary());
        }
    }

    #[test]
    fn segments_cover_all_params_disjointly() {
        let model = Egnn::new(EgnnConfig::new(8, 3));
        let mut covered = 0;
        for seg in 0..model.n_segments() {
            let (start, end) = model.segment_param_range(seg);
            assert_eq!(start, covered, "segment {seg} not contiguous");
            covered = end;
        }
        assert_eq!(covered, model.params().len());
    }

    #[test]
    #[should_panic(expected = "hidden_dim")]
    fn zero_width_panics() {
        let _ = Egnn::new(EgnnConfig::new(0, 2));
    }
}
