//! Graph attention utilities and the GAT model family.
//!
//! The paper conjectures (Sec. IV-A) that EGNN's *locality constraints*
//! cap its scaling beyond ~2 B parameters, pointing at attention
//! mechanisms — and cites graph attention networks (Veličković et al.) as
//! the GNN family that learns connection strengths instead of fixing
//! them. [`Gat`] provides that comparator: multi-layer attention over the
//! radius graph with learned per-edge weights, distance-aware scores, and
//! the same equivariant force head as the EGNN so the comparison isolates
//! the message-weighting mechanism.

use std::sync::Arc;

use matgnn_graph::GraphBatch;
use matgnn_tensor::{Tape, Tensor, Var};

use crate::mlp::{init_rng, Activation, Linear, LinearSpec, Mlp};
use crate::{GnnModel, ParamSet};

/// Numerically-stable softmax over edge scores grouped by segment
/// (typically the destination node of each edge).
///
/// The per-segment maximum is subtracted as a **detached** constant (the
/// standard stability trick; its subgradient contribution vanishes for
/// softmax), then `exp / segment-sum` is built from differentiable ops.
///
/// # Panics
///
/// Panics if `scores` is not a `[n_edges × 1]` column or `seg` length
/// disagrees.
pub fn segment_softmax(
    tape: &mut Tape,
    scores: Var,
    seg: &Arc<Vec<usize>>,
    n_segments: usize,
) -> Var {
    let n_edges = tape.shape(scores).rows();
    assert_eq!(tape.shape(scores).cols(), 1, "scores must be a column");
    assert_eq!(seg.len(), n_edges, "segment ids must match edge count");

    // Detached per-segment maxima.
    let values = tape.value(scores).clone();
    let mut seg_max = vec![f32::NEG_INFINITY; n_segments];
    for (e, &s) in seg.iter().enumerate() {
        seg_max[s] = seg_max[s].max(values.data()[e]);
    }
    let max_per_edge: Vec<f32> = seg
        .iter()
        .map(|&s| {
            if seg_max[s].is_finite() {
                seg_max[s]
            } else {
                0.0
            }
        })
        .collect();
    let max_const =
        tape.constant(Tensor::from_vec((n_edges, 1), max_per_edge).expect("edge max column"));

    let shifted = tape.sub(scores, max_const);
    let expv = tape.exp(shifted);
    let denom = tape.scatter_add_rows(expv, Arc::clone(seg), n_segments);
    // Guard empty segments against division by zero.
    let denom = tape.add_scalar(denom, 1e-12);
    let denom_per_edge = tape.gather_rows(denom, Arc::clone(seg));
    let inv = tape.recip(denom_per_edge);
    tape.mul(expv, inv)
}

/// Hyperparameters of the GAT comparator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatConfig {
    /// Input node feature width.
    pub node_feat_dim: usize,
    /// Hidden width.
    pub hidden_dim: usize,
    /// Number of attention layers.
    pub n_layers: usize,
    /// Whether feature updates are residual.
    pub residual: bool,
    /// Initialization seed.
    pub seed: u64,
}

impl GatConfig {
    /// A config with default flags.
    pub fn new(hidden_dim: usize, n_layers: usize) -> Self {
        GatConfig {
            node_feat_dim: matgnn_graph::NODE_FEAT_DIM,
            hidden_dim,
            n_layers,
            residual: true,
            seed: 0,
        }
    }

    /// Exact scalar parameter count.
    pub fn param_count(&self) -> usize {
        let h = self.hidden_dim;
        let f = self.node_feat_dim;
        let mut total = f * h + h; // embed
                                   // Per layer: value transform W (h→h), score MLP [2h+1 → h → 1].
        let per_layer = (h * h + h) + Mlp::count_params(&[2 * h + 1, h, 1]);
        total += per_layer * self.n_layers;
        // Heads: energy [h → h → 1], force [2h+1 → h → 1].
        total += Mlp::count_params(&[h, h, 1]);
        total += Mlp::count_params(&[2 * h + 1, h, 1]);
        total
    }

    /// Finds the width whose parameter count at `n_layers` is closest to
    /// `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is zero.
    pub fn with_target_params(target: usize, n_layers: usize) -> Self {
        assert!(target > 0, "target parameter count must be positive");
        let count = |w: usize| GatConfig::new(w, n_layers).param_count();
        let mut lo = 1usize;
        let mut hi = 2usize;
        while count(hi) < target {
            lo = hi;
            hi *= 2;
        }
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if count(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let best = if target.abs_diff(count(lo)) <= target.abs_diff(count(hi)) {
            lo
        } else {
            hi
        };
        GatConfig::new(best.max(2), n_layers)
    }
}

#[derive(Debug, Clone)]
struct GatLayer {
    value: Linear,
    score: Mlp,
}

/// Graph attention network over the radius graph, with the EGNN's
/// equivariant force head.
///
/// Per layer, for each directed edge `(i, j)`:
///
/// ```text
/// s_ij = φ_s(h_i, h_j, ‖r_ij‖²)            (scalar score)
/// α_ij = softmax_j over edges into i (s_ij)
/// h_i  = silu( Σ_j α_ij · W h_j )  (+ h_i if residual)
/// ```
///
/// # Examples
///
/// ```
/// use matgnn_graph::{AtomicStructure, Element, GraphBatch, MolGraph};
/// use matgnn_model::{Gat, GatConfig, GnnModel};
/// use matgnn_tensor::Tape;
///
/// let s = AtomicStructure::new(
///     vec![Element::C, Element::O],
///     vec![[0.0, 0.0, 0.0], [1.2, 0.0, 0.0]],
/// )?;
/// let g = MolGraph::from_structure(&s, 2.0);
/// let batch = GraphBatch::from_graphs(&[&g]);
/// let model = Gat::new(GatConfig::new(8, 2));
/// let mut tape = Tape::new();
/// let (_, out) = model.bind_and_forward(&mut tape, &batch);
/// assert_eq!(tape.shape(out.forces).dims(), &[2, 3]);
/// # Ok::<(), matgnn_graph::StructureError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Gat {
    config: GatConfig,
    params: ParamSet,
    embed: Linear,
    layers: Vec<GatLayer>,
    energy_head: Mlp,
    force_head: Mlp,
    segment_ranges: Vec<(usize, usize)>,
}

impl Gat {
    /// Builds and initializes the model.
    ///
    /// # Panics
    ///
    /// Panics if `hidden_dim` or `n_layers` is zero.
    pub fn new(config: GatConfig) -> Self {
        assert!(config.hidden_dim > 0, "hidden_dim must be positive");
        assert!(config.n_layers > 0, "n_layers must be positive");
        let h = config.hidden_dim;
        let mut params = ParamSet::new();
        let mut rng = init_rng(config.seed);
        let mut segment_ranges = Vec::new();

        let mut start = params.len();
        let embed = Linear::new(
            &mut params,
            "embed",
            LinearSpec {
                in_dim: config.node_feat_dim,
                out_dim: h,
            },
            1.0,
            &mut rng,
        );
        segment_ranges.push((start, params.len()));

        let mut layers = Vec::with_capacity(config.n_layers);
        for l in 0..config.n_layers {
            start = params.len();
            let value = Linear::new(
                &mut params,
                &format!("layer{l}.value"),
                LinearSpec {
                    in_dim: h,
                    out_dim: h,
                },
                1.0,
                &mut rng,
            );
            let score = Mlp::new(
                &mut params,
                &format!("layer{l}.score"),
                &[2 * h + 1, h, 1],
                Activation::Silu,
                Activation::None,
                1.0,
                &mut rng,
            );
            layers.push(GatLayer { value, score });
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
            &[2 * h + 1, h, 1],
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
        Gat {
            config,
            params,
            embed,
            layers,
            energy_head,
            force_head,
            segment_ranges,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &GatConfig {
        &self.config
    }

    /// Total scalar parameter count.
    pub fn n_params(&self) -> usize {
        self.params.n_scalars()
    }

    /// Edge inputs `[h_src ‖ h_dst ‖ ‖r‖²]` with constant radius-edge
    /// vectors (coordinates are not updated by GAT layers).
    fn edge_inputs(&self, tape: &mut Tape, batch: &GraphBatch, h: Var) -> (Var, Var) {
        let rel = tape.constant(batch.edge_vectors().clone());
        let sq = tape.square(rel);
        let dist2 = tape.sum_axis1(sq);
        let hi = tape.gather_rows(h, Arc::clone(batch.src()));
        let hj = tape.gather_rows(h, Arc::clone(batch.dst()));
        let m_in = tape.concat_cols(&[hi, hj, dist2]);
        (m_in, rel)
    }
}

impl GnnModel for Gat {
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
            let feats = tape.constant(batch.node_feats().clone());
            let h = self.embed.forward(tape, pvars, offset, &feats);
            let h = tape.silu(h);
            vec![h]
        } else if seg < last {
            let layer = &self.layers[seg - 1];
            let h = state[0];
            let n = batch.n_nodes();
            let (m_in, _) = self.edge_inputs(tape, batch, h);
            let scores = layer.score.forward(tape, pvars, offset, &m_in);
            let attn = segment_softmax(tape, scores, batch.src(), n);
            let v = layer.value.forward(tape, pvars, offset, &h);
            let vj = tape.gather_rows(v, Arc::clone(batch.dst()));
            let weighted = tape.mul_col(vj, attn);
            let agg = tape.scatter_add_rows(weighted, Arc::clone(batch.src()), n);
            let out = tape.silu(agg);
            let h_next = if self.config.residual {
                tape.add(h, out)
            } else {
                out
            };
            vec![h_next]
        } else {
            let h = state[0];
            let node_e = self.energy_head.forward(tape, pvars, offset, &h);
            let energy =
                tape.scatter_add_rows(node_e, Arc::clone(batch.node_graph()), batch.n_graphs());
            let (m_in, rel) = self.edge_inputs(tape, batch, h);
            let w = self.force_head.forward(tape, pvars, offset, &m_in);
            let weighted = tape.mul_col(rel, w);
            let forces = tape.scatter_add_rows(weighted, Arc::clone(batch.src()), batch.n_nodes());
            vec![energy, forces]
        }
    }

    fn describe(&self) -> String {
        format!(
            "gat(h={}, L={}, {} params{})",
            self.config.hidden_dim,
            self.config.n_layers,
            self.n_params(),
            if self.config.residual {
                ", residual"
            } else {
                ""
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgnn_graph::vec3::{matvec, rotation_about};
    use matgnn_graph::{AtomicStructure, Element, MolGraph};
    use matgnn_tensor::gradcheck;
    use matgnn_tensor::rng::Rng;

    fn random_batch(n: usize, seed: u64) -> GraphBatch {
        let mut rng = Rng::seed_from_u64(seed);
        let pool = [Element::H, Element::C, Element::N, Element::O];
        let species = (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
        let positions = (0..n)
            .map(|i| {
                [
                    (i % 3) as f64 * 1.3 + rng.gen_range(-0.3..0.3),
                    ((i / 3) % 3) as f64 * 1.3 + rng.gen_range(-0.3..0.3),
                    (i / 9) as f64 * 1.3,
                ]
            })
            .collect();
        let s = AtomicStructure::new(species, positions).unwrap();
        let g = MolGraph::from_structure(&s, 3.0);
        GraphBatch::from_graphs(&[&g])
    }

    #[test]
    fn segment_softmax_sums_to_one_per_segment() {
        let mut tape = Tape::new();
        let scores = tape.param(Tensor::from_vec((5, 1), vec![1.0, -2.0, 0.5, 3.0, 3.0]).unwrap());
        let seg = Arc::new(vec![0usize, 0, 1, 1, 1]);
        let soft = segment_softmax(&mut tape, scores, &seg, 2);
        let v = tape.value(soft);
        let s0 = v.get(0, 0) + v.get(1, 0);
        let s1 = v.get(2, 0) + v.get(3, 0) + v.get(4, 0);
        assert!((s0 - 1.0).abs() < 1e-6, "segment 0 sums to {s0}");
        assert!((s1 - 1.0).abs() < 1e-6, "segment 1 sums to {s1}");
        // All weights positive; the larger score dominates its segment.
        assert!(v.data().iter().all(|&x| x > 0.0));
        assert!(v.get(0, 0) > v.get(1, 0));
    }

    #[test]
    fn segment_softmax_stable_for_large_scores() {
        let mut tape = Tape::new();
        let scores = tape.param(Tensor::from_vec((3, 1), vec![1000.0, 999.0, -1000.0]).unwrap());
        let seg = Arc::new(vec![0usize, 0, 0]);
        let soft = segment_softmax(&mut tape, scores, &seg, 1);
        let v = tape.value(soft);
        assert!(v.is_finite(), "overflowed: {v:?}");
        let total: f32 = v.data().iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn segment_softmax_gradcheck() {
        let mut rng = Rng::seed_from_u64(3);
        let scores = Tensor::randn((6, 1), 0.8, &mut rng);
        let seg = Arc::new(vec![0usize, 0, 1, 1, 2, 2]);
        gradcheck::check_grad(
            &[scores],
            move |tape, vars| {
                let soft = segment_softmax(tape, vars[0], &Arc::clone(&seg), 3);
                // A non-trivial downstream function of the weights.
                let sq = tape.square(soft);
                tape.mean_all(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn gat_output_shapes_and_param_count() {
        let cfg = GatConfig::new(8, 2);
        let model = Gat::new(cfg);
        assert_eq!(model.n_params(), cfg.param_count());
        let b = random_batch(7, 1);
        let mut tape = Tape::new();
        let (_, out) = model.bind_and_forward(&mut tape, &b);
        assert_eq!(tape.shape(out.energy).dims(), &[1, 1]);
        assert_eq!(tape.shape(out.forces).dims(), &[7, 3]);
        assert!(tape.value(out.energy).is_finite());
    }

    #[test]
    fn gat_gradcheck() {
        let model = Gat::new(GatConfig::new(4, 2));
        let b = random_batch(5, 2);
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
    fn gat_energy_rotation_invariant_forces_covariant() {
        // The force head is the same equivariant construction as EGNN's,
        // and features depend on geometry only via ‖r‖².
        let model = Gat::new(GatConfig::new(8, 2));
        let mut rng = Rng::seed_from_u64(5);
        let species = vec![Element::C; 6];
        let positions: Vec<[f64; 3]> = (0..6)
            .map(|_| {
                [
                    rng.gen_range(-1.5..1.5),
                    rng.gen_range(-1.5..1.5),
                    rng.gen_range(-1.5..1.5),
                ]
            })
            .collect();
        let s = AtomicStructure::new(species, positions).unwrap();
        let rot = rotation_about([0.5, -0.3, 1.0], 0.9);
        let mut r = s.clone();
        r.rotate(&rot);
        let run = |s: &AtomicStructure| {
            let g = MolGraph::from_structure(s, 3.5);
            let b = GraphBatch::from_graphs(&[&g]);
            let mut tape = Tape::new();
            let (_, out) = model.bind_and_forward(&mut tape, &b);
            (
                tape.value(out.energy).clone(),
                tape.value(out.forces).clone(),
            )
        };
        let (e1, f1) = run(&s);
        let (e2, f2) = run(&r);
        assert!(e1.allclose(&e2, 1e-4), "GAT energy changed under rotation");
        for a in 0..6 {
            let v = [
                f1.get(a, 0) as f64,
                f1.get(a, 1) as f64,
                f1.get(a, 2) as f64,
            ];
            let rv = matvec(&rot, v);
            for (k, &rvk) in rv.iter().enumerate() {
                assert!((rvk as f32 - f2.get(a, k)).abs() < 1e-4, "atom {a}");
            }
        }
    }

    #[test]
    fn gat_checkpointing_segments_cover_params() {
        let model = Gat::new(GatConfig::new(8, 3));
        let mut covered = 0;
        for seg in 0..model.n_segments() {
            let (start, end) = model.segment_param_range(seg);
            assert_eq!(start, covered);
            covered = end;
        }
        assert_eq!(covered, model.params().len());
    }

    #[test]
    fn target_params_search() {
        let cfg = GatConfig::with_target_params(20_000, 3);
        let got = cfg.param_count() as f64;
        assert!((got / 20_000.0 - 1.0).abs() < 0.3, "{got}");
    }
}
