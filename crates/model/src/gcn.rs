//! A plain graph convolutional network (Kipf & Welling) baseline.
//!
//! The paper motivates EGNN by its built-in E(n) equivariance; this GCN
//! gives the experiments a non-equivariant comparator. Its layer is
//! `h' = σ(D⁻¹(A + I)·h·W)`; the force head is a direct linear map from
//! invariant node features to 3 components — deliberately *not*
//! equivariant, which is exactly the failure mode the ablation benches
//! demonstrate.

use std::sync::Arc;

use matgnn_graph::GraphBatch;
use matgnn_tensor::{Tape, Tensor, Var};

use crate::mlp::{init_rng, Activation, Linear, LinearSpec, Mlp};
use crate::{GnnModel, ParamSet};

/// Hyperparameters of the GCN baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcnConfig {
    /// Input node feature width.
    pub node_feat_dim: usize,
    /// Hidden width.
    pub hidden_dim: usize,
    /// Number of graph convolution layers.
    pub n_layers: usize,
    /// Initialization seed.
    pub seed: u64,
}

impl GcnConfig {
    /// A config with the graph crate's feature width and the given shape.
    pub fn new(hidden_dim: usize, n_layers: usize) -> Self {
        GcnConfig {
            node_feat_dim: matgnn_graph::NODE_FEAT_DIM,
            hidden_dim,
            n_layers,
            seed: 0,
        }
    }

    /// Exact scalar parameter count.
    pub fn param_count(&self) -> usize {
        let h = self.hidden_dim;
        let f = self.node_feat_dim;
        let mut total = f * h + h; // embed
        total += (h * h + h) * self.n_layers; // conv weights
        total += Mlp::count_params(&[h, h, 1]); // energy head
        total += h * 3 + 3; // force head (non-equivariant linear)
        total
    }
}

/// The GCN baseline model.
///
/// # Examples
///
/// ```
/// use matgnn_graph::{AtomicStructure, Element, GraphBatch, MolGraph};
/// use matgnn_model::{Gcn, GcnConfig, GnnModel};
/// use matgnn_tensor::Tape;
///
/// let s = AtomicStructure::new(
///     vec![Element::C, Element::H],
///     vec![[0.0, 0.0, 0.0], [1.1, 0.0, 0.0]],
/// )?;
/// let g = MolGraph::from_structure(&s, 2.0);
/// let batch = GraphBatch::from_graphs(&[&g]);
/// let model = Gcn::new(GcnConfig::new(8, 2));
/// let mut tape = Tape::new();
/// let (_, out) = model.bind_and_forward(&mut tape, &batch);
/// assert_eq!(tape.shape(out.energy).dims(), &[1, 1]);
/// # Ok::<(), matgnn_graph::StructureError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Gcn {
    config: GcnConfig,
    params: ParamSet,
    embed: Linear,
    convs: Vec<Linear>,
    energy_head: Mlp,
    force_head: Linear,
    segment_ranges: Vec<(usize, usize)>,
}

impl Gcn {
    /// Builds and initializes the model.
    ///
    /// # Panics
    ///
    /// Panics if `hidden_dim` or `n_layers` is zero.
    pub fn new(config: GcnConfig) -> Self {
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

        let mut convs = Vec::with_capacity(config.n_layers);
        for l in 0..config.n_layers {
            start = params.len();
            convs.push(Linear::new(
                &mut params,
                &format!("conv{l}"),
                LinearSpec {
                    in_dim: h,
                    out_dim: h,
                },
                1.0,
                &mut rng,
            ));
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
        let force_head = Linear::new(
            &mut params,
            "force_head",
            LinearSpec {
                in_dim: h,
                out_dim: 3,
            },
            0.1,
            &mut rng,
        );
        segment_ranges.push((start, params.len()));

        debug_assert_eq!(
            params.n_scalars(),
            config.param_count(),
            "param count formula drift"
        );
        Gcn {
            config,
            params,
            embed,
            convs,
            energy_head,
            force_head,
            segment_ranges,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &GcnConfig {
        &self.config
    }

    /// Total scalar parameter count.
    pub fn n_params(&self) -> usize {
        self.params.n_scalars()
    }

    /// `1/(deg+1)` per node — the symmetric-free random-walk normalization
    /// with a self loop.
    fn inv_degree_plus_one(batch: &GraphBatch) -> Tensor {
        let mut deg = vec![1.0f32; batch.n_nodes()];
        for &s in batch.src().iter() {
            deg[s] += 1.0;
        }
        let inv: Vec<f32> = deg.iter().map(|&d| 1.0 / d).collect();
        Tensor::from_vec((batch.n_nodes(), 1), inv).expect("inv degree length")
    }
}

impl GnnModel for Gcn {
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
            let h = state[0];
            // (A + I)·h via gather/scatter plus the self term.
            let hj = tape.gather_rows(h, Arc::clone(batch.dst()));
            let agg = tape.scatter_add_rows(hj, Arc::clone(batch.src()), batch.n_nodes());
            let with_self = tape.add(agg, h);
            let inv = tape.constant(Self::inv_degree_plus_one(batch));
            let norm = tape.mul_col(with_self, inv);
            let out = self.convs[seg - 1].forward(tape, pvars, offset, &norm);
            let out = tape.silu(out);
            vec![out]
        } else {
            let h = state[0];
            let node_e = self.energy_head.forward(tape, pvars, offset, &h);
            let energy =
                tape.scatter_add_rows(node_e, Arc::clone(batch.node_graph()), batch.n_graphs());
            let forces = self.force_head.forward(tape, pvars, offset, &h);
            vec![energy, forces]
        }
    }

    fn describe(&self) -> String {
        format!(
            "gcn(h={}, L={}, {} params)",
            self.config.hidden_dim,
            self.config.n_layers,
            self.n_params()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgnn_graph::{AtomicStructure, Element, MolGraph};
    use matgnn_tensor::gradcheck;
    use matgnn_tensor::rng::Rng;

    fn random_batch(n: usize, seed: u64) -> GraphBatch {
        let mut rng = Rng::seed_from_u64(seed);
        let species = (0..n).map(|_| Element::C).collect();
        let positions = (0..n)
            .map(|i| {
                [
                    (i % 3) as f64 * 1.3 + rng.gen_range(-0.2..0.2),
                    ((i / 3) % 3) as f64 * 1.3 + rng.gen_range(-0.2..0.2),
                    (i / 9) as f64 * 1.3,
                ]
            })
            .collect();
        let s = AtomicStructure::new(species, positions).unwrap();
        let g = MolGraph::from_structure(&s, 2.5);
        GraphBatch::from_graphs(&[&g])
    }

    #[test]
    fn output_shapes_and_count() {
        let cfg = GcnConfig::new(8, 2);
        let model = Gcn::new(cfg);
        assert_eq!(model.n_params(), cfg.param_count());
        let b = random_batch(6, 1);
        let mut tape = Tape::new();
        let (_, out) = model.bind_and_forward(&mut tape, &b);
        assert_eq!(tape.shape(out.energy).dims(), &[1, 1]);
        assert_eq!(tape.shape(out.forces).dims(), &[6, 3]);
    }

    #[test]
    fn gradcheck_tiny_gcn() {
        let model = Gcn::new(GcnConfig::new(4, 2));
        let b = random_batch(4, 2);
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
    fn gcn_forces_not_rotation_covariant() {
        // The documented limitation: rotating the structure does not rotate
        // GCN force predictions (features are rotation invariant, so the
        // prediction is unchanged while the target rotates).
        let model = Gcn::new(GcnConfig::new(8, 2));
        let mut rng = Rng::seed_from_u64(3);
        let species = vec![Element::C; 5];
        let positions: Vec<[f64; 3]> = (0..5)
            .map(|_| {
                [
                    rng.gen_range(-1.5..1.5),
                    rng.gen_range(-1.5..1.5),
                    rng.gen_range(-1.5..1.5),
                ]
            })
            .collect();
        let s = AtomicStructure::new(species, positions).unwrap();
        let rot = matgnn_graph::vec3::rotation_about([0.0, 0.0, 1.0], 1.0);
        let mut t = s.clone();
        t.rotate(&rot);
        let run = |s: &AtomicStructure| {
            let g = MolGraph::from_structure(s, 3.5);
            let b = GraphBatch::from_graphs(&[&g]);
            let mut tape = Tape::new();
            let (_, out) = model.bind_and_forward(&mut tape, &b);
            tape.value(out.forces).clone()
        };
        let f1 = run(&s);
        let f2 = run(&t);
        // Invariant features → identical predictions, NOT rotated ones.
        assert!(f1.allclose(&f2, 1e-4));
    }

    #[test]
    fn segments_cover_params() {
        let model = Gcn::new(GcnConfig::new(8, 3));
        let mut covered = 0;
        for seg in 0..model.n_segments() {
            let (start, end) = model.segment_param_range(seg);
            assert_eq!(start, covered);
            covered = end;
        }
        assert_eq!(covered, model.params().len());
    }
}
