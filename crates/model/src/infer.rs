//! Tape-free inference: a frozen, immutable EGNN forward pass.
//!
//! Training runs the EGNN forward on the autodiff
//! [`Tape`](matgnn_tensor::Tape), which records an op graph and keeps
//! every intermediate alive for backward. Inference needs none of that:
//! [`FrozenEgnn`] runs the *same* forward body ([`Egnn`]'s, written once
//! against [`Exec`](matgnn_tensor::Exec)) on the non-recording
//! [`NoTape`] executor. Values are plain [`Tensor`]s, so activations,
//! bias adds, gates and residuals overwrite their inputs in place,
//! temporaries cycle through the size-bucketed recycler, and
//! steady-state requests allocate nothing.
//!
//! Both executors call the same kernels in the same order, so within one
//! SIMD tier the frozen forward equals the tape forward **bitwise**; it
//! is also bitwise deterministic for any pool size, exactly like the
//! training kernels.

use std::fmt;

use matgnn_graph::GraphBatch;
use matgnn_tensor::{NoTape, Tensor};

use crate::{Egnn, EgnnConfig, GnnModel, ParamEntry, ParamSet};

/// Why a parameter set could not be frozen into an inference engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FreezeError {
    /// The parameter set lacks entries the architecture needs (e.g. the
    /// config is deeper than the checkpoint).
    MissingParam {
        /// The first name the architecture needs and did not find.
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
    /// The parameter set has entries the architecture does not use (e.g.
    /// the config is shallower than the checkpoint).
    TrailingParams {
        /// Number of unconsumed entries.
        extra: usize,
    },
}

impl fmt::Display for FreezeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FreezeError::MissingParam { expected } => {
                write!(f, "parameter set lacks `{expected}`")
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
    model: Egnn,
    /// The model's parameter tensors in order (sharing its buffers): the
    /// binding the forward runs on.
    weights: Vec<Tensor>,
}

impl FrozenEgnn {
    /// Freezes a live model's current parameters.
    pub fn freeze(model: &Egnn) -> Self {
        Self::bind(model.clone())
    }

    /// Builds the engine from a checkpointed parameter set and the config
    /// describing its architecture (the MGTC format stores parameters
    /// only, so callers supply the config they trained with). The set is
    /// checked by name and shape against the entries of
    /// [`Egnn::new`]`(config)` before any weight is accepted; a mismatch
    /// is an error, never a panic.
    pub fn from_params(config: EgnnConfig, params: &ParamSet) -> Result<Self, FreezeError> {
        let mut model = Egnn::build(config);
        check_layout(model.params(), params)?;
        for (mine, theirs) in model.params_mut().iter_mut().zip(params.iter()) {
            mine.tensor = theirs
                .tensor
                .reshape(mine.tensor.shape().clone())
                .expect("element count checked");
        }
        Ok(Self::bind(model))
    }

    fn bind(model: Egnn) -> Self {
        let weights = model.params().iter().map(|e| e.tensor.clone()).collect();
        FrozenEgnn { model, weights }
    }

    /// The architecture this engine was frozen from.
    pub fn config(&self) -> &EgnnConfig {
        self.model.config()
    }

    /// Runs the forward pass, returning `(energies [n_graphs × 1],
    /// forces [n_nodes × 3])` in the model's (normalized) output units:
    /// the training forward's body and heads, on the non-recording
    /// executor.
    ///
    /// Takes `&self`: the engine is immutable and can serve concurrent
    /// callers. With warmed recycler buckets, a steady-state call performs
    /// zero heap allocations (asserted by `matgnn_bench serving`).
    pub fn predict(&self, batch: &GraphBatch) -> (Tensor, Tensor) {
        let rel0 = batch.edge_vectors().clone();
        self.model.run(&mut NoTape, &self.weights, batch, rel0)
    }
}

/// Checks `found` against the architecture's entries `want` as a one-hunk
/// diff: the entries that agree by name from the front and from the back
/// must agree in element count, and what lies between names the error —
/// nothing left of `found` means it lacks entries, nothing left of `want`
/// means it has extra ones, and both non-empty is a name mismatch.
fn check_layout(want: &ParamSet, found: &ParamSet) -> Result<(), FreezeError> {
    let same = |(w, f): &(&ParamEntry, &ParamEntry)| w.name == f.name;
    let head = want.iter().zip(found.iter()).take_while(same).count();
    let room = want.len().min(found.len()) - head;
    let tail = want
        .iter()
        .rev()
        .zip(found.iter().rev())
        .take(room)
        .take_while(same)
        .count();
    let matched = want.iter().zip(found.iter()).take(head);
    let matched = matched.chain(want.iter().rev().zip(found.iter().rev()).take(tail));
    for (w, f) in matched {
        if w.tensor.numel() != f.tensor.numel() {
            let dims = w.tensor.shape().dims();
            return Err(FreezeError::ShapeMismatch {
                name: w.name.clone(),
                expected: (dims[0], dims.get(1).copied().unwrap_or(0)),
                found: f.tensor.numel(),
            });
        }
    }
    match (want.len() - head - tail, found.len() - head - tail) {
        (0, 0) => Ok(()),
        (_, 0) => Err(FreezeError::MissingParam {
            expected: want.entry(head).name.clone(),
        }),
        (0, extra) => Err(FreezeError::TrailingParams { extra }),
        _ => Err(FreezeError::NameMismatch {
            index: head,
            expected: want.entry(head).name.clone(),
            found: found.entry(head).name.clone(),
        }),
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

    /// Each way a config can disagree with a checkpoint maps to its own
    /// typed error.
    #[test]
    fn mismatched_config_is_rejected() {
        let model = Egnn::new(EgnnConfig::new(16, 3));
        let load = |config| FrozenEgnn::from_params(config, model.params());
        // Deeper config: the layer-3 parameters are missing.
        assert_eq!(
            load(EgnnConfig::new(16, 4)).unwrap_err(),
            FreezeError::MissingParam {
                expected: "layer3.phi_e.0.weight".into()
            }
        );
        // Wrong width: the first weight has the wrong shape.
        assert_eq!(
            load(EgnnConfig::new(24, 3)).unwrap_err(),
            FreezeError::ShapeMismatch {
                name: "embed.0.weight".into(),
                expected: (EgnnConfig::new(24, 3).node_feat_dim, 24),
                found: 16 * EgnnConfig::new(16, 3).node_feat_dim,
            }
        );
        // An extra feature changes the names inside every layer.
        assert_eq!(
            load(EgnnConfig::new(16, 3).with_layer_norm(true)).unwrap_err(),
            FreezeError::NameMismatch {
                index: 14,
                expected: "layer0.norm.gamma".into(),
                found: "layer1.phi_e.0.weight".into(),
            }
        );
        // Shallower config: the checkpoint's layer 2 is left over.
        assert_eq!(
            load(EgnnConfig::new(16, 2)).unwrap_err(),
            FreezeError::TrailingParams { extra: 12 }
        );
        // Degenerate configs and sets are errors too, not panics.
        assert!(load(EgnnConfig::new(0, 3)).is_err());
        assert!(load(EgnnConfig::new(16, 0)).is_err());
        let empty = FrozenEgnn::from_params(EgnnConfig::new(16, 3), &ParamSet::new());
        assert_eq!(
            empty.unwrap_err(),
            FreezeError::MissingParam {
                expected: "embed.0.weight".into()
            }
        );
    }
}
