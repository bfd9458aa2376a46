//! The [`GnnModel`] trait: [`Egnn`](crate::Egnn)'s tape forward as a
//! sequence of **segments** (embed, one per message-passing layer, heads).
//!
//! Vanilla execution chains the segments on one tape. Activation-
//! checkpointed training (in `matgnn-train`) and graph-parallel execution
//! ([`graphpar_step`](crate::graphpar_step)) run each segment forward
//! without a tape ([`Egnn::segment`](crate::Egnn::segment) on `NoTape`),
//! keep only the boundaries, and record a segment on a tape only to
//! differentiate it, recomputing it in backward — which is why the
//! segment boundaries are part of the model's interface.

use matgnn_graph::GraphBatch;
use matgnn_tensor::{Tape, Var};

use crate::ParamSet;

/// The two prediction heads of an atomistic model, as values of an
/// executor: recorded [`Var`]s on the tape (the default), or plain
/// tensors without one.
#[derive(Debug, Clone, Copy)]
pub struct ModelOutput<V = Var> {
    /// Graph-level energies, `[n_graphs × 1]`.
    pub energy: V,
    /// Node-level forces, `[n_nodes × 3]`.
    pub forces: V,
}

/// A GNN for atomistic property prediction, executable segment by segment.
///
/// The segment contract:
///
/// * segment `0` takes an empty state and produces the initial state;
/// * segments `1..n_segments()-1` map state to state;
/// * the **last** segment returns `[energy, forces]` as its state.
///
/// State is an ordered list of tape variables; its meaning is private to
/// the model (EGNN uses `[node features h, coordinate displacement d]`).
pub trait GnnModel {
    /// The model's parameters (optimizer/collective order).
    fn params(&self) -> &ParamSet;

    /// Mutable access to the parameters (for optimizer updates).
    fn params_mut(&mut self) -> &mut ParamSet;

    /// Number of checkpointable segments (≥ 2: at least embed + heads).
    fn n_segments(&self) -> usize;

    /// The half-open parameter-index range `[start, end)` used by `seg`.
    fn segment_param_range(&self, seg: usize) -> (usize, usize);

    /// Runs one segment. `pvars` must be the binding of exactly the
    /// parameters in [`segment_param_range`](GnnModel::segment_param_range).
    fn segment_forward(
        &self,
        tape: &mut Tape,
        seg: usize,
        pvars: &[Var],
        batch: &GraphBatch,
        state: &[Var],
    ) -> Vec<Var>;

    /// A short human-readable description.
    fn describe(&self) -> String;

    /// Full forward pass on one tape, equal to chaining every segment:
    /// binds nothing itself — `pvars` must be the binding of the
    /// **entire** [`ParamSet`], in order.
    fn forward(&self, tape: &mut Tape, pvars: &[Var], batch: &GraphBatch) -> ModelOutput;

    /// Convenience: bind all parameters and run the forward pass.
    fn bind_and_forward(&self, tape: &mut Tape, batch: &GraphBatch) -> (Vec<Var>, ModelOutput) {
        let pvars = self.params().bind(tape);
        let out = self.forward(tape, &pvars, batch);
        (pvars, out)
    }
}
