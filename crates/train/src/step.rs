//! Single training steps: the vanilla one-tape path and the
//! activation-checkpointed path.
//!
//! Checkpointing here is the real algorithm (Chen et al., adopted by the
//! paper in Sec. V-B): the forward pass stores only segment-boundary
//! tensors; during backward each segment is **recomputed** on a fresh tape
//! and differentiated with the downstream segment's input gradients as
//! seeds. The two paths produce identical gradients (tested to f32
//! tolerance) but very different activation footprints and wall times —
//! which is exactly what the paper's Table II measures.

use matgnn_data::Targets;
use matgnn_graph::GraphBatch;
use matgnn_model::{GnnModel, ModelOutput, ParamSet};
use matgnn_tensor::{Gradients, MemoryCategory, MemoryTracker, Tape, Tensor, Var};

use crate::LossConfig;

/// The result of one optimization step's forward+backward.
#[derive(Debug)]
pub struct StepOutcome {
    /// Scalar loss value.
    pub loss: f64,
    /// Parameter gradients aligned with the model's [`ParamSet`].
    pub grads: Vec<Tensor>,
}

fn new_tape(tracker: Option<&MemoryTracker>) -> Tape {
    match tracker {
        Some(t) => Tape::with_tracker(t.clone()),
        None => Tape::new(),
    }
}

fn collect_param_grads(params: &ParamSet, pvars: &[Var], grads: &mut Gradients) -> Vec<Tensor> {
    pvars
        .iter()
        .zip(params.iter())
        .map(|(&v, e)| {
            grads
                .take(v)
                .unwrap_or_else(|| Tensor::zeros(e.tensor.shape().clone()))
        })
        .collect()
}

/// Runs forward + backward on a single tape (the baseline path).
pub fn vanilla_step<M: GnnModel + ?Sized>(
    model: &M,
    batch: &GraphBatch,
    targets: &Targets,
    loss_cfg: &LossConfig,
    tracker: Option<&MemoryTracker>,
) -> StepOutcome {
    vanilla_impl(model, batch, targets, loss_cfg, tracker, None)
}

/// [`vanilla_step`] with an early-gradient sink: each parameter's gradient
/// is handed to `sink(param_index, grad)` the moment backward finalizes it
/// (see [`Tape::backward_with_leaf_sink`]) instead of being collected into
/// a [`StepOutcome`]. Gradient values are bitwise-identical to
/// [`vanilla_step`]; only the hand-off point moves. Returns the loss.
pub fn vanilla_step_with_sink<M: GnnModel + ?Sized>(
    model: &M,
    batch: &GraphBatch,
    targets: &Targets,
    loss_cfg: &LossConfig,
    tracker: Option<&MemoryTracker>,
    sink: &mut dyn FnMut(usize, Tensor),
) -> f64 {
    vanilla_impl(model, batch, targets, loss_cfg, tracker, Some(sink)).loss
}

fn vanilla_impl<M: GnnModel + ?Sized>(
    model: &M,
    batch: &GraphBatch,
    targets: &Targets,
    loss_cfg: &LossConfig,
    tracker: Option<&MemoryTracker>,
    sink: Option<&mut dyn FnMut(usize, Tensor)>,
) -> StepOutcome {
    let (mut tape, pvars, out) = {
        let _span = matgnn_telemetry::span("forward");
        let mut tape = new_tape(tracker);
        let pvars = model.params().bind(&mut tape);
        let out = model.forward(&mut tape, &pvars, batch);
        (tape, pvars, out)
    };
    let (loss, loss_val) = {
        let _span = matgnn_telemetry::span("loss");
        let loss = loss_cfg.compute(&mut tape, out, batch, targets);
        let loss_val = tape.value(loss).item() as f64;
        (loss, loss_val)
    };
    if let Some(t) = tracker {
        t.snapshot("after forward");
    }
    let g = {
        let _span = matgnn_telemetry::span("backward");
        let g = match sink {
            Some(s) => {
                let _ = tape.backward_with_leaf_sink(loss, &pvars, s);
                Vec::new()
            }
            None => {
                let mut grads = tape.backward(loss);
                collect_param_grads(model.params(), &pvars, &mut grads)
            }
        };
        if let Some(t) = tracker {
            t.snapshot("after backward");
        }
        // Releasing the tape's last values is part of the backward pass.
        drop(tape);
        g
    };
    StepOutcome {
        loss: loss_val,
        grads: g,
    }
}

/// Runs forward + backward with activation checkpointing over the model's
/// segments.
///
/// Forward keeps only segment-boundary tensors; backward recomputes each
/// segment (including the loss in the last one) and chains gradients with
/// [`Tape::backward_seeded`].
pub fn checkpointed_step<M: GnnModel + ?Sized>(
    model: &M,
    batch: &GraphBatch,
    targets: &Targets,
    loss_cfg: &LossConfig,
    tracker: Option<&MemoryTracker>,
) -> StepOutcome {
    checkpointed_impl(model, batch, targets, loss_cfg, tracker, None)
}

/// [`checkpointed_step`] with an early-gradient sink (see
/// [`vanilla_step_with_sink`]): parameters are emitted per recomputed
/// segment — last segment's parameters first — so gradient communication
/// can start while earlier segments are still being recomputed. Returns
/// the loss.
pub fn checkpointed_step_with_sink<M: GnnModel + ?Sized>(
    model: &M,
    batch: &GraphBatch,
    targets: &Targets,
    loss_cfg: &LossConfig,
    tracker: Option<&MemoryTracker>,
    sink: &mut dyn FnMut(usize, Tensor),
) -> f64 {
    checkpointed_impl(model, batch, targets, loss_cfg, tracker, Some(sink)).loss
}

fn checkpointed_impl<M: GnnModel + ?Sized>(
    model: &M,
    batch: &GraphBatch,
    targets: &Targets,
    loss_cfg: &LossConfig,
    tracker: Option<&MemoryTracker>,
    mut sink: Option<&mut dyn FnMut(usize, Tensor)>,
) -> StepOutcome {
    let n_seg = model.n_segments();
    let params = model.params();

    // ---- Forward: store only boundary states -------------------------
    // boundaries[k] = input state of segment k; boundaries[n_seg] = output.
    let fwd_span = matgnn_telemetry::span("forward");
    let mut boundaries: Vec<Vec<Tensor>> = Vec::with_capacity(n_seg + 1);
    boundaries.push(Vec::new());
    let mut boundary_bytes: Vec<u64> = vec![0; n_seg + 1];
    for seg in 0..n_seg {
        let mut tape = new_tape(tracker);
        let (start, end) = model.segment_param_range(seg);
        let pvars = params.bind_range(&mut tape, start, end);
        let state_vars: Vec<Var> = boundaries[seg]
            .iter()
            .map(|t| tape.constant(t.clone()))
            .collect();
        let out_vars = model.segment_forward(&mut tape, seg, &pvars, batch, &state_vars);
        let out_vals: Vec<Tensor> = out_vars.iter().map(|&v| tape.value(v).clone()).collect();
        // Retained boundary tensors are the activations checkpointing pays
        // for; everything else on `tape` is freed when it drops here.
        let bytes: u64 = out_vals.iter().map(|t| t.bytes() as u64).sum();
        if let Some(t) = tracker {
            t.alloc(MemoryCategory::Activations, bytes);
        }
        boundary_bytes[seg + 1] = bytes;
        boundaries.push(out_vals);
    }
    if let Some(t) = tracker {
        t.snapshot("after forward (checkpointed)");
    }
    drop(fwd_span);

    // ---- Backward: recompute segment-by-segment in reverse -----------
    let bwd_span = matgnn_telemetry::span("backward");
    let mut param_grads: Vec<Option<Tensor>> = (0..params.len()).map(|_| None).collect();
    let mut state_seeds: Vec<Tensor> = Vec::new();
    let mut loss_val = 0.0f64;
    for seg in (0..n_seg).rev() {
        let mut tape = new_tape(tracker);
        let (start, end) = model.segment_param_range(seg);
        let pvars = params.bind_range(&mut tape, start, end);
        // Bind the segment's input state as parameters so gradients flow
        // out of the segment and can seed the next (earlier) one.
        let state_vars: Vec<Var> = boundaries[seg]
            .iter()
            .map(|t| tape.param(t.clone()))
            .collect();
        let out_vars = model.segment_forward(&mut tape, seg, &pvars, batch, &state_vars);

        let mut grads = if seg == n_seg - 1 {
            assert_eq!(
                out_vars.len(),
                2,
                "final segment must return [energy, forces]"
            );
            let out = ModelOutput {
                energy: out_vars[0],
                forces: out_vars[1],
            };
            let loss = {
                let _span = matgnn_telemetry::span("loss");
                loss_cfg.compute(&mut tape, out, batch, targets)
            };
            loss_val = tape.value(loss).item() as f64;
            match &mut sink {
                Some(s) => {
                    let mut seg_sink = |k: usize, g: Tensor| s(start + k, g);
                    tape.backward_with_leaf_sink(loss, &pvars, &mut seg_sink)
                }
                None => tape.backward(loss),
            }
        } else {
            assert_eq!(
                out_vars.len(),
                state_seeds.len(),
                "segment state arity changed"
            );
            let seeds: Vec<(Var, Tensor)> = out_vars
                .iter()
                .copied()
                .zip(state_seeds.drain(..))
                .collect();
            match &mut sink {
                Some(s) => {
                    let mut seg_sink = |k: usize, g: Tensor| s(start + k, g);
                    tape.backward_seeded_with_leaf_sink(&seeds, &pvars, &mut seg_sink)
                }
                None => tape.backward_seeded(&seeds),
            }
        };

        if sink.is_none() {
            for (k, &v) in pvars.iter().enumerate() {
                param_grads[start + k] =
                    Some(grads.take(v).unwrap_or_else(|| {
                        Tensor::zeros(params.tensor(start + k).shape().clone())
                    }));
            }
        }
        state_seeds = state_vars
            .iter()
            .zip(boundaries[seg].iter())
            .map(|(&v, t)| {
                grads
                    .take(v)
                    .unwrap_or_else(|| Tensor::zeros(t.shape().clone()))
            })
            .collect();

        // The downstream boundary (this segment's output) is no longer
        // needed; release its retained-activation accounting and hand the
        // buffers to the recycler (this loop iteration's tape dropped the
        // last competing reference when the previous iteration ended).
        if let Some(t) = tracker {
            if boundary_bytes[seg + 1] > 0 {
                t.free(MemoryCategory::Activations, boundary_bytes[seg + 1]);
                boundary_bytes[seg + 1] = 0;
            }
        }
        for b in boundaries[seg + 1].drain(..) {
            b.recycle();
        }
    }
    if let Some(t) = tracker {
        t.snapshot("after backward (checkpointed)");
    }
    drop(bwd_span);

    let grads = if sink.is_some() {
        Vec::new()
    } else {
        param_grads
            .into_iter()
            .enumerate()
            .map(|(i, g)| g.unwrap_or_else(|| Tensor::zeros(params.tensor(i).shape().clone())))
            .collect()
    };
    StepOutcome {
        loss: loss_val,
        grads,
    }
}

/// Dispatches to the vanilla or checkpointed step.
pub fn train_step<M: GnnModel + ?Sized>(
    model: &M,
    batch: &GraphBatch,
    targets: &Targets,
    loss_cfg: &LossConfig,
    checkpointed: bool,
    tracker: Option<&MemoryTracker>,
) -> StepOutcome {
    if checkpointed {
        checkpointed_step(model, batch, targets, loss_cfg, tracker)
    } else {
        vanilla_step(model, batch, targets, loss_cfg, tracker)
    }
}

/// Dispatches to the vanilla or checkpointed sink-based step; returns the
/// loss, delivering every parameter gradient through `sink` exactly once.
pub fn train_step_with_sink<M: GnnModel + ?Sized>(
    model: &M,
    batch: &GraphBatch,
    targets: &Targets,
    loss_cfg: &LossConfig,
    checkpointed: bool,
    tracker: Option<&MemoryTracker>,
    sink: &mut dyn FnMut(usize, Tensor),
) -> f64 {
    if checkpointed {
        checkpointed_step_with_sink(model, batch, targets, loss_cfg, tracker, sink)
    } else {
        vanilla_step_with_sink(model, batch, targets, loss_cfg, tracker, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgnn_data::{collate, Dataset, GeneratorConfig, Normalizer, Sample};
    use matgnn_model::{Egnn, EgnnConfig, Gcn, GcnConfig};

    fn setup(n: usize) -> (GraphBatch, Targets) {
        let ds = Dataset::generate_aggregate(n, 17, &GeneratorConfig::default());
        let norm = Normalizer::fit(&ds);
        let samples: Vec<&Sample> = ds.samples().iter().collect();
        collate(&samples, &norm)
    }

    #[test]
    fn checkpointed_matches_vanilla_gradients_egnn() {
        let model = Egnn::new(EgnnConfig::new(8, 3).with_seed(5));
        let (batch, targets) = setup(5);
        let cfg = LossConfig::default();
        let a = vanilla_step(&model, &batch, &targets, &cfg, None);
        let b = checkpointed_step(&model, &batch, &targets, &cfg, None);
        assert!(
            (a.loss - b.loss).abs() < 1e-6 * (1.0 + a.loss.abs()),
            "{} vs {}",
            a.loss,
            b.loss
        );
        assert_eq!(a.grads.len(), b.grads.len());
        for (i, (ga, gb)) in a.grads.iter().zip(b.grads.iter()).enumerate() {
            let tol = 1e-4 * (1.0 + ga.max_abs());
            assert!(ga.allclose(gb, tol), "param {i} grads differ");
        }
    }

    #[test]
    fn checkpointed_matches_vanilla_gradients_gcn() {
        let model = Gcn::new(GcnConfig::new(8, 3));
        let (batch, targets) = setup(4);
        let cfg = LossConfig::default();
        let a = vanilla_step(&model, &batch, &targets, &cfg, None);
        let b = checkpointed_step(&model, &batch, &targets, &cfg, None);
        for (i, (ga, gb)) in a.grads.iter().zip(b.grads.iter()).enumerate() {
            let tol = 1e-4 * (1.0 + ga.max_abs());
            assert!(ga.allclose(gb, tol), "param {i} grads differ");
        }
    }

    #[test]
    fn checkpointing_reduces_peak_activation_memory() {
        // Deep-ish narrow model on a real batch: checkpointing must cut the
        // activation component of the peak.
        let model = Egnn::new(EgnnConfig::new(16, 6));
        let (batch, targets) = setup(8);
        let cfg = LossConfig::default();

        let peak_act = |checkpointed: bool| {
            let tracker = MemoryTracker::new();
            let _ = train_step(&model, &batch, &targets, &cfg, checkpointed, Some(&tracker));
            tracker.at_peak().get(MemoryCategory::Activations)
        };
        let vanilla = peak_act(false);
        let ckpt = peak_act(true);
        assert!(
            (ckpt as f64) < 0.7 * vanilla as f64,
            "checkpointing saved too little: {ckpt} vs {vanilla}"
        );
    }

    #[test]
    fn gradients_cover_all_params_and_are_finite() {
        let model = Egnn::new(EgnnConfig::new(8, 2));
        let (batch, targets) = setup(4);
        let out = vanilla_step(&model, &batch, &targets, &LossConfig::default(), None);
        assert_eq!(out.grads.len(), model.params().len());
        let nonzero = out.grads.iter().filter(|g| g.max_abs() > 0.0).count();
        assert_eq!(nonzero, out.grads.len(), "dead parameters in one step");
        assert!(out.grads.iter().all(|g| g.is_finite()));
    }

    #[test]
    fn sink_step_is_bitwise_identical_to_collected_step() {
        let model = Egnn::new(EgnnConfig::new(8, 3).with_seed(5));
        let (batch, targets) = setup(5);
        let cfg = LossConfig::default();
        for checkpointed in [false, true] {
            let reference = train_step(&model, &batch, &targets, &cfg, checkpointed, None);
            let n = reference.grads.len();
            let mut emitted: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
            let mut sink = |p: usize, g: Tensor| {
                assert!(emitted[p].is_none(), "param {p} emitted twice");
                emitted[p] = Some(g);
            };
            let loss = train_step_with_sink(
                &model,
                &batch,
                &targets,
                &cfg,
                checkpointed,
                None,
                &mut sink,
            );
            assert_eq!(
                loss.to_bits(),
                reference.loss.to_bits(),
                "ckpt={checkpointed}"
            );
            for (p, (want, got)) in reference.grads.iter().zip(emitted.iter()).enumerate() {
                let got = got
                    .as_ref()
                    .unwrap_or_else(|| panic!("param {p} never emitted"));
                let a: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
                let b: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
                assert_eq!(a, b, "param {p} grads diverged (ckpt={checkpointed})");
            }
        }
    }

    #[test]
    fn sink_step_tracker_peak_matches_collected_step() {
        let model = Egnn::new(EgnnConfig::new(8, 3).with_seed(5));
        let (batch, targets) = setup(5);
        let cfg = LossConfig::default();
        for checkpointed in [false, true] {
            let tracker_a = MemoryTracker::new();
            let _ = train_step(
                &model,
                &batch,
                &targets,
                &cfg,
                checkpointed,
                Some(&tracker_a),
            );
            let tracker_b = MemoryTracker::new();
            let mut sink = |_: usize, g: Tensor| g.recycle();
            let _ = train_step_with_sink(
                &model,
                &batch,
                &targets,
                &cfg,
                checkpointed,
                Some(&tracker_b),
                &mut sink,
            );
            assert_eq!(
                tracker_a.peak_total(),
                tracker_b.peak_total(),
                "ckpt={checkpointed}"
            );
        }
    }

    #[test]
    fn tracker_balances_to_zero_after_step() {
        let model = Egnn::new(EgnnConfig::new(8, 3));
        let (batch, targets) = setup(4);
        for checkpointed in [false, true] {
            let tracker = MemoryTracker::new();
            let _ = train_step(
                &model,
                &batch,
                &targets,
                &LossConfig::default(),
                checkpointed,
                Some(&tracker),
            );
            let cur = tracker.current();
            assert_eq!(
                cur.get(MemoryCategory::Activations),
                0,
                "ckpt={checkpointed}"
            );
            assert_eq!(cur.get(MemoryCategory::Gradients), 0, "ckpt={checkpointed}");
        }
    }
}
