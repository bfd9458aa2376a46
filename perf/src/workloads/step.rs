//! One training step re-composed from the layers' public functions, with a
//! span around each call: `GraphBatch::from_graphs` + `Targets::from_samples`
//! (what `collate` does) → `ParamSet::bind` → `GnnModel::segment_forward`
//! per segment → `LossConfig::compute` → `Tape::backward`, then clip + Adam
//! for the single-process trainer ([`train_step`]); DDP follows
//! [`forward_backward`] with flatten + ZeRO collectives instead.

use matgnn::data::{Normalizer, Sample, Targets};
use matgnn::graph::{GraphBatch, MolGraph};
use matgnn::model::{Egnn, GnnModel, ModelOutput};
use matgnn::tensor::{Tape, Tensor};
use matgnn::train::{clip_grad_norm, Adam, LossConfig, Optimizer};

use crate::trace::Recorder;

/// Gradients and bookkeeping of one re-composed forward + backward.
pub struct StepGrads {
    pub loss: f64,
    pub grads: Vec<Tensor>,
    /// Nodes the tape recorded for forward + loss.
    pub tape_nodes: usize,
}

fn segment_span(seg: usize, n_seg: usize) -> &'static str {
    if seg == 0 {
        "model.segment.embed"
    } else if seg + 1 == n_seg {
        "model.segment.heads"
    } else {
        "model.segment.layer"
    }
}

/// Builds the batch and targets the way `matgnn::data::collate` does.
pub fn collate_traced(
    rec: &mut Recorder,
    samples: &[&Sample],
    norm: &Normalizer,
) -> (GraphBatch, Targets) {
    let outer = rec.open("data.collate");
    let graphs: Vec<&MolGraph> = samples.iter().map(|s| &s.graph).collect();
    let batch = rec.span("graph.batch.from_graphs", || {
        GraphBatch::from_graphs(&graphs)
    });
    let targets = Targets::from_samples(samples, norm);
    rec.close(outer);
    (batch, targets)
}

/// Forward, loss and backward of `model` on one batch.
pub fn forward_backward(
    rec: &mut Recorder,
    model: &Egnn,
    batch: &GraphBatch,
    targets: &Targets,
    loss_cfg: &LossConfig,
) -> StepGrads {
    let mut tape = Tape::new();
    let pvars = rec.span("model.bind", || model.params().bind(&mut tape));
    let n_seg = model.n_segments();
    let mut state = Vec::new();
    for seg in 0..n_seg {
        let (start, end) = model.segment_param_range(seg);
        let open = rec.open(segment_span(seg, n_seg));
        state = model.segment_forward(&mut tape, seg, &pvars[start..end], batch, &state);
        rec.close(open);
    }
    let out = ModelOutput {
        energy: state[0],
        forces: state[1],
    };
    let open = rec.open("train.loss");
    let loss_var = loss_cfg.compute(&mut tape, out, batch, targets);
    let loss = tape.value(loss_var).item() as f64;
    rec.close(open);
    let tape_nodes = tape.len();

    let open = rec.open("tensor.tape.backward");
    let mut all = tape.backward(loss_var);
    let grads: Vec<Tensor> = pvars
        .iter()
        .zip(model.params().iter())
        .map(|(&v, e)| {
            all.take(v)
                .unwrap_or_else(|| Tensor::zeros(e.tensor.shape().clone()))
        })
        .collect();
    rec.close(open);
    // Dropping the tape and the unused gradients returns every activation
    // buffer to the recycler: part of the step, so it gets a span.
    rec.span("tensor.tape.release", || {
        drop(all);
        drop(tape);
    });
    StepGrads {
        loss,
        grads,
        tape_nodes,
    }
}

/// What a step needs besides the model, the optimizer and the batch.
pub struct StepSettings<'a> {
    pub norm: &'a Normalizer,
    pub loss: &'a LossConfig,
    pub grad_clip: Option<f32>,
}

/// One whole single-process optimizer step under an `op.step` root span:
/// collate, forward + backward, clip, Adam. Returns the loss and the
/// tape's node count.
pub fn train_step(
    rec: &mut Recorder,
    model: &mut Egnn,
    optimizer: &mut Adam,
    samples: &[&Sample],
    settings: &StepSettings<'_>,
    lr: f32,
) -> (f64, usize) {
    rec.next_op();
    let root = rec.open("op.step");
    let (batch, targets) = collate_traced(rec, samples, settings.norm);
    let mut g = forward_backward(rec, model, &batch, &targets, settings.loss);
    if let Some(max_norm) = settings.grad_clip {
        rec.span("train.clip", || clip_grad_norm(&mut g.grads, max_norm));
    }
    let open = rec.open("train.adam");
    optimizer.step(model.params_mut(), &g.grads, lr);
    // The update consumed the gradients; their buffers go back.
    g.grads.into_iter().for_each(Tensor::recycle);
    rec.close(open);
    rec.close(root);
    (g.loss, g.tape_nodes)
}
