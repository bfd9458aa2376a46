//! `train_wide` and `train_tiny`: `Trainer::fit` built the way
//! `matgnn_cli train` builds it (15 % test split, warm-up-cosine LR), on a
//! wide model over periodic slabs and on a narrow model over molecules.

use std::time::Instant;

use matgnn::data::{Dataset, GeneratorConfig, Normalizer, Sample, SourceKind};
use matgnn::model::{Egnn, EgnnConfig, GnnModel};
use matgnn::tensor::Tensor;
use matgnn::train::{evaluate, Adam, LrSchedule, TrainConfig, TrainReport, Trainer};

use super::step::{train_step, StepSettings};
use super::{push_common, repeat_for, setup_repeated, three_way, Ctx, Path};
use crate::kernels::{egnn_work, replay_kernel_seconds, KernelTimes};
use crate::report::Outcome;
use crate::trace::{Attribution, Recorder};
use crate::traceout;

/// Frozen sizes of a training workload: `(full, smoke)` where they differ.
pub struct TrainSpec {
    pub name: &'static str,
    pub hidden: (usize, usize),
    pub kinds: &'static [SourceKind],
    pub per_kind: (usize, usize),
    pub batch: usize,
    /// Epochs in one repetition.
    pub epochs: usize,
}

pub const N_LAYERS: usize = 3;

pub const WIDE: TrainSpec = TrainSpec {
    name: "train_wide",
    hidden: (128, 16),
    kinds: &[SourceKind::Oc2020, SourceKind::Oc2022, SourceKind::MpTrj],
    per_kind: (16, 4),
    // Every seed tried ends below its first epoch's loss with these (batch
    // 16 over 2 epochs left 3 of 12 above it), and 5 slabs keep the large
    // [edges × 2·hidden] buffers inside one recycler size class: with 6,
    // 2 seeds in 66 crossed into the next and peaked a third higher; with
    // 5, 32 seeds peaked between 81 and 110 MiB, quartiles 104 and 109.
    batch: 5,
    epochs: 3,
};

pub const TINY: TrainSpec = TrainSpec {
    name: "train_tiny",
    hidden: (32, 8),
    kinds: &[SourceKind::Ani1x, SourceKind::Qm7x],
    per_kind: (64, 8),
    batch: 4,
    epochs: 8,
};

/// `per_kind` labelled graphs from each source, each source on its own
/// sub-seed.
pub fn generate(kinds: &[SourceKind], per_kind: usize, seed: u64) -> Dataset {
    let cfg = GeneratorConfig::default();
    let mut samples = Vec::with_capacity(kinds.len() * per_kind);
    for (i, kind) in kinds.iter().enumerate() {
        samples.extend(kind.generate(per_kind, seed.wrapping_add(i as u64), &cfg));
    }
    Dataset::from_samples(samples)
}

pub fn atoms_of(ds: &Dataset) -> usize {
    ds.samples().iter().map(Sample::n_nodes).sum()
}

/// The schedule `matgnn_cli train` derives from epochs and steps.
pub fn cli_schedule(epochs: usize, steps_per_epoch: usize) -> LrSchedule {
    let total = epochs * steps_per_epoch;
    LrSchedule::WarmupCosine {
        warmup_steps: (total / 20).max(1),
        total_steps: total,
        min_factor: 0.05,
    }
}

pub struct TrainState {
    pub train: Dataset,
    pub test: Dataset,
    pub norm: Normalizer,
    pub model: Egnn,
    pub initial: Tensor,
    pub cfg: TrainConfig,
    pub train_atoms: usize,
}

pub struct Rep {
    pub wall_s: f64,
    pub report: TrainReport,
}

impl TrainState {
    pub fn new(spec: &TrainSpec, ctx: &Ctx) -> Self {
        let per_kind = ctx.size(spec.per_kind.0, spec.per_kind.1);
        let hidden = ctx.size(spec.hidden.0, spec.hidden.1);
        let ds = generate(spec.kinds, per_kind, ctx.seed);
        let (train, test) = ds.split_test(0.15, ctx.seed ^ 0xBEEF);
        let norm = Normalizer::fit(&train);
        let model = Egnn::new(EgnnConfig::new(hidden, N_LAYERS).with_seed(ctx.seed));
        let steps = train.len().div_ceil(spec.batch);
        let cfg = TrainConfig {
            epochs: spec.epochs,
            batch_size: spec.batch,
            schedule: cli_schedule(spec.epochs, steps),
            seed: ctx.seed,
            ..Default::default()
        };
        let train_atoms = atoms_of(&train);
        let initial = model.params().flatten();
        TrainState {
            train,
            test,
            norm,
            model,
            initial,
            cfg,
            train_atoms,
        }
    }

    /// One repetition: the library call from the same initial weights.
    pub fn fit(&mut self) -> Rep {
        self.model.params_mut().unflatten_from(&self.initial);
        let t = Instant::now();
        let report =
            Trainer::new(self.cfg).fit(&mut self.model, &self.train, Some(&self.test), &self.norm);
        Rep {
            wall_s: t.elapsed().as_secs_f64(),
            report,
        }
    }

    pub fn atoms_per_rep(&self) -> usize {
        self.train_atoms * self.cfg.epochs
    }
}

fn last_train_loss(report: &TrainReport) -> f64 {
    report.epochs.last().map_or(f64::NAN, |e| e.train_loss)
}

/// Steps of epochs whose mean loss was not finite, or every step when the
/// run did not finish healthy.
fn failed_steps(report: &TrainReport, steps_per_epoch: usize) -> u64 {
    if report.epochs.is_empty() {
        return report.steps as u64;
    }
    report
        .epochs
        .iter()
        .filter(|e| !e.train_loss.is_finite())
        .count() as u64
        * steps_per_epoch as u64
}

/// Checks shared by the training workloads: finite, falling, and the same
/// bits on every repetition.
pub fn check_losses(out: &mut Outcome, first: f64, finals: &[f64], all_finite: bool) {
    out.check(
        "losses_finite",
        all_finite,
        "every epoch/step loss is finite",
    );
    let last = finals.last().copied().unwrap_or(f64::NAN);
    out.check(
        "loss_falls",
        last < first,
        format!("first {first:.6} -> last {last:.6}"),
    );
    let same = finals.iter().all(|l| l.to_bits() == finals[0].to_bits());
    out.check(
        "reps_bitwise_equal",
        same,
        format!(
            "{} repetitions ended on final_loss {:.9}",
            finals.len(),
            last
        ),
    );
}

pub fn run(spec: &TrainSpec, ctx: &Ctx) -> Outcome {
    let mut warm = None;
    let (mut state, setup_times) = setup_repeated(ctx, || {
        let mut s = TrainState::new(spec, ctx);
        // Untimed warm-up: fills the recycler, spawns pool workers.
        warm = Some(s.fit());
        s
    });
    let warm = warm.expect("set up at least once");
    if ctx.trace {
        return traced(spec, ctx, &mut state);
    }

    let steps_per_epoch = state.train.len().div_ceil(spec.batch);
    let mut out = Outcome::default();
    let (mut throughput, mut step_ms, mut finals) = (Vec::new(), Vec::new(), Vec::new());
    let mut all_finite = true;
    let mut first = f64::NAN;
    repeat_for(ctx.seconds, |_| {
        let rep = state.fit();
        throughput.push(state.atoms_per_rep() as f64 / rep.wall_s);
        step_ms.push(rep.wall_s * 1e3 / rep.report.steps.max(1) as f64);
        out.attempted += rep.report.steps as u64;
        out.failed += failed_steps(&rep.report, steps_per_epoch);
        all_finite &= rep.report.epochs.iter().all(|e| e.train_loss.is_finite());
        first = rep.report.epochs.first().map_or(f64::NAN, |e| e.train_loss);
        finals.push(last_train_loss(&rep.report));
    });
    finals.push(last_train_loss(&warm.report));
    check_losses(&mut out, first, &finals, all_finite);

    out.push_samples("atoms_per_s", "atoms/s", throughput);
    out.push_samples("op_ms_p50", "ms", step_ms);
    push_common(&mut out, setup_times);
    out.note("final_loss", "loss", finals[0]);
    out.note("train_graphs", "count", state.train.len() as f64);
    out.note("train_atoms", "count", state.train_atoms as f64);
    out
}

/// `evaluate` on the held-out split, as `fit` runs it after every epoch
/// and once more at the end.
fn evaluate_traced(state: &TrainState, rec: &mut Recorder) {
    rec.next_op();
    let root = rec.open("op.eval");
    rec.span("train.evaluate", || {
        evaluate(
            &state.model,
            &state.test,
            &state.norm,
            &state.cfg.loss,
            state.cfg.batch_size,
        )
    });
    rec.close(root);
}

/// One repetition of the same work as [`TrainState::fit`], re-composed
/// from public functions under `rec`. Batches are taken in dataset order:
/// the same graphs per epoch as the shuffled library loop, so the same
/// work. Returns the wall time and the last epoch's mean loss.
fn recomposed_rep(state: &mut TrainState, rec: &mut Recorder) -> (f64, f64) {
    state.model.params_mut().unflatten_from(&state.initial);
    let cfg = state.cfg;
    let t = Instant::now();
    let mut optimizer = Adam::new(state.model.params(), cfg.adam, None);
    let samples: Vec<&Sample> = state.train.samples().iter().collect();
    let settings = StepSettings {
        norm: &state.norm,
        loss: &cfg.loss,
        grad_clip: cfg.grad_clip,
    };
    let mut step = 0;
    let mut last_epoch_loss = f64::NAN;
    for _epoch in 0..cfg.epochs {
        let mut epoch_loss = 0.0;
        let batches = samples.chunks(cfg.batch_size);
        let n = batches.len();
        for chunk in batches {
            let lr = cfg.schedule.lr(cfg.base_lr, step);
            let (loss, _) = train_step(rec, &mut state.model, &mut optimizer, chunk, &settings, lr);
            epoch_loss += loss;
            step += 1;
        }
        last_epoch_loss = epoch_loss / n.max(1) as f64;
        evaluate_traced(state, rec);
    }
    evaluate_traced(state, rec);
    (t.elapsed().as_secs_f64(), last_epoch_loss)
}

fn traced(spec: &TrainSpec, ctx: &Ctx, state: &mut TrainState) -> Outcome {
    let origin = Instant::now();
    let mut out = Outcome::default();
    let mut off = Recorder::new(false, origin, 0);
    let mut rec = Recorder::new(true, origin, 0);
    let mut loss = f64::NAN;
    let walls = three_way(ctx.seconds, |path| match path {
        Path::Library => state.fit().wall_s,
        Path::Untraced => recomposed_rep(state, &mut off).0,
        Path::Traced => {
            let (wall, l) = recomposed_rep(state, &mut rec);
            loss = l;
            wall
        }
    });

    let mut attr = Attribution::default();
    attr.absorb(rec.spans());
    let steps = attr.calls_of("op.step");
    out.attempted = steps;
    out.failed = if loss.is_finite() { 0 } else { steps };
    out.check(
        "losses_finite",
        loss.is_finite(),
        format!("re-composed final loss {loss:.6}"),
    );
    walls.push(&mut out, &attr, "op.step");
    out.push("train.final_loss", "loss", loss);
    let (replayed, flop_bound) = kernel_shares(
        state,
        attr.dur_ns.get("op.step").copied().unwrap_or(0),
        steps,
    );
    out.push("share.kernels_computed", "share", replayed);
    out.push("share.flop_bound_computed", "share", flop_bound);
    traceout::write(ctx, spec.name, &[&rec], &mut out);
    out
}

/// Rows of the large product the FLOP-bound share's rates are measured at.
const REFERENCE_ROWS: usize = 4096;
const REFERENCE_HIDDEN: usize = 128;

/// Two computed shares of the traced steps' wall time (the kernels run
/// inside `segment_forward` and `Tape::backward`, which are timed whole,
/// so neither can be observed):
///
/// * the matmul family and `silu` re-played call by call at the mean
///   batch's own shapes — each call's fixed cost included;
/// * the step's matmul FLOPs at the rates a large product reaches — what
///   a faster inner kernel could shorten.
fn kernel_shares(state: &TrainState, step_ns: u64, steps: u64) -> (f64, f64) {
    if steps == 0 || step_ns == 0 {
        return (0.0, 0.0);
    }
    let step_s = step_ns as f64 / 1e9 / steps as f64;
    let cfg = state.model.config();
    let steps_per_epoch = state.train.len().div_ceil(state.cfg.batch_size);
    let nodes = state.train_atoms / steps_per_epoch;
    let edges = state
        .train
        .samples()
        .iter()
        .map(Sample::n_edges)
        .sum::<usize>()
        / steps_per_epoch;
    let replayed = replay_kernel_seconds(cfg, nodes, edges, 4.0);
    let reference = KernelTimes::measure(REFERENCE_ROWS, REFERENCE_HIDDEN, 10.0);
    let flop_bound = egnn_work(cfg, nodes as f64, edges as f64).flop_bound_seconds(&reference);
    (replayed / step_s, flop_bound / step_s)
}
