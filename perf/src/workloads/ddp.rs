//! `ddp_w2`: `train_ddp` over two ranks with ZeRO, on `train_tiny`'s model
//! and data. Overlap and prefetch threads stay off: with two cores and two
//! ranks a third busy thread would measure the scheduler.

use std::time::Instant;

use matgnn::data::{Dataset, Normalizer, Sample};
use matgnn::dist::{
    flatten_tensors, train_ddp, Communicator, CostModel, DdpConfig, DdpReport, ZeroAdam,
};
use matgnn::model::{Egnn, EgnnConfig, GnnModel};
use matgnn::tensor::Tensor;
use matgnn::train::clip_grad_norm;

use super::step::{collate_traced, forward_backward};
use super::train::{self, atoms_of, check_losses, generate, N_LAYERS, TINY};
use super::{push_common, repeat_for, setup_repeated, three_way, Ctx, Path};
use crate::report::Outcome;
use crate::trace::{Attribution, Recorder};
use crate::traceout;

pub const WORLD: usize = 2;

pub struct DdpState {
    pub data: Dataset,
    pub norm: Normalizer,
    pub model: Egnn,
    pub initial: Tensor,
    pub cfg: DdpConfig,
    pub atoms: usize,
}

pub struct Rep {
    pub wall_s: f64,
    pub report: DdpReport,
}

impl DdpState {
    pub fn new(ctx: &Ctx) -> Self {
        let per_kind = ctx.size(TINY.per_kind.0, TINY.per_kind.1);
        let hidden = ctx.size(TINY.hidden.0, TINY.hidden.1);
        // `matgnn_cli ddp` trains on the whole set, normaliser fitted to it.
        let data = generate(TINY.kinds, per_kind, ctx.seed);
        let norm = Normalizer::fit(&data);
        let model = Egnn::new(EgnnConfig::new(hidden, N_LAYERS).with_seed(ctx.seed));
        let steps = data.len() / (WORLD * TINY.batch);
        let cfg = DdpConfig {
            world: WORLD,
            epochs: TINY.epochs,
            batch_size: TINY.batch,
            schedule: train::cli_schedule(TINY.epochs, steps),
            seed: ctx.seed,
            zero: true,
            overlap_comm: false,
            prefetch_depth: 0,
            checkpoint_dir: None,
            ..Default::default()
        };
        let atoms = atoms_of(&data);
        let initial = model.params().flatten();
        DdpState {
            data,
            norm,
            model,
            initial,
            cfg,
            atoms,
        }
    }

    pub fn fit(&mut self) -> Rep {
        self.model.params_mut().unflatten_from(&self.initial);
        let t = Instant::now();
        let report = train_ddp(&mut self.model, &self.data, &self.norm, &self.cfg);
        Rep {
            wall_s: t.elapsed().as_secs_f64(),
            report,
        }
    }

    /// Atoms fed to optimizer steps in one repetition, summed over ranks.
    /// The set divides into global batches, so every graph is used once
    /// per epoch.
    pub fn atoms_per_rep(&self) -> usize {
        assert_eq!(
            self.data.len() % (WORLD * self.cfg.batch_size),
            0,
            "frozen sizes must divide"
        );
        self.atoms * self.cfg.epochs
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut warm = None;
    let (mut state, setup_times) = setup_repeated(ctx, || {
        let mut s = DdpState::new(ctx);
        warm = Some(s.fit());
        s
    });
    let warm = warm.expect("set up at least once");
    if ctx.trace {
        return traced(ctx, &mut state);
    }

    let mut out = Outcome::default();
    let (mut throughput, mut step_ms, mut finals) = (Vec::new(), Vec::new(), Vec::new());
    let mut all_finite = true;
    let mut healthy = true;
    let mut first = f64::NAN;
    repeat_for(ctx.seconds, |_| {
        let rep = state.fit();
        let r = &rep.report;
        throughput.push(state.atoms_per_rep() as f64 / rep.wall_s);
        step_ms.push(rep.wall_s * 1e3 / r.steps.max(1) as f64);
        out.attempted += (r.steps * WORLD) as u64;
        let bad_epochs = r.epoch_loss.iter().filter(|l| !l.is_finite()).count();
        let steps_per_epoch = r.steps / r.epoch_loss.len().max(1);
        out.failed +=
            (bad_epochs * steps_per_epoch * WORLD) as u64 + (r.failed_ranks.len() * r.steps) as u64;
        all_finite &= bad_epochs == 0;
        healthy &= r.final_world == WORLD && r.failed_ranks.is_empty() && r.recoveries == 0;
        first = r.epoch_loss.first().copied().unwrap_or(f64::NAN);
        finals.push(r.epoch_loss.last().copied().unwrap_or(f64::NAN));
    });
    finals.push(warm.report.epoch_loss.last().copied().unwrap_or(f64::NAN));
    check_losses(&mut out, first, &finals, all_finite);
    out.check(
        "world_intact",
        healthy,
        format!("every repetition finished with world {WORLD}, no failed ranks"),
    );

    out.push_samples("atoms_per_s", "atoms/s", throughput);
    out.push_samples("op_ms_p50", "ms", step_ms);
    push_common(&mut out, setup_times);
    out.note("final_loss", "loss", finals[0]);
    out.note("graphs", "count", state.data.len() as f64);
    out
}

/// What one rank's thread brings back from a re-composed repetition.
struct RankTrace {
    rec: Recorder,
    /// Time from step start to the first collective, per step, seconds.
    compute_s: Vec<f64>,
    loss: f64,
}

/// One repetition of the same work as `train_ddp` with ZeRO, re-composed:
/// two threads over `Communicator::create`, each collating its own slice
/// of the global batch, then `reduce_scatter_sum` → `ZeroAdam` shard step
/// (which all-gathers the parameters).
fn recomposed_rep(state: &DdpState, enabled: bool, origin: Instant) -> (f64, Vec<RankTrace>) {
    let cfg = &state.cfg;
    let comms = Communicator::create(WORLD, CostModel::default());
    let samples: Vec<&Sample> = state.data.samples().iter().collect();
    let steps_per_epoch = samples.len() / (WORLD * cfg.batch_size);
    let n_params = state.model.params().n_scalars();
    let t = Instant::now();
    let traces = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut comm| {
                let samples = &samples;
                scope.spawn(move || {
                    let rank = comm.rank();
                    let mut rec = Recorder::new(enabled, origin, rank as u32);
                    let mut model = state.model.clone();
                    model.params_mut().unflatten_from(&state.initial);
                    let mut zero = ZeroAdam::new(n_params, rank, WORLD, cfg.adam, None);
                    let mut compute_s = Vec::new();
                    let mut loss = f64::NAN;
                    let mut step = 0;
                    for _epoch in 0..cfg.epochs {
                        for s in 0..steps_per_epoch {
                            let base = s * WORLD * cfg.batch_size + rank * cfg.batch_size;
                            rec.next_op();
                            let t_step = Instant::now();
                            let root = rec.open("op.step");
                            let (batch, targets) = collate_traced(
                                &mut rec,
                                &samples[base..base + cfg.batch_size],
                                &state.norm,
                            );
                            let mut g =
                                forward_backward(&mut rec, &model, &batch, &targets, &cfg.loss);
                            if let Some(max_norm) = cfg.grad_clip {
                                rec.span("train.clip", || clip_grad_norm(&mut g.grads, max_norm));
                            }
                            let open = rec.open("dist.flatten");
                            let flat = flatten_tensors(&g.grads);
                            let mut params = model.params().flatten().to_vec();
                            rec.close(open);
                            compute_s.push(t_step.elapsed().as_secs_f64());
                            let lr = cfg.schedule.lr(cfg.base_lr, step);
                            let open = rec.open("dist.reduce_scatter_sum");
                            let shard = comm.reduce_scatter_sum(&flat).expect("healthy group");
                            rec.close(open);
                            let open = rec.open("dist.zero.step_all_gather");
                            zero.step_with_reduced_shard(&mut comm, &mut params, shard, lr)
                                .expect("healthy group");
                            rec.close(open);
                            let open = rec.open("dist.unflatten");
                            let flat_t =
                                Tensor::from_vec(params.len(), params).expect("flat params");
                            model.params_mut().unflatten_from(&flat_t);
                            g.grads.into_iter().for_each(Tensor::recycle);
                            rec.close(open);
                            rec.close(root);
                            loss = g.loss;
                            step += 1;
                        }
                        // `train_ddp` averages the epoch loss across ranks.
                        let mut l = [loss as f32];
                        rec.next_op();
                        let root = rec.open("op.epoch_end");
                        rec.span("dist.all_reduce_mean", || {
                            comm.all_reduce_mean(&mut l).expect("healthy group")
                        });
                        rec.close(root);
                    }
                    RankTrace {
                        rec,
                        compute_s,
                        loss,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect::<Vec<_>>()
    });
    (t.elapsed().as_secs_f64(), traces)
}

fn traced(ctx: &Ctx, state: &mut DdpState) -> Outcome {
    let origin = Instant::now();
    let mut out = Outcome::default();
    let mut last = Vec::new();
    let mut attr = Attribution::default();
    let mut skew_s = 0.0;
    let walls = three_way(ctx.seconds, |path| match path {
        Path::Library => state.fit().wall_s,
        Path::Untraced => recomposed_rep(state, false, origin).0,
        Path::Traced => {
            let (wall, ranks) = recomposed_rep(state, true, origin);
            for r in &ranks {
                attr.absorb(r.rec.spans());
            }
            // A step waits for its slower rank: the difference in time to
            // the first collective is what faster collectives cannot
            // recover.
            skew_s += ranks[0]
                .compute_s
                .iter()
                .zip(&ranks[1].compute_s)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>();
            last = ranks;
            wall
        }
    });

    let steps = attr.calls_of("op.step");
    let finite = last.iter().all(|r| r.loss.is_finite());
    out.attempted = steps;
    out.failed = if finite { 0 } else { steps };
    out.check(
        "losses_finite",
        finite,
        "re-composed final losses are finite",
    );
    walls.push(&mut out, &attr, "op.step");
    // Root time is summed over both ranks; skew is counted once per step.
    out.push(
        "dist.ddp.rank_skew_frac",
        "share",
        skew_s / (attr.root_ns as f64 / 1e9 / WORLD as f64),
    );
    out.push(
        "train.final_loss",
        "loss",
        last.first().map_or(f64::NAN, |r| r.loss),
    );
    let recs: Vec<&Recorder> = last.iter().map(|r| &r.rec).collect();
    traceout::write(ctx, "ddp_w2", &recs, &mut out);
    out
}
