//! The training loop: epochs over shuffled mini-batches with Adam, LR
//! scheduling, gradient clipping, and held-out evaluation — the scaled-down
//! equivalent of the paper's HydraGNN training protocol (10 epochs, fixed
//! test set, Sec. III-B).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use matgnn_data::{BatchIterator, Dataset, Normalizer, PrefetchIterator, SourceKind, Targets};
use matgnn_graph::GraphBatch;
use matgnn_model::{Egnn, FrozenEgnn, GnnModel, ModelOutput};
use matgnn_tensor::NoTape;

use crate::{
    clip_grad_norm, latest_in, params_finite, prune_checkpoints, train_step, Adam, AdamHyper,
    AnomalyDetector, LossConfig, LrSchedule, Optimizer, RollbackBudget, RunHealth,
    SupervisorConfig, TrainCheckpoint, Verdict,
};

/// Configuration of a training run.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Graphs per mini-batch.
    pub batch_size: usize,
    /// Base learning rate.
    pub base_lr: f32,
    /// LR schedule (multiplier over `base_lr`).
    pub schedule: LrSchedule,
    /// Global-norm gradient clipping threshold (`None` disables).
    pub grad_clip: Option<f32>,
    /// The training objective.
    pub loss: LossConfig,
    /// Adam hyperparameters.
    pub adam: AdamHyper,
    /// Shuffle seed (epoch index is mixed in).
    pub seed: u64,
    /// Whether to train with activation checkpointing.
    pub checkpointing: bool,
    /// Micro-batches to accumulate before each optimizer step (≥ 1).
    /// Emulates a larger effective batch without the memory — one of the
    /// standard LLM-scale techniques (paper research question Q3).
    pub grad_accum_steps: usize,
    /// Stop after this many epochs without test-loss improvement
    /// (requires a test set; `None` disables).
    pub early_stop_patience: Option<usize>,
    /// Batches collated ahead of the training step on a background thread
    /// (0 = synchronous loading, the historical path). Any depth yields a
    /// bitwise-identical trajectory; nonzero depths only overlap collation
    /// with compute.
    pub prefetch_depth: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 8,
            base_lr: 3e-3,
            schedule: LrSchedule::Constant,
            grad_clip: Some(5.0),
            loss: LossConfig::default(),
            adam: AdamHyper::default(),
            seed: 0,
            checkpointing: false,
            grad_accum_steps: 1,
            early_stop_patience: None,
            prefetch_depth: 0,
        }
    }
}

/// Per-epoch statistics.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub train_loss: f64,
    /// Test loss after the epoch, if a test set was given.
    pub test_loss: Option<f64>,
}

/// Evaluation metrics on a dataset.
#[derive(Debug, Clone, Copy)]
pub struct EvalMetrics {
    /// Mean loss (normalized space — the paper's "test loss" axis).
    pub loss: f64,
    /// Mean absolute per-atom energy error in eV/atom (denormalized).
    pub energy_mae: f64,
    /// Mean absolute force-component error in eV/Å (denormalized).
    pub force_mae: f64,
}

/// The outcome of [`Trainer::fit`].
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Stats per epoch, in order.
    pub epochs: Vec<EpochStats>,
    /// Final held-out metrics (if a test set was given).
    pub final_eval: Option<EvalMetrics>,
    /// Total optimization steps taken.
    pub steps: usize,
    /// Wall-clock training time.
    pub wall: Duration,
    /// Whether early stopping ended the run before `epochs`.
    pub early_stopped: bool,
    /// Final supervision verdict: [`RunHealth::Healthy`] for
    /// unsupervised runs and supervised runs that finished (recovered
    /// or not), [`RunHealth::Failed`] when the rollback budget was
    /// exhausted and the run was abandoned.
    pub health: RunHealth,
    /// Total supervised rollbacks performed over the run.
    pub rollbacks: u32,
}

impl TrainReport {
    /// The last recorded test loss, or the last train loss as fallback.
    pub fn final_loss(&self) -> f64 {
        self.final_eval
            .map(|e| e.loss)
            .or_else(|| self.epochs.last().and_then(|e| e.test_loss))
            .or_else(|| self.epochs.last().map(|e| e.train_loss))
            .unwrap_or(f64::NAN)
    }
}

/// Appends this run's scaling coordinates to the ledger named by
/// `MATGNN_LEDGER`, if set. One env lookup at run end — nothing on any
/// training hot path, and (like all telemetry) no effect on the
/// trajectory. `world` is the data-parallel width the report covers.
pub(crate) fn ledger_append(
    kind: &str,
    model: &Egnn,
    train: &Dataset,
    world: usize,
    report: &TrainReport,
) {
    use matgnn_telemetry::ledger;
    if !std::env::var(ledger::ENV_VAR).is_ok_and(|v| !v.is_empty()) {
        return;
    }
    let params = model.params().n_scalars() as u64;
    let atoms_per_epoch: u64 = train.samples().iter().map(|s| s.n_nodes() as u64).sum();
    let atoms_seen = atoms_per_epoch * report.epochs.len() as u64;
    let mut rec = ledger::RunRecord::new(kind, params, atoms_seen, world);
    rec.steps = report.steps as u64;
    rec.wall_s = report.wall.as_secs_f64();
    rec.loss = report.final_loss();
    rec.curve = report
        .epochs
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let flops = ledger::flop_estimate(params, atoms_per_epoch * (i as u64 + 1));
            (flops, e.test_loss.unwrap_or(e.train_loss))
        })
        .collect();
    ledger::append_from_env(&rec);
}

/// Drives training of an [`Egnn`].
///
/// # Examples
///
/// ```no_run
/// use matgnn_data::{Dataset, GeneratorConfig, Normalizer};
/// use matgnn_model::{Egnn, EgnnConfig};
/// use matgnn_train::{TrainConfig, Trainer};
///
/// let (train, test) = Dataset::generate_split(100, 0.2, 7, &GeneratorConfig::default());
/// let norm = Normalizer::fit(&train);
/// let mut model = Egnn::new(EgnnConfig::new(16, 3));
/// let report = Trainer::new(TrainConfig { epochs: 4, ..Default::default() })
///     .fit(&mut model, &train, Some(&test), &norm);
/// println!("test loss {}", report.final_loss());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trainer {
    config: TrainConfig,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: usize,
    resume: bool,
    supervise: Option<SupervisorConfig>,
    keep_checkpoints: usize,
}

/// Cross-attempt supervision state threaded through supervised
/// [`Trainer::fit`] retries.
struct TrainerSupervision {
    detector: AnomalyDetector,
    budget: RollbackBudget,
    /// Global step of the checkpoint the last rollback restored; pinned
    /// against retention pruning so the rollback target stays on disk.
    anchor: Option<u64>,
    /// Steps whose spike verdict already forced one rollback: replay is
    /// bitwise-deterministic and the loss precedes the update, so a
    /// spike that recurs identically is the true trajectory and gets
    /// accepted instead of burning the budget in a rollback livelock.
    spike_rollbacks: std::collections::HashSet<u64>,
}

/// How one supervised training attempt ended.
enum FitExit {
    /// Ran to completion (or early-stopped).
    Completed,
    /// Aborted on an anomalous step; the supervisor should roll back.
    Anomaly,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer {
            config,
            checkpoint_dir: None,
            checkpoint_every: 0,
            resume: false,
            supervise: None,
            keep_checkpoints: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Enables durable training state: a versioned, CRC-protected
    /// [`TrainCheckpoint`] is written atomically to `dir` every
    /// `every_steps` optimizer steps (0 = only at epoch boundaries) and
    /// at the end of every epoch.
    pub fn with_checkpointing(mut self, dir: impl Into<PathBuf>, every_steps: usize) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self.checkpoint_every = every_steps;
        self
    }

    /// Makes [`fit`](Self::fit) first restore the newest intact
    /// checkpoint in the checkpoint directory (no-op when none exists).
    /// A resumed run replays the exact shuffle order and optimizer
    /// trajectory, so its loss curve is bitwise-identical to the
    /// uninterrupted one. Early-stopping patience counters are **not**
    /// checkpointed and restart on resume.
    pub fn resume_latest(mut self) -> Self {
        self.resume = true;
        self
    }

    /// Enables run supervision: after every optimizer step the loss and
    /// post-step parameters are checked for NaN/Inf and loss spikes
    /// (see [`AnomalyDetector`]); an anomalous step is rolled back to
    /// the newest checkpoint (or the parameters `fit` was entered with,
    /// when no checkpoint exists yet) and retried — at full LR first,
    /// then with the LR backed off on repeated consecutive rollbacks —
    /// until `cfg.max_rollbacks` is exhausted and the run is declared
    /// [`RunHealth::Failed`].
    pub fn with_supervision(mut self, cfg: SupervisorConfig) -> Self {
        self.supervise = Some(cfg);
        self
    }

    /// Caps the checkpoint directory at the `n` newest checkpoints
    /// (0 = keep everything). The supervised rollback anchor is never
    /// pruned. See [`prune_checkpoints`].
    pub fn keep_checkpoints(mut self, n: usize) -> Self {
        self.keep_checkpoints = n;
        self
    }

    /// Trains `model` on `train`, optionally evaluating on `test` after
    /// every epoch.
    ///
    /// With [`with_supervision`](Self::with_supervision) this wraps the
    /// attempt in the detect→decide→recover loop; a report from a run
    /// that rolled back covers only the final (post-rollback) attempt's
    /// epochs, mirroring how a resumed run reports only the epochs it
    /// executed.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty.
    pub fn fit(
        &self,
        model: &mut Egnn,
        train: &Dataset,
        test: Option<&Dataset>,
        normalizer: &Normalizer,
    ) -> TrainReport {
        let report = self.fit_supervised(model, train, test, normalizer);
        ledger_append("train", model, train, 1, &report);
        report
    }

    /// [`fit`](Self::fit) without the run-ledger hook: the supervision
    /// loop around [`fit_once`](Self::fit_once).
    fn fit_supervised(
        &self,
        model: &mut Egnn,
        train: &Dataset,
        test: Option<&Dataset>,
        normalizer: &Normalizer,
    ) -> TrainReport {
        let Some(sup_cfg) = self.supervise else {
            return self.fit_once(model, train, test, normalizer, None).0;
        };
        // The rollback target before any checkpoint exists: the
        // parameters at entry (Adam state is implicitly fresh — each
        // attempt recreates the optimizer).
        let initial = model.params().flatten();
        let mut sup = TrainerSupervision {
            detector: AnomalyDetector::new(&sup_cfg),
            budget: RollbackBudget::new(sup_cfg),
            anchor: None,
            spike_rollbacks: std::collections::HashSet::new(),
        };
        let mut attempt = self.clone();
        loop {
            let (mut report, exit) =
                attempt.fit_once(model, train, test, normalizer, Some(&mut sup));
            report.rollbacks = sup.budget.total_rollbacks();
            match exit {
                FitExit::Completed => return report,
                FitExit::Anomaly => {
                    let health = sup.budget.record_anomaly();
                    if health == RunHealth::Failed {
                        matgnn_telemetry::health_event(
                            "supervisor.failed",
                            &format!(
                                "rollback budget exhausted after {} rollbacks; abandoning the run",
                                sup.budget.total_rollbacks().saturating_sub(1)
                            ),
                        );
                        report.health = RunHealth::Failed;
                        report.rollbacks = sup.budget.total_rollbacks().saturating_sub(1);
                        return report;
                    }
                    match attempt.checkpoint_dir.as_deref().and_then(latest_in) {
                        Some((_, ckpt)) => {
                            sup.anchor = Some(ckpt.global_step);
                            // `fit_once` restores the newest checkpoint
                            // itself on the retry.
                            attempt.resume = true;
                            matgnn_telemetry::health_event(
                                "supervisor.rollback",
                                &format!(
                                    "restored step {} checkpoint (rollback {} of {})",
                                    ckpt.global_step,
                                    sup.budget.total_rollbacks(),
                                    sup_cfg.max_rollbacks
                                ),
                            );
                        }
                        None => {
                            model.params_mut().unflatten_from(&initial);
                            attempt.resume = false;
                            matgnn_telemetry::health_event(
                                "supervisor.rollback",
                                &format!(
                                    "no checkpoint on disk; restarted from initial state \
                                     (rollback {} of {})",
                                    sup.budget.total_rollbacks(),
                                    sup_cfg.max_rollbacks
                                ),
                            );
                        }
                    }
                    matgnn_telemetry::counter_add("supervisor.rollback", 1);
                    sup.budget.record_rolled_back();
                }
            }
        }
    }

    /// One training attempt (the whole run, when unsupervised).
    fn fit_once(
        &self,
        model: &mut Egnn,
        train: &Dataset,
        test: Option<&Dataset>,
        normalizer: &Normalizer,
        mut sup: Option<&mut TrainerSupervision>,
    ) -> (TrainReport, FitExit) {
        assert!(!train.is_empty(), "cannot train on an empty dataset");
        let cfg = &self.config;
        let accum = cfg.grad_accum_steps.max(1);
        // Retry attempts after repeated consecutive rollbacks run the
        // whole attempt at a backed-off LR; the first retry's factor is
        // 1.0 so a transient anomaly recovers bitwise-identically.
        let lr_factor = sup.as_deref().map_or(1.0, |s| s.budget.retry_lr_factor());
        let start = Instant::now();
        let mut optimizer = Adam::new(model.params(), cfg.adam, None);
        let mut epochs = Vec::with_capacity(cfg.epochs);
        let mut step = 0usize;
        let mut best_test = f64::INFINITY;
        let mut since_best = 0usize;
        let mut early_stopped = false;

        // Restore the newest durable state. A mid-epoch checkpoint lands
        // on an optimizer-step boundary, so resuming means replaying the
        // epoch's shuffle order and skipping the batches already consumed
        // — the remaining trajectory is bitwise-identical to the
        // uninterrupted run.
        let mut start_epoch = 0usize;
        let mut resume_skip = 0usize;
        let mut resume_loss = 0.0f64;
        let mut resume_step_in_epoch = 0usize;
        if self.resume {
            if let Some(dir) = &self.checkpoint_dir {
                if let Some((_, ckpt)) = latest_in(dir) {
                    model.params_mut().unflatten_from(&ckpt.params.flatten());
                    optimizer.restore_state(&ckpt.adam);
                    step = ckpt.global_step as usize;
                    start_epoch = ckpt.epoch as usize;
                    resume_skip = ckpt.loss_count as usize;
                    resume_loss = ckpt.loss_acc;
                    resume_step_in_epoch = ckpt.step_in_epoch as usize;
                }
            }
        }
        let steps_at_entry = step;

        for epoch in start_epoch..cfg.epochs {
            let resuming = epoch == start_epoch && resume_skip > 0;
            let skip_batches = if resuming { resume_skip } else { 0 };
            let mut epoch_loss = if resuming { resume_loss } else { 0.0 };
            let mut n_batches = skip_batches;
            let epoch_start_step = step
                - if epoch == start_epoch {
                    resume_step_in_epoch
                } else {
                    0
                };
            let shuffle = cfg.seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9);
            let mut accum_buf: Option<Vec<matgnn_tensor::Tensor>> = None;
            let mut micro = 0usize;
            let flush = |buf: &mut Option<Vec<matgnn_tensor::Tensor>>,
                         micro: &mut usize,
                         model: &mut Egnn,
                         optimizer: &mut Adam,
                         step: &mut usize| {
                let Some(mut grads) = buf.take() else { return };
                let _span = matgnn_telemetry::span("optimizer");
                if *micro > 1 {
                    let inv = 1.0 / *micro as f32;
                    for g in &mut grads {
                        g.scale_in_place(inv);
                    }
                }
                if let Some(max_norm) = cfg.grad_clip {
                    let _ = clip_grad_norm(&mut grads, max_norm);
                }
                let lr = cfg.schedule.lr(cfg.base_lr, *step) * lr_factor;
                optimizer.step(model.params_mut(), &grads, lr);
                // The gradients are fully consumed by the update; hand
                // their buffers back so the next backward pass reuses them.
                for g in grads {
                    g.recycle();
                }
                *step += 1;
                *micro = 0;
                matgnn_telemetry::gauge_set("train.lr", lr as f64);
                matgnn_telemetry::counter_add("train.steps", 1);
                if matgnn_telemetry::enabled() {
                    // Absorb the stat islands and emit one step-tagged
                    // metrics line per optimizer step.
                    matgnn_tensor::recycler::publish_telemetry();
                    matgnn_tensor::pool::publish_telemetry();
                    matgnn_tensor::simd::publish_telemetry();
                    matgnn_telemetry::flush_metrics();
                }
            };
            // Depth 0 loads synchronously on this thread; otherwise a
            // background producer runs the identical iterator ahead of the
            // step, so the sequence of batches is the same either way.
            let batches: Box<dyn Iterator<Item = (GraphBatch, Targets)>> = if cfg.prefetch_depth > 0
            {
                Box::new(PrefetchIterator::with_skip(
                    train,
                    cfg.batch_size,
                    Some(shuffle),
                    *normalizer,
                    cfg.prefetch_depth,
                    skip_batches,
                ))
            } else {
                Box::new(
                    BatchIterator::new(train, cfg.batch_size, Some(shuffle), *normalizer)
                        .skip(skip_batches),
                )
            };
            let mut batches = batches;
            loop {
                matgnn_telemetry::set_step(step as u64);
                let item = {
                    let _span = matgnn_telemetry::span("data.load");
                    batches.next()
                };
                let Some((batch, targets)) = item else { break };
                let _step_span = matgnn_telemetry::span("step");
                let outcome =
                    train_step(model, &batch, &targets, &cfg.loss, cfg.checkpointing, None);
                matgnn_telemetry::gauge_set("train.loss", outcome.loss);
                epoch_loss += outcome.loss;
                n_batches += 1;
                match &mut accum_buf {
                    None => accum_buf = Some(outcome.grads),
                    Some(buf) => {
                        for (b, g) in buf.iter_mut().zip(outcome.grads) {
                            b.axpy(1.0, &g);
                            g.recycle();
                        }
                    }
                }
                micro += 1;
                if micro == accum {
                    flush(&mut accum_buf, &mut micro, model, &mut optimizer, &mut step);
                    // Detect → decide: post-step numerical health. An
                    // anomalous step aborts the attempt *before* it can
                    // be checkpointed, so the newest checkpoint on disk
                    // is always a healthy rollback target.
                    if let Some(s) = sup.as_deref_mut() {
                        let verdict = s.detector.observe(step as u64, outcome.loss);
                        // A spiked step gets exactly one rollback;
                        // recurring identically on replay, it is
                        // accepted as genuine.
                        let spike =
                            verdict == Verdict::Spike && s.spike_rollbacks.insert(step as u64);
                        let anomalous = verdict == Verdict::NonFinite
                            || spike
                            || !params_finite(model.params().flatten().data());
                        if anomalous {
                            matgnn_telemetry::health_event(
                                "supervisor.anomaly",
                                &format!("step {step}: verdict {verdict:?}, loss {}", outcome.loss),
                            );
                            matgnn_telemetry::counter_add("supervisor.anomaly", 1);
                            matgnn_telemetry::clear_step();
                            return (
                                TrainReport {
                                    epochs,
                                    final_eval: None,
                                    steps: step - steps_at_entry,
                                    wall: start.elapsed(),
                                    early_stopped: false,
                                    health: RunHealth::Anomalous,
                                    rollbacks: s.budget.total_rollbacks(),
                                },
                                FitExit::Anomaly,
                            );
                        }
                        s.budget.record_healthy_step();
                    }
                    // Periodic checkpoints land on optimizer-step
                    // boundaries, where no accumulation is in flight.
                    if let Some(dir) = &self.checkpoint_dir {
                        if self.checkpoint_every > 0 && step.is_multiple_of(self.checkpoint_every) {
                            save_checkpoint(
                                dir,
                                epoch,
                                step - epoch_start_step,
                                step,
                                cfg.seed,
                                epoch_loss,
                                n_batches,
                                model,
                                &optimizer,
                                normalizer,
                            );
                            if self.keep_checkpoints > 0 {
                                prune_checkpoints(
                                    dir,
                                    self.keep_checkpoints,
                                    sup.as_deref().and_then(|s| s.anchor),
                                );
                            }
                        }
                    }
                }
            }
            // Flush a trailing partial accumulation at epoch end.
            flush(&mut accum_buf, &mut micro, model, &mut optimizer, &mut step);

            let train_loss = epoch_loss / n_batches.max(1) as f64;
            let test_loss = test.map(|t| {
                let _span = matgnn_telemetry::span("evaluate");
                evaluate(model, t, normalizer, &cfg.loss, cfg.batch_size).loss
            });
            epochs.push(EpochStats {
                epoch,
                train_loss,
                test_loss,
            });

            // Epoch-boundary checkpoint: the next run starts cleanly at
            // `epoch + 1` (same global step ⇒ same file name as a
            // just-written periodic checkpoint, atomically replaced).
            if let Some(dir) = &self.checkpoint_dir {
                save_checkpoint(
                    dir,
                    epoch + 1,
                    0,
                    step,
                    cfg.seed,
                    0.0,
                    0,
                    model,
                    &optimizer,
                    normalizer,
                );
                if self.keep_checkpoints > 0 {
                    prune_checkpoints(
                        dir,
                        self.keep_checkpoints,
                        sup.as_deref().and_then(|s| s.anchor),
                    );
                }
            }

            if let (Some(patience), Some(tl)) = (cfg.early_stop_patience, test_loss) {
                if tl + 1e-12 < best_test {
                    best_test = tl;
                    since_best = 0;
                } else {
                    since_best += 1;
                    if since_best >= patience {
                        early_stopped = true;
                        break;
                    }
                }
            }
        }

        matgnn_telemetry::clear_step();
        let final_eval = test.map(|t| evaluate(model, t, normalizer, &cfg.loss, cfg.batch_size));
        (
            TrainReport {
                epochs,
                final_eval,
                steps: step - steps_at_entry,
                wall: start.elapsed(),
                early_stopped,
                health: RunHealth::Healthy,
                rollbacks: sup.as_deref().map_or(0, |s| s.budget.total_rollbacks()),
            },
            FitExit::Completed,
        )
    }
}

/// Writes one durable checkpoint (best-effort: training never stops
/// because a checkpoint write failed).
#[allow(clippy::too_many_arguments)]
fn save_checkpoint(
    dir: &std::path::Path,
    epoch: usize,
    step_in_epoch: usize,
    global_step: usize,
    seed: u64,
    loss_acc: f64,
    loss_count: usize,
    model: &Egnn,
    optimizer: &Adam,
    normalizer: &Normalizer,
) {
    let ckpt = TrainCheckpoint {
        epoch: epoch as u64,
        step_in_epoch: step_in_epoch as u64,
        global_step: global_step as u64,
        seed,
        loss_acc,
        loss_count: loss_count as u64,
        params: model.params().clone(),
        adam: optimizer.export_state(),
        normalizer: *normalizer,
    };
    let _ = ckpt.save(dir.join(TrainCheckpoint::file_name(global_step as u64)));
}

/// Evaluates `model` on `dataset` with frozen parameters.
///
/// Returns the mean loss in normalized space (the paper's test-loss axis)
/// plus denormalized MAE metrics. Nothing is recorded: the forward and the
/// loss run on the non-recording executor, whose values equal the tape's
/// bit for bit.
///
/// # Panics
///
/// Panics if `dataset` is empty.
pub fn evaluate(
    model: &Egnn,
    dataset: &Dataset,
    normalizer: &Normalizer,
    loss_cfg: &LossConfig,
    batch_size: usize,
) -> EvalMetrics {
    assert!(!dataset.is_empty(), "cannot evaluate on an empty dataset");
    let frozen = FrozenEgnn::freeze(model);
    let mut loss_sum = 0.0f64;
    let mut n_batches = 0usize;
    let mut e_abs = 0.0f64;
    let mut n_graphs = 0usize;
    let mut f_abs = 0.0f64;
    let mut n_force_comps = 0usize;

    for (batch, targets) in BatchIterator::new(dataset, batch_size, None, *normalizer) {
        let (energy, forces) = frozen.predict(&batch);

        // Denormalized MAEs.
        for g in 0..batch.n_graphs() {
            let n_atoms = batch.node_counts()[g] as f64;
            let pred_per_atom = energy.get(g, 0) as f64 / n_atoms;
            let tgt_per_atom = targets.energy.get(g, 0) as f64;
            e_abs += (pred_per_atom - tgt_per_atom).abs() * normalizer.energy_std;
            n_graphs += 1;
        }
        for a in 0..batch.n_nodes() {
            for k in 0..3 {
                let d = (forces.get(a, k) - targets.forces.get(a, k)) as f64;
                f_abs += d.abs() * normalizer.force_std;
                n_force_comps += 1;
            }
        }

        let out = ModelOutput { energy, forces };
        let loss = loss_cfg.compute(&mut NoTape, out, &batch, &targets);
        loss_sum += loss.item() as f64;
        n_batches += 1;
    }

    EvalMetrics {
        loss: loss_sum / n_batches.max(1) as f64,
        energy_mae: e_abs / n_graphs.max(1) as f64,
        force_mae: f_abs / n_force_comps.max(1) as f64,
    }
}

/// Evaluates `model` separately on each source's slice of `dataset` —
/// the breakdown behind the paper's Fig. 4 distribution-mismatch
/// conjecture (a model trained on a biased subset should look fine on
/// the over-represented sources and poor on the missing ones).
///
/// Sources with no samples in `dataset` are omitted.
pub fn evaluate_per_source(
    model: &Egnn,
    dataset: &Dataset,
    normalizer: &Normalizer,
    loss_cfg: &LossConfig,
    batch_size: usize,
) -> Vec<(SourceKind, EvalMetrics)> {
    SourceKind::ALL
        .iter()
        .filter_map(|&kind| {
            let slice: Vec<_> = dataset
                .samples()
                .iter()
                .filter(|s| s.source == kind)
                .cloned()
                .collect();
            if slice.is_empty() {
                return None;
            }
            let sub = Dataset::from_samples(slice);
            Some((
                kind,
                evaluate(model, &sub, normalizer, loss_cfg, batch_size),
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgnn_data::GeneratorConfig;
    use matgnn_model::{Egnn, EgnnConfig};
    use matgnn_tensor::Tape;

    use crate::LossKind;

    fn small_data() -> (Dataset, Dataset, Normalizer) {
        let (train, test) = Dataset::generate_split(30, 0.2, 23, &GeneratorConfig::default());
        let norm = Normalizer::fit(&train);
        (train, test, norm)
    }

    /// The reference for [`evaluate`]: the same metrics from a forward and
    /// a loss recorded on a tape that nothing walks.
    fn evaluate_on_tape(
        model: &Egnn,
        dataset: &Dataset,
        normalizer: &Normalizer,
        loss_cfg: &LossConfig,
        batch_size: usize,
    ) -> EvalMetrics {
        let (mut loss_sum, mut n_batches) = (0.0f64, 0usize);
        let (mut e_abs, mut n_graphs, mut f_abs, mut n_force_comps) = (0.0f64, 0usize, 0.0f64, 0);
        for (batch, targets) in BatchIterator::new(dataset, batch_size, None, *normalizer) {
            let mut tape = Tape::new();
            let pvars = model.params().bind_frozen(&mut tape);
            let out = model.forward(&mut tape, &pvars, &batch);
            let loss = loss_cfg.compute(&mut tape, out, &batch, &targets);
            loss_sum += tape.value(loss).item() as f64;
            n_batches += 1;
            let pred_e = tape.value(out.energy);
            for g in 0..batch.n_graphs() {
                let pred_per_atom = pred_e.get(g, 0) as f64 / batch.node_counts()[g] as f64;
                let tgt_per_atom = targets.energy.get(g, 0) as f64;
                e_abs += (pred_per_atom - tgt_per_atom).abs() * normalizer.energy_std;
                n_graphs += 1;
            }
            let pred_f = tape.value(out.forces);
            for a in 0..batch.n_nodes() {
                for k in 0..3 {
                    let d = (pred_f.get(a, k) - targets.forces.get(a, k)) as f64;
                    f_abs += d.abs() * normalizer.force_std;
                    n_force_comps += 1;
                }
            }
        }
        EvalMetrics {
            loss: loss_sum / n_batches as f64,
            energy_mae: e_abs / n_graphs as f64,
            force_mae: f_abs / n_force_comps as f64,
        }
    }

    #[test]
    fn evaluate_equals_tape_recorded_evaluation_bitwise() {
        let (train, test, norm) = small_data();
        let config = EgnnConfig::new(12, 2)
            .with_seed(4)
            .with_rbf(8)
            .with_edge_gate(true);
        let mut model = Egnn::new(config);
        let tc = TrainConfig {
            epochs: 1,
            batch_size: 8,
            ..Default::default()
        };
        let _ = Trainer::new(tc).fit(&mut model, &train, None, &norm);
        let bits = |m: &EvalMetrics| [m.loss, m.energy_mae, m.force_mae].map(f64::to_bits);
        for kind in [LossKind::Mse, LossKind::Huber { delta: 0.3 }] {
            let loss_cfg = LossConfig {
                kind,
                ..Default::default()
            };
            for batch_size in [3, 8] {
                let got = evaluate(&model, &test, &norm, &loss_cfg, batch_size);
                let want = evaluate_on_tape(&model, &test, &norm, &loss_cfg, batch_size);
                assert_eq!(bits(&got), bits(&want), "{kind:?}, batch {batch_size}");
            }
        }
    }

    #[test]
    fn training_reduces_loss() {
        let (train, test, norm) = small_data();
        let mut model = Egnn::new(EgnnConfig::new(12, 2).with_seed(1));
        let cfg = TrainConfig {
            epochs: 6,
            batch_size: 8,
            base_lr: 5e-3,
            ..Default::default()
        };
        let report = Trainer::new(cfg).fit(&mut model, &train, Some(&test), &norm);
        assert_eq!(report.epochs.len(), 6);
        let first = report.epochs[0].train_loss;
        let last = report.epochs[5].train_loss;
        assert!(
            last < 0.7 * first,
            "training did not reduce loss: {first} → {last}"
        );
        assert!(report.final_loss().is_finite());
        assert!(report.steps > 0);
    }

    #[test]
    fn checkpointed_training_works() {
        let (train, _, norm) = small_data();
        let mut model = Egnn::new(EgnnConfig::new(8, 2).with_seed(2));
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            checkpointing: true,
            ..Default::default()
        };
        let report = Trainer::new(cfg).fit(&mut model, &train, None, &norm);
        let first = report.epochs[0].train_loss;
        let last = report.epochs[1].train_loss;
        assert!(
            last < first,
            "checkpointed training diverged: {first} → {last}"
        );
    }

    #[test]
    fn evaluate_is_deterministic_and_positive() {
        let (train, test, norm) = small_data();
        let model = Egnn::new(EgnnConfig::new(8, 2));
        let m1 = evaluate(&model, &test, &norm, &LossConfig::default(), 8);
        let m2 = evaluate(&model, &test, &norm, &LossConfig::default(), 8);
        assert_eq!(m1.loss, m2.loss);
        assert!(m1.loss > 0.0);
        assert!(m1.energy_mae > 0.0);
        assert!(m1.force_mae > 0.0);
        let _ = train;
    }

    #[test]
    fn schedule_and_clipping_run() {
        let (train, _, norm) = small_data();
        let mut model = Egnn::new(EgnnConfig::new(8, 2));
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            schedule: LrSchedule::WarmupCosine {
                warmup_steps: 2,
                total_steps: 10,
                min_factor: 0.1,
            },
            grad_clip: Some(1.0),
            ..Default::default()
        };
        let report = Trainer::new(cfg).fit(&mut model, &train, None, &norm);
        assert!(report.epochs.iter().all(|e| e.train_loss.is_finite()));
    }

    #[test]
    fn deterministic_given_seed() {
        let (train, _, norm) = small_data();
        let run = || {
            let mut model = Egnn::new(EgnnConfig::new(8, 2).with_seed(3));
            let cfg = TrainConfig {
                epochs: 2,
                batch_size: 8,
                seed: 9,
                ..Default::default()
            };
            Trainer::new(cfg)
                .fit(&mut model, &train, None, &norm)
                .epochs[1]
                .train_loss
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn per_source_evaluation_covers_present_sources() {
        let (train, test, norm) = small_data();
        let mut model = Egnn::new(EgnnConfig::new(8, 2));
        let _ = Trainer::new(TrainConfig {
            epochs: 2,
            batch_size: 8,
            ..Default::default()
        })
        .fit(&mut model, &train, None, &norm);
        let per_source = evaluate_per_source(&model, &test, &norm, &LossConfig::default(), 8);
        assert!(!per_source.is_empty());
        for (kind, m) in &per_source {
            assert!(m.loss.is_finite(), "{kind} loss");
            let n_in_test = test.samples().iter().filter(|s| s.source == *kind).count();
            assert!(n_in_test > 0, "{kind} reported but absent");
        }
        // The overall loss is bracketed by the per-source extremes.
        let overall = evaluate(&model, &test, &norm, &LossConfig::default(), 8).loss;
        let min = per_source
            .iter()
            .map(|(_, m)| m.loss)
            .fold(f64::INFINITY, f64::min);
        let max = per_source.iter().map(|(_, m)| m.loss).fold(0.0, f64::max);
        assert!(
            overall >= min * 0.99 && overall <= max * 1.01,
            "{min} ≤ {overall} ≤ {max}"
        );
    }

    #[test]
    fn gradient_accumulation_reduces_steps_and_converges() {
        let (train, _, norm) = small_data();
        let batches_per_epoch = train.len().div_ceil(8);
        let run = |accum: usize| {
            let mut model = Egnn::new(EgnnConfig::new(8, 2).with_seed(8));
            let cfg = TrainConfig {
                epochs: 4,
                batch_size: 8,
                grad_accum_steps: accum,
                ..Default::default()
            };
            Trainer::new(cfg).fit(&mut model, &train, None, &norm)
        };
        let plain = run(1);
        let accum = run(3);
        assert_eq!(plain.steps, 4 * batches_per_epoch);
        // ceil(batches/3) optimizer steps per epoch (partial flush counts).
        assert_eq!(accum.steps, 4 * batches_per_epoch.div_ceil(3));
        let last = accum.epochs.last().expect("epochs").train_loss;
        let first = accum.epochs[0].train_loss;
        assert!(
            last < first,
            "accumulated training diverged: {first} → {last}"
        );
    }

    #[test]
    fn early_stopping_halts_on_plateau() {
        let (train, test, norm) = small_data();
        let mut model = Egnn::new(EgnnConfig::new(8, 2).with_seed(9));
        // A zero learning rate guarantees a plateau from epoch 1 onward.
        let cfg = TrainConfig {
            epochs: 12,
            batch_size: 8,
            base_lr: 0.0,
            early_stop_patience: Some(2),
            ..Default::default()
        };
        let report = Trainer::new(cfg).fit(&mut model, &train, Some(&test), &norm);
        assert!(report.early_stopped);
        assert!(
            report.epochs.len() <= 4,
            "ran {} epochs",
            report.epochs.len()
        );
    }

    #[test]
    fn early_stopping_ignored_without_test_set() {
        let (train, _, norm) = small_data();
        let mut model = Egnn::new(EgnnConfig::new(8, 2));
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 8,
            base_lr: 0.0,
            early_stop_patience: Some(1),
            ..Default::default()
        };
        let report = Trainer::new(cfg).fit(&mut model, &train, None, &norm);
        assert!(!report.early_stopped);
        assert_eq!(report.epochs.len(), 3);
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("matgnn_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn resume_is_bitwise_identical_to_uninterrupted_run() {
        let (train, _, norm) = small_data();
        let cfg = TrainConfig {
            epochs: 4,
            batch_size: 8,
            seed: 5,
            ..Default::default()
        };

        let mut reference = Egnn::new(EgnnConfig::new(8, 2).with_seed(4));
        let ref_report = Trainer::new(cfg).fit(&mut reference, &train, None, &norm);

        // Interrupted run: 2 epochs with checkpointing, then a resumed
        // trainer — seeded differently to prove the parameters really
        // come from the checkpoint, not from construction.
        let dir = ckpt_dir("resume");
        let mut model = Egnn::new(EgnnConfig::new(8, 2).with_seed(4));
        let half = TrainConfig { epochs: 2, ..cfg };
        let _ = Trainer::new(half)
            .with_checkpointing(&dir, 1)
            .fit(&mut model, &train, None, &norm);
        let mut resumed = Egnn::new(EgnnConfig::new(8, 2).with_seed(99));
        let report = Trainer::new(cfg)
            .with_checkpointing(&dir, 1)
            .resume_latest()
            .fit(&mut resumed, &train, None, &norm);

        assert_eq!(report.epochs.len(), 2, "resume should run epochs 2..4");
        for (i, e) in report.epochs.iter().enumerate() {
            assert_eq!(e.epoch, 2 + i);
            assert_eq!(
                e.train_loss.to_bits(),
                ref_report.epochs[2 + i].train_loss.to_bits(),
                "epoch {} loss differs after resume",
                e.epoch
            );
        }
        assert!(
            reference
                .params()
                .flatten()
                .allclose(&resumed.params().flatten(), 0.0),
            "resumed parameters diverged from the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_epoch_resume_is_bitwise_identical() {
        let (train, _, norm) = small_data();
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            seed: 11,
            ..Default::default()
        };

        let mut reference = Egnn::new(EgnnConfig::new(8, 2).with_seed(6));
        let ref_report = Trainer::new(cfg).fit(&mut reference, &train, None, &norm);

        // Full run checkpointing every step, then a directory holding
        // only a checkpoint from the middle of epoch 0 — as if the
        // process died right after writing it.
        let dir = ckpt_dir("midep");
        let mut model = Egnn::new(EgnnConfig::new(8, 2).with_seed(6));
        let _ = Trainer::new(cfg)
            .with_checkpointing(&dir, 1)
            .fit(&mut model, &train, None, &norm);
        let crash_dir = ckpt_dir("midep_crash");
        let mid = TrainCheckpoint::file_name(1); // step 1 of 3 in epoch 0
        std::fs::copy(dir.join(&mid), crash_dir.join(&mid)).unwrap();
        let (_, ckpt) = latest_in(&crash_dir).expect("mid-epoch checkpoint");
        assert_eq!(ckpt.epoch, 0);
        assert!(ckpt.step_in_epoch > 0, "not a mid-epoch checkpoint");

        let mut resumed = Egnn::new(EgnnConfig::new(8, 2).with_seed(77));
        let report = Trainer::new(cfg)
            .with_checkpointing(&crash_dir, 1)
            .resume_latest()
            .fit(&mut resumed, &train, None, &norm);

        assert_eq!(report.epochs.len(), 2, "resume replays the torn epoch");
        for (e, r) in report.epochs.iter().zip(&ref_report.epochs) {
            assert_eq!(
                e.train_loss.to_bits(),
                r.train_loss.to_bits(),
                "epoch {} loss differs after mid-epoch resume",
                e.epoch
            );
        }
        assert!(
            reference
                .params()
                .flatten()
                .allclose(&resumed.params().flatten(), 0.0),
            "mid-epoch resumed parameters diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&crash_dir);
    }

    #[test]
    fn supervision_is_transparent_on_a_healthy_run() {
        let (train, _, norm) = small_data();
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 8,
            seed: 13,
            ..Default::default()
        };
        let mut plain = Egnn::new(EgnnConfig::new(8, 2).with_seed(7));
        let plain_report = Trainer::new(cfg).fit(&mut plain, &train, None, &norm);
        let mut watched = Egnn::new(EgnnConfig::new(8, 2).with_seed(7));
        let report = Trainer::new(cfg)
            .with_supervision(SupervisorConfig::default())
            .fit(&mut watched, &train, None, &norm);

        assert_eq!(report.health, RunHealth::Healthy);
        assert_eq!(report.rollbacks, 0);
        for (a, b) in report.epochs.iter().zip(&plain_report.epochs) {
            assert_eq!(
                a.train_loss.to_bits(),
                b.train_loss.to_bits(),
                "supervision perturbed epoch {}",
                a.epoch
            );
        }
        assert!(
            plain
                .params()
                .flatten()
                .allclose(&watched.params().flatten(), 0.0),
            "supervision perturbed the parameters"
        );
    }

    #[test]
    fn supervised_divergence_rolls_back_then_fails() {
        let (train, _, norm) = small_data();
        let mut model = Egnn::new(EgnnConfig::new(8, 2).with_seed(5));
        let snapshot = model.params().flatten();
        // An absurd LR blows the parameters up on the first optimizer
        // step; with no checkpoint directory each rollback restores the
        // entry snapshot, and the same divergence recurs until the
        // budget is spent.
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            base_lr: 1e12,
            grad_clip: None,
            ..Default::default()
        };
        let report = Trainer::new(cfg)
            .with_supervision(SupervisorConfig {
                anomaly_window: 1,
                max_rollbacks: 2,
                ..Default::default()
            })
            .fit(&mut model, &train, None, &norm);

        assert_eq!(report.health, RunHealth::Failed);
        assert_eq!(report.rollbacks, 2, "budget allows exactly 2 rollbacks");
        // The abandoned model holds the last (anomalous) attempt's
        // parameters, not the snapshot — the caller decides what to do.
        let _ = snapshot;
    }

    #[test]
    fn trainer_prunes_checkpoints_to_the_cap() {
        let (train, _, norm) = small_data();
        let dir = ckpt_dir("retention");
        let mut model = Egnn::new(EgnnConfig::new(8, 2).with_seed(3));
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 8,
            ..Default::default()
        };
        let _ = Trainer::new(cfg)
            .with_checkpointing(&dir, 1)
            .keep_checkpoints(2)
            .fit(&mut model, &train, None, &norm);

        let n_files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(n_files, 2, "retention left {n_files} checkpoints");
        let (_, newest) = latest_in(&dir).expect("newest checkpoint");
        // 24 train graphs / batch 8 = 3 steps per epoch, 2 epochs.
        assert_eq!(newest.global_step, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_train_panics() {
        let (_, _, norm) = small_data();
        let mut model = Egnn::new(EgnnConfig::new(8, 2));
        let _ = Trainer::default().fit(&mut model, &Dataset::default(), None, &norm);
    }
}
