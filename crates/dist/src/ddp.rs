//! Distributed data-parallel (DDP) training over simulated ranks, with
//! fault tolerance.
//!
//! Each rank (an OS thread standing in for one GPU) holds a full model
//! replica, processes its own slice of every global batch, and the ranks
//! all-reduce gradient means before stepping identical optimizers — the
//! PyTorch-DDP semantics HydraGNN uses. With [`DdpConfig::zero`] the full
//! Adam replica is replaced by a [`ZeroAdam`] shard (reduce-scatter +
//! all-gather), and [`DdpConfig::checkpointing`] switches the step to the
//! recompute path — together, the paper's Sec. V configuration matrix.
//!
//! # Fault tolerance
//!
//! Every collective is timeout-bounded and returns `Result` (see
//! [`CommError`]). When a rank dies — by panic, or injected through a
//! [`FaultPlan`] — the group is poisoned and every survivor unwinds to
//! the supervised recovery loop: bounded exponential backoff, then
//! [`Communicator::split_survivors`] re-forms a smaller group (elastic
//! world size), the newest intact [`TrainCheckpoint`] is reloaded, and
//! training continues from that step. Checkpoints are written atomically
//! by the group's rank 0 every [`DdpConfig::checkpoint_every`] steps in a
//! world-size-independent layout (ZeRO moments are gathered first), so a
//! 4-rank checkpoint restores cleanly into a 3-rank group.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use matgnn_data::{collate, Dataset, Normalizer, Prefetcher, Sample, Targets};
use matgnn_graph::GraphBatch;
use matgnn_model::GnnModel;
use matgnn_tensor::rng::Rng;
use matgnn_tensor::{runtime, MemoryBreakdown, MemoryCategory, MemoryTracker, Runtime, Tensor};
use matgnn_train::{
    clip_grad_norm, latest_in, params_finite, prune_checkpoints, train_step, train_step_with_sink,
    Adam, AdamHyper, AdamState, AnomalyDetector, LossConfig, LrSchedule, Optimizer, RollbackBudget,
    SupervisorConfig, TrainCheckpoint, Verdict,
};

use crate::supervisor::{Heartbeat, ParkGuard, Watchdog};
use crate::{
    shard_range, CommError, CommStats, Communicator, CostModel, FaultKind, FaultPlan, ZeroAdam,
};

/// Base of the bounded exponential backoff between recovery attempts.
const BACKOFF_BASE: Duration = Duration::from_millis(10);

/// Default gradient-bucket size (floats) for the backward-overlapped
/// all-reduce when [`DdpConfig::bucket_size`] is unset.
const DEFAULT_OVERLAP_BUCKET_FLOATS: usize = 8192;

/// Configuration of a DDP run.
#[derive(Debug, Clone)]
pub struct DdpConfig {
    /// Number of simulated ranks ("GPUs").
    pub world: usize,
    /// Passes over the training set.
    pub epochs: usize,
    /// Graphs per rank per step (global batch = `world × batch_size`).
    pub batch_size: usize,
    /// Base learning rate.
    pub base_lr: f32,
    /// LR schedule.
    pub schedule: LrSchedule,
    /// Per-rank gradient clipping before reduction (`None` disables).
    pub grad_clip: Option<f32>,
    /// Training objective.
    pub loss: LossConfig,
    /// Adam hyperparameters.
    pub adam: AdamHyper,
    /// Shuffle seed.
    pub seed: u64,
    /// Activation checkpointing on each rank.
    pub checkpointing: bool,
    /// ZeRO-1 optimizer-state sharding instead of replicated Adam.
    pub zero: bool,
    /// Interconnect cost model for modeled communication time.
    pub cost: CostModel,
    /// Gradient bucketing: all-reduce in chunks of at most this many
    /// floats (`None` = one collective for the whole gradient; with
    /// [`overlap_comm`](Self::overlap_comm) unset `None` also defaults the
    /// overlapped bucket size). With `overlap_comm` the buckets are what
    /// gets handed to the communication thread as backward finalizes
    /// them, exactly as real DDP overlaps the all-reduce with the tail of
    /// the backward pass; without it they are reduced sequentially and
    /// only trade per-collective latency against staging-buffer size. The
    /// result is bit-identical in every combination (tested).
    pub bucket_size: Option<usize>,
    /// Batches to decode ahead of the training loop on a background
    /// producer thread per rank (0 = fetch synchronously). Any depth is
    /// bitwise-identical to the synchronous path; injected transient I/O
    /// faults are retried inside the producer with the same backoff.
    pub prefetch_depth: usize,
    /// Overlap gradient reduction with the backward pass: buckets are
    /// handed to a per-rank communication thread the moment backward
    /// finalizes their gradients, and the optimizer step waits only for
    /// the remainder. Requires [`grad_clip`](Self::grad_clip) to be
    /// `None` (pre-reduction global-norm clipping needs every gradient
    /// before the first collective could start) and a world of at least
    /// two; otherwise the step silently runs unoverlapped. Results are
    /// bitwise identical either way — overlap moves work in wall time,
    /// never reorders arithmetic. Hidden time is credited to
    /// [`CommStats::overlapped_seconds`].
    pub overlap_comm: bool,
    /// Rendezvous timeout for every collective.
    pub comm_timeout: Duration,
    /// Where to write [`TrainCheckpoint`]s (`None` disables durability —
    /// a failure then restarts training from scratch).
    pub checkpoint_dir: Option<PathBuf>,
    /// Write a checkpoint every this many optimizer steps (0 disables
    /// periodic checkpoints even when a directory is set).
    pub checkpoint_every: usize,
    /// Resume from the newest intact checkpoint in `checkpoint_dir`
    /// before the first step (no-op when none exists).
    pub resume: bool,
    /// Injected fault schedule (empty = run clean).
    pub fault_plan: FaultPlan,
    /// How many times a surviving rank will recover (re-form + reload)
    /// before giving up.
    pub max_recoveries: usize,
    /// Numerical-anomaly supervision: per-step loss/parameter checks, a
    /// rank-consensus verdict, and rollback to the last good checkpoint
    /// (`None` disables — anomalies then propagate unchecked, as before).
    pub supervise: Option<SupervisorConfig>,
    /// Keep only the newest this-many `step-*.ckpt` files, pruning older
    /// ones after each save (0 keeps everything). The supervisor's
    /// rollback anchor is never pruned.
    pub keep_checkpoints: usize,
    /// Hang-watchdog progress deadline: a rank that is neither inside a
    /// collective nor beating its heartbeat for this long is declared
    /// dead (group poisoned → elastic recovery). Distinct from
    /// [`comm_timeout`](Self::comm_timeout), which polices time spent
    /// *inside* a collective. `None` disables the watchdog.
    pub progress_deadline: Option<Duration>,
}

impl Default for DdpConfig {
    fn default() -> Self {
        DdpConfig {
            world: 4,
            epochs: 1,
            batch_size: 4,
            base_lr: 3e-3,
            schedule: LrSchedule::Constant,
            grad_clip: Some(5.0),
            loss: LossConfig::default(),
            adam: AdamHyper::default(),
            seed: 0,
            checkpointing: false,
            zero: false,
            cost: CostModel::default(),
            bucket_size: None,
            prefetch_depth: 0,
            overlap_comm: false,
            comm_timeout: crate::DEFAULT_COMM_TIMEOUT,
            checkpoint_dir: None,
            checkpoint_every: 1,
            resume: false,
            fault_plan: FaultPlan::none(),
            max_recoveries: 3,
            supervise: None,
            keep_checkpoints: 0,
            progress_deadline: None,
        }
    }
}

/// Per-rank outcome of a DDP run.
#[derive(Debug, Clone)]
pub struct RankStats {
    /// Rank index at launch (stable across elastic re-forms).
    pub rank: usize,
    /// Peak tracked bytes on this rank.
    pub peak_total: u64,
    /// Breakdown at the peak instant.
    pub peak: MemoryBreakdown,
    /// Collective traffic.
    pub comm: CommStats,
    /// Rank wall time.
    pub wall: Duration,
    /// Whether this rank died (injected kill, or hang caught by the
    /// watchdog) before finishing.
    pub killed: bool,
    /// Recovery cycles (re-form + checkpoint reload) this rank ran.
    pub recoveries: usize,
    /// Transient shard-fetch I/O errors this rank retried through.
    pub io_retries: usize,
    /// Supervisor rollbacks (anomaly → checkpoint restore) this rank ran.
    pub rollbacks: usize,
    /// Whether this rank's hang watchdog fired (it stalled past the
    /// progress deadline and was cut from the group).
    pub watchdog_fired: bool,
}

/// Outcome of [`train_ddp`].
#[derive(Debug, Clone)]
pub struct DdpReport {
    /// Mean training loss per epoch (averaged over ranks and steps).
    pub epoch_loss: Vec<f64>,
    /// Per-rank statistics (launch ranks, including killed ones).
    pub ranks: Vec<RankStats>,
    /// Optimization steps taken (per surviving rank).
    pub steps: usize,
    /// Longest rank wall time.
    pub wall: Duration,
    /// Recovery cycles the surviving ranks ran (max over ranks).
    pub recoveries: usize,
    /// World size at completion (smaller than `DdpConfig::world` if
    /// ranks died and the group re-formed elastically).
    pub final_world: usize,
    /// Launch ranks that died during the run.
    pub failed_ranks: Vec<usize>,
    /// Supervisor rollbacks the run took (max over ranks; the verdict is
    /// consensus, so surviving ranks agree).
    pub rollbacks: usize,
}

impl DdpReport {
    /// Mean wall time per optimization step.
    pub fn mean_step_wall(&self) -> Duration {
        if self.steps == 0 {
            Duration::ZERO
        } else {
            self.wall / self.steps as u32
        }
    }
}

/// Flattens aligned gradient tensors into one vector (collective layout).
pub fn flatten_tensors(tensors: &[Tensor]) -> Vec<f32> {
    let n: usize = tensors.iter().map(|t| t.numel()).sum();
    let mut out = Vec::with_capacity(n);
    for t in tensors {
        out.extend_from_slice(t.data());
    }
    out
}

/// Splits a flat vector back into tensors shaped like `template`.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn unflatten_like(flat: &[f32], template: &[Tensor]) -> Vec<Tensor> {
    let total: usize = template.iter().map(|t| t.numel()).sum();
    assert_eq!(flat.len(), total, "flat buffer length mismatch");
    let mut out = Vec::with_capacity(template.len());
    let mut offset = 0;
    for t in template {
        let n = t.numel();
        out.push(
            Tensor::from_vec(t.shape().clone(), flat[offset..offset + n].to_vec())
                .expect("unflatten shape"),
        );
        offset += n;
    }
    out
}

/// The deterministic sample order for `epoch` (identical on every rank,
/// and identical before and after a checkpoint resume).
fn epoch_order(len: usize, seed: u64, epoch: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let shuffle = seed ^ epoch.wrapping_mul(0x9E37_79B9);
    Rng::seed_from_u64(shuffle).shuffle(&mut order);
    order
}

/// One gradient bucket of the overlapped all-reduce: the params packed
/// into it (index + float offset) and its total float count.
struct BucketSpec {
    params: Vec<(usize, usize)>,
    floats: usize,
}

/// How the overlapped pipeline carves the gradient into comm units.
enum OverlapPlan {
    /// Replicated Adam: greedy reverse-order buckets, all-reduced (mean).
    Buckets {
        buckets: Vec<BucketSpec>,
        /// param index → (bucket index, float offset in the bucket).
        locate: Vec<(usize, usize)>,
    },
    /// ZeRO-1: one bucket per rank's [`shard_range`] of the flat
    /// gradient, reduce-summed to the shard owner.
    Shards {
        /// param index → float offset in the flat gradient.
        param_offsets: Vec<usize>,
        n_params: usize,
    },
}

/// Packs params into buckets of at most `cap` floats, walking in
/// **reverse** param order: backward finalizes later-used params first,
/// so reverse-order buckets tend to complete (and ship) while earlier
/// layers are still differentiating. Order is a heuristic only —
/// submission is forced in-order, so a misprediction costs overlap, not
/// correctness.
fn plan_buckets(sizes: &[usize], cap: usize) -> (Vec<BucketSpec>, Vec<(usize, usize)>) {
    let cap = cap.max(1);
    let mut buckets: Vec<BucketSpec> = Vec::new();
    let mut cur = BucketSpec {
        params: Vec::new(),
        floats: 0,
    };
    for p in (0..sizes.len()).rev() {
        if cur.floats > 0 && cur.floats + sizes[p] > cap {
            buckets.push(std::mem::replace(
                &mut cur,
                BucketSpec {
                    params: Vec::new(),
                    floats: 0,
                },
            ));
        }
        cur.params.push((p, cur.floats));
        cur.floats += sizes[p];
    }
    if !cur.params.is_empty() {
        buckets.push(cur);
    }
    let mut locate = vec![(0usize, 0usize); sizes.len()];
    for (b, spec) in buckets.iter().enumerate() {
        for &(p, off) in &spec.params {
            locate[p] = (b, off);
        }
    }
    (buckets, locate)
}

/// A reduction job handed to the communication thread.
struct BucketJob {
    id: u64,
    /// `None` → all-reduce (mean); `Some(r)` → reduce (sum) to rank `r`.
    root: Option<usize>,
    buf: Vec<f32>,
}

struct BucketResult {
    buf: Vec<f32>,
    err: Option<CommError>,
}

/// Per-rank overlapped-reduction pipeline: a dedicated communication
/// thread owning a [`crate::BucketComm`], fed bucket jobs as backward
/// finalizes them. Lives for one `run_until_done` call (re-created after
/// an elastic re-form so it tracks the current group) and is torn down
/// with [`finish`](Self::finish), which folds the comm thread's traffic
/// and the accumulated overlap credit back into the rank's
/// [`Communicator`].
struct OverlapPipeline {
    jobs: Option<mpsc::Sender<BucketJob>>,
    results: mpsc::Receiver<BucketResult>,
    handle: Option<std::thread::JoinHandle<CommStats>>,
    plan: Arc<OverlapPlan>,
    /// Recycled bucket buffers (zero steady-state allocation).
    spare: Vec<Vec<f32>>,
    next_id: u64,
    inflight: usize,
    cost: CostModel,
    world: usize,
    /// Modeled comm seconds hidden behind backward, applied at `finish`.
    overlap_credit: f64,
}

impl OverlapPipeline {
    /// Builds the pipeline for `comm`'s group, or `None` when overlap is
    /// inactive (flag unset, gradient clipping on, or world of one).
    fn create(comm: &Communicator, cfg: &DdpConfig, sizes: &[usize]) -> Option<OverlapPipeline> {
        if !cfg.overlap_comm || cfg.grad_clip.is_some() || comm.world() < 2 {
            return None;
        }
        let plan = if cfg.zero {
            let mut param_offsets = Vec::with_capacity(sizes.len());
            let mut acc = 0usize;
            for &s in sizes {
                param_offsets.push(acc);
                acc += s;
            }
            OverlapPlan::Shards {
                param_offsets,
                n_params: acc,
            }
        } else {
            let cap = cfg.bucket_size.unwrap_or(DEFAULT_OVERLAP_BUCKET_FLOATS);
            let (buckets, locate) = plan_buckets(sizes, cap);
            OverlapPlan::Buckets { buckets, locate }
        };
        let mut bc = comm.bucket_handle();
        let (jobs_tx, jobs_rx) = mpsc::channel::<BucketJob>();
        let (results_tx, results_rx) = mpsc::channel::<BucketResult>();
        // The comm thread works on this rank's behalf: tag its telemetry
        // events with the spawning rank so traces attribute bucket
        // reductions to the right process lane; it also adopts the
        // rank's runtime scope.
        let telemetry_rank = matgnn_telemetry::rank_raw();
        let runtime = runtime::scope_raw();
        let handle = std::thread::Builder::new()
            .name("matgnn-grad-comm".into())
            .spawn(move || {
                matgnn_telemetry::set_rank_raw(telemetry_rank);
                let _runtime = runtime.map(Runtime::enter);
                for mut job in jobs_rx {
                    let err = match job.root {
                        None => bc.all_reduce_mean_bucket(job.id, &mut job.buf).err(),
                        Some(r) => bc.reduce_sum_bucket(job.id, &mut job.buf, r).err(),
                    };
                    if results_tx.send(BucketResult { buf: job.buf, err }).is_err() {
                        break;
                    }
                }
                bc.stats()
            })
            .expect("spawn gradient communication thread");
        Some(OverlapPipeline {
            jobs: Some(jobs_tx),
            results: results_rx,
            handle: Some(handle),
            plan: Arc::new(plan),
            spare: Vec::new(),
            next_id: 0,
            inflight: 0,
            cost: comm.cost_model(),
            world: comm.world(),
            overlap_credit: 0.0,
        })
    }

    /// A recycled buffer resized to `n` floats (contents arbitrary — the
    /// caller overwrites every element).
    fn take_buf(&mut self, n: usize) -> Vec<f32> {
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.resize(n, 0.0);
        buf
    }

    /// Hands a bucket to the communication thread. Every rank must submit
    /// the same sequence of buckets (enforced by in-order submission at
    /// the call sites).
    fn submit(&mut self, root: Option<usize>, buf: Vec<f32>) {
        let _span = matgnn_telemetry::span("comm.bucket_submit");
        let id = self.next_id;
        self.next_id += 1;
        self.inflight += 1;
        // A send can only fail if the worker died; the matching recv in
        // `collect` reports that as `Poisoned`.
        if let Some(jobs) = &self.jobs {
            let _ = jobs.send(BucketJob { id, root, buf });
        }
    }

    /// Waits for every in-flight bucket, returning the reduced buffers in
    /// submission order. Any bucket failure (or a dead worker) surfaces
    /// as the first error after all results are drained.
    fn collect(&mut self) -> Result<Vec<Vec<f32>>, CommError> {
        let _span = matgnn_telemetry::span("comm.wait");
        let n = std::mem::take(&mut self.inflight);
        let mut bufs = Vec::with_capacity(n);
        let mut first_err = None;
        for _ in 0..n {
            match self.results.recv() {
                Ok(res) => {
                    if first_err.is_none() {
                        first_err = res.err;
                    }
                    bufs.push(res.buf);
                }
                Err(_) => return Err(first_err.unwrap_or(CommError::Poisoned)),
            }
        }
        match first_err {
            Some(err) => Err(err),
            None => Ok(bufs),
        }
    }

    /// Credits the modeled link time of this step's buckets that fits
    /// before `t_bwd_end` (the end of backward) as overlapped. The link
    /// is modeled as serial: bucket `b` starts at
    /// `max(handoff_b, finish_{b-1})` and takes its ring-traffic time
    /// from the group cost model — the same accounting its collective
    /// recorded, so the credit can never exceed the modeled total.
    fn credit_step(
        &mut self,
        handoffs: &[Instant],
        floats: &[usize],
        reduce_to_root: bool,
        t_bwd_end: Instant,
    ) {
        let Some(&t0) = handoffs.first() else { return };
        let w = self.world as u64;
        let bwd = t_bwd_end.saturating_duration_since(t0).as_secs_f64();
        let mut link_free = 0.0f64;
        for (h, &f) in handoffs.iter().zip(floats) {
            let payload = (f * 4) as u64;
            let transferred = if reduce_to_root {
                payload * (w - 1) / w
            } else {
                payload * 2 * (w - 1) / w
            };
            let modeled = self.cost.seconds(transferred);
            let start = h.saturating_duration_since(t0).as_secs_f64().max(link_free);
            let finish = start + modeled;
            self.overlap_credit += (bwd.min(finish) - start).max(0.0);
            link_free = finish;
        }
    }

    /// Shuts the communication thread down and folds its traffic plus the
    /// accumulated overlap credit into `comm`'s statistics.
    fn finish(mut self, comm: &mut Communicator) {
        drop(self.jobs.take());
        if let Some(handle) = self.handle.take() {
            if let Ok(stats) = handle.join() {
                comm.absorb(stats);
            }
        }
        comm.credit_overlap(self.overlap_credit);
    }
}

/// Mutable per-rank training state — everything the recovery path must
/// rebuild from a checkpoint (or from scratch).
struct RankState<M> {
    replica: M,
    full_adam: Option<Adam>,
    zero_adam: Option<ZeroAdam>,
    epoch: u64,
    step_in_epoch: u64,
    global_step: u64,
    loss_acc: f64,
    loss_count: u64,
    epoch_loss: Vec<f64>,
}

/// Why a rank left the training loop.
enum RankExit {
    /// Injected kill: the rank poisoned the group and died.
    Killed,
    /// Injected hang: the rank stalled until its own watchdog poisoned
    /// the group, then died. Peers recover elastically without it.
    Hung,
    /// A collective failed; the caller decides whether to recover. The
    /// error is kept for debuggability (`Debug`-printed on give-up paths
    /// in tests) even though the recovery path treats all causes alike.
    Comm(#[allow(dead_code)] CommError),
    /// The supervisor's consensus verdict flagged a numerical anomaly;
    /// every rank takes this exit on the same step and the caller rolls
    /// back to the last good checkpoint. The group is *not* poisoned.
    Anomaly,
}

impl From<CommError> for RankExit {
    fn from(e: CommError) -> Self {
        RankExit::Comm(e)
    }
}

/// Per-rank supervision state, threaded through [`run_until_done`] so it
/// survives rollbacks (the detector must remember which steps it has
/// already judged, and the budget must keep counting across retries).
struct Supervision {
    detector: AnomalyDetector,
    budget: RollbackBudget,
    /// Step of the checkpoint the last rollback restored — pinned against
    /// pruning until the run ends.
    anchor: Option<u64>,
    /// Steps whose spike verdict already forced one rollback. Replay is
    /// bitwise-deterministic and the loss reading precedes the optimizer
    /// update, so a spike that recurs on re-execution is the run's true
    /// trajectory, not transient corruption — it is accepted the second
    /// time instead of burning the budget in a rollback livelock.
    /// (NaN/Inf stays anomalous on every encounter: the backed-off LR
    /// changes the *following* update, so those retries can converge.)
    spike_rollbacks: HashSet<u64>,
    /// `(global_step, this rank's loss accumulator)` at the last
    /// checkpoint boundary. Checkpoints store rank 0's local loss
    /// bookkeeping; restoring that on every rank would skew the
    /// rank-averaged epoch loss, so a rollback restores each rank's own
    /// shadowed accumulator instead.
    loss_shadow: Option<(u64, f64)>,
}

impl Supervision {
    fn new(cfg: &SupervisorConfig) -> Supervision {
        Supervision {
            detector: AnomalyDetector::new(cfg),
            budget: RollbackBudget::new(*cfg),
            anchor: None,
            spike_rollbacks: HashSet::new(),
            loss_shadow: None,
        }
    }
}

/// What the fault injector plants into the current step's numerics.
#[derive(Clone, Copy, PartialEq)]
enum Inject {
    /// Poison the first gradient value with NaN before reduction.
    NanGrad,
    /// Scale the local loss (post-step, pre-supervision) by this factor.
    Spike(u32),
}

/// Applies a [`Inject::Spike`] to a step's local loss (identity for any
/// other injection). The gradients are untouched — the spike simulates a
/// corrupted *reading*, and the supervisor must catch it from the loss
/// stream alone.
fn apply_spike(loss: f64, inject: Option<Inject>) -> f64 {
    match inject {
        Some(Inject::Spike(factor)) => loss * factor as f64,
        _ => loss,
    }
}

fn fresh_state<M: GnnModel + Clone>(
    proto: &M,
    cfg: &DdpConfig,
    rank: usize,
    world: usize,
    n_params: usize,
    tracker: &MemoryTracker,
) -> RankState<M> {
    let replica = proto.clone();
    let full_adam =
        (!cfg.zero).then(|| Adam::new(replica.params(), cfg.adam, Some(tracker.clone())));
    let zero_adam = cfg
        .zero
        .then(|| ZeroAdam::new(n_params, rank, world, cfg.adam, Some(tracker.clone())));
    RankState {
        replica,
        full_adam,
        zero_adam,
        epoch: 0,
        step_in_epoch: 0,
        global_step: 0,
        loss_acc: 0.0,
        loss_count: 0,
        epoch_loss: Vec::new(),
    }
}

/// Restores rank state from a checkpoint, re-sharding optimizer state for
/// the (possibly different) current world size.
fn restore_state<M: GnnModel + Clone>(
    st: &mut RankState<M>,
    ckpt: &TrainCheckpoint,
    cfg: &DdpConfig,
    rank: usize,
    world: usize,
    n_params: usize,
    tracker: &MemoryTracker,
) {
    let flat = ckpt.params.flatten();
    st.replica.params_mut().unflatten_from(&flat);
    if cfg.zero {
        st.zero_adam = Some(ZeroAdam::from_full_state(
            n_params,
            rank,
            world,
            cfg.adam,
            Some(tracker.clone()),
            &ckpt.adam.m,
            &ckpt.adam.v,
            ckpt.adam.t,
        ));
    } else {
        let mut adam = Adam::new(st.replica.params(), cfg.adam, Some(tracker.clone()));
        adam.restore_state(&ckpt.adam);
        st.full_adam = Some(adam);
    }
    st.epoch = ckpt.epoch;
    st.step_in_epoch = ckpt.step_in_epoch;
    st.global_step = ckpt.global_step;
    st.loss_acc = ckpt.loss_acc;
    st.loss_count = ckpt.loss_count;
    // Entries for completed epochs survive; the in-progress epoch reruns.
    st.epoch_loss.truncate(ckpt.epoch as usize);
}

/// One training step with backward-overlapped gradient reduction: the
/// early-gradient sink copies each finalized gradient into its bucket and
/// hands completed buckets (in plan order) to the communication thread
/// while backward keeps running; the optimizer step then waits only for
/// whatever communication is still in flight. Arithmetic is bitwise
/// identical to the unoverlapped step — same per-element accumulation
/// order, same Adam update — only the wall-clock placement of the
/// collectives moves.
#[allow(clippy::too_many_arguments)]
fn overlapped_step<M: GnnModel + Clone>(
    st: &mut RankState<M>,
    comm: &mut Communicator,
    cfg: &DdpConfig,
    batch: &GraphBatch,
    targets: &Targets,
    tracker: &MemoryTracker,
    lr: f32,
    pipe: &mut OverlapPipeline,
    inject: Option<Inject>,
) -> Result<f64, CommError> {
    // Fault injection: NaN goes into the first gradient backward hands to
    // the sink (before any reduction ships), exactly mirroring the
    // unoverlapped path's poisoned flat[0].
    let mut poison_next_grad = inject == Some(Inject::NanGrad);
    let plan = Arc::clone(&pipe.plan);
    let n_scalars = st.replica.params().n_scalars();
    let flat_bytes = (n_scalars * 4) as u64;
    match &*plan {
        OverlapPlan::Buckets { buckets, locate } => {
            let n_buckets = buckets.len();
            let mut bufs: Vec<Vec<f32>> = buckets.iter().map(|b| pipe.take_buf(b.floats)).collect();
            let mut remaining: Vec<usize> = buckets.iter().map(|b| b.params.len()).collect();
            let mut handoffs = Vec::with_capacity(n_buckets);
            let mut next_submit = 0usize;
            let loss = {
                let mut sink = |p: usize, g: Tensor| {
                    let (b, off) = locate[p];
                    bufs[b][off..off + g.numel()].copy_from_slice(g.data());
                    if std::mem::take(&mut poison_next_grad) {
                        bufs[b][off] = f32::NAN;
                    }
                    remaining[b] -= 1;
                    while next_submit < n_buckets && remaining[next_submit] == 0 {
                        let buf = std::mem::take(&mut bufs[next_submit]);
                        pipe.submit(None, buf);
                        handoffs.push(Instant::now());
                        next_submit += 1;
                    }
                };
                train_step_with_sink(
                    &st.replica,
                    batch,
                    targets,
                    &cfg.loss,
                    cfg.checkpointing,
                    Some(tracker),
                    &mut sink,
                )
            };
            let t_bwd_end = Instant::now();
            debug_assert_eq!(next_submit, n_buckets, "backward left buckets unsubmitted");
            tracker.alloc(MemoryCategory::Gradients, flat_bytes);
            let step_result: Result<(), CommError> = (|| {
                let reduced = pipe.collect()?;
                let flatten = matgnn_telemetry::span("flatten");
                let floats: Vec<usize> = buckets.iter().map(|b| b.floats).collect();
                pipe.credit_step(&handoffs, &floats, false, t_bwd_end);
                let params = st.replica.params();
                let grads: Vec<Tensor> = (0..params.len())
                    .map(|p| {
                        let (b, off) = locate[p];
                        let t = params.tensor(p);
                        Tensor::from_vec(
                            t.shape().clone(),
                            reduced[b][off..off + t.numel()].to_vec(),
                        )
                        .expect("bucket gradient shape")
                    })
                    .collect();
                drop(flatten);
                let _span = matgnn_telemetry::span("optimizer");
                st.full_adam
                    .as_mut()
                    .expect("full adam")
                    .step(st.replica.params_mut(), &grads, lr);
                drop(grads);
                pipe.spare.extend(reduced);
                Ok(())
            })();
            tracker.free(MemoryCategory::Gradients, flat_bytes);
            step_result?;
            Ok(apply_spike(loss, inject))
        }
        OverlapPlan::Shards {
            param_offsets,
            n_params,
        } => {
            let world = comm.world();
            let my_rank = comm.rank();
            let ranges: Vec<(usize, usize)> = (0..world)
                .map(|r| shard_range(*n_params, world, r))
                .collect();
            let mut flat = pipe.take_buf(*n_params);
            let mut remaining: Vec<usize> = ranges.iter().map(|&(s, e)| e - s).collect();
            let mut handoffs = Vec::with_capacity(world);
            let mut next_submit = 0usize;
            let loss = {
                let mut sink = |p: usize, g: Tensor| {
                    let off = param_offsets[p];
                    let n = g.numel();
                    flat[off..off + n].copy_from_slice(g.data());
                    if std::mem::take(&mut poison_next_grad) {
                        flat[off] = f32::NAN;
                    }
                    for (s, &(s0, s1)) in ranges.iter().enumerate() {
                        let overlap = (off + n).min(s1).saturating_sub(off.max(s0));
                        if overlap > 0 {
                            remaining[s] -= overlap;
                        }
                    }
                    while next_submit < world && remaining[next_submit] == 0 {
                        let (s0, s1) = ranges[next_submit];
                        let mut buf = pipe.take_buf(s1 - s0);
                        buf.copy_from_slice(&flat[s0..s1]);
                        pipe.submit(Some(next_submit), buf);
                        handoffs.push(Instant::now());
                        next_submit += 1;
                    }
                };
                train_step_with_sink(
                    &st.replica,
                    batch,
                    targets,
                    &cfg.loss,
                    cfg.checkpointing,
                    Some(tracker),
                    &mut sink,
                )
            };
            let t_bwd_end = Instant::now();
            debug_assert_eq!(next_submit, world, "backward left shards unsubmitted");
            tracker.alloc(MemoryCategory::Gradients, flat_bytes);
            let step_result: Result<(), CommError> = (|| {
                let mut reduced = pipe.collect()?;
                let flatten = matgnn_telemetry::span("flatten");
                let floats: Vec<usize> = ranges.iter().map(|&(s, e)| e - s).collect();
                pipe.credit_step(&handoffs, &floats, true, t_bwd_end);
                // Only the owner's buffer holds a reduction; hand it to
                // the decomposed ZeRO step (scale + Adam + all-gather).
                let own = std::mem::take(&mut reduced[my_rank]);
                let mut params = st.replica.params().flatten().to_vec();
                drop(flatten);
                {
                    let _span = matgnn_telemetry::span("optimizer");
                    st.zero_adam
                        .as_mut()
                        .expect("zero adam")
                        .step_with_reduced_shard(comm, &mut params, own, lr)?;
                }
                let _span = matgnn_telemetry::span("flatten");
                let flat_t = Tensor::from_vec(params.len(), params).expect("flat params");
                st.replica.params_mut().unflatten_from(&flat_t);
                pipe.spare.extend(reduced);
                Ok(())
            })();
            tracker.free(MemoryCategory::Gradients, flat_bytes);
            pipe.spare.push(flat);
            step_result?;
            Ok(apply_spike(loss, inject))
        }
    }
}

/// Runs the remaining epochs/steps until training completes or a fault
/// interrupts it. On `Err`, `st` holds the state reached so far and the
/// caller owns recovery.
#[allow(clippy::too_many_arguments)]
fn run_until_done<M: GnnModel + Clone>(
    st: &mut RankState<M>,
    comm: &mut Communicator,
    cfg: &DdpConfig,
    train: &Dataset,
    normalizer: &Normalizer,
    tracker: &MemoryTracker,
    launch_rank: usize,
    io_retries: &mut usize,
    mut pipeline: Option<&mut OverlapPipeline>,
    mut sup: Option<&mut Supervision>,
    injected: &mut HashSet<u64>,
) -> Result<(), RankExit> {
    while (st.epoch as usize) < cfg.epochs {
        let order = epoch_order(train.len(), cfg.seed, st.epoch);
        let world = comm.world();
        let steps_per_epoch = train.len() / (world * cfg.batch_size);
        assert!(
            steps_per_epoch > 0,
            "training set of {} graphs is smaller than one global batch of {}",
            train.len(),
            world * cfg.batch_size
        );
        // Decode this rank's remaining batches of the epoch ahead of the
        // training loop. The producer replays the exact synchronous fetch
        // — same order slice, same injected-I/O retry (`FaultPlan::check`
        // is pure) — merely earlier in wall time, so any depth is bitwise
        // identical. Kill/delay faults stay on the training thread, where
        // step boundaries are.
        let mut prefetcher = (cfg.prefetch_depth > 0).then(|| {
            let ds = train.clone(); // O(1): samples are Arc-shared
            let norm = *normalizer;
            let order = order.clone();
            let plan = cfg.fault_plan.clone();
            let batch_size = cfg.batch_size;
            let rank = comm.rank();
            let start_step = st.step_in_epoch as usize;
            let gs0 = st.global_step;
            Prefetcher::spawn(cfg.prefetch_depth, move |feed| {
                for step in start_step..steps_per_epoch {
                    let gs = gs0 + (step - start_step) as u64;
                    let mut retries = 0usize;
                    if matches!(plan.check(launch_rank, gs), Some(FaultKind::IoError)) {
                        retries += 1;
                        std::thread::sleep(BACKOFF_BASE);
                    }
                    let base = step * world * batch_size + rank * batch_size;
                    let samples: Vec<&Sample> = order[base..base + batch_size]
                        .iter()
                        .map(|&i| ds.sample(i))
                        .collect();
                    let (batch, targets) = collate(&samples, &norm);
                    if !feed.send((batch, targets, retries)) {
                        return;
                    }
                }
            })
        });
        while (st.step_in_epoch as usize) < steps_per_epoch {
            matgnn_telemetry::set_step(st.global_step);
            // Step progress: restart the hang watchdog's staleness clock.
            if let Some(hb) = comm.heartbeat() {
                hb.beat();
            }
            // Injected faults fire at step boundaries, keyed by launch
            // rank so a plan means the same thing after re-forms.
            let mut inject = None;
            match cfg.fault_plan.check(launch_rank, st.global_step) {
                Some(FaultKind::Kill) => {
                    comm.mark_failed();
                    return Err(RankExit::Killed);
                }
                Some(FaultKind::Delay(d)) => std::thread::sleep(d),
                Some(FaultKind::Hang) => {
                    // Stop making progress without declaring anything:
                    // exactly what a wedged rank looks like from outside.
                    // The rank's own watchdog must notice the stale
                    // heartbeat, poison the group, and cut this rank out;
                    // only then does the thread fold.
                    loop {
                        if comm.is_poisoned() {
                            return Err(RankExit::Hung);
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
                // Numerical faults fire once per (rank, step): after the
                // supervisor rolls the run back, the retry executes the
                // same step clean — a transient corruption, which is what
                // makes the recovered trajectory bitwise-comparable to an
                // undisturbed run.
                Some(FaultKind::NanGrad) => {
                    if injected.insert(st.global_step) {
                        inject = Some(Inject::NanGrad);
                    }
                }
                Some(FaultKind::SpikeLoss(factor)) => {
                    if injected.insert(st.global_step) {
                        inject = Some(Inject::Spike(factor));
                    }
                }
                Some(FaultKind::IoError) | None => {} // I/O handled at fetch below
            }

            let data_span = matgnn_telemetry::span("data.load");
            let (batch, targets) = match prefetcher.as_mut() {
                Some(p) => {
                    let (batch, targets, retries) =
                        p.next().expect("prefetch producer ended early");
                    *io_retries += retries;
                    (batch, targets)
                }
                None => {
                    let step = st.step_in_epoch as usize;
                    let base = step * world * cfg.batch_size + comm.rank() * cfg.batch_size;
                    // Shard fetch with bounded-backoff retry of transient
                    // I/O errors; the injector fails the first read
                    // attempt the way a flaky shard-store read would.
                    let mut attempt = 0usize;
                    let samples: Vec<&Sample> = loop {
                        if attempt == 0
                            && matches!(
                                cfg.fault_plan.check(launch_rank, st.global_step),
                                Some(FaultKind::IoError)
                            )
                        {
                            attempt += 1;
                            *io_retries += 1;
                            std::thread::sleep(BACKOFF_BASE);
                            continue;
                        }
                        break order[base..base + cfg.batch_size]
                            .iter()
                            .map(|&i| train.sample(i))
                            .collect();
                    };
                    collate(&samples, normalizer)
                }
            };
            drop(data_span);
            let _step_span = matgnn_telemetry::span("step");
            // Retries after repeated consecutive rollbacks run with the
            // LR backed off (1.0 on the first retry, so a transient
            // anomaly recovers bitwise-identically to a clean run).
            let lr_factor = sup.as_deref().map_or(1.0, |s| s.budget.retry_lr_factor());
            let lr = cfg.schedule.lr(cfg.base_lr, st.global_step as usize) * lr_factor;

            let loss = if let Some(pipe) = pipeline.as_deref_mut() {
                overlapped_step(st, comm, cfg, &batch, &targets, tracker, lr, pipe, inject)?
            } else {
                let mut outcome = train_step(
                    &st.replica,
                    &batch,
                    &targets,
                    &cfg.loss,
                    cfg.checkpointing,
                    Some(tracker),
                );
                if let Some(max_norm) = cfg.grad_clip {
                    let _span = matgnn_telemetry::span("clip");
                    let _ = clip_grad_norm(&mut outcome.grads, max_norm);
                }
                let flatten = matgnn_telemetry::span("flatten");
                let mut flat = flatten_tensors(&outcome.grads);
                if inject == Some(Inject::NanGrad) {
                    // Poison one local gradient value pre-reduction: the
                    // all-reduce spreads the NaN to every replica's
                    // parameters, which is what the supervisor's
                    // post-step finiteness probe is built to catch.
                    flat[0] = f32::NAN;
                }
                let flat_bytes = (flat.len() * 4) as u64;
                tracker.alloc(MemoryCategory::Gradients, flat_bytes);
                drop(flatten);
                let step_result: Result<(), CommError> = (|| {
                    if let Some(zero) = st.zero_adam.as_mut() {
                        let _span = matgnn_telemetry::span("optimizer");
                        let mut params = st.replica.params().flatten().to_vec();
                        zero.step(comm, &mut params, &flat, lr)?;
                        let flat_t = Tensor::from_vec(params.len(), params).expect("flat params");
                        st.replica.params_mut().unflatten_from(&flat_t);
                    } else {
                        match cfg.bucket_size {
                            Some(bucket) if bucket > 0 => {
                                for chunk in flat.chunks_mut(bucket) {
                                    comm.all_reduce_mean(chunk)?;
                                }
                            }
                            _ => comm.all_reduce_mean(&mut flat)?,
                        }
                        let _span = matgnn_telemetry::span("optimizer");
                        let grads = unflatten_like(&flat, &outcome.grads);
                        st.full_adam.as_mut().expect("full adam").step(
                            st.replica.params_mut(),
                            &grads,
                            lr,
                        );
                    }
                    Ok(())
                })();
                let _span = matgnn_telemetry::span("bookkeeping");
                tracker.free(MemoryCategory::Gradients, flat_bytes);
                drop((flat, outcome.grads));
                step_result?;
                apply_spike(outcome.loss, inject)
            };
            let bookkeeping = matgnn_telemetry::span("bookkeeping");

            // Detect → decide: judge the local loss and post-step
            // parameters, then reach a group-wide verdict through a
            // 1-element sum all-reduce (any rank's flag trips every
            // rank), so the rollback decision is collective and
            // deterministic. Runs before the step is committed — an
            // anomalous step must leave no trace in the loss accumulator
            // or the checkpoint stream.
            if let Some(s) = sup.as_deref_mut() {
                let verdict = s.detector.observe(st.global_step, loss);
                let flat_params = st.replica.params().flatten();
                // A spiked step gets exactly one rollback; recurring
                // identically on replay, it is accepted as genuine.
                let spike = verdict == Verdict::Spike && s.spike_rollbacks.insert(st.global_step);
                let anomalous =
                    verdict == Verdict::NonFinite || spike || !params_finite(flat_params.data());
                if anomalous {
                    matgnn_telemetry::health_event(
                        "supervisor.anomaly",
                        &format!(
                            "step {}: verdict {:?}, loss {loss}, params_finite {}",
                            st.global_step,
                            verdict,
                            params_finite(flat_params.data()),
                        ),
                    );
                    matgnn_telemetry::counter_add("supervisor.anomaly", 1);
                }
                let mut flag = [if anomalous { 1.0f32 } else { 0.0 }];
                comm.all_reduce_sum(&mut flag)?;
                if flag[0] > 0.0 {
                    return Err(RankExit::Anomaly);
                }
                s.budget.record_healthy_step();
            }

            st.loss_acc += loss;
            st.loss_count += 1;
            st.step_in_epoch += 1;
            st.global_step += 1;
            drop(bookkeeping);

            if let Some(dir) = &cfg.checkpoint_dir {
                if cfg.checkpoint_every > 0
                    && st.global_step.is_multiple_of(cfg.checkpoint_every as u64)
                {
                    let _span = matgnn_telemetry::span("checkpoint.save");
                    // World-independent optimizer state: gather ZeRO
                    // shards (a collective — every rank participates).
                    let adam_state = if let Some(zero) = st.zero_adam.as_ref() {
                        let (m, v, t) = zero.gather_state(comm)?;
                        AdamState { m, v, t }
                    } else {
                        st.full_adam.as_ref().expect("full adam").export_state()
                    };
                    if comm.rank() == 0 {
                        let ckpt = TrainCheckpoint {
                            epoch: st.epoch,
                            step_in_epoch: st.step_in_epoch,
                            global_step: st.global_step,
                            seed: cfg.seed,
                            loss_acc: st.loss_acc,
                            loss_count: st.loss_count,
                            params: st.replica.params().clone(),
                            adam: adam_state,
                            normalizer: *normalizer,
                        };
                        // Best-effort durability: training proceeds even
                        // if one checkpoint write fails.
                        let _ = ckpt.save(dir.join(TrainCheckpoint::file_name(st.global_step)));
                        if cfg.keep_checkpoints > 0 {
                            // Retention: drop the oldest checkpoints past
                            // the keep depth, but never the supervisor's
                            // rollback anchor.
                            let anchor = sup.as_deref().and_then(|s| s.anchor);
                            prune_checkpoints(dir, cfg.keep_checkpoints, anchor);
                        }
                    }
                    // The checkpoint carries rank 0's loss bookkeeping;
                    // shadow this rank's own accumulator so a rollback
                    // restores it instead.
                    if let Some(s) = sup.as_deref_mut() {
                        s.loss_shadow = Some((st.global_step, st.loss_acc));
                    }
                }
            }
        }
        // Average the epoch loss across ranks.
        let mut l = vec![(st.loss_acc / st.loss_count.max(1) as f64) as f32];
        comm.all_reduce_mean(&mut l)?;
        st.epoch_loss.push(l[0] as f64);
        st.loss_acc = 0.0;
        st.loss_count = 0;
        st.step_in_epoch = 0;
        st.epoch += 1;
    }
    Ok(())
}

/// Trains `model` with DDP semantics across `cfg.world` simulated ranks;
/// on return `model` holds the lowest surviving rank's (synchronized)
/// final parameters.
///
/// Steps per epoch are `len / (world × batch_size)` (remainder dropped so
/// every rank takes the same number of collective calls; recomputed after
/// an elastic re-form).
///
/// # Panics
///
/// Panics if the training set is smaller than one global batch, or if no
/// rank survives to finish training (every rank killed or out of
/// recovery budget).
pub fn train_ddp<M>(
    model: &mut M,
    train: &Dataset,
    normalizer: &Normalizer,
    cfg: &DdpConfig,
) -> DdpReport
where
    M: GnnModel + Clone + Send + Sync,
{
    let world = cfg.world;
    let global_batch = world * cfg.batch_size;
    assert!(
        train.len() / global_batch > 0,
        "training set of {} graphs is smaller than one global batch of {global_batch}",
        train.len()
    );

    let comms = Communicator::create_with_timeout(world, cfg.cost, cfg.comm_timeout);
    let proto = model.clone();
    let n_params = proto.params().n_scalars();
    let param_sizes: Vec<usize> = (0..proto.params().len())
        .map(|p| proto.params().tensor(p).numel())
        .collect();
    let param_sizes = &param_sizes;

    struct RankOutcome<M> {
        stats: RankStats,
        epoch_loss: Vec<f64>,
        final_world: usize,
        steps: u64,
        model: Option<M>,
    }

    let runtime = runtime::scope_raw(); // every rank adopts the caller's scope
    let outcomes: Vec<RankOutcome<M>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for comm in comms {
            let proto = &proto;
            let train = &train;
            handles.push(scope.spawn(move || {
                let _runtime = runtime.map(Runtime::enter);
                let launch_rank = comm.rank();
                matgnn_telemetry::set_rank(launch_rank);
                let tracker = MemoryTracker::new();
                tracker.alloc(MemoryCategory::Weights, proto.params().bytes());
                let mut st = fresh_state(proto, cfg, launch_rank, cfg.world, n_params, &tracker);
                if cfg.resume {
                    if let Some(dir) = &cfg.checkpoint_dir {
                        if let Some((_, ckpt)) = latest_in(dir) {
                            restore_state(
                                &mut st,
                                &ckpt,
                                cfg,
                                launch_rank,
                                cfg.world,
                                n_params,
                                &tracker,
                            );
                        }
                    }
                }

                let start = Instant::now();
                let mut recoveries = 0usize;
                let mut io_retries = 0usize;
                let mut killed = false;
                let mut survived = true;
                let mut rollbacks = 0usize;
                let mut watchdog_fired = false;
                let mut supervision = cfg.supervise.as_ref().map(Supervision::new);
                let mut injected: HashSet<u64> = HashSet::new();
                // `split_survivors` consumes the communicator, so hold it
                // in an Option and keep the last traffic snapshot in case
                // re-forming fails and the communicator is lost.
                let mut comm = Some(comm);
                // Hang supervision: this rank beats the heartbeat at every
                // step boundary; a dedicated watchdog thread poisons the
                // group if the beat goes stale outside a collective.
                let heartbeat = cfg.progress_deadline.map(|_| Heartbeat::new());
                let mut watchdog = None;
                if let (Some(hb), Some(deadline)) = (&heartbeat, cfg.progress_deadline) {
                    let c = comm.as_mut().expect("live communicator");
                    c.set_heartbeat(Some(Arc::clone(hb)));
                    watchdog = Some(Watchdog::spawn(
                        format!("rank{launch_rank}"),
                        Arc::clone(hb),
                        deadline,
                        c.failure_handle(),
                    ));
                }
                let mut last_stats;
                let mut last_world;
                loop {
                    let c = comm.as_mut().expect("live communicator");
                    // The overlapped-reduction pipeline is bound to the
                    // current group, so it is rebuilt after every elastic
                    // re-form and drained (stats folded back) on every
                    // exit, clean or not.
                    let mut pipeline = OverlapPipeline::create(c, cfg, param_sizes);
                    let res = run_until_done(
                        &mut st,
                        c,
                        cfg,
                        train,
                        normalizer,
                        &tracker,
                        launch_rank,
                        &mut io_retries,
                        pipeline.as_mut(),
                        supervision.as_mut(),
                        &mut injected,
                    );
                    if let Some(p) = pipeline.take() {
                        p.finish(c);
                    }
                    last_stats = c.stats();
                    last_world = c.world();
                    match res {
                        Ok(()) => break,
                        Err(RankExit::Killed) => {
                            killed = true;
                            survived = false;
                            break;
                        }
                        Err(RankExit::Hung) => {
                            // The watchdog already poisoned the group and
                            // flagged this rank dead; peers regroup
                            // without it.
                            killed = true;
                            survived = false;
                            break;
                        }
                        Err(RankExit::Anomaly) => {
                            // Consensus anomaly: every rank reaches this
                            // arm on the same step with the same budget
                            // counts, so the decide/recover path below is
                            // deterministic across the group. The group
                            // itself is healthy — no re-form needed.
                            let s = supervision
                                .as_mut()
                                .expect("anomaly exit only in supervised mode");
                            s.budget.record_anomaly();
                            if s.budget.failed() {
                                matgnn_telemetry::health_event(
                                    "supervisor.failed",
                                    &format!(
                                        "rollback budget exhausted after {} rollbacks; \
                                         abandoning the run",
                                        s.budget.total_rollbacks() - 1
                                    ),
                                );
                                survived = false;
                                break;
                            }
                            rollbacks += 1;
                            let c = comm.as_ref().expect("live communicator");
                            // Roll back: newest durable checkpoint, or the
                            // initial state when durability is off.
                            match cfg.checkpoint_dir.as_ref().and_then(latest_in) {
                                Some((_, ckpt)) => {
                                    s.anchor = Some(ckpt.global_step);
                                    matgnn_telemetry::health_event(
                                        "supervisor.rollback",
                                        &format!(
                                            "restored step {} checkpoint (rollback {} of {})",
                                            ckpt.global_step,
                                            s.budget.total_rollbacks(),
                                            cfg.supervise.as_ref().map_or(0, |sc| sc.max_rollbacks),
                                        ),
                                    );
                                    restore_state(
                                        &mut st,
                                        &ckpt,
                                        cfg,
                                        c.rank(),
                                        c.world(),
                                        n_params,
                                        &tracker,
                                    );
                                    // The checkpoint held rank 0's loss
                                    // accumulator; use this rank's own
                                    // shadow from the same boundary so the
                                    // rank-averaged epoch loss stays
                                    // bitwise-identical to a clean run.
                                    if let Some((step, acc)) = s.loss_shadow {
                                        if step == ckpt.global_step {
                                            st.loss_acc = acc;
                                        }
                                    }
                                }
                                None => {
                                    matgnn_telemetry::health_event(
                                        "supervisor.rollback",
                                        "no checkpoint directory; restarted from initial state",
                                    );
                                    st = fresh_state(
                                        proto,
                                        cfg,
                                        c.rank(),
                                        c.world(),
                                        n_params,
                                        &tracker,
                                    );
                                }
                            }
                            matgnn_telemetry::counter_add("supervisor.rollback", 1);
                            s.budget.record_rolled_back();
                        }
                        Err(RankExit::Comm(_)) => {
                            recoveries += 1;
                            if recoveries > cfg.max_recoveries {
                                survived = false;
                                break;
                            }
                            // Recovery waits on peers (backoff, then the
                            // survivor rendezvous): park the heartbeat so
                            // a survivor's own watchdog cannot mistake
                            // the wait for a stall and poison the group
                            // it is trying to re-form.
                            let _park = heartbeat.clone().map(ParkGuard::new);
                            // Bounded exponential backoff before re-forming.
                            std::thread::sleep(
                                BACKOFF_BASE * (1 << (recoveries - 1).min(4)) as u32,
                            );
                            let old = comm.take().expect("live communicator");
                            match old.split_survivors(cfg.comm_timeout * 4) {
                                Ok(c) => comm = Some(c),
                                Err(_) => {
                                    survived = false;
                                    break;
                                }
                            }
                            let c = comm.as_mut().expect("re-formed communicator");
                            // Re-arm hang supervision for the new group:
                            // the heartbeat carries over, the watchdog is
                            // rebuilt around the new group's failure
                            // handle.
                            if let (Some(hb), Some(deadline)) = (&heartbeat, cfg.progress_deadline)
                            {
                                hb.beat();
                                c.set_heartbeat(Some(Arc::clone(hb)));
                                if let Some(dog) = watchdog.take() {
                                    watchdog_fired |= dog.stop();
                                }
                                watchdog = Some(Watchdog::spawn(
                                    format!("rank{launch_rank}"),
                                    Arc::clone(hb),
                                    deadline,
                                    c.failure_handle(),
                                ));
                            }
                            // Reload the newest durable state; without a
                            // checkpoint dir, training restarts cleanly.
                            match cfg.checkpoint_dir.as_ref().and_then(latest_in) {
                                Some((_, ckpt)) => restore_state(
                                    &mut st,
                                    &ckpt,
                                    cfg,
                                    c.rank(),
                                    c.world(),
                                    n_params,
                                    &tracker,
                                ),
                                None => {
                                    st = fresh_state(
                                        proto,
                                        cfg,
                                        c.rank(),
                                        c.world(),
                                        n_params,
                                        &tracker,
                                    );
                                }
                            }
                        }
                    }
                }
                if let Some(dog) = watchdog.take() {
                    watchdog_fired |= dog.stop();
                }
                if let Some(hb) = &heartbeat {
                    hb.mark_done();
                }
                let wall = start.elapsed();
                if let Some(c) = &comm {
                    last_stats = c.stats();
                    last_world = c.world();
                }
                let steps = st.global_step;
                let epoch_loss = std::mem::take(&mut st.epoch_loss);
                let replica = st.replica.clone();
                drop(st); // frees optimizer-state tracker bytes

                // Fold this rank's end-of-run readings into the shared
                // metrics registry (rank-prefixed: all ranks live in one
                // process) and emit one metrics event per rank.
                matgnn_telemetry::clear_step();
                tracker.publish_telemetry(&format!("ddp.rank{launch_rank}.memory"));
                last_stats.publish_telemetry(&format!("ddp.rank{launch_rank}.comm"));
                matgnn_telemetry::gauge_set(
                    format!("ddp.rank{launch_rank}.wall_us"),
                    wall.as_micros() as f64,
                );
                matgnn_telemetry::counter_set(format!("ddp.rank{launch_rank}.steps"), steps);
                if cfg.supervise.is_some() {
                    matgnn_telemetry::counter_set(
                        format!("supervisor.rank{launch_rank}.rollbacks"),
                        rollbacks as u64,
                    );
                }
                if matgnn_telemetry::enabled() {
                    matgnn_tensor::recycler::publish_telemetry();
                    matgnn_tensor::pool::publish_telemetry();
                    matgnn_tensor::simd::publish_telemetry();
                    matgnn_telemetry::flush_metrics();
                }
                matgnn_telemetry::clear_rank();

                RankOutcome {
                    stats: RankStats {
                        rank: launch_rank,
                        peak_total: tracker.peak_total(),
                        peak: tracker.at_peak(),
                        comm: last_stats,
                        wall,
                        killed,
                        recoveries,
                        io_retries,
                        rollbacks,
                        watchdog_fired,
                    },
                    epoch_loss,
                    final_world: last_world,
                    steps,
                    model: survived.then_some(replica),
                }
            }));
        }
        let mut outs: Vec<RankOutcome<M>> = handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect();
        outs.sort_by_key(|o| o.stats.rank);
        outs
    });

    let survivor = outcomes
        .iter()
        .find(|o| o.model.is_some())
        .expect("no surviving rank finished training");
    let epoch_loss = survivor.epoch_loss.clone();
    let steps = survivor.steps as usize;
    let final_world = survivor.final_world;
    let wall = outcomes
        .iter()
        .map(|o| o.stats.wall)
        .max()
        .unwrap_or_default();
    let recoveries = outcomes
        .iter()
        .map(|o| o.stats.recoveries)
        .max()
        .unwrap_or(0);
    let failed_ranks: Vec<usize> = outcomes
        .iter()
        .filter(|o| o.stats.killed)
        .map(|o| o.stats.rank)
        .collect();
    let rollbacks = outcomes
        .iter()
        .map(|o| o.stats.rollbacks)
        .max()
        .unwrap_or(0);
    let mut ranks = Vec::with_capacity(world);
    let mut final_model = None;
    for o in outcomes {
        if final_model.is_none() {
            if let Some(m) = o.model {
                final_model = Some(m);
            }
        }
        ranks.push(o.stats);
    }
    *model = final_model.expect("no surviving rank finished training");

    let report = DdpReport {
        epoch_loss,
        ranks,
        steps,
        wall,
        recoveries,
        final_world,
        failed_ranks,
        rollbacks,
    };
    ledger_append(model, train, world, &report);
    report
}

/// Appends the finished run's scaling coordinates to the ledger named
/// by `MATGNN_LEDGER`, if set — one env lookup at run end, nothing on
/// the training path.
fn ledger_append<M: GnnModel>(model: &M, train: &Dataset, world: usize, report: &DdpReport) {
    use matgnn_telemetry::ledger;
    if !std::env::var(ledger::ENV_VAR).is_ok_and(|v| !v.is_empty()) {
        return;
    }
    let params = model.params().n_scalars() as u64;
    let atoms_per_epoch: u64 = train.samples().iter().map(|s| s.n_nodes() as u64).sum();
    let atoms_seen = atoms_per_epoch * report.epoch_loss.len() as u64;
    let mut rec = ledger::RunRecord::new("ddp", params, atoms_seen, world);
    rec.steps = report.steps as u64;
    rec.wall_s = report.wall.as_secs_f64();
    rec.loss = report.epoch_loss.last().copied().unwrap_or(f64::NAN);
    rec.curve = report
        .epoch_loss
        .iter()
        .enumerate()
        .map(|(i, l)| {
            (
                ledger::flop_estimate(params, atoms_per_epoch * (i as u64 + 1)),
                *l,
            )
        })
        .collect();
    ledger::append_from_env(&rec);
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgnn_data::GeneratorConfig;
    use matgnn_model::{Egnn, EgnnConfig};

    fn data() -> (Dataset, Normalizer) {
        let ds = Dataset::generate_aggregate(32, 41, &GeneratorConfig::default());
        let norm = Normalizer::fit(&ds);
        (ds, norm)
    }

    #[test]
    fn flatten_roundtrip() {
        let ts = vec![Tensor::ones((2, 3)), Tensor::zeros(4usize)];
        let flat = flatten_tensors(&ts);
        assert_eq!(flat.len(), 10);
        let back = unflatten_like(&flat, &ts);
        assert!(back[0].allclose(&ts[0], 0.0));
        assert!(back[1].allclose(&ts[1], 0.0));
    }

    #[test]
    fn ddp_replicas_stay_synchronized_and_loss_decreases() {
        let (ds, norm) = data();
        let mut model = Egnn::new(EgnnConfig::new(8, 2).with_seed(3));
        let cfg = DdpConfig {
            world: 2,
            epochs: 8,
            batch_size: 4,
            ..Default::default()
        };
        let report = train_ddp(&mut model, &ds, &norm, &cfg);
        assert_eq!(report.epoch_loss.len(), 8);
        let tail = (report.epoch_loss[6] + report.epoch_loss[7]) / 2.0;
        assert!(
            tail < report.epoch_loss[0],
            "DDP loss did not decrease: {:?}",
            report.epoch_loss
        );
        assert_eq!(report.ranks.len(), 2);
        assert_eq!(report.recoveries, 0);
        assert_eq!(report.final_world, 2);
        assert!(report.failed_ranks.is_empty());
    }

    #[test]
    fn zero_matches_full_adam_exactly() {
        // ZeRO-1 is an exact refactoring of Adam: same collective-sum
        // order, same update — final parameters must agree to f32 noise.
        let (ds, norm) = data();
        let run = |zero: bool| {
            let mut model = Egnn::new(EgnnConfig::new(8, 2).with_seed(5));
            let cfg = DdpConfig {
                world: 2,
                epochs: 2,
                batch_size: 4,
                zero,
                ..Default::default()
            };
            let _ = train_ddp(&mut model, &ds, &norm, &cfg);
            model.params().flatten()
        };
        let full = run(false);
        let sharded = run(true);
        assert!(
            full.allclose(&sharded, 1e-5),
            "ZeRO diverged from replicated Adam (max |Δ| = {})",
            full.sub(&sharded).max_abs()
        );
    }

    #[test]
    fn zero_shards_optimizer_state() {
        let (ds, norm) = data();
        let peak_opt = |zero: bool| {
            let mut model = Egnn::new(EgnnConfig::new(16, 3));
            let cfg = DdpConfig {
                world: 4,
                epochs: 1,
                batch_size: 2,
                zero,
                ..Default::default()
            };
            let report = train_ddp(&mut model, &ds, &norm, &cfg);
            report.ranks[0].peak.get(MemoryCategory::OptimizerState)
        };
        let full = peak_opt(false);
        let sharded = peak_opt(true);
        assert!(
            sharded * 3 <= full,
            "ZeRO state not sharded: {sharded} vs {full}"
        );
    }

    #[test]
    fn comm_traffic_recorded() {
        let (ds, norm) = data();
        let mut model = Egnn::new(EgnnConfig::new(8, 2));
        let cfg = DdpConfig {
            world: 2,
            epochs: 1,
            batch_size: 4,
            ..Default::default()
        };
        let report = train_ddp(&mut model, &ds, &norm, &cfg);
        for r in &report.ranks {
            assert!(r.comm.bytes_moved > 0);
            assert!(r.comm.modeled_seconds > 0.0);
        }
        assert!(report.mean_step_wall() > Duration::ZERO);
    }

    #[test]
    fn world_one_runs() {
        let (ds, norm) = data();
        let mut model = Egnn::new(EgnnConfig::new(8, 2));
        let cfg = DdpConfig {
            world: 1,
            epochs: 1,
            batch_size: 4,
            ..Default::default()
        };
        let report = train_ddp(&mut model, &ds, &norm, &cfg);
        assert_eq!(report.ranks.len(), 1);
        assert!(report.epoch_loss[0].is_finite());
    }

    #[test]
    fn bucketed_all_reduce_identical_to_flat() {
        let (ds, norm) = data();
        let run = |bucket_size: Option<usize>| {
            let mut model = Egnn::new(EgnnConfig::new(8, 2).with_seed(7));
            let cfg = DdpConfig {
                world: 2,
                epochs: 2,
                batch_size: 4,
                bucket_size,
                ..Default::default()
            };
            let report = train_ddp(&mut model, &ds, &norm, &cfg);
            (model.params().flatten(), report.ranks[0].comm)
        };
        let (flat_params, flat_comm) = run(None);
        let (bucketed_params, bucketed_comm) = run(Some(500));
        // Same arithmetic, same order within each element → identical.
        assert!(
            flat_params.allclose(&bucketed_params, 0.0),
            "bucketing changed results"
        );
        // Bucketing means more collectives for the same bytes.
        assert!(bucketed_comm.collectives > flat_comm.collectives);
        assert!(bucketed_comm.modeled_seconds > flat_comm.modeled_seconds);
    }

    #[test]
    fn bucket_plan_covers_every_param_once() {
        let sizes = [100, 7, 8192, 1, 40, 40];
        let (buckets, locate) = plan_buckets(&sizes, 128);
        let mut seen = vec![false; sizes.len()];
        for (b, spec) in buckets.iter().enumerate() {
            let mut floats = 0;
            for &(p, off) in &spec.params {
                assert!(!seen[p], "param {p} planned twice");
                seen[p] = true;
                assert_eq!(locate[p], (b, off));
                floats += sizes[p];
            }
            assert_eq!(floats, spec.floats);
        }
        assert!(seen.iter().all(|&s| s), "params missing from plan");
        // Reverse walk: the first bucket holds the last params.
        assert_eq!(buckets[0].params[0].0, sizes.len() - 1);
        // An oversized param gets a bucket of its own.
        assert!(buckets
            .iter()
            .any(|b| b.floats == 8192 && b.params.len() == 1));
    }

    #[test]
    fn overlap_is_bitwise_identical_to_sync() {
        // Overlap moves collectives in wall time, never in arithmetic:
        // full-Adam and ZeRO variants must match the unoverlapped run
        // bit for bit, and the overlapped run must record hidden comm.
        let (ds, norm) = data();
        let run = |overlap: bool, zero: bool| {
            let mut model = Egnn::new(EgnnConfig::new(8, 2).with_seed(13));
            let cfg = DdpConfig {
                world: 4,
                epochs: 2,
                batch_size: 2,
                grad_clip: None,
                bucket_size: Some(500),
                overlap_comm: overlap,
                zero,
                ..Default::default()
            };
            let report = train_ddp(&mut model, &ds, &norm, &cfg);
            (model.params().flatten(), report)
        };
        for zero in [false, true] {
            let (sync_params, sync_report) = run(false, zero);
            let (ov_params, ov_report) = run(true, zero);
            assert!(
                sync_params.allclose(&ov_params, 0.0),
                "overlap changed results (zero={zero})"
            );
            assert_eq!(sync_report.epoch_loss, ov_report.epoch_loss);
            let ov = &ov_report.ranks[0].comm;
            assert!(
                ov.overlapped_seconds > 0.0,
                "no communication was hidden (zero={zero})"
            );
            assert!(ov.overlapped_seconds <= ov.modeled_seconds);
            assert!(ov.exposed_seconds() < ov.modeled_seconds);
            assert_eq!(sync_report.ranks[0].comm.overlapped_seconds, 0.0);
            // Memory accounting is unchanged: same logical allocations at
            // the same points in the step.
            assert_eq!(
                sync_report.ranks[0].peak_total, ov_report.ranks[0].peak_total,
                "overlap changed the tracked peak (zero={zero})"
            );
        }
    }

    #[test]
    fn prefetch_is_bitwise_identical_to_sync_fetch() {
        let (ds, norm) = data();
        let run = |depth: usize| {
            let mut model = Egnn::new(EgnnConfig::new(8, 2).with_seed(17));
            let cfg = DdpConfig {
                world: 2,
                epochs: 2,
                batch_size: 4,
                prefetch_depth: depth,
                ..Default::default()
            };
            let report = train_ddp(&mut model, &ds, &norm, &cfg);
            (model.params().flatten(), report.epoch_loss)
        };
        let (sync_params, sync_loss) = run(0);
        for depth in [1, 3] {
            let (p, l) = run(depth);
            assert!(
                sync_params.allclose(&p, 0.0),
                "prefetch depth {depth} changed results"
            );
            assert_eq!(sync_loss, l);
        }
    }

    #[test]
    fn injected_io_error_is_retried_inside_the_prefetcher() {
        let (ds, norm) = data();
        let run = |plan: FaultPlan| {
            let mut model = Egnn::new(EgnnConfig::new(8, 2).with_seed(9));
            let cfg = DdpConfig {
                world: 2,
                epochs: 1,
                batch_size: 4,
                prefetch_depth: 2,
                fault_plan: plan,
                ..Default::default()
            };
            let report = train_ddp(&mut model, &ds, &norm, &cfg);
            (model.params().flatten(), report)
        };
        let (clean, _) = run(FaultPlan::none());
        let (faulted, report) = run(FaultPlan::parse("io@rank1,step1").unwrap());
        assert!(clean.allclose(&faulted, 0.0), "io retry changed results");
        assert_eq!(report.ranks[1].io_retries, 1);
        assert_eq!(report.recoveries, 0);
    }

    #[test]
    #[should_panic(expected = "smaller than one global batch")]
    fn tiny_dataset_panics() {
        let (ds, norm) = data();
        let small = ds.subsample_tb(0.1, 0); // few samples
        let mut model = Egnn::new(EgnnConfig::new(8, 2));
        let cfg = DdpConfig {
            world: 4,
            epochs: 1,
            batch_size: 8,
            ..Default::default()
        };
        let _ = train_ddp(&mut model, &small, &norm, &cfg);
    }

    #[test]
    fn injected_io_error_is_retried_transparently() {
        let (ds, norm) = data();
        let run = |plan: FaultPlan| {
            let mut model = Egnn::new(EgnnConfig::new(8, 2).with_seed(9));
            let cfg = DdpConfig {
                world: 2,
                epochs: 1,
                batch_size: 4,
                fault_plan: plan,
                ..Default::default()
            };
            let report = train_ddp(&mut model, &ds, &norm, &cfg);
            (model.params().flatten(), report)
        };
        let (clean, _) = run(FaultPlan::none());
        let (faulted, report) = run(FaultPlan::parse("io@rank1,step1").unwrap());
        // A retried transient fetch error must not change the math.
        assert!(clean.allclose(&faulted, 0.0), "io retry changed results");
        assert_eq!(report.ranks[1].io_retries, 1);
        assert_eq!(report.recoveries, 0);
    }

    #[test]
    fn straggler_delay_within_timeout_is_harmless() {
        let (ds, norm) = data();
        let mut model = Egnn::new(EgnnConfig::new(8, 2).with_seed(11));
        let cfg = DdpConfig {
            world: 2,
            epochs: 1,
            batch_size: 4,
            fault_plan: FaultPlan::parse("delay@rank1,step1,30ms").unwrap(),
            ..Default::default()
        };
        let report = train_ddp(&mut model, &ds, &norm, &cfg);
        assert_eq!(report.recoveries, 0);
        assert_eq!(report.final_world, 2);
    }
}
