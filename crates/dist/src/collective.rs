//! Collective communication between simulated ranks, with failure-aware
//! rendezvous.
//!
//! Ranks are OS threads on one machine; a [`Communicator`] gives each of
//! them NCCL-style collectives (all-reduce, reduce-scatter, all-gather,
//! broadcast, barrier) over shared staging slots. Semantics — *who holds
//! which bytes when* — match the real collectives exactly, which is what
//! the DDP/ZeRO memory results depend on. Traffic is additionally priced
//! by a ring-algorithm [`CostModel`] so experiments can report modeled
//! interconnect time alongside measured wall time (one CPU core cannot
//! exhibit real NVLink behaviour).
//!
//! # Failure model
//!
//! Every collective is bounded by the group's rendezvous timeout and
//! returns `Result<_, CommError>`; no call can block forever. A rank that
//! panics (its [`Communicator`] is dropped during unwind) or is explicitly
//! declared dead via [`Communicator::mark_failed`] **poisons** the group:
//! every rank currently blocked in a collective wakes with
//! [`CommError::RankFailed`], and every later call fails fast. A poisoned
//! group never heals — survivors recover by consuming their handles with
//! [`Communicator::split_survivors`], which rendezvouses the live ranks
//! into a fresh, smaller group (ranks are renumbered by ascending old
//! rank, traffic statistics carry over).

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use matgnn_tensor::recycler;

use crate::supervisor::{Heartbeat, ParkGuard};

/// Default per-collective rendezvous timeout.
pub const DEFAULT_COMM_TIMEOUT: Duration = Duration::from_secs(30);

/// Why a collective failed. All collectives return this in their `Err`
/// channel instead of blocking forever or panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The rendezvous timeout elapsed before every rank arrived. The
    /// group is poisoned as a side effect, so peers unwind too.
    Timeout {
        /// Rank that observed the timeout.
        rank: usize,
        /// How long it waited.
        waited: Duration,
    },
    /// A specific peer was declared dead (panic, injected kill, or
    /// explicit [`Communicator::mark_failed`]).
    RankFailed(usize),
    /// The group was poisoned by an earlier failure; no further
    /// collectives can run on it.
    Poisoned,
    /// A peer contributed a vector of a different length than this rank.
    /// The group is poisoned as a side effect: shape disagreement means
    /// the replicas have diverged and no later collective can be trusted.
    LengthMismatch {
        /// Rank that detected the mismatch.
        rank: usize,
        /// Length this rank contributed.
        expected: usize,
        /// Length the offending peer contributed.
        got: usize,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { rank, waited } => {
                write!(f, "collective timed out on rank {rank} after {waited:?}")
            }
            CommError::RankFailed(r) => write!(f, "rank {r} failed"),
            CommError::Poisoned => write!(f, "communicator group is poisoned"),
            CommError::LengthMismatch {
                rank,
                expected,
                got,
            } => write!(
                f,
                "rank {rank} expected a contribution of {expected} elements, got {got}"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Link parameters used to price collectives (defaults approximate one
/// NVLink-3 hop as in the paper's Perlmutter nodes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per-direction link bandwidth in GB/s.
    pub link_gb_per_s: f64,
    /// Per-collective latency in microseconds.
    pub latency_us: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            link_gb_per_s: 100.0,
            latency_us: 10.0,
        }
    }
}

impl CostModel {
    /// Modeled seconds to move `bytes` through one rank's link, plus
    /// latency.
    pub fn seconds(&self, bytes: u64) -> f64 {
        self.latency_us * 1e-6 + bytes as f64 / (self.link_gb_per_s * 1e9)
    }
}

/// Per-rank traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Bytes this rank moved over the (modeled) interconnect.
    pub bytes_moved: u64,
    /// Number of collective operations.
    pub collectives: u64,
    /// Modeled interconnect time in seconds.
    pub modeled_seconds: f64,
    /// Portion of `modeled_seconds` that was hidden behind compute by
    /// backward-overlapped communication (credited via
    /// [`Communicator::credit_overlap`]). Always `<= modeled_seconds`.
    pub overlapped_seconds: f64,
}

impl CommStats {
    /// Modeled interconnect time that was *not* hidden behind compute —
    /// the part a step actually waits for.
    pub fn exposed_seconds(&self) -> f64 {
        (self.modeled_seconds - self.overlapped_seconds).max(0.0)
    }

    /// Accumulates another rank-local reading (e.g. a [`BucketComm`]'s
    /// traffic) into this one.
    pub fn absorb(&mut self, other: CommStats) {
        self.bytes_moved += other.bytes_moved;
        self.collectives += other.collectives;
        self.modeled_seconds += other.modeled_seconds;
        self.overlapped_seconds =
            (self.overlapped_seconds + other.overlapped_seconds).min(self.modeled_seconds);
    }

    /// Publishes this reading into the telemetry metrics registry under
    /// `{prefix}.*`: bytes moved, collective count, and the modeled /
    /// overlapped / exposed interconnect-time split.
    pub fn publish_telemetry(&self, prefix: &str) {
        matgnn_telemetry::counter_set(format!("{prefix}.bytes_moved"), self.bytes_moved);
        matgnn_telemetry::counter_set(format!("{prefix}.collectives"), self.collectives);
        matgnn_telemetry::gauge_set(format!("{prefix}.modeled_seconds"), self.modeled_seconds);
        matgnn_telemetry::gauge_set(
            format!("{prefix}.overlapped_seconds"),
            self.overlapped_seconds,
        );
        matgnn_telemetry::gauge_set(format!("{prefix}.exposed_seconds"), self.exposed_seconds());
    }
}

/// Shared rendezvous state: a generation-counting barrier plus staging
/// slots and failure flags, all under one mutex so failure observations
/// are totally ordered with barrier arrivals.
struct GroupState {
    /// Ranks that have arrived at the current barrier generation.
    arrived: usize,
    /// Bumped each time a barrier completes; waiters key off it.
    generation: u64,
    /// Per-rank "declared dead" flags.
    failed: Vec<bool>,
    /// Sticky failure flag — once set the group never recovers.
    poisoned: bool,
    /// Staging slots for collective payloads, one per rank. Buffers come
    /// from (and return to) the tensor crate's recycler so steady-state
    /// collectives allocate nothing.
    slots: Vec<Option<Arc<Vec<f32>>>>,
    /// In-flight bucketed sessions keyed by bucket id (see
    /// [`BucketComm`]). Unlike `slots`, several buckets can be in flight
    /// at once because each rank's comm thread drains them at its own
    /// pace.
    buckets: HashMap<u64, BucketSlot>,
    /// Old ranks registered for a survivor split.
    split_members: Vec<usize>,
    /// Hand-off of rebuilt communicators, indexed like the sorted
    /// `split_members`.
    split_handoff: Vec<Option<Communicator>>,
}

/// One in-flight bucketed collective: per-rank contributions plus a
/// count of ranks that have finished consuming them. The last consumer
/// removes the slot and recycles the buffers.
struct BucketSlot {
    contributions: Vec<Option<Arc<Vec<f32>>>>,
    readers_done: usize,
}

struct Inner {
    world: usize,
    state: Mutex<GroupState>,
    cv: Condvar,
    cost: CostModel,
    timeout: Duration,
}

impl Inner {
    /// Locks the group state, ignoring std mutex poisoning: a peer that
    /// panicked while holding the lock is exactly the failure mode this
    /// group is designed to survive.
    fn lock(&self) -> MutexGuard<'_, GroupState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// One rank's handle to the collective group.
///
/// # Examples
///
/// ```
/// use matgnn_dist::Communicator;
///
/// let comms = Communicator::create(2, Default::default());
/// let handles: Vec<_> = comms
///     .into_iter()
///     .map(|mut comm| {
///         std::thread::spawn(move || {
///             let mut v = vec![comm.rank() as f32 + 1.0];
///             comm.all_reduce_sum(&mut v).expect("group is healthy");
///             v[0]
///         })
///     })
///     .collect();
/// for h in handles {
///     assert_eq!(h.join().unwrap(), 3.0); // 1 + 2 on every rank
/// }
/// ```
pub struct Communicator {
    rank: usize,
    inner: Arc<Inner>,
    stats: CommStats,
    /// Set once this handle has observed (or caused) group failure, so
    /// `Drop` during a panic does not re-poison and `split_survivors`
    /// knows the handle is already detached.
    defunct: bool,
    /// Optional hang-supervision pulse: blocking waits park it so the
    /// watchdog distinguishes "waiting on peers" from "stalled".
    heartbeat: Option<Arc<Heartbeat>>,
}

/// A detached handle that can declare `rank` dead and poison its group
/// from another thread (the hang watchdog), without borrowing the rank's
/// [`Communicator`]. Mirrors [`Communicator::mark_failed`].
#[derive(Clone)]
pub struct FailureHandle {
    rank: usize,
    inner: Arc<Inner>,
}

impl FailureHandle {
    /// Declares the owning rank dead and poisons the group: peers blocked
    /// in collectives wake with [`CommError::RankFailed`] and unwind into
    /// elastic recovery, excluding this rank from the survivor set.
    pub fn poison(&self) {
        let mut st = self.inner.lock();
        st.failed[self.rank] = true;
        st.poisoned = true;
        self.inner.cv.notify_all();
    }
}

impl std::fmt::Debug for FailureHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailureHandle")
            .field("rank", &self.rank)
            .finish()
    }
}

/// The contiguous shard `[start, end)` of a length-`len` vector owned by
/// `rank` out of `world` (ceil-partitioned; trailing ranks may be empty).
pub fn shard_range(len: usize, world: usize, rank: usize) -> (usize, usize) {
    let chunk = len.div_ceil(world);
    let start = (rank * chunk).min(len);
    let end = ((rank + 1) * chunk).min(len);
    (start, end)
}

/// Ranks other than `rank`, ascending — the deterministic accumulation
/// order every reduction in this module (flat or bucketed) follows.
/// Copies `data` into a recycler-backed staging buffer.
pub(crate) fn staged_copy(data: &[f32]) -> Arc<Vec<f32>> {
    let mut buf = recycler::acquire(data.len());
    Arc::get_mut(&mut buf)
        .expect("freshly acquired staging buffer is uniquely owned")
        .extend_from_slice(data);
    buf
}

impl Communicator {
    /// Creates one communicator per rank, all connected, with the
    /// [`DEFAULT_COMM_TIMEOUT`] rendezvous timeout.
    ///
    /// # Panics
    ///
    /// Panics if `world` is zero.
    pub fn create(world: usize, cost: CostModel) -> Vec<Communicator> {
        Self::create_with_timeout(world, cost, DEFAULT_COMM_TIMEOUT)
    }

    /// Creates one communicator per rank with an explicit per-collective
    /// rendezvous timeout.
    ///
    /// # Panics
    ///
    /// Panics if `world` is zero.
    pub fn create_with_timeout(
        world: usize,
        cost: CostModel,
        timeout: Duration,
    ) -> Vec<Communicator> {
        assert!(world > 0, "world must be positive");
        let inner = Arc::new(Inner {
            world,
            state: Mutex::new(GroupState {
                arrived: 0,
                generation: 0,
                failed: vec![false; world],
                poisoned: false,
                slots: vec![None; world],
                buckets: HashMap::new(),
                split_members: Vec::new(),
                split_handoff: Vec::new(),
            }),
            cv: Condvar::new(),
            cost,
            timeout,
        });
        (0..world)
            .map(|rank| Communicator {
                rank,
                inner: Arc::clone(&inner),
                stats: CommStats::default(),
                defunct: false,
                heartbeat: None,
            })
            .collect()
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn world(&self) -> usize {
        self.inner.world
    }

    /// The group's per-collective rendezvous timeout.
    pub fn timeout(&self) -> Duration {
        self.inner.timeout
    }

    /// Attaches (or detaches) this rank's hang-supervision heartbeat.
    /// Blocking waits in this handle — and in [`BucketComm`] handles
    /// created *after* the attach — park it so the watchdog knows the
    /// rank is waiting on peers rather than stalled.
    pub fn set_heartbeat(&mut self, hb: Option<Arc<Heartbeat>>) {
        self.heartbeat = hb;
    }

    /// The attached heartbeat, if any.
    pub fn heartbeat(&self) -> Option<&Arc<Heartbeat>> {
        self.heartbeat.as_ref()
    }

    /// A detached handle the hang watchdog uses to declare this rank dead
    /// from its own thread.
    pub fn failure_handle(&self) -> FailureHandle {
        FailureHandle {
            rank: self.rank,
            inner: Arc::clone(&self.inner),
        }
    }

    /// Whether the group has been poisoned (by a failure, timeout, or
    /// watchdog escalation). A hung rank polls this to learn that its own
    /// watchdog gave up on it.
    pub fn is_poisoned(&self) -> bool {
        self.inner.lock().poisoned
    }

    /// Traffic accumulated by this rank (carried across
    /// [`split_survivors`](Self::split_survivors)).
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// The cost model pricing this group's traffic.
    pub fn cost_model(&self) -> CostModel {
        self.inner.cost
    }

    /// Credits `secs` of this rank's modeled interconnect time as hidden
    /// behind compute (backward-overlapped communication). Clamped so
    /// `overlapped_seconds` never exceeds `modeled_seconds`.
    pub fn credit_overlap(&mut self, secs: f64) {
        self.stats.overlapped_seconds =
            (self.stats.overlapped_seconds + secs.max(0.0)).min(self.stats.modeled_seconds);
    }

    /// Folds a detached reading (e.g. a finished [`BucketComm`]'s stats)
    /// into this rank's statistics.
    pub fn absorb(&mut self, other: CommStats) {
        self.stats.absorb(other);
    }

    /// A second, independent handle for this rank used by its gradient
    /// communication thread. Bucketed collectives issued through it
    /// ([`BucketComm::all_reduce_mean_bucket`],
    /// [`BucketComm::reduce_sum_bucket`]) rendezvous per bucket id rather
    /// than through the group's generation barrier, so several buckets
    /// can be in flight at once while backward is still producing more.
    /// The handle shares the group's failure flags: a dead rank poisons
    /// both paths at once, and either path's timeout poisons the other.
    pub fn bucket_handle(&self) -> BucketComm {
        BucketComm {
            rank: self.rank,
            inner: Arc::clone(&self.inner),
            stats: CommStats::default(),
            defunct: false,
            heartbeat: self.heartbeat.clone(),
        }
    }

    /// Declares this rank dead and poisons the group: every peer blocked
    /// in a collective wakes with [`CommError::RankFailed`], and all
    /// later collectives on the group fail fast. Used by the fault
    /// injector to simulate a crashed rank; also invoked automatically
    /// when a `Communicator` is dropped during a panic.
    pub fn mark_failed(&mut self) {
        self.defunct = true;
        let mut st = self.inner.lock();
        st.failed[self.rank] = true;
        st.poisoned = true;
        self.inner.cv.notify_all();
    }

    /// First failure to report from the group state, if any.
    fn failure(&self, st: &GroupState) -> Option<CommError> {
        if let Some(r) = st.failed.iter().position(|&f| f) {
            return Some(CommError::RankFailed(r));
        }
        if st.poisoned {
            return Some(CommError::Poisoned);
        }
        None
    }

    /// Generation barrier with timeout and failure detection. On timeout
    /// the group is poisoned before returning, so peers unwind too.
    fn sync(&mut self) -> Result<(), CommError> {
        let _span = matgnn_telemetry::span("comm.rendezvous");
        // Waiting on peers is not a stall: keep the hang watchdog quiet
        // for the duration (the rendezvous timeout polices this wait).
        let _park = self.heartbeat.clone().map(ParkGuard::new);
        let inner = Arc::clone(&self.inner);
        let mut st = inner.lock();
        if let Some(err) = self.failure(&st) {
            self.defunct = true;
            return Err(err);
        }
        st.arrived += 1;
        let gen = st.generation;
        if st.arrived == inner.world {
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            inner.cv.notify_all();
            return Ok(());
        }
        let start = Instant::now();
        loop {
            let remaining = inner.timeout.saturating_sub(start.elapsed());
            let (guard, timed_out) = inner
                .cv
                .wait_timeout(st, remaining)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
            if st.generation != gen {
                // Barrier completed while we slept. A failure flag raised
                // after completion belongs to the next collective.
                return Ok(());
            }
            if let Some(err) = self.failure(&st) {
                self.defunct = true;
                return Err(err);
            }
            if timed_out.timed_out() {
                st.poisoned = true;
                inner.cv.notify_all();
                self.defunct = true;
                return Err(CommError::Timeout {
                    rank: self.rank,
                    waited: start.elapsed(),
                });
            }
        }
    }

    /// Blocks until every rank has reached the barrier, the rendezvous
    /// timeout elapses, or the group fails.
    pub fn barrier(&mut self) -> Result<(), CommError> {
        self.sync()
    }

    fn account(&mut self, bytes: u64) {
        self.stats.bytes_moved += bytes;
        self.stats.collectives += 1;
        self.stats.modeled_seconds += self.inner.cost.seconds(bytes);
    }

    /// Copies `data` into this rank's staging slot and syncs. The staging
    /// buffer is recycler-backed, so steady-state collectives allocate
    /// nothing: `finish` returns every slot to the pool.
    pub(crate) fn publish_slice(&mut self, data: &[f32]) -> Result<(), CommError> {
        let buf = staged_copy(data);
        let inner = Arc::clone(&self.inner);
        {
            let mut st = inner.lock();
            if let Some(err) = self.failure(&st) {
                self.defunct = true;
                return Err(err);
            }
            st.slots[self.rank] = Some(buf);
        }
        self.sync()
    }

    pub(crate) fn finish(&mut self) -> Result<(), CommError> {
        self.sync()?;
        if self.rank == 0 {
            let mut slots_guard = self.inner.lock();
            let freed: Vec<_> = slots_guard
                .slots
                .iter_mut()
                .filter_map(Option::take)
                .collect();
            drop(slots_guard);
            // Recycle outside the group lock; every reader is past its
            // accumulation (the sync above), so the handles are unique.
            freed.into_iter().for_each(recycler::release);
        }
        self.sync()
    }

    /// Runs `f` over the group's staged slots (between a
    /// [`publish_slice`](Self::publish_slice) and the matching
    /// [`finish`](Self::finish)), under the group lock. Fails fast if
    /// the group is already poisoned. The halo exchange uses this to
    /// copy peer rows out of the staging buffers.
    pub(crate) fn read_slots<R>(
        &mut self,
        f: impl FnOnce(&[Option<Arc<Vec<f32>>>]) -> R,
    ) -> Result<R, CommError> {
        let inner = Arc::clone(&self.inner);
        let st = inner.lock();
        if let Some(err) = self.failure(&st) {
            self.defunct = true;
            return Err(err);
        }
        Ok(f(&st.slots))
    }

    /// Records `bytes` of interconnect traffic against this rank.
    pub(crate) fn account_traffic(&mut self, bytes: u64) {
        self.account(bytes);
    }

    /// Poisons the group because a peer's contribution length disagrees
    /// with ours, and reports which peer.
    fn length_mismatch(&mut self, st: &mut GroupState, expected: usize, got: usize) -> CommError {
        st.poisoned = true;
        self.inner.cv.notify_all();
        self.defunct = true;
        CommError::LengthMismatch {
            rank: self.rank,
            expected,
            got,
        }
    }

    /// In-place all-reduce (sum): after the call every rank holds the
    /// element-wise sum of all ranks' vectors.
    ///
    /// Every rank accumulates the staged contributions in canonical rank
    /// order (0, 1, …, w−1), so the result is **bitwise identical on
    /// every rank** — the same guarantee real NCCL gives, and what lets a
    /// rank-0 checkpoint restore any rank's replica exactly (the
    /// supervisor's rollback path depends on this).
    ///
    /// Returns [`CommError::LengthMismatch`] (and poisons the group) if a
    /// peer contributed a vector of a different length.
    pub fn all_reduce_sum(&mut self, data: &mut [f32]) -> Result<(), CommError> {
        let w = self.world();
        if w == 1 {
            return Ok(());
        }
        let _span = matgnn_telemetry::span("comm.all_reduce");
        self.publish_slice(data)?;
        {
            let inner = Arc::clone(&self.inner);
            let mut st = inner.lock();
            for r in 0..w {
                let got = st.slots[r].as_ref().expect("missing contribution").len();
                if got != data.len() {
                    return Err(self.length_mismatch(&mut st, data.len(), got));
                }
                let other = st.slots[r].as_ref().expect("missing contribution");
                if r == 0 {
                    data.copy_from_slice(other);
                } else {
                    for (d, &o) in data.iter_mut().zip(other.iter()) {
                        *d += o;
                    }
                }
            }
        }
        self.finish()?;
        // Ring all-reduce traffic: 2·(w−1)/w of the payload per rank.
        let payload = (data.len() * 4) as u64;
        self.account(payload * 2 * (w as u64 - 1) / w as u64);
        Ok(())
    }

    /// In-place all-reduce (mean), with the `1/world` scale fused into
    /// the final accumulation pass: the last contribution is applied as
    /// `(d + o) * inv` instead of a separate whole-vector scale, saving
    /// one pass over the data. The floating-point operation sequence per
    /// element is identical to sum-then-scale, so results are bitwise
    /// unchanged; traffic accounting is that of a single all-reduce.
    ///
    /// Accumulation runs in canonical rank order on every rank (see
    /// [`all_reduce_sum`](Self::all_reduce_sum)), so all ranks receive
    /// bitwise-identical means.
    pub fn all_reduce_mean(&mut self, data: &mut [f32]) -> Result<(), CommError> {
        let w = self.world();
        if w == 1 {
            return Ok(());
        }
        let _span = matgnn_telemetry::span("comm.all_reduce");
        self.publish_slice(data)?;
        {
            let inner = Arc::clone(&self.inner);
            let mut st = inner.lock();
            let inv = 1.0 / w as f32;
            for r in 0..w {
                let got = st.slots[r].as_ref().expect("missing contribution").len();
                if got != data.len() {
                    return Err(self.length_mismatch(&mut st, data.len(), got));
                }
                let other = st.slots[r].as_ref().expect("missing contribution");
                if r == 0 {
                    data.copy_from_slice(other);
                } else if r == w - 1 {
                    for (d, &o) in data.iter_mut().zip(other.iter()) {
                        *d = (*d + o) * inv;
                    }
                } else {
                    for (d, &o) in data.iter_mut().zip(other.iter()) {
                        *d += o;
                    }
                }
            }
        }
        self.finish()?;
        let payload = (data.len() * 4) as u64;
        self.account(payload * 2 * (w as u64 - 1) / w as u64);
        Ok(())
    }

    /// Reduce-scatter (sum): every rank contributes the full vector and
    /// receives only its own [`shard_range`] of the element-wise sum.
    ///
    /// Shards are accumulated in canonical rank order (see
    /// [`all_reduce_sum`](Self::all_reduce_sum)), so a reduce-scatter
    /// followed by an all-gather is bitwise identical to one all-reduce.
    ///
    /// Returns [`CommError::LengthMismatch`] (and poisons the group) if a
    /// peer contributed a vector of a different length.
    pub fn reduce_scatter_sum(&mut self, data: &[f32]) -> Result<Vec<f32>, CommError> {
        let w = self.world();
        let (start, end) = shard_range(data.len(), w, self.rank);
        if w == 1 {
            return Ok(data[start..end].to_vec());
        }
        let _span = matgnn_telemetry::span("comm.reduce_scatter");
        self.publish_slice(data)?;
        let mut shard = vec![0.0f32; end - start];
        {
            let inner = Arc::clone(&self.inner);
            let mut st = inner.lock();
            for r in 0..w {
                let got = st.slots[r].as_ref().expect("missing contribution").len();
                if got != data.len() {
                    return Err(self.length_mismatch(&mut st, data.len(), got));
                }
                let other = st.slots[r].as_ref().expect("missing contribution");
                if r == 0 {
                    shard.copy_from_slice(&other[start..end]);
                } else {
                    for (d, &o) in shard.iter_mut().zip(other[start..end].iter()) {
                        *d += o;
                    }
                }
            }
        }
        self.finish()?;
        let payload = (data.len() * 4) as u64;
        self.account(payload * (w as u64 - 1) / w as u64);
        Ok(shard)
    }

    /// All-gather: every rank contributes its [`shard_range`] of a
    /// length-`total_len` vector and receives the concatenation.
    ///
    /// # Panics
    ///
    /// Panics if a rank's shard length disagrees with its shard range.
    pub fn all_gather(&mut self, shard: &[f32], total_len: usize) -> Result<Vec<f32>, CommError> {
        let w = self.world();
        let (start, end) = shard_range(total_len, w, self.rank);
        assert_eq!(shard.len(), end - start, "all_gather shard length mismatch");
        if w == 1 {
            return Ok(shard.to_vec());
        }
        let _span = matgnn_telemetry::span("comm.all_gather");
        self.publish_slice(shard)?;
        let mut out = vec![0.0f32; total_len];
        {
            let st = self.inner.lock();
            for (r, slot) in st.slots.iter().enumerate() {
                let (s, e) = shard_range(total_len, w, r);
                let piece = slot.as_ref().expect("missing contribution");
                assert_eq!(piece.len(), e - s, "all_gather peer shard mismatch");
                out[s..e].copy_from_slice(piece);
            }
        }
        self.finish()?;
        let payload = (total_len * 4) as u64;
        self.account(payload * (w as u64 - 1) / w as u64);
        Ok(out)
    }

    /// Broadcast from `root`: after the call every rank holds root's data.
    pub fn broadcast(&mut self, data: &mut Vec<f32>, root: usize) -> Result<(), CommError> {
        let w = self.world();
        if w == 1 {
            return Ok(());
        }
        let _span = matgnn_telemetry::span("comm.broadcast");
        if self.rank == root {
            self.publish_slice(data)?;
        } else {
            self.sync()?;
        }
        if self.rank != root {
            let st = self.inner.lock();
            let src = st.slots[root].as_ref().expect("missing root data");
            data.clear();
            data.extend_from_slice(src);
        }
        self.finish()?;
        let payload = (data.len() * 4) as u64;
        self.account(payload * (w as u64 - 1) / w as u64);
        Ok(())
    }

    /// Consumes this handle to a failed group and rendezvouses the
    /// surviving ranks into a fresh, smaller group.
    ///
    /// Every live (non-failed) rank of the old group must call this; the
    /// call blocks until all of them have, or `grace` elapses. Survivors
    /// are renumbered `0..n` by ascending old rank, and this rank's
    /// traffic statistics carry over to the new handle. The new group
    /// inherits the old cost model and timeout.
    ///
    /// Returns [`CommError::Timeout`] if the surviving set does not
    /// assemble within `grace`.
    pub fn split_survivors(mut self, grace: Duration) -> Result<Communicator, CommError> {
        // The regroup wait is bounded by `grace`, not by step progress.
        let _park = self.heartbeat.clone().map(ParkGuard::new);
        let inner = Arc::clone(&self.inner);
        // This handle is leaving the old group for good: never re-poison
        // it from `Drop`, even if the caller panics later.
        self.defunct = true;
        let my_old_rank = self.rank;
        let mut st = inner.lock();
        debug_assert!(
            !st.failed[my_old_rank],
            "a rank that was declared failed cannot rejoin as a survivor"
        );
        st.split_members.push(my_old_rank);
        inner.cv.notify_all();
        let start = Instant::now();
        loop {
            let expected = st.failed.iter().filter(|&&f| !f).count();
            if st.split_members.len() >= expected {
                break;
            }
            let remaining = grace.saturating_sub(start.elapsed());
            let (guard, timed_out) = inner
                .cv
                .wait_timeout(st, remaining)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
            if timed_out.timed_out()
                && st.split_members.len() < st.failed.iter().filter(|&&f| !f).count()
            {
                return Err(CommError::Timeout {
                    rank: my_old_rank,
                    waited: start.elapsed(),
                });
            }
        }
        // All survivors are registered. The lowest old rank builds the
        // new group; everyone else waits for the hand-off.
        st.split_members.sort_unstable();
        let members = st.split_members.clone();
        let lowest = members[0];
        if my_old_rank == lowest && st.split_handoff.is_empty() {
            let fresh = Communicator::create_with_timeout(members.len(), inner.cost, inner.timeout);
            st.split_handoff = fresh.into_iter().map(Some).collect();
            inner.cv.notify_all();
        }
        while st.split_handoff.is_empty() {
            let remaining = grace.saturating_sub(start.elapsed());
            let (guard, timed_out) = inner
                .cv
                .wait_timeout(st, remaining)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
            if timed_out.timed_out() && st.split_handoff.is_empty() {
                return Err(CommError::Timeout {
                    rank: my_old_rank,
                    waited: start.elapsed(),
                });
            }
        }
        let new_rank = members
            .iter()
            .position(|&r| r == my_old_rank)
            .expect("survivor must be a registered member");
        let mut comm = st.split_handoff[new_rank]
            .take()
            .expect("hand-off taken twice");
        comm.stats = self.stats;
        Ok(comm)
    }
}

impl Drop for Communicator {
    fn drop(&mut self) {
        // A rank that dies by panic must not leave its peers blocked at
        // the rendezvous: poison the group on the way out. Clean drops
        // (normal end of a rank closure) leave the group alone.
        if std::thread::panicking() && !self.defunct {
            self.mark_failed();
        }
    }
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("rank", &self.rank)
            .field("world", &self.world())
            .field("stats", &self.stats)
            .finish()
    }
}

/// A rank's handle for backward-overlapped bucketed collectives,
/// obtained from [`Communicator::bucket_handle`] and typically owned by
/// a dedicated communication thread.
///
/// Each call names a **bucket id**; ranks rendezvous per id instead of
/// through the group-wide generation barrier, so a fast rank can retire
/// bucket `k` and stage `k+1` while a slow rank is still consuming `k` —
/// several sessions in flight at once. As with NCCL, every rank must
/// issue the same bucket ids **in the same order** (backward order is
/// deterministic and identical across replicas, so DDP satisfies this for
/// free); ids must also be globally unique across the life of the group
/// (DDP uses `step * n_buckets + index`). Accumulation order per element
/// is own contribution first, then peers ascending — identical to the
/// flat collectives, which is what keeps overlap bitwise-invisible.
///
/// Failure handling mirrors [`Communicator`]: timeouts and length
/// mismatches poison the shared group, a panic unwinding past this handle
/// poisons it too, and traffic is tallied locally — fold it back with
/// [`Communicator::absorb`] when the comm thread joins.
pub struct BucketComm {
    rank: usize,
    inner: Arc<Inner>,
    stats: CommStats,
    defunct: bool,
    /// Shared with the owning rank's [`Communicator`] (see
    /// [`Communicator::set_heartbeat`]): bucket waits park it too.
    heartbeat: Option<Arc<Heartbeat>>,
}

impl BucketComm {
    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn world(&self) -> usize {
        self.inner.world
    }

    /// Traffic accumulated through this handle.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    fn failure(&self, st: &GroupState) -> Option<CommError> {
        if let Some(r) = st.failed.iter().position(|&f| f) {
            return Some(CommError::RankFailed(r));
        }
        if st.poisoned {
            return Some(CommError::Poisoned);
        }
        None
    }

    fn account(&mut self, bytes: u64) {
        self.stats.bytes_moved += bytes;
        self.stats.collectives += 1;
        self.stats.modeled_seconds += self.inner.cost.seconds(bytes);
    }

    /// Stages this rank's contribution for bucket `id` and blocks until
    /// every rank's contribution is present. On success the returned
    /// guard's state holds a fully populated [`BucketSlot`] for `id`.
    fn stage_and_await<'a>(
        &mut self,
        inner: &'a Inner,
        id: u64,
        data: &[f32],
    ) -> Result<MutexGuard<'a, GroupState>, CommError> {
        let _span = matgnn_telemetry::span("comm.rendezvous");
        let _park = self.heartbeat.clone().map(ParkGuard::new);
        let world = inner.world;
        let buf = staged_copy(data);
        let mut st = inner.lock();
        if let Some(err) = self.failure(&st) {
            self.defunct = true;
            return Err(err);
        }
        let slot = st.buckets.entry(id).or_insert_with(|| BucketSlot {
            contributions: vec![None; world],
            readers_done: 0,
        });
        debug_assert!(
            slot.contributions[self.rank].is_none(),
            "bucket id {id} reused before its previous session drained"
        );
        slot.contributions[self.rank] = Some(buf);
        inner.cv.notify_all();
        let start = Instant::now();
        loop {
            let complete = st
                .buckets
                .get(&id)
                .is_some_and(|s| s.contributions.iter().all(Option::is_some));
            if complete {
                return Ok(st);
            }
            if let Some(err) = self.failure(&st) {
                self.defunct = true;
                return Err(err);
            }
            let remaining = inner.timeout.saturating_sub(start.elapsed());
            let (guard, timed_out) = inner
                .cv
                .wait_timeout(st, remaining)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
            if timed_out.timed_out()
                && !st
                    .buckets
                    .get(&id)
                    .is_some_and(|s| s.contributions.iter().all(Option::is_some))
            {
                st.poisoned = true;
                inner.cv.notify_all();
                self.defunct = true;
                return Err(CommError::Timeout {
                    rank: self.rank,
                    waited: start.elapsed(),
                });
            }
        }
    }

    /// Marks this rank done with bucket `id`; the last rank to finish
    /// removes the session and recycles its staging buffers.
    fn retire(&self, st: &mut GroupState, id: u64) {
        let world = self.inner.world;
        let slot = st.buckets.get_mut(&id).expect("bucket session vanished");
        slot.readers_done += 1;
        if slot.readers_done == world {
            let slot = st.buckets.remove(&id).expect("bucket session vanished");
            slot.contributions
                .into_iter()
                .flatten()
                .for_each(recycler::release);
            self.inner.cv.notify_all();
        }
    }

    /// In-place all-reduce (mean) over bucket `id`, with the `1/world`
    /// scale fused into the final accumulation pass exactly as in
    /// [`Communicator::all_reduce_mean`] — results are bitwise identical
    /// to the flat collective over the same elements.
    pub fn all_reduce_mean_bucket(&mut self, id: u64, data: &mut [f32]) -> Result<(), CommError> {
        let w = self.world();
        if w == 1 {
            return Ok(());
        }
        let _span = matgnn_telemetry::span("comm.bucket_reduce");
        let inner = Arc::clone(&self.inner);
        let mut st = self.stage_and_await(&inner, id, data)?;
        let inv = 1.0 / w as f32;
        for r in 0..w {
            let slot = st.buckets.get(&id).expect("bucket session vanished");
            let got = slot.contributions[r]
                .as_ref()
                .expect("missing contribution")
                .len();
            if got != data.len() {
                return Err(self.length_mismatch(&mut st, data.len(), got));
            }
            let slot = st.buckets.get(&id).expect("bucket session vanished");
            let other = slot.contributions[r]
                .as_ref()
                .expect("missing contribution");
            if r == 0 {
                data.copy_from_slice(other);
            } else if r == w - 1 {
                for (d, &o) in data.iter_mut().zip(other.iter()) {
                    *d = (*d + o) * inv;
                }
            } else {
                for (d, &o) in data.iter_mut().zip(other.iter()) {
                    *d += o;
                }
            }
        }
        self.retire(&mut st, id);
        drop(st);
        let payload = (data.len() * 4) as u64;
        self.account(payload * 2 * (w as u64 - 1) / w as u64);
        Ok(())
    }

    /// Reduce (sum) bucket `id` to `root`: every rank contributes, only
    /// `root`'s `data` is overwritten with the element-wise sum,
    /// accumulated in canonical rank order — bitwise the same sum every
    /// other reduction collective computes. Non-root buffers are left
    /// untouched. Per-rank traffic is `(w−1)/w` of the payload, the
    /// ring-reduce cost.
    pub fn reduce_sum_bucket(
        &mut self,
        id: u64,
        data: &mut [f32],
        root: usize,
    ) -> Result<(), CommError> {
        let w = self.world();
        if w == 1 {
            return Ok(());
        }
        let _span = matgnn_telemetry::span("comm.bucket_reduce");
        let inner = Arc::clone(&self.inner);
        let mut st = self.stage_and_await(&inner, id, data)?;
        if self.rank == root {
            for r in 0..w {
                let slot = st.buckets.get(&id).expect("bucket session vanished");
                let got = slot.contributions[r]
                    .as_ref()
                    .expect("missing contribution")
                    .len();
                if got != data.len() {
                    return Err(self.length_mismatch(&mut st, data.len(), got));
                }
                let slot = st.buckets.get(&id).expect("bucket session vanished");
                let other = slot.contributions[r]
                    .as_ref()
                    .expect("missing contribution");
                if r == 0 {
                    data.copy_from_slice(other);
                } else {
                    for (d, &o) in data.iter_mut().zip(other.iter()) {
                        *d += o;
                    }
                }
            }
        }
        self.retire(&mut st, id);
        drop(st);
        let payload = (data.len() * 4) as u64;
        self.account(payload * (w as u64 - 1) / w as u64);
        Ok(())
    }

    /// Poisons the group because a peer's contribution length disagrees
    /// with ours (mirrors [`Communicator`]'s handling).
    fn length_mismatch(&mut self, st: &mut GroupState, expected: usize, got: usize) -> CommError {
        st.poisoned = true;
        self.inner.cv.notify_all();
        self.defunct = true;
        CommError::LengthMismatch {
            rank: self.rank,
            expected,
            got,
        }
    }
}

impl Drop for BucketComm {
    fn drop(&mut self) {
        // Same contract as `Communicator`: a comm thread that dies by
        // panic must not leave peers blocked on its buckets.
        if std::thread::panicking() && !self.defunct {
            let mut st = self.inner.lock();
            st.failed[self.rank] = true;
            st.poisoned = true;
            self.inner.cv.notify_all();
        }
    }
}

impl std::fmt::Debug for BucketComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BucketComm")
            .field("rank", &self.rank)
            .field("world", &self.world())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgnn_tensor::Runtime;
    use std::thread;

    /// Runs `f` on every rank of a fresh world and collects results by
    /// rank.
    fn run_world<T: Send>(world: usize, f: impl Fn(Communicator) -> T + Sync) -> Vec<T> {
        let comms = Communicator::create(world, CostModel::default());
        let mut out: Vec<Option<T>> = (0..world).map(|_| None).collect();
        thread::scope(|scope| {
            let mut handles = Vec::new();
            for comm in comms {
                let f = &f;
                handles.push(scope.spawn(move || (comm.rank(), f(comm))));
            }
            for h in handles {
                let (rank, val) = h.join().expect("rank panicked");
                out[rank] = Some(val);
            }
        });
        out.into_iter()
            .map(|v| v.expect("missing rank result"))
            .collect()
    }

    #[test]
    fn shard_ranges_partition() {
        for (len, world) in [(10, 3), (7, 7), (5, 8), (0, 2), (16, 4)] {
            let mut covered = 0;
            for r in 0..world {
                let (s, e) = shard_range(len, world, r);
                assert_eq!(s, covered.min(len));
                covered = e;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn all_reduce_sums_across_ranks() {
        let results = run_world(4, |mut comm| {
            let mut v = vec![comm.rank() as f32; 5];
            comm.all_reduce_sum(&mut v).unwrap();
            v
        });
        for v in results {
            assert_eq!(v, vec![6.0; 5]); // 0+1+2+3
        }
    }

    #[test]
    fn all_reduce_mean_divides() {
        let results = run_world(4, |mut comm| {
            let mut v = vec![(comm.rank() * 4) as f32];
            comm.all_reduce_mean(&mut v).unwrap();
            v[0]
        });
        for v in results {
            assert_eq!(v, 6.0); // (0+4+8+12)/4
        }
    }

    #[test]
    fn reduce_scatter_gives_summed_shards() {
        let results = run_world(3, |mut comm| {
            let data: Vec<f32> = (0..9).map(|i| (i + comm.rank()) as f32).collect();
            comm.reduce_scatter_sum(&data).unwrap()
        });
        // Sum over ranks of (i + r) = 3i + 3.
        for (rank, shard) in results.iter().enumerate() {
            let (s, e) = shard_range(9, 3, rank);
            let expect: Vec<f32> = (s..e).map(|i| 3.0 * i as f32 + 3.0).collect();
            assert_eq!(shard, &expect);
        }
    }

    #[test]
    fn all_gather_concatenates() {
        let results = run_world(4, |mut comm| {
            let (s, e) = shard_range(10, 4, comm.rank());
            let shard: Vec<f32> = (s..e).map(|i| i as f32).collect();
            comm.all_gather(&shard, 10).unwrap()
        });
        let expect: Vec<f32> = (0..10).map(|i| i as f32).collect();
        for v in results {
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn reduce_scatter_then_all_gather_equals_all_reduce() {
        let results = run_world(4, |mut comm| {
            let data: Vec<f32> = (0..13).map(|i| (i * (comm.rank() + 1)) as f32).collect();
            let shard = comm.reduce_scatter_sum(&data).unwrap();
            let gathered = comm.all_gather(&shard, 13).unwrap();
            let mut reduced = data.clone();
            comm.all_reduce_sum(&mut reduced).unwrap();
            (gathered, reduced)
        });
        for (gathered, reduced) in results {
            assert_eq!(gathered, reduced);
        }
    }

    #[test]
    fn broadcast_from_root() {
        let results = run_world(3, |mut comm| {
            let mut data = if comm.rank() == 1 {
                vec![7.0, 8.0]
            } else {
                vec![0.0, 0.0]
            };
            comm.broadcast(&mut data, 1).unwrap();
            data
        });
        for v in results {
            assert_eq!(v, vec![7.0, 8.0]);
        }
    }

    #[test]
    fn traffic_accounted() {
        let results = run_world(2, |mut comm| {
            let mut v = vec![0.0f32; 100];
            comm.all_reduce_sum(&mut v).unwrap();
            comm.stats()
        });
        for stats in results {
            assert_eq!(stats.collectives, 1);
            // 2·(w−1)/w·400 = 400 bytes for w=2.
            assert_eq!(stats.bytes_moved, 400);
            assert!(stats.modeled_seconds > 0.0);
        }
    }

    #[test]
    fn world_of_one_is_noop() {
        let mut comm = Communicator::create(1, CostModel::default()).pop().unwrap();
        let mut v = vec![3.0];
        comm.all_reduce_sum(&mut v).unwrap();
        assert_eq!(v, vec![3.0]);
        assert_eq!(comm.stats().bytes_moved, 0);
    }

    #[test]
    fn repeated_collectives_do_not_deadlock() {
        let results = run_world(3, |mut comm| {
            let mut acc = 0.0;
            for i in 0..10 {
                let mut v = vec![i as f32 + comm.rank() as f32];
                comm.all_reduce_sum(&mut v).unwrap();
                acc += v[0];
            }
            acc
        });
        let first = results[0];
        for v in results {
            assert_eq!(v, first);
        }
    }

    #[test]
    fn fused_mean_matches_sum_then_scale_bitwise() {
        for world in [2, 3, 4, 5] {
            let results = run_world(world, |mut comm| {
                let data: Vec<f32> = (0..37)
                    .map(|i| ((i * 37 + comm.rank() * 101) as f32).sin() * 3.7)
                    .collect();
                let mut fused = data.clone();
                comm.all_reduce_mean(&mut fused).unwrap();
                let mut manual = data;
                comm.all_reduce_sum(&mut manual).unwrap();
                let inv = 1.0 / comm.world() as f32;
                manual.iter_mut().for_each(|x| *x *= inv);
                (fused, manual)
            });
            for (fused, manual) in results {
                let fb: Vec<u32> = fused.iter().map(|x| x.to_bits()).collect();
                let mb: Vec<u32> = manual.iter().map(|x| x.to_bits()).collect();
                assert_eq!(fb, mb, "fused mean diverged at world {world}");
            }
        }
    }

    #[test]
    fn bucketed_all_reduce_matches_flat_bitwise() {
        // Split one vector into uneven buckets, reduce each through the
        // bucket path on a comm thread pace of its own, and compare with
        // the flat all-reduce over the whole vector.
        let results = run_world(4, |mut comm| {
            let data: Vec<f32> = (0..25)
                .map(|i| ((i + 3 * comm.rank()) as f32).cos() * 1.3)
                .collect();
            let mut flat = data.clone();
            comm.all_reduce_mean(&mut flat).unwrap();
            let mut bucketed = data;
            let mut handle = comm.bucket_handle();
            let bounds = [0usize, 7, 16, 25];
            for b in 0..bounds.len() - 1 {
                handle
                    .all_reduce_mean_bucket(b as u64, &mut bucketed[bounds[b]..bounds[b + 1]])
                    .unwrap();
            }
            comm.absorb(handle.stats());
            (flat, bucketed, comm.stats())
        });
        for (flat, bucketed, stats) in results {
            let fb: Vec<u32> = flat.iter().map(|x| x.to_bits()).collect();
            let bb: Vec<u32> = bucketed.iter().map(|x| x.to_bits()).collect();
            assert_eq!(fb, bb, "bucketed all-reduce diverged from flat");
            // One flat collective plus three bucket collectives; both
            // paths move 2·(w−1)/w of a 100-byte payload → 150 each.
            assert_eq!(stats.collectives, 4);
            assert_eq!(stats.bytes_moved, 300);
        }
    }

    #[test]
    fn bucket_sessions_tolerate_uneven_pacing() {
        // Ranks issue the same bucket sequence at very different speeds;
        // per-id rendezvous (rather than a generation barrier) pairs the
        // sessions up correctly even when several are in flight.
        let results = run_world(3, |comm| {
            let mut handle = comm.bucket_handle();
            let mut out = Vec::new();
            for id in 0..6u64 {
                if comm.rank() == 1 {
                    thread::sleep(Duration::from_millis(5));
                }
                let mut v = vec![(comm.rank() as f32) + id as f32; 2];
                handle.all_reduce_mean_bucket(id, &mut v).unwrap();
                out.push(v[0]);
            }
            out
        });
        for out in results {
            let expect: Vec<f32> = (0..6).map(|id| 1.0 + id as f32).collect(); // mean of r+id
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn reduce_sum_bucket_delivers_to_root_only() {
        let results = run_world(3, |comm| {
            let mut handle = comm.bucket_handle();
            let mut v = vec![(comm.rank() + 1) as f32; 4];
            handle.reduce_sum_bucket(7, &mut v, 1).unwrap();
            v
        });
        assert_eq!(results[0], vec![1.0; 4]); // untouched
        assert_eq!(results[1], vec![6.0; 4]); // 1+2+3
        assert_eq!(results[2], vec![3.0; 4]); // untouched
    }

    #[test]
    fn length_mismatch_is_typed_and_poisons_group() {
        let comms =
            Communicator::create_with_timeout(2, CostModel::default(), Duration::from_secs(10));
        let results = thread::scope(|scope| {
            let mut handles = Vec::new();
            for mut comm in comms {
                handles.push(scope.spawn(move || {
                    let mut v = vec![0.5f32; 3 + comm.rank()]; // rank 1 is longer
                    let first = comm.all_reduce_sum(&mut v);
                    let mut later = vec![0.0f32; 3];
                    let second = comm.all_reduce_sum(&mut later);
                    (first, second)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        let mismatches = results
            .iter()
            .filter(|(first, _)| {
                matches!(
                    first,
                    Err(CommError::LengthMismatch { .. }) | Err(CommError::Poisoned)
                )
            })
            .count();
        assert_eq!(mismatches, 2, "both ranks must fail: {results:?}");
        assert!(
            results
                .iter()
                .any(|(first, _)| matches!(first, Err(CommError::LengthMismatch { .. }))),
            "at least one rank must report the typed mismatch: {results:?}"
        );
        // The group is poisoned: later collectives fail fast.
        for (_, second) in results {
            assert!(second.is_err(), "poisoned group must reject later calls");
        }
    }

    #[test]
    fn collectives_recycle_staging_buffers() {
        let results = run_world(2, |mut comm| {
            let _rt = Runtime::current().with_recycler(true).enter();
            // Warm the pool, then measure a steady-state collective.
            let mut v = vec![1.0f32; 256];
            comm.all_reduce_sum(&mut v).unwrap();
            let before = recycler::stats();
            let mut w = vec![2.0f32; 256];
            comm.all_reduce_sum(&mut w).unwrap();
            recycler::stats().delta_since(&before)
        });
        let total_hits: u64 = results.iter().map(|d| d.hits).sum();
        assert!(
            total_hits >= 2,
            "steady-state staging buffers must come from the pool: {results:?}"
        );
    }

    // ---------------- failure-path tests ----------------

    #[test]
    fn missing_rank_times_out_instead_of_hanging() {
        let mut comms =
            Communicator::create_with_timeout(2, CostModel::default(), Duration::from_millis(50));
        let _absent = comms.pop().unwrap(); // rank 1 never participates
        let mut comm = comms.pop().unwrap();
        let mut v = vec![1.0f32];
        let err = comm.all_reduce_sum(&mut v).unwrap_err();
        assert!(
            matches!(err, CommError::Timeout { rank: 0, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn marked_failure_wakes_blocked_peers() {
        let comms = Communicator::create_with_timeout(
            3,
            CostModel::default(),
            Duration::from_secs(10), // long: the wake must come from the failure, not timeout
        );
        let mut out = Vec::new();
        thread::scope(|scope| {
            let mut handles = Vec::new();
            for mut comm in comms {
                handles.push(scope.spawn(move || {
                    if comm.rank() == 2 {
                        thread::sleep(Duration::from_millis(20));
                        comm.mark_failed();
                        return None;
                    }
                    let mut v = vec![comm.rank() as f32];
                    Some(comm.all_reduce_sum(&mut v))
                }));
            }
            for h in handles {
                out.push(h.join().unwrap());
            }
        });
        for res in out.into_iter().flatten() {
            assert_eq!(res.unwrap_err(), CommError::RankFailed(2));
        }
    }

    #[test]
    fn poisoned_group_fails_fast_on_later_calls() {
        let mut comms =
            Communicator::create_with_timeout(2, CostModel::default(), Duration::from_secs(5));
        comms[1].mark_failed();
        let mut comm = comms.swap_remove(0);
        let start = Instant::now();
        let mut v = vec![0.0f32];
        assert_eq!(
            comm.all_reduce_sum(&mut v).unwrap_err(),
            CommError::RankFailed(1)
        );
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "poisoned call must not block"
        );
    }

    #[test]
    fn panicking_rank_poisons_group_via_drop() {
        let comms =
            Communicator::create_with_timeout(2, CostModel::default(), Duration::from_secs(10));
        let mut results = Vec::new();
        thread::scope(|scope| {
            let mut handles = Vec::new();
            for mut comm in comms {
                handles.push(scope.spawn(move || {
                    if comm.rank() == 1 {
                        panic!("simulated crash");
                    }
                    let mut v = vec![1.0f32];
                    comm.all_reduce_sum(&mut v)
                }));
            }
            for (rank, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(res) => results.push(res),
                    Err(_) => assert_eq!(rank, 1, "only the crashing rank may panic"),
                }
            }
        });
        assert_eq!(results, vec![Err(CommError::RankFailed(1))]);
    }

    #[test]
    fn survivors_reform_smaller_group() {
        let comms =
            Communicator::create_with_timeout(4, CostModel::default(), Duration::from_millis(500));
        let results = thread::scope(|scope| {
            let mut handles = Vec::new();
            for mut comm in comms {
                handles.push(scope.spawn(move || {
                    if comm.rank() == 1 {
                        comm.mark_failed();
                        return None;
                    }
                    let old_rank = comm.rank();
                    let mut v = vec![old_rank as f32];
                    comm.all_reduce_sum(&mut v).unwrap_err();
                    let mut small = comm
                        .split_survivors(Duration::from_secs(5))
                        .expect("survivors assemble");
                    let mut v = vec![1.0f32];
                    small.all_reduce_sum(&mut v).unwrap();
                    Some((old_rank, small.rank(), small.world(), v[0]))
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        let survivors: Vec<_> = results.into_iter().flatten().collect();
        assert_eq!(survivors.len(), 3);
        for (old_rank, new_rank, world, sum) in survivors {
            assert_eq!(world, 3);
            assert_eq!(sum, 3.0);
            // Old ranks 0,2,3 renumber to 0,1,2.
            let expect_new = match old_rank {
                0 => 0,
                2 => 1,
                3 => 2,
                _ => unreachable!(),
            };
            assert_eq!(new_rank, expect_new);
        }
    }

    #[test]
    fn split_carries_traffic_stats() {
        let comms =
            Communicator::create_with_timeout(2, CostModel::default(), Duration::from_millis(200));
        let results = thread::scope(|scope| {
            let mut handles = Vec::new();
            for mut comm in comms {
                handles.push(scope.spawn(move || {
                    let mut v = vec![0.0f32; 100];
                    comm.all_reduce_sum(&mut v).unwrap();
                    if comm.rank() == 1 {
                        comm.mark_failed();
                        return None;
                    }
                    // Rank 0 discovers the failure on its next collective.
                    comm.barrier().unwrap_err();
                    let small = comm.split_survivors(Duration::from_secs(5)).unwrap();
                    Some((small.world(), small.stats().bytes_moved))
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        let survivor = results.into_iter().flatten().next().unwrap();
        assert_eq!(survivor, (1, 400));
    }
}
