//! A process-wide persistent worker pool for the numeric kernels.
//!
//! Every parallel kernel in this crate used to pay a per-call
//! `std::thread::scope` spawn (tens of microseconds per matmul). This
//! module replaces that with workers that are spawned **once**, parked on a
//! condvar, and handed chunked jobs for the rest of the process lifetime.
//!
//! ## Sizing
//!
//! Kernels split work for [`num_threads`], resolved per thread (each job
//! runs under its submitter's [`Runtime`]) in order of precedence:
//!
//! 1. a [`Runtime`] scope on the thread (tests and benchmarks; may exceed
//!    the core count to exercise the parallel paths on small machines),
//! 2. [`set_thread_override`], the process default's pool size,
//! 3. the `MATGNN_THREADS` environment variable,
//! 4. [`std::thread::available_parallelism`].
//!
//! ## Determinism
//!
//! Chunk **boundaries** are a pure function of the problem shape and
//! [`num_threads`] (see [`chunk_ranges`]); which OS thread executes which
//! chunk is dynamic (an atomic ticket), but every kernel built on this
//! module writes each output element from exactly one chunk using the same
//! per-element operation order as the serial code. Results are therefore
//! **bitwise identical** for *every* thread count, including 1 — the
//! property the checkpoint/resume guarantee of the trainer relies on, and
//! the one `tests/parallel_determinism.rs` asserts kernel by kernel.
//! The [`crate::simd`] tiers layer *under* this chunking and compute the
//! same bits as each other, so the guarantee holds on every tier (see the
//! `simd` module docs).
//!
//! ## Blocking and panics
//!
//! [`parallel_for`] blocks the calling thread until every chunk has run
//! (the caller participates in the work, so a pool of size `n` uses
//! `n − 1` spawned workers). A panic inside a chunk is caught on the
//! worker, carried back, and re-raised on the calling thread after the
//! remaining chunks finish — borrowed data never outlives the call.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use crate::runtime::{self, Runtime};

/// Locks ignoring poisoning: a panicked chunk is already carried to the
/// submitter through the job's panic slot, so the lock's own poison bit
/// adds nothing.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The pool size kernels on this thread split work for: the `threads`
/// of [`Runtime::current`].
#[inline]
pub fn num_threads() -> usize {
    Runtime::current().threads
}

pub use crate::runtime::set_thread_override;

/// Lifetime totals of pool activity, absorbed into the telemetry
/// registry by [`publish_telemetry`]. Relaxed atomics: these are
/// counters for reporting, not synchronization.
static JOBS_SUBMITTED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static CHUNKS_SUBMITTED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Jobs handed to the pool so far, process-wide: a kernel that stayed
/// serial under its size threshold adds none.
pub fn jobs_submitted() -> u64 {
    JOBS_SUBMITTED.load(Ordering::Relaxed)
}

/// Publishes the pool's task counts and resolved size into the
/// process-wide telemetry metrics registry (`pool.*`).
pub fn publish_telemetry() {
    matgnn_telemetry::counter_set("pool.jobs", JOBS_SUBMITTED.load(Ordering::Relaxed));
    matgnn_telemetry::counter_set("pool.chunks", CHUNKS_SUBMITTED.load(Ordering::Relaxed));
    matgnn_telemetry::gauge_set("pool.threads", num_threads() as f64);
}

// ----------------------------------------------------------------------
// Pool internals
// ----------------------------------------------------------------------

/// One submitted job: a lifetime-erased chunk function plus its progress
/// counters. Clones share the counters, so late-arriving workers and the
/// submitter drain the same ticket stream.
#[derive(Clone)]
struct ActiveJob {
    /// The chunk body. Points into the submitting thread's stack; valid
    /// because the submitter blocks until `done == n_chunks`.
    f: *const (dyn Fn(usize) + Sync),
    n_chunks: usize,
    /// Ticket dispenser: the next chunk index to claim.
    next: Arc<AtomicUsize>,
    /// Chunks fully executed.
    done: Arc<AtomicUsize>,
    /// First panic payload raised by a chunk, if any.
    panic: Arc<Mutex<Option<Box<dyn Any + Send>>>>,
    /// Telemetry rank of the submitting thread; workers adopt it while
    /// draining this job so their spans attribute to the logical rank
    /// that asked for the work (the pool is shared across DDP ranks).
    rank: i64,
    /// Runtime scope of the submitting thread, adopted the same way, so
    /// chunks dispatch to the submitter's SIMD tier and recycler setting.
    runtime: Option<Runtime>,
}

// SAFETY: the raw fn pointer targets a `Sync` closure that the submitting
// thread keeps alive until the job completes (it blocks on `done`).
unsafe impl Send for ActiveJob {}

struct JobSlot {
    /// Bumped once per submission so parked workers can tell a fresh job
    /// from the one they just finished.
    generation: u64,
    job: Option<ActiveJob>,
}

struct Shared {
    slot: Mutex<JobSlot>,
    /// Workers park here waiting for a new generation.
    work_cv: Condvar,
    /// Submitters park here waiting for their job's last chunk.
    done_cv: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    /// Number of workers spawned so far (grown on demand).
    spawned: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        shared: Arc::new(Shared {
            slot: Mutex::new(JobSlot {
                generation: 0,
                job: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }),
        spawned: Mutex::new(0),
    })
}

impl Pool {
    fn ensure_workers(&self, want: usize) {
        let mut n = lock(&self.spawned);
        while *n < want {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name(format!("matgnn-pool-{n}", n = *n))
                .spawn(move || worker_loop(shared))
                .expect("failed to spawn pool worker");
            *n += 1;
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut slot = lock(&shared.slot);
            loop {
                if slot.generation != seen {
                    seen = slot.generation;
                    if let Some(job) = slot.job.clone() {
                        break job;
                    }
                }
                slot = shared.work_cv.wait(slot).unwrap_or_else(|e| e.into_inner());
            }
        };
        drain_chunks(&shared, &job);
    }
}

/// Claims and runs chunk tickets until the job is exhausted.
fn drain_chunks(shared: &Shared, job: &ActiveJob) {
    // Attribute any spans emitted inside chunks to the submitting rank
    // (a no-op for the submitter itself, which already carries it).
    let _rank = matgnn_telemetry::RankScope::adopt(job.rank);
    let _runtime = job.runtime.map(Runtime::enter);
    // SAFETY: the submitter keeps the closure alive until `done` reaches
    // `n_chunks`, which cannot happen before every claimed ticket (ours
    // included) has finished executing.
    let f = unsafe { &*job.f };
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.n_chunks {
            return;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
            let mut slot = lock(&job.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        if job.done.fetch_add(1, Ordering::AcqRel) + 1 == job.n_chunks {
            // Lock before notifying so the submitter cannot check the
            // predicate and park between our increment and our notify.
            let _guard = lock(&shared.slot);
            shared.done_cv.notify_all();
        }
    }
}

fn run_on_pool(n_chunks: usize, threads: usize, f: &(dyn Fn(usize) + Sync)) {
    let pool = pool();
    pool.ensure_workers(threads.min(n_chunks).saturating_sub(1));
    // SAFETY: erases the borrow lifetime from the job pointer. Sound
    // because this function does not return until `done == n_chunks`,
    // i.e. until no worker can touch `f` again.
    let f: *const (dyn Fn(usize) + Sync + 'static) =
        unsafe { std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), _>(f) };
    JOBS_SUBMITTED.fetch_add(1, Ordering::Relaxed);
    CHUNKS_SUBMITTED.fetch_add(n_chunks as u64, Ordering::Relaxed);
    let job = ActiveJob {
        f,
        n_chunks,
        next: Arc::new(AtomicUsize::new(0)),
        done: Arc::new(AtomicUsize::new(0)),
        panic: Arc::new(Mutex::new(None)),
        rank: matgnn_telemetry::rank_raw(),
        runtime: runtime::scope_raw(),
    };
    {
        let mut slot = lock(&pool.shared.slot);
        slot.generation = slot.generation.wrapping_add(1);
        slot.job = Some(job.clone());
        pool.shared.work_cv.notify_all();
    }
    // The submitter works too; its drain only returns once the ticket
    // stream is exhausted, but other workers may still be mid-chunk.
    drain_chunks(&pool.shared, &job);
    {
        let mut slot = lock(&pool.shared.slot);
        while job.done.load(Ordering::Acquire) < job.n_chunks {
            slot = pool
                .shared
                .done_cv
                .wait(slot)
                .unwrap_or_else(|e| e.into_inner());
        }
        if slot
            .job
            .as_ref()
            .is_some_and(|j| Arc::ptr_eq(&j.done, &job.done))
        {
            slot.job = None;
        }
    }
    let payload = lock(&job.panic).take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

// ----------------------------------------------------------------------
// Public chunked-execution API
// ----------------------------------------------------------------------

/// Runs `f(0), f(1), …, f(n_chunks − 1)` across the pool and blocks until
/// all have completed. Falls back to a serial loop when the pool size is 1
/// or there is only one chunk. Chunks must touch disjoint data (or only
/// read shared data); the chunk-to-thread assignment is unspecified.
pub fn parallel_for(n_chunks: usize, f: impl Fn(usize) + Sync) {
    if n_chunks == 0 {
        return;
    }
    let threads = num_threads().min(n_chunks);
    if threads <= 1 {
        for i in 0..n_chunks {
            f(i);
        }
        return;
    }
    run_on_pool(n_chunks, threads, &f);
}

/// Splits `n_items` items into at most `max_chunks` contiguous ranges,
/// each a multiple of `granule` items long (except possibly the last).
///
/// This is the **deterministic split**: a pure function of
/// `(n_items, granule, max_chunks)` with no dependence on timing, so two
/// runs with the same shapes and pool size chunk identically.
///
/// # Panics
///
/// Panics if `granule` is 0 or does not divide `n_items`.
pub fn chunk_ranges(n_items: usize, granule: usize, max_chunks: usize) -> Vec<Range<usize>> {
    assert!(granule > 0, "chunk granule must be positive");
    assert!(
        n_items.is_multiple_of(granule),
        "chunk granule {granule} does not divide {n_items} items"
    );
    if n_items == 0 {
        return Vec::new();
    }
    let n_granules = n_items / granule;
    let chunks = max_chunks.clamp(1, n_granules);
    let per = n_granules.div_ceil(chunks) * granule;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    while start < n_items {
        let end = (start + per).min(n_items);
        out.push(start..end);
        start = end;
    }
    out
}

/// Splits `data` into granule-aligned chunks (one per pool thread) and
/// runs `f(start_index, chunk)` for each, in parallel. The chunks are
/// disjoint `&mut` views, so `f` may write freely; `start_index` is the
/// chunk's offset into `data` for locating the matching region of any
/// read-only operands.
///
/// # Panics
///
/// Panics if `granule` is 0 or does not divide `data.len()`.
pub fn for_each_chunk_mut(data: &mut [f32], granule: usize, f: impl Fn(usize, &mut [f32]) + Sync) {
    if data.is_empty() {
        return;
    }
    let threads = num_threads();
    if threads <= 1 {
        f(0, data);
        return;
    }
    let ranges = chunk_ranges(data.len(), granule, threads);
    if ranges.len() <= 1 {
        f(0, data);
        return;
    }
    let base = SendPtr::new(data);
    parallel_for(ranges.len(), |i| {
        let r = ranges[i].clone();
        // SAFETY: `ranges` partitions `data`, so concurrent chunks are
        // disjoint; `data`'s borrow outlives this call.
        f(r.start, unsafe { base.slice(r) });
    });
}

/// Runs `f` over a granule-aligned partition of `0..n_items`, one range
/// per pool thread. Used by kernels that update several parallel buffers
/// at once (e.g. the Adam moment/parameter triple) via [`SendPtr`].
///
/// # Panics
///
/// Panics if `granule` is 0 or does not divide `n_items`.
pub fn parallel_ranges(n_items: usize, granule: usize, f: impl Fn(Range<usize>) + Sync) {
    if n_items == 0 {
        return;
    }
    let threads = num_threads();
    if threads <= 1 {
        f(0..n_items);
        return;
    }
    let ranges = chunk_ranges(n_items, granule, threads);
    if ranges.len() <= 1 {
        f(0..n_items);
        return;
    }
    parallel_for(ranges.len(), |i| f(ranges[i].clone()));
}

/// A mutable `f32` buffer pointer that may cross thread boundaries, for
/// kernels that slice several buffers by the same disjoint ranges.
#[derive(Copy, Clone)]
pub struct SendPtr {
    ptr: *mut f32,
    len: usize,
}

// SAFETY: sending the raw pointer is safe; all dereferencing goes through
// the `unsafe fn slice`, whose caller guarantees disjointness.
unsafe impl Send for SendPtr {}
// SAFETY: a shared `&SendPtr` only copies the pointer and length out; the
// one way to reach the buffer is the `unsafe fn slice`, whose caller
// guarantees that the ranges handed to concurrent threads are disjoint.
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Captures `data`'s pointer and length.
    pub fn new(data: &mut [f32]) -> SendPtr {
        SendPtr {
            ptr: data.as_mut_ptr(),
            len: data.len(),
        }
    }

    /// Reborrows the sub-range `r` as a mutable slice.
    ///
    /// # Safety
    ///
    /// Concurrent calls must use disjoint ranges, and the returned slice
    /// must not outlive the borrow `new` was constructed from (it is
    /// only nominally `'static`).
    ///
    /// # Panics
    ///
    /// Panics if `r` exceeds the captured length.
    pub unsafe fn slice(self, r: Range<usize>) -> &'static mut [f32] {
        assert!(r.end <= self.len && r.start <= r.end, "SendPtr range");
        std::slice::from_raw_parts_mut(self.ptr.add(r.start), r.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_partition_and_are_pure() {
        for &(n, g, c) in &[
            (12usize, 3usize, 4usize),
            (100, 1, 7),
            (8, 8, 3),
            (30, 3, 4),
        ] {
            let a = chunk_ranges(n, g, c);
            let b = chunk_ranges(n, g, c);
            assert_eq!(a, b, "split not pure for {n}/{g}/{c}");
            assert!(a.len() <= c);
            let mut next = 0;
            for r in &a {
                assert_eq!(r.start, next, "gap in partition");
                assert!(r.start < r.end);
                // All but the final range are granule multiples.
                if r.end != n {
                    assert_eq!((r.end - r.start) % g, 0);
                }
                next = r.end;
            }
            assert_eq!(next, n, "partition does not cover all items");
        }
        assert!(chunk_ranges(0, 4, 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "does not divide")]
    fn chunk_ranges_rejects_misaligned_granule() {
        let _ = chunk_ranges(10, 3, 2);
    }

    #[test]
    fn parallel_for_covers_every_chunk_exactly_once() {
        let _rt = Runtime::current().with_threads(4).enter();
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(64, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "chunk {i} ran wrong count");
        }
    }

    #[test]
    fn for_each_chunk_mut_writes_disjoint_ranges() {
        let _rt = Runtime::current().with_threads(3).enter();
        let mut data = vec![0.0f32; 97];
        for_each_chunk_mut(&mut data, 1, |start, chunk| {
            for (k, x) in chunk.iter_mut().enumerate() {
                *x = (start + k) as f32;
            }
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i as f32);
        }
    }

    #[test]
    fn pool_reuses_workers_across_many_small_jobs() {
        let _rt = Runtime::current().with_threads(2).enter();
        let counter = AtomicUsize::new(0);
        for _ in 0..200 {
            parallel_for(4, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 800);
    }

    #[test]
    fn panics_inside_chunks_propagate_to_the_caller() {
        let _rt = Runtime::current().with_threads(2).enter();
        let result = std::panic::catch_unwind(|| {
            parallel_for(8, |i| {
                assert!(i != 5, "boom at chunk 5");
            });
        });
        assert!(result.is_err(), "panic was swallowed by the pool");
    }
}
