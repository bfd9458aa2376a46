//! Process-wide recycling of tensor buffers.
//!
//! Steady-state training allocates and frees the same multiset of buffer
//! sizes every step: forward activations, adjoints, gradient accumulators,
//! optimizer scratch. The recycler keeps those buffers on a size-bucketed
//! free list instead of handing them back to the system allocator, so after
//! a warm-up step the hot loop runs with near-zero allocator traffic.
//!
//! Design notes:
//!
//! * Whole `Arc<Vec<f32>>` handles are pooled, not bare `Vec`s. Every
//!   [`Tensor`](crate::Tensor) wraps its buffer in an `Arc`, so recycling
//!   only the `Vec` would still cost one `ArcInner` allocation per tensor
//!   op and cap the reduction near 50 %.
//! * Buffers are bucketed by power-of-two capacity class. [`acquire`]
//!   looks in the one class whose members are guaranteed to satisfy
//!   `capacity >= n`; fresh allocations round capacity up to the next
//!   power of two so a buffer returns to exactly the bucket it will later
//!   be served from.
//! * A buffer is accepted back only while its `Arc` is uniquely owned
//!   (strong == 1, weak == 0), so a pooled buffer can never alias live
//!   tensor data. Shared handles just drop normally.
//! * A buffer whose data pointer is already present in its bucket is a
//!   *poisoned* double return (a refcount bug upstream). It is counted,
//!   and the duplicate handle is leaked rather than dropped — leaking is
//!   the only response that cannot double-free.
//! * The recycler sits *below* [`MemoryTracker`](crate::MemoryTracker):
//!   logical byte accounting is done by the tape/optimizer at the same
//!   points as before, so Fig. 6-style memory profiles are unchanged.
//!
//! Whether a thread recycles is the `recycler` of its
//! [`Runtime`], resolved in order of precedence: a [`Runtime`] scope on
//! the thread (tests and benchmarks), then `MATGNN_RECYCLER=off|on`,
//! read once, then on. Results are bitwise identical either way: every
//! recycled buffer is fully re-initialised before a kernel reads it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::runtime::Runtime;

/// Number of power-of-two capacity classes (class `b` holds capacities in
/// `[2^b, 2^(b+1))`). 40 classes cover buffers up to ~4 TiB of `f32`s.
const NUM_BUCKETS: usize = 40;

/// Per-bucket retention limit; buffers returned beyond this just drop.
/// Bounds pool growth if the workload's size distribution shifts.
const BUCKET_CAP: usize = 1024;

/// Counter snapshot for the recycler (see [`stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecyclerStats {
    /// `acquire` calls served from the free list.
    pub hits: u64,
    /// `acquire` calls that fell through to a fresh allocation.
    pub misses: u64,
    /// Buffers accepted back onto the free list.
    pub released: u64,
    /// Returns declined because the handle was still shared or the bucket
    /// was full; the buffer dropped normally.
    pub rejected: u64,
    /// Double returns of a buffer already on the free list (leaked, never
    /// pooled twice).
    pub poisoned: u64,
    /// Total requested bytes served from recycled buffers.
    pub bytes_reused: u64,
}

impl RecyclerStats {
    /// Counter increments since an `earlier` snapshot.
    pub fn delta_since(&self, earlier: &RecyclerStats) -> RecyclerStats {
        RecyclerStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            released: self.released.saturating_sub(earlier.released),
            rejected: self.rejected.saturating_sub(earlier.rejected),
            poisoned: self.poisoned.saturating_sub(earlier.poisoned),
            bytes_reused: self.bytes_reused.saturating_sub(earlier.bytes_reused),
        }
    }
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    released: AtomicU64,
    rejected: AtomicU64,
    poisoned: AtomicU64,
    bytes_reused: AtomicU64,
}

static COUNTERS: Counters = Counters {
    hits: AtomicU64::new(0),
    misses: AtomicU64::new(0),
    released: AtomicU64::new(0),
    rejected: AtomicU64::new(0),
    poisoned: AtomicU64::new(0),
    bytes_reused: AtomicU64::new(0),
};

/// One free list per power-of-two size class.
type Buckets = Vec<Vec<Arc<Vec<f32>>>>;

fn buckets() -> &'static Mutex<Buckets> {
    static BUCKETS: OnceLock<Mutex<Buckets>> = OnceLock::new();
    BUCKETS.get_or_init(|| Mutex::new(vec![Vec::new(); NUM_BUCKETS]))
}

/// Whether buffer recycling is active on this thread: the `recycler` of
/// [`Runtime::current`].
#[inline]
pub fn enabled() -> bool {
    Runtime::current().recycler
}

/// Capacity class that *stores* a buffer of capacity `cap` (floor log2).
fn class_of_capacity(cap: usize) -> Option<usize> {
    if cap == 0 {
        None
    } else {
        Some((usize::BITS - 1 - cap.leading_zeros()) as usize)
    }
}

/// Capacity class that *serves* a request for `n` elements (ceil log2):
/// every buffer stored there has capacity `>= 2^class >= n`.
fn class_of_request(n: usize) -> usize {
    n.next_power_of_two().trailing_zeros() as usize
}

/// Hands out a uniquely-owned, empty (`len == 0`) buffer with capacity at
/// least `n`, recycled when a suitable one is pooled and freshly allocated
/// otherwise. Callers fill it to its final length before wrapping it in a
/// tensor, so recycled and fresh buffers are indistinguishable downstream.
pub fn acquire(n: usize) -> Arc<Vec<f32>> {
    if n == 0 || !enabled() {
        return Arc::new(Vec::with_capacity(n));
    }
    let class = class_of_request(n);
    if class < NUM_BUCKETS {
        let recycled = buckets().lock().expect("recycler lock")[class].pop();
        if let Some(buf) = recycled {
            debug_assert!(buf.is_empty() && buf.capacity() >= n);
            COUNTERS.hits.fetch_add(1, Ordering::Relaxed);
            COUNTERS
                .bytes_reused
                .fetch_add((n * std::mem::size_of::<f32>()) as u64, Ordering::Relaxed);
            return buf;
        }
    }
    COUNTERS.misses.fetch_add(1, Ordering::Relaxed);
    Arc::new(Vec::with_capacity(n.next_power_of_two()))
}

/// Offers a buffer back to the free list.
///
/// Accepted only when the handle is uniquely owned and its bucket has
/// room; shared or surplus handles drop normally. A handle whose data
/// pointer is already pooled is a poisoned double return: it is counted
/// and leaked (never stored twice, never double-freed).
pub fn release(mut buf: Arc<Vec<f32>>) {
    if !enabled() {
        return;
    }
    let Some(v) = Arc::get_mut(&mut buf) else {
        COUNTERS.rejected.fetch_add(1, Ordering::Relaxed);
        return;
    };
    let Some(class) = class_of_capacity(v.capacity()) else {
        return; // capacity 0: nothing worth pooling
    };
    if class >= NUM_BUCKETS {
        return;
    }
    v.clear();
    let ptr = v.as_ptr();
    let mut guard = buckets().lock().expect("recycler lock");
    let bucket = &mut guard[class];
    if bucket.iter().any(|held| held.as_ptr() == ptr) {
        COUNTERS.poisoned.fetch_add(1, Ordering::Relaxed);
        drop(guard);
        std::mem::forget(buf);
        return;
    }
    if bucket.len() >= BUCKET_CAP {
        COUNTERS.rejected.fetch_add(1, Ordering::Relaxed);
        return;
    }
    bucket.push(buf);
    COUNTERS.released.fetch_add(1, Ordering::Relaxed);
}

/// Current counter values (cumulative since process start; see
/// [`RecyclerStats::delta_since`] for per-phase readings).
pub fn stats() -> RecyclerStats {
    RecyclerStats {
        hits: COUNTERS.hits.load(Ordering::Relaxed),
        misses: COUNTERS.misses.load(Ordering::Relaxed),
        released: COUNTERS.released.load(Ordering::Relaxed),
        rejected: COUNTERS.rejected.load(Ordering::Relaxed),
        poisoned: COUNTERS.poisoned.load(Ordering::Relaxed),
        bytes_reused: COUNTERS.bytes_reused.load(Ordering::Relaxed),
    }
}

/// Publishes the recycler counters into the process-wide telemetry
/// metrics registry (`recycler.*`).
pub fn publish_telemetry() {
    let s = stats();
    matgnn_telemetry::counter_set("recycler.hits", s.hits);
    matgnn_telemetry::counter_set("recycler.misses", s.misses);
    matgnn_telemetry::counter_set("recycler.released", s.released);
    matgnn_telemetry::counter_set("recycler.rejected", s.rejected);
    matgnn_telemetry::counter_set("recycler.poisoned", s.poisoned);
    matgnn_telemetry::counter_set("recycler.bytes_reused", s.bytes_reused);
}

/// Number of buffers currently sitting on the free list.
pub fn pooled_buffers() -> usize {
    buckets()
        .lock()
        .expect("recycler lock")
        .iter()
        .map(Vec::len)
        .sum()
}

/// Drops every pooled buffer (benchmark hygiene between legs).
pub fn clear() {
    for bucket in buckets().lock().expect("recycler lock").iter_mut() {
        bucket.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests share the process-wide pool and counters with concurrently
    // running tests, so every assertion here is a monotone counter delta
    // or a property of this thread's own buffers.

    #[test]
    fn acquire_release_roundtrip_reuses_the_allocation() {
        let _rt = Runtime::current().with_recycler(true).enter();
        let buf = acquire(1000);
        assert!(buf.capacity() >= 1000);
        release(buf);
        let again = acquire(1000);
        // Not guaranteed to be the *same* buffer under concurrent tests,
        // but capacity and emptiness invariants always hold.
        assert!(again.is_empty() && again.capacity() >= 1000);
        release(again);
    }

    #[test]
    fn shared_handles_are_rejected() {
        let _rt = Runtime::current().with_recycler(true).enter();
        let a = Arc::new(vec![0.0f32; 64]);
        let held = Arc::clone(&a);
        let before = stats();
        release(a);
        let after = stats();
        assert!(after.rejected > before.rejected);
        assert_eq!(held.len(), 64, "live clone untouched");
    }

    #[test]
    fn double_return_is_poisoned_not_pooled_twice() {
        let _rt = Runtime::current().with_recycler(true).enter();
        // Manufacture the invalid state a refcount bug would produce: two
        // unique-looking handles to one allocation. `into_raw` leaves the
        // strong count at 1; exactly one of the two reconstructed handles
        // may ever be dropped, which is what release() guarantees by
        // leaking the duplicate.
        let raw = Arc::into_raw(Arc::new(vec![0.0f32; 4096]));
        let first = unsafe { Arc::from_raw(raw) };
        let dup = unsafe { Arc::from_raw(raw) };
        let before = stats();
        release(first);
        release(dup);
        let after = stats();
        assert!(after.released > before.released);
        assert!(
            after.poisoned > before.poisoned,
            "second return of the same buffer must be detected"
        );
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let _rt = Runtime::current().with_recycler(true).enter();
        release(Arc::new(Vec::new()));
        // Pooled, it would be served for a one-element request.
        assert!(acquire(1).capacity() >= 1);
    }

    #[test]
    fn disabled_recycler_allocates_fresh() {
        let _rt = Runtime::current().with_recycler(false).enter();
        // Recycled and recyclable buffers have power-of-two capacities.
        let buf = acquire(513);
        assert_eq!(buf.capacity(), 513);
        release(buf);
    }

    #[test]
    fn capacity_classes_round_trip() {
        assert_eq!(class_of_request(1), 0);
        assert_eq!(class_of_request(2), 1);
        assert_eq!(class_of_request(3), 2);
        assert_eq!(class_of_request(1024), 10);
        assert_eq!(class_of_request(1025), 11);
        assert_eq!(class_of_capacity(0), None);
        assert_eq!(class_of_capacity(1), Some(0));
        assert_eq!(class_of_capacity(1024), Some(10));
        assert_eq!(class_of_capacity(1536), Some(10));
        // A fresh miss rounds up, so store class == serve class.
        for n in [1usize, 3, 17, 1000, 4097] {
            assert_eq!(
                class_of_capacity(n.next_power_of_two()).unwrap(),
                class_of_request(n)
            );
        }
    }

    #[test]
    fn cross_thread_reuse_is_safe() {
        let before = stats();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let _rt = Runtime::current().with_recycler(true).enter();
                    for i in 0..200 {
                        let mut buf = acquire(768);
                        let v = Arc::get_mut(&mut buf).expect("unique");
                        v.resize(768, (t * 1000 + i) as f32);
                        assert!(v.iter().all(|&x| x == (t * 1000 + i) as f32));
                        release(buf);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
        let after = stats();
        let d = after.delta_since(&before);
        assert!(
            d.hits > 0,
            "4 threads × 200 round-trips must hit the free list"
        );
    }
}
