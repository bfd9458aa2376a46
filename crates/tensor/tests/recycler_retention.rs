//! The recycler keeps only the buffers it lent.
//!
//! Own integration-test binary with a single test: the pool and its
//! counters are process-wide, so exact `pooled_buffers()` readings hold
//! only while no other test acquires or releases concurrently.

use std::sync::Arc;

use matgnn_tensor::rng::Rng;
use matgnn_tensor::{recycler, Runtime, Tensor};

const F32: usize = std::mem::size_of::<f32>();

/// A tensor over a buffer the recycler never lent (capacity exactly `n`).
fn foreign(n: usize) -> Tensor {
    Tensor::from_vec(n, vec![1.0; n]).expect("length matches shape")
}

#[test]
fn retention_is_bounded_by_demand() {
    let _rt = Runtime::current().with_recycler(true).enter();

    // Buffers built outside `acquire` drop to the system allocator.
    let (pooled, bytes) = (recycler::pooled_buffers(), recycler::pooled_bytes());
    for _ in 0..1000 {
        drop(foreign(3000));
    }
    assert_eq!(recycler::pooled_buffers(), pooled, "foreign buffers parked");
    assert_eq!(recycler::pooled_bytes(), bytes);

    // k lent and returned, then m foreign drops of the same class: the
    // class parks exactly the k it lent.
    let (k, m) = (5, 50);
    let lent: Vec<Tensor> = (0..k).map(|_| Tensor::zeros(4096)).collect();
    drop(lent);
    for _ in 0..m {
        drop(foreign(4096));
    }
    assert_eq!(recycler::pooled_buffers(), pooled + k);
    assert_eq!(recycler::pooled_bytes(), bytes + k * 4096 * F32);

    // Any mix of lends, returns, shared handles and foreign drops keeps
    // the pool within what it has freshly allocated.
    let mut rng = Rng::seed_from_u64(41);
    let mut live: Vec<Tensor> = Vec::new();
    for _ in 0..4000 {
        let n = rng.gen_range(1..6000usize);
        match rng.gen_range(0..4u32) {
            0 => live.push(Tensor::zeros(n)),
            1 => drop(foreign(n)),
            2 if !live.is_empty() => {
                let t = live.swap_remove(rng.gen_range(0..live.len()));
                live.push(t.clone());
            }
            _ if !live.is_empty() => drop(live.swap_remove(rng.gen_range(0..live.len()))),
            _ => {}
        }
    }
    drop(live);
    let misses = recycler::stats().misses;
    assert!(
        recycler::pooled_buffers() as u64 <= misses,
        "{} pooled > {misses} misses",
        recycler::pooled_buffers()
    );

    double_return_is_poisoned_not_pooled_twice();
}

/// Runs inside the single test above: a concurrent test's foreign release
/// of the same class could otherwise take the lent slot, and the first
/// return would be refused before the poison check is reached.
fn double_return_is_poisoned_not_pooled_twice() {
    // Manufacture the invalid state a refcount bug would produce: two
    // unique-looking handles to one allocation. `into_raw` leaves the
    // strong count at 1; exactly one of the two reconstructed handles
    // may ever be dropped, which is what release() guarantees by
    // leaking the duplicate.
    let raw = Arc::into_raw(recycler::acquire(4096));
    // SAFETY: `raw` came from `Arc::into_raw` and is reconstructed twice
    // on purpose; `release` keeps the first and leaks the second, so the
    // allocation is freed at most once.
    let (first, dup) = unsafe { (Arc::from_raw(raw), Arc::from_raw(raw)) };
    let before = recycler::stats();
    recycler::release(first);
    recycler::release(dup);
    let after = recycler::stats();
    assert!(after.released > before.released);
    assert!(
        after.poisoned > before.poisoned,
        "second return of the same buffer must be detected"
    );
}
