//! Runtime settings are scoped per thread: two threads running at the
//! same time under different settings each see only their own — on the
//! thread itself, inside every pool chunk it submits, and inside the
//! prefetch producer it spawns.

use std::sync::Barrier;

use matgnn_data::Prefetcher;
use matgnn_tensor::simd::{self, SimdTier};
use matgnn_tensor::{pool, recycler, Runtime};

/// The settings kernels on this thread would use.
fn observed() -> Runtime {
    Runtime {
        threads: pool::num_threads(),
        simd: simd::active_tier(),
        recycler: recycler::enabled(),
    }
}

#[test]
fn concurrent_scopes_see_only_their_own_settings() {
    let serial = Runtime {
        threads: 1,
        simd: SimdTier::Scalar,
        recycler: false,
    };
    let pooled = Runtime::hardware().with_threads(4).with_recycler(true);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for rt in [serial, pooled] {
            let start = &start;
            s.spawn(move || {
                let _rt = rt.enter();
                start.wait();
                for _ in 0..200 {
                    assert_eq!(observed(), rt, "on the scoped thread");
                    pool::parallel_for(8, |_| {
                        assert_eq!(observed(), rt, "inside a pool chunk");
                    });
                    let mut producer = Prefetcher::spawn(1, |feed| {
                        feed.send(observed());
                    });
                    assert_eq!(producer.next(), Some(rt), "inside a prefetch producer");
                }
            });
        }
    });
}
