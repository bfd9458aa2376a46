//! Single-thread matmul microbenchmark for SIMD kernel tuning.
//!
//! Times the 512³ `matmul` on the scalar and (when available) AVX2 tiers
//! without pulling in the full bench harness, so kernel iterations only
//! rebuild this crate:
//!
//! ```text
//! cargo run --release -p matgnn-tensor --example mm_micro
//! ```
//!
//! The authoritative gate lives in `exp_kernels`; this is a tuning aid.

use matgnn_tensor::rng::Rng;
use matgnn_tensor::{simd, Runtime, Tensor};
use std::time::Instant;

fn best_ms(reps: usize, mut f: impl FnMut() -> Tensor) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(out);
    }
    best
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(512);
    let reps = 8;
    let mut rng = Rng::seed_from_u64(17);
    let a = Tensor::randn((n, n), 1.0, &mut rng);
    let b = Tensor::randn((n, n), 1.0, &mut rng);

    let single = Runtime::current().with_threads(1);
    let scalar = {
        let _rt = single.with_simd(simd::SimdTier::Scalar).enter();
        best_ms(reps, || a.matmul(&b))
    };
    let mut line = format!("matmul {n}^3 scalar {scalar:8.3} ms");
    let hardware = Runtime::hardware().simd;
    for tier in [simd::SimdTier::Avx2, simd::SimdTier::Avx512] {
        if tier > hardware {
            continue;
        }
        let _rt = single.with_simd(tier).enter();
        let t = best_ms(reps, || a.matmul(&b));
        let gf = 2.0 * (n as f64).powi(3) / (t * 1e6);
        line += &format!("   {tier} {t:8.3} ms ({:.2}x, {gf:.1} Gflop/s)", scalar / t);
    }
    println!("{line}");
}
