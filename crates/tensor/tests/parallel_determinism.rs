//! Determinism contracts for the pooled parallel kernels.
//!
//! Every kernel routed through [`matgnn_tensor::pool`] must produce output
//! that is **bitwise identical** for any pool size: the chunk layout is a
//! pure function of shape, and each output element is accumulated in the
//! same (ascending) order as the serial kernel. These tests pin that
//! contract, the NaN-propagation fix in the matmul kernels, and gradient
//! correctness when the backward pass runs through the parallel paths.

use matgnn_tensor::rng::Rng;
use matgnn_tensor::{gradcheck, pool, Runtime, Tensor};

/// Runs `f` on this thread with the pool forced to `n` workers.
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let _rt = Runtime::current().with_threads(n).enter();
    f()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Pool-of-1 and pool-of-8 must agree bit for bit on every parallel kernel.
///
/// Sizes are chosen to clear the per-kernel parallel thresholds so the
/// pooled code path (not the serial fallback) is what gets compared.
#[test]
fn kernels_bitwise_identical_across_pool_sizes() {
    let mut rng = Rng::seed_from_u64(42);
    // 160³ matmul = 8.2 MFLOP ≥ the 4 MFLOP parallel threshold.
    let a = Tensor::randn((160, 160), 1.0, &mut rng);
    let b = Tensor::randn((160, 160), 1.0, &mut rng);
    // 300×256 = 76 800 elements ≥ the 65 536 elementwise threshold.
    let big = Tensor::randn((300, 256), 1.0, &mut rng);
    // EGNN-shaped scatter: 1 200 edge rows of width 64 into 100 nodes.
    let edges = Tensor::randn((1200, 64), 1.0, &mut rng);
    let idx: Vec<usize> = (0..1200).map(|i| (i * 7919) % 100).collect();

    let run = || {
        [
            a.matmul(&b),
            a.matmul_tn(&b),
            a.matmul_nt(&b),
            big.sum_axis0(),
            big.sum_axis1(),
            big.transpose(),
            big.map(|x| x * 1.5 + 0.25),
            edges.gather_rows(&idx),
            edges.scatter_add_rows(&idx, 100),
        ]
    };

    let serial = with_threads(1, run);
    let pooled = with_threads(8, run);
    let names = [
        "matmul",
        "matmul_tn",
        "matmul_nt",
        "sum_axis0",
        "sum_axis1",
        "transpose",
        "map",
        "gather_rows",
        "scatter_add_rows",
    ];
    for ((s, p), name) in serial.iter().zip(pooled.iter()).zip(names) {
        assert_eq!(s.shape(), p.shape(), "{name}: shape diverged");
        assert_eq!(
            bits(s),
            bits(p),
            "{name}: bitwise divergence across pool sizes"
        );
    }
}

/// `chunk_ranges` is a pure function of (len, granule, pool size): calling it
/// twice, or from different threads, yields the same partition.
#[test]
fn chunk_layout_is_deterministic() {
    let first = pool::chunk_ranges(4096, 64, 8);
    let second = pool::chunk_ranges(4096, 64, 8);
    assert_eq!(first, second);
    let joined: usize = first.iter().map(|r| r.len()).sum();
    assert_eq!(joined, 4096);
}

/// Regression for the old `if av == 0.0 { continue; }` skip: a zero in one
/// operand must not mask a NaN (or ±∞) in the other — IEEE 754 says
/// 0 × NaN = NaN, and training relies on NaNs surfacing instead of being
/// silently zeroed.
#[test]
fn matmul_kernels_propagate_nan_through_zeros() {
    let b = Tensor::from_vec((2, 1), vec![f32::NAN, 1.0]).expect("b");

    // Plain matmul: [0, 1] · [NaN, 1]ᵀ = 0·NaN + 1·1.
    let a = Tensor::from_vec((1, 2), vec![0.0, 1.0]).expect("a");
    assert!(a.matmul(&b).data()[0].is_nan(), "matmul zeroed a NaN");

    // matmul_tn: aᵀ row is [0, 1]; same contraction.
    let at = Tensor::from_vec((2, 1), vec![0.0, 1.0]).expect("at");
    assert!(
        at.matmul_tn(&b).data()[0].is_nan(),
        "matmul_tn zeroed a NaN"
    );

    // matmul_nt: b given untransposed as [1, 2].
    let bn = Tensor::from_vec((1, 2), vec![f32::NAN, 1.0]).expect("bn");
    assert!(
        a.matmul_nt(&bn).data()[0].is_nan(),
        "matmul_nt zeroed a NaN"
    );
}

/// Finite-difference gradient check with the forward and backward matmuls
/// large enough to run on the pool (2·32768·64·1 ≈ 4.2 MFLOP per product).
#[test]
fn gradcheck_through_parallel_matmul() {
    let mut rng = Rng::seed_from_u64(7);
    let x = Tensor::randn((32768, 64), 0.1, &mut rng);
    let w = Tensor::randn((64, 1), 0.1, &mut rng);
    with_threads(4, || {
        gradcheck::check_grad(
            &[w],
            move |tape, vars| {
                let xc = tape.constant(x.clone());
                let y = tape.matmul(xc, vars[0]);
                tape.mean_all(y)
            },
            3e-2,
        );
    });
}
