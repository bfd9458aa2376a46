//! Cross-tier parity contracts for the SIMD compute tiers:
//!
//! 1. **Every kernel is bitwise identical across tiers** — lane-exact
//!    kernels trivially, and the FMA / polynomial-`exp` kernels because
//!    the scalar tier computes each element with the chain a vector lane
//!    runs, so no kernel needs a tolerance; gradients still pass
//!    gradcheck on every tier.
//! 2. **Results are bitwise invariant to pool size** {1, 2, 4} on every
//!    tier.
//! 3. **Operand strides are bit-neutral** — `matmul_tn` / `matmul_nt`
//!    equal the explicit transpose-then-multiply bit for bit on every
//!    tier and pool size.
//!
//! Vector-tier cases degrade gracefully: on hardware without AVX2 /
//! AVX-512 the tier list shrinks and the tests cover what's left.

use matgnn_tensor::rng::Rng;
use matgnn_tensor::simd::{AdamSliceArgs, UnaryOp};
use matgnn_tensor::{gradcheck, simd, Runtime, Tensor};

/// Runs `f` on this thread with the tier forced.
fn with_tier<T>(tier: simd::SimdTier, f: impl FnOnce() -> T) -> T {
    let _rt = Runtime::current().with_simd(tier).enter();
    f()
}

/// Every tier this host can execute (always at least Scalar).
fn tiers() -> impl Iterator<Item = simd::SimdTier> {
    use simd::SimdTier::{Avx2, Avx512, Scalar};
    [Scalar, Avx2, Avx512]
        .into_iter()
        .filter(|&t| t <= Runtime::hardware().simd)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Awkwardly-shaped inputs: odd sizes exercise vector bodies, remainder
/// lanes, and partial tiles on every kernel.
fn fixtures() -> (Tensor, Tensor, Tensor, Vec<usize>) {
    let mut rng = Rng::seed_from_u64(23);
    let a = Tensor::randn((83, 117), 1.0, &mut rng);
    let b = Tensor::randn((117, 83), 1.0, &mut rng);
    let edges = Tensor::randn((403, 37), 1.0, &mut rng);
    let idx: Vec<usize> = (0..403).map(|i| (i * 7919) % 61).collect();
    (a, b, edges, idx)
}

/// Asserts every tier this host runs returns the scalar tier's bits for
/// each named output of `run`.
fn assert_bitwise_across_tiers<const N: usize>(run: impl Fn() -> [(&'static str, Tensor); N]) {
    let reference = with_tier(simd::SimdTier::Scalar, &run);
    for tier in tiers() {
        let got = with_tier(tier, &run);
        for ((name, r), (_, g)) in reference.iter().zip(got.iter()) {
            assert_eq!(
                bits(r),
                bits(g),
                "{name} diverged from the scalar tier on {tier}"
            );
        }
    }
}

/// Kernels that perform one IEEE operation per element (or move data)
/// on every tier.
#[test]
fn lane_exact_kernels_bitwise_identical_across_tiers() {
    let (a, b, edges, idx) = fixtures();
    let bt = b.transpose();
    assert_bitwise_across_tiers(|| {
        let mut filled = Tensor::zeros((83, 117));
        filled.fill(0.625);
        let mut scaled = a.clone();
        scaled.scale_in_place(1.5);
        [
            ("add", a.add(&bt)),
            ("sub", a.sub(&bt)),
            ("mul", a.mul(&bt)),
            ("div", a.div(&bt.abs().add_scalar(0.5))),
            ("scale", a.scale(-2.25)),
            ("add_scalar", a.add_scalar(0.3)),
            ("neg", a.neg()),
            ("square", a.square()),
            ("abs_sqrt", a.abs().sqrt()),
            ("relu", a.relu()),
            ("transpose", a.transpose()),
            ("sum_axis0", a.sum_axis0()),
            ("gather_rows", edges.gather_rows(&idx)),
            ("scatter_add_rows", edges.scatter_add_rows(&idx, 61)),
            ("fill", filled),
            ("scale_in_place", scaled),
        ]
    });
}

/// The FMA, polynomial-`exp` and 8-accumulator kernels. These once
/// agreed across tiers only to a tolerance; the scalar tier now runs the
/// vector lane's chain, so the tolerance is zero: they must match bit for
/// bit.
#[test]
fn fma_and_exp_kernels_agree_across_tiers_to_tolerance() {
    let (a, b, _, _) = fixtures();
    let bt = b.transpose();
    assert_bitwise_across_tiers(|| {
        let mut ax = a.clone();
        ax.axpy(0.37, &a);
        let mut lp = a.clone();
        lp.lerp_from(0.9, &a.scale(0.5));
        let mut silu_grad = a.clone();
        simd::unary(UnaryOp::SiluGrad, a.data(), silu_grad.data_mut());
        // An Adam step with weight decay from nonzero moments.
        let (mut p, mut m, mut v) = (a.clone(), a.scale(0.1), a.square());
        let args = AdamSliceArgs {
            beta1: 0.9,
            beta2: 0.999,
            bc1: 0.19,
            bc2: 0.002,
            lr: 1e-2,
            eps: 1e-8,
            weight_decay: 0.01,
        };
        simd::adam_slice(p.data_mut(), bt.data(), m.data_mut(), v.data_mut(), &args);
        [
            ("exp", a.scale(0.1).exp()),
            ("sigmoid", a.sigmoid()),
            ("silu", a.silu()),
            ("silu_grad", silu_grad),
            ("sum_axis1", a.sum_axis1()),
            ("axpy", ax),
            ("lerp", lp),
            ("adam_param", p),
            ("adam_m", m),
            ("adam_v", v),
            ("matmul", a.matmul(&b)),
            ("matmul_tn", a.transpose().matmul_tn(&b)),
            ("matmul_nt", a.matmul_nt(&bt)),
        ]
    });
}

/// The two vector tiers share every kernel except the matmul, and the
/// matmul chains are identical — so Avx2 and Avx512 must be *bitwise*
/// equal, not merely close.
#[test]
fn vector_tiers_bitwise_identical_to_each_other() {
    if !simd::avx512_available() {
        return;
    }
    let (a, b, _, _) = fixtures();
    let run = || {
        [
            a.matmul(&b),
            a.matmul_tn(&b.transpose()),
            a.matmul_nt(&b.transpose()),
            a.silu(),
        ]
    };
    let v2 = with_tier(simd::SimdTier::Avx2, run);
    let v5 = with_tier(simd::SimdTier::Avx512, run);
    for (x, y) in v2.iter().zip(v5.iter()) {
        assert_eq!(bits(x), bits(y), "Avx2 and Avx512 tiers diverged");
    }
}

#[test]
fn gradcheck_passes_on_every_tier() {
    let mut rng = Rng::seed_from_u64(5);
    let x = Tensor::randn((17, 13), 0.4, &mut rng);
    let w = Tensor::randn((13, 3), 0.4, &mut rng);
    for tier in tiers() {
        with_tier(tier, || {
            let xc = x.clone();
            gradcheck::check_grad(
                std::slice::from_ref(&w),
                move |tape, vars| {
                    let c = tape.constant(xc.clone());
                    let h = tape.matmul(c, vars[0]);
                    let s = tape.silu(h);
                    tape.mean_all(s)
                },
                3e-2,
            );
        });
    }
}

/// Within a fixed tier, every kernel must be bitwise invariant to the
/// pool size — chunk boundaries move, results must not.
#[test]
fn kernels_bitwise_invariant_to_pool_size_within_each_tier() {
    let mut rng = Rng::seed_from_u64(11);
    // Sized over the parallel thresholds so pooled paths really run.
    let a = Tensor::randn((160, 160), 1.0, &mut rng);
    let b = Tensor::randn((160, 160), 1.0, &mut rng);
    let big = Tensor::randn((300, 256), 1.0, &mut rng);
    for tier in tiers() {
        with_tier(tier, || {
            let run = || {
                [
                    a.matmul(&b),
                    a.matmul_tn(&b),
                    a.matmul_nt(&b),
                    big.silu(),
                    big.sum_axis0(),
                ]
            };
            let mut per_size = Vec::new();
            for threads in [1usize, 2, 4] {
                let _rt = Runtime::current().with_threads(threads).enter();
                per_size.push(run());
            }
            for later in &per_size[1..] {
                for (x, y) in per_size[0].iter().zip(later.iter()) {
                    assert_eq!(bits(x), bits(y), "{tier}: pool size changed the bits");
                }
            }
        });
    }
}

/// `matmul_tn` and `matmul_nt` read the transposed operand in place
/// through the strided microkernel; on every tier and pool size they must
/// be bitwise equal to transposing first and multiplying with `matmul`.
/// The grid reaches every kernel path: output rows around the scalar (4),
/// AVX2 (6) and AVX-512 (8) row tiles, `k` around both `k`-block depths
/// (128, 256), columns around both strip widths (16, 32) and their tails,
/// zero-size dims (`m = 0` must return before `out.len() / m`), and
/// products large enough for the pool to split output rows, so chunks
/// start at `row_offset > 0` with a unit-row-stride `a`.
#[test]
fn strided_matmuls_bitwise_equal_transpose_then_multiply() {
    let mut shapes = Vec::new();
    for n in [1, 5, 6, 8, 9] {
        for k in [1, 127, 128, 129, 256, 257, 1300] {
            for m in [1, 7, 8, 16, 31, 32, 33, 130] {
                shapes.push((n, k, m));
            }
        }
    }
    shapes.extend([(0, 5, 3), (4, 0, 3), (4, 5, 0), (0, 0, 0)]);
    // Over `MATMUL_PAR_FLOPS` (2·n·k·m ≥ 4 M): pooled on 2 and 4 threads.
    shapes.extend([(130, 257, 130), (37, 1300, 130), (257, 257, 33)]);
    let mut rng = Rng::seed_from_u64(29);
    let cases: Vec<_> = shapes
        .iter()
        .map(|&(n, k, m)| {
            let a_kn = Tensor::randn((k, n), 1.0, &mut rng);
            let b_km = Tensor::randn((k, m), 1.0, &mut rng);
            let a_nk = Tensor::randn((n, k), 1.0, &mut rng);
            let b_mk = Tensor::randn((m, k), 1.0, &mut rng);
            ((n, k, m), a_kn, b_km, a_nk, b_mk)
        })
        .collect();
    // The 4×3 · 3×5 product: reading a transpose of a transpose through
    // strides must reproduce plain `matmul` exactly.
    let a = Tensor::randn((4, 3), 1.0, &mut rng);
    let b = Tensor::randn((3, 5), 1.0, &mut rng);
    for tier in tiers() {
        with_tier(tier, || {
            for threads in [1usize, 2, 4] {
                let _rt = Runtime::current().with_threads(threads).enter();
                for (shape, a_kn, b_km, a_nk, b_mk) in &cases {
                    let tn = a_kn.matmul_tn(b_km);
                    assert_eq!(tn.shape().dims(), &[shape.0, shape.2]);
                    assert_eq!(
                        bits(&tn),
                        bits(&a_kn.transpose().matmul(b_km)),
                        "{tier}, pool {threads}: matmul_tn {shape:?} diverged"
                    );
                    let nt = a_nk.matmul_nt(b_mk);
                    assert_eq!(nt.shape().dims(), &[shape.0, shape.2]);
                    assert_eq!(
                        bits(&nt),
                        bits(&a_nk.matmul(&b_mk.transpose())),
                        "{tier}, pool {threads}: matmul_nt {shape:?} diverged"
                    );
                }
                let c = a.matmul(&b);
                assert_eq!(bits(&a.transpose().matmul_tn(&b)), bits(&c));
                assert_eq!(bits(&a.matmul_nt(&b.transpose())), bits(&c));
            }
        });
    }
}
