//! Cross-tier parity contracts for the SIMD compute tiers (PR 7).
//!
//! Four properties pin the `simd` module's dispatch design:
//!
//! 1. **Lane-exact kernels are bitwise identical across tiers** — add /
//!    sub / mul / div / scale / neg / abs / square / sqrt / relu / fill,
//!    `sum_axis0`, transpose, and the row movers perform the same
//!    single IEEE operation per element on every tier.
//! 2. **FMA / polynomial-exp kernels agree to tight tolerance** — the
//!    vector tiers contract multiply-add rounding (matmul family, axpy,
//!    lerp) and use a ≈1-ulp polynomial `exp` (silu / sigmoid / exp), so
//!    they cannot be bitwise equal to the scalar tier, but must stay
//!    within a few ulp per accumulation step — and gradients must still
//!    pass a finite-difference check on every tier.
//! 3. **Within a tier, results are bitwise invariant to pool size** —
//!    the determinism contract the pool has always promised, now
//!    quantified per tier for pool sizes {1, 2, 4}.
//! 4. **Operand strides are bit-neutral** — `matmul_tn` / `matmul_nt`
//!    read the transposed operand in place through the one strided
//!    microkernel, and must equal the explicit transpose-then-multiply
//!    bit for bit on every tier and pool size.
//!
//! Vector-tier cases degrade gracefully: on hardware without AVX2 /
//! AVX-512 the tier list shrinks and the tests cover what's left.

use matgnn_tensor::rng::Rng;
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

fn max_rel_diff(a: &Tensor, b: &Tensor) -> f32 {
    a.data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| (x - y).abs() / (1.0 + x.abs()))
        .fold(0.0, f32::max)
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

#[test]
fn lane_exact_kernels_bitwise_identical_across_tiers() {
    let (a, b, edges, idx) = fixtures();
    let bt = b.transpose();
    let run = || {
        let mut filled = Tensor::zeros((83, 117));
        filled.fill(0.625);
        let mut scaled = a.clone();
        scaled.scale_in_place(1.5);
        [
            a.add(&bt),
            a.sub(&bt),
            a.mul(&bt),
            a.scale(-2.25),
            a.abs().sqrt(),
            a.relu(),
            a.transpose(),
            a.sum_axis0(),
            edges.gather_rows(&idx),
            edges.scatter_add_rows(&idx, 61),
            filled,
            scaled,
        ]
    };
    let reference = with_tier(simd::SimdTier::Scalar, run);
    for tier in tiers() {
        let got = with_tier(tier, run);
        for (r, g) in reference.iter().zip(got.iter()) {
            assert_eq!(bits(r), bits(g), "lane-exact kernel diverged on {tier}");
        }
    }
}

#[test]
fn fma_and_exp_kernels_agree_across_tiers_to_tolerance() {
    let (a, b, _, _) = fixtures();
    let run = || {
        let mut ax = a.clone();
        ax.axpy(0.37, &a);
        let mut lp = a.clone();
        lp.lerp_from(0.9, &a.scale(0.5));
        [
            a.matmul(&b),
            a.transpose().matmul_tn(&b),
            a.matmul_nt(&b.transpose()),
            a.silu(),
            a.sigmoid(),
            a.scale(0.1).exp(),
            // sum_axis1 reduces each row with 8 lane accumulators folded
            // in a fixed tree — deterministic within a tier, tolerance
            // across tiers.
            a.sum_axis1(),
            ax,
            lp,
        ]
    };
    let names = [
        "matmul",
        "matmul_tn",
        "matmul_nt",
        "silu",
        "sigmoid",
        "exp",
        "sum_axis1",
        "axpy",
        "lerp",
    ];
    let reference = with_tier(simd::SimdTier::Scalar, run);
    for tier in tiers() {
        let got = with_tier(tier, run);
        for ((r, g), name) in reference.iter().zip(got.iter()).zip(names) {
            let d = max_rel_diff(r, g);
            assert!(
                d <= 1e-4,
                "{name} on {tier}: cross-tier max rel diff {d:e} exceeds 1e-4"
            );
        }
    }
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
