//! Property-based tests of the tensor kernels and autodiff tape: random
//! shapes, algebraic identities, adjointness, and gradient checks.
//! Each property runs on [`CASES`] seeded random inputs drawn by
//! [`run_cases`].

use std::sync::Arc;

use matgnn_tensor::rng::Rng;
use matgnn_tensor::{gradcheck, MemoryCategory, MemoryTracker, Tape, Tensor};

const CASES: u64 = 48;

/// Runs `case_fn` over [`CASES`] seeded streams. Each property draws its
/// own streams, seeded from an FNV-1a hash of its name, so adding or
/// reordering tests does not change another test's cases.
fn run_cases(name: &str, mut case_fn: impl FnMut(&mut Rng)) {
    let base = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    for case in 0..CASES {
        case_fn(&mut Rng::seed_from_u64(base.wrapping_add(case)));
    }
}

fn arb_dims(rng: &mut Rng) -> (usize, usize) {
    (rng.gen_range(1..6), rng.gen_range(1..6))
}

// ---------------- algebraic identities ----------------

#[test]
fn add_commutes_and_sub_inverts() {
    run_cases("add_commutes_and_sub_inverts", |rng| {
        let (r, c) = arb_dims(rng);
        let seed = rng.gen_range(0u64..50);
        let a = deterministic(r, c, seed);
        let b = deterministic(r, c, seed ^ 1);
        assert!(a.add(&b).allclose(&b.add(&a), 1e-6));
        assert!(a.add(&b).sub(&b).allclose(&a, 1e-5));
    });
}

#[test]
fn matmul_distributes() {
    run_cases("matmul_distributes", |rng| {
        let (n, k) = arb_dims(rng);
        let (m, _) = arb_dims(rng);
        let seed = rng.gen_range(0u64..50);
        let a = deterministic(n, k, seed);
        let b = deterministic(k, m, seed ^ 2);
        let c = deterministic(k, m, seed ^ 3);
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        assert!(left.allclose(&right, 1e-4), "distributivity failed");
    });
}

#[test]
fn matmul_associates() {
    run_cases("matmul_associates", |rng| {
        let (n, k) = arb_dims(rng);
        let (m, p) = arb_dims(rng);
        let seed = rng.gen_range(0u64..50);
        let a = deterministic(n, k, seed);
        let b = deterministic(k, m, seed ^ 4);
        let c = deterministic(m, p, seed ^ 5);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert!(left.allclose(&right, 1e-3), "associativity failed");
    });
}

#[test]
fn transpose_variants_consistent() {
    run_cases("transpose_variants_consistent", |rng| {
        let (n, k) = arb_dims(rng);
        let (m, _) = arb_dims(rng);
        let seed = rng.gen_range(0u64..50);
        let a = deterministic(n, k, seed);
        let b = deterministic(k, m, seed ^ 6);
        let plain = a.matmul(&b);
        assert!(a.transpose().matmul_tn(&b).allclose(&plain, 1e-4));
        assert!(a.matmul_nt(&b.transpose()).allclose(&plain, 1e-4));
        assert!(a.transpose().transpose().allclose(&a, 0.0));
        // (AB)ᵀ = BᵀAᵀ
        assert!(plain
            .transpose()
            .allclose(&b.transpose().matmul(&a.transpose()), 1e-4));
    });
}

#[test]
fn reductions_agree() {
    run_cases("reductions_agree", |rng| {
        let (r, c) = arb_dims(rng);
        let seed = rng.gen_range(0u64..50);
        let a = deterministic(r, c, seed);
        let total = a.sum_all();
        assert!((a.sum_axis0().sum_all() - total).abs() < 1e-4 * (1.0 + total.abs()));
        assert!((a.sum_axis1().sum_all() - total).abs() < 1e-4 * (1.0 + total.abs()));
        assert!((a.mean_all() * a.numel() as f32 - total).abs() < 1e-4 * (1.0 + total.abs()));
    });
}

#[test]
fn gather_scatter_adjoint() {
    run_cases("gather_scatter_adjoint", |rng| {
        let (n, c) = arb_dims(rng);
        let seed = rng.gen_range(0u64..50);
        let e = rng.gen_range(1usize..12);
        // <scatter(x, idx), y> == <x, gather(y, idx)> — the defining
        // adjoint property that makes the backward rules correct.
        let idx: Vec<usize> = (0..e).map(|i| (i * 7 + seed as usize) % n).collect();
        let x = deterministic(e, c, seed ^ 7);
        let y = deterministic(n, c, seed ^ 8);
        let lhs: f32 = x.scatter_add_rows(&idx, n).mul(&y).sum_all();
        let rhs: f32 = x.mul(&y.gather_rows(&idx)).sum_all();
        assert!(
            (lhs - rhs).abs() < 1e-4 * (1.0 + lhs.abs()),
            "{} vs {}",
            lhs,
            rhs
        );
    });
}

#[test]
fn concat_slice_roundtrip() {
    run_cases("concat_slice_roundtrip", |rng| {
        let (r, c1) = arb_dims(rng);
        let c2 = rng.gen_range(1usize..6);
        let seed = rng.gen_range(0u64..50);
        let a = deterministic(r, c1, seed);
        let b = deterministic(r, c2, seed ^ 9);
        let cat = Tensor::concat_cols(&[&a, &b]);
        assert!(cat.slice_cols(0, c1).allclose(&a, 0.0));
        assert!(cat.slice_cols(c1, c1 + c2).allclose(&b, 0.0));
    });
}

#[test]
fn activation_ranges() {
    run_cases("activation_ranges", |rng| {
        let (r, c) = arb_dims(rng);
        let seed = rng.gen_range(0u64..50);
        let a = deterministic(r, c, seed);
        assert!(a.relu().data().iter().all(|&x| x >= 0.0));
        assert!(a.sigmoid().data().iter().all(|&x| (0.0..=1.0).contains(&x)));
        assert!(a.tanh().data().iter().all(|&x| (-1.0..=1.0).contains(&x)));
        // silu(x) ≥ −0.279 (its global minimum).
        assert!(a.silu().data().iter().all(|&x| x >= -0.2785));
    });
}

// ---------------- tape gradients on random shapes ----------------

#[test]
fn gradcheck_binary_ops() {
    run_cases("gradcheck_binary_ops", |rng| {
        let (r, c) = arb_dims(rng);
        let seed = rng.gen_range(0u64..20);
        let a = deterministic(r, c, seed);
        let b = deterministic(r, c, seed ^ 10).add_scalar(0.1); // avoid /0-ish
        gradcheck::check_grad(
            &[a, b],
            |tape, vars| {
                let s = tape.add(vars[0], vars[1]);
                let d = tape.sub(vars[0], vars[1]);
                let (s2, d2) = (tape.square(s), tape.square(d));
                let m = tape.sub(s2, d2);
                tape.mean_all(m)
            },
            3e-2,
        );
    });
}

#[test]
fn gradcheck_matmul_random_shapes() {
    run_cases("gradcheck_matmul_random_shapes", |rng| {
        let (n, k) = arb_dims(rng);
        let (m, _) = arb_dims(rng);
        let seed = rng.gen_range(0u64..20);
        let a = deterministic(n, k, seed);
        let b = deterministic(k, m, seed ^ 11);
        gradcheck::check_grad(
            &[a, b],
            |tape, vars| {
                let y = tape.matmul(vars[0], vars[1]);
                let y = tape.tanh(y);
                tape.sum_all(y)
            },
            3e-2,
        );
    });
}

#[test]
fn gradcheck_broadcast_ops() {
    run_cases("gradcheck_broadcast_ops", |rng| {
        let (r, c) = arb_dims(rng);
        let seed = rng.gen_range(0u64..20);
        let x = deterministic(r, c, seed);
        let bias = deterministic(1, c, seed ^ 12).reshape(c).expect("row");
        let col = deterministic(r, 1, seed ^ 13);
        gradcheck::check_grad(
            &[x, bias, col],
            |tape, vars| {
                let y = tape.add_row(vars[0], vars[1]);
                let y = tape.mul_col(y, vars[2]);
                let y = tape.silu(y);
                tape.mean_all(y)
            },
            3e-2,
        );
    });
}

#[test]
fn gradcheck_gather_concat() {
    run_cases("gradcheck_gather_concat", |rng| {
        let (n, c) = arb_dims(rng);
        let seed = rng.gen_range(0u64..20);
        let e = rng.gen_range(1usize..10);
        let x = deterministic(n, c, seed);
        let idx = Arc::new(
            (0..e)
                .map(|i| (i * 3 + seed as usize) % n)
                .collect::<Vec<_>>(),
        );
        let halves = Tensor::from_vec(
            2 * c,
            (0..2 * c).map(|j| if j < c { 1.0 } else { -0.5 }).collect(),
        )
        .unwrap();
        gradcheck::check_grad(
            &[x],
            move |tape, vars| {
                let g = tape.gather_rows(vars[0], Arc::clone(&idx));
                let sq = tape.square(g);
                let cat = tape.concat_cols(&[g, sq]);
                // Weigh the two halves differently, so each receives its
                // own gradient through the concatenation.
                let w = tape.constant(halves.clone());
                let mixed = tape.mul_row(cat, w);
                let s = tape.scatter_add_rows(mixed, Arc::clone(&idx), n);
                let q = tape.square(s);
                tape.mean_all(q)
            },
            3e-2,
        );
    });
}

// ---------------- memory tracker invariants ----------------

#[test]
fn tracker_balance_under_random_traffic() {
    run_cases("tracker_balance_under_random_traffic", |rng| {
        let n_ops = rng.gen_range(1..60);
        let ops: Vec<(usize, u64)> = (0..n_ops)
            .map(|_| (rng.gen_range(0..5), rng.gen_range(1..10_000)))
            .collect();
        let tracker = MemoryTracker::new();
        let mut live: Vec<(MemoryCategory, u64)> = Vec::new();
        let mut running_total = 0u64;
        let mut max_seen = 0u64;
        for (cat_idx, bytes) in ops {
            let cat = MemoryCategory::ALL[cat_idx];
            if live.len() % 3 == 2 {
                // Free the oldest live allocation.
                let (c, b) = live.remove(0);
                tracker.free(c, b);
                running_total -= b;
            } else {
                tracker.alloc(cat, bytes);
                live.push((cat, bytes));
                running_total += bytes;
                max_seen = max_seen.max(running_total);
            }
            assert_eq!(tracker.current().total(), running_total);
        }
        assert_eq!(tracker.peak_total(), max_seen);
        // At-peak breakdown sums to the peak.
        assert_eq!(tracker.at_peak().total(), max_seen);
    });
}

#[test]
fn tape_releases_all_tracked_bytes() {
    run_cases("tape_releases_all_tracked_bytes", |rng| {
        let (r, c) = arb_dims(rng);
        let seed = rng.gen_range(0u64..20);
        let tracker = MemoryTracker::new();
        {
            let mut tape = Tape::with_tracker(tracker.clone());
            let x = tape.param(deterministic(r, c, seed));
            let w = tape.param(deterministic(c, 3, seed ^ 14));
            let y = tape.matmul(x, w);
            let y = tape.silu(y);
            let loss = tape.mean_all(y);
            let _ = tape.backward(loss);
        }
        assert_eq!(tracker.current().get(MemoryCategory::Activations), 0);
        assert_eq!(tracker.current().get(MemoryCategory::Gradients), 0);
    });
}

/// Deterministic pseudo-random tensor, a pure function of its seed.
fn deterministic(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::from_fn((rows, cols), |i| {
        let x = (i as u64)
            .wrapping_mul(6364136223846793005)
            .wrapping_add(seed * 31 + 17);
        ((x >> 33) as f32 / (u32::MAX >> 2) as f32) - 1.0
    })
}
