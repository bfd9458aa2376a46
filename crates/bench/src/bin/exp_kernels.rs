//! Kernel suite benchmark — times every pooled kernel in the training hot
//! path on three legs: the **scalar SIMD tier** at pool-of-1, the **active
//! tier** (AVX2 where detected, `MATGNN_SIMD` to override) at pool-of-1,
//! and the active tier at the configured pool size (honoring
//! `MATGNN_THREADS`). Verifies that outputs are **bitwise identical**
//! across pool sizes within the active tier and that scalar-vs-active
//! results agree to tight tolerance, then writes `BENCH_kernels.json`.
//!
//! ```sh
//! MATGNN_THREADS=8 cargo run --release -p matgnn-bench --bin exp_kernels -- [--quick|--full]
//! ```
//!
//! Exits non-zero if any kernel diverges bitwise across pool sizes,
//! exceeds the cross-tier parity tolerance, regresses below 0.95× under
//! the pool, or the vector matmul microkernel misses its per-tier
//! single-thread speedup floor (4× on AVX-512 hosts, 3× on AVX2-only —
//! the scalar tier auto-vectorizes to SSE2, capping the AVX2 ceiling
//! near 4×) or leaves `matmul_nt` or `matmul_tn` more than 1.3× behind
//! `matmul` on the same shape (timed interleaved with it, single-thread)
//! — so CI can use it as a correctness and perf gate. The backward
//! products read their transposed operand through strides (no transposed
//! copy); besides the square case, the `tn` gate runs on the EGNN
//! weight-gradient shape `[1300×128]ᵀ·[1300×128]`, whose `k ≫ n` regime
//! is where a copied transpose used to cost the most.

use matgnn::prelude::*;
use matgnn::tensor::rng::Rng;
use matgnn::tensor::{pool, simd, Runtime};
use matgnn::train::{train_step, AdamHyper};
use matgnn_bench::{banner, csv_row, RunMode};
use std::time::{Duration, Instant};

/// Pooled speedup (active tier serial / pooled) below which a kernel is
/// considered to have regressed under the pool.
const MIN_POOLED_SPEEDUP: f64 = 0.95;

/// Required single-thread vector-vs-scalar speedup for the matmul kernel
/// on an AVX-512 host (two 512-bit FMA units ≈ 2× the AVX2 ceiling).
const MIN_MATMUL_SIMD_SPEEDUP_AVX512: f64 = 4.0;

/// Required single-thread vector-vs-scalar speedup for the matmul kernel
/// on an AVX2-only host. The scalar tier's matmul auto-vectorizes to
/// SSE2 (~¼ of AVX2 FMA peak), so 4× would demand >95% of peak from the
/// AVX2 microkernel; 3× ≈ 75% of peak is the honest floor.
const MIN_MATMUL_SIMD_SPEEDUP_AVX2: f64 = 3.0;

/// Maximum `matmul_nt` / `matmul` single-thread ratio: the pack
/// transposes `b` straight from its storage.
const MAX_NT_RATIO: f64 = 1.3;

/// Maximum `matmul_tn` / `matmul` single-thread ratio on the same shape:
/// the tiles broadcast `aᵀ` in place through its strides.
const MAX_TN_RATIO: f64 = 1.3;

struct Row {
    name: &'static str,
    scalar_ms: f64,
    serial_ms: f64,
    pooled_ms: f64,
    equal: bool,
    cross_tier_max_diff: f64,
    cross_tier_ok: bool,
}

/// Best-of-`reps` wall milliseconds for `run` under a forced pool size,
/// plus the output bits for cross-size / cross-tier comparison.
fn time_leg(threads: usize, reps: usize, run: &dyn Fn() -> Vec<u32>) -> (f64, Vec<u32>) {
    let _rt = Runtime::current().with_threads(threads).enter();
    let t0 = Instant::now();
    let mut out = run();
    let mut best = t0.elapsed().as_secs_f64() * 1e3;
    // Adaptive repetition: sub-millisecond kernels need far more than the
    // nominal rep count for best-of to converge on a shared/oversubscribed
    // host, so keep sampling until ~30 ms of wall clock per leg (capped).
    let reps = reps.max((30.0 / best.max(1e-3)).ceil() as usize).min(400);
    for _ in 1..reps {
        let t0 = Instant::now();
        out = run();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (best, out)
}

/// A timed kernel: runs once and returns its output bits.
type Kernel<'a> = &'a dyn Fn() -> Vec<u32>;

/// Single-thread time ratio `slow / fast`, best-of each over ~200 ms with
/// the two kernels' repetitions interleaved. A slow spell on a shared host
/// then inflates both; timed as separate legs it lands on one side of the
/// ratio (consecutive quick runs on the 2-vCPU reference host read
/// `matmul_tn / matmul` anywhere from 0.72× to 1.39× that way).
fn interleaved_ratio(slow: Kernel, fast: Kernel) -> f64 {
    let _rt = Runtime::current().with_threads(1).enter();
    let (mut best_slow, mut best_fast) = (f64::INFINITY, f64::INFINITY);
    let deadline = Instant::now() + Duration::from_millis(200);
    while Instant::now() < deadline {
        for (run, best) in [(slow, &mut best_slow), (fast, &mut best_fast)] {
            let t0 = Instant::now();
            std::hint::black_box(run());
            *best = best.min(t0.elapsed().as_secs_f64());
        }
    }
    best_slow / best_fast
}

/// Max elementwise `|a − b| / (1 + |a|)` between two bit-vectors viewed as
/// `f32`s (`a` = scalar-tier reference). NaN anywhere → ∞.
fn max_norm_diff(a: &[u32], b: &[u32]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let mut worst = 0.0f64;
    for (&ab, &bb) in a.iter().zip(b) {
        let (x, y) = (f32::from_bits(ab) as f64, f32::from_bits(bb) as f64);
        if x.is_nan() || y.is_nan() {
            return f64::INFINITY;
        }
        worst = worst.max((x - y).abs() / (1.0 + x.abs()));
    }
    worst
}

fn bench(
    rows: &mut Vec<Row>,
    name: &'static str,
    reps: usize,
    threads: usize,
    tol: f64,
    run: &dyn Fn() -> Vec<u32>,
) {
    // Leg 1: scalar tier, pool of 1 — the portable reference.
    let (scalar_ms, scalar_out) = {
        let _rt = Runtime::current().with_simd(simd::SimdTier::Scalar).enter();
        time_leg(1, reps, run)
    };
    // Leg 2: active tier, pool of 1 — isolates the SIMD speedup.
    let (serial_ms, serial_out) = time_leg(1, reps, run);
    // Leg 3: active tier, configured pool — isolates the pool speedup.
    let (pooled_ms, pooled_out) = time_leg(threads, reps, run);

    let equal = serial_out == pooled_out;
    let cross_tier_max_diff = max_norm_diff(&scalar_out, &serial_out);
    let cross_tier_ok = cross_tier_max_diff <= tol;
    let simd_speedup = scalar_ms / serial_ms;
    let speedup = serial_ms / pooled_ms;
    println!(
        "{name:<18} scalar {scalar_ms:>9.3} ms   simd {serial_ms:>9.3} ms ({simd_speedup:>5.2}x)   \
         pool({threads}) {pooled_ms:>9.3} ms ({speedup:>5.2}x)   bitwise {}   parity {}",
        if equal { "OK" } else { "DIVERGED" },
        if cross_tier_ok { "OK" } else { "FAILED" },
    );
    csv_row(&[
        name.to_string(),
        format!("{scalar_ms:.3}"),
        format!("{serial_ms:.3}"),
        format!("{pooled_ms:.3}"),
        format!("{simd_speedup:.2}"),
        format!("{speedup:.2}"),
        equal.to_string(),
        cross_tier_ok.to_string(),
    ]);
    rows.push(Row {
        name,
        scalar_ms,
        serial_ms,
        pooled_ms,
        equal,
        cross_tier_max_diff,
        cross_tier_ok,
    });
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

fn write_json(path: &str, mode: RunMode, threads: usize, rows: &[Row]) -> std::io::Result<()> {
    let mut s = String::new();
    s.push_str("{\n");
    // Shared schema header carries the SIMD tier and available threads.
    s.push_str(&matgnn_bench::bench_json_header(mode));
    s.push_str("  \"threads_serial\": 1,\n");
    s.push_str(&format!("  \"threads_pooled\": {threads},\n"));
    // Machine-readable scheduling context: pooled speedups are only
    // meaningful when the pool fits the machine, so downstream tooling
    // must read `oversubscribed` before judging the `speedup` column.
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    s.push_str(&format!("  \"oversubscribed\": {},\n", threads > avail));
    s.push_str("  \"kernels\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"scalar_ms\": {:.3}, \"serial_ms\": {:.3}, \
             \"pooled_ms\": {:.3}, \"simd_speedup\": {:.3}, \"speedup\": {:.3}, \
             \"bitwise_equal\": {}, \"cross_tier_max_diff\": {:.3e}, \"cross_tier_ok\": {}}}{}\n",
            r.name,
            r.scalar_ms,
            r.serial_ms,
            r.pooled_ms,
            r.scalar_ms / r.serial_ms,
            r.serial_ms / r.pooled_ms,
            r.equal,
            r.cross_tier_max_diff,
            r.cross_tier_ok,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let mode = RunMode::from_args();
    banner(
        "Kernel suite: scalar vs SIMD tier vs configured pool, bitwise-checked",
        mode,
    );

    let threads = pool::num_threads().max(2);
    let tier = simd::active_tier();
    let (reps, nm, nt, sum_rows, map_n, nodes, edges, dim, adam_n, hidden, graphs) = match mode {
        RunMode::Quick => (
            5, 512, 1024, 2048, 2_000_000, 2_000, 60_000, 128, 1_000_000, 96, 8,
        ),
        RunMode::Full => (
            5, 768, 2048, 8192, 8_000_000, 5_000, 150_000, 128, 4_000_000, 192, 16,
        ),
    };
    let hw = Runtime::hardware();
    println!(
        "simd tier: {tier} (best detected: {}; set MATGNN_SIMD=off|avx2|avx512 to override)",
        hw.simd
    );
    println!(
        "pool: {threads} worker(s) configured ({} available; set MATGNN_THREADS to override)\n",
        hw.threads
    );
    println!(
        "csv header: kernel,scalar_ms,serial_ms,pooled_ms,simd_speedup,speedup,\
         bitwise_equal,cross_tier_ok"
    );

    let mut rng = Rng::seed_from_u64(17);
    let mut rows = Vec::new();

    // Cross-tier tolerance on max |a−b|/(1+|a|): FMA contraction and the
    // polynomial exp differ from the scalar tier by ulps per operation;
    // long accumulation chains (k ≈ 512 matmuls, multi-layer train_step)
    // get a proportionally looser bound.
    let tol_exact = 1e-12; // lane-exact kernels: bitwise across tiers
    let tol_fma = 1e-3; // single accumulation chain per element
    let tol_e2e = 5e-3; // whole forward+backward

    // — dense matmul family, nm³ —
    let a = Tensor::randn((nm, nm), 1.0, &mut rng);
    let b = Tensor::randn((nm, nm), 1.0, &mut rng);
    let mm = || bits(&a.matmul(&b));
    let mm_tn = || bits(&a.matmul_tn(&b));
    let mm_nt = || bits(&a.matmul_nt(&b));
    bench(&mut rows, "matmul", reps, threads, tol_fma, &mm);
    bench(&mut rows, "matmul_tn", reps, threads, tol_fma, &mm_tn);
    bench(&mut rows, "matmul_nt", reps, threads, tol_fma, &mm_nt);
    // — EGNN weight gradient dW = Xᵀ·dY over 1300 edges, H = 128, against
    //   plain matmul on the same FLOPs (X transposed once, outside timing) —
    let x_edges = Tensor::randn((1300, 128), 1.0, &mut rng);
    let dy_edges = Tensor::randn((1300, 128), 1.0, &mut rng);
    let x_t = x_edges.transpose();
    let egnn = || bits(&x_t.matmul(&dy_edges));
    let egnn_tn = || bits(&x_edges.matmul_tn(&dy_edges));
    bench(&mut rows, "matmul_egnn", reps, threads, tol_fma, &egnn);
    bench(
        &mut rows,
        "matmul_tn_egnn",
        reps,
        threads,
        tol_fma,
        &egnn_tn,
    );

    // — transpose and reductions —
    let sq = Tensor::randn((nt, nt), 1.0, &mut rng);
    bench(&mut rows, "transpose", reps, threads, tol_exact, &|| {
        bits(&sq.transpose())
    });
    let tall = Tensor::randn((sum_rows, 512), 1.0, &mut rng);
    bench(&mut rows, "sum_axis0", reps, threads, tol_exact, &|| {
        bits(&tall.sum_axis0())
    });

    // — elementwise silu (the activation on the training hot path) —
    let flat = Tensor::randn((map_n / 512, 512), 1.0, &mut rng);
    bench(&mut rows, "map_silu", reps, threads, tol_fma, &|| {
        bits(&flat.silu())
    });

    // — message-passing gather/scatter, EGNN-shaped (n_edges ≈ 30·n_nodes) —
    let feats = Tensor::randn((nodes, dim), 1.0, &mut rng);
    let idx: Vec<usize> = (0..edges).map(|_| rng.gen_range(0..nodes)).collect();
    bench(&mut rows, "gather_rows", reps, threads, tol_exact, &|| {
        bits(&feats.gather_rows(&idx))
    });
    let msgs = Tensor::randn((edges, dim), 1.0, &mut rng);
    bench(
        &mut rows,
        "scatter_add_rows",
        reps,
        threads,
        tol_exact,
        &|| bits(&msgs.scatter_add_rows(&idx, nodes)),
    );

    // — optimizer update (clone cost is identical on all legs) —
    let p0: Vec<f32> = (0..adam_n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let g0: Vec<f32> = (0..adam_n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let hyper = AdamHyper::default();
    bench(&mut rows, "adam_update", reps, threads, tol_fma, &|| {
        let mut p = p0.clone();
        let mut m = vec![0.0f32; adam_n];
        let mut v = vec![0.0f32; adam_n];
        matgnn::train::adam_update(&mut p, &g0, &mut m, &mut v, 1, 1e-3, &hyper);
        p.iter().map(|x| x.to_bits()).collect()
    });

    // — fused train step: forward + loss + backward on a real EGNN batch —
    let ds = Dataset::generate_aggregate(graphs, 7, &GeneratorConfig::default());
    let norm = Normalizer::fit(&ds);
    let sample_refs: Vec<&Sample> = ds.samples().iter().collect();
    let (batch, targets) = collate(&sample_refs, &norm);
    let model = Egnn::new(EgnnConfig::new(hidden, 3));
    let loss_cfg = LossConfig::default();
    bench(&mut rows, "train_step", reps, threads, tol_e2e, &|| {
        let out = train_step(&model, &batch, &targets, &loss_cfg, false, None);
        let mut bits_out: Vec<u32> = vec![(out.loss as f32).to_bits()];
        for g in &out.grads {
            bits_out.extend(g.data().iter().map(|x| x.to_bits()));
        }
        bits_out
    });

    let path = "BENCH_kernels.json";
    write_json(path, mode, threads, &rows).expect("write BENCH_kernels.json");
    println!("\nwrote {path} (tier: {})", tier.name());

    let mut failed = false;
    if rows.iter().any(|r| !r.equal) {
        eprintln!("ERROR: at least one kernel diverged bitwise across pool sizes");
        failed = true;
    }
    for r in rows.iter().filter(|r| !r.cross_tier_ok) {
        eprintln!(
            "ERROR: {} scalar-vs-{} parity {:.3e} exceeds tolerance",
            r.name,
            tier.name(),
            r.cross_tier_max_diff
        );
        failed = true;
    }
    // The pooled-speedup floor applies to individual kernels only:
    // `train_step` is an end-to-end composite of hundreds of small
    // dispatches whose pool behaviour is governed by the per-kernel
    // serial-fallback thresholds, not by this gate (its bitwise and
    // cross-tier checks above still apply). It is also only meaningful
    // when the configured pool fits the machine: an oversubscribed pool
    // (e.g. MATGNN_THREADS=8 on a 1-core container) measures scheduler
    // overhead, not scaling, so there the floor downgrades to a warning.
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let oversubscribed = threads > avail;
    for r in rows.iter().filter(|r| r.name != "train_step") {
        let pooled_speedup = r.serial_ms / r.pooled_ms;
        if pooled_speedup < MIN_POOLED_SPEEDUP {
            if oversubscribed {
                eprintln!(
                    "WARNING: {} at {pooled_speedup:.2}x pooled with {threads} workers on \
                     {avail} core(s) — oversubscribed, floor not enforced",
                    r.name
                );
            } else {
                eprintln!(
                    "ERROR: {} regressed under the pool ({pooled_speedup:.2}x < {MIN_POOLED_SPEEDUP}x)",
                    r.name
                );
                failed = true;
            }
        }
    }
    if tier != simd::SimdTier::Scalar {
        let row = |name: &str| {
            rows.iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("{name} row"))
        };
        let mm_row = row("matmul");
        let floor = if tier == simd::SimdTier::Avx512 {
            MIN_MATMUL_SIMD_SPEEDUP_AVX512
        } else {
            MIN_MATMUL_SIMD_SPEEDUP_AVX2
        };
        let simd_speedup = mm_row.scalar_ms / mm_row.serial_ms;
        if simd_speedup < floor {
            eprintln!(
                "ERROR: single-thread matmul {tier} speedup {simd_speedup:.2}x \
                 below the {floor}x target"
            );
            failed = true;
        }
        // (strided kernel, same-shape plain kernel, ceiling on the ratio)
        let gates: [(&str, Kernel, &str, Kernel, f64); 3] = [
            ("matmul_nt", &mm_nt, "matmul", &mm, MAX_NT_RATIO),
            ("matmul_tn", &mm_tn, "matmul", &mm, MAX_TN_RATIO),
            (
                "matmul_tn_egnn",
                &egnn_tn,
                "matmul_egnn",
                &egnn,
                MAX_TN_RATIO,
            ),
        ];
        for (name, strided, base, plain, max) in gates {
            let ratio = interleaved_ratio(strided, plain);
            println!("{name} / {base}: {ratio:.2}x single-thread (interleaved best-of)");
            if ratio > max {
                eprintln!(
                    "ERROR: {name} is {ratio:.2}x of {base} single-thread \
                     (> {max}x): the strided operand read is not paying off"
                );
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
