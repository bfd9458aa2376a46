//! Closed-loop serving benchmark for the tape-free inference engine and
//! dynamic batcher — times the single-graph forward with and without a
//! tape, asserts zero steady-state heap allocations on the engine hot
//! path, checks frozen/tape parity on a checkpoint round-tripped through
//! MGTC save/load, sweeps offered load through the [`DynamicBatcher`] to
//! map the p50/p99-latency-vs-throughput saturation curve, and writes
//! everything to `BENCH_serving.json`.
//!
//! ```sh
//! cargo run --release -p matgnn-bench --bin exp_serving -- [--quick|--full]
//! ```
//!
//! Exits non-zero if the tape-free single-graph forward is slower than
//! the taped one or costs more than its per-atom bound, if the
//! steady-state engine path allocates, if frozen and tape outputs differ
//! in any bit, or if the p99 latency SLO is violated at low offered load
//! — so CI can gate on it.
//!
//! The allocation leg runs at pool-of-1 (the worker pool's dispatch
//! allocates per-chunk job handles); everything else runs at the
//! configured pool size. On hosts with fewer cores than serving workers
//! the sweep is oversubscribed and the curve shifts left; the JSON
//! records `threads_available` so readers can tell.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use matgnn::prelude::*;
use matgnn::serve::{BatcherConfig, DynamicBatcher, InferenceEngine};
use matgnn::telemetry as tel;
use matgnn::tensor::{pool, Runtime};
use matgnn::train::AdamState;

/// [`System`] with an allocation-event counter (same harness as
/// `exp_alloc`): `alloc`/`realloc` bump the counters, frees do not — the
/// zero-steady-state claim is about *new* heap traffic.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Upper bound on the tape-free single-graph forward, in µs per atom, as
/// `(quick, full)`. Both executors run one EGNN body, so "frozen vs tape"
/// only prices recording; this bound prices the serving path itself.
/// Calibrated on the reference host (2-vCPU KVM guest, AVX-512, pool of
/// 2) from 59 quick and 20 full runs of the engine as it stood before the
/// body was shared: the slowest read 13.65 and 32.95 µs/atom. Times are
/// bimodal per process (6.6–13.7 and 20.8–33.5), and one quick run in 75
/// read 16.25 while the whole host slowed (the taped forward with it), so
/// the bound sits 21 % above the slowest calibration run.
const FROZEN_US_PER_ATOM_BOUND: (f64, f64) = (16.5, 40.0);

/// p99 SLO at the lowest offered-load level of the sweep. Generous —
/// CI hosts are shared and oversubscribed — but a real bound: an
/// unbatched queue collapse blows through it immediately.
const SLO_P99_MS: f64 = 500.0;

/// One tape forward pass, returning (per-graph energies, forces) data.
fn tape_forward(model: &Egnn, batch: &GraphBatch) -> (Vec<f32>, Vec<f32>) {
    let mut tape = Tape::new();
    let (_, out) = model.bind_and_forward(&mut tape, batch);
    (
        tape.value(out.energy).data().to_vec(),
        tape.value(out.forces).data().to_vec(),
    )
}

struct Level {
    offered_rps: f64,
    achieved_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    mean_batch_graphs: f64,
}

/// Drives `n` requests through the batcher at `offered_rps` (open-loop
/// pacing; `submit`'s backpressure closes the loop at saturation) and
/// reads the latency quantiles the workers recorded.
fn run_level(batcher: &DynamicBatcher, graphs: &[MolGraph], offered_rps: f64, n: usize) -> Level {
    tel::reset_metrics();
    let interval = Duration::from_secs_f64(1.0 / offered_rps);
    let start = Instant::now();
    let mut tickets = Vec::with_capacity(n);
    for i in 0..n {
        let due = start + interval * i as u32;
        if let Some(sleep) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(sleep);
        }
        tickets.push(
            batcher
                .submit(graphs[i % graphs.len()].clone())
                .expect("batcher rejected request"),
        );
    }
    for t in tickets {
        t.wait().expect("request dropped");
    }
    let wall = start.elapsed();

    let quant = |name: &str, q: f64| tel::histogram_quantile(name, q).unwrap_or(f64::NAN);
    let mean_batch_graphs = tel::snapshot()
        .iter()
        .find_map(|(k, v)| match v {
            tel::MetricValue::Histogram { count, sum, .. } if k == "serve.batch.graphs" => {
                Some(sum / *count as f64)
            }
            _ => None,
        })
        .unwrap_or(f64::NAN);
    Level {
        offered_rps,
        achieved_rps: n as f64 / wall.as_secs_f64(),
        p50_ms: quant("serve.latency_ms", 0.5),
        p99_ms: quant("serve.latency_ms", 0.99),
        mean_batch_graphs,
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let mode = matgnn_bench::RunMode::from_args();
    matgnn_bench::banner(
        "Serving: tape-free engine cost, zero-alloc steady state, load sweep",
        mode,
    );

    let threads = pool::num_threads();
    let (params, pool_graphs, fwd_iters, sweep_n_per_sec, burst_n) = match mode {
        matgnn_bench::RunMode::Quick => (10_000, 24, 40, 1.5, 150),
        matgnn_bench::RunMode::Full => (50_000, 48, 150, 4.0, 600),
    };
    println!("pool: {threads} worker(s); model: {params} target params\n");

    // — model, data, and an MGTC round-trip —
    let ds = Dataset::generate_aggregate(pool_graphs, 11, &GeneratorConfig::default());
    let norm = Normalizer::fit(&ds);
    let model = Egnn::new(EgnnConfig::with_target_params(params, 3).with_seed(5));
    let graphs: Vec<MolGraph> = ds.samples().iter().map(|s| s.graph.clone()).collect();

    let ckpt = {
        let params: ParamSet = model.params().iter().cloned().collect();
        let n = params.n_scalars();
        TrainCheckpoint {
            epoch: 1,
            step_in_epoch: 0,
            global_step: 100,
            seed: 5,
            loss_acc: 0.0,
            loss_count: 0,
            params,
            adam: AdamState {
                m: vec![0.0; n],
                v: vec![0.0; n],
                t: 100,
            },
            normalizer: norm,
        }
    };
    let ckpt_path = std::path::Path::new("target").join("exp_serving_ckpt.mgtc");
    std::fs::create_dir_all("target").expect("create target/");
    ckpt.save(&ckpt_path).expect("save MGTC checkpoint");
    let engine =
        InferenceEngine::load_mgtc(&ckpt_path, *model.config()).expect("load MGTC checkpoint");
    let _ = std::fs::remove_file(&ckpt_path);

    // The round-tripped engine must be bitwise-identical to freezing the
    // live model directly.
    let direct = InferenceEngine::from_model(&model, norm);
    let probe = GraphBatch::from_graphs(&[&graphs[0], &graphs[1]]);
    let (e_load, f_load) = engine.predict_raw(&probe);
    let (e_dir, f_dir) = direct.predict_raw(&probe);
    let roundtrip_bitwise = e_load == e_dir && f_load == f_dir;
    println!(
        "MGTC round-trip: loaded engine bitwise vs direct freeze — {}",
        if roundtrip_bitwise { "OK" } else { "DIVERGED" }
    );

    // — frozen vs tape parity across the request pool: both run one
    // forward body, so every energy and force agrees to the bit —
    let mut parity_mismatches = 0usize;
    for chunk in graphs.chunks(6) {
        let refs: Vec<&MolGraph> = chunk.iter().collect();
        let batch = GraphBatch::from_graphs(&refs);
        let (te, tf) = tape_forward(&model, &batch);
        let (fe, ff) = engine.predict_raw(&batch);
        let tape = te.iter().chain(&tf);
        let frozen = fe.data().iter().chain(ff.data());
        parity_mismatches += tape
            .zip(frozen)
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
    }
    let parity_ok = parity_mismatches == 0;
    println!(
        "parity vs tape: {parity_mismatches} energies/forces differ in any bit — {}",
        if parity_ok { "OK" } else { "DIVERGED" }
    );

    // — single-graph forward: tape vs frozen, on the median-size graph
    // (the typical request; overheads and compute both represented) —
    let median = {
        let mut by_size: Vec<&MolGraph> = graphs.iter().collect();
        by_size.sort_by_key(|g| g.n_nodes());
        by_size[by_size.len() / 2]
    };
    let single = GraphBatch::from_graphs(&[median]);
    for _ in 0..3 {
        tape_forward(&model, &single);
        engine.predict_raw(&single);
    }
    // Interleaved chunks, alternating which path goes first: the minimum
    // over chunks is the honest cost of each path, and the median of the
    // per-chunk tape/frozen ratios compares the two on equal footing
    // (scheduler noise on a shared host hits both halves of a pair alike).
    let chunks = 16usize;
    let per_chunk = (fwd_iters / chunks).max(10);
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..per_chunk {
            f();
        }
        t0.elapsed().as_nanos() as f64 / per_chunk as f64
    };
    let mut tape = || drop(std::hint::black_box(tape_forward(&model, &single)));
    let mut frozen = || drop(std::hint::black_box(engine.predict_raw(&single)));
    let (mut tape_ns, mut frozen_ns) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(chunks);
    for c in 0..chunks {
        let (t, f) = if c % 2 == 0 {
            let t = time(&mut tape);
            (t, time(&mut frozen))
        } else {
            let f = time(&mut frozen);
            (time(&mut tape), f)
        };
        tape_ns = tape_ns.min(t);
        frozen_ns = frozen_ns.min(f);
        ratios.push(t / f);
    }
    ratios.sort_by(f64::total_cmp);
    let speedup = ratios[chunks / 2];
    let us_per_atom = frozen_ns / 1e3 / median.n_nodes() as f64;
    let us_per_atom_bound = match mode {
        matgnn_bench::RunMode::Quick => FROZEN_US_PER_ATOM_BOUND.0,
        matgnn_bench::RunMode::Full => FROZEN_US_PER_ATOM_BOUND.1,
    };
    println!(
        "single-graph forward ({} atoms): tape {:.0} ns, frozen {:.0} ns, median ratio {speedup:.2}x; \
         frozen {us_per_atom:.2} µs/atom (bound {us_per_atom_bound})",
        median.n_nodes(),
        tape_ns,
        frozen_ns
    );

    // — zero-allocation steady state (pool-of-1; recycler warmed) —
    let pool_of_1 = Runtime::current().with_threads(1).enter();
    for _ in 0..5 {
        engine.predict_raw(&single);
    }
    let allocs0 = ALLOC_EVENTS.load(Ordering::Relaxed);
    let bytes0 = ALLOC_BYTES.load(Ordering::Relaxed);
    let steady_iters = 25u64;
    for _ in 0..steady_iters {
        engine.predict_raw(&single);
    }
    let steady_allocs = ALLOC_EVENTS.load(Ordering::Relaxed) - allocs0;
    let steady_bytes = ALLOC_BYTES.load(Ordering::Relaxed) - bytes0;
    drop(pool_of_1);
    println!(
        "steady state: {steady_allocs} allocs / {steady_bytes} B over {steady_iters} requests — {}",
        if steady_allocs == 0 {
            "OK"
        } else {
            "ALLOCATING"
        }
    );

    // — offered-load sweep through the dynamic batcher —
    let batcher = DynamicBatcher::start(Arc::new(engine), BatcherConfig::default());
    // Closed-loop burst to find capacity, then pace fractions of it.
    let burst = run_level(&batcher, &graphs, f64::INFINITY, burst_n);
    let capacity = burst.achieved_rps;
    println!(
        "\ncapacity (closed loop): {capacity:.0} req/s, mean batch {:.1} graphs\n",
        burst.mean_batch_graphs
    );
    println!(
        "{:>12} {:>12} {:>10} {:>10} {:>12}",
        "offered/s", "achieved/s", "p50 ms", "p99 ms", "batch fill"
    );
    let fractions = [0.25, 0.5, 0.75, 1.0, 1.25];
    let mut levels = Vec::new();
    for frac in fractions {
        let offered = capacity * frac;
        let n = ((offered * sweep_n_per_sec) as usize).clamp(40, 2000);
        let level = run_level(&batcher, &graphs, offered, n);
        println!(
            "{:>12.0} {:>12.0} {:>10.2} {:>10.2} {:>12.1}",
            level.offered_rps,
            level.achieved_rps,
            level.p50_ms,
            level.p99_ms,
            level.mean_batch_graphs
        );
        levels.push(level);
    }
    batcher.shutdown();

    let low_p99 = levels[0].p99_ms;
    let slo_ok = low_p99 <= SLO_P99_MS;
    let saturated = levels.last().expect("levels non-empty").achieved_rps;
    // At 1.25x offered the batcher should still deliver a solid fraction
    // of burst capacity (batching keeps it from collapsing under queueing).
    let saturation_ok = saturated >= 0.5 * capacity;
    println!(
        "\nSLO: p99 at lowest load {low_p99:.1} ms (bound {SLO_P99_MS:.0} ms) — {}",
        if slo_ok { "OK" } else { "VIOLATED" }
    );
    println!(
        "saturation: {saturated:.0} req/s at 1.25x offered (>= {:.0} required) — {}",
        0.5 * capacity,
        if saturation_ok { "OK" } else { "COLLAPSED" }
    );

    // — BENCH_serving.json —
    let mut levels_json = String::new();
    for (i, l) in levels.iter().enumerate() {
        let _ = write!(
            levels_json,
            "{}\n    {{\"offered_rps\": {:.1}, \"achieved_rps\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"mean_batch_graphs\": {:.2}}}",
            if i == 0 { "" } else { "," },
            l.offered_rps,
            l.achieved_rps,
            l.p50_ms,
            l.p99_ms,
            l.mean_batch_graphs
        );
    }
    let path = "BENCH_serving.json";
    let header = matgnn_bench::bench_json_header(mode);
    let json = format!(
        "{{\n{header}  \"threads\": {threads},\n  \
         \"tape_fwd_ns\": {tape_ns:.0},\n  \"frozen_fwd_ns\": {frozen_ns:.0},\n  \
         \"speedup\": {speedup:.3},\n  \
         \"frozen_us_per_atom\": {us_per_atom:.3},\n  \
         \"frozen_us_per_atom_bound\": {us_per_atom_bound},\n  \
         \"steady_allocs_per_request\": {:.3},\n  \
         \"parity_mismatches\": {parity_mismatches},\n  \
         \"mgtc_roundtrip_bitwise\": {roundtrip_bitwise},\n  \
         \"capacity_rps\": {capacity:.1},\n  \
         \"slo\": {{\"p99_ms_bound\": {SLO_P99_MS}, \"lowest_load_p99_ms\": {low_p99:.3}, \"pass\": {slo_ok}}},\n  \
         \"levels\": [{levels_json}\n  ]\n}}\n",
        steady_allocs as f64 / steady_iters as f64,
    );
    std::fs::write(path, json).expect("write BENCH_serving.json");
    println!("\nwrote {path}");

    let mut failed = false;
    if !roundtrip_bitwise {
        eprintln!("ERROR: MGTC-loaded engine diverges from direct freeze");
        failed = true;
    }
    if !parity_ok {
        eprintln!("ERROR: {parity_mismatches} frozen outputs differ from the tape's");
        failed = true;
    }
    if speedup < 1.0 {
        eprintln!(
            "ERROR: tape-free single-graph forward slower than the taped one ({speedup:.2}x)"
        );
        failed = true;
    }
    if us_per_atom > us_per_atom_bound {
        eprintln!(
            "ERROR: tape-free single-graph forward {us_per_atom:.2} µs/atom over its {us_per_atom_bound} bound"
        );
        failed = true;
    }
    if steady_allocs != 0 {
        eprintln!("ERROR: engine hot path allocated {steady_allocs} times at steady state");
        failed = true;
    }
    if !slo_ok {
        eprintln!("ERROR: p99 {low_p99:.1} ms at lowest load violates the {SLO_P99_MS:.0} ms SLO");
        failed = true;
    }
    if !saturation_ok {
        eprintln!("ERROR: throughput collapsed past saturation ({saturated:.0} req/s)");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
