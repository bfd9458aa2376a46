//! Observability-plane benchmark: proves the cross-rank trace analytics
//! produce exact known answers, that scraping the live `/metrics`
//! endpoint at 10 Hz costs at most 5% of serving p99, and that the
//! telemetry layer stays bitwise-invisible and allocation-free when
//! disabled. Writes `BENCH_observe.json`.
//!
//! Run: `cargo run --release -p matgnn-bench -- observe [--quick|--full]`
//!
//! Three gates, each fatal for CI:
//!
//! 1. **Known-answer trace analysis** — a hand-built two-rank JSONL log
//!    with fully-worked interval arithmetic must round-trip through
//!    `load_dir` → `analyze` to the exact comm-overlap, straggler-skew,
//!    and critical-path numbers.
//! 2. **Scrape overhead** — serving p99 with a 10 Hz `/metrics` scraper
//!    attached must stay within 5% (plus a small absolute epsilon for
//!    shared-CI jitter) of the no-exporter baseline; both legs are
//!    best-of-3.
//! 3. **Disabled invisibility** — with telemetry off, a training
//!    trajectory must be bitwise-identical to one run with the JSONL
//!    sink armed, and the disabled span hot path must perform zero heap
//!    allocations.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use matgnn::prelude::*;
use matgnn::serve::{BatcherConfig, DynamicBatcher, InferenceEngine};
use matgnn::telemetry as tel;
use matgnn::telemetry::analyze::{analyze, load_dir, render_flamegraph, Phase};
use matgnn::train::Trainer;
use matgnn_bench::{gate, param_bits, RunMode};

use crate::ALLOC_EVENTS;

pub const TITLE: &str =
    "Observability: trace known answers, /metrics overhead, disabled invisibility";

/// Scraped p99 may exceed the baseline by at most this factor…
const OVERHEAD_CEILING: f64 = 1.05;
/// …plus this absolute allowance: at sub-15ms p99 on a shared CI host,
/// scheduler jitter alone exceeds 5% of the measurement.
const OVERHEAD_EPS_MS: f64 = 2.0;

// ── gate 1: known-answer trace analysis ──────────────────────────────

fn span_line(rank: i64, step: i64, name: &str, ts: u64, dur: u64, depth: u32) -> String {
    format!(
        "{{\"type\":\"span\",\"v\":2,\"ts_us\":{ts},\"rank\":{rank},\"step\":{step},\
         \"tid\":1,\"name\":\"{name}\",\"dur_us\":{dur},\"depth\":{depth}}}\n"
    )
}

/// Writes the worked two-rank example to disk, round-trips it through
/// the real file loader, and checks every analytic against hand
/// arithmetic. Rank 0: step [0,100), forward [0,60), backward [60,90),
/// comm [50,80) — fully hidden behind compute. Rank 1: step [0,140),
/// forward [0,80), backward [80,120), comm [120,140) — fully exposed.
fn gate_trace_known_answer() -> bool {
    let dir = std::path::Path::new("target").join("exp_observe_tel");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create trace dir");

    let rank0 = [
        span_line(0, 0, "step", 0, 100, 0),
        span_line(0, 0, "forward", 0, 60, 1),
        span_line(0, 0, "backward", 60, 30, 1),
        span_line(0, 0, "comm.all_reduce", 50, 30, 2),
    ]
    .concat();
    let rank1 = [
        span_line(1, 0, "step", 0, 140, 0),
        span_line(1, 0, "forward", 0, 80, 1),
        span_line(1, 0, "backward", 80, 40, 1),
        span_line(1, 0, "comm.all_reduce", 120, 20, 1),
    ]
    .concat();
    std::fs::write(dir.join("events-rank0.jsonl"), rank0).expect("write rank0 log");
    std::fs::write(dir.join("events-rank1.jsonl"), rank1).expect("write rank1 log");

    let spans = load_dir(&dir).expect("load trace dir");
    let a = analyze(&spans);
    let fg = render_flamegraph(&spans);
    let _ = std::fs::remove_dir_all(&dir);

    let mut ok = true;
    let mut check = |label: &str, pass: bool| {
        println!("  {label:<42} {}", if pass { "OK" } else { "WRONG" });
        ok &= pass;
    };
    check(
        "loads 8 spans across 2 ranks",
        spans.len() == 8 && a.ranks == vec![0, 1],
    );
    check("comm total 50us", a.comm_total_us == 50);
    check("comm hidden 30us", a.comm_hidden_us == 30);
    check(
        "overlap efficiency 0.6 exactly",
        (a.overlap_efficiency() - 0.6).abs() < 1e-12,
    );
    check("forward phase 140us", a.phase_total(Phase::Forward) == 140);
    check("backward phase 70us", a.phase_total(Phase::Backward) == 70);
    let step = &a.steps[0];
    check("straggler skew 40us (max−median)", step.skew_us == 40);
    check(
        "critical path: rank 1, 140us, forward",
        step.critical_rank == 1 && step.critical_wall_us == 140 && a.critical_path_us == 140,
    );
    check(
        "flamegraph self-time folding",
        fg.contains("rank0;step;forward 60\n") && fg.contains("rank1;step;forward 80\n"),
    );
    ok
}

// ── gate 2: /metrics scrape overhead ─────────────────────────────────

/// Issues one blocking HTTP GET against the metrics endpoint and drains
/// the response (std-only; no HTTP client dependency).
fn scrape_once(addr: std::net::SocketAddr, path: &str) -> bool {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(500)) else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let req = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
    if stream.write_all(req.as_bytes()).is_err() {
        return false;
    }
    let mut body = String::new();
    let _ = stream.read_to_string(&mut body);
    body.starts_with("HTTP/1.1 200")
}

/// One serving leg: drive `n` paced requests through a fresh batcher and
/// return the exact sliding-window p99 latency. With `scraped` the live
/// metrics plane is up and a 10 Hz scraper hammers `/metrics` for the
/// whole leg.
fn serve_leg(engine: &Arc<InferenceEngine>, graphs: &[MolGraph], n: usize, scraped: bool) -> f64 {
    tel::reset_metrics();
    let batcher = DynamicBatcher::start(Arc::clone(engine), BatcherConfig::default());

    let stop = Arc::new(AtomicBool::new(false));
    let mut plane = None;
    let mut scraper = None;
    if scraped {
        let server = matgnn::serve::MetricsServer::start("127.0.0.1:0", batcher.readiness_probe())
            .expect("start metrics server");
        let addr = server.local_addr();
        let stop2 = Arc::clone(&stop);
        scraper = Some(std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop2.load(Ordering::Relaxed) {
                if scrape_once(addr, "/metrics") {
                    scrapes += 1;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            scrapes
        }));
        plane = Some(server);
    }

    // Open-loop pacing at a rate both legs can sustain, so the scraper
    // is the only variable between them.
    super::serving::submit_paced(&batcher, graphs, Duration::from_millis(2), n);
    let p99 = tel::window_quantile("serve.latency_ms", 0.99).expect("window p99");

    stop.store(true, Ordering::Relaxed);
    if let Some(h) = scraper {
        let scrapes = h.join().expect("scraper thread");
        assert!(scrapes > 0, "scraper never reached /metrics");
    }
    drop(plane);
    batcher.shutdown();
    p99
}

/// Best-of-3 p99 for one leg kind; min-of-reps is the standard shared-CI
/// de-noising (the minimum is the run least perturbed by the host).
fn best_p99(engine: &Arc<InferenceEngine>, graphs: &[MolGraph], n: usize, scraped: bool) -> f64 {
    (0..3)
        .map(|_| serve_leg(engine, graphs, n, scraped))
        .fold(f64::INFINITY, f64::min)
}

// ── gate 3: disabled invisibility ────────────────────────────────────

/// Runs the full `Trainer::fit` trajectory and returns loss + parameter
/// bits. With `telemetry_dir` the JSONL sink is armed for the run, so
/// every trainer span actually records.
fn trajectory_bits(telemetry_dir: Option<&std::path::Path>) -> Vec<u64> {
    if let Some(dir) = telemetry_dir {
        let _ = std::fs::remove_dir_all(dir);
        tel::init(dir).expect("init telemetry sink");
    }
    let ds = Dataset::generate_aggregate(12, 3, &GeneratorConfig::default());
    let norm = Normalizer::fit(&ds);
    let mut model = Egnn::new(EgnnConfig::new(12, 3).with_seed(7));
    let trainer = Trainer::new(TrainConfig {
        epochs: 2,
        batch_size: 4,
        ..TrainConfig::default()
    });
    let report = trainer.fit(&mut model, &ds, None, &norm);
    if telemetry_dir.is_some() {
        tel::shutdown();
    }
    let last = report.epochs.last().expect("trained at least one epoch");
    let mut bits = vec![last.train_loss.to_bits()];
    bits.extend(param_bits(&model));
    bits
}

/// Counts heap allocations across `iters` disabled span open/close
/// pairs. The contract from the telemetry layer: one relaxed atomic
/// load, an inert guard, nothing on the heap.
fn disabled_span_allocs(iters: u64) -> u64 {
    // Warm-up outside the measured region.
    for _ in 0..64 {
        let _s = tel::span("forward");
    }
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    for _ in 0..iters {
        let _outer = tel::span("step");
        let _inner = tel::span("forward");
    }
    ALLOC_EVENTS.load(Ordering::Relaxed) - before
}

pub fn run(mode: RunMode) -> bool {
    let (params, serve_graphs, serve_n, span_iters) = match mode {
        RunMode::Quick => (8_000, 16, 150, 200_000u64),
        RunMode::Full => (30_000, 32, 600, 1_000_000u64),
    };

    // — gate 1 —
    println!("gate 1: known-answer trace analysis");
    let trace_ok = gate_trace_known_answer();

    // — gate 3a first: the bitwise legs must run before serving warms the
    //   metrics registry, and the telemetry-armed leg needs exclusive use
    //   of the process-global sink —
    println!("\ngate 3: disabled-telemetry invisibility");
    let bits_off = trajectory_bits(None);
    let tel_dir = std::path::Path::new("target").join("exp_observe_traj_tel");
    let bits_on = trajectory_bits(Some(&tel_dir));
    let _ = std::fs::remove_dir_all(&tel_dir);
    let bitwise_ok = bits_off == bits_on;
    println!(
        "  trajectory bits off vs armed sink          {}",
        if bitwise_ok {
            "OK (identical)"
        } else {
            "DIVERGED"
        }
    );

    let span_allocs = disabled_span_allocs(span_iters);
    let alloc_ok = span_allocs == 0;
    println!(
        "  disabled span hot path                     {} ({span_allocs} allocs / {span_iters} pairs)",
        if alloc_ok { "OK" } else { "ALLOCATES" }
    );

    // — gate 2 —
    println!("\ngate 2: /metrics scrape overhead (10 Hz, best-of-3 per leg)");
    let ds = Dataset::generate_aggregate(serve_graphs, 11, &GeneratorConfig::default());
    let norm = Normalizer::fit(&ds);
    let model = Egnn::new(EgnnConfig::with_target_params(params, 3).with_seed(5));
    let graphs: Vec<MolGraph> = ds.samples().iter().map(|s| s.graph.clone()).collect();
    let engine = Arc::new(InferenceEngine::from_model(&model, norm));

    let p99_base = best_p99(&engine, &graphs, serve_n, false);
    let p99_scraped = best_p99(&engine, &graphs, serve_n, true);
    let overhead = p99_scraped / p99_base;
    let bound = p99_base * OVERHEAD_CEILING + OVERHEAD_EPS_MS;
    let overhead_ok = p99_scraped <= bound;
    println!("  p99 no exporter   {p99_base:8.3} ms");
    println!(
        "  p99 scraped       {p99_scraped:8.3} ms  ({:+.1}%, bound {bound:.3} ms) {}",
        100.0 * (overhead - 1.0),
        if overhead_ok { "OK" } else { "TOO SLOW" }
    );

    matgnn_bench::csv_row(&[
        "observe".to_string(),
        trace_ok.to_string(),
        format!("{p99_base:.3}"),
        format!("{p99_scraped:.3}"),
        bitwise_ok.to_string(),
        span_allocs.to_string(),
    ]);

    // — BENCH_observe.json —
    let header = matgnn_bench::bench_json_header(mode);
    let json = format!(
        "{{\n{header}  \"trace_known_answer_ok\": {trace_ok},\n  \
         \"serve_p99_ms_baseline\": {p99_base:.3},\n  \
         \"serve_p99_ms_scraped\": {p99_scraped:.3},\n  \
         \"scrape_hz\": 10,\n  \"overhead_ratio\": {overhead:.4},\n  \
         \"overhead_ceiling\": {OVERHEAD_CEILING},\n  \
         \"overhead_eps_ms\": {OVERHEAD_EPS_MS},\n  \
         \"overhead_ok\": {overhead_ok},\n  \
         \"trajectory_bitwise_equal\": {bitwise_ok},\n  \
         \"disabled_span_allocs\": {span_allocs},\n  \
         \"disabled_span_iters\": {span_iters}\n}}\n"
    );
    let path = "BENCH_observe.json";
    std::fs::write(path, json).expect("write BENCH_observe.json");
    println!("\nwrote {path}");

    let mut passed = gate(trace_ok, "trace analytics diverged from the known answer");
    passed &= gate(
        overhead_ok,
        &format!(
            "10 Hz /metrics scraping inflated p99 {:.1}% past the 5% bound",
            100.0 * (overhead - 1.0)
        ),
    );
    passed &= gate(
        bitwise_ok,
        "arming the telemetry sink changed the training trajectory",
    );
    passed &= gate(
        alloc_ok,
        &format!("disabled span path allocated ({span_allocs} events)"),
    );
    if !passed {
        eprintln!("observe: one or more gates FAILED");
        return false;
    }
    println!("observe: all gates passed");
    true
}
