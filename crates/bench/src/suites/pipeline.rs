//! Latency-hiding pipeline benchmark — runs the same 2-rank DDP training
//! job in four modes ({sync, prefetch, overlap, both}), verifies every run
//! is **bitwise identical** to the first `sync` run (epoch losses, final
//! parameters, tracked memory peaks), measures the effective step time of
//! each, and writes the results to `BENCH_pipeline.json`. After that first
//! run, which also warms the process up, `sync` and `both` run in
//! [`ROUNDS`] rounds, alternating which goes first; the other two modes
//! run once.
//!
//! Run: `MATGNN_THREADS=2 cargo run --release -p matgnn-bench -- pipeline [--quick|--full]`
//!
//! The simulated ranks share one machine, so raw wall time cannot show the
//! interconnect cost that prefetching and backward-overlapped all-reduce
//! exist to hide. The effective step time therefore combines the
//! **measured** wall per step with the **exposed** modeled communication
//! per step — `CommStats::exposed_seconds()`, i.e. modeled ring traffic
//! minus the portion `overlap_comm` hid behind the backward pass. The link
//! is a slow commodity interconnect (50 µs latency, bandwidth calibrated
//! so one gradient all-reduce costs ~60% of a measured compute step),
//! which is exactly the regime where overlap pays. On a single-core
//! container the ranks are time-sliced, so the measured component is
//! pessimistic for the threaded modes; the exposed-comm reduction is the
//! honest signal. Exits non-zero if any run diverges bitwise, if tracked
//! peaks differ, or if the median over rounds of the paired cut
//! `1 − both/sync` in effective step time is below 20%. One wall-time
//! sample per mode let a slow spell on one side, or the cold first run
//! (always `sync`), decide the verdict; pairing within a round and taking
//! the median leaves it to the typical warm round. On a 2-vCPU host that
//! typical cut is itself about 20% (overlap hides ~0.5 ms of modeled comm
//! from a ~2.5 ms step), so there the gate fails about half the quick
//! runs.

use std::time::Instant;

use matgnn::dist::CostModel;
use matgnn::prelude::*;
use matgnn::tensor::pool;
use matgnn::train::vanilla_step;
use matgnn_bench::{gate, param_bits, RunMode};

pub const TITLE: &str =
    "Latency-hiding pipeline: prefetch + overlapped all-reduce, bitwise-checked";

/// Paired `sync`/`both` rounds behind the step-time gate.
const ROUNDS: usize = 5;

/// Minimum median paired cut in effective step time, `both` vs `sync`.
const MIN_CUT: f64 = 0.20;

struct ModeResult {
    name: &'static str,
    /// The paired round this run belongs to (`sync`/`both` only).
    round: Option<usize>,
    loss_bits: Vec<u64>,
    param_bits: Vec<u64>,
    peak_total: u64,
    wall_per_step: f64,
    modeled_per_step: f64,
    exposed_per_step: f64,
}

impl ModeResult {
    /// Effective seconds per optimizer step: measured wall plus the
    /// modeled communication the pipeline failed to hide.
    fn step_seconds(&self) -> f64 {
        self.wall_per_step + self.exposed_per_step
    }
}

/// Trains a fresh model under `cfg` and records what the gates compare.
fn run_mode(
    name: &'static str,
    round: Option<usize>,
    ds: &Dataset,
    norm: &Normalizer,
    hidden: usize,
    cfg: &DdpConfig,
) -> ModeResult {
    let mut model = Egnn::new(EgnnConfig::new(hidden, 3).with_seed(42));
    let report = train_ddp(&mut model, ds, norm, cfg);
    assert_eq!(report.recoveries, 0);
    let steps = report.steps.max(1) as f64;
    let rank0 = &report.ranks[0];
    ModeResult {
        name,
        round,
        loss_bits: report.epoch_loss.iter().map(|l| l.to_bits()).collect(),
        param_bits: param_bits(&model),
        peak_total: rank0.peak_total,
        wall_per_step: report.wall.as_secs_f64() / steps,
        modeled_per_step: rank0.comm.modeled_seconds / steps,
        exposed_per_step: rank0.comm.exposed_seconds() / steps,
    }
}

pub fn run(mode: RunMode) -> bool {
    let threads = pool::num_threads();
    let (hidden, graphs, epochs, batch_size) = match mode {
        RunMode::Quick => (32, 16, 2, 4),
        RunMode::Full => (64, 32, 3, 4),
    };

    let ds = Dataset::generate_aggregate(graphs, 7, &GeneratorConfig::default());
    let norm = Normalizer::fit(&ds);

    // Calibrate the link so one ring all-reduce of the gradient vector
    // costs ~60% of a measured compute step — the commodity-interconnect
    // regime (vs the NVLink default, where comm is negligible and there
    // is nothing to hide).
    let model = Egnn::new(EgnnConfig::new(hidden, 3).with_seed(42));
    let n_params = model.params().n_scalars();
    let sample_refs: Vec<&Sample> = ds.samples().iter().take(batch_size).collect();
    let (batch, targets) = collate(&sample_refs, &norm);
    let loss_cfg = LossConfig::default();
    let _ = vanilla_step(&model, &batch, &targets, &loss_cfg, None); // warm caches
    let reps = 3;
    let t0 = Instant::now();
    for _ in 0..reps {
        let _ = vanilla_step(&model, &batch, &targets, &loss_cfg, None);
    }
    let t_compute = t0.elapsed().as_secs_f64() / reps as f64;
    let latency_us = 50.0;
    // 2-rank ring all-reduce moves `payload * 2 * (w-1) / w` = payload
    // bytes per rank.
    let ring_bytes = (n_params * 4) as f64;
    let link_gb_per_s = ring_bytes / (0.6 * t_compute).max(1e-6) / 1e9;
    let cost = CostModel {
        link_gb_per_s,
        latency_us,
    };
    println!(
        "pool: {threads} worker(s); model: hidden {hidden}, 3 layers, {n_params} params\n\
         compute step {:.2} ms; calibrated link {:.4} GB/s ({latency_us} us latency)\n",
        t_compute * 1e3,
        link_gb_per_s
    );

    let base = DdpConfig {
        world: 2,
        epochs,
        batch_size,
        grad_clip: None, // overlap requires unclipped gradients
        seed: 11,
        cost,
        // ~8 buckets per step so the first collectives start early in the
        // backward pass.
        bucket_size: Some((n_params / 8).max(64)),
        ..Default::default()
    };
    let run = |name, round, prefetch_depth, overlap_comm| {
        let cfg = DdpConfig {
            prefetch_depth,
            overlap_comm,
            ..base.clone()
        };
        run_mode(name, round, &ds, &norm, hidden, &cfg)
    };
    // The first run pays the process's lazy set-up (worker threads,
    // recycler buckets, first-touch pages), so it is the bitwise reference
    // and sits outside the rounds. Within the rounds `sync` and `both`
    // alternate which goes first, so a slow spell of the host lands on
    // either side equally often.
    let mut results = vec![run("sync", None, 0, false)];
    for round in 0..ROUNDS {
        let sync = || run("sync", Some(round), 0, false);
        let both = || run("both", Some(round), 2, true);
        if round % 2 == 0 {
            results.extend([sync(), both()]);
        } else {
            results.extend([both(), sync()]);
        }
    }
    results.push(run("prefetch", None, 2, false));
    results.push(run("overlap", None, 0, true));

    let sync = &results[0];
    let mut bitwise = true;
    let mut peaks_equal = true;
    println!(
        "{:<10} {:>5} {:>12} {:>14} {:>14} {:>14}  bitwise",
        "mode", "round", "wall/step", "modeled comm", "exposed comm", "step (eff.)"
    );
    for r in &results {
        let same = r.loss_bits == sync.loss_bits && r.param_bits == sync.param_bits;
        bitwise &= same;
        peaks_equal &= r.peak_total == sync.peak_total;
        println!(
            "{:<10} {:>5} {:>9.2} ms {:>11.2} ms {:>11.2} ms {:>11.2} ms  {}",
            r.name,
            r.round.map_or("-".to_string(), |k| k.to_string()),
            r.wall_per_step * 1e3,
            r.modeled_per_step * 1e3,
            r.exposed_per_step * 1e3,
            r.step_seconds() * 1e3,
            if same { "OK" } else { "DIVERGED" }
        );
    }

    // Per-round paired cut `1 − both/sync`, gated on its median.
    let step_of = |name: &str, round: usize| {
        results
            .iter()
            .find(|r| r.name == name && r.round == Some(round))
            .expect("one run per mode and round")
            .step_seconds()
    };
    let cuts: Vec<f64> = (0..ROUNDS)
        .map(|k| 1.0 - step_of("both", k) / step_of("sync", k))
        .collect();
    let mut sorted = cuts.clone();
    sorted.sort_by(f64::total_cmp);
    let reduction = sorted[ROUNDS / 2];
    let overlap = results.last().expect("overlap runs last");
    let hidden_frac = 1.0 - overlap.exposed_per_step / overlap.modeled_per_step.max(1e-12);
    let cuts_pct: Vec<String> = cuts.iter().map(|c| format!("{:.1}%", 100.0 * c)).collect();
    println!(
        "\nboth vs sync: per-round effective step-time cuts [{}], median {:.1}%; \
         overlap hid {:.1}% of modeled comm",
        cuts_pct.join(", "),
        100.0 * reduction,
        100.0 * hidden_frac
    );
    println!(
        "tracked peaks equal: {}",
        if peaks_equal { "OK" } else { "DIVERGED" }
    );

    let path = "BENCH_pipeline.json";
    let mut rows = String::new();
    for r in &results {
        rows.push_str(&format!(
            "    {{\"mode\": \"{}\", \"round\": {}, \"wall_per_step_ms\": {:.3}, \
             \"modeled_comm_per_step_ms\": {:.3}, \"exposed_comm_per_step_ms\": {:.3}, \
             \"step_ms\": {:.3}, \"peak_total\": {}}},\n",
            r.name,
            r.round.map_or("null".to_string(), |k| k.to_string()),
            r.wall_per_step * 1e3,
            r.modeled_per_step * 1e3,
            r.exposed_per_step * 1e3,
            r.step_seconds() * 1e3,
            r.peak_total,
        ));
    }
    rows.truncate(rows.len().saturating_sub(2)); // drop trailing ",\n"
    let header = matgnn_bench::bench_json_header(mode);
    let json = format!(
        "{{\n{header}  \"threads\": {threads},\n  \
         \"world\": 2,\n  \"n_params\": {n_params},\n  \
         \"link_gb_per_s\": {link_gb_per_s:.6},\n  \"latency_us\": {latency_us},\n  \
         \"modes\": [\n{rows}\n  ],\n  \
         \"round_cuts\": [{}],\n  \
         \"step_time_reduction\": {reduction:.4},\n  \
         \"comm_hidden_fraction\": {hidden_frac:.4},\n  \
         \"bitwise_equal\": {bitwise},\n  \"tracked_peak_equal\": {peaks_equal}\n}}\n",
        cuts.iter()
            .map(|c| format!("{c:.4}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    std::fs::write(path, json).expect("write BENCH_pipeline.json");
    println!("wrote {path}");

    let mut passed = gate(
        bitwise,
        "pipeline modes diverged bitwise from the synchronous run",
    );
    passed &= gate(peaks_equal, "MemoryTracker peak changed with the pipeline");
    passed &= gate(
        reduction >= MIN_CUT,
        &format!(
            "median paired effective step-time cut {:.1}% below the {:.0}% floor",
            100.0 * reduction,
            100.0 * MIN_CUT
        ),
    );
    passed
}
