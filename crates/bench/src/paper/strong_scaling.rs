//! Strong scaling (extension) — throughput vs number of ranks for DDP
//! training, after HydraGNN-GFM's near-linear scaling claim (paper
//! Sec. II-B).
//!
//! On this substrate ranks share one CPU core, so the *measured* curve is
//! flat by construction; the *modeled* curve combines measured single-rank
//! compute with the ring-all-reduce interconnect cost model.
//!
//! Run: `cargo run --release -p matgnn-bench -- strong_scaling [--quick|--full]`

use matgnn::scaling::run_strong_scaling;
use matgnn_bench::{csv_row, timing_row, RunMode};

pub const TITLE: &str = "Strong scaling: DDP throughput vs rank count";

pub fn run(mode: RunMode) -> bool {
    let cfg = mode.experiment_config();

    let worlds = [1usize, 2, 4, 8];
    let points = run_strong_scaling(&cfg, &worlds);

    println!(
        "\n{:>6} {:>22} {:>12} {:>24}",
        "ranks", "modeled graphs/s", "efficiency", "measured graphs/s*"
    );
    // Every column rests on a measured step time, so all of them are
    // timing rows; the `csv,` rows pin only the world sizes run.
    csv_row(&["world".to_string()]);
    timing_row(&["world,modeled_gps,efficiency,measured_gps".to_string()]);
    for p in &points {
        println!(
            "{:>6} {:>22.1} {:>11.0}% {:>24.1}",
            p.world,
            p.modeled_graphs_per_s,
            100.0 * p.modeled_efficiency,
            p.measured_graphs_per_s
        );
        csv_row(&[p.world.to_string()]);
        timing_row(&[format!(
            "{},{:.3},{:.4},{:.3}",
            p.world, p.modeled_graphs_per_s, p.modeled_efficiency, p.measured_graphs_per_s
        )]);
    }
    println!("\n* measured ranks are time-sliced on one CPU core — flat by construction.");

    println!("\nshape checks vs HydraGNN-GFM's claim:");
    let ok = points
        .windows(2)
        .all(|w| w[1].modeled_graphs_per_s > w[0].modeled_graphs_per_s);
    let eff8 = points.last().expect("points").modeled_efficiency;
    println!(
        "  modeled throughput increases with ranks: {}",
        if ok { "✓" } else { "✗" }
    );
    println!(
        "  modeled efficiency at 8 ranks: {:.0}% ({})",
        100.0 * eff8,
        if eff8 > 0.7 {
            "near-linear ✓"
        } else {
            "communication-bound at this model size"
        }
    );
    true
}
