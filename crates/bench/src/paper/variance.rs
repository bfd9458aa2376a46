//! Seed-variance study (extension): error bars for the scaling curves.
//!
//! Re-trains each swept model size under several seeds on the 0.4 TB
//! subset and reports mean ± std test loss — the run-to-run noise behind
//! single-run grid points (the paper, like most billion-parameter
//! studies, reports single runs).
//!
//! Run: `cargo run --release -p matgnn-bench -- variance [--quick|--full]`

use matgnn::scaling::{format_params, run_seed_variance};
use matgnn_bench::{csv_row, RunMode};

pub const TITLE: &str = "Seed variance: test-loss error bars at 0.4 TB";

pub fn run(mode: RunMode) -> bool {
    let cfg = mode.experiment_config();
    let n_seeds = match mode {
        RunMode::Quick => 3,
        RunMode::Full => 5,
    };

    let points = run_seed_variance(&cfg, n_seeds);
    println!(
        "\n{:>12} {:>10} {:>10} {:>10} {:>8}  per-seed losses",
        "paper-size", "params", "mean", "std", "cv%"
    );
    csv_row(&["actual_params,paper_params,mean,std,losses".to_string()]);
    for p in &points {
        let losses: Vec<String> = p.losses.iter().map(|l| format!("{l:.4}")).collect();
        println!(
            "{:>12} {:>10} {:>10.4} {:>10.4} {:>7.1}%  [{}]",
            format_params(p.paper_params),
            p.actual_params,
            p.mean,
            p.std,
            100.0 * p.std / p.mean.max(1e-12),
            losses.join(", ")
        );
        csv_row(&[format!(
            "{},{},{:.6},{:.6},{}",
            p.actual_params,
            p.paper_params,
            p.mean,
            p.std,
            losses.join("|")
        )]);
    }

    println!("\ninterpretation:");
    let worst_cv = points
        .iter()
        .map(|p| p.std / p.mean.max(1e-12))
        .fold(0.0f64, f64::max);
    println!(
        "  worst coefficient of variation: {:.1}% — grid differences smaller than ~2σ\n  should not be over-read (see EXPERIMENTS.md known divergences)",
        100.0 * worst_cv
    );
    true
}
