//! Figure 3 — the effect of scaling GNN **model size** (0.1 M → 2 B
//! paper-parameters) on final test loss, across dataset sizes 0.1–1.2 TB.
//!
//! Trains the full model×data grid and prints one series per dataset
//! size, plus saturating power-law fits whose diminishing-returns floor
//! reproduces the paper's Sec. IV-A observation.
//!
//! Run: `cargo run --release -p matgnn-bench -- fig3 [--quick|--full]`

use matgnn::scaling::{format_params, format_tb, run_scaling_grid};
use matgnn_bench::{csv_row, RunMode};

pub const TITLE: &str = "Fig. 3: test loss vs model size across dataset sizes";

pub fn run(mode: RunMode) -> bool {
    let cfg = mode.experiment_config();
    let grid = run_scaling_grid(&cfg);

    println!("\ntest loss by model size (rows) and dataset size (columns):\n");
    print!("{:>14}", "model size");
    for &tb in &grid.tb_points {
        print!(" {:>10}", format_tb(tb));
    }
    println!();
    let mut csv = vec!["paper_params,actual_params,tb,test_loss".to_string()];
    for (&size, (paper, _)) in grid.model_sizes.iter().zip(grid.series_by_size()) {
        print!("{:>14}", format!("{} ({})", format_params(paper), size));
        for &tb in &grid.tb_points {
            let p = grid.point(size, tb).expect("grid point");
            print!(" {:>10.4}", p.test_loss);
            csv.push(format!(
                "{},{},{},{}",
                p.paper_params, p.actual_params, tb, p.test_loss
            ));
        }
        println!();
    }
    println!();
    for row in csv {
        csv_row(&[row]);
    }

    println!("\npower-law fits L(params) = a·x^(−α) + c per dataset size:");
    for &tb in &grid.tb_points {
        match grid.fit_model_scaling(tb) {
            Some(fit) => println!(
                "  {:>7}: {}  (R² = {:.3})",
                format_tb(tb),
                fit.equation(),
                fit.r2
            ),
            None => println!(
                "  {:>7}: fit unavailable (needs ≥3 model sizes)",
                format_tb(tb)
            ),
        }
    }

    // Shape checks against the paper's qualitative findings.
    println!("\nshape checks vs paper (Sec. IV-A):");
    let mut monotone_series = 0;
    for (tb, series) in grid.series_by_tb() {
        let first = series.first().expect("points").1;
        let last = series.last().expect("points").1;
        let improves = last < first;
        if improves {
            monotone_series += 1;
        }
        println!(
            "  {:>7}: largest model {} smallest ({:.4} vs {:.4})",
            format_tb(tb),
            if improves { "beats" } else { "does NOT beat" },
            last,
            first
        );
    }
    println!(
        "  model scaling helps on {monotone_series}/{} dataset sizes",
        grid.tb_points.len()
    );
    if let Some(fit) = grid.fit_model_scaling(*grid.tb_points.last().expect("tbs")) {
        println!(
            "  diminishing returns: irreducible floor c = {:.4} (> 0 ⇒ sub-log-linear, as the paper observes)",
            fit.c
        );
    }
    true
}
