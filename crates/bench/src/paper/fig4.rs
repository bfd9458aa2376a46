//! Figure 4 — the effect of scaling **dataset size** (0.1 → 1.2 TB) on
//! final test loss, across model sizes.
//!
//! The 0.1 TB subset is drawn source-ordered (biased toward the first
//! source), reproducing the paper's conjectured train/test distribution
//! mismatch and the pronounced 0.1 → 0.2 TB drop.
//!
//! Run: `cargo run --release -p matgnn-bench -- fig4 [--quick|--full]`

use matgnn::model::{Egnn, EgnnConfig};
use matgnn::scaling::sweep::{self, train_and_evaluate, Sweep};
use matgnn::scaling::{format_params, format_tb, run_scaling_grid};
use matgnn::train::evaluate_per_source;
use matgnn_bench::{csv_row, RunMode};

pub const TITLE: &str = "Fig. 4: test loss vs dataset size across model sizes";

pub fn run(mode: RunMode) -> bool {
    let cfg = mode.experiment_config();
    let grid = run_scaling_grid(&cfg);

    println!("\ntest loss by dataset size (rows) and model size (columns):\n");
    print!("{:>10}", "dataset");
    for (paper, _) in grid.series_by_size() {
        print!(" {:>10}", format_params(paper));
    }
    println!();
    let mut csv = vec!["tb,paper_params,actual_params,test_loss".to_string()];
    for &tb in &grid.tb_points {
        print!("{:>10}", format_tb(tb));
        for &size in &grid.model_sizes {
            let p = grid.point(size, tb).expect("grid point");
            print!(" {:>10.4}", p.test_loss);
            csv.push(format!(
                "{},{},{},{}",
                tb, p.paper_params, p.actual_params, p.test_loss
            ));
        }
        println!();
    }
    println!();
    for row in csv {
        csv_row(&[row]);
    }

    println!("\npower-law fits L(tb) = a·x^(−α) + c per model size (stratified points only):");
    for &size in &grid.model_sizes {
        match grid.fit_data_scaling(size) {
            Some(fit) => println!("  {:>8} actual: {}", size, fit.equation()),
            None => {
                println!("  {size:>8} actual: fit needs ≥3 stratified TB points — run with --full")
            }
        }
    }

    // Direct evidence for the paper's mismatch conjecture: per-source
    // degradation of a model trained on the biased 0.1 TB subset relative
    // to one trained on an equal-size stratified subset. Absolute
    // per-source losses conflate intrinsic difficulty with coverage; the
    // ratio isolates what the bias costs each source.
    println!("\nper-source cost of the biased 0.1 TB subset (vs equal-size stratified):");
    {
        let sweep = Sweep::prepare(&cfg);
        let biased = sweep.subset(0.1);
        // Equal-size stratified subset.
        let keep_frac = biased.len() as f64 / sweep.train.len() as f64;
        let (stratified, _) = sweep.train.split_test(1.0 - keep_frac, cfg.seed ^ 0x57A7);
        let size = *cfg.model_sizes.last().expect("sizes");
        let model_cfg = EgnnConfig::with_target_params(size, cfg.n_layers).with_seed(cfg.seed);
        let per_source = sweep::run(&[biased, stratified], |subset| {
            let tc = cfg.train_config(subset.len().div_ceil(cfg.batch_size));
            let (test, norm) = (&sweep.test, &sweep.normalizer);
            let (model, ..) = train_and_evaluate(Egnn::new(model_cfg), subset, test, tc, norm);
            evaluate_per_source(&model, test, norm, &tc.loss, cfg.batch_size)
        });
        let (on_biased, on_stratified) = (&per_source[0], &per_source[1]);
        println!(
            "  {:<12} {:>10} {:>12} {:>8}",
            "source", "biased", "stratified", "ratio"
        );
        let mut organic_ratios = Vec::new();
        let mut other_ratios = Vec::new();
        for ((kind, b), (_, s)) in on_biased.iter().zip(on_stratified.iter()) {
            let ratio = b.loss / s.loss.max(1e-12);
            println!(
                "  {:<12} {:>10.4} {:>12.4} {:>7.2}×",
                kind.name(),
                b.loss,
                s.loss,
                ratio
            );
            if matches!(
                kind,
                matgnn::data::SourceKind::Ani1x | matgnn::data::SourceKind::Qm7x
            ) {
                organic_ratios.push(ratio);
            } else {
                other_ratios.push(ratio);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let (organics, others) = (mean(&organic_ratios), mean(&other_ratios));
        // The paper's conjecture: the biased subset *costs* the sources it
        // under-represents (ratio > 1), and costs them more than the
        // organics it over-represents.
        println!(
            "  mean degradation: over-represented organics {organics:.2}×, under-represented sources {others:.2}× ({})",
            if others > 1.0 && others > organics {
                "mismatch mechanism confirmed ✓"
            } else {
                "mismatch not visible at this scale ✗; needs under-represented > 1× and > organics"
            }
        );
    }

    println!("\nshape checks vs paper (Sec. IV-B):");
    let has_cliff_tb = grid
        .tb_points
        .iter()
        .any(|&tb| tb <= matgnn::data::BIASED_TB_THRESHOLD + 1e-9);
    for (paper_params, series) in grid.series_by_size() {
        let first = series.first().expect("points");
        let last = series.last().expect("points");
        println!(
            "  {:>7}: loss {:.4} @ {} → {:.4} @ {}  ({})",
            format_params(paper_params),
            first.1,
            format_tb(first.0),
            last.1,
            format_tb(last.0),
            if last.1 < first.1 {
                "more data helps"
            } else {
                "no improvement"
            }
        );
        if has_cliff_tb && series.len() >= 2 {
            // The biased 0.1TB point should sit above the next point by a
            // larger margin than subsequent consecutive drops.
            let drop01 = series[0].1 - series[1].1;
            let later_drops: Vec<f64> =
                series.windows(2).skip(1).map(|w| w[0].1 - w[1].1).collect();
            let max_later = later_drops
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            println!(
                "           0.1→{} drop {:.4} vs largest later drop {:.4} ({})",
                format_tb(series[1].0),
                drop01,
                max_later,
                if drop01 > max_later {
                    "cliff reproduced"
                } else {
                    "cliff NOT pronounced at this scale"
                }
            );
        }
    }
    true
}
