//! Gradient noise scale (extension) — the critical-batch-size analysis
//! (McCandlish et al.) applied to the paper's training setup: how much
//! data parallelism can these GNN runs absorb before large-batch returns
//! diminish? This quantifies the headroom behind the paper's Sec. V
//! scalability stack (DDP across 32×4 GPUs).
//!
//! Run: `cargo run --release -p matgnn-bench -- noise_scale [--quick|--full]`

use matgnn::prelude::*;
use matgnn::train::estimate_noise_scale;
use matgnn_bench::{csv_row, RunMode};

pub const TITLE: &str = "Gradient noise scale: critical batch size for GNN training";

pub fn run(mode: RunMode) -> bool {
    let cfg = mode.experiment_config();

    let gen = cfg.generator();
    let n_graphs = cfg.units.aggregate_graphs();
    println!("\npreparing {n_graphs} graphs…");
    let aggregate = Dataset::generate_aggregate(n_graphs, cfg.seed, &gen);
    let (train, _) = aggregate.split_test(cfg.test_fraction, cfg.seed ^ 0xBEEF);
    let norm = Normalizer::fit(&train);
    let size = cfg.model_sizes[cfg.model_sizes.len() / 2];
    let mut model =
        Egnn::new(EgnnConfig::with_target_params(size, cfg.n_layers).with_seed(cfg.seed));
    println!("model: {}\n", model.describe());

    let loss_cfg = LossConfig::default();
    let (b_small, b_big, n_est) = match mode {
        RunMode::Quick => (2usize, 16usize, 6usize),
        RunMode::Full => (2, 32, 12),
    };

    // Measure at a few points along training (the noise scale typically
    // grows as the loss landscape flattens).
    let stages = [0usize, 1, 3];
    let mut trained = 0usize;
    println!(
        "{:>14} {:>12} {:>12} {:>10} {:>14} {:>16}",
        "after epochs", "‖G‖²", "tr(Σ)", "B_crit", "step eff @B=8", "sample eff @B=8"
    );
    csv_row(&["epochs,g2,trace_sigma,b_simple,step_eff_8,sample_eff_8,reliable".to_string()]);
    for &stage in &stages {
        while trained < stage {
            let tc = TrainConfig {
                epochs: 1,
                batch_size: cfg.batch_size,
                seed: cfg.seed ^ trained as u64,
                ..Default::default()
            };
            let _ = Trainer::new(tc).fit(&mut model, &train, None, &norm);
            trained += 1;
        }
        let est = estimate_noise_scale(
            &model,
            &train,
            &norm,
            &loss_cfg,
            b_small,
            b_big,
            n_est,
            cfg.seed ^ 0x401,
        );
        println!(
            "{:>14} {:>12.4e} {:>12.4e} {:>10.1} {:>13.0}% {:>15.0}%{}",
            trained,
            est.g2,
            est.trace_sigma,
            est.b_simple,
            100.0 * est.efficiency_at(8),
            100.0 * est.sample_efficiency_at(8),
            if est.is_reliable() {
                ""
            } else {
                "   (unreliable: sampling error > batch effect)"
            }
        );
        csv_row(&[format!(
            "{},{:.6e},{:.6e},{:.3},{:.4},{:.4},{}",
            trained,
            est.g2,
            est.trace_sigma,
            est.b_simple,
            est.efficiency_at(8),
            est.sample_efficiency_at(8),
            est.is_reliable()
        )]);
        if stage == *stages.last().expect("stages") {
            println!("\ninterpretation (final checkpoint):");
            println!(
                "  critical batch size B_crit ≈ {:.1} graphs. Per-sample efficiency:",
                est.b_simple
            );
            println!(
                "  B=8 (our runs): {:.0}% | global B=32 (one 4-GPU node): {:.0}% | global B=1024\n  (a 128-GPU job): {:.0}% — {}",
                100.0 * est.sample_efficiency_at(8),
                100.0 * est.sample_efficiency_at(32),
                100.0 * est.sample_efficiency_at(1024),
                if est.b_simple > 64.0 {
                    "large data-parallel jobs stay sample-efficient,\n  matching the near-linear scaling claims"
                } else {
                    "at this (smooth, synthetic-label) noise scale,\n  very large global batches mostly buy wall-clock, not sample efficiency —\n  noisy DFT labels at the paper's scale would raise B_crit substantially"
                }
            );
        }
    }
    true
}
