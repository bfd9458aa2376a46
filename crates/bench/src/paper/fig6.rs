//! Figure 6 — peak-memory breakdown when training GNNs: (a) vanilla
//! data-parallel training, (b) with activation checkpointing and the ZeRO
//! optimizer.
//!
//! Byte-accurate per-category tracking on rank 0 of the simulated 4-rank
//! node; the breakdown is captured at the instant of the global peak, as
//! the paper measures.
//!
//! Run: `cargo run --release -p matgnn-bench -- fig6 [--quick|--full]`

use matgnn::dist::MemorySetting;
use matgnn::tensor::{format_bytes, MemoryCategory};
use matgnn_bench::{csv_row, RunMode};

pub const TITLE: &str = "Fig. 6: peak memory breakdown (vanilla vs +AC +ZeRO)";

pub fn run(mode: RunMode) -> bool {
    let profiles = super::table2::profiles(mode);
    csv_row(&["setting,category,bytes,fraction".to_string()]);

    for p in &profiles {
        let label = match p.setting {
            MemorySetting::Vanilla => "(a) vanilla PyTorch-style DDP",
            MemorySetting::ActivationCheckpointing => "(+) activation checkpointing",
            MemorySetting::ZeroOptimizer => "(b) + activation ckpt + ZeRO",
        };
        println!("{label}: peak {} on rank 0", format_bytes(p.peak_total));
        for (cat, bytes) in p.peak.entries() {
            let frac = p.peak.fraction(cat);
            let bar = "#".repeat((frac * 40.0).round() as usize);
            println!(
                "    {:<18} {:>12}  {:>5.1}% {}",
                cat.label(),
                format_bytes(bytes),
                100.0 * frac,
                bar
            );
            csv_row(&[format!(
                "{:?},{},{},{:.4}",
                p.setting,
                cat.label(),
                bytes,
                frac
            )]);
        }
        println!();
    }

    println!("shape checks vs paper (Sec. V-A/B/C):");
    let vanilla = &profiles[0];
    let act_frac = vanilla.peak.fraction(MemoryCategory::Activations);
    println!(
        "  vanilla: activations dominate the peak at {:.1}% (paper: 76.9%) {}",
        100.0 * act_frac,
        if act_frac > 0.5 { "✓" } else { "✗" }
    );
    let after_ac = &profiles[1];
    let ac_reduction = 1.0 - after_ac.peak_total as f64 / vanilla.peak_total as f64;
    println!(
        "  +AC: peak reduced by {:.0}% (paper: 58%) — activations no longer dominant: {}",
        100.0 * ac_reduction,
        after_ac.peak.fraction(MemoryCategory::Activations) < act_frac
    );
    let after_zero = &profiles[2];
    let zero_reduction = 1.0 - after_zero.peak_total as f64 / after_ac.peak_total as f64;
    println!(
        "  +ZeRO: further peak reduction {:.0}% (paper: 36%); optimizer state {} → {}",
        100.0 * zero_reduction,
        format_bytes(after_ac.peak.get(MemoryCategory::OptimizerState)),
        format_bytes(after_zero.peak.get(MemoryCategory::OptimizerState)),
    );
    true
}
