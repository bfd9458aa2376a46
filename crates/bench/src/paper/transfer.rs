//! Transfer learning (extension) — the foundation-model payoff the paper
//! inherits from HydraGNN-GFM (Sec. II-B): pretraining on the multi-source
//! aggregate vs training from scratch on a data-poor downstream task
//! (MPTrj-like bulk crystals).
//!
//! Run: `cargo run --release -p matgnn-bench -- transfer [--quick|--full]`

use matgnn::scaling::run_transfer;
use matgnn_bench::{csv_row, RunMode};

pub const TITLE: &str = "Transfer: foundation model vs from-scratch on a small target task";

pub fn run(mode: RunMode) -> bool {
    let cfg = mode.experiment_config();

    let results = run_transfer(&cfg);
    println!(
        "\n{:<14} {:>10} {:>18} {:>16}",
        "arm", "test loss", "energy MAE eV/at", "force MAE eV/Å"
    );
    csv_row(&["arm,test_loss,energy_mae,force_mae".to_string()]);
    for r in &results {
        println!(
            "{:<14} {:>10.4} {:>18.4} {:>16.4}",
            r.arm, r.test_loss, r.energy_mae, r.force_mae
        );
        csv_row(&[format!(
            "{},{:.6},{:.6},{:.6}",
            r.arm, r.test_loss, r.energy_mae, r.force_mae
        )]);
    }

    println!("\ninterpretation:");
    let zs = &results[0];
    let ft = &results[1];
    let sc = &results[2];
    println!(
        "  fine-tuned vs from-scratch: {:.4} vs {:.4} → {}",
        ft.test_loss,
        sc.test_loss,
        if ft.test_loss < sc.test_loss {
            "pretraining pays off on the data-poor task ✓ (the GFM premise)"
        } else {
            "no transfer benefit at this scale"
        }
    );
    println!(
        "  zero-shot vs fine-tuned: {:.4} vs {:.4} → {}",
        zs.test_loss,
        ft.test_loss,
        if ft.test_loss <= zs.test_loss {
            "target data still helps; the foundation is a starting point, not an oracle"
        } else {
            "fine-tuning regressed (unexpected)"
        }
    );
    true
}
