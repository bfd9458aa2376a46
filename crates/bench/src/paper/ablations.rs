//! Ablations (extension) — the design choices DESIGN.md calls out:
//! residual feature updates at depth (the over-smoothing mitigation the
//! paper's Fig. 5 discussion motivates), the optional edge gate, RBF
//! distance featurization, per-source (multi-fidelity) normalization, the
//! LLM-style LR schedule, LayerNorm and the force-prediction mode.
//!
//! Run: `cargo run --release -p matgnn-bench -- ablations [--quick|--full]`

use matgnn::scaling::run_ablations;
use matgnn_bench::{csv_row, RunMode};

pub const TITLE: &str = "Ablations: residual updates, edge gate, LR schedule, normalization";

pub fn run(mode: RunMode) -> bool {
    let cfg = mode.experiment_config();

    let results = run_ablations(&cfg);
    println!(
        "\n{:<20} {:<16} {:>10} {:>12} {:>10}",
        "group", "variant", "test loss", "force MAE", "params"
    );
    csv_row(&["group,variant,test_loss,force_mae,params".to_string()]);
    for r in &results {
        println!(
            "{:<20} {:<16} {:>10.4} {:>12.4} {:>10}",
            r.group, r.variant, r.test_loss, r.force_mae, r.actual_params
        );
        csv_row(&[format!(
            "{},{},{:.6},{:.6},{}",
            r.group, r.variant, r.test_loss, r.force_mae, r.actual_params
        )]);
    }

    println!("\ninterpretation:");
    let pick = |group: &str, variant: &str| {
        results
            .iter()
            .find(|r| r.group == group && r.variant == variant)
            .expect("ablation present")
    };
    let res_off = pick("residual@depth6", "off");
    let res_on = pick("residual@depth6", "on");
    println!(
        "  residual @ depth 6: {} (off {:.4} vs on {:.4}) — residuals are the standard over-smoothing fix",
        if res_on.test_loss < res_off.test_loss { "residuals help deep models ✓" } else { "no benefit at this scale" },
        res_off.test_loss,
        res_on.test_loss
    );
    let rbf_off = pick("rbf", "raw-dist2");
    let rbf_on = pick("rbf", "gaussian-16");
    println!(
        "  RBF distance features: {:.4} vs raw ‖r‖² {:.4} ({})",
        rbf_on.test_loss,
        rbf_off.test_loss,
        if rbf_on.test_loss < rbf_off.test_loss {
            "the SchNet-lineage encoding pays ✓"
        } else {
            "raw distances suffice here"
        }
    );
    let ln_off = pick("layernorm@depth6", "off");
    let ln_on = pick("layernorm@depth6", "on");
    println!(
        "  LayerNorm @ depth 6 (residual): {:.4} vs {:.4} without ({})",
        ln_on.test_loss,
        ln_off.test_loss,
        if ln_on.test_loss < ln_off.test_loss {
            "the LLM-lineage stabilizer helps deep GNNs ✓"
        } else {
            "no benefit at this depth/scale"
        }
    );
    let fm_direct = pick("force-mode", "direct-head");
    let fm_cons = pick("force-mode", "conservative");
    println!(
        "  force modes (same model): direct head {:.4} vs conservative −∂E/∂x {:.4} eV/Å ({})",
        fm_direct.force_mae,
        fm_cons.force_mae,
        if fm_cons.force_mae < fm_direct.force_mae * 1.1 {
            "energy-derived forces competitive, and conservative by construction"
        } else {
            "direct head leads when trained on forces"
        }
    );
    let norm_shared = pick("normalization", "shared");
    let norm_ps = pick("normalization", "per-source");
    println!(
        "  per-source normalization: {:.4} vs shared {:.4} ({})",
        norm_ps.test_loss,
        norm_shared.test_loss,
        if norm_ps.test_loss < norm_shared.test_loss {
            "absorbing cross-source shifts helps ✓ (the multi-fidelity premise)"
        } else {
            "no benefit at this scale"
        }
    );
    let sched = pick("lr-schedule", "warmup-cosine");
    let konst = pick("lr-schedule", "constant");
    println!(
        "  warmup-cosine vs constant LR: {:.4} vs {:.4} ({})",
        sched.test_loss,
        konst.test_loss,
        if sched.test_loss <= konst.test_loss * 1.02 {
            "LLM schedule competitive ✓"
        } else {
            "constant wins here"
        }
    );
    true
}
