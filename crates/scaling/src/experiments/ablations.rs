//! Ablations of the design choices DESIGN.md calls out: residual feature
//! updates (the standard over-smoothing mitigation the paper's Fig. 5
//! discussion implies), the optional edge gate, RBF distance features,
//! LayerNorm, the LLM-style LR schedule, per-source normalization and the
//! force-prediction mode.

use matgnn_data::{Dataset, Normalizer};
use matgnn_graph::GraphBatch;
use matgnn_model::{Egnn, EgnnConfig, GnnModel};
use matgnn_train::{LrSchedule, TrainConfig};

use super::sweep::{run, train_and_evaluate, Sweep};
use crate::ExperimentConfig;

/// One ablation outcome.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// Ablation group, e.g. `residual@depth6`.
    pub group: String,
    /// Variant label, e.g. `on` / `off`.
    pub variant: String,
    /// Held-out test loss.
    pub test_loss: f64,
    /// Denormalized force MAE (eV/Å) — the metric where equivariance
    /// matters most.
    pub force_mae: f64,
    /// Actual parameter count of the trained model.
    pub actual_params: usize,
}

/// Runs the ablation suite; results are grouped by `group`.
pub fn run_ablations(cfg: &ExperimentConfig) -> Vec<AblationResult> {
    let sweep = Sweep::prepare(cfg);
    let (train, test, shared) = (&sweep.train, &sweep.test, &sweep.normalizer);
    let per_source = Normalizer::fit_per_source(train);
    let tc = cfg.train_config(train.len().div_ceil(cfg.batch_size));
    let constant = TrainConfig {
        schedule: LrSchedule::Constant,
        ..tc
    };

    // Residual feature updates and LayerNorm at depth 6 (over-smoothing
    // mitigation; LayerNorm is the LLM-lineage stabilizer for deep GNNs).
    let base6 =
        EgnnConfig::new(EgnnConfig::with_target_params(2_000, 3).hidden_dim, 6).with_seed(cfg.seed);
    let res6 = base6.with_residual(true);
    let norm6 = res6.with_layer_norm(true);
    // Edge gating, RBF distance featurization vs raw ‖r‖², the LLM-style
    // schedule vs constant LR, and shared vs per-source normalization of
    // multi-fidelity labels, all at the medium width.
    let med = EgnnConfig::with_target_params(5_000, 3).with_seed(cfg.seed);
    let variants: [(&str, &str, EgnnConfig, TrainConfig, &Normalizer); 12] = [
        ("residual@depth6", "off", base6, tc, shared),
        ("residual@depth6", "on", res6, tc, shared),
        ("layernorm@depth6", "off", res6, tc, shared),
        ("layernorm@depth6", "on", norm6, tc, shared),
        ("edge-gate", "off", med, tc, shared),
        ("edge-gate", "on", med.with_edge_gate(true), tc, shared),
        ("rbf", "raw-dist2", med, tc, shared),
        ("rbf", "gaussian-16", med.with_rbf(16), tc, shared),
        ("lr-schedule", "warmup-cosine", med, tc, shared),
        ("lr-schedule", "constant", med, constant, shared),
        ("normalization", "shared", med, tc, shared),
        ("normalization", "per-source", med, tc, &per_source),
    ];
    let trained = run(&variants, |&(group, variant, config, tc, norm)| {
        let (model, _, m) = train_and_evaluate(Egnn::new(config), train, test, tc, norm);
        cfg.progress(&format!(
            "ablation {group}/{variant}: test loss {:.4}, force MAE {:.4}",
            m.loss, m.force_mae
        ));
        (model, m)
    });
    let mut results: Vec<AblationResult> = variants
        .iter()
        .zip(&trained)
        .map(|(&(group, variant, ..), (model, m))| AblationResult {
            group: group.to_string(),
            variant: variant.to_string(),
            test_loss: m.loss,
            force_mae: m.force_mae,
            actual_params: model.params().n_scalars(),
        })
        .collect();

    // Force-prediction mode: the shared model's trained direct head vs
    // zero-extra-cost energy-conserving forces (−∂E/∂x) from the same
    // weights.
    let shared_at = variants.iter().position(|v| v.1 == "shared");
    let (model, direct) = &trained[shared_at.expect("a shared-normalization variant")];
    let conservative_mae = conservative_force_mae(model, test, shared);
    cfg.progress(&format!(
        "ablation force-mode: direct {:.4} vs conservative {:.4} eV/Å",
        direct.force_mae, conservative_mae
    ));
    for (variant, force_mae) in [
        ("direct-head", direct.force_mae),
        ("conservative", conservative_mae),
    ] {
        results.push(AblationResult {
            group: "force-mode".to_string(),
            variant: variant.to_string(),
            test_loss: direct.loss,
            force_mae,
            actual_params: model.params().n_scalars(),
        });
    }

    results
}

/// Mean |ΔF| of energy-conserving forces (−∂E/∂x, denormalized) against
/// the true force labels.
fn conservative_force_mae(model: &Egnn, test: &Dataset, norm: &Normalizer) -> f64 {
    let mut abs = 0.0f64;
    let mut n = 0usize;
    for s in test.samples() {
        let batch = GraphBatch::from_graphs(&[&s.graph]);
        let (_, f) = model.conservative_forces(&batch);
        for (a, truth) in s.forces.iter().enumerate() {
            for (k, &t) in truth.iter().enumerate() {
                let pred = f.get(a, k) as f64 * norm.energy_std;
                abs += (pred - t).abs();
                n += 1;
            }
        }
    }
    abs / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_suite_runs_and_groups() {
        let cfg = ExperimentConfig {
            units: crate::UnitMap {
                graphs_per_tb: 40.0,
                ..Default::default()
            },
            epochs: 1,
            verbose: false,
            ..ExperimentConfig::quick()
        };
        let results = run_ablations(&cfg);
        assert_eq!(results.len(), 14);
        for (group, n) in [
            ("residual@depth6", 2),
            ("layernorm@depth6", 2),
            ("edge-gate", 2),
            ("normalization", 2),
            ("force-mode", 2),
            ("rbf", 2),
            ("lr-schedule", 2),
        ] {
            assert_eq!(
                results.iter().filter(|r| r.group == group).count(),
                n,
                "missing variants for {group}"
            );
        }
        assert!(results.iter().all(|r| r.test_loss.is_finite()));
    }
}
