//! Transfer learning (extension) — the foundation-model value proposition
//! the paper inherits from HydraGNN-GFM (Sec. II-B): a model pretrained on
//! the multi-source aggregate should beat from-scratch training when a
//! downstream task has little data.
//!
//! Protocol: pretrain on the aggregate; pick one source (MPTrj-like bulk
//! crystals, the smallest slice of the aggregate) as the downstream task
//! with a deliberately small fine-tuning set; compare **zero-shot**,
//! **fine-tuned**, and **from-scratch** models on a held-out target test
//! set, all under the same training budget.

use matgnn_data::{Dataset, SourceKind};
use matgnn_model::{Egnn, EgnnConfig, GnnModel};
use matgnn_train::TrainConfig;

use super::sweep::{run, train_and_evaluate, Sweep};
use crate::ExperimentConfig;

/// One arm of the transfer comparison.
#[derive(Debug, Clone)]
pub struct TransferResult {
    /// Arm label: `zero-shot`, `fine-tuned`, or `from-scratch`.
    pub arm: String,
    /// Test loss on the held-out target set.
    pub test_loss: f64,
    /// Denormalized energy MAE (eV/atom).
    pub energy_mae: f64,
    /// Denormalized force MAE (eV/Å).
    pub force_mae: f64,
}

/// Runs the transfer experiment; returns the three arms in
/// `[zero-shot, fine-tuned, from-scratch]` order.
pub fn run_transfer(cfg: &ExperimentConfig) -> Vec<TransferResult> {
    let gen = cfg.generator();
    let sweep = Sweep::prepare(cfg);
    let normalizer = &sweep.normalizer;

    // Downstream task: fresh MPTrj-like data the pretraining never saw.
    let n_graphs = cfg.units.aggregate_graphs();
    let target_train_n = (n_graphs / 24).max(8); // deliberately small
    let target_test_n = (n_graphs / 8).max(24);
    let target_train =
        Dataset::from_samples(SourceKind::MpTrj.generate(target_train_n, cfg.seed ^ 0xF1DE, &gen));
    let target_test =
        Dataset::from_samples(SourceKind::MpTrj.generate(target_test_n, cfg.seed ^ 0x7E57, &gen));
    cfg.progress(&format!(
        "transfer: target task has {target_train_n} fine-tune graphs, {target_test_n} test graphs"
    ));

    let model_cfg =
        EgnnConfig::with_target_params(cfg.model_sizes[cfg.model_sizes.len() / 2], cfg.n_layers)
            .with_seed(cfg.seed);

    // Pretrain the foundational model on the aggregate; evaluated on the
    // target, it is the zero-shot arm.
    let foundation = Egnn::new(model_cfg);
    cfg.progress(&format!(
        "transfer: pretraining {} on the aggregate",
        foundation.describe()
    ));
    let tc_pre = cfg.train_config(sweep.train.len().div_ceil(cfg.batch_size));
    let (foundation, _, zero_shot) =
        train_and_evaluate(foundation, &sweep.train, &target_test, tc_pre, normalizer);

    // The fine-tuning budget is shared by both remaining arms: fine-tune
    // the foundation model at the standard fine-tune LR cut, or train from
    // scratch at full LR (it starts cold).
    let tc = cfg.train_config(target_train.len().div_ceil(cfg.batch_size));
    let tc_ft = TrainConfig {
        base_lr: cfg.base_lr * 0.3,
        ..tc
    };
    let scratch = Egnn::new(model_cfg.with_seed(cfg.seed ^ 0x5C4A));
    let arms = [
        ("fine-tuned", foundation, tc_ft),
        ("from-scratch", scratch, tc),
    ];
    cfg.progress("transfer: fine-tuning and training from scratch on the target source");
    let trained = run(&arms, |(_, model, tc)| {
        let (_, _, m) =
            train_and_evaluate(model.clone(), &target_train, &target_test, *tc, normalizer);
        m
    });

    let results: Vec<TransferResult> = std::iter::once(("zero-shot", zero_shot))
        .chain(arms.iter().map(|a| a.0).zip(trained))
        .map(|(arm, m)| TransferResult {
            arm: arm.to_string(),
            test_loss: m.loss,
            energy_mae: m.energy_mae,
            force_mae: m.force_mae,
        })
        .collect();
    for r in &results {
        cfg.progress(&format!(
            "transfer {}: loss {:.4}, energy MAE {:.4}, force MAE {:.4}",
            r.arm, r.test_loss, r.energy_mae, r.force_mae
        ));
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_arms_run_and_fine_tune_beats_zero_shot() {
        let cfg = ExperimentConfig {
            units: crate::UnitMap {
                graphs_per_tb: 80.0,
                ..Default::default()
            },
            epochs: 2,
            verbose: false,
            ..ExperimentConfig::quick()
        };
        let results = run_transfer(&cfg);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].arm, "zero-shot");
        assert!(results.iter().all(|r| r.test_loss.is_finite()));
        // Fine-tuning on target data must not be worse than zero-shot.
        assert!(
            results[1].test_loss <= results[0].test_loss * 1.05,
            "fine-tuning hurt: {} vs {}",
            results[1].test_loss,
            results[0].test_loss
        );
    }
}
