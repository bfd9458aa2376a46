//! Seed-variance study (extension): how much of the scaling curves'
//! wiggle is run-to-run noise?
//!
//! The paper reports single runs per grid point (standard for
//! billion-parameter budgets); at this reproduction's scale, re-running a
//! point under different initialization/shuffle seeds quantifies the
//! error bars behind EXPERIMENTS.md's "noise" caveats.

use matgnn_model::{Egnn, EgnnConfig};
use matgnn_train::TrainConfig;

use super::sweep::{run, train_and_evaluate, Sweep};
use crate::ExperimentConfig;

/// Variance statistics for one model size.
#[derive(Debug, Clone)]
pub struct VariancePoint {
    /// Actual parameter count.
    pub actual_params: usize,
    /// Paper-equivalent parameter count.
    pub paper_params: f64,
    /// Test losses, one per seed.
    pub losses: Vec<f64>,
    /// Mean test loss.
    pub mean: f64,
    /// Sample standard deviation.
    pub std: f64,
}

/// TB subset used by the variance study.
pub const VARIANCE_TB: f64 = 0.4;

/// Re-trains each configured model size under `n_seeds` different seeds
/// on the same 0.4 TB subset and fixed test set.
pub fn run_seed_variance(cfg: &ExperimentConfig, n_seeds: usize) -> Vec<VariancePoint> {
    assert!(
        n_seeds >= 2,
        "need at least two seeds for a variance estimate"
    );
    let sweep = Sweep::prepare(cfg);
    let subset = sweep.subset(VARIANCE_TB);
    let tc = cfg.train_config(subset.len().div_ceil(cfg.batch_size));

    let configs: Vec<(usize, usize)> = cfg
        .model_sizes
        .iter()
        .flat_map(|&size| (0..n_seeds).map(move |s| (size, s)))
        .collect();
    let runs = run(&configs, |&(size, s)| {
        let seed = cfg.seed ^ (s as u64 + 1).wrapping_mul(0x517C_C1B7);
        let model = Egnn::new(EgnnConfig::with_target_params(size, cfg.n_layers).with_seed(seed));
        let tc = TrainConfig { seed, ..tc };
        let (model, _, m) = train_and_evaluate(model, &subset, &sweep.test, tc, &sweep.normalizer);
        cfg.progress(&format!(
            "variance: {size} params, seed {s}: test loss {:.4}",
            m.loss
        ));
        (model.n_params(), m.loss)
    });

    cfg.model_sizes
        .iter()
        .zip(runs.chunks(n_seeds))
        .map(|(&size, runs)| {
            let losses: Vec<f64> = runs.iter().map(|&(_, loss)| loss).collect();
            let mean = losses.iter().sum::<f64>() / losses.len() as f64;
            let var = losses.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>()
                / (losses.len() - 1) as f64;
            VariancePoint {
                actual_params: size,
                paper_params: cfg.units.paper_params(runs[0].0 as f64),
                losses,
                mean,
                std: var.sqrt(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variance_points_well_formed() {
        let cfg = ExperimentConfig {
            units: crate::UnitMap {
                graphs_per_tb: 60.0,
                ..Default::default()
            },
            epochs: 1,
            model_sizes: vec![300, 2_000],
            verbose: false,
            ..ExperimentConfig::quick()
        };
        let points = run_seed_variance(&cfg, 2);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.losses.len(), 2);
            assert!(p.mean.is_finite() && p.mean > 0.0);
            assert!(p.std.is_finite() && p.std >= 0.0);
            // Different seeds should not produce bit-identical losses.
            assert_ne!(p.losses[0], p.losses[1]);
        }
    }

    #[test]
    #[should_panic(expected = "at least two seeds")]
    fn one_seed_rejected() {
        let cfg = ExperimentConfig {
            verbose: false,
            ..ExperimentConfig::quick()
        };
        let _ = run_seed_variance(&cfg, 1);
    }
}
