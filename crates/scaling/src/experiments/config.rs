//! Shared configuration for all scaling experiments.

use matgnn_data::GeneratorConfig;
use matgnn_train::{LossConfig, LrSchedule, TrainConfig};

use crate::UnitMap;

/// Configuration shared by the figure runners.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Unit mapping (graphs per TB, parameter axis calibration).
    pub units: UnitMap,
    /// Training epochs per grid point (the paper trains 10; `quick` uses
    /// fewer).
    pub epochs: usize,
    /// Graphs per mini-batch.
    pub batch_size: usize,
    /// Base learning rate (warmup + cosine is applied on top).
    pub base_lr: f32,
    /// Master seed for data generation, splits, init, and shuffling.
    pub seed: u64,
    /// Held-out test fraction of the aggregate.
    pub test_fraction: f64,
    /// Actual model sizes swept (mapped to the paper's 0.1 M – 2 B axis).
    pub model_sizes: Vec<usize>,
    /// Paper-TB points swept (the paper uses 0.1 – 1.2).
    pub tb_points: Vec<f64>,
    /// EGNN depth for the size sweeps (the paper's width-scaling uses a
    /// fixed shallow depth; see Fig. 5 for why 3).
    pub n_layers: usize,
    /// Print a progress line per grid point to stderr.
    pub verbose: bool,
}

impl ExperimentConfig {
    /// The full-scale configuration (several minutes of CPU).
    pub fn full() -> Self {
        ExperimentConfig {
            units: UnitMap::default(),
            epochs: 4,
            batch_size: 8,
            base_lr: 3e-3,
            seed: 2025,
            test_fraction: 0.15,
            model_sizes: vec![200, 1_000, 5_000, 25_000, 100_000],
            tb_points: vec![0.1, 0.2, 0.4, 0.8, 1.2],
            n_layers: 3,
            verbose: true,
        }
    }

    /// A CI-sized configuration (tens of seconds).
    pub fn quick() -> Self {
        ExperimentConfig {
            units: UnitMap {
                graphs_per_tb: 250.0,
                ..UnitMap::default()
            },
            epochs: 2,
            model_sizes: vec![200, 2_000, 20_000],
            tb_points: vec![0.1, 0.4, 1.2],
            ..ExperimentConfig::full()
        }
    }

    /// The generator configuration used for the synthetic aggregate.
    pub fn generator(&self) -> GeneratorConfig {
        GeneratorConfig::default()
    }

    /// The per-run training configuration for `steps_per_epoch` batches.
    pub fn train_config(&self, steps_per_epoch: usize) -> TrainConfig {
        let total_steps = (self.epochs * steps_per_epoch).max(1);
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            base_lr: self.base_lr,
            schedule: LrSchedule::WarmupCosine {
                warmup_steps: (total_steps / 20).max(1),
                total_steps,
                min_factor: 0.05,
            },
            grad_clip: Some(5.0),
            loss: LossConfig::default(),
            adam: Default::default(),
            seed: self.seed,
            checkpointing: false,
            grad_accum_steps: 1,
            early_stop_patience: None,
            prefetch_depth: 0,
        }
    }

    /// Emits a progress line: always recorded as a structured telemetry
    /// event (a no-op until telemetry is initialised); mirrored to stderr
    /// only when verbose and no telemetry sink is active, so experiment
    /// runs with `--telemetry` keep a clean terminal.
    pub fn progress(&self, msg: &str) {
        matgnn_telemetry::log_event("experiment.progress", msg);
        if self.verbose && !matgnn_telemetry::enabled() {
            eprintln!("[matgnn] {msg}");
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_full() {
        let q = ExperimentConfig::quick();
        let f = ExperimentConfig::full();
        assert!(q.model_sizes.len() < f.model_sizes.len());
        assert!(q.units.graphs_per_tb < f.units.graphs_per_tb);
        assert!(q.epochs <= f.epochs);
    }

    #[test]
    fn train_config_schedule_spans_run() {
        let cfg = ExperimentConfig::quick();
        let tc = cfg.train_config(10);
        match tc.schedule {
            matgnn_train::LrSchedule::WarmupCosine {
                total_steps,
                warmup_steps,
                ..
            } => {
                assert_eq!(total_steps, cfg.epochs * 10);
                assert!(warmup_steps >= 1);
            }
            _ => panic!("expected warmup-cosine"),
        }
    }
}
