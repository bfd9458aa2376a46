//! The depth-vs-width experiment behind the paper's Fig. 5.
//!
//! At a fixed 0.4 TB training subset, two sweeps cover the same parameter
//! range: a **width** sweep at 3 layers and a **depth** sweep at fixed
//! width. The paper finds width consistently helps while depth beyond 3
//! layers hurts (over-smoothing); the default EGNN here has no residual
//! feature update, matching that regime.

use matgnn_data::{Dataset, Normalizer};
use matgnn_model::{Egnn, EgnnConfig};
use matgnn_train::{evaluate, Trainer};

use crate::{format_params, ExperimentConfig};

/// Which axis a point belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKind {
    /// Fixed depth (3 layers), varying hidden width.
    Width,
    /// Fixed width, varying layer count.
    Depth,
}

/// One trained depth/width point.
#[derive(Debug, Clone, Copy)]
pub struct DepthWidthPoint {
    /// Sweep this point belongs to.
    pub kind: SweepKind,
    /// Number of EGNN layers.
    pub depth: usize,
    /// Hidden width.
    pub width: usize,
    /// Actual parameter count.
    pub actual_params: usize,
    /// Paper-equivalent parameter count.
    pub paper_params: f64,
    /// Held-out test loss.
    pub test_loss: f64,
}

/// TB subset used by the depth/width experiment (matches the paper).
pub const DEPTH_WIDTH_TB: f64 = 0.4;

/// Runs the Fig. 5 experiment. Returns width-sweep points followed by
/// depth-sweep points.
pub fn run_depth_width(cfg: &ExperimentConfig) -> Vec<DepthWidthPoint> {
    let gen = cfg.generator();
    let n_graphs = cfg.units.aggregate_graphs();
    cfg.progress(&format!(
        "depth/width: generating aggregate of {n_graphs} graphs"
    ));
    let aggregate = Dataset::generate_aggregate(n_graphs, cfg.seed, &gen);
    let (train_full, test) = aggregate.split_test(cfg.test_fraction, cfg.seed ^ 0xBEEF);
    let normalizer = Normalizer::fit(&train_full);
    let subset = train_full.subsample_tb(DEPTH_WIDTH_TB, cfg.seed ^ 0xDA7A);
    let steps_per_epoch = subset.len().div_ceil(cfg.batch_size);

    // Width sweep: 3 layers, param targets spanning the paper's
    // 10 M – 100 M window (one decade).
    let width_targets: Vec<usize> = vec![2_000, 5_000, 12_000, 30_000];
    // Depth sweep: the width whose 3-layer model sits near the bottom of
    // that window, grown deeper (params rise with depth as in the paper).
    let depth_values: Vec<usize> = vec![1, 2, 3, 4, 6, 8];
    let fixed_width = EgnnConfig::with_target_params(2_000, 3).hidden_dim;

    let train_one = |model_cfg: EgnnConfig, kind: SweepKind| -> DepthWidthPoint {
        let mut model = Egnn::new(model_cfg.with_seed(cfg.seed));
        let trainer = Trainer::new(cfg.train_config(steps_per_epoch));
        let _ = trainer.fit(&mut model, &subset, None, &normalizer);
        let metrics = evaluate(
            &model,
            &test,
            &normalizer,
            &trainer.config().loss,
            cfg.batch_size,
        );
        let point = DepthWidthPoint {
            kind,
            depth: model_cfg.n_layers,
            width: model_cfg.hidden_dim,
            actual_params: model.n_params(),
            paper_params: cfg.units.paper_params(model.n_params() as f64),
            test_loss: metrics.loss,
        };
        cfg.progress(&format!(
            "depth/width {kind:?}: L={} h={} ({}) → test loss {:.4}",
            point.depth,
            point.width,
            format_params(point.paper_params),
            point.test_loss
        ));
        point
    };

    let mut points = Vec::new();
    for &target in &width_targets {
        points.push(train_one(
            EgnnConfig::with_target_params(target, 3),
            SweepKind::Width,
        ));
    }
    for &depth in &depth_values {
        points.push(train_one(
            EgnnConfig::new(fixed_width, depth),
            SweepKind::Depth,
        ));
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // The deep-narrow end of the depth sweep diverges on the tiny smoke
    // dataset; it needs a training-stability fix (ROADMAP item 7: init and
    // LR that transfer across shape), not a tolerance tweak.
    #[ignore = "ROADMAP item 7: the deepest depth-sweep point (4 426 params) trains to a NaN test loss, the next (3 416) to 1 510"]
    fn sweep_points_cover_both_kinds() {
        let cfg = ExperimentConfig {
            units: crate::UnitMap {
                graphs_per_tb: 50.0,
                ..Default::default()
            },
            epochs: 1,
            verbose: false,
            ..ExperimentConfig::quick()
        };
        // Shrink the built-in sweeps indirectly by running as-is on the
        // tiny dataset — this is a smoke test of plumbing, not of the
        // scientific claim (the bench binary runs the full version).
        let points = run_depth_width(&cfg);
        assert!(points.iter().any(|p| p.kind == SweepKind::Width));
        assert!(points.iter().any(|p| p.kind == SweepKind::Depth));
        assert!(points.iter().all(|p| p.test_loss.is_finite()));
        // Depth sweep grows parameters with depth.
        let depth_points: Vec<&DepthWidthPoint> = points
            .iter()
            .filter(|p| p.kind == SweepKind::Depth)
            .collect();
        for w in depth_points.windows(2) {
            assert!(w[1].actual_params > w[0].actual_params);
        }
    }
}
