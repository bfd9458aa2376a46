//! The model-size × data-size grid behind the paper's Figs. 3 and 4.
//!
//! A single grid run trains every (model size, TB fraction) combination on
//! subsets of one aggregate and evaluates every model on the same held-out
//! test set — exactly the paper's protocol (Sec. IV). Fig. 3 reads the
//! grid along the model axis, Fig. 4 along the data axis.

use std::time::Instant;

use matgnn_model::{Egnn, EgnnConfig};

use super::sweep::{run, train_and_evaluate, Sweep};
use crate::{fit_power_law, format_params, format_tb, ExperimentConfig, PowerLawFit};

/// One trained grid point.
#[derive(Debug, Clone, Copy)]
pub struct GridPoint {
    /// Actual trained parameter count.
    pub actual_params: usize,
    /// Paper-equivalent parameter count (see `UnitMap`).
    pub paper_params: f64,
    /// Training subset size in paper TB.
    pub tb: f64,
    /// Final training loss.
    pub train_loss: f64,
    /// Held-out test loss (the paper's y-axis).
    pub test_loss: f64,
    /// Denormalized energy MAE (eV/atom).
    pub energy_mae: f64,
    /// Denormalized force MAE (eV/Å).
    pub force_mae: f64,
}

/// The full grid of results.
#[derive(Debug, Clone)]
pub struct ScalingGrid {
    /// All trained points.
    pub points: Vec<GridPoint>,
    /// Model sizes swept (actual parameters).
    pub model_sizes: Vec<usize>,
    /// TB fractions swept.
    pub tb_points: Vec<f64>,
}

impl ScalingGrid {
    /// The point for an exact (size, tb) pair.
    pub fn point(&self, actual_params: usize, tb: f64) -> Option<&GridPoint> {
        self.points
            .iter()
            .find(|p| p.actual_params == actual_params && (p.tb - tb).abs() < 1e-9)
    }

    /// Fig. 3 view: one `(tb, [(paper_params, test_loss)])` series per
    /// dataset size, sorted by model size.
    pub fn series_by_tb(&self) -> Vec<(f64, Vec<(f64, f64)>)> {
        self.tb_points
            .iter()
            .map(|&tb| {
                (
                    tb,
                    self.series(|p| (p.tb - tb).abs() < 1e-9, |p| p.paper_params),
                )
            })
            .collect()
    }

    /// Fig. 4 view: one `(paper_params, [(tb, test_loss)])` series per
    /// model size, sorted by dataset size.
    pub fn series_by_size(&self) -> Vec<(f64, Vec<(f64, f64)>)> {
        self.model_sizes
            .iter()
            .map(|&size| {
                let paper = self.points.iter().find(|p| p.actual_params == size);
                let series = self.series(|p| p.actual_params == size, |p| p.tb);
                (paper.map_or(size as f64, |p| p.paper_params), series)
            })
            .collect()
    }

    /// Power-law fit of test loss vs **actual** parameter count at a fixed
    /// dataset size.
    pub fn fit_model_scaling(&self, tb: f64) -> Option<PowerLawFit> {
        fit(&self.series(|p| (p.tb - tb).abs() < 1e-9, |p| p.actual_params as f64))
    }

    /// Power-law fit of test loss vs dataset size (in graphs) at a fixed
    /// model size. Only stratified subsets (tb > the biased threshold)
    /// enter the fit, since the paper's own Fig. 4 discussion excludes the
    /// mismatched 0.1 TB point from the smooth trend.
    pub fn fit_data_scaling(&self, actual_params: usize) -> Option<PowerLawFit> {
        let stratified = matgnn_data::BIASED_TB_THRESHOLD + 1e-9;
        fit(&self.series(
            |p| p.actual_params == actual_params && p.tb > stratified,
            |p| p.tb,
        ))
    }

    /// `(x(p), test_loss)` for every point `keep` selects, sorted by `x`.
    fn series(
        &self,
        keep: impl Fn(&GridPoint) -> bool,
        x: impl Fn(&GridPoint) -> f64,
    ) -> Vec<(f64, f64)> {
        let mut series: Vec<(f64, f64)> = self
            .points
            .iter()
            .filter(|p| keep(p))
            .map(|p| (x(p), p.test_loss))
            .collect();
        series.sort_by(|a, b| a.0.total_cmp(&b.0));
        series
    }
}

fn fit(series: &[(f64, f64)]) -> Option<PowerLawFit> {
    let (xs, ys): (Vec<f64>, Vec<f64>) = series.iter().copied().unzip();
    fit_power_law(&xs, &ys)
}

/// Trains the full (model size × TB) grid.
///
/// All subsets come from one aggregate; the test set and the label
/// normalizer are fixed across the grid so losses are comparable — the
/// paper's protocol.
pub fn run_scaling_grid(cfg: &ExperimentConfig) -> ScalingGrid {
    let sweep = Sweep::prepare(cfg);
    let configs: Vec<(f64, usize)> = cfg
        .tb_points
        .iter()
        .flat_map(|&tb| cfg.model_sizes.iter().map(move |&size| (tb, size)))
        .collect();
    let points = run(&configs, |&(tb, size)| {
        let t0 = Instant::now();
        let subset = sweep.subset(tb);
        let model =
            Egnn::new(EgnnConfig::with_target_params(size, cfg.n_layers).with_seed(cfg.seed));
        let tc = cfg.train_config(subset.len().div_ceil(cfg.batch_size));
        let (model, report, m) =
            train_and_evaluate(model, &subset, &sweep.test, tc, &sweep.normalizer);
        let actual = model.n_params();
        let point = GridPoint {
            actual_params: size,
            paper_params: cfg.units.paper_params(actual as f64),
            tb,
            train_loss: report.epochs.last().map_or(f64::NAN, |e| e.train_loss),
            test_loss: m.loss,
            energy_mae: m.energy_mae,
            force_mae: m.force_mae,
        };
        cfg.progress(&format!(
            "grid point: {} ({} actual) @ {} → test loss {:.4}  [{:.1}s]",
            format_params(point.paper_params),
            actual,
            format_tb(tb),
            point.test_loss,
            t0.elapsed().as_secs_f64(),
        ));
        point
    });

    ScalingGrid {
        points,
        model_sizes: cfg.model_sizes.clone(),
        tb_points: cfg.tb_points.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            units: crate::UnitMap {
                graphs_per_tb: 60.0,
                ..Default::default()
            },
            epochs: 2,
            model_sizes: vec![300, 3_000],
            tb_points: vec![0.4, 1.2],
            verbose: false,
            ..ExperimentConfig::quick()
        }
    }

    #[test]
    fn grid_trains_all_points_and_views_align() {
        let grid = run_scaling_grid(&tiny_config());
        assert_eq!(grid.points.len(), 4);
        assert!(grid
            .points
            .iter()
            .all(|p| p.test_loss.is_finite() && p.test_loss > 0.0));

        let by_tb = grid.series_by_tb();
        assert_eq!(by_tb.len(), 2);
        assert_eq!(by_tb[0].1.len(), 2);
        let by_size = grid.series_by_size();
        assert_eq!(by_size.len(), 2);
        assert_eq!(by_size[0].1.len(), 2);

        // Cross-check: the same point appears in both views.
        let p = grid.point(300, 0.4).unwrap();
        let from_tb_view = by_tb
            .iter()
            .find(|(tb, _)| (*tb - 0.4).abs() < 1e-9)
            .unwrap()
            .1
            .iter()
            .find(|(pp, _)| (*pp - p.paper_params).abs() < 1e-6)
            .unwrap()
            .1;
        assert_eq!(from_tb_view, p.test_loss);
    }

    #[test]
    fn larger_model_not_worse_on_largest_data() {
        // The core Fig. 3 direction on a tiny grid: at the largest data
        // size, the bigger model should not lose to the tiny one by much.
        let grid = run_scaling_grid(&tiny_config());
        let small = grid.point(300, 1.2).unwrap().test_loss;
        let large = grid.point(3_000, 1.2).unwrap().test_loss;
        assert!(
            large < small * 1.5,
            "larger model much worse: {large} vs {small}"
        );
    }
}
