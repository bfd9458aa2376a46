//! Integration tests of the scaling-experiment pipeline: a miniature grid
//! run, power-law fits over its output, and unit-map consistency.

use matgnn::prelude::*;
use matgnn::scaling::{self, format_params, ExperimentConfig};

fn tiny_config() -> ExperimentConfig {
    ExperimentConfig {
        units: UnitMap {
            graphs_per_tb: 80.0,
            ..Default::default()
        },
        epochs: 2,
        model_sizes: vec![250, 2_500, 20_000],
        tb_points: vec![0.1, 0.4, 1.2],
        verbose: false,
        ..ExperimentConfig::quick()
    }
}

#[test]
fn grid_run_produces_fig3_and_fig4_views() {
    let grid = scaling::run_scaling_grid(&tiny_config());
    assert_eq!(grid.points.len(), 9);

    // Fig. 3 series: loss per model size at each TB point.
    let fig3 = grid.series_by_tb();
    assert_eq!(fig3.len(), 3);
    for (_, series) in &fig3 {
        assert_eq!(series.len(), 3);
        // Paper params strictly increasing along the series.
        assert!(series.windows(2).all(|w| w[1].0 > w[0].0));
    }

    // Fig. 4 series: loss per TB at each model size.
    let fig4 = grid.series_by_size();
    assert_eq!(fig4.len(), 3);
    for (_, series) in &fig4 {
        assert!(series.windows(2).all(|w| w[1].0 > w[0].0));
    }
}

#[test]
// The miniature grid's model-size trend hangs on one random stream: it
// was inverted on an earlier stream and holds on the current one. One
// seed is not evidence of a scaling law; ROADMAP item 7 makes the recipe
// transfer across width and asserts the trend over seeds.
#[ignore = "ROADMAP item 7: one-seed trend; passes on the current stream (1.2 TB: largest 2.60 vs smallest 3.45), was inverted on an earlier one"]
fn model_scaling_direction_holds_on_largest_dataset() {
    // The headline Fig. 3 trend at the biggest data point: the largest
    // model beats the smallest one.
    let grid = scaling::run_scaling_grid(&tiny_config());
    let series = grid
        .series_by_tb()
        .into_iter()
        .find(|(tb, _)| (*tb - 1.2).abs() < 1e-9)
        .expect("1.2TB series")
        .1;
    let smallest = series.first().expect("points").1;
    let largest = series.last().expect("points").1;
    assert!(
        largest < smallest,
        "biggest model ({}) not better: {largest} vs {smallest}",
        format_params(series.last().unwrap().0)
    );
}

#[test]
fn data_scaling_direction_holds_for_largest_model() {
    // The headline Fig. 4 trend: more data → lower test loss (comparing
    // the biased 0.1 TB point against the full aggregate).
    let grid = scaling::run_scaling_grid(&tiny_config());
    let biggest = *tiny_config().model_sizes.last().unwrap();
    let p_small_data = grid.point(biggest, 0.1).expect("0.1TB point").test_loss;
    let p_full_data = grid.point(biggest, 1.2).expect("1.2TB point").test_loss;
    assert!(
        p_full_data < p_small_data,
        "more data did not help: {p_full_data} vs {p_small_data}"
    );
}

#[test]
// Same one-seed fragility as model_scaling_direction_holds_on_largest_dataset:
// the fitted exponent was alpha ≈ −2.37 (loss rising with model size) on
// an earlier random stream and is positive on the current one. ROADMAP
// item 7.
#[ignore = "ROADMAP item 7: one-seed fit; passes on the current stream (alpha +0.064, r² 0.999), was −2.37 on an earlier one"]
fn power_law_fits_grid_output() {
    let grid = scaling::run_scaling_grid(&tiny_config());
    let fit = grid.fit_model_scaling(1.2).expect("enough points");
    // Decreasing loss in model size ⇒ positive decay exponent.
    assert!(fit.alpha > 0.0, "fit {:?}", fit);
    assert!(fit.predict(250.0) > fit.predict(20_000.0));
}

#[test]
fn unit_map_round_trips_through_experiment_sizes() {
    let cfg = tiny_config();
    for &size in &cfg.model_sizes {
        let paper = cfg.units.paper_params(size as f64);
        let back = cfg.units.actual_params(paper);
        assert!((back / size as f64 - 1.0).abs() < 1e-9);
        // Paper axis stays inside the paper's range.
        assert!(
            (1e4..=3e9).contains(&paper),
            "paper {paper} for actual {size}"
        );
    }
}

#[test]
fn landscape_table_well_formed() {
    let entries = scaling::landscape();
    assert!(entries.len() >= 8);
    let table = scaling::format_landscape(&entries);
    assert!(table.lines().count() >= entries.len());
}
