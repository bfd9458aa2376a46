//! # matgnn-scaling
//!
//! Scaling-law analysis and the experiment runners that regenerate every
//! table and figure of *"Scaling Laws of Graph Neural Networks for
//! Atomistic Materials Modeling"*:
//!
//! * [`UnitMap`] — the calibrated mapping between this reproduction's
//!   laptop-scale axes and the paper's 0.1 M–2 B parameter / 0.1–1.2 TB
//!   axes;
//! * [`fit_power_law`] — saturating power-law fits `L = a·x^(−α) + c`;
//! * [`landscape`] — the Fig. 1 prior-model landscape;
//! * [`run_scaling_grid`] — the Fig. 3 / Fig. 4 model×data grid;
//! * [`run_depth_width`] — Fig. 5;
//! * [`run_ablations`], [`run_strong_scaling`] — extension experiments;
//! * [`sweep`] — the data preparation and concurrent point runner the
//!   training experiments share.
//!
//! ```
//! use matgnn_scaling::{fit_power_law, UnitMap};
//!
//! let u = UnitMap::default();
//! // 100k actual parameters sit at the paper's 2B end of the axis.
//! assert!(u.paper_params(100_000.0) > 1.9e9);
//!
//! let xs = [1e3f64, 1e4, 1e5, 1e6];
//! let ys: Vec<f64> = xs.iter().map(|&x| 4.0 * x.powf(-0.25) + 0.1).collect();
//! let fit = fit_power_law(&xs, &ys).expect("fit");
//! assert!((fit.alpha - 0.25).abs() < 0.05);
//! ```

#![warn(missing_docs)]

mod experiments;
mod landscape;
mod powerlaw;
mod units;

pub use experiments::{
    run_ablations, run_depth_width, run_scaling_grid, run_seed_variance, run_strong_scaling,
    run_transfer, sweep, AblationResult, DepthWidthPoint, ExperimentConfig, GridPoint, ScalingGrid,
    StrongScalingPoint, SweepKind, TransferResult, VariancePoint,
};
pub use landscape::{format_landscape, landscape, LandscapeEntry};
pub use powerlaw::{fit_power_law, PowerLawFit};
pub use units::{format_params, format_tb, UnitMap};
