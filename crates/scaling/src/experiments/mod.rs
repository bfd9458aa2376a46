//! Experiment runners — one per figure of the paper's evaluation.
//!
//! Every runner consumes an [`ExperimentConfig`], trains real models on
//! the synthetic aggregate through the one [`sweep`] runner, and returns
//! plain data that the `matgnn-bench` binary formats into the paper's
//! tables and series.

mod ablations;
mod config;
mod depth_width;
mod grid;
mod strong_scaling;
pub mod sweep;
mod transfer;
mod variance;

pub use ablations::{run_ablations, AblationResult};
pub use config::ExperimentConfig;
pub use depth_width::{run_depth_width, DepthWidthPoint, SweepKind};
pub use grid::{run_scaling_grid, GridPoint, ScalingGrid};
pub use strong_scaling::{run_strong_scaling, StrongScalingPoint};
pub use transfer::{run_transfer, TransferResult};
pub use variance::{run_seed_variance, VariancePoint};
