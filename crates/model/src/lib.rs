//! # matgnn-model
//!
//! The model of the `matgnn` reproduction: the E(n)-equivariant [`Egnn`]
//! the paper selects in Sec. III-B and scales (Satorras et al.), its
//! tape-free inference engine [`FrozenEgnn`], and the [`GnnModel`] trait
//! that exposes the forward pass as checkpointable segments.
//!
//! The model predicts the paper's two task heads: a **graph-level
//! energy** (extensive sum over per-node contributions) and **node-level
//! forces** (an equivariant combination of edge vectors).
//!
//! ```
//! use matgnn_model::{Egnn, EgnnConfig};
//!
//! // Width that lands near 50k parameters at depth 3 — how the scaling
//! // sweeps pick model sizes.
//! let cfg = EgnnConfig::with_target_params(50_000, 3);
//! let model = Egnn::new(cfg);
//! assert!(model.n_params() > 30_000);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
mod config;
mod egnn;
pub mod graphpar;
mod infer;
pub mod mlp;
mod model;
mod params;

pub use config::EgnnConfig;
pub use egnn::Egnn;
pub use graphpar::{
    graphpar_step, local_batches, GraphParLoss, GraphParOutput, HaloChannel, HaloError, LocalHalo,
};
pub use infer::{FreezeError, FrozenEgnn};
pub use model::{GnnModel, ModelOutput};
pub use params::{ParamEntry, ParamSet};
