//! # matgnn
//!
//! A from-scratch Rust reproduction of *"Scaling Laws of Graph Neural
//! Networks for Atomistic Materials Modeling"* (DAC 2025): the full stack —
//! tensor autodiff, atomistic graphs, a synthetic DFT-oracle potential,
//! five synthetic data sources mirroring the paper's Table I, the EGNN
//! backbone with energy/force heads, a training loop with activation
//! checkpointing, a simulated multi-GPU runtime with DDP and ZeRO-1, and
//! the scaling-law experiment harness that regenerates every figure and
//! table of the paper at laptop scale.
//!
//! This facade crate re-exports every subsystem; depend on it for the
//! whole stack or on the individual `matgnn-*` crates for pieces.
//!
//! ## Quick start
//!
//! ```
//! use matgnn::prelude::*;
//!
//! // 1. Synthesize a labelled aggregate in the paper's source proportions.
//! let cfg = GeneratorConfig::default();
//! let (train, test) = Dataset::generate_split(40, 0.2, 7, &cfg);
//! let norm = Normalizer::fit(&train);
//!
//! // 2. Build an EGNN near a target parameter count and train briefly.
//! let mut model = Egnn::new(EgnnConfig::with_target_params(2_000, 3));
//! let report = Trainer::new(TrainConfig { epochs: 1, ..Default::default() })
//!     .fit(&mut model, &train, Some(&test), &norm);
//! assert!(report.final_loss().is_finite());
//! ```
//!
//! See `examples/` for end-to-end scenarios (catalyst screening, an MD
//! force field, distributed training) and `crates/bench` for the
//! per-figure experiment binaries.

#![warn(missing_docs)]

pub use matgnn_data as data;
pub use matgnn_dist as dist;
pub use matgnn_graph as graph;
pub use matgnn_model as model;
pub use matgnn_potential as potential;
pub use matgnn_scaling as scaling;
pub use matgnn_serve as serve;
pub use matgnn_telemetry as telemetry;
pub use matgnn_tensor as tensor;
pub use matgnn_train as train;

/// The most commonly used items from every subsystem, for glob import.
pub mod prelude {
    pub use matgnn_data::{
        collate, BatchIterator, Dataset, DistributedStore, GeneratorConfig, Normalizer, Sample,
        SourceKind, Targets,
    };
    pub use matgnn_dist::{
        run_memory_settings, synthetic_slab, train_ddp, train_graphpar, CommError, Communicator,
        CostModel, DdpConfig, DdpReport, DistHalo, FailureHandle, FaultKind, FaultPlan, FaultSite,
        GraphParConfig, GraphParReport, Heartbeat, MemorySetting, Watchdog, ZeroAdam,
    };
    pub use matgnn_graph::{
        pack_batches, parts_for_rank, AtomicStructure, Element, GraphBatch, MolGraph, NeighborList,
        PackPolicy, PartDomain, PartitionPlan,
    };
    pub use matgnn_model::checkpoint::{egnn_from_bytes, egnn_to_bytes, load_egnn, save_egnn};
    pub use matgnn_model::{
        graphpar_step, local_batches, Egnn, EgnnConfig, FrozenEgnn, GnnModel, GraphParLoss,
        GraphParOutput, HaloChannel, HaloError, LocalHalo, ModelOutput, ParamSet,
    };
    pub use matgnn_potential::{PotentialParams, ReferencePotential};
    pub use matgnn_scaling::{
        fit_power_law, run_scaling_grid, ExperimentConfig, PowerLawFit, UnitMap,
    };
    pub use matgnn_serve::{BatcherConfig, DynamicBatcher, InferenceEngine};
    pub use matgnn_tensor::{MemoryCategory, MemoryTracker, Shape, Tape, Tensor, Var};
    pub use matgnn_train::{
        evaluate, latest_in, LossConfig, LossKind, LrSchedule, RunHealth, SupervisorConfig,
        TrainCheckpoint, TrainConfig, TrainReport, Trainer,
    };
}
