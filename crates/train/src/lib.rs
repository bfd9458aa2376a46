//! # matgnn-train
//!
//! The training stack of the `matgnn` reproduction: energy+force losses,
//! SGD/Adam(W) optimizers with byte-accounted state, LLM-style LR schedules
//! (warmup + cosine), gradient clipping, the epoch [`Trainer`], **real
//! activation checkpointing** (segment recompute, identical gradients), and
//! the per-step memory [`profile`] that regenerates the paper's Fig. 6 and
//! Table II.
//!
//! ```no_run
//! use matgnn_data::{Dataset, GeneratorConfig, Normalizer};
//! use matgnn_model::{Egnn, EgnnConfig};
//! use matgnn_train::{TrainConfig, Trainer};
//!
//! let (train, test) = Dataset::generate_split(200, 0.15, 0, &GeneratorConfig::default());
//! let norm = Normalizer::fit(&train);
//! let mut model = Egnn::new(EgnnConfig::with_target_params(20_000, 3));
//! let report = Trainer::new(TrainConfig::default()).fit(&mut model, &train, Some(&test), &norm);
//! println!("final test loss: {:.4}", report.final_loss());
//! ```

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod checkpoint_state;
mod loss;
mod noise_scale;
mod optimizer;
pub mod profile;
mod schedule;
mod step;
mod supervisor;
mod trainer;

pub use checkpoint_state::{
    crc32, latest_in, prune_checkpoints, TrainCheckpoint, TrainCheckpointError,
};
pub use loss::{LossConfig, LossKind};
pub use noise_scale::{estimate_noise_scale, NoiseScaleEstimate};
pub use optimizer::{adam_update, clip_grad_norm, Adam, AdamHyper, AdamState, Optimizer, Sgd};
pub use profile::{profile_step, profile_step_timed, StepProfile};
pub use schedule::LrSchedule;
pub use step::{
    checkpointed_step, checkpointed_step_with_sink, train_step, train_step_with_sink, vanilla_step,
    vanilla_step_with_sink, StepOutcome,
};
pub use supervisor::{
    params_finite, AnomalyDetector, RollbackBudget, RunHealth, SupervisorConfig, Verdict,
};
pub use trainer::{
    evaluate, evaluate_per_source, EpochStats, EvalMetrics, TrainConfig, TrainReport, Trainer,
};
