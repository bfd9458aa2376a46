//! # matgnn-serve
//!
//! The inference serving stack: an immutable, tape-free
//! [`InferenceEngine`] that loads MGTC v1 checkpoints into a frozen
//! forward pass, and a [`DynamicBatcher`] front-end that packs concurrent
//! variable-size requests into bounded [`GraphBatch`]es and serves them
//! from a work-conserving worker pool: a free worker takes at once
//! whatever the max-atoms / max-graphs caps admit of the queue, so
//! batches grow with backlog and an idle pool never holds a request back.
//!
//! Training optimizes throughput per step; serving optimizes latency
//! under concurrency. The pieces here connect the training-side
//! machinery (recycler-backed tensors, SIMD/pool kernels, telemetry) to
//! that second workload:
//!
//! * **Engine** ([`engine`]): frozen EGNN weights + the checkpoint's
//!   [`Normalizer`](matgnn_data::Normalizer), predicting physical-unit
//!   energies and forces with zero steady-state heap allocations.
//! * **Batcher** ([`batcher`]): a bounded FIFO request queue, packing by
//!   [`PackPolicy`](matgnn_graph::PackPolicy) with no batching window,
//!   per-request latency and queue-wait metrics (`serve.latency_ms` and
//!   `serve.queue_wait_ms` feed p50/p99 via
//!   [`histogram_quantile`](matgnn_telemetry::histogram_quantile)),
//!   load-shed (`serve.shed`) and SLO-breach (`serve.slo_breach`)
//!   counters.
//! * **Metrics plane** ([`metrics_http`]): a dependency-free HTTP
//!   endpoint serving Prometheus text exposition of the registry
//!   (`/metrics`, with exact sliding-window p50/p99) and worker-pool
//!   readiness (`/healthz`).
//!
//! ```
//! use matgnn_graph::{AtomicStructure, Element, MolGraph};
//! use matgnn_model::{Egnn, EgnnConfig};
//! use matgnn_serve::{BatcherConfig, DynamicBatcher, InferenceEngine};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(InferenceEngine::from_model(
//!     &Egnn::new(EgnnConfig::new(16, 2)),
//!     Default::default(),
//! ));
//! let batcher = DynamicBatcher::start(engine, BatcherConfig::default());
//!
//! let s = AtomicStructure::new(
//!     vec![Element::O, Element::H, Element::H],
//!     vec![[0.0, 0.0, 0.0], [0.96, 0.0, 0.0], [-0.24, 0.93, 0.0]],
//! )?;
//! let ticket = batcher.submit(MolGraph::from_structure(&s, 2.0))?;
//! let prediction = ticket.wait()?;
//! assert_eq!(prediction.forces.len(), 3);
//! batcher.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod batcher;
mod engine;
pub mod metrics_http;

pub use batcher::{BatcherConfig, DynamicBatcher, Prediction, ServeError, Ticket};
pub use engine::{EngineError, GraphPrediction, InferenceEngine};
pub use metrics_http::{MetricsServer, ReadinessProbe};
