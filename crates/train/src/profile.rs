//! Peak-memory and wall-time profiling of one training step — the
//! measurement behind the paper's Fig. 6 breakdown and Table II overheads.
//!
//! A profiled step registers every persistent buffer a real framework
//! holds (weights, parameter gradients, Adam moments) with the
//! [`MemoryTracker`]; the tape registers transient activations and
//! in-flight gradients. The report captures the breakdown **at the instant
//! of the global peak**, which the paper observes lands at the start of
//! the backward pass for the vanilla path.

use std::time::{Duration, Instant};

use matgnn_data::Targets;
use matgnn_graph::GraphBatch;
use matgnn_model::{Egnn, GnnModel};
use matgnn_tensor::recycler::{self, RecyclerStats};
use matgnn_tensor::{MemoryBreakdown, MemoryCategory, MemorySnapshot, MemoryTracker};

use crate::{train_step, Adam, AdamHyper, LossConfig, Optimizer};

/// Report from one profiled training step.
#[derive(Debug, Clone)]
pub struct StepProfile {
    /// Highest total bytes observed.
    pub peak_total: u64,
    /// Per-category breakdown at the peak instant.
    pub peak: MemoryBreakdown,
    /// Labelled snapshots taken at phase boundaries.
    pub snapshots: Vec<MemorySnapshot>,
    /// Wall time of forward + backward + optimizer step.
    pub wall: Duration,
    /// The step's loss value.
    pub loss: f64,
    /// Buffer-recycler activity during the step (hit/miss/bytes-reused
    /// deltas; all zero when `MATGNN_RECYCLER=off`).
    pub recycler: RecyclerStats,
}

impl StepProfile {
    /// Activation share of the peak (the paper reports 76.9% for vanilla).
    pub fn activation_fraction(&self) -> f64 {
        self.peak.fraction(MemoryCategory::Activations)
    }

    /// Optimizer-state share of the peak.
    pub fn optimizer_fraction(&self) -> f64 {
        self.peak.fraction(MemoryCategory::OptimizerState)
    }

    /// Publishes the profile into the process-wide telemetry metrics
    /// registry under `{prefix}.*` — the shared reporting channel the
    /// bench tables and JSONL metric flushes read from.
    pub fn publish_telemetry(&self, prefix: &str) {
        matgnn_telemetry::gauge_set(format!("{prefix}.peak.total_bytes"), self.peak_total as f64);
        for cat in MemoryCategory::ALL {
            let slug = cat.label().replace(' ', "_");
            matgnn_telemetry::gauge_set(
                format!("{prefix}.peak.{slug}_bytes"),
                self.peak.get(cat) as f64,
            );
        }
        matgnn_telemetry::gauge_set(format!("{prefix}.wall_us"), self.wall.as_micros() as f64);
        matgnn_telemetry::gauge_set(format!("{prefix}.loss"), self.loss);
        matgnn_telemetry::counter_set(format!("{prefix}.recycler.hits"), self.recycler.hits);
        matgnn_telemetry::counter_set(format!("{prefix}.recycler.misses"), self.recycler.misses);
        matgnn_telemetry::counter_set(
            format!("{prefix}.recycler.bytes_reused"),
            self.recycler.bytes_reused,
        );
    }
}

/// Runs one fully-profiled training step (forward, backward, Adam update)
/// and returns the memory/time report.
///
/// `checkpointed` selects the activation-checkpointed execution path.
pub fn profile_step(
    model: &mut Egnn,
    batch: &GraphBatch,
    targets: &Targets,
    loss_cfg: &LossConfig,
    checkpointed: bool,
) -> StepProfile {
    let tracker = MemoryTracker::new();
    let recycler_before = recycler::stats();
    // Persistent buffers a framework holds for the whole run:
    let weight_bytes = model.params().bytes();
    tracker.alloc(MemoryCategory::Weights, weight_bytes);
    let mut optimizer = Adam::new(model.params(), AdamHyper::default(), Some(tracker.clone()));
    tracker.snapshot("steady state (weights + optimizer)");

    let profile_span = matgnn_telemetry::span("profile.step");
    let start = Instant::now();
    let outcome = train_step(
        model,
        batch,
        targets,
        loss_cfg,
        checkpointed,
        Some(&tracker),
    );
    // Materialized parameter gradients persist until the optimizer step.
    let grad_bytes: u64 = outcome.grads.iter().map(|g| g.bytes() as u64).sum();
    tracker.alloc(MemoryCategory::Gradients, grad_bytes);
    tracker.snapshot("before optimizer step");
    optimizer.step(model.params_mut(), &outcome.grads, 1e-3);
    tracker.free(MemoryCategory::Gradients, grad_bytes);
    tracker.snapshot("after optimizer step");
    // The update consumed the gradients; return their buffers.
    for g in outcome.grads {
        g.recycle();
    }
    let wall = start.elapsed();
    drop(profile_span);

    let profile = StepProfile {
        peak_total: tracker.peak_total(),
        peak: tracker.at_peak(),
        snapshots: tracker.snapshots(),
        wall,
        loss: outcome.loss,
        recycler: recycler::stats().delta_since(&recycler_before),
    };
    profile.publish_telemetry(if checkpointed {
        "profile.ckpt"
    } else {
        "profile.vanilla"
    });
    drop(optimizer); // frees optimizer-state accounting
    tracker.free(MemoryCategory::Weights, weight_bytes);
    profile
}

/// Averages the wall time of `reps` profiled steps (first call also
/// returns the memory profile of the final rep).
pub fn profile_step_timed(
    model: &mut Egnn,
    batch: &GraphBatch,
    targets: &Targets,
    loss_cfg: &LossConfig,
    checkpointed: bool,
    reps: usize,
) -> StepProfile {
    assert!(reps >= 1, "need at least one rep");
    let mut last = None;
    let mut total = Duration::ZERO;
    for _ in 0..reps {
        let p = profile_step(model, batch, targets, loss_cfg, checkpointed);
        total += p.wall;
        last = Some(p);
    }
    let mut p = last.expect("reps >= 1");
    p.wall = total / reps as u32;
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgnn_data::{collate, Dataset, GeneratorConfig, Normalizer, Sample};
    use matgnn_model::{Egnn, EgnnConfig};

    fn setup() -> (GraphBatch, Targets) {
        let ds = Dataset::generate_aggregate(8, 31, &GeneratorConfig::default());
        let norm = Normalizer::fit(&ds);
        let samples: Vec<&Sample> = ds.samples().iter().collect();
        collate(&samples, &norm)
    }

    #[test]
    fn vanilla_peak_dominated_by_activations() {
        // The paper's Fig. 6(a): activations are the largest category at
        // the peak for an untreated training step on a deep-enough model.
        let mut model = Egnn::new(EgnnConfig::new(16, 5));
        let (batch, targets) = setup();
        let p = profile_step(&mut model, &batch, &targets, &LossConfig::default(), false);
        assert!(p.peak_total > 0);
        assert!(
            p.activation_fraction() > 0.5,
            "activations only {:.1}% of peak",
            100.0 * p.activation_fraction()
        );
    }

    #[test]
    fn checkpointing_cuts_peak() {
        let mut model = Egnn::new(EgnnConfig::new(16, 5));
        let (batch, targets) = setup();
        let vanilla = profile_step(&mut model, &batch, &targets, &LossConfig::default(), false);
        let ckpt = profile_step(&mut model, &batch, &targets, &LossConfig::default(), true);
        assert!(
            (ckpt.peak_total as f64) < 0.8 * vanilla.peak_total as f64,
            "ckpt {} vs vanilla {}",
            ckpt.peak_total,
            vanilla.peak_total
        );
    }

    #[test]
    fn snapshots_recorded_in_order() {
        let mut model = Egnn::new(EgnnConfig::new(8, 2));
        let (batch, targets) = setup();
        let p = profile_step(&mut model, &batch, &targets, &LossConfig::default(), false);
        let labels: Vec<&str> = p.snapshots.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.contains(&"before optimizer step"));
        assert!(labels.contains(&"after optimizer step"));
        // Optimizer states present at steady state: 2× weights.
        let steady = &p.snapshots[0].breakdown;
        assert_eq!(
            steady.get(MemoryCategory::OptimizerState),
            2 * steady.get(MemoryCategory::Weights)
        );
    }

    #[test]
    fn timed_profile_averages() {
        let mut model = Egnn::new(EgnnConfig::new(8, 2));
        let (batch, targets) = setup();
        let p = profile_step_timed(
            &mut model,
            &batch,
            &targets,
            &LossConfig::default(),
            false,
            2,
        );
        assert!(p.wall > Duration::ZERO);
    }
}
