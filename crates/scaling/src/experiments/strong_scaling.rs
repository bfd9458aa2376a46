//! Strong-scaling throughput (extension experiment).
//!
//! HydraGNN-GFM's headline infrastructure claim (paper Sec. II-B) is
//! near-linear strong scaling across GPUs. The simulated ranks are threads
//! that time-slice the host's cores (2 vCPUs on the reference host), so
//! measured wall time cannot show a speedup past the core count;
//! instead this experiment combines a **measured** single-rank step time
//! with the **modeled** ring-all-reduce cost from
//! [`CostModel`](matgnn_dist::CostModel) to estimate per-node scaling, and
//! also reports the (time-sliced) measured throughput for transparency.

use std::time::Instant;

use matgnn_data::{collate, Dataset, Normalizer, Sample};
use matgnn_dist::{train_ddp, CostModel, DdpConfig};
use matgnn_model::{Egnn, EgnnConfig, GnnModel};
use matgnn_train::{vanilla_step, LossConfig};

use crate::ExperimentConfig;

/// One world-size point of the strong-scaling curve.
#[derive(Debug, Clone, Copy)]
pub struct StrongScalingPoint {
    /// Number of simulated ranks.
    pub world: usize,
    /// Modeled throughput (graphs/s): measured compute + modeled comm.
    pub modeled_graphs_per_s: f64,
    /// Modeled parallel efficiency vs the 1-rank point.
    pub modeled_efficiency: f64,
    /// Modeled throughput under perfect backward/all-reduce overlap:
    /// the step costs `max(t_compute, t_comm)` instead of their sum.
    /// An upper bound on what `overlap_comm` buys at this world size.
    pub modeled_graphs_per_s_overlap: f64,
    /// Measured wall-clock throughput (ranks time-slice the host's cores,
    /// so it stops rising once ranks outnumber them — reported for
    /// transparency).
    pub measured_graphs_per_s: f64,
}

/// Runs the strong-scaling estimate for the given world sizes.
pub fn run_strong_scaling(cfg: &ExperimentConfig, worlds: &[usize]) -> Vec<StrongScalingPoint> {
    let gen = cfg.generator();
    let n_graphs = (cfg.units.graphs_per_tb * 0.2).max(64.0) as usize;
    cfg.progress(&format!("strong scaling: generating {n_graphs} graphs"));
    let ds = Dataset::generate_aggregate(n_graphs, cfg.seed, &gen);
    let normalizer = Normalizer::fit(&ds);
    let model = Egnn::new(
        EgnnConfig::with_target_params(*cfg.model_sizes.last().unwrap_or(&20_000), cfg.n_layers)
            .with_seed(cfg.seed),
    );
    let n_params = model.params().n_scalars();
    let per_rank_batch = cfg.batch_size;
    let cost = CostModel::default();

    // Measured single-rank compute time per step (no collectives).
    let samples: Vec<&Sample> = ds.samples().iter().take(per_rank_batch).collect();
    let (batch, targets) = collate(&samples, &normalizer);
    let loss_cfg = LossConfig::default();
    let reps = 3;
    let t0 = Instant::now();
    for _ in 0..reps {
        let _ = vanilla_step(&model, &batch, &targets, &loss_cfg, None);
    }
    let t_compute = t0.elapsed().as_secs_f64() / reps as f64;
    cfg.progress(&format!(
        "strong scaling: per-step compute {:.3}s",
        t_compute
    ));

    worlds
        .iter()
        .map(|&world| {
            // Ring all-reduce of the gradient vector per step.
            let grad_bytes = (n_params * 4) as u64;
            let comm_bytes = if world > 1 {
                grad_bytes * 2 * (world as u64 - 1) / world as u64
            } else {
                0
            };
            let t_comm = if world > 1 {
                cost.seconds(comm_bytes)
            } else {
                0.0
            };
            let step_time = t_compute + t_comm;
            let modeled = world as f64 * per_rank_batch as f64 / step_time;
            let base = per_rank_batch as f64 / t_compute;
            let modeled_efficiency = modeled / (world as f64 * base);
            let step_overlap = t_compute.max(t_comm);
            let modeled_overlap = world as f64 * per_rank_batch as f64 / step_overlap;

            // Measured (time-sliced) throughput over a few DDP steps.
            let mut replica = model.clone();
            let ddp_cfg = DdpConfig {
                world,
                epochs: 1,
                batch_size: per_rank_batch,
                ..Default::default()
            };
            let measured = if ds.len() >= world * per_rank_batch {
                let report = train_ddp(&mut replica, &ds, &normalizer, &ddp_cfg);
                let total_graphs = (report.steps * world * per_rank_batch) as f64;
                total_graphs / report.wall.as_secs_f64().max(1e-9)
            } else {
                f64::NAN
            };

            let point = StrongScalingPoint {
                world,
                modeled_graphs_per_s: modeled,
                modeled_efficiency,
                modeled_graphs_per_s_overlap: modeled_overlap,
                measured_graphs_per_s: measured,
            };
            cfg.progress(&format!(
                "strong scaling world={world}: modeled {:.1} graphs/s (eff {:.0}%), measured {:.1}",
                point.modeled_graphs_per_s,
                100.0 * point.modeled_efficiency,
                point.measured_graphs_per_s
            ));
            point
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_scaling_is_near_linear_for_small_worlds() {
        let cfg = ExperimentConfig {
            units: crate::UnitMap {
                graphs_per_tb: 200.0,
                ..Default::default()
            },
            model_sizes: vec![2_000],
            verbose: false,
            ..ExperimentConfig::quick()
        };
        let points = run_strong_scaling(&cfg, &[1, 2, 4]);
        assert_eq!(points.len(), 3);
        // Modeled throughput grows with world size…
        assert!(points[1].modeled_graphs_per_s > points[0].modeled_graphs_per_s);
        assert!(points[2].modeled_graphs_per_s > points[1].modeled_graphs_per_s);
        // …with near-linear efficiency (fast interconnect, small model).
        assert!(
            points[2].modeled_efficiency > 0.8,
            "{}",
            points[2].modeled_efficiency
        );
        // 1-rank efficiency is exactly 1.
        assert!((points[0].modeled_efficiency - 1.0).abs() < 1e-9);
        // Perfect overlap bounds the serial model from above and never
        // beats ideal linear scaling off the 1-rank compute time.
        for p in &points {
            assert!(p.modeled_graphs_per_s_overlap >= p.modeled_graphs_per_s);
            let ideal = p.world as f64 * points[0].modeled_graphs_per_s;
            assert!(p.modeled_graphs_per_s_overlap <= ideal * (1.0 + 1e-9));
        }
    }
}
