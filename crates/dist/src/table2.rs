//! The paper's Sec. V configuration matrix: vanilla DDP, + activation
//! checkpointing, + ZeRO optimizer — measured for peak memory (Fig. 6) and
//! step time (Table II) on the simulated 4-rank node.

use std::time::Duration;

use matgnn_data::{Dataset, Normalizer};
use matgnn_model::Egnn;
use matgnn_tensor::MemoryBreakdown;

use crate::{train_ddp, DdpConfig};

/// One of the three memory settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemorySetting {
    /// Plain DDP (full Adam replica, no recompute) — the paper's
    /// "Vanilla PyTorch" row.
    Vanilla,
    /// DDP + activation checkpointing.
    ActivationCheckpointing,
    /// DDP + activation checkpointing + ZeRO-1 optimizer sharding.
    ZeroOptimizer,
}

impl MemorySetting {
    /// All settings in Table II order.
    pub const ALL: [MemorySetting; 3] = [
        MemorySetting::Vanilla,
        MemorySetting::ActivationCheckpointing,
        MemorySetting::ZeroOptimizer,
    ];

    /// The row label used by the paper.
    pub fn label(self) -> &'static str {
        match self {
            MemorySetting::Vanilla => "Vanilla",
            MemorySetting::ActivationCheckpointing => "+ Activation Checkpointing",
            MemorySetting::ZeroOptimizer => "+ ZeRO Optimizer",
        }
    }

    /// Metric-name slug for the telemetry registry (`table2.<slug>.*`).
    pub fn slug(self) -> &'static str {
        match self {
            MemorySetting::Vanilla => "vanilla",
            MemorySetting::ActivationCheckpointing => "ckpt",
            MemorySetting::ZeroOptimizer => "zero",
        }
    }

    fn apply(self, cfg: &mut DdpConfig) {
        match self {
            MemorySetting::Vanilla => {
                cfg.checkpointing = false;
                cfg.zero = false;
            }
            MemorySetting::ActivationCheckpointing => {
                cfg.checkpointing = true;
                cfg.zero = false;
            }
            MemorySetting::ZeroOptimizer => {
                cfg.checkpointing = true;
                cfg.zero = true;
            }
        }
    }
}

/// Measured outcome of one setting.
#[derive(Debug, Clone)]
pub struct SettingProfile {
    /// Which setting.
    pub setting: MemorySetting,
    /// Peak bytes on rank 0.
    pub peak_total: u64,
    /// Breakdown at the peak instant on rank 0.
    pub peak: MemoryBreakdown,
    /// Mean wall time per optimization step.
    pub step_wall: Duration,
    /// Modeled interconnect seconds per step on rank 0.
    pub modeled_comm_per_step: f64,
    /// Modeled interconnect seconds per step that were *not* hidden
    /// behind backward compute on rank 0. Equals
    /// `modeled_comm_per_step` when `overlap_comm` is off; with
    /// backward-overlapped collectives this is the residual cost a real
    /// interconnect would expose on the critical path.
    pub exposed_comm_per_step: f64,
}

impl SettingProfile {
    /// Publishes this row into the telemetry metrics registry under
    /// `table2.<slug>.*`, the same channel the bench tables and JSONL
    /// metric events read from.
    pub fn publish_telemetry(&self) {
        let slug = self.setting.slug();
        matgnn_telemetry::gauge_set(
            format!("table2.{slug}.peak.total_bytes"),
            self.peak_total as f64,
        );
        matgnn_telemetry::gauge_set(
            format!("table2.{slug}.step_wall_us"),
            self.step_wall.as_micros() as f64,
        );
        matgnn_telemetry::gauge_set(
            format!("table2.{slug}.comm.modeled_seconds_per_step"),
            self.modeled_comm_per_step,
        );
        matgnn_telemetry::gauge_set(
            format!("table2.{slug}.comm.exposed_seconds_per_step"),
            self.exposed_comm_per_step,
        );
    }
}

/// Runs all three settings on the same model/data/batch configuration and
/// returns their profiles in Table II order.
///
/// `base` supplies world size, batch size and training hyperparameters;
/// the checkpointing/ZeRO flags are overridden per setting.
pub fn run_memory_settings(
    model: &Egnn,
    train: &Dataset,
    normalizer: &Normalizer,
    base: &DdpConfig,
) -> Vec<SettingProfile> {
    MemorySetting::ALL
        .iter()
        .map(|&setting| {
            let mut cfg = base.clone();
            setting.apply(&mut cfg);
            let mut replica = model.clone();
            let report = train_ddp(&mut replica, train, normalizer, &cfg);
            let rank0 = &report.ranks[0];
            let profile = SettingProfile {
                setting,
                peak_total: rank0.peak_total,
                peak: rank0.peak,
                step_wall: report.mean_step_wall(),
                modeled_comm_per_step: rank0.comm.modeled_seconds / report.steps.max(1) as f64,
                exposed_comm_per_step: rank0.comm.exposed_seconds() / report.steps.max(1) as f64,
            };
            profile.publish_telemetry();
            profile
        })
        .collect()
}

/// Formats profiles as the paper's Table II: relative peak memory and
/// relative step time, with the vanilla row as 100%.
pub fn format_table2(profiles: &[SettingProfile]) -> String {
    let base_mem = profiles[0].peak_total.max(1) as f64;
    let base_time = profiles[0].step_wall.as_secs_f64().max(1e-12);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<30} {:>20} {:>22}\n",
        "Setting", "Relative Peak Memory", "Relative Training Time"
    ));
    for p in profiles {
        out.push_str(&format!(
            "{:<30} {:>19.0}% {:>21.0}%\n",
            p.setting.label(),
            100.0 * p.peak_total as f64 / base_mem,
            100.0 * p.step_wall.as_secs_f64() / base_time,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgnn_data::GeneratorConfig;
    use matgnn_model::{Egnn, EgnnConfig};

    #[test]
    fn table2_shape_holds() {
        // The qualitative Table II result: each added technique lowers the
        // peak and raises (or at least does not improve) the step time.
        let ds = Dataset::generate_aggregate(32, 51, &GeneratorConfig::default());
        let norm = Normalizer::fit(&ds);
        let model = Egnn::new(EgnnConfig::new(16, 4));
        let base = DdpConfig {
            world: 2,
            epochs: 1,
            batch_size: 4,
            ..Default::default()
        };
        let profiles = run_memory_settings(&model, &ds, &norm, &base);
        assert_eq!(profiles.len(), 3);
        assert!(
            profiles[1].peak_total < profiles[0].peak_total,
            "AC did not reduce peak: {} vs {}",
            profiles[1].peak_total,
            profiles[0].peak_total
        );
        assert!(
            profiles[2].peak_total < profiles[1].peak_total,
            "ZeRO did not reduce peak further: {} vs {}",
            profiles[2].peak_total,
            profiles[1].peak_total
        );
        // ZeRO must move more modeled traffic than plain AC (extra
        // gather of parameters).
        assert!(profiles[2].modeled_comm_per_step >= profiles[1].modeled_comm_per_step);
        // Without overlap_comm, nothing is hidden: exposed == modeled.
        for p in &profiles {
            assert_eq!(p.exposed_comm_per_step, p.modeled_comm_per_step);
        }
        let table = format_table2(&profiles);
        assert!(table.contains("Vanilla"));
        assert!(table.contains("100%"));
    }
}
