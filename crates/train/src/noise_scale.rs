//! Gradient noise scale estimation (McCandlish et al., *An Empirical Model
//! of Large-Batch Training*) — the LLM-scaling tool that predicts the
//! **critical batch size**: below it, training is gradient-noise limited
//! and larger batches give near-linear speedups; above it, returns
//! diminish.
//!
//! For a scaling study like the paper's (fixed global batch across model
//! and data sizes), the noise scale answers the infrastructure question
//! "how much data parallelism can these runs actually absorb?" — the
//! missing quantitative link behind its Sec. V scalability discussion.
//!
//! The simple estimator uses gradient norms at two batch sizes. With `G_B`
//! the mini-batch gradient at batch size `B`,
//! `E‖G_B‖² = ‖G‖² + tr(Σ)/B`, so two sizes `B₁ < B₂` give
//!
//! ```text
//! ‖G‖²   ≈ (B₂·‖G_B₂‖² − B₁·‖G_B₁‖²) / (B₂ − B₁)
//! tr(Σ)  ≈ (‖G_B₁‖² − ‖G_B₂‖²) / (1/B₁ − 1/B₂)
//! B_simple = tr(Σ) / ‖G‖²
//! ```

use matgnn_data::{BatchIterator, Dataset, Normalizer};
use matgnn_model::Egnn;

use crate::{vanilla_step, LossConfig};

/// The estimated gradient statistics.
#[derive(Debug, Clone, Copy)]
pub struct NoiseScaleEstimate {
    /// Estimated squared norm of the true (full-batch) gradient.
    pub g2: f64,
    /// Estimated trace of the per-example gradient covariance.
    pub trace_sigma: f64,
    /// The simple noise scale `B_simple = tr(Σ)/‖G‖²` — the critical
    /// batch size. `f64::INFINITY` when `‖G‖² ≤ 0` is estimated (pure
    /// noise regime).
    pub b_simple: f64,
    /// Small batch size used.
    pub b_small: usize,
    /// Large batch size used.
    pub b_big: usize,
    /// Gradient evaluations averaged per batch size.
    pub n_estimates: usize,
}

impl NoiseScaleEstimate {
    /// Per-**step** progress at batch size `b` relative to the full-batch
    /// ideal, per the McCandlish model: `1 / (1 + B_noise/b)`. Grows with
    /// `b` and saturates at 1.
    pub fn efficiency_at(&self, batch: usize) -> f64 {
        if !self.b_simple.is_finite() {
            return 0.0;
        }
        1.0 / (1.0 + self.b_simple / batch.max(1) as f64)
    }

    /// Per-**sample** efficiency at batch size `b`: `1 / (1 + b/B_noise)`.
    /// Near 1 while `b ≪ B_noise`; beyond the critical batch size each
    /// extra sample contributes proportionally less.
    pub fn sample_efficiency_at(&self, batch: usize) -> f64 {
        if !self.b_simple.is_finite() {
            return 1.0;
        }
        1.0 / (1.0 + batch.max(1) as f64 / self.b_simple.max(1e-12))
    }

    /// Whether the two-point estimate looks trustworthy (a negative trace
    /// means sampling error exceeded the batch-size effect).
    pub fn is_reliable(&self) -> bool {
        self.trace_sigma > 0.0 && self.g2 > 0.0
    }
}

/// Mean squared gradient norm over `n` freshly-shuffled batches of size
/// `batch_size`.
fn mean_grad_norm_sq(
    model: &Egnn,
    dataset: &Dataset,
    normalizer: &Normalizer,
    loss_cfg: &LossConfig,
    batch_size: usize,
    n: usize,
    seed: u64,
) -> f64 {
    let mut total = 0.0f64;
    let mut count = 0usize;
    let mut shuffle = seed;
    while count < n {
        for (batch, targets) in BatchIterator::new(dataset, batch_size, Some(shuffle), *normalizer)
        {
            if batch.n_graphs() < batch_size {
                continue; // keep the estimator's B exact
            }
            let outcome = vanilla_step(model, &batch, &targets, loss_cfg, None);
            total += outcome
                .grads
                .iter()
                .map(|g| g.norm_sq() as f64)
                .sum::<f64>();
            count += 1;
            if count >= n {
                break;
            }
        }
        shuffle = shuffle.wrapping_add(0x9E37_79B9);
    }
    total / count.max(1) as f64
}

/// Estimates the gradient noise scale of `model` on `dataset`.
///
/// # Panics
///
/// Panics unless `b_small < b_big`, `n_estimates ≥ 1`, and the dataset
/// holds at least `b_big` graphs.
#[allow(clippy::too_many_arguments)] // mirrors the estimator's knobs
pub fn estimate_noise_scale(
    model: &Egnn,
    dataset: &Dataset,
    normalizer: &Normalizer,
    loss_cfg: &LossConfig,
    b_small: usize,
    b_big: usize,
    n_estimates: usize,
    seed: u64,
) -> NoiseScaleEstimate {
    assert!(b_small >= 1 && b_small < b_big, "need b_small < b_big");
    assert!(n_estimates >= 1, "need at least one estimate");
    assert!(
        dataset.len() >= b_big,
        "dataset of {} graphs cannot form a batch of {b_big}",
        dataset.len()
    );
    let gsq_small = mean_grad_norm_sq(
        model,
        dataset,
        normalizer,
        loss_cfg,
        b_small,
        n_estimates,
        seed,
    );
    let gsq_big = mean_grad_norm_sq(
        model,
        dataset,
        normalizer,
        loss_cfg,
        b_big,
        n_estimates,
        seed ^ 0xB16,
    );
    let (bs, bb) = (b_small as f64, b_big as f64);
    let g2 = (bb * gsq_big - bs * gsq_small) / (bb - bs);
    let trace_sigma = (gsq_small - gsq_big) / (1.0 / bs - 1.0 / bb);
    let b_simple = if g2 > 0.0 {
        (trace_sigma / g2).max(0.0)
    } else {
        f64::INFINITY
    };
    NoiseScaleEstimate {
        g2,
        trace_sigma,
        b_simple,
        b_small,
        b_big,
        n_estimates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgnn_data::GeneratorConfig;
    use matgnn_model::{Egnn, EgnnConfig};

    fn setup() -> (Dataset, Normalizer, Egnn) {
        let ds = Dataset::generate_aggregate(64, 47, &GeneratorConfig::default());
        let norm = Normalizer::fit(&ds);
        (ds, norm, Egnn::new(EgnnConfig::new(8, 2).with_seed(3)))
    }

    #[test]
    fn estimate_is_finite_and_consistent() {
        let (ds, norm, model) = setup();
        let est = estimate_noise_scale(&model, &ds, &norm, &LossConfig::default(), 2, 16, 6, 1);
        assert!(est.trace_sigma.is_finite());
        assert!(est.g2.is_finite());
        assert!(est.b_simple >= 0.0, "noise scale {}", est.b_simple);
        // Self-consistency: the model E‖G_B‖² = g2 + trΣ/B must reproduce
        // a *third* batch size's measured norm reasonably well.
        let measured_mid = mean_grad_norm_sq(&model, &ds, &norm, &LossConfig::default(), 8, 6, 2);
        let predicted_mid = est.g2 + est.trace_sigma / 8.0;
        assert!(
            (measured_mid - predicted_mid).abs() < 0.7 * measured_mid.abs().max(1e-9),
            "measured {measured_mid} vs predicted {predicted_mid}"
        );
    }

    #[test]
    // E‖G_B‖² = ‖G‖² + trΣ/B, so the batch-2 mean must exceed the
    // batch-16 one whenever trΣ > 0. On this model and data the gap is
    // small (‖G‖² ≈ 2.6e6 dominates, trΣ/‖G‖² ≈ 0.4) and ‖G_2‖² is
    // heavy-tailed, so 8 batches per size cannot resolve it: over shuffle
    // seeds 0..16 the n = 8 ratio small/big had median 0.93 (range
    // 0.68–3.47), and seed 3 reads 2.36e6 vs 2.61e6. At n = 32 all 16
    // seeds resolve it: median 1.18, range 1.11–1.56. The test takes the
    // median over three seeds at n = 32 and asks for 1.05, below the
    // lowest single seed of that sweep, so only a real inversion fails.
    fn smaller_batches_have_noisier_gradients() {
        let (ds, norm, model) = setup();
        let mut ratios: Vec<f64> = (0..3)
            .map(|seed| {
                let loss = LossConfig::default();
                let small = mean_grad_norm_sq(&model, &ds, &norm, &loss, 2, 32, seed);
                let big = mean_grad_norm_sq(&model, &ds, &norm, &loss, 16, 32, seed);
                small / big
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        assert!(
            ratios[1] > 1.05,
            "E‖G_B‖² should shrink with B (median ratio ≈1.18 over 16 seeds): {ratios:?}"
        );
    }

    #[test]
    fn efficiency_monotone_in_batch() {
        let est = NoiseScaleEstimate {
            g2: 1.0,
            trace_sigma: 32.0,
            b_simple: 32.0,
            b_small: 2,
            b_big: 16,
            n_estimates: 4,
        };
        assert!(est.efficiency_at(4) < est.efficiency_at(32));
        assert!(est.efficiency_at(32) < est.efficiency_at(512));
        // At B = B_noise the efficiency is exactly ½.
        assert!((est.efficiency_at(32) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "b_small < b_big")]
    fn invalid_batch_sizes_rejected() {
        let (ds, norm, model) = setup();
        let _ = estimate_noise_scale(&model, &ds, &norm, &LossConfig::default(), 8, 8, 1, 0);
    }
}
