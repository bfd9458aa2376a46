//! End-to-end SIMD-tier guarantee for training: a short seeded run gives
//! the same losses, bit for bit, on every SIMD tier and every pool size.
//! That is what lets a loss pinned on one machine reproduce on another,
//! and what checkpoints and DDP replicas rely on within a run.

use matgnn_data::{Dataset, GeneratorConfig, Normalizer};
use matgnn_model::{Egnn, EgnnConfig};
use matgnn_tensor::{simd, Runtime};
use matgnn_train::{TrainConfig, Trainer};

/// Per-epoch train/test losses for a short seeded run on one SIMD tier at
/// a fixed pool size.
fn losses_once(tier: simd::SimdTier, threads: usize) -> Vec<f64> {
    let _rt = Runtime::current()
        .with_simd(tier)
        .with_threads(threads)
        .enter();
    let (train, test) = Dataset::generate_split(16, 0.25, 7, &GeneratorConfig::default());
    let norm = Normalizer::fit(&train);
    let mut model = Egnn::new(EgnnConfig::new(64, 2));
    let report = Trainer::new(TrainConfig {
        epochs: 2,
        batch_size: 8,
        ..Default::default()
    })
    .fit(&mut model, &train, Some(&test), &norm);
    report
        .epochs
        .iter()
        .flat_map(|e| [e.train_loss, e.test_loss.unwrap_or(0.0)])
        .collect()
}

fn bits(losses: Vec<f64>) -> Vec<u64> {
    losses.iter().map(|l| l.to_bits()).collect()
}

/// Every tier this host runs, Scalar first.
fn tiers() -> impl Iterator<Item = simd::SimdTier> {
    use simd::SimdTier::{Avx2, Avx512, Scalar};
    let hardware = Runtime::hardware().simd;
    [Scalar, Avx2, Avx512]
        .into_iter()
        .filter(move |&t| t <= hardware)
}

/// At pool 1, every tier's losses equal the scalar tier's bit for bit.
#[test]
fn training_trajectory_matches_across_simd_tiers() {
    let scalar = losses_once(simd::SimdTier::Scalar, 1);
    assert!(
        scalar.iter().all(|l| l.is_finite()),
        "scalar-tier run produced non-finite losses: {scalar:?}"
    );
    let reference = bits(scalar);
    for tier in tiers().skip(1) {
        assert_eq!(
            reference,
            bits(losses_once(tier, 1)),
            "training losses on {tier} differ from the scalar tier"
        );
    }
}

/// On every tier, pools of 2 and 4 give the pool-of-1 losses bit for bit.
#[test]
fn training_bitwise_invariant_to_pool_size_within_each_tier() {
    for tier in tiers() {
        let reference = bits(losses_once(tier, 1));
        for threads in [2usize, 4] {
            assert_eq!(
                reference,
                bits(losses_once(tier, threads)),
                "{tier}: training losses changed between pool-of-1 and pool-of-{threads}"
            );
        }
    }
}
