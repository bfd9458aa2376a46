//! End-to-end SIMD-tier guarantees for training (PR 7): a full training
//! run on the vector tier must (a) track the scalar tier's loss
//! trajectory to tight tolerance — FMA contraction and the polynomial
//! `exp` perturb each step by ulps, compounding only mildly over steps —
//! and (b) remain **bitwise** invariant to pool size within either tier,
//! which is the property checkpoints and DDP replicas rely on.

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

#[test]
fn training_trajectory_matches_across_simd_tiers() {
    let scalar = losses_once(simd::SimdTier::Scalar, 1);
    assert!(
        scalar.iter().all(|l| l.is_finite()),
        "scalar-tier run produced non-finite losses: {scalar:?}"
    );

    // The scalar tier vs the detected tier. On hardware without a vector
    // tier this compares the scalar tier against itself, which still pins
    // the finite-and-stable property.
    let vector = losses_once(Runtime::hardware().simd, 1);
    assert!(
        vector.iter().all(|l| l.is_finite()),
        "vector-tier run produced non-finite losses: {vector:?}"
    );
    for (step, (s, v)) in scalar.iter().zip(&vector).enumerate() {
        let diff = (s - v).abs() / (1.0 + s.abs());
        assert!(
            diff <= 5e-3,
            "loss {step} diverged across tiers: scalar {s} vs vector {v} (rel {diff:e})"
        );
    }
}

#[test]
fn training_bitwise_invariant_to_pool_size_within_each_tier() {
    use simd::SimdTier::{Avx2, Avx512, Scalar};
    let hardware = Runtime::hardware().simd;
    for tier in [Scalar, Avx2, Avx512]
        .into_iter()
        .filter(|&t| t <= hardware)
    {
        let reference: Vec<u64> = losses_once(tier, 1).iter().map(|l| l.to_bits()).collect();
        for threads in [2usize, 4] {
            let got: Vec<u64> = losses_once(tier, threads)
                .iter()
                .map(|l| l.to_bits())
                .collect();
            assert_eq!(
                reference, got,
                "{tier}: training losses changed between pool-of-1 and pool-of-{threads}"
            );
        }
    }
}
