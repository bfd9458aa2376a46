//! End-to-end guarantee behind PR 1's bitwise checkpoint/resume: a full
//! training run produces bitwise-identical losses no matter how many
//! workers the compute pool uses. The model is sized so the EGNN matmuls
//! clear the kernel parallel threshold and genuinely exercise the pooled
//! code paths.

use matgnn_data::{Dataset, GeneratorConfig, Normalizer};
use matgnn_model::{Egnn, EgnnConfig};
use matgnn_tensor::Runtime;
use matgnn_train::{TrainConfig, Trainer};

fn losses_once(threads: usize) -> Vec<u64> {
    let _rt = Runtime::current().with_threads(threads).enter();
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
        .flat_map(|e| [e.train_loss.to_bits(), e.test_loss.unwrap_or(0.0).to_bits()])
        .collect()
}

#[test]
fn training_losses_bitwise_identical_across_pool_sizes() {
    let serial = losses_once(1);
    let pooled = losses_once(4);
    assert_eq!(
        serial, pooled,
        "training diverged between pool-of-1 and pool-of-4"
    );
}
