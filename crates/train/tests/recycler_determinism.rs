//! End-to-end guarantee behind the buffer recycler: a full training run
//! produces bitwise-identical losses and final parameters whether tensor
//! buffers come from the size-bucketed free list or fresh from the
//! allocator. Runs at pool-of-2 so recycled buffers also cross worker
//! threads mid-run.

use matgnn_data::{Dataset, GeneratorConfig, Normalizer};
use matgnn_model::{Egnn, EgnnConfig, GnnModel};
use matgnn_tensor::Runtime;
use matgnn_train::{TrainConfig, Trainer};

fn run_once(recycler: bool) -> Vec<u64> {
    let _rt = Runtime::current()
        .with_threads(2)
        .with_recycler(recycler)
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
    let mut bits: Vec<u64> = report
        .epochs
        .iter()
        .flat_map(|e| [e.train_loss.to_bits(), e.test_loss.unwrap_or(0.0).to_bits()])
        .collect();
    bits.extend(
        model
            .params()
            .flatten()
            .data()
            .iter()
            .map(|x| u64::from(x.to_bits())),
    );
    bits
}

#[test]
fn training_bitwise_identical_recycler_on_vs_off() {
    let fresh = run_once(false);
    let recycled = run_once(true);
    assert_eq!(
        fresh, recycled,
        "training diverged between recycler off and on"
    );
}
