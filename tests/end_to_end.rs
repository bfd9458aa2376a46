//! End-to-end pipeline tests spanning data → store → model → training →
//! evaluation.

use matgnn::prelude::*;

fn pipeline_data() -> (Dataset, Dataset, Normalizer) {
    let gen = GeneratorConfig::default();
    let (train, test) = Dataset::generate_split(80, 0.2, 99, &gen);
    let norm = Normalizer::fit(&train);
    (train, test, norm)
}

#[test]
fn training_beats_untrained_baseline() {
    let (train, test, norm) = pipeline_data();
    let loss_cfg = LossConfig::default();
    let mut model = Egnn::new(EgnnConfig::with_target_params(5_000, 3).with_seed(2));
    let before = evaluate(&model, &test, &norm, &loss_cfg, 8);
    let report = Trainer::new(TrainConfig {
        epochs: 5,
        batch_size: 8,
        ..Default::default()
    })
    .fit(&mut model, &train, Some(&test), &norm);
    let after = report.final_eval.expect("test set");
    // Five epochs on 64 graphs takes this seeded model from ~30.4 to
    // ~25.3 test loss (ratio 0.83): the force term dominates the loss
    // and shrinks slowly at this scale, so halving the loss is not a
    // realistic bar. Gate at 0.9x — ~8% slack over the measured ratio,
    // while still failing if training stops helping at all.
    assert!(
        after.loss < 0.9 * before.loss,
        "training barely helped: {} → {}",
        before.loss,
        after.loss
    );
    assert!(after.energy_mae < before.energy_mae);
}

#[test]
fn store_roundtrip_preserves_training_behaviour() {
    // Samples that pass through the DDStore-substitute shards must train
    // to the same losses as the originals.
    let (train, _, norm) = pipeline_data();
    let store = DistributedStore::new(&train, 16, 2);
    let mut recovered = Vec::new();
    for shard in 0..store.n_shards() {
        recovered.extend(store.fetch(store.owner_of(shard), shard).expect("decode"));
    }
    let recovered = Dataset::from_samples(recovered);
    assert_eq!(recovered.len(), train.len());

    let run = |ds: &Dataset| {
        let mut model = Egnn::new(EgnnConfig::new(8, 2).with_seed(3));
        Trainer::new(TrainConfig {
            epochs: 1,
            batch_size: 8,
            ..Default::default()
        })
        .fit(&mut model, ds, None, &norm)
        .epochs[0]
            .train_loss
    };
    let a = run(&train);
    let b = run(&recovered);
    // Edge vectors round-trip through f32, so allow a small wobble.
    assert!((a - b).abs() < 1e-3 * (1.0 + a.abs()), "{a} vs {b}");
}

#[test]
fn checkpointed_training_converges_like_vanilla() {
    let (train, test, norm) = pipeline_data();
    let run = |checkpointing: bool| {
        let mut model = Egnn::new(EgnnConfig::new(10, 3).with_seed(4));
        let report = Trainer::new(TrainConfig {
            epochs: 3,
            batch_size: 8,
            checkpointing,
            ..Default::default()
        })
        .fit(&mut model, &train, Some(&test), &norm);
        report.final_loss()
    };
    let vanilla = run(false);
    let ckpt = run(true);
    // Identical gradients ⇒ identical trajectory up to f32 noise.
    assert!(
        (vanilla - ckpt).abs() < 1e-3 * (1.0 + vanilla.abs()),
        "checkpointed {ckpt} vs vanilla {vanilla}"
    );
}

#[test]
fn rbf_layernorm_variant_trains_end_to_end() {
    // The full-featured EGNN (RBF distances + LayerNorm + residual) must
    // train at least as stably as the plain one.
    let (train, test, norm) = pipeline_data();
    let run = |cfg: EgnnConfig| {
        let mut model = Egnn::new(cfg.with_seed(12));
        Trainer::new(TrainConfig {
            epochs: 4,
            batch_size: 8,
            ..Default::default()
        })
        .fit(&mut model, &train, Some(&test), &norm)
        .final_loss()
    };
    let plain = run(EgnnConfig::new(10, 3));
    let featured = run(EgnnConfig::new(10, 3)
        .with_rbf(8)
        .with_layer_norm(true)
        .with_residual(true));
    assert!(featured.is_finite() && plain.is_finite());
    assert!(
        featured < plain * 1.3,
        "full-featured variant unexpectedly worse: {featured} vs {plain}"
    );
}

#[test]
fn checkpoint_roundtrip_preserves_trained_quality() {
    // Train → save → load in a fresh model → identical evaluation.
    let (train, test, norm) = pipeline_data();
    let mut model = Egnn::new(EgnnConfig::with_target_params(5_000, 3).with_seed(13));
    let _ = Trainer::new(TrainConfig {
        epochs: 3,
        batch_size: 8,
        ..Default::default()
    })
    .fit(&mut model, &train, None, &norm);
    let before = evaluate(&model, &test, &norm, &LossConfig::default(), 8);

    let bytes = egnn_to_bytes(&model);
    let loaded = egnn_from_bytes(&bytes).expect("reload");
    let after = evaluate(&loaded, &test, &norm, &LossConfig::default(), 8);
    assert_eq!(before.loss, after.loss, "checkpoint changed predictions");
    assert_eq!(before.force_mae, after.force_mae);
}

#[test]
fn dirstore_feeds_training_identically() {
    // Dataset → directory shards → reload → same first-epoch loss.
    let (train, _, norm) = pipeline_data();
    let dir = std::env::temp_dir().join(format!("matgnn_e2e_dir_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = matgnn::data::DirStore::write(&train, &dir, 16).expect("write shards");
    let reloaded = store.load_all().expect("reload shards");

    let run = |ds: &Dataset| {
        let mut model = Egnn::new(EgnnConfig::new(8, 2).with_seed(14));
        Trainer::new(TrainConfig {
            epochs: 1,
            batch_size: 8,
            ..Default::default()
        })
        .fit(&mut model, ds, None, &norm)
        .epochs[0]
            .train_loss
    };
    let a = run(&train);
    let b = run(&reloaded);
    // Edge vectors round-trip through f32; allow that much.
    assert!((a - b).abs() < 1e-3 * (1.0 + a.abs()), "{a} vs {b}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn biased_subset_generalizes_worse_than_stratified() {
    // The Fig. 4 mechanism, end to end: a source-skewed subset (all
    // organic molecules) yields higher test loss on the mixed test set
    // than a stratified subset of the same size. This exercises the
    // distribution-mismatch effect directly; `subsample_tb` applies a
    // softened (60/40) version of the same skew at 0.1 TB.
    let gen = GeneratorConfig::default();
    let aggregate = Dataset::generate_aggregate(240, 5, &gen);
    let (train, test) = aggregate.split_test(0.2, 5);
    let norm = Normalizer::fit(&train);

    // Purely organic prefix (the maximal bias).
    let organics: Vec<Sample> = train
        .samples()
        .iter()
        .filter(|s| matches!(s.source, SourceKind::Ani1x | SourceKind::Qm7x))
        .take(20)
        .cloned()
        .collect();
    let biased = Dataset::from_samples(organics);
    // A stratified subset of the same size.
    let stratified = {
        let (keep, _) = train.split_test(1.0 - biased.len() as f64 / train.len() as f64, 2);
        keep
    };
    assert!(
        (stratified.len() as i64 - biased.len() as i64).abs() <= 3,
        "sizes must match: {} vs {}",
        stratified.len(),
        biased.len()
    );

    let run = |ds: &Dataset| {
        let mut model = Egnn::new(EgnnConfig::new(10, 3).with_seed(6));
        Trainer::new(TrainConfig {
            epochs: 4,
            batch_size: 8,
            ..Default::default()
        })
        .fit(&mut model, ds, None, &norm);
        evaluate(&model, &test, &norm, &LossConfig::default(), 8).loss
    };
    let biased_loss = run(&biased);
    let stratified_loss = run(&stratified);
    assert!(
        biased_loss > stratified_loss,
        "expected distribution mismatch to hurt: biased {biased_loss} vs stratified {stratified_loss}"
    );
}
