//! Engine-vs-tape parity on checkpoints round-tripped through MGTC
//! save/load, swept across SIMD tiers and worker-pool sizes.

use matgnn_data::Normalizer;
use matgnn_graph::{AtomicStructure, Element, GraphBatch, MolGraph};
use matgnn_model::{Egnn, EgnnConfig, GnnModel, ParamSet};
use matgnn_serve::InferenceEngine;
use matgnn_tensor::{simd, Runtime, Tape};
use matgnn_train::{AdamState, TrainCheckpoint};

/// Tolerance for cross-tier drift: each SIMD tier has its own
/// transcendental kernels, so two tiers agree to rounding, not bits.
/// Within one tier the frozen forward runs the tape's arithmetic in the
/// tape's order and matches it bitwise.
const TAPE_TOL: f32 = 1e-4;

fn chain(n: usize, spacing: f64) -> MolGraph {
    let species = (0..n)
        .map(|i| if i % 3 == 0 { Element::O } else { Element::C })
        .collect();
    let positions = (0..n)
        .map(|i| [i as f64 * spacing, 0.1 * (i % 2) as f64, 0.0])
        .collect();
    let s = AtomicStructure::new(species, positions).unwrap();
    MolGraph::from_structure(&s, 1.8)
}

fn test_batch() -> GraphBatch {
    let graphs = [chain(5, 1.2), chain(9, 1.1), chain(3, 1.4)];
    let refs: Vec<&MolGraph> = graphs.iter().collect();
    GraphBatch::from_graphs(&refs)
}

fn checkpoint_for(model: &Egnn) -> TrainCheckpoint {
    let params: ParamSet = model.params().iter().cloned().collect();
    let n = params.n_scalars();
    TrainCheckpoint {
        epoch: 2,
        step_in_epoch: 3,
        global_step: 41,
        seed: 13,
        loss_acc: 1.5,
        loss_count: 3,
        params,
        adam: AdamState {
            m: vec![0.01; n],
            v: vec![0.02; n],
            t: 41,
        },
        normalizer: Normalizer {
            energy_mean: -2.0,
            energy_std: 0.5,
            force_std: 1.5,
            source_offset: [0.1, -0.1, 0.0, 0.2, 0.0],
        },
    }
}

/// Saves to MGTC under `target/` and loads the engine back.
fn roundtrip(model: &Egnn, tag: &str) -> InferenceEngine {
    let dir = std::path::Path::new("target").join("serve-tests");
    std::fs::create_dir_all(&dir).expect("create target/serve-tests");
    let path = dir.join(format!("{tag}-{}.mgtc", std::process::id()));
    let ckpt = checkpoint_for(model);
    ckpt.save(&path).expect("save MGTC");
    let engine = InferenceEngine::load_mgtc(&path, *model.config()).expect("load MGTC");
    let _ = std::fs::remove_file(&path);
    engine
}

fn tape_forward(model: &Egnn, batch: &GraphBatch) -> (Vec<f32>, Vec<f32>) {
    let mut tape = Tape::new();
    let (_, out) = model.bind_and_forward(&mut tape, batch);
    (
        tape.value(out.energy).data().to_vec(),
        tape.value(out.forces).data().to_vec(),
    )
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

fn configs() -> Vec<EgnnConfig> {
    vec![
        EgnnConfig::new(16, 2).with_seed(3),
        EgnnConfig::new(12, 3)
            .with_seed(4)
            .with_update_coords(true)
            .with_edge_gate(true),
        EgnnConfig::new(8, 2)
            .with_seed(5)
            .with_layer_norm(true)
            .with_rbf(8),
    ]
}

#[test]
fn roundtripped_engine_matches_tape_across_simd_tiers() {
    let batch = test_batch();
    for config in configs() {
        let model = Egnn::new(config);
        let engine = roundtrip(&model, "tiers");
        let mut per_tier = Vec::new();
        for tier in [
            simd::SimdTier::Scalar,
            simd::SimdTier::Avx2,
            simd::SimdTier::Avx512,
        ] {
            let _rt = Runtime::current().with_simd(tier).enter();
            let (te, tf) = tape_forward(&model, &batch);
            let (fe, ff) = engine.predict_raw(&batch);
            assert!(
                bits(&te) == bits(fe.data()) && bits(&tf) == bits(ff.data()),
                "frozen-vs-tape parity broke on tier {tier:?} for {:?}",
                model.config().summary()
            );
            per_tier.push((tier, fe, ff));
        }
        // Vector tiers clamp to hardware, so any two resolved tiers must
        // stay within transcendental-kernel rounding of each other.
        let (_, e0, f0) = &per_tier[0];
        for (tier, e, f) in &per_tier[1..] {
            assert!(
                max_abs_diff(e0.data(), e.data()) <= TAPE_TOL
                    && max_abs_diff(f0.data(), f.data()) <= TAPE_TOL,
                "cross-tier drift on {tier:?}"
            );
        }
    }
}

#[test]
fn roundtripped_engine_is_bitwise_across_pool_sizes() {
    let batch = test_batch();
    for config in configs() {
        let model = Egnn::new(config);
        let engine = roundtrip(&model, "pools");
        let predict_on = |threads| {
            let _rt = Runtime::current().with_threads(threads).enter();
            engine.predict_raw(&batch)
        };
        let (e1, f1) = predict_on(1);
        for threads in [2, 4] {
            let (e, f) = predict_on(threads);
            assert_eq!(e1, e, "energies drift at pool {threads}");
            assert_eq!(f1, f, "forces drift at pool {threads}");
        }
    }
}

#[test]
fn roundtripped_engine_is_bitwise_vs_direct_freeze() {
    let batch = test_batch();
    for config in configs() {
        let model = Egnn::new(config);
        let loaded = roundtrip(&model, "direct");
        let norm = *loaded.normalizer();
        let direct = InferenceEngine::from_model(&model, norm);
        let (e1, f1) = loaded.predict_raw(&batch);
        let (e2, f2) = direct.predict_raw(&batch);
        assert_eq!(e1, e2);
        assert_eq!(f1, f2);
        // Physical-unit path too: same normalizer, same predictions.
        assert_eq!(loaded.predict(&batch), direct.predict(&batch));
    }
}
