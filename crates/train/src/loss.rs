//! Training objectives: weighted energy + force regression.
//!
//! Following the paper's task definition (Sec. III-A), the loss combines a
//! graph-level energy term with a node-level force term. Energies are
//! compared **per atom** in normalized space (see
//! [`matgnn_data::Normalizer`]); forces in normalized components.

use matgnn_data::Targets;
use matgnn_graph::GraphBatch;
use matgnn_model::ModelOutput;
use matgnn_tensor::Exec;

/// The pointwise regression penalty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossKind {
    /// Mean squared error.
    Mse,
    /// Mean absolute error (smoothed as `√(x² + ε²)` so the gradient is
    /// defined everywhere).
    Mae,
    /// Pseudo-Huber with transition scale `delta`: quadratic near zero,
    /// linear in the tails — robust to the occasional high-force frame.
    Huber {
        /// Transition scale between quadratic and linear regimes.
        delta: f32,
    },
}

/// Loss configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossConfig {
    /// Weight of the graph-level energy term.
    pub energy_weight: f32,
    /// Weight of the node-level force term.
    pub force_weight: f32,
    /// The pointwise penalty.
    pub kind: LossKind,
}

impl Default for LossConfig {
    fn default() -> Self {
        LossConfig {
            energy_weight: 1.0,
            force_weight: 1.0,
            kind: LossKind::Mse,
        }
    }
}

impl LossConfig {
    /// Builds the scalar loss on an executor: recorded on the tape when
    /// training, computed directly (`NoTape`) when evaluating, with the
    /// same bits either way.
    ///
    /// The model's extensive energy output is divided by each graph's atom
    /// count so it is compared in the normalized per-atom space of the
    /// targets.
    pub fn compute<E: Exec>(
        &self,
        ex: &mut E,
        output: ModelOutput<E::V>,
        batch: &GraphBatch,
        targets: &Targets,
    ) -> E::V {
        let inv_counts = ex.constant(batch.inv_node_counts());
        let pred_per_atom = ex.mul_col(output.energy, &inv_counts);
        let e_target = ex.constant(targets.energy.clone());
        let e_err = ex.sub(pred_per_atom, &e_target);
        let e_loss = self.pointwise(ex, e_err);

        let f_target = ex.constant(targets.forces.clone());
        let f_err = ex.sub(output.forces, &f_target);
        let f_loss = self.pointwise(ex, f_err);

        let e_term = ex.scale(e_loss, self.energy_weight);
        let f_term = ex.scale(f_loss, self.force_weight);
        ex.add(e_term, &f_term)
    }

    fn pointwise<E: Exec>(&self, ex: &mut E, err: E::V) -> E::V {
        let per_element = match self.kind {
            LossKind::Mse => ex.square(err),
            LossKind::Mae => {
                const EPS2: f32 = 1e-12;
                let sq = ex.square(err);
                let shifted = ex.add_scalar(sq, EPS2);
                ex.sqrt(shifted)
            }
            LossKind::Huber { delta } => {
                // δ²(√(1 + (x/δ)²) − 1)
                let scaled = ex.scale(err, 1.0 / delta);
                let sq = ex.square(scaled);
                let shifted = ex.add_scalar(sq, 1.0);
                let root = ex.sqrt(shifted);
                let minus1 = ex.add_scalar(root, -1.0);
                ex.scale(minus1, delta * delta)
            }
        };
        ex.mean_all(&per_element)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgnn_data::{Dataset, GeneratorConfig, Normalizer};
    use matgnn_model::{Egnn, EgnnConfig, FrozenEgnn, GnnModel};
    use matgnn_tensor::{NoTape, Tape, Tensor};

    fn setup() -> (GraphBatch, Targets, Egnn) {
        let ds = Dataset::generate_aggregate(6, 3, &GeneratorConfig::default());
        let norm = Normalizer::fit(&ds);
        let samples: Vec<&matgnn_data::Sample> = ds.samples().iter().collect();
        let (batch, targets) = matgnn_data::collate(&samples, &norm);
        (batch, targets, Egnn::new(EgnnConfig::new(8, 2)))
    }

    #[test]
    fn loss_is_finite_scalar() {
        let (batch, targets, model) = setup();
        let mut tape = Tape::new();
        let (_, out) = model.bind_and_forward(&mut tape, &batch);
        let loss = LossConfig::default().compute(&mut tape, out, &batch, &targets);
        let v = tape.value(loss).item();
        assert!(v.is_finite() && v >= 0.0, "loss {v}");
    }

    /// One loss, two executors: `NoTape` gives the tape's bits for every
    /// penalty, whether it may overwrite its inputs or must copy them.
    #[test]
    fn no_tape_loss_equals_tape_loss_bitwise() {
        let (batch, targets, model) = setup();
        let (energy, forces) = FrozenEgnn::freeze(&model).predict(&batch);
        let owned = |t: &Tensor| Tensor::from_vec(t.shape().clone(), t.to_vec()).unwrap();
        for kind in [LossKind::Mse, LossKind::Mae, LossKind::Huber { delta: 0.5 }] {
            let cfg = LossConfig {
                energy_weight: 1.0,
                force_weight: 0.7,
                kind,
            };
            let mut tape = Tape::new();
            let out = ModelOutput {
                energy: tape.param(energy.clone()),
                forces: tape.param(forces.clone()),
            };
            let recorded = cfg.compute(&mut tape, out, &batch, &targets);
            let want = tape.value(recorded).item().to_bits();
            for out in [
                ModelOutput {
                    energy: owned(&energy),
                    forces: owned(&forces),
                },
                ModelOutput {
                    energy: energy.clone(),
                    forces: forces.clone(),
                },
            ] {
                let plain = cfg.compute(&mut NoTape, out, &batch, &targets);
                assert_eq!(plain.item().to_bits(), want, "{kind:?}");
            }
        }
    }

    #[test]
    fn perfect_prediction_gives_zero_mse() {
        // Feed the targets back as predictions via constants.
        let (batch, targets, _) = setup();
        let mut tape = Tape::new();
        // Energy output must be extensive: per-atom target × atom count.
        let counts: Vec<f32> = batch.node_counts().iter().map(|&c| c as f32).collect();
        let counts = Tensor::from_vec((batch.n_graphs(), 1), counts).unwrap();
        let extensive = targets.energy.mul(&counts);
        let e = tape.param(extensive);
        let f = tape.param(targets.forces.clone());
        let out = ModelOutput {
            energy: e,
            forces: f,
        };
        let loss = LossConfig::default().compute(&mut tape, out, &batch, &targets);
        assert!(tape.value(loss).item().abs() < 1e-10);
    }

    #[test]
    fn huber_below_mse_for_large_errors() {
        let (batch, targets, model) = setup();
        let eval = |cfg: LossConfig| {
            let mut tape = Tape::new();
            let (_, out) = model.bind_and_forward(&mut tape, &batch);
            let loss = cfg.compute(&mut tape, out, &batch, &targets);
            tape.value(loss).item()
        };
        let mse = eval(LossConfig {
            kind: LossKind::Mse,
            ..Default::default()
        });
        let huber = eval(LossConfig {
            kind: LossKind::Huber { delta: 0.1 },
            ..Default::default()
        });
        // An untrained model has large errors; Huber grows linearly there.
        assert!(huber < mse, "huber {huber} !< mse {mse}");
    }

    #[test]
    fn mae_matches_mean_absolute_error() {
        // Feed a constant-error prediction and check MAE numerically.
        let (batch, targets, _) = setup();
        let mut tape = Tape::new();
        let counts: Vec<f32> = batch.node_counts().iter().map(|&c| c as f32).collect();
        let counts = Tensor::from_vec((batch.n_graphs(), 1), counts).unwrap();
        // Per-atom energy off by exactly +0.5; forces off by −0.25.
        let extensive = targets.energy.add_scalar(0.5).mul(&counts);
        let e = tape.param(extensive);
        let f = tape.param(targets.forces.add_scalar(-0.25));
        let out = ModelOutput {
            energy: e,
            forces: f,
        };
        let cfg = LossConfig {
            kind: LossKind::Mae,
            ..Default::default()
        };
        let loss = cfg.compute(&mut tape, out, &batch, &targets);
        // MAE = 0.5 (energy term) + 0.25 (force term).
        assert!((tape.value(loss).item() - 0.75).abs() < 1e-4);
    }

    #[test]
    fn mae_is_differentiable_at_zero_error() {
        let (batch, targets, _) = setup();
        let mut tape = Tape::new();
        let counts: Vec<f32> = batch.node_counts().iter().map(|&c| c as f32).collect();
        let counts = Tensor::from_vec((batch.n_graphs(), 1), counts).unwrap();
        let e = tape.param(targets.energy.mul(&counts));
        let f = tape.param(targets.forces.clone());
        let out = ModelOutput {
            energy: e,
            forces: f,
        };
        let cfg = LossConfig {
            kind: LossKind::Mae,
            ..Default::default()
        };
        let loss = cfg.compute(&mut tape, out, &batch, &targets);
        let grads = tape.backward(loss);
        assert!(grads.get(e).expect("grad").is_finite());
        assert!(grads.get(f).expect("grad").is_finite());
    }

    #[test]
    fn weights_scale_terms() {
        let (batch, targets, model) = setup();
        let eval = |ew: f32, fw: f32| {
            let mut tape = Tape::new();
            let (_, out) = model.bind_and_forward(&mut tape, &batch);
            let loss = LossConfig {
                energy_weight: ew,
                force_weight: fw,
                kind: LossKind::Mse,
            }
            .compute(&mut tape, out, &batch, &targets);
            tape.value(loss).item()
        };
        let both = eval(1.0, 1.0);
        let e_only = eval(1.0, 0.0);
        let f_only = eval(0.0, 1.0);
        assert!((both - (e_only + f_only)).abs() < 1e-5 * both.max(1.0));
    }

    #[test]
    fn loss_is_differentiable() {
        let (batch, targets, model) = setup();
        let mut tape = Tape::new();
        let (pvars, out) = model.bind_and_forward(&mut tape, &batch);
        let loss = LossConfig {
            kind: LossKind::Huber { delta: 0.5 },
            ..Default::default()
        }
        .compute(&mut tape, out, &batch, &targets);
        let grads = tape.backward(loss);
        let n_with_grad = pvars.iter().filter(|&&v| grads.get(v).is_some()).count();
        assert_eq!(
            n_with_grad,
            pvars.len(),
            "some parameters received no gradient"
        );
    }
}
