//! Linear layers and multilayer perceptrons — the φ networks inside every
//! EGNN block.

use matgnn_tensor::rng::Rng;

use matgnn_tensor::{BlockPart, Exec, Tensor};

use crate::ParamSet;

/// Activation functions available between MLP layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// SiLU / swish (the default throughout the EGNN, as in Satorras et al.).
    Silu,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (no activation).
    None,
}

impl Activation {
    /// Applies the activation on any executor.
    pub fn apply<C: Exec>(self, cx: &mut C, x: C::V) -> C::V {
        match self {
            Activation::Silu => cx.silu(x),
            Activation::Relu => cx.relu(x),
            Activation::Tanh => cx.tanh(x),
            Activation::None => x,
        }
    }
}

/// Shape specification of a linear layer (used for parameter counting and
/// initialization without building tensors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearSpec {
    /// Input feature width.
    pub in_dim: usize,
    /// Output feature width.
    pub out_dim: usize,
}

impl LinearSpec {
    /// Scalar parameter count: weights plus bias.
    pub fn n_params(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }
}

/// A dense layer `y = x·W + b` whose parameters live in a shared
/// [`ParamSet`], referenced by index.
#[derive(Debug, Clone)]
pub struct Linear {
    weight_idx: usize,
    bias_idx: usize,
    spec: LinearSpec,
}

impl Linear {
    /// Creates the layer, registering Xavier-initialized weights (scaled by
    /// `gain`) and zero biases into `params` under `name`.
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        spec: LinearSpec,
        gain: f32,
        rng: &mut Rng,
    ) -> Self {
        let scale = gain * (6.0 / (spec.in_dim + spec.out_dim) as f32).sqrt();
        let weight = Tensor::rand_uniform((spec.in_dim, spec.out_dim), scale, rng);
        let bias = Tensor::zeros(spec.out_dim);
        let weight_idx = params.push(format!("{name}.weight"), weight);
        let bias_idx = params.push(format!("{name}.bias"), bias);
        Linear {
            weight_idx,
            bias_idx,
            spec,
        }
    }

    /// The layer's shape spec.
    pub fn spec(&self) -> LinearSpec {
        self.spec
    }

    /// Applies the layer: `pvars` must be the full binding of the owning
    /// [`ParamSet`], offset by `offset` if only a slice was bound.
    pub fn forward<C: Exec>(&self, cx: &mut C, pvars: &[C::V], offset: usize, x: &C::V) -> C::V {
        let y = cx.matmul(x, &pvars[self.weight_idx - offset]);
        cx.add_row(y, &pvars[self.bias_idx - offset])
    }
}

/// A stack of [`Linear`] layers with a hidden activation between them and
/// an optional final activation.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_act: Activation,
    final_act: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `&[8, 16, 1]` for
    /// `8 → 16 → 1`. The last layer's weights are scaled by `final_gain`
    /// (small values stabilize coordinate/force outputs).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are supplied.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        widths: &[usize],
        hidden_act: Activation,
        final_act: Activation,
        final_gain: f32,
        rng: &mut Rng,
    ) -> Self {
        assert!(
            widths.len() >= 2,
            "MLP needs at least input and output widths"
        );
        let mut layers = Vec::with_capacity(widths.len() - 1);
        for l in 0..widths.len() - 1 {
            let gain = if l == widths.len() - 2 {
                final_gain
            } else {
                1.0
            };
            layers.push(Linear::new(
                params,
                &format!("{name}.{l}"),
                LinearSpec {
                    in_dim: widths[l],
                    out_dim: widths[l + 1],
                },
                gain,
                rng,
            ));
        }
        Mlp {
            layers,
            hidden_act,
            final_act,
        }
    }

    /// Scalar parameter count of an MLP with these widths.
    pub fn count_params(widths: &[usize]) -> usize {
        widths
            .windows(2)
            .map(|w| {
                LinearSpec {
                    in_dim: w[0],
                    out_dim: w[1],
                }
                .n_params()
            })
            .sum()
    }

    /// Applies the MLP.
    pub fn forward<C: Exec>(&self, cx: &mut C, pvars: &[C::V], offset: usize, x: &C::V) -> C::V {
        let y = self.layers[0].forward(cx, pvars, offset, x);
        self.finish(cx, pvars, offset, y)
    }

    /// Applies the MLP to the column concatenation of `parts` without
    /// building it: the first layer is one [`Exec::block_linear`] over
    /// the row blocks of its weight, so a part gathered per edge is
    /// multiplied per node first.
    pub fn forward_blocks<C: Exec, const N: usize>(
        &self,
        cx: &mut C,
        pvars: &[C::V],
        offset: usize,
        parts: &[BlockPart<C::V>; N],
    ) -> C::V {
        let first = &self.layers[0];
        let y = cx.block_linear(
            parts,
            &pvars[first.weight_idx - offset],
            &pvars[first.bias_idx - offset],
        );
        self.finish(cx, pvars, offset, y)
    }

    /// The rest of the MLP after the first layer's affine map `y0`: its
    /// activation, then every later layer.
    fn finish<C: Exec>(&self, cx: &mut C, pvars: &[C::V], offset: usize, y0: C::V) -> C::V {
        let mut h = y0;
        let last = self.layers.len() - 1;
        for (l, layer) in self.layers.iter().enumerate() {
            if l > 0 {
                h = layer.forward(cx, pvars, offset, &h);
            }
            h = if l == last {
                self.final_act.apply(cx, h)
            } else {
                self.hidden_act.apply(cx, h)
            };
        }
        h
    }
}

/// Layer normalization over feature rows: `γ·(x − μ)/σ + β`, with learned
/// per-feature scale `γ` and shift `β` — the Transformer-lineage
/// stabilizer (one of the paper's "LLM-inspired techniques", applied here
/// to deep GNN feature updates).
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma_idx: usize,
    beta_idx: usize,
    dim: usize,
}

impl LayerNorm {
    /// Numerical floor inside the variance square root.
    pub const EPS: f32 = 1e-5;

    /// Creates a layer norm over `dim` features, registering `γ = 1` and
    /// `β = 0` into `params`.
    pub fn new(params: &mut ParamSet, name: &str, dim: usize) -> Self {
        let gamma_idx = params.push(format!("{name}.gamma"), Tensor::ones(dim));
        let beta_idx = params.push(format!("{name}.beta"), Tensor::zeros(dim));
        LayerNorm {
            gamma_idx,
            beta_idx,
            dim,
        }
    }

    /// Scalar parameter count (`2·dim`).
    pub fn count_params(dim: usize) -> usize {
        2 * dim
    }

    /// Applies the normalization row-wise.
    pub fn forward<C: Exec>(&self, cx: &mut C, pvars: &[C::V], offset: usize, x: C::V) -> C::V {
        let inv_m = 1.0 / self.dim as f32;
        let mean = cx.sum_axis1(&x);
        let mean = cx.scale(mean, inv_m);
        let neg_mean = cx.neg(mean);
        let centered = cx.add_col(x, &neg_mean);
        let sq = cx.square(centered.clone());
        let var = cx.sum_axis1(&sq);
        let var = cx.scale(var, inv_m);
        let var = cx.add_scalar(var, Self::EPS);
        let std = cx.sqrt(var);
        let inv_std = cx.recip(std);
        let normed = cx.mul_col(centered, &inv_std);
        let scaled = cx.mul_row(normed, &pvars[self.gamma_idx - offset]);
        cx.add_row(scaled, &pvars[self.beta_idx - offset])
    }
}

/// A deterministic RNG for weight initialization.
pub fn init_rng(seed: u64) -> Rng {
    Rng::seed_from_u64(seed)
}

/// Draws a fresh sub-seed (lets one model seed derive independent streams
/// for independent submodules).
pub fn sub_seed(rng: &mut Rng) -> u64 {
    rng.gen()
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgnn_tensor::Tape;

    #[test]
    fn linear_shapes_and_count() {
        let spec = LinearSpec {
            in_dim: 4,
            out_dim: 3,
        };
        assert_eq!(spec.n_params(), 15);
        let mut params = ParamSet::new();
        let mut rng = init_rng(1);
        let lin = Linear::new(&mut params, "l", spec, 1.0, &mut rng);
        assert_eq!(params.n_scalars(), 15);
        let mut tape = Tape::new();
        let pvars = params.bind(&mut tape);
        let x = tape.constant(Tensor::ones((5, 4)));
        let y = lin.forward(&mut tape, &pvars, 0, &x);
        assert_eq!(tape.shape(y).dims(), &[5, 3]);
    }

    #[test]
    fn mlp_count_matches_built() {
        let widths = [7, 16, 16, 1];
        let mut params = ParamSet::new();
        let mut rng = init_rng(2);
        let _ = Mlp::new(
            &mut params,
            "mlp",
            &widths,
            Activation::Silu,
            Activation::None,
            1.0,
            &mut rng,
        );
        assert_eq!(params.n_scalars(), Mlp::count_params(&widths));
    }

    #[test]
    fn mlp_forward_shape_and_determinism() {
        let mut params = ParamSet::new();
        let mut rng = init_rng(3);
        let mlp = Mlp::new(
            &mut params,
            "mlp",
            &[4, 8, 2],
            Activation::Silu,
            Activation::None,
            1.0,
            &mut rng,
        );
        let run = |params: &ParamSet| {
            let mut tape = Tape::new();
            let pvars = params.bind(&mut tape);
            let x = tape.constant(Tensor::ones((3, 4)));
            let y = mlp.forward(&mut tape, &pvars, 0, &x);
            tape.value(y).clone()
        };
        let y1 = run(&params);
        let y2 = run(&params);
        assert_eq!(y1.shape().dims(), &[3, 2]);
        assert!(y1.allclose(&y2, 0.0), "same params must give same output");
    }

    #[test]
    fn same_seed_same_init() {
        let build = |seed| {
            let mut params = ParamSet::new();
            let mut rng = init_rng(seed);
            let _ = Mlp::new(
                &mut params,
                "m",
                &[3, 5, 1],
                Activation::Relu,
                Activation::None,
                1.0,
                &mut rng,
            );
            params.flatten()
        };
        assert!(build(7).allclose(&build(7), 0.0));
        assert!(!build(7).allclose(&build(8), 1e-9));
    }

    #[test]
    fn final_gain_scales_last_layer() {
        let mut params = ParamSet::new();
        let mut rng = init_rng(5);
        let _ = Mlp::new(
            &mut params,
            "m",
            &[8, 8, 8],
            Activation::Silu,
            Activation::None,
            0.01,
            &mut rng,
        );
        // Last weight matrix is entry index 2*1 (weights at even indices).
        let first_w = params.tensor(0).max_abs();
        let last_w = params.tensor(2).max_abs();
        assert!(
            last_w < first_w * 0.1,
            "final gain not applied: {first_w} vs {last_w}"
        );
    }

    #[test]
    fn activations_apply() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(2usize, vec![-1.0, 1.0]).unwrap());
        let y = Activation::Relu.apply(&mut tape, x);
        assert_eq!(tape.value(y).data(), &[0.0, 1.0]);
        let z = Activation::None.apply(&mut tape, x);
        assert_eq!(z, x);
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let mut params = ParamSet::new();
        let ln = LayerNorm::new(&mut params, "ln", 6);
        assert_eq!(params.n_scalars(), LayerNorm::count_params(6));
        let mut tape = Tape::new();
        let pvars = params.bind(&mut tape);
        let mut rng = init_rng(9);
        let x = tape.constant(Tensor::randn((4, 6), 3.0, &mut rng));
        let y = ln.forward(&mut tape, &pvars, 0, x);
        let v = tape.value(y);
        for r in 0..4 {
            let row: Vec<f32> = (0..6).map(|c| v.get(r, c)).collect();
            let mean: f32 = row.iter().sum::<f32>() / 6.0;
            let var: f32 = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 6.0;
            assert!(mean.abs() < 1e-4, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row {r} var {var}");
        }
    }

    #[test]
    fn layer_norm_gradcheck() {
        use matgnn_tensor::gradcheck;
        let mut params = ParamSet::new();
        let ln = LayerNorm::new(&mut params, "ln", 4);
        let mut rng = init_rng(10);
        let x0 = Tensor::randn((3, 4), 1.0, &mut rng);
        let inputs: Vec<Tensor> = params
            .iter()
            .map(|e| e.tensor.clone())
            .chain(std::iter::once(x0))
            .collect();
        gradcheck::check_grad(
            &inputs,
            move |tape, vars| {
                let y = ln.forward(tape, &vars[..2], 0, vars[2]);
                let q = tape.square(y);
                tape.mean_all(q)
            },
            3e-2,
        );
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn mlp_too_few_widths_panics() {
        let mut params = ParamSet::new();
        let mut rng = init_rng(6);
        let _ = Mlp::new(
            &mut params,
            "m",
            &[3],
            Activation::Silu,
            Activation::None,
            1.0,
            &mut rng,
        );
    }
}
