//! Optimizers: SGD with momentum and Adam, with optimizer-state memory
//! accounting.
//!
//! The paper's Fig. 6 identifies Adam's moment vectors (2× the weight
//! bytes) as the second-largest peak-memory contributor; the constructors
//! here register exactly those bytes with the [`MemoryTracker`] so the
//! profiled breakdown reflects real buffers, and the ZeRO implementation
//! in `matgnn-dist` reuses [`adam_update`] on per-rank shards.

use matgnn_model::ParamSet;
use matgnn_tensor::{pool, simd, MemoryCategory, MemoryTracker, Tensor};

/// Element count below which [`adam_update`] stays serial (pool dispatch
/// costs more than the update for small parameters).
const ADAM_PAR_MIN: usize = 1 << 16;

/// Adam hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamHyper {
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator stabilizer.
    pub eps: f32,
    /// Decoupled weight decay (AdamW); 0 disables.
    pub weight_decay: f32,
}

impl Default for AdamHyper {
    fn default() -> Self {
        AdamHyper {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// One Adam step on a flat slice: updates `param` in place from `grad`,
/// maintaining moments `m` / `v` at timestep `t` (1-based).
///
/// Exposed so ZeRO sharding can update only the slice a rank owns. Large
/// parameters are split across the worker pool by element range, and the
/// update itself runs in the fused [`simd::adam_slice`] kernel, whose
/// moment updates are fused multiply-adds on every SIMD tier. It is purely
/// elementwise, so the result is bitwise identical to the serial path at
/// any thread count and on any tier.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn adam_update(
    param: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    t: u64,
    lr: f32,
    hyper: &AdamHyper,
) {
    assert!(t >= 1, "adam timestep is 1-based");
    assert_eq!(param.len(), grad.len());
    assert_eq!(param.len(), m.len());
    assert_eq!(param.len(), v.len());
    let n = param.len();
    let args = simd::AdamSliceArgs {
        beta1: hyper.beta1,
        beta2: hyper.beta2,
        bc1: 1.0 - hyper.beta1.powi(t as i32),
        bc2: 1.0 - hyper.beta2.powi(t as i32),
        lr,
        eps: hyper.eps,
        weight_decay: hyper.weight_decay,
    };
    if n >= ADAM_PAR_MIN && pool::num_threads() > 1 {
        let pp = pool::SendPtr::new(param);
        let mp = pool::SendPtr::new(m);
        let vp = pool::SendPtr::new(v);
        pool::parallel_ranges(n, 1, |r| {
            // SAFETY: `parallel_ranges` hands out disjoint ranges, applied
            // identically to all three buffers, and the borrows outlive
            // the (blocking) call.
            unsafe {
                simd::adam_slice(
                    pp.slice(r.clone()),
                    &grad[r.clone()],
                    mp.slice(r.clone()),
                    vp.slice(r),
                    &args,
                )
            };
        });
    } else {
        simd::adam_slice(param, grad, m, v, &args);
    }
}

/// A first-order optimizer over a [`ParamSet`].
pub trait Optimizer {
    /// Applies one update step. `grads` must align with the param set
    /// (same order, same shapes).
    fn step(&mut self, params: &mut ParamSet, grads: &[Tensor], lr: f32);

    /// Bytes of persistent optimizer state.
    fn state_bytes(&self) -> u64;

    /// Short description for logs.
    fn describe(&self) -> String;
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug)]
pub struct Sgd {
    momentum: f32,
    velocity: Vec<Tensor>,
    tracker: Option<MemoryTracker>,
}

impl Sgd {
    /// Creates SGD matching `params`' shapes. `momentum` of 0 disables the
    /// velocity buffers (and their memory cost).
    pub fn new(params: &ParamSet, momentum: f32, tracker: Option<MemoryTracker>) -> Self {
        let velocity = if momentum > 0.0 {
            params
                .iter()
                .map(|e| Tensor::zeros(e.tensor.shape().clone()))
                .collect()
        } else {
            Vec::new()
        };
        let me = Sgd {
            momentum,
            velocity,
            tracker,
        };
        if let Some(t) = &me.tracker {
            t.alloc(MemoryCategory::OptimizerState, me.state_bytes());
        }
        me
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut ParamSet, grads: &[Tensor], lr: f32) {
        assert_eq!(grads.len(), params.len(), "gradient/param count mismatch");
        let momentum = self.momentum;
        for (i, entry) in params.iter_mut().enumerate() {
            if momentum > 0.0 {
                self.velocity[i].zip_assign(&grads[i], |v, g| momentum * v + g);
                entry.tensor.axpy(-lr, &self.velocity[i]);
            } else {
                entry.tensor.axpy(-lr, &grads[i]);
            }
        }
    }

    fn state_bytes(&self) -> u64 {
        self.velocity.iter().map(|t| t.bytes() as u64).sum()
    }

    fn describe(&self) -> String {
        format!("sgd(momentum={})", self.momentum)
    }
}

impl Drop for Sgd {
    fn drop(&mut self) {
        if let Some(t) = &self.tracker {
            t.free(MemoryCategory::OptimizerState, self.state_bytes());
        }
    }
}

/// The Adam optimizer (Kingma & Ba) with optional decoupled weight decay.
#[derive(Debug)]
pub struct Adam {
    hyper: AdamHyper,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: u64,
    tracker: Option<MemoryTracker>,
}

impl Adam {
    /// Creates Adam state matching `params`' shapes, registering its two
    /// moment buffers (2× weight bytes) with the tracker.
    pub fn new(params: &ParamSet, hyper: AdamHyper, tracker: Option<MemoryTracker>) -> Self {
        let m: Vec<Tensor> = params
            .iter()
            .map(|e| Tensor::zeros(e.tensor.shape().clone()))
            .collect();
        let v = m.clone();
        let me = Adam {
            hyper,
            m,
            v,
            t: 0,
            tracker,
        };
        if let Some(t) = &me.tracker {
            t.alloc(MemoryCategory::OptimizerState, me.state_bytes());
        }
        me
    }

    /// The hyperparameters in use.
    pub fn hyper(&self) -> &AdamHyper {
        &self.hyper
    }

    /// Steps taken so far.
    pub fn timestep(&self) -> u64 {
        self.t
    }

    /// Snapshots the moment buffers (flattened in parameter order) and
    /// timestep for checkpointing.
    pub fn export_state(&self) -> AdamState {
        let flatten = |ts: &[Tensor]| ts.iter().flat_map(|t| t.data().iter().copied()).collect();
        AdamState {
            m: flatten(&self.m),
            v: flatten(&self.v),
            t: self.t,
        }
    }

    /// Restores moments and timestep from [`export_state`](Self::export_state)
    /// output. Exact inverse: a restored optimizer continues bitwise
    /// identically.
    ///
    /// # Panics
    ///
    /// Panics if the flattened state length does not match this
    /// optimizer's parameter layout.
    pub fn restore_state(&mut self, state: &AdamState) {
        let unflatten = |ts: &mut [Tensor], flat: &[f32]| {
            let total: usize = ts.iter().map(|t| t.numel()).sum();
            assert_eq!(flat.len(), total, "adam state length mismatch");
            let mut offset = 0;
            for t in ts.iter_mut() {
                let n = t.numel();
                t.data_mut().copy_from_slice(&flat[offset..offset + n]);
                offset += n;
            }
        };
        unflatten(&mut self.m, &state.m);
        unflatten(&mut self.v, &state.v);
        self.t = state.t;
    }
}

/// Flattened Adam moments and timestep, as stored in train checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// First moments, concatenated in parameter order.
    pub m: Vec<f32>,
    /// Second moments, concatenated in parameter order.
    pub v: Vec<f32>,
    /// Steps taken (1-based after the first step).
    pub t: u64,
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut ParamSet, grads: &[Tensor], lr: f32) {
        assert_eq!(grads.len(), params.len(), "gradient/param count mismatch");
        self.t += 1;
        for (i, entry) in params.iter_mut().enumerate() {
            adam_update(
                entry.tensor.data_mut(),
                grads[i].data(),
                self.m[i].data_mut(),
                self.v[i].data_mut(),
                self.t,
                lr,
                &self.hyper,
            );
        }
    }

    fn state_bytes(&self) -> u64 {
        self.m
            .iter()
            .chain(self.v.iter())
            .map(|t| t.bytes() as u64)
            .sum()
    }

    fn describe(&self) -> String {
        format!(
            "adam(b1={}, b2={}, wd={})",
            self.hyper.beta1, self.hyper.beta2, self.hyper.weight_decay
        )
    }
}

impl Drop for Adam {
    fn drop(&mut self) {
        if let Some(t) = &self.tracker {
            t.free(MemoryCategory::OptimizerState, self.state_bytes());
        }
    }
}

/// Scales `grads` in place so their global L2 norm is at most `max_norm`;
/// returns the pre-clip norm.
pub fn clip_grad_norm(grads: &mut [Tensor], max_norm: f32) -> f32 {
    let total: f32 = grads.iter().map(|g| g.norm_sq()).sum();
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grads.iter_mut() {
            g.scale_in_place(scale);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_params() -> ParamSet {
        let mut p = ParamSet::new();
        p.push("x", Tensor::from_vec(2usize, vec![5.0, -3.0]).unwrap());
        p
    }

    /// Gradient of f(x) = ½‖x‖²  is x itself.
    fn grad_of(params: &ParamSet) -> Vec<Tensor> {
        vec![params.tensor(0).clone()]
    }

    #[test]
    fn sgd_descends_quadratic() {
        let mut params = quadratic_params();
        let mut opt = Sgd::new(&params, 0.0, None);
        for _ in 0..50 {
            let g = grad_of(&params);
            opt.step(&mut params, &g, 0.1);
        }
        assert!(params.tensor(0).max_abs() < 0.1);
    }

    #[test]
    fn sgd_momentum_faster_than_plain_on_quadratic() {
        let run = |momentum: f32| {
            let mut params = quadratic_params();
            let mut opt = Sgd::new(&params, momentum, None);
            for _ in 0..20 {
                let g = grad_of(&params);
                opt.step(&mut params, &g, 0.05);
            }
            params.tensor(0).max_abs()
        };
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut params = quadratic_params();
        let mut opt = Adam::new(&params, AdamHyper::default(), None);
        for _ in 0..300 {
            let g = grad_of(&params);
            opt.step(&mut params, &g, 0.05);
        }
        assert!(params.tensor(0).max_abs() < 0.05, "{:?}", params.tensor(0));
    }

    #[test]
    fn adam_first_step_matches_reference() {
        // With g constant, the first Adam step is −lr·g/(|g| + eps·√bc2/…),
        // which for bias-corrected moments reduces to −lr·sign(g) (+O(eps)).
        let mut params = ParamSet::new();
        params.push("x", Tensor::from_vec(2usize, vec![1.0, 1.0]).unwrap());
        let mut opt = Adam::new(&params, AdamHyper::default(), None);
        let g = vec![Tensor::from_vec(2usize, vec![0.5, -2.0]).unwrap()];
        opt.step(&mut params, &g, 0.1);
        let x = params.tensor(0).data();
        assert!((x[0] - (1.0 - 0.1)).abs() < 1e-4, "{x:?}");
        assert!((x[1] - (1.0 + 0.1)).abs() < 1e-4, "{x:?}");
    }

    #[test]
    fn adamw_decays_weights() {
        let mut params = quadratic_params();
        let hyper = AdamHyper {
            weight_decay: 0.5,
            ..Default::default()
        };
        let mut opt = Adam::new(&params, hyper, None);
        // Zero gradient: only decay acts.
        let g = vec![Tensor::zeros(2usize)];
        let before = params.tensor(0).max_abs();
        opt.step(&mut params, &g, 0.1);
        assert!(params.tensor(0).max_abs() < before);
    }

    #[test]
    fn optimizer_state_bytes_tracked() {
        let params = quadratic_params();
        let tracker = MemoryTracker::new();
        {
            let opt = Adam::new(&params, AdamHyper::default(), Some(tracker.clone()));
            assert_eq!(opt.state_bytes(), 2 * params.bytes());
            assert_eq!(
                tracker.current().get(MemoryCategory::OptimizerState),
                2 * params.bytes()
            );
        }
        // Dropped → freed.
        assert_eq!(tracker.current().get(MemoryCategory::OptimizerState), 0);
    }

    #[test]
    fn sgd_without_momentum_has_no_state() {
        let params = quadratic_params();
        let opt = Sgd::new(&params, 0.0, None);
        assert_eq!(opt.state_bytes(), 0);
    }

    #[test]
    fn clip_grad_norm_scales() {
        let mut grads = vec![Tensor::from_vec(2usize, vec![3.0, 4.0]).unwrap()];
        let norm = clip_grad_norm(&mut grads, 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let clipped: f32 = grads[0].norm_sq();
        assert!((clipped.sqrt() - 1.0).abs() < 1e-5);
        // Under the limit: untouched.
        let norm2 = clip_grad_norm(&mut grads, 10.0);
        assert!((norm2 - 1.0).abs() < 1e-5);
        assert!((grads[0].norm_sq().sqrt() - 1.0).abs() < 1e-5);
    }
}
