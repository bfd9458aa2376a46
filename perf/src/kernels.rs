//! Timing of the tensor kernels an EGNN step is made of, and the computed
//! share of a step they account for. Layers are timed from outside, so a
//! kernel's time inside `segment_forward` or `Tape::backward` cannot be
//! observed directly; it is computed instead from the model's shapes and
//! the kernel rates measured here. Every figure derived this way is
//! labelled computed.

use std::time::Instant;

use matgnn::model::EgnnConfig;
use matgnn::tensor::Tensor;

use crate::stats::median;

/// Median time of `f` in µs over as many calls as fit in `budget_ms`
/// (at least three). The result of each call is kept opaque to the
/// optimiser.
pub fn time_us<R>(budget_ms: f64, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed().as_secs_f64() * 1e3 < budget_ms {
        let t = Instant::now();
        std::hint::black_box(f());
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples).expect("at least three samples")
}

/// A deterministic `[rows × cols]` tensor with values in (−1, 1).
pub fn filled(rows: usize, cols: usize, salt: u32) -> Tensor {
    Tensor::from_fn((rows, cols), |i| {
        let x = (i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt);
        (x >> 8) as f32 / (1u32 << 23) as f32 - 1.0
    })
}

/// Measured times of the matmul family and `silu` at one shape:
/// `[rows × h] · [h × h]` and its two gradient products.
#[derive(Debug, Clone, Copy)]
pub struct KernelTimes {
    pub rows: usize,
    pub h: usize,
    pub matmul_us: f64,
    pub matmul_tn_us: f64,
    pub matmul_nt_us: f64,
    pub silu_us: f64,
}

impl KernelTimes {
    pub fn measure(rows: usize, h: usize, budget_ms: f64) -> Self {
        let x = filled(rows, h, 1);
        let w = filled(h, h, 2);
        let dy = filled(rows, h, 3);
        KernelTimes {
            rows,
            h,
            matmul_us: time_us(budget_ms, || x.matmul(&w).recycle()),
            // dW = Xᵀ · dY and dX = dY · Wᵀ, the shapes backward runs.
            matmul_tn_us: time_us(budget_ms, || x.matmul_tn(&dy).recycle()),
            matmul_nt_us: time_us(budget_ms, || dy.matmul_nt(&w).recycle()),
            silu_us: time_us(budget_ms, || x.silu().recycle()),
        }
    }

    /// Computed multiply-adds ×2 of one product at this shape.
    pub fn flops(&self) -> f64 {
        2.0 * self.rows as f64 * self.h as f64 * self.h as f64
    }

    pub fn gflops(&self, us: f64) -> f64 {
        self.flops() / us / 1e3
    }
}

/// Computed forward work of an EGNN over `nodes` atoms and `edges` edges.
#[derive(Debug, Clone, Copy)]
pub struct EgnnWork {
    /// Matmul FLOPs (2 × multiply-adds) of one forward pass.
    pub matmul_flops_fwd: f64,
    /// Elements passed through `silu` in one forward pass.
    pub silu_elems_fwd: f64,
}

/// Counts the linear layers `EgnnConfig::param_count` enumerates: each
/// `[in → out]` layer over `R` rows costs `2·R·in·out` FLOPs. Edge MLPs
/// (φ_e, φ_x, force head) run over edges, node MLPs (embed, φ_h, energy
/// head) over atoms; every hidden layer, and φ_e's and the embedding's
/// output, is followed by `silu`.
pub fn egnn_work(cfg: &EgnnConfig, nodes: f64, edges: f64) -> EgnnWork {
    let h = cfg.hidden_dim as f64;
    let f = cfg.node_feat_dim as f64;
    let e_in = 2.0 * h + cfg.edge_feat_dim() as f64;
    let layers = cfg.n_layers as f64;
    let phi_x = if cfg.update_coords { 1.0 } else { 0.0 };
    let edge_macs = layers * (e_in * h + h * h + phi_x * (h * h + h)) + e_in * h + h;
    let node_macs = f * h + layers * (2.0 * h * h + h * h) + h * h + h;
    let edge_silu = layers * (2.0 * h + phi_x * h) + h;
    let node_silu = h + layers * h + h;
    EgnnWork {
        matmul_flops_fwd: 2.0 * (edges * edge_macs + nodes * node_macs),
        silu_elems_fwd: edges * edge_silu + nodes * node_silu,
    }
}

/// One distinct linear-layer shape of an EGNN forward pass and how many
/// times it occurs: `[rows × inp] · [inp × out]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Linear {
    pub rows: usize,
    pub inp: usize,
    pub out: usize,
    pub count: usize,
}

/// The linear layers [`egnn_work`] counts, shape by shape.
pub fn egnn_linears(cfg: &EgnnConfig, nodes: usize, edges: usize) -> Vec<Linear> {
    let h = cfg.hidden_dim;
    let e_in = 2 * h + cfg.edge_feat_dim();
    let l = cfg.n_layers;
    let phi_x = usize::from(cfg.update_coords) * l;
    let lin = |rows, inp, out, count| Linear {
        rows,
        inp,
        out,
        count,
    };
    let mut v = vec![
        lin(nodes, cfg.node_feat_dim, h, 1), // embed
        lin(edges, e_in, h, l + 1),          // φ_e and force head, first layer
        lin(edges, h, h, l + phi_x),         // φ_e second, φ_x first
        lin(edges, h, 1, phi_x + 1),         // φ_x second, force head second
        lin(nodes, 2 * h, h, l),             // φ_h first
        lin(nodes, h, h, l + 1),             // φ_h second, energy head first
        lin(nodes, h, 1, 1),                 // energy head second
    ];
    v.retain(|x| x.count > 0 && x.rows > 0);
    v
}

/// Time of the matmul family and `silu` in one forward + backward of the
/// EGNN, seconds, from timing every distinct product at its own shape:
/// the forward `X·W`, and backward's `dY·Wᵀ` and `Xᵀ·dY`. `silu`'s
/// backward is taken to cost what its forward does. Re-played outside the
/// step, so operands are warmer than inside it: a lower bound.
pub fn replay_kernel_seconds(cfg: &EgnnConfig, nodes: usize, edges: usize, budget_ms: f64) -> f64 {
    let mut us = 0.0;
    for lin in egnn_linears(cfg, nodes, edges) {
        let x = filled(lin.rows, lin.inp, 1);
        let w = filled(lin.inp, lin.out, 2);
        let dy = filled(lin.rows, lin.out, 3);
        let one = time_us(budget_ms, || x.matmul(&w).recycle())
            + time_us(budget_ms, || dy.matmul_nt(&w).recycle())
            + time_us(budget_ms, || x.matmul_tn(&dy).recycle());
        us += one * lin.count as f64;
    }
    let work = egnn_work(cfg, nodes as f64, edges as f64);
    let sample = filled(edges.max(1), cfg.hidden_dim, 4);
    let silu_us = time_us(budget_ms, || sample.silu().recycle());
    us += 2.0 * work.silu_elems_fwd * silu_us / (edges.max(1) * cfg.hidden_dim) as f64;
    us / 1e6
}

impl EgnnWork {
    /// Computed FLOPs of forward + backward: each forward product has two
    /// gradient products of the same size.
    pub fn step_flops(&self) -> f64 {
        3.0 * self.matmul_flops_fwd
    }

    /// Seconds the step's matmul FLOPs would take at the rates `k`
    /// measured for the three products at a large shape: the part of a
    /// step a faster inner kernel can shorten. The fixed cost of each call
    /// is not in it (compare [`replay_kernel_seconds`]).
    pub fn flop_bound_seconds(&self, k: &KernelTimes) -> f64 {
        self.matmul_flops_fwd * (k.matmul_us + k.matmul_tn_us + k.matmul_nt_us) / k.flops() / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_matches_the_parameter_count_for_one_row_each() {
        // With one atom and one edge every weight is used exactly once
        // per forward, so multiply-adds equal weights (params − biases).
        let cfg = EgnnConfig::new(8, 2);
        let w = egnn_work(&cfg, 1.0, 1.0);
        let h = 8usize;
        let biases = h                       // embed
            + 2 * (2 * h + (h + 1) + 2 * h)  // per layer: φ_e, φ_x, φ_h
            + (h + 1) + (h + 1); //            heads
        assert_eq!(
            w.matmul_flops_fwd,
            2.0 * (cfg.param_count() - biases) as f64
        );
        assert_eq!(w.step_flops(), 3.0 * w.matmul_flops_fwd);
    }

    #[test]
    fn linears_add_up_to_the_counted_work() {
        for cfg in [
            EgnnConfig::new(8, 2),
            EgnnConfig::new(16, 3).with_update_coords(false),
        ] {
            let (n, e) = (7, 31);
            let flops: f64 = egnn_linears(&cfg, n, e)
                .iter()
                .map(|l| 2.0 * (l.rows * l.inp * l.out * l.count) as f64)
                .sum();
            assert_eq!(flops, egnn_work(&cfg, n as f64, e as f64).matmul_flops_fwd);
        }
        assert!(replay_kernel_seconds(&EgnnConfig::new(4, 1), 3, 5, 0.0) > 0.0);
        // At 1 µs per product of 2·10·4·4 FLOPs, the three products of a
        // forward FLOP cost 3/320 µs.
        let k = KernelTimes {
            rows: 10,
            h: 4,
            matmul_us: 1.0,
            matmul_tn_us: 1.0,
            matmul_nt_us: 1.0,
            silu_us: 1.0,
        };
        let w = EgnnWork {
            matmul_flops_fwd: 320e6,
            silu_elems_fwd: 0.0,
        };
        assert!((w.flop_bound_seconds(&k) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn time_us_takes_at_least_three_samples() {
        let mut calls = 0;
        let us = time_us(0.0, || calls += 1);
        assert_eq!(calls, 3);
        assert!(us >= 0.0);
    }
}
