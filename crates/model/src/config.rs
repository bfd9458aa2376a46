//! Model configuration and exact parameter counting.
//!
//! The scaling experiments (paper Figs. 3–5) sweep model *size*; the
//! sweep code asks "what width gives ~N parameters at depth L?", which
//! [`EgnnConfig::with_target_params`] answers by closed-form counting plus
//! search — no tensors are allocated.

use matgnn_graph::NODE_FEAT_DIM;

use crate::mlp::Mlp;

/// Hyperparameters of an EGNN model.
///
/// # Examples
///
/// ```
/// use matgnn_model::EgnnConfig;
///
/// let cfg = EgnnConfig::new(32, 3);
/// assert_eq!(cfg.hidden_dim, 32);
/// assert!(cfg.param_count() > 0);
///
/// // Pick a width that hits ~100k parameters at depth 3.
/// let big = EgnnConfig::with_target_params(100_000, 3);
/// let count = big.param_count() as f64;
/// assert!((count / 100_000.0 - 1.0).abs() < 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EgnnConfig {
    /// Input node feature width (defaults to the graph crate's
    /// featurization width).
    pub node_feat_dim: usize,
    /// Hidden feature width of every φ network.
    pub hidden_dim: usize,
    /// Number of message-passing layers.
    pub n_layers: usize,
    /// Whether the feature update is residual (`h' = h + φ_h(…)`).
    ///
    /// The paper's depth experiment (Fig. 5) shows over-smoothing beyond 3
    /// layers; residual updates are the standard mitigation, so this is an
    /// ablation knob (default `false` to match the paper's observation).
    pub residual: bool,
    /// Whether layers update the equivariant coordinate channel.
    pub update_coords: bool,
    /// Whether messages are gated by a learned sigmoid (Satorras et al.'s
    /// optional edge inference).
    pub edge_gate: bool,
    /// Whether each layer's feature update passes through a learned
    /// LayerNorm (the Transformer-lineage stabilizer; an "LLM-inspired
    /// technique" ablation for deep GNNs).
    pub layer_norm: bool,
    /// Number of Gaussian radial-basis functions expanding the edge
    /// distance (0 = feed raw ‖r‖², the Satorras original). RBF
    /// featurization is the standard distance encoding in atomistic GNNs
    /// (SchNet onward) and an ablation knob here.
    pub n_rbf: usize,
    /// Seed for weight initialization.
    pub seed: u64,
}

impl EgnnConfig {
    /// A config with the given width and depth and default flags.
    pub fn new(hidden_dim: usize, n_layers: usize) -> Self {
        EgnnConfig {
            node_feat_dim: NODE_FEAT_DIM,
            hidden_dim,
            n_layers,
            residual: false,
            update_coords: true,
            edge_gate: false,
            layer_norm: false,
            n_rbf: 0,
            seed: 0,
        }
    }

    /// Returns `self` with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns `self` with residual feature updates toggled.
    pub fn with_residual(mut self, residual: bool) -> Self {
        self.residual = residual;
        self
    }

    /// Returns `self` with coordinate updates toggled.
    pub fn with_update_coords(mut self, update: bool) -> Self {
        self.update_coords = update;
        self
    }

    /// Returns `self` with the edge gate toggled.
    pub fn with_edge_gate(mut self, gate: bool) -> Self {
        self.edge_gate = gate;
        self
    }

    /// Returns `self` with per-layer LayerNorm toggled.
    pub fn with_layer_norm(mut self, layer_norm: bool) -> Self {
        self.layer_norm = layer_norm;
        self
    }

    /// Returns `self` with `n_rbf` Gaussian radial basis functions for
    /// edge distances (0 restores the raw-‖r‖² encoding).
    pub fn with_rbf(mut self, n_rbf: usize) -> Self {
        self.n_rbf = n_rbf;
        self
    }

    /// Width of the per-edge distance featurization (1 for raw ‖r‖²).
    pub fn edge_feat_dim(&self) -> usize {
        if self.n_rbf == 0 {
            1
        } else {
            self.n_rbf
        }
    }

    /// Exact scalar parameter count of the model this config builds.
    ///
    /// # Panics
    ///
    /// Panics if the count overflows `usize`.
    pub fn param_count(&self) -> usize {
        self.checked_param_count()
            .expect("parameter count overflows usize")
    }

    /// [`param_count`](Self::param_count), or `None` when it overflows
    /// `usize`: the form for a config read from untrusted bytes.
    pub fn checked_param_count(&self) -> Option<usize> {
        let mlp = Mlp::checked_count_params;
        let h = self.hidden_dim;
        let two_h = h.checked_mul(2)?;
        let edge_in = two_h.checked_add(self.edge_feat_dim())?;
        // Embedding: Linear(F → H).
        let mut total = mlp(&[self.node_feat_dim, h])?;
        // Per layer: φ_e [2H+E → H → H], φ_x [H → H → 1] (if coords),
        // φ_h [2H → H → H], gate Linear(H → 1) (if gated).
        let mut per_layer = mlp(&[edge_in, h, h])?.checked_add(mlp(&[two_h, h, h])?)?;
        if self.update_coords {
            per_layer = per_layer.checked_add(mlp(&[h, h, 1])?)?;
        }
        if self.edge_gate {
            per_layer = per_layer.checked_add(mlp(&[h, 1])?)?;
        }
        if self.layer_norm {
            // `2·h` scalars, which `two_h` showed to fit.
            per_layer = per_layer.checked_add(crate::mlp::LayerNorm::count_params(h))?;
        }
        total = total.checked_add(per_layer.checked_mul(self.n_layers)?)?;
        // Heads: energy [H → H → 1], forces [2H+E → H → 1].
        total = total.checked_add(mlp(&[h, h, 1])?)?;
        total.checked_add(mlp(&[edge_in, h, 1])?)
    }

    /// Finds the width whose parameter count at depth `n_layers` is closest
    /// to `target` (default flags), by monotone search over widths.
    ///
    /// # Panics
    ///
    /// Panics if `target` is zero.
    pub fn with_target_params(target: usize, n_layers: usize) -> Self {
        assert!(target > 0, "target parameter count must be positive");
        let count = |w: usize| EgnnConfig::new(w, n_layers).param_count();
        // Exponential bracket then binary search (param count is strictly
        // increasing in width).
        let mut lo = 1usize;
        let mut hi = 2usize;
        while count(hi) < target {
            lo = hi;
            hi *= 2;
        }
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if count(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let best = if target.abs_diff(count(lo)) <= target.abs_diff(count(hi)) {
            lo
        } else {
            hi
        };
        EgnnConfig::new(best.max(2), n_layers)
    }

    /// Human-readable summary, e.g. `egnn(h=64, L=3, 125k params)`.
    pub fn summary(&self) -> String {
        let n = self.param_count();
        let human = if n >= 1_000_000 {
            format!("{:.1}M", n as f64 / 1e6)
        } else if n >= 1_000 {
            format!("{:.1}k", n as f64 / 1e3)
        } else {
            n.to_string()
        };
        format!(
            "egnn(h={}, L={}, {human} params{}{}{}{}{})",
            self.hidden_dim,
            self.n_layers,
            if self.residual { ", residual" } else { "" },
            if self.edge_gate { ", gated" } else { "" },
            if self.update_coords {
                ""
            } else {
                ", frozen-coords"
            },
            if self.n_rbf > 0 { ", rbf" } else { "" },
            if self.layer_norm { ", layernorm" } else { "" },
        )
    }
}

impl Default for EgnnConfig {
    fn default() -> Self {
        EgnnConfig::new(32, 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_count_monotone_in_width_and_depth() {
        let c = |w, l| EgnnConfig::new(w, l).param_count();
        assert!(c(8, 3) < c(16, 3));
        assert!(c(16, 3) < c(16, 5));
    }

    #[test]
    fn flags_change_count() {
        let base = EgnnConfig::new(16, 3);
        assert!(base.with_edge_gate(true).param_count() > base.param_count());
        assert!(base.with_rbf(16).param_count() > base.param_count());
        assert_eq!(base.with_rbf(0).param_count(), base.param_count());
        assert!(base.with_update_coords(false).param_count() < base.param_count());
        // Residual adds no parameters.
        assert_eq!(base.with_residual(true).param_count(), base.param_count());
    }

    #[test]
    fn target_search_hits_near_target() {
        for &target in &[500usize, 5_000, 50_000, 500_000, 2_000_000] {
            let cfg = EgnnConfig::with_target_params(target, 3);
            let got = cfg.param_count() as f64;
            let rel = (got / target as f64 - 1.0).abs();
            assert!(rel < 0.5, "target {target}: got {got} (rel err {rel:.2})");
        }
    }

    #[test]
    fn target_search_respects_depth() {
        let c3 = EgnnConfig::with_target_params(100_000, 3);
        let c6 = EgnnConfig::with_target_params(100_000, 6);
        // Deeper model needs a narrower width for the same budget.
        assert!(c6.hidden_dim < c3.hidden_dim);
    }

    #[test]
    fn summary_mentions_shape() {
        let s = EgnnConfig::new(64, 3).summary();
        assert!(s.contains("h=64"));
        assert!(s.contains("L=3"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_target_panics() {
        let _ = EgnnConfig::with_target_params(0, 3);
    }
}
