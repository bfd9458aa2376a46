//! Runtime-dispatched SIMD microkernels: the per-core compute tier under
//! the worker [`pool`](crate::pool).
//!
//! Every hot inner loop in this crate (the matmul microkernel, elementwise
//! unary/binary maps, `axpy`-family in-place updates, the axis reductions,
//! gather/scatter row movement) and the fused Adam update in
//! `matgnn-train` funnel through the entry points here. Each entry point
//! dispatches once per call to one of three **tiers**:
//!
//! * **Scalar** — portable Rust, byte-for-byte the kernels this crate has
//!   always shipped. The reference tier and the fallback on hardware
//!   without AVX2.
//! * **Avx2** — explicit `std::arch` AVX2 + FMA kernels (8-lane `f32`
//!   vectors, fused multiply-add accumulators, register-tiled matmul).
//! * **Avx512** — the AVX2 tier with the matmul microkernel widened to
//!   16-lane `zmm` FMA tiles. Every non-matmul kernel is *the same
//!   function* as the AVX2 tier, and the matmul accumulation chains are
//!   identical too (ascending-`k` FMA per element), so the two vector
//!   tiers produce bitwise identical results — Avx512 is purely a
//!   throughput upgrade on chips with two 512-bit FMA units.
//!
//! ## Tier selection
//!
//! Resolved per thread ([`Runtime`]), in order of precedence:
//!
//! 1. a [`Runtime`] scope on the thread (tests and benchmarks),
//! 2. the `MATGNN_SIMD` environment variable, read once (`off`/`scalar`
//!    forces the portable tier, `avx2` / `avx512` requests a vector
//!    tier, `auto` detects),
//! 3. feature detection: AVX-512F if present, else AVX2 + FMA.
//!
//! A request for a vector tier on hardware without it falls back to the
//! best supported tier when the scope is entered or the environment is
//! read (the latter with a warning) — the process never dispatches an
//! instruction the CPU cannot execute.
//!
//! ## Determinism contract
//!
//! *Within a tier*, every kernel is **bitwise deterministic for any pool
//! size**: each output element is produced by a fixed per-element chain of
//! IEEE-754 operations that does not depend on where the pool's chunk
//! boundaries fall. Concretely, the vector kernels vectorize *across*
//! output elements (one accumulator chain per element, ascending
//! reduction order preserved; the one exception, `sum_axis1`, folds its
//! lane accumulators in a fixed tree that never depends on chunking),
//! and their scalar remainder loops use
//! `f32::mul_add` wherever the vector body uses FMA, so an element
//! computed in a remainder loop is bit-identical to the same element
//! computed in a full vector lane.
//!
//! *Across tiers*, results agree to tight tolerance but not bitwise: FMA
//! contracts the multiply-add rounding step, and the AVX2 `exp` family
//! uses a ≈1-ulp polynomial instead of libm. Every thread of a run inherits
//! one tier, so checkpoints, supervisor rollback and DDP replica
//! consistency — all within-run, within-tier properties — are unaffected.
//! Cross-tier parity is asserted (tolerance + gradcheck) in
//! `tests/simd_parity.rs` and the `matgnn_bench kernels` suite.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::runtime::Runtime;

/// A compute tier: which instruction set the inner kernels run on.
/// Ordered by capability: a CPU that runs a tier runs every lower one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Portable scalar Rust — the deterministic reference implementation.
    Scalar,
    /// AVX2 + FMA `std::arch` kernels (x86-64 only).
    Avx2,
    /// The AVX2 tier with a 512-bit matmul microkernel (x86-64 with
    /// AVX-512F only). Bitwise identical to [`SimdTier::Avx2`].
    Avx512,
}

impl SimdTier {
    /// Short lower-case name (`"scalar"` / `"avx2"` / `"avx512"`), as
    /// recorded in benches and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }
}

impl std::fmt::Display for SimdTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether this CPU can run the AVX2 tier.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this CPU can run the AVX-512 tier (which layers a `zmm`
/// matmul over the AVX2 kernels, so both feature sets are required).
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2_available() && std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Best tier the hardware supports; every lower tier is supported too.
pub(crate) fn detected_tier() -> SimdTier {
    if avx512_available() {
        SimdTier::Avx512
    } else if avx2_available() {
        SimdTier::Avx2
    } else {
        SimdTier::Scalar
    }
}

/// The tier kernels on this thread dispatch to: the `simd` of
/// [`Runtime::current`], never above what this CPU supports.
#[inline]
pub fn active_tier() -> SimdTier {
    Runtime::current().simd
}

// ----------------------------------------------------------------------
// Dispatch counters
// ----------------------------------------------------------------------

/// Kernel families with their own dispatch counter (`kernel.dispatch.*`
/// in the telemetry registry).
#[derive(Debug, Clone, Copy)]
#[repr(usize)]
enum KernelId {
    Matmul = 0,
    Binary,
    Unary,
    Axpy,
    ScaleInPlace,
    Lerp,
    Fill,
    SumAxis0,
    SumAxis1,
    GatherRows,
    ScatterAddRows,
    Adam,
}

const KERNEL_NAMES: [&str; 12] = [
    "matmul",
    "binary",
    "unary",
    "axpy",
    "scale_in_place",
    "lerp",
    "fill",
    "sum_axis0",
    "sum_axis1",
    "gather_rows",
    "scatter_add_rows",
    "adam",
];

static DISPATCHES: [AtomicU64; 12] = [const { AtomicU64::new(0) }; 12];

#[inline]
fn count(id: KernelId) {
    DISPATCHES[id as usize].fetch_add(1, Ordering::Relaxed);
}

/// Publishes the dispatched tier and per-kernel dispatch counts into the
/// process-wide telemetry metrics registry (`kernel.*`). The tier gauge is
/// 0 for Scalar, 1 for AVX2, 2 for AVX-512, so traces record which tier a
/// run used.
pub fn publish_telemetry() {
    let tier = active_tier();
    matgnn_telemetry::gauge_set(
        "kernel.simd_tier",
        match tier {
            SimdTier::Scalar => 0.0,
            SimdTier::Avx2 => 1.0,
            SimdTier::Avx512 => 2.0,
        },
    );
    for (name, ctr) in KERNEL_NAMES.iter().zip(DISPATCHES.iter()) {
        matgnn_telemetry::counter_set(
            format!("kernel.dispatch.{name}"),
            ctr.load(Ordering::Relaxed),
        );
    }
}

// ----------------------------------------------------------------------
// Op vocabularies
// ----------------------------------------------------------------------

/// Elementwise binary operations with dedicated vector kernels. All four
/// are single IEEE operations per lane, so the AVX2 results are bitwise
/// identical to the scalar tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
}

/// Elementwise unary operations with dedicated vector kernels.
///
/// `Exp`, `Sigmoid`, `Silu` and `SiluGrad` use a polynomial `exp` on the
/// AVX2 tier (≈1 ulp vs libm — cross-tier tolerance, not bitwise); every
/// other variant is lane-exact and bitwise identical across tiers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnaryOp {
    /// `a * alpha`
    Scale(f32),
    /// `a + alpha`
    AddScalar(f32),
    /// `-a`
    Neg,
    /// `|a|`
    Abs,
    /// `a * a`
    Square,
    /// `√a`
    Sqrt,
    /// `max(a, 0)`
    Relu,
    /// `eᵃ`
    Exp,
    /// `1 / (1 + e⁻ᵃ)`
    Sigmoid,
    /// `a / (1 + e⁻ᵃ)`
    Silu,
    /// `d/da silu(a) = s(1 + a(1 − s))`, `s = sigmoid(a)`
    SiluGrad,
}

// ----------------------------------------------------------------------
// Dispatching entry points
// ----------------------------------------------------------------------

/// Expands to a tier dispatch; the vector arms are only compiled on
/// x86-64 and only reached after runtime feature detection. The two-arm
/// form routes the Avx512 tier to the AVX2 kernel (every non-matmul
/// kernel is shared); the three-arm form is for the matmul, which has a
/// dedicated 512-bit microkernel.
macro_rules! dispatch {
    ($scalar:expr, $avx2:expr) => {
        dispatch!($scalar, $avx2, $avx2)
    };
    ($scalar:expr, $avx2:expr, $avx512:expr) => {
        match active_tier() {
            SimdTier::Scalar => $scalar,
            #[cfg(target_arch = "x86_64")]
            // SAFETY: every `Runtime` a thread can hold was clamped to
            // `detected_tier()` when its scope was entered or the
            // environment was read, so `Avx2` means
            // `is_x86_feature_detected!` confirmed AVX2 and FMA.
            SimdTier::Avx2 => unsafe { $avx2 },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above, `Avx512` means `is_x86_feature_detected!`
            // confirmed AVX-512F (and AVX2+FMA).
            SimdTier::Avx512 => unsafe { $avx512 },
            #[cfg(not(target_arch = "x86_64"))]
            SimdTier::Avx2 | SimdTier::Avx512 => $scalar,
        }
    };
}

/// A read-only strided matrix operand: element `(r, c)` is
/// `data[r·rs + c·cs]`. A row-major `[rows, cols]` buffer is
/// `{ rs: cols, cs: 1 }` and its transpose is `{ rs: 1, cs: cols }`, so
/// the matmul kernels read a transposed operand in place instead of
/// copying it out first.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    /// Backing storage.
    pub data: &'a [f32],
    /// Distance between consecutive rows.
    pub rs: usize,
    /// Distance between consecutive columns.
    pub cs: usize,
}

impl MatRef<'_> {
    /// Whether every element of the leading `rows × cols` block lies in
    /// `data`: `(rows−1)·rs + (cols−1)·cs < data.len()` (vacuous for an
    /// empty block), evaluated without overflow.
    fn covers(&self, rows: usize, cols: usize) -> bool {
        if rows == 0 || cols == 0 {
            return true;
        }
        (rows - 1)
            .checked_mul(self.rs)
            .zip((cols - 1).checked_mul(self.cs))
            .and_then(|(r, c)| r.checked_add(c))
            .is_some_and(|last| last < self.data.len())
    }
}

/// 64-byte-aligned storage for the vector tiers' packed B strip, so the
/// tiles' loads from it never split a cache line, whatever the layout of
/// the stack frame it lives in.
#[cfg(target_arch = "x86_64")]
#[repr(C, align(64))]
struct Aligned<T>(T);

/// The bound every tier's matmul kernel relies on for its unchecked
/// reads: `a` covers rows `[0, row_offset + rows)` × `k` columns and `b`
/// covers `k × m`.
fn matmul_operands_in_bounds(
    a: MatRef<'_>,
    b: MatRef<'_>,
    row_offset: usize,
    rows: usize,
    k: usize,
    m: usize,
) -> bool {
    a.covers(row_offset + rows, k) && b.covers(k, m)
}

/// Computes rows `[row_offset, row_offset + out.len()/m)` of `a × b` into
/// `out`, accumulating into `out`'s current contents (callers pass zeroed
/// buffers). `a` is a `[*, k]` and `b` a `[k, m]` strided view; `out` is
/// row-major. `matmul`, `matmul_tn` and `matmul_nt` are three stride
/// choices on this one kernel.
///
/// Every output element accumulates its `k` products in ascending-`k`
/// order into a single accumulator chain (plain multiply-add on the
/// scalar tier, FMA on AVX2), so for a fixed tier the result is invariant
/// to row blocking, pool chunking and operand strides.
///
/// # Panics
///
/// Panics if `a` or `b` does not cover the rows and columns read.
pub fn matmul_rows(
    a: MatRef<'_>,
    b: MatRef<'_>,
    out: &mut [f32],
    row_offset: usize,
    k: usize,
    m: usize,
) {
    if out.is_empty() {
        return;
    }
    // The vector kernels read both operands through raw pointers, so this
    // O(1) check is what makes a safe call sound.
    assert!(
        matmul_operands_in_bounds(a, b, row_offset, out.len() / m, k, m),
        "matmul_rows: operand views out of bounds"
    );
    count(KernelId::Matmul);
    dispatch!(
        scalar::matmul_rows(a, b, out, row_offset, k, m),
        avx2::matmul_rows(a, b, out, row_offset, k, m),
        avx512::matmul_rows(a, b, out, row_offset, k, m)
    )
}

/// `out[i] = op(a[i], b[i])`. Bitwise identical across tiers.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn binary(op: BinaryOp, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), out.len());
    assert_eq!(b.len(), out.len());
    count(KernelId::Binary);
    dispatch!(scalar::binary(op, a, b, out), avx2::binary(op, a, b, out))
}

/// `out[i] = op(src[i])`.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn unary(op: UnaryOp, src: &[f32], out: &mut [f32]) {
    assert_eq!(src.len(), out.len());
    count(KernelId::Unary);
    dispatch!(scalar::unary(op, src, out), avx2::unary(op, src, out))
}

/// `dst[i] += alpha * src[i]` (BLAS `axpy`; FMA on the AVX2 tier).
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn axpy(dst: &mut [f32], alpha: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len());
    count(KernelId::Axpy);
    dispatch!(scalar::axpy(dst, alpha, src), avx2::axpy(dst, alpha, src))
}

/// `dst[i] *= alpha`. Bitwise identical across tiers.
pub fn scale_in_place(dst: &mut [f32], alpha: f32) {
    count(KernelId::ScaleInPlace);
    dispatch!(
        scalar::scale_in_place(dst, alpha),
        avx2::scale_in_place(dst, alpha)
    )
}

/// `dst[i] = beta * dst[i] + (1 - beta) * src[i]` (EMA update).
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn lerp(dst: &mut [f32], beta: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len());
    count(KernelId::Lerp);
    dispatch!(scalar::lerp(dst, beta, src), avx2::lerp(dst, beta, src))
}

/// `dst[i] = value`. Bitwise trivial.
pub fn fill(dst: &mut [f32], value: f32) {
    count(KernelId::Fill);
    dispatch!(scalar::fill(dst, value), avx2::fill(dst, value))
}

/// Column sums for `sum_axis0`: `out[j] += src[i*m + j]` for every row
/// `i < n`, ascending `i`, with `out.len() == m`. Lane-wise adds only —
/// bitwise identical across tiers.
pub fn sum_axis0(src: &[f32], n: usize, m: usize, out: &mut [f32]) {
    count(KernelId::SumAxis0);
    // The vector tier reads `src` and writes `out` through raw pointers.
    assert!(out.len() == m && src.len() >= n * m, "sum_axis0 shape");
    dispatch!(
        scalar::sum_axis0(src, n, m, out),
        avx2::sum_axis0(src, n, m, out)
    )
}

/// Row reduction for `sum_axis1`: `out[local] = Σ row (r0 + local)` of the
/// `[*, m]` matrix `src`. The AVX2 tier reduces each row with 8 lane
/// accumulators folded in a fixed tree (cross-tier tolerance, within-tier
/// deterministic — rows never straddle pool chunks).
pub fn sum_axis1_rows(src: &[f32], m: usize, r0: usize, out: &mut [f32]) {
    count(KernelId::SumAxis1);
    dispatch!(
        scalar::sum_axis1_rows(src, m, r0, out),
        avx2::sum_axis1_rows(src, m, r0, out)
    )
}

/// Row gather into a chunk of output rows: `chunk[local] = src[idx[local]]`
/// where `chunk` holds `chunk.len()/m` rows and `idx` is pre-offset to the
/// chunk's first row. Pure copies — bitwise identical across tiers.
///
/// # Panics
///
/// Panics (in debug) on row-index overflow; callers validate indices.
pub fn gather_rows(src: &[f32], idx: &[usize], chunk: &mut [f32], m: usize) {
    count(KernelId::GatherRows);
    dispatch!(
        scalar::gather_rows(src, idx, chunk, m),
        avx2::gather_rows(src, idx, chunk, m)
    )
}

/// Scatter-add of source rows into an owned output-row window:
/// for every `(i, t)` in `idx` with `r0 ≤ t < r1`, adds `src` row `i` into
/// `chunk` row `t - r0`, in ascending source order. Lane-wise adds only —
/// bitwise identical across tiers.
pub fn scatter_add_rows(
    src: &[f32],
    idx: &[usize],
    chunk: &mut [f32],
    r0: usize,
    r1: usize,
    m: usize,
) {
    count(KernelId::ScatterAddRows);
    dispatch!(
        scalar::scatter_add_rows(src, idx, chunk, r0, r1, m),
        avx2::scatter_add_rows(src, idx, chunk, r0, r1, m)
    )
}

/// Hyperparameters of the fused Adam slice update, precomputed per step.
#[derive(Debug, Clone, Copy)]
pub struct AdamSliceArgs {
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Bias correction `1 − β₁ᵗ`.
    pub bc1: f32,
    /// Bias correction `1 − β₂ᵗ`.
    pub bc2: f32,
    /// Learning rate.
    pub lr: f32,
    /// Denominator stabilizer ε.
    pub eps: f32,
    /// Decoupled weight decay (0 disables).
    pub weight_decay: f32,
}

/// One fused Adam step over a parameter slice: updates `param` in place
/// from `grad`, maintaining moments `m` / `v`. The AVX2 tier fuses the
/// moment updates and the parameter step with FMA (cross-tier tolerance);
/// both tiers are elementwise, so results are pool-chunking invariant.
///
/// # Panics
///
/// Panics if slice lengths differ.
pub fn adam_slice(
    param: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    a: &AdamSliceArgs,
) {
    assert_eq!(param.len(), grad.len());
    assert_eq!(param.len(), m.len());
    assert_eq!(param.len(), v.len());
    count(KernelId::Adam);
    dispatch!(
        scalar::adam_slice(param, grad, m, v, a),
        avx2::adam_slice(param, grad, m, v, a)
    )
}

// ----------------------------------------------------------------------
// Scalar tier — the portable reference kernels
// ----------------------------------------------------------------------

mod scalar {
    use super::{AdamSliceArgs, BinaryOp, MatRef, UnaryOp};

    /// `k`-block size of the matmul microkernel: one `KC × m` panel of `b`
    /// stays hot in L2 across an `MR`-row tile.
    pub(super) const KC: usize = 256;

    /// Row-tile height: each pass over a `b` row updates `MR` output rows
    /// from registers, quartering `b` traffic versus the naive loop.
    pub(super) const MR: usize = 4;

    /// Cache-blocked i-k-j matmul microkernel over strided operands (unit
    /// stride on `out`), `k`-blocks outermost like the vector tiers. Each
    /// element's chain is the pre-SIMD kernel's, bit for bit; strides
    /// change only where operands are read from.
    pub fn matmul_rows(
        a: MatRef<'_>,
        b: MatRef<'_>,
        out: &mut [f32],
        row_offset: usize,
        k: usize,
        m: usize,
    ) {
        let rows = out.len() / m;
        debug_assert!(super::matmul_operands_in_bounds(
            a, b, row_offset, rows, k, m
        ));
        let (ars, acs) = (a.rs, a.cs);
        let a = a.data;
        let mut scratch = Vec::new();
        let mut k0 = 0;
        while k0 < k {
            let kb = KC.min(k - k0);
            // The `kb × m` panel of `b` with row stride `ps`: read in place
            // when `b`'s columns are contiguous, otherwise (a transposed
            // `b`) gathered once per block, each column in storage order.
            let (panel, ps) = if b.cs == 1 {
                (&b.data[k0 * b.rs..], b.rs)
            } else {
                scratch.resize(kb * m, 0.0);
                for j in 0..m {
                    for kk in 0..kb {
                        scratch[kk * m + j] = b.data[(k0 + kk) * b.rs + j * b.cs];
                    }
                }
                (&scratch[..], m)
            };
            let mut i0 = 0;
            while i0 < rows {
                let tile = MR.min(rows - i0);
                if tile == MR {
                    let (o0, rest) = out[i0 * m..(i0 + MR) * m].split_at_mut(m);
                    let (o1, rest) = rest.split_at_mut(m);
                    let (o2, o3) = rest.split_at_mut(m);
                    let ai = (row_offset + i0) * ars + k0 * acs;
                    for kk in 0..kb {
                        let ak = ai + kk * acs;
                        let av0 = a[ak];
                        let av1 = a[ak + ars];
                        let av2 = a[ak + 2 * ars];
                        let av3 = a[ak + 3 * ars];
                        let brow = &panel[kk * ps..kk * ps + m];
                        for ((((x0, x1), x2), x3), &bv) in o0
                            .iter_mut()
                            .zip(o1.iter_mut())
                            .zip(o2.iter_mut())
                            .zip(o3.iter_mut())
                            .zip(brow)
                        {
                            *x0 += av0 * bv;
                            *x1 += av1 * bv;
                            *x2 += av2 * bv;
                            *x3 += av3 * bv;
                        }
                    }
                } else {
                    for di in 0..tile {
                        let ai = (row_offset + i0 + di) * ars + k0 * acs;
                        let orow = &mut out[(i0 + di) * m..(i0 + di + 1) * m];
                        for kk in 0..kb {
                            let av = a[ai + kk * acs];
                            let brow = &panel[kk * ps..kk * ps + m];
                            for (o, &bv) in orow.iter_mut().zip(brow) {
                                *o += av * bv;
                            }
                        }
                    }
                }
                i0 += tile;
            }
            k0 += kb;
        }
    }

    pub fn binary(op: BinaryOp, a: &[f32], b: &[f32], out: &mut [f32]) {
        let f = match op {
            BinaryOp::Add => |a: f32, b: f32| a + b,
            BinaryOp::Sub => |a: f32, b: f32| a - b,
            BinaryOp::Mul => |a: f32, b: f32| a * b,
            BinaryOp::Div => |a: f32, b: f32| a / b,
        };
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = f(x, y);
        }
    }

    pub fn unary(op: UnaryOp, src: &[f32], out: &mut [f32]) {
        // Each arm preserves the exact legacy closure semantics (libm
        // `exp`, etc.), so the scalar tier stays bitwise stable across
        // releases.
        macro_rules! map {
            ($f:expr) => {
                for (o, &x) in out.iter_mut().zip(src) {
                    *o = $f(x);
                }
            };
        }
        match op {
            UnaryOp::Scale(alpha) => map!(|x: f32| x * alpha),
            UnaryOp::AddScalar(alpha) => map!(|x: f32| x + alpha),
            UnaryOp::Neg => map!(|x: f32| -x),
            UnaryOp::Abs => map!(f32::abs),
            UnaryOp::Square => map!(|x: f32| x * x),
            UnaryOp::Sqrt => map!(f32::sqrt),
            UnaryOp::Relu => map!(|x: f32| x.max(0.0)),
            UnaryOp::Exp => map!(f32::exp),
            UnaryOp::Sigmoid => map!(|x: f32| 1.0 / (1.0 + (-x).exp())),
            UnaryOp::Silu => map!(|x: f32| x / (1.0 + (-x).exp())),
            UnaryOp::SiluGrad => map!(|x: f32| {
                let s = 1.0 / (1.0 + (-x).exp());
                s * (1.0 + x * (1.0 - s))
            }),
        }
    }

    pub fn axpy(dst: &mut [f32], alpha: f32, src: &[f32]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += alpha * s;
        }
    }

    pub fn scale_in_place(dst: &mut [f32], alpha: f32) {
        for d in dst {
            *d *= alpha;
        }
    }

    pub fn lerp(dst: &mut [f32], beta: f32, src: &[f32]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = beta * *d + (1.0 - beta) * s;
        }
    }

    pub fn fill(dst: &mut [f32], value: f32) {
        dst.fill(value);
    }

    pub fn sum_axis0(src: &[f32], n: usize, m: usize, out: &mut [f32]) {
        for i in 0..n {
            let row = &src[i * m..(i + 1) * m];
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
    }

    pub fn sum_axis1_rows(src: &[f32], m: usize, r0: usize, out: &mut [f32]) {
        for (local, o) in out.iter_mut().enumerate() {
            let i = r0 + local;
            *o = src[i * m..(i + 1) * m].iter().sum();
        }
    }

    pub fn gather_rows(src: &[f32], idx: &[usize], chunk: &mut [f32], m: usize) {
        for (local, orow) in chunk.chunks_mut(m).enumerate() {
            let i = idx[local];
            orow.copy_from_slice(&src[i * m..(i + 1) * m]);
        }
    }

    pub fn scatter_add_rows(
        src: &[f32],
        idx: &[usize],
        chunk: &mut [f32],
        r0: usize,
        r1: usize,
        m: usize,
    ) {
        for (i, &t) in idx.iter().enumerate() {
            if t >= r0 && t < r1 {
                let srow = &src[i * m..(i + 1) * m];
                let drow = &mut chunk[(t - r0) * m..(t - r0 + 1) * m];
                for (d, &s) in drow.iter_mut().zip(srow) {
                    *d += s;
                }
            }
        }
    }

    pub fn adam_slice(
        param: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        a: &AdamSliceArgs,
    ) {
        // Verbatim the legacy `adam_update` inner loop: the scalar tier
        // must keep old checkpoints' trajectories bit-identical.
        for i in 0..param.len() {
            let g = grad[i];
            m[i] = a.beta1 * m[i] + (1.0 - a.beta1) * g;
            v[i] = a.beta2 * v[i] + (1.0 - a.beta2) * g * g;
            let m_hat = m[i] / a.bc1;
            let v_hat = v[i] / a.bc2;
            let mut p = param[i];
            if a.weight_decay > 0.0 {
                p -= a.lr * a.weight_decay * p;
            }
            param[i] = p - a.lr * m_hat / (v_hat.sqrt() + a.eps);
        }
    }
}

// ----------------------------------------------------------------------
// AVX2 + FMA tier
// ----------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! Explicit AVX2/FMA kernels. Every function here carries
    //! `#[target_feature(enable = "avx2,fma")]` and is only reached after
    //! runtime detection. Remainder loops mirror the vector body op for
    //! op (`f32::mul_add` where the lanes use FMA, the polynomial `exp`
    //! twin where the lanes use it), which is what makes results
    //! independent of where a pool chunk or vector boundary falls.

    use super::{AdamSliceArgs, Aligned, BinaryOp, MatRef, UnaryOp};
    use std::arch::x86_64::*;

    const LANES: usize = 8;

    // ------------------------------------------------------------------
    // Polynomial exp (Cephes coefficients), vector + bit-exact scalar twin
    // ------------------------------------------------------------------

    const EXP_HI: f32 = 88.0;
    const EXP_LO: f32 = -87.0;
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    // Written digit-for-digit as Cephes publishes them; clippy's
    // shorter spellings round to the same bits but obscure the source.
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f32 = 0.693_359_375;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const EXP_P0: f32 = 1.987_569_1e-4;
    const EXP_P1: f32 = 1.398_199_9e-3;
    const EXP_P2: f32 = 8.333_452e-3;
    const EXP_P3: f32 = 4.166_579_6e-2;
    const EXP_P4: f32 = 1.666_666_5e-1;
    #[allow(clippy::excessive_precision)]
    const EXP_P5: f32 = 5.000_000_2e-1;

    /// Scalar twin of [`exp_v`]: the same clamp, range reduction,
    /// polynomial and 2ᵏ scaling, with `mul_add` everywhere the vector
    /// body uses FMA — bit-identical to one vector lane. NaN propagates
    /// (the comparisons below are ordered, mirroring `minps`/`maxps`).
    #[inline]
    fn exp_lane(x: f32) -> f32 {
        // minps(hi, x): hi < x ? hi : x  — NaN falls through as x.
        let x = if EXP_HI < x { EXP_HI } else { x };
        // maxps(lo, x): lo > x ? lo : x.
        let x = if EXP_LO > x { EXP_LO } else { x };
        let mut n = x.mul_add(LOG2E, 0.5).floor();
        if n > 127.0 {
            n = 127.0;
        }
        let r = (-n).mul_add(LN2_HI, x);
        let r = (-n).mul_add(LN2_LO, r);
        let z = r * r;
        let mut p = EXP_P0;
        p = p.mul_add(r, EXP_P1);
        p = p.mul_add(r, EXP_P2);
        p = p.mul_add(r, EXP_P3);
        p = p.mul_add(r, EXP_P4);
        p = p.mul_add(r, EXP_P5);
        let y = p.mul_add(z, r) + 1.0;
        let scale = f32::from_bits((((n as i32) + 127) << 23) as u32);
        y * scale
    }

    /// 8-lane polynomial `exp`. Each lane performs exactly the operation
    /// chain of [`exp_lane`].
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp_v(x: __m256) -> __m256 {
        let x = _mm256_min_ps(_mm256_set1_ps(EXP_HI), x);
        let x = _mm256_max_ps(_mm256_set1_ps(EXP_LO), x);
        let mut n = _mm256_floor_ps(_mm256_fmadd_ps(
            x,
            _mm256_set1_ps(LOG2E),
            _mm256_set1_ps(0.5),
        ));
        n = _mm256_min_ps(n, _mm256_set1_ps(127.0));
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(LN2_HI), x);
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(LN2_LO), r);
        let z = _mm256_mul_ps(r, r);
        let mut p = _mm256_set1_ps(EXP_P0);
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P1));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P2));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P3));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P4));
        p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(EXP_P5));
        let y = _mm256_add_ps(_mm256_fmadd_ps(p, z, r), _mm256_set1_ps(1.0));
        let emm = _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127));
        let scale = _mm256_castsi256_ps(_mm256_slli_epi32(emm, 23));
        _mm256_mul_ps(y, scale)
    }

    // `min(n, 127)` above guards the `2^n` bit-shift against overflow when
    // the clamp boundary itself rounds up; NaN inputs ride through every
    // step (`minps` ordered-compare semantics) and come out NaN of `y`.

    // ------------------------------------------------------------------
    // Matmul microkernel: packed-B strips, 6-row × 16-column FMA tiles
    // ------------------------------------------------------------------

    use super::scalar::KC;

    /// Column width of one packed B strip: two `f32x8` registers.
    const NR: usize = 2 * LANES;
    /// Row height of one register tile. 6 rows × 2 column registers =
    /// 12 ymm accumulators, leaving registers for the two packed-B loads
    /// and the broadcast operand (15 of 16 ymm in use).
    const MRV: usize = 6;

    /// AVX2 matmul microkernel over strided operands. `b` is repacked
    /// into L1-resident `KC × NR` strips so the inner FMA tiles stream it
    /// from cache instead of re-reading the full panel per row tile (a
    /// transposed `b` is transposed by the pack itself); `a` elements are
    /// broadcast in place through their strides. Every output element is
    /// one ascending-`k` FMA chain (`k`-blocks walked outermost, in
    /// order) whatever tile/remainder path computes it, so results are
    /// chunk-, tile- and stride-invariant.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2 and FMA, `out` is non-empty, and both views
    /// cover what is read (`super::matmul_rows` asserts both).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn matmul_rows(
        a: MatRef<'_>,
        b: MatRef<'_>,
        out: &mut [f32],
        row_offset: usize,
        k: usize,
        m: usize,
    ) {
        debug_assert!(super::matmul_operands_in_bounds(
            a,
            b,
            row_offset,
            out.len() / m,
            k,
            m
        ));
        if a.cs == 1 {
            blocked::<true>(a, b, out, row_offset, k, m);
        } else {
            blocked::<false>(a, b, out, row_offset, k, m);
        }
    }

    /// The blocked loop nest of [`matmul_rows`]. `UNIT_K` is `a.cs == 1`
    /// (a row-major `a`): the instantiation for it reads `a` at
    /// compile-time unit column stride, so every `a` address folds to its
    /// pre-stride form and plain `matmul` pays nothing for strides; only
    /// the address of each `a` read differs between the two.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2 and FMA, `m > 0`, `UNIT_K` implies
    /// `a.cs == 1`, and `matmul_operands_in_bounds(a, b, row_offset,
    /// out.len() / m, k, m)` holds (the safe entry point asserts it). The
    /// tiles and the tail below require the same, for the rows and
    /// columns they are handed.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn blocked<const UNIT_K: bool>(
        a: MatRef<'_>,
        b: MatRef<'_>,
        out: &mut [f32],
        row_offset: usize,
        k: usize,
        m: usize,
    ) {
        let rows = out.len() / m;
        // 16 KiB scratch: one KC × NR strip of B, packed contiguously.
        let mut pack = Aligned([0.0f32; KC * NR]);
        let mut k0 = 0;
        while k0 < k {
            let kb = KC.min(k - k0);
            let mut j = 0;
            while j + NR <= m {
                pack_strip(b, &mut pack.0, k0, kb, j);
                let mut i0 = 0;
                while i0 + MRV <= rows {
                    tile6::<UNIT_K>(a, &pack.0, out, row_offset, i0, k0, kb, j, m);
                    i0 += MRV;
                }
                while i0 < rows {
                    tile1::<UNIT_K>(a, &pack.0, out, row_offset, i0, k0, kb, j, m);
                    i0 += 1;
                }
                j += NR;
            }
            if j < m {
                tail_cols::<UNIT_K>(a, b, &mut pack.0, out, row_offset, rows, k0, kb, j, m);
            }
            k0 += kb;
        }
    }

    /// Copy the `kb × NR` strip of `b` starting at `(k0, j)` into the
    /// packed scratch buffer, row-major with stride `NR`. Contiguous rows
    /// move as vectors; a transposed `b` is transposed by the gather.
    ///
    /// # Safety
    ///
    /// [`blocked`]'s conditions, with `k0 + kb ≤ k`, `kb ≤ KC` and
    /// `j + NR ≤ m`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn pack_strip(b: MatRef<'_>, pack: &mut [f32; KC * NR], k0: usize, kb: usize, j: usize) {
        let pp = pack.as_mut_ptr();
        if b.cs != 1 {
            gather_block(b, pp, NR, k0, kb, j, NR);
            return;
        }
        for kk in 0..kb {
            // SAFETY: `(k0 + kk, j + NR − 1)` lies in the `k × m` block of
            // `b`, whose last element `(k−1)·brs + (m−1)·bcs` is
            // `< b.len()` (asserted at the kernel entry); `kk < kb ≤ KC`
            // keeps `dst` inside `pack`.
            let src = b.data.as_ptr().add((k0 + kk) * b.rs + j);
            let dst = pp.add(kk * NR);
            _mm256_storeu_ps(dst, _mm256_loadu_ps(src));
            _mm256_storeu_ps(dst.add(LANES), _mm256_loadu_ps(src.add(LANES)));
        }
    }

    /// Returns `x` unchanged, but hides its value from the optimizer: an
    /// empty `asm!` that only names a register, so no instruction is
    /// emitted. The tiles pass a strided `a`'s shared column offset
    /// through it after every `k` step. With a runtime column stride,
    /// LLVM otherwise either hoists a spilled base pointer per row per
    /// unrolled step or chains one pointer through an `add` per row, where
    /// one `add` per step on independent row pointers is enough.
    #[inline(always)]
    pub(super) fn opaque_index(mut x: usize) -> usize {
        // SAFETY: the template is a comment; the block touches only the
        // register holding `x` and leaves it unchanged.
        unsafe {
            std::arch::asm!("/* {0} */", inout(reg) x, options(pure, nomem, nostack, preserves_flags));
        }
        x
    }

    /// Gathers the `kb × w` block of `b` at `(k0, j)` into `dst`, row-major
    /// with row stride `ds`, walking each column of the block in order:
    /// for a transposed `b` (`brs = 1`) every column is one contiguous
    /// run of storage. Pure copies — the packed values are the same bits.
    ///
    /// # Safety
    ///
    /// The block must lie inside `b` (the kernel-entry bound on `b`), and
    /// `dst` must be valid for writes at `kk·ds + jj` for `kk < kb`,
    /// `jj < w`.
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn gather_block(
        b: MatRef<'_>,
        dst: *mut f32,
        ds: usize,
        k0: usize,
        kb: usize,
        j: usize,
        w: usize,
    ) {
        for jj in 0..w {
            // SAFETY: element `(k0 + kk, j + jj)` of `b` is in bounds and
            // `dst + kk·ds + jj` is writable, both by the caller contract.
            let src = b.data.as_ptr().add(k0 * b.rs + (j + jj) * b.cs);
            for kk in 0..kb {
                *dst.add(kk * ds + jj) = *src.add(kk * b.rs);
            }
        }
    }

    /// One `MRV = 6` row tile against one packed strip: 12 register
    /// accumulators, loaded from / stored to `out` once per `k`-block.
    /// With `UNIT_K` the column offset is the step counter itself and
    /// folds into load displacements; otherwise it advances by `acs`
    /// through [`opaque_index`].
    ///
    /// # Safety
    ///
    /// [`blocked`]'s conditions, with `k0 + kb ≤ k`, `kb ≤ KC`,
    /// `i0 + 6 ≤ out.len() / m` and `j + NR ≤ m`.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile6<const UNIT_K: bool>(
        a: MatRef<'_>,
        pack: &[f32; KC * NR],
        out: &mut [f32],
        row_offset: usize,
        i0: usize,
        k0: usize,
        kb: usize,
        j: usize,
        m: usize,
    ) {
        let (ars, acs) = (a.rs, if UNIT_K { 1 } else { a.cs });
        let pp = pack.as_ptr();
        let op = out.as_mut_ptr();
        // Row bases: a rows are global, out rows are chunk-local. The six
        // accumulator pairs are written out explicitly (not an array) so
        // the compiler provably keeps all 12 in ymm registers. `ar<r>`
        // points at `(row_offset + i0 + r, k0)`; step `kk` reads each at
        // the shared column offset `ak = kk·acs`.
        //
        // SAFETY: every `a` read is `a[(row_offset + i0 + r)·ars + (k0 + kk)·acs]`
        // with `r < 6`, `kk < kb`: inside the `(row_offset + rows) × k`
        // block, whose last element `(row_offset + rows − 1)·ars + (k−1)·acs`
        // is `< a.len()` (asserted at the kernel entry). `pack` reads stay
        // below `kb·NR ≤ KC·NR`; `out` accesses are rows `i0..i0 + 6 ≤ rows`,
        // columns `j..j + NR ≤ m` of the `rows × m` chunk.
        let ar0 = a.data.as_ptr().add((row_offset + i0) * ars + k0 * acs);
        let ar1 = ar0.add(ars);
        let ar2 = ar0.add(2 * ars);
        let ar3 = ar0.add(3 * ars);
        let ar4 = ar0.add(4 * ars);
        let ar5 = ar0.add(5 * ars);
        let mut ak = 0;
        let o0 = i0 * m + j;
        let mut c00 = _mm256_loadu_ps(op.add(o0));
        let mut c01 = _mm256_loadu_ps(op.add(o0 + LANES));
        let mut c10 = _mm256_loadu_ps(op.add(o0 + m));
        let mut c11 = _mm256_loadu_ps(op.add(o0 + m + LANES));
        let mut c20 = _mm256_loadu_ps(op.add(o0 + 2 * m));
        let mut c21 = _mm256_loadu_ps(op.add(o0 + 2 * m + LANES));
        let mut c30 = _mm256_loadu_ps(op.add(o0 + 3 * m));
        let mut c31 = _mm256_loadu_ps(op.add(o0 + 3 * m + LANES));
        let mut c40 = _mm256_loadu_ps(op.add(o0 + 4 * m));
        let mut c41 = _mm256_loadu_ps(op.add(o0 + 4 * m + LANES));
        let mut c50 = _mm256_loadu_ps(op.add(o0 + 5 * m));
        let mut c51 = _mm256_loadu_ps(op.add(o0 + 5 * m + LANES));
        // One FMA step at `k`-offset `kk`. Kept in a macro so the main
        // loop can unroll by 4: constant `kk + u` pack offsets fold into
        // load displacements and `ak` costs one `add` per step, keeping
        // scalar address arithmetic off the FMA ports (the rolled loop was
        // front-end bound, not FMA bound).
        macro_rules! step {
            ($kk:expr) => {{
                let b0 = _mm256_loadu_ps(pp.add($kk * NR));
                let b1 = _mm256_loadu_ps(pp.add($kk * NR + LANES));
                let a0v = _mm256_broadcast_ss(&*ar0.add(ak));
                c00 = _mm256_fmadd_ps(a0v, b0, c00);
                c01 = _mm256_fmadd_ps(a0v, b1, c01);
                let a1v = _mm256_broadcast_ss(&*ar1.add(ak));
                c10 = _mm256_fmadd_ps(a1v, b0, c10);
                c11 = _mm256_fmadd_ps(a1v, b1, c11);
                let a2v = _mm256_broadcast_ss(&*ar2.add(ak));
                c20 = _mm256_fmadd_ps(a2v, b0, c20);
                c21 = _mm256_fmadd_ps(a2v, b1, c21);
                let a3v = _mm256_broadcast_ss(&*ar3.add(ak));
                c30 = _mm256_fmadd_ps(a3v, b0, c30);
                c31 = _mm256_fmadd_ps(a3v, b1, c31);
                let a4v = _mm256_broadcast_ss(&*ar4.add(ak));
                c40 = _mm256_fmadd_ps(a4v, b0, c40);
                c41 = _mm256_fmadd_ps(a4v, b1, c41);
                let a5v = _mm256_broadcast_ss(&*ar5.add(ak));
                c50 = _mm256_fmadd_ps(a5v, b0, c50);
                c51 = _mm256_fmadd_ps(a5v, b1, c51);
                ak = if UNIT_K {
                    ak + 1
                } else {
                    opaque_index(ak + acs)
                };
            }};
        }
        let mut kk = 0;
        while kk + 4 <= kb {
            step!(kk);
            step!(kk + 1);
            step!(kk + 2);
            step!(kk + 3);
            kk += 4;
        }
        while kk < kb {
            step!(kk);
            kk += 1;
        }
        _mm256_storeu_ps(op.add(o0), c00);
        _mm256_storeu_ps(op.add(o0 + LANES), c01);
        _mm256_storeu_ps(op.add(o0 + m), c10);
        _mm256_storeu_ps(op.add(o0 + m + LANES), c11);
        _mm256_storeu_ps(op.add(o0 + 2 * m), c20);
        _mm256_storeu_ps(op.add(o0 + 2 * m + LANES), c21);
        _mm256_storeu_ps(op.add(o0 + 3 * m), c30);
        _mm256_storeu_ps(op.add(o0 + 3 * m + LANES), c31);
        _mm256_storeu_ps(op.add(o0 + 4 * m), c40);
        _mm256_storeu_ps(op.add(o0 + 4 * m + LANES), c41);
        _mm256_storeu_ps(op.add(o0 + 5 * m), c50);
        _mm256_storeu_ps(op.add(o0 + 5 * m + LANES), c51);
    }

    /// Single-row remainder tile against one packed strip; same
    /// ascending-`kk` FMA chain as [`tile6`].
    ///
    /// # Safety
    ///
    /// As for [`tile6`], with row `i < out.len() / m` in place of the six.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile1<const UNIT_K: bool>(
        a: MatRef<'_>,
        pack: &[f32; KC * NR],
        out: &mut [f32],
        row_offset: usize,
        i: usize,
        k0: usize,
        kb: usize,
        j: usize,
        m: usize,
    ) {
        let acs = if UNIT_K { 1 } else { a.cs };
        // SAFETY: `a` reads are `a[(row_offset + i)·ars + (k0 + kk)·acs]`,
        // `kk < kb`, inside the block whose last element
        // `(row_offset + rows − 1)·ars + (k−1)·acs` is `< a.len()`
        // (asserted at the kernel entry); `pack` and `out` as in `tile6`.
        let a0 = a.data.as_ptr().add((row_offset + i) * a.rs + k0 * acs);
        let pp = pack.as_ptr();
        let op = out.as_mut_ptr();
        let o0 = i * m + j;
        let mut c0 = _mm256_loadu_ps(op.add(o0));
        let mut c1 = _mm256_loadu_ps(op.add(o0 + LANES));
        for kk in 0..kb {
            let av = _mm256_broadcast_ss(&*a0.add(kk * acs));
            c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(pp.add(kk * NR)), c0);
            c1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(pp.add(kk * NR + LANES)), c1);
        }
        _mm256_storeu_ps(op.add(o0), c0);
        _mm256_storeu_ps(op.add(o0 + LANES), c1);
    }

    /// Column tail (`m % NR` rightmost columns) for one `k`-block and
    /// every row: an 8-wide vector walk with a `mul_add` scalar
    /// remainder, ascending `kk` like the tiles. `b` is read in place
    /// when its columns are contiguous and otherwise first gathered into
    /// `scratch` (which must hold `kb × (m − j0)` values). Shared with the
    /// AVX-512 tier (identical chains at any lane width); `UNIT_K` as in
    /// [`blocked`].
    ///
    /// # Safety
    ///
    /// [`blocked`]'s conditions, with `k0 + kb ≤ k`, `rows ≤ out.len() / m`
    /// and `j0 < m`.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn tail_cols<const UNIT_K: bool>(
        a: MatRef<'_>,
        b: MatRef<'_>,
        scratch: &mut [f32],
        out: &mut [f32],
        row_offset: usize,
        rows: usize,
        k0: usize,
        kb: usize,
        j0: usize,
        m: usize,
    ) {
        let acs = if UNIT_K { 1 } else { a.cs };
        let w = m - j0;
        // SAFETY: the `kb × w` block of `b` at `(k0, j0)` is inside the
        // `k × m` block whose last element `(k−1)·brs + (m−1)·bcs` is
        // `< b.len()` (asserted at the kernel entry); the gather writes
        // `kb·w ≤ scratch.len()` values. `bt[kk·bts + (j − j0)]` is then
        // `B[k0 + kk][j]` for `kk < kb`, `j0 ≤ j < m`.
        let (bt, bts) = if b.cs == 1 {
            (b.data.as_ptr().add(k0 * b.rs + j0), b.rs)
        } else {
            debug_assert!(kb * w <= scratch.len());
            gather_block(b, scratch.as_mut_ptr(), w, k0, kb, j0, w);
            (scratch.as_ptr(), w)
        };
        let op = out.as_mut_ptr();
        for i in 0..rows {
            // SAFETY: `a` reads are `a[(row_offset + i)·ars + (k0 + kk)·acs]`
            // with `i < rows`, `kk < kb`, inside the block whose last
            // element `(row_offset + rows − 1)·ars + (k−1)·acs` is
            // `< a.len()` (asserted at the kernel entry); `out` accesses
            // are row `i < rows`, columns `j0..m` of the chunk.
            let a0 = a.data.as_ptr().add((row_offset + i) * a.rs + k0 * acs);
            let o0 = i * m;
            let mut j = j0;
            while j + LANES <= m {
                let mut c0 = _mm256_loadu_ps(op.add(o0 + j));
                for kk in 0..kb {
                    let av = _mm256_broadcast_ss(&*a0.add(kk * acs));
                    c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bt.add(kk * bts + j - j0)), c0);
                }
                _mm256_storeu_ps(op.add(o0 + j), c0);
                j += LANES;
            }
            while j < m {
                let mut acc = *op.add(o0 + j);
                for kk in 0..kb {
                    acc = (*a0.add(kk * acs)).mul_add(*bt.add(kk * bts + j - j0), acc);
                }
                *op.add(o0 + j) = acc;
                j += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Elementwise kernels
    // ------------------------------------------------------------------

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn binary(op: BinaryOp, a: &[f32], b: &[f32], out: &mut [f32]) {
        let n = out.len();
        let (ap, bp, op_) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
        macro_rules! body {
            ($vf:expr, $sf:expr) => {{
                let mut i = 0;
                while i + LANES <= n {
                    let x = _mm256_loadu_ps(ap.add(i));
                    let y = _mm256_loadu_ps(bp.add(i));
                    _mm256_storeu_ps(op_.add(i), $vf(x, y));
                    i += LANES;
                }
                while i < n {
                    *op_.add(i) = $sf(*ap.add(i), *bp.add(i));
                    i += 1;
                }
            }};
        }
        match op {
            BinaryOp::Add => body!(|x, y| _mm256_add_ps(x, y), |x: f32, y: f32| x + y),
            BinaryOp::Sub => body!(|x, y| _mm256_sub_ps(x, y), |x: f32, y: f32| x - y),
            BinaryOp::Mul => body!(|x, y| _mm256_mul_ps(x, y), |x: f32, y: f32| x * y),
            BinaryOp::Div => body!(|x, y| _mm256_div_ps(x, y), |x: f32, y: f32| x / y),
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn unary(op: UnaryOp, src: &[f32], out: &mut [f32]) {
        let n = out.len();
        let (sp, op_) = (src.as_ptr(), out.as_mut_ptr());
        let sign = _mm256_set1_ps(-0.0);
        macro_rules! body {
            ($vf:expr, $sf:expr) => {{
                let mut i = 0;
                while i + LANES <= n {
                    _mm256_storeu_ps(op_.add(i), $vf(_mm256_loadu_ps(sp.add(i))));
                    i += LANES;
                }
                while i < n {
                    *op_.add(i) = $sf(*sp.add(i));
                    i += 1;
                }
            }};
        }
        match op {
            UnaryOp::Scale(alpha) => {
                let va = _mm256_set1_ps(alpha);
                body!(|x| _mm256_mul_ps(x, va), |x: f32| x * alpha)
            }
            UnaryOp::AddScalar(alpha) => {
                let va = _mm256_set1_ps(alpha);
                body!(|x| _mm256_add_ps(x, va), |x: f32| x + alpha)
            }
            UnaryOp::Neg => body!(|x| _mm256_xor_ps(x, sign), |x: f32| -x),
            UnaryOp::Abs => body!(|x| _mm256_andnot_ps(sign, x), f32::abs),
            UnaryOp::Square => body!(|x| _mm256_mul_ps(x, x), |x: f32| x * x),
            UnaryOp::Sqrt => body!(|x| _mm256_sqrt_ps(x), f32::sqrt),
            UnaryOp::Relu => {
                let zero = _mm256_setzero_ps();
                // maxps(x, 0) returns 0 for NaN x, matching f32::max.
                body!(|x| _mm256_max_ps(x, zero), |x: f32| x.max(0.0))
            }
            UnaryOp::Exp => body!(|x| exp_v(x), exp_lane),
            UnaryOp::Sigmoid => {
                let one = _mm256_set1_ps(1.0);
                body!(
                    |x| _mm256_div_ps(one, _mm256_add_ps(one, exp_v(_mm256_xor_ps(x, sign)))),
                    |x: f32| 1.0 / (1.0 + exp_lane(-x))
                )
            }
            UnaryOp::Silu => {
                let one = _mm256_set1_ps(1.0);
                body!(
                    |x| _mm256_div_ps(x, _mm256_add_ps(one, exp_v(_mm256_xor_ps(x, sign)))),
                    |x: f32| x / (1.0 + exp_lane(-x))
                )
            }
            UnaryOp::SiluGrad => {
                let one = _mm256_set1_ps(1.0);
                body!(
                    |x| {
                        let s =
                            _mm256_div_ps(one, _mm256_add_ps(one, exp_v(_mm256_xor_ps(x, sign))));
                        _mm256_mul_ps(s, _mm256_fmadd_ps(x, _mm256_sub_ps(one, s), one))
                    },
                    |x: f32| {
                        let s = 1.0 / (1.0 + exp_lane(-x));
                        s * x.mul_add(1.0 - s, 1.0)
                    }
                )
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy(dst: &mut [f32], alpha: f32, src: &[f32]) {
        let n = dst.len();
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let va = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + LANES <= n {
            let d = _mm256_loadu_ps(dp.add(i));
            let s = _mm256_loadu_ps(sp.add(i));
            _mm256_storeu_ps(dp.add(i), _mm256_fmadd_ps(va, s, d));
            i += LANES;
        }
        while i < n {
            *dp.add(i) = alpha.mul_add(*sp.add(i), *dp.add(i));
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scale_in_place(dst: &mut [f32], alpha: f32) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let va = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + LANES <= n {
            _mm256_storeu_ps(dp.add(i), _mm256_mul_ps(_mm256_loadu_ps(dp.add(i)), va));
            i += LANES;
        }
        while i < n {
            *dp.add(i) *= alpha;
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn lerp(dst: &mut [f32], beta: f32, src: &[f32]) {
        let n = dst.len();
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let vb = _mm256_set1_ps(beta);
        let vob = _mm256_set1_ps(1.0 - beta);
        let mut i = 0;
        while i + LANES <= n {
            let d = _mm256_loadu_ps(dp.add(i));
            let s = _mm256_loadu_ps(sp.add(i));
            // beta*d + (1-beta)*s, both products fused in vector and tail.
            _mm256_storeu_ps(dp.add(i), _mm256_fmadd_ps(vb, d, _mm256_mul_ps(vob, s)));
            i += LANES;
        }
        let ob = 1.0 - beta;
        while i < n {
            *dp.add(i) = beta.mul_add(*dp.add(i), ob * *sp.add(i));
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fill(dst: &mut [f32], value: f32) {
        let n = dst.len();
        let dp = dst.as_mut_ptr();
        let v = _mm256_set1_ps(value);
        let mut i = 0;
        while i + LANES <= n {
            _mm256_storeu_ps(dp.add(i), v);
            i += LANES;
        }
        while i < n {
            *dp.add(i) = value;
            i += 1;
        }
    }

    // ------------------------------------------------------------------
    // Reductions and row movement
    // ------------------------------------------------------------------

    /// # Safety
    ///
    /// The CPU supports AVX2 and FMA, `out.len() == m` and
    /// `src.len() >= n * m` (`super::sum_axis0` asserts both).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sum_axis0(src: &[f32], n: usize, m: usize, out: &mut [f32]) {
        let w = out.len();
        let (sp, op_) = (src.as_ptr(), out.as_mut_ptr());
        for i in 0..n {
            let row = sp.add(i * m);
            let mut j = 0;
            while j + LANES <= w {
                let o = _mm256_loadu_ps(op_.add(j));
                _mm256_storeu_ps(op_.add(j), _mm256_add_ps(o, _mm256_loadu_ps(row.add(j))));
                j += LANES;
            }
            while j < w {
                *op_.add(j) += *row.add(j);
                j += 1;
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sum_axis1_rows(src: &[f32], m: usize, r0: usize, out: &mut [f32]) {
        for (local, o) in out.iter_mut().enumerate() {
            let row = src.as_ptr().add((r0 + local) * m);
            let mut acc = _mm256_setzero_ps();
            let mut j = 0;
            while j + LANES <= m {
                acc = _mm256_add_ps(acc, _mm256_loadu_ps(row.add(j)));
                j += LANES;
            }
            // Fixed-order horizontal fold: (lo + hi) 4-lane pairs, then
            // a tree inside the 128-bit half.
            let lo = _mm256_castps256_ps128(acc);
            let hi = _mm256_extractf128_ps(acc, 1);
            let q = _mm_add_ps(lo, hi);
            let sh = _mm_movehl_ps(q, q);
            let d = _mm_add_ps(q, sh);
            let sh2 = _mm_shuffle_ps(d, d, 0b01);
            let mut s = _mm_cvtss_f32(_mm_add_ss(d, sh2));
            while j < m {
                s += *row.add(j);
                j += 1;
            }
            *o = s;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gather_rows(src: &[f32], idx: &[usize], chunk: &mut [f32], m: usize) {
        let (sp, cp) = (src.as_ptr(), chunk.as_mut_ptr());
        for (local, &i) in idx.iter().enumerate() {
            let s = sp.add(i * m);
            let d = cp.add(local * m);
            let mut j = 0;
            while j + LANES <= m {
                _mm256_storeu_ps(d.add(j), _mm256_loadu_ps(s.add(j)));
                j += LANES;
            }
            while j < m {
                *d.add(j) = *s.add(j);
                j += 1;
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scatter_add_rows(
        src: &[f32],
        idx: &[usize],
        chunk: &mut [f32],
        r0: usize,
        r1: usize,
        m: usize,
    ) {
        let (sp, cp) = (src.as_ptr(), chunk.as_mut_ptr());
        for (i, &t) in idx.iter().enumerate() {
            if t >= r0 && t < r1 {
                let s = sp.add(i * m);
                let d = cp.add((t - r0) * m);
                let mut j = 0;
                while j + LANES <= m {
                    let dv = _mm256_loadu_ps(d.add(j));
                    _mm256_storeu_ps(d.add(j), _mm256_add_ps(dv, _mm256_loadu_ps(s.add(j))));
                    j += LANES;
                }
                while j < m {
                    *d.add(j) += *s.add(j);
                    j += 1;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Fused Adam
    // ------------------------------------------------------------------

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn adam_slice(
        param: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        a: &AdamSliceArgs,
    ) {
        let n = param.len();
        let (pp, gp, mp, vp) = (
            param.as_mut_ptr(),
            grad.as_ptr(),
            m.as_mut_ptr(),
            v.as_mut_ptr(),
        );
        let vb1 = _mm256_set1_ps(a.beta1);
        let vob1 = _mm256_set1_ps(1.0 - a.beta1);
        let vb2 = _mm256_set1_ps(a.beta2);
        let vob2 = _mm256_set1_ps(1.0 - a.beta2);
        let vbc1 = _mm256_set1_ps(a.bc1);
        let vbc2 = _mm256_set1_ps(a.bc2);
        let vlr = _mm256_set1_ps(a.lr);
        let veps = _mm256_set1_ps(a.eps);
        let decay = a.weight_decay > 0.0;
        let vlrwd = _mm256_set1_ps(a.lr * a.weight_decay);
        let mut i = 0;
        while i + LANES <= n {
            let g = _mm256_loadu_ps(gp.add(i));
            let mm = _mm256_fmadd_ps(vb1, _mm256_loadu_ps(mp.add(i)), _mm256_mul_ps(vob1, g));
            let vv = _mm256_fmadd_ps(
                vb2,
                _mm256_loadu_ps(vp.add(i)),
                _mm256_mul_ps(vob2, _mm256_mul_ps(g, g)),
            );
            _mm256_storeu_ps(mp.add(i), mm);
            _mm256_storeu_ps(vp.add(i), vv);
            let m_hat = _mm256_div_ps(mm, vbc1);
            let v_hat = _mm256_div_ps(vv, vbc2);
            let mut p = _mm256_loadu_ps(pp.add(i));
            if decay {
                p = _mm256_fnmadd_ps(vlrwd, p, p);
            }
            let denom = _mm256_add_ps(_mm256_sqrt_ps(v_hat), veps);
            let upd = _mm256_div_ps(_mm256_mul_ps(vlr, m_hat), denom);
            _mm256_storeu_ps(pp.add(i), _mm256_sub_ps(p, upd));
            i += LANES;
        }
        let (ob1, ob2, lrwd) = (1.0 - a.beta1, 1.0 - a.beta2, a.lr * a.weight_decay);
        while i < n {
            let g = *gp.add(i);
            let mm = a.beta1.mul_add(*mp.add(i), ob1 * g);
            let vv = a.beta2.mul_add(*vp.add(i), ob2 * (g * g));
            *mp.add(i) = mm;
            *vp.add(i) = vv;
            let m_hat = mm / a.bc1;
            let v_hat = vv / a.bc2;
            let mut p = *pp.add(i);
            if decay {
                p = (-lrwd).mul_add(p, p);
            }
            *pp.add(i) = p - (a.lr * m_hat) / (v_hat.sqrt() + a.eps);
            i += 1;
        }
    }
}

/// The AVX-512 tier: only the matmul microkernel lives here — every
/// other kernel dispatches to [`avx2`] unchanged. The tile is the same
/// packed-B design as the AVX2 matmul widened to 16-lane `zmm`
/// registers, and every output element remains one ascending-`k` FMA
/// chain, so this tier is **bitwise identical** to `Avx2` (blocking
/// parameters and lane width never enter the per-element op chain). It
/// exists purely for the ~2× FMA throughput of chips with two 512-bit
/// FMA units.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{Aligned, MatRef};
    use core::arch::x86_64::*;

    /// 16 `f32` lanes per `zmm` register.
    const WLANES: usize = 16;
    /// Column width of one packed B strip: two `zmm` registers.
    const NR: usize = 2 * WLANES;
    /// Row height of one register tile: 8 rows × 2 column registers =
    /// 16 `zmm` accumulators (half the AVX-512 register file), leaving
    /// ample room for the packed-B loads and the broadcast operand.
    const MRV: usize = 8;
    /// `k`-block depth: one packed strip is `KC × NR × 4 B` = 16 KiB,
    /// L1-resident alongside the `a` tile rows.
    const KC: usize = 128;

    /// AVX-512 matmul microkernel; see [`super::avx2::matmul_rows`] for
    /// the blocking scheme and determinism argument.
    ///
    /// # Safety
    ///
    /// As for [`super::avx2::matmul_rows`], on a CPU that also supports
    /// AVX-512F.
    #[target_feature(enable = "avx2,fma,avx512f")]
    pub unsafe fn matmul_rows(
        a: MatRef<'_>,
        b: MatRef<'_>,
        out: &mut [f32],
        row_offset: usize,
        k: usize,
        m: usize,
    ) {
        debug_assert!(super::matmul_operands_in_bounds(
            a,
            b,
            row_offset,
            out.len() / m,
            k,
            m
        ));
        if a.cs == 1 {
            blocked::<true>(a, b, out, row_offset, k, m);
        } else {
            blocked::<false>(a, b, out, row_offset, k, m);
        }
    }

    /// The blocked loop nest; `UNIT_K` as in the AVX2 tier's `blocked`.
    ///
    /// # Safety
    ///
    /// As for the AVX2 `blocked`, on a CPU that also supports AVX-512F.
    #[target_feature(enable = "avx2,fma,avx512f")]
    unsafe fn blocked<const UNIT_K: bool>(
        a: MatRef<'_>,
        b: MatRef<'_>,
        out: &mut [f32],
        row_offset: usize,
        k: usize,
        m: usize,
    ) {
        let rows = out.len() / m;
        let mut pack = Aligned([0.0f32; KC * NR]);
        let mut k0 = 0;
        while k0 < k {
            let kb = KC.min(k - k0);
            let mut j = 0;
            while j + NR <= m {
                pack_strip(b, &mut pack.0, k0, kb, j);
                let mut i0 = 0;
                while i0 + MRV <= rows {
                    tile8::<UNIT_K>(a, &pack.0, out, row_offset, i0, k0, kb, j, m);
                    i0 += MRV;
                }
                while i0 < rows {
                    tile1::<UNIT_K>(a, &pack.0, out, row_offset, i0, k0, kb, j, m);
                    i0 += 1;
                }
                j += NR;
            }
            if j < m {
                // The 8-wide AVX2 column tail: FMA chains are identical
                // at any lane width, so mixing tiers per column is safe.
                // `pack` (KC·NR ≥ kb·(m − j)) is free to stage a gather.
                super::avx2::tail_cols::<UNIT_K>(
                    a,
                    b,
                    &mut pack.0,
                    out,
                    row_offset,
                    rows,
                    k0,
                    kb,
                    j,
                    m,
                );
            }
            k0 += kb;
        }
    }

    /// Copy the `kb × NR` strip of `b` starting at `(k0, j)` into the
    /// packed scratch buffer, row-major with stride `NR`. Contiguous rows
    /// move as vectors; a transposed `b` is transposed by the gather.
    ///
    /// # Safety
    ///
    /// [`blocked`]'s conditions, with `k0 + kb ≤ k`, `kb ≤ KC` and
    /// `j + NR ≤ m`.
    #[target_feature(enable = "avx2,fma,avx512f")]
    unsafe fn pack_strip(b: MatRef<'_>, pack: &mut [f32; KC * NR], k0: usize, kb: usize, j: usize) {
        let pp = pack.as_mut_ptr();
        if b.cs != 1 {
            super::avx2::gather_block(b, pp, NR, k0, kb, j, NR);
            return;
        }
        for kk in 0..kb {
            // SAFETY: `(k0 + kk, j + NR − 1)` lies in the `k × m` block of
            // `b`, whose last element `(k−1)·brs + (m−1)·bcs` is
            // `< b.len()` (asserted at the kernel entry); `kk < kb ≤ KC`
            // keeps `dst` inside `pack`.
            let src = b.data.as_ptr().add((k0 + kk) * b.rs + j);
            let dst = pp.add(kk * NR);
            _mm512_storeu_ps(dst, _mm512_loadu_ps(src));
            _mm512_storeu_ps(dst.add(WLANES), _mm512_loadu_ps(src.add(WLANES)));
        }
    }

    /// One `MRV = 8` row tile against one packed strip: 16 `zmm`
    /// accumulators, loaded from / stored to `out` once per `k`-block.
    /// `UNIT_K` as in the AVX2 `tile6`.
    ///
    /// # Safety
    ///
    /// [`blocked`]'s conditions, with `k0 + kb ≤ k`, `kb ≤ KC`,
    /// `i0 + 8 ≤ out.len() / m` and `j + NR ≤ m`.
    #[target_feature(enable = "avx2,fma,avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile8<const UNIT_K: bool>(
        a: MatRef<'_>,
        pack: &[f32; KC * NR],
        out: &mut [f32],
        row_offset: usize,
        i0: usize,
        k0: usize,
        kb: usize,
        j: usize,
        m: usize,
    ) {
        let (ars, acs) = (a.rs, if UNIT_K { 1 } else { a.cs });
        let pp = pack.as_ptr();
        let op = out.as_mut_ptr();
        // Row bases: a rows are global, out rows are chunk-local. `ar<r>`
        // points at `(row_offset + i0 + r, k0)`; step `kk` reads each at
        // the shared column offset `ak = kk·acs`.
        //
        // SAFETY: every `a` read is `a[(row_offset + i0 + r)·ars + (k0 + kk)·acs]`
        // with `r < 8`, `kk < kb`: inside the `(row_offset + rows) × k`
        // block, whose last element `(row_offset + rows − 1)·ars + (k−1)·acs`
        // is `< a.len()` (asserted at the kernel entry). `pack` reads stay
        // below `kb·NR ≤ KC·NR`; `out` accesses are rows `i0..i0 + 8 ≤ rows`,
        // columns `j..j + NR ≤ m` of the `rows × m` chunk.
        let ar0 = a.data.as_ptr().add((row_offset + i0) * ars + k0 * acs);
        let ar1 = ar0.add(ars);
        let ar2 = ar0.add(2 * ars);
        let ar3 = ar0.add(3 * ars);
        let ar4 = ar0.add(4 * ars);
        let ar5 = ar0.add(5 * ars);
        let ar6 = ar0.add(6 * ars);
        let ar7 = ar0.add(7 * ars);
        let mut ak = 0;
        let o0 = i0 * m + j;
        let mut c00 = _mm512_loadu_ps(op.add(o0));
        let mut c01 = _mm512_loadu_ps(op.add(o0 + WLANES));
        let mut c10 = _mm512_loadu_ps(op.add(o0 + m));
        let mut c11 = _mm512_loadu_ps(op.add(o0 + m + WLANES));
        let mut c20 = _mm512_loadu_ps(op.add(o0 + 2 * m));
        let mut c21 = _mm512_loadu_ps(op.add(o0 + 2 * m + WLANES));
        let mut c30 = _mm512_loadu_ps(op.add(o0 + 3 * m));
        let mut c31 = _mm512_loadu_ps(op.add(o0 + 3 * m + WLANES));
        let mut c40 = _mm512_loadu_ps(op.add(o0 + 4 * m));
        let mut c41 = _mm512_loadu_ps(op.add(o0 + 4 * m + WLANES));
        let mut c50 = _mm512_loadu_ps(op.add(o0 + 5 * m));
        let mut c51 = _mm512_loadu_ps(op.add(o0 + 5 * m + WLANES));
        let mut c60 = _mm512_loadu_ps(op.add(o0 + 6 * m));
        let mut c61 = _mm512_loadu_ps(op.add(o0 + 6 * m + WLANES));
        let mut c70 = _mm512_loadu_ps(op.add(o0 + 7 * m));
        let mut c71 = _mm512_loadu_ps(op.add(o0 + 7 * m + WLANES));
        // Unrolled by 4 like the AVX2 tile: constant pack offsets fold
        // into load displacements and `ak` costs one `add` per step,
        // keeping address arithmetic off the FMA ports.
        macro_rules! step {
            ($kk:expr) => {{
                let b0 = _mm512_loadu_ps(pp.add($kk * NR));
                let b1 = _mm512_loadu_ps(pp.add($kk * NR + WLANES));
                let a0v = _mm512_set1_ps(*ar0.add(ak));
                c00 = _mm512_fmadd_ps(a0v, b0, c00);
                c01 = _mm512_fmadd_ps(a0v, b1, c01);
                let a1v = _mm512_set1_ps(*ar1.add(ak));
                c10 = _mm512_fmadd_ps(a1v, b0, c10);
                c11 = _mm512_fmadd_ps(a1v, b1, c11);
                let a2v = _mm512_set1_ps(*ar2.add(ak));
                c20 = _mm512_fmadd_ps(a2v, b0, c20);
                c21 = _mm512_fmadd_ps(a2v, b1, c21);
                let a3v = _mm512_set1_ps(*ar3.add(ak));
                c30 = _mm512_fmadd_ps(a3v, b0, c30);
                c31 = _mm512_fmadd_ps(a3v, b1, c31);
                let a4v = _mm512_set1_ps(*ar4.add(ak));
                c40 = _mm512_fmadd_ps(a4v, b0, c40);
                c41 = _mm512_fmadd_ps(a4v, b1, c41);
                let a5v = _mm512_set1_ps(*ar5.add(ak));
                c50 = _mm512_fmadd_ps(a5v, b0, c50);
                c51 = _mm512_fmadd_ps(a5v, b1, c51);
                let a6v = _mm512_set1_ps(*ar6.add(ak));
                c60 = _mm512_fmadd_ps(a6v, b0, c60);
                c61 = _mm512_fmadd_ps(a6v, b1, c61);
                let a7v = _mm512_set1_ps(*ar7.add(ak));
                c70 = _mm512_fmadd_ps(a7v, b0, c70);
                c71 = _mm512_fmadd_ps(a7v, b1, c71);
                ak = if UNIT_K {
                    ak + 1
                } else {
                    super::avx2::opaque_index(ak + acs)
                };
            }};
        }
        let mut kk = 0;
        while kk + 4 <= kb {
            step!(kk);
            step!(kk + 1);
            step!(kk + 2);
            step!(kk + 3);
            kk += 4;
        }
        while kk < kb {
            step!(kk);
            kk += 1;
        }
        _mm512_storeu_ps(op.add(o0), c00);
        _mm512_storeu_ps(op.add(o0 + WLANES), c01);
        _mm512_storeu_ps(op.add(o0 + m), c10);
        _mm512_storeu_ps(op.add(o0 + m + WLANES), c11);
        _mm512_storeu_ps(op.add(o0 + 2 * m), c20);
        _mm512_storeu_ps(op.add(o0 + 2 * m + WLANES), c21);
        _mm512_storeu_ps(op.add(o0 + 3 * m), c30);
        _mm512_storeu_ps(op.add(o0 + 3 * m + WLANES), c31);
        _mm512_storeu_ps(op.add(o0 + 4 * m), c40);
        _mm512_storeu_ps(op.add(o0 + 4 * m + WLANES), c41);
        _mm512_storeu_ps(op.add(o0 + 5 * m), c50);
        _mm512_storeu_ps(op.add(o0 + 5 * m + WLANES), c51);
        _mm512_storeu_ps(op.add(o0 + 6 * m), c60);
        _mm512_storeu_ps(op.add(o0 + 6 * m + WLANES), c61);
        _mm512_storeu_ps(op.add(o0 + 7 * m), c70);
        _mm512_storeu_ps(op.add(o0 + 7 * m + WLANES), c71);
    }

    /// Single-row remainder tile against one packed strip; same
    /// ascending-`kk` FMA chain as [`tile8`].
    ///
    /// # Safety
    ///
    /// As for [`tile8`], with row `i < out.len() / m` in place of the eight.
    #[target_feature(enable = "avx2,fma,avx512f")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile1<const UNIT_K: bool>(
        a: MatRef<'_>,
        pack: &[f32; KC * NR],
        out: &mut [f32],
        row_offset: usize,
        i: usize,
        k0: usize,
        kb: usize,
        j: usize,
        m: usize,
    ) {
        let acs = if UNIT_K { 1 } else { a.cs };
        // SAFETY: `a` reads are `a[(row_offset + i)·ars + (k0 + kk)·acs]`,
        // `kk < kb`, inside the block whose last element
        // `(row_offset + rows − 1)·ars + (k−1)·acs` is `< a.len()`
        // (asserted at the kernel entry); `pack` and `out` as in `tile8`.
        let a0 = a.data.as_ptr().add((row_offset + i) * a.rs + k0 * acs);
        let pp = pack.as_ptr();
        let op = out.as_mut_ptr();
        let o0 = i * m + j;
        let mut c0 = _mm512_loadu_ps(op.add(o0));
        let mut c1 = _mm512_loadu_ps(op.add(o0 + WLANES));
        for kk in 0..kb {
            let av = _mm512_set1_ps(*a0.add(kk * acs));
            c0 = _mm512_fmadd_ps(av, _mm512_loadu_ps(pp.add(kk * NR)), c0);
            c1 = _mm512_fmadd_ps(av, _mm512_loadu_ps(pp.add(kk * NR + WLANES)), c1);
        }
        _mm512_storeu_ps(op.add(o0), c0);
        _mm512_storeu_ps(op.add(o0 + WLANES), c1);
    }
}

// Non-x86 fallback: the dispatch macro never selects these modules, but
// the names must resolve.
#[cfg(not(target_arch = "x86_64"))]
mod avx2 {}
#[cfg(not(target_arch = "x86_64"))]
mod avx512 {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` on this thread with the tier forced.
    fn with_tier<T>(tier: SimdTier, f: impl FnOnce() -> T) -> T {
        let _rt = Runtime::current().with_simd(tier).enter();
        f()
    }

    #[test]
    fn override_round_trips_and_clamps() {
        with_tier(SimdTier::Scalar, || {
            assert_eq!(active_tier(), SimdTier::Scalar);
        });
        with_tier(SimdTier::Avx2, || {
            let t = active_tier();
            if avx2_available() {
                assert_eq!(t, SimdTier::Avx2);
            } else {
                assert_eq!(t, SimdTier::Scalar);
            }
        });
        with_tier(SimdTier::Avx512, || {
            let t = active_tier();
            if avx512_available() {
                assert_eq!(t, SimdTier::Avx512);
            } else if avx2_available() {
                assert_eq!(t, SimdTier::Avx2);
            } else {
                assert_eq!(t, SimdTier::Scalar);
            }
        });
    }

    #[test]
    fn avx512_matmul_is_bitwise_identical_to_avx2() {
        if !avx512_available() {
            return;
        }
        // Awkward shapes: exercise the 8-row and 1-row tiles, the packed
        // strips, and the unpacked column tail of both vector kernels.
        for (n, k, m) in [(13, 40, 37), (9, 300, 64), (70, 129, 50)] {
            let a: Vec<f32> = (0..n * k).map(|i| (i as f32 * 0.13).sin()).collect();
            let b: Vec<f32> = (0..k * m).map(|i| (i as f32 * 0.07).cos()).collect();
            let a = MatRef {
                data: &a,
                rs: k,
                cs: 1,
            };
            let b = MatRef {
                data: &b,
                rs: m,
                cs: 1,
            };
            let mut x2 = vec![0.0; n * m];
            let mut x5 = vec![0.0; n * m];
            with_tier(SimdTier::Avx2, || matmul_rows(a, b, &mut x2, 0, k, m));
            with_tier(SimdTier::Avx512, || matmul_rows(a, b, &mut x5, 0, k, m));
            assert_eq!(bits(&x2), bits(&x5), "({n},{k},{m}) diverged");
        }
    }

    #[test]
    fn lane_exact_ops_are_bitwise_equal_across_tiers() {
        if !avx2_available() {
            return;
        }
        let a: Vec<f32> = (0..1003).map(|i| (i as f32 * 0.37).sin() * 8.0).collect();
        let b: Vec<f32> = (0..1003)
            .map(|i| (i as f32 * 0.11).cos() * 3.0 + 0.5)
            .collect();
        for op in [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div] {
            let mut s = vec![0.0; a.len()];
            let mut x = vec![0.0; a.len()];
            with_tier(SimdTier::Scalar, || binary(op, &a, &b, &mut s));
            with_tier(SimdTier::Avx2, || binary(op, &a, &b, &mut x));
            assert_eq!(bits(&s), bits(&x), "{op:?} diverged across tiers");
        }
        for op in [
            UnaryOp::Scale(1.7),
            UnaryOp::AddScalar(-0.3),
            UnaryOp::Neg,
            UnaryOp::Abs,
            UnaryOp::Square,
            UnaryOp::Relu,
        ] {
            let mut s = vec![0.0; a.len()];
            let mut x = vec![0.0; a.len()];
            with_tier(SimdTier::Scalar, || unary(op, &a, &mut s));
            with_tier(SimdTier::Avx2, || unary(op, &a, &mut x));
            assert_eq!(bits(&s), bits(&x), "{op:?} diverged across tiers");
        }
    }

    #[test]
    fn polynomial_exp_family_matches_libm_tightly() {
        if !avx2_available() {
            return;
        }
        let xs: Vec<f32> = (-8000..8000).map(|i| i as f32 * 1e-2).collect();
        for op in [
            UnaryOp::Exp,
            UnaryOp::Sigmoid,
            UnaryOp::Silu,
            UnaryOp::SiluGrad,
        ] {
            let mut reference = vec![0.0; xs.len()];
            let mut poly = vec![0.0; xs.len()];
            with_tier(SimdTier::Scalar, || unary(op, &xs, &mut reference));
            with_tier(SimdTier::Avx2, || unary(op, &xs, &mut poly));
            for ((&x, &r), &p) in xs.iter().zip(&reference).zip(&poly) {
                let tol = 1e-6 + 4e-6 * r.abs().max(1.0);
                assert!(
                    (r - p).abs() <= tol || (r - p).abs() <= 4e-6 * r.abs(),
                    "{op:?}({x}) = {r} (libm) vs {p} (poly)"
                );
            }
        }
    }

    #[test]
    fn exp_family_propagates_nan_and_underflows_to_zero() {
        if !avx2_available() {
            return;
        }
        let xs = [f32::NAN, -200.0, 200.0, 0.0];
        let mut out = vec![0.0; xs.len()];
        with_tier(SimdTier::Avx2, || unary(UnaryOp::Exp, &xs, &mut out));
        assert!(out[0].is_nan(), "exp(NaN) must stay NaN, got {}", out[0]);
        assert!(out[1] < 1e-30, "exp(-200) must be ~0, got {}", out[1]);
        assert!(out[2] > 1e30, "exp(200) must be huge, got {}", out[2]);
        assert_eq!(out[3], 1.0);
    }

    #[test]
    fn avx2_results_are_chunk_offset_invariant() {
        if !avx2_available() {
            return;
        }
        // Computing a slice in one call must equal computing it as two
        // sub-slices split at an odd offset — the property pooled kernels
        // rely on when chunk boundaries move with the pool size.
        let src: Vec<f32> = (0..517).map(|i| (i as f32 * 0.31).sin() * 4.0).collect();
        with_tier(SimdTier::Avx2, || {
            let mut whole = vec![0.0; src.len()];
            unary(UnaryOp::Silu, &src, &mut whole);
            let mut split = vec![0.0; src.len()];
            let cut = 129;
            unary(UnaryOp::Silu, &src[..cut], &mut split[..cut]);
            unary(UnaryOp::Silu, &src[cut..], &mut split[cut..]);
            assert_eq!(bits(&whole), bits(&split));

            let mut d1 = src.clone();
            axpy(&mut d1, 0.37, &src);
            let mut d2 = src.clone();
            axpy(&mut d2[..cut], 0.37, &src[..cut]);
            axpy(&mut d2[cut..], 0.37, &src[cut..]);
            assert_eq!(bits(&d1), bits(&d2));
        });
    }

    #[test]
    fn dispatch_counters_advance() {
        let before = DISPATCHES[KernelId::Fill as usize].load(Ordering::Relaxed);
        let mut buf = vec![0.0f32; 16];
        fill(&mut buf, 3.0);
        let after = DISPATCHES[KernelId::Fill as usize].load(Ordering::Relaxed);
        assert!(after > before);
        assert_eq!(buf, vec![3.0; 16]);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}
