//! Dense, row-major `f32` tensors and the numeric kernels used by the
//! autodiff tape.
//!
//! Buffers are reference-counted (`Arc<Vec<f32>>`), so cloning a [`Tensor`]
//! is O(1) and binding model parameters into a tape does not copy data. All
//! kernels here are *pure* (no autodiff); [`crate::Tape`] wraps them with
//! backward rules.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::rng::Rng;

use crate::{pool, recycler, simd, Shape, TensorError};

/// FLOP count (2·n·k·m) below which the matmul variants stay serial: pool
/// dispatch and cache-block bookkeeping cost more than they save.
const MATMUL_PAR_FLOPS: usize = 4_000_000;

/// Element count below which elementwise / copy / scatter kernels stay
/// serial for the same reason.
const ELEM_PAR_MIN: usize = 1 << 16;

/// Element count below which the axis reductions stay serial. Reductions
/// read each input element exactly once and write far fewer, so they are
/// memory-bound with no reuse — pool dispatch only pays for itself on much
/// larger inputs than for the elementwise kernels (a 1M-element `sum_axis0`
/// *regressed* to 0.56× under the pool before this gate was raised).
const SUM_PAR_MIN: usize = 1 << 21;

/// Element count below which `scatter_add_rows` stays serial. Scatter is
/// parallelised by *output* row ranges, so every worker re-scans the full
/// index list and skips the rows it does not own — duplicated work that
/// grows with pool size while the per-worker useful work shrinks. With the
/// adds themselves vectorised, the duplicated scan dominates until inputs
/// are much larger than the elementwise threshold.
const SCATTER_PAR_MIN: usize = 1 << 23;

/// Whether `cost` work units justify fanning out to the worker pool.
///
/// Both operands are pure functions of tensor shape and pool size, so the
/// serial/parallel decision — like the chunk split itself — is
/// deterministic, and every kernel below is written to produce bitwise
/// identical output either way.
fn use_pool(cost: usize, threshold: usize) -> bool {
    cost >= threshold && pool::num_threads() > 1
}

/// Expect-message for buffers that just came out of [`recycler::acquire`],
/// which only ever hands out uniquely-owned handles.
const UNIQUE: &str = "acquired buffer is uniquely owned";

/// A uniquely-owned, zero-filled buffer of `n` elements, recycled when
/// possible. `resize` on the cleared buffer writes every element, so the
/// result is bit-identical to `vec![0.0; n]`.
fn zeroed(n: usize) -> Arc<Vec<f32>> {
    let mut data = recycler::acquire(n);
    Arc::get_mut(&mut data).expect(UNIQUE).resize(n, 0.0);
    data
}

/// The `[n,k] × [k,m]` product of two strided operand views: the body of
/// [`Tensor::matmul`], [`Tensor::matmul_tn`] and [`Tensor::matmul_nt`].
fn gemm(a: simd::MatRef<'_>, b: simd::MatRef<'_>, n: usize, k: usize, m: usize) -> Tensor {
    let mut data = zeroed(n * m);
    gemm_into(a, b, Arc::get_mut(&mut data).expect(UNIQUE), k, m);
    Tensor {
        shape: Shape::matrix(n, m),
        data,
    }
}

/// `out += a × b` for a row-major `[out.len()/m, m]` slice `out`, split by
/// row blocks across the pool when the product is large enough.
fn gemm_into(a: simd::MatRef<'_>, b: simd::MatRef<'_>, out: &mut [f32], k: usize, m: usize) {
    if use_pool(2 * out.len() * k, MATMUL_PAR_FLOPS) {
        pool::for_each_chunk_mut(out, m, |start, chunk| {
            simd::matmul_rows(a, b, chunk, start / m, k, m);
        });
    } else {
        simd::matmul_rows(a, b, out, 0, k, m);
    }
}

/// A uniquely-owned copy of `src`'s elements, recycled when possible.
fn copied(src: &Tensor) -> Arc<Vec<f32>> {
    let mut data = recycler::acquire(src.numel());
    Arc::get_mut(&mut data)
        .expect(UNIQUE)
        .extend_from_slice(src.data());
    data
}

/// The shared empty buffer installed in place of released tape values —
/// cloning an `Arc` keeps the steady state allocation-free.
fn empty_buf() -> Arc<Vec<f32>> {
    static EMPTY: OnceLock<Arc<Vec<f32>>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new())))
}

/// A dense, row-major `f32` tensor with cheaply clonable storage.
///
/// # Examples
///
/// ```
/// use matgnn_tensor::Tensor;
///
/// let a = Tensor::from_vec((2, 2), vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Tensor::ones((2, 2));
/// let c = a.add(&b);
/// assert_eq!(c.data(), &[2.0, 3.0, 4.0, 5.0]);
/// # Ok::<(), matgnn_tensor::TensorError>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Vec<f32>>,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Builds a tensor by letting `fill` write a recycled (or fresh)
    /// buffer up from empty to exactly `shape.numel()` elements. Every
    /// serial constructor below funnels through here so it draws from the
    /// buffer recycler.
    fn build(shape: Shape, fill: impl FnOnce(&mut Vec<f32>)) -> Self {
        let n = shape.numel();
        let mut data = recycler::acquire(n);
        fill(Arc::get_mut(&mut data).expect(UNIQUE));
        debug_assert_eq!(data.len(), n, "constructor fill length mismatch");
        Tensor { shape, data }
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor::build(shape, |v| v.resize(n, value))
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a one-filled tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor::build(Shape::scalar(), |v| v.push(value))
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the shape's element count.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self, TensorError> {
        let shape = shape.into();
        if shape.numel() != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: Arc::new(data),
        })
    }

    /// Creates a tensor by evaluating `f(flat_index)` at every element.
    pub fn from_fn(shape: impl Into<Shape>, f: impl FnMut(usize) -> f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor::build(shape, |v| v.extend((0..n).map(f)))
    }

    /// Creates a tensor with i.i.d. samples from `U[-scale, scale)`.
    pub fn rand_uniform(shape: impl Into<Shape>, scale: f32, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor::build(shape, |v| {
            v.extend((0..n).map(|_| rng.gen_range(-scale..scale)));
        })
    }

    /// Creates a tensor with i.i.d. standard-normal samples scaled by `std`.
    ///
    /// Uses the Box–Muller transform over [`Rng`]'s uniform sampler.
    pub fn randn(shape: impl Into<Shape>, std: f32, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor::build(shape, |data| {
            while data.len() < n {
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f32::consts::PI * u2;
                data.push(r * theta.cos() * std);
                if data.len() < n {
                    data.push(r * theta.sin() * std);
                }
            }
        })
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of rows (first dimension; 1 for scalars).
    pub fn rows(&self) -> usize {
        self.shape.rows()
    }

    /// Number of columns (product of trailing dimensions; 1 for vectors).
    pub fn cols(&self) -> usize {
        self.shape.cols()
    }

    /// Total element count.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Size of this tensor's buffer in bytes.
    pub fn bytes(&self) -> usize {
        self.numel() * std::mem::size_of::<f32>()
    }

    /// The flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat data, copying if the buffer is shared.
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// The element at `(row, col)` for rank-2 tensors.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or if the tensor is not rank 2.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert_eq!(
            self.shape.rank(),
            2,
            "get(r,c) requires rank-2, got {}",
            self.shape
        );
        let c = self.shape.dim(1);
        assert!(
            row < self.shape.dim(0) && col < c,
            "index ({row},{col}) out of {}",
            self.shape
        );
        self.data[row * c + col]
    }

    /// The single value of a one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor holds more than one element.
    pub fn item(&self) -> f32 {
        assert!(
            self.shape.is_scalar_like(),
            "item() on non-scalar {}",
            self.shape
        );
        self.data[0]
    }

    /// Copies the data into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<f32> {
        self.data.to_vec()
    }

    /// Returns the same data viewed under a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Self, TensorError> {
        let shape = shape.into();
        if shape.numel() != self.numel() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: self.numel(),
            });
        }
        Ok(Tensor {
            shape,
            data: Arc::clone(&self.data),
        })
    }

    /// Whether every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Whether `self` and `other` agree element-wise within `tol`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    // ------------------------------------------------------------------
    // Elementwise
    // ------------------------------------------------------------------

    /// Shared plumbing for `add`/`sub`/`mul`/`div`: dispatches the
    /// [`simd`] binary kernel, layered under the pool for large tensors.
    /// The kernel is elementwise, so results are pool-size invariant; the
    /// four ops are single IEEE operations per lane, so they are also
    /// bitwise identical across SIMD tiers.
    fn binary_op(&self, other: &Tensor, name: &'static str, op: simd::BinaryOp) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch in {name}: {} vs {}",
            self.shape, other.shape
        );
        let mut data = zeroed(self.numel());
        let out = Arc::get_mut(&mut data).expect(UNIQUE).as_mut_slice();
        let (lhs, rhs) = (&self.data[..], &other.data[..]);
        if use_pool(out.len(), ELEM_PAR_MIN) {
            pool::for_each_chunk_mut(out, 1, |start, chunk| {
                let n = chunk.len();
                simd::binary(op, &lhs[start..start + n], &rhs[start..start + n], chunk);
            });
        } else {
            simd::binary(op, lhs, rhs, out);
        }
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Shared plumbing for the named unary ops: dispatches the [`simd`]
    /// unary kernel, layered under the pool for large tensors. Elementwise
    /// (pool-size invariant within a tier); the `exp`-family ops differ
    /// from the scalar tier by ≈1 ulp on AVX2, everything else is bitwise
    /// identical across tiers.
    fn unary_op(&self, op: simd::UnaryOp) -> Tensor {
        let mut data = zeroed(self.numel());
        let out = Arc::get_mut(&mut data).expect(UNIQUE).as_mut_slice();
        let src = &self.data[..];
        if use_pool(out.len(), ELEM_PAR_MIN) {
            pool::for_each_chunk_mut(out, 1, |start, chunk| {
                simd::unary(op, &src[start..start + chunk.len()], chunk);
            });
        } else {
            simd::unary(op, src, out);
        }
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Applies `f` to every element, producing a new tensor. Large tensors
    /// are split across the worker [`pool`] (each output element is still
    /// exactly `f` of its input, so results are thread-count invariant).
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        if !use_pool(self.numel(), ELEM_PAR_MIN) {
            return Tensor::build(self.shape.clone(), |v| {
                v.extend(self.data.iter().map(|&a| f(a)));
            });
        }
        let mut data = zeroed(self.numel());
        let out = Arc::get_mut(&mut data).expect(UNIQUE).as_mut_slice();
        let src = &self.data[..];
        pool::for_each_chunk_mut(out, 1, |start, chunk| {
            let s = &src[start..start + chunk.len()];
            for (o, &a) in chunk.iter_mut().zip(s) {
                *o = f(a);
            }
        });
        Tensor {
            shape: self.shape.clone(),
            data,
        }
    }

    /// Elementwise sum. Panics on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.binary_op(other, "add", simd::BinaryOp::Add)
    }

    /// Elementwise difference. Panics on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.binary_op(other, "sub", simd::BinaryOp::Sub)
    }

    /// Elementwise (Hadamard) product. Panics on shape mismatch.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.binary_op(other, "mul", simd::BinaryOp::Mul)
    }

    /// Elementwise quotient. Panics on shape mismatch.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.binary_op(other, "div", simd::BinaryOp::Div)
    }

    /// Multiplies every element by `alpha`.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.unary_op(simd::UnaryOp::Scale(alpha))
    }

    /// Adds `alpha` to every element.
    pub fn add_scalar(&self, alpha: f32) -> Tensor {
        self.unary_op(simd::UnaryOp::AddScalar(alpha))
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.unary_op(simd::UnaryOp::Neg)
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        self.unary_op(simd::UnaryOp::Square)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.unary_op(simd::UnaryOp::Sqrt)
    }

    /// Elementwise absolute value.
    pub fn abs(&self) -> Tensor {
        self.unary_op(simd::UnaryOp::Abs)
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        self.unary_op(simd::UnaryOp::Exp)
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        self.unary_op(simd::UnaryOp::Relu)
    }

    /// Sigmoid-weighted linear unit `x * sigmoid(x)` (a.k.a. swish).
    pub fn silu(&self) -> Tensor {
        self.unary_op(simd::UnaryOp::Silu)
    }

    /// Derivative of [`silu`](Tensor::silu) at every element:
    /// `s(1 + x(1 − s))` with `s = sigmoid(x)` (used by the tape's
    /// backward rule).
    pub(crate) fn silu_grad(&self) -> Tensor {
        self.unary_op(simd::UnaryOp::SiluGrad)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        self.unary_op(simd::UnaryOp::Sigmoid)
    }

    // ------------------------------------------------------------------
    // Broadcast helpers
    // ------------------------------------------------------------------

    /// Adds a length-`cols` row vector to every row of a matrix
    /// (bias addition).
    ///
    /// # Panics
    ///
    /// Panics if `row.numel() != self.cols()`.
    pub fn add_row(&self, row: &Tensor) -> Tensor {
        let mut out = self.copy();
        out.add_row_in_place(row);
        out
    }

    /// Adds `col[r]` to every element of row `r`, broadcasting a
    /// `[rows, 1]` (or length-`rows`) tensor across columns.
    ///
    /// # Panics
    ///
    /// Panics if `col.numel() != self.rows()`.
    pub fn add_col(&self, col: &Tensor) -> Tensor {
        let mut out = self.copy();
        out.add_col_in_place(col);
        out
    }

    /// Multiplies every row element-wise by a length-`cols` row vector.
    ///
    /// # Panics
    ///
    /// Panics if `row.numel() != self.cols()`.
    pub fn mul_row(&self, row: &Tensor) -> Tensor {
        let mut out = self.copy();
        out.mul_row_in_place(row);
        out
    }

    /// Multiplies row `r` of a matrix by `col[r]`, broadcasting a
    /// `[rows, 1]` (or length-`rows`) tensor across columns.
    ///
    /// # Panics
    ///
    /// Panics if `col.numel() != self.rows()`.
    pub fn mul_col(&self, col: &Tensor) -> Tensor {
        let mut out = self.copy();
        out.mul_col_in_place(col);
        out
    }

    /// A uniquely-owned copy, recycled when possible.
    fn copy(&self) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: copied(self),
        }
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product `self × other` for `[n,k] × [k,m]`.
    ///
    /// Runs the cache-blocked [`simd::matmul_rows`] microkernel (FMA
    /// register tiles on the AVX2 tier, the portable blocked loop on the
    /// scalar tier); large products are split by row blocks across the
    /// persistent worker [`pool`] (bitwise identical to the serial path —
    /// see the pool docs), small ones run serially to avoid dispatch
    /// overhead.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (n, k) = (self.rows(), self.cols());
        let (k2, m) = (other.rows(), other.cols());
        assert_eq!(k, k2, "matmul inner dim: {} vs {}", self.shape, other.shape);
        gemm(self.row_major(), other.row_major(), n, k, m)
    }

    /// `selfᵀ × other` for `[k,n]ᵀ × [k,m]` (used by matmul backward).
    ///
    /// Reads `selfᵀ` in place: the microkernel takes operand strides, so
    /// the transposed operand is `self`'s buffer with row and column
    /// strides swapped and no transposed copy is made. Every element keeps
    /// the ascending-`k` chain of `self.transpose().matmul(other)`, so the
    /// two are bitwise identical within a tier.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let (k, n) = (self.rows(), self.cols());
        let (k2, m) = (other.rows(), other.cols());
        assert_eq!(
            k, k2,
            "matmul_tn inner dim: {} vs {}",
            self.shape, other.shape
        );
        gemm(self.transposed(), other.row_major(), n, k, m)
    }

    /// `self × otherᵀ` for `[n,k] × [m,k]ᵀ` (used by matmul backward).
    ///
    /// The microkernel packs `otherᵀ` straight from `other` (its B panel
    /// is a copy anyway, so the pack does the transpose) and no transposed
    /// copy is made. Every element keeps the ascending-`k` chain of
    /// `self.matmul(&other.transpose())`, so the two are bitwise identical
    /// within a tier.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let (n, k) = (self.rows(), self.cols());
        let (m, k2) = (other.rows(), other.cols());
        assert_eq!(
            k, k2,
            "matmul_nt inner dim: {} vs {}",
            self.shape, other.shape
        );
        gemm(self.row_major(), other.transposed(), n, k, m)
    }

    /// `self × w[r0..r1, :]`: the product with a row block of `w`, read
    /// in place (a row block of a row-major matrix is one contiguous run).
    /// Bitwise equal to `self.matmul(&block)` for a copied block.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != r1 − r0` or the block is not inside `w`.
    pub(crate) fn matmul_row_block(&self, w: &Tensor, r0: usize, r1: usize) -> Tensor {
        let (n, k) = (self.rows(), self.cols());
        assert_eq!(
            k,
            r1 - r0,
            "matmul_row_block inner dim: {} vs rows {r0}..{r1} of {}",
            self.shape,
            w.shape
        );
        gemm(self.row_major(), w.row_block(r0, r1), n, k, w.cols())
    }

    /// `self × w[r0..r1, :]ᵀ`, the block read in place and transposed by
    /// strides (the input adjoint of [`matmul_row_block`]).
    ///
    /// [`matmul_row_block`]: Tensor::matmul_row_block
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != w.cols()` or the block is not inside `w`.
    pub(crate) fn matmul_nt_row_block(&self, w: &Tensor, r0: usize, r1: usize) -> Tensor {
        let (n, k) = (self.rows(), self.cols());
        assert_eq!(
            k,
            w.cols(),
            "matmul_nt_row_block inner dim: {} vs {}",
            self.shape,
            w.shape
        );
        let block = w.row_block(r0, r1);
        let bt = simd::MatRef {
            data: block.data,
            rs: 1,
            cs: k,
        };
        gemm(self.row_major(), bt, n, k, r1 - r0)
    }

    /// `out += selfᵀ × other` into a row-major `[self.cols() ×
    /// other.cols()]` slice — e.g. a row block of a weight gradient, which
    /// is one contiguous run of it. Same per-element chain as
    /// [`matmul_tn`](Tensor::matmul_tn) when `out` starts at zero.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ or `out` has the wrong length.
    pub(crate) fn matmul_tn_into(&self, other: &Tensor, out: &mut [f32]) {
        let (k, n) = (self.rows(), self.cols());
        let (k2, m) = (other.rows(), other.cols());
        assert_eq!(
            k, k2,
            "matmul_tn_into inner dim: {} vs {}",
            self.shape, other.shape
        );
        assert_eq!(out.len(), n * m, "matmul_tn_into: output length");
        gemm_into(self.transposed(), other.row_major(), out, k, m);
    }

    /// Rows `[r0, r1)` of this rank-2 tensor as a row-major strided matmul
    /// operand, read in place.
    fn row_block(&self, r0: usize, r1: usize) -> simd::MatRef<'_> {
        let c = self.cols();
        assert!(
            r0 <= r1 && r1 <= self.rows(),
            "row block {r0}..{r1} out of {}",
            self.rows()
        );
        simd::MatRef {
            data: &self.data[r0 * c..r1 * c],
            rs: c,
            cs: 1,
        }
    }

    /// This rank-2 tensor as a strided matmul operand.
    fn row_major(&self) -> simd::MatRef<'_> {
        simd::MatRef {
            data: &self.data,
            rs: self.cols(),
            cs: 1,
        }
    }

    /// The transpose of this rank-2 tensor as a strided matmul operand,
    /// read in place.
    fn transposed(&self) -> simd::MatRef<'_> {
        simd::MatRef {
            data: &self.data,
            rs: 1,
            cs: self.cols(),
        }
    }

    /// Matrix transpose of a rank-2 tensor (parallel over output rows for
    /// large tensors; a pure permutation, so trivially deterministic).
    pub fn transpose(&self) -> Tensor {
        let (n, m) = (self.rows(), self.cols());
        let mut data = zeroed(n * m);
        let out = Arc::get_mut(&mut data).expect(UNIQUE).as_mut_slice();
        let src = &self.data[..];
        let write = |start: usize, chunk: &mut [f32]| {
            for (local, orow) in chunk.chunks_mut(n).enumerate() {
                let j = start / n + local;
                for (i, o) in orow.iter_mut().enumerate() {
                    *o = src[i * m + j];
                }
            }
        };
        if !out.is_empty() {
            if use_pool(n * m, ELEM_PAR_MIN) {
                pool::for_each_chunk_mut(out, n, write);
            } else {
                write(0, out);
            }
        }
        Tensor {
            shape: Shape::matrix(m, n),
            data,
        }
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    ///
    /// Deliberately serial: splitting a scalar reduction across threads
    /// would re-associate the floating-point sum and break the bitwise
    /// determinism guarantee (same for [`mean_all`](Tensor::mean_all),
    /// [`max_abs`](Tensor::max_abs) and [`norm_sq`](Tensor::norm_sq)).
    pub fn sum_all(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean_all(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum_all() / self.numel() as f32
        }
    }

    /// Largest absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum()
    }

    /// Column sums: `[n,m] → [m]`.
    ///
    /// Parallel over column ranges above [`SUM_PAR_MIN`] elements: each
    /// worker owns a disjoint set of output columns and scans rows in
    /// ascending order, so every output element accumulates in exactly the
    /// serial order (and lane-wise adds make the AVX2 tier bitwise
    /// identical to scalar, too).
    pub fn sum_axis0(&self) -> Tensor {
        let (n, m) = (self.rows(), self.cols());
        let mut data = zeroed(m);
        let out = Arc::get_mut(&mut data).expect(UNIQUE).as_mut_slice();
        let src = &self.data[..];
        if !out.is_empty() {
            if use_pool(n * m, SUM_PAR_MIN) {
                pool::for_each_chunk_mut(out, 1, |c0, cols| {
                    simd::sum_axis0_cols(src, n, m, c0, cols);
                });
            } else {
                simd::sum_axis0_cols(src, n, m, 0, out);
            }
        }
        Tensor {
            shape: Shape::vector(m),
            data,
        }
    }

    /// Row sums: `[n,m] → [n,1]` (parallel over rows above
    /// [`SUM_PAR_MIN`] elements; rows never straddle a chunk, so the
    /// per-row reduction order is pool-size invariant).
    pub fn sum_axis1(&self) -> Tensor {
        let (n, m) = (self.rows(), self.cols());
        let mut data = zeroed(n);
        let out = Arc::get_mut(&mut data).expect(UNIQUE).as_mut_slice();
        let src = &self.data[..];
        if !out.is_empty() {
            if use_pool(n * m, SUM_PAR_MIN) {
                pool::for_each_chunk_mut(out, 1, |r0, rows| {
                    simd::sum_axis1_rows(src, m, r0, rows);
                });
            } else {
                simd::sum_axis1_rows(src, m, 0, out);
            }
        }
        Tensor {
            shape: Shape::matrix(n, 1),
            data,
        }
    }

    // ------------------------------------------------------------------
    // Row indexing / segments
    // ------------------------------------------------------------------

    /// Gathers rows: `out[i] = self[idx[i]]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, idx: &[usize]) -> Tensor {
        let (n, m) = (self.rows(), self.cols());
        // Validate up front so index panics surface on the caller thread
        // and the copy loop below is branch-free.
        for &i in idx {
            assert!(i < n, "gather_rows index {i} out of {n}");
        }
        let mut data = zeroed(idx.len() * m);
        let out = Arc::get_mut(&mut data).expect(UNIQUE).as_mut_slice();
        let src = &self.data[..];
        let copy = |start: usize, chunk: &mut [f32]| {
            let r0 = start / m;
            simd::gather_rows(src, &idx[r0..r0 + chunk.len() / m], chunk, m);
        };
        if !out.is_empty() {
            if use_pool(out.len(), ELEM_PAR_MIN) {
                pool::for_each_chunk_mut(out, m, copy);
            } else {
                copy(0, out);
            }
        }
        Tensor {
            shape: Shape::matrix(idx.len(), m),
            data,
        }
    }

    /// Scatter-add rows into `n_out` rows: `out[idx[i]] += self[i]`.
    ///
    /// This is the segment-sum primitive used for message aggregation and
    /// graph pooling. Parallelised by **output** row ranges: every worker
    /// scans the full index list but only accumulates the rows it owns, in
    /// ascending source order — so each output element sees exactly the
    /// serial addition order and results are thread-count invariant.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len() != self.rows()` or any index `>= n_out`.
    pub fn scatter_add_rows(&self, idx: &[usize], n_out: usize) -> Tensor {
        let (n, m) = (self.rows(), self.cols());
        assert_eq!(
            idx.len(),
            n,
            "scatter_add_rows: {} indices for {n} rows",
            idx.len()
        );
        for &t in idx {
            assert!(t < n_out, "scatter_add_rows target {t} out of {n_out}");
        }
        let mut data = zeroed(n_out * m);
        let out = Arc::get_mut(&mut data).expect(UNIQUE).as_mut_slice();
        let src = &self.data[..];
        let add = |start: usize, chunk: &mut [f32]| {
            let r0 = start / m;
            let r1 = r0 + chunk.len() / m;
            simd::scatter_add_rows(src, idx, chunk, r0, r1, m);
        };
        if !out.is_empty() {
            if use_pool(n * m, SCATTER_PAR_MIN) {
                pool::for_each_chunk_mut(out, m, add);
            } else {
                add(0, out);
            }
        }
        Tensor {
            shape: Shape::matrix(n_out, m),
            data,
        }
    }

    /// The value of [`Tape::block_linear`](crate::Tape::block_linear)
    /// (layout and summation order are documented there), shared with the
    /// non-recording executor: part `(x, rows)` meets its own row block of
    /// `w` and, with `rows`, enters the output gathered by them. Rows are
    /// independent, so the pool split cannot change a bit.
    ///
    /// # Panics
    ///
    /// Panics if there are no parts, the parts' widths do not add up to
    /// `w`'s rows, a row count or width disagrees, or an index is out of
    /// range.
    pub(crate) fn block_linear<const N: usize>(
        parts: [(&Tensor, Option<&[usize]>); N],
        w: &Tensor,
        bias: &Tensor,
    ) -> Tensor {
        assert!(N > 0, "block_linear of zero parts");
        let c = bias.numel();
        let mut base: Option<Tensor> = None;
        // Gathered products in part order, as (product, column offset,
        // indices); a fixed array keeps the steady state allocation-free.
        let mut gathered: [Option<(Tensor, usize, &[usize])>; N] = std::array::from_fn(|_| None);
        let mut n_gathered = 0;
        let (mut i, mut r0) = (0, 0);
        while i < N {
            let (x, rows) = parts[i];
            let k = x.cols();
            if rows.is_none() {
                let y = x.matmul_row_block(w, r0, r0 + k);
                match &mut base {
                    Some(d) => d.axpy(1.0, &y),
                    None => base = Some(y),
                }
                (i, r0) = (i + 1, r0 + k);
                continue;
            }
            // Consecutive gathered parts of one input share one product
            // against their row blocks laid side by side: one wider GEMM
            // instead of several, with the same bits (every output element
            // still sums over its own k in order).
            let run = parts[i..]
                .iter()
                .take_while(|(y, r)| r.is_some() && y.same_buffer(x))
                .count();
            assert!(
                r0 + run * k <= w.rows(),
                "block_linear: parts need more than {} weight rows",
                w.rows()
            );
            let y = if run == 1 {
                x.matmul_row_block(w, r0, r0 + k)
            } else {
                x.matmul(&w.row_blocks_side_by_side(r0, k, run))
            };
            for (g, (_, idx)) in parts[i..i + run].iter().enumerate() {
                gathered[n_gathered] = Some((y.clone(), g * c, idx.expect("gathered part")));
                n_gathered += 1;
            }
            (i, r0) = (i + run, r0 + run * k);
        }
        assert_eq!(
            r0,
            w.rows(),
            "block_linear: parts cover {r0} of {} weight rows",
            w.rows()
        );
        let rows = match (&base, &gathered[0]) {
            (Some(b), _) => b.rows(),
            (None, Some((_, _, idx))) => idx.len(),
            (None, None) => unreachable!("at least one part"),
        };
        for (p, off, idx) in gathered.iter().flatten() {
            assert!(
                p.cols() >= off + c,
                "block_linear: part {} vs bias {c}",
                p.shape
            );
            assert_eq!(
                idx.len(),
                rows,
                "block_linear: {} indices for {rows} rows",
                idx.len()
            );
            let n = p.rows();
            for &i in idx.iter() {
                assert!(i < n, "block_linear index {i} out of {n}");
            }
        }
        let has_base = base.is_some();
        let mut out = base.unwrap_or_else(|| Tensor::zeros((rows, c)));
        assert_eq!(
            out.cols(),
            c,
            "block_linear: base {} vs bias {c}",
            out.shape
        );
        if out.numel() == 0 {
            return out;
        }
        let pooled = use_pool(out.numel(), ELEM_PAR_MIN);
        let dst = Arc::make_mut(&mut out.data).as_mut_slice();
        let bias = &bias.data[..];
        let body = |r0: usize, chunk: &mut [f32]| {
            for (local, orow) in chunk.chunks_mut(c).enumerate() {
                let r = r0 + local;
                // This output row's gathered input rows, in part order.
                let rows: [&[f32]; N] = std::array::from_fn(|g| match &gathered[g] {
                    Some((p, off, idx)) => &p.data[idx[r] * p.cols() + off..][..c],
                    None => &[],
                });
                match &rows[..n_gathered] {
                    // An edge layer's two gathered parts, in one fused pass.
                    [p, q] if has_base => {
                        for (((o, &p), &q), &b) in orow.iter_mut().zip(*p).zip(*q).zip(bias) {
                            *o += (p + q) + b;
                        }
                    }
                    rows => {
                        for (j, (o, &b)) in orow.iter_mut().zip(bias).enumerate() {
                            let sum = match rows.split_first() {
                                Some((first, rest)) => {
                                    rest.iter().fold(first[j], |a, r| a + r[j]) + b
                                }
                                None => b,
                            };
                            *o = if has_base { *o + sum } else { sum };
                        }
                    }
                }
            }
        };
        if pooled {
            pool::for_each_chunk_mut(dst, c, |start, chunk| body(start / c, chunk));
        } else {
            body(0, dst);
        }
        out
    }

    /// Concatenates matrices with equal row counts along the column axis.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols of zero tensors");
        let n = parts[0].rows();
        for p in parts {
            assert_eq!(p.rows(), n, "concat_cols row mismatch: {} vs {n}", p.rows());
        }
        let total: usize = parts.iter().map(|p| p.cols()).sum();
        Tensor::build(Shape::matrix(n, total), |out| {
            for r in 0..n {
                for p in parts {
                    let m = p.cols();
                    out.extend_from_slice(&p.data[r * m..(r + 1) * m]);
                }
            }
        })
    }

    /// Extracts columns `[start, end)` of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.cols()`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        let (n, m) = (self.rows(), self.cols());
        assert!(
            start <= end && end <= m,
            "slice_cols {start}..{end} out of {m}"
        );
        let w = end - start;
        Tensor::build(Shape::matrix(n, w), |out| {
            for r in 0..n {
                out.extend_from_slice(&self.data[r * m + start..r * m + end]);
            }
        })
    }

    // ------------------------------------------------------------------
    // In-place updates (optimizers)
    // ------------------------------------------------------------------

    /// In-place `self += alpha * other` (BLAS `axpy`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "axpy: {} vs {}",
            self.shape, other.shape
        );
        let dst = Arc::make_mut(&mut self.data).as_mut_slice();
        let src = &other.data[..];
        if use_pool(dst.len(), ELEM_PAR_MIN) {
            pool::for_each_chunk_mut(dst, 1, |start, chunk| {
                simd::axpy(chunk, alpha, &src[start..start + chunk.len()]);
            });
        } else {
            simd::axpy(dst, alpha, src);
        }
    }

    /// In-place `self *= alpha` (gradient-accumulation averaging and
    /// global-norm clipping).
    pub fn scale_in_place(&mut self, alpha: f32) {
        let dst = Arc::make_mut(&mut self.data).as_mut_slice();
        if use_pool(dst.len(), ELEM_PAR_MIN) {
            pool::for_each_chunk_mut(dst, 1, |_, chunk| {
                simd::scale_in_place(chunk, alpha);
            });
        } else {
            simd::scale_in_place(dst, alpha);
        }
    }

    /// In-place `self = beta * self + (1 - beta) * other` (EMA update).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn lerp_from(&mut self, beta: f32, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "lerp_from: {} vs {}",
            self.shape, other.shape
        );
        let dst = Arc::make_mut(&mut self.data).as_mut_slice();
        let src = &other.data[..];
        if use_pool(dst.len(), ELEM_PAR_MIN) {
            pool::for_each_chunk_mut(dst, 1, |start, chunk| {
                simd::lerp(chunk, beta, &src[start..start + chunk.len()]);
            });
        } else {
            simd::lerp(dst, beta, src);
        }
    }

    /// In-place update from `f(current, other)` applied element-wise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip_assign(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) {
        assert_eq!(
            self.shape, other.shape,
            "zip_assign: {} vs {}",
            self.shape, other.shape
        );
        let dst = Arc::make_mut(&mut self.data).as_mut_slice();
        let src = &other.data[..];
        if use_pool(dst.len(), ELEM_PAR_MIN) {
            pool::for_each_chunk_mut(dst, 1, |start, chunk| {
                let s = &src[start..start + chunk.len()];
                for (d, &s) in chunk.iter_mut().zip(s) {
                    *d = f(*d, s);
                }
            });
        } else {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = f(*d, s);
            }
        }
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f32) {
        let dst = Arc::make_mut(&mut self.data).as_mut_slice();
        if use_pool(dst.len(), ELEM_PAR_MIN) {
            pool::for_each_chunk_mut(dst, 1, |_, chunk| simd::fill(chunk, value));
        } else {
            simd::fill(dst, value);
        }
    }

    // ------------------------------------------------------------------
    // In-place ops (the non-recording executor)
    //
    // The tape keeps every op's output alive for backward; without a tape
    // an activation or bias add can overwrite its input. Each method below
    // computes exactly what its out-of-place namesake computes, element
    // for element (the broadcast family's namesakes run it on a copy), so
    // both executors give the same bits.
    // ------------------------------------------------------------------

    /// Shared plumbing for the in-place unary family. The [`simd`] unary
    /// kernels take disjoint source/destination slices, so the input is
    /// staged through a small stack scratch block by block; every element
    /// still goes through the same tier kernel as [`Tensor::unary_op`],
    /// so results are bitwise identical to the out-of-place op for any
    /// chunking and pool size.
    fn unary_in_place(&mut self, op: simd::UnaryOp) {
        let pooled = use_pool(self.numel(), ELEM_PAR_MIN);
        let dst = Arc::make_mut(&mut self.data).as_mut_slice();
        let apply = |chunk: &mut [f32]| {
            let mut scratch = [0.0f32; 512];
            for part in chunk.chunks_mut(512) {
                let staged = &mut scratch[..part.len()];
                staged.copy_from_slice(part);
                simd::unary(op, staged, part);
            }
        };
        if pooled {
            pool::for_each_chunk_mut(dst, 1, |_, chunk| apply(chunk));
        } else {
            apply(dst);
        }
    }

    /// In-place [`silu`](Tensor::silu).
    pub fn silu_in_place(&mut self) {
        self.unary_in_place(simd::UnaryOp::Silu);
    }

    /// In-place [`sigmoid`](Tensor::sigmoid).
    pub fn sigmoid_in_place(&mut self) {
        self.unary_in_place(simd::UnaryOp::Sigmoid);
    }

    /// In-place [`relu`](Tensor::relu).
    pub fn relu_in_place(&mut self) {
        self.unary_in_place(simd::UnaryOp::Relu);
    }

    /// In-place [`exp`](Tensor::exp).
    pub fn exp_in_place(&mut self) {
        self.unary_in_place(simd::UnaryOp::Exp);
    }

    /// In-place [`sqrt`](Tensor::sqrt).
    pub fn sqrt_in_place(&mut self) {
        self.unary_in_place(simd::UnaryOp::Sqrt);
    }

    /// In-place [`square`](Tensor::square).
    pub fn square_in_place(&mut self) {
        self.unary_in_place(simd::UnaryOp::Square);
    }

    /// In-place [`add_scalar`](Tensor::add_scalar).
    pub fn add_scalar_in_place(&mut self, alpha: f32) {
        self.unary_in_place(simd::UnaryOp::AddScalar(alpha));
    }

    /// In-place [`map`](Tensor::map): applies `f` to every element,
    /// overwriting the buffer. Matches `map` element for element.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        let pooled = use_pool(self.numel(), ELEM_PAR_MIN);
        let dst = Arc::make_mut(&mut self.data).as_mut_slice();
        if pooled {
            pool::for_each_chunk_mut(dst, 1, |_, chunk| {
                for x in chunk {
                    *x = f(*x);
                }
            });
        } else {
            for x in dst {
                *x = f(*x);
            }
        }
    }

    /// In-place [`add_row`](Tensor::add_row) (bias addition).
    ///
    /// # Panics
    ///
    /// Panics if `row.numel() != self.cols()`.
    pub fn add_row_in_place(&mut self, row: &Tensor) {
        self.broadcast_in_place(row, false, "add_row", |x, b| *x += b);
    }

    /// In-place [`mul_row`](Tensor::mul_row).
    ///
    /// # Panics
    ///
    /// Panics if `row.numel() != self.cols()`.
    pub fn mul_row_in_place(&mut self, row: &Tensor) {
        self.broadcast_in_place(row, false, "mul_row", |x, s| *x *= s);
    }

    /// In-place [`add_col`](Tensor::add_col).
    ///
    /// # Panics
    ///
    /// Panics if `col.numel() != self.rows()`.
    pub fn add_col_in_place(&mut self, col: &Tensor) {
        self.broadcast_in_place(col, true, "add_col", |x, v| *x += v);
    }

    /// In-place [`mul_col`](Tensor::mul_col).
    ///
    /// # Panics
    ///
    /// Panics if `col.numel() != self.rows()`.
    pub fn mul_col_in_place(&mut self, col: &Tensor) {
        self.broadcast_in_place(col, true, "mul_col", |x, s| *x *= s);
    }

    /// The broadcast family's one loop: `f(x, v)` for every element `x`,
    /// with `v` the entry of a length-`cols` row (`by_col` false) or of a
    /// length-`rows` column (`by_col` true) — split across the pool for
    /// large tensors (rows never straddle a chunk, so the split cannot
    /// change a bit).
    fn broadcast_in_place(
        &mut self,
        v: &Tensor,
        by_col: bool,
        op: &str,
        f: impl Fn(&mut f32, f32) + Sync,
    ) {
        let (r, c) = (self.rows(), self.cols());
        let (want, axis) = if by_col { (r, "rows") } else { (c, "cols") };
        assert_eq!(v.numel(), want, "{op}: {} vs {axis} {want}", v.shape);
        if self.numel() == 0 || c == 0 {
            return;
        }
        let pooled = use_pool(self.numel(), ELEM_PAR_MIN);
        let dst = Arc::make_mut(&mut self.data).as_mut_slice();
        let v = &v.data[..];
        let body = |r0: usize, rows: &mut [f32]| {
            for (local, rrow) in rows.chunks_mut(c).enumerate() {
                if by_col {
                    let s = v[r0 + local];
                    rrow.iter_mut().for_each(|x| f(x, s));
                } else {
                    rrow.iter_mut().zip(v).for_each(|(x, &b)| f(x, b));
                }
            }
        };
        if pooled {
            pool::for_each_chunk_mut(dst, c, |start, chunk| body(start / c, chunk));
        } else {
            body(0, dst);
        }
    }

    // ------------------------------------------------------------------
    // Buffer recycling
    // ------------------------------------------------------------------

    /// Hands this tensor's buffer back to the process-wide
    /// [`recycler`](crate::recycler) so the next same-sized construction
    /// reuses the allocation. Since [`Drop`] already does this for every
    /// uniquely-owned tensor, calling it is documentation of an ownership
    /// hand-off, never a requirement.
    pub fn recycle(self) {
        drop(self);
    }

    /// Whether both handles view the same buffer with the same shape.
    fn same_buffer(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data) && self.shape == other.shape
    }

    /// Row blocks `[r0 + g·k, r0 + (g+1)·k)` of this matrix for `g <
    /// count`, laid side by side as one `[k × count·cols]` matrix.
    fn row_blocks_side_by_side(&self, r0: usize, k: usize, count: usize) -> Tensor {
        let c = self.cols();
        Tensor::build(Shape::matrix(k, count * c), |out| {
            for kk in 0..k {
                for g in 0..count {
                    let r = r0 + g * k + kk;
                    out.extend_from_slice(&self.data[r * c..(r + 1) * c]);
                }
            }
        })
    }

    /// Whether this handle is its buffer's only owner, so an in-place op
    /// cannot be seen through another handle.
    pub(crate) fn is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }

    /// The placeholder installed where a tape node's forward value used to
    /// live after backward released it. Shares one static empty buffer, so
    /// releasing N node values costs zero allocations.
    pub(crate) fn released() -> Tensor {
        Tensor {
            shape: Shape::vector(0),
            data: empty_buf(),
        }
    }
}

impl Drop for Tensor {
    /// Returns the buffer to the [`recycler`](crate::recycler) when this
    /// was the last owner. Catching *every* last-owner drop here — not
    /// just explicit [`Tensor::recycle`] calls — is what lets backward-rule
    /// temporaries (transposes, adjoint products) stay in the pool instead
    /// of leaking one allocation per op per step.
    fn drop(&mut self) {
        if recycler::enabled() && Arc::get_mut(&mut self.data).is_some() {
            recycler::release(std::mem::replace(&mut self.data, empty_buf()));
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        const MAX: usize = 8;
        let shown: Vec<String> = self
            .data
            .iter()
            .take(MAX)
            .map(|v| format!("{v:.4}"))
            .collect();
        write!(f, "[{}", shown.join(", "))?;
        if self.numel() > MAX {
            write!(f, ", … {} more", self.numel() - MAX)?;
        }
        write!(f, "]")
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn t2(v: Vec<f32>, r: usize, c: usize) -> Tensor {
        Tensor::from_vec((r, c), v).unwrap()
    }

    #[test]
    fn construct_and_access() {
        let t = t2(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(1, 0), 4.0);
        assert_eq!(t.rows(), 2);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.bytes(), 24);
    }

    #[test]
    fn from_vec_length_mismatch() {
        assert!(matches!(
            Tensor::from_vec((2, 2), vec![1.0]),
            Err(TensorError::LengthMismatch {
                expected: 4,
                actual: 1
            })
        ));
    }

    #[test]
    fn elementwise_ops() {
        let a = t2(vec![1.0, -2.0, 3.0, -4.0], 2, 2);
        let b = t2(vec![2.0, 2.0, 2.0, 2.0], 2, 2);
        assert_eq!(a.add(&b).data(), &[3.0, 0.0, 5.0, -2.0]);
        assert_eq!(a.sub(&b).data(), &[-1.0, -4.0, 1.0, -6.0]);
        assert_eq!(a.mul(&b).data(), &[2.0, -4.0, 6.0, -8.0]);
        assert_eq!(a.div(&b).data(), &[0.5, -1.0, 1.5, -2.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, -4.0, 6.0, -8.0]);
        assert_eq!(a.relu().data(), &[1.0, 0.0, 3.0, 0.0]);
        assert_eq!(a.abs().data(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.neg().data(), &[-1.0, 2.0, -3.0, 4.0]);
        assert_eq!(a.square().data(), &[1.0, 4.0, 9.0, 16.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn elementwise_shape_mismatch_panics() {
        let a = Tensor::zeros((2, 2));
        let b = Tensor::zeros((2, 3));
        let _ = a.add(&b);
    }

    #[test]
    fn silu_matches_definition() {
        let a = t2(vec![0.0, 1.0, -1.0, 3.0], 2, 2);
        let s = a.silu();
        for (x, y) in a.data().iter().zip(s.data().iter()) {
            let expect = x / (1.0 + (-x).exp());
            assert!((y - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn broadcast_add_row_mul_col() {
        let a = t2(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let bias = Tensor::from_vec(3, vec![10.0, 20.0, 30.0]).unwrap();
        assert_eq!(
            a.add_row(&bias).data(),
            &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]
        );
        let col = Tensor::from_vec((2, 1), vec![2.0, -1.0]).unwrap();
        assert_eq!(a.mul_col(&col).data(), &[2.0, 4.0, 6.0, -4.0, -5.0, -6.0]);
    }

    #[test]
    fn broadcast_add_col_mul_row() {
        let a = t2(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        let col = Tensor::from_vec((2, 1), vec![10.0, -1.0]).unwrap();
        assert_eq!(a.add_col(&col).data(), &[11.0, 12.0, 13.0, 3.0, 4.0, 5.0]);
        let row = Tensor::from_vec(3, vec![2.0, 0.5, -1.0]).unwrap();
        assert_eq!(a.mul_row(&row).data(), &[2.0, 1.0, -3.0, 8.0, 2.5, -6.0]);
    }

    #[test]
    fn matmul_small() {
        let a = t2(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = t2(vec![5.0, 6.0, 7.0, 8.0], 2, 2);
        assert_eq!(a.matmul(&b).data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rect() {
        let a = t2(vec![1.0, 0.0, 2.0, -1.0, 3.0, 1.0], 2, 3);
        let b = t2(vec![3.0, 1.0, 2.0, 1.0, 1.0, 0.0], 3, 2);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &Shape::matrix(2, 2));
        assert_eq!(c.data(), &[5.0, 1.0, 4.0, 2.0]);
    }

    #[test]
    fn matmul_large_parallel_path_matches_small_blocks() {
        // Exercise the (potentially) threaded path against a blockwise
        // serial reference.
        let mut rng = Rng::seed_from_u64(31);
        let a = Tensor::randn((300, 120), 1.0, &mut rng);
        let b = Tensor::randn((120, 250), 1.0, &mut rng);
        let c = a.matmul(&b);
        // Reference: compute each row independently via 1-row matmuls.
        for i in (0..300).step_by(37) {
            let row = a.gather_rows(&[i]);
            let expect = row.matmul(&b);
            let got = c.gather_rows(&[i]);
            assert!(got.allclose(&expect, 1e-4), "row {i} differs");
        }
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng::seed_from_u64(1);
        let a = Tensor::randn((3, 7), 1.0, &mut rng);
        assert!(a.transpose().transpose().allclose(&a, 0.0));
    }

    #[test]
    fn reductions() {
        let a = t2(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        assert_eq!(a.sum_all(), 21.0);
        assert_eq!(a.mean_all(), 3.5);
        assert_eq!(a.sum_axis0().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.sum_axis1().data(), &[6.0, 15.0]);
        assert_eq!(a.max_abs(), 6.0);
        assert_eq!(a.norm_sq(), 91.0);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let a = t2(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let s = g.scatter_add_rows(&[2, 0, 2], 3);
        assert_eq!(s.data(), &[1.0, 2.0, 0.0, 0.0, 10.0, 12.0]);
    }

    #[test]
    fn concat_and_slice_cols() {
        let a = t2(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = t2(vec![9.0, 8.0], 2, 1);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.cols(), 3);
        assert_eq!(c.data(), &[1.0, 2.0, 9.0, 3.0, 4.0, 8.0]);
        assert!(c.slice_cols(0, 2).allclose(&a, 0.0));
        assert!(c.slice_cols(2, 3).allclose(&b, 0.0));
    }

    #[test]
    fn inplace_updates() {
        let mut a = t2(vec![1.0, 1.0], 1, 2);
        let g = t2(vec![2.0, 4.0], 1, 2);
        a.axpy(-0.5, &g);
        assert_eq!(a.data(), &[0.0, -1.0]);
        a.lerp_from(0.9, &g);
        assert!((a.data()[0] - 0.2).abs() < 1e-6);
        a.fill(7.0);
        assert_eq!(a.data(), &[7.0, 7.0]);
    }

    #[test]
    fn clone_is_shallow_until_mutated() {
        let a = Tensor::ones((2, 2));
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.data, &b.data));
        b.fill(0.0);
        assert_eq!(a.data(), &[1.0; 4]);
        assert_eq!(b.data(), &[0.0; 4]);
    }

    #[test]
    fn randn_moments_reasonable() {
        let mut rng = Rng::seed_from_u64(42);
        let t = Tensor::randn(10_000usize, 1.0, &mut rng);
        let mean = t.mean_all();
        let var = t.map(|x| (x - mean) * (x - mean)).mean_all();
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn reshape_shares_data() {
        let a = Tensor::ones((2, 3));
        let b = a.reshape(6usize).unwrap();
        assert_eq!(b.shape().rank(), 1);
        assert!(a.reshape((4, 2)).is_err());
    }

    #[test]
    fn recycled_construction_is_bitwise_identical() {
        let _rt = crate::Runtime::current().with_recycler(true).enter();
        let mut rng = Rng::seed_from_u64(5);
        let a = Tensor::randn((37, 19), 1.0, &mut rng);
        let b = Tensor::randn((19, 23), 1.0, &mut rng);
        let fresh = a.matmul(&b);
        // Pump buffers through the recycler, then recompute: a recycled
        // output buffer must produce the exact same bits.
        for _ in 0..4 {
            a.matmul(&b).recycle();
        }
        let reused = a.matmul(&b);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn recycle_is_refused_while_shared() {
        let _rt = crate::Runtime::current().with_recycler(true).enter();
        let t = Tensor::full((9, 9), 3.0);
        let keep = t.clone();
        t.recycle(); // shared with `keep`: rejected, data stays live
        assert_eq!(keep.data(), &[3.0; 81]);
        keep.recycle(); // now unique: accepted
    }

    /// Every in-place eval-path op must equal its out-of-place namesake
    /// bit for bit — the frozen inference forward relies on that to stay
    /// comparable to the tape forward.
    #[test]
    fn in_place_ops_match_out_of_place_bitwise() {
        let mut rng = Rng::seed_from_u64(33);
        // Odd sizes exercise the SIMD kernels' scalar tails and the
        // 512-element scratch-block boundary in `unary_in_place`.
        let x = Tensor::randn((7, 151), 2.0, &mut rng);
        let row = Tensor::randn(151usize, 1.0, &mut rng);
        let col = Tensor::randn(7usize, 1.0, &mut rng);

        type UnaryPair = (fn(&Tensor) -> Tensor, fn(&mut Tensor));
        let unary: &[UnaryPair] = &[
            (|t| t.silu(), |t| t.silu_in_place()),
            (|t| t.sigmoid(), |t| t.sigmoid_in_place()),
            (|t| t.relu(), |t| t.relu_in_place()),
            (|t| t.exp(), |t| t.exp_in_place()),
            (|t| t.square(), |t| t.square_in_place()),
        ];
        for (out_of_place, in_place) in unary {
            let expect = out_of_place(&x);
            let mut got = x.clone();
            in_place(&mut got);
            assert_eq!(expect, got);
        }

        let expect = x.square().sqrt();
        let mut got = x.square();
        got.sqrt_in_place();
        assert_eq!(expect, got);

        let expect = x.add_scalar(0.37);
        let mut got = x.clone();
        got.add_scalar_in_place(0.37);
        assert_eq!(expect, got);

        let expect = x.map(|v| 1.0 / v);
        let mut got = x.clone();
        got.map_in_place(|v| 1.0 / v);
        assert_eq!(expect, got);

        let expect = x.add_row(&row);
        let mut got = x.clone();
        got.add_row_in_place(&row);
        assert_eq!(expect, got);

        let expect = x.mul_row(&row);
        let mut got = x.clone();
        got.mul_row_in_place(&row);
        assert_eq!(expect, got);

        let expect = x.add_col(&col);
        let mut got = x.clone();
        got.add_col_in_place(&col);
        assert_eq!(expect, got);

        let expect = x.mul_col(&col);
        let mut got = x.clone();
        got.mul_col_in_place(&col);
        assert_eq!(expect, got);
    }

    /// In-place ops on a shared buffer must copy-on-write, never mutate
    /// the other owner.
    #[test]
    fn in_place_ops_copy_on_write_when_shared() {
        let mut rng = Rng::seed_from_u64(34);
        let original = Tensor::randn((5, 8), 1.0, &mut rng);
        let snapshot = original.to_vec();
        let mut aliased = original.clone();
        aliased.silu_in_place();
        assert_eq!(original.data(), &snapshot[..], "source tensor mutated");
        assert_eq!(aliased, original.silu());
    }
}
