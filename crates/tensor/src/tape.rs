//! Reverse-mode automatic differentiation over [`Tensor`] kernels.
//!
//! A [`Tape`] records every operation as an explicit [`Op`] node holding the
//! IDs of its operands. [`Tape::backward`] walks the node list in reverse,
//! applying each op's analytic adjoint. Storing ops as data (rather than
//! closures) keeps recomputation for activation checkpointing trivial and
//! lets the tape account for every saved activation byte in a
//! [`MemoryTracker`], which is what the paper's Fig. 6 memory breakdown
//! measures.
//!
//! Memory semantics mirror a real framework:
//!
//! * every non-leaf forward value is registered as **activation** bytes;
//! * during backward, intermediate gradients are registered as **gradient**
//!   bytes and freed as soon as their node has been processed;
//! * a node's forward value is freed once its own backward has run — so the
//!   global peak lands at the start of the backward pass, exactly as the
//!   paper observes (Sec. V-A).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::{MemoryCategory, MemoryTracker, Shape, Tensor};

/// Process-wide high-water mark of tape lengths, used to pre-size the node
/// list of later tapes: in steady-state training every step records the
/// same graph, so after one warm-up step `push` never reallocates.
static NODE_HINT: AtomicUsize = AtomicUsize::new(0);

/// A handle to a value recorded on a [`Tape`].
///
/// `Var`s are cheap copies; they are only meaningful together with the tape
/// that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var {
    id: usize,
}

impl Var {
    /// The tape-local node index.
    pub fn id(self) -> usize {
        self.id
    }
}

/// A recorded operation (the edges of the computation graph).
#[derive(Debug, Clone)]
enum Op {
    /// External value; `requires_grad` distinguishes parameters from data.
    Leaf {
        requires_grad: bool,
    },
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddScalar(Var),
    Neg(Var),
    Matmul(Var, Var),
    AddRow(Var, Var),
    AddCol(Var, Var),
    MulCol(Var, Var),
    MulRow(Var, Var),
    Relu(Var),
    Silu(Var),
    Tanh(Var),
    Sigmoid(Var),
    Square(Var),
    Sqrt(Var),
    Exp(Var),
    Recip(Var),
    SumAll(Var),
    MeanAll(Var),
    SumAxis1(Var),
    GatherRows(Var, Arc<Vec<usize>>),
    ScatterAddRows(Var, Arc<Vec<usize>>, usize),
    ConcatCols(Vec<Var>),
    SliceCols(Var, usize, usize),
    BlockLinear {
        parts: Vec<BlockPart>,
        w: Var,
        b: Var,
    },
}

impl Op {
    /// Visits every operand [`Var`] of this op (none for leaves).
    fn for_each_operand(&self, mut f: impl FnMut(Var)) {
        match self {
            Op::Leaf { .. } => {}
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Matmul(a, b)
            | Op::AddRow(a, b)
            | Op::AddCol(a, b)
            | Op::MulCol(a, b)
            | Op::MulRow(a, b) => {
                f(*a);
                f(*b);
            }
            Op::Scale(a, _)
            | Op::AddScalar(a)
            | Op::Neg(a)
            | Op::Relu(a)
            | Op::Silu(a)
            | Op::Tanh(a)
            | Op::Sigmoid(a)
            | Op::Square(a)
            | Op::Sqrt(a)
            | Op::Exp(a)
            | Op::Recip(a)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::SumAxis1(a)
            | Op::GatherRows(a, _)
            | Op::ScatterAddRows(a, _, _)
            | Op::SliceCols(a, _, _) => f(*a),
            Op::ConcatCols(parts) => parts.iter().copied().for_each(f),
            Op::BlockLinear { parts, w, b } => {
                parts.iter().for_each(|p| f(p.x));
                f(*w);
                f(*b);
            }
        }
    }
}

/// One column block of the input of a block-linear layer
/// ([`Tape::block_linear`], [`Exec::block_linear`](crate::Exec::block_linear)):
/// a matrix whose rows enter as they are, or gathered by an index list.
/// `V` is the executor's value type.
#[derive(Debug, Clone)]
pub struct BlockPart<V = Var> {
    pub(crate) x: V,
    pub(crate) rows: Option<Arc<Vec<usize>>>,
}

impl<V> BlockPart<V> {
    /// Every row of `x`, in order.
    pub fn dense(x: V) -> Self {
        BlockPart { x, rows: None }
    }

    /// Rows `x[idx[0]], x[idx[1]], …` — what a row gather would select,
    /// without the gathered copy.
    pub fn gathered(x: V, idx: Arc<Vec<usize>>) -> Self {
        BlockPart { x, rows: Some(idx) }
    }
}

struct Node {
    op: Op,
    value: Tensor,
    /// Whether any gradient flows to this node.
    needs_grad: bool,
    /// Bytes registered with the tracker for this node's value.
    tracked_bytes: u64,
}

/// Gradients returned by [`Tape::backward`], indexed by [`Var`].
#[derive(Debug, Default)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// The gradient of the loss w.r.t. `var`, if one was produced.
    pub fn get(&self, var: Var) -> Option<&Tensor> {
        self.grads.get(var.id).and_then(|g| g.as_ref())
    }

    /// Removes and returns the gradient for `var`.
    pub fn take(&mut self, var: Var) -> Option<Tensor> {
        self.grads.get_mut(var.id).and_then(|g| g.take())
    }
}

impl Drop for Gradients {
    /// Gradients the caller never took go back to the buffer recycler, so
    /// dropping the result of [`Tape::backward`] after consuming the
    /// parameter grads keeps the steady state allocation-free.
    fn drop(&mut self) {
        for g in self.grads.drain(..).flatten() {
            g.recycle();
        }
    }
}

/// Leaf-sink hook for [`Tape::backward_with_leaf_sink`]: the parameter
/// leaves to watch, plus the callback receiving `(leaf_pos, gradient)`
/// as each leaf's gradient finalizes during the backward walk.
type LeafSinkHook<'a> = (&'a [Var], &'a mut dyn FnMut(usize, Tensor));

/// A reverse-mode autodiff tape.
///
/// # Examples
///
/// ```
/// use matgnn_tensor::{Tape, Tensor};
///
/// let mut tape = Tape::new();
/// let w = tape.param(Tensor::from_vec((1, 2), vec![3.0, -2.0])?);
/// let x = tape.constant(Tensor::from_vec((2, 1), vec![1.0, 4.0])?);
/// let y = tape.matmul(w, x); // 3*1 + (-2)*4 = -5
/// let loss = tape.square(y);
/// let grads = tape.backward(loss);
/// // d(y²)/dw = 2y·x = [-10, -40]
/// assert_eq!(grads.get(w).unwrap().data(), &[-10.0, -40.0]);
/// # Ok::<(), matgnn_tensor::TensorError>(())
/// ```
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    tracker: Option<MemoryTracker>,
}

impl Tape {
    /// Creates an empty tape with no memory tracking.
    pub fn new() -> Self {
        Tape {
            nodes: Vec::with_capacity(NODE_HINT.load(Ordering::Relaxed)),
            tracker: None,
        }
    }

    /// Creates an empty tape that reports activation/gradient bytes to
    /// `tracker`.
    pub fn with_tracker(tracker: MemoryTracker) -> Self {
        Tape {
            nodes: Vec::with_capacity(NODE_HINT.load(Ordering::Relaxed)),
            tracker: Some(tracker),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total bytes of forward values currently held by the tape.
    pub fn activation_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.tracked_bytes).sum()
    }

    /// The forward value of `var`.
    ///
    /// # Panics
    ///
    /// Panics if the value was already released by [`backward`] or if `var`
    /// belongs to another tape.
    ///
    /// [`backward`]: Tape::backward
    pub fn value(&self, var: Var) -> &Tensor {
        &self.nodes[var.id].value
    }

    /// The shape of `var`'s value.
    pub fn shape(&self, var: Var) -> &Shape {
        self.nodes[var.id].value.shape()
    }

    fn push(&mut self, op: Op, value: Tensor, needs_grad: bool) -> Var {
        let is_leaf = matches!(op, Op::Leaf { .. });
        // Leaves are externally owned (parameters, dataset tensors); only
        // op outputs count as activations.
        let tracked_bytes = if is_leaf { 0 } else { value.bytes() as u64 };
        if let Some(t) = &self.tracker {
            if tracked_bytes > 0 {
                t.alloc(MemoryCategory::Activations, tracked_bytes);
            }
        }
        let id = self.nodes.len();
        self.nodes.push(Node {
            op,
            value,
            needs_grad,
            tracked_bytes,
        });
        Var { id }
    }

    fn needs(&self, v: Var) -> bool {
        self.nodes[v.id].needs_grad
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Records an external value that does **not** require gradients
    /// (inputs, targets, constant coefficients).
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(
            Op::Leaf {
                requires_grad: false,
            },
            value,
            false,
        )
    }

    /// Records an external value that requires gradients (a parameter).
    pub fn param(&mut self, value: Tensor) -> Var {
        self.push(
            Op::Leaf {
                requires_grad: true,
            },
            value,
            true,
        )
    }

    // ------------------------------------------------------------------
    // Elementwise ops
    // ------------------------------------------------------------------

    /// `a + b` (same shape).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::Add(a, b), v, ng)
    }

    /// `a - b` (same shape).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::Sub(a, b), v, ng)
    }

    /// Elementwise `a * b` (same shape).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).mul(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::Mul(a, b), v, ng)
    }

    /// `alpha * a`.
    pub fn scale(&mut self, a: Var, alpha: f32) -> Var {
        let v = self.value(a).scale(alpha);
        let ng = self.needs(a);
        self.push(Op::Scale(a, alpha), v, ng)
    }

    /// `a + alpha` element-wise.
    pub fn add_scalar(&mut self, a: Var, alpha: f32) -> Var {
        let v = self.value(a).add_scalar(alpha);
        let ng = self.needs(a);
        self.push(Op::AddScalar(a), v, ng)
    }

    /// `-a`.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = self.value(a).neg();
        let ng = self.needs(a);
        self.push(Op::Neg(a), v, ng)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.value(a).relu();
        let ng = self.needs(a);
        self.push(Op::Relu(a), v, ng)
    }

    /// SiLU / swish activation.
    pub fn silu(&mut self, a: Var) -> Var {
        let v = self.value(a).silu();
        let ng = self.needs(a);
        self.push(Op::Silu(a), v, ng)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).tanh();
        let ng = self.needs(a);
        self.push(Op::Tanh(a), v, ng)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).sigmoid();
        let ng = self.needs(a);
        self.push(Op::Sigmoid(a), v, ng)
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        let v = self.value(a).square();
        let ng = self.needs(a);
        self.push(Op::Square(a), v, ng)
    }

    /// Elementwise square root.
    pub fn sqrt(&mut self, a: Var) -> Var {
        let v = self.value(a).sqrt();
        let ng = self.needs(a);
        self.push(Op::Sqrt(a), v, ng)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.value(a).exp();
        let ng = self.needs(a);
        self.push(Op::Exp(a), v, ng)
    }

    /// Elementwise reciprocal `1/a`.
    pub fn recip(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| 1.0 / x);
        let ng = self.needs(a);
        self.push(Op::Recip(a), v, ng)
    }

    // ------------------------------------------------------------------
    // Linear algebra & broadcasting
    // ------------------------------------------------------------------

    /// Matrix product `[n,k] × [k,m]`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::Matmul(a, b), v, ng)
    }

    /// Adds a bias row vector to every row of a matrix.
    pub fn add_row(&mut self, a: Var, bias: Var) -> Var {
        let v = self.value(a).add_row(self.value(bias));
        let ng = self.needs(a) || self.needs(bias);
        self.push(Op::AddRow(a, bias), v, ng)
    }

    /// Adds a `[rows,1]` column to every column of a matrix.
    pub fn add_col(&mut self, a: Var, col: Var) -> Var {
        let v = self.value(a).add_col(self.value(col));
        let ng = self.needs(a) || self.needs(col);
        self.push(Op::AddCol(a, col), v, ng)
    }

    /// Broadcast-multiplies each column of `a` by the matching entry of a
    /// length-`cols` row vector.
    pub fn mul_row(&mut self, a: Var, row: Var) -> Var {
        let v = self.value(a).mul_row(self.value(row));
        let ng = self.needs(a) || self.needs(row);
        self.push(Op::MulRow(a, row), v, ng)
    }

    /// Broadcast-multiplies each row of `a` by the matching entry of a
    /// `[rows,1]` column `col`.
    pub fn mul_col(&mut self, a: Var, col: Var) -> Var {
        let v = self.value(a).mul_col(self.value(col));
        let ng = self.needs(a) || self.needs(col);
        self.push(Op::MulCol(a, col), v, ng)
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements → scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).sum_all());
        let ng = self.needs(a);
        self.push(Op::SumAll(a), v, ng)
    }

    /// Mean of all elements → scalar.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).mean_all());
        let ng = self.needs(a);
        self.push(Op::MeanAll(a), v, ng)
    }

    /// Row sums `[n,m] → [n,1]`.
    pub fn sum_axis1(&mut self, a: Var) -> Var {
        let v = self.value(a).sum_axis1();
        let ng = self.needs(a);
        self.push(Op::SumAxis1(a), v, ng)
    }

    // ------------------------------------------------------------------
    // Indexing
    // ------------------------------------------------------------------

    /// Gathers rows `out[i] = a[idx[i]]`.
    pub fn gather_rows(&mut self, a: Var, idx: Arc<Vec<usize>>) -> Var {
        let v = self.value(a).gather_rows(&idx);
        let ng = self.needs(a);
        self.push(Op::GatherRows(a, idx), v, ng)
    }

    /// Scatter-adds rows of `a` into `n_out` rows (segment sum).
    pub fn scatter_add_rows(&mut self, a: Var, idx: Arc<Vec<usize>>, n_out: usize) -> Var {
        let v = self.value(a).scatter_add_rows(&idx, n_out);
        let ng = self.needs(a);
        self.push(Op::ScatterAddRows(a, idx, n_out), v, ng)
    }

    /// Concatenates matrices along the column axis.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Tensor::concat_cols(&tensors);
        let ng = parts.iter().any(|&p| self.needs(p));
        self.push(Op::ConcatCols(parts.to_vec()), v, ng)
    }

    /// Extracts columns `[start, end)`.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let v = self.value(a).slice_cols(start, end);
        let ng = self.needs(a);
        self.push(Op::SliceCols(a, start, end), v, ng)
    }

    /// The linear layer `[p₀ ‖ p₁ ‖ …]·W + b` over the column
    /// concatenation of `parts`, without building the concatenation.
    ///
    /// Part `p` meets its own row block of the single weight `W` (rows in
    /// part order, so `W` has the shape and layout of the concatenated
    /// layer's weight), and each product is taken at the part's own row
    /// count: a gathered part is multiplied *before* the gather (matmul
    /// rows are independent), so an edge layer over `h[src]` costs node-
    /// rather than edge-level FLOPs. Row `r` of the output is assembled
    /// in one pass as
    ///
    /// ```text
    /// D[r] + (((P₀[i₀[r]] + P₁[i₁[r]]) + …) + b)
    /// ```
    ///
    /// where `D = x_a·W_a + x_b·W_b + …` sums the dense parts' products in
    /// part order and `P_g = x_g·W_g` are the gathered parts' products
    /// ([`Tensor`]'s one `block_linear` kernel, which the non-recording
    /// executor runs too).
    ///
    /// Backward scatters the output adjoint to each gathered part's rows,
    /// takes every weight and input product at the part's row count, and
    /// writes the row blocks of one `W`-shaped gradient in place.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use matgnn_tensor::{BlockPart, Tape, Tensor};
    ///
    /// let mut tape = Tape::new();
    /// let h = tape.constant(Tensor::from_vec((2, 1), vec![1.0, 2.0])?);
    /// let w = tape.param(Tensor::from_vec((2, 1), vec![10.0, 1.0])?);
    /// let b = tape.param(Tensor::from_vec(1usize, vec![0.5])?);
    /// // [h[src] ‖ h[dst]]·W + b over three edges.
    /// let (src, dst) = (Arc::new(vec![0, 1, 1]), Arc::new(vec![1, 0, 1]));
    /// let y = tape.block_linear(
    ///     &[BlockPart::gathered(h, src), BlockPart::gathered(h, dst)],
    ///     w,
    ///     b,
    /// );
    /// assert_eq!(tape.value(y).data(), &[12.5, 21.5, 22.5]);
    /// # Ok::<(), matgnn_tensor::TensorError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, the parts' widths do not add up to
    /// `W`'s rows, a dense part's row count differs from the output's, or
    /// an index is out of range.
    pub fn block_linear<const N: usize>(&mut self, parts: &[BlockPart; N], w: Var, b: Var) -> Var {
        let v = Tensor::block_linear(
            parts
                .each_ref()
                .map(|p| (self.value(p.x), p.rows.as_deref().map(Vec::as_slice))),
            self.value(w),
            self.value(b),
        );
        let ng = parts.iter().any(|p| self.needs(p.x)) || self.needs(w) || self.needs(b);
        self.push(
            Op::BlockLinear {
                parts: parts.to_vec(),
                w,
                b,
            },
            v,
            ng,
        )
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Runs reverse-mode differentiation from `loss` and returns gradients
    /// for every `needs_grad` node reachable from it.
    ///
    /// Forward values of non-leaf nodes at or below `loss` are **released**
    /// as their adjoints are computed (mirroring framework behaviour), so
    /// `value()` must not be called on them afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward(&mut self, loss: Var) -> Gradients {
        assert!(
            self.nodes[loss.id].value.shape().is_scalar_like(),
            "backward from non-scalar {}",
            self.nodes[loss.id].value.shape()
        );
        let seed = Tensor::full(self.nodes[loss.id].value.shape().clone(), 1.0);
        self.backward_seeded(&[(loss, seed)])
    }

    /// Runs reverse-mode differentiation from explicit adjoint seeds.
    ///
    /// Instead of starting from a scalar loss with adjoint 1, each
    /// `(var, seed)` pair injects `seed` as the incoming gradient of `var`.
    /// This is the primitive that activation checkpointing uses to chain
    /// gradients across recomputed segments: the downstream segment's input
    /// gradients become the upstream segment's output seeds.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty or a seed's shape does not match its
    /// variable's value shape.
    pub fn backward_seeded(&mut self, seeds: &[(Var, Tensor)]) -> Gradients {
        self.backward_impl(seeds, None)
    }

    /// [`backward`](Tape::backward) with an **early-gradient sink**: as the
    /// reverse walk passes each listed leaf's *lowest-id consumer*, that
    /// leaf's adjoint can no longer change (all remaining nodes have
    /// smaller ids, and a leaf's gradient only accumulates from its
    /// consumers), so it is finalized and handed to `sink(pos, grad)`
    /// immediately — while the rest of backward is still running. This is
    /// the bucket-completion hook that lets DDP overlap gradient all-reduce
    /// with the tail of backward.
    ///
    /// `pos` is the index of the leaf inside `leaves`. Every listed leaf is
    /// emitted exactly once; a leaf the walk never reaches gets a zero
    /// gradient (matching what [`Gradients`] callers substitute for `None`).
    /// Emitted leaves are absent from the returned [`Gradients`]. The
    /// gradient *values* are bitwise-identical to [`backward`](Tape::backward) —
    /// the hook changes when a gradient becomes visible, never its math.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not scalar-like or a listed leaf is not a
    /// `requires_grad` leaf (a parameter).
    pub fn backward_with_leaf_sink(
        &mut self,
        loss: Var,
        leaves: &[Var],
        sink: &mut dyn FnMut(usize, Tensor),
    ) -> Gradients {
        assert!(
            self.nodes[loss.id].value.shape().is_scalar_like(),
            "backward from non-scalar {}",
            self.nodes[loss.id].value.shape()
        );
        let seed = Tensor::full(self.nodes[loss.id].value.shape().clone(), 1.0);
        self.backward_impl(&[(loss, seed)], Some((leaves, sink)))
    }

    /// Seeded variant of [`backward_with_leaf_sink`](Tape::backward_with_leaf_sink)
    /// (see [`backward_seeded`](Tape::backward_seeded) for seeding
    /// semantics) — the activation-checkpointing path of the overlap hook.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty, a seed shape mismatches, or a listed
    /// leaf is not a parameter leaf.
    pub fn backward_seeded_with_leaf_sink(
        &mut self,
        seeds: &[(Var, Tensor)],
        leaves: &[Var],
        sink: &mut dyn FnMut(usize, Tensor),
    ) -> Gradients {
        self.backward_impl(seeds, Some((leaves, sink)))
    }

    fn backward_impl(
        &mut self,
        seeds: &[(Var, Tensor)],
        mut hook: Option<LeafSinkHook<'_>>,
    ) -> Gradients {
        assert!(!seeds.is_empty(), "backward_seeded with no seeds");
        let n = self.nodes.len();
        let mut grads: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
        let mut grad_bytes: Vec<u64> = vec![0; n];
        let mut start = 0usize;
        for (var, seed) in seeds {
            assert_eq!(
                seed.shape(),
                self.nodes[var.id].value.shape(),
                "seed shape mismatch for node {}",
                var.id
            );
            match &mut grads[var.id] {
                Some(existing) => existing.axpy(1.0, seed),
                slot @ None => *slot = Some(seed.clone()),
            }
            start = start.max(var.id);
        }

        // Fire schedule for the leaf sink: `(fire_id, leaf_pos)` pairs,
        // where `fire_id` is the leaf's lowest-id consumer. Scanning nodes
        // in ascending id order finds each operand's first (= minimum)
        // consumer in one pass. Leaves nothing consumes keep
        // `usize::MAX` and fire on the walk's first iteration — their
        // gradient is zero and can never change. The schedule is sorted
        // ascending and drained from the back as the walk descends, so
        // emission order is deterministic: descending fire id, ties by
        // descending position in `leaves`.
        let mut schedule: Vec<(usize, usize)> = Vec::new();
        if let Some((leaves, _)) = &hook {
            let mut min_consumer: Vec<usize> = vec![usize::MAX; n];
            for (id, node) in self.nodes.iter().enumerate() {
                node.op.for_each_operand(|v| {
                    if min_consumer[v.id] == usize::MAX {
                        min_consumer[v.id] = id;
                    }
                });
            }
            for (pos, leaf) in leaves.iter().enumerate() {
                assert!(
                    matches!(
                        self.nodes[leaf.id].op,
                        Op::Leaf {
                            requires_grad: true
                        }
                    ),
                    "leaf sink entry {pos} (node {}) is not a parameter leaf",
                    leaf.id
                );
                schedule.push((min_consumer[leaf.id], pos));
            }
            schedule.sort_unstable();
        }

        for id in (0..=start).rev() {
            self.backward_node(id, &mut grads, &mut grad_bytes);
            // Any leaf whose lowest-id consumer has now run is final: hand
            // it to the sink while the remaining backward continues.
            if let Some((leaves, sink)) = hook.as_mut() {
                while schedule.last().is_some_and(|&(fire, _)| fire >= id) {
                    let (_, pos) = schedule.pop().expect("non-empty schedule");
                    let leaf = leaves[pos];
                    let g = grads[leaf.id].take().unwrap_or_else(|| {
                        Tensor::zeros(self.nodes[leaf.id].value.shape().clone())
                    });
                    sink(pos, g);
                }
            }
        }
        Gradients { grads }
    }

    /// One reverse-walk step: consume node `id`'s adjoint (if any), apply
    /// its backward rule, release its forward value, and keep parameter
    /// leaf gradients for the caller.
    fn backward_node(&mut self, id: usize, grads: &mut [Option<Tensor>], grad_bytes: &mut [u64]) {
        let Some(out_grad) = grads[id].take() else {
            return;
        };
        if !self.nodes[id].needs_grad {
            out_grad.recycle();
            return;
        }
        self.apply_backward(id, &self.nodes[id].op, &out_grad, grads, grad_bytes);
        // The adjoint of this node has been fully consumed; release its
        // byte accounting (leaves keep their gradients for the caller).
        if let Some(t) = &self.tracker {
            if grad_bytes[id] > 0 {
                t.free(MemoryCategory::Gradients, grad_bytes[id]);
                grad_bytes[id] = 0;
            }
        }
        // Release this node's forward value: every consumer (higher id)
        // has already run its backward, and this node's own adjoint rule
        // has just used it. The buffer goes straight back to the
        // recycler so the next step's forward pass reuses it.
        if !matches!(self.nodes[id].op, Op::Leaf { .. }) {
            if let Some(t) = &self.tracker {
                if self.nodes[id].tracked_bytes > 0 {
                    t.free(MemoryCategory::Activations, self.nodes[id].tracked_bytes);
                }
            }
            self.nodes[id].tracked_bytes = 0;
            std::mem::replace(&mut self.nodes[id].value, Tensor::released()).recycle();
        }
        // Leaf gradients stay in `grads` for the caller; any other
        // consumed adjoint is returned to the recycler.
        if matches!(
            self.nodes[id].op,
            Op::Leaf {
                requires_grad: true
            }
        ) {
            grads[id] = Some(out_grad);
        } else {
            out_grad.recycle();
        }
    }

    fn accumulate(
        &self,
        grads: &mut [Option<Tensor>],
        grad_bytes: &mut [u64],
        var: Var,
        delta: Tensor,
    ) {
        if !self.nodes[var.id].needs_grad {
            return;
        }
        match &mut grads[var.id] {
            Some(existing) => {
                // In-place accumulation via the pooled axpy; the delta's
                // buffer is immediately available for reuse.
                existing.axpy(1.0, &delta);
                delta.recycle();
            }
            slot @ None => {
                let bytes = delta.bytes() as u64;
                // Intermediate gradients count as transient gradient bytes;
                // parameter-leaf gradients are persistent buffers accounted
                // for by the optimizer, so only track non-leaf adjoints.
                if !matches!(self.nodes[var.id].op, Op::Leaf { .. }) {
                    if let Some(t) = &self.tracker {
                        t.alloc(MemoryCategory::Gradients, bytes);
                    }
                    grad_bytes[var.id] = bytes;
                }
                *slot = Some(delta);
            }
        }
    }

    fn apply_backward(
        &self,
        id: usize,
        op: &Op,
        g: &Tensor,
        grads: &mut [Option<Tensor>],
        grad_bytes: &mut [u64],
    ) {
        match op {
            Op::Leaf { .. } => {}
            Op::Add(a, b) => {
                self.accumulate(grads, grad_bytes, *a, g.clone());
                self.accumulate(grads, grad_bytes, *b, g.clone());
            }
            Op::Sub(a, b) => {
                self.accumulate(grads, grad_bytes, *a, g.clone());
                self.accumulate(grads, grad_bytes, *b, g.neg());
            }
            Op::Mul(a, b) => {
                let ga = g.mul(self.value(*b));
                let gb = g.mul(self.value(*a));
                self.accumulate(grads, grad_bytes, *a, ga);
                self.accumulate(grads, grad_bytes, *b, gb);
            }
            Op::Scale(a, alpha) => {
                self.accumulate(grads, grad_bytes, *a, g.scale(*alpha));
            }
            Op::AddScalar(a) => {
                self.accumulate(grads, grad_bytes, *a, g.clone());
            }
            Op::Neg(a) => {
                self.accumulate(grads, grad_bytes, *a, g.neg());
            }
            Op::Matmul(a, b) => {
                if self.needs(*a) {
                    let ga = g.matmul_nt(self.value(*b));
                    self.accumulate(grads, grad_bytes, *a, ga);
                }
                if self.needs(*b) {
                    let gb = self.value(*a).matmul_tn(g);
                    self.accumulate(grads, grad_bytes, *b, gb);
                }
            }
            Op::AddRow(a, bias) => {
                self.accumulate(grads, grad_bytes, *a, g.clone());
                if self.needs(*bias) {
                    let gb_flat = g.sum_axis0();
                    let gb = gb_flat
                        .reshape(self.shape(*bias).clone())
                        .expect("add_row bias grad shape");
                    self.accumulate(grads, grad_bytes, *bias, gb);
                }
            }
            Op::AddCol(a, col) => {
                self.accumulate(grads, grad_bytes, *a, g.clone());
                if self.needs(*col) {
                    let gc = g
                        .sum_axis1()
                        .reshape(self.shape(*col).clone())
                        .expect("add_col grad shape");
                    self.accumulate(grads, grad_bytes, *col, gc);
                }
            }
            Op::MulRow(a, row) => {
                if self.needs(*a) {
                    self.accumulate(grads, grad_bytes, *a, g.mul_row(self.value(*row)));
                }
                if self.needs(*row) {
                    let gr = g
                        .mul(self.value(*a))
                        .sum_axis0()
                        .reshape(self.shape(*row).clone())
                        .expect("mul_row grad shape");
                    self.accumulate(grads, grad_bytes, *row, gr);
                }
            }
            Op::MulCol(a, col) => {
                if self.needs(*a) {
                    self.accumulate(grads, grad_bytes, *a, g.mul_col(self.value(*col)));
                }
                if self.needs(*col) {
                    let gc = g
                        .mul(self.value(*a))
                        .sum_axis1()
                        .reshape(self.shape(*col).clone())
                        .expect("mul_col grad shape");
                    self.accumulate(grads, grad_bytes, *col, gc);
                }
            }
            Op::Relu(a) => {
                let mask = self.value(*a).map(|x| if x > 0.0 { 1.0 } else { 0.0 });
                self.accumulate(grads, grad_bytes, *a, g.mul(&mask));
            }
            Op::Silu(a) => {
                // d/dx silu = s(1 + x(1 − s)) with s = sigmoid(x), via the
                // vectorized SiluGrad kernel.
                let d = self.value(*a).silu_grad();
                self.accumulate(grads, grad_bytes, *a, g.mul(&d));
            }
            Op::Tanh(a) => {
                // y = tanh(x); dy/dx = 1 - y². Output still live: its value
                // is freed only after this node's backward runs.
                let y = &self.nodes[id].value;
                let d = y.map(|y| 1.0 - y * y);
                self.accumulate(grads, grad_bytes, *a, g.mul(&d));
            }
            Op::Sigmoid(a) => {
                let y = &self.nodes[id].value;
                let d = y.map(|y| y * (1.0 - y));
                self.accumulate(grads, grad_bytes, *a, g.mul(&d));
            }
            Op::Square(a) => {
                let d = self.value(*a).scale(2.0);
                self.accumulate(grads, grad_bytes, *a, g.mul(&d));
            }
            Op::Sqrt(a) => {
                let y = &self.nodes[id].value;
                let d = y.map(|y| 0.5 / y.max(1e-12));
                self.accumulate(grads, grad_bytes, *a, g.mul(&d));
            }
            Op::Exp(a) => {
                let y = &self.nodes[id].value;
                self.accumulate(grads, grad_bytes, *a, g.mul(y));
            }
            Op::Recip(a) => {
                let y = &self.nodes[id].value;
                let d = y.map(|y| -y * y);
                self.accumulate(grads, grad_bytes, *a, g.mul(&d));
            }
            Op::SumAll(a) => {
                let gv = g.item();
                let d = Tensor::full(self.shape(*a).clone(), gv);
                self.accumulate(grads, grad_bytes, *a, d);
            }
            Op::MeanAll(a) => {
                let n = self.shape(*a).numel().max(1) as f32;
                let d = Tensor::full(self.shape(*a).clone(), g.item() / n);
                self.accumulate(grads, grad_bytes, *a, d);
            }
            Op::SumAxis1(a) => {
                // Broadcast g [n,1] across the columns of a [n,m].
                let d = Tensor::ones(self.shape(*a).clone()).mul_col(g);
                self.accumulate(grads, grad_bytes, *a, d);
            }
            Op::GatherRows(a, idx) => {
                let n = self.shape(*a).rows();
                let d = g.scatter_add_rows(idx, n);
                self.accumulate(grads, grad_bytes, *a, d);
            }
            Op::ScatterAddRows(a, idx, _n_out) => {
                let d = g.gather_rows(idx);
                self.accumulate(grads, grad_bytes, *a, d);
            }
            Op::ConcatCols(parts) => {
                let mut offset = 0;
                for &p in parts {
                    let w = self.shape(p).cols();
                    if self.needs(p) {
                        let d = g.slice_cols(offset, offset + w);
                        self.accumulate(grads, grad_bytes, p, d);
                    }
                    offset += w;
                }
            }
            Op::SliceCols(a, start, end) => {
                let (n, m) = (self.shape(*a).rows(), self.shape(*a).cols());
                let mut d = Tensor::zeros((n, m));
                if n * m > 0 {
                    let dd = d.data_mut();
                    let gd = g.data();
                    let w = end - start;
                    // Pure per-row copy into disjoint chunks, so the
                    // parallel split cannot change results; small grads
                    // stay serial to skip pool dispatch.
                    let (start, end) = (*start, *end);
                    let copy = |off: usize, chunk: &mut [f32]| {
                        let r0 = off / m;
                        for (local, drow) in chunk.chunks_mut(m).enumerate() {
                            let r = r0 + local;
                            drow[start..end].copy_from_slice(&gd[r * w..(r + 1) * w]);
                        }
                    };
                    if n * m >= (1 << 16) && crate::pool::num_threads() > 1 {
                        crate::pool::for_each_chunk_mut(dd, m, copy);
                    } else {
                        copy(0, dd);
                    }
                }
                self.accumulate(grads, grad_bytes, *a, d);
            }
            Op::BlockLinear { parts, w, b } => {
                let wv = self.value(*w);
                let cols = wv.cols();
                let mut gw = self.needs(*w).then(|| Tensor::zeros(wv.shape().clone()));
                let mut r0 = 0;
                for p in parts {
                    let x = self.value(p.x);
                    let r1 = r0 + x.cols();
                    if self.needs(p.x) || gw.is_some() {
                        // The part's adjoint at its own row count: a
                        // gathered part's rows receive the scatter-sum
                        // of the edges that read them.
                        let scattered =
                            p.rows.as_ref().map(|idx| g.scatter_add_rows(idx, x.rows()));
                        let gp = scattered.as_ref().unwrap_or(g);
                        if let Some(gw) = &mut gw {
                            x.matmul_tn_into(gp, &mut gw.data_mut()[r0 * cols..r1 * cols]);
                        }
                        if self.needs(p.x) {
                            let dx = gp.matmul_nt_row_block(wv, r0, r1);
                            self.accumulate(grads, grad_bytes, p.x, dx);
                        }
                    }
                    r0 = r1;
                }
                if let Some(gw) = gw {
                    self.accumulate(grads, grad_bytes, *w, gw);
                }
                if self.needs(*b) {
                    let gb = g
                        .sum_axis0()
                        .reshape(self.shape(*b).clone())
                        .expect("block_linear bias grad shape");
                    self.accumulate(grads, grad_bytes, *b, gb);
                }
            }
        }
    }
}

impl Drop for Tape {
    fn drop(&mut self) {
        NODE_HINT.fetch_max(self.nodes.len(), Ordering::Relaxed);
        if let Some(t) = &self.tracker {
            let remaining = self.activation_bytes();
            if remaining > 0 {
                t.free(MemoryCategory::Activations, remaining);
            }
        }
        // Forward values that backward did not already release (forward-only
        // tapes, values above the loss) go back to the recycler. Leaves are
        // shared with their external owners, so `recycle` skips them.
        for node in self.nodes.drain(..) {
            node.value.recycle();
        }
    }
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tape")
            .field("nodes", &self.nodes.len())
            .field("activation_bytes", &self.activation_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_grad;
    use crate::rng::Rng;

    #[test]
    fn linear_regression_gradient() {
        // loss = mean((w·x + b - y)²)
        let mut tape = Tape::new();
        let w = tape.param(Tensor::from_vec((2, 1), vec![0.5, -0.5]).unwrap());
        let b = tape.param(Tensor::from_vec(1usize, vec![0.1]).unwrap());
        let x =
            tape.constant(Tensor::from_vec((3, 2), vec![1.0, 2.0, 0.0, 1.0, -1.0, 0.5]).unwrap());
        let y = tape.constant(Tensor::from_vec((3, 1), vec![1.0, 0.0, -1.0]).unwrap());
        let pred = tape.matmul(x, w);
        let pred = tape.add_row(pred, b);
        let err = tape.sub(pred, y);
        let sq = tape.square(err);
        let loss = tape.mean_all(sq);
        let grads = tape.backward(loss);
        assert!(grads.get(w).is_some());
        assert!(grads.get(b).is_some());
        // Finite-difference spot check on w[0].
        let f = |w0: f32| {
            let xs = [[1.0f32, 2.0], [0.0, 1.0], [-1.0, 0.5]];
            let ys = [1.0f32, 0.0, -1.0];
            let mut acc = 0.0;
            for i in 0..3 {
                let p = xs[i][0] * w0 + xs[i][1] * -0.5 + 0.1;
                acc += (p - ys[i]) * (p - ys[i]);
            }
            acc / 3.0
        };
        let eps = 1e-3;
        let num = (f(0.5 + eps) - f(0.5 - eps)) / (2.0 * eps);
        let ana = grads.get(w).unwrap().data()[0];
        assert!((num - ana).abs() < 1e-3, "numeric {num} vs analytic {ana}");
    }

    #[test]
    fn gradcheck_elementwise_chain() {
        let mut rng = Rng::seed_from_u64(3);
        let x0 = Tensor::rand_uniform((3, 4), 0.9, &mut rng);
        check_grad(
            &[x0],
            |tape, vars| {
                let a = tape.silu(vars[0]);
                let b = tape.tanh(a);
                let c = tape.square(b);
                let d = tape.add(c, a);
                tape.mean_all(d)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_matmul_bias() {
        let mut rng = Rng::seed_from_u64(4);
        let w = Tensor::randn((3, 2), 0.7, &mut rng);
        let x = Tensor::randn((4, 3), 0.7, &mut rng);
        let b = Tensor::randn(2usize, 0.5, &mut rng);
        check_grad(
            &[w, x, b],
            |tape, vars| {
                let y = tape.matmul(vars[1], vars[0]);
                let y = tape.add_row(y, vars[2]);
                let y = tape.relu(y);
                tape.sum_all(y)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_gather_scatter_concat() {
        let mut rng = Rng::seed_from_u64(5);
        let h = Tensor::randn((4, 3), 0.8, &mut rng);
        let idx_src = Arc::new(vec![0usize, 1, 3, 3, 2]);
        let idx_dst = Arc::new(vec![1usize, 0, 2, 0, 3]);
        check_grad(
            &[h],
            move |tape, vars| {
                let hi = tape.gather_rows(vars[0], Arc::clone(&idx_src));
                let hj = tape.gather_rows(vars[0], Arc::clone(&idx_dst));
                let cat = tape.concat_cols(&[hi, hj]);
                let left = tape.slice_cols(cat, 0, 3);
                let agg = tape.scatter_add_rows(left, Arc::clone(&idx_dst), 4);
                let s = tape.square(agg);
                tape.mean_all(s)
            },
            2e-2,
        );
    }

    /// Edge lists over five atoms with repeated sources and destinations;
    /// atom 4 has no edges at all.
    fn block_edges() -> (Arc<Vec<usize>>, Arc<Vec<usize>>) {
        (
            Arc::new(vec![0, 0, 1, 2, 2, 2, 3, 1]),
            Arc::new(vec![1, 2, 0, 0, 1, 3, 2, 2]),
        )
    }

    /// `[h[src] ‖ h[dst] ‖ df]·W + b` as one block-linear node.
    fn edge_block_linear(
        tape: &mut Tape,
        v: &[Var],
        src: &Arc<Vec<usize>>,
        dst: &Arc<Vec<usize>>,
    ) -> Var {
        let parts = [
            BlockPart::gathered(v[0], Arc::clone(src)),
            BlockPart::gathered(v[0], Arc::clone(dst)),
            BlockPart::dense(v[1]),
        ];
        tape.block_linear(&parts, v[2], v[3])
    }

    /// The same layer as the composition it replaces in the EGNN:
    /// gather ×2 → concat → matmul → bias.
    fn edge_concat_linear(
        tape: &mut Tape,
        v: &[Var],
        src: &Arc<Vec<usize>>,
        dst: &Arc<Vec<usize>>,
    ) -> Var {
        let hi = tape.gather_rows(v[0], Arc::clone(src));
        let hj = tape.gather_rows(v[0], Arc::clone(dst));
        let cat = tape.concat_cols(&[hi, hj, v[1]]);
        let y = tape.matmul(cat, v[2]);
        tape.add_row(y, v[3])
    }

    /// `(h [5×3], df [E×2], W [8×4], b [4])` for `e` edges.
    fn block_inputs(e: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = Rng::seed_from_u64(seed);
        vec![
            Tensor::randn((5, 3), 0.8, &mut rng),
            Tensor::randn((e, 2), 0.8, &mut rng),
            Tensor::randn((8, 4), 0.6, &mut rng),
            Tensor::randn(4usize, 0.5, &mut rng),
        ]
    }

    #[test]
    fn gradcheck_block_linear_edge_layer() {
        let (src, dst) = block_edges();
        check_grad(
            &block_inputs(src.len(), 41),
            move |tape, vars| {
                let y = edge_block_linear(tape, vars, &src, &dst);
                let y = tape.tanh(y);
                let q = tape.square(y);
                tape.mean_all(q)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_block_linear_dense_parts() {
        // φ_h's form: `[h ‖ agg]·W + b`, no index.
        let mut rng = Rng::seed_from_u64(43);
        let inputs = vec![
            Tensor::randn((5, 3), 0.8, &mut rng),
            Tensor::randn((5, 2), 0.8, &mut rng),
            Tensor::randn((5, 4), 0.6, &mut rng),
            Tensor::randn(4usize, 0.5, &mut rng),
        ];
        check_grad(
            &inputs,
            |tape, vars| {
                let parts = [BlockPart::dense(vars[0]), BlockPart::dense(vars[1])];
                let y = tape.block_linear(&parts, vars[2], vars[3]);
                let y = tape.silu(y);
                tape.mean_all(y)
            },
            2e-2,
        );
    }

    /// Runs `layer` on `inputs` bound as parameters, with the loss
    /// `Σ y ⊙ r` for a fixed random `r`, and returns the output value and
    /// the gradient of every input (zeros where none flowed).
    fn value_and_grads(
        inputs: &[Tensor],
        layer: impl Fn(&mut Tape, &[Var]) -> Var,
    ) -> (Tensor, Vec<Tensor>) {
        let mut tape = Tape::new();
        let vars: Vec<Var> = inputs.iter().map(|t| tape.param(t.clone())).collect();
        let y = layer(&mut tape, &vars);
        let value = tape.value(y).clone();
        let mut rng = Rng::seed_from_u64(47);
        let r = tape.constant(Tensor::randn(value.shape().clone(), 1.0, &mut rng));
        let weighted = tape.mul(y, r);
        let loss = tape.sum_all(weighted);
        let mut grads = tape.backward(loss);
        let g = vars
            .iter()
            .zip(inputs)
            .map(|(&v, t)| {
                grads
                    .take(v)
                    .unwrap_or_else(|| Tensor::zeros(t.shape().clone()))
            })
            .collect();
        (value, g)
    }

    fn assert_rel_close(tag: &str, a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape(), "{tag}: shape");
        let scale = a.max_abs().max(b.max_abs());
        let diff = a.sub(b).max_abs();
        assert!(
            diff <= 1e-5 * scale,
            "{tag}: max diff {diff:e} at scale {scale:e}"
        );
    }

    #[test]
    fn block_linear_matches_gather_concat_matmul() {
        let (src, dst) = block_edges();
        let inputs = block_inputs(src.len(), 53);
        let (y_new, g_new) = value_and_grads(&inputs, |t, v| edge_block_linear(t, v, &src, &dst));
        let (y_old, g_old) = value_and_grads(&inputs, |t, v| edge_concat_linear(t, v, &src, &dst));
        assert_rel_close("value", &y_new, &y_old);
        for (name, (a, b)) in ["h", "df", "W", "b"].iter().zip(g_new.iter().zip(&g_old)) {
            assert_rel_close(name, a, b);
        }
        // The edgeless atom 4 gets no gradient through either path.
        assert!((0..3).all(|c| g_new[0].get(4, c) == 0.0));
    }

    #[test]
    fn block_linear_with_zero_edges() {
        let empty = Arc::new(Vec::new());
        let inputs = block_inputs(0, 59);
        let (y_new, g_new) =
            value_and_grads(&inputs, |t, v| edge_block_linear(t, v, &empty, &empty));
        let (y_old, g_old) =
            value_and_grads(&inputs, |t, v| edge_concat_linear(t, v, &empty, &empty));
        assert_eq!(y_new.shape().dims(), &[0, 4]);
        assert_eq!(y_new, y_old);
        for (a, b) in g_new.iter().zip(&g_old) {
            assert_eq!(a.shape(), b.shape());
            assert!(a.data().iter().all(|&x| x == 0.0));
            assert!(b.data().iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "parts cover 5 of 8 weight rows")]
    fn block_linear_rejects_a_short_weight_cover() {
        let inputs = block_inputs(5, 61);
        let mut tape = Tape::new();
        let v: Vec<Var> = inputs.into_iter().map(|t| tape.param(t)).collect();
        let parts = [BlockPart::dense(v[0]), BlockPart::dense(v[1])];
        let _ = tape.block_linear(&parts, v[2], v[3]);
    }

    #[test]
    fn gradcheck_add_col_mul_row() {
        let mut rng = Rng::seed_from_u64(19);
        let x = Tensor::randn((4, 3), 0.8, &mut rng);
        let col = Tensor::randn((4, 1), 0.8, &mut rng);
        let row = Tensor::randn(3usize, 0.8, &mut rng);
        check_grad(
            &[x, col, row],
            |tape, vars| {
                let y = tape.add_col(vars[0], vars[1]);
                let y = tape.mul_row(y, vars[2]);
                let y = tape.tanh(y);
                tape.mean_all(y)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_mul_col_sum_axis1() {
        let mut rng = Rng::seed_from_u64(6);
        let x = Tensor::randn((5, 3), 0.8, &mut rng);
        let c = Tensor::randn((5, 1), 0.8, &mut rng);
        check_grad(
            &[x, c],
            |tape, vars| {
                let y = tape.mul_col(vars[0], vars[1]);
                let s = tape.sum_axis1(y);
                let q = tape.square(s);
                tape.mean_all(q)
            },
            2e-2,
        );
    }

    #[test]
    fn gradcheck_sqrt_exp_recip() {
        let mut rng = Rng::seed_from_u64(7);
        // Keep inputs away from singular points.
        let x = Tensor::rand_uniform((3, 3), 0.4, &mut rng).add_scalar(1.5);
        check_grad(
            &[x],
            |tape, vars| {
                let a = tape.sqrt(vars[0]);
                let b = tape.exp(a);
                let c = tape.recip(b);
                let d = tape.sigmoid(c);
                tape.sum_all(d)
            },
            2e-2,
        );
    }

    #[test]
    fn fan_out_accumulates() {
        // y = x + x, dy/dx = 2
        let mut tape = Tape::new();
        let x = tape.param(Tensor::scalar(3.0));
        let y = tape.add(x, x);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap().item(), 2.0);
    }

    #[test]
    fn constants_get_no_grad() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::scalar(3.0));
        let w = tape.param(Tensor::scalar(2.0));
        let y = tape.mul(x, w);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert!(grads.get(x).is_none());
        assert_eq!(grads.get(w).unwrap().item(), 3.0);
    }

    #[test]
    fn memory_tracking_peaks_at_backward_start() {
        let tracker = MemoryTracker::new();
        let mut tape = Tape::with_tracker(tracker.clone());
        let w = tape.param(Tensor::ones((8, 8)));
        let x = tape.constant(Tensor::ones((16, 8)));
        let mut h = x;
        for _ in 0..4 {
            h = tape.matmul(h, w);
            h = tape.relu(h);
        }
        let loss = tape.mean_all(h);
        let after_forward = tracker.current().get(MemoryCategory::Activations);
        assert!(after_forward > 0);
        let _ = tape.backward(loss);
        // All activations released after backward.
        assert_eq!(tracker.current().get(MemoryCategory::Activations), 0);
        assert_eq!(tracker.current().get(MemoryCategory::Gradients), 0);
        // Peak includes forward activations.
        assert!(tracker.peak_total() >= after_forward);
    }

    #[test]
    fn tape_drop_releases_tracking() {
        let tracker = MemoryTracker::new();
        {
            let mut tape = Tape::with_tracker(tracker.clone());
            let x = tape.constant(Tensor::ones((4, 4)));
            let _y = tape.relu(x);
            assert!(tracker.current().get(MemoryCategory::Activations) > 0);
        }
        assert_eq!(tracker.current().get(MemoryCategory::Activations), 0);
    }

    #[test]
    fn seeded_backward_chains_segments() {
        // Split y = relu(x·W1)·W2 into two segments and chain gradients
        // manually; the result must equal the single-tape gradient.
        let mut rng = Rng::seed_from_u64(21);
        let w1 = Tensor::randn((3, 4), 0.7, &mut rng);
        let w2 = Tensor::randn((4, 1), 0.7, &mut rng);
        let x = Tensor::randn((5, 3), 0.7, &mut rng);

        // Reference: one tape.
        let mut tape = Tape::new();
        let vw1 = tape.param(w1.clone());
        let vw2 = tape.param(w2.clone());
        let vx = tape.constant(x.clone());
        let h = tape.matmul(vx, vw1);
        let h = tape.relu(h);
        let y = tape.matmul(h, vw2);
        let loss = tape.mean_all(y);
        let ref_grads = tape.backward(loss);
        let ref_g1 = ref_grads.get(vw1).unwrap().clone();
        let ref_g2 = ref_grads.get(vw2).unwrap().clone();

        // Segment 1 forward (no grad yet): h_val.
        let h_val = {
            let mut t1 = Tape::new();
            let vw1 = t1.param(w1.clone());
            let vx = t1.constant(x.clone());
            let h = t1.matmul(vx, vw1);
            let h = t1.relu(h);
            t1.value(h).clone()
        };
        // Segment 2 with loss; input h bound as param to receive a grad.
        let (g2, gh) = {
            let mut t2 = Tape::new();
            let vh = t2.param(h_val.clone());
            let vw2 = t2.param(w2.clone());
            let y = t2.matmul(vh, vw2);
            let loss = t2.mean_all(y);
            let mut g = t2.backward(loss);
            (g.take(vw2).unwrap(), g.take(vh).unwrap())
        };
        // Segment 1 recompute, seeded with gh.
        let g1 = {
            let mut t1 = Tape::new();
            let vw1 = t1.param(w1.clone());
            let vx = t1.constant(x.clone());
            let h = t1.matmul(vx, vw1);
            let h = t1.relu(h);
            let mut g = t1.backward_seeded(&[(h, gh)]);
            g.take(vw1).unwrap()
        };
        assert!(g1.allclose(&ref_g1, 1e-5));
        assert!(g2.allclose(&ref_g2, 1e-5));
    }

    /// A small fan-out graph whose backward exercises in-place adjoint
    /// accumulation, value release, and adjoint recycling; returns the
    /// parameter gradient bits.
    fn fanout_grad_bits() -> Vec<u32> {
        let mut rng = Rng::seed_from_u64(11);
        let mut tape = Tape::new();
        let w = tape.param(Tensor::randn((6, 6), 0.8, &mut rng));
        let x = tape.constant(Tensor::randn((9, 6), 0.8, &mut rng));
        let h = tape.matmul(x, w);
        let a = tape.silu(h);
        let b = tape.tanh(h); // fan-out: h feeds two consumers
        let s = tape.add(a, b);
        let q = tape.square(s);
        let loss = tape.mean_all(q);
        let grads = tape.backward(loss);
        grads
            .get(w)
            .unwrap()
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn gradcheck_through_in_place_backward_with_recycler_on() {
        let _rt = crate::Runtime::current().with_recycler(true).enter();
        let mut rng = Rng::seed_from_u64(23);
        let x = Tensor::randn((4, 5), 0.7, &mut rng);
        // Run twice so the second pass reads recycled buffers throughout.
        for _ in 0..2 {
            check_grad(
                std::slice::from_ref(&x),
                |tape, vars| {
                    let a = tape.silu(vars[0]);
                    let b = tape.add(a, vars[0]); // fan-out accumulation
                    let c = tape.square(b);
                    tape.mean_all(c)
                },
                2e-2,
            );
        }
    }

    #[test]
    fn backward_is_bitwise_identical_recycler_on_vs_off() {
        let fresh = {
            let _off = crate::Runtime::current().with_recycler(false).enter();
            fanout_grad_bits()
        };
        let _on = crate::Runtime::current().with_recycler(true).enter();
        let warm1 = fanout_grad_bits(); // populates the free list
        let warm2 = fanout_grad_bits(); // runs on recycled buffers
        assert_eq!(fresh, warm1);
        assert_eq!(fresh, warm2);
    }

    /// Two-layer MLP with both weights as params; returns `(tape, [w1, w2], loss)`.
    fn two_param_graph() -> (Tape, [Var; 2], Var) {
        let mut rng = Rng::seed_from_u64(31);
        let mut tape = Tape::new();
        let w1 = tape.param(Tensor::randn((3, 4), 0.7, &mut rng));
        let w2 = tape.param(Tensor::randn((4, 1), 0.7, &mut rng));
        let x = tape.constant(Tensor::randn((5, 3), 0.7, &mut rng));
        let h = tape.matmul(x, w1);
        let h = tape.silu(h);
        let y = tape.matmul(h, w2);
        let loss = tape.mean_all(y);
        (tape, [w1, w2], loss)
    }

    #[test]
    fn leaf_sink_matches_backward_bitwise() {
        let (mut tape, [w1, w2], loss) = two_param_graph();
        let grads = tape.backward(loss);
        let reference: Vec<Vec<u32>> = [w1, w2]
            .iter()
            .map(|&w| {
                grads
                    .get(w)
                    .unwrap()
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect();

        let (mut tape, [w1, w2], loss) = two_param_graph();
        let mut emitted: Vec<Option<Tensor>> = vec![None, None];
        let mut sink = |pos: usize, g: Tensor| {
            assert!(emitted[pos].is_none(), "leaf {pos} emitted twice");
            emitted[pos] = Some(g);
        };
        let rest = tape.backward_with_leaf_sink(loss, &[w1, w2], &mut sink);
        // Fired leaves are gone from the returned Gradients…
        assert!(rest.get(w1).is_none() && rest.get(w2).is_none());
        // …and every leaf arrived through the sink, bitwise-equal.
        for (pos, bits) in reference.iter().enumerate() {
            let got: Vec<u32> = emitted[pos]
                .as_ref()
                .unwrap()
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(&got, bits, "leaf {pos}");
        }
    }

    #[test]
    fn leaf_sink_fires_later_consumers_first() {
        // w2's lowest consumer (the second matmul) has a higher id than
        // w1's (the first matmul), so w2 must fire before w1 — that early
        // fire is exactly the overlap window DDP exploits.
        let (mut tape, [w1, w2], loss) = two_param_graph();
        let mut order = Vec::new();
        let mut sink = |pos: usize, g: Tensor| {
            order.push(pos);
            g.recycle();
        };
        let _ = tape.backward_with_leaf_sink(loss, &[w1, w2], &mut sink);
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn leaf_sink_emits_zeros_for_disconnected_params() {
        let mut tape = Tape::new();
        let used = tape.param(Tensor::scalar(2.0));
        let unused = tape.param(Tensor::ones((2, 2)));
        let y = tape.square(used);
        let loss = tape.sum_all(y);
        let mut emitted: Vec<Option<Tensor>> = vec![None, None];
        let mut sink = |pos: usize, g: Tensor| emitted[pos] = Some(g);
        let _ = tape.backward_with_leaf_sink(loss, &[used, unused], &mut sink);
        assert_eq!(emitted[0].as_ref().unwrap().item(), 4.0);
        let z = emitted[1].as_ref().unwrap();
        assert_eq!(z.shape(), &Shape::from((2usize, 2usize)));
        assert!(z.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "not a parameter leaf")]
    fn leaf_sink_rejects_non_leaves() {
        let mut tape = Tape::new();
        let x = tape.param(Tensor::scalar(1.0));
        let y = tape.square(x);
        let loss = tape.sum_all(y);
        let mut sink = |_: usize, g: Tensor| g.recycle();
        let _ = tape.backward_with_leaf_sink(loss, &[y], &mut sink);
    }

    #[test]
    #[should_panic(expected = "seed shape mismatch")]
    fn seeded_backward_shape_check() {
        let mut tape = Tape::new();
        let x = tape.param(Tensor::ones((2, 2)));
        let y = tape.relu(x);
        let _ = tape.backward_seeded(&[(y, Tensor::ones((3, 3)))]);
    }

    #[test]
    #[should_panic(expected = "backward from non-scalar")]
    fn backward_from_matrix_panics() {
        let mut tape = Tape::new();
        let x = tape.param(Tensor::ones((2, 2)));
        let y = tape.relu(x);
        let _ = tape.backward(y);
    }
}
