//! One op vocabulary, two executors.
//!
//! Model code written against [`Exec`] runs unchanged on the recording
//! [`Tape`] (training: every op becomes a node that backward walks) and on
//! [`NoTape`] (inference: values are plain [`Tensor`]s and nothing is
//! kept). An op takes by value the operand it may overwrite and borrows
//! the rest. On the tape that costs nothing ([`Var`] is a copyable
//! handle); without one, the op updates that operand in place when it is
//! the buffer's only owner — a bias add, activation, gate or residual
//! then needs no new buffer — and computes into a fresh buffer when the
//! caller kept a clone. Each op computes what the tape's op computes,
//! element for element (an in-place kernel equals its out-of-place
//! namesake bit for bit; `add`/`sub` in place are `axpy` with α = ±1,
//! which is exact), so a forward written once gives the same bits on
//! both executors.

use std::sync::Arc;

use crate::{BlockPart, Tape, Tensor, Var};

/// An executor of tensor ops: [`Tape`] records them, [`NoTape`] does not.
pub trait Exec {
    /// A value: a recorded [`Var`], or an owned [`Tensor`].
    type V: Clone;

    /// Brings an external tensor in (an input or a constant coefficient).
    fn constant(&mut self, value: Tensor) -> Self::V;
    /// `a + b`.
    fn add(&mut self, a: Self::V, b: &Self::V) -> Self::V;
    /// `a − b`.
    fn sub(&mut self, a: Self::V, b: &Self::V) -> Self::V;
    /// `alpha · a`.
    fn scale(&mut self, a: Self::V, alpha: f32) -> Self::V;
    /// `a + alpha`, element-wise.
    fn add_scalar(&mut self, a: Self::V, alpha: f32) -> Self::V;
    /// `−a`.
    fn neg(&mut self, a: Self::V) -> Self::V;
    /// Rectified linear unit.
    fn relu(&mut self, a: Self::V) -> Self::V;
    /// SiLU / swish.
    fn silu(&mut self, a: Self::V) -> Self::V;
    /// Hyperbolic tangent.
    fn tanh(&mut self, a: Self::V) -> Self::V;
    /// Logistic sigmoid.
    fn sigmoid(&mut self, a: Self::V) -> Self::V;
    /// Element-wise square.
    fn square(&mut self, a: Self::V) -> Self::V;
    /// Element-wise square root.
    fn sqrt(&mut self, a: Self::V) -> Self::V;
    /// Element-wise exponential.
    fn exp(&mut self, a: Self::V) -> Self::V;
    /// Element-wise `1/a`.
    fn recip(&mut self, a: Self::V) -> Self::V;
    /// Adds a length-`cols` row to every row of `a`.
    fn add_row(&mut self, a: Self::V, row: &Self::V) -> Self::V;
    /// Adds `col[r]` to every element of row `r` of `a`.
    fn add_col(&mut self, a: Self::V, col: &Self::V) -> Self::V;
    /// Multiplies every row of `a` element-wise by a length-`cols` row.
    fn mul_row(&mut self, a: Self::V, row: &Self::V) -> Self::V;
    /// Multiplies row `r` of `a` by `col[r]`.
    fn mul_col(&mut self, a: Self::V, col: &Self::V) -> Self::V;
    /// Matrix product `[n,k] × [k,m]`.
    fn matmul(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// Row sums `[n,m] → [n,1]`.
    fn sum_axis1(&mut self, a: &Self::V) -> Self::V;
    /// Mean of all elements, as a scalar.
    fn mean_all(&mut self, a: &Self::V) -> Self::V;
    /// Gathers rows `out[i] = a[idx[i]]`.
    fn gather_rows(&mut self, a: &Self::V, idx: &Arc<Vec<usize>>) -> Self::V;
    /// Scatter-adds the rows of `a` into `n_out` rows.
    fn scatter_add_rows(&mut self, a: &Self::V, idx: &Arc<Vec<usize>>, n_out: usize) -> Self::V;
    /// The linear layer `[p₀ ‖ p₁ ‖ …]·w + b` without building the
    /// concatenation (see [`Tape::block_linear`]).
    fn block_linear<const N: usize>(
        &mut self,
        parts: &[BlockPart<Self::V>; N],
        w: &Self::V,
        b: &Self::V,
    ) -> Self::V;
}

/// Tape methods with the executor's signature: `(a)`, or `(a, &b)`.
macro_rules! record {
    ($($op:ident),*) => {$(
        fn $op(&mut self, a: Var) -> Var {
            Tape::$op(self, a)
        }
    )*};
    ($($op:ident),* ; with operand) => {$(
        fn $op(&mut self, a: Var, b: &Var) -> Var {
            Tape::$op(self, a, *b)
        }
    )*};
}

impl Exec for Tape {
    type V = Var;

    record!(neg, relu, silu, tanh, sigmoid, square, sqrt, exp, recip);
    record!(add, sub, add_row, add_col, mul_row, mul_col; with operand);

    fn constant(&mut self, value: Tensor) -> Var {
        Tape::constant(self, value)
    }
    fn scale(&mut self, a: Var, alpha: f32) -> Var {
        Tape::scale(self, a, alpha)
    }
    fn add_scalar(&mut self, a: Var, alpha: f32) -> Var {
        Tape::add_scalar(self, a, alpha)
    }
    fn matmul(&mut self, a: &Var, b: &Var) -> Var {
        Tape::matmul(self, *a, *b)
    }
    fn sum_axis1(&mut self, a: &Var) -> Var {
        Tape::sum_axis1(self, *a)
    }
    fn mean_all(&mut self, a: &Var) -> Var {
        Tape::mean_all(self, *a)
    }
    fn gather_rows(&mut self, a: &Var, idx: &Arc<Vec<usize>>) -> Var {
        Tape::gather_rows(self, *a, Arc::clone(idx))
    }
    fn scatter_add_rows(&mut self, a: &Var, idx: &Arc<Vec<usize>>, n_out: usize) -> Var {
        Tape::scatter_add_rows(self, *a, Arc::clone(idx), n_out)
    }
    fn block_linear<const N: usize>(&mut self, parts: &[BlockPart; N], w: &Var, b: &Var) -> Var {
        Tape::block_linear(self, parts, *w, *b)
    }
}

/// The non-recording executor: runs each op on owned [`Tensor`]s and
/// keeps nothing for a backward pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoTape;

/// `a` updated by `in_place` when it owns its buffer alone, else
/// `fresh(&a)` in a new buffer — the same value either way.
fn reuse(
    mut a: Tensor,
    in_place: impl FnOnce(&mut Tensor),
    fresh: impl FnOnce(&Tensor) -> Tensor,
) -> Tensor {
    if a.is_unique() {
        in_place(&mut a);
        a
    } else {
        fresh(&a)
    }
}

/// Ops that have an in-place kernel: `op => op_in_place`, taking `(a)`
/// or `(a, &b)`.
macro_rules! in_place_or_fresh {
    ($($op:ident => $in_place:ident),*) => {$(
        fn $op(&mut self, a: Tensor) -> Tensor {
            reuse(a, Tensor::$in_place, Tensor::$op)
        }
    )*};
    ($($op:ident => $in_place:ident),* ; with operand) => {$(
        fn $op(&mut self, a: Tensor, b: &Tensor) -> Tensor {
            reuse(a, |a| a.$in_place(b), |a| a.$op(b))
        }
    )*};
}

impl Exec for NoTape {
    type V = Tensor;

    in_place_or_fresh!(
        relu => relu_in_place,
        silu => silu_in_place,
        sigmoid => sigmoid_in_place,
        square => square_in_place,
        sqrt => sqrt_in_place,
        exp => exp_in_place
    );
    in_place_or_fresh!(
        add_row => add_row_in_place,
        add_col => add_col_in_place,
        mul_row => mul_row_in_place,
        mul_col => mul_col_in_place;
        with operand
    );

    fn constant(&mut self, value: Tensor) -> Tensor {
        value
    }
    fn add(&mut self, a: Tensor, b: &Tensor) -> Tensor {
        reuse(a, |a| a.axpy(1.0, b), |a| a.add(b))
    }
    fn sub(&mut self, a: Tensor, b: &Tensor) -> Tensor {
        reuse(a, |a| a.axpy(-1.0, b), |a| a.sub(b))
    }
    fn scale(&mut self, a: Tensor, alpha: f32) -> Tensor {
        reuse(a, |a| a.scale_in_place(alpha), |a| a.scale(alpha))
    }
    fn add_scalar(&mut self, a: Tensor, alpha: f32) -> Tensor {
        reuse(a, |a| a.add_scalar_in_place(alpha), |a| a.add_scalar(alpha))
    }
    fn neg(&mut self, a: Tensor) -> Tensor {
        reuse(a, |a| a.map_in_place(|x| -x), Tensor::neg)
    }
    fn tanh(&mut self, a: Tensor) -> Tensor {
        reuse(a, |a| a.map_in_place(f32::tanh), Tensor::tanh)
    }
    fn recip(&mut self, a: Tensor) -> Tensor {
        reuse(a, |a| a.map_in_place(|x| 1.0 / x), |a| a.map(|x| 1.0 / x))
    }
    fn matmul(&mut self, a: &Tensor, b: &Tensor) -> Tensor {
        a.matmul(b)
    }
    fn sum_axis1(&mut self, a: &Tensor) -> Tensor {
        a.sum_axis1()
    }
    fn mean_all(&mut self, a: &Tensor) -> Tensor {
        Tensor::scalar(a.mean_all())
    }
    fn gather_rows(&mut self, a: &Tensor, idx: &Arc<Vec<usize>>) -> Tensor {
        a.gather_rows(idx)
    }
    fn scatter_add_rows(&mut self, a: &Tensor, idx: &Arc<Vec<usize>>, n_out: usize) -> Tensor {
        a.scatter_add_rows(idx, n_out)
    }
    fn block_linear<const N: usize>(
        &mut self,
        parts: &[BlockPart<Tensor>; N],
        w: &Tensor,
        b: &Tensor,
    ) -> Tensor {
        Tensor::block_linear(
            parts
                .each_ref()
                .map(|p| (&p.x, p.rows.as_deref().map(Vec::as_slice))),
            w,
            b,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Every op once, as a model body uses them: some values consumed,
    /// some cloned and kept.
    fn chain<C: Exec>(
        cx: &mut C,
        x: &C::V,
        w: &C::V,
        row: &C::V,
        idx: &Arc<Vec<usize>>,
    ) -> [C::V; 2] {
        let y = cx.matmul(x, w);
        let y = cx.add_row(y, row);
        let kept = cx.silu(y);
        let s = cx.sum_axis1(&kept);
        let s = cx.scale(s, 0.5);
        let s = cx.add_scalar(s, 3.0);
        let s = cx.sqrt(s);
        let s = cx.recip(s);
        let n = cx.neg(s.clone());
        let t = cx.add_col(kept.clone(), &n);
        let t = cx.mul_col(t, &s);
        let t = cx.mul_row(t, row);
        let t = cx.tanh(t);
        let u = cx.square(kept.clone());
        let u = cx.sub(u, &t);
        let u = cx.add(u, &kept);
        let u = cx.relu(u);
        let u = cx.exp(u);
        let u = cx.sigmoid(u);
        let g = cx.gather_rows(&u, idx);
        let k = BlockPart::gathered(kept, Arc::clone(idx));
        let wb = cx.constant(Tensor::full((12, 4), 0.25));
        let z = cx.block_linear(&[k.clone(), BlockPart::dense(g), k], &wb, row);
        let out = cx.scatter_add_rows(&z, idx, 3);
        let mean = cx.mean_all(&out);
        [out, mean]
    }

    #[test]
    fn no_tape_matches_tape_bitwise_and_leaves_shared_values_alone() {
        let mut rng = Rng::seed_from_u64(7);
        let x = Tensor::randn((3, 5), 1.0, &mut rng);
        let w = Tensor::randn((5, 4), 0.7, &mut rng);
        let row = Tensor::randn(4usize, 0.3, &mut rng);
        let idx = Arc::new(vec![2usize, 0, 1, 1, 2, 0]);
        let (x0, w0) = (x.to_vec(), w.to_vec());
        let mut tape = Tape::new();
        let v = [&x, &w, &row].map(|t| tape.constant(t.clone()));
        let recorded = chain(&mut tape, &v[0], &v[1], &v[2], &idx);
        let plain = chain(&mut NoTape, &x, &w, &row, &idx);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (r, p) in recorded.iter().zip(&plain) {
            assert_eq!(bits(tape.value(*r)), bits(p));
        }
        assert_eq!(
            (x.to_vec(), w.to_vec()),
            (x0, w0),
            "a borrowed input changed"
        );
    }

    /// Layouts the EGNN does not use — one gathered part, gathered parts
    /// of different inputs, no dense part — agree with gather → concat →
    /// matmul → bias.
    #[test]
    fn block_linear_layouts_match_concat_matmul() {
        let mut rng = Rng::seed_from_u64(8);
        let a = Tensor::randn((4, 3), 1.0, &mut rng);
        let b = Tensor::randn((5, 2), 1.0, &mut rng);
        let w = Tensor::randn((8, 70), 0.5, &mut rng);
        let bias = Tensor::randn(70usize, 0.5, &mut rng);
        let (ia, ib) = (
            Arc::new(vec![3, 0, 0, 2, 1, 3]),
            Arc::new(vec![4, 4, 1, 0, 2, 3]),
        );
        let pa = BlockPart::gathered(a.clone(), Arc::clone(&ia));
        let pb = BlockPart::gathered(b.clone(), Arc::clone(&ib));
        let (ga, gb) = (a.gather_rows(&ia), b.gather_rows(&ib));
        let top3 = Tensor::from_vec((3, 70), w.data()[..210].to_vec()).unwrap();
        let got = NoTape.block_linear(std::array::from_ref(&pa), &top3, &bias);
        assert!(got.allclose(&ga.matmul(&top3).add_row(&bias), 1e-5));
        let got = NoTape.block_linear(&[pa.clone(), pb, pa], &w, &bias);
        let want = Tensor::concat_cols(&[&ga, &gb, &ga])
            .matmul(&w)
            .add_row(&bias);
        assert!(got.allclose(&want, 1e-5), "{got:?} vs {want:?}");
    }
}
