//! # matgnn-tensor
//!
//! Dense `f32` tensors, a reverse-mode autodiff [`Tape`], and byte-accurate
//! [`MemoryTracker`] accounting — the numeric substrate for the `matgnn`
//! reproduction of *"Scaling Laws of Graph Neural Networks for Atomistic
//! Materials Modeling"* (DAC 2025).
//!
//! The design goals, in order:
//!
//! 1. **Verifiable gradients** — ops are recorded as data, every adjoint has
//!    a finite-difference test, and [`gradcheck`] is exported so whole
//!    models can be checked downstream.
//! 2. **Faithful memory semantics** — activations, transient gradients and
//!    optimizer state are tracked exactly as a framework would hold them,
//!    because the paper's Fig. 6 / Table II are *memory* results.
//! 3. **Fast without a BLAS dependency** — cache-blocked kernels routed
//!    through a persistent worker [`pool`], bitwise deterministic for any
//!    thread count (see `DESIGN.md`, "Threading model & determinism").
//!
//! ## Example: a differentiable computation
//!
//! ```
//! use matgnn_tensor::{Tape, Tensor};
//!
//! let mut tape = Tape::new();
//! let w = tape.param(Tensor::from_vec((2, 1), vec![1.0, -1.0])?);
//! let x = tape.constant(Tensor::from_vec((3, 2), vec![1., 2., 3., 4., 5., 6.])?);
//! let y = tape.matmul(x, w);
//! let loss = tape.mean_all(y);
//! let grads = tape.backward(loss);
//! assert_eq!(grads.get(w).unwrap().data(), &[3.0, 4.0]);
//! # Ok::<(), matgnn_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

pub mod bytes;
mod error;
mod exec;
pub mod gradcheck;
mod memory;
pub mod pool;
pub mod recycler;
pub mod rng;
pub mod runtime;
mod shape;
pub mod simd;
mod tape;
mod tensor;

pub use error::TensorError;
pub use exec::{Exec, NoTape};
pub use memory::{format_bytes, MemoryBreakdown, MemoryCategory, MemorySnapshot, MemoryTracker};
pub use runtime::{Runtime, RuntimeScope};
pub use shape::Shape;
pub use tape::{BlockPart, Gradients, Tape, Var};
pub use tensor::Tensor;
