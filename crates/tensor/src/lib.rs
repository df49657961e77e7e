//! # daisy-tensor
//!
//! Dense `f32` tensors, deterministic random number generation, and
//! reverse-mode automatic differentiation — the substrate under the
//! neural networks of the Daisy relational-data-synthesis study.
//!
//! The crate is dependency-free and CPU-only, but not single-threaded:
//! the hot kernels (matmul variants, im2col convolution, batched
//! elementwise and reduction ops) run on a persistent worker pool
//! ([`pool`]) sized from `std::thread::available_parallelism` and
//! overridable with `DAISY_THREADS`. Results are bit-identical for any
//! thread count (see the [`pool`] determinism contract), so parallelism
//! never costs reproducibility.
//!
//! ## Layout
//! - [`rng`] — xoshiro256++ RNG with normal/Laplace/weighted sampling
//!   and [`Rng::fork`]-based stream splitting.
//! - [`tensor`] — the [`Tensor`] type and constructors.
//! - [`ops`] / [`linalg`] / [`conv`] — elementwise math, reductions,
//!   matmul (a portable loop, and an AVX2 register tile picked at run
//!   time with the same bits), convolution primitives.
//! - [`autodiff`] — [`Var`]/[`Param`] computation graph with
//!   backpropagation, and the [`no_grad`] scope for value-only
//!   forwards.
//! - [`pool`] — the worker pool behind the parallel kernels.
//!
//! ## Example
//! ```
//! use daisy_tensor::{Param, Rng, Tensor};
//!
//! let mut rng = Rng::seed_from_u64(0);
//! let w = Param::new(Tensor::randn(&[4, 2], &mut rng));
//! let x = daisy_tensor::Var::constant(Tensor::randn(&[8, 4], &mut rng));
//! let loss = x.matmul(&w.var()).tanh().sqr().mean();
//! loss.backward();
//! assert_eq!(w.grad().shape(), &[4, 2]);
//! ```

// `deny` (not `forbid`) so that two audited modules can opt back in:
// the worker pool's scoped-task dispatch (`pool.rs`) and the AVX2
// matmul tile behind one checked call site (`linalg.rs`). Every other
// module is unsafe-free; lint rule H005 enforces both halves.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod autodiff;
pub mod conv;
pub mod linalg;
pub mod ops;
pub mod pool;
pub mod rng;
pub mod tensor;

pub use autodiff::{no_grad, Param, Var};
pub use rng::{Rng, RngState};
pub use tensor::Tensor;
