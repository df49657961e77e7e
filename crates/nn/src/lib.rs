//! # daisy-nn
//!
//! Neural-network building blocks on top of `daisy-tensor`: the layers,
//! losses and optimizers that the paper's design space draws from —
//! fully-connected stacks with batch normalization (MLP networks),
//! DCGAN-style convolution/deconvolution (CNN networks), LSTM cells
//! (sequence-generation networks), Adam and RMSProp, weight clipping
//! for WGAN and gradient noise for DPGAN.
//!
//! ```
//! use daisy_nn::{Activation, Linear, Module, Sequential};
//! use daisy_tensor::{Rng, Tensor, Var};
//!
//! let mut rng = Rng::seed_from_u64(0);
//! let net = Sequential::new()
//!     .push(Linear::new(8, 16, &mut rng))
//!     .push(Activation::Relu)
//!     .push(Linear::new(16, 1, &mut rng));
//! let y = net.forward(&Var::constant(Tensor::randn(&[4, 8], &mut rng)));
//! assert_eq!(y.shape(), &[4, 1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activation;
pub mod batchnorm;
pub mod conv;
pub mod dropout;
pub mod init;
pub mod linear;
pub mod loss;
pub mod lstm;
pub mod module;
pub mod optim;

pub use activation::Activation;
pub use batchnorm::{BatchNorm1d, BatchNorm2d};
pub use conv::{Conv2d, ConvTranspose2d};
pub use dropout::Dropout;
pub use linear::Linear;
pub use lstm::{LstmCell, LstmState};
pub use module::{
    grad_norm, grads_non_finite, num_params, params_bytes, params_non_finite, zero_grads, Module,
    Sequential,
};
pub use optim::{add_grad_noise, clip_grad_norm, clip_weights, Adam, Optimizer, RmsProp, Sgd};
