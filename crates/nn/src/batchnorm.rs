//! Batch normalization (Ioffe & Szegedy), used by every generator in
//! the paper's design space (`BN` in Equations 5–7 of Appendix A.1).
//!
//! The batch statistics reduce over rows via `Tensor::mean_axis0`,
//! which is a *canonically blocked* parallel reduction (fixed 64-row
//! partials combined in order — see `daisy_tensor::pool`), so training
//! statistics are bit-identical for any thread count.

use crate::module::Module;
use daisy_tensor::{Param, Tensor, Var};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{RwLock, RwLockReadGuard};

/// Batch normalization over the feature axis of `[B, D]` inputs.
///
/// In training mode the layer normalizes with batch statistics and
/// maintains exponential running averages; in eval mode it uses the
/// running averages, so single-record generation behaves sensibly.
/// Eval-mode forward passes only read the layer, so a trained layer can
/// serve many threads at once.
pub struct BatchNorm1d {
    gamma: Param,
    beta: Param,
    /// Running `(mean, variance)`: the eval-mode statistics, swapped
    /// together under one lock.
    running: RwLock<(Tensor, Tensor)>,
    momentum: f32,
    eps: f32,
    /// `Relaxed` suffices: the flag publishes no other data, and the
    /// mode is set before a model is shared across threads.
    training: AtomicBool,
    features: usize,
}

impl BatchNorm1d {
    /// Creates a layer normalizing `features` columns.
    pub fn new(features: usize) -> Self {
        BatchNorm1d {
            gamma: Param::new(Tensor::ones(&[features])),
            beta: Param::new(Tensor::zeros(&[features])),
            running: RwLock::new((Tensor::zeros(&[features]), Tensor::ones(&[features]))),
            momentum: 0.1,
            eps: 1e-5,
            training: AtomicBool::new(true),
            features,
        }
    }

    /// Number of normalized features.
    pub fn features(&self) -> usize {
        self.features
    }

    /// The running statistics; a poisoned lock still holds well-formed
    /// ones, since every write stores whole tensors of the right shape.
    fn running(&self) -> RwLockReadGuard<'_, (Tensor, Tensor)> {
        self.running.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Current running mean (eval-mode statistics).
    pub fn running_mean(&self) -> Tensor {
        self.running().0.clone()
    }

    /// Current running variance.
    pub fn running_var(&self) -> Tensor {
        self.running().1.clone()
    }

    /// Overwrites the running statistics (model persistence / transfer).
    pub fn set_running_stats(&self, mean: Tensor, var: Tensor) {
        assert_eq!(mean.shape(), &[self.features], "running mean shape");
        assert_eq!(var.shape(), &[self.features], "running var shape");
        *self.running.write().unwrap_or_else(|e| e.into_inner()) = (mean, var);
    }
}

impl Module for BatchNorm1d {
    fn forward(&self, input: &Var) -> Var {
        assert_eq!(
            input.shape(),
            &[input.shape()[0], self.features],
            "BatchNorm1d expected [B, {}]",
            self.features
        );
        let (mean, var_stat) = if self.training.load(Ordering::Relaxed) && input.shape()[0] > 1 {
            // Differentiable batch statistics.
            let mean = input.mean_axis0();
            let centered = input.sub_row(&mean);
            let var_stat = centered.sqr().mean_axis0();
            // Update running averages from detached values.
            let m = self.momentum;
            let mut running = self.running.write().unwrap_or_else(|e| e.into_inner());
            let (rm, rv) = &mut *running;
            *rm = rm.mul_scalar(1.0 - m).add(&mean.value().mul_scalar(m));
            *rv = rv.mul_scalar(1.0 - m).add(&var_stat.value().mul_scalar(m));
            (mean, var_stat)
        } else {
            let running = self.running();
            (
                Var::constant(running.0.clone()),
                Var::constant(running.1.clone()),
            )
        };
        let std = var_stat.add_scalar(self.eps).sqrt();
        input
            .sub_row(&mean)
            .div_row(&std)
            .mul_row(&self.gamma.var())
            .add_row(&self.beta.var())
    }

    fn params(&self) -> Vec<Param> {
        vec![self.gamma.clone(), self.beta.clone()]
    }

    fn set_training(&self, training: bool) {
        self.training.store(training, Ordering::Relaxed);
    }
}

/// Batch normalization over the channel axis of `[B, C, H, W]` inputs.
///
/// Implemented by permuting channels to columns and delegating to
/// [`BatchNorm1d`]; per-channel statistics are then per-column
/// statistics.
pub struct BatchNorm2d {
    inner: BatchNorm1d,
}

impl BatchNorm2d {
    /// Creates a layer normalizing `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            inner: BatchNorm1d::new(channels),
        }
    }

    /// The underlying per-channel normalizer (running-stats access).
    pub fn inner(&self) -> &BatchNorm1d {
        &self.inner
    }
}

impl Module for BatchNorm2d {
    fn forward(&self, input: &Var) -> Var {
        let s = input.shape().to_vec();
        assert_eq!(s.len(), 4, "BatchNorm2d expects [B, C, H, W]");
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        self.inner
            .forward(&input.bchw_to_nc())
            .nc_to_bchw(b, c, h, w)
    }

    fn params(&self) -> Vec<Param> {
        self.inner.params()
    }

    fn set_training(&self, training: bool) {
        self.inner.set_training(training);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_tensor::Rng;

    #[test]
    fn normalizes_batch_statistics() {
        let mut rng = Rng::seed_from_u64(0);
        let bn = BatchNorm1d::new(3);
        let x = Tensor::randn(&[64, 3], &mut rng).mul_scalar(5.0).add_scalar(10.0);
        let y = bn.forward(&Var::constant(x));
        let mean = y.value().mean_axis0();
        let var = y.value().sub_row(&mean).sqr().mean_axis0();
        for j in 0..3 {
            assert!(mean.data()[j].abs() < 1e-4, "mean[{j}] = {}", mean.data()[j]);
            assert!((var.data()[j] - 1.0).abs() < 1e-3, "var[{j}] = {}", var.data()[j]);
        }
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut rng = Rng::seed_from_u64(1);
        let bn = BatchNorm1d::new(2);
        // Feed several training batches with mean 4.
        for _ in 0..200 {
            let x = Tensor::randn(&[32, 2], &mut rng).add_scalar(4.0);
            let _ = bn.forward(&Var::constant(x));
        }
        assert!((bn.running_mean().mean() - 4.0).abs() < 0.3);
        bn.set_training(false);
        // In eval mode a constant input is shifted by roughly -4.
        let y = bn.forward(&Var::constant(Tensor::full(&[1, 2], 4.0)));
        assert!(y.value().data().iter().all(|v| v.abs() < 0.5));
    }

    #[test]
    fn gradient_flows_through_bn() {
        let mut rng = Rng::seed_from_u64(2);
        let bn = BatchNorm1d::new(4);
        let p = Param::new(Tensor::randn(&[8, 4], &mut rng));
        bn.forward(&p.var()).sqr().mean().backward();
        assert!(p.grad().norm() > 0.0);
        assert!(!p.grad().has_non_finite());
        // gamma and beta receive gradients too.
        assert!(bn.params()[0].grad().norm() > 0.0);
        assert!(bn.params()[1].grad().norm() >= 0.0);
    }

    #[test]
    fn bn2d_normalizes_per_channel() {
        let mut rng = Rng::seed_from_u64(3);
        let bn = BatchNorm2d::new(2);
        // Channel 0 centered at 10, channel 1 at -5.
        let mut x = Tensor::randn(&[8, 2, 3, 3], &mut rng);
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            let c = (i / 9) % 2;
            *v += if c == 0 { 10.0 } else { -5.0 };
        }
        let y = bn.forward(&Var::constant(x));
        let nc = y.value().bchw_to_nc();
        let mean = nc.mean_axis0();
        for j in 0..2 {
            assert!(mean.data()[j].abs() < 1e-3);
        }
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use crate::module::Module;

    #[test]
    fn set_running_stats_transfers_eval_behaviour() {
        let a = BatchNorm1d::new(2);
        // Drive a's running stats away from the defaults.
        for _ in 0..50 {
            let x = Tensor::full(&[8, 2], 3.0);
            let _ = a.forward(&Var::constant(x));
        }
        let b = BatchNorm1d::new(2);
        b.set_running_stats(a.running_mean(), a.running_var());
        a.set_training(false);
        b.set_training(false);
        let probe = Var::constant(Tensor::full(&[1, 2], 3.0));
        assert_eq!(a.forward(&probe).value(), b.forward(&probe).value());
    }

    #[test]
    #[should_panic(expected = "running mean shape")]
    fn set_running_stats_checks_shape() {
        let bn = BatchNorm1d::new(2);
        bn.set_running_stats(Tensor::zeros(&[3]), Tensor::ones(&[3]));
    }

    #[test]
    fn bn2d_inner_exposes_stats() {
        let bn = BatchNorm2d::new(3);
        assert_eq!(bn.inner().running_mean().shape(), &[3]);
    }
}
