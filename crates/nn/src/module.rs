//! The [`Module`] abstraction shared by all layers and networks.

use daisy_tensor::{Param, RngState, Var};

/// A differentiable transformation with trainable parameters.
///
/// `forward` builds a fresh computation graph each call; gradients land
/// in the [`Param`]s returned by `params`.
pub trait Module {
    /// Applies the module to a batch.
    fn forward(&self, input: &Var) -> Var;

    /// All trainable parameters, in a stable order.
    fn params(&self) -> Vec<Param>;

    /// Switches layers with train/eval behaviour (batch norm) between
    /// modes. Default: no-op.
    fn set_training(&self, _training: bool) {}

    /// Appends the state of any internal RNG streams (dropout mask
    /// generators) to `out`, in a stable order. Layers without internal
    /// randomness append nothing. Checkpointing captures these so a
    /// resumed run draws the identical mask sequence.
    fn collect_rng_states(&self, _out: &mut Vec<RngState>) {}

    /// Restores RNG streams captured by [`Module::collect_rng_states`],
    /// consuming from the front of `states` in the same stable order.
    fn restore_rng_states(&self, _states: &mut std::slice::Iter<'_, RngState>) {}
}

/// Zeroes the gradient of every parameter.
pub fn zero_grads(params: &[Param]) {
    for p in params {
        p.zero_grad();
    }
}

/// Total number of scalar weights.
pub fn num_params(params: &[Param]) -> usize {
    params.iter().map(Param::numel).sum()
}

/// Resident bytes of the parameter values (`f32` scalars). The serving
/// plane holds one decoded model shared by every connection; this is
/// its weight cost, which `serve_start` and `/healthz` report.
pub fn params_bytes(params: &[Param]) -> usize {
    num_params(params) * std::mem::size_of::<f32>()
}

/// True when any parameter value contains a NaN or infinity — the
/// weight-health check of the training resilience layer.
pub fn params_non_finite(params: &[Param]) -> bool {
    params.iter().any(|p| p.value().has_non_finite())
}

/// Global L2 norm of all gradients: `sqrt(sum_p ||grad_p||^2)`. The
/// same quantity [`crate::clip_grad_norm`] computes before scaling,
/// without the clip; used for telemetry gauges.
pub fn grad_norm(params: &[Param]) -> f32 {
    params
        .iter()
        .map(|p| p.grad().norm_sq())
        .sum::<f32>()
        .sqrt()
}

/// A chain of modules applied in order.
pub struct Sequential {
    layers: Vec<Box<dyn Module>>,
}

impl Sequential {
    /// An empty chain (identity).
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Module + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for Sequential {
    fn forward(&self, input: &Var) -> Var {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.forward(&x);
        }
        x
    }

    fn params(&self) -> Vec<Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn set_training(&self, training: bool) {
        for layer in &self.layers {
            layer.set_training(training);
        }
    }

    fn collect_rng_states(&self, out: &mut Vec<RngState>) {
        for layer in &self.layers {
            layer.collect_rng_states(out);
        }
    }

    fn restore_rng_states(&self, states: &mut std::slice::Iter<'_, RngState>) {
        for layer in &self.layers {
            layer.restore_rng_states(states);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::linear::Linear;
    use daisy_tensor::{Rng, Tensor};

    #[test]
    fn sequential_composes() {
        let mut rng = Rng::seed_from_u64(0);
        let net = Sequential::new()
            .push(Linear::new(4, 8, &mut rng))
            .push(Activation::Relu)
            .push(Linear::new(8, 2, &mut rng));
        let x = Var::constant(Tensor::randn(&[3, 4], &mut rng));
        let y = net.forward(&x);
        assert_eq!(y.shape(), &[3, 2]);
        assert_eq!(net.params().len(), 4); // two weight/bias pairs
    }

    #[test]
    fn zero_grads_clears() {
        let mut rng = Rng::seed_from_u64(2);
        let net = Linear::new(2, 2, &mut rng);
        let x = Var::constant(Tensor::ones(&[1, 2]));
        net.forward(&x).sum().backward();
        let params = net.params();
        assert!(params[0].grad().norm() > 0.0);
        zero_grads(&params);
        assert_eq!(params[0].grad().norm(), 0.0);
    }

    #[test]
    fn num_params_counts() {
        let mut rng = Rng::seed_from_u64(3);
        let net = Linear::new(4, 5, &mut rng);
        assert_eq!(num_params(&net.params()), 4 * 5 + 5);
    }
}
