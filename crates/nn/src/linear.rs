//! Fully-connected layer.
//!
//! The forward pass is one `x · W` matmul plus a row-broadcast bias,
//! both on daisy-tensor's worker pool (`daisy_tensor::pool`) above the
//! size threshold. The backward pass runs `matmul_nt` (input gradient)
//! and `matmul_tn` (weight gradient), which pack their transposed
//! operand and run the same matmul loop. Results are bit-identical for
//! any thread count.

use crate::init::xavier_uniform;
use crate::module::Module;
use daisy_tensor::{Param, Rng, Tensor, Var};

/// `y = x W + b` with `W: [in, out]`, `b: [out]`.
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng) -> Self {
        Linear {
            weight: Param::new(xavier_uniform(
                in_features,
                out_features,
                &[in_features, out_features],
                rng,
            )),
            bias: Param::new(Tensor::zeros(&[out_features])),
            in_features,
            out_features,
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// The bias parameter.
    pub fn bias(&self) -> &Param {
        &self.bias
    }
}

impl Module for Linear {
    fn forward(&self, input: &Var) -> Var {
        assert_eq!(
            input.shape().last().copied(),
            Some(self.in_features),
            "Linear expected {} input features, got {:?}",
            self.in_features,
            input.shape()
        );
        input.matmul(&self.weight.var()).add_row(&self.bias.var())
    }

    fn params(&self) -> Vec<Param> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = Rng::seed_from_u64(0);
        let layer = Linear::new(3, 2, &mut rng);
        layer.bias.set_value(Tensor::from_slice(&[1.0, -1.0]));
        let x = Var::constant(Tensor::zeros(&[4, 3]));
        let y = layer.forward(&x);
        assert_eq!(y.shape(), &[4, 2]);
        // Zero input -> bias only.
        for r in 0..4 {
            assert_eq!(y.value().row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn gradient_descends_on_regression() {
        // One linear layer must be able to fit y = 2x + 1.
        let mut rng = Rng::seed_from_u64(1);
        let layer = Linear::new(1, 1, &mut rng);
        let xs = Tensor::from_vec((0..16).map(|i| i as f32 / 8.0).collect(), &[16, 1]);
        let ys = xs.map(|x| 2.0 * x + 1.0);
        let params = layer.params();
        for _ in 0..500 {
            crate::module::zero_grads(&params);
            let pred = layer.forward(&Var::constant(xs.clone()));
            let loss = pred.mse(&ys);
            loss.backward();
            for p in &params {
                p.update(|v, g| v.axpy(-0.1, g));
            }
        }
        let final_loss = layer
            .forward(&Var::constant(xs))
            .mse(&ys)
            .value()
            .data()[0];
        assert!(final_loss < 1e-3, "loss = {final_loss}");
    }
}
