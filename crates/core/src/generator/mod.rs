//! Generator networks `G(z [, c]) → t'` for the three families of the
//! design space (§5.1).

mod cnn;
mod lstm;
mod mlp;

pub use cnn::CnnGenerator;
pub use lstm::LstmGenerator;
pub use mlp::MlpGenerator;

use daisy_tensor::{Param, Rng, Tensor, Var};

/// A generator: maps prior noise (and an optional condition vector) to
/// a synthetic sample batch `[B, d]` in the encoded sample space.
///
/// All generators emit *flattened* samples, including the CNN family
/// (whose `side × side` matrices are flattened row-major), so the
/// training loop and discriminators are layout-agnostic.
pub trait Generator {
    /// Builds the generation graph for a noise batch `z [B, z_dim]`.
    /// `cond` is the one-hot condition matrix `[B, k]` for conditional
    /// GAN. `rng` seeds any internal stochastic state (the LSTM
    /// generator's random initial hidden state).
    fn forward(&self, z: &Tensor, cond: Option<&Tensor>, rng: &mut Rng) -> Var;

    /// Prior noise dimension.
    fn noise_dim(&self) -> usize;

    /// Width of the generated (flattened) sample.
    fn sample_width(&self) -> usize;

    /// Trainable parameters.
    fn params(&self) -> Vec<Param>;

    /// Train/eval mode switch (batch-norm layers).
    fn set_training(&self, training: bool);

    /// Samples a standard-normal noise batch with this generator's
    /// dimensionality.
    fn sample_noise(&self, batch: usize, rng: &mut Rng) -> Tensor {
        Tensor::randn(&[batch, self.noise_dim()], rng)
    }

    /// Advances `rng` past exactly the draws one [`Generator::forward`]
    /// call on a `batch`-row input would consume, without building the
    /// graph — the cheap half of resuming a seeded row stream at an
    /// offset. The default is a no-op because the MLP and CNN families
    /// never touch the stream RNG in `forward`; the LSTM family (random
    /// initial state, paper A.1.3) overrides it to mirror its draws.
    fn skip_forward_rng(&self, batch: usize, rng: &mut Rng) {
        let _ = (batch, rng);
    }

    /// Non-parameter state (batch-norm running statistics), in a stable
    /// order — captured by model persistence alongside the parameters.
    fn state(&self) -> Vec<Tensor> {
        Vec::new()
    }

    /// Restores state captured by [`Generator::state`].
    fn set_state(&self, state: &[Tensor]) {
        assert!(state.is_empty(), "generator carries no state");
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use daisy_data::{Attribute, Column, Schema, Table};
    use daisy_tensor::Rng;

    /// A small mixed-type labeled table for generator/discriminator
    /// tests: numeric, 3-way categorical, binary label.
    pub fn tiny_table(n: usize, seed: u64) -> Table {
        let mut rng = Rng::seed_from_u64(seed);
        let schema = Schema::with_label(
            vec![
                Attribute::numerical("x"),
                Attribute::categorical("c"),
                Attribute::categorical("y"),
            ],
            2,
        );
        let mut xs = Vec::with_capacity(n);
        let mut cs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let y = rng.usize(2) as u32;
            ys.push(y);
            xs.push(rng.normal_ms(if y == 0 { -2.0 } else { 2.0 }, 1.0));
            cs.push(if rng.bool(0.7) { y } else { rng.usize(3) as u32 });
        }
        Table::new(
            schema,
            vec![
                Column::Num(xs),
                Column::cat_with_domain(cs, 3),
                Column::cat_with_domain(ys, 2),
            ],
        )
    }
}

/// A value-only forward ([`daisy_tensor::no_grad`]) must compute exactly
/// what the taped forward computes, for every generator family and the
/// output head, at any pool size.
#[cfg(test)]
mod no_grad_parity {
    use super::test_support::tiny_table;
    use super::*;
    use crate::output_head::apply_output_head;
    use crate::synthesizer::GENERATION_BATCH;
    use daisy_data::{RecordCodec, TransformConfig};
    use daisy_tensor::{no_grad, pool, RngState};

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    /// Output bits, end RNG state and generator state (batch-norm
    /// running statistics) after one serving-sized forward from a fixed
    /// RNG state.
    fn run(
        g: &dyn Generator,
        cond: Option<&Tensor>,
        value_only: bool,
    ) -> (Vec<u32>, RngState, Vec<Vec<u32>>) {
        let mut rng = Rng::seed_from_u64(17);
        let z = g.sample_noise(GENERATION_BATCH, &mut rng);
        let out = if value_only {
            no_grad(|| g.forward(&z, cond, &mut rng))
        } else {
            g.forward(&z, cond, &mut rng)
        };
        let state = g.state().iter().map(bits).collect();
        (bits(out.value()), rng.state(), state)
    }

    /// Builds twin generators (so a training-mode forward, which moves
    /// the running statistics, starts from the same state on both) and
    /// compares the taped forward of one with the value-only forward of
    /// the other at 1 and 4 pool threads.
    fn assert_parity(
        name: &str,
        build: impl Fn() -> Box<dyn Generator>,
        training: bool,
        cond: Option<&Tensor>,
    ) {
        for threads in [1, 4] {
            pool::set_threads(threads);
            let (taped, free) = (build(), build());
            taped.set_training(training);
            free.set_training(training);
            let (out, rng, state) = run(taped.as_ref(), cond, false);
            let (free_out, free_rng, free_state) = run(free.as_ref(), cond, true);
            assert!(out == free_out, "{name} @{threads}t: outputs differ");
            assert_eq!(rng, free_rng, "{name} @{threads}t: RNG end states differ");
            assert!(state == free_state, "{name} @{threads}t: states differ");
        }
    }

    fn blocks() -> Vec<daisy_data::OutputBlock> {
        RecordCodec::fit(&tiny_table(200, 1), &TransformConfig::gn_ht()).output_blocks()
    }

    /// An MLP generator whose batch-norm running statistics have moved
    /// off their initial values, so eval mode reads trained ones.
    fn warmed_mlp(cond_dim: usize, batchnorm: bool) -> Box<dyn Generator> {
        let mut rng = Rng::seed_from_u64(2);
        let g = MlpGenerator::with_options(24, cond_dim, &[64, 64], blocks(), batchnorm, &mut rng);
        let z = g.sample_noise(64, &mut rng);
        let cond = (cond_dim > 0).then(|| daisy_data::one_hot_labels(&[1; 64], cond_dim));
        let _ = g.forward(&z, cond.as_ref(), &mut rng);
        Box::new(g)
    }

    #[test]
    fn mlp_generator() {
        assert_parity("mlp bn eval", || warmed_mlp(0, true), false, None);
        assert_parity("mlp bn train", || warmed_mlp(0, true), true, None);
        let labels: Vec<u32> = (0..GENERATION_BATCH as u32).map(|i| i % 2).collect();
        let cond = daisy_data::one_hot_labels(&labels, 2);
        assert_parity("mlp no-bn cond", || warmed_mlp(2, false), true, Some(&cond));
    }

    #[test]
    fn lstm_generator() {
        // Draws its initial state from the stream RNG inside `forward`.
        let build = || -> Box<dyn Generator> {
            let mut rng = Rng::seed_from_u64(3);
            Box::new(LstmGenerator::new(24, 0, 64, 32, blocks(), &mut rng))
        };
        assert_parity("lstm", build, false, None);
    }

    #[test]
    fn cnn_generator() {
        let build = || -> Box<dyn Generator> {
            let mut rng = Rng::seed_from_u64(4);
            let g = CnnGenerator::new(24, 16, 3, &mut rng);
            let z = g.sample_noise(64, &mut rng);
            let _ = g.forward(&z, None, &mut rng);
            Box::new(g)
        };
        assert_parity("cnn eval", build, false, None);
    }

    #[test]
    fn output_head() {
        for config in TransformConfig::all() {
            let blocks = RecordCodec::fit(&tiny_table(200, 5), &config).output_blocks();
            let width = blocks.last().expect("non-empty layout").hi;
            let mut rng = Rng::seed_from_u64(6);
            let raw = Tensor::randn(&[GENERATION_BATCH, width], &mut rng).mul_scalar(3.0);
            let raw = Param::new(raw);
            for threads in [1, 4] {
                pool::set_threads(threads);
                let taped = apply_output_head(&raw.var(), &blocks);
                let free = no_grad(|| apply_output_head(&raw.var(), &blocks));
                assert!(
                    bits(taped.value()) == bits(free.value()),
                    "{config:?} @{threads}t: output heads differ"
                );
            }
        }
    }
}
