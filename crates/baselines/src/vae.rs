//! Variational autoencoder baseline (§6.3): encoder/decoder MLPs over
//! the same reversible record transformation as the GAN, trained on the
//! reconstruction + KL objective. Reconstruction uses cross-entropy on
//! categorical (softmax) blocks and MSE on numerical blocks, following
//! the paper's BCE/MSE split.

use daisy_core::output_head::apply_output_head;
use daisy_core::TableSynthesizer;
use daisy_data::{OutputBlockKind, RecordCodec, Table, TransformConfig};
use daisy_nn::{zero_grads, Activation, Adam, Linear, Module, Optimizer, Sequential};
use daisy_tensor::{no_grad, Rng, Tensor, Var};

/// VAE training configuration.
#[derive(Debug, Clone)]
pub struct VaeConfig {
    /// Data transformation (defaults to gn/ht like the GAN default).
    pub transform: TransformConfig,
    /// Latent dimensionality.
    pub latent_dim: usize,
    /// Encoder/decoder hidden widths.
    pub hidden: Vec<usize>,
    /// Training iterations (minibatches).
    pub iterations: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Weight of the KL regularizer.
    pub kl_weight: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for VaeConfig {
    fn default() -> Self {
        VaeConfig {
            transform: TransformConfig::gn_ht(),
            latent_dim: 16,
            hidden: vec![128],
            iterations: 2000,
            batch_size: 64,
            lr: 1e-3,
            kl_weight: 1.0,
            seed: 7,
        }
    }
}

/// A fitted VAE synthesizer.
pub struct Vae {
    codec: RecordCodec,
    decoder_body: Sequential,
    decoder_head: Linear,
    latent_dim: usize,
    /// Mean total loss of the final 10% of iterations.
    final_loss: f32,
}

impl Vae {
    /// Trains a VAE on `table`.
    pub fn fit(table: &Table, config: &VaeConfig) -> Vae {
        assert!(table.n_rows() > 0, "cannot fit on an empty table");
        let mut rng = Rng::seed_from_u64(config.seed);
        let codec = RecordCodec::fit(table, &config.transform);
        let data = codec.encode_table(table);
        let width = codec.width();
        let blocks = codec.output_blocks();

        // Encoder: x -> hidden -> (mu ++ logvar).
        let mut enc = Sequential::new();
        let mut prev = width;
        for &h in &config.hidden {
            enc = enc
                .push(Linear::new(prev, h, &mut rng))
                .push(Activation::Relu);
            prev = h;
        }
        let enc_out = Linear::new(prev, 2 * config.latent_dim, &mut rng);

        // Decoder: z -> hidden -> raw -> attribute-aware head.
        let mut dec = Sequential::new();
        let mut prev = config.latent_dim;
        for &h in config.hidden.iter().rev() {
            dec = dec
                .push(Linear::new(prev, h, &mut rng))
                .push(Activation::Relu);
            prev = h;
        }
        let dec_head = Linear::new(prev, width, &mut rng);

        let mut params = enc.params();
        params.extend(enc_out.params());
        params.extend(dec.params());
        params.extend(dec_head.params());
        let mut opt = Adam::new(params.clone(), config.lr);

        let n = data.rows();
        let tail_start = config.iterations - config.iterations / 10;
        let mut tail_loss = (0.0f64, 0usize);
        for it in 0..config.iterations {
            let idx: Vec<usize> = (0..config.batch_size).map(|_| rng.usize(n)).collect();
            let batch = data.gather_rows(&idx);
            let m = batch.rows();

            zero_grads(&params);
            let x = Var::constant(batch.clone());
            let stats = enc_out.forward(&enc.forward(&x));
            let mu = stats.slice_cols(0, config.latent_dim);
            let logvar = stats.slice_cols(config.latent_dim, 2 * config.latent_dim);
            // Reparameterization: z = mu + eps * exp(logvar / 2).
            let eps = Var::constant(Tensor::randn(&[m, config.latent_dim], &mut rng));
            let z = mu.add(&eps.mul(&logvar.mul_scalar(0.5).exp()));
            let recon = apply_output_head(&dec_head.forward(&dec.forward(&z)), &blocks);

            // Reconstruction loss per block kind.
            let mut loss = reconstruction_loss(&recon, &batch, &blocks);
            // KL(q(z|x) || N(0, I)) = -0.5 Σ (1 + logvar - mu² - e^logvar).
            let kl = mu
                .sqr()
                .add(&logvar.exp())
                .sub(&logvar)
                .add_scalar(-1.0)
                .mul_scalar(0.5)
                .sum()
                .mul_scalar(1.0 / m as f32);
            loss = loss.add(&kl.mul_scalar(config.kl_weight));
            let loss_val = loss.value().data()[0];
            loss.backward();
            opt.step();
            if it >= tail_start {
                tail_loss.0 += loss_val as f64;
                tail_loss.1 += 1;
            }
        }

        Vae {
            codec,
            decoder_body: dec,
            decoder_head: dec_head,
            latent_dim: config.latent_dim,
            final_loss: (tail_loss.0 / tail_loss.1.max(1) as f64) as f32,
        }
    }

    /// Mean loss over the final iterations (training diagnostics).
    pub fn final_loss(&self) -> f32 {
        self.final_loss
    }

    /// Generates `n` synthetic records by decoding prior samples.
    pub fn generate(&self, n: usize, rng: &mut Rng) -> Table {
        let blocks = self.codec.output_blocks();
        let mut all = Tensor::zeros(&[n, self.codec.width()]);
        let mut row = 0;
        while row < n {
            let batch = (n - row).min(512);
            let z = Var::constant(Tensor::randn(&[batch, self.latent_dim], rng));
            let out = no_grad(|| {
                apply_output_head(
                    &self.decoder_head.forward(&self.decoder_body.forward(&z)),
                    &blocks,
                )
            });
            for b in 0..batch {
                all.row_mut(row + b).copy_from_slice(out.value().row(b));
            }
            row += batch;
        }
        self.codec.decode_table(&all)
    }
}

/// Cross-entropy on probability blocks, MSE on scalar blocks; mean per
/// record.
fn reconstruction_loss(
    recon: &Var,
    target: &Tensor,
    blocks: &[daisy_data::OutputBlock],
) -> Var {
    let m = target.rows() as f32;
    let mut total: Option<Var> = None;
    for b in blocks {
        let pred = recon.slice_cols(b.lo, b.hi);
        let tgt = target.slice_cols(b.lo, b.hi);
        let term = match b.kind {
            OutputBlockKind::Softmax => pred
                .ln_eps(1e-7)
                .mul(&Var::constant(tgt))
                .sum()
                .mul_scalar(-1.0 / m),
            OutputBlockKind::GmmValueAndComponent => {
                let w = b.width();
                let val_mse = pred
                    .slice_cols(0, 1)
                    .mse(&tgt.slice_cols(0, 1));
                let comp_ce = pred
                    .slice_cols(1, w)
                    .ln_eps(1e-7)
                    .mul(&Var::constant(tgt.slice_cols(1, w)))
                    .sum()
                    .mul_scalar(-1.0 / m);
                val_mse.add(&comp_ce)
            }
            OutputBlockKind::Tanh | OutputBlockKind::Sigmoid => pred.mse(&tgt),
        };
        total = Some(match total {
            Some(t) => t.add(&term),
            None => term,
        });
    }
    total.expect("no output blocks")
}

impl TableSynthesizer for Vae {
    fn synthesize(&self, n: usize, rng: &mut Rng) -> Table {
        self.generate(n, rng)
    }

    fn method_name(&self) -> String {
        "VAE".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_data::{Attribute, Column, Schema};

    fn blob_table(n: usize, seed: u64) -> Table {
        let mut rng = Rng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n);
        let mut cs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let y = rng.bool(0.4) as u32;
            ys.push(y);
            xs.push(rng.normal_ms(if y == 1 { 4.0 } else { -4.0 }, 1.0));
            cs.push(if rng.bool(0.8) { y } else { 1 - y });
        }
        Table::new(
            Schema::with_label(
                vec![
                    Attribute::numerical("x"),
                    Attribute::categorical("c"),
                    Attribute::categorical("y"),
                ],
                2,
            ),
            vec![
                Column::Num(xs),
                Column::cat_with_domain(cs, 2),
                Column::cat_with_domain(ys, 2),
            ],
        )
    }

    fn quick_config() -> VaeConfig {
        VaeConfig {
            latent_dim: 4,
            hidden: vec![32],
            iterations: 400,
            batch_size: 32,
            ..VaeConfig::default()
        }
    }

    #[test]
    fn fits_and_generates() {
        let table = blob_table(400, 0);
        let vae = Vae::fit(&table, &quick_config());
        let mut rng = Rng::seed_from_u64(1);
        let syn = vae.generate(200, &mut rng);
        assert_eq!(syn.n_rows(), 200);
        assert_eq!(syn.schema(), table.schema());
        assert!(vae.final_loss().is_finite());
    }

    #[test]
    fn captures_bimodal_numeric_roughly() {
        let table = blob_table(600, 2);
        let vae = Vae::fit(&table, &quick_config());
        let mut rng = Rng::seed_from_u64(3);
        let syn = vae.generate(600, &mut rng);
        let vals = syn.column(0).as_num();
        // Both modes (±4) should be represented.
        let low = vals.iter().filter(|&&v| v < -1.0).count();
        let high = vals.iter().filter(|&&v| v > 1.0).count();
        assert!(
            low > 60 && high > 60,
            "modes not covered: low {low}, high {high}"
        );
    }

    #[test]
    fn label_marginal_roughly_preserved() {
        let table = blob_table(600, 4);
        let vae = Vae::fit(&table, &quick_config());
        let mut rng = Rng::seed_from_u64(5);
        let syn = vae.generate(1000, &mut rng);
        let p1 = syn.labels().iter().filter(|&&y| y == 1).count() as f64 / 1000.0;
        assert!((p1 - 0.4).abs() < 0.2, "p1 = {p1}");
    }

    #[test]
    fn deterministic_given_seed() {
        let table = blob_table(200, 6);
        let cfg = VaeConfig {
            iterations: 100,
            ..quick_config()
        };
        let a = Vae::fit(&table, &cfg).generate(20, &mut Rng::seed_from_u64(9));
        let b = Vae::fit(&table, &cfg).generate(20, &mut Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
