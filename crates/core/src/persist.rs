//! Model persistence: save a fitted synthesizer to a single file and
//! load it back for generation — so a trained model can be shipped to
//! the party that needs synthetic data without shipping any real data.
//!
//! The format is a small, versioned, little-endian binary layout
//! (magic `DAISYSY1`) covering the full design-space configuration, the
//! fitted reversible codec (including per-attribute GMM parameters and
//! category names), label metadata, and the selected generator
//! snapshot, terminated by a whole-file CRC-64 footer. Loading verifies
//! the checksum before parsing, so any byte of corruption surfaces as a
//! typed error rather than a garbled model. Saving goes through the
//! same write-to-temp → fsync → atomic-rename path as
//! [`crate::checkpoint`], so a crash mid-save never leaves a torn file.
//! Loading reconstructs the generator architecture from the
//! configuration and restores its weights; the result generates
//! identically to the model that was saved.

use crate::config::{
    DiscriminatorKind, DpConfig, LossKind, NetworkKind, SynthesizerConfig, TrainConfig,
};
use crate::synthesizer::{build_generator, FittedSynthesizer, SampleCodec};
use crate::train::TrainingRun;
use daisy_data::{
    AttrType, Attribute, AttributeCodec, CategoricalEncoding, Gmm1d, MatrixCellParam,
    MatrixCodec, NumericalNormalization, RecordCodec, Schema, TransformConfig,
};
use daisy_nn::restore;
use daisy_tensor::{Param, Rng, Tensor};
use daisy_wire::{atomic_write, crc64, Reader, Writer};
use std::path::Path;

use daisy_wire::magic::{SYNTH as MAGIC, SYNTH_FOOTER as FOOTER_MAGIC};

/// Serialization errors.
pub type PersistError = String;

// ---------------------------------------------------------------------
// component encoders (primitives live in `daisy_wire`)
// ---------------------------------------------------------------------

fn write_schema(w: &mut Writer, schema: &Schema) {
    w.usize(schema.n_attrs());
    for a in schema.attrs() {
        w.str(&a.name);
        w.u8(match a.ty {
            AttrType::Numerical => 0,
            AttrType::Categorical => 1,
        });
    }
    match schema.label() {
        Some(j) => {
            w.bool(true);
            w.usize(j);
        }
        None => w.bool(false),
    }
}

fn read_schema(r: &mut Reader) -> Result<Schema, PersistError> {
    let n = r.len()?;
    let mut attrs = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let ty = r.u8()?;
        attrs.push(match ty {
            0 => Attribute::numerical(name),
            1 => Attribute::categorical(name),
            other => return Err(format!("unknown attribute type tag {other}")),
        });
    }
    if r.bool()? {
        let j = r.usize()?;
        Ok(Schema::with_label(attrs, j))
    } else {
        Ok(Schema::new(attrs))
    }
}

fn write_categories(w: &mut Writer, cats: &[Vec<String>]) {
    w.usize(cats.len());
    for col in cats {
        w.usize(col.len());
        for c in col {
            w.str(c);
        }
    }
}

fn read_categories(r: &mut Reader) -> Result<Vec<Vec<String>>, PersistError> {
    let n = r.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let k = r.len()?;
        let col: Result<Vec<String>, _> = (0..k).map(|_| r.str()).collect();
        out.push(col?);
    }
    Ok(out)
}

fn write_attribute_codec(w: &mut Writer, c: &AttributeCodec) {
    match c {
        AttributeCodec::Ordinal { k } => {
            w.u8(0);
            w.usize(*k);
        }
        AttributeCodec::OneHot { k } => {
            w.u8(1);
            w.usize(*k);
        }
        AttributeCodec::SimpleNorm { min, max } => {
            w.u8(2);
            w.f64(*min);
            w.f64(*max);
        }
        AttributeCodec::Gmm { gmm } => {
            w.u8(3);
            w.f64s(gmm.weights());
            w.f64s(gmm.means());
            w.f64s(gmm.stds());
        }
    }
}

fn read_attribute_codec(r: &mut Reader) -> Result<AttributeCodec, PersistError> {
    Ok(match r.u8()? {
        0 => AttributeCodec::Ordinal { k: r.usize()? },
        1 => AttributeCodec::OneHot { k: r.usize()? },
        2 => AttributeCodec::SimpleNorm {
            min: r.f64()?,
            max: r.f64()?,
        },
        3 => {
            let weights = r.f64s()?;
            let means = r.f64s()?;
            let stds = r.f64s()?;
            AttributeCodec::Gmm {
                gmm: Gmm1d::from_parts(weights, means, stds),
            }
        }
        other => return Err(format!("unknown attribute codec tag {other}")),
    })
}

fn write_config(w: &mut Writer, cfg: &SynthesizerConfig) {
    w.u8(match cfg.network {
        NetworkKind::Mlp => 0,
        NetworkKind::Lstm => 1,
        NetworkKind::Cnn => 2,
    });
    w.u8(match cfg.discriminator {
        DiscriminatorKind::Mlp => 0,
        DiscriminatorKind::Lstm => 1,
        DiscriminatorKind::Cnn => 2,
    });
    w.u8(match cfg.transform.categorical {
        CategoricalEncoding::Ordinal => 0,
        CategoricalEncoding::OneHot => 1,
    });
    w.u8(match cfg.transform.numerical {
        NumericalNormalization::Simple => 0,
        NumericalNormalization::Gmm => 1,
    });
    w.usize(cfg.transform.gmm_components);
    w.usize(cfg.transform.gmm_iterations);
    let t = &cfg.train;
    w.u8(match t.loss {
        LossKind::Vanilla => 0,
        LossKind::Wasserstein => 1,
    });
    w.bool(t.conditional);
    w.bool(t.label_aware);
    match &t.dp {
        Some(dp) => {
            w.bool(true);
            w.f32(dp.noise_scale);
            w.f32(dp.grad_bound);
        }
        None => w.bool(false),
    }
    w.f32(t.kl_weight);
    w.usize(t.d_steps);
    w.f32(t.weight_clip);
    w.usize(t.iterations);
    w.usize(t.batch_size);
    w.f32(t.lr_g);
    w.f32(t.lr_d);
    w.usize(t.epochs);
    w.usize(t.pac);
    w.usize(cfg.noise_dim);
    w.usizes(&cfg.g_hidden);
    w.usizes(&cfg.d_hidden);
    w.bool(cfg.simplified_d);
    w.f32(cfg.d_dropout);
    w.bool(cfg.g_batchnorm);
    w.usize(cfg.cnn_channels);
    w.u64(cfg.seed);
}

fn read_config(r: &mut Reader) -> Result<SynthesizerConfig, PersistError> {
    let network = match r.u8()? {
        0 => NetworkKind::Mlp,
        1 => NetworkKind::Lstm,
        2 => NetworkKind::Cnn,
        other => return Err(format!("unknown network tag {other}")),
    };
    let discriminator = match r.u8()? {
        0 => DiscriminatorKind::Mlp,
        1 => DiscriminatorKind::Lstm,
        2 => DiscriminatorKind::Cnn,
        other => return Err(format!("unknown discriminator tag {other}")),
    };
    let categorical = match r.u8()? {
        0 => CategoricalEncoding::Ordinal,
        1 => CategoricalEncoding::OneHot,
        other => return Err(format!("unknown encoding tag {other}")),
    };
    let numerical = match r.u8()? {
        0 => NumericalNormalization::Simple,
        1 => NumericalNormalization::Gmm,
        other => return Err(format!("unknown normalization tag {other}")),
    };
    let transform = TransformConfig {
        categorical,
        numerical,
        gmm_components: r.usize()?,
        gmm_iterations: r.usize()?,
    };
    let loss = match r.u8()? {
        0 => LossKind::Vanilla,
        1 => LossKind::Wasserstein,
        other => return Err(format!("unknown loss tag {other}")),
    };
    let conditional = r.bool()?;
    let label_aware = r.bool()?;
    let dp = if r.bool()? {
        Some(DpConfig {
            noise_scale: r.f32()?,
            grad_bound: r.f32()?,
        })
    } else {
        None
    };
    let train = TrainConfig {
        loss,
        conditional,
        label_aware,
        dp,
        kl_weight: r.f32()?,
        d_steps: r.usize()?,
        weight_clip: r.f32()?,
        iterations: r.usize()?,
        batch_size: r.usize()?,
        lr_g: r.f32()?,
        lr_d: r.f32()?,
        epochs: r.usize()?,
        pac: r.usize()?,
    };
    Ok(SynthesizerConfig {
        network,
        discriminator,
        transform,
        train,
        noise_dim: r.usize()?,
        g_hidden: r.usizes()?,
        d_hidden: r.usizes()?,
        simplified_d: r.bool()?,
        d_dropout: r.f32()?,
        g_batchnorm: r.bool()?,
        cnn_channels: r.usize()?,
        seed: r.u64()?,
    })
}

/// Canonical byte encoding of a configuration — the basis of the
/// checkpoint fingerprint ([`crate::checkpoint::config_fingerprint`]):
/// two configurations match exactly iff their bytes match.
pub(crate) fn config_bytes(cfg: &SynthesizerConfig) -> Vec<u8> {
    let mut w = Writer::default();
    write_config(&mut w, cfg);
    w.buf
}

/// Checks that `got` has the tensor count and shapes (`want`) the
/// architecture it is about to be restored into expects.
pub(crate) fn check_shapes(
    what: &str,
    want: impl IntoIterator<Item = Vec<usize>>,
    got: &[Tensor],
) -> Result<(), String> {
    let want: Vec<Vec<usize>> = want.into_iter().collect();
    if want.len() != got.len() {
        return Err(format!(
            "{what} count mismatch: file has {}, architecture needs {}",
            got.len(),
            want.len()
        ));
    }
    for (shape, t) in want.iter().zip(got) {
        if shape != t.shape() {
            return Err(format!(
                "{what} shape mismatch: file {:?}, architecture {shape:?}",
                t.shape()
            ));
        }
    }
    Ok(())
}

/// Appends the whole-file integrity footer: `DAISYCRC` + CRC-64 of
/// every preceding byte.
fn seal(mut buf: Vec<u8>) -> Vec<u8> {
    let crc = crc64(&buf);
    buf.extend_from_slice(FOOTER_MAGIC);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Verifies and strips the integrity footer, returning the body.
fn unseal(bytes: &[u8]) -> Result<&[u8], PersistError> {
    if bytes.len() < FOOTER_MAGIC.len() + 8 {
        return Err("file too short to carry an integrity footer".to_string());
    }
    let (body, footer) = bytes.split_at(bytes.len() - FOOTER_MAGIC.len() - 8);
    if &footer[..8] != FOOTER_MAGIC {
        return Err("integrity footer missing (truncated or foreign file)".to_string());
    }
    let stored = u64::from_le_bytes(footer[8..].try_into().unwrap());
    let actual = crc64(body);
    if stored != actual {
        return Err(format!(
            "file checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        ));
    }
    Ok(body)
}

// ---------------------------------------------------------------------
// FittedSynthesizer save / load
// ---------------------------------------------------------------------

impl FittedSynthesizer {
    /// Serializes the synthesizer (configuration, fitted codec, label
    /// metadata, and the currently loaded generator snapshot) to bytes,
    /// sealed with a whole-file checksum footer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.buf.extend_from_slice(MAGIC);
        write_config(&mut w, &self.config);
        match &self.codec {
            SampleCodec::Record(c) => {
                w.u8(0);
                write_schema(&mut w, c.schema());
                write_categories(&mut w, c.categories());
                w.usize(c.codecs().len());
                for codec in c.codecs() {
                    write_attribute_codec(&mut w, codec);
                }
            }
            SampleCodec::Matrix(c) => {
                w.u8(1);
                write_schema(&mut w, c.schema());
                write_categories(&mut w, c.categories());
                let cells = c.cell_params();
                w.usize(cells.len());
                for cell in &cells {
                    match cell {
                        MatrixCellParam::Ordinal { k } => {
                            w.u8(0);
                            w.usize(*k);
                        }
                        MatrixCellParam::Norm { min, max } => {
                            w.u8(1);
                            w.f64(*min);
                            w.f64(*max);
                        }
                    }
                }
            }
        }
        write_schema(&mut w, &self.output_schema);
        w.usize(self.label_categories.len());
        for c in &self.label_categories {
            w.str(c);
        }
        w.f64s(&self.label_dist);
        match self.label_col {
            Some(j) => {
                w.bool(true);
                w.usize(j);
            }
            None => w.bool(false),
        }
        // The currently loaded generator parameters plus non-parameter
        // state (batch-norm running statistics).
        let params = self.generator.params();
        w.usize(params.len());
        for p in &params {
            w.tensor(&p.value());
        }
        let state = self.generator.state();
        w.usize(state.len());
        for t in &state {
            w.tensor(t);
        }
        seal(w.buf)
    }

    /// Reconstructs a synthesizer from [`FittedSynthesizer::to_bytes`]
    /// output. The loaded model generates identically to the saved one.
    /// Any corruption — a flipped byte anywhere, truncation, a foreign
    /// file — is reported as a typed error, never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<FittedSynthesizer, PersistError> {
        let body = unseal(bytes)?;
        let mut r = Reader::new(body);
        if r.take(8)? != MAGIC {
            return Err("not a daisy synthesizer file (bad magic)".to_string());
        }
        let config = read_config(&mut r)?;
        let codec = match r.u8()? {
            0 => {
                let schema = read_schema(&mut r)?;
                let categories = read_categories(&mut r)?;
                let n = r.len()?;
                let codecs: Result<Vec<AttributeCodec>, _> =
                    (0..n).map(|_| read_attribute_codec(&mut r)).collect();
                SampleCodec::Record(RecordCodec::from_parts(schema, categories, codecs?))
            }
            1 => {
                let schema = read_schema(&mut r)?;
                let categories = read_categories(&mut r)?;
                let n = r.len()?;
                let cells: Result<Vec<MatrixCellParam>, _> = (0..n)
                    .map(|_| {
                        Ok(match r.u8()? {
                            0 => MatrixCellParam::Ordinal { k: r.usize()? },
                            1 => MatrixCellParam::Norm {
                                min: r.f64()?,
                                max: r.f64()?,
                            },
                            other => return Err(format!("unknown cell tag {other}")),
                        })
                    })
                    .collect();
                SampleCodec::Matrix(MatrixCodec::from_parts(schema, categories, cells?))
            }
            other => return Err(format!("unknown codec tag {other}")),
        };
        let output_schema = read_schema(&mut r)?;
        let n = r.len()?;
        let label_categories: Result<Vec<String>, _> = (0..n).map(|_| r.str()).collect();
        let label_categories = label_categories?;
        let label_dist = r.f64s()?;
        let label_col = if r.bool()? { Some(r.usize()?) } else { None };
        let n_params = r.len()?;
        let saved: Result<Vec<Tensor>, _> = (0..n_params).map(|_| r.tensor()).collect();
        let saved = saved?;
        let n_state = r.len()?;
        let state: Result<Vec<Tensor>, _> = (0..n_state).map(|_| r.tensor()).collect();
        let state = state?;

        // Rebuild the generator architecture, then overwrite its weights
        // and state — after checking every saved shape, because the
        // setters assert and a re-sealed file must not panic the loader.
        let cond_dim = if config.train.conditional {
            label_dist.len()
        } else {
            0
        };
        let mut rng = Rng::seed_from_u64(config.seed);
        let generator = build_generator(&config, &codec, cond_dim, &mut rng)?;
        let params = generator.params();
        check_shapes("parameter", params.iter().map(Param::shape), &saved)?;
        check_shapes(
            "state",
            generator.state().iter().map(|t| t.shape().to_vec()),
            &state,
        )?;
        restore(&params, &saved);
        generator.set_state(&state);
        // A loaded model only generates: eval mode, set once here, so
        // generation never writes to a model other threads may share.
        generator.set_training(false);

        Ok(FittedSynthesizer {
            codec,
            generator,
            config,
            label_dist,
            label_col,
            output_schema,
            label_categories,
            run: TrainingRun {
                snapshots: vec![saved],
                history: Vec::new(),
            },
            selected_epoch: 0,
            // The file stores only the selected snapshot; the training
            // health report is not persisted.
            outcome: crate::guard::TrainOutcome::default(),
        })
    }

    /// Saves the synthesizer to a file via write-to-temp → fsync →
    /// atomic rename: a crash mid-save leaves the previous file (or no
    /// file) intact, never a torn one.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        atomic_write(path.as_ref(), &self.to_bytes()).map_err(|e| format!("write failed: {e}"))
    }

    /// Loads a synthesizer saved with [`FittedSynthesizer::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<FittedSynthesizer, PersistError> {
        let bytes = std::fs::read(path).map_err(|e| format!("read failed: {e}"))?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::scratch_path;
    use crate::generator::test_support::tiny_table;
    use crate::synthesizer::Synthesizer;

    fn quick(network: NetworkKind, conditional: bool) -> SynthesizerConfig {
        let mut tc = if conditional {
            TrainConfig::ctrain(40)
        } else {
            TrainConfig::vtrain(40)
        };
        tc.batch_size = 16;
        tc.epochs = 2;
        let mut cfg = SynthesizerConfig::new(network, tc);
        cfg.g_hidden = vec![24];
        cfg.d_hidden = vec![24];
        cfg.noise_dim = 8;
        cfg.cnn_channels = 4;
        cfg
    }

    fn roundtrip(network: NetworkKind, conditional: bool, seed: u64) {
        let table = tiny_table(200, seed);
        let fitted = Synthesizer::fit(&table, &quick(network, conditional));
        let bytes = fitted.to_bytes();
        let loaded = FittedSynthesizer::from_bytes(&bytes).expect("load");
        // Identical generation from the same RNG stream.
        let a = fitted.generate(25, &mut Rng::seed_from_u64(99));
        let b = loaded.generate(25, &mut Rng::seed_from_u64(99));
        assert_eq!(a, b, "{network:?} conditional={conditional}");
    }

    #[test]
    fn roundtrip_mlp() {
        roundtrip(NetworkKind::Mlp, false, 1);
    }

    #[test]
    fn roundtrip_mlp_conditional() {
        roundtrip(NetworkKind::Mlp, true, 2);
    }

    #[test]
    fn roundtrip_lstm() {
        roundtrip(NetworkKind::Lstm, false, 3);
    }

    #[test]
    fn roundtrip_cnn() {
        roundtrip(NetworkKind::Cnn, false, 4);
    }

    #[test]
    fn save_load_file() {
        let table = tiny_table(150, 5);
        let fitted = Synthesizer::fit(&table, &quick(NetworkKind::Mlp, false));
        let path = scratch_path("persist");
        fitted.save(&path).unwrap();
        let loaded = FittedSynthesizer::load(&path).unwrap();
        let a = fitted.generate(10, &mut Rng::seed_from_u64(7));
        let b = loaded.generate(10, &mut Rng::seed_from_u64(7));
        assert_eq!(a, b);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_garbage() {
        assert!(FittedSynthesizer::from_bytes(b"not a model").is_err());
        assert!(FittedSynthesizer::from_bytes(b"DAISYSY1").is_err()); // truncated
        // Truncate mid-file: must error, not panic.
        let table = tiny_table(100, 6);
        let fitted = Synthesizer::fit(&table, &quick(NetworkKind::Mlp, false));
        let mut bytes = fitted.to_bytes();
        let mid = bytes.len() / 3;
        bytes.truncate(mid);
        assert!(FittedSynthesizer::from_bytes(&bytes).is_err());
    }

    #[test]
    fn resealed_model_with_a_misshapen_state_tensor_is_a_typed_error() {
        // The CRC is no secret: anyone can edit a model and re-seal it.
        // A BatchNorm running variance stored as [1, 16] instead of [16]
        // must be refused before `set_state`, whose asserts would panic.
        let table = tiny_table(120, 8);
        let mut cfg = quick(NetworkKind::Mlp, false);
        cfg.g_hidden = vec![16];
        let fitted = Synthesizer::fit(&table, &cfg);
        let state = fitted.generator.state();
        let var = state.last().expect("the MLP generator has BatchNorm state");
        assert_eq!(var.shape(), &[16]);
        let bytes = fitted.to_bytes();
        let mut last = Writer::default();
        last.tensor(var);
        let body = bytes.len() - FOOTER_MAGIC.len() - 8 - last.buf.len();
        let mut w = Writer {
            buf: bytes[..body].to_vec(),
        };
        w.tensor(&var.reshape(&[1, 16]));
        let Err(err) = FittedSynthesizer::from_bytes(&seal(w.buf)) else {
            panic!("a misshapen state tensor was accepted");
        };
        assert!(err.contains("state shape mismatch"), "{err}");
    }

    #[test]
    fn every_single_byte_corruption_detected() {
        // Exhaustive bit-flip fuzz: flipping any byte of a small saved
        // model must yield a typed error — never a panic, never a
        // silently-accepted altered model.
        let table = tiny_table(60, 7);
        let mut cfg = quick(NetworkKind::Mlp, false);
        cfg.g_hidden = vec![6];
        cfg.d_hidden = vec![6];
        cfg.noise_dim = 3;
        cfg.train.iterations = 4;
        cfg.train.epochs = 1;
        let fitted = Synthesizer::fit(&table, &cfg);
        let bytes = fitted.to_bytes();
        let mut corrupted = bytes.clone();
        for i in 0..corrupted.len() {
            corrupted[i] ^= 0x40;
            assert!(
                FittedSynthesizer::from_bytes(&corrupted).is_err(),
                "flip at byte {i} of {} went undetected",
                corrupted.len()
            );
            corrupted[i] ^= 0x40;
        }
        assert!(FittedSynthesizer::from_bytes(&corrupted).is_ok());
    }
}
