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
use crate::train::{NetState, TrainingRun};
use daisy_data::{
    AttrType, Attribute, AttributeCodec, CategoricalEncoding, Gmm1d, MatrixCellParam,
    MatrixCodec, NumericalNormalization, RecordCodec, Schema, TransformConfig,
};
use daisy_tensor::Rng;
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

/// Reads a schema, refusing what the `Schema` constructors assert: no
/// attributes, or a label that is not one of its categorical attributes.
fn read_schema(r: &mut Reader) -> Result<Schema, PersistError> {
    let n = r.len()?;
    if n == 0 {
        return Err("schema has no attributes".to_string());
    }
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
        if attrs.get(j).is_none_or(|a| a.ty != AttrType::Categorical) {
            return Err(format!(
                "label {j} is not a categorical attribute of the schema"
            ));
        }
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
            let (weights, means, stds) = (r.f64s()?, r.f64s()?, r.f64s()?);
            let k = means.len();
            if k == 0 || weights.len() != k || stds.len() != k {
                let (w, s) = (weights.len(), stds.len());
                return Err(format!(
                    "GMM arity mismatch: {w} weights, {k} means, {s} stds"
                ));
            }
            // Also refuses NaN.
            if !stds.iter().all(|&s| s > 0.0) {
                return Err(format!(
                    "GMM standard deviations {stds:?} are not all positive"
                ));
            }
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

/// Checks a codec against its schema before its constructor asserts the
/// arities and decoding trusts the rest: one category list and one codec
/// per attribute, a categorical codec (`Some(k)`) with `k` categories on
/// each categorical attribute, and a numerical codec (`None`) on each
/// numerical one.
fn check_codec(
    schema: &Schema,
    categories: &[Vec<String>],
    ks: &[Option<usize>],
) -> Result<(), PersistError> {
    let (n, c) = (schema.n_attrs(), categories.len());
    if c != n || ks.len() != n {
        let k = ks.len();
        return Err(format!(
            "codec arity mismatch: {n} attributes, {c} category lists, {k} codecs"
        ));
    }
    for (j, (a, &k)) in schema.attrs().iter().zip(ks).enumerate() {
        if k != (a.ty == AttrType::Categorical).then_some(categories[j].len()) {
            return Err(format!(
                "attribute {:?} has a codec of the wrong kind or width",
                a.name
            ));
        }
    }
    Ok(())
}

/// Checks what generation assumes of a conditional model: the label
/// column, inserted into the decoded record at `label_col`, makes up the
/// output schema and is categorical, and the label distribution has one
/// non-negative weight per label category, with a positive sum.
fn check_label(f: &FittedSynthesizer) -> Result<(), PersistError> {
    let j = f
        .label_col
        .ok_or("conditional model without a label column")?;
    let record = match &f.codec {
        SampleCodec::Record(c) => c.schema(),
        SampleCodec::Matrix(c) => c.schema(),
    };
    let mut types: Vec<AttrType> = record.attrs().iter().map(|a| a.ty).collect();
    if j > types.len() {
        return Err(format!("label column {j} lies outside the output schema"));
    }
    types.insert(j, AttrType::Categorical);
    if !f.output_schema.attrs().iter().map(|a| a.ty).eq(types) {
        return Err(format!("label column {j} does not fit the output schema"));
    }
    let (dist, c) = (&f.label_dist, f.label_categories.len());
    if dist.len() != c {
        return Err(format!(
            "{} label weights for {c} label categories",
            dist.len()
        ));
    }
    if !(dist.iter().sum::<f64>() > 0.0 && dist.iter().all(|&w| w >= 0.0)) {
        return Err(format!("label weights {dist:?} are not a distribution"));
    }
    Ok(())
}

/// Canonical byte encoding of a configuration — the basis of the
/// checkpoint fingerprint ([`crate::checkpoint::config_fingerprint`]):
/// two configurations match exactly iff their bytes match.
pub(crate) fn config_bytes(cfg: &SynthesizerConfig) -> Vec<u8> {
    let mut w = Writer::default();
    write_config(&mut w, cfg);
    w.buf
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
        // The loaded generator is the selected snapshot.
        self.run.snapshots[self.selected_epoch].encode(&mut w);
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
                let codecs: Vec<AttributeCodec> = (0..n)
                    .map(|_| read_attribute_codec(&mut r))
                    .collect::<Result<_, _>>()?;
                let ks: Vec<Option<usize>> = codecs
                    .iter()
                    .map(|c| match c {
                        AttributeCodec::Ordinal { k } | AttributeCodec::OneHot { k } => Some(*k),
                        AttributeCodec::SimpleNorm { .. } | AttributeCodec::Gmm { .. } => None,
                    })
                    .collect();
                check_codec(&schema, &categories, &ks)?;
                SampleCodec::Record(RecordCodec::from_parts(schema, categories, codecs))
            }
            1 => {
                let schema = read_schema(&mut r)?;
                let categories = read_categories(&mut r)?;
                let n = r.len()?;
                let cells: Vec<MatrixCellParam> = (0..n)
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
                    .collect::<Result<_, PersistError>>()?;
                let ks: Vec<Option<usize>> = cells
                    .iter()
                    .map(|c| match c {
                        MatrixCellParam::Ordinal { k } => Some(*k),
                        MatrixCellParam::Norm { .. } => None,
                    })
                    .collect();
                check_codec(&schema, &categories, &ks)?;
                SampleCodec::Matrix(MatrixCodec::from_parts(schema, categories, cells))
            }
            other => return Err(format!("unknown codec tag {other}")),
        };
        let output_schema = read_schema(&mut r)?;
        let n = r.len()?;
        let label_categories: Result<Vec<String>, _> = (0..n).map(|_| r.str()).collect();
        let label_categories = label_categories?;
        let label_dist = r.f64s()?;
        let label_col = if r.bool()? { Some(r.usize()?) } else { None };
        let net = NetState::decode(&mut r)?;

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
        net.fits("generator", &params, &generator.state())?;
        net.restore(&params, |s| generator.set_state(s));
        // A loaded model only generates: eval mode, set once here, so
        // generation never writes to a model other threads may share.
        generator.set_training(false);

        let fitted = FittedSynthesizer {
            codec,
            generator,
            config,
            label_dist,
            label_col,
            output_schema,
            label_categories,
            run: TrainingRun {
                snapshots: vec![net],
                history: Vec::new(),
            },
            selected_epoch: 0,
            // The file stores only the selected snapshot; the training
            // health report is not persisted.
            outcome: crate::guard::TrainOutcome::default(),
        };
        if fitted.config.train.conditional {
            check_label(&fitted)?;
        }
        Ok(fitted)
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

    /// `bytes` with the last occurrence of `old` replaced by `new`, then
    /// re-sealed: a CRC-valid edit, which anyone holding the file can make.
    fn resealed(bytes: &[u8], old: &[u8], new: &[u8]) -> Vec<u8> {
        let body = &bytes[..bytes.len() - FOOTER_MAGIC.len() - 8];
        let at = body
            .windows(old.len())
            .rposition(|w| w == old)
            .expect("the edited bytes occur in the file");
        seal([&body[..at], new, &body[at + old.len()..]].concat())
    }

    fn encoded(write: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::default();
        write(&mut w);
        w.buf
    }

    #[test]
    fn resealed_malformed_models_are_typed_errors() {
        // Each edit is CRC-valid but breaks what a constructor asserts or
        // what generation assumes. The loader must refuse each one with an
        // error naming it, never panic, and never load a model that would
        // panic later, while generating.
        let table = tiny_table(120, 9);
        let fit = |network, conditional, transform| {
            let mut cfg = quick(network, conditional);
            cfg.transform = transform;
            cfg.train.iterations = 4;
            Synthesizer::fit(&table, &cfg)
        };
        let plain = fit(NetworkKind::Mlp, false, TransformConfig::sn_ht());
        let gmm = fit(NetworkKind::Mlp, false, TransformConfig::gn_ht());
        let cnn = fit(NetworkKind::Cnn, false, TransformConfig::sn_ht());
        let cond = fit(NetworkKind::Mlp, true, TransformConfig::sn_ht());
        let SampleCodec::Record(codec) = &plain.codec else {
            panic!("an MLP model has a record codec")
        };
        let SampleCodec::Record(gmm_codec) = &gmm.codec else {
            panic!("an MLP model has a record codec")
        };
        let AttributeCodec::Gmm { gmm: mixture } = &gmm_codec.codecs()[0] else {
            panic!("gn encodes the numerical attribute with a GMM")
        };
        let SampleCodec::Matrix(matrix) = &cnn.codec else {
            panic!("a CNN model has a matrix codec")
        };
        let state = plain.generator.state();
        let var = state.last().expect("the MLP generator has BatchNorm state");
        assert_eq!(var.shape(), &[24]);

        // The output schema [x: num, c: cat, y: cat] with label y.
        let schema = encoded(|w| write_schema(w, &plain.output_schema));
        let label_at = |j: usize| [&schema[..schema.len() - 8], &(j as u64).to_le_bytes()].concat();
        let codecs = codec.codecs();
        let codec_list = |n: usize| {
            encoded(|w| {
                w.usize(n);
                codecs[..n].iter().for_each(|c| write_attribute_codec(w, c));
            })
        };
        let categories = encoded(|w| write_categories(w, codec.categories()));
        let mut fewer_c = codec.categories().to_vec();
        fewer_c[1].pop();
        let matrix_categories = encoded(|w| write_categories(w, matrix.categories()));
        // A conditional model ends with its label categories, weights and
        // column: y's two categories, two weights, column 2.
        assert_eq!(cond.label_col, Some(2));
        let label_names = |n: usize| {
            encoded(|w| {
                w.usize(n);
                cond.label_categories[..n].iter().for_each(|c| w.str(c));
            })
        };
        let weights = |dist: &[f64]| encoded(|w| w.f64s(dist));
        let label_col = |j: usize| {
            encoded(|w| {
                w.f64s(&cond.label_dist);
                w.bool(true);
                w.usize(j);
            })
        };

        let (bytes, gmm_bytes) = (plain.to_bytes(), gmm.to_bytes());
        let (cnn_bytes, cond_bytes) = (cnn.to_bytes(), cond.to_bytes());
        let stds = mixture.stds();
        let cases: Vec<(&str, Vec<u8>, &str)> = vec![
            (
                // `set_state`'s asserts would panic on it.
                "a BatchNorm running variance of shape [1, 24]",
                resealed(
                    &bytes,
                    &encoded(|w| w.tensor(var)),
                    &encoded(|w| w.tensor(&var.reshape(&[1, 24]))),
                ),
                "generator state shape mismatch",
            ),
            (
                "a schema with no attributes",
                resealed(
                    &bytes,
                    &schema,
                    &encoded(|w| {
                        w.usize(0);
                        w.bool(false);
                    }),
                ),
                "schema has no attributes",
            ),
            (
                "a label index past the schema",
                resealed(&bytes, &schema, &label_at(3)),
                "label 3 is not a categorical attribute",
            ),
            (
                "a numerical label",
                resealed(&bytes, &schema, &label_at(0)),
                "label 0 is not a categorical attribute",
            ),
            (
                "one codec fewer than attributes",
                resealed(&bytes, &codec_list(3), &codec_list(2)),
                "codec arity mismatch: 3 attributes, 3 category lists, 2 codecs",
            ),
            (
                "one category list fewer than attributes",
                resealed(
                    &bytes,
                    &categories,
                    &encoded(|w| write_categories(w, &codec.categories()[..2])),
                ),
                "codec arity mismatch: 3 attributes, 2 category lists, 3 codecs",
            ),
            (
                "a categorical codec on the numerical attribute",
                resealed(
                    &bytes,
                    &encoded(|w| write_attribute_codec(w, &codecs[0])),
                    &encoded(|w| write_attribute_codec(w, &AttributeCodec::Ordinal { k: 0 })),
                ),
                "attribute \"x\" has a codec of the wrong kind or width",
            ),
            (
                "a one-hot codec wider than its categories",
                resealed(
                    &bytes,
                    &categories,
                    &encoded(|w| write_categories(w, &fewer_c)),
                ),
                "attribute \"c\" has a codec of the wrong kind or width",
            ),
            (
                "a GMM standard deviation of 0",
                resealed(
                    &gmm_bytes,
                    &weights(stds),
                    &weights(&[&[0.0], &stds[1..]].concat()),
                ),
                "are not all positive",
            ),
            (
                "a GMM weight fewer than components",
                resealed(
                    &gmm_bytes,
                    &weights(mixture.weights()),
                    &weights(&mixture.weights()[1..]),
                ),
                "GMM arity mismatch",
            ),
            (
                "one matrix category list fewer than attributes",
                resealed(
                    &cnn_bytes,
                    &matrix_categories,
                    &encoded(|w| write_categories(w, &matrix.categories()[1..])),
                ),
                "codec arity mismatch: 3 attributes, 2 category lists, 3 codecs",
            ),
            (
                "a label column past the output schema",
                resealed(&cond_bytes, &label_col(2), &label_col(9)),
                "label column 9 lies outside the output schema",
            ),
            (
                "a label column on a numerical attribute",
                resealed(&cond_bytes, &label_col(2), &label_col(0)),
                "label column 0 does not fit the output schema",
            ),
            (
                "one label category fewer than label weights",
                resealed(&cond_bytes, &label_names(2), &label_names(1)),
                "2 label weights for 1 label categories",
            ),
            (
                "a negative label weight",
                resealed(
                    &cond_bytes,
                    &weights(&cond.label_dist),
                    &weights(&[-0.5, 1.5]),
                ),
                "are not a distribution",
            ),
        ];
        for (what, bytes, expected) in cases {
            match FittedSynthesizer::from_bytes(&bytes) {
                Err(err) => assert!(err.contains(expected), "{what}: {err}"),
                Ok(_) => panic!("{what}: the malformed model was loaded"),
            }
        }
        // The edits themselves are sound: an identity edit still loads.
        assert!(FittedSynthesizer::from_bytes(&resealed(&bytes, &schema, &schema)).is_ok());
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
