//! The end-to-end synthesis pipeline (paper Figure 2): fit a codec,
//! train a GAN, select the best epoch snapshot on validation data, and
//! generate a synthetic table.

use crate::checkpoint::{config_fingerprint, CheckpointPlan};
use crate::config::{DiscriminatorKind, NetworkKind, SynthesizerConfig};
use crate::discriminator::{CnnDiscriminator, Discriminator, LstmDiscriminator, MlpDiscriminator};
use crate::fault::FaultPlan;
use crate::generator::{CnnGenerator, Generator, LstmGenerator, MlpGenerator};
use crate::guard::{GuardConfig, TrainError, TrainOutcome};
use crate::output_head::softmax_spans;
use crate::sampler::{BatchSource, TrainingData};
use crate::train::{train_gan_checkpointed, EpochStats, TrainingRun};
use daisy_data::{Column, MatrixCodec, OutputBlock, RecordCodec, Schema, Table};
use daisy_telemetry::{field, schema};
use daisy_tensor::{Rng, Tensor};

/// Rows per generation batch in [`FittedSynthesizer::generate`].
///
/// Deliberately a constant: each batch draws noise (and, for LSTM
/// generators, initial states) from the caller's RNG, so the batch size
/// is part of the deterministic computation. It must never be derived
/// from the thread count or machine — the worker pool parallelizes
/// *inside* each batch's forward pass instead.
pub const GENERATION_BATCH: usize = 256;

/// Anything that can produce a synthetic table — the common interface
/// of the GAN synthesizer and the baselines (VAE, PrivBayes,
/// independent marginals), letting the experiment harness swap methods.
pub trait TableSynthesizer {
    /// Generates `n` synthetic records.
    fn synthesize(&self, n: usize, rng: &mut Rng) -> Table;

    /// Display name of the method.
    fn method_name(&self) -> String;
}

impl TableSynthesizer for FittedSynthesizer {
    fn synthesize(&self, n: usize, rng: &mut Rng) -> Table {
        self.generate(n, rng)
    }

    fn method_name(&self) -> String {
        format!(
            "GAN({}/{})",
            self.config.network.name(),
            self.config.train.name()
        )
    }
}

/// Either sample form, behind one reversible interface.
pub enum SampleCodec {
    /// Vector-formed samples (MLP/LSTM).
    Record(RecordCodec),
    /// Matrix-formed samples (CNN), flattened to `[n, side²]`.
    Matrix(MatrixCodec),
}

impl SampleCodec {
    /// Flattened sample width.
    pub fn width(&self) -> usize {
        match self {
            SampleCodec::Record(c) => c.width(),
            SampleCodec::Matrix(c) => c.side() * c.side(),
        }
    }

    /// Encodes a table into flattened `[n, d]` samples.
    pub fn encode_table(&self, table: &Table) -> Tensor {
        match self {
            SampleCodec::Record(c) => c.encode_table(table),
            SampleCodec::Matrix(c) => {
                let t4 = c.encode_table(table);
                let n = t4.shape()[0];
                let area = t4.shape()[2] * t4.shape()[3];
                t4.reshape(&[n, area])
            }
        }
    }

    /// Decodes flattened `[n, d]` samples back into records.
    pub fn decode_table(&self, samples: &Tensor) -> Table {
        match self {
            SampleCodec::Record(c) => c.decode_table(samples),
            SampleCodec::Matrix(c) => {
                let n = samples.rows();
                let side = c.side();
                c.decode_table(&samples.reshape(&[n, 1, side, side]))
            }
        }
    }

    /// Output blocks of vector-formed samples (the generator's softmax
    /// heads); matrix-formed samples have none.
    fn output_blocks(&self) -> Vec<OutputBlock> {
        match self {
            SampleCodec::Record(c) => c.output_blocks(),
            SampleCodec::Matrix(_) => Vec::new(),
        }
    }
}

/// Builds the generator architecture `config` names, with fresh
/// weights drawn from `rng`. Fitting trains it; model loading
/// overwrites its weights with the saved ones.
pub(crate) fn build_generator(
    config: &SynthesizerConfig,
    codec: &SampleCodec,
    cond_dim: usize,
    rng: &mut Rng,
) -> Result<Box<dyn Generator + Send + Sync>, String> {
    // BatchNorm is disabled for conditional training: Algorithm 3's
    // pure-label minibatches make batch statistics label-dependent,
    // which mismatches the blended running statistics used at
    // generation time (see `SynthesizerConfig::g_batchnorm`).
    let g_bn = config.g_batchnorm && !config.train.conditional;
    Ok(match config.network {
        NetworkKind::Mlp => Box::new(MlpGenerator::with_options(
            config.noise_dim,
            cond_dim,
            &config.g_hidden,
            codec.output_blocks(),
            g_bn,
            rng,
        )),
        NetworkKind::Lstm => {
            let hidden = config.g_hidden.first().copied().unwrap_or(64);
            let f_dim = config.g_hidden.get(1).copied().unwrap_or(hidden / 2).max(4);
            Box::new(LstmGenerator::new(
                config.noise_dim,
                cond_dim,
                hidden,
                f_dim,
                codec.output_blocks(),
                rng,
            ))
        }
        NetworkKind::Cnn => {
            let SampleCodec::Matrix(m) = codec else {
                return Err("CNN model without a matrix codec".to_string());
            };
            Box::new(CnnGenerator::new(
                config.noise_dim,
                config.cnn_channels,
                m.side(),
                rng,
            ))
        }
    })
}

/// A trained synthesizer: Phase III generation plus training telemetry.
///
/// In conditional mode (CTrain / CGAN-V) the label attribute is *not*
/// part of the generated record: the generator synthesizes the feature
/// attributes conditioned on a one-hot label, exactly the CGAN
/// formulation of §5.3, and generation re-attaches the conditioned
/// label as a column. This forces the discriminator to judge
/// feature↔label consistency instead of merely copying a label block.
pub struct FittedSynthesizer {
    pub(crate) codec: SampleCodec,
    pub(crate) generator: Box<dyn Generator + Send + Sync>,
    pub(crate) config: SynthesizerConfig,
    /// Empirical label distribution of the training table (used to draw
    /// conditions at generation time).
    pub(crate) label_dist: Vec<f64>,
    pub(crate) label_col: Option<usize>,
    /// Schema of the full (label-included) table.
    pub(crate) output_schema: Schema,
    /// Category names of the label column (conditional mode).
    pub(crate) label_categories: Vec<String>,
    pub(crate) run: TrainingRun,
    /// Which epoch snapshot the generator currently holds.
    pub(crate) selected_epoch: usize,
    /// Health report of the training run (recoveries, escalations,
    /// degradation status).
    pub(crate) outcome: TrainOutcome,
}

impl FittedSynthesizer {
    /// Per-epoch loss history.
    pub fn history(&self) -> &[EpochStats] {
        &self.run.history
    }

    /// Number of stored epoch snapshots.
    pub fn n_snapshots(&self) -> usize {
        self.run.snapshots.len()
    }

    /// The epoch whose snapshot is currently loaded.
    pub fn selected_epoch(&self) -> usize {
        self.selected_epoch
    }

    /// The fitted configuration.
    pub fn config(&self) -> &SynthesizerConfig {
        &self.config
    }

    /// The resilience layer's report on the training run: recovery
    /// trace, escalations taken, and whether the run degraded, stopping
    /// at its last clean epoch boundary instead of completing.
    pub fn outcome(&self) -> &TrainOutcome {
        &self.outcome
    }

    /// Loads the generator as it stood at the end of the given epoch:
    /// its parameters and its BatchNorm statistics.
    pub fn load_snapshot(&mut self, epoch: usize) {
        assert!(epoch < self.run.snapshots.len(), "no such snapshot");
        let g = &self.generator;
        self.run.snapshots[epoch].restore(&g.params(), |s| g.set_state(s));
        self.selected_epoch = epoch;
    }

    /// Generates `n` synthetic records (Phase III).
    ///
    /// Generation runs in fixed [`GENERATION_BATCH`]-row batches; each
    /// batch's forward pass executes on daisy-tensor's worker pool, so
    /// generation scales with `DAISY_THREADS` while staying
    /// bit-identical for any thread count (the batch size — and with it
    /// the RNG draw order — is a constant, never a function of the
    /// parallelism).
    pub fn generate(&self, n: usize, rng: &mut Rng) -> Table {
        // Implemented over the pull-based row stream so the batch API
        // and the serving plane cannot drift: a streamed request with
        // this RNG yields these rows, bit for bit.
        let stream = crate::row_stream::RowStream::new(self, n, Rng::from_state(rng.state()), None);
        let (table, state) = self.collect_stream(stream);
        *rng = Rng::from_state(state);
        table
    }

    /// Generates from a specific snapshot without changing the loaded
    /// selection permanently.
    pub fn generate_from_snapshot(&mut self, epoch: usize, n: usize, rng: &mut Rng) -> Table {
        let keep = self.selected_epoch;
        self.load_snapshot(epoch);
        let t = self.generate(n, rng);
        self.load_snapshot(keep);
        t
    }
}

/// Entry points for fitting synthesizers.
pub struct Synthesizer;

impl Synthesizer {
    /// Fits a GAN synthesizer and keeps the **last** epoch snapshot.
    ///
    /// Thin compatible wrapper over [`Synthesizer::try_fit`]: panics on
    /// [`TrainError`]. Callers that want to handle training failure
    /// (invalid configuration, unrecoverable divergence) should use
    /// `try_fit` directly.
    pub fn fit(table: &Table, config: &SynthesizerConfig) -> FittedSynthesizer {
        Self::try_fit(table, config)
            .unwrap_or_else(|e| panic!("synthesizer training failed: {e}"))
    }

    /// Fits a GAN synthesizer under the default resilience policy
    /// ([`GuardConfig::default`]) and keeps the **last** epoch snapshot.
    ///
    /// Training runs with NaN/divergence guards and snapshot-rollback
    /// recovery; a degraded-but-usable run comes back `Ok` with
    /// [`TrainOutcome::degraded`] set, and only a run with no healthy
    /// epoch at all is an `Err`.
    pub fn try_fit(
        table: &Table,
        config: &SynthesizerConfig,
    ) -> Result<FittedSynthesizer, TrainError> {
        Self::try_fit_with(table, config, &GuardConfig::default(), &FaultPlan::none())
    }

    /// [`Synthesizer::try_fit`] with an explicit guard policy and fault
    /// plan (the fault plan injects deterministic failures for testing;
    /// pass [`FaultPlan::none`] in production).
    ///
    /// When training degrades or fails and
    /// [`GuardConfig::escalate_simplified_d`] is set, the synthesizer
    /// applies the paper's §5.2 remedy: it rebuilds with the simplified
    /// discriminator and refits (the fault plan re-arms for the new
    /// attempt).
    pub fn try_fit_with(
        table: &Table,
        config: &SynthesizerConfig,
        guard: &GuardConfig,
        faults: &FaultPlan,
    ) -> Result<FittedSynthesizer, TrainError> {
        Self::try_fit_inner(table, config, guard, faults, &CheckpointPlan::disabled(), None)
    }

    /// [`Synthesizer::try_fit_with`] plus crash-safe checkpoint/resume:
    /// when `ckpt` names a path, training state is written durably at
    /// epoch boundaries, and a rerun of the *same configuration* with
    /// the same path resumes from the latest valid checkpoint instead
    /// of starting over — bit-identical to an uninterrupted fit. The
    /// plan's fingerprint is stamped from `config` automatically, so a
    /// checkpoint left behind by a different configuration is ignored.
    ///
    /// An interrupted run (the plan's deterministic kill, standing in
    /// for a real crash) surfaces as [`TrainError::Interrupted`]; it is
    /// never escalated to a simplified-discriminator refit.
    pub fn try_fit_checkpointed(
        table: &Table,
        config: &SynthesizerConfig,
        guard: &GuardConfig,
        faults: &FaultPlan,
        ckpt: &CheckpointPlan,
    ) -> Result<FittedSynthesizer, TrainError> {
        Self::try_fit_inner(table, config, guard, faults, ckpt, None)
    }

    /// Fits a GAN synthesizer with validation-based model selection
    /// (§6.2): after training, every epoch snapshot generates a
    /// validation-sized synthetic table which `scorer` rates (higher is
    /// better); the best snapshot is loaded. Panics on [`TrainError`];
    /// see [`Synthesizer::try_fit_selected`].
    pub fn fit_selected(
        table: &Table,
        config: &SynthesizerConfig,
        scorer: impl FnMut(&Table) -> f64,
    ) -> FittedSynthesizer {
        Self::try_fit_selected(table, config, scorer)
            .unwrap_or_else(|e| panic!("synthesizer training failed: {e}"))
    }

    /// [`Synthesizer::fit_selected`] with a typed error instead of a
    /// panic, running under the default resilience policy.
    pub fn try_fit_selected(
        table: &Table,
        config: &SynthesizerConfig,
        scorer: impl FnMut(&Table) -> f64,
    ) -> Result<FittedSynthesizer, TrainError> {
        Self::try_fit_inner(
            table,
            config,
            &GuardConfig::default(),
            &FaultPlan::none(),
            &CheckpointPlan::disabled(),
            Some(Box::new(scorer)),
        )
    }

    #[allow(clippy::type_complexity)]
    fn try_fit_inner(
        table: &Table,
        config: &SynthesizerConfig,
        guard: &GuardConfig,
        faults: &FaultPlan,
        ckpt: &CheckpointPlan,
        mut scorer: Option<Box<dyn FnMut(&Table) -> f64 + '_>>,
    ) -> Result<FittedSynthesizer, TrainError> {
        let first = Self::fit_attempt(table, config, guard, faults, ckpt, scorer.as_deref_mut());
        let needs_escalation = match &first {
            Ok(f) => f.outcome.degraded,
            Err(TrainError::Unrecoverable { .. }) => true,
            Err(TrainError::InvalidConfig(_)) => false,
            // A deterministic kill is not a training failure: the rerun
            // resumes the same configuration, so escalating would both
            // waste the checkpoint and change the design point.
            Err(TrainError::Interrupted { .. }) => false,
            // Corrupt data underneath the trainer: retraining on the
            // same source would hit the same error.
            Err(TrainError::Data(_)) => false,
        };
        if needs_escalation && guard.escalate_simplified_d && !config.simplified_d {
            if daisy_telemetry::enabled() {
                let reason = match &first {
                    Ok(_) => "degraded",
                    Err(_) => "unrecoverable",
                };
                daisy_telemetry::emit(
                    schema::ESCALATE_SIMPLIFIED_D,
                    vec![field("reason", reason)],
                );
            }
            // The paper's other §5.2 remedy: shrink the discriminator so
            // it cannot saturate, and train again from scratch.
            let mut simplified = config.clone();
            simplified.simplified_d = true;
            match Self::fit_attempt(table, &simplified, guard, faults, ckpt, scorer.as_deref_mut())
            {
                Ok(mut second) => {
                    second.outcome.escalated_simplified_d = true;
                    // Keep the first attempt's trace so the full story
                    // survives in one report.
                    if let Err(TrainError::Unrecoverable { trace, .. }) = &first {
                        let mut merged = trace.clone();
                        merged.extend(second.outcome.recoveries.iter().copied());
                        second.outcome.recoveries = merged;
                    } else if let Ok(f) = &first {
                        let mut merged = f.outcome.recoveries.clone();
                        merged.extend(second.outcome.recoveries.iter().copied());
                        second.outcome.recoveries = merged;
                    }
                    Ok(second)
                }
                // The escalation also failed: fall back to the degraded
                // first attempt when one exists.
                Err(e2) => first.map_err(|_| e2),
            }
        } else {
            first
        }
    }

    #[allow(clippy::type_complexity)]
    fn fit_attempt(
        table: &Table,
        config: &SynthesizerConfig,
        guard: &GuardConfig,
        faults: &FaultPlan,
        ckpt: &CheckpointPlan,
        scorer: Option<&mut (dyn FnMut(&Table) -> f64 + '_)>,
    ) -> Result<FittedSynthesizer, TrainError> {
        daisy_telemetry::phase_scope!("fit");
        let invalid = |msg: &str| TrainError::InvalidConfig(msg.to_string());
        if table.n_rows() == 0 {
            return Err(invalid("cannot fit on an empty table"));
        }
        if daisy_telemetry::enabled() {
            daisy_telemetry::emit(
                schema::FIT_START,
                vec![
                    field("network", config.network.name()),
                    field("algorithm", config.train.name()),
                    field("rows", table.n_rows()),
                    field("seed", config.seed),
                    field("conditional", config.train.conditional),
                    field("simplified_d", config.simplified_d),
                ],
            );
        }
        let mut rng = Rng::seed_from_u64(config.seed);

        // Conditional mode strips the label from the generated record:
        // the label travels through the condition vector only (§5.3).
        let conditional = config.train.conditional;
        let label_col = table.schema().label();
        let label_categories = label_col
            .map(|j| match &table.columns()[j] {
                Column::Cat { categories, .. } => categories.clone(),
                Column::Num(_) => unreachable!("labels are categorical"),
            })
            .unwrap_or_default();
        let record_table = if conditional {
            let j = label_col.ok_or_else(|| invalid("conditional GAN requires a labeled table"))?;
            if config.network == NetworkKind::Cnn {
                return Err(invalid("the CNN family does not support conditional GAN"));
            }
            table.drop_column(j)
        } else {
            table.clone()
        };

        // Phase I: data transformation.
        let codec = match config.network {
            NetworkKind::Cnn => SampleCodec::Matrix(MatrixCodec::fit(&record_table)),
            _ => SampleCodec::Record(RecordCodec::fit(&record_table, &config.transform)),
        };
        let encoded = codec.encode_table(&record_table);
        // Labels (for conditions and label-aware sampling) still come
        // from the original table.
        let data = TrainingData::from_encoded(encoded, table);

        let cond_dim = if conditional {
            if data.n_classes() == 0 {
                return Err(invalid("conditional GAN requires a labeled table"));
            }
            data.n_classes()
        } else {
            0
        };

        // Networks.
        let blocks = codec.output_blocks();
        let spans = softmax_spans(&blocks);
        let generator = build_generator(config, &codec, cond_dim, &mut rng)
            .map_err(TrainError::InvalidConfig)?;
        let d_hidden = config.effective_d_hidden();
        let pac = config.train.pac.max(1);
        if pac > 1 && config.discriminator != DiscriminatorKind::Mlp {
            return Err(invalid("PacGAN packing requires the MLP discriminator"));
        }
        let discriminator: Box<dyn Discriminator> = match config.discriminator {
            DiscriminatorKind::Mlp => Box::new(MlpDiscriminator::with_dropout(
                codec.width() * pac,
                cond_dim,
                &d_hidden,
                config.d_dropout,
                &mut rng,
            )),
            DiscriminatorKind::Lstm => {
                assert!(
                    !blocks.is_empty(),
                    "LSTM discriminator requires vector-formed samples"
                );
                let hidden = d_hidden.first().copied().unwrap_or(64);
                Box::new(LstmDiscriminator::new(blocks, cond_dim, hidden, &mut rng))
            }
            DiscriminatorKind::Cnn => {
                let SampleCodec::Matrix(m) = &codec else {
                    panic!("CNN discriminator requires matrix-formed samples")
                };
                Box::new(CnnDiscriminator::new(
                    m.side(),
                    config.cnn_channels,
                    &mut rng,
                ))
            }
        };

        // Phase II: adversarial training under the resilience layer,
        // with durable checkpointing when the plan names a path. The
        // fingerprint ties every checkpoint to this exact configuration
        // (a simplified-D escalation changes `simplified_d`, hence the
        // fingerprint — each attempt only ever resumes its own state).
        let mut ckpt = ckpt.clone();
        ckpt.fingerprint = config_fingerprint(config);
        let resilient = train_gan_checkpointed(
            generator.as_ref(),
            discriminator.as_ref(),
            &data,
            &spans,
            &config.train,
            guard,
            faults,
            &ckpt,
            &mut rng,
        )?;

        let label_dist = data.label_distribution();
        let mut fitted = FittedSynthesizer {
            codec,
            generator,
            config: config.clone(),
            label_dist,
            label_col,
            output_schema: table.schema().clone(),
            label_categories,
            selected_epoch: 0,
            run: resilient.run,
            outcome: resilient.outcome,
        };
        let last = fitted.n_snapshots() - 1;
        fitted.load_snapshot(last);

        // Validation-based model selection over epoch snapshots.
        if let Some(scorer) = scorer {
            let sample_n = table.n_rows().clamp(64, 512);
            let mut best = (f64::NEG_INFINITY, last);
            for e in 0..fitted.n_snapshots() {
                let mut eval_rng = Rng::seed_from_u64(config.seed ^ 0x5e1ec7);
                let synthetic = fitted.generate_from_snapshot(e, sample_n, &mut eval_rng);
                let score = scorer(&synthetic);
                if daisy_telemetry::enabled() {
                    daisy_telemetry::emit(
                        schema::MODEL_SELECTION_SCORE,
                        vec![field("epoch", e), field("score", score)],
                    );
                }
                if score > best.0 {
                    best = (score, e);
                }
            }
            fitted.load_snapshot(best.1);
            if daisy_telemetry::enabled() {
                daisy_telemetry::emit(
                    schema::MODEL_SELECTED,
                    vec![field("epoch", best.1), field("score", best.0)],
                );
            }
        }
        if daisy_telemetry::enabled() {
            daisy_telemetry::emit(
                schema::FIT_END,
                vec![
                    field("completed_epochs", fitted.outcome.completed_epochs),
                    field("recoveries", fitted.outcome.recoveries.len()),
                    field("degraded", fitted.outcome.degraded),
                    field("escalated_wtrain", fitted.outcome.escalated_wtrain),
                    field("selected_epoch", fitted.selected_epoch),
                    field("clean", fitted.outcome.is_clean()),
                ],
            );
            // End-of-fit pool/kernel utilization and phase profile (wall
            // time per fit/epoch/... path, when DAISY_PROFILE is on). The
            // snapshot event is marked non-deterministic (counters depend
            // on the thread count), so `deterministic_view` drops it
            // wholesale.
            daisy_telemetry::emit_metrics_snapshot();
        }
        Ok(fitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::generator::test_support::tiny_table;

    fn quick_config(network: NetworkKind) -> SynthesizerConfig {
        let mut train = TrainConfig::vtrain(12);
        train.batch_size = 32;
        train.epochs = 3;
        let mut cfg = SynthesizerConfig::new(network, train);
        cfg.noise_dim = 8;
        cfg.g_hidden = vec![32];
        cfg.d_hidden = vec![32];
        cfg.cnn_channels = 4;
        cfg
    }

    #[test]
    fn mlp_end_to_end() {
        let table = tiny_table(300, 0);
        let fitted = Synthesizer::fit(&table, &quick_config(NetworkKind::Mlp));
        let mut rng = Rng::seed_from_u64(1);
        let synthetic = fitted.generate(100, &mut rng);
        assert_eq!(synthetic.n_rows(), 100);
        assert_eq!(synthetic.schema(), table.schema());
        assert_eq!(fitted.n_snapshots(), 3);
    }

    #[test]
    fn lstm_end_to_end() {
        let table = tiny_table(300, 2);
        let fitted = Synthesizer::fit(&table, &quick_config(NetworkKind::Lstm));
        let mut rng = Rng::seed_from_u64(3);
        let synthetic = fitted.generate(50, &mut rng);
        assert_eq!(synthetic.n_rows(), 50);
    }

    #[test]
    fn cnn_end_to_end() {
        let table = tiny_table(300, 4);
        let fitted = Synthesizer::fit(&table, &quick_config(NetworkKind::Cnn));
        let mut rng = Rng::seed_from_u64(5);
        let synthetic = fitted.generate(50, &mut rng);
        assert_eq!(synthetic.n_rows(), 50);
        assert_eq!(synthetic.n_attrs(), 3);
    }

    #[test]
    fn conditional_generation_matches_label_distribution() {
        let table = tiny_table(400, 6);
        let mut cfg = quick_config(NetworkKind::Mlp);
        cfg.train.conditional = true;
        cfg.train.label_aware = true;
        let fitted = Synthesizer::fit(&table, &cfg);
        let mut rng = Rng::seed_from_u64(7);
        let synthetic = fitted.generate(1000, &mut rng);
        let real_p1 = table.labels().iter().filter(|&&y| y == 1).count() as f64
            / table.n_rows() as f64;
        let syn_p1 = synthetic.labels().iter().filter(|&&y| y == 1).count() as f64 / 1000.0;
        assert!(
            (real_p1 - syn_p1).abs() < 0.1,
            "label distribution drifted: {real_p1} vs {syn_p1}"
        );
    }

    #[test]
    fn snapshot_selection_picks_scored_best() {
        let table = tiny_table(300, 8);
        // Scorer that prefers epoch 1's snapshot by construction: score
        // by a counter so the second evaluation wins.
        let mut calls = 0;
        let fitted = Synthesizer::fit_selected(&table, &quick_config(NetworkKind::Mlp), |_t| {
            calls += 1;
            if calls == 2 {
                10.0
            } else {
                0.0
            }
        });
        assert_eq!(fitted.selected_epoch(), 1);
    }

    #[test]
    fn an_epoch_snapshot_is_the_generator_as_it_stood_at_that_epoch() {
        // Epoch 0 of a 3-epoch fit (4 of 12 iterations) must be the
        // 1-epoch fit of 4 iterations: the same weights, the same
        // BatchNorm statistics, and so the same rows.
        let table = tiny_table(300, 30);
        let three = quick_config(NetworkKind::Mlp);
        assert!(three.g_batchnorm && (three.train.iterations, three.train.epochs) == (12, 3));
        let mut one = three.clone();
        (one.train.iterations, one.train.epochs) = (4, 1);
        let mut fitted = Synthesizer::fit(&table, &three);
        fitted.load_snapshot(0);
        let reference = Synthesizer::fit(&table, &one);
        let net = |f: &FittedSynthesizer| {
            let g = &f.generator;
            crate::train::NetState::capture(&g.params(), g.state())
        };
        let (epoch0, one_epoch) = (net(&fitted), net(&reference));
        assert_eq!(epoch0.params, one_epoch.params, "weights");
        assert!(!epoch0.state.is_empty());
        assert_eq!(epoch0.state, one_epoch.state, "BatchNorm statistics");
        let rows = |f: &FittedSynthesizer| f.generate(64, &mut Rng::seed_from_u64(31));
        assert_eq!(rows(&fitted), rows(&reference), "generated rows");
    }

    #[test]
    fn conditional_gan_learns_feature_label_dependence() {
        // x | y=0 ~ N(-2, 1), x | y=1 ~ N(+2, 1): after CTrain, the
        // generated x means must separate by the conditioned label.
        // This is the regression test for two historical failure modes:
        // the label block leaking into the record, and BatchNorm
        // cancelling constant-condition batches under label-aware
        // sampling.
        let table = tiny_table(600, 12);
        let mut cfg = quick_config(NetworkKind::Mlp);
        cfg.train = TrainConfig::ctrain(300);
        cfg.train.batch_size = 48;
        cfg.train.epochs = 3;
        cfg.g_hidden = vec![48];
        cfg.d_hidden = vec![48];
        let fitted = Synthesizer::fit(&table, &cfg);
        let mut rng = Rng::seed_from_u64(13);
        let synthetic = fitted.generate(1500, &mut rng);
        let xs = synthetic.column(0).as_num();
        let labels = synthetic.labels();
        let mean_by = |target: u32| {
            let vals: Vec<f64> = xs
                .iter()
                .zip(labels)
                .filter(|(_, &y)| y == target)
                .map(|(&v, _)| v)
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        let (m0, m1) = (mean_by(0), mean_by(1));
        assert!(
            m1 - m0 > 1.0,
            "conditional dependence not learned: mean(x|0)={m0:.2}, mean(x|1)={m1:.2}"
        );
    }

    #[test]
    fn generation_is_deterministic_given_seed() {
        let table = tiny_table(200, 9);
        let fitted = Synthesizer::fit(&table, &quick_config(NetworkKind::Mlp));
        let a = fitted.generate(20, &mut Rng::seed_from_u64(42));
        let b = fitted.generate(20, &mut Rng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    fn resilience_guard() -> GuardConfig {
        GuardConfig {
            check_weights_every: 1,
            probe_every: 0,
            warmup_steps: usize::MAX,
            divergence_factor: f32::INFINITY,
            ..GuardConfig::default()
        }
    }

    #[test]
    fn try_fit_recovers_from_injected_fault() {
        let table = tiny_table(300, 20);
        let fitted = Synthesizer::try_fit_with(
            &table,
            &quick_config(NetworkKind::Mlp),
            &resilience_guard(),
            &FaultPlan::nan_grad_at(6),
        )
        .expect("recovered fit");
        assert_eq!(fitted.outcome().recoveries.len(), 1);
        assert!(!fitted.outcome().degraded);
        // The recovered model still generates a full, valid table.
        let mut rng = Rng::seed_from_u64(21);
        let synthetic = fitted.generate(50, &mut rng);
        assert_eq!(synthetic.n_rows(), 50);
        assert_eq!(synthetic.schema(), table.schema());
    }

    #[test]
    fn try_fit_clean_run_has_clean_outcome() {
        let table = tiny_table(200, 22);
        let fitted = Synthesizer::try_fit(&table, &quick_config(NetworkKind::Mlp)).unwrap();
        assert!(fitted.outcome().is_clean());
    }

    #[test]
    fn unrecoverable_fault_is_an_error_not_a_panic() {
        let table = tiny_table(200, 24);
        let mut guard = resilience_guard();
        guard.max_recoveries = 0;
        guard.escalate_simplified_d = false;
        let Err(err) = Synthesizer::try_fit_with(
            &table,
            &quick_config(NetworkKind::Mlp),
            &guard,
            &FaultPlan::nan_grad_at(0),
        ) else {
            panic!("expected Unrecoverable");
        };
        assert!(matches!(err, crate::guard::TrainError::Unrecoverable { .. }));
    }

    #[test]
    fn degraded_run_returns_best_snapshot() {
        let table = tiny_table(300, 26);
        let mut guard = resilience_guard();
        guard.max_recoveries = 1;
        guard.escalate_wtrain = false;
        guard.escalate_simplified_d = false;
        // quick_config: 12 iterations over 3 epochs = 4 per epoch. The
        // second fault lands after epoch 1 exists but past the budget.
        let plan = FaultPlan::new(vec![
            crate::fault::Fault::NanGrad { step: 5 },
            crate::fault::Fault::NanGrad { step: 7 },
        ]);
        let fitted =
            Synthesizer::try_fit_with(&table, &quick_config(NetworkKind::Mlp), &guard, &plan)
                .expect("degraded but usable");
        assert!(fitted.outcome().degraded);
        assert!(fitted.outcome().completed_epochs >= 1);
        let mut rng = Rng::seed_from_u64(27);
        assert_eq!(fitted.generate(20, &mut rng).n_rows(), 20);
    }

    #[test]
    fn persistent_failure_escalates_to_simplified_d() {
        let table = tiny_table(300, 28);
        let mut guard = resilience_guard();
        guard.max_recoveries = 1;
        guard.escalate_wtrain = false;
        guard.escalate_simplified_d = true;
        let plan = FaultPlan::new(vec![
            crate::fault::Fault::NanGrad { step: 5 },
            crate::fault::Fault::NanGrad { step: 7 },
        ]);
        let fitted =
            Synthesizer::try_fit_with(&table, &quick_config(NetworkKind::Mlp), &guard, &plan)
                .expect("escalated fit");
        // The refit used the paper's simplified discriminator, and the
        // outcome records the escalation plus both attempts' traces.
        assert!(fitted.outcome().escalated_simplified_d);
        assert!(fitted.config().simplified_d);
        assert!(fitted.outcome().recoveries.len() >= 2);
    }

    #[test]
    fn lstm_discriminator_variant_trains() {
        let table = tiny_table(200, 10);
        let mut cfg = quick_config(NetworkKind::Mlp);
        cfg.discriminator = DiscriminatorKind::Lstm;
        let fitted = Synthesizer::fit(&table, &cfg);
        let mut rng = Rng::seed_from_u64(11);
        assert_eq!(fitted.generate(10, &mut rng).n_rows(), 10);
    }
}
