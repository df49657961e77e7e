//! # daisy-core
//!
//! The unified GAN-based relational data synthesis framework of
//! *"Relational Data Synthesis using Generative Adversarial Networks: A
//! Design Space Exploration"* (Fan et al., PVLDB 2020): generators and
//! discriminators for the MLP / LSTM / CNN families, the four training
//! algorithms of Table 1 (VTrain, WTrain, CTrain, DPTrain), conditional
//! GAN with label-aware sampling, the simplified-discriminator
//! mode-collapse remedy, and epoch-snapshot model selection.
//!
//! ```no_run
//! use daisy_core::{NetworkKind, Synthesizer, SynthesizerConfig, TrainConfig};
//! # let table: daisy_data::Table = unimplemented!();
//!
//! let config = SynthesizerConfig::new(NetworkKind::Lstm, TrainConfig::vtrain(2000));
//! let fitted = Synthesizer::fit(&table, &config);
//! let mut rng = daisy_tensor::Rng::seed_from_u64(0);
//! let synthetic = fitted.generate(table.n_rows(), &mut rng);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod diagnostics;
pub mod discriminator;
pub mod fault;
pub mod generator;
pub mod guard;
pub mod model_selection;
pub mod output_head;
pub mod persist;
pub mod row_stream;
pub mod sampler;
pub mod synthesizer;
pub mod train;

pub use checkpoint::{config_fingerprint, scratch_path, CheckpointError, CheckpointPlan};
pub use config::{
    DiscriminatorKind, DpConfig, LossKind, NetworkKind, SynthesizerConfig, TrainConfig,
};
pub use diagnostics::{duplicate_fraction, encoded_duplicate_fraction, is_collapsed};
pub use discriminator::{CnnDiscriminator, Discriminator, LstmDiscriminator, MlpDiscriminator};
pub use fault::{Fault, FaultPlan};
pub use generator::{CnnGenerator, Generator, LstmGenerator, MlpGenerator};
pub use guard::{
    GuardConfig, RecoveryAction, RecoveryEvent, TrainError, TrainGuard, TrainOutcome, TripReason,
};
pub use model_selection::{default_candidates, HyperParams};
pub use persist::PersistError;
pub use row_stream::RowStream;
pub use sampler::{BatchSource, Minibatch, TrainingData};
pub use synthesizer::{FittedSynthesizer, SampleCodec, Synthesizer, TableSynthesizer};
pub use train::{
    train_gan, train_gan_checkpointed, train_gan_resilient, EpochStats, NetState, ResilientRun,
    TrainingRun,
};
