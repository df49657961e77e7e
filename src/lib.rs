//! # Daisy-RS
//!
//! A pure-Rust reproduction of *"Relational Data Synthesis using
//! Generative Adversarial Networks: A Design Space Exploration"*
//! (Fan, Liu, Li, Chen, Shen, Du — PVLDB 13(11), 2020).
//!
//! The workspace implements the paper's unified GAN framework, the full
//! design space (MLP / LSTM / CNN networks, ordinal / one-hot and
//! simple / GMM transformations, VTrain / WTrain / CTrain / DPTrain),
//! the VAE and PrivBayes baselines, the evaluation stack
//! (classification, clustering, AQP, privacy risk), and every dataset
//! family of the study — on a from-scratch tensor/autodiff substrate.
//!
//! This crate re-exports the member crates under stable names:
//!
//! ```
//! use daisy::prelude::*;
//!
//! let table = daisy::datasets::SDataNum {
//!     correlation: 0.5,
//!     skew: daisy::datasets::Skew::Balanced,
//! }
//! .generate(600, 0);
//! let mut rng = Rng::seed_from_u64(1);
//! let (train, _valid, _test) = table.split_train_valid_test(&mut rng);
//! let mut tc = TrainConfig::vtrain(10);
//! tc.epochs = 2;
//! let mut config = SynthesizerConfig::new(NetworkKind::Mlp, tc);
//! config.g_hidden = vec![32];
//! config.d_hidden = vec![32];
//! let fitted = Synthesizer::fit(&train, &config);
//! let synthetic = fitted.generate(100, &mut rng);
//! assert_eq!(synthetic.n_rows(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use daisy_baselines as baselines;
pub use daisy_core as core;
pub use daisy_data as data;
pub use daisy_datasets as datasets;
pub use daisy_eval as eval;
pub use daisy_nn as nn;
pub use daisy_serve as serve;
pub use daisy_telemetry as telemetry;
pub use daisy_tensor as tensor;
pub use daisy_wire as wire;

/// The most commonly used types, in one import.
pub mod prelude {
    pub use daisy_baselines::{IndependentMarginals, PrivBayes, PrivBayesConfig, Vae, VaeConfig};
    pub use daisy_core::{
        CheckpointError, CheckpointPlan, DiscriminatorKind, DpConfig, FaultPlan,
        FittedSynthesizer, GuardConfig, LossKind, NetworkKind, Synthesizer, SynthesizerConfig,
        TableSynthesizer, TrainConfig, TrainError, TrainOutcome,
    };
    pub use daisy_data::{
        Attribute, Column, DataError, RecordCodec, Schema, Table, TransformConfig, Value,
    };
    pub use daisy_eval::{classifier_zoo, classification_utility, clustering_utility};
    pub use daisy_serve::{Request, ServeConfig, ServeError, Server};
    pub use daisy_tensor::{Rng, Tensor};
    pub use daisy_wire::IoFaultPlan;
}
