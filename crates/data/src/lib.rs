//! # daisy-data
//!
//! Relational tables and the reversible data transformations of the
//! paper's Phase I (§4): ordinal / one-hot encoding for categorical
//! attributes, simple / GMM-based normalization for numerical
//! attributes, and vector- or matrix-formed sample assembly.
//!
//! ```
//! use daisy_data::{
//!     Attribute, Column, RecordCodec, Schema, Table, TransformConfig,
//! };
//!
//! let schema = Schema::new(vec![
//!     Attribute::numerical("age"),
//!     Attribute::categorical("income"),
//! ]);
//! let table = Table::new(schema, vec![
//!     Column::Num(vec![38.0, 51.0, 27.0]),
//!     Column::cat_with_domain(vec![0, 1, 0], 2),
//! ]);
//! let codec = RecordCodec::fit(&table, &TransformConfig::gn_ht());
//! let samples = codec.encode_table(&table);          // [3, d]
//! let restored = codec.decode_table(&samples);        // fake records
//! assert_eq!(restored.n_rows(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod error;
pub mod gmm;
pub mod ingest;
pub mod schema;
pub mod source;
pub mod store;
pub mod table;
pub mod transform;
pub mod value;

pub use error::DataError;
pub use gmm::Gmm1d;
pub use ingest::{ingest_csv, IngestConfig, IngestReport, RowErrorPolicy};
pub use schema::Schema;
pub use source::{ChunkSource, TableChunks};
pub use store::ChunkStore;
pub use table::{Column, Table, TableBuilder};
pub use transform::{
    one_hot_labels, AttributeCodec, CategoricalEncoding, MatrixCellParam, MatrixCodec,
    NumericalNormalization,
    OutputBlock, OutputBlockKind, RecordCodec, TransformConfig,
};
pub use value::{AttrType, Attribute, Value};
