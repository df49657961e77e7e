//! The `Sampler` component of the framework (Figure 2): draws real
//! minibatches, either uniformly at random or label-aware (every label
//! gets dedicated minibatches — the CTrain remedy for skewed label
//! distributions, §5.3).
//!
//! [`TrainingData`] is the one sampler, over two storage layouts:
//!
//! - **resident** ([`TrainingData::from_table`],
//!   [`TrainingData::from_encoded`]): the encoded `[n, d]` matrix;
//! - **chunk-backed** ([`TrainingData::from_chunks`]): raw rows behind a
//!   [`ChunkSource`] — a sealed [`ChunkStore`](daisy_data::ChunkStore)
//!   or any chunked backend — encoded batch by batch with a fitted
//!   [`RecordCodec`], so training streams from disk instead of
//!   materializing the encoded matrix.
//!
//! The label index and the row draws exist once; only the step that
//! turns drawn row indices into an encoded `[m, d]` tensor depends on
//! the layout.
//!
//! ## Bit-determinism contract
//!
//! Both layouts draw row indices with the same arithmetic — one
//! `rng.usize(n_rows)` per sampled row, label groups built in row
//! order — and a chunk-backed batch encodes its drawn rows with the
//! fitted codec, row by row. Since every row encodes independently of
//! its neighbours, chunk-backed minibatches are bit-identical to
//! resident ones over the same rows and codec for the same seed,
//! whatever the chunking and whatever `DAISY_THREADS` says. The
//! chunk-vs-resident equality tests below and the integration suite
//! pin this down.
//!
//! ## Memory profile
//!
//! Both layouts hold the label column (4 bytes/row) plus the label
//! group index (8 bytes/row). Only the resident layout holds the
//! encoded matrix (`4 * width` bytes/row, typically 50–100× larger). A
//! chunk-backed batch fetches each chunk it references once, through
//! the source; a [`ChunkStore`](daisy_data::ChunkStore) backend caches
//! decoded chunks under the `DAISY_MEM_BUDGET` ceiling.
//!
//! ## Failure semantics
//!
//! Resident sampling never fails. [`TrainingData::from_chunks`] reads
//! every chunk once, so corruption present at startup, and chunks that
//! do not partition the source's rows, surface as a typed
//! [`DataError`] before any training step runs. A chunk that rots
//! *after* that (detected by the store's CRC frames on a later read)
//! fails the batch draw; the trainer maps it to
//! [`TrainError::Data`](crate::guard::TrainError::Data) — data-plane
//! damage is never absorbed by the recovery policy and never panics.

use daisy_data::{one_hot_labels, ChunkSource, DataError, RecordCodec, Table};
use daisy_tensor::{Rng, Tensor};

/// What the training algorithms need from real data: batch sampling
/// plus label metadata. [`TrainingData`] implements it for both storage
/// layouts; the trainer takes `&dyn BatchSource`, so a wrapper (a
/// timing shim, say) can interpose without touching the training code
/// path.
///
/// Sampling is fallible because a disk-backed source can hit
/// corruption mid-training; resident data simply never returns `Err`.
pub trait BatchSource {
    /// Number of records.
    fn n_rows(&self) -> usize;
    /// Encoded sample width.
    fn width(&self) -> usize;
    /// Label domain size (0 when unlabeled).
    fn n_classes(&self) -> usize;
    /// Empirical label distribution (probabilities by label code).
    fn label_distribution(&self) -> Vec<f64>;
    /// Uniformly random minibatch (the `random` sampling strategy).
    fn sample_random(
        &self,
        batch: usize,
        with_conditions: bool,
        rng: &mut Rng,
    ) -> Result<Minibatch, DataError>;
    /// Label-aware minibatch: all rows share the target label
    /// (Algorithm 3).
    fn sample_with_label(
        &self,
        label: u32,
        batch: usize,
        rng: &mut Rng,
    ) -> Result<Minibatch, DataError>;
}

/// Real training rows plus label metadata, shared by the training
/// algorithms. See the module docs for the two storage layouts and
/// their determinism, memory and failure contracts.
pub struct TrainingData<'a> {
    rows: Rows<'a>,
    /// Per-row label codes (present iff the data has a label column).
    labels: Option<Vec<u32>>,
    /// Label domain size (0 when unlabeled).
    n_classes: usize,
    /// Row indices grouped by label.
    label_groups: Vec<Vec<usize>>,
}

/// Where the rows live: the one part of [`TrainingData`] that depends
/// on the storage layout.
enum Rows<'a> {
    /// Encoded (flattened) samples `[n, d]`.
    Resident(Tensor),
    /// Raw rows behind a chunk source, encoded per batch.
    Chunked {
        source: &'a dyn ChunkSource,
        codec: &'a RecordCodec,
    },
}

/// A real minibatch: encoded samples plus (for conditional training)
/// the one-hot condition matrix of their labels.
pub struct Minibatch {
    /// Encoded samples `[m, d]`.
    pub samples: Tensor,
    /// One-hot labels `[m, k]`, when labels exist.
    pub conditions: Option<Tensor>,
    /// Raw label codes of the batch.
    pub labels: Option<Vec<u32>>,
}

impl TrainingData<'static> {
    /// Encodes a table with the given codec. Labels are taken from the
    /// table's designated label column when present.
    pub fn from_table(table: &Table, codec: &RecordCodec) -> Self {
        Self::from_encoded(codec.encode_table(table), table)
    }

    /// Wraps pre-encoded samples (used by the matrix-form pipeline,
    /// where encoding happens through `MatrixCodec`).
    pub fn from_encoded(samples: Tensor, table: &Table) -> Self {
        assert_eq!(samples.rows(), table.n_rows(), "row count mismatch");
        let labels = table
            .schema()
            .label()
            .map(|_| (table.labels().to_vec(), table.n_classes()));
        TrainingData::new(Rows::Resident(samples), labels)
    }
}

impl<'a> TrainingData<'a> {
    /// Wraps `source`, whose rows each batch encodes with `codec`; the
    /// codec must already be fitted (e.g. via
    /// [`RecordCodec::fit_chunks`]) on the same logical table. Reads
    /// every chunk once, to collect the label column and to check that
    /// the chunks partition the rows as [`ChunkSource`] promises: every
    /// chunk but the last holds exactly `chunk_rows` rows, the last at
    /// most that, and together they hold `n_rows`. Any other layout is
    /// a [`DataError::BadPartition`].
    pub fn from_chunks(
        source: &'a dyn ChunkSource,
        codec: &'a RecordCodec,
    ) -> Result<Self, DataError> {
        assert_eq!(
            source.schema(),
            codec.schema(),
            "codec fitted on another schema"
        );
        let (n_chunks, chunk_rows) = (source.n_chunks(), source.chunk_rows());
        let labeled = source.schema().label().is_some();
        // Grown from validated chunks, not pre-sized from `n_rows`: a
        // corrupt row count must end in a typed error, not in an
        // allocation failure.
        let mut labels: Vec<u32> = Vec::new();
        let mut n_classes = 0usize;
        let mut total = 0usize;
        for k in 0..n_chunks {
            let chunk = source.chunk(k)?;
            let rows = chunk.n_rows();
            if rows > chunk_rows || (rows < chunk_rows && k + 1 < n_chunks) {
                return Err(DataError::BadPartition {
                    detail: format!(
                        "chunk {k} of {n_chunks} holds {rows} rows, chunk_rows is {chunk_rows}"
                    ),
                });
            }
            total += rows;
            if labeled {
                n_classes = n_classes.max(chunk.n_classes());
                labels.extend_from_slice(chunk.labels());
            }
        }
        if total != source.n_rows() {
            return Err(DataError::BadPartition {
                detail: format!(
                    "chunks hold {total} rows, the source declares {}",
                    source.n_rows()
                ),
            });
        }
        let labels = labeled.then_some((labels, n_classes));
        Ok(TrainingData::new(Rows::Chunked { source, codec }, labels))
    }

    /// Indexes the label column, `(codes, domain size)`, by label.
    fn new(rows: Rows<'a>, labels: Option<(Vec<u32>, usize)>) -> Self {
        let (labels, n_classes, label_groups) = match labels {
            Some((labels, n_classes)) => {
                let mut groups = vec![Vec::new(); n_classes];
                for (i, &y) in labels.iter().enumerate() {
                    groups[y as usize].push(i);
                }
                (Some(labels), n_classes, groups)
            }
            None => (None, 0, Vec::new()),
        };
        TrainingData {
            rows,
            labels,
            n_classes,
            label_groups,
        }
    }

    fn assemble(&self, idx: &[usize], with_conditions: bool) -> Result<Minibatch, DataError> {
        let samples = match &self.rows {
            Rows::Resident(samples) => samples.gather_rows(idx),
            Rows::Chunked { source, codec } => encode_rows(*source, codec, idx)?,
        };
        let labels = self
            .labels
            .as_ref()
            .map(|l| idx.iter().map(|&i| l[i]).collect::<Vec<u32>>());
        let conditions = if with_conditions {
            labels
                .as_ref()
                .map(|l| one_hot_labels(l, self.n_classes))
        } else {
            None
        };
        Ok(Minibatch {
            samples,
            conditions,
            labels,
        })
    }
}

/// Encodes the given global rows of `source`, in order, into an
/// `[m, d]` tensor. Each referenced chunk is fetched exactly once.
fn encode_rows(
    source: &dyn ChunkSource,
    codec: &RecordCodec,
    idx: &[usize],
) -> Result<Tensor, DataError> {
    let chunk_rows = source.chunk_rows();
    let mut ks: Vec<usize> = idx.iter().map(|&i| i / chunk_rows).collect();
    ks.sort_unstable();
    ks.dedup();
    let chunks = ks
        .iter()
        .map(|&k| source.chunk(k))
        .collect::<Result<Vec<_>, _>>()?;
    let mut out = Tensor::zeros(&[idx.len(), codec.width()]);
    for (r, &i) in idx.iter().enumerate() {
        let k = ks
            .binary_search(&(i / chunk_rows))
            .expect("chunk fetched above");
        codec.encode_row(&chunks[k].row(i % chunk_rows), out.row_mut(r));
    }
    Ok(out)
}

impl BatchSource for TrainingData<'_> {
    fn n_rows(&self) -> usize {
        match &self.rows {
            Rows::Resident(samples) => samples.rows(),
            Rows::Chunked { source, .. } => source.n_rows(),
        }
    }

    fn width(&self) -> usize {
        match &self.rows {
            Rows::Resident(samples) => samples.cols(),
            Rows::Chunked { codec, .. } => codec.width(),
        }
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn label_distribution(&self) -> Vec<f64> {
        let n = self.n_rows().max(1) as f64;
        self.label_groups
            .iter()
            .map(|g| g.len() as f64 / n)
            .collect()
    }

    fn sample_random(
        &self,
        batch: usize,
        with_conditions: bool,
        rng: &mut Rng,
    ) -> Result<Minibatch, DataError> {
        let n = self.n_rows();
        let idx: Vec<usize> = (0..batch).map(|_| rng.usize(n)).collect();
        self.assemble(&idx, with_conditions)
    }

    /// Falls back to random sampling when the label has no rows.
    fn sample_with_label(
        &self,
        label: u32,
        batch: usize,
        rng: &mut Rng,
    ) -> Result<Minibatch, DataError> {
        assert!(
            (label as usize) < self.n_classes,
            "label {label} out of domain {}",
            self.n_classes
        );
        let group = &self.label_groups[label as usize];
        if group.is_empty() {
            return self.sample_random(batch, true, rng);
        }
        let idx: Vec<usize> = (0..batch).map(|_| group[rng.usize(group.len())]).collect();
        self.assemble(&idx, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::discriminator::MlpDiscriminator;
    use crate::generator::test_support::tiny_table;
    use crate::generator::MlpGenerator;
    use crate::guard::TrainError;
    use crate::output_head::softmax_spans;
    use crate::train::train_gan;
    use daisy_data::{TableChunks, TransformConfig};
    use std::cell::Cell;
    use std::sync::Arc;

    fn data(seed: u64) -> TrainingData<'static> {
        let table = tiny_table(300, seed);
        let codec = RecordCodec::fit(&table, &TransformConfig::sn_ht());
        TrainingData::from_table(&table, &codec)
    }

    fn unlabeled(table: &Table) -> Table {
        Table::new(table.schema().without_label(), table.columns().to_vec())
    }

    #[test]
    fn random_batches_have_requested_size() {
        let d = data(0);
        let mut rng = Rng::seed_from_u64(1);
        let b = d.sample_random(32, true, &mut rng).unwrap();
        assert_eq!(b.samples.shape(), &[32, d.width()]);
        assert_eq!(b.conditions.as_ref().unwrap().shape(), &[32, 2]);
        assert_eq!(b.labels.as_ref().unwrap().len(), 32);
    }

    #[test]
    fn label_aware_batches_are_pure() {
        let d = data(2);
        let mut rng = Rng::seed_from_u64(3);
        for y in 0..2u32 {
            let b = d.sample_with_label(y, 20, &mut rng).unwrap();
            assert!(b.labels.unwrap().iter().all(|&l| l == y));
        }
    }

    #[test]
    fn label_distribution_sums_to_one() {
        let d = data(4);
        let dist = d.label_distribution();
        assert_eq!(dist.len(), 2);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn conditions_match_labels() {
        let d = data(5);
        let mut rng = Rng::seed_from_u64(6);
        let b = d.sample_random(16, true, &mut rng).unwrap();
        let cond = b.conditions.unwrap();
        for (i, &y) in b.labels.unwrap().iter().enumerate() {
            assert_eq!(cond.at2(i, y as usize), 1.0);
        }
    }

    #[test]
    fn unlabeled_table_yields_no_conditions() {
        let table = unlabeled(&tiny_table(50, 7));
        let codec = RecordCodec::fit(&table, &TransformConfig::sn_ht());
        let d = TrainingData::from_table(&table, &codec);
        assert_eq!(d.n_classes(), 0);
        let mut rng = Rng::seed_from_u64(8);
        let b = d.sample_random(8, true, &mut rng).unwrap();
        assert!(b.conditions.is_none());
    }

    // ----- chunk-backed rows -----

    fn all_configs() -> [TransformConfig; 4] {
        [
            TransformConfig::sn_od(),
            TransformConfig::sn_ht(),
            TransformConfig::gn_od(),
            TransformConfig::gn_ht(),
        ]
    }

    fn fixtures(
        chunk_rows: usize,
        config: &TransformConfig,
    ) -> (TableChunks, RecordCodec, TrainingData<'static>) {
        let table = tiny_table(300, 9);
        let codec = RecordCodec::fit(&table, config);
        let resident = TrainingData::from_table(&table, &codec);
        (TableChunks::new(table, chunk_rows), codec, resident)
    }

    fn assert_batches_equal(a: &Minibatch, b: &Minibatch) {
        assert_eq!(a.samples.shape(), b.samples.shape());
        assert_eq!(a.samples.data(), b.samples.data());
        assert_eq!(a.labels, b.labels);
        match (&a.conditions, &b.conditions) {
            (Some(x), Some(y)) => assert_eq!(x.data(), y.data()),
            (None, None) => {}
            _ => panic!("condition presence mismatch"),
        }
    }

    #[test]
    fn random_batches_match_in_memory_bitwise() {
        for config in all_configs() {
            let (chunks, codec, resident) = fixtures(32, &config);
            let streamed = TrainingData::from_chunks(&chunks, &codec).unwrap();
            assert_eq!(streamed.n_rows(), resident.n_rows());
            assert_eq!(streamed.width(), resident.width());
            assert_eq!(streamed.n_classes(), resident.n_classes());
            assert_eq!(streamed.label_distribution(), resident.label_distribution());
            let mut rng_a = Rng::seed_from_u64(11);
            let mut rng_b = Rng::seed_from_u64(11);
            for _ in 0..5 {
                let a = streamed.sample_random(48, true, &mut rng_a).unwrap();
                let b = resident.sample_random(48, true, &mut rng_b).unwrap();
                assert_batches_equal(&a, &b);
            }
        }
    }

    #[test]
    fn label_aware_batches_match_in_memory_bitwise() {
        for config in all_configs() {
            let (chunks, codec, resident) = fixtures(17, &config); // ragged final chunk
            let streamed = TrainingData::from_chunks(&chunks, &codec).unwrap();
            let mut rng_a = Rng::seed_from_u64(12);
            let mut rng_b = Rng::seed_from_u64(12);
            for y in 0..2u32 {
                let a = streamed.sample_with_label(y, 24, &mut rng_a).unwrap();
                let b = resident.sample_with_label(y, 24, &mut rng_b).unwrap();
                assert_batches_equal(&a, &b);
                assert!(a.labels.unwrap().iter().all(|&l| l == y));
            }
        }
    }

    #[test]
    fn chunked_training_is_bit_identical_to_in_memory() {
        let cfg = TrainConfig {
            iterations: 6,
            batch_size: 16,
            epochs: 2,
            ..TrainConfig::vtrain(6)
        };
        let run = |data: &dyn BatchSource, codec: &RecordCodec| {
            let mut rng = Rng::seed_from_u64(13);
            let g = MlpGenerator::new(8, 0, &[24], codec.output_blocks(), &mut rng);
            let d = MlpDiscriminator::new(codec.width(), 0, &[24], &mut rng);
            let spans = softmax_spans(&codec.output_blocks());
            let run = train_gan(&g, &d, data, &spans, &cfg, &mut rng).unwrap();
            run.snapshots
                .last()
                .unwrap()
                .params
                .iter()
                .flat_map(|t| t.data().to_vec())
                .collect::<Vec<f32>>()
        };
        let (chunks, codec, resident) = fixtures(32, &TransformConfig::sn_ht());
        let streamed = TrainingData::from_chunks(&chunks, &codec).unwrap();
        assert_eq!(run(&streamed, &codec), run(&resident, &codec));
    }

    /// A source that starts failing after a fixed number of chunk
    /// reads: the construction scan succeeds, then a mid-training read
    /// fails — the trainer must surface a typed `TrainError::Data`,
    /// not a panic.
    struct FlakySource {
        inner: TableChunks,
        reads_left: Cell<usize>,
    }

    impl ChunkSource for FlakySource {
        fn schema(&self) -> &daisy_data::Schema {
            self.inner.schema()
        }
        fn n_rows(&self) -> usize {
            self.inner.n_rows()
        }
        fn n_chunks(&self) -> usize {
            self.inner.n_chunks()
        }
        fn chunk_rows(&self) -> usize {
            self.inner.chunk_rows()
        }
        fn chunk(&self, k: usize) -> Result<Arc<Table>, DataError> {
            if self.reads_left.get() == 0 {
                return Err(DataError::CorruptChunk {
                    path: format!("chunk-{k:06}.dch").into(),
                    detail: "simulated bit rot".to_string(),
                });
            }
            self.reads_left.set(self.reads_left.get() - 1);
            self.inner.chunk(k)
        }
    }

    #[test]
    fn mid_training_corruption_is_a_typed_error() {
        let (chunks, codec, _) = fixtures(32, &TransformConfig::sn_ht());
        let n_chunks = chunks.n_chunks();
        let flaky = FlakySource {
            inner: chunks,
            // Enough reads for the construction scan plus a couple of
            // batches, then hard failure.
            reads_left: Cell::new(n_chunks + 4),
        };
        let streamed = TrainingData::from_chunks(&flaky, &codec).unwrap();
        let cfg = TrainConfig {
            iterations: 40,
            batch_size: 16,
            epochs: 2,
            ..TrainConfig::vtrain(40)
        };
        let mut rng = Rng::seed_from_u64(14);
        let g = MlpGenerator::new(8, 0, &[24], codec.output_blocks(), &mut rng);
        let d = MlpDiscriminator::new(codec.width(), 0, &[24], &mut rng);
        let spans = softmax_spans(&codec.output_blocks());
        let Err(err) = train_gan(&g, &d, &streamed, &spans, &cfg, &mut rng) else {
            panic!("expected TrainError::Data");
        };
        assert!(matches!(err, TrainError::Data(ref m) if m.contains("bit rot")));
    }

    #[test]
    fn corruption_at_construction_is_a_typed_error() {
        let (chunks, codec, _) = fixtures(32, &TransformConfig::sn_ht());
        let flaky = FlakySource {
            inner: chunks,
            reads_left: Cell::new(1),
        };
        assert!(matches!(
            TrainingData::from_chunks(&flaky, &codec),
            Err(DataError::CorruptChunk { .. })
        ));
    }

    /// A source that declares `n_rows` rows in `chunk_rows`-row chunks
    /// but whose chunks hold `sizes[k]` consecutive rows of `table`.
    struct LayoutSource {
        table: Table,
        n_rows: usize,
        chunk_rows: usize,
        sizes: Vec<usize>,
    }

    impl ChunkSource for LayoutSource {
        fn schema(&self) -> &daisy_data::Schema {
            self.table.schema()
        }
        fn n_rows(&self) -> usize {
            self.n_rows
        }
        fn n_chunks(&self) -> usize {
            self.sizes.len()
        }
        fn chunk_rows(&self) -> usize {
            self.chunk_rows
        }
        fn chunk(&self, k: usize) -> Result<Arc<Table>, DataError> {
            let lo: usize = self.sizes[..k].iter().sum();
            let rows: Vec<usize> = (lo..lo + self.sizes[k]).collect();
            Ok(Arc::new(self.table.select_rows(&rows)))
        }
    }

    /// Chunks that do not partition the declared rows end in a typed
    /// error at construction, never in a panic mid-training.
    #[test]
    fn chunks_that_do_not_partition_the_rows_are_a_typed_error() {
        let table = unlabeled(&tiny_table(16, 15));
        let codec = RecordCodec::fit(&table, &TransformConfig::sn_ht());
        let source = |sizes: &[usize]| LayoutSource {
            table: table.clone(),
            n_rows: 13,
            chunk_rows: 8,
            sizes: sizes.to_vec(),
        };
        // 13 rows in 8-row chunks: a short first chunk, an oversized
        // first chunk, more rows than declared, and a short middle one.
        for sizes in [&[5, 5][..], &[9, 4], &[8, 8], &[8, 5, 0]] {
            let source = source(sizes);
            let drawn = TrainingData::from_chunks(&source, &codec).and_then(|d| {
                d.sample_random(64, false, &mut Rng::seed_from_u64(16))
                    .map(|_| ())
            });
            assert!(
                matches!(drawn, Err(DataError::BadPartition { .. })),
                "{sizes:?}: expected BadPartition"
            );
        }
        // The partition the contract describes samples fine.
        let source = source(&[8, 5]);
        let data = TrainingData::from_chunks(&source, &codec).unwrap();
        let batch = data
            .sample_random(64, false, &mut Rng::seed_from_u64(16))
            .unwrap();
        assert_eq!(batch.samples.shape(), &[64, codec.width()]);
    }
}
