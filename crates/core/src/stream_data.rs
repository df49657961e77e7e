//! Out-of-core training data: a [`BatchSource`] over a
//! [`ChunkSource`], so training streams minibatches from a sealed
//! [`ChunkStore`](daisy_data::ChunkStore) (or any chunked backend)
//! instead of materializing the encoded `[n, d]` matrix.
//!
//! ## Bit-determinism contract
//!
//! [`ChunkedTrainingData`] draws row indices with exactly the same
//! arithmetic as [`TrainingData`](crate::sampler::TrainingData) — one
//! `rng.usize(n_rows)` per sampled row, label groups built in row
//! order — and encodes the drawn rows with the same fitted codec, row
//! by row. Since every row encodes independently of its neighbours,
//! the produced minibatches are bit-identical to the in-memory path
//! for the same seed, whatever the chunking and whatever
//! `DAISY_THREADS` says. The chunked-vs-resident equality tests below
//! and the integration suite pin this down.
//!
//! ## Memory profile
//!
//! Resident state is the label column (4 bytes/row) plus the label
//! group index (8 bytes/row) — not the encoded matrix (`4 * width`
//! bytes/row, typically 50–100× larger). Chunk payloads are fetched
//! through the source on demand; a [`ChunkStore`](daisy_data::ChunkStore)
//! backend caches decoded chunks under the `DAISY_MEM_BUDGET` ceiling.
//!
//! ## Failure semantics
//!
//! Construction reads every chunk once, so corruption present at
//! startup surfaces as a typed [`DataError`] before any training step
//! runs. A chunk that rots *after* that (detected by the store's CRC
//! frames on a later read) fails the batch draw; the trainer maps it
//! to [`TrainError::Data`](crate::guard::TrainError::Data) — data-plane
//! damage is never absorbed by the recovery policy and never panics.

use crate::sampler::{BatchSource, Minibatch};
use daisy_data::{one_hot_labels, AttrType, ChunkSource, Column, DataError, RecordCodec, Table};
use daisy_tensor::Rng;
use std::sync::Arc;

/// Label metadata plus chunk-granular row gathering over a
/// [`ChunkSource`]. See the module docs for the determinism, memory
/// and failure contracts.
pub struct ChunkedTrainingData<'a> {
    source: &'a dyn ChunkSource,
    codec: &'a RecordCodec,
    chunk_rows: usize,
    n_rows: usize,
    /// Per-row label codes (present iff the schema has a label).
    labels: Option<Vec<u32>>,
    /// Label domain size (0 when unlabeled).
    n_classes: usize,
    /// Row indices grouped by label.
    label_groups: Vec<Vec<usize>>,
}

impl<'a> ChunkedTrainingData<'a> {
    /// Wraps `source`, scanning every chunk once to validate it and to
    /// collect the label column. `codec` must already be fitted (e.g.
    /// via [`RecordCodec::fit_chunks`]) on the same logical table.
    pub fn new(
        source: &'a dyn ChunkSource,
        codec: &'a RecordCodec,
    ) -> Result<ChunkedTrainingData<'a>, DataError> {
        let n_rows = source.n_rows();
        let labeled = source.schema().label().is_some();
        // Grown from validated chunks, not pre-sized from `n_rows`: a
        // corrupt row count must end in the chunk's typed error, not in
        // an allocation failure.
        let mut labels: Vec<u32> = Vec::new();
        let mut n_classes = 0usize;
        for k in 0..source.n_chunks() {
            let chunk = source.chunk(k)?;
            if labeled {
                n_classes = n_classes.max(chunk.n_classes());
                labels.extend_from_slice(chunk.labels());
            }
        }
        let (labels, label_groups) = if labeled {
            debug_assert_eq!(labels.len(), n_rows, "chunks do not partition the rows");
            let mut groups = vec![Vec::new(); n_classes];
            for (i, &y) in labels.iter().enumerate() {
                groups[y as usize].push(i);
            }
            (Some(labels), groups)
        } else {
            (None, Vec::new())
        };
        Ok(ChunkedTrainingData {
            source,
            codec,
            chunk_rows: source.chunk_rows(),
            n_rows,
            labels,
            n_classes,
            label_groups,
        })
    }

    /// Gathers the given global rows (in order) into one small table.
    /// Each referenced chunk is fetched exactly once per call.
    fn gather(&self, idx: &[usize]) -> Result<Table, DataError> {
        let mut ks: Vec<usize> = idx.iter().map(|&i| i / self.chunk_rows).collect();
        ks.sort_unstable();
        ks.dedup();
        let mut chunks: Vec<(usize, Arc<Table>)> = Vec::with_capacity(ks.len());
        for &k in &ks {
            chunks.push((k, self.source.chunk(k)?));
        }
        let chunk_of = |i: usize| -> &Table {
            let k = i / self.chunk_rows;
            let p = chunks
                .binary_search_by_key(&k, |&(k, _)| k)
                .expect("chunk fetched above");
            &chunks[p].1
        };
        let schema = self.source.schema().clone();
        let mut columns = Vec::with_capacity(schema.n_attrs());
        for j in 0..schema.n_attrs() {
            let col = match schema.attr(j).ty {
                AttrType::Numerical => Column::Num(
                    idx.iter()
                        .map(|&i| chunk_of(i).column(j).as_num()[i % self.chunk_rows])
                        .collect(),
                ),
                AttrType::Categorical => {
                    let codes = idx
                        .iter()
                        .map(|&i| chunk_of(i).column(j).as_cat()[i % self.chunk_rows])
                        .collect();
                    // Chunk tables carry the full store dictionary, so
                    // any referenced chunk supplies the domain.
                    let categories = match chunks.first() {
                        Some((_, t)) => match t.column(j) {
                            Column::Cat { categories, .. } => categories.clone(),
                            Column::Num(_) => unreachable!("schema says categorical"),
                        },
                        None => Vec::new(),
                    };
                    Column::Cat { codes, categories }
                }
            };
            columns.push(col);
        }
        Ok(Table::new(schema, columns))
    }

    /// Fetches and encodes the rows, mirroring
    /// `TrainingData::assemble` exactly.
    fn assemble(&self, idx: &[usize], with_conditions: bool) -> Result<Minibatch, DataError> {
        let batch = self.gather(idx)?;
        let samples = self.codec.encode_table(&batch);
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

impl BatchSource for ChunkedTrainingData<'_> {
    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn width(&self) -> usize {
        self.codec.width()
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn label_distribution(&self) -> Vec<f64> {
        let n = self.n_rows.max(1) as f64;
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
        let idx: Vec<usize> = (0..batch).map(|_| rng.usize(self.n_rows)).collect();
        self.assemble(&idx, with_conditions)
    }

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
    use crate::sampler::TrainingData;
    use crate::train::train_gan;
    use daisy_data::{TableChunks, TransformConfig};
    use std::cell::Cell;

    fn fixtures(chunk_rows: usize) -> (TableChunks, RecordCodec, TrainingData) {
        let table = tiny_table(300, 9);
        let codec = RecordCodec::fit(&table, &TransformConfig::sn_ht());
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
        let (chunks, codec, resident) = fixtures(32);
        let streamed = ChunkedTrainingData::new(&chunks, &codec).unwrap();
        assert_eq!(streamed.n_rows(), resident.n_rows());
        assert_eq!(BatchSource::width(&streamed), resident.width());
        assert_eq!(BatchSource::n_classes(&streamed), resident.n_classes());
        assert_eq!(
            BatchSource::label_distribution(&streamed),
            resident.label_distribution()
        );
        let mut rng_a = Rng::seed_from_u64(11);
        let mut rng_b = Rng::seed_from_u64(11);
        for _ in 0..5 {
            let a = streamed.sample_random(48, true, &mut rng_a).unwrap();
            let b = resident.sample_random(48, true, &mut rng_b);
            assert_batches_equal(&a, &b);
        }
    }

    #[test]
    fn label_aware_batches_match_in_memory_bitwise() {
        let (chunks, codec, resident) = fixtures(17); // ragged final chunk
        let streamed = ChunkedTrainingData::new(&chunks, &codec).unwrap();
        let mut rng_a = Rng::seed_from_u64(12);
        let mut rng_b = Rng::seed_from_u64(12);
        for y in 0..2u32 {
            let a = streamed.sample_with_label(y, 24, &mut rng_a).unwrap();
            let b = resident.sample_with_label(y, 24, &mut rng_b);
            assert_batches_equal(&a, &b);
            assert!(a.labels.unwrap().iter().all(|&l| l == y));
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
                .iter()
                .flat_map(|t| t.data().to_vec())
                .collect::<Vec<f32>>()
        };
        let (chunks, codec, resident) = fixtures(32);
        let streamed = ChunkedTrainingData::new(&chunks, &codec).unwrap();
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
        let (chunks, codec, _) = fixtures(32);
        let n_chunks = chunks.n_chunks();
        let flaky = FlakySource {
            inner: chunks,
            // Enough reads for the construction scan plus a couple of
            // batches, then hard failure.
            reads_left: Cell::new(n_chunks + 4),
        };
        let streamed = ChunkedTrainingData::new(&flaky, &codec).unwrap();
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
        let (chunks, codec, _) = fixtures(32);
        let flaky = FlakySource {
            inner: chunks,
            reads_left: Cell::new(1),
        };
        assert!(matches!(
            ChunkedTrainingData::new(&flaky, &codec),
            Err(DataError::CorruptChunk { .. })
        ));
    }
}
