//! Vector-formed record transformation: `t = t_1 ⊕ t_2 ⊕ … ⊕ t_m`
//! (paper §4, "Vector-formed samples"), used by MLP and LSTM networks.

use crate::schema::Schema;
use crate::table::{Column, Table};
use crate::transform::codec::{AttributeCodec, OutputBlock};
use crate::transform::TransformConfig;
use crate::value::Value;
use daisy_tensor::Tensor;

/// A fitted, reversible whole-record transformation to/from
/// vector-formed samples.
pub struct RecordCodec {
    schema: Schema,
    /// Category names per column (empty for numerical columns), kept so
    /// decoded tables carry the original category labels.
    categories: Vec<Vec<String>>,
    codecs: Vec<AttributeCodec>,
    spans: Vec<(usize, usize)>,
    width: usize,
}

impl RecordCodec {
    /// Fits one [`AttributeCodec`] per column of `table`.
    pub fn fit(table: &Table, config: &TransformConfig) -> RecordCodec {
        assert!(table.n_rows() > 0, "cannot fit a codec on an empty table");
        let mut codecs = Vec::with_capacity(table.n_attrs());
        let mut spans = Vec::with_capacity(table.n_attrs());
        let mut categories = Vec::with_capacity(table.n_attrs());
        let mut offset = 0;
        for j in 0..table.n_attrs() {
            let col = table.column(j);
            let codec = AttributeCodec::fit(col, config);
            let w = codec.width();
            spans.push((offset, offset + w));
            offset += w;
            codecs.push(codec);
            categories.push(match col {
                Column::Cat { categories, .. } => categories.clone(),
                Column::Num(_) => Vec::new(),
            });
        }
        RecordCodec {
            schema: table.schema().clone(),
            categories,
            codecs,
            spans,
            width: offset,
        }
    }

    /// Fits one codec per column by streaming over a chunk source —
    /// the out-of-core counterpart of [`RecordCodec::fit`], usable
    /// when the table only exists as a sealed chunk store.
    ///
    /// Categorical codecs come straight from the store dictionaries;
    /// simple normalization takes one pass over each numerical column;
    /// GMM normalization uses [`crate::Gmm1d::fit_streaming`], whose
    /// result is deterministic and chunking-invariant (identical for
    /// an in-memory [`crate::TableChunks`] and an on-disk store over
    /// the same rows). It runs the same EM routine as the in-memory
    /// fit of [`RecordCodec::fit`] but starts from histogram
    /// quantiles rather than sorted ones, so GMM codecs from the two
    /// fits differ; simple and categorical codecs are identical.
    ///
    /// The codec this returns is what `daisy-core`'s
    /// `TrainingData::from_chunks` encodes chunk-backed batches with.
    pub fn fit_chunks(
        source: &dyn crate::source::ChunkSource,
        config: &TransformConfig,
    ) -> Result<RecordCodec, crate::error::DataError> {
        use crate::transform::{CategoricalEncoding, NumericalNormalization};
        use crate::value::AttrType;
        assert!(source.n_rows() > 0, "cannot fit a codec on an empty table");
        let schema = source.schema().clone();
        let first = source.chunk(0)?;
        let categories: Vec<Vec<String>> = first
            .columns()
            .iter()
            .map(|c| match c {
                Column::Cat { categories, .. } => categories.clone(),
                Column::Num(_) => Vec::new(),
            })
            .collect();
        let mut codecs = Vec::with_capacity(schema.n_attrs());
        #[allow(clippy::needless_range_loop)] // j co-indexes schema, categories, and chunk columns
        for j in 0..schema.n_attrs() {
            let codec = match schema.attr(j).ty {
                AttrType::Categorical => {
                    let k = categories[j].len();
                    match config.categorical {
                        CategoricalEncoding::Ordinal => AttributeCodec::Ordinal { k },
                        CategoricalEncoding::OneHot => AttributeCodec::OneHot { k },
                    }
                }
                AttrType::Numerical => match config.numerical {
                    NumericalNormalization::Simple => {
                        let mut min = f64::INFINITY;
                        let mut max = f64::NEG_INFINITY;
                        for k in 0..source.n_chunks() {
                            for &x in source.chunk(k)?.column(j).as_num() {
                                min = min.min(x);
                                max = max.max(x);
                            }
                        }
                        AttributeCodec::SimpleNorm { min, max }
                    }
                    NumericalNormalization::Gmm => {
                        let gmm = crate::Gmm1d::fit_streaming(
                            |f| {
                                for k in 0..source.n_chunks() {
                                    let t = source.chunk(k)?;
                                    for &x in t.column(j).as_num() {
                                        f(x);
                                    }
                                }
                                Ok(())
                            },
                            config.gmm_components,
                            config.gmm_iterations,
                        )?;
                        AttributeCodec::Gmm { gmm }
                    }
                },
            };
            codecs.push(codec);
        }
        Ok(RecordCodec::from_parts(schema, categories, codecs))
    }

    /// Width `d` of the encoded sample vector.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The schema this codec round-trips.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Column span of attribute `j` in the encoded vector.
    pub fn span(&self, j: usize) -> (usize, usize) {
        self.spans[j]
    }

    /// Per-attribute codecs.
    pub fn codecs(&self) -> &[AttributeCodec] {
        &self.codecs
    }

    /// Category-name lists per column (empty entries for numerical
    /// columns) — exposed for model persistence.
    pub fn categories(&self) -> &[Vec<String>] {
        &self.categories
    }

    /// Reassembles a codec from its parts (the inverse of the accessors
    /// above), recomputing spans and width. Used by model persistence.
    pub fn from_parts(
        schema: Schema,
        categories: Vec<Vec<String>>,
        codecs: Vec<AttributeCodec>,
    ) -> RecordCodec {
        assert_eq!(schema.n_attrs(), codecs.len(), "codec arity mismatch");
        assert_eq!(schema.n_attrs(), categories.len(), "category arity mismatch");
        let mut spans = Vec::with_capacity(codecs.len());
        let mut offset = 0;
        for c in &codecs {
            let w = c.width();
            spans.push((offset, offset + w));
            offset += w;
        }
        RecordCodec {
            schema,
            categories,
            codecs,
            spans,
            width: offset,
        }
    }

    /// The attribute-aware output layout for generators: one block per
    /// attribute, in encoding order.
    pub fn output_blocks(&self) -> Vec<OutputBlock> {
        self.codecs
            .iter()
            .zip(&self.spans)
            .map(|(c, &(lo, hi))| OutputBlock {
                kind: c.block_kind(),
                lo,
                hi,
            })
            .collect()
    }

    /// Encodes a whole table into a `[n, d]` sample matrix.
    pub fn encode_table(&self, table: &Table) -> Tensor {
        assert_eq!(
            table.schema(),
            &self.schema,
            "table schema differs from the fitted schema"
        );
        let n = table.n_rows();
        let mut out = Tensor::zeros(&[n, self.width]);
        for i in 0..n {
            let row = table.row(i);
            self.encode_row(&row, out.row_mut(i));
        }
        out
    }

    /// Encodes one record into a preallocated `d`-wide buffer.
    pub fn encode_row(&self, row: &[Value], out: &mut [f32]) {
        assert_eq!(row.len(), self.codecs.len(), "row arity mismatch");
        assert_eq!(out.len(), self.width, "output buffer width mismatch");
        for ((codec, &(lo, hi)), v) in self.codecs.iter().zip(&self.spans).zip(row) {
            codec.encode(v, &mut out[lo..hi]);
        }
    }

    /// Decodes one encoded row back into record values.
    pub fn decode_row(&self, encoded: &[f32]) -> Vec<Value> {
        assert_eq!(encoded.len(), self.width, "encoded width mismatch");
        self.codecs
            .iter()
            .zip(&self.spans)
            .map(|(codec, &(lo, hi))| codec.decode(&encoded[lo..hi]))
            .collect()
    }

    /// Decodes a `[n, d]` sample matrix into a table with the fitted
    /// schema (Phase III of the framework).
    pub fn decode_table(&self, samples: &Tensor) -> Table {
        assert_eq!(samples.ndim(), 2, "expected a [n, d] sample matrix");
        assert_eq!(samples.cols(), self.width, "sample width mismatch");
        let n = samples.rows();
        let mut columns: Vec<Column> = self
            .schema
            .attrs()
            .iter()
            .zip(&self.categories)
            .map(|(a, cats)| match a.ty {
                crate::value::AttrType::Numerical => Column::Num(Vec::with_capacity(n)),
                crate::value::AttrType::Categorical => Column::Cat {
                    codes: Vec::with_capacity(n),
                    categories: cats.clone(),
                },
            })
            .collect();
        for i in 0..n {
            for (j, v) in self.decode_row(samples.row(i)).into_iter().enumerate() {
                match (&mut columns[j], v) {
                    (Column::Num(data), Value::Num(x)) => data.push(x),
                    (Column::Cat { codes, .. }, Value::Cat(c)) => codes.push(c),
                    _ => unreachable!("codec/type mismatch"),
                }
            }
        }
        Table::new(self.schema.clone(), columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Attribute;
    use daisy_tensor::Rng;

    fn demo_table(n: usize, seed: u64) -> Table {
        let mut rng = Rng::seed_from_u64(seed);
        let schema = Schema::with_label(
            vec![
                Attribute::numerical("age"),
                Attribute::categorical("workclass"),
                Attribute::categorical("income"),
            ],
            2,
        );
        Table::new(
            schema,
            vec![
                Column::Num((0..n).map(|_| rng.uniform(18.0, 80.0)).collect()),
                Column::cat_with_domain((0..n).map(|_| rng.usize(4) as u32).collect(), 4),
                Column::cat_with_domain((0..n).map(|_| rng.usize(2) as u32).collect(), 2),
            ],
        )
    }

    #[test]
    fn width_and_spans_sn_ht() {
        let t = demo_table(50, 0);
        let codec = RecordCodec::fit(&t, &TransformConfig::sn_ht());
        // 1 (numeric) + 4 (one-hot) + 2 (one-hot label).
        assert_eq!(codec.width(), 7);
        assert_eq!(codec.span(0), (0, 1));
        assert_eq!(codec.span(1), (1, 5));
        assert_eq!(codec.span(2), (5, 7));
    }

    #[test]
    fn roundtrip_exact_for_categoricals() {
        let t = demo_table(100, 1);
        for config in TransformConfig::all() {
            let codec = RecordCodec::fit(&t, &config);
            let enc = codec.encode_table(&t);
            let back = codec.decode_table(&enc);
            assert_eq!(back.n_rows(), t.n_rows());
            // Categorical columns decode exactly.
            assert_eq!(back.column(1).as_cat(), t.column(1).as_cat());
            assert_eq!(back.column(2).as_cat(), t.column(2).as_cat());
            // Numeric columns decode to within a small tolerance.
            for (a, b) in t.column(0).as_num().iter().zip(back.column(0).as_num()) {
                assert!((a - b).abs() < 1.5, "{config:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn encoded_values_bounded() {
        let t = demo_table(100, 2);
        for config in TransformConfig::all() {
            let codec = RecordCodec::fit(&t, &config);
            let enc = codec.encode_table(&t);
            assert!(enc.min() >= -1.0 - 1e-6, "{config:?}");
            assert!(enc.max() <= 1.0 + 1e-6, "{config:?}");
        }
    }

    #[test]
    fn output_blocks_cover_width_contiguously() {
        let t = demo_table(60, 3);
        for config in TransformConfig::all() {
            let codec = RecordCodec::fit(&t, &config);
            let blocks = codec.output_blocks();
            assert_eq!(blocks.len(), 3);
            let mut expected_lo = 0;
            for b in &blocks {
                assert_eq!(b.lo, expected_lo);
                expected_lo = b.hi;
            }
            assert_eq!(expected_lo, codec.width());
        }
    }

    #[test]
    fn decoded_table_preserves_category_names() {
        let schema = Schema::new(vec![Attribute::categorical("color")]);
        let t = Table::new(
            schema,
            vec![Column::Cat {
                codes: vec![0, 1, 0],
                categories: vec!["red".into(), "blue".into()],
            }],
        );
        let codec = RecordCodec::fit(&t, &TransformConfig::sn_ht());
        let back = codec.decode_table(&codec.encode_table(&t));
        match back.column(0) {
            Column::Cat { categories, .. } => {
                assert_eq!(categories, &["red".to_string(), "blue".to_string()]);
            }
            _ => panic!("expected categorical"),
        }
    }

    #[test]
    fn fit_chunks_is_chunking_invariant() {
        let t = demo_table(120, 5);
        for config in TransformConfig::all() {
            let small = crate::source::TableChunks::new(t.clone(), 13);
            let big = crate::source::TableChunks::new(t.clone(), 1000);
            let a = RecordCodec::fit_chunks(&small, &config).unwrap();
            let b = RecordCodec::fit_chunks(&big, &config).unwrap();
            assert_eq!(a.width(), b.width(), "{config:?}");
            let ea = a.encode_table(&t);
            let eb = b.encode_table(&t);
            assert_eq!(ea.data(), eb.data(), "{config:?}");
        }
    }

    #[test]
    fn fit_chunks_simple_norm_matches_in_memory() {
        // Simple normalization has no initialization freedom: the
        // streaming fit must agree exactly with the in-memory fit.
        let t = demo_table(80, 6);
        let config = TransformConfig::sn_ht();
        let mem = RecordCodec::fit(&t, &config);
        let chunked =
            RecordCodec::fit_chunks(&crate::source::TableChunks::new(t.clone(), 7), &config)
                .unwrap();
        assert_eq!(
            mem.encode_table(&t).data(),
            chunked.encode_table(&t).data()
        );
    }

    #[test]
    #[should_panic(expected = "schema differs")]
    fn wrong_schema_rejected() {
        let t = demo_table(10, 4);
        let codec = RecordCodec::fit(&t, &TransformConfig::sn_od());
        let other = Table::new(
            Schema::new(vec![Attribute::numerical("z")]),
            vec![Column::Num(vec![1.0])],
        );
        let _ = codec.encode_table(&other);
    }
}
