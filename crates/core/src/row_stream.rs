//! Pull-based row streaming over a fitted generator — the serving
//! plane's core primitive.
//!
//! [`RowStream`] turns Phase III generation inside-out: instead of
//! materializing an `n`-row table, the consumer *pulls* decoded rows
//! (or whole [`GENERATION_BATCH`]-row batches) and the stream runs one
//! batched forward pass through the generator each time it drains — so
//! memory stays bounded by one batch no matter how many rows a request
//! asks for, while each forward still amortizes across the
//! `daisy-tensor` worker pool.
//!
//! Every stream owns a private RNG seeded from the request, so any
//! request `{seed, n_rows, condition?}` is independently reproducible:
//! same inputs → bit-identical rows, at any thread count, regardless of
//! what other streams run concurrently. A stream only reads the model
//! (a fitted or loaded generator is already in eval mode), so streams
//! on different threads can share one `FittedSynthesizer`.
//! [`FittedSynthesizer::generate`] is itself implemented over a stream,
//! which pins the two code paths together: a streamed request equals
//! the batch API row for row by construction, not by convention.

use crate::synthesizer::{FittedSynthesizer, GENERATION_BATCH};
use daisy_data::{Column, Table, Value};
use daisy_tensor::{no_grad, Rng, RngState, Tensor};

/// A pull-based stream of synthetic rows from a [`FittedSynthesizer`].
///
/// Create one with [`FittedSynthesizer::stream_rows`] (conditions drawn
/// from the training label distribution) or
/// [`FittedSynthesizer::try_stream_rows`] (fixed condition). Consume it
/// either as an `Iterator` of row vectors or batch-at-a-time via
/// [`RowStream::next_batch`] — but pick one: the iterator buffers the
/// current batch internally, so interleaving the two skips rows.
pub struct RowStream<'a> {
    synth: &'a FittedSynthesizer,
    rng: Rng,
    total: usize,
    generated: usize,
    /// Fixed condition code; `None` samples conditions from the
    /// training label distribution (conditional models only).
    condition: Option<u32>,
    /// Tail of a batch that [`RowStream::fast_forward`] landed inside:
    /// the containing batch is generated in full (to keep the RNG and
    /// batch grid aligned with an uninterrupted stream) and the rows at
    /// and past the offset are parked here for the next
    /// [`RowStream::next_batch`] call.
    pending: Option<Table>,
    /// Current decoded batch for the row-at-a-time iterator.
    batch: Option<Table>,
    cursor: usize,
}

impl<'a> RowStream<'a> {
    pub(crate) fn new(
        synth: &'a FittedSynthesizer,
        total: usize,
        rng: Rng,
        condition: Option<u32>,
    ) -> Self {
        RowStream {
            synth,
            rng,
            total,
            generated: 0,
            condition,
            pending: None,
            batch: None,
            cursor: 0,
        }
    }

    /// Total rows this stream will produce.
    pub fn total_rows(&self) -> usize {
        self.total
    }

    /// Rows already generated (handed out via [`RowStream::next_batch`]
    /// or buffered for the iterator).
    pub fn generated_rows(&self) -> usize {
        self.generated
    }

    /// The stream RNG's current state — [`FittedSynthesizer::generate`]
    /// uses this to advance its caller's RNG exactly as the pre-stream
    /// implementation did.
    pub fn rng_state(&self) -> RngState {
        self.rng.state()
    }

    /// Generates and decodes the next batch of up to
    /// [`GENERATION_BATCH`] rows, or `None` when the stream is
    /// exhausted.
    ///
    /// The RNG draw order per batch is fixed — noise first, then
    /// condition labels — and the batch size is a constant, so the
    /// concatenation of all batches is bit-identical to a single
    /// [`FittedSynthesizer::generate`] call with the same RNG, at any
    /// thread count. The forward runs under [`no_grad`]: nothing
    /// backpropagates through generation, so it keeps no graph.
    pub fn next_batch(&mut self) -> Option<Table> {
        if let Some(tail) = self.pending.take() {
            return Some(tail);
        }
        if self.generated >= self.total {
            return None;
        }
        daisy_telemetry::phase_scope!("generate");
        let batch = (self.total - self.generated).min(GENERATION_BATCH);
        let g = self.synth.generator.as_ref();
        let z = g.sample_noise(batch, &mut self.rng);
        let conditional = self.synth.config.train.conditional;
        let (cond, labels) = if conditional {
            let labels: Vec<u32> = match self.condition {
                Some(code) => vec![code; batch],
                None => (0..batch)
                    .map(|_| self.rng.weighted(&self.synth.label_dist) as u32)
                    .collect(),
            };
            let c = daisy_data::one_hot_labels(&labels, self.synth.label_dist.len());
            (Some(c), labels)
        } else {
            (None, Vec::new())
        };
        let fake = no_grad(|| g.forward(&z, cond.as_ref(), &mut self.rng));
        let table = self.synth.codec.decode_table(fake.value());
        let table = if conditional {
            let j = self.synth.label_col.expect("conditional models have a label");
            let label_column = Column::Cat {
                codes: labels,
                categories: self.synth.label_categories.clone(),
            };
            table.insert_column(j, label_column, self.synth.output_schema.clone())
        } else {
            table
        };
        self.generated += batch;
        Some(table)
    }

    /// Fast-forwards the stream to row `n` without emitting rows
    /// `[0, n)` — the server side of a resumed (`start_row`) fetch.
    ///
    /// Batch boundaries stay on the [`GENERATION_BATCH`] grid anchored
    /// at row 0: full batches before the offset are skipped RNG-only
    /// (every draw `next_batch` would make is mirrored, no forward
    /// pass), and when `n` lands inside a batch the containing batch is
    /// generated in full with its first `n % GENERATION_BATCH` rows
    /// discarded. The rows this stream then produces are therefore
    /// bit-identical to rows `[n, total)` of an uninterrupted stream —
    /// the property that makes resumed serve fetches byte-exact.
    ///
    /// # Panics
    ///
    /// When called after the first [`RowStream::next_batch`] (or after
    /// the iterator has started): fast-forwarding a partially consumed
    /// stream would double-count the batches already emitted.
    pub fn fast_forward(&mut self, n: usize) {
        assert_eq!(
            self.generated, 0,
            "RowStream::fast_forward must be called before the first next_batch"
        );
        let n = n.min(self.total);
        daisy_telemetry::phase_scope!("generate");
        while self.generated + GENERATION_BATCH <= n {
            let batch = (self.total - self.generated).min(GENERATION_BATCH);
            self.skip_batch_rng(batch);
            self.generated += batch;
        }
        let within = n - self.generated;
        if within > 0 {
            if let Some(table) = self.next_batch() {
                let keep: Vec<usize> = (within..table.n_rows()).collect();
                if !keep.is_empty() {
                    self.pending = Some(table.select_rows(&keep));
                }
            }
        }
    }

    /// Advances the stream RNG past exactly the draws one
    /// [`RowStream::next_batch`] of `batch` rows would make — noise,
    /// then sampled condition labels, then any in-forward draws — in
    /// the same order.
    fn skip_batch_rng(&mut self, batch: usize) {
        let g = self.synth.generator.as_ref();
        let _ = g.sample_noise(batch, &mut self.rng);
        if self.synth.config.train.conditional && self.condition.is_none() {
            for _ in 0..batch {
                let _ = self.rng.weighted(&self.synth.label_dist);
            }
        }
        g.skip_forward_rng(batch, &mut self.rng);
    }
}

impl Iterator for RowStream<'_> {
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Vec<Value>> {
        loop {
            if let Some(b) = &self.batch {
                if self.cursor < b.n_rows() {
                    let row = b.row(self.cursor);
                    self.cursor += 1;
                    return Some(row);
                }
            }
            self.batch = Some(self.next_batch()?);
            self.cursor = 0;
        }
    }
}

/// Stacks batch tables produced by [`RowStream::next_batch`] onto a
/// 0-row `template` (from [`FittedSynthesizer::output_template`]).
fn concat_tables(template: Table, batches: Vec<Table>) -> Table {
    let mut columns: Vec<Column> = template.columns().to_vec();
    for batch in &batches {
        for (dst, src) in columns.iter_mut().zip(batch.columns()) {
            match (dst, src) {
                (Column::Num(all), Column::Num(part)) => all.extend_from_slice(part),
                (Column::Cat { codes: all, .. }, Column::Cat { codes: part, .. }) => {
                    all.extend_from_slice(part)
                }
                _ => panic!("batch column type does not match the output template"),
            }
        }
    }
    Table::new(template.schema().clone(), columns)
}

impl FittedSynthesizer {
    /// A 0-row table with exactly the schema, column order and
    /// categorical domains that generation produces — the column
    /// contract a serving front-end advertises to clients before any
    /// row exists.
    pub fn output_template(&self) -> Table {
        let empty = self
            .codec
            .decode_table(&Tensor::zeros(&[0, self.codec.width()]));
        if self.config.train.conditional {
            let j = self.label_col.expect("conditional models have a label");
            let label_column = Column::Cat {
                codes: Vec::new(),
                categories: self.label_categories.clone(),
            };
            empty.insert_column(j, label_column, self.output_schema.clone())
        } else {
            empty
        }
    }

    /// True when the model was trained conditionally (CTrain / CGAN-V)
    /// and therefore honors per-request conditions.
    pub fn is_conditional(&self) -> bool {
        self.config.train.conditional
    }

    /// Category names of the label attribute (empty for
    /// non-conditional models) — the legal values for a streamed
    /// request's `condition`.
    pub fn condition_categories(&self) -> &[String] {
        &self.label_categories
    }

    /// Total scalar weights in the generator.
    pub fn param_count(&self) -> usize {
        daisy_nn::num_params(&self.generator.params())
    }

    /// Resident bytes of the generator weights — what the one decoded
    /// model of a serving process costs in memory, before batch
    /// buffers.
    pub fn param_bytes(&self) -> usize {
        daisy_nn::params_bytes(&self.generator.params())
    }

    /// Streams `n` rows from a fresh RNG seeded with `seed`, drawing
    /// conditions from the training label distribution. The stream is
    /// independently reproducible: same `(seed, n)` → bit-identical
    /// rows, at any thread count.
    pub fn stream_rows(&self, n: usize, seed: u64) -> RowStream<'_> {
        RowStream::new(self, n, Rng::seed_from_u64(seed), None)
    }

    /// Streams `n` rows from a fresh RNG seeded with `seed`, with every
    /// row conditioned on the label category named `condition` (when
    /// given). Fails when the model is not conditional or the category
    /// is unknown — the typed rejection a serving front-end reports
    /// back to the client.
    pub fn try_stream_rows(
        &self,
        n: usize,
        seed: u64,
        condition: Option<&str>,
    ) -> Result<RowStream<'_>, String> {
        let code = match condition {
            None => None,
            Some(name) => {
                if !self.config.train.conditional {
                    return Err(format!(
                        "model is not conditional; cannot honor condition {name:?}"
                    ));
                }
                let code = self
                    .label_categories
                    .iter()
                    .position(|c| c == name)
                    .ok_or_else(|| {
                        format!(
                            "unknown label category {name:?} (known: {})",
                            self.label_categories.join(", ")
                        )
                    })?;
                Some(code as u32)
            }
        };
        Ok(RowStream::new(self, n, Rng::seed_from_u64(seed), code))
    }

    /// Consumes a stream into one table (shared by
    /// [`FittedSynthesizer::generate`] and tests).
    pub(crate) fn collect_stream(&self, mut stream: RowStream<'_>) -> (Table, RngState) {
        let mut batches = Vec::new();
        while let Some(b) = stream.next_batch() {
            batches.push(b);
        }
        let state = stream.rng_state();
        (concat_tables(self.output_template(), batches), state)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{NetworkKind, SynthesizerConfig, TrainConfig};
    use crate::generator::test_support::tiny_table;
    use crate::synthesizer::{Synthesizer, GENERATION_BATCH};
    use daisy_tensor::Rng;

    fn tiny_fitted(conditional: bool) -> crate::FittedSynthesizer {
        tiny_fitted_kind(NetworkKind::Mlp, conditional)
    }

    fn tiny_fitted_kind(kind: NetworkKind, conditional: bool) -> crate::FittedSynthesizer {
        let table = tiny_table(120, 7);
        let train = if conditional {
            TrainConfig::ctrain(30)
        } else {
            TrainConfig::vtrain(30)
        };
        let config = SynthesizerConfig::new(kind, train);
        Synthesizer::fit(&table, &config)
    }

    /// Rows `[k, n)` of a fast-forwarded stream must equal rows
    /// `[k, n)` of an uninterrupted stream, bit for bit.
    fn assert_resume_parity(
        fitted: &crate::FittedSynthesizer,
        n: usize,
        seed: u64,
        condition: Option<&str>,
    ) {
        let full: Vec<Vec<daisy_data::Value>> = fitted
            .try_stream_rows(n, seed, condition)
            .expect("full stream")
            .collect();
        for k in [0, 1, GENERATION_BATCH - 1, GENERATION_BATCH, GENERATION_BATCH + 37, n] {
            let mut resumed = fitted
                .try_stream_rows(n, seed, condition)
                .expect("resumed stream");
            resumed.fast_forward(k);
            let tail: Vec<Vec<daisy_data::Value>> = resumed.collect();
            assert_eq!(tail.len(), n - k, "resume at {k} yields the remainder");
            assert_eq!(tail, full[k..], "resume at {k} diverged");
        }
    }

    #[test]
    fn fast_forward_resumes_bit_identical_mlp() {
        let fitted = tiny_fitted(false);
        assert_resume_parity(&fitted, GENERATION_BATCH + 90, 11, None);

        let conditional = tiny_fitted(true);
        // Sampled labels consume per-row RNG draws the skip must mirror.
        assert_resume_parity(&conditional, GENERATION_BATCH + 90, 11, None);
        // Pinned labels consume none.
        let category = conditional.condition_categories()[0].clone();
        assert_resume_parity(&conditional, GENERATION_BATCH + 90, 11, Some(&category));
    }

    #[test]
    fn fast_forward_resumes_bit_identical_lstm() {
        // The LSTM generator draws from the stream RNG inside `forward`
        // (random initial state); `skip_forward_rng` must mirror it.
        let fitted = tiny_fitted_kind(NetworkKind::Lstm, false);
        assert_resume_parity(&fitted, GENERATION_BATCH + 40, 5, None);
    }

    #[test]
    #[should_panic(expected = "must be called before the first next_batch")]
    fn fast_forward_after_next_batch_panics_naming_its_precondition() {
        let fitted = tiny_fitted(false);
        let mut stream = fitted.stream_rows(GENERATION_BATCH + 10, 1);
        stream.next_batch().expect("first batch");
        stream.fast_forward(10);
    }

    #[test]
    fn stream_equals_generate_row_for_row() {
        let fitted = tiny_fitted(true);
        let n = GENERATION_BATCH + 37; // straddle a batch boundary
        let seed = 42;
        let mut rng = Rng::seed_from_u64(seed);
        let table = fitted.generate(n, &mut rng);
        let streamed: Vec<Vec<daisy_data::Value>> = fitted.stream_rows(n, seed).collect();
        assert_eq!(streamed.len(), n);
        for (i, row) in streamed.iter().enumerate() {
            assert_eq!(*row, table.row(i), "row {i} diverged");
        }
    }

    #[test]
    fn same_seed_same_rows_fresh_streams() {
        let fitted = tiny_fitted(false);
        let a: Vec<Vec<daisy_data::Value>> = fitted.stream_rows(300, 9).collect();
        let b: Vec<Vec<daisy_data::Value>> = fitted.stream_rows(300, 9).collect();
        assert_eq!(a, b);
        let c: Vec<Vec<daisy_data::Value>> = fitted.stream_rows(300, 10).collect();
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn fixed_condition_pins_every_label() {
        let fitted = tiny_fitted(true);
        let category = fitted.condition_categories()[1].clone();
        let stream = fitted
            .try_stream_rows(50, 3, Some(&category))
            .expect("known category");
        let label_col = fitted.output_template().schema().label().unwrap();
        for row in stream {
            assert_eq!(row[label_col], daisy_data::Value::Cat(1));
        }
    }

    #[test]
    fn bad_conditions_are_typed_errors() {
        let conditional = tiny_fitted(true);
        let Err(err) = conditional.try_stream_rows(10, 0, Some("no-such-category")) else {
            panic!("unknown category accepted");
        };
        assert!(err.contains("unknown label category"), "{err}");

        let unconditional = tiny_fitted(false);
        let Err(err) = unconditional.try_stream_rows(10, 0, Some("a")) else {
            panic!("condition accepted by a non-conditional model");
        };
        assert!(err.contains("not conditional"), "{err}");
    }

    #[test]
    fn output_template_matches_generated_schema() {
        for conditional in [false, true] {
            let fitted = tiny_fitted(conditional);
            let template = fitted.output_template();
            assert_eq!(template.n_rows(), 0);
            let mut rng = Rng::seed_from_u64(0);
            let table = fitted.generate(10, &mut rng);
            assert_eq!(template.schema(), table.schema());
            for (t, g) in template.columns().iter().zip(table.columns()) {
                assert_eq!(t.ty(), g.ty());
            }
        }
    }

    #[test]
    fn generate_zero_rows_is_the_template() {
        let fitted = tiny_fitted(true);
        let mut rng = Rng::seed_from_u64(0);
        let empty = fitted.generate(0, &mut rng);
        assert_eq!(empty, fitted.output_template());
    }
}
