//! Shared experiment plumbing: scaling, dataset preparation, fitted
//! synthesizer construction, per-classifier utility sweeps, and
//! plain-text table formatting.

use crate::journal::SweepJournal;
use daisy_core::{
    CheckpointPlan, DiscriminatorKind, FaultPlan, GuardConfig, NetworkKind, Synthesizer,
    SynthesizerConfig, TableSynthesizer, TrainConfig, TrainError, TrainOutcome,
};
use daisy_data::{Table, TransformConfig};
use daisy_datasets::TableSpec;
use daisy_eval::{classification_utility, classifier_zoo};
use daisy_telemetry::{field, schema};
use daisy_tensor::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Experiment scale knobs. Quick mode keeps every experiment's *shape*
/// (datasets, design points, classifiers) while shrinking rows and
/// iterations so the full suite finishes on a laptop CPU; `DAISY_FULL=1`
/// multiplies the budgets.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows drawn from each dataset spec.
    pub rows: usize,
    /// GAN generator iterations.
    pub iterations: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Hidden width for generators/discriminators.
    pub hidden: usize,
    /// VAE iterations.
    pub vae_iterations: usize,
    /// AQP workload size.
    pub n_queries: usize,
    /// Privacy-metric sample counts.
    pub privacy_samples: usize,
    /// Iterations for the epoch-robustness sweeps (Figures 4, 16–18),
    /// which train 6 settings × 10 epochs each and dominate wall-clock.
    pub sweep_iterations: usize,
}

/// Reads the scale from the environment. `DAISY_ROWS` and
/// `DAISY_ITERS` override the row/iteration budgets of either mode.
pub fn scale() -> Scale {
    let mut s = base_scale();
    if let Some(rows) = env_usize("DAISY_ROWS") {
        s.rows = rows;
    }
    if let Some(iters) = env_usize("DAISY_ITERS") {
        s.iterations = iters;
        s.sweep_iterations = iters.min(s.sweep_iterations);
    }
    s
}

fn env_usize(name: &str) -> Option<usize> {
    daisy_telemetry::knobs::raw(name)?.parse().ok()
}

fn base_scale() -> Scale {
    if daisy_telemetry::knobs::flag("DAISY_FULL") {
        Scale {
            rows: 12_000,
            iterations: 2_000,
            batch: 128,
            hidden: 128,
            vae_iterations: 4_000,
            n_queries: 1_000,
            privacy_samples: 3_000,
            sweep_iterations: 1_000,
        }
    } else {
        Scale {
            rows: 1_600,
            iterations: 400,
            batch: 48,
            hidden: 48,
            vae_iterations: 800,
            n_queries: 120,
            privacy_samples: 300,
            sweep_iterations: 200,
        }
    }
}

/// Materializes a dataset spec at the current scale and splits 4:1:1.
///
/// Skewed datasets are upsampled so the rarest label keeps ≥ 30
/// expected training rows — otherwise the paper's rare-label F1 metric
/// degenerates to 0 for every synthesizer and the comparison is
/// vacuous.
pub fn prepare(spec: &TableSpec, seed: u64) -> (Table, Table, Table) {
    let s = scale();
    let mut rows = s.rows;
    if let Some(probs) = &spec.label_probs {
        let p_min = probs.iter().copied().fold(f64::INFINITY, f64::min);
        if p_min > 0.0 {
            let needed = (30.0 / p_min * 1.5).ceil() as usize; // 1.5x for the 4:1:1 split
            rows = rows.max(needed).min(4 * s.rows);
        }
    }
    let table = spec.generate(rows.min(spec.default_rows), seed);
    let mut rng = Rng::seed_from_u64(seed ^ 0x517);
    table.split_train_valid_test(&mut rng)
}

/// Splits an already materialized table 4:1:1.
pub fn split(table: &Table, seed: u64) -> (Table, Table, Table) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x517);
    table.split_train_valid_test(&mut rng)
}

/// A scaled GAN configuration for the given design point.
pub fn gan_config(
    network: NetworkKind,
    transform: TransformConfig,
    mut train: TrainConfig,
    seed: u64,
) -> SynthesizerConfig {
    let s = scale();
    train.iterations = s.iterations;
    train.batch_size = s.batch;
    let mut cfg = SynthesizerConfig::new(network, train);
    cfg.transform = transform;
    cfg.g_hidden = match network {
        NetworkKind::Lstm => vec![s.hidden, s.hidden / 2],
        _ => vec![s.hidden, s.hidden],
    };
    cfg.d_hidden = vec![s.hidden, s.hidden / 2];
    cfg.noise_dim = 24;
    cfg.cnn_channels = 8;
    cfg.seed = seed;
    cfg
}

/// Extra attempts (each with a fresh seed) a benchmark cell gets before
/// it is declared failed.
pub const CELL_RETRIES: usize = 2;

/// Outcome of one isolated benchmark cell: the synthetic table if any
/// attempt succeeded, plus a record of how it got there.
pub struct CellOutcome {
    /// The synthesized table, when some attempt succeeded.
    pub synthetic: Option<Table>,
    /// Total attempts spent (1 when the first try succeeded).
    pub attempts: usize,
    /// One message per failed attempt (training error or caught panic).
    pub failures: Vec<String>,
    /// The resilience report of the winning attempt.
    pub outcome: Option<TrainOutcome>,
    /// True when training stopped at a [`CheckpointPlan`] kill point
    /// (standing in for a crash). Interrupted cells are not retried —
    /// a rerun resumes them from their checkpoint instead.
    pub interrupted: bool,
}

impl CellOutcome {
    /// True when the winning run needed the resilience layer (rollback,
    /// escalation, or degradation) or more than one attempt.
    pub fn was_rocky(&self) -> bool {
        self.attempts > 1 || self.outcome.as_ref().is_some_and(|o| !o.is_clean())
    }
}

/// Fits one design-space cell in isolation: a training failure — a
/// typed [`daisy_core::TrainError`] or even a panic deeper in the
/// stack — is caught and retried with a fresh seed instead of taking
/// the whole experiment sweep down. A seed-dependent divergence (bad
/// initialization, unlucky minibatch order) rarely repeats under a
/// different seed.
pub fn run_cell(train: &Table, cfg: &SynthesizerConfig, seed: u64) -> CellOutcome {
    run_cell_checkpointed(train, cfg, seed, &CheckpointPlan::disabled())
}

/// [`run_cell`] with crash-safe checkpointing: when `ckpt` names a
/// path, training state is persisted at epoch boundaries and a rerun of
/// the same cell resumes from the latest valid checkpoint. Retried
/// attempts shift the model seed, which changes the configuration
/// fingerprint, so a retry never resumes the previous attempt's
/// checkpoint by accident.
///
/// A deterministic kill ([`CheckpointPlan::kill_at`], standing in for a
/// real crash) stops the cell immediately — no retries, no `cell_end`
/// event, exactly like a process that died mid-cell.
pub fn run_cell_checkpointed(
    train: &Table,
    cfg: &SynthesizerConfig,
    seed: u64,
    ckpt: &CheckpointPlan,
) -> CellOutcome {
    let telemetry = daisy_telemetry::enabled();
    let cell_label = format!("{}/{}", cfg.network.name(), cfg.train.name());
    if telemetry {
        daisy_telemetry::emit(
            schema::CELL_START,
            vec![field("cell", cell_label.as_str()), field("seed", seed)],
        );
    }
    let finish = |attempts: usize, ok: bool, rocky: bool| {
        if telemetry {
            daisy_telemetry::emit(
                schema::CELL_END,
                vec![
                    field("cell", cell_label.as_str()),
                    field("attempts", attempts),
                    field("ok", ok),
                    field("rocky", rocky),
                ],
            );
        }
    };
    let mut failures = Vec::new();
    for attempt in 0..=CELL_RETRIES {
        // Decorrelate retries: shift both the model seed and the
        // generation seed by a fixed odd constant per attempt.
        let shift = (attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut cfg = cfg.clone();
        cfg.seed = cfg.seed.wrapping_add(shift);
        let result = catch_unwind(AssertUnwindSafe(|| {
            Synthesizer::try_fit_checkpointed(
                train,
                &cfg,
                &GuardConfig::default(),
                &FaultPlan::none(),
                ckpt,
            )
            .map(|fitted| {
                let mut rng = Rng::seed_from_u64((seed ^ 0x9e37).wrapping_add(shift));
                let outcome = fitted.outcome().clone();
                (fitted.generate(train.n_rows(), &mut rng), outcome)
            })
        }));
        match result {
            Ok(Ok((synthetic, outcome))) => {
                let cell = CellOutcome {
                    synthetic: Some(synthetic),
                    attempts: attempt + 1,
                    failures,
                    outcome: Some(outcome),
                    interrupted: false,
                };
                finish(cell.attempts, true, cell.was_rocky());
                return cell;
            }
            Ok(Err(e @ TrainError::Interrupted { .. })) => {
                // A simulated crash: stop without retrying and without
                // a cell_end event, like a process killed mid-cell.
                failures.push(format!("attempt {}: {e}", attempt + 1));
                return CellOutcome {
                    synthetic: None,
                    attempts: attempt + 1,
                    failures,
                    outcome: None,
                    interrupted: true,
                };
            }
            Ok(Err(e)) => failures.push(format!("attempt {}: {e}", attempt + 1)),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                failures.push(format!("attempt {}: panic: {msg}", attempt + 1));
            }
        }
        if telemetry && attempt < CELL_RETRIES {
            daisy_telemetry::emit(
                schema::CELL_RETRY,
                vec![
                    field("cell", cell_label.as_str()),
                    field("attempt", attempt + 1),
                    field("error", failures.last().unwrap().as_str()),
                ],
            );
        }
    }
    finish(CELL_RETRIES + 1, false, true);
    CellOutcome {
        synthetic: None,
        attempts: CELL_RETRIES + 1,
        failures,
        outcome: None,
        interrupted: false,
    }
}

/// Result of one cell of a resumable sweep.
pub enum SweepCellResult {
    /// The journal already recorded this cell as done; it was skipped.
    Skipped,
    /// The cell ran (or resumed) in this process.
    Ran(CellOutcome),
}

/// Derives the per-cell checkpoint filename from its sweep id.
fn cell_checkpoint_name(id: &str) -> String {
    let sanitized: String = id
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    format!("{sanitized}.ckpt")
}

/// Runs a sweep of `(id, config)` cells through a crash-safe journal in
/// `dir`, so an interrupted sweep can be rerun without redoing finished
/// work:
///
/// - `dir/journal.txt` records each cell's `start`/`done`/`failed`
///   transition durably (see [`SweepJournal`]); cells the journal marks
///   done are skipped with a `cell_skipped` event.
/// - Each running cell checkpoints its training state to
///   `dir/<id>.ckpt`, so the cell that was in flight when the process
///   died resumes mid-training on the rerun.
/// - When an existing journal is found, a `sweep_resume` event reports
///   how many of the sweep's cells are already done.
///
/// `ckpt` supplies the checkpoint cadence and (in tests) the
/// deterministic kill / I/O-fault plan; its path is replaced per cell.
/// A cell that hits the kill point stops the sweep immediately — its
/// journal entry stays `start`, exactly as if the process had died —
/// and the partial results are returned.
pub fn run_sweep_resumable(
    train: &Table,
    cells: &[(String, SynthesizerConfig)],
    seed: u64,
    dir: &Path,
    ckpt: &CheckpointPlan,
) -> std::io::Result<Vec<(String, SweepCellResult)>> {
    std::fs::create_dir_all(dir)?;
    let mut journal = SweepJournal::open(dir.join("journal.txt"))?;
    let telemetry = daisy_telemetry::enabled();
    if telemetry && !journal.is_empty() {
        daisy_telemetry::emit(
            schema::SWEEP_RESUME,
            vec![
                field("done", journal.done_count()),
                field("total", cells.len()),
            ],
        );
    }
    let mut results = Vec::new();
    for (id, cfg) in cells {
        if journal.is_done(id) {
            if telemetry {
                daisy_telemetry::emit(schema::CELL_SKIPPED, vec![field("cell", id.as_str())]);
            }
            results.push((id.clone(), SweepCellResult::Skipped));
            continue;
        }
        journal.record_start(id)?;
        let mut cell_plan = ckpt.clone();
        cell_plan.path = Some(dir.join(cell_checkpoint_name(id)));
        let cell = run_cell_checkpointed(train, cfg, seed, &cell_plan);
        if cell.interrupted {
            results.push((id.clone(), SweepCellResult::Ran(cell)));
            return Ok(results);
        }
        if cell.synthetic.is_some() {
            journal.record_done(id)?;
        } else {
            journal.record_failed(id)?;
        }
        results.push((id.clone(), SweepCellResult::Ran(cell)));
    }
    Ok(results)
}

/// Fits a GAN at a design point and synthesizes a table the size of the
/// training split. Runs through [`run_cell`], so a flaky cell retries
/// with fresh seeds before giving up; only total failure aborts the
/// experiment.
pub fn fit_and_generate(train: &Table, cfg: &SynthesizerConfig, seed: u64) -> Table {
    let cell = run_cell(train, cfg, seed);
    if cell.was_rocky() {
        for f in &cell.failures {
            eprintln!("  [cell] {f}");
        }
        if let Some(o) = cell.outcome.as_ref().filter(|o| !o.is_clean()) {
            eprintln!("  [cell] recovered: {}", o.summary());
        }
    }
    cell.synthetic.unwrap_or_else(|| {
        panic!(
            "benchmark cell failed after {} attempts: {}",
            cell.attempts,
            cell.failures.join("; ")
        )
    })
}

/// Per-classifier F1 Diff of a synthetic table, over the zoo of §6.2.
pub fn f1_diffs(real_train: &Table, synthetic: &Table, test: &Table) -> Vec<(&'static str, f64)> {
    classifier_zoo()
        .into_iter()
        .map(|(name, make)| {
            let mut rng = Rng::seed_from_u64(0xC1A551F1E5);
            let report = classification_utility(real_train, synthetic, test, make, &mut rng);
            (name, report.f1_diff)
        })
        .collect()
}

/// Synthesizes with any [`TableSynthesizer`] to the training size.
pub fn synthesize_like(method: &dyn TableSynthesizer, train: &Table, seed: u64) -> Table {
    let mut rng = Rng::seed_from_u64(seed ^ 0xba5e);
    method.synthesize(train.n_rows(), &mut rng)
}

/// Default LSTM design point (the paper's recommended gn/ht setting).
pub fn default_lstm(seed: u64) -> SynthesizerConfig {
    gan_config(
        NetworkKind::Lstm,
        TransformConfig::gn_ht(),
        TrainConfig::vtrain(0),
        seed,
    )
}

/// Default MLP design point.
pub fn default_mlp(seed: u64) -> SynthesizerConfig {
    gan_config(
        NetworkKind::Mlp,
        TransformConfig::gn_ht(),
        TrainConfig::vtrain(0),
        seed,
    )
}

/// The "GAN" entry of the methods comparisons, following the paper's
/// guidance (Findings 4 and 9 in §8): conditional GAN for tables with
/// skewed labels (ratio > 9, the paper's skew criterion), plain VTrain
/// otherwise (conditional GAN does not help on balanced data) and for
/// unlabeled tables.
pub fn default_gan_for(train: &Table, seed: u64) -> SynthesizerConfig {
    let skewed = train.schema().label().is_some() && train.label_skewness() > 9.0;
    let tc = if skewed {
        TrainConfig::ctrain(0)
    } else {
        TrainConfig::vtrain(0)
    };
    gan_config(NetworkKind::Mlp, TransformConfig::gn_ht(), tc, seed)
}

/// Clamps a (hyper-parameter-searched) configuration to the quick-mode
/// compute budget: candidate settings legitimately explore capacities
/// up to 256 hidden units, which a single-core quick run cannot afford
/// on long LSTM unrolls. Learning-rate diversity — the axis that drives
/// the robustness findings — is untouched. No-op under `DAISY_FULL=1`.
pub fn clamp_for_quick(cfg: &mut SynthesizerConfig) {
    if daisy_telemetry::knobs::flag("DAISY_FULL") {
        return;
    }
    let s = scale();
    for h in cfg.g_hidden.iter_mut() {
        *h = (*h).min(s.hidden);
    }
    for h in cfg.d_hidden.iter_mut() {
        *h = (*h).min(s.hidden);
    }
    cfg.noise_dim = cfg.noise_dim.min(24);
    cfg.train.batch_size = cfg.train.batch_size.min(s.batch);
}

/// Uses an LSTM discriminator instead of the MLP one (Appendix B.4).
pub fn with_lstm_discriminator(mut cfg: SynthesizerConfig) -> SynthesizerConfig {
    cfg.discriminator = DiscriminatorKind::Lstm;
    cfg
}

// ---------------------------------------------------------------------
// Plain-text table rendering
// ---------------------------------------------------------------------

/// Prints a header banner for an experiment.
pub fn banner(title: &str, detail: &str) {
    println!();
    println!("=== {title} ===");
    if !detail.is_empty() {
        println!("{detail}");
    }
    let s = scale();
    println!(
        "(scale: {} rows, {} iterations{}; set DAISY_FULL=1 for larger runs)",
        s.rows,
        s.iterations,
        if daisy_telemetry::knobs::flag("DAISY_FULL") {
            ", FULL"
        } else {
            ", quick"
        }
    );
    println!();
}

/// Renders an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row);
    }
}

/// Formats an f64 with 3 decimals.
pub fn fmt(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_datasets::by_name;

    #[test]
    fn quick_scale_is_default() {
        // The suite must run in quick mode unless DAISY_FULL=1.
        if std::env::var("DAISY_FULL").is_err() {
            let s = scale();
            assert!(s.rows <= 2_000);
            assert!(s.iterations <= 500);
        }
    }

    #[test]
    fn prepare_upsamples_rare_labels() {
        // CovType's rarest label (1.5%) needs more rows than the base
        // scale to keep >= 30 training examples.
        let (train, _valid, _test) = prepare(&by_name("CovType").unwrap(), 1);
        let groups = train.rows_by_label();
        let min = groups.iter().map(Vec::len).filter(|&n| n > 0).min().unwrap();
        assert!(min >= 15, "rarest label has only {min} training rows");
    }

    #[test]
    fn default_gan_for_matches_skew_guidance() {
        let (balanced, _, _) = prepare(&by_name("Digits").unwrap(), 2);
        assert!(!default_gan_for(&balanced, 0).train.conditional);
        let (skewed, _, _) = prepare(&by_name("Census").unwrap(), 2);
        assert!(default_gan_for(&skewed, 0).train.conditional);
        let (unlabeled, _, _) = prepare(&by_name("Bing").unwrap(), 2);
        assert!(!default_gan_for(&unlabeled, 0).train.conditional);
    }

    fn tiny_table(rows: usize) -> Table {
        use daisy_data::{Attribute, Column, Schema};
        let schema = Schema::new(vec![
            Attribute::numerical("x"),
            Attribute::numerical("y"),
        ]);
        Table::new(
            schema,
            vec![
                Column::Num((0..rows).map(|i| i as f64).collect()),
                Column::Num((0..rows).map(|i| (i % 7) as f64).collect()),
            ],
        )
    }

    fn tiny_cfg(seed: u64) -> SynthesizerConfig {
        let mut tc = TrainConfig::vtrain(8);
        tc.batch_size = 16;
        tc.epochs = 2;
        let mut cfg = SynthesizerConfig::new(NetworkKind::Mlp, tc);
        cfg.g_hidden = vec![8];
        cfg.d_hidden = vec![8];
        cfg.noise_dim = 4;
        cfg.seed = seed;
        cfg
    }

    #[test]
    fn run_cell_clean_first_attempt() {
        let table = tiny_table(48);
        let cell = run_cell(&table, &tiny_cfg(1), 1);
        assert_eq!(cell.attempts, 1);
        assert!(cell.failures.is_empty());
        assert!(!cell.was_rocky());
        assert_eq!(cell.synthetic.unwrap().n_rows(), 48);
    }

    #[test]
    fn run_cell_exhausts_retries_on_persistent_failure() {
        // An empty table fails every attempt with a typed error; the
        // cell retries with fresh seeds and then reports the failures
        // instead of panicking.
        let empty = tiny_table(0);
        let cell = run_cell(&empty, &tiny_cfg(1), 1);
        assert!(cell.synthetic.is_none());
        assert_eq!(cell.attempts, CELL_RETRIES + 1);
        assert_eq!(cell.failures.len(), CELL_RETRIES + 1);
        assert!(cell.was_rocky());
        assert!(cell.failures[0].contains("empty table"));
    }

    #[test]
    fn resumable_sweep_journals_and_skips_done_cells() {
        let table = tiny_table(48);
        let dir = daisy_core::scratch_path("sweep-skip");
        let cells = vec![
            ("cell-a".to_string(), tiny_cfg(1)),
            ("cell-b".to_string(), tiny_cfg(2)),
        ];
        let plan = CheckpointPlan::disabled();
        let first = run_sweep_resumable(&table, &cells, 1, &dir, &plan).unwrap();
        assert_eq!(first.len(), 2);
        assert!(first
            .iter()
            .all(|(_, r)| matches!(r, SweepCellResult::Ran(c) if c.synthetic.is_some())));
        // Rerun: every cell is journalled done, so nothing recomputes.
        let second = run_sweep_resumable(&table, &cells, 1, &dir, &plan).unwrap();
        assert!(second
            .iter()
            .all(|(_, r)| matches!(r, SweepCellResult::Skipped)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn killed_sweep_resumes_the_inflight_cell() {
        let table = tiny_table(48);
        let dir = daisy_core::scratch_path("sweep-kill");
        let cells = vec![
            ("cell-a".to_string(), tiny_cfg(1)),
            ("cell-b".to_string(), tiny_cfg(2)),
        ];
        // Kill the first cell mid-training (tiny_cfg: 8 iterations over
        // 2 epochs, so step 4 is past the first checkpoint boundary):
        // the sweep stops as if the process died, cell-a's journal
        // entry stays `start`, cell-b never starts.
        let killed =
            run_sweep_resumable(&table, &cells, 1, &dir, &CheckpointPlan::disabled().kill_at(4))
                .unwrap();
        assert_eq!(killed.len(), 1);
        assert!(matches!(
            &killed[0].1,
            SweepCellResult::Ran(c) if c.interrupted
        ));
        let j = SweepJournal::open(dir.join("journal.txt")).unwrap();
        assert_eq!(
            j.status("cell-a"),
            Some(crate::journal::CellStatus::InProgress)
        );
        assert_eq!(j.status("cell-b"), None);
        // Rerun without the kill: cell-a resumes from its checkpoint
        // and completes, cell-b runs fresh; both end up journalled done.
        let resumed =
            run_sweep_resumable(&table, &cells, 1, &dir, &CheckpointPlan::disabled()).unwrap();
        assert_eq!(resumed.len(), 2);
        assert!(resumed
            .iter()
            .all(|(_, r)| matches!(r, SweepCellResult::Ran(c) if c.synthetic.is_some())));
        let j = SweepJournal::open(dir.join("journal.txt")).unwrap();
        assert!(j.is_done("cell-a"));
        assert!(j.is_done("cell-b"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt(0.1234567), "0.123");
        // print_table must not panic on ragged-width content.
        print_table(
            &["a", "bb"],
            &[vec!["x".into(), "y".into()], vec!["longer".into(), "z".into()]],
        );
    }
}
