//! `fit_cell`: one design-space cell of the paper per operation — fit
//! the LSTM gn/ht VTrain synthesizer on the Adult stand-in, generate a
//! training-sized synthetic table, and score its classification utility
//! on the held-out test split (train on synthetic, test on real).

use crate::layers::{self, TimedDiscriminator, TimedGenerator, TimedSource, Timer};
use crate::{data_plane, secs, stats, Budget, Report, Run, SETUPS};
use daisy_core::output_head::softmax_spans;
use daisy_core::{
    train_gan_resilient, EpochStats, FaultPlan, FittedSynthesizer, GuardConfig, LstmGenerator,
    MlpDiscriminator, NetworkKind, Synthesizer, SynthesizerConfig, TrainConfig, TrainingData,
};
use daisy_data::{RecordCodec, Table, TransformConfig};
use daisy_eval::{classification_utility, classifier_zoo};
use daisy_tensor::Rng;
use std::time::Instant;

/// Rows drawn from the Adult stand-in per cell (the harness's quick
/// scale), split 4:1:1 into train/validation/test.
const ROWS: usize = 1600;
/// Generator iterations per fit: the quick scale's batch and widths
/// with a quarter of its 400 iterations, so a 30-second run holds about
/// six cells while training still dominates a cell (≈80% of it).
const ITERATIONS: usize = 100;
const BATCH: usize = 48;
const HIDDEN: usize = 48;
/// Iterations of the warm-up fit in each set-up. It starts the worker
/// pool and warms the allocator before the first timed cell, and it
/// makes `setup_s` mostly training work: drawing a split alone takes
/// 3–6 ms, and its time jumps 1.6× with the shared host's load.
const WARMUP_ITERATIONS: usize = 10;
/// Least share of a traced run's budget left to the data plane's
/// layers (see [`data_plane`]); it also gets what the cells leave.
const DATA_PLANE_SHARE: f64 = 0.2;

/// The harness's `default_lstm` design point (LSTM G, MLP D, VTrain,
/// gn/ht) at the sizes pinned above.
pub fn cell_config(seed: u64) -> SynthesizerConfig {
    let mut train = TrainConfig::vtrain(ITERATIONS);
    train.batch_size = BATCH;
    let mut cfg = SynthesizerConfig::new(NetworkKind::Lstm, train);
    cfg.transform = TransformConfig::gn_ht();
    cfg.g_hidden = vec![HIDDEN, HIDDEN / 2];
    cfg.d_hidden = vec![HIDDEN, HIDDEN / 2];
    cfg.noise_dim = 24;
    cfg.cnn_channels = 8;
    cfg.seed = seed;
    cfg
}

/// The Adult stand-in at `rows` rows, split 4:1:1 as the harness does.
/// Returns `(train, test)`.
pub fn adult_split(rows: usize, seed: u64) -> (Table, Table) {
    let spec = daisy_datasets::by_name("Adult").expect("the Adult stand-in is registered");
    let table = spec.generate(rows, seed);
    let mut rng = Rng::seed_from_u64(seed ^ 0x517);
    let (train, _valid, test) = table.split_train_valid_test(&mut rng);
    (train, test)
}

/// Mean synthetic-side F1 and mean F1 Diff over the classifier zoo,
/// each classifier seeded as the harness seeds it.
pub fn utility(train: &Table, synthetic: &Table, test: &Table) -> (f64, f64) {
    let reports: Vec<_> = classifier_zoo()
        .into_iter()
        .map(|(_, make)| {
            let mut rng = Rng::seed_from_u64(0xC1A551F1E5);
            classification_utility(train, synthetic, test, make, &mut rng)
        })
        .collect();
    let f1: Vec<f64> = reports.iter().map(|r| r.f1_synthetic).collect();
    let diff: Vec<f64> = reports.iter().map(|r| r.f1_diff).collect();
    (stats::mean(&f1), stats::mean(&diff))
}

/// Loss history in comparable form: the exact bits of every value.
fn history_bits(history: &[EpochStats]) -> Vec<(usize, u32, u32, u32)> {
    history
        .iter()
        .map(|e| {
            (
                e.epoch,
                e.d_loss.to_bits(),
                e.g_loss.to_bits(),
                e.kl.to_bits(),
            )
        })
        .collect()
}

struct Cell {
    total_s: f64,
    try_fit_s: f64,
    f1: f64,
    f1_diff: f64,
    fitted: FittedSynthesizer,
}

/// One untraced cell: `try_fit` → `generate(train.n_rows())` →
/// utility over the zoo, with its correctness checks.
fn run_cell(
    train: &Table,
    test: &Table,
    cfg: &SynthesizerConfig,
    report: &mut Report,
) -> Option<Cell> {
    let start = Instant::now();
    let fitted = match Synthesizer::try_fit(train, cfg) {
        Ok(f) => f,
        Err(e) => {
            report.check(false, || format!("fit_cell: try_fit failed: {e}"));
            return None;
        }
    };
    let try_fit_s = secs(start);
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x9e37);
    let synthetic = fitted.generate(train.n_rows(), &mut rng);
    let (f1, f1_diff) = utility(train, &synthetic, test);
    let total_s = secs(start);
    report.check(fitted.outcome().is_clean(), || {
        format!(
            "fit_cell: training outcome not clean: {}",
            fitted.outcome().summary()
        )
    });
    report.check(synthetic.schema() == train.schema(), || {
        "fit_cell: synthetic schema differs from the training schema".into()
    });
    report.check(synthetic.n_rows() == train.n_rows(), || {
        format!(
            "fit_cell: generated {} rows, asked for {}",
            synthetic.n_rows(),
            train.n_rows()
        )
    });
    report.check(f1.is_finite() && f1_diff.is_finite(), || {
        format!("fit_cell: utility not finite (f1 {f1}, diff {f1_diff})")
    });
    Some(Cell {
        total_s,
        try_fit_s,
        f1,
        f1_diff,
        fitted,
    })
}

/// Per-cell layer times of one traced cell.
#[derive(Default)]
struct TracedCell {
    wall_s: f64,
    codec_fit_s: f64,
    encode_s: f64,
    train_s: f64,
    g_forward_s: f64,
    g_calls: f64,
    d_forward_s: f64,
    d_calls: f64,
    sample_s: f64,
    sample_calls: f64,
    generate_s: f64,
    utility_s: f64,
    recoveries: f64,
    /// Profiler self time of the training epochs' backward-only kernels
    /// and optimizer steps, which run outside the wrapped forward calls.
    backward_kernels_s: f64,
}

/// The traced decomposition of the same cell: the constructors and
/// seed `try_fit` uses, with timing wrappers passed to
/// `train_gan_resilient`, then generation and scoring. Fails the run
/// unless the loss history matches the untraced fit bit for bit.
fn traced_cell(
    train: &Table,
    test: &Table,
    cfg: &SynthesizerConfig,
    untraced: &FittedSynthesizer,
    report: &mut Report,
) -> TracedCell {
    let mut t = TracedCell::default();
    let start = Instant::now();
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let step = Instant::now();
    let codec = RecordCodec::fit(train, &cfg.transform);
    t.codec_fit_s = secs(step);
    let step = Instant::now();
    let encoded = codec.encode_table(train);
    t.encode_s = secs(step);
    let data = TrainingData::from_encoded(encoded, train);
    let blocks = codec.output_blocks();
    let spans = softmax_spans(&blocks);
    let hidden = cfg.g_hidden[0];
    let f_dim = cfg.g_hidden.get(1).copied().unwrap_or(hidden / 2).max(4);
    let generator = LstmGenerator::new(cfg.noise_dim, 0, hidden, f_dim, blocks, &mut rng);
    let discriminator = MlpDiscriminator::with_dropout(
        codec.width() * cfg.train.pac.max(1),
        0,
        &cfg.effective_d_hidden(),
        cfg.d_dropout,
        &mut rng,
    );
    let (g_timer, d_timer, s_timer) = (Timer::default(), Timer::default(), Timer::default());
    let g = TimedGenerator {
        inner: &generator,
        forward: &g_timer,
    };
    let d = TimedDiscriminator {
        inner: &discriminator,
        forward: &d_timer,
    };
    let source = TimedSource {
        inner: &data,
        sample: &s_timer,
    };
    let step = Instant::now();
    let trained = train_gan_resilient(
        &g,
        &d,
        &source,
        &spans,
        &cfg.train,
        &GuardConfig::default(),
        &FaultPlan::none(),
        &mut rng,
    );
    t.train_s = secs(step);
    match trained {
        Ok(run) => {
            t.recoveries = run.outcome.recoveries.len() as f64;
            report.check(
                history_bits(&run.run.history) == history_bits(untraced.history()),
                || "fit_cell: traced loss history differs from the untraced fit".into(),
            );
        }
        Err(e) => report.check(false, || format!("fit_cell: traced training failed: {e}")),
    }
    t.g_forward_s = g_timer.seconds();
    t.g_calls = g_timer.calls() as f64;
    t.d_forward_s = d_timer.seconds();
    t.d_calls = d_timer.calls() as f64;
    t.sample_s = s_timer.seconds();
    t.sample_calls = s_timer.calls() as f64;
    let step = Instant::now();
    let mut gen_rng = Rng::seed_from_u64(cfg.seed ^ 0x9e37);
    let synthetic = untraced.generate(train.n_rows(), &mut gen_rng);
    t.generate_s = secs(step);
    let step = Instant::now();
    let _ = utility(train, &synthetic, test);
    t.utility_s = secs(step);
    t.wall_s = secs(start);
    t
}

pub fn run(run: &Run, report: &mut Report) -> Result<(), String> {
    // Set-up: one Adult split per input seed, each warmed up with a
    // short fit; cells cycle over the splits.
    let mut setup_times = Vec::new();
    let mut splits = Vec::new();
    for k in 0..SETUPS as u64 {
        let start = Instant::now();
        let (train, test) = adult_split(ROWS, run.sub_seed(k));
        let mut warm = cell_config(run.sub_seed(900 + k));
        warm.train.iterations = WARMUP_ITERATIONS;
        Synthesizer::try_fit(&train, &warm).map_err(|e| format!("warm-up fit: {e}"))?;
        setup_times.push(secs(start));
        splits.push((train, test));
    }
    report.e2e("setup_s", stats::median(&setup_times).unwrap_or(0.0));

    // Untraced runs measure for the whole budget; traced runs pair each
    // untraced cell with its traced decomposition, then give the rest
    // of the budget to the data plane.
    stats::reset_peak_rss();
    let mut budget = Budget::new(if run.trace {
        run.seconds * (1.0 - DATA_PLANE_SHARE)
    } else {
        run.seconds
    });
    let mut cells: Vec<Cell> = Vec::new();
    let mut traced: Vec<TracedCell> = Vec::new();
    let mut captured = std::collections::BTreeMap::new();
    let mut k = 0u64;
    while budget.another() {
        let (train, test) = &splits[k as usize % splits.len()];
        let cfg = cell_config(run.sub_seed(1000 + k));
        report.attempted += 1;
        let Some(cell) = run_cell(train, test, &cfg, report) else {
            report.failed += 1;
            k += 1;
            continue;
        };
        if run.trace {
            let fitted = &cell.fitted;
            let mut t = layers::traced(|| traced_cell(train, test, &cfg, fitted, report));
            t.backward_kernels_s =
                layers::self_s_under("epoch", &["matmul_nt", "matmul_tn", "optim"]);
            traced.push(t);
            for (name, v) in layers::capture() {
                *captured.entry(name).or_insert(0.0) += v;
            }
        }
        cells.push(cell);
        k += 1;
    }
    let peak = stats::peak_rss_mb().unwrap_or(0.0);
    report.check(!cells.is_empty(), || "fit_cell: no cell completed".into());
    let rows = splits[0].0.n_rows() as f64;
    let cell_ms: Vec<f64> = cells.iter().map(|c| c.total_s * 1e3).collect();
    let p50 = stats::median(&cell_ms).unwrap_or(0.0);
    let tail = stats::tail(&cell_ms);
    let f1: Vec<f64> = cells.iter().map(|c| c.f1).collect();
    let f1_diff: Vec<f64> = cells.iter().map(|c| c.f1_diff).collect();
    report.e2e("peak_rss_mb", peak);
    report.e2e("latency_p50_ms", p50);
    report.e2e("rows_per_s", rows / (p50 / 1e3));
    let cell_s = p50 / 1e3;
    let tail_pct = tail.map_or(0.0, |t| t.pct);
    // Utility figures are means over the run's cells and the zoo.
    report.note("cells", cells.len() as f64, "count");
    report.note("cell_s", cell_s, "s");
    report.note("utility_f1_diff", stats::mean(&f1_diff), "f1");
    report.note("utility_f1", stats::mean(&f1), "f1");
    report.note("latency_tail_ms", tail.map_or(0.0, |t| t.value), "ms");
    report.note("latency_tail_pct", tail_pct, "%");
    report.layer("bench.cell_s", cell_s);
    report.layer("bench.utility_f1", stats::mean(&f1));
    report.layer("bench.utility_f1_diff", stats::mean(&f1_diff));
    report.layer("bench.latency_tail_ms", tail.map_or(0.0, |t| t.value));
    report.layer("bench.tail_pct", tail_pct);
    report.layer("bench.tail_samples", cells.len() as f64);
    report.layer("bench.cell_retries", report.failed as f64);

    if run.trace && !traced.is_empty() {
        let n = traced.len() as f64;
        let avg = |f: fn(&TracedCell) -> f64| traced.iter().map(f).sum::<f64>() / n;
        let untraced_s = cells.iter().map(|c| c.total_s).sum::<f64>() / cells.len() as f64;
        let try_fit_s = cells.iter().map(|c| c.try_fit_s).sum::<f64>() / cells.len() as f64;
        let wall = avg(|t| t.wall_s);
        let train = avg(|t| t.train_s);
        let wrapped = avg(|t| t.g_forward_s + t.d_forward_s + t.sample_s);
        report.layer("core.synthesizer.try_fit_s", try_fit_s);
        report.layer("data.transform.codec_fit_s", avg(|t| t.codec_fit_s));
        report.layer("data.transform.encode_s", avg(|t| t.encode_s));
        report.layer("core.generator.forward_s", avg(|t| t.g_forward_s));
        report.layer("core.generator.forward_calls", avg(|t| t.g_calls));
        report.layer("core.discriminator.forward_s", avg(|t| t.d_forward_s));
        report.layer("core.discriminator.forward_calls", avg(|t| t.d_calls));
        report.layer("core.sampler.sample_s", avg(|t| t.sample_s));
        report.layer("core.sampler.sample_calls", avg(|t| t.sample_calls));
        report.layer("core.train.rest_s", train - wrapped);
        report.layer("core.row_stream.generate_s", avg(|t| t.generate_s));
        report.layer("eval.utility_s", avg(|t| t.utility_s));
        report.layer("core.guard.recoveries", avg(|t| t.recoveries));
        report.layer(
            "bench.trace_overhead_pct",
            (wall - untraced_s) / untraced_s * 100.0,
        );
        layers::report_captured(report, &captured, n);
        // Directly timed work on the cell's path; what is left is
        // autodiff bookkeeping, elementwise ops, loss and guard.
        let attributed =
            avg(|t| t.codec_fit_s + t.encode_s + t.generate_s + t.utility_s + t.backward_kernels_s)
                + wrapped;
        report.layer("bench.unattributed_share", 1.0 - attributed / wall);
        report.note("traced_cell_s", wall, "s");
        report.note("attributed_s", attributed, "s");
    }
    if run.trace {
        let rest = (run.seconds - budget.elapsed()).max(run.seconds * DATA_PLANE_SHARE);
        data_plane::measure(run, rest, report)?;
    }
    Ok(())
}
