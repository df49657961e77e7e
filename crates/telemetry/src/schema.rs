//! The event vocabulary: names and field conventions shared by the
//! emitters (daisy-core, daisy-tensor, the bench harness) and the
//! consumers (`daisy report`, tests).
//!
//! Every constant here names one event type; the field lists below are
//! the contract `docs/OBSERVABILITY.md` documents. Keeping the names in
//! one module means an emitter and the report renderer cannot drift
//! apart silently.

/// Synthesizer fit attempt started. Fields: `network`, `algorithm`,
/// `rows`, `seed`, `conditional`, `simplified_d`.
pub const FIT_START: &str = "fit_start";
/// Synthesizer fit attempt finished. Fields: `completed_epochs`,
/// `recoveries`, `degraded`, `escalated_wtrain`, `selected_epoch`,
/// `clean`.
pub const FIT_END: &str = "fit_end";
/// The synthesizer rebuilt with the simplified discriminator and
/// refitted (§5.2 remedy). Fields: `reason`.
pub const ESCALATE_SIMPLIFIED_D: &str = "escalate_simplified_d";
/// One epoch snapshot scored during validation-based model selection.
/// Fields: `epoch`, `score`.
pub const MODEL_SELECTION_SCORE: &str = "model_selection_score";
/// Model selection chose a snapshot. Fields: `epoch`, `score`.
pub const MODEL_SELECTED: &str = "model_selected";

/// Training started. Fields: `algorithm`, `iterations`, `epochs`,
/// `batch_size`, `d_steps`, `conditional`, `dp`, `pac`.
pub const TRAIN_START: &str = "train_start";
/// Training finished. Fields: `completed_epochs`, `recoveries`,
/// `degraded`, `escalated_wtrain`.
pub const TRAIN_END: &str = "train_end";
/// One clean epoch completed. Fields: `epoch`, `step`, `d_loss`,
/// `g_loss`, `kl`, `grad_norm_g`, `grad_norm_d`.
pub const EPOCH: &str = "epoch";
/// An epoch snapshot was captured for model selection / rollback.
/// Fields: `epoch`, `step`.
pub const SNAPSHOT: &str = "snapshot";
/// The guard tripped. Fields: `step`, `epoch`, `reason`, plus
/// reason-specific detail (`d_loss`/`g_loss`, `loss`/`ema`,
/// `duplicate_fraction`).
pub const GUARD_TRIP: &str = "guard_trip";
/// The recovery policy acted on a trip. Fields: `step`, `epoch`,
/// `action`, `lr_scale` (rollback/escalation only).
pub const RECOVERY: &str = "recovery";
/// A scheduled fault fired. Fields: `kind`, plus `step` (training
/// faults), `write`/`read`/`quarantine` (storage faults: the index of
/// the operation on its `daisy_wire` handle), or `row` (the ingest
/// kill).
pub const FAULT_FIRED: &str = "fault_fired";

/// Streaming ingestion started (fresh or resumed). Fields: `resumed`,
/// `chunk_rows`.
pub const INGEST_START: &str = "ingest_start";
/// A rerun found a usable ingest journal and resumed. Fields:
/// `from_chunk` (first chunk to re-ingest), `skip_lines` (input lines
/// already consumed by sealed chunks).
pub const INGEST_RESUME: &str = "ingest_resume";
/// The skip error policy rejected one input row into the quarantine
/// file. Fields: `line`, `reason`.
pub const INGEST_ROW_REJECTED: &str = "ingest_row_rejected";
/// Streaming ingestion finished and the manifest was sealed. Fields:
/// `rows`, `rejected`, `chunks`.
pub const INGEST_END: &str = "ingest_end";
/// A columnar chunk was written durably and journaled. Fields:
/// `chunk`, `rows`, `bytes`.
pub const CHUNK_SEALED: &str = "chunk_sealed";
/// A chunk (or journal tail) failed validation and was moved aside as
/// `*.corrupt-N`. Fields: `chunk`, `error`.
pub const CHUNK_QUARANTINED: &str = "chunk_quarantined";

/// A training checkpoint was written durably. Fields: `epoch`, `step`,
/// `bytes` (logical fields only — no paths, so deterministic views
/// compare across machines).
pub const CHECKPOINT_WRITE: &str = "checkpoint_write";
/// Training resumed from a durable checkpoint. Fields: `step`, `epoch`.
pub const CHECKPOINT_RESTORE: &str = "checkpoint_restore";
/// A corrupt checkpoint was detected, quarantined, and skipped in
/// favour of its predecessor. Fields: `slot` (`primary`/`previous`),
/// `error`.
pub const CHECKPOINT_CORRUPT_SKIPPED: &str = "checkpoint_corrupt_skipped";

/// A bench-harness cell started. Fields: `cell`, `seed`.
pub const CELL_START: &str = "cell_start";
/// A cell attempt failed and will retry with a fresh seed. Fields:
/// `cell`, `attempt`, `error`.
pub const CELL_RETRY: &str = "cell_retry";
/// A cell finished (successfully or not). Fields: `cell`, `attempts`,
/// `ok`, `rocky`.
pub const CELL_END: &str = "cell_end";
/// A resumed sweep skipped a cell its journal marks done. Fields:
/// `cell`.
pub const CELL_SKIPPED: &str = "cell_skipped";
/// A sweep found an existing journal and resumed. Fields: `done`
/// (completed cells on record), `total`.
pub const SWEEP_RESUME: &str = "sweep_resume";

/// The serving plane validated its model and is accepting requests
/// (whole event is non-deterministic: serving is wall-clock territory).
/// Fields: `params`, `bytes`, `columns`, `conditional`, `max_conn`,
/// `max_rows`.
pub const SERVE_START: &str = "serve_start";
/// A generation request was accepted and its header sent (whole event
/// is non-deterministic). Fields: `conn`, `seed`, `n_rows`,
/// `condition`.
pub const SERVE_REQUEST_START: &str = "serve_request_start";
/// A generation request finished, cleanly or not (whole event is
/// non-deterministic). Fields: `conn`, `rows`, `ok`; wall fields:
/// `ms`.
pub const SERVE_REQUEST_END: &str = "serve_request_end";
/// The serving plane began a graceful drain: the accept loop stopped
/// and in-flight requests got `DAISY_SERVE_DRAIN_MS` to finish (whole
/// event is non-deterministic). Fields: `active` (connections in
/// flight when the drain began), `drain_ms` (the configured window).
pub const SERVE_DRAIN: &str = "serve_drain";
/// An admin-triggered hot model reload completed or failed (whole
/// event is non-deterministic). Fields: `ok`, `generation` (reload
/// generation after the attempt), `fingerprint` (active model
/// fingerprint after the attempt), `error` (`-` on success).
pub const SERVE_RELOAD: &str = "serve_reload";

/// Snapshot of the metrics registry and the phase profiler (whole
/// event is non-deterministic). Fields: `exposition`, the `/metrics`
/// text of that moment ([`crate::expose::render`]), see
/// [`crate::emit_metrics_snapshot`].
pub const METRICS_SNAPSHOT: &str = "metrics";

/// The closed vocabulary of phase-path *segments* accepted by
/// [`crate::profile::scope`] / `phase_scope!`. The workspace lint
/// (rule S004) checks every phase literal at an instrumentation site
/// against this list, the same way S001 pins event names, so the
/// profiler, `/profile`, `daisy top`, and `docs/OBSERVABILITY.md`
/// share one vocabulary. Paths seen in snapshots are `/`-joins of
/// these segments (e.g. `fit/epoch/matmul_nt`).
pub const PHASES: &[&str] = &[
    "fit",
    "epoch",
    "generate",
    "ingest",
    "serve_request",
    "matmul",
    "matmul_tn",
    "matmul_nt",
    "conv2d",
    "optim",
];

/// The shape of a registered metric: which [`crate::metrics`]
/// constructor its name may be passed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically increasing count ([`crate::metrics::counter`]).
    Counter,
    /// A last-value-wins level ([`crate::metrics::gauge`]).
    Gauge,
    /// A fixed-bucket distribution ([`crate::metrics::histogram`]).
    Histogram,
}

/// The closed registry of metric names: every name passed to
/// [`crate::metrics::counter`] / [`crate::metrics::gauge`] /
/// [`crate::metrics::histogram`] anywhere in the workspace must be
/// declared here with its kind. The workspace lint (rule M001) checks
/// each registration call site against this table — an unregistered
/// name, a kind mismatch, or a registered name no source file emits is
/// a finding — and requires every entry to appear in
/// `docs/OBSERVABILITY.md`, so the metric vocabulary, the code, and the
/// runbook cannot drift apart.
pub const METRICS: &[(&str, MetricKind)] = &[
    // compute pool (crates/tensor/src/pool.rs)
    ("pool.jobs", MetricKind::Counter),
    ("pool.serial_jobs", MetricKind::Counter),
    ("pool.blocks", MetricKind::Counter),
    ("pool.helper_blocks", MetricKind::Counter),
    ("pool.reclaimed_tickets", MetricKind::Counter),
    // kernel dispatch sizes (crates/tensor/src/linalg.rs, conv.rs)
    ("kernel.matmul.work", MetricKind::Histogram),
    ("kernel.matmul_tn.work", MetricKind::Histogram),
    ("kernel.matmul_nt.work", MetricKind::Histogram),
    ("kernel.conv2d.work", MetricKind::Histogram),
    // training plane (crates/core/src/train.rs)
    ("train.grad_norm_g", MetricKind::Gauge),
    ("train.grad_norm_d", MetricKind::Gauge),
    ("checkpoint.save_failures", MetricKind::Counter),
    // serving plane (crates/serve/src/server.rs)
    ("serve.requests", MetricKind::Counter),
    ("serve.rows", MetricKind::Counter),
    ("serve.timeouts", MetricKind::Counter),
    ("serve.drained", MetricKind::Counter),
    ("serve.reloads", MetricKind::Counter),
    ("serve.resumed_requests", MetricKind::Counter),
    ("serve.shed_requests", MetricKind::Counter),
    ("serve.active_conns", MetricKind::Gauge),
    ("serve.rows_per_request", MetricKind::Histogram),
    ("serve.request_us", MetricKind::Histogram),
    ("serve.requests_per_conn", MetricKind::Histogram),
];
