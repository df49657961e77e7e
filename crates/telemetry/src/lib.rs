//! Zero-dependency structured telemetry for the daisy workspace.
//!
//! The layer has two planes:
//!
//! - A **deterministic event stream** ([`Event`]): typed records of
//!   what the run *did* — epochs, guard trips, recoveries, fault
//!   firings, model selection, bench cells. Event identity is logical
//!   time (epoch / step / sequence number), never wall-clock; optional
//!   wall-clock measurements ride in a separate, strippable `wall`
//!   sub-object. For a fixed seed, the deterministic view of a trace
//!   ([`trace::deterministic_view`]) is byte-identical across runs
//!   *and across `DAISY_THREADS` settings* — the same contract the
//!   compute pool already guarantees for numeric results.
//! - An **aggregate metrics registry** ([`metrics`]): counters, gauges
//!   and fixed-bucket histograms updated via relaxed atomics from any
//!   thread (pool job counts, kernel dispatch sizes). These values
//!   legitimately vary with thread count, so they only enter the event
//!   stream as an explicitly non-deterministic snapshot
//!   ([`emit_metrics_snapshot`]) whose one field is the `/metrics`
//!   exposition text ([`expose`]) of the registry and the phase
//!   profiler.
//!
//! # Routing
//!
//! Every [`emit`] goes to exactly one [`Recorder`]: the calling
//! thread's innermost scoped recorder ([`with_recorder`], used by
//! tests) if one is installed, otherwise the process-global recorder —
//! a [`JsonlSink`] created lazily from `DAISY_TRACE=<path>`. With
//! neither, [`enabled`] is `false` and instrumented call sites skip
//! event construction entirely, so an untraced run pays one relaxed
//! atomic load per site.
//!
//! # Quick start
//!
//! ```
//! use daisy_telemetry::{emit, field, with_recorder, MemoryRecorder};
//! use std::sync::Arc;
//!
//! let rec = Arc::new(MemoryRecorder::new());
//! with_recorder(rec.clone(), || {
//!     emit("epoch", vec![field("epoch", 0usize), field("d_loss", 0.5f64)]);
//! });
//! assert_eq!(rec.count("epoch"), 1);
//! ```
//!
//! See `docs/OBSERVABILITY.md` for the runbook and [`schema`] for the
//! event vocabulary.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod expose;
pub mod json;
pub mod knobs;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod report;
pub mod schema;
pub mod sink;
pub mod trace;

pub use event::{field, Event, Fields, Value};
pub use recorder::{MemoryRecorder, NoopRecorder, Recorder};
pub use report::RunReport;
pub use sink::JsonlSink;

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The process-global sink, created on first use from `DAISY_TRACE`.
/// `None` when the variable is unset, empty, or names an unwritable
/// path (the latter warns once on stderr instead of failing silently).
static GLOBAL: OnceLock<Option<Arc<JsonlSink>>> = OnceLock::new();

/// Number of live scoped recorders across all threads; a cheap upper
/// bound used by [`enabled`] so untraced production runs never touch
/// thread-local storage.
static LOCALS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Innermost-wins stack of scoped recorders for this thread.
    static STACK: RefCell<Vec<Arc<dyn Recorder>>> = const { RefCell::new(Vec::new()) };
}

fn global() -> Option<&'static Arc<JsonlSink>> {
    GLOBAL
        .get_or_init(|| {
            let path = knobs::raw_os("DAISY_TRACE")?;
            if path.is_empty() {
                return None;
            }
            match JsonlSink::create(&path) {
                Ok(sink) => Some(Arc::new(sink)),
                Err(e) => {
                    eprintln!(
                        "warning: DAISY_TRACE={} is not writable ({e}); tracing disabled",
                        path.to_string_lossy()
                    );
                    None
                }
            }
        })
        .as_ref()
}

/// Forces initialization of the global sink from `DAISY_TRACE` and
/// reports whether a trace file is being written. Binaries call this
/// at startup so a misconfigured path warns immediately rather than at
/// the first emission; library code never needs to.
pub fn init_from_env() -> bool {
    global().is_some()
}

/// `true` when at least one recorder might receive events. This is the
/// fast gate for hot paths: one relaxed load (plus one initialized
/// `OnceLock` read) when tracing is off.
pub fn enabled() -> bool {
    LOCALS.load(Ordering::Relaxed) > 0 || global().is_some()
}

/// Runs `f` with `recorder` installed as this thread's innermost
/// recorder; every [`emit`] from inside `f` (on this thread) goes to it
/// instead of the global sink. Scopes nest; the recorder is removed on
/// unwind as well as on return. This is how tests and the bench
/// harness capture traces without touching process-global state.
pub fn with_recorder<R>(recorder: Arc<dyn Recorder>, f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
            LOCALS.fetch_sub(1, Ordering::Relaxed);
        }
    }
    STACK.with(|s| s.borrow_mut().push(recorder));
    LOCALS.fetch_add(1, Ordering::Relaxed);
    let _guard = Guard;
    f()
}

/// Emits a deterministic event with the given name and fields. Sugar
/// for [`emit_event`] with [`Event::new`].
pub fn emit(name: &'static str, fields: Fields) {
    emit_event(Event::new(name, fields));
}

/// Routes one event to this thread's innermost scoped recorder, or to
/// the global sink when no scope is active. Drops the event when
/// neither exists.
pub fn emit_event(event: Event) {
    let local: Option<Arc<dyn Recorder>> = if LOCALS.load(Ordering::Relaxed) > 0 {
        STACK.with(|s| s.borrow().last().cloned())
    } else {
        None
    };
    let recorder: &dyn Recorder = match (&local, global()) {
        (Some(rec), _) => rec.as_ref(),
        (None, Some(sink)) => sink.as_ref(),
        (None, None) => return,
    };
    recorder.record(event);
}

/// A wall-clock stopwatch for instrumented call sites *outside* this
/// crate.
///
/// The workspace lint (rule D002) confines `std::time` to
/// `crates/telemetry/` so wall-clock can never leak onto the
/// deterministic event plane by accident. Code that legitimately needs
/// a wall measurement for a `wall` sub-object or an `"nd":true` event —
/// the serving plane timing a request, say — goes through this type,
/// keeping `Instant` itself inside the fence.
#[derive(Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts the clock.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Milliseconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1000.0
    }
}

/// Sleeps the calling thread for `ms` milliseconds. Lives here because
/// this crate is the workspace's one sanctioned wall-clock plane (lint
/// D002): pollers like `daisy top` borrow it instead of reaching for
/// `std::time` themselves.
pub fn sleep_ms(ms: u64) {
    std::thread::sleep(Duration::from_millis(ms));
}

/// Builds a [`Duration`] of `ms` milliseconds. The socket-deadline
/// companion to [`sleep_ms`]: code outside this crate that needs a
/// `Duration` for `set_read_timeout`-style APIs — the serving plane's
/// per-connection deadlines, say — borrows it from the sanctioned
/// wall-clock plane instead of naming `std::time` itself (lint D002).
pub fn duration_ms(ms: u64) -> Duration {
    Duration::from_millis(ms)
}

/// Emits one reading of the metrics registry and the phase profiler as
/// a [`schema::METRICS_SNAPSHOT`] event marked non-deterministic (the
/// values depend on thread count, scheduling and wall time, so the
/// deterministic view drops the snapshot wholesale). Its one field,
/// `exposition`, is the `/metrics` text of that moment
/// ([`expose::render`]), which [`expose::Snapshot::decode`] reads back.
pub fn emit_metrics_snapshot() {
    if !enabled() {
        return;
    }
    let fields = vec![field("exposition", expose::render())];
    emit_event(Event::new(schema::METRICS_SNAPSHOT, fields).non_deterministic());
}

/// Opens a phase scope for the rest of the enclosing block: the named
/// phase is recorded into [`profile`]'s registry when the block exits.
/// The argument must be a string literal naming a segment in
/// [`schema::PHASES`] — the workspace lint (rule S004) enforces this,
/// which is why call sites should prefer the macro over
/// [`profile::scope`].
///
/// ```
/// # daisy_telemetry::profile::set_enabled(false);
/// {
///     daisy_telemetry::phase_scope!("fit");
///     // ... work attributed to the `fit` phase ...
/// }
/// ```
#[macro_export]
macro_rules! phase_scope {
    ($name:literal) => {
        let _daisy_phase_scope = $crate::profile::scope($name);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_recorder_captures_and_restores() {
        let outer = Arc::new(MemoryRecorder::new());
        let inner = Arc::new(MemoryRecorder::new());
        with_recorder(outer.clone(), || {
            emit("a", vec![]);
            with_recorder(inner.clone(), || {
                emit("b", vec![]);
            });
            emit("c", vec![]);
        });
        assert_eq!(outer.count("a"), 1);
        assert_eq!(outer.count("b"), 0);
        assert_eq!(outer.count("c"), 1);
        assert_eq!(inner.count("b"), 1);
    }

    #[test]
    fn scoped_recorder_pops_on_panic() {
        let rec = Arc::new(MemoryRecorder::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_recorder(rec.clone(), || panic!("boom"));
        }));
        assert!(result.is_err());
        // The stack unwound cleanly: a fresh scope still works.
        let rec2 = Arc::new(MemoryRecorder::new());
        with_recorder(rec2.clone(), || emit("after", vec![]));
        assert_eq!(rec2.count("after"), 1);
    }

    #[test]
    fn metrics_snapshot_is_marked_non_deterministic() {
        metrics::counter("test.lib.jobs").add(3);
        let rec = Arc::new(MemoryRecorder::new());
        with_recorder(rec.clone(), emit_metrics_snapshot);
        let events = rec.events();
        assert_eq!(events.len(), 1);
        assert!(events[0].nd);
        let view = trace::deterministic_view(&rec.to_jsonl()).unwrap();
        assert!(view.is_empty());
    }

    #[test]
    fn metrics_snapshot_is_the_exposition_of_that_moment() {
        metrics::counter("test.lib.snapshot").add(2);
        // Other tests touch the process-global registry concurrently, so
        // compare only against a moment when two renders around the
        // emission agree.
        for _ in 0..100 {
            let rec = Arc::new(MemoryRecorder::new());
            let before = expose::render();
            with_recorder(rec.clone(), emit_metrics_snapshot);
            if expose::render() != before {
                continue;
            }
            let events = rec.events();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].name, schema::METRICS_SNAPSHOT);
            assert_eq!(events[0].fields, vec![field("exposition", before)]);
            // The JSON line carries the text intact, and it decodes.
            let line = trace::parse_trace(&rec.to_jsonl()).unwrap();
            let text = line[0]
                .get("exposition")
                .and_then(json::Json::as_str)
                .unwrap();
            let snap = expose::Snapshot::decode(text).unwrap();
            assert!(snap.value("test.lib.snapshot").unwrap() >= 2.0);
            return;
        }
        panic!("the registry never held still for one emission");
    }

    #[test]
    fn memory_recorder_jsonl_validates() {
        let rec = Arc::new(MemoryRecorder::new());
        with_recorder(rec.clone(), || {
            emit("x", vec![field("v", 1.5f64)]);
            emit("y", vec![field("s", "text")]);
        });
        let stats = trace::validate_trace(&rec.to_jsonl()).unwrap();
        assert_eq!(stats.events, 2);
    }
}
