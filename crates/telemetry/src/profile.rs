//! The phase profiler: rolling wall-time attribution per named phase.
//!
//! A *phase* is a named region of work opened with [`scope`] (or the
//! [`phase_scope!`](crate::phase_scope) macro) and closed when the
//! returned guard drops. Phases nest: a scope opened while another is
//! live on the same thread records under the parent's path joined with
//! `/` — e.g. `fit/epoch/matmul_nt`. For every path the registry keeps
//! three numbers: call count, **total** nanoseconds (guard lifetime),
//! and **self** nanoseconds (total minus time spent in child scopes),
//! so `daisy top` and `/profile` can rank phases by where time is
//! actually burned rather than by whose stack frame it happened under.
//!
//! Wall-clock is non-deterministic by nature, so profile data never
//! touches the deterministic event plane: it reaches a trace only
//! inside the `"nd":true` registry snapshot
//! ([`crate::emit_metrics_snapshot`]), which
//! [`crate::trace::deterministic_view`] drops wholesale. The
//! byte-identical trace contract is unaffected by profiling being on.
//! [`render_table`] is the one table every view prints phases with.
//!
//! Profiling is off by default. When off, [`scope`] is one relaxed
//! atomic load and returns an inert guard — cheap enough to leave in
//! kernel entry points. Enable with [`set_enabled`] or
//! `DAISY_PROFILE=1` (read by [`init_from_env`]).
//!
//! Phase names are a closed vocabulary ([`crate::schema::PHASES`]);
//! the workspace lint (rule S004) checks every literal passed to
//! [`scope`] / `phase_scope!` against it so the profiler, `daisy top`,
//! and the docs cannot drift apart silently.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Master switch. All [`scope`] calls are inert while this is `false`.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Aggregated counters for one phase path.
#[derive(Debug, Default, Clone, Copy)]
struct Agg {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
}

/// Path → aggregate. A `BTreeMap` keeps snapshot order deterministic
/// given identical keys (lint rule D001 bans `HashMap` iteration).
static REGISTRY: Mutex<BTreeMap<String, Agg>> = Mutex::new(BTreeMap::new());

/// One live scope on this thread's stack.
struct Frame {
    /// Length to truncate the thread path back to when this frame pops.
    path_truncate: usize,
    /// Nanoseconds spent in already-closed child scopes.
    child_ns: u64,
}

/// Per-thread phase state: the current `/`-joined path plus one frame
/// per live scope.
#[derive(Default)]
struct ThreadState {
    path: String,
    frames: Vec<Frame>,
    /// Closed-scope aggregates not yet merged into [`REGISTRY`].
    /// Flushed under the global lock only when the thread's stack
    /// empties (its root scope closes), so the steady-state cost of a
    /// scope drop is one thread-local map update — no lock, and no
    /// allocation once a path has been seen on this thread.
    local: BTreeMap<String, Agg>,
}

thread_local! {
    static STATE: RefCell<ThreadState> = RefCell::new(ThreadState::default());
}

/// Turns profiling on or off process-wide. Scopes already open keep the
/// enable decision they were created with, so toggling mid-flight never
/// corrupts the per-thread stack.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `true` when phase scopes are recording.
pub fn profiling_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enables profiling when `DAISY_PROFILE` is set to anything but `0`
/// or the empty string; returns whether profiling is now on. Binaries
/// call this once at startup next to [`crate::init_from_env`].
pub fn init_from_env() -> bool {
    match crate::knobs::raw("DAISY_PROFILE") {
        Some(v) if !v.is_empty() && v != "0" => set_enabled(true),
        _ => {}
    }
    profiling_enabled()
}

/// A point-in-time reading of one phase path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// `/`-joined phase path, e.g. `fit/epoch/matmul_nt`.
    pub path: String,
    /// Number of times the scope closed.
    pub calls: u64,
    /// Total guard-lifetime nanoseconds.
    pub total_ns: u64,
    /// Total minus nanoseconds attributed to child scopes.
    pub self_ns: u64,
}

/// An RAII guard for one phase. Created by [`scope`]; records on drop.
/// Inert (a no-op on drop) when profiling was disabled at creation.
#[must_use = "a phase scope records on drop; binding it to _ closes it immediately"]
pub struct PhaseScope {
    live: Option<LiveScope>,
}

struct LiveScope {
    start: Instant,
    /// Stack depth after this scope pushed; used to detect (and heal)
    /// out-of-order drops without panicking in a Drop impl.
    depth: usize,
}

/// Opens the phase `name` under the calling thread's current phase
/// path. Prefer the [`phase_scope!`](crate::phase_scope) macro at call
/// sites — the lint checks its literals against
/// [`crate::schema::PHASES`].
pub fn scope(name: &'static str) -> PhaseScope {
    if !ENABLED.load(Ordering::Relaxed) {
        return PhaseScope { live: None };
    }
    let depth = STATE.with(|s| {
        let mut s = s.borrow_mut();
        let path_truncate = s.path.len();
        if !s.path.is_empty() {
            s.path.push('/');
        }
        s.path.push_str(name);
        s.frames.push(Frame {
            path_truncate,
            child_ns: 0,
        });
        s.frames.len()
    });
    PhaseScope {
        live: Some(LiveScope {
            start: Instant::now(),
            depth,
        }),
    }
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let elapsed_ns = live.start.elapsed().as_nanos() as u64;
        let flush = STATE.with(|cell| {
            let mut borrow = cell.borrow_mut();
            let s = &mut *borrow;
            if s.frames.len() < live.depth {
                // An outer scope already unwound past us (out-of-order
                // drop); our time was folded into it. Nothing to do.
                return None;
            }
            // Fold any child scopes that leaked (e.g. via mem::forget)
            // into this frame rather than corrupting the path.
            while s.frames.len() > live.depth {
                if let Some(f) = s.frames.pop() {
                    s.path.truncate(f.path_truncate);
                }
            }
            let frame = s.frames.pop()?;
            let self_ns = elapsed_ns.saturating_sub(frame.child_ns);
            if let Some(parent) = s.frames.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(elapsed_ns);
            }
            match s.local.get_mut(&s.path) {
                Some(agg) => {
                    agg.calls += 1;
                    agg.total_ns = agg.total_ns.saturating_add(elapsed_ns);
                    agg.self_ns = agg.self_ns.saturating_add(self_ns);
                }
                None => {
                    let path = s.path.clone();
                    s.local.insert(
                        path,
                        Agg {
                            calls: 1,
                            total_ns: elapsed_ns,
                            self_ns,
                        },
                    );
                }
            }
            s.path.truncate(frame.path_truncate);
            if s.frames.is_empty() {
                Some(std::mem::take(&mut s.local))
            } else {
                None
            }
        });
        if let Some(local) = flush {
            let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
            for (path, agg) in local {
                let slot = reg.entry(path).or_default();
                slot.calls += agg.calls;
                slot.total_ns = slot.total_ns.saturating_add(agg.total_ns);
                slot.self_ns = slot.self_ns.saturating_add(agg.self_ns);
            }
        }
    }
}

/// Every phase recorded so far, in path order. Includes the calling
/// thread's not-yet-flushed aggregates, so a snapshot taken under a
/// live root scope (e.g. at fit end, inside the `fit` phase) still
/// sees every closed descendant; other threads' phases appear once
/// their root scope closes.
pub fn snapshot() -> Vec<PhaseStat> {
    let mut merged: BTreeMap<String, Agg> =
        REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).clone();
    STATE.with(|cell| {
        for (path, agg) in &cell.borrow().local {
            let slot = merged.entry(path.clone()).or_default();
            slot.calls += agg.calls;
            slot.total_ns = slot.total_ns.saturating_add(agg.total_ns);
            slot.self_ns = slot.self_ns.saturating_add(agg.self_ns);
        }
    });
    merged
        .iter()
        .map(|(path, agg)| PhaseStat {
            path: path.clone(),
            calls: agg.calls,
            total_ns: agg.total_ns,
            self_ns: agg.self_ns,
        })
        .collect()
}

/// The one phase table: a header line, then at most `limit` rows of
/// `phases`, hottest self time first (ties break on path so the order
/// is stable). `/profile`, `daisy report` and `daisy top` all print
/// phases through it.
pub fn render_table(phases: &[PhaseStat], limit: usize) -> String {
    let mut ranked: Vec<&PhaseStat> = phases.iter().collect();
    ranked.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
    let mut out = String::from("     self_ms     total_ms      calls  phase\n");
    for p in ranked.into_iter().take(limit) {
        let (self_ms, total_ms) = (p.self_ns as f64 / 1e6, p.total_ns as f64 / 1e6);
        let _ = writeln!(
            out,
            "{self_ms:>12.1} {total_ms:>12.1} {:>10}  {}",
            p.calls, p.path
        );
    }
    out
}

/// Clears the registry (call counts and times), including the calling
/// thread's unflushed aggregates. For tests and bench isolation; live
/// scopes on any thread are unaffected and will record into the fresh
/// registry when they close.
pub fn reset() {
    let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    reg.clear();
    drop(reg);
    STATE.with(|cell| cell.borrow_mut().local.clear());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin_for_ns(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(0u64);
        }
    }

    /// Profiler tests share one process-global registry and enable
    /// flag, so they serialize on a lock and reset around themselves.
    fn isolated(f: impl FnOnce()) {
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        f();
        set_enabled(false);
        reset();
    }

    #[test]
    fn disabled_scopes_record_nothing() {
        isolated(|| {
            set_enabled(false);
            {
                let _s = scope("fit");
            }
            assert!(snapshot().is_empty());
        });
    }

    #[test]
    fn nested_scopes_build_slash_paths_with_self_time() {
        isolated(|| {
            {
                let _outer = scope("fit");
                spin_for_ns(200_000);
                {
                    let _inner = scope("epoch");
                    spin_for_ns(200_000);
                }
            }
            let stats = snapshot();
            let paths: Vec<&str> = stats.iter().map(|s| s.path.as_str()).collect();
            assert_eq!(paths, vec!["fit", "fit/epoch"]);
            let fit = &stats[0];
            let epoch = &stats[1];
            assert_eq!(fit.calls, 1);
            assert_eq!(epoch.calls, 1);
            assert!(fit.total_ns >= epoch.total_ns, "parent covers child");
            assert!(
                fit.self_ns <= fit.total_ns - epoch.total_ns + 1_000_000,
                "child time is subtracted from parent self time"
            );
            assert_eq!(epoch.self_ns, epoch.total_ns, "leaf self == total");
        });
    }

    #[test]
    fn sibling_scopes_aggregate_calls() {
        isolated(|| {
            let _outer = scope("fit");
            for _ in 0..3 {
                let _inner = scope("epoch");
            }
            drop(scope("epoch"));
            let stats = snapshot();
            let epoch = stats
                .iter()
                .find(|s| s.path == "fit/epoch")
                .expect("aggregated path present");
            assert_eq!(epoch.calls, 4);
        });
    }

    #[test]
    fn render_table_ranks_by_self_time_and_keeps_the_row_limit() {
        let stat = |path: &str, self_ns: u64| PhaseStat {
            path: path.to_string(),
            calls: 3,
            total_ns: 2 * self_ns,
            self_ns,
        };
        let phases = [
            stat("conv2d", 100_000),
            stat("optim", 2_000_000),
            stat("matmul", 2_000_000),
        ];
        let table = render_table(&phases, 2);
        let rows: Vec<&str> = table.lines().collect();
        assert_eq!(rows[0], "     self_ms     total_ms      calls  phase");
        // Equal self time breaks on path; the limit drops the coldest.
        assert_eq!(rows[1], "         2.0          4.0          3  matmul");
        assert_eq!(rows[2], "         2.0          4.0          3  optim");
        assert_eq!(rows.len(), 3, "{table}");
        assert_eq!(render_table(&phases, usize::MAX).lines().count(), 4);
    }

    #[test]
    fn out_of_order_drop_heals_the_stack() {
        isolated(|| {
            let outer = scope("fit");
            let inner = scope("epoch");
            drop(outer); // wrong order: outer first
            drop(inner); // must not panic or corrupt the path
            {
                let _next = scope("generate");
            }
            let paths: Vec<String> = snapshot().into_iter().map(|s| s.path).collect();
            assert!(
                paths.contains(&"generate".to_string()),
                "stack healed: fresh scope records at the root, got {paths:?}"
            );
        });
    }

    #[test]
    fn threads_profile_independently() {
        isolated(|| {
            let _outer = scope("fit");
            // daisy-lint: allow(D003) -- test asserts thread-local phase paths don't leak across threads
            std::thread::spawn(|| {
                let _s = scope("ingest");
            })
            .join()
            .expect("profiled thread joins");
            let paths: Vec<String> = snapshot().into_iter().map(|s| s.path).collect();
            assert!(
                paths.contains(&"ingest".to_string()),
                "other thread's phase is rooted at its own stack, got {paths:?}"
            );
            assert!(!paths.contains(&"fit/ingest".to_string()));
        });
    }
}
