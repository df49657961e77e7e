//! # daisy-bench
//!
//! The experiment harness: every table and figure of the paper's
//! evaluation section is regenerated by one bench target (see
//! `benches/`), all built on the shared plumbing in [`harness`].
//!
//! Run everything with `cargo bench`; a single experiment with e.g.
//! `cargo bench --bench table3_networks`. Experiments run in "quick"
//! mode by default (reduced rows/iterations, same shapes); set
//! `DAISY_FULL=1` for larger runs.
//!
//! The microbenchmarks (`kernels`, `serve`, `ingest`) share one timing
//! loop and one `BENCH_*.json` writer, [`micro`]: every row records the
//! min, median and median absolute deviation of its timed calls.
//!
//! Long sweeps survive crashes: [`harness::run_sweep_resumable`]
//! journals per-cell progress (see [`journal`]) and checkpoints the
//! in-flight cell's training state, so a killed sweep reruns only the
//! work it hadn't finished.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod journal;
pub mod micro;
