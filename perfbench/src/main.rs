//! The daisy benchmark: one program, three workloads, every end-to-end
//! metric by name with its unit, and a traced mode that breaks each
//! workload down by layer. See `perfbench/README.md` for why each
//! workload exists and what each metric predicts.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fit_cell --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Any failed
//! correctness check makes `correct` false and the exit code 1.

mod data_plane;
mod fit_cell;
mod layers;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics: every workload reports each of them, measured
/// with tracing off. `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("latency_p50_ms", "ms"),
    ("rows_per_s", "1/s"),
];

/// Per-layer metrics of the traced run, `(name, unit)`. A layer a
/// workload never enters reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.matmul.self_s", "s"),
    ("tensor.matmul_nt.self_s", "s"),
    ("tensor.matmul_tn.self_s", "s"),
    ("tensor.matmul.work", "count"),
    ("tensor.matmul_nt.work", "count"),
    ("tensor.matmul_tn.work", "count"),
    ("tensor.pool.jobs", "count"),
    ("tensor.pool.serial_jobs", "count"),
    ("core.train.epoch.self_s", "s"),
    ("nn.optim.self_s", "s"),
    ("core.generator.forward_s", "s"),
    ("core.generator.forward_calls", "count"),
    ("core.discriminator.forward_s", "s"),
    ("core.discriminator.forward_calls", "count"),
    ("core.sampler.sample_s", "s"),
    ("core.sampler.sample_calls", "count"),
    ("core.train.rest_s", "s"),
    ("core.synthesizer.try_fit_s", "s"),
    ("core.row_stream.generate_s", "s"),
    ("eval.utility_s", "s"),
    ("core.row_stream.next_batch_ms", "ms"),
    ("core.row_stream.fast_forward_ms", "ms"),
    ("core.guard.recoveries", "count"),
    ("bench.cell_retries", "count"),
    ("data.transform.codec_fit_s", "s"),
    ("data.transform.encode_s", "s"),
    ("core.persist.from_bytes_ms", "ms"),
    ("serve.connect_ms", "ms"),
    ("serve.header_ms", "ms"),
    ("serve.accept_wait_ms", "ms"),
    ("serve.inmem_request_ms", "ms"),
    ("serve.first_frame_ms", "ms"),
    ("serve.frame_gap_ms", "ms"),
    ("serve.client_decode_s", "s"),
    ("serve.bytes_per_row", "count"),
    ("serve.rejected", "count"),
    ("data.csv.read_s", "s"),
    ("data.ingest.ingest_s", "s"),
    ("data.store.open_ms", "ms"),
    ("data.store.chunk_read_ms", "ms"),
    ("data.store.chunks", "count"),
    ("data.store.bytes", "count"),
    ("data.store.quarantined", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unattributed_share", "ratio"),
    ("bench.sender_late_ms", "ms"),
    ("bench.cell_s", "s"),
    ("bench.utility_f1", "f1"),
    ("bench.utility_f1_diff", "f1"),
    ("bench.first_row_p50_ms", "ms"),
    ("bench.failed_frac", "ratio"),
    ("bench.latency_tail_ms", "ms"),
    ("bench.tail_pct", "%"),
    ("bench.tail_samples", "count"),
    ("bench.ingest_rows_per_s", "1/s"),
    ("bench.read_rows_per_s", "1/s"),
    ("bench.pool_threads", "count"),
    ("bench.host_cores", "count"),
];

/// Worker-pool size every workload runs with, whatever the host or the
/// environment says: results must not depend on `DAISY_THREADS`.
const POOL_THREADS: usize = 2;

/// Times each workload sets itself up; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// What one invocation was asked to do.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for this run's files, inside the checkout.
    pub work: PathBuf,
}

impl Run {
    /// A 64-bit seed for the `k`-th input of this run, derived from the
    /// run seed (splitmix64 finalizer).
    pub fn sub_seed(&self, k: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(k.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Everything a workload measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<String, f64>,
    notes: Vec<String>,
    /// Check descriptions that failed.
    failures: Vec<String>,
    checks: usize,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name.to_string(), value);
    }

    /// A workload-specific figure printed by name and unit (not part of
    /// the JSON result), e.g. `cell_s` or `failed_frac`.
    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.notes.push(format!("{name} = {value} {unit}"));
    }

    /// Records one correctness check; a failure is reported on stderr
    /// and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }
}

/// A measuring budget: operations run back to back until the next one,
/// at the mean duration so far, would overrun it. At least one runs.
pub struct Budget {
    start: Instant,
    seconds: f64,
    ops: u32,
}

impl Budget {
    pub fn new(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
            ops: 0,
        }
    }

    /// True when another operation fits; counts it as started.
    pub fn another(&mut self) -> bool {
        let elapsed = secs(self.start);
        let fits = self.ops == 0 || elapsed + elapsed / f64::from(self.ops) <= self.seconds;
        if fits {
            self.ops += 1;
        }
        fits
    }

    pub fn elapsed(&self) -> f64 {
        secs(self.start)
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["fit_cell", "serve_stream", "serve_churn"];

/// Per-run scratch files live under this directory of the checkout.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// Removes every `DAISY_*` variable before any library code reads one,
/// so sizes, threads, tracing and profiling are the benchmark's alone.
fn isolate_environment() -> Vec<String> {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DAISY_"))
        .collect();
    for k in &knobs {
        std::env::remove_var(k);
    }
    knobs
}

fn main() {
    let ignored = isolate_environment();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload fit_cell|serve_stream|serve_churn|all \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if !ignored.is_empty() {
        eprintln!("ignoring environment knobs: {}", ignored.join(", "));
    }
    daisy_telemetry::profile::set_enabled(false);
    daisy_tensor::pool::set_threads(POOL_THREADS);
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    let mut all_correct = true;
    for workload in workloads {
        let run = Run {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            work: PathBuf::from(WORK_ROOT).join(format!("{workload}-{}", std::process::id())),
        };
        all_correct &= run_workload(workload, &run);
    }
    if !all_correct {
        std::process::exit(1);
    }
}

/// Runs one workload and prints its figures, ending with the JSON
/// result line. Returns whether every check passed; a workload that
/// could not run at all prints no result.
fn run_workload(workload: &str, run: &Run) -> bool {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload={workload} seed={} seconds={} trace={} pool_threads={} host_cores={host_cores}",
        run.seed,
        run.seconds,
        run.trace as u8,
        daisy_tensor::pool::num_threads()
    );
    if let Err(e) = std::fs::create_dir_all(&run.work) {
        eprintln!("error: cannot create {}: {e}", run.work.display());
        return false;
    }
    let mut report = Report::default();
    let outcome = match workload {
        "fit_cell" => fit_cell::run(run, &mut report),
        "serve_stream" => serve::run_stream(run, &mut report),
        _ => serve::run_churn(run, &mut report),
    };
    let _ = std::fs::remove_dir_all(&run.work);
    let _ = std::fs::remove_dir(WORK_ROOT);
    if let Err(e) = outcome {
        eprintln!("error: {workload}: {e}");
        return false;
    }
    report.layer(
        "bench.pool_threads",
        daisy_tensor::pool::num_threads() as f64,
    );
    report.layer("bench.host_cores", host_cores as f64);
    for note in &report.notes {
        println!("{note}");
    }

    let (names, values): (&[(&str, &str)], Vec<Option<f64>>) = if run.trace {
        (
            PER_LAYER,
            PER_LAYER
                .iter()
                .map(|(n, _)| Some(report.layers.get(*n).copied().unwrap_or(0.0)))
                .collect(),
        )
    } else {
        (
            &END_TO_END,
            END_TO_END
                .iter()
                .map(|(n, _)| report.e2e.get(n).copied())
                .collect(),
        )
    };
    let mut fields = Vec::new();
    for ((name, unit), value) in names.iter().zip(values) {
        let ok = value.is_some_and(f64::is_finite);
        report.check(ok, || {
            format!("metric {name} missing or not finite ({value:?})")
        });
        // `+ 0.0` turns the -0 of an empty float sum into 0.
        let v = value.filter(|v| v.is_finite()).unwrap_or(0.0) + 0.0;
        println!("{name} = {v} {unit}");
        // `{v}` prints the shortest string that reads back as the same
        // f64: every digit the measurement has.
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    report.check(report.attempted > 0, || "no operation was attempted".into());
    let correct = report.failures.is_empty();
    println!(
        "checks: {} run, {} failed",
        report.checks,
        report.failures.len()
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    correct
}
