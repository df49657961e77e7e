//! The microbenchmark harness of the `kernels`, `serve` and `ingest`
//! benches: one timing function ([`time`]) and one report ([`Report`]).
//!
//! [`time`] makes one warm-up call, then `samples` timed calls, and
//! summarizes them as a [`Timing`]: min, median (`sorted[n / 2]`),
//! median absolute deviation and `n`. [`Report`] prints each row and
//! collects it with the pool's thread count and its bench-specific
//! fields; when `DAISY_BENCH_JSON` is set, [`Report::finish`] writes
//! the rows as `BENCH_<bench>.json` through the workspace's one JSON
//! writer ([`daisy_telemetry::json`]). Wall time comes from
//! [`Stopwatch`], the sanctioned wall-clock plane, so the suite carries
//! no external benchmarking dependency.

use daisy_telemetry::json::Json;
use daisy_telemetry::{knobs, Stopwatch};
use daisy_tensor::pool;
use std::path::Path;

/// The spread of one workload's timed calls, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// The fastest call.
    pub min_ms: f64,
    /// `sorted[n / 2]`: the upper median when `n` is even.
    pub median_ms: f64,
    /// The unscaled median absolute deviation: `sorted[n / 2]` of
    /// `|t - median_ms|` over the calls.
    pub mad_ms: f64,
    /// How many calls were timed (`n`).
    pub samples: usize,
}

impl Timing {
    /// Summarizes per-call times in milliseconds. Panics on an empty
    /// sample set.
    fn of(mut times_ms: Vec<f64>) -> Timing {
        assert!(!times_ms.is_empty(), "a timing needs at least one sample");
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let median_ms = median(&mut times_ms);
        let min_ms = times_ms[0];
        let samples = times_ms.len();
        let mut deviations: Vec<f64> = times_ms.iter().map(|t| (t - median_ms).abs()).collect();
        Timing {
            min_ms,
            median_ms,
            mad_ms: median(&mut deviations),
            samples,
        }
    }
}

/// Calls `f` once to warm up, then `samples` more times, each timed.
pub fn time(samples: usize, mut f: impl FnMut()) -> Timing {
    f();
    let times = (0..samples)
        .map(|_| {
            let clock = Stopwatch::start();
            f();
            clock.elapsed_ms()
        })
        .collect();
    Timing::of(times)
}

/// The logical cores this host exposes, as every report records them.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where `DAISY_BENCH_JSON=<value>` sends the `bench` report: `1` or
/// empty means `BENCH_<bench>.json` in the working directory, anything
/// else is the path itself.
fn report_path(bench: &str, value: &str) -> String {
    if value.is_empty() || value == "1" {
        format!("BENCH_{bench}.json")
    } else {
        value.to_string()
    }
}

/// One bench's rows and top-level fields, printed as they come and
/// written as `BENCH_<bench>.json` on [`Report::finish`].
pub struct Report {
    bench: &'static str,
    header: Vec<(String, Json)>,
    rows: Vec<Json>,
}

/// Milliseconds rounded to the microsecond, as every report stores them.
fn ms(x: f64) -> Json {
    Json::Num((x * 1e3).round() / 1e3)
}

impl Report {
    /// An empty report for the bench target `bench`, whose timed call
    /// is described by `unit` (for example "ms per iteration").
    pub fn new(bench: &'static str, unit: &str) -> Report {
        let generated_by = format!(
            "DAISY_BENCH_JSON=$PWD/BENCH_{bench}.json cargo bench -p daisy-bench --bench {bench}"
        );
        let unit = format!(
            "{unit}: min, median (sorted[n/2]) and unscaled median absolute deviation \
of `samples` timed calls after one warm-up call"
        );
        Report {
            bench,
            header: vec![
                ("generated_by".to_string(), Json::Str(generated_by)),
                (
                    "host_logical_cores".to_string(),
                    Json::Num(host_cores() as f64),
                ),
                ("unit".to_string(), Json::Str(unit)),
            ],
            rows: Vec::new(),
        }
    }

    /// Adds a top-level field; fields keep the order they were added in.
    pub fn header(&mut self, key: &str, value: Json) {
        self.header.push((key.to_string(), value));
    }

    /// Prints one row and keeps it with the pool's thread count and the
    /// bench-specific `fields`.
    pub fn row(&mut self, name: &str, t: Timing, fields: &[(&str, f64)]) {
        let threads = pool::num_threads();
        let extra: String = fields.iter().map(|(k, v)| format!(", {k} {v}")).collect();
        println!(
            "{name:<44} {:>10.3} ms  (min {:.3}, mad {:.3}, {} samples, {threads} thread(s){extra})",
            t.median_ms, t.min_ms, t.mad_ms, t.samples
        );
        let mut row = vec![
            ("name".to_string(), Json::Str(name.to_string())),
            ("threads".to_string(), Json::Num(threads as f64)),
        ];
        row.extend(fields.iter().map(|&(k, v)| (k.to_string(), Json::Num(v))));
        row.extend([
            ("min_ms".to_string(), ms(t.min_ms)),
            ("median_ms".to_string(), ms(t.median_ms)),
            ("mad_ms".to_string(), ms(t.mad_ms)),
            ("samples".to_string(), Json::Num(t.samples as f64)),
        ]);
        self.rows.push(Json::Obj(row));
    }

    /// Times `f` (see [`time`]) and records the result as row `name`.
    pub fn time(&mut self, name: &str, samples: usize, f: impl FnMut()) {
        let t = time(samples, f);
        self.row(name, t, &[]);
    }

    /// The report as one JSON object: the top-level fields, then the
    /// rows under `entries`.
    fn to_json(&self) -> Json {
        let mut root = self.header.clone();
        root.push(("entries".to_string(), Json::Arr(self.rows.clone())));
        Json::Obj(root)
    }

    /// Writes the report to `path`, replacing the file.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_pretty())
    }

    /// Writes the report where `DAISY_BENCH_JSON` says: `1` or empty
    /// means `BENCH_<bench>.json` in the working directory, anything
    /// else is the path. Does nothing when it is unset.
    pub fn finish(self) {
        let Some(value) = knobs::raw("DAISY_BENCH_JSON") else {
            return;
        };
        let path = report_path(self.bench, &value);
        match self.write(Path::new(&path)) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!(
                "warning: DAISY_BENCH_JSON={path} is not writable ({e}); report not saved"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_samples_give_the_middle_value_and_its_deviation() {
        let t = Timing::of(vec![5.0, 1.0, 3.0, 9.0, 4.0]);
        // sorted 1 3 4 5 9; deviations from 4: 3 1 0 1 5 -> 0 1 1 3 5.
        assert_eq!(
            t,
            Timing {
                min_ms: 1.0,
                median_ms: 4.0,
                mad_ms: 1.0,
                samples: 5
            }
        );
    }

    #[test]
    fn even_samples_take_the_upper_median() {
        let t = Timing::of(vec![4.0, 1.0, 2.0, 3.0, 10.0, 6.0]);
        // sorted 1 2 3 4 6 10: sorted[3] = 4; deviations 3 2 1 0 2 6
        // -> 0 1 2 2 3 6, sorted[3] = 2.
        assert_eq!(
            t,
            Timing {
                min_ms: 1.0,
                median_ms: 4.0,
                mad_ms: 2.0,
                samples: 6
            }
        );
    }

    #[test]
    fn equal_samples_have_no_spread() {
        let t = Timing::of(vec![2.5; 7]);
        assert_eq!(
            (t.min_ms, t.median_ms, t.mad_ms, t.samples),
            (2.5, 2.5, 0.0, 7)
        );
        assert_eq!(Timing::of(vec![0.75]).mad_ms, 0.0);
    }

    #[test]
    fn time_counts_only_the_timed_calls() {
        let mut calls = 0;
        let t = time(4, || calls += 1);
        assert_eq!((calls, t.samples), (5, 4));
        assert!(0.0 <= t.min_ms && t.min_ms <= t.median_ms && t.mad_ms >= 0.0);
    }

    #[test]
    fn one_or_empty_means_the_default_file_name() {
        assert_eq!(report_path("ingest", "1"), "BENCH_ingest.json");
        assert_eq!(report_path("kernels", ""), "BENCH_kernels.json");
        assert_eq!(report_path("serve", "/tmp/out.json"), "/tmp/out.json");
        assert_eq!(report_path("serve", "0"), "0");
    }

    #[test]
    fn a_written_report_parses_back_with_every_field() {
        let mut report = Report::new("unit", "ms per call");
        report.header("matmul_isa", Json::Str("portable".to_string()));
        report.header("rows_per_request", Json::Num(4096.0));
        let t = Timing::of(vec![1.25, 1.0, 3.5]);
        report.row("plain", t, &[]);
        report.row(
            "fielded",
            t,
            &[("clients", 2.0), ("rows_per_sec", 123456.0)],
        );
        let path = std::env::temp_dir().join(format!(
            "daisy-bench-micro-report-{}.json",
            std::process::id()
        ));
        report.write(&path).expect("report writes");
        let text = std::fs::read_to_string(&path).expect("report reads back");
        std::fs::remove_file(&path).ok();
        let doc = Json::parse(&text).expect("report parses");
        assert_eq!(doc, report.to_json());

        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "generated_by",
                "host_logical_cores",
                "unit",
                "matmul_isa",
                "rows_per_request",
                "entries"
            ]
        );
        assert_eq!(
            doc.get("generated_by").and_then(Json::as_str),
            Some("DAISY_BENCH_JSON=$PWD/BENCH_unit.json cargo bench -p daisy-bench --bench unit")
        );
        assert_eq!(
            doc.get("matmul_isa").and_then(Json::as_str),
            Some("portable")
        );
        assert_eq!(
            doc.get("rows_per_request").and_then(Json::as_u64),
            Some(4096)
        );
        let rows = doc.get("entries").and_then(Json::as_arr).expect("entries");
        assert_eq!(rows.len(), 2);
        let field = |row: &Json, key: &str| row.get(key).and_then(Json::as_f64);
        for row in rows {
            assert_eq!(field(row, "threads"), Some(pool::num_threads() as f64));
            assert_eq!(field(row, "min_ms"), Some(1.0));
            assert_eq!(field(row, "median_ms"), Some(1.25));
            assert_eq!(field(row, "mad_ms"), Some(0.25));
            assert_eq!(field(row, "samples"), Some(3.0));
        }
        assert_eq!(rows[0].get("name").and_then(Json::as_str), Some("plain"));
        assert_eq!(rows[0].as_obj().unwrap().len(), 6);
        assert_eq!(rows[1].get("name").and_then(Json::as_str), Some("fielded"));
        assert_eq!(field(&rows[1], "clients"), Some(2.0));
        assert_eq!(field(&rows[1], "rows_per_sec"), Some(123456.0));
    }
}
