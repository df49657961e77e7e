//! Serving-plane throughput: a live `daisy-serve` TCP server answering
//! streamed generation requests from 1, 2, and 4 concurrent clients.
//! One "round" is every client fetching one full response; the median
//! round time over the samples yields rows/sec at that concurrency.
//! Timing is the same hand-rolled median-of-samples loop as the kernel
//! bench — no external benchmarking dependency.
//!
//! Set `DAISY_BENCH_JSON=<path>` to also write the measurements as JSON
//! (the committed `BENCH_serve.json` at the repo root is produced this
//! way); see `docs/SERVING.md` for the runbook and how to read it.

use daisy_core::{NetworkKind, Synthesizer, SynthesizerConfig, TrainConfig};
use daisy_datasets::by_name;
use daisy_serve::{fetch_raw, Request, ServeConfig, Server};
use daisy_telemetry::json::Json;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Mutex;
// daisy-lint: allow(D002) -- benchmarks measure wall time by design
use std::time::Instant;

/// Rows each client asks for per request.
const ROWS_PER_REQUEST: u64 = 4096;

/// One recorded measurement, mirrored into the JSON report.
struct Rec {
    name: String,
    clients: usize,
    start_row: u64,
    median_ms: f64,
    rows_per_sec: f64,
    samples: usize,
}

static RECORDS: Mutex<Vec<Rec>> = Mutex::new(Vec::new());

/// Relative cost of the hardened path (deadlines armed) over a server
/// with deadlines disabled, single client: `(t_on - t_off) / t_off`.
static DEADLINE_OVERHEAD: Mutex<Option<f64>> = Mutex::new(None);

/// Trains a small model on the Adult stand-in and saves it where the
/// server can load it. Training cost is irrelevant here — only the
/// serving path is measured.
fn train_model(path: &std::path::Path) {
    let spec = by_name("Adult").unwrap();
    let table = spec.generate(600, 3);
    let mut tc = TrainConfig::vtrain(10);
    tc.batch_size = 32;
    tc.epochs = 1;
    let mut cfg = SynthesizerConfig::new(NetworkKind::Mlp, tc);
    cfg.g_hidden = vec![32];
    cfg.d_hidden = vec![32];
    let fitted = Synthesizer::fit(&table, &cfg);
    fitted.save(path).expect("bench model saves");
}

/// One round: `clients` threads each fetch rows
/// `start_row..ROWS_PER_REQUEST` of their stream concurrently
/// (distinct seeds, so responses are independent byte streams);
/// returns once every response has fully arrived.
fn round(addr: SocketAddr, clients: usize, start_row: u64) {
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            // daisy-lint: allow(D003) -- bench client threads; responses are seed-reproducible
            std::thread::spawn(move || {
                let req = Request::new(0xBE5C + c as u64, ROWS_PER_REQUEST)
                    .resuming_at(start_row);
                let bytes = fetch_raw(addr, &req).expect("bench fetch succeeds");
                assert!(!bytes.is_empty());
                black_box(bytes.len())
            })
        })
        .collect();
    for h in handles {
        h.join().expect("bench client thread joins");
    }
}

/// Runs `samples` timed rounds (after one warm-up round) and records
/// the median round time plus the implied throughput. Returns the
/// median for derived comparisons.
fn bench_case(
    addr: SocketAddr,
    name: String,
    clients: usize,
    start_row: u64,
    samples: usize,
) -> f64 {
    round(addr, clients, start_row); // warm-up
    let mut times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        // daisy-lint: allow(D002) -- benchmark timing loop
        let start = Instant::now();
        round(addr, clients, start_row);
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = times[times.len() / 2];
    let rows = (clients as u64 * (ROWS_PER_REQUEST - start_row)) as f64;
    let rows_per_sec = rows / (median / 1e3);
    println!(
        "{name:<40} {median:>10.3} ms/round  {rows_per_sec:>12.0} rows/sec  ({samples} samples)"
    );
    RECORDS.lock().unwrap().push(Rec {
        name,
        clients,
        start_row,
        median_ms: median,
        rows_per_sec,
        samples,
    });
    median
}

/// Builds the JSON report through the shared telemetry [`Json`] writer,
/// same shape and serializer as `BENCH_kernels.json`.
fn bench_report(host_cores: usize) -> Json {
    let recs = RECORDS.lock().unwrap();
    let mut root = vec![
        (
            "generated_by".to_string(),
            Json::Str(
                "DAISY_BENCH_JSON=$PWD/BENCH_serve.json cargo bench -p daisy-bench --bench serve"
                    .to_string(),
            ),
        ),
        ("host_logical_cores".to_string(), Json::Num(host_cores as f64)),
        (
            "unit".to_string(),
            Json::Str(
                "median ms per round (all clients served once); rows_per_sec = \
clients * rows_per_request / median"
                    .to_string(),
            ),
        ),
        (
            "rows_per_request".to_string(),
            Json::Num(ROWS_PER_REQUEST as f64),
        ),
    ];
    if host_cores < 4 {
        root.push((
            "note".to_string(),
            Json::Str(format!(
                "host exposes only {host_cores} logical core(s); multi-client rows \
measure time-sliced connection handling, not parallel speedup — re-run on a 4+ core \
host to observe scaling"
            )),
        ));
    }
    if let Some(overhead) = *DEADLINE_OVERHEAD.lock().unwrap() {
        root.push((
            "deadline_overhead_pct".to_string(),
            Json::Num((overhead * 1e4).round() / 1e2),
        ));
    }
    let entries = recs
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("name".to_string(), Json::Str(r.name.clone())),
                ("clients".to_string(), Json::Num(r.clients as f64)),
                ("start_row".to_string(), Json::Num(r.start_row as f64)),
                (
                    "median_ms".to_string(),
                    Json::Num((r.median_ms * 1e3).round() / 1e3),
                ),
                (
                    "rows_per_sec".to_string(),
                    Json::Num(r.rows_per_sec.round()),
                ),
                ("samples".to_string(), Json::Num(r.samples as f64)),
            ])
        })
        .collect();
    root.push(("entries".to_string(), Json::Arr(entries)));
    Json::Obj(root)
}

fn write_json(path: &str, host_cores: usize) {
    let report = bench_report(host_cores);
    let mut body = report.to_pretty();
    body.push('\n');
    match std::fs::write(path, body) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!(
            "warning: DAISY_BENCH_JSON={path} is not writable ({e}); report not saved"
        ),
    }
}

fn main() {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("== serving throughput (host logical cores: {host_cores}) ==");
    let model_path = std::env::temp_dir().join("daisy-bench-serve-model.bin");
    train_model(&model_path);
    let cfg = ServeConfig {
        max_conn: 8,
        ..ServeConfig::default()
    };
    let server =
        Server::bind(&model_path, "127.0.0.1:0", cfg).expect("bench server binds");
    let addr = server.local_addr().expect("bench server has an address");
    // daisy-lint: allow(D003) -- accept loop thread; responses are seed-reproducible
    std::thread::spawn(move || {
        let _ = server.run();
    });
    let mut hardened_c1 = 0.0;
    for clients in [1usize, 2, 4] {
        let median = bench_case(
            addr,
            format!("serve_{ROWS_PER_REQUEST}rows_c{clients}"),
            clients,
            0,
            10,
        );
        if clients == 1 {
            hardened_c1 = median;
        }
    }
    // Resumed fetch: the server fast-forwards the seeded stream to the
    // midpoint, then serves the back half — the row measures resume
    // cost relative to plain fetches of the same volume.
    bench_case(
        addr,
        format!("serve_{ROWS_PER_REQUEST}rows_c1_resume_half"),
        1,
        ROWS_PER_REQUEST / 2,
        10,
    );
    // Overhead of the hardened path: the same single-client round
    // against a server with per-connection deadlines disabled.
    let cfg_off = ServeConfig {
        max_conn: 8,
        timeout_ms: 0,
        ..ServeConfig::default()
    };
    let server_off =
        Server::bind(&model_path, "127.0.0.1:0", cfg_off).expect("bench server binds");
    let addr_off = server_off.local_addr().expect("bench server has an address");
    // daisy-lint: allow(D003) -- accept loop thread; responses are seed-reproducible
    std::thread::spawn(move || {
        let _ = server_off.run();
    });
    let off_c1 = bench_case(
        addr_off,
        format!("serve_{ROWS_PER_REQUEST}rows_c1_deadlines_off"),
        1,
        0,
        10,
    );
    let overhead = (hardened_c1 - off_c1) / off_c1;
    println!(
        "deadline overhead (c1, armed vs off): {:+.2}% of round time",
        overhead * 1e2
    );
    *DEADLINE_OVERHEAD.lock().unwrap() = Some(overhead);
    std::fs::remove_file(&model_path).ok();
    if let Some(path) = daisy_telemetry::knobs::raw("DAISY_BENCH_JSON") {
        let path = if path == "1" || path.is_empty() {
            "BENCH_serve.json".to_string()
        } else {
            path
        };
        write_json(&path, host_cores);
    }
}
