//! Serving-plane throughput: a live `daisy-serve` TCP server answering
//! streamed generation requests from 1, 2, and 4 concurrent clients.
//! One "round" is every client fetching one full response; the median
//! round time over the samples yields rows/sec at that concurrency.
//! Timing and the report go through [`daisy_bench::micro`], as in the
//! kernel bench.
//!
//! Set `DAISY_BENCH_JSON=<path>` to also write the measurements as JSON
//! (the committed `BENCH_serve.json` at the repo root is produced this
//! way); see `docs/SERVING.md` for the runbook and how to read it.

use daisy_bench::micro::{self, host_cores, Report};
use daisy_core::{NetworkKind, Synthesizer, SynthesizerConfig, TrainConfig};
use daisy_datasets::by_name;
use daisy_serve::{fetch_raw, Request, ServeConfig, Server};
use daisy_telemetry::json::Json;
use std::hint::black_box;
use std::net::SocketAddr;

/// Rows each client asks for per request.
const ROWS_PER_REQUEST: u64 = 4096;

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
                let req = Request::new(0xBE5C + c as u64, ROWS_PER_REQUEST).resuming_at(start_row);
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

/// Times 10 rounds (after one warm-up round) and records them with the
/// throughput the median round implies. Returns the median for derived
/// comparisons.
fn bench_case(r: &mut Report, addr: SocketAddr, name: &str, clients: usize, start_row: u64) -> f64 {
    let t = micro::time(10, || round(addr, clients, start_row));
    let rows = (clients as u64 * (ROWS_PER_REQUEST - start_row)) as f64;
    let rows_per_sec = (rows / (t.median_ms / 1e3)).round();
    let fields = [
        ("clients", clients as f64),
        ("start_row", start_row as f64),
        ("rows_per_sec", rows_per_sec),
    ];
    r.row(name, t, &fields);
    t.median_ms
}

fn main() {
    let host_cores = host_cores();
    println!("== serving throughput (host logical cores: {host_cores}) ==");
    let mut r = Report::new(
        "serve",
        "ms per round (all clients served once); rows_per_sec = clients * \
rows_per_request / median",
    );
    r.header("rows_per_request", Json::Num(ROWS_PER_REQUEST as f64));
    if host_cores < 4 {
        r.header(
            "note",
            Json::Str(format!(
                "host exposes only {host_cores} logical core(s); multi-client rows \
measure time-sliced connection handling, not parallel speedup — re-run on a 4+ core \
host to observe scaling"
            )),
        );
    }
    let model_path = std::env::temp_dir().join("daisy-bench-serve-model.bin");
    train_model(&model_path);
    let cfg = ServeConfig {
        max_conn: 8,
        ..ServeConfig::default()
    };
    let server = Server::bind(&model_path, "127.0.0.1:0", cfg).expect("bench server binds");
    let addr = server.local_addr().expect("bench server has an address");
    // daisy-lint: allow(D003) -- accept loop thread; responses are seed-reproducible
    std::thread::spawn(move || {
        let _ = server.run();
    });
    let mut hardened_c1 = 0.0;
    for clients in [1usize, 2, 4] {
        let name = format!("serve_{ROWS_PER_REQUEST}rows_c{clients}");
        let median = bench_case(&mut r, addr, &name, clients, 0);
        if clients == 1 {
            hardened_c1 = median;
        }
    }
    // Resumed fetch: the server fast-forwards the seeded stream to the
    // midpoint, then serves the back half — the row measures resume
    // cost relative to plain fetches of the same volume.
    let name = format!("serve_{ROWS_PER_REQUEST}rows_c1_resume_half");
    bench_case(&mut r, addr, &name, 1, ROWS_PER_REQUEST / 2);
    // Overhead of the hardened path: the same single-client round
    // against a server with per-connection deadlines disabled.
    let cfg_off = ServeConfig {
        max_conn: 8,
        timeout_ms: 0,
        ..ServeConfig::default()
    };
    let server_off = Server::bind(&model_path, "127.0.0.1:0", cfg_off).expect("bench server binds");
    let addr_off = server_off
        .local_addr()
        .expect("bench server has an address");
    // daisy-lint: allow(D003) -- accept loop thread; responses are seed-reproducible
    std::thread::spawn(move || {
        let _ = server_off.run();
    });
    let name = format!("serve_{ROWS_PER_REQUEST}rows_c1_deadlines_off");
    let off_c1 = bench_case(&mut r, addr_off, &name, 1, 0);
    // Relative cost of the hardened path over a server with deadlines
    // disabled, single client: `(t_on - t_off) / t_off`.
    let overhead = (hardened_c1 - off_c1) / off_c1;
    println!(
        "deadline overhead (c1, armed vs off): {:+.2}% of round time",
        overhead * 1e2
    );
    r.header(
        "deadline_overhead_pct",
        Json::Num((overhead * 1e4).round() / 1e2),
    );
    std::fs::remove_file(&model_path).ok();
    r.finish();
}
