//! `serve_stream` and `serve_churn`: an in-process `daisy_serve::Server`
//! over a conditional MLP model that set-up fits, driven over loopback
//! TCP by at most two client threads.
//!
//! - `serve_stream` is a closed loop: two clients, one persistent
//!   connection each, 16 384-row requests back to back.
//! - `serve_churn` is an open loop: a seeded exponential arrival
//!   schedule at [`CHURN_RATE`] requests/s, a fresh connection per
//!   request, short plain / label-pinned / resumed requests.

use crate::fit_cell::adult_split;
use crate::layers;
use crate::stats::{self, Outcome, Tally};
use crate::{secs, Budget, Report, Run, SETUPS};
use daisy_core::{FittedSynthesizer, NetworkKind, Synthesizer, SynthesizerConfig, TrainConfig};
use daisy_data::{TransformConfig, Value};
use daisy_serve::{
    read_frame, serve_connection, write_frame, Request, ServeConfig, ServeError, ServeState,
    Server, StreamDecoder, StreamItem,
};
use daisy_tensor::Rng;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Rows of the Adult stand-in the served model is fitted on.
const MODEL_ROWS: usize = 1600;
/// CTrain iterations for the served model: enough for a usable model,
/// cheap enough to fit three times per run.
const MODEL_ITERATIONS: usize = 60;
/// Rows per `serve_stream` request.
const STREAM_ROWS: u64 = 16_384;
/// Concurrent clients (and connections) of `serve_stream`; the host has
/// two cores, shared with the server.
const STREAM_CLIENTS: usize = 2;
/// Every `STREAM_PINNED`-th `serve_stream` request is label-pinned.
const STREAM_PINNED: u64 = 4;
/// Offered load of `serve_churn`, requests per second. Well under
/// capacity (a fresh-connection 256-row fetch takes ≈5 ms), so the
/// latencies measure the request path rather than queueing. At 100/s
/// the two senders, each waiting for its response, already ran 0.7–3 ms
/// late on average, and that queueing doubled the tail's run-to-run
/// spread; at 50/s they run 0.25–0.7 ms late.
const CHURN_RATE: f64 = 50.0;
/// Sender threads of `serve_churn`.
const CHURN_SENDERS: usize = 2;
/// Rows of a short `serve_churn` request (one generation batch).
const SHORT_ROWS: u64 = 256;
/// The resumed `serve_churn` request: rows `[3840, 4096)` of a 4096-row
/// stream, so 15 batches are fast-forwarded RNG-only and one generated.
const RESUME_TOTAL: u64 = 4096;
const RESUME_AT: u64 = 3840;
/// Largest response frame body accepted: the protocol's own 64 MiB cap,
/// which `daisy-serve` does not export.
const MAX_RESPONSE_FRAME: usize = 1 << 26;

/// The harness's conditional-GAN default (CTrain on an MLP, gn/ht) at
/// pinned sizes.
fn model_config(seed: u64) -> SynthesizerConfig {
    let mut train = TrainConfig::ctrain(MODEL_ITERATIONS);
    train.batch_size = 48;
    let mut cfg = SynthesizerConfig::new(NetworkKind::Mlp, train);
    cfg.transform = TransformConfig::gn_ht();
    cfg.g_hidden = vec![48, 48];
    cfg.d_hidden = vec![48, 24];
    cfg.noise_dim = 24;
    cfg.seed = seed;
    cfg
}

/// A running server plus what the load generator needs to know about
/// its model.
struct Served {
    addr: SocketAddr,
    state: Arc<ServeState>,
    thread: JoinHandle<Result<(), ServeError>>,
    model_bytes: Vec<u8>,
    categories: Vec<String>,
    label_col: usize,
}

impl Served {
    fn stop(self) -> Result<(), String> {
        self.state.begin_drain();
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }

    fn model(&self) -> FittedSynthesizer {
        FittedSynthesizer::from_bytes(&self.model_bytes).expect("the served model decodes")
    }
}

/// Set-up, [`SETUPS`] times: draw the training data, fit the model,
/// save it, bind a server. The last server is the one measured.
fn setup(run: &Run, report: &mut Report) -> Result<Served, String> {
    let mut times = Vec::new();
    let mut last = None;
    for k in 0..SETUPS as u64 {
        let start = Instant::now();
        let (train, _test) = adult_split(MODEL_ROWS, run.sub_seed(k));
        let fitted = Synthesizer::try_fit(&train, &model_config(run.sub_seed(100 + k)))
            .map_err(|e| format!("serve model fit: {e}"))?;
        let path = run.work.join(format!("model-{k}.daisy"));
        fitted.save(&path).map_err(|e| format!("save model: {e}"))?;
        let server = Server::bind(&path, "127.0.0.1:0", ServeConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        times.push(secs(start));
        report.check(fitted.outcome().is_clean(), || {
            format!("serve: model fit not clean: {}", fitted.outcome().summary())
        });
        last = Some((server, path, fitted));
    }
    report.e2e("setup_s", stats::median(&times).unwrap_or(0.0));
    let (server, path, fitted) = last.expect("at least one set-up");
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let state = server.drain_handle();
    let thread = std::thread::spawn(move || server.run());
    let label_col = fitted
        .output_template()
        .schema()
        .label()
        .ok_or("served model has no label column")?;
    Ok(Served {
        addr,
        state,
        thread,
        model_bytes: std::fs::read(&path).map_err(|e| e.to_string())?,
        categories: fitted.condition_categories().to_vec(),
        label_col,
    })
}

/// Client-side timings of one response, in milliseconds from the
/// request write unless noted.
#[derive(Default, Clone)]
struct Timing {
    connect_ms: f64,
    /// From connect start (or request write on a reused connection) to
    /// the validated accepted header.
    header_ms: f64,
    first_frame_ms: f64,
    frame_gaps_ms: Vec<f64>,
    decode_s: f64,
    bytes: usize,
}

/// What one validated response delivered.
struct Delivered {
    rows: u64,
    timing: Timing,
}

/// Sends `request` on `stream` as one write and reads its response
/// through [`StreamDecoder`], which checks every frame CRC, contiguous
/// rows and the end frame's payload CRC. `pinned` names the label code
/// every row must carry. `detail` records per-frame timings.
fn exchange(
    stream: &TcpStream,
    request: &Request,
    expect_rows: u64,
    pinned: Option<(usize, u32)>,
    detail: bool,
    mut timing: Timing,
    origin: Instant,
) -> Result<Delivered, ServeError> {
    let mut frame = Vec::new();
    write_frame(&mut frame, &request.encode())?;
    let mut writer = stream;
    writer.write_all(&frame)?;
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut decoder = StreamDecoder::new();
    let sent = Instant::now();
    let mut rows = 0u64;
    let mut last_frame: Option<Instant> = None;
    loop {
        let Some(body) = read_frame(&mut reader, MAX_RESPONSE_FRAME)? else {
            return Err(ServeError::Protocol(
                "response ended before its end frame".into(),
            ));
        };
        let arrived = Instant::now();
        timing.bytes += body.len() + 16;
        let item = decoder.feed(&body)?;
        if detail {
            timing.decode_s += secs(arrived);
        }
        match item {
            StreamItem::Header => timing.header_ms = secs(origin) * 1e3,
            StreamItem::Rows { rows: batch, .. } => {
                if let Some((col, code)) = pinned {
                    if batch.iter().any(|r| r.get(col) != Some(&Value::Cat(code))) {
                        return Err(ServeError::Protocol("row violates its label pin".into()));
                    }
                }
                if rows == 0 {
                    timing.first_frame_ms = (arrived - sent).as_secs_f64() * 1e3;
                }
                if detail {
                    if let Some(prev) = last_frame {
                        timing
                            .frame_gaps_ms
                            .push((arrived - prev).as_secs_f64() * 1e3);
                    }
                    last_frame = Some(arrived);
                }
                rows += batch.len() as u64;
            }
            StreamItem::End(_) => break,
        }
    }
    if !decoder.complete() || rows != expect_rows {
        return Err(ServeError::Protocol(format!(
            "incomplete response: {rows} of {expect_rows} rows"
        )));
    }
    Ok(Delivered { rows, timing })
}

fn classify(result: Result<Delivered, ServeError>, ms: f64) -> (Outcome, Option<Delivered>) {
    match result {
        Ok(d) => (Outcome::Ok(ms), Some(d)),
        Err(ServeError::Rejected(_)) => (Outcome::Rejected, None),
        Err(e) => {
            eprintln!("request failed: {e}");
            (Outcome::Failed, None)
        }
    }
}

/// Everything one load phase measured.
#[derive(Default)]
struct Load {
    tally: Tally,
    rows: u64,
    wall_s: f64,
    timings: Vec<Timing>,
    lateness_ms: Vec<f64>,
    /// When each validated request finished (seconds into the phase),
    /// parallel to `tally.latencies_ms`.
    done_s: Vec<f64>,
}

impl Load {
    fn merge(&mut self, other: Load) {
        self.tally.merge(other.tally);
        self.rows += other.rows;
        self.wall_s = self.wall_s.max(other.wall_s);
        self.timings.extend(other.timings);
        self.lateness_ms.extend(other.lateness_ms);
        self.done_s.extend(other.done_s);
    }

    /// Latencies in the order their requests finished.
    fn latencies_in_order(&self) -> Vec<f64> {
        let mut pairs: Vec<(f64, f64)> = self
            .done_s
            .iter()
            .copied()
            .zip(self.tally.latencies_ms.iter().copied())
            .collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        pairs.into_iter().map(|(_, ms)| ms).collect()
    }

    fn p50_ms(&self) -> f64 {
        stats::median(&self.tally.latencies_ms).unwrap_or(0.0)
    }
}

fn stream_request(
    seed: u64,
    i: u64,
    categories: &[String],
    label_col: usize,
) -> (Request, Option<(usize, u32)>) {
    let request_seed = seed.wrapping_add(i);
    if i % STREAM_PINNED == STREAM_PINNED - 1 && !categories.is_empty() {
        let code = (i / STREAM_PINNED) as usize % categories.len();
        (
            Request::conditioned(request_seed, STREAM_ROWS, &categories[code]),
            Some((label_col, code as u32)),
        )
    } else {
        (Request::new(request_seed, STREAM_ROWS), None)
    }
}

/// One `serve_stream` phase: every client holds one connection and
/// sends its next request only after the previous one validated.
fn stream_phase(served: &Served, seed: u64, seconds: f64, detail: bool) -> Load {
    let barrier = Arc::new(Barrier::new(STREAM_CLIENTS));
    let results = Mutex::new(Load::default());
    let origin = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..STREAM_CLIENTS as u64 {
            let barrier = Arc::clone(&barrier);
            let results = &results;
            scope.spawn(move || {
                let client_seed = seed.wrapping_add(client << 40);
                barrier.wait();
                let mut load = Load::default();
                let mut budget = Budget::new(seconds);
                let connect_start = Instant::now();
                let stream = match TcpStream::connect(served.addr) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("connect failed: {e}");
                        load.tally.record(Outcome::Failed);
                        results.lock().expect("results lock").merge(load);
                        return;
                    }
                };
                let connect_ms = secs(connect_start) * 1e3;
                let _ = stream.set_nodelay(true);
                let mut i = 0u64;
                while budget.another() {
                    let (request, pinned) =
                        stream_request(client_seed, i, &served.categories, served.label_col);
                    let start = Instant::now();
                    let timing = Timing {
                        connect_ms: if i == 0 { connect_ms } else { 0.0 },
                        ..Timing::default()
                    };
                    let result = exchange(
                        &stream,
                        &request,
                        STREAM_ROWS,
                        pinned,
                        detail,
                        timing,
                        start,
                    );
                    let ms = secs(start) * 1e3;
                    let (outcome, delivered) = classify(result, ms);
                    load.tally.record(outcome);
                    match delivered {
                        Some(d) => {
                            load.rows += d.rows;
                            load.timings.push(d.timing);
                            load.done_s.push(secs(origin));
                        }
                        None => break,
                    }
                    i += 1;
                }
                load.wall_s = budget.elapsed();
                results.lock().expect("results lock").merge(load);
            });
        }
    });
    results.into_inner().expect("results lock")
}

/// The `serve_churn` request mix: plain, label-pinned and resumed, in
/// equal shares drawn from the schedule's RNG.
fn churn_request(
    kind: usize,
    seed: u64,
    categories: &[String],
    label_col: usize,
) -> (Request, u64, Option<(usize, u32)>) {
    match kind {
        0 => (Request::new(seed, SHORT_ROWS), SHORT_ROWS, None),
        1 => {
            let code = (seed % categories.len().max(1) as u64) as usize;
            (
                Request::conditioned(seed, SHORT_ROWS, &categories[code]),
                SHORT_ROWS,
                Some((label_col, code as u32)),
            )
        }
        _ => (
            Request::new(seed, RESUME_TOTAL).resuming_at(RESUME_AT),
            RESUME_TOTAL - RESUME_AT,
            None,
        ),
    }
}

/// One `serve_churn` phase: requests leave at their scheduled due
/// times from up to [`CHURN_SENDERS`] threads, each on a fresh
/// connection, and are timed from their due time.
fn churn_phase(served: &Served, seed: u64, seconds: f64, detail: bool) -> Load {
    let mut rng = Rng::seed_from_u64(seed);
    let count = (CHURN_RATE * seconds).round().max(1.0) as usize;
    let due = stats::exponential_schedule(CHURN_RATE, count, || 1.0 - rng.f64());
    let plan: Vec<(f64, usize, u64)> = due
        .into_iter()
        .map(|d| (d, rng.usize(3), rng.next_u64()))
        .collect();
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Load::default());
    let origin = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CHURN_SENDERS {
            let (plan, next, results) = (&plan, &next, &results);
            scope.spawn(move || {
                let mut load = Load::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(due_ms, kind, req_seed)) = plan.get(i) else {
                        break;
                    };
                    let wait = due_ms - secs(origin) * 1e3;
                    if wait > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(wait / 1e3));
                    }
                    let sent_ms = secs(origin) * 1e3;
                    let (request, rows, pinned) =
                        churn_request(kind, req_seed, &served.categories, served.label_col);
                    let connect_start = Instant::now();
                    let result = TcpStream::connect(served.addr)
                        .map_err(ServeError::Io)
                        .and_then(|stream| {
                            let timing = Timing {
                                connect_ms: secs(connect_start) * 1e3,
                                ..Timing::default()
                            };
                            let d = exchange(
                                &stream,
                                &request,
                                rows,
                                pinned,
                                detail,
                                timing,
                                connect_start,
                            );
                            let _ = stream.shutdown(Shutdown::Both);
                            d
                        });
                    let t = stats::open_loop(due_ms, sent_ms, secs(origin) * 1e3);
                    let (outcome, delivered) = classify(result, t.latency_ms);
                    load.tally.record(outcome);
                    load.lateness_ms.push(t.lateness_ms);
                    if let Some(d) = delivered {
                        load.rows += d.rows;
                        load.timings.push(d.timing);
                        load.done_s.push(secs(origin));
                    }
                }
                load.wall_s = secs(origin);
                results.lock().expect("results lock").merge(load);
            });
        }
    });
    results.into_inner().expect("results lock")
}

/// Runs `serve_connection` on in-memory buffers: the server's whole
/// data path for `request` without the socket. Returns milliseconds.
fn inmem_ms(model: &FittedSynthesizer, request: &Request) -> f64 {
    let mut input = Vec::new();
    write_frame(&mut input, &request.encode()).expect("in-memory write");
    let mut output = Vec::new();
    let start = Instant::now();
    serve_connection(
        model,
        0,
        &ServeConfig::default(),
        &ServeState::default(),
        &mut input.as_slice(),
        &mut output,
    )
    .expect("in-memory request is served");
    secs(start) * 1e3
}

fn median_of(n: usize, mut f: impl FnMut(usize) -> f64) -> f64 {
    let v: Vec<f64> = (0..n).map(&mut f).collect();
    stats::median(&v).unwrap_or(0.0)
}

/// One seed fetched twice must come back byte-identical, for every
/// request kind the workload sends.
fn check_replay(served: &Served, requests: &[Request], report: &mut Report) {
    for request in requests {
        let a = daisy_serve::fetch_raw(served.addr, request);
        let b = daisy_serve::fetch_raw(served.addr, request);
        let same = matches!((&a, &b), (Ok(a), Ok(b)) if a == b && !a.is_empty());
        report.check(same, || {
            format!("serve: replay of {request:?} is not byte-identical")
        });
        if let Ok(bytes) = &a {
            let decoded = daisy_serve::decode_response(bytes);
            report.check(decoded.is_ok(), || {
                format!("serve: replayed response does not validate: {decoded:?}")
            });
        }
    }
}

/// End-to-end figures of a load phase.
fn report_e2e(load: &Load, report: &mut Report) {
    let tail = stats::windowed_tail(&load.latencies_in_order());
    report.e2e("latency_p50_ms", load.p50_ms());
    report.e2e("rows_per_s", load.rows as f64 / load.wall_s.max(1e-9));
    let first: Vec<f64> = load.timings.iter().map(|t| t.first_frame_ms).collect();
    let first_p50 = stats::median(&first).unwrap_or(0.0);
    report.note("requests", load.tally.attempted as f64, "count");
    report.note("rejected", load.tally.rejected as f64, "count");
    report.note("failed_frac", load.tally.failed_frac(), "ratio");
    report.note("first_row_p50_ms", first_p50, "ms");
    report.note("latency_tail_ms", tail.map_or(0.0, |t| t.value), "ms");
    report.note("latency_tail_pct", tail.map_or(0.0, |t| t.pct), "%");
    report.note(
        "latency_tail_samples",
        tail.map_or(0, |t| t.n) as f64,
        "count",
    );
    report.note(
        "latency_tail_beyond",
        tail.map_or(0, |t| t.beyond) as f64,
        "count",
    );
    report.layer("bench.first_row_p50_ms", first_p50);
    report.layer("bench.failed_frac", load.tally.failed_frac());
    report.layer("bench.latency_tail_ms", tail.map_or(0.0, |t| t.value));
    report.layer("bench.tail_pct", tail.map_or(0.0, |t| t.pct));
    report.layer("bench.tail_samples", tail.map_or(0, |t| t.n) as f64);
    report.layer("serve.rejected", load.tally.rejected as f64);
    report.attempted += load.tally.attempted;
    report.failed += load.tally.failures();
    report.check(load.tally.failures() == 0, || {
        format!(
            "serve: {} of {} requests failed",
            load.tally.failures(),
            load.tally.attempted
        )
    });
}

/// Per-layer figures of the traced phase, per request.
fn report_layers(
    load: &Load,
    untraced: &Load,
    served: &Served,
    inmem_request_ms: f64,
    report: &mut Report,
) {
    let n = load.timings.len().max(1) as f64;
    layers::report_captured(report, &layers::capture(), n);
    let model = served.model();
    let from_bytes_ms = median_of(5, |_| {
        let start = Instant::now();
        let _ = std::hint::black_box(FittedSynthesizer::from_bytes(&served.model_bytes));
        secs(start) * 1e3
    });
    let header_inmem_ms = median_of(5, |i| inmem_ms(&model, &Request::new(i as u64, 0)));
    let pick = |f: fn(&Timing) -> f64| -> Vec<f64> { load.timings.iter().map(f).collect() };
    let connects: Vec<f64> = pick(|t| t.connect_ms)
        .into_iter()
        .filter(|&c| c > 0.0)
        .collect();
    let connect_ms = stats::median(&connects).unwrap_or(0.0);
    let header_ms = stats::median(&pick(|t| t.header_ms)).unwrap_or(0.0);
    let gaps: Vec<f64> = load
        .timings
        .iter()
        .flat_map(|t| t.frame_gaps_ms.clone())
        .collect();
    let decode_s = stats::mean(&pick(|t| t.decode_s));
    let bytes: usize = load.timings.iter().map(|t| t.bytes).sum();
    report.layer("core.persist.from_bytes_ms", from_bytes_ms);
    report.layer("serve.connect_ms", connect_ms);
    report.layer("serve.header_ms", header_ms);
    if !connects.is_empty() && connects.len() == load.timings.len() {
        // Every request opened its own connection, so its header wait
        // holds one accept.
        report.layer(
            "serve.accept_wait_ms",
            header_ms - from_bytes_ms - header_inmem_ms,
        );
    }
    report.layer("serve.inmem_request_ms", inmem_request_ms);
    report.layer(
        "serve.first_frame_ms",
        stats::median(&pick(|t| t.first_frame_ms)).unwrap_or(0.0),
    );
    report.layer("serve.frame_gap_ms", stats::mean(&gaps));
    report.layer("serve.client_decode_s", decode_s);
    report.layer(
        "serve.bytes_per_row",
        bytes as f64 / load.rows.max(1) as f64,
    );
    let traced_p50 = load.p50_ms();
    let untraced_p50 = untraced.p50_ms();
    report.layer(
        "bench.trace_overhead_pct",
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
    );
    // Directly timed layer work per request — connection set-up and its
    // replica decode (once per connection), the server's in-memory data
    // path, client decode, sender lateness; accept polling, socket
    // transfer and scheduling are what remains.
    let per_connection: f64 = connects.iter().map(|c| c + from_bytes_ms).sum();
    let attributed =
        per_connection / n + inmem_request_ms + decode_s * 1e3 + stats::mean(&load.lateness_ms);
    let wall = stats::mean(&load.tally.latencies_ms);
    report.layer("bench.unattributed_share", 1.0 - attributed / wall);
}

fn in_process_stream_layers(served: &Served, report: &mut Report, resume: bool) {
    let model = served.model();
    let mut batch_ms = Vec::new();
    let mut stream = model.stream_rows(STREAM_ROWS as usize, 0x5eed);
    loop {
        let start = Instant::now();
        let Some(batch) = stream.next_batch() else {
            break;
        };
        batch_ms.push(secs(start) * 1e3);
        std::hint::black_box(batch);
    }
    report.layer("core.row_stream.next_batch_ms", stats::mean(&batch_ms));
    if resume {
        let ff = median_of(9, |i| {
            let mut s = model
                .try_stream_rows(RESUME_TOTAL as usize, i as u64, None)
                .expect("unconditioned stream");
            let start = Instant::now();
            s.fast_forward(RESUME_AT as usize);
            secs(start) * 1e3
        });
        report.layer("core.row_stream.fast_forward_ms", ff);
    }
}

pub fn run_stream(run: &Run, report: &mut Report) -> Result<(), String> {
    let served = setup(run, report)?;
    let seed = run.sub_seed(200);
    stats::reset_peak_rss();
    if !run.trace {
        let load = stream_phase(&served, seed, run.seconds, false);
        report.e2e("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));
        report_e2e(&load, report);
    } else {
        let untraced = stream_phase(&served, seed, run.seconds / 2.0, false);
        report_e2e(&untraced, report);
        let load = layers::traced(|| stream_phase(&served, seed ^ 1, run.seconds / 2.0, true));
        report.attempted += load.tally.attempted;
        report.failed += load.tally.failures();
        report.check(load.tally.failures() == 0, || {
            format!("serve: {} traced requests failed", load.tally.failures())
        });
        let model = served.model();
        let (request, _) = stream_request(seed, 0, &served.categories, served.label_col);
        let inmem = median_of(3, |_| inmem_ms(&model, &request));
        report_layers(&load, &untraced, &served, inmem, report);
        in_process_stream_layers(&served, report, false);
    }
    let (plain, _) = stream_request(seed, 0, &served.categories, served.label_col);
    let (pinned, _) = stream_request(
        seed,
        STREAM_PINNED - 1,
        &served.categories,
        served.label_col,
    );
    check_replay(&served, &[plain, pinned], report);
    served.stop()
}

pub fn run_churn(run: &Run, report: &mut Report) -> Result<(), String> {
    let served = setup(run, report)?;
    let seed = run.sub_seed(300);
    stats::reset_peak_rss();
    let late = |load: &Load| stats::mean(&load.lateness_ms);
    if !run.trace {
        let load = churn_phase(&served, seed, run.seconds, false);
        report.e2e("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));
        report_e2e(&load, report);
        report.note("sender_late_ms", late(&load), "ms");
    } else {
        let untraced = churn_phase(&served, seed, run.seconds / 2.0, false);
        report_e2e(&untraced, report);
        let load = layers::traced(|| churn_phase(&served, seed ^ 1, run.seconds / 2.0, true));
        report.attempted += load.tally.attempted;
        report.failed += load.tally.failures();
        report.check(load.tally.failures() == 0, || {
            format!("serve: {} traced requests failed", load.tally.failures())
        });
        report.layer("bench.sender_late_ms", late(&load));
        let model = served.model();
        let inmem = median_of(9, |i| {
            let (request, _, _) =
                churn_request(i % 3, i as u64, &served.categories, served.label_col);
            inmem_ms(&model, &request)
        });
        report_layers(&load, &untraced, &served, inmem, report);
        in_process_stream_layers(&served, report, true);
    }
    let requests: Vec<Request> = (0..3)
        .map(|kind| churn_request(kind, seed, &served.categories, served.label_col).0)
        .collect();
    check_replay(&served, &requests, report);
    served.stop()
}
