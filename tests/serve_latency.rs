//! Guards for the two waits the serve path no longer has.
//!
//! - **One write per frame.** `write_frame` hands the kernel each
//!   `[len][crc64][body]` frame in one `write` call, so on a
//!   `TCP_NODELAY` socket the frame leaves at once instead of waiting
//!   for Nagle's algorithm to release its tail. Checked in memory for
//!   every frame kind the server writes.
//! - **A drain wakes a blocked accept loop.** `Server::run` blocks in
//!   `accept` (or, with every slot held, on the slot wait) rather than
//!   polling; `begin_drain` must still end it. Each `run` is joined
//!   with a bounded wait, so a loop that never wakes fails the test
//!   instead of hanging it.

use daisy::prelude::*;
use daisy::serve::{
    load_model, read_frame, serve_connection, write_frame, ServeState, StreamDecoder, StreamItem,
    MAX_REQUEST_FRAME,
};
use daisy::telemetry::{duration_ms, sleep_ms};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};

/// How long a drained `run` may take to return: the drain window and
/// straggler grace of the configs below, with room for a loaded host.
const JOIN_BOUND_MS: u64 = 5_000;

fn model_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let spec = daisy::datasets::by_name("Adult").unwrap();
        let table = spec.generate(300, 3);
        let mut tc = TrainConfig::ctrain(20);
        tc.batch_size = 32;
        tc.epochs = 1;
        let mut cfg = SynthesizerConfig::new(NetworkKind::Mlp, tc);
        cfg.g_hidden = vec![16];
        cfg.d_hidden = vec![16];
        let fitted = Synthesizer::fit(&table, &cfg);
        let path = std::env::temp_dir().join("daisy-serve-latency-model.bin");
        fitted.save(&path).expect("test model saves");
        path
    })
}

/// A `Write` that records every `write` call it receives, and can
/// expire a drain once it has seen a given number of calls.
struct WriteLog<'a> {
    calls: Vec<Vec<u8>>,
    expire_after: Option<(usize, &'a ServeState)>,
}

impl Write for WriteLog<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls.push(buf.to_vec());
        if let Some((after, state)) = self.expire_after {
            if self.calls.len() == after {
                state.expire_drain();
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Serves `requests` in memory and returns the recorded write calls.
fn serve_recorded(
    requests: &[Request],
    cfg: &ServeConfig,
    expire_after: Option<usize>,
) -> Vec<Vec<u8>> {
    let (_bytes, model) = load_model(model_path()).expect("test model loads");
    let mut input = Vec::new();
    for request in requests {
        write_frame(&mut input, &request.encode()).expect("writing to a Vec cannot fail");
    }
    let state = ServeState::default();
    let mut log = WriteLog {
        calls: Vec::new(),
        expire_after: expire_after.map(|after| (after, &state)),
    };
    serve_connection(&model, 0, cfg, &state, &mut &input[..], &mut log)
        .expect("in-memory connection serves cleanly");
    log.calls
}

/// Asserts every recorded call is exactly one whole frame and returns
/// the frame bodies in order.
fn frames_one_per_call(calls: &[Vec<u8>]) -> Vec<Vec<u8>> {
    calls
        .iter()
        .enumerate()
        .map(|(i, call)| {
            let mut input = &call[..];
            let body = read_frame(&mut input, MAX_REQUEST_FRAME * 1024)
                .unwrap_or_else(|e| panic!("write call {i} is not a whole frame: {e}"))
                .unwrap_or_else(|| panic!("write call {i} is empty"));
            assert!(
                input.is_empty(),
                "write call {i} holds more than one frame ({} trailing bytes)",
                input.len()
            );
            body
        })
        .collect()
}

#[test]
fn every_frame_is_one_write_call() {
    let cfg = ServeConfig {
        max_rows: 1_000,
        ..ServeConfig::default()
    };
    // An accepted 700-row stream (header, three data frames, end frame)
    // and then a request over the row cap (a rejection header).
    let calls = serve_recorded(&[Request::new(5, 700), Request::new(6, 1_001)], &cfg, None);
    let bodies = frames_one_per_call(&calls);
    assert_eq!(
        bodies.len(),
        6,
        "1 header + 3 data frames + 1 end + 1 rejection"
    );

    let mut decoder = StreamDecoder::new();
    let kinds: Vec<&str> = bodies[..5]
        .iter()
        .map(
            |body| match decoder.feed(body).expect("each frame validates") {
                StreamItem::Header => "header",
                StreamItem::Rows { .. } => "rows",
                StreamItem::End(_) => "end",
            },
        )
        .collect();
    assert_eq!(kinds, ["header", "rows", "rows", "rows", "end"]);
    assert!(decoder.complete());
    match StreamDecoder::new().feed(&bodies[5]) {
        Err(ServeError::Rejected(reason)) => assert!(reason.contains("cap"), "{reason}"),
        other => panic!("expected the row-cap rejection, got {other:?}"),
    }
}

#[test]
fn a_drain_sealed_end_frame_is_one_write_call() {
    // The drain window expires after the header and the first data
    // frame: the stream is sealed at the next batch boundary.
    let calls = serve_recorded(&[Request::new(9, 2_000)], &ServeConfig::default(), Some(2));
    let bodies = frames_one_per_call(&calls);
    assert_eq!(
        bodies.len(),
        3,
        "header, one data frame, the draining end frame"
    );
    let mut decoder = StreamDecoder::new();
    for body in &bodies {
        decoder.feed(body).expect("each frame validates");
    }
    let end = decoder.end().expect("the stream is sealed");
    assert!(end.draining(), "the seal carries the draining flag");
    assert_eq!(end.end_row, 256);
}

/// Runs `server` on a thread; the receiver yields `run`'s result.
fn run_in_background(server: Arc<Server>) -> mpsc::Receiver<Result<(), ServeError>> {
    let (tx, rx) = mpsc::channel();
    // daisy-lint: allow(D003) -- test server thread; the test joins it with a bounded wait
    std::thread::spawn(move || {
        let _ = tx.send(server.run());
    });
    rx
}

/// Waits at most [`JOIN_BOUND_MS`] for `run` to return, and requires
/// that it returned `Ok`.
fn join_bounded(done: &mpsc::Receiver<Result<(), ServeError>>, what: &str) {
    match done.recv_timeout(duration_ms(JOIN_BOUND_MS)) {
        Ok(result) => result.unwrap_or_else(|e| panic!("{what}: run failed: {e}")),
        Err(_) => panic!("{what}: run did not return within {JOIN_BOUND_MS} ms of the drain"),
    }
}

#[test]
fn a_drain_wakes_an_accept_loop_that_never_saw_a_connection() {
    let server = Arc::new(
        Server::bind(model_path(), "127.0.0.1:0", ServeConfig::default()).expect("server binds"),
    );
    let drain = server.drain_handle();
    let done = run_in_background(Arc::clone(&server));
    // The loop blocks rather than returning on its own...
    assert!(
        done.recv_timeout(duration_ms(100)).is_err(),
        "run returned before any drain"
    );
    // ...and the drain wakes it.
    drain.begin_drain();
    join_bounded(&done, "idle server");
}

#[test]
fn a_drain_wakes_an_accept_loop_waiting_for_a_slot() {
    let cfg = ServeConfig {
        max_conn: 1,
        drain_ms: 100,
        ..ServeConfig::default()
    };
    let server = Arc::new(Server::bind(model_path(), "127.0.0.1:0", cfg).expect("server binds"));
    let addr = server.local_addr().expect("server has an address");
    let drain = server.drain_handle();
    let done = run_in_background(Arc::clone(&server));

    // One idle connection holds the only slot, so the loop waits for a
    // slot, not in `accept`.
    let idle = TcpStream::connect(addr).expect("client connects");
    let mut waited = 0;
    while server.active_connections() < 1 {
        assert!(
            waited < JOIN_BOUND_MS,
            "the idle connection never took its slot"
        );
        sleep_ms(5);
        waited += 5;
    }
    drain.begin_drain();
    join_bounded(&done, "server with every slot held");
    drop(idle);
}
