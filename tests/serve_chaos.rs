//! Chaos tests for the serving plane: every injected network fault —
//! torn frames, stalled reads, mid-stream resets, a hot reload racing
//! a stream, a graceful drain — must end
//! in either a byte-identical reassembled stream or a typed error,
//! never a hang, a panic, or silently wrong rows.
//!
//! Faults are scripted through `daisy::serve::fault::ChaosProxy`, so
//! each failure lands at an exact frame or byte offset: the tests are
//! deterministic, not sleep-and-hope.

use daisy::prelude::*;
use daisy::serve::fault::{ChaosProxy, FaultPlan, ServeFault};
use daisy::serve::{
    fetch, fetch_raw, fetch_resumable, read_frame, serve_connection, RetryPolicy, ServeState,
    StreamDecoder, StreamItem, MAX_REQUEST_FRAME,
};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Trains one small conditional model and saves it once for the whole
/// test binary (same fixture shape as `serve_stream.rs`).
fn model_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let spec = daisy::datasets::by_name("Adult").unwrap();
        let table = spec.generate(500, 3);
        let mut tc = TrainConfig::ctrain(60);
        tc.batch_size = 32;
        tc.epochs = 1;
        let mut cfg = SynthesizerConfig::new(NetworkKind::Mlp, tc);
        cfg.g_hidden = vec![16];
        cfg.d_hidden = vec![16];
        let fitted = Synthesizer::fit(&table, &cfg);
        let path = std::env::temp_dir().join("daisy-serve-chaos-model.bin");
        fitted.save(&path).expect("test model saves");
        path
    })
}

/// A second model with different weights (different training seed), so
/// reload tests can observe the fingerprint actually change.
fn alt_model_bytes() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let spec = daisy::datasets::by_name("Adult").unwrap();
        let table = spec.generate(500, 3);
        let mut tc = TrainConfig::ctrain(60);
        tc.batch_size = 32;
        tc.epochs = 1;
        let mut cfg = SynthesizerConfig::new(NetworkKind::Mlp, tc);
        cfg.g_hidden = vec![16];
        cfg.d_hidden = vec![16];
        cfg.seed = 99;
        let fitted = Synthesizer::fit(&table, &cfg);
        let path = std::env::temp_dir().join("daisy-serve-chaos-alt-model.bin");
        fitted.save(&path).expect("alt model saves");
        std::fs::read(&path).expect("alt model bytes")
    })
}

/// A private, per-test copy of the fixture model, so reload/corruption
/// tests never race the other tests sharing the fixture file.
fn private_model_copy(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("daisy-chaos-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("model.bin");
    std::fs::copy(model_path(), &path).expect("model copies");
    path
}

/// Binds and detaches a server, returning the shared handle and its
/// serving address.
fn spawn_server(model: &PathBuf, cfg: ServeConfig) -> (Arc<Server>, std::net::SocketAddr) {
    let server = Arc::new(Server::bind(model, "127.0.0.1:0", cfg).expect("server binds"));
    let addr = server.local_addr().expect("server has an address");
    let handle = Arc::clone(&server);
    // daisy-lint: allow(D003) -- test server thread; responses are seed-reproducible
    std::thread::spawn(move || {
        let _ = handle.run();
    });
    (server, addr)
}

#[test]
fn torn_frame_retry_reassembles_byte_identical_stream() {
    let (server, addr) = spawn_server(model_path(), ServeConfig::default());
    let request = Request::new(11, 1000);

    let (direct, clean) =
        fetch_resumable(addr, &request, &RetryPolicy::default()).expect("clean fetch");
    assert_eq!(clean.attempts, 1, "no faults on the direct path");
    assert_eq!(direct.rows.len(), 1000);

    // Tear mid-frame after the header and one data frame have passed.
    let plan = FaultPlan::new(vec![ServeFault::TornFrame { after_frames: 2 }]);
    // daisy-lint: allow(D003) -- scripted chaos proxy; its faults are deterministic, not scheduled
    let proxy = ChaosProxy::spawn(addr, plan, Some(server.shared_model())).expect("proxy spawns");
    let (resumed, report) =
        fetch_resumable(proxy.addr(), &request, &RetryPolicy::default()).expect("retry converges");

    assert_eq!(report.attempts, 2, "one tear, one clean retry");
    assert_eq!(resumed.rows, direct.rows, "rows identical after reassembly");
    assert_eq!(
        report.payload, clean.payload,
        "reassembled payload bytes identical to the uninterrupted fetch"
    );
    assert_eq!(proxy.plan().remaining(), 0, "the scripted fault was consumed");
}

#[test]
fn mid_stream_reset_resumes_at_the_last_validated_row() {
    let (server, addr) = spawn_server(model_path(), ServeConfig::default());
    let request = Request::conditioned(3, 900, &conditional_category());

    let (direct, clean) =
        fetch_resumable(addr, &request, &RetryPolicy::default()).expect("clean fetch");
    assert_eq!(clean.attempts, 1);

    // Two resets on consecutive connections, then clean: the client
    // must converge in exactly three attempts, never re-receiving a
    // validated row.
    let plan = FaultPlan::new(vec![
        ServeFault::MidStreamReset { after_frames: 2 },
        ServeFault::MidStreamReset { after_frames: 1 },
    ]);
    // daisy-lint: allow(D003) -- scripted chaos proxy; its faults are deterministic, not scheduled
    let proxy = ChaosProxy::spawn(addr, plan, Some(server.shared_model())).expect("proxy spawns");
    let (resumed, report) =
        fetch_resumable(proxy.addr(), &request, &RetryPolicy::default()).expect("retry converges");

    assert_eq!(report.attempts, 3);
    assert_eq!(resumed.rows, direct.rows);
    assert_eq!(report.payload, clean.payload);
}

#[test]
fn stalled_request_hits_the_server_deadline_and_the_client_recovers() {
    let cfg = ServeConfig {
        timeout_ms: 300,
        ..ServeConfig::default()
    };
    let (server, addr) = spawn_server(model_path(), cfg);
    let request = Request::new(21, 600);

    let (direct, _) =
        fetch_resumable(addr, &request, &RetryPolicy::default()).expect("clean fetch");

    let timeouts_before = daisy::telemetry::metrics::counter("serve.timeouts").get();
    // Deliver 8 bytes of the request, then stall with the connection
    // held open: the server's read deadline — not a truncation — must
    // evict the connection.
    let plan = FaultPlan::new(vec![ServeFault::StalledRead { after_bytes: 8 }]);
    // daisy-lint: allow(D003) -- scripted chaos proxy; its faults are deterministic, not scheduled
    let proxy = ChaosProxy::spawn(addr, plan, Some(server.shared_model())).expect("proxy spawns");
    let (resumed, report) =
        fetch_resumable(proxy.addr(), &request, &RetryPolicy::default()).expect("retry converges");

    assert_eq!(report.attempts, 2, "one stalled attempt, one clean retry");
    assert_eq!(resumed.rows, direct.rows);
    assert!(
        daisy::telemetry::metrics::counter("serve.timeouts").get() > timeouts_before,
        "the eviction must be counted as a deadline timeout"
    );
}

#[test]
fn reload_during_stream_finishes_on_the_old_model() {
    let model = private_model_copy("reload-mid-stream");
    let (server, addr) = spawn_server(&model, ServeConfig::default());
    let request = Request::new(5, 1200);

    let (direct, clean) =
        fetch_resumable(addr, &request, &RetryPolicy::default()).expect("clean fetch");
    let old_fingerprint = server.shared_model().facts().fingerprint;

    // Put different weights at the model path, then let the proxy
    // trigger the reload after two response frames are in flight.
    std::fs::write(&model, alt_model_bytes()).expect("alt model lands at the path");
    let plan = FaultPlan::new(vec![ServeFault::ReloadDuringStream { after_frames: 2 }]);
    // daisy-lint: allow(D003) -- scripted chaos proxy; its faults are deterministic, not scheduled
    let proxy = ChaosProxy::spawn(addr, plan, Some(server.shared_model())).expect("proxy spawns");
    let (streamed, report) =
        fetch_resumable(proxy.addr(), &request, &RetryPolicy::default()).expect("stream completes");

    assert_eq!(report.attempts, 1, "a reload must not interrupt the stream");
    assert_eq!(
        report.payload, clean.payload,
        "the in-flight stream must finish on the model it started with"
    );
    assert_eq!(streamed.rows, direct.rows);

    // The swap itself happened: new fingerprint, bumped generation.
    let shared = server.shared_model();
    assert_eq!(shared.generation(), 1);
    assert_ne!(shared.facts().fingerprint, old_fingerprint);
    assert_eq!(shared.facts().fingerprint, daisy::wire::crc64(alt_model_bytes()));

    // New connections decode the new model: same request, different
    // bytes than the pre-reload stream.
    let (_, after) = fetch_resumable(addr, &request, &RetryPolicy::default()).expect("new fetch");
    assert_ne!(
        after.payload, clean.payload,
        "post-reload streams come from the new weights"
    );
}

#[test]
fn corrupt_reload_quarantines_and_the_old_model_keeps_serving() {
    let model = private_model_copy("corrupt-reload");
    let (server, addr) = spawn_server(&model, ServeConfig::default());
    let request = Request::new(8, 300);
    let shared = server.shared_model();
    let old_fingerprint = shared.facts().fingerprint;

    let before = fetch(addr, &request).expect("serves before the bad push");

    // Push garbage to the model path and reload: typed error, file
    // quarantined aside, old model untouched.
    std::fs::write(&model, b"not a model at all").expect("garbage lands");
    let Err(ServeError::CorruptModel { quarantined, .. }) = shared.reload() else {
        panic!("a corrupt replacement must be a typed CorruptModel error");
    };
    let moved = quarantined.expect("bad file quarantined aside");
    assert!(moved.exists(), "quarantine file exists");
    assert!(!model.exists(), "the garbage no longer sits at the model path");
    assert_eq!(shared.generation(), 0, "a failed reload bumps nothing");
    assert_eq!(shared.facts().fingerprint, old_fingerprint);

    let after = fetch(addr, &request).expect("still serving on the old model");
    assert_eq!(before.rows, after.rows, "same model, same rows");
}

/// The model file `bytes` (the fixture, whose output schema is
/// `schema`) with its label index moved past the schema's end, then
/// re-sealed. The CRC matches, so only the loader's own checks stand
/// between this file and a panic in `Schema::with_label`.
fn label_past_the_schema(bytes: &[u8], schema: &Schema) -> Vec<u8> {
    use daisy::data::AttrType;
    use daisy::wire::{crc64, magic::SYNTH_FOOTER, Writer};
    let encode = |label: usize| {
        let mut w = Writer::default();
        w.usize(schema.n_attrs());
        for a in schema.attrs() {
            w.str(&a.name);
            w.u8(u8::from(a.ty == AttrType::Categorical));
        }
        w.bool(true);
        w.usize(label);
        w.buf
    };
    let old = encode(schema.label().expect("the fixture is labeled"));
    let body = &bytes[..bytes.len() - SYNTH_FOOTER.len() - 8];
    let at = body
        .windows(old.len())
        .rposition(|w| w == old.as_slice())
        .expect("the output schema is in the file");
    let mut edited = [
        &body[..at],
        &encode(schema.n_attrs()),
        &body[at + old.len()..],
    ]
    .concat();
    let crc = crc64(&edited);
    edited.extend_from_slice(SYNTH_FOOTER);
    edited.extend_from_slice(&crc.to_le_bytes());
    edited
}

#[test]
fn resealed_malformed_reload_is_quarantined_and_the_admin_plane_keeps_answering() {
    use daisy::serve::{fetch_admin, post_admin};
    let model = private_model_copy("resealed-reload");
    let cfg = ServeConfig {
        admin_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    };
    let (server, addr) = spawn_server(&model, cfg);
    let admin = server
        .admin_addr()
        .expect("admin listener is on")
        .to_string();
    let request = Request::new(8, 300);
    let before = fetch(addr, &request).expect("serves before the bad push");

    let schema = daisy::datasets::by_name("Adult")
        .unwrap()
        .generate(500, 3)
        .schema()
        .clone();
    let bytes = std::fs::read(&model).expect("model bytes");
    std::fs::write(&model, label_past_the_schema(&bytes, &schema)).expect("edit lands");
    let err = post_admin(&admin, "/reload").expect_err("a malformed reload is refused");
    assert!(format!("{err}").contains("500"), "{err}");
    assert!(
        !model.exists(),
        "the malformed file was quarantined off the path"
    );

    let health = fetch_admin(&admin, "/healthz").expect("healthz still answers");
    assert!(health.contains("generation 0"), "{health}");
    let after = fetch(addr, &request).expect("still serving on the old model");
    assert_eq!(before.rows, after.rows, "same model, same rows");
}

#[test]
fn drain_seals_in_flight_streams_with_a_typed_end_frame() {
    use std::io::Read;
    use std::net::{Shutdown, TcpStream};

    let cfg = ServeConfig {
        drain_ms: 100,
        ..ServeConfig::default()
    };
    let (server, addr) = spawn_server(model_path(), cfg);
    let request = Request::new(33, 500_000);

    // Start a long stream, confirm bytes are flowing, then drain.
    let mut stream = TcpStream::connect(addr).expect("client connects");
    daisy::serve::write_frame(&mut stream, &request.encode()).expect("request sends");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut first = vec![0u8; 1024];
    stream.read_exact(&mut first).expect("stream started");
    server.drain_handle().begin_drain();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("stream sealed and closed");
    let mut bytes = first;
    bytes.extend_from_slice(&rest);

    // Every delivered frame validates; the seal is a draining end
    // frame naming the exact resume point.
    let mut decoder = StreamDecoder::new();
    let mut input = &bytes[..];
    while let Some(body) = read_frame(&mut input, MAX_REQUEST_FRAME * 1024).expect("frame reads") {
        decoder.feed(&body).expect("every delivered frame validates");
    }
    let end = *decoder.end().expect("stream was sealed, not torn");
    assert!(end.draining(), "the seal carries the draining flag");
    assert!(
        end.end_row < 500_000,
        "the stream was truncated, not completed"
    );
    assert_eq!(end.end_row % daisy::core::synthesizer::GENERATION_BATCH as u64, 0,
        "truncation lands on a batch boundary");

    // A request arriving on an already-accepted connection during a
    // drain is refused with a typed reason (in-memory: a fresh TCP
    // connect would park in the backlog of the now-gone accept loop).
    let (_bytes, model) = daisy::serve::load_model(model_path()).expect("fixture loads");
    let draining = ServeState::default();
    draining.begin_drain();
    let mut req_bytes = Vec::new();
    daisy::serve::write_frame(&mut req_bytes, &Request::new(1, 10).encode())
        .expect("writing to a Vec cannot fail");
    let mut input = &req_bytes[..];
    let mut output = Vec::new();
    serve_connection(&model, 0, &ServeConfig::default(), &draining, &mut input, &mut output)
        .expect("rejection is answered on the wire, not an error");
    let Err(ServeError::Rejected(reason)) = daisy::serve::decode_response(&output) else {
        panic!("new requests during a drain must be typed rejections");
    };
    assert!(reason.starts_with("draining"), "got: {reason}");

    // Resume the sealed stream against a fresh replica: the
    // concatenation must be byte-identical to one uninterrupted fetch.
    let (_, addr2) = spawn_server(model_path(), ServeConfig::default());
    let (_, tail) = fetch_resumable(addr2, &request.resuming_at(end.end_row), &RetryPolicy::default())
        .expect("resume succeeds");
    let (_, full) =
        fetch_resumable(addr2, &request, &RetryPolicy::default()).expect("uninterrupted fetch");

    let mut reassembled = Vec::new();
    let mut decoder = StreamDecoder::new();
    let mut input = &bytes[..];
    while let Some(body) = read_frame(&mut input, MAX_REQUEST_FRAME * 1024).expect("frame reads") {
        if let StreamItem::Rows { payload, .. } = decoder.feed(&body).expect("validates") {
            reassembled.extend_from_slice(&payload);
        }
    }
    reassembled.extend_from_slice(&tail.payload);
    assert_eq!(
        reassembled, full.payload,
        "drained head + resumed tail == uninterrupted stream, byte for byte"
    );
}

#[test]
fn retries_exhaust_into_the_underlying_error() {
    let (server, addr) = spawn_server(model_path(), ServeConfig::default());
    // More scripted resets than allowed attempts: the client must give
    // up with the transport error, not hang.
    let plan = FaultPlan::new(vec![
        ServeFault::MidStreamReset { after_frames: 1 },
        ServeFault::MidStreamReset { after_frames: 1 },
        ServeFault::MidStreamReset { after_frames: 1 },
    ]);
    // daisy-lint: allow(D003) -- scripted chaos proxy; its faults are deterministic, not scheduled
    let proxy = ChaosProxy::spawn(addr, plan, Some(server.shared_model())).expect("proxy spawns");
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff_ms: 10,
        ..RetryPolicy::default()
    };
    let err = fetch_resumable(proxy.addr(), &Request::new(2, 800), &policy)
        .expect_err("exhausted retries surface the failure");
    assert!(matches!(err, ServeError::Protocol(_)), "got: {err:?}");

    // Permanent rejections never retry: first attempt, typed error.
    let err = fetch_raw_condition_error(addr);
    assert!(matches!(err, ServeError::Rejected(_)));
}

/// A permanent rejection (unknown category) through the resumable
/// client — must fail on the first attempt.
fn fetch_raw_condition_error(addr: std::net::SocketAddr) -> ServeError {
    let policy = RetryPolicy::default();
    match fetch_resumable(addr, &Request::conditioned(1, 10, "no-such-category"), &policy) {
        Ok(_) => panic!("an unknown category must be rejected"),
        Err(e) => e,
    }
}

/// First category of the fixture's conditional label.
fn conditional_category() -> String {
    let (_, model) = daisy::serve::load_model(model_path()).expect("fixture loads");
    model.condition_categories()[1].clone()
}

/// The raw one-shot path still works against a clean server (guards
/// the non-resumable fetch from regressions while the client grew).
#[test]
fn one_shot_fetch_raw_is_still_byte_stable() {
    let (_, addr) = spawn_server(model_path(), ServeConfig::default());
    let request = Request::new(77, 512);
    let a = fetch_raw(addr, &request).expect("fetch");
    let b = fetch_raw(addr, &request).expect("fetch");
    assert_eq!(a, b, "replay stays byte-identical");
}
