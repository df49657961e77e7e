//! Integration tests for the read-only admin plane: a second listener
//! (`DAISY_SERVE_ADMIN`) that answers `/healthz`, `/metrics`
//! (Prometheus-style exposition), and `/profile` without ever touching
//! the serving data path — no slot is consumed, no response byte
//! changes, and scraping works before, during, and after traffic.

use daisy::prelude::*;
use daisy::serve::{fetch, fetch_admin, post_admin};
use daisy::telemetry::expose;
use std::io::Read;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{mpsc, OnceLock};

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
        let path = std::env::temp_dir().join("daisy-admin-endpoint-model.bin");
        fitted.save(&path).expect("test model saves");
        path
    })
}

#[test]
fn admin_endpoint_answers_healthz_metrics_and_profile() {
    let cfg = ServeConfig {
        admin_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    };
    let server = Server::bind(model_path(), "127.0.0.1:0", cfg).expect("server binds");
    let addr = server.local_addr().expect("server has an address");
    let admin = server.admin_addr().expect("admin listener is on").to_string();
    // daisy-lint: allow(D003) -- test server thread; responses are seed-reproducible
    std::thread::spawn(move || {
        let _ = server.run();
    });

    // The admin plane answers before any client traffic arrives.
    let health = fetch_admin(&admin, "/healthz").expect("healthz answers");
    assert!(health.starts_with("ok\n"), "{health}");
    assert!(health.contains("fingerprint 0x"), "{health}");
    assert!(health.contains("active_conns"), "{health}");

    // Serve one real request; the scrape must reflect it.
    let response = fetch(addr, &Request::new(5, 64)).expect("rows stream");
    assert_eq!(response.rows.len(), 64);

    let text = fetch_admin(&admin, "/metrics").expect("metrics answers");
    let samples = expose::parse(&text).expect("exposition parses");
    let requests =
        expose::sample_value(&samples, "daisy_serve_requests").expect("serve.requests exposed");
    assert!(requests >= 1.0, "at least the request above:\n{text}");
    let rows = expose::sample_value(&samples, "daisy_serve_rows").expect("serve.rows exposed");
    assert!(rows >= 64.0, "{text}");
    assert!(
        samples
            .iter()
            .any(|s| s.name == "daisy_serve_request_us_bucket"),
        "request latency histogram exposed:\n{text}"
    );

    let profile = fetch_admin(&admin, "/profile").expect("profile answers");
    assert!(profile.contains("phase"), "{profile}");

    // Unknown paths are a typed rejection, not a panic or a hang.
    assert!(fetch_admin(&admin, "/nope").is_err());
}

#[test]
fn an_idle_admin_connection_does_not_stall_the_admin_plane() {
    let cfg = ServeConfig {
        admin_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    };
    let server = Server::bind(model_path(), "127.0.0.1:0", cfg).expect("server binds");
    let admin = server
        .admin_addr()
        .expect("admin listener is on")
        .to_string();
    // daisy-lint: allow(D003) -- test server thread; responses are seed-reproducible
    std::thread::spawn(move || {
        let _ = server.run();
    });

    // Connects first and sends nothing. The admin listener answers one
    // connection at a time, so this one is taken first.
    let mut idle = TcpStream::connect(&admin).expect("idle client connects");
    let (tx, rx) = mpsc::channel();
    let probe = admin.clone();
    // daisy-lint: allow(D003) -- test client thread; the probe may block at a stalled listener
    std::thread::spawn(move || {
        let _ = tx.send(fetch_admin(&probe, "/healthz"));
    });
    // The admin deadline is 2 s; allow 3 s more.
    let health = rx
        .recv_timeout(daisy_telemetry::duration_ms(5_000))
        .expect("healthz answers while an idle connection is open")
        .expect("healthz answers");
    assert!(health.starts_with("ok\n"), "{health}");
    // The idle connection was dropped unanswered.
    idle.set_read_timeout(Some(daisy_telemetry::duration_ms(5_000)))
        .expect("read timeout sets");
    let mut byte = [0u8; 1];
    assert_eq!(
        idle.read(&mut byte)
            .expect("the admin listener closed the idle connection"),
        0
    );
}

#[test]
fn admin_reports_reload_and_drain_transitions() {
    // A private model copy: this test overwrites and corrupts the file.
    let dir = std::env::temp_dir().join("daisy-admin-reload-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let model = dir.join("model.bin");
    std::fs::copy(model_path(), &model).expect("model copies");

    let cfg = ServeConfig {
        admin_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    };
    let server = Server::bind(&model, "127.0.0.1:0", cfg).expect("server binds");
    let addr = server.local_addr().expect("server has an address");
    let admin = server.admin_addr().expect("admin listener is on").to_string();
    let drain = server.drain_handle();
    // daisy-lint: allow(D003) -- test server thread; responses are seed-reproducible
    std::thread::spawn(move || {
        let _ = server.run();
    });

    let health = fetch_admin(&admin, "/healthz").expect("healthz answers");
    assert!(health.contains("generation 0"), "{health}");
    assert!(health.contains("draining false"), "{health}");
    let old_fingerprint = fingerprint_line(&health);

    // Retrain different weights, land them at the model path, reload
    // through the admin plane: the fingerprint and generation move.
    std::fs::write(&model, alt_model_bytes()).expect("new weights land");
    let body = post_admin(&admin, "/reload").expect("reload succeeds");
    assert!(body.starts_with("reloaded\n"), "{body}");
    assert!(body.contains("generation 1"), "{body}");
    let health = fetch_admin(&admin, "/healthz").expect("healthz answers");
    assert!(health.contains("generation 1"), "{health}");
    assert_ne!(fingerprint_line(&health), old_fingerprint, "{health}");
    let new_fingerprint = fingerprint_line(&health);

    // Reload is not idempotent-blind: same bytes, new generation.
    let body = post_admin(&admin, "/reload").expect("second reload succeeds");
    assert!(body.contains("generation 2"), "{body}");

    // A corrupt replacement: typed 500, old fingerprint still serving,
    // and the garbage quarantined off the path.
    std::fs::write(&model, b"junk").expect("garbage lands");
    let err = post_admin(&admin, "/reload").expect_err("corrupt reload is refused");
    let msg = format!("{err}");
    assert!(msg.contains("500"), "{msg}");
    assert!(msg.contains("old model still serving"), "{msg}");
    let health = fetch_admin(&admin, "/healthz").expect("healthz answers");
    assert_eq!(fingerprint_line(&health), new_fingerprint, "{health}");
    assert!(health.contains("generation 2"), "{health}");
    assert!(!model.exists(), "garbage was quarantined off the path");

    // GET cannot mutate: /reload over GET is method-not-allowed.
    let err = fetch_admin(&admin, "/reload").expect_err("GET /reload is refused");
    assert!(format!("{err}").contains("405"), "{err}");

    // The data plane kept serving across all of the above.
    let response = fetch(addr, &Request::new(5, 32)).expect("rows stream");
    assert_eq!(response.rows.len(), 32);

    // Drain: health flips to draining, and /metrics stays well-formed
    // exposition all the way through.
    drain.begin_drain();
    let health = poll_for(&admin, "/healthz", "draining true");
    assert!(health.contains("draining true"), "{health}");
    let text = fetch_admin(&admin, "/metrics").expect("metrics answers during drain");
    let samples = expose::parse(&text).expect("exposition parses during drain");
    assert!(
        expose::sample_value(&samples, "daisy_serve_reloads").unwrap_or(0.0) >= 2.0,
        "both successful reloads are counted:\n{text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Second set of weights (different training seed) for reload tests.
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
        let path = std::env::temp_dir().join("daisy-admin-alt-model.bin");
        fitted.save(&path).expect("alt model saves");
        std::fs::read(&path).expect("alt model bytes")
    })
}

/// Extracts the `fingerprint 0x…` line from a healthz body.
fn fingerprint_line(health: &str) -> String {
    health
        .lines()
        .find(|l| l.starts_with("fingerprint "))
        .expect("healthz carries a fingerprint line")
        .to_string()
}

/// Polls an admin path until its body contains `needle` (the drain
/// flag propagates through an atomic, not synchronously with the
/// caller), panicking after ~2s.
fn poll_for(admin: &str, path: &str, needle: &str) -> String {
    let mut last = String::new();
    for _ in 0..400 {
        last = fetch_admin(admin, path).expect("admin answers");
        if last.contains(needle) {
            return last;
        }
        daisy_telemetry::sleep_ms(5);
    }
    panic!("admin {path} never showed {needle:?}; last body:\n{last}");
}

#[test]
fn admin_listener_is_off_by_default() {
    let server = Server::bind(model_path(), "127.0.0.1:0", ServeConfig::default())
        .expect("server binds");
    assert!(server.admin_addr().is_none());
}
