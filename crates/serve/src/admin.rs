//! The admin plane: an introspection-and-operations listener beside
//! the serving listener.
//!
//! When `DAISY_SERVE_ADMIN=<addr>` is set, [`crate::Server::bind`]
//! opens a second TCP listener that answers plain-text HTTP:
//!
//! - `GET /healthz` — the *active* model fingerprint (CRC-64 of the
//!   sealed file), reload generation, drain state, uptime in logical
//!   terms (requests and rows served) and wall terms, and active
//!   connections against the slot cap.
//! - `GET /metrics` — Prometheus-style text exposition of the metrics
//!   registry plus the phase profiler
//!   ([`daisy_telemetry::expose::render`]).
//! - `GET /profile` — the hottest phases by self time, human-ordered.
//! - `POST /reload` — revalidate the model file and hot-swap it in
//!   ([`crate::SharedModel::reload`]): in-flight streams finish on the
//!   old model, new connections serve the new one. A corrupt
//!   replacement is quarantined and answered with a 500 while the old
//!   model keeps serving.
//!
//! Reads never touch the model and take no connection slot — `GET`s
//! stay responsive when every serving slot is busy, and they cannot
//! perturb the reproducibility contract. The one mutation, `/reload`,
//! is atomic by construction (an `Arc` swap). The plane speaks just
//! enough HTTP/1.0 for `curl` and `daisy top`: one request per
//! connection, then close.

use crate::server::{ServeState, SharedModel};
use crate::ServeError;
use daisy_telemetry::{duration_ms, expose, metrics, profile, Stopwatch};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;

/// Largest admin request we will buffer before answering 400.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// How many phases `/profile` lists.
const PROFILE_TOP_N: usize = 20;

/// Read and write deadline of one admin connection. Connections are
/// answered one at a time, so a client that connects and sends nothing
/// holds every other admin request until this fires and the connection
/// is dropped.
const IO_DEADLINE_MS: u64 = 2_000;

/// The serving process's live state as the admin plane sees it: the
/// hot-swappable model, the drain lifecycle, and the slot cap.
pub struct AdminInfo {
    model: Arc<SharedModel>,
    state: Arc<ServeState>,
    max_conn: usize,
    started: Stopwatch,
}

impl AdminInfo {
    /// Captures the handles, starting the uptime clock now.
    pub fn new(model: Arc<SharedModel>, state: Arc<ServeState>, max_conn: usize) -> AdminInfo {
        AdminInfo {
            model,
            state,
            max_conn,
            started: Stopwatch::start(),
        }
    }
}

/// The admin listener. Created by [`AdminServer::bind`]; serves until
/// the process exits once [`AdminServer::spawn`] detaches it.
pub struct AdminServer {
    listener: TcpListener,
    info: Arc<AdminInfo>,
}

impl AdminServer {
    /// Binds the admin address (port 0 for ephemeral).
    pub fn bind(addr: impl ToSocketAddrs, info: AdminInfo) -> std::io::Result<AdminServer> {
        Ok(AdminServer {
            listener: TcpListener::bind(addr)?,
            info: Arc::new(info),
        })
    }

    /// The bound address (the real port when bound with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Detaches the accept loop onto its own thread and returns the
    /// bound address. Requests are answered serially — admin traffic
    /// is a human or a scraper, not a fleet — so a slow reader can
    /// never pile up introspection threads.
    pub fn spawn(self) -> std::io::Result<SocketAddr> {
        let addr = self.local_addr()?;
        // daisy-lint: allow(D003) -- admin listener thread; introspection and reload off the serving path
        std::thread::spawn(move || {
            for stream in self.listener.incoming() {
                match stream {
                    Ok(stream) => handle(stream, &self.info),
                    Err(_) => continue,
                }
            }
        });
        Ok(addr)
    }
}

/// Answers one admin connection: read one request, write one response,
/// close. All errors are swallowed — a broken scraper must never touch
/// the serving process — and a read error, [`IO_DEADLINE_MS`] included,
/// drops the connection unanswered.
fn handle(mut stream: TcpStream, info: &AdminInfo) {
    let deadline = Some(duration_ms(IO_DEADLINE_MS));
    if stream.set_read_timeout(deadline).is_err() || stream.set_write_timeout(deadline).is_err() {
        return;
    }
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let request = loop {
        match stream.read(&mut chunk) {
            Ok(0) => break None,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.len() > MAX_REQUEST_BYTES {
                    break None;
                }
                // Headers complete. A bare "GET /x\n" with a closed
                // write half instead ends at Ok(0) and is parsed from
                // whatever arrived.
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.ends_with(b"\n\n") {
                    break parse_request_line(&buf);
                }
            }
            Err(_) => return,
        }
    }
    .or_else(|| parse_request_line(&buf));
    let (status, body) = match request {
        Some((method, path)) => respond(&method, &path, info),
        None => (400, "bad request\n".to_string()),
    };
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        _ => "Bad Request",
    };
    let _ = write!(
        stream,
        "HTTP/1.0 {status} {reason}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// Extracts `(method, path)` from raw request bytes; `None` until a
/// full request line is present.
fn parse_request_line(buf: &[u8]) -> Option<(String, String)> {
    let text = std::str::from_utf8(buf).ok()?;
    let line = text.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let path = parts.next()?;
    // Strip any query string; the endpoints take no parameters.
    let path = path.split('?').next().unwrap_or(path).to_string();
    Some((method, path))
}

/// Routes one admin request to its `(status, body)` — the testable
/// core of the endpoint. Reads are pure except for live
/// metrics/profiler atomics; `POST /reload` is the one mutation.
pub fn respond(method: &str, path: &str, info: &AdminInfo) -> (u16, String) {
    match (method, path) {
        ("GET", "/healthz") => (200, healthz_body(info)),
        ("GET", "/metrics") => (200, expose::render()),
        ("GET", "/profile") => (200, profile_body()),
        ("POST", "/reload") => reload_body(info),
        ("GET", "/reload") => (405, "reload requires POST\n".to_string()),
        ("GET", _) => (
            404,
            "not found; try /healthz, /metrics, or /profile\n".to_string(),
        ),
        _ => (405, "only GET (and POST /reload) is supported\n".to_string()),
    }
}

/// The `/healthz` body: identity (live — reflects reloads, read from
/// one snapshot so fingerprint and generation always match), lifecycle,
/// uptime (logical and wall), and load.
fn healthz_body(info: &AdminInfo) -> String {
    let current = info.model.current();
    let facts = current.facts;
    let requests = metrics::counter("serve.requests").get();
    let rows = metrics::counter("serve.rows").get();
    let active = metrics::gauge("serve.active_conns").get();
    format!(
        "ok\n\
         fingerprint 0x{:016x}\n\
         generation {}\n\
         draining {}\n\
         model params={} bytes={} columns={} conditional={}\n\
         uptime_ms {:.0}\n\
         logical requests={} rows={}\n\
         active_conns {:.0}/{}\n",
        facts.fingerprint,
        current.generation,
        info.state.draining(),
        facts.params,
        facts.bytes,
        facts.columns,
        facts.conditional,
        info.started.elapsed_ms(),
        requests,
        rows,
        active,
        info.max_conn,
    )
}

/// The `POST /reload` body: swap outcome plus the now-active identity.
fn reload_body(info: &AdminInfo) -> (u16, String) {
    match info.model.reload() {
        Ok(report) => (
            200,
            format!(
                "reloaded\nfingerprint 0x{:016x}\ngeneration {}\nparams {}\n",
                report.fingerprint, report.generation, report.params
            ),
        ),
        Err(e) => (500, format!("reload failed: {e}\nold model still serving\n")),
    }
}

/// The `/profile` body: hottest phases by self time.
fn profile_body() -> String {
    let mut out = format!(
        "phases by self time (profiling {})\n",
        if profile::profiling_enabled() {
            "on"
        } else {
            "off — set DAISY_PROFILE=1"
        }
    );
    let top = profile::top_by_self_time(PROFILE_TOP_N);
    if top.is_empty() {
        out.push_str("no phases recorded\n");
        return out;
    }
    out.push_str("     self_ms     total_ms      calls  phase\n");
    for p in top {
        out.push_str(&format!(
            "{:>12.1} {:>12.1} {:>10}  {}\n",
            p.self_ns as f64 / 1e6,
            p.total_ns as f64 / 1e6,
            p.calls,
            p.path
        ));
    }
    out
}

/// Issues one admin request and returns the body of a 200 response.
/// Non-200 statuses are [`ServeError::Rejected`] with the status line
/// and body.
fn admin_request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
) -> Result<String, ServeError> {
    let mut stream = TcpStream::connect(addr)?;
    write!(stream, "{method} {path} HTTP/1.0\r\n\r\n")?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .or_else(|| raw.split_once("\n\n"))
        .ok_or_else(|| ServeError::Protocol("admin response has no header/body split".into()))?;
    let status_line = head.lines().next().unwrap_or("");
    if status_line.split_whitespace().nth(1) != Some("200") {
        return Err(ServeError::Rejected(format!(
            "admin request {path} failed: {status_line}: {}",
            body.trim()
        )));
    }
    Ok(body.to_string())
}

/// Fetches one admin endpoint as `daisy top`, tests, and scripts do:
/// connect, send a minimal `GET`, return the body of a 200 response.
pub fn fetch_admin(addr: impl ToSocketAddrs, path: &str) -> Result<String, ServeError> {
    admin_request(addr, "GET", path)
}

/// `POST`s one admin endpoint — how `daisy reload` triggers a hot
/// model swap. Returns the body of a 200 response.
pub fn post_admin(addr: impl ToSocketAddrs, path: &str) -> Result<String, ServeError> {
    admin_request(addr, "POST", path)
}
