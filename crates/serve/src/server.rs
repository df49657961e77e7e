//! The server side: model loading with quarantine, hot reload, the
//! per-connection request loop, and the TCP accept loop with
//! slot-based backpressure, per-connection deadlines, and graceful
//! drain.

use crate::admin::{AdminInfo, AdminServer};
use crate::proto::{
    read_frame, write_frame, ColumnSpec, EndFrame, Header, Request, END_FLAG_DRAINING, FRAME_ROWS,
    MAGIC_DATA, MAX_REQUEST_FRAME,
};
use crate::shutdown;
use crate::ServeError;
use daisy_core::FittedSynthesizer;
use daisy_data::Column;
use daisy_telemetry::{
    duration_ms, emit_event, enabled, field, knobs, metrics, profile, schema, sleep_ms, Event,
    Stopwatch,
};
use daisy_wire::{crc64, quarantine, Crc64, Writer};
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};

/// How late the serving lifecycle may notice what no event signals:
/// the lifecycle thread looks at the SIGTERM flag, and a slot wait at
/// the drain flag, this often, so a drain is seen within this many
/// milliseconds. Nothing on the request path waits for it: `accept`
/// blocks until a connection (or a drain's wake connection) arrives,
/// and a freed slot wakes the slot wait at once. The drain also
/// re-checks for finished connections at this interval.
const ACCEPT_POLL_MS: u64 = 5;

/// Bound on the drain's wake connection. A local connect completes at
/// once unless the backlog is full, and then `accept` has connections
/// to return anyway, so the bound only caps how long
/// [`ServeState::begin_drain`] can take.
const WAKE_CONNECT_MS: u64 = 1_000;

/// After the drain window expires, how long the accept loop waits for
/// connection threads to seal their streams with draining end frames
/// before giving up on them.
const DRAIN_STRAGGLER_GRACE_MS: f64 = 500.0;

/// Serving knobs, all overridable from the environment (see
/// `docs/SERVING.md`).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Concurrent connection slots (`DAISY_SERVE_MAX_CONN`, default 4).
    /// Connections share the one decoded model, so a slot costs one
    /// generation batch of buffers and its thread's working set. When
    /// every slot is held the accept loop sleeps until a connection
    /// ends and frees one, then accepts and takes it, so excess clients
    /// wait in the TCP backlog (or are shed, see [`ServeConfig::shed`]).
    pub max_conn: usize,
    /// Per-request row cap (`DAISY_SERVE_MAX_ROWS`, default 100
    /// million). Requests above it are rejected with a typed error
    /// header; streaming keeps memory flat regardless, the cap only
    /// bounds how long one request can monopolize a slot.
    pub max_rows: u64,
    /// Per-connection socket deadline in milliseconds
    /// (`DAISY_SERVE_TIMEOUT_MS`, default 30 000; 0 disables). Applied
    /// as both read and write timeout on every accepted connection: a
    /// peer that makes no progress for this long — a slow-loris
    /// request, a stalled reader — gets a timeout error, its slot
    /// frees, and `serve.timeouts` counts the eviction.
    pub timeout_ms: u64,
    /// Graceful-drain window in milliseconds (`DAISY_SERVE_DRAIN_MS`,
    /// default 5 000). On SIGTERM the accept loop stops and in-flight
    /// requests get this long to finish; streams still running when it
    /// expires are sealed with a typed draining end frame
    /// ([`END_FLAG_DRAINING`]) telling the client exactly where to
    /// resume.
    pub drain_ms: u64,
    /// Load-shedding mode (`DAISY_SERVE_SHED=1`, default off). When
    /// every slot is busy, accept anyway and answer with a typed
    /// `overloaded` rejection header instead of parking the client in
    /// the TCP backlog; `serve.shed_requests` counts the rejections.
    pub shed: bool,
    /// Address for the read-only admin listener (`DAISY_SERVE_ADMIN`,
    /// default none). When set, [`Server::bind`] opens a second
    /// listener answering `/healthz`, `/metrics`, `/profile`, and
    /// `POST /reload` — see [`crate::admin`].
    pub admin_addr: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_conn: 4,
            max_rows: 100_000_000,
            timeout_ms: 30_000,
            drain_ms: 5_000,
            shed: false,
            admin_addr: None,
        }
    }
}

impl ServeConfig {
    /// The defaults overridden by `DAISY_SERVE_MAX_CONN` /
    /// `DAISY_SERVE_MAX_ROWS` / `DAISY_SERVE_TIMEOUT_MS` /
    /// `DAISY_SERVE_DRAIN_MS` / `DAISY_SERVE_SHED` /
    /// `DAISY_SERVE_ADMIN`. Malformed numeric values warn on stderr
    /// and keep the default, matching the `DAISY_THREADS` convention
    /// (`DAISY_SERVE_TIMEOUT_MS=0` is legal: it disables the
    /// deadline).
    pub fn from_env() -> ServeConfig {
        let mut cfg = ServeConfig::default();
        if let Some(v) = parse_env("DAISY_SERVE_MAX_CONN") {
            cfg.max_conn = v as usize;
        }
        if let Some(v) = parse_env("DAISY_SERVE_MAX_ROWS") {
            cfg.max_rows = v;
        }
        if let Some(v) = parse_env_allow_zero("DAISY_SERVE_TIMEOUT_MS") {
            cfg.timeout_ms = v;
        }
        if let Some(v) = parse_env("DAISY_SERVE_DRAIN_MS") {
            cfg.drain_ms = v;
        }
        if let Some(v) = knobs::raw("DAISY_SERVE_SHED") {
            cfg.shed = v == "1";
        }
        if let Some(addr) = knobs::raw("DAISY_SERVE_ADMIN") {
            if !addr.is_empty() {
                cfg.admin_addr = Some(addr);
            }
        }
        cfg
    }
}

/// Parses a positive integer from the environment; warns and returns
/// `None` on anything else.
fn parse_env(name: &str) -> Option<u64> {
    let raw = knobs::raw(name)?;
    match raw.parse::<u64>() {
        Ok(v) if v > 0 => Some(v),
        _ => {
            eprintln!("warning: {name}={raw} is not a positive integer; using the default");
            None
        }
    }
}

/// Parses a non-negative integer from the environment (0 is a legal
/// "disabled" value); warns and returns `None` on anything else.
fn parse_env_allow_zero(name: &str) -> Option<u64> {
    let raw = knobs::raw(name)?;
    match raw.parse::<u64>() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("warning: {name}={raw} is not an integer; using the default");
            None
        }
    }
}

/// Reads and validates a sealed model file. On any validation failure
/// the file is quarantined (renamed `*.corrupt-N`, bytes preserved for
/// forensics) and the error is returned typed — a serve process never
/// starts on, or panics over, a rotten model.
///
/// Returns the raw validated bytes (the model's fingerprint is their
/// CRC-64) alongside the decoded synthesizer.
pub fn load_model(path: &Path) -> Result<(Vec<u8>, FittedSynthesizer), ServeError> {
    decode_or_quarantine(path, || false)
}

/// [`load_model`], except that a corrupt file stays in place, reported
/// as `quarantined: None`, when `fail_quarantine()` says the rename
/// fails (the injected disk-full fault).
fn decode_or_quarantine(
    path: &Path,
    fail_quarantine: impl FnOnce() -> bool,
) -> Result<(Vec<u8>, FittedSynthesizer), ServeError> {
    let bytes = std::fs::read(path)?;
    match FittedSynthesizer::from_bytes(&bytes) {
        Ok(model) => Ok((bytes, model)),
        Err(error) => Err(ServeError::CorruptModel {
            error,
            quarantined: if fail_quarantine() {
                None
            } else {
                quarantine(path)
            },
        }),
    }
}

/// Cross-connection serving state: the drain lifecycle flags every
/// request loop consults. One instance is shared by the accept loop,
/// every connection thread, and the admin plane; transports without a
/// lifecycle (stdio, in-memory tests) use an inert
/// [`ServeState::default`].
#[derive(Debug, Default)]
pub struct ServeState {
    draining: AtomicBool,
    drain_expired: AtomicBool,
    /// The serving listener's own address (loopback when it is bound to
    /// an unspecified address); `None` without a listener.
    wake: Option<SocketAddr>,
}

impl ServeState {
    /// Enters the draining phase: the accept loop stops taking
    /// connections and every *new* request is rejected with a typed
    /// `draining` header, while requests already streaming continue.
    ///
    /// The first call on a server's state also connects once to the
    /// server's own listener: the accept loop blocks in `accept`, and
    /// that connection wakes it to see the drain. The accept loop
    /// closes it unserved.
    pub fn begin_drain(&self) {
        // SeqCst: the flag must be visible to the accept loop by the
        // time the wake connection reaches it.
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(addr) = self.wake {
            let _ = TcpStream::connect_timeout(&addr, duration_ms(WAKE_CONNECT_MS));
        }
    }

    /// True once a drain has begun.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Marks the drain window expired: in-flight streams seal
    /// themselves with a draining end frame at the next batch
    /// boundary. Begins the drain first if it has not begun.
    pub fn expire_drain(&self) {
        self.begin_drain();
        self.drain_expired.store(true, Ordering::Relaxed);
    }

    /// True once the drain window has expired.
    pub fn drain_expired(&self) -> bool {
        self.drain_expired.load(Ordering::Relaxed)
    }
}

/// Identity of the model a [`SharedModel`] currently serves.
#[derive(Debug, Clone, Copy)]
pub struct ModelFacts {
    /// CRC-64 of the sealed model file's bytes.
    pub fingerprint: u64,
    /// Trainable parameter count.
    pub params: usize,
    /// Parameter bytes: the weight cost of the one decoded model.
    pub bytes: usize,
    /// Output columns.
    pub columns: usize,
    /// Whether the model honors conditioned requests.
    pub conditional: bool,
}

/// One decoded model plus its identity — the unit a [`SharedModel`]
/// swaps, so a reader never pairs one model's fingerprint with
/// another's generation.
pub(crate) struct ActiveModel {
    pub(crate) model: FittedSynthesizer,
    pub(crate) facts: ModelFacts,
    /// Reload generation that swapped this model in (0 = bind; each
    /// successful reload adds one).
    pub(crate) generation: u64,
}

impl ActiveModel {
    fn new(bytes: &[u8], model: FittedSynthesizer, generation: u64) -> ActiveModel {
        ActiveModel {
            facts: ModelFacts {
                fingerprint: crc64(bytes),
                params: model.param_count(),
                bytes: model.param_bytes(),
                columns: model.output_template().n_attrs(),
                conditional: model.is_conditional(),
            },
            model,
            generation,
        }
    }
}

/// The server's one decoded model, swappable at runtime: `POST /reload`
/// on the admin plane (or [`SharedModel::reload`] directly) decodes the
/// model file once and swaps it in with one `Arc` store. Every
/// connection takes the current `Arc` at accept and serves from it, so
/// in-flight streams finish on the model they started with — the
/// response stays a pure function of (model, request) even across a
/// reload.
pub struct SharedModel {
    path: PathBuf,
    active: Mutex<Arc<ActiveModel>>,
    /// Armed by the fault plan: the next reload-failure quarantine
    /// behaves as if the rename failed (disk full), exercising the
    /// `quarantined: None` path without touching the filesystem.
    quarantine_fault: AtomicBool,
}

/// What a successful [`SharedModel::reload`] swapped in.
#[derive(Debug, Clone, Copy)]
pub struct ReloadReport {
    /// Fingerprint of the newly active model.
    pub fingerprint: u64,
    /// Reload generation after the swap (0 = the model served since
    /// bind; each successful reload increments it).
    pub generation: u64,
    /// Parameter count of the newly active model.
    pub params: usize,
}

impl SharedModel {
    /// Loads and validates `path` (quarantining a corrupt file, see
    /// [`load_model`]) into a swappable shared model.
    pub fn load(path: &Path) -> Result<Arc<SharedModel>, ServeError> {
        let (bytes, model) = load_model(path)?;
        Ok(Arc::new(SharedModel {
            path: path.to_path_buf(),
            active: Mutex::new(Arc::new(ActiveModel::new(&bytes, model, 0))),
            quarantine_fault: AtomicBool::new(false),
        }))
    }

    /// The active model with its identity. Connections take this `Arc`
    /// once at accept, pinning their model across any later reload.
    pub(crate) fn current(&self) -> Arc<ActiveModel> {
        Arc::clone(&self.active.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Identity of the currently active model.
    pub fn facts(&self) -> ModelFacts {
        self.current().facts
    }

    /// Successful reloads since bind.
    pub fn generation(&self) -> u64 {
        self.current().generation
    }

    /// The model file path this shared model reloads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Arms the disk-full-on-quarantine fault: the next failed reload
    /// reports `quarantined: None` instead of renaming the file.
    pub fn arm_quarantine_failure(&self) {
        self.quarantine_fault.store(true, Ordering::Relaxed);
    }

    /// Re-reads and revalidates the model file, swapping it in on
    /// success. On a corrupt replacement the file is quarantined
    /// (`*.corrupt-N`) and the **old model keeps serving** — a bad
    /// push can cost at most the reload attempt, never the fleet.
    /// Either way the attempt is recorded (`serve.reloads` /
    /// [`schema::SERVE_RELOAD`]).
    pub fn reload(&self) -> Result<ReloadReport, ServeError> {
        // Decode outside the lock: connections keep accepting meanwhile.
        let decoded = decode_or_quarantine(&self.path, || {
            self.quarantine_fault.swap(false, Ordering::Relaxed)
        });
        let report = decoded.map(|(bytes, model)| {
            let mut active = self.active.lock().unwrap_or_else(|e| e.into_inner());
            let next = ActiveModel::new(&bytes, model, active.generation + 1);
            *active = Arc::new(next);
            metrics::counter("serve.reloads").add(1);
            ReloadReport {
                fingerprint: active.facts.fingerprint,
                generation: active.generation,
                params: active.facts.params,
            }
        });
        if enabled() {
            let active = self.current();
            emit_event(
                Event::new(
                    schema::SERVE_RELOAD,
                    vec![
                        field("ok", report.is_ok()),
                        field("generation", active.generation),
                        field("fingerprint", active.facts.fingerprint),
                        field(
                            "error",
                            report
                                .as_ref()
                                .err()
                                .map(|e| e.to_string())
                                .unwrap_or_else(|| "-".to_string()),
                        ),
                    ],
                )
                .non_deterministic(),
            );
            daisy_telemetry::emit_metrics_snapshot();
        }
        report
    }
}

/// The column contract of `model`'s output, in wire form.
fn column_specs(model: &FittedSynthesizer) -> Vec<ColumnSpec> {
    let template = model.output_template();
    template
        .schema()
        .attrs()
        .iter()
        .zip(template.columns())
        .map(|(attr, col)| match col {
            Column::Num(_) => ColumnSpec::Num {
                name: attr.name.clone(),
            },
            Column::Cat { categories, .. } => ColumnSpec::Cat {
                name: attr.name.clone(),
                categories: categories.clone(),
            },
        })
        .collect()
}

/// Serves one connection: a loop of `request frame → response frames`
/// until the peer closes its write half, a deadline fires, or a drain
/// truncates the stream. Returns the total rows streamed over the
/// connection's lifetime.
///
/// This is the whole data path — the TCP accept loop, the stdio mode,
/// and the in-memory tests all call it, so every transport shares one
/// byte-exact implementation. `conn` only labels telemetry; nothing
/// connection-specific enters the response bytes. `state` carries the
/// drain lifecycle (pass an inert default for transports without
/// one).
pub fn serve_connection(
    model: &FittedSynthesizer,
    conn: u64,
    cfg: &ServeConfig,
    state: &ServeState,
    input: &mut impl Read,
    output: &mut impl Write,
) -> Result<u64, ServeError> {
    register_serve_metrics();
    let mut tally = ConnTally { requests: 0 };
    let mut total_rows = 0u64;
    while let Some(body) = read_frame(input, MAX_REQUEST_FRAME)? {
        let request = Request::decode(&body)?;
        tally.requests += 1;
        let watch = Stopwatch::start();
        if enabled() {
            emit_event(
                Event::new(
                    schema::SERVE_REQUEST_START,
                    vec![
                        field("conn", conn),
                        field("seed", request.seed),
                        field("n_rows", request.n_rows),
                        field("start_row", request.start_row),
                        field(
                            "condition",
                            request.condition.as_deref().unwrap_or("-").to_string(),
                        ),
                    ],
                )
                .non_deterministic(),
            );
        }
        let answered = {
            daisy_telemetry::phase_scope!("serve_request");
            answer_request(model, cfg, state, &request, output)
        };
        metrics::counter("serve.requests").add(1);
        metrics::histogram("serve.request_us").observe((watch.elapsed_ms() * 1000.0) as u64);
        if let Ok(answer) = &answered {
            metrics::counter("serve.rows").add(answer.rows);
            metrics::histogram("serve.rows_per_request").observe(answer.rows);
            total_rows += answer.rows;
        }
        if enabled() {
            emit_event(
                Event::new(
                    schema::SERVE_REQUEST_END,
                    vec![
                        field("conn", conn),
                        field("rows", answered.as_ref().map(|a| a.rows).unwrap_or(0)),
                        field("ok", answered.is_ok()),
                    ],
                )
                .non_deterministic()
                .with_wall(vec![field("ms", watch.elapsed_ms())]),
            );
            // The server runs until it is terminated, so there is no
            // end-of-run flush: snapshot the serve.* metrics after every
            // request to keep the trace's last snapshot current.
            daisy_telemetry::emit_metrics_snapshot();
            if profile::profiling_enabled() {
                daisy_telemetry::emit_profile_snapshot();
            }
        }
        let answer = answered?;
        output.flush()?;
        if answer.truncated {
            // The stream was sealed with a draining end frame; the
            // connection is done — the client resumes elsewhere.
            break;
        }
    }
    Ok(total_rows)
}

/// Interns every `serve.*` metric so snapshots and the `/metrics`
/// exposition list them (at zero) from the first request on, whichever
/// transport — TCP, stdio, or in-memory — touched the data path first.
fn register_serve_metrics() {
    metrics::counter("serve.requests");
    metrics::counter("serve.rows");
    metrics::counter("serve.timeouts");
    metrics::counter("serve.drained");
    metrics::counter("serve.reloads");
    metrics::counter("serve.resumed_requests");
    metrics::counter("serve.shed_requests");
    metrics::gauge("serve.active_conns");
    metrics::histogram("serve.rows_per_request");
    metrics::histogram("serve.request_us");
    metrics::histogram("serve.requests_per_conn");
}

/// Observes the request-pipelining depth — how many requests one
/// client issued over its connection's lifetime — when the connection
/// ends for any reason, including protocol errors and disconnects.
struct ConnTally {
    requests: u64,
}

impl Drop for ConnTally {
    fn drop(&mut self) {
        metrics::histogram("serve.requests_per_conn").observe(self.requests);
        if enabled() {
            daisy_telemetry::emit_metrics_snapshot();
        }
    }
}

/// What [`answer_request`] did with one request.
struct Answer {
    /// Rows streamed (0 for rejections).
    rows: u64,
    /// The stream was sealed early with a draining end frame; the
    /// connection should close.
    truncated: bool,
}

/// Answers one decoded request: a rejection header, or an accepted
/// header followed by data frames and the sealing end frame.
fn answer_request(
    model: &FittedSynthesizer,
    cfg: &ServeConfig,
    state: &ServeState,
    request: &Request,
    output: &mut impl Write,
) -> Result<Answer, ServeError> {
    fn reject(output: &mut impl Write, reason: String) -> Result<Answer, ServeError> {
        write_frame(output, &Header::Rejected { reason }.encode())?;
        output.flush()?;
        Ok(Answer {
            rows: 0,
            truncated: false,
        })
    }
    if state.draining() {
        // Requests already streaming finish (they never re-enter
        // here); new ones are told to go elsewhere, typed.
        return reject(
            output,
            "draining: server is shutting down; resume against another replica".to_string(),
        );
    }
    if request.n_rows > cfg.max_rows {
        return reject(
            output,
            format!(
                "{} rows exceeds the per-request cap of {} (DAISY_SERVE_MAX_ROWS)",
                request.n_rows, cfg.max_rows
            ),
        );
    }
    if request.start_row > request.n_rows {
        return reject(
            output,
            format!(
                "start_row {} is past the end of the {}-row stream",
                request.start_row, request.n_rows
            ),
        );
    }
    let mut stream = match model.try_stream_rows(
        request.n_rows as usize,
        request.seed,
        request.condition.as_deref(),
    ) {
        Ok(stream) => stream,
        Err(reason) => return reject(output, reason),
    };
    if request.start_row > 0 {
        stream.fast_forward(request.start_row as usize);
        metrics::counter("serve.resumed_requests").add(1);
    }
    let header = Header::Accepted {
        seed: request.seed,
        n_rows: request.n_rows,
        start_row: request.start_row,
        condition: request.condition.clone(),
        columns: column_specs(model),
    };
    write_frame(output, &header.encode())?;

    // Data frames: one per generation batch, never a whole table. The
    // incremental CRC seals the concatenated row payloads so the
    // client can verify the stream end to end without buffering it.
    // Row positions are absolute: a resumed stream picks up exactly
    // where `start_row` says, on the same batch grid as a fresh one.
    let mut payload_crc = Crc64::new();
    let mut next_row = request.start_row;
    loop {
        if state.drain_expired() {
            // The drain window closed mid-stream: seal what was sent
            // with a typed draining end frame so the client can verify
            // every delivered frame and resume at `next_row`.
            let end = EndFrame {
                end_row: next_row,
                payload_crc: payload_crc.finish(),
                flags: END_FLAG_DRAINING,
            };
            write_frame(output, &end.encode())?;
            output.flush()?;
            metrics::counter("serve.drained").add(1);
            return Ok(Answer {
                rows: next_row - request.start_row,
                truncated: true,
            });
        }
        let Some(batch) = stream.next_batch() else {
            break;
        };
        let n = batch.n_rows();
        debug_assert!(n <= FRAME_ROWS);
        let mut w = Writer::default();
        w.buf.extend_from_slice(MAGIC_DATA);
        w.u64(next_row);
        w.u64(n as u64);
        let payload_start = w.buf.len();
        for i in 0..n {
            for col in batch.columns() {
                match col {
                    Column::Num(v) => w.f64(v[i]),
                    Column::Cat { codes, .. } => w.u32(codes[i]),
                }
            }
        }
        payload_crc.update(&w.buf[payload_start..]);
        write_frame(output, &w.buf)?;
        next_row += n as u64;
    }
    let end = EndFrame {
        end_row: next_row,
        payload_crc: payload_crc.finish(),
        flags: 0,
    };
    write_frame(output, &end.encode())?;
    output.flush()?;
    Ok(Answer {
        rows: next_row - request.start_row,
        truncated: false,
    })
}

/// A long-lived TCP serving process over one sealed model file.
pub struct Server {
    listener: TcpListener,
    model: Arc<SharedModel>,
    cfg: ServeConfig,
    admin_addr: Option<SocketAddr>,
    state: Arc<ServeState>,
    slots: Arc<Slots>,
}

/// Connection slots held, and the condition a freed slot signals.
#[derive(Default)]
struct Slots {
    held: Mutex<usize>,
    freed: Condvar,
}

impl Slots {
    fn lock(&self) -> std::sync::MutexGuard<'_, usize> {
        self.held.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The address [`ServeState::begin_drain`] connects to: the listener's
/// own, with an unspecified IP (`0.0.0.0`, `::`) replaced by loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

impl Server {
    /// Loads and validates the model (corrupt files are quarantined,
    /// see [`load_model`]), binds `addr` (use port 0 for an ephemeral
    /// port) and reports readiness via a [`schema::SERVE_START`]
    /// event. When [`ServeConfig::admin_addr`] is set, the read-only
    /// admin listener ([`crate::admin`]) is bound and spawned here too,
    /// so `/healthz` answers even before [`Server::run`] accepts
    /// serving traffic. The server does not accept serving connections
    /// until [`Server::run`].
    pub fn bind(
        model_path: impl AsRef<Path>,
        addr: impl ToSocketAddrs,
        cfg: ServeConfig,
    ) -> Result<Server, ServeError> {
        let shared = SharedModel::load(model_path.as_ref())?;
        let listener = TcpListener::bind(addr)?;
        register_serve_metrics();
        let state = Arc::new(ServeState {
            wake: Some(wake_addr(listener.local_addr()?)),
            ..ServeState::default()
        });
        let admin_addr = match &cfg.admin_addr {
            Some(admin) => {
                let info = AdminInfo::new(Arc::clone(&shared), Arc::clone(&state), cfg.max_conn);
                // daisy-lint: allow(D003) -- admin listener thread; read-only introspection off the serving path
                Some(AdminServer::bind(admin.as_str(), info)?.spawn()?)
            }
            None => None,
        };
        if enabled() {
            let facts = shared.facts();
            emit_event(
                Event::new(
                    schema::SERVE_START,
                    vec![
                        field("params", facts.params),
                        field("bytes", facts.bytes),
                        field("columns", facts.columns),
                        field("conditional", facts.conditional),
                        field("max_conn", cfg.max_conn),
                        field("max_rows", cfg.max_rows),
                    ],
                )
                .non_deterministic(),
            );
        }
        Ok(Server {
            listener,
            model: shared,
            cfg,
            admin_addr,
            state,
            slots: Arc::default(),
        })
    }

    /// The bound address (the real port when bound with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound admin address, when [`ServeConfig::admin_addr`] was
    /// set (the real port when bound with port 0).
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// The hot-swappable model behind the accept loop — reload it via
    /// [`SharedModel::reload`] or the admin plane's `POST /reload`.
    pub fn shared_model(&self) -> Arc<SharedModel> {
        Arc::clone(&self.model)
    }

    /// The drain lifecycle shared with every connection.
    /// [`ServeState::begin_drain`] triggers the same graceful sequence
    /// SIGTERM does — how tests drive the drain in-process.
    pub fn drain_handle(&self) -> Arc<ServeState> {
        Arc::clone(&self.state)
    }

    /// Connections currently holding slots on *this* server (the
    /// `serve.active_conns` gauge is process-global; this count is
    /// per-instance, which is what leak tests want).
    pub fn active_connections(&self) -> usize {
        *self.slots.lock()
    }

    /// Accepts and serves connections until the listener fails or a
    /// drain is requested (SIGTERM via
    /// [`shutdown::install_sigterm_handler`], or
    /// [`ServeState::begin_drain`]).
    ///
    /// The loop blocks in `accept`; nothing on the request path waits
    /// for a timer. A drain wakes it with one connection to the
    /// listener's own address ([`ServeState::begin_drain`]), and while
    /// `run` is live a small lifecycle thread turns the SIGTERM flag
    /// into that drain, so a drain is seen within a few milliseconds.
    ///
    /// Backpressure: `accept` waits for a free connection slot, so at
    /// most `max_conn` connections are ever live — all serving the one
    /// shared model, each with one generation batch of buffers — and
    /// excess clients queue in the kernel's TCP backlog at zero heap
    /// cost (with [`ServeConfig::shed`], they are instead answered with
    /// a typed `overloaded` rejection). A slot is released, and the
    /// waiting accept loop woken, when its connection thread finishes,
    /// including on client disconnect, deadline expiry, or protocol
    /// error.
    ///
    /// On drain: in-flight requests get [`ServeConfig::drain_ms`] to
    /// finish, stragglers seal their streams with a draining end
    /// frame, and `run` returns `Ok(())` — the CLI then exits with the
    /// documented code (143).
    pub fn run(&self) -> Result<(), ServeError> {
        std::thread::scope(|scope| {
            let (accepting, accept_ended) = mpsc::channel::<()>();
            // daisy-lint: allow(D003) -- lifecycle thread; only turns the SIGTERM flag into a drain, no request work runs on it
            scope.spawn(move || self.watch_sigterm(&accept_ended));
            // Dropped when the accept loop ends — returning, failing or
            // panicking — which ends the lifecycle thread too.
            let _accepting = accepting;
            self.accept_loop()
        })?;
        self.drain();
        Ok(())
    }

    /// The lifecycle thread: a signal handler can only set a flag, so
    /// this looks at it every [`ACCEPT_POLL_MS`] and begins the drain,
    /// whose wake connection returns the blocked `accept`. Ends when
    /// the accept loop drops its end of `accept_ended`.
    fn watch_sigterm(&self, accept_ended: &mpsc::Receiver<()>) {
        while let Err(RecvTimeoutError::Timeout) =
            accept_ended.recv_timeout(duration_ms(ACCEPT_POLL_MS))
        {
            if shutdown::sigterm_received() {
                // Propagate the signal into the shared state so
                // connection threads and the admin plane see it too.
                self.state.begin_drain();
                return;
            }
        }
    }

    /// Accepts until a drain begins, spawning one thread per accepted
    /// connection.
    fn accept_loop(&self) -> Result<(), ServeError> {
        let mut conn_id = 0u64;
        loop {
            // Slot-gated mode parks excess clients in the TCP backlog:
            // wait until a slot is free before accepting (the slot
            // itself is acquired after accept — this loop is the sole
            // acquirer, so the observed capacity cannot be stolen).
            // Holding no slot while parked keeps `serve.active_conns`
            // equal to live connections, not live + one idle acceptor.
            // Shed mode accepts immediately and rejects when no slot
            // frees instantly.
            if !self.cfg.shed {
                self.wait_for_slot();
            }
            if self.state.draining() {
                return Ok(());
            }
            let (stream, _peer) = self.listener.accept()?;
            if self.state.draining() {
                // The drain's wake connection, or a client that raced
                // it: accepting has stopped, so it closes unserved.
                return Ok(());
            }
            // Each frame is one write (`write_frame`); without Nagle's
            // algorithm it leaves as soon as it is written.
            stream.set_nodelay(true)?;
            if self.cfg.timeout_ms > 0 {
                let deadline = Some(duration_ms(self.cfg.timeout_ms));
                stream.set_read_timeout(deadline)?;
                stream.set_write_timeout(deadline)?;
            }
            // Only shed mode can find every slot busy here: slot-gated
            // mode saw free capacity above, and slots only free up
            // behind its back.
            let Some(guard) = self.try_acquire_slot() else {
                shed_connection(stream, &self.cfg);
                continue;
            };
            let active = self.model.current();
            let cfg = self.cfg.clone();
            let state = Arc::clone(&self.state);
            let conn = conn_id;
            conn_id += 1;
            // The serving plane is explicitly off the deterministic
            // compute path: responses are per-request reproducible by
            // seeding, not by scheduling.
            // daisy-lint: allow(D003) -- connection threads; responses are reproducible by per-request seeding, not scheduling
            std::thread::spawn(move || {
                let _guard = guard;
                serve_tcp_connection(&active.model, conn, &cfg, &state, stream);
            });
        }
    }

    /// Blocks until a slot is free or a drain has begun. A finished
    /// connection wakes the wait at once ([`SlotGuard`]'s drop); the
    /// drain flag is looked at every [`ACCEPT_POLL_MS`].
    fn wait_for_slot(&self) {
        let mut held = self.slots.lock();
        while *held >= self.cfg.max_conn && !self.state.draining() {
            held = self
                .slots
                .freed
                .wait_timeout(held, duration_ms(ACCEPT_POLL_MS))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Lets in-flight connections finish inside the drain window, then
    /// expires the window (streams seal themselves with draining end
    /// frames) and gives stragglers a short grace to do so.
    fn drain(&self) {
        self.state.begin_drain();
        let active = self.active_connections();
        if enabled() {
            emit_event(
                Event::new(
                    schema::SERVE_DRAIN,
                    vec![
                        field("active", active),
                        field("drain_ms", self.cfg.drain_ms),
                    ],
                )
                .non_deterministic(),
            );
        }
        let watch = Stopwatch::start();
        while self.active_connections() > 0 && watch.elapsed_ms() < self.cfg.drain_ms as f64 {
            sleep_ms(ACCEPT_POLL_MS);
        }
        self.state.expire_drain();
        let grace = Stopwatch::start();
        while self.active_connections() > 0 && grace.elapsed_ms() < DRAIN_STRAGGLER_GRACE_MS {
            sleep_ms(ACCEPT_POLL_MS);
        }
        if enabled() {
            daisy_telemetry::emit_metrics_snapshot();
        }
    }

    fn try_acquire_slot(&self) -> Option<SlotGuard> {
        let mut held = self.slots.lock();
        if *held >= self.cfg.max_conn {
            return None;
        }
        *held += 1;
        metrics::gauge("serve.active_conns").set(*held as f64);
        Some(SlotGuard {
            slots: Arc::clone(&self.slots),
        })
    }
}

/// Answers an accepted-but-unserveable connection in shed mode: a
/// typed `overloaded` rejection header, counted, then close. The
/// request frame (if any) is never read — the client learns to back
/// off in one round trip.
fn shed_connection(mut stream: TcpStream, cfg: &ServeConfig) {
    metrics::counter("serve.shed_requests").add(1);
    let reason = format!(
        "overloaded: all {} connection slots are busy; retry with backoff",
        cfg.max_conn
    );
    let _ = write_frame(&mut stream, &Header::Rejected { reason }.encode());
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Write);
    // Drain whatever request bytes the client already sent before
    // closing. Dropping the socket with unread data makes the kernel
    // send RST, which can destroy the rejection header before the
    // client reads it — the client would see "connection reset"
    // instead of the typed "overloaded" answer. The read deadline set
    // at accept bounds this drain against peers that never hang up.
    let mut sink = [0u8; 1024];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

/// Releases a connection slot (updating the active-connections gauge
/// and waking an accept loop that waits for a slot) when the
/// connection thread exits for any reason — normal completion, client
/// disconnect, deadline expiry, protocol error, or panic.
struct SlotGuard {
    slots: Arc<Slots>,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        let mut held = self.slots.lock();
        *held = held.saturating_sub(1);
        metrics::gauge("serve.active_conns").set(*held as f64);
        self.slots.freed.notify_one();
    }
}

/// True when `e` is a socket-deadline expiry (the two kinds Unix read/
/// write timeouts surface as).
fn is_deadline(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::Io(io) if matches!(
            io.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        )
    )
}

/// Runs the request loop on one TCP connection. Errors end the
/// connection (the slot frees via the caller's guard), never the
/// server.
fn serve_tcp_connection(
    model: &FittedSynthesizer,
    conn: u64,
    cfg: &ServeConfig,
    state: &ServeState,
    stream: TcpStream,
) {
    let mut reader = &stream;
    let mut writer = &stream;
    if let Err(e) = serve_connection(model, conn, cfg, state, &mut reader, &mut writer) {
        if is_deadline(&e) {
            // A stalled peer hit the per-connection deadline: count the
            // eviction — the slot frees right after this returns.
            metrics::counter("serve.timeouts").add(1);
            eprintln!(
                "connection {conn}: deadline of {} ms expired; connection evicted",
                cfg.timeout_ms
            );
        } else if !matches!(&e, ServeError::Io(io) if io.kind() == std::io::ErrorKind::BrokenPipe) {
            // A vanished client is normal churn; anything else is logged.
            eprintln!("connection {conn}: {e}");
        }
    }
}

/// Serves exactly one connection over stdin/stdout — the `daisy serve
/// --stdio` mode for pipeline use (one process per client, no socket).
/// No deadlines or drain lifecycle apply: the pipe's lifetime is the
/// process's.
pub fn serve_stdio(model_path: impl AsRef<Path>, cfg: &ServeConfig) -> Result<u64, ServeError> {
    let (_bytes, model) = load_model(model_path.as_ref())?;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = stdin.lock();
    let mut output = stdout.lock();
    serve_connection(&model, 0, cfg, &ServeState::default(), &mut input, &mut output)
}
