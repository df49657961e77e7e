//! # daisy-serve
//!
//! The serving plane: a long-lived process that decodes one sealed model
//! file (`core::persist`) once and streams synthetic rows from it to
//! concurrent clients over a length-prefixed binary protocol (TCP or
//! stdio), using [`daisy_core::RowStream`] so memory stays bounded by
//! one generation batch per connection no matter how many rows a
//! request asks for.
//!
//! Four contracts define the plane (see `docs/SERVING.md` for the
//! full runbook):
//!
//! - **Reproducibility.** A request is `{seed, n_rows, start_row,
//!   condition?}` and every response byte is a pure function of the
//!   request and the model file: replaying a request — against the
//!   same server, a restarted server, or a server under any
//!   `DAISY_THREADS` setting — yields the identical byte stream. No
//!   timestamps, connection ids, or negotiated parameters ever enter
//!   the response. `start_row` makes the contract *resumable*: the
//!   concatenated row payloads of any split of a stream into resumed
//!   fetches equal one uninterrupted fetch.
//! - **Bounded memory.** The server never materializes a table. It
//!   holds one decoded model, shared by every connection, and each
//!   connection holds one `GENERATION_BATCH`-row frame; concurrency is
//!   capped by `DAISY_SERVE_MAX_CONN` slots — with every slot held the
//!   accept loop sleeps until a connection ends and frees one, then
//!   accepts and takes it — so excess clients queue in the TCP backlog
//!   instead of growing the heap (or, with `DAISY_SERVE_SHED=1`, are
//!   rejected with a typed "overloaded" header).
//! - **Typed failure.** A corrupt model file is quarantined
//!   (`*.corrupt-N`) and reported as [`ServeError::CorruptModel`];
//!   an invalid request is answered with an error header on the wire,
//!   never a panic, and the connection stays usable.
//! - **Graceful lifecycle.** Slow or stalled peers hit per-connection
//!   deadlines (`DAISY_SERVE_TIMEOUT_MS`) instead of pinning slots,
//!   SIGTERM drains in-flight streams (`DAISY_SERVE_DRAIN_MS`) and
//!   seals stragglers with a typed "draining" end frame, and the model
//!   can be hot-swapped via the admin plane ([`crate::admin`]) with
//!   in-flight requests finishing on the old model. The [`fault`]
//!   module injects the network's failure modes deterministically so
//!   every one of those paths is testable.
//!
//! No request waits on a timer: the accept loop blocks in `accept` (a
//! drain wakes it with one connection to the listener's own address),
//! and every frame is one write on a `TCP_NODELAY` socket, so it
//! leaves as soon as it is generated.
//!
//! ```no_run
//! use daisy_serve::{Request, Server, ServeConfig};
//!
//! let server = Server::bind("model.daisy", "127.0.0.1:0", ServeConfig::from_env())?;
//! let addr = server.local_addr()?;
//! std::thread::spawn(move || server.run());
//! let response = daisy_serve::fetch(&addr.to_string(), &Request::new(42, 1000))?;
//! assert_eq!(response.rows.len(), 1000);
//! # Ok::<(), daisy_serve::ServeError>(())
//! ```

// `deny` rather than `forbid`: the one audited exception is the
// SIGTERM flag in `shutdown` (std exposes no signal API), which opts
// back in locally — everywhere else unsafe stays a hard error.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
mod client;
pub mod fault;
mod proto;
mod server;
pub mod shutdown;

pub use admin::{fetch_admin, post_admin};
pub use client::{
    decode_response, fetch, fetch_raw, fetch_resumable, fetch_with_retry, FetchReport, Progress,
    RetryPolicy, StreamDecoder, StreamItem,
};
pub use client::Response;
pub use proto::{
    read_frame, write_frame, ColumnSpec, EndFrame, Header, Request, END_FLAG_DRAINING,
    MAX_REQUEST_FRAME, PROTOCOL_VERSION,
};
pub use server::{
    load_model, serve_connection, serve_stdio, ServeConfig, ServeState, Server, SharedModel,
};

/// Everything that can go wrong on the serving plane.
#[derive(Debug)]
pub enum ServeError {
    /// A socket or file operation failed.
    Io(std::io::Error),
    /// The peer violated the wire protocol (bad magic, bad CRC,
    /// oversized frame, truncated stream).
    Protocol(String),
    /// The model file failed validation and was quarantined.
    CorruptModel {
        /// The persistence layer's diagnosis.
        error: String,
        /// Where the bad file was moved (`None` if the rename failed).
        quarantined: Option<std::path::PathBuf>,
    },
    /// The server rejected a well-formed request (row cap exceeded,
    /// unknown condition, condition on a non-conditional model,
    /// "overloaded" under shed mode, "draining" during shutdown).
    /// Reasons prefixed `overloaded` or `draining` are transient — the
    /// retrying client backs off and resends; everything else is
    /// permanent.
    Rejected(String),
    /// The `on_batch` handler of [`fetch_with_retry`] ended the fetch
    /// with this message (its output failed, say); never retried.
    Aborted(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServeError::CorruptModel { error, quarantined } => match quarantined {
                Some(path) => write!(
                    f,
                    "corrupt model file ({error}); quarantined as {}",
                    path.display()
                ),
                None => write!(f, "corrupt model file ({error}); quarantine failed"),
            },
            ServeError::Rejected(msg) => write!(f, "request rejected: {msg}"),
            ServeError::Aborted(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}
