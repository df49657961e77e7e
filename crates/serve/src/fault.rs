//! Deterministic network-fault injection for the serving plane.
//!
//! The chaos tests (`tests/serve_chaos.rs`, the CI chaos smoke) need
//! the network's real failure modes — torn frames, stalled peers,
//! mid-stream resets, a reload racing a stream — but reproducibly, on
//! demand, without flaky timing.
//! [`ChaosProxy`] provides them: a TCP proxy between client and server
//! that executes a [`FaultPlan`], a scripted queue of [`ServeFault`]s
//! consumed one per proxied connection. When the queue runs dry every
//! further connection passes through clean, so a retrying client
//! always converges once the scripted faults are spent.
//!
//! The proxy is frame-aware on the response path (it re-encodes whole
//! `daisy-wire` frames before deciding where to cut), which is what
//! makes the faults *typed*: a torn frame lands mid-frame by
//! construction, a reset lands exactly on a frame boundary, and a
//! reload fires after an exact number of delivered frames — no
//! sleep-and-hope.
//!
//! Storage faults on the model file (a failed quarantine, a flipped
//! read) are not network faults: they are armed on the model itself
//! with [`SharedModel::load_with_faults`], through the same
//! `daisy_wire::fault` seam every sealed format uses.

use crate::proto::{read_frame, write_frame, MAX_RESPONSE_FRAME};
use crate::server::SharedModel;
use daisy_telemetry::sleep_ms;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// How often a parked (stalling) pump re-checks whether its
/// connection is finished.
const PARK_POLL_MS: u64 = 5;

/// One scripted network failure, applied to one proxied connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeFault {
    /// Forward `after_frames` complete response frames, then half of
    /// the next frame's bytes, then close — the client sees a
    /// mid-frame truncation (a typed protocol error).
    TornFrame {
        /// Complete response frames delivered before the tear.
        after_frames: u64,
    },
    /// Forward only `after_bytes` of the client's request, then stall
    /// — holding the server-side write half *open* — until the server
    /// gives up. This is the slow-loris shape: the server's
    /// per-connection read deadline, not a truncation error, must end
    /// it.
    StalledRead {
        /// Request bytes delivered before the stall.
        after_bytes: u64,
    },
    /// Forward `after_frames` complete response frames, then close
    /// abruptly — the client sees a stream with no end frame.
    MidStreamReset {
        /// Complete response frames delivered before the reset.
        after_frames: u64,
    },
    /// After `after_frames` response frames, trigger a hot model
    /// reload on the [`SharedModel`] handle given to
    /// [`ChaosProxy::spawn`], then keep proxying clean — the in-flight
    /// stream must finish on the old model, byte-exact.
    ReloadDuringStream {
        /// Complete response frames delivered before the reload fires.
        after_frames: u64,
    },
}

/// A scripted queue of faults, consumed front-to-back, one per proxied
/// connection. Shared (`Arc`) between the test and the proxy so tests
/// can append faults or watch the queue drain.
#[derive(Debug, Default)]
pub struct FaultPlan {
    queue: Mutex<VecDeque<ServeFault>>,
}

impl FaultPlan {
    /// A plan executing `faults` in order.
    pub fn new(faults: Vec<ServeFault>) -> Arc<FaultPlan> {
        Arc::new(FaultPlan {
            queue: Mutex::new(faults.into()),
        })
    }

    /// Appends one more fault to the script.
    pub fn push(&self, fault: ServeFault) {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(fault);
    }

    /// Faults not yet consumed.
    pub fn remaining(&self) -> usize {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    fn next(&self) -> Option<ServeFault> {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
    }
}

/// A fault-injecting TCP proxy in front of a `daisy serve` endpoint.
/// Clients connect to [`ChaosProxy::addr`]; each connection consumes
/// the next scripted fault (clean pass-through once the plan is dry).
pub struct ChaosProxy {
    addr: SocketAddr,
    plan: Arc<FaultPlan>,
}

impl ChaosProxy {
    /// Binds an ephemeral local port and detaches the accept loop.
    /// `reload` is the handle [`ServeFault::ReloadDuringStream`] acts
    /// on; pass `None` when the plan scripts no reload.
    pub fn spawn(
        upstream: SocketAddr,
        plan: Arc<FaultPlan>,
        reload: Option<Arc<SharedModel>>,
    ) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let accept_plan = Arc::clone(&plan);
        // daisy-lint: allow(D003) -- test-only chaos proxy; faults are scripted, not scheduled
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(client) = stream else { continue };
                let fault = accept_plan.next();
                let reload = reload.clone();
                // daisy-lint: allow(D003) -- one proxied connection; its fault is scripted, not scheduled
                std::thread::spawn(move || proxy_connection(client, upstream, fault, reload));
            }
        });
        Ok(ChaosProxy { addr, plan })
    }

    /// The address clients should connect to instead of the server.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared fault script.
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }
}

/// Proxies one connection under (at most) one scripted fault.
fn proxy_connection(
    client: TcpStream,
    upstream_addr: SocketAddr,
    fault: Option<ServeFault>,
    reload: Option<Arc<SharedModel>>,
) {
    let Ok(upstream) = TcpStream::connect(upstream_addr) else {
        return;
    };
    let stall = match fault {
        Some(ServeFault::StalledRead { after_bytes }) => Some(after_bytes),
        _ => None,
    };
    let done = Arc::new(AtomicBool::new(false));
    {
        let client = match client.try_clone() {
            Ok(c) => c,
            Err(_) => return,
        };
        let upstream = match upstream.try_clone() {
            Ok(u) => u,
            Err(_) => return,
        };
        let done = Arc::clone(&done);
        // daisy-lint: allow(D003) -- request pump of one proxied connection; scripted, not scheduled
        std::thread::spawn(move || pump_request(client, upstream, stall, &done));
    }
    pump_response(upstream, client, fault, reload.as_deref());
    // Unpark a stalled request pump; both halves are finished.
    done.store(true, Ordering::Relaxed);
}

/// Client → server: raw byte copy, optionally stalling after a byte
/// budget. The stall holds the upstream write half open on purpose —
/// the server must experience *no progress*, not a truncation, so its
/// read deadline is what ends the connection.
fn pump_request(
    mut client: TcpStream,
    mut upstream: TcpStream,
    stall: Option<u64>,
    done: &AtomicBool,
) {
    let mut budget = stall;
    let mut chunk = [0u8; 4096];
    loop {
        let n = match client.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let mut slice = &chunk[..n];
        if let Some(b) = &mut budget {
            if (*b as usize) < slice.len() {
                slice = &slice[..*b as usize];
                let _ = upstream.write_all(slice);
                let _ = upstream.flush();
                while !done.load(Ordering::Relaxed) {
                    sleep_ms(PARK_POLL_MS);
                }
                return;
            }
            *b -= slice.len() as u64;
        }
        if upstream.write_all(slice).is_err() {
            break;
        }
    }
    let _ = upstream.shutdown(Shutdown::Write);
}

/// Server → client: frame-aware copy applying the response-path
/// faults. Returning closes both streams (the pump owns them), which
/// is how tears and resets terminate the connection.
fn pump_response(
    upstream: TcpStream,
    mut client: TcpStream,
    mut fault: Option<ServeFault>,
    reload: Option<&SharedModel>,
) {
    let mut upstream_reader = upstream;
    let mut forwarded = 0u64;
    loop {
        let body = match read_frame(&mut upstream_reader, MAX_RESPONSE_FRAME) {
            Ok(Some(body)) => body,
            // Upstream EOF or violation: nothing more to forward.
            Ok(None) | Err(_) => return,
        };
        let mut encoded = Vec::with_capacity(body.len() + 16);
        // Writing into a Vec cannot fail.
        let _ = write_frame(&mut encoded, &body);
        match fault {
            Some(ServeFault::TornFrame { after_frames }) if forwarded == after_frames => {
                let _ = client.write_all(&encoded[..encoded.len() / 2]);
                let _ = client.flush();
                return;
            }
            Some(ServeFault::MidStreamReset { after_frames }) if forwarded == after_frames => {
                return;
            }
            Some(ServeFault::ReloadDuringStream { after_frames }) if forwarded == after_frames => {
                if let Some(model) = reload {
                    let _ = model.reload();
                }
                fault = None;
            }
            _ => {}
        }
        if client.write_all(&encoded).is_err() {
            return;
        }
        forwarded += 1;
    }
}
