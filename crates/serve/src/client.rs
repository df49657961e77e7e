//! The client side: send a request, validate and decode the response
//! stream — including resuming interrupted streams with deterministic
//! backoff.
//!
//! Three layers, each built on the one below:
//!
//! - [`StreamDecoder`] — incremental, frame-at-a-time validation
//!   (header echo, contiguous absolute row positions, per-frame sizes,
//!   the end frame's row total and payload CRC). The same decoder
//!   drives one-shot and resumed fetches, so there is exactly one
//!   definition of "valid response".
//! - [`fetch`] / [`decode_response`] — one connection, the whole
//!   stream, a materialized [`Response`].
//! - [`fetch_resumable`] — survives torn frames, resets, stalls, shed
//!   rejections, and server drains: every validated frame advances the
//!   resume point, transient failures back off deterministically
//!   ([`RetryPolicy`]), and the reassembled row payload is
//!   byte-identical to an uninterrupted fetch (the contract
//!   `tests/serve_chaos.rs` enforces).

use crate::proto::{
    read_frame, write_frame, ColumnSpec, EndFrame, Header, Request, FRAME_ROWS, MAGIC_DATA,
    MAGIC_END, MAGIC_HEADER, MAX_RESPONSE_FRAME,
};
use crate::ServeError;
use daisy_data::Value;
use daisy_telemetry::sleep_ms;
use daisy_wire::{Crc64, Reader};
use std::io::Read;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};

/// A fully decoded, CRC-verified response to one accepted request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request seed.
    pub seed: u64,
    /// Echo of the request condition.
    pub condition: Option<String>,
    /// The column contract the rows follow.
    pub columns: Vec<ColumnSpec>,
    /// Every streamed row, in order. Numerical cells are
    /// [`Value::Num`], categorical cells are [`Value::Cat`] codes into
    /// the matching [`ColumnSpec::Cat`] category list;
    /// [`ColumnSpec::render_cell`] renders either as a CSV field.
    pub rows: Vec<Vec<Value>>,
}

/// What [`StreamDecoder::feed`] made of one frame body.
#[derive(Debug)]
pub enum StreamItem {
    /// The accepted response header; the column contract is now
    /// available via [`StreamDecoder::columns`].
    Header,
    /// One validated data frame.
    Rows {
        /// Absolute row index of the first row in `rows`.
        first_row: u64,
        /// The decoded rows, one [`Value`] per column.
        rows: Vec<Vec<Value>>,
        /// The raw row-payload bytes of this frame (already folded
        /// into the stream CRC). Concatenating these across frames —
        /// and across resumed fetches — reproduces the uninterrupted
        /// stream's payload exactly.
        payload: Vec<u8>,
    },
    /// The validated end frame sealing the stream. Check
    /// [`EndFrame::draining`] to distinguish a complete response from
    /// a drain-truncated one.
    End(EndFrame),
}

/// Incremental validator/decoder for one response stream. Feed it each
/// frame body as it arrives; it enforces the full protocol — header
/// first, contiguous absolute rows, exact payload sizes, and the end
/// frame's row total and CRC seal — without ever buffering more than
/// one frame.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    accepted: Option<AcceptedHeader>,
    row_bytes: usize,
    next_row: u64,
    payload_crc: Crc64,
    end: Option<EndFrame>,
}

#[derive(Debug)]
struct AcceptedHeader {
    seed: u64,
    n_rows: u64,
    start_row: u64,
    condition: Option<String>,
    columns: Vec<ColumnSpec>,
}

impl StreamDecoder {
    /// A decoder expecting a fresh response stream (header first).
    pub fn new() -> StreamDecoder {
        StreamDecoder::default()
    }

    /// Validates one frame body in stream order. A rejection header
    /// surfaces as [`ServeError::Rejected`]; every protocol violation
    /// as [`ServeError::Protocol`].
    pub fn feed(&mut self, body: &[u8]) -> Result<StreamItem, ServeError> {
        if self.end.is_some() {
            return Err(ServeError::Protocol("data after the end frame".to_string()));
        }
        let Some(accepted) = &self.accepted else {
            if !body.starts_with(MAGIC_HEADER) {
                return Err(ServeError::Protocol(
                    "response does not start with a header frame".to_string(),
                ));
            }
            return match Header::decode(body)? {
                Header::Rejected { reason } => Err(ServeError::Rejected(reason)),
                Header::Accepted {
                    seed,
                    n_rows,
                    start_row,
                    condition,
                    columns,
                } => {
                    self.row_bytes = columns.iter().map(ColumnSpec::cell_bytes).sum();
                    self.next_row = start_row;
                    self.accepted = Some(AcceptedHeader {
                        seed,
                        n_rows,
                        start_row,
                        condition,
                        columns,
                    });
                    Ok(StreamItem::Header)
                }
            };
        };
        if body.starts_with(MAGIC_END) {
            let end = EndFrame::decode(body)?;
            if end.end_row != self.next_row {
                return Err(ServeError::Protocol(format!(
                    "end frame declares row {} but the stream reached row {}",
                    end.end_row, self.next_row
                )));
            }
            let actual = self.payload_crc.finish();
            if end.payload_crc != actual {
                return Err(ServeError::Protocol(format!(
                    "stream checksum mismatch (stored {:016x}, computed {actual:016x})",
                    end.payload_crc
                )));
            }
            if !end.draining() && end.end_row != accepted.n_rows {
                return Err(ServeError::Protocol(format!(
                    "stream sealed at row {} of {} without a draining flag",
                    end.end_row, accepted.n_rows
                )));
            }
            self.end = Some(end);
            return Ok(StreamItem::End(end));
        }
        if !body.starts_with(MAGIC_DATA) {
            return Err(ServeError::Protocol(
                "expected a data or end frame".to_string(),
            ));
        }
        let mut r = Reader::new(&body[4..]);
        let first_row = r.u64().map_err(ServeError::Protocol)?;
        let n = r.u64().map_err(ServeError::Protocol)?;
        if first_row != self.next_row {
            return Err(ServeError::Protocol(format!(
                "data frame starts at row {first_row}, expected {}",
                self.next_row
            )));
        }
        // The row count sizes the payload and the row buffer below, so
        // it is checked before either is computed.
        if n > FRAME_ROWS as u64 {
            return Err(ServeError::Protocol(format!(
                "data frame claims {n} rows; a frame holds at most {FRAME_ROWS}"
            )));
        }
        if first_row
            .checked_add(n)
            .is_none_or(|end| end > accepted.n_rows)
        {
            return Err(ServeError::Protocol(format!(
                "data frame of {n} rows at row {first_row} runs past the stream's {} rows",
                accepted.n_rows
            )));
        }
        let n = n as usize;
        let payload = r
            .take(n * self.row_bytes)
            .map_err(|e| ServeError::Protocol(format!("short data frame: {e}")))?;
        if !r.is_empty() {
            return Err(ServeError::Protocol(
                "trailing bytes after data frame payload".to_string(),
            ));
        }
        self.payload_crc.update(payload);
        let mut cells = Reader::new(payload);
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(accepted.columns.len());
            for col in &accepted.columns {
                match col {
                    ColumnSpec::Num { .. } => {
                        row.push(Value::Num(cells.f64().map_err(ServeError::Protocol)?))
                    }
                    ColumnSpec::Cat { .. } => {
                        row.push(Value::Cat(cells.u32().map_err(ServeError::Protocol)?))
                    }
                }
            }
            rows.push(row);
        }
        let payload = payload.to_vec();
        self.next_row += n as u64;
        Ok(StreamItem::Rows {
            first_row,
            rows,
            payload,
        })
    }

    /// The column contract, once the header has been fed.
    pub fn columns(&self) -> &[ColumnSpec] {
        self.accepted.as_ref().map(|a| &a.columns[..]).unwrap_or(&[])
    }

    /// The header's echoed `(seed, n_rows, start_row)`, once fed.
    pub fn echo(&self) -> Option<(u64, u64, u64)> {
        self.accepted
            .as_ref()
            .map(|a| (a.seed, a.n_rows, a.start_row))
    }

    /// The header's echoed condition, once fed.
    pub fn condition(&self) -> Option<&str> {
        self.accepted.as_ref().and_then(|a| a.condition.as_deref())
    }

    /// The absolute row the next data frame must start at — after a
    /// truncated stream, the resume point a retrying client asks for.
    pub fn next_row(&self) -> u64 {
        self.next_row
    }

    /// The validated end frame, once the stream is sealed.
    pub fn end(&self) -> Option<&EndFrame> {
        self.end.as_ref()
    }

    /// True when the stream is sealed *and* reached `n_rows` (a
    /// drain-truncated stream is validly sealed but not complete).
    pub fn complete(&self) -> bool {
        match (&self.accepted, &self.end) {
            (Some(a), Some(e)) => e.end_row == a.n_rows && !e.draining(),
            _ => false,
        }
    }
}

/// Sends `request` to a `daisy serve` endpoint and returns the raw
/// response bytes, unparsed. The byte-identity tests and the
/// reproducibility smoke compare these buffers directly; [`fetch`]
/// layers decoding on top.
pub fn fetch_raw(addr: impl ToSocketAddrs, request: &Request) -> Result<Vec<u8>, ServeError> {
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, &request.encode())?;
    // Half-close: the server's request loop sees EOF after this
    // request and ends the connection once the response is flushed.
    stream.shutdown(Shutdown::Write)?;
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// Sends `request` and decodes the response. A server-side rejection
/// surfaces as [`ServeError::Rejected`]; a drain-truncated stream as a
/// `draining`-prefixed rejection naming the resume point (use
/// [`fetch_resumable`] to follow it automatically).
pub fn fetch(addr: impl ToSocketAddrs, request: &Request) -> Result<Response, ServeError> {
    decode_response(&fetch_raw(addr, request)?)
}

/// Decodes and verifies one complete response byte stream through
/// [`StreamDecoder`]. A validly sealed but drain-truncated stream is
/// reported as [`ServeError::Rejected`] with the resume point.
pub fn decode_response(bytes: &[u8]) -> Result<Response, ServeError> {
    let mut input = bytes;
    let mut decoder = StreamDecoder::new();
    let mut rows: Vec<Vec<Value>> = Vec::new();
    while let Some(body) = read_frame(&mut input, MAX_RESPONSE_FRAME)? {
        if let StreamItem::Rows { rows: batch, .. } = decoder.feed(&body)? {
            rows.extend(batch);
        }
    }
    let Some(end) = decoder.end() else {
        return Err(ServeError::Protocol(
            "response ended without an end frame".to_string(),
        ));
    };
    if end.draining() {
        return Err(ServeError::Rejected(format!(
            "draining: stream truncated at row {}; resume with start_row={}",
            end.end_row, end.end_row
        )));
    }
    let Some((seed, _, _)) = decoder.echo() else {
        return Err(ServeError::Protocol("response had no header".to_string()));
    };
    let condition = decoder.condition().map(str::to_string);
    Ok(Response {
        seed,
        condition,
        columns: decoder.columns().to_vec(),
        rows,
    })
}

/// Deterministic exponential backoff with seeded jitter. Two clients
/// built with the same policy back off identically — retry behavior is
/// as reproducible as the streams being retried.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total connection attempts, the first included (so 1 = never
    /// retry). Transient failures past this surface as errors.
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds; doubles every
    /// retry after that.
    pub base_backoff_ms: u64,
    /// Ceiling on any single backoff, in milliseconds.
    pub max_backoff_ms: u64,
    /// Seed of the jitter stream. Jitter decorrelates replicas that
    /// fail together without sacrificing reproducibility: same seed,
    /// same delays.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_backoff_ms: 50,
            max_backoff_ms: 2_000,
            jitter_seed: 0xDA15,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `retry` (0-based): the capped
    /// exponential `min(base·2^retry, max)`, jittered into its upper
    /// half `[d/2, d]` by a hash of `(jitter_seed, retry)`.
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << retry.min(20) as u64)
            .min(self.max_backoff_ms)
            .max(1);
        let half = exp / 2;
        half + splitmix64(self.jitter_seed ^ u64::from(retry).wrapping_mul(0x9E37_79B9)) % (exp - half + 1)
    }
}

/// SplitMix64 finalizer — the jitter hash. Dependency-free and stable
/// across platforms, which is all the jitter needs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One delivery from [`fetch_with_retry`]: a validated batch of rows
/// (empty on the initial header notification).
#[derive(Debug)]
pub struct Progress<'a> {
    /// The column contract (available from the first delivery on).
    pub columns: &'a [ColumnSpec],
    /// Absolute row index of the first row in `rows`.
    pub first_row: u64,
    /// The validated rows of this batch; empty for the one-time header
    /// notification.
    pub rows: &'a [Vec<Value>],
    /// The raw validated row-payload bytes of this batch.
    pub payload: &'a [u8],
    /// Total rows of the logical stream.
    pub n_rows: u64,
    /// 1-based connection attempt that delivered this batch.
    pub attempt: u32,
}

/// What a resumable fetch did to deliver the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchReport {
    /// Connection attempts used (1 = the stream survived intact).
    pub attempts: u32,
    /// Concatenated CRC-validated row-payload bytes across every
    /// attempt — byte-identical to the payload of one uninterrupted
    /// fetch of the same request (the resumability contract).
    pub payload: Vec<u8>,
}

/// True for failures worth retrying: transport errors, protocol
/// violations (a torn or corrupted stream says nothing about the
/// request), and the two transient rejections the server types out
/// (`overloaded` under shed, `draining` during shutdown). Permanent
/// rejections — bad condition, row cap — fail immediately.
fn retryable(e: &ServeError) -> bool {
    match e {
        ServeError::Io(_) | ServeError::Protocol(_) => true,
        ServeError::Rejected(reason) => {
            reason.starts_with("overloaded") || reason.starts_with("draining")
        }
        ServeError::CorruptModel { .. } => false,
    }
}

/// Streams `request`, surviving interruptions: each validated frame is
/// handed to `on_batch` exactly once, in row order, and on any
/// transient failure the fetch backs off per `policy` and resumes at
/// the first unvalidated row (`start_row` on the wire). Nothing is
/// ever delivered twice and nothing unvalidated is delivered at all.
///
/// Returns the attempts used. Memory stays bounded by one frame —
/// accumulate in `on_batch` only if you want materialization (that is
/// what [`fetch_resumable`] does).
pub fn fetch_with_retry(
    addr: impl ToSocketAddrs,
    request: &Request,
    policy: &RetryPolicy,
    mut on_batch: impl FnMut(Progress<'_>),
) -> Result<u32, ServeError> {
    let mut next_start = request.start_row;
    let mut header_notified = false;
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match fetch_once(
            &addr,
            &request.resuming_at(next_start),
            attempt,
            &mut header_notified,
            &mut on_batch,
            &mut next_start,
        ) {
            Ok(()) => return Ok(attempt),
            Err(e) if retryable(&e) && attempt < policy.max_attempts => {
                sleep_ms(policy.backoff_ms(attempt - 1));
            }
            Err(e) => return Err(e),
        }
    }
}

/// One connection's worth of [`fetch_with_retry`]: stream frames,
/// validate incrementally, advance `next_start` past every validated
/// row. `Ok(())` only when the stream sealed complete.
fn fetch_once(
    addr: &impl ToSocketAddrs,
    request: &Request,
    attempt: u32,
    header_notified: &mut bool,
    on_batch: &mut impl FnMut(Progress<'_>),
    next_start: &mut u64,
) -> Result<(), ServeError> {
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, &request.encode())?;
    stream.shutdown(Shutdown::Write)?;
    let mut decoder = StreamDecoder::new();
    loop {
        let Some(body) = read_frame(&mut stream, MAX_RESPONSE_FRAME)? else {
            return Err(ServeError::Protocol(
                "response ended without an end frame".to_string(),
            ));
        };
        match decoder.feed(&body)? {
            StreamItem::Header => {
                let Some((seed, n_rows, start_row)) = decoder.echo() else {
                    continue;
                };
                if seed != request.seed || n_rows != request.n_rows || start_row != request.start_row
                {
                    return Err(ServeError::Protocol(format!(
                        "header echo mismatch: got (seed {seed}, n_rows {n_rows}, start_row {start_row})"
                    )));
                }
                if !*header_notified {
                    *header_notified = true;
                    on_batch(Progress {
                        columns: decoder.columns(),
                        first_row: start_row,
                        rows: &[],
                        payload: &[],
                        n_rows,
                        attempt,
                    });
                }
            }
            StreamItem::Rows {
                first_row,
                rows,
                payload,
            } => {
                on_batch(Progress {
                    columns: decoder.columns(),
                    first_row,
                    rows: &rows,
                    payload: &payload,
                    n_rows: request.n_rows,
                    attempt,
                });
                *next_start = decoder.next_row();
            }
            StreamItem::End(end) => {
                *next_start = end.end_row;
                if end.draining() {
                    return Err(ServeError::Rejected(format!(
                        "draining: stream truncated at row {}; resuming",
                        end.end_row
                    )));
                }
                return Ok(());
            }
        }
    }
}

/// [`fetch_with_retry`] with materialization: returns the complete
/// [`Response`] plus a [`FetchReport`] carrying the attempts used and
/// the reassembled payload bytes for byte-identity checks.
pub fn fetch_resumable(
    addr: impl ToSocketAddrs,
    request: &Request,
    policy: &RetryPolicy,
) -> Result<(Response, FetchReport), ServeError> {
    let mut rows: Vec<Vec<Value>> = Vec::new();
    let mut payload: Vec<u8> = Vec::new();
    let mut columns: Vec<ColumnSpec> = Vec::new();
    let attempts = fetch_with_retry(&addr, request, policy, |p| {
        if columns.is_empty() {
            columns = p.columns.to_vec();
        }
        rows.extend(p.rows.iter().cloned());
        payload.extend_from_slice(p.payload);
    })?;
    Ok((
        Response {
            seed: request.seed,
            condition: request.condition.clone(),
            columns,
            rows,
        },
        FetchReport { attempts, payload },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let policy = RetryPolicy::default();
        let a: Vec<u64> = (0..8).map(|r| policy.backoff_ms(r)).collect();
        let b: Vec<u64> = (0..8).map(|r| policy.backoff_ms(r)).collect();
        assert_eq!(a, b, "same policy, same delays");
        for (r, d) in a.iter().enumerate() {
            let exp = (policy.base_backoff_ms << r).min(policy.max_backoff_ms);
            assert!(*d >= exp / 2 && *d <= exp, "retry {r}: {d} outside [{}, {exp}]", exp / 2);
        }
        // Distinct seeds decorrelate.
        let other = RetryPolicy {
            jitter_seed: 7,
            ..RetryPolicy::default()
        };
        assert_ne!(
            (0..8).map(|r| policy.backoff_ms(r)).collect::<Vec<_>>(),
            (0..8).map(|r| other.backoff_ms(r)).collect::<Vec<_>>()
        );
    }

    /// A CRC-framed response: an accepted header over `columns` for an
    /// `n_rows` stream, then one data frame at row 0 that claims
    /// `claimed` rows and carries `payload`.
    fn crafted_response(
        columns: Vec<ColumnSpec>,
        n_rows: u64,
        claimed: u64,
        payload: &[u8],
    ) -> Vec<u8> {
        let header = Header::Accepted {
            seed: 1,
            n_rows,
            start_row: 0,
            condition: None,
            columns,
        };
        let mut data = daisy_wire::Writer::default();
        data.buf.extend_from_slice(MAGIC_DATA);
        data.u64(0);
        data.u64(claimed);
        data.buf.extend_from_slice(payload);
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &header.encode()).expect("writing to a Vec cannot fail");
        write_frame(&mut bytes, &data.buf).expect("writing to a Vec cannot fail");
        bytes
    }

    fn expect_protocol_error(bytes: &[u8], needle: &str) {
        match decode_response(bytes) {
            Err(ServeError::Protocol(msg)) => assert!(msg.contains(needle), "{msg}"),
            other => panic!("expected a protocol error naming {needle:?}, got {other:?}"),
        }
    }

    fn one_num_column() -> Vec<ColumnSpec> {
        vec![ColumnSpec::Num {
            name: "x".to_string(),
        }]
    }

    #[test]
    fn zero_width_rows_cannot_claim_terabytes() {
        // Zero columns make every row zero bytes, so 2^40 rows "fit" in
        // an empty payload; the row buffer alone would need 26 TB.
        expect_protocol_error(&crafted_response(vec![], 1 << 41, 1 << 40, &[]), "at most");
    }

    #[test]
    fn a_row_count_that_wraps_the_payload_size_is_rejected() {
        // With 8-byte rows, 2^61 + 1 rows wrap the payload size to 8.
        let bytes = crafted_response(one_num_column(), u64::MAX, (1 << 61) + 1, &[0u8; 8]);
        expect_protocol_error(&bytes, "at most");
    }

    #[test]
    fn a_data_frame_may_not_run_past_the_advertised_total() {
        let bytes = crafted_response(one_num_column(), 10, 11, &[0u8; 88]);
        expect_protocol_error(&bytes, "runs past");
        // The same frame within the total decodes.
        let mut ok = crafted_response(one_num_column(), 11, 11, &[0u8; 88]);
        let end = EndFrame {
            end_row: 11,
            payload_crc: daisy_wire::crc64(&[0u8; 88]),
            flags: 0,
        };
        write_frame(&mut ok, &end.encode()).expect("writing to a Vec cannot fail");
        assert_eq!(decode_response(&ok).expect("valid stream").rows.len(), 11);
    }

    #[test]
    fn retryable_classification() {
        assert!(retryable(&ServeError::Protocol("torn".into())));
        assert!(retryable(&ServeError::Io(std::io::Error::other("reset"))));
        assert!(retryable(&ServeError::Rejected("overloaded: busy".into())));
        assert!(retryable(&ServeError::Rejected("draining: bye".into())));
        assert!(!retryable(&ServeError::Rejected("unknown condition".into())));
        assert!(!retryable(&ServeError::CorruptModel {
            error: "x".into(),
            quarantined: None
        }));
    }
}
