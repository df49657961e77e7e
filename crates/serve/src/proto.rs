//! The serving wire protocol: CRC-framed requests and responses.
//!
//! Every protocol unit is one **frame** in the `daisy-wire` section
//! discipline — `[len: u64 LE][crc64: u64 LE][body: len bytes]` — so a
//! flipped bit anywhere surfaces as a typed checksum error, exactly as
//! in the model and chunk-store formats. Frame bodies open with a
//! 4-byte magic:
//!
//! | magic  | frame | layout after the magic |
//! |--------|-------|------------------------|
//! | `DSRQ` | request | `version u8, seed u64, n_rows u64, start_row u64, has_condition u8, [condition str]` |
//! | `DSRH` | response header | `version u8, ok u8` then the accepted/rejected layout below |
//! | `DSRD` | response data | `first_row u64, n_rows u64, n_rows × row payload` |
//! | `DSRE` | response end | `end_row u64, payload_crc64 u64, flags u8` |
//!
//! Accepted header (`ok = 1`): `seed u64, n_rows u64, start_row u64,
//! has_condition u8, [condition str], n_columns u64`, then per column a
//! [`ColumnSpec`]: `kind u8` (0 numerical, 1 categorical), `name str`,
//! and for categorical columns `n_categories u64` + that many `str`s.
//! Rejected header (`ok = 0`): a single `str` with the reason.
//!
//! A **row payload** is one cell per column in schema order:
//! numerical cells are `f64 LE`, categorical cells are `u32 LE` codes
//! into the header's category list. `str` is the `daisy-wire`
//! length-prefixed UTF-8 encoding.
//!
//! Row positions on the wire are **absolute**: a request with
//! `start_row = k` resumes the logical `n_rows`-row stream at row `k`,
//! data frames carry their absolute `first_row`, and the end frame's
//! `end_row` is the absolute row reached. The end frame's
//! `payload_crc64` seals the concatenated row payloads of *this
//! response's* data frames, and its `flags` distinguish a complete
//! stream (`0`) from one truncated by a server drain
//! ([`END_FLAG_DRAINING`]) — the typed signal a resuming client acts
//! on.
//!
//! The response layout is a *pure function of the request and the
//! model*: batch boundaries stay on the `GENERATION_BATCH` grid
//! anchored at row 0 no matter where a resume starts, so the
//! concatenated row payloads of any split of `[0, n)` into resumed
//! fetches are byte-identical to one uninterrupted fetch — the
//! contract `tests/serve_stream.rs` and `tests/serve_chaos.rs`
//! enforce.

use crate::ServeError;
use daisy_core::synthesizer::GENERATION_BATCH;
use daisy_data::csv::escape_cell;
use daisy_data::{DataError, Value};
use daisy_wire::{crc64, Reader, Writer};
use std::io::{Read, Write};

/// Protocol version, first body byte after every magic. Bumped on any
/// layout change so stale clients fail with a typed error instead of
/// misparsing. Version 2 added resumable offsets: `start_row` in the
/// request and accepted header, and the end frame's `flags` byte.
pub const PROTOCOL_VERSION: u8 = 2;

/// End-frame flag: the stream was truncated by a graceful drain before
/// reaching `n_rows`; `end_row` is the first row the client still
/// needs. Resume with a `start_row = end_row` request elsewhere.
pub const END_FLAG_DRAINING: u8 = 1;

/// Hard cap on request frame bodies: a request is a few dozen bytes,
/// so anything larger is a protocol violation, not a big request.
pub const MAX_REQUEST_FRAME: usize = 1 << 16;

/// Hard cap on response frame bodies: a data frame is at most
/// `GENERATION_BATCH` rows of 8-byte cells over a few thousand
/// columns; 64 MiB is comfortably past any legal frame.
pub const MAX_RESPONSE_FRAME: usize = 1 << 26;

pub(crate) use daisy_wire::magic::{
    SERVE_DATA as MAGIC_DATA, SERVE_END as MAGIC_END, SERVE_HEADER as MAGIC_HEADER,
    SERVE_REQUEST as MAGIC_REQUEST,
};

/// Rows per response data frame (re-exported constant of the core
/// generation loop, so the frame layout is pinned to the batch size
/// the RNG contract already fixes).
pub(crate) const FRAME_ROWS: usize = GENERATION_BATCH;

/// Writes one CRC-sealed frame (`[len][crc64][body]`) to `w` with a
/// single `write_all`. On a socket the frame then leaves as soon as it
/// is written: three small writes would let Nagle's algorithm hold the
/// frame's tail until the peer acknowledged its head.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(16 + body.len());
    frame.extend_from_slice(&(body.len() as u64).to_le_bytes());
    frame.extend_from_slice(&crc64(body).to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)
}

/// Reads one CRC-sealed frame body from `r`, enforcing `max` on the
/// declared length. Returns `Ok(None)` on clean end-of-stream (EOF
/// before the first length byte); a mid-frame EOF, an oversized
/// declaration, or a checksum mismatch is a [`ServeError::Protocol`].
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, ServeError> {
    let mut len_buf = [0u8; 8];
    let mut got = 0;
    while got < 8 {
        let n = r.read(&mut len_buf[got..]).map_err(ServeError::Io)?;
        if n == 0 {
            if got == 0 {
                return Ok(None); // clean EOF between frames
            }
            return Err(ServeError::Protocol("truncated frame length".to_string()));
        }
        got += n;
    }
    let len = u64::from_le_bytes(len_buf);
    if len > max as u64 {
        return Err(ServeError::Protocol(format!(
            "frame of {len} bytes exceeds the {max}-byte cap"
        )));
    }
    let mut crc_buf = [0u8; 8];
    r.read_exact(&mut crc_buf).map_err(io_as_truncation)?;
    let stored = u64::from_le_bytes(crc_buf);
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body).map_err(io_as_truncation)?;
    let actual = crc64(&body);
    if actual != stored {
        return Err(ServeError::Protocol(format!(
            "frame checksum mismatch (stored {stored:016x}, computed {actual:016x})"
        )));
    }
    Ok(Some(body))
}

/// A mid-frame EOF is a protocol violation (torn stream), not an I/O
/// environment failure; other read errors pass through as I/O.
fn io_as_truncation(e: std::io::Error) -> ServeError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        ServeError::Protocol("truncated frame".to_string())
    } else {
        ServeError::Io(e)
    }
}

/// A generation request: the complete identity of a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Seed of the request's private RNG stream.
    pub seed: u64,
    /// Total rows of the logical stream. A resume still names the full
    /// total; `start_row` picks where in it this response begins.
    pub n_rows: u64,
    /// First row of the logical stream to send (0 for a fresh fetch).
    /// Rows `[start_row, n_rows)` are streamed; earlier rows are
    /// fast-forwarded over without being encoded.
    pub start_row: u64,
    /// Optional label category every row must be conditioned on
    /// (conditional models only).
    pub condition: Option<String>,
}

impl Request {
    /// An unconditioned request.
    pub fn new(seed: u64, n_rows: u64) -> Request {
        Request {
            seed,
            n_rows,
            start_row: 0,
            condition: None,
        }
    }

    /// A request conditioned on the label category `condition`.
    pub fn conditioned(seed: u64, n_rows: u64, condition: &str) -> Request {
        Request {
            seed,
            n_rows,
            start_row: 0,
            condition: Some(condition.to_string()),
        }
    }

    /// The same logical request, resuming at `start_row` — what a
    /// retrying client sends after validating `start_row` rows.
    pub fn resuming_at(&self, start_row: u64) -> Request {
        Request {
            start_row,
            ..self.clone()
        }
    }

    /// Encodes the request frame body (`DSRQ` layout).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.buf.extend_from_slice(MAGIC_REQUEST);
        w.u8(PROTOCOL_VERSION);
        w.u64(self.seed);
        w.u64(self.n_rows);
        w.u64(self.start_row);
        match &self.condition {
            Some(c) => {
                w.bool(true);
                w.str(c);
            }
            None => w.bool(false),
        }
        w.buf
    }

    /// Decodes a request frame body.
    pub fn decode(body: &[u8]) -> Result<Request, ServeError> {
        let mut r = Reader::new(body);
        if r.take(4).map_err(ServeError::Protocol)? != MAGIC_REQUEST {
            return Err(ServeError::Protocol("not a request frame".to_string()));
        }
        let version = r.u8().map_err(ServeError::Protocol)?;
        if version != PROTOCOL_VERSION {
            return Err(ServeError::Protocol(format!(
                "protocol version {version} unsupported (expected {PROTOCOL_VERSION})"
            )));
        }
        let seed = r.u64().map_err(ServeError::Protocol)?;
        let n_rows = r.u64().map_err(ServeError::Protocol)?;
        let start_row = r.u64().map_err(ServeError::Protocol)?;
        let condition = if r.bool().map_err(ServeError::Protocol)? {
            Some(r.str().map_err(ServeError::Protocol)?)
        } else {
            None
        };
        if !r.is_empty() {
            return Err(ServeError::Protocol(
                "trailing bytes after request".to_string(),
            ));
        }
        Ok(Request {
            seed,
            n_rows,
            start_row,
            condition,
        })
    }
}

/// The decoded `DSRE` end frame sealing a response stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndFrame {
    /// Absolute row the stream reached: `n_rows` for a complete
    /// response, the first still-needed row for a drained one.
    pub end_row: u64,
    /// CRC-64 over the concatenated row payloads of this response's
    /// data frames.
    pub payload_crc: u64,
    /// `0` for a complete stream, [`END_FLAG_DRAINING`] when the
    /// server truncated it to drain.
    pub flags: u8,
}

impl EndFrame {
    /// True when the server truncated the stream to drain.
    pub fn draining(&self) -> bool {
        self.flags & END_FLAG_DRAINING != 0
    }

    /// Encodes the end frame body (`DSRE` layout).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.buf.extend_from_slice(MAGIC_END);
        w.u64(self.end_row);
        w.u64(self.payload_crc);
        w.u8(self.flags);
        w.buf
    }

    /// Decodes an end frame body.
    pub fn decode(body: &[u8]) -> Result<EndFrame, ServeError> {
        let mut r = Reader::new(body);
        if r.take(4).map_err(ServeError::Protocol)? != MAGIC_END {
            return Err(ServeError::Protocol("not an end frame".to_string()));
        }
        let end_row = r.u64().map_err(ServeError::Protocol)?;
        let payload_crc = r.u64().map_err(ServeError::Protocol)?;
        let flags = r.u8().map_err(ServeError::Protocol)?;
        if !r.is_empty() {
            return Err(ServeError::Protocol(
                "trailing bytes after end frame".to_string(),
            ));
        }
        Ok(EndFrame {
            end_row,
            payload_crc,
            flags,
        })
    }
}

/// One output column as advertised in an accepted response header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnSpec {
    /// A numerical attribute; cells are `f64 LE`.
    Num {
        /// Attribute name.
        name: String,
    },
    /// A categorical attribute; cells are `u32 LE` codes into
    /// `categories`.
    Cat {
        /// Attribute name.
        name: String,
        /// Category display names, in code order.
        categories: Vec<String>,
    },
}

impl ColumnSpec {
    /// The attribute name.
    pub fn name(&self) -> &str {
        match self {
            ColumnSpec::Num { name } | ColumnSpec::Cat { name, .. } => name,
        }
    }

    /// Bytes one cell of this column occupies in a row payload.
    pub fn cell_bytes(&self) -> usize {
        match self {
            ColumnSpec::Num { .. } => 8,
            ColumnSpec::Cat { .. } => 4,
        }
    }

    /// Renders one cell of this column as a CSV field: a numerical cell
    /// as its shortest round-trip form, a categorical cell as its
    /// category name, quoted by [`escape_cell`] as `write_csv` quotes
    /// it. Fails, as `write_csv` does, on a name with a line break.
    pub fn render_cell(&self, value: &Value) -> Result<String, DataError> {
        match (value, self) {
            (Value::Num(x), _) => Ok(format!("{x}")),
            (Value::Cat(code), ColumnSpec::Cat { categories, .. }) => {
                match categories.get(*code as usize) {
                    Some(name) => escape_cell(name),
                    None => Ok(format!("<code {code}>")),
                }
            }
            (Value::Cat(code), ColumnSpec::Num { .. }) => Ok(format!("<code {code}>")),
        }
    }
}

/// A decoded response header: either the accepted echo of the request
/// plus the column contract, or a rejection reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Header {
    /// The request was accepted; data frames follow.
    Accepted {
        /// Echo of the request seed.
        seed: u64,
        /// Echo of the requested row count.
        n_rows: u64,
        /// Echo of the resume offset (0 for a fresh fetch).
        start_row: u64,
        /// Echo of the request condition.
        condition: Option<String>,
        /// The column contract for every row payload.
        columns: Vec<ColumnSpec>,
    },
    /// The request was rejected; the connection stays usable.
    Rejected {
        /// Why the server refused the request.
        reason: String,
    },
}

impl Header {
    /// Encodes the header frame body (`DSRH` layout).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.buf.extend_from_slice(MAGIC_HEADER);
        w.u8(PROTOCOL_VERSION);
        match self {
            Header::Rejected { reason } => {
                w.bool(false);
                w.str(reason);
            }
            Header::Accepted {
                seed,
                n_rows,
                start_row,
                condition,
                columns,
            } => {
                w.bool(true);
                w.u64(*seed);
                w.u64(*n_rows);
                w.u64(*start_row);
                match condition {
                    Some(c) => {
                        w.bool(true);
                        w.str(c);
                    }
                    None => w.bool(false),
                }
                w.u64(columns.len() as u64);
                for col in columns {
                    match col {
                        ColumnSpec::Num { name } => {
                            w.u8(0);
                            w.str(name);
                        }
                        ColumnSpec::Cat { name, categories } => {
                            w.u8(1);
                            w.str(name);
                            w.u64(categories.len() as u64);
                            for c in categories {
                                w.str(c);
                            }
                        }
                    }
                }
            }
        }
        w.buf
    }

    /// Decodes a header frame body.
    pub fn decode(body: &[u8]) -> Result<Header, ServeError> {
        let mut r = Reader::new(body);
        if r.take(4).map_err(ServeError::Protocol)? != MAGIC_HEADER {
            return Err(ServeError::Protocol("not a header frame".to_string()));
        }
        let version = r.u8().map_err(ServeError::Protocol)?;
        if version != PROTOCOL_VERSION {
            return Err(ServeError::Protocol(format!(
                "protocol version {version} unsupported (expected {PROTOCOL_VERSION})"
            )));
        }
        if !r.bool().map_err(ServeError::Protocol)? {
            let reason = r.str().map_err(ServeError::Protocol)?;
            return Ok(Header::Rejected { reason });
        }
        let seed = r.u64().map_err(ServeError::Protocol)?;
        let n_rows = r.u64().map_err(ServeError::Protocol)?;
        let start_row = r.u64().map_err(ServeError::Protocol)?;
        let condition = if r.bool().map_err(ServeError::Protocol)? {
            Some(r.str().map_err(ServeError::Protocol)?)
        } else {
            None
        };
        let n_cols = r.usize().map_err(ServeError::Protocol)?;
        let mut columns = Vec::with_capacity(n_cols.min(4096));
        for _ in 0..n_cols {
            let kind = r.u8().map_err(ServeError::Protocol)?;
            let name = r.str().map_err(ServeError::Protocol)?;
            match kind {
                0 => columns.push(ColumnSpec::Num { name }),
                1 => {
                    let k = r.usize().map_err(ServeError::Protocol)?;
                    let mut categories = Vec::with_capacity(k.min(4096));
                    for _ in 0..k {
                        categories.push(r.str().map_err(ServeError::Protocol)?);
                    }
                    columns.push(ColumnSpec::Cat { name, categories });
                }
                other => {
                    return Err(ServeError::Protocol(format!(
                        "unknown column kind {other}"
                    )))
                }
            }
        }
        if !r.is_empty() {
            return Err(ServeError::Protocol(
                "trailing bytes after header".to_string(),
            ));
        }
        Ok(Header::Accepted {
            seed,
            n_rows,
            start_row,
            condition,
            columns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_cell_quotes_as_write_csv_does_and_refuses_line_breaks() {
        let cat = ColumnSpec::Cat {
            name: "c".into(),
            categories: vec!["x, y".into(), "q\"r".into(), "a\nb".into(), "plain".into()],
        };
        let cell = |code| cat.render_cell(&Value::Cat(code)).ok();
        assert_eq!(cell(0).as_deref(), Some("\"x, y\""));
        assert_eq!(cell(1).as_deref(), Some("\"q\"\"r\""));
        assert_eq!(cell(2), None);
        assert_eq!(cell(3).as_deref(), Some("plain"));
        assert_eq!(cell(9).as_deref(), Some("<code 9>"));
        let num = ColumnSpec::Num { name: "n".into() };
        assert_eq!(num.render_cell(&Value::Num(0.1)).unwrap(), "0.1");
    }

    #[test]
    fn request_roundtrip() {
        for req in [
            Request::new(42, 1000),
            Request::conditioned(7, 3, "yes"),
            Request::new(u64::MAX, 0),
            Request::new(42, 1000).resuming_at(300),
            Request::conditioned(7, 900, "yes").resuming_at(899),
        ] {
            let decoded = Request::decode(&req.encode()).expect("roundtrip");
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn end_frame_roundtrip() {
        for end in [
            EndFrame {
                end_row: 1000,
                payload_crc: 0xdead_beef,
                flags: 0,
            },
            EndFrame {
                end_row: 300,
                payload_crc: 7,
                flags: END_FLAG_DRAINING,
            },
        ] {
            let decoded = EndFrame::decode(&end.encode()).expect("roundtrip");
            assert_eq!(decoded, end);
            assert_eq!(decoded.draining(), end.flags == END_FLAG_DRAINING);
        }
    }

    #[test]
    fn header_roundtrip() {
        let header = Header::Accepted {
            seed: 9,
            n_rows: 512,
            start_row: 256,
            condition: Some("a".to_string()),
            columns: vec![
                ColumnSpec::Num {
                    name: "x".to_string(),
                },
                ColumnSpec::Cat {
                    name: "c".to_string(),
                    categories: vec!["p".to_string(), "q".to_string()],
                },
            ],
        };
        assert_eq!(Header::decode(&header.encode()).expect("roundtrip"), header);
        let rejected = Header::Rejected {
            reason: "row cap".to_string(),
        };
        assert_eq!(
            Header::decode(&rejected.encode()).expect("roundtrip"),
            rejected
        );
    }

    #[test]
    fn frames_detect_corruption_and_truncation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello frame").expect("write");
        let body = read_frame(&mut buf.as_slice(), 1 << 10)
            .expect("read")
            .expect("one frame");
        assert_eq!(body, b"hello frame");

        // Clean EOF between frames is None, not an error.
        assert!(read_frame(&mut [].as_slice(), 1 << 10)
            .expect("clean eof")
            .is_none());

        // A flipped body byte is a checksum mismatch.
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        let err = read_frame(&mut bad.as_slice(), 1 << 10).expect_err("corrupt");
        assert!(matches!(err, ServeError::Protocol(m) if m.contains("checksum")));

        // A torn tail is a truncation error.
        let torn = &buf[..buf.len() - 3];
        let err = read_frame(&mut &torn[..], 1 << 10).expect_err("torn");
        assert!(matches!(err, ServeError::Protocol(m) if m.contains("truncated")));

        // An oversized declaration is rejected before allocation.
        let err = read_frame(&mut buf.as_slice(), 4).expect_err("cap");
        assert!(matches!(err, ServeError::Protocol(m) if m.contains("cap")));
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let err = Request::decode(b"XXXX rest").expect_err("magic");
        assert!(matches!(err, ServeError::Protocol(_)));
        let mut body = Request::new(1, 2).encode();
        body[4] = PROTOCOL_VERSION + 1;
        let err = Request::decode(&body).expect_err("version");
        assert!(matches!(err, ServeError::Protocol(m) if m.contains("version")));
    }
}
