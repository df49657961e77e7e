//! The single registry of on-disk and on-wire magic numbers.
//!
//! Every daisy file format and network frame opens with a fixed 4- or
//! 8-byte magic so readers can reject foreign bytes before decoding a
//! single field. Each magic is defined exactly once, here; the crates
//! that own a format re-export the constant they use (`CHUNK_MAGIC`,
//! `MANIFEST_MAGIC`, …) so their public APIs are unchanged. The
//! workspace lint (rule W001) enforces the "exactly once, in
//! `daisy-wire`" invariant: a byte-string magic constant declared in
//! any other crate, or two constants sharing one value, is a finding.
//!
//! The trailing digit is a format version: bumping an encoding means a
//! new magic, so an old reader fails loudly on a new file instead of
//! misdecoding it.

/// Sealed column-chunk files in the chunked store (`chunk-NNNNNN.dch`).
pub const CHUNK: &[u8; 8] = b"DAISYCH1";

/// The chunked store's manifest (`manifest.dm`): schema + chunk index.
pub const MANIFEST: &[u8; 8] = b"DAISYMF1";

/// The ingest journal (`journal.dij`): crash-safe resumable ingestion.
pub const INGEST_JOURNAL: &[u8; 8] = b"DAISYIJ1";

/// Persisted synthesizer models (`*.daisy`).
pub const SYNTH: &[u8; 8] = b"DAISYSY1";

/// Footer sentinel sealing a persisted synthesizer: the whole-file CRC
/// trailer that distinguishes a complete model from a torn one.
pub const SYNTH_FOOTER: &[u8; 8] = b"DAISYCRC";

/// Training checkpoints written by the crash-safe checkpoint plane.
/// Version 2: every epoch snapshot carries its BatchNorm statistics.
pub const CHECKPOINT: &[u8; 8] = b"DAISYCK2";

/// Serving protocol: client request frame.
pub const SERVE_REQUEST: &[u8; 4] = b"DSRQ";

/// Serving protocol: stream header frame (schema + generation).
pub const SERVE_HEADER: &[u8; 4] = b"DSRH";

/// Serving protocol: row-batch data frame.
pub const SERVE_DATA: &[u8; 4] = b"DSRD";

/// Serving protocol: end-of-stream frame (carries drain/resume flags).
pub const SERVE_END: &[u8; 4] = b"DSRE";
