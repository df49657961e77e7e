//! # daisy-wire
//!
//! The shared binary wire format of the workspace: a little-endian
//! primitive writer/reader, CRC-64 section framing for corruption
//! detection, and crash-safe file replacement (write-to-temp → fsync →
//! atomic rename).
//!
//! Extracted from `daisy-core`'s private `wire` module so the data
//! plane (`daisy-data`'s chunked column store and ingest journal) and
//! the model plane (`daisy-core`'s persisted synthesizers and training
//! checkpoints) share one encoding discipline: integers, tensors, and
//! torn/corrupted-file detection cannot drift apart between formats.
//!
//! Every on-disk format built on this crate follows the same contract:
//!
//! * sections are `[len][crc64][bytes]` frames — any single-byte flip
//!   (indeed any ≤ 64-bit burst) inside a section is detected at read
//!   time and surfaces as a typed error, never as silently wrong data;
//! * files are replaced atomically — a crash mid-write leaves either
//!   the old file or the new file on disk, never a torn mix.
//!
//! The [`fault`] module is the one storage-fault seam for those
//! formats: an [`ArmedIo`] handle replaces files, reads them and
//! quarantines them, and fails each operation on a deterministic
//! [`IoFaultPlan`], so every format meets every storage fault in tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod magic;

pub use fault::{ArmedIo, IoFault, IoFaultPlan};

use daisy_tensor::Tensor;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Decoding errors are plain messages; callers wrap them in their own
/// typed errors (`PersistError`, `CheckpointError`, `DataError`).
pub type WireError = String;

// ---------------------------------------------------------------------
// CRC-64 (ECMA-182, reflected) with a compile-time table
// ---------------------------------------------------------------------

const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

const CRC64_TABLE: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ CRC64_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Incremental CRC-64 over a byte stream: feed chunks with
/// [`Crc64::update`] and read the checksum with [`Crc64::finish`].
/// `Crc64` over concatenated chunks equals [`crc64`] over the
/// concatenation, so a producer that never materializes its full
/// payload (the serving plane's row stream) can still seal it with the
/// same whole-payload checksum a buffering producer would write.
#[derive(Debug, Clone)]
pub struct Crc64 {
    state: u64,
}

impl Default for Crc64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc64 {
    /// A fresh checksum accumulator.
    pub fn new() -> Self {
        Crc64 { state: !0u64 }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = CRC64_TABLE[((self.state ^ b as u64) & 0xff) as usize] ^ (self.state >> 8);
        }
    }

    /// The checksum of every byte fed so far. Does not consume the
    /// accumulator; further updates continue from the same state.
    pub fn finish(&self) -> u64 {
        !self.state
    }
}

/// CRC-64 checksum of `bytes`. Any single-byte (indeed any ≤ 64-bit
/// burst) corruption changes the checksum, which is what the persist,
/// checkpoint, and chunk-store formats rely on to turn silent bit rot
/// into a typed error.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = Crc64::new();
    crc.update(bytes);
    crc.finish()
}

// ---------------------------------------------------------------------
// primitive writer / reader
// ---------------------------------------------------------------------

/// Append-only little-endian encoder.
#[derive(Default)]
pub struct Writer {
    /// The encoded bytes so far.
    pub buf: Vec<u8>,
}

impl Writer {
    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// Appends a little-endian `f32`.
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `f64`.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// Appends a length-prefixed `f64` slice.
    pub fn f64s(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }
    /// Appends a length-prefixed `u32` slice (category codes).
    pub fn u32s(&mut self, v: &[u32]) {
        self.usize(v.len());
        for &x in v {
            self.u32(x);
        }
    }
    /// Appends a length-prefixed `usize` slice.
    pub fn usizes(&mut self, v: &[usize]) {
        self.usize(v.len());
        for &x in v {
            self.usize(x);
        }
    }
    /// Appends a tensor: shape then row-major `f32` payload.
    pub fn tensor(&mut self, t: &Tensor) {
        self.usizes(t.shape());
        for &x in t.data() {
            self.f32(x);
        }
    }
    /// Appends a length-prefixed tensor list.
    pub fn tensors(&mut self, ts: &[Tensor]) {
        self.usize(ts.len());
        for t in ts {
            self.tensor(t);
        }
    }

    /// Appends `body` as a checksummed section: `[len][crc64][bytes]`.
    /// A reader verifies the checksum before decoding the section, so
    /// corruption is localized and reported per section.
    pub fn section(&mut self, body: &Writer) {
        self.usize(body.buf.len());
        self.u64(crc64(&body.buf));
        self.buf.extend_from_slice(&body.buf);
    }
}

/// Bounds-checked little-endian decoder over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    /// Takes the next `n` bytes, or a truncation error.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| format!("truncated file: needed {n} bytes at offset {}", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }
    /// Bytes consumed so far: the offset of the next read.
    pub fn position(&self) -> usize {
        self.pos
    }
    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Reads a `u64` and converts it to `usize`.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| "length overflows usize".to_string())
    }
    /// A `usize` validated against the buffer length, so a corrupted
    /// length cannot trigger a huge allocation.
    pub fn len(&mut self) -> Result<usize, WireError> {
        let v = self.usize()?;
        if v > self.buf.len() {
            return Err(format!("implausible length {v} at offset {}", self.pos));
        }
        Ok(v)
    }
    /// Reads a little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    /// Reads a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Reads a one-byte bool.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        Ok(self.u8()? != 0)
    }
    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.len()?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|e| format!("bad utf8: {e}"))
    }
    /// Reads a length-prefixed `f64` slice.
    pub fn f64s(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.len()?;
        (0..n).map(|_| self.f64()).collect()
    }
    /// Reads a length-prefixed `u32` slice.
    pub fn u32s(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.len()?;
        if n * 4 > self.buf.len() {
            return Err("implausible u32 list length".to_string());
        }
        (0..n).map(|_| self.u32()).collect()
    }
    /// Reads a length-prefixed `usize` slice.
    pub fn usizes(&mut self) -> Result<Vec<usize>, WireError> {
        let n = self.len()?;
        (0..n).map(|_| self.usize()).collect()
    }
    /// Reads a tensor written by [`Writer::tensor`]. The element count
    /// is computed with overflow checks, so a shape whose product wraps
    /// `usize` is an error rather than a tensor over too few values.
    pub fn tensor(&mut self) -> Result<Tensor, WireError> {
        let shape = self.usizes()?;
        let numel = shape
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
            .filter(|&n| n <= self.buf.len() / 4)
            .ok_or_else(|| format!("implausible tensor shape {shape:?}"))?;
        let data: Result<Vec<f32>, _> = (0..numel).map(|_| self.f32()).collect();
        Ok(Tensor::from_vec(data?, &shape))
    }
    /// Reads a length-prefixed tensor list.
    pub fn tensors(&mut self) -> Result<Vec<Tensor>, WireError> {
        let n = self.len()?;
        (0..n).map(|_| self.tensor()).collect()
    }

    /// Reads a section written by [`Writer::section`], verifying its
    /// checksum, and returns a reader over the section body.
    pub fn section(&mut self) -> Result<Reader<'a>, WireError> {
        let n = self.len()?;
        let stored = self.u64()?;
        let body = self.take(n)?;
        let actual = crc64(body);
        if actual != stored {
            return Err(format!(
                "section checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
            ));
        }
        Ok(Reader::new(body))
    }
}

// ---------------------------------------------------------------------
// crash-safe file replacement
// ---------------------------------------------------------------------

/// Writes `bytes` to `path` crash-safely: the content goes to a sibling
/// temp file, is fsynced, and then atomically renamed over `path`. A
/// crash at any point leaves either the old file or the new file, never
/// a torn mix.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = sibling(path, "tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// `path` with `.{ext}` appended (keeps the original extension, so
/// `model.bin` → `model.bin.tmp`).
pub fn sibling(path: &Path, ext: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(format!(".{ext}"));
    PathBuf::from(name)
}

/// Best-effort fsync of the containing directory, making the rename
/// itself durable on platforms that support directory fsync.
pub fn sync_parent_dir(path: &Path) {
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// Moves a corrupt file out of the way as `<path>.corrupt-N`, choosing
/// the first free `N`, and returns the quarantine path. The corrupt
/// bytes are preserved for post-mortem inspection rather than deleted;
/// the original path is freed so a rebuild can take its place. Returns
/// `None` when the file vanished or every rename failed.
pub fn quarantine(path: &Path) -> Option<PathBuf> {
    for n in 0..1000 {
        let dst = sibling(path, &format!("corrupt-{n}"));
        if dst.exists() {
            continue;
        }
        if std::fs::rename(path, &dst).is_ok() {
            sync_parent_dir(path);
            return Some(dst);
        }
        if !path.exists() {
            return None;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique scratch path in the system temp directory (per-process,
    /// per-call) so parallel test binaries never race on a filename.
    fn scratch(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("daisy-wire-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn crc64_known_properties() {
        assert_eq!(crc64(b""), 0);
        // Any single-byte change must move the checksum.
        let base = crc64(b"daisy checkpoint payload");
        let mut corrupted = b"daisy checkpoint payload".to_vec();
        for i in 0..corrupted.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                corrupted[i] ^= flip;
                assert_ne!(crc64(&corrupted), base, "byte {i} flip {flip:#x}");
                corrupted[i] ^= flip;
            }
        }
        assert_eq!(crc64(&corrupted), base);
    }

    #[test]
    fn roundtrip_primitives() {
        let mut w = Writer::default();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.usize(42);
        w.f32(-1.5);
        w.f64(std::f64::consts::PI);
        w.bool(true);
        w.str("héllo");
        w.f64s(&[1.0, 2.0]);
        w.u32s(&[9, 8, 7]);
        w.usizes(&[3, 4, 5]);
        w.tensor(&Tensor::from_slice(&[1.0, 2.0, 3.0]));
        let mut r = Reader::new(&w.buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f32().unwrap(), -1.5);
        assert_eq!(r.f64().unwrap(), std::f64::consts::PI);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.f64s().unwrap(), vec![1.0, 2.0]);
        assert_eq!(r.u32s().unwrap(), vec![9, 8, 7]);
        assert_eq!(r.usizes().unwrap(), vec![3, 4, 5]);
        assert_eq!(r.tensor().unwrap().data(), &[1.0, 2.0, 3.0]);
        assert!(r.is_empty());
    }

    #[test]
    fn sections_detect_corruption() {
        let mut body = Writer::default();
        body.str("payload");
        body.u64(99);
        let mut w = Writer::default();
        w.section(&body);
        // Clean read.
        let mut r = Reader::new(&w.buf);
        let mut s = r.section().unwrap();
        assert_eq!(s.str().unwrap(), "payload");
        assert_eq!(s.u64().unwrap(), 99);
        // Flip each body byte in turn: the section read must fail.
        for i in 16..w.buf.len() {
            let mut bad = w.buf.clone();
            bad[i] ^= 0x10;
            let mut r = Reader::new(&bad);
            assert!(r.section().is_err(), "corruption at byte {i} undetected");
        }
    }

    #[test]
    fn atomic_write_replaces_and_survives() {
        let path = scratch("atomic");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // The temp file does not linger.
        assert!(!sibling(&path, "tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tensor_shape_overflow_is_a_typed_error() {
        // 2^33 × 2^31 = 2^64 elements: the product wraps `usize` to 0.
        let mut w = Writer::default();
        w.usizes(&[1 << 33, 1 << 31]);
        let err = Reader::new(&w.buf).tensor().expect_err("overflowing shape");
        assert!(err.contains("implausible tensor shape"), "{err}");
        // A shape that does not overflow but outruns the buffer, too.
        let mut w = Writer::default();
        w.usizes(&[4, 4]);
        w.f32(1.0);
        assert!(Reader::new(&w.buf).tensor().is_err());
    }

    #[test]
    fn take_near_usize_max_is_a_truncation_error() {
        let mut r = Reader::new(b"abcd");
        r.take(1).expect("one byte");
        // pos + n overflows usize: a typed error, not a panic or a wrap.
        let err = r.take(usize::MAX).expect_err("overflowing take");
        assert!(err.contains("truncated"), "{err}");
        assert_eq!(r.take(3).expect("the reader is unmoved"), b"bcd");
    }

    #[test]
    fn quarantine_moves_and_numbers() {
        let path = scratch("quarantine");
        std::fs::write(&path, b"bad bytes").unwrap();
        let q0 = quarantine(&path).unwrap();
        assert!(q0.to_string_lossy().ends_with(".corrupt-0"));
        assert!(!path.exists());
        assert_eq!(std::fs::read(&q0).unwrap(), b"bad bytes");
        // A second corruption of the same path gets the next slot.
        std::fs::write(&path, b"worse bytes").unwrap();
        let q1 = quarantine(&path).unwrap();
        assert!(q1.to_string_lossy().ends_with(".corrupt-1"));
        // A vanished file quarantines to nothing.
        assert!(quarantine(&path).is_none());
        std::fs::remove_file(&q0).ok();
        std::fs::remove_file(&q1).ok();
    }
}
