//! The out-of-core chunked columnar table store.
//!
//! A store is a directory:
//!
//! ```text
//! store/
//!   manifest.dmf      # DAISYMF1: schema, dictionaries, per-chunk rows + CRC
//!   chunk-000000.dch  # DAISYCH1: sealed columnar chunks
//!   chunk-000001.dch
//!   journal.dij       # DAISYIJ1: append-only ingest journal (see crate::ingest)
//!   rejected.txt      # quarantined input rows with line numbers
//! ```
//!
//! Reads are hardened end to end: the manifest and every chunk carry
//! CRC-64 section frames plus a manifest-recorded whole-file CRC, so
//! any single-byte flip surfaces as a typed [`DataError`] — never a
//! panic, never silently wrong data. A chunk that fails validation is
//! renamed to `chunk-NNNNNN.dch.corrupt-K` (bytes preserved for
//! post-mortem) before the error returns, so a rebuilt chunk can take
//! its place. The manifest's row counts are checked before any chunk
//! is read: the chunks must partition the rows, full chunks first.
//!
//! Every store file is read and quarantined through one
//! [`daisy_wire::ArmedIo`] handle per store, which tests arm with
//! storage faults via [`ChunkStore::open_with_faults`].
//!
//! Resident memory is bounded by the `DAISY_MEM_BUDGET` environment
//! variable (bytes; default 256 MiB): decoded chunks live in a
//! least-recently-used cache sized to the budget, degrading gracefully
//! to a single resident chunk when the budget is smaller than one
//! chunk. Cache behavior depends only on the access sequence, keeping
//! chunk-backed runs bit-deterministic at any thread count.

pub mod chunk;

use crate::error::DataError;
use crate::schema::Schema;
use crate::table::{Column, Table};
use crate::value::AttrType;
use chunk::{chunk_file_name, decode_chunk};
use daisy_telemetry::{emit, field, schema as tschema};
use daisy_wire::{crc64, ArmedIo, IoFault, IoFaultPlan, Reader, Writer};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Manifest file magic, version 1 (defined once in [`daisy_wire::magic`]).
pub use daisy_wire::magic::MANIFEST as MANIFEST_MAGIC;

/// Manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.dmf";

/// Default resident-chunk memory budget when `DAISY_MEM_BUDGET` is
/// unset: 256 MiB.
pub const DEFAULT_MEM_BUDGET: usize = 256 * 1024 * 1024;

/// Resident-chunk memory budget in bytes: `DAISY_MEM_BUDGET` when set
/// to a positive integer, [`DEFAULT_MEM_BUDGET`] otherwise.
pub fn mem_budget() -> usize {
    match daisy_telemetry::knobs::raw("DAISY_MEM_BUDGET") {
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => DEFAULT_MEM_BUDGET,
        },
        None => DEFAULT_MEM_BUDGET,
    }
}

/// Manifest record of one sealed chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Rows in the chunk.
    pub rows: usize,
    /// CRC-64 of the complete chunk file bytes.
    pub crc: u64,
}

/// Encodes a store manifest.
pub(crate) fn encode_manifest(
    schema: &Schema,
    dicts: &[Vec<String>],
    chunk_rows: usize,
    chunks: &[ChunkMeta],
) -> Vec<u8> {
    let mut body = Writer::default();
    chunk::encode_schema(&mut body, schema, dicts);
    body.usize(chunk_rows);
    body.usize(chunks.len());
    for m in chunks {
        body.usize(m.rows);
        body.u64(m.crc);
    }
    let mut out = Writer::default();
    out.buf.extend_from_slice(MANIFEST_MAGIC);
    out.section(&body);
    out.buf
}

/// The decoded manifest fields: schema, category dictionaries,
/// `chunk_rows`, per-chunk metadata, and the total row count.
pub(crate) type DecodedManifest = (Schema, Vec<Vec<String>>, usize, Vec<ChunkMeta>, usize);

/// Emits the one `fault_fired` event of a storage fault a store or
/// ingest handle fired.
pub(crate) fn report_fault(fault: &IoFault) {
    let (op, index) = fault.index();
    emit(
        tschema::FAULT_FIRED,
        vec![field("kind", fault.kind()), field(op, index)],
    );
}

/// Decodes a store manifest, checking that its chunks partition the
/// rows the way [`crate::ChunkSource`] promises: every chunk but the
/// last holds exactly `chunk_rows` rows, the last `1..=chunk_rows`.
pub(crate) fn decode_manifest(bytes: &[u8]) -> Result<DecodedManifest, String> {
    if bytes.len() < MANIFEST_MAGIC.len() || &bytes[..MANIFEST_MAGIC.len()] != MANIFEST_MAGIC {
        return Err("bad manifest magic".to_string());
    }
    let mut r = Reader::new(&bytes[MANIFEST_MAGIC.len()..]);
    let mut body = r.section()?;
    let (schema, dicts) = chunk::decode_schema(&mut body)?;
    let chunk_rows = body.usize()?;
    if chunk_rows == 0 {
        return Err("manifest chunk_rows is zero".to_string());
    }
    let n = body.len()?;
    let mut chunks = Vec::with_capacity(n);
    for _ in 0..n {
        let rows = body.usize()?;
        let crc = body.u64()?;
        chunks.push(ChunkMeta { rows, crc });
    }
    if !body.is_empty() {
        return Err("manifest has trailing bytes".to_string());
    }
    if !r.is_empty() {
        return Err("manifest file has trailing bytes".to_string());
    }
    let n_rows = match chunks.split_last() {
        None => 0,
        Some((last, full)) => {
            if let Some(k) = full.iter().position(|m| m.rows != chunk_rows) {
                return Err(format!(
                    "chunk {k} records {} rows, chunk_rows is {chunk_rows}",
                    full[k].rows
                ));
            }
            if !(1..=chunk_rows).contains(&last.rows) {
                return Err(format!(
                    "last chunk records {} rows, outside 1..={chunk_rows}",
                    last.rows
                ));
            }
            full.len()
                .checked_mul(chunk_rows)
                .and_then(|rows| rows.checked_add(last.rows))
                .ok_or_else(|| "manifest row total overflows".to_string())?
        }
    };
    Ok((schema, dicts, chunk_rows, chunks, n_rows))
}

/// Decoded-chunk cache: least-recently-used, bounded by a byte budget,
/// never below one resident chunk.
struct Cache {
    budget: usize,
    bytes_per_row: usize,
    /// `(chunk index, decoded table)`, oldest first.
    entries: Vec<(usize, Arc<Table>)>,
}

impl Cache {
    fn get(&mut self, k: usize) -> Option<Arc<Table>> {
        let pos = self.entries.iter().position(|(i, _)| *i == k)?;
        let entry = self.entries.remove(pos);
        let t = entry.1.clone();
        self.entries.push(entry);
        Some(t)
    }

    fn put(&mut self, k: usize, t: Arc<Table>) {
        self.entries.push((k, t));
        while self.entries.len() > 1 && self.resident_bytes() > self.budget {
            self.entries.remove(0);
        }
    }

    fn resident_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|(_, t)| t.n_rows() * self.bytes_per_row)
            .sum()
    }
}

/// A read handle over a sealed chunk store directory.
pub struct ChunkStore {
    dir: PathBuf,
    schema: Schema,
    dicts: Vec<Vec<String>>,
    chunk_rows: usize,
    chunks: Vec<ChunkMeta>,
    n_rows: usize,
    cache: RefCell<Cache>,
    io: ArmedIo,
}

impl ChunkStore {
    /// Opens the store at `dir`, validating the manifest. A corrupt
    /// manifest is quarantined (renamed `manifest.dmf.corrupt-N`) and
    /// reported as [`DataError::CorruptManifest`]; rerunning the ingest
    /// rebuilds it from the journal.
    pub fn open(dir: &Path) -> Result<ChunkStore, DataError> {
        Self::open_with_faults(dir, &IoFaultPlan::none())
    }

    /// [`ChunkStore::open`] with storage faults armed against the
    /// store's reads and quarantines: the manifest read is read 0, and
    /// each chunk read that misses the cache takes the next index (test
    /// harness for the corruption-quarantine paths).
    pub fn open_with_faults(dir: &Path, plan: &IoFaultPlan) -> Result<ChunkStore, DataError> {
        let io = ArmedIo::new(plan).on_fire(report_fault);
        let manifest_path = dir.join(MANIFEST_FILE);
        let bytes = io.read(&manifest_path)?;
        let (schema, dicts, chunk_rows, chunks, n_rows) = match decode_manifest(&bytes) {
            Ok(parts) => parts,
            Err(detail) => {
                io.quarantine(&manifest_path);
                return Err(DataError::CorruptManifest {
                    path: manifest_path,
                    detail,
                });
            }
        };
        let bytes_per_row = schema
            .attrs()
            .iter()
            .map(|a| match a.ty {
                AttrType::Numerical => 8,
                AttrType::Categorical => 4,
            })
            .sum::<usize>()
            .max(1);
        Ok(ChunkStore {
            dir: dir.to_path_buf(),
            schema,
            dicts,
            chunk_rows,
            chunks,
            n_rows,
            cache: RefCell::new(Cache {
                budget: mem_budget(),
                bytes_per_row,
                entries: Vec::new(),
            }),
            io,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Category dictionaries per column (empty for numerical columns).
    pub fn dicts(&self) -> &[Vec<String>] {
        &self.dicts
    }

    /// Total rows across all chunks.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of sealed chunks.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Target rows per chunk (the final chunk may hold fewer).
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Manifest record of chunk `k`.
    pub fn chunk_meta(&self, k: usize) -> ChunkMeta {
        self.chunks[k]
    }

    /// Reads, validates, and decodes chunk `k`, serving repeats from
    /// the budget-bounded cache. Corruption anywhere — manifest CRC
    /// mismatch, bad magic, torn section, out-of-domain code — moves
    /// the file to `chunk-NNNNNN.dch.corrupt-K` and returns
    /// [`DataError::CorruptChunk`].
    pub fn chunk(&self, k: usize) -> Result<Arc<Table>, DataError> {
        assert!(k < self.chunks.len(), "chunk index out of bounds");
        if let Some(t) = self.cache.borrow_mut().get(k) {
            return Ok(t);
        }
        let path = self.dir.join(chunk_file_name(k));
        let bytes = self.io.read(&path)?;
        let detail = if crc64(&bytes) != self.chunks[k].crc {
            "file checksum disagrees with manifest".to_string()
        } else {
            match decode_chunk(&bytes, k, &self.schema, &self.dicts) {
                Ok(columns) => {
                    let rows = columns.first().map_or(0, Column::len);
                    if rows != self.chunks[k].rows {
                        format!(
                            "chunk has {rows} rows, manifest records {}",
                            self.chunks[k].rows
                        )
                    } else {
                        let t = Arc::new(Table::new(self.schema.clone(), columns));
                        self.cache.borrow_mut().put(k, t.clone());
                        return Ok(t);
                    }
                }
                Err(e) => e,
            }
        };
        self.io.quarantine(&path);
        emit(
            tschema::CHUNK_QUARANTINED,
            vec![field("chunk", k), field("error", detail.as_str())],
        );
        Err(DataError::CorruptChunk { path, detail })
    }

    /// Materializes the full table in memory (all chunks concatenated
    /// in order). Intended for small stores and tests; training reads
    /// chunk-at-a-time instead. Columns grow from validated chunks only,
    /// never from the manifest's row count.
    pub fn to_table(&self) -> Result<Table, DataError> {
        let mut columns: Vec<Column> = self
            .schema
            .attrs()
            .iter()
            .zip(&self.dicts)
            .map(|(a, dict)| match a.ty {
                AttrType::Numerical => Column::Num(Vec::new()),
                AttrType::Categorical => Column::Cat {
                    codes: Vec::new(),
                    categories: dict.clone(),
                },
            })
            .collect();
        for k in 0..self.n_chunks() {
            let t = self.chunk(k)?;
            for (dst, src) in columns.iter_mut().zip(t.columns()) {
                match (dst, src) {
                    (Column::Num(d), Column::Num(s)) => d.extend_from_slice(s),
                    (Column::Cat { codes: d, .. }, Column::Cat { codes: s, .. }) => {
                        d.extend_from_slice(s)
                    }
                    _ => unreachable!("chunk validated against schema"),
                }
            }
        }
        Ok(Table::new(self.schema.clone(), columns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Attribute;
    use daisy_wire::atomic_write;

    fn scratch_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("daisy-store-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes a two-chunk store by hand (the ingest pipeline has its
    /// own tests; these exercise the read path in isolation).
    fn write_demo_store(dir: &Path) -> (Schema, Vec<Vec<String>>) {
        let schema = Schema::with_label(
            vec![
                Attribute::numerical("age"),
                Attribute::categorical("income"),
            ],
            1,
        );
        let dicts = vec![vec![], vec!["<=50K".to_string(), ">50K".to_string()]];
        let chunks = [
            vec![
                Column::Num(vec![38.0, 51.5]),
                Column::Cat {
                    codes: vec![0, 1],
                    categories: dicts[1].clone(),
                },
            ],
            vec![
                Column::Num(vec![27.0]),
                Column::Cat {
                    codes: vec![0],
                    categories: dicts[1].clone(),
                },
            ],
        ];
        let mut metas = Vec::new();
        for (k, cols) in chunks.iter().enumerate() {
            let bytes = chunk::encode_chunk(k, cols);
            metas.push(ChunkMeta {
                rows: cols[0].len(),
                crc: crc64(&bytes),
            });
            atomic_write(&dir.join(chunk_file_name(k)), &bytes).unwrap();
        }
        let manifest = encode_manifest(&schema, &dicts, 2, &metas);
        atomic_write(&dir.join(MANIFEST_FILE), &manifest).unwrap();
        (schema, dicts)
    }

    #[test]
    fn open_and_read_chunks() {
        let dir = scratch_dir("read");
        let (schema, _) = write_demo_store(&dir);
        let store = ChunkStore::open(&dir).unwrap();
        assert_eq!(store.schema(), &schema);
        assert_eq!(store.n_rows(), 3);
        assert_eq!(store.n_chunks(), 2);
        assert_eq!(store.chunk_rows(), 2);
        let c0 = store.chunk(0).unwrap();
        assert_eq!(c0.n_rows(), 2);
        assert_eq!(c0.column(0).as_num(), &[38.0, 51.5]);
        // Cached read returns the same allocation.
        let again = store.chunk(0).unwrap();
        assert!(Arc::ptr_eq(&c0, &again));
        let full = store.to_table().unwrap();
        assert_eq!(full.n_rows(), 3);
        assert_eq!(full.column(0).as_num(), &[38.0, 51.5, 27.0]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_chunk_quarantined_with_typed_error() {
        let dir = scratch_dir("corrupt");
        write_demo_store(&dir);
        let path = dir.join(chunk_file_name(1));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let store = ChunkStore::open(&dir).unwrap();
        let Err(e) = store.chunk(1) else {
            panic!("corrupt chunk must be rejected");
        };
        assert!(matches!(e, DataError::CorruptChunk { .. }), "{e}");
        assert!(!path.exists(), "corrupt chunk must be moved aside");
        let q = daisy_wire::sibling(&path, "corrupt-0");
        assert_eq!(std::fs::read(&q).unwrap(), bytes, "bytes preserved");
        // The intact chunk still reads.
        assert!(store.chunk(0).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_on_read_fault_trips_quarantine() {
        let dir = scratch_dir("flip");
        write_demo_store(&dir);
        // Read 0 is the manifest; read 1 is the first chunk read.
        let plan = IoFaultPlan::new(vec![IoFault::FlipOnRead { read: 1, offset: 13 }]);
        let store = ChunkStore::open_with_faults(&dir, &plan).unwrap();
        let Err(e) = store.chunk(0) else {
            panic!("flipped read must fail");
        };
        assert!(matches!(e, DataError::CorruptChunk { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_quarantined() {
        let dir = scratch_dir("manifest");
        write_demo_store(&dir);
        let path = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();
        let Err(e) = ChunkStore::open(&dir) else {
            panic!("corrupt manifest must be rejected");
        };
        assert!(matches!(e, DataError::CorruptManifest { .. }), "{e}");
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_mem_budget_keeps_one_chunk_resident() {
        let dir = scratch_dir("budget");
        write_demo_store(&dir);
        let store = ChunkStore::open(&dir).unwrap();
        // Force a 1-byte budget: every insert evicts down to one entry.
        store.cache.borrow_mut().budget = 1;
        let c0 = store.chunk(0).unwrap();
        let _c1 = store.chunk(1).unwrap();
        assert_eq!(store.cache.borrow().entries.len(), 1);
        // Chunk 0 was evicted; a re-read decodes a fresh allocation
        // with identical content.
        let c0b = store.chunk(0).unwrap();
        assert!(!Arc::ptr_eq(&c0, &c0b));
        assert_eq!(*c0, *c0b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mem_budget_parses_env_shape() {
        // Not set in the test environment: default applies.
        assert!(mem_budget() >= 1);
    }
}
