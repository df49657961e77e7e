//! Resumable streaming CSV ingestion into a chunk store.
//!
//! The pipeline never holds more than one chunk of rows in memory:
//!
//! 1. **Schema inference** streams the input once to type each column
//!    (numerical iff every structurally-valid cell parses as `f64`)
//!    and, when categorical columns exist, a second time to build their
//!    category dictionaries in first-appearance order.
//! 2. **Chunk writing** streams the input again, validating each row
//!    under the configured [`RowErrorPolicy`] and sealing every
//!    `chunk_rows` accepted rows as a `DAISYCH1` chunk file
//!    (write-tmp → fsync → atomic rename).
//!
//! Durability is anchored in an **append-only journal**
//! (`journal.dij`): after the schema is inferred a header record is
//! written, and after each chunk seals a record binds the chunk's
//! content CRC to the input line range it consumed and to the byte
//! length of the quarantine file. A process killed at *any* point
//! leaves either a journaled prefix of sealed chunks or a torn tail
//! the next run detects by checksum and discards — rerunning the same
//! ingest resumes after the last sealed chunk and produces a store
//! byte-identical to an uninterrupted run. Rejected rows land in
//! `rejected.txt` with their input line numbers; the journal's
//! recorded byte offsets let a resume truncate both the journal and
//! the quarantine file back to the sealed prefix, so their final
//! content is deterministic too. Rerunning a *completed* ingest
//! re-checks the sealed chunks and the manifest and repairs whatever
//! rotted, so a rerun also heals a finished store.
//!
//! Every journal, chunk and manifest replacement and every resume read
//! goes through one [`daisy_wire::ArmedIo`] handle per run, armed from
//! [`IngestConfig::io_faults`]. The append-only journal records and the
//! rejected-row ledger are appended in place and stay outside it.

use crate::csv::{parse_record, read_header, Dict};
use crate::error::DataError;
use crate::schema::Schema;
use crate::store::chunk::{self, chunk_file_name};
use crate::store::{encode_manifest, report_fault, ChunkMeta, MANIFEST_FILE};
use crate::table::Column;
use crate::value::{AttrType, Attribute};
use daisy_telemetry::{emit, field, schema as tschema};
use daisy_wire::{crc64, sync_parent_dir, ArmedIo, IoFaultPlan, Reader, Writer};
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};

/// Journal file magic, version 1 (defined once in [`daisy_wire::magic`]).
pub use daisy_wire::magic::INGEST_JOURNAL as JOURNAL_MAGIC;

/// Journal file name inside a store directory.
pub const JOURNAL_FILE: &str = "journal.dij";

/// Quarantine file of rejected input rows inside a store directory.
pub const REJECTED_FILE: &str = "rejected.txt";

/// What to do with a malformed input row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowErrorPolicy {
    /// The first malformed row aborts ingestion with a typed error.
    Strict,
    /// Malformed rows are skipped and appended to `rejected.txt` with
    /// their line number and reason, up to `budget` rows; one more is
    /// [`DataError::RowBudgetExhausted`].
    SkipWithBudget {
        /// Maximum rows that may be rejected.
        budget: usize,
    },
}

impl RowErrorPolicy {
    fn tag(&self) -> (u8, usize) {
        match *self {
            RowErrorPolicy::Strict => (0, 0),
            RowErrorPolicy::SkipWithBudget { budget } => (1, budget),
        }
    }

    fn from_tag(tag: u8, budget: usize) -> Option<RowErrorPolicy> {
        match tag {
            0 => Some(RowErrorPolicy::Strict),
            1 => Some(RowErrorPolicy::SkipWithBudget { budget }),
            _ => None,
        }
    }
}

/// Streaming-ingestion configuration.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Accepted rows per sealed chunk.
    pub chunk_rows: usize,
    /// Optional label column name (forced categorical, like
    /// [`crate::csv::read_csv`]).
    pub label: Option<String>,
    /// Row-level error policy.
    pub policy: RowErrorPolicy,
    /// Injected storage faults for the run's journal, chunk and
    /// manifest writes and its resume reads (tests only; empty in
    /// production).
    pub io_faults: IoFaultPlan,
    /// Stop ingestion with [`DataError::Interrupted`] right after
    /// accepting this row (0-based over accepted rows), losing any
    /// unsealed chunk — a deterministic stand-in for SIGKILL used by
    /// the resume tests. `None` in production.
    pub kill_at_row: Option<usize>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            chunk_rows: 4096,
            label: None,
            policy: RowErrorPolicy::Strict,
            io_faults: IoFaultPlan::none(),
            kill_at_row: None,
        }
    }
}

/// What an ingest run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Rows accepted into the store.
    pub rows: usize,
    /// Rows rejected into `rejected.txt`.
    pub rejected: usize,
    /// Sealed chunks.
    pub chunks: usize,
    /// First chunk this run ingested when it resumed from a journal
    /// (`None` for a fresh run).
    pub resumed_from_chunk: Option<usize>,
    /// True when the journal showed a completed ingest and nothing had
    /// to be done (the manifest is rebuilt if missing).
    pub already_complete: bool,
}

// ---------------------------------------------------------------------
// journal records
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct HeaderRec {
    schema: Schema,
    dicts: Vec<Vec<String>>,
    chunk_rows: usize,
    policy: RowErrorPolicy,
    label: Option<String>,
    input_len: u64,
    header_crc: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChunkRec {
    index: usize,
    rows: usize,
    /// Last input line (1-based) consumed before the seal — accepted,
    /// rejected, or blank. Resume restarts at the next line.
    end_line: usize,
    /// CRC-64 of the sealed chunk file bytes.
    file_crc: u64,
    /// Total rejected rows up to this seal.
    rejected_total: usize,
    /// Durable byte length of `rejected.txt` at this seal.
    quarantine_bytes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DoneRec {
    rows: usize,
    rejected: usize,
    chunks: usize,
}

/// Wraps a record body in a `[len][crc64][bytes]` frame.
fn frame(body: &Writer) -> Vec<u8> {
    let mut w = Writer::default();
    w.section(body);
    w.buf
}

fn encode_header_rec(h: &HeaderRec) -> Vec<u8> {
    let mut b = Writer::default();
    b.u8(0);
    chunk::encode_schema(&mut b, &h.schema, &h.dicts);
    b.usize(h.chunk_rows);
    let (tag, budget) = h.policy.tag();
    b.u8(tag);
    b.usize(budget);
    match &h.label {
        Some(l) => {
            b.bool(true);
            b.str(l);
        }
        None => b.bool(false),
    }
    b.u64(h.input_len);
    b.u64(h.header_crc);
    frame(&b)
}

fn encode_chunk_rec(c: &ChunkRec) -> Vec<u8> {
    let mut b = Writer::default();
    b.u8(1);
    b.usize(c.index);
    b.usize(c.rows);
    b.usize(c.end_line);
    b.u64(c.file_crc);
    b.usize(c.rejected_total);
    b.u64(c.quarantine_bytes);
    frame(&b)
}

fn encode_done_rec(d: &DoneRec) -> Vec<u8> {
    let mut b = Writer::default();
    b.u8(2);
    b.usize(d.rows);
    b.usize(d.rejected);
    b.usize(d.chunks);
    frame(&b)
}

/// A parsed journal: the valid record prefix plus the byte offset at
/// which each record ends (for truncating a stale suffix).
struct ParsedJournal {
    header: HeaderRec,
    chunks: Vec<ChunkRec>,
    done: Option<DoneRec>,
    /// Journal byte length covering the magic and header record alone.
    header_end: usize,
    /// `chunk_end[k]` = journal byte length covering everything up to
    /// and including chunk record `k`.
    chunk_end: Vec<usize>,
}

/// Parses a journal file, tolerating a torn tail: records are read
/// until the first frame that truncates or fails its checksum, and
/// everything after is ignored. Returns `None` when no usable prefix
/// exists (bad magic, no header record, structural nonsense).
fn parse_journal(bytes: &[u8]) -> Option<ParsedJournal> {
    let mut frames = Reader::new(bytes);
    if frames.take(JOURNAL_MAGIC.len()).ok()? != JOURNAL_MAGIC {
        return None;
    }
    let mut header: Option<HeaderRec> = None;
    let mut header_end = 0usize;
    let mut chunks: Vec<ChunkRec> = Vec::new();
    let mut chunk_end: Vec<usize> = Vec::new();
    let mut done: Option<DoneRec> = None;
    while !frames.is_empty() {
        // One `[len u64][crc u64][body]` frame; a torn or corrupt one
        // ends the usable prefix.
        let Ok(mut r) = frames.section() else { break };
        let end = frames.position();
        match r.u8().ok()? {
            0 => {
                if header.is_some() {
                    return None; // two headers: not a journal we wrote
                }
                let (schema, dicts) = chunk::decode_schema(&mut r).ok()?;
                let chunk_rows = r.usize().ok()?;
                let policy = RowErrorPolicy::from_tag(r.u8().ok()?, r.usize().ok()?)?;
                let label = if r.bool().ok()? {
                    Some(r.str().ok()?)
                } else {
                    None
                };
                header = Some(HeaderRec {
                    schema,
                    dicts,
                    chunk_rows,
                    policy,
                    label,
                    input_len: r.u64().ok()?,
                    header_crc: r.u64().ok()?,
                });
                header_end = end;
            }
            1 => {
                header.as_ref()?;
                if done.is_some() {
                    return None;
                }
                let rec = ChunkRec {
                    index: r.usize().ok()?,
                    rows: r.usize().ok()?,
                    end_line: r.usize().ok()?,
                    file_crc: r.u64().ok()?,
                    rejected_total: r.usize().ok()?,
                    quarantine_bytes: r.u64().ok()?,
                };
                if rec.index != chunks.len() {
                    return None;
                }
                chunks.push(rec);
                chunk_end.push(end);
            }
            2 => {
                header.as_ref()?;
                if done.is_some() {
                    return None;
                }
                done = Some(DoneRec {
                    rows: r.usize().ok()?,
                    rejected: r.usize().ok()?,
                    chunks: r.usize().ok()?,
                });
            }
            _ => return None,
        }
    }
    Some(ParsedJournal {
        header: header?,
        chunks,
        done,
        header_end,
        chunk_end,
    })
}

fn append_durable(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new().append(true).open(path)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    Ok(())
}

// ---------------------------------------------------------------------
// pass 1: schema inference
// ---------------------------------------------------------------------

fn open_input(path: &Path) -> Result<BufReader<std::fs::File>, DataError> {
    Ok(BufReader::new(std::fs::File::open(path)?))
}

struct Inferred {
    schema: Schema,
    dicts: Vec<Vec<String>>,
    input_len: u64,
    header_crc: u64,
}

/// Streams the input once (twice when categorical columns exist) to
/// infer the schema and build the category dictionaries.
fn infer_schema(input: &Path, cfg: &IngestConfig) -> Result<Inferred, DataError> {
    let input_len = std::fs::metadata(input)?.len();
    let mut lines = open_input(input)?.lines();
    let (header, names) = read_header(&mut lines, cfg.label.as_deref())?;
    // The raw header bytes fingerprint the input in the journal.
    let header_crc = crc64(header.as_bytes());
    let n = names.len();
    let strict = matches!(cfg.policy, RowErrorPolicy::Strict);

    // Pass 1a: column types. A column is numerical iff at least one
    // valid row exists and every structurally-valid cell parses as
    // `f64` (non-finite values still *type* as numeric; they are
    // rejected per-row during chunk writing, mirroring `read_csv`).
    let mut numeric = vec![true; n];
    let mut saw_rows = false;
    for (i, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let line_no = i + 2;
        let row = match parse_record(&line, line_no) {
            Ok(row) => row,
            Err(e) if strict => return Err(e),
            Err(_) => continue,
        };
        if row.len() != n {
            if strict {
                return Err(DataError::RaggedRow {
                    line: line_no,
                    got: row.len(),
                    expected: n,
                });
            }
            continue;
        }
        saw_rows = true;
        for (j, cell) in row.iter().enumerate() {
            if numeric[j] && cell.parse::<f64>().is_err() {
                numeric[j] = false;
            }
        }
    }
    let attrs: Vec<Attribute> = names
        .iter()
        .enumerate()
        .map(|(j, name)| {
            let forced_cat = cfg.label.as_deref() == Some(name.as_str());
            if numeric[j] && saw_rows && !forced_cat {
                Attribute::numerical(name.clone())
            } else {
                Attribute::categorical(name.clone())
            }
        })
        .collect();

    // Pass 1b: category dictionaries in first-appearance order, built
    // only for columns that ended up categorical (a numeric column
    // never pays dictionary memory).
    let mut dicts: Vec<Vec<String>> = vec![Vec::new(); n];
    if saw_rows && attrs.iter().any(|a| a.ty == AttrType::Categorical) {
        let mut interners: Vec<Dict> = (0..n).map(|_| Dict::default()).collect();
        let mut lines = open_input(input)?.lines();
        lines.next().transpose()?; // header
        for (i, line) in lines.enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            // Structurally bad rows were already handled in pass 1a
            // (strict aborted; skip ignores them here too).
            let Ok(row) = parse_record(&line, i + 2) else {
                continue;
            };
            if row.len() != n {
                continue;
            }
            for (j, cell) in row.iter().enumerate() {
                if attrs[j].ty == AttrType::Categorical {
                    interners[j].intern(cell);
                }
            }
        }
        dicts = interners.into_iter().map(Dict::into_order).collect();
    }

    let label_idx = cfg
        .label
        .as_deref()
        .and_then(|l| names.iter().position(|n| n == l));
    let schema = match label_idx {
        Some(idx) => Schema::with_label(attrs, idx),
        None => Schema::new(attrs),
    };
    Ok(Inferred {
        schema,
        dicts,
        input_len,
        header_crc,
    })
}

// ---------------------------------------------------------------------
// pass 2: chunk writing
// ---------------------------------------------------------------------

enum ParsedCell {
    Num(f64),
    Cat(u32),
}

struct IngestState<'a> {
    cfg: &'a IngestConfig,
    store_dir: &'a Path,
    schema: Schema,
    dicts: Vec<Dict>,
    journal_path: PathBuf,
    rejected_path: PathBuf,
    builders: Vec<Column>,
    rows_in_chunk: usize,
    chunk_index: usize,
    last_line: usize,
    rows_total: usize,
    rejected_total: usize,
    quarantine_buf: Vec<u8>,
    quarantine_bytes: u64,
    metas: Vec<ChunkMeta>,
    io: &'a ArmedIo,
}

fn fresh_builders(schema: &Schema, dicts: &[Dict]) -> Vec<Column> {
    schema
        .attrs()
        .iter()
        .zip(dicts)
        .map(|(a, d)| match a.ty {
            AttrType::Numerical => Column::Num(Vec::new()),
            AttrType::Categorical => Column::Cat {
                codes: Vec::new(),
                categories: d.order().to_vec(),
            },
        })
        .collect()
}

impl IngestState<'_> {
    /// Records one rejected row; errors when the skip budget runs out.
    /// Strict-policy callers surface their typed error directly and
    /// never reach this.
    fn reject(&mut self, line_no: usize, reason: &str, raw: &str) -> Result<(), DataError> {
        self.rejected_total += 1;
        let entry = format!("line {line_no}: {reason}: {raw}\n");
        self.quarantine_buf.extend_from_slice(entry.as_bytes());
        emit(
            tschema::INGEST_ROW_REJECTED,
            vec![field("line", line_no), field("reason", reason)],
        );
        if let RowErrorPolicy::SkipWithBudget { budget } = self.cfg.policy {
            if self.rejected_total > budget {
                // Flush the pending rejections so the operator can see
                // what broke the budget; the journal does not record
                // the new length, so a later resume truncates it back.
                self.flush_quarantine()?;
                return Err(DataError::RowBudgetExhausted {
                    rejected: self.rejected_total,
                    budget,
                });
            }
        }
        Ok(())
    }

    fn flush_quarantine(&mut self) -> Result<(), DataError> {
        if self.quarantine_buf.is_empty() {
            return Ok(());
        }
        append_durable(&self.rejected_path, &self.quarantine_buf)?;
        self.quarantine_bytes += self.quarantine_buf.len() as u64;
        self.quarantine_buf.clear();
        Ok(())
    }

    /// Seals the in-memory chunk: durable chunk file, durable
    /// quarantine flush, then the journal record that commits both.
    fn seal(&mut self) -> Result<(), DataError> {
        let index = self.chunk_index;
        let bytes = chunk::encode_chunk(index, &self.builders);
        let path = self.store_dir.join(chunk_file_name(index));
        self.io.atomic_write(&path, &bytes)?;
        self.flush_quarantine()?;
        let rec = ChunkRec {
            index,
            rows: self.rows_in_chunk,
            end_line: self.last_line,
            file_crc: crc64(&bytes),
            rejected_total: self.rejected_total,
            quarantine_bytes: self.quarantine_bytes,
        };
        append_durable(&self.journal_path, &encode_chunk_rec(&rec))?;
        emit(
            tschema::CHUNK_SEALED,
            vec![
                field("chunk", index),
                field("rows", self.rows_in_chunk),
                field("bytes", bytes.len()),
            ],
        );
        self.metas.push(ChunkMeta {
            rows: self.rows_in_chunk,
            crc: rec.file_crc,
        });
        self.builders = fresh_builders(&self.schema, &self.dicts);
        self.rows_in_chunk = 0;
        self.chunk_index += 1;
        Ok(())
    }
}

/// The chunk-writing pass shared by fresh and resumed runs: consumes
/// input lines after `skip_to`, validates rows, seals chunks, and
/// finalizes the manifest and the journal's done record.
fn run_pass2(
    input: &Path,
    state: &mut IngestState<'_>,
    skip_to: usize,
    resumed_from: Option<usize>,
) -> Result<IngestReport, DataError> {
    emit(
        tschema::INGEST_START,
        vec![
            field("resumed", resumed_from.is_some()),
            field("chunk_rows", state.cfg.chunk_rows),
        ],
    );
    let strict = matches!(state.cfg.policy, RowErrorPolicy::Strict);
    let n = state.schema.n_attrs();
    let mut lines = open_input(input)?.lines();
    lines.next().transpose()?; // header, validated in pass 1 / resume
    for (i, line) in lines.enumerate() {
        let line = line?;
        let line_no = i + 2;
        if line_no <= skip_to {
            continue;
        }
        state.last_line = line_no;
        if line.trim().is_empty() {
            continue;
        }
        let row = match parse_record(&line, line_no) {
            Ok(row) => row,
            Err(e) => {
                if strict {
                    return Err(e);
                }
                state.reject(line_no, "unterminated quoted field", &line)?;
                continue;
            }
        };
        if row.len() != n {
            if strict {
                return Err(DataError::RaggedRow {
                    line: line_no,
                    got: row.len(),
                    expected: n,
                });
            }
            let reason = format!("ragged row ({} cells, expected {n})", row.len());
            state.reject(line_no, &reason, &line)?;
            continue;
        }
        // Validate every cell before touching any builder, so a
        // rejected row leaves the pending chunk untouched.
        let mut cells: Vec<ParsedCell> = Vec::with_capacity(n);
        let mut bad: Option<(String, DataError)> = None;
        for (j, cell) in row.iter().enumerate() {
            let attr = state.schema.attr(j);
            match attr.ty {
                AttrType::Numerical => match cell.parse::<f64>() {
                    Ok(x) if x.is_finite() => cells.push(ParsedCell::Num(x)),
                    Ok(_) => {
                        bad = Some((
                            format!("non-finite value {cell:?} in column {:?}", attr.name),
                            DataError::NonFiniteNumber {
                                line: line_no,
                                column: attr.name.clone(),
                                value: cell.clone(),
                            },
                        ));
                        break;
                    }
                    Err(_) => {
                        bad = Some((
                            format!("unparseable numeric {cell:?} in column {:?}", attr.name),
                            DataError::SchemaMismatch {
                                detail: format!(
                                    "line {line_no}: column {:?} was inferred numerical but \
                                     cell {cell:?} does not parse (input changed since the \
                                     schema pass?)",
                                    attr.name
                                ),
                            },
                        ));
                        break;
                    }
                },
                AttrType::Categorical => match state.dicts[j].get(cell) {
                    Some(code) => cells.push(ParsedCell::Cat(code)),
                    None => {
                        bad = Some((
                            format!("unknown category {cell:?} in column {:?}", attr.name),
                            DataError::SchemaMismatch {
                                detail: format!(
                                    "line {line_no}: category {cell:?} is not in the \
                                     journaled dictionary of column {:?} (input changed \
                                     since the schema pass?)",
                                    attr.name
                                ),
                            },
                        ));
                        break;
                    }
                },
            }
        }
        if let Some((reason, err)) = bad {
            if strict {
                return Err(err);
            }
            state.reject(line_no, &reason, &line)?;
            continue;
        }
        for (builder, cell) in state.builders.iter_mut().zip(&cells) {
            match (builder, cell) {
                (Column::Num(v), ParsedCell::Num(x)) => v.push(*x),
                (Column::Cat { codes, .. }, ParsedCell::Cat(c)) => codes.push(*c),
                _ => unreachable!("cell validated against schema"),
            }
        }
        state.rows_in_chunk += 1;
        state.rows_total += 1;
        if state.rows_in_chunk == state.cfg.chunk_rows {
            state.seal()?;
        }
        let accepted_index = state.rows_total - 1;
        if state.cfg.kill_at_row == Some(accepted_index) {
            emit(
                tschema::FAULT_FIRED,
                vec![
                    field("kind", "data_kill_at_row"),
                    field("row", accepted_index),
                ],
            );
            return Err(DataError::Interrupted {
                rows_ingested: state.rows_total,
            });
        }
    }
    if state.rows_in_chunk > 0 {
        state.seal()?;
    }
    // Rejections after the last seal still need to reach the ledger.
    state.flush_quarantine()?;

    let dict_orders: Vec<Vec<String>> = state.dicts.iter().map(|d| d.order().to_vec()).collect();
    let manifest = encode_manifest(
        &state.schema,
        &dict_orders,
        state.cfg.chunk_rows,
        &state.metas,
    );
    state
        .io
        .atomic_write(&state.store_dir.join(MANIFEST_FILE), &manifest)?;
    let done = DoneRec {
        rows: state.rows_total,
        rejected: state.rejected_total,
        chunks: state.metas.len(),
    };
    append_durable(&state.journal_path, &encode_done_rec(&done))?;
    emit(
        tschema::INGEST_END,
        vec![
            field("rows", done.rows),
            field("rejected", done.rejected),
            field("chunks", done.chunks),
        ],
    );
    Ok(IngestReport {
        rows: done.rows,
        rejected: done.rejected,
        chunks: done.chunks,
        resumed_from_chunk: resumed_from,
        already_complete: false,
    })
}

/// Ingests `input` (a headered CSV) into the chunk store at
/// `store_dir`, resuming from the journal when a previous run was
/// interrupted. See the module docs for the crash-safety contract.
pub fn ingest_csv(
    input: &Path,
    store_dir: &Path,
    cfg: &IngestConfig,
) -> Result<IngestReport, DataError> {
    daisy_telemetry::phase_scope!("ingest");
    assert!(cfg.chunk_rows > 0, "chunk_rows must be positive");
    std::fs::create_dir_all(store_dir)?;
    let journal_path = store_dir.join(JOURNAL_FILE);
    let rejected_path = store_dir.join(REJECTED_FILE);
    let io = ArmedIo::new(&cfg.io_faults).on_fire(report_fault);

    if journal_path.exists() {
        let journal_bytes = io.read(&journal_path)?;
        match parse_journal(&journal_bytes) {
            Some(parsed) => {
                return resume_ingest(input, store_dir, cfg, &io, parsed, &rejected_path);
            }
            None => {
                // Unusable journal (foreign bytes, lost header): move
                // it aside and start over; stale chunks are rewritten.
                io.quarantine(&journal_path);
            }
        }
    }

    let inferred = infer_schema(input, cfg)?;
    let header = HeaderRec {
        schema: inferred.schema.clone(),
        dicts: inferred.dicts.clone(),
        chunk_rows: cfg.chunk_rows,
        policy: cfg.policy,
        label: cfg.label.clone(),
        input_len: inferred.input_len,
        header_crc: inferred.header_crc,
    };
    let mut journal = JOURNAL_MAGIC.to_vec();
    journal.extend_from_slice(&encode_header_rec(&header));
    io.atomic_write(&journal_path, &journal)?;
    // A stale quarantine file from an abandoned run must not leak old
    // rows into the new store's ledger.
    std::fs::write(&rejected_path, b"")?;
    sync_parent_dir(&rejected_path);

    let dicts: Vec<Dict> = inferred.dicts.into_iter().map(Dict::from_order).collect();
    let mut state = IngestState {
        cfg,
        store_dir,
        builders: fresh_builders(&inferred.schema, &dicts),
        schema: inferred.schema,
        dicts,
        journal_path,
        rejected_path,
        rows_in_chunk: 0,
        chunk_index: 0,
        last_line: 1,
        rows_total: 0,
        rejected_total: 0,
        quarantine_buf: Vec::new(),
        quarantine_bytes: 0,
        metas: Vec::new(),
        io: &io,
    };
    run_pass2(input, &mut state, 1, None)
}

/// Resumes an interrupted ingest from its journal, or re-checks and
/// repairs a completed one.
fn resume_ingest(
    input: &Path,
    store_dir: &Path,
    cfg: &IngestConfig,
    io: &ArmedIo,
    parsed: ParsedJournal,
    rejected_path: &Path,
) -> Result<IngestReport, DataError> {
    let journal_path = store_dir.join(JOURNAL_FILE);
    // The journal only speaks for the exact input and configuration it
    // was written under.
    let input_len = std::fs::metadata(input)?.len();
    let mut lines = open_input(input)?.lines();
    let header_line = lines.next().ok_or(DataError::EmptyCsv)??;
    drop(lines);
    let h = &parsed.header;
    if h.input_len != input_len || h.header_crc != crc64(header_line.as_bytes()) {
        return Err(DataError::SchemaMismatch {
            detail: format!(
                "journal was written for a different input (recorded {} bytes, found {input_len})",
                h.input_len
            ),
        });
    }
    if h.chunk_rows != cfg.chunk_rows || h.policy != cfg.policy || h.label != cfg.label {
        return Err(DataError::SchemaMismatch {
            detail: "journal was written under a different ingest configuration \
                     (chunk_rows / policy / label)"
                .to_string(),
        });
    }

    // Validate the sealed prefix, for a completed ingest too: every
    // journaled chunk must still match its recorded CRC. The first
    // damaged chunk (torn write, bit rot, deletion) is quarantined and
    // the journal truncated back to the intact prefix — dropping any
    // done record — which re-ingests from there.
    let mut valid = parsed.chunks.len();
    for (k, rec) in parsed.chunks.iter().enumerate() {
        let path = store_dir.join(chunk_file_name(k));
        let intact = match io.read(&path) {
            Ok(bytes) => crc64(&bytes) == rec.file_crc,
            Err(_) => false,
        };
        if !intact {
            if path.exists() {
                io.quarantine(&path);
                emit(
                    tschema::CHUNK_QUARANTINED,
                    vec![
                        field("chunk", k),
                        field("error", "sealed chunk no longer matches its journal CRC"),
                    ],
                );
            }
            valid = k;
            break;
        }
    }
    let metas: Vec<ChunkMeta> = parsed.chunks[..valid]
        .iter()
        .map(|c| ChunkMeta {
            rows: c.rows,
            crc: c.file_crc,
        })
        .collect();
    if valid < parsed.chunks.len() {
        let keep = if valid == 0 {
            parsed.header_end
        } else {
            parsed.chunk_end[valid - 1]
        };
        let bytes = io.read(&journal_path)?;
        io.atomic_write(&journal_path, &bytes[..keep])?;
    } else if let Some(done) = parsed.done {
        // A completed ingest with intact chunks is idempotent: rebuild
        // the manifest if it went missing or no longer matches the
        // journal, and report without touching anything else.
        let manifest_path = store_dir.join(MANIFEST_FILE);
        let want = encode_manifest(&h.schema, &h.dicts, h.chunk_rows, &metas);
        match io.read(&manifest_path) {
            Ok(have) if have == want => {}
            Ok(_) => {
                io.quarantine(&manifest_path);
                io.atomic_write(&manifest_path, &want)?;
            }
            Err(_) => io.atomic_write(&manifest_path, &want)?,
        }
        return Ok(IngestReport {
            rows: done.rows,
            rejected: done.rejected,
            chunks: done.chunks,
            resumed_from_chunk: None,
            already_complete: true,
        });
    }
    // An unjournaled torn chunk file past the prefix (crash mid-write)
    // is simply overwritten when its index seals again.
    let prefix = &parsed.chunks[..valid];
    let (skip_to, rejected_total, quarantine_bytes) = match prefix.last() {
        Some(last) => (last.end_line, last.rejected_total, last.quarantine_bytes),
        None => (1, 0, 0),
    };
    // Truncate the quarantine file to the sealed prefix so re-ingested
    // rejections are not duplicated. A ledger missing or shorter than
    // the journal records has lost rejected rows the journal vouches
    // for; truncating would pad it with zeros instead.
    match std::fs::metadata(rejected_path).map(|m| m.len()) {
        Ok(len) if len >= quarantine_bytes => {
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(rejected_path)?;
            f.set_len(quarantine_bytes)?;
            f.sync_all()?;
        }
        Err(_) if quarantine_bytes == 0 => {
            std::fs::write(rejected_path, b"")?;
            sync_parent_dir(rejected_path);
        }
        _ => {
            return Err(DataError::SchemaMismatch {
                detail: format!(
                    "journal records {quarantine_bytes} bytes of quarantined rows but \
                     rejected.txt is missing or shorter"
                ),
            });
        }
    }
    emit(
        tschema::INGEST_RESUME,
        vec![field("from_chunk", valid), field("skip_lines", skip_to)],
    );

    let dicts: Vec<Dict> = h.dicts.iter().cloned().map(Dict::from_order).collect();
    let rows_total: usize = prefix.iter().map(|c| c.rows).sum();
    let mut state = IngestState {
        cfg,
        store_dir,
        builders: fresh_builders(&h.schema, &dicts),
        schema: h.schema.clone(),
        dicts,
        journal_path,
        rejected_path: rejected_path.to_path_buf(),
        rows_in_chunk: 0,
        chunk_index: valid,
        last_line: skip_to,
        rows_total,
        rejected_total,
        quarantine_buf: Vec::new(),
        quarantine_bytes,
        metas,
        io,
    };
    run_pass2(input, &mut state, skip_to, Some(valid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ChunkStore;

    fn scratch_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("daisy-ingest-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_input(dir: &Path, body: &str) -> PathBuf {
        let path = dir.join("input.csv");
        std::fs::write(&path, body).unwrap();
        path
    }

    /// 10 data rows: numeric `age`, categorical `job`, label `income`.
    const DEMO: &str = "age,job,income\n\
        38,tech,hi\n\
        51,sales,lo\n\
        27,tech,lo\n\
        44,\"sales, retail\",hi\n\
        61,tech,hi\n\
        33,sales,lo\n\
        29,tech,lo\n\
        55,sales,hi\n\
        40,tech,hi\n\
        36,sales,lo\n";

    fn demo_cfg(chunk_rows: usize) -> IngestConfig {
        IngestConfig {
            chunk_rows,
            label: Some("income".to_string()),
            policy: RowErrorPolicy::Strict,
            ..IngestConfig::default()
        }
    }

    /// All store files as sorted (name, bytes) pairs for byte-identity
    /// comparisons.
    fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    #[test]
    fn fresh_ingest_matches_read_csv() {
        let dir = scratch_dir("fresh");
        let input = write_input(&dir, DEMO);
        let store_dir = dir.join("store");
        let report = ingest_csv(&input, &store_dir, &demo_cfg(4)).unwrap();
        assert_eq!(report.rows, 10);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.chunks, 3);
        assert_eq!(report.resumed_from_chunk, None);
        assert!(!report.already_complete);
        let store = ChunkStore::open(&store_dir).unwrap();
        let table = store.to_table().unwrap();
        let reference =
            crate::csv::read_csv(open_input(&input).unwrap(), Some("income")).unwrap();
        assert_eq!(table, reference);
        // The quoted category with a comma survived intact.
        assert!(store.dicts()[1].iter().any(|c| c == "sales, retail"));

        // A high-cardinality column: 2,500 distinct ids in scrambled
        // order, each but the quoted one seen again 2,500 rows later,
        // and a quoted id with a comma that repeats.
        let mut body = String::from("id,income\n");
        for i in 0..6000 {
            let label = if i % 3 == 0 { "hi" } else { "lo" };
            if i % 1000 == 999 {
                body.push_str(&format!("\"id, quoted\",{label}\n"));
            } else {
                body.push_str(&format!("u{},{label}\n", (i * 7919) % 2500));
            }
        }
        let input = write_input(&dir, &body);
        let store_dir = dir.join("store-ids");
        let report = ingest_csv(&input, &store_dir, &demo_cfg(512)).unwrap();
        assert_eq!(report.rows, 6000);
        let store = ChunkStore::open(&store_dir).unwrap();
        let reference = crate::csv::read_csv(open_input(&input).unwrap(), Some("income")).unwrap();
        assert_eq!(store.to_table().unwrap(), reference);
        let ids = &store.dicts()[0];
        assert_eq!(ids.len(), 2501);
        assert_eq!(&ids[..3], &["u0", "u419", "u838"]);
        assert_eq!(ids.iter().position(|c| c == "id, quoted"), Some(999));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_at_every_row_then_resume_is_byte_identical() {
        let base = scratch_dir("kill-base");
        let input = write_input(&base, DEMO);
        let clean_dir = base.join("clean");
        ingest_csv(&input, &clean_dir, &demo_cfg(3)).unwrap();
        let want = dir_bytes(&clean_dir);
        for row in 0..10 {
            let dir = base.join(format!("killed-{row}"));
            let mut cfg = demo_cfg(3);
            cfg.kill_at_row = Some(row);
            let err = ingest_csv(&input, &dir, &cfg).unwrap_err();
            assert!(matches!(err, DataError::Interrupted { .. }), "{err}");
            // Rerun without the fault: must resume and converge.
            let report = ingest_csv(&input, &dir, &demo_cfg(3)).unwrap();
            assert_eq!(report.rows, 10, "kill at row {row}");
            assert!(report.resumed_from_chunk.is_some());
            assert_eq!(dir_bytes(&dir), want, "kill at row {row}");
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn torn_chunk_write_resumes_byte_identical() {
        let base = scratch_dir("torn");
        let input = write_input(&base, DEMO);
        let clean_dir = base.join("clean");
        ingest_csv(&input, &clean_dir, &demo_cfg(4)).unwrap();
        let want = dir_bytes(&clean_dir);
        let dir = base.join("torn");
        let mut cfg = demo_cfg(4);
        // Write 0 is the journal header, write 1 chunk 0, write 2 chunk 1.
        cfg.io_faults = IoFaultPlan::torn_write_at(2, 40);
        let err = ingest_csv(&input, &dir, &cfg).unwrap_err();
        assert!(matches!(err, DataError::Io(_)), "{err}");
        // The crash inside the atomic write left a prefix in the temp
        // file, unjournaled, and nothing at the final path.
        let path = dir.join(chunk_file_name(1));
        assert!(!path.exists());
        let torn = std::fs::read(daisy_wire::sibling(&path, "tmp")).unwrap();
        let sealed = std::fs::read(clean_dir.join(chunk_file_name(1))).unwrap();
        assert!(!torn.is_empty() && sealed.starts_with(&torn));
        let report = ingest_csv(&input, &dir, &demo_cfg(4)).unwrap();
        assert_eq!(report.resumed_from_chunk, Some(1));
        assert_eq!(dir_bytes(&dir), want);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn disk_full_is_typed_and_resumable() {
        let base = scratch_dir("full");
        let input = write_input(&base, DEMO);
        let dir = base.join("store");
        let mut cfg = demo_cfg(5);
        // Write 1: chunk 0, after the journal header.
        cfg.io_faults = IoFaultPlan::disk_full_at(1);
        let err = ingest_csv(&input, &dir, &cfg).unwrap_err();
        assert!(matches!(err, DataError::Io(_)), "{err}");
        let report = ingest_csv(&input, &dir, &demo_cfg(5)).unwrap();
        assert_eq!(report.rows, 10);
        assert_eq!(report.resumed_from_chunk, Some(0));
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn damaged_sealed_chunk_is_quarantined_on_resume() {
        let base = scratch_dir("rot");
        let input = write_input(&base, DEMO);
        let clean_dir = base.join("clean");
        ingest_csv(&input, &clean_dir, &demo_cfg(3)).unwrap();
        let want = dir_bytes(&clean_dir);
        let dir = base.join("store");
        let mut cfg = demo_cfg(3);
        cfg.kill_at_row = Some(7);
        ingest_csv(&input, &dir, &cfg).unwrap_err();
        // Rot the *first* sealed chunk behind the journal's back.
        let path = dir.join(chunk_file_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let report = ingest_csv(&input, &dir, &demo_cfg(3)).unwrap();
        assert_eq!(report.rows, 10);
        assert_eq!(report.resumed_from_chunk, Some(0));
        // The rotted bytes were preserved for post-mortem...
        let q = daisy_wire::sibling(&path, "corrupt-0");
        assert_eq!(std::fs::read(&q).unwrap(), bytes);
        std::fs::remove_file(&q).unwrap();
        // ...and the rebuilt store is byte-identical to a clean run.
        assert_eq!(dir_bytes(&dir), want);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn completed_ingest_is_idempotent() {
        let dir = scratch_dir("idem");
        let input = write_input(&dir, DEMO);
        let store_dir = dir.join("store");
        ingest_csv(&input, &store_dir, &demo_cfg(4)).unwrap();
        let before = dir_bytes(&store_dir);
        let report = ingest_csv(&input, &store_dir, &demo_cfg(4)).unwrap();
        assert!(report.already_complete);
        assert_eq!(report.rows, 10);
        assert_eq!(dir_bytes(&store_dir), before, "no bytes may change");
        // A deleted manifest is rebuilt from the journal.
        std::fs::remove_file(store_dir.join(MANIFEST_FILE)).unwrap();
        let report = ingest_csv(&input, &store_dir, &demo_cfg(4)).unwrap();
        assert!(report.already_complete);
        assert_eq!(dir_bytes(&store_dir), before, "manifest rebuilt exactly");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn skip_policy_quarantines_rows_with_line_numbers() {
        let dir = scratch_dir("skip");
        let input = write_input(&dir, "age,income\n38,hi\nbroken,row,extra\nNaN,lo\n27,lo\n");
        let store_dir = dir.join("store");
        let cfg = IngestConfig {
            chunk_rows: 8,
            label: Some("income".to_string()),
            policy: RowErrorPolicy::SkipWithBudget { budget: 5 },
            ..IngestConfig::default()
        };
        let report = ingest_csv(&input, &store_dir, &cfg).unwrap();
        assert_eq!(report.rows, 2);
        assert_eq!(report.rejected, 2);
        let rejected = std::fs::read_to_string(store_dir.join(REJECTED_FILE)).unwrap();
        assert!(rejected.contains("line 3"), "{rejected}");
        assert!(rejected.contains("ragged row"), "{rejected}");
        assert!(rejected.contains("line 4"), "{rejected}");
        assert!(rejected.contains("non-finite"), "{rejected}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn skip_budget_exhaustion_is_typed() {
        let dir = scratch_dir("budget");
        let input = write_input(&dir, "age,income\nx,y,z\na,b,c\n1,hi\n");
        let store_dir = dir.join("store");
        let cfg = IngestConfig {
            chunk_rows: 8,
            label: None,
            policy: RowErrorPolicy::SkipWithBudget { budget: 1 },
            ..IngestConfig::default()
        };
        let err = ingest_csv(&input, &store_dir, &cfg).unwrap_err();
        assert!(
            matches!(
                err,
                DataError::RowBudgetExhausted {
                    rejected: 2,
                    budget: 1
                }
            ),
            "{err}"
        );
        // Both offending rows were flushed for the post-mortem.
        let rejected = std::fs::read_to_string(store_dir.join(REJECTED_FILE)).unwrap();
        assert!(rejected.contains("line 2") && rejected.contains("line 3"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rerunning_a_completed_ingest_repairs_the_store() {
        let dir = scratch_dir("repair");
        let input = write_input(&dir, DEMO);
        let clean_dir = dir.join("clean");
        ingest_csv(&input, &clean_dir, &demo_cfg(4)).unwrap();
        let want = dir_bytes(&clean_dir);
        let store_dir = dir.join("store");
        ingest_csv(&input, &store_dir, &demo_cfg(4)).unwrap();
        // A sealed chunk rots after completion, and the store
        // quarantines it on read.
        let path = store_dir.join(chunk_file_name(1));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let store = ChunkStore::open(&store_dir).unwrap();
        assert!(matches!(
            store.chunk(1),
            Err(DataError::CorruptChunk { .. })
        ));
        assert!(!path.exists(), "the store quarantined the chunk");
        // Rerunning the same ingest re-ingests from it.
        let report = ingest_csv(&input, &store_dir, &demo_cfg(4)).unwrap();
        assert!(!report.already_complete);
        assert_eq!(report.resumed_from_chunk, Some(1));
        std::fs::remove_file(daisy_wire::sibling(&path, "corrupt-0")).unwrap();
        assert_eq!(dir_bytes(&store_dir), want, "store rebuilt exactly");
        // A rotted manifest is quarantined and rebuilt from the journal.
        let manifest = store_dir.join(MANIFEST_FILE);
        std::fs::write(&manifest, b"rot").unwrap();
        let report = ingest_csv(&input, &store_dir, &demo_cfg(4)).unwrap();
        assert!(report.already_complete);
        let q = daisy_wire::sibling(&manifest, "corrupt-0");
        assert_eq!(std::fs::read(&q).unwrap(), b"rot");
        std::fs::remove_file(&q).unwrap();
        assert_eq!(dir_bytes(&store_dir), want, "manifest rebuilt exactly");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_ledger_shorter_than_the_journal_is_refused_on_resume() {
        let dir = scratch_dir("shortledger");
        let input = write_input(
            &dir,
            "age,income\n38,hi\n51,lo,extra\n27,lo\n44,hi\n61,hi\n33,lo\n",
        );
        let store_dir = dir.join("store");
        let mut cfg = IngestConfig {
            chunk_rows: 2,
            label: Some("income".to_string()),
            policy: RowErrorPolicy::SkipWithBudget { budget: 5 },
            ..IngestConfig::default()
        };
        cfg.kill_at_row = Some(4);
        ingest_csv(&input, &store_dir, &cfg).unwrap_err();
        let ledger = store_dir.join(REJECTED_FILE);
        let rejected = std::fs::read_to_string(&ledger).unwrap();
        assert!(rejected.starts_with("line 3: "), "{rejected}");
        // Emptied behind the journal's back: resume must not pad it.
        std::fs::write(&ledger, b"").unwrap();
        cfg.kill_at_row = None;
        let err = ingest_csv(&input, &store_dir, &cfg).unwrap_err();
        assert!(matches!(err, DataError::SchemaMismatch { .. }), "{err}");
        assert!(std::fs::read(&ledger).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn strict_policy_fails_fast_with_typed_errors() {
        let dir = scratch_dir("strict");
        let store_dir = dir.join("store");
        let ragged = write_input(&dir, "a,b\n1,2,3\n");
        let err = ingest_csv(&ragged, &store_dir, &IngestConfig::default()).unwrap_err();
        assert!(matches!(err, DataError::RaggedRow { line: 2, .. }), "{err}");
        let nonfinite = dir.join("nf.csv");
        std::fs::write(&nonfinite, "a,b\n1,inf\n").unwrap();
        std::fs::remove_dir_all(&store_dir).ok();
        let err = ingest_csv(&nonfinite, &store_dir, &IngestConfig::default()).unwrap_err();
        assert!(
            matches!(err, DataError::NonFiniteNumber { line: 2, .. }),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn changed_input_is_rejected_on_resume() {
        let dir = scratch_dir("changed");
        let input = write_input(&dir, DEMO);
        let store_dir = dir.join("store");
        let mut cfg = demo_cfg(3);
        cfg.kill_at_row = Some(5);
        ingest_csv(&input, &store_dir, &cfg).unwrap_err();
        // The input grows a row behind the journal's back.
        let mut body = DEMO.to_string();
        body.push_str("99,tech,hi\n");
        std::fs::write(&input, &body).unwrap();
        let err = ingest_csv(&input, &store_dir, &demo_cfg(3)).unwrap_err();
        assert!(matches!(err, DataError::SchemaMismatch { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn changed_config_is_rejected_on_resume() {
        let dir = scratch_dir("cfgchange");
        let input = write_input(&dir, DEMO);
        let store_dir = dir.join("store");
        let mut cfg = demo_cfg(3);
        cfg.kill_at_row = Some(5);
        ingest_csv(&input, &store_dir, &cfg).unwrap_err();
        let err = ingest_csv(&input, &store_dir, &demo_cfg(4)).unwrap_err();
        assert!(matches!(err, DataError::SchemaMismatch { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_journal_is_quarantined_and_ingest_restarts() {
        let dir = scratch_dir("foreign");
        let input = write_input(&dir, DEMO);
        let store_dir = dir.join("store");
        std::fs::create_dir_all(&store_dir).unwrap();
        std::fs::write(store_dir.join(JOURNAL_FILE), b"not a journal at all").unwrap();
        let report = ingest_csv(&input, &store_dir, &demo_cfg(4)).unwrap();
        assert_eq!(report.rows, 10);
        assert_eq!(report.resumed_from_chunk, None);
        assert!(daisy_wire::sibling(&store_dir.join(JOURNAL_FILE), "corrupt-0").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_journal_tail_is_discarded() {
        let dir = scratch_dir("torntail");
        let input = write_input(&dir, DEMO);
        let store_dir = dir.join("store");
        let mut cfg = demo_cfg(3);
        cfg.kill_at_row = Some(7);
        ingest_csv(&input, &store_dir, &cfg).unwrap_err();
        // Append a garbage half-record: a real torn append.
        let journal = store_dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&journal).unwrap();
        bytes.extend_from_slice(&[0x55; 11]);
        std::fs::write(&journal, &bytes).unwrap();
        let report = ingest_csv(&input, &store_dir, &demo_cfg(3)).unwrap();
        assert_eq!(report.rows, 10);
        assert_eq!(report.resumed_from_chunk, Some(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_only_input_yields_empty_store() {
        let dir = scratch_dir("headeronly");
        let input = write_input(&dir, "a,b\n");
        let store_dir = dir.join("store");
        let report = ingest_csv(&input, &store_dir, &IngestConfig::default()).unwrap();
        assert_eq!((report.rows, report.chunks), (0, 0));
        let store = ChunkStore::open(&store_dir).unwrap();
        assert_eq!(store.n_rows(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_roundtrip_records() {
        let h = HeaderRec {
            schema: Schema::new(vec![Attribute::numerical("x")]),
            dicts: vec![vec![]],
            chunk_rows: 64,
            policy: RowErrorPolicy::SkipWithBudget { budget: 9 },
            label: None,
            input_len: 123,
            header_crc: 456,
        };
        let c = ChunkRec {
            index: 0,
            rows: 64,
            end_line: 65,
            file_crc: 0xDEAD,
            rejected_total: 1,
            quarantine_bytes: 37,
        };
        let d = DoneRec {
            rows: 64,
            rejected: 1,
            chunks: 1,
        };
        let mut bytes = JOURNAL_MAGIC.to_vec();
        bytes.extend_from_slice(&encode_header_rec(&h));
        bytes.extend_from_slice(&encode_chunk_rec(&c));
        bytes.extend_from_slice(&encode_done_rec(&d));
        let parsed = parse_journal(&bytes).unwrap();
        assert_eq!(parsed.header.chunk_rows, 64);
        assert_eq!(
            parsed.header.policy,
            RowErrorPolicy::SkipWithBudget { budget: 9 }
        );
        assert_eq!(parsed.chunks, vec![c]);
        assert_eq!(parsed.done, Some(d));
        // Torn tails cut back to the last whole record.
        let parsed = parse_journal(&bytes[..bytes.len() - 3]).unwrap();
        assert_eq!(parsed.done, None);
        assert_eq!(parsed.chunks.len(), 1);
        assert!(parse_journal(b"BOGUS").is_none());
    }
}
