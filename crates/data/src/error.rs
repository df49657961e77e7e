//! Typed errors for table ingestion, export, and the on-disk chunk store.
//!
//! CSV parsing and the chunk store are the places the library consumes
//! untrusted input, so every malformed-input condition surfaces as a
//! [`DataError`] instead of a panic: the CLI reports "row 3 has 2
//! cells, expected 4" or "chunk 5 failed its checksum" rather than
//! aborting with a backtrace or silently training on corrupt data.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// An error raised while reading or writing tabular data.
#[derive(Debug)]
pub enum DataError {
    /// The underlying reader or writer failed.
    Io(io::Error),
    /// The input had no header row (or no bytes at all).
    EmptyCsv,
    /// A header cell was blank, so the column cannot be addressed.
    BlankColumnName {
        /// Zero-based index of the blank header cell.
        column: usize,
    },
    /// Two columns share a name; `--label` and schema lookups would be
    /// ambiguous.
    DuplicateColumn {
        /// The repeated column name.
        name: String,
    },
    /// A data row's cell count disagrees with the header.
    RaggedRow {
        /// One-based line number in the input (the header is line 1).
        line: usize,
        /// Cells found on the offending row.
        got: usize,
        /// Cells implied by the header.
        expected: usize,
    },
    /// A cell in a numeric column parsed as `f64` but is NaN or
    /// infinite; such values would silently poison normalizer fits.
    NonFiniteNumber {
        /// One-based line number in the input (the header is line 1).
        line: usize,
        /// Name of the offending column.
        column: String,
        /// The cell text as read.
        value: String,
    },
    /// A quoted field was opened but never closed before end of line.
    UnterminatedQuote {
        /// One-based line number in the input (the header is line 1).
        line: usize,
    },
    /// The requested label column does not exist in the header.
    UnknownLabel {
        /// The label name that was requested.
        name: String,
    },
    /// A category name cannot be serialized even with quoting (it
    /// contains a line break, which the line-oriented reader cannot
    /// round-trip).
    UnwritableCategory {
        /// The offending category name.
        name: String,
    },
    /// A chunk file failed framing or checksum validation. The reader
    /// quarantines the file (renamed `*.corrupt-N`) before returning.
    CorruptChunk {
        /// Path the chunk lived at before quarantine.
        path: PathBuf,
        /// What failed: bad magic, short frame, checksum mismatch.
        detail: String,
    },
    /// The store manifest failed framing or checksum validation.
    CorruptManifest {
        /// Path of the manifest file.
        path: PathBuf,
        /// What failed: bad magic, short frame, checksum mismatch.
        detail: String,
    },
    /// A chunk source's chunks do not partition its rows the way
    /// [`crate::ChunkSource`] promises: a chunk before the last holds
    /// other than `chunk_rows` rows, the last holds more, or the chunks
    /// add up to other than the source's row count.
    BadPartition {
        /// What disagreed.
        detail: String,
    },
    /// Resumed ingestion found an input or journal that disagrees with
    /// what the journal recorded (schema drift, shorter input, edited
    /// rows).
    SchemaMismatch {
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// Row-skip error policy ran out of budget: more rows were rejected
    /// than the caller allowed.
    RowBudgetExhausted {
        /// Rows rejected so far (including the one that broke the
        /// budget).
        rejected: usize,
        /// Maximum rejections the caller allowed.
        budget: usize,
    },
    /// Ingestion stopped at a planned kill point (deterministic fault
    /// injection standing in for SIGKILL). The journal and any sealed
    /// chunks are on disk; rerunning resumes.
    Interrupted {
        /// Rows fully ingested before the kill fired.
        rows_ingested: usize,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Io(e) => write!(f, "I/O error: {e}"),
            DataError::EmptyCsv => write!(f, "empty CSV: missing header row"),
            DataError::BlankColumnName { column } => {
                write!(f, "header column {} has a blank name", column + 1)
            }
            DataError::DuplicateColumn { name } => {
                write!(f, "duplicate column name {name:?} in header")
            }
            DataError::RaggedRow {
                line,
                got,
                expected,
            } => write!(f, "line {line}: row has {got} cells, expected {expected}"),
            DataError::NonFiniteNumber {
                line,
                column,
                value,
            } => write!(
                f,
                "line {line}: column {column:?} has non-finite numeric value {value:?}"
            ),
            DataError::UnterminatedQuote { line } => {
                write!(f, "line {line}: quoted field is never closed")
            }
            DataError::UnknownLabel { name } => {
                write!(f, "label column {name:?} not found in header")
            }
            DataError::UnwritableCategory { name } => {
                write!(
                    f,
                    "category name {name:?} contains a line break and cannot be written to CSV"
                )
            }
            DataError::CorruptChunk { path, detail } => {
                write!(f, "corrupt chunk {}: {detail} (quarantined)", path.display())
            }
            DataError::CorruptManifest { path, detail } => {
                write!(f, "corrupt manifest {}: {detail}", path.display())
            }
            DataError::BadPartition { detail } => {
                write!(f, "chunks do not partition the rows: {detail}")
            }
            DataError::SchemaMismatch { detail } => {
                write!(f, "resume mismatch: {detail}")
            }
            DataError::RowBudgetExhausted { rejected, budget } => {
                write!(
                    f,
                    "rejected {rejected} rows, exceeding the skip budget of {budget}"
                )
            }
            DataError::Interrupted { rows_ingested } => {
                write!(f, "ingestion interrupted after {rows_ingested} rows")
            }
        }
    }
}

impl std::error::Error for DataError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DataError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DataError {
    fn from(e: io::Error) -> Self {
        DataError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_user_facing() {
        let msgs = [
            DataError::EmptyCsv.to_string(),
            DataError::BlankColumnName { column: 0 }.to_string(),
            DataError::DuplicateColumn { name: "age".into() }.to_string(),
            DataError::RaggedRow {
                line: 3,
                got: 2,
                expected: 4,
            }
            .to_string(),
            DataError::UnknownLabel {
                name: "income".into(),
            }
            .to_string(),
            DataError::UnwritableCategory { name: "a\nb".into() }.to_string(),
            DataError::NonFiniteNumber {
                line: 7,
                column: "age".into(),
                value: "NaN".into(),
            }
            .to_string(),
            DataError::UnterminatedQuote { line: 4 }.to_string(),
            DataError::CorruptChunk {
                path: "chunk-000003.dch".into(),
                detail: "checksum mismatch".into(),
            }
            .to_string(),
            DataError::CorruptManifest {
                path: "manifest.dmf".into(),
                detail: "bad magic".into(),
            }
            .to_string(),
            DataError::SchemaMismatch {
                detail: "input shrank".into(),
            }
            .to_string(),
            DataError::RowBudgetExhausted {
                rejected: 6,
                budget: 5,
            }
            .to_string(),
            DataError::Interrupted { rows_ingested: 42 }.to_string(),
        ];
        assert!(msgs[0].contains("header"));
        assert!(msgs[1].contains("column 1"));
        assert!(msgs[2].contains("age"));
        assert!(msgs[3].contains("line 3") && msgs[3].contains("expected 4"));
        assert!(msgs[4].contains("income"));
        assert!(msgs[5].contains("line break"));
        assert!(msgs[6].contains("line 7") && msgs[6].contains("NaN"));
        assert!(msgs[7].contains("line 4"));
        assert!(msgs[8].contains("quarantined"));
        assert!(msgs[9].contains("manifest"));
        assert!(msgs[10].contains("input shrank"));
        assert!(msgs[11].contains("budget of 5"));
        assert!(msgs[12].contains("42 rows"));
    }

    #[test]
    fn io_errors_wrap_with_source() {
        let e = DataError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(e.to_string().contains("gone"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
