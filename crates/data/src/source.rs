//! Chunk-granular access to a table, uniform over in-memory and
//! on-disk backends.
//!
//! [`ChunkSource`] is the seam that makes out-of-core training
//! bit-identical to in-memory training: the streaming codec fits
//! ([`crate::RecordCodec::fit_chunks`]) and `daisy-core`'s
//! chunk-backed `TrainingData::from_chunks` consume chunks in a fixed
//! visitation order through this trait, so the arithmetic (and
//! therefore every downstream batch and gradient) is the same whether
//! the chunks come from a resident [`Table`] or a sealed
//! [`ChunkStore`] directory.

use crate::error::DataError;
use crate::schema::Schema;
use crate::store::ChunkStore;
use crate::table::Table;
use std::sync::Arc;

/// A table exposed as a sequence of row-range chunks.
///
/// Contract: chunks partition the rows in order — chunk `k` holds rows
/// `[k * chunk_rows, min(n_rows, (k+1) * chunk_rows))` of the logical
/// table — and repeated reads of the same chunk return identical
/// content. Reads may fail (a disk-backed source can hit corruption),
/// so consumers must propagate [`DataError`] rather than assume
/// infallibility.
pub trait ChunkSource {
    /// The table schema.
    fn schema(&self) -> &Schema;
    /// Total logical rows.
    fn n_rows(&self) -> usize;
    /// Number of chunks.
    fn n_chunks(&self) -> usize;
    /// Target rows per chunk (the final chunk may hold fewer).
    fn chunk_rows(&self) -> usize;
    /// Chunk `k` as a table holding only its rows.
    fn chunk(&self, k: usize) -> Result<Arc<Table>, DataError>;
}

/// An in-memory [`Table`] viewed as chunks — the reference backend the
/// store-backed path must match bit-for-bit.
pub struct TableChunks {
    table: Table,
    chunk_rows: usize,
}

impl TableChunks {
    /// Wraps `table`, splitting it into chunks of `chunk_rows` rows.
    pub fn new(table: Table, chunk_rows: usize) -> TableChunks {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        TableChunks { table, chunk_rows }
    }

    /// The wrapped table.
    pub fn table(&self) -> &Table {
        &self.table
    }
}

impl ChunkSource for TableChunks {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn n_rows(&self) -> usize {
        self.table.n_rows()
    }

    fn n_chunks(&self) -> usize {
        self.table.n_rows().div_ceil(self.chunk_rows).max(1)
    }

    fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    fn chunk(&self, k: usize) -> Result<Arc<Table>, DataError> {
        assert!(k < self.n_chunks(), "chunk index out of bounds");
        let lo = k * self.chunk_rows;
        let hi = (lo + self.chunk_rows).min(self.table.n_rows());
        let rows: Vec<usize> = (lo..hi).collect();
        Ok(Arc::new(self.table.select_rows(&rows)))
    }
}

impl ChunkSource for ChunkStore {
    fn schema(&self) -> &Schema {
        ChunkStore::schema(self)
    }

    fn n_rows(&self) -> usize {
        ChunkStore::n_rows(self)
    }

    fn n_chunks(&self) -> usize {
        ChunkStore::n_chunks(self)
    }

    fn chunk_rows(&self) -> usize {
        ChunkStore::chunk_rows(self)
    }

    fn chunk(&self, k: usize) -> Result<Arc<Table>, DataError> {
        ChunkStore::chunk(self, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Column;
    use crate::value::Attribute;

    fn demo() -> Table {
        Table::new(
            Schema::new(vec![
                Attribute::numerical("x"),
                Attribute::categorical("c"),
            ]),
            vec![
                Column::Num((0..7).map(|i| i as f64).collect()),
                Column::cat_with_domain(vec![0, 1, 2, 0, 1, 2, 0], 3),
            ],
        )
    }

    #[test]
    fn chunks_partition_rows_in_order() {
        let src = TableChunks::new(demo(), 3);
        assert_eq!(src.n_chunks(), 3);
        assert_eq!(src.chunk_rows(), 3);
        let sizes: Vec<usize> = (0..src.n_chunks())
            .map(|k| src.chunk(k).unwrap().n_rows())
            .collect();
        assert_eq!(sizes, vec![3, 3, 1]);
        assert_eq!(src.chunk(1).unwrap().column(0).as_num(), &[3.0, 4.0, 5.0]);
        assert_eq!(src.chunk(2).unwrap().column(0).as_num(), &[6.0]);
    }

    #[test]
    fn empty_table_is_one_empty_chunk() {
        let t = Table::new(
            Schema::new(vec![Attribute::numerical("x")]),
            vec![Column::Num(vec![])],
        );
        let src = TableChunks::new(t, 4);
        assert_eq!(src.n_chunks(), 1);
        assert_eq!(src.chunk(0).unwrap().n_rows(), 0);
    }
}
