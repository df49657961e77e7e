//! The data plane's layers, timed in `fit_cell`'s traced run: a fresh
//! strict `ingest_csv` of an Adult-stand-in CSV into an empty store
//! directory, then `ChunkStore::open` and a cold scan of every chunk
//! (journaled chunk sealing with fsynced atomic writes, CRC-checked
//! chunk decoding), plus a resident `read_csv` of the same file as the
//! parse reference.
//!
//! It is not a workload of its own: on a 2-core shared host the time of
//! an ingest pass shifts between two levels 1.5× apart for seconds at a
//! time (on either core, with no steal time), so the medians of
//! separate 20-second runs spread by about 30%, past any bound an
//! end-to-end metric may carry. Per-layer figures carry none.

use crate::{secs, stats, Budget, Report, Run};
use daisy_data::{ingest_csv, ChunkSource, ChunkStore, IngestConfig, RowErrorPolicy};
use std::path::Path;
use std::time::Instant;

/// Rows in the CSV (≈3.5 MB, 7 chunks of the default 4096 rows).
const ROWS: usize = 25_000;

/// Resident `read_csv` calls whose median is reported.
const RESIDENT_READS: usize = 3;

fn config() -> IngestConfig {
    IngestConfig {
        label: Some("label".to_string()),
        policy: RowErrorPolicy::Strict,
        ..IngestConfig::default()
    }
}

/// One ingest-and-scan pass, timed per step.
struct Pass {
    ingest_s: f64,
    open_ms: f64,
    chunk_ms: Vec<f64>,
    total_s: f64,
    bytes: u64,
    quarantined: usize,
}

/// Files in `dir` and their total size, counting quarantined ones
/// (`*.corrupt-N`) separately.
fn dir_stats(dir: &Path) -> (u64, usize) {
    let mut bytes = 0;
    let mut quarantined = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            bytes += entry.metadata().map_or(0, |m| m.len());
            if entry.file_name().to_string_lossy().contains(".corrupt-") {
                quarantined += 1;
            }
        }
    }
    (bytes, quarantined)
}

fn pass(csv: &Path, store_dir: &Path, report: &mut Report) -> Option<Pass> {
    let _ = std::fs::remove_dir_all(store_dir);
    let start = Instant::now();
    let ingested = match ingest_csv(csv, store_dir, &config()) {
        Ok(r) => r,
        Err(e) => {
            report.check(false, || format!("data plane: ingest_csv failed: {e}"));
            return None;
        }
    };
    let ingest_s = secs(start);
    let step = Instant::now();
    let store = match ChunkStore::open(store_dir) {
        Ok(s) => s,
        Err(e) => {
            report.check(false, || format!("data plane: open failed: {e}"));
            return None;
        }
    };
    let open_ms = secs(step) * 1e3;
    let mut chunk_ms = Vec::with_capacity(store.n_chunks());
    let mut scanned = 0;
    for k in 0..store.n_chunks() {
        let step = Instant::now();
        match ChunkSource::chunk(&store, k) {
            Ok(table) => scanned += table.n_rows(),
            Err(e) => report.check(false, || format!("data plane: chunk {k} unreadable: {e}")),
        }
        chunk_ms.push(secs(step) * 1e3);
    }
    let total_s = secs(start);
    let (bytes, quarantined) = dir_stats(store_dir);
    report.check(ingested.rows == ROWS && ingested.rejected == 0, || {
        format!(
            "data plane: sealed {} rows ({} rejected), the CSV has {ROWS}",
            ingested.rows, ingested.rejected
        )
    });
    report.check(scanned == ROWS && store.n_rows() == ROWS, || {
        format!(
            "data plane: cold scan decoded {scanned} rows, store says {}",
            store.n_rows()
        )
    });
    report.check(quarantined == 0, || {
        format!("data plane: {quarantined} files quarantined")
    });
    Some(Pass {
        ingest_s,
        open_ms,
        chunk_ms,
        total_s,
        bytes,
        quarantined,
    })
}

fn median_by(passes: &[Pass], f: fn(&Pass) -> f64) -> f64 {
    stats::median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Writes the CSV, runs ingest-and-scan passes for `seconds`, and
/// reports the `data.*` layers per pass. Every pass must seal and scan
/// exactly the CSV's rows with nothing quarantined.
pub fn measure(run: &Run, seconds: f64, report: &mut Report) -> Result<(), String> {
    let csv = run.work.join("adult.csv");
    let spec = daisy_datasets::by_name("Adult").ok_or("Adult stand-in missing")?;
    let table = spec.generate(ROWS, run.sub_seed(5000));
    let file = std::fs::File::create(&csv).map_err(|e| e.to_string())?;
    daisy_data::csv::write_csv(&table, std::io::BufWriter::new(&file))
        .map_err(|e| e.to_string())?;
    // Flush the CSV to disk here, so its writeback does not land on
    // the measured passes' fsyncs.
    file.sync_all().map_err(|e| e.to_string())?;

    let store_dir = run.work.join("store");
    let mut budget = Budget::new(seconds);
    let mut passes = Vec::new();
    while budget.another() {
        if let Some(p) = pass(&csv, &store_dir, report) {
            passes.push(p);
        }
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    report.check(!passes.is_empty(), || "data plane: no pass completed".into());
    if passes.is_empty() {
        return Ok(());
    }

    let mut reads = Vec::new();
    for _ in 0..RESIDENT_READS {
        let start = Instant::now();
        let file = std::fs::File::open(&csv).map_err(|e| e.to_string())?;
        let resident = daisy_data::csv::read_csv(std::io::BufReader::new(file), Some("label"))
            .map_err(|e| e.to_string())?;
        reads.push(secs(start));
        report.check(resident.n_rows() == ROWS, || {
            format!("data plane: read_csv saw {} rows", resident.n_rows())
        });
    }

    let n = passes.len() as f64;
    let all_chunks: Vec<f64> = passes.iter().flat_map(|p| p.chunk_ms.clone()).collect();
    let ingest_s = median_by(&passes, |p| p.ingest_s);
    let read_s = median_by(&passes, |p| p.total_s - p.ingest_s);
    report.layer("data.csv.read_s", stats::median(&reads).unwrap_or(0.0));
    report.layer("data.ingest.ingest_s", ingest_s);
    report.layer("data.store.open_ms", median_by(&passes, |p| p.open_ms));
    report.layer("data.store.chunk_read_ms", stats::mean(&all_chunks));
    report.layer("data.store.chunks", all_chunks.len() as f64 / n);
    report.layer("data.store.bytes", median_by(&passes, |p| p.bytes as f64));
    report.layer(
        "data.store.quarantined",
        passes.iter().map(|p| p.quarantined).max().unwrap_or(0) as f64,
    );
    report.layer("bench.ingest_rows_per_s", ROWS as f64 / ingest_s);
    report.layer("bench.read_rows_per_s", ROWS as f64 / read_s);
    report.note("data_plane_passes", n, "count");
    report.note("ingest_rows_per_s", ROWS as f64 / ingest_s, "1/s");
    report.note("read_rows_per_s", ROWS as f64 / read_s, "1/s");
    Ok(())
}
