//! Microbenchmarks for the out-of-core data plane: streaming CSV
//! ingestion into a sealed chunk store, store-backed chunk reads under
//! the `DAISY_MEM_BUDGET` cache, and chunked minibatch sampling against
//! the fully-resident reference path.
//!
//! Timing and the report go through [`daisy_bench::micro`], as in the
//! kernel bench. Set `DAISY_BENCH_JSON=<path>` to also write the
//! measurements as JSON (the committed `BENCH_ingest.json` at the repo
//! root is produced this way); see `docs/PERFORMANCE.md`.

use daisy_bench::micro::Report;
use daisy_core::sampler::{BatchSource, TrainingData};
use daisy_data::{
    ingest_csv, ChunkSource, ChunkStore, IngestConfig, RecordCodec, RowErrorPolicy, TransformConfig,
};
use daisy_datasets::by_name;
use daisy_telemetry::json::Json;
use daisy_tensor::Rng;
use std::hint::black_box;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("daisy-bench-ingest")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn main() {
    const ROWS: usize = 20_000;
    const CHUNK_ROWS: usize = 2048;
    let dir = scratch("main");
    let csv = dir.join("adult.csv");
    let spec = by_name("Adult").expect("dataset");
    let table = spec.generate(ROWS, 11);
    {
        let file = std::fs::File::create(&csv).expect("create csv");
        daisy_data::csv::write_csv(&table, std::io::BufWriter::new(file)).expect("write csv");
    }
    println!("== ingest / out-of-core benchmarks ({ROWS} rows, {CHUNK_ROWS} rows/chunk) ==");
    let mut r = Report::new("ingest", "ms per iteration");
    r.header("rows", Json::Num(ROWS as f64));
    r.header("chunk_rows", Json::Num(CHUNK_ROWS as f64));

    let cfg = IngestConfig {
        chunk_rows: CHUNK_ROWS,
        label: Some("label".to_string()),
        policy: RowErrorPolicy::Strict,
        ..IngestConfig::default()
    };

    // Fresh end-to-end ingestion: schema inference + two streaming
    // passes + durable chunk seals.
    let fresh = dir.join("fresh");
    r.time("ingest_csv_fresh", 5, || {
        let _ = std::fs::remove_dir_all(&fresh);
        black_box(ingest_csv(&csv, &fresh, &cfg).expect("ingest"));
    });

    // Journal replay of a completed ingest (idempotence check cost).
    let done = dir.join("done");
    ingest_csv(&csv, &done, &cfg).expect("ingest");
    r.time("ingest_csv_already_complete", 10, || {
        black_box(ingest_csv(&csv, &done, &cfg).expect("replay"));
    });

    // The in-memory reference load for scale.
    r.time("read_csv_resident", 5, || {
        let file = std::fs::File::open(&csv).expect("open csv");
        black_box(
            daisy_data::csv::read_csv(std::io::BufReader::new(file), Some("label"))
                .expect("read csv"),
        );
    });

    // Chunk reads through the budgeted cache: each call opens the
    // store, so its first pass decodes from disk and its second pass is
    // resident.
    r.time("chunk_scan_cold_and_cached", 10, || {
        let store = ChunkStore::open(&done).expect("open store");
        for _pass in 0..2 {
            for k in 0..store.n_chunks() {
                black_box(ChunkSource::chunk(&store, k).expect("chunk"));
            }
        }
    });

    // Minibatch sampling: resident gather vs chunked gather + encode.
    let store = ChunkStore::open(&done).expect("open store");
    let config = TransformConfig::gn_ht();
    let codec = RecordCodec::fit_chunks(&store, &config).expect("fit");
    let resident = TrainingData::from_table(&table, &codec);
    let streamed = TrainingData::from_chunks(&store, &codec).expect("streamed");
    r.time("sample_random_resident_b256", 30, || {
        let mut rng = Rng::seed_from_u64(3);
        black_box(resident.sample_random(256, true, &mut rng).expect("sample"));
    });
    r.time("sample_random_chunked_b256", 30, || {
        let mut rng = Rng::seed_from_u64(3);
        black_box(streamed.sample_random(256, true, &mut rng).expect("sample"));
    });

    let _ = std::fs::remove_dir_all(&dir);
    r.finish();
}
