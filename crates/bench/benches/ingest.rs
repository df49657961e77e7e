//! Microbenchmarks for the out-of-core data plane: streaming CSV
//! ingestion into a sealed chunk store, store-backed chunk reads under
//! the `DAISY_MEM_BUDGET` cache, and chunked minibatch sampling against
//! the fully-resident reference path.
//!
//! Timing is the workspace's hand-rolled median-of-samples loop (no
//! external benchmarking dependency).

use daisy_core::sampler::{BatchSource, TrainingData};
use daisy_data::{
    ingest_csv, ChunkSource, ChunkStore, IngestConfig, RecordCodec, RowErrorPolicy,
    TransformConfig,
};
use daisy_datasets::by_name;
use daisy_tensor::Rng;
use std::hint::black_box;
use std::path::PathBuf;
// daisy-lint: allow(D002) -- benchmarks measure wall time by design
use std::time::Instant;

/// Runs `f` repeatedly and reports the median per-iteration time over
/// `samples` timed samples (after one warm-up call).
fn bench(name: &str, samples: usize, mut f: impl FnMut()) {
    f(); // warm-up
    let mut times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        // daisy-lint: allow(D002) -- benchmark timing loop
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = times[times.len() / 2];
    println!("{name:<44} {median:>10.3} ms/iter  ({samples} samples)");
}

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

    let cfg = IngestConfig {
        chunk_rows: CHUNK_ROWS,
        label: Some("label".to_string()),
        policy: RowErrorPolicy::Strict,
        ..IngestConfig::default()
    };

    // Fresh end-to-end ingestion: schema inference + two streaming
    // passes + durable chunk seals.
    let fresh = dir.join("fresh");
    bench("ingest_csv_fresh", 5, || {
        let _ = std::fs::remove_dir_all(&fresh);
        black_box(ingest_csv(&csv, &fresh, &cfg).expect("ingest"));
    });

    // Journal replay of a completed ingest (idempotence check cost).
    let done = dir.join("done");
    ingest_csv(&csv, &done, &cfg).expect("ingest");
    bench("ingest_csv_already_complete", 10, || {
        black_box(ingest_csv(&csv, &done, &cfg).expect("replay"));
    });

    // The in-memory reference load for scale.
    bench("read_csv_resident", 5, || {
        let file = std::fs::File::open(&csv).expect("open csv");
        black_box(
            daisy_data::csv::read_csv(std::io::BufReader::new(file), Some("label"))
                .expect("read csv"),
        );
    });

    // Chunk reads through the budgeted cache: first pass decodes from
    // disk, second pass is resident.
    let store = ChunkStore::open(&done).expect("open store");
    bench("chunk_scan_cold_and_cached", 10, || {
        for k in 0..store.n_chunks() {
            black_box(ChunkSource::chunk(&store, k).expect("chunk"));
        }
    });

    // Minibatch sampling: resident gather vs chunked gather + encode.
    let config = TransformConfig::gn_ht();
    let codec = RecordCodec::fit_chunks(&store, &config).expect("fit");
    let resident = TrainingData::from_table(&table, &codec);
    let streamed = TrainingData::from_chunks(&store, &codec).expect("streamed");
    bench("sample_random_resident_b256", 30, || {
        let mut rng = Rng::seed_from_u64(3);
        black_box(resident.sample_random(256, true, &mut rng).expect("sample"));
    });
    bench("sample_random_chunked_b256", 30, || {
        let mut rng = Rng::seed_from_u64(3);
        black_box(streamed.sample_random(256, true, &mut rng).expect("sample"));
    });

    let _ = std::fs::remove_dir_all(&dir);
}
