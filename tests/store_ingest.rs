//! End-to-end contract of the out-of-core data plane, through the
//! public crate API only: a dataset is written to CSV, streamed into a
//! sealed chunk store, killed mid-flight, resumed, rotted on disk, and
//! finally used to train — with every failure surfacing as a typed
//! error and every recovery converging to the byte-identical store a
//! clean run would have produced.

use daisy::data::{
    ingest_csv, ChunkStore, DataError, IngestConfig, RecordCodec, RowErrorPolicy, TransformConfig,
};
use std::io::Write as _;
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("daisy-itest-store")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_dataset_csv(dir: &Path, rows: usize, seed: u64) -> PathBuf {
    let table = daisy::datasets::by_name("Adult").unwrap().generate(rows, seed);
    let path = dir.join("input.csv");
    let file = std::fs::File::create(&path).unwrap();
    daisy::data::csv::write_csv(&table, std::io::BufWriter::new(file)).unwrap();
    path
}

fn cfg(chunk_rows: usize) -> IngestConfig {
    IngestConfig {
        chunk_rows,
        label: Some("label".to_string()),
        ..IngestConfig::default()
    }
}

/// Every file in `dir`, sorted by name, with its exact bytes.
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
fn killed_ingest_resumes_to_the_clean_run_byte_for_byte() {
    let base = scratch("kill-resume");
    let input = write_dataset_csv(&base, 700, 41);
    let clean = base.join("clean");
    let report = ingest_csv(&input, &clean, &cfg(128)).unwrap();
    assert_eq!(report.rows, 700);
    assert_eq!(report.chunks, 6);
    let want = dir_bytes(&clean);

    // Kill before the first seal, mid-chunk, exactly on a seal
    // boundary, and deep into the file: resume must converge from all
    // of them.
    for kill_row in [0, 63, 128, 511, 698] {
        let dir = base.join(format!("killed-{kill_row}"));
        let mut killed = cfg(128);
        killed.kill_at_row = Some(kill_row);
        let err = ingest_csv(&input, &dir, &killed).unwrap_err();
        assert!(
            matches!(err, DataError::Interrupted { .. }),
            "kill at {kill_row}: {err}"
        );
        let resumed = ingest_csv(&input, &dir, &cfg(128)).unwrap();
        assert_eq!(resumed.rows, 700, "kill at {kill_row}");
        assert_eq!(
            dir_bytes(&dir),
            want,
            "resume after kill at row {kill_row} must be byte-identical"
        );
    }

    // And the converged store round-trips the original rows exactly.
    let store = ChunkStore::open(&clean).unwrap();
    let file = std::fs::File::open(&input).unwrap();
    let reference =
        daisy::data::csv::read_csv(std::io::BufReader::new(file), Some("label")).unwrap();
    assert_eq!(store.to_table().unwrap(), reference);
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn on_disk_bit_rot_is_quarantined_not_fatal() {
    let base = scratch("bit-rot");
    let input = write_dataset_csv(&base, 300, 7);
    let store_dir = base.join("store");
    ingest_csv(&input, &store_dir, &cfg(64)).unwrap();

    // Flip one payload byte of a sealed chunk on disk.
    let victim = store_dir.join("chunk-000002.dch");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();

    let store = ChunkStore::open(&store_dir).unwrap();
    let err = store.chunk(2).unwrap_err();
    assert!(
        matches!(err, DataError::CorruptChunk { .. }),
        "checksum mismatch must be typed: {err}"
    );
    // The rotten file is moved aside with its bytes preserved for
    // forensics, and the rest of the store stays readable.
    assert!(!victim.exists(), "corrupt chunk must leave the hot path");
    let quarantined = store_dir.join("chunk-000002.dch.corrupt-0");
    assert_eq!(std::fs::read(&quarantined).unwrap(), bytes);
    for k in [0usize, 1, 3, 4] {
        assert!(store.chunk(k).is_ok(), "chunk {k} must survive");
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn skip_policy_quarantines_bad_rows_with_line_numbers() {
    let base = scratch("skip-policy");
    let input = base.join("dirty.csv");
    let mut file = std::fs::File::create(&input).unwrap();
    // Line 3 has a non-finite weight, line 5 is ragged (the header is
    // line 1).
    write!(
        file,
        "age,weight,label\n\
         30,71.5,a\n\
         41,NaN,b\n\
         35,80.1,a\n\
         50,62.0\n\
         28,59.9,b\n\
         44,70.2,a\n"
    )
    .unwrap();
    drop(file);

    // Strict policy: the first bad row is fatal, typed, and names its
    // input line. Structural errors surface already in the schema
    // pass, so the ragged line 5 aborts before the chunk pass would
    // reach line 3's NaN.
    let strict_dir = base.join("strict");
    let err = ingest_csv(&input, &strict_dir, &cfg(4)).unwrap_err();
    assert!(
        matches!(err, DataError::RaggedRow { line: 5, .. }),
        "strict error is typed with its line: {err}"
    );

    // Skip policy: bad rows land in rejected.txt with line numbers and
    // their raw text, good rows are sealed.
    let skip_dir = base.join("skip");
    let mut skip_cfg = cfg(4);
    skip_cfg.policy = RowErrorPolicy::SkipWithBudget { budget: 5 };
    let report = ingest_csv(&input, &skip_dir, &skip_cfg).unwrap();
    assert_eq!(report.rows, 4);
    assert_eq!(report.rejected, 2);
    let rejected = std::fs::read_to_string(skip_dir.join("rejected.txt")).unwrap();
    let lines: Vec<&str> = rejected.lines().collect();
    assert_eq!(lines.len(), 2, "one quarantine line per rejected row:\n{rejected}");
    assert!(lines[0].starts_with("line 3:"), "line number recorded: {}", lines[0]);
    assert!(lines[0].ends_with("41,NaN,b"), "raw row preserved: {}", lines[0]);
    assert!(lines[1].starts_with("line 5:"), "line number recorded: {}", lines[1]);
    assert!(lines[1].ends_with("50,62.0"), "raw row preserved: {}", lines[1]);

    // A budget of 1 is exhausted by the second bad row.
    let tight_dir = base.join("tight");
    let mut tight_cfg = cfg(4);
    tight_cfg.policy = RowErrorPolicy::SkipWithBudget { budget: 1 };
    let err = ingest_csv(&input, &tight_dir, &tight_cfg).unwrap_err();
    assert!(
        matches!(err, DataError::RowBudgetExhausted { .. }),
        "budget exhaustion is typed: {err}"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn store_backed_codec_matches_chunked_fit_over_same_rows() {
    let base = scratch("codec-parity");
    let input = write_dataset_csv(&base, 256, 9);
    let store_dir = base.join("store");
    ingest_csv(&input, &store_dir, &cfg(50)).unwrap();
    let store = ChunkStore::open(&store_dir).unwrap();

    // Fitting over the on-disk store and over an in-memory chunk view
    // of the same rows must agree exactly: the codec only sees the
    // ChunkSource trait, never the storage.
    let config = TransformConfig::sn_ht();
    let from_store = RecordCodec::fit_chunks(&store, &config).unwrap();
    let table = store.to_table().unwrap();
    let chunks = daisy::data::TableChunks::new(table.clone(), 50);
    let from_memory = RecordCodec::fit_chunks(&chunks, &config).unwrap();
    assert_eq!(from_store.width(), from_memory.width());
    let enc_store = from_store.encode_table(&table);
    let enc_memory = from_memory.encode_table(&table);
    assert_eq!(enc_store, enc_memory);
    std::fs::remove_dir_all(&base).ok();
}

/// Overwrites little-endian `u64` fields of a manifest, each named by
/// its byte offset from the end of the file, and re-seals the section
/// CRC: a CRC-valid manifest that lies. The layout is the magic (8
/// bytes), the section's length and CRC (8 + 8), then the body, whose
/// last fields are `chunk_rows`, the chunk count, and `[rows][crc]` per
/// chunk.
fn reseal(path: &Path, edits: &[(usize, u64)]) {
    let mut bytes = std::fs::read(path).unwrap();
    let len = bytes.len();
    for &(from_end, value) in edits {
        bytes[len - from_end..len - from_end + 8].copy_from_slice(&value.to_le_bytes());
    }
    let crc = daisy::wire::crc64(&bytes[24..]);
    bytes[16..24].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(path, bytes).unwrap();
}

fn copy_store(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// A manifest's row counts are trusted nowhere: with any one of them
/// re-sealed to a lie, opening the store, materializing it and sampling
/// through `TrainingData::from_chunks` each end in a typed error or in the
/// correct rows — never a panic, never an allocation sized by the lie.
#[test]
fn resealed_manifest_row_counts_end_in_typed_errors_or_correct_rows() {
    use daisy::core::{BatchSource, TrainingData};
    use daisy::tensor::Rng;

    let base = scratch("reseal");
    let input = write_dataset_csv(&base, 40, 3);
    // Chunks of 16/16/8 rows, and a single chunk of 40.
    for chunk_rows in [16usize, 64] {
        let clean = base.join(format!("clean-{chunk_rows}"));
        ingest_csv(&input, &clean, &cfg(chunk_rows)).unwrap();
        let store = ChunkStore::open(&clean).unwrap();
        let table = store.to_table().unwrap();
        let codec = RecordCodec::fit_chunks(&store, &TransformConfig::sn_ht()).unwrap();
        let sample = |dir: &Path| -> Result<Vec<f32>, DataError> {
            let store = ChunkStore::open(dir)?;
            let data = TrainingData::from_chunks(&store, &codec)?;
            let batch = data.sample_random(32, true, &mut Rng::seed_from_u64(7))?;
            Ok(batch.samples.data().to_vec())
        };
        let want = sample(&clean).unwrap();

        let n = store.n_chunks();
        let cr = chunk_rows as u64;
        let mut fields = vec![(16 * n + 16, cr)];
        fields.extend((0..n).map(|k| (16 * (n - k), store.chunk_meta(k).rows as u64)));
        let manifest = std::fs::read(clean.join("manifest.dmf")).unwrap();
        let mut edits = Vec::new();
        for &(from_end, value) in &fields {
            let at = manifest.len() - from_end;
            let stored = u64::from_le_bytes(manifest[at..at + 8].try_into().unwrap());
            assert_eq!(stored, value, "the field {from_end} bytes from the end");
            for lie in [0, cr - 1, cr + 1, 1 << 40, u64::MAX] {
                edits.push(vec![(from_end, lie)]);
            }
        }
        if n == 1 {
            // A one-chunk store claiming 2^40 rows of 2^40 per chunk
            // partitions cleanly; only its chunk can expose the lie.
            edits.push(vec![(32, 1 << 40), (16, 1 << 40)]);
        }

        for edit in edits {
            let dir = base.join("case");
            copy_store(&clean, &dir);
            reseal(&dir.join("manifest.dmf"), &edit);
            match ChunkStore::open(&dir).and_then(|s| s.to_table()) {
                Ok(got) => assert_eq!(got, table, "{edit:?}"),
                Err(e) => assert!(
                    matches!(
                        e,
                        DataError::CorruptManifest { .. } | DataError::CorruptChunk { .. }
                    ),
                    "{edit:?}: {e}"
                ),
            }
            copy_store(&clean, &dir);
            reseal(&dir.join("manifest.dmf"), &edit);
            match sample(&dir) {
                Ok(got) => assert_eq!(got, want, "{edit:?}"),
                Err(e) => assert!(
                    matches!(
                        e,
                        DataError::CorruptManifest { .. } | DataError::CorruptChunk { .. }
                    ),
                    "{edit:?}: {e}"
                ),
            }
        }
    }
    std::fs::remove_dir_all(&base).ok();
}
