//! Every sealed storage format against every storage fault. Model
//! files, training checkpoints, store chunks and store manifests each
//! meet a torn write, a failed rename, a full disk, a silent bit flip,
//! a flip on read and a failed quarantine: 24 cells, all injected
//! through the one `daisy_wire::fault` seam via public APIs.
//!
//! Each cell asserts three things: the typed error (or `Ok` for the
//! silent bit flip), what is on disk afterwards, and the recovery.
//! Append-only files (the ingest journal's records, `rejected.txt`, the
//! sweep journal) are never replaced atomically and stay out.

use daisy::core::scratch_path;
use daisy::data::{ingest_csv, store::chunk::chunk_file_name, ChunkStore, DataError, IngestConfig};
use daisy::prelude::*;
use daisy::serve::{load_model, SharedModel};
use daisy::wire::{sibling, ArmedIo, IoFault};
use std::path::{Path, PathBuf};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    TornWrite,
    RenameFail,
    DiskFull,
    BitFlip,
    FlipOnRead,
    QuarantineFail,
}

const FAULTS: [Fault; 6] = [
    Fault::TornWrite,
    Fault::RenameFail,
    Fault::DiskFull,
    Fault::BitFlip,
    Fault::FlipOnRead,
    Fault::QuarantineFail,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    ModelFile,
    Checkpoint,
    Chunk,
    Manifest,
}

/// Byte offset of every injected tear and flip: inside every file
/// here, so a torn write leaves a non-empty prefix.
const OFFSET: u64 = 29;

/// The writer's and the reader's plans for `fault`, aimed at write
/// `write` and read `read`. A quarantine only runs on a corrupt file,
/// so the failed-quarantine cell rots the file with a flipped write.
fn plans(fault: Fault, write: usize, read: usize) -> (IoFaultPlan, IoFaultPlan) {
    let none = IoFaultPlan::none;
    let on_read = |f| IoFaultPlan::new(vec![f]);
    match fault {
        Fault::TornWrite => (IoFaultPlan::torn_write_at(write, OFFSET), none()),
        Fault::RenameFail => (IoFaultPlan::rename_fail_at(write), none()),
        Fault::DiskFull => (IoFaultPlan::disk_full_at(write), none()),
        Fault::BitFlip => (IoFaultPlan::bit_flip_at(write, OFFSET), none()),
        Fault::FlipOnRead => (
            none(),
            on_read(IoFault::FlipOnRead {
                read,
                offset: OFFSET,
            }),
        ),
        Fault::QuarantineFail => (
            IoFaultPlan::bit_flip_at(write, OFFSET),
            on_read(IoFault::QuarantineFail { quarantine: 0 }),
        ),
    }
}

/// True when `fault` fails the write itself.
fn write_fails(fault: Fault) -> bool {
    matches!(
        fault,
        Fault::TornWrite | Fault::RenameFail | Fault::DiskFull
    )
}

fn read(path: &Path) -> Option<Vec<u8>> {
    std::fs::read(path).ok()
}

/// Asserts what writing `new` over `previous` under `fault` left at
/// `path`: a failed write leaves the final path as it was (a torn
/// prefix, the full bytes or nothing in `<path>.tmp`); a rotted write
/// lands one bit away from `new`.
fn check_written(fault: Fault, path: &Path, previous: Option<&[u8]>, new: &[u8]) {
    let tmp = read(&sibling(path, "tmp"));
    if write_fails(fault) {
        assert_eq!(
            read(path).as_deref(),
            previous,
            "{fault:?}: final path untouched"
        );
    }
    match fault {
        Fault::TornWrite => {
            let tmp = tmp.expect("a torn write leaves a temp file");
            assert!(!tmp.is_empty() && tmp.len() < new.len() && new.starts_with(&tmp));
        }
        Fault::RenameFail => assert_eq!(tmp.as_deref(), Some(new)),
        Fault::DiskFull => assert_eq!(tmp, None, "a refused write lands nothing"),
        Fault::FlipOnRead => assert_eq!(read(path).as_deref(), Some(new)),
        Fault::BitFlip | Fault::QuarantineFail => {
            let rotten = read(path).expect("a rotted write is in place");
            let bits: u32 = rotten
                .iter()
                .zip(new)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(
                (rotten.len(), bits),
                (new.len(), 1),
                "{fault:?}: one bit rots"
            );
        }
    }
}

/// Asserts where a corrupt read left the file that held `held`: moved
/// to `.corrupt-0` with its bytes preserved, or left in place when the
/// quarantine failed.
fn check_quarantined(fault: Fault, path: &Path, held: &[u8]) {
    let corrupt = sibling(path, "corrupt-0");
    if fault == Fault::QuarantineFail {
        assert_eq!(read(path).as_deref(), Some(held), "the file stays in place");
        assert!(!corrupt.exists());
    } else {
        assert!(
            !path.exists(),
            "{fault:?}: the corrupt file leaves the hot path"
        );
        assert_eq!(
            read(&corrupt).as_deref(),
            Some(held),
            "{fault:?}: bytes preserved"
        );
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = scratch_path(tag);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Every file in `dir` except quarantined ones, sorted, with its bytes.
fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| !p.to_string_lossy().contains(".corrupt-"))
        .map(|p| {
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (name, read(&p).expect("store file"))
        })
        .collect();
    out.sort();
    out
}

/// 9 iterations over 3 epochs: checkpoint writes 0, 1 and 2 land at
/// t=3, 6 and 9.
fn quick_config(seed: u64) -> SynthesizerConfig {
    let mut tc = TrainConfig::vtrain(9);
    tc.batch_size = 32;
    tc.epochs = 3;
    let mut cfg = SynthesizerConfig::new(NetworkKind::Mlp, tc);
    cfg.g_hidden = vec![16];
    cfg.d_hidden = vec![16];
    cfg.noise_dim = 8;
    cfg.seed = seed;
    cfg
}

struct Fixture {
    table: Table,
    /// Final model bytes of an uninterrupted checkpointed fit.
    fitted: Vec<u8>,
    /// The checkpoints a clean fit killed at step 7 leaves: t=3, t=6.
    ckpt3: Vec<u8>,
    ckpt6: Vec<u8>,
    /// Two different model files.
    model_a: Vec<u8>,
    model_b: Vec<u8>,
    csv: PathBuf,
    /// The clean store, and its chunk count.
    store: Vec<(String, Vec<u8>)>,
    chunks: usize,
}

fn ingest_config() -> IngestConfig {
    IngestConfig {
        chunk_rows: 64,
        label: Some("label".to_string()),
        ..IngestConfig::default()
    }
}

/// Fits under a scoped in-memory recorder; returns the deterministic
/// trace view and the fit result as persisted model bytes.
fn traced_fit(table: &Table, ckpt: &CheckpointPlan) -> (String, Result<Vec<u8>, TrainError>) {
    let rec = Arc::new(daisy::telemetry::MemoryRecorder::new());
    let mut result = None;
    daisy::telemetry::with_recorder(rec.clone(), || {
        result = Some(
            Synthesizer::try_fit_checkpointed(
                table,
                &quick_config(3),
                &GuardConfig::default(),
                &FaultPlan::none(),
                ckpt,
            )
            .map(|fitted| fitted.to_bytes()),
        );
    });
    let view = daisy::telemetry::trace::deterministic_view(&rec.to_jsonl())
        .expect("recorded trace validates");
    (view, result.expect("the fit ran"))
}

fn fixture(dir: &Path) -> Fixture {
    let table = daisy::datasets::SDataNum {
        correlation: 0.4,
        skew: daisy::datasets::Skew::Balanced,
    }
    .generate(300, 3);
    let (_, fitted) = traced_fit(&table, &CheckpointPlan::at(dir.join("ref.ckpt")));
    let killed = dir.join("killed.ckpt");
    let (_, run) = traced_fit(&table, &CheckpointPlan::at(&killed).kill_at(7));
    assert!(matches!(run, Err(TrainError::Interrupted { step: 7, .. })));
    let model = |seed| Synthesizer::fit(&table, &quick_config(seed)).to_bytes();

    let adult = daisy::datasets::by_name("Adult")
        .expect("Adult")
        .generate(300, 5);
    let csv = dir.join("input.csv");
    let file = std::fs::File::create(&csv).expect("csv");
    daisy::data::csv::write_csv(&adult, std::io::BufWriter::new(file)).expect("csv written");
    let clean = dir.join("clean-store");
    let chunks = ingest_csv(&csv, &clean, &ingest_config())
        .expect("clean ingest")
        .chunks;
    assert!(chunks >= 3, "chunk 1 is a full, middle chunk");
    Fixture {
        fitted: fitted.expect("uninterrupted fit"),
        ckpt3: read(&sibling(&killed, "prev")).expect("t=3 checkpoint"),
        ckpt6: read(&killed).expect("t=6 checkpoint"),
        model_a: model(1),
        model_b: model(2),
        table,
        csv,
        store: dir_bytes(&clean),
        chunks,
    }
}

/// Model files are replaced with `ArmedIo::atomic_write` and read by
/// a serving `SharedModel` (bind = read 0, reload = read 1).
fn model_cell(fx: &Fixture, fault: Fault, dir: &Path) {
    let path = dir.join("model.daisy");
    let (write_plan, read_plan) = plans(fault, 1, 1);
    let writer = ArmedIo::new(&write_plan);
    writer
        .atomic_write(&path, &fx.model_a)
        .expect("write 0 is clean");
    let model = SharedModel::load_with_faults(&path, &read_plan).expect("model A serves");
    let serving = model.facts().fingerprint;

    let written = writer.atomic_write(&path, &fx.model_b);
    assert_eq!(
        written.is_err(),
        write_fails(fault),
        "{fault:?}: {written:?}"
    );
    check_written(fault, &path, Some(&fx.model_a), &fx.model_b);

    let held = read(&path).expect("a model file is in place");
    match model.reload() {
        Ok(_) if write_fails(fault) => {
            let (bytes, _) = load_model(&path).expect("model A is still the file");
            assert_eq!(bytes, fx.model_a);
        }
        Err(ServeError::CorruptModel { quarantined, .. }) if !write_fails(fault) => {
            assert_eq!(quarantined.is_some(), fault != Fault::QuarantineFail);
            check_quarantined(fault, &path, &held);
        }
        other => panic!(
            "{fault:?}: unexpected reload {:?}",
            other.map(|r| r.generation)
        ),
    }
    assert_eq!(
        model.facts().fingerprint,
        serving,
        "{fault:?}: model A keeps serving"
    );
}

/// Checkpoints go through `CheckpointPlan::with_io_faults`: a run
/// killed at step 7 writes t=3 (write 0) and t=6 (write 1, faulted); a
/// resume killed at step 4 reads the primary (read 0); a clean rerun
/// must finish bit-identical to the uninterrupted fit.
fn checkpoint_cell(fx: &Fixture, fault: Fault, dir: &Path) {
    let path = dir.join("run.ckpt");
    let (write_plan, read_plan) = plans(fault, 1, 0);
    let failures = || daisy::telemetry::metrics::counter("checkpoint.save_failures").get();
    let before = failures();
    let plan = CheckpointPlan::at(&path).with_io_faults(write_plan);
    let (view, run) = traced_fit(&fx.table, &plan.kill_at(7));
    assert!(
        matches!(run, Err(TrainError::Interrupted { step: 7, .. })),
        "{fault:?}"
    );
    let failed = u64::from(write_fails(fault));
    assert_eq!(
        failures() - before,
        failed,
        "{fault:?}: a failed save is counted, not fatal"
    );
    let [on_write, on_read] = fired_kinds(fault);
    assert_eq!(fired(&view), on_write, "{fault:?}:\n{view}");
    // The rotation moved t=3 aside before write 1.
    check_written(fault, &path, None, &fx.ckpt6);
    assert_eq!(
        read(&sibling(&path, "prev")),
        Some(fx.ckpt3.clone()),
        "{fault:?}"
    );

    let held = read(&path);
    let plan = CheckpointPlan::at(&path).with_io_faults(read_plan);
    let (view, run) = traced_fit(&fx.table, &plan.kill_at(4));
    assert!(
        matches!(run, Err(TrainError::Interrupted { step: 4, .. })),
        "{fault:?}"
    );
    assert_eq!(fired(&view), on_read, "{fault:?}:\n{view}");
    assert!(
        view.contains("\"event\":\"checkpoint_restore\""),
        "{fault:?}:\n{view}"
    );
    if let Some(held) = held {
        assert!(
            view.contains("corrupt checkpoint"),
            "{fault:?}: typed error\n{view}"
        );
        check_quarantined(fault, &path, &held);
    }

    let (_, run) = traced_fit(&fx.table, &CheckpointPlan::at(&path));
    assert_eq!(
        run.expect("the rerun finishes"),
        fx.fitted,
        "{fault:?}: falls back to .prev"
    );
}

/// The `fault_fired` kinds a checkpoint cell's writing run and reading
/// run each report.
fn fired_kinds(fault: Fault) -> [Vec<&'static str>; 2] {
    match fault {
        Fault::TornWrite => [vec!["io_torn_write"], vec![]],
        Fault::RenameFail => [vec!["io_rename_fail"], vec![]],
        Fault::DiskFull => [vec!["io_disk_full"], vec![]],
        Fault::BitFlip => [vec!["io_bit_flip"], vec![]],
        Fault::FlipOnRead => [vec![], vec!["io_flip_on_read"]],
        Fault::QuarantineFail => [vec!["io_bit_flip"], vec!["io_quarantine_fail"]],
    }
}

/// The `kind` of every `fault_fired` event in a trace view.
fn fired(view: &str) -> Vec<&str> {
    view.lines()
        .filter(|l| l.contains("\"event\":\"fault_fired\""))
        .filter_map(|l| l.split("\"kind\":\"").nth(1)?.split('"').next())
        .collect()
}

/// Chunks and the manifest go through `IngestConfig::io_faults` and
/// `ChunkStore::open_with_faults`. A fresh ingest writes the journal
/// header (write 0), chunk k (write k + 1), then the manifest; a store
/// reads the manifest (read 0), then chunk k (read k + 1).
fn store_cell(fx: &Fixture, format: Format, fault: Fault, dir: &Path) {
    let (name, write, read_at) = match format {
        Format::Chunk => (chunk_file_name(1), 2, 2),
        _ => ("manifest.dmf".to_string(), fx.chunks + 1, 0),
    };
    let (write_plan, read_plan) = plans(fault, write, read_at);
    let cfg = IngestConfig {
        io_faults: write_plan,
        ..ingest_config()
    };
    let ingested = ingest_csv(&fx.csv, dir, &cfg);
    match &ingested {
        Err(DataError::Io(_)) => assert!(write_fails(fault), "{fault:?}"),
        Ok(_) => assert!(!write_fails(fault), "{fault:?}"),
        Err(other) => panic!("{format:?} × {fault:?}: {other}"),
    }
    let path = dir.join(&name);
    let clean = &fx
        .store
        .iter()
        .find(|(n, _)| *n == name)
        .expect("clean file")
        .1;
    check_written(fault, &path, None, clean);

    if !write_fails(fault) {
        let held = read(&path).expect("the file is in place");
        let opened = ChunkStore::open_with_faults(dir, &read_plan).and_then(|s| s.to_table());
        match (format, opened) {
            (Format::Chunk, Err(DataError::CorruptChunk { .. }))
            | (Format::Manifest, Err(DataError::CorruptManifest { .. })) => {}
            (_, other) => panic!("{format:?} × {fault:?}: {:?}", other.map(|t| t.n_rows())),
        }
        check_quarantined(fault, &path, &held);
    }

    let rerun = ingest_csv(&fx.csv, dir, &ingest_config()).expect("the rerun repairs");
    assert_eq!(rerun.chunks, fx.chunks);
    let got = dir_bytes(dir);
    let names: Vec<_> = got.iter().map(|(n, b)| (n, b.len())).collect();
    assert!(
        got == fx.store,
        "{format:?} × {fault:?} diverged: {names:?}"
    );
    ChunkStore::open(dir)
        .and_then(|s| s.to_table())
        .expect("the store reads");
}

#[test]
fn every_sealed_format_meets_every_storage_fault() {
    let base = scratch_dir("storage-faults");
    let fx = fixture(&base);
    for format in [
        Format::ModelFile,
        Format::Checkpoint,
        Format::Chunk,
        Format::Manifest,
    ] {
        for fault in FAULTS {
            let dir = base.join(format!("{format:?}-{fault:?}"));
            std::fs::create_dir_all(&dir).expect("cell dir");
            match format {
                Format::ModelFile => model_cell(&fx, fault, &dir),
                Format::Checkpoint => checkpoint_cell(&fx, fault, &dir),
                Format::Chunk | Format::Manifest => store_cell(&fx, format, fault, &dir),
            }
        }
    }
    std::fs::remove_dir_all(&base).ok();
}
