//! The crash/resume contract, end to end: a training run killed at
//! step k (the deterministic stand-in for SIGKILL) and rerun against
//! the same checkpoint path must reach the *same final model, byte for
//! byte*, and the same deterministic telemetry view, as a run that was
//! never interrupted — at 1 thread and at N threads.
//!
//! A run that tripped the guard resumes the same way: the checkpoint
//! carries its escalated loss and `d_steps`, decayed learning rate,
//! rollback count, fault arming and recovery trace.
//!
//! Also covered here: injected I/O faults on the checkpoint write path
//! (torn write, bit flip) must never fail training or corrupt the
//! resume — a torn save is dropped in favour of the previous
//! checkpoint, a bit-flipped file is detected at load, quarantined, and
//! skipped.

use daisy::core::{scratch_path, Fault, RecoveryAction};
use daisy::prelude::*;
use daisy::tensor::pool;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// 9 iterations over 3 epochs: epoch boundaries after steps 2, 5, 8,
/// so a checkpoint lands at t=3 and t=6 and the final state at t=9.
fn quick_config() -> SynthesizerConfig {
    let mut tc = TrainConfig::vtrain(9);
    tc.batch_size = 32;
    tc.epochs = 3;
    let mut cfg = SynthesizerConfig::new(NetworkKind::Mlp, tc);
    cfg.g_hidden = vec![24];
    cfg.d_hidden = vec![24];
    cfg.noise_dim = 8;
    cfg
}

fn fixture() -> Table {
    daisy::datasets::SDataNum {
        correlation: 0.4,
        skew: daisy::datasets::Skew::Balanced,
    }
    .generate(300, 3)
}

/// Fits under a scoped in-memory recorder; returns the deterministic
/// trace view and the fit result as persisted model bytes, one file per
/// epoch snapshot. The last one is the fitted model itself.
fn traced_fit(
    table: &Table,
    ckpt: &CheckpointPlan,
    threads: usize,
) -> (String, Result<Vec<Vec<u8>>, TrainError>) {
    let (view, fitted) = traced_fit_with(
        table,
        &GuardConfig::default(),
        &FaultPlan::none(),
        ckpt,
        threads,
    );
    (view, fitted.map(|mut fitted| snapshot_bytes(&mut fitted)))
}

/// The model file of every epoch snapshot: `load_snapshot(e)`, then
/// `to_bytes()`. A snapshot holds the generator's BatchNorm statistics
/// as well as its weights, so a resumed run must carry both for every
/// epoch through the checkpoint.
fn snapshot_bytes(fitted: &mut FittedSynthesizer) -> Vec<Vec<u8>> {
    assert!(
        quick_config().g_batchnorm,
        "the fixture's generator has BatchNorm"
    );
    (0..fitted.n_snapshots())
        .map(|e| {
            fitted.load_snapshot(e);
            fitted.to_bytes()
        })
        .collect()
}

/// Asserts that a resumed fit has the uninterrupted fit's model bytes at
/// every one of the fixture's three epoch snapshots.
fn assert_same_snapshots(resumed: &[Vec<u8>], full: &[Vec<u8>]) {
    let counts = (resumed.len(), full.len());
    assert_eq!(counts, (3, 3), "one snapshot per epoch");
    for (e, (resumed, full)) in resumed.iter().zip(full).enumerate() {
        assert!(
            resumed == full,
            "epoch {e} snapshot of the resumed model differs from the uninterrupted one"
        );
    }
}

/// [`traced_fit`] under a given guard and fault plan, returning the
/// fitted model itself.
fn traced_fit_with(
    table: &Table,
    guard: &GuardConfig,
    faults: &FaultPlan,
    ckpt: &CheckpointPlan,
    threads: usize,
) -> (String, Result<FittedSynthesizer, TrainError>) {
    pool::set_threads(threads);
    let rec = Arc::new(daisy::telemetry::MemoryRecorder::new());
    let mut result = None;
    daisy::telemetry::with_recorder(rec.clone(), || {
        result = Some(Synthesizer::try_fit_checkpointed(
            table,
            &quick_config(),
            guard,
            faults,
            ckpt,
        ));
    });
    pool::set_threads(1);
    let view = daisy::telemetry::trace::deterministic_view(&rec.to_jsonl())
        .expect("recorded trace validates");
    (view, result.unwrap())
}

/// Drops the `"seq":N,` field so traces can be compared across runs
/// whose event streams start at different sequence numbers.
fn strip_seq(line: &str) -> String {
    let Some(start) = line.find("\"seq\":") else {
        return line.to_string();
    };
    let rest = &line[start + "\"seq\":".len()..];
    let end = rest.find(',').map(|i| i + 1).unwrap_or(rest.len());
    format!("{}{}", &line[..start], &rest[end..])
}

fn cleanup(path: &Path) {
    for ext in ["", ".prev", ".tmp", ".corrupt-0", ".corrupt-1"] {
        let mut p = path.as_os_str().to_os_string();
        p.push(ext);
        let _ = std::fs::remove_file(PathBuf::from(p));
    }
}

/// Kill exactly at an epoch boundary (t=3, right after the epoch-0
/// checkpoint): the killed trace must be a byte prefix of the
/// uninterrupted one, and the resumed trace must be the restore
/// preamble plus — modulo sequence numbers — exactly the uninterrupted
/// trace's remainder. The model bytes of every epoch snapshot must
/// match too.
fn boundary_kill_roundtrip(threads: usize) {
    let table = fixture();
    let ref_path = scratch_path("resume-ref");
    let kill_path = scratch_path("resume-kill");

    let (full_view, full_bytes) = traced_fit(&table, &CheckpointPlan::at(&ref_path), threads);
    let full_bytes = full_bytes.expect("uninterrupted fit succeeds");

    let (killed_view, killed) =
        traced_fit(&table, &CheckpointPlan::at(&kill_path).kill_at(3), threads);
    match killed {
        Err(TrainError::Interrupted { step, epoch }) => {
            assert_eq!((step, epoch), (3, 1));
        }
        other => panic!("expected an interrupted run, got {other:?}"),
    }
    assert!(
        full_view.starts_with(&killed_view),
        "killed trace is not a byte prefix of the uninterrupted trace\n\
         killed:\n{killed_view}\nfull:\n{full_view}"
    );

    let (resumed_view, resumed_bytes) = traced_fit(&table, &CheckpointPlan::at(&kill_path), threads);
    assert_same_snapshots(&resumed_bytes.expect("resumed fit succeeds"), &full_bytes);

    let full_lines: Vec<&str> = full_view.lines().collect();
    let resumed_lines: Vec<&str> = resumed_view.lines().collect();
    let killed_len = killed_view.lines().count();
    assert_eq!(resumed_lines[0], full_lines[0], "fit_start differs");
    assert_eq!(resumed_lines[1], full_lines[1], "train_start differs");
    assert!(
        resumed_lines[2].contains("\"event\":\"checkpoint_restore\""),
        "expected a restore event, got {}",
        resumed_lines[2]
    );
    let resumed_tail: Vec<String> = resumed_lines[3..].iter().map(|l| strip_seq(l)).collect();
    let full_tail: Vec<String> = full_lines[killed_len..].iter().map(|l| strip_seq(l)).collect();
    assert_eq!(
        resumed_tail, full_tail,
        "resumed trace tail differs from the uninterrupted remainder"
    );

    cleanup(&ref_path);
    cleanup(&kill_path);
}

#[test]
fn boundary_kill_resume_is_bit_exact_at_1_thread() {
    boundary_kill_roundtrip(1);
}

#[test]
fn boundary_kill_resume_is_bit_exact_at_n_threads() {
    boundary_kill_roundtrip(6);
}

/// Kill mid-epoch (t=4): resume restores the epoch-0 boundary and
/// replays the partial epoch, still landing on identical bytes for
/// every epoch snapshot.
#[test]
fn mid_epoch_kill_resume_is_bit_exact() {
    let table = fixture();
    let ref_path = scratch_path("resume-mid-ref");
    let kill_path = scratch_path("resume-mid-kill");
    let (_, full_bytes) = traced_fit(&table, &CheckpointPlan::at(&ref_path), 1);
    let (_, killed) = traced_fit(&table, &CheckpointPlan::at(&kill_path).kill_at(4), 1);
    assert!(matches!(killed, Err(TrainError::Interrupted { step: 4, epoch: 1 })));
    let (resumed_view, resumed_bytes) = traced_fit(&table, &CheckpointPlan::at(&kill_path), 1);
    assert!(resumed_view.contains("\"event\":\"checkpoint_restore\""));
    assert_same_snapshots(&resumed_bytes.unwrap(), &full_bytes.unwrap());
    cleanup(&ref_path);
    cleanup(&kill_path);
}

/// Faults at steps 1 and 4 trip the guard twice: a rollback to
/// initialization, then (with one plain retry allowed) a switch to
/// WTrain back to the t=3 boundary. The run is killed mid-epoch at t=7,
/// after the t=6 checkpoint. The resumed run must match the
/// uninterrupted one in model bytes, outcome, trace and final
/// checkpoint.
fn tripped_kill_roundtrip(threads: usize) {
    let table = fixture();
    let ref_path = scratch_path("resume-tripped-ref");
    let kill_path = scratch_path("resume-tripped-kill");
    let guard = GuardConfig {
        rollback_retries: 1,
        ..GuardConfig::default()
    };
    let faults = FaultPlan::new(vec![Fault::NanGrad { step: 1 }, Fault::NanGrad { step: 4 }]);
    let fit = |ckpt: &CheckpointPlan| traced_fit_with(&table, &guard, &faults, ckpt, threads);

    let (full_view, full) = fit(&CheckpointPlan::at(&ref_path));
    let mut full = full.expect("uninterrupted fit succeeds");
    let actions: Vec<RecoveryAction> = full.outcome().recoveries.iter().map(|e| e.action).collect();
    assert!(
        matches!(
            actions[..],
            [RecoveryAction::Rollback { .. }, RecoveryAction::SwitchToWTrain { .. }]
        ),
        "expected a rollback, then a WTrain switch: {actions:?}"
    );

    let (killed_view, killed) = fit(&CheckpointPlan::at(&kill_path).kill_at(7));
    assert!(matches!(killed, Err(TrainError::Interrupted { step: 7, epoch: 2 })));
    assert!(full_view.starts_with(&killed_view));

    let (resumed_view, resumed) = fit(&CheckpointPlan::at(&kill_path));
    let mut resumed = resumed.expect("resumed fit succeeds");
    assert_eq!(resumed.to_bytes(), full.to_bytes(), "model bytes differ");
    // The restored checkpoint held two epoch snapshots, each with its
    // own BatchNorm statistics.
    assert_same_snapshots(&snapshot_bytes(&mut resumed), &snapshot_bytes(&mut full));
    // The last checkpoint holds the whole state, including the fault
    // arming and rollback count that nothing after the kill reads.
    let last_checkpoint = |path: &Path| std::fs::read(path).expect("a final checkpoint");
    assert_eq!(
        last_checkpoint(&kill_path),
        last_checkpoint(&ref_path),
        "final checkpoint differs"
    );
    // NaN-carrying trip reasons compare unequal under PartialEq; the
    // debug rendering is the bit-reproducibility witness.
    assert_eq!(
        format!("{:?}", resumed.outcome()),
        format!("{:?}", full.outcome()),
        "outcome differs"
    );

    // The resumed trace is the restore preamble plus the uninterrupted
    // trace after the write of the checkpoint it restored.
    let full_lines: Vec<&str> = full_view.lines().collect();
    let resumed_lines: Vec<&str> = resumed_view.lines().collect();
    let killed_lines: Vec<&str> = killed_view.lines().collect();
    let restored_from = killed_lines
        .iter()
        .rposition(|l| l.contains("\"event\":\"checkpoint_write\""))
        .expect("the killed run wrote a checkpoint")
        + 1;
    assert_eq!(resumed_lines[..2], full_lines[..2], "preamble differs");
    assert!(resumed_lines[2].contains("\"event\":\"checkpoint_restore\""));
    let resumed_tail: Vec<String> = resumed_lines[3..].iter().map(|l| strip_seq(l)).collect();
    let full_tail: Vec<String> = full_lines[restored_from..].iter().map(|l| strip_seq(l)).collect();
    assert_eq!(resumed_tail, full_tail, "resumed trace tail differs");

    cleanup(&ref_path);
    cleanup(&kill_path);
}

#[test]
fn tripped_run_kill_resume_is_bit_exact_at_1_thread() {
    tripped_kill_roundtrip(1);
}

#[test]
fn tripped_run_kill_resume_is_bit_exact_at_n_threads() {
    tripped_kill_roundtrip(6);
}

/// A torn checkpoint write mid-run fails that save with a typed error,
/// fires exactly one telemetry fault event, and leaves training (and
/// its final model) completely untouched.
#[test]
fn torn_checkpoint_write_never_perturbs_training() {
    let table = fixture();
    let clean_path = scratch_path("torn-clean");
    let torn_path = scratch_path("torn-fault");
    let (_, clean_bytes) = traced_fit(&table, &CheckpointPlan::at(&clean_path), 1);
    let plan = CheckpointPlan::at(&torn_path).with_io_faults(IoFaultPlan::torn_write_at(1, 64));
    let (view, torn_bytes) = traced_fit(&table, &plan, 1);
    assert_eq!(
        torn_bytes.expect("fit survives the torn write"),
        clean_bytes.unwrap(),
        "a failed checkpoint save changed the trained model"
    );
    assert_eq!(
        view.matches("\"kind\":\"io_torn_write\"").count(),
        1,
        "expected exactly one fault_fired for the torn write:\n{view}"
    );
    // The torn save was dropped: the surviving checkpoint still loads
    // (it is the epoch-0 one, not the torn epoch-1 one).
    let (resumed_view, _) = traced_fit(&table, &CheckpointPlan::at(&torn_path), 1);
    assert!(resumed_view.contains("\"event\":\"checkpoint_restore\""));
    cleanup(&clean_path);
    cleanup(&torn_path);
}

/// A bit flip corrupting the latest checkpoint on disk is detected at
/// resume: the file is quarantined with a `checkpoint_corrupt_skipped`
/// event and the run falls back to the previous checkpoint — still
/// finishing bit-identical to the uninterrupted run.
#[test]
fn bit_flipped_checkpoint_is_quarantined_and_resume_falls_back() {
    let table = fixture();
    let ref_path = scratch_path("flip-ref");
    let flip_path = scratch_path("flip-fault");
    let (_, full_bytes) = traced_fit(&table, &CheckpointPlan::at(&ref_path), 1);
    // Flip a byte of the second save (epoch 1), then die at t=7: the
    // primary on disk is silently corrupt, `.prev` holds epoch 0.
    let plan = CheckpointPlan::at(&flip_path)
        .with_io_faults(IoFaultPlan::bit_flip_at(1, 2048))
        .kill_at(7);
    let (view, killed) = traced_fit(&table, &plan, 1);
    assert!(matches!(killed, Err(TrainError::Interrupted { step: 7, .. })));
    assert_eq!(view.matches("\"kind\":\"io_bit_flip\"").count(), 1);

    let (resumed_view, resumed_bytes) = traced_fit(&table, &CheckpointPlan::at(&flip_path), 1);
    assert!(
        resumed_view.contains("\"event\":\"checkpoint_corrupt_skipped\""),
        "corrupt primary was not reported:\n{resumed_view}"
    );
    assert!(resumed_view.contains("\"event\":\"checkpoint_restore\""));
    assert_eq!(
        resumed_bytes.expect("resume survives the corrupt primary"),
        full_bytes.unwrap(),
        "fallback resume diverged from the uninterrupted run"
    );
    // The corrupt file was moved aside, not deleted.
    let mut quarantined = flip_path.as_os_str().to_os_string();
    quarantined.push(".corrupt-0");
    assert!(PathBuf::from(quarantined).exists());
    cleanup(&ref_path);
    cleanup(&flip_path);
}
