//! Durable training checkpoints and crash-safe resume.
//!
//! A design-space sweep (the paper runs hundreds of
//! configuration-cells, §7) can be killed at any moment — an OOM kill,
//! a preempted spot instance, a plain Ctrl-C. This module makes that
//! survivable without giving up the repo's determinism contract: a
//! checkpoint holds the configuration fingerprint, the trainer's
//! `TrainState` at a clean epoch boundary — model weights and module
//! state, optimizer moments, the main RNG stream and every dropout
//! stream, the guard's loss envelope, the fault-plan arming state and
//! the recovery state — and the run's loss history and epoch-snapshot
//! ring, so a resumed run replays the remaining steps bit-identically
//! to a run that was never interrupted. The same `TrainState` is what a
//! guard rollback rewinds to, so resume and rollback cannot disagree on
//! what the boundary was.
//!
//! Durability comes from a last-good rotation in front of the classic
//! write-to-temp → fsync → atomic rename discipline
//! (`daisy_wire::atomic_write`): the current checkpoint is renamed to
//! `.prev` before the new one is written, so at every instant the disk
//! holds at least one complete, verifiable checkpoint. Every section of
//! the file is CRC-64 framed; a torn or bit-rotted file is detected at
//! load, reported as a typed [`CheckpointError`], quarantined as
//! `.corrupt-N`, and skipped in favour of its predecessor — never a
//! panic, never a silently-wrong resume.
//!
//! Every write, read and quarantine goes through one
//! [`daisy_wire::ArmedIo`] handle, so the storage faults of an
//! [`IoFaultPlan`] exercise the recovery behaviour above in tests rather
//! than in comments.

use crate::config::{LossKind, SynthesizerConfig};
use crate::guard::{RecoveryAction, RecoveryEvent, TrainOutcome, TripReason};
use crate::train::{EpochStats, Kept, NetState, Rewound, TrainState, TrainingRun};
use daisy_telemetry::{field, schema};
use daisy_tensor::RngState;
use daisy_wire::{crc64, sibling, ArmedIo, IoFault, IoFaultPlan, Reader, WireError, Writer};
use std::borrow::Cow;
use std::fmt;
use std::path::PathBuf;

use daisy_wire::magic::CHECKPOINT as MAGIC;

/// Why a checkpoint operation failed. All variants are recoverable:
/// training continues without the failed save, and a corrupt load falls
/// back to the predecessor checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The underlying write/rename failed (disk full, permissions, an
    /// injected I/O fault).
    Io(String),
    /// The file exists but fails validation — bad magic, torn tail,
    /// checksum mismatch, or an implausible length.
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint i/o failure: {msg}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A unique scratch-file path in the system temp directory: tagged,
/// per-process, per-call. Tests across the workspace use this instead
/// of fixed filenames so concurrent test binaries (or threads) never
/// race on the same file.
pub fn scratch_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("daisy-{tag}-{}-{n}", std::process::id()))
}

/// Fingerprint of a full synthesizer configuration (CRC-64 of its
/// canonical byte encoding, [`crate::persist`]'s `write_config`). A
/// checkpoint records the fingerprint of the configuration that
/// produced it; resume ignores checkpoints whose fingerprint differs —
/// a stale file from an earlier sweep must not hijack a new cell.
pub fn config_fingerprint(cfg: &SynthesizerConfig) -> u64 {
    crc64(&crate::persist::config_bytes(cfg))
}

fn every_from_env() -> usize {
    daisy_telemetry::knobs::raw("DAISY_CKPT_EVERY")
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(1)
}

/// Checkpointing policy for one training run.
#[derive(Debug, Clone, Default)]
pub struct CheckpointPlan {
    /// Checkpoint file path; `None` disables checkpointing entirely.
    /// The store also uses `<path>.prev` (last-good), `<path>.tmp`
    /// (in-flight write) and `<path>.corrupt-N` (quarantine).
    pub path: Option<PathBuf>,
    /// Write a checkpoint every `every`-th clean epoch boundary
    /// (default 1 = every epoch; the `DAISY_CKPT_EVERY` environment
    /// variable sets the default for [`CheckpointPlan::at`]).
    pub every: usize,
    /// Abort training with [`crate::TrainError::Interrupted`] *before*
    /// executing this step — a deterministic stand-in for SIGKILL used
    /// by the resume tests. `None` in production.
    pub kill_at_step: Option<usize>,
    /// Configuration fingerprint stamped into every checkpoint and
    /// required of every loaded one. Filled in by the synthesizer
    /// (`config_fingerprint`); leave 0 when driving the trainer
    /// directly without resume-safety concerns.
    pub fingerprint: u64,
    /// Injected storage faults for the store's writes, reads and
    /// quarantines (empty in production).
    pub io_faults: IoFaultPlan,
}

impl CheckpointPlan {
    /// No checkpointing, no kill: the plain training path.
    pub fn disabled() -> Self {
        CheckpointPlan {
            every: 1,
            ..Default::default()
        }
    }

    /// Checkpoints to `path`, with the cadence taken from
    /// `DAISY_CKPT_EVERY` (default: every epoch).
    pub fn at(path: impl Into<PathBuf>) -> Self {
        CheckpointPlan {
            path: Some(path.into()),
            every: every_from_env(),
            ..Default::default()
        }
    }

    /// Schedules the deterministic kill at `step`.
    pub fn kill_at(mut self, step: usize) -> Self {
        self.kill_at_step = Some(step);
        self
    }

    /// Overrides the checkpoint cadence (clamped to ≥ 1).
    pub fn with_every(mut self, every: usize) -> Self {
        self.every = every.max(1);
        self
    }

    /// Attaches a storage-fault schedule to the checkpoint store.
    pub fn with_io_faults(mut self, faults: IoFaultPlan) -> Self {
        self.io_faults = faults;
        self
    }
}

// ---------------------------------------------------------------------
// the checkpoint payload
// ---------------------------------------------------------------------

/// A durable checkpoint: the configuration fingerprint, the training
/// state captured at a clean epoch boundary, and the run's history and
/// snapshot ring. A save borrows the live state and run; a load owns
/// what it parsed.
pub(crate) struct TrainCheckpoint<'a> {
    pub(crate) fingerprint: u64,
    pub(crate) state: Cow<'a, TrainState>,
    /// Loss history and the per-epoch generator snapshots so far, each
    /// with its BatchNorm statistics (model selection needs all of them,
    /// not just the latest weights).
    pub(crate) run: Cow<'a, TrainingRun>,
}

fn write_rng(w: &mut Writer, s: &RngState) {
    for &word in &s.words {
        w.u64(word);
    }
    match s.gauss_spare {
        Some(v) => {
            w.bool(true);
            w.f64(v);
        }
        None => w.bool(false),
    }
}

fn read_rng(r: &mut Reader) -> Result<RngState, WireError> {
    let mut words = [0u64; 4];
    for word in &mut words {
        *word = r.u64()?;
    }
    let gauss_spare = if r.bool()? { Some(r.f64()?) } else { None };
    Ok(RngState { words, gauss_spare })
}

fn write_reason(w: &mut Writer, reason: &TripReason) {
    match *reason {
        TripReason::NonFiniteLoss { d_loss, g_loss } => {
            w.u8(0);
            w.f32(d_loss);
            w.f32(g_loss);
        }
        TripReason::NonFiniteWeights => w.u8(1),
        TripReason::Divergence { loss, ema } => {
            w.u8(2);
            w.f32(loss);
            w.f32(ema);
        }
        TripReason::ModeCollapse { duplicate_fraction } => {
            w.u8(3);
            w.f64(duplicate_fraction);
        }
    }
}

fn read_reason(r: &mut Reader) -> Result<TripReason, WireError> {
    Ok(match r.u8()? {
        0 => TripReason::NonFiniteLoss {
            d_loss: r.f32()?,
            g_loss: r.f32()?,
        },
        1 => TripReason::NonFiniteWeights,
        2 => TripReason::Divergence {
            loss: r.f32()?,
            ema: r.f32()?,
        },
        3 => TripReason::ModeCollapse {
            duplicate_fraction: r.f64()?,
        },
        other => return Err(format!("unknown trip-reason tag {other}")),
    })
}

fn write_action(w: &mut Writer, action: &RecoveryAction) {
    match *action {
        RecoveryAction::Rollback { lr_scale } => {
            w.u8(0);
            w.f32(lr_scale);
        }
        RecoveryAction::SwitchToWTrain { lr_scale } => {
            w.u8(1);
            w.f32(lr_scale);
        }
        RecoveryAction::Degrade => w.u8(2),
    }
}

fn read_action(r: &mut Reader) -> Result<RecoveryAction, WireError> {
    Ok(match r.u8()? {
        0 => RecoveryAction::Rollback { lr_scale: r.f32()? },
        1 => RecoveryAction::SwitchToWTrain { lr_scale: r.f32()? },
        2 => RecoveryAction::Degrade,
        other => return Err(format!("unknown recovery-action tag {other}")),
    })
}

fn write_outcome(w: &mut Writer, o: &TrainOutcome) {
    w.usize(o.recoveries.len());
    for ev in &o.recoveries {
        w.usize(ev.step);
        w.usize(ev.epoch);
        write_reason(w, &ev.reason);
        write_action(w, &ev.action);
    }
    w.bool(o.degraded);
    w.usize(o.completed_epochs);
    w.bool(o.escalated_wtrain);
    w.bool(o.escalated_simplified_d);
}

fn read_outcome(r: &mut Reader) -> Result<TrainOutcome, WireError> {
    let n = r.len()?;
    let mut recoveries = Vec::with_capacity(n);
    for _ in 0..n {
        recoveries.push(RecoveryEvent {
            step: r.usize()?,
            epoch: r.usize()?,
            reason: read_reason(r)?,
            action: read_action(r)?,
        });
    }
    Ok(TrainOutcome {
        recoveries,
        degraded: r.bool()?,
        completed_epochs: r.usize()?,
        escalated_wtrain: r.bool()?,
        escalated_simplified_d: r.bool()?,
    })
}

impl TrainCheckpoint<'_> {
    /// Serializes the checkpoint: magic, then four CRC-framed sections
    /// (meta, model, optimizer, history).
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let (s, k, run) = (&self.state.rewound, &self.state.kept, &*self.run);
        let mut w = Writer::default();
        w.buf.extend_from_slice(MAGIC);

        let mut meta = Writer::default();
        meta.u64(self.fingerprint);
        meta.usize(s.t);
        meta.usize(s.epochs_done);
        meta.u8(match k.loss {
            LossKind::Vanilla => 0,
            LossKind::Wasserstein => 1,
        });
        meta.usize(k.d_steps);
        meta.f32(k.lr_scale);
        meta.usize(k.plain_rollbacks);
        meta.f32(s.ema.0);
        meta.f32(s.ema.1);
        meta.usize(s.ema.2);
        write_rng(&mut meta, &k.rng);
        meta.usize(k.fired.len());
        for &b in &k.fired {
            meta.bool(b);
        }
        write_outcome(&mut meta, &k.outcome);
        w.section(&meta);

        let mut model = Writer::default();
        s.g.encode(&mut model);
        s.d.encode(&mut model);
        model.usize(s.d_rng.len());
        for r in &s.d_rng {
            write_rng(&mut model, r);
        }
        w.section(&model);

        let mut opt = Writer::default();
        opt.tensors(&s.opt_g);
        opt.tensors(&s.opt_d);
        w.section(&opt);

        let mut hist = Writer::default();
        hist.usize(run.history.len());
        for e in &run.history {
            hist.usize(e.epoch);
            hist.f32(e.d_loss);
            hist.f32(e.g_loss);
            hist.f32(e.kl);
        }
        hist.usize(run.snapshots.len());
        for snap in &run.snapshots {
            snap.encode(&mut hist);
        }
        w.section(&hist);

        w.buf
    }

    /// Parses and validates checkpoint bytes. Every failure mode —
    /// foreign file, truncation, any single corrupted byte — yields
    /// [`CheckpointError::Corrupt`]; this function never panics on
    /// arbitrary input.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<TrainCheckpoint<'static>, CheckpointError> {
        let Some(body) = bytes.strip_prefix(&MAGIC[..]) else {
            let msg = "not a daisy checkpoint file (bad magic)";
            return Err(CheckpointError::Corrupt(msg.to_string()));
        };
        read_sections(&mut Reader::new(body)).map_err(CheckpointError::Corrupt)
    }
}

fn read_sections(r: &mut Reader) -> Result<TrainCheckpoint<'static>, WireError> {
    let mut meta = r.section()?;
    let (fingerprint, t, epochs_done) = (meta.u64()?, meta.usize()?, meta.usize()?);
    let loss = match meta.u8()? {
        0 => LossKind::Vanilla,
        1 => LossKind::Wasserstein,
        other => return Err(format!("unknown loss tag {other}")),
    };
    let (d_steps, lr_scale, plain_rollbacks) = (meta.usize()?, meta.f32()?, meta.usize()?);
    let ema = (meta.f32()?, meta.f32()?, meta.usize()?);
    let rng = read_rng(&mut meta)?;
    let n_fired = meta.len()?;
    let kept = Kept {
        rng,
        fired: (0..n_fired)
            .map(|_| meta.bool())
            .collect::<Result<_, _>>()?,
        outcome: read_outcome(&mut meta)?,
        lr_scale,
        plain_rollbacks,
        loss,
        d_steps,
    };

    let mut model = r.section()?;
    let (g, d) = (NetState::decode(&mut model)?, NetState::decode(&mut model)?);
    let n_rng = model.len()?;
    let d_rng = (0..n_rng)
        .map(|_| read_rng(&mut model))
        .collect::<Result<_, _>>()?;
    let mut opt = r.section()?;
    let rewound = Rewound {
        g,
        d,
        d_rng,
        opt_g: opt.tensors()?,
        opt_d: opt.tensors()?,
        ema,
        t,
        epochs_done,
    };

    let mut hist = r.section()?;
    let n_hist = hist.len()?;
    let mut epoch = || -> Result<EpochStats, WireError> {
        let epoch = hist.usize()?;
        let (d_loss, g_loss, kl) = (hist.f32()?, hist.f32()?, hist.f32()?);
        Ok(EpochStats {
            epoch,
            d_loss,
            g_loss,
            kl,
        })
    };
    let history = (0..n_hist).map(|_| epoch()).collect::<Result<_, _>>()?;
    let n_snap = hist.len()?;
    let snapshots = (0..n_snap)
        .map(|_| NetState::decode(&mut hist))
        .collect::<Result<_, _>>()?;
    if !r.is_empty() {
        return Err("trailing bytes after final section".to_string());
    }
    Ok(TrainCheckpoint {
        fingerprint,
        state: Cow::Owned(TrainState { rewound, kept }),
        run: Cow::Owned(TrainingRun { snapshots, history }),
    })
}

// ---------------------------------------------------------------------
// the durable store
// ---------------------------------------------------------------------

/// Durable checkpoint storage at a fixed path with last-good rotation
/// and deterministic storage-fault injection.
pub(crate) struct CheckpointStore {
    path: PathBuf,
    io: ArmedIo,
}

/// Emits the one `fault_fired` event of a storage fault the store's
/// handle fired.
fn report_fault(fault: &IoFault) {
    if daisy_telemetry::enabled() {
        let (op, index) = fault.index();
        daisy_telemetry::emit(
            schema::FAULT_FIRED,
            vec![field("kind", fault.kind()), field(op, index)],
        );
    }
}

impl CheckpointStore {
    pub(crate) fn new(path: PathBuf, faults: &IoFaultPlan) -> Self {
        CheckpointStore {
            path,
            io: ArmedIo::new(faults).on_fire(report_fault),
        }
    }

    /// Writes `ckpt` durably: rotate the current file to `.prev`, then
    /// replace the primary atomically. Returns the payload size and emits
    /// `checkpoint_write`. On any failure the last good checkpoint
    /// remains loadable, as the primary or as `.prev`; the failure is
    /// counted (`checkpoint.save_failures`), not emitted, so the
    /// deterministic trace stays comparable to a run whose saves all
    /// succeeded.
    pub(crate) fn save(&mut self, ckpt: &TrainCheckpoint) -> Result<usize, CheckpointError> {
        let bytes = ckpt.to_bytes();
        // Last-good rotation: the current checkpoint survives as
        // `.prev` until the *next* save rotates it out, so a bit-rotted
        // primary always has a verified predecessor to fall back to.
        let rotated = if self.path.exists() {
            std::fs::rename(&self.path, sibling(&self.path, "prev"))
        } else {
            Ok(())
        };
        if let Err(e) = rotated.and_then(|()| self.io.atomic_write(&self.path, &bytes)) {
            daisy_telemetry::metrics::counter("checkpoint.save_failures").add(1);
            return Err(CheckpointError::Io(e.to_string()));
        }
        if daisy_telemetry::enabled() {
            // The boundary closes epoch `epochs_done - 1` at step `t - 1`.
            let s = &ckpt.state.rewound;
            daisy_telemetry::emit(
                schema::CHECKPOINT_WRITE,
                vec![
                    field("epoch", s.epochs_done.saturating_sub(1)),
                    field("step", s.t.saturating_sub(1)),
                    field("bytes", bytes.len()),
                ],
            );
        }
        Ok(bytes.len())
    }

    /// Loads the freshest valid checkpoint with the expected
    /// fingerprint: the primary file first, then `.prev`. A candidate
    /// that is corrupt, or that does not `fit` the live run (tensor
    /// shapes, counters), is quarantined (renamed `.corrupt-N`) and reported
    /// via one `checkpoint_corrupt_skipped` event; a valid checkpoint
    /// with a foreign fingerprint (stale sweep, different cell) is
    /// ignored silently. Returns `None` when nothing usable exists — the
    /// caller trains from scratch.
    pub(crate) fn load_latest(
        &self,
        fingerprint: u64,
        fits: impl Fn(&TrainCheckpoint) -> Result<(), String>,
    ) -> Option<TrainCheckpoint<'static>> {
        let candidates = [
            ("primary", self.path.clone()),
            ("previous", sibling(&self.path, "prev")),
        ];
        for (slot, path) in candidates {
            let Ok(bytes) = self.io.read(&path) else {
                continue;
            };
            let verdict = TrainCheckpoint::from_bytes(&bytes).and_then(|ckpt| {
                if ckpt.fingerprint != fingerprint {
                    return Ok(None);
                }
                fits(&ckpt).map_err(CheckpointError::Corrupt)?;
                Ok(Some(ckpt))
            });
            match verdict {
                Ok(Some(ckpt)) => return Some(ckpt),
                Ok(None) => {} // stale configuration: not ours to resume
                Err(err) => {
                    self.io.quarantine(&path);
                    if daisy_telemetry::enabled() {
                        daisy_telemetry::emit(
                            schema::CHECKPOINT_CORRUPT_SKIPPED,
                            vec![field("slot", slot), field("error", err.to_string())],
                        );
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_tensor::{Rng, Tensor};
    use std::path::Path;

    fn dummy(fingerprint: u64, t: usize) -> TrainCheckpoint<'static> {
        let mut rng = Rng::seed_from_u64(t as u64);
        let _ = rng.normal(); // populate the Box–Muller spare
        let g = NetState {
            params: vec![Tensor::from_slice(&[1.0, 2.0, 3.0])],
            state: vec![Tensor::from_slice(&[0.0, 1.0])],
        };
        let rewound = Rewound {
            g: g.clone(),
            d: NetState {
                params: vec![Tensor::from_slice(&[-1.0])],
                state: Vec::new(),
            },
            d_rng: vec![Rng::seed_from_u64(9).state()],
            opt_g: vec![Tensor::from_slice(&[0.5])],
            opt_d: vec![Tensor::from_slice(&[0.1, 0.2])],
            ema: (0.25, -1.5, 7),
            t,
            epochs_done: 1,
        };
        let kept = Kept {
            rng: rng.state(),
            fired: vec![true, false, true],
            outcome: TrainOutcome {
                recoveries: vec![RecoveryEvent {
                    step: 4,
                    epoch: 0,
                    reason: TripReason::Divergence { loss: 9.0, ema: 1.0 },
                    action: RecoveryAction::SwitchToWTrain { lr_scale: 0.5 },
                }],
                degraded: false,
                completed_epochs: 1,
                escalated_wtrain: true,
                escalated_simplified_d: false,
            },
            lr_scale: 0.5,
            plain_rollbacks: 2,
            loss: LossKind::Wasserstein,
            d_steps: 3,
        };
        TrainCheckpoint {
            fingerprint,
            state: Cow::Owned(TrainState { rewound, kept }),
            run: Cow::Owned(TrainingRun {
                history: vec![EpochStats {
                    epoch: 0,
                    d_loss: 0.3,
                    g_loss: 0.6,
                    kl: 0.05,
                }],
                snapshots: vec![g],
            }),
        }
    }

    fn assert_same(a: &TrainCheckpoint, b: &TrainCheckpoint) {
        let (ra, rb) = (&a.state.rewound, &b.state.rewound);
        let (ka, kb) = (&a.state.kept, &b.state.kept);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(ra.t, rb.t);
        assert_eq!(ra.epochs_done, rb.epochs_done);
        assert_eq!(ka.loss, kb.loss);
        assert_eq!(ka.d_steps, kb.d_steps);
        assert_eq!(ka.lr_scale, kb.lr_scale);
        assert_eq!(ka.plain_rollbacks, kb.plain_rollbacks);
        assert_eq!(ra.ema, rb.ema);
        assert_eq!(ka.rng, kb.rng);
        assert_eq!(ka.fired, kb.fired);
        assert_eq!(ka.outcome, kb.outcome);
        assert_eq!(ra.g, rb.g);
        assert_eq!(ra.d, rb.d);
        assert_eq!(ra.d_rng, rb.d_rng);
        assert_eq!(ra.opt_g, rb.opt_g);
        assert_eq!(ra.opt_d, rb.opt_d);
        assert_eq!(a.run.history.len(), b.run.history.len());
        for (x, y) in a.run.history.iter().zip(&b.run.history) {
            assert_eq!((x.epoch, x.d_loss, x.g_loss, x.kl), (y.epoch, y.d_loss, y.g_loss, y.kl));
        }
        assert_eq!(a.run.snapshots, b.run.snapshots);
    }

    #[test]
    fn roundtrip_is_lossless() {
        let ckpt = dummy(0xdead_beef, 12);
        let loaded = TrainCheckpoint::from_bytes(&ckpt.to_bytes()).expect("roundtrip");
        assert_same(&ckpt, &loaded);
    }

    #[test]
    fn every_single_byte_corruption_is_a_typed_error() {
        // The satellite fuzz pass: flipping any byte of a checkpoint
        // must produce CheckpointError::Corrupt — never a panic, never
        // a silently accepted altered checkpoint.
        let bytes = dummy(7, 3).to_bytes();
        let mut corrupted = bytes.clone();
        for i in 0..corrupted.len() {
            for flip in [0x01u8, 0x80] {
                corrupted[i] ^= flip;
                match TrainCheckpoint::from_bytes(&corrupted) {
                    Err(CheckpointError::Corrupt(_)) => {}
                    Err(other) => panic!("byte {i}: wrong error class {other}"),
                    Ok(_) => panic!("flip at byte {i} of {} accepted", corrupted.len()),
                }
                corrupted[i] ^= flip;
            }
        }
        assert!(TrainCheckpoint::from_bytes(&corrupted).is_ok());
    }

    #[test]
    fn truncation_and_garbage_are_typed_errors() {
        let bytes = dummy(1, 1).to_bytes();
        for cut in [0, 4, 8, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(matches!(
                TrainCheckpoint::from_bytes(&bytes[..cut]),
                Err(CheckpointError::Corrupt(_))
            ));
        }
        assert!(TrainCheckpoint::from_bytes(b"DAISYSY1 not a checkpoint").is_err());
        // Format 1 ring entries held generator parameters without their
        // BatchNorm statistics; no reader for them is kept.
        let mut format_1 = bytes;
        format_1[..8].copy_from_slice(b"DAISYCK1");
        assert!(TrainCheckpoint::from_bytes(&format_1).is_err());
    }

    #[test]
    fn store_rotates_and_prefers_the_primary() {
        let path = scratch_path("ckpt-rotate");
        let mut store = CheckpointStore::new(path.clone(), &IoFaultPlan::none());
        store.save(&dummy(42, 3)).unwrap();
        store.save(&dummy(42, 6)).unwrap();
        assert!(sibling(&path, "prev").exists());
        let latest = store.load_latest(42, |_| Ok(())).expect("latest");
        assert_eq!(latest.state.rewound.t, 6);
        cleanup(&path);
    }

    #[test]
    fn corrupt_primary_falls_back_to_prev_and_quarantines() {
        let path = scratch_path("ckpt-fallback");
        let mut store = CheckpointStore::new(path.clone(), &IoFaultPlan::none());
        store.save(&dummy(42, 3)).unwrap();
        store.save(&dummy(42, 6)).unwrap();
        // Rot a byte of the primary.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&path, bytes).unwrap();
        let recovered = store
            .load_latest(42, |_| Ok(()))
            .expect("fallback to .prev");
        assert_eq!(recovered.state.rewound.t, 3, "must resume from the last-good file");
        assert!(!path.exists(), "corrupt primary must be moved aside");
        assert!(sibling(&path, "corrupt-0").exists());
        cleanup(&path);
    }

    #[test]
    fn checkpoint_that_does_not_fit_is_quarantined_like_corruption() {
        // A CRC-valid file with the right fingerprint but tensors the
        // live architecture cannot take (a re-sealed edit, say) must be
        // refused before restore, whose setters would panic.
        let path = scratch_path("ckpt-misfit");
        let mut store = CheckpointStore::new(path.clone(), &IoFaultPlan::none());
        store.save(&dummy(42, 3)).unwrap();
        store.save(&dummy(42, 6)).unwrap();
        let fits = |c: &TrainCheckpoint| {
            if c.state.rewound.t == 6 {
                Err("generator parameter shape mismatch".to_string())
            } else {
                Ok(())
            }
        };
        let recovered = store.load_latest(42, fits).expect("fallback to .prev");
        assert_eq!(recovered.state.rewound.t, 3);
        assert!(!path.exists(), "the misfit primary must be moved aside");
        assert!(sibling(&path, "corrupt-0").exists());
        cleanup(&path);
    }

    #[test]
    fn stale_fingerprint_is_ignored_without_quarantine() {
        let path = scratch_path("ckpt-stale");
        let mut store = CheckpointStore::new(path.clone(), &IoFaultPlan::none());
        store.save(&dummy(1, 3)).unwrap();
        assert!(store.load_latest(2, |_| Ok(())).is_none());
        assert!(path.exists(), "a valid foreign checkpoint is left alone");
        assert!(!sibling(&path, "corrupt-0").exists());
        cleanup(&path);
    }

    #[test]
    fn io_faults_fail_the_save_but_never_the_last_good_file() {
        for plan in [
            IoFaultPlan::torn_write_at(1, 37),
            IoFaultPlan::rename_fail_at(1),
            IoFaultPlan::disk_full_at(1),
        ] {
            let path = scratch_path("ckpt-iofault");
            let mut store = CheckpointStore::new(path.clone(), &plan);
            store.save(&dummy(5, 3)).unwrap();
            let err = store.save(&dummy(5, 6)).expect_err("fault must fail the save");
            assert!(matches!(err, CheckpointError::Io(_)), "{plan:?}: {err}");
            let survivor = store
                .load_latest(5, |_| Ok(()))
                .expect("last-good checkpoint");
            assert_eq!(survivor.state.rewound.t, 3, "{plan:?} must leave the old checkpoint");
            // The fault fired once: the same save index stays quiet now.
            store.save(&dummy(5, 9)).unwrap();
            assert_eq!(store.load_latest(5, |_| Ok(())).unwrap().state.rewound.t, 9);
            cleanup(&path);
        }
    }

    #[test]
    fn bit_flip_is_silent_at_save_and_caught_at_load() {
        let path = scratch_path("ckpt-bitflip");
        let mut store = CheckpointStore::new(path.clone(), &IoFaultPlan::bit_flip_at(1, 91));
        store.save(&dummy(5, 3)).unwrap();
        store.save(&dummy(5, 6)).expect("bit flip is silent at save time");
        let recovered = store.load_latest(5, |_| Ok(())).expect("fallback");
        assert_eq!(recovered.state.rewound.t, 3, "checksum must reject the flipped primary");
        assert!(sibling(&path, "corrupt-0").exists());
        cleanup(&path);
    }

    fn cleanup(path: &Path) {
        for ext in ["tmp", "prev", "corrupt-0", "corrupt-1"] {
            let _ = std::fs::remove_file(sibling(path, ext));
        }
        let _ = std::fs::remove_file(path);
    }
}
