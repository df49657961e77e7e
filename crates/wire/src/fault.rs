//! Deterministic storage-fault injection: one seam for every sealed
//! format.
//!
//! Model files, training checkpoints, store chunks and store manifests
//! all reach the disk through the same three operations: replace a file
//! atomically ([`crate::atomic_write`]), read it back whole, and move a
//! corrupt one aside ([`crate::quarantine`]). An [`ArmedIo`] handle
//! performs those operations and, armed with an [`IoFaultPlan`], fails
//! them the way real storage fails (see [`IoFault`]).
//!
//! A fault is keyed by the index of the operation it hits, counted per
//! operation kind on one handle from 0: the first `atomic_write` is
//! write 0 and the first `read` is read 0, whatever the path. Each
//! scheduled fault fires at most once, so replaying an index (a retry,
//! a resume on a fresh handle) is clean. Nothing here reads a clock or
//! draws a random number: the same plan and the same operations fail
//! the same way every run.
//!
//! The crate stays telemetry-free. A handle hands each fault it fires
//! to the hook its owner installed with [`ArmedIo::on_fire`], and the
//! owner emits the event.

use crate::sibling;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// One scheduled storage fault, keyed by the index of the operation it
/// hits on its [`ArmedIo`] handle (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// The process dies inside write `write`: `offset` bytes (taken
    /// modulo the payload length) sit in `<path>.tmp`, the final path
    /// is untouched, and the write fails.
    TornWrite {
        /// Write operation to tear.
        write: usize,
        /// Bytes of the temp file that land before the crash.
        offset: u64,
    },
    /// Write `write` completes its temp file, then its rename fails.
    RenameFail {
        /// Write operation whose rename fails.
        write: usize,
    },
    /// Write `write` is refused before any byte lands.
    DiskFull {
        /// Write operation that is refused.
        write: usize,
    },
    /// Write `write` succeeds, then one bit of the file at `offset`
    /// (taken modulo the file length) rots. The write reports success;
    /// only a later checksum notices.
    BitFlip {
        /// Write operation whose output rots.
        write: usize,
        /// Byte offset of the flipped bit.
        offset: u64,
    },
    /// Read `read` returns the file's bytes with one bit at `offset`
    /// (taken modulo the file length) flipped; the disk is intact.
    FlipOnRead {
        /// Read operation to corrupt.
        read: usize,
        /// Byte offset of the flipped bit.
        offset: u64,
    },
    /// Quarantine `quarantine` fails: the file stays where it was.
    QuarantineFail {
        /// Quarantine operation that fails.
        quarantine: usize,
    },
}

impl IoFault {
    /// The operation this fault hits and its index on the handle:
    /// `("write", n)`, `("read", n)` or `("quarantine", n)`. The name is
    /// the index field of the owner's `fault_fired` event.
    pub fn index(&self) -> (&'static str, usize) {
        match *self {
            IoFault::TornWrite { write, .. }
            | IoFault::RenameFail { write }
            | IoFault::DiskFull { write }
            | IoFault::BitFlip { write, .. } => ("write", write),
            IoFault::FlipOnRead { read, .. } => ("read", read),
            IoFault::QuarantineFail { quarantine } => ("quarantine", quarantine),
        }
    }

    /// Machine-readable tag used in `fault_fired` telemetry events.
    pub fn kind(&self) -> &'static str {
        match self {
            IoFault::TornWrite { .. } => "io_torn_write",
            IoFault::RenameFail { .. } => "io_rename_fail",
            IoFault::DiskFull { .. } => "io_disk_full",
            IoFault::BitFlip { .. } => "io_bit_flip",
            IoFault::FlipOnRead { .. } => "io_flip_on_read",
            IoFault::QuarantineFail { .. } => "io_quarantine_fail",
        }
    }
}

/// A deterministic schedule of storage faults for one handle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IoFaultPlan {
    faults: Vec<IoFault>,
}

impl IoFaultPlan {
    /// The empty plan: no injected faults (production setting).
    pub fn none() -> Self {
        IoFaultPlan::default()
    }

    /// A plan firing the given faults.
    pub fn new(faults: Vec<IoFault>) -> Self {
        IoFaultPlan { faults }
    }

    /// Convenience: tear write `write` after `offset` bytes.
    pub fn torn_write_at(write: usize, offset: u64) -> Self {
        Self::new(vec![IoFault::TornWrite { write, offset }])
    }

    /// Convenience: flip a bit of write `write`'s file at `offset`.
    pub fn bit_flip_at(write: usize, offset: u64) -> Self {
        Self::new(vec![IoFault::BitFlip { write, offset }])
    }

    /// Convenience: fail write `write`'s rename.
    pub fn rename_fail_at(write: usize) -> Self {
        Self::new(vec![IoFault::RenameFail { write }])
    }

    /// Convenience: refuse write `write`.
    pub fn disk_full_at(write: usize) -> Self {
        Self::new(vec![IoFault::DiskFull { write }])
    }
}

/// A storage handle armed with an [`IoFaultPlan`]. Its operations do
/// exactly what [`crate::atomic_write`], `std::fs::read` and
/// [`crate::quarantine`] do, except where the plan schedules a fault.
/// The arming state sits behind a `Mutex`, so one handle can be shared
/// across threads.
#[derive(Debug)]
pub struct ArmedIo {
    state: Mutex<Armed>,
    on_fire: fn(&IoFault),
}

#[derive(Debug)]
struct Armed {
    /// Scheduled faults that have not fired yet.
    pending: Vec<IoFault>,
    /// Operations performed so far, by operation name.
    done: BTreeMap<&'static str, usize>,
}

impl ArmedIo {
    /// A handle firing the faults of `plan`. With the empty plan every
    /// operation is the plain one.
    pub fn new(plan: &IoFaultPlan) -> ArmedIo {
        ArmedIo {
            state: Mutex::new(Armed {
                pending: plan.faults.clone(),
                done: BTreeMap::new(),
            }),
            on_fire: |_| {},
        }
    }

    /// Installs the hook each fault is handed to as it fires, once per
    /// fault: where the owner emits its `fault_fired` event.
    pub fn on_fire(mut self, hook: fn(&IoFault)) -> ArmedIo {
        self.on_fire = hook;
        self
    }

    /// Counts one `op` and fires the faults scheduled at its index.
    fn take(&self, op: &'static str) -> Vec<IoFault> {
        let due: Vec<IoFault> = {
            // Each update below leaves the state valid, so a poisoned
            // lock is safe to recover.
            let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            let n = s.done.entry(op).or_insert(0);
            let at = (op, *n);
            *n += 1;
            let (due, pending) = std::mem::take(&mut s.pending)
                .into_iter()
                .partition(|f| f.index() == at);
            s.pending = pending;
            due
        };
        for f in &due {
            (self.on_fire)(f);
        }
        due
    }

    /// [`crate::atomic_write`], failing as the plan schedules for this
    /// write. Of several failures due at once, the first in plan order
    /// wins; a bit flip applies only to a write that succeeds.
    pub fn atomic_write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = sibling(path, "tmp");
        let mut rot = None;
        for f in self.take("write") {
            match f {
                IoFault::DiskFull { .. } => return Err(injected("disk full")),
                IoFault::TornWrite { offset, .. } => {
                    let cut = (offset % bytes.len().max(1) as u64) as usize;
                    std::fs::write(&tmp, &bytes[..cut])?;
                    return Err(injected(&format!("torn write after {cut} bytes")));
                }
                IoFault::RenameFail { .. } => {
                    std::fs::write(&tmp, bytes)?;
                    return Err(injected("rename failed"));
                }
                IoFault::BitFlip { offset, .. } => rot = Some(offset),
                IoFault::FlipOnRead { .. } | IoFault::QuarantineFail { .. } => {}
            }
        }
        crate::atomic_write(path, bytes)?;
        if let Some(offset) = rot {
            let mut rotten = std::fs::read(path)?;
            flip(&mut rotten, offset);
            std::fs::write(path, rotten)?;
        }
        Ok(())
    }

    /// `std::fs::read`, with one bit of the returned bytes flipped when
    /// the plan schedules it for this read.
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let due = self.take("read");
        let mut bytes = std::fs::read(path)?;
        for f in due {
            if let IoFault::FlipOnRead { offset, .. } = f {
                flip(&mut bytes, offset);
            }
        }
        Ok(bytes)
    }

    /// [`crate::quarantine`], or `None` with the file left in place
    /// when the plan fails this quarantine.
    pub fn quarantine(&self, path: &Path) -> Option<PathBuf> {
        if self.take("quarantine").is_empty() {
            crate::quarantine(path)
        } else {
            None
        }
    }
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("{what} (injected fault)"))
}

/// Flips the low bit of the byte at `offset` modulo the length.
fn flip(bytes: &mut [u8], offset: u64) {
    if !bytes.is_empty() {
        let i = (offset % bytes.len() as u64) as usize;
        bytes[i] ^= 0x01;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("daisy-wire-fault-{tag}-{}-{n}", std::process::id()))
    }

    fn cleanup(path: &Path) {
        for ext in ["tmp", "corrupt-0"] {
            let _ = std::fs::remove_file(sibling(path, ext));
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn each_write_fault_fires_once_and_leaves_the_old_file() {
        for (plan, tmp) in [
            (IoFaultPlan::torn_write_at(1, 3), Some(&b"new"[..])),
            (IoFaultPlan::rename_fail_at(1), Some(&b"newer"[..])),
            (IoFaultPlan::disk_full_at(1), None),
        ] {
            let path = scratch("write");
            let io = ArmedIo::new(&plan);
            io.atomic_write(&path, b"old").unwrap();
            let err = io.atomic_write(&path, b"newer").expect_err("write 1 fails");
            assert!(err.to_string().contains("injected"), "{plan:?}: {err}");
            assert_eq!(std::fs::read(&path).unwrap(), b"old", "{plan:?}");
            assert_eq!(std::fs::read(sibling(&path, "tmp")).ok().as_deref(), tmp);
            // Fired once: write 2 is clean.
            io.atomic_write(&path, b"newest").unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), b"newest");
            cleanup(&path);
        }
    }

    #[test]
    fn bit_flip_is_silent_and_lands_on_disk() {
        let path = scratch("flip");
        let io = ArmedIo::new(&IoFaultPlan::bit_flip_at(0, 9));
        io.atomic_write(&path, b"abcd")
            .expect("a flipped write succeeds");
        assert_eq!(std::fs::read(&path).unwrap(), b"accd");
        cleanup(&path);
    }

    #[test]
    fn indexes_count_per_operation_per_handle() {
        let path = scratch("index");
        std::fs::write(&path, b"xyz").unwrap();
        let plan = IoFaultPlan::new(vec![
            IoFault::FlipOnRead { read: 1, offset: 0 },
            IoFault::DiskFull { write: 1 },
            IoFault::QuarantineFail { quarantine: 0 },
        ]);
        let io = ArmedIo::new(&plan);
        // Writes and quarantines do not advance the read index.
        io.atomic_write(&path, b"xyz").unwrap();
        assert_eq!(io.read(&path).unwrap(), b"xyz");
        assert!(io.atomic_write(&path, b"xyz").is_err());
        assert_eq!(io.quarantine(&path), None);
        assert!(path.exists(), "a failed quarantine leaves the file");
        assert_eq!(io.read(&path).unwrap(), b"yyz");
        assert_eq!(std::fs::read(&path).unwrap(), b"xyz", "the disk is intact");
        // A second handle over the same plan counts from 0 again.
        let fresh = ArmedIo::new(&plan);
        assert_eq!(fresh.read(&path).unwrap(), b"xyz");
        assert_eq!(fresh.read(&path).unwrap(), b"yyz");
        assert_eq!(io.read(&path).unwrap(), b"xyz", "fired once");
        let moved = io.quarantine(&path).expect("quarantine 1 is clean");
        assert_eq!(std::fs::read(&moved).unwrap(), b"xyz");
        cleanup(&path);
    }

    #[test]
    fn the_hook_sees_each_fired_fault_once() {
        static FIRED: AtomicUsize = AtomicUsize::new(0);
        let path = scratch("hook");
        let io = ArmedIo::new(&IoFaultPlan::disk_full_at(0)).on_fire(|f| {
            assert_eq!(f.index(), ("write", 0));
            FIRED.fetch_add(1, Ordering::Relaxed);
        });
        assert!(io.atomic_write(&path, b"a").is_err());
        io.atomic_write(&path, b"a").unwrap();
        assert_eq!(FIRED.load(Ordering::Relaxed), 1);
        cleanup(&path);
    }

    #[test]
    fn an_empty_plan_does_nothing() {
        let path = scratch("none");
        let io = ArmedIo::new(&IoFaultPlan::none());
        for _ in 0..3 {
            io.atomic_write(&path, b"same").unwrap();
            assert_eq!(io.read(&path).unwrap(), b"same");
        }
        assert!(!sibling(&path, "tmp").exists());
        let moved = io.quarantine(&path).expect("plain quarantine");
        assert_eq!(std::fs::read(&moved).unwrap(), b"same");
        assert!(io.read(&path).is_err(), "a missing file is the plain error");
        cleanup(&path);
    }

    #[test]
    fn kinds_and_index_fields_are_stable() {
        let tags = [
            (
                IoFault::TornWrite {
                    write: 1,
                    offset: 0,
                },
                "io_torn_write",
                ("write", 1),
            ),
            (
                IoFault::RenameFail { write: 2 },
                "io_rename_fail",
                ("write", 2),
            ),
            (IoFault::DiskFull { write: 3 }, "io_disk_full", ("write", 3)),
            (
                IoFault::BitFlip {
                    write: 4,
                    offset: 0,
                },
                "io_bit_flip",
                ("write", 4),
            ),
            (
                IoFault::FlipOnRead { read: 5, offset: 0 },
                "io_flip_on_read",
                ("read", 5),
            ),
            (
                IoFault::QuarantineFail { quarantine: 6 },
                "io_quarantine_fail",
                ("quarantine", 6),
            ),
        ];
        for (fault, kind, index) in tags {
            assert_eq!(fault.kind(), kind);
            assert_eq!(fault.index(), index);
        }
    }
}
