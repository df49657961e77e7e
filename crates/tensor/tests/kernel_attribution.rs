//! Profiles and work histograms attribute each transposed matmul to its
//! own phase and histogram. Backward-pass time is read from the
//! `matmul_nt` / `matmul_tn` phases, so neither may nest a `matmul`
//! phase or feed `kernel.matmul.work`.
//!
//! The phase profiler and the metrics registry are process-global, so
//! this check lives in its own test binary: no concurrent test can add
//! a kernel call while the recorder is installed.

use daisy_telemetry::{metrics, profile, MemoryRecorder};
use daisy_tensor::{Rng, Tensor};
use std::sync::Arc;

#[test]
fn transposed_matmuls_record_only_their_own_phase_and_histogram() {
    let mut rng = Rng::seed_from_u64(9);
    let a = Tensor::randn(&[64, 48], &mut rng);
    let b = Tensor::randn(&[40, 48], &mut rng);
    let c = Tensor::randn(&[64, 40], &mut rng);
    let work = (64 * 48 * 40) as u64;
    let hist = |name| {
        let h = metrics::histogram(name);
        (h.count(), h.sum())
    };
    let before = [
        hist("kernel.matmul.work"),
        hist("kernel.matmul_nt.work"),
        hist("kernel.matmul_tn.work"),
    ];

    profile::reset();
    profile::set_enabled(true);
    daisy_telemetry::with_recorder(Arc::new(MemoryRecorder::new()), || {
        let _ = a.matmul_nt(&b); // [64, 48] x [40, 48]^T
        let _ = a.matmul_tn(&c); // [64, 48]^T x [64, 40]
    });
    profile::set_enabled(false);

    let paths: Vec<String> = profile::snapshot().into_iter().map(|s| s.path).collect();
    assert_eq!(paths, ["matmul_nt", "matmul_tn"], "unexpected phases");
    let after = [
        hist("kernel.matmul.work"),
        hist("kernel.matmul_nt.work"),
        hist("kernel.matmul_tn.work"),
    ];
    assert_eq!(after[0], before[0], "kernel.matmul.work moved");
    assert_eq!(after[1], (before[1].0 + 1, before[1].1 + work));
    assert_eq!(after[2], (before[2].0 + 1, before[2].1 + work));
}
