//! The pool's determinism contract, end to end: a fixed seed must
//! produce bit-identical synthetic data for 1 thread and for N threads.
//!
//! This is what keeps the resilience layer's recovery traces (PR 1) and
//! the persisted-model "bit-for-bit generation" guarantee alive on
//! multi-core machines: parallelism is a performance knob, never an
//! input to the computation.

use daisy::prelude::*;
use daisy::tensor::pool;

fn quick_config(network: NetworkKind) -> SynthesizerConfig {
    let mut tc = TrainConfig::vtrain(120);
    tc.batch_size = 32;
    tc.epochs = 2;
    let mut cfg = SynthesizerConfig::new(network, tc);
    cfg.g_hidden = vec![40];
    cfg.d_hidden = vec![40];
    cfg.noise_dim = 10;
    cfg.cnn_channels = 4;
    cfg
}

fn fit_and_generate(table: &daisy::data::Table, network: NetworkKind) -> daisy::data::Table {
    let mut rng = Rng::seed_from_u64(77);
    let (train, _valid, _test) = table.clone().split_train_valid_test(&mut rng);
    let fitted = Synthesizer::fit(&train, &quick_config(network));
    fitted.generate(200, &mut rng)
}

/// Fits under a scoped in-memory recorder and returns the trace's
/// deterministic view (non-deterministic events dropped, wall-clock
/// fields stripped).
fn trace_fit(table: &daisy::data::Table, threads: usize) -> String {
    use std::sync::Arc;
    pool::set_threads(threads);
    let rec = Arc::new(daisy::telemetry::MemoryRecorder::new());
    daisy::telemetry::with_recorder(rec.clone(), || {
        let mut rng = Rng::seed_from_u64(77);
        let (train, _valid, _test) = table.clone().split_train_valid_test(&mut rng);
        Synthesizer::try_fit(&train, &quick_config(NetworkKind::Mlp))
            .expect("fixture table trains");
    });
    pool::set_threads(1);
    daisy::telemetry::trace::deterministic_view(&rec.to_jsonl())
        .expect("recorded trace validates")
}

/// Like [`trace_fit`], but also returns the raw (unstripped) trace so
/// profiling tests can assert what the nd plane carries.
fn trace_fit_raw(table: &daisy::data::Table, threads: usize) -> (String, String) {
    use std::sync::Arc;
    pool::set_threads(threads);
    let rec = Arc::new(daisy::telemetry::MemoryRecorder::new());
    daisy::telemetry::with_recorder(rec.clone(), || {
        let mut rng = Rng::seed_from_u64(77);
        let (train, _valid, _test) = table.clone().split_train_valid_test(&mut rng);
        Synthesizer::try_fit(&train, &quick_config(NetworkKind::Mlp))
            .expect("fixture table trains");
    });
    pool::set_threads(1);
    let raw = rec.to_jsonl();
    let view = daisy::telemetry::trace::deterministic_view(&raw)
        .expect("recorded trace validates");
    (raw, view)
}

/// The golden-trace extension of the determinism contract: not only the
/// synthetic data but the *telemetry stream itself* must be
/// byte-identical across runs and thread counts, once the explicitly
/// non-deterministic parts (metrics snapshots, wall-clock fields) are
/// stripped.
#[test]
fn fit_trace_deterministic_view_is_byte_identical_across_runs_and_threads() {
    let table = daisy::datasets::SDataNum {
        correlation: 0.4,
        skew: daisy::datasets::Skew::Balanced,
    }
    .generate(400, 3);
    let first = trace_fit(&table, 1);
    let repeat = trace_fit(&table, 1);
    let parallel = trace_fit(&table, 6);
    assert!(!first.is_empty());
    for name in ["fit_start", "train_start", "epoch", "snapshot", "fit_end"] {
        assert!(
            first.contains(&format!("\"event\":\"{name}\"")),
            "trace is missing {name}:\n{first}"
        );
    }
    assert_eq!(first, repeat, "trace changed between identical runs");
    assert_eq!(first, parallel, "trace changed with the thread count");
}

/// The observability plane's determinism contract: enabling the phase
/// profiler must not perturb the deterministic trace view. Phase times
/// are wall time, so they ride the nd plane inside the `metrics`
/// snapshot — present in the raw trace, stripped from the deterministic
/// view — and the view stays byte-identical across thread counts and
/// against an unprofiled run.
#[test]
fn deterministic_view_is_byte_identical_with_profiling_enabled() {
    use daisy::telemetry::profile;
    let table = daisy::datasets::SDataNum {
        correlation: 0.4,
        skew: daisy::datasets::Skew::Balanced,
    }
    .generate(400, 3);
    let unprofiled = trace_fit(&table, 1);

    profile::set_enabled(true);
    let (raw_1, view_1) = trace_fit_raw(&table, 1);
    let (_raw_4, view_4) = trace_fit_raw(&table, 4);
    profile::set_enabled(false);

    assert!(
        raw_1.contains("daisy_phase_self_seconds_total{phase=\\\"fit"),
        "profiled run should snapshot its phases:\n{raw_1}"
    );
    assert!(
        raw_1.contains("fit/epoch"),
        "profile paths should nest under fit/epoch:\n{raw_1}"
    );
    assert!(
        !view_1.contains("daisy_phase_"),
        "the deterministic view must drop the (nd) snapshot"
    );
    assert_eq!(unprofiled, view_1, "profiling changed the deterministic view");
    assert_eq!(view_1, view_4, "profiled view changed with the thread count");
}

/// Runs a backward pass through a graph that exercises every
/// accumulation path the autodiff engine has — shared subexpressions
/// (diamond fan-in), matmul on both operands, conv, row broadcasts —
/// and returns every parameter gradient as raw bits.
///
/// Gradient accumulation is keyed by node id; this pins down that the
/// traversal is a pure function of the graph (ordered collections, not
/// hash-seed-ordered maps) and that the parallel kernels inside each
/// backward closure stay bit-exact at any thread count.
fn backward_grad_bits(threads: usize) -> Vec<Vec<u32>> {
    use daisy::tensor::{Param, Tensor, Var};
    pool::set_threads(threads);
    let mut rng = Rng::seed_from_u64(42);
    let w1 = Param::new(Tensor::randn(&[8, 16], &mut rng));
    let b1 = Param::new(Tensor::randn(&[16], &mut rng));
    let w2 = Param::new(Tensor::randn(&[16, 4], &mut rng));
    let k = Param::new(Tensor::randn(&[2, 1, 3, 3], &mut rng).mul_scalar(0.5));
    let x = Var::constant(Tensor::randn(&[6, 8], &mut rng));
    let img = Var::constant(Tensor::randn(&[2, 1, 6, 6], &mut rng));

    // Diamond: `h` feeds both branches, so its gradient accumulates
    // from two parents; before PR 5 this walked a HashMap.
    let h = x.matmul(&w1.var()).add_row(&b1.var()).tanh();
    let branch_a = h.matmul(&w2.var()).sigmoid().sum();
    let branch_b = h.sqr().mean();
    let conv_loss = img.conv2d(&k.var(), 1, 1).sqr().mean();
    branch_a.add(&branch_b).add(&conv_loss).backward();

    let grads = [w1, b1, w2, k]
        .iter()
        .map(|p| p.grad().data().iter().map(|v| v.to_bits()).collect())
        .collect();
    pool::set_threads(1);
    grads
}

/// Golden assertion for the backward pass: gradients are byte-identical
/// across repeated runs and across thread counts.
#[test]
fn backward_pass_gradients_are_bit_identical_across_runs_and_threads() {
    let serial = backward_grad_bits(1);
    let repeat = backward_grad_bits(1);
    let parallel = backward_grad_bits(6);
    assert!(serial.iter().map(|g| g.len()).sum::<usize>() > 0);
    assert_eq!(serial, repeat, "backward pass changed between identical runs");
    assert_eq!(serial, parallel, "backward pass changed with the thread count");
}

#[test]
fn synthesizer_output_is_identical_for_1_and_n_threads() {
    let table = daisy::datasets::SDataNum {
        correlation: 0.4,
        skew: daisy::datasets::Skew::Balanced,
    }
    .generate(500, 3);
    for network in [NetworkKind::Mlp, NetworkKind::Cnn] {
        pool::set_threads(1);
        let serial = fit_and_generate(&table, network);
        pool::set_threads(6);
        let parallel = fit_and_generate(&table, network);
        pool::set_threads(1);
        assert_eq!(
            serial, parallel,
            "{network:?}: synthetic output changed with the thread count"
        );
    }
}

/// The out-of-core data plane meets the determinism contract: a GAN
/// trained against an on-disk chunk store (built by a real streaming
/// ingest) must produce bit-identical weights to one trained against
/// the fully-resident table — at 1 thread and at N threads. Storage
/// layout and parallelism are both performance knobs, never inputs to
/// the computation.
#[test]
fn chunk_store_training_is_bit_identical_to_resident_across_threads() {
    use daisy::core::output_head::softmax_spans;
    use daisy::core::{
        train_gan, BatchSource, MlpDiscriminator, MlpGenerator, TrainConfig, TrainingData,
    };
    use daisy::data::{ingest_csv, ChunkStore, IngestConfig, RecordCodec, TransformConfig};

    let base = std::env::temp_dir()
        .join("daisy-itest-store")
        .join(format!("threads-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let table = daisy::datasets::by_name("Adult").unwrap().generate(400, 23);
    let csv = base.join("input.csv");
    daisy::data::csv::write_csv(&table, std::io::BufWriter::new(std::fs::File::create(&csv).unwrap()))
        .unwrap();
    let store_dir = base.join("store");
    let ingest_cfg = IngestConfig {
        chunk_rows: 96,
        label: Some("label".to_string()),
        ..IngestConfig::default()
    };
    ingest_csv(&csv, &store_dir, &ingest_cfg).unwrap();
    let store = ChunkStore::open(&store_dir).unwrap();
    let codec = RecordCodec::fit_chunks(&store, &TransformConfig::sn_ht()).unwrap();
    let streamed = TrainingData::from_chunks(&store, &codec).unwrap();
    // The resident reference samples from the store's own row order so
    // the two sources draw identical rows for identical rng streams.
    let resident_table = store.to_table().unwrap();
    let resident = TrainingData::from_table(&resident_table, &codec);

    let cfg = TrainConfig {
        iterations: 8,
        batch_size: 32,
        epochs: 2,
        ..TrainConfig::vtrain(8)
    };
    let weights = |data: &dyn BatchSource, threads: usize| {
        pool::set_threads(threads);
        let mut rng = Rng::seed_from_u64(19);
        let g = MlpGenerator::new(8, 0, &[24], codec.output_blocks(), &mut rng);
        let d = MlpDiscriminator::new(codec.width(), 0, &[24], &mut rng);
        let run = train_gan(&g, &d, data, &softmax_spans(&codec.output_blocks()), &cfg, &mut rng)
            .unwrap();
        pool::set_threads(1);
        run.snapshots
            .last()
            .unwrap()
            .params
            .iter()
            .flat_map(|t| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>())
            .collect::<Vec<u32>>()
    };

    let resident_serial = weights(&resident, 1);
    let streamed_serial = weights(&streamed, 1);
    let streamed_parallel = weights(&streamed, 6);
    assert!(!resident_serial.is_empty());
    assert_eq!(
        resident_serial, streamed_serial,
        "weights changed when training moved out of core"
    );
    assert_eq!(
        streamed_serial, streamed_parallel,
        "store-backed weights changed with the thread count"
    );
    std::fs::remove_dir_all(&base).ok();
}
