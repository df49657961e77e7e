//! Microbenchmarks for the hot kernels under the study: matmul,
//! convolution, record transformation, and one full GAN training epoch
//! per network family — each measured serial (1 thread) and parallel
//! (4 threads) against the pre-parallel naive reference kernels — plus
//! the matmul shapes that dominate a perfbench `fit_cell` (the LSTM
//! gate products and the classifier zoo's logistic regression). The
//! report names the matmul body it timed (`matmul_isa`).
//! Timing is a hand-rolled median-of-samples loop so the suite carries
//! no external benchmarking dependency.
//!
//! Set `DAISY_BENCH_JSON=<path>` to also write the measurements as JSON
//! (the committed `BENCH_kernels.json` at the repo root is produced this
//! way); see `docs/PERFORMANCE.md` for the runbook and how to read it.

use daisy_core::discriminator::{Discriminator, MlpDiscriminator};
use daisy_core::generator::{Generator, LstmGenerator, MlpGenerator};
use daisy_core::sampler::TrainingData;
use daisy_core::train::train_gan;
use daisy_core::{output_head::softmax_spans, NetworkKind, TrainConfig};
use daisy_data::{RecordCodec, TransformConfig};
use daisy_datasets::by_name;
use daisy_eval::FeatureSpace;
use daisy_telemetry::json::Json;
use daisy_telemetry::MemoryRecorder;
use daisy_tensor::{linalg, pool, Rng, Tensor};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
// daisy-lint: allow(D002) -- benchmarks measure wall time by design
use std::time::Instant;

/// One recorded measurement, mirrored into the JSON report.
struct Rec {
    name: String,
    threads: usize,
    median_ms: f64,
    samples: usize,
}

static RECORDS: Mutex<Vec<Rec>> = Mutex::new(Vec::new());

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
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = times[times.len() / 2];
    let threads = pool::num_threads();
    println!("{name:<40} {median:>10.3} ms/iter  ({samples} samples, {threads} thread(s))");
    RECORDS.lock().unwrap().push(Rec {
        name: name.to_string(),
        threads,
        median_ms: median,
        samples,
    });
}

/// The seed's serial i-k-j matmul, kept verbatim as the "before"
/// reference the parallel blocked kernel is compared against.
fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        let a_row = &ad[i * k..(i + 1) * k];
        for (kk, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let b_row = &bd[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += aik * bv;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

fn bench_matmul_references() {
    // "Before" numbers: the naive serial kernel, single-threaded.
    pool::set_threads(1);
    let mut rng = Rng::seed_from_u64(0);
    let a = Tensor::randn(&[128, 256], &mut rng);
    let b = Tensor::randn(&[256, 128], &mut rng);
    bench("matmul_naive_128x256x128", 20, || {
        black_box(matmul_naive(&a, &b));
    });
    let a5 = Tensor::randn(&[512, 512], &mut rng);
    let b5 = Tensor::randn(&[512, 512], &mut rng);
    bench("matmul_naive_512x512x512", 10, || {
        black_box(matmul_naive(&a5, &b5));
    });
}

/// `matmul`, `matmul_tn` and `matmul_nt` at each `MxKxN` shape, fed the
/// same product (the transposed variants get pre-transposed copies of
/// `A` or `B`), so their rows compare equal work.
fn bench_matmul(threads: usize) {
    pool::set_threads(threads);
    let mut rng = Rng::seed_from_u64(0);
    for (m, k, n, samples) in [(128, 256, 128, 20), (512, 512, 512, 10)] {
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let (at, bt) = (a.transpose(), b.transpose());
        let shape = format!("{m}x{k}x{n}@{threads}t");
        bench(&format!("matmul_{shape}"), samples, || {
            black_box(a.matmul(&b));
        });
        bench(&format!("matmul_tn_{shape}"), samples, || {
            black_box(at.matmul_tn(&b));
        });
        bench(&format!("matmul_nt_{shape}"), samples, || {
            black_box(a.matmul_nt(&bt));
        });
    }
}

/// The matmul shapes of a perfbench `fit_cell`, at 1 thread: the LSTM
/// generator's gate product `[48, 48] x [48, 192]` and its backward
/// `nt`/`tn` products (batch 48, width 48, 4 × 48 gates), and the
/// classifier zoo's logistic regression on real features of the Adult
/// stand-in's 1066-row training split (`[1066, d] x [d, 2]` forward,
/// `[1066, d]^T x [1066, 2]` for the weight gradient).
fn bench_fit_cell_shapes() {
    pool::set_threads(1);
    let mut rng = Rng::seed_from_u64(8);
    let x = Tensor::randn(&[48, 48], &mut rng);
    let w = Tensor::randn(&[48, 192], &mut rng);
    let d_gates = Tensor::randn(&[48, 192], &mut rng);
    bench("matmul_48x48x192@1t", 200, || {
        black_box(x.matmul(&w));
    });
    bench("matmul_nt_48x192x48@1t", 200, || {
        black_box(d_gates.matmul_nt(&w));
    });
    bench("matmul_tn_48x48x192@1t", 200, || {
        black_box(x.matmul_tn(&d_gates));
    });

    let table = by_name("Adult").unwrap().generate(1066, 9);
    let features = FeatureSpace::fit(&table).transform(&table);
    let d = features.cols();
    let lr_w = Tensor::randn(&[d, 2], &mut rng);
    let delta = Tensor::randn(&[1066, 2], &mut rng);
    bench(&format!("matmul_1066x{d}x2@1t"), 100, || {
        black_box(features.matmul(&lr_w));
    });
    bench(&format!("matmul_tn_{d}x1066x2@1t"), 100, || {
        black_box(features.matmul_tn(&delta));
    });
}

fn bench_conv(threads: usize) {
    pool::set_threads(threads);
    let mut rng = Rng::seed_from_u64(1);
    let x = Tensor::randn(&[32, 8, 8, 8], &mut rng);
    let w = Tensor::randn(&[16, 8, 3, 3], &mut rng);
    bench(&format!("conv2d_32x8x8x8_k3@{threads}t"), 20, || {
        black_box(daisy_tensor::conv::conv2d(&x, &w, 1, 1));
    });
    let x2 = Tensor::randn(&[64, 16, 16, 16], &mut rng);
    let w2 = Tensor::randn(&[32, 16, 4, 4], &mut rng);
    bench(&format!("conv2d_64x16x16x16_k4s2@{threads}t"), 10, || {
        black_box(daisy_tensor::conv::conv2d(&x2, &w2, 2, 1));
    });
}

fn bench_reductions(threads: usize) {
    pool::set_threads(threads);
    let mut rng = Rng::seed_from_u64(6);
    let a = Tensor::randn(&[512, 512], &mut rng);
    let b = Tensor::randn(&[512, 512], &mut rng);
    bench(&format!("sum_512x512@{threads}t"), 50, || {
        black_box(a.sum());
    });
    bench(&format!("mul_512x512@{threads}t"), 50, || {
        black_box(a.mul(&b));
    });
    bench(&format!("softmax_rows_512x512@{threads}t"), 20, || {
        black_box(a.softmax_rows());
    });
}

fn bench_transform() {
    pool::set_threads(1);
    let spec = by_name("Adult").unwrap();
    let table = spec.generate(2000, 2);
    let codec = RecordCodec::fit(&table, &TransformConfig::gn_ht());
    bench("encode_adult_2000_gn_ht", 10, || {
        black_box(codec.encode_table(&table));
    });
    let encoded = codec.encode_table(&table);
    bench("decode_adult_2000_gn_ht", 10, || {
        black_box(codec.decode_table(&encoded));
    });
}

/// End-to-end epoch time: one full VTrain epoch (all D and G steps over
/// the dataset) per network family, serial vs parallel.
fn bench_gan_epoch(threads: usize) {
    pool::set_threads(threads);
    let spec = by_name("Adult").unwrap();
    let table = spec.generate(1000, 3);
    let codec = RecordCodec::fit(&table, &TransformConfig::gn_ht());
    let data = TrainingData::from_table(&table, &codec);
    let spans = softmax_spans(&codec.output_blocks());
    for network in [NetworkKind::Mlp, NetworkKind::Lstm] {
        let name = format!(
            "gan_epoch_{}@{threads}t",
            network.name().to_lowercase()
        );
        bench(&name, 10, || {
            let mut rng = Rng::seed_from_u64(4);
            let g: Box<dyn Generator> = match network {
                NetworkKind::Mlp => Box::new(MlpGenerator::new(
                    24,
                    0,
                    &[64, 64],
                    codec.output_blocks(),
                    &mut rng,
                )),
                _ => Box::new(LstmGenerator::new(
                    24,
                    0,
                    64,
                    32,
                    codec.output_blocks(),
                    &mut rng,
                )),
            };
            let d: Box<dyn Discriminator> =
                Box::new(MlpDiscriminator::new(codec.width(), 0, &[64], &mut rng));
            let mut step_rng = Rng::seed_from_u64(5);
            let mut cfg = TrainConfig::vtrain(1);
            cfg.batch_size = 64;
            cfg.epochs = 1;
            black_box(
                train_gan(g.as_ref(), d.as_ref(), &data, &spans, &cfg, &mut step_rng)
                    .expect("bench iteration trains"),
            );
        });
    }
}

/// Builds the JSON report through the shared telemetry [`Json`] writer
/// (the same serializer `DAISY_TRACE` lines go through), replacing the
/// hand-rolled string builder this bench used to carry.
fn bench_report(host_cores: usize) -> Json {
    let recs = RECORDS.lock().unwrap();
    let mut root = vec![
        (
            "generated_by".to_string(),
            Json::Str(
                "DAISY_BENCH_JSON=$PWD/BENCH_kernels.json cargo bench -p daisy-bench --bench kernels"
                    .to_string(),
            ),
        ),
        ("host_logical_cores".to_string(), Json::Num(host_cores as f64)),
        (
            "unit".to_string(),
            Json::Str("median ms per iteration".to_string()),
        ),
        (
            "matmul_isa".to_string(),
            Json::Str(linalg::matmul_isa().to_string()),
        ),
    ];
    if host_cores < 4 {
        root.push((
            "note".to_string(),
            Json::Str(format!(
                "host exposes only {host_cores} logical core(s); @4t rows \
measure pool overhead under oversubscription, not parallel speedup — re-run on a \
4+ core host to observe scaling"
            )),
        ));
    }
    let entries = recs
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("name".to_string(), Json::Str(r.name.clone())),
                ("threads".to_string(), Json::Num(r.threads as f64)),
                (
                    "median_ms".to_string(),
                    Json::Num((r.median_ms * 1e3).round() / 1e3),
                ),
                ("samples".to_string(), Json::Num(r.samples as f64)),
            ])
        })
        .collect();
    root.push(("entries".to_string(), Json::Arr(entries)));
    Json::Obj(root)
}

fn write_json(path: &str, host_cores: usize) {
    let report = bench_report(host_cores);
    let mut body = report.to_pretty();
    body.push('\n');
    match std::fs::write(path, body) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!(
            "warning: DAISY_BENCH_JSON={path} is not writable ({e}); report not saved"
        ),
    }
}

/// Measures what the telemetry layer costs: the hottest kernel and one
/// full GAN epoch, each with tracing disabled (the no-op gate) and with
/// a live in-memory recorder (metric observation on every kernel
/// dispatch, events at epoch granularity).
fn bench_telemetry_overhead() {
    pool::set_threads(1);
    let mut rng = Rng::seed_from_u64(7);
    let a = Tensor::randn(&[128, 256], &mut rng);
    let b = Tensor::randn(&[256, 128], &mut rng);
    bench("matmul_128x256x128_telemetry_off", 20, || {
        black_box(a.matmul(&b));
    });
    let rec: Arc<MemoryRecorder> = Arc::new(MemoryRecorder::new());
    daisy_telemetry::with_recorder(rec, || {
        bench("matmul_128x256x128_telemetry_on", 20, || {
            black_box(a.matmul(&b));
        });
    });

    let spec = by_name("Adult").unwrap();
    let table = spec.generate(1000, 3);
    let codec = RecordCodec::fit(&table, &TransformConfig::gn_ht());
    let data = TrainingData::from_table(&table, &codec);
    let spans = softmax_spans(&codec.output_blocks());
    let epoch = || {
        let mut rng = Rng::seed_from_u64(4);
        let g = MlpGenerator::new(24, 0, &[64, 64], codec.output_blocks(), &mut rng);
        let d = MlpDiscriminator::new(codec.width(), 0, &[64], &mut rng);
        let mut step_rng = Rng::seed_from_u64(5);
        let mut cfg = TrainConfig::vtrain(1);
        cfg.batch_size = 64;
        cfg.epochs = 1;
        black_box(
            train_gan(&g, &d, &data, &spans, &cfg, &mut step_rng)
                .expect("bench iteration trains"),
        );
    };
    bench("gan_epoch_mlp_telemetry_off", 10, epoch);
    let rec: Arc<MemoryRecorder> = Arc::new(MemoryRecorder::new());
    daisy_telemetry::with_recorder(rec, || {
        bench("gan_epoch_mlp_telemetry_on", 10, epoch);
    });

    // Phase-profiler overhead (PR 8 acceptance): the same epoch with
    // profiling disabled (one relaxed atomic load per scope) and
    // enabled (two Instant reads + a BTreeMap update per scope).
    daisy_telemetry::profile::set_enabled(false);
    bench("gan_epoch_mlp_profile_off", 10, epoch);
    daisy_telemetry::profile::set_enabled(true);
    bench("gan_epoch_mlp_profile_on", 10, epoch);
    daisy_telemetry::profile::set_enabled(false);
    daisy_telemetry::profile::reset();
}

fn main() {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "== kernel microbenchmarks (host logical cores: {host_cores}, matmul body: {}) ==",
        linalg::matmul_isa()
    );
    bench_matmul_references();
    for threads in [1usize, 4] {
        bench_matmul(threads);
        bench_conv(threads);
        bench_reductions(threads);
        bench_gan_epoch(threads);
    }
    bench_fit_cell_shapes();
    bench_transform();
    bench_telemetry_overhead();
    pool::set_threads(1);
    if let Some(path) = daisy_telemetry::knobs::raw("DAISY_BENCH_JSON") {
        let path = if path == "1" || path.is_empty() {
            "BENCH_kernels.json".to_string()
        } else {
            path
        };
        write_json(&path, host_cores);
    }
}
