//! Microbenchmarks for the hot kernels under the study: matmul,
//! convolution, record transformation, and one full GAN training epoch
//! per network family — each measured serial (1 thread) and parallel
//! (4 threads) against the pre-parallel naive reference kernels — plus
//! the matmul shapes that dominate a perfbench `fit_cell` (the LSTM
//! gate products and the classifier zoo's logistic regression). The
//! report names the matmul body it timed (`matmul_isa`).
//! Timing and the report go through [`daisy_bench::micro`].
//!
//! Set `DAISY_BENCH_JSON=<path>` to also write the measurements as JSON
//! (the committed `BENCH_kernels.json` at the repo root is produced this
//! way); see `docs/PERFORMANCE.md` for the runbook and how to read it.

use daisy_bench::micro::{host_cores, Report};
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
use std::sync::Arc;

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

fn bench_matmul_references(r: &mut Report) {
    // "Before" numbers: the naive serial kernel, single-threaded.
    pool::set_threads(1);
    let mut rng = Rng::seed_from_u64(0);
    let a = Tensor::randn(&[128, 256], &mut rng);
    let b = Tensor::randn(&[256, 128], &mut rng);
    r.time("matmul_naive_128x256x128", 20, || {
        black_box(matmul_naive(&a, &b));
    });
    let a5 = Tensor::randn(&[512, 512], &mut rng);
    let b5 = Tensor::randn(&[512, 512], &mut rng);
    r.time("matmul_naive_512x512x512", 10, || {
        black_box(matmul_naive(&a5, &b5));
    });
}

/// `matmul`, `matmul_tn` and `matmul_nt` at each `MxKxN` shape, fed the
/// same product (the transposed variants get pre-transposed copies of
/// `A` or `B`), so their rows compare equal work.
fn bench_matmul(r: &mut Report, threads: usize) {
    pool::set_threads(threads);
    let mut rng = Rng::seed_from_u64(0);
    for (m, k, n, samples) in [(128, 256, 128, 20), (512, 512, 512, 10)] {
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let (at, bt) = (a.transpose(), b.transpose());
        let shape = format!("{m}x{k}x{n}@{threads}t");
        r.time(&format!("matmul_{shape}"), samples, || {
            black_box(a.matmul(&b));
        });
        r.time(&format!("matmul_tn_{shape}"), samples, || {
            black_box(at.matmul_tn(&b));
        });
        r.time(&format!("matmul_nt_{shape}"), samples, || {
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
fn bench_fit_cell_shapes(r: &mut Report) {
    pool::set_threads(1);
    let mut rng = Rng::seed_from_u64(8);
    let x = Tensor::randn(&[48, 48], &mut rng);
    let w = Tensor::randn(&[48, 192], &mut rng);
    let d_gates = Tensor::randn(&[48, 192], &mut rng);
    r.time("matmul_48x48x192@1t", 200, || {
        black_box(x.matmul(&w));
    });
    r.time("matmul_nt_48x192x48@1t", 200, || {
        black_box(d_gates.matmul_nt(&w));
    });
    r.time("matmul_tn_48x48x192@1t", 200, || {
        black_box(x.matmul_tn(&d_gates));
    });

    let table = by_name("Adult").unwrap().generate(1066, 9);
    let features = FeatureSpace::fit(&table).transform(&table);
    let d = features.cols();
    let lr_w = Tensor::randn(&[d, 2], &mut rng);
    let delta = Tensor::randn(&[1066, 2], &mut rng);
    r.time(&format!("matmul_1066x{d}x2@1t"), 100, || {
        black_box(features.matmul(&lr_w));
    });
    r.time(&format!("matmul_tn_{d}x1066x2@1t"), 100, || {
        black_box(features.matmul_tn(&delta));
    });
}

fn bench_conv(r: &mut Report, threads: usize) {
    pool::set_threads(threads);
    let mut rng = Rng::seed_from_u64(1);
    let x = Tensor::randn(&[32, 8, 8, 8], &mut rng);
    let w = Tensor::randn(&[16, 8, 3, 3], &mut rng);
    r.time(&format!("conv2d_32x8x8x8_k3@{threads}t"), 20, || {
        black_box(daisy_tensor::conv::conv2d(&x, &w, 1, 1));
    });
    let x2 = Tensor::randn(&[64, 16, 16, 16], &mut rng);
    let w2 = Tensor::randn(&[32, 16, 4, 4], &mut rng);
    r.time(&format!("conv2d_64x16x16x16_k4s2@{threads}t"), 10, || {
        black_box(daisy_tensor::conv::conv2d(&x2, &w2, 2, 1));
    });
}

fn bench_reductions(r: &mut Report, threads: usize) {
    pool::set_threads(threads);
    let mut rng = Rng::seed_from_u64(6);
    let a = Tensor::randn(&[512, 512], &mut rng);
    let b = Tensor::randn(&[512, 512], &mut rng);
    r.time(&format!("sum_512x512@{threads}t"), 50, || {
        black_box(a.sum());
    });
    r.time(&format!("mul_512x512@{threads}t"), 50, || {
        black_box(a.mul(&b));
    });
    r.time(&format!("softmax_rows_512x512@{threads}t"), 20, || {
        black_box(a.softmax_rows());
    });
}

fn bench_transform(r: &mut Report) {
    pool::set_threads(1);
    let spec = by_name("Adult").unwrap();
    let table = spec.generate(2000, 2);
    let codec = RecordCodec::fit(&table, &TransformConfig::gn_ht());
    r.time("encode_adult_2000_gn_ht", 10, || {
        black_box(codec.encode_table(&table));
    });
    let encoded = codec.encode_table(&table);
    r.time("decode_adult_2000_gn_ht", 10, || {
        black_box(codec.decode_table(&encoded));
    });
}

/// End-to-end epoch time: one full VTrain epoch (all D and G steps over
/// the dataset) per network family, serial vs parallel.
fn bench_gan_epoch(r: &mut Report, threads: usize) {
    pool::set_threads(threads);
    let spec = by_name("Adult").unwrap();
    let table = spec.generate(1000, 3);
    let codec = RecordCodec::fit(&table, &TransformConfig::gn_ht());
    let data = TrainingData::from_table(&table, &codec);
    let spans = softmax_spans(&codec.output_blocks());
    for network in [NetworkKind::Mlp, NetworkKind::Lstm] {
        let name = format!("gan_epoch_{}@{threads}t", network.name().to_lowercase());
        r.time(&name, 10, || {
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

/// Measures what the telemetry layer costs: the hottest kernel and one
/// full GAN epoch, each with tracing disabled (the no-op gate) and with
/// a live in-memory recorder (metric observation on every kernel
/// dispatch, events at epoch granularity).
fn bench_telemetry_overhead(r: &mut Report) {
    pool::set_threads(1);
    let mut rng = Rng::seed_from_u64(7);
    let a = Tensor::randn(&[128, 256], &mut rng);
    let b = Tensor::randn(&[256, 128], &mut rng);
    r.time("matmul_128x256x128_telemetry_off", 20, || {
        black_box(a.matmul(&b));
    });
    let rec: Arc<MemoryRecorder> = Arc::new(MemoryRecorder::new());
    daisy_telemetry::with_recorder(rec, || {
        r.time("matmul_128x256x128_telemetry_on", 20, || {
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
            train_gan(&g, &d, &data, &spans, &cfg, &mut step_rng).expect("bench iteration trains"),
        );
    };
    r.time("gan_epoch_mlp_telemetry_off", 10, epoch);
    let rec: Arc<MemoryRecorder> = Arc::new(MemoryRecorder::new());
    daisy_telemetry::with_recorder(rec, || {
        r.time("gan_epoch_mlp_telemetry_on", 10, epoch);
    });

    // Phase-profiler overhead (PR 8 acceptance): the same epoch with
    // profiling disabled (one relaxed atomic load per scope) and
    // enabled (two Instant reads + a BTreeMap update per scope).
    daisy_telemetry::profile::set_enabled(false);
    r.time("gan_epoch_mlp_profile_off", 10, epoch);
    daisy_telemetry::profile::set_enabled(true);
    r.time("gan_epoch_mlp_profile_on", 10, epoch);
    daisy_telemetry::profile::set_enabled(false);
    daisy_telemetry::profile::reset();
}

fn main() {
    let host_cores = host_cores();
    let isa = linalg::matmul_isa();
    println!("== kernel microbenchmarks (host logical cores: {host_cores}, matmul body: {isa}) ==");
    let mut r = Report::new("kernels", "ms per iteration");
    r.header("matmul_isa", Json::Str(isa.to_string()));
    if host_cores < 4 {
        r.header(
            "note",
            Json::Str(format!(
                "host exposes only {host_cores} logical core(s); @4t rows \
measure pool overhead under oversubscription, not parallel speedup — re-run on a \
4+ core host to observe scaling"
            )),
        );
    }
    bench_matmul_references(&mut r);
    for threads in [1usize, 4] {
        bench_matmul(&mut r, threads);
        bench_conv(&mut r, threads);
        bench_reductions(&mut r, threads);
        bench_gan_epoch(&mut r, threads);
    }
    bench_fit_cell_shapes(&mut r);
    bench_transform(&mut r);
    bench_telemetry_overhead(&mut r);
    pool::set_threads(1);
    r.finish();
}
