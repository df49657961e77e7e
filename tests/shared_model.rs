//! One decoded model, many threads: generation only reads the model,
//! so a serving process shares one `Arc<FittedSynthesizer>` across all
//! its connections. These tests race streams on that shared model and
//! pin that each thread's rows equal the same request streamed alone,
//! bit for bit — for every generator family, plain and label-pinned.

use daisy::prelude::*;
use std::sync::{Arc, Barrier};

// A fitted model may cross and be shared between threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FittedSynthesizer>();
};

/// Rows per request: several generation batches plus a ragged tail, so
/// the racing streams interleave at many batch boundaries.
const ROWS: usize = 3 * 256 + 17;

/// One streamed request: a seed and an optional pinned label.
#[derive(Clone)]
struct Req {
    seed: u64,
    condition: Option<String>,
}

fn plain(seed: u64) -> Req {
    Req {
        seed,
        condition: None,
    }
}

/// Fits a small model of `network` on the Adult stand-in and returns it
/// decoded from its saved bytes, as a server would hold it.
fn served_model(network: NetworkKind, conditional: bool) -> Arc<FittedSynthesizer> {
    let table = daisy::datasets::by_name("Adult").unwrap().generate(300, 4);
    let mut tc = if conditional {
        TrainConfig::ctrain(30)
    } else {
        TrainConfig::vtrain(30)
    };
    tc.batch_size = 32;
    tc.epochs = 1;
    let mut cfg = SynthesizerConfig::new(network, tc);
    cfg.g_hidden = vec![16];
    cfg.d_hidden = vec![16];
    cfg.cnn_channels = 4;
    cfg.g_batchnorm = true;
    let fitted = Synthesizer::fit(&table, &cfg);
    let decoded = FittedSynthesizer::from_bytes(&fitted.to_bytes()).expect("model decodes");
    Arc::new(decoded)
}

/// Streams `req` to completion and returns every value's bits in row
/// order, calling `after_batch` once per generated batch.
fn stream_bits(model: &FittedSynthesizer, req: &Req, after_batch: impl Fn()) -> Vec<u64> {
    let mut stream = model
        .try_stream_rows(ROWS, req.seed, req.condition.as_deref())
        .expect("valid request");
    let mut bits = Vec::new();
    while let Some(batch) = stream.next_batch() {
        for i in 0..batch.n_rows() {
            for col in batch.columns() {
                bits.push(match col {
                    Column::Num(v) => v[i].to_bits(),
                    Column::Cat { codes, .. } => u64::from(codes[i]),
                });
            }
        }
        after_batch();
    }
    bits
}

/// Streams every request on its own thread at once, all sharing
/// `model`. A barrier after each batch keeps the streams in lockstep,
/// so every batch of one stream overlaps a batch of the others.
fn stream_concurrently(model: &Arc<FittedSynthesizer>, requests: &[Req]) -> Vec<Vec<u64>> {
    let barrier = Arc::new(Barrier::new(requests.len()));
    let handles: Vec<_> = requests
        .iter()
        .cloned()
        .map(|req| {
            let model = Arc::clone(model);
            let barrier = Arc::clone(&barrier);
            // daisy-lint: allow(D003) -- racing test streams; each must equal its solo stream bit for bit
            std::thread::spawn(move || {
                stream_bits(&model, &req, || {
                    barrier.wait();
                })
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("stream thread panicked"))
        .collect()
}

fn assert_concurrent_equals_solo(model: &Arc<FittedSynthesizer>, requests: &[Req]) {
    let raced = stream_concurrently(model, requests);
    for (req, bits) in requests.iter().zip(&raced) {
        let solo = stream_bits(model, req, || {});
        assert!(!solo.is_empty());
        assert!(
            *bits == solo,
            "seed {} condition {:?}: the raced stream diverged from the solo stream",
            req.seed,
            req.condition
        );
    }
}

#[test]
fn unconditional_mlp_with_batchnorm_streams_identically_on_two_threads() {
    let model = served_model(NetworkKind::Mlp, false);
    assert!(model.config().g_batchnorm && !model.is_conditional());
    assert_concurrent_equals_solo(&model, &[plain(1), plain(2)]);
}

#[test]
fn lstm_plain_and_pinned_streams_identically_on_two_threads() {
    let model = served_model(NetworkKind::Lstm, true);
    let pinned = Req {
        seed: 4,
        condition: Some(model.condition_categories()[1].clone()),
    };
    assert_concurrent_equals_solo(&model, &[plain(3), pinned]);
}

#[test]
fn cnn_streams_identically_on_two_threads() {
    let model = served_model(NetworkKind::Cnn, false);
    // The same request on both threads: identical work, racing.
    assert_concurrent_equals_solo(&model, &[plain(5), plain(5)]);
}
