//! Fresh connection threads pay for no working set. Generation runs
//! under `no_grad`, so a forward keeps no autodiff graph: each
//! intermediate tensor is freed as soon as the forward moves past it,
//! and a request served on a freshly spawned thread reuses memory the
//! process has already touched. The guard counts the serving thread's
//! minor page faults around one in-memory `serve_connection` call,
//! read from `/proc/thread-self/stat` (Linux only).

#![cfg(target_os = "linux")]

use daisy::prelude::*;
use daisy::serve::{serve_connection, write_frame, ServeState};
use daisy::tensor::pool;

/// Fresh threads measured, one request each; the median is gated.
const THREADS: usize = 21;

/// Highest median minor-fault count one fresh-thread request may take.
/// A forward that kept its graph took ≈330 here (≈1.3 MiB), and ≈400
/// for perfbench's larger served model.
const MAX_MEDIAN_FAULTS: u64 = 64;

/// This thread's minor page faults so far: field 10 of its stat line.
/// The command name (field 2) is parenthesised and may hold spaces, so
/// fields are counted from the last `)`.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat")
        .expect("/proc/thread-self/stat is readable");
    let after_comm = &stat[stat.rfind(')').expect("stat line names its command") + 1..];
    after_comm
        .split_whitespace()
        .nth(7)
        .expect("stat line has a minflt field")
        .parse()
        .expect("minflt is a number")
}

/// The serve bench's model (MLP, one hidden layer of 32, VTrain on the
/// Adult stand-in), decoded from its saved bytes as a server holds it.
fn served_model() -> FittedSynthesizer {
    let table = daisy::datasets::by_name("Adult").unwrap().generate(600, 3);
    let mut tc = TrainConfig::vtrain(10);
    tc.batch_size = 32;
    tc.epochs = 1;
    let mut cfg = SynthesizerConfig::new(NetworkKind::Mlp, tc);
    cfg.g_hidden = vec![32];
    cfg.d_hidden = vec![32];
    let fitted = Synthesizer::fit(&table, &cfg);
    FittedSynthesizer::from_bytes(&fitted.to_bytes()).expect("model decodes")
}

#[test]
fn a_request_on_a_fresh_thread_touches_no_new_memory() {
    // One pool thread: every kernel runs, and faults, on the serving
    // thread, so its count is the whole request.
    pool::set_threads(1);
    let model = served_model();
    let cfg = ServeConfig::default();
    let state = ServeState::default();
    let mut input = Vec::new();
    write_frame(&mut input, &Request::new(7, 256).encode()).expect("writing to a Vec cannot fail");
    let serve = || {
        let before = minor_faults();
        serve_connection(
            &model,
            0,
            &cfg,
            &state,
            &mut &input[..],
            &mut std::io::sink(),
        )
        .expect("in-memory connection serves cleanly");
        minor_faults() - before
    };
    // Warm the process once: lazy statics, metric registration and the
    // allocator's first heap are not a per-request cost.
    serve();
    let mut faults: Vec<u64> = (0..THREADS)
        .map(|_| {
            std::thread::scope(|s| {
                // daisy-lint: allow(D003) -- a fresh thread per request is what is measured
                s.spawn(serve).join().expect("serving thread joins")
            })
        })
        .collect();
    faults.sort_unstable();
    let median = faults[THREADS / 2];
    assert!(
        median <= MAX_MEDIAN_FAULTS,
        "a 256-row request on a fresh thread took a median {median} minor faults \
         (limit {MAX_MEDIAN_FAULTS}); per thread, sorted: {faults:?}"
    );
}
