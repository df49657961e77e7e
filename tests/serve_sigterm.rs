//! SIGTERM reaches a server blocked in `accept`.
//!
//! The signal handler only sets a process-wide flag; while
//! `Server::run` is live, its lifecycle thread turns that flag into a
//! drain whose wake connection returns the blocking `accept`. This
//! drives the same path through `shutdown::request_drain_for_tests`.
//!
//! Lives in its own test binary: the flag is process-global and never
//! clears, so any other server in the same process would drain too.

use daisy::prelude::*;
use daisy::serve::shutdown;
use daisy::telemetry::duration_ms;
use std::sync::mpsc;

#[test]
fn the_sigterm_flag_drains_an_idle_server() {
    let spec = daisy::datasets::by_name("Adult").unwrap();
    let table = spec.generate(300, 3);
    let mut tc = TrainConfig::ctrain(20);
    tc.batch_size = 32;
    tc.epochs = 1;
    let mut cfg = SynthesizerConfig::new(NetworkKind::Mlp, tc);
    cfg.g_hidden = vec![16];
    cfg.d_hidden = vec![16];
    let path = std::env::temp_dir().join("daisy-serve-sigterm-model.bin");
    Synthesizer::fit(&table, &cfg)
        .save(&path)
        .expect("test model saves");

    let server = Server::bind(&path, "127.0.0.1:0", ServeConfig::default()).expect("server binds");
    let drain = server.drain_handle();
    let (tx, done) = mpsc::channel();
    // daisy-lint: allow(D003) -- test server thread; the test joins it with a bounded wait
    std::thread::spawn(move || {
        let _ = tx.send(server.run());
    });
    assert!(
        done.recv_timeout(duration_ms(100)).is_err(),
        "run returned before the signal"
    );

    shutdown::request_drain_for_tests();
    match done.recv_timeout(duration_ms(5_000)) {
        Ok(result) => result.expect("a signalled drain returns Ok"),
        Err(_) => panic!("run did not return within 5 s of the SIGTERM flag"),
    }
    assert!(
        drain.draining(),
        "the signal reached the shared drain state"
    );
}
