//! Integration tests for the serving plane: the reproducibility,
//! backpressure, and typed-failure contracts `docs/SERVING.md`
//! documents. The server streams rows over the daisy-wire framed
//! protocol; these tests pin that the bytes on the wire are a pure
//! function of `(model file, request)` — independent of connection
//! interleaving and worker thread count — and that failure paths are
//! typed errors, never panics.

use daisy::prelude::*;
use daisy::serve::{
    decode_response, fetch, fetch_raw, load_model, read_frame, serve_connection, write_frame,
    Header, ServeState, MAX_REQUEST_FRAME,
};
use daisy::tensor::pool;
use std::io::Read;
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::OnceLock;

/// Trains one small conditional model (CTrain ⇒ label-conditioned
/// generator) and saves it once for the whole test binary.
fn model_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let spec = daisy::datasets::by_name("Adult").unwrap();
        let table = spec.generate(500, 3);
        let mut tc = TrainConfig::ctrain(60);
        tc.batch_size = 32;
        tc.epochs = 1;
        let mut cfg = SynthesizerConfig::new(NetworkKind::Mlp, tc);
        cfg.g_hidden = vec![16];
        cfg.d_hidden = vec![16];
        let fitted = Synthesizer::fit(&table, &cfg);
        let path = std::env::temp_dir().join("daisy-serve-stream-model.bin");
        fitted.save(&path).expect("test model saves");
        path
    })
}

/// Encodes `request` as the client would put it on the wire.
fn request_bytes(request: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, &request.encode()).expect("writing to a Vec cannot fail");
    buf
}

/// Serves `input` through an in-memory connection and returns the raw
/// response bytes.
fn serve_in_memory(input: &[u8], cfg: &ServeConfig) -> Vec<u8> {
    let (_bytes, model) = load_model(model_path()).expect("test model loads");
    let mut input = input;
    let mut output = Vec::new();
    serve_connection(&model, 0, cfg, &ServeState::default(), &mut input, &mut output)
        .expect("connection serves cleanly");
    output
}

#[test]
fn same_request_yields_identical_bytes_at_any_thread_count() {
    let request = Request::new(41, 700);
    let input = request_bytes(&request);
    let cfg = ServeConfig::default();

    pool::set_threads(1);
    let serial_a = serve_in_memory(&input, &cfg);
    let serial_b = serve_in_memory(&input, &cfg);
    assert_eq!(serial_a, serial_b, "replay must be byte-identical");

    pool::set_threads(4);
    let parallel = serve_in_memory(&input, &cfg);
    pool::set_threads(1);
    assert_eq!(
        serial_a, parallel,
        "worker thread count must not leak into the stream"
    );

    let response = decode_response(&serial_a).expect("stream decodes");
    assert_eq!(response.rows.len(), 700);
    assert_eq!(response.seed, 41);
}

#[test]
fn concurrent_tcp_clients_replaying_a_seed_get_identical_streams() {
    let server = Server::bind(model_path(), "127.0.0.1:0", ServeConfig::default())
        .expect("server binds");
    let addr = server.local_addr().expect("server has an address");
    // daisy-lint: allow(D003) -- test server thread; responses are seed-reproducible
    std::thread::spawn(move || {
        let _ = server.run();
    });

    let request = Request::new(9, 600);
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let request = request.clone();
            // daisy-lint: allow(D003) -- racing test clients; streams must be byte-identical
            std::thread::spawn(move || fetch_raw(addr, &request).expect("fetch succeeds"))
        })
        .collect();
    let streams: Vec<Vec<u8>> = handles
        .into_iter()
        .map(|h| h.join().expect("client joins"))
        .collect();
    assert_eq!(
        streams[0], streams[1],
        "concurrent replays of one seed must be byte-identical"
    );
    let response = decode_response(&streams[0]).expect("stream decodes");
    assert_eq!(response.rows.len(), 600);
}

#[test]
fn conditional_requests_pin_every_label_cell() {
    let (_bytes, model) = load_model(model_path()).expect("test model loads");
    assert!(model.is_conditional(), "CTrain model must be conditional");
    let category = model.condition_categories()[1].clone();
    let label_col = model
        .output_template()
        .schema()
        .label()
        .expect("conditional model has a label column");

    let server = Server::bind(model_path(), "127.0.0.1:0", ServeConfig::default())
        .expect("server binds");
    let addr = server.local_addr().expect("server has an address");
    // daisy-lint: allow(D003) -- test server thread; responses are seed-reproducible
    std::thread::spawn(move || {
        let _ = server.run();
    });

    let response = fetch(addr, &Request::conditioned(3, 300, &category)).expect("fetch succeeds");
    assert_eq!(response.condition.as_deref(), Some(category.as_str()));
    assert_eq!(response.rows.len(), 300);
    for row in &response.rows {
        assert_eq!(
            response.columns[label_col]
                .render_cell(&row[label_col])
                .unwrap(),
            category,
            "a conditioned stream must pin the label column"
        );
    }
}

#[test]
fn client_disconnect_mid_stream_frees_the_connection_slot() {
    let cfg = ServeConfig {
        max_conn: 1,
        ..ServeConfig::default()
    };
    let server = Server::bind(model_path(), "127.0.0.1:0", cfg).expect("server binds");
    let addr = server.local_addr().expect("server has an address");
    // daisy-lint: allow(D003) -- test server thread; responses are seed-reproducible
    std::thread::spawn(move || {
        let _ = server.run();
    });

    // Claim the only slot, read a sliver of the response, and vanish.
    {
        let mut stream = TcpStream::connect(addr).expect("first client connects");
        write_frame(&mut stream, &Request::new(1, 50_000).encode()).expect("request sends");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut sliver = [0u8; 64];
        stream.read_exact(&mut sliver).expect("stream started");
    } // dropped mid-stream

    // If the slot leaked, this second fetch would block forever on the
    // kernel backlog and the test would time out.
    let response = fetch(addr, &Request::new(2, 40)).expect("slot was released");
    assert_eq!(response.rows.len(), 40);
}

#[test]
fn corrupt_model_files_are_typed_errors_and_quarantined() {
    let dir = std::env::temp_dir().join("daisy-serve-corrupt-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let bad = dir.join("model.bin");
    let mut bytes = std::fs::read(model_path()).expect("test model bytes");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&bad, &bytes).expect("corrupt model written");

    let Err(ServeError::CorruptModel { error, quarantined }) = load_model(&bad) else {
        panic!("a corrupted model must be a typed CorruptModel error");
    };
    assert!(!error.is_empty(), "diagnosis must name the failure");
    let moved = quarantined.expect("bad file is renamed aside");
    assert!(moved.exists(), "quarantine file must exist");
    assert!(
        !bad.exists(),
        "the corrupt file must no longer sit at the model path"
    );
    assert!(
        Server::bind(&bad, "127.0.0.1:0", ServeConfig::default()).is_err(),
        "binding on a missing model must fail, not panic"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejected_requests_leave_the_connection_usable() {
    let cfg = ServeConfig {
        max_rows: 100,
        ..ServeConfig::default()
    };
    // Two requests on one connection: the first breaks the row cap and
    // is rejected; the second must still be answered in full.
    let mut input = request_bytes(&Request::new(1, 1_000));
    input.extend_from_slice(&request_bytes(&Request::new(2, 30)));
    let output = serve_in_memory(&input, &cfg);

    let mut rest = &output[..];
    let first = read_frame(&mut rest, MAX_REQUEST_FRAME * 1024)
        .expect("first response frame reads")
        .expect("first response present");
    let Header::Rejected { reason } = Header::decode(&first).expect("header decodes") else {
        panic!("over-cap request must be rejected");
    };
    assert!(
        reason.contains("100"),
        "rejection must name the cap: {reason}"
    );
    let second = decode_response(rest).expect("connection stays usable after a rejection");
    assert_eq!(second.rows.len(), 30);

    // An impossible condition is the same shape of failure over TCP.
    let server = Server::bind(model_path(), "127.0.0.1:0", ServeConfig::default())
        .expect("server binds");
    let addr = server.local_addr().expect("server has an address");
    // daisy-lint: allow(D003) -- test server thread; responses are seed-reproducible
    std::thread::spawn(move || {
        let _ = server.run();
    });
    let Err(ServeError::Rejected(reason)) =
        fetch(addr, &Request::conditioned(1, 10, "no-such-category"))
    else {
        panic!("an unknown category must be a typed rejection");
    };
    assert!(reason.contains("no-such-category"), "got: {reason}");
}

#[test]
fn daisy_rows_writes_csv_that_read_csv_reads_back() {
    use daisy::data::csv::{escape_cell, read_csv};

    // A column name with a comma, categories with a comma and a quote.
    let mut csv = String::from("\"a,b\",num,label\n");
    for i in 0..240 {
        let cat = ["\"x, y\"", "\"q\"\"r\"", "plain"][i % 3];
        let label = ["p", "n"][(i / 3) % 2];
        csv.push_str(&format!("{cat},{},{label}\n", (i % 17) as f64 * 0.5));
    }
    let table = read_csv(csv.as_bytes(), Some("label")).expect("fixture parses");
    let mut tc = TrainConfig::vtrain(20);
    tc.batch_size = 32;
    tc.epochs = 1;
    let mut cfg = SynthesizerConfig::new(NetworkKind::Mlp, tc);
    cfg.g_hidden = vec![16];
    cfg.d_hidden = vec![16];
    let dir = std::env::temp_dir().join(format!("daisy-rows-csv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let model = dir.join("model.bin");
    Synthesizer::fit(&table, &cfg)
        .save(&model)
        .expect("model saves");

    let server = Server::bind(&model, "127.0.0.1:0", ServeConfig::default()).expect("server binds");
    let addr = server.local_addr().expect("server has an address");
    // daisy-lint: allow(D003) -- test server thread; responses are seed-reproducible
    std::thread::spawn(move || {
        let _ = server.run();
    });

    let out = dir.join("rows.csv");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_daisy"))
        .args([
            "rows",
            &addr.to_string(),
            "--rows",
            "300",
            "--seed",
            "7",
            "--out",
        ])
        .arg(&out)
        .status()
        .expect("daisy rows runs");
    assert!(status.success(), "daisy rows failed: {status}");
    let file = std::fs::File::open(&out).expect("rows file opens");
    let read = read_csv(std::io::BufReader::new(file), None).expect("read_csv reads daisy rows");
    let response = fetch(addr, &Request::new(7, 300)).expect("fetch succeeds");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(read.n_rows(), 300);
    let names: Vec<&str> = read
        .schema()
        .attrs()
        .iter()
        .map(|a| a.name.as_str())
        .collect();
    assert_eq!(names, ["a,b", "num", "label"]);
    let mut quoted = 0;
    for (i, row) in response.rows.iter().enumerate() {
        for (j, value) in row.iter().enumerate() {
            let cell = match read.column(j) {
                Column::Num(v) => format!("{}", v[i]),
                Column::Cat { codes, categories } => {
                    escape_cell(&categories[codes[i] as usize]).expect("no line break")
                }
            };
            let rendered = response.columns[j].render_cell(value).expect("renders");
            assert_eq!(cell, rendered, "row {i}, column {j}");
            quoted += usize::from(rendered.starts_with('"'));
        }
    }
    assert!(quoted > 0, "the stream exercised no quoted category");
}
