//! `daisy` — command-line relational data synthesis.
//!
//! ```text
//! daisy demo --out real.csv                         # write a demo table
//! daisy synth real.csv --label income --out fake.csv
//! daisy evaluate real.csv fake.csv --label income   # utility + privacy
//! daisy lint --json                                 # workspace static analysis
//! ```
//!
//! Argument parsing is deliberately hand-rolled (no CLI dependency);
//! see `daisy --help`.

use daisy::prelude::*;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

mod top;

const HELP: &str = "\
daisy — GAN-based relational data synthesis (Fan et al., PVLDB 2020, in Rust)

USAGE:
    daisy demo --out <FILE> [--rows N] [--dataset NAME]
    daisy synth <REAL.csv> --out <FILE> [OPTIONS]
    daisy generate <MODEL.daisy> --out <FILE> --rows N [--seed N]
    daisy evaluate <REAL.csv> <SYNTH.csv> [--label COL]
    daisy describe <TABLE.csv> [--label COL]
    daisy ingest <INPUT.csv> --out <DIR> [OPTIONS]
    daisy serve <MODEL.daisy> [--addr HOST:PORT] [--stdio] [--shed]
                [--timeout-ms N] [--drain-ms N]
    daisy rows <ADDR> --rows N [--seed N] [--condition CAT] [--out FILE]
                [--retries N] [--start-row N] [--resume]
    daisy reload <ADMIN_ADDR>
    daisy top <ADMIN_ADDR> [--interval SECS] [--once]
    daisy top --trace <TRACE.jsonl>
    daisy report <TRACE.jsonl> [--validate]
    daisy lint [--format human|json|sarif] [--root DIR] [--list-rules]
    daisy knobs

SYNTH OPTIONS:
    --label COL          label column name (enables conditional training)
    --rows N             synthetic rows to emit (default: input size)
    --network KIND       mlp | lstm | cnn          (default: mlp)
    --train ALGO         vtrain | wtrain | ctrain  (default: vtrain,
                         ctrain when --label is given and skew > 9)
    --transform SCHEME   sn/od | sn/ht | gn/od | gn/ht (default: gn/ht)
    --iterations N       generator iterations (default: 1500)
    --epsilon E          train with DPTrain at privacy budget E
    --seed N             RNG seed (default: 7)
    --save FILE          also save the fitted model (reuse with `generate`)

DEMO OPTIONS:
    --dataset NAME       HTRU2|Digits|Adult|CovType|SAT|Anuran|Census|Bing
                         (default: Adult)
    --rows N             rows to generate (default: 3000)

INGEST OPTIONS:
    --out DIR            store directory to create/resume (required)
    --label COL          label column name (stored in the manifest)
    --chunk-rows N       accepted rows per sealed chunk (default: 4096)
    --skip-budget N      skip up to N bad rows into DIR/rejected.txt
                         (default: strict — first bad row is a hard error)
    Ingestion is crash-safe: rerunning the same command after an
    interruption resumes from the journal and produces a byte-identical
    store. Corrupt chunks found on resume are set aside as *.corrupt-N.
    DAISY_MEM_BUDGET caps the decoded-chunk cache when training from
    the store (bytes, default 256 MiB).

SERVE OPTIONS:
    --addr HOST:PORT     listen address (default 127.0.0.1:7764; port 0
                         picks an ephemeral port, printed at startup)
    --stdio              serve exactly one connection over stdin/stdout
                         instead of TCP (for pipelines; one process per
                         client)
    --timeout-ms N       per-connection read/write deadline (default
                         30000; 0 disables) — stalled peers are evicted
                         and their slots freed
    --drain-ms N         graceful-drain window on SIGTERM (default
                         5000): stop accepting, let in-flight streams
                         finish, seal stragglers with a typed draining
                         end frame, exit 143
    --shed               when all slots are busy, reject new clients
                         with a typed \"overloaded\" header instead of
                         queueing them in the TCP backlog
    The server streams rows with bounded memory and answers any request
    {seed, rows, start_row, condition?} with byte-identical output on
    replay. DAISY_SERVE_MAX_CONN caps concurrent connections (default
    4); DAISY_SERVE_MAX_ROWS caps rows per request (default 100000000);
    DAISY_SERVE_TIMEOUT_MS / DAISY_SERVE_DRAIN_MS / DAISY_SERVE_SHED=1
    are the environment forms of the flags above. With
    DAISY_SERVE_ADMIN=HOST:PORT set, `daisy reload <ADMIN_ADDR>`
    hot-swaps the (revalidated) model file without dropping streams.
    See docs/SERVING.md for the protocol and runbook.

TOP OPTIONS (live viewer for a running `daisy serve`):
    <ADMIN_ADDR>         the server's admin address — start the server
                         with DAISY_SERVE_ADMIN=HOST:PORT to enable it
    --interval SECS      seconds between refreshes (default: 2)
    --once               print one frame and exit (for scripts)
    --trace FILE         render a recorded DAISY_TRACE file offline
                         instead of polling a server
    Shows requests/sec, rows/sec, interpolated p50/p99 request latency,
    connection occupancy, and the hottest profiled phases (run the
    server with DAISY_PROFILE=1 to populate the phase table).

ROWS OPTIONS (scripted client for a running `daisy serve`):
    --rows N             rows to request (required)
    --seed N             request seed (default: 7); same seed, same rows
    --condition CAT      condition every row on this label category
    --out FILE           write CSV there instead of stdout (streamed
                         and flushed batch by batch)
    --retries N          retry transient failures (torn streams,
                         resets, \"overloaded\", \"draining\") up to N
                         times with deterministic backoff, resuming at
                         the last validated row (default: 5; 0 fails
                         on the first interruption)
    --start-row N        resume the logical stream at row N (the rows
                         before N are skipped server-side; output is
                         byte-identical to the tail of a full fetch)
    --resume             with --out: count the complete rows already in
                         the file, truncate any torn final line, and
                         continue from there

RELOAD (hot model swap on a running `daisy serve`):
    daisy reload <ADMIN_ADDR> revalidates the server's model file and
    atomically swaps it in: in-flight streams finish on the old model,
    new connections use the new one. A corrupt replacement is
    quarantined (*.corrupt-N) and the old model keeps serving.

REPORT OPTIONS:
    --validate           only validate the trace; print the summary line

LINT:
    Statically checks the workspace's own sources against the
    determinism/schema/hygiene/registry rule catalogue (docs/LINTS.md).
    Exit 0 when clean, 1 on findings, 2 on usage or I/O errors.
    --format sarif emits SARIF 2.1.0 for CI code-scanning upload.

KNOBS:
    Prints the registry of every DAISY_* environment variable the
    workspace reads — one per line, tab-separated:
    name, default, owner, description. The same registry the code
    reads through (telemetry::knobs) and the lint checks against.

OBSERVABILITY:
    Set DAISY_TRACE=<path> to record a JSONL event trace of any command
    (training epochs, guard trips, recoveries, model selection); render
    it afterwards with `daisy report`. See docs/OBSERVABILITY.md.
";

fn main() -> ExitCode {
    // Open the DAISY_TRACE sink (if configured) up front so a bad path
    // warns before any work starts; arm the phase profiler when
    // DAISY_PROFILE is set.
    daisy::telemetry::init_from_env();
    daisy::telemetry::profile::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `lint` owns its own exit-code contract (0 clean, 1 findings,
    // 2 usage/IO) and must not print the synthesis HELP on findings,
    // so it bypasses the Result-based dispatch below.
    if args.first().map(String::as_str) == Some("lint") {
        return ExitCode::from(daisy_lint::cli::cli(&args[1..]) as u8);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{HELP}");
            ExitCode::FAILURE
        }
    }
}

/// Pulls `--flag value` out of the argument list, returning the value.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(format!("{flag} requires a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

fn parse_usize(s: &str, what: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("invalid {what}: {s:?}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        println!("{HELP}");
        return Ok(());
    }
    let command = args.remove(0);
    match command.as_str() {
        "demo" => demo(args),
        "synth" => synth(args),
        "evaluate" => evaluate(args),
        "describe" => describe(args),
        "generate" => generate(args),
        "ingest" => ingest(args),
        "serve" => serve(args),
        "rows" => rows(args),
        "reload" => reload(args),
        "top" => top::top(args),
        "report" => report(args),
        "knobs" => {
            print!("{}", daisy::telemetry::knobs::render());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn load_csv(path: &str, label: Option<&str>) -> Result<Table, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    daisy::data::csv::read_csv(BufReader::new(file), label)
        .map_err(|e| format!("cannot parse {path}: {e}"))
}

fn save_csv(table: &Table, path: &str) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    daisy::data::csv::write_csv(table, BufWriter::new(file))
        .map_err(|e| format!("cannot write {path}: {e}"))
}

fn describe(mut args: Vec<String>) -> Result<(), String> {
    let label = take_flag(&mut args, "--label")?;
    let path = args.first().ok_or("describe requires a CSV path")?;
    let table = load_csv(path, label.as_deref())?;
    println!(
        "{path}: {} rows, {} numerical + {} categorical attributes",
        table.n_rows(),
        table.schema().n_numerical(),
        table.schema().n_categorical()
    );
    for (j, attr) in table.schema().attrs().iter().enumerate() {
        match &table.columns()[j] {
            daisy::data::Column::Num(v) => {
                let s = daisy::eval::quantile_summary(v);
                println!(
                    "  {:<24} numeric   min {:.3}  median {:.3}  max {:.3}  mean {:.3}",
                    attr.name, s.min, s.median, s.max, s.mean
                );
            }
            daisy::data::Column::Cat { categories, codes } => {
                let mut counts = vec![0usize; categories.len()];
                for &c in codes {
                    counts[c as usize] += 1;
                }
                let top = counts
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &n)| n)
                    .map(|(i, &n)| format!("{} ({:.1}%)", categories[i], 100.0 * n as f64 / codes.len().max(1) as f64))
                    .unwrap_or_default();
                println!(
                    "  {:<24} categorical  |domain| {}  top {}",
                    attr.name,
                    categories.len(),
                    top
                );
            }
        }
    }
    if table.schema().label().is_some() {
        println!(
            "  label skewness (max/min class ratio): {:.2}{}",
            table.label_skewness(),
            if table.label_skewness() > 9.0 {
                "  -> skew (paper criterion)"
            } else {
                "  -> balanced"
            }
        );
    }
    Ok(())
}

/// Streams a CSV into a crash-safe chunked columnar store. Rerunning
/// after an interruption resumes from the append-only journal; the
/// finished store is byte-identical to an uninterrupted run.
fn ingest(mut args: Vec<String>) -> Result<(), String> {
    let out = take_flag(&mut args, "--out")?.ok_or("ingest requires --out")?;
    let label = take_flag(&mut args, "--label")?;
    let chunk_rows = match take_flag(&mut args, "--chunk-rows")? {
        Some(v) => parse_usize(&v, "--chunk-rows")?,
        None => 4096,
    };
    if chunk_rows == 0 {
        return Err("--chunk-rows must be positive".into());
    }
    let policy = match take_flag(&mut args, "--skip-budget")? {
        Some(v) => daisy::data::RowErrorPolicy::SkipWithBudget {
            budget: parse_usize(&v, "--skip-budget")?,
        },
        None => daisy::data::RowErrorPolicy::Strict,
    };
    let input = args.first().ok_or("ingest requires an input CSV path")?;
    let cfg = daisy::data::IngestConfig {
        chunk_rows,
        label,
        policy,
        ..Default::default()
    };
    let report = daisy::data::ingest_csv(
        std::path::Path::new(input),
        std::path::Path::new(&out),
        &cfg,
    )
    .map_err(|e| format!("ingest failed: {e}"))?;
    if report.already_complete {
        println!(
            "{out}: already complete — {} rows in {} chunks (journal verified)",
            report.rows, report.chunks
        );
        return Ok(());
    }
    if let Some(k) = report.resumed_from_chunk {
        println!("resumed from chunk {k} (journal replay)");
    }
    println!(
        "ingested {} rows into {} chunks at {out} ({} rejected)",
        report.rows, report.chunks, report.rejected
    );
    if report.rejected > 0 {
        println!("rejected rows are quarantined with line numbers in {out}/rejected.txt");
    }
    Ok(())
}

/// Validates a `DAISY_TRACE` JSONL file and renders the run report
/// (loss curve, recovery timeline, model selection, metrics). With
/// `--validate` it stops after validation, so CI can use it as a trace
/// linter: any malformed line is a nonzero exit.
fn report(mut args: Vec<String>) -> Result<(), String> {
    let validate_only = if let Some(pos) = args.iter().position(|a| a == "--validate") {
        args.remove(pos);
        true
    } else {
        false
    };
    let path = args.first().ok_or("report requires a trace path")?;
    let jsonl = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    // A crashed or killed recorder can leave a half-written final
    // line; that must not make the rest of the run unreadable. Only
    // the last line is forgiven — garbage anywhere else still fails.
    let (intact, torn) = daisy::telemetry::trace::split_torn_tail(&jsonl);
    if let Some(line) = torn {
        eprintln!(
            "warning: {path}: ignoring torn final line ({} bytes) — the recorder was \
             likely interrupted mid-write",
            line.len()
        );
    }
    let report = daisy::telemetry::RunReport::from_jsonl(intact)
        .map_err(|e| format!("invalid trace {path}: {e}"))?;
    if validate_only {
        let stats = report.stats();
        println!(
            "{path}: valid — {} events ({} non-deterministic), {} event types",
            stats.events,
            stats.nd_events,
            stats.names.len()
        );
    } else {
        print!("{}", report.render());
    }
    Ok(())
}

/// Runs the streaming generation service over a sealed model file.
/// TCP by default; `--stdio` serves one connection over stdin/stdout.
fn serve(mut args: Vec<String>) -> Result<(), String> {
    let addr = take_flag(&mut args, "--addr")?.unwrap_or_else(|| "127.0.0.1:7764".into());
    let stdio = if let Some(pos) = args.iter().position(|a| a == "--stdio") {
        args.remove(pos);
        true
    } else {
        false
    };
    let mut cfg = ServeConfig::from_env();
    if let Some(v) = take_flag(&mut args, "--timeout-ms")? {
        cfg.timeout_ms = parse_usize(&v, "--timeout-ms")? as u64;
    }
    if let Some(v) = take_flag(&mut args, "--drain-ms")? {
        cfg.drain_ms = parse_usize(&v, "--drain-ms")? as u64;
    }
    if let Some(pos) = args.iter().position(|a| a == "--shed") {
        args.remove(pos);
        cfg.shed = true;
    }
    let model_path = args.first().ok_or("serve requires a model path")?;
    if stdio {
        let rows = daisy::serve::serve_stdio(model_path, &cfg).map_err(|e| e.to_string())?;
        eprintln!("served {rows} rows over stdio");
        return Ok(());
    }
    let server =
        Server::bind(model_path, addr.as_str(), cfg.clone()).map_err(|e| e.to_string())?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    println!(
        "serving {model_path} on {local} (max {} connections, {} rows/request)",
        cfg.max_conn, cfg.max_rows
    );
    if let Some(admin) = server.admin_addr() {
        println!("admin endpoint on {admin} (healthz, metrics, profile — `daisy top {admin}`)");
    }
    daisy::serve::shutdown::install_sigterm_handler();
    server.run().map_err(|e| e.to_string())?;
    // `run` only returns Ok after a graceful drain (SIGTERM). Exit with
    // the conventional SIGTERM code so supervisors and the CI smoke see
    // the termination they asked for, not a clean 0.
    eprintln!("drained; exiting");
    std::process::exit(143);
}

/// Renders one validated batch of a `daisy rows` stream as CSV lines,
/// after the header line when `header` is set. Names and cells are
/// quoted as `write_csv` quotes them, and a name with a line break is
/// an error there as here, so `read_csv` reads the file back.
fn csv_lines(
    p: &daisy::serve::Progress<'_>,
    header: bool,
) -> Result<String, daisy::data::DataError> {
    let mut out = String::new();
    if header {
        let names: Vec<String> = p
            .columns
            .iter()
            .map(|c| daisy::data::csv::escape_cell(c.name()))
            .collect::<Result<_, _>>()?;
        out.push_str(&names.join(","));
        out.push('\n');
    }
    for row in p.rows {
        let cells: Vec<String> = row
            .iter()
            .zip(p.columns)
            .map(|(v, c)| c.render_cell(v))
            .collect::<Result<_, _>>()?;
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    Ok(out)
}

/// Scripted client: streams one reproducible row stream from a running
/// `daisy serve` into CSV, batch by batch, surviving interruptions —
/// transient failures are retried with deterministic backoff and the
/// stream resumes at the last validated row, so the finished file is
/// byte-identical to an uninterrupted fetch.
fn rows(mut args: Vec<String>) -> Result<(), String> {
    use std::io::Write;

    let n = take_flag(&mut args, "--rows")?.ok_or("rows requires --rows")?;
    let n = parse_usize(&n, "--rows")? as u64;
    let seed = match take_flag(&mut args, "--seed")? {
        Some(v) => parse_usize(&v, "--seed")? as u64,
        None => 7,
    };
    let condition = take_flag(&mut args, "--condition")?;
    let out = take_flag(&mut args, "--out")?;
    let retries = match take_flag(&mut args, "--retries")? {
        Some(v) => parse_usize(&v, "--retries")? as u32,
        None => 5,
    };
    let mut start_row = match take_flag(&mut args, "--start-row")? {
        Some(v) => parse_usize(&v, "--start-row")? as u64,
        None => 0,
    };
    let resume = if let Some(pos) = args.iter().position(|a| a == "--resume") {
        args.remove(pos);
        true
    } else {
        false
    };
    let addr = args.first().ok_or("rows requires a server address")?.clone();

    // --resume: whatever complete CSV rows already sit in --out are
    // kept; a torn final line (a mid-write kill) is truncated away and
    // the stream picks up at the first missing row.
    let mut header_done = false;
    if resume {
        let path = out.as_deref().ok_or("--resume requires --out")?;
        if let Ok(existing) = std::fs::read_to_string(path) {
            let keep = existing.rfind('\n').map(|i| i + 1).unwrap_or(0);
            let complete_lines = existing[..keep].lines().count();
            if complete_lines > 0 {
                header_done = true;
                start_row = (complete_lines - 1) as u64;
            }
            if keep < existing.len() {
                eprintln!(
                    "truncating torn final line ({} bytes) before resuming",
                    existing.len() - keep
                );
            }
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| format!("cannot reopen {path}: {e}"))?;
            file.set_len(keep as u64)
                .map_err(|e| format!("cannot truncate {path}: {e}"))?;
            eprintln!("resuming at row {start_row} ({complete_lines} complete lines kept)");
        }
    }

    let mut request = match &condition {
        Some(c) => Request::conditioned(seed, n, c),
        None => Request::new(seed, n),
    };
    if start_row > 0 {
        request = request.resuming_at(start_row);
    }
    let policy = daisy::serve::RetryPolicy {
        max_attempts: retries + 1,
        ..daisy::serve::RetryPolicy::default()
    };

    let mut writer: Box<dyn Write> = match &out {
        Some(path) => {
            let file = std::fs::OpenOptions::new()
                .write(true)
                .create(true)
                .append(resume)
                .truncate(!resume)
                .open(path)
                .map_err(|e| format!("cannot create {path}: {e}"))?;
            Box::new(std::io::BufWriter::new(file))
        }
        None => Box::new(std::io::stdout()),
    };
    let mut io_err: Option<String> = None;
    let attempts = daisy::serve::fetch_with_retry(addr.as_str(), &request, &policy, |p| {
        if io_err.is_some() {
            return;
        }
        let chunk = match csv_lines(&p, !header_done) {
            Ok(chunk) => chunk,
            Err(e) => {
                io_err = Some(e.to_string());
                return;
            }
        };
        header_done = true;
        // Write and flush per validated batch so a killed client
        // leaves at most one torn line for --resume to truncate.
        if let Err(e) = writer.write_all(chunk.as_bytes()).and_then(|()| writer.flush()) {
            io_err = Some(format!("write failed: {e}"));
        }
    })
    .map_err(|e| e.to_string())?;
    if let Some(e) = io_err {
        return Err(e);
    }
    writer.flush().map_err(|e| format!("flush failed: {e}"))?;
    if let Some(path) = &out {
        eprintln!(
            "wrote rows {start_row}..{n} from {addr} to {path} ({attempts} attempt{})",
            if attempts == 1 { "" } else { "s" }
        );
    }
    Ok(())
}

/// Triggers a hot model reload on a running `daisy serve` through its
/// admin endpoint (`POST /reload`).
fn reload(args: Vec<String>) -> Result<(), String> {
    let addr = args
        .first()
        .ok_or("reload requires the server's admin address (DAISY_SERVE_ADMIN)")?;
    let body = daisy::serve::post_admin(addr.as_str(), "/reload").map_err(|e| e.to_string())?;
    print!("{body}");
    Ok(())
}

fn demo(mut args: Vec<String>) -> Result<(), String> {
    let out = take_flag(&mut args, "--out")?.ok_or("demo requires --out")?;
    let rows = match take_flag(&mut args, "--rows")? {
        Some(v) => parse_usize(&v, "--rows")?,
        None => 3000,
    };
    let name = take_flag(&mut args, "--dataset")?.unwrap_or_else(|| "Adult".into());
    let spec = daisy::datasets::by_name(&name)
        .ok_or_else(|| format!("unknown dataset {name:?}"))?;
    let table = spec.generate(rows, 42);
    save_csv(&table, &out)?;
    println!(
        "wrote {rows} rows of the {} stand-in to {out} ({} numerical, {} categorical attrs)",
        spec.name,
        table.schema().n_numerical(),
        table.schema().n_categorical()
    );
    Ok(())
}

fn synth(mut args: Vec<String>) -> Result<(), String> {
    let out = take_flag(&mut args, "--out")?.ok_or("synth requires --out")?;
    let label = take_flag(&mut args, "--label")?;
    let rows = take_flag(&mut args, "--rows")?;
    let network = take_flag(&mut args, "--network")?.unwrap_or_else(|| "mlp".into());
    let train_algo = take_flag(&mut args, "--train")?;
    let transform = take_flag(&mut args, "--transform")?.unwrap_or_else(|| "gn/ht".into());
    let iterations = match take_flag(&mut args, "--iterations")? {
        Some(v) => parse_usize(&v, "--iterations")?,
        None => 1500,
    };
    let epsilon = take_flag(&mut args, "--epsilon")?;
    let save_path = take_flag(&mut args, "--save")?;
    let seed = match take_flag(&mut args, "--seed")? {
        Some(v) => parse_usize(&v, "--seed")? as u64,
        None => 7,
    };
    let input = args
        .first()
        .ok_or("synth requires an input CSV path")?
        .clone();

    let table = load_csv(&input, label.as_deref())?;
    let n_out = match rows {
        Some(v) => parse_usize(&v, "--rows")?,
        None => table.n_rows(),
    };
    println!(
        "loaded {}: {} rows, {} attributes{}",
        input,
        table.n_rows(),
        table.n_attrs(),
        label
            .as_deref()
            .map(|l| format!(", label {l:?}"))
            .unwrap_or_default()
    );

    let network = match network.to_lowercase().as_str() {
        "mlp" => NetworkKind::Mlp,
        "lstm" => NetworkKind::Lstm,
        "cnn" => NetworkKind::Cnn,
        other => return Err(format!("unknown network {other:?}")),
    };
    let mut tc = match train_algo.as_deref() {
        Some("vtrain") => TrainConfig::vtrain(iterations),
        Some("wtrain") => TrainConfig::wtrain(iterations),
        Some("ctrain") => TrainConfig::ctrain(iterations),
        Some(other) => return Err(format!("unknown training algorithm {other:?}")),
        None => {
            // Paper guidance: conditional GAN for skewed labels.
            if table.schema().label().is_some() && table.label_skewness() > 9.0 {
                println!("label skewness > 9: using CTrain (conditional GAN)");
                TrainConfig::ctrain(iterations)
            } else {
                TrainConfig::vtrain(iterations)
            }
        }
    };
    if let Some(eps) = epsilon {
        let eps: f64 = eps
            .parse()
            .map_err(|_| format!("invalid --epsilon {eps:?}"))?;
        let dp = DpConfig::for_epsilon(
            eps,
            iterations * 3,
            tc.batch_size,
            table.n_rows(),
        );
        tc = TrainConfig::dptrain(iterations, dp);
        println!("DPTrain enabled at epsilon = {eps}");
    }
    let mut config = SynthesizerConfig::new(network, tc);
    config.transform = match transform.as_str() {
        "sn/od" => TransformConfig::sn_od(),
        "sn/ht" => TransformConfig::sn_ht(),
        "gn/od" => TransformConfig::gn_od(),
        "gn/ht" => TransformConfig::gn_ht(),
        other => return Err(format!("unknown transform {other:?}")),
    };
    config.seed = seed;

    println!(
        "training {} / {} / {} for {} iterations...",
        config.network.name(),
        config.transform.short_name(),
        config.train.name(),
        config.train.iterations
    );
    let fitted = Synthesizer::try_fit(&table, &config)
        .map_err(|e| format!("training failed: {e}"))?;
    let outcome = fitted.outcome();
    if !outcome.is_clean() {
        println!("training hit instability but recovered: {}", outcome.summary());
    }
    let mut rng = Rng::seed_from_u64(seed ^ 0x9e37);
    let synthetic = fitted.generate(n_out, &mut rng);
    save_csv(&synthetic, &out)?;
    println!("wrote {n_out} synthetic rows to {out}");
    if let Some(path) = save_path {
        fitted.save(&path)?;
        println!("saved the fitted model to {path}");
    }
    Ok(())
}

fn generate(mut args: Vec<String>) -> Result<(), String> {
    let out = take_flag(&mut args, "--out")?.ok_or("generate requires --out")?;
    let rows = take_flag(&mut args, "--rows")?.ok_or("generate requires --rows")?;
    let rows = parse_usize(&rows, "--rows")?;
    let seed = match take_flag(&mut args, "--seed")? {
        Some(v) => parse_usize(&v, "--seed")? as u64,
        None => 7,
    };
    let model_path = args.first().ok_or("generate requires a model path")?;
    let fitted = FittedSynthesizer::load(model_path)?;
    let mut rng = Rng::seed_from_u64(seed);
    let synthetic = fitted.generate(rows, &mut rng);
    save_csv(&synthetic, &out)?;
    println!("generated {rows} rows from {model_path} into {out}");
    Ok(())
}

fn evaluate(mut args: Vec<String>) -> Result<(), String> {
    let label = take_flag(&mut args, "--label")?;
    if args.len() < 2 {
        return Err("evaluate requires <REAL.csv> <SYNTH.csv>".into());
    }
    let real = load_csv(&args[0], label.as_deref())?;
    let synthetic = load_csv(&args[1], label.as_deref())?;
    if real.schema() != synthetic.schema() {
        return Err("real and synthetic schemas differ (check --label and headers)".into());
    }
    let mut rng = Rng::seed_from_u64(1);

    println!("== distribution fidelity ==");
    for f in daisy::eval::attribute_fidelity(&real, &synthetic) {
        match f {
            daisy::eval::AttributeFidelity::Numerical {
                name, wasserstein, ..
            } => println!("  {name:<24} W1 = {wasserstein:.4}"),
            daisy::eval::AttributeFidelity::Categorical { name, tv } => {
                println!("  {name:<24} TV = {tv:.4}")
            }
        }
    }
    println!(
        "  pairwise correlation gap = {:.4}",
        daisy::eval::correlation_fidelity(&real, &synthetic)
    );
    if let Some(gap) = daisy::eval::fd_preservation_gap(&real, &synthetic, 0.8) {
        println!("  functional-dependency gap = {gap:.4}");
    }

    if real.schema().label().is_some() {
        println!("== classification utility (F1 Diff; lower is better) ==");
        // Hold out a third of the real data as the shared test set.
        let mut idx: Vec<usize> = (0..real.n_rows()).collect();
        rng.shuffle(&mut idx);
        let cut = real.n_rows() * 2 / 3;
        let train = real.select_rows(&idx[..cut]);
        let test = real.select_rows(&idx[cut..]);
        let binary = real.n_classes() == 2;
        for (name, make) in classifier_zoo() {
            let report = classification_utility(&train, &synthetic, &test, make, &mut rng);
            if binary {
                println!(
                    "  {name:<5} F1 real {:.3}  synthetic {:.3}  Diff {:.3}   AUC real {:.3}  synthetic {:.3}",
                    report.f1_real,
                    report.f1_synthetic,
                    report.f1_diff,
                    report.auc_real,
                    report.auc_synthetic
                );
            } else {
                println!(
                    "  {name:<5} F1 real {:.3}  synthetic {:.3}  Diff {:.3}",
                    report.f1_real, report.f1_synthetic, report.f1_diff
                );
            }
        }
        println!("== clustering utility ==");
        println!(
            "  DiffCST = {:.4}",
            clustering_utility(&real, &synthetic, &mut rng)
        );
    }

    println!("== privacy risk ==");
    let hr = daisy::eval::hitting_rate(&real, &synthetic, 2000, &mut rng);
    let d = daisy::eval::dcr(&real, &synthetic, 1000, &mut rng);
    println!("  hitting rate = {hr:.3}% (lower = better privacy)");
    println!("  DCR          = {d:.4} (higher = better privacy)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_flag_extracts_and_removes() {
        let mut args: Vec<String> = ["synth", "--out", "x.csv", "in.csv"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(take_flag(&mut args, "--out").unwrap(), Some("x.csv".into()));
        assert_eq!(args, vec!["synth", "in.csv"]);
        assert_eq!(take_flag(&mut args, "--missing").unwrap(), None);
    }

    #[test]
    fn take_flag_requires_value() {
        let mut args: Vec<String> = vec!["--out".into()];
        assert!(take_flag(&mut args, "--out").is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&["frobnicate".into()]).is_err());
    }

    #[test]
    fn help_is_ok() {
        assert!(run(&["--help".into()]).is_ok());
    }

    #[test]
    fn knobs_is_ok() {
        assert!(run(&["knobs".into()]).is_ok());
    }

    #[test]
    fn demo_synth_evaluate_roundtrip() {
        let dir = std::env::temp_dir().join("daisy-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let real = dir.join("real.csv").to_string_lossy().to_string();
        let fake = dir.join("fake.csv").to_string_lossy().to_string();
        run(&[
            "demo".into(),
            "--out".into(),
            real.clone(),
            "--rows".into(),
            "300".into(),
            "--dataset".into(),
            "HTRU2".into(),
        ])
        .unwrap();
        run(&[
            "synth".into(),
            real.clone(),
            "--label".into(),
            "label".into(),
            "--out".into(),
            fake.clone(),
            "--iterations".into(),
            "30".into(),
        ])
        .unwrap();
        run(&[
            "evaluate".into(),
            real.clone(),
            fake,
            "--label".into(),
            "label".into(),
        ])
        .unwrap();
        run(&["describe".into(), real, "--label".into(), "label".into()]).unwrap();
    }

    #[test]
    fn synth_save_then_generate() {
        let dir = std::env::temp_dir().join("daisy-cli-gen-test");
        std::fs::create_dir_all(&dir).unwrap();
        let real = dir.join("real.csv").to_string_lossy().to_string();
        let model = dir.join("model.daisy").to_string_lossy().to_string();
        let out = dir.join("gen.csv").to_string_lossy().to_string();
        run(&["demo".into(), "--out".into(), real.clone(), "--rows".into(), "200".into(), "--dataset".into(), "HTRU2".into()]).unwrap();
        run(&["synth".into(), real, "--label".into(), "label".into(), "--out".into(), dir.join("f.csv").to_string_lossy().to_string(), "--iterations".into(), "20".into(), "--save".into(), model.clone()]).unwrap();
        run(&["generate".into(), model, "--out".into(), out.clone(), "--rows".into(), "50".into()]).unwrap();
        let n = std::fs::read_to_string(out).unwrap().lines().count();
        assert_eq!(n, 51); // header + 50 rows
    }

    #[test]
    fn ingest_builds_a_store_and_is_idempotent() {
        let dir = std::env::temp_dir().join("daisy-cli-ingest-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let real = dir.join("real.csv").to_string_lossy().to_string();
        let store = dir.join("store").to_string_lossy().to_string();
        run(&[
            "demo".into(),
            "--out".into(),
            real.clone(),
            "--rows".into(),
            "500".into(),
            "--dataset".into(),
            "HTRU2".into(),
        ])
        .unwrap();
        run(&[
            "ingest".into(),
            real.clone(),
            "--out".into(),
            store.clone(),
            "--label".into(),
            "label".into(),
            "--chunk-rows".into(),
            "128".into(),
        ])
        .unwrap();
        let opened = daisy::data::ChunkStore::open(std::path::Path::new(&store)).unwrap();
        assert_eq!(opened.n_rows(), 500);
        assert_eq!(opened.n_chunks(), 4);
        // A second run finds the Done record and changes nothing.
        run(&[
            "ingest".into(),
            real,
            "--out".into(),
            store,
            "--label".into(),
            "label".into(),
            "--chunk-rows".into(),
            "128".into(),
        ])
        .unwrap();
        // Missing input / missing --out are usage errors.
        assert!(run(&["ingest".into()]).is_err());
    }

    #[test]
    fn report_validates_and_renders_traces() {
        use daisy::telemetry::{field, Event};
        let dir = std::env::temp_dir().join("daisy-cli-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl").to_string_lossy().to_string();
        let lines = [
            Event::new("train_start", vec![field("iterations", 2usize)]).to_json_line(0),
            Event::new(
                "epoch",
                vec![field("epoch", 0usize), field("d_loss", 0.5f64)],
            )
            .to_json_line(1),
        ];
        std::fs::write(&trace, lines.join("\n") + "\n").unwrap();
        run(&["report".into(), trace.clone()]).unwrap();
        run(&["report".into(), trace.clone(), "--validate".into()]).unwrap();
        let bad = dir.join("bad.jsonl").to_string_lossy().to_string();
        std::fs::write(&bad, "not json\n").unwrap();
        assert!(run(&["report".into(), bad]).is_err());
        assert!(run(&["report".into()]).is_err());
    }

    #[test]
    fn report_tolerates_a_torn_final_line() {
        use daisy::telemetry::{field, Event};
        let dir = std::env::temp_dir().join("daisy-cli-torn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("torn.jsonl").to_string_lossy().to_string();
        let whole = Event::new("train_start", vec![field("iterations", 2usize)]).to_json_line(0);
        // A crash mid-write leaves a prefix of the second line.
        let torn = &whole[..whole.len() / 2];
        std::fs::write(&trace, format!("{whole}\n{torn}")).unwrap();
        run(&["report".into(), trace.clone()]).unwrap();
        run(&["report".into(), trace, "--validate".into()]).unwrap();
        // Garbage before the final line is still a hard error.
        let bad = dir.join("midfile.jsonl").to_string_lossy().to_string();
        std::fs::write(&bad, format!("{torn}\n{whole}\n")).unwrap();
        assert!(run(&["report".into(), bad]).is_err());
    }

    #[test]
    fn top_renders_a_trace_offline() {
        use daisy::telemetry::{field, Event};
        let dir = std::env::temp_dir().join("daisy-cli-top-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl").to_string_lossy().to_string();
        let line = Event::new("profile", vec![field("fit.calls", 1.0f64)])
            .non_deterministic()
            .to_json_line(0);
        std::fs::write(&trace, line + "\n").unwrap();
        run(&["top".into(), "--trace".into(), trace]).unwrap();
        // Live mode needs an address; a missing one is a usage error.
        assert!(run(&["top".into()]).is_err());
        assert!(run(&["top".into(), "--interval".into(), "0".into(), "x".into()]).is_err());
    }

    #[test]
    fn parse_usize_messages() {
        assert_eq!(parse_usize("42", "x").unwrap(), 42);
        assert!(parse_usize("nope", "x").is_err());
    }
}
