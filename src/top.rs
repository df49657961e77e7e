//! `daisy top` — a refreshing terminal view of a serving process.
//!
//! Polls the read-only admin endpoint of a running `daisy serve`
//! (enabled with `DAISY_SERVE_ADMIN=HOST:PORT`) and renders request
//! and row throughput, interpolated latency percentiles, connection
//! occupancy, and the hottest profiled phases. With `--trace FILE` it
//! renders the same sections offline from a recorded `DAISY_TRACE`
//! file instead of polling anything.

use daisy::telemetry::expose::Snapshot;
use daisy::telemetry::profile;

/// Phases shown in the hottest-phases table.
const TOP_PHASES: usize = 8;

/// Entry point for `daisy top`.
pub fn top(mut args: Vec<String>) -> Result<(), String> {
    let trace = crate::take_flag(&mut args, "--trace")?;
    let interval_ms = match crate::take_flag(&mut args, "--interval")? {
        Some(v) => {
            let secs: f64 = v
                .parse()
                .map_err(|_| crate::usage(format!("invalid --interval: {v:?}")))?;
            if secs <= 0.0 || secs.is_nan() {
                return Err(crate::usage("--interval must be positive"));
            }
            (secs * 1000.0) as u64
        }
        None => 2000,
    };
    let once = if let Some(pos) = args.iter().position(|a| a == "--once") {
        args.remove(pos);
        true
    } else {
        false
    };

    if let Some(path) = trace {
        return top_trace(&path);
    }

    let addr = args
        .first()
        .ok_or_else(|| crate::usage("top requires an admin address (or --trace FILE)"))?
        .clone();
    let watch = daisy::telemetry::Stopwatch::start();
    // The previous poll and the milliseconds at which it was taken.
    let mut prev: Option<(Snapshot, f64)> = None;
    loop {
        let health = daisy::serve::fetch_admin(&addr, "/healthz")
            .map_err(|e| format!("cannot reach admin endpoint {addr}: {e}"))?;
        let text = daisy::serve::fetch_admin(&addr, "/metrics")
            .map_err(|e| format!("cannot reach admin endpoint {addr}: {e}"))?;
        let snap = Snapshot::decode(&text).map_err(|e| format!("bad /metrics exposition: {e}"))?;
        let at_ms = watch.elapsed_ms();
        if !once {
            // Clear and home, so each frame overwrites the last.
            print!("\x1b[2J\x1b[H");
        }
        let since = prev.as_ref().map(|(p, p_ms)| (p, (at_ms - p_ms) / 1000.0));
        print!("{}", render_frame(&addr, &health, &snap, since));
        if once {
            return Ok(());
        }
        prev = Some((snap, at_ms));
        daisy::telemetry::sleep_ms(interval_ms);
    }
}

/// Offline mode: render the serving + profile sections of a recorded
/// trace, tolerating a torn final line the same way `daisy report`
/// does.
fn top_trace(path: &str) -> Result<(), String> {
    let jsonl =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
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
    print!("{}", report.render_top());
    Ok(())
}

/// One frame of the live view: `snap`, with rates against `prev`, an
/// earlier poll taken the given number of seconds before.
fn render_frame(
    addr: &str,
    health: &str,
    snap: &Snapshot,
    prev: Option<(&Snapshot, f64)>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("daisy top — {addr}\n"));
    for line in health.lines() {
        // Surface the identity lines verbatim; counters are shown as
        // rates below.
        if line.starts_with("fingerprint") || line.starts_with("model") || line.starts_with("uptime_ms")
        {
            out.push_str(&format!("  {line}\n"));
        }
    }
    let value = |s: &Snapshot, name| s.value(name).unwrap_or(0.0);
    let (requests, rows) = (value(snap, "serve.requests"), value(snap, "serve.rows"));
    match prev {
        Some((p, dt)) if dt > 0.0 => {
            out.push_str(&format!(
                "  requests/sec {:>10.1}    rows/sec {:>12.0}\n",
                (requests - value(p, "serve.requests")) / dt,
                (rows - value(p, "serve.rows")) / dt,
            ));
        }
        _ => out.push_str("  requests/sec        n/a    rows/sec          n/a  (first sample)\n"),
    }
    out.push_str(&format!(
        "  requests {requests:>14.0}    rows {rows:>16.0}    active conns {:.0}\n",
        value(snap, "serve.active_conns")
    ));
    let p50 = snap.percentile("serve.request_us", 50.0);
    let p99 = snap.percentile("serve.request_us", 99.0);
    if let (Some(p50), Some(p99)) = (p50, p99) {
        out.push_str(&format!(
            "  latency p50≈{:.1}ms p99≈{:.1}ms (pow2-bucket interpolation estimate)\n",
            p50 / 1000.0,
            p99 / 1000.0
        ));
    }
    if snap.phases.is_empty() {
        out.push_str("  no phase profile (start the server with DAISY_PROFILE=1)\n");
    } else {
        out.push_str("  hottest phases (self time):\n");
        out.push_str(&profile::render_table(&snap.phases, TOP_PHASES));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy::telemetry::expose::render_parts;
    use daisy::telemetry::metrics::MetricReading;
    use daisy::telemetry::profile::PhaseStat;

    fn phase(path: &str, calls: u64, total_ms: u64, self_ms: u64) -> PhaseStat {
        PhaseStat {
            path: path.to_string(),
            calls,
            total_ns: total_ms * 1_000_000,
            self_ns: self_ms * 1_000_000,
        }
    }

    /// The snapshot `/metrics` would serve for these serve counters,
    /// request latencies and phases.
    fn snapshot(
        requests: u64,
        rows: u64,
        latency_us: Vec<(u64, u64)>,
        phases: &[PhaseStat],
    ) -> Snapshot {
        let count = latency_us.iter().map(|(_, n)| n).sum();
        let readings = [
            ("serve.active_conns", MetricReading::Gauge(1.0)),
            ("serve.requests", MetricReading::Counter(requests)),
            ("serve.rows", MetricReading::Counter(rows)),
            (
                "serve.request_us",
                MetricReading::Histogram {
                    buckets: latency_us,
                    count,
                    sum: 0,
                },
            ),
        ];
        Snapshot::decode(&render_parts(&readings, phases)).expect("exposition decodes")
    }

    /// The phase-table rows of `text`: the lines after the table's
    /// header line, up to the first blank line.
    fn table_rows(text: &str) -> Vec<&str> {
        let header = profile::render_table(&[], 0);
        let mut lines = text.lines().skip_while(|l| *l != header.trim_end());
        lines.next().expect("phase table present");
        lines.take_while(|l| !l.is_empty()).collect()
    }

    #[test]
    fn snapshot_reduces_samples_and_ranks_phases() {
        let phases = [
            phase("fit", 1, 3000, 500),
            phase("fit/epoch", 4, 2500, 2000),
        ];
        let snap = snapshot(10, 5000, vec![], &phases);
        assert_eq!(snap.value("serve.requests"), Some(10.0));
        assert_eq!(snap.value("serve.rows"), Some(5000.0));
        assert_eq!(snap.value("serve.active_conns"), Some(1.0));
        assert_eq!(snap.phases, phases);
        // Ranked by self time: the epoch body beats the fit shell.
        let frame = render_frame("a", "", &snap, None);
        let rows = table_rows(&frame);
        assert!(rows[0].ends_with("  fit/epoch"), "{frame}");
        assert!(rows[1].ends_with("  fit"), "{frame}");
    }

    #[test]
    fn frame_shows_rates_from_two_snapshots() {
        let old = snapshot(10, 1000, vec![], &[]);
        let new = snapshot(
            30,
            9000,
            vec![(4096, 4)],
            &[phase("serve_request", 30, 1200, 1000)],
        );
        let frame = render_frame(
            "127.0.0.1:1",
            "ok\nfingerprint 0xab\n",
            &new,
            Some((&old, 2.0)),
        );
        assert!(frame.contains("requests/sec       10.0"), "{frame}");
        assert!(frame.contains("rows/sec         4000"), "{frame}");
        assert!(frame.contains("fingerprint 0xab"), "{frame}");
        assert!(frame.contains("latency p50≈6.1ms"), "{frame}");
        assert!(frame.contains("serve_request"), "{frame}");
        let first = render_frame("127.0.0.1:1", "ok\n", &new, None);
        assert!(first.contains("first sample"), "{first}");
    }

    #[test]
    fn frame_hints_when_profiling_is_off() {
        let frame = render_frame("a", "", &Snapshot::default(), None);
        assert!(frame.contains("DAISY_PROFILE=1"), "{frame}");
    }

    /// The one phase table: the rows the raw phases render to are the
    /// rows `daisy report` prints from a trace snapshot (all of them)
    /// and the rows `daisy top` prints (the hottest [`TOP_PHASES`]).
    #[test]
    fn report_and_top_print_the_rows_of_the_one_phase_table() {
        use daisy::telemetry::{field, schema, Event, RunReport};
        let phases: Vec<PhaseStat> = (0..12u64)
            .map(|i| {
                phase(
                    &format!("serve_request/p{i:02}"),
                    i + 1,
                    100 + 7 * i,
                    3 * i % 11,
                )
            })
            .collect();
        let raw = profile::render_table(&phases, usize::MAX);
        let raw_rows = table_rows(&raw);
        assert_eq!(raw_rows.len(), phases.len());

        let text = render_parts(&[], &phases);
        let line = Event::new(
            schema::METRICS_SNAPSHOT,
            vec![field("exposition", text.clone())],
        )
        .non_deterministic()
        .to_json_line(0);
        let report = RunReport::from_jsonl(&(line + "\n"))
            .expect("trace validates")
            .render();
        assert_eq!(table_rows(&report), raw_rows, "{report}");

        let snap = Snapshot::decode(&text).expect("exposition decodes");
        let frame = render_frame("a", "", &snap, None);
        assert_eq!(table_rows(&frame), raw_rows[..TOP_PHASES], "{frame}");
    }
}
