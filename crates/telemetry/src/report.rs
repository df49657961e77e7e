//! Run reports: a human-readable digest of a trace file.
//!
//! [`RunReport::from_jsonl`] parses a trace (as written under
//! `DAISY_TRACE`) and [`RunReport::render`] prints the story of the
//! run: the loss curve per epoch, the recovery timeline (faults, guard
//! trips, recovery actions, escalations), model selection, bench cells,
//! and the final pool/kernel utilization snapshot. This is the engine
//! behind the `daisy report` subcommand.
//!
//! The serving, profile and metrics sections read the trace's last
//! `metrics` event through [`Snapshot::decode`], the decoder `daisy
//! top` polls `/metrics` with. Snapshot events written before the
//! `exposition` field existed are skipped.

use crate::expose::Snapshot;
use crate::json::Json;
use crate::trace::{parse_trace, validate_trace, TraceStats};
use crate::{profile, schema};

/// A parsed trace plus its validation summary.
pub struct RunReport {
    stats: TraceStats,
    events: Vec<Json>,
    /// The last registry snapshot of the trace, decoded.
    snapshot: Option<Snapshot>,
}

fn fval(event: &Json, key: &str) -> String {
    match event.get(key) {
        None => "-".to_string(),
        Some(v) => {
            let mut s = String::new();
            v.write(&mut s);
            s.trim_matches('"').to_string()
        }
    }
}

impl RunReport {
    /// Validates and parses a JSONL trace. Fails with the validator's
    /// line-numbered message on a malformed trace.
    /// A last snapshot whose exposition does not parse is an error too.
    pub fn from_jsonl(jsonl: &str) -> Result<RunReport, String> {
        let stats = validate_trace(jsonl)?;
        let events = parse_trace(jsonl)?;
        let mut report = RunReport {
            stats,
            events,
            snapshot: None,
        };
        let last = report
            .named(schema::METRICS_SNAPSHOT)
            .filter_map(|e| e.get("exposition")?.as_str())
            .last();
        report.snapshot = last
            .map(Snapshot::decode)
            .transpose()
            .map_err(|e| format!("last metrics snapshot: {e}"))?;
        Ok(report)
    }

    /// The validation summary for this trace.
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Json> {
        self.events
            .iter()
            .filter(move |e| e.get("event").and_then(Json::as_str) == Some(name))
    }

    fn render_ingest(&self, out: &mut String) {
        let starts: Vec<&Json> = self.named(schema::INGEST_START).collect();
        let sealed: Vec<&Json> = self.named(schema::CHUNK_SEALED).collect();
        let ends: Vec<&Json> = self.named(schema::INGEST_END).collect();
        if starts.is_empty() && sealed.is_empty() && ends.is_empty() {
            return;
        }
        out.push_str("\nIngestion\n");
        for e in &starts {
            out.push_str(&format!(
                "  start       resumed={} chunk_rows={}\n",
                fval(e, "resumed"),
                fval(e, "chunk_rows")
            ));
        }
        for e in &sealed {
            out.push_str(&format!(
                "  chunk {:>5}  rows={} bytes={}\n",
                fval(e, "chunk"),
                fval(e, "rows"),
                fval(e, "bytes")
            ));
        }
        for e in &ends {
            out.push_str(&format!(
                "  end         rows={} rejected={} chunks={}\n",
                fval(e, "rows"),
                fval(e, "rejected"),
                fval(e, "chunks")
            ));
        }
    }

    fn render_losses(&self, out: &mut String) {
        let epochs: Vec<&Json> = self.named(schema::EPOCH).collect();
        if epochs.is_empty() {
            return;
        }
        out.push_str("\nLoss curve\n");
        out.push_str("  epoch      d_loss      g_loss          kl  |grad G|  |grad D|\n");
        for e in epochs {
            out.push_str(&format!(
                "  {:>5}  {:>10}  {:>10}  {:>10}  {:>8}  {:>8}\n",
                fval(e, "epoch"),
                fval(e, "d_loss"),
                fval(e, "g_loss"),
                fval(e, "kl"),
                fval(e, "grad_norm_g"),
                fval(e, "grad_norm_d"),
            ));
        }
    }

    fn render_recovery(&self, out: &mut String) {
        let timeline: Vec<&Json> = self
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.get("event").and_then(Json::as_str),
                    Some(
                        schema::FAULT_FIRED
                            | schema::GUARD_TRIP
                            | schema::RECOVERY
                            | schema::ESCALATE_SIMPLIFIED_D
                            | schema::CHECKPOINT_WRITE
                            | schema::CHECKPOINT_RESTORE
                            | schema::CHECKPOINT_CORRUPT_SKIPPED
                            | schema::CELL_SKIPPED
                            | schema::SWEEP_RESUME
                            | schema::INGEST_RESUME
                            | schema::INGEST_ROW_REJECTED
                            | schema::CHUNK_QUARANTINED
                    )
                )
            })
            .collect();
        if timeline.is_empty() {
            return;
        }
        out.push_str("\nRecovery timeline\n");
        for e in timeline {
            let name = e.get("event").and_then(Json::as_str).unwrap_or("?");
            let detail = match name {
                schema::FAULT_FIRED => format!("kind={}", fval(e, "kind")),
                schema::GUARD_TRIP => format!("reason={}", fval(e, "reason")),
                schema::RECOVERY => format!(
                    "action={} lr_scale={}",
                    fval(e, "action"),
                    fval(e, "lr_scale")
                ),
                schema::CHECKPOINT_WRITE => {
                    format!("epoch={} bytes={}", fval(e, "epoch"), fval(e, "bytes"))
                }
                schema::CHECKPOINT_RESTORE => format!("epoch={}", fval(e, "epoch")),
                schema::CHECKPOINT_CORRUPT_SKIPPED => {
                    format!("slot={} error={}", fval(e, "slot"), fval(e, "error"))
                }
                schema::CELL_SKIPPED => format!("cell={}", fval(e, "cell")),
                schema::SWEEP_RESUME => {
                    format!("done={} total={}", fval(e, "done"), fval(e, "total"))
                }
                schema::INGEST_RESUME => format!(
                    "from_chunk={} skip_lines={}",
                    fval(e, "from_chunk"),
                    fval(e, "skip_lines")
                ),
                schema::INGEST_ROW_REJECTED => {
                    format!("line={} reason={}", fval(e, "line"), fval(e, "reason"))
                }
                schema::CHUNK_QUARANTINED => {
                    format!("chunk={} error={}", fval(e, "chunk"), fval(e, "error"))
                }
                _ => format!("reason={}", fval(e, "reason")),
            };
            out.push_str(&format!(
                "  seq {:>5}  step {:>6}  {:<22} {}\n",
                fval(e, "seq"),
                fval(e, "step"),
                name,
                detail
            ));
        }
    }

    fn render_selection(&self, out: &mut String) {
        let scores: Vec<&Json> = self.named(schema::MODEL_SELECTION_SCORE).collect();
        let chosen: Vec<&Json> = self.named(schema::MODEL_SELECTED).collect();
        if scores.is_empty() && chosen.is_empty() {
            return;
        }
        out.push_str("\nModel selection\n");
        for e in &scores {
            out.push_str(&format!(
                "  epoch {:>4}  score {}\n",
                fval(e, "epoch"),
                fval(e, "score")
            ));
        }
        for e in &chosen {
            out.push_str(&format!(
                "  selected epoch {} (score {})\n",
                fval(e, "epoch"),
                fval(e, "score")
            ));
        }
    }

    fn render_cells(&self, out: &mut String) {
        let cells: Vec<&Json> = self.named(schema::CELL_END).collect();
        if cells.is_empty() {
            return;
        }
        out.push_str("\nBench cells\n");
        for e in cells {
            out.push_str(&format!(
                "  {:<40} attempts={} ok={} rocky={}\n",
                fval(e, "cell"),
                fval(e, "attempts"),
                fval(e, "ok"),
                fval(e, "rocky"),
            ));
        }
    }

    fn render_serving(&self, out: &mut String) {
        let starts: Vec<&Json> = self.named(schema::SERVE_START).collect();
        let reqs: Vec<&Json> = self.named(schema::SERVE_REQUEST_END).collect();
        if starts.is_empty() && reqs.is_empty() {
            return;
        }
        out.push_str("\nServing (non-deterministic)\n");
        for e in &starts {
            out.push_str(&format!(
                "  model       params={} bytes={} columns={} conditional={} max_conn={}\n",
                fval(e, "params"),
                fval(e, "bytes"),
                fval(e, "columns"),
                fval(e, "conditional"),
                fval(e, "max_conn"),
            ));
        }
        let done = reqs.len();
        let ok = reqs.iter().filter(|e| fval(e, "ok") == "true").count();
        let rows: u64 = reqs.iter().filter_map(|e| e.get("rows")?.as_u64()).sum();
        let ms: f64 = reqs
            .iter()
            .filter_map(|e| e.get("wall")?.get("ms")?.as_f64())
            .sum();
        out.push_str(&format!(
            "  requests    total={done} ok={ok} rows={rows}\n"
        ));
        if ms > 0.0 {
            out.push_str(&format!(
                "  throughput  {:.0} rows/sec (summed request wall time {:.1} ms)\n",
                rows as f64 / (ms / 1000.0),
                ms
            ));
        }
        // Lifecycle events: drains and hot reloads, in trace order.
        let drains: Vec<&Json> = self.named(schema::SERVE_DRAIN).collect();
        for e in &drains {
            out.push_str(&format!(
                "  drain       began with {} stream(s) in flight (window {} ms)\n",
                fval(e, "active"),
                fval(e, "drain_ms"),
            ));
        }
        let reloads: Vec<&Json> = self.named(schema::SERVE_RELOAD).collect();
        for e in &reloads {
            if fval(e, "ok") == "true" {
                out.push_str(&format!(
                    "  reload      generation {} fingerprint {}\n",
                    fval(e, "generation"),
                    fval(e, "fingerprint"),
                ));
            } else {
                out.push_str(&format!(
                    "  reload      FAILED ({}); old model kept serving\n",
                    fval(e, "error"),
                ));
            }
        }
        // Distributions from the last metrics snapshot. Percentiles
        // are linear-interpolation estimates inside pow2 buckets.
        let Some(snap) = &self.snapshot else {
            return;
        };
        let resilience: Vec<String> = [
            ("serve.timeouts", "timeouts"),
            ("serve.drained", "drained"),
            ("serve.shed_requests", "shed"),
            ("serve.resumed_requests", "resumed"),
            ("serve.reloads", "reloads"),
        ]
        .iter()
        .filter_map(|(key, label)| {
            let n = snap.value(key)?;
            (n > 0.0).then(|| format!("{label}={n}"))
        })
        .collect();
        if !resilience.is_empty() {
            out.push_str(&format!("  resilience  {}\n", resilience.join(" ")));
        }
        let p50_p99 = |name| Some((snap.percentile(name, 50.0)?, snap.percentile(name, 99.0)?));
        if let Some((p50, p99)) = p50_p99("serve.rows_per_request") {
            out.push_str(&format!(
                "  rows/request  p50≈{p50:.0} p99≈{p99:.0} (pow2-bucket interpolation estimate)\n"
            ));
        }
        if let Some((p50, p99)) = p50_p99("serve.request_us") {
            out.push_str(&format!(
                "  latency       p50≈{:.1}ms p99≈{:.1}ms (pow2-bucket interpolation estimate)\n",
                p50 / 1000.0,
                p99 / 1000.0
            ));
        }
        if let Some((p50, p99)) = p50_p99("serve.requests_per_conn") {
            out.push_str(&format!(
                "  pipelining    requests/conn p50≈{p50:.0} p99≈{p99:.0} (pow2-bucket interpolation estimate)\n"
            ));
        }
    }

    fn render_profile(&self, out: &mut String) {
        let Some(snap) = self.snapshot.as_ref().filter(|s| !s.phases.is_empty()) else {
            return;
        };
        out.push_str("\nProfile (wall-time phases, hottest self time first; non-deterministic)\n");
        out.push_str(&profile::render_table(&snap.phases, usize::MAX));
    }

    fn render_metrics(&self, out: &mut String) {
        let Some(snap) = &self.snapshot else {
            return;
        };
        out.push_str("\nMetrics (last snapshot; non-deterministic)\n");
        for sample in &snap.samples {
            out.push_str(&format!("  {sample}\n"));
        }
    }

    /// Renders the full report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Trace: {} events ({} non-deterministic), {} event types\n",
            self.stats.events,
            self.stats.nd_events,
            self.stats.names.len()
        ));
        out.push_str(&format!("Event types: {}\n", self.stats.names.join(", ")));
        self.render_ingest(&mut out);
        self.render_losses(&mut out);
        self.render_recovery(&mut out);
        self.render_selection(&mut out);
        self.render_cells(&mut out);
        self.render_serving(&mut out);
        self.render_profile(&mut out);
        self.render_metrics(&mut out);
        out
    }

    /// Renders only the live-introspection sections (serving and
    /// phase profile) — the offline backend of `daisy top --trace`.
    pub fn render_top(&self) -> String {
        let mut out = String::new();
        self.render_serving(&mut out);
        self.render_profile(&mut out);
        if out.is_empty() {
            out.push_str("no serving or profile events in this trace\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{field, Event};
    use crate::expose::render_parts;
    use crate::metrics::MetricReading;
    use crate::profile::PhaseStat;

    /// A `metrics` event line whose exposition holds `readings` and
    /// `phases`, as [`crate::emit_metrics_snapshot`] writes it.
    fn snapshot_line(readings: &[(&str, MetricReading)], phases: &[PhaseStat], seq: u64) -> String {
        let fields = vec![field("exposition", render_parts(readings, phases))];
        Event::new(schema::METRICS_SNAPSHOT, fields)
            .non_deterministic()
            .to_json_line(seq)
    }

    fn histogram(buckets: Vec<(u64, u64)>, sum: u64) -> MetricReading {
        let count = buckets.iter().map(|(_, n)| n).sum();
        MetricReading::Histogram {
            buckets,
            count,
            sum,
        }
    }

    #[test]
    fn renders_losses_recovery_and_metrics() {
        let lines = [
            Event::new(schema::TRAIN_START, vec![field("iterations", 4usize)]).to_json_line(0),
            Event::new(
                schema::EPOCH,
                vec![
                    field("epoch", 0usize),
                    field("d_loss", 0.5f64),
                    field("g_loss", 0.25f64),
                    field("kl", 0.125f64),
                ],
            )
            .to_json_line(1),
            Event::new(
                schema::GUARD_TRIP,
                vec![field("step", 3usize), field("reason", "non_finite_loss")],
            )
            .to_json_line(2),
            Event::new(
                schema::RECOVERY,
                vec![
                    field("step", 3usize),
                    field("action", "rollback"),
                    field("lr_scale", 0.5f64),
                ],
            )
            .to_json_line(3),
            snapshot_line(&[("pool.jobs", MetricReading::Counter(12))], &[], 4),
        ];
        let jsonl = lines.join("\n") + "\n";
        let report = RunReport::from_jsonl(&jsonl).unwrap();
        assert_eq!(report.stats().events, 5);
        let text = report.render();
        assert!(text.contains("Loss curve"), "{text}");
        assert!(text.contains("0.5"), "{text}");
        assert!(text.contains("Recovery timeline"), "{text}");
        assert!(text.contains("action=rollback"), "{text}");
        assert!(text.contains("Metrics (last snapshot"), "{text}");
        assert!(text.contains("  daisy_pool_jobs 12\n"), "{text}");
    }

    #[test]
    fn renders_checkpoint_and_sweep_events_in_the_timeline() {
        let lines = [
            Event::new(
                schema::SWEEP_RESUME,
                vec![field("done", 2usize), field("total", 4usize)],
            )
            .to_json_line(0),
            Event::new(schema::CELL_SKIPPED, vec![field("cell", "mlp/vtrain")]).to_json_line(1),
            Event::new(
                schema::CHECKPOINT_WRITE,
                vec![
                    field("epoch", 1usize),
                    field("step", 6usize),
                    field("bytes", 1024usize),
                ],
            )
            .to_json_line(2),
            Event::new(
                schema::CHECKPOINT_CORRUPT_SKIPPED,
                vec![field("slot", "primary"), field("error", "bad crc")],
            )
            .to_json_line(3),
            Event::new(
                schema::CHECKPOINT_RESTORE,
                vec![field("step", 6usize), field("epoch", 1usize)],
            )
            .to_json_line(4),
        ];
        let jsonl = lines.join("\n") + "\n";
        let report = RunReport::from_jsonl(&jsonl).unwrap();
        let text = report.render();
        assert!(text.contains("Recovery timeline"), "{text}");
        assert!(text.contains("done=2 total=4"), "{text}");
        assert!(text.contains("cell=mlp/vtrain"), "{text}");
        assert!(text.contains("checkpoint_write"), "{text}");
        assert!(text.contains("epoch=1 bytes=1024"), "{text}");
        assert!(text.contains("slot=primary"), "{text}");
        assert!(text.contains("checkpoint_restore"), "{text}");
    }

    #[test]
    fn renders_ingest_events() {
        let lines = [
            Event::new(
                schema::INGEST_START,
                vec![field("resumed", false), field("chunk_rows", 4096usize)],
            )
            .to_json_line(0),
            Event::new(
                schema::CHUNK_SEALED,
                vec![
                    field("chunk", 0usize),
                    field("rows", 4096usize),
                    field("bytes", 99000usize),
                ],
            )
            .to_json_line(1),
            Event::new(
                schema::INGEST_ROW_REJECTED,
                vec![field("line", 4100usize), field("reason", "non_finite")],
            )
            .to_json_line(2),
            Event::new(
                schema::INGEST_RESUME,
                vec![field("from_chunk", 1usize), field("skip_lines", 4096usize)],
            )
            .to_json_line(3),
            Event::new(
                schema::CHUNK_QUARANTINED,
                vec![field("chunk", 1usize), field("error", "bad crc")],
            )
            .to_json_line(4),
            Event::new(
                schema::INGEST_END,
                vec![
                    field("rows", 5000usize),
                    field("rejected", 1usize),
                    field("chunks", 2usize),
                ],
            )
            .to_json_line(5),
        ];
        let jsonl = lines.join("\n") + "\n";
        let report = RunReport::from_jsonl(&jsonl).unwrap();
        let text = report.render();
        assert!(text.contains("Ingestion"), "{text}");
        assert!(text.contains("resumed=false chunk_rows=4096"), "{text}");
        assert!(text.contains("rows=4096 bytes=99000"), "{text}");
        assert!(text.contains("rows=5000 rejected=1 chunks=2"), "{text}");
        assert!(text.contains("Recovery timeline"), "{text}");
        assert!(text.contains("line=4100 reason=non_finite"), "{text}");
        assert!(text.contains("from_chunk=1 skip_lines=4096"), "{text}");
        assert!(text.contains("chunk=1 error=bad crc"), "{text}");
    }

    #[test]
    fn renders_serving_section() {
        let lines = [
            Event::new(
                schema::SERVE_START,
                vec![
                    field("params", 1234usize),
                    field("bytes", 4936usize),
                    field("columns", 9usize),
                    field("conditional", true),
                    field("max_conn", 4usize),
                    field("max_rows", 1_000_000usize),
                ],
            )
            .non_deterministic()
            .to_json_line(0),
            Event::new(
                schema::SERVE_REQUEST_END,
                vec![field("conn", 0usize), field("rows", 500usize), field("ok", true)],
            )
            .non_deterministic()
            .with_wall(vec![field("ms", 20.0f64)])
            .to_json_line(1),
            Event::new(
                schema::SERVE_REQUEST_END,
                vec![field("conn", 1usize), field("rows", 1500usize), field("ok", true)],
            )
            .non_deterministic()
            .with_wall(vec![field("ms", 80.0f64)])
            .to_json_line(2),
            snapshot_line(
                &[(
                    "serve.rows_per_request",
                    histogram(vec![(256, 1), (1024, 1)], 2000),
                )],
                &[],
                3,
            ),
        ];
        let jsonl = lines.join("\n") + "\n";
        let report = RunReport::from_jsonl(&jsonl).unwrap();
        let text = report.render();
        assert!(text.contains("Serving"), "{text}");
        assert!(text.contains("params=1234"), "{text}");
        assert!(text.contains("total=2 ok=2 rows=2000"), "{text}");
        // 2000 rows over 100 ms of summed request wall time.
        assert!(text.contains("20000 rows/sec"), "{text}");
        // One row count in [256,512), one in [1024,2048): p50 lands at
        // the top of the first bucket, p99 interpolates 98% into the
        // second — estimates, and labelled as such.
        assert!(text.contains("p50≈512 p99≈2028"), "{text}");
        assert!(text.contains("interpolation estimate"), "{text}");
    }

    #[test]
    fn renders_latency_pipelining_and_profile_sections() {
        let lines = [
            Event::new(
                schema::SERVE_REQUEST_END,
                vec![field("conn", 0usize), field("rows", 64usize), field("ok", true)],
            )
            .non_deterministic()
            .with_wall(vec![field("ms", 4.0f64)])
            .to_json_line(0),
            snapshot_line(
                &[
                    ("serve.request_us", histogram(vec![(4096, 4)], 16000)),
                    ("serve.requests_per_conn", histogram(vec![(2, 2)], 4)),
                ],
                &[
                    PhaseStat {
                        path: "serve_request".to_string(),
                        calls: 4,
                        total_ns: 16_000_000,
                        self_ns: 6_000_000,
                    },
                    PhaseStat {
                        path: "serve_request/generate".to_string(),
                        calls: 4,
                        total_ns: 10_000_000,
                        self_ns: 10_000_000,
                    },
                ],
                1,
            ),
        ];
        let jsonl = lines.join("\n") + "\n";
        let report = RunReport::from_jsonl(&jsonl).unwrap();
        let text = report.render();
        assert!(text.contains("latency"), "{text}");
        // 4 observations in [4096,8192) µs: p50 interpolates to 6.1ms.
        assert!(text.contains("p50≈6.1ms"), "{text}");
        assert!(text.contains("pipelining"), "{text}");
        // 2 observations in [2,4): p50 interpolates to the midpoint.
        assert!(text.contains("requests/conn p50≈3"), "{text}");
        assert!(text.contains("Profile"), "{text}");
        // Hottest self time first: the generate child outranks its
        // parent's self share.
        let generate_at = text
            .find("        10.0         10.0          4  serve_request/generate\n")
            .expect("child phase listed");
        let parent_at = text
            .find("         6.0         16.0          4  serve_request\n")
            .expect("parent phase listed");
        assert!(generate_at < parent_at, "{text}");
    }

    #[test]
    fn snapshots_without_an_exposition_are_skipped_and_a_bad_one_is_an_error() {
        // A snapshot event from before the exposition field: the trace
        // still validates and renders, without the snapshot sections.
        let old = Event::new(schema::METRICS_SNAPSHOT, vec![field("pool.jobs", 12u64)])
            .non_deterministic()
            .to_json_line(0);
        let text = RunReport::from_jsonl(&(old.clone() + "\n")).unwrap().render();
        assert!(!text.contains("Metrics (last snapshot"), "{text}");
        // The last snapshot with an exposition wins over older ones.
        let new = snapshot_line(&[("pool.jobs", MetricReading::Counter(7))], &[], 1);
        let jsonl = format!("{new}\n{old}\n").replace("\"seq\":0", "\"seq\":2");
        let text = RunReport::from_jsonl(&jsonl).unwrap().render();
        assert!(text.contains("daisy_pool_jobs 7"), "{text}");
        let bad = Event::new(schema::METRICS_SNAPSHOT, vec![field("exposition", "9bad 1\n")])
            .non_deterministic()
            .to_json_line(0);
        assert!(RunReport::from_jsonl(&(bad + "\n")).is_err());
    }

    #[test]
    fn rejects_malformed_traces() {
        assert!(RunReport::from_jsonl("garbage\n").is_err());
    }
}
