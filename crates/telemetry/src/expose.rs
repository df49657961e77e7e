//! Prometheus-style text exposition of the metrics registry and the
//! phase profiler.
//!
//! [`render`] serializes every registered metric plus every recorded
//! phase into the plain-text format scrapers speak: `# TYPE` comment
//! lines followed by `name{labels} value` samples. Counters and gauges
//! are one sample each; histograms become cumulative `_bucket{le=...}`
//! samples (inclusive upper bounds of the pow2 buckets) plus `_sum`
//! and `_count`; phases become three label-per-path families,
//! `daisy_phase_calls_total`, `daisy_phase_seconds_total`, and
//! `daisy_phase_self_seconds_total`.
//!
//! Metric names are sanitized for the format (`daisy_` prefix, every
//! non-alphanumeric byte to `_`), so `serve.request_us` exposes as
//! `daisy_serve_request_us`.
//!
//! The same text is the one serialization of a registry snapshot: a
//! trace's `metrics` events carry it as their `exposition` field
//! ([`crate::emit_metrics_snapshot`]).
//!
//! [`parse`] is the matching reader, and [`Snapshot::decode`] builds on
//! it: `daisy report` decodes a trace's last snapshot and `daisy top`
//! each `/metrics` poll through it. The parser is intentionally strict:
//! malformed names, labels, or values are errors, not skips, so a
//! formatting regression fails loudly in CI.

use crate::profile::PhaseStat;
use crate::{metrics, profile};
use std::fmt::Write as _;

/// Serializes the current metrics registry and phase-profiler state to
/// exposition text. Reads live atomics; two calls can legitimately
/// disagree.
pub fn render() -> String {
    render_parts(&metrics::readings(), &profile::snapshot())
}

/// [`render`] over explicit inputs (the testable core).
pub fn render_parts(readings: &[(&str, metrics::MetricReading)], phases: &[PhaseStat]) -> String {
    let mut out = String::new();
    for (name, reading) in readings {
        let pname = sanitize(name);
        match reading {
            metrics::MetricReading::Counter(v) => {
                let _ = writeln!(out, "# TYPE {pname} counter");
                let _ = writeln!(out, "{pname} {v}");
            }
            metrics::MetricReading::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {pname} gauge");
                let _ = writeln!(out, "{pname} {}", num(*v));
            }
            metrics::MetricReading::Histogram {
                buckets,
                count,
                sum,
            } => {
                let _ = writeln!(out, "# TYPE {pname} histogram");
                let mut cumulative = 0u64;
                for &(lo, n) in buckets {
                    cumulative += n;
                    let le = metrics::bucket_le(lo);
                    let _ = writeln!(out, "{pname}_bucket{{le=\"{le}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {count}");
                let _ = writeln!(out, "{pname}_sum {sum}");
                let _ = writeln!(out, "{pname}_count {count}");
            }
        }
    }
    if !phases.is_empty() {
        let _ = writeln!(out, "# TYPE daisy_phase_calls_total counter");
        for p in phases {
            let _ = writeln!(
                out,
                "daisy_phase_calls_total{{phase=\"{}\"}} {}",
                p.path, p.calls
            );
        }
        let _ = writeln!(out, "# TYPE daisy_phase_seconds_total counter");
        for p in phases {
            let _ = writeln!(
                out,
                "daisy_phase_seconds_total{{phase=\"{}\"}} {}",
                p.path,
                num(p.total_ns as f64 / 1e9)
            );
        }
        let _ = writeln!(out, "# TYPE daisy_phase_self_seconds_total counter");
        for p in phases {
            let _ = writeln!(
                out,
                "daisy_phase_self_seconds_total{{phase=\"{}\"}} {}",
                p.path,
                num(p.self_ns as f64 / 1e9)
            );
        }
    }
    out
}

/// Exposition metric name for a registry name: `daisy_` prefix, every
/// byte outside `[A-Za-z0-9_]` replaced with `_`.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("daisy_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn num(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// One parsed exposition sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (already includes any `_bucket`/`_sum` suffix).
    pub name: String,
    /// Label pairs in source order; empty when the sample has none.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl Sample {
    /// The value of the label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Writes the sample as its exposition line, without the newline.
impl std::fmt::Display for Sample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)?;
        if !self.labels.is_empty() {
            let labels: Vec<String> = self
                .labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{v}\""))
                .collect();
            write!(f, "{{{}}}", labels.join(","))?;
        }
        write!(f, " {}", num(self.value))
    }
}

/// The three per-phase families [`render_parts`] writes, in the order
/// of [`PhaseStat`]'s `calls`, `total_ns` and `self_ns`.
const PHASE_FAMILIES: [&str; 3] = [
    "daisy_phase_calls_total",
    "daisy_phase_seconds_total",
    "daisy_phase_self_seconds_total",
];

/// One reading of the metrics registry and the phase profiler, decoded
/// from exposition text: the inverse of [`render_parts`]. `daisy
/// report` reads a trace's last snapshot and `daisy top` each
/// `/metrics` poll through it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Every sample outside the phase families, in text order.
    pub samples: Vec<Sample>,
    /// One entry per phase path, in text order.
    pub phases: Vec<PhaseStat>,
}

impl Snapshot {
    /// Parses exposition text ([`parse`]) and folds the three phase
    /// families into one [`PhaseStat`] per path.
    pub fn decode(text: &str) -> Result<Snapshot, String> {
        let mut snap = Snapshot::default();
        for s in parse(text)? {
            let family = PHASE_FAMILIES.iter().position(|f| *f == s.name);
            let (Some(family), Some(path)) = (family, s.label("phase")) else {
                snap.samples.push(s);
                continue;
            };
            let at = snap.phases.iter().position(|p| p.path == path);
            let at = at.unwrap_or_else(|| {
                let path = path.to_string();
                snap.phases.push(PhaseStat {
                    path,
                    ..PhaseStat::default()
                });
                snap.phases.len() - 1
            });
            let phase = &mut snap.phases[at];
            let ns = (s.value * 1e9).round() as u64;
            match family {
                0 => phase.calls = s.value as u64,
                1 => phase.total_ns = ns,
                _ => phase.self_ns = ns,
            }
        }
        Ok(snap)
    }

    /// The value of the counter or gauge registered as `name` (for
    /// example `serve.requests`), if the snapshot holds it.
    pub fn value(&self, name: &str) -> Option<f64> {
        sample_value(&self.samples, &sanitize(name))
    }

    /// The `p`-th percentile estimate of the histogram registered as
    /// `name` ([`metrics::bucket_percentile`]); `None` when the
    /// histogram is absent or empty.
    pub fn percentile(&self, name: &str, p: f64) -> Option<f64> {
        metrics::bucket_percentile(&histogram_pairs(&self.samples, &sanitize(name)), p)
    }
}

/// Parses exposition text into samples, validating the format: names
/// must match `[A-Za-z_:][A-Za-z0-9_:]*`, label values must be quoted,
/// and values must be floats (or `+Inf`/`-Inf`/`NaN`). Comment (`#`)
/// and blank lines are skipped.
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = idx + 1;
        let (name_and_labels, value_text) = match line.find([' ', '\t']) {
            Some(split) if line[..split].contains('{') => {
                // A label value may contain spaces; split after `}`.
                let close = line
                    .find('}')
                    .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
                (line[..=close].trim(), line[close + 1..].trim())
            }
            Some(split) => (line[..split].trim(), line[split + 1..].trim()),
            None => return Err(format!("line {lineno}: no value on sample line")),
        };
        let (name, labels) = match name_and_labels.find('{') {
            Some(open) => {
                let inner = name_and_labels
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
                (&name_and_labels[..open], parse_labels(&inner[open + 1..], lineno)?)
            }
            None => (name_and_labels, Vec::new()),
        };
        if !valid_name(name) {
            return Err(format!("line {lineno}: invalid metric name {name:?}"));
        }
        let value = parse_value(value_text)
            .ok_or_else(|| format!("line {lineno}: invalid value {value_text:?}"))?;
        samples.push(Sample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    Ok(samples)
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_value(text: &str) -> Option<f64> {
    match text {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        t => t.parse::<f64>().ok(),
    }
}

fn parse_labels(inner: &str, lineno: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {lineno}: label without '='"))?;
        let key = rest[..eq].trim().to_string();
        if !valid_name(&key) {
            return Err(format!("line {lineno}: invalid label name {key:?}"));
        }
        let after = rest[eq + 1..].trim_start();
        let mut chars = after.char_indices();
        if chars.next().map(|(_, c)| c) != Some('"') {
            return Err(format!("line {lineno}: unquoted label value"));
        }
        let mut value = String::new();
        let mut end = None;
        let mut escaped = false;
        for (i, c) in chars {
            if escaped {
                value.push(match c {
                    'n' => '\n',
                    other => other,
                });
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            } else {
                value.push(c);
            }
        }
        let end = end.ok_or_else(|| format!("line {lineno}: unterminated label value"))?;
        labels.push((key, value));
        rest = after[end + 1..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Ok(labels)
}

/// Reconstructs `(lower_bound, count)` histogram bucket pairs for the
/// sanitized metric `name` from its cumulative `<name>_bucket{le=...}`
/// samples (the inverse of what [`render`] writes). The `+Inf` bucket
/// is dropped; finite `le` values map back to pow2 lower bounds.
pub fn histogram_pairs(samples: &[Sample], name: &str) -> Vec<(u64, u64)> {
    let bucket_name = format!("{name}_bucket");
    let mut les: Vec<(u64, u64)> = samples
        .iter()
        .filter(|s| s.name == bucket_name)
        .filter_map(|s| {
            let le = s.label("le")?;
            if le == "+Inf" {
                return None;
            }
            let le: u64 = le.parse().ok()?;
            Some((le, s.value as u64))
        })
        .collect();
    les.sort_by_key(|&(le, _)| le);
    let mut pairs = Vec::with_capacity(les.len());
    let mut prev_cum = 0u64;
    for (le, cum) in les {
        let n = cum.saturating_sub(prev_cum);
        prev_cum = cum;
        if n == 0 {
            continue;
        }
        let lo = if le == 0 { 0 } else { le.div_ceil(2) };
        pairs.push((lo, n));
    }
    pairs
}

/// The value of the unlabeled sample `name`, if present.
pub fn sample_value(samples: &[Sample], name: &str) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.name == name && s.labels.is_empty())
        .map(|s| s.value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricReading;
    use crate::profile::PhaseStat;

    #[test]
    fn exposition_round_trips_through_the_parser() {
        let readings = vec![
            ("serve.requests", MetricReading::Counter(12)),
            ("serve.active_conns", MetricReading::Gauge(2.0)),
            (
                "serve.request_us",
                MetricReading::Histogram {
                    buckets: vec![(0, 1), (256, 3), (1024, 1)],
                    count: 5,
                    sum: 2000,
                },
            ),
        ];
        let phases = vec![
            PhaseStat {
                path: "fit".to_string(),
                calls: 1,
                total_ns: 2_500_000_000,
                self_ns: 500_000_000,
            },
            PhaseStat {
                path: "fit/epoch".to_string(),
                calls: 4,
                total_ns: 2_000_000_000,
                self_ns: 2_000_000_000,
            },
        ];
        let text = render_parts(&readings, &phases);
        let samples = parse(&text).expect("writer output parses");

        assert_eq!(sample_value(&samples, "daisy_serve_requests"), Some(12.0));
        assert_eq!(
            sample_value(&samples, "daisy_serve_active_conns"),
            Some(2.0)
        );
        assert_eq!(
            sample_value(&samples, "daisy_serve_request_us_count"),
            Some(5.0)
        );
        assert_eq!(
            sample_value(&samples, "daisy_serve_request_us_sum"),
            Some(2000.0)
        );
        // Buckets decumulate back to exactly the input pairs.
        assert_eq!(
            histogram_pairs(&samples, "daisy_serve_request_us"),
            vec![(0, 1), (256, 3), (1024, 1)]
        );
        // The +Inf bucket equals the count.
        let inf = samples
            .iter()
            .find(|s| s.name == "daisy_serve_request_us_bucket" && s.label("le") == Some("+Inf"))
            .expect("+Inf bucket present");
        assert_eq!(inf.value, 5.0);
        // Phase families carry the path as a label.
        let calls = samples
            .iter()
            .find(|s| s.name == "daisy_phase_calls_total" && s.label("phase") == Some("fit/epoch"))
            .expect("phase sample present");
        assert_eq!(calls.value, 4.0);
        let secs = samples
            .iter()
            .find(|s| {
                s.name == "daisy_phase_seconds_total" && s.label("phase") == Some("fit")
            })
            .expect("seconds sample present");
        assert_eq!(secs.value, 2.5);
    }

    #[test]
    fn snapshot_decodes_what_render_parts_wrote() {
        let readings = vec![
            ("serve.requests", MetricReading::Counter(12)),
            ("serve.active_conns", MetricReading::Gauge(2.5)),
            (
                "serve.request_us",
                MetricReading::Histogram {
                    buckets: vec![(0, 9), (1024, 1)],
                    count: 10,
                    sum: 1500,
                },
            ),
        ];
        let phases = vec![
            PhaseStat {
                path: "fit".to_string(),
                calls: 1,
                total_ns: 2_500_000_123,
                self_ns: 499_999_877,
            },
            PhaseStat {
                path: "fit/epoch".to_string(),
                calls: 4,
                total_ns: 2_000_000_246,
                self_ns: 2_000_000_246,
            },
        ];
        let text = render_parts(&readings, &phases);
        let snap = Snapshot::decode(&text).expect("writer output decodes");
        // Phases come back to the nanosecond; every other sample stays
        // a sample, and each prints as the line it was parsed from.
        assert_eq!(snap.phases, phases);
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with("daisy_phase_"))
            .collect();
        let printed: Vec<String> = snap.samples.iter().map(|s| s.to_string()).collect();
        assert_eq!(printed, lines);
        assert_eq!(snap.value("serve.requests"), Some(12.0));
        assert_eq!(snap.value("serve.active_conns"), Some(2.5));
        assert_eq!(snap.value("serve.missing"), None);
        // 9 zeros and one value in [1024, 2048): p50 is exactly zero and
        // p99 (rank 9.9) lies 90% through the top bucket.
        assert_eq!(snap.percentile("serve.request_us", 50.0), Some(0.0));
        let p99 = snap
            .percentile("serve.request_us", 99.0)
            .expect("non-empty");
        assert!((1945.0..1946.0).contains(&p99), "got {p99}");
        assert_eq!(snap.percentile("serve.missing", 50.0), None);
        assert!(Snapshot::decode("9bad 1\n").is_err());
    }

    #[test]
    fn live_registry_renders_parseable_text() {
        crate::metrics::counter("test.expose.live").add(3);
        crate::metrics::histogram("test.expose.hist").observe(100);
        let text = render();
        let samples = parse(&text).expect("live exposition parses");
        assert!(sample_value(&samples, "daisy_test_expose_live").is_some());
        assert!(sample_value(&samples, "daisy_test_expose_hist_count").is_some());
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse("name_only\n").is_err());
        assert!(parse("9bad_name 1\n").is_err());
        assert!(parse("name{le=\"3\" 1\n").is_err(), "unterminated labels");
        assert!(parse("name{le=3} 1\n").is_err(), "unquoted label value");
        assert!(parse("name not_a_number\n").is_err());
        assert!(parse("# comment\n\nok_name 1.5\n").is_ok());
    }

    #[test]
    fn sanitize_prefixes_and_replaces() {
        assert_eq!(sanitize("serve.request_us"), "daisy_serve_request_us");
        assert_eq!(sanitize("pool.steal-count"), "daisy_pool_steal_count");
    }
}
