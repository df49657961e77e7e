//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! open-loop lateness, failure accounting and the peak-RSS reader.
//! Every rule here is pinned by the unit tests at the bottom.

/// Percentiles the tail rule may report, highest first. A fixed ladder
/// keeps the reported percentile comparable between runs whose sample
/// counts differ by a few.
const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// Samples per window of [`windowed_tail`].
const TAIL_WINDOW: usize = 200;

/// Median of `values` (mean of the middle pair for an even count).
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A tail reading: `value` is the `pct`-th percentile (nearest rank) of
/// `n` samples, and `beyond` samples are strictly greater than it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub beyond: usize,
    pub n: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. With too few samples for even
/// the median to qualify, the maximum is reported as the 100th
/// percentile with nothing beyond it, so the caller can still print
/// the sample count next to it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for &pct in &TAIL_LADDER {
        // Nearest-rank percentile: the smallest value with at least
        // pct% of the samples at or below it. Integer tenths of a
        // percent keep `ceil` away from float round-off.
        let tenths = (pct * 10.0).round() as usize;
        let rank = (tenths * n).div_ceil(1000).max(1);
        let value = v[rank - 1];
        let beyond = v.iter().filter(|&&x| x > value).count();
        if beyond >= TAIL_MIN_BEYOND {
            return Some(Tail {
                pct,
                value,
                beyond,
                n,
            });
        }
    }
    Some(Tail {
        pct: 100.0,
        value: v[n - 1],
        beyond: 0,
        n,
    })
}

/// [`tail`] applied to consecutive windows of about [`TAIL_WINDOW`]
/// samples in completion order, reporting the median window tail, so
/// one stall of a shared host moves one window rather than the figure.
/// Under two windows of samples it is the plain [`tail`].
pub fn windowed_tail(values: &[f64]) -> Option<Tail> {
    let windows = values.len() / TAIL_WINDOW;
    if windows < 2 {
        return tail(values);
    }
    let size = values.len().div_ceil(windows);
    let tails: Vec<Tail> = values.chunks(size).filter_map(tail).collect();
    let at: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Some(Tail {
        pct: tails.iter().map(|t| t.pct).fold(100.0, f64::min),
        value: median(&at)?,
        beyond: tails.iter().map(|t| t.beyond).sum(),
        n: values.len(),
    })
}

/// Outcome of one request as the load generator saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Validated end to end; the latency in milliseconds.
    Ok(f64),
    /// The server refused it with a typed rejection.
    Rejected,
    /// Transport or protocol failure, or a response that failed
    /// validation.
    Failed,
}

/// Failure accounting over a run's requests: refused and failed
/// requests both count as failures and contribute no latency sample,
/// so they can only worsen — never flatter — the latency figures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    pub attempted: usize,
    pub rejected: usize,
    pub failed: usize,
    pub latencies_ms: Vec<f64>,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok(ms) => self.latencies_ms.push(ms),
            Outcome::Rejected => self.rejected += 1,
            Outcome::Failed => self.failed += 1,
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.rejected += other.rejected;
        self.failed += other.failed;
        self.latencies_ms.extend(other.latencies_ms);
    }

    /// Requests that did not validate, for any reason.
    pub fn failures(&self) -> usize {
        self.rejected + self.failed
    }

    /// `failures / attempted`; 0 for an empty tally.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failures() as f64 / self.attempted as f64
        }
    }
}

/// Open-loop timing of one request: latency runs from when the request
/// was *due*, not from when the sender got round to it, so a stall
/// charges its wait to every request queued behind it. `lateness` is
/// how far the sender itself ran behind the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopTiming {
    pub latency_ms: f64,
    pub lateness_ms: f64,
}

/// Times one open-loop request from its schedule offset `due_ms`, the
/// offset the sender actually issued it at (`sent_ms`) and the offset
/// its response validated at (`done_ms`), all relative to the run
/// start.
pub fn open_loop(due_ms: f64, sent_ms: f64, done_ms: f64) -> OpenLoopTiming {
    OpenLoopTiming {
        latency_ms: done_ms - due_ms,
        lateness_ms: (sent_ms - due_ms).max(0.0),
    }
}

/// Seeded exponential inter-arrival schedule: `count` due offsets in
/// milliseconds at `rate_per_s` requests per second, starting after the
/// first gap. `uniform` draws values in (0, 1].
pub fn exponential_schedule(
    rate_per_s: f64,
    count: usize,
    mut uniform: impl FnMut() -> f64,
) -> Vec<f64> {
    let mean_gap_ms = 1000.0 / rate_per_s;
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += -uniform().ln() * mean_gap_ms;
            t
        })
        .collect()
}

/// Peak resident set size in MiB from the text of `/proc/self/status`
/// (its `VmHWM` line, in kB). `None` when the line is missing or
/// malformed.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Resets the kernel's peak-RSS mark for this process, so the next
/// [`peak_rss_mb`] reading covers only what follows. Returns false
/// where the kernel does not support it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_peak_rss_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1..=1000: p99 is 990 with exactly 10 samples above it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.n), (99.0, 990.0, 10, 1000));
        // 10 000 samples reach p99.9 (9990, 10 beyond).
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.9, 9990.0, 10));
        // 100 samples: p90 = 90 leaves exactly 10; p95 would leave 5.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
    }

    #[test]
    fn tail_counts_ties_at_the_percentile_as_not_beyond() {
        // 95 equal samples then 5 larger: p50 = 1 with only 5 beyond,
        // so no ladder rung qualifies and the maximum is reported.
        let mut v = vec![1.0; 95];
        v.extend([2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = tail(&v).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.n), (100.0, 6.0, 0, 100));
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let t = tail(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((t.pct, t.value, t.beyond, t.n), (100.0, 5.0, 0, 3));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn windowed_tail_is_the_median_window_tail() {
        // Five windows of 1..=200; one carries a burst of ten huge
        // samples. The plain tail (p99 of 1000) sits on the burst's
        // edge; the windowed one stays on a typical window's p95.
        let mut v: Vec<f64> = (0..5).flat_map(|_| (1..=200).map(f64::from)).collect();
        for x in &mut v[190..200] {
            *x = 1e6;
        }
        assert_eq!(tail(&v).unwrap().value, 200.0);
        let w = windowed_tail(&v).unwrap();
        assert_eq!((w.pct, w.value, w.beyond, w.n), (95.0, 190.0, 50, 1000));
        let few: Vec<f64> = (1..=300).map(f64::from).collect();
        assert_eq!(windowed_tail(&few), tail(&few));
    }

    #[test]
    fn open_loop_latency_runs_from_due_time() {
        // Due at 100 ms, sent late at 130 ms, validated at 150 ms: the
        // 30 ms the sender lagged are charged to the request.
        let t = open_loop(100.0, 130.0, 150.0);
        assert_eq!(t.latency_ms, 50.0);
        assert_eq!(t.lateness_ms, 30.0);
        // Sent early (never happens, but must not read as negative).
        assert_eq!(open_loop(100.0, 99.0, 110.0).lateness_ms, 0.0);
    }

    #[test]
    fn exponential_schedule_has_the_requested_mean_rate() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let uniform = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 + 1.0) / (1u64 << 53) as f64
        };
        let due = exponential_schedule(100.0, 20_000, uniform);
        assert!(due.windows(2).all(|w| w[1] >= w[0]));
        let rate = due.len() as f64 / (due[due.len() - 1] / 1000.0);
        assert!((rate - 100.0).abs() < 3.0, "rate {rate}");
    }

    #[test]
    fn refused_and_failed_requests_count_as_failures_without_latency() {
        let mut t = Tally::default();
        t.record(Outcome::Ok(4.0));
        t.record(Outcome::Rejected);
        t.record(Outcome::Failed);
        t.record(Outcome::Ok(6.0));
        assert_eq!(t.attempted, 4);
        assert_eq!(t.failures(), 2);
        assert_eq!(t.failed_frac(), 0.5);
        assert_eq!(t.latencies_ms, vec![4.0, 6.0]);
        let mut all = Tally::default();
        all.merge(t.clone());
        all.merge(t);
        assert_eq!((all.attempted, all.failures()), (8, 4));
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn peak_rss_parses_vmhwm() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(50.0));
        assert_eq!(parse_peak_rss_mb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\tlots kB\n"), None);
        // The live reader works on this kernel and sees a nonzero peak.
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
