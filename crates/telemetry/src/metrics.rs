//! The process-global metrics registry: counters, gauges, and
//! fixed-bucket histograms.
//!
//! Metrics are the *aggregate* plane of the telemetry layer,
//! complementing the event stream: worker-pool task counts, steal and
//! idle counters, and per-kernel dispatch-size histograms accumulate
//! here from any thread via lock-free atomics. Because their values
//! legitimately depend on the thread count and on scheduling, metrics
//! never enter the deterministic event stream directly — a snapshot can
//! be emitted as a single event explicitly marked non-deterministic
//! ([`crate::emit_metrics_snapshot`]).
//!
//! Handles are interned: [`counter`], [`gauge`] and [`histogram`]
//! return `&'static` references, so hot call sites can cache them in a
//! `OnceLock` and pay one atomic add per update. Call sites in hot
//! kernels should additionally gate on [`crate::enabled`] so a run
//! without telemetry pays only one relaxed load.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of power-of-two buckets in a [`Histogram`] (`2^0 .. 2^63`,
/// plus a zero bucket at index 0).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket histogram over unsigned sizes, with power-of-two
/// bucket edges: bucket 0 counts zeros, bucket `i >= 1` counts values
/// in `[2^(i-1), 2^i)`. Fixed edges keep observation cost at one shift
/// plus one atomic add and make snapshots machine-independent in
/// *shape* (the counts may still differ run to run).
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs in ascending
    /// bucket order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        (0..HISTOGRAM_BUCKETS)
            .filter_map(|i| {
                let n = self.buckets[i].load(Ordering::Relaxed);
                (n > 0).then(|| {
                    let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                    (lo, n)
                })
            })
            .collect()
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

enum Metric {
    C(&'static Counter),
    G(&'static Gauge),
    H(&'static Histogram),
}

static REGISTRY: Mutex<BTreeMap<&'static str, Metric>> = Mutex::new(BTreeMap::new());

/// Interns (or retrieves) the counter named `name`.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    match reg
        .entry(name)
        .or_insert_with(|| Metric::C(Box::leak(Box::new(Counter::default()))))
    {
        Metric::C(c) => c,
        _ => panic!("metric {name:?} is not a counter"),
    }
}

/// Interns (or retrieves) the gauge named `name`.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    match reg
        .entry(name)
        .or_insert_with(|| Metric::G(Box::leak(Box::new(Gauge::default()))))
    {
        Metric::G(g) => g,
        _ => panic!("metric {name:?} is not a gauge"),
    }
}

/// Interns (or retrieves) the histogram named `name`.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    match reg
        .entry(name)
        .or_insert_with(|| Metric::H(Box::leak(Box::new(Histogram::default()))))
    {
        Metric::H(h) => h,
        _ => panic!("metric {name:?} is not a histogram"),
    }
}

/// A point-in-time reading of one registered metric, in structured
/// form: the input of the Prometheus-style exposition writer
/// ([`crate::expose`]), which is also how snapshots enter a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricReading {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state: non-empty `(bucket_lower_bound, count)` pairs
    /// in ascending order, plus total count and sum.
    Histogram {
        /// Non-empty `(lower_bound, count)` pairs, ascending.
        buckets: Vec<(u64, u64)>,
        /// Total observations.
        count: u64,
        /// Sum of observed values.
        sum: u64,
    },
}

/// Reads every registered metric, in lexicographic name order.
pub fn readings() -> Vec<(&'static str, MetricReading)> {
    let reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    reg.iter()
        .map(|(name, metric)| {
            let reading = match metric {
                Metric::C(c) => MetricReading::Counter(c.get()),
                Metric::G(g) => MetricReading::Gauge(g.get()),
                Metric::H(h) => MetricReading::Histogram {
                    buckets: h.nonzero_buckets(),
                    count: h.count(),
                    sum: h.sum(),
                },
            };
            (*name, reading)
        })
        .collect()
}

/// Inclusive upper bound of the pow2 bucket whose lower bound is `lo`:
/// the zero bucket holds only 0, bucket `[lo, 2lo)` tops out at
/// `2lo - 1`. This is the `le` label the exposition format uses.
pub fn bucket_le(lo: u64) -> u64 {
    if lo == 0 {
        0
    } else {
        lo.saturating_mul(2).saturating_sub(1)
    }
}

/// Estimates the `p`-th percentile (0–100) from pow2
/// `(lower_bound, count)` bucket pairs by **linear interpolation
/// within the target bucket** — the standard Prometheus-style
/// estimate. Exact only when observations are uniform inside the
/// bucket; callers should label the value as an estimate. Returns
/// `None` for an empty histogram.
pub fn bucket_percentile(pairs: &[(u64, u64)], p: f64) -> Option<f64> {
    let total: u64 = pairs.iter().map(|(_, n)| n).sum();
    if total == 0 {
        return None;
    }
    // Rank in (0, total]: the observation index the percentile names.
    let target = (p / 100.0 * total as f64).clamp(f64::MIN_POSITIVE, total as f64);
    let mut seen = 0f64;
    for &(lo, n) in pairs {
        let here = n as f64;
        if seen + here >= target {
            if lo == 0 {
                return Some(0.0); // the zero bucket holds only zeros
            }
            let hi = lo.saturating_mul(2);
            let frac = ((target - seen) / here).clamp(0.0, 1.0);
            return Some(lo as f64 + frac * (hi - lo) as f64);
        }
        seen += here;
    }
    pairs.last().map(|&(lo, _)| bucket_le(lo) as f64)
}

/// Zeroes every registered metric (counters and histograms to 0,
/// gauges to 0.0). For tests and benchmark isolation; production code
/// never needs it.
pub fn reset_all() {
    let reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    for metric in reg.values() {
        match metric {
            Metric::C(c) => c.value.store(0, Ordering::Relaxed),
            Metric::G(g) => g.bits.store(0f64.to_bits(), Ordering::Relaxed),
            Metric::H(h) => h.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let c = counter("test.metrics.counter");
        c.add(2);
        c.add(3);
        assert!(c.get() >= 5);
        let g = gauge("test.metrics.gauge");
        g.set(1.5);
        assert_eq!(g.get(), 1.5);
        // Interning returns the same handle.
        assert!(std::ptr::eq(c, counter("test.metrics.counter")));
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        let h = histogram("test.metrics.hist");
        h.reset();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        let buckets = h.nonzero_buckets();
        // 0 -> bucket 0; 1 -> [1,2); 2,3 -> [2,4); 1024 -> [1024,2048).
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (1024, 1)]);
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn kind_mismatch_panics() {
        counter("test.metrics.mismatch");
        gauge("test.metrics.mismatch");
    }

    #[test]
    fn readings_list_every_metric_in_name_order() {
        counter("test.readings.c").add(7);
        gauge("test.readings.g").set(2.0);
        let h = histogram("test.readings.h");
        h.reset();
        h.observe(5);
        let all = readings();
        let names: Vec<&str> = all
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| n.starts_with("test.readings."))
            .collect();
        assert_eq!(
            names,
            vec!["test.readings.c", "test.readings.g", "test.readings.h"]
        );
        let c = all.iter().find(|(n, _)| *n == "test.readings.c");
        assert!(matches!(c, Some((_, MetricReading::Counter(v))) if *v >= 7));
        let hist = all.iter().find(|(n, _)| *n == "test.readings.h");
        let Some((_, MetricReading::Histogram { buckets, count, sum })) = hist else {
            panic!("histogram reading present");
        };
        assert_eq!(*count, 1);
        assert_eq!(*sum, 5);
        assert_eq!(buckets, &vec![(4, 1)]);
    }

    #[test]
    fn bucket_percentile_interpolates_within_the_bucket() {
        // 10 observations in [256, 512): p50 names the 5th, estimated
        // halfway through the bucket.
        let pairs = vec![(256u64, 10u64)];
        let p50 = bucket_percentile(&pairs, 50.0).expect("non-empty");
        assert_eq!(p50, 256.0 + 0.5 * 256.0);
        // p100 reaches the bucket's top edge.
        let p100 = bucket_percentile(&pairs, 100.0).expect("non-empty");
        assert_eq!(p100, 512.0);
        // Mixed buckets: 3 in [2,4), 1 in [1024,2048); p75 still lands
        // in the first, p99 in the last.
        let mixed = vec![(2u64, 3u64), (1024u64, 1u64)];
        let p75 = bucket_percentile(&mixed, 75.0).expect("non-empty");
        assert!((2.0..=4.0).contains(&p75), "got {p75}");
        let p99 = bucket_percentile(&mixed, 99.0).expect("non-empty");
        assert!((1024.0..=2048.0).contains(&p99), "got {p99}");
        // Zeros stay exactly zero, and empty histograms have no answer.
        assert_eq!(bucket_percentile(&[(0, 4)], 50.0), Some(0.0));
        assert_eq!(bucket_percentile(&[], 50.0), None);
    }

    #[test]
    fn bucket_le_is_the_inclusive_upper_bound() {
        assert_eq!(bucket_le(0), 0);
        assert_eq!(bucket_le(1), 1);
        assert_eq!(bucket_le(256), 511);
    }
}
