//! Layer timing from outside the program: wrappers around the trait
//! objects the trainer drives, plus readers for the phase profiler and
//! the metrics registry the program already keeps.

use daisy_core::{BatchSource, Discriminator, Generator, Minibatch};
use daisy_data::DataError;
use daisy_telemetry::metrics::{self, MetricReading};
use daisy_telemetry::profile;
use daisy_tensor::{Param, Rng, RngState, Tensor, Var};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated wall time and call count of one wrapped layer. The
/// trainer runs on one thread and the wrapped trait objects are not
/// `Send`, so plain cells suffice.
#[derive(Default)]
pub struct Timer {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Timer {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.ns
            .set(self.ns.get() + start.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        out
    }

    pub fn seconds(&self) -> f64 {
        self.ns.get() as f64 * 1e-9
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// A [`Generator`] that times `forward` and delegates everything else,
/// default methods included, so the RNG stream and state handling are
/// exactly the wrapped generator's.
pub struct TimedGenerator<'a> {
    pub inner: &'a dyn Generator,
    pub forward: &'a Timer,
}

impl Generator for TimedGenerator<'_> {
    fn forward(&self, z: &Tensor, cond: Option<&Tensor>, rng: &mut Rng) -> Var {
        self.forward.time(|| self.inner.forward(z, cond, rng))
    }
    fn noise_dim(&self) -> usize {
        self.inner.noise_dim()
    }
    fn sample_width(&self) -> usize {
        self.inner.sample_width()
    }
    fn params(&self) -> Vec<Param> {
        self.inner.params()
    }
    fn set_training(&self, training: bool) {
        self.inner.set_training(training)
    }
    fn sample_noise(&self, batch: usize, rng: &mut Rng) -> Tensor {
        self.inner.sample_noise(batch, rng)
    }
    fn skip_forward_rng(&self, batch: usize, rng: &mut Rng) {
        self.inner.skip_forward_rng(batch, rng)
    }
    fn state(&self) -> Vec<Tensor> {
        self.inner.state()
    }
    fn set_state(&self, state: &[Tensor]) {
        self.inner.set_state(state)
    }
}

/// A [`Discriminator`] that times `logits` (its forward pass) and
/// delegates everything else.
pub struct TimedDiscriminator<'a> {
    pub inner: &'a dyn Discriminator,
    pub forward: &'a Timer,
}

impl Discriminator for TimedDiscriminator<'_> {
    fn logits(&self, x: &Var, cond: Option<&Tensor>) -> Var {
        self.forward.time(|| self.inner.logits(x, cond))
    }
    fn params(&self) -> Vec<Param> {
        self.inner.params()
    }
    fn set_training(&self, training: bool) {
        self.inner.set_training(training)
    }
    fn state(&self) -> Vec<Tensor> {
        self.inner.state()
    }
    fn set_state(&self, state: &[Tensor]) {
        self.inner.set_state(state)
    }
    fn rng_states(&self) -> Vec<RngState> {
        self.inner.rng_states()
    }
    fn set_rng_states(&self, states: &[RngState]) {
        self.inner.set_rng_states(states)
    }
}

/// A [`BatchSource`] that times minibatch sampling.
pub struct TimedSource<'a> {
    pub inner: &'a dyn BatchSource,
    pub sample: &'a Timer,
}

impl BatchSource for TimedSource<'_> {
    fn n_rows(&self) -> usize {
        self.inner.n_rows()
    }
    fn width(&self) -> usize {
        self.inner.width()
    }
    fn n_classes(&self) -> usize {
        self.inner.n_classes()
    }
    fn label_distribution(&self) -> Vec<f64> {
        self.inner.label_distribution()
    }
    fn sample_random(
        &self,
        batch: usize,
        with_conditions: bool,
        rng: &mut Rng,
    ) -> Result<Minibatch, DataError> {
        self.sample
            .time(|| self.inner.sample_random(batch, with_conditions, rng))
    }
    fn sample_with_label(
        &self,
        label: u32,
        batch: usize,
        rng: &mut Rng,
    ) -> Result<Minibatch, DataError> {
        self.sample
            .time(|| self.inner.sample_with_label(label, batch, rng))
    }
}

/// Runs `f` with the phase profiler and the metrics plane switched on,
/// starting from empty profiles and counters. Telemetry counters only
/// record while some recorder is installed, so a discarding one is.
pub fn traced<R>(f: impl FnOnce() -> R) -> R {
    profile::reset();
    metrics::reset_all();
    profile::set_enabled(true);
    let out = daisy_telemetry::with_recorder(std::sync::Arc::new(daisy_telemetry::NoopRecorder), f);
    profile::set_enabled(false);
    out
}

/// Self seconds of every profiled path whose last phase is `phase`
/// (`fit/epoch/matmul_nt` and `generate/matmul_nt` both count for
/// `matmul_nt`).
pub fn phase_self_s(phase: &str) -> f64 {
    profile::snapshot()
        .iter()
        .filter(|s| s.path.rsplit('/').next() == Some(phase))
        .map(|s| s.self_ns as f64 * 1e-9)
        .sum()
}

/// Self seconds of the phases named in `phases` recorded beneath an
/// `ancestor` phase (e.g. the kernels a training epoch ran itself, not
/// those of generation or scoring).
pub fn self_s_under(ancestor: &str, phases: &[&str]) -> f64 {
    profile::snapshot()
        .iter()
        .filter(|s| {
            let mut parts = s.path.split('/');
            let last = s.path.rsplit('/').next().unwrap_or("");
            parts.any(|p| p == ancestor) && phases.contains(&last)
        })
        .map(|s| s.self_ns as f64 * 1e-9)
        .sum()
}

/// A counter's value, or a histogram's sum (the kernels record their
/// multiply-add count per call as a histogram observation); 0 when the
/// metric was never registered.
pub fn metric_total(name: &str) -> f64 {
    metrics::readings()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, r)| match r {
            MetricReading::Counter(c) => c as f64,
            MetricReading::Gauge(g) => g,
            MetricReading::Histogram { sum, .. } => sum as f64,
        })
}

/// Profiler and registry readings of the traced pass that just ended:
/// kernel self times and exact work counts, pool jobs, and the
/// trainer's epoch and optimizer self times.
pub fn capture() -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for kernel in ["matmul", "matmul_nt", "matmul_tn"] {
        out.insert(format!("tensor.{kernel}.self_s"), phase_self_s(kernel));
        out.insert(
            format!("tensor.{kernel}.work"),
            metric_total(&format!("kernel.{kernel}.work")),
        );
    }
    out.insert("tensor.pool.jobs".into(), metric_total("pool.jobs"));
    out.insert(
        "tensor.pool.serial_jobs".into(),
        metric_total("pool.serial_jobs"),
    );
    out.insert("core.train.epoch.self_s".into(), phase_self_s("epoch"));
    out.insert("nn.optim.self_s".into(), phase_self_s("optim"));
    out
}

/// Reports every captured reading divided by `per` (the operations the
/// traced pass ran), so readings are per operation.
pub fn report_captured(report: &mut crate::Report, captured: &BTreeMap<String, f64>, per: f64) {
    for (name, total) in captured {
        report.layer(name, total / per);
    }
}
