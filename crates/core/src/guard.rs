//! The training resilience layer: per-step health checks and a bounded
//! recovery policy for GAN training.
//!
//! The paper's central finding is that GAN training on relational data
//! is fragile — mode collapse (§5.2), divergence under DP noise (§5.4,
//! Figure 8), and hyper-parameter sensitivity (Figures 4, 16–18). An
//! open-loop trainer lets one non-finite loss silently poison every
//! later epoch. The [`TrainGuard`] closes the loop:
//!
//! 1. **Detect** — every step it checks losses for non-finite values
//!    and divergence (an EMA blow-up); periodically it checks weights
//!    for NaN/inf and probes the generator for mode collapse (scored by
//!    the duplicate-fraction diagnostic of §5.2).
//! 2. **Recover** — on a trip the trainer rewinds to the training state
//!    (`TrainState`) captured at the last clean epoch boundary, the
//!    value a checkpoint saves: both networks' parameters, module state
//!    and dropout streams, the optimizer moments (only while their loss
//!    family is still active), the loss envelope and the step counters.
//!    It keeps on purpose the noise stream, which it re-seeds, the fault
//!    arming, the recovery trace, the learning rate, which it decays,
//!    and any escalation.
//! 3. **Escalate** — after `rollback_retries` failed rollbacks it
//!    applies the paper's own remedy reachable inside the trainer:
//!    switching to WTrain (Wasserstein loss + RMSProp + weight
//!    clipping, §5.2's alternative training). The other paper remedy —
//!    the simplified discriminator — needs a network rebuild and is
//!    applied one level up by [`crate::Synthesizer::try_fit`].
//! 4. **Degrade gracefully** — when the recovery budget is exhausted,
//!    training rewinds to the last clean epoch boundary and stops
//!    there, returning the epochs completed so far together with a
//!    structured [`TrainOutcome`] report instead of panicking; only a
//!    run with *no* clean epoch at all becomes a [`TrainError`].

use std::fmt;

/// Thresholds and budgets of the resilience layer.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardConfig {
    /// Check generator/discriminator weights for non-finite values
    /// every this many steps (and at every epoch boundary). 0 disables
    /// the periodic weight sweep (epoch-boundary checks remain).
    pub check_weights_every: usize,
    /// EMA smoothing for the loss divergence detector.
    pub ema_beta: f32,
    /// Trip when |loss| exceeds `divergence_factor * max(EMA, floor)`.
    pub divergence_factor: f32,
    /// Divergence floor: losses below this magnitude never trip, which
    /// keeps the detector quiet around zero-crossing Wasserstein losses.
    pub divergence_floor: f32,
    /// Steps before the divergence detector arms (the EMA needs to see
    /// a representative loss scale first).
    pub warmup_steps: usize,
    /// Probe the generator for mode collapse every this many steps.
    /// 0 disables the probe.
    pub probe_every: usize,
    /// Rows per collapse probe.
    pub probe_rows: usize,
    /// Duplicate fraction above which the probe trips (§5.2's alarm).
    pub collapse_threshold: f64,
    /// Quantization bins for the probe's duplicate fraction.
    pub collapse_bins: usize,
    /// Total recovery budget: rollbacks (including escalations) before
    /// the run degrades, stopping at its last clean epoch boundary.
    pub max_recoveries: usize,
    /// Plain rollback retries before escalating to WTrain.
    pub rollback_retries: usize,
    /// Learning-rate multiplier applied at every rollback.
    pub lr_decay: f32,
    /// Escalate to Wasserstein training after `rollback_retries`
    /// (only from vanilla-loss runs; WTrain runs skip this rung).
    pub escalate_wtrain: bool,
    /// Let [`crate::Synthesizer::try_fit`] rebuild with the simplified
    /// discriminator when training degrades (§5.2's other remedy).
    pub escalate_simplified_d: bool,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            check_weights_every: 16,
            ema_beta: 0.9,
            divergence_factor: 50.0,
            divergence_floor: 2.0,
            warmup_steps: 20,
            probe_every: 50,
            probe_rows: 64,
            collapse_threshold: 0.95,
            collapse_bins: 20,
            max_recoveries: 6,
            rollback_retries: 2,
            lr_decay: 0.5,
            escalate_wtrain: true,
            escalate_simplified_d: true,
        }
    }
}

impl GuardConfig {
    /// A guard that never trips — the open-loop behaviour of the
    /// pre-resilience trainer, useful for microbenchmarks.
    pub fn disabled() -> Self {
        GuardConfig {
            check_weights_every: 0,
            probe_every: 0,
            divergence_factor: f32::INFINITY,
            warmup_steps: usize::MAX,
            max_recoveries: 0,
            escalate_wtrain: false,
            escalate_simplified_d: false,
            ..Self::default()
        }
    }
}

/// Why the guard tripped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TripReason {
    /// A discriminator or generator loss came back NaN/inf.
    NonFiniteLoss {
        /// Discriminator loss at the offending step.
        d_loss: f32,
        /// Generator loss at the offending step.
        g_loss: f32,
    },
    /// A network weight went NaN/inf (e.g. after a poisoned gradient).
    NonFiniteWeights,
    /// Loss magnitude blew past the EMA envelope.
    Divergence {
        /// Absolute loss magnitude that tripped the envelope.
        loss: f32,
        /// The exponential moving average it was compared against.
        ema: f32,
    },
    /// The collapse probe found near-duplicate generator output.
    ModeCollapse {
        /// Fraction of probe samples that were near-duplicates.
        duplicate_fraction: f64,
    },
}

impl fmt::Display for TripReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TripReason::NonFiniteLoss { d_loss, g_loss } => {
                write!(f, "non-finite loss (d = {d_loss}, g = {g_loss})")
            }
            TripReason::NonFiniteWeights => write!(f, "non-finite network weights"),
            TripReason::Divergence { loss, ema } => {
                write!(f, "loss divergence (|loss| = {loss:.3}, ema = {ema:.3})")
            }
            TripReason::ModeCollapse { duplicate_fraction } => {
                write!(f, "mode collapse (duplicate fraction {duplicate_fraction:.3})")
            }
        }
    }
}

impl TripReason {
    /// Machine-readable tag used in `guard_trip` telemetry events.
    pub fn tag(&self) -> &'static str {
        match self {
            TripReason::NonFiniteLoss { .. } => "non_finite_loss",
            TripReason::NonFiniteWeights => "non_finite_weights",
            TripReason::Divergence { .. } => "divergence",
            TripReason::ModeCollapse { .. } => "mode_collapse",
        }
    }

    /// The tag plus reason-specific detail as telemetry fields.
    pub fn telemetry_fields(&self) -> daisy_telemetry::Fields {
        use daisy_telemetry::field;
        let mut fields = vec![field("reason", self.tag())];
        match *self {
            TripReason::NonFiniteLoss { d_loss, g_loss } => {
                fields.push(field("d_loss", d_loss));
                fields.push(field("g_loss", g_loss));
            }
            TripReason::NonFiniteWeights => {}
            TripReason::Divergence { loss, ema } => {
                fields.push(field("loss", loss));
                fields.push(field("ema", ema));
            }
            TripReason::ModeCollapse { duplicate_fraction } => {
                fields.push(field("duplicate_fraction", duplicate_fraction));
            }
        }
        fields
    }
}

/// What the recovery policy did about a trip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryAction {
    /// Rolled back to the last healthy snapshot, decayed the learning
    /// rate by `lr_scale` (cumulative), re-seeded the noise stream.
    Rollback {
        /// Cumulative learning-rate decay applied after the rollback.
        lr_scale: f32,
    },
    /// Rollback plus escalation to Wasserstein training (WTrain).
    SwitchToWTrain {
        /// Cumulative learning-rate decay carried into WTrain.
        lr_scale: f32,
    },
    /// Budget exhausted: training stopped at the last clean epoch
    /// boundary.
    Degrade,
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryAction::Rollback { lr_scale } => {
                write!(f, "rollback (lr x{lr_scale:.3})")
            }
            RecoveryAction::SwitchToWTrain { lr_scale } => {
                write!(f, "rollback + switch to WTrain (lr x{lr_scale:.3})")
            }
            RecoveryAction::Degrade => write!(f, "degrade to the last clean epoch"),
        }
    }
}

impl RecoveryAction {
    /// Machine-readable tag used in `recovery` telemetry events.
    pub fn tag(&self) -> &'static str {
        match self {
            RecoveryAction::Rollback { .. } => "rollback",
            RecoveryAction::SwitchToWTrain { .. } => "switch_to_wtrain",
            RecoveryAction::Degrade => "degrade",
        }
    }
}

/// One entry of the recovery trace. For a fixed seed and fault plan the
/// full trace is bit-reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEvent {
    /// Global step index at which the guard tripped.
    pub step: usize,
    /// Epoch the trip landed in (index of the next epoch boundary).
    pub epoch: usize,
    /// What tripped.
    pub reason: TripReason,
    /// What the policy did.
    pub action: RecoveryAction,
}

impl RecoveryEvent {
    /// Telemetry fields for the `recovery` event: logical position,
    /// action tag, and the cumulative learning-rate scale when the
    /// action has one.
    pub fn telemetry_fields(&self) -> daisy_telemetry::Fields {
        use daisy_telemetry::field;
        let mut fields = vec![
            field("step", self.step),
            field("epoch", self.epoch),
            field("action", self.action.tag()),
        ];
        if let RecoveryAction::Rollback { lr_scale } | RecoveryAction::SwitchToWTrain { lr_scale } =
            self.action
        {
            fields.push(field("lr_scale", lr_scale));
        }
        fields
    }
}

/// Structured report of a training run's health, attached to every
/// fitted synthesizer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainOutcome {
    /// Every trip and the action taken, in order.
    pub recoveries: Vec<RecoveryEvent>,
    /// True when the recovery budget ran out and the run stopped at its
    /// last clean epoch boundary instead of completing all epochs.
    pub degraded: bool,
    /// Epochs whose snapshots survived (== requested epochs iff the run
    /// completed).
    pub completed_epochs: usize,
    /// True when the trainer escalated to Wasserstein training.
    pub escalated_wtrain: bool,
    /// True when the synthesizer escalated to the simplified
    /// discriminator and refitted.
    pub escalated_simplified_d: bool,
}

impl TrainOutcome {
    /// True when training never tripped a guard.
    pub fn is_clean(&self) -> bool {
        self.recoveries.is_empty() && !self.degraded
    }

    /// Human-readable one-line summary.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return format!("clean ({} epochs)", self.completed_epochs);
        }
        format!(
            "{} recover{} ({}{}{}{} epochs kept)",
            self.recoveries.len(),
            if self.recoveries.len() == 1 { "y" } else { "ies" },
            if self.degraded { "degraded, " } else { "" },
            if self.escalated_wtrain { "WTrain, " } else { "" },
            if self.escalated_simplified_d {
                "simplified-D, "
            } else {
                ""
            },
            self.completed_epochs,
        )
    }
}

/// Training failures that cannot be absorbed by the recovery policy.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The configuration/data combination is invalid (the conditions
    /// the pre-resilience trainer asserted on).
    InvalidConfig(String),
    /// The guard tripped past its budget before any healthy epoch
    /// snapshot existed — there is nothing useful to return.
    Unrecoverable {
        /// The full recovery trace up to the failure.
        trace: Vec<RecoveryEvent>,
        /// The trip that exhausted the budget.
        last: TripReason,
    },
    /// Training was cut short by a scheduled kill
    /// ([`crate::checkpoint::CheckpointPlan::kill_at_step`]) — the
    /// deterministic stand-in for a crash/SIGKILL in resume tests. Not
    /// a failure of the model: rerunning with the same checkpoint path
    /// resumes from the last durable checkpoint.
    Interrupted {
        /// Step at which training stopped.
        step: usize,
        /// Epochs completed (and durably snapshotted) before the kill.
        epoch: usize,
    },
    /// The batch source failed mid-training — an out-of-core store hit
    /// corruption or I/O failure after construction-time validation.
    /// Not guard-recoverable: rolling back weights cannot repair the
    /// data underneath, so the typed error propagates immediately.
    /// Carries the rendered [`daisy_data::DataError`].
    Data(String),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            TrainError::Unrecoverable { trace, last } => write!(
                f,
                "training unrecoverable after {} recovery attempt(s): {last}",
                trace.len()
            ),
            TrainError::Interrupted { step, epoch } => {
                write!(f, "training interrupted at step {step} (epoch {epoch})")
            }
            TrainError::Data(msg) => write!(f, "batch source failed: {msg}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Per-step health monitor. Owns the loss EMAs and decides when to
/// trip; the *recovery* (rollback, decay, escalation) lives in the
/// trainer, which owns the state to restore.
#[derive(Debug, Clone)]
pub struct TrainGuard {
    cfg: GuardConfig,
    ema_d: f32,
    ema_g: f32,
    steps_seen: usize,
}

impl TrainGuard {
    /// Creates a guard with the given thresholds.
    pub fn new(cfg: GuardConfig) -> Self {
        TrainGuard {
            cfg,
            ema_d: 0.0,
            ema_g: 0.0,
            steps_seen: 0,
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &GuardConfig {
        &self.cfg
    }

    /// Feeds one step's losses; returns a trip when they are non-finite
    /// or diverging. Finite, healthy losses update the EMA envelope.
    pub fn observe_losses(&mut self, d_loss: f32, g_loss: f32) -> Option<TripReason> {
        if !d_loss.is_finite() || !g_loss.is_finite() {
            return Some(TripReason::NonFiniteLoss { d_loss, g_loss });
        }
        let (ad, ag) = (d_loss.abs(), g_loss.abs());
        if self.steps_seen >= self.cfg.warmup_steps {
            let env_d = self.cfg.divergence_factor * self.ema_d.max(self.cfg.divergence_floor);
            let env_g = self.cfg.divergence_factor * self.ema_g.max(self.cfg.divergence_floor);
            if ad > env_d {
                return Some(TripReason::Divergence {
                    loss: ad,
                    ema: self.ema_d,
                });
            }
            if ag > env_g {
                return Some(TripReason::Divergence {
                    loss: ag,
                    ema: self.ema_g,
                });
            }
        }
        let b = self.cfg.ema_beta;
        if self.steps_seen == 0 {
            self.ema_d = ad;
            self.ema_g = ag;
        } else {
            self.ema_d = b * self.ema_d + (1.0 - b) * ad;
            self.ema_g = b * self.ema_g + (1.0 - b) * ag;
        }
        self.steps_seen += 1;
        None
    }

    /// Whether step `t` is a scheduled weight-health sweep.
    pub fn weights_due(&self, t: usize) -> bool {
        self.cfg.check_weights_every > 0 && (t + 1).is_multiple_of(self.cfg.check_weights_every)
    }

    /// Whether step `t` is a scheduled collapse probe.
    pub fn probe_due(&self, t: usize) -> bool {
        self.cfg.probe_every > 0 && (t + 1).is_multiple_of(self.cfg.probe_every)
    }

    /// Scores a collapse probe's encoded samples.
    pub fn check_probe(&self, samples: &daisy_tensor::Tensor) -> Option<TripReason> {
        let frac = crate::diagnostics::encoded_duplicate_fraction(samples, self.cfg.collapse_bins);
        (frac > self.cfg.collapse_threshold)
            .then_some(TripReason::ModeCollapse {
                duplicate_fraction: frac,
            })
    }

    /// The EMA state, captured into an epoch snapshot so a rollback
    /// also rewinds the divergence envelope.
    pub fn ema_state(&self) -> (f32, f32, usize) {
        (self.ema_d, self.ema_g, self.steps_seen)
    }

    /// Restores EMA state captured by [`TrainGuard::ema_state`].
    pub fn restore_ema(&mut self, state: (f32, f32, usize)) {
        self.ema_d = state.0;
        self.ema_g = state.1;
        self.steps_seen = state.2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_tensor::Tensor;

    #[test]
    fn nan_loss_trips_immediately() {
        let mut g = TrainGuard::new(GuardConfig::default());
        assert_eq!(g.observe_losses(0.5, 0.5), None);
        assert!(matches!(
            g.observe_losses(f32::NAN, 0.5),
            Some(TripReason::NonFiniteLoss { .. })
        ));
        assert!(matches!(
            g.observe_losses(0.5, f32::INFINITY),
            Some(TripReason::NonFiniteLoss { .. })
        ));
    }

    #[test]
    fn divergence_arms_after_warmup() {
        let cfg = GuardConfig {
            warmup_steps: 5,
            divergence_factor: 10.0,
            divergence_floor: 0.1,
            ..GuardConfig::default()
        };
        let mut g = TrainGuard::new(cfg);
        // Spikes during warmup only feed the EMA.
        assert_eq!(g.observe_losses(100.0, 0.5), None);
        for _ in 0..6 {
            assert_eq!(g.observe_losses(0.5, 0.5), None);
        }
        // EMA has decayed toward 0.5; a 10_000x spike must trip now.
        assert!(matches!(
            g.observe_losses(0.5, 10_000.0),
            Some(TripReason::Divergence { .. })
        ));
    }

    #[test]
    fn small_losses_never_trip_divergence() {
        let cfg = GuardConfig {
            warmup_steps: 1,
            divergence_floor: 2.0,
            divergence_factor: 10.0,
            ..GuardConfig::default()
        };
        let mut g = TrainGuard::new(cfg);
        g.observe_losses(0.001, 0.001);
        // 0.5 < factor * floor = 20 even though the EMA is ~0.001.
        assert_eq!(g.observe_losses(0.5, 0.5), None);
    }

    #[test]
    fn probe_scoring_uses_threshold() {
        let g = TrainGuard::new(GuardConfig::default());
        let collapsed = Tensor::full(&[32, 4], 1.0);
        assert!(matches!(
            g.check_probe(&collapsed),
            Some(TripReason::ModeCollapse { .. })
        ));
        let mut rng = daisy_tensor::Rng::seed_from_u64(3);
        let diverse = Tensor::randn(&[32, 4], &mut rng);
        assert_eq!(g.check_probe(&diverse), None);
    }

    #[test]
    fn ema_state_roundtrip() {
        let mut g = TrainGuard::new(GuardConfig::default());
        for _ in 0..10 {
            g.observe_losses(1.0, 2.0);
        }
        let state = g.ema_state();
        for _ in 0..5 {
            g.observe_losses(9.0, 9.0);
        }
        g.restore_ema(state);
        assert_eq!(g.ema_state(), state);
    }

    #[test]
    fn outcome_summaries() {
        let mut o = TrainOutcome {
            completed_epochs: 10,
            ..Default::default()
        };
        assert!(o.is_clean());
        assert_eq!(o.summary(), "clean (10 epochs)");
        o.recoveries.push(RecoveryEvent {
            step: 3,
            epoch: 0,
            reason: TripReason::NonFiniteWeights,
            action: RecoveryAction::Rollback { lr_scale: 0.5 },
        });
        o.degraded = true;
        assert!(!o.is_clean());
        assert!(o.summary().contains("1 recovery"));
        assert!(o.summary().contains("degraded"));
    }

    #[test]
    fn schedules() {
        let cfg = GuardConfig {
            check_weights_every: 4,
            probe_every: 10,
            ..GuardConfig::default()
        };
        let g = TrainGuard::new(cfg);
        assert!(!g.weights_due(0));
        assert!(g.weights_due(3));
        assert!(g.probe_due(9));
        assert!(!g.probe_due(10));
        let off = TrainGuard::new(GuardConfig::disabled());
        assert!(!off.weights_due(3));
        assert!(!off.probe_due(9));
    }
}
