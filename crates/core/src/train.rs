//! Phase II of the framework: GAN model training.
//!
//! One driver implements all four training algorithms of the paper's
//! Table 1 — the strategy differences (loss, optimizer, sampling,
//! differential privacy) are configuration:
//!
//! | Algorithm | Loss     | Optimizer | Sampling     | DP |
//! |-----------|----------|-----------|--------------|----|
//! | VTrain    | Eq. (2)  | Adam      | random       | ✗  |
//! | WTrain    | Eq. (3)  | RMSProp   | random       | ✗  |
//! | CTrain    | Eq. (4)  | Adam      | label-aware  | ✗  |
//! | DPTrain   | Eq. (3)  | RMSProp   | random       | ✓  |
//!
//! Training runs under the resilience layer of [`crate::guard`]:
//! [`train_gan_resilient`] wraps every step in health checks and a
//! bounded rollback/escalation recovery policy, while [`train_gan`]
//! keeps the open-loop behaviour (guards disabled) for callers that
//! want the raw algorithms.
//!
//! One value, `TrainState`, holds the training state at initialization
//! and at each clean epoch boundary. Rollback and degrade rewind to it,
//! a checkpoint saves it, and resume restores it. Each network in it is
//! a [`NetState`], the same value as each epoch snapshot and as the
//! generator a model file stores.
//!
//! Every D and G step runs its matmuls, convolutions and reductions on
//! daisy-tensor's worker pool (`daisy_tensor::pool`, sized by
//! `DAISY_THREADS`). The pool's determinism contract — bit-identical
//! results for any thread count — is what keeps the guard's recovery
//! traces and the fixed-seed reproducibility tests below valid on
//! multi-core machines.

use crate::checkpoint::{CheckpointPlan, CheckpointStore, TrainCheckpoint};
use crate::config::{LossKind, TrainConfig};
use crate::discriminator::Discriminator;
use crate::fault::{ArmedFaults, Fault, FaultPlan};
use crate::generator::Generator;
use crate::guard::{
    GuardConfig, RecoveryAction, RecoveryEvent, TrainError, TrainGuard, TrainOutcome, TripReason,
};
use crate::sampler::{BatchSource, Minibatch};
use daisy_nn::loss::{batch_distribution, empirical_distribution, kl_divergence};
use daisy_nn::{
    add_grad_noise, clip_grad_norm, clip_weights, grad_norm, params_non_finite, zero_grads, Adam,
    Optimizer, RmsProp,
};
use daisy_telemetry::{field, schema};
use daisy_tensor::{no_grad, Param, Rng, RngState, Tensor, Var};
use daisy_wire::{Reader, WireError, Writer};
use std::borrow::Cow;

/// Aggregate losses of one training epoch.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean discriminator loss over the epoch.
    pub d_loss: f32,
    /// Mean generator loss (including the KL term when enabled).
    pub g_loss: f32,
    /// Mean KL warm-up term alone.
    pub kl: f32,
}

/// The result of a training run: per-epoch generator snapshots (for
/// validation-based model selection, §6.2) and loss history.
#[derive(Clone, Default)]
pub struct TrainingRun {
    /// The generator as it stood at the end of each epoch.
    pub snapshots: Vec<NetState>,
    /// Loss history, one entry per epoch.
    pub history: Vec<EpochStats>,
}

/// A network's parameter values plus its module state (BatchNorm
/// running statistics), each in the network's stable order: what an
/// epoch snapshot, a rollback target, a checkpoint and a model file hold
/// of a network. Eval-mode generation reads both.
#[derive(Clone, Debug, PartialEq)]
pub struct NetState {
    /// Parameter values, in `params()` order.
    pub params: Vec<Tensor>,
    /// Module state, in `state()` order.
    pub state: Vec<Tensor>,
}

impl NetState {
    /// Captures the values of a network's `params` and its module `state`.
    pub fn capture(params: &[Param], state: Vec<Tensor>) -> NetState {
        let params = params.iter().map(Param::value).collect();
        NetState { params, state }
    }

    /// Writes the parameter values into `params` and hands the module
    /// state to `set_state`. Counts and shapes are asserted, so a value
    /// read from a file passes [`NetState::fits`] first.
    pub fn restore(&self, params: &[Param], set_state: impl FnOnce(&[Tensor])) {
        assert_eq!(params.len(), self.params.len(), "parameter count mismatch");
        for (p, t) in params.iter().zip(&self.params) {
            p.set_value(t.clone());
        }
        set_state(&self.state);
    }

    /// Checks that this value has the tensor counts and shapes of the
    /// network whose live `params` and module `state` are given.
    pub fn fits(&self, what: &str, params: &[Param], state: &[Tensor]) -> Result<(), String> {
        let shapes = params.iter().map(Param::shape).collect();
        check_shapes(&format!("{what} parameter"), shapes, &self.params)?;
        let shapes = state.iter().map(|t| t.shape().to_vec()).collect();
        check_shapes(&format!("{what} state"), shapes, &self.state)
    }

    /// Appends the parameter list, then the state list.
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.tensors(&self.params);
        w.tensors(&self.state);
    }

    /// Reads a value [`NetState::encode`] wrote.
    pub(crate) fn decode(r: &mut Reader) -> Result<NetState, WireError> {
        let (params, state) = (r.tensors()?, r.tensors()?);
        Ok(NetState { params, state })
    }
}

/// Checks that `got` has the tensor count and shapes (`want`) the
/// architecture it is about to be restored into expects.
fn check_shapes(what: &str, want: Vec<Vec<usize>>, got: &[Tensor]) -> Result<(), String> {
    if want.len() != got.len() {
        let (file, arch) = (got.len(), want.len());
        return Err(format!(
            "{what} count mismatch: file has {file}, architecture needs {arch}"
        ));
    }
    for (shape, t) in want.iter().zip(got) {
        if shape != t.shape() {
            let file = t.shape();
            return Err(format!(
                "{what} shape mismatch: file {file:?}, architecture {shape:?}"
            ));
        }
    }
    Ok(())
}

/// A training run plus the resilience layer's health report.
pub struct ResilientRun {
    /// Snapshots and loss history (possibly truncated when degraded).
    pub run: TrainingRun,
    /// Recovery trace, escalations, and degradation status.
    pub outcome: TrainOutcome,
}

/// The training state at initialization or at a clean epoch boundary:
/// the one value behind rollback, degrade, checkpoint save and resume.
/// Resume restores all of it; rollback and degrade rewind `rewound` and
/// keep `kept` on purpose. It holds no copy of the run's history and
/// snapshot ring: those grow only at clean boundaries, so they always
/// end at the last clean state.
#[derive(Clone)]
pub(crate) struct TrainState {
    pub(crate) rewound: Rewound,
    pub(crate) kept: Kept,
}

/// The part of a [`TrainState`] that rollback and degrade rewind.
#[derive(Clone)]
pub(crate) struct Rewound {
    pub(crate) g: NetState,
    pub(crate) d: NetState,
    /// Discriminator dropout streams.
    pub(crate) d_rng: Vec<RngState>,
    /// Optimizer moments of the loss family `Kept::loss` names. A rewind
    /// restores them only while that family is still the active one.
    pub(crate) opt_g: Vec<Tensor>,
    pub(crate) opt_d: Vec<Tensor>,
    /// Guard loss envelope `(ema_d, ema_g, steps_seen)`.
    pub(crate) ema: (f32, f32, usize),
    /// Next step to execute.
    pub(crate) t: usize,
    pub(crate) epochs_done: usize,
}

/// The part of a [`TrainState`] that rollback keeps on purpose: resetting
/// it would replay the failure (the noise stream), re-inject spent faults
/// (the arming), forget the recovery history (the trace, `lr_scale`,
/// `plain_rollbacks`) or undo an escalation (`loss`, `d_steps`). Only
/// resume restores it.
#[derive(Clone)]
pub(crate) struct Kept {
    /// Main training RNG stream, re-seeded by every rollback.
    pub(crate) rng: RngState,
    /// Fault-plan arming flags ([`crate::fault::FaultPlan`]).
    pub(crate) fired: Vec<bool>,
    /// Recovery trace and escalation flags.
    pub(crate) outcome: TrainOutcome,
    pub(crate) lr_scale: f32,
    pub(crate) plain_rollbacks: usize,
    /// Active loss family, which is also the family of the captured
    /// optimizer moments: the live optimizers always belong to it.
    pub(crate) loss: LossKind,
    pub(crate) d_steps: usize,
}

impl TrainState {
    /// Captures the live state.
    fn capture(tr: &Trainer<'_>) -> TrainState {
        TrainState {
            rewound: Rewound {
                g: NetState::capture(&tr.g.params(), tr.g.state()),
                d: NetState::capture(&tr.d.params(), tr.d.state()),
                d_rng: tr.d.rng_states(),
                opt_g: tr.opt_g.state(),
                opt_d: tr.opt_d.state(),
                ema: tr.guard.ema_state(),
                t: tr.t,
                epochs_done: tr.run.history.len(),
            },
            kept: Kept {
                rng: tr.rng.state(),
                fired: tr.armed.fired().to_vec(),
                outcome: tr.outcome.clone(),
                lr_scale: tr.lr_scale,
                plain_rollbacks: tr.plain_rollbacks,
                loss: tr.cfg.loss,
                d_steps: tr.cfg.d_steps,
            },
        }
    }

    /// Rewinds the `rewound` part. The optimizers are rebuilt for the
    /// active loss at the scaled learning rates, and take the captured
    /// moments only when those belong to the same loss family.
    fn rewind(&self, tr: &mut Trainer<'_>) {
        let r = &self.rewound;
        r.g.restore(&tr.g.params(), |s| tr.g.set_state(s));
        r.d.restore(&tr.d.params(), |s| tr.d.set_state(s));
        tr.d.set_rng_states(&r.d_rng);
        (tr.opt_g, tr.opt_d) = build_optimizers(
            tr.cfg.loss,
            tr.g,
            tr.d,
            tr.cfg.lr_g * tr.lr_scale,
            tr.cfg.lr_d * tr.lr_scale,
        );
        if self.kept.loss == tr.cfg.loss {
            tr.opt_g.set_state(&r.opt_g);
            tr.opt_d.set_state(&r.opt_d);
        }
        tr.guard.restore_ema(r.ema);
        tr.t = r.t;
        tr.losses.clear();
    }
}

/// Trains `g` against `d` on `data` per `cfg`, open-loop (guards
/// disabled, no fault injection). The KL warm-up term is computed over
/// `softmax_spans` (one-hot and GMM-component blocks of the encoded
/// layout; pass empty to disable). Returns [`TrainError::InvalidConfig`]
/// on bad configuration instead of panicking.
pub fn train_gan(
    g: &dyn Generator,
    d: &dyn Discriminator,
    data: &dyn BatchSource,
    softmax_spans: &[(usize, usize)],
    cfg: &TrainConfig,
    rng: &mut Rng,
) -> Result<TrainingRun, TrainError> {
    train_gan_resilient(
        g,
        d,
        data,
        softmax_spans,
        cfg,
        &GuardConfig::disabled(),
        &FaultPlan::none(),
        rng,
    )
    .map(|r| r.run)
}

fn validate(cfg: &TrainConfig, data: &dyn BatchSource) -> Result<(), TrainError> {
    let err = |msg: &str| Err(TrainError::InvalidConfig(msg.to_string()));
    if cfg.iterations == 0 {
        return err("need at least one iteration");
    }
    if cfg.batch_size == 0 {
        return err("batch size must be positive");
    }
    if cfg.conditional && data.n_classes() == 0 {
        return err("conditional training requires a labeled table");
    }
    if cfg.pac == 0 {
        return err("pac degree must be at least 1");
    }
    if cfg.pac > 1 && cfg.conditional {
        return err("PacGAN packing is unconditional-only (conditions cannot be packed)");
    }
    Ok(())
}

fn build_optimizers(
    loss: LossKind,
    g: &dyn Generator,
    d: &dyn Discriminator,
    lr_g: f32,
    lr_d: f32,
) -> (Box<dyn Optimizer>, Box<dyn Optimizer>) {
    match loss {
        LossKind::Vanilla => (
            Box::new(Adam::with_betas(g.params(), lr_g, 0.5, 0.999)),
            Box::new(Adam::with_betas(d.params(), lr_d, 0.5, 0.999)),
        ),
        LossKind::Wasserstein => (
            Box::new(RmsProp::new(g.params(), lr_g)),
            Box::new(RmsProp::new(d.params(), lr_d)),
        ),
    }
}

/// Checks that a CRC-valid checkpoint fits this run before anything is
/// restored: its counters agree with each other and with `cfg`'s epoch
/// layout, and every tensor has the count and shape the live networks
/// and optimizers expect (the restore setters assert). A re-sealed edit
/// that fails either check is refused here, as corruption.
fn checkpoint_fits(
    c: &TrainCheckpoint,
    g: &dyn Generator,
    d: &dyn Discriminator,
    cfg: &TrainConfig,
) -> Result<(), String> {
    let (s, run) = (&c.state.rewound, &*c.run);
    let epochs = cfg.epochs.max(1);
    let done = s.epochs_done;
    // The next step once epoch `done` has closed.
    let t = (done * cfg.iterations.div_ceil(epochs)).min(cfg.iterations);
    let (h, n) = (run.history.len(), run.snapshots.len());
    if !(1..=epochs).contains(&done) || h != done || n != done || s.t != t {
        return Err(format!(
            "counters disagree: step {}, {done} of {epochs} epochs, {h} history, {n} snapshots",
            s.t
        ));
    }
    let (g_params, g_state) = (g.params(), g.state());
    s.g.fits("generator", &g_params, &g_state)?;
    s.d.fits("discriminator", &d.params(), &d.state())?;
    for (e, snap) in run.snapshots.iter().enumerate() {
        snap.fits(&format!("epoch {e} generator"), &g_params, &g_state)?;
    }
    // Optimizer state layout depends on the loss family the checkpoint
    // trained under (a WTrain escalation switches Adam to RMSProp).
    let (opt_g, opt_d) = build_optimizers(c.state.kept.loss, g, d, 0.0, 0.0);
    let shapes = |ts: Vec<Tensor>| ts.iter().map(|t| t.shape().to_vec()).collect::<Vec<_>>();
    check_shapes("generator optimizer", shapes(opt_g.state()), &s.opt_g)?;
    check_shapes("discriminator optimizer", shapes(opt_d.state()), &s.opt_d)?;
    if s.d_rng.len() != d.rng_states().len() {
        return Err(format!(
            "discriminator rng count mismatch: file has {}, architecture needs {}",
            s.d_rng.len(),
            d.rng_states().len()
        ));
    }
    Ok(())
}

/// Generates `rows` samples for the mode-collapse probe. Conditional
/// models get labels cycled over the domain so every class is probed.
fn collapse_probe(
    g: &dyn Generator,
    data: &dyn BatchSource,
    cfg: &TrainConfig,
    rows: usize,
    rng: &mut Rng,
) -> Tensor {
    let z = g.sample_noise(rows, rng);
    let cond = if cfg.conditional {
        let k = data.n_classes().max(1);
        let labels: Vec<u32> = (0..rows).map(|i| (i % k) as u32).collect();
        Some(daisy_data::one_hot_labels(&labels, k))
    } else {
        None
    };
    no_grad(|| g.forward(&z, cond.as_ref(), rng))
        .value()
        .clone()
}

/// Trains `g` against `d` under the resilience layer: per-step health
/// checks ([`TrainGuard`]), rollback to the last clean epoch boundary
/// with learning-rate decay and noise re-seeding on a trip, escalation
/// to WTrain after repeated rollbacks, and graceful degradation when the
/// recovery budget runs out: the run stops at its last clean epoch
/// boundary. `plan` injects deterministic faults for testing (pass
/// [`FaultPlan::none`] in production).
///
/// Returns [`TrainError::Unrecoverable`] only when the budget is
/// exhausted before a single clean epoch exists.
#[allow(clippy::too_many_arguments)]
pub fn train_gan_resilient(
    g: &dyn Generator,
    d: &dyn Discriminator,
    data: &dyn BatchSource,
    softmax_spans: &[(usize, usize)],
    cfg: &TrainConfig,
    guard_cfg: &GuardConfig,
    plan: &FaultPlan,
    rng: &mut Rng,
) -> Result<ResilientRun, TrainError> {
    train_gan_checkpointed(
        g,
        d,
        data,
        softmax_spans,
        cfg,
        guard_cfg,
        plan,
        &CheckpointPlan::disabled(),
        rng,
    )
}

/// [`train_gan_resilient`] plus crash-safe checkpoint/resume: when
/// `ckpt` names a path, the complete training state is written durably
/// at every `ckpt.every`-th clean epoch boundary, and a valid
/// checkpoint found at that path (matching `ckpt.fingerprint`) is
/// restored before the first step — the resumed run then replays the
/// remaining steps bit-identically to a run that was never
/// interrupted. A failed checkpoint *write* never fails training: the
/// error is counted (`checkpoint.save_failures`) and the run continues
/// under the protection of the previous checkpoint.
///
/// `ckpt.kill_at_step` aborts with [`TrainError::Interrupted`] before
/// executing that step (and before emitting anything for it), which is
/// how the resume tests simulate SIGKILL deterministically.
#[allow(clippy::too_many_arguments)]
pub fn train_gan_checkpointed(
    g: &dyn Generator,
    d: &dyn Discriminator,
    data: &dyn BatchSource,
    softmax_spans: &[(usize, usize)],
    cfg: &TrainConfig,
    guard_cfg: &GuardConfig,
    plan: &FaultPlan,
    ckpt: &CheckpointPlan,
    rng: &mut Rng,
) -> Result<ResilientRun, TrainError> {
    validate(cfg, data)?;
    if daisy_telemetry::enabled() {
        daisy_telemetry::emit(
            schema::TRAIN_START,
            vec![
                field("algorithm", cfg.name()),
                field("iterations", cfg.iterations),
                field("epochs", cfg.epochs),
                field("batch_size", cfg.batch_size),
                field("d_steps", cfg.d_steps),
                field("conditional", cfg.conditional),
                field("dp", cfg.dp.is_some()),
                field("pac", cfg.pac),
            ],
        );
    }
    let (opt_g, opt_d) = build_optimizers(cfg.loss, g, d, cfg.lr_g, cfg.lr_d);
    let trainer = Trainer {
        g,
        d,
        data,
        softmax_spans,
        // Algorithm 3 iterates every label in the domain per generator
        // iteration; the other algorithms take one step.
        labels: if cfg.conditional && cfg.label_aware {
            (0..data.n_classes() as u32).map(Some).collect()
        } else {
            vec![None]
        },
        cfg: cfg.clone(),
        opt_g,
        opt_d,
        guard: TrainGuard::new(guard_cfg.clone()),
        armed: ArmedFaults::new(plan),
        rng,
        lr_scale: 1.0,
        plain_rollbacks: 0,
        outcome: TrainOutcome::default(),
        run: TrainingRun::default(),
        t: 0,
        losses: Vec::new(),
    };
    g.set_training(true);
    d.set_training(true);
    let result = trainer.train(ckpt);
    g.set_training(false);
    d.set_training(false);
    let mut res = result?;
    res.outcome.completed_epochs = res.run.history.len();
    if daisy_telemetry::enabled() {
        daisy_telemetry::emit(
            schema::TRAIN_END,
            vec![
                field("completed_epochs", res.outcome.completed_epochs),
                field("recoveries", res.outcome.recoveries.len()),
                field("degraded", res.outcome.degraded),
                field("escalated_wtrain", res.outcome.escalated_wtrain),
            ],
        );
    }
    Ok(res)
}

/// The live state of one training run; [`TrainState`] is its capture.
struct Trainer<'a> {
    g: &'a dyn Generator,
    d: &'a dyn Discriminator,
    data: &'a dyn BatchSource,
    softmax_spans: &'a [(usize, usize)],
    /// The label of each step of one generator iteration.
    labels: Vec<Option<u32>>,
    /// The configuration with the escalated loss and `d_steps`. The
    /// learning rates are the configured ones; `lr_scale` scales them.
    cfg: TrainConfig,
    opt_g: Box<dyn Optimizer>,
    opt_d: Box<dyn Optimizer>,
    guard: TrainGuard,
    armed: ArmedFaults,
    rng: &'a mut Rng,
    lr_scale: f32,
    plain_rollbacks: usize,
    outcome: TrainOutcome,
    run: TrainingRun,
    /// Next step to execute.
    t: usize,
    /// The d, g and kl losses of each step of the epoch in progress.
    losses: Vec<[f32; 3]>,
}

impl Trainer<'_> {
    /// Runs the step loop, from the checkpoint `ckpt` names when a valid
    /// one exists and from initialization otherwise.
    fn train(mut self, ckpt: &CheckpointPlan) -> Result<ResilientRun, TrainError> {
        let iters_per_epoch = self.cfg.iterations.div_ceil(self.cfg.epochs.max(1));
        let mut store = ckpt
            .path
            .as_ref()
            .map(|p| CheckpointStore::new(p.clone(), &ckpt.io_faults));
        let fits = |c: &TrainCheckpoint| checkpoint_fits(c, self.g, self.d, &self.cfg);
        let resumed = store
            .as_ref()
            .and_then(|s| s.load_latest(ckpt.fingerprint, fits));
        let mut last_clean = match resumed {
            // Resume restores all of the state: anything short of it
            // would replay a different trajectory than the uninterrupted run.
            Some(c) => {
                let k = &c.state.kept;
                *self.rng = Rng::from_state(k.rng);
                self.armed.restore_fired(&k.fired);
                self.outcome = k.outcome.clone();
                self.lr_scale = k.lr_scale;
                self.plain_rollbacks = k.plain_rollbacks;
                self.cfg.loss = k.loss;
                self.cfg.d_steps = k.d_steps;
                c.state.rewind(&mut self);
                self.run = c.run.into_owned();
                if daisy_telemetry::enabled() {
                    let epoch = c.state.rewound.epochs_done;
                    let fields = vec![field("step", self.t), field("epoch", epoch)];
                    daisy_telemetry::emit(schema::CHECKPOINT_RESTORE, fields);
                }
                c.state.into_owned()
            }
            // The initialization state is the rollback target until the
            // first clean epoch completes.
            None => TrainState::capture(&self),
        };

        // Phase profiling: one "epoch" scope spans every step of an epoch
        // so the kernel phases underneath aggregate as fit/epoch/...
        // paths. The scope is closed at each clean boundary and reopened
        // on the next step; a no-op unless profiling is enabled.
        let mut epoch_scope = None;
        while self.t < self.cfg.iterations {
            if epoch_scope.is_none() {
                epoch_scope = Some(daisy_telemetry::profile::scope("epoch"));
            }
            // ---- deterministic kill (crash stand-in for resume tests) ----
            // Before any emission or mutation for this step, so the killed
            // run's telemetry is an exact prefix of the uninterrupted one.
            if ckpt.kill_at_step == Some(self.t) {
                return Err(TrainError::Interrupted {
                    step: self.t,
                    epoch: self.run.history.len(),
                });
            }
            let end_of_epoch =
                (self.t + 1).is_multiple_of(iters_per_epoch) || self.t + 1 == self.cfg.iterations;
            if let Some(reason) = self.advance(end_of_epoch)? {
                if self.recover(reason, &last_clean)? {
                    continue;
                }
                break;
            }
            self.t += 1;
            if end_of_epoch {
                self.close_epoch();
                last_clean = TrainState::capture(&self);
                let due = self.run.history.len().is_multiple_of(ckpt.every.max(1));
                if let Some(store) = store.as_mut().filter(|_| due) {
                    // A failed save never fails training: the previous
                    // checkpoint still protects the run.
                    let _ = store.save(&TrainCheckpoint {
                        fingerprint: ckpt.fingerprint,
                        state: Cow::Borrowed(&last_clean),
                        run: Cow::Borrowed(&self.run),
                    });
                }
                epoch_scope = None;
            }
        }
        Ok(ResilientRun {
            run: self.run,
            outcome: self.outcome,
        })
    }

    /// Executes step `self.t`: its scheduled faults, the pre-step health
    /// checks, then one generator iteration (a step per entry of
    /// `labels`). Returns the trip the guard raised, if any.
    fn advance(&mut self, end_of_epoch: bool) -> Result<Option<TripReason>, TrainError> {
        let t = self.t;
        let (g_params, d_params) = (self.g.params(), self.d.params());

        // ---- deterministic fault injection ----
        let mut poison = false;
        for fault in self.armed.take(t) {
            if daisy_telemetry::enabled() {
                daisy_telemetry::emit(
                    schema::FAULT_FIRED,
                    vec![field("kind", fault.kind()), field("step", t)],
                );
            }
            match fault {
                Fault::NanGrad { .. } => {
                    // Route the NaN through the optimizer, exactly as an
                    // overflowed backward pass would.
                    zero_grads(&d_params);
                    if let Some(p) = d_params.first() {
                        let shape = p.value().shape().to_vec();
                        p.var().backward_with(Tensor::full(&shape, f32::NAN));
                    }
                    self.opt_d.step();
                }
                Fault::PoisonBatch { .. } => poison = true,
                Fault::ForceCollapse { .. } => {
                    for p in &g_params {
                        p.set_value(Tensor::zeros(p.value().shape()));
                    }
                }
            }
        }

        // ---- pre-step health checks ----
        // Weight and probe sweeps run before the optimizer step so a
        // corruption present at step t is caught at step t — one Adam
        // step with accumulated momentum is enough to smear a zeroed or
        // poisoned network back into plausible-looking weights.
        let non_finite = || params_non_finite(&g_params) || params_non_finite(&d_params);
        if self.guard.weights_due(t) && non_finite() {
            return Ok(Some(TripReason::NonFiniteWeights));
        }
        if self.guard.probe_due(t) {
            let rows = self.guard.config().probe_rows;
            let samples = collapse_probe(self.g, self.data, &self.cfg, rows, self.rng);
            if let Some(trip) = self.guard.check_probe(&samples) {
                return Ok(Some(trip));
            }
        }

        // ---- one generator iteration ----
        let mut trip = None;
        for &label in &self.labels {
            let (dl, gl, kl) = step(
                self.g,
                self.d,
                self.data,
                self.softmax_spans,
                &self.cfg,
                label,
                poison,
                &mut *self.opt_g,
                &mut *self.opt_d,
                self.rng,
            )?;
            self.losses.push([dl, gl, kl]);
            trip = trip.or_else(|| self.guard.observe_losses(dl, gl));
        }
        // Never snapshot a poisoned epoch: sweep the weights at the
        // boundary even when the periodic cadence missed it.
        if trip.is_none() && end_of_epoch && non_finite() {
            trip = Some(TripReason::NonFiniteWeights);
        }
        Ok(trip)
    }

    /// The recovery policy for a trip at step `self.t`. Within budget it
    /// rolls back to `last_clean` with a decayed learning rate and a
    /// re-seeded noise stream — switching to WTrain once
    /// `rollback_retries` plain rollbacks have not helped — and returns
    /// `Ok(true)`. With the budget spent it degrades to `last_clean` and
    /// returns `Ok(false)`, or fails when no clean epoch exists yet.
    fn recover(&mut self, reason: TripReason, last_clean: &TrainState) -> Result<bool, TrainError> {
        let (step, epoch) = (self.t, self.run.history.len());
        if daisy_telemetry::enabled() {
            let mut fields = vec![field("step", step), field("epoch", epoch)];
            fields.extend(reason.telemetry_fields());
            daisy_telemetry::emit(schema::GUARD_TRIP, fields);
        }
        let policy = self.guard.config().clone();
        let degrade = self.outcome.recoveries.len() >= policy.max_recoveries;
        let action = if degrade {
            RecoveryAction::Degrade
        } else {
            self.lr_scale *= policy.lr_decay;
            let lr_scale = self.lr_scale;
            if policy.escalate_wtrain
                && self.cfg.loss == LossKind::Vanilla
                && self.plain_rollbacks >= policy.rollback_retries
            {
                // The paper's alternative training (§5.2): Wasserstein
                // loss, RMSProp, several critic steps per G step. The
                // rewind builds RMSProp fresh: the boundary's moments
                // belong to Adam.
                self.cfg.loss = LossKind::Wasserstein;
                self.cfg.d_steps = self.cfg.d_steps.max(3);
                self.outcome.escalated_wtrain = true;
                RecoveryAction::SwitchToWTrain { lr_scale }
            } else {
                self.plain_rollbacks += 1;
                RecoveryAction::Rollback { lr_scale }
            }
        };
        let event = RecoveryEvent {
            step,
            epoch,
            reason,
            action,
        };
        // Exactly one `recovery` event per recovery-trace entry.
        if daisy_telemetry::enabled() {
            daisy_telemetry::emit(schema::RECOVERY, event.telemetry_fields());
        }
        self.outcome.recoveries.push(event);
        if degrade && self.run.history.is_empty() {
            return Err(TrainError::Unrecoverable {
                trace: std::mem::take(&mut self.outcome.recoveries),
                last: reason,
            });
        }
        last_clean.rewind(self);
        if degrade {
            self.outcome.degraded = true;
            return Ok(false);
        }
        // Re-seed the noise stream so the replay explores a fresh
        // trajectory — deterministically derived from the current stream
        // state and the recovery index.
        let salt = (self.outcome.recoveries.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        *self.rng = Rng::seed_from_u64(self.rng.next_u64() ^ salt);
        Ok(true)
    }

    /// Closes the epoch that ended at step `self.t - 1`: records its mean
    /// losses and the generator snapshot (parameters and BatchNorm
    /// statistics) that model selection chooses from.
    fn close_epoch(&mut self) {
        let step = self.t - 1;
        let n = self.losses.len().max(1) as f64;
        let mean = |i: usize| (self.losses.iter().fold(0.0, |s, l| s + l[i] as f64) / n) as f32;
        let stats = EpochStats {
            epoch: self.run.history.len(),
            d_loss: mean(0),
            g_loss: mean(1),
            kl: mean(2),
        };
        self.losses.clear();
        let g_params = self.g.params();
        self.run.history.push(stats);
        let snapshot = NetState::capture(&g_params, self.g.state());
        self.run.snapshots.push(snapshot);
        if daisy_telemetry::enabled() {
            // Gradient norms are read-only probes of the last step's
            // grads; the values are deterministic (pool contract) so
            // they may live in the event stream, and the gauges make
            // them visible in metrics snapshots too.
            let gn_g = grad_norm(&g_params);
            let gn_d = grad_norm(&self.d.params());
            daisy_telemetry::metrics::gauge("train.grad_norm_g").set(gn_g as f64);
            daisy_telemetry::metrics::gauge("train.grad_norm_d").set(gn_d as f64);
            daisy_telemetry::emit(
                schema::EPOCH,
                vec![
                    field("epoch", stats.epoch),
                    field("step", step),
                    field("d_loss", stats.d_loss),
                    field("g_loss", stats.g_loss),
                    field("kl", stats.kl),
                    field("grad_norm_g", gn_g),
                    field("grad_norm_d", gn_d),
                ],
            );
            daisy_telemetry::emit(
                schema::SNAPSHOT,
                vec![field("epoch", stats.epoch), field("step", step)],
            );
        }
    }
}

/// One generator iteration: `d_steps` discriminator updates followed by
/// one generator update. Returns `(d_loss, g_loss, kl_term)`. When
/// `poison` is set the real minibatches of the discriminator phase are
/// replaced with NaN samples (fault injection).
#[allow(clippy::too_many_arguments)]
fn step(
    g: &dyn Generator,
    d: &dyn Discriminator,
    data: &dyn BatchSource,
    softmax_spans: &[(usize, usize)],
    cfg: &TrainConfig,
    target_label: Option<u32>,
    poison: bool,
    opt_g: &mut dyn Optimizer,
    opt_d: &mut dyn Optimizer,
    rng: &mut Rng,
) -> Result<(f32, f32, f32), TrainError> {
    let m = cfg.batch_size;
    let g_params = g.params();
    let d_params = d.params();

    // ---- discriminator phase ----
    // With PacGAN packing, `pac` consecutive samples are concatenated
    // into one discriminator input; `m` is rounded down accordingly.
    let pac = cfg.pac.max(1);
    let m = (m / pac).max(1) * pac;
    let groups = m / pac;
    let mut d_loss_last = 0.0;
    for _ in 0..cfg.d_steps.max(1) {
        let mut real = sample(data, cfg, target_label, m, rng)?;
        if poison {
            real.samples = Tensor::full(real.samples.shape(), f32::NAN);
        }
        let cond = real.conditions.clone();
        let z = g.sample_noise(m, rng);
        // Only D updates here, so the generator forward records no graph.
        let fake = pack(&no_grad(|| g.forward(&z, cond.as_ref(), rng)), pac);

        zero_grads(&d_params);
        let real_var = pack(&Var::constant(real.samples.clone()), pac);
        let d_loss = match cfg.loss {
            LossKind::Vanilla => {
                let loss_real = d
                    .logits(&real_var, cond.as_ref())
                    .bce_with_logits(&Tensor::ones(&[groups, 1]));
                let loss_fake = d
                    .logits(&fake, cond.as_ref())
                    .bce_with_logits(&Tensor::zeros(&[groups, 1]));
                loss_real.add(&loss_fake)
            }
            LossKind::Wasserstein => {
                // L_D = E[D(fake)] - E[D(real)], Equation (3).
                let score_real = d.logits(&real_var, cond.as_ref()).mean();
                let score_fake = d.logits(&fake, cond.as_ref()).mean();
                score_fake.sub(&score_real)
            }
        };
        d_loss_last = d_loss.value().data()[0];
        d_loss.backward();

        if let Some(dp) = &cfg.dp {
            // DPTrain (Algorithm 4): bound sensitivity, then perturb.
            // The recorded gradient is the batch mean, so the noise a
            // mean-of-per-example-noised gradient would carry has
            // standard deviation σ_n · c_g / m.
            clip_grad_norm(&d_params, dp.grad_bound);
            add_grad_noise(
                &d_params,
                dp.noise_scale * dp.grad_bound / m as f32,
                rng,
            );
        }
        {
            daisy_telemetry::phase_scope!("optim");
            opt_d.step();
        }
        if matches!(cfg.loss, LossKind::Wasserstein) {
            clip_weights(&d_params, cfg.weight_clip);
        }
    }

    // ---- generator phase ----
    let real = sample(data, cfg, target_label, m, rng)?;
    let cond = real.conditions.clone();
    let z = g.sample_noise(m, rng);
    zero_grads(&g_params);
    zero_grads(&d_params); // D receives gradients below; discard them.
    let fake = g.forward(&z, cond.as_ref(), rng);

    let (g_loss, kl_value) = match cfg.loss {
        LossKind::Vanilla => {
            // Non-saturating generator loss plus the KL warm-up of
            // Equation (2).
            let adv = d
                .logits(&pack(&fake, pac), cond.as_ref())
                .bce_with_logits(&Tensor::ones(&[groups, 1]));
            if cfg.kl_weight > 0.0 && !softmax_spans.is_empty() {
                let kl = kl_term(&real, &fake, softmax_spans);
                let kl_value = kl.value().data()[0];
                (adv.add(&kl.mul_scalar(cfg.kl_weight)), kl_value)
            } else {
                (adv, 0.0)
            }
        }
        LossKind::Wasserstein => {
            // L_G = -E[D(G(z))], Equation (3).
            (
                d.logits(&pack(&fake, pac), cond.as_ref()).mean().neg(),
                0.0,
            )
        }
    };
    let g_loss_value = g_loss.value().data()[0];
    g_loss.backward();
    {
        daisy_telemetry::phase_scope!("optim");
        opt_g.step();
    }

    Ok((d_loss_last, g_loss_value, kl_value))
}

/// PacGAN packing: `[m, d] -> [m/pac, pac*d]` by concatenating groups
/// of consecutive rows (a row-major reshape). Identity when `pac == 1`.
fn pack(x: &Var, pac: usize) -> Var {
    if pac <= 1 {
        return x.clone();
    }
    let (m, d) = (x.shape()[0], x.shape()[1]);
    debug_assert_eq!(m % pac, 0, "batch not divisible by pac");
    x.reshape(&[m / pac, pac * d])
}

fn sample(
    data: &dyn BatchSource,
    cfg: &TrainConfig,
    target_label: Option<u32>,
    m: usize,
    rng: &mut Rng,
) -> Result<Minibatch, TrainError> {
    match target_label {
        Some(y) => data.sample_with_label(y, m, rng),
        None => data.sample_random(m, cfg.conditional, rng),
    }
    .map_err(|e| TrainError::Data(e.to_string()))
}

/// `Σ_j KL(T[j] ‖ T'[j])` over the probability blocks of the layout.
fn kl_term(real: &Minibatch, fake: &Var, spans: &[(usize, usize)]) -> Var {
    let mut total: Option<Var> = None;
    for &(lo, hi) in spans {
        let p_real = empirical_distribution(&real.samples.slice_cols(lo, hi));
        let q_syn = batch_distribution(&fake.slice_cols(lo, hi));
        let kl = kl_divergence(&p_real, &q_syn, 1e-6);
        total = Some(match total {
            Some(t) => t.add(&kl),
            None => kl,
        });
    }
    total.expect("kl_term called with no spans")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DpConfig, NetworkKind, SynthesizerConfig};
    use crate::discriminator::MlpDiscriminator;
    use crate::generator::test_support::tiny_table;
    use crate::generator::MlpGenerator;
    use crate::output_head::softmax_spans;
    use crate::sampler::TrainingData;
    use daisy_data::{RecordCodec, TransformConfig};

    fn setup(
        cfg: &TrainConfig,
        seed: u64,
    ) -> (MlpGenerator, MlpDiscriminator, TrainingData<'static>, Vec<(usize, usize)>) {
        let table = tiny_table(400, seed);
        let codec = RecordCodec::fit(&table, &TransformConfig::sn_ht());
        let data = TrainingData::from_table(&table, &codec);
        let mut rng = Rng::seed_from_u64(seed);
        let cond = if cfg.conditional { data.n_classes() } else { 0 };
        let g = MlpGenerator::new(8, cond, &[32], codec.output_blocks(), &mut rng);
        let d = MlpDiscriminator::new(codec.width(), cond, &[32], &mut rng);
        let spans = softmax_spans(&codec.output_blocks());
        (g, d, data, spans)
    }

    /// A guard tuned for the short test runs: tight check cadence, no
    /// false divergence trips.
    fn test_guard() -> GuardConfig {
        GuardConfig {
            check_weights_every: 1,
            probe_every: 1,
            probe_rows: 32,
            warmup_steps: usize::MAX,
            divergence_factor: f32::INFINITY,
            max_recoveries: 6,
            rollback_retries: 2,
            ..GuardConfig::default()
        }
    }

    #[test]
    fn vtrain_produces_snapshots_and_history() {
        let cfg = TrainConfig {
            iterations: 20,
            batch_size: 32,
            epochs: 5,
            ..TrainConfig::vtrain(20)
        };
        let (g, d, data, spans) = setup(&cfg, 0);
        let mut rng = Rng::seed_from_u64(1);
        let run = train_gan(&g, &d, &data, &spans, &cfg, &mut rng).unwrap();
        assert_eq!(run.snapshots.len(), 5);
        assert_eq!(run.history.len(), 5);
        assert!(run.history.iter().all(|h| h.d_loss.is_finite() && h.g_loss.is_finite()));
        // KL term is active under VTrain with one-hot blocks.
        assert!(run.history.iter().any(|h| h.kl > 0.0));
    }

    #[test]
    fn wtrain_clips_weights() {
        let cfg = TrainConfig {
            iterations: 6,
            batch_size: 16,
            epochs: 2,
            ..TrainConfig::wtrain(6)
        };
        let (g, d, data, spans) = setup(&cfg, 2);
        let mut rng = Rng::seed_from_u64(3);
        let _ = train_gan(&g, &d, &data, &spans, &cfg, &mut rng).unwrap();
        use crate::discriminator::Discriminator;
        for p in d.params() {
            let v = p.value();
            assert!(
                v.max() <= cfg.weight_clip + 1e-6 && v.min() >= -cfg.weight_clip - 1e-6,
                "weights not clipped"
            );
        }
    }

    #[test]
    fn ctrain_runs_per_label() {
        let cfg = TrainConfig {
            iterations: 4,
            batch_size: 16,
            epochs: 2,
            ..TrainConfig::ctrain(4)
        };
        let (g, d, data, spans) = setup(&cfg, 4);
        let mut rng = Rng::seed_from_u64(5);
        let run = train_gan(&g, &d, &data, &spans, &cfg, &mut rng).unwrap();
        assert_eq!(run.snapshots.len(), 2);
    }

    #[test]
    fn dptrain_finishes_with_finite_losses() {
        let dp = DpConfig::for_epsilon(1.0, 20, 16, 400);
        let cfg = TrainConfig {
            iterations: 6,
            batch_size: 16,
            epochs: 2,
            ..TrainConfig::dptrain(6, dp)
        };
        let (g, d, data, spans) = setup(&cfg, 6);
        let mut rng = Rng::seed_from_u64(7);
        let run = train_gan(&g, &d, &data, &spans, &cfg, &mut rng).unwrap();
        assert!(run.history.iter().all(|h| h.d_loss.is_finite()));
    }

    #[test]
    fn training_changes_generator_params() {
        let cfg = TrainConfig {
            iterations: 10,
            batch_size: 32,
            epochs: 2,
            ..TrainConfig::vtrain(10)
        };
        let (g, d, data, spans) = setup(&cfg, 8);
        let before = NetState::capture(&g.params(), g.state());
        let mut rng = Rng::seed_from_u64(9);
        let _ = train_gan(&g, &d, &data, &spans, &cfg, &mut rng).unwrap();
        let after = NetState::capture(&g.params(), g.state());
        let moved = before
            .params
            .iter()
            .zip(&after.params)
            .any(|(a, b)| a.sub(b).norm() > 1e-6);
        assert!(moved, "generator parameters did not move");
    }

    #[test]
    fn pacgan_packing_trains_and_packs_correctly() {
        let mut cfg = TrainConfig::vtrain(8);
        cfg.batch_size = 30; // rounds down to 30 (divisible by 3)
        cfg.pac = 3;
        cfg.epochs = 2;
        let table = tiny_table(300, 20);
        let codec = RecordCodec::fit(&table, &TransformConfig::sn_ht());
        let data = TrainingData::from_table(&table, &codec);
        let mut rng = Rng::seed_from_u64(21);
        let g = MlpGenerator::new(8, 0, &[24], codec.output_blocks(), &mut rng);
        // The packed discriminator sees pac * width inputs.
        let d = MlpDiscriminator::new(codec.width() * 3, 0, &[24], &mut rng);
        let spans = softmax_spans(&codec.output_blocks());
        let run = train_gan(&g, &d, &data, &spans, &cfg, &mut rng).unwrap();
        assert_eq!(run.snapshots.len(), 2);
        assert!(run.history.iter().all(|h| h.d_loss.is_finite()));
    }

    #[test]
    fn pacgan_rejects_conditional() {
        let mut cfg = TrainConfig::ctrain(4);
        cfg.pac = 2;
        let (g, d, data, spans) = setup(&cfg, 22);
        let mut rng = Rng::seed_from_u64(23);
        let Err(err) = train_gan(&g, &d, &data, &spans, &cfg, &mut rng) else {
            panic!("expected InvalidConfig");
        };
        assert!(matches!(err, TrainError::InvalidConfig(ref m) if m.contains("unconditional-only")));
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = TrainConfig {
            iterations: 5,
            batch_size: 16,
            epochs: 1,
            ..TrainConfig::vtrain(5)
        };
        let run_once = || {
            let (g, d, data, spans) = setup(&cfg, 10);
            let mut rng = Rng::seed_from_u64(11);
            let run = train_gan(&g, &d, &data, &spans, &cfg, &mut rng).unwrap();
            run.snapshots[0].params[0].data().to_vec()
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn effective_d_hidden_feeds_simplified_discriminator() {
        // Smoke-test the simplified-D wiring end to end.
        let mut cfg_s = SynthesizerConfig::new(NetworkKind::Mlp, TrainConfig::vtrain(5));
        cfg_s.simplified_d = true;
        assert!(cfg_s.effective_d_hidden().len() == 1);
    }

    // ---- resilience layer ----

    #[test]
    fn nan_grad_fault_recovers_by_rollback() {
        let cfg = TrainConfig {
            iterations: 12,
            batch_size: 32,
            epochs: 4,
            ..TrainConfig::vtrain(12)
        };
        let (g, d, data, spans) = setup(&cfg, 30);
        let mut rng = Rng::seed_from_u64(31);
        let res = train_gan_resilient(
            &g,
            &d,
            &data,
            &spans,
            &cfg,
            &test_guard(),
            &FaultPlan::nan_grad_at(5),
            &mut rng,
        )
        .unwrap();
        // Exactly one trip, recovered, full run completed.
        assert_eq!(res.outcome.recoveries.len(), 1);
        let ev = res.outcome.recoveries[0];
        assert_eq!(ev.step, 5);
        assert!(matches!(
            ev.reason,
            TripReason::NonFiniteLoss { .. } | TripReason::NonFiniteWeights
        ));
        assert!(matches!(ev.action, RecoveryAction::Rollback { .. }));
        assert!(!res.outcome.degraded);
        assert_eq!(res.run.snapshots.len(), 4);
        assert!(res
            .run
            .history
            .iter()
            .all(|h| h.d_loss.is_finite() && h.g_loss.is_finite()));
        // The recovered weights are finite.
        assert!(!params_non_finite(&g.params()));
        use crate::discriminator::Discriminator;
        assert!(!params_non_finite(&d.params()));
    }

    /// The telemetry contract for the resilience layer: one typed event
    /// per fault firing, per guard trip, and per recovery action — no
    /// duplicates, no drops.
    #[test]
    fn faulted_run_emits_exactly_one_event_per_incident() {
        use daisy_telemetry::MemoryRecorder;
        use std::sync::Arc;
        let cfg = TrainConfig {
            iterations: 12,
            batch_size: 32,
            epochs: 4,
            ..TrainConfig::vtrain(12)
        };
        let (g, d, data, spans) = setup(&cfg, 30);
        let mut rng = Rng::seed_from_u64(31);
        let rec = Arc::new(MemoryRecorder::new());
        let res = daisy_telemetry::with_recorder(rec.clone(), || {
            train_gan_resilient(
                &g,
                &d,
                &data,
                &spans,
                &cfg,
                &test_guard(),
                &FaultPlan::nan_grad_at(5),
                &mut rng,
            )
            .unwrap()
        });
        assert_eq!(rec.count(schema::FAULT_FIRED), 1);
        assert_eq!(rec.count(schema::GUARD_TRIP), 1);
        assert_eq!(rec.count(schema::RECOVERY), res.outcome.recoveries.len());
        assert_eq!(rec.count(schema::TRAIN_START), 1);
        assert_eq!(rec.count(schema::TRAIN_END), 1);
        // Every clean epoch boundary logs one epoch event and one
        // snapshot event; rollbacks may re-run epochs, so the trace can
        // hold more epoch events than the final history length.
        assert_eq!(rec.count(schema::EPOCH), rec.count(schema::SNAPSHOT));
        assert!(rec.count(schema::EPOCH) >= res.outcome.completed_epochs);
    }

    /// A clean run must carry no incident events at all.
    #[test]
    fn clean_run_emits_no_incident_events() {
        use daisy_telemetry::MemoryRecorder;
        use std::sync::Arc;
        let cfg = TrainConfig {
            iterations: 8,
            batch_size: 32,
            epochs: 2,
            ..TrainConfig::vtrain(8)
        };
        let (g, d, data, spans) = setup(&cfg, 0);
        let mut rng = Rng::seed_from_u64(7);
        let rec = Arc::new(MemoryRecorder::new());
        daisy_telemetry::with_recorder(rec.clone(), || {
            train_gan_resilient(
                &g,
                &d,
                &data,
                &spans,
                &cfg,
                &test_guard(),
                &FaultPlan::none(),
                &mut rng,
            )
            .unwrap()
        });
        assert_eq!(rec.count(schema::FAULT_FIRED), 0);
        assert_eq!(rec.count(schema::GUARD_TRIP), 0);
        assert_eq!(rec.count(schema::RECOVERY), 0);
        assert_eq!(rec.count(schema::EPOCH), 2);
    }

    #[test]
    fn poisoned_batch_trips_non_finite_loss() {
        let cfg = TrainConfig {
            iterations: 8,
            batch_size: 16,
            epochs: 2,
            ..TrainConfig::vtrain(8)
        };
        let (g, d, data, spans) = setup(&cfg, 32);
        let mut rng = Rng::seed_from_u64(33);
        let res = train_gan_resilient(
            &g,
            &d,
            &data,
            &spans,
            &cfg,
            &test_guard(),
            &FaultPlan::poison_batch_at(3),
            &mut rng,
        )
        .unwrap();
        assert_eq!(res.outcome.recoveries.len(), 1);
        assert!(matches!(
            res.outcome.recoveries[0].reason,
            TripReason::NonFiniteLoss { .. }
        ));
        assert!(!res.outcome.degraded);
        assert_eq!(res.run.snapshots.len(), 2);
    }

    #[test]
    fn forced_collapse_trips_probe_and_recovers() {
        let cfg = TrainConfig {
            iterations: 8,
            batch_size: 16,
            epochs: 2,
            ..TrainConfig::vtrain(8)
        };
        let (g, d, data, spans) = setup(&cfg, 34);
        let mut rng = Rng::seed_from_u64(35);
        let res = train_gan_resilient(
            &g,
            &d,
            &data,
            &spans,
            &cfg,
            &test_guard(),
            &FaultPlan::force_collapse_at(4),
            &mut rng,
        )
        .unwrap();
        assert!(res
            .outcome
            .recoveries
            .iter()
            .any(|e| matches!(e.reason, TripReason::ModeCollapse { .. })));
        assert!(!res.outcome.degraded);
        // The rollback un-collapsed the generator: fresh samples are
        // diverse again.
        let probe = collapse_probe(&g, &data, &cfg, 64, &mut rng);
        assert!(crate::diagnostics::encoded_duplicate_fraction(&probe, 20) < 0.95);
    }

    #[test]
    fn repeated_faults_escalate_to_wtrain() {
        let cfg = TrainConfig {
            iterations: 12,
            batch_size: 16,
            epochs: 3,
            ..TrainConfig::vtrain(12)
        };
        let (g, d, data, spans) = setup(&cfg, 36);
        let mut rng = Rng::seed_from_u64(37);
        let mut guard = test_guard();
        guard.rollback_retries = 1;
        let plan = FaultPlan::new(vec![
            Fault::NanGrad { step: 2 },
            Fault::NanGrad { step: 5 },
            Fault::NanGrad { step: 7 },
        ]);
        let res =
            train_gan_resilient(&g, &d, &data, &spans, &cfg, &guard, &plan, &mut rng).unwrap();
        assert!(res.outcome.escalated_wtrain);
        assert!(res
            .outcome
            .recoveries
            .iter()
            .any(|e| matches!(e.action, RecoveryAction::SwitchToWTrain { .. })));
        assert!(!res.outcome.degraded);
        assert_eq!(res.run.snapshots.len(), 3);
        // WTrain clips the discriminator weights from the switch on.
        use crate::discriminator::Discriminator;
        for p in d.params() {
            let v = p.value();
            assert!(v.max() <= cfg.weight_clip + 1e-6 && v.min() >= -cfg.weight_clip - 1e-6);
        }
    }

    #[test]
    fn budget_exhaustion_degrades_to_best_snapshot() {
        let cfg = TrainConfig {
            iterations: 12,
            batch_size: 16,
            epochs: 6, // 2 iterations per epoch
            ..TrainConfig::vtrain(12)
        };
        let (g, d, data, spans) = setup(&cfg, 38);
        let mut rng = Rng::seed_from_u64(39);
        let mut guard = test_guard();
        guard.max_recoveries = 1;
        guard.escalate_wtrain = false;
        let plan = FaultPlan::new(vec![
            Fault::NanGrad { step: 3 },
            Fault::NanGrad { step: 5 },
        ]);
        let res =
            train_gan_resilient(&g, &d, &data, &spans, &cfg, &guard, &plan, &mut rng).unwrap();
        assert!(res.outcome.degraded);
        assert!(res.outcome.completed_epochs >= 1);
        assert_eq!(res.run.history.len(), res.outcome.completed_epochs);
        assert!(matches!(
            res.outcome.recoveries.last().unwrap().action,
            RecoveryAction::Degrade
        ));
        // Degradation restored the last healthy weights.
        assert!(!params_non_finite(&g.params()));
    }

    #[test]
    fn fault_before_any_healthy_epoch_is_unrecoverable() {
        let cfg = TrainConfig {
            iterations: 6,
            batch_size: 16,
            epochs: 2,
            ..TrainConfig::vtrain(6)
        };
        let (g, d, data, spans) = setup(&cfg, 40);
        let mut rng = Rng::seed_from_u64(41);
        let mut guard = test_guard();
        guard.max_recoveries = 0;
        let Err(err) = train_gan_resilient(
            &g,
            &d,
            &data,
            &spans,
            &cfg,
            &guard,
            &FaultPlan::nan_grad_at(0),
            &mut rng,
        ) else {
            panic!("expected Unrecoverable");
        };
        match err {
            TrainError::Unrecoverable { trace, last } => {
                assert_eq!(trace.len(), 1);
                assert!(matches!(
                    last,
                    TripReason::NonFiniteLoss { .. } | TripReason::NonFiniteWeights
                ));
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn same_seed_and_plan_reproduce_the_recovery_trace() {
        let cfg = TrainConfig {
            iterations: 10,
            batch_size: 16,
            epochs: 2,
            ..TrainConfig::vtrain(10)
        };
        let plan = FaultPlan::new(vec![
            Fault::NanGrad { step: 6 },
            Fault::ForceCollapse { step: 8 },
        ]);
        let run_once = || {
            let (g, d, data, spans) = setup(&cfg, 42);
            let mut rng = Rng::seed_from_u64(43);
            let res = train_gan_resilient(
                &g,
                &d,
                &data,
                &spans,
                &cfg,
                &test_guard(),
                &plan,
                &mut rng,
            )
            .unwrap();
            let final_weights = res.run.snapshots.last().unwrap().params[0].data().to_vec();
            (res.outcome, final_weights)
        };
        let (a_outcome, a_weights) = run_once();
        let (b_outcome, b_weights) = run_once();
        // NaN-carrying trip reasons compare unequal under PartialEq;
        // the debug rendering is the bit-reproducibility witness.
        assert_eq!(format!("{a_outcome:?}"), format!("{b_outcome:?}"));
        assert_eq!(a_weights, b_weights);
        assert!(!a_outcome.recoveries.is_empty());
    }

    #[test]
    fn clean_run_reports_clean_outcome() {
        let cfg = TrainConfig {
            iterations: 6,
            batch_size: 16,
            epochs: 2,
            ..TrainConfig::vtrain(6)
        };
        let (g, d, data, spans) = setup(&cfg, 44);
        let mut rng = Rng::seed_from_u64(45);
        let res = train_gan_resilient(
            &g,
            &d,
            &data,
            &spans,
            &cfg,
            &test_guard(),
            &FaultPlan::none(),
            &mut rng,
        )
        .unwrap();
        assert!(res.outcome.is_clean());
        assert_eq!(res.outcome.completed_epochs, 2);
    }

    #[test]
    fn resume_quarantines_a_resealed_checkpoint_that_does_not_fit() {
        // CRC-valid sections, right fingerprint, but contents the live
        // run cannot take. Each must be quarantined like a corrupt file,
        // and the rerun must train from scratch.
        use crate::checkpoint::scratch_path;
        use crate::synthesizer::Synthesizer;
        type Edit = fn(&mut TrainCheckpoint);
        let edits: [(&str, Edit); 6] = [
            // Restoring a BatchNorm running variance of shape [1, 16]
            // instead of [16] would panic in `set_state`.
            ("misshapen module state", |c| {
                let g_state = &mut c.state.to_mut().rewound.g.state;
                let var = g_state.pop().expect("the MLP generator has BatchNorm state");
                assert_eq!(var.shape(), &[16]);
                g_state.push(var.reshape(&[1, 16]));
            }),
            // The same in an epoch snapshot: selecting it would panic in
            // `set_state`.
            ("misshapen snapshot state", |c| {
                let snap_state = &mut c.run.to_mut().snapshots[0].state;
                let var = snap_state.pop().expect("the snapshot has BatchNorm state");
                assert_eq!(var.shape(), &[16]);
                snap_state.push(var.reshape(&[1, 16]));
            }),
            // Counters past the last step with nothing recorded: resume
            // would skip the loop and return no snapshot at all.
            ("counters past the end", |c| {
                let state = &mut c.state.to_mut().rewound;
                (state.t, state.epochs_done) = (9, 0);
                let run = c.run.to_mut();
                run.history.clear();
                run.snapshots.clear();
            }),
            // One history entry fewer than snapshots.
            ("short history", |c| {
                c.run.to_mut().history.pop();
            }),
            // Lengths agree, but the step is one short of the boundary:
            // resume would replay misaligned epochs.
            ("step off the boundary", |c| {
                c.state.to_mut().rewound.t -= 1;
            }),
            // Four of three epochs done, with a step, history and
            // snapshots that all agree with four.
            ("epochs past the end", |c| {
                let state = &mut c.state.to_mut().rewound;
                (state.t, state.epochs_done) = (9, 4);
                let run = c.run.to_mut();
                for _ in 0..3 {
                    run.history.push(run.history[0]);
                    run.snapshots.push(run.snapshots[0].clone());
                }
            }),
        ];
        let table = tiny_table(200, 12);
        let mut cfg = SynthesizerConfig::new(
            NetworkKind::Mlp,
            TrainConfig {
                batch_size: 16,
                epochs: 3,
                ..TrainConfig::vtrain(9)
            },
        );
        cfg.g_hidden = vec![16];
        cfg.d_hidden = vec![16];
        let fit = |plan: &CheckpointPlan| {
            Synthesizer::try_fit_checkpointed(&table, &cfg, &test_guard(), &FaultPlan::none(), plan)
        };
        let fresh = fit(&CheckpointPlan::disabled()).unwrap().to_bytes();
        for (what, edit) in edits {
            let path = scratch_path("ckpt-misfit-resume");
            let killed = fit(&CheckpointPlan::at(&path).kill_at(4));
            assert!(matches!(killed, Err(TrainError::Interrupted { .. })));
            let mut ckpt = TrainCheckpoint::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
            edit(&mut ckpt);
            std::fs::write(&path, ckpt.to_bytes()).unwrap();

            let resumed = fit(&CheckpointPlan::at(&path))
                .unwrap_or_else(|e| panic!("{what}: the misfit is skipped, not restored: {e}"));
            assert!(daisy_wire::sibling(&path, "corrupt-0").exists(), "{what}");
            assert_eq!(resumed.to_bytes(), fresh, "{what}: trained from scratch");
            for ext in ["corrupt-0", "prev", "tmp"] {
                let _ = std::fs::remove_file(daisy_wire::sibling(&path, ext));
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn degrade_rewinds_module_state_and_dropout_streams() {
        // A degrade mid-epoch returns to the last clean boundary in full:
        // generator BatchNorm statistics and discriminator dropout
        // streams as well as weights, exactly what a resume from that
        // boundary's checkpoint restores.
        use crate::checkpoint::scratch_path;
        let cfg = TrainConfig {
            iterations: 12,
            batch_size: 32,
            epochs: 3,
            ..TrainConfig::vtrain(12)
        };
        let table = tiny_table(400, 50);
        let codec = RecordCodec::fit(&table, &TransformConfig::sn_ht());
        let data = TrainingData::from_table(&table, &codec);
        let mut rng = Rng::seed_from_u64(50);
        let g = MlpGenerator::new(8, 0, &[32], codec.output_blocks(), &mut rng);
        let d = MlpDiscriminator::with_dropout(codec.width(), 0, &[32], 0.3, &mut rng);
        let spans = softmax_spans(&codec.output_blocks());
        let guard = GuardConfig {
            max_recoveries: 0,
            ..test_guard()
        };
        let path = scratch_path("degrade-rewind");
        let res = train_gan_checkpointed(
            &g,
            &d,
            &data,
            &spans,
            &cfg,
            &guard,
            &FaultPlan::nan_grad_at(6),
            &CheckpointPlan::at(&path).with_every(1),
            &mut rng,
        )
        .unwrap();
        assert!(res.outcome.degraded);
        let ckpt = TrainCheckpoint::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        let last = &ckpt.state.rewound;
        assert_eq!((last.t, last.epochs_done), (4, 1));
        assert!(!last.g.state.is_empty() && !last.d_rng.is_empty());
        let g_now = NetState::capture(&g.params(), g.state());
        assert_eq!(g_now, last.g, "generator weights and BatchNorm statistics");
        assert_eq!(NetState::capture(&d.params(), d.state()), last.d);
        assert_eq!(d.rng_states(), last.d_rng, "discriminator dropout streams");
        for ext in ["prev", "tmp"] {
            let _ = std::fs::remove_file(daisy_wire::sibling(&path, ext));
        }
        let _ = std::fs::remove_file(&path);
    }
}
