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
use crate::persist::check_shapes;
use crate::sampler::{BatchSource, Minibatch};
use daisy_nn::loss::{batch_distribution, empirical_distribution, kl_divergence};
use daisy_nn::{
    add_grad_noise, clip_grad_norm, clip_weights, grad_norm, params_non_finite, restore, snapshot,
    zero_grads, Adam, Optimizer, RmsProp,
};
use daisy_telemetry::{field, schema};
use daisy_tensor::{no_grad, Param, Rng, Tensor, Var};

/// Emits the typed `recovery` event for one recovery-trace entry.
/// Exactly one event per entry: every push onto `outcome.recoveries`
/// is paired with one call.
fn emit_recovery(event: &RecoveryEvent) {
    if daisy_telemetry::enabled() {
        daisy_telemetry::emit(schema::RECOVERY, event.telemetry_fields());
    }
}

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
pub struct TrainingRun {
    /// Generator parameter snapshots, one per epoch.
    pub snapshots: Vec<Vec<Tensor>>,
    /// Loss history, one entry per epoch.
    pub history: Vec<EpochStats>,
}

/// A training run plus the resilience layer's health report.
pub struct ResilientRun {
    /// Snapshots and loss history (possibly truncated when degraded).
    pub run: TrainingRun,
    /// Recovery trace, escalations, and degradation status.
    pub outcome: TrainOutcome,
}

/// Everything needed to rewind training to a healthy point: network
/// parameters, optimizer moments, step/epoch counters and the guard's
/// loss envelope. Captured at initialization and after every clean
/// epoch.
struct Healthy {
    g: Vec<Tensor>,
    d: Vec<Tensor>,
    opt_g: Vec<Tensor>,
    opt_d: Vec<Tensor>,
    /// Loss family the optimizer states belong to (a WTrain switch
    /// invalidates Adam moments).
    loss: LossKind,
    t: usize,
    epochs_done: usize,
    ema: (f32, f32, usize),
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

/// Checks that every tensor a checkpoint would restore has the count
/// and shape the live networks and optimizers expect. The restore
/// setters assert, so a CRC-valid checkpoint that does not fit (a
/// re-sealed edit) must be refused here, as corruption.
fn checkpoint_fits(
    c: &TrainCheckpoint,
    g: &dyn Generator,
    d: &dyn Discriminator,
) -> Result<(), String> {
    let shapes = |ts: Vec<Tensor>| ts.iter().map(|t| t.shape().to_vec()).collect::<Vec<_>>();
    let g_params: Vec<Vec<usize>> = g.params().iter().map(Param::shape).collect();
    // Optimizer state layout depends on the loss family the checkpoint
    // trained under (a WTrain escalation switches Adam to RMSProp).
    let (opt_g, opt_d) = build_optimizers(c.loss, g, d, 0.0, 0.0);
    check_shapes("generator parameter", g_params.clone(), &c.g_params)?;
    check_shapes("generator state", shapes(g.state()), &c.g_state)?;
    check_shapes(
        "discriminator parameter",
        d.params().iter().map(Param::shape),
        &c.d_params,
    )?;
    check_shapes("discriminator state", shapes(d.state()), &c.d_state)?;
    check_shapes("generator optimizer", shapes(opt_g.state()), &c.opt_g)?;
    check_shapes("discriminator optimizer", shapes(opt_d.state()), &c.opt_d)?;
    for snap in &c.snapshots {
        check_shapes("snapshot", g_params.clone(), snap)?;
    }
    if c.d_rng.len() != d.rng_states().len() {
        return Err(format!(
            "discriminator rng count mismatch: file has {}, architecture needs {}",
            c.d_rng.len(),
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
/// checks ([`TrainGuard`]), snapshot rollback with learning-rate decay
/// and noise re-seeding on a trip, escalation to WTrain after repeated
/// rollbacks, and graceful degradation to the best healthy snapshot
/// when the recovery budget runs out. `plan` injects deterministic
/// faults for testing (pass [`FaultPlan::none`] in production).
///
/// Returns [`TrainError::Unrecoverable`] only when the budget is
/// exhausted before a single healthy epoch exists.
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
    let g_params = g.params();
    let d_params = d.params();
    g.set_training(true);
    d.set_training(true);

    // `active` may diverge from `cfg` after a WTrain escalation.
    let mut active = cfg.clone();
    let (mut opt_g, mut opt_d) = build_optimizers(active.loss, g, d, active.lr_g, active.lr_d);
    let mut lr_scale = 1.0f32;

    let mut guard = TrainGuard::new(guard_cfg.clone());
    let mut armed = ArmedFaults::new(plan);
    let mut outcome = TrainOutcome::default();

    let epochs = cfg.epochs.max(1);
    let iters_per_epoch = cfg.iterations.div_ceil(epochs);
    let mut run = TrainingRun {
        snapshots: Vec::with_capacity(epochs),
        history: Vec::with_capacity(epochs),
    };
    let mut acc = (0.0f64, 0.0f64, 0.0f64, 0usize); // d, g, kl, count

    // The initialization state is the rollback target until the first
    // clean epoch completes.
    let mut healthy = Healthy {
        g: snapshot(&g_params),
        d: snapshot(&d_params),
        opt_g: opt_g.state(),
        opt_d: opt_d.state(),
        loss: active.loss,
        t: 0,
        epochs_done: 0,
        ema: guard.ema_state(),
    };

    let mut plain_rollbacks = 0usize;
    let mut t = 0usize;

    // ---- resume from a durable checkpoint, when one exists ----
    let mut store = ckpt
        .path
        .as_ref()
        .map(|p| CheckpointStore::new(p.clone(), &ckpt.io_faults));
    if let Some(store) = store.as_ref() {
        if let Some(c) = store.load_latest(ckpt.fingerprint, |c| checkpoint_fits(c, g, d)) {
            // Restore the *complete* state captured at the boundary:
            // anything short of this list (weights alone, say) would
            // replay a different trajectory than the uninterrupted run.
            active.loss = c.loss;
            active.d_steps = c.d_steps;
            lr_scale = c.lr_scale;
            let (og, od) =
                build_optimizers(active.loss, g, d, cfg.lr_g * lr_scale, cfg.lr_d * lr_scale);
            opt_g = og;
            opt_d = od;
            opt_g.set_state(&c.opt_g);
            opt_d.set_state(&c.opt_d);
            restore(&g_params, &c.g_params);
            g.set_state(&c.g_state);
            restore(&d_params, &c.d_params);
            d.set_state(&c.d_state);
            d.set_rng_states(&c.d_rng);
            guard.restore_ema(c.ema);
            armed.restore_fired(&c.fired);
            *rng = Rng::from_state(c.rng);
            outcome = c.outcome;
            run.history = c.history;
            run.snapshots = c.snapshots;
            plain_rollbacks = c.plain_rollbacks;
            t = c.t;
            healthy = Healthy {
                g: c.g_params,
                d: c.d_params,
                opt_g: c.opt_g,
                opt_d: c.opt_d,
                loss: c.loss,
                t: c.t,
                epochs_done: c.epochs_done,
                ema: c.ema,
            };
            if daisy_telemetry::enabled() {
                daisy_telemetry::emit(
                    schema::CHECKPOINT_RESTORE,
                    vec![field("step", t), field("epoch", healthy.epochs_done)],
                );
            }
            if run.snapshots.len() >= epochs {
                // The checkpoint already covers the full run: nothing
                // left to train.
                t = active.iterations;
            }
        }
    }

    // Phase profiling: one "epoch" scope spans every step of an epoch so
    // the kernel phases underneath aggregate as fit/epoch/... paths. The
    // scope is closed at each clean boundary and reopened on the next
    // step; a no-op unless profiling is enabled.
    let mut epoch_scope: Option<daisy_telemetry::profile::PhaseScope> = None;
    while t < active.iterations {
        if epoch_scope.is_none() {
            epoch_scope = Some(daisy_telemetry::profile::scope("epoch"));
        }
        // ---- deterministic kill (crash stand-in for resume tests) ----
        // Before any emission or mutation for step t, so the killed
        // run's telemetry is an exact prefix of the uninterrupted one.
        if ckpt.kill_at_step == Some(t) {
            g.set_training(false);
            d.set_training(false);
            return Err(TrainError::Interrupted {
                step: t,
                epoch: run.history.len(),
            });
        }

        // ---- deterministic fault injection ----
        let mut poison = false;
        for fault in armed.take(t) {
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
                    opt_d.step();
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
        let mut trip: Option<TripReason> = None;
        if guard.weights_due(t) && (params_non_finite(&g_params) || params_non_finite(&d_params)) {
            trip = Some(TripReason::NonFiniteWeights);
        }
        if trip.is_none() && guard.probe_due(t) {
            let samples = collapse_probe(g, data, &active, guard.config().probe_rows, rng);
            trip = guard.check_probe(&samples);
        }

        // ---- one generator iteration ----
        let end_of_epoch = (t + 1).is_multiple_of(iters_per_epoch) || t + 1 == active.iterations;
        if trip.is_none() {
            let mut losses: Vec<(f32, f32)> = Vec::with_capacity(1);
            if active.conditional && active.label_aware {
                // Algorithm 3: iterate every label in the domain.
                for y in 0..data.n_classes() as u32 {
                    let (dl, gl, kl) = match step(
                        g,
                        d,
                        data,
                        softmax_spans,
                        &active,
                        Some(y),
                        poison,
                        &mut *opt_g,
                        &mut *opt_d,
                        rng,
                    ) {
                        Ok(v) => v,
                        Err(e) => {
                            g.set_training(false);
                            d.set_training(false);
                            return Err(e);
                        }
                    };
                    acc = (acc.0 + dl as f64, acc.1 + gl as f64, acc.2 + kl as f64, acc.3 + 1);
                    losses.push((dl, gl));
                }
            } else {
                let (dl, gl, kl) = match step(
                    g,
                    d,
                    data,
                    softmax_spans,
                    &active,
                    None,
                    poison,
                    &mut *opt_g,
                    &mut *opt_d,
                    rng,
                ) {
                    Ok(v) => v,
                    Err(e) => {
                        g.set_training(false);
                        d.set_training(false);
                        return Err(e);
                    }
                };
                acc = (acc.0 + dl as f64, acc.1 + gl as f64, acc.2 + kl as f64, acc.3 + 1);
                losses.push((dl, gl));
            }

            for (dl, gl) in losses {
                if trip.is_none() {
                    trip = guard.observe_losses(dl, gl);
                }
            }
            // Never snapshot a poisoned epoch: sweep the weights at the
            // boundary even when the periodic cadence missed it.
            if trip.is_none()
                && end_of_epoch
                && (params_non_finite(&g_params) || params_non_finite(&d_params))
            {
                trip = Some(TripReason::NonFiniteWeights);
            }
        }

        // ---- recovery policy ----
        if let Some(reason) = trip {
            if daisy_telemetry::enabled() {
                let mut fields = vec![field("step", t), field("epoch", run.history.len())];
                fields.extend(reason.telemetry_fields());
                daisy_telemetry::emit(schema::GUARD_TRIP, fields);
            }
            if outcome.recoveries.len() >= guard_cfg.max_recoveries {
                // Budget exhausted: degrade to the best healthy state,
                // or fail when none exists.
                outcome.recoveries.push(RecoveryEvent {
                    step: t,
                    epoch: run.history.len(),
                    reason,
                    action: RecoveryAction::Degrade,
                });
                emit_recovery(outcome.recoveries.last().unwrap());
                if run.history.is_empty() {
                    g.set_training(false);
                    d.set_training(false);
                    return Err(TrainError::Unrecoverable {
                        trace: outcome.recoveries,
                        last: reason,
                    });
                }
                restore(&g_params, &healthy.g);
                restore(&d_params, &healthy.d);
                outcome.degraded = true;
                break;
            }

            let switch = guard_cfg.escalate_wtrain
                && matches!(active.loss, LossKind::Vanilla)
                && plain_rollbacks >= guard_cfg.rollback_retries;
            lr_scale *= guard_cfg.lr_decay;

            restore(&g_params, &healthy.g);
            restore(&d_params, &healthy.d);
            if switch {
                // The paper's alternative training (§5.2): Wasserstein
                // loss, RMSProp, several critic steps per G step. The
                // healthy optimizer moments belong to Adam, so the
                // optimizers are rebuilt fresh.
                active.loss = LossKind::Wasserstein;
                active.d_steps = active.d_steps.max(3);
                let (og, od) = build_optimizers(
                    active.loss,
                    g,
                    d,
                    cfg.lr_g * lr_scale,
                    cfg.lr_d * lr_scale,
                );
                opt_g = og;
                opt_d = od;
                outcome.escalated_wtrain = true;
            } else if healthy.loss == active.loss {
                opt_g.set_state(&healthy.opt_g);
                opt_d.set_state(&healthy.opt_d);
                opt_g.set_lr(cfg.lr_g * lr_scale);
                opt_d.set_lr(cfg.lr_d * lr_scale);
                plain_rollbacks += 1;
            } else {
                // Snapshot predates a loss switch: moments don't apply.
                let (og, od) = build_optimizers(
                    active.loss,
                    g,
                    d,
                    cfg.lr_g * lr_scale,
                    cfg.lr_d * lr_scale,
                );
                opt_g = og;
                opt_d = od;
                plain_rollbacks += 1;
            }

            run.history.truncate(healthy.epochs_done);
            run.snapshots.truncate(healthy.epochs_done);
            acc = (0.0, 0.0, 0.0, 0);
            guard.restore_ema(healthy.ema);
            // Re-seed the noise stream so the replay explores a fresh
            // trajectory — deterministically derived from the current
            // stream state and the recovery index.
            let salt = (outcome.recoveries.len() as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            *rng = Rng::seed_from_u64(rng.next_u64() ^ salt);

            outcome.recoveries.push(RecoveryEvent {
                step: t,
                epoch: run.history.len(),
                reason,
                action: if switch {
                    RecoveryAction::SwitchToWTrain { lr_scale }
                } else {
                    RecoveryAction::Rollback { lr_scale }
                },
            });
            emit_recovery(outcome.recoveries.last().unwrap());
            t = healthy.t;
            continue;
        }

        // ---- clean epoch boundary: record and snapshot ----
        if end_of_epoch {
            let n = acc.3.max(1) as f64;
            run.history.push(EpochStats {
                epoch: run.history.len(),
                d_loss: (acc.0 / n) as f32,
                g_loss: (acc.1 / n) as f32,
                kl: (acc.2 / n) as f32,
            });
            run.snapshots.push(snapshot(&g_params));
            if daisy_telemetry::enabled() {
                let stats = run.history.last().unwrap();
                // Gradient norms are read-only probes of the last step's
                // grads; the values are deterministic (pool contract) so
                // they may live in the event stream, and the gauges make
                // them visible in metrics snapshots too.
                let gn_g = grad_norm(&g_params);
                let gn_d = grad_norm(&d_params);
                daisy_telemetry::metrics::gauge("train.grad_norm_g").set(gn_g as f64);
                daisy_telemetry::metrics::gauge("train.grad_norm_d").set(gn_d as f64);
                daisy_telemetry::emit(
                    schema::EPOCH,
                    vec![
                        field("epoch", stats.epoch),
                        field("step", t),
                        field("d_loss", stats.d_loss),
                        field("g_loss", stats.g_loss),
                        field("kl", stats.kl),
                        field("grad_norm_g", gn_g),
                        field("grad_norm_d", gn_d),
                    ],
                );
                daisy_telemetry::emit(
                    schema::SNAPSHOT,
                    vec![field("epoch", stats.epoch), field("step", t)],
                );
            }
            acc = (0.0, 0.0, 0.0, 0);
            healthy = Healthy {
                g: snapshot(&g_params),
                d: snapshot(&d_params),
                opt_g: opt_g.state(),
                opt_d: opt_d.state(),
                loss: active.loss,
                t: t + 1,
                epochs_done: run.history.len(),
                ema: guard.ema_state(),
            };
            // ---- durable checkpoint of the boundary state ----
            if let Some(store) = store.as_mut() {
                if run.history.len().is_multiple_of(ckpt.every.max(1)) {
                    let payload = TrainCheckpoint {
                        fingerprint: ckpt.fingerprint,
                        t: healthy.t,
                        epochs_done: healthy.epochs_done,
                        loss: healthy.loss,
                        d_steps: active.d_steps,
                        lr_scale,
                        plain_rollbacks,
                        ema: healthy.ema,
                        rng: rng.state(),
                        fired: armed.fired().to_vec(),
                        outcome: outcome.clone(),
                        g_params: healthy.g.clone(),
                        g_state: g.state(),
                        d_params: healthy.d.clone(),
                        d_state: d.state(),
                        d_rng: d.rng_states(),
                        opt_g: healthy.opt_g.clone(),
                        opt_d: healthy.opt_d.clone(),
                        history: run.history.clone(),
                        snapshots: run.snapshots.clone(),
                    };
                    match store.save(&payload) {
                        Ok(bytes) => {
                            if daisy_telemetry::enabled() {
                                daisy_telemetry::emit(
                                    schema::CHECKPOINT_WRITE,
                                    vec![
                                        field("epoch", run.history.len() - 1),
                                        field("step", t),
                                        field("bytes", bytes),
                                    ],
                                );
                            }
                        }
                        Err(_) => {
                            // A failed save must never fail training:
                            // the previous checkpoint still protects
                            // the run. Counted, not emitted, so the
                            // deterministic trace stays comparable to
                            // a run whose saves all succeeded.
                            daisy_telemetry::metrics::counter("checkpoint.save_failures").add(1);
                        }
                    }
                }
            }
            epoch_scope = None;
            if run.snapshots.len() == epochs {
                break;
            }
        }
        t += 1;
    }
    drop(epoch_scope);
    g.set_training(false);
    d.set_training(false);
    outcome.completed_epochs = run.history.len();
    if daisy_telemetry::enabled() {
        daisy_telemetry::emit(
            schema::TRAIN_END,
            vec![
                field("completed_epochs", outcome.completed_epochs),
                field("recoveries", outcome.recoveries.len()),
                field("degraded", outcome.degraded),
                field("escalated_wtrain", outcome.escalated_wtrain),
            ],
        );
    }
    Ok(ResilientRun { run, outcome })
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
        let before = daisy_nn::snapshot(&g.params());
        let mut rng = Rng::seed_from_u64(9);
        let _ = train_gan(&g, &d, &data, &spans, &cfg, &mut rng).unwrap();
        let after = daisy_nn::snapshot(&g.params());
        let moved = before
            .iter()
            .zip(&after)
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
            run.snapshots[0][0].data().to_vec()
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
            let final_weights = res.run.snapshots.last().unwrap()[0].data().to_vec();
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
        // CRC-valid sections, right fingerprint, but a BatchNorm running
        // variance of shape [1, 16] instead of [16]: restoring it would
        // panic in `set_state`. It must be quarantined like a corrupt
        // file, and the rerun must train from scratch.
        use crate::checkpoint::scratch_path;
        use crate::synthesizer::Synthesizer;
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
        let path = scratch_path("ckpt-misfit-resume");
        let fit = |plan: &CheckpointPlan| {
            Synthesizer::try_fit_checkpointed(&table, &cfg, &test_guard(), &FaultPlan::none(), plan)
        };
        let killed = fit(&CheckpointPlan::at(&path).kill_at(4));
        assert!(matches!(killed, Err(TrainError::Interrupted { .. })));
        let mut ckpt = TrainCheckpoint::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        let var = ckpt.g_state.pop().expect("the MLP generator has BatchNorm state");
        assert_eq!(var.shape(), &[16]);
        ckpt.g_state.push(var.reshape(&[1, 16]));
        std::fs::write(&path, ckpt.to_bytes()).unwrap();

        let resumed = fit(&CheckpointPlan::at(&path)).expect("the misfit is skipped, not restored");
        assert!(daisy_wire::sibling(&path, "corrupt-0").exists());
        let fresh = fit(&CheckpointPlan::disabled()).unwrap();
        assert_eq!(resumed.to_bytes(), fresh.to_bytes(), "trained from scratch");
        for ext in ["corrupt-0", "prev", "tmp"] {
            let _ = std::fs::remove_file(daisy_wire::sibling(&path, ext));
        }
        let _ = std::fs::remove_file(&path);
    }
}
