//! Deterministic fault injection for the training resilience layer.
//!
//! A [`FaultPlan`] schedules synthetic failures at fixed generator
//! iterations so every recovery path of [`crate::guard`] can be driven
//! on demand and reproduced bit-for-bit: the same seed and the same
//! plan always produce the same recovery trace. The faults model the
//! real failure modes the paper's experiments hit — exploding/NaN
//! gradients (DP noise, §5.4), corrupt input batches, and mode collapse
//! (§5.2) — by perturbing the live training state through the same code
//! paths a genuine failure would take (the optimizer applies the NaN
//! gradient; the discriminator sees the poisoned batch).
//!
//! Each fault fires **once per training attempt**, even when a rollback
//! rewinds the step counter past its trigger — otherwise replaying the
//! healthy prefix would re-inject the fault forever and no recovery
//! could ever succeed. A refit (e.g. the simplified-D escalation in
//! [`crate::Synthesizer::try_fit`]) is a new attempt: the plan re-arms.
//!
//! Storage faults (torn writes, bit rot, failed renames and
//! quarantines, full disks) are not training faults: every sealed
//! format meets them through one seam, `daisy_wire::fault`, which the
//! checkpoint store arms from [`crate::CheckpointPlan::io_faults`].

/// One scheduled fault. `step` counts generator iterations (the
/// trainer's `t`), starting at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Accumulates an all-NaN gradient into a discriminator parameter
    /// and applies one optimizer step, exactly as an overflowed
    /// backward pass would: the weights go NaN and the next loss
    /// evaluation is non-finite.
    NanGrad {
        /// Iteration at which the gradient is poisoned.
        step: usize,
    },
    /// Replaces the step's real minibatches with all-NaN samples
    /// (a corrupt input shard): the discriminator loss comes back NaN.
    PoisonBatch {
        /// Iteration whose minibatches are poisoned.
        step: usize,
    },
    /// Zeroes every generator weight, forcing constant output — the
    /// collapse probe sees a duplicate fraction of 1.
    ForceCollapse {
        /// Iteration at which the generator is collapsed.
        step: usize,
    },
}

impl Fault {
    /// The iteration this fault triggers at.
    pub fn step(&self) -> usize {
        match *self {
            Fault::NanGrad { step }
            | Fault::PoisonBatch { step }
            | Fault::ForceCollapse { step } => step,
        }
    }

    /// Machine-readable tag used in `fault_fired` telemetry events.
    pub fn kind(&self) -> &'static str {
        match self {
            Fault::NanGrad { .. } => "nan_grad",
            Fault::PoisonBatch { .. } => "poison_batch",
            Fault::ForceCollapse { .. } => "force_collapse",
        }
    }
}

/// A deterministic schedule of faults for one training run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: no injected faults (production setting).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan firing the given faults.
    pub fn new(faults: Vec<Fault>) -> Self {
        FaultPlan { faults }
    }

    /// Convenience: a single NaN-gradient fault at `step`.
    pub fn nan_grad_at(step: usize) -> Self {
        Self::new(vec![Fault::NanGrad { step }])
    }

    /// Convenience: a single poisoned minibatch at `step`.
    pub fn poison_batch_at(step: usize) -> Self {
        Self::new(vec![Fault::PoisonBatch { step }])
    }

    /// Convenience: a single forced generator collapse at `step`.
    pub fn force_collapse_at(step: usize) -> Self {
        Self::new(vec![Fault::ForceCollapse { step }])
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }
}

/// Per-attempt arming state: tracks which scheduled faults have fired
/// so each fires at most once even across rollback replays.
#[derive(Debug, Clone)]
pub(crate) struct ArmedFaults {
    plan: FaultPlan,
    fired: Vec<bool>,
}

impl ArmedFaults {
    /// Arms every fault of `plan` for a fresh training attempt.
    pub(crate) fn new(plan: &FaultPlan) -> Self {
        ArmedFaults {
            fired: vec![false; plan.faults().len()],
            plan: plan.clone(),
        }
    }

    /// Returns the faults due at iteration `step` that have not fired
    /// yet, marking them fired.
    pub(crate) fn take(&mut self, step: usize) -> Vec<Fault> {
        let mut due = Vec::new();
        for (i, f) in self.plan.faults().iter().enumerate() {
            if !self.fired[i] && f.step() == step {
                self.fired[i] = true;
                due.push(*f);
            }
        }
        due
    }

    /// The per-fault fired flags, for checkpoint capture: a resumed run
    /// must not re-fire a fault the interrupted run already injected at
    /// or before the checkpointed step.
    pub(crate) fn fired(&self) -> &[bool] {
        &self.fired
    }

    /// Restores fired flags captured by [`ArmedFaults::fired`]. Flags
    /// from a checkpoint of a different plan are ignored (arity
    /// mismatch), keeping a stale checkpoint from disarming anything.
    pub(crate) fn restore_fired(&mut self, fired: &[bool]) {
        if fired.len() == self.fired.len() {
            self.fired.copy_from_slice(fired);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_once_even_after_rewind() {
        let plan = FaultPlan::new(vec![
            Fault::NanGrad { step: 3 },
            Fault::PoisonBatch { step: 3 },
            Fault::ForceCollapse { step: 7 },
        ]);
        let mut armed = ArmedFaults::new(&plan);
        assert!(armed.take(0).is_empty());
        assert_eq!(armed.take(3).len(), 2);
        // A rollback replays step 3: nothing fires again.
        assert!(armed.take(3).is_empty());
        assert_eq!(armed.take(7), vec![Fault::ForceCollapse { step: 7 }]);
        // A fresh attempt re-arms everything.
        let mut rearmed = ArmedFaults::new(&plan);
        assert_eq!(rearmed.take(3).len(), 2);
    }

    #[test]
    fn empty_plan_is_inert() {
        let mut armed = ArmedFaults::new(&FaultPlan::none());
        assert!(FaultPlan::none().is_empty());
        for t in 0..10 {
            assert!(armed.take(t).is_empty());
        }
    }
}
