//! Deterministic fault injection: seeded chaos plans and client retry
//! policy.
//!
//! A production scheduler is defined as much by how it fails as by how it
//! performs. This module makes failure *reproducible*: a [`FaultPlan`] is a
//! seeded, fully materialized list of [`FaultEvent`]s — worker panics
//! pinned to a (step, victim) pair, simulated KV-page allocation failures,
//! step-latency spikes — generated by the same labelled-RNG discipline as
//! every other trace stream, so a chaos run replays bit-identically.
//!
//! The engine consumes faults through [`ServeEngine::inject_fault`]: an
//! armed fault fires on the next non-idle step. A [`FaultKind::WorkerPanic`]
//! panics inside the victim sequence's step on whatever thread happens to
//! run it; the engine's per-sequence quarantine (`catch_unwind` around
//! every sequence advance) converts it into a
//! [`FinishReason::Failed`](crate::FinishReason::Failed) retirement while
//! every other in-flight sequence continues bit-identically. A
//! [`FaultKind::BlockPressure`] hides pool capacity from the planner for
//! one step, driving the evict → shrink → preempt ladder exactly as a real
//! allocation shortfall would. A [`FaultKind::LatencySpike`] stalls the
//! client-visible virtual clock (harness-side), inflating TTFT/ITL without
//! touching the schedule.
//!
//! [`RetryPolicy`] is the client half of the failure model: deterministic
//! bounded exponential backoff in virtual steps, used by the scenario
//! replay to retry typed, retryable rejections
//! ([`ServeError::QueueFull`](crate::ServeError::QueueFull) /
//! [`ServeError::InsufficientBlocks`](crate::ServeError::InsufficientBlocks))
//! instead of dropping the request on first refusal.
//!
//! [`ServeEngine::inject_fault`]: crate::ServeEngine::inject_fault

use opal_tensor::rng::TensorRng;

/// One injectable fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the step of one active sequence (the victim is the
    /// `victim_rank % batch`-th slot of the batch at the firing step). The
    /// panic is raised on whichever thread steps the victim — caller or
    /// pool worker — exercising the quarantine on every dispatch path.
    WorkerPanic {
        /// Batch rank selector (reduced modulo the live batch size).
        victim_rank: usize,
    },
    /// A simulated KV-page allocation shortfall: the step's planner sees
    /// `blocks` fewer free blocks than the pool really has, forcing the
    /// reclamation ladder (evict → shrink grants → preempt) under an
    /// otherwise healthy pool. Cleared after the step.
    BlockPressure {
        /// Free blocks hidden from the planner for one step.
        blocks: usize,
    },
    /// A step-latency spike of `extra_steps` virtual steps, applied by the
    /// replay harness to the client-visible clock (the engine schedule is
    /// unaffected — a slow step changes what clients observe, not what the
    /// scheduler computes).
    LatencySpike {
        /// Extra virtual steps the spike stalls the clock.
        extra_steps: u64,
    },
}

/// Injected faults waiting for the next non-idle step
/// ([`ServeEngine::inject_fault`]); several of a kind stack.
#[derive(Debug, Default)]
pub(crate) struct ArmedFaults {
    /// Worker-panic victim ranks, reduced modulo the batch at firing time.
    pub(crate) panics: Vec<usize>,
    /// Free blocks hidden from the planner. They stay armed through idle
    /// steps; the step that fires them hides them until it completes, or
    /// releases them early where they would wedge a lone sequence.
    pub(crate) pressure: usize,
    /// Latency-spike steps.
    pub(crate) spikes: u64,
}

impl ArmedFaults {
    /// Arms `fault`.
    pub(crate) fn arm(&mut self, fault: FaultKind) {
        match fault {
            FaultKind::WorkerPanic { victim_rank } => self.panics.push(victim_rank),
            FaultKind::BlockPressure { blocks } => {
                self.pressure = self.pressure.saturating_add(blocks)
            }
            FaultKind::LatencySpike { extra_steps } => {
                self.spikes = self.spikes.saturating_add(extra_steps)
            }
        }
    }
}

/// A fault scheduled at a virtual step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual step at which the fault is injected (before that step's
    /// engine work runs).
    pub at_step: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// Rates and window from which a [`FaultPlan`] is seeded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// First virtual step of the fault window (inclusive).
    pub from: u64,
    /// Last virtual step of the fault window (exclusive).
    pub to: u64,
    /// Per-step probability of a [`FaultKind::WorkerPanic`].
    pub panic_rate: f64,
    /// Per-step probability of a [`FaultKind::BlockPressure`].
    pub pressure_rate: f64,
    /// Blocks each pressure fault hides from the planner.
    pub pressure_blocks: usize,
    /// Per-step probability of a [`FaultKind::LatencySpike`].
    pub spike_rate: f64,
    /// Virtual steps each latency spike stalls the clock.
    pub spike_steps: u64,
}

impl FaultConfig {
    /// A moderately hostile fault burst over `from..to`: occasional worker
    /// panics and latency spikes, frequent simulated allocation pressure.
    pub fn burst(from: u64, to: u64, pressure_blocks: usize) -> Self {
        FaultConfig {
            from,
            to,
            panic_rate: 0.08,
            pressure_rate: 0.15,
            pressure_blocks,
            spike_rate: 0.06,
            spike_steps: 3,
        }
    }
}

/// A materialized, replayable chaos schedule: every fault with its firing
/// step, in step order. Pure data — generating it twice from the same
/// seed yields the identical plan.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The scheduled faults, sorted by [`FaultEvent::at_step`].
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Draws a plan from `config` using `rng` — one Bernoulli trial per
    /// fault type per step of the window, in a fixed order, so the plan is
    /// a pure function of the RNG stream.
    pub fn seeded(config: &FaultConfig, rng: &mut TensorRng) -> Self {
        let mut events = Vec::new();
        for step in config.from..config.to {
            if f64::from(rng.uniform(0.0, 1.0)) < config.panic_rate {
                let victim_rank = rng.index(64);
                events.push(FaultEvent {
                    at_step: step,
                    kind: FaultKind::WorkerPanic { victim_rank },
                });
            }
            if f64::from(rng.uniform(0.0, 1.0)) < config.pressure_rate {
                events.push(FaultEvent {
                    at_step: step,
                    kind: FaultKind::BlockPressure { blocks: config.pressure_blocks },
                });
            }
            if f64::from(rng.uniform(0.0, 1.0)) < config.spike_rate {
                events.push(FaultEvent {
                    at_step: step,
                    kind: FaultKind::LatencySpike { extra_steps: config.spike_steps },
                });
            }
        }
        FaultPlan { events }
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Deterministic client-side retry: bounded exponential backoff in virtual
/// steps.
///
/// Attempt `k` (0-based, counting resubmissions) waits
/// `min(base_steps << k, max_backoff_steps)` virtual steps before retrying;
/// after `max_attempts` resubmissions the client gives up and the rejection
/// becomes final. All arithmetic is integral, so a retrying replay is as
/// bit-deterministic as a non-retrying one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Backoff of the first retry, in virtual steps (at least 1).
    pub base_steps: u64,
    /// Cap on any single backoff, in virtual steps.
    pub max_backoff_steps: u64,
    /// Resubmissions before the client gives up.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { base_steps: 2, max_backoff_steps: 32, max_attempts: 5 }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based), in virtual steps.
    pub fn backoff(&self, attempt: u32) -> u64 {
        let base = self.base_steps.max(1);
        let cap = self.max_backoff_steps.max(1);
        if attempt > base.leading_zeros() {
            return cap; // the shift would overflow — far past the cap anyway
        }
        (base << attempt).min(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plan_is_deterministic() {
        let cfg = FaultConfig::burst(4, 40, 8);
        let a = FaultPlan::seeded(&cfg, &mut TensorRng::seed(7));
        let b = FaultPlan::seeded(&cfg, &mut TensorRng::seed(7));
        assert_eq!(a, b);
        assert!(!a.is_empty(), "a 36-step burst window should schedule something");
        assert!(a.events.windows(2).all(|w| w[0].at_step <= w[1].at_step), "plan must be sorted");
        assert!(a.events.iter().all(|e| (4..40).contains(&e.at_step)));
        let c = FaultPlan::seeded(&cfg, &mut TensorRng::seed(8));
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let p = RetryPolicy { base_steps: 2, max_backoff_steps: 16, max_attempts: 5 };
        assert_eq!(p.backoff(0), 2);
        assert_eq!(p.backoff(1), 4);
        assert_eq!(p.backoff(2), 8);
        assert_eq!(p.backoff(3), 16);
        assert_eq!(p.backoff(4), 16, "backoff must cap at max_backoff_steps");
        assert_eq!(p.backoff(63), 16, "overflow must saturate, not wrap");
    }
}
