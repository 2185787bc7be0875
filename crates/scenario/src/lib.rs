//! Trace-driven load scenarios for the `opal-serve` engine
//! (`opal-scenario`).
//!
//! Serving schedulers earn their keep under *adversarial* load — bursts
//! above the service rate, cancellation storms, hot shared prefixes, KV
//! pools too small for the working set — and those regimes are exactly the
//! ones ad-hoc unit tests never reach. This crate turns them into
//! reproducible experiments:
//!
//! * [`trace`] — deterministic, seedable workload generation: Poisson and
//!   bursty (Markov-modulated) arrivals, Zipf-distributed prefix reuse
//!   over a prompt corpus, log-normal prompt/output lengths, scheduled
//!   cancellation storms and pool-sized preemption-churn phases. A
//!   [`Trace`] is a pure function of its [`TraceConfig`], fingerprintable
//!   for run-to-run identity.
//! * [`replay`](mod@replay) — a virtual-clock driver feeding a trace into
//!   [`opal_serve::ServeEngine`] step by step, producing a
//!   [`ScenarioReport`]: p50/p95/p99 TTFT, inter-token gaps and queue
//!   waits on the client-visible step clock, goodput under overload and
//!   during drain, and per-tenant Jain fairness.
//! * [`roofline`] — cross-validation of measured per-step time against
//!   the `opal-hw` analytical workload model via a two-point calibrated
//!   affine host model; a scheduler that performs unbilled work (or bills
//!   unperformed work) falls outside the pinned band. The fit is anchored
//!   to an in-process seed-style dot ([`kernel_rates`],
//!   [`MIN_ANCHOR_RATIO`]) so a uniformly slow kernel cannot hide in it.
//! * [`autotune`](mod@autotune) — a deterministic grid sweep over
//!   `block_size` × `prefill_chunk` × `max_batch` that picks the
//!   SLO-optimal configuration for a trace.
//!
//! The `scenario` binary drives all four against a standard suite of
//! traffic shapes (`--smoke` for the CI-sized run), asserting trace
//! determinism and the roofline band along the way.
//!
//! # Example
//!
//! ```
//! use opal_model::{Model, ModelConfig, QuantScheme};
//! use opal_scenario::{replay, ServeConfig, TraceConfig};
//!
//! let model = Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 11)?;
//! let trace = TraceConfig::poisson("demo", 42, 1.0, 32, model.config().vocab).generate();
//! let report = replay::replay(&model, ServeConfig::default(), &trace);
//! assert_eq!(report.completed + report.cancelled, report.submitted);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod autotune;
pub mod replay;
pub mod roofline;
pub mod slo;
pub mod trace;

pub use autotune::{autotune, AutotuneReport, GridSpec, TunedPoint};
pub use replay::{
    replay, replay_calibrated, replay_with, ReplayOptions, RequestOutcome, ScenarioReport,
    TenantShare,
};
pub use roofline::{
    calibrate, kernel_rates, HostCalibration, KernelRates, RooflineCheck, DEFAULT_BAND,
    MIN_ANCHOR_RATIO,
};
pub use slo::{jain_index, Percentiles};
pub use trace::{
    ArrivalProcess, CancelStorm, ChurnPhase, CorpusConfig, DeadlineSpec, EventKind, LengthModel,
    Trace, TraceConfig, TraceEvent,
};

// Re-exported so scenario callers need only this crate for the common path.
pub use opal_serve::faults::{FaultConfig, FaultKind, FaultPlan, RetryPolicy};
pub use opal_serve::{DegradedConfig, FinishReason, ServeConfig};
