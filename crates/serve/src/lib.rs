//! Batched, KV-cached serving engine for OPAL models (`opal-serve`).
//!
//! The paper's evaluation — and [`opal::OpalPipeline::generate`] — runs one
//! sequence at a time. A serving deployment instead keeps *N* requests in
//! flight: each decode step advances every active sequence by one token,
//! new requests are admitted between steps as soon as a batch slot frees up
//! (continuous batching), and every sequence owns a private block table
//! over the engine's **paged KV cache** so admissions never perturb
//! neighbours. Paging makes KV memory a managed resource: requests with a
//! common token prefix (system prompts, few-shot headers) map the same
//! prefix blocks read-only and skip that span's prefill entirely,
//! [`ServeConfig::max_blocks`] bounds total KV memory, and when the pool
//! runs dry the scheduler evicts unused cache blocks and preempts the
//! youngest sequence — resuming it later with bit-identical output —
//! instead of erroring. Admission itself is *chunked and fairness-aware*:
//! a freshly admitted request consumes its prompt in fused multi-token
//! chunks under a per-step budget of [`ServeConfig::prefill_chunk`]
//! positions, granted round-robin between prompts, so a long prompt
//! bounds — rather than monopolizes — every step it shares with decoding
//! neighbours.
//!
//! This crate layers that scheduler on top of
//! [`opal_model::Model::decode_step`] and the fused
//! [`opal_model::Model::prefill_chunk`], the same APIs the single-sequence
//! generation loop uses — all paths share one decoder code path, so a batch
//! of one is token-identical to `OpalPipeline::generate` for every chunk
//! size. Energy is accounted per step through the
//! [`opal_hw::accelerator::Accelerator`] analytical model ([`step_workload`]
//! prices the step's realized schedule), giving each [`ServeReport`] an
//! aggregate energy figure alongside throughput, per-request latency and
//! queue wait.
//!
//! Modules: `engine` holds the batch, admission and the step; `planner`
//! its block arithmetic as pure functions (what fits, what a step grants);
//! `trie` the prefix cache; `pool` the worker threads; `report` the
//! reports; [`faults`] fault injection; [`clock`] the clock.
//!
//! # Example
//!
//! ```
//! use opal_model::{Model, ModelConfig, QuantScheme};
//! use opal_serve::{ServeConfig, ServeEngine};
//!
//! let model = Model::new(ModelConfig::tiny(), QuantScheme::mxopal_w4a47(), 7)?;
//! let config = ServeConfig { max_batch: 2, max_tokens: 4, ..ServeConfig::default() };
//! let mut engine = ServeEngine::new(&model, config);
//! let a = engine.submit(&[1, 2, 3])?;
//! let b = engine.submit(&[4, 5])?;
//! let report = engine.run();
//! assert_eq!(report.requests.len(), 2);
//! assert_eq!(report.request(a).unwrap().tokens.len(), 4);
//! assert_eq!(report.request(b).unwrap().tokens.len(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`opal::OpalPipeline::generate`]: https://docs.rs/opal

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
mod engine;
pub mod faults;
mod planner;
// The worker pool hands `&Model` / `&mut [Active]` borrows to long-lived
// threads through raw pointers; the module documents the dispatch protocol
// that makes this sound and is the only place in the workspace allowed to
// use `unsafe`.
#[allow(unsafe_code)]
mod pool;
mod report;
mod trie;

pub use engine::{
    step_workload, AuditReport, DegradedConfig, DraftSource, Request, RequestId, SamplingParams,
    SeqStepWork, ServeConfig, ServeEngine, ServeError, SpecConfig, StepMode, StepSummary,
};
pub use opal_model::{AdoptError, KvScheme};
pub use planner::REORDER_STARVATION_BOUND;
pub use report::{FinishReason, RejectionCounts, RequestReport, ServeReport};
