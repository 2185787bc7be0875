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
//! The scheduler drives [`opal_model::Model::forward_rows`], fusing every
//! sequence's rows of a step into one pass; the single-sequence generation
//! loop's `decode_step` / `prefill_chunk` are one-group passes of the same
//! core, so a batch of one is token-identical to `OpalPipeline::generate`
//! for every chunk size. Energy is accounted per step through the
//! [`opal_hw::accelerator::Accelerator`] analytical model ([`step_workload`]
//! prices the step's realized schedule), giving each [`ServeReport`] an
//! aggregate energy figure alongside throughput, per-request latency and
//! queue wait.
//!
//! Modules: `engine` holds the queue, the batch and the step; `planner` its
//! block arithmetic as pure functions; `sequence` the model side of a step;
//! `threads` its fan-out over the `pool` workers; `degraded` the degraded
//! mode; `audit` the KV auditor; `trie` the prefix cache; `config`,
//! `request` and `report` the public types; [`faults`] fault injection;
//! [`clock`] the clock.
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

mod audit;
pub mod clock;
mod config;
mod degraded;
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
mod request;
mod sequence;
mod threads;
mod trie;

pub use audit::AuditReport;
pub use config::{DegradedConfig, DraftSource, ServeConfig, SpecConfig, StepMode};
pub use engine::{ServeEngine, StepSummary};
pub use opal_model::{AdoptError, KvScheme};
pub use planner::REORDER_STARVATION_BOUND;
pub use report::{FinishReason, RejectionCounts, RequestReport, ServeReport};
pub use request::{Request, RequestId, SamplingParams, ServeError};
pub use sequence::{step_workload, SeqStepWork};
