//! The batch scheduler: continuous admission over a paged, prefix-shared
//! KV cache with memory-aware preemption.
//!
//! A step plans first (deadlines, degraded mode, admission, the block
//! budget and prefill grants: `plan_step`, whose arithmetic is the pure
//! functions of [`crate::planner`]), then runs the model side in
//! [`advance_chunk`] — every sequence's rows of the step fused into one
//! prefill pass and one decode pass of `Model::forward_rows`, so the weight
//! stack streams once per pass, not once per sequence — and accounts,
//! publishes prefixes and retires afterwards, in batch order.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use opal_hw::accelerator::Accelerator;
use opal_hw::performance::{workload_latency, Platform};
use opal_hw::workload::{DataFormat, TokenWorkload};
use opal_model::kv::{BlockPool, KvBlock, KvScheme};
use opal_model::sampling::Sampler;
use opal_model::{DecodeState, LogitsOut, Model, ModelConfig, RowGroup, Workspace};
use opal_tensor::rng::TensorRng;
use opal_tensor::Matrix;

use crate::faults::FaultKind;
use crate::planner::{self, BlockRule, Queued, SeqPlan};
use crate::pool::WorkerPool;
use crate::report::{FinishReason, Finished, RejectionCounts, RequestReport, ServeReport};
use crate::trie::PrefixTrie;

/// Per-request decoding policy: which [`Sampler`] picks each token, and the
/// seed of the request-private RNG driving it.
///
/// The RNG is owned by the request, so a request's output depends only on
/// its prompt, sampler and seed — never on batch composition, admission
/// timing or thread count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SamplingParams {
    /// The decoding policy (greedy by default).
    pub sampler: Sampler,
    /// Seed of the request-private RNG (unused by greedy).
    pub seed: u64,
}

impl Default for SamplingParams {
    fn default() -> Self {
        SamplingParams { sampler: Sampler::Greedy, seed: 0 }
    }
}

/// A request specification: prompt plus per-request decoding options.
///
/// # Example
///
/// ```
/// use opal_model::sampling::Sampler;
/// use opal_serve::{Request, SamplingParams};
///
/// let req = Request::new(&[1, 2, 3])
///     .with_limit(8)
///     .with_sampling(SamplingParams { sampler: Sampler::TopK(4), seed: 7 });
/// assert_eq!(req.prompt(), &[1, 2, 3]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    prompt: Vec<u32>,
    max_new_tokens: Option<usize>,
    sampling: SamplingParams,
    tenant: Option<String>,
    deadline_steps: Option<u64>,
}

impl Request {
    /// A greedy request generating the engine's default token budget.
    pub fn new(prompt: &[u32]) -> Self {
        Request {
            prompt: prompt.to_vec(),
            max_new_tokens: None,
            sampling: SamplingParams::default(),
            tenant: None,
            deadline_steps: None,
        }
    }

    /// Caps generation at `max_new_tokens` (clamped to the engine's
    /// [`ServeConfig::max_tokens`] on submission).
    #[must_use]
    pub fn with_limit(mut self, max_new_tokens: usize) -> Self {
        self.max_new_tokens = Some(max_new_tokens);
        self
    }

    /// Sets the decoding policy.
    #[must_use]
    pub fn with_sampling(mut self, sampling: SamplingParams) -> Self {
        self.sampling = sampling;
        self
    }

    /// Tags the request with a tenant label. The tag is carried verbatim
    /// into the final [`RequestReport`](crate::RequestReport), where
    /// multi-tenant harnesses aggregate per-tenant token shares (fairness
    /// metrics); the scheduler itself treats every tenant identically.
    #[must_use]
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Gives the request a time-to-live of `deadline_steps` scheduler
    /// steps, measured from submission. A request that has not retired
    /// within its TTL — whether still queued, prefilling, or mid-decode —
    /// is expired at the start of the next step with
    /// [`FinishReason::DeadlineExceeded`](crate::FinishReason::DeadlineExceeded)
    /// and its KV blocks are freed immediately. The TTL survives
    /// preemption: re-queued time still counts against it. Measured in
    /// steps, not wall time, so expiry is deterministic under replay.
    ///
    /// # Panics
    ///
    /// Panics if `deadline_steps` is zero (such a request could never run).
    #[must_use]
    pub fn with_deadline(mut self, deadline_steps: u64) -> Self {
        assert!(deadline_steps > 0, "deadline must allow at least one step");
        self.deadline_steps = Some(deadline_steps);
        self
    }

    /// The prompt tokens.
    pub fn prompt(&self) -> &[u32] {
        &self.prompt
    }

    /// The tenant tag, if one was set.
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// The TTL in scheduler steps, if one was set.
    pub fn deadline_steps(&self) -> Option<u64> {
        self.deadline_steps
    }
}

/// Opaque handle identifying a submitted request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub(crate) u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// How a multi-threaded decode step is dispatched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum StepMode {
    /// Decide per step (the default): fan out across the persistent worker
    /// pool only when the host reports spare cores *and* every worker's
    /// chunk carries enough weight MACs to amortize the dispatch —
    /// otherwise run the step on the caller's thread. A tiny model, a
    /// small batch or a single-core host therefore falls back to the
    /// serial path instead of paying wake-ups that dwarf the work. The
    /// gate counts cores, not idle ones: it cannot see another process
    /// holding a core it counted, and there `num_threads = 4` can run
    /// slower than `num_threads = 1`.
    #[default]
    Auto,
    /// Always fan out across the persistent pool when the batch has more
    /// than one sequence, regardless of cores or model size. Used by tests
    /// and benches to exercise the pool machinery deterministically (output
    /// is identical to every other mode either way).
    ForcePool,
}

/// Where speculative draft tokens come from (see [`SpecConfig`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DraftSource {
    /// Model-free n-gram lookup: propose the tokens that followed the most
    /// recent earlier occurrence of the sequence's current suffix (bigram
    /// match preferred, unigram fallback). Costs no forward passes at all,
    /// so any accepted token is pure profit; acceptance is high exactly
    /// when greedy decode revisits its own context (repetitive or
    /// templated streams).
    NGram,
}

/// Speculative-decoding policy ([`ServeConfig::spec`]): a cheap draft
/// proposes up to `k` tokens per sequence per pure-decode step, and the
/// served model verifies all of them plus the step's sampled token in one
/// fused multi-row pass, accepting the longest prefix the request's own
/// sampler reproduces and rolling the rejected tail back by truncating
/// the sequence's block tables.
///
/// Output — token streams and finish reasons — is bit-identical to
/// non-speculative decoding for every sampler (greedy and
/// seeded-stochastic alike); only the steps-per-token ratio changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecConfig {
    /// The draft proposal source.
    pub draft: DraftSource,
    /// Maximum tokens drafted per sequence per step (must be at least 1).
    /// Each step verifies at most `k + 1` positions and rolls back the
    /// rejected tail, so per-step KV reservations grow by the same bound.
    pub k: usize,
}

/// Scheduler limits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum number of sequences decoded concurrently. Requests beyond
    /// this wait in the admission queue and join as slots free up.
    pub max_batch: usize,
    /// Default number of tokens generated per request (a request-level
    /// override via [`ServeEngine::submit_with_limit`] is clamped to this).
    pub max_tokens: usize,
    /// Worker threads for the batch decode step. `1` (the default) steps
    /// the whole batch on the caller's thread, its rows fused into shared
    /// forward passes; larger values split the active batch across the
    /// engine's persistent worker pool (subject to [`StepMode`]), each
    /// thread fusing its own chunk. Output is identical for every thread
    /// count — each sequence owns its state, which rows share a pass is
    /// invisible in the output, and results are committed in batch order.
    pub num_threads: usize,
    /// Dispatch policy for multi-threaded steps; see [`StepMode`].
    pub step_mode: StepMode,
    /// Prompt positions the scheduler prefills per step, shared across the
    /// batch and granted round-robin over the prefilling sequences (the
    /// scan resumes just past the last grantee, so no prompt starves).
    /// Admitted requests consume their prompt incrementally in fused chunks
    /// of up to this many positions, interleaved with decoding, so one long
    /// prompt can stall a step by at most `prefill_chunk` extra forward
    /// passes instead of its whole length. `usize::MAX` restores blocking
    /// admission (a prompt prefills entirely in its first step). Must be at
    /// least 1; default 8.
    pub prefill_chunk: usize,
    /// Maximum requests waiting in the admission queue; a
    /// [`ServeEngine::submit`] beyond this is rejected with
    /// [`ServeError::QueueFull`] instead of growing `pending` without
    /// bound. Must be at least 1; default `usize::MAX` (unbounded).
    pub max_queue: usize,
    /// Positions per KV cache page: the granularity of allocation and of
    /// prefix sharing (only full blocks enter the prefix trie). Must be at
    /// least 1; default 16.
    pub block_size: usize,
    /// Hard bound on KV blocks across the whole engine — every layer of
    /// every resident sequence plus the prefix cache; total KV memory is
    /// `max_blocks × 2 ×` [`KvScheme::page_bytes`] for the pool's resolved
    /// scheme (`ServeEngine::kv_pool().scheme()`: under
    /// [`KvScheme::Exact`], the K/V site's own format — 7-bit MX-OPAL codes
    /// on a W4A4/7 model, `block_size × d_model × 2` floats on a bf16 one).
    /// When the pool runs dry the scheduler evicts
    /// unused prefix-cache blocks, shrinks prefill grants, and finally
    /// preempts the youngest sequence (its blocks are freed and it
    /// re-queues to re-prefill later) instead of erroring. Default
    /// `usize::MAX` (unbounded).
    pub max_blocks: usize,
    /// Storage format of the KV-cache pages (see [`KvScheme`]), resolved
    /// against the model when the engine builds its pool
    /// (`Model::kv_scheme`; [`ServeEngine::kv_pool`]'s `scheme()` is the
    /// result). The default [`KvScheme::Exact`] keeps decode bit-identical
    /// to the unpaged cache, in the K/V site's own format: on an MX-OPAL or
    /// MXINT model that is the site's codes (~3.5× smaller than `f32`
    /// rows), on bf16 and MinMax models `f32` rows. [`KvScheme::mxopal`]
    /// stores shared-exponent codes of its own — ~3.5× smaller than `f32`
    /// pages — and attention runs in the quantized domain
    /// (bit-deterministic, accuracy-bounded against the exact cache).
    /// Prefix sharing works identically in either mode, but blocks never
    /// leave their pool.
    pub kv_scheme: KvScheme,
    /// Exact-prefix KV sharing: requests whose token prefix matches blocks
    /// already resident adopt them read-only and skip that span's prefill.
    /// Output is bit-identical either way (shared rows are exactly the
    /// rows the request would have computed); disable to trade the
    /// admission speedup for zero cross-request block aliasing. Default
    /// `true`.
    pub prefix_sharing: bool,
    /// Degraded-mode policy: when set, the engine watches pool pressure
    /// and the recent preemption rate, and under stress shrinks its
    /// admission and prefill budgets (and optionally sheds queued load)
    /// until the pressure clears — protecting in-flight work instead of
    /// thrashing. `None` (the default) disables the mode entirely; the
    /// scheduler behaves exactly as before.
    pub degraded: Option<DegradedConfig>,
    /// Speculative decoding ([`SpecConfig`]): when set, pure-decode steps
    /// draft up to `spec.k` tokens per sequence and verify them together
    /// with the step's sampled token in one fused multi-row pass, emitting
    /// every accepted token in a single step. Rejected tails roll back by
    /// truncating the sequence's block tables, so the served KV cache is
    /// always exactly what non-speculative decode would hold. `None` (the
    /// default) decodes one token per step.
    pub spec: Option<SpecConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            max_tokens: 32,
            num_threads: 1,
            step_mode: StepMode::Auto,
            prefill_chunk: 8,
            max_queue: usize::MAX,
            block_size: 16,
            max_blocks: usize::MAX,
            kv_scheme: KvScheme::Exact,
            prefix_sharing: true,
            degraded: None,
            spec: None,
        }
    }
}

/// Thresholds and hysteresis of the engine's degraded mode
/// ([`ServeConfig::degraded`]).
///
/// The engine **enters** degraded mode when KV-pool pressure (allocated
/// blocks — plus any injected pressure fault — as a percentage of
/// [`ServeConfig::max_blocks`]) reaches [`enter_pressure_pct`], or when at
/// least [`preempt_threshold`] preemptions happened within the last
/// [`preempt_window`] steps. While degraded it admits into a batch of
/// `max_batch × batch_pct / 100` slots, mints a per-step prefill budget of
/// `prefill_chunk × prefill_pct / 100` positions, and sheds the
/// youngest-queued requests down to [`shed_queue`] entries
/// ([`FinishReason::Shed`](crate::FinishReason::Shed)). It **exits** only
/// after [`cooldown_steps`] consecutive healthy steps (pressure at or
/// below [`exit_pressure_pct`] and zero preemptions in the window) — the
/// hysteresis that stops the mode from flapping at the threshold.
///
/// All fields are integers and every decision is a pure function of
/// scheduler state, so degraded-mode transitions replay deterministically.
///
/// [`enter_pressure_pct`]: DegradedConfig::enter_pressure_pct
/// [`exit_pressure_pct`]: DegradedConfig::exit_pressure_pct
/// [`preempt_threshold`]: DegradedConfig::preempt_threshold
/// [`preempt_window`]: DegradedConfig::preempt_window
/// [`cooldown_steps`]: DegradedConfig::cooldown_steps
/// [`shed_queue`]: DegradedConfig::shed_queue
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegradedConfig {
    /// Pool-pressure percentage at which the engine enters degraded mode.
    pub enter_pressure_pct: u32,
    /// Pool-pressure percentage at or below which a step counts as healthy.
    pub exit_pressure_pct: u32,
    /// Width, in steps, of the sliding window over recent preemptions.
    pub preempt_window: u64,
    /// Preemptions within the window that trigger degraded mode.
    pub preempt_threshold: usize,
    /// Consecutive healthy steps required to exit (the hysteresis).
    pub cooldown_steps: u64,
    /// Percentage of `max_batch` admitted while degraded (min 1 slot; at
    /// most 100 — the mode shrinks the batch, never grows it).
    pub batch_pct: u32,
    /// Percentage of `prefill_chunk` minted per step while degraded
    /// (min 1 position; at most 100).
    pub prefill_pct: u32,
    /// Queue length the shedder trims the admission queue down to while
    /// degraded, youngest first. `usize::MAX` (the default) disables
    /// shedding.
    pub shed_queue: usize,
}

impl Default for DegradedConfig {
    fn default() -> Self {
        DegradedConfig {
            enter_pressure_pct: 85,
            exit_pressure_pct: 60,
            preempt_window: 16,
            preempt_threshold: 4,
            cooldown_steps: 8,
            batch_pct: 50,
            prefill_pct: 50,
            shed_queue: usize::MAX,
        }
    }
}

/// Why a submission was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The prompt was empty.
    EmptyPrompt,
    /// A prompt token is outside the model's vocabulary.
    TokenOutOfRange {
        /// The offending token id.
        token: u32,
        /// The model's vocabulary size.
        vocab: usize,
    },
    /// A per-request token limit of zero was requested.
    ZeroTokenLimit,
    /// The request's [`SamplingParams`] are invalid (non-positive or
    /// non-finite temperature, `k == 0`, `p` outside `(0, 1]`).
    ///
    /// Caught at submission: letting such a request into the batch would
    /// panic inside [`opal_model::sampling::Sampler::pick`] mid-step, on a
    /// worker thread, taking every other in-flight sequence down with it.
    InvalidSampling {
        /// What is wrong with the parameters.
        reason: &'static str,
    },
    /// The admission queue already holds [`ServeConfig::max_queue`]
    /// requests. Backpressure for callers: retry after draining some steps
    /// instead of letting `pending` grow without bound.
    QueueFull {
        /// The configured queue bound that was hit.
        max_queue: usize,
    },
    /// The request could never fit the KV block pool even running alone
    /// with the prefix cache fully evicted: its worst-case lifetime
    /// residency (prompt plus token limit, plus one copy-on-write block
    /// per layer of headroom) exceeds [`ServeConfig::max_blocks`].
    /// Admitting it would deadlock the memory-aware scheduler, so it is
    /// rejected at submission.
    InsufficientBlocks {
        /// Worst-case blocks the request needs to complete.
        required: usize,
        /// The configured pool bound.
        max_blocks: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::EmptyPrompt => write!(f, "empty prompt"),
            ServeError::TokenOutOfRange { token, vocab } => {
                write!(f, "token {token} outside vocabulary of {vocab}")
            }
            ServeError::ZeroTokenLimit => write!(f, "token limit must be at least 1"),
            ServeError::InvalidSampling { reason } => {
                write!(f, "invalid sampling parameters: {reason}")
            }
            ServeError::QueueFull { max_queue } => {
                write!(f, "admission queue full ({max_queue} requests)")
            }
            ServeError::InsufficientBlocks { required, max_blocks } => {
                write!(
                    f,
                    "request needs up to {required} KV blocks but the pool holds {max_blocks}"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// What one call to [`ServeEngine::step`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepSummary {
    /// Requests admitted from the queue before this step (they enter the
    /// `Prefilling` phase; their prompts are consumed over later steps).
    pub admitted: usize,
    /// Prompt positions prefilled across the batch during this step
    /// (bounded by [`ServeConfig::prefill_chunk`]).
    pub prefilled: usize,
    /// Tokens generated across the batch during this step.
    pub generated: usize,
    /// Requests that reached their token limit and retired.
    pub finished: usize,
    /// Sequences preempted under KV-pool pressure during this step (their
    /// blocks were freed and they re-queued at the front of the admission
    /// queue).
    pub preempted: usize,
    /// KV blocks allocated from the engine's pool after this step (block
    /// tables plus prefix cache; a block shared by many sequences counts
    /// once).
    pub blocks_in_use: usize,
    /// High-water mark of `blocks_in_use` over the engine's lifetime.
    pub blocks_peak: usize,
    /// Requests whose `deadline_steps` TTL expired before this step
    /// (queued or in-batch; their blocks were freed immediately).
    pub expired: usize,
    /// Sequences that panicked during this step and were quarantined
    /// (retired with `FinishReason::Failed`, blocks returned; every other
    /// sequence continued bit-identically).
    pub failed: usize,
    /// Queued requests shed by degraded-mode load shedding before this
    /// step.
    pub shed: usize,
    /// Whether the engine ran this step in degraded mode (shrunken batch
    /// and prefill budgets).
    pub degraded: bool,
    /// Virtual steps of injected latency-spike faults consumed by this
    /// step (telemetry for step-clocked harnesses; the schedule itself is
    /// unaffected).
    pub latency_spike_steps: u64,
    /// Draft tokens proposed and verified across the batch during this
    /// step (zero when speculative decoding is off).
    pub drafted: usize,
    /// Drafted tokens the verify passes accepted this step — each one an
    /// extra generated token beyond the per-sequence sampled one, so
    /// `generated` counts them too.
    pub accepted: usize,
}

/// One request from submission to retirement. The ticket waits in the
/// queue, rides in the batch inside an [`Active`], and goes back to the
/// front of the queue on preemption carrying everything needed to resume
/// bit-identically: its stream, its sampler's RNG mid-stream and its
/// timing history.
struct Ticket {
    id: RequestId,
    /// The committed stream: the prompt, then every generated token. A
    /// resumed request re-prefills all of it (bit-identical to having
    /// decoded it, per the golden prefill-equivalence tests), and the
    /// n-gram draft looks up its proposals in it.
    stream: Vec<u32>,
    /// Prompt length: `stream[..prompt_len]` is the prompt.
    prompt_len: usize,
    limit: usize,
    sampler: Sampler,
    /// The request-private sampler RNG.
    rng: TensorRng,
    tenant: Option<String>,
    submitted_at: Instant,
    /// Scheduler step at submission — the anchor of the deadline TTL
    /// (preserved across preemptions, so re-queued time keeps counting).
    submitted_step: u64,
    /// TTL in scheduler steps from `submitted_step`, if the request set
    /// one.
    deadline: Option<u64>,
    /// Times a younger cache-warm request was admitted past this one under
    /// block pressure (see [`crate::REORDER_STARVATION_BOUND`]); reset when a
    /// preemption re-queues it.
    bypassed: u32,
    /// Step and queue wait of the latest admission; `None` while queued.
    admitted: Option<(u64, std::time::Duration)>,
    /// Scheduler step at which each generated token was sampled, parallel
    /// to `stream[prompt_len..]` (re-prefilled tokens keep their steps).
    token_steps: Vec<u64>,
    /// Wall time from submission to the first sampled token.
    ttft: Option<std::time::Duration>,
    /// Times this request has been preempted so far.
    preemptions: u32,
    /// Prefill positions skipped via prefix sharing (cumulative across
    /// re-admissions).
    shared: usize,
}

impl Ticket {
    /// Tokens generated so far.
    fn generated(&self) -> usize {
        self.stream.len() - self.prompt_len
    }

    /// The final report of a request retiring at step `now`, from the
    /// batch or from the queue (then its latest admission is `now`, and it
    /// waited all its life). Takes the tokens with it: the caller drops
    /// the ticket next.
    fn report(&mut self, finish: FinishReason, now: u64) -> Finished {
        let latency = self.submitted_at.elapsed();
        let (admitted_step, queue_wait) = self.admitted.unwrap_or((now, latency));
        let mut tokens = std::mem::take(&mut self.stream);
        tokens.drain(..self.prompt_len);
        Finished::new(RequestReport {
            id: self.id,
            prompt_len: self.prompt_len,
            tokens,
            finish,
            tenant: self.tenant.take(),
            admitted_step,
            finished_step: now,
            preemptions: self.preemptions,
            shared_prefill_tokens: self.shared,
            queue_wait,
            ttft: self.ttft,
            token_steps: std::mem::take(&mut self.token_steps),
            latency,
        })
    }
}

/// What one sequence did during the most recent [`ServeEngine::step`] —
/// the realized schedule, exported via [`ServeEngine::last_step_work`].
/// [`step_workload`] prices a step's records on the modeled platform, for
/// the engine's own energy account and for load harnesses alike, so no
/// caller re-derives scheduler decisions. Written by the thread that
/// stepped the sequence (`advance_chunk`) and read back by the
/// scheduler's post-join accounting (energy, throughput counters) in batch
/// order, so the bookkeeping is independent of thread scheduling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeqStepWork {
    /// Cache position before this step's prefill slice.
    pub prefill_start: usize,
    /// Prompt positions consumed this step (each one fused layer sweep at
    /// contexts `prefill_start + 1 ..= prefill_start + prefilled`).
    pub prefilled: usize,
    /// Whether a token was sampled this step.
    pub sampled: bool,
    /// Context length (cached positions) of this step's decode forward
    /// pass, or `None` when no decode pass ran (still prefilling, the
    /// sequence retired at its limit and its next logits were never
    /// needed, or a fused verify pass replaced the decode pass — see
    /// [`SeqStepWork::verify_rows`]).
    pub decode_context: Option<usize>,
    /// Draft tokens proposed and verified for this sequence this step.
    pub drafted: usize,
    /// Drafted tokens accepted (tokens emitted beyond the sampled one).
    pub accepted: usize,
    /// Context length before the fused verify pass, when one ran.
    pub verify_start: usize,
    /// Rows the fused verify pass computed — one fused layer sweep over
    /// contexts `verify_start + 1 ..= verify_start + verify_rows`, exactly
    /// like a prefill chunk. Zero when no verify pass ran.
    pub verify_rows: usize,
}

/// Prices one step's realized schedule on `served`'s config: each prefill
/// position and decode row is one pass at its context, each fused verify
/// pass goes through `TokenWorkload::from_verify` (its rows, rolled-back
/// ones included, stream the cache once), and the weights stream once per
/// step. The engine's energy account and every harness that prices a step
/// call this.
pub fn step_workload(
    served: &ModelConfig,
    format: &DataFormat,
    work: &[SeqStepWork],
) -> TokenWorkload {
    let passes = work.iter().flat_map(|w| {
        (w.prefill_start + 1..=w.prefill_start + w.prefilled).chain(w.decode_context)
    });
    let verify = work.iter().filter(|w| w.verify_rows > 0).map(|w| (w.verify_start, w.verify_rows));
    TokenWorkload::from_step(served, format, passes, verify)
}

/// A sequence currently in the batch: its [`Ticket`] plus what it holds
/// only while resident — a private [`DecodeState`] (its position and KV
/// block tables), its logits and its step bookkeeping — so sequences are
/// fully isolated and can be stepped in any grouping, from different
/// threads. The forward-pass buffers belong to the stepping thread
/// ([`Workspace`]), not to the sequence.
///
/// # Lifecycle
///
/// An admitted sequence starts in the **`Prefilling` phase**
/// (`prefilled < prefill_end`): each step it consumes up to its granted
/// share of the step's [`ServeConfig::prefill_chunk`] positions as its rows
/// of the step's fused prefill pass, generating nothing. The step whose
/// grant covers the last prefill position computes the logits and the
/// sequence transitions to **`Decoding`** — sampling its next token in
/// that same step, exactly as blocking admission would have — where it
/// advances one token per step until it retires at its limit.
pub(crate) struct Active {
    ticket: Ticket,
    state: DecodeState,
    last_logits: Vec<f32>,
    /// The stream's length at admission: `ticket.stream[..prefill_end]` is
    /// prefilled (the prompt, plus the tokens generated before a
    /// preemption), `ticket.stream[..prefilled]` is in the KV cache.
    prefill_end: usize,
    /// Prefill positions already in the KV cache (starts at the
    /// prefix-shared span, not zero, when blocks were adopted).
    prefilled: usize,
    /// Prefill positions this step's scheduler granted (consumed and reset
    /// by [`advance_chunk`]).
    grant: usize,
    /// Per-step activity record for post-join accounting.
    work: SeqStepWork,
    /// Full prompt blocks already published into the prefix trie (the
    /// registration watermark — steady-state steps publish nothing and do
    /// no trie work for this sequence).
    registered_blocks: usize,
    /// Trie node of the last published block (`PrefixTrie::ROOT` before
    /// the first), so registration appends without re-walking the path.
    /// Verified live before use: a published node is normally pinned by
    /// this sequence's own table (shared `Arc`s) or by its children, but a
    /// node adopted-then-diverged or inherited from a retired twin can be
    /// evicted, and ids are never reused, so a dead anchor is detectable.
    trie_parent: usize,
    /// Set by [`advance_chunk`]'s quarantine when this sequence's step
    /// panicked: the caught panic message. The scheduler quarantines the
    /// sequence — retires it with `FinishReason::Failed` and returns its
    /// blocks — before publishing anything or stepping it again (its KV
    /// writes may be half-finished, so its blocks must never enter the
    /// prefix trie).
    failed: Option<String>,
    /// Armed by an injected [`FaultKind::WorkerPanic`]: the next
    /// [`advance_chunk`] over this sequence panics on its behalf, on
    /// whichever thread runs it.
    panic_next: bool,
    /// Speculative-decoding state when [`ServeConfig::spec`] is set: the
    /// reusable draft/verify buffers. Dropped on preemption and rebuilt at
    /// re-admission; the n-gram draft reads only the committed stream, so
    /// resumption stays output-identical.
    spec: Option<Box<SpecState>>,
}

/// Per-sequence speculative-decoding state: the reusable buffers of the
/// draft/verify loop. Everything here is scratch — none of it influences
/// output, only how many tokens each step emits.
struct SpecState {
    /// Maximum tokens drafted per step ([`SpecConfig::k`]).
    k: usize,
    /// Draft tokens proposed this step (reused).
    proposals: Vec<u32>,
    /// Verify-row token buffer `[t0, d1..dk]` (reused).
    verify: Vec<u32>,
    /// Logits of the fused verify pass, one row per verify token
    /// (pre-grown to `k + 1` rows; reused).
    logits: Matrix,
}

impl Active {
    /// Whether this sequence is still consuming its prompt.
    fn prefilling(&self) -> bool {
        self.prefilled < self.prefill_end
    }

    /// The numbers the planner reads off this sequence.
    fn plan(&self) -> SeqPlan {
        debug_assert!(!self.prefilling() || self.state.pos() == self.prefilled);
        SeqPlan {
            pos: self.state.pos(),
            prefill_left: self.prefill_end - self.prefilled,
            left: self.ticket.limit - self.ticket.generated(),
            spec_k: self.spec.as_ref().map_or(0, |spec| spec.k),
            tail_shared: self.state.tail_block_shared(),
            grant: 0,
        }
    }
}

/// Minimum weight work (multiply-accumulates) a worker's chunk must carry
/// for [`StepMode::Auto`] to hand it to a pool thread instead of running it
/// inline.
///
/// A chunk's rows share one pass over the weights, so splitting a batch
/// buys less than it did when every sequence streamed the stack itself: two
/// half-batches stream it twice, in parallel, and what is saved is half the
/// rows' arithmetic. On the `llama7b-proxy128` config (815k MACs/token by
/// `approx_macs_per_token`; bf16, 2 vCPUs) a fused serial step costs about
/// 50 µs of stream plus 105 µs per row, a dispatch a few µs. Forced
/// two-thread dispatch over serial, alternating drains: 1.12–1.19× at batch
/// 2–3, 1.5–1.8× at 4, 1.2–1.4× at 5–6, 1.4–1.5× at 8, 1.5–1.8× at 16 while
/// the second vCPU was ours; 0.8–1.0× at every batch up to 8 in the
/// stretches when it was not (a shared host: no gate fixes that). 1.6M MACs
/// is two proxy rows per worker: the first fan-out at batch 4 there (eight
/// for four workers), leaving out the batches where the gain is inside the
/// host's noise; the tiny test config (≈30k MACs/token) stays serial at
/// any batch a test uses. The gate sees cores and MACs, not load: a core
/// another process holds still counts, which is how `bench_decode` read
/// `optimized-4t` at 0.51–0.74× `optimized-1t` on that host.
const FANOUT_MIN_MACS_PER_WORKER: u64 = 1_600_000;

/// Hardware threads of this host, asked once per process:
/// `available_parallelism` reads the cgroup quota files on Linux (~18 µs
/// and four allocations a call), and [`StepMode::Auto`] consults it on
/// every step.
fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Matvec multiply-accumulates per decoded token: the decoder stack's
/// weight MACs (identical to its parameter count) plus the unembedding row.
fn approx_macs_per_token(config: &opal_model::ModelConfig) -> u64 {
    config.decoder_params() + (config.d_model * config.vocab) as u64
}

/// Decode-equivalent forward passes this sequence will run this step: its
/// granted prefill positions (each one layer sweep of the fused chunk)
/// plus one if it will sample (a prefill position costs about as much as a
/// decoded token), plus up to `k` fused verify rows when a speculative
/// step will fire — a pure function of pre-fan-out scheduler state, so
/// chunk cuts stay deterministic.
fn seq_units(seq: &Active) -> u64 {
    let samples = seq.prefilled + seq.grant >= seq.prefill_end;
    let spec_rows = match &seq.spec {
        Some(spec) if samples && !seq.prefilling() => spec.k as u64,
        _ => 0,
    };
    seq.grant as u64 + u64::from(samples) + spec_rows
}

/// Exclusive end indices (all but the last) cutting `units` into `chunks`
/// contiguous groups of near-equal sum, each with at least one element.
fn balanced_cuts(units: &[u64], chunks: usize) -> Vec<usize> {
    let n = units.len();
    let chunks = chunks.clamp(1, n.max(1));
    let total: u64 = units.iter().sum();
    let mut cuts = Vec::with_capacity(chunks.saturating_sub(1));
    let mut acc = 0u64;
    let mut end = 0usize;
    for k in 1..chunks {
        let target = total * k as u64 / chunks as u64;
        // Leave at least one element for each group still to cut.
        let max_end = n - (chunks - k);
        let min_end = end + 1;
        while end < max_end && (end < min_end || acc + units[end] <= target) {
            acc += units[end];
            end += 1;
        }
        cuts.push(end);
    }
    cuts
}

/// Cuts the active batch into at most `workers` contiguous chunks weighted
/// by per-sequence work ([`seq_units`]), not by sequence count: a sequence
/// carrying a large prefill grant would otherwise turn its equal-count
/// chunk into the step's straggler, idling the threads the work-based
/// fan-out plan just justified. Cut placement is a pure function of
/// scheduler state fixed before the fan-out, so dispatch stays
/// deterministic (and chunk shape never affects output — sequences are
/// independent and accounting runs post-join in batch order).
fn split_by_work(seqs: &mut [Active], workers: usize) -> Vec<&mut [Active]> {
    let units: Vec<u64> = seqs.iter().map(seq_units).collect();
    let cuts = balanced_cuts(&units, workers);
    let mut chunks = Vec::with_capacity(cuts.len() + 1);
    let mut rest = seqs;
    let mut prev = 0usize;
    for &cut in &cuts {
        let (chunk, tail) = rest.split_at_mut(cut - prev);
        chunks.push(chunk);
        rest = tail;
        prev = cut;
    }
    chunks.push(rest);
    chunks
}

/// Advances every sequence of `chunk` by one step: the model side of
/// [`ServeEngine::step`] for the sequences one thread owns (the whole batch
/// on the serial path, one [`split_by_work`] slice per worker otherwise),
/// with the [`Workspace`] that thread owns. All the chunk's rows of a kind
/// go through the model in **one** [`Model::forward_rows`] pass, so the
/// weight stack streams once per pass instead of once per sequence:
///
/// 0. *Faults and grants* ([`begin_step`]), per sequence.
/// 1. *Prefill pass*: every granted prompt slice is a group
///    ([`prefill_rows`]).
/// 2. *Sample* ([`sample`]): every sequence holding fresh logits —
///    decoding already, or its prompt just completed, exactly as blocking
///    admission would have sampled it — picks its token and leaves its
///    feed, `[t0]` or a verify `[t0, d1..dk]`, unless that was its last.
/// 3. *Decode pass*: all feeds in one pass ([`decode_rows`]).
/// 4. *Commit* ([`commit`]): acceptance and rollback per verify.
///
/// A pure-decode step makes one pass, a step that completes a prompt two.
/// Everything a sequence does is fixed by scheduler state decided before
/// the fan-out (`grant`) and by its own tokens, and which rows share a pass
/// is invisible in the output (`Model::forward_rows`' contract), so tokens,
/// `token_steps` and [`SeqStepWork`] are independent of batch composition,
/// thread count and dispatch mode.
///
/// Panic quarantine: phases 0, 2 and 4 run each sequence under its own
/// `catch_unwind` ([`guarded`]); a fused pass runs under one
/// ([`fused_pass`]) and falls back to one pass per sequence when it
/// unwinds. Either way the panicking sequence ends the step with
/// [`Active::failed`] set and nobody else notices.
pub(crate) fn advance_chunk(model: &Model, chunk: &mut [Active], ws: &mut Workspace) {
    for seq in chunk.iter_mut() {
        seq.work = SeqStepWork::default();
        guarded(seq, begin_step);
    }
    fused_pass(model, chunk, ws, prefill_rows);
    for seq in chunk.iter_mut() {
        guarded(seq, sample);
    }
    fused_pass(model, chunk, ws, decode_rows);
    for seq in chunk.iter_mut() {
        guarded(seq, commit);
    }
}

/// Runs `f` on a live sequence behind `catch_unwind`: the per-sequence
/// panic quarantine. A panic — a model invariant tripping on corrupt
/// state, or an injected chaos fault — is caught here, on the thread that
/// ran the sequence, and recorded in [`Active::failed`]; the scheduler
/// retires the sequence with `FinishReason::Failed` after the join. A
/// sequence already quarantined is never touched again.
///
/// The `AssertUnwindSafe` is sound for the same reason preemption is: a
/// quarantined sequence is *dropped*, never observed again — its possibly
/// half-written `DecodeState` is released to the pool without its contents
/// ever being read (the quarantine runs before `register_prefixes`, so
/// poisoned blocks cannot leak into the prefix cache either).
fn guarded(seq: &mut Active, f: impl FnOnce(&mut Active)) {
    if seq.failed.is_some() {
        return;
    }
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(seq))) {
        seq.failed = Some(panic_message(payload.as_ref()));
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "sequence step panicked with a non-string payload".to_owned())
}

/// One [`Model::forward_rows`] pass over the rows `rows` describes for
/// each sequence of the chunk, under one `catch_unwind`. When the pass
/// unwinds — one sequence's KV append hit a dry pool, say — nobody's
/// position has moved (`forward_rows` advances them last), so every
/// sequence is truncated back to it, dropping whatever rows the pass had
/// appended, and re-run alone under its own guard: whoever panics again is
/// quarantined, and the survivors are bit-identical to a step in which the
/// victim never took part, because a pass is a pure function of tokens,
/// cached rows below `pos` and weights, and `truncate` is the rollback
/// speculation already relies on.
fn fused_pass(
    model: &Model,
    chunk: &mut [Active],
    ws: &mut Workspace,
    rows: for<'a> fn(&'a mut Active) -> RowGroup<'a>,
) {
    // The workspace holds nothing across passes, so one that unwound is as
    // good as new.
    if catch_unwind(AssertUnwindSafe(|| model.forward_rows(chunk, rows, ws, None))).is_ok() {
        return;
    }
    for seq in chunk {
        let before = seq.state.pos();
        seq.state.truncate(before);
        guarded(seq, |seq| model.forward_rows(std::slice::from_mut(seq), rows, ws, None));
    }
}

/// Phase 0 for one sequence: fires an armed chaos fault, then turns the
/// scheduler's grant into this step's prompt slice.
fn begin_step(seq: &mut Active) {
    if seq.panic_next {
        // Deterministic chaos: fire the injected fault inside the
        // sequence's step, on whatever thread is running it. The flag is
        // cleared first so the quarantined sequence is never re-armed.
        seq.panic_next = false;
        // tidy: allow(panic) -- deliberate fault injection; the step harness catches it
        panic!("injected chaos fault: worker panic stepping {}", seq.ticket.id);
    }
    // Only prefilling sequences are granted anything, never past the prompt;
    // zero means another sequence drained this step's budget.
    let grant = std::mem::take(&mut seq.grant);
    if grant > 0 {
        seq.work.prefill_start = seq.prefilled;
        seq.work.prefilled = grant;
        seq.prefilled += grant;
    }
}

/// A sequence's rows in the prefill pass: this step's prompt slice, the
/// last row wanting logits iff the slice completes the prompt.
fn prefill_rows(seq: &mut Active) -> RowGroup<'_> {
    let w = seq.work;
    let tokens: &[u32] = match seq.failed {
        None => &seq.ticket.stream[w.prefill_start..w.prefill_start + w.prefilled],
        Some(_) => &[],
    };
    let logits = if seq.prefilled == seq.prefill_end {
        LogitsOut::Last(&mut seq.last_logits)
    } else {
        LogitsOut::None
    };
    RowGroup { state: &mut seq.state, tokens, logits }
}

/// A sequence's rows in the decode pass, as [`sample`] left them: the
/// verify feed with every row's logits, or the token just sampled, or
/// nothing (still prefilling, at its limit, or quarantined).
fn decode_rows(seq: &mut Active) -> RowGroup<'_> {
    let Active { state, ticket, last_logits, spec, work, failed, .. } = seq;
    let (tokens, logits) = match spec.as_deref_mut() {
        _ if failed.is_some() => (&[][..], LogitsOut::None),
        Some(spec) if work.verify_rows > 0 => (&spec.verify[..], LogitsOut::All(&mut spec.logits)),
        _ if work.decode_context.is_some() => {
            (&ticket.stream[ticket.stream.len() - 1..], LogitsOut::Last(last_logits))
        }
        _ => (&[][..], LogitsOut::None),
    };
    RowGroup { state, tokens, logits }
}

/// Phase 2 for one sequence: samples from the logits it holds, then —
/// unless it just hit its limit, in which case it retires without another
/// forward pass, its next logits would be discarded — leaves its feed for
/// the decode pass (see [`decode_rows`]).
///
/// Speculation is for pure-decode steps only: `BlockRule::decode_need`
/// reserves speculative rows only for sequences decoding at planning time,
/// and this gate must match that reservation exactly.
fn sample(seq: &mut Active) {
    if seq.prefilling() {
        return;
    }
    let Active { ticket, last_logits, spec, work, state, .. } = seq;
    let t0 = ticket.sampler.pick(last_logits, &mut ticket.rng);
    // tidy: allow(alloc) -- the stream reserves its generation limit at admission
    ticket.stream.push(t0);
    work.sampled = true;
    if ticket.generated() >= ticket.limit {
        return;
    }
    if let (Some(spec), 0) = (spec, work.prefilled) {
        let k_eff = spec.k.min(ticket.limit - ticket.generated());
        spec.proposals.clear();
        ngram_propose(&ticket.stream, k_eff, &mut spec.proposals);
        // An n-gram miss proposes nothing: plain decode for this step.
        if !spec.proposals.is_empty() {
            spec.verify.clear();
            // tidy: allow(alloc) -- within the `k + 1` capacity reserved in SpecState
            spec.verify.push(t0);
            spec.verify.extend_from_slice(&spec.proposals);
            work.verify_start = state.pos();
            work.verify_rows = spec.verify.len();
            work.drafted = spec.proposals.len();
            return;
        }
    }
    work.decode_context = Some(state.pos() + 1);
}

/// Phase 4 for one sequence whose feed was a verify `[t0, d1..dk]`:
/// accepts the longest proposal prefix the request's own sampler
/// reproduces and rolls the rejected tail back by truncating the
/// sequence's block tables.
///
/// Bit-identity with plain decode holds by construction:
///
/// * Verify-row logits are bit-identical to sequential decode rows
///   (`Model::forward_rows`' contract, pinned by the model's golden and
///   grouping tests): row `i` is exactly the `last_logits` a plain run
///   would hold after emitting `t0, d1..di`.
/// * Each acceptance test runs the *real* sampler on a clone of the
///   request RNG. A match commits the clone — the RNG advances exactly as
///   the plain run's pick would have — while a mismatch discards it, so
///   the next step's pick re-runs the same decision from the same state
///   and emits the token the plain run would have emitted: the correction
///   token costs no extra forward pass.
/// * Proposals can only shift *when* tokens are emitted, never *what*: a
///   wrong draft just wastes its verify row.
fn commit(seq: &mut Active) {
    let (Some(spec), true) = (seq.spec.as_deref_mut(), seq.work.verify_rows > 0) else { return };
    let ticket = &mut seq.ticket;
    // Row `i` holds the logits after `t0, d1..di`.
    let mut accepted = 0;
    while accepted < spec.proposals.len() {
        // tidy: allow(alloc) -- TensorRng is a fixed-size value; cloning stays on the stack
        let mut trial = ticket.rng.clone();
        let pick = ticket.sampler.pick(spec.logits.row(accepted), &mut trial);
        if pick != spec.proposals[accepted] {
            break;
        }
        ticket.rng = trial;
        // tidy: allow(alloc) -- the stream reserves its generation limit at admission
        ticket.stream.push(pick);
        accepted += 1;
    }
    seq.work.accepted = accepted;
    // The next step samples from the logits after the last committed
    // token — exactly row `accepted`.
    seq.last_logits.copy_from_slice(spec.logits.row(accepted));
    // Roll back the rejected tail: keep `t0` plus the accepted rows.
    seq.state.truncate(seq.work.verify_start + 1 + accepted);
}

/// Model-free draft: proposes the tokens that followed the most recent
/// earlier occurrence of the committed stream's current suffix, preferring
/// a bigram match over a unigram one. O(context) backward scan per step,
/// no allocation; an empty result falls back to plain decode.
fn ngram_propose(stream: &[u32], k_eff: usize, proposals: &mut Vec<u32>) {
    let n = stream.len();
    if n < 2 {
        return;
    }
    let (prev, last) = (stream[n - 2], stream[n - 1]);
    // A bigram ending at `i` needs `i >= 1`; a unigram hit may sit at 0.
    let earlier = &stream[..n - 1];
    let bigram = earlier.windows(2).rposition(|w| w[0] == prev && w[1] == last).map(|j| j + 1);
    let Some(hit) = bigram.or_else(|| earlier.iter().rposition(|&t| t == last)) else { return };
    proposals.extend_from_slice(&stream[hit + 1..n.min(hit + 1 + k_eff)]);
}

/// The batched serving engine.
///
/// Drives a borrowed [`Model`] for up to [`ServeConfig::max_batch`]
/// concurrent sequences. The model itself is immutable during decoding
/// (all mutable state lives in the per-request [`DecodeState`]s), which is
/// what makes mid-stream admission safe: admitting or retiring a sequence
/// cannot touch any other sequence's KV cache.
///
/// Decoding defaults to greedy (argmax), matching the single-sequence
/// `OpalPipeline::generate` loop token-for-token at batch size one; each
/// request may carry its own [`SamplingParams`] for temperature / top-k /
/// top-p serving. With [`ServeConfig::num_threads`] > 1 the decode step
/// fans out across the engine's persistent worker pool, one chunk of
/// sequences per worker; the pool is spawned lazily by the first step that
/// fans out and shut down (channels closed, threads joined) when the engine
/// drops — even with requests still queued or decoding.
pub struct ServeEngine<'m> {
    model: &'m Model,
    accelerator: Option<Accelerator>,
    config: ServeConfig,
    /// Lazily-spawned persistent decode workers. Declared before `active`:
    /// fields drop in declaration order, so the pool joins its threads
    /// (which may be finishing a chunk if the engine is dropped during an
    /// unwinding step) while the sequences they borrow are still alive.
    pool: Option<WorkerPool>,
    /// Forward-pass buffers of the stepping thread (each pool worker owns
    /// its own): sized by the largest step seen, shared by every sequence.
    workspace: Workspace,
    /// The engine-wide KV block pool: every sequence's block tables and the
    /// prefix cache allocate from it, bounded by [`ServeConfig::max_blocks`].
    kv_pool: Arc<BlockPool>,
    /// The exact-match prefix cache over full KV blocks.
    trie: PrefixTrie,
    pending: VecDeque<Ticket>,
    active: Vec<Active>,
    finished: Vec<Finished>,
    /// Realized per-sequence schedule of the most recent step (batch
    /// order, including sequences that retired at the end of that step).
    last_work: Vec<SeqStepWork>,
    next_id: u64,
    steps: u64,
    prefill_tokens: u64,
    shared_tokens: u64,
    generated_tokens: u64,
    preemptions: u64,
    peak_batch: usize,
    energy_j: f64,
    /// Rotates which `Prefilling` sequence gets first claim on each step's
    /// prefill positions (the round-robin fairness policy).
    prefill_cursor: usize,
    /// The batch as the planner sees it (rebuilt per plan, capacity kept).
    plans: Vec<SeqPlan>,
    /// Draft proposals verified (successful or not) and accepted, across
    /// the engine lifetime; the speculation win is `accepted / drafted`.
    drafted_total: u64,
    accepted_total: u64,
    started_at: Option<Instant>,
    /// Injected worker-panic faults waiting for the next non-idle step
    /// (victim ranks, reduced modulo the batch at firing time).
    armed_panics: Vec<usize>,
    /// Injected allocation-pressure blocks waiting for the next non-idle
    /// step.
    armed_pressure: usize,
    /// Injected latency-spike steps waiting for the next non-idle step.
    armed_spikes: u64,
    /// Free blocks hidden from this step's planner (consumed from
    /// `armed_pressure`; cleared when the step completes, or early when it
    /// would wedge a lone sequence).
    fault_pressure: usize,
    /// Whether the engine is currently in degraded mode.
    degraded_now: bool,
    /// Consecutive healthy steps while degraded (the exit hysteresis).
    healthy_streak: u64,
    /// Steps of recent preemptions, pruned to the degraded-mode window.
    recent_preempts: VecDeque<u64>,
    deadline_exceeded_total: u64,
    failed_total: u64,
    shed_total: u64,
    degraded_steps_total: u64,
    mode_transitions: u64,
    rejections: RejectionCounts,
}

impl<'m> ServeEngine<'m> {
    /// Creates an engine over `model` with the given scheduler limits and
    /// no energy accounting.
    pub fn new(model: &'m Model, config: ServeConfig) -> Self {
        assert!(config.max_batch > 0, "max_batch must be at least 1");
        assert!(config.max_tokens > 0, "max_tokens must be at least 1");
        assert!(config.num_threads > 0, "num_threads must be at least 1");
        assert!(config.prefill_chunk > 0, "prefill_chunk must be at least 1");
        assert!(config.max_queue > 0, "max_queue must be at least 1");
        assert!(config.block_size > 0, "block_size must be at least 1");
        assert!(config.max_blocks > 0, "max_blocks must be at least 1");
        if let Some(spec) = &config.spec {
            assert!(spec.k >= 1, "spec.k must be at least 1");
        }
        if let Some(degraded) = &config.degraded {
            assert!(degraded.batch_pct <= 100, "degraded.batch_pct must be at most 100");
            assert!(degraded.prefill_pct <= 100, "degraded.prefill_pct must be at most 100");
        }
        let kv_pool =
            Arc::new(model.kv_pool(config.block_size, config.max_blocks, config.kv_scheme));
        ServeEngine {
            model,
            accelerator: None,
            config,
            pool: None,
            workspace: Workspace::new(),
            kv_pool,
            trie: PrefixTrie::new(),
            pending: VecDeque::new(),
            active: Vec::new(),
            finished: Vec::new(),
            last_work: Vec::new(),
            next_id: 0,
            steps: 0,
            prefill_tokens: 0,
            shared_tokens: 0,
            generated_tokens: 0,
            preemptions: 0,
            peak_batch: 0,
            energy_j: 0.0,
            prefill_cursor: 0,
            plans: Vec::new(),
            drafted_total: 0,
            accepted_total: 0,
            started_at: None,
            armed_panics: Vec::new(),
            armed_pressure: 0,
            armed_spikes: 0,
            fault_pressure: 0,
            degraded_now: false,
            healthy_streak: 0,
            recent_preempts: VecDeque::new(),
            deadline_exceeded_total: 0,
            failed_total: 0,
            shed_total: 0,
            degraded_steps_total: 0,
            mode_transitions: 0,
            rejections: RejectionCounts::default(),
        }
    }

    /// Attaches an accelerator model; every step the engine runs is then
    /// charged the accelerator's energy for its [`step_workload`], in the
    /// accelerator's format with the KV pages' stored bits
    /// ([`ServeConfig::kv_scheme`]), leaking over that workload's modeled
    /// latency on [`Platform::reference`], accumulating into
    /// [`ServeReport::energy_j`].
    #[must_use]
    pub fn with_accelerator(mut self, accelerator: Accelerator) -> Self {
        self.accelerator = Some(accelerator);
        self
    }

    /// The scheduler limits.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The model being served.
    pub fn model(&self) -> &Model {
        self.model
    }

    /// Requests waiting for a batch slot.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Sequences currently in the batch (prefilling or decoding).
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Batch sequences still consuming their prompt (the `Prefilling`
    /// phase). Useful for benchmarks and operators separating admission
    /// latency from steady-state decode.
    pub fn prefilling_len(&self) -> usize {
        self.active.iter().filter(|s| s.prefilling()).count()
    }

    /// KV blocks currently allocated from the engine's pool (block tables
    /// of resident sequences plus the prefix cache; a block shared by many
    /// sequences counts once).
    pub fn kv_blocks_in_use(&self) -> usize {
        self.kv_pool.in_use()
    }

    /// High-water mark of [`ServeEngine::kv_blocks_in_use`].
    pub fn kv_blocks_peak(&self) -> usize {
        self.kv_pool.peak()
    }

    /// The configured pool bound ([`ServeConfig::max_blocks`]).
    pub fn kv_blocks_capacity(&self) -> usize {
        self.kv_pool.capacity()
    }

    /// The engine's KV block pool. Its `scheme()` is the resolved page
    /// format ([`ServeConfig::kv_scheme`] through `Model::kv_scheme`), what
    /// KV pricing and byte accounting read. Harnesses clone the `Arc` to
    /// check for leaked blocks after the engine itself has been dropped (a
    /// drained and dropped engine must leave `in_use() == 0`).
    pub fn kv_pool(&self) -> &Arc<BlockPool> {
        &self.kv_pool
    }

    /// Whether the engine is currently running in degraded mode (see
    /// [`ServeConfig::degraded`]).
    pub fn degraded(&self) -> bool {
        self.degraded_now
    }

    /// Arms a fault to fire at the next non-idle [`step`](Self::step):
    /// worker panics mark their victim after admission, pressure faults
    /// hide free blocks from that step's planner, latency spikes surface in
    /// [`StepSummary::latency_spike_steps`]. Multiple faults stack. Faults
    /// injected while the engine is idle stay armed until work arrives —
    /// injection is deterministic in engine steps, never in wall time.
    pub fn inject_fault(&mut self, fault: FaultKind) {
        match fault {
            FaultKind::WorkerPanic { victim_rank } => self.armed_panics.push(victim_rank),
            FaultKind::BlockPressure { blocks } => {
                self.armed_pressure = self.armed_pressure.saturating_add(blocks);
            }
            FaultKind::LatencySpike { extra_steps } => {
                self.armed_spikes = self.armed_spikes.saturating_add(extra_steps);
            }
        }
    }

    /// Full KV blocks resident in the prefix cache.
    pub fn prefix_cache_len(&self) -> usize {
        self.trie.len()
    }

    /// Scheduler steps executed so far (the clock that stamps
    /// [`RequestReport::admitted_step`](crate::RequestReport) and
    /// [`RequestReport::token_steps`](crate::RequestReport); idle calls to
    /// [`step`](Self::step) do not advance it).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The realized per-sequence schedule of the most recent non-idle
    /// [`step`](Self::step), in batch order — including sequences that
    /// retired at the end of that step.
    pub fn last_step_work(&self) -> &[SeqStepWork] {
        &self.last_work
    }

    /// [`step_workload`] of the most recent non-idle [`step`](Self::step)
    /// in `format`, on this engine's model.
    pub fn last_step_workload(&self, format: &DataFormat) -> TokenWorkload {
        step_workload(self.model.config(), format, &self.last_work)
    }

    /// Ids of every request still in flight: active sequences in batch
    /// order, then queued requests in queue order. Useful for harnesses
    /// injecting cancellation storms against live traffic.
    pub fn in_flight(&self) -> Vec<RequestId> {
        self.active.iter().map(|s| &s.ticket).chain(&self.pending).map(|t| t.id).collect()
    }

    /// Enqueues a request generating the configured default
    /// [`ServeConfig::max_tokens`] tokens.
    ///
    /// # Errors
    ///
    /// Rejects empty prompts and out-of-vocabulary tokens.
    pub fn submit(&mut self, prompt: &[u32]) -> Result<RequestId, ServeError> {
        self.submit_with_limit(prompt, self.config.max_tokens)
    }

    /// Enqueues a request generating at most `max_new_tokens` tokens
    /// (clamped to [`ServeConfig::max_tokens`]).
    ///
    /// The request joins the decode batch at the start of the next
    /// [`step`](Self::step) with a free slot — submission mid-stream is the
    /// normal case, not an edge case.
    ///
    /// # Errors
    ///
    /// Rejects empty prompts, out-of-vocabulary tokens, and a zero token
    /// limit.
    pub fn submit_with_limit(
        &mut self,
        prompt: &[u32],
        max_new_tokens: usize,
    ) -> Result<RequestId, ServeError> {
        self.submit_request(Request::new(prompt).with_limit(max_new_tokens))
    }

    /// Enqueues a full [`Request`] — prompt, token limit and per-request
    /// [`SamplingParams`]. Greedy sampling reproduces [`submit`](Self::submit)
    /// exactly; other samplers draw from a request-private seeded RNG, so
    /// output is independent of batch composition and thread count.
    ///
    /// # Errors
    ///
    /// Rejects submissions while the admission queue is at
    /// [`ServeConfig::max_queue`] (backpressure), empty prompts,
    /// out-of-vocabulary tokens, a zero token limit (which could never
    /// retire sanely: the first step would sample a token the limit says
    /// must not exist), and invalid sampling parameters (which would panic
    /// mid-step on a worker thread instead of failing at the API boundary).
    pub fn submit_request(&mut self, request: Request) -> Result<RequestId, ServeError> {
        let result = self.submit_request_inner(request);
        if let Err(e) = &result {
            match e {
                ServeError::QueueFull { .. } => self.rejections.queue_full += 1,
                ServeError::InsufficientBlocks { .. } => self.rejections.insufficient_blocks += 1,
                _ => self.rejections.invalid += 1,
            }
        }
        result
    }

    fn submit_request_inner(&mut self, request: Request) -> Result<RequestId, ServeError> {
        if request.prompt.is_empty() {
            return Err(ServeError::EmptyPrompt);
        }
        let limit = request.max_new_tokens.unwrap_or(self.config.max_tokens);
        if limit == 0 {
            return Err(ServeError::ZeroTokenLimit);
        }
        if let Err(reason) = request.sampling.sampler.validate() {
            return Err(ServeError::InvalidSampling { reason });
        }
        let vocab = self.model.config().vocab;
        if let Some(&bad) = request.prompt.iter().find(|&&t| t as usize >= vocab) {
            return Err(ServeError::TokenOutOfRange { token: bad, vocab });
        }
        let limit = limit.min(self.config.max_tokens);
        // Worst-case lifetime residency running alone: every cached
        // position (prompt plus all but the last generated token) plus one
        // copy-on-write block per layer of headroom. If even that exceeds
        // the pool, no amount of eviction or preemption could ever let this
        // request finish — reject it now rather than deadlock the scheduler
        // later. Speculation appends up to `k` transient verify rows past
        // the last committed position before rolling back; size the bound
        // for that peak so a lone speculative sequence can always progress.
        let spec_rows = self.config.spec.map_or(0, |s| s.k);
        let positions =
            request.prompt.len().saturating_add(limit).saturating_add(spec_rows).saturating_sub(1);
        let required = self.block_rule().span_blocks(0, positions, true);
        if required > self.config.max_blocks {
            return Err(ServeError::InsufficientBlocks {
                required,
                max_blocks: self.config.max_blocks,
            });
        }
        // Capacity last: a permanently-invalid request must surface its own
        // error, not a retryable `QueueFull` the client would wait out.
        if self.pending.len() >= self.config.max_queue {
            return Err(ServeError::QueueFull { max_queue: self.config.max_queue });
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.pending.push_back(Ticket {
            id,
            prompt_len: request.prompt.len(),
            stream: request.prompt,
            limit,
            sampler: request.sampling.sampler,
            rng: TensorRng::seed(request.sampling.seed),
            tenant: request.tenant,
            submitted_at: crate::clock::now(),
            submitted_step: self.steps,
            deadline: request.deadline_steps,
            bypassed: 0,
            admitted: None,
            token_steps: Vec::new(),
            ttft: None,
            preemptions: 0,
            shared: 0,
        });
        Ok(id)
    }

    /// Admits queued requests into the step's `slots` batch slots at the
    /// start of a [`step`](Self::step). Returns the number admitted.
    ///
    /// Admission is memory-aware and prefix-shared:
    ///
    /// * The prefix cache is probed with the request's tokens; matched full
    ///   blocks are adopted read-only (refcount bumps, no prefill) and the
    ///   sequence starts its `Prefilling` phase at the shared span, which
    ///   is capped at one position short of the prompt so the final
    ///   position's logits are always computed.
    /// * A request only enters the batch when the pool can cover its first
    ///   prefill chunk plus one decode round of headroom
    ///   ([`BlockRule::admission_need`]); otherwise unused prefix-cache
    ///   blocks are evicted, then a younger cache-warm request that fits may
    ///   go first ([`BlockRule::warm_fit`]), and if neither helps the queue
    ///   waits — admission never triggers preemption by itself.
    ///
    /// Admission stays O(prompt blocks) per request and never runs a
    /// forward pass: the prompt is consumed incrementally by later steps
    /// under the per-step [`ServeConfig::prefill_chunk`].
    fn admit(&mut self, slots: usize) -> usize {
        let rule = self.block_rule();
        let (nl, bs) = (rule.n_layers, rule.block_size);
        let mut admitted = 0;
        // Blocks promised to requests admitted earlier in this same pass.
        // Their prefills only allocate later in the step, so the raw free
        // count alone would let one pass admit an entire backlog the pool
        // cannot actually hold — and preemption would thrash it back out.
        let mut planned = 0usize;
        while self.active.len() < slots {
            let Some(t) = self.pending.front() else { break };
            // Probe the prefix cache with the whole stream: a resumed
            // request re-prefills its generated tokens too.
            let matched = if self.config.prefix_sharing {
                self.trie.lookup(&t.stream, bs)
            } else {
                Vec::new()
            };
            let chunk = self.config.prefill_chunk;
            let (shared_len, need) = rule.admission_need(matched.len(), t.stream.len(), chunk);
            let free = self.planning_free();
            if free < planned.saturating_add(need) {
                // With admissions already planned this pass, the pool is
                // merely spoken for, not under pressure: stop here and let
                // the next step re-evaluate against real allocations.
                if planned > 0 {
                    break;
                }
                if self.trie.evict_lru_leaf() > 0 {
                    continue; // re-probe: the eviction may have freed enough
                }
                // Trie-aware reordering: the front request doesn't fit and
                // nothing more can be evicted. A younger request whose
                // prompt prefix is already resident needs fewer fresh
                // blocks — admit it first rather than stalling the whole
                // queue behind a cache-cold head. Probing is read-only (no
                // LRU touches), and every jumped request counts the bypass.
                let behind = self.pending.iter().skip(1).map(|q| Queued {
                    bypassed: q.bypassed,
                    matched: self.trie.probe(&q.stream, bs),
                    len: q.stream.len(),
                });
                let sharing = self.config.prefix_sharing;
                let warm = sharing.then(|| rule.warm_fit(chunk, free, t.bypassed, behind));
                let Some(idx) = warm.flatten() else { break };
                for e in self.pending.iter_mut().take(idx) {
                    e.bypassed += 1;
                }
                if let Some(warm) = self.pending.remove(idx) {
                    self.pending.push_front(warm);
                }
                continue; // the loop re-enters and admits it
            }
            let Some(mut ticket) = self.pending.pop_front() else { break };
            let mut state = self.model.begin_decode_paged(&self.kv_pool);
            let shared_blocks = shared_len.div_ceil(bs);
            if shared_len > 0 {
                let prefix: Vec<Vec<Arc<KvBlock>>> = (0..nl)
                    .map(|l| {
                        matched[..shared_blocks]
                            .iter()
                            .map(|&node| self.trie.node_block(node, l))
                            .collect()
                    })
                    .collect();
                state.adopt_shared_prefix(prefix, shared_len);
                self.shared_tokens += shared_len as u64;
            }
            ticket.admitted = Some((self.steps, ticket.submitted_at.elapsed()));
            ticket.shared += shared_len;
            // Capacity is only a hint: effectively-unbounded limits
            // (long-running residents) must not reserve absurd buffers.
            let room = (ticket.limit - ticket.generated()).min(4096);
            ticket.stream.reserve_exact(room);
            ticket.token_steps.reserve_exact(room);
            // Fully-adopted blocks are already published; anchor the
            // registration watermark at the last of them.
            let full_adopted = shared_len / bs;
            self.active.push(Active {
                prefill_end: ticket.stream.len(),
                ticket,
                state,
                last_logits: vec![0.0; self.model.config().vocab],
                prefilled: shared_len,
                grant: 0,
                work: SeqStepWork::default(),
                registered_blocks: full_adopted,
                trie_parent: if full_adopted > 0 {
                    matched[full_adopted - 1]
                } else {
                    PrefixTrie::ROOT
                },
                failed: None,
                panic_next: false,
                spec: self.new_spec_state(),
            });
            admitted += 1;
            planned += need;
        }
        self.peak_batch = self.peak_batch.max(self.active.len());
        admitted
    }

    /// Builds the per-sequence speculation state for a newly-admitted (or
    /// re-admitted) sequence, or `None` when speculation is off.
    fn new_spec_state(&self) -> Option<Box<SpecState>> {
        let spec = self.config.spec?;
        let vocab = self.model.config().vocab;
        Some(Box::new(SpecState {
            k: spec.k,
            proposals: Vec::with_capacity(spec.k),
            verify: Vec::with_capacity(spec.k + 1),
            logits: Matrix::zeros(spec.k + 1, vocab),
        }))
    }

    /// Runs one scheduler step: admit what fits, hand out the step's
    /// [`ServeConfig::prefill_chunk`] positions round-robin over
    /// `Prefilling` sequences, then
    /// advance every active sequence (`advance_chunk`) — a granted
    /// prefill chunk for prefilling sequences, one sampled token (per the
    /// request's [`SamplingParams`], greedy by default) for decoding ones,
    /// all their rows sharing one pass over the weights per phase — and
    /// finally retire sequences that hit their limit. A step with nothing
    /// to do is a no-op.
    ///
    /// With [`ServeConfig::num_threads`] > 1 the active batch is split into
    /// contiguous chunks stepped by the engine's persistent worker pool
    /// (spawned lazily by the first step that fans out; [`StepMode::Auto`]
    /// keeps small steps on the caller's thread entirely), each thread
    /// fusing the rows of its own chunk. The model is shared immutably;
    /// every mutable structure is owned by exactly one sequence (KV cache,
    /// sampler RNG, logits) or one thread (the forward-pass workspace), the
    /// work each worker performs is fixed by scheduler state decided before
    /// the fan-out, and energy accounting and retirement run after the join
    /// in batch order — so results are deterministic and identical to
    /// `num_threads == 1` under every [`StepMode`].
    pub fn step(&mut self) -> StepSummary {
        let mut summary = StepSummary::default();
        // Consume armed faults first: pressure shapes this step's planning
        // and admission, panics mark their victims after admission.
        let pending_panics = std::mem::take(&mut self.armed_panics);
        self.fault_pressure = std::mem::take(&mut self.armed_pressure);
        let spike = std::mem::take(&mut self.armed_spikes);

        // Deadlines before admission: an expired queued request must not
        // consume the batch slot a live one is waiting for.
        self.expire_deadlines(&mut summary);
        self.update_degraded(&mut summary);
        let (slots, prefill_budget) = planner::step_limits(&self.config, self.degraded_now);
        summary.admitted = self.admit(slots);
        if self.active.is_empty() && !self.pending.is_empty() && self.fault_pressure > 0 {
            // An injected pressure fault must never wedge an empty engine
            // (the idle path would re-arm it forever). Admission evicted all
            // it could, so the ladder's next rung releases the pressure.
            self.reclaim(&mut summary);
            summary.admitted += self.admit(slots);
        }
        if self.active.is_empty() {
            // Nothing ran: re-arm the consumed faults for the next
            // non-idle step (fault firing is defined in engine steps).
            self.armed_panics = pending_panics;
            self.armed_pressure = self.fault_pressure;
            self.armed_spikes = spike;
            self.fault_pressure = 0;
            summary.blocks_in_use = self.kv_pool.in_use();
            summary.blocks_peak = self.kv_pool.peak();
            return summary;
        }
        summary.latency_spike_steps = spike;
        for rank in pending_panics {
            let victim = rank % self.active.len();
            self.active[victim].panic_next = true;
        }
        if self.started_at.is_none() {
            self.started_at = Some(crate::clock::now());
        }

        self.plan_step(prefill_budget, &mut summary);

        let model = self.model;
        let workers = self.plan_workers();
        if workers <= 1 {
            advance_chunk(model, &mut self.active, &mut self.workspace);
        } else {
            // Pool size is fixed at first fan-out: `ForcePool` may use
            // every configured thread, but `Auto` never plans beyond
            // the host's cores — don't park threads that can never
            // receive work (num_threads = 16 on a 4-core box would
            // otherwise idle 12 stacks for the engine's lifetime).
            let size = match self.config.step_mode {
                StepMode::Auto => self.config.num_threads.min(host_cores()) - 1,
                StepMode::ForcePool => self.config.num_threads - 1,
            };
            let pool = self.pool.get_or_insert_with(|| WorkerPool::new(size));
            // Never cut more chunks than pool + caller.
            let workers = workers.min(pool.len() + 1);
            let chunks = split_by_work(&mut self.active, workers).into_iter();
            pool.step_chunks(model, chunks, &mut self.workspace);
        }

        // Quarantine: retire every sequence whose step panicked *before*
        // any accounting or prefix publication — its KV writes may be
        // half-finished, so its work is not counted and its blocks must
        // never enter the prefix trie. Dropping the sequence returns every
        // block nobody else maps; all other sequences continue untouched.
        if self.active.iter().any(|s| s.failed.is_some()) {
            let failed_step = self.steps + 1;
            let mut failed = Vec::new();
            self.active.retain_mut(|seq| {
                if seq.failed.take().is_none() {
                    return true;
                }
                failed.push(seq.ticket.report(FinishReason::Failed, failed_step));
                false
            });
            summary.failed = failed.len();
            self.failed_total += failed.len() as u64;
            self.finished.append(&mut failed);
        }

        for seq in &self.active {
            summary.prefilled += seq.work.prefilled;
            summary.generated += usize::from(seq.work.sampled) + seq.work.accepted;
            summary.drafted += seq.work.drafted;
            summary.accepted += seq.work.accepted;
        }
        self.prefill_tokens += summary.prefilled as u64;
        self.generated_tokens += summary.generated as u64;
        self.drafted_total += summary.drafted as u64;
        self.accepted_total += summary.accepted as u64;
        self.steps += 1;

        // Stamp per-token timing and capture the realized schedule before
        // retirement removes finished sequences from the batch.
        let now_step = self.steps;
        self.last_work.clear();
        for seq in &mut self.active {
            let (w, t) = (seq.work, &mut seq.ticket);
            if w.sampled {
                // Accepted draft tokens commit in the same step as the
                // sampled token; each gets its own stamp so `token_steps`
                // stays parallel to the generated tokens.
                for _ in 0..1 + w.accepted {
                    t.token_steps.push(now_step);
                }
                if t.ttft.is_none() {
                    t.ttft = Some(t.submitted_at.elapsed());
                }
            }
            self.last_work.push(w);
        }
        // Post-join, from the batch-order records, so the f64 account is
        // independent of thread scheduling.
        if let Some(acc) = &self.accelerator {
            let mut format = acc.kind().format();
            format.kv_bits = self.kv_pool.scheme().bits_per_element(self.model.config().d_model);
            let wl = self.last_step_workload(&format);
            let latency_s = workload_latency(&wl, &format, &Platform::reference()).total_s();
            self.energy_j += acc.energy(&wl, latency_s).total_j();
        }

        // Publish freshly-completed full prompt blocks into the prefix
        // cache before retiring anything, so even a request that finishes
        // in its first decode step leaves its prefix behind for followers.
        self.register_prefixes();

        let steps = self.steps;
        let mut retired = Vec::new();
        self.active.retain_mut(|seq| {
            if seq.ticket.generated() < seq.ticket.limit {
                return true;
            }
            retired.push(seq.ticket.report(FinishReason::Limit, steps));
            false
        });
        summary.finished = retired.len();
        self.finished.append(&mut retired);
        summary.blocks_in_use = self.kv_pool.in_use();
        summary.blocks_peak = self.kv_pool.peak();
        // Injected pressure lasts exactly one planned step.
        self.fault_pressure = 0;
        // Debug builds cross-check the memory-accounting invariants after
        // every step; release builds leave this to the harness cadence.
        #[cfg(debug_assertions)]
        {
            let audit = self.audit();
            debug_assert!(audit.is_clean(), "KV audit violations: {:#?}", audit.violations);
        }
        summary
    }

    /// Expires every queued or in-batch request whose `deadline_steps` TTL
    /// has elapsed: it retires with `FinishReason::DeadlineExceeded` and
    /// its KV blocks (if any) are freed immediately. Runs at the start of
    /// each step, before admission.
    ///
    /// The TTL anchors at the submission step and survives preemption, so
    /// a request preempted and then expired while re-queued reports
    /// `DeadlineExceeded` — and frees nothing, because its blocks were
    /// already returned when the preemption dropped its `DecodeState`
    /// (blocks are freed exactly once on every path).
    fn expire_deadlines(&mut self, summary: &mut StepSummary) {
        let now = self.steps;
        let mut expired = Vec::new();
        let mut expire = |t: &mut Ticket| {
            let Some(deadline) = t.deadline else { return false };
            if now.saturating_sub(t.submitted_step) < deadline {
                return false;
            }
            expired.push(t.report(FinishReason::DeadlineExceeded, now));
            true
        };
        self.pending.retain_mut(|t| !expire(t));
        // An expired sequence drops here, releasing its blocks.
        self.active.retain_mut(|seq| !expire(&mut seq.ticket));
        summary.expired = expired.len();
        self.deadline_exceeded_total += expired.len() as u64;
        self.finished.append(&mut expired);
    }

    /// Pool pressure as a percentage of capacity, counting injected
    /// pressure faults as real allocations (a simulated shortfall must
    /// look like one to the degraded-mode policy too). Zero for an
    /// unbounded pool.
    fn pool_pressure_pct(&self) -> u32 {
        let capacity = self.kv_pool.capacity();
        if capacity == usize::MAX {
            return 0;
        }
        let used = self.kv_pool.in_use().saturating_add(self.fault_pressure).min(capacity);
        ((used as u128 * 100) / capacity as u128) as u32
    }

    /// Updates the degraded-mode state machine (see [`DegradedConfig`])
    /// and, while degraded, sheds youngest-queued load down to the
    /// configured bound. Runs before admission so a mode entered this step
    /// already shapes this step's batch.
    fn update_degraded(&mut self, summary: &mut StepSummary) {
        let Some(cfg) = self.config.degraded else { return };
        let now = self.steps;
        while self
            .recent_preempts
            .front()
            .is_some_and(|&s| now.saturating_sub(s) > cfg.preempt_window)
        {
            self.recent_preempts.pop_front();
        }
        let pressure = self.pool_pressure_pct();
        let preempts = self.recent_preempts.len();
        if !self.degraded_now {
            if pressure >= cfg.enter_pressure_pct || preempts >= cfg.preempt_threshold.max(1) {
                self.degraded_now = true;
                self.mode_transitions += 1;
                self.healthy_streak = 0;
            }
        } else {
            if pressure <= cfg.exit_pressure_pct && preempts == 0 {
                self.healthy_streak += 1;
            } else {
                self.healthy_streak = 0;
            }
            if self.healthy_streak >= cfg.cooldown_steps.max(1) {
                self.degraded_now = false;
                self.mode_transitions += 1;
            }
        }
        if self.degraded_now {
            self.degraded_steps_total += 1;
            let mut shed = Vec::new();
            while self.pending.len() > cfg.shed_queue {
                let Some(mut t) = self.pending.pop_back() else { break };
                shed.push(t.report(FinishReason::Shed, now));
            }
            summary.shed = shed.len();
            self.shed_total += shed.len() as u64;
            self.finished.append(&mut shed);
        }
        summary.degraded = self.degraded_now;
    }

    /// Free blocks the planner may spend this step: the pool's real free
    /// count minus any injected pressure fault.
    fn planning_free(&self) -> usize {
        self.kv_pool.free_blocks().saturating_sub(self.fault_pressure)
    }

    /// The geometry every block count of this engine depends on.
    fn block_rule(&self) -> BlockRule {
        BlockRule { block_size: self.config.block_size, n_layers: self.model.config().n_layers }
    }

    /// Plans this step's memory use: fixes every sequence's share of the
    /// step's `budget` of prefill positions so the forthcoming appends —
    /// decode rows, granted prefill rows, and any copy-on-write of a shared
    /// tail block — are guaranteed to fit the pool before any worker runs
    /// ([`planner::plan_grants`]). Until a plan fits, the engine
    /// [`reclaim`](Self::reclaim)s one rung and plans again. Every input is
    /// scheduler state (block counts, refcounts, the trie's LRU clock), so
    /// planning is deterministic.
    fn plan_step(&mut self, budget: usize, summary: &mut StepSummary) {
        let rule = self.block_rule();
        loop {
            self.plans.clear();
            self.plans.extend(self.active.iter().map(Active::plan));
            let free = self.planning_free();
            if let Some(cursor) =
                planner::plan_grants(rule, &mut self.plans, free, budget, self.prefill_cursor)
            {
                for (seq, plan) in self.active.iter_mut().zip(&self.plans) {
                    seq.grant = plan.grant;
                }
                self.prefill_cursor = cursor;
                return;
            }
            self.reclaim(summary);
        }
    }

    /// Frees memory for a plan that came up short, one rung per call:
    ///
    /// 1. **evict** the least-recently-used prefix-cache leaf nobody maps;
    /// 2. else **relieve**: with at most one sequence resident, drop the
    ///    step's injected pressure fault — the simulated shortfall yields
    ///    where a real allocator would have recovered;
    /// 3. else **preempt** the youngest sequence, the batch's tail: its
    ///    blocks go back to the pool and its ticket, stream and sampler RNG
    ///    included, to the *front* of the queue. Re-admitted, it re-prefills
    ///    the stream (bit-identical to having decoded it) and resumes
    ///    sampling where it left off: preemption changes timing, never
    ///    output. Reaching it with one sequence left panics: the submission
    ///    check ([`ServeError::InsufficientBlocks`]) lets a lone one advance.
    fn reclaim(&mut self, summary: &mut StepSummary) {
        if self.trie.evict_lru_leaf() > 0 {
            return;
        }
        if self.fault_pressure > 0 && self.active.len() <= 1 {
            self.fault_pressure = 0;
            return;
        }
        assert!(
            self.active.len() > 1,
            "KV pool cannot make progress with a single resident sequence; \
             ServeError::InsufficientBlocks should have rejected it at submission"
        );
        let Some(seq) = self.active.pop() else { return };
        self.preemptions += 1;
        summary.preempted += 1;
        self.recent_preempts.push_back(self.steps);
        let mut ticket = seq.ticket;
        ticket.preemptions += 1;
        ticket.admitted = None;
        ticket.bypassed = 0;
        self.pending.push_front(ticket);
        // `seq.state` drops here, releasing its blocks.
    }

    /// Publishes newly-completed full prompt blocks of every active
    /// sequence into the prefix cache, appending under the sequence's
    /// registration anchor ([`Active::trie_parent`]). Steady-state steps —
    /// no sequence crossed a full-block boundary — do no trie work at all,
    /// keeping the decode loop free of hashing and key allocation.
    ///
    /// The anchor is normally un-evictable while the sequence lives (its
    /// blocks are pinned by the sequence's own table, and interior nodes
    /// by their children), but a node inherited from a retired twin or
    /// diverged from by copy-on-write can die; ids are never reused, so a
    /// dead anchor is detected and the path re-published from the root
    /// with this sequence's own blocks — the self-healing slow path.
    fn register_prefixes(&mut self) {
        if !self.config.prefix_sharing {
            return;
        }
        let bs = self.config.block_size;
        let nl = self.model.config().n_layers;
        for seq in &mut self.active {
            let full = seq.prefilled / bs;
            if seq.registered_blocks >= full {
                continue;
            }
            if !self.trie.contains(seq.trie_parent) {
                seq.trie_parent = PrefixTrie::ROOT;
                seq.registered_blocks = 0;
            }
            while seq.registered_blocks < full {
                let b = seq.registered_blocks;
                let tokens = &seq.ticket.stream[b * bs..(b + 1) * bs];
                seq.trie_parent = self.trie.insert_or_touch(seq.trie_parent, tokens, || {
                    (0..nl).map(|l| seq.state.block(l, b)).collect()
                });
                seq.registered_blocks += 1;
            }
        }
    }

    /// Aborts a queued or running request, releasing its KV blocks
    /// immediately (minus any prefix-cache blocks other requests still
    /// map). The request appears in the final report with
    /// [`FinishReason::Cancelled`] and whatever tokens it had generated.
    /// Returns `false` when the id is unknown or the request already
    /// finished.
    pub fn cancel(&mut self, id: RequestId) -> bool {
        let now = self.steps;
        if let Some(i) = self.pending.iter().position(|t| t.id == id) {
            let Some(mut t) = self.pending.remove(i) else { return false };
            self.finished.push(t.report(FinishReason::Cancelled, now));
            return true;
        }
        if let Some(i) = self.active.iter().position(|s| s.ticket.id == id) {
            let mut seq = self.active.remove(i);
            self.finished.push(seq.ticket.report(FinishReason::Cancelled, now));
            return true; // `seq.state` dropped: its blocks are free again
        }
        false
    }

    /// How many threads (caller included) this step should use.
    ///
    /// [`StepMode::ForcePool`] caps only by batch size. [`StepMode::Auto`]
    /// additionally refuses to fan out beyond what can pay for itself:
    ///
    /// * **Cores.** More workers than hardware threads never increases
    ///   throughput — they time-slice one another and add context-switch
    ///   overhead on top (the `optimized-4t` < `optimized-1t` regression in
    ///   the PR-2 `BENCH_decode.json`, measured on a single-core host).
    /// * **Work.** Each worker's chunk must carry enough arithmetic to
    ///   amortize the dispatch (a channel send plus a thread wake-up, a few
    ///   µs): estimated as matvec MACs per token, a chunk below
    ///   [`FANOUT_MIN_MACS_PER_WORKER`] runs on the caller's thread
    ///   instead. The attention scan's seq-length term is deliberately
    ///   ignored — it only grows the true work, so the gate errs toward
    ///   serial.
    fn plan_workers(&self) -> usize {
        // Work this step ≈ one decode-equivalent pass per granted prefill
        // position, plus one per sequence that will sample (a prefill
        // position costs the same layer sweep as a decoded token).
        let units: u64 = self.active.iter().map(seq_units).sum();
        self.planned_threads(self.active.len(), units)
    }

    /// The threads (caller included) a step over `batch` sequences
    /// carrying `units` decode-equivalent forward passes (each granted
    /// prefill position counts as one) would use, after
    /// [`StepMode::Auto`]'s core and per-worker-work gates.
    fn planned_threads(&self, batch: usize, units: u64) -> usize {
        let cap = self.config.num_threads.min(batch);
        match self.config.step_mode {
            StepMode::ForcePool => cap,
            StepMode::Auto => {
                let cap = cap.min(host_cores());
                if cap <= 1 {
                    return 1;
                }
                let total_macs = approx_macs_per_token(self.model.config()).saturating_mul(units);
                cap.min((total_macs / FANOUT_MIN_MACS_PER_WORKER).max(1) as usize)
            }
        }
    }

    /// Whether any request is still queued or decoding.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.active.is_empty()
    }

    /// Runs the scheduler until every submitted request has finished, then
    /// reports throughput, per-request latency and aggregate energy.
    ///
    /// Wall time is measured from the first [`step`](Self::step) of the
    /// current serving period — manual steps taken before `run` count —
    /// and the clock resets once the engine drains.
    pub fn run(&mut self) -> ServeReport {
        let t0 = self.started_at.unwrap_or_else(crate::clock::now);
        while !self.is_idle() {
            self.step();
        }
        self.started_at = None;
        self.report(t0.elapsed())
    }

    /// Snapshot of the statistics so far (useful between manual
    /// [`step`](Self::step) calls; `elapsed` is the caller's measured wall
    /// time for throughput).
    pub fn report(&self, elapsed: std::time::Duration) -> ServeReport {
        let mut requests: Vec<RequestReport> = self.finished.iter().map(Finished::report).collect();
        requests.sort_by_key(|r| r.id);
        let total = self.prefill_tokens + self.generated_tokens;
        let secs = elapsed.as_secs_f64();
        ServeReport {
            steps: self.steps,
            prefill_tokens: self.prefill_tokens,
            shared_prefill_tokens: self.shared_tokens,
            generated_tokens: self.generated_tokens,
            drafted_tokens: self.drafted_total,
            accepted_tokens: self.accepted_total,
            peak_batch: self.peak_batch,
            blocks_peak: self.kv_pool.peak(),
            preemptions: self.preemptions,
            deadline_exceeded: self.deadline_exceeded_total,
            failed: self.failed_total,
            shed: self.shed_total,
            degraded_steps: self.degraded_steps_total,
            mode_transitions: self.mode_transitions,
            rejections: self.rejections,
            elapsed,
            tokens_per_sec: if secs > 0.0 { total as f64 / secs } else { 0.0 },
            generated_per_sec: if secs > 0.0 { self.generated_tokens as f64 / secs } else { 0.0 },
            energy_j: self.energy_j,
            requests,
        }
    }

    /// Cross-checks the engine's three views of KV memory against each
    /// other — the invariant auditor:
    ///
    /// 1. **Residency**: the set of distinct blocks reachable from active
    ///    block tables and the prefix trie has exactly
    ///    [`BlockPool::in_use`] members (nothing leaked, nothing freed
    ///    while still mapped).
    /// 2. **Refcounts**: every reachable block's `Arc::strong_count`
    ///    equals its table references plus its trie references (no hidden
    ///    holder, no dangling bookkeeping).
    /// 3. **Table shape**: each sequence maps exactly
    ///    `⌈pos / block_size⌉` blocks per layer.
    ///
    /// Read-only and refcount-neutral (block visits borrow, never clone),
    /// so the audit observes true counts and can run at any between-steps
    /// point: debug builds run it after every step, harnesses every N
    /// steps and after churn tests.
    pub fn audit(&self) -> AuditReport {
        struct Refs {
            table: usize,
            trie: usize,
            strong: usize,
        }
        let mut seen: std::collections::HashMap<*const KvBlock, Refs> =
            std::collections::HashMap::new();
        let mut violations = Vec::new();
        let bs = self.config.block_size;
        let nl = self.model.config().n_layers;
        for seq in &self.active {
            let mut per_layer = vec![0usize; nl];
            seq.state.with_blocks(|layer, block| {
                per_layer[layer] += 1;
                let entry = seen.entry(Arc::as_ptr(block)).or_insert(Refs {
                    table: 0,
                    trie: 0,
                    strong: Arc::strong_count(block),
                });
                entry.table += 1;
            });
            let expected = seq.state.pos().div_ceil(bs);
            for (layer, &mapped) in per_layer.iter().enumerate() {
                if mapped != expected {
                    violations.push(format!(
                        "{}: layer {layer} maps {mapped} blocks for {} positions \
                         (expected {expected} at block_size {bs})",
                        seq.ticket.id,
                        seq.state.pos()
                    ));
                }
            }
        }
        self.trie.for_each_block(|block| {
            let entry = seen.entry(Arc::as_ptr(block)).or_insert(Refs {
                table: 0,
                trie: 0,
                strong: Arc::strong_count(block),
            });
            entry.trie += 1;
        });
        let (mut table_refs, mut trie_refs) = (0, 0);
        for (ptr, refs) in &seen {
            table_refs += refs.table;
            trie_refs += refs.trie;
            if refs.strong != refs.table + refs.trie {
                violations.push(format!(
                    "block {ptr:?}: strong_count {} != {} table refs + {} trie refs",
                    refs.strong, refs.table, refs.trie
                ));
            }
        }
        let pool_in_use = self.kv_pool.in_use();
        if seen.len() != pool_in_use {
            violations.push(format!(
                "pool reports {pool_in_use} blocks in use but {} are reachable \
                 from tables and trie",
                seen.len()
            ));
        }
        AuditReport { pool_in_use, live_blocks: seen.len(), table_refs, trie_refs, violations }
    }
}

/// Result of [`ServeEngine::audit`]: the reconciliation of pool
/// accounting, block tables, and prefix-trie refcounts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditReport {
    /// Blocks the pool believes are allocated.
    pub pool_in_use: usize,
    /// Distinct blocks reachable from active tables and the trie.
    pub live_blocks: usize,
    /// Total block-table references across active sequences (a shared
    /// block counts once per mapping sequence).
    pub table_refs: usize,
    /// Total prefix-trie references (one per node per layer).
    pub trie_refs: usize,
    /// Human-readable descriptions of every violated invariant; empty for
    /// a consistent engine.
    pub violations: Vec<String>,
}

impl AuditReport {
    /// Whether every invariant held.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Debug for ServeEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ServeEngine(active={}, pending={}, finished={}, steps={})",
            self.active.len(),
            self.pending.len(),
            self.finished.len(),
            self.steps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opal_model::{ModelConfig, QuantScheme};

    fn model() -> Model {
        Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 11).expect("valid scheme")
    }

    #[test]
    fn rejects_bad_prompts() {
        let m = model();
        let mut e = ServeEngine::new(&m, ServeConfig::default());
        assert_eq!(e.submit(&[]), Err(ServeError::EmptyPrompt));
        let vocab = m.config().vocab;
        assert_eq!(
            e.submit(&[0, vocab as u32]),
            Err(ServeError::TokenOutOfRange { token: vocab as u32, vocab })
        );
    }

    #[test]
    fn batch_respects_max_batch() {
        let m = model();
        let mut e = ServeEngine::new(
            &m,
            ServeConfig { max_batch: 2, max_tokens: 3, ..ServeConfig::default() },
        );
        for _ in 0..5 {
            e.submit(&[1, 2]).unwrap();
        }
        e.step();
        assert_eq!(e.active_len(), 2);
        assert_eq!(e.pending_len(), 3);
        let report = e.run();
        assert_eq!(report.requests.len(), 5);
        assert!(report.peak_batch <= 2);
        for r in &report.requests {
            assert_eq!(r.tokens.len(), 3);
        }
    }

    #[test]
    fn per_request_limit_is_clamped() {
        let m = model();
        let mut e = ServeEngine::new(
            &m,
            ServeConfig { max_batch: 4, max_tokens: 5, ..ServeConfig::default() },
        );
        let a = e.submit_with_limit(&[1], 2).unwrap();
        let b = e.submit_with_limit(&[1], 99).unwrap();
        assert_eq!(e.submit_with_limit(&[1], 0), Err(ServeError::ZeroTokenLimit));
        let report = e.run();
        assert_eq!(report.request(a).unwrap().tokens.len(), 2);
        assert_eq!(report.request(b).unwrap().tokens.len(), 5);
    }

    #[test]
    fn planned_threads_respects_gates() {
        let m = model();
        let plan = |threads: usize, step_mode: StepMode, batch: usize| {
            let cfg = ServeConfig { num_threads: threads, step_mode, ..ServeConfig::default() };
            ServeEngine::new(&m, cfg).planned_threads(batch, batch as u64)
        };
        // The force mode caps only by batch size.
        assert_eq!(plan(4, StepMode::ForcePool, 16), 4);
        assert_eq!(plan(4, StepMode::ForcePool, 2), 2);
        assert_eq!(plan(4, StepMode::ForcePool, 1), 1);
        // Auto never exceeds cores or the force-mode cap, and the tiny test
        // model never carries enough per-token work to fan out at all.
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        for batch in [1usize, 4, 16] {
            let p = plan(4, StepMode::Auto, batch);
            assert!(p <= cores.min(4).min(batch));
            assert_eq!(p, 1, "tiny model steps must stay on the caller thread");
        }
        // A model the size of the bench proxy fans out wherever cores allow.
        let proxy =
            Model::new(ModelConfig::llama2_7b().proxy(128, 4, 192), QuantScheme::bf16(), 11)
                .expect("valid scheme");
        let cfg = ServeConfig { num_threads: 4, ..ServeConfig::default() };
        assert_eq!(ServeEngine::new(&proxy, cfg).planned_threads(16, 16), 4.min(cores));
    }

    #[test]
    fn panic_inside_a_fused_pass_quarantines_only_its_sequence() {
        // `tests/faults.rs` injects panics that fire before a sequence's
        // rows join a pass. This one comes from inside the pass: the
        // victim's cache is swapped for an equal one over a private pool
        // with no block left, so its next append — layer 0 of the decode
        // pass, after the sequence before it has opened a fresh block for
        // its own row — panics and the whole pass unwinds.
        let m = model();
        let prompts: [&[u32]; 3] = [&[1, 2, 3], &[6, 7, 8], &[9, 10, 11]];
        for (threads, step_mode) in [(1, StepMode::Auto), (2, StepMode::ForcePool)] {
            let run = |sabotage: bool| {
                let mut e = ServeEngine::new(
                    &m,
                    ServeConfig {
                        max_batch: 3,
                        max_tokens: 10,
                        prefill_chunk: usize::MAX,
                        block_size: 4,
                        prefix_sharing: false,
                        num_threads: threads,
                        step_mode,
                        ..ServeConfig::default()
                    },
                );
                let ids: Vec<RequestId> = prompts.iter().map(|p| e.submit(p).unwrap()).collect();
                // Step 1 prefills, samples and decodes: everyone stands at
                // position 4, a block boundary.
                e.step();
                if sabotage {
                    let victim = &mut e.active[1];
                    assert_eq!(victim.state.pos(), 4);
                    let full = Arc::new(BlockPool::new(4, m.config().d_model, m.config().n_layers));
                    let mut state = m.begin_decode_paged(&full);
                    m.prefill_chunk(&mut state, &victim.ticket.stream[..4]);
                    assert_eq!(full.free_blocks(), 0);
                    victim.state = state;
                }
                let failed = e.step().failed;
                (ids, e.run(), failed)
            };
            let (ids, clean, _) = run(false);
            let (_, chaos, failed) = run(true);
            assert_eq!(failed, 1, "{step_mode:?}: exactly the victim fails, in that step");
            assert_eq!(chaos.request(ids[1]).unwrap().finish, FinishReason::Failed);
            for id in [ids[0], ids[2]] {
                let (got, want) = (chaos.request(id).unwrap(), clean.request(id).unwrap());
                assert_eq!(got.finish, FinishReason::Limit);
                assert_eq!(got.tokens, want.tokens, "{step_mode:?}: survivor {id} diverged");
                assert_eq!(got.token_steps, want.token_steps, "{step_mode:?}: survivor {id}");
            }
        }
    }

    #[test]
    fn zero_token_limit_rejected_on_every_path() {
        // Regression guard: a zero `max_new_tokens` must not slip into the
        // queue through any submission path and bypass the `max_tokens > 0`
        // constructor invariant via the admission-time clamp.
        let m = model();
        let mut e = ServeEngine::new(&m, ServeConfig::default());
        assert_eq!(e.submit_with_limit(&[1, 2], 0), Err(ServeError::ZeroTokenLimit));
        assert_eq!(
            e.submit_request(Request::new(&[1, 2]).with_limit(0)),
            Err(ServeError::ZeroTokenLimit)
        );
        assert_eq!(
            e.submit_request(
                Request::new(&[1]).with_limit(0).with_sampling(SamplingParams::default())
            ),
            Err(ServeError::ZeroTokenLimit)
        );
        assert_eq!(e.pending_len(), 0, "rejected requests must not be queued");
    }

    #[test]
    fn invalid_sampling_rejected_at_submission() {
        // These parameters would panic inside `Sampler::pick` on a worker
        // thread mid-step; they must be caught at the API boundary instead.
        let m = model();
        let mut e = ServeEngine::new(&m, ServeConfig::default());
        for sampler in [
            Sampler::Temperature(0.0),
            Sampler::Temperature(-2.0),
            Sampler::Temperature(f32::NAN),
            Sampler::TopK(0),
            Sampler::TopP(0.0),
            Sampler::TopP(1.0001),
        ] {
            let req = Request::new(&[1, 2]).with_sampling(SamplingParams { sampler, seed: 1 });
            assert!(
                matches!(e.submit_request(req), Err(ServeError::InvalidSampling { .. })),
                "{sampler:?} must be rejected"
            );
        }
        assert_eq!(e.pending_len(), 0);
        // Valid parameters still pass, and the engine drains normally.
        let ok = SamplingParams { sampler: Sampler::TopK(4), seed: 5 };
        e.submit_request(Request::new(&[1, 2]).with_limit(2).with_sampling(ok)).unwrap();
        let report = e.run();
        assert_eq!(report.requests.len(), 1);
    }

    #[test]
    fn queue_full_rejected_at_submission() {
        // Regression guard for unbounded `pending` growth: the bound holds
        // on every submission path, and draining the queue frees capacity.
        let m = model();
        let mut e = ServeEngine::new(
            &m,
            ServeConfig { max_batch: 1, max_tokens: 1, max_queue: 2, ..ServeConfig::default() },
        );
        e.submit(&[1]).unwrap();
        e.submit(&[2]).unwrap();
        assert_eq!(e.submit(&[3]), Err(ServeError::QueueFull { max_queue: 2 }));
        assert_eq!(e.submit_with_limit(&[3], 1), Err(ServeError::QueueFull { max_queue: 2 }));
        assert_eq!(
            e.submit_request(Request::new(&[3])),
            Err(ServeError::QueueFull { max_queue: 2 })
        );
        assert_eq!(e.pending_len(), 2);
        // One step admits a request into the freed batch slot; capacity is
        // available again.
        e.step();
        assert!(e.pending_len() < 2);
        e.submit(&[3]).unwrap();
        let report = e.run();
        assert_eq!(report.requests.len(), 3);
    }

    #[test]
    fn chunked_prefill_consumes_prompts_incrementally() {
        let m = model();
        let mut e = ServeEngine::new(
            &m,
            ServeConfig { max_batch: 2, max_tokens: 2, prefill_chunk: 2, ..ServeConfig::default() },
        );
        e.submit(&[1, 2, 3, 4, 5]).unwrap();
        // Step 1: admission + first chunk. Nothing decodes yet.
        let s1 = e.step();
        assert_eq!((s1.admitted, s1.prefilled, s1.generated), (1, 2, 0));
        assert_eq!(e.prefilling_len(), 1);
        // Step 2: second chunk.
        let s2 = e.step();
        assert_eq!((s2.admitted, s2.prefilled, s2.generated), (0, 2, 0));
        // Step 3: final prompt position + the first sampled token, in the
        // same step (blocking admission parity).
        let s3 = e.step();
        assert_eq!((s3.prefilled, s3.generated), (1, 1));
        assert_eq!(e.prefilling_len(), 0);
        let s4 = e.step();
        assert_eq!((s4.prefilled, s4.generated, s4.finished), (0, 1, 1));
        let report = e.report(std::time::Duration::from_millis(1));
        assert_eq!(report.prefill_tokens, 5);
        assert_eq!(report.generated_tokens, 2);
    }

    #[test]
    fn chunked_admission_matches_blocking_tokens_and_steps() {
        // `prefill_chunk = usize::MAX` is the blocking scheduler: one step
        // consumes the whole prompt and samples the first token. Chunked
        // admission must produce the same tokens (logits are bit-identical)
        // while spreading the prompt over more steps.
        let m = model();
        let run = |chunk: usize| {
            let mut e = ServeEngine::new(
                &m,
                ServeConfig {
                    max_batch: 2,
                    max_tokens: 4,
                    prefill_chunk: chunk,
                    ..ServeConfig::default()
                },
            );
            let a = e.submit(&[1, 2, 3, 4, 5, 6, 7]).unwrap();
            let b = e.submit(&[9, 8]).unwrap();
            let report = e.run();
            (
                report.request(a).unwrap().tokens.clone(),
                report.request(b).unwrap().tokens.clone(),
                report.steps,
            )
        };
        let (a_blocking, b_blocking, steps_blocking) = run(usize::MAX);
        for chunk in [1usize, 3, 8] {
            let (a, b, steps) = run(chunk);
            assert_eq!(a, a_blocking, "chunk {chunk}");
            assert_eq!(b, b_blocking, "chunk {chunk}");
            if chunk < 8 {
                assert!(steps > steps_blocking, "chunk {chunk} must spread prompt work");
            }
        }
    }

    #[test]
    fn prefill_budget_grants_round_robin() {
        // Two equally long prompts sharing one budget finish their prefill
        // within one step of each other — neither starves.
        let m = model();
        let mut e = ServeEngine::new(
            &m,
            ServeConfig { max_batch: 2, max_tokens: 2, prefill_chunk: 4, ..ServeConfig::default() },
        );
        let long_a: Vec<u32> = (0..10u32).collect();
        let long_b: Vec<u32> = (10..20u32).collect();
        let a = e.submit(&long_a).unwrap();
        let b = e.submit(&long_b).unwrap();
        let report = e.run();
        let (ra, rb) = (report.request(a).unwrap(), report.request(b).unwrap());
        assert!(
            ra.finished_step.abs_diff(rb.finished_step) <= 1,
            "round-robin budget must not starve one prompt: {} vs {}",
            ra.finished_step,
            rb.finished_step
        );
        // And every step's prompt work stayed within the budget.
        assert!(report.steps >= (20 / 4) as u64);
    }

    #[test]
    fn prefill_round_robin_skips_decoding_neighbours() {
        // Two long prompts admitted into a batch dominated by decoding
        // residents: the budget cursor must alternate between the two
        // *prefilling* sequences, not between batch slots — rotating one
        // slot per step would let the lower-slot prompt reclaim the whole
        // budget on almost every step and starve the other.
        let m = model();
        let mut e = ServeEngine::new(
            &m,
            ServeConfig {
                max_batch: 8,
                max_tokens: 64,
                prefill_chunk: 4,
                ..ServeConfig::default()
            },
        );
        for i in 0..6u32 {
            e.submit_with_limit(&[i + 1, i + 2], 64).unwrap();
        }
        for _ in 0..3 {
            e.step();
        }
        let long_a: Vec<u32> = (0..24u32).collect();
        let long_b: Vec<u32> = (24..48u32).collect();
        let a = e.submit(&long_a).unwrap();
        let b = e.submit(&long_b).unwrap();
        let report = e.run();
        let (ra, rb) = (report.request(a).unwrap(), report.request(b).unwrap());
        // Fair share: each prompt needs 24/4 = 6 granted steps; alternating
        // grants finish them within one step of each other. Slot-based
        // rotation would push B's finish ~6 steps past A's.
        assert!(
            ra.finished_step.abs_diff(rb.finished_step) <= 1,
            "budget rotation starved a prompt behind decoding neighbours: {} vs {}",
            ra.finished_step,
            rb.finished_step
        );
    }

    #[test]
    fn invalid_request_reported_over_queue_full() {
        // A permanently-invalid request must surface its own error even
        // when the queue is full — `QueueFull` is a retryable signal.
        let m = model();
        let mut e = ServeEngine::new(
            &m,
            ServeConfig { max_batch: 1, max_tokens: 1, max_queue: 1, ..ServeConfig::default() },
        );
        e.submit(&[1]).unwrap();
        assert_eq!(e.submit(&[2]), Err(ServeError::QueueFull { max_queue: 1 }));
        assert_eq!(e.submit(&[]), Err(ServeError::EmptyPrompt));
        assert_eq!(e.submit_with_limit(&[1], 0), Err(ServeError::ZeroTokenLimit));
    }

    #[test]
    fn balanced_cuts_weight_chunks_by_work() {
        // Uniform work: same boundaries as equal-count chunking.
        assert_eq!(balanced_cuts(&[1; 16], 4), vec![4, 8, 12]);
        // One heavy sequence (a big prefill grant) gets its own chunk
        // instead of dragging three decoders along as the straggler.
        assert_eq!(balanced_cuts(&[8, 1, 1, 1], 2), vec![1]);
        assert_eq!(balanced_cuts(&[1, 1, 1, 8], 2), vec![3]);
        // Every group keeps at least one element, even with zero work.
        assert_eq!(balanced_cuts(&[0, 0, 0], 3), vec![1, 2]);
        assert_eq!(balanced_cuts(&[5, 5], 4), vec![1]);
        assert_eq!(balanced_cuts(&[3], 1), Vec::<usize>::new());
    }

    #[test]
    fn queue_wait_is_recorded_per_request() {
        let m = model();
        let mut e = ServeEngine::new(
            &m,
            ServeConfig { max_batch: 1, max_tokens: 4, ..ServeConfig::default() },
        );
        let first = e.submit(&[1, 2]).unwrap();
        let second = e.submit(&[3, 4]).unwrap();
        let report = e.run();
        let (r1, r2) = (report.request(first).unwrap(), report.request(second).unwrap());
        // The second request sat in the queue while the first decoded.
        assert!(r2.queue_wait >= r1.queue_wait);
        assert!(r1.latency >= r1.queue_wait);
        assert!(r2.latency >= r2.queue_wait);
        assert!(report.mean_queue_wait() <= report.mean_latency());
    }

    #[test]
    fn idle_step_is_a_noop() {
        let m = model();
        let mut e = ServeEngine::new(&m, ServeConfig::default());
        assert_eq!(e.step(), StepSummary::default());
        let report = e.report(std::time::Duration::from_millis(1));
        assert_eq!(report.steps, 0);
    }

    #[test]
    fn energy_accumulates_when_accelerator_attached() {
        use opal_hw::accelerator::{Accelerator, AcceleratorKind};
        let m = model();
        let mut e = ServeEngine::new(
            &m,
            ServeConfig { max_batch: 2, max_tokens: 2, ..ServeConfig::default() },
        )
        .with_accelerator(Accelerator::new(AcceleratorKind::OpalW4A47));
        e.submit(&[1, 2, 3]).unwrap();
        let report = e.run();
        assert!(report.energy_j > 0.0);
    }

    #[test]
    fn step_summary_reports_kv_residency() {
        let m = model(); // tiny: 2 layers
        let mut e = ServeEngine::new(
            &m,
            ServeConfig { max_batch: 2, max_tokens: 3, block_size: 2, ..ServeConfig::default() },
        );
        e.submit(&[1, 2, 3]).unwrap();
        // Step 1 prefills the 3-token prompt and decodes the first token:
        // 4 positions -> 2 blocks per layer x 2 layers.
        let s = e.step();
        assert_eq!(s.blocks_in_use, 4);
        assert_eq!(s.blocks_peak, 4);
        assert_eq!(s.preempted, 0);
        let report = e.run();
        assert!(report.blocks_peak >= 4);
        assert_eq!(report.preemptions, 0);
        // The drained engine keeps only the prefix cache (one full block
        // of the 3-token prompt per layer at block_size 2).
        assert_eq!(e.kv_blocks_in_use(), 2);
        assert_eq!(e.prefix_cache_len(), 1);
    }

    #[test]
    fn cancel_unknown_or_finished_is_refused() {
        let m = model();
        let mut e = ServeEngine::new(
            &m,
            ServeConfig { max_batch: 1, max_tokens: 1, ..ServeConfig::default() },
        );
        assert!(!e.cancel(RequestId(99)));
        let id = e.submit(&[1]).unwrap();
        let report = e.run();
        assert_eq!(report.request(id).unwrap().finish, crate::FinishReason::Limit);
        assert!(!e.cancel(id), "finished requests cannot be cancelled");
    }

    #[test]
    fn ngram_drafts_over_the_committed_stream_after_a_resume() {
        // A resumed sequence re-prefills prompt ++ generated. Its drafts
        // must read that stream once: reading the generated tokens twice
        // (prompt ++ T ++ T ++ new) finds the junction bigram of the two
        // copies of T, which the committed stream never held.
        let m = model();
        let k = 3;
        let mut e = ServeEngine::new(
            &m,
            ServeConfig {
                max_batch: 2,
                max_tokens: 32,
                block_size: 4,
                spec: Some(SpecConfig { draft: DraftSource::NGram, k }),
                ..ServeConfig::default()
            },
        );
        e.submit(&[15, 1, 1, 9, 3, 8]).unwrap();
        let victim = e.submit(&[4, 11, 6, 3, 3, 0]).unwrap();
        e.step();
        e.step();
        // Nothing is evictable (both tables map their cached prompt
        // blocks) and no pressure is injected: the ladder preempts.
        e.reclaim(&mut StepSummary::default());
        assert_eq!(e.in_flight()[1], victim, "the youngest went back to the queue");
        let (mut checked, mut drafted) = (0, 0);
        while !e.is_idle() {
            let decoding = |e: &ServeEngine| {
                e.active.iter().find(|s| s.ticket.id == victim && !s.prefilling()).map(|s| {
                    assert_eq!(s.ticket.preemptions, 1);
                    s.ticket.stream.clone()
                })
            };
            let before = decoding(&e);
            e.step();
            let (Some(mut stream), Some(seq)) =
                (before, e.active.iter().find(|s| s.ticket.id == victim))
            else {
                continue;
            };
            // The draft ran on the stream plus this step's sampled token.
            stream.push(seq.ticket.stream[stream.len()]);
            let k_eff = k.min(seq.ticket.limit - (stream.len() - seq.ticket.prompt_len));
            let mut want = Vec::new();
            ngram_propose(&stream, k_eff, &mut want);
            let spec = seq.spec.as_deref().expect("speculation is on");
            assert_eq!(spec.proposals, want, "draft after {} tokens", stream.len());
            checked += 1;
            drafted += usize::from(!want.is_empty());
        }
        assert!(checked >= 10 && drafted >= 5, "{checked} steps checked, {drafted} drafted");
    }

    #[test]
    fn span_blocks_matches_the_pool() {
        // The planner's block rule against what appends really take: a
        // table holding `pos` positions appends `rows`, either alone or
        // with its tail adopted from a donor (the append then copies it).
        // Two layers as narrow as they come: block counts depend only on
        // positions and layers, and the grid runs ~50k appended rows.
        let narrow =
            ModelConfig { d_model: 8, n_heads: 1, d_ff: 16, vocab: 16, ..ModelConfig::tiny() };
        let m = Model::new(narrow, QuantScheme::bf16(), 11).expect("valid scheme");
        let nl = m.config().n_layers;
        for bs in [1usize, 3, 16] {
            let e = ServeEngine::new(&m, ServeConfig { block_size: bs, ..ServeConfig::default() });
            let (pool, rule) = (e.kv_pool(), e.block_rule());
            let tokens: Vec<u32> = (0..5 * bs as u32).map(|t| (t * 7) % 16).collect();
            for pos in 0..3 * bs {
                let mut donor = m.begin_decode_paged(pool);
                if pos > 0 {
                    m.prefill_chunk(&mut donor, &tokens[..pos]);
                }
                for shared in [false, true] {
                    for rows in 1..=2 * bs {
                        let mut adopter;
                        let seq = if shared && pos > 0 {
                            adopter = m.begin_decode_paged(pool);
                            let prefix = (0..nl)
                                .map(|l| (0..pos.div_ceil(bs)).map(|b| donor.block(l, b)).collect())
                                .collect();
                            adopter.adopt_shared_prefix(prefix, pos);
                            &mut adopter
                        } else {
                            &mut donor
                        };
                        let cow = !pos.is_multiple_of(bs) && seq.tail_block_shared();
                        assert_eq!(cow, shared && !pos.is_multiple_of(bs));
                        let before = pool.in_use();
                        m.prefill_chunk(seq, &tokens[pos..pos + rows]);
                        assert_eq!(
                            pool.in_use() - before,
                            rule.span_blocks(pos, rows, cow),
                            "block_size {bs}, pos {pos}, rows {rows}, shared {shared}"
                        );
                        seq.truncate(pos);
                    }
                }
            }
        }
    }

    #[test]
    fn step_summary_counts() {
        let m = model();
        let mut e = ServeEngine::new(
            &m,
            ServeConfig { max_batch: 3, max_tokens: 1, ..ServeConfig::default() },
        );
        e.submit(&[1]).unwrap();
        e.submit(&[2]).unwrap();
        let s = e.step();
        assert_eq!(s.admitted, 2);
        assert_eq!(s.generated, 2);
        assert_eq!(s.finished, 2);
        assert!(e.is_idle());
    }
}
