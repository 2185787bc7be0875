//! A request as submitted ([`Request`]), answered ([`RequestId`],
//! [`ServeError`]) and carried to retirement (`Ticket`).

use std::time::{Duration, Instant};

use opal_model::sampling::Sampler;
use opal_tensor::rng::TensorRng;

use crate::report::{FinishReason, Finished, RequestReport};

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
    pub(crate) prompt: Vec<u32>,
    pub(crate) max_new_tokens: Option<usize>,
    pub(crate) sampling: SamplingParams,
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
    /// [`ServeConfig::max_tokens`](crate::ServeConfig::max_tokens) on submission).
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
}

/// Opaque handle identifying a submitted request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub(crate) u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
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
    /// The admission queue already holds [`ServeConfig::max_queue`](crate::ServeConfig::max_queue)
    /// requests. Backpressure for callers: retry after draining some steps
    /// instead of letting `pending` grow without bound.
    QueueFull {
        /// The configured queue bound that was hit.
        max_queue: usize,
    },
    /// The request could never fit the KV block pool even running alone
    /// with the prefix cache fully evicted: its worst-case lifetime
    /// residency (prompt plus token limit, plus one copy-on-write block
    /// per layer of headroom) exceeds [`ServeConfig::max_blocks`](crate::ServeConfig::max_blocks).
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

/// One request from submission to retirement. The ticket waits in the
/// queue, rides in the batch inside an `Active`, and goes back to the
/// front of the queue on preemption carrying everything needed to resume
/// bit-identically: its stream, its sampler's RNG mid-stream and its
/// timing history.
pub(crate) struct Ticket {
    pub(crate) id: RequestId,
    /// The committed stream: the prompt, then every generated token. A
    /// resumed request re-prefills all of it (bit-identical to having
    /// decoded it, per the golden prefill-equivalence tests), and the
    /// n-gram draft looks up its proposals in it.
    pub(crate) stream: Vec<u32>,
    /// Prompt length: `stream[..prompt_len]` is the prompt.
    pub(crate) prompt_len: usize,
    pub(crate) limit: usize,
    pub(crate) sampler: Sampler,
    /// The request-private sampler RNG.
    pub(crate) rng: TensorRng,
    pub(crate) tenant: Option<String>,
    pub(crate) submitted_at: Instant,
    /// Scheduler step at which the deadline TTL runs out, if the request
    /// set one: anchored at submission, so time re-queued after a
    /// preemption keeps counting.
    pub(crate) expires: Option<u64>,
    /// Times a younger cache-warm request was admitted past this one under
    /// block pressure (see [`crate::REORDER_STARVATION_BOUND`]); reset when a
    /// preemption re-queues it.
    pub(crate) bypassed: u32,
    /// Step and queue wait of the latest admission; `None` while queued.
    pub(crate) admitted: Option<(u64, Duration)>,
    /// Scheduler step at which each generated token was sampled, parallel
    /// to `stream[prompt_len..]` (re-prefilled tokens keep their steps).
    pub(crate) token_steps: Vec<u64>,
    /// Wall time from submission to the first sampled token.
    pub(crate) ttft: Option<Duration>,
    /// Times this request has been preempted so far.
    pub(crate) preemptions: u32,
    /// Prefill positions skipped via prefix sharing (cumulative across
    /// re-admissions).
    pub(crate) shared: usize,
}

impl Ticket {
    /// A freshly submitted request, queued at scheduler step `step` to
    /// generate up to `limit` tokens.
    pub(crate) fn new(id: RequestId, request: Request, limit: usize, step: u64) -> Self {
        Ticket {
            id,
            prompt_len: request.prompt.len(),
            stream: request.prompt,
            limit,
            sampler: request.sampling.sampler,
            rng: TensorRng::seed(request.sampling.seed),
            tenant: request.tenant,
            submitted_at: crate::clock::now(),
            expires: request.deadline_steps.map(|ttl| step.saturating_add(ttl)),
            bypassed: 0,
            admitted: None,
            token_steps: Vec::new(),
            ttft: None,
            preemptions: 0,
            shared: 0,
        }
    }

    /// Tokens generated so far.
    pub(crate) fn generated(&self) -> usize {
        self.stream.len() - self.prompt_len
    }

    /// The final report of a request retiring at step `now`, from the
    /// batch or from the queue (then its latest admission is `now`, and it
    /// waited all its life). Takes the tokens with it: the caller drops
    /// the ticket next.
    pub(crate) fn report(&mut self, finish: FinishReason, now: u64) -> Finished {
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
