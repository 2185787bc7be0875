//! The engine's limits ([`ServeConfig`]) and the policies they select.

use opal_model::kv::KvScheme;

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
    /// override via
    /// [`ServeEngine::submit_with_limit`](crate::ServeEngine::submit_with_limit)
    /// is clamped to this).
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
    /// [`ServeEngine::submit`](crate::ServeEngine::submit) beyond this is rejected with
    /// [`ServeError::QueueFull`](crate::ServeError::QueueFull) instead of growing `pending` without
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
    /// on a W4A4/7 model, `block_size × d_model × 2` bfloat16 values
    /// ([`KvScheme::Bf16`]) on a bf16 one).
    /// When the pool runs dry the scheduler evicts
    /// unused prefix-cache blocks, shrinks prefill grants, and finally
    /// preempts the youngest sequence (its blocks are freed and it
    /// re-queues to re-prefill later) instead of erroring. Default
    /// `usize::MAX` (unbounded).
    pub max_blocks: usize,
    /// Storage format of the KV-cache pages (see [`KvScheme`]), resolved
    /// against the model when the engine builds its pool
    /// (`Model::kv_scheme`; [`ServeEngine::kv_pool`](crate::ServeEngine::kv_pool)'s
    /// `scheme()` is the result). The default [`KvScheme::Exact`] keeps decode bit-identical
    /// to the unpaged cache, in the K/V site's own format: on an MX-OPAL or
    /// MXINT model that is the site's codes (~3.5× smaller than `f32`
    /// rows), on bf16 and W4A16/W3A16 models bf16 pages
    /// ([`KvScheme::Bf16`], half an `f32` row), on MinMax models `f32`
    /// rows. [`KvScheme::mxopal`]
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

impl ServeConfig {
    /// Asserts what every engine relies on: each limit at least 1, the
    /// degraded percentages at most 100.
    pub(crate) fn validate(&self) {
        assert!(self.max_batch > 0, "max_batch must be at least 1");
        assert!(self.max_tokens > 0, "max_tokens must be at least 1");
        assert!(self.num_threads > 0, "num_threads must be at least 1");
        assert!(self.prefill_chunk > 0, "prefill_chunk must be at least 1");
        assert!(self.max_queue > 0, "max_queue must be at least 1");
        assert!(self.block_size > 0, "block_size must be at least 1");
        assert!(self.max_blocks > 0, "max_blocks must be at least 1");
        if let Some(spec) = &self.spec {
            assert!(spec.k >= 1, "spec.k must be at least 1");
        }
        if let Some(degraded) = &self.degraded {
            assert!(degraded.batch_pct <= 100, "degraded.batch_pct must be at most 100");
            assert!(degraded.prefill_pct <= 100, "degraded.prefill_pct must be at most 100");
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
