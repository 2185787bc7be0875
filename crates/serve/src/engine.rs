//! The batch scheduler: continuous admission over a paged, prefix-shared
//! KV cache with memory-aware preemption.
//!
//! A step plans first (deadlines, degraded mode, admission, the block
//! budget and prefill grants: `plan_step`, whose arithmetic is the pure
//! functions of [`crate::planner`]), then runs the model side through
//! `Threads::advance` — every sequence's rows of the step fused into one
//! prefill pass and one decode pass of `Model::forward_rows`, so the weight
//! stack streams once per pass, not once per sequence — and accounts,
//! publishes prefixes and retires afterwards, in batch order.

use std::collections::VecDeque;
use std::mem;
use std::sync::Arc;
use std::time::{Duration, Instant};

use opal_hw::accelerator::Accelerator;
use opal_hw::performance::{workload_latency, Platform};
use opal_model::kv::{BlockPool, KvBlock};
use opal_model::Model;

use crate::audit::{self, AuditReport};
use crate::config::ServeConfig;
use crate::degraded::{self, Degraded};
use crate::faults::{ArmedFaults, FaultKind};
use crate::planner::{self, BlockRule, Queued, SeqPlan};
use crate::report::{FinishReason, Finished, RejectionCounts, RequestReport, ServeReport};
use crate::request::{Request, RequestId, ServeError, Ticket};
use crate::sequence::{step_workload, Active, SeqStepWork};
use crate::threads::Threads;
use crate::trie::PrefixTrie;

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

/// The batched serving engine.
///
/// Drives a borrowed [`Model`] for up to [`ServeConfig::max_batch`]
/// concurrent sequences. The model itself is immutable during decoding
/// (all mutable state lives in the per-request [`DecodeState`](opal_model::DecodeState)s), which is
/// what makes mid-stream admission safe: admitting or retiring a sequence
/// cannot touch any other sequence's KV cache.
///
/// Decoding defaults to greedy (argmax), matching the single-sequence
/// `OpalPipeline::generate` loop token-for-token at batch size one; each
/// request may carry its own [`SamplingParams`](crate::SamplingParams) for temperature / top-k /
/// top-p serving. With [`ServeConfig::num_threads`] > 1 the decode step
/// fans out across the engine's persistent worker pool, one chunk of
/// sequences per worker; the pool is spawned lazily by the first step that
/// fans out and shut down (channels closed, threads joined) when the engine
/// drops — even with requests still queued or decoding.
pub struct ServeEngine<'m> {
    model: &'m Model,
    accelerator: Option<Accelerator>,
    config: ServeConfig,
    /// The threads that step the batch. Declared before `active`: fields
    /// drop in declaration order, so the pool joins its threads (which may
    /// be finishing a chunk if the engine is dropped during an unwinding
    /// step) while the sequences they borrow are still alive.
    threads: Threads,
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
    faults: ArmedFaults,
    degraded: Degraded,
    rejections: RejectionCounts,
}

impl<'m> ServeEngine<'m> {
    /// Creates an engine over `model` with the given scheduler limits and
    /// no energy accounting.
    pub fn new(model: &'m Model, config: ServeConfig) -> Self {
        config.validate();
        let kv_pool =
            Arc::new(model.kv_pool(config.block_size, config.max_blocks, config.kv_scheme));
        ServeEngine {
            model,
            accelerator: None,
            config,
            threads: Threads::default(),
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
            faults: ArmedFaults::default(),
            degraded: Degraded::default(),
            rejections: RejectionCounts::default(),
        }
    }

    /// Attaches an accelerator model; every step the engine runs is then
    /// charged the accelerator's energy for its [`step_workload`], in the
    /// accelerator's format with the bits of the pages the pool stores
    /// (`kv_pool().scheme()`, the resolved format: ~9.2 bits on an OPAL
    /// model's site pages, 16 on a bf16 or W4A16 model's bf16 pages, 32 on
    /// `f32` pages), leaking over that workload's modeled latency on
    /// [`Platform::reference`], accumulating into [`ServeReport::energy_j`].
    #[must_use]
    pub fn with_accelerator(mut self, accelerator: Accelerator) -> Self {
        self.accelerator = Some(accelerator);
        self
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

    /// The engine's KV block pool, which every resident block table and the
    /// prefix cache allocate from: `in_use()` counts a block shared by many
    /// sequences once, `capacity()` is [`ServeConfig::max_blocks`]. Its
    /// `scheme()` is the resolved page format ([`ServeConfig::kv_scheme`]
    /// through `Model::kv_scheme`), what KV pricing and byte accounting
    /// read. Harnesses clone the `Arc` to check for leaked blocks after the
    /// engine itself has been dropped (a drained and dropped engine must
    /// leave `in_use() == 0`).
    pub fn kv_pool(&self) -> &Arc<BlockPool> {
        &self.kv_pool
    }

    /// Whether the engine is currently running in degraded mode (see
    /// [`ServeConfig::degraded`]).
    pub fn degraded(&self) -> bool {
        self.degraded.on
    }

    /// Arms a fault to fire at the next non-idle [`step`](Self::step):
    /// worker panics mark their victim after admission, pressure faults
    /// hide free blocks from that step's planner, latency spikes surface in
    /// [`StepSummary::latency_spike_steps`]. Multiple faults stack. Faults
    /// injected while the engine is idle stay armed until work arrives —
    /// injection is deterministic in engine steps, never in wall time.
    pub fn inject_fault(&mut self, fault: FaultKind) {
        self.faults.arm(fault);
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
    /// [`SamplingParams`](crate::SamplingParams). Greedy sampling reproduces [`submit`](Self::submit)
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
        self.submit_request_inner(request).inspect_err(|e| match e {
            ServeError::QueueFull { .. } => self.rejections.queue_full += 1,
            ServeError::InsufficientBlocks { .. } => self.rejections.insufficient_blocks += 1,
            _ => self.rejections.invalid += 1,
        })
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
        self.pending.push_back(Ticket::new(id, request, limit, self.steps));
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
            let full = shared_len / bs;
            let anchor = if full > 0 { matched[full - 1] } else { PrefixTrie::ROOT };
            let (spec_k, vocab) = (self.config.spec.map(|s| s.k), self.model.config().vocab);
            self.active.push(Active::new(ticket, state, shared_len, (full, anchor), spec_k, vocab));
            admitted += 1;
            planned += need;
        }
        self.peak_batch = self.peak_batch.max(self.active.len());
        admitted
    }

    /// Runs one scheduler step: admit what fits, hand out the step's
    /// [`ServeConfig::prefill_chunk`] positions round-robin over
    /// `Prefilling` sequences, then advance every active sequence — a
    /// granted prefill chunk for prefilling sequences, one sampled token
    /// (per the request's [`SamplingParams`](crate::SamplingParams), greedy
    /// by default) for decoding ones, all their rows sharing one pass over
    /// the weights per phase — and finally retire sequences that hit their
    /// limit. A step with nothing to do is a no-op.
    ///
    /// With [`ServeConfig::num_threads`] > 1 the active batch is split into
    /// contiguous chunks stepped by the engine's persistent worker pool
    /// (see [`StepMode`](crate::StepMode)), each thread fusing the rows of
    /// its own chunk. The model is shared immutably; every mutable
    /// structure is owned by exactly one sequence (KV cache, sampler RNG,
    /// logits) or one thread (the forward-pass workspace), the work each
    /// worker performs is fixed by scheduler state decided before the
    /// fan-out, and energy accounting and retirement run after the join in
    /// batch order — so results are identical for every thread count.
    pub fn step(&mut self) -> StepSummary {
        let mut summary = StepSummary::default();
        // Take the armed panics and spikes; armed pressure stays in place,
        // where it shapes this step's planning and admission.
        let (panics, spikes) =
            (mem::take(&mut self.faults.panics), mem::take(&mut self.faults.spikes));

        // Deadlines before admission: an expired queued request must not
        // consume the batch slot a live one is waiting for.
        self.expire_deadlines(&mut summary);
        self.update_degraded(&mut summary);
        let (slots, prefill_budget) = planner::step_limits(&self.config, self.degraded.on);
        summary.admitted = self.admit(slots);
        if self.active.is_empty() && !self.pending.is_empty() && self.faults.pressure > 0 {
            // An injected pressure fault must never wedge an empty engine
            // (the idle path would re-arm it forever). Admission evicted all
            // it could, so the ladder's next rung releases the pressure.
            self.reclaim(&mut summary);
            summary.admitted += self.admit(slots);
        }
        if self.active.is_empty() {
            // Nothing ran: put the faults back for the next non-idle step
            // (fault firing is defined in engine steps).
            (self.faults.panics, self.faults.spikes) = (panics, spikes);
            summary.blocks_in_use = self.kv_pool.in_use();
            summary.blocks_peak = self.kv_pool.peak();
            return summary;
        }
        summary.latency_spike_steps = spikes;
        for rank in panics {
            let victim = rank % self.active.len();
            self.active[victim].panic_next = true;
        }
        if self.started_at.is_none() {
            self.started_at = Some(crate::clock::now());
        }

        self.plan_step(prefill_budget, &mut summary);

        self.threads.advance(self.model, &self.config, &mut self.active);
        self.steps += 1;

        // Quarantine: retire every sequence whose step panicked *before*
        // any accounting or prefix publication — its KV writes may be
        // half-finished, so its work is not counted and its blocks must
        // never enter the prefix trie. Dropping the sequence returns every
        // block nobody else maps; all other sequences continue untouched.
        summary.failed = self.retire(FinishReason::Failed, |s| s.failed);

        // Count the work, stamp per-token timing and capture the realized
        // schedule before retirement removes finished sequences.
        let now_step = self.steps;
        self.last_work.clear();
        for seq in &mut self.active {
            let (w, t) = (seq.work, &mut seq.ticket);
            summary.prefilled += w.prefilled;
            summary.generated += usize::from(w.sampled) + w.accepted;
            summary.drafted += w.drafted;
            summary.accepted += w.accepted;
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
        self.prefill_tokens += summary.prefilled as u64;
        self.generated_tokens += summary.generated as u64;
        self.drafted_total += summary.drafted as u64;
        self.accepted_total += summary.accepted as u64;
        // Post-join, from the batch-order records, so the f64 account is
        // independent of thread scheduling.
        if let Some(acc) = &self.accelerator {
            let mut format = acc.kind().format();
            format.kv_bits = self.kv_pool.scheme().bits_per_element(self.model.config().d_model);
            let wl = step_workload(self.model.config(), &format, &self.last_work);
            let latency_s = workload_latency(&wl, &format, &Platform::reference()).total_s();
            self.energy_j += acc.energy(&wl, latency_s).total_j();
        }

        // Publish freshly-completed full prompt blocks into the prefix
        // cache before retiring anything, so even a request that finishes
        // in its first decode step leaves its prefix behind for followers.
        self.register_prefixes();

        summary.finished =
            self.retire(FinishReason::Limit, |s| s.ticket.generated() >= s.ticket.limit);
        summary.blocks_in_use = self.kv_pool.in_use();
        summary.blocks_peak = self.kv_pool.peak();
        // Injected pressure lasts exactly one planned step.
        self.faults.pressure = 0;
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
        let due = move |t: &Ticket| t.expires.is_some_and(|step| now >= step);
        let before = self.finished.len();
        let finished = &mut self.finished;
        self.pending.retain_mut(|t| {
            let expired = due(t);
            if expired {
                finished.push(t.report(FinishReason::DeadlineExceeded, now));
            }
            !expired
        });
        self.retire(FinishReason::DeadlineExceeded, |s| due(&s.ticket));
        summary.expired = self.finished.len() - before;
    }

    /// Retires every batch sequence `leaves` picks, with `finish` at the
    /// current step; a retired sequence drops here, releasing its blocks.
    /// Returns how many left.
    fn retire(
        &mut self,
        finish: FinishReason,
        mut leaves: impl FnMut(&mut Active) -> bool,
    ) -> usize {
        let (finished, now) = (&mut self.finished, self.steps);
        let before = finished.len();
        self.active.retain_mut(|seq| {
            let leaving = leaves(seq);
            if leaving {
                finished.push(seq.ticket.report(finish, now));
            }
            !leaving
        });
        finished.len() - before
    }

    /// Moves the degraded-mode state machine (see `DegradedConfig`) and,
    /// while degraded, sheds youngest-queued load down to the configured
    /// bound. Runs before admission so a mode entered this step already
    /// shapes this step's batch.
    fn update_degraded(&mut self, summary: &mut StepSummary) {
        let Some(cfg) = self.config.degraded else { return };
        let pool = &self.kv_pool;
        let pressure = degraded::pressure_pct(pool.in_use(), self.faults.pressure, pool.capacity());
        summary.degraded = self.degraded.update(&cfg, self.steps, pressure);
        if summary.degraded {
            let mut shed = Vec::new();
            while self.pending.len() > cfg.shed_queue {
                let Some(mut t) = self.pending.pop_back() else { break };
                shed.push(t.report(FinishReason::Shed, self.steps));
            }
            summary.shed = shed.len();
            self.finished.append(&mut shed);
        }
    }

    /// Free blocks the planner may spend this step: the pool's real free
    /// count minus any injected pressure fault.
    fn planning_free(&self) -> usize {
        self.kv_pool.free_blocks().saturating_sub(self.faults.pressure)
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
        if self.faults.pressure > 0 && self.active.len() <= 1 {
            self.faults.pressure = 0;
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
        if self.config.degraded.is_some() {
            self.degraded.preempted(self.steps);
        }
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
        if let Some(i) = self.pending.iter().position(|t| t.id == id) {
            let Some(mut t) = self.pending.remove(i) else { return false };
            self.finished.push(t.report(FinishReason::Cancelled, self.steps));
            return true;
        }
        self.retire(FinishReason::Cancelled, |s| s.ticket.id == id) > 0
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
    pub fn report(&self, elapsed: Duration) -> ServeReport {
        let mut requests: Vec<RequestReport> = self.finished.iter().map(Finished::report).collect();
        requests.sort_by_key(|r| r.id);
        let count = |why| requests.iter().filter(|r| r.finish == why).count() as u64;
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
            deadline_exceeded: count(FinishReason::DeadlineExceeded),
            failed: count(FinishReason::Failed),
            shed: count(FinishReason::Shed),
            degraded_steps: self.degraded.steps,
            mode_transitions: self.degraded.transitions,
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
        let tables = self.active.iter().map(|s| (s.ticket.id, &s.state));
        audit::audit(tables, &self.trie, &self.kv_pool, self.model.config().n_layers)
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
    use opal_model::sampling::Sampler;
    use opal_model::{ModelConfig, QuantScheme};

    use super::*;
    use crate::config::{DraftSource, SpecConfig, StepMode};
    use crate::request::SamplingParams;
    use crate::sequence::ngram_propose;

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
        assert_eq!(e.kv_pool().in_use(), 2);
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
