//! The model side of a step: the resident sequences ([`Active`]), the
//! phases [`advance_chunk`] runs over them, and their record of the step
//! ([`SeqStepWork`]).

use std::panic::{catch_unwind, AssertUnwindSafe};

use opal_hw::workload::{DataFormat, TokenWorkload};
use opal_model::{DecodeState, LogitsOut, Model, ModelConfig, RowGroup, Workspace};
use opal_tensor::Matrix;

use crate::planner::SeqPlan;
use crate::request::Ticket;

/// What one sequence did during the most recent
/// [`ServeEngine::step`](crate::ServeEngine::step) — the realized schedule,
/// exported via [`ServeEngine::last_step_work`](crate::ServeEngine::last_step_work).
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
/// share of the step's `ServeConfig::prefill_chunk` positions as its rows
/// of the step's fused prefill pass, generating nothing. The step whose
/// grant covers the last prefill position computes the logits and the
/// sequence transitions to **`Decoding`** — sampling its next token in
/// that same step, exactly as blocking admission would have — where it
/// advances one token per step until it retires at its limit.
pub(crate) struct Active {
    pub(crate) ticket: Ticket,
    pub(crate) state: DecodeState,
    pub(crate) last_logits: Vec<f32>,
    /// The stream's length at admission: `ticket.stream[..prefill_end]` is
    /// prefilled (the prompt, plus the tokens generated before a
    /// preemption), `ticket.stream[..prefilled]` is in the KV cache.
    pub(crate) prefill_end: usize,
    /// Prefill positions already in the KV cache (starts at the
    /// prefix-shared span, not zero, when blocks were adopted).
    pub(crate) prefilled: usize,
    /// Prefill positions this step's scheduler granted (consumed and reset
    /// by [`advance_chunk`]).
    pub(crate) grant: usize,
    /// Per-step activity record for post-join accounting.
    pub(crate) work: SeqStepWork,
    /// Full prompt blocks already published into the prefix trie (the
    /// registration watermark — steady-state steps publish nothing and do
    /// no trie work for this sequence).
    pub(crate) registered_blocks: usize,
    /// Trie node of the last published block (`PrefixTrie::ROOT` before
    /// the first), so registration appends without re-walking the path.
    /// Verified live before use: a published node is normally pinned by
    /// this sequence's own table (shared `Arc`s) or by its children, but a
    /// node adopted-then-diverged or inherited from a retired twin can be
    /// evicted, and ids are never reused, so a dead anchor is detectable.
    pub(crate) trie_parent: usize,
    /// Set by [`advance_chunk`]'s quarantine when this sequence's step
    /// panicked. The scheduler quarantines the sequence — retires it with
    /// `FinishReason::Failed` and returns its blocks — before publishing
    /// anything or stepping it again (its KV writes may be half-finished,
    /// so its blocks must never enter the prefix trie).
    pub(crate) failed: bool,
    /// Armed by an injected `FaultKind::WorkerPanic`: the next
    /// [`advance_chunk`] over this sequence panics on its behalf, on
    /// whichever thread runs it.
    pub(crate) panic_next: bool,
    /// Speculative-decoding state when `ServeConfig::spec` is set: the
    /// reusable draft/verify buffers. Dropped on preemption and rebuilt at
    /// re-admission; the n-gram draft reads only the committed stream, so
    /// resumption stays output-identical.
    pub(crate) spec: Option<Box<SpecState>>,
}

/// Per-sequence speculative-decoding state: the reusable buffers of the
/// draft/verify loop. Everything here is scratch — none of it influences
/// output, only how many tokens each step emits.
pub(crate) struct SpecState {
    /// Maximum tokens drafted per step (`SpecConfig::k`).
    pub(crate) k: usize,
    /// Draft tokens proposed this step (reused).
    pub(crate) proposals: Vec<u32>,
    /// Verify-row token buffer `[t0, d1..dk]` (reused).
    verify: Vec<u32>,
    /// Logits of the fused verify pass, one row per verify token
    /// (pre-grown to `k + 1` rows; reused).
    logits: Matrix,
}

impl Active {
    /// A sequence admitted with the first `shared` positions of its stream
    /// adopted into `state` from the prefix cache, its first `published`
    /// full blocks already in the trie (the last at node `anchor`), drafting
    /// `spec_k` tokens a step when speculation is on.
    pub(crate) fn new(
        ticket: Ticket,
        state: DecodeState,
        shared: usize,
        (published, anchor): (usize, usize),
        spec_k: Option<usize>,
        vocab: usize,
    ) -> Self {
        let spec = spec_k.map(|k| SpecState {
            k,
            proposals: Vec::with_capacity(k),
            verify: Vec::with_capacity(k + 1),
            logits: Matrix::zeros(k + 1, vocab),
        });
        Active {
            prefill_end: ticket.stream.len(),
            registered_blocks: published,
            ticket,
            state,
            last_logits: vec![0.0; vocab],
            prefilled: shared,
            grant: 0,
            work: SeqStepWork::default(),
            trie_parent: anchor,
            failed: false,
            panic_next: false,
            spec: spec.map(Box::new),
        }
    }

    /// Whether this sequence is still consuming its prompt.
    pub(crate) fn prefilling(&self) -> bool {
        self.prefilled < self.prefill_end
    }

    /// The numbers the planner reads off this sequence.
    pub(crate) fn plan(&self) -> SeqPlan {
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

/// Advances every sequence of `chunk` by one step: the model side of
/// [`ServeEngine::step`](crate::ServeEngine::step) for the sequences one
/// thread owns (the whole batch on the serial path, one `split_by_work`
/// slice per worker otherwise), with the [`Workspace`] that thread owns.
/// All the chunk's rows of a kind go through the model in **one**
/// [`Model::forward_rows`] pass, so the weight stack streams once per pass
/// instead of once per sequence:
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
    if !seq.failed {
        seq.failed = catch_unwind(AssertUnwindSafe(|| f(seq))).is_err();
    }
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
    let tokens: &[u32] = if seq.failed {
        &[]
    } else {
        &seq.ticket.stream[w.prefill_start..w.prefill_start + w.prefilled]
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
        _ if *failed => (&[][..], LogitsOut::None),
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
pub(crate) fn ngram_propose(stream: &[u32], k_eff: usize, proposals: &mut Vec<u32>) {
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
