//! The step planner: the block arithmetic behind every scheduling
//! decision, as pure functions of plain numbers — a [`BlockRule`] and each
//! sequence's [`SeqPlan`], read off the batch, the queue and the pool by
//! the engine. Nothing here touches a pool, the prefix trie, the batch or
//! a model. When a plan comes up short, the engine runs its one mutating
//! ladder (`ServeEngine::reclaim`: evict a prefix-cache leaf, else release
//! a lone sequence's injected pressure, else preempt the youngest) and
//! plans again.

use crate::config::ServeConfig;

/// Upper bound on how many times one queued request can be bypassed by
/// the admission queue's trie-aware reordering. Under block pressure a
/// cache-warm request may be admitted ahead of colder ones submitted
/// earlier; every jumped request counts the bypass, and the reorder scan
/// refuses to pass a request that has reached this count — so a cold
/// request is delayed by at most this many out-of-order admissions before
/// the queue falls back to strict arrival order.
pub const REORDER_STARVATION_BOUND: u32 = 4;

/// The geometry every block count depends on: positions per block, and
/// the layers that each hold their own block of every span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BlockRule {
    pub(crate) block_size: usize,
    pub(crate) n_layers: usize,
}

/// A resident sequence as the planner sees it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SeqPlan {
    /// Positions in the sequence's KV cache.
    pub(crate) pos: usize,
    /// Stream positions still to prefill; while there are any, `pos` is
    /// the count already prefilled.
    pub(crate) prefill_left: usize,
    /// Tokens the request may still generate (at least one).
    pub(crate) left: usize,
    /// Speculative draft length; zero with speculation off.
    pub(crate) spec_k: usize,
    /// Whether another table or the prefix cache also maps the last block.
    pub(crate) tail_shared: bool,
    /// Prefill positions [`plan_grants`] granted this step.
    pub(crate) grant: usize,
}

impl SeqPlan {
    fn prefilling(&self) -> bool {
        self.prefill_left > 0
    }
}

/// A queued request behind the head, as [`BlockRule::warm_fit`] sees it:
/// its bypass count, the leading full blocks of its stream resident in
/// the prefix cache, and its stream's length.
pub(crate) struct Queued {
    pub(crate) bypassed: u32,
    pub(crate) matched: usize,
    pub(crate) len: usize,
}

impl BlockRule {
    /// KV blocks, across all layers, that writing `rows` positions into a
    /// table holding `pos` takes from the pool: the fresh blocks the span
    /// reaches into, plus — when `cow` — one copy-on-write of a shared
    /// partial tail per layer. The one block rule: submission feasibility,
    /// the admission gate and the grant pass all count with it.
    pub(crate) fn span_blocks(self, pos: usize, rows: usize, cow: bool) -> usize {
        let bs = self.block_size;
        let fresh = pos.saturating_add(rows).div_ceil(bs) - pos.div_ceil(bs);
        self.n_layers.saturating_mul(fresh.saturating_add(usize::from(cow)))
    }

    /// Whether `seq`'s next append copies a shared partial tail block.
    fn tail_cow(self, seq: &SeqPlan) -> bool {
        seq.tail_shared && !seq.pos.is_multiple_of(self.block_size)
    }

    /// The admission gate for a stream of `len` tokens whose first
    /// `matched` blocks are in the prefix cache: the span it adopts, capped
    /// one short of `len` so the final position always computes its logits,
    /// and the blocks it must find free — its first `chunk` of prefill past
    /// that span (with a copy-on-write of a partial shared tail) plus one
    /// block per layer of decode headroom.
    pub(crate) fn admission_need(self, matched: usize, len: usize, chunk: usize) -> (usize, usize) {
        let shared = (matched * self.block_size).min(len - 1);
        let cow = !shared.is_multiple_of(self.block_size);
        (shared, self.span_blocks(shared, chunk.min(len - shared), cow) + self.n_layers)
    }

    /// The queue position the trie-aware reordering moves to the front
    /// when the head does not fit: the earliest request `behind` it whose
    /// prefix is resident and whose [`Self::admission_need`] fits `free`.
    /// It never jumps a head, nor passes a request, already bypassed
    /// [`REORDER_STARVATION_BOUND`] times.
    pub(crate) fn warm_fit(
        self,
        chunk: usize,
        free: usize,
        head_bypassed: u32,
        behind: impl Iterator<Item = Queued>,
    ) -> Option<usize> {
        if head_bypassed >= REORDER_STARVATION_BOUND {
            return None;
        }
        for (i, q) in behind.enumerate() {
            let (shared, need) = self.admission_need(q.matched, q.len, chunk);
            if shared > 0 && free >= need {
                return Some(i + 1);
            }
            if q.bypassed >= REORDER_STARVATION_BOUND {
                break;
            }
        }
        None
    }

    /// Blocks a decoding sequence's forward pass will allocate this step;
    /// zero when it retires at its limit without another pass. With
    /// speculation on, a verify pass appends up to `1 + k` rows before
    /// rolling back, and the reservation covers that peak: the engine's
    /// `sample` drafts exactly as many rows, only for sequences decoding at
    /// planning time, and a shorter draft merely under-uses it.
    pub(crate) fn decode_need(self, seq: &SeqPlan) -> usize {
        if seq.left <= 1 {
            return 0;
        }
        let rows = 1 + seq.spec_k.min(seq.left - 1);
        self.span_blocks(seq.pos, rows, self.tail_cow(seq))
    }

    /// Blocks a prefill grant of `granted` positions will allocate,
    /// including the same-step first decode row when the grant completes
    /// the prefill.
    pub(crate) fn grant_cost(self, seq: &SeqPlan, granted: usize) -> usize {
        if granted == 0 {
            return 0;
        }
        let extra = usize::from(granted == seq.prefill_left && seq.left > 1);
        self.span_blocks(seq.pos, granted + extra, self.tail_cow(seq))
    }

    /// The largest prefill grant for `seq` whose [`Self::grant_cost`] fits
    /// in `budget` blocks, capped at the sequence's remaining prefill:
    /// [`Self::span_blocks`] inverted.
    pub(crate) fn affordable_grant(self, seq: &SeqPlan, budget: usize) -> usize {
        let remaining = seq.prefill_left;
        if self.grant_cost(seq, remaining) <= budget {
            return remaining;
        }
        let bs = self.block_size;
        let per_layer = budget / self.n_layers;
        let Some(fresh) = per_layer.checked_sub(usize::from(self.tail_cow(seq))) else { return 0 };
        // Fill the affordable blocks to their last row. The whole prefill
        // did not fit, so when only the completion's decode row overflowed,
        // stop one position short and complete next step.
        ((seq.pos.div_ceil(bs) + fresh) * bs - seq.pos).min(remaining - 1)
    }
}

/// A step's batch slots and prefill positions: `max_batch` and
/// `prefill_chunk`, shrunk while `degraded` to their configured percentage
/// (at least one). Blocking admission (`usize::MAX`) stays blocking.
pub(crate) fn step_limits(config: &ServeConfig, degraded: bool) -> (usize, usize) {
    let (batch, chunk) = (config.max_batch, config.prefill_chunk);
    let Some(d) = config.degraded.filter(|_| degraded) else { return (batch, chunk) };
    let shrink = |n: usize, pct: u32| (n.saturating_mul(pct as usize) / 100).max(1);
    let chunk = if chunk == usize::MAX { chunk } else { shrink(chunk, d.prefill_pct) };
    (shrink(batch, d.batch_pct), chunk)
}

/// The grant pass over the batch `seqs`, with `free` blocks to spend and
/// `budget` prefill positions to hand out. The decoding sequences' rows
/// come first ([`BlockRule::decode_need`]): a decoding sequence never
/// stalls. The rest of the blocks buy prefill grants round-robin over the
/// *prefilling* sequences from `cursor`, each the largest its blocks and
/// the budget afford ([`BlockRule::affordable_grant`]), and the cursor
/// moves past the last grantee, so a prompt that drained the budget goes
/// last next step. Returns the new cursor with the grants written to
/// [`SeqPlan::grant`], or `None` on a shortfall: the decode rows do not
/// fit, or every sequence is prefilling and none was granted a position.
pub(crate) fn plan_grants(
    rule: BlockRule,
    seqs: &mut [SeqPlan],
    free: usize,
    mut budget: usize,
    cursor: usize,
) -> Option<usize> {
    seqs.iter_mut().for_each(|s| s.grant = 0);
    let decode_need: usize =
        seqs.iter().filter(|s| !s.prefilling()).map(|s| rule.decode_need(s)).sum();
    let mut blocks = free.checked_sub(decode_need)?;
    let mut next = cursor;
    if seqs.iter().any(SeqPlan::prefilling) {
        next = cursor.wrapping_add(1);
        let batch = seqs.len();
        for idx in (0..batch).map(|i| (cursor % batch + i) % batch) {
            let seq = &mut seqs[idx];
            if budget == 0 || !seq.prefilling() {
                continue;
            }
            seq.grant = rule.affordable_grant(seq, blocks).min(budget);
            budget -= seq.grant;
            blocks -= rule.grant_cost(seq, seq.grant);
            if seq.grant > 0 {
                next = idx + 1;
            }
        }
    }
    seqs.iter().any(|s| !s.prefilling() || s.grant > 0).then_some(next)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affordable_grant_is_the_largest_grant_that_fits() {
        // The brute-force oracle: every grant from zero to the remaining
        // prefill, priced by `grant_cost`, against the closed-form inverse.
        for block_size in 1..=5 {
            for n_layers in 1..=3 {
                let rule = BlockRule { block_size, n_layers };
                for pos in 0..=12 {
                    for remaining in 1..=12 {
                        for left in 1..=12 {
                            for tail_shared in [false, true] {
                                let seq = SeqPlan {
                                    pos,
                                    prefill_left: remaining,
                                    left,
                                    tail_shared,
                                    ..SeqPlan::default()
                                };
                                for budget in 0..=40 {
                                    let want = (0..=remaining)
                                        .rev()
                                        .find(|&g| rule.grant_cost(&seq, g) <= budget)
                                        .unwrap_or(0);
                                    assert_eq!(
                                        rule.affordable_grant(&seq, budget),
                                        want,
                                        "{rule:?} {seq:?} budget {budget}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn grants_rotate_over_prefilling_sequences_or_report_a_shortfall() {
        let rule = BlockRule { block_size: 4, n_layers: 2 };
        // A decoding sequence at a block boundary: its row takes a fresh
        // block per layer.
        let decoding = SeqPlan { pos: 8, left: 9, ..SeqPlan::default() };
        let prompt = SeqPlan { prefill_left: 10, left: 4, ..SeqPlan::default() };
        let mut seqs = [prompt, decoding, prompt];
        // From the cursor, the first prompt takes all ten positions, the
        // next one the rest of the budget, and the cursor moves past it.
        assert_eq!(plan_grants(rule, &mut seqs, 100, 12, 0), Some(3));
        assert_eq!(seqs.map(|s| s.grant), [10, 0, 2]);
        // Two blocks cover only the decoding row: no prompt is granted,
        // the decoding sequence still advances, the cursor moves by one.
        assert_eq!(plan_grants(rule, &mut seqs, 2, 12, 3), Some(4));
        assert_eq!(seqs.map(|s| s.grant), [0, 0, 0]);
        // One block does not cover it: a shortfall.
        assert_eq!(plan_grants(rule, &mut seqs, 1, 12, 3), None);
        // Prompts alone that cannot be granted a position cannot progress.
        assert_eq!(plan_grants(rule, &mut [prompt, prompt], 1, 12, 0), None);
    }
}
