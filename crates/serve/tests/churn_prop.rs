//! Property tests over the engine's public API: arbitrary
//! submit/step/cancel churn under a tight KV pool must preserve the
//! prefix-cache/pool accounting invariants and stay bit-deterministic.

use opal_model::{Model, ModelConfig, QuantScheme};
use opal_serve::{Request, ServeConfig, ServeEngine};
use proptest::prelude::*;

fn model() -> Model {
    Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 11).expect("tiny model")
}

/// Replays one op-coded churn step. `op`: 0 ⇒ submit a prompt from a
/// small shared-prefix universe (parameterized by `a`, length by `b`),
/// 1 ⇒ run a scheduler step, 2 ⇒ cancel the `a`-th in-flight request,
/// 3 ⇒ submit with a tight `deadline_steps` TTL (so expiry races
/// admission, decoding, cancellation and preemption freely). Returns a
/// digest of what happened for cross-run comparison.
fn apply(engine: &mut ServeEngine<'_>, vocab: u32, op: u8, a: usize, b: usize) -> u64 {
    match op {
        0 | 3 => {
            let sys: Vec<u32> = (0..8u32).map(|i| (i * 7 + a as u32) % vocab).collect();
            let mut prompt = sys;
            prompt.extend((0..b as u32).map(|j| (j * 13 + a as u32 * 3) % vocab));
            let mut request = Request::new(&prompt).with_limit(1 + b);
            if op == 3 {
                request = request.with_deadline(1 + (a + b) as u64 % 6);
            }
            match engine.submit_request(request) {
                Ok(id) => 1000 + format!("{id}").bytes().map(u64::from).sum::<u64>(),
                Err(_) => 2000,
            }
        }
        1 => {
            let s = engine.step();
            3000 + s.generated as u64 * 16 + s.finished as u64 + s.expired as u64 * 256
        }
        _ => {
            let ids = engine.in_flight();
            if ids.is_empty() {
                4000
            } else {
                4001 + u64::from(engine.cancel(ids[a % ids.len()]))
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After any churn sequence drains, the only KV blocks still
    /// allocated are the prefix cache's (`n_layers` per cached block) —
    /// every block-table, copy-on-write and cancelled-request block went
    /// back to the free list.
    #[test]
    fn drained_engine_accounts_every_block(
        ops in proptest::collection::vec((0u8..4, 0usize..4, 1usize..8), 1..40)
    ) {
        let m = model();
        let n_layers = m.config().n_layers;
        let vocab = m.config().vocab as u32;
        let config = ServeConfig {
            max_batch: 3,
            max_tokens: 12,
            block_size: 4,
            max_blocks: n_layers * 16, // tight: forces evict/preempt churn
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(&m, config);
        for &(op, a, b) in &ops {
            apply(&mut engine, vocab, op, a, b);
            prop_assert!(engine.kv_pool().in_use() <= config.max_blocks, "pool bound violated");
        }
        let mid = engine.audit();
        prop_assert!(mid.is_clean(), "audit violations mid-churn: {:#?}", mid.violations);
        let mut guard = 0;
        while !engine.is_idle() {
            engine.step();
            guard += 1;
            prop_assert!(guard < 100_000, "drain failed to make progress");
        }
        prop_assert_eq!(
            engine.kv_pool().in_use(),
            engine.prefix_cache_len() * n_layers,
            "non-cache blocks leaked after drain"
        );
        prop_assert!(engine.kv_pool().peak() <= config.max_blocks);
        let audit = engine.audit();
        prop_assert!(audit.is_clean(), "audit violations after drain: {:#?}", audit.violations);
    }

    /// The identical op sequence replayed against two engines produces
    /// identical step summaries, cancellations and final reports — churn
    /// scheduling is a pure function of the op sequence.
    #[test]
    fn churn_is_deterministic(
        ops in proptest::collection::vec((0u8..4, 0usize..4, 1usize..8), 1..40)
    ) {
        let m = model();
        let config = ServeConfig {
            max_batch: 3,
            max_tokens: 12,
            block_size: 4,
            max_blocks: m.config().n_layers * 16,
            ..ServeConfig::default()
        };
        let mut x = ServeEngine::new(&m, config);
        let mut y = ServeEngine::new(&m, config);
        let vocab = m.config().vocab as u32;
        for &(op, a, b) in &ops {
            let dx = apply(&mut x, vocab, op, a, b);
            let dy = apply(&mut y, vocab, op, a, b);
            prop_assert_eq!(dx, dy, "op ({}, {}, {}) diverged", op, a, b);
        }
        while !x.is_idle() {
            x.step();
        }
        while !y.is_idle() {
            y.step();
        }
        let (rx, ry) = (x.report(Default::default()), y.report(Default::default()));
        prop_assert_eq!(rx.requests.len(), ry.requests.len());
        for (a, b) in rx.requests.iter().zip(&ry.requests) {
            prop_assert_eq!(&a.tokens, &b.tokens, "request {} tokens diverged", a.id);
            prop_assert_eq!(a.finish, b.finish);
            prop_assert_eq!(a.token_steps.clone(), b.token_steps.clone());
            // An expiry must never masquerade as a client cancellation or
            // vice versa: cancel ops and deadline expiries race freely in
            // this workload, and each retirement keeps its true reason.
            if a.finish == opal_serve::FinishReason::DeadlineExceeded {
                prop_assert!(a.tokens.len() < 1 + 7, "an expired request cannot be at its limit");
            }
        }
        prop_assert_eq!(rx.deadline_exceeded, ry.deadline_exceeded);
        prop_assert_eq!(rx.rejections, ry.rejections);
    }
}
