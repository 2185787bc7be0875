//! The paged KV cache under the scheduler: prefix sharing must never
//! change a single token (on or off, for every dispatch mode and thread
//! count), shared prefixes must be stored once in the block pool, pool
//! exhaustion must preempt-and-resume rather than error — with resumed
//! requests matching their uncontended output bit-for-bit — and
//! cancellation must release blocks immediately.

use opal::{ModelConfig, OpalPipeline, OperatingPoint};
use opal_model::sampling::Sampler;
use opal_serve::{
    FinishReason, Request, SamplingParams, ServeConfig, ServeEngine, ServeError, StepMode,
};

fn pipeline() -> OpalPipeline {
    OpalPipeline::new(ModelConfig::tiny(), OperatingPoint::W4A47, 42).expect("valid point")
}

const MODES: [StepMode; 2] = [StepMode::Auto, StepMode::ForcePool];

/// Prompts with heavy prefix overlap, admitted in waves so later requests
/// find earlier blocks resident: output must be identical with sharing on
/// and off, across StepModes and thread counts, and equal to the solo run.
#[test]
fn sharing_on_off_is_bit_identical_across_modes_and_threads() {
    let p = pipeline();
    let sys: Vec<u32> = (0..9u32).map(|i| (i * 5 + 2) % 64).collect();
    let mut prompts: Vec<Vec<u32>> = (0..4u32)
        .map(|i| {
            let mut pr = sys.clone();
            pr.extend((0..=i).map(|j| (i * 11 + j * 3 + 40) % 64));
            pr
        })
        .collect();
    prompts.push(vec![1, 2, 3]); // no shared prefix at all
    let n = 6;

    let run = |sharing: bool, step_mode: StepMode, threads: usize| -> Vec<Vec<u32>> {
        let config = ServeConfig {
            max_batch: 2, // staggered admission: later prompts hit the cache
            max_tokens: n,
            num_threads: threads,
            step_mode,
            block_size: 4,
            prefix_sharing: sharing,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(p.student(), config);
        let ids: Vec<_> =
            prompts.iter().map(|pr| engine.submit(pr).expect("valid prompt")).collect();
        let report = engine.run();
        ids.iter().map(|id| report.request(*id).expect("finished").tokens.clone()).collect()
    };

    let reference = run(false, StepMode::Auto, 1);
    for (prompt, got) in prompts.iter().zip(&reference) {
        assert_eq!(got, &p.generate(prompt, n), "unshared output diverged from solo");
    }
    for sharing in [true, false] {
        for step_mode in MODES {
            for threads in [1usize, 4] {
                assert_eq!(
                    run(sharing, step_mode, threads),
                    reference,
                    "sharing={sharing} {step_mode:?} threads={threads} diverged"
                );
            }
        }
    }
}

/// A batch of N requests with a common 128-token prefix stores the prefix
/// blocks once: pool residency with sharing is a fraction of the unshared
/// run's, and followers report the skipped span.
#[test]
fn common_prefix_blocks_are_stored_once() {
    let p = pipeline();
    let nl = p.student().config().n_layers;
    let block_size = 16;
    let prefix: Vec<u32> = (0..128u32).map(|i| (i * 13 + 1) % 64).collect();
    let n_requests = 4;
    let prompts: Vec<Vec<u32>> = (0..n_requests as u32)
        .map(|i| {
            let mut pr = prefix.clone();
            pr.extend([40 + i, 50 + i]);
            pr
        })
        .collect();
    let prefix_blocks = prefix.len() / block_size; // 8 full blocks per layer

    let run = |sharing: bool| -> (usize, u64) {
        let config = ServeConfig {
            max_batch: n_requests,
            max_tokens: 8,
            prefill_chunk: usize::MAX,
            block_size,
            prefix_sharing: sharing,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(p.student(), config);
        // The first request prefills (and publishes) the prefix...
        engine.submit(&prompts[0]).expect("valid prompt");
        engine.step();
        // ...then the followers join while it decodes.
        for pr in &prompts[1..] {
            engine.submit(pr).expect("valid prompt");
        }
        let mut resident_blocks = 0;
        while engine.prefilling_len() > 0 || engine.pending_len() > 0 || resident_blocks == 0 {
            let s = engine.step();
            if engine.active_len() == n_requests && engine.prefilling_len() == 0 {
                resident_blocks = s.blocks_in_use;
                break;
            }
            assert!(!engine.is_idle(), "requests drained before full residency");
        }
        let report = engine.run();
        assert_eq!(report.requests.len(), n_requests);
        (resident_blocks, report.shared_prefill_tokens)
    };

    let (shared_blocks, shared_tokens) = run(true);
    let (unshared_blocks, no_shared_tokens) = run(false);
    assert_eq!(no_shared_tokens, 0);
    // Followers adopt the full 8-block prefix (capped one short of the
    // prompt only when the prompt *is* the prefix — not the case here).
    assert_eq!(shared_tokens, ((n_requests - 1) * prefix.len()) as u64);
    // Unshared: every request owns its own prefix copy.
    assert!(
        unshared_blocks >= n_requests * prefix_blocks * nl,
        "unshared run must hold {n_requests} private prefix copies, got {unshared_blocks} blocks"
    );
    // Shared: one prefix copy plus a couple of private tail blocks each.
    let shared_budget = prefix_blocks * nl + n_requests * 2 * nl;
    assert!(
        shared_blocks <= shared_budget,
        "shared run must store the prefix once: {shared_blocks} blocks > budget {shared_budget}"
    );
    assert!(
        shared_blocks + (n_requests - 1) * prefix_blocks * nl <= unshared_blocks,
        "sharing saved fewer than {} prefix copies ({shared_blocks} vs {unshared_blocks})",
        n_requests - 1
    );
}

/// Cache pressure: a pool far too small for the offered load must preempt
/// (dropping blocks, re-queuing sequences) yet complete every request with
/// output identical to an uncontended run — including a temperature-sampled
/// request whose RNG must survive preemption.
#[test]
fn preempted_requests_resume_and_match_uncontended_output() {
    let p = pipeline();
    let prompts: Vec<Vec<u32>> =
        (0..4u32).map(|i| (0..8).map(|j| (i * 17 + j * 3 + 1) % 64).collect()).collect();
    let n = 6;
    let sampled = SamplingParams { sampler: Sampler::Temperature(1.0), seed: 7 };

    let run = |max_blocks: usize| -> (Vec<Vec<u32>>, u64) {
        let config = ServeConfig {
            max_batch: 4,
            max_tokens: n,
            block_size: 4,
            max_blocks,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(p.student(), config);
        let mut ids = Vec::new();
        for (i, pr) in prompts.iter().enumerate() {
            let mut req = Request::new(pr).with_limit(n);
            if i == 2 {
                req = req.with_sampling(sampled);
            }
            ids.push(engine.submit_request(req).expect("valid request"));
        }
        let report = engine.run();
        let tokens =
            ids.iter().map(|id| report.request(*id).expect("finished").tokens.clone()).collect();
        (tokens, report.preemptions)
    };

    // Uncontended baseline, then a pool that can hold barely more than one
    // sequence's worst case (8 + 6 - 1 = 13 positions -> (4 + 1) * 2 = 10
    // blocks): concurrent progress is impossible without preemption.
    let (reference, baseline_preemptions) = run(usize::MAX);
    assert_eq!(baseline_preemptions, 0, "an unbounded pool must never preempt");
    let (pressured, preemptions) = run(12);
    assert!(preemptions > 0, "a 12-block pool must preempt under this load");
    assert_eq!(pressured, reference, "preemption changed request output");
    for tokens in &pressured {
        assert_eq!(tokens.len(), n, "every preempted request must still complete");
    }
}

/// `cancel` aborts queued and running requests, reports them with
/// `FinishReason::Cancelled`, and releases their blocks immediately.
#[test]
fn cancel_aborts_and_releases_blocks() {
    let p = pipeline();
    let config = ServeConfig {
        max_batch: 2,
        max_tokens: 16,
        block_size: 4,
        prefix_sharing: false, // keep residency arithmetic exact
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(p.student(), config);
    let a = engine.submit(&[1, 2, 3, 4, 5]).expect("valid prompt");
    let b = engine.submit(&[9, 8, 7]).expect("valid prompt");
    let queued = engine.submit(&[11, 12]).expect("valid prompt");

    for _ in 0..3 {
        engine.step();
    }
    assert_eq!(engine.active_len(), 2);
    assert_eq!(engine.pending_len(), 1);

    // Cancel one running and one queued request; an unknown id is refused.
    assert!(engine.cancel(a));
    assert!(engine.cancel(queued));
    assert!(!engine.cancel(a), "a cancelled request is gone");
    assert_eq!(engine.active_len(), 1);
    assert_eq!(engine.pending_len(), 0);
    let survivor_blocks = engine.kv_pool().in_use();
    let expected = p.student().config().n_layers * 5usize.div_ceil(4);
    assert!(
        survivor_blocks <= expected + p.student().config().n_layers,
        "cancelled requests must free their blocks ({survivor_blocks} > {expected})"
    );

    let report = engine.run();
    assert_eq!(report.requests.len(), 3);
    let ra = report.request(a).expect("reported");
    assert_eq!(ra.finish, FinishReason::Cancelled);
    assert!(ra.tokens.len() < 16, "cancelled mid-decode");
    assert_eq!(report.request(queued).expect("reported").finish, FinishReason::Cancelled);
    assert!(report.request(queued).expect("reported").tokens.is_empty());
    let rb = report.request(b).expect("reported");
    assert_eq!(rb.finish, FinishReason::Limit);
    assert_eq!(rb.tokens, p.generate(&[9, 8, 7], 16), "survivor must be unperturbed");
    assert_eq!(engine.kv_pool().in_use(), 0, "a drained engine holds no blocks");
}

/// A request whose worst-case residency cannot fit the pool even alone is
/// rejected at submission instead of deadlocking the scheduler later.
#[test]
fn impossible_requests_are_rejected_at_submission() {
    let p = pipeline();
    let config = ServeConfig {
        max_batch: 2,
        max_tokens: 16,
        block_size: 4,
        max_blocks: 8,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(p.student(), config);
    // 20 + 16 - 1 = 35 positions -> (9 + 1) * 2 layers = 20 blocks > 8.
    let long: Vec<u32> = (0..20u32).collect();
    match engine.submit(&long) {
        Err(ServeError::InsufficientBlocks { required, max_blocks }) => {
            assert_eq!(max_blocks, 8);
            assert!(required > 8);
        }
        other => panic!("expected InsufficientBlocks, got {other:?}"),
    }
    // A short request fits ((2 + 1) * 2 = 6 <= 8) and completes.
    let ok = engine.submit_with_limit(&[1, 2, 3], 4).expect("fits the pool");
    let report = engine.run();
    assert_eq!(report.request(ok).expect("finished").tokens.len(), 4);
}
