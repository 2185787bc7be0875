//! The scheduler over quantized KV pages, and trie-aware queue
//! reordering.
//!
//! Quantized pages have no exact-cache oracle — their contract is
//! determinism with themselves: the same workload must produce identical
//! tokens across step modes, thread counts, and preempt→resume cycles
//! (a resumed sequence re-encodes the same rows into the same codes).
//! The reordering tests pin the admission policy: under block pressure a
//! queued request whose prefix is trie-resident may jump a cache-cold
//! head, but never past [`REORDER_STARVATION_BOUND`] bypasses.

use opal::{ModelConfig, OpalPipeline, OperatingPoint};
use opal_model::sampling::Sampler;
use opal_serve::{
    FinishReason, KvScheme, Request, SamplingParams, ServeConfig, ServeEngine, StepMode,
    REORDER_STARVATION_BOUND,
};

fn pipeline() -> OpalPipeline {
    OpalPipeline::new(ModelConfig::tiny(), OperatingPoint::W4A47, 42).expect("valid point")
}

const MODES: [StepMode; 2] = [StepMode::Auto, StepMode::ForcePool];

/// Quantized KV under pressure: every StepMode × thread-count combination
/// must reproduce the single-threaded uncontended run bit-for-bit, and a
/// pool small enough to force preemption must resume every sequence onto
/// re-encoded pages without changing a token — including a
/// temperature-sampled request whose RNG crosses the preemption.
#[test]
fn quantized_kv_is_deterministic_across_modes_threads_and_preemption() {
    let p = pipeline();
    let prompts: Vec<Vec<u32>> =
        (0..4u32).map(|i| (0..8).map(|j| (i * 17 + j * 3 + 1) % 64).collect()).collect();
    let n = 6;
    let sampled = SamplingParams { sampler: Sampler::Temperature(1.0), seed: 7 };

    let run = |kv: KvScheme, max_blocks: usize, mode: StepMode, threads: usize| {
        let config = ServeConfig {
            max_batch: 4,
            max_tokens: n,
            num_threads: threads,
            step_mode: mode,
            block_size: 4,
            max_blocks,
            kv_scheme: kv,
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
        let tokens: Vec<Vec<u32>> =
            ids.iter().map(|id| report.request(*id).expect("finished").tokens.clone()).collect();
        (tokens, report.preemptions)
    };

    for kv in [KvScheme::mxopal(), KvScheme::mxint()] {
        let (reference, baseline_preemptions) = run(kv, usize::MAX, StepMode::Auto, 1);
        assert_eq!(baseline_preemptions, 0, "an unbounded pool must never preempt");
        for tokens in &reference {
            assert_eq!(tokens.len(), n);
        }
        for mode in MODES {
            for threads in [1usize, 4] {
                let (uncontended, _) = run(kv, usize::MAX, mode, threads);
                assert_eq!(
                    uncontended,
                    reference,
                    "{} {mode:?} threads={threads} diverged uncontended",
                    kv.name()
                );
                // 12 blocks can hold barely more than one sequence's worst
                // case (same block geometry as the exact cache), so
                // concurrent progress forces preempt→resume cycles.
                let (pressured, preemptions) = run(kv, 12, mode, threads);
                assert!(preemptions > 0, "a 12-block pool must preempt under this load");
                assert_eq!(
                    pressured,
                    reference,
                    "{} {mode:?} threads={threads}: preemption changed quantized output",
                    kv.name()
                );
            }
        }
    }
}

/// Trie-aware reordering under block pressure: warm requests (prefix
/// resident via a long-running donor) jump a cache-cold queue head, but
/// the cold request is bypassed at most [`REORDER_STARVATION_BOUND`]
/// times and still completes — reordering trades latency within a bound,
/// never starvation.
#[test]
fn reordering_never_starves_a_cold_request_past_the_bound() {
    let p = pipeline();
    let nl = p.student().config().n_layers;
    assert_eq!(nl, 2, "block arithmetic below assumes the tiny model");
    let prefix: Vec<u32> = (0..12u32).map(|i| (i * 5 + 2) % 64).collect(); // 3 blocks of 4
    let cold_prompt: Vec<u32> = (0..12u32).map(|i| (i * 7 + 33) % 64).collect(); // no overlap
    let n_warm = 8u32;

    let config = ServeConfig {
        max_batch: 8,
        max_tokens: 4,
        prefill_chunk: usize::MAX,
        block_size: 4,
        // Donor resident (8 blocks) leaves 6 free: the cold request needs
        // nl * (3 + 1) = 8, a warm follower only nl * (1 + 1) = 4.
        max_blocks: 14,
        prefix_sharing: true,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(p.student(), config);

    // The donor prefills the prefix (publishing it to the trie) and keeps
    // decoding, so the prefix blocks stay mapped — pressure cannot be
    // relieved by evicting them.
    let donor = engine.submit_request(Request::new(&prefix).with_limit(8)).expect("valid request");
    engine.step();

    // A cache-cold request at the head of the queue, warm followers behind.
    let cold = engine.submit(&cold_prompt).expect("valid request");
    let warm_ids: Vec<_> = (0..n_warm)
        .map(|i| {
            let mut pr = prefix.clone();
            pr.extend([40 + i, 50 + i]);
            engine.submit(&pr).expect("valid request")
        })
        .collect();

    let report = engine.run();
    for id in warm_ids.iter().chain([&donor, &cold]) {
        assert_eq!(report.request(*id).expect("finished").finish, FinishReason::Limit);
    }
    let cold_admitted = report.request(cold).expect("finished").admitted_step;
    let jumped = warm_ids
        .iter()
        .filter(|id| report.request(**id).expect("finished").admitted_step < cold_admitted)
        .count();
    assert!(jumped >= 1, "no warm request was reordered ahead of the cold head");
    assert!(
        jumped as u32 <= REORDER_STARVATION_BOUND,
        "cold request bypassed {jumped} times, bound is {REORDER_STARVATION_BOUND}"
    );
    assert!(
        warm_ids
            .iter()
            .any(|id| report.request(*id).expect("finished").admitted_step > cold_admitted),
        "the bound never bound: every warm request was admitted before the cold one"
    );
}

/// With sharing disabled the queue is strictly FIFO even under pressure:
/// the reorder path must not engage.
#[test]
fn no_reordering_without_prefix_sharing() {
    let p = pipeline();
    let prefix: Vec<u32> = (0..12u32).map(|i| (i * 5 + 2) % 64).collect();
    let cold_prompt: Vec<u32> = (0..12u32).map(|i| (i * 7 + 33) % 64).collect();

    let config = ServeConfig {
        max_batch: 8,
        max_tokens: 4,
        prefill_chunk: usize::MAX,
        block_size: 4,
        max_blocks: 14,
        prefix_sharing: false,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(p.student(), config);
    engine.submit_with_limit(&prefix, 8).expect("valid request");
    engine.step();
    let cold = engine.submit(&cold_prompt).expect("valid request");
    let followers: Vec<_> = (0..4u32)
        .map(|i| {
            let mut pr = prefix.clone();
            pr.extend([40 + i, 50 + i]);
            engine.submit(&pr).expect("valid request")
        })
        .collect();

    let report = engine.run();
    let cold_admitted = report.request(cold).expect("finished").admitted_step;
    for id in followers {
        assert!(
            report.request(id).expect("finished").admitted_step >= cold_admitted,
            "a later request was admitted before the queue head without prefix sharing"
        );
    }
}
