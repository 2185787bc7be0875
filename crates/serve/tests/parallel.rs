//! Determinism of the parallel batch step: for any `num_threads`, every
//! sequence's output must be token-identical to the sequential seed path
//! (single-sequence generation), for mixed prompt lengths and mid-stream
//! admission, and independent of its batch neighbours.

use opal::{ModelConfig, OpalPipeline, OperatingPoint};
use opal_model::sampling::Sampler;
use opal_serve::{Request, SamplingParams, ServeConfig, ServeEngine, StepMode};

fn pipeline() -> OpalPipeline {
    OpalPipeline::new(ModelConfig::tiny(), OperatingPoint::W4A47, 42).expect("valid point")
}

/// Every dispatch mode the engine supports. `ForcePool` genuinely crosses
/// threads regardless of host core count; `Auto` may legitimately
/// serialize (that's its job), but must still be token-identical.
const MODES: [StepMode; 2] = [StepMode::Auto, StepMode::ForcePool];

/// Mixed prompt lengths, batch 16, one token stream per (thread count,
/// dispatch mode) — every member must match its solo run exactly, and all
/// engines (1 thread, 4 threads, oversubscribed 16 threads; persistent
/// pool and the auto heuristic) must agree.
#[test]
fn parallel_step_matches_sequential_for_mixed_prompts() {
    let p = pipeline();
    let prompts: Vec<Vec<u32>> =
        (0..16u32).map(|i| (0..(i % 5 + 1)).map(|j| (i * 7 + j * 3) % 64).collect()).collect();
    let n = 12;

    let mut outputs = Vec::new();
    for step_mode in MODES {
        for threads in [1usize, 4, 16] {
            let config = ServeConfig {
                max_batch: 16,
                max_tokens: n,
                num_threads: threads,
                step_mode,
                ..ServeConfig::default()
            };
            let mut engine = ServeEngine::new(p.student(), config);
            let ids: Vec<_> =
                prompts.iter().map(|pr| engine.submit(pr).expect("valid prompt")).collect();
            let report = engine.run();
            let tokens: Vec<Vec<u32>> = ids
                .iter()
                .map(|id| report.request(*id).expect("finished").tokens.clone())
                .collect();
            outputs.push((step_mode, threads, tokens));
        }
    }

    let (_, _, reference) = &outputs[0];
    for (prompt, got) in prompts.iter().zip(reference) {
        let solo = p.generate(prompt, n);
        assert_eq!(got, &solo, "batched output diverged from solo for {prompt:?}");
    }
    for (mode, threads, tokens) in &outputs[1..] {
        assert_eq!(tokens, reference, "{mode:?} with num_threads={threads} diverged");
    }
}

/// The pool under churn: requests retire mid-run (staggered limits) while
/// new ones are admitted from the queue, across thread counts. Chunk
/// boundaries shift every step as the batch shrinks and refills; output
/// must not.
#[test]
fn pool_is_deterministic_under_mid_run_admission_and_retirement() {
    let p = pipeline();
    let prompts: Vec<Vec<u32>> =
        (0..12u32).map(|i| (0..(i % 4 + 1)).map(|j| (i * 11 + j * 5) % 64).collect()).collect();
    // Staggered limits: retirements at different steps reshuffle the batch.
    let limit = |i: usize| 3 + (i * 5) % 9;

    let run = |step_mode: StepMode, threads: usize| -> Vec<Vec<u32>> {
        let config = ServeConfig {
            max_batch: 4,
            max_tokens: 16,
            num_threads: threads,
            step_mode,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(p.student(), config);
        // Submit in two waves with steps in between, so admission happens
        // both into a fresh batch and into one mid-decode.
        let mut ids = Vec::new();
        for (i, pr) in prompts[..6].iter().enumerate() {
            ids.push(engine.submit_with_limit(pr, limit(i)).expect("valid prompt"));
        }
        for _ in 0..5 {
            engine.step();
        }
        for (i, pr) in prompts[6..].iter().enumerate() {
            ids.push(engine.submit_with_limit(pr, limit(6 + i)).expect("valid prompt"));
        }
        let report = engine.run();
        ids.iter().map(|id| report.request(*id).expect("finished").tokens.clone()).collect()
    };

    let reference = run(StepMode::Auto, 1);
    for (i, tokens) in reference.iter().enumerate() {
        assert_eq!(tokens.len(), limit(i), "request {i} must run to its own limit");
        assert_eq!(tokens, &p.generate(&prompts[i], limit(i)), "request {i} diverged from solo");
    }
    for step_mode in MODES {
        for threads in [2usize, 4, 16] {
            assert_eq!(
                run(step_mode, threads),
                reference,
                "{step_mode:?} with num_threads={threads} diverged under churn"
            );
        }
    }
}

/// Chunked, fairness-aware admission under every dispatch mode: long
/// prompts consumed a few positions per step, interleaved with decode,
/// while slots churn — output must be identical to the solo run for every
/// `prefill_chunk`, `StepMode` and thread count (prefill grants are fixed
/// by scheduler state before any fan-out, so workers cannot race on them).
#[test]
fn chunked_admission_is_deterministic_across_modes_and_threads() {
    let p = pipeline();
    // Long prompts (up to 23 tokens) so small chunks genuinely span many
    // steps; lengths staggered so prefill completions interleave with
    // decode and retirement.
    let prompts: Vec<Vec<u32>> =
        (0..8u32).map(|i| (0..(5 + i * 3)).map(|j| (i * 13 + j * 7) % 64).collect()).collect();
    let n = 6;

    let run = |step_mode: StepMode, threads: usize, chunk: usize| -> Vec<Vec<u32>> {
        let config = ServeConfig {
            max_batch: 3,
            max_tokens: n,
            num_threads: threads,
            step_mode,
            prefill_chunk: chunk,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(p.student(), config);
        let ids: Vec<_> =
            prompts.iter().map(|pr| engine.submit(pr).expect("valid prompt")).collect();
        let report = engine.run();
        ids.iter().map(|id| report.request(*id).expect("finished").tokens.clone()).collect()
    };

    let reference = run(StepMode::Auto, 1, 3);
    for (prompt, got) in prompts.iter().zip(&reference) {
        assert_eq!(got, &p.generate(prompt, n), "chunked output diverged from solo");
    }
    for step_mode in MODES {
        for threads in [1usize, 4, 16] {
            for chunk in [1usize, 3, 7, usize::MAX] {
                assert_eq!(
                    run(step_mode, threads, chunk),
                    reference,
                    "{step_mode:?} threads={threads} chunk={chunk} diverged"
                );
            }
        }
    }
}

/// Dropping an engine mid-flight — queued requests, active sequences, pool
/// threads spawned — must join every worker and return; repeatedly, so a
/// leaked thread or wedged channel would show up as a hang or as resource
/// exhaustion across iterations.
#[test]
fn engine_drop_with_work_pending_shuts_down_cleanly() {
    let p = pipeline();
    for step_mode in [StepMode::ForcePool, StepMode::Auto] {
        for _ in 0..8 {
            let config = ServeConfig {
                max_batch: 4,
                max_tokens: 64,
                num_threads: 16,
                step_mode,
                ..ServeConfig::default()
            };
            let mut engine = ServeEngine::new(p.student(), config);
            for i in 0..8u32 {
                engine.submit(&[i, i + 1]).expect("valid prompt");
            }
            for _ in 0..3 {
                engine.step();
            }
            assert!(!engine.is_idle());
            drop(engine); // joins the pool with 4 active + 4 queued requests
        }
    }
    // Dropping an engine whose pool was never spawned (no step fanned out)
    // must be equally clean.
    let config = ServeConfig { max_batch: 2, max_tokens: 4, ..ServeConfig::default() };
    let mut engine = ServeEngine::new(p.student(), config);
    engine.submit(&[1]).expect("valid prompt");
    drop(engine);
}

/// Mid-stream admission under 4 threads: late joiners must not perturb
/// in-flight sequences, and vice versa.
#[test]
fn parallel_mid_stream_admission_is_isolated() {
    let p = pipeline();
    let early: [&[u32]; 3] = [&[1, 2, 3], &[7, 8], &[20, 21, 22, 23, 24]];
    let late: &[u32] = &[40, 41];
    let n = 10;

    let config = ServeConfig {
        max_batch: 4,
        max_tokens: n,
        num_threads: 4,
        step_mode: StepMode::ForcePool,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(p.student(), config);
    let early_ids: Vec<_> =
        early.iter().map(|pr| engine.submit(pr).expect("valid prompt")).collect();
    for _ in 0..4 {
        engine.step();
    }
    let late_id = engine.submit(late).expect("valid prompt");
    while !engine.is_idle() {
        engine.step();
    }
    let report = engine.report(std::time::Duration::from_secs(1));

    for (prompt, id) in early.iter().zip(&early_ids) {
        assert_eq!(report.request(*id).expect("finished").tokens, p.generate(prompt, n));
    }
    assert_eq!(report.request(late_id).expect("finished").tokens, p.generate(late, n));
}

/// Per-request sampling: a sampled request's output depends only on its
/// own (sampler, seed), not on batch composition or thread count.
#[test]
fn per_request_sampling_is_deterministic_across_batches_and_threads() {
    let p = pipeline();
    let sampled = SamplingParams { sampler: Sampler::Temperature(1.0), seed: 99 };
    let n = 10;

    let run = |threads: usize, with_neighbours: bool| -> Vec<u32> {
        let config = ServeConfig {
            max_batch: 8,
            max_tokens: n,
            num_threads: threads,
            step_mode: StepMode::ForcePool,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(p.student(), config);
        if with_neighbours {
            engine.submit(&[4, 5, 6]).expect("valid prompt");
        }
        let id = engine
            .submit_request(Request::new(&[1, 2]).with_limit(n).with_sampling(sampled))
            .expect("valid request");
        if with_neighbours {
            engine.submit(&[9]).expect("valid prompt");
        }
        let report = engine.run();
        report.request(id).expect("finished").tokens.clone()
    };

    let alone_1t = run(1, false);
    let crowded_1t = run(1, true);
    let crowded_4t = run(4, true);
    assert_eq!(alone_1t, crowded_1t, "batch neighbours changed sampled output");
    assert_eq!(crowded_1t, crowded_4t, "thread count changed sampled output");
    assert_eq!(alone_1t.len(), n);

    // The sampled stream must match the single-sequence sampling loop with
    // the same policy and seed — one shared decode path end to end.
    let solo = opal_model::sampling::generate(p.student(), &[1, 2], n, sampled.sampler, 99);
    assert_eq!(alone_1t, solo, "engine sampling diverged from sampling::generate");
}

/// Greedy requests through `submit_request` are identical to `submit`.
#[test]
fn greedy_request_matches_plain_submit() {
    let p = pipeline();
    let n = 8;
    let config = ServeConfig {
        max_batch: 2,
        max_tokens: n,
        num_threads: 2,
        step_mode: StepMode::ForcePool,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(p.student(), config);
    let a = engine.submit(&[3, 1, 4]).expect("valid prompt");
    let b = engine
        .submit_request(Request::new(&[3, 1, 4]).with_sampling(SamplingParams::default()))
        .expect("valid request");
    let report = engine.run();
    assert_eq!(report.request(a).unwrap().tokens, report.request(b).unwrap().tokens);
}
