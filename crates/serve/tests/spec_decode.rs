//! Speculative decoding: output identity and rollback accounting.
//!
//! The speculation contract is absolute — draft/verify may only change
//! *when* tokens are emitted, never *what*: every configuration (depth
//! `k`, KV scheme, step mode, thread count, preemption, cancellation) must reproduce the non-speculative engine's token
//! streams and finish reasons bit-for-bit, and every rejected draft tail
//! must roll its KV blocks back without leaking a single one.

use opal_model::sampling::Sampler;
use opal_model::{Model, ModelConfig, QuantScheme};
use opal_serve::{
    DraftSource, FinishReason, KvScheme, Request, SamplingParams, ServeConfig, ServeEngine,
    SpecConfig, StepMode,
};
use proptest::prelude::*;

fn model() -> Model {
    Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 42).expect("tiny model")
}

const MODES: [StepMode; 2] = [StepMode::Auto, StepMode::ForcePool];

fn prompts(n: usize) -> Vec<Vec<u32>> {
    (0..n as u32).map(|i| (0..8).map(|j| (i * 17 + j * 3 + 1) % 64).collect()).collect()
}

/// Runs `prompts` to completion under `config`; request 1 (when present)
/// samples with temperature so the RNG-cloning acceptance path is always
/// exercised alongside greedy. Returns per-request token streams and the
/// final report.
fn run_all(
    m: &Model,
    config: ServeConfig,
    prompts: &[Vec<u32>],
    limit: usize,
) -> (Vec<Vec<u32>>, opal_serve::ServeReport) {
    let mut engine = ServeEngine::new(m, config);
    let mut ids = Vec::new();
    for (i, pr) in prompts.iter().enumerate() {
        let mut req = Request::new(pr).with_limit(limit);
        if i == 1 {
            req =
                req.with_sampling(SamplingParams { sampler: Sampler::Temperature(0.8), seed: 99 });
        }
        ids.push(engine.submit_request(req).expect("valid request"));
    }
    let report = engine.run();
    let tokens =
        ids.iter().map(|id| report.request(*id).expect("finished").tokens.clone()).collect();
    (tokens, report)
}

/// On a periodic prompt the n-gram draft proposes the stream's own next
/// tokens, so greedy verification accepts whole proposals: some step must
/// draft `k` tokens, accept all `k`, and emit `k + 1` — the sampled token
/// plus every accepted one — while the stream stays the plain engine's.
#[test]
fn ngram_draft_on_a_periodic_prompt_accepts_whole_proposals() {
    let m = model();
    let prompt: Vec<u32> = (0..16).map(|i| [5u32, 9, 13][i % 3]).collect();
    // Long enough for the greedy stream to fall into its own loop.
    let limit = 48;
    let base = ServeConfig { max_batch: 1, max_tokens: limit, ..ServeConfig::default() };
    let (plain, _) = run_all(&m, base, std::slice::from_ref(&prompt), limit);
    for k in 1..=4usize {
        let cfg = ServeConfig { spec: Some(SpecConfig { draft: DraftSource::NGram, k }), ..base };
        let mut engine = ServeEngine::new(&m, cfg);
        let id = engine.submit_with_limit(&prompt, limit).expect("valid prompt");
        let mut whole = 0;
        while !engine.is_idle() {
            let summary = engine.step();
            let work = engine.last_step_work();
            if work[0].drafted == k && work[0].accepted == k {
                assert_eq!(summary.generated, k + 1, "a whole accepted proposal at k={k}");
                whole += 1;
            }
        }
        assert!(whole > 0, "no step accepted a whole proposal at k={k}");
        let report = engine.report(std::time::Duration::from_secs(1));
        assert_eq!(report.request(id).expect("finished").tokens, plain[0], "k={k}");
        // Accepted tokens ride along with sampled ones: fewer steps than
        // tokens (the first step only prefills and samples).
        assert!(report.steps < limit as u64, "{} steps for {limit} tokens at k={k}", report.steps);
    }
}

/// Every depth × KV scheme must match the plain engine's token streams
/// under batched serving with a stochastic sampler in the mix, and leave
/// zero blocks behind once drained and dropped.
#[test]
fn spec_output_is_bit_identical_across_sources_depths_and_schemes() {
    let m = model();
    let ps = prompts(3);
    let limit = 10;
    let low_bits = KvScheme::MxOpal { bits: 4, qblock: 32, outliers: 2 };
    for scheme in [KvScheme::Exact, KvScheme::mxopal(), low_bits] {
        let base = ServeConfig {
            max_batch: 3,
            max_tokens: limit,
            block_size: 4,
            kv_scheme: scheme,
            ..ServeConfig::default()
        };
        let (plain, _) = run_all(&m, base, &ps, limit);
        for k in 1..=4usize {
            let cfg =
                ServeConfig { spec: Some(SpecConfig { draft: DraftSource::NGram, k }), ..base };
            let mut engine = ServeEngine::new(&m, cfg);
            let ids: Vec<_> = ps
                .iter()
                .enumerate()
                .map(|(i, pr)| {
                    let mut req = Request::new(pr).with_limit(limit);
                    if i == 1 {
                        req = req.with_sampling(SamplingParams {
                            sampler: Sampler::Temperature(0.8),
                            seed: 99,
                        });
                    }
                    engine.submit_request(req).expect("valid request")
                })
                .collect();
            let report = engine.run();
            for (i, id) in ids.iter().enumerate() {
                let r = report.request(*id).expect("finished");
                assert_eq!(r.finish, FinishReason::Limit);
                assert_eq!(r.tokens, plain[i], "diverged: scheme {scheme:?}, k={k}, request {i}");
            }
            let audit = engine.audit();
            assert!(audit.is_clean(), "audit after drain: {:#?}", audit.violations);
            let pool = engine.kv_pool().clone();
            drop(engine);
            assert_eq!(pool.in_use(), 0, "leaked blocks: scheme {scheme:?}, k={k}");
        }
    }
}

/// Speculation must survive preemption and resume without changing a
/// token: a pool sized to thrash forces preempt→re-admit cycles, the
/// speculation state is dropped with the sequence and rebuilt at
/// re-admission, and the output still matches the unconstrained
/// non-speculative run.
#[test]
fn spec_survives_preemption_and_resume() {
    let m = model();
    let nl = m.config().n_layers;
    let ps = prompts(4);
    let limit = 8;
    let unconstrained =
        ServeConfig { max_batch: 4, max_tokens: limit, block_size: 4, ..ServeConfig::default() };
    let (plain, plain_report) = run_all(&m, unconstrained, &ps, limit);
    assert_eq!(plain_report.preemptions, 0);

    let tight = ServeConfig {
        // Tight enough to preempt, roomy enough for the feasibility gate
        // (prompt 8 + limit 8 + k 3 − 1 = 18 positions → 5+1 blocks ×
        // layers = 12; two residents peak at 16).
        max_blocks: nl * 7,
        spec: Some(SpecConfig { draft: DraftSource::NGram, k: 3 }),
        ..unconstrained
    };
    let (tokens, report) = run_all(&m, tight, &ps, limit);
    assert!(report.preemptions > 0, "pool of {} blocks was sized to force preemption", nl * 7);
    assert_eq!(tokens, plain, "preempt→resume changed output under speculation");
}

/// Cancelling mid-flight while drafts are in play: the partial stream
/// must be a prefix of the plain run's, and the cancelled sequence's
/// blocks — including any speculative rows awaiting rollback — must all
/// return to the pool.
#[test]
fn cancel_mid_draft_releases_every_block() {
    let m = model();
    let ps = prompts(2);
    let limit = 16;
    let base = ServeConfig { max_batch: 2, max_tokens: limit, ..ServeConfig::default() };
    let (plain, _) = run_all(&m, base, &ps, limit);

    let cfg = ServeConfig { spec: Some(SpecConfig { draft: DraftSource::NGram, k: 4 }), ..base };
    let mut engine = ServeEngine::new(&m, cfg);
    let ids: Vec<_> = ps.iter().map(|pr| engine.submit(pr).expect("valid prompt")).collect();
    for _ in 0..3 {
        engine.step();
    }
    assert!(engine.cancel(ids[0]), "request 0 should be in flight");
    let report = engine.run();
    let cancelled = report.request(ids[0]).expect("reported");
    assert_eq!(cancelled.finish, FinishReason::Cancelled);
    assert!(
        plain[0].starts_with(&cancelled.tokens),
        "cancelled stream is not a prefix of the plain run"
    );
    let survivor = report.request(ids[1]).expect("finished");
    // Request 1 carries the temperature sampler in `run_all`; here both
    // were greedy, so compare against the greedy plain run directly.
    assert_eq!(survivor.tokens.len(), limit);
    let audit = engine.audit();
    assert!(audit.is_clean(), "audit after cancel: {:#?}", audit.violations);
    let pool = engine.kv_pool().clone();
    drop(engine);
    assert_eq!(pool.in_use(), 0, "cancel mid-draft leaked blocks");
}

/// The n-gram draft feeds on repetition: a looping prompt must produce
/// n-gram hits, and still match the plain engine exactly.
#[test]
fn ngram_draft_accepts_on_repetitive_streams() {
    let m = model();
    let prompt: Vec<u32> = (0..16).map(|i| [5u32, 9, 13][i % 3]).collect();
    let limit = 20;
    let base = ServeConfig { max_batch: 1, max_tokens: limit, ..ServeConfig::default() };
    let (plain, _) = run_all(&m, base, std::slice::from_ref(&prompt), limit);
    let cfg = ServeConfig { spec: Some(SpecConfig { draft: DraftSource::NGram, k: 3 }), ..base };
    let (tokens, report) = run_all(&m, cfg, &[prompt], limit);
    assert_eq!(tokens, plain);
    assert!(report.drafted_tokens > 0, "a periodic stream must produce n-gram hits");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary (scheme, k, threads, mode) points: token streams
    /// and finish reasons equal the plain single-threaded run, and the
    /// drained pool holds only prefix-cache blocks (audited clean).
    #[test]
    fn spec_matches_plain_engine_everywhere(
        scheme_ix in 0usize..3,
        k in 1usize..=4,
        threads in 1usize..=4,
        mode_ix in 0usize..MODES.len(),
        seed in 0u32..50,
    ) {
        let m = model();
        let low_bits = KvScheme::MxOpal { bits: 4, qblock: 32, outliers: 2 };
        let scheme = [KvScheme::Exact, KvScheme::mxopal(), low_bits][scheme_ix];
        let ps: Vec<Vec<u32>> = (0..3u32)
            .map(|i| (0..6).map(|j| (seed + i * 29 + j * 5) % 64).collect())
            .collect();
        let limit = 8;
        let base = ServeConfig {
            max_batch: 3,
            max_tokens: limit,
            block_size: 4,
            kv_scheme: scheme,
            ..ServeConfig::default()
        };
        let (plain, _) = run_all(&m, base, &ps, limit);
        let cfg = ServeConfig {
            spec: Some(SpecConfig { draft: DraftSource::NGram, k }),
            num_threads: threads,
            step_mode: MODES[mode_ix],
            ..base
        };
        let mut engine = ServeEngine::new(&m, cfg);
        let ids: Vec<_> = ps
            .iter()
            .enumerate()
            .map(|(i, pr)| {
                let mut req = Request::new(pr).with_limit(limit);
                if i == 1 {
                    req = req.with_sampling(SamplingParams {
                        sampler: Sampler::Temperature(0.8),
                        seed: 99,
                    });
                }
                engine.submit_request(req).expect("valid request")
            })
            .collect();
        let report = engine.run();
        for (i, id) in ids.iter().enumerate() {
            let r = report.request(*id).expect("finished");
            prop_assert_eq!(r.finish, FinishReason::Limit);
            prop_assert_eq!(
                &r.tokens, &plain[i],
                "scheme {:?} k={} threads={} mode={:?}",
                scheme, k, threads, MODES[mode_ix]
            );
        }
        let audit = engine.audit();
        prop_assert!(audit.is_clean(), "audit: {:#?}", audit.violations);
        let pool = engine.kv_pool().clone();
        drop(engine);
        prop_assert_eq!(pool.in_use(), 0, "dropped engine must free every block");
    }
}
