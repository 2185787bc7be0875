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
//!
//! What quantized pages buy and cost is exact on the served proxy
//! (`llama2_7b().proxy(128, 4, 192)`, weight seed 21, KV block 16): pool
//! bytes per token, sequences resident at one byte budget, and greedy
//! agreement with the exact cache under teacher forcing.

use std::sync::Arc;

use opal::{ModelConfig, OpalPipeline, OperatingPoint};
use opal_model::sampling::Sampler;
use opal_model::{BlockPool, Model, QuantScheme};
use opal_serve::{
    FinishReason, KvScheme, Request, SamplingParams, ServeConfig, ServeEngine, StepMode,
    REORDER_STARVATION_BOUND,
};
use opal_tensor::ops;

fn pipeline() -> OpalPipeline {
    OpalPipeline::new(ModelConfig::tiny(), OperatingPoint::W4A47, 42).expect("valid point")
}

const MODES: [StepMode; 2] = [StepMode::Auto, StepMode::ForcePool];

/// Quantized KV under pressure: every StepMode × thread-count combination
/// must reproduce the single-threaded uncontended run bit-for-bit, and a
/// pool small enough to force preemption must resume every sequence onto
/// re-encoded pages without changing a token — including a
/// temperature-sampled request whose RNG crosses the preemption. The pages
/// are `mxopal()`'s on the W4A4/7 model and MXINT-4/7's own site pages.
#[test]
fn quantized_kv_is_deterministic_across_modes_threads_and_preemption() {
    let p = pipeline();
    let mxint = Model::new(ModelConfig::tiny(), QuantScheme::mxint_w4a47(), 42).expect("valid");
    let prompts: Vec<Vec<u32>> =
        (0..4u32).map(|i| (0..8).map(|j| (i * 17 + j * 3 + 1) % 64).collect()).collect();
    let n = 6;
    let sampled = SamplingParams { sampler: Sampler::Temperature(1.0), seed: 7 };

    let run = |model: &Model, kv: KvScheme, max_blocks: usize, mode: StepMode, threads: usize| {
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
        let mut engine = ServeEngine::new(model, config);
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

    for (model, kv) in [(p.student(), KvScheme::mxopal()), (&mxint, KvScheme::Exact)] {
        let kv = model.kv_scheme(kv);
        assert!(kv.quantized(), "{kv:?}");
        let (reference, baseline_preemptions) = run(model, kv, usize::MAX, StepMode::Auto, 1);
        assert_eq!(baseline_preemptions, 0, "an unbounded pool must never preempt");
        for tokens in &reference {
            assert_eq!(tokens.len(), n);
        }
        for mode in MODES {
            for threads in [1usize, 4] {
                let (uncontended, _) = run(model, kv, usize::MAX, mode, threads);
                assert_eq!(
                    uncontended, reference,
                    "{kv:?} {mode:?} threads={threads} diverged uncontended"
                );
                // 12 blocks can hold barely more than one sequence's worst
                // case (same block geometry as the exact cache), so
                // concurrent progress forces preempt→resume cycles.
                let (pressured, preemptions) = run(model, kv, 12, mode, threads);
                assert!(preemptions > 0, "a 12-block pool must preempt under this load");
                assert_eq!(
                    pressured, reference,
                    "{kv:?} {mode:?} threads={threads}: preemption changed quantized output"
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

/// KV block size of the served proxy's pools.
const BLOCK: usize = 16;

fn proxy() -> Model {
    Model::new(ModelConfig::llama2_7b().proxy(128, 4, 192), QuantScheme::bf16(), 21)
        .expect("proxy model")
}

/// Pool bytes per resident token: a K and a V page per layer, over the
/// tokens a page holds.
fn pool_bytes_per_token(config: &ModelConfig, scheme: KvScheme) -> f64 {
    (config.n_layers * 2 * scheme.page_bytes(BLOCK, config.d_model)) as f64 / BLOCK as f64
}

#[test]
fn quantized_pages_shrink_pool_bytes_per_token() {
    let config = ModelConfig::llama2_7b().proxy(128, 4, 192);
    let exact = pool_bytes_per_token(&config, KvScheme::Exact);
    let q8 = pool_bytes_per_token(&config, KvScheme::mxopal());
    assert!(exact / q8 >= 3.0, "mxopal pages: {q8} B/token against {exact} exact");
}

/// `KvScheme::Exact` builds the pool in the K/V site's own format: the
/// codes the site quantizer made on the served W4A4/7 proxy (1176 B a
/// token, as `mxopal()`'s pages), bf16 pages on the bf16 one (2048 B, half
/// the 4096 B of `f32` rows).
#[test]
fn exact_pools_hold_the_kv_sites_format() {
    let site7 = KvScheme::MxOpal { bits: 7, qblock: 128, outliers: 4 };
    for (scheme, site, bytes) in [
        (OperatingPoint::W4A47.scheme(), site7, 1176.0),
        (QuantScheme::bf16(), KvScheme::Bf16, 2048.0),
    ] {
        let name = scheme.name.clone();
        let model = Model::new(ModelConfig::llama2_7b().proxy(128, 4, 192), scheme, 21)
            .expect("proxy model");
        let config = ServeConfig { block_size: BLOCK, ..ServeConfig::default() };
        assert_eq!(config.kv_scheme, KvScheme::Exact);
        let engine = ServeEngine::new(&model, config);
        let pool = engine.kv_pool();
        assert_eq!(pool.scheme(), site, "{name}");
        assert_eq!(pool_bytes_per_token(model.config(), pool.scheme()), bytes, "{name}");
    }
}

/// Peak resident sequences while a `max_blocks`-bounded pool drains 24
/// cache-cold requests (40-token prompts, 24 new tokens). Submissions
/// interleave with steps, so each admission sees the blocks earlier
/// prefills took: the byte budget binds, not the submission cadence.
fn peak_resident(model: &Model, kv_scheme: KvScheme, max_blocks: usize) -> usize {
    let n_requests = 24u32;
    let config = ServeConfig {
        max_batch: n_requests as usize,
        max_tokens: 24,
        prefill_chunk: usize::MAX,
        max_blocks,
        kv_scheme,
        prefix_sharing: false,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(model, config);
    let vocab = model.config().vocab as u32;
    for i in 0..n_requests {
        let p: Vec<u32> = (0..40).map(|j| (i * 31 + j * 7 + 21) % vocab).collect();
        engine.submit(&p).expect("valid prompt");
        engine.step();
    }
    engine.run().peak_batch
}

/// One KV byte budget, translated into each scheme's block bound. A
/// request takes 4 blocks a layer (64 positions), so the exact cache parks
/// 3 sequences where the same bytes hold 3.5x the 8-bit blocks. The two
/// drains run on their own threads (they are slow unoptimized).
#[test]
fn quantized_pages_hold_more_sequences_at_one_byte_budget() {
    let model = &proxy();
    let (n_layers, d) = (model.config().n_layers, model.config().d_model);
    let budget_bytes = n_layers * 12 * 2 * KvScheme::Exact.page_bytes(BLOCK, d);
    let [exact, q8] = std::thread::scope(|s| {
        [KvScheme::Exact, KvScheme::mxopal()]
            .map(|scheme| {
                let max_blocks = budget_bytes / (2 * scheme.page_bytes(BLOCK, d));
                s.spawn(move || peak_resident(model, scheme, max_blocks))
            })
            .map(|drain| drain.join().expect("drain"))
    });
    assert!(exact > 0, "the exact cache held no sequence");
    assert!(q8 >= 2 * exact, "mxopal: {q8} resident against {exact} exact");
}

/// Share of greedy picks on `scheme`'s pages that equal the exact cache's,
/// teacher-forced on the exact stream: four short prompts, 24 steps each.
fn greedy_agreement(model: &Model, scheme: KvScheme) -> f64 {
    let (d, vocab) = (model.config().d_model, model.config().vocab as u32);
    let exact_pool = Arc::new(BlockPool::with_scheme(BLOCK, d, usize::MAX, KvScheme::Exact));
    let quant_pool = Arc::new(BlockPool::with_scheme(BLOCK, d, usize::MAX, scheme));
    let (mut agree, mut total) = (0usize, 0usize);
    for i in 0..4u32 {
        let prompt: Vec<u32> = (0..i % 5 + 2).map(|j| (i * 13 + j * 5 + 21) % vocab).collect();
        let mut exact = model.begin_decode_paged(&exact_pool);
        let mut quant = model.begin_decode_paged(&quant_pool);
        let (last, head) = prompt.split_last().expect("non-empty prompt");
        for &t in head {
            model.decode_step(&mut exact, t);
            model.decode_step(&mut quant, t);
        }
        let mut next = *last;
        for _ in 0..24 {
            let pick_exact = ops::argmax(&model.decode_step(&mut exact, next)).expect("logits");
            let pick_quant = ops::argmax(&model.decode_step(&mut quant, next)).expect("logits");
            total += 1;
            agree += usize::from(pick_exact == pick_quant);
            next = pick_exact as u32;
        }
    }
    agree as f64 / total as f64
}

#[test]
fn quantized_pages_keep_greedy_agreement() {
    let model = proxy();
    let q8 = greedy_agreement(&model, KvScheme::mxopal());
    assert_eq!(q8, 1.0, "mxopal pages changed a greedy pick");
}
