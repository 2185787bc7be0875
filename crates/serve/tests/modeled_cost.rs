//! The modeled-platform cost of served steps, through the one path that
//! prices them (`opal_serve::step_workload` → `Accelerator::energy`).
//!
//! The engine's `energy_j` must be exactly the per-step sum of that path
//! over `last_step_work()`, and the paper's cost orderings must come out of
//! it: a batch shares a step's weight stream and leakage, MX-OPAL KV pages
//! stream fewer bytes than `f32` ones, and a fused verify pass buys several
//! tokens with one weight stream — at least 1.5x the modeled tok/s of plain
//! decode at batch 1 and 4 on the served proxy.

use opal_hw::accelerator::{Accelerator, AcceleratorKind};
use opal_hw::performance::{workload_latency, Platform};
use opal_hw::workload::DataFormat;
use opal_model::{Model, ModelConfig, QuantScheme};
use opal_serve::{
    step_workload, DraftSource, KvScheme, ServeConfig, ServeEngine, ServeReport, SpecConfig,
};

fn accelerator() -> Accelerator {
    Accelerator::new(AcceleratorKind::OpalW4A47)
}

fn tiny() -> Model {
    Model::new(ModelConfig::tiny(), QuantScheme::mxopal_w4a47(), 7).expect("tiny model")
}

/// Drains `prompts` (each generating `limit` tokens) with an accelerator
/// attached; returns the report.
fn drain(model: &Model, config: ServeConfig, prompts: &[Vec<u32>], limit: usize) -> ServeReport {
    let mut engine = ServeEngine::new(model, config).with_accelerator(accelerator());
    for p in prompts {
        engine.submit_with_limit(p, limit).expect("valid prompt");
    }
    engine.run()
}

fn per_token_j(report: &ServeReport) -> f64 {
    report.energy_j / report.generated_tokens as f64
}

fn prompts(n: usize, len: usize, vocab: usize) -> Vec<Vec<u32>> {
    (0..n).map(|i| (0..len).map(|j| ((i * 53 + j * 19) % vocab) as u32).collect()).collect()
}

#[test]
fn energy_is_the_per_step_sum_of_step_workload() {
    // Chunked prefill beside decode rows, n-gram speculation (fused
    // verify passes) and quantized KV pages: every field of a step record
    // reaches the price.
    let model = tiny();
    for kv_scheme in [KvScheme::Exact, KvScheme::mxopal()] {
        assert_energy_is_the_per_step_sum(&model, kv_scheme);
    }
}

fn assert_energy_is_the_per_step_sum(model: &Model, kv_scheme: KvScheme) {
    let config = ServeConfig {
        max_batch: 3,
        prefill_chunk: 5,
        kv_scheme,
        spec: Some(SpecConfig { draft: DraftSource::NGram, k: 2 }),
        ..ServeConfig::default()
    };
    let acc = accelerator();
    let mut engine = ServeEngine::new(model, config).with_accelerator(acc.clone());
    // Priced at the bits the pool's pages hold: its resolved scheme (the
    // K/V site's codes for `Exact` on this MX-OPAL model).
    let mut format = acc.kind().format();
    format.kv_bits = engine.kv_pool().scheme().bits_per_element(model.config().d_model);

    for p in prompts(4, 12, model.config().vocab) {
        engine.submit_with_limit(&p, 10).expect("valid prompt");
    }
    let (mut expected, mut verified) = (0.0f64, 0);
    while !engine.is_idle() {
        let before = engine.steps();
        engine.step();
        if engine.steps() == before {
            continue;
        }
        let work = engine.last_step_work();
        verified += work.iter().filter(|w| w.verify_rows > 0).count();
        let step = step_workload(model.config(), &format, work);
        let latency_s = workload_latency(&step, &format, &Platform::reference()).total_s();
        expected += acc.energy(&step, latency_s).total_j();
    }
    assert!(verified > 0, "speculation never ran");
    let report = engine.report(std::time::Duration::from_secs(1));
    assert!(report.energy_j > 0.0);
    assert_eq!(report.energy_j.to_bits(), expected.to_bits(), "{} vs {expected}", report.energy_j);
}

#[test]
fn batch_16_costs_less_per_token_than_batch_1() {
    let model = tiny();
    let set = prompts(16, 8, model.config().vocab);
    let config = |max_batch| ServeConfig { max_batch, ..ServeConfig::default() };
    let lone = per_token_j(&drain(&model, config(1), &set[..1], 16));
    let batched = per_token_j(&drain(&model, config(16), &set, 16));
    assert!(batched < lone, "batch 16 {batched:e} J/token, batch 1 {lone:e} J/token");
}

#[test]
fn mxopal_kv_pages_cost_less_than_exact_at_long_context() {
    // MinMax activation sites keep `f32` pages under `KvScheme::Exact`; on
    // an MX-OPAL model `Exact` already stores the site's codes, as many
    // bytes as `mxopal()`'s.
    let model = Model::new(ModelConfig::tiny(), QuantScheme::minmax_w4a47(), 7).expect("tiny");
    let vocab = model.config().vocab;
    let saving = |prompt_len: usize| {
        let set = prompts(1, prompt_len, vocab);
        let run = |kv_scheme| {
            let config = ServeConfig { kv_scheme, ..ServeConfig::default() };
            per_token_j(&drain(&model, config, &set, 8))
        };
        1.0 - run(KvScheme::mxopal()) / run(KvScheme::Exact)
    };
    let long = saving(512);
    assert!(long > 0.0, "MX-OPAL pages must cost less than exact ones at 512: {long}");
    // KV traffic is what grows with context, so the saving does too.
    let short = saving(16);
    assert!(long > short, "saving at 512 ({long}) not above saving at 16 ({short})");
}

/// The served proxy (`llama2_7b().proxy(128, 4, 192)`, bf16, weight seed 21).
fn proxy() -> Model {
    let config = ModelConfig::llama2_7b().proxy(128, 4, 192);
    Model::new(config, QuantScheme::bf16(), 21).expect("proxy model")
}

#[test]
fn ngram_speculation_costs_less_than_plain_decode_on_repetitive_prompts() {
    // The served proxy, whose greedy streams settle into the cycles an
    // n-gram draft predicts.
    let model = proxy();
    let vocab = model.config().vocab as u32;
    // Periodic motifs, as in `spec_prompts`.
    let set: Vec<Vec<u32>> = (0..2u32)
        .map(|i| (0..24u32).map(|j| (i * 29 + (j % (3 + i)) * 11) % vocab).collect())
        .collect();
    let config = |spec| ServeConfig { max_batch: 2, spec, ..ServeConfig::default() };
    let plain = drain(&model, config(None), &set, 96);
    let ngram = SpecConfig { draft: DraftSource::NGram, k: 4 };
    let spec = drain(&model, config(Some(ngram)), &set, 96);
    assert!(spec.acceptance_rate() > 0.0, "the n-gram draft never hit");
    let (plain, spec) = (per_token_j(&plain), per_token_j(&spec));
    assert!(spec < plain, "n-gram {spec:e} J/token, plain {plain:e} J/token");
}

/// Draft tokens proposed per speculative step on the proxy.
const SPEC_K: usize = 4;

/// Tokens each speculative-floor request generates: long enough that the
/// streams reach their cyclic regime.
const SPEC_NEW_TOKENS: usize = 256;

/// 24-token periodic motifs (period 3 + i mod 3). The proxy's greedy
/// continuations first wander, then settle into cycles, so the n-gram
/// draft sees cold misses early and long accepted runs late.
fn spec_prompts(batch: usize, vocab: usize) -> Vec<Vec<u32>> {
    (0..batch as u32)
        .map(|i| {
            let period = 3 + i % 3;
            (0..24u32).map(|j| (i * 29 + (j % period) * 11 + 21) % vocab as u32).collect()
        })
        .collect()
}

/// One drained run of the proxy over [`spec_prompts`], plain or
/// speculative.
struct SpecDrain {
    tokens: Vec<Vec<u32>>,
    generated: usize,
    /// The decode steps (all but the first, which takes the prompts)
    /// priced on the OPAL reference platform, rolled-back verify rows
    /// included.
    modeled_decode_s: f64,
}

impl SpecDrain {
    fn modeled_tok_s(&self) -> f64 {
        self.generated as f64 / self.modeled_decode_s
    }
}

/// Drains `batch` requests with prefix sharing off (the trie keeps prompt
/// blocks after retirement by design), then checks the drained engine: a
/// clean audit and no KV block still in use.
fn spec_drain(model: &Model, batch: usize, spec: Option<SpecConfig>) -> SpecDrain {
    let (format, platform) = (DataFormat::bf16(), Platform::reference());
    let config = ServeConfig {
        max_batch: batch,
        max_tokens: SPEC_NEW_TOKENS,
        prefill_chunk: usize::MAX,
        prefix_sharing: false,
        spec,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(model, config);
    let ids: Vec<_> = spec_prompts(batch, model.config().vocab)
        .iter()
        .map(|p| engine.submit(p).expect("valid prompt"))
        .collect();
    engine.step();
    let (mut generated, mut modeled_decode_s) = (0usize, 0.0f64);
    while !engine.is_idle() {
        generated += engine.step().generated;
        let step = step_workload(model.config(), &format, engine.last_step_work());
        modeled_decode_s += workload_latency(&step, &format, &platform).total_s();
    }
    let audit = engine.audit();
    assert!(audit.violations.is_empty(), "audit violations: {:?}", audit.violations);
    assert_eq!(engine.kv_pool().in_use(), 0, "a drained engine still holds KV blocks");
    let report = engine.report(std::time::Duration::from_secs(1));
    let tokens =
        ids.iter().map(|id| report.request(*id).expect("finished").tokens.clone()).collect();
    SpecDrain { tokens, generated, modeled_decode_s }
}

/// On the reference platform low-batch decode is bound by the weight
/// stream, and a fused verify pass rides one stream for all its rows. The
/// schedules are deterministic, so the modeled ratio is exact on any host.
/// The four drains run on their own threads (they are slow unoptimized).
#[test]
fn ngram_speculation_meets_the_modeled_floor() {
    let model = proxy();
    let ngram = SpecConfig { draft: DraftSource::NGram, k: SPEC_K };
    std::thread::scope(|s| {
        let drains: Vec<_> = [1, 4]
            .into_iter()
            .map(|batch| {
                let model = &model;
                let run = move |spec| s.spawn(move || spec_drain(model, batch, spec));
                (batch, run(None), run(Some(ngram)))
            })
            .collect();
        for (batch, plain, spec) in drains {
            let (plain, spec) = (plain.join().expect("plain drain"), spec.join().expect("drain"));
            assert_eq!(spec.tokens, plain.tokens, "batch {batch}: speculation changed the tokens");
            let speedup = spec.modeled_tok_s() / plain.modeled_tok_s();
            assert!(speedup >= 1.5, "batch {batch}: modeled {speedup:.3}x plain");
        }
    });
}
