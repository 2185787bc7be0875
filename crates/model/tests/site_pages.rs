//! `KvScheme::Exact` on a model with MX activation sites caches K and V in
//! the site's own format: the codes the K/V site quantizer made, not their
//! `f32` images; on a model whose K/V sites round to bf16 (bf16, OWQ
//! W4A16), the bf16 values. That must not move a bit: the served proxies
//! under W4A4/7, W3A3/5 and MXINT-4/7, the §4.1 inverted placements A7/4
//! and A5/3 (4- and 3-bit K/V codes), bf16 and W4A16 give the same logits
//! over a 200-token prompt and 64 greedy steps on their resolved pages as
//! on forced `f32` pages (a pool built straight from `KvScheme::Exact`).

use std::sync::Arc;

use opal_model::{BlockPool, DecodeState, KvScheme, Model, ModelConfig, QuantScheme};
use opal_tensor::ops;

/// The served architecture (`llama2_7b().proxy(128, 4, 192)`).
fn proxy(scheme: QuantScheme) -> Model {
    Model::new(ModelConfig::llama2_7b().proxy(128, 4, 192), scheme, 21).expect("proxy model")
}

/// Every logit of a 200-token prefill and 64 greedy steps from `state`.
fn greedy_logits(model: &Model, mut state: DecodeState) -> Vec<Vec<f32>> {
    let prompt: Vec<u32> = (0..200u32).map(|i| (i * 37 + 11) % 192).collect();
    let mut logits = model.prefill(&mut state, &prompt);
    let mut all = vec![logits.clone()];
    for _ in 0..64 {
        let next = ops::argmax(&logits).expect("non-empty vocabulary") as u32;
        logits = model.decode_step(&mut state, next);
        all.push(logits.clone());
    }
    all
}

/// W4A4/7 with the activation widths swapped to `low`/`high` bits, as
/// `tests/paper_claims.rs::mixed_precision_placement` builds it.
fn placement(low: u32, high: u32) -> QuantScheme {
    let mut scheme = QuantScheme::mxopal_w4a47();
    let acts = scheme.acts.as_mut().expect("MX-OPAL activations");
    (acts.low_bits, acts.high_bits) = (low, high);
    scheme.name = format!("W4A{low}/{high}");
    scheme
}

#[test]
fn exact_resolves_to_site_pages_with_the_logits_of_f32_pages() {
    for (scheme, site) in [
        (
            QuantScheme::mxopal_w4a47().with_log2_softmax(5),
            KvScheme::MxOpal { bits: 7, qblock: 128, outliers: 4 },
        ),
        (
            QuantScheme::mxopal_w3a35().with_log2_softmax(5),
            KvScheme::MxOpal { bits: 5, qblock: 128, outliers: 4 },
        ),
        (QuantScheme::mxint_w4a47(), KvScheme::MxInt { bits: 7, qblock: 128 }),
        (placement(7, 4), KvScheme::MxOpal { bits: 4, qblock: 128, outliers: 4 }),
        (placement(5, 3), KvScheme::MxOpal { bits: 3, qblock: 128, outliers: 4 }),
        (QuantScheme::bf16(), KvScheme::Bf16),
        (QuantScheme::owq_w4a16(), KvScheme::Bf16),
    ] {
        let name = scheme.name.clone();
        let model = proxy(scheme);
        assert_eq!(model.kv_scheme(KvScheme::Exact), site, "{name}");
        let resolved = model.begin_decode();
        let d = model.config().d_model;
        let f32_pages = Arc::new(BlockPool::new(BlockPool::DEFAULT_BLOCK_SIZE, d, usize::MAX));
        let forced = model.begin_decode_paged(&f32_pages);
        let (got, want) = (greedy_logits(&model, resolved), greedy_logits(&model, forced));
        for (step, (got, want)) in got.iter().zip(&want).enumerate() {
            let differ = got.iter().zip(want).filter(|(g, w)| g.to_bits() != w.to_bits()).count();
            assert_eq!(differ, 0, "{name}: {differ} logits differ at step {step}");
        }
    }
}

#[test]
fn minmax_sites_keep_f32_pages() {
    let minmax = proxy(QuantScheme::minmax_w4a47());
    assert_eq!(minmax.kv_scheme(KvScheme::Exact), KvScheme::Exact);
    // A lossy scheme is kept as asked.
    let opal = proxy(QuantScheme::mxopal_w4a47());
    assert_eq!(opal.kv_scheme(KvScheme::mxopal()), KvScheme::mxopal());
}
