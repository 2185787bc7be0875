//! Bit-identity of the optimized decode path.
//!
//! Two layers of defense against numeric drift:
//!
//! 1. **Golden vectors**: greedy token streams and raw logit bit patterns
//!    captured from the seed implementation (commit `787488c`, before the
//!    contiguous-KV / scratch-space rewrite) are replayed against today's
//!    decoder. Any reassociation, reordering or storage change that
//!    perturbs even one ULP fails here. The two W4A4/7 goldens' logit bits
//!    (not their token streams) were re-captured once, when those schemes'
//!    weight products moved to exact integer sums of OWQ and MX-OPAL codes
//!    (`opal_tensor::ops::matmul_codes`), which rounds no weight to `f32`.
//! 2. **Reference cross-check**: the seed algorithm is preserved verbatim
//!    in `opal_model::reference`; long decodes must agree bit-for-bit with
//!    it at every position, for every quantization scheme family.

use opal_model::{Model, ModelConfig, QuantScheme};
use opal_tensor::ops;

/// Decodes `steps` greedy tokens through the optimized path, returning the
/// token stream and the bit patterns of logits 0/17/63 every 8th step.
fn run_optimized(model: &Model, steps: usize) -> (Vec<u32>, Vec<u32>) {
    let mut state = model.begin_decode();
    let mut token = 1u32;
    let mut tokens = Vec::new();
    let mut bits = Vec::new();
    for step in 0..steps {
        let logits = model.decode_step(&mut state, token);
        token = ops::argmax(&logits).unwrap_or(0) as u32;
        tokens.push(token);
        if step % 8 == 0 {
            bits.push(logits[0].to_bits());
            bits.push(logits[17].to_bits());
            bits.push(logits[63].to_bits());
        }
    }
    (tokens, bits)
}

fn assert_matches_golden(scheme: QuantScheme, seed: u64, tokens: &[u32], bits: &[u32]) {
    let model = Model::new(ModelConfig::tiny(), scheme, seed).expect("valid scheme");
    let (got_tokens, got_bits) = run_optimized(&model, tokens.len());
    assert_eq!(got_tokens, tokens, "greedy token stream diverged from seed");
    assert_eq!(got_bits, bits, "logit bit patterns diverged from seed");
}

#[test]
fn bf16_matches_seed_golden() {
    assert_matches_golden(
        QuantScheme::bf16(),
        42,
        &[
            44, 15, 18, 26, 28, 7, 29, 27, 56, 13, 18, 1, 44, 31, 61, 38, 1, 44, 15, 18, 1, 44, 15,
            18, 1, 20, 28, 22, 20, 28, 56, 35, 17, 48, 46, 52, 49, 20, 18, 1, 20, 28, 22, 20, 28,
            22, 20, 44, 15, 1, 20, 28, 22, 20, 44, 15, 18, 1, 20, 44, 15, 1, 20, 44, 15, 18, 1, 20,
            44, 15, 1, 20,
        ],
        &[
            3215966972, 1078538337, 3232622560, 3225967291, 1059521533, 1060760031, 3229950482,
            1082757602, 3228452923, 1082796645, 1072638119, 1066628800, 1079261528, 1084837415,
            3226335744, 3228043116, 1075098540, 3232913660, 3226890284, 1068735071, 3219373106,
            3214375053, 1070729608, 3182542022, 3224813558, 1070170343, 3220991788,
        ],
    );
}

#[test]
fn mxopal_w4a47_matches_seed_golden() {
    assert_matches_golden(
        QuantScheme::mxopal_w4a47(),
        42,
        &[
            44, 15, 18, 53, 60, 35, 17, 48, 46, 52, 49, 20, 18, 1, 18, 53, 60, 35, 17, 29, 27, 43,
            52, 49, 20, 28, 22, 28, 22, 28, 22, 20, 18, 1, 20, 18, 1, 20, 18, 1, 20, 28, 22, 20,
            28, 22, 20, 28, 22, 20, 28, 56, 35, 17, 48, 46, 52, 49, 20, 28, 22, 20, 28, 56, 8, 17,
            45, 18, 1, 20, 28, 22,
        ],
        &[
            3215800983, 1079103987, 3232558797, 1062356286, 1074097603, 3205231917, 1081799012,
            1074507383, 3205567769, 1060532850, 3186053827, 3215176349, 3224905110, 1050587049,
            1065178073, 3225476094, 1075302851, 3232376633, 3222779295, 1061186068, 3213554449,
            3212967650, 1066834747, 1051897133, 1063001266, 3211156077, 1067074792,
        ],
    );
}

#[test]
fn log2_softmax_owq_matches_seed_golden() {
    assert_matches_golden(
        QuantScheme::mxopal_w4a47().with_log2_softmax(5),
        7,
        &[
            27, 38, 49, 42, 11, 6, 39, 30, 35, 18, 8, 61, 0, 35, 3, 42, 11, 6, 39, 30, 35, 3, 42,
            11, 6, 39, 30, 35, 3, 42, 11, 6, 39, 30, 35, 3, 42, 11, 6, 39, 30, 35, 44, 18, 8, 61,
            0, 0, 35, 44, 18, 8, 61, 0, 35, 44, 18, 8, 61, 0, 35, 3, 18, 8, 61, 0, 35, 3, 18, 8,
            61, 0,
        ],
        &[
            1072829756, 1075388764, 3231674783, 3214729771, 1065161089, 3219455263, 1070731269,
            1058901958, 1046477196, 3214514869, 3223613051, 3207271783, 1074013236, 3229662268,
            1063696038, 1064216889, 3218629572, 1078713079, 1085163798, 3180231594, 1069447337,
            1066286925, 3235084596, 1080526055, 1077247246, 3211512588, 3222651313,
        ],
    );
}

#[test]
fn owq_w4a16_matches_seed_golden() {
    assert_matches_golden(
        QuantScheme::owq_w4a16(),
        11,
        &[
            55, 6, 21, 60, 8, 12, 61, 34, 33, 10, 61, 34, 33, 30, 3, 31, 6, 34, 33, 10, 61, 34, 33,
            30, 3, 31, 6, 56, 23, 17, 15, 52, 16, 40, 32, 6, 56, 23, 17, 15, 52, 16, 40, 32, 6, 56,
            23, 17, 15, 59, 45, 16, 40, 32, 6, 56, 50, 18, 61, 26, 34, 33, 30, 3, 31, 6, 56, 50,
            18, 61, 26, 34,
        ],
        &[
            3217584439, 3221817244, 3205774187, 3238850272, 3213815680, 3212448244, 1063838589,
            1075971494, 1074964385, 1051513396, 1068116123, 3199638813, 3211102731, 1067545190,
            3210456453, 1065635397, 1066955289, 1059780498, 3225404044, 1073996211, 1032631175,
            1040376406, 3224247246, 3223742594, 3227272519, 1055170659, 1074771034,
        ],
    );
}

/// The contiguous-KV scratch decoder must agree with the preserved seed
/// algorithm (`Vec<Vec<f32>>` caches, per-token allocations) bit-for-bit at
/// every position of a long decode, across scheme families.
#[test]
fn optimized_matches_reference_bit_for_bit_over_64_steps() {
    let schemes = [
        ("bf16", QuantScheme::bf16()),
        ("mxopal_w4a47", QuantScheme::mxopal_w4a47()),
        ("mxopal_w3a35", QuantScheme::mxopal_w3a35()),
        ("w4a47+log2", QuantScheme::mxopal_w4a47().with_log2_softmax(5)),
        ("owq_w4a16", QuantScheme::owq_w4a16()),
    ];
    for (name, scheme) in schemes {
        let model = Model::new(ModelConfig::tiny(), scheme, 42).expect("valid scheme");
        let mut fast = model.begin_decode();
        let mut slow = model.begin_reference_decode();
        let mut token = 1u32;
        for step in 0..64 {
            let a = model.decode_step(&mut fast, token);
            let b = model.reference_decode_step(&mut slow, token);
            assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{name}: logit {i} diverged at step {step}: {x} vs {y}"
                );
            }
            token = ops::argmax(&a).unwrap_or(0) as u32;
        }
    }
}

/// OPT architecture (LayerNorm + ReLU FFN, no gate) through both paths.
#[test]
fn opt_arch_optimized_matches_reference() {
    let config = ModelConfig::opt_6_7b().proxy(32, 2, 64);
    let model = Model::new(config, QuantScheme::mxopal_w4a47(), 3).expect("valid scheme");
    let mut fast = model.begin_decode();
    let mut slow = model.begin_reference_decode();
    let mut token = 2u32;
    for _ in 0..48 {
        let a = model.decode_step(&mut fast, token);
        let b = model.reference_decode_step(&mut slow, token);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
        token = ops::argmax(&a).unwrap_or(0) as u32;
    }
}

/// The fused multi-token prefill must be bit-identical to the token-by-token
/// loop *and* to the preserved seed algorithm, for every chunk size, across
/// scheme families: logits after the prompt, the KV caches (checked through
/// subsequent decode steps), and the position counter.
#[test]
fn prefill_chunk_is_bit_identical_for_all_chunk_sizes() {
    let schemes = [
        ("bf16", QuantScheme::bf16()),
        ("mxopal_w4a47", QuantScheme::mxopal_w4a47()),
        ("mxopal_w3a35", QuantScheme::mxopal_w3a35()),
        ("w4a47+log2", QuantScheme::mxopal_w4a47().with_log2_softmax(5)),
    ];
    let prompt: Vec<u32> = (0..13u32).map(|i| (i * 17 + 3) % 64).collect();
    for (name, scheme) in schemes {
        let model = Model::new(ModelConfig::tiny(), scheme, 42).expect("valid scheme");

        // Token-by-token oracle through the optimized single-step path...
        let mut step_state = model.begin_decode();
        let mut step_logits = Vec::new();
        for &t in &prompt {
            step_logits = model.decode_step(&mut step_state, t);
        }
        // ...cross-checked against the preserved seed algorithm.
        let mut ref_state = model.begin_reference_decode();
        let mut ref_logits = Vec::new();
        for &t in &prompt {
            ref_logits = model.reference_decode_step(&mut ref_state, t);
        }
        assert!(step_logits.iter().zip(&ref_logits).all(|(a, b)| a.to_bits() == b.to_bits()));

        for chunk in [1usize, 3, 8, prompt.len()] {
            let mut state = model.begin_decode();
            let mut logits = vec![0.0f32; model.config().vocab];
            let mut i = 0;
            while prompt.len() - i > chunk {
                model.prefill_chunk(&mut state, &prompt[i..i + chunk]);
                i += chunk;
            }
            model.prefill_chunk_into(&mut state, &prompt[i..], &mut logits);
            assert_eq!(state.pos(), prompt.len(), "{name} chunk {chunk}: position drifted");
            for (i, (a, b)) in logits.iter().zip(&step_logits).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{name} chunk {chunk}: prompt logit {i} diverged: {a} vs {b}"
                );
            }
            // The KV caches must match too: decode a few more greedy tokens
            // from both states and compare every logit bit.
            let mut fused_next = state;
            let mut step_next = model.begin_decode();
            for &t in &prompt {
                model.decode_step(&mut step_next, t);
            }
            let mut token = ops::argmax(&logits).unwrap_or(0) as u32;
            for extra in 0..4 {
                let a = model.decode_step(&mut fused_next, token);
                let b = model.decode_step(&mut step_next, token);
                assert!(
                    a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{name} chunk {chunk}: decode diverged {extra} steps after prefill"
                );
                token = ops::argmax(&a).unwrap_or(0) as u32;
            }
        }
    }
}

/// `prefill_into` (the chunked driver) must agree with `prefill` and leave
/// the state ready to decode, and `prefill_chunk` must also compose with a
/// *resumed* prompt (prefill after some tokens were already decoded — the
/// serving engine's incremental-admission pattern never does this today,
/// but chunk boundaries mid-conversation must not be special).
#[test]
fn prefill_into_matches_prefill_and_resumes() {
    let model = Model::new(ModelConfig::tiny(), QuantScheme::mxopal_w4a47(), 42).expect("valid");
    let prompt: Vec<u32> = (0..37u32).map(|i| (i * 7 + 1) % 64).collect();

    let mut a = model.begin_decode();
    let mut into_logits = vec![0.0f32; model.config().vocab];
    model.prefill_into(&mut a, &prompt, &mut into_logits);
    let mut b = model.begin_decode();
    let alloc_logits = model.prefill(&mut b, &prompt);
    assert!(into_logits.iter().zip(&alloc_logits).all(|(x, y)| x.to_bits() == y.to_bits()));
    assert_eq!(a.pos(), b.pos());

    // Resume: decode two tokens, then prefill a second chunk of "prompt"
    // positions; must equal stepping those tokens one by one.
    let extra: Vec<u32> = vec![5, 9, 2, 44, 17];
    let mut stepped = model.begin_decode();
    model.prefill_into(&mut stepped, &prompt, &mut into_logits);
    for &t in &extra {
        model.decode_step(&mut stepped, t);
    }
    model.prefill_chunk_into(&mut a, &extra, &mut into_logits);
    let probe = 3u32;
    let x = model.decode_step(&mut a, probe);
    let y = model.decode_step(&mut stepped, probe);
    assert!(x.iter().zip(&y).all(|(p, q)| p.to_bits() == q.to_bits()));
}

/// The prefill fast path (logits skipped for all but the last prompt token)
/// must not change the returned logits or the downstream decode.
#[test]
fn prefill_fast_path_is_bit_identical_to_stepping() {
    let model = Model::new(ModelConfig::tiny(), QuantScheme::mxopal_w4a47(), 42).expect("valid");
    for prompt in [&[5u32][..], &[1, 2, 3][..], &[9, 8, 7, 6, 5, 4, 3, 2][..]] {
        let mut fast = model.begin_decode();
        let fast_logits = model.prefill(&mut fast, prompt);

        let mut slow = model.begin_decode();
        let mut slow_logits = Vec::new();
        for &t in prompt {
            slow_logits = model.decode_step(&mut slow, t);
        }
        assert_eq!(fast.pos(), slow.pos());
        assert!(fast_logits.iter().zip(&slow_logits).all(|(x, y)| x.to_bits() == y.to_bits()));

        // And the next decoded token agrees too (the KV caches match).
        let next = ops::argmax(&fast_logits).unwrap_or(0) as u32;
        let a = model.decode_step(&mut fast, next);
        let b = model.decode_step(&mut slow, next);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}
