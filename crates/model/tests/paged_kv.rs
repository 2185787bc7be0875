//! Bit-identity and accounting of the paged KV cache.
//!
//! The paged rewrite (block tables over a shared `BlockPool` instead of
//! per-sequence contiguous buffers) must be invisible to the numerics:
//! every block size walks the same rows in the same order, so decode and
//! chunked prefill stay bit-identical to the preserved seed algorithm.
//! Prefix sharing must be equally invisible: a state that adopts another
//! sequence's blocks read-only produces the same bits it would have
//! computed itself, and its first divergent write copies — never corrupts
//! the donor.

use std::sync::Arc;

use opal_model::kv::BlockPool;
use opal_model::{AdoptError, KvScheme, Model, ModelConfig, QuantScheme};
use opal_tensor::ops;

fn schemes() -> [(&'static str, QuantScheme); 4] {
    [
        ("bf16", QuantScheme::bf16()),
        ("mxopal_w4a47", QuantScheme::mxopal_w4a47()),
        ("w4a47+log2", QuantScheme::mxopal_w4a47().with_log2_softmax(5)),
        ("owq_w4a16", QuantScheme::owq_w4a16()),
    ]
}

/// Decode over tiny pool pages (block size 1, 3, 5) must be bit-identical
/// to the default paging and to the preserved seed algorithm, including
/// across chunked prefill boundaries that straddle blocks.
#[test]
fn paged_decode_is_bit_identical_for_every_block_size() {
    let prompt: Vec<u32> = (0..11u32).map(|i| (i * 19 + 2) % 64).collect();
    for (name, scheme) in schemes() {
        let model = Model::new(ModelConfig::tiny(), scheme, 42).expect("valid scheme");
        let d = model.config().d_model;

        // Oracle: the seed algorithm (flat Vec<Vec<f32>> caches).
        let mut ref_state = model.begin_reference_decode();
        let mut ref_logits = Vec::new();
        for &t in &prompt {
            ref_logits = model.reference_decode_step(&mut ref_state, t);
        }

        for block_size in [1usize, 3, 5] {
            let pool = Arc::new(BlockPool::new(block_size, d, usize::MAX));
            let mut state = model.begin_decode_paged(&pool);
            let mut logits = vec![0.0f32; model.config().vocab];
            model.prefill_into(&mut state, &prompt, &mut logits);
            for (i, (a, b)) in logits.iter().zip(&ref_logits).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{name} bs={block_size}: prompt logit {i} diverged"
                );
            }
            assert_eq!(state.blocks_per_layer(), prompt.len().div_ceil(block_size));

            // Keep decoding greedily; every position must stay bit-equal.
            let mut token = ops::argmax(&logits).unwrap_or(0) as u32;
            let mut ref_token = ops::argmax(&ref_logits).unwrap_or(0) as u32;
            assert_eq!(token, ref_token);
            for step in 0..16 {
                model.decode_step_into(&mut state, token, &mut logits);
                let r = model.reference_decode_step(&mut ref_state, ref_token);
                assert!(
                    logits.iter().zip(&r).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{name} bs={block_size}: decode diverged at step {step}"
                );
                token = ops::argmax(&logits).unwrap_or(0) as u32;
                ref_token = ops::argmax(&r).unwrap_or(0) as u32;
            }
            // Rewind the reference for the next block size.
            ref_state = model.begin_reference_decode();
            for &t in &prompt {
                ref_logits = model.reference_decode_step(&mut ref_state, t);
            }
        }
    }
}

/// A sequence that adopts another's prefix blocks read-only must produce
/// the same bits as one that prefilled everything itself; its divergent
/// writes must copy-on-write, leaving the donor's cache untouched; and the
/// pool must count each shared block once.
#[test]
fn shared_prefix_is_bit_identical_and_copy_on_write() {
    let block_size = 4;
    let prefix: Vec<u32> = (0..10u32).map(|i| (i * 7 + 3) % 64).collect(); // 2.5 blocks
    let tail_a: Vec<u32> = vec![5, 9];
    let tail_b: Vec<u32> = vec![44, 1, 17];
    for (name, scheme) in schemes() {
        let model = Model::new(ModelConfig::tiny(), scheme, 42).expect("valid scheme");
        let nl = model.config().n_layers;
        let pool = Arc::new(BlockPool::new(block_size, model.config().d_model, usize::MAX));

        // Donor A prefills prefix + tail_a and keeps decoding.
        let prompt_a: Vec<u32> = prefix.iter().chain(&tail_a).copied().collect();
        let mut a = model.begin_decode_paged(&pool);
        let mut logits_a = vec![0.0f32; model.config().vocab];
        model.prefill_into(&mut a, &prompt_a, &mut logits_a);
        let blocks_a = a.blocks_per_layer();
        assert_eq!(pool.in_use(), nl * blocks_a);

        // B adopts the prefix span (partial last block included) and
        // prefills only its own tail.
        let shared_len = prefix.len();
        let shared_blocks = shared_len.div_ceil(block_size);
        let adopted: Vec<_> =
            (0..nl).map(|l| (0..shared_blocks).map(|i| a.block(l, i)).collect()).collect();
        let mut b = model.begin_decode_paged(&pool);
        b.adopt_shared_prefix(adopted, shared_len);
        assert_eq!(b.pos(), shared_len);
        assert!(b.tail_block_shared(), "adopted partial tail must read as shared");
        let in_use_before = pool.in_use();
        assert_eq!(in_use_before, nl * blocks_a, "adoption must not allocate");

        let prompt_b: Vec<u32> = prefix.iter().chain(&tail_b).copied().collect();
        let mut logits_b = vec![0.0f32; model.config().vocab];
        // B's first write lands in the shared partial block -> CoW.
        model.prefill_chunk_into(&mut b, &prompt_b[shared_len..], &mut logits_b);
        assert!(pool.in_use() > in_use_before, "divergent write must allocate a copy");

        // Oracle: B computed from scratch, no sharing.
        let mut solo = model.begin_decode_paged(&pool);
        let mut solo_logits = vec![0.0f32; model.config().vocab];
        model.prefill_into(&mut solo, &prompt_b, &mut solo_logits);
        assert!(
            logits_b.iter().zip(&solo_logits).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{name}: shared-prefix logits diverged from unshared prefill"
        );

        // Both B and solo keep decoding in lockstep, and donor A must be
        // unperturbed: its own decode still matches a from-scratch replay.
        let mut tok_b = ops::argmax(&logits_b).unwrap_or(0) as u32;
        for step in 0..12 {
            model.decode_step_into(&mut b, tok_b, &mut logits_b);
            model.decode_step_into(&mut solo, tok_b, &mut solo_logits);
            assert!(
                logits_b.iter().zip(&solo_logits).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{name}: shared-prefix decode diverged at step {step}"
            );
            tok_b = ops::argmax(&logits_b).unwrap_or(0) as u32;
        }

        let mut replay = model.begin_decode_paged(&pool);
        let mut replay_logits = vec![0.0f32; model.config().vocab];
        model.prefill_into(&mut replay, &prompt_a, &mut replay_logits);
        let mut tok_a = ops::argmax(&logits_a).unwrap_or(0) as u32;
        assert_eq!(tok_a, ops::argmax(&replay_logits).unwrap_or(0) as u32);
        for step in 0..8 {
            model.decode_step_into(&mut a, tok_a, &mut logits_a);
            model.decode_step_into(&mut replay, tok_a, &mut replay_logits);
            assert!(
                logits_a.iter().zip(&replay_logits).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{name}: donor sequence was perturbed by the sharer at step {step}"
            );
            tok_a = ops::argmax(&logits_a).unwrap_or(0) as u32;
        }
    }
}

/// Quantized KV pages trade bits for capacity, so their logits are *not*
/// compared against the exact cache — the contract is determinism with
/// themselves: every prefill chunking and block size must walk the same
/// codes in the same order and produce identical bits. MXINT-4/7's site
/// pages run here too, through the model's resolved pool.
#[test]
fn quantized_kv_decode_is_bit_deterministic_across_chunkings() {
    let prompt: Vec<u32> = (0..11u32).map(|i| (i * 19 + 2) % 64).collect();
    let low_bits = KvScheme::MxOpal { bits: 4, qblock: 32, outliers: 2 };
    for (scheme, kv) in [
        (QuantScheme::bf16(), KvScheme::mxopal()),
        (QuantScheme::mxint_w4a47(), KvScheme::Exact),
        (QuantScheme::bf16(), low_bits),
    ] {
        let model = Model::new(ModelConfig::tiny(), scheme, 42).expect("valid scheme");
        let vocab = model.config().vocab;
        let kv = model.kv_scheme(kv);
        assert!(kv.quantized(), "{kv:?}");

        // Reference run: default block size, whole-prompt prefill.
        let pool = Arc::new(model.kv_pool(16, usize::MAX, kv));
        let mut ref_state = model.begin_decode_paged(&pool);
        let mut ref_logits = vec![0.0f32; vocab];
        model.prefill_into(&mut ref_state, &prompt, &mut ref_logits);
        let mut ref_stream = vec![ref_logits.clone()];
        let mut ref_token = ops::argmax(&ref_logits).unwrap_or(0) as u32;
        for _ in 0..16 {
            model.decode_step_into(&mut ref_state, ref_token, &mut ref_logits);
            ref_stream.push(ref_logits.clone());
            ref_token = ops::argmax(&ref_logits).unwrap_or(0) as u32;
        }

        for (block_size, chunk) in [(16usize, 1usize), (16, 3), (3, 1), (3, 16), (5, 4)] {
            let pool = Arc::new(model.kv_pool(block_size, usize::MAX, kv));
            let mut state = model.begin_decode_paged(&pool);
            let mut logits = vec![0.0f32; vocab];
            for piece in prompt.chunks(chunk) {
                model.prefill_chunk_into(&mut state, piece, &mut logits);
            }
            assert!(
                logits.iter().zip(&ref_stream[0]).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{kv:?} bs={block_size} chunk={chunk}: prompt logits diverged"
            );
            let mut token = ops::argmax(&logits).unwrap_or(0) as u32;
            for (step, reference) in ref_stream[1..].iter().enumerate() {
                model.decode_step_into(&mut state, token, &mut logits);
                assert!(
                    logits.iter().zip(reference).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{kv:?} bs={block_size} chunk={chunk}: decode diverged at step {step}"
                );
                token = ops::argmax(&logits).unwrap_or(0) as u32;
            }
        }
    }
}

/// Copy-on-write must hold on quantized pages too: a sharer's divergent
/// write into an adopted partial block copies the codes, and the
/// donor's continued decode stays bit-equal to a from-scratch replay.
#[test]
fn quantized_shared_prefix_cow_leaves_donor_unaffected() {
    let block_size = 4;
    let prefix: Vec<u32> = (0..10u32).map(|i| (i * 7 + 3) % 64).collect(); // 2.5 blocks
    let model = Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 42).expect("valid scheme");
    let nl = model.config().n_layers;
    let vocab = model.config().vocab;
    let pool = Arc::new(BlockPool::with_scheme(
        block_size,
        model.config().d_model,
        usize::MAX,
        KvScheme::mxopal(),
    ));

    let prompt_a: Vec<u32> = prefix.iter().chain(&[5, 9]).copied().collect();
    let mut a = model.begin_decode_paged(&pool);
    let mut logits_a = vec![0.0f32; vocab];
    model.prefill_into(&mut a, &prompt_a, &mut logits_a);

    let shared_len = prefix.len();
    let shared_blocks = shared_len.div_ceil(block_size);
    let adopted: Vec<_> =
        (0..nl).map(|l| (0..shared_blocks).map(|i| a.block(l, i)).collect()).collect();
    let mut b = model.begin_decode_paged(&pool);
    b.adopt_shared_prefix(adopted, shared_len);
    let in_use_before = pool.in_use();

    // B's first write lands in the shared partial block -> CoW on a
    // quantized page.
    let prompt_b: Vec<u32> = prefix.iter().chain(&[44, 1, 17]).copied().collect();
    let mut logits_b = vec![0.0f32; vocab];
    model.prefill_chunk_into(&mut b, &prompt_b[shared_len..], &mut logits_b);
    assert!(pool.in_use() > in_use_before, "divergent write must copy the quantized page");

    // Oracle for B: unshared prefill of the same prompt.
    let mut solo = model.begin_decode_paged(&pool);
    let mut solo_logits = vec![0.0f32; vocab];
    model.prefill_into(&mut solo, &prompt_b, &mut solo_logits);
    assert!(
        logits_b.iter().zip(&solo_logits).all(|(x, y)| x.to_bits() == y.to_bits()),
        "quantized shared-prefix logits diverged from unshared prefill"
    );

    // Donor A must be unperturbed: its decode matches a fresh replay.
    let mut replay = model.begin_decode_paged(&pool);
    let mut replay_logits = vec![0.0f32; vocab];
    model.prefill_into(&mut replay, &prompt_a, &mut replay_logits);
    let mut tok_a = ops::argmax(&logits_a).unwrap_or(0) as u32;
    assert_eq!(tok_a, ops::argmax(&replay_logits).unwrap_or(0) as u32);
    for step in 0..10 {
        model.decode_step_into(&mut a, tok_a, &mut logits_a);
        model.decode_step_into(&mut replay, tok_a, &mut replay_logits);
        assert!(
            logits_a.iter().zip(&replay_logits).all(|(x, y)| x.to_bits() == y.to_bits()),
            "donor was perturbed by the quantized sharer at step {step}"
        );
        tok_a = ops::argmax(&logits_a).unwrap_or(0) as u32;
    }
}

/// A quantized cache must refuse to adopt exact pages and vice versa —
/// typed error, state unchanged. A pool has one page format, so blocks of
/// another format come from another pool: `ForeignPool` rejects them, as
/// it rejects same-scheme blocks from a foreign pool.
#[test]
fn mixed_scheme_adoption_is_rejected_both_ways() {
    let block_size = 4;
    let prompt: Vec<u32> = (0..8u32).collect(); // exactly 2 blocks
    let model = Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 42).expect("valid scheme");
    let d = model.config().d_model;
    let nl = model.config().n_layers;
    let quant = KvScheme::mxopal();

    let pool_exact = Arc::new(BlockPool::new(block_size, d, usize::MAX));
    let pool_quant = Arc::new(BlockPool::with_scheme(block_size, d, usize::MAX, quant));

    let mut exact_donor = model.begin_decode_paged(&pool_exact);
    model.prefill(&mut exact_donor, &prompt);
    let mut quant_donor = model.begin_decode_paged(&pool_quant);
    model.prefill(&mut quant_donor, &prompt);
    let table = |s: &opal_model::DecodeState| -> Vec<Vec<_>> {
        (0..nl).map(|l| (0..2).map(|i| s.block(l, i)).collect()).collect()
    };

    // Quantized cache refuses exact pages.
    let mut adopter = model.begin_decode_paged(&pool_quant);
    assert_eq!(
        adopter.try_adopt_shared_prefix(table(&exact_donor), prompt.len()),
        Err(AdoptError::ForeignPool)
    );
    assert_eq!(adopter.pos(), 0, "failed adoption must leave the state untouched");

    // Exact cache refuses quantized pages.
    let mut adopter = model.begin_decode_paged(&pool_exact);
    assert_eq!(
        adopter.try_adopt_shared_prefix(table(&quant_donor), prompt.len()),
        Err(AdoptError::ForeignPool)
    );
    assert_eq!(adopter.pos(), 0);

    // Same scheme, different pool instance: foreign accounting, rejected.
    let other_quant = Arc::new(BlockPool::with_scheme(block_size, d, usize::MAX, quant));
    let mut adopter = model.begin_decode_paged(&other_quant);
    assert_eq!(
        adopter.try_adopt_shared_prefix(table(&quant_donor), prompt.len()),
        Err(AdoptError::ForeignPool)
    );
    assert_eq!(adopter.pos(), 0);

    // Sanity: a same-pool adoption still succeeds after the refusals.
    let mut adopter = model.begin_decode_paged(&pool_quant);
    assert_eq!(adopter.try_adopt_shared_prefix(table(&quant_donor), prompt.len()), Ok(()));
    assert_eq!(adopter.pos(), prompt.len());
}

/// Dropping states releases exactly the blocks nobody else maps.
#[test]
fn dropping_states_releases_blocks() {
    let model = Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 42).expect("valid scheme");
    let nl = model.config().n_layers;
    let pool = Arc::new(BlockPool::new(4, model.config().d_model, usize::MAX));
    let prompt: Vec<u32> = (0..9u32).collect();

    let mut a = model.begin_decode_paged(&pool);
    model.prefill(&mut a, &prompt);
    let blocks_a = nl * a.blocks_per_layer();
    assert_eq!(pool.in_use(), blocks_a);

    // B shares A's first (full) block.
    let adopted: Vec<_> = (0..nl).map(|l| vec![a.block(l, 0)]).collect();
    let mut b = model.begin_decode_paged(&pool);
    b.adopt_shared_prefix(adopted, 4);
    model.prefill_chunk(&mut b, &prompt[4..]);
    let total = pool.in_use();
    assert!(total > blocks_a && total < 2 * blocks_a, "prefix block must be stored once");

    drop(b);
    assert_eq!(pool.in_use(), blocks_a, "dropping the sharer frees only its private blocks");
    drop(a);
    assert_eq!(pool.in_use(), 0);
    assert_eq!(pool.peak(), total);
}
