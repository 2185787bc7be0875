//! Zero-allocation proof for the serve decode hot path.
//!
//! `opal-tidy` proves lexically that the declared hot functions contain no
//! allocating calls; these tests prove the same property at runtime by
//! installing a counting global allocator and asserting that a
//! steady-state `ServeEngine::step()` performs **zero** allocation events.
//!
//! ## The measurement window
//!
//! Allocation-free holds only in *steady state* — a handful of step
//! indices legitimately touch the allocator by design:
//!
//! - admission and prefill (step 1 here: every request is admitted and
//!   fully prefilled under `prefill_chunk = usize::MAX`);
//! - workspace growth: the stepping thread's forward-pass buffers grow to
//!   the largest row count a pass has had (the admission step's prefill
//!   here), its `8 × n_heads × seq` score/weight pair (a tile of eight
//!   query rows) grows amortized with the longest context (reallocs at
//!   capacities for 8, 16, 32 positions → at sequence lengths 9, 17, 33
//!   with an 8-token prompt), and its V page tile is sized once;
//! - KV block boundaries: a fresh page is allocated each time a sequence
//!   length crosses a multiple of `block_size` (16 here → lengths 17, 33).
//!
//! With an 8-token prompt, sequence length after step `s` is `8 + s`, so
//! steps 13..=23 (lengths 21..=31) sit strictly between every such event:
//! the window this file pins to zero. The zero-allocation probes step
//! their engines on the test's own thread and count that thread's events
//! ([`opal_alloc_probe::thread_allocations`]), so the harness's threads
//! cannot leak into a window; the multi-threaded pool probe counts the
//! whole process. All probe tests serialize on
//! [`opal_alloc_probe::probe_lock`] all the same.
//!
//! Strict assertions are release-only: debug builds run the engine's
//! `debug_assertions` invariant auditor, which allocates on purpose.

use opal_alloc_probe::{allocations, probe_lock, thread_allocations, CountingAlloc};
use opal_model::{Model, ModelConfig, QuantScheme};
use opal_serve::{DraftSource, KvScheme, ServeConfig, ServeEngine, SpecConfig, StepMode};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Steps outside the window warm the engine up; these are measured.
const MEASURED_STEPS: std::ops::RangeInclusive<u64> = 13..=23;
const PROMPT_LEN: usize = 8;
const LIMIT: usize = 40;

fn engine_for(model: &Model, batch: usize, mode: StepMode, threads: usize) -> ServeEngine<'_> {
    engine_for_kv(model, batch, mode, threads, KvScheme::Exact)
}

fn engine_for_kv(
    model: &Model,
    batch: usize,
    mode: StepMode,
    threads: usize,
    kv_scheme: KvScheme,
) -> ServeEngine<'_> {
    let config = ServeConfig {
        max_batch: batch,
        max_tokens: LIMIT,
        num_threads: threads,
        step_mode: mode,
        // Whole prompts prefill in the admission step so the window holds
        // pure decode.
        prefill_chunk: usize::MAX,
        block_size: 16,
        prefix_sharing: false,
        kv_scheme,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(model, config);
    let vocab = model.config().vocab as u32;
    for i in 0..batch {
        let prompt: Vec<u32> =
            (0..PROMPT_LEN).map(|p| ((i * 53 + p * 19) as u32) % vocab).collect();
        engine.submit_with_limit(&prompt, LIMIT).expect("probe submit");
    }
    engine
}

/// Runs the warmup + measured window and returns the per-measured-step
/// allocation counts read off `counter`.
fn measure_steps(engine: &mut ServeEngine<'_>, counter: fn() -> u64) -> Vec<u64> {
    let mut counts = Vec::new();
    for step in 1..=*MEASURED_STEPS.end() {
        let before = counter();
        let summary = engine.step();
        let after = counter();
        assert!(summary.generated > 0 || summary.prefilled > 0, "engine drained mid-probe");
        if MEASURED_STEPS.contains(&step) {
            counts.push(after - before);
        }
    }
    counts
}

fn assert_zero_alloc_decode(scheme: QuantScheme, batch: usize, mode: StepMode) {
    assert_zero_alloc_decode_kv(scheme, KvScheme::Exact, batch, mode);
}

/// Same window arithmetic as the exact-cache probes: quantized pages use
/// the identical 16-row block geometry (only the bytes inside a page
/// differ), so block boundaries still fall at sequence lengths 17 and 33
/// — outside steps 13..=23 — and the `EncodeScratch` the append encoder
/// reuses reaches its full capacity during warmup.
fn assert_zero_alloc_decode_kv(scheme: QuantScheme, kv: KvScheme, batch: usize, mode: StepMode) {
    let _serial = probe_lock();
    let model = Model::new(ModelConfig::tiny(), scheme, 7).expect("probe model");
    let mut engine = engine_for_kv(&model, batch, mode, 1, kv);
    let counts = measure_steps(&mut engine, thread_allocations);
    assert_eq!(counts.len(), 11);
    // Debug builds run the engine's allocating invariant auditor after
    // every step; the zero-allocation contract is a release property.
    if cfg!(not(debug_assertions)) {
        assert_eq!(
            counts.iter().sum::<u64>(),
            0,
            "steady-state decode allocated (per measured step: {counts:?})"
        );
    }
}

#[test]
fn bf16_batch1_pool_steady_state_is_allocation_free() {
    assert_zero_alloc_decode(QuantScheme::bf16(), 1, StepMode::ForcePool);
}

#[test]
fn bf16_batch16_pool_steady_state_is_allocation_free() {
    assert_zero_alloc_decode(QuantScheme::bf16(), 16, StepMode::ForcePool);
}

#[test]
fn mxopal_batch1_pool_steady_state_is_allocation_free() {
    assert_zero_alloc_decode(QuantScheme::mxopal_w4a47(), 1, StepMode::ForcePool);
}

#[test]
fn mxopal_batch16_pool_steady_state_is_allocation_free() {
    assert_zero_alloc_decode(QuantScheme::mxopal_w4a47(), 16, StepMode::ForcePool);
}

#[test]
fn kv_mxopal_batch1_pool_steady_state_is_allocation_free() {
    assert_zero_alloc_decode_kv(QuantScheme::bf16(), KvScheme::mxopal(), 1, StepMode::ForcePool);
}

#[test]
fn kv_mxopal_batch16_pool_steady_state_is_allocation_free() {
    assert_zero_alloc_decode_kv(QuantScheme::bf16(), KvScheme::mxopal(), 16, StepMode::ForcePool);
}

#[test]
fn kv_mxopal4_batch16_pool_steady_state_is_allocation_free() {
    assert_zero_alloc_decode_kv(QuantScheme::bf16(), KvScheme::mxopal4(), 16, StepMode::ForcePool);
}

#[test]
fn kv_mxint_batch16_pool_steady_state_is_allocation_free() {
    assert_zero_alloc_decode_kv(
        QuantScheme::mxopal_w4a47(),
        KvScheme::mxint(),
        16,
        StepMode::ForcePool,
    );
}

/// Multi-threaded pool dispatch allocates by design (channel nodes, chunk
/// splits), but the traffic must stay a small per-step constant — it must
/// not scale with sequence length or accumulate.
#[test]
fn multithreaded_pool_dispatch_allocations_are_bounded() {
    let _serial = probe_lock();
    let model = Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 7).expect("probe model");
    let mut engine = engine_for(&model, 16, StepMode::ForcePool, 2);
    let counts = measure_steps(&mut engine, allocations);
    if cfg!(not(debug_assertions)) {
        for (i, &n) in counts.iter().enumerate() {
            assert!(n < 256, "pool dispatch allocated {n} times in measured step {i} ({counts:?})");
        }
    }
}

/// Steady-state *speculative* decode is allocation-free too: the
/// draft-propose / fused-verify / rollback loop reuses the buffers
/// preallocated in `SpecState`, and the draft sibling's passes go through
/// the stepping thread's workspace like the served model's, so a
/// pure-decode step allocates exactly as much as a plain one — nothing.
///
/// A full-depth truncated draft (`layers` = the model's own depth) makes
/// the window arithmetic deterministic: the draft is the same network, its
/// argmax always matches the greedy sampler's pick, and every step accepts
/// all `k` proposals. With `k = 1` each spec step commits 2 tokens, so
/// sequence length after step `s` is `9 + 2(s - 1)`. Steps up to 8 still
/// see one-time events — 16-row block boundaries at length 17 and the
/// amortized growth of the workspace's `8 × n_heads × seq` score buffers —
/// and the next block/doubling boundary is length 33 (step 13), so steps
/// 9..=12 are the pinned-zero window.
#[test]
fn speculative_decode_steady_state_is_allocation_free() {
    assert_zero_alloc_speculative(KvScheme::Exact);
}

#[test]
fn kv_mxopal_speculative_decode_steady_state_is_allocation_free() {
    assert_zero_alloc_speculative(KvScheme::mxopal());
}

fn assert_zero_alloc_speculative(kv_scheme: KvScheme) {
    let _serial = probe_lock();
    let model = Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 7).expect("probe model");
    let config = ServeConfig {
        max_batch: 2,
        max_tokens: LIMIT,
        num_threads: 1,
        step_mode: StepMode::ForcePool,
        prefill_chunk: usize::MAX,
        block_size: 16,
        prefix_sharing: false,
        kv_scheme,
        spec: Some(SpecConfig {
            draft: DraftSource::Truncated { layers: ModelConfig::tiny().n_layers },
            k: 1,
        }),
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(&model, config);
    let vocab = model.config().vocab as u32;
    for i in 0..2usize {
        let prompt: Vec<u32> =
            (0..PROMPT_LEN).map(|p| ((i * 53 + p * 19) as u32) % vocab).collect();
        engine.submit_with_limit(&prompt, LIMIT).expect("probe submit");
    }
    let mut counts = Vec::new();
    for step in 1..=12u64 {
        let before = thread_allocations();
        let summary = engine.step();
        let after = thread_allocations();
        assert!(summary.generated > 0 || summary.prefilled > 0, "engine drained mid-probe");
        if step >= 2 {
            // Full acceptance: every pure-decode step commits t0 plus the
            // accepted draft token, per sequence.
            assert_eq!(summary.generated, 4, "speculation not active in step {step}");
            assert_eq!(summary.accepted, 2, "draft token rejected in step {step}");
        }
        if (9..=12).contains(&step) {
            counts.push(after - before);
        }
    }
    assert_eq!(counts.len(), 4);
    if cfg!(not(debug_assertions)) {
        assert_eq!(
            counts.iter().sum::<u64>(),
            0,
            "steady-state speculative decode allocated (per measured step: {counts:?})"
        );
    }
}

/// A *mixed* step — one sequence consuming a granted prompt chunk while its
/// neighbours decode, then the step that completes the prompt, samples and
/// decodes in two passes — allocates nothing either, once the workspace has
/// seen its largest row count.
///
/// Four short requests warm the engine up: step 1 prefills one whole prompt
/// (the 8-row pass that sizes the stacked buffers), and by step 4 all four
/// decode together (the four logits rows the completion step will want
/// again). One has a short limit and retires, three decode on to length
/// 38, past the score buffers' doubling at 33. Then a 33-token prompt takes
/// the free slot: its admission step allocates (the sequence itself, its
/// first KV block: 128-row blocks, so nobody crosses a boundary here), and
/// the four steps after it — three 8-row chunks beside three decode rows,
/// then the last prompt row, the first sample and four decode rows — are
/// the window.
fn assert_zero_alloc_mixed_steps(scheme: QuantScheme, kv_scheme: KvScheme) {
    let _serial = probe_lock();
    let model = Model::new(ModelConfig::tiny(), scheme, 7).expect("probe model");
    let config = ServeConfig {
        max_batch: 4,
        max_tokens: 64,
        prefill_chunk: 8,
        block_size: 128,
        prefix_sharing: false,
        kv_scheme,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(&model, config);
    let vocab = model.config().vocab as u32;
    let prompt = |i: usize, len: usize| -> Vec<u32> {
        (0..len).map(|p| ((i * 53 + p * 19) as u32) % vocab).collect()
    };
    for i in 0..4 {
        let limit = if i == 3 { 6 } else { 64 };
        engine.submit_with_limit(&prompt(i, PROMPT_LEN), limit).expect("probe submit");
    }
    for _ in 0..33 {
        engine.step();
    }
    assert_eq!((engine.active_len(), engine.prefilling_len()), (3, 0), "warm-up shape");
    engine.submit_with_limit(&prompt(4, 33), 64).expect("probe submit");
    let admitted = engine.step();
    assert_eq!((admitted.admitted, admitted.prefilled, admitted.generated), (1, 8, 3));
    let mut counts = Vec::new();
    for expect in [(8, 3), (8, 3), (8, 3), (1, 4)] {
        let before = thread_allocations();
        let summary = engine.step();
        let after = thread_allocations();
        assert_eq!((summary.prefilled, summary.generated), expect, "not the mixed step planned");
        counts.push(after - before);
    }
    if cfg!(not(debug_assertions)) {
        assert_eq!(
            counts.iter().sum::<u64>(),
            0,
            "mixed prefill + decode steps allocated (per measured step: {counts:?})"
        );
    }
}

#[test]
fn bf16_mixed_steps_are_allocation_free() {
    assert_zero_alloc_mixed_steps(QuantScheme::bf16(), KvScheme::Exact);
}

#[test]
fn mxopal_mixed_steps_are_allocation_free() {
    assert_zero_alloc_mixed_steps(QuantScheme::mxopal_w4a47(), KvScheme::Exact);
}

#[test]
fn kv_mxopal_mixed_steps_are_allocation_free() {
    assert_zero_alloc_mixed_steps(QuantScheme::bf16(), KvScheme::mxopal());
}

/// The probe itself must fire: a deliberate allocation inside a measured
/// region moves the counter. Guards against the counting allocator being
/// silently bypassed (e.g. a future `#[global_allocator]` mixup), which
/// would make every zero-assertion above vacuous.
#[test]
fn probe_detects_deliberate_allocation() {
    let _serial = probe_lock();
    let (before, before_here) = (allocations(), thread_allocations());
    let v: Vec<u64> = Vec::with_capacity(1000);
    let (after, after_here) = (allocations(), thread_allocations());
    drop(v);
    assert!(after > before, "counting allocator did not observe a 1000-element Vec");
    assert!(after_here > before_here, "the thread's count did not observe it either");
}
