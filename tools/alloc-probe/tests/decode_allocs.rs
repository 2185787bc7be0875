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
//! Every benchmark workload attaches an accelerator model, so each shape
//! is also probed with one attached: the step is then priced
//! (`opal_serve::step_workload` → `Accelerator::energy`) inside the
//! measured window.
//!
//! Strict assertions are release-only: debug builds run the engine's
//! `debug_assertions` invariant auditor, which allocates on purpose.

use opal_alloc_probe::{allocations, probe_lock, thread_allocations, CountingAlloc};
use opal_hw::accelerator::{Accelerator, AcceleratorKind};
use opal_model::{ActFormat, Model, ModelConfig, QuantScheme};
use opal_serve::faults::FaultKind;
use opal_serve::{
    DraftSource, KvScheme, SeqStepWork, ServeConfig, ServeEngine, SpecConfig, StepMode,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Steps outside the window warm the engine up; these are measured.
const MEASURED_STEPS: std::ops::RangeInclusive<u64> = 13..=23;
const PROMPT_LEN: usize = 8;
const LIMIT: usize = 40;
/// Rows per KV block in the speculative probes.
const BLOCK_SIZE: usize = 16;

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

/// Attaches the accelerator model every benchmark workload runs with.
fn attach(engine: ServeEngine<'_>) -> ServeEngine<'_> {
    engine.with_accelerator(Accelerator::new(AcceleratorKind::OpalW4A47))
}

/// The engine's pool is in the format `kv` resolves to on `model`: for
/// `KvScheme::Exact` on an MX-OPAL model, the K/V site's own codes, and on
/// a bf16 model (no activation quantizer), bf16 pages, so the probe covers
/// code or bf16 appends and their walks, not `f32` rows.
fn assert_site_pages(model: &Model, engine: &ServeEngine<'_>, kv: KvScheme) {
    let pool = engine.kv_pool().scheme();
    assert_eq!(pool, model.kv_scheme(kv), "the engine's pool is not the resolved scheme");
    let mx = model.scheme().acts.is_some_and(|a| a.format != ActFormat::MinMax);
    if kv == KvScheme::Exact && mx {
        assert!(pool.quantized(), "exact pages on an MX-OPAL/MXINT model are not site codes");
    }
    if kv == KvScheme::Exact && model.scheme().acts.is_none() {
        assert_eq!(pool, KvScheme::Bf16, "exact pages on a bf16 model are not bf16 pages");
    }
}

fn assert_zero_alloc_decode(scheme: QuantScheme, batch: usize, mode: StepMode) {
    assert_zero_alloc_decode_kv(scheme, KvScheme::Exact, batch, mode, false);
}

/// Same window arithmetic as the exact-cache probes: quantized pages use
/// the identical 16-row block geometry (only the bytes inside a page
/// differ), so block boundaries still fall at sequence lengths 17 and 33
/// — outside steps 13..=23 — and the `EncodeScratch` the append encoder
/// reuses reaches its full capacity during warmup.
fn assert_zero_alloc_decode_kv(
    scheme: QuantScheme,
    kv: KvScheme,
    batch: usize,
    mode: StepMode,
    accelerator: bool,
) {
    let _serial = probe_lock();
    let model = Model::new(ModelConfig::tiny(), scheme, 7).expect("probe model");
    let mut engine = engine_for_kv(&model, batch, mode, 1, kv);
    assert_site_pages(&model, &engine, kv);
    if accelerator {
        engine = attach(engine);
    }
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
    assert_zero_alloc_decode_kv(
        QuantScheme::bf16(),
        KvScheme::mxopal(),
        1,
        StepMode::ForcePool,
        false,
    );
}

#[test]
fn kv_mxopal_batch16_pool_steady_state_is_allocation_free() {
    assert_zero_alloc_decode_kv(
        QuantScheme::bf16(),
        KvScheme::mxopal(),
        16,
        StepMode::ForcePool,
        false,
    );
}

#[test]
fn kv_mxint_batch16_pool_steady_state_is_allocation_free() {
    assert_zero_alloc_decode_kv(
        QuantScheme::mxint_w4a47(),
        KvScheme::Exact,
        16,
        StepMode::ForcePool,
        false,
    );
}

#[test]
fn accelerator_attached_batch16_steady_state_is_allocation_free() {
    assert_zero_alloc_decode_kv(
        QuantScheme::mxopal_w4a47(),
        KvScheme::mxopal(),
        16,
        StepMode::ForcePool,
        true,
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

/// Steady-state *speculative* decode is allocation-free too: the n-gram
/// propose / fused-verify / rollback loop reuses the buffers preallocated
/// in `SpecState`, so a pure-decode step allocates exactly as much as a
/// plain one — nothing, unless one of its passes takes a fresh KV block.
///
/// n-gram acceptance is not known in advance, so the window is not a fixed
/// range of steps: every step is measured except the two one-time events
/// of this file's header, read off the step's records —
///
/// - a pass that took a fresh 16-row block (its page and `Arc`, and the
///   score buffers' doublings, which fall on the same boundaries: lengths
///   17, 33, 65). A verify pass that crosses a boundary takes its block
///   even when the rejected tail is rolled back, so this is not the pool's
///   net count;
/// - a decode pass with more rows than any before it, which grows the
///   workspace to that row count (the first decode pass, at length 9, also
///   grows the score buffers).
///
/// The probe requires at least four measured steps that drafted and one
/// that rolled a rejected tail back, and their allocations sum to zero.
#[test]
fn speculative_decode_steady_state_is_allocation_free() {
    assert_zero_alloc_speculative(QuantScheme::bf16(), KvScheme::Exact, false);
}

#[test]
fn kv_mxopal_speculative_decode_steady_state_is_allocation_free() {
    assert_zero_alloc_speculative(QuantScheme::bf16(), KvScheme::mxopal(), false);
}

/// The `spec_lowbatch_closed` shape: W4A4/7 with exact KV, which is the
/// K/V site's codes — verify passes append codes, the walk reads them and
/// a rejected tail rolls them back.
#[test]
fn site_pages_speculative_decode_steady_state_is_allocation_free() {
    assert_zero_alloc_speculative(QuantScheme::mxopal_w4a47(), KvScheme::Exact, false);
}

/// Fused verify passes are priced too.
#[test]
fn accelerator_attached_speculative_decode_is_allocation_free() {
    assert_zero_alloc_speculative(QuantScheme::bf16(), KvScheme::mxopal(), true);
}

fn assert_zero_alloc_speculative(scheme: QuantScheme, kv_scheme: KvScheme, accelerator: bool) {
    let _serial = probe_lock();
    let model = Model::new(ModelConfig::tiny(), scheme, 7).expect("probe model");
    let mut engine = speculative_engine(&model, kv_scheme);
    assert_site_pages(&model, &engine, kv_scheme);
    if accelerator {
        engine = attach(engine);
    }
    let measured = measure_speculative(&mut engine);
    let counts: Vec<u64> = measured.iter().map(|(n, _)| *n).collect();
    let drafted = measured.iter().filter(|(_, work)| work.iter().any(|w| w.drafted > 0)).count();
    let rolled_back =
        measured.iter().filter(|(_, work)| work.iter().any(|w| w.accepted < w.drafted)).count();
    assert!(drafted >= 4, "only {drafted} measured steps drafted ({counts:?})");
    assert!(rolled_back >= 1, "no measured step rolled a rejected tail back ({counts:?})");
    if cfg!(not(debug_assertions)) {
        assert_eq!(
            counts.iter().sum::<u64>(),
            0,
            "steady-state speculative decode allocated (per measured step: {counts:?})"
        );
    }
}

/// A sequence preempted mid-decode and resumed is as allocation-free as
/// one that never left: once it has re-prefilled its stream (prompt plus
/// the tokens it generated before), its speculative decode steps allocate
/// nothing. A `BlockPressure` fault hides the whole pool from one step's
/// planner; the first such step that needs a fresh block preempts the
/// younger of two sequences, and the step after re-admits it and
/// re-prefills it whole. The steps from there on are measured as in the
/// speculative probes, and the resumed sequence must draft in at least
/// four of them.
#[test]
fn resumed_speculative_decode_steady_state_is_allocation_free() {
    let _serial = probe_lock();
    let model = Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 7).expect("probe model");
    let mut engine = speculative_engine(&model, KvScheme::Exact);
    for _ in 0..4 {
        engine.step();
    }
    // The fault only bites a step that needs a fresh block.
    let preempted = (0..LIMIT).any(|_| {
        engine.inject_fault(FaultKind::BlockPressure { blocks: usize::MAX });
        engine.step().preempted == 1
    });
    assert!(preempted, "the fault never preempted the younger sequence");
    let resumed = engine.step();
    assert_eq!((resumed.admitted, engine.prefilling_len()), (1, 0), "not re-prefilled whole");
    let measured = measure_speculative(&mut engine);
    let counts: Vec<u64> = measured.iter().map(|(n, _)| *n).collect();
    // The resumed sequence rejoined at the tail of the batch.
    let drafted = measured.iter().filter(|(_, work)| work[1].drafted > 0).count();
    assert!(drafted >= 4, "the resumed sequence drafted in {drafted} measured steps ({counts:?})");
    if cfg!(not(debug_assertions)) {
        assert_eq!(
            counts.iter().sum::<u64>(),
            0,
            "resumed speculative decode allocated (per measured step: {counts:?})"
        );
    }
}

/// Two speculative sequences over looping prompts (n-gram k = 2, 16-row
/// blocks, whole prompts prefilled in their admission step).
fn speculative_engine(model: &Model, kv_scheme: KvScheme) -> ServeEngine<'_> {
    let config = ServeConfig {
        max_batch: 2,
        max_tokens: LIMIT,
        num_threads: 1,
        step_mode: StepMode::ForcePool,
        prefill_chunk: usize::MAX,
        block_size: BLOCK_SIZE,
        prefix_sharing: false,
        kv_scheme,
        spec: Some(SpecConfig { draft: DraftSource::NGram, k: 2 }),
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(model, config);
    let vocab = model.config().vocab as u32;
    for i in 0..2usize {
        // A looping motif gives the n-gram draft something to find.
        let prompt: Vec<u32> =
            (0..PROMPT_LEN).map(|p| ((i * 53 + (p % 3) * 19) as u32) % vocab).collect();
        engine.submit_with_limit(&prompt, LIMIT).expect("probe submit");
    }
    engine
}

/// Steps `engine` until a request retires and returns every measured
/// step's allocation count with its records: all steps but those that
/// took a fresh block or widened the decode pass (see
/// [`speculative_decode_steady_state_is_allocation_free`]).
fn measure_speculative(engine: &mut ServeEngine<'_>) -> Vec<(u64, Vec<SeqStepWork>)> {
    // Positions `[start, start + rows)` written into a table holding
    // `start` positions take a fresh block iff the block count grows.
    let took_block = |start: usize, rows: usize| {
        (start + rows).div_ceil(BLOCK_SIZE) > start.div_ceil(BLOCK_SIZE)
    };
    let (mut measured, mut widest) = (Vec::new(), 0);
    loop {
        let before = thread_allocations();
        let summary = engine.step();
        let after = thread_allocations();
        if summary.finished > 0 {
            return measured;
        }
        let work = engine.last_step_work();
        let fresh = work.iter().any(|w| {
            took_block(w.prefill_start, w.prefilled)
                || took_block(w.verify_start, w.verify_rows)
                || w.decode_context.is_some_and(|c| took_block(c - 1, 1))
        });
        let rows: usize =
            work.iter().map(|w| w.verify_rows + usize::from(w.decode_context.is_some())).sum();
        let wider = rows > widest;
        widest = widest.max(rows);
        if !fresh && !wider {
            measured.push((after - before, work.to_vec()));
        }
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
fn assert_zero_alloc_mixed_steps(scheme: QuantScheme, kv_scheme: KvScheme, accelerator: bool) {
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
    assert_site_pages(&model, &engine, kv_scheme);
    if accelerator {
        engine = attach(engine);
    }
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
    assert_zero_alloc_mixed_steps(QuantScheme::bf16(), KvScheme::Exact, false);
}

#[test]
fn mxopal_mixed_steps_are_allocation_free() {
    assert_zero_alloc_mixed_steps(QuantScheme::mxopal_w4a47(), KvScheme::Exact, false);
}

#[test]
fn kv_mxopal_mixed_steps_are_allocation_free() {
    assert_zero_alloc_mixed_steps(QuantScheme::bf16(), KvScheme::mxopal(), false);
}

#[test]
fn accelerator_attached_mixed_steps_are_allocation_free() {
    assert_zero_alloc_mixed_steps(QuantScheme::mxopal_w4a47(), KvScheme::mxopal(), true);
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
