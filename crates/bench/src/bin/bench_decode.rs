//! Decode-throughput benchmark: the optimized serving engine (paged KV
//! cache, zero-allocation scratch decode, parallel batch stepping)
//! against the preserved seed implementation, at batch 1 / 4 / 16.
//!
//! Emits `BENCH_decode.json` in the working directory so successive PRs
//! have a perf trajectory. Run with `--smoke` for a CI-sized run.
//!
//! Prefill and decode are timed separately: prefill throughput additionally
//! reflects the fast path that skips vocab-sized logits for all but the
//! final prompt token, decode throughput is the steady-state serving rate.
//! The headline figure compares decode tokens/sec of the optimized engine
//! at batch 16 against the sequential seed engine on the same model/scheme.
//!
//! Beyond the `optimized-{1,4}t` rows (the default `StepMode::Auto`
//! dispatch), each case also measures `pool-4t` — fan-out through the
//! persistent worker pool forced — so the JSON prices the dispatch even on
//! hosts where `Auto` correctly stays serial. A separate `mxopal_encode`
//! section times the MX-OPAL row round trip, allocating API vs the
//! reusable-scratch path the decode loop uses.
//!
//! The `prefill_admission` section measures the fused multi-token prefill
//! on a long prompt (fused vs token-at-a-time vs seed reference tokens/sec)
//! and the admission behaviour of the chunked scheduler: p50/p99 latency of
//! admitting long prompts into a busy batch plus the max per-step wall time
//! (the decode stall neighbours feel), chunked `prefill_chunk = 8` vs
//! blocking admission.
//!
//! The `kv_paging` section prices the paged cache: batch-16 decode with
//! 16-token blocks vs a flat-equivalent single page (the table-walk
//! overhead), the shared-prefix admission speedup (followers adopting a
//! warm prefix from the trie vs re-prefilling it) with the full-batch
//! block residency proving the prefix is stored once, and a preemption
//! shakedown under a deliberately tiny `max_blocks` pool that *asserts*
//! preempted requests complete with output identical to the uncontended
//! run.
//!
//! The `kv_quant` section compares MX-OPAL KV pages against the exact
//! bf16-precision cache: pool bytes per resident token, peak resident
//! sequences under one shared byte budget, batch-16 decode rate with the
//! quantized-domain attention walk, and the accuracy contract (max logit
//! error plus greedy agreement under teacher forcing). The section
//! *asserts* the acceptance floors: >= 3x bytes/token reduction, >= 2x
//! resident sequences, 100% greedy agreement, and the page walk adding at
//! most 0.18 of a batch-1 exact token per token. The 4-bit preset
//! (`mxopal4`) is measured alongside under the same byte budget with its
//! own floors (deeper bytes/token reduction, >= 4x resident sequences,
//! and the same walk bound). The walk's cost is bounded in its
//! own microseconds, against a token the same alternating rounds measure,
//! because the decode-rate ratio printed next to it moves whenever the
//! exact batch step changes speed and the added cost only when the walk
//! does. The same rounds give the fusion floor: batch 16 on one thread
//! decodes >= 1.15x the tok/s of batch 1 (one pass over the weights per
//! step; 1.26-1.60x measured).
//!
//! The `spec_decode` section measures draft-and-verify speculative
//! decoding against the plain engine on the same prompts at batch
//! 1 / 4 / 16, with output bit-identity and the rollback leak check
//! asserted outright. Each row carries two views of the same realized
//! schedules: host wall-clock and the OPAL reference platform roofline
//! (`opal_hw`), where low-batch generation is memory-bound on the weight
//! stream and the fused verify pass rides it for free — there the n-gram
//! draft must clear a >= 1.5x tok/s floor at batch <= 4. On the host a
//! verify row costs what a decode row costs (see [`bench_spec_decode`]),
//! so the host ratio prices the rejected rows and the draft's own passes.
//!
//! The `kernels` section is the L0 floor under all of the above:
//! `ops::dot` against a seed-style sequential `.sum::<f64>()` dot, timed
//! in alternating slices in this process at d = 128 / 512 / 4096, raw
//! GMAC/s plus the ratio. The ratio must be >= 2.0 at every width
//! (measured 2.8-3.1x with the 4-lane kernel, 1.2-1.3x with the 8-wide
//! body that regressed it). `matvec_into` (344x128) and `matmul_t_into`
//! (8 rows against 344x128), the two entry points every weight MAC goes
//! through, sit under the same floor against a seed-style product of the
//! same shape, and `kernel_path` records which of their inner loops this
//! host ran (`avx+fma`: the `ops::dot` lane schedule eight rows at a time,
//! measured 6-7x; `portable`: one `ops::dot` per element, the dot rows'
//! ratio). Two tripwires for the OPAL stages sit with them:
//! `Log2Softmax::probs_into` within 1.8x the time of `ops::softmax_into`
//! on a 1024-wide row (1.1-1.3x with one `exp` per score; two, as the
//! code loop once took, read 2.3-2.4x), and, where AVX2 runs the code
//! kernels, `ops::dot_codes_tile` at least 1.4x sixteen per-row
//! `ops::dot_codes` calls on a 16 x 128 page (its chains interleaved; one
//! chain per cached row is 1.0x). A GEMM-over-GEMV tripwire guards the
//! register tile: on the wide path `matmul_t_into` with 8 and with 4
//! activation rows must run at least 1.3x as many `matvec_into` calls on the
//! same 344x128 weights (each activation block widened once, each weight
//! chunk converted once per block; a GEMM that re-widens per weight row
//! reads ~1.0x at 8 rows and below it at 4). Next to them sit the headline
//! floors: the
//! `optimized-1t` decode rate must not fall below the seed engine's on any
//! model x scheme x batch row, nor fused prefill below the seed reference.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use std::sync::Arc;

use opal_model::{BlockPool, KvScheme, Model, ModelConfig, QuantScheme};
use opal_quant::{EncodeScratch, MxOpalQuantizer, Quantizer};
use opal_scenario::{
    kernel_rates, replay_with, CancelStorm, ChurnPhase, DegradedConfig, FinishReason, KernelRates,
    ReplayOptions, RetryPolicy, ScenarioReport, TraceConfig,
};
use opal_serve::{ServeConfig, ServeEngine, SpecConfig, StepMode};
use opal_softmax::Log2Softmax;
use opal_tensor::{ops, Matrix};

/// One measured engine configuration.
struct Row {
    model: String,
    scheme: &'static str,
    engine: String,
    batch: usize,
    threads: usize,
    prefill_tok_s: f64,
    decode_tok_s: f64,
}

fn prompts(batch: usize, vocab: usize, seed: u64) -> Vec<Vec<u32>> {
    let s = (seed % vocab as u64) as u32;
    (0..batch as u32)
        .map(|i| (0..(i % 5 + 2)).map(|j| (i * 13 + j * 5 + s) % vocab as u32).collect())
        .collect()
}

/// The seed engine: sequential stepping through the preserved reference
/// decode path (`Vec<Vec<f32>>` KV caches, latency-chained sums, fresh
/// allocations per token).
fn run_seed_engine(model: &Model, batch: usize, new_tokens: usize, seed: u64) -> (f64, f64) {
    let prompts = prompts(batch, model.config().vocab, seed);
    let t0 = Instant::now();
    let mut seqs: Vec<_> = prompts
        .iter()
        .map(|p| {
            let mut state = model.begin_reference_decode();
            let mut logits = Vec::new();
            for &t in p {
                logits = model.reference_decode_step(&mut state, t);
            }
            (state, logits)
        })
        .collect();
    let prefill_s = t0.elapsed().as_secs_f64();
    let prefill_tokens: usize = prompts.iter().map(Vec::len).sum();

    let t1 = Instant::now();
    for _ in 0..new_tokens {
        for (state, logits) in &mut seqs {
            let token = ops::argmax(logits).unwrap_or(0) as u32;
            *logits = model.reference_decode_step(state, token);
        }
    }
    let decode_s = t1.elapsed().as_secs_f64();
    (prefill_tokens as f64 / prefill_s, (batch * new_tokens) as f64 / decode_s)
}

/// Best-of-N repeat count for a measured row: more runs for small batches,
/// whose individual executions are only milliseconds, damping scheduler
/// noise on rows whose code paths are identical by design (e.g.
/// `optimized-4t` vs `optimized-1t` on a single-core host, where `Auto`
/// serializes both).
fn measure_runs(batch: usize) -> usize {
    (32 / batch.max(1)).clamp(3, 24)
}

/// The optimized engine: `ServeEngine` with the given thread count and
/// dispatch mode, run with blocking-equivalent admission
/// (`prefill_chunk = usize::MAX`): the first step consumes every prompt
/// (through the fused multi-token path) *plus one decode round*, the
/// remaining steps are pure decode. Attribution therefore shifted in this
/// PR — admission is no longer a separately timeable phase, so the
/// `prefill_tok_s` column includes one batch of decode work (deflating it
/// slightly) and `decode_tok_s` excludes that first round; compare these
/// columns with pre-chunked-scheduler JSONs accordingly. Reported figures
/// are the best of `runs` executions.
#[allow(clippy::too_many_arguments)]
fn run_opt_engine(
    model: &Model,
    batch: usize,
    threads: usize,
    step_mode: StepMode,
    new_tokens: usize,
    runs: usize,
    seed: u64,
) -> (f64, f64) {
    run_opt_engine_paged(model, batch, threads, step_mode, new_tokens, runs, 16, seed)
}

/// [`run_opt_engine`] with an explicit KV block size, for the `kv_paging`
/// section's paged-vs-flat comparison (a block far larger than any
/// sequence reproduces the old contiguous-buffer layout: one page per
/// sequence per layer, no table walking).
#[allow(clippy::too_many_arguments)]
fn run_opt_engine_paged(
    model: &Model,
    batch: usize,
    threads: usize,
    step_mode: StepMode,
    new_tokens: usize,
    runs: usize,
    block_size: usize,
    seed: u64,
) -> (f64, f64) {
    let mut best = (0.0f64, 0.0f64);
    for _ in 0..runs {
        let config = ServeConfig {
            max_batch: batch,
            max_tokens: new_tokens,
            num_threads: threads,
            step_mode,
            prefill_chunk: usize::MAX,
            block_size,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(model, config);
        for p in prompts(batch, model.config().vocab, seed) {
            engine.submit(&p).expect("valid prompt");
        }
        let prefill_tokens: usize =
            prompts(batch, model.config().vocab, seed).iter().map(Vec::len).sum();
        let t0 = Instant::now();
        let first = engine.step();
        let prefill_s = t0.elapsed().as_secs_f64();
        debug_assert_eq!(first.prefilled, prefill_tokens);

        let t1 = Instant::now();
        let mut generated = 0usize;
        while !engine.is_idle() {
            generated += engine.step().generated;
        }
        let decode_s = t1.elapsed().as_secs_f64();
        best.0 = best.0.max(prefill_tokens as f64 / prefill_s);
        best.1 = best.1.max(generated as f64 / decode_s);
    }
    best
}

#[allow(clippy::too_many_arguments)]
fn bench_case(
    model_name: &str,
    config: &ModelConfig,
    scheme_name: &'static str,
    scheme: QuantScheme,
    new_tokens: usize,
    seed: u64,
    rows: &mut Vec<Row>,
) {
    let model = Model::new(config.clone(), scheme, seed).expect("valid scheme");
    for batch in [1usize, 4, 16] {
        // Warm one pass so first-touch effects hit nobody in particular.
        run_opt_engine(&model, batch, 1, StepMode::Auto, 4.min(new_tokens), 1, seed);

        let (pf, dec) = run_seed_engine(&model, batch, new_tokens, seed);
        rows.push(Row {
            model: model_name.into(),
            scheme: scheme_name,
            engine: "seed-sequential".into(),
            batch,
            threads: 1,
            prefill_tok_s: pf,
            decode_tok_s: dec,
        });
        // `optimized-{1,4}t` is the deployment configuration (Auto decides
        // whether fanning out can pay); `pool-4t` forces the dispatch so
        // its cost is visible no matter the host's core count.
        let engines: [(&str, usize, StepMode); 3] = [
            ("optimized-1t", 1, StepMode::Auto),
            ("optimized-4t", 4, StepMode::Auto),
            ("pool-4t", 4, StepMode::ForcePool),
        ];
        // On a single-core host every Auto configuration is the same
        // execution by construction — the cores gate serializes decode and
        // prefill steps alike — so measure once and reuse instead of
        // re-sampling one distribution and reporting scheduler noise as a
        // thread-count effect. On multi-core hosts the plans can differ
        // between the (work-weighted) prefill step and the steady decode
        // steps, so `planned_threads(batch)` alone cannot prove two
        // configurations equivalent: measure each.
        let planned = |threads: usize, step_mode: StepMode| {
            let cfg = ServeConfig {
                max_batch: batch,
                max_tokens: new_tokens,
                num_threads: threads,
                step_mode,
                ..ServeConfig::default()
            };
            ServeEngine::new(&model, cfg).planned_threads(batch)
        };
        let mut measured: Vec<(usize, (f64, f64))> = Vec::new();
        for (name, threads, step_mode) in engines {
            let plan = planned(threads, step_mode);
            let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            let serial_reuse = if step_mode == StepMode::Auto && cores == 1 {
                measured.iter().find(|(p, _)| *p == plan).map(|&(_, m)| m)
            } else {
                None
            };
            let (pf, dec) = match serial_reuse {
                Some(m) => m,
                None => {
                    let m = run_opt_engine(
                        &model,
                        batch,
                        threads,
                        step_mode,
                        new_tokens,
                        measure_runs(batch),
                        seed,
                    );
                    if step_mode == StepMode::Auto {
                        measured.push((plan, m));
                    }
                    m
                }
            };
            rows.push(Row {
                model: model_name.into(),
                scheme: scheme_name,
                engine: name.into(),
                batch,
                threads,
                prefill_tok_s: pf,
                decode_tok_s: dec,
            });
        }
    }
}

/// One measurement of the MX-OPAL row round trip (`quantize_dequantize`
/// allocating API vs the reusable-scratch fused path).
struct EncodeRow {
    d: usize,
    alloc_rows_per_s: f64,
    scratch_rows_per_s: f64,
    speedup: f64,
}

/// Times the W4 MX-OPAL encoder over activation-like rows of width `d`
/// (block 128, 4 outliers — the paper's configuration), with a sprinkling
/// of outlier channels so the top-magnitude selection does real work.
fn bench_mxopal_encode(smoke: bool) -> Vec<EncodeRow> {
    let q = MxOpalQuantizer::new(4, 128, 4).expect("valid config");
    let budget_s = if smoke { 0.02 } else { 0.2 };
    let mut out_rows = Vec::new();
    for d in [128usize, 4096] {
        let x: Vec<f32> = (0..d)
            .map(|i| {
                let base = (((i * 37 + 11) % 41) as f32 / 41.0 - 0.5) * 0.8;
                if i % 97 == 0 {
                    base * 40.0
                } else {
                    base
                }
            })
            .collect();
        let mut out = vec![0.0f32; d];
        let mut scratch = EncodeScratch::new();

        fn time(budget_s: f64, mut row: impl FnMut()) -> f64 {
            for _ in 0..3 {
                row();
            }
            let t0 = Instant::now();
            let mut iters = 0u64;
            while t0.elapsed().as_secs_f64() < budget_s {
                row();
                iters += 1;
            }
            iters as f64 / t0.elapsed().as_secs_f64()
        }

        let alloc_rows_per_s = time(budget_s, || {
            black_box(q.quantize_dequantize(black_box(&x)));
        });
        let scratch_rows_per_s = time(budget_s, || {
            q.quantize_dequantize_scratch(black_box(&x), &mut out, &mut scratch);
            black_box(out[0]);
        });
        out_rows.push(EncodeRow {
            d,
            alloc_rows_per_s,
            scratch_rows_per_s,
            speedup: scratch_rows_per_s / alloc_rows_per_s,
        });
    }
    out_rows
}

/// Long-prompt prefill throughput: the fused multi-token path against the
/// token-at-a-time loop it replaced (chunk size 1 through the same code,
/// preserving the skip-logits-until-last behaviour) and the seed reference.
struct PrefillThroughput {
    fused_tok_s: f64,
    tokenwise_tok_s: f64,
    reference_tok_s: f64,
}

fn bench_prefill_throughput(model: &Model, prompt_len: usize, runs: usize) -> PrefillThroughput {
    let vocab = model.config().vocab as u32;
    let prompt: Vec<u32> = (0..prompt_len as u32).map(|i| (i * 31 + 7) % vocab).collect();
    let mut logits = vec![0.0f32; model.config().vocab];
    let time_best = |run: &mut dyn FnMut()| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..runs {
            let t0 = Instant::now();
            run();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        prompt.len() as f64 / best
    };

    let fused_tok_s = time_best(&mut || {
        let mut state = model.begin_decode();
        model.prefill_into(&mut state, black_box(&prompt), &mut logits);
        black_box(logits[0]);
    });
    let tokenwise_tok_s = time_best(&mut || {
        let mut state = model.begin_decode();
        let (last, head) = prompt.split_last().expect("non-empty");
        for &t in head {
            model.prefill_chunk(&mut state, &[t]);
        }
        model.prefill_chunk_into(&mut state, &[*last], &mut logits);
        black_box(logits[0]);
    });
    let reference_tok_s = time_best(&mut || {
        let mut state = model.begin_reference_decode();
        let mut out = Vec::new();
        for &t in &prompt {
            out = model.reference_decode_step(&mut state, t);
        }
        black_box(out[0]);
    });
    PrefillThroughput { fused_tok_s, tokenwise_tok_s, reference_tok_s }
}

/// Admission behaviour while long prompts join a busy batch: per-admission
/// latency (submit → prompt fully prefilled) and the decode stall it
/// inflicts (max per-step wall time while the prompt is being admitted).
struct AdmissionStats {
    p50_ms: f64,
    p99_ms: f64,
    max_step_ms: f64,
    mean_step_ms: f64,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    let rank = (p * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

/// Runs `n_long` long-prompt admissions, one at a time, against a batch of
/// short requests decoding steadily, and measures every scheduler step
/// taken while a long prompt is in its `Prefilling` phase.
fn bench_admission(
    model: &Model,
    prompt_len: usize,
    n_long: usize,
    prefill_chunk: usize,
) -> AdmissionStats {
    let vocab = model.config().vocab as u32;
    let config = ServeConfig {
        max_batch: 4,
        max_tokens: usize::MAX,
        num_threads: 1,
        prefill_chunk,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(model, config);
    // Three background residents with effectively unbounded limits keep
    // decode traffic flowing for the whole measurement.
    for i in 0..3u32 {
        engine.submit_with_limit(&[i + 1, i + 2, i + 3], usize::MAX).expect("valid prompt");
    }
    for _ in 0..4 {
        engine.step();
    }

    let mut admissions_ms = Vec::with_capacity(n_long);
    let mut step_ms = Vec::new();
    for a in 0..n_long as u32 {
        let prompt: Vec<u32> = (0..prompt_len as u32).map(|i| (i * 29 + a) % vocab).collect();
        let t0 = Instant::now();
        // Limit 1: the long request retires in the step that completes its
        // prefill, freeing its batch slot for the next admission.
        engine.submit_with_limit(&prompt, 1).expect("valid prompt");
        loop {
            let t_step = Instant::now();
            engine.step();
            step_ms.push(t_step.elapsed().as_secs_f64() * 1e3);
            if engine.prefilling_len() == 0 && engine.pending_len() == 0 {
                break;
            }
        }
        admissions_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    admissions_ms.sort_by(f64::total_cmp);
    let mean_step_ms = step_ms.iter().sum::<f64>() / step_ms.len().max(1) as f64;
    AdmissionStats {
        p50_ms: percentile(&admissions_ms, 0.50),
        p99_ms: percentile(&admissions_ms, 0.99),
        max_step_ms: step_ms.iter().copied().fold(0.0, f64::max),
        mean_step_ms,
    }
}

/// Shared-prefix admission: one request warms the prefix cache, then the
/// remaining `n - 1` join concurrently, with and without sharing.
struct SharedPrefixStats {
    first_admit_ms: f64,
    shared_followers_ms: f64,
    unshared_followers_ms: f64,
    admission_speedup: f64,
    shared_blocks: usize,
    unshared_blocks: usize,
}

/// Requests share a `prefix_len`-token prefix with distinct 4-token tails.
/// With sharing enabled the first request publishes the prefix blocks and
/// every follower adopts them read-only, prefilling only its tail —
/// `followers_ms` measures submit-to-all-prefilled for the `n - 1`
/// followers, and the block counts are the pool residency with the whole
/// batch resident (the "prefix stored once" figure).
fn bench_shared_prefix(model: &Model, n: usize, prefix_len: usize) -> SharedPrefixStats {
    let vocab = model.config().vocab as u32;
    let prefix: Vec<u32> = (0..prefix_len as u32).map(|i| (i * 31 + 7) % vocab).collect();
    let run = |sharing: bool| -> (f64, f64, usize) {
        let config = ServeConfig {
            max_batch: n,
            max_tokens: 64, // residents outlive the measurement window
            prefill_chunk: usize::MAX,
            block_size: 16,
            prefix_sharing: sharing,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(model, config);
        let prompt = |a: u32| -> Vec<u32> {
            let mut p = prefix.clone();
            p.extend((0..4u32).map(|j| (a * 7 + j + 1) % vocab));
            p
        };
        let t0 = Instant::now();
        engine.submit(&prompt(0)).expect("valid prompt");
        while engine.prefilling_len() > 0 || engine.pending_len() > 0 {
            engine.step();
        }
        let first_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        for a in 1..n as u32 {
            engine.submit(&prompt(a)).expect("valid prompt");
        }
        while engine.prefilling_len() > 0 || engine.pending_len() > 0 {
            engine.step();
        }
        let followers_ms = t1.elapsed().as_secs_f64() * 1e3;
        (first_ms, followers_ms, engine.kv_blocks_in_use())
    };
    let (first_admit_ms, shared_followers_ms, shared_blocks) = run(true);
    let (_, unshared_followers_ms, unshared_blocks) = run(false);
    SharedPrefixStats {
        first_admit_ms,
        shared_followers_ms,
        unshared_followers_ms,
        admission_speedup: unshared_followers_ms / shared_followers_ms,
        shared_blocks,
        unshared_blocks,
    }
}

/// Pool exhaustion: a block budget far below the offered load must preempt
/// and still complete every request with output identical to the
/// uncontended run.
struct PreemptionStats {
    max_blocks: usize,
    preemptions: u64,
    completed: usize,
    matches_uncontended: bool,
}

fn bench_preemption(model: &Model) -> PreemptionStats {
    let vocab = model.config().vocab as u32;
    let prompts: Vec<Vec<u32>> =
        (0..4u32).map(|i| (0..8).map(|j| (i * 17 + j * 3 + 1) % vocab).collect()).collect();
    let max_blocks = model.config().n_layers * 6; // ~1.2x one sequence's worst case
    let run = |cap: usize| -> (Vec<Vec<u32>>, u64, usize) {
        let config = ServeConfig {
            max_batch: 4,
            max_tokens: 6,
            block_size: 4,
            max_blocks: cap,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(model, config);
        let ids: Vec<_> = prompts.iter().map(|p| engine.submit(p).expect("valid prompt")).collect();
        let report = engine.run();
        let tokens: Vec<Vec<u32>> =
            ids.iter().filter_map(|id| report.request(*id).map(|r| r.tokens.clone())).collect();
        (tokens, report.preemptions, report.requests.len())
    };
    let (reference, _, _) = run(usize::MAX);
    let (pressured, preemptions, completed) = run(max_blocks);
    PreemptionStats {
        max_blocks,
        preemptions,
        completed,
        matches_uncontended: pressured == reference,
    }
}

struct KvQuantStats {
    /// KV pool bytes per resident token, exact pages.
    bytes_per_token_exact: f64,
    /// KV pool bytes per resident token, quantized pages.
    bytes_per_token_quant: f64,
    bytes_reduction: f64,
    /// Block bounds the shared byte budget buys each scheme.
    budget_blocks_exact: usize,
    budget_blocks_quant: usize,
    /// Peak resident sequences each scheme reached under that budget.
    resident_exact: usize,
    resident_quant: usize,
    residency_gain: f64,
    exact_tok_s: f64,
    /// One sequence alone on the exact cache, from the same alternating
    /// rounds: the yardstick the page walk's added cost is bounded against,
    /// and the base of the fusion floor.
    exact_b1_tok_s: f64,
    quant_tok_s: f64,
    tok_s_ratio: f64,
    max_logit_err: f32,
    greedy_agreement: f64,
    /// 4-bit preset (`mxopal4`) rows under the same byte budget.
    bytes_per_token_quant4: f64,
    bytes_reduction4: f64,
    budget_blocks_quant4: usize,
    resident_quant4: usize,
    residency_gain4: f64,
    quant4_tok_s: f64,
    tok_s_ratio4: f64,
    max_logit_err4: f32,
    greedy_agreement4: f64,
}

/// Microseconds the quantized page walk adds to one generated token.
fn walk_added_us(quant_tok_s: f64, exact_tok_s: f64) -> f64 {
    1e6 / quant_tok_s - 1e6 / exact_tok_s
}

/// Decode throughput of each given (KV page scheme, batch size) on one
/// thread (unbounded pool), best of `runs`. The cases take turns inside
/// every round: the host's speed drifts 10-20% over seconds, and what is
/// asserted is ratios between them.
fn kv_decode_tok_s<const N: usize>(
    model: &Model,
    cases: [(KvScheme, usize); N],
    new_tokens: usize,
    runs: usize,
    seed: u64,
) -> [f64; N] {
    let mut best = [0.0f64; N];
    for _ in 0..runs {
        for (best, &(scheme, batch)) in best.iter_mut().zip(&cases) {
            let config = ServeConfig {
                max_batch: batch,
                max_tokens: new_tokens,
                prefill_chunk: usize::MAX,
                kv_scheme: scheme,
                ..ServeConfig::default()
            };
            let mut engine = ServeEngine::new(model, config);
            for p in prompts(batch, model.config().vocab, seed) {
                engine.submit(&p).expect("valid prompt");
            }
            engine.step(); // prefill
            let t = Instant::now();
            let mut generated = 0usize;
            while !engine.is_idle() {
                generated += engine.step().generated;
            }
            *best = best.max(generated as f64 / t.elapsed().as_secs_f64());
        }
    }
    best
}

/// Peak resident sequences a `max_blocks`-bounded pool sustains while
/// draining `n_requests` cache-cold requests. Submissions interleave with
/// engine steps so each admission decision sees the blocks earlier prefills
/// really allocated — the admission gate, not the queue, is what binds.
fn kv_resident_capacity(
    model: &Model,
    scheme: KvScheme,
    max_blocks: usize,
    n_requests: usize,
    prompt_len: u32,
    new_tokens: usize,
    seed: u64,
) -> usize {
    let config = ServeConfig {
        max_batch: n_requests,
        max_tokens: new_tokens,
        prefill_chunk: usize::MAX,
        max_blocks,
        kv_scheme: scheme,
        prefix_sharing: false,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(model, config);
    let vocab = model.config().vocab as u32;
    for i in 0..n_requests as u32 {
        let p: Vec<u32> = (0..prompt_len).map(|j| (i * 31 + j * 7 + seed as u32) % vocab).collect();
        engine.submit(&p).expect("valid prompt");
        engine.step();
    }
    engine.run().peak_batch
}

/// Accuracy of the quantized cache against the exact cache: teacher-forced
/// greedy decode on both (identical token history, chosen by the exact
/// stream), comparing full logit vectors each step.
fn kv_accuracy(model: &Model, scheme: KvScheme, steps: usize, seed: u64) -> (f32, f64) {
    let d = model.config().d_model;
    let exact_pool = Arc::new(BlockPool::with_scheme(16, d, usize::MAX, KvScheme::Exact));
    let quant_pool = Arc::new(BlockPool::with_scheme(16, d, usize::MAX, scheme));
    let mut max_err = 0.0f32;
    let (mut agree, mut total) = (0usize, 0usize);
    for prompt in prompts(4, model.config().vocab, seed) {
        let mut se = model.begin_decode_paged(&exact_pool);
        let mut sq = model.begin_decode_paged(&quant_pool);
        for &t in &prompt[..prompt.len() - 1] {
            model.decode_step(&mut se, t);
            model.decode_step(&mut sq, t);
        }
        let mut next = *prompt.last().expect("non-empty prompt");
        for _ in 0..steps {
            let le = model.decode_step(&mut se, next);
            let lq = model.decode_step(&mut sq, next);
            for (a, b) in le.iter().zip(&lq) {
                max_err = max_err.max((a - b).abs());
            }
            let pick_e = ops::argmax(&le).expect("non-empty logits");
            let pick_q = ops::argmax(&lq).expect("non-empty logits");
            total += 1;
            agree += usize::from(pick_e == pick_q);
            next = pick_e as u32;
        }
    }
    (max_err, agree as f64 / total as f64)
}

/// The `kv_quant` section: quantized KV pages (MX-OPAL preset) against the
/// exact cache — storage, capacity under one byte budget, decode overhead,
/// and the accuracy contract.
fn bench_kv_quant(model: &Model, new_tokens: usize, smoke: bool, seed: u64) -> KvQuantStats {
    let bs = 16usize;
    let nl = model.config().n_layers;
    let d = model.config().d_model;
    let exact = KvScheme::Exact;
    let quant = KvScheme::mxopal();
    let quant4 = KvScheme::mxopal4();
    let bytes_per_token = |s: &KvScheme| (nl * 2) as f64 * s.page_bytes(bs, d) as f64 / bs as f64;
    let bytes_per_token_exact = bytes_per_token(&exact);
    let bytes_per_token_quant = bytes_per_token(&quant);
    let bytes_per_token_quant4 = bytes_per_token(&quant4);

    // One KV byte budget, translated into each scheme's block bound: the
    // "same memory" comparison a deployment actually faces. Each request
    // needs 4 blocks per layer (40-token prompt + 24 generated = 64
    // positions), so the exact cache parks ~3 sequences while the same
    // bytes hold 3.5x the quantized blocks (~7x at 4 bits). Lifetimes are
    // long enough (24 generated tokens against one admission per step)
    // that the byte budget, not the submission cadence, is what binds.
    let budget_blocks_exact = nl * 12;
    let budget_bytes = budget_blocks_exact * 2 * exact.page_bytes(bs, d);
    let budget_blocks_quant = budget_bytes / (2 * quant.page_bytes(bs, d));
    let budget_blocks_quant4 = budget_bytes / (2 * quant4.page_bytes(bs, d));
    let n_requests = if smoke { 24 } else { 32 };
    let resident_exact =
        kv_resident_capacity(model, exact, budget_blocks_exact, n_requests, 40, 24, seed);
    let resident_quant =
        kv_resident_capacity(model, quant, budget_blocks_quant, n_requests, 40, 24, seed);
    let resident_quant4 =
        kv_resident_capacity(model, quant4, budget_blocks_quant4, n_requests, 40, 24, seed);

    // The floors are asserted on ratios of these: enough rounds that each
    // scheme's best is an undisturbed one (a round is ~0.3 s, ~50 ms in
    // the smoke run).
    let runs = 10;
    let [exact_tok_s, quant_tok_s, quant4_tok_s, exact_b1_tok_s] = kv_decode_tok_s(
        model,
        [(exact, 16), (quant, 16), (quant4, 16), (exact, 1)],
        new_tokens,
        runs,
        seed,
    );

    let (max_logit_err, greedy_agreement) =
        kv_accuracy(model, quant, if smoke { 12 } else { 24 }, seed);
    let (max_logit_err4, greedy_agreement4) =
        kv_accuracy(model, quant4, if smoke { 12 } else { 24 }, seed);

    KvQuantStats {
        bytes_per_token_exact,
        bytes_per_token_quant,
        bytes_reduction: bytes_per_token_exact / bytes_per_token_quant,
        budget_blocks_exact,
        budget_blocks_quant,
        resident_exact,
        resident_quant,
        residency_gain: resident_quant as f64 / resident_exact as f64,
        exact_tok_s,
        exact_b1_tok_s,
        quant_tok_s,
        tok_s_ratio: quant_tok_s / exact_tok_s,
        max_logit_err,
        greedy_agreement,
        bytes_per_token_quant4,
        bytes_reduction4: bytes_per_token_exact / bytes_per_token_quant4,
        budget_blocks_quant4,
        resident_quant4,
        residency_gain4: resident_quant4 as f64 / resident_exact as f64,
        quant4_tok_s,
        tok_s_ratio4: quant4_tok_s / exact_tok_s,
        max_logit_err4,
        greedy_agreement4,
    }
}

/// One measured speculative-decoding configuration at one batch size.
struct SpecRow {
    draft: &'static str,
    batch: usize,
    host_plain_tok_s: f64,
    host_spec_tok_s: f64,
    /// Host wall ratio, speculative over plain. A verify row costs the
    /// host what a decode row costs, so below 1.0 this prices the rejected
    /// rows plus the draft model's own passes, and above 1.0 the per-step
    /// overhead that fewer, larger steps save.
    host_ratio: f64,
    steps_plain: u64,
    steps_spec: u64,
    acceptance: f64,
    drafted: u64,
    accepted: u64,
    /// Decode tok/s with each run's realized schedule priced on the OPAL
    /// reference platform roofline, where generation is memory-bound and
    /// the fused verify rides the same weight stream as the token it
    /// replaces — the regime the paper's deployment actually serves in.
    modeled_plain_tok_s: f64,
    modeled_spec_tok_s: f64,
    modeled_speedup: f64,
    /// Fraction of the modeled speculative decode time spent in the draft
    /// model (0 for the n-gram draft, which proposes from the sequence's
    /// own history without a forward pass).
    draft_share_modeled: f64,
}

struct SpecDecodeStats {
    k: usize,
    new_tokens: usize,
    rows: Vec<SpecRow>,
}

/// One drained engine run for the `spec_decode` section: host decode
/// throughput plus the same schedule priced on the OPAL roofline.
struct SpecEngineRun {
    host_tok_s: f64,
    steps: u64,
    drafted: u64,
    accepted: u64,
    generated: usize,
    modeled_decode_s: f64,
    modeled_draft_s: f64,
    tokens: Vec<Vec<u32>>,
}

/// Prompts for the speculative section: 24-token periodic motifs (period
/// 3 + i mod 3). Speculation's serving win concentrates on repetitive
/// streams — agent loops, retrieval templates, code — and the proxy
/// model's greedy continuations of these prompts first wander, then
/// settle into cycles, so the n-gram draft sees a realistic mixed regime
/// (cold misses early, long accepted runs late) rather than a hand-picked
/// best case.
fn spec_prompts(batch: usize, vocab: usize, seed: u64) -> Vec<Vec<u32>> {
    let s = (seed % vocab as u64) as u32;
    (0..batch as u32)
        .map(|i| {
            let period = 3 + i % 3;
            (0..24u32).map(|j| (i * 29 + (j % period) * 11 + s) % vocab as u32).collect()
        })
        .collect()
}

/// Drains one engine over the speculative prompt set and prices every
/// realized step on the OPAL reference platform (the schedule is
/// deterministic, so every drain of a configuration prices identically;
/// only the host throughput differs). Asserts the rollback contract: a
/// clean audit and zero resident KV blocks after the drain.
fn run_spec_engine(
    model: &Model,
    batch: usize,
    spec: Option<SpecConfig>,
    new_tokens: usize,
    seed: u64,
) -> SpecEngineRun {
    use opal_hw::performance::{workload_latency, Platform};
    use opal_hw::workload::{DataFormat, TokenWorkload};

    let fmt = DataFormat::bf16();
    let platform = Platform::reference();
    let draft_cfg = match spec {
        Some(SpecConfig { draft: opal_serve::DraftSource::Truncated { layers }, .. }) => {
            let mut c = model.config().clone();
            c.n_layers = layers;
            Some(c)
        }
        _ => None,
    };
    let config = ServeConfig {
        max_batch: batch,
        max_tokens: new_tokens,
        prefill_chunk: usize::MAX,
        // No prefix cache: with sharing on, the trie deliberately
        // retains full prompt blocks after retirement, which would
        // mask the zero-blocks-after-rollback check below.
        prefix_sharing: false,
        spec,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(model, config);
    let ids: Vec<_> = spec_prompts(batch, model.config().vocab, seed)
        .iter()
        .map(|p| engine.submit(p).expect("valid prompt"))
        .collect();
    // First step consumes every prompt plus one (non-speculative)
    // decode round; excluded from decode timing as in
    // `run_opt_engine_paged`.
    engine.step();
    let t = Instant::now();
    let (mut generated, mut steps) = (0usize, 0u64);
    let (mut drafted, mut accepted) = (0u64, 0u64);
    let (mut modeled_decode_s, mut modeled_draft_s) = (0.0f64, 0.0f64);
    while !engine.is_idle() {
        let s = engine.step();
        generated += s.generated;
        drafted += s.drafted as u64;
        accepted += s.accepted as u64;
        steps += 1;
        // Price the realized schedule: verify rows later rolled back
        // still ran, so they are billed; the whole step shares one
        // weight stream (`from_schedule` counts weight bytes once).
        let mut contexts = Vec::new();
        let mut dctx = Vec::new();
        let mut wl = TokenWorkload::zero();
        for w in engine.last_step_work() {
            for i in 0..w.prefilled {
                contexts.push(w.prefill_start + i + 1);
            }
            if w.verify_rows > 0 {
                // Fused verify: `from_verify` streams the sequence's
                // shared paged KV once for all rows, where per-row
                // scheduling would re-read it each time. Weights are
                // zeroed here and charged once for the whole step.
                let mut v =
                    TokenWorkload::from_verify(model.config(), &fmt, w.verify_start, w.verify_rows);
                v.weight_bytes = 0.0;
                wl.accumulate(&v);
            }
            if let Some(c) = w.decode_context {
                contexts.push(c);
            }
            for i in 0..w.draft_rows {
                dctx.push(w.draft_start + i + 1);
            }
        }
        let ran_verify = wl.kv_bytes > 0.0;
        wl.accumulate(&TokenWorkload::from_schedule(model.config(), &fmt, &contexts));
        if ran_verify && wl.weight_bytes == 0.0 {
            wl.weight_bytes = model.config().decoder_params() as f64 * fmt.weight_bits / 8.0;
        }
        if !contexts.is_empty() || ran_verify {
            modeled_decode_s += workload_latency(&wl, &fmt, &platform).total_s();
        }
        if let Some(dc) = &draft_cfg {
            if !dctx.is_empty() {
                let wl = TokenWorkload::from_schedule(dc, &fmt, &dctx);
                modeled_draft_s += workload_latency(&wl, &fmt, &platform).total_s();
            }
        }
    }
    let host_tok_s = generated as f64 / t.elapsed().as_secs_f64();
    let audit = engine.audit();
    assert!(audit.violations.is_empty(), "spec decode audit violations: {:?}", audit.violations);
    assert_eq!(engine.kv_blocks_in_use(), 0, "speculative rollback leaked KV blocks");
    let report = engine.report(t.elapsed());
    let tokens = ids
        .iter()
        .map(|id| report.request(*id).expect("request completed").tokens.clone())
        .collect();
    SpecEngineRun {
        host_tok_s,
        steps,
        drafted,
        accepted,
        generated,
        modeled_decode_s,
        modeled_draft_s,
        tokens,
    }
}

/// Alternating rounds per batch size in the `spec_decode` section.
const SPEC_ROUNDS: usize = 4;

/// The `spec_decode` section: draft-and-verify speculative decoding
/// against the plain engine on the same prompts, at batch 1 / 4 / 16.
///
/// Two views per row, both from the same runs:
///
/// - **host**: wall-clock decode tok/s of this simulator. A verify row
///   costs the arithmetic of a decode row, and the plain engine's batch
///   shares its pass over the weights just as a verify pass does, so what
///   speculation saves the host is steps. Measured over ten full runs,
///   plain and speculative drains alternating: n-gram 1.03-1.14x plain at
///   batch 1, 1.01-1.16x at batch 4 and 0.90-1.01x at batch 16 (free
///   draft, 84-95% acceptance; at batch 16 the rejected rows cost about
///   what the steps save), truncated-1 0.76-0.86x at batch 1 and
///   0.57-0.78x at batch 4 (its draft passes run per sequence and cost
///   more than the accepted tokens save). The floor below guards the
///   overhead, not a speed-up.
/// - **modeled**: the identical realized schedules priced on the OPAL
///   reference platform (`opal_hw`), where batch-1..4 generation is
///   memory-bound on the weight stream and a fused verify pass costs one
///   stream no matter how many rows ride it. This is the serving regime
///   the tentpole targets, and where the ≥1.5x floor at batch ≤ 4 is
///   asserted for the free n-gram draft.
///
/// Output identity is asserted outright: every speculative token stream
/// must be bit-identical to the plain engine's on the same request.
fn bench_spec_decode(model: &Model, smoke: bool, seed: u64) -> SpecDecodeStats {
    use opal_serve::DraftSource;
    let k = 4usize;
    // Long enough that the streams reach their cyclic regime; the smoke
    // run keeps the horizon (the floor is asserted there too) and trims
    // batches and repeats instead.
    let new_tokens = 256usize;
    let batches: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 16] };
    let mut rows = Vec::new();
    for &batch in batches {
        let mut drafts = vec![("ngram", DraftSource::NGram)];
        if !smoke && batch <= 4 {
            drafts.push(("truncated-1", DraftSource::Truncated { layers: 1 }));
        }
        // The plain engine and every draft take turns inside each round,
        // best drain of each kept: the host's speed drifts 10-20% over
        // seconds, and what is asserted is the ratio between them.
        let configs: Vec<Option<SpecConfig>> = std::iter::once(None)
            .chain(drafts.iter().map(|&(_, draft)| Some(SpecConfig { draft, k })))
            .collect();
        let mut best: Vec<Option<SpecEngineRun>> = configs.iter().map(|_| None).collect();
        for _ in 0..SPEC_ROUNDS {
            for (best, &spec) in best.iter_mut().zip(&configs) {
                let run = run_spec_engine(model, batch, spec, new_tokens, seed);
                if best.as_ref().is_none_or(|b| run.host_tok_s > b.host_tok_s) {
                    *best = Some(run);
                }
            }
        }
        let mut best = best.into_iter().map(|run| run.expect("at least one round"));
        let plain = best.next().expect("the plain engine ran");
        let modeled_plain_tok_s = plain.generated as f64 / plain.modeled_decode_s;
        for ((name, _), spec) in drafts.into_iter().zip(best) {
            assert_eq!(
                spec.tokens, plain.tokens,
                "speculative decode diverged from greedy (draft {name}, batch {batch})"
            );
            let modeled_s = spec.modeled_decode_s + spec.modeled_draft_s;
            rows.push(SpecRow {
                draft: name,
                batch,
                host_plain_tok_s: plain.host_tok_s,
                host_spec_tok_s: spec.host_tok_s,
                host_ratio: spec.host_tok_s / plain.host_tok_s,
                steps_plain: plain.steps,
                steps_spec: spec.steps,
                acceptance: if spec.drafted == 0 {
                    0.0
                } else {
                    spec.accepted as f64 / spec.drafted as f64
                },
                drafted: spec.drafted,
                accepted: spec.accepted,
                modeled_plain_tok_s,
                modeled_spec_tok_s: spec.generated as f64 / modeled_s,
                modeled_speedup: (spec.generated as f64 / modeled_s) / modeled_plain_tok_s,
                draft_share_modeled: spec.modeled_draft_s / modeled_s,
            });
        }
    }
    SpecDecodeStats { k, new_tokens, rows }
}

/// Trace-driven scenario suite: three traffic shapes (steady Poisson,
/// bursty overload against a bounded queue, cancel storms + preemption
/// churn under a tight pool) replayed through the virtual-clock harness,
/// each derived from the run's single seed. Every trace is regenerated and
/// replayed twice and both must be bit-identical — the SLO numbers in the
/// JSON are reproducible facts, not samples.
fn bench_scenarios(model: &Model, smoke: bool, seed: u64) -> Vec<ScenarioReport> {
    use opal_scenario::replay;
    let vocab = model.config().vocab;
    let n_layers = model.config().n_layers;
    let horizon: u64 = if smoke { 32 } else { 96 };
    let base = ServeConfig { max_batch: 8, max_tokens: 48, ..ServeConfig::default() };

    let poisson_cfg = TraceConfig::poisson("poisson-steady", seed, 1.2, horizon, vocab);
    let poisson_trace = poisson_cfg.generate();
    assert_eq!(
        poisson_trace.fingerprint(),
        poisson_cfg.generate().fingerprint(),
        "trace generation must be bit-deterministic"
    );
    let poisson = replay(model, base, &poisson_trace);
    assert_eq!(
        poisson.deterministic_digest(),
        replay(model, base, &poisson_trace).deterministic_digest(),
        "replay must be step-deterministic"
    );

    let bursty_trace =
        TraceConfig::bursty("bursty-overload", seed + 1, 4.0, horizon, vocab).generate();
    let bursty = replay(model, ServeConfig { max_queue: 24, ..base }, &bursty_trace);

    let churn_config = ServeConfig { max_blocks: n_layers * 24, ..base };
    let mut storm_cfg = TraceConfig::poisson("cancel-churn", seed + 2, 1.5, horizon, vocab);
    storm_cfg.cancel_storms = vec![
        CancelStorm { at_step: horizon / 3, percent: 50 },
        CancelStorm { at_step: 2 * horizon / 3, percent: 50 },
    ];
    storm_cfg.churn = Some(ChurnPhase::sized_for(
        horizon / 4,
        horizon / 2,
        1.0,
        churn_config.max_blocks,
        churn_config.block_size,
        n_layers,
    ));
    let storm = replay(model, churn_config, &storm_cfg.generate());
    assert!(storm.cancelled > 0, "cancel storms must cancel in-flight requests");

    vec![poisson, bursty, storm]
}

/// Robustness numbers from a chaos-soak replay against its fault-free
/// nominal twin.
struct RobustnessStats {
    faults: usize,
    failed: usize,
    deadline_exceeded: usize,
    shed: usize,
    retried: usize,
    leaked_blocks: usize,
    survivors: usize,
    chaos_goodput: f64,
    nominal_goodput: f64,
    /// Virtual steps after the fault burst ended until rolling goodput
    /// first reached 90% of the nominal run's; `None` if it never did.
    recovery_steps_to_90pct: Option<u64>,
}

/// Chaos-soak robustness bench: a seeded fault burst (worker panics,
/// simulated allocation shortfalls, latency spikes) over deadline-tagged
/// traffic, replayed with client retries and degraded-mode scheduling
/// enabled. Asserts survivors are bit-identical to the fault-free twin and
/// measures how fast goodput climbs back after the burst.
fn bench_robustness(model: &Model, smoke: bool, seed: u64) -> RobustnessStats {
    let vocab = model.config().vocab;
    let n_layers = model.config().n_layers;
    let horizon: u64 = if smoke { 48 } else { 96 };
    let config = ServeConfig {
        max_batch: 8,
        max_tokens: 48,
        max_blocks: n_layers * 48,
        degraded: Some(DegradedConfig::default()),
        ..ServeConfig::default()
    };
    let trace =
        TraceConfig::chaos("chaos-soak", seed + 4, 1.2, horizon, vocab, n_layers * 16).generate();
    let opts = ReplayOptions { retry: Some(RetryPolicy::default()), audit_every: 8 };
    let chaos = replay_with(model, config, &trace, opts);
    let nominal = replay_with(model, config, &trace.fault_free(), opts);
    assert_eq!(chaos.leaked_blocks, 0, "chaos soak leaked KV blocks");
    assert_eq!(chaos.rejected_other, 0, "chaos soak saw an untyped rejection");

    let nominal_fp: std::collections::HashMap<usize, u64> =
        nominal.outcomes.iter().map(|o| (o.event, o.tokens_fp)).collect();
    let mut survivors = 0usize;
    for o in chaos.outcomes.iter().filter(|o| o.finish == FinishReason::Limit) {
        assert_eq!(
            Some(&o.tokens_fp),
            nominal_fp.get(&o.event),
            "survivor {} diverged from its nominal token stream",
            o.event
        );
        survivors += 1;
    }

    // Rolling goodput after the burst window (the back half of
    // `FaultConfig::burst` ends at horizon * 3/4): first virtual step at
    // which a trailing window of completions reaches 90% of the nominal
    // run's overall goodput.
    let burst_end = horizon * 3 / 4;
    let window: u64 = 8;
    let target = 0.9 * nominal.goodput_tokens_per_step;
    let recovery = (burst_end..chaos.virtual_steps).find(|&start| {
        let toks: u64 = chaos
            .outcomes
            .iter()
            .filter(|o| o.finish == FinishReason::Limit)
            .filter(|o| (start..start + window).contains(&o.finished_vstep))
            .map(|o| o.tokens as u64)
            .sum();
        toks as f64 / window as f64 >= target
    });

    RobustnessStats {
        faults: trace.faults(),
        failed: chaos.failed,
        deadline_exceeded: chaos.deadline_exceeded,
        shed: chaos.shed,
        retried: chaos.retried,
        leaked_blocks: chaos.leaked_blocks,
        survivors,
        chaos_goodput: chaos.goodput_tokens_per_step,
        nominal_goodput: nominal.goodput_tokens_per_step,
        recovery_steps_to_90pct: recovery.map(|s| s - burst_end),
    }
}

/// Floor of [`gemm_over_gemv`] at 8 and at 4 activation rows on the wide
/// path, just under the band measured there: r8 1.48-2.02x, r4 1.42-1.85x
/// over five smoke and two full runs (a GEMM that converts each activation
/// chunk again for every weight row reads ~1.0x and ~0.75x).
const GEMM_OVER_GEMV_FLOOR: f64 = 1.3;

/// Which inner loop `Matrix::matvec_into` / `matmul_t_into` run in this
/// process. `opal_tensor` picks it from the CPU and exposes neither a
/// switch nor a query, so the one-line rule of `simd::available()` in
/// `crates/tensor/src/simd.rs` is restated here: change the two together.
fn kernel_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") && std::arch::is_x86_feature_detected!("fma") {
        return "avx+fma";
    }
    "portable"
}

/// Whether the quantized-KV code kernels run their wide loops here: the
/// rule of `simd::codes_available()`, restated like [`kernel_path`]'s.
fn code_kernels_wide() -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return true;
    }
    false
}

/// Rate of `ops::dot_codes_tile` (one query row against 16 cached code
/// rows at d = 128, a page of the served proxy's one head) over sixteen
/// per-row `ops::dot_codes` calls on the same rows, alternating.
fn dot_codes_tile_over_per_row(budget_s: f64) -> f64 {
    let (d, n) = (128usize, 16usize);
    let q: Vec<f32> = (0..d).map(|j| ((j * 29 % 31) as f32 - 15.0) * 0.07).collect();
    let codes: Vec<i8> = (0..n * d).map(|j| ((j * 37 + 11) % 255) as i8).collect();
    let (mut tile, mut per_row) = (vec![0.0f32; n], vec![0.0f32; n]);
    let (tile_rate, per_row_rate) = alternate(
        n * d,
        budget_s,
        || ops::dot_codes_tile(black_box(&codes), d, [(black_box(&q[..]), &mut tile[..])]),
        || {
            for (o, row) in per_row.iter_mut().zip(black_box(&codes).chunks_exact(d)) {
                *o = ops::dot_codes(black_box(&q), row);
            }
        },
    );
    assert!(tile.iter().zip(&per_row).all(|(a, b)| a.to_bits() == b.to_bits()));
    tile_rate / per_row_rate
}

/// One GEMV/GEMM row of the kernel floor.
struct MatrixKernelRow {
    kernel: &'static str,
    shape: String,
    gmacs: f64,
    seed_style_gmacs: f64,
}

/// Times `kernel` and `baseline` alternating call by call for `budget_s`
/// seconds (the host's speed drifts over seconds; what is asserted is the
/// ratio between the two) and returns each side's rate in units of
/// `work` x 1e9 per second.
fn alternate(
    work: usize,
    budget_s: f64,
    mut kernel: impl FnMut(),
    mut baseline: impl FnMut(),
) -> (f64, f64) {
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    };
    // The first pair warms caches and is not counted.
    kernel();
    baseline();
    let (mut kernel_s, mut baseline_s, mut calls) = (0.0f64, 0.0f64, 0u64);
    while kernel_s + baseline_s < budget_s {
        kernel_s += time(&mut kernel);
        baseline_s += time(&mut baseline);
        calls += 1;
    }
    let giga = (calls * work as u64) as f64 / 1e9;
    (giga / kernel_s, giga / baseline_s)
}

/// Rate of `matmul_t_into` with `rows` activation rows against the proxy's
/// `d_ff x d_model` projection over `rows` calls of `matvec_into` on the
/// same weights, one per activation row, alternating call by call. The wide
/// GEMM widens each block of activation rows once and shares every weight
/// chunk it converts among them; the GEMV converts each weight chunk for one
/// row. 1.0x means the GEMM's rows buy nothing over the GEMV.
fn gemm_over_gemv(rows: usize, budget_s: f64) -> f64 {
    let (d_ff, d_model) = (344usize, 128usize);
    let w = Matrix::from_fn(d_ff, d_model, |r, c| (((r * 37 + c * 11) % 19) as f32 - 9.0) * 0.37);
    let x = Matrix::from_fn(rows, d_model, |r, c| (((r * 53 + c * 7) % 23) as f32 - 11.0) * 0.19);
    let (mut gemm, mut gemv) = (Matrix::zeros(rows, d_ff), Matrix::zeros(rows, d_ff));
    let (gemm_rate, gemv_rate) = alternate(
        rows * d_ff * d_model,
        budget_s,
        || black_box(&x).matmul_t_into(black_box(&w), &mut gemm),
        || {
            for r in 0..rows {
                black_box(&w).matvec_into(black_box(x.row(r)), gemv.row_mut(r));
            }
        },
    );
    assert!(gemm.as_slice().iter().zip(gemv.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits()));
    gemm_rate / gemv_rate
}

/// Time of `Log2Softmax::probs_into` over `ops::softmax_into` on one
/// 1024-wide score row (the width of `longctx_kvq_closed`'s last step).
/// The shift softmax is an exponent subtract and a mantissa compare on top
/// of the one `exp` per score both sides pay: 1.1-1.3x here, 2.0-2.4x
/// when the code loop evaluated `exp` a second time.
fn log2_softmax_over_exact(budget_s: f64) -> f64 {
    let n = 1024usize;
    // Pseudo-random, not periodic: the code rule's mantissa comparison is a
    // branch, and a pattern the predictor can learn flatters it.
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    let scores: Vec<f32> = (0..n)
        .map(|_| {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((lcg >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 18.0
        })
        .collect();
    let (mut log2, mut exact) = (vec![0.0f32; n], vec![0.0f32; n]);
    let sm = Log2Softmax::new(5);
    let (log2_rate, exact_rate) = alternate(
        n,
        budget_s,
        || sm.probs_into(black_box(&scores), &mut log2),
        || ops::softmax_into(black_box(&scores), &mut exact),
    );
    black_box((&log2, &exact));
    exact_rate / log2_rate
}

/// Times `matvec_into` on the proxy's `d_ff x d_model` projection and
/// `matmul_t_into` with eight activation rows against it, each alternating
/// call by call with a seed-style product of the same shape (one
/// sequential `f64` sum per output element) for `budget_s` seconds.
fn matrix_kernel_rates(budget_s: f64) -> Vec<MatrixKernelRow> {
    fn seed_style_dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum::<f64>() as f32
    }

    let (d_ff, d_model, rows) = (344usize, 128usize, 8usize);
    let w = Matrix::from_fn(d_ff, d_model, |r, c| (((r * 37 + c * 11) % 19) as f32 - 9.0) * 0.37);
    let x = Matrix::from_fn(rows, d_model, |r, c| (((r * 53 + c * 7) % 23) as f32 - 11.0) * 0.19);
    let (mut out, mut seed_out) = (vec![0.0f32; d_ff], vec![0.0f32; d_ff]);
    let (mut gemm, mut seed_gemm) = (Matrix::zeros(rows, d_ff), Matrix::zeros(rows, d_ff));

    let (gemv_rate, gemv_seed) = alternate(
        d_ff * d_model,
        budget_s,
        || black_box(&w).matvec_into(black_box(x.row(0)), &mut out),
        || {
            for (o, row) in seed_out.iter_mut().zip(black_box(&w).iter_rows()) {
                *o = seed_style_dot(row, black_box(x.row(0)));
            }
        },
    );
    let (gemm_rate, gemm_seed) = alternate(
        rows * d_ff * d_model,
        budget_s,
        || black_box(&x).matmul_t_into(black_box(&w), &mut gemm),
        || {
            for (j, b_row) in black_box(&w).iter_rows().enumerate() {
                for (i, a_row) in black_box(&x).iter_rows().enumerate() {
                    seed_gemm[(i, j)] = seed_style_dot(a_row, b_row);
                }
            }
        },
    );
    black_box((&out, &seed_out, &gemm, &seed_gemm));
    vec![
        MatrixKernelRow {
            kernel: "matvec_into",
            shape: format!("{d_ff}x{d_model}"),
            gmacs: gemv_rate,
            seed_style_gmacs: gemv_seed,
        },
        MatrixKernelRow {
            kernel: "matmul_t_into",
            shape: format!("r{rows} x {d_ff}x{d_model}"),
            gmacs: gemm_rate,
            seed_style_gmacs: gemm_seed,
        },
    ]
}

fn main() {
    // `--seed N` is the single RNG seed for the whole run: model weights,
    // benchmark prompts and the scenario-suite traces all derive from it,
    // so two invocations with the same seed measure bit-identical work.
    let mut smoke = false;
    let mut seed: u64 = 21;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                seed = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("bench_decode: --seed needs an integer");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("bench_decode: unknown argument {other} (usage: [--smoke] [--seed N])");
                std::process::exit(2);
            }
        }
    }
    let new_tokens = if smoke { 6 } else { 32 };

    // L0 kernel floor: `ops::dot` against the seed-style dot, same process,
    // alternating slices. Every number below is measured on top of this
    // kernel, so a slow one fails here, by name, before anything else runs.
    let kernels: Vec<KernelRates> = [128usize, 512, 4096]
        .iter()
        .map(|&d| kernel_rates(d, if smoke { 0.1 } else { 0.5 }))
        .collect();
    opal_bench::header("Kernel floor (GMAC/s, hot in L1)");
    for k in &kernels {
        let ratio = k.dot_macs_per_s / k.seed_macs_per_s;
        println!(
            "ops::dot d={:<5} {:.2} GMAC/s vs seed-style {:.2} GMAC/s ({ratio:.2}x)",
            k.d,
            k.dot_macs_per_s / 1e9,
            k.seed_macs_per_s / 1e9
        );
        assert!(
            ratio >= 2.0,
            "ops::dot must run at least 2x the seed-style sequential dot at d={} (got \
             {ratio:.2}x): the 4-lane kernel is not vectorising",
            k.d
        );
    }
    let matrix_kernels = matrix_kernel_rates(if smoke { 0.1 } else { 0.5 });
    println!("kernel path of matvec_into / matmul_t_into: {}", kernel_path());
    for k in &matrix_kernels {
        let ratio = k.gmacs / k.seed_style_gmacs;
        println!(
            "{} {:<14} {:.2} GMAC/s vs seed-style {:.2} GMAC/s ({ratio:.2}x)",
            k.kernel, k.shape, k.gmacs, k.seed_style_gmacs
        );
        assert!(
            ratio >= 2.0,
            "{} {} must run at least 2x a seed-style product of its shape (got {ratio:.2}x, \
             path {})",
            k.kernel,
            k.shape,
            kernel_path()
        );
    }
    // GEMM-over-GEMV tripwire: the 8-row block (fused decode batches,
    // prefill chunks) and a 4-row leftover block (`longctx_kvq_closed`'s
    // decode step) must beat the GEMV row by row on the same weights.
    let gemm_over_gemv_rows: Vec<(usize, f64)> = [8usize, 4]
        .iter()
        .map(|&r| (r, gemm_over_gemv(r, if smoke { 0.1 } else { 0.5 })))
        .collect();
    for &(rows, ratio) in &gemm_over_gemv_rows {
        let floor = GEMM_OVER_GEMV_FLOOR;
        println!("matmul_t_into r{rows} x 344x128: {ratio:.2}x {rows} matvec_into calls");
        if kernel_path() == "portable" {
            println!("  (portable kernels: one ops::dot per element on both sides; not asserted)");
            continue;
        }
        assert!(
            ratio >= floor,
            "matmul_t_into with {rows} activation rows must run at least {floor}x {rows} \
             matvec_into calls on the same 344x128 weights (got {ratio:.2}x): the GEMM is no \
             longer widening its activation block once and sharing each weight chunk"
        );
    }
    let log2_over_exact = log2_softmax_over_exact(if smoke { 0.1 } else { 0.5 });
    println!("Log2Softmax::probs_into n=1024: {log2_over_exact:.2}x the time of ops::softmax_into");
    assert!(
        log2_over_exact <= 1.8,
        "Log2Softmax::probs_into must stay within 1.8x ops::softmax_into at n=1024 (got \
         {log2_over_exact:.2}x): one `exp` per score, not two"
    );
    let code_tile_over_rows = dot_codes_tile_over_per_row(if smoke { 0.1 } else { 0.5 });
    let wide = code_kernels_wide();
    println!(
        "ops::dot_codes_tile 16x128: {code_tile_over_rows:.2}x per-row ops::dot_codes (wide: {wide})"
    );
    assert!(
        !wide || code_tile_over_rows >= 1.4,
        "ops::dot_codes_tile must run at least 1.4x per-row ops::dot_codes on 16 code rows at \
         d=128 (got {code_tile_over_rows:.2}x): the cached rows' chains are not interleaved"
    );

    // The tiny unit-test config plus a mid-size Llama proxy (the accuracy
    // benches' stand-in for Llama2-7B) where per-token compute dominates
    // scheduler overhead.
    let tiny = ModelConfig::tiny();
    let proxy = ModelConfig::llama2_7b().proxy(128, 4, 192);
    let mut rows = Vec::new();
    bench_case("tiny", &tiny, "bf16", QuantScheme::bf16(), new_tokens, seed, &mut rows);
    bench_case(
        "tiny",
        &tiny,
        "mxopal_w4a47",
        QuantScheme::mxopal_w4a47(),
        new_tokens,
        seed,
        &mut rows,
    );
    bench_case(
        "llama7b-proxy128",
        &proxy,
        "bf16",
        QuantScheme::bf16(),
        new_tokens,
        seed,
        &mut rows,
    );
    if !smoke {
        bench_case(
            "llama7b-proxy128",
            &proxy,
            "mxopal_w4a47",
            QuantScheme::mxopal_w4a47(),
            new_tokens,
            seed,
            &mut rows,
        );
    }

    opal_bench::header("Decode throughput (tokens/sec)");
    println!(
        "{:<18} {:<14} {:<16} {:>5} {:>8} {:>14} {:>14}",
        "model", "scheme", "engine", "batch", "threads", "prefill tok/s", "decode tok/s"
    );
    for r in &rows {
        println!(
            "{:<18} {:<14} {:<16} {:>5} {:>8} {:>14.0} {:>14.0}",
            r.model, r.scheme, r.engine, r.batch, r.threads, r.prefill_tok_s, r.decode_tok_s
        );
    }

    let speedup = |model: &str, scheme: &str, batch: usize, engine: &str| -> f64 {
        let find = |eng: &str| {
            rows.iter()
                .find(|r| {
                    r.model == model && r.scheme == scheme && r.batch == batch && r.engine == eng
                })
                .map(|r| r.decode_tok_s)
                .unwrap_or(f64::NAN)
        };
        find(engine) / find("seed-sequential")
    };
    // Headline floor: the deployment configuration never decodes slower
    // than the seed engine it replaced, on any row.
    for r in rows.iter().filter(|r| r.engine == "seed-sequential") {
        let s = speedup(&r.model, r.scheme, r.batch, "optimized-1t");
        assert!(
            s >= 1.0,
            "optimized-1t decode fell below the seed engine on {}/{} batch {}: {s:.2}x",
            r.model,
            r.scheme,
            r.batch
        );
    }

    println!();
    let mut headline = f64::NAN;
    let mut speedup_lines = Vec::new();
    for (model, scheme) in [
        ("tiny", "bf16"),
        ("tiny", "mxopal_w4a47"),
        ("llama7b-proxy128", "bf16"),
        ("llama7b-proxy128", "mxopal_w4a47"),
    ] {
        let s4 = speedup(model, scheme, 16, "optimized-4t");
        let s1 = speedup(model, scheme, 16, "optimized-1t");
        if s4.is_nan() {
            continue;
        }
        if model == "llama7b-proxy128" && scheme == "bf16" {
            headline = s4;
        }
        println!(
            "batch-16 decode speedup vs seed engine [{model}/{scheme}]: {s4:.2}x (4 threads), \
             {s1:.2}x (1 thread)"
        );
        speedup_lines.push(format!(
            "    {{ \"model\": \"{model}\", \"scheme\": \"{scheme}\", \
             \"optimized_4t\": {s4:.3}, \"optimized_1t\": {s1:.3} }}"
        ));
    }

    let encode_rows = bench_mxopal_encode(smoke);
    println!();
    for r in &encode_rows {
        println!(
            "mxopal-4 encode d={}: {:.0} rows/s allocating, {:.0} rows/s scratch ({:.2}x)",
            r.d, r.alloc_rows_per_s, r.scratch_rows_per_s, r.speedup
        );
    }

    // Fused prefill throughput and chunked-vs-blocking admission on a long
    // prompt (the workload the chunked scheduler exists for). Smoke mode
    // keeps the CI run short but still exercises a real chunked-prefill
    // admission.
    let long_prompt = if smoke { 48 } else { 192 };
    let n_long = if smoke { 4 } else { 12 };
    let pf_runs = if smoke { 3 } else { 8 };
    let proxy_model = Model::new(proxy.clone(), QuantScheme::bf16(), seed).expect("valid scheme");
    let pt = bench_prefill_throughput(&proxy_model, long_prompt, pf_runs);
    let chunked = bench_admission(&proxy_model, long_prompt, n_long, 8);
    let blocking = bench_admission(&proxy_model, long_prompt, n_long, usize::MAX);
    println!();
    println!(
        "prefill {long_prompt}-token prompt [llama7b-proxy128/bf16]: fused {:.0} tok/s, \
         tokenwise {:.0} tok/s ({:.2}x), seed reference {:.0} tok/s ({:.2}x)",
        pt.fused_tok_s,
        pt.tokenwise_tok_s,
        pt.fused_tok_s / pt.tokenwise_tok_s,
        pt.reference_tok_s,
        pt.fused_tok_s / pt.reference_tok_s
    );
    assert!(
        pt.fused_tok_s >= pt.reference_tok_s,
        "fused prefill fell below the seed reference: {:.0} vs {:.0} tok/s",
        pt.fused_tok_s,
        pt.reference_tok_s
    );
    println!(
        "admission of {n_long} long prompts into a busy batch: chunked(8) p50/p99 \
         {:.2}/{:.2} ms, max step {:.2} ms | blocking p50/p99 {:.2}/{:.2} ms, max step {:.2} ms \
         ({:.2}x stall reduction)",
        chunked.p50_ms,
        chunked.p99_ms,
        chunked.max_step_ms,
        blocking.p50_ms,
        blocking.p99_ms,
        blocking.max_step_ms,
        blocking.max_step_ms / chunked.max_step_ms
    );

    // Paged KV cache: per-step decode overhead of walking block tables
    // (block 16 vs a flat-equivalent single page), the shared-prefix
    // admission speedup, and a preemption shakedown under a tiny pool.
    let kv_runs = measure_runs(16).min(if smoke { 3 } else { 8 });
    let (_, paged_dec) =
        run_opt_engine_paged(&proxy_model, 16, 1, StepMode::Auto, new_tokens, kv_runs, 16, seed);
    let (_, flat_dec) =
        run_opt_engine_paged(&proxy_model, 16, 1, StepMode::Auto, new_tokens, kv_runs, 4096, seed);
    let shared_prefix_len = if smoke { 48 } else { 128 };
    let shared_n = if smoke { 4 } else { 8 };
    let sp = bench_shared_prefix(&proxy_model, shared_n, shared_prefix_len);
    let tiny_model = Model::new(tiny.clone(), QuantScheme::bf16(), seed).expect("valid scheme");
    let pre = bench_preemption(&tiny_model);
    println!();
    println!(
        "kv paging batch-16 decode [llama7b-proxy128/bf16]: paged(16) {paged_dec:.0} tok/s vs \
         flat-equivalent {flat_dec:.0} tok/s ({:.3}x)",
        paged_dec / flat_dec
    );
    println!(
        "shared-prefix admission ({shared_n} x {shared_prefix_len}-token prefix + 4-token tail): \
         first {:.2} ms, {} cached followers {:.2} ms vs unshared {:.2} ms ({:.1}x); \
         full-batch residency {} blocks shared vs {} unshared",
        sp.first_admit_ms,
        shared_n - 1,
        sp.shared_followers_ms,
        sp.unshared_followers_ms,
        sp.admission_speedup,
        sp.shared_blocks,
        sp.unshared_blocks
    );
    println!(
        "preemption under a {}-block pool: {} preemptions, {}/4 requests completed, \
         outputs match uncontended run: {}",
        pre.max_blocks, pre.preemptions, pre.completed, pre.matches_uncontended
    );
    assert!(pre.matches_uncontended, "preemption must not change output");
    assert_eq!(pre.completed, 4, "preempted requests must complete");

    // Quantized KV pages: storage and residency wins at one byte budget,
    // decode-rate overhead of the quantized-domain attention walk, and the
    // greedy-agreement accuracy contract vs the exact cache.
    let kq = bench_kv_quant(&proxy_model, new_tokens, smoke, seed);
    println!();
    println!(
        "kv quant [llama7b-proxy128/mxopal vs exact]: {:.0} vs {:.0} pool bytes/token \
         ({:.2}x smaller); byte budget {} exact-blocks -> {} quant-blocks, peak resident \
         {} vs {} sequences ({:.2}x)",
        kq.bytes_per_token_quant,
        kq.bytes_per_token_exact,
        kq.bytes_reduction,
        kq.budget_blocks_exact,
        kq.budget_blocks_quant,
        kq.resident_quant,
        kq.resident_exact,
        kq.residency_gain
    );
    // What a quantized cache costs is its row encodes and its page walk,
    // in us per token on top of the exact step, and that is what is
    // bounded: against the same rounds' batch-1 exact token, which fusing
    // the batch does not move. As a tok/s ratio the same cost reads lower
    // every time the exact batch step gets faster.
    let batch1_us = 1e6 / kq.exact_b1_tok_s;
    let walk_us = walk_added_us(kq.quant_tok_s, kq.exact_tok_s);
    let walk4_us = walk_added_us(kq.quant4_tok_s, kq.exact_tok_s);
    println!(
        "kv quant batch-16 decode: {:.0} tok/s quantized vs {:.0} tok/s exact ({:.3}x, page \
         walk {walk_us:+.1} us/token = {:.3} of the {batch1_us:.0} us batch-1 token); max \
         |logit err| {:.2e}, greedy agreement {:.1}%",
        kq.quant_tok_s,
        kq.exact_tok_s,
        kq.tok_s_ratio,
        walk_us / batch1_us,
        kq.max_logit_err,
        kq.greedy_agreement * 100.0
    );
    assert!(
        kq.bytes_reduction >= 3.0,
        "quantized KV pages must shrink pool bytes/token at least 3x (got {:.2}x)",
        kq.bytes_reduction
    );
    assert!(
        kq.residency_gain >= 2.0,
        "quantized KV must fit at least 2x more resident sequences (got {:.2}x)",
        kq.residency_gain
    );
    // The bound is the old 8-bit tok/s floor (0.85x of an exact step that
    // cost one batch-1 token then) restated in the walk's own terms: at
    // most 0.18 of a batch-1 token added per token, for 8-bit and 4-bit
    // pages alike. Over ten full and ten smoke runs the 8-bit walk read
    // 0.011-0.041 / 0.024-0.034 of it (+2 to +8 us); the 4-bit walk read
    // 0.075-0.110 in six full runs (+12 to +25 us) and 0.00-0.14 in
    // seventeen smoke runs. As ratios of the fused exact step these are
    // 0.93-0.98x and 0.80-0.87x: a tok/s floor would trip on the exact step
    // getting faster. A host stall (batch-1 token 219 us against 142-169) once
    // read 0.13 on 8-bit pages.
    assert!(
        walk_us <= 0.18 * batch1_us,
        "the 8-bit page walk must add at most 0.18 of a batch-1 token ({batch1_us:.0} us) per \
         token (got {walk_us:+.1} us, {:.3}x exact tok/s)",
        kq.tok_s_ratio
    );
    assert!(
        (kq.greedy_agreement - 1.0).abs() < f64::EPSILON,
        "quantized greedy decode must agree with exact (got {:.4})",
        kq.greedy_agreement
    );
    println!(
        "kv quant 4-bit [llama7b-proxy128/mxopal4 vs exact]: {:.0} vs {:.0} pool bytes/token \
         ({:.2}x smaller); same byte budget -> {} quant4-blocks, peak resident {} vs {} \
         sequences ({:.2}x); {:.0} tok/s ({:.3}x, page walk {walk4_us:+.1} us/token = {:.3} of \
         the batch-1 token), max |logit err| {:.2e}, greedy agreement {:.1}%",
        kq.bytes_per_token_quant4,
        kq.bytes_per_token_exact,
        kq.bytes_reduction4,
        kq.budget_blocks_quant4,
        kq.resident_quant4,
        kq.resident_exact,
        kq.residency_gain4,
        kq.quant4_tok_s,
        kq.tok_s_ratio4,
        walk4_us / batch1_us,
        kq.max_logit_err4,
        kq.greedy_agreement4 * 100.0
    );
    assert!(
        kq.bytes_reduction4 > kq.bytes_reduction,
        "4-bit KV pages must shrink pool bytes/token beyond the 8-bit preset \
         ({:.2}x vs {:.2}x)",
        kq.bytes_reduction4,
        kq.bytes_reduction
    );
    assert!(
        kq.residency_gain4 >= 4.0,
        "4-bit KV must fit at least 4x more resident sequences (got {:.2}x)",
        kq.residency_gain4
    );
    assert!(
        walk4_us <= 0.18 * batch1_us,
        "the 4-bit page walk must add at most 0.18 of a batch-1 token ({batch1_us:.0} us) per \
         token (got {walk4_us:+.1} us, {:.3}x exact tok/s)",
        kq.tok_s_ratio4
    );
    // 4 bits trades accuracy for capacity: greedy agreement degrades from
    // the 8-bit preset's 100%, but must stay in the usable band.
    assert!(
        kq.greedy_agreement4 >= 0.85,
        "4-bit greedy agreement out of bounds (got {:.4})",
        kq.greedy_agreement4
    );

    // Fusion floor, from the same alternating rounds: a step is one pass
    // over the weights for all its rows, so sixteen sequences on one thread
    // decode faster per token than one (1.0x while every sequence streamed
    // the stack itself).
    let batch16_over_batch1 = kq.exact_tok_s / kq.exact_b1_tok_s;
    println!(
        "batch 16 over batch 1, one thread [llama7b-proxy128/bf16]: {batch16_over_batch1:.2}x \
         decode tok/s ({:.0} vs {:.0})",
        kq.exact_tok_s, kq.exact_b1_tok_s
    );
    assert!(
        batch16_over_batch1 >= 1.15,
        "sixteen fused sequences must decode at least 1.15x the tok/s of one on one thread \
         (got {batch16_over_batch1:.2}x): the batch is not sharing its pass over the weights"
    );

    // Speculative decoding: draft/verify against the plain engine on the
    // same prompts, host wall-clock plus the OPAL-platform roofline view.
    // Output identity and the rollback leak check are asserted inside.
    let sd = bench_spec_decode(&proxy_model, smoke, seed);
    println!();
    for r in &sd.rows {
        println!(
            "spec decode [{}/k={}] batch {:>2}: host {:.0} -> {:.0} tok/s ({:.2}x), steps \
             {} -> {}, acceptance {:.1}% ({}/{}), OPAL-modeled {:.1} -> {:.1} tok/s \
             ({:.2}x), draft share {:.1}%",
            r.draft,
            sd.k,
            r.batch,
            r.host_plain_tok_s,
            r.host_spec_tok_s,
            r.host_ratio,
            r.steps_plain,
            r.steps_spec,
            r.acceptance * 100.0,
            r.accepted,
            r.drafted,
            r.modeled_plain_tok_s,
            r.modeled_spec_tok_s,
            r.modeled_speedup,
            r.draft_share_modeled * 100.0
        );
    }
    for r in sd.rows.iter().filter(|r| r.draft == "ngram" && r.batch <= 4) {
        assert!(
            r.modeled_speedup >= 1.5,
            "speculative decode must reach 1.5x modeled tok/s at batch {} (got {:.2}x)",
            r.batch,
            r.modeled_speedup
        );
        // Plain and speculative drains alternate (best of four each):
        // 1.03-1.14x at batch 1 and 1.01-1.24x at batch 4 over ten full and
        // ten smoke runs. Both sides fuse now, so what speculation buys
        // the host is fewer steps, not a shared weight stream.
        assert!(
            r.host_ratio >= 0.8,
            "n-gram speculation host overhead out of bounds at batch {} ({:.2}x)",
            r.batch,
            r.host_ratio
        );
    }

    // SLO-grade scenario suite on the tiny model: per-shape TTFT /
    // inter-token percentiles, goodput under and after overload, Jain
    // fairness across tenants — the serving-quality view the throughput
    // rows above can't show.
    let scenarios = bench_scenarios(&tiny_model, smoke, seed);
    println!();
    for s in &scenarios {
        println!(
            "scenario '{}': ttft p50/p99 {:.1}/{:.1} steps, itl p50/p99 {:.2}/{:.2} steps, \
             goodput {:.2} tok/step (overload {:.2}, drain {:.2}), fairness {:.3}, \
             {} completed / {} cancelled / {} rejected of {}",
            s.trace,
            s.ttft_steps.p50,
            s.ttft_steps.p99,
            s.inter_token_steps.p50,
            s.inter_token_steps.p99,
            s.goodput_tokens_per_step,
            s.overload_goodput,
            s.drain_goodput,
            s.fairness_jain,
            s.completed,
            s.cancelled,
            s.rejected_queue_full + s.rejected_insufficient_blocks,
            s.submitted
        );
    }

    // Chaos-soak robustness: survivors bit-identical under a fault burst,
    // plus the recovery time the throughput rows can't show.
    let rb = bench_robustness(&tiny_model, smoke, seed);
    println!(
        "\nrobustness 'chaos-soak': {} faults -> {} failed / {} expired / {} shed, {} retried; \
         {} survivors bit-identical; goodput {:.2} vs {:.2} nominal; recovery to 90% in {} steps",
        rb.faults,
        rb.failed,
        rb.deadline_exceeded,
        rb.shed,
        rb.retried,
        rb.survivors,
        rb.chaos_goodput,
        rb.nominal_goodput,
        rb.recovery_steps_to_90pct.map_or("n/a".into(), |s| s.to_string())
    );

    let mut json = String::from("{\n  \"benchmark\": \"decode_throughput\",\n");
    let _ = writeln!(json, "  \"new_tokens_per_request\": {new_tokens},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(
        json,
        "  \"headline_batch16_4t_vs_seed\": {{ \"model\": \"llama7b-proxy128\", \
         \"scheme\": \"bf16\", \"speedup\": {headline:.3} }},"
    );
    let kernel_json: Vec<String> = kernels
        .iter()
        .map(|k| {
            format!(
                "    {{ \"d\": {}, \"dot_gmacs\": {:.3}, \"seed_style_gmacs\": {:.3}, \
                 \"dot_over_seed_style\": {:.3} }}",
                k.d,
                k.dot_macs_per_s / 1e9,
                k.seed_macs_per_s / 1e9,
                k.dot_macs_per_s / k.seed_macs_per_s
            )
        })
        .collect();
    let _ = writeln!(json, "  \"kernels\": [\n{}\n  ],", kernel_json.join(",\n"));
    let _ = writeln!(json, "  \"kernel_path\": \"{}\",", kernel_path());
    let matrix_kernel_json: Vec<String> = matrix_kernels
        .iter()
        .map(|k| {
            format!(
                "    {{ \"kernel\": \"{}\", \"shape\": \"{}\", \"gmacs\": {:.3}, \
                 \"seed_style_gmacs\": {:.3}, \"over_seed_style\": {:.3} }}",
                k.kernel,
                k.shape,
                k.gmacs,
                k.seed_style_gmacs,
                k.gmacs / k.seed_style_gmacs
            )
        })
        .collect();
    let _ = writeln!(json, "  \"matrix_kernels\": [\n{}\n  ],", matrix_kernel_json.join(",\n"));
    let gemm_json: Vec<String> = gemm_over_gemv_rows
        .iter()
        .map(|(rows, ratio)| format!("\"r{rows}\": {ratio:.3}"))
        .collect();
    let _ = writeln!(json, "  \"gemm_over_gemv_344x128\": {{ {} }},", gemm_json.join(", "));
    let _ = writeln!(json, "  \"log2_softmax_over_exact_n1024\": {log2_over_exact:.3},");
    let _ = writeln!(json, "  \"dot_codes_tile_over_per_row_16x128\": {code_tile_over_rows:.3},");
    let _ = writeln!(json, "  \"batch16_speedups\": [\n{}\n  ],", speedup_lines.join(",\n"));
    let _ = writeln!(json, "  \"batch16_over_batch1_1t\": {batch16_over_batch1:.3},");
    let encode_json: Vec<String> = encode_rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"d\": {}, \"alloc_rows_per_s\": {:.0}, \"scratch_rows_per_s\": {:.0}, \
                 \"speedup\": {:.3} }}",
                r.d, r.alloc_rows_per_s, r.scratch_rows_per_s, r.speedup
            )
        })
        .collect();
    let _ = writeln!(json, "  \"mxopal_encode\": [\n{}\n  ],", encode_json.join(",\n"));
    let admission_json = |s: &AdmissionStats| {
        format!(
            "{{ \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"max_step_ms\": {:.3}, \
             \"mean_step_ms\": {:.3} }}",
            s.p50_ms, s.p99_ms, s.max_step_ms, s.mean_step_ms
        )
    };
    let _ = writeln!(
        json,
        "  \"prefill_admission\": {{\n    \"model\": \"llama7b-proxy128\", \"scheme\": \"bf16\", \
         \"long_prompt\": {long_prompt}, \"admissions\": {n_long},\n    \
         \"fused_prefill_tok_s\": {:.1}, \"tokenwise_prefill_tok_s\": {:.1}, \
         \"reference_prefill_tok_s\": {:.1},\n    \
         \"fused_over_tokenwise\": {:.3}, \"fused_over_reference\": {:.3},\n    \
         \"chunked8\": {},\n    \"blocking\": {},\n    \"decode_stall_reduction\": {:.3}\n  }},",
        pt.fused_tok_s,
        pt.tokenwise_tok_s,
        pt.reference_tok_s,
        pt.fused_tok_s / pt.tokenwise_tok_s,
        pt.fused_tok_s / pt.reference_tok_s,
        admission_json(&chunked),
        admission_json(&blocking),
        blocking.max_step_ms / chunked.max_step_ms
    );
    let _ = writeln!(
        json,
        "  \"kv_paging\": {{\n    \"model\": \"llama7b-proxy128\", \"scheme\": \"bf16\", \
         \"block_size\": 16,\n    \
         \"paged_decode_tok_s\": {paged_dec:.1}, \"flat_equiv_decode_tok_s\": {flat_dec:.1}, \
         \"paged_over_flat\": {:.4},\n    \
         \"shared_prefix\": {{ \"requests\": {shared_n}, \"prefix_len\": {shared_prefix_len}, \
         \"first_admit_ms\": {:.3}, \"shared_followers_ms\": {:.3}, \
         \"unshared_followers_ms\": {:.3}, \"admission_speedup\": {:.3}, \
         \"resident_blocks_shared\": {}, \"resident_blocks_unshared\": {} }},\n    \
         \"preemption\": {{ \"model\": \"tiny\", \"max_blocks\": {}, \"preemptions\": {}, \
         \"completed\": {}, \"matches_uncontended\": {} }}\n  }},",
        paged_dec / flat_dec,
        sp.first_admit_ms,
        sp.shared_followers_ms,
        sp.unshared_followers_ms,
        sp.admission_speedup,
        sp.shared_blocks,
        sp.unshared_blocks,
        pre.max_blocks,
        pre.preemptions,
        pre.completed,
        pre.matches_uncontended
    );
    let _ = writeln!(
        json,
        "  \"kv_quant\": {{\n    \"model\": \"llama7b-proxy128\", \"scheme\": \"mxopal\", \
         \"block_size\": 16,\n    \
         \"pool_bytes_per_token_exact\": {:.1}, \"pool_bytes_per_token_quant\": {:.1}, \
         \"bytes_reduction\": {:.3},\n    \
         \"budget_blocks_exact\": {}, \"budget_blocks_quant\": {}, \
         \"peak_resident_exact\": {}, \"peak_resident_quant\": {}, \
         \"residency_gain\": {:.3},\n    \
         \"decode_tok_s_exact\": {:.1}, \"decode_tok_s_exact_batch1\": {:.1}, \
         \"decode_tok_s_quant\": {:.1}, \"tok_s_ratio\": {:.3}, \
         \"walk_added_us\": {walk_us:.2},\n    \
         \"max_logit_err\": {:.3e}, \"greedy_agreement\": {:.4},\n    \
         \"mxopal4\": {{ \"pool_bytes_per_token\": {:.1}, \"bytes_reduction\": {:.3}, \
         \"budget_blocks\": {}, \"peak_resident\": {}, \"residency_gain\": {:.3}, \
         \"decode_tok_s\": {:.1}, \"tok_s_ratio\": {:.3}, \"walk_added_us\": {walk4_us:.2}, \
         \"max_logit_err\": {:.3e}, \
         \"greedy_agreement\": {:.4} }}\n  }},",
        kq.bytes_per_token_exact,
        kq.bytes_per_token_quant,
        kq.bytes_reduction,
        kq.budget_blocks_exact,
        kq.budget_blocks_quant,
        kq.resident_exact,
        kq.resident_quant,
        kq.residency_gain,
        kq.exact_tok_s,
        kq.exact_b1_tok_s,
        kq.quant_tok_s,
        kq.tok_s_ratio,
        kq.max_logit_err,
        kq.greedy_agreement,
        kq.bytes_per_token_quant4,
        kq.bytes_reduction4,
        kq.budget_blocks_quant4,
        kq.resident_quant4,
        kq.residency_gain4,
        kq.quant4_tok_s,
        kq.tok_s_ratio4,
        kq.max_logit_err4,
        kq.greedy_agreement4
    );
    let spec_rows_json: Vec<String> = sd
        .rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"draft\": \"{}\", \"batch\": {}, \
                 \"host_plain_tok_s\": {:.1}, \"host_spec_tok_s\": {:.1}, \
                 \"host_ratio\": {:.3}, \"steps_plain\": {}, \"steps_spec\": {}, \
                 \"acceptance_rate\": {:.4}, \"drafted\": {}, \"accepted\": {}, \
                 \"modeled_plain_tok_s\": {:.2}, \"modeled_spec_tok_s\": {:.2}, \
                 \"modeled_speedup\": {:.3}, \"draft_share_modeled\": {:.4} }}",
                r.draft,
                r.batch,
                r.host_plain_tok_s,
                r.host_spec_tok_s,
                r.host_ratio,
                r.steps_plain,
                r.steps_spec,
                r.acceptance,
                r.drafted,
                r.accepted,
                r.modeled_plain_tok_s,
                r.modeled_spec_tok_s,
                r.modeled_speedup,
                r.draft_share_modeled
            )
        })
        .collect();
    let _ = writeln!(
        json,
        "  \"spec_decode\": {{\n    \"model\": \"llama7b-proxy128\", \"scheme\": \"bf16\", \
         \"k\": {}, \"new_tokens\": {}, \"platform\": \"opal-reference\",\n    \
         \"rows\": [\n{}\n    ]\n  }},",
        sd.k,
        sd.new_tokens,
        spec_rows_json.join(",\n")
    );
    let scenario_json: Vec<String> = scenarios.iter().map(ScenarioReport::to_json).collect();
    let _ = writeln!(
        json,
        "  \"scenario\": {{ \"model\": \"tiny\", \"scheme\": \"bf16\", \"seed\": {seed}, \
         \"traces\": [{}] }},",
        scenario_json.join(", ")
    );
    let _ = writeln!(
        json,
        "  \"robustness\": {{ \"model\": \"tiny\", \"scheme\": \"bf16\", \"trace\": \"chaos-soak\",\n    \
         \"faults\": {}, \"failed\": {}, \"deadline_exceeded\": {}, \"shed\": {}, \"retried\": {},\n    \
         \"leaked_blocks\": {}, \"survivors_bit_identical\": {},\n    \
         \"chaos_goodput_tok_step\": {:.4}, \"nominal_goodput_tok_step\": {:.4}, \
         \"recovery_steps_to_90pct_goodput\": {} }},",
        rb.faults,
        rb.failed,
        rb.deadline_exceeded,
        rb.shed,
        rb.retried,
        rb.leaked_blocks,
        rb.survivors,
        rb.chaos_goodput,
        rb.nominal_goodput,
        rb.recovery_steps_to_90pct.map_or("null".into(), |s| s.to_string())
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{ \"model\": \"{}\", \"scheme\": \"{}\", \"engine\": \"{}\", \"batch\": {}, \
             \"threads\": {}, \"prefill_tok_s\": {:.1}, \"decode_tok_s\": {:.1} }}{}",
            r.model,
            r.scheme,
            r.engine,
            r.batch,
            r.threads,
            r.prefill_tok_s,
            r.decode_tok_s,
            if i + 1 == rows.len() { "\n" } else { ",\n" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_decode.json", &json).expect("write BENCH_decode.json");
    println!("\nwrote BENCH_decode.json");
}
