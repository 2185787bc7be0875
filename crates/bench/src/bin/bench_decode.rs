//! Decode-throughput benchmark: the optimized serving engine against the
//! preserved seed implementation at batch 1 / 4 / 16, and the kernel
//! tripwires those rows run on. Writes `BENCH_decode.json` in the working
//! directory (`git log -- BENCH_decode.json` is its trajectory); `--smoke`
//! is the CI-sized run, `--seed N` the one seed of weights and prompts.
//!
//! - **Kernels**, each timed alternating against its baseline in this
//!   process, so the ratio means the same on any host: `ops::dot` at d =
//!   128 / 512 / 4096, `matvec_into` (344x128) and `matmul_t_into` (8 rows)
//!   at least 2x a seed-style product of the same shape; on the wide path
//!   `matmul_t_into` with 8 and 4 rows at least 1.3x as many `matvec_into`
//!   calls; on the wide path `matmul_t_into` over bf16 weights (1 and 8
//!   rows) at least 0.6x the same product over the same values as `f32`
//!   (the 16-bit lanes are widened in registers; the portable loop would
//!   read far below); `Log2Softmax::probs_into` within 1.8x `ops::softmax_into` at
//!   n = 1024; where AVX2 runs, `ops::dot_codes_tile` at least 1.4x sixteen
//!   per-row `ops::dot_codes` calls on a 16 x 128 page; on a query whose
//!   sums may round in `f32` (the tile's portable path), at least 0.15x
//!   `ops::dot_tile` on the same page as `f32` rows.
//! - **Results**: prefill and decode tok/s of `seed-sequential`,
//!   `optimized-1t`, `optimized-4t` (`StepMode::Auto`) and `pool-4t`
//!   (forced pool dispatch) per model x scheme x batch, and the headline
//!   (batch-16 `optimized-4t` over the seed engine, proxy bf16). Asserted:
//!   `optimized-1t` never below the seed engine; batch 16 at least 1.15x
//!   batch 1 on one thread on the proxy bf16 rows (the fused step); fused
//!   prefill of a long prompt not below the seed reference.
//!
//! Exact quantities (KV pool bytes, residency, greedy agreement,
//! speculation's modeled floor) are `opal-serve` tests, layer timings are
//! `benchmark/` rows, and traffic shapes are the `scenario` binary's.

use std::hint::black_box;
use std::time::Instant;

use opal_model::{Model, ModelConfig, QuantScheme};
use opal_numerics::Bf16;
use opal_scenario::{assert_json_wellformed, kernel_rates};
use opal_serve::{ServeConfig, ServeEngine, StepMode};
use opal_softmax::Log2Softmax;
use opal_tensor::{ops, KernelPath, Matrix};

/// One measured engine configuration.
struct Row {
    model: &'static str,
    scheme: &'static str,
    engine: &'static str,
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

/// The optimized engine: `ServeEngine` with the given thread count and
/// dispatch mode, run with blocking-equivalent admission
/// (`prefill_chunk = usize::MAX`). The first step consumes every prompt
/// (through the fused multi-token path) plus one decode round, so
/// `prefill_tok_s` includes one batch of decode work and `decode_tok_s`
/// excludes it. Reported figures are the best of `runs` executions.
fn run_opt_engine(
    model: &Model,
    batch: usize,
    threads: usize,
    step_mode: StepMode,
    new_tokens: usize,
    runs: usize,
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
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(model, config);
        let prompts = prompts(batch, model.config().vocab, seed);
        for p in &prompts {
            engine.submit(p).expect("valid prompt");
        }
        let prefill_tokens: usize = prompts.iter().map(Vec::len).sum();
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

/// A model x scheme of the `results` rows: names, config and scheme.
type Case<'a> = (&'static str, &'a ModelConfig, &'static str, QuantScheme);

/// The `results` rows of one model x scheme at batch 1 / 4 / 16.
fn bench_case(case: Case, new_tokens: usize, seed: u64, rows: &mut Vec<Row>) {
    let (model_name, config, scheme_name, scheme) = case;
    let model = Model::new(config.clone(), scheme, seed).expect("valid scheme");
    // On a single-core host `Auto` plans one thread at any thread count,
    // so `optimized-4t` is `optimized-1t`'s execution: reused, not
    // re-sampled and reported as a thread-count effect.
    let one_core = std::thread::available_parallelism().map_or(1, |n| n.get()) == 1;
    for batch in [1usize, 4, 16] {
        // Warm one pass so first-touch effects hit nobody in particular.
        run_opt_engine(&model, batch, 1, StepMode::Auto, 4.min(new_tokens), 1, seed);
        let mut row = |engine, threads, (prefill_tok_s, decode_tok_s)| {
            rows.push(Row {
                model: model_name,
                scheme: scheme_name,
                engine,
                batch,
                threads,
                prefill_tok_s,
                decode_tok_s,
            });
        };
        row("seed-sequential", 1, run_seed_engine(&model, batch, new_tokens, seed));
        // `optimized-{1,4}t` is the deployment configuration (Auto decides
        // whether fanning out can pay); `pool-4t` forces the dispatch so
        // its cost is visible no matter the host's core count.
        let mut auto_rates = None;
        for (name, threads, step_mode) in [
            ("optimized-1t", 1, StepMode::Auto),
            ("optimized-4t", 4, StepMode::Auto),
            ("pool-4t", 4, StepMode::ForcePool),
        ] {
            let auto = step_mode == StepMode::Auto;
            let rates = match auto_rates.filter(|_| one_core && auto) {
                Some(rates) => rates,
                None => {
                    // Best of more runs for small batches, whose runs take milliseconds.
                    let runs = (32 / batch).clamp(3, 24);
                    run_opt_engine(&model, batch, threads, step_mode, new_tokens, runs, seed)
                }
            };
            if auto {
                auto_rates = Some(rates);
            }
            row(name, threads, rates);
        }
    }
}

/// Best-of-`runs` tok/s of one long prompt's prefill: the fused
/// multi-token path (`Model::prefill_into`) and the seed reference, token
/// at a time.
fn bench_prefill_throughput(model: &Model, prompt_len: usize, runs: usize) -> (f64, f64) {
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
    let reference_tok_s = time_best(&mut || {
        let mut state = model.begin_reference_decode();
        let mut out = Vec::new();
        for &t in &prompt {
            out = model.reference_decode_step(&mut state, t);
        }
        black_box(out[0]);
    });
    (fused_tok_s, reference_tok_s)
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

/// Rate of `ops::dot_codes_tile` (one site-quantized query row — codes
/// at one power-of-two step, so its sums are exact in `f32` — against 16
/// cached code rows at d = 128, a page of the served proxy's one head)
/// over sixteen per-row `ops::dot_codes` calls on the same rows,
/// alternating.
fn dot_codes_tile_over_per_row(budget_s: f64) -> f64 {
    let (d, n) = (128usize, 16usize);
    let q: Vec<f32> = (0..d).map(|j| ((j * 29 % 31) as f32 - 15.0) * 0.0625).collect();
    let codes: Vec<i8> = (0..n * d).map(|j| ((j * 37 + 11) % 255) as i8).collect();
    let (mut tile, mut per_row) = (vec![0.0f64; n], vec![0.0f64; n]);
    let exact = ops::ExactInF32::check([&q[..]]);
    let (tile_rate, per_row_rate) = alternate(
        n * d,
        budget_s,
        || ops::dot_codes_tile(black_box(&codes), d, [(black_box(&q[..]), &mut tile[..])], exact),
        || {
            for (o, row) in per_row.iter_mut().zip(black_box(&codes).chunks_exact(d)) {
                *o = ops::dot_codes(black_box(&q), row);
            }
        },
    );
    assert!(tile.iter().zip(&per_row).all(|(a, b)| a.to_bits() == b.to_bits()));
    tile_rate / per_row_rate
}

/// Rate of `ops::dot_codes_tile` for a query row whose sums may round in
/// `f32` (not site-quantized: the bf16 or MinMax models' queries on lossy
/// code pages, or any query on a host without AVX2 and FMA) — the portable
/// `f64` loop, one `ops::dot_codes` per code row — over `ops::dot_tile` on
/// the same 16 x 128 page as `f32` rows, alternating.
fn portable_code_tile_over_f32_tile(budget_s: f64) -> f64 {
    let (d, n) = (128usize, 16usize);
    let q: Vec<f32> = (0..d).map(|j| ((j * 29 % 31) as f32 - 15.0) * 0.07).collect();
    let codes: Vec<i8> = (0..n * d).map(|j| ((j * 37 + 11) % 255) as i8).collect();
    let rows: Vec<f32> = codes.iter().map(|&c| f32::from(c)).collect();
    let (mut sums, mut scores) = (vec![0.0f64; n], vec![0.0f32; n]);
    let exact = ops::ExactInF32::check([&q[..]]);
    assert!(exact == ops::ExactInF32::check([&[f32::NAN][..]]), "the query must not be exact");
    let (code_rate, f32_rate) = alternate(
        n * d,
        budget_s,
        || ops::dot_codes_tile(black_box(&codes), d, [(black_box(&q[..]), &mut sums[..])], exact),
        || ops::dot_tile(black_box(&rows), d, [(black_box(&q[..]), &mut scores[..])]),
    );
    assert!(sums.iter().zip(&scores).all(|(&s, &x)| s as f32 == x));
    code_rate / f32_rate
}

/// The proxy's `d_ff x d_model` (344x128) projection and `rows` activation
/// rows against it.
fn projection(rows: usize) -> (Matrix, Matrix) {
    let w = Matrix::from_fn(344, 128, |r, c| (((r * 37 + c * 11) % 19) as f32 - 9.0) * 0.37);
    let x = Matrix::from_fn(rows, 128, |r, c| (((r * 53 + c * 7) % 23) as f32 - 11.0) * 0.19);
    (w, x)
}

/// Rate of `matmul_t_into` with `rows` activation rows against the proxy's
/// projection over `rows` calls of `matvec_into` on the same weights, one
/// per activation row, alternating call by call. The wide GEMM widens each
/// block of activation rows once and shares every weight chunk it converts
/// among them; the GEMV converts each weight chunk for one row. 1.0x means
/// the GEMM's rows buy nothing over the GEMV.
fn gemm_over_gemv(rows: usize, budget_s: f64) -> f64 {
    let (w, x) = projection(rows);
    let (mut gemm, mut gemv) = (Matrix::zeros(rows, w.rows()), Matrix::zeros(rows, w.rows()));
    let (gemm_rate, gemv_rate) = alternate(
        rows * w.rows() * w.cols(),
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

/// Rate of `matmul_t_into` with `rows` activation rows against the proxy's
/// projection stored as bf16 (`Matrix<Bf16>`, a bf16 model's weight form)
/// over the same product against the same values as `f32`, alternating
/// call by call. Both run the same register tiles, the bf16 one loading
/// half the weight bytes and widening each lane in registers; the outputs
/// are bit-identical.
fn bf16_weights_over_f32(rows: usize, budget_s: f64) -> f64 {
    let (w, x) = projection(rows);
    let w16 = w.transpose().transpose_with(Bf16::from_f32);
    let w32 = w.map(|v| Bf16::from_f32(v).to_f32());
    let (mut out16, mut out32) = (Matrix::zeros(rows, w.rows()), Matrix::zeros(rows, w.rows()));
    let (bf16_rate, f32_rate) = alternate(
        rows * w.rows() * w.cols(),
        budget_s,
        || black_box(&x).matmul_t_into(black_box(&w16), &mut out16),
        || black_box(&x).matmul_t_into(black_box(&w32), &mut out32),
    );
    assert!(out16.as_slice().iter().zip(out32.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits()));
    bf16_rate / f32_rate
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

/// GMAC/s of `matvec_into` on the proxy's projection and of
/// `matmul_t_into` with eight activation rows against it, each alternating
/// call by call with a seed-style product of the same shape (one
/// sequential `f64` sum per output element) for `budget_s` seconds:
/// `(kernel, shape, gmacs, seed-style gmacs)`.
fn matrix_kernel_rates(budget_s: f64) -> [(&'static str, &'static str, f64, f64); 2] {
    fn seed_style_dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum::<f64>() as f32
    }

    let (w, x) = projection(8);
    let macs = w.rows() * w.cols();
    let (mut out, mut seed_out) = (vec![0.0f32; w.rows()], vec![0.0f32; w.rows()]);
    let (mut gemm, mut seed_gemm) = (Matrix::zeros(8, w.rows()), Matrix::zeros(8, w.rows()));

    let (gemv_rate, gemv_seed) = alternate(
        macs,
        budget_s,
        || black_box(&w).matvec_into(black_box(x.row(0)), &mut out),
        || {
            for (o, row) in seed_out.iter_mut().zip(black_box(&w).iter_rows()) {
                *o = seed_style_dot(row, black_box(x.row(0)));
            }
        },
    );
    let (gemm_rate, gemm_seed) = alternate(
        8 * macs,
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
    [
        ("matvec_into", "344x128", gemv_rate, gemv_seed),
        ("matmul_t_into", "r8 x 344x128", gemm_rate, gemm_seed),
    ]
}

fn main() {
    // Weights and prompts derive from `--seed`: one seed, bit-identical work.
    let usage = |msg: &str| -> ! {
        eprintln!("bench_decode: {msg}");
        std::process::exit(2)
    };
    let (mut smoke, mut seed) = (false, 21u64);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => usage("--seed needs an integer"),
            },
            other => usage(&format!("unknown argument {other} (usage: [--smoke] [--seed N])")),
        }
    }
    let new_tokens = if smoke { 6 } else { 32 };
    let budget_s = if smoke { 0.1 } else { 0.5 };
    let path = KernelPath::detect();
    let kernel_path = if path.wide_dot { "avx+fma" } else { "portable" };

    // L0 kernel floor: `ops::dot` against the seed-style dot, same process,
    // alternating slices. Every number below is measured on top of this
    // kernel, so a slow one fails here, by name, before anything else runs.
    println!("\n== Kernel floor (GMAC/s, hot in L1) ==");
    let mut kernel_json = Vec::new();
    for d in [128usize, 512, 4096] {
        let k = kernel_rates(d, budget_s);
        let (dot, seed_style) = (k.dot_macs_per_s / 1e9, k.seed_macs_per_s / 1e9);
        let ratio = k.dot_macs_per_s / k.seed_macs_per_s;
        println!("ops::dot d={d:<5} {dot:.2} GMAC/s vs seed-style {seed_style:.2} ({ratio:.2}x)");
        assert!(
            ratio >= 2.0,
            "ops::dot must run at least 2x the seed-style sequential dot at d={d} (got \
             {ratio:.2}x): the 4-lane kernel is not vectorising"
        );
        kernel_json.push(format!(
            "    {{ \"d\": {d}, \"dot_gmacs\": {dot:.3}, \"seed_style_gmacs\": {seed_style:.3}, \
             \"dot_over_seed_style\": {ratio:.3} }}"
        ));
    }
    println!("kernel path of matvec_into / matmul_t_into: {kernel_path}");
    let mut matrix_kernel_json = Vec::new();
    for (kernel, shape, gmacs, seed_style) in matrix_kernel_rates(budget_s) {
        let ratio = gmacs / seed_style;
        println!(
            "{kernel} {shape:<14} {gmacs:.2} GMAC/s vs seed-style {seed_style:.2} ({ratio:.2}x)"
        );
        assert!(
            ratio >= 2.0,
            "{kernel} {shape} must run at least 2x a seed-style product of its shape (got \
             {ratio:.2}x, path {kernel_path})"
        );
        matrix_kernel_json.push(format!(
            "    {{ \"kernel\": \"{kernel}\", \"shape\": \"{shape}\", \"gmacs\": {gmacs:.3}, \
             \"seed_style_gmacs\": {seed_style:.3}, \"over_seed_style\": {ratio:.3} }}"
        ));
    }
    // GEMM-over-GEMV tripwire: the 8-row block (fused decode batches,
    // prefill chunks) and a 4-row leftover block (`longctx_kvq_closed`'s
    // decode step) must beat the GEMV row by row on the same weights, on
    // the wide path (the portable one runs one `ops::dot` per element on
    // both sides). The floor sits under r8 1.48-2.02x and r4 1.42-1.85x
    // measured; a GEMM that converts each activation chunk again per weight
    // row reads ~1.0x and ~0.75x.
    let mut gemm_json = Vec::new();
    for rows in [8usize, 4] {
        let (ratio, floor) = (gemm_over_gemv(rows, budget_s), 1.3);
        println!("matmul_t_into r{rows} x 344x128: {ratio:.2}x {rows} matvec_into calls");
        gemm_json.push(format!("\"r{rows}\": {ratio:.3}"));
        assert!(
            !path.wide_dot || ratio >= floor,
            "matmul_t_into with {rows} activation rows must run at least {floor}x {rows} \
             matvec_into calls on the same 344x128 weights (got {ratio:.2}x): the GEMM is no \
             longer widening its activation block once and sharing each weight chunk"
        );
    }
    // bf16-weight tripwire: the bf16 model's GEMV (one row) and GEMM (eight)
    // on the wide path run the f32 tiles with widened weight lanes. The
    // floor is loose; a bf16 product that fell back to the portable loop
    // (one `ops::dot` per element) would read well under it.
    let mut bf16_json = Vec::new();
    for rows in [1usize, 8] {
        let (ratio, floor) = (bf16_weights_over_f32(rows, budget_s), 0.6);
        println!("matmul_t_into r{rows} x 344x128, bf16 weights: {ratio:.2}x the same f32 weights");
        bf16_json.push(format!("\"r{rows}\": {ratio:.3}"));
        assert!(
            !path.wide_dot || ratio >= floor,
            "matmul_t_into with {rows} activation rows over bf16 weights must run at least \
             {floor}x the same product over f32 weights (got {ratio:.2}x): the bf16 lanes are \
             not taking the register tile"
        );
    }
    let log2_over_exact = log2_softmax_over_exact(budget_s);
    println!("Log2Softmax::probs_into n=1024: {log2_over_exact:.2}x the time of ops::softmax_into");
    assert!(
        log2_over_exact <= 1.8,
        "Log2Softmax::probs_into must stay within 1.8x ops::softmax_into at n=1024 (got \
         {log2_over_exact:.2}x): one `exp` per score, not two"
    );
    let code_tile_over_rows = dot_codes_tile_over_per_row(budget_s);
    let wide = path.wide_codes;
    println!(
        "ops::dot_codes_tile 16x128: {code_tile_over_rows:.2}x per-row dot_codes (wide: {wide})"
    );
    assert!(
        !wide || code_tile_over_rows >= 1.4,
        "ops::dot_codes_tile must run at least 1.4x per-row ops::dot_codes on 16 code rows at \
         d=128 (got {code_tile_over_rows:.2}x): the cached rows' chains are not interleaved"
    );

    let portable_over_f32 = portable_code_tile_over_f32_tile(budget_s);
    println!(
        "ops::dot_codes_tile 16x128, portable path: {portable_over_f32:.2}x ops::dot_tile on f32 \
         rows"
    );
    assert!(
        portable_over_f32 >= 0.15,
        "ops::dot_codes_tile's portable path must run at least 0.15x ops::dot_tile on the same \
         16x128 page as f32 rows (got {portable_over_f32:.2}x)"
    );

    // The tiny unit-test config plus a mid-size Llama proxy (the accuracy
    // benches' stand-in for Llama2-7B) where per-token compute dominates
    // scheduler overhead.
    let (tiny, proxy) = (ModelConfig::tiny(), ModelConfig::llama2_7b().proxy(128, 4, 192));
    let mut cases = vec![
        ("tiny", &tiny, "bf16", QuantScheme::bf16()),
        ("tiny", &tiny, "mxopal_w4a47", QuantScheme::mxopal_w4a47()),
        ("llama7b-proxy128", &proxy, "bf16", QuantScheme::bf16()),
    ];
    if !smoke {
        cases.push(("llama7b-proxy128", &proxy, "mxopal_w4a47", QuantScheme::mxopal_w4a47()));
    }
    let mut rows = Vec::new();
    for case in cases {
        bench_case(case, new_tokens, seed, &mut rows);
    }

    println!("\n== Decode throughput (tokens/sec) ==");
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

    let decode_tok_s = |model: &str, scheme: &str, batch: usize, engine: &str| -> f64 {
        rows.iter()
            .find(|r| (r.model, r.scheme, r.batch, r.engine) == (model, scheme, batch, engine))
            .map_or(f64::NAN, |r| r.decode_tok_s)
    };
    let speedup = |model: &str, scheme: &str, batch: usize, engine: &str| -> f64 {
        decode_tok_s(model, scheme, batch, engine)
            / decode_tok_s(model, scheme, batch, "seed-sequential")
    };
    // Headline floor: the deployment configuration never decodes slower
    // than the seed engine it replaced, on any row.
    for r in rows.iter().filter(|r| r.engine == "seed-sequential") {
        let s = speedup(r.model, r.scheme, r.batch, "optimized-1t");
        assert!(
            s >= 1.0,
            "optimized-1t decode fell below the seed engine on {}/{} batch {}: {s:.2}x",
            r.model,
            r.scheme,
            r.batch
        );
    }

    println!();
    let mut speedup_json = Vec::new();
    for r in rows.iter().filter(|r| r.batch == 16 && r.engine == "seed-sequential") {
        let (model, scheme) = (r.model, r.scheme);
        let s4 = speedup(model, scheme, 16, "optimized-4t");
        let s1 = speedup(model, scheme, 16, "optimized-1t");
        println!(
            "batch-16 decode speedup vs seed engine [{model}/{scheme}]: {s4:.2}x (4 threads), \
             {s1:.2}x (1 thread)"
        );
        speedup_json.push(format!(
            "    {{ \"model\": \"{model}\", \"scheme\": \"{scheme}\", \
             \"optimized_4t\": {s4:.3}, \"optimized_1t\": {s1:.3} }}"
        ));
    }

    let headline = speedup("llama7b-proxy128", "bf16", 16, "optimized-4t");

    // Fusion floor: a step is one pass over the weights for all its rows,
    // so sixteen sequences on one thread decode faster per token than one
    // (1.0x while every sequence streamed the stack itself).
    let b16 = decode_tok_s("llama7b-proxy128", "bf16", 16, "optimized-1t");
    let b1 = decode_tok_s("llama7b-proxy128", "bf16", 1, "optimized-1t");
    let batch16_over_batch1 = b16 / b1;
    println!(
        "batch 16 over batch 1, one thread [llama7b-proxy128/bf16]: {batch16_over_batch1:.2}x \
         decode tok/s ({b16:.0} vs {b1:.0})"
    );
    assert!(
        batch16_over_batch1 >= 1.15,
        "sixteen fused sequences must decode at least 1.15x the tok/s of one on one thread \
         (got {batch16_over_batch1:.2}x): the batch is not sharing its pass over the weights"
    );

    // Fused prefill of a long prompt against the seed reference.
    let (long_prompt, pf_runs) = if smoke { (48, 3) } else { (192, 8) };
    let proxy_model = Model::new(proxy, QuantScheme::bf16(), seed).expect("valid scheme");
    let (fused, reference) = bench_prefill_throughput(&proxy_model, long_prompt, pf_runs);
    println!(
        "prefill {long_prompt}-token prompt [llama7b-proxy128/bf16]: fused {fused:.0} tok/s, \
         seed reference {reference:.0} tok/s ({:.2}x)",
        fused / reference
    );
    assert!(
        fused >= reference,
        "fused prefill fell below the seed reference: {fused:.0} vs {reference:.0} tok/s"
    );

    let results_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"model\": \"{}\", \"scheme\": \"{}\", \"engine\": \"{}\", \"batch\": {}, \
                 \"threads\": {}, \"prefill_tok_s\": {:.1}, \"decode_tok_s\": {:.1} }}",
                r.model, r.scheme, r.engine, r.batch, r.threads, r.prefill_tok_s, r.decode_tok_s
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"decode_throughput\",\n  \
         \"new_tokens_per_request\": {new_tokens},\n  \"smoke\": {smoke},\n  \"seed\": {seed},\n  \
         \"headline_batch16_4t_vs_seed\": {{ \"model\": \"llama7b-proxy128\", \
         \"scheme\": \"bf16\", \"speedup\": {headline:.3} }},\n  \
         \"kernels\": [\n{}\n  ],\n  \"kernel_path\": \"{kernel_path}\",\n  \
         \"matrix_kernels\": [\n{}\n  ],\n  \"gemm_over_gemv_344x128\": {{ {} }},\n  \
         \"bf16_weights_over_f32_344x128\": {{ {} }},\n  \
         \"log2_softmax_over_exact_n1024\": {log2_over_exact:.3},\n  \
         \"dot_codes_tile_over_per_row_16x128\": {code_tile_over_rows:.3},\n  \
         \"dot_codes_tile_portable_over_dot_tile_16x128\": {portable_over_f32:.3},\n  \
         \"batch16_speedups\": [\n{}\n  ],\n  \"batch16_over_batch1_1t\": \
         {batch16_over_batch1:.3},\n  \"results\": [\n{}\n  ]\n}}\n",
        kernel_json.join(",\n"),
        matrix_kernel_json.join(",\n"),
        gemm_json.join(", "),
        bf16_json.join(", "),
        speedup_json.join(",\n"),
        results_json.join(",\n"),
    );
    assert_json_wellformed(&json);
    std::fs::write("BENCH_decode.json", &json).expect("write BENCH_decode.json");
    println!("\nwrote BENCH_decode.json");
}
