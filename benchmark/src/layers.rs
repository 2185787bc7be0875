//! The layer phase: one micro-run per row of the per-layer ladder, each
//! around direct calls into a crate's public functions, recorded as a
//! `layer.<crate>.<fn>` span. Layers are the crates; `opal-bench` and
//! `tools/*` are harnesses and get no rows.
//!
//! A row is timed in `BATCHES` batches that together fill `ROW_BUDGET`;
//! its value is the median batch. Rows marked exact are counts or
//! simulated figures: they must repeat to the last digit and must not move
//! when only the host gets faster.

use std::hint::black_box;
use std::sync::Arc;

use opal::{OpalPipeline, OperatingPoint};
use opal_hw::accelerator::{energy_saving, Accelerator, AcceleratorKind};
use opal_hw::lane_sim;
use opal_hw::workload::{DataFormat, TokenWorkload};
use opal_model::{eval, BlockPool, DecodeState, KvScheme, Model, ModelConfig, QuantScheme};
use opal_numerics::{shift_quantize, Bf16, Rounding};
use opal_quant::{EncodeScratch, MxOpalQuantizer, OwqQuantizer};
use opal_scenario::{replay, TraceConfig};
use opal_serve::{Request, ServeConfig, ServeEngine};
use opal_softmax::Log2Softmax;
use opal_tensor::{ops, stats as tstats, Matrix};

use crate::drive::Clock;
use crate::gen::{SplitMix64, VOCAB};
use crate::measure::Metric;
use crate::stats;
use crate::trace::Trace;
use crate::workloads::{self, Scheme, BLOCK_SIZE};

const BATCHES: usize = 5;
const ROW_BUDGET_NS: u64 = 250_000_000;
/// `--smoke`: two batches in next to no time, to show that every row runs.
const SMOKE_BATCHES: usize = 2;
const SMOKE_ROW_BUDGET_NS: u64 = 2_000_000;
/// Stream seed of `model.ppl_delta_opal47`, used for nothing else.
const HELD_OUT_STREAM_SEED: u64 = 0x09A1;

/// Median seconds per call of one row, and how many calls were timed.
#[derive(Clone, Copy, Debug)]
struct Timing {
    per_call_s: f64,
    calls: usize,
}

struct Bench<'a> {
    clock: Clock,
    budget_ns: u64,
    batches: usize,
    spans: &'a mut Trace,
    root: u32,
    out: Vec<Metric>,
}

impl Bench<'_> {
    /// Times `call`: doubles a trial count until a trial is long enough to
    /// read (the trials are the warm-up), sizes the batches from it, and
    /// takes the median batch.
    fn time(&mut self, span: &str, mut call: impl FnMut()) -> Timing {
        let start = self.clock.ns();
        let (mut n, mut trial_ns) = (1usize, 0u64);
        while trial_ns < self.budget_ns / 50 {
            let t = self.clock.ns();
            for _ in 0..n {
                call();
            }
            trial_ns = self.clock.ns() - t;
            n *= 2;
        }
        let per_call_ns = (trial_ns as f64 / (n / 2) as f64).max(1.0);
        let iters =
            ((self.budget_ns / self.batches as u64) as f64 / per_call_ns).ceil().max(1.0) as usize;
        let mut batches = vec![0.0f64; self.batches];
        for b in &mut batches {
            let t = self.clock.ns();
            for _ in 0..iters {
                call();
            }
            *b = (self.clock.ns() - t) as f64 / 1e9 / iters as f64;
        }
        self.finish(span, start, &batches, iters * self.batches)
    }

    /// Two things timed turn and turn about, so that both meet the same
    /// host. A round prepares untimed, times its own work, and returns the
    /// nanoseconds timed and the units of work done in them; rounds of `a`
    /// and `b` alternate until a batch holds its share of the budget, and
    /// `combine` makes one figure of the batch's two times per unit. The
    /// row is the median batch's figure.
    fn time_pair(
        &mut self,
        span: &str,
        mut a: impl FnMut(Clock) -> (u64, usize),
        mut b: impl FnMut(Clock) -> (u64, usize),
        combine: impl Fn(f64, f64) -> f64,
    ) -> Timing {
        let start = self.clock.ns();
        let mut batches = vec![0.0f64; self.batches];
        let mut calls = 0;
        for batch in &mut batches {
            let (mut a_ns, mut a_units, mut b_ns, mut b_units) = (0u64, 0usize, 0u64, 0usize);
            while a_ns + b_ns < self.budget_ns / self.batches as u64 {
                let (n, u) = a(self.clock);
                (a_ns, a_units) = (a_ns + n.max(1), a_units + u);
                let (n, u) = b(self.clock);
                (b_ns, b_units) = (b_ns + n.max(1), b_units + u);
            }
            *batch =
                combine(a_ns as f64 / 1e9 / a_units as f64, b_ns as f64 / 1e9 / b_units as f64);
            calls += a_units;
        }
        self.finish(span, start, &batches, calls)
    }

    /// Records the row's span and takes the median batch.
    fn finish(&mut self, span: &str, start: u64, batches: &[f64], calls: usize) -> Timing {
        let [q1, q2, q3] = stats::quartiles(batches).expect("at least two batches");
        let counts = vec![
            ("calls", calls as f64),
            ("median_ns", q2 * 1e9),
            ("q1_ns", q1 * 1e9),
            ("q3_ns", q3 * 1e9),
        ];
        let name = format!("layer.{span}");
        self.spans.push(name, Some(self.root), None, (start, self.clock.ns()), counts);
        Timing { per_call_s: stats::median(batches), calls }
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, calls: usize) {
        let mut m = Metric::new(name, value, unit);
        m.n = calls;
        self.out.push(m);
    }

    /// A throughput row: `work` units per call, reported per second over
    /// `scale` (1e9 for G, 1e6 for M).
    fn rate(
        &mut self,
        name: &str,
        span: &str,
        unit: &'static str,
        work: f64,
        scale: f64,
        call: impl FnMut(),
    ) -> Timing {
        let t = self.time(span, call);
        self.push(name, work / t.per_call_s / scale, unit, t.calls);
        t
    }

    /// A cost row: time per call times `scale` (1e3 ms, 1e6 us, 1e9 ns).
    fn cost(
        &mut self,
        name: &str,
        span: &str,
        unit: &'static str,
        scale: f64,
        call: impl FnMut(),
    ) -> Timing {
        let t = self.time(span, call);
        self.push(name, t.per_call_s * scale, unit, t.calls);
        t
    }

    /// A count or a simulated figure: no timing, must repeat exactly.
    fn exact(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, 0);
    }
}

/// Roughly normal values with a few large channels, like the activations
/// the paper's quantizer is built for.
fn activations(rng: &mut SplitMix64, n: usize) -> Vec<f32> {
    let mut x: Vec<f32> =
        (0..n).map(|_| (0..3).map(|_| rng.unit() as f32 - 0.5).sum::<f32>() * 2.0).collect();
    for i in (5..n).step_by(97) {
        x[i] *= 40.0;
    }
    x
}

/// Attention-score-like values: roughly normal, a few units wide.
fn scores(rng: &mut SplitMix64, n: usize) -> Vec<f32> {
    (0..n).map(|_| (0..3).map(|_| rng.unit() as f32 - 0.5).sum::<f32>() * 6.0).collect()
}

fn matrix(rng: &mut SplitMix64, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, activations(rng, rows * cols))
}

fn tokens(rng: &mut SplitMix64, n: usize) -> Vec<u32> {
    (0..n).map(|_| rng.below(u64::from(VOCAB)) as u32).collect()
}

/// Runs every layer row. Inputs are fixed (they do not follow `--seed`):
/// a layer row describes the code, not a workload.
pub fn run(smoke: bool, clock: Clock, spans: &mut Trace) -> Vec<Metric> {
    let start = clock.ns();
    let root = spans.push("layers", None, None, (start, start), Vec::new());
    let (budget_ns, batches) =
        if smoke { (SMOKE_ROW_BUDGET_NS, SMOKE_BATCHES) } else { (ROW_BUDGET_NS, BATCHES) };
    let mut b = Bench { clock, budget_ns, batches, spans, root, out: Vec::new() };
    let mut rng = SplitMix64::new(0x1A7E25);

    tensor(&mut b, &mut rng);
    numerics(&mut b, &mut rng);
    quant(&mut b, &mut rng);
    softmax(&mut b, &mut rng);
    model(&mut b, &mut rng);
    hw(&mut b, &mut rng);
    core(&mut b, &mut rng);
    serve(&mut b, &mut rng);
    scenario(&mut b);

    let out = b.out;
    spans.spans[root as usize].end_ns = clock.ns();
    out
}

/// The sequential `f64` sum every kernel is specified against; owned here
/// so that `tensor.dot_vs_naive_d128` means the same on any host.
fn naive_dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum::<f64>() as f32
}

fn tensor(b: &mut Bench<'_>, rng: &mut SplitMix64) {
    for (name, d) in [("tensor.dot_gmacs_d128", 128), ("tensor.dot_gmacs_d4096", 4096)] {
        let (x, y) = (activations(rng, d), activations(rng, d));
        let t = b.rate(name, "tensor.dot", "GMAC/s", d as f64, 1e9, || {
            black_box(ops::dot(black_box(&x), black_box(&y)));
        });
        if d == 128 {
            let naive = b.time("bench.naive_dot", || {
                black_box(naive_dot(black_box(&x), black_box(&y)));
            });
            b.push("tensor.dot_vs_naive_d128", naive.per_call_s / t.per_call_s, "x", t.calls);
        }
    }
    // The proxy model's FFN projection: 344 weight rows of width 128.
    let w = matrix(rng, 344, 128);
    let v = activations(rng, 128);
    let mut out = vec![0.0f32; 344];
    b.rate(
        "tensor.matvec_gmacs_344x128",
        "tensor.matvec_into",
        "GMAC/s",
        344.0 * 128.0,
        1e9,
        || {
            w.matvec_into(black_box(&v), &mut out);
            black_box(&out);
        },
    );
    for (name, rows) in [("tensor.matmul_t_gmacs_r8", 8), ("tensor.matmul_t_gmacs_r32", 32)] {
        let x = matrix(rng, rows, 128);
        let mut out = Matrix::zeros(rows, 344);
        let macs = (rows * 344 * 128) as f64;
        b.rate(name, "tensor.matmul_t_into", "GMAC/s", macs, 1e9, || {
            black_box(&x).matmul_t_into(&w, &mut out);
            black_box(&out);
        });
    }
    let x = activations(rng, 128);
    let codes: Vec<i8> = (0..128).map(|_| rng.below(255) as i8).collect();
    b.rate("tensor.dot_codes_gmacs_d128", "tensor.dot_codes", "GMAC/s", 128.0, 1e9, || {
        black_box(ops::dot_codes(black_box(&x), black_box(&codes)));
    });
    let scores = scores(rng, 512);
    let mut probs = vec![0.0f32; 512];
    b.rate("tensor.softmax_melem_s_n512", "tensor.softmax_into", "Melem/s", 512.0, 1e6, || {
        ops::softmax_into(black_box(&scores), &mut probs);
        black_box(&probs);
    });
}

fn numerics(b: &mut Bench<'_>, rng: &mut SplitMix64) {
    let x = activations(rng, 4096);
    b.rate("numerics.bf16_round_melem_s", "numerics.bf16_from_f32", "Melem/s", 4096.0, 1e6, || {
        let sum: f32 = black_box(&x).iter().map(|&v| Bf16::from_f32(v).to_f32()).sum();
        black_box(sum);
    });
    let bf: Vec<Bf16> = x.iter().map(|&v| Bf16::from_f32(v)).collect();
    b.rate(
        "numerics.shift_quantize_melem_s",
        "numerics.shift_quantize",
        "Melem/s",
        4096.0,
        1e6,
        || {
            let sum: i32 = black_box(&bf)
                .iter()
                .map(|&v| shift_quantize(v, 2, 4, Rounding::NearestEven))
                .sum();
            black_box(sum);
        },
    );
}

fn quant(b: &mut Bench<'_>, rng: &mut SplitMix64) {
    // The activation quantizer of the W4A4/7 point after a norm: 4 bits,
    // blocks of 128, 4 preserved outliers.
    let q4 = MxOpalQuantizer::new(4, 128, 4).expect("valid MX-OPAL parameters");
    let mut scratch = EncodeScratch::new();
    for (name, d) in
        [("quant.mxopal_qdq_rows_s_d128", 128), ("quant.mxopal_qdq_rows_s_d4096", 4096)]
    {
        let x = activations(rng, d);
        let mut out = vec![0.0f32; d];
        b.rate(name, "quant.quantize_dequantize_fused", "row/s", 1.0, 1.0, || {
            q4.quantize_dequantize_fused(black_box(&x), &mut out, &mut scratch);
            black_box(&out);
        });
        if d == 4096 {
            b.exact("quant.mxopal_sqnr_db_b4", tstats::sqnr_db(&x, &out), "dB");
        }
    }
    // The KV page codec (`KvScheme::mxopal()`): 8 bits, blocks of 128, 4
    // outliers, one row of width 128.
    let q8 = MxOpalQuantizer::new(8, 128, 4).expect("valid MX-OPAL parameters");
    let x = activations(rng, 128);
    let (mut codes, mut scales) = (vec![0i8; 128], vec![0i16; 1]);
    let (mut idx, mut val, mut len) = (vec![0u16; 4], vec![Bf16::from_f32(0.0); 4], vec![0u8; 1]);
    b.rate("quant.kv_encode_rows_s_d128", "quant.encode_row_scratch", "row/s", 1.0, 1.0, || {
        q8.encode_row_scratch(
            black_box(&x),
            &mut codes,
            &mut scales,
            &mut idx,
            &mut val,
            &mut len,
            &mut scratch,
        );
        black_box(&codes);
    });
    let mut out = vec![0.0f32; 128];
    b.rate("quant.kv_decode_rows_s_d128", "quant.decode_row", "row/s", 1.0, 1.0, || {
        q8.decode_row(black_box(&codes), &scales, &idx, &val, &len, &mut out);
        black_box(&out);
    });
    let w = matrix(rng, 128, 344);
    let moments = vec![1.0f32; 128];
    let owq = OwqQuantizer::w4();
    b.cost("quant.owq_quantize_ms_344x128", "quant.owq_quantize", "ms", 1e3, || {
        black_box(owq.quantize(black_box(&w), &moments));
    });
}

fn softmax(b: &mut Bench<'_>, rng: &mut SplitMix64) {
    let sm = Log2Softmax::new(5);
    for (name, n) in
        [("softmax.log2_probs_melem_s_n128", 128), ("softmax.log2_probs_melem_s_n1024", 1024)]
    {
        let scores = scores(rng, n);
        let mut probs = vec![0.0f32; n];
        let t = b.rate(name, "softmax.log2_probs_into", "Melem/s", n as f64, 1e6, || {
            sm.probs_into(black_box(&scores), &mut probs);
            black_box(&probs);
        });
        if n == 1024 {
            let mut exact = vec![0.0f32; n];
            let e = b.time("tensor.softmax_into", || {
                ops::softmax_into(black_box(&scores), &mut exact);
                black_box(&exact);
            });
            b.push("softmax.log2_vs_exact_time", t.per_call_s / e.per_call_s, "x", t.calls);
            b.exact(
                "softmax.log2_max_abs_err",
                f64::from(tstats::max_abs_err(&probs, &exact)),
                "prob",
            );
        }
    }
}

/// Two `model.decode_us_*` rows that share a model and a KV format: the
/// (name, context) of the shorter and of the longer one.
type DecodeRows<'a> = (&'a Model, KvScheme, [(&'static str, usize); 2]);

/// A paged decode state with `prompt` cached.
fn state_at(model: &Model, pool: &Arc<BlockPool>, prompt: &[u32]) -> DecodeState {
    let mut state = model.begin_decode_paged(pool);
    for chunk in prompt.chunks(32) {
        model.prefill_chunk(&mut state, chunk);
    }
    state
}

fn pool(scheme: KvScheme) -> Arc<BlockPool> {
    Arc::new(BlockPool::with_scheme(
        BLOCK_SIZE,
        workloads::model_config().d_model,
        usize::MAX,
        scheme,
    ))
}

fn model(b: &mut Bench<'_>, rng: &mut SplitMix64) {
    b.cost("model.build_ms_bf16", "model.new", "ms", 1e3, || {
        black_box(Scheme::Bf16.build());
    });
    b.cost("model.build_ms_opal47", "model.new", "ms", 1e3, || {
        black_box(Scheme::Opal47.build());
    });
    let bf16 = Scheme::Bf16.build();
    let opal = Scheme::Opal47.build();
    let vocab = VOCAB as usize;
    let prompt = tokens(rng, 1024);
    let mut logits = vec![0.0f32; vocab];

    // One decode row at a fixed context: step, then roll the row back. A
    // state is filled once to its longer context and cut back for the
    // shorter one.
    let rows: [DecodeRows<'_>; 3] = [
        (
            &bf16,
            KvScheme::Exact,
            [("model.decode_us_ctx16_bf16", 16), ("model.decode_us_ctx512_bf16", 512)],
        ),
        (
            &opal,
            KvScheme::Exact,
            [("model.decode_us_ctx16_opal47", 16), ("model.decode_us_ctx512_opal47", 512)],
        ),
        (
            &opal,
            KvScheme::mxopal(),
            [
                ("model.decode_us_ctx512_opal47_kvq", 512),
                ("model.decode_us_ctx1024_opal47_kvq", 1024),
            ],
        ),
    ];
    for (m, kv, [short, long]) in rows {
        let mut state = state_at(m, &pool(kv), &prompt[..long.1]);
        let mut timings = Vec::new();
        for (_, ctx) in [long, short] {
            state.truncate(ctx);
            timings.push(b.time("model.decode_step_into", || {
                m.decode_step_into(&mut state, 7, &mut logits);
                state.truncate(ctx);
                black_box(&logits);
            }));
        }
        for ((name, _), t) in [short, long].into_iter().zip(timings.into_iter().rev()) {
            b.push(name, t.per_call_s * 1e6, "us", t.calls);
        }
    }

    // The seed decoder against the optimised one, on the same 17 tokens
    // from an empty cache.
    let head = &prompt[..17];
    let reference = b.time("model.reference_decode_step", || {
        let mut state = bf16.begin_reference_decode();
        for &t in head {
            black_box(bf16.reference_decode_step(&mut state, t));
        }
    });
    let optimised = b.time("model.decode_step_into", || {
        let mut state = bf16.begin_decode();
        for &t in head {
            bf16.decode_step_into(&mut state, t, &mut logits);
        }
        black_box(&logits);
    });
    b.push(
        "model.ref_decode_us_ctx16_bf16",
        reference.per_call_s * 1e6 / 17.0,
        "us",
        reference.calls,
    );
    b.push(
        "model.decode_vs_ref_bf16",
        reference.per_call_s / optimised.per_call_s,
        "x",
        optimised.calls,
    );

    for (name, chunk) in [("model.prefill_tok_s_c8", 8), ("model.prefill_tok_s_c32", 32)] {
        let mut state = opal.begin_decode_paged(&pool(KvScheme::Exact));
        b.rate(name, "model.prefill_chunk", "tok/s", 128.0, 1.0, || {
            for c in prompt[..128].chunks(chunk) {
                opal.prefill_chunk(&mut state, c);
            }
            state.truncate(0);
        });
    }

    // The speculative step of `spec_lowbatch_closed`: five rows scored in
    // one fused pass, the four drafted ones rolled back.
    let mut state = state_at(&opal, &pool(KvScheme::Exact), &prompt[..64]);
    let mut rows_out = Matrix::zeros(5, vocab);
    b.rate("model.verify_rows_s_k4", "model.verify_chunk_into", "row/s", 5.0, 1.0, || {
        opal.verify_chunk_into(&mut state, &prompt[64..69], &mut rows_out);
        state.truncate(64);
        black_box(&rows_out);
    });

    let config = workloads::model_config();
    for (name, kv) in [
        ("model.kv_bytes_per_tok_exact", KvScheme::Exact),
        ("model.kv_bytes_per_tok_mxopal", KvScheme::mxopal()),
    ] {
        let bytes = config.n_layers * 2 * kv.page_bytes(BLOCK_SIZE, config.d_model) / BLOCK_SIZE;
        b.exact(name, bytes as f64, "B/tok");
    }
    // The paper's accuracy claim (perplexity rises by less than 1), on a
    // stream drawn with a seed nothing else uses.
    let stream = eval::sample_stream(&bf16, 192, HELD_OUT_STREAM_SEED);
    let delta = eval::perplexity(&opal, &stream) - eval::perplexity(&bf16, &stream);
    b.exact("model.ppl_delta_opal47", delta, "ppl");
}

fn hw(b: &mut Bench<'_>, rng: &mut SplitMix64) {
    let llama = ModelConfig::llama2_7b();
    let fmt = DataFormat::opal_w4a47();
    b.cost("hw.workload_new_ns", "hw.token_workload_new", "ns", 1e9, || {
        black_box(TokenWorkload::new(black_box(&llama), &fmt, 1024));
    });
    let contexts: Vec<usize> = (0..16).map(|i| 64 + 8 * i).collect();
    b.cost("hw.from_schedule_us_b16", "hw.token_workload_from_schedule", "us", 1e6, || {
        black_box(TokenWorkload::from_schedule(&llama, &fmt, black_box(&contexts)));
    });
    let opal = Accelerator::new(AcceleratorKind::OpalW4A47);
    b.cost("hw.energy_per_token_ns", "hw.energy_per_token", "ns", 1e9, || {
        black_box(opal.energy_per_token(black_box(&llama), 1024));
    });
    let (acts, weights) = (activations(rng, 128), activations(rng, 128));
    b.rate("hw.lane_sim_dots_s", "hw.lane_sim_simulate_dot", "dot/s", 1.0, 1.0, || {
        black_box(lane_sim::simulate_dot(black_box(&acts), &weights, 4, 4, 128, 4).is_ok());
    });
    let int_fraction = lane_sim::simulate_dot(&acts, &weights, 4, 4, 128, 4)
        .map_or(0.0, |(_, _, lane)| lane.int_fraction());
    b.exact("hw.lane_int_fraction", int_fraction, "share");
    let bf16 = Accelerator::new(AcceleratorKind::Bf16);
    let saving =
        energy_saving(&opal.energy_per_token(&llama, 1024), &bf16.energy_per_token(&llama, 1024));
    b.exact("hw.energy_saving_vs_bf16_7b_1k", saving, "share");
}

fn core(b: &mut Bench<'_>, rng: &mut SplitMix64) {
    let pipeline =
        OpalPipeline::new(workloads::model_config(), OperatingPoint::W4A47, workloads::WEIGHT_SEED)
            .expect("the W4A4/7 point is valid");
    let prompt = tokens(rng, 16);
    b.rate("core.generate_tok_s", "core.pipeline_generate", "tok/s", 64.0, 1.0, || {
        black_box(pipeline.generate(black_box(&prompt), 64));
    });
    b.cost("core.evaluate_ms", "core.pipeline_evaluate", "ms", 1e3, || {
        black_box(pipeline.evaluate(64, 5));
    });
}

/// An engine holding sixteen sequences that have just sampled their first
/// token: every following step is sixteen decode rows.
fn decoding_engine<'m>(m: &'m Model, prompts: &[Vec<u32>], threads: usize) -> ServeEngine<'m> {
    let config = ServeConfig {
        max_batch: prompts.len(),
        max_tokens: 512,
        num_threads: threads,
        prefill_chunk: usize::MAX,
        prefix_sharing: false,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(m, config).with_accelerator(workloads::accelerator());
    for p in prompts {
        engine.submit_request(Request::new(p).with_limit(512)).expect("valid request");
    }
    engine.step();
    engine
}

/// Decode steps timed per round of the `serve` rows: few enough that the
/// context, and with it a step's cost, hardly grows within a round.
const SERVE_STEPS: usize = 16;

/// Nanoseconds `SERVE_STEPS` steps of a freshly filled engine take.
fn engine_steps_ns(m: &Model, prompts: &[Vec<u32>], threads: usize, clock: Clock) -> u64 {
    let mut engine = decoding_engine(m, prompts, threads);
    let t = clock.ns();
    for _ in 0..SERVE_STEPS {
        black_box(engine.step());
    }
    clock.ns() - t
}

fn serve(b: &mut Bench<'_>, rng: &mut SplitMix64) {
    // What a step costs per sequence beyond the model's own work: sixteen
    // decode rows through `step()` against the same sixteen rows, at the
    // same contexts, through `decode_step_into`; on a model small enough
    // for the difference to be most of the step.
    let tiny = Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 7).expect("valid scheme");
    let vocab = tiny.config().vocab;
    let prompts: Vec<Vec<u32>> =
        (0..16).map(|_| (0..8).map(|_| rng.below(vocab as u64) as u32).collect()).collect();
    let rows = SERVE_STEPS * prompts.len();
    let mut logits = vec![0.0f32; vocab];
    let direct = |clock: Clock| {
        let mut states: Vec<(DecodeState, u32)> = prompts
            .iter()
            .map(|p| {
                let mut s = tiny.begin_decode();
                tiny.prefill_into(&mut s, p, &mut logits);
                (s, ops::argmax(&logits).unwrap_or(0) as u32)
            })
            .collect();
        let t = clock.ns();
        for _ in 0..SERVE_STEPS {
            for (s, token) in &mut states {
                tiny.decode_step_into(s, *token, &mut logits);
                *token = ops::argmax(&logits).unwrap_or(0) as u32;
            }
        }
        (clock.ns() - t, rows)
    };
    let overhead = b.time_pair(
        "serve.step",
        |clock| (engine_steps_ns(&tiny, &prompts, 1, clock), rows),
        direct,
        |through_engine, direct| through_engine - direct,
    );
    b.push("serve.overhead_us_per_seq", overhead.per_call_s * 1e6, "us", overhead.calls);

    // Sixteen decode rows of the served model on one engine thread and on
    // two (or on as many as the host has).
    let proxy = Scheme::Bf16.build();
    let prompts: Vec<Vec<u32>> = (0..16).map(|_| tokens(rng, 8)).collect();
    let threads = std::thread::available_parallelism().map_or(1, usize::from).min(2);
    let speedup = b.time_pair(
        "serve.step",
        |clock| (engine_steps_ns(&proxy, &prompts, 1, clock), SERVE_STEPS),
        |clock| (engine_steps_ns(&proxy, &prompts, threads, clock), SERVE_STEPS),
        |one, many| one / many,
    );
    b.push("serve.par_speedup_2t", speedup.per_call_s, "x", speedup.calls);
}

fn scenario(b: &mut Bench<'_>) {
    let tiny = Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 11).expect("valid scheme");
    let config = TraceConfig::poisson("layer-row", 42, 1.0, 128, tiny.config().vocab);
    let trace = config.generate();
    let events = trace.events.len() as f64;
    b.rate(
        "scenario.trace_gen_events_s",
        "scenario.trace_generate",
        "event/s",
        events,
        1.0,
        || {
            black_box(config.generate());
        },
    );
    let first = replay::replay(&tiny, ServeConfig::default(), &trace);
    let steps = first.engine_steps as f64;
    b.rate("scenario.replay_steps_s", "scenario.replay", "step/s", steps, 1.0, || {
        black_box(replay::replay(&tiny, ServeConfig::default(), &trace));
    });
    let second = replay::replay(&tiny, ServeConfig::default(), &trace);
    let stable = first.deterministic_digest() == second.deterministic_digest();
    b.exact("scenario.digest_stable", f64::from(u8::from(stable)), "bool");
}
