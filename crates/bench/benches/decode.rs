//! Criterion bench: single-token decode latency of the optimized
//! (contiguous-KV, scratch-space) path versus the preserved seed reference,
//! plus the batched engine step at several thread counts.
//!
//! CI runs this as a smoke test: it compiles the full decode stack and
//! exercises both paths end to end in a few hundred milliseconds each.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use opal_model::{Model, ModelConfig, QuantScheme};
use opal_serve::{ServeConfig, ServeEngine, StepMode};
use opal_tensor::ops;

fn bench_decode_paths(c: &mut Criterion) {
    let model = Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 21).expect("valid scheme");
    let mut group = c.benchmark_group("decode_16tok");

    group.bench_function("optimized", |b| {
        b.iter(|| {
            let mut state = model.begin_decode();
            let mut logits = model.prefill(&mut state, black_box(&[1, 2, 3]));
            for _ in 0..16 {
                let t = ops::argmax(&logits).unwrap_or(0) as u32;
                model.decode_step_into(&mut state, t, &mut logits);
            }
            black_box(logits[0])
        });
    });

    group.bench_function("seed-reference", |b| {
        b.iter(|| {
            let mut state = model.begin_reference_decode();
            let mut logits = Vec::new();
            for &t in black_box(&[1u32, 2, 3]) {
                logits = model.reference_decode_step(&mut state, t);
            }
            for _ in 0..16 {
                let t = ops::argmax(&logits).unwrap_or(0) as u32;
                logits = model.reference_decode_step(&mut state, t);
            }
            black_box(logits[0])
        });
    });
    group.finish();
}

fn bench_prefill_paths(c: &mut Criterion) {
    let model = Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 21).expect("valid scheme");
    let prompt: Vec<u32> = (0..48u32).map(|i| (i * 11 + 3) % 64).collect();
    let mut group = c.benchmark_group("prefill_48tok");

    // The fused multi-token path: whole chunks of positions per layer pass.
    group.bench_function("fused", |b| {
        let mut logits = vec![0.0f32; model.config().vocab];
        b.iter(|| {
            let mut state = model.begin_decode();
            model.prefill_into(&mut state, black_box(&prompt), &mut logits);
            black_box(logits[0])
        });
    });

    // The pre-fusion baseline: one layer pass per token (chunk size 1),
    // with the same skip-logits-until-last behaviour.
    group.bench_function("tokenwise", |b| {
        let mut logits = vec![0.0f32; model.config().vocab];
        b.iter(|| {
            let mut state = model.begin_decode();
            let (last, head) = prompt.split_last().expect("non-empty");
            for &t in black_box(head) {
                model.prefill_chunk(&mut state, &[t]);
            }
            model.prefill_chunk_into(&mut state, &[*last], &mut logits);
            black_box(logits[0])
        });
    });
    group.finish();
}

fn bench_parallel_step(c: &mut Criterion) {
    let model = Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 22).expect("valid scheme");
    let mut group = c.benchmark_group("serve_step_batch16_8tok");
    // Auto at each thread count (what deployments run), then the pool
    // forced at 4 threads: what the dispatch costs, cores notwithstanding.
    let cases: [(&str, usize, StepMode); 4] = [
        ("auto-1t", 1, StepMode::Auto),
        ("auto-2t", 2, StepMode::Auto),
        ("auto-4t", 4, StepMode::Auto),
        ("pool-4t", 4, StepMode::ForcePool),
    ];
    for (name, threads, step_mode) in cases {
        group.bench_with_input(BenchmarkId::from_parameter(name), &threads, |b, &threads| {
            b.iter(|| {
                let config = ServeConfig {
                    max_batch: 16,
                    max_tokens: 8,
                    num_threads: threads,
                    step_mode,
                    ..ServeConfig::default()
                };
                let mut engine = ServeEngine::new(&model, config);
                for i in 0..16u32 {
                    engine.submit(black_box(&[1 + i, 2, 3])).unwrap();
                }
                black_box(engine.run())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decode_paths, bench_prefill_paths, bench_parallel_step);
criterion_main!(benches);
