//! Batched serving demo: four concurrent requests plus two admitted
//! mid-stream that share a system prompt, decoded under the W4A4/7
//! operating point with energy accounting and a paged, prefix-shared KV
//! cache, ending in a printed `ServeReport` and pool-utilization summary.
//!
//! Run with `cargo run --example serve_demo`.

use opal::{ModelConfig, OpalPipeline, OperatingPoint};
use opal_hw::accelerator::Accelerator;
use opal_serve::{ServeConfig, ServeEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pipeline = OpalPipeline::new(ModelConfig::tiny(), OperatingPoint::W4A47, 42)?;
    let model = pipeline.student();
    println!("serving {model:?}");

    let mut engine = ServeEngine::new(
        model,
        ServeConfig { max_batch: 4, max_tokens: 16, block_size: 8, ..ServeConfig::default() },
    )
    .with_accelerator(Accelerator::new(pipeline.operating_point().accelerator_kind()));

    // Three requests arrive up front...
    let initial: [&[u32]; 3] = [&[1, 2, 3], &[9, 8, 7], &[30, 31, 32, 33]];
    for prompt in initial {
        let id = engine.submit(prompt)?;
        println!("submitted {id} (prompt {prompt:?})");
    }

    // ...and two more show up mid-decode, one after the other, sharing a
    // 16-token "system prompt": continuous admission slots them into the
    // free batch slot, and the second adopts the first one's system-prompt
    // blocks straight from the prefix cache — no re-prefill.
    let system: Vec<u32> = (0..16u32).map(|i| (i * 3 + 2) % 64).collect();
    let t0 = std::time::Instant::now();
    for _ in 0..6 {
        engine.step();
    }
    for tail in [&[40u32, 41][..], &[50, 51, 52][..]] {
        let mut prompt = system.clone();
        prompt.extend_from_slice(tail);
        let id = engine.submit(&prompt)?;
        println!("submitted {id} mid-stream (shared 16-token system prompt + {tail:?})");
        // Give the first sharer time to prefill and publish its blocks.
        for _ in 0..4 {
            engine.step();
        }
    }
    while !engine.is_idle() {
        engine.step();
    }
    let report = engine.report(t0.elapsed());

    println!();
    print!("{report}");
    println!(
        "\nKV pool: {} blocks resident (prefix cache), peak {} of {}, \
         {} prompt tokens prefix-shared, {} preemptions",
        engine.kv_pool().in_use(),
        engine.kv_pool().peak(),
        match engine.kv_pool().capacity() {
            usize::MAX => "unbounded".to_owned(),
            cap => cap.to_string(),
        },
        report.shared_prefill_tokens,
        report.preemptions
    );

    // Sanity check the batch against the single-sequence path.
    let solo = pipeline.generate(initial[0], 16);
    let batched = &report.requests[0].tokens;
    assert_eq!(&solo, batched, "batch output must match single-sequence output");
    assert!(report.shared_prefill_tokens >= system.len() as u64, "system prompt must be shared");
    println!("\nbatch-of-N output verified token-identical to OpalPipeline::generate");
    Ok(())
}
