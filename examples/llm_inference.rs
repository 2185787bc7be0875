//! LLM generation under quantization: run the same prompt through the BF16
//! teacher and several quantized variants and compare the generations and
//! per-scheme perplexity — the Table 1 experiment in miniature.
//!
//! ```sh
//! cargo run --example llm_inference
//! ```

use opal::prelude::*;

fn main() -> Result<(), QuantError> {
    let config = ModelConfig::llama2_7b().proxy(96, 3, 128);
    let teacher = Model::new(config.clone(), QuantScheme::bf16(), 1234)?;

    // A deterministic "document" sampled from the teacher itself (our
    // WikiText-2 stand-in; see tests/paper_claims.rs).
    let stream = eval::sample_stream(&teacher, 128, 99);

    println!("{:<22} {:>10} {:>8}", "scheme", "PPL", "ΔPPL");
    let base = eval::perplexity(&teacher, &stream);
    println!("{:<22} {:>10.3} {:>8}", "BF16 (teacher)", base, "-");

    for scheme in [
        QuantScheme::owq_w4a16(),
        QuantScheme::minmax_w4a47(),
        QuantScheme::mxint_w4a47(),
        QuantScheme::mxopal_w4a47(),
        QuantScheme::minmax_w3a35(),
        QuantScheme::mxopal_w3a35(),
        QuantScheme::mxopal_w4a47().with_log2_softmax(5),
    ] {
        let name = scheme.name.clone();
        let m = Model::new(config.clone(), scheme, 1234)?;
        let ppl = eval::perplexity(&m, &stream);
        println!("{:<22} {:>10.3} {:>+8.3}", name, ppl, ppl - base);
    }

    // Greedy continuations: quantization noise eventually diverges the
    // token stream; MX-OPAL tracks the teacher longer than MinMax.
    let prompt: Vec<u32> = stream[..8].to_vec();
    let continue_with = |m: &Model| -> Vec<u32> {
        let mut state = m.begin_decode();
        let mut logits = Vec::new();
        for &t in &prompt {
            logits = m.decode_step(&mut state, t);
        }
        let mut out = Vec::new();
        for _ in 0..12 {
            let t = opal_tensor::ops::argmax(&logits).unwrap_or(0) as u32;
            out.push(t);
            logits = m.decode_step(&mut state, t);
        }
        out
    };

    println!("\nprompt: {prompt:?}");
    println!("teacher   : {:?}", continue_with(&teacher));
    for scheme in [QuantScheme::mxopal_w4a47(), QuantScheme::minmax_w3a35()] {
        let name = scheme.name.clone();
        let m = Model::new(config.clone(), scheme, 1234)?;
        println!("{name:<10}: {:?}", continue_with(&m));
    }
    Ok(())
}
