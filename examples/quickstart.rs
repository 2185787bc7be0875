//! Quickstart: build an OPAL pipeline, score its accuracy against the BF16
//! teacher, and report the hardware savings.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use opal::{ModelConfig, OpalPipeline, OperatingPoint, QuantError};

fn main() -> Result<(), QuantError> {
    // A runnable proxy of Llama2-7B (same architecture family and outlier
    // statistics at a laptop-friendly width; see tests/paper_claims.rs).
    let config = ModelConfig::llama2_7b().proxy(96, 3, 128);
    println!("model: {} (d={}, {} layers)", config.name, config.d_model, config.n_layers);

    for point in [OperatingPoint::W4A47, OperatingPoint::W3A35] {
        let pipeline = OpalPipeline::new(config.clone(), point, 42)?;
        let report = pipeline.evaluate(96, 7);
        println!("\n== {:?} ==", point);
        println!("  baseline PPL : {:.3}", report.baseline_ppl);
        println!("  quantized PPL: {:.3} (+{:.3})", report.quantized_ppl, report.ppl_increase());
        println!("  INT op share : {:.1}%", 100.0 * report.int_fraction);
        println!(
            "  energy/token : {:.3} J (BF16 accel: {:.3} J, saving {:.1}%)",
            report.energy.total_j(),
            report.baseline_energy.total_j(),
            100.0 * report.energy_saving()
        );
        println!("  chip area    : {:.2} mm²", report.area.total_mm2());
    }

    Ok(())
}
