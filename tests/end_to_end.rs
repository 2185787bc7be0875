//! Workspace-level integration test: the complete OPAL flow from model
//! construction through quantized inference to hardware mapping.

use opal::prelude::*;
use opal::OperatingPoint;

fn proxy() -> ModelConfig {
    ModelConfig::llama2_7b().proxy(96, 3, 128)
}

#[test]
fn full_pipeline_accuracy_and_hardware() {
    let pipeline =
        OpalPipeline::new(proxy(), OperatingPoint::W4A47, 2024).expect("valid operating point");
    let report = pipeline.evaluate(80, 5);

    // Accuracy side: quantization hurts a little, never catastrophically
    // (the paper's "<1 PPL increase" headline, scaled to proxy entropy).
    assert!(report.baseline_ppl > 2.0, "teacher must be non-trivial");
    assert!(
        report.quantized_ppl < report.baseline_ppl * 1.5,
        "OPAL W4A4/7 PPL {} vs baseline {}",
        report.quantized_ppl,
        report.baseline_ppl
    );

    // Hardware side: the headline abstract numbers.
    let saving = report.energy_saving();
    assert!(
        (0.45..0.75).contains(&saving),
        "energy saving vs BF16 {saving} (paper 1.6–2.2x better efficiency)"
    );
    assert!(report.int_fraction > 0.95, "INT share {}", report.int_fraction);
}

#[test]
fn generation_under_all_operating_points_stays_finite() {
    for point in [OperatingPoint::W4A47, OperatingPoint::W3A35] {
        let p = OpalPipeline::new(proxy(), point, 7).expect("valid");
        let out = p.generate(&[3, 14, 15], 20);
        assert_eq!(out.len(), 20);
        assert!(out.iter().all(|&t| (t as usize) < p.config().vocab));
    }
}

#[test]
fn perplexity_orders_with_aggressiveness() {
    let config = proxy();
    let teacher = Model::new(config.clone(), QuantScheme::bf16(), 31).expect("valid");
    let stream = eval::sample_stream(&teacher, 64, 8);

    let ppl = |scheme: QuantScheme| {
        let m = Model::new(config.clone(), scheme, 31).expect("valid");
        eval::perplexity(&m, &stream)
    };

    let p16 = ppl(QuantScheme::owq_w4a16());
    let p47 = ppl(QuantScheme::mxopal_w4a47());
    let p35 = ppl(QuantScheme::mxopal_w3a35());
    // Monotone degradation with aggressiveness (generous slack for noise).
    assert!(p47 < p35 * 1.25, "w4a47 {p47} vs w3a35 {p35}");
    assert!(p16 < p35 * 1.25, "w4a16 {p16} vs w3a35 {p35}");
}

#[test]
fn multiple_choice_accuracy_orders_with_precision() {
    let config = proxy();
    let teacher = Model::new(config.clone(), QuantScheme::bf16(), 55).expect("valid");
    let strong = Model::new(config.clone(), QuantScheme::mxopal_w4a47(), 55).expect("valid");
    let weak = Model::new(config.clone(), QuantScheme::minmax_w3a35(), 55).expect("valid");

    let acc = eval::multiple_choice(&teacher, &[&teacher, &strong, &weak], 16, 3);
    let [acc_teacher, acc_strong, acc_weak] = [0, 1, 2].map(|i| acc[i].accuracy);

    assert!(acc_teacher >= 0.9);
    assert!(acc_strong >= acc_weak - 0.13, "strong {acc_strong} vs weak {acc_weak}");
}
