//! The paper's claims, one test each.
//!
//! # What stands in for the paper's models and data
//!
//! No Llama2 or OPT checkpoint, WikiText-2, C4, ARC or PIQA is available
//! offline, so the accuracy claims run on stand-ins:
//! - the models are synthetic decoders (`ModelConfig::llama2_7b().proxy(..)`
//!   and kin, a few hundred channels wide) whose weights lift a fixed ~1 %
//!   of hidden channels tens of times above the rest in every block: the
//!   channel-persistent outliers the paper quantizes around
//!   (`opal_model::weights`);
//! - perplexity is teacher-student: the BF16 model samples a token stream
//!   and each quantized copy is scored on it. The tests read a scheme's cost
//!   as the teacher's perplexity times `e^KL − 1`, KL being the mean
//!   `KL(teacher ‖ student)` over the stream (`Stream::cost`). That is what
//!   the gap of the sampled perplexities estimates, without its sampling
//!   noise, which on a ~100-token stream exceeds the W4A4/7 cost itself;
//! - zero-shot accuracy is agreement with the teacher on batteries of
//!   close-margin next-token questions (`opal_model::eval::multiple_choice`).
//!
//! Random weights give perplexities near 20 and costs of other sizes than
//! the paper's. Where a magnitude does not carry over, the test asserts the
//! paper's ordering and its doc comment says so.
//!
//! # Index
//!
//! Every reference point of the paper the repo reproduces, and where it is
//! asserted. The measured values in parentheses are from a release build
//! on x86-64.
//! - Abstract: 1.6× / 2.2× energy efficiency and 2.4× / 3.1× area:
//!   `tests/hardware_consistency.rs::abstract_headline_numbers`.
//! - Fig. 1, W4A8 (iGEMM) 2.1× / 2.0× / 4.0× for Llama2-7B / 13B / 70B:
//!   `fig1_w4a8_speedup_per_model` (1.94× / 1.97× / 3.96×). W4A16 70B 2.0×
//!   and the growth with model size: `crates/hw/src/roofline.rs`
//!   `fig1_shape_for_70b`, `fig1_speedups_grow_with_model_size`; iGEMM on
//!   top of the W4 saving: `igemm_always_at_least_matches_hgemm_w4`.
//!   Not reproduced: W4A16 per model reads 1.26× / 1.27× / 2.50× against
//!   1.0× / 1.5× / 2.0×. The roofline's tile-count utilization gives 7B and
//!   13B the same W4-to-FP16 tile ratio (1 : 2), so no calibration of it
//!   separates them.
//! - Fig. 3, MXINT2 flushes the block's small values, MX-OPAL2 keeps them:
//!   `fig3_mxopal2_keeps_small_values`. Not reproduced: "MinMax2 sits in
//!   between". Its MSE is the largest (8.87 against MXINT2's 1.17 and
//!   MX-OPAL2's 0.31), because its FP zero point puts the 127 small values
//!   on the block minimum (−2.81), not on zero.
//! - Fig. 4, MXINT's error 3.79× MinMax's at b = 8, and n = 4 reaching
//!   MinMax parity: `fig4_relative_error_to_minmax` (3.51×; 1.13 and 0.85
//!   at n = 4). Not reproduced: 8.21× at b = 4 reads 2.08× (1.84–2.25× over
//!   outlier gains 40 / 60 / 80, four weight seeds and layers 1 and 3). Between
//!   their outliers the proxy's blocks are near-Gaussian, where MXINT's
//!   power-of-two step (`max/8` to `max/4` at b = 4) is at most ~2× MinMax's
//!   `range/15`. On `fc1`, whose outliers are the strongest, both formats
//!   flush every small value at b = 4 and MXINT even beats MinMax (0.35×):
//!   MinMax moves the flushed values to its zero point, MXINT keeps them at
//!   zero. The test asserts b = 4's ordering only.
//! - Eq. (1), OMEM(128, n, b) = 1.004 / 1.012 / 1.027 / 1.058 at b = 8 and
//!   the b = 4 row: `crates/quant/src/overhead.rs` `matches_paper_b8_table`,
//!   `b4_table_close_to_paper_within_its_own_inconsistency`.
//! - Fig. 8, energy savings 32.5 % (OWQ vs BF16), 38.6 % / 58.6 % (OPAL-4/7
//!   vs OWQ / BF16), 53.5 % / 68.6 % (OPAL-3/5): `crates/hw/src/accelerator.rs`
//!   `fig8_savings_match_paper_bands` (33.3 / 39.3 / 59.5 / 50.9 / 67.2 %);
//!   area 2.4–3.1×: `area_ratios_match_abstract`; 96.9 % of operations on
//!   INT hardware: `int_fraction_claim` and `crates/hw/src/workload.rs`
//!   `int_fraction_matches_paper_claim` (96.6 %).
//! - Table 1, perplexity costs over BF16 (+0.435 MX-OPAL vs +1.083 MinMax
//!   at W4A4/7, OWQ W4 under +0.6, W4A4/7 within ~0.5 of W4A16, the W3A3/5
//!   MinMax collapse): `table1_perplexity_costs` (+0.243 vs +1.561 on
//!   average), the averages as an ordering. The sampled perplexities had
//!   MX-OPAL W4A4/7 at −0.050, below BF16: sampling noise, since four
//!   streams per proxy spread its sampled gap over about ±0.25 around the
//!   KL form's value. Table 1's orderings on one smaller proxy:
//!   `crates/model/tests/ordering.rs`; cost growing with aggressiveness:
//!   `tests/end_to_end.rs::perplexity_orders_with_aggressiveness`.
//! - Table 2, MX-OPAL's perplexity cost over OWQ weight-only, +0.241 at
//!   W4A4/7 and +0.601 at W3A3/5: `table2_activation_cost_over_weight_only`,
//!   ordering only. Not reproduced: the accuracy costs, −0.36 % and −1.65 %.
//!   With 1024 questions per model and scheme (four batteries of 256) they
//!   read −0.68 % and −0.78 %: the paper's order, but 0.1 points apart with
//!   a paired standard error near 0.4 points. The 64-question batteries
//!   read −1.30 % and −1.04 %. No battery that fits a test resolves a
//!   1.3-point difference on the proxies; the MC proxy's own ordering is
//!   `tests/end_to_end.rs::multiple_choice_accuracy_orders_with_precision`.
//! - Table 3, the per-component area and power of the W4A4/7 core:
//!   `table3_core_breakdown`; totals and shares: `crates/hw/src/core.rs`
//!   `table3_totals_match_paper`, `table3_fractions_match_paper`; 256 / 512 /
//!   1024 MACs per cycle by mode: `throughput_matches_section_5_2`.
//! - §4.1, low bits after LayerNorm, high bits elsewhere:
//!   `mixed_precision_placement` (A4/7 +0.153 against A7/4 +0.364; A3/5
//!   +0.256 against A5/3 +0.738). The sampled perplexities had A5/3 at
//!   −0.041, below A3/5's +0.111: that was sampling noise; the KL form
//!   orders all four Table 1 proxies on three streams each.
//! - §4.2, the log2 softmax costs under 0.4 PPL: `log2_softmax_ppl_cost`
//!   (+0.051 / +0.057 / +0.036 with BF16 / W4A4/7 / W3A3/5).
//!   §4.3.3, its unit saves 32.3 % area and 35.7 % power:
//!   `crates/hw/src/units.rs` `softmax_unit_savings_match_paper`; 1.56×
//!   power efficiency: `crates/hw/src/tech.rs`
//!   `softmax_power_ratio_matches_paper`.
//! - §5.2, 1.98 s a token for Llama2-70B on OPAL: `crates/hw/src/performance.rs`
//!   `llama70b_latency_near_paper_anchor` (2.058 s).
//! - With no number of the paper to compare, so not asserted here: sweeps
//!   of n and k beyond Fig. 4 and Eq. (1), the W3A3/5 core's size (`core.rs`
//!   `w3a35_core_is_smaller`), and the context and bandwidth sweeps of the
//!   energy and latency models.
//!
//! The tests that evaluate perplexity are ignored in debug builds; run
//! them with `cargo test --release --test paper_claims`.

use opal_hw::core::OpalCore;
use opal_hw::roofline::GpuModel;
use opal_hw::units::MuConfig;
use opal_model::{eval, ActivationCapture, Model, ModelConfig, QuantScheme, Site};
use opal_quant::analysis::{average_rows, relative_mse_row};
use opal_quant::{MinMaxQuantizer, MxIntQuantizer, MxOpalQuantizer, Quantizer};
use opal_softmax::metrics::kl_divergence;
use opal_tensor::ops;
use opal_tensor::stats::mse;

/// A teacher-sampled evaluation stream with the teacher's next-token
/// distributions along it.
struct Stream {
    tokens: Vec<u32>,
    teacher: Vec<Vec<f32>>,
    teacher_ppl: f64,
}

impl Stream {
    fn new(teacher: &Model, len: usize, seed: u64) -> Self {
        let tokens = eval::sample_stream(teacher, len, seed);
        let teacher_ppl = eval::perplexity(teacher, &tokens);
        Stream { teacher: next_token_probs(teacher, &tokens), tokens, teacher_ppl }
    }

    /// Perplexity `model` adds over the teacher: the teacher's perplexity
    /// times `e^KL − 1`, KL being the mean `KL(teacher ‖ model)` in nats.
    fn cost(&self, model: &Model) -> f64 {
        let q = next_token_probs(model, &self.tokens);
        let kl = self.teacher.iter().zip(&q).map(|(p, q)| kl_divergence(p, q)).sum::<f64>()
            / q.len() as f64;
        self.teacher_ppl * kl.exp_m1()
    }
}

fn next_token_probs(model: &Model, tokens: &[u32]) -> Vec<Vec<f32>> {
    let logits = model.forward(tokens);
    (0..tokens.len() - 1)
        .map(|i| {
            let mut p = vec![0.0; logits.cols()];
            ops::softmax_into(logits.row(i), &mut p);
            p
        })
        .collect()
}

fn build(config: &ModelConfig, scheme: QuantScheme, seed: u64) -> Model {
    Model::new(config.clone(), scheme, seed).expect("valid scheme")
}

/// Fig. 1 (W4A8 column): a single-batch `mlp.0` GEMM with INT4 weights
/// and INT8 activations on a GPU roofline. Band ±15 %: one efficiency of
/// the roofline is calibrated to the 70B bar; 7B and 13B follow from the
/// tile-count utilization alone.
#[test]
fn fig1_w4a8_speedup_per_model() {
    let gpu = GpuModel::a100();
    for (config, paper) in [
        (ModelConfig::llama2_7b(), 2.1),
        (ModelConfig::llama2_13b(), 2.0),
        (ModelConfig::llama2_70b(), 4.0),
    ] {
        let lat = gpu.fig1_latencies(&config, 1);
        let speedup = lat[0].1 / lat[2].1;
        assert!(
            (speedup / paper - 1.0).abs() < 0.15,
            "{} W4A8 speedup {speedup:.2}x (paper {paper}x)",
            config.name
        );
    }
}

/// Fig. 3: on an attention-input block with one strong outlier, 2-bit
/// MXINT flushes every small value to zero, while MX-OPAL2 takes its scale
/// from the second-largest exponent and keeps a share of them, on more
/// levels and with less error. The bounds on the kept values (at most 2 and
/// at least 28 of 128) leave a margin around the measured 0 and 36.
#[test]
fn fig3_mxopal2_keeps_small_values() {
    let config = ModelConfig::llama2_7b().proxy(128, 4, 192);
    let model = build(&config, QuantScheme::bf16(), 7);
    let mut cap = ActivationCapture::new(1, 4);
    let tokens: Vec<u32> = (0..16u32).map(|i| (i * 37) % 192).collect();
    model.forward_recorded(&tokens, &mut cap);
    let acts = cap.activations(Site::QkvInput).expect("captured attention input");
    let x = &acts.row(3)[..128];
    let peak = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));

    // (MSE, distinct levels, small values reconstructed non-zero)
    let run = |q: &dyn Quantizer| {
        let y = q.quantize_dequantize(x);
        let mut levels: Vec<u32> = y.iter().map(|v| v.to_bits()).collect();
        levels.sort_unstable();
        levels.dedup();
        let kept = x.iter().zip(&y).filter(|(&v, &r)| v.abs() < 0.1 * peak && r != 0.0).count();
        (mse(x, &y), levels.len(), kept)
    };
    let mxint = run(&MxIntQuantizer::new(2, 128).expect("valid"));
    let opal = run(&MxOpalQuantizer::new(2, 128, 1).expect("valid"));
    let minmax = run(&MinMaxQuantizer::new(2, 128).expect("valid"));

    assert!(mxint.2 <= 2, "MXINT2 keeps {} of 128 small values (paper: ~none)", mxint.2);
    assert!(opal.2 >= 28, "MX-OPAL2 keeps {} of 128 small values (paper: most)", opal.2);
    assert!(opal.1 > mxint.1, "levels: MX-OPAL2 {} vs MXINT2 {}", opal.1, mxint.1);
    assert!(opal.0 < mxint.0, "MSE: MX-OPAL2 {} vs MXINT2 {}", opal.0, mxint.0);
    assert!(opal.0 < minmax.0, "MSE: MX-OPAL2 {} vs MinMax2 {}", opal.0, minmax.0);
}

/// Fig. 4: the MSE of MXINT and MX-OPAL (n = 1, 2, 4, 8), relative to
/// MinMax, averaged over the six MxV inputs of a late decoder block. The
/// b = 8 band is ±25 %: single captures read 3.10–4.23× over weight seeds,
/// layers and outlier gains. At b = 4 the proxy reads 2.08× against the
/// paper's 8.21× (see the index), so only the ordering is asserted. The
/// parity band for n = 4 is ±25 % as well.
#[test]
fn fig4_relative_error_to_minmax() {
    // The paper probes block 20 of Llama2-7B's 32, where outliers are the
    // strongest; the 5-layer proxy probes layer 3 with its gain raised.
    let mut config = ModelConfig::llama2_7b().proxy(160, 5, 192);
    config.outlier_gain = 80.0;
    let model = build(&config, QuantScheme::bf16(), 20);
    let mut cap = ActivationCapture::new(3, 24);
    let tokens: Vec<u32> = (0..24u32).map(|i| (i * 61 + 5) % 192).collect();
    model.forward_recorded(&tokens, &mut cap);

    for (bits, paper) in [(8u32, 3.79), (4, 8.21)] {
        let rows: Vec<_> = Site::fig4_sites()
            .into_iter()
            .map(|(site, label)| {
                let x = cap.activations(site).expect("captured");
                relative_mse_row(label, x.as_slice(), bits, 128, &[1, 2, 4, 8]).expect("valid")
            })
            .collect();
        let (mxint, opal) = average_rows(&rows);
        if bits == 8 {
            assert!((mxint / paper - 1.0).abs() < 0.25, "b=8 MXINT {mxint:.2}x (paper {paper}x)");
        } else {
            assert!(mxint > 1.0 && mxint > opal[2], "b=4 MXINT {mxint:.2}x (paper {paper}x)");
        }
        assert!((opal[2] - 1.0).abs() < 0.25, "b={bits} n=4 at {:.2}x MinMax (paper ~1)", opal[2]);
        assert!(opal.windows(2).all(|w| w[1] < w[0]), "b={bits} error falls with n: {opal:?}");
    }
}

/// Table 3: the W4A4/7 core's components in the paper's order, with the
/// paper's area and power each. The hardware model is calibrated to this
/// table, so the band is 0.01 %.
#[test]
fn table3_core_breakdown() {
    let paper = [
        ("Compute Lanes", 670_126.34, 229.65),
        ("Data distributors", 139_713.48, 63.20),
        ("Log2-based Softmax Unit", 76_330.92, 27.62),
        ("MX-OPAL Quantizer", 34_670.88, 14.11),
        ("FP Adder Tree", 8_470.80, 1.28),
    ];
    let rows = OpalCore::new(MuConfig::w4a47()).breakdown();
    assert_eq!(rows.len(), paper.len());
    for (row, (name, area, power)) in rows.iter().zip(paper) {
        assert_eq!(row.component, name);
        let (a, p) = (row.area_um2, row.power_mw);
        assert!((a / area - 1.0).abs() < 1e-4, "{name}: {a} µm² (paper {area})");
        assert!((p / power - 1.0).abs() < 1e-4, "{name}: {p} mW (paper {power})");
    }
}

/// Table 1: perplexity costs over BF16 on four model families. The
/// proxies' costs differ in size from the paper's (W4A4/7 averages +0.243
/// for MX-OPAL against +0.435, +1.561 for MinMax against +1.083), so the
/// averages are asserted as an ordering; the per-model rows carry the
/// paper's absolute bounds where it states one.
#[test]
#[cfg_attr(debug_assertions, ignore = "~2 min in a debug build; runs in release")]
fn table1_perplexity_costs() {
    let families = [
        ModelConfig::llama2_7b().proxy(128, 4, 192),
        ModelConfig::llama2_13b().proxy(160, 5, 192),
        ModelConfig::opt_6_7b().proxy(128, 4, 192),
        ModelConfig::opt_13b().proxy(160, 5, 192),
    ];
    let (mut opal47, mut minmax47) = (0.0, 0.0);
    for config in &families {
        let teacher = build(config, QuantScheme::bf16(), 42);
        let stream = Stream::new(&teacher, 112, 1000 + config.d_model as u64);
        let cost = |scheme: QuantScheme| stream.cost(&build(config, scheme, 42));
        let w4 = cost(QuantScheme::owq_w4a16());
        let mm47 = cost(QuantScheme::minmax_w4a47());
        let op47 = cost(QuantScheme::mxopal_w4a47());
        let mm35 = cost(QuantScheme::minmax_w3a35());
        let op35 = cost(QuantScheme::mxopal_w3a35());
        let name = &config.name;
        assert!(w4 < 0.6, "{name}: OWQ W4A16 costs {w4:.3} (paper: under +0.6)");
        assert!((op47 - w4).abs() < 0.5, "{name}: W4A4/7 {op47:.3} vs W4A16 {w4:.3} (paper ~0.5)");
        assert!(op47 < mm47, "{name}: W4A4/7 MX-OPAL {op47:.3} vs MinMax {mm47:.3}");
        // Paper: MinMax W3A3/5 collapses (32.7 vs 7.4 PPL on Llama2-7B).
        let worst_other = w4.max(mm47).max(op47).max(op35);
        assert!(mm35 > worst_other, "{name}: MinMax W3A3/5 {mm35:.3} vs at most {worst_other:.3}");
        opal47 += op47 / families.len() as f64;
        minmax47 += mm47 / families.len() as f64;
    }
    assert!(
        opal47 < minmax47,
        "average W4A4/7 cost: MX-OPAL {opal47:.3} vs MinMax {minmax47:.3} (paper +0.435 vs +1.083)"
    );
}

/// Table 2: what MX-OPAL activations add to OWQ weight-only models, on the
/// Llama2 family and two streams. The proxies read +0.019 and +0.157
/// against the paper's +0.241 and +0.601, so the ordering is asserted.
#[test]
#[cfg_attr(debug_assertions, ignore = "~3 min in a debug build; runs in release")]
fn table2_activation_cost_over_weight_only() {
    let family = [
        ModelConfig::llama2_7b().proxy(128, 4, 192),
        ModelConfig::llama2_13b().proxy(160, 5, 192),
        ModelConfig::llama2_70b().proxy(192, 6, 192),
    ];
    let (mut cost47, mut cost35) = (0.0, 0.0);
    for config in &family {
        let teacher = build(config, QuantScheme::bf16(), 42);
        let models = [
            QuantScheme::owq_w4a16(),
            QuantScheme::mxopal_w4a47(),
            QuantScheme::owq_w3a16(),
            QuantScheme::mxopal_w3a35(),
        ]
        .map(|scheme| build(config, scheme, 42));
        // "Wiki" and "C4": two disjoint teacher streams.
        for seed in [11, 22] {
            let stream = Stream::new(&teacher, 104, seed);
            let [w4, a47, w3, a35] = models.each_ref().map(|m| stream.cost(m));
            cost47 += (a47 - w4) / 6.0;
            cost35 += (a35 - w3) / 6.0;
        }
    }
    assert!(
        0.0 < cost47 && cost47 < cost35,
        "activation cost W4A4/7 {cost47:.3} vs W3A3/5 {cost35:.3} (paper +0.241 vs +0.601)"
    );
}

/// §4.1: low bits go to the post-LayerNorm activations, whose range is
/// bounded, and high bits elsewhere. Swapping the two widths must cost
/// more at both operating points (the paper gives no number).
#[test]
#[cfg_attr(debug_assertions, ignore = "~17 s in a debug build; runs in release")]
fn mixed_precision_placement() {
    let config = ModelConfig::llama2_7b().proxy(128, 4, 192);
    let teacher = build(&config, QuantScheme::bf16(), 42);
    let stream = Stream::new(&teacher, 112, 51);
    let cost = |low: u32, high: u32| {
        let mut scheme = QuantScheme::mxopal_w4a47();
        let acts = scheme.acts.as_mut().expect("MX-OPAL activations");
        (acts.low_bits, acts.high_bits) = (low, high);
        stream.cost(&build(&config, scheme, 42))
    };
    for (low, high) in [(4, 7), (3, 5)] {
        let (paper, inverted) = (cost(low, high), cost(high, low));
        assert!(paper < inverted, "A{low}/{high} costs {paper:.3}, inverted {inverted:.3}");
    }
}

/// §4.2: the log2-based softmax adds under 0.4 PPL on top of the exact
/// softmax, with BF16, W4A4/7 and W3A3/5 elsewhere.
#[test]
#[cfg_attr(debug_assertions, ignore = "~18 s in a debug build; runs in release")]
fn log2_softmax_ppl_cost() {
    let config = ModelConfig::llama2_7b().proxy(128, 4, 192);
    let teacher = build(&config, QuantScheme::bf16(), 42);
    let stream = Stream::new(&teacher, 112, 31);
    for base in [QuantScheme::bf16(), QuantScheme::mxopal_w4a47(), QuantScheme::mxopal_w3a35()] {
        let name = base.name.clone();
        let exact = stream.cost(&build(&config, base.clone(), 42));
        let added = stream.cost(&build(&config, base.with_log2_softmax(5), 42)) - exact;
        assert!(added < 0.4, "{name}: log2 softmax adds {added:.3} PPL (paper: < 0.4)");
    }
}
