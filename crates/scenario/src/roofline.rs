//! Roofline cross-validation: does the engine's measured per-step time
//! track the analytical workload model?
//!
//! The `opal-hw` crate predicts accelerator-side latency from first
//! principles ([`TokenWorkload`] operation counts priced by
//! `opal_hw::performance::workload_latency`). The serving engine, however,
//! runs on the *host* CPU — so a direct comparison of wall times against
//! the accelerator model would only measure how fast the host is. What
//! *can* be cross-validated is the shape: per-step host time must scale
//! with the step's MAC count the way the workload model says it does.
//!
//! [`calibrate`] therefore fits a two-point affine host model
//! `step_seconds ≈ fixed + macs × per_mac` from two controlled decode runs
//! (batch 1 and a full batch — same code path the replay exercises), and
//! [`RooflineCheck`] then asserts that every step of a *replayed trace* —
//! with its mixed prefill chunks, ragged contexts and preemption churn —
//! lands within a pinned multiplicative band of the prediction obtained by
//! feeding the realized schedule ([`ServeEngine::last_step_work`]) through
//! [`TokenWorkload::from_schedule`]. A scheduler that bills work it does
//! not perform (or performs work it does not bill) breaks the band.

use opal_hw::performance::{workload_latency, Platform};
use opal_hw::roofline::{GemmKernel, GpuModel};
use opal_hw::workload::{DataFormat, TokenWorkload};
use opal_model::{Model, ModelConfig};
use opal_serve::{ServeConfig, ServeEngine};

/// Default multiplicative tolerance of the cross-check: measured per-step
/// time must sit within `[predicted / 2, predicted × 2]`.
pub const DEFAULT_BAND: f64 = 2.0;

/// An affine host-time model fitted by [`calibrate`]:
/// `seconds(step) = fixed_s + macs × per_mac_s`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostCalibration {
    /// Per-step fixed cost (scheduler, sampling, dispatch), seconds.
    pub fixed_s: f64,
    /// Marginal seconds per MAC of batch arithmetic.
    pub per_mac_s: f64,
}

impl HostCalibration {
    /// Predicted wall seconds for a step performing `macs` MACs.
    pub fn predict_step_s(&self, macs: f64) -> f64 {
        self.fixed_s + macs * self.per_mac_s
    }

    /// The host's sustained MAC throughput implied by the fit.
    pub fn macs_per_s(&self) -> f64 {
        1.0 / self.per_mac_s
    }
}

/// MAC count of one step's realized schedule under the host datapath
/// (f32 compute, so the BF16 format's uniform MAC accounting applies).
pub(crate) fn schedule_macs(model: &ModelConfig, contexts: &[usize]) -> f64 {
    if contexts.is_empty() {
        return 0.0;
    }
    TokenWorkload::from_schedule(model, &DataFormat::bf16(), contexts).macs.total() as f64
}

/// Expands one step's realized schedule into per-forward-pass context
/// lengths on the *served* model: each granted prefill position, each
/// fused speculative-verify row (rows later rolled back still ran — their
/// arithmetic must be billed), plus the decode pass, per sequence.
pub(crate) fn step_contexts(work: &[opal_serve::SeqStepWork]) -> Vec<usize> {
    let mut contexts = Vec::new();
    for w in work {
        for i in 0..w.prefilled {
            contexts.push(w.prefill_start + i + 1);
        }
        for i in 0..w.verify_rows {
            contexts.push(w.verify_start + i + 1);
        }
        if let Some(ctx) = w.decode_context {
            contexts.push(ctx);
        }
    }
    contexts
}

/// Expands one step's draft-model rows (speculative catch-up and proposal
/// feeds) into context lengths. Priced separately from [`step_contexts`]
/// because the truncated draft runs fewer layers than the served model.
pub(crate) fn draft_contexts(work: &[opal_serve::SeqStepWork]) -> Vec<usize> {
    let mut contexts = Vec::new();
    for w in work {
        for i in 0..w.draft_rows {
            contexts.push(w.draft_start + i + 1);
        }
    }
    contexts
}

/// Fits a [`HostCalibration`] for `model` by timing two controlled decode
/// runs (single sequence, then a full batch of `config.max_batch`) under
/// the caller's threading configuration, and regressing median step time
/// on per-step MACs. Deterministic in schedule; wall times are whatever
/// the host delivers.
pub fn calibrate(model: &Model, config: &ServeConfig) -> HostCalibration {
    let batch = config.max_batch.clamp(2, 8);
    let (m1, t1) = measure_decode(model, config, 1);
    let (mb, tb) = measure_decode(model, config, batch);
    let slope = if mb > m1 { (tb - t1) / (mb - m1) } else { 0.0 };
    if slope > 0.0 && t1 - slope * m1 >= 0.0 {
        HostCalibration { fixed_s: t1 - slope * m1, per_mac_s: slope }
    } else {
        // Timer noise swamped the two-point fit (e.g. the batch run was
        // not measurably slower): fall back to a pure-throughput model
        // anchored on the batch run, which still prices big steps sanely.
        HostCalibration { fixed_s: 0.0, per_mac_s: tb / mb.max(1.0) }
    }
}

/// Times pure-decode steps at a fixed batch size; returns
/// `(mean step MACs, median step seconds)`.
fn measure_decode(model: &Model, config: &ServeConfig, batch: usize) -> (f64, f64) {
    let cfg = ServeConfig {
        max_batch: batch,
        max_tokens: 40,
        prefill_chunk: usize::MAX,
        max_queue: usize::MAX,
        max_blocks: usize::MAX,
        prefix_sharing: false,
        ..*config
    };
    let mut engine = ServeEngine::new(model, cfg);
    let vocab = model.config().vocab as u32;
    for i in 0..batch {
        let prompt: Vec<u32> = (0..8).map(|p| ((i * 131 + p * 17) as u32) % vocab).collect();
        // tidy: allow(panic) -- config above lifts every queue/block bound
        engine.submit_with_limit(&prompt, 40).expect("calibration submit");
    }
    let mut macs = Vec::new();
    let mut secs = Vec::new();
    while !engine.is_idle() {
        let t0 = opal_serve::clock::now();
        engine.step();
        let dt = t0.elapsed().as_secs_f64();
        let work = engine.last_step_work();
        // Keep only full-batch pure-decode steps: every sequence sampled,
        // none prefilled — the steady state the affine model describes.
        if work.len() == batch && work.iter().all(|w| w.prefilled == 0 && w.sampled) {
            macs.push(schedule_macs(model.config(), &step_contexts(work)));
            secs.push(dt);
        }
    }
    assert!(!secs.is_empty(), "calibration run produced no pure-decode steps");
    let mean_macs = macs.iter().sum::<f64>() / macs.len() as f64;
    secs.sort_by(f64::total_cmp);
    (mean_macs, secs[secs.len() / 2])
}

/// Lowest accepted ratio of [`HostCalibration::macs_per_s`] on the tiny
/// model to [`KernelRates::seed_macs_per_s`] at its width, asserted by
/// `scenario --smoke`. [`calibrate`] fits `per_mac_s` from the host run
/// itself, so a uniformly slow kernel only moves the fit and the band
/// still holds; this floor is the absolute anchor. Pinned between the two
/// sides measured when the 4-lane `ops::dot` was restored (2-core host,
/// twelve alternating runs, median round of nine per run): 0.89-1.11 with
/// the slow 8-wide body, 1.37-1.83 with the 4-lane kernel.
pub const MIN_ANCHOR_RATIO: f64 = 1.2;

/// Hot-loop MAC rates of the workspace's inner-product kernel and of the
/// seed decoder's, measured back to back in this process so their ratio
/// means the same on any host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelRates {
    /// Vector width measured.
    pub d: usize,
    /// `opal_tensor::ops::dot`, MACs per second.
    pub dot_macs_per_s: f64,
    /// The seed's sequential `.sum::<f64>()` inner product, MACs per second.
    pub seed_macs_per_s: f64,
}

/// The seed decoder's inner product: one latency-bound `f64` chain.
#[inline(never)]
fn seed_style_dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum::<f64>() as f32
}

/// Times `ops::dot` and the seed-style dot on two L1-resident width-`d`
/// vectors for about `budget_s` seconds in total. The two kernels
/// alternate in slices of ~64k MACs inside the timing loop: the host's
/// speed drifts 10-20% over seconds, and slices this short give both
/// kernels the same share of every fast and slow stretch.
pub fn kernel_rates(d: usize, budget_s: f64) -> KernelRates {
    use std::hint::black_box;
    let a: Vec<f32> = (0..d).map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.37).collect();
    let b: Vec<f32> = (0..d).map(|i| ((i * 53 % 23) as f32 - 11.0) * 0.19).collect();
    let reps = (65_536 / d.max(1)).max(1);
    let slice_s = |kernel: fn(&[f32], &[f32]) -> f32| {
        let t0 = opal_serve::clock::now();
        for _ in 0..reps {
            black_box(kernel(black_box(&a), black_box(&b)));
        }
        t0.elapsed().as_secs_f64()
    };
    let (mut dot_s, mut seed_s, mut slices) = (0.0f64, 0.0f64, 0u64);
    // The first pair of slices warms caches and is not counted.
    slice_s(opal_tensor::ops::dot);
    slice_s(seed_style_dot);
    while dot_s + seed_s < budget_s {
        dot_s += slice_s(opal_tensor::ops::dot);
        seed_s += slice_s(seed_style_dot);
        slices += 1;
    }
    let macs = (slices * reps as u64 * d as u64) as f64;
    KernelRates { d, dot_macs_per_s: macs / dot_s, seed_macs_per_s: macs / seed_s }
}

/// Outcome of the roofline cross-check over one replayed trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RooflineCheck {
    /// Engine steps compared.
    pub steps: usize,
    /// Total measured wall seconds across those steps.
    pub measured_s: f64,
    /// Total predicted seconds (calibrated host model over the realized
    /// schedule's MACs).
    pub predicted_s: f64,
    /// `measured_s / predicted_s`.
    pub aggregate_ratio: f64,
    /// Median over steps of the per-step measured/predicted ratio — the
    /// asserted statistic (robust to scheduler-noise spikes on single
    /// steps).
    pub median_step_ratio: f64,
    /// The pinned multiplicative band.
    pub band: f64,
    /// The same realized schedule priced on the OPAL reference platform
    /// (`opal_hw::performance::workload_latency`, W4A4.7 format) — the
    /// accelerator-side projection the host numbers cross-validate.
    pub opal_reference_s: f64,
    /// Informational GPU-side anchor: the trace's mean-batch decode step
    /// priced as its four projection GEMMs on an A100-class roofline.
    pub gpu_step_s: f64,
    /// The calibration used.
    pub calibration: HostCalibration,
}

impl RooflineCheck {
    /// Builds the check from per-step measurements of a replay.
    pub(crate) fn from_steps(
        calibration: HostCalibration,
        step_secs: &[f64],
        step_macs: &[f64],
        opal_reference_s: f64,
        gpu_step_s: f64,
        band: f64,
    ) -> Self {
        assert_eq!(step_secs.len(), step_macs.len());
        let measured_s: f64 = step_secs.iter().sum();
        let predicted: Vec<f64> =
            step_macs.iter().map(|&m| calibration.predict_step_s(m)).collect();
        let predicted_s: f64 = predicted.iter().sum();
        let mut ratios: Vec<f64> = step_secs
            .iter()
            .zip(&predicted)
            .filter(|&(_, &p)| p > 0.0)
            .map(|(&s, &p)| s / p)
            .collect();
        ratios.sort_by(f64::total_cmp);
        let median = if ratios.is_empty() { 1.0 } else { ratios[ratios.len() / 2] };
        RooflineCheck {
            steps: step_secs.len(),
            measured_s,
            predicted_s,
            aggregate_ratio: if predicted_s > 0.0 { measured_s / predicted_s } else { 1.0 },
            median_step_ratio: median,
            band,
            opal_reference_s,
            gpu_step_s,
            calibration,
        }
    }

    /// Whether the median per-step ratio sits within the pinned band.
    pub fn within_band(&self) -> bool {
        self.median_step_ratio >= 1.0 / self.band && self.median_step_ratio <= self.band
    }
}

/// Prices one decode step of `batch` sequences as its four projection
/// GEMMs (QKV, attention out, FFN up, FFN down) per layer on an A100-class
/// GPU with FP16 weights — the Fig. 1-style anchor reports carry for
/// context next to host and OPAL-platform numbers.
pub fn gpu_decode_step_s(model: &ModelConfig, batch: usize) -> f64 {
    if batch == 0 {
        return 0.0;
    }
    let gpu = GpuModel::a100();
    let d = model.d_model;
    let ff = model.d_ff;
    let per_layer = gpu.gemm_latency(batch, d, 3 * d, GemmKernel::Hgemm16)
        + gpu.gemm_latency(batch, d, d, GemmKernel::Hgemm16)
        + gpu.gemm_latency(batch, d, ff, GemmKernel::Hgemm16)
        + gpu.gemm_latency(batch, ff, d, GemmKernel::Hgemm16);
    per_layer * model.n_layers as f64
}

/// Prices an accumulated realized workload on the OPAL reference platform
/// in the paper's W4A4.7 deployment format.
pub fn opal_reference_s(workload: &TokenWorkload) -> f64 {
    workload_latency(workload, &DataFormat::opal_w4a47(), &Platform::reference()).total_s()
}

#[cfg(test)]
mod tests {
    use super::*;
    use opal_model::{ModelConfig, QuantScheme};

    #[test]
    fn step_contexts_expand_prefill_and_decode() {
        use opal_serve::SeqStepWork;
        let work = [
            SeqStepWork {
                prefill_start: 4,
                prefilled: 3,
                sampled: false,
                decode_context: None,
                ..Default::default()
            },
            SeqStepWork {
                prefill_start: 0,
                prefilled: 0,
                sampled: true,
                decode_context: Some(9),
                ..Default::default()
            },
        ];
        assert_eq!(step_contexts(&work), vec![5, 6, 7, 9]);
        assert!(draft_contexts(&work).is_empty());
    }

    #[test]
    fn step_contexts_bill_verify_and_draft_rows() {
        use opal_serve::SeqStepWork;
        let work = [SeqStepWork {
            sampled: true,
            drafted: 3,
            accepted: 2,
            verify_start: 10,
            verify_rows: 4,
            draft_start: 8,
            draft_rows: 5,
            ..Default::default()
        }];
        // Verify rows are billed on the served model even though two of the
        // four were rolled back.
        assert_eq!(step_contexts(&work), vec![11, 12, 13, 14]);
        assert_eq!(draft_contexts(&work), vec![9, 10, 11, 12, 13]);
    }

    #[test]
    fn calibration_predicts_more_time_for_more_macs() {
        let model = Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 3).unwrap();
        let cal = calibrate(&model, &ServeConfig::default());
        assert!(cal.per_mac_s > 0.0, "slope must be positive: {cal:?}");
        assert!(cal.fixed_s >= 0.0);
        assert!(cal.predict_step_s(2e6) > cal.predict_step_s(1e6));
    }

    #[test]
    fn kernel_rates_time_both_kernels() {
        let r = kernel_rates(64, 0.005);
        assert_eq!(r.d, 64);
        assert!(r.dot_macs_per_s.is_finite() && r.dot_macs_per_s > 0.0, "{r:?}");
        assert!(r.seed_macs_per_s.is_finite() && r.seed_macs_per_s > 0.0, "{r:?}");
        assert_eq!(seed_style_dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn gpu_anchor_scales_with_model() {
        let tiny = gpu_decode_step_s(&ModelConfig::tiny(), 1);
        let big = gpu_decode_step_s(&ModelConfig::llama2_7b(), 1);
        assert!(big > tiny);
        assert_eq!(gpu_decode_step_s(&ModelConfig::tiny(), 0), 0.0);
    }
}
