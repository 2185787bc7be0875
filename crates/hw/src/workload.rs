//! Per-token workload extraction: operation counts and data volumes for one
//! generated token of a decoder-only LLM.
//!
//! This is the bridge between the model architecture (`opal-model`) and the
//! accelerator energy model: for each decoder block it counts MACs by INT-MU
//! mode (Fig. 5's low/high placement), the FP MACs forced by preserved
//! outliers, softmax and quantizer traffic, and the weight/KV byte volumes.

use opal_model::{Arch, ModelConfig};

/// Numeric format summary of an accelerator datapath, independent of the
/// algorithmic details in `opal-model`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DataFormat {
    /// Effective stored bits per weight (including outlier/scale overhead);
    /// 16 for bfloat16.
    pub weight_bits: f64,
    /// Effective stored bits per low (post-LN) activation element.
    pub act_low_bits: f64,
    /// Effective stored bits per high activation / KV-cache element.
    pub act_high_bits: f64,
    /// Whether matrix math runs on INT MUs (`true`) or BF16 FP units.
    pub integer_compute: bool,
    /// Fraction of activation elements handled by FP units (preserved
    /// outliers), e.g. 4/128.
    pub act_outlier_fraction: f64,
    /// Fraction of weight input channels kept in BF16 (OWQ outliers).
    pub weight_outlier_fraction: f64,
    /// Whether the log2 softmax unit is used (`false` = conventional FP).
    pub log2_softmax: bool,
    /// Effective stored bits per KV-cache element. Tracks
    /// `act_high_bits` by default (the cache holds high-activation rows);
    /// a quantized KV scheme (`opal-model`'s `KvScheme`) overrides it with
    /// the scheme's packed-page bits so predicted KV traffic reflects the
    /// compressed pages.
    pub kv_bits: f64,
}

impl DataFormat {
    /// The bfloat16 baseline accelerator format.
    pub fn bf16() -> Self {
        DataFormat {
            weight_bits: 16.0,
            act_low_bits: 16.0,
            act_high_bits: 16.0,
            integer_compute: false,
            act_outlier_fraction: 0.0,
            weight_outlier_fraction: 0.0,
            log2_softmax: false,
            kv_bits: 16.0,
        }
    }

    /// OWQ weight-only quantization: 4-bit weights (0.25 % BF16 channels),
    /// BF16 activations and compute.
    pub fn owq_w4() -> Self {
        DataFormat {
            weight_bits: effective_weight_bits(4, 0.0025),
            act_low_bits: 16.0,
            act_high_bits: 16.0,
            integer_compute: false,
            act_outlier_fraction: 0.0,
            weight_outlier_fraction: 0.0025,
            log2_softmax: false,
            kv_bits: 16.0,
        }
    }

    /// The OPAL W4A4/7 operating point (MX-OPAL activations, k=128, n=4).
    pub fn opal_w4a47() -> Self {
        DataFormat {
            weight_bits: effective_weight_bits(4, 0.0025),
            act_low_bits: effective_act_bits(4),
            act_high_bits: effective_act_bits(7),
            integer_compute: true,
            act_outlier_fraction: 4.0 / 128.0,
            weight_outlier_fraction: 0.0025,
            log2_softmax: true,
            kv_bits: effective_act_bits(7),
        }
    }

    /// The OPAL W3A3/5 operating point.
    pub fn opal_w3a35() -> Self {
        DataFormat {
            weight_bits: effective_weight_bits(3, 0.0033),
            act_low_bits: effective_act_bits(3),
            act_high_bits: effective_act_bits(5),
            integer_compute: true,
            act_outlier_fraction: 4.0 / 128.0,
            weight_outlier_fraction: 0.0033,
            log2_softmax: true,
            kv_bits: effective_act_bits(5),
        }
    }
}

/// Effective stored bits per weight for OWQ: `bits` for non-outlier
/// channels, bf16 for the outlier fraction, plus per-group scale overhead.
pub fn effective_weight_bits(bits: u32, outlier_fraction: f64) -> f64 {
    f64::from(bits) * (1.0 - outlier_fraction) + 16.0 * outlier_fraction + 0.07
}

/// Effective stored bits per activation element in MX-OPAL(k=128, n=4),
/// using the exact packed-format accounting of
/// `opal_quant::MxOpalTensor::storage_bits`: `(k−n)` integer elements, `n`
/// bfloat16 outliers with 7-bit indices, and a 4-bit scale offset per
/// block. (Eq. (1) of the paper books the index bits away; we store them.)
pub fn effective_act_bits(bits: u32) -> f64 {
    const K: f64 = 128.0;
    const N: f64 = 4.0;
    ((K - N) * f64::from(bits) + N * (16.0 + 7.0) + 4.0) / K
}

/// MAC counts for one decoder block, bucketed by INT-MU mode.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MacCounts {
    /// Low-bit activation × low-bit weight (QKV, FC1/gate).
    pub low_low: u64,
    /// High-bit activation × low-bit weight (projection, FC2).
    pub low_high: u64,
    /// High × high (`Q·Kᵀ`).
    pub high_high: u64,
    /// `Attn·V` shift-accumulate steps (log2 softmax) — counted separately
    /// because they need no multiplier.
    pub shift_acc: u64,
    /// MACs routed to FP units (outlier channels / BF16 datapath).
    pub fp: u64,
}

impl MacCounts {
    /// Total MAC-equivalent operations.
    pub fn total(&self) -> u64 {
        self.low_low + self.low_high + self.high_high + self.shift_acc + self.fp
    }

    /// Fraction of operations executed on INT hardware (the paper's §6
    /// claim: 96.9 % for W4A4/7).
    pub fn int_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 1.0;
        }
        (t - self.fp) as f64 / t as f64
    }
}

/// The complete per-token workload of a model under a [`DataFormat`].
#[derive(Clone, Debug, PartialEq)]
pub struct TokenWorkload {
    /// MAC counts summed over all decoder blocks.
    pub macs: MacCounts,
    /// Attention scores passing through the softmax unit.
    pub softmax_elems: u64,
    /// Elements passing through the output quantizer.
    pub quantized_elems: u64,
    /// Elements routed by the data distributors.
    pub routed_elems: u64,
    /// Weight bytes streamed per token (the whole decoder stack).
    pub weight_bytes: f64,
    /// Weight elements streamed (`decoder_params()` per weight stream); an
    /// OWQ datapath dequantizes each one on its way in.
    pub weight_elems: u64,
    /// KV-cache bytes read + appended for this token.
    pub kv_bytes: f64,
    /// Intermediate activation bytes staged through the activation buffer.
    pub act_bytes: f64,
}

impl TokenWorkload {
    /// Computes the workload of generating one token at context length
    /// `seq_len` for `model` under `format`.
    ///
    /// # Panics
    ///
    /// Panics if `seq_len == 0`.
    pub fn new(model: &ModelConfig, format: &DataFormat, seq_len: usize) -> Self {
        assert!(seq_len > 0, "context length must be positive");
        let d = model.d_model as u64;
        let ff = model.d_ff as u64;
        let layers = model.n_layers as u64;
        let s = seq_len as u64;

        // Per layer, per token (matrix–vector):
        let qkv = 3 * d * d;
        let attn_qk = s * d;
        let attn_v = s * d;
        let proj = d * d;
        let (fc1, fc2) = match model.arch {
            Arch::Llama => (2 * d * ff, d * ff), // gate + up, down
            Arch::Opt => (d * ff, d * ff),
        };

        let per_layer_total = qkv + attn_qk + attn_v + proj + fc1 + fc2;
        let total = layers * per_layer_total;

        let mut macs = MacCounts::default();
        if format.integer_compute {
            // Outlier-related MACs go to FP units: an activation element in
            // BF16 forces its whole product row to the FP path; weight
            // outlier channels likewise (§4.3.1).
            let fp_frac = format.act_outlier_fraction + format.weight_outlier_fraction;
            let fp = |n: u64| (n as f64 * fp_frac) as u64;
            let ll = layers * (qkv + fc1);
            let lh = layers * (proj + fc2);
            let hh = layers * attn_qk;
            let sa = layers * attn_v;
            macs.fp = fp(ll) + fp(lh) + fp(hh) + fp(sa);
            macs.low_low = ll - fp(ll);
            macs.low_high = lh - fp(lh);
            macs.high_high = hh - fp(hh);
            macs.shift_acc = if format.log2_softmax { sa - fp(sa) } else { 0 };
            if !format.log2_softmax {
                macs.high_high += sa - fp(sa);
            }
        } else {
            macs.fp = total;
        }

        let softmax_elems = layers * model.n_heads as u64 * s;
        // Every MxV input element is quantized once on its way out of the
        // previous op (Fig. 5): QKV input, Q, K, V, proj input, FC1 input,
        // FC2 input.
        let quantized_elems =
            if format.integer_compute { layers * (d + 3 * d + d + d + ff) } else { 0 };
        let routed_elems = if format.integer_compute {
            // Weights and activations entering the lanes.
            layers * (4 * d * d + 3 * d * ff.min(d * ff)) / d.max(1) + quantized_elems
        } else {
            0
        };

        // KV cache: K and V per layer per position, stored at high-act
        // precision; this token reads the whole cache and appends one entry.
        let kv_bytes = (layers * 2 * d) as f64 * (s as f64 + 1.0) * format.kv_bits / 8.0;
        // Activations staged per token: inputs/outputs of each MxV.
        let act_low = (layers * 2 * d) as f64 * format.act_low_bits / 8.0;
        let act_high = (layers * (4 * d + ff)) as f64 * format.act_high_bits / 8.0;
        let act_bytes = (act_low + act_high) * 2.0; // write + read

        TokenWorkload {
            macs,
            softmax_elems,
            quantized_elems,
            routed_elems,
            weight_bytes: model.decoder_params() as f64 * format.weight_bits / 8.0,
            weight_elems: model.decoder_params(),
            kv_bytes,
            act_bytes,
        }
    }

    /// One forward pass at context length `seq_len`, without the weight
    /// stream (which a step shares across its passes).
    fn pass(model: &ModelConfig, format: &DataFormat, seq_len: usize) -> Self {
        TokenWorkload {
            weight_bytes: 0.0,
            weight_elems: 0,
            ..TokenWorkload::new(model, format, seq_len)
        }
    }

    /// The empty workload (additive identity of [`accumulate`]).
    ///
    /// [`accumulate`]: TokenWorkload::accumulate
    pub fn zero() -> Self {
        TokenWorkload {
            macs: MacCounts::default(),
            softmax_elems: 0,
            quantized_elems: 0,
            routed_elems: 0,
            weight_bytes: 0.0,
            weight_elems: 0,
            kv_bytes: 0.0,
            act_bytes: 0.0,
        }
    }

    /// Adds `other`'s counts and byte volumes into `self` element-wise.
    pub fn accumulate(&mut self, other: &TokenWorkload) {
        self.macs.low_low += other.macs.low_low;
        self.macs.low_high += other.macs.low_high;
        self.macs.high_high += other.macs.high_high;
        self.macs.shift_acc += other.macs.shift_acc;
        self.macs.fp += other.macs.fp;
        self.softmax_elems += other.softmax_elems;
        self.quantized_elems += other.quantized_elems;
        self.routed_elems += other.routed_elems;
        self.weight_bytes += other.weight_bytes;
        self.weight_elems += other.weight_elems;
        self.kv_bytes += other.kv_bytes;
        self.act_bytes += other.act_bytes;
    }

    /// The workload of one *batched scheduler step*: one forward pass per
    /// entry of `contexts`, each at that context length (cached positions
    /// the pass attends over, including its own row) — [`from_step`]
    /// without verify passes. An empty schedule is the
    /// [`zero`](TokenWorkload::zero) workload.
    ///
    /// # Panics
    ///
    /// Panics if any context length is zero.
    ///
    /// [`from_step`]: TokenWorkload::from_step
    pub fn from_schedule(model: &ModelConfig, format: &DataFormat, contexts: &[usize]) -> Self {
        TokenWorkload::from_step(model, format, contexts.iter().copied(), [])
    }

    /// The workload of one fused speculative-*verify* pass: `rows` tokens
    /// appended after `start` cached positions and scored in a single
    /// chunked sweep, arithmetically identical to a prefill chunk over
    /// contexts `start + 1 ..= start + rows` (weights stream once). The
    /// arithmetic is billed in full even though rejected rows are rolled
    /// back afterwards — speculation's cost is exactly this over-compute.
    ///
    /// Like the weight stream, the KV stream is shared by the fusion: the
    /// pass reads the `start` cached positions once for all rows (each
    /// row's attention over the preceding in-chunk rows happens in the
    /// activation buffer) and appends `rows` entries, where the equivalent
    /// unfused schedule would re-stream the cache per row. This KV
    /// amortization — on top of the weight amortization — is what makes
    /// speculative verification nearly free in the memory-bound decode
    /// regime.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero (an empty verify pass never runs).
    pub fn from_verify(
        model: &ModelConfig,
        format: &DataFormat,
        start: usize,
        rows: usize,
    ) -> Self {
        TokenWorkload::from_step(model, format, [], [(start, rows)])
    }

    /// The workload of one step of a serving engine: a forward pass per
    /// entry of `passes` at that context length, and a fused verify pass
    /// (see [`from_verify`]) per `(start, rows)` of `verify`.
    ///
    /// Everything sums per pass **except the weight stream**: a batched
    /// step reads the decoder weights once and shares them across the
    /// batch (the whole point of batched decode), so they are charged once
    /// when anything ran. The verify passes are summed first, then the
    /// single passes, and the two sums added: every total built from this
    /// function rounds the same way.
    ///
    /// # Panics
    ///
    /// Panics if a context length or a verify pass's `rows` is zero.
    ///
    /// [`from_verify`]: TokenWorkload::from_verify
    pub fn from_step(
        model: &ModelConfig,
        format: &DataFormat,
        passes: impl IntoIterator<Item = usize>,
        verify: impl IntoIterator<Item = (usize, usize)>,
    ) -> Self {
        let mut step = TokenWorkload::zero();
        for (start, rows) in verify {
            assert!(rows > 0, "a verify pass scores at least one row");
            let mut fused = TokenWorkload::zero();
            for ctx in start + 1..=start + rows {
                fused.accumulate(&TokenWorkload::pass(model, format, ctx));
            }
            // One fused stream over the final cache extent (matching the
            // `new` convention of `ctx + 1` entries per pass): with a
            // single row this equals the unfused pass — fusion saves
            // nothing — and every additional row adds one entry instead of
            // a full re-read of the cache.
            fused.kv_bytes = (model.n_layers as u64 * 2 * model.d_model as u64) as f64
                * (start + rows + 1) as f64
                * format.kv_bits
                / 8.0;
            step.accumulate(&fused);
        }
        let mut single = TokenWorkload::zero();
        for ctx in passes {
            single.accumulate(&TokenWorkload::pass(model, format, ctx));
        }
        step.accumulate(&single);
        if step.macs.total() > 0 {
            step.weight_bytes = model.decoder_params() as f64 * format.weight_bits / 8.0;
            step.weight_elems = model.decoder_params();
        }
        step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_fraction_matches_paper_claim() {
        // §6: "96.9% of computations are done in INT multipliers" for
        // W4A4/7 (4/128 act outliers + 0.25% weight outliers).
        let model = ModelConfig::llama2_7b();
        let wl = TokenWorkload::new(&model, &DataFormat::opal_w4a47(), 1024);
        let f = wl.macs.int_fraction();
        assert!((f - 0.969).abs() < 0.01, "int fraction {f}");
    }

    #[test]
    fn bf16_format_is_all_fp() {
        let model = ModelConfig::llama2_7b();
        let wl = TokenWorkload::new(&model, &DataFormat::bf16(), 512);
        assert_eq!(wl.macs.int_fraction(), 0.0);
        assert_eq!(wl.macs.low_low, 0);
        assert_eq!(wl.quantized_elems, 0);
    }

    #[test]
    fn weight_bytes_match_param_count() {
        let model = ModelConfig::llama2_70b();
        let bf16 = TokenWorkload::new(&model, &DataFormat::bf16(), 128);
        // Paper §1: Llama2-70B needs ~140 GB at FP16. Decoder-only params
        // under our MHA approximation are somewhat above the real 70B GQA
        // model.
        assert!(
            (1.2e11..1.7e11).contains(&bf16.weight_bytes),
            "bf16 weight bytes {}",
            bf16.weight_bytes
        );
        let w4 = TokenWorkload::new(&model, &DataFormat::opal_w4a47(), 128);
        let ratio = bf16.weight_bytes / w4.weight_bytes;
        assert!((3.7..4.0).contains(&ratio), "W4 shrinks weights ~3.9x, got {ratio}");
    }

    #[test]
    fn kv_bytes_scale_with_context() {
        let model = ModelConfig::llama2_7b();
        let short = TokenWorkload::new(&model, &DataFormat::opal_w4a47(), 128);
        let long = TokenWorkload::new(&model, &DataFormat::opal_w4a47(), 1024);
        assert!(long.kv_bytes > short.kv_bytes * 7.0);
    }

    #[test]
    fn opal_35_stores_less_than_47() {
        let model = ModelConfig::llama2_13b();
        let a47 = TokenWorkload::new(&model, &DataFormat::opal_w4a47(), 512);
        let a35 = TokenWorkload::new(&model, &DataFormat::opal_w3a35(), 512);
        assert!(a35.weight_bytes < a47.weight_bytes);
        assert!(a35.kv_bytes < a47.kv_bytes);
        assert!(a35.act_bytes < a47.act_bytes);
    }

    #[test]
    fn shift_acc_used_only_with_log2_softmax() {
        let model = ModelConfig::llama2_7b();
        let mut fmt = DataFormat::opal_w4a47();
        let with = TokenWorkload::new(&model, &fmt, 256);
        assert!(with.macs.shift_acc > 0);
        fmt.log2_softmax = false;
        let without = TokenWorkload::new(&model, &fmt, 256);
        assert_eq!(without.macs.shift_acc, 0);
        assert!(without.macs.high_high > with.macs.high_high);
    }

    #[test]
    fn schedule_workload_sums_passes_and_shares_weights() {
        let model = ModelConfig::llama2_7b();
        let fmt = DataFormat::opal_w4a47();
        let a = TokenWorkload::new(&model, &fmt, 100);
        let b = TokenWorkload::new(&model, &fmt, 300);
        let step = TokenWorkload::from_schedule(&model, &fmt, &[100, 300]);
        // MACs, softmax traffic and KV bytes sum per pass.
        assert_eq!(step.macs.total(), a.macs.total() + b.macs.total());
        assert_eq!(step.softmax_elems, a.softmax_elems + b.softmax_elems);
        assert!((step.kv_bytes - (a.kv_bytes + b.kv_bytes)).abs() < 1e-6);
        // The weight stream is shared across the batch: charged once.
        assert!((step.weight_bytes - a.weight_bytes).abs() < 1e-6);
        // Identity cases.
        let zero = TokenWorkload::from_schedule(&model, &fmt, &[]);
        assert_eq!(zero, TokenWorkload::zero());
        let one = TokenWorkload::from_schedule(&model, &fmt, &[100]);
        assert_eq!(one, a);
    }

    #[test]
    fn verify_pass_matches_prefill_chunk_arithmetic() {
        let model = ModelConfig::llama2_7b();
        let fmt = DataFormat::opal_w4a47();
        // A k=3 verify after 100 cached positions scores 4 rows at
        // contexts 101..=104 — the same arithmetic as a 4-token prefill
        // chunk at that offset, but the fused pass streams the shared KV
        // cache once where the chunk schedule bills it per row.
        let verify = TokenWorkload::from_verify(&model, &fmt, 100, 4);
        let chunk = TokenWorkload::from_schedule(&model, &fmt, &[101, 102, 103, 104]);
        assert_eq!(verify.macs, chunk.macs);
        assert_eq!(verify.weight_bytes, chunk.weight_bytes);
        assert_eq!(verify.softmax_elems, chunk.softmax_elems);
        assert_eq!(verify.act_bytes, chunk.act_bytes);
        assert!(verify.kv_bytes < chunk.kv_bytes);
        // One fused KV stream: final cache extent times the per-position
        // entry size, regardless of how many rows share it.
        let d = model.n_layers as u64 * 2 * model.d_model as u64;
        let expected = d as f64 * 105.0 * fmt.kv_bits / 8.0;
        assert!((verify.kv_bytes - expected).abs() < 1e-6);
        // With a single row there is nothing to share: the fused pass
        // costs exactly what the unfused schedule does.
        let one = TokenWorkload::from_verify(&model, &fmt, 100, 1);
        assert_eq!(one, TokenWorkload::from_schedule(&model, &fmt, &[101]));
        // More rows at the same start always cost more.
        let shorter = TokenWorkload::from_verify(&model, &fmt, 100, 2);
        assert!(verify.macs.total() > shorter.macs.total());
    }

    #[test]
    fn effective_bits_include_overhead() {
        assert!(effective_act_bits(4) > 4.0);
        assert!(effective_act_bits(4) < 4.7);
        // Exact packed values for (k=128, n=4).
        assert!((effective_act_bits(7) - 7.53125).abs() < 1e-9);
        assert!((effective_act_bits(3) - 3.65625).abs() < 1e-9);
        assert!(effective_weight_bits(4, 0.0025) > 4.0);
        assert!(effective_weight_bits(3, 0.0033) < 3.3);
    }
}
