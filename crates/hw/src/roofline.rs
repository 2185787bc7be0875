//! GPU roofline model for Fig. 1: single-batch GEMM latency of the first
//! FFN layer (`mlp.0`) at various weight/activation bit-widths.
//!
//! The paper measures CUTLASS hGEMM/iGEMM on a datacenter GPU. We model the
//! same experiment with a roofline: latency is the maximum of memory time
//! and compute time, corrected by a utilization factor that captures how
//! well a skinny `M×K×N` GEMM fills the machine (small weight matrices
//! cannot saturate all SMs or the full DRAM bus — the effect that makes the
//! Fig. 1 speedups grow with model size).

use opal_model::ModelConfig;

/// Kernel/precision configuration of a GEMM, matching the Fig. 1 legend.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GemmKernel {
    /// `W FP16 & A FP16` — hGEMM on FP16 units.
    Hgemm16,
    /// `W INT4 & A FP16` — weights dequantized on the fly, FP16 compute.
    HgemmW4,
    /// `W INT4 & A INT8` — iGEMM on INT8 units.
    IgemmW4A8,
}

impl GemmKernel {
    /// Bytes per weight element fetched from DRAM.
    fn weight_bytes(&self) -> f64 {
        match self {
            GemmKernel::Hgemm16 => 2.0,
            GemmKernel::HgemmW4 | GemmKernel::IgemmW4A8 => 0.5,
        }
    }

    /// Peak compute in MACs/s available to this kernel.
    fn peak_macs(&self, gpu: &GpuModel) -> f64 {
        match self {
            GemmKernel::Hgemm16 | GemmKernel::HgemmW4 => gpu.fp16_peak_macs,
            GemmKernel::IgemmW4A8 => gpu.int8_peak_macs,
        }
    }

    /// Effective-bandwidth derating: narrow 4-bit loads with on-the-fly
    /// dequantization to FP16 do not stream at full bus efficiency. The
    /// iGEMM unpacks to INT8 with shifts only; its efficiency is the one
    /// value calibrated to Fig. 1 (the Llama2-70B W4A8 bar, 4.0×).
    fn bw_efficiency(&self) -> f64 {
        match self {
            GemmKernel::Hgemm16 => 0.85,
            GemmKernel::HgemmW4 => 0.55,
            GemmKernel::IgemmW4A8 => 0.90,
        }
    }

    /// Output-tile width of the kernel. Kernels that unpack 4-bit weights
    /// use wider tiles to amortize the unpack stage, so a skinny GEMM
    /// exposes fewer concurrent tiles — the effect that erases most of the
    /// W4 win on the smaller models in Fig. 1.
    fn tile_n(&self) -> f64 {
        match self {
            GemmKernel::Hgemm16 => 128.0,
            GemmKernel::HgemmW4 | GemmKernel::IgemmW4A8 => 256.0,
        }
    }
}

/// A datacenter-GPU roofline (A100-class defaults).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuModel {
    /// DRAM bandwidth in bytes/s.
    pub dram_bw: f64,
    /// FP16 tensor-core peak in MACs/s.
    pub fp16_peak_macs: f64,
    /// INT8 tensor-core peak in MACs/s.
    pub int8_peak_macs: f64,
    /// Number of streaming multiprocessors (for the utilization model).
    pub sm_count: f64,
    /// Fixed kernel-launch overhead in seconds.
    pub launch_overhead_s: f64,
}

impl GpuModel {
    /// A100-80GB-class roofline numbers.
    pub fn a100() -> Self {
        GpuModel {
            dram_bw: 2.0e12,
            fp16_peak_macs: 156e12, // 312 TFLOPS = 156 T MAC/s
            int8_peak_macs: 312e12, // 624 TOPS
            sm_count: 108.0,
            launch_overhead_s: 6.0e-6,
        }
    }

    /// Latency in seconds of an `M×K×N` GEMM under `kernel`.
    ///
    /// The utilization factor models tile-level parallelism: a GEMM exposes
    /// roughly `(M/128)·(N/128)` independent tiles; fewer tiles than SMs
    /// leaves compute idle. Memory streaming is derated by the kernel's
    /// bandwidth efficiency.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn gemm_latency(&self, m: usize, k: usize, n: usize, kernel: GemmKernel) -> f64 {
        assert!(m > 0 && k > 0 && n > 0, "GEMM dims must be positive");
        let (m, k, n) = (m as f64, k as f64, n as f64);
        let weight_bytes = k * n * kernel.weight_bytes();
        let act_bytes = (m * k + m * n) * 2.0;
        // Tile-level parallelism: fewer concurrent tiles than SMs leaves
        // both the compute pipes and the memory system under-subscribed.
        let tiles = (m / 128.0).ceil() * (n / kernel.tile_n()).ceil();
        let util = (tiles / self.sm_count).clamp(0.05, 1.0);
        let mem_s = (weight_bytes + act_bytes) / (self.dram_bw * kernel.bw_efficiency() * util);
        let compute_s = (m * k * n) / (kernel.peak_macs(self) * util);
        mem_s.max(compute_s) + self.launch_overhead_s
    }

    /// The Fig. 1 experiment: `mlp.0` (the `d_model × d_ff` up-projection)
    /// at sequence length `m` for a model, across the three kernels.
    /// Returns `(label, latency_s)` pairs in the figure's bar order.
    pub fn fig1_latencies(&self, model: &ModelConfig, m: usize) -> Vec<(&'static str, f64)> {
        let k = model.d_model;
        let n = model.d_ff;
        vec![
            ("W FP16 & A FP16 (hGEMM)", self.gemm_latency(m, k, n, GemmKernel::Hgemm16)),
            ("W INT4 & A FP16 (hGEMM)", self.gemm_latency(m, k, n, GemmKernel::HgemmW4)),
            ("W INT4 & A INT8 (iGEMM)", self.gemm_latency(m, k, n, GemmKernel::IgemmW4A8)),
        ]
    }
}

impl Default for GpuModel {
    fn default() -> Self {
        GpuModel::a100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 1 batch dimension: the paper runs single-batch generation
    /// GEMV-like workloads; we use M = 1.
    const M: usize = 1;

    #[test]
    fn fig1_shape_for_70b() {
        // Paper: W4A16 gives 2.0× for Llama2-70B, W4A8 gives 4.0×.
        let gpu = GpuModel::a100();
        let m70 = ModelConfig::llama2_70b();
        let lat = gpu.fig1_latencies(&m70, M);
        let base = lat[0].1;
        let s_w4 = base / lat[1].1;
        let s_w4a8 = base / lat[2].1;
        assert!((1.4..2.8).contains(&s_w4), "70B W4A16 speedup {s_w4} (paper 2.0)");
        assert!((2.7..4.6).contains(&s_w4a8), "70B W4A8 speedup {s_w4a8} (paper 4.0)");
        assert!(s_w4a8 > s_w4);
    }

    #[test]
    fn fig1_speedups_grow_with_model_size() {
        let gpu = GpuModel::a100();
        let speedup_w4 = |cfg: &ModelConfig| {
            let lat = gpu.fig1_latencies(cfg, M);
            lat[0].1 / lat[1].1
        };
        let s7 = speedup_w4(&ModelConfig::llama2_7b());
        let s70 = speedup_w4(&ModelConfig::llama2_70b());
        assert!(s70 > s7, "speedup must grow with model size: 7B {s7} vs 70B {s70}");
    }

    #[test]
    fn igemm_always_at_least_matches_hgemm_w4() {
        let gpu = GpuModel::a100();
        for cfg in [ModelConfig::llama2_7b(), ModelConfig::llama2_13b(), ModelConfig::llama2_70b()]
        {
            let lat = gpu.fig1_latencies(&cfg, M);
            assert!(lat[2].1 <= lat[1].1 * 1.01, "{}", cfg.name);
        }
    }

    #[test]
    fn compute_bound_when_m_large() {
        // At M = 4096 the GEMM is compute-bound: W4A16 stops helping.
        let gpu = GpuModel::a100();
        let cfg = ModelConfig::llama2_7b();
        let lat = gpu.fig1_latencies(&cfg, 4096);
        let s_w4 = lat[0].1 / lat[1].1;
        assert!(s_w4 < 1.15, "compute-bound speedup {s_w4}");
        // But INT8 compute still helps ~2x.
        let s_int8 = lat[0].1 / lat[2].1;
        assert!((1.5..2.3).contains(&s_int8), "INT8 speedup {s_int8}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_dims() {
        GpuModel::a100().gemm_latency(0, 10, 10, GemmKernel::Hgemm16);
    }
}
