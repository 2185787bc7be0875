//! Accelerator-level energy and area models: the Fig. 8 comparison.
//!
//! Three designs are compared, as in §5.2:
//!
//! * **BF16** — all-FP16/BF16 datapath, bfloat16 weights and activations.
//! * **OWQ** — 4-bit weights (OWQ) dequantized to BF16 for FP compute;
//!   activations stay BF16. Smaller weight buffer, same act buffer.
//! * **OPAL** (3/5 and 4/7) — INT datapath with MX-OPAL activations, log2
//!   softmax, small weight *and* activation buffers.
//!
//! # Methodology (mirrors the paper)
//!
//! Energy counts the *chip*: core datapath + on-chip SRAM access + SRAM
//! leakage integrated over the token latency. DRAM energy is excluded, as in
//! the paper (its Fig. 8 components are core energy, mem-access energy, and
//! the two buffer leakages; §5.2 uses CACTI for "on-chip memory"). All
//! designs are compared at the same generation latency (the paper quotes a
//! single 1.98 s/token figure for Llama2-70B), i.e. an iso-throughput
//! comparison; leakage therefore integrates over the same interval for every
//! design, and what differs is the leaking capacity.
//!
//! Buffer sizing policy: every design stages the same *number of elements*
//! on chip; capacity in KB scales with the stored bit-width. The activation
//! buffer keeps a structural 20 % of its capacity in BF16 (partial sums,
//! softmax scores, staging) that no activation format shrinks.

use opal_model::ModelConfig;

use crate::core::OpalCore;
use crate::sram::Sram;
use crate::tech::Tech;
use crate::units::{ConventionalSoftmaxUnit, FpUnit, MuConfig, MuMode};
use crate::workload::{DataFormat, TokenWorkload};

/// The paper's quoted generation latency for Llama2-70B (s/token), used as
/// the iso-throughput anchor for leakage integration.
pub const TOKEN_LATENCY_S: f64 = 1.98;

/// Weight-buffer capacity of the BF16 baseline in KB; other designs scale
/// by their stored weight bit-width.
const WEIGHT_BUF_BF16_KB: f64 = 768.0;

/// Activation/KV-buffer capacity of the BF16 baseline in KB.
const ACT_BUF_BF16_KB: f64 = 1331.0;

/// Fraction of activation-buffer capacity that stays BF16 regardless of the
/// activation format (partial sums, softmax buffer, staging).
const ACT_BUF_STRUCTURAL_BF16: f64 = 0.2;

/// The accelerator designs compared in Fig. 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AcceleratorKind {
    /// bfloat16 baseline.
    Bf16,
    /// OWQ weight-only quantization on a BF16 datapath.
    Owq,
    /// OPAL with W4A4/7 MX-OPAL.
    OpalW4A47,
    /// OPAL with W3A3/5 MX-OPAL.
    OpalW3A35,
}

impl AcceleratorKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            AcceleratorKind::Bf16 => "BF16",
            AcceleratorKind::Owq => "OWQ",
            AcceleratorKind::OpalW4A47 => "OPAL-4/7",
            AcceleratorKind::OpalW3A35 => "OPAL-3/5",
        }
    }

    /// The data format this design runs.
    pub fn format(&self) -> DataFormat {
        match self {
            AcceleratorKind::Bf16 => DataFormat::bf16(),
            AcceleratorKind::Owq => DataFormat::owq_w4(),
            AcceleratorKind::OpalW4A47 => DataFormat::opal_w4a47(),
            AcceleratorKind::OpalW3A35 => DataFormat::opal_w3a35(),
        }
    }
}

/// Per-token energy, split as in Fig. 8(a).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Core (datapath) energy in joules.
    pub core_j: f64,
    /// On-chip memory access energy in joules.
    pub mem_access_j: f64,
    /// Weight-buffer leakage energy in joules.
    pub weight_leak_j: f64,
    /// Activation-buffer leakage energy in joules.
    pub act_leak_j: f64,
}

impl EnergyBreakdown {
    /// Total energy per token in joules.
    pub fn total_j(&self) -> f64 {
        self.core_j + self.mem_access_j + self.weight_leak_j + self.act_leak_j
    }
}

/// Chip area, split as in Fig. 8(b).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AreaBreakdown {
    /// Compute-core area in mm².
    pub core_mm2: f64,
    /// Weight-buffer area in mm².
    pub weight_buf_mm2: f64,
    /// Activation-buffer area in mm².
    pub act_buf_mm2: f64,
}

impl AreaBreakdown {
    /// Total area in mm².
    pub fn total_mm2(&self) -> f64 {
        self.core_mm2 + self.weight_buf_mm2 + self.act_buf_mm2
    }
}

/// An accelerator instance: a design point plus the technology model.
///
/// # Example
///
/// ```
/// use opal_hw::accelerator::{Accelerator, AcceleratorKind};
/// use opal_model::ModelConfig;
///
/// let opal = Accelerator::new(AcceleratorKind::OpalW4A47);
/// let bf16 = Accelerator::new(AcceleratorKind::Bf16);
/// let model = ModelConfig::llama2_70b();
/// let e_opal = opal.energy_per_token(&model, 1024).total_j();
/// let e_bf16 = bf16.energy_per_token(&model, 1024).total_j();
/// assert!(e_opal < e_bf16 * 0.5, "OPAL halves the per-token energy");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Accelerator {
    kind: AcceleratorKind,
    tech: Tech,
}

impl Accelerator {
    /// Creates an accelerator with the default 65 nm technology model.
    pub fn new(kind: AcceleratorKind) -> Self {
        Accelerator { kind, tech: Tech::cmos65() }
    }

    /// The design point.
    pub fn kind(&self) -> AcceleratorKind {
        self.kind
    }

    /// The technology model in use.
    pub fn tech(&self) -> &Tech {
        &self.tech
    }

    /// Weight-buffer capacity in KB for this design.
    pub fn weight_buffer_kb(&self) -> f64 {
        WEIGHT_BUF_BF16_KB * self.kind.format().weight_bits / 16.0
    }

    /// Activation/KV-buffer capacity in KB for this design.
    pub fn act_buffer_kb(&self) -> f64 {
        let fmt = self.kind.format();
        let eff =
            (1.0 - ACT_BUF_STRUCTURAL_BF16) * fmt.act_high_bits + ACT_BUF_STRUCTURAL_BF16 * 16.0;
        ACT_BUF_BF16_KB * eff / 16.0
    }

    /// Per-token energy breakdown for generating one token of `model` at
    /// context length `seq_len`: [`energy`](Self::energy) of that one pass
    /// in this design's format, leaking over [`TOKEN_LATENCY_S`].
    ///
    /// # Panics
    ///
    /// Panics if `seq_len == 0`.
    pub fn energy_per_token(&self, model: &ModelConfig, seq_len: usize) -> EnergyBreakdown {
        self.energy(&TokenWorkload::new(model, &self.kind.format(), seq_len), TOKEN_LATENCY_S)
    }

    /// Energy breakdown of running `wl` on this design when the work takes
    /// `latency_s` seconds: its operations on the core, its weight, KV and
    /// activation bytes through the two buffers, and both buffers' leakage
    /// over `latency_s`.
    pub fn energy(&self, wl: &TokenWorkload, latency_s: f64) -> EnergyBreakdown {
        let t = &self.tech;

        // --- core energy ---
        let core_j = match self.kind {
            AcceleratorKind::Bf16 | AcceleratorKind::Owq => {
                let macs = wl.macs.total() as f64;
                let softmax = wl.softmax_elems as f64 * ConventionalSoftmaxUnit.elem_energy_pj(t);
                // OWQ adds a dequant shift-add per streamed weight element.
                let dequant = if self.kind == AcceleratorKind::Owq {
                    wl.weight_elems as f64 * t.shift_acc_pj
                } else {
                    0.0
                };
                (macs * FpUnit.mac_energy_pj(t) + softmax + dequant) * 1e-12
            }
            AcceleratorKind::OpalW4A47 | AcceleratorKind::OpalW3A35 => {
                let cfg = self.mu_config();
                let core = OpalCore::new(cfg);
                let m = &wl.macs;
                let datapath = m.low_low as f64 * core.int_mac_energy_pj(t, MuMode::LowLow)
                    + m.low_high as f64 * core.int_mac_energy_pj(t, MuMode::LowHigh)
                    + m.high_high as f64 * core.int_mac_energy_pj(t, MuMode::HighHigh)
                    + m.shift_acc as f64 * t.shift_acc_pj
                    + m.fp as f64 * t.fp_mac_pj;
                let softmax = wl.softmax_elems as f64 * t.softmax_elem_pj;
                let quant = wl.quantized_elems as f64 * t.quantize_elem_pj;
                let route = wl.routed_elems as f64 * t.distribute_elem_pj;
                (datapath + softmax + quant + route) * 1e-12
            }
        };

        // --- on-chip access energy ---
        let wbuf = Sram::new(self.weight_buffer_kb());
        let abuf = Sram::new(self.act_buffer_kb());
        let mem_access_j = wbuf.access_energy_j(t, wl.weight_bytes)
            + abuf.access_energy_j(t, wl.kv_bytes + wl.act_bytes);

        // --- leakage over the work's latency ---
        let weight_leak_j = wbuf.leakage_energy_j(t, latency_s);
        let act_leak_j = abuf.leakage_energy_j(t, latency_s);

        EnergyBreakdown { core_j, mem_access_j, weight_leak_j, act_leak_j }
    }

    /// Chip area breakdown.
    pub fn area(&self) -> AreaBreakdown {
        let t = &self.tech;
        let core_um2 = match self.kind {
            AcceleratorKind::Bf16 | AcceleratorKind::Owq => {
                // An iso-throughput BF16 datapath: 8 lanes × 48 BF16 MACs
                // (sized so sustained MACs/s match OPAL's mixed-mode rate)
                // plus a conventional softmax unit.
                8.0 * 48.0 * FpUnit.area_um2() + ConventionalSoftmaxUnit.area_um2()
            }
            AcceleratorKind::OpalW4A47 | AcceleratorKind::OpalW3A35 => {
                OpalCore::new(self.mu_config()).area_um2()
            }
        };
        let sram_mm2 = |kb: f64| Sram::new(kb).area_um2(t) / 1e6;
        AreaBreakdown {
            core_mm2: core_um2 / 1e6,
            weight_buf_mm2: sram_mm2(self.weight_buffer_kb()),
            act_buf_mm2: sram_mm2(self.act_buffer_kb()),
        }
    }

    /// Fraction of this design's operations executed on INT hardware.
    pub fn int_mac_fraction(&self, model: &ModelConfig, seq_len: usize) -> f64 {
        TokenWorkload::new(model, &self.kind.format(), seq_len).macs.int_fraction()
    }

    fn mu_config(&self) -> MuConfig {
        match self.kind {
            AcceleratorKind::OpalW3A35 => MuConfig::w3a35(),
            _ => MuConfig::w4a47(),
        }
    }
}

/// Relative energy saving of `a` versus `b` (positive = `a` cheaper).
pub fn energy_saving(a: &EnergyBreakdown, b: &EnergyBreakdown) -> f64 {
    1.0 - a.total_j() / b.total_j()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn energies(seq: usize) -> [EnergyBreakdown; 4] {
        let m = ModelConfig::llama2_70b();
        [
            AcceleratorKind::Bf16,
            AcceleratorKind::Owq,
            AcceleratorKind::OpalW4A47,
            AcceleratorKind::OpalW3A35,
        ]
        .map(|k| Accelerator::new(k).energy_per_token(&m, seq))
    }

    #[test]
    fn fig8_energy_ordering() {
        let [bf16, owq, o47, o35] = energies(1024);
        assert!(owq.total_j() < bf16.total_j());
        assert!(o47.total_j() < owq.total_j());
        assert!(o35.total_j() < o47.total_j());
    }

    #[test]
    fn fig8_savings_match_paper_bands() {
        // Paper §5.2: OWQ saves 32.5% vs BF16; OPAL saves 38.6%/58.6%
        // (4/7) and 53.5%/68.6% (3/5) vs OWQ/BF16 respectively.
        let [bf16, owq, o47, o35] = energies(1024);
        let s_owq = energy_saving(&owq, &bf16);
        let s47_owq = energy_saving(&o47, &owq);
        let s35_owq = energy_saving(&o35, &owq);
        let s47_bf = energy_saving(&o47, &bf16);
        let s35_bf = energy_saving(&o35, &bf16);
        assert!((0.27..0.38).contains(&s_owq), "OWQ saving {s_owq} (paper 0.325)");
        assert!((0.33..0.45).contains(&s47_owq), "OPAL-4/7 vs OWQ {s47_owq} (paper 0.386)");
        assert!((0.46..0.60).contains(&s35_owq), "OPAL-3/5 vs OWQ {s35_owq} (paper 0.535)");
        assert!((0.52..0.65).contains(&s47_bf), "OPAL-4/7 vs BF16 {s47_bf} (paper 0.586)");
        assert!((0.62..0.74).contains(&s35_bf), "OPAL-3/5 vs BF16 {s35_bf} (paper 0.686)");
    }

    #[test]
    fn absolute_energy_scale_plausible() {
        // Fig. 8(a)'s BF16 bar is ~4–5 J/token for Llama2-70B.
        let [bf16, _, o47, _] = energies(1024);
        assert!((2.0..6.0).contains(&bf16.total_j()), "BF16 J/token {}", bf16.total_j());
        assert!(o47.total_j() > 0.5, "OPAL energy not degenerate");
    }

    #[test]
    fn area_ratios_match_abstract() {
        // Abstract: "reduce the area by 2.4∼3.1×" (OPAL-4/7 and -3/5 vs
        // the BF16 baseline).
        let bf16 = Accelerator::new(AcceleratorKind::Bf16).area().total_mm2();
        let o47 = Accelerator::new(AcceleratorKind::OpalW4A47).area().total_mm2();
        let o35 = Accelerator::new(AcceleratorKind::OpalW3A35).area().total_mm2();
        let r47 = bf16 / o47;
        let r35 = bf16 / o35;
        assert!((2.0..2.9).contains(&r47), "area ratio 4/7 {r47} (paper 2.4)");
        assert!((2.7..3.6).contains(&r35), "area ratio 3/5 {r35} (paper 3.1)");
        assert!(r35 > r47);
    }

    #[test]
    fn leakage_dominates_for_bf16() {
        // §5.2: "the main challenge in deploying a large on-chip buffer lies
        // … in the high leakage power" — leakage must be the biggest share
        // of the BF16 design.
        let [bf16, ..] = energies(1024);
        let leak = bf16.weight_leak_j + bf16.act_leak_j;
        assert!(leak > bf16.total_j() * 0.5, "leak share {}", leak / bf16.total_j());
    }

    #[test]
    fn int_fraction_claim() {
        let m = ModelConfig::llama2_70b();
        let f = Accelerator::new(AcceleratorKind::OpalW4A47).int_mac_fraction(&m, 1024);
        assert!((0.955..0.98).contains(&f), "int fraction {f} (paper 0.969)");
    }

    #[test]
    fn energy_per_token_is_pinned() {
        // `total_j()` bits of the single-token case, per design × model ×
        // context; the Fig. 8 tests read these.
        use AcceleratorKind::*;
        let pinned: [(AcceleratorKind, [[u64; 2]; 3]); 4] = [
            (
                Bf16,
                [
                    [0x400b052b738efdfa, 0x400b0abac8aa9e14],
                    [0x400b6cb1570fa58d, 0x400b75614c0acfb6],
                    [0x400faa7fca85e385, 0x400fc64c7410040a],
                ],
            ),
            (
                Owq,
                [
                    [0x40038100bb7b750c, 0x4003869010971527],
                    [0x4003a4411774a8e7, 0x4003acf10c6fd311],
                    [0x400515ec66e53f22, 0x400531b9106f5fa7],
                ],
            ),
            (
                OpalW4A47,
                [
                    [0x3ff88988d8f0fb1e, 0x3ff88cff474701f9],
                    [0x3ff8a22f2209781c, 0x3ff8a7982e6fc032],
                    [0x3ff9a4c13f2d6024, 0x3ff9b61166db074a],
                ],
            ),
            (
                OpalW3A35,
                [
                    [0x3ff40915607642c8, 0x3ff40b7228739902],
                    [0x3ff4199daee37285, 0x3ff41d4ea75f7105],
                    [0x3ff4c705a4cfb6c8, 0x3ff4d2d58cc265e8],
                ],
            ),
        ];
        let models =
            [ModelConfig::llama2_7b(), ModelConfig::llama2_13b(), ModelConfig::llama2_70b()];
        for (kind, per_model) in pinned {
            let acc = Accelerator::new(kind);
            for (model, bits) in models.iter().zip(per_model) {
                for (seq, bits) in [1, 1024].into_iter().zip(bits) {
                    let e = acc.energy_per_token(model, seq).total_j();
                    assert_eq!(e.to_bits(), bits, "{kind:?} {} seq {seq}: {e}", model.name);
                }
            }
        }
    }

    #[test]
    fn buffer_sizes_scale_with_bits() {
        let bf16 = Accelerator::new(AcceleratorKind::Bf16);
        let o47 = Accelerator::new(AcceleratorKind::OpalW4A47);
        assert!((bf16.weight_buffer_kb() / o47.weight_buffer_kb() - 16.0 / 4.2).abs() < 0.4);
        assert!(o47.act_buffer_kb() < bf16.act_buffer_kb());
    }
}
