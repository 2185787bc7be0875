//! The building blocks of an OPAL core (Fig. 6) with their synthesized
//! area/power characteristics.
//!
//! Per-unit numbers are calibrated so the composed core reproduces the
//! paper's Table 3 (area/power breakdown of one W4A4/7 OPAL core at 65 nm).

use crate::tech::Tech;

/// Operating mode of a reconfigurable INT multiply unit (Fig. 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MuMode {
    /// Low-bit × low-bit (e.g. INT4 weight × INT4 activation): 4 products
    /// per cycle per multiplier slice — 4× the high-high throughput.
    LowLow,
    /// Low-bit × high-bit (INT4 weight × INT7 activation): 2× throughput.
    LowHigh,
    /// High-bit × high-bit (`Q·Kᵀ`-style INT7 × INT7): base throughput.
    HighHigh,
}

impl MuMode {
    /// Throughput multiplier relative to the high-high mode (§4.3.2: "the
    /// low-low mode providing 4× throughput over the high-high mode").
    pub fn throughput_factor(self) -> u32 {
        match self {
            MuMode::LowLow => 4,
            MuMode::LowHigh => 2,
            MuMode::HighHigh => 1,
        }
    }
}

/// The bit-width pair a core variant supports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MuConfig {
    /// Low (post-LayerNorm) activation / weight bit-width.
    pub low_bits: u32,
    /// High activation bit-width.
    pub high_bits: u32,
}

impl MuConfig {
    /// The paper's W4A4/7 configuration (Table 3 core).
    pub fn w4a47() -> Self {
        MuConfig { low_bits: 4, high_bits: 7 }
    }

    /// The paper's W3A3/5 configuration.
    pub fn w3a35() -> Self {
        MuConfig { low_bits: 3, high_bits: 5 }
    }

    /// Relative multiplier-array cost vs the 4/7 reference: a reconfigurable
    /// array is sized by its high-high product, so area/power scale with
    /// `high_bits²`.
    fn cost_ratio(self) -> f64 {
        let hb = f64::from(self.high_bits);
        hb * hb / 49.0
    }
}

/// One INT multiply unit: four reconfigurable integer multipliers feeding
/// the lane's adder tree (§4.3.2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntMu {
    config: MuConfig,
}

impl IntMu {
    /// Multipliers per MU.
    pub const MULTIPLIERS: usize = 4;

    /// Creates an INT MU for the given bit-width pair.
    pub fn new(config: MuConfig) -> Self {
        IntMu { config }
    }

    /// The configured bit-widths.
    pub fn config(&self) -> MuConfig {
        self.config
    }

    /// MACs per cycle in `mode` (4 multipliers × the mode's packing).
    pub fn macs_per_cycle(&self, mode: MuMode) -> u32 {
        Self::MULTIPLIERS as u32 * mode.throughput_factor()
    }

    /// Synthesized area in µm² (calibrated: 32 MUs + 4 FP units + adder
    /// tree compose to Table 3's per-lane area).
    pub fn area_um2(&self) -> f64 {
        1510.34 * self.config.cost_ratio()
    }

    /// Synthesized power in mW at full utilization.
    pub fn power_mw(&self) -> f64 {
        0.568 * self.config.cost_ratio()
    }

    /// Energy of one MAC in `mode`.
    pub fn mac_energy_pj(&self, tech: &Tech, mode: MuMode) -> f64 {
        let base = match mode {
            MuMode::LowLow => tech.int_mac_lowlow_pj,
            MuMode::LowHigh => tech.int_mac_lowhigh_pj,
            MuMode::HighHigh => tech.int_mac_highhigh_pj,
        };
        base * self.config.cost_ratio().max(0.25)
    }
}

/// One bfloat16 FP unit handling preserved outliers (4 per lane).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FpUnit;

impl FpUnit {
    /// Synthesized area in µm².
    pub fn area_um2(&self) -> f64 {
        6080.0
    }

    /// Synthesized power in mW at full utilization.
    pub fn power_mw(&self) -> f64 {
        2.05
    }

    /// Energy of one bf16 MAC.
    pub fn mac_energy_pj(&self, tech: &Tech) -> f64 {
        tech.fp_mac_pj
    }
}

/// The per-lane INT adder tree reducing 128 products to one sum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntAdderTree;

impl IntAdderTree {
    /// Synthesized area in µm².
    pub fn area_um2(&self) -> f64 {
        11_115.0
    }

    /// Synthesized power in mW.
    pub fn power_mw(&self) -> f64 {
        2.33
    }
}

/// The core-level FP adder tree merging eight lane outputs with outlier
/// partial sums (Table 3 row "FP Adder Tree").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FpAdderTree;

impl FpAdderTree {
    /// Synthesized area in µm² (Table 3: 8,470.80).
    pub fn area_um2(&self) -> f64 {
        8470.80
    }

    /// Synthesized power in mW (Table 3: 1.28).
    pub fn power_mw(&self) -> f64 {
        1.28
    }
}

/// The per-lane data distributor routing non-outliers to INT MUs and
/// outliers to FP units (Fig. 6(b); 8 per core).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DataDistributor;

impl DataDistributor {
    /// Synthesized area in µm² (Table 3 total / 8).
    pub fn area_um2(&self) -> f64 {
        139_713.48 / 8.0
    }

    /// Synthesized power in mW (Table 3 total / 8).
    pub fn power_mw(&self) -> f64 {
        63.20 / 8.0
    }
}

/// The log2-based softmax unit (Fig. 6(c); Table 3 row).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Log2SoftmaxUnit;

impl Log2SoftmaxUnit {
    /// Synthesized area in µm² (Table 3: 76,330.92).
    pub fn area_um2(&self) -> f64 {
        76_330.92
    }

    /// Synthesized power in mW (Table 3: 27.62).
    pub fn power_mw(&self) -> f64 {
        27.62
    }

    /// Energy per attention score processed.
    pub fn elem_energy_pj(&self, tech: &Tech) -> f64 {
        tech.softmax_elem_pj
    }
}

/// A conventional FP softmax unit, for the §4.3.3 comparison: the log2 unit
/// cuts 32.3 % of its area and 35.7 % of its power.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConventionalSoftmaxUnit;

impl ConventionalSoftmaxUnit {
    /// Area in µm², derived from the paper's 32.3 % saving.
    pub fn area_um2(&self) -> f64 {
        Log2SoftmaxUnit.area_um2() / (1.0 - 0.323)
    }

    /// Power in mW, derived from the paper's 35.7 % saving.
    pub fn power_mw(&self) -> f64 {
        Log2SoftmaxUnit.power_mw() / (1.0 - 0.357)
    }

    /// Energy per attention score processed.
    pub fn elem_energy_pj(&self, tech: &Tech) -> f64 {
        tech.softmax_conventional_elem_pj
    }
}

/// The shift-based MX-OPAL quantizer at the core output (Table 3 row).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MxOpalQuantizerUnit;

impl MxOpalQuantizerUnit {
    /// Synthesized area in µm² (Table 3: 34,670.88).
    pub fn area_um2(&self) -> f64 {
        34_670.88
    }

    /// Synthesized power in mW (Table 3: 14.11).
    pub fn power_mw(&self) -> f64 {
        14.11
    }

    /// Energy per element quantized.
    pub fn elem_energy_pj(&self, tech: &Tech) -> f64 {
        tech.quantize_elem_pj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_throughputs() {
        assert_eq!(MuMode::LowLow.throughput_factor(), 4);
        assert_eq!(MuMode::LowHigh.throughput_factor(), 2);
        assert_eq!(MuMode::HighHigh.throughput_factor(), 1);
        let mu = IntMu::new(MuConfig::w4a47());
        assert_eq!(mu.macs_per_cycle(MuMode::LowLow), 16);
        assert_eq!(mu.macs_per_cycle(MuMode::HighHigh), 4);
    }

    #[test]
    fn w3a35_mu_is_smaller() {
        let big = IntMu::new(MuConfig::w4a47());
        let small = IntMu::new(MuConfig::w3a35());
        assert!(small.area_um2() < big.area_um2());
        assert!(small.power_mw() < big.power_mw());
        // 5²/7² ≈ 0.51
        assert!((small.area_um2() / big.area_um2() - 25.0 / 49.0).abs() < 1e-9);
    }

    #[test]
    fn softmax_unit_savings_match_paper() {
        let log2 = Log2SoftmaxUnit;
        let conv = ConventionalSoftmaxUnit;
        let area_saving = 1.0 - log2.area_um2() / conv.area_um2();
        let power_saving = 1.0 - log2.power_mw() / conv.power_mw();
        assert!((area_saving - 0.323).abs() < 1e-9, "32.3% area cut");
        assert!((power_saving - 0.357).abs() < 1e-9, "35.7% power cut");
    }

    #[test]
    fn int_mac_cheaper_than_fp() {
        let t = Tech::cmos65();
        let mu = IntMu::new(MuConfig::w4a47());
        let fp = FpUnit;
        assert!(mu.mac_energy_pj(&t, MuMode::HighHigh) * 4.0 < fp.mac_energy_pj(&t));
    }
}
