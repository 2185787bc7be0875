//! Quantization schemes: which format runs where (Fig. 5 / Table 1 rows).

use opal_quant::{
    MinMaxQuantizer, MxIntQuantizer, MxOpalQuantizer, OwqQuantizer, QuantError, Quantizer,
};

/// The activation-quantizer family being compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ActFormat {
    /// Conventional dynamic min/max (ZeroQuant-style), the paper's baseline.
    MinMax,
    /// Plain MXINT microscaling.
    MxInt,
    /// The paper's outlier-preserved MX-OPAL.
    MxOpal,
}

/// Activation quantization configuration.
///
/// Activations right after LayerNorm (inputs to QKV and FC1) are quantized
/// to `low_bits`; every other MxV input (Q, K, V, the attention output into
/// the projection, and the FFN hidden into FC2) uses `high_bits` (§4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ActScheme {
    /// Quantizer family.
    pub format: ActFormat,
    /// Bit-width after LayerNorm.
    pub low_bits: u32,
    /// Bit-width everywhere else.
    pub high_bits: u32,
    /// Microscaling block size `k` (128 in the paper).
    pub block_size: usize,
    /// Preserved outliers per block `n` for MX-OPAL (4 in the paper).
    pub outliers: usize,
}

impl ActScheme {
    /// Builds the quantizer for the low-bit (post-LayerNorm) positions.
    ///
    /// The box is `Send + Sync` so a model holding it can be shared across
    /// the serving engine's decode worker threads.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the quantizer constructors.
    pub fn low_quantizer(&self) -> Result<Box<dyn Quantizer + Send + Sync>, QuantError> {
        self.quantizer(self.low_bits)
    }

    /// Builds the quantizer for the high-bit positions (`Send + Sync`, as
    /// [`ActScheme::low_quantizer`]).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the quantizer constructors.
    pub fn high_quantizer(&self) -> Result<Box<dyn Quantizer + Send + Sync>, QuantError> {
        self.quantizer(self.high_bits)
    }

    fn quantizer(&self, bits: u32) -> Result<Box<dyn Quantizer + Send + Sync>, QuantError> {
        Ok(match self.format {
            ActFormat::MinMax => Box::new(MinMaxQuantizer::new(bits, self.block_size)?),
            ActFormat::MxInt => Box::new(MxIntQuantizer::new(bits, self.block_size)?),
            ActFormat::MxOpal => {
                Box::new(MxOpalQuantizer::new(bits, self.block_size, self.outliers)?)
            }
        })
    }
}

/// Weight quantization configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WeightScheme {
    /// Keep weights in bfloat16 (the BF16 baseline).
    Bf16,
    /// OWQ: INT`bits` with `outlier_fraction` BF16 input channels.
    Owq {
        /// Integer bit-width of non-outlier weights.
        bits: u32,
        /// Fraction of input channels kept in bfloat16.
        outlier_fraction: f32,
    },
}

impl WeightScheme {
    /// The OWQ quantizer for this scheme, or `None` for BF16 weights.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn quantizer(&self) -> Result<Option<OwqQuantizer>, QuantError> {
        match *self {
            WeightScheme::Bf16 => Ok(None),
            WeightScheme::Owq { bits, outlier_fraction } => {
                Ok(Some(OwqQuantizer::new(bits, outlier_fraction)?))
            }
        }
    }
}

/// Softmax implementation choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SoftmaxKind {
    /// Exact floating-point softmax.
    Exact,
    /// The log2-based unit with the given shift-code width.
    Log2 {
        /// Shift-code bit-width.
        bits: u32,
    },
}

/// A complete quantization scheme: one row of Table 1.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantScheme {
    /// Display name, matching the paper's row labels.
    pub name: String,
    /// Weight handling.
    pub weights: WeightScheme,
    /// Activation handling (`None` = keep activations in bf16/f32).
    pub acts: Option<ActScheme>,
    /// Softmax implementation.
    pub softmax: SoftmaxKind,
}

impl QuantScheme {
    /// The bfloat16 baseline: no quantization beyond bf16 storage.
    pub fn bf16() -> Self {
        QuantScheme {
            name: "BF16".to_owned(),
            weights: WeightScheme::Bf16,
            acts: None,
            softmax: SoftmaxKind::Exact,
        }
    }

    /// OWQ weight-only quantization, `W4A16` row of Table 1.
    pub fn owq_w4a16() -> Self {
        QuantScheme {
            name: "W4A16 (OWQ)".to_owned(),
            weights: WeightScheme::Owq { bits: 4, outlier_fraction: 0.0025 },
            acts: None,
            softmax: SoftmaxKind::Exact,
        }
    }

    /// OWQ weight-only quantization, `W3A16` row of Table 1.
    pub fn owq_w3a16() -> Self {
        QuantScheme {
            name: "W3A16 (OWQ)".to_owned(),
            weights: WeightScheme::Owq { bits: 3, outlier_fraction: 0.0033 },
            acts: None,
            softmax: SoftmaxKind::Exact,
        }
    }

    fn with_acts(name: &str, w_bits: u32, format: ActFormat, low: u32, high: u32) -> Self {
        let w_frac = if w_bits == 3 { 0.0033 } else { 0.0025 };
        QuantScheme {
            name: name.to_owned(),
            weights: WeightScheme::Owq { bits: w_bits, outlier_fraction: w_frac },
            acts: Some(ActScheme {
                format,
                low_bits: low,
                high_bits: high,
                block_size: 128,
                outliers: if format == ActFormat::MxOpal { 4 } else { 0 },
            }),
            softmax: SoftmaxKind::Exact,
        }
    }

    /// `W4A7 (MinMax)`: uniform 7-bit activations, conventional quantizer.
    pub fn minmax_w4a7() -> Self {
        Self::with_acts("W4A7 (MinMax)", 4, ActFormat::MinMax, 7, 7)
    }

    /// `W4A7 (MX-OPAL)`: uniform 7-bit activations.
    pub fn mxopal_w4a7() -> Self {
        Self::with_acts("W4A7 (MX-OPAL)", 4, ActFormat::MxOpal, 7, 7)
    }

    /// `W4A4/7 (MinMax)`: 4-bit after LN, 7-bit elsewhere.
    pub fn minmax_w4a47() -> Self {
        Self::with_acts("W4A4/7 (MinMax)", 4, ActFormat::MinMax, 4, 7)
    }

    /// `W4A4/7 (MX-OPAL)`: the paper's OPAL-4/7 operating point.
    pub fn mxopal_w4a47() -> Self {
        Self::with_acts("W4A4/7 (MX-OPAL)", 4, ActFormat::MxOpal, 4, 7)
    }

    /// `W3A3/5 (MinMax)`: the row that collapses in Table 1.
    pub fn minmax_w3a35() -> Self {
        Self::with_acts("W3A3/5 (MinMax)", 3, ActFormat::MinMax, 3, 5)
    }

    /// `W3A3/5 (MX-OPAL)`: the paper's OPAL-3/5 operating point.
    pub fn mxopal_w3a35() -> Self {
        Self::with_acts("W3A3/5 (MX-OPAL)", 3, ActFormat::MxOpal, 3, 5)
    }

    /// `W4A4/7 (MXINT)`: plain microscaling without preserved outliers (not a
    /// Table 1 row).
    pub fn mxint_w4a47() -> Self {
        Self::with_acts("W4A4/7 (MXINT)", 4, ActFormat::MxInt, 4, 7)
    }

    /// Returns a copy of the scheme running the log2-based softmax.
    pub fn with_log2_softmax(mut self, bits: u32) -> Self {
        self.softmax = SoftmaxKind::Log2 { bits };
        self.name = format!("{} +log2sm", self.name);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_bits() {
        let s = QuantScheme::mxopal_w3a35();
        match s.weights {
            WeightScheme::Owq { bits, outlier_fraction } => {
                assert_eq!(bits, 3);
                assert!((outlier_fraction - 0.0033).abs() < 1e-6);
            }
            _ => panic!("expected OWQ weights"),
        }
        let a = s.acts.unwrap();
        assert_eq!((a.low_bits, a.high_bits), (3, 5));
        assert_eq!(a.outliers, 4);
        assert_eq!(a.block_size, 128);
    }

    #[test]
    fn quantizers_construct() {
        for s in [
            QuantScheme::bf16(),
            QuantScheme::owq_w4a16(),
            QuantScheme::minmax_w4a7(),
            QuantScheme::mxopal_w4a7(),
            QuantScheme::minmax_w4a47(),
            QuantScheme::mxopal_w4a47(),
            QuantScheme::owq_w3a16(),
            QuantScheme::minmax_w3a35(),
            QuantScheme::mxopal_w3a35(),
        ] {
            if let Some(a) = s.acts {
                a.low_quantizer().unwrap();
                a.high_quantizer().unwrap();
            }
            s.weights.quantizer().unwrap();
        }
    }

    #[test]
    fn log2_softmax_modifier() {
        let s = QuantScheme::mxopal_w4a47().with_log2_softmax(5);
        assert_eq!(s.softmax, SoftmaxKind::Log2 { bits: 5 });
        assert!(s.name.contains("log2sm"));
    }

    #[test]
    fn minmax_scheme_has_no_preserved_outliers() {
        let a = QuantScheme::minmax_w4a47().acts.unwrap();
        assert_eq!(a.outliers, 0);
    }
}
