//! Quantizers for the OPAL reproduction.
//!
//! This crate implements the three activation quantizers compared throughout
//! the paper plus the OWQ-style weight quantizer:
//!
//! * [`MinMaxQuantizer`] — the conventional dynamic integer quantizer
//!   (ZeroQuant-style): per-group min/max extraction, FP scale division.
//! * [`MxIntQuantizer`] — the original microscaling integer format
//!   (MXINT / block floating point): one shared exponent per block, elements
//!   quantized by mantissa shifts.
//! * [`MxOpalQuantizer`] — the paper's contribution: MXINT with the top-`n`
//!   outliers of each block preserved in bfloat16 and the shared scale taken
//!   from the (n+1)-th largest element, encoded as a tensor-wise global
//!   exponent plus a 4-bit per-block offset (Fig. 2(c), §3).
//! * [`OwqQuantizer`] — outlier-aware weight quantization: the most
//!   activation-sensitive input channels stay in bfloat16, the rest are
//!   INT3/INT4 (§2.1, used for all weights in the OPAL evaluation).
//!
//! All activation quantizers implement the [`Quantizer`] trait, whose
//! `quantize_dequantize` models the numerical effect of running the format
//! on hardware (integer compute + single rescale ≡ dequantized f32 compute).
//!
//! # Example
//!
//! ```
//! use opal_quant::{MxOpalQuantizer, Quantizer};
//!
//! let q = MxOpalQuantizer::new(4, 128, 4)?;
//! let mut x = vec![0.01f32; 128];
//! x[7] = 40.0; // an outlier
//! let y = q.quantize_dequantize(&x);
//! assert_eq!(y[7], 40.0); // outlier preserved exactly (it is a bf16 value)
//! # Ok::<(), opal_quant::QuantError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod error;
mod minmax;
mod mxint;
mod mxopal;
pub mod overhead;
mod owq;

pub use error::QuantError;
pub use minmax::MinMaxQuantizer;
pub use mxint::{MxIntBlock, MxIntQuantizer};
pub use mxopal::{EncodeScratch, MxOpalBlock, MxOpalQuantizer, MxOpalTensor};
pub use owq::{OwqQuantizer, OwqWeights};

/// A lossy numeric format: quantize a slice and reconstruct it.
///
/// The round trip is the *fake quantization* used for accuracy studies: it
/// produces exactly the values the hardware datapath would compute with
/// (integer elements × power-of-two scales, plus preserved outliers).
pub trait Quantizer {
    /// Quantizes `x` and writes the reconstructed real values into `out`,
    /// staging any intermediate state in a caller-owned [`EncodeScratch`].
    ///
    /// This is the one entry point the decode loop calls, a row at a time:
    /// block-local formats (MinMax, MXINT) ignore the workspace and
    /// are allocation-free by construction; the tensor-global MX-OPAL
    /// encoder stages its per-block plans in `scratch`, whose buffers grow
    /// to the largest row seen and then carry capacity, never state.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != x.len()`.
    fn quantize_dequantize_scratch(&self, x: &[f32], out: &mut [f32], scratch: &mut EncodeScratch);

    /// Quantizes `x` and immediately reconstructs real values: the
    /// allocating convenience over
    /// [`Quantizer::quantize_dequantize_scratch`], with a fresh workspace.
    fn quantize_dequantize(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; x.len()];
        self.quantize_dequantize_scratch(x, &mut out, &mut EncodeScratch::new());
        out
    }

    /// Short human-readable name for reports ("MXINT4", "MX-OPAL3", …).
    fn name(&self) -> String;

    /// Total storage footprint in bits for a tensor of `len` elements,
    /// including scales, offsets and preserved outliers.
    fn storage_bits(&self, len: usize) -> usize;
}

/// Applies a [`Quantizer`] row-wise to a matrix (each row is quantized
/// independently, matching per-token activation quantization).
pub fn quantize_matrix_rows(q: &dyn Quantizer, m: &opal_tensor::Matrix) -> opal_tensor::Matrix {
    let mut out = opal_tensor::Matrix::zeros(m.rows(), m.cols());
    for r in 0..m.rows() {
        let dq = q.quantize_dequantize(m.row(r));
        out.row_mut(r).copy_from_slice(&dq);
    }
    out
}
