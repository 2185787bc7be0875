//! Structural (bit-exact) simulation of one OPAL compute lane.
//!
//! The analytical models elsewhere in this crate count operations; this
//! module *executes* the Fig. 6 datapath on real MX-OPAL data, step by
//! step:
//!
//! 1. the **data distributor** routes non-outlier integers to the INT
//!    multiply units and preserved bfloat16 outliers (plus the matching
//!    BF16 weight channels) to the FP units;
//! 2. the **INT MUs** multiply `b`-bit activation codes with weight codes;
//! 3. the **INT adder tree** reduces the products to one accumulator;
//! 4. the **Int-to-FP unit** rescales by the product of the two shared
//!    scales and converts to bfloat16;
//! 5. the **FP adder tree** merges the integer partial sum with the
//!    outlier FP partial sum.
//!
//! The result is validated against plain f32 arithmetic on the dequantized
//! operands — proving the whole quantized pipeline computes exactly what
//! the accuracy simulations in `opal-model` assume it computes.

use opal_numerics::convert::{acc_to_f32, product_scale_exp};
use opal_numerics::Bf16;
use opal_quant::{MxOpalQuantizer, MxOpalTensor, QuantError};

/// Cycle/operation counters collected while executing a lane MxV.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneTrace {
    /// Integer multiplies executed on INT MUs.
    pub int_macs: u64,
    /// bfloat16 multiplies executed on FP units (outlier path).
    pub fp_macs: u64,
    /// Elements routed by the distributor.
    pub routed: u64,
}

impl LaneTrace {
    /// Fraction of multiplies served by INT hardware.
    pub fn int_fraction(&self) -> f64 {
        let total = self.int_macs + self.fp_macs;
        if total == 0 {
            return 1.0;
        }
        self.int_macs as f64 / total as f64
    }
}

/// One compute lane executing a dot product between an MX-OPAL-encoded
/// activation vector and an MX-OPAL-encoded weight vector.
///
/// Both operands use the same block structure; weights in the real design
/// are OWQ INT3/INT4, which is representable as an MX-OPAL tensor with a
/// per-block scale and its own (channel) outliers in BF16, so one datapath
/// covers both (§4.3.1: weight channels aligned with activation outliers
/// are converted to BF16 too).
#[derive(Debug, Default)]
pub struct LaneSimulator {
    trace: LaneTrace,
}

impl LaneSimulator {
    /// Creates a lane with zeroed trace counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated operation trace.
    pub fn trace(&self) -> LaneTrace {
        self.trace
    }

    /// Executes `⟨activations, weights⟩` through the structural datapath.
    ///
    /// # Panics
    ///
    /// Panics if the two tensors have different lengths or block sizes.
    pub fn dot(&mut self, acts: &MxOpalTensor, weights: &MxOpalTensor) -> f32 {
        assert_eq!(acts.len(), weights.len(), "operand length mismatch");
        assert_eq!(acts.block_size(), weights.block_size(), "block size mismatch");

        let mut fp_sum = 0.0f32; // FP adder tree accumulator (outlier path)
        let mut int_fp_sum = 0.0f32; // merged Int-to-FP partial sums

        for (ab, wb) in acts.blocks.iter().zip(&weights.blocks) {
            let a_scale = acts.global_scale + i32::from(ab.scale_offset);
            let w_scale = weights.global_scale + i32::from(wb.scale_offset);

            // The distributor: positions where either operand holds a
            // preserved BF16 value go to the FP units.
            let a_out: Vec<u16> = ab.outliers.iter().map(|&(i, _)| i).collect();
            let w_out: Vec<u16> = wb.outliers.iter().map(|&(i, _)| i).collect();

            let mut int_acc: i64 = 0;
            for i in 0..ab.elements.len() {
                self.trace.routed += 1;
                let idx = i as u16;
                let a_is_out = a_out.contains(&idx);
                let w_is_out = w_out.contains(&idx);
                if a_is_out || w_is_out {
                    // FP path: reconstruct each side in bf16.
                    let av = if a_is_out {
                        ab.outliers.iter().find(|&&(j, _)| j == idx).map(|&(_, v)| v)
                    } else {
                        None
                    }
                    .unwrap_or_else(|| {
                        Bf16::from_f32(opal_numerics::shift_dequantize(
                            ab.elements[i],
                            a_scale,
                            acts.bits(),
                        ))
                    });
                    let wv = if w_is_out {
                        wb.outliers.iter().find(|&&(j, _)| j == idx).map(|&(_, v)| v)
                    } else {
                        None
                    }
                    .unwrap_or_else(|| {
                        Bf16::from_f32(opal_numerics::shift_dequantize(
                            wb.elements[i],
                            w_scale,
                            weights.bits(),
                        ))
                    });
                    fp_sum += av.to_f32() * wv.to_f32();
                    self.trace.fp_macs += 1;
                } else {
                    // INT MU: pure integer multiply into the adder tree.
                    int_acc += i64::from(ab.elements[i]) * i64::from(wb.elements[i]);
                    self.trace.int_macs += 1;
                }
            }
            // Int-to-FP unit: one rescale per block pair.
            int_fp_sum += acc_to_f32(
                int_acc,
                product_scale_exp(a_scale, acts.bits(), w_scale, weights.bits()),
            );
        }

        // FP adder tree output.
        int_fp_sum + fp_sum
    }
}

/// Quantizes both operands and runs them through the lane, returning the
/// structural result, the f32 reference on the dequantized values, and the
/// trace.
///
/// # Errors
///
/// Propagates quantizer configuration errors.
pub fn simulate_dot(
    acts: &[f32],
    weights: &[f32],
    act_bits: u32,
    weight_bits: u32,
    block: usize,
    outliers: usize,
) -> Result<(f32, f32, LaneTrace), QuantError> {
    let aq = MxOpalQuantizer::new(act_bits, block, outliers)?;
    let wq = MxOpalQuantizer::new(weight_bits, block, outliers)?;
    let at = aq.quantize(acts);
    let wt = wq.quantize(weights);

    let mut lane = LaneSimulator::new();
    let structural = lane.dot(&at, &wt);

    let reference: f64 = at
        .dequantize()
        .iter()
        .zip(&wt.dequantize())
        .map(|(&a, &w)| f64::from(a) * f64::from(w))
        .sum();

    Ok((structural, reference as f32, lane.trace()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use opal_tensor::rng::TensorRng;

    fn operands(len: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut rng = TensorRng::seed(seed);
        let ch = rng.distinct_indices(len, (len / 64).max(1));
        let acts = rng.outlier_vector(len, 1.0, &ch, 40.0);
        let weights: Vec<f32> = (0..len).map(|_| rng.normal(0.0, 0.05)).collect();
        (acts, weights)
    }

    #[test]
    fn structural_result_matches_reference_math() {
        for seed in [1u64, 2, 3, 9] {
            let (a, w) = operands(256, seed);
            let (structural, reference, _) = simulate_dot(&a, &w, 7, 4, 128, 4).unwrap();
            let tol = reference.abs() * 1e-3 + 1e-2;
            assert!(
                (structural - reference).abs() <= tol,
                "seed {seed}: structural {structural} vs reference {reference}"
            );
        }
    }

    #[test]
    fn int_fraction_matches_outlier_budget() {
        // 4 activation outliers + 4 weight outliers per 128-block: between
        // ~94% and ~97% of positions stay on the INT path (overlaps allowed).
        let (a, w) = operands(1024, 5);
        let (_, _, trace) = simulate_dot(&a, &w, 7, 4, 128, 4).unwrap();
        let f = trace.int_fraction();
        assert!((0.92..0.97).contains(&f), "int fraction {f}");
        assert_eq!(trace.routed, 1024);
    }

    #[test]
    fn no_outliers_means_pure_int() {
        let (a, w) = operands(128, 7);
        let (_, _, trace) = simulate_dot(&a, &w, 5, 3, 128, 0).unwrap();
        assert_eq!(trace.fp_macs, 0);
        assert_eq!(trace.int_macs, 128);
        assert_eq!(trace.int_fraction(), 1.0);
    }

    #[test]
    fn low_low_mode_operands_work() {
        // 3-bit × 3-bit (the low-low mode of Fig. 7).
        let (a, w) = operands(128, 11);
        let (structural, reference, _) = simulate_dot(&a, &w, 3, 3, 128, 4).unwrap();
        let tol = reference.abs() * 1e-3 + 1e-2;
        assert!((structural - reference).abs() <= tol);
    }

    #[test]
    fn empty_operands() {
        let mut lane = LaneSimulator::new();
        let q = MxOpalQuantizer::new(4, 128, 4).unwrap();
        let t = q.quantize(&[]);
        assert_eq!(lane.dot(&t, &t), 0.0);
        assert_eq!(lane.trace().routed, 0);
    }
}
