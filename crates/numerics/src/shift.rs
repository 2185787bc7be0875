//! Shift-based quantization: the core MXINT datapath of Fig. 2.
//!
//! Converting a bfloat16 element to a `b`-bit signed integer under a
//! block-shared power-of-two scale requires only a right shift of the
//! significand — this is the property that lets OPAL replace the FP dividers
//! of a conventional dynamic quantizer with shifters.
//!
//! The convention used throughout this workspace: for a block with shared
//! (unbiased) scale exponent `s` and element bit-width `b` (sign + `b-1`
//! magnitude bits), the quantized integer `q` represents the value
//! `q * 2^(s - (b - 2))`. The element whose exponent *is* `s` then lands in
//! `[2^(b-2), 2^(b-1))`, i.e. it uses the full magnitude range without
//! overflow, matching the "element w/ max exponent" row of Fig. 2(b).

use crate::Bf16;

/// Rounding behaviour of the shift quantizer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Rounding {
    /// Truncate shifted-out bits (round toward zero on the magnitude).
    ///
    /// This is what a bare right-shifter does and is the behaviour drawn in
    /// Fig. 2(b) of the paper, where small elements underflow to zero.
    Truncate,
    /// Round to nearest, ties to even, on the shifted-out bits (the rule
    /// [`Bf16::from_f32`] uses).
    ///
    /// One extra adder in hardware; used as the accuracy reference.
    #[default]
    NearestEven,
}

/// Quantizes a bfloat16 element to a `b`-bit signed integer under the shared
/// scale `shared_scale` (an unbiased exponent) using only shifts.
///
/// Returns `q` such that the represented value is `q * 2^(shared_scale - (bits - 2))`,
/// with `q` clamped to `[-(2^(bits-1) - 1), 2^(bits-1) - 1]` (symmetric range;
/// the most negative two's-complement code is unused, as is conventional for
/// symmetric integer quantization).
///
/// Subnormal inputs are flushed to zero (they are ≥ 2^49 below any practical
/// shared scale, so the shifter would zero them anyway).
///
/// # Panics
///
/// Panics if `bits` is not in `2..=8` (the hardware supports 3/4/5/7-bit
/// elements; 2 and 8 are included for the paper's Fig. 3 and Fig. 4 sweeps).
///
/// # Example
///
/// ```
/// use opal_numerics::{shift_quantize, Bf16, Rounding};
///
/// // Block scale 3 (max element in [8, 16)), 4-bit elements:
/// // value 12.0 = 1.5 * 2^3 -> q = 12 / 2^(3-2) = 6.
/// let q = shift_quantize(Bf16::from_f32(12.0), 3, 4, Rounding::NearestEven);
/// assert_eq!(q, 6);
///
/// // A tie goes to the even neighbour: 5.0 is 2.5 steps and stays at 2,
/// // 7.0 is 3.5 steps and goes up to 4. Truncation drops the half.
/// assert_eq!(shift_quantize(Bf16::from_f32(5.0), 3, 4, Rounding::NearestEven), 2);
/// assert_eq!(shift_quantize(Bf16::from_f32(7.0), 3, 4, Rounding::NearestEven), 4);
/// assert_eq!(shift_quantize(Bf16::from_f32(-7.0), 3, 4, Rounding::Truncate), -3);
/// ```
// Branch-free on purpose: the MX-OPAL encoders call this once per element,
// and on activation data the round-up and the sign are coin flips, so a
// branch on either mispredicts every other element. Everything below is a
// select or an arithmetic identity; `tests::reference` keeps the branching
// form as the oracle.
#[inline]
pub fn shift_quantize(x: Bf16, shared_scale: i32, bits: u32, rounding: Rounding) -> i32 {
    assert!((2..=8).contains(&bits), "element bit-width must be 2..=8");
    debug_assert!(!x.is_nan() && !x.is_infinite(), "non-finite input {x:?}");

    let raw = i32::from(x.to_bits());
    let field = (raw >> 7) & 0xFF; // biased exponent
    let sig = 0x80 | (raw & 0x7F); // 8-bit 1.M, units of 2^-7
    let qmax = (1i32 << (bits - 1)) - 1;

    // q_exact = sig * 2^(exp - 7 - (shared_scale - (bits - 2)))
    //         = sig * 2^(exp - shared_scale + bits - 9)
    let shift = shared_scale - (field - Bf16::EXPONENT_BIAS) + 9 - bits as i32;
    // An 8-bit significand shifted right by 9 or more is 0 under either
    // rounding, so every larger shift is that one.
    let sh = shift.clamp(1, 9) as u32;
    let kept = sig >> sh;
    let dropped = sig & ((1 << sh) - 1);
    let half = 1 << (sh - 1);
    let round_up = matches!(rounding, Rounding::NearestEven)
        & ((dropped > half) | ((dropped == half) & (kept & 1 == 1)));
    // Element exponent above the shared scale (`shift <= 0`, possible when a
    // caller clamps scales): a normal significand is at least 2^7 > qmax
    // before any left shift, so the value saturates.
    let magnitude = if shift <= 0 { qmax } else { (kept + i32::from(round_up)).min(qmax) };
    // Zero and subnormals flush to zero.
    let magnitude = if field == 0 { 0 } else { magnitude };
    let neg = -(raw >> 15); // 0, or -1 when the sign bit is set
    (magnitude ^ neg) - neg
}

/// Reconstructs the real value represented by a quantized integer `q` under
/// shared scale `shared_scale` and bit-width `bits`.
///
/// This is the inverse scaling applied by the Int-to-FP unit:
/// `q * 2^(shared_scale - (bits - 2))`.
///
/// # Example
///
/// ```
/// use opal_numerics::shift_dequantize;
///
/// assert_eq!(shift_dequantize(6, 3, 4), 12.0);
/// ```
#[inline]
pub fn shift_dequantize(q: i32, shared_scale: i32, bits: u32) -> f32 {
    q as f32 * exp2i(shared_scale - (bits as i32 - 2))
}

/// The quantization step size for a given shared scale and bit-width:
/// `2^(shared_scale - (bits - 2))`.
#[inline]
pub fn step_size(shared_scale: i32, bits: u32) -> f32 {
    exp2i(shared_scale - (bits as i32 - 2))
}

/// Computes `2^e` for integer `e`, saturating to 0 / infinity outside the
/// `f32` range. Exact for `e` in `[-126, 127]`.
#[inline]
pub fn exp2i(e: i32) -> f32 {
    if e >= 128 {
        f32::INFINITY
    } else if e >= -126 {
        f32::from_bits(((e + 127) as u32) << 23)
    } else if e >= -149 {
        // Subnormal range.
        f32::from_bits(1u32 << (e + 149))
    } else {
        0.0
    }
}

/// Extracts the unbiased exponent of the largest-magnitude finite value in a
/// slice, i.e. the MXINT shared scale of Fig. 2(b).
///
/// Returns `None` if the slice is empty or all elements are zero/subnormal.
pub fn max_exponent(values: &[Bf16]) -> Option<i32> {
    values.iter().filter(|v| !v.is_zero() && !v.is_subnormal()).map(|v| v.unbiased_exponent()).max()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(x: f32, s: i32, b: u32, r: Rounding) -> i32 {
        shift_quantize(Bf16::from_f32(x), s, b, r)
    }

    /// The branching form of [`shift_quantize`], one arm per case of Fig. 2:
    /// what the function was before it went branch-free, kept as its oracle.
    fn reference(x: Bf16, shared_scale: i32, bits: u32, rounding: Rounding) -> i32 {
        if x.is_zero() || x.is_subnormal() {
            return 0;
        }
        let qmax = (1i32 << (bits - 1)) - 1;
        let sig = x.significand() as u64; // 8-bit 1.M, units of 2^-7
        let exp = x.unbiased_exponent();

        let shift = (shared_scale - exp) + 9 - bits as i32;
        let magnitude: i64 = if shift <= 0 {
            // Element exponent above the shared scale: saturate.
            let left = (-shift).min(32) as u32;
            ((sig as i64) << left).min(i64::from(qmax) + 1)
        } else if shift >= 64 {
            0
        } else {
            let shift = shift as u32;
            let kept = (sig >> shift) as i64;
            match rounding {
                Rounding::Truncate => kept,
                Rounding::NearestEven => {
                    let dropped = sig & ((1u64 << shift) - 1);
                    let half = 1u64 << (shift - 1);
                    if dropped > half || (dropped == half && kept & 1 == 1) {
                        kept + 1
                    } else {
                        kept
                    }
                }
            }
        };

        let magnitude = magnitude.min(i64::from(qmax)) as i32;
        if x.is_sign_negative() {
            -magnitude
        } else {
            magnitude
        }
    }

    #[test]
    fn branch_free_body_matches_the_branching_reference() {
        // Every sign and significand, against every right shift the body
        // distinguishes (1..=9), the saturating side (<= 0) and far past the
        // point where everything has shifted out; at an exponent field of 0
        // (zero and subnormals), the two ends of the normal range and the
        // middle. `shift = scale - exp + 9 - bits` fixes the scale.
        let mut cases = 0u32;
        for field in [0u16, 1, 127, 254] {
            let exp = i32::from(field.max(1)) - Bf16::EXPONENT_BIAS;
            for sign in [0u16, 0x8000] {
                for mantissa in 0u16..128 {
                    let x = Bf16::from_bits(sign | (field << 7) | mantissa);
                    for bits in 2u32..=8 {
                        for shift in -40i32..=70 {
                            let scale = shift + exp - 9 + bits as i32;
                            for r in [Rounding::Truncate, Rounding::NearestEven] {
                                assert_eq!(
                                    shift_quantize(x, scale, bits, r),
                                    reference(x, scale, bits, r),
                                    "x={x:?} scale={scale} bits={bits} {r:?} (shift {shift})"
                                );
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 4 * 2 * 128 * 7 * 111 * 2);
    }

    #[test]
    fn max_element_uses_top_bin() {
        // Max element 12.0, exponent 3 -> shared scale 3.
        // 8-bit: q = 12 / 2^(3-6) = 96; range +-127. Top half used.
        assert_eq!(q(12.0, 3, 8, Rounding::NearestEven), 96);
        // 4-bit: q = 12 / 2 = 6 within +-7.
        assert_eq!(q(12.0, 3, 4, Rounding::NearestEven), 6);
        // 3-bit: q = 12 / 4 = 3 within +-3.
        assert_eq!(q(12.0, 3, 3, Rounding::NearestEven), 3);
    }

    #[test]
    fn exact_boundary_element_saturates_cleanly() {
        // 15.5 has exponent 3; q_exact = 15.5/2 = 7.75 -> rounds to 8,
        // clamps to 7 at 4 bits.
        assert_eq!(q(15.5, 3, 4, Rounding::NearestEven), 7);
        assert_eq!(q(15.5, 3, 4, Rounding::Truncate), 7);
    }

    #[test]
    fn small_elements_underflow_with_truncation() {
        // The Fig. 2(b) effect: element far below the shared scale
        // truncates to zero ("shifted zero").
        assert_eq!(q(0.02, 3, 4, Rounding::Truncate), 0);
        // Nearest rounding also gives zero here (0.02 / 2 = 0.01 < 0.5).
        assert_eq!(q(0.02, 3, 4, Rounding::NearestEven), 0);
        // But a value just under half a step survives rounding and not
        // truncation.
        let step = step_size(3, 4); // 2.0
        let v = 0.6 * step;
        assert_eq!(q(v, 3, 4, Rounding::Truncate), 0);
        assert_eq!(q(v, 3, 4, Rounding::NearestEven), 1);
    }

    #[test]
    fn signs_are_symmetric() {
        for b in 2..=8 {
            for v in [0.3f32, 1.0, 5.5, 12.0, 100.0] {
                let p = q(v, 7, b, Rounding::NearestEven);
                let n = q(-v, 7, b, Rounding::NearestEven);
                assert_eq!(p, -n, "v={v} b={b}");
            }
        }
    }

    #[test]
    fn zero_and_subnormal_flush() {
        assert_eq!(q(0.0, 0, 4, Rounding::NearestEven), 0);
        assert_eq!(q(-0.0, 0, 4, Rounding::NearestEven), 0);
        let sub = Bf16::from_bits(0x0010);
        assert_eq!(shift_quantize(sub, 0, 4, Rounding::NearestEven), 0);
    }

    #[test]
    fn above_scale_saturates() {
        // Exponent 5 element against shared scale 3: saturate to qmax.
        assert_eq!(q(40.0, 3, 4, Rounding::NearestEven), 7);
        assert_eq!(q(-40.0, 3, 4, Rounding::NearestEven), -7);
    }

    #[test]
    fn dequantize_inverts_exactly_on_grid() {
        for b in [3u32, 4, 5, 7, 8] {
            let s = 2;
            for qv in -(1i32 << (b - 1)) + 1..(1i32 << (b - 1)) {
                let v = shift_dequantize(qv, s, b);
                let back = q(v, s, b, Rounding::NearestEven);
                assert_eq!(back, qv, "b={b} q={qv}");
            }
        }
    }

    #[test]
    fn matches_float_reference_quantizer() {
        // shift-based RNE must agree with round(x / step) computed in f64
        // for every bf16 in a representative range.
        for bits in [3u32, 4, 5, 7, 8] {
            let s = 4;
            let step = f64::from(step_size(s, bits));
            let qmax = (1i64 << (bits - 1)) - 1;
            for raw in 0x3000u16..0x4400 {
                let x = Bf16::from_bits(raw);
                let expect_mag = {
                    let t = (f64::from(x.to_f32().abs()) / step).abs();
                    // round half to even
                    let fl = t.floor();
                    let frac = t - fl;
                    let r = if (frac - 0.5).abs() < 1e-12 {
                        if (fl as i64) % 2 == 0 {
                            fl as i64
                        } else {
                            fl as i64 + 1
                        }
                    } else {
                        t.round() as i64
                    };
                    r.min(qmax)
                };
                let got = shift_quantize(x, s, bits, Rounding::NearestEven);
                assert_eq!(got as i64, expect_mag, "bits={bits} x={x:?}");
            }
        }
    }

    #[test]
    fn truncate_never_exceeds_rne_magnitude() {
        for raw in (0u16..0x7F80).step_by(17) {
            let x = Bf16::from_bits(raw);
            let t = shift_quantize(x, 6, 5, Rounding::Truncate).abs();
            let r = shift_quantize(x, 6, 5, Rounding::NearestEven).abs();
            assert!(t <= r, "x={x:?} trunc={t} rne={r}");
        }
    }

    #[test]
    fn exp2i_matches_powi() {
        for e in -149..=127 {
            // `powi` flushes subnormal results to zero on some targets;
            // `powf` via f64 is exact for powers of two in the f32 range.
            let expect = 2.0f64.powi(e) as f32;
            assert_eq!(exp2i(e), expect, "e={e}");
        }
        assert_eq!(exp2i(-200), 0.0);
        assert!(exp2i(130).is_infinite());
    }

    #[test]
    fn max_exponent_examples() {
        let vals: Vec<Bf16> = [0.5f32, -6.0, 2.0, 0.0].iter().map(|&v| Bf16::from_f32(v)).collect();
        assert_eq!(max_exponent(&vals), Some(2)); // -6.0 = 1.5*2^2
        assert_eq!(max_exponent(&[]), None);
        assert_eq!(max_exponent(&[Bf16::ZERO]), None);
    }
}
