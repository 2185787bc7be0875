//! Software bfloat16 with field-level access.

use std::cmp::Ordering;
use std::fmt;

/// A bfloat16 value: 1 sign bit, 8 exponent bits (bias 127), 7 mantissa bits.
///
/// This is the storage and compute format used throughout the OPAL paper for
/// outliers and for the FP datapath. The type stores the raw 16 bits and
/// performs arithmetic by widening to `f32` (which is exact: every bfloat16
/// is exactly representable as an `f32`).
///
/// # Example
///
/// ```
/// use opal_numerics::Bf16;
///
/// let x = Bf16::from_f32(1.5);
/// assert_eq!(x.to_bits(), 0x3FC0);
/// assert_eq!(x.mantissa(), 0x40); // 0b100_0000: the ".5"
/// assert_eq!(x.biased_exponent(), 127);
/// ```
// `transparent`: the wide encoder kernels load and store rows of `Bf16` as
// rows of `u16`.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct Bf16(u16);

impl Bf16 {
    /// Positive zero.
    pub const ZERO: Bf16 = Bf16(0x0000);
    /// One.
    pub const ONE: Bf16 = Bf16(0x3F80);
    /// Negative one.
    pub const NEG_ONE: Bf16 = Bf16(0xBF80);
    /// Positive infinity.
    pub const INFINITY: Bf16 = Bf16(0x7F80);
    /// Negative infinity.
    pub const NEG_INFINITY: Bf16 = Bf16(0xFF80);
    /// A quiet NaN.
    pub const NAN: Bf16 = Bf16(0x7FC0);
    /// Largest finite value, `(2 - 2^-7) * 2^127`.
    pub const MAX: Bf16 = Bf16(0x7F7F);
    /// Smallest positive normal value, `2^-126`.
    pub const MIN_POSITIVE: Bf16 = Bf16(0x0080);
    /// The exponent bias.
    pub const EXPONENT_BIAS: i32 = 127;
    /// Number of explicit mantissa bits.
    pub const MANTISSA_BITS: u32 = 7;

    /// Creates a `Bf16` from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        Bf16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to `Bf16` with round-to-nearest-even.
    ///
    /// This matches the rounding performed by hardware BF16 converters
    /// (e.g. the Int-to-FP unit feeding the OPAL FP adder tree). NaN inputs
    /// produce a quiet NaN; values that overflow round to infinity.
    #[inline]
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        if value.is_nan() {
            // Preserve sign, force a quiet NaN payload.
            return Bf16(((bits >> 16) as u16 & 0x8000) | 0x7FC0);
        }
        // Round to nearest even on the 16-bit boundary.
        let lsb = (bits >> 16) & 1;
        let rounded = bits.wrapping_add(0x7FFF + lsb);
        Bf16((rounded >> 16) as u16)
    }

    /// Converts an `f32` to `Bf16` by truncation (drop the low 16 bits).
    ///
    /// Some low-cost hardware converters truncate instead of rounding; this
    /// is provided so both behaviours can be compared.
    pub fn from_f32_truncate(value: f32) -> Self {
        let bits = value.to_bits();
        if value.is_nan() {
            return Bf16(((bits >> 16) as u16 & 0x8000) | 0x7FC0);
        }
        Bf16((bits >> 16) as u16)
    }

    /// Widens to `f32` (exact).
    #[inline]
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// Returns `true` if the sign bit is set.
    #[inline]
    pub const fn is_sign_negative(self) -> bool {
        self.0 & 0x8000 != 0
    }

    /// The biased exponent field (0..=255).
    #[inline]
    pub const fn biased_exponent(self) -> u8 {
        ((self.0 >> 7) & 0xFF) as u8
    }

    /// The unbiased exponent.
    ///
    /// For normal numbers this is `biased_exponent() - 127`. Subnormals
    /// report the effective exponent of their implicit scaling, `-126`.
    /// Zero reports `-126` as well (it has no meaningful exponent; callers
    /// in the quantization path treat zero specially).
    #[inline]
    pub const fn unbiased_exponent(self) -> i32 {
        let e = self.biased_exponent();
        if e == 0 {
            -126
        } else {
            e as i32 - Self::EXPONENT_BIAS
        }
    }

    /// The 7-bit mantissa field (without the implicit leading bit).
    #[inline]
    pub const fn mantissa(self) -> u8 {
        (self.0 & 0x7F) as u8
    }

    /// The 8-bit significand including the implicit bit for normal numbers:
    /// `1.M` in units of 2^-7, i.e. a value in `128..=255` for normals and
    /// `0..=127` for subnormals/zero.
    #[inline]
    pub const fn significand(self) -> u16 {
        if self.biased_exponent() == 0 {
            self.mantissa() as u16
        } else {
            0x80 | self.mantissa() as u16
        }
    }

    /// Returns `true` for positive or negative zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 & 0x7FFF == 0
    }

    /// Returns `true` if the value is NaN.
    #[inline]
    pub const fn is_nan(self) -> bool {
        self.biased_exponent() == 0xFF && self.mantissa() != 0
    }

    /// Returns `true` for positive or negative infinity.
    #[inline]
    pub const fn is_infinite(self) -> bool {
        self.biased_exponent() == 0xFF && self.mantissa() == 0
    }

    /// Returns `true` for subnormal (denormalized) values.
    #[inline]
    pub const fn is_subnormal(self) -> bool {
        self.biased_exponent() == 0 && self.mantissa() != 0
    }

    /// Absolute value (clears the sign bit).
    #[inline]
    pub const fn abs(self) -> Self {
        Bf16(self.0 & 0x7FFF)
    }

    /// Negation (flips the sign bit).
    #[inline]
    pub const fn neg(self) -> Self {
        Bf16(self.0 ^ 0x8000)
    }

    /// Total ordering on the absolute value, suitable for top-k outlier
    /// selection: compares `|self|` with `|other|` by magnitude.
    ///
    /// NaNs order above everything (so they would be "preserved" rather than
    /// silently quantized, surfacing upstream bugs).
    #[inline]
    pub fn abs_cmp(self, other: Self) -> Ordering {
        match (self.is_nan(), other.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            // For non-NaN bfloat16, magnitude order == integer order of the
            // low 15 bits.
            (false, false) => (self.0 & 0x7FFF).cmp(&(other.0 & 0x7FFF)),
        }
    }
}

impl From<Bf16> for f32 {
    fn from(value: Bf16) -> f32 {
        value.to_f32()
    }
}

impl From<f32> for Bf16 {
    /// Round-to-nearest-even conversion, identical to [`Bf16::from_f32`].
    fn from(value: f32) -> Bf16 {
        Bf16::from_f32(value)
    }
}

impl PartialOrd for Bf16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bf16({} = {:#06x})", self.to_f32(), self.0)
    }
}

impl fmt::Display for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl fmt::LowerHex for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_exact_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 3.25, -3.25, 65280.0] {
            assert_eq!(Bf16::from_f32(v).to_f32(), v, "value {v}");
        }
    }

    #[test]
    fn constants_match_f32() {
        assert_eq!(Bf16::ZERO.to_f32(), 0.0);
        assert_eq!(Bf16::ONE.to_f32(), 1.0);
        assert_eq!(Bf16::NEG_ONE.to_f32(), -1.0);
        assert!(Bf16::INFINITY.to_f32().is_infinite());
        assert!(Bf16::NAN.is_nan());
        assert_eq!(Bf16::MIN_POSITIVE.to_f32(), f32::powi(2.0, -126));
    }

    #[test]
    fn round_to_nearest_even() {
        // 1.0 + 2^-8 is exactly halfway between bf16(1.0) and the next
        // representable value; RNE must pick the even mantissa (1.0).
        let halfway = 1.0 + f32::powi(2.0, -8);
        assert_eq!(Bf16::from_f32(halfway).to_f32(), 1.0);
        // 1.0 + 3*2^-9 is above halfway: rounds up to 1.0 + 2^-7.
        let above = 1.0 + 3.0 * f32::powi(2.0, -9);
        assert_eq!(Bf16::from_f32(above).to_f32(), 1.0 + f32::powi(2.0, -7));
        // Odd mantissa halfway case rounds *up* to even.
        let base = 1.0 + f32::powi(2.0, -7); // mantissa 0b0000001 (odd)
        let halfway_up = base + f32::powi(2.0, -8);
        assert_eq!(Bf16::from_f32(halfway_up).to_f32(), 1.0 + 2.0 * f32::powi(2.0, -7));
    }

    #[test]
    fn truncate_drops_low_bits() {
        let v = 1.0 + f32::powi(2.0, -8) + f32::powi(2.0, -9);
        assert_eq!(Bf16::from_f32_truncate(v).to_f32(), 1.0);
    }

    #[test]
    fn nan_conversion_is_quiet() {
        let nan = Bf16::from_f32(f32::NAN);
        assert!(nan.is_nan());
        let neg_nan = Bf16::from_f32(f32::from_bits(0xFF80_0001));
        assert!(neg_nan.is_nan());
        assert!(neg_nan.is_sign_negative());
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        assert!(Bf16::from_f32(f32::MAX).is_infinite());
        assert!(Bf16::from_f32(-f32::MAX).to_f32().is_infinite());
    }

    #[test]
    fn fields_of_example_from_paper() {
        // Fig. 2(a) shows an element with biased exponent 130.
        let x = Bf16::from_f32(13.0); // 1.625 * 2^3 -> biased exp 130
        assert_eq!(x.biased_exponent(), 130);
        assert_eq!(x.unbiased_exponent(), 3);
        assert_eq!(x.significand(), 0x80 | x.mantissa() as u16);
    }

    #[test]
    fn subnormal_fields() {
        let sub = Bf16::from_bits(0x0001);
        assert!(sub.is_subnormal());
        assert_eq!(sub.significand(), 1);
        assert_eq!(sub.unbiased_exponent(), -126);
        assert!(sub.to_f32() > 0.0);
    }

    #[test]
    fn abs_and_neg() {
        let x = Bf16::from_f32(-2.5);
        assert_eq!(x.abs().to_f32(), 2.5);
        assert_eq!(x.neg().to_f32(), 2.5);
        assert_eq!(x.neg().neg(), x);
    }

    #[test]
    fn abs_cmp_orders_by_magnitude() {
        let a = Bf16::from_f32(-4.0);
        let b = Bf16::from_f32(3.0);
        assert_eq!(a.abs_cmp(b), Ordering::Greater);
        assert_eq!(b.abs_cmp(a), Ordering::Less);
        assert_eq!(a.abs_cmp(Bf16::from_f32(4.0)), Ordering::Equal);
        assert_eq!(Bf16::NAN.abs_cmp(Bf16::MAX), Ordering::Greater);
    }

    #[test]
    fn zero_detection() {
        assert!(Bf16::from_f32(0.0).is_zero());
        assert!(Bf16::from_f32(-0.0).is_zero());
        assert!(!Bf16::from_f32(1e-30).is_zero() || Bf16::from_f32(1e-30).to_f32() == 0.0);
    }
}
