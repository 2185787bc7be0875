//! Error type for quantizer construction.

use std::error::Error;
use std::fmt;

/// Errors returned when configuring a quantizer.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum QuantError {
    /// The element bit-width is outside the supported `2..=8` range.
    InvalidBits {
        /// The rejected bit-width.
        bits: u32,
    },
    /// The block size is outside the supported range (at least 1; MX-OPAL
    /// also at most `u16::MAX`).
    InvalidBlockSize {
        /// The rejected block size.
        block_size: usize,
    },
    /// Preserving `outliers` elements in blocks of `block_size` leaves no
    /// room for the (n+1)-th element that defines the shared scale.
    TooManyOutliers {
        /// Requested preserved-outlier count.
        outliers: usize,
        /// Block size it was requested for.
        block_size: usize,
    },
    /// The outlier fraction for weight quantization must be in `[0, 0.5)`.
    InvalidOutlierFraction {
        /// The rejected fraction.
        fraction: f32,
    },
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::InvalidBits { bits } => {
                write!(f, "element bit-width {bits} is outside the supported range 2..=8")
            }
            QuantError::InvalidBlockSize { block_size } => {
                write!(f, "block size {block_size} is outside the supported range")
            }
            QuantError::TooManyOutliers { outliers, block_size } => {
                write!(f, "cannot preserve {outliers} outliers in blocks of {block_size} elements")
            }
            QuantError::InvalidOutlierFraction { fraction } => {
                write!(f, "outlier fraction {fraction} must be in [0, 0.5)")
            }
        }
    }
}

impl Error for QuantError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = QuantError::InvalidBits { bits: 9 };
        assert!(e.to_string().contains('9'));
        let e = QuantError::TooManyOutliers { outliers: 128, block_size: 128 };
        assert!(e.to_string().contains("128"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<QuantError>();
    }
}
