//! Minimal dense tensor substrate for the OPAL reproduction.
//!
//! The OPAL evaluation runs decoder-only transformers; this crate provides
//! the row-major `f32` matrix type and the neural-network primitives those
//! models need (matmul/matvec, LayerNorm, RMSNorm, activations, rotary
//! position embedding) plus deterministic random initialization and the
//! statistics helpers used by the quantization-error analyses (Fig. 3/4).
//!
//! Arithmetic is plain `f32` (a bfloat16 weight or cached row is stored as
//! its 16 bits and read as the `f32` it widens to, see [`Lane`]) —
//! quantized execution is modelled by *quantize → dequantize → f32
//! compute*, which is numerically identical to integer compute followed by
//! a single rescale (see `opal_numerics::convert::acc_to_f32`) and is the
//! standard methodology for quantization accuracy studies (the paper itself
//! uses QPyTorch's simulated BFP).
//!
//! # Example
//!
//! ```
//! use opal_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! assert_eq!(a.matmul(&b).as_slice(), a.as_slice());
//! ```

// `deny`, not `forbid`: the feature-boundary calls and the wide kernels'
// vector load / store helpers in `simd.rs` carry the crate's only
// `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod codes;
mod matrix;
pub mod ops;
pub mod rng;
#[cfg(target_arch = "x86_64")]
mod simd;
pub mod stats;

pub use codes::{CodeActs, CodeRowMut, CodeWeights};
pub use matrix::Matrix;

use opal_numerics::Bf16;

/// An element type the dense kernels store and read as `f32`: `f32`
/// itself, or a bfloat16 value, whose widening to `f32` is exact. The
/// weight operand of [`Matrix::matmul_t_into`] and the cached rows of
/// [`ops::dot_tile`] and [`ops::axpy_tile`] are either; the portable loops
/// widen each element and run the `f32` spec, and the wide ones widen
/// lanes in registers (a bfloat16 lane is the high half of its `f32`).
/// Sealed: the wide kernels know both types.
pub trait Lane: Copy + PartialEq + Send + Sync + 'static + sealed::Sealed {
    /// The value as `f32` (exact).
    fn to_f32(self) -> f32;
}

impl Lane for f32 {
    #[inline(always)]
    fn to_f32(self) -> f32 {
        self
    }
}

impl Lane for Bf16 {
    #[inline(always)]
    fn to_f32(self) -> f32 {
        Bf16::to_f32(self)
    }
}

mod sealed {
    use opal_numerics::Bf16;

    /// A fixed-size run of [`super::Lane`] elements as the type it is, so
    /// that a wide kernel generic over the lane type picks its widening
    /// per instantiation (the match folds away).
    #[cfg(target_arch = "x86_64")]
    pub enum Chunk<'a, const N: usize> {
        F32(&'a [f32; N]),
        Bf16(&'a [Bf16; N]),
    }

    pub trait Sealed: Sized {
        #[cfg(target_arch = "x86_64")]
        fn chunk<const N: usize>(c: &[Self; N]) -> Chunk<'_, N>;
    }

    impl Sealed for f32 {
        #[cfg(target_arch = "x86_64")]
        #[inline(always)]
        fn chunk<const N: usize>(c: &[f32; N]) -> Chunk<'_, N> {
            Chunk::F32(c)
        }
    }

    impl Sealed for Bf16 {
        #[cfg(target_arch = "x86_64")]
        #[inline(always)]
        fn chunk<const N: usize>(c: &[Bf16; N]) -> Chunk<'_, N> {
            Chunk::Bf16(c)
        }
    }
}

/// The inner loops this CPU takes in the kernels that pick one at run time
/// (`Matrix::matvec_into` / `matmul_t_into`, [`ops::dot_tile`], the code
/// and attention tiles, [`ops::matmul_codes`] and the MX-OPAL encoder
/// kernels). Every such kernel dispatches on this query and returns the
/// same bits on either path; there is no switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelPath {
    /// AVX and FMA: the matrix products and [`ops::dot_tile`] run
    /// [`ops::dot`]'s lane schedule eight rows at a time.
    pub wide_dot: bool,
    /// AVX2: the code and attention tiles and the encoder kernels run
    /// their wide loops; [`ops::matmul_codes`] needs this and `wide_dot`.
    pub wide_codes: bool,
}

impl KernelPath {
    /// This CPU's path (`std` caches the feature bits after the first
    /// call). Both fields are `false` off x86-64.
    #[inline]
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        return KernelPath {
            wide_dot: is_x86_feature_detected!("avx") && is_x86_feature_detected!("fma"),
            wide_codes: is_x86_feature_detected!("avx2"),
        };
        #[cfg(not(target_arch = "x86_64"))]
        KernelPath { wide_dot: false, wide_codes: false }
    }
}
