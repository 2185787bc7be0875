//! Minimal dense tensor substrate for the OPAL reproduction.
//!
//! The OPAL evaluation runs decoder-only transformers; this crate provides
//! the row-major `f32` matrix type and the neural-network primitives those
//! models need (matmul/matvec, LayerNorm, RMSNorm, activations, rotary
//! position embedding) plus deterministic random initialization and the
//! statistics helpers used by the quantization-error analyses (Fig. 3/4).
//!
//! Everything is plain `f32` — quantized execution is modelled by *quantize →
//! dequantize → f32 compute*, which is numerically identical to integer
//! compute followed by a single rescale (see
//! `opal_numerics::convert::acc_to_f32`) and is the standard methodology for
//! quantization accuracy studies (the paper itself uses QPyTorch's simulated
//! BFP).
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

// `deny`, not `forbid`: the feature-boundary calls and the code kernels'
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
