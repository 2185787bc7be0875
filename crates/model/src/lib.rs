//! Decoder-only transformer simulator for the OPAL reproduction.
//!
//! This crate supplies the "LLM" of the evaluation: a from-scratch
//! decoder-only transformer (Llama-style RMSNorm/gated-SiLU or OPT-style
//! LayerNorm/ReLU) with deterministic synthetic weights engineered to show
//! the channel-persistent activation outliers that motivate the paper, plus:
//!
//! * quantization hook points at every MxV input of Fig. 5 — activations are
//!   quantized low-bit after LayerNorm and high-bit elsewhere,
//! * OWQ weight calibration/quantization at model build,
//! * exchangeable exact / log2-based softmax,
//! * a KV-cache generation loop (the paper targets single-batch generation),
//! * the perplexity and multiple-choice evaluation proxies used to
//!   regenerate Table 1 and Table 2 (see `DESIGN.md` for the substitution
//!   argument).
//!
//! # Example
//!
//! ```
//! use opal_model::{eval, Model, ModelConfig, QuantScheme};
//!
//! let teacher = Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 1)?;
//! let stream = eval::sample_stream(&teacher, 24, 9);
//! let ppl = eval::perplexity(&teacher, &stream);
//! assert!(ppl > 1.0);
//! # Ok::<(), opal_quant::QuantError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod eval;
mod infer;
pub mod kv;
mod mx_codes;
pub mod reference;
pub mod sampling;
mod scheme;
pub mod weights;

pub use config::{Arch, ModelConfig};
pub use infer::{
    ActivationCapture, DecodeState, LogitsOut, Model, Recorder, RowGroup, SecondMomentRecorder,
    Site, Workspace,
};
pub use kv::{AdoptError, BlockPool, KvBlock, KvScheme};
pub use reference::ReferenceDecodeState;
pub use scheme::{ActFormat, ActScheme, QuantScheme, SoftmaxKind, WeightScheme};
