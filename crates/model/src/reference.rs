//! The seed decode implementation, kept verbatim as a correctness oracle.
//!
//! [`Model::decode_step`](crate::Model::decode_step) was rewritten to run
//! allocation-free over contiguous KV caches; this module preserves the
//! original (seed) algorithm — per-token `Vec` allocations for every
//! intermediate and `Vec<Vec<f32>>` KV caches — so that
//!
//! 1. equivalence tests can assert the optimized path is **bit-identical**
//!    to the seed over long decodes, and
//! 2. benchmarks can measure the optimized engine against the exact
//!    baseline it replaced.
//!
//! The arithmetic here must never be "improved": it is the specification.
//!
//! One part of it is newer than the seed. Schemes whose activations are
//! MX-family (MX-OPAL, MXINT) and whose weights are OWQ run their weight
//! products on the paper's INT datapath, and for those the specification is
//! the scalar code-domain product [`opal_tensor::ops::matmul_codes_portable`]:
//! each activation row is encoded by the allocating encoder
//! (`MxOpalQuantizer::quantize`, `MxIntQuantizer::encode_block`), and its
//! codes meet the OWQ weight codes in exact integer sums with one fixed
//! `f64` epilogue. The forward core encodes through the scratch encoders
//! and multiplies with the dispatching [`opal_tensor::ops::matmul_codes`];
//! both give the same codes and the same numbers. Every other scheme keeps
//! the seed's `f32` round trip and its sequential matvec.

use opal_tensor::Matrix;
use opal_tensor::{ops, CodeActs};

use crate::infer::{LayerWeight, Model, Recorder, Site};

/// The seed's matrix–vector product, verbatim: one sequential
/// latency-chained `f64` sum per output element (`Iterator::sum`), a fresh
/// `Vec` per call. [`Matrix::matvec`] has since moved to a pipelined
/// 4-accumulator reduction; the baseline must keep the original kernel.
pub(crate) fn seed_matvec(m: &Matrix, v: &[f32]) -> Vec<f32> {
    assert_eq!(v.len(), m.cols(), "vector length mismatch");
    m.iter_rows()
        .map(|row| {
            row.iter().zip(v).map(|(&a, &b)| f64::from(a) * f64::from(b)).sum::<f64>() as f32
        })
        .collect()
}

/// A weight product's input in the reference: the quantizer's `f32` round
/// trip of the row for dense weights, its codes for OWQ codes.
enum Operand {
    Dense(Vec<f32>),
    Codes(CodeActs),
}

impl Model {
    /// The reference's operand of `site`'s products for the row `x`.
    fn reference_operand(&self, site: Site, x: &[f32]) -> Operand {
        let low = matches!(site, Site::QkvInput | Site::Fc1Input);
        match (&self.codec, low) {
            (Some(codec), true) => Operand::Codes(codec.low.encode_one(x)),
            (Some(codec), false) => Operand::Codes(codec.high.encode_one(x)),
            (None, true) => Operand::Dense(self.quant_low(x)),
            (None, false) => Operand::Dense(self.quant_high(x)),
        }
    }
}

/// `x · W` in the reference: [`seed_matvec`] for dense weights, the scalar
/// spec of the code product for codes.
fn reference_product(w: &LayerWeight, x: &Operand) -> Vec<f32> {
    match (w, x) {
        (LayerWeight::Dense(m), Operand::Dense(x)) => seed_matvec(m, x),
        (LayerWeight::Codes(c), Operand::Codes(x)) => {
            let mut out = vec![0.0; c.d_out()];
            ops::matmul_codes_portable(x, c, &mut out);
            out
        }
        // tidy: allow(panic) -- a model's codec and its weights are built together
        _ => unreachable!("weights and activation operand of different datapaths"),
    }
}

/// Per-layer key/value cache of the seed implementation: one heap-allocated
/// row per cached position.
#[derive(Debug, Default)]
struct RefLayerCache {
    k: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

/// Decoding state of the seed implementation: position counter plus
/// row-per-position KV caches, no scratch reuse.
pub struct ReferenceDecodeState {
    pos: usize,
    layers: Vec<RefLayerCache>,
}

impl ReferenceDecodeState {
    /// Number of tokens decoded so far.
    pub fn pos(&self) -> usize {
        self.pos
    }
}

impl std::fmt::Debug for ReferenceDecodeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReferenceDecodeState(pos={}, layers={})", self.pos, self.layers.len())
    }
}

impl Model {
    /// Starts a decoding session against the seed reference path.
    pub fn begin_reference_decode(&self) -> ReferenceDecodeState {
        ReferenceDecodeState {
            pos: 0,
            layers: (0..self.config.n_layers).map(|_| RefLayerCache::default()).collect(),
        }
    }

    /// Decodes one token through the seed implementation, returning the
    /// next-token logits. Agreement with
    /// [`Model::decode_step`](crate::Model::decode_step) is asserted
    /// bit-for-bit over long decodes in `tests/decode_golden.rs`.
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of vocabulary range.
    pub fn reference_decode_step(&self, state: &mut ReferenceDecodeState, token: u32) -> Vec<f32> {
        self.reference_decode_step_recorded(state, token, None)
    }

    /// As [`Model::reference_decode_step`], optionally reporting
    /// activations to a [`Recorder`].
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of vocabulary range.
    pub fn reference_decode_step_recorded(
        &self,
        state: &mut ReferenceDecodeState,
        token: u32,
        mut recorder: Option<&mut dyn Recorder>,
    ) -> Vec<f32> {
        assert!((token as usize) < self.config.vocab, "token {token} out of range");
        let d = self.config.d_model;
        let dh = self.config.head_dim();
        let pos = state.pos;
        let inv_sqrt_dh = 1.0 / (dh as f32).sqrt();

        let mut h: Vec<f32> = self.embedding.row(token as usize).to_vec();

        for (l, lw) in self.layers.iter().enumerate() {
            // ---- attention ----
            let x = self.norm(&h, &lw.attn_gain, &lw.attn_bias);
            if let Some(rec) = recorder.as_deref_mut() {
                rec.record(l, Site::QkvInput, &x);
            }
            let xq = self.reference_operand(Site::QkvInput, &x);
            let mut q = reference_product(&lw.wq, &xq);
            let mut k = reference_product(&lw.wk, &xq);
            let v = reference_product(&lw.wv, &xq);
            for head in 0..self.config.n_heads {
                let s = head * dh;
                ops::rope_row(&mut q[s..s + dh], pos, self.rope_theta);
                ops::rope_row(&mut k[s..s + dh], pos, self.rope_theta);
            }
            if let Some(rec) = recorder.as_deref_mut() {
                rec.record(l, Site::Query, &q);
                rec.record(l, Site::Key, &k);
                rec.record(l, Site::Value, &v);
            }
            let qq = self.quant_high(&q);
            let kq = self.quant_high(&k);
            let vq = self.quant_high(&v);
            let cache = &mut state.layers[l];
            cache.k.push(kq);
            cache.v.push(vq);

            let mut ctx = vec![0.0f32; d];
            let seq = cache.k.len();
            let mut scores = vec![0.0f32; seq];
            for head in 0..self.config.n_heads {
                let s = head * dh;
                let q_h = &qq[s..s + dh];
                for (j, k_row) in cache.k.iter().enumerate() {
                    let dot: f64 = q_h
                        .iter()
                        .zip(&k_row[s..s + dh])
                        .map(|(&a, &b)| f64::from(a) * f64::from(b))
                        .sum();
                    scores[j] = dot as f32 * inv_sqrt_dh;
                }
                let weights = match &self.log2_softmax {
                    None => {
                        let mut w = vec![0.0f32; seq];
                        ops::softmax_into(&scores, &mut w);
                        w
                    }
                    Some(sm) => sm.probs(&scores),
                };
                for (j, &w) in weights.iter().enumerate() {
                    if w == 0.0 {
                        continue;
                    }
                    let v_row = &cache.v[j][s..s + dh];
                    for (c, &vv) in ctx[s..s + dh].iter_mut().zip(v_row) {
                        *c += w * vv;
                    }
                }
            }
            if let Some(rec) = recorder.as_deref_mut() {
                rec.record(l, Site::ProjInput, &ctx);
            }
            let ctxq = self.reference_operand(Site::ProjInput, &ctx);
            let o = reference_product(&lw.wo, &ctxq);
            for (hh, oo) in h.iter_mut().zip(&o) {
                *hh += oo;
            }

            // ---- FFN ----
            let x2 = self.norm(&h, &lw.ffn_gain, &lw.ffn_bias);
            if let Some(rec) = recorder.as_deref_mut() {
                rec.record(l, Site::Fc1Input, &x2);
            }
            let x2q = self.reference_operand(Site::Fc1Input, &x2);
            let a: Vec<f32> = match &lw.w_gate {
                Some(gate) => {
                    let g = reference_product(gate, &x2q);
                    let u = reference_product(&lw.w_up, &x2q);
                    g.iter().zip(&u).map(|(&gv, &uv)| ops::silu(gv) * uv).collect()
                }
                None => reference_product(&lw.w_up, &x2q).iter().map(|&v| ops::relu(v)).collect(),
            };
            if let Some(rec) = recorder.as_deref_mut() {
                rec.record(l, Site::Fc2Input, &a);
            }
            let aq = self.reference_operand(Site::Fc2Input, &a);
            let down = reference_product(&lw.w_down, &aq);
            for (hh, dd) in h.iter_mut().zip(&down) {
                *hh += dd;
            }
        }

        state.pos += 1;
        let hn = self.norm(&h, &self.final_norm_gain, &self.final_norm_bias);
        let mut logits = seed_matvec(&self.unembedding, &hn);
        for v in &mut logits {
            *v *= self.logit_scale;
        }
        logits
    }
}
