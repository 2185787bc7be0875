//! Synthetic model weights with channel-persistent activation outliers.
//!
//! We have no access to Llama2/OPT checkpoints (see the module doc of
//! `tests/paper_claims.rs`); instead the generator below produces a
//! deterministic random transformer whose activations reproduce the
//! statistical property every LLM quantization paper is built around: a
//! small, fixed set of hidden channels carries activation magnitudes tens
//! of times larger than the rest, consistently across tokens and layers
//! (LLM.int8(), OWQ, and §1 of the OPAL paper).
//!
//! The mechanism: the per-channel norm gains of the *same* channel subset
//! are amplified in every decoder block, so every post-LayerNorm activation
//! (the tensors OPAL quantizes to 3/4 bits) exhibits those outliers.

use opal_tensor::rng::TensorRng;
use opal_tensor::Matrix;

use crate::config::{Arch, ModelConfig};

/// Weights of one decoder block.
#[derive(Clone, Debug)]
pub struct LayerWeights {
    /// Query projection, `d_model × d_model`.
    pub wq: Matrix,
    /// Key projection, `d_model × d_model`.
    pub wk: Matrix,
    /// Value projection, `d_model × d_model`.
    pub wv: Matrix,
    /// Attention output projection, `d_model × d_model`.
    pub wo: Matrix,
    /// Gate projection (Llama gated FFN), `d_model × d_ff`.
    pub w_gate: Option<Matrix>,
    /// Up projection, `d_model × d_ff`.
    pub w_up: Matrix,
    /// Down projection, `d_ff × d_model`.
    pub w_down: Matrix,
    /// Pre-attention norm gain.
    pub attn_norm_gain: Vec<f32>,
    /// Pre-attention norm bias (zero for RMSNorm).
    pub attn_norm_bias: Vec<f32>,
    /// Pre-FFN norm gain.
    pub ffn_norm_gain: Vec<f32>,
    /// Pre-FFN norm bias (zero for RMSNorm).
    pub ffn_norm_bias: Vec<f32>,
}

/// All weights of a model.
#[derive(Clone, Debug)]
pub struct ModelWeights {
    /// Token embedding, `vocab × d_model`.
    pub embedding: Matrix,
    /// Output head (unembedding), `vocab × d_model`.
    ///
    /// Deliberately *untied* from the input embedding: with tied random
    /// embeddings an untrained model degenerates to "predict the current
    /// token" with probability ≈1 (the self dot-product is `d_model`, far
    /// above every cross term), which would hide all quantization effects.
    pub unembedding: Matrix,
    /// Final norm gain.
    pub final_norm_gain: Vec<f32>,
    /// Final norm bias.
    pub final_norm_bias: Vec<f32>,
    /// Decoder blocks.
    pub layers: Vec<LayerWeights>,
    /// The persistent outlier channel indices.
    pub outlier_channels: Vec<usize>,
}

/// Generates deterministic synthetic weights for `config` from `seed`.
///
/// Initialization follows standard transformer practice: projections are
/// `N(0, 1/d_in)` so activation scale is preserved, and the residual-writing
/// matrices (`wo`, `w_down`) are further scaled by `1/√(2·n_layers)` to keep
/// the residual stream bounded with depth.
pub fn generate_weights(config: &ModelConfig, seed: u64) -> ModelWeights {
    let mut rng = TensorRng::seed(seed);
    let d = config.d_model;
    let ff = config.d_ff;
    let n_out = config.outlier_channel_count();
    let outlier_channels = rng.distinct_indices(d, n_out);

    let residual_scale = 1.0 / ((2 * config.n_layers) as f32).sqrt();
    let proj_std = 1.0 / (d as f32).sqrt();
    let ff_std = 1.0 / (ff as f32).sqrt();

    let mut layers = Vec::with_capacity(config.n_layers);
    for l in 0..config.n_layers {
        let mut lr = rng.child(1000 + l as u64);
        let gains = |rng: &mut TensorRng, cfg: &ModelConfig| -> Vec<f32> {
            (0..d)
                .map(|i| {
                    let base = 1.0 + rng.normal(0.0, 0.05);
                    if outlier_channels.binary_search(&i).is_ok() {
                        base * cfg.outlier_gain * (1.0 + rng.uniform(-0.2, 0.2))
                    } else {
                        base
                    }
                })
                .collect()
        };
        let attn_norm_gain = gains(&mut lr, config);
        let ffn_norm_gain = gains(&mut lr, config);
        // Attention inputs carry outliers with gain g; keep q/k/v outputs at
        // unit scale by dividing the projection variance by the input RMS.
        let in_rms = rms_of_gains(&attn_norm_gain);
        let qkv_std = proj_std / in_rms;
        let ffn_in_rms = rms_of_gains(&ffn_norm_gain);
        let layer = LayerWeights {
            wq: lr.normal_matrix(d, d, 0.0, qkv_std),
            wk: lr.normal_matrix(d, d, 0.0, qkv_std),
            wv: lr.normal_matrix(d, d, 0.0, qkv_std),
            wo: lr.normal_matrix(d, d, 0.0, proj_std * residual_scale),
            w_gate: match config.arch {
                Arch::Llama => Some(lr.normal_matrix(d, ff, 0.0, proj_std / ffn_in_rms)),
                Arch::Opt => None,
            },
            w_up: lr.normal_matrix(d, ff, 0.0, proj_std / ffn_in_rms),
            w_down: lr.normal_matrix(ff, d, 0.0, ff_std * residual_scale),
            attn_norm_gain,
            attn_norm_bias: vec![0.0; d],
            ffn_norm_gain,
            ffn_norm_bias: vec![0.0; d],
        };
        layers.push(layer);
    }

    let mut er = rng.child(7);
    let mut ur = rng.child(8);
    ModelWeights {
        embedding: er.normal_matrix(config.vocab, d, 0.0, 1.0),
        unembedding: ur.normal_matrix(config.vocab, d, 0.0, 1.0),
        final_norm_gain: vec![1.0; d],
        final_norm_bias: vec![0.0; d],
        layers,
        outlier_channels,
    }
}

fn rms_of_gains(g: &[f32]) -> f32 {
    (g.iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>() / g.len() as f64).sqrt() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;

    #[test]
    fn deterministic() {
        let c = ModelConfig::tiny();
        let a = generate_weights(&c, 5);
        let b = generate_weights(&c, 5);
        assert_eq!(a.layers[0].wq.as_slice(), b.layers[0].wq.as_slice());
        assert_eq!(a.outlier_channels, b.outlier_channels);
        let c2 = generate_weights(&c, 6);
        assert_ne!(a.layers[0].wq.as_slice(), c2.layers[0].wq.as_slice());
    }

    #[test]
    fn outlier_channels_have_amplified_gains() {
        let c = ModelConfig::tiny();
        let w = generate_weights(&c, 1);
        let l = &w.layers[0];
        for &ch in &w.outlier_channels {
            assert!(
                l.attn_norm_gain[ch].abs() > 10.0,
                "channel {ch} gain {}",
                l.attn_norm_gain[ch]
            );
        }
        let regular_max = l
            .attn_norm_gain
            .iter()
            .enumerate()
            .filter(|(i, _)| !w.outlier_channels.contains(i))
            .map(|(_, &g)| g.abs())
            .fold(0.0f32, f32::max);
        assert!(regular_max < 2.0);
    }

    #[test]
    fn shapes_match_config() {
        let c = ModelConfig::tiny();
        let w = generate_weights(&c, 2);
        assert_eq!(w.layers.len(), c.n_layers);
        assert_eq!(w.embedding.rows(), c.vocab);
        let l = &w.layers[0];
        assert_eq!(l.wq.rows(), c.d_model);
        assert_eq!(l.w_up.cols(), c.d_ff);
        assert_eq!(l.w_down.rows(), c.d_ff);
        assert!(l.w_gate.is_some());
    }

    #[test]
    fn opt_arch_has_no_gate() {
        let mut c = ModelConfig::opt_6_7b().proxy(64, 2, 64);
        c.arch = crate::config::Arch::Opt;
        let w = generate_weights(&c, 3);
        assert!(w.layers[0].w_gate.is_none());
    }
}
