//! The served geometry, pinned bit for bit.
//!
//! Every other model test runs `ModelConfig::tiny()`: two 16-wide heads, so
//! one 16-lane chunk per head row and at most two query rows per prompt
//! chunk. The geometry the benchmark serves is the Llama2-7B proxy —
//! `d_model` 128 in **one** 128-wide head, W4A4/7 with log2 softmax, MX-OPAL
//! KV pages of 16 rows — where the attention walk runs multi-chunk rows,
//! full blocks of code rows and several query rows per page visit. This
//! test folds the logits of a 100-token prompt (chunks of 32, every row's
//! logits) and 32 greedy decode steps into an FNV-1a hash. It holds across
//! changes to how rows share a page visit or a weight product, which are
//! bit-invisible; it was re-captured once when the W4A4/7 weight products
//! moved onto the INT datapath (OWQ codes times MX-OPAL codes, no `f32`
//! weight), which changes logits by a few ulps.

use std::sync::Arc;

use opal_model::kv::BlockPool;
use opal_model::{KvScheme, Model, ModelConfig, QuantScheme};
use opal_tensor::{ops, Matrix};

struct Fnv(u64);

impl Fnv {
    fn fold(&mut self, logits: &[f32]) {
        for x in logits {
            for b in x.to_bits().to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

#[test]
fn proxy_prompt_chunks_and_decode_are_the_pinned_bits() {
    let config = ModelConfig::llama2_7b().proxy(128, 4, 192);
    assert_eq!((config.d_model, config.n_heads), (128, 1), "the served proxy's one head");
    let model = Model::new(config, QuantScheme::mxopal_w4a47().with_log2_softmax(5), 21)
        .expect("valid scheme");
    let vocab = model.config().vocab;
    let pool = Arc::new(BlockPool::with_scheme(16, 128, usize::MAX, KvScheme::mxopal()));
    let mut state = model.begin_decode_paged(&pool);
    let prompt: Vec<u32> = (0..100u32).map(|j| (j * 37 + j * j * 3 + 5) % vocab as u32).collect();

    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut rows = Matrix::zeros(0, 0);
    for chunk in prompt.chunks(32) {
        model.verify_chunk_into(&mut state, chunk, &mut rows);
        h.fold(rows.as_slice());
    }
    let mut next = ops::argmax(rows.row(rows.rows() - 1)).expect("logits") as u32;
    let mut logits = vec![0.0f32; vocab];
    for _ in 0..32 {
        model.decode_step_into(&mut state, next, &mut logits);
        h.fold(&logits);
        next = ops::argmax(&logits).expect("logits") as u32;
    }
    assert_eq!(state.pos(), 132);
    assert_eq!(h.0, 0x7425_a22f_7d36_2489, "{:#018x}", h.0);
}
