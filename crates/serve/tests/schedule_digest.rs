//! The realized schedule and the tokens it produced, pinned as constants.
//!
//! One fixed request list is drained to completion and everything the
//! engine reports about *what ran when* — every step's `last_step_work()`,
//! every request's `tokens` and `token_steps` — is folded into an FNV-1a
//! hash. The constants were captured before `ServeEngine::step` fused the
//! batch's rows into shared forward passes (one pass per sequence then),
//! and they hold after: how rows are grouped into passes changes neither
//! the schedule nor the arithmetic.

use opal_model::{Model, ModelConfig, QuantScheme};
use opal_serve::{DraftSource, Request, ServeConfig, ServeEngine, SpecConfig};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Mixed prompt lengths (1 to 30 positions, around the chunk and block
/// sizes), each a short motif repeated so the n-gram draft has something to
/// find, and mixed token limits, so prompts complete, sequences retire and
/// queued requests join at different steps.
fn requests(vocab: u32) -> Vec<Request> {
    [
        (1usize, 6usize),
        (3, 24),
        (8, 9),
        (9, 17),
        (17, 12),
        (20, 5),
        (5, 20),
        (12, 1),
        (2, 16),
        (30, 11),
    ]
    .iter()
    .enumerate()
    .map(|(i, &(len, limit))| {
        let motif = 2 + i % 3;
        let prompt: Vec<u32> =
            (0..len).map(|j| ((i * 11 + (j % motif) * 5 + 1) as u32) % vocab).collect();
        Request::new(&prompt).with_limit(limit)
    })
    .collect()
}

fn digest(spec: Option<SpecConfig>) -> u64 {
    let model = Model::new(ModelConfig::tiny(), QuantScheme::mxopal_w4a47(), 7).expect("scheme");
    let config = ServeConfig {
        max_batch: 4,
        max_tokens: 24,
        prefill_chunk: 8,
        block_size: 4,
        spec,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(&model, config);
    for request in requests(model.config().vocab as u32) {
        engine.submit_request(request).expect("valid request");
    }
    let mut h = Fnv::new();
    while !engine.is_idle() {
        engine.step();
        let work = engine.last_step_work();
        h.fold(work.len() as u64);
        for w in work {
            h.fold(w.prefill_start as u64);
            h.fold(w.prefilled as u64);
            h.fold(u64::from(w.sampled));
            h.fold(w.decode_context.map_or(u64::MAX, |c| c as u64));
            h.fold(w.drafted as u64);
            h.fold(w.accepted as u64);
            h.fold(w.verify_start as u64);
            h.fold(w.verify_rows as u64);
            h.fold(w.draft_start as u64);
            h.fold(w.draft_rows as u64);
        }
    }
    let report = engine.report(std::time::Duration::from_secs(1));
    assert_eq!(report.requests.len(), 10);
    for r in &report.requests {
        h.fold(r.tokens.len() as u64);
        for (&t, &s) in r.tokens.iter().zip(&r.token_steps) {
            h.fold(u64::from(t));
            h.fold(s);
        }
    }
    h.0
}

#[test]
fn schedule_and_tokens_are_the_pinned_ones() {
    let ngram = SpecConfig { draft: DraftSource::NGram, k: 4 };
    let shallow = SpecConfig { draft: DraftSource::Truncated { layers: 1 }, k: 3 };
    let got = [digest(None), digest(Some(ngram)), digest(Some(shallow))];
    // Speculation must actually change the schedule, or the second and
    // third constants pin nothing the first does not.
    assert!(got[0] != got[1] && got[0] != got[2] && got[1] != got[2], "{got:x?}");
    let pinned = [0x9706_fe9d_5ebe_6b61, 0x147b_ee32_80fe_f2fa, 0xe0e1_2560_6839_d51b];
    assert_eq!(got, pinned, "{got:x?}");
}
