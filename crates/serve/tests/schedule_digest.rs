//! The realized schedule and the tokens it produced, pinned as constants.
//!
//! One fixed request list is drained to completion and everything the
//! engine reports about *what ran when* — every step's `last_step_work()`,
//! every request's `tokens` and `token_steps` — is folded into an FNV-1a
//! hash. The constants were captured before `ServeEngine::step` fused the
//! batch's rows into shared forward passes (one pass per sequence then),
//! and they hold after: how rows are grouped into passes changes neither
//! the schedule nor the arithmetic. Those two run an unbounded pool; the
//! third digest runs a bounded one over prompts that share prefixes, so it
//! pins what the planner does under memory pressure: prefix-cache
//! eviction, warm-fit reordering, shrunken prefill grants, preemption and
//! the release of an injected pressure fault.

use opal_model::{Model, ModelConfig, QuantScheme};
use opal_serve::{
    faults::FaultKind, DraftSource, Request, ServeConfig, ServeEngine, ServeReport, SpecConfig,
};

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

/// Four prompt families: two share an 8-position prefix (two blocks at
/// `block_size` 4), two share a 6-position one (a block and a half, so an
/// adopter copies the shared partial tail), and every family's members
/// differ after the prefix.
fn shared_prefix_requests(vocab: u32) -> Vec<Request> {
    let prefixes: [&[u32]; 2] = [&[3, 9, 14, 3, 9, 14, 27, 5], &[40, 41, 8, 40, 41, 8]];
    [(0usize, 5usize, 10usize), (1, 3, 14), (0, 9, 6), (1, 1, 20), (0, 2, 12), (1, 7, 9)]
        .iter()
        .chain(&[(0, 12, 8), (1, 4, 16), (0, 6, 18), (1, 10, 7), (0, 1, 22), (1, 2, 11)])
        .enumerate()
        .map(|(i, &(family, tail, limit))| {
            let mut prompt = prefixes[family].to_vec();
            prompt.extend((0..tail).map(|j| ((i * 13 + j * 7 + 2) as u32) % vocab));
            Request::new(&prompt).with_limit(limit)
        })
        .collect()
}

fn drain(
    config: ServeConfig,
    requests: Vec<Request>,
    mut before_step: impl FnMut(&mut ServeEngine<'_>),
) -> (u64, ServeReport) {
    let model = Model::new(ModelConfig::tiny(), QuantScheme::mxopal_w4a47(), 7).expect("scheme");
    let mut engine = ServeEngine::new(&model, config);
    let n = requests.len();
    for request in requests {
        engine.submit_request(request).expect("valid request");
    }
    let mut h = Fnv::new();
    while !engine.is_idle() {
        before_step(&mut engine);
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
            // Two fields the record no longer has, zero for every config
            // pinned here: folded as zero so the constants keep holding.
            h.fold(0);
            h.fold(0);
        }
    }
    let report = engine.report(std::time::Duration::from_secs(1));
    assert_eq!(report.requests.len(), n);
    for r in &report.requests {
        h.fold(r.tokens.len() as u64);
        for (&t, &s) in r.tokens.iter().zip(&r.token_steps) {
            h.fold(u64::from(t));
            h.fold(s);
        }
    }
    (h.0, report)
}

fn digest(spec: Option<SpecConfig>) -> u64 {
    let config = ServeConfig {
        max_batch: 4,
        max_tokens: 24,
        prefill_chunk: 8,
        block_size: 4,
        spec,
        ..ServeConfig::default()
    };
    drain(config, requests(ModelConfig::tiny().vocab as u32), |_| {}).0
}

#[test]
fn schedule_and_tokens_are_the_pinned_ones() {
    let ngram = SpecConfig { draft: DraftSource::NGram, k: 4 };
    let got = [digest(None), digest(Some(ngram))];
    // Speculation must actually change the schedule, or the second
    // constant pins nothing the first does not.
    assert!(got[0] != got[1], "{got:x?}");
    let pinned = [0x9706_fe9d_5ebe_6b61, 0x147b_ee32_80fe_f2fa];
    assert_eq!(got, pinned, "{got:x?}");
}

#[test]
fn schedule_under_memory_pressure_is_the_pinned_one() {
    let config = ServeConfig {
        max_batch: 4,
        max_tokens: 24,
        prefill_chunk: 8,
        block_size: 4,
        max_blocks: 28,
        prefix_sharing: true,
        spec: Some(SpecConfig { draft: DraftSource::NGram, k: 2 }),
        ..ServeConfig::default()
    };
    // Pressure faults: a total one on the empty engine (admission must
    // release it) and on the first, all-prefilling batch (the planner
    // preempts down to one sequence, then releases it), a partial one on
    // a mixed batch, and a total one each of the first two times the batch
    // is down to a lone sequence.
    let mut lone = 0;
    let (got, report) =
        drain(config, shared_prefix_requests(ModelConfig::tiny().vocab as u32), |engine| {
            match engine.steps() {
                0 | 1 => engine.inject_fault(FaultKind::BlockPressure { blocks: usize::MAX }),
                8 => engine.inject_fault(FaultKind::BlockPressure { blocks: 6 }),
                _ => {}
            }
            if engine.active_len() == 1 && lone < 2 {
                lone += 1;
                engine.inject_fault(FaultKind::BlockPressure { blocks: usize::MAX });
            }
        });
    assert!(report.preemptions > 0, "the pool must be tight enough to preempt");
    assert!(report.shared_prefill_tokens > 0, "the prompts must share cached prefixes");
    assert_eq!(got, 0xfadf_cdd8_d564_1451, "{got:x}");
}
