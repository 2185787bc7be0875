//! The output check, run after every timed window and never timed.
//!
//! The repo's contract is that a request's tokens depend on its prompt and
//! nothing else: not on the batch it rode in, chunking, prefix sharing,
//! preemption or speculation. So a sample of the window's requests is run
//! again, one at a time, on a fresh engine with all of that switched off,
//! and must give the same tokens; on exact-KV workloads two of them are
//! also decoded greedily through `reference_decode_step`, the seed
//! implementation the optimised decoder is specified against.

use opal_model::Model;
use opal_serve::{Request, ServeEngine};
use opal_tensor::ops;

use crate::drive::Sent;
use crate::gen::{Fnv, Stream};
use crate::measure::Joined;
use crate::workloads::Workload;

/// Of the requests run again, how many are also checked against the
/// reference decoder, and on how many of their leading tokens (it runs
/// several times slower than the engine).
const REFERENCE_SHARE: usize = 4;
const REFERENCE_TOKENS: usize = 32;

/// What the check found.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Stream indices of requests whose tokens did not repeat.
    pub mismatched: Vec<usize>,
    pub audit_clean: bool,
    pub rerun: usize,
    pub referenced: usize,
    /// FNV-1a over (stream index, tokens) of every completed request of
    /// the window, and over the first `DIGEST_HEAD` of them: the count a
    /// window completes varies with the host, its head does not.
    pub token_digest: u64,
    pub head_digest: u64,
}

pub const DIGEST_HEAD: usize = 8;

/// `n` positions spread evenly over `0..len`.
fn spread(len: usize, n: usize) -> Vec<usize> {
    let n = n.min(len);
    (0..n).map(|k| k * len / n).collect()
}

pub fn run(
    model: &Model,
    w: &Workload,
    stream: &mut Stream,
    joined: &[Joined<'_>],
    sample: usize,
    audit_clean: bool,
) -> Verdict {
    // Every completed request: what was sent, and the tokens served.
    let done: Vec<(&Sent, &[u32])> = joined
        .iter()
        .filter(|j| j.complete())
        .filter_map(|j| Some((j.sent, j.report()?.tokens.as_slice())))
        .collect();
    let mut v = Verdict { audit_clean, ..Verdict::default() };

    let (mut all, mut head) = (Fnv::new(), Fnv::new());
    for (k, (sent, tokens)) in done.iter().enumerate() {
        for h in std::iter::once(&mut all).chain((k < DIGEST_HEAD).then_some(&mut head)) {
            h.word(sent.index as u64);
            h.tokens(tokens);
        }
    }
    (v.token_digest, v.head_digest) = (all.finish(), head.finish());

    let sample: Vec<(&Sent, &[u32])> =
        spread(done.len(), sample).into_iter().map(|i| done[i]).collect();
    let mut solo = ServeEngine::new(model, w.solo_config());
    for &(sent, served) in &sample {
        let n = served.len().min(w.check_tokens);
        let prompt = &stream.get(sent.index).prompt[..sent.prompt_len];
        let again = match solo.submit_request(Request::new(prompt).with_limit(n)) {
            Ok(id) => solo.run().request(id).map(|r| r.tokens.clone()).unwrap_or_default(),
            Err(_) => Vec::new(),
        };
        v.rerun += 1;
        if again != served[..n] {
            v.mismatched.push(sent.index);
        }
    }

    if !w.quantized_kv {
        for &(sent, served) in sample.iter().take(sample.len().div_ceil(REFERENCE_SHARE)) {
            let n = served.len().min(REFERENCE_TOKENS);
            let prompt = &stream.get(sent.index).prompt[..sent.prompt_len];
            let greedy = reference_greedy(model, prompt, n);
            v.referenced += 1;
            if greedy != served[..n] && !v.mismatched.contains(&sent.index) {
                v.mismatched.push(sent.index);
            }
        }
    }
    v
}

/// Greedy decoding through the seed implementation: one token at a time,
/// no batching, no paging, no fused kernels.
fn reference_greedy(model: &Model, prompt: &[u32], n: usize) -> Vec<u32> {
    let mut state = model.begin_reference_decode();
    let mut logits = Vec::new();
    for &t in prompt {
        logits = model.reference_decode_step(&mut state, t);
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let t = ops::argmax(&logits).unwrap_or(0) as u32;
        out.push(t);
        if out.len() < n {
            logits = model.reference_decode_step(&mut state, t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sample_is_spread_and_fixed() {
        assert_eq!(spread(80, 8), vec![0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(spread(3, 8), vec![0, 1, 2]);
        assert_eq!(spread(0, 8), Vec::<usize>::new());
    }
}
