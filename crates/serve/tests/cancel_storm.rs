//! Cancellation-storm regression: cancelling half the in-flight requests
//! mid-step under a tight block pool must not perturb a single survivor
//! token, and every cancelled request's blocks must return to the pool.

use opal_model::{Model, ModelConfig, QuantScheme};
use opal_serve::{FinishReason, Request, RequestId, ServeConfig, ServeEngine};

fn model() -> Model {
    Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 21).expect("tiny model")
}

fn prompts(vocab: u32) -> Vec<Vec<u32>> {
    // Heavy prefix overlap so the storm also hits shared blocks.
    let sys: Vec<u32> = (0..10u32).map(|i| (i * 5 + 2) % vocab).collect();
    (0..12u32)
        .map(|i| {
            let mut p = sys.clone();
            p.extend((0..=(i % 5)).map(|j| (i * 11 + j * 3 + 40) % vocab));
            p
        })
        .collect()
}

#[test]
fn storm_survivors_are_bit_identical_and_blocks_return() {
    let m = model();
    let vocab = m.config().vocab as u32;
    let n_layers = m.config().n_layers;
    let prompts = prompts(vocab);
    let config = ServeConfig {
        max_batch: 4,
        max_tokens: 10,
        block_size: 4,
        max_blocks: n_layers * 20, // tight enough that churn causes paging pressure
        ..ServeConfig::default()
    };

    // Contended run: all twelve requests, then a 50% storm mid-flight.
    let mut engine = ServeEngine::new(&m, config);
    let ids: Vec<RequestId> =
        prompts.iter().map(|p| engine.submit_request(Request::new(p)).expect("submit")).collect();
    for _ in 0..6 {
        engine.step(); // get a batch decoding and a queue waiting
    }
    let mut in_flight = engine.in_flight();
    in_flight.sort_unstable();
    assert!(in_flight.len() >= 4, "storm needs a populated engine");
    let victims: Vec<RequestId> = in_flight.iter().copied().step_by(2).collect();
    let blocks_before = engine.kv_pool().in_use();
    for &v in &victims {
        assert!(engine.cancel(v), "cancel of in-flight {v} must succeed");
    }
    assert!(
        engine.kv_pool().in_use() < blocks_before,
        "cancelling {} of {} in-flight requests must free private blocks ({} -> {})",
        victims.len(),
        in_flight.len(),
        blocks_before,
        engine.kv_pool().in_use()
    );
    let report = engine.run();

    // Every request is accounted for: cancelled victims plus completed rest.
    assert_eq!(report.requests.len(), prompts.len());
    for &v in &victims {
        assert_eq!(report.request(v).expect("cancelled report").finish, FinishReason::Cancelled);
    }

    // After drain only the prefix cache may hold blocks.
    assert_eq!(engine.kv_pool().in_use(), engine.prefix_cache_len() * n_layers);

    // Uncontended reference: only the survivors, unbounded pool, no storm.
    let survivors: Vec<usize> =
        (0..prompts.len()).filter(|i| !victims.contains(&ids[*i])).collect();
    let mut reference = ServeEngine::new(&m, ServeConfig { max_blocks: usize::MAX, ..config });
    let ref_ids: Vec<RequestId> = survivors
        .iter()
        .map(|&i| reference.submit_request(Request::new(&prompts[i])).expect("submit"))
        .collect();
    let ref_report = reference.run();

    for (&i, &rid) in survivors.iter().zip(&ref_ids) {
        let got = &report.request(ids[i]).expect("survivor finished").tokens;
        let want = &ref_report.request(rid).expect("reference finished").tokens;
        assert_eq!(got, want, "survivor {} diverged from uncontended run", ids[i]);
    }
}

#[test]
fn storm_on_queued_requests_releases_them_without_steps() {
    let m = model();
    let config = ServeConfig { max_batch: 2, max_tokens: 4, ..ServeConfig::default() };
    let mut engine = ServeEngine::new(&m, config);
    let ids: Vec<RequestId> =
        (0..6).map(|i| engine.submit(&[1 + i as u32, 2, 3]).expect("submit")).collect();
    // Cancel queued requests before any step ever runs.
    for &id in &ids[2..] {
        assert!(engine.cancel(id), "queued cancel must succeed");
    }
    let report = engine.run();
    assert_eq!(report.requests.len(), 6);
    for &id in &ids[..2] {
        assert_eq!(report.request(id).unwrap().finish, FinishReason::Limit);
    }
    for &id in &ids[2..] {
        let r = report.request(id).unwrap();
        assert_eq!(r.finish, FinishReason::Cancelled);
        assert!(r.tokens.is_empty(), "never-admitted request generated tokens");
    }
    assert_eq!(engine.kv_pool().in_use(), engine.prefix_cache_len() * m.config().n_layers);
}
