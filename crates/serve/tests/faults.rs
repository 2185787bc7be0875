//! Chaos regression: injected worker panics must be quarantined to their
//! victim on every dispatch path, deadlines must retire requests with
//! their blocks freed exactly once, injected allocation pressure must
//! drive the reclamation ladder instead of erroring, and the engine must
//! drop cleanly right after a fault — no deadlock on the worker pool.

use std::time::Duration;

use opal_model::{Model, ModelConfig, QuantScheme};
use opal_serve::faults::FaultKind;
use opal_serve::{
    DegradedConfig, FinishReason, Request, RequestId, ServeConfig, ServeEngine, StepMode,
};

fn model() -> Model {
    Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 33).expect("tiny model")
}

fn prompts(vocab: u32, n: u32) -> Vec<Vec<u32>> {
    (0..n).map(|i| (0..6 + i % 3).map(|j| (i * 17 + j * 5 + 3) % vocab).collect()).collect()
}

/// Runs the same four-request workload with a panic injected mid-flight
/// and without, and asserts the quarantine contract: exactly the planned
/// victim retires `Failed`, every survivor's tokens are bit-identical to
/// the fault-free run, and all non-cache blocks return to the pool.
fn quarantine_case(step_mode: StepMode, num_threads: usize) {
    let m = model();
    let vocab = m.config().vocab as u32;
    let n_layers = m.config().n_layers;
    let prompts = prompts(vocab, 4);
    let config = ServeConfig {
        max_batch: 4,
        max_tokens: 12,
        block_size: 4,
        num_threads,
        step_mode,
        ..ServeConfig::default()
    };

    let run = |fault: Option<FaultKind>| {
        let mut engine = ServeEngine::new(&m, config);
        let ids: Vec<RequestId> = prompts
            .iter()
            .map(|p| engine.submit_request(Request::new(p)).expect("submit"))
            .collect();
        for _ in 0..3 {
            engine.step();
        }
        let mut failed_in_step = 0;
        if let Some(fault) = fault {
            engine.inject_fault(fault);
            failed_in_step = engine.step().failed;
        }
        let report = engine.run();
        assert_eq!(
            engine.kv_blocks_in_use(),
            engine.prefix_cache_len() * n_layers,
            "non-cache blocks leaked after drain"
        );
        (ids, report, failed_in_step)
    };

    let (ids, clean, _) = run(None);
    let (chaos_ids, chaos, failed_in_step) = run(Some(FaultKind::WorkerPanic { victim_rank: 1 }));
    assert_eq!(ids, chaos_ids, "submission must be identical across runs");
    assert_eq!(failed_in_step, 1, "the injected panic must fail exactly one sequence");

    assert_eq!(chaos.requests.len(), prompts.len(), "every request must be accounted for");
    let failed: Vec<&RequestId> =
        chaos.requests.iter().filter(|r| r.finish == FinishReason::Failed).map(|r| &r.id).collect();
    assert_eq!(failed.len(), 1, "exactly one quarantined sequence");
    assert_eq!(chaos.failed, 1);
    // victim_rank 1 reduces onto batch slot 1; all four were admitted in
    // submission order at step 1, so the victim is the second request.
    assert_eq!(*failed[0], ids[1], "the planned victim must be the one quarantined");

    for &id in ids.iter().filter(|&&id| id != ids[1]) {
        let got = &chaos.request(id).expect("survivor finished").tokens;
        let want = &clean.request(id).expect("clean run finished").tokens;
        assert_eq!(got, want, "survivor {id} diverged from the fault-free run");
        assert_eq!(chaos.request(id).unwrap().finish, FinishReason::Limit);
    }
}

#[test]
fn injected_panic_quarantines_only_victim_serial() {
    quarantine_case(StepMode::Auto, 1);
}

#[test]
fn injected_panic_quarantines_only_victim_pool() {
    quarantine_case(StepMode::ForcePool, 4);
}

/// The pool must keep serving after a quarantined panic: the engine
/// re-dispatches to the same workers and they keep acking.
#[test]
fn pool_survives_repeated_panics() {
    let m = model();
    let vocab = m.config().vocab as u32;
    let config = ServeConfig {
        max_batch: 4,
        max_tokens: 16,
        num_threads: 4,
        step_mode: StepMode::ForcePool,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(&m, config);
    for p in prompts(vocab, 8) {
        engine.submit_request(Request::new(&p)).expect("submit");
    }
    let mut failed = 0;
    for i in 0..6 {
        engine.inject_fault(FaultKind::WorkerPanic { victim_rank: i });
        failed += engine.step().failed;
    }
    assert!(failed >= 3, "repeated injected panics must keep firing (got {failed})");
    let report = engine.run();
    assert_eq!(report.requests.len(), 8);
    assert!(
        report.requests.iter().any(|r| r.finish == FinishReason::Limit),
        "the engine must still complete work after repeated panics"
    );
}

/// Regression for the worker-pool drop ordering: dropping the engine right
/// after an injected panic fired (workers possibly mid-ack, a sequence
/// freshly quarantined) must complete promptly instead of deadlocking on
/// an ack that never comes.
#[test]
fn drop_right_after_panic_does_not_deadlock() {
    let (tx, rx) = std::sync::mpsc::channel();
    let watchdog = std::thread::spawn(move || {
        let m = model();
        let vocab = m.config().vocab as u32;
        let config = ServeConfig {
            max_batch: 4,
            max_tokens: 32,
            num_threads: 4,
            step_mode: StepMode::ForcePool,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(&m, config);
        for p in prompts(vocab, 4) {
            engine.submit_request(Request::new(&p)).expect("submit");
        }
        engine.step();
        engine.inject_fault(FaultKind::WorkerPanic { victim_rank: 0 });
        let summary = engine.step();
        assert_eq!(summary.failed, 1);
        drop(engine);
        tx.send(()).ok();
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("engine drop deadlocked after an injected worker panic");
    watchdog.join().expect("watchdog thread");
}

/// Injected allocation pressure drives the evict → shrink → preempt ladder
/// exactly like a real shortfall: sequences get preempted, nothing errors,
/// and every request still completes with fault-free tokens.
#[test]
fn pressure_fault_preempts_and_preserves_output() {
    let m = model();
    let vocab = m.config().vocab as u32;
    let n_layers = m.config().n_layers;
    let prompts = prompts(vocab, 4);
    let config = ServeConfig {
        max_batch: 4,
        max_tokens: 8,
        block_size: 4,
        max_blocks: n_layers * 24,
        ..ServeConfig::default()
    };

    let run = |pressure: bool| {
        let mut engine = ServeEngine::new(&m, config);
        let ids: Vec<RequestId> = prompts
            .iter()
            .map(|p| engine.submit_request(Request::new(p)).expect("submit"))
            .collect();
        for _ in 0..2 {
            engine.step();
        }
        if pressure {
            engine.inject_fault(FaultKind::BlockPressure { blocks: n_layers * 20 });
            engine.step();
        }
        (ids, engine.run())
    };

    let (ids, clean) = run(false);
    let (_, chaos) = run(true);
    assert!(chaos.preemptions > 0, "pressure on a near-full pool must preempt");
    assert_eq!(chaos.failed, 0, "pressure is a resource fault, not a crash");
    for &id in &ids {
        let r = chaos.request(id).expect("request finished despite pressure");
        assert_eq!(r.finish, FinishReason::Limit);
        assert_eq!(
            &r.tokens,
            &clean.request(id).unwrap().tokens,
            "preempted-and-resumed request {id} diverged"
        );
    }
}

/// A lone sequence must not be preempted (there is nothing to yield to):
/// injected pressure against a single-sequence batch clears itself.
#[test]
fn pressure_fault_on_lone_sequence_is_relieved() {
    let m = model();
    let config =
        ServeConfig { max_batch: 1, max_tokens: 6, block_size: 4, ..ServeConfig::default() };
    let mut engine = ServeEngine::new(&m, config);
    let id = engine.submit(&[5, 6, 7]).expect("submit");
    engine.step();
    engine.inject_fault(FaultKind::BlockPressure { blocks: usize::MAX });
    engine.step();
    let report = engine.run();
    assert_eq!(report.request(id).expect("finished").finish, FinishReason::Limit);
    assert_eq!(report.preemptions, 0);
}

/// Latency spikes are telemetry-only: they surface in the step summary for
/// the harness clock and change nothing about the schedule.
#[test]
fn latency_spike_is_telemetry_only() {
    let m = model();
    let mut engine = ServeEngine::new(&m, ServeConfig { max_tokens: 4, ..ServeConfig::default() });
    engine.submit(&[1, 2, 3]).expect("submit");
    engine.inject_fault(FaultKind::LatencySpike { extra_steps: 5 });
    assert_eq!(engine.step().latency_spike_steps, 5);
    assert_eq!(engine.step().latency_spike_steps, 0, "a spike lasts exactly one step");
}

/// Faults injected while the engine is idle stay armed until work arrives:
/// firing is defined in engine steps, never in wall time.
#[test]
fn idle_injection_stays_armed_until_work_arrives() {
    let m = model();
    let mut engine = ServeEngine::new(&m, ServeConfig { max_tokens: 4, ..ServeConfig::default() });
    engine.inject_fault(FaultKind::WorkerPanic { victim_rank: 0 });
    assert_eq!(engine.step().failed, 0, "idle step must not consume the fault");
    engine.submit(&[9, 8, 7]).expect("submit");
    assert_eq!(engine.step().failed, 1, "the armed fault must fire on the first non-idle step");
}

#[test]
fn queued_deadline_expires_before_admission() {
    let m = model();
    let config = ServeConfig { max_batch: 1, max_tokens: 8, ..ServeConfig::default() };
    let mut engine = ServeEngine::new(&m, config);
    let hog = engine.submit(&[1, 2, 3]).expect("submit");
    let doomed = engine
        .submit_request(Request::new(&[4, 5, 6]).with_deadline(3))
        .expect("submit with deadline");
    let report = engine.run();
    assert_eq!(report.request(hog).expect("hog").finish, FinishReason::Limit);
    let r = report.request(doomed).expect("expired request must still be reported");
    assert_eq!(r.finish, FinishReason::DeadlineExceeded);
    assert!(r.tokens.is_empty(), "a never-admitted request cannot have generated tokens");
    assert_eq!(report.deadline_exceeded, 1);
}

#[test]
fn decoding_deadline_truncates_generation_and_frees_blocks() {
    let m = model();
    let n_layers = m.config().n_layers;
    let config = ServeConfig { max_tokens: 64, block_size: 4, ..ServeConfig::default() };
    let mut engine = ServeEngine::new(&m, config);
    let id = engine
        .submit_request(Request::new(&[3, 1, 4, 1, 5]).with_deadline(6))
        .expect("submit with deadline");
    let report = engine.run();
    let r = report.request(id).expect("expired request reported");
    assert_eq!(r.finish, FinishReason::DeadlineExceeded);
    assert!(
        !r.tokens.is_empty() && r.tokens.len() < 64,
        "a mid-decode expiry keeps partial output ({} tokens)",
        r.tokens.len()
    );
    assert_eq!(
        engine.kv_blocks_in_use(),
        engine.prefix_cache_len() * n_layers,
        "expired request must free its private blocks"
    );
}

#[test]
fn generous_deadline_never_fires() {
    let m = model();
    let mut engine = ServeEngine::new(&m, ServeConfig { max_tokens: 4, ..ServeConfig::default() });
    let id = engine
        .submit_request(Request::new(&[2, 7, 1]).with_deadline(10_000))
        .expect("submit with deadline");
    let report = engine.run();
    assert_eq!(report.request(id).expect("finished").finish, FinishReason::Limit);
    assert_eq!(report.deadline_exceeded, 0);
}

/// The deadline × preemption interaction: a request preempted under
/// pressure and then expiring in the queue must report `DeadlineExceeded`
/// (not `Cancelled`), and its blocks — already freed by the preemption —
/// must not be freed twice (the audit and drain accounting would catch a
/// double free).
#[test]
fn preempted_then_expired_reports_deadline_and_frees_once() {
    let m = model();
    let vocab = m.config().vocab as u32;
    let n_layers = m.config().n_layers;
    let config = ServeConfig {
        max_batch: 3,
        max_tokens: 24,
        block_size: 4,
        max_blocks: n_layers * 18,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(&m, config);
    for p in prompts(vocab, 2) {
        engine.submit_request(Request::new(&p)).expect("submit");
    }
    // The youngest sequence is the preemption victim; give it the deadline.
    let doomed = engine
        .submit_request(Request::new(&[8, 6, 7, 5, 3, 0, 9]).with_deadline(4))
        .expect("submit with deadline");
    for _ in 0..2 {
        engine.step();
    }
    // Starve the pool so the ladder reaches preemption while `doomed` is
    // both the youngest active sequence and inside its deadline window.
    engine.inject_fault(FaultKind::BlockPressure { blocks: usize::MAX });
    let summary = engine.step();
    assert!(summary.preempted > 0, "pressure must preempt the youngest sequence");
    let report = engine.run();
    let r = report.request(doomed).expect("expired request reported");
    assert_eq!(
        r.finish,
        FinishReason::DeadlineExceeded,
        "a preempted-then-expired request reports its deadline, never a cancellation"
    );
    assert!(report.preemptions > 0);
    assert_eq!(
        engine.kv_blocks_in_use(),
        engine.prefix_cache_len() * n_layers,
        "blocks must be freed exactly once across preemption and expiry"
    );
    let audit = engine.audit();
    assert!(audit.is_clean(), "audit violations: {:#?}", audit.violations);
}

/// Degraded mode under sustained pressure: the engine transitions in,
/// shrinks its budgets, sheds queued load down to the configured bound,
/// and transitions back out once the pressure clears.
#[test]
fn degraded_mode_sheds_load_and_recovers() {
    let m = model();
    let vocab = m.config().vocab as u32;
    let config = ServeConfig {
        max_batch: 2,
        max_tokens: 6,
        block_size: 4,
        // Pressure is a percentage of capacity: the pool must be bounded
        // for the degraded-mode thresholds to mean anything.
        max_blocks: m.config().n_layers * 64,
        degraded: Some(DegradedConfig {
            enter_pressure_pct: 50,
            exit_pressure_pct: 40,
            cooldown_steps: 2,
            shed_queue: 1,
            ..DegradedConfig::default()
        }),
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(&m, config);
    for p in prompts(vocab, 8) {
        engine.submit_request(Request::new(&p)).expect("submit");
    }
    // Inject pressure for a few consecutive steps to hold the engine in
    // degraded mode while the queue is deep, then let it clear.
    let mut saw_degraded = false;
    let mut shed = 0;
    for _ in 0..4 {
        engine.inject_fault(FaultKind::BlockPressure { blocks: usize::MAX });
        let s = engine.step();
        saw_degraded |= s.degraded;
        shed += s.shed;
    }
    assert!(saw_degraded, "sustained pressure above the threshold must enter degraded mode");
    assert!(shed > 0, "a queue above shed_queue must be shed while degraded");
    let report = engine.run();
    assert!(!engine.degraded(), "the engine must recover once pressure clears");
    assert!(report.degraded_steps > 0);
    assert!(report.mode_transitions >= 2, "enter and exit must both be counted");
    assert_eq!(report.shed, shed as u64);
    assert!(report.requests.iter().any(|r| r.finish == FinishReason::Shed));
    assert!(
        report.requests.iter().any(|r| r.finish == FinishReason::Limit),
        "surviving requests still complete"
    );
}
