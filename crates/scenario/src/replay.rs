//! Virtual-clock trace replay into a [`ServeEngine`], producing an
//! SLO-grade [`ScenarioReport`].
//!
//! The replay advances a discrete virtual clock one tick per scheduler
//! step. At each tick it first applies every trace event scheduled for
//! that tick (submissions become [`opal_serve::Request`]s; cancellation
//! storms pick their victims from the live in-flight set), then runs one
//! [`ServeEngine::step`]. Ticks where the engine is idle consume virtual
//! time but no engine step — the mapping between engine steps and virtual
//! steps is recorded so every step-denominated metric (TTFT, inter-token
//! gaps, queue wait) is expressed on the *client-visible* clock, including
//! time spent queued while the batch was full.
//!
//! All step-denominated metrics are deterministic: the same trace and
//! [`ServeConfig`] produce the identical schedule, token streams and step
//! counts on every run and host. Wall-clock metrics (TTFT in milliseconds,
//! throughput) ride the same replay and are reported alongside, and when a
//! [`HostCalibration`] is supplied each step's wall time is additionally
//! cross-checked against the analytical workload model
//! ([`RooflineCheck`]).

use std::collections::BTreeMap;

use opal_hw::workload::{DataFormat, TokenWorkload};
use opal_model::Model;
use opal_serve::faults::{FaultKind, RetryPolicy};
use opal_serve::{
    step_workload, FinishReason, Request, RequestId, ServeConfig, ServeEngine, ServeError,
};

use crate::roofline::{
    gpu_decode_step_s, host_macs, opal_reference_s, HostCalibration, RooflineCheck,
};
use crate::slo::{jain_index, Percentiles};
use crate::trace::{EventKind, Trace};

/// Robustness knobs for [`replay_with`].
#[derive(Clone, Copy, Debug)]
pub struct ReplayOptions {
    /// Client retry policy for retryable rejections
    /// ([`ServeError::QueueFull`] / [`ServeError::InsufficientBlocks`]).
    /// `None` ⇒ every rejection is final on first refusal.
    pub retry: Option<RetryPolicy>,
    /// Run the engine invariant auditor every this many engine steps
    /// (asserting it clean). `0` disables periodic audits; the post-drain
    /// audit always runs.
    pub audit_every: u64,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions { retry: None, audit_every: 16 }
    }
}

/// The client-visible outcome of one accepted trace submission, keyed by
/// the ordinal of its `Submit` event in the trace, so a chaotic replay and
/// its [`Trace::fault_free`] nominal twin can be joined request-by-request
/// (trace ordinals are shared; engine request ids are not).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestOutcome {
    /// Ordinal of this submission among the trace's `Submit` events.
    pub event: usize,
    /// How the request retired.
    pub finish: FinishReason,
    /// Generated token count.
    pub tokens: usize,
    /// FNV-1a digest of the generated token stream.
    pub tokens_fp: u64,
    /// Virtual step at which the request retired (client clock) — the
    /// raw material for goodput-recovery curves.
    pub finished_vstep: u64,
}

/// Per-tenant outcome of a replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantShare {
    /// Tenant tag (`t0`, `t1`, …).
    pub name: String,
    /// Requests this tenant submitted (accepted or rejected).
    pub submitted: u64,
    /// Tokens generated for this tenant (completed and cancelled requests
    /// both count what they actually received).
    pub tokens: u64,
}

/// The SLO report of one replayed trace. Step-denominated fields are
/// bit-deterministic for a given trace and config; wall-clock fields are
/// measured on the replaying host.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Trace name.
    pub trace: String,
    /// Trace master seed.
    pub seed: u64,
    /// Trace fingerprint ([`Trace::fingerprint`]).
    pub fingerprint: u64,
    /// Submissions attempted (accepted + rejected).
    pub submitted: usize,
    /// Requests that completed their full token limit.
    pub completed: usize,
    /// Requests cancelled by storms.
    pub cancelled: usize,
    /// Submissions rejected with [`ServeError::QueueFull`] (final — after
    /// any retry policy gave up).
    pub rejected_queue_full: usize,
    /// Submissions rejected with [`ServeError::InsufficientBlocks`]
    /// (final — after any retry policy gave up).
    pub rejected_insufficient_blocks: usize,
    /// Submissions rejected for any other reason.
    pub rejected_other: usize,
    /// Resubmissions the retry policy scheduled.
    pub retried: usize,
    /// Submissions whose retry budget ran out.
    pub retry_gave_up: usize,
    /// Requests that expired their `deadline_steps` TTL.
    pub deadline_exceeded: usize,
    /// Requests retired by the panic quarantine.
    pub failed: usize,
    /// Requests shed by degraded-mode load shedding.
    pub shed: usize,
    /// Engine steps spent in degraded mode.
    pub degraded_steps: u64,
    /// Degraded-mode enter/exit transitions.
    pub mode_transitions: u64,
    /// Virtual steps the client-visible clock lost to injected latency
    /// spikes.
    pub latency_spike_steps: u64,
    /// KV blocks still allocated after the engine was dropped (must be 0
    /// — the pool handle outlives the engine precisely to observe this).
    pub leaked_blocks: usize,
    /// Invariant audits run during the replay (each asserted clean).
    pub audit_checks: u64,
    /// Per-submission outcomes, ordered by `Submit` event ordinal.
    pub outcomes: Vec<RequestOutcome>,
    /// Engine steps actually executed.
    pub engine_steps: u64,
    /// Virtual steps the replay spanned (arrival window plus drain).
    pub virtual_steps: u64,
    /// Preemptions under KV-pool pressure.
    pub preemptions: u64,
    /// Requests that were preempted at least once.
    pub preempted_requests: usize,
    /// KV-pool high-water mark in blocks.
    pub blocks_peak: usize,
    /// Largest concurrent batch.
    pub peak_batch: usize,
    /// Prompt tokens prefilled.
    pub prefill_tokens: u64,
    /// Prompt tokens skipped via prefix sharing.
    pub shared_prefill_tokens: u64,
    /// Tokens generated across all requests.
    pub generated_tokens: u64,
    /// Speculative draft tokens verified (zero when speculation is off).
    pub drafted_tokens: u64,
    /// Speculative draft tokens accepted.
    pub accepted_tokens: u64,
    /// Time to first token in virtual steps (submission → first sampled
    /// token, queue wait included).
    pub ttft_steps: Percentiles,
    /// Time to first token in milliseconds of wall clock.
    pub ttft_ms: Percentiles,
    /// Inter-token gaps in virtual steps (1 = perfectly smooth decode).
    pub inter_token_steps: Percentiles,
    /// Inter-token gaps in milliseconds of wall clock.
    pub inter_token_ms: Percentiles,
    /// Queue wait in virtual steps (submission → final admission).
    pub queue_wait_steps: Percentiles,
    /// Completed-request tokens per engine step over the whole replay.
    pub goodput_tokens_per_step: f64,
    /// Goodput restricted to the arrival window (virtual step < horizon) —
    /// the "under overload" number.
    pub overload_goodput: f64,
    /// Goodput over the drain phase (virtual step ≥ horizon).
    pub drain_goodput: f64,
    /// Jain fairness index over per-tenant generated tokens (tenants that
    /// submitted at least one request).
    pub fairness_jain: f64,
    /// Per-tenant shares, ordered by tenant id.
    pub tenants: Vec<TenantShare>,
    /// Wall time of the whole replay.
    pub wall_s: f64,
    /// Generated tokens per wall second.
    pub generated_per_sec: f64,
    /// Roofline cross-check, when a calibration was supplied.
    pub roofline: Option<RooflineCheck>,
}

/// Replays `trace` into a fresh [`ServeEngine`] over `model`.
pub fn replay(model: &Model, config: ServeConfig, trace: &Trace) -> ScenarioReport {
    replay_inner(model, config, trace, None, ReplayOptions::default())
}

/// [`replay`] with explicit robustness knobs: a client [`RetryPolicy`]
/// for typed retryable rejections and the invariant-audit cadence.
pub fn replay_with(
    model: &Model,
    config: ServeConfig,
    trace: &Trace,
    options: ReplayOptions,
) -> ScenarioReport {
    replay_inner(model, config, trace, None, options)
}

/// [`replay`], additionally cross-checking each step's wall time against
/// the calibrated host model within a `band`-multiplicative roofline
/// envelope (see [`RooflineCheck`]).
pub fn replay_calibrated(
    model: &Model,
    config: ServeConfig,
    trace: &Trace,
    calibration: HostCalibration,
    band: f64,
) -> ScenarioReport {
    replay_inner(model, config, trace, Some((calibration, band)), ReplayOptions::default())
}

/// Everything needed to (re)build one trace submission — kept so the
/// retry queue can resubmit a rejected request bit-identically.
struct SubmitSpec {
    event: usize,
    prompt: Vec<u32>,
    limit: usize,
    tenant: u32,
    deadline: Option<u64>,
}

impl SubmitSpec {
    fn build(&self) -> Request {
        let mut req = Request::new(&self.prompt)
            .with_limit(self.limit)
            .with_tenant(format!("t{}", self.tenant));
        if let Some(d) = self.deadline {
            req = req.with_deadline(d);
        }
        req
    }
}

#[derive(Default)]
struct RejectTally {
    queue_full: usize,
    insufficient_blocks: usize,
    other: usize,
    retried: usize,
    gave_up: usize,
}

/// Submits `spec` (as resubmission number `attempt`), scheduling a retry
/// on a typed retryable rejection while the policy allows it. Returns the
/// id on acceptance; rejections that become final land in `tally`.
fn submit_with_retry(
    engine: &mut ServeEngine<'_>,
    spec: SubmitSpec,
    attempt: u32,
    vstep: u64,
    retry: Option<&RetryPolicy>,
    retry_q: &mut BTreeMap<u64, Vec<(SubmitSpec, u32)>>,
    tally: &mut RejectTally,
) -> Option<RequestId> {
    let err = match engine.submit_request(spec.build()) {
        Ok(id) => return Some(id),
        Err(e) => e,
    };
    if matches!(err, ServeError::QueueFull { .. } | ServeError::InsufficientBlocks { .. }) {
        if let Some(policy) = retry {
            if attempt < policy.max_attempts {
                tally.retried += 1;
                let due = vstep + policy.backoff(attempt).max(1);
                retry_q.entry(due).or_default().push((spec, attempt + 1));
                return None;
            }
            tally.gave_up += 1;
        }
    }
    match err {
        ServeError::QueueFull { .. } => tally.queue_full += 1,
        ServeError::InsufficientBlocks { .. } => tally.insufficient_blocks += 1,
        _ => tally.other += 1,
    }
    None
}

/// FNV-1a over a token stream.
fn fnv_tokens(tokens: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &t in tokens {
        for b in t.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn finish_tag(f: FinishReason) -> u64 {
    match f {
        FinishReason::Limit => 1,
        FinishReason::Cancelled => 2,
        FinishReason::DeadlineExceeded => 3,
        FinishReason::Failed => 4,
        FinishReason::Shed => 5,
    }
}

fn replay_inner(
    model: &Model,
    config: ServeConfig,
    trace: &Trace,
    roofline: Option<(HostCalibration, f64)>,
    options: ReplayOptions,
) -> ScenarioReport {
    let mut engine = ServeEngine::new(model, config);
    let n_tenants = trace.tenants as usize;
    let mut tenant_submitted = vec![0u64; n_tenants];
    let mut submit_vstep: BTreeMap<RequestId, u64> = BTreeMap::new();
    let mut id_to_event: BTreeMap<RequestId, usize> = BTreeMap::new();
    let mut submitted = 0usize;
    let mut tally = RejectTally::default();
    let mut retry_q: BTreeMap<u64, Vec<(SubmitSpec, u32)>> = BTreeMap::new();
    let mut latency_spikes = 0u64;
    let mut audit_checks = 0u64;

    // Per-engine-step series, index = engine step - 1.
    let mut step_virtual: Vec<u64> = Vec::new();
    let mut step_secs: Vec<f64> = Vec::new();
    let mut step_macs: Vec<f64> = Vec::new();
    let mut batch_sum = 0usize;
    let mut opal_fmt = DataFormat::opal_w4a47();
    // Charge the roofline the bits the engine's pages hold: its pool's
    // resolved scheme (an exact pool on an OPAL model stores the K/V
    // site's codes).
    opal_fmt.kv_bits = engine.kv_pool().scheme().bits_per_element(model.config().d_model);
    let mut total_workload = TokenWorkload::zero();

    let mut vstep: u64 = 0;
    let mut ev_idx = 0usize;
    let mut stalls = 0u32;
    let t_start = opal_serve::clock::now();
    loop {
        // Due client retries go first (`<=` also catches backoffs a
        // latency spike skipped the clock past).
        while retry_q.first_key_value().is_some_and(|(&due, _)| due <= vstep) {
            let Some((_, entries)) = retry_q.pop_first() else { break };
            for (spec, attempt) in entries {
                let event = spec.event;
                if let Some(id) = submit_with_retry(
                    &mut engine,
                    spec,
                    attempt,
                    vstep,
                    options.retry.as_ref(),
                    &mut retry_q,
                    &mut tally,
                ) {
                    submit_vstep.insert(id, vstep);
                    id_to_event.insert(id, event);
                }
            }
        }
        // `<=` rather than `==`: a latency spike advances the virtual
        // clock mid-tick, and arrivals inside the skipped window land
        // (late, as a client would experience) rather than being lost.
        while ev_idx < trace.events.len() && trace.events[ev_idx].step <= vstep {
            match &trace.events[ev_idx].kind {
                EventKind::Submit { prompt, limit, tenant, deadline } => {
                    let event = submitted;
                    submitted += 1;
                    tenant_submitted[*tenant as usize] += 1;
                    let spec = SubmitSpec {
                        event,
                        prompt: prompt.clone(),
                        limit: *limit,
                        tenant: *tenant,
                        deadline: *deadline,
                    };
                    if let Some(id) = submit_with_retry(
                        &mut engine,
                        spec,
                        0,
                        vstep,
                        options.retry.as_ref(),
                        &mut retry_q,
                        &mut tally,
                    ) {
                        submit_vstep.insert(id, vstep);
                        id_to_event.insert(id, event);
                    }
                }
                EventKind::CancelStorm { percent } => {
                    let mut ids = engine.in_flight();
                    ids.sort_unstable();
                    if !ids.is_empty() {
                        let k = (ids.len() * *percent as usize).div_ceil(100).min(ids.len());
                        for i in 0..k {
                            // Evenly spaced ranks: hits both the decoding
                            // batch and the queued tail.
                            engine.cancel(ids[i * ids.len() / k]);
                        }
                    }
                }
                EventKind::Fault(kind) => match *kind {
                    FaultKind::LatencySpike { extra_steps } => {
                        // Clock-side: a slow step changes what clients
                        // observe, not what the scheduler computes.
                        latency_spikes += extra_steps;
                        vstep += extra_steps;
                    }
                    fault => engine.inject_fault(fault),
                },
            }
            ev_idx += 1;
        }
        if engine.is_idle() {
            if ev_idx >= trace.events.len() && retry_q.is_empty() {
                break;
            }
            vstep += 1; // idle tick: virtual time passes, no engine work
            continue;
        }
        let before = engine.steps();
        let t0 = opal_serve::clock::now();
        engine.step();
        let dt = t0.elapsed().as_secs_f64();
        if engine.steps() > before {
            stalls = 0;
            let step = step_workload(model.config(), &opal_fmt, engine.last_step_work());
            step_virtual.push(vstep);
            step_secs.push(dt);
            step_macs.push(host_macs(&step));
            total_workload.accumulate(&step);
            batch_sum += engine.last_step_work().len();
            if options.audit_every > 0 && engine.steps() % options.audit_every == 0 {
                let audit = engine.audit();
                assert!(
                    audit.is_clean(),
                    "invariant audit failed at engine step {}: {:#?}",
                    engine.steps(),
                    audit.violations
                );
                audit_checks += 1;
            }
        } else {
            stalls += 1;
            assert!(
                stalls < 10_000,
                "engine made no progress for {stalls} ticks at virtual step {vstep}"
            );
        }
        vstep += 1;
    }
    let wall = t_start.elapsed();
    let final_audit = engine.audit();
    assert!(
        final_audit.is_clean(),
        "invariant audit failed after drain: {:#?}",
        final_audit.violations
    );
    audit_checks += 1;
    let served = engine.report(wall);
    // A dropped engine must return every KV block — the pool handle
    // outlives the engine precisely to observe this.
    let pool = engine.kv_pool().clone();
    drop(engine);
    let leaked_blocks = pool.in_use();

    // Engine step s (1-based) happened at virtual step v_of(s).
    let v_of = |s: u64| step_virtual[(s - 1) as usize];

    let mut ttft_steps = Vec::new();
    let mut ttft_ms = Vec::new();
    let mut itl_steps = Vec::new();
    let mut itl_ms = Vec::new();
    let mut queue_wait = Vec::new();
    let mut completed = 0usize;
    let mut cancelled = 0usize;
    let mut completed_tokens_total = 0u64;
    let mut completed_tokens_window = 0u64;
    let mut preempted_requests = 0usize;
    let mut tenant_tokens = vec![0u64; n_tenants];
    for r in &served.requests {
        let v_submit = submit_vstep[&r.id];
        match r.finish {
            FinishReason::Limit => {
                completed += 1;
                completed_tokens_total += r.tokens.len() as u64;
                if v_of(r.finished_step) < trace.horizon {
                    completed_tokens_window += r.tokens.len() as u64;
                }
            }
            FinishReason::Cancelled => cancelled += 1,
            // Counted from the engine report's own tallies below.
            FinishReason::DeadlineExceeded | FinishReason::Failed | FinishReason::Shed => {}
        }
        if r.preemptions > 0 {
            preempted_requests += 1;
        }
        if let Some(t) = r
            .tenant
            .as_deref()
            .and_then(|t| t.strip_prefix('t'))
            .and_then(|t| t.parse::<usize>().ok())
        {
            if t < n_tenants {
                tenant_tokens[t] += r.tokens.len() as u64;
            }
        }
        // Requests cancelled before admission have a placeholder
        // admitted_step; only count queue wait for requests that entered
        // the batch (token_steps or a Limit finish prove they did).
        if !r.token_steps.is_empty() || r.finish == opal_serve::FinishReason::Limit {
            let v_admit = v_of(r.admitted_step + 1);
            queue_wait.push(v_admit.saturating_sub(v_submit) as f64);
        }
        if let Some(&s0) = r.token_steps.first() {
            ttft_steps.push(v_of(s0).saturating_sub(v_submit) as f64);
            if let Some(d) = r.ttft {
                ttft_ms.push(d.as_secs_f64() * 1e3);
            }
            for w in r.token_steps.windows(2) {
                itl_steps.push((v_of(w[1]) - v_of(w[0])) as f64);
                let ms: f64 = step_secs[w[0] as usize..w[1] as usize].iter().sum::<f64>() * 1e3;
                itl_ms.push(ms);
            }
        }
    }

    let mut outcomes: Vec<RequestOutcome> = served
        .requests
        .iter()
        .map(|r| RequestOutcome {
            event: id_to_event[&r.id],
            finish: r.finish,
            tokens: r.tokens.len(),
            tokens_fp: fnv_tokens(&r.tokens),
            // Queue-side retirements (shed, expired before admission) can
            // carry a step the engine never executed; clamp to run end.
            finished_vstep: step_virtual
                .get((r.finished_step as usize).saturating_sub(1))
                .copied()
                .unwrap_or(vstep),
        })
        .collect();
    outcomes.sort_unstable_by_key(|o| o.event);

    let engine_steps = step_secs.len() as u64;
    let window_steps = step_virtual.iter().filter(|&&v| v < trace.horizon).count() as u64;
    let drain_steps = engine_steps - window_steps;
    let per_step =
        |tokens: u64, steps: u64| if steps > 0 { tokens as f64 / steps as f64 } else { 0.0 };

    let shares: Vec<f64> = (0..n_tenants)
        .filter(|&t| tenant_submitted[t] > 0)
        .map(|t| tenant_tokens[t] as f64)
        .collect();

    let roofline = roofline.map(|(cal, band)| {
        let mean_batch = if engine_steps > 0 { batch_sum / engine_steps as usize } else { 0 };
        RooflineCheck::from_steps(
            cal,
            &step_secs,
            &step_macs,
            opal_reference_s(&total_workload),
            gpu_decode_step_s(model.config(), mean_batch.max(1)),
            band,
        )
    });

    ScenarioReport {
        trace: trace.name.clone(),
        seed: trace.seed,
        fingerprint: trace.fingerprint(),
        submitted,
        completed,
        cancelled,
        rejected_queue_full: tally.queue_full,
        rejected_insufficient_blocks: tally.insufficient_blocks,
        rejected_other: tally.other,
        retried: tally.retried,
        retry_gave_up: tally.gave_up,
        deadline_exceeded: served.deadline_exceeded as usize,
        failed: served.failed as usize,
        shed: served.shed as usize,
        degraded_steps: served.degraded_steps,
        mode_transitions: served.mode_transitions,
        latency_spike_steps: latency_spikes,
        leaked_blocks,
        audit_checks,
        outcomes,
        engine_steps,
        virtual_steps: vstep,
        preemptions: served.preemptions,
        preempted_requests,
        blocks_peak: served.blocks_peak,
        peak_batch: served.peak_batch,
        prefill_tokens: served.prefill_tokens,
        shared_prefill_tokens: served.shared_prefill_tokens,
        generated_tokens: served.generated_tokens,
        drafted_tokens: served.drafted_tokens,
        accepted_tokens: served.accepted_tokens,
        ttft_steps: Percentiles::compute(&ttft_steps),
        ttft_ms: Percentiles::compute(&ttft_ms),
        inter_token_steps: Percentiles::compute(&itl_steps),
        inter_token_ms: Percentiles::compute(&itl_ms),
        queue_wait_steps: Percentiles::compute(&queue_wait),
        goodput_tokens_per_step: per_step(completed_tokens_total, engine_steps),
        overload_goodput: per_step(completed_tokens_window, window_steps),
        drain_goodput: per_step(completed_tokens_total - completed_tokens_window, drain_steps),
        fairness_jain: jain_index(&shares),
        tenants: (0..n_tenants)
            .map(|t| TenantShare {
                name: format!("t{t}"),
                submitted: tenant_submitted[t],
                tokens: tenant_tokens[t],
            })
            .collect(),
        wall_s: wall.as_secs_f64(),
        generated_per_sec: served.generated_per_sec,
        roofline,
    }
}

impl ScenarioReport {
    /// An order-sensitive FNV-1a digest of every per-submission outcome
    /// (ordinal, finish reason, token count, token stream) — the
    /// bit-level identity of what every client received.
    pub fn outcomes_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for o in &self.outcomes {
            eat(o.event as u64);
            eat(finish_tag(o.finish));
            eat(o.tokens as u64);
            eat(o.tokens_fp);
        }
        h
    }

    /// The step-deterministic core of the report, for run-to-run equality
    /// assertions (everything wall-clock-dependent excluded).
    pub fn deterministic_digest(&self) -> String {
        format!(
            "{}/{:016x} sub={} done={} cancel={} rej={}:{}:{} steps={} v={} preempt={} \
             ttft(p50={},p99={}) itl(p50={},p99={}) wait(p99={}) good={:.4}/{:.4}/{:.4} jain={:.6} \
             dl={} fail={} shed={} degr={}:{} retry={}:{} spike={} leak={} spec={}:{} \
             out={:016x}",
            self.trace,
            self.fingerprint,
            self.submitted,
            self.completed,
            self.cancelled,
            self.rejected_queue_full,
            self.rejected_insufficient_blocks,
            self.rejected_other,
            self.engine_steps,
            self.virtual_steps,
            self.preemptions,
            self.ttft_steps.p50,
            self.ttft_steps.p99,
            self.inter_token_steps.p50,
            self.inter_token_steps.p99,
            self.queue_wait_steps.p99,
            self.goodput_tokens_per_step,
            self.overload_goodput,
            self.drain_goodput,
            self.fairness_jain,
            self.deadline_exceeded,
            self.failed,
            self.shed,
            self.degraded_steps,
            self.mode_transitions,
            self.retried,
            self.retry_gave_up,
            self.latency_spike_steps,
            self.leaked_blocks,
            self.drafted_tokens,
            self.accepted_tokens,
            self.outcomes_fingerprint(),
        )
    }

    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str(&format!(
            "{{\n      \"trace\": \"{}\",\n      \"seed\": {},\n      \"fingerprint\": \"{:016x}\",\n",
            self.trace, self.seed, self.fingerprint
        ));
        s.push_str(&format!(
            "      \"submitted\": {}, \"completed\": {}, \"cancelled\": {},\n",
            self.submitted, self.completed, self.cancelled
        ));
        s.push_str(&format!(
            "      \"rejected\": {{\"queue_full\": {}, \"insufficient_blocks\": {}, \"other\": {}}},\n",
            self.rejected_queue_full, self.rejected_insufficient_blocks, self.rejected_other
        ));
        s.push_str(&format!(
            "      \"robustness\": {{\"deadline_exceeded\": {}, \"failed\": {}, \"shed\": {}, \"degraded_steps\": {}, \"mode_transitions\": {}, \"retried\": {}, \"retry_gave_up\": {}, \"latency_spike_steps\": {}, \"leaked_blocks\": {}, \"audit_checks\": {}, \"outcomes_fp\": \"{:016x}\"}},\n",
            self.deadline_exceeded, self.failed, self.shed, self.degraded_steps,
            self.mode_transitions, self.retried, self.retry_gave_up, self.latency_spike_steps,
            self.leaked_blocks, self.audit_checks, self.outcomes_fingerprint()
        ));
        s.push_str(&format!(
            "      \"engine_steps\": {}, \"virtual_steps\": {}, \"preemptions\": {}, \"preempted_requests\": {},\n",
            self.engine_steps, self.virtual_steps, self.preemptions, self.preempted_requests
        ));
        s.push_str(&format!(
            "      \"blocks_peak\": {}, \"peak_batch\": {}, \"prefill_tokens\": {}, \"shared_prefill_tokens\": {}, \"generated_tokens\": {},\n",
            self.blocks_peak, self.peak_batch, self.prefill_tokens, self.shared_prefill_tokens,
            self.generated_tokens
        ));
        s.push_str(&format!(
            "      \"drafted_tokens\": {}, \"accepted_tokens\": {},\n",
            self.drafted_tokens, self.accepted_tokens
        ));
        s.push_str(&format!("      \"ttft_steps\": {},\n", self.ttft_steps.to_json()));
        s.push_str(&format!("      \"ttft_ms\": {},\n", self.ttft_ms.to_json()));
        s.push_str(&format!(
            "      \"inter_token_steps\": {},\n",
            self.inter_token_steps.to_json()
        ));
        s.push_str(&format!("      \"inter_token_ms\": {},\n", self.inter_token_ms.to_json()));
        s.push_str(&format!("      \"queue_wait_steps\": {},\n", self.queue_wait_steps.to_json()));
        s.push_str(&format!(
            "      \"goodput_tokens_per_step\": {:.6}, \"overload_goodput\": {:.6}, \"drain_goodput\": {:.6},\n",
            self.goodput_tokens_per_step, self.overload_goodput, self.drain_goodput
        ));
        s.push_str(&format!("      \"fairness_jain\": {:.6},\n", self.fairness_jain));
        let tenants: Vec<String> = self
            .tenants
            .iter()
            .map(|t| {
                format!(
                    "{{\"name\": \"{}\", \"submitted\": {}, \"tokens\": {}}}",
                    t.name, t.submitted, t.tokens
                )
            })
            .collect();
        s.push_str(&format!("      \"tenants\": [{}],\n", tenants.join(", ")));
        s.push_str(&format!(
            "      \"wall_s\": {:.6}, \"generated_per_sec\": {:.2}",
            self.wall_s, self.generated_per_sec
        ));
        if let Some(rl) = &self.roofline {
            s.push_str(&format!(
                ",\n      \"roofline\": {{\"steps\": {}, \"measured_s\": {:.6}, \"predicted_s\": {:.6}, \"aggregate_ratio\": {:.4}, \"median_step_ratio\": {:.4}, \"band\": {:.1}, \"within_band\": {}, \"opal_reference_s\": {:.6}, \"gpu_step_s\": {:.6}, \"host_macs_per_s\": {:.3e}}}",
                rl.steps,
                rl.measured_s,
                rl.predicted_s,
                rl.aggregate_ratio,
                rl.median_step_ratio,
                rl.band,
                rl.within_band(),
                rl.opal_reference_s,
                rl.gpu_step_s,
                rl.calibration.macs_per_s()
            ));
        }
        s.push_str("\n    }");
        s
    }
}

impl std::fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "scenario '{}' (seed {}, fp {:016x})",
            self.trace, self.seed, self.fingerprint
        )?;
        writeln!(
            f,
            "  requests: {} submitted, {} completed, {} cancelled, {} rejected ({} queue-full, {} insufficient-blocks)",
            self.submitted,
            self.completed,
            self.cancelled,
            self.rejected_queue_full + self.rejected_insufficient_blocks + self.rejected_other,
            self.rejected_queue_full,
            self.rejected_insufficient_blocks
        )?;
        writeln!(
            f,
            "  steps: {} engine over {} virtual; peak batch {}, blocks peak {}, {} preemptions ({} requests)",
            self.engine_steps,
            self.virtual_steps,
            self.peak_batch,
            self.blocks_peak,
            self.preemptions,
            self.preempted_requests
        )?;
        writeln!(
            f,
            "  ttft: p50 {:.1} / p99 {:.1} steps ({:.2} / {:.2} ms); inter-token p50 {:.1} / p99 {:.1} steps",
            self.ttft_steps.p50,
            self.ttft_steps.p99,
            self.ttft_ms.p50,
            self.ttft_ms.p99,
            self.inter_token_steps.p50,
            self.inter_token_steps.p99
        )?;
        writeln!(
            f,
            "  goodput: {:.3} tok/step overall, {:.3} under load, {:.3} drain; fairness (Jain) {:.4}",
            self.goodput_tokens_per_step, self.overload_goodput, self.drain_goodput, self.fairness_jain
        )?;
        writeln!(
            f,
            "  robustness: {} expired, {} failed, {} shed; degraded {} steps / {} transitions; {} retries ({} gave up); {} spike steps; {} leaked blocks, {} audits clean",
            self.deadline_exceeded,
            self.failed,
            self.shed,
            self.degraded_steps,
            self.mode_transitions,
            self.retried,
            self.retry_gave_up,
            self.latency_spike_steps,
            self.leaked_blocks,
            self.audit_checks
        )?;
        if self.drafted_tokens > 0 {
            writeln!(
                f,
                "  speculation: {} drafted, {} accepted ({:.1}% acceptance)",
                self.drafted_tokens,
                self.accepted_tokens,
                100.0 * self.accepted_tokens as f64 / self.drafted_tokens as f64
            )?;
        }
        if let Some(rl) = &self.roofline {
            writeln!(
                f,
                "  roofline: median step ratio {:.3} (band ±{:.0}x, {}); host {:.3} s vs predicted {:.3} s; OPAL ref {:.4} s",
                rl.median_step_ratio,
                rl.band,
                if rl.within_band() { "within" } else { "OUTSIDE" },
                rl.measured_s,
                rl.predicted_s,
                rl.opal_reference_s
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CancelStorm, TraceConfig};
    use opal_model::{ModelConfig, QuantScheme};

    fn model() -> Model {
        Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 11).expect("tiny model")
    }

    #[test]
    fn replay_is_step_deterministic() {
        let m = model();
        let trace = TraceConfig::poisson("det", 42, 1.0, 48, m.config().vocab).generate();
        let cfg = ServeConfig { max_batch: 4, max_tokens: 32, ..ServeConfig::default() };
        let a = replay(&m, cfg, &trace);
        let b = replay(&m, cfg, &trace);
        assert_eq!(a.deterministic_digest(), b.deterministic_digest());
        assert_eq!(a.completed, a.submitted, "unconstrained pool completes everything");
        assert!(a.generated_tokens > 0);
    }

    #[test]
    fn queue_wait_reflects_batch_pressure() {
        let m = model();
        let trace = TraceConfig::poisson("pressure", 7, 2.0, 40, m.config().vocab).generate();
        let tight = ServeConfig { max_batch: 1, max_tokens: 16, ..ServeConfig::default() };
        let roomy = ServeConfig { max_batch: 16, max_tokens: 16, ..ServeConfig::default() };
        let a = replay(&m, tight, &trace);
        let b = replay(&m, roomy, &trace);
        assert!(
            a.queue_wait_steps.p50 > b.queue_wait_steps.p50,
            "batch-1 queue wait p50 {} should exceed batch-16's {}",
            a.queue_wait_steps.p50,
            b.queue_wait_steps.p50
        );
        assert!(a.ttft_steps.p99 >= b.ttft_steps.p99);
    }

    #[test]
    fn storms_cancel_and_survivors_complete() {
        let m = model();
        let mut cfg = TraceConfig::poisson("stormy", 13, 1.5, 40, m.config().vocab);
        cfg.cancel_storms = vec![CancelStorm { at_step: 12, percent: 50 }];
        let trace = cfg.generate();
        let report = replay(&m, ServeConfig { max_batch: 4, ..ServeConfig::default() }, &trace);
        assert!(report.cancelled > 0, "the storm must cancel someone");
        assert_eq!(report.completed + report.cancelled, report.submitted);
    }

    #[test]
    fn tenants_report_shares() {
        let m = model();
        let trace = TraceConfig::poisson("tenants", 5, 1.5, 48, m.config().vocab).generate();
        let report = replay(&m, ServeConfig::default(), &trace);
        assert_eq!(report.tenants.len(), 4);
        let total: u64 = report.tenants.iter().map(|t| t.tokens).sum();
        assert_eq!(total, report.generated_tokens);
        assert!(report.fairness_jain > 0.0 && report.fairness_jain <= 1.0);
    }

    #[test]
    fn json_has_required_keys() {
        let m = model();
        let trace = TraceConfig::poisson("json", 3, 1.0, 24, m.config().vocab).generate();
        let json = replay(&m, ServeConfig::default(), &trace).to_json();
        crate::assert_json_wellformed(&json);
        for key in [
            "\"trace\"",
            "\"ttft_steps\"",
            "\"inter_token_steps\"",
            "\"goodput_tokens_per_step\"",
            "\"overload_goodput\"",
            "\"fairness_jain\"",
            "\"tenants\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
