//! Serving statistics: throughput, per-request latency, aggregate energy,
//! and KV-pool residency.

use std::time::Duration;

use crate::request::RequestId;

/// Why a request left the engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FinishReason {
    /// The request generated its full token limit.
    #[default]
    Limit,
    /// The request was aborted via `ServeEngine::cancel` (its KV blocks
    /// were released immediately; `tokens` holds whatever was generated
    /// before the cancellation).
    Cancelled,
    /// The request's `deadline_steps` TTL elapsed — in the queue, while
    /// prefilling, or mid-decode — before it could finish. Its KV blocks
    /// were released immediately; `tokens` holds whatever was generated
    /// before expiry. Never reported as [`FinishReason::Cancelled`], even
    /// when the expiry races a preemption or cancellation.
    DeadlineExceeded,
    /// The sequence panicked mid-step (a model invariant tripped, or an
    /// injected chaos fault). The panic was quarantined: this sequence was
    /// retired and its blocks returned, while every other in-flight
    /// sequence continued bit-identically and the worker pool survived.
    Failed,
    /// The request was shed from the admission queue by degraded-mode load
    /// shedding (youngest-queued first) while the engine was protecting
    /// in-flight work under pressure.
    Shed,
}

/// Submission rejections split by type (satellite telemetry: one aggregate
/// counter hides whether clients are hitting backpressure, memory limits,
/// or their own malformed requests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RejectionCounts {
    /// Rejections with `ServeError::QueueFull` (retryable backpressure).
    pub queue_full: u64,
    /// Rejections with `ServeError::InsufficientBlocks` (the request could
    /// never fit the KV pool).
    pub insufficient_blocks: u64,
    /// Permanently-invalid submissions: empty prompt, out-of-vocabulary
    /// token, zero token limit, invalid sampling parameters.
    pub invalid: u64,
}

impl RejectionCounts {
    /// Total rejections of every type.
    pub fn total(&self) -> u64 {
        self.queue_full + self.insufficient_blocks + self.invalid
    }
}

/// Outcome of one finished request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestReport {
    /// The handle returned by `submit`.
    pub id: RequestId,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// The generated tokens, in order.
    pub tokens: Vec<u32>,
    /// Why the request retired.
    pub finish: FinishReason,
    /// The tenant tag the request was submitted with
    /// (`Request::with_tenant`), if any. Multi-tenant harnesses aggregate
    /// per-tenant token shares from this field.
    pub tenant: Option<String>,
    /// Scheduler step at which the request entered the batch (the start of
    /// its `Prefilling` phase; for a preempted request, its most recent
    /// re-admission).
    pub admitted_step: u64,
    /// Scheduler step at which the request retired.
    pub finished_step: u64,
    /// Times this request was preempted under KV-pool pressure (each one
    /// dropped its blocks and re-queued it; output is unaffected).
    pub preemptions: u32,
    /// Prompt positions whose prefill was skipped because their KV blocks
    /// were adopted read-only from the prefix cache (cumulative across
    /// re-admissions).
    pub shared_prefill_tokens: usize,
    /// Wall time spent waiting in the admission queue (submission → batch
    /// slot; for a preempted request, submission → final re-admission).
    /// Under chunked admission this is the fairness-sensitive number: a
    /// long prompt ahead in the queue costs bounded per-step work, not its
    /// whole prefill, before this request gets a slot.
    pub queue_wait: Duration,
    /// Wall time from submission to the first sampled token (the TTFT the
    /// client observed: queue wait plus the chunked prefill of the whole
    /// prompt). `None` when the request was cancelled before its first
    /// token.
    pub ttft: Option<Duration>,
    /// Scheduler step at which each generated token was sampled, parallel
    /// to `tokens`. Consecutive differences are the inter-token step gaps
    /// (1 in steady decode; larger when the request was preempted and had
    /// to re-prefill). Steps recorded before a preemption are preserved.
    pub token_steps: Vec<u64>,
    /// Wall time from submission to retirement.
    pub latency: Duration,
}

/// A retired request as the engine keeps it until it is reported: the
/// report without its `tokens` and `token_steps`, which are held as LEB128
/// bytes — the tokens as they are, the steps as deltas (each step less the
/// one before it, the first less zero) — two or three bytes a token for
/// both where the two vectors take twelve. The engine keeps every request
/// it retires, so this is most of what it holds per generated token.
#[derive(Debug)]
pub(crate) struct Finished {
    report: RequestReport,
    tokens: Box<[u8]>,
    steps: Box<[u8]>,
}

impl Finished {
    pub(crate) fn new(mut report: RequestReport) -> Self {
        let tokens = leb128(report.tokens.iter().map(|&t| u64::from(t)));
        let mut prev = 0u64;
        let steps = leb128(report.token_steps.iter().map(|&step| {
            let delta = step.wrapping_sub(prev);
            prev = step;
            delta
        }));
        (report.tokens, report.token_steps) = (Vec::new(), Vec::new());
        Finished { report, tokens, steps }
    }

    /// The report as it was retired.
    pub(crate) fn report(&self) -> RequestReport {
        // Every value came from a `u32` token.
        let tokens = unleb128(&self.tokens).map(|t| t as u32).collect();
        let mut step = 0u64;
        let token_steps = unleb128(&self.steps)
            .map(|delta| {
                step = step.wrapping_add(delta);
                step
            })
            .collect();
        RequestReport { tokens, token_steps, ..self.report.clone() }
    }
}

/// `values` in LEB128: seven bits a byte, low first, the top bit set on
/// every byte but a value's last.
fn leb128(values: impl ExactSizeIterator<Item = u64>) -> Box<[u8]> {
    let mut out = Vec::with_capacity(values.len());
    for mut v in values {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    out.into_boxed_slice()
}

/// The values [`leb128`] wrote.
fn unleb128(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    let (mut value, mut shift) = (0u64, 0);
    bytes.iter().filter_map(move |&byte| {
        value |= u64::from(byte & 0x7F) << shift;
        shift += 7;
        (byte & 0x80 == 0).then(|| {
            let v = value;
            (value, shift) = (0, 0);
            v
        })
    })
}

/// Aggregate statistics of a serving run.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReport {
    /// Scheduler steps executed.
    pub steps: u64,
    /// Prompt tokens processed during admission prefill.
    pub prefill_tokens: u64,
    /// Prompt tokens whose prefill was skipped via prefix sharing (their
    /// blocks were already resident).
    pub shared_prefill_tokens: u64,
    /// Tokens generated across all requests.
    pub generated_tokens: u64,
    /// Draft tokens proposed and verified by speculative decoding (zero
    /// when `ServeConfig::spec` is off).
    pub drafted_tokens: u64,
    /// Draft tokens accepted by verification — each one is a generated
    /// token that skipped its own sequential decode pass.
    pub accepted_tokens: u64,
    /// Largest concurrent batch observed.
    pub peak_batch: usize,
    /// High-water mark of KV blocks allocated from the engine's pool
    /// (block tables plus prefix cache; shared blocks count once).
    pub blocks_peak: usize,
    /// Sequences preempted under KV-pool pressure (dropped and re-queued;
    /// every preempted request still completes with unchanged output).
    pub preemptions: u64,
    /// Requests retired with [`FinishReason::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Sequences retired with [`FinishReason::Failed`] (quarantined
    /// panics).
    pub failed: u64,
    /// Requests retired with [`FinishReason::Shed`] (degraded-mode load
    /// shedding).
    pub shed: u64,
    /// Steps the engine spent in degraded mode (shrunken batch/prefill
    /// budgets and load shedding under pressure).
    pub degraded_steps: u64,
    /// Transitions into or out of degraded mode (an even count means the
    /// engine ended the run healthy).
    pub mode_transitions: u64,
    /// Submission rejections, split by type.
    pub rejections: RejectionCounts,
    /// Wall time of the run.
    pub elapsed: Duration,
    /// Total tokens (prefill + generated) per second of wall time.
    pub tokens_per_sec: f64,
    /// Generated tokens per second of wall time.
    pub generated_per_sec: f64,
    /// Aggregate modeled accelerator energy in joules: the sum over steps
    /// of the accelerator's energy for each step's
    /// [`step_workload`](crate::step_workload) over its modeled latency
    /// (zero when no accelerator model is attached).
    pub energy_j: f64,
    /// Per-request outcomes, ordered by request id.
    pub requests: Vec<RequestReport>,
}

impl ServeReport {
    /// The report for `id`, if that request finished during this run.
    pub fn request(&self, id: RequestId) -> Option<&RequestReport> {
        self.requests.iter().find(|r| r.id == id)
    }

    /// Mean request latency, or zero when no request finished.
    pub fn mean_latency(&self) -> Duration {
        if self.requests.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.requests.iter().map(|r| r.latency).sum();
        total / self.requests.len() as u32
    }

    /// Mean time finished requests spent in the admission queue, or zero
    /// when no request finished.
    pub fn mean_queue_wait(&self) -> Duration {
        if self.requests.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.requests.iter().map(|r| r.queue_wait).sum();
        total / self.requests.len() as u32
    }

    /// Fraction of drafted tokens the verifier accepted, or zero when
    /// speculation never drafted (off, or every step fell back).
    pub fn acceptance_rate(&self) -> f64 {
        if self.drafted_tokens == 0 {
            0.0
        } else {
            self.accepted_tokens as f64 / self.drafted_tokens as f64
        }
    }

    /// Energy per generated token in joules, or zero without accounting.
    pub fn energy_per_generated_token(&self) -> f64 {
        if self.generated_tokens == 0 {
            0.0
        } else {
            self.energy_j / self.generated_tokens as f64
        }
    }
}

impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "ServeReport")?;
        writeln!(
            f,
            "  {} requests, {} steps, peak batch {}",
            self.requests.len(),
            self.steps,
            self.peak_batch
        )?;
        writeln!(
            f,
            "  tokens: {} prefill + {} generated in {:.3?}",
            self.prefill_tokens, self.generated_tokens, self.elapsed
        )?;
        writeln!(
            f,
            "  kv: peak {} blocks, {} prefix-shared prompt tokens, {} preemptions",
            self.blocks_peak, self.shared_prefill_tokens, self.preemptions
        )?;
        if self.deadline_exceeded + self.failed + self.shed + self.mode_transitions > 0
            || self.rejections.total() > 0
        {
            writeln!(
                f,
                "  robustness: {} expired, {} failed, {} shed, {} degraded steps \
                 ({} transitions); rejections {} queue-full / {} insufficient-blocks / {} invalid",
                self.deadline_exceeded,
                self.failed,
                self.shed,
                self.degraded_steps,
                self.mode_transitions,
                self.rejections.queue_full,
                self.rejections.insufficient_blocks,
                self.rejections.invalid
            )?;
        }
        if self.drafted_tokens > 0 {
            writeln!(
                f,
                "  speculation: {} drafted, {} accepted ({:.1}% acceptance)",
                self.drafted_tokens,
                self.accepted_tokens,
                100.0 * self.acceptance_rate()
            )?;
        }
        writeln!(
            f,
            "  throughput: {:.1} tok/s total, {:.1} tok/s generated",
            self.tokens_per_sec, self.generated_per_sec
        )?;
        writeln!(
            f,
            "  mean latency: {:.3?} (queue wait {:.3?})",
            self.mean_latency(),
            self.mean_queue_wait()
        )?;
        if self.energy_j > 0.0 {
            writeln!(
                f,
                "  energy: {:.3e} J total, {:.3e} J per generated token",
                self.energy_j,
                self.energy_per_generated_token()
            )?;
        }
        for r in &self.requests {
            writeln!(
                f,
                "  {}: prompt {}, generated {}{}, steps {}..{}, latency {:.3?}",
                r.id,
                r.prompt_len,
                r.tokens.len(),
                match r.finish {
                    FinishReason::Limit => "",
                    FinishReason::Cancelled => " (cancelled)",
                    FinishReason::DeadlineExceeded => " (deadline exceeded)",
                    FinishReason::Failed => " (failed)",
                    FinishReason::Shed => " (shed)",
                },
                r.admitted_step,
                r.finished_step,
                r.latency
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_retired_report_keeps_its_tokens_and_steps() {
        // Tokens of one, two and five LEB128 bytes; repeated steps (a
        // speculative step commits several tokens), gaps of one and of
        // several bytes, the largest step, and a step below the one before.
        let steps = [vec![], vec![0], vec![7, 7, 8, 9, 200, 16_600, 16_600, u64::MAX, 3]];
        let tokens = [0, 127, 128, 191, 16_383, 16_384, 31_999, u32::MAX, 5];
        for token_steps in steps {
            let report = RequestReport {
                id: RequestId(4),
                prompt_len: 3,
                tokens: tokens[..token_steps.len()].to_vec(),
                finish: FinishReason::Limit,
                tenant: Some("t".to_owned()),
                admitted_step: 2,
                finished_step: 9,
                preemptions: 1,
                shared_prefill_tokens: 0,
                queue_wait: Duration::from_micros(5),
                ttft: None,
                token_steps,
                latency: Duration::from_micros(9),
            };
            assert_eq!(Finished::new(report.clone()).report(), report);
        }
    }
}
