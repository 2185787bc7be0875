//! From a `Recording` and the engine's final report to named metrics.

use std::collections::BTreeMap;

use opal_hw::performance::{workload_latency, Platform};
use opal_hw::workload::{DataFormat, TokenWorkload};
use opal_serve::{FinishReason, RequestReport, ServeReport};

use crate::drive::{Recording, Sent, StepRec};
use crate::gen::Class;
use crate::stats;
use crate::workloads::{self, Loop, Workload};

/// The service-level objective: a first token within two seconds, and
/// never more than half a second between two emissions. Loose on purpose:
/// the shared host this runs on stalls a process for 100 ms and more now
/// and then, and one stall hits every request of a closed loop at once; the
/// objective is there to catch an engine that stalls, not a host that does.
pub const SLO_TTFT_MS: f64 = 2000.0;
pub const SLO_GAP_MS: f64 = 500.0;

/// One number with its name, its unit and the sample it came from.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind `value`; 0 for a count or a single measurement.
    pub n: usize,
    /// Percentile, when `value` is one above the median.
    pub percentile: Option<f64>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric { name: name.to_owned(), value, unit, n: 0, percentile: None }
    }

    /// A percentile of `sample` (sorted here). A metric no sample supports
    /// (a workload without that kind of step) reads 0 with `n = 0`.
    pub fn of(name: &str, sample: &mut [f64], p: f64, unit: &'static str) -> Self {
        stats::sort(sample);
        let value = if sample.is_empty() { 0.0 } else { stats::percentile(sample, p) };
        Metric {
            name: name.to_owned(),
            value,
            unit,
            n: sample.len(),
            percentile: (p > 50.0).then_some(p),
        }
    }

    /// The line printed for a person: value, unit, sample count, and a
    /// warning when fewer than ten samples lie beyond the percentile.
    pub fn line(&self) -> String {
        let mut s = format!("  {:<34} {:>14.4} {}", self.name, self.value, self.unit);
        if self.n > 0 {
            s.push_str(&format!("  (n={})", self.n));
        }
        if self.percentile.is_some_and(|p| !stats::supported(self.n, p)) {
            s.push_str("  [fewer than 10 samples beyond]");
        }
        s
    }
}

/// What became of one request sent inside the window.
#[derive(Clone, Copy, Debug)]
pub enum Outcome<'a> {
    Done(&'a RequestReport),
    /// `submit_request` returned an error.
    Rejected,
    /// Sent, and neither finished nor refused when the run ended.
    Unfinished,
}

/// A request sent inside the window, with its outcome.
#[derive(Clone, Copy, Debug)]
pub struct Joined<'a> {
    pub sent: &'a Sent,
    pub outcome: Outcome<'a>,
}

impl<'a> Joined<'a> {
    pub fn report(&self) -> Option<&'a RequestReport> {
        match self.outcome {
            Outcome::Done(r) => Some(r),
            _ => None,
        }
    }

    /// Finished with every token it asked for.
    pub fn complete(&self) -> bool {
        self.report()
            .is_some_and(|r| r.finish == FinishReason::Limit && r.tokens.len() == self.sent.limit)
    }
}

/// The requests the metrics are over: those due at or after `t0`. A closed
/// loop's requests still in flight when its window closed have no outcome
/// and are left out; the open loop was given time to finish, so one still
/// unfinished there is a failure.
pub fn join<'a>(rec: &'a Recording, report: &'a ServeReport, w: &Workload) -> Vec<Joined<'a>> {
    let by_id: BTreeMap<_, _> = report.requests.iter().map(|r| (r.id, r)).collect();
    let open = matches!(w.looping, Loop::Open { .. });
    rec.sent
        .iter()
        .filter(|s| s.due_ns >= rec.t0_ns)
        .filter_map(|sent| {
            let outcome = match sent.id {
                None => Outcome::Rejected,
                Some(id) => match by_id.get(&id) {
                    Some(r) => Outcome::Done(r),
                    None if open => Outcome::Unfinished,
                    None => return None,
                },
            };
            Some(Joined { sent, outcome })
        })
        .collect()
}

/// What became of the window's requests, after the output check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tally {
    pub sent: usize,
    /// Completed with every token, and not found wrong by the check.
    pub ok: usize,
    pub rejected: usize,
    /// Sent and accepted, and not `ok`.
    pub failed: usize,
}

impl Tally {
    pub fn of(joined: &[Joined<'_>], mismatched: usize) -> Self {
        let complete = joined.iter().filter(|j| j.complete()).count();
        let ok = complete.saturating_sub(mismatched);
        let rejected = joined.iter().filter(|j| matches!(j.outcome, Outcome::Rejected)).count();
        Tally { sent: joined.len(), ok, rejected, failed: joined.len() - ok - rejected }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// End times of a request's emission events: the tokens one speculative
/// step commits together reach the client together and are one event.
pub fn emissions(rec: &Recording, r: &RequestReport) -> Vec<u64> {
    let mut steps = r.token_steps.clone();
    steps.dedup();
    steps.iter().map(|&s| rec.steps[s as usize - 1].end_ns).collect()
}

/// Per-request latency figures, from the benchmark's own stamps.
struct Latency {
    ttft_ms: f64,
    gaps_ms: Vec<f64>,
    tpot_ms: Option<f64>,
}

fn latency(rec: &Recording, j: &Joined<'_>) -> Option<Latency> {
    let r = j.report()?;
    let events = emissions(rec, r);
    let (&first, &last) = (events.first()?, events.last()?);
    let tpot_ms = (r.tokens.len() > 1 && last > first)
        .then(|| ms(last - first) / (r.tokens.len() - 1) as f64);
    Some(Latency {
        ttft_ms: ms(first.saturating_sub(j.sent.due_ns)),
        gaps_ms: events.windows(2).map(|e| ms(e[1] - e[0])).collect(),
        tpot_ms,
    })
}

fn window_steps(rec: &Recording) -> impl Iterator<Item = &StepRec> {
    rec.steps.iter().filter(|s| s.end_ns > rec.t0_ns && s.end_ns <= rec.t1_ns)
}

/// Inputs of `end_to_end` that are not in the recording.
pub struct Host {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
}

/// Generated tokens per second. A total over the window is a mean, and in
/// a closed loop one stall of the shared host moves it: it read 906 to
/// 1305 tok/s over ten runs of one commit where the median second read a
/// quarter as wide. So a closed loop reports the median over the whole
/// seconds of its window. The open loop idles between requests and makes
/// a stall up, its seconds hold a handful of 8-token requests each, and
/// its total is the offered rate unless the engine falls behind: it
/// reports the total.
fn tokens_per_second(rec: &Recording, w: &Workload) -> Metric {
    const SLICE_NS: u64 = 1_000_000_000;
    let slices = ((rec.t1_ns - rec.t0_ns) / SLICE_NS) as usize;
    let generated: usize = window_steps(rec).map(|s| s.summary.generated).sum();
    let value = if slices == 0 || matches!(w.looping, Loop::Open { .. }) {
        generated as f64 / ((rec.t1_ns - rec.t0_ns).max(1) as f64 / 1e9)
    } else {
        let mut per_slice = vec![0.0f64; slices];
        for s in window_steps(rec) {
            let k = ((s.end_ns - rec.t0_ns - 1) / SLICE_NS) as usize;
            if let Some(slot) = per_slice.get_mut(k) {
                *slot += s.summary.generated as f64;
            }
        }
        stats::median(&per_slice)
    };
    let mut m = Metric::new("gen_tok_s", value, "tok/s");
    m.n = generated;
    m
}

/// Latency samples of the window's requests.
struct Samples {
    ttft_ms: Vec<f64>,
    gaps_ms: Vec<f64>,
    tpot_ms: Vec<f64>,
}

fn samples(rec: &Recording, joined: &[Joined<'_>]) -> Samples {
    let lat: Vec<Latency> = joined.iter().filter_map(|j| latency(rec, j)).collect();
    Samples {
        ttft_ms: lat.iter().map(|l| l.ttft_ms).collect(),
        gaps_ms: lat.iter().flat_map(|l| l.gaps_ms.iter().copied()).collect(),
        tpot_ms: lat.iter().filter_map(|l| l.tpot_ms).collect(),
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Host wall clock and
/// host memory only.
pub fn end_to_end(
    rec: &Recording,
    report: &ServeReport,
    w: &Workload,
    joined: &[Joined<'_>],
    verified_failures: usize,
    host: &Host,
) -> Vec<Metric> {
    let mut sample = samples(rec, joined);
    // A request meets the objective when it completed, its first token
    // came in time and no gap was too long; everything else sent misses.
    let met = joined
        .iter()
        .filter(|j| j.complete())
        .filter_map(|j| latency(rec, j))
        .filter(|l| l.ttft_ms <= SLO_TTFT_MS && l.gaps_ms.iter().all(|&g| g <= SLO_GAP_MS))
        .count()
        .saturating_sub(verified_failures);
    let mut slo = Metric::new("slo_ok_share", met as f64 / joined.len().max(1) as f64, "share");
    slo.n = joined.len();

    let kv_mib = (report.blocks_peak * w.block_bytes()) as f64 / f64::from(1 << 20);
    vec![
        Metric::new("setup_s", host.setup_s, "s"),
        tokens_per_second(rec, w),
        Metric::of("ttft_ms_p50", &mut sample.ttft_ms, 50.0, "ms"),
        Metric::of("itl_ms_p50", &mut sample.gaps_ms, 50.0, "ms"),
        slo,
        Metric::new("peak_rss_mb", host.peak_rss_mb, "MiB"),
        Metric::new("kv_peak_mb", kv_mib, "MiB"),
    ]
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How a step spent its time, by what it held.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// Every sequence decoded one row.
    Decode,
    /// At least one prompt chunk rode along.
    Mixed,
    /// At least one fused speculative verify pass.
    Verify,
}

pub fn kind(s: &StepRec) -> StepKind {
    if s.summary.prefilled > 0 {
        StepKind::Mixed
    } else if s.summary.drafted > 0 {
        StepKind::Verify
    } else {
        StepKind::Decode
    }
}

/// Median step time of `kind` among `steps`, in ms.
fn step_ms<'a>(name: &str, steps: impl Iterator<Item = &'a StepRec>, k: StepKind) -> Metric {
    let mut d: Vec<f64> =
        steps.filter(|s| kind(s) == k).map(|s| ms(s.end_ns - s.begin_ns)).collect();
    Metric::of(name, &mut d, 50.0, "ms")
}

/// Traced over untraced median step period, less one. The period runs from
/// a step's start to the next step's start, because the harness does its
/// tracing between steps; only periods inside one block, of the kind of
/// step the workload mostly runs, and with the next step following at once
/// (the open loop idles between arrivals) are compared.
fn trace_overhead(rec: &Recording) -> f64 {
    const BACK_TO_BACK_NS: u64 = 200_000;
    let k = dominant_kind(rec);
    let period = |traced: bool| {
        let d: Vec<f64> = rec
            .steps
            .windows(2)
            .filter(|p| p[0].begin_ns >= rec.t0_ns && p[1].end_ns <= rec.t1_ns)
            .filter(|p| p[0].traced == traced && p[1].traced == traced)
            .filter(|p| p[1].begin_ns - p[0].end_ns < BACK_TO_BACK_NS)
            .filter(|p| kind(&p[0]) == k && kind(&p[1]) == k)
            .map(|p| ms(p[1].begin_ns - p[0].begin_ns))
            .collect();
        stats::median(&d)
    };
    let (with, without) = (period(true), period(false));
    if with.is_finite() && without > 0.0 {
        with / without - 1.0
    } else {
        0.0
    }
}

/// Times the harness took around the run, handed to `serve_layer`.
pub struct HarnessTimes {
    /// (start, end) of the `report()` call and of the `audit()` call.
    pub report_ns: (u64, u64),
    pub audit_ns: (u64, u64),
}

/// The `serve.*`, `hw.*` per-workload and `trace.*` metrics of a traced
/// run. Step-time medians and the modeled figures come from the traced
/// blocks of steps; counts come from the whole window, which tracing does
/// not change.
pub fn serve_layer(
    rec: &Recording,
    report: &ServeReport,
    w: &Workload,
    joined: &[Joined<'_>],
    verified_failures: usize,
    times: &HarnessTimes,
) -> Vec<Metric> {
    let traced = || window_steps(rec).filter(|s| s.traced);
    let window_s = (rec.t1_ns - rec.t0_ns) as f64 / 1e9;
    let mut out = vec![
        step_ms("serve.step_ms_decode_p50", traced(), StepKind::Decode),
        step_ms("serve.step_ms_mixed_p50", traced(), StepKind::Mixed),
        step_ms("serve.step_ms_verify_p50", traced(), StepKind::Verify),
    ];

    let n_traced = traced().count();
    let in_window = |s: &StepRec| s.traced && s.end_ns > rec.t0_ns && s.end_ns <= rec.t1_ns;
    let rows: usize = (0..rec.steps.len())
        .filter(|&i| in_window(&rec.steps[i]))
        .map(|i| rec.work_of(i).len())
        .sum();
    let mut batch = Metric::new("serve.batch_mean", rows as f64 / n_traced.max(1) as f64, "seq");
    batch.n = n_traced;
    out.push(batch);

    let done = || joined.iter().filter_map(|j| j.report().map(|r| (j.sent, r)));
    // Admission happens inside step `admitted_step + 1`.
    let mut queue: Vec<f64> = done()
        .map(|(s, r)| ms(rec.steps[r.admitted_step as usize].begin_ns.saturating_sub(s.due_ns)))
        .collect();
    out.push(Metric::of("serve.queue_wait_ms_p50", &mut queue, 50.0, "ms"));
    let ttft_of = |warm: bool| -> Vec<f64> {
        joined
            .iter()
            .filter(|j| (j.sent.class == Class::Warm) == warm)
            .filter_map(|j| latency(rec, j))
            .map(|l| l.ttft_ms)
            .collect()
    };
    out.push(Metric::of("serve.ttft_warm_ms_p50", &mut ttft_of(true), 50.0, "ms"));
    out.push(Metric::of("serve.ttft_cold_ms_p50", &mut ttft_of(false), 50.0, "ms"));
    // The tails and the per-request mean: what a user would also ask for,
    // and what on this host is too much the host's to carry a bound.
    let mut sample = samples(rec, joined);
    out.push(Metric::of("serve.ttft_ms_p90", &mut sample.ttft_ms, 90.0, "ms"));
    out.push(Metric::of("serve.itl_ms_p95", &mut sample.gaps_ms, 95.0, "ms"));
    out.push(Metric::of("serve.tpot_ms_p50", &mut sample.tpot_ms, 50.0, "ms"));
    let shared: usize = done().map(|(_, r)| r.shared_prefill_tokens).sum();
    let prompts: usize = done().map(|(_, r)| r.prompt_len).sum();
    out.push(Metric::new(
        "serve.shared_prefill_share",
        shared as f64 / prompts.max(1) as f64,
        "share",
    ));

    let sum = |f: fn(&StepRec) -> usize| window_steps(rec).map(f).sum::<usize>() as f64;
    let (drafted, accepted) = (sum(|s| s.summary.drafted), sum(|s| s.summary.accepted));
    let generated = sum(|s| s.summary.generated);
    out.push(Metric::new("serve.preemptions", sum(|s| s.summary.preempted), "count"));
    out.push(Metric::new("serve.blocks_peak", report.blocks_peak as f64, "blocks"));
    out.push(Metric::new("serve.accept_rate", accepted / drafted.max(1.0), "share"));
    out.push(Metric::new(
        "serve.steps_per_tok",
        window_steps(rec).count() as f64 / generated.max(1.0),
        "step/tok",
    ));

    let in_window = |s: &&Sent| s.begin_ns >= rec.t0_ns && s.begin_ns <= rec.t1_ns;
    let mut submit: Vec<f64> =
        rec.sent.iter().filter(in_window).map(|s| (s.end_ns - s.begin_ns) as f64 / 1e3).collect();
    let submit_busy_ns: u64 =
        rec.sent.iter().filter(in_window).map(|s| s.end_ns - s.begin_ns).sum();
    let step_busy_ns: u64 = window_steps(rec).map(|s| s.end_ns - s.begin_ns).sum();
    out.push(Metric::of("serve.submit_us_p50", &mut submit, 50.0, "us"));
    let span_ms = |(from, to): (u64, u64)| ms(to - from);
    out.push(Metric::new("serve.report_ms", span_ms(times.report_ns), "ms"));
    out.push(Metric::new("serve.audit_ms", span_ms(times.audit_ns), "ms"));
    out.push(Metric::new(
        "serve.util",
        (submit_busy_ns + step_busy_ns) as f64 / 1e9 / window_s,
        "share",
    ));
    let mut late: Vec<f64> = joined.iter().map(|j| ms(j.sent.begin_ns - j.sent.due_ns)).collect();
    out.push(Metric::of("serve.late_ms_p99", &mut late, 99.0, "ms"));
    out.push(Metric::new("serve.backlog_end", rec.backlog_end as f64, "req"));

    let tally = Tally::of(joined, verified_failures);
    out.push(Metric::new("serve.sent", tally.sent as f64, "req"));
    out.push(Metric::new("serve.ok", tally.ok as f64, "req"));
    out.push(Metric::new("serve.failed", tally.failed as f64, "req"));
    out.push(Metric::new("serve.rejected", tally.rejected as f64, "req"));

    out.extend(modeled(rec, report, w));

    out.push(Metric::new("trace.overhead_share", trace_overhead(rec), "share"));
    out
}

/// The step kind a workload spends most of its window in.
fn dominant_kind(rec: &Recording) -> StepKind {
    let count = |k| window_steps(rec).filter(|s| kind(s) == k).count();
    [StepKind::Decode, StepKind::Mixed, StepKind::Verify]
        .into_iter()
        .max_by_key(|&k| count(k))
        .unwrap_or(StepKind::Decode)
}

/// The traced steps' realized schedule priced on the modeled OPAL
/// platform. Simulated figures, never mixed with host time: they must
/// not move when only the host gets faster.
fn modeled(rec: &Recording, report: &ServeReport, w: &Workload) -> Vec<Metric> {
    let config = workloads::model_config();
    let mut fmt = DataFormat::opal_w4a47();
    fmt.kv_bits = w.kv_scheme().bits_per_element(config.d_model);
    let platform = Platform::reference();
    let weight_bytes = config.decoder_params() as f64 * fmt.weight_bits / 8.0;

    let mut total = TokenWorkload::zero();
    let (mut modeled_s, mut tokens) = (0.0, 0usize);
    for (i, step) in rec.steps.iter().enumerate().filter(|(_, s)| s.traced) {
        // Prefill positions and decode rows are one pass each at their
        // context; a fused verify pass streams its KV once for all rows.
        // The whole step shares one weight stream.
        let mut contexts = Vec::new();
        let mut wl = TokenWorkload::zero();
        for s in rec.work_of(i) {
            contexts.extend((1..=s.prefilled).map(|p| s.prefill_start + p));
            contexts.extend(s.decode_context);
            if s.verify_rows > 0 {
                wl.accumulate(&TokenWorkload::from_verify(
                    &config,
                    &fmt,
                    s.verify_start,
                    s.verify_rows,
                ));
            }
        }
        wl.accumulate(&TokenWorkload::from_schedule(&config, &fmt, &contexts));
        if wl.macs.total() == 0 {
            continue;
        }
        wl.weight_bytes = weight_bytes;
        modeled_s += workload_latency(&wl, &fmt, &platform).total_s();
        total.accumulate(&wl);
        tokens += step.summary.generated;
    }
    let per_tok_uj = report.energy_j * 1e6 / (report.generated_tokens.max(1)) as f64;
    let mut tok_s =
        Metric::new("hw.opal_model_tok_s", tokens as f64 / modeled_s.max(1e-12), "tok/s");
    tok_s.n = tokens;
    vec![
        tok_s,
        Metric::new("hw.opal_uj_per_tok", per_tok_uj, "uJ/tok"),
        Metric::new("hw.int_mac_fraction", total.macs.int_fraction(), "share"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use opal_model::{Model, ModelConfig, QuantScheme};
    use opal_serve::{Request, ServeConfig, ServeEngine, StepSummary};

    const MS: u64 = 1_000_000;

    fn step(begin_ms: u64, end_ms: u64, generated: usize) -> StepRec {
        let summary = StepSummary { generated, ..StepSummary::default() };
        StepRec {
            begin_ns: begin_ms * MS,
            end_ns: end_ms * MS,
            summary,
            work_end: 0,
            traced: false,
        }
    }

    /// Two requests through a real (tiny) engine, with step `k` stamped
    /// `[10k, 10k + 8]` ms: request 0 is due at 5 ms and gets 4 tokens in
    /// steps 1-4, request 1 is due at 25 ms, joins in step 3, gets 2 tokens.
    fn two_requests() -> (Recording, opal_serve::ServeReport) {
        let model = Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 3).unwrap();
        let config =
            ServeConfig { max_batch: 2, prefill_chunk: usize::MAX, ..ServeConfig::default() };
        let mut engine = ServeEngine::new(&model, config);
        let mut rec = Recording { t0_ns: 0, t1_ns: 100 * MS, ..Recording::default() };
        let send = |engine: &mut ServeEngine<'_>, rec: &mut Recording, due_ms: u64, limit| {
            let id = engine.submit_request(Request::new(&[1, 2, 3]).with_limit(limit)).ok();
            rec.sent.push(Sent {
                index: rec.sent.len(),
                id,
                class: Class::Unique,
                prompt_len: 3,
                limit,
                due_ns: due_ms * MS,
                begin_ns: due_ms * MS,
                end_ns: due_ms * MS,
            });
        };
        send(&mut engine, &mut rec, 5, 4);
        for k in 1..=4u64 {
            if k == 3 {
                send(&mut engine, &mut rec, 25, 2);
            }
            let summary = engine.step();
            rec.steps.push(StepRec { summary, ..step(10 * k, 10 * k + 8, 0) });
        }
        (rec, engine.report(std::time::Duration::from_millis(100)))
    }

    #[test]
    fn latencies_come_from_the_benchmarks_stamps() {
        let (rec, report) = two_requests();
        let joined = join(&rec, &report, &workloads::ALL[0]);
        assert_eq!(joined.len(), 2);
        assert!(joined.iter().all(Joined::complete));
        let first = latency(&rec, &joined[0]).unwrap();
        // Due at 5 ms, first token at the end of step 1 (18 ms).
        assert_eq!(first.ttft_ms, 13.0);
        assert_eq!(first.gaps_ms, vec![10.0, 10.0, 10.0]);
        assert_eq!(first.tpot_ms, Some(10.0));
        let second = latency(&rec, &joined[1]).unwrap();
        // Due at 25 ms, admitted and prefilled in step 3, which ends at 38.
        assert_eq!(second.ttft_ms, 13.0);
        assert_eq!(second.gaps_ms, vec![10.0]);

        let host = Host { setup_s: 0.5, peak_rss_mb: 9.0 };
        let m = end_to_end(&rec, &report, &workloads::ALL[0], &joined, 0, &host);
        let value = |name: &str| m.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("ttft_ms_p50"), 13.0);
        assert_eq!(value("itl_ms_p50"), 10.0);
        assert_eq!(value("slo_ok_share"), 1.0);
        // A window shorter than a second reports its total: 6 tokens in 0.1 s.
        assert_eq!(value("gen_tok_s"), 60.0);
        // One request of the two found wrong by the output check misses.
        let m = end_to_end(&rec, &report, &workloads::ALL[0], &joined, 1, &host);
        assert_eq!(m.iter().find(|m| m.name == "slo_ok_share").unwrap().value, 0.5);
    }

    #[test]
    fn a_request_without_an_outcome_is_left_out_of_a_closed_loop_and_fails_an_open_one() {
        let (mut rec, report) = two_requests();
        // A third request the engine never finished: sent, never stepped.
        let model = Model::new(ModelConfig::tiny(), QuantScheme::bf16(), 3).unwrap();
        let mut other = ServeEngine::new(&model, ServeConfig::default());
        for _ in 0..3 {
            let id = other.submit_request(Request::new(&[1]).with_limit(1)).ok();
            rec.sent.push(Sent { id, index: 2, due_ns: 30 * MS, ..rec.sent[0].clone() });
        }
        rec.sent.truncate(3);
        // Its id (0 of another engine) collides with request 0's; give it
        // the last of the three, which this run's report does not hold.
        rec.sent[2].id = other.submit_request(Request::new(&[1]).with_limit(1)).ok();
        let closed = join(&rec, &report, &workloads::ALL[0]);
        assert_eq!(closed.len(), 2);
        let open = join(&rec, &report, workloads::by_name("prefill_shared_open").unwrap());
        assert_eq!(open.len(), 3);
        assert!(matches!(open[2].outcome, Outcome::Unfinished));
        assert!(!open[2].complete());
        // A request sent before the window opened is in neither.
        rec.t0_ns = 10 * MS;
        assert_eq!(join(&rec, &report, &workloads::ALL[0]).len(), 1);
    }

    #[test]
    fn a_closed_loop_reports_its_median_second() {
        // Three whole seconds: 100, 40 (a stall) and 100 tokens.
        let mut rec = Recording { t0_ns: 0, t1_ns: 3_000 * MS, ..Recording::default() };
        rec.steps = vec![
            step(0, 500, 50),
            step(500, 1_000, 50),
            step(1_000, 1_900, 40),
            step(1_900, 2_400, 50),
            step(2_400, 3_000, 50),
            step(3_000, 3_100, 999), // after the window
        ];
        let closed = tokens_per_second(&rec, &workloads::ALL[0]);
        assert_eq!((closed.value, closed.n), (100.0, 240));
        // The open loop reports its total.
        let open = tokens_per_second(&rec, workloads::by_name("prefill_shared_open").unwrap());
        assert_eq!(open.value, 80.0);
    }

    #[test]
    fn tracing_overhead_compares_back_to_back_periods_of_the_same_kind() {
        let mut rec = Recording { t0_ns: 0, t1_ns: 10_000 * MS, ..Recording::default() };
        let mut at = 0;
        for k in 0..40 {
            let traced = (k / 10) % 2 == 0;
            // A traced step is followed by 0.1 ms of tracing, an untraced
            // one by none; every fifth step is followed by an idle second,
            // which is no one's overhead.
            let mut s = StepRec { traced, ..step(0, 0, 1) };
            (s.begin_ns, s.end_ns) = (at, at + 10 * MS);
            at = s.end_ns
                + if traced { MS / 10 } else { 0 }
                + if k % 5 == 4 { 1_000 * MS } else { 0 };
            rec.steps.push(s);
        }
        rec.t1_ns = at;
        let overhead = trace_overhead(&rec);
        assert!((overhead - 0.01).abs() < 1e-9, "{overhead}");
        assert_eq!(trace_overhead(&Recording::default()), 0.0);
    }

    #[test]
    fn steps_are_named_by_what_they_carried() {
        let mut s = step(0, 1, 4);
        assert_eq!(kind(&s), StepKind::Decode);
        s.summary.drafted = 3;
        assert_eq!(kind(&s), StepKind::Verify);
        s.summary.prefilled = 8;
        assert_eq!(kind(&s), StepKind::Mixed);
    }
}
