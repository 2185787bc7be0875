//! The load loops. They drive `ServeEngine` through `submit_request`,
//! `step` and `last_step_work` only, stamp every step's end on the
//! benchmark's own clock, and keep what they saw in memory.

use std::time::{Duration, Instant};

use opal_serve::{Request, RequestId, SeqStepWork, ServeEngine, StepSummary};

use crate::gen::{Class, Stream};
use crate::workloads::{Loop, Workload};

/// Nanoseconds since the process started.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, ns: u64) {
        let now = self.ns();
        if ns > now {
            std::thread::sleep(Duration::from_nanos(ns - now));
        }
    }
}

/// One non-idle `step()`; `Recording::steps[i]` is engine step `i + 1`,
/// the index `RequestReport::token_steps` uses.
#[derive(Clone, Copy, Debug)]
pub struct StepRec {
    pub begin_ns: u64,
    pub end_ns: u64,
    pub summary: StepSummary,
    /// End of this step's slice of `Recording::work` (an untraced step's
    /// slice is empty).
    pub work_end: usize,
    pub traced: bool,
}

/// One `submit_request()` call.
#[derive(Clone, Debug)]
pub struct Sent {
    /// Index in the workload's stream.
    pub index: usize,
    /// `None` when the engine refused the request.
    pub id: Option<RequestId>,
    pub class: Class,
    pub prompt_len: usize,
    pub limit: usize,
    /// When the request was due: its schedule time in the open loop, the
    /// moment its client was free in a closed loop.
    pub due_ns: u64,
    pub begin_ns: u64,
    pub end_ns: u64,
}

/// Everything one run of a workload saw.
#[derive(Clone, Debug, Default)]
pub struct Recording {
    pub steps: Vec<StepRec>,
    pub sent: Vec<Sent>,
    /// `last_step_work()` of the traced steps, back to back.
    pub work: Vec<SeqStepWork>,
    /// The timed window: warm-up ends at `t0_ns`, sending ends at `t1_ns`.
    pub t0_ns: u64,
    pub t1_ns: u64,
    /// Requests sent and without an outcome at `t1_ns`.
    pub backlog_end: usize,
}

impl Recording {
    pub fn work_of(&self, step: usize) -> &[SeqStepWork] {
        let start = if step == 0 { 0 } else { self.steps[step - 1].work_end };
        &self.work[start..self.steps[step].work_end]
    }
}

/// Requests the open loop sends, all at once, before its window opens.
pub const OPEN_WARMUP_REQUESTS: usize = 8;
/// Steps in a block of a traced run; blocks are traced alternately.
pub const TRACE_BLOCK_STEPS: usize = 32;
/// How long the open loop may take to finish what it was sent.
const DRAIN_CAP: Duration = Duration::from_secs(10);

struct Driver<'e, 'm> {
    engine: &'e mut ServeEngine<'m>,
    clock: Clock,
    rec: Recording,
    trace: bool,
    shrink: Shrink,
    in_flight: usize,
}

/// Divisors of every request's prompt length and token limit: 1 and 1,
/// except under `--smoke`, which has to finish requests within a second.
#[derive(Clone, Copy, Debug)]
pub struct Shrink {
    pub prompt: usize,
    pub limit: usize,
}

impl Driver<'_, '_> {
    fn submit(
        &mut self,
        stream: &mut Stream,
        index: usize,
        limit_scale: (usize, usize),
        due_ns: u64,
    ) {
        let req = stream.get(index);
        let limit = (req.limit * limit_scale.0).div_ceil(limit_scale.1 * self.shrink.limit).max(1);
        let prompt = &req.prompt[..req.prompt.len().div_ceil(self.shrink.prompt)];
        let request = Request::new(prompt).with_limit(limit);
        let begin_ns = self.clock.ns();
        let id = self.engine.submit_request(request).ok();
        let end_ns = self.clock.ns();
        self.in_flight += usize::from(id.is_some());
        self.rec.sent.push(Sent {
            index,
            id,
            class: req.class,
            prompt_len: prompt.len(),
            limit,
            due_ns,
            begin_ns,
            end_ns,
        });
    }

    /// Runs one step and returns how many requests it retired.
    fn step(&mut self) -> usize {
        let begin_ns = self.clock.ns();
        let summary = self.engine.step();
        let end_ns = self.clock.ns();
        // A traced run traces every other block of steps, so that the cost
        // of tracing is read from one run of one process: blocks this short
        // see the same load, the same contexts and the same host.
        let traced = self.trace && (self.rec.steps.len() / TRACE_BLOCK_STEPS).is_multiple_of(2);
        if traced {
            self.rec.work.extend_from_slice(self.engine.last_step_work());
        }
        let work_end = self.rec.work.len();
        self.rec.steps.push(StepRec { begin_ns, end_ns, summary, work_end, traced });
        assert_eq!(
            self.engine.steps(),
            self.rec.steps.len() as u64,
            "the loops only step an engine that holds a request, and every such step counts"
        );
        let retired = summary.finished + summary.failed + summary.expired + summary.shed;
        self.in_flight -= retired;
        retired
    }

    fn open_window(&mut self, t0_ns: u64, seconds: f64) {
        self.rec.t0_ns = t0_ns;
        self.rec.t1_ns = t0_ns + (seconds * 1e9) as u64;
    }
}

/// How one run is to be driven.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub trace: bool,
    pub shrink: Shrink,
}

/// Sends `w`'s load into `engine` as `plan` says and returns what
/// happened. The engine must be new: the step index starts at zero.
pub fn run(
    engine: &mut ServeEngine<'_>,
    w: &Workload,
    stream: &mut Stream,
    plan: Plan,
    clock: Clock,
) -> Recording {
    let Plan { seed, seconds, trace, shrink } = plan;
    let rec = Recording::default();
    let mut d = Driver { engine, clock, rec, trace, shrink, in_flight: 0 };
    match w.looping {
        Loop::Closed { clients } => closed(&mut d, stream, clients, seconds),
        Loop::Open { .. } => open(&mut d, stream, &w.arrivals(seed, seconds), seconds),
    }
    d.rec
}

/// `clients` callers, each sending its next request when its previous one
/// completes. The first round is the warm-up: client `i` asks for
/// `(i + 1) / clients` of its request's tokens, so that from then on the
/// clients are spread evenly over a request's life instead of prefilling
/// and finishing in lockstep. The window opens when the first of them
/// completes and closes with the step that passes `seconds`; requests in
/// flight at that moment have no outcome and are not counted.
fn closed(d: &mut Driver<'_, '_>, stream: &mut Stream, clients: usize, seconds: f64) {
    let mut next = 0;
    for i in 0..clients {
        let now = d.clock.ns();
        d.submit(stream, next, (i + 1, clients), now);
        next += 1;
    }
    if d.in_flight == 0 {
        return;
    }
    let mut warm = true;
    loop {
        let retired = d.step();
        let now = d.rec.steps.last().map_or(0, |s| s.end_ns);
        if warm && retired > 0 {
            warm = false;
            d.open_window(now, seconds);
        }
        if !warm && now >= d.rec.t1_ns {
            d.rec.t1_ns = now;
            d.rec.backlog_end = d.in_flight;
            return;
        }
        // A refused request leaves its client idle until the next step, so
        // that an engine refusing everything cannot spin this loop.
        let mut refused = false;
        while d.in_flight < clients && !refused {
            d.submit(stream, next, (1, 1), now);
            refused = d.rec.sent.last().is_some_and(|s| s.id.is_none());
            next += 1;
        }
        if d.in_flight == 0 {
            d.rec.t1_ns = now;
            return;
        }
    }
}

/// Requests sent at their due times whatever the engine is doing. A
/// request that falls due during a step is sent when the step returns and
/// is timed from when it was due. After the last due time the engine
/// finishes what it holds (untimed for throughput, timed for latency).
fn open(d: &mut Driver<'_, '_>, stream: &mut Stream, due_s: &[f64], seconds: f64) {
    for i in 0..OPEN_WARMUP_REQUESTS {
        let now = d.clock.ns();
        d.submit(stream, i, (1, 1), now);
    }
    while d.in_flight > 0 {
        d.step();
    }
    let t0 = d.clock.ns();
    d.open_window(t0, seconds);
    let due_ns: Vec<u64> = due_s.iter().map(|s| t0 + (s * 1e9) as u64).collect();
    let give_up = d.rec.t1_ns + DRAIN_CAP.as_nanos() as u64;
    let mut next = 0;
    let mut closed = false;
    loop {
        let now = d.clock.ns();
        if !closed && now >= d.rec.t1_ns {
            closed = true;
            d.rec.backlog_end = d.in_flight;
        }
        while next < due_ns.len() && due_ns[next] <= now {
            d.submit(stream, OPEN_WARMUP_REQUESTS + next, (1, 1), due_ns[next]);
            next += 1;
        }
        if d.in_flight > 0 && now < give_up {
            d.step();
        } else if next < due_ns.len() {
            d.clock.sleep_until(due_ns[next]);
        } else if closed {
            return;
        } else {
            d.clock.sleep_until(d.rec.t1_ns);
        }
    }
}
