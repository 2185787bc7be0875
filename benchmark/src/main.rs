//! The repo benchmark. See `README.md` beside this crate.
//!
//! ```text
//! opal-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! opal-benchmark all [--runs N] [--trace 0|1] [--seed N] [--seconds S] [--out FILE]
//! opal-benchmark compare <a.jsonl> <b.jsonl>
//! opal-benchmark --smoke
//! ```

mod check;
mod compare;
mod drive;
mod gen;
mod json;
mod layers;
mod measure;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use opal_serve::{Request, ServeEngine};

use drive::Clock;
use json::{obj, Value};
use measure::Metric;
use workloads::Workload;

/// Seed used when none is given. Seed 2 is the held-out seed: tune a
/// change on seed 1 and confirm it on seed 2.
const DEFAULT_SEED: u64 = 1;
/// Window length when none is given; `BENCHMARK.json` passes its own.
const DEFAULT_SECONDS: f64 = 24.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Options {
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: Option<PathBuf>,
    out_dir: PathBuf,
    workload: Option<String>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
        workload: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        let bad = |v: &String| format!("{arg}: cannot read {v:?}");
        match arg.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => o.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--runs" => o.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--out-dir" => o.out_dir = PathBuf::from(value()?),
            "--smoke" => o.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    if !(o.seconds > 0.0 && o.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {}", o.seconds));
    }
    if o.runs == 0 {
        return Err("--runs must be at least 1".to_owned());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let clock = Clock::start();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|o| match o.positional.first().map(String::as_str) {
        _ if o.smoke => smoke(&o, clock),
        Some("compare") => match &o.positional[1..] {
            [a, b] => compare::run(Path::new(a), Path::new(b)),
            _ => Err("compare takes two files".to_owned()),
        },
        Some("all") => all(&o),
        Some("describe") => {
            print!("{}", describe(o.seconds));
            Ok(true)
        }
        Some(other) => Err(format!("unknown subcommand {other:?}")),
        None => match o.workload.as_deref().map(workloads::by_name) {
            Some(Some(w)) => run_workload(w, &o, clock),
            Some(None) => Err(format!(
                "unknown workload; choose one of {}",
                workloads::ALL.map(|w| w.name).join(", ")
            )),
            None => Err("give --workload <name>, all, compare or --smoke".to_owned()),
        },
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("opal-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// Builds the model and an engine and serves one small request, the way a
/// user's process would before its first real request. Anything a change
/// moves out of the steps and into construction shows up here.
fn set_up(w: &Workload, seed: u64, seconds: f64) -> (opal_model::Model, gen::Stream, u64) {
    let model = w.scheme.build();
    let mut stream = gen::Stream::new(w.shape, seed);
    let print = gen::fingerprint(&mut stream, 32, &w.arrivals(seed, seconds));
    {
        let mut engine =
            ServeEngine::new(&model, w.serve_config()).with_accelerator(workloads::accelerator());
        let first = Request::new(&stream.get(0).prompt[..8]).with_limit(2);
        engine.submit_request(first).expect("the set-up request is valid");
        engine.run();
    }
    (model, stream, print)
}

/// One run of one workload: set-up, warm-up, timed window, output check;
/// with `--trace 1`, also the layer phase and the trace file. Prints every
/// metric for a person and, last, the result line for the driver.
fn run_workload(w: &Workload, o: &Options, clock: Clock) -> Result<bool, String> {
    println!("workload {}  seed {}  window {} s  trace {}", w.name, o.seed, o.seconds, o.trace);

    // `--smoke` cuts everything that takes time and changes no code path.
    let (setup_reps, shrink, check_sample) = if o.smoke {
        (3, drive::Shrink { prompt: 4, limit: 16 }, 2)
    } else {
        (SETUP_REPS, drive::Shrink { prompt: 1, limit: 1 }, w.check_sample)
    };
    let setup_begin = clock.ns();
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..setup_reps {
        let begin = clock.ns();
        built = Some(set_up(w, o.seed, o.seconds));
        setups.push((clock.ns() - begin) as f64 / 1e9);
    }
    let (model, mut stream, print) = built.expect("at least one set-up");
    println!("input_fingerprint {print:016x}");
    let setup_done = clock.ns();

    let mut engine =
        ServeEngine::new(&model, w.serve_config()).with_accelerator(workloads::accelerator());
    let plan = drive::Plan { seed: o.seed, seconds: o.seconds, trace: o.trace, shrink };
    let rec = drive::run(&mut engine, w, &mut stream, plan, clock);
    let host =
        measure::Host { setup_s: stats::median(&setups), peak_rss_mb: measure::peak_rss_mb() };

    let begin = clock.ns();
    let report = engine.report(Duration::from_nanos(rec.t1_ns - rec.t0_ns));
    let report_done = clock.ns();
    let audit = engine.audit();
    let audit_done = clock.ns();
    let times = measure::HarnessTimes {
        report_ns: (begin, report_done),
        audit_ns: (report_done, audit_done),
    };
    drop(engine);

    let joined = measure::join(&rec, &report, w);
    let verdict = check::run(&model, w, &mut stream, &joined, check_sample, audit.is_clean());
    let s = |from: u64, to: u64| to.saturating_sub(from) as f64 / 1e9;
    println!(
        "phases  set-up x{setup_reps} {:.2} s  warm-up {:.2} s  window {:.2} s  finishing {:.2} s  \
         output check {:.2} s",
        s(setup_begin, setup_done),
        s(setup_done, rec.t0_ns),
        s(rec.t0_ns, rec.t1_ns),
        s(rec.t1_ns, begin),
        s(audit_done, clock.ns()),
    );
    let mismatched = verdict.mismatched.len();
    let tally = measure::Tally::of(&joined, mismatched);
    let correct = tally.ok == tally.sent && verdict.audit_clean && tally.sent > 0;

    println!(
        "requests  sent {}  succeeded {}  failed {}  rejected {}  in flight at the end {}",
        tally.sent, tally.ok, tally.failed, tally.rejected, rec.backlog_end,
    );
    println!(
        "output check  {} rerun alone, {} against the reference decoder, {} mismatched; \
         audit {}; token_digest {:016x}; head_digest({}) {:016x}",
        verdict.rerun,
        verdict.referenced,
        mismatched,
        if verdict.audit_clean { "clean" } else { "VIOLATED" },
        verdict.token_digest,
        check::DIGEST_HEAD,
        verdict.head_digest,
    );
    for v in &audit.violations {
        println!("  audit: {v}");
    }

    let metrics = if o.trace {
        let mut m = measure::serve_layer(&rec, &report, w, &joined, mismatched, &times);
        let mut spans = spans_of(&rec, &joined, &times, w);
        m.extend(layers::run(o.smoke, clock, &mut spans));
        let path = o.out_dir.join(format!("{}.trace.jsonl", w.name));
        spans.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace  {} spans in {}", spans.spans.len(), path.display());
        m
    } else {
        measure::end_to_end(&rec, &report, w, &joined, mismatched, &host)
    };
    spec::check(&metrics, o.trace)?;
    println!("{} metrics{}", if o.trace { "per-layer" } else { "end-to-end" }, smoke_note(o));
    for m in &metrics {
        println!("{}", m.line());
    }
    let not_ok = tally.sent - tally.ok;
    println!("{}", result_line(correct, tally.sent, not_ok, &metrics).render());
    Ok(correct)
}

fn smoke_note(o: &Options) -> &'static str {
    if o.smoke {
        "  [SMOKE: too short to compare with anything]"
    } else {
        ""
    }
}

/// The line the driver reads: exactly these four keys.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> Value {
    let metrics = metrics
        .iter()
        .map(|m| {
            let v = obj([("value", Value::Num(m.value)), ("unit", Value::Str(m.unit.to_owned()))]);
            (m.name.clone(), v)
        })
        .collect();
    obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted.max(1) as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
}

/// The recording as spans: `run` → `serve.submit`, `serve.step`,
/// `serve.report`, `serve.audit`; per request `request` →
/// `request.queue`, `request.prefill`, `request.decode`.
fn spans_of(
    rec: &drive::Recording,
    joined: &[measure::Joined<'_>],
    times: &measure::HarnessTimes,
    w: &Workload,
) -> trace::Trace {
    let mut t = trace::Trace::default();
    let from = rec.t0_ns;
    let root = t.push(
        "run",
        None,
        None,
        (from, times.audit_ns.1),
        vec![(
            "clients_or_rate",
            match w.looping {
                workloads::Loop::Closed { clients } => clients as f64,
                workloads::Loop::Open { rate } => rate,
            },
        )],
    );
    for s in rec.sent.iter().filter(|s| s.begin_ns >= from) {
        let counts = vec![("prompt_tokens", s.prompt_len as f64), ("limit", s.limit as f64)];
        t.push("serve.submit", Some(root), Some(s.index as u32), (s.begin_ns, s.end_ns), counts);
    }
    for (i, s) in rec.steps.iter().enumerate().filter(|(_, s)| s.begin_ns >= from) {
        // Forward-pass rows from `last_step_work()`; an untraced block's
        // steps carry the summary counts only.
        let work = rec.work_of(i);
        let rows: usize = work
            .iter()
            .map(|x| x.prefilled + x.verify_rows + usize::from(x.decode_context.is_some()))
            .sum();
        let counts = vec![
            ("step", (i + 1) as f64),
            ("traced", f64::from(u8::from(s.traced))),
            ("batch", work.len() as f64),
            ("rows", rows as f64),
            ("admitted", s.summary.admitted as f64),
            ("prefilled", s.summary.prefilled as f64),
            ("generated", s.summary.generated as f64),
            ("finished", s.summary.finished as f64),
            ("preempted", s.summary.preempted as f64),
            ("drafted", s.summary.drafted as f64),
            ("accepted", s.summary.accepted as f64),
            ("blocks_in_use", s.summary.blocks_in_use as f64),
        ];
        t.push("serve.step", Some(root), None, (s.begin_ns, s.end_ns), counts);
    }
    t.push("serve.report", Some(root), None, times.report_ns, Vec::new());
    t.push("serve.audit", Some(root), None, times.audit_ns, Vec::new());

    for j in joined.iter().filter(|j| j.sent.due_ns >= from) {
        let Some(r) = j.report() else { continue };
        let events = measure::emissions(rec, r);
        let (Some(&first), Some(&last)) = (events.first(), events.last()) else { continue };
        let admitted = rec.steps[r.admitted_step as usize].begin_ns.max(j.sent.due_ns);
        let request = Some(j.sent.index as u32);
        let counts = vec![
            ("prompt_tokens", r.prompt_len as f64),
            ("shared_prefill_tokens", r.shared_prefill_tokens as f64),
            ("tokens", r.tokens.len() as f64),
            ("preemptions", f64::from(r.preemptions)),
        ];
        let parent = t.push("request", None, request, (j.sent.due_ns, last), counts);
        t.push("request.queue", Some(parent), request, (j.sent.due_ns, admitted), Vec::new());
        t.push("request.prefill", Some(parent), request, (admitted, first), Vec::new());
        let emitted = vec![("emissions", events.len() as f64)];
        t.push("request.decode", Some(parent), request, (first, last), emitted);
    }
    t
}

/// `BENCHMARK.json`, from the tables in `workloads` and `spec`; a test
/// holds the committed file to them.
fn describe(run_seconds: f64) -> String {
    let rows = |items: Vec<Value>| {
        let lines: Vec<String> = items.iter().map(|v| format!("    {}", v.render())).collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let metric = |s: &spec::Spec, bounded: bool| {
        let mut v = obj([
            ("name", Value::Str(s.name.to_owned())),
            ("unit", Value::Str(s.unit.to_owned())),
            ("better", Value::Str(s.better.name().to_owned())),
        ]);
        if let (true, Value::Obj(fields)) = (bounded, &mut v) {
            fields.push(("bound".to_owned(), Value::Num(s.bound)));
        }
        v
    };
    let workloads = workloads::ALL
        .iter()
        .map(|w| {
            obj([("name", Value::Str(w.name.to_owned())), ("why", Value::Str(w.why.to_owned()))])
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        run_seconds,
        rows(workloads),
        rows(spec::END_TO_END.iter().map(|s| metric(s, true)).collect()),
        rows(spec::PER_LAYER.iter().map(|s| metric(s, false)).collect()),
    )
}

/// Runs every workload as a process of its own, one after another, so
/// that peak memory is per workload. With `--runs N`, N times each on
/// seeds `seed .. seed + N`; with `--trace 1`, one traced run each after
/// them. `--out` collects the result lines for `compare`.
fn all(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut lines = Vec::new();
    let mut ok = true;
    for w in &workloads::ALL {
        let runs = (0..o.runs).map(|r| (o.seed + r as u64, false));
        for (seed, trace) in runs.chain(o.trace.then_some((o.seed, true))) {
            let output = std::process::Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&o.out_dir)
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", w.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            println!();
            ok &= output.status.success();
            let result = stdout.lines().last().and_then(|l| json::parse(l).ok());
            lines.push(obj([
                ("workload", Value::Str(w.name.to_owned())),
                ("seed", Value::Num(seed as f64)),
                ("trace", Value::Num(f64::from(u8::from(trace)))),
                ("result", result.unwrap_or(Value::Null)),
            ]));
        }
    }
    if let Some(path) = &o.out {
        let text: String = lines.iter().map(|l| l.render() + "\n").collect();
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {} result lines to {}", lines.len(), path.display());
    }
    Ok(ok)
}

/// Every workload for a second and the layer phase on a tiny budget, in
/// this process: shows that everything runs, in about a quarter of a
/// minute. Its numbers are not comparable with anything.
fn smoke(o: &Options, clock: Clock) -> Result<bool, String> {
    let mut ok = true;
    for (i, w) in workloads::ALL.iter().enumerate() {
        let o = Options {
            seconds: 1.0,
            // The layer phase once, with the last workload.
            trace: i + 1 == workloads::ALL.len(),
            smoke: true,
            out: None,
            out_dir: o.out_dir.clone(),
            workload: None,
            positional: Vec::new(),
            ..*o
        };
        ok &= run_workload(w, &o, clock)?;
        println!();
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let metrics =
            vec![Metric::new("latency_ms", 1.2034, "ms"), Metric::new("setup_s", 0.8127, "s")];
        let line = result_line(true, 1000, 0, &metrics).render();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let parsed = json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        // `attempted` is at least 1 even when nothing completed.
        assert!(result_line(false, 0, 0, &[]).render().contains("\"attempted\": 1,"));
    }

    #[test]
    fn options_are_read_and_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let o = parse_args(&args("--workload x --seed 7 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!((o.workload.as_deref(), o.seed, o.seconds, o.trace), (Some("x"), 7, 2.5, true));
        let o = parse_args(&args("compare a b")).unwrap();
        assert_eq!((o.seed, o.positional.len()), (DEFAULT_SEED, 3));
        for bad in ["--seed", "--seed x", "--trace 2", "--seconds 0", "--runs 0", "--nope"] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
