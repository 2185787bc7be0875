//! `compare <a.jsonl> <b.jsonl>`: two sets of runs, as `all --out` writes
//! them, judged by the benchmark's own bounds. `a` is the parent (or the
//! first set), `b` the change (or the second). One row per workload and
//! end-to-end metric; then the counts that must agree exactly.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::spec::{self, Better, Spec};
use crate::stats;
use crate::workloads::{self, Loop};

/// How `b` stands against `a` on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every run of `b` reads better than every run of `a`.
    Better,
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Within,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// The runs of one set spread wider than the bound, so the medians
    /// cannot show a change of the bound's size either way.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// The median the driver takes: interpolated between the two middle runs
/// of an even count.
fn median(v: &[f64]) -> f64 {
    stats::quartiles(v).map_or_else(|| stats::median(v), |q| q[1])
}

/// The rule of `choosing-metrics` section 6.5.
pub fn judge(a: &[f64], b: &[f64], spec: &Spec) -> Verdict {
    let sign = if spec.better == Better::Lower { 1.0 } else { -1.0 };
    // In "lower is better" terms: every b below every a.
    let worst_b = b.iter().map(|v| v * sign).fold(f64::NEG_INFINITY, f64::max);
    let best_a = a.iter().map(|v| v * sign).fold(f64::INFINITY, f64::min);
    if worst_b < best_a {
        return Verdict::Better;
    }
    let spread = [a, b].into_iter().filter_map(stats::spread).fold(0.0, f64::max);
    if spread > spec.bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    if (mb - ma) * sign > spec.bound * ma.abs() {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// Metric values of one file: (workload, metric) → (seed, value) per run.
type Runs = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn load(path: &Path) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let at = || format!("{}:{}", path.display(), n + 1);
        let v = json::parse(line).map_err(|e| format!("{}: {e}", at()))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: no workload", at()))?;
        let seed = v.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let metrics = v.get("result").and_then(|r| r.get("metrics")).map_or(&[][..], Value::fields);
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(Value::as_f64) {
                runs.entry((workload.to_owned(), name.clone())).or_default().push((seed, value));
            }
        }
    }
    Ok(runs)
}

fn values(runs: &Runs, workload: &str, metric: &str) -> Vec<f64> {
    runs.get(&(workload.to_owned(), metric.to_owned()))
        .map(|v| v.iter().map(|&(_, x)| x).collect())
        .unwrap_or_default()
}

fn summary(v: &[f64]) -> String {
    match stats::spread(v) {
        Some(s) => format!("{:.4} ±{:.1}%", median(v), s * 100.0),
        None => format!("{:.4}", median(v)),
    }
}

pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (ra, rb) = (load(a)?, load(b)?);
    let mut clean = true;
    println!(
        "{:<22} {:<14} {:>22} {:>22} {:>8} {:>6}  verdict",
        "workload", "metric", "a median ±IQR", "b median ±IQR", "change", "bound"
    );
    for w in &workloads::ALL {
        for spec in &spec::END_TO_END {
            let (va, vb) = (values(&ra, w.name, spec.name), values(&rb, w.name, spec.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(&va, &vb, spec);
            clean &= matches!(verdict, Verdict::Better | Verdict::Within);
            let change = (median(&vb) / median(&va) - 1.0) * 100.0;
            println!(
                "{:<22} {:<14} {:>22} {:>22} {:>+7.1}% {:>5.0}%  {}",
                w.name,
                spec.name,
                summary(&va),
                summary(&vb),
                change,
                spec.bound * 100.0,
                verdict.name()
            );
        }
    }

    println!("\ncounts and simulated figures that must agree exactly (same workload, same seed)");
    for ((workload, metric), runs_a) in &ra {
        let closed =
            workloads::by_name(workload).is_some_and(|w| matches!(w.looping, Loop::Closed { .. }));
        let exact = spec::find(metric).is_some_and(|s| s.exact)
            || (closed && spec::EXACT_ON_CLOSED_LOOPS.contains(&metric.as_str()));
        let Some(runs_b) = rb.get(&(workload.clone(), metric.clone())) else { continue };
        if !exact {
            continue;
        }
        for &(seed, x) in runs_a {
            for &(_, y) in runs_b.iter().filter(|&&(s, _)| s == seed) {
                let same = x == y;
                clean &= same;
                let verdict = if same { "equal" } else { "DIFFERS" };
                println!(
                    "{workload:<22} {metric:<34} seed {seed:<3} {x:>14.6} {y:>14.6}  {verdict}"
                );
            }
        }
    }
    println!("\n{}", if clean { "the two sets agree" } else { "the two sets DISAGREE" });
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Spec {
        Spec { name: "t", unit: "ms", better: Better::Lower, bound, exact: false }
    }

    #[test]
    fn verdicts() {
        let s = lower(0.10);
        let a = [10.0, 10.1, 9.9, 10.05, 9.95];
        assert_eq!(judge(&a, &[10.2, 10.3, 10.1, 10.25, 10.15], &s), Verdict::Within);
        assert_eq!(judge(&a, &[11.5, 11.6, 11.4, 11.55, 11.45], &s), Verdict::Worse);
        assert_eq!(judge(&a, &[9.0, 9.1, 8.9, 9.05, 8.95], &s), Verdict::Better);
        // Spread wider than the bound: unresolved, unless b wins every pair.
        let noisy = [10.0, 12.5, 8.0, 11.0, 9.0];
        assert_eq!(judge(&noisy, &[10.0, 10.1, 9.9, 10.0, 10.0], &s), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &[7.0, 7.5, 6.0, 7.9, 6.5], &s), Verdict::Better);
        // Higher is better turns the comparison round.
        let h = Spec { better: Better::Higher, ..s };
        assert_eq!(judge(&a, &[8.5, 8.6, 8.4, 8.55, 8.45], &h), Verdict::Worse);
        assert_eq!(judge(&a, &[11.5, 11.6, 11.4, 11.55, 11.45], &h), Verdict::Better);
        // A single run each has no spread to speak of.
        assert_eq!(judge(&[10.0], &[10.5], &s), Verdict::Within);
        assert_eq!(judge(&[10.0], &[12.0], &s), Verdict::Worse);
    }
}
