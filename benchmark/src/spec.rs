//! The benchmark's metrics as `BENCHMARK.json` declares them: names, units,
//! which way is better, and for the end-to-end ones the bound by which a
//! change may worsen them. A run checks what it is about to print against
//! these tables, and a test checks the tables against `BENCHMARK.json`, so
//! the three cannot drift apart.

use crate::measure::Metric;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end: share of the parent's median by which the metric may
    /// worsen. Per-layer metrics have no bound (0).
    pub bound: f64,
    /// A count or a simulated figure: two runs on the same inputs must
    /// agree to the last digit.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec { name, unit, better, bound, exact: false }
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec { name, unit, better, bound: 0.0, exact: false }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec { name, unit, better, bound: 0.0, exact: true }
}

use Better::{Higher, Lower};

/// What a user of the serving stack sees. Host wall clock and host memory
/// only; modeled OPAL figures live under `hw.*`.
pub const END_TO_END: [Spec; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("gen_tok_s", "tok/s", Higher, 0.25),
    e2e("ttft_ms_p50", "ms", Lower, 0.25),
    e2e("itl_ms_p50", "ms", Lower, 0.25),
    e2e("slo_ok_share", "share", Higher, 0.02),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("kv_peak_mb", "MiB", Lower, 0.10),
];

/// `kv_peak_mb` is a count of blocks; on the closed loops, which queue
/// nothing, two runs on one seed must agree exactly.
pub const EXACT_ON_CLOSED_LOOPS: [&str; 3] =
    ["kv_peak_mb", "serve.preemptions", "serve.blocks_peak"];

/// One row per thing a layer does that an optimisation could move.
pub const PER_LAYER: [Spec; 78] = [
    // The traced workload run.
    timed("serve.step_ms_decode_p50", "ms", Lower),
    timed("serve.step_ms_mixed_p50", "ms", Lower),
    timed("serve.step_ms_verify_p50", "ms", Lower),
    timed("serve.batch_mean", "seq", Higher),
    timed("serve.queue_wait_ms_p50", "ms", Lower),
    timed("serve.ttft_warm_ms_p50", "ms", Lower),
    timed("serve.ttft_cold_ms_p50", "ms", Lower),
    timed("serve.ttft_ms_p90", "ms", Lower),
    timed("serve.itl_ms_p95", "ms", Lower),
    timed("serve.tpot_ms_p50", "ms", Lower),
    timed("serve.shared_prefill_share", "share", Higher),
    timed("serve.preemptions", "count", Lower),
    timed("serve.blocks_peak", "blocks", Lower),
    timed("serve.accept_rate", "share", Higher),
    timed("serve.steps_per_tok", "step/tok", Lower),
    timed("serve.submit_us_p50", "us", Lower),
    timed("serve.report_ms", "ms", Lower),
    timed("serve.audit_ms", "ms", Lower),
    timed("serve.util", "share", Lower),
    timed("serve.late_ms_p99", "ms", Lower),
    timed("serve.backlog_end", "req", Lower),
    timed("serve.sent", "req", Higher),
    timed("serve.ok", "req", Higher),
    timed("serve.failed", "req", Lower),
    timed("serve.rejected", "req", Lower),
    timed("hw.opal_model_tok_s", "tok/s", Higher),
    timed("hw.opal_uj_per_tok", "uJ/tok", Lower),
    timed("hw.int_mac_fraction", "share", Higher),
    timed("trace.overhead_share", "share", Lower),
    // The layer phase.
    timed("tensor.dot_gmacs_d128", "GMAC/s", Higher),
    timed("tensor.dot_vs_naive_d128", "x", Higher),
    timed("tensor.dot_gmacs_d4096", "GMAC/s", Higher),
    timed("tensor.matvec_gmacs_344x128", "GMAC/s", Higher),
    timed("tensor.matmul_t_gmacs_r8", "GMAC/s", Higher),
    timed("tensor.matmul_t_gmacs_r32", "GMAC/s", Higher),
    timed("tensor.dot_codes_gmacs_d128", "GMAC/s", Higher),
    timed("tensor.softmax_melem_s_n512", "Melem/s", Higher),
    timed("numerics.bf16_round_melem_s", "Melem/s", Higher),
    timed("numerics.shift_quantize_melem_s", "Melem/s", Higher),
    timed("quant.mxopal_qdq_rows_s_d128", "row/s", Higher),
    timed("quant.mxopal_qdq_rows_s_d4096", "row/s", Higher),
    exact("quant.mxopal_sqnr_db_b4", "dB", Higher),
    timed("quant.kv_encode_rows_s_d128", "row/s", Higher),
    timed("quant.kv_decode_rows_s_d128", "row/s", Higher),
    timed("quant.owq_quantize_ms_344x128", "ms", Lower),
    timed("softmax.log2_probs_melem_s_n128", "Melem/s", Higher),
    timed("softmax.log2_probs_melem_s_n1024", "Melem/s", Higher),
    timed("softmax.log2_vs_exact_time", "x", Lower),
    exact("softmax.log2_max_abs_err", "prob", Lower),
    timed("model.build_ms_bf16", "ms", Lower),
    timed("model.build_ms_opal47", "ms", Lower),
    timed("model.decode_us_ctx16_bf16", "us", Lower),
    timed("model.decode_us_ctx512_bf16", "us", Lower),
    timed("model.decode_us_ctx16_opal47", "us", Lower),
    timed("model.decode_us_ctx512_opal47", "us", Lower),
    timed("model.decode_us_ctx512_opal47_kvq", "us", Lower),
    timed("model.decode_us_ctx1024_opal47_kvq", "us", Lower),
    timed("model.ref_decode_us_ctx16_bf16", "us", Lower),
    timed("model.decode_vs_ref_bf16", "x", Higher),
    timed("model.prefill_tok_s_c8", "tok/s", Higher),
    timed("model.prefill_tok_s_c32", "tok/s", Higher),
    timed("model.verify_rows_s_k4", "row/s", Higher),
    exact("model.kv_bytes_per_tok_exact", "B/tok", Lower),
    exact("model.kv_bytes_per_tok_mxopal", "B/tok", Lower),
    exact("model.ppl_delta_opal47", "ppl", Lower),
    timed("hw.workload_new_ns", "ns", Lower),
    timed("hw.from_schedule_us_b16", "us", Lower),
    timed("hw.energy_per_token_ns", "ns", Lower),
    timed("hw.lane_sim_dots_s", "dot/s", Higher),
    exact("hw.lane_int_fraction", "share", Higher),
    exact("hw.energy_saving_vs_bf16_7b_1k", "share", Higher),
    timed("core.generate_tok_s", "tok/s", Higher),
    timed("core.evaluate_ms", "ms", Lower),
    timed("serve.overhead_us_per_seq", "us", Lower),
    timed("serve.par_speedup_2t", "x", Higher),
    timed("scenario.trace_gen_events_s", "event/s", Higher),
    timed("scenario.replay_steps_s", "step/s", Higher),
    exact("scenario.digest_stable", "bool", Higher),
];

pub fn table(trace: bool) -> &'static [Spec] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

pub fn find(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(&PER_LAYER).find(|s| s.name == name)
}

/// Refuses a metric list that is not, name for name and unit for unit,
/// the declared one: the driver would refuse it later and less clearly.
pub fn check(metrics: &[Metric], trace: bool) -> Result<(), String> {
    let declared = table(trace);
    let got: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    let want: Vec<(&str, &str)> = declared.iter().map(|s| (s.name, s.unit)).collect();
    if got == want {
        return Ok(());
    }
    let missing: Vec<_> = want.iter().filter(|w| !got.contains(w)).collect();
    let extra: Vec<_> = got.iter().filter(|g| !want.contains(g)).collect();
    Err(format!(
        "the metrics measured are not the metrics declared: missing {missing:?}, undeclared \
         {extra:?} (or out of order)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads;

    fn committed() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside benchmark/");
        json::parse(&text).expect("BENCHMARK.json is JSON")
    }

    fn rows(v: &Value, key: &str) -> Vec<Value> {
        match v.get(key) {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_declares_these_metrics_and_workloads() {
        let file = committed();
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let declared = rows(&file, key);
            assert_eq!(declared.len(), table.len(), "{key}");
            for (row, spec) in declared.iter().zip(table) {
                assert_eq!(row.get("name").and_then(Value::as_str), Some(spec.name));
                assert_eq!(
                    row.get("unit").and_then(Value::as_str),
                    Some(spec.unit),
                    "{}",
                    spec.name
                );
                assert_eq!(row.get("better").and_then(Value::as_str), Some(spec.better.name()));
                let bound = row.get("bound").and_then(Value::as_f64);
                assert_eq!(bound, (key == "end_to_end").then_some(spec.bound), "{}", spec.name);
            }
        }
        let declared = rows(&file, "workloads");
        assert_eq!(declared.len(), workloads::ALL.len());
        for (row, w) in declared.iter().zip(&workloads::ALL) {
            assert_eq!(row.get("name").and_then(Value::as_str), Some(w.name));
            assert_eq!(row.get("why").and_then(Value::as_str), Some(w.why));
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for s in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(s.name), "{}", s.name);
            assert!(unit_ok(s.unit), "{}: {}", s.name, s.unit);
            assert!(seen.insert(s.name), "{} is declared twice", s.name);
        }
        for s in &END_TO_END {
            assert!(s.bound > 0.0 && s.bound <= 0.25, "{}", s.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|s| s.name == "setup_s" && s.unit == "s" && s.better == Lower));
    }

    #[test]
    fn an_undeclared_or_missing_metric_is_refused() {
        let mut m: Vec<Metric> =
            END_TO_END.iter().map(|s| Metric::new(s.name, 1.0, s.unit)).collect();
        assert!(check(&m, false).is_ok());
        m.pop();
        assert!(check(&m, false).unwrap_err().contains("kv_peak_mb"));
        m.push(Metric::new("kv_peak_mb", 1.0, "MB"));
        assert!(check(&m, false).is_err(), "a unit other than the declared one");
    }
}
