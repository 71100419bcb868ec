//! The metric tables, mirrored from `BENCHMARK.json` (a test keeps the
//! two in step), and the result line every run ends with.

use crate::json::quote;
use std::fmt::Write as _;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's declaration.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction (end-to-end metrics only).
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
    }
}

/// What a user of the server sees, per workload, measured untraced.
pub const END_TO_END: [Spec; 3] = [
    e2e("throughput_rps", "req/s", Better::Higher, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("server_rss_mb", "MiB", Better::Lower, 0.2),
];

/// Single-layer metrics of the traced run: the wire split of the served
/// window, then the in-process replay's layer calls.
pub const PER_LAYER: [Spec; 28] = [
    layer("serve.handler_us.p50", "us"),
    layer("serve.handler_us.p99", "us"),
    layer("serve.outside_handler_us.p50", "us"),
    layer("serve.first_byte_us.p50", "us"),
    layer("serve.response_stream_us.p50", "us"),
    layer("serve.response_bytes", "bytes"),
    layer("serve.shed", "count"),
    layer("exec.degrade_steps", "count"),
    layer("serve.decode_us", "us"),
    layer("serve.encode_us", "us"),
    layer("obs.scope_open_us", "us"),
    layer("obs.scope_rollup_us", "us"),
    layer("obs.snapshot_us", "us"),
    layer("algebra.parse_us", "us"),
    layer("core.gate_us", "us"),
    layer("engine.lower_us", "us"),
    layer("algebra.vm_compile_us", "us"),
    layer("exec.eval_us.p50", "us"),
    layer("exec.eval_us.p99", "us"),
    layer("algebra.eval_us.p50", "us"),
    layer("algebra.eval_us.p99", "us"),
    layer("value.render_us", "us"),
    layer("optimizer.explain_us", "us"),
    layer("optimizer.persist_us", "us"),
    layer("exec.rows_per_row_out", "ratio"),
    layer("exec.fixpoint_rounds", "count"),
    layer("replay.closure_ratio", "ratio"),
    layer("replay.handler_ratio", "ratio"),
];

/// A measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric of `spec`.
    pub fn of(spec: &Spec, value: f64) -> Metric {
        Metric {
            name: spec.name.to_string(),
            unit: spec.unit,
            value,
        }
    }
}

/// The last line of a run's standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // non-finite values are not JSON; they only arise from a broken
        // run, which is already reported as incorrect
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(&m.name),
            quote(m.unit)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn tables_match_benchmark_json() {
        let j = benchmark_json();
        let e2e = j.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, spec) in e2e.iter().zip(END_TO_END.iter()) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(spec.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(spec.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(spec.better.name())
            );
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(spec.bound));
        }
        let layers = j.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, spec) in layers.iter().zip(PER_LAYER.iter()) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(spec.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(spec.unit));
        }
        let names: Vec<&str> = j
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn result_line_is_the_documented_json() {
        let line = result_line(
            true,
            10,
            0,
            &[
                Metric::of(&END_TO_END[0], 123.5),
                Metric::of(&PER_LAYER[0], 0.25),
            ],
        );
        let j = Json::parse(&line).unwrap();
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(j.get("attempted").and_then(Json::as_f64), Some(10.0));
        let m = j.get("metrics").unwrap();
        assert_eq!(
            m.get("throughput_rps")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(123.5)
        );
        assert_eq!(
            m.get("serve.handler_us.p50")
                .and_then(|v| v.get("unit"))
                .and_then(Json::as_str),
            Some("us")
        );
    }
}
