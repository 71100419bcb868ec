//! `bench-compare` — regression gate over the measurement loop's JSON
//! reports.
//!
//! Compares the freshly-written `BENCH_parallel.json` / `BENCH_obs.json`
//! against the committed `BENCH_baseline.json` and fails (exit 1) when:
//!
//! * the `exec.morsel_us` p95 at any worker count regresses by more than
//!   10% (with a 10µs absolute floor so timer jitter on sub-100µs
//!   morsels cannot fail a run), or
//! * the `exec.fixpoint_round_us` p95 (per-round latency of the parallel
//!   fixpoint driver) regresses by more than 10%, with a 25µs absolute
//!   floor — rounds on the small bench graph are short enough that a
//!   couple of scheduler hiccups would otherwise trip the relative
//!   bound, or
//! * the obs kill-switch (disabled-path), disarmed-guard,
//!   timeline-enabled, or scoped-recording overhead regresses by more
//!   than 10% relative with a 0.5-percentage-point absolute slack (the
//!   timeline and scoped overheads are additionally capped at 5%
//!   absolute — their tentpoles' bounds).
//!
//! Each report has one schema: `BENCH_parallel.json` and
//! `BENCH_obs.json` are schema v4, and `BENCH_baseline.json` wraps one
//! of each. A document declaring any other `schema_version` fails with
//! exit 1 and a request to regenerate it with `cargo bench`; a v4
//! document missing a key v4 promises (an overhead, a `shape` tag, the
//! shape's `p95`, the VM block) fails loudly instead of silently
//! skipping the comparison.
//!
//! When the baseline was recorded on a machine with a different
//! `hardware_threads` count, latency numbers are not comparable: the
//! comparison is SKIPPED loudly and the exit code is 0 (CI containers
//! come in many shapes; a skip must not break the build).
//!
//! Usage:
//!
//! ```text
//! bench-compare [--baseline FILE] [--parallel FILE] [--obs FILE]
//! bench-compare --write-baseline   # snapshot current reports as baseline
//! ```

use genpar_obs::Json;
use std::process::ExitCode;

const P95_RELATIVE_BOUND: f64 = 1.10;
const OVERHEAD_RELATIVE_BOUND: f64 = 1.10;
/// The one `schema_version` both benches write and this gate reads.
const REPORT_SCHEMA: i128 = 4;
/// VM-vs-AST gates (within the current report): the VM-mode
/// morsel p95 may not exceed the AST-mode p95 by more than 10% relative
/// with a 25µs absolute floor, and the scan-filter `vm_speedup` must
/// clear 1.2× — the latter only on machines with ≥ 2 hardware threads
/// (elsewhere the pool contends with itself and the gate is SKIPPED
/// loudly).
const VM_P95_FLOOR_US: f64 = 25.0;
const VM_SPEEDUP_BOUND: f64 = 1.2;
const OVERHEAD_ABSOLUTE_SLACK: f64 = 0.005;
/// The tentpole's promise: timeline recording costs ≤ 5% on a real plan
/// execution. Gated absolutely, on top of the relative regression bound.
const TIMELINE_ABSOLUTE_CAP: f64 = 0.05;

/// Gated histograms: `(report key, display label, absolute p95 floor in
/// µs)`. The floor keeps timer jitter on short samples from tripping the
/// 10% relative bound.
const P95_GATES: [(&str, &str, f64); 2] = [
    ("morsel_us", "exec.morsel_us", 10.0),
    ("fixpoint_round_us", "exec.fixpoint_round_us", 25.0),
];

/// Gated overheads in `BENCH_obs.json`.
const OVERHEAD_GATES: [&str; 4] = [
    "kill_switch_overhead",
    "guard_overhead",
    "timeline_overhead",
    "scoped_overhead",
];

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn as_num(j: &Json) -> Option<f64> {
    match j {
        Json::Num(x) => Some(*x),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Reject any report whose declared schema is not [`REPORT_SCHEMA`]:
/// an older report is regenerated, never read through a compatibility
/// path.
fn check_schema(doc: &Json, what: &str) -> Result<(), String> {
    match doc.get("schema_version").and_then(|v| v.as_int()) {
        Some(REPORT_SCHEMA) => Ok(()),
        Some(sv) => Err(format!(
            "{what}: schema v{sv} is not the current v{REPORT_SCHEMA} — regenerate \
             the report with `cargo bench`"
        )),
        None => Err(format!("{what}: report has no schema_version")),
    }
}

/// The histogram key one parallel result row promises: rows are
/// shape-tagged and carry exactly their shape's histogram.
fn promised_hist(row: &Json, what: &str, i: usize) -> Result<&'static str, String> {
    match row.get("shape").and_then(|s| s.as_str()) {
        Some("scan") => Ok("morsel_us"),
        Some("fixpoint") => Ok("fixpoint_round_us"),
        Some(other) => Err(format!(
            "{what}: results[{i}] has unknown shape \"{other}\""
        )),
        None => Err(format!(
            "{what}: schema v{REPORT_SCHEMA} promises a \"shape\" tag on every result \
             but results[{i}] has none"
        )),
    }
}

/// Validate a `BENCH_parallel.json` document: it must be schema v4 and
/// carry every key v4 promises. A missing promised key is a hard error —
/// never a silent skip.
fn validate_parallel(doc: &Json, what: &str) -> Result<(), String> {
    check_schema(doc, what)?;
    let results = doc
        .get("results")
        .and_then(|r| r.as_arr())
        .ok_or_else(|| format!("{what}: missing results array"))?;
    for (i, r) in results.iter().enumerate() {
        let w = r
            .get("workers")
            .and_then(|v| v.as_int())
            .ok_or_else(|| format!("{what}: results[{i}] has no workers count"))?;
        let key = promised_hist(r, what, i)?;
        if r.get(key)
            .and_then(|m| m.get("p95"))
            .and_then(as_num)
            .is_none()
        {
            return Err(format!(
                "{what}: schema v{REPORT_SCHEMA} promises \"{key}.p95\" on results[{i}] \
                 (workers {w}) but it is missing"
            ));
        }
        if r.get("degrade_steps").and_then(|v| v.as_int()).is_none() {
            return Err(format!(
                "{what}: schema v{REPORT_SCHEMA} promises integer \"degrade_steps\" on results[{i}] \
                 (workers {w})"
            ));
        }
    }
    // the VM-vs-AST comparison block
    if doc.get("vm_speedup").and_then(as_num).is_none() {
        return Err(format!(
            "{what}: schema v{REPORT_SCHEMA} promises numeric \"vm_speedup\""
        ));
    }
    let vf = doc.get("vm_filter").ok_or_else(|| {
        format!("{what}: schema v{REPORT_SCHEMA} promises a \"vm_filter\" object")
    })?;
    for key in ["ast_morsel_us", "vm_morsel_us"] {
        if vf
            .get(key)
            .and_then(|m| m.get("p95"))
            .and_then(as_num)
            .is_none()
        {
            return Err(format!(
                "{what}: schema v{REPORT_SCHEMA} promises \"vm_filter.{key}.p95\""
            ));
        }
    }
    Ok(())
}

/// Validate a `BENCH_obs.json` document: it must be schema v4 and every
/// gated overhead must be numeric.
fn validate_obs(doc: &Json, what: &str) -> Result<(), String> {
    check_schema(doc, what)?;
    for key in OVERHEAD_GATES {
        if doc.get(key).and_then(as_num).is_none() {
            return Err(format!(
                "{what}: schema v{REPORT_SCHEMA} promises \"{key}\" but it is missing or \
                 non-numeric"
            ));
        }
    }
    Ok(())
}

/// `workers -> p95` of one per-result histogram (`key`) from a
/// `BENCH_parallel.json` document. Shape tags never collide here: each
/// histogram key lives on exactly one shape, so `workers` alone is a
/// unique key.
fn p95_by_workers(parallel: &Json, key: &str) -> Vec<(i128, f64)> {
    let mut out = Vec::new();
    let Some(results) = parallel.get("results").and_then(|r| r.as_arr()) else {
        return out;
    };
    for r in results {
        let (Some(w), Some(p95)) = (
            r.get("workers").and_then(|v| v.as_int()),
            r.get(key).and_then(|m| m.get("p95")).and_then(as_num),
        ) else {
            continue;
        };
        out.push((w, p95));
    }
    out
}

fn compare(baseline: &Json, parallel: &Json, obs: &Json) -> Result<Vec<String>, String> {
    let mut regressions = Vec::new();

    let base_parallel = baseline
        .get("parallel")
        .ok_or("baseline has no \"parallel\" section")?;
    let base_obs = baseline
        .get("obs")
        .ok_or("baseline has no \"obs\" section")?;
    validate_parallel(base_parallel, "baseline parallel section")?;
    validate_obs(base_obs, "baseline obs section")?;

    // robustness sanity, checked before any latency gate (and regardless
    // of hardware parity): the clean benchmark path must take zero
    // recovery rungs. A nonzero `degrade_steps` means the measured
    // medians include retry/quarantine/fallback work — the numbers are
    // not a benchmark of the parallel path at all.
    if let Some(results) = parallel.get("results").and_then(|r| r.as_arr()) {
        for (i, r) in results.iter().enumerate() {
            let d = r
                .get("degrade_steps")
                .and_then(|v| v.as_int())
                .ok_or_else(|| {
                    format!(
                        "current parallel report lost results[{i}].degrade_steps after validation"
                    )
                })?;
            if d != 0 {
                let w = r.get("workers").and_then(|v| v.as_int()).unwrap_or(-1);
                let shape = r
                    .get("shape")
                    .and_then(|v| v.as_str())
                    .unwrap_or("?")
                    .to_string();
                regressions.push(format!(
                    "results[{i}] (shape {shape}, {w} workers) took {d} recovery \
                     rung(s) on the clean benchmark path — degrade_steps must be 0"
                ));
            }
        }
    }

    let base_hw = base_parallel
        .get("hardware_threads")
        .and_then(|v| v.as_int())
        .ok_or("baseline parallel section has no hardware_threads")?;
    let cur_hw = parallel
        .get("hardware_threads")
        .and_then(|v| v.as_int())
        .ok_or("current parallel report has no hardware_threads")?;

    // VM-vs-AST gates: compared *within the current report* (same run,
    // same machine — no baseline or hardware parity needed), so they run
    // before the cross-machine skip below.
    let speedup = parallel
        .get("vm_speedup")
        .and_then(as_num)
        .ok_or("current parallel report lost \"vm_speedup\" after validation")?;
    let vf = parallel
        .get("vm_filter")
        .ok_or("current parallel report lost \"vm_filter\" after validation")?;
    let p95_of = |key: &str| {
        vf.get(key)
            .and_then(|m| m.get("p95"))
            .and_then(as_num)
            .ok_or_else(|| format!("current parallel report lost \"vm_filter.{key}.p95\""))
    };
    let ast_p95 = p95_of("ast_morsel_us")?;
    let vm_p95 = p95_of("vm_morsel_us")?;
    let bound = (ast_p95 * P95_RELATIVE_BOUND).max(ast_p95 + VM_P95_FLOOR_US);
    let verdict = if vm_p95 > bound { "REGRESSION" } else { "ok" };
    println!(
        "bench-compare: vm_filter morsel p95: VM {vm_p95:.0}µs vs AST {ast_p95:.0}µs \
         (bound {bound:.0}µs) — {verdict}"
    );
    if vm_p95 > bound {
        regressions.push(format!(
            "VM-mode morsel p95 regressed vs the AST walker: {vm_p95:.0}µs > \
             {bound:.0}µs (AST {ast_p95:.0}µs + 10%, {VM_P95_FLOOR_US:.0}µs floor)"
        ));
    }
    if cur_hw >= 2 {
        let verdict = if speedup < VM_SPEEDUP_BOUND {
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "bench-compare: vm_speedup: {speedup:.2}x (bound {VM_SPEEDUP_BOUND:.1}x) — \
             {verdict}"
        );
        if speedup < VM_SPEEDUP_BOUND {
            regressions.push(format!(
                "vm_speedup below the acceptance bound: {speedup:.2}x < \
                 {VM_SPEEDUP_BOUND:.1}x on the scan-filter workload"
            ));
        }
    } else {
        println!(
            "bench-compare: vm_speedup SKIPPED — {cur_hw} hardware thread(s): the \
             {VM_SPEEDUP_BOUND:.1}x bound is only gated on ≥ 2 threads \
             (measured {speedup:.2}x, recorded in the report)"
        );
    }

    if base_hw != cur_hw {
        println!(
            "bench-compare: SKIPPED — baseline was recorded on {base_hw} hardware \
             thread(s), this machine has {cur_hw}; latency numbers are not comparable"
        );
        return Ok(regressions);
    }

    for (key, label, floor_us) in P95_GATES {
        let base_p95 = p95_by_workers(base_parallel, key);
        let cur_p95 = p95_by_workers(parallel, key);
        for (w, base) in &base_p95 {
            let Some((_, cur)) = cur_p95.iter().find(|(cw, _)| cw == w) else {
                continue;
            };
            let bound = (base * P95_RELATIVE_BOUND).max(base + floor_us);
            let verdict = if *cur > bound { "REGRESSION" } else { "ok" };
            println!(
                "bench-compare: {label} p95 @ {w} workers: {cur:.0}µs vs \
                 baseline {base:.0}µs (bound {bound:.0}µs) — {verdict}"
            );
            if *cur > bound {
                regressions.push(format!(
                    "{label} p95 @ {w} workers regressed: {cur:.0}µs > {bound:.0}µs \
                     (baseline {base:.0}µs + 10%, {floor_us:.0}µs floor)"
                ));
            }
        }
    }

    for key in OVERHEAD_GATES {
        // validation guarantees presence
        let cur = obs
            .get(key)
            .and_then(as_num)
            .ok_or_else(|| format!("current obs report lost \"{key}\" after validation"))?;
        let base = base_obs
            .get(key)
            .and_then(as_num)
            .ok_or_else(|| format!("baseline obs section lost \"{key}\" after validation"))?;
        let bound = base * OVERHEAD_RELATIVE_BOUND + OVERHEAD_ABSOLUTE_SLACK;
        let verdict = if cur > bound { "REGRESSION" } else { "ok" };
        println!(
            "bench-compare: obs {key}: {:.2}% vs baseline {:.2}% (bound {:.2}%) — {verdict}",
            cur * 100.0,
            base * 100.0,
            bound * 100.0
        );
        if cur > bound {
            regressions.push(format!(
                "obs {key} regressed: {:.2}% > bound {:.2}% (baseline {:.2}% + 10% rel \
                 + 0.5pp slack)",
                cur * 100.0,
                bound * 100.0,
                base * 100.0
            ));
        }
        // timeline and scoped recording each carry their tentpole's
        // absolute cap, on top of the relative bound
        if (key == "timeline_overhead" || key == "scoped_overhead") && cur > TIMELINE_ABSOLUTE_CAP {
            regressions.push(format!(
                "obs {key} above the absolute cap: {:.2}% > {:.2}%",
                cur * 100.0,
                TIMELINE_ABSOLUTE_CAP * 100.0
            ));
        }
    }

    Ok(regressions)
}

fn main() -> ExitCode {
    let mut baseline_path = "BENCH_baseline.json".to_string();
    let mut parallel_path = "BENCH_parallel.json".to_string();
    let mut obs_path = "BENCH_obs.json".to_string();
    let mut write_baseline = false;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--write-baseline" => write_baseline = true,
            "--baseline" | "--parallel" | "--obs" => {
                let Some(v) = argv.get(i + 1) else {
                    eprintln!("bench-compare: {} needs a file argument", argv[i]);
                    return ExitCode::from(2);
                };
                match argv[i].as_str() {
                    "--baseline" => baseline_path = v.clone(),
                    "--parallel" => parallel_path = v.clone(),
                    _ => obs_path = v.clone(),
                }
                i += 1;
            }
            other => {
                eprintln!("bench-compare: unknown argument {other}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    let (parallel, obs) = match (read_json(&parallel_path), read_json(&obs_path)) {
        (Ok(p), Ok(o)) => (p, o),
        (p, o) => {
            for r in [p, o] {
                if let Err(e) = r {
                    println!("bench-compare: SKIPPED — {e} (run the benches first)");
                }
            }
            return ExitCode::SUCCESS;
        }
    };

    // validate against the *declared* schemas before anything else — a
    // report missing a key its own schema_version promises must fail
    // loudly, and must certainly never become the committed baseline
    for result in [
        validate_parallel(
            &parallel,
            &format!("{parallel_path} (current parallel report)"),
        ),
        validate_obs(&obs, &format!("{obs_path} (current obs report)")),
    ] {
        if let Err(e) = result {
            eprintln!("bench-compare: malformed input — {e}");
            return ExitCode::FAILURE;
        }
    }

    if write_baseline {
        let doc = Json::obj([
            ("bench", Json::str("baseline")),
            ("schema_version", Json::Int(2)),
            ("parallel", parallel),
            ("obs", obs),
        ]);
        if let Err(e) = std::fs::write(&baseline_path, format!("{doc}\n")) {
            eprintln!("bench-compare: cannot write {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("bench-compare: wrote {baseline_path}");
        return ExitCode::SUCCESS;
    }

    let baseline = match read_json(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            println!("bench-compare: SKIPPED — {e} (no committed baseline)");
            return ExitCode::SUCCESS;
        }
    };

    match compare(&baseline, &parallel, &obs) {
        Ok(regressions) if regressions.is_empty() => {
            println!("bench-compare: OK — no regressions vs {baseline_path}");
            ExitCode::SUCCESS
        }
        Ok(regressions) => {
            for r in &regressions {
                eprintln!("bench-compare: FAIL — {r}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench-compare: malformed input — {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(text: &str) -> Json {
        Json::parse(text).expect("test literal parses")
    }

    fn hist(p95: f64) -> String {
        format!("{{\"count\": 10, \"p50\": 1.0, \"p95\": {p95}, \"p99\": {p95}}}")
    }

    /// A schema-v4 parallel report with the VM block and the given
    /// result rows.
    fn parallel_rows(hw: i128, vm_p95: f64, speedup: f64, rows: &str) -> Json {
        j(&format!(
            "{{\"schema_version\": 4, \"hardware_threads\": {hw}, \
              \"vm_speedup\": {speedup}, \
              \"vm_filter\": {{\"workers\": 2, \"ast_morsel_us\": {}, \"vm_morsel_us\": {}}}, \
              \"results\": [{rows}]}}",
            hist(100.0),
            hist(vm_p95),
        ))
    }

    /// A schema-v4 parallel report: one scan and one fixpoint row at 4
    /// workers, and an AST morsel p95 of 100µs in the VM block.
    fn parallel_v4(hw: i128, round_p95: f64, vm_p95: f64, speedup: f64) -> Json {
        parallel_rows(
            hw,
            vm_p95,
            speedup,
            &format!(
                "{{\"workers\": 4, \"shape\": \"scan\", \"degrade_steps\": 0, \"morsel_us\": {}}},
                 {{\"workers\": 4, \"shape\": \"fixpoint\", \"degrade_steps\": 0, \
                   \"fixpoint_round_us\": {}}}",
                hist(100.0),
                hist(round_p95)
            ),
        )
    }

    fn obs_v4(timeline: f64, scoped: f64) -> Json {
        j(&format!(
            "{{\"schema_version\": 4, \"kill_switch_overhead\": 0.01, \
              \"guard_overhead\": 0.01, \"timeline_overhead\": {timeline}, \
              \"scoped_overhead\": {scoped}}}"
        ))
    }

    fn baseline(parallel: Json, obs: Json) -> Json {
        Json::obj([("parallel", parallel), ("obs", obs)])
    }

    #[test]
    fn committed_reports_pass_the_gate() {
        let parallel = j(include_str!("../../../../BENCH_parallel.json"));
        let obs = j(include_str!("../../../../BENCH_obs.json"));
        let base = j(include_str!("../../../../BENCH_baseline.json"));
        validate_parallel(&parallel, "BENCH_parallel.json").unwrap();
        validate_obs(&obs, "BENCH_obs.json").unwrap();
        compare(&base, &parallel, &obs).unwrap();
    }

    #[test]
    fn pre_v4_reports_are_rejected_naming_both_schemas() {
        let v3 = j("{\"schema_version\": 3, \"hardware_threads\": 4, \"results\": []}");
        let err = validate_parallel(&v3, "t").unwrap_err();
        assert!(err.contains("v3") && err.contains("v4"), "{err}");
        let v3 = j("{\"schema_version\": 3, \"kill_switch_overhead\": 0.01, \
                     \"guard_overhead\": 0.01, \"timeline_overhead\": 0.01}");
        let err = validate_obs(&v3, "t").unwrap_err();
        assert!(err.contains("v3") && err.contains("cargo bench"), "{err}");
        // a stale section inside the baseline fails the comparison too
        let stale = baseline(v3, obs_v4(0.01, 0.01));
        let cur = parallel_v4(4, 200.0, 80.0, 1.5);
        let err = compare(&stale, &cur, &obs_v4(0.01, 0.01)).unwrap_err();
        assert!(err.contains("baseline parallel section"), "{err}");
    }

    #[test]
    fn result_without_shape_fails_loudly() {
        let doc = parallel_rows(4, 80.0, 1.5, "{\"workers\": 2, \"degrade_steps\": 0}");
        let err = validate_parallel(&doc, "t").unwrap_err();
        assert!(err.contains("shape"), "unhelpful error: {err}");
    }

    #[test]
    fn scan_without_its_promised_quantile_fails_loudly() {
        let doc = parallel_rows(
            4,
            80.0,
            1.5,
            "{\"workers\": 2, \"shape\": \"scan\", \"degrade_steps\": 0}",
        );
        let err = validate_parallel(&doc, "t").unwrap_err();
        assert!(err.contains("morsel_us.p95"), "unhelpful error: {err}");
    }

    #[test]
    fn obs_missing_any_gated_overhead_fails_loudly() {
        for key in OVERHEAD_GATES {
            let others: Vec<String> = OVERHEAD_GATES
                .iter()
                .filter(|k| **k != key)
                .map(|k| format!("\"{k}\": 0.01"))
                .collect();
            let doc = j(&format!("{{\"schema_version\": 4, {}}}", others.join(", ")));
            let err = validate_obs(&doc, "t").unwrap_err();
            assert!(err.contains(key), "unhelpful error: {err}");
        }
        assert!(validate_obs(&obs_v4(0.01, 0.01), "t").is_ok());
    }

    #[test]
    fn absolute_caps_fire_inside_the_relative_bound() {
        // a 7% baseline puts the relative bound above 8%, so 6% passes
        // it and only the 5% absolute cap can fire
        for (key, base_obs, over, under) in [
            (
                "timeline_overhead",
                obs_v4(0.07, 0.01),
                obs_v4(0.06, 0.01),
                obs_v4(0.04, 0.01),
            ),
            (
                "scoped_overhead",
                obs_v4(0.01, 0.07),
                obs_v4(0.01, 0.06),
                obs_v4(0.01, 0.04),
            ),
        ] {
            let base = baseline(parallel_v4(4, 200.0, 80.0, 1.5), base_obs);
            let cur = parallel_v4(4, 200.0, 80.0, 1.5);
            let fired = compare(&base, &cur, &over).unwrap();
            assert_eq!(fired.len(), 1, "{fired:?}");
            assert!(
                fired[0].contains(key) && fired[0].contains("absolute cap"),
                "expected the {key} absolute cap to fire: {fired:?}"
            );
            let fine = compare(&base, &cur, &under).unwrap();
            assert!(fine.is_empty(), "unexpected regressions: {fine:?}");
        }
    }

    #[test]
    fn shape_tagged_p95_regression_still_gates() {
        let base = baseline(parallel_v4(4, 200.0, 80.0, 1.5), obs_v4(0.01, 0.01));
        let slow = compare(
            &base,
            &parallel_v4(4, 400.0, 80.0, 1.5),
            &obs_v4(0.01, 0.01),
        )
        .unwrap();
        assert!(
            slow.iter().any(|r| r.contains("exec.fixpoint_round_us")),
            "expected a fixpoint p95 regression: {slow:?}"
        );
        let fine = compare(
            &base,
            &parallel_v4(4, 200.0, 80.0, 1.5),
            &obs_v4(0.01, 0.01),
        )
        .unwrap();
        assert!(fine.is_empty(), "unexpected regressions: {fine:?}");
    }

    #[test]
    fn scoped_overhead_regression_gates_against_the_baseline() {
        let base = baseline(parallel_v4(4, 200.0, 80.0, 1.5), obs_v4(0.01, 0.01));
        let cur = parallel_v4(4, 200.0, 80.0, 1.5);
        let slow = compare(&base, &cur, &obs_v4(0.01, 0.03)).unwrap();
        assert!(
            slow.iter().any(|r| r.contains("scoped_overhead regressed")),
            "expected a scoped_overhead regression: {slow:?}"
        );
    }

    #[test]
    fn schema4_without_the_vm_block_fails_loudly() {
        let no_speedup = j("{\"schema_version\": 4, \"results\": []}");
        let err = validate_parallel(&no_speedup, "t").unwrap_err();
        assert!(err.contains("vm_speedup"), "unhelpful error: {err}");
        let no_hist = j("{\"schema_version\": 4, \"vm_speedup\": 1.5, \
                          \"vm_filter\": {\"workers\": 2}, \"results\": []}");
        let err = validate_parallel(&no_hist, "t").unwrap_err();
        assert!(
            err.contains("vm_filter.ast_morsel_us.p95"),
            "unhelpful error: {err}"
        );
        assert!(validate_parallel(&parallel_v4(4, 200.0, 80.0, 1.5), "t").is_ok());
    }

    #[test]
    fn vm_p95_regression_vs_ast_gates_within_the_current_report() {
        // the baseline ran on other hardware, so every cross-report gate
        // is skipped: the within-report gate must still fire
        let base = baseline(parallel_v4(2, 200.0, 80.0, 1.5), obs_v4(0.01, 0.01));
        let slow = compare(
            &base,
            &parallel_v4(4, 200.0, 400.0, 1.5),
            &obs_v4(0.01, 0.01),
        )
        .unwrap();
        assert!(
            slow.iter().any(|r| r.contains("VM-mode morsel p95")),
            "expected a VM p95 regression: {slow:?}"
        );
        // jitter inside the 10% + 25µs envelope passes
        let fine = compare(
            &base,
            &parallel_v4(4, 200.0, 120.0, 1.5),
            &obs_v4(0.01, 0.01),
        )
        .unwrap();
        assert!(fine.is_empty(), "unexpected regressions: {fine:?}");
    }

    #[test]
    fn vm_speedup_bound_gates_only_with_enough_hardware() {
        let base = baseline(parallel_v4(4, 200.0, 80.0, 1.5), obs_v4(0.01, 0.01));
        let obs = obs_v4(0.01, 0.01);
        let slow = compare(&base, &parallel_v4(4, 200.0, 80.0, 1.05), &obs).unwrap();
        assert!(
            slow.iter().any(|r| r.contains("vm_speedup below")),
            "expected a vm_speedup failure: {slow:?}"
        );
        // one hardware thread: the bound is SKIPPED, not failed
        let skipped = compare(&base, &parallel_v4(1, 200.0, 80.0, 1.05), &obs).unwrap();
        assert!(
            !skipped.iter().any(|r| r.contains("vm_speedup")),
            "vm_speedup must be skipped on 1 thread: {skipped:?}"
        );
        let fast = compare(&base, &parallel_v4(4, 200.0, 80.0, 1.4), &obs).unwrap();
        assert!(fast.is_empty(), "unexpected regressions: {fast:?}");
    }
}
