//! Command implementations. Each returns the text to print, so the
//! commands are directly testable.

use crate::config::RunConfig;
use crate::session::{ProfileOpts, Session};
use crate::{CliError, Command, USAGE};
use genpar_algebra::parse::parse_query;
use genpar_algebra::Query;
use genpar_core::check::{check_invariance, AlgebraQuery, CheckConfig};
use genpar_core::hierarchy::equality_usage;
use genpar_core::infer_requirements;
use genpar_core::probe::probe_tightest;
use genpar_mapping::{ExtensionMode, MappingClass};
use genpar_optimizer::{Calibration, Constraints, RuleSet, StatsStore};
use genpar_value::{BaseType, CvType, DomainId};
use std::fmt::Write as _;

/// Schema version stamped into `profile --json` output (v1 was the
/// unversioned pre-histogram shape, v2 added histograms/misestimate; v3
/// adds the `timeline` and `stats` blocks — see DESIGN.md §10, §12).
pub const PROFILE_SCHEMA_VERSION: i64 = 3;

/// Execute a parsed command under the process's `GENPAR_*` settings.
pub fn execute(cmd: &Command, env: &RunConfig) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Classify { query } => classify(query),
        Command::Check { query, mode, class } => check(query, mode, class),
        Command::Probe { query, mode, arity } => probe(query, mode, *arity),
        Command::Run {
            query,
            db,
            workers,
            timeout_ms,
        } => run(query, db, *workers, *timeout_ms, env),
        Command::Optimize {
            query,
            db,
            union_key,
        } => optimize_cmd(query, db.as_deref(), union_key.as_deref(), env),
        Command::Explain {
            query,
            db,
            union_key,
            workers,
            calibration,
            stats,
        } => explain_cmd(
            query,
            db.as_deref(),
            union_key.as_deref(),
            *workers,
            calibration.as_deref(),
            stats.as_deref(),
            env,
        ),
        Command::Profile {
            query,
            db,
            union_key,
            json,
            workers,
            trace,
            timeline,
            calibration,
            stats,
            timeout_ms,
        } => profile_cmd(
            query,
            db.as_deref(),
            union_key.as_deref(),
            *json,
            *workers,
            trace.as_deref(),
            *timeline,
            calibration.as_deref(),
            stats.as_deref(),
            *timeout_ms,
            env,
        ),
        Command::Calibrate { bench, out } => calibrate_cmd(bench, out),
        Command::Serve {
            db,
            port,
            workers,
            tenant_budget,
            max_inflight,
            queue_cap,
            calibration,
            stats,
            timeout_ms,
        } => crate::serve_cmd::serve_cmd(
            db,
            *port,
            *workers,
            tenant_budget.as_deref(),
            *max_inflight,
            *queue_cap,
            calibration.as_deref(),
            stats.as_deref(),
            *timeout_ms,
            env,
        ),
        Command::Stats { action, file } => stats_cmd(action, file),
        Command::Audit => audit(),
    }
}

/// Classify the built-in catalog of paper queries.
fn audit() -> Result<String, CliError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:<26} {:<46} strong-mode class",
        "query", "equality use", "rel-mode class"
    );
    let _ = writeln!(out, "{}", "-".repeat(140));
    for (name, q) in genpar_algebra::catalog::all_named() {
        let inf = infer_requirements(&q);
        let _ = writeln!(
            out,
            "{:<22} {:<26} {:<46} {}",
            name,
            equality_usage(&q).to_string(),
            inf.rel.to_string(),
            inf.strong
        );
    }
    Ok(out)
}

pub(crate) fn parse_q(query: &str) -> Result<Query, CliError> {
    parse_query(query).map_err(|e| CliError::parse(e.to_string()))
}

fn parse_mode(mode: &str) -> Result<ExtensionMode, CliError> {
    match mode {
        "rel" => Ok(ExtensionMode::Rel),
        "strong" => Ok(ExtensionMode::Strong),
        other => Err(CliError::usage(format!(
            "unknown mode '{other}' (rel|strong)"
        ))),
    }
}

fn parse_class(class: &str) -> Result<MappingClass, CliError> {
    match class {
        "all" => Ok(MappingClass::all()),
        "total-surjective" => Ok(MappingClass::total_surjective()),
        "functional" => Ok(MappingClass::functional()),
        "injective" => Ok(MappingClass::injective()),
        "bijective" => Ok(MappingClass::bijective()),
        other => Err(CliError::usage(format!(
            "unknown class '{other}' (all|total-surjective|functional|injective|bijective)"
        ))),
    }
}

fn rel_ty(arity: usize) -> CvType {
    CvType::relation(BaseType::Domain(DomainId(0)), arity)
}

/// Infer the query's output type assuming every referenced relation is a
/// binary relation of `arity` atoms (falls back to the input type when
/// inference fails, e.g. on opaque map functions).
fn output_type_of(q: &Query, arity: usize) -> CvType {
    let mut env = genpar_algebra::types::TypeEnv::new();
    for name in q.rel_names() {
        env.insert(name, rel_ty(arity));
    }
    genpar_algebra::types::infer_type(q, &env).unwrap_or_else(|_| rel_ty(arity))
}

fn classify(query: &str) -> Result<String, CliError> {
    let q = parse_q(query)?;
    let inf = infer_requirements(&q);
    let mut out = String::new();
    let _ = writeln!(out, "query:          {q}");
    let _ = writeln!(out, "equality usage: {}", equality_usage(&q));
    let _ = writeln!(out, "rel mode:       {}", inf.rel);
    let _ = writeln!(out, "strong mode:    {}", inf.strong);
    let _ = writeln!(out, "\nderivation:");
    for line in &inf.trace {
        let _ = writeln!(out, "  • {line}");
    }
    Ok(out)
}

fn check(query: &str, mode: &str, class: &str) -> Result<String, CliError> {
    let q = parse_q(query)?;
    let mode = parse_mode(mode)?;
    let mc = parse_class(class)?;
    let out_ty = output_type_of(&q, 2);
    let aq = AlgebraQuery::new(q);
    let cfg = CheckConfig {
        mode,
        ..Default::default()
    };
    let outcome = check_invariance(&aq, &rel_ty(2), &out_ty, &mc, &cfg);
    Ok(match outcome {
        genpar_core::check::CheckOutcome::Invariant { families, pairs, skipped } => format!(
            "INVARIANT: no violation across {families} families / {pairs} related input pairs ({skipped} skipped)\n"
        ),
        genpar_core::check::CheckOutcome::Counterexample(cx) => {
            format!("REFUTED:\n  {cx}\n")
        }
        genpar_core::check::CheckOutcome::Aborted(reason) => {
            return Err(CliError::internal(format!("check aborted: {reason}")))
        }
    })
}

fn probe(query: &str, mode: &str, arity: usize) -> Result<String, CliError> {
    let q = parse_q(query)?;
    let mode = parse_mode(mode)?;
    let out_ty = output_type_of(&q, arity);
    let aq = AlgebraQuery::new(q);
    let cfg = CheckConfig {
        mode,
        families: 40,
        inputs_per_family: 30,
        ..Default::default()
    };
    let report = probe_tightest(&aq, &rel_ty(arity), &out_ty, &cfg);
    if let Some(reason) = report.rungs.iter().find_map(|(_, o)| o.aborted()) {
        return Err(CliError::internal(format!("probe aborted: {reason}")));
    }
    let mut out = report.to_string();
    match report.tightest() {
        Some(rung) => {
            let _ = writeln!(out, "tightest class found: generic w.r.t. {rung} mappings");
        }
        None => {
            let _ = writeln!(out, "no rung of the ladder holds — the query is not even classically generic at this shape");
        }
    }
    Ok(out)
}

fn run(
    query: &str,
    db_path: &str,
    workers: Option<usize>,
    timeout_ms: Option<u64>,
    env: &RunConfig,
) -> Result<String, CliError> {
    // the wall deadline arms a meter over the budget: the walker and
    // every executor worker charge it, so a breach surfaces as a
    // structured budget error on every route — exit 4, wall_ms
    let _wall =
        timeout_ms.map(|ms| genpar_guard::arm_wall_deadline(std::time::Duration::from_millis(ms)));
    let session = Session::open(Some(db_path), None, RuleSet::standard(), None, None, env)?;
    session.run(&parse_q(query)?, Some(env.workers(workers)))
}

/// Parse an `R,S:$N` union-key assertion into rewrite constraints.
fn build_rules(union_key: Option<&str>) -> Result<RuleSet, CliError> {
    let mut constraints = Constraints::none();
    if let Some(spec) = union_key {
        // "R,S:$1"
        let (tables, col) = spec
            .split_once(':')
            .ok_or_else(|| CliError::usage("--union-key wants R,S:$N"))?;
        let col = col
            .strip_prefix('$')
            .and_then(|n| n.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .ok_or_else(|| CliError::usage("--union-key wants a 1-based $N column"))?;
        constraints =
            constraints.with_union_key(tables.split(',').map(|s| s.trim().to_string()), [col - 1]);
    }
    Ok(RuleSet::with_constraints(constraints))
}

fn optimize_cmd(
    query: &str,
    db_path: Option<&str>,
    union_key: Option<&str>,
    env: &RunConfig,
) -> Result<String, CliError> {
    let q = parse_q(query)?;
    let session = Session::open(db_path, Some(&q), build_rules(union_key)?, None, None, env)?;
    Ok(session.optimize(&q))
}

/// `explain`: the optimizer story and the route `run` takes — see
/// [`Session::explain`].
fn explain_cmd(
    query: &str,
    db_path: Option<&str>,
    union_key: Option<&str>,
    workers: Option<usize>,
    calibration: Option<&str>,
    stats_path: Option<&str>,
    env: &RunConfig,
) -> Result<String, CliError> {
    let q = parse_q(query)?;
    let rules = build_rules(union_key)?;
    let session = Session::open(db_path, Some(&q), rules, calibration, stats_path, env)?;
    session.explain(&q, Some(env.workers(workers)))
}

/// `profile`: an instrumented run — see [`Session::profile`].
/// `--trace FILE` additionally exports the run as Chrome `trace_event`
/// JSON (or JSONL for a `.jsonl` path) — with the timeline recorder on
/// (`--timeline`, implied by `--trace`) that is a true timeline of real
/// begin/end instants on per-worker lanes. `--stats FILE` consults the
/// observed-statistics store for costing and harvests this run's
/// `plan.node_stats` events back into it. Tracing records into the
/// observability layer, so `--trace` and `--timeline` with it off
/// (`--quiet`, `GENPAR_OBS=off`) are a usage error.
#[allow(clippy::too_many_arguments)]
fn profile_cmd(
    query: &str,
    db_path: Option<&str>,
    union_key: Option<&str>,
    json: bool,
    workers: Option<usize>,
    trace_path: Option<&str>,
    timeline: bool,
    calibration: Option<&str>,
    stats_path: Option<&str>,
    timeout_ms: Option<u64>,
    env: &RunConfig,
) -> Result<String, CliError> {
    if !env.obs && (trace_path.is_some() || timeline) {
        return Err(CliError::usage(
            "profile --trace and --timeline need observability, \
             which --quiet or GENPAR_OBS=off turns off",
        ));
    }
    let q = parse_q(query)?;
    let _wall =
        timeout_ms.map(|ms| genpar_guard::arm_wall_deadline(std::time::Duration::from_millis(ms)));
    let rules = build_rules(union_key)?;
    let session = Session::open(db_path, Some(&q), rules, calibration, stats_path, env)?;
    let opts = ProfileOpts {
        json,
        trace_path,
        timeline,
        persist_morsel: true,
    };
    session.profile(&q, Some(env.workers(workers)), &opts)
}

/// `calibrate`: fit the parallel cost model from a `BENCH_parallel.json`
/// document and write the calibration file `explain`/`profile` load with
/// `--calibration`.
fn calibrate_cmd(bench_path: &str, out_path: &str) -> Result<String, CliError> {
    let text = std::fs::read_to_string(bench_path)
        .map_err(|e| CliError::runtime(format!("cannot read bench file {bench_path}: {e}")))?;
    let bench = genpar_obs::Json::parse(&text)
        .map_err(|e| CliError::parse(format!("bench file {bench_path}: {e}")))?;
    let mut cal = Calibration::default()
        .fit_from_bench(&bench)
        .map_err(CliError::runtime)?;
    // fewer than two hardware threads cannot produce real contention —
    // the fit is arithmetic on noise. Persist the flag so every later
    // consumer of CALIBRATION.json sees it, not just this terminal.
    let hw = bench
        .get("hardware_threads")
        .and_then(|v| v.as_int())
        .unwrap_or(0);
    if hw < 2 {
        cal.unreliable = true;
    }
    genpar_optimizer::persist::save_atomic(out_path, &format!("{}\n", cal.to_json()))
        .map_err(CliError::runtime)?;
    let mut out = String::new();
    let _ = writeln!(out, "fitted from {bench_path}:");
    let _ = writeln!(
        out,
        "  overhead_per_worker: {:.4} (was {:.4} by default)",
        cal.overhead_per_worker,
        Calibration::default().overhead_per_worker
    );
    let _ = writeln!(out, "  startup_cost_cells:  {:.0}", cal.startup_cost_cells);
    for wkr in [2usize, 4, 8] {
        match cal.crossover_cost_cells(wkr) {
            Some(c) => {
                let _ = writeln!(
                    out,
                    "  crossover @ {wkr} workers: parallel pays above {c:.0} cells"
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  crossover @ {wkr} workers: none — parallel never wins at this width"
                );
            }
        }
    }
    if cal.unreliable {
        let _ = writeln!(
            out,
            "  WARNING: bench ran on {hw} hardware thread(s); speedups (and this fit) are unreliable"
        );
        let _ = writeln!(out, "  unreliable: true (persisted in {out_path})");
    }
    let _ = writeln!(out, "wrote {out_path}");
    Ok(out)
}

/// `genpar stats show|reset`: inspect or clear an observed-statistics
/// store file without running a query.
fn stats_cmd(action: &str, file: &str) -> Result<String, CliError> {
    match action {
        "reset" => {
            let mut empty = StatsStore::new();
            empty.save(file).map_err(CliError::runtime)?;
            Ok(format!("reset {file} (0 catalogs)\n"))
        }
        "show" => {
            let store = StatsStore::load(file).map_err(CliError::runtime)?;
            let mut out = String::new();
            let _ = writeln!(out, "{file}: {} catalog(s)", store.catalogs.len());
            for (key, cat) in &store.catalogs {
                let _ = writeln!(out, "\ncatalog '{key}' ({} entries):", cat.entries.len());
                let _ = writeln!(
                    out,
                    "  {:<18} {:<16} {:>7} {:>10} {:>12} {:>20}",
                    "op", "fingerprint", "samples", "selectivity", "rows_ewma", "rows min/last/max"
                );
                // highest-sample entries first — the ones steering routes
                let mut ranked: Vec<_> = cat.entries.iter().collect();
                ranked.sort_by(|(fa, a), (fb, b)| b.samples.cmp(&a.samples).then(fa.cmp(fb)));
                for (fp, e) in ranked {
                    let _ = writeln!(
                        out,
                        "  {:<18} {fp:016x} {:>7} {:>10.4} {:>12.1} {:>20}",
                        e.op,
                        e.samples,
                        e.selectivity,
                        e.rows_ewma,
                        format!("{}/{}/{}", e.rows_min, e.rows_last, e.rows_max),
                    );
                }
            }
            Ok(out)
        }
        other => Err(CliError::usage(format!(
            "stats action must be show or reset (got {other:?})"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{event_field, load_calibration, vm_line};

    /// The settings with every `GENPAR_*` variable unset.
    fn unset() -> RunConfig {
        RunConfig::default()
    }

    /// One-shot `explain` on the nominal catalog at `workers`.
    fn explain(query: &str, workers: usize) -> String {
        explain_cmd(query, None, None, Some(workers), None, None, &unset()).unwrap()
    }

    /// The obs registry is process-global; tests that reset + snapshot it
    /// serialize here so a concurrent reset cannot wipe their events.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
        match OBS_LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// One-shot text or JSON `profile` at `workers`, with optional
    /// `--db`, `--calibration` and `--stats` files.
    fn profile_files(
        query: &str,
        db: Option<&str>,
        workers: usize,
        cal: Option<&str>,
        stats: Option<&str>,
        json: bool,
    ) -> String {
        profile_cmd(
            query,
            db,
            None,
            json,
            Some(workers),
            None,
            false,
            cal,
            stats,
            None,
            &unset(),
        )
        .unwrap()
    }

    /// One-shot `profile` on the nominal catalog at `workers`.
    fn profile(query: &str, workers: usize, json: bool, trace: Option<&str>, tl: bool) -> String {
        profile_cmd(
            query,
            None,
            None,
            json,
            Some(workers),
            trace,
            tl,
            None,
            None,
            None,
            &unset(),
        )
        .unwrap()
    }

    #[test]
    fn classify_reports_both_modes() {
        let out = classify("hat[$1=$2](R)").unwrap();
        assert!(out.contains("rel mode"), "{out}");
        assert!(out.contains("fully generic"), "{out}");
        assert!(out.contains("injective"), "{out}");
        assert!(out.contains('•'), "{out}");
    }

    #[test]
    fn check_refutes_q4_and_verifies_q3() {
        let out = check("select[$1=$2](R)", "rel", "all").unwrap();
        assert!(out.starts_with("REFUTED"), "{out}");
        let out = check("pi[$1,$2](R)", "rel", "all").unwrap();
        assert!(out.starts_with("INVARIANT"), "{out}");
        let out = check("select[$1=$2](R)", "rel", "injective").unwrap();
        assert!(out.starts_with("INVARIANT"), "{out}");
        // type inference lets non-arity-preserving queries check cleanly:
        // π$1 has a 1-column output and is invariant for all mappings
        let out = check("pi[$1](R)", "rel", "all").unwrap();
        assert!(out.starts_with("INVARIANT"), "{out}");
        // even returns bool — also typed correctly now
        let out = check("even(R)", "rel", "injective").unwrap();
        assert!(out.starts_with("INVARIANT"), "{out}");
        let out = check("even(R)", "rel", "all").unwrap();
        assert!(out.starts_with("REFUTED"), "{out}");
    }

    #[test]
    fn probe_finds_q4_rung() {
        let out = probe("select[$1=$2](R)", "rel", 2).unwrap();
        assert!(out.contains("tightest class found"), "{out}");
        assert!(out.contains("injective"), "{out}");
    }

    #[test]
    fn run_evaluates_against_db_file() {
        let dir = std::env::temp_dir().join("genpar_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ex22.gdb");
        std::fs::write(&path, "R = {(e, f), (f, g)}\n").unwrap();
        let out = run(
            "pi[$1,$4](join[$2=$1](R, R))",
            path.to_str().unwrap(),
            Some(1),
            None,
            &unset(),
        )
        .unwrap();
        assert_eq!(out.trim(), "{(e, g)}");
    }

    #[test]
    fn run_parallel_matches_serial_output() {
        let dir = std::env::temp_dir().join("genpar_cli_test_par");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("par.gdb");
        let mut body = String::from("R = {");
        for i in 0..50 {
            if i > 0 {
                body.push_str(", ");
            }
            body.push_str(&format!("({i}, {})", i % 7));
        }
        body.push_str("}\nS = {(1, 9), (2, 9), (3, 9)}\n");
        std::fs::write(&path, body).unwrap();
        let p = path.to_str().unwrap();
        for q in [
            "R",
            "pi[$1](R)",
            "select[$1=$2](R)",
            "union(R, S)",
            "diff(R, S)",
            "pi[$1,$4](join[$2=$1](R, S))",
        ] {
            let serial = run(q, p, Some(1), None, &unset()).unwrap();
            let parallel = run(q, p, Some(4), None, &unset()).unwrap();
            assert_eq!(serial, parallel, "parity broke on {q}");
        }
    }

    #[test]
    fn run_parallel_falls_back_on_uncertified_queries() {
        let dir = std::env::temp_dir().join("genpar_cli_test_fb");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fb.gdb");
        std::fs::write(&path, "R = {(1, 2), (2, 3)}\n").unwrap();
        let p = path.to_str().unwrap();
        let _g = obs_guard();
        genpar_obs::reset();
        let out = run("powerset(R)", p, Some(4), None, &unset()).unwrap();
        assert!(out.contains("{(1, 2)}"), "{out}");
        let snap = genpar_obs::snapshot();
        let ev = snap
            .events
            .iter()
            .find(|e| e.kind == "exec.fallback")
            .expect("fallback event recorded");
        assert_eq!(event_field(ev, "op"), "powerset");
        // the gate's refusal reason rides along on the fallback event so
        // traces and explain agree on *why* the parallel route was refused
        assert!(
            event_field(ev, "reason").contains("straddle"),
            "fallback event carries the gate refusal reason: {ev:?}"
        );
        assert_eq!(event_field(ev, "mode"), "serial");
    }

    #[test]
    fn run_parallel_combiner_and_fixpoint_do_not_fall_back() {
        let dir = std::env::temp_dir().join("genpar_cli_test_comb");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("comb.gdb");
        std::fs::write(
            &path,
            "R = {(1, 2), (2, 3)}\nE = {(0, 1), (1, 2), (2, 3), (3, 4)}\n",
        )
        .unwrap();
        let p = path.to_str().unwrap();
        let _g = obs_guard();
        genpar_obs::reset();
        // root-level aggregates take the combiner route at 4 workers —
        // `even(R)` no longer degrades to serial (the acceptance bar)
        assert_eq!(
            run("even(R)", p, Some(4), None, &unset()).unwrap().trim(),
            "true"
        );
        assert_eq!(
            run("count(R)", p, Some(4), None, &unset()).unwrap().trim(),
            "2"
        );
        assert_eq!(
            run("sum[$1](R)", p, Some(4), None, &unset())
                .unwrap()
                .trim(),
            "3"
        );
        // a distributive-body fixpoint runs per-round on the pool
        let fix = "fix[X](E, pi[$1,$4](join[$2=$1](X, E)))";
        let serial = run(fix, p, Some(1), None, &unset()).unwrap();
        let parallel = run(fix, p, Some(4), None, &unset()).unwrap();
        assert_eq!(serial, parallel, "fixpoint parity broke");
        let snap = genpar_obs::snapshot();
        assert!(
            snap.events.iter().all(|e| e.kind != "exec.fallback"),
            "no fallback events on certified inputs: {:?}",
            snap.events
        );
    }

    #[test]
    fn optimize_traces_rewrites() {
        let out = optimize_cmd("pi[$1](union(R, S))", None, None, &unset()).unwrap();
        assert!(out.contains("MapThroughGeneric"), "{out}");
        assert!(out.contains("estimated cost"), "{out}");
        // difference push only with the key flag
        let out = optimize_cmd("pi[$1](diff(R, S))", None, None, &unset()).unwrap();
        assert!(out.contains("no profitable rewrite"), "{out}");
    }

    #[test]
    fn explain_shows_trace_and_plan() {
        let _g = obs_guard();
        let out = explain("pi[$1](union(R, S))", 1);
        assert!(out.contains("MapThroughGeneric"), "{out}");
        assert!(out.contains("∪: closure (Prop 3.1)"), "{out}");
        assert!(out.contains("chosen plan:"), "{out}");
        assert!(out.contains("Scan R"), "{out}");
        assert!(out.contains("estimated cost"), "{out}");
        // the parallel section names the gate verdict even when serial
        assert!(out.contains("partition-safe"), "{out}");
    }

    #[test]
    fn explain_reports_parallel_route_and_fallback() {
        let _g = obs_guard();
        let out = explain("pi[$1](union(R, S))", 4);
        assert!(out.contains("parallel execution (4 workers)"), "{out}");
        assert!(
            out.contains("run route:      executor on 4 worker threads"),
            "{out}"
        );
        // both route costs are printed with the calibrated model
        assert!(out.contains("route costs"), "{out}");
        assert!(out.contains("serial route:"), "{out}");
        assert!(out.contains("parallel route:"), "{out}");
        assert!(out.contains("model prefers:"), "{out}");
        assert!(out.contains("crossover"), "{out}");
        // per-operator cardinality estimates back the misestimate report
        assert!(out.contains("estimated rows per operator:"), "{out}");
        assert!(out.contains("plan.Scan"), "{out}");
        let out = explain("powerset(R)", 4);
        assert!(out.contains("falls back to serial: 'powerset'"), "{out}");
        assert!(out.contains("straddle"), "{out}");
        assert!(out.contains("gate refused the parallel route"), "{out}");
    }

    #[test]
    fn explain_cites_the_combiner_certificate_not_a_refusal() {
        let _g = obs_guard();
        // `even` used to be refused with the Lemma 2.12 *pitfall*; now the
        // same lemma backs its combiner certificate — explain must cite
        // the certificate, print both route costs, and show no fallback
        let out = explain("even(R)", 4);
        assert!(out.contains("combiner 'even'"), "{out}");
        assert!(out.contains("Lemma 2.12"), "{out}");
        assert!(out.contains("partition-local accumulators"), "{out}");
        assert!(!out.contains("falls back to serial"), "{out}");
        assert!(!out.contains("gate refused"), "{out}");
        assert!(out.contains("serial route:"), "{out}");
        assert!(out.contains("parallel route:"), "{out}");
        assert!(out.contains("model prefers:"), "{out}");
        let out = explain("count(pi[$1](R))", 4);
        assert!(out.contains("combiner 'count'"), "{out}");
    }

    #[test]
    fn explain_reports_the_per_round_fixpoint_certificate() {
        let _g = obs_guard();
        let q = "fix[X](E, pi[$1,$4](join[$2=$1](X, E)))";
        let out = explain(q, 4);
        assert!(out.contains("fixpoint round-safe"), "{out}");
        assert!(out.contains("per-round body certified"), "{out}");
        assert!(out.contains("morsel pool"), "{out}");
        assert!(
            out.contains("loop-invariant inputs are evaluated and indexed once"),
            "{out}"
        );
        assert!(!out.contains("falls back to serial"), "{out}");
        // both routes costed: the parallel one pays per-round startup
        assert!(out.contains("serial route:"), "{out}");
        assert!(out.contains("parallel route:"), "{out}");
        // a fixpoint whose body uses a whole-set operator is refused
        let out = explain("fix[X](E, powerset(X))", 4);
        assert!(out.contains("falls back to serial"), "{out}");
    }

    #[test]
    fn explain_reports_blocked_difference_push() {
        let _g = obs_guard();
        for q in [
            "pi[$1](diff(R, S))",
            "pi[$1](intersect(R, S))",
            "map[$1](intersect(R, S))",
        ] {
            // without the union-key assertion the Prop 3.4 side condition
            // fails: the rule must show up as blocked, not fired
            let out = explain(q, 1);
            assert!(out.contains("blocked rewrites:"), "{out}");
            assert!(out.contains("MapThroughGeneric"), "{out}");
            assert!(out.contains("Prop 3.4"), "{out}");
            assert!(out.contains("not proven injective (no union key)"), "{out}");
            // with the assertion the rule fires, but on narrow 2-column
            // tables the cost model keeps the original (the Series C
            // crossover) — explain must say so instead of "no rewrite fired"
            let out = explain_cmd(q, None, Some("R,S:$1"), Some(1), None, None, &unset()).unwrap();
            assert!(out.contains("cost model kept the original"), "{out}");
            // the fired step is listed with the classifier's derivation
            assert!(out.contains("fired rewrites (not kept):"), "{out}");
            assert!(out.contains("MapThroughGeneric"), "{out}");
            assert!(
                out.contains("∩/−:") && out.contains("commutes (§4.4)"),
                "{out}"
            );
            let line = |tag: &str| out.lines().find_map(|l| l.strip_prefix(tag)).map(str::trim);
            assert_eq!(line("query:"), line("optimized:"), "{out}");
            assert!(!out.contains("no rewrite fired"), "{out}");
            assert!(!out.contains("blocked rewrites:"), "{out}");
        }
    }

    #[test]
    fn explain_reports_vm_programs_and_refusals() {
        let _g = obs_guard();
        // an eligible σ compiles; the line carries the certificate the
        // program is stamped with at run time
        let out = explain("select[even($1)](R)", 2);
        assert!(out.contains("bytecode vm:"), "{out}");
        assert!(out.contains("program of"), "{out}");
        assert!(out.contains("[cert:"), "{out}");
        // a plan with no σ/map expressions says so instead of going quiet
        let out = explain("pi[$1](R)", 2);
        assert!(out.contains("no compiled programs"), "{out}");
        // an ineligible expression gets the paper-citing refusal — the
        // same voice as the partition gate, never a silent AST path
        let line = vm_line(
            "map(<custom>)".to_string(),
            genpar_algebra::vm::compile_fn(&genpar_algebra::ValueFn::custom(|v| v.clone())),
            None,
        );
        assert!(line.contains("AST walker"), "{line}");
        assert!(line.contains("Section 4.4"), "{line}");
        // the kill switch is reported loudly, not inferred from absence
        let vm_off = RunConfig {
            vm: false,
            ..unset()
        };
        let out = explain_cmd(
            "select[even($1)](R)",
            None,
            None,
            Some(2),
            None,
            None,
            &vm_off,
        );
        let out = out.unwrap();
        assert!(out.contains("disabled (GENPAR_VM=0)"), "{out}");
    }

    #[test]
    fn profile_renders_tree_and_json() {
        let _g = obs_guard();
        let out = profile("pi[$1](union(R, S))", 1, false, None, false);
        assert!(out.contains("spans:"), "{out}");
        assert!(out.contains("exec.parallel"), "{out}");
        assert!(out.contains("counters:"), "{out}");
        assert!(
            out.contains("misestimate (actual / estimated rows):"),
            "{out}"
        );
        let out = profile("pi[$1](union(R, S))", 1, true, None, false);
        let parsed = genpar_obs::Json::parse(&out).expect("profile --json emits valid JSON");
        assert!(parsed.get("counters").is_some(), "{out}");
        assert!(parsed.get("spans").is_some(), "{out}");
        // S2: the JSON schema is versioned so downstream tooling can detect drift
        match parsed.get("schema_version") {
            Some(genpar_obs::Json::Int(v)) => assert_eq!(*v, PROFILE_SCHEMA_VERSION as i128),
            other => panic!("schema_version missing or not an int: {other:?}"),
        }
        // per-operator misestimate report: actual vs estimated rows
        let mis = parsed.get("misestimate").expect("misestimate key present");
        match mis {
            genpar_obs::Json::Obj(entries) => {
                assert!(!entries.is_empty(), "misestimate has per-op entries: {out}");
                assert!(
                    entries.iter().all(|(k, _)| k.starts_with("plan.")),
                    "misestimate keys are plan operators: {out}"
                );
                let (_, first) = &entries[0];
                assert!(first.get("est_rows").is_some(), "{out}");
                assert!(first.get("actual_rows").is_some(), "{out}");
                assert!(first.get("ratio").is_some(), "{out}");
            }
            other => panic!("misestimate is not an object: {other:?}"),
        }
        // the result block pairs observed output size with the prediction
        let result = parsed.get("result").expect("result key present");
        assert!(result.get("rows_out").is_some(), "{out}");
        assert!(result.get("est_rows_out").is_some(), "{out}");
    }

    #[test]
    fn profile_parallel_uses_the_executor() {
        let _g = obs_guard();
        let out = profile("pi[$1](union(R, S))", 4, false, None, false);
        assert!(out.contains("exec.parallel"), "{out}");
        assert!(out.contains("exec.worker"), "{out}");
        // every morsel is timed into the latency histogram
        assert!(out.contains("histograms:"), "{out}");
        assert!(out.contains("exec.morsel_us"), "{out}");
    }

    #[test]
    fn profile_exports_a_chrome_trace() {
        let dir = std::env::temp_dir().join("genpar_cli_test_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let p = path.to_str().unwrap();
        let _g = obs_guard();
        let out = profile("pi[$1](union(R, S))", 4, false, Some(p), false);
        assert!(out.contains(&format!("trace written to {p}")), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let trace = genpar_obs::Json::parse(&text).expect("trace file is valid JSON");
        let events = trace
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents array");
        assert!(!events.is_empty(), "trace has events");
        // the parallel section shows up as a named span in the trace
        assert!(
            events
                .iter()
                .any(|e| { e.get("name").and_then(|n| n.as_str()) == Some("exec.parallel") }),
            "exec.parallel span exported: {text}"
        );
        // the JSON form also points at the trace file
        let out = profile("pi[$1](union(R, S))", 4, true, Some(p), false);
        let parsed = genpar_obs::Json::parse(&out).unwrap();
        assert_eq!(
            parsed.get("trace_file").and_then(|v| v.as_str()),
            Some(p),
            "{out}"
        );
    }

    #[test]
    fn profile_exports_jsonl_traces() {
        let dir = std::env::temp_dir().join("genpar_cli_test_trace_jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let p = path.to_str().unwrap();
        let _g = obs_guard();
        profile("pi[$1](union(R, S))", 1, false, Some(p), false);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = 0;
        for line in text.lines() {
            genpar_obs::Json::parse(line).expect("each JSONL line is valid JSON");
            lines += 1;
        }
        assert!(lines > 0, "JSONL trace is non-empty");
    }

    #[test]
    fn calibrate_fits_the_bench_and_explain_loads_it() {
        let dir = std::env::temp_dir().join("genpar_cli_test_cal");
        std::fs::create_dir_all(&dir).unwrap();
        let bench = dir.join("bench.json");
        let out_file = dir.join("cal.json");
        // synthetic speedups from the model with c = 0.05, s = 0:
        // speedup(w) = 1 / (1/w + 0.05 (w-1))
        std::fs::write(
            &bench,
            r#"{"bench": "parallel_speedup", "hardware_threads": 8, "results": [
                {"workers": 1, "median_us": 1000, "speedup": 1.0},
                {"workers": 2, "median_us": 550, "speedup": 1.8182},
                {"workers": 4, "median_us": 400, "speedup": 2.5},
                {"workers": 8, "median_us": 475, "speedup": 2.1053}
            ]}"#,
        )
        .unwrap();
        let b = bench.to_str().unwrap();
        let o = out_file.to_str().unwrap();
        let out = calibrate_cmd(b, o).unwrap();
        assert!(out.contains("overhead_per_worker: 0.05"), "{out}");
        assert!(out.contains(&format!("wrote {o}")), "{out}");
        // hardware_threads >= 2, so no reliability warning
        assert!(!out.contains("WARNING"), "{out}");
        let cal = Calibration::from_file(o).expect("written calibration round-trips");
        assert!(
            (cal.overhead_per_worker - 0.05).abs() < 5e-3,
            "fitted c = {}",
            cal.overhead_per_worker
        );
        // explain picks the fitted calibration up via --calibration
        let _g = obs_guard();
        let out = explain_cmd(
            "pi[$1](union(R, S))",
            None,
            None,
            Some(4),
            Some(o),
            None,
            &unset(),
        )
        .unwrap();
        assert!(
            out.contains("route costs (calibration: 0.050/worker"),
            "{out}"
        );
    }

    #[test]
    fn calibrate_warns_on_single_threaded_benches() {
        let dir = std::env::temp_dir().join("genpar_cli_test_cal_warn");
        std::fs::create_dir_all(&dir).unwrap();
        let bench = dir.join("bench.json");
        let out_file = dir.join("cal.json");
        std::fs::write(
            &bench,
            r#"{"bench": "parallel_speedup", "hardware_threads": 1, "results": [
                {"workers": 1, "median_us": 1000, "speedup": 1.0},
                {"workers": 4, "median_us": 950, "speedup": 1.05}
            ]}"#,
        )
        .unwrap();
        let out = calibrate_cmd(bench.to_str().unwrap(), out_file.to_str().unwrap()).unwrap();
        assert!(out.contains("WARNING"), "{out}");
        assert!(out.contains("1 hardware thread"), "{out}");
        // satellite: the flag is persisted in the file, not just printed
        assert!(out.contains("unreliable: true"), "{out}");
        let cal = Calibration::from_file(out_file.to_str().unwrap()).unwrap();
        assert!(cal.unreliable, "unreliable flag must ride in the JSON");
        let text = genpar_optimizer::persist::read_payload(out_file.to_str().unwrap())
            .unwrap()
            .unwrap();
        let j = genpar_obs::Json::parse(&text).unwrap();
        assert!(
            matches!(j.get("unreliable"), Some(genpar_obs::Json::Bool(true))),
            "{text}"
        );
    }

    #[test]
    fn stats_cmd_resets_and_shows_the_store() {
        let dir = std::env::temp_dir().join("genpar_cli_test_stats_cmd");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("STATS.json");
        let f = file.to_str().unwrap();
        let out = stats_cmd("reset", f).unwrap();
        assert!(out.contains("reset"), "{out}");
        let out = stats_cmd("show", f).unwrap();
        assert!(out.contains("0 catalog(s)"), "{out}");
        // seed an entry past the trust threshold and show it
        let mut store = StatsStore::load(f).unwrap();
        for _ in 0..3 {
            store
                .catalog_mut("nominal")
                .observe(0xabc, "plan.Filter", 100, 10);
        }
        store.save(f).unwrap();
        let out = stats_cmd("show", f).unwrap();
        assert!(out.contains("catalog 'nominal' (1 entries)"), "{out}");
        assert!(out.contains("plan.Filter"), "{out}");
        assert!(out.contains("0000000000000abc"), "{out}");
        assert!(stats_cmd("frobnicate", f).is_err());
        // a malformed store is a loud error, not a silent fresh start
        std::fs::write(&file, "{\"schema_version\": 99}").unwrap();
        assert!(stats_cmd("show", f).is_err());
    }

    #[test]
    fn profile_harvests_stats_and_explain_consumes_them() {
        let dir = std::env::temp_dir().join("genpar_cli_test_stats_loop");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("STATS.json");
        let f = file.to_str().unwrap();
        let _ = std::fs::remove_file(&file);
        let _g = obs_guard();
        // three profiled runs harvest plan.node_stats past MIN_SAMPLES
        for i in 0..3 {
            let out = profile_files("select[$1=$2](R)", None, 1, None, Some(f), false);
            assert!(
                out.contains("node observations into"),
                "run {i} harvested: {out}"
            );
        }
        let store = StatsStore::load(f).unwrap();
        let cat = store.catalog("nominal").expect("nominal catalog exists");
        assert!(
            cat.entries.values().any(|e| e.samples >= 3),
            "entries matured: {:?}",
            cat.entries
        );
        // explain now marks matured nodes observed — and keeps static for
        // plan shapes the store has never seen (disjoint relation S)
        let out = explain_cmd(
            "select[$1=$2](R)",
            None,
            None,
            Some(1),
            None,
            Some(f),
            &unset(),
        )
        .unwrap();
        assert!(out.contains("observed(n="), "{out}");
        assert!(out.contains(&format!("stats:     {f}")), "{out}");
        let out = explain_cmd("pi[$1](S)", None, None, Some(1), None, Some(f), &unset()).unwrap();
        assert!(!out.contains("observed(n="), "{out}");
        assert!(out.contains("[static]"), "{out}");
        // the JSON profile reports the harvest block
        let out = profile_files("select[$1=$2](R)", None, 1, None, Some(f), true);
        let parsed = genpar_obs::Json::parse(&out).unwrap();
        let stats = parsed.get("stats").expect("stats block present");
        assert_eq!(
            stats.get("catalog").and_then(|v| v.as_str()),
            Some("nominal")
        );
        assert!(stats.get("harvested").and_then(|v| v.as_int()).unwrap_or(0) > 0);
    }

    #[test]
    fn profile_timeline_records_real_instants() {
        let _g = obs_guard();
        let prev = genpar_obs::timeline::enabled();
        // --timeline alone (no trace) records and reports, then restores
        let out = profile("pi[$1](union(R, S))", 4, false, None, true);
        assert!(out.contains("timeline:"), "{out}");
        assert_eq!(genpar_obs::timeline::enabled(), prev, "flag restored");
        // JSON form carries the timeline block
        let out = profile("pi[$1](union(R, S))", 4, true, None, true);
        let parsed = genpar_obs::Json::parse(&out).unwrap();
        let tl = parsed.get("timeline").expect("timeline block present");
        assert!(
            tl.get("events").and_then(|v| v.as_int()).unwrap_or(0) > 0,
            "timeline recorded events: {out}"
        );
        assert_eq!(
            parsed.get("schema_version").and_then(|v| v.as_int()),
            Some(PROFILE_SCHEMA_VERSION as i128)
        );
    }

    #[test]
    fn profile_trace_emits_true_begin_end_pairs() {
        let dir = std::env::temp_dir().join("genpar_cli_test_trace_tl");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let p = path.to_str().unwrap();
        let _g = obs_guard();
        // --trace implies --timeline: the export is real B/E pairs, never
        // complete (ph: X) events
        profile("pi[$1](union(R, S))", 4, false, Some(p), false);
        let text = std::fs::read_to_string(&path).unwrap();
        let trace = genpar_obs::Json::parse(&text).unwrap();
        let events = trace
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("traceEvents array");
        let ph = |e: &genpar_obs::Json| {
            e.get("ph")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string()
        };
        let begins = events.iter().filter(|e| ph(e) == "B").count();
        let ends = events.iter().filter(|e| ph(e) == "E").count();
        assert!(begins > 0, "true-timeline B events present: {text}");
        assert_eq!(begins, ends, "B/E balanced: {text}");
        // worker lanes: morsel spans land on tid >= 1 (lane = wid + 1)
        assert!(
            events.iter().any(|e| {
                ph(e) == "B" && e.get("tid").and_then(|v| v.as_int()).unwrap_or(0) >= 1
            }),
            "per-worker lanes present: {text}"
        );
        // every B event carries the query id stamped at executor entry
        assert!(
            events.iter().filter(|e| ph(e) == "B").all(|e| {
                e.get("args")
                    .and_then(|a| a.get("query"))
                    .and_then(|v| v.as_int())
                    .is_some()
            }),
            "B events carry query ids: {text}"
        );
    }

    #[test]
    fn profile_falls_back_to_the_interpreter() {
        let _g = obs_guard();
        // adom is complex-valued — not lowerable to the flat engine
        let out = profile("adom(R)", 1, false, None, false);
        assert!(out.contains("counters:"), "{out}");
        // at 4 workers the gate refuses it and records the fallback
        let out = profile("adom(R)", 4, false, None, false);
        assert!(out.contains("exec.fallback"), "{out}");
    }

    #[test]
    fn profile_parallel_combiner_and_fixpoint_routes() {
        let _g = obs_guard();
        // at 4 workers `even` takes the combiner route: combine span and
        // histogram in the profile, no fallback anywhere
        let out = profile("even(R)", 4, false, None, false);
        assert!(out.contains("exec.combine"), "{out}");
        assert!(!out.contains("exec.fallback"), "{out}");
        // a fixpoint profile shows the per-round spans and histogram
        let dir = std::env::temp_dir().join("genpar_cli_test_fixprof");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fix.gdb");
        std::fs::write(&path, "E = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)}\n").unwrap();
        let out = profile_files(
            "fix[X](E, pi[$1,$4](join[$2=$1](X, E)))",
            Some(path.to_str().unwrap()),
            4,
            None,
            None,
            false,
        );
        assert!(out.contains("exec.fixpoint"), "{out}");
        assert!(out.contains("exec.fixpoint_round_us"), "{out}");
        assert!(!out.contains("exec.fallback"), "{out}");
    }

    #[test]
    fn profile_persists_the_converged_morsel_size() {
        let dir = std::env::temp_dir().join("genpar_cli_test_morsel");
        std::fs::create_dir_all(&dir).unwrap();
        let cal_path = dir.join("cal.json");
        std::fs::write(
            &cal_path,
            "{\"schema_version\": 2, \"overhead_per_worker\": 0.04, \"startup_cost_cells\": 10.0}\n",
        )
        .unwrap();
        let c = cal_path.to_str().unwrap();
        let _g = obs_guard();
        let out = profile_files("pi[$1](union(R, S))", None, 4, Some(c), None, false);
        assert!(out.contains(&format!("persisted to {c}")), "{out}");
        // round trip: the file gained morsel_rows and kept every other key
        let text = genpar_optimizer::persist::read_payload(c).unwrap().unwrap();
        let j = genpar_obs::Json::parse(&text).unwrap();
        let rows = j
            .get("morsel_rows")
            .and_then(|v| v.as_int())
            .expect("morsel_rows persisted");
        assert!(rows > 0, "persisted a positive morsel size: {text}");
        // the calibration parameters survive and the file still loads
        // (unknown keys are ignored by the calibration parser, and the
        // startup preseed path reads the same file back)
        let cal = load_calibration(Some(c)).unwrap().0;
        assert!((cal.overhead_per_worker - 0.04).abs() < 1e-9, "{text}");
        assert!((cal.startup_cost_cells - 10.0).abs() < 1e-9, "{text}");
        // persisting again overwrites in place rather than duplicating
        let out2 = profile_files("pi[$1](union(R, S))", None, 4, Some(c), None, false);
        assert!(out2.contains("persisted to"), "{out2}");
        let text2 = std::fs::read_to_string(&cal_path).unwrap();
        assert_eq!(
            text2.matches("morsel_rows").count(),
            1,
            "one morsel_rows key after re-persist: {text2}"
        );
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        assert!(classify("pi[$0](R)").is_err());
        assert!(check("R", "sideways", "all").is_err());
        assert!(check("R", "rel", "weird").is_err());
        assert!(run("R", "/nonexistent/path.gdb", Some(1), None, &unset()).is_err());
        assert!(optimize_cmd("diff(R,S)", None, Some("R,S"), &unset()).is_err());
        assert!(optimize_cmd("diff(R,S)", None, Some("R,S:$0"), &unset()).is_err());
    }

    #[test]
    fn audit_prints_the_catalog() {
        let out = audit().unwrap();
        assert!(out.contains("Q4"), "{out}");
        assert!(out.contains("eq_adom"), "{out}");
        assert!(out.contains("fully generic"), "{out}");
    }

    #[test]
    fn execute_dispatches() {
        let out = execute(&Command::Help, &unset()).unwrap();
        assert!(out.contains("USAGE"));
        let out = execute(&Command::Classify { query: "R".into() }, &unset()).unwrap();
        assert!(out.contains("fully generic"));
    }

    #[test]
    fn corrupt_stats_file_is_quarantined_and_explain_still_runs() {
        let _g = obs_guard();
        let dir = std::env::temp_dir().join("genpar_cli_test_corrupt_stats");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("STATS.json");
        let s = path.to_str().unwrap();
        // a healthy file first, then tear it mid-payload
        let mut store = StatsStore::new();
        store.catalog_mut("x").observe(1, "plan.Filter", 100, 10);
        store.save(s).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 8]).unwrap();
        let _ = std::fs::remove_file(dir.join("STATS.json.corrupt"));
        let out = explain_cmd(
            "pi[$1](union(R, S))",
            None,
            None,
            None,
            None,
            Some(s),
            &unset(),
        )
        .unwrap();
        assert!(out.starts_with("warning: "), "{out}");
        assert!(out.contains("corrupt"), "{out}");
        assert!(out.contains("quarantined"), "{out}");
        // the torn file moved aside; explain proceeded with fresh stats
        assert!(dir.join("STATS.json.corrupt").exists());
        assert!(!path.exists());
        assert!(out.contains("chosen plan"), "{out}");
    }

    #[test]
    fn corrupt_calibration_quarantines_to_default_but_missing_errors() {
        let _g = obs_guard();
        let dir = std::env::temp_dir().join("genpar_cli_test_corrupt_cal");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cal.json");
        let c = path.to_str().unwrap();
        // corrupt: checksum header that does not match the payload
        std::fs::write(
            &path,
            "#genpar-checksum: 0000000000000000\n{\"schema_version\": 2}\n",
        )
        .unwrap();
        let _ = std::fs::remove_file(dir.join("cal.json.corrupt"));
        let (cal, warning) = load_calibration(Some(c)).unwrap();
        let w = warning.expect("corrupt calibration must warn");
        assert!(w.contains("corrupt"), "{w}");
        assert!(w.contains("default calibration"), "{w}");
        assert!(dir.join("cal.json.corrupt").exists());
        assert_eq!(
            cal.overhead_per_worker,
            Calibration::default().overhead_per_worker
        );
        // missing is a hard error: the user named a file that is not there
        let missing = dir.join("nope.json");
        let err = load_calibration(Some(missing.to_str().unwrap())).unwrap_err();
        assert!(err.message.contains("cannot read"), "{}", err.message);
    }

    #[test]
    fn run_executes_the_plan_explain_prints() {
        let db = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/data/example_2_2.gdb"
        );
        let q = parse_q("pi[$1](union(r1, r3))").unwrap();
        let session =
            Session::open(Some(db), None, RuleSet::standard(), None, None, &unset()).unwrap();
        let prepared = session.prepare(&q, 1);
        assert_eq!(prepared.plan.to_string(), "(π[$1](r1) ∪ π[$1](r3))");
        let explained = session.explain(&q, Some(1)).unwrap();
        assert!(
            explained.contains("optimized: (π[$1](r1) ∪ π[$1](r3))"),
            "{explained}"
        );
        // the rewritten plan answers with the original query's bytes
        let (v, _) = session.evaluate(prepared).unwrap();
        let written = genpar_algebra::eval::eval(&q, &crate::dbfile::load_db(db).unwrap()).unwrap();
        assert_eq!(v, written);
        let out = run("pi[$1](union(r1, r3))", db, Some(1), None, &unset()).unwrap();
        assert_eq!(out, format!("{written}\n"));
    }

    #[test]
    fn explain_names_the_route_run_takes() {
        let _g = obs_guard();
        let dir = std::env::temp_dir().join("genpar_cli_test_routes");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("routes.gdb");
        // W and T differ in width; M and C are relations no table schema
        // describes, so only the walker reads them
        let relations = "R = {(1, 1), (2, 3)}\nE = {(0, 1), (1, 2)}\nW = {(1, 2, 3)}\n\
                         T = {(4, 5)}\nS = {(6)}\nM = {(1, 2, 3), (4, 5)}\nC = {1, 2, 3}\n";
        std::fs::write(&path, relations).unwrap();
        let db = crate::dbfile::load_db(path.to_str().unwrap()).unwrap();
        let session = Session::open(
            path.to_str(),
            None,
            RuleSet::standard(),
            None,
            None,
            &unset(),
        )
        .unwrap();
        for (query, at_one, at_two) in [
            ("pi[$1](select[$1=$2](R))", "walker", "executor"),
            ("count(R)", "walker", "executor"),
            (
                "fix[X](E, pi[$1,$4](join[$2=$1](X, E)))",
                "executor",
                "executor",
            ),
            ("adom(R)", "walker", "walker"),
            // σ reads $3, which T's rows only have after the ×
            (
                "select[$3=$3](product(union(W, T), S))",
                "walker",
                "executor",
            ),
            ("select[$3=$3](product(M, S))", "walker", "walker"),
            ("pi[$1](M)", "walker", "walker"),
            ("count(C)", "walker", "walker"),
        ] {
            let q = parse_q(query).unwrap();
            for (w, expected) in [(1, at_one), (2, at_two)] {
                let out = session.explain(&q, Some(w)).unwrap();
                let named = out
                    .lines()
                    .find_map(|l| l.trim_start().strip_prefix("run route:"))
                    .and_then(|rest| rest.split([' ', ',']).find(|t| !t.is_empty()))
                    .unwrap_or_else(|| panic!("no run route line for {query}: {out}"));
                let (v, taken) = session.evaluate(session.prepare(&q, w)).unwrap();
                assert_eq!(named, taken.to_string(), "{query} at {w} worker(s): {out}");
                // and it answers as the query as written does
                let written = genpar_algebra::eval::eval(&q, &db).unwrap();
                assert_eq!(v, written, "{query} at {w} worker(s)");
                assert_eq!(named, expected, "{query} at {w} worker(s)");
            }
        }
    }

    #[test]
    fn profile_misestimates_use_the_observed_stats_explain_uses() {
        let dir = std::env::temp_dir().join("genpar_cli_test_mis_observed");
        std::fs::create_dir_all(&dir).unwrap();
        let db = dir.join("stats.gdb");
        std::fs::write(
            &db,
            "R = {(1, 1), (1, 2), (2, 2), (3, 4), (4, 4), (5, 6)}\n",
        )
        .unwrap();
        let stats = dir.join("STATS.json");
        let _ = std::fs::remove_file(&stats);
        let (d, f) = (db.to_str(), stats.to_str());
        let _g = obs_guard();
        let profile = |json| profile_files("select[$1=$2](R)", d, 1, None, f, json);
        for _ in 0..3 {
            profile(false);
        }
        let out = explain_cmd("select[$1=$2](R)", d, None, Some(1), None, f, &unset()).unwrap();
        assert!(
            out.contains("plan.Filter        ~3 rows  [observed(n="),
            "{out}"
        );
        let out = profile(true);
        let parsed = genpar_obs::Json::parse(&out).unwrap();
        let filter = parsed
            .get("misestimate")
            .and_then(|m| m.get("plan.Filter"))
            .unwrap_or_else(|| panic!("no plan.Filter misestimate: {out}"));
        let est = match filter.get("est_rows") {
            Some(genpar_obs::Json::Num(x)) => *x,
            Some(genpar_obs::Json::Int(i)) => *i as f64,
            other => panic!("est_rows is not a number: {other:?}"),
        };
        assert!(
            (est - 3.0).abs() < 1e-9,
            "observed estimate, not static: {out}"
        );
        assert_eq!(
            parsed
                .get("result")
                .and_then(|r| r.get("est_rows_out"))
                .and_then(|v| v.as_int()),
            Some(3),
            "{out}"
        );
    }
}
