//! Command implementations. Each returns the text to print, so the
//! commands are directly testable.

use crate::{dbfile, CliError, Command, USAGE};
use genpar_algebra::parse::parse_query;
use genpar_algebra::Query;
use genpar_core::check::{check_invariance, AlgebraQuery, CheckConfig};
use genpar_core::hierarchy::equality_usage;
use genpar_core::infer_requirements;
use genpar_core::probe::probe_tightest;
use genpar_core::{partition_safety, PartitionSafety};
use genpar_engine::{Catalog, Schema, Table};
use genpar_exec::ExecConfig;
use genpar_mapping::{ExtensionMode, MappingClass};
use genpar_optimizer::Constraints;
use genpar_optimizer::{
    estimate_nodes, estimate_nodes_with_sources, optimize_costed,
    optimize_costed_parallel_with_stats, route_costs_with_stats, Calibration, RuleSet, StatsStore,
};
use genpar_value::{BaseType, CvType, DomainId};
use std::fmt::Write as _;

/// Schema version stamped into `profile --json` output (v1 was the
/// unversioned pre-histogram shape, v2 added histograms/misestimate; v3
/// adds the `timeline` and `stats` blocks — see DESIGN.md §10, §12).
pub const PROFILE_SCHEMA_VERSION: i64 = 3;

/// Execute a parsed command.
pub fn execute(cmd: &Command) -> Result<String, CliError> {
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
        } => run(query, db, *workers, *timeout_ms),
        Command::Optimize {
            query,
            db,
            union_key,
        } => optimize_cmd(query, db.as_deref(), union_key.as_deref()),
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
        ),
        Command::Stats { action, file } => stats_cmd(action, file),
        Command::Chaos { seed, cases } => chaos_cmd(*seed, *cases),
        Command::Audit => audit(),
    }
}

/// The key a database contributes its observed statistics under: the
/// `.gdb` path when given, else the shared nominal synthetic catalog.
/// Stats from one database never steer estimates for another.
pub(crate) fn stats_catalog_key(db_path: Option<&str>) -> &str {
    db_path.unwrap_or("nominal")
}

/// Load an observed-statistics store (`--stats FILE`) through the
/// robustness ladder's persistence rung: a missing file is an empty
/// store (first run bootstraps it); a corrupt file — torn write, failed
/// checksum, JSON damage, wrong schema — is quarantined to
/// `<path>.corrupt` and the store regenerates empty, with the warning
/// returned so the command surfaces it. Never an error, never a panic,
/// never a *silent* fresh start.
pub(crate) fn load_stats(path: Option<&str>) -> (Option<StatsStore>, Option<String>) {
    match path {
        Some(p) => {
            let (store, warning) = StatsStore::load_or_quarantine(p);
            (Some(store), warning)
        }
        None => (None, None),
    }
}

/// Load a calibration file, or the built-in default when none is given.
/// A persisted `morsel_rows` key (written by `profile --calibration`)
/// preseeds the global morsel tuner — unless `GENPAR_MORSEL` overrides.
/// A **missing** file is an error (the user named it); a **corrupt** one
/// is quarantined to `<path>.corrupt` and the default calibration rides
/// in its place, with the warning returned for the command to print.
pub(crate) fn load_calibration(
    path: Option<&str>,
) -> Result<(Calibration, Option<String>), CliError> {
    let Some(p) = path else {
        return Ok((Calibration::default(), None));
    };
    let attempt = (|| -> Result<Calibration, String> {
        let text = match genpar_optimizer::persist::read_payload(p) {
            Ok(Some(t)) => t,
            Ok(None) => return Err(format!("cannot read calibration file {p}: file not found")),
            Err(e) => return Err(e),
        };
        let j = genpar_obs::Json::parse(&text).map_err(|e| format!("calibration file {p}: {e}"))?;
        if let Some(rows) = j.get("morsel_rows").and_then(|v| v.as_int()) {
            if rows > 0 {
                genpar_exec::tune::preseed(rows as usize);
            }
        }
        Calibration::from_json(&j)
    })();
    match attempt {
        Ok(cal) => Ok((cal, None)),
        // missing: a named calibration that does not exist is a real
        // error — defaults would silently misprice every route
        Err(reason) if !std::path::Path::new(p).exists() => Err(CliError::runtime(reason)),
        // corrupt: quarantine, regenerate from the default, warn loudly
        Err(reason) => {
            let warning = match genpar_optimizer::persist::quarantine_file(p, &reason) {
                Ok(corrupt) => format!(
                    "calibration file {p} is corrupt ({reason}); \
                     quarantined to {corrupt}, using the default calibration"
                ),
                Err(e) => format!(
                    "calibration file {p} is corrupt ({reason}); \
                     quarantine failed ({e}), using the default calibration"
                ),
            };
            Ok((Calibration::default(), Some(warning)))
        }
    }
}

/// Write the tuner's converged morsel size into a calibration file's
/// `morsel_rows` key, preserving every other key (inverse of the
/// preseed in [`load_calibration`]). The write goes through the
/// crash-safe temp-file + fsync + rename protocol.
pub(crate) fn persist_morsel_rows(path: &str) -> Result<usize, CliError> {
    let text = match genpar_optimizer::persist::read_payload(path) {
        Ok(Some(t)) => t,
        // the file was quarantined (or never existed): restart it from
        // the default calibration so the tuner seed still persists
        Ok(None) => format!("{}\n", Calibration::default().to_json()),
        Err(e) => return Err(CliError::runtime(e)),
    };
    let mut j = genpar_obs::Json::parse(&text)
        .map_err(|e| CliError::runtime(format!("calibration file {path}: {e}")))?;
    let rows = genpar_exec::tune::tuner().rows();
    if let genpar_obs::Json::Obj(fields) = &mut j {
        match fields.iter_mut().find(|(k, _)| k == "morsel_rows") {
            Some((_, v)) => *v = genpar_obs::Json::Int(rows as i128),
            None => fields.push((
                "morsel_rows".to_string(),
                genpar_obs::Json::Int(rows as i128),
            )),
        }
    }
    genpar_optimizer::persist::save_atomic(path, &format!("{j}\n")).map_err(CliError::runtime)?;
    Ok(rows)
}

/// Render collected load warnings as the `warning:`-prefixed lines the
/// text commands prepend to their output.
fn warning_lines(warnings: &[String]) -> String {
    warnings
        .iter()
        .map(|w| format!("warning: {w}\n"))
        .collect::<String>()
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

/// Resolve the worker count: explicit `--parallel` wins, then the
/// `GENPAR_PARALLEL` environment variable, then serial.
pub(crate) fn resolve_workers(workers: Option<usize>) -> usize {
    workers
        .unwrap_or_else(|| ExecConfig::from_env().workers)
        .max(1)
}

fn run(
    query: &str,
    db_path: &str,
    workers: Option<usize>,
    timeout_ms: Option<u64>,
) -> Result<String, CliError> {
    // the wall deadline rides the budget machinery: every charge_* call
    // (serial interpreter and parallel meter alike) checks it, so a
    // breach surfaces as a structured budget error — exit 4, wall_ms
    let _wall =
        timeout_ms.map(|ms| genpar_guard::arm_wall_deadline(std::time::Duration::from_millis(ms)));
    let db = dbfile::load_db(db_path)?;
    let catalog = catalog_from_db(&db)?;
    run_with(query, &db, &catalog, workers)
}

/// The `run` body over preloaded data: the one-shot path above loads the
/// `.gdb` from disk first; `genpar serve` calls this directly with its
/// resident database and catalog, which is what makes served `run`
/// output byte-identical to the one-shot CLI *by construction*.
pub(crate) fn run_with(
    query: &str,
    db: &genpar_algebra::Db,
    catalog: &Catalog,
    workers: Option<usize>,
) -> Result<String, CliError> {
    let q = parse_q(query)?;
    let w = resolve_workers(workers);
    // The partition-safety gate: queries the genericity checker
    // certifies run on the executor — plainly partitioned, as per-round
    // fixpoint evaluation, or through a combiner. At one worker only a
    // certified fixpoint does (its prepared rounds beat the walker's
    // naive loop), so the gate runs there only for a root fixpoint.
    // Everything else takes the serial interpreter below, with a
    // recorded fallback when more workers were asked for.
    if w > 1 || matches!(q, Query::Fixpoint { .. }) {
        let verdict = partition_safety(&q);
        let fixpoint = matches!(verdict, PartitionSafety::FixpointRoundSafe { .. });
        if fixpoint || (w > 1 && verdict.parallel_eligible()) {
            let cfg = ExecConfig::serial().with_workers(w);
            let (v, _stats, _route) =
                genpar_exec::eval_verdict(&q, verdict, catalog, &cfg).map_err(CliError::from)?;
            return Ok(format!("{v}\n"));
        }
        if let PartitionSafety::Unsafe { op, reason } = verdict {
            if w > 1 {
                genpar_exec::note_fallback(op, reason);
            }
        }
    }
    let v = genpar_algebra::eval::eval(&q, db).map_err(CliError::from)?;
    Ok(format!("{v}\n"))
}

/// Build an execution/costing catalog from a loaded database (real
/// cardinalities, one table per relation).
pub(crate) fn catalog_from_db(db: &genpar_algebra::Db) -> Result<Catalog, CliError> {
    let mut cat = Catalog::new();
    for (name, v) in db.relations() {
        let arity = v
            .as_set()
            .and_then(|s| s.iter().next())
            .and_then(|t| t.as_tuple())
            .map(|t| t.len())
            .unwrap_or(2);
        let table = Table::try_from_value(
            name.clone(),
            Schema::uniform(CvType::domain(0), arity),
            &normalize_rel(v, arity),
        )
        .map_err(CliError::runtime)?;
        cat.add(table);
    }
    Ok(cat)
}

/// Build an execution/costing catalog: from a `.gdb` file (real
/// cardinalities) when given, else nominal 1000-row binary tables for
/// every relation the query mentions.
fn build_catalog(q: &Query, db_path: Option<&str>) -> Result<Catalog, CliError> {
    match db_path {
        Some(p) => {
            let db = dbfile::load_db(p)?;
            catalog_from_db(&db)
        }
        None => {
            let mut cat = Catalog::new();
            for name in q.rel_names() {
                let mut t = Table::new(name, Schema::uniform(CvType::int(), 2));
                for i in 0..1000 {
                    t.insert(vec![
                        genpar_value::Value::Int(i),
                        genpar_value::Value::Int(i % 37),
                    ]);
                }
                cat.add(t);
            }
            Ok(cat)
        }
    }
}

/// Parse an `R,S:$N` union-key assertion into rewrite constraints.
pub(crate) fn build_rules(union_key: Option<&str>) -> Result<RuleSet, CliError> {
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
) -> Result<String, CliError> {
    let q = parse_q(query)?;
    let catalog = build_catalog(&q, db_path)?;
    let rules = build_rules(union_key)?;
    let (chosen, trace, base_est, new_est) = optimize_costed(&q, &rules, &catalog);
    let mut out = String::new();
    let _ = writeln!(out, "original:  {q}");
    let _ = writeln!(out, "optimized: {chosen}");
    if trace.steps.is_empty() {
        let _ = writeln!(out, "(no profitable rewrite)");
    } else {
        let _ = write!(out, "{trace}");
    }
    let _ = writeln!(
        out,
        "estimated cost: {:.0} → {:.0} cells",
        base_est.cost, new_est.cost
    );
    Ok(out)
}

/// Look up a field of an obs event by key, rendered as text.
fn event_field(e: &genpar_obs::Event, key: &str) -> String {
    e.fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.to_string())
        .unwrap_or_default()
}

/// `explain`: the full optimizer story for one query — which Section 4.4
/// rewrites fired (with their genericity justifications), which matched
/// but were blocked by a side condition, what the cost model decided, and
/// the physical plan that would run.
fn explain_cmd(
    query: &str,
    db_path: Option<&str>,
    union_key: Option<&str>,
    workers: Option<usize>,
    calibration: Option<&str>,
    stats_path: Option<&str>,
) -> Result<String, CliError> {
    let q = parse_q(query)?;
    let w = resolve_workers(workers);
    let catalog = build_catalog(&q, db_path)?;
    let rules = build_rules(union_key)?;
    let (cal, cal_warning) = load_calibration(calibration)?;
    let (store, stats_warning) = load_stats(stats_path);
    let warnings: Vec<String> = [cal_warning, stats_warning].into_iter().flatten().collect();
    let stats_key = stats_catalog_key(db_path);
    let obs_stats = store.as_ref().and_then(|s| s.catalog(stats_key));
    let stats_note = stats_path.map(|p| (p, stats_key));
    explain_with(
        &q, &catalog, w, &cal, obs_stats, stats_note, &warnings, &rules,
    )
}

/// The `explain` body over preloaded data (catalog, calibration,
/// statistics). The one-shot wrapper above loads everything from disk;
/// `genpar serve` calls this with its resident copies. Rewrite/plan
/// events are attributed to this query through a private obs scope —
/// nothing global is reset, so a resident server's cumulative counters
/// survive every `explain`.
/// One `explain` line for a σ/map expression: either the compiled
/// program (with the partition certificate it carries at run time) or
/// the paper-citing refusal explaining why the AST walker keeps it —
/// ineligibility is reported in the same voice as the partition gate,
/// never silently.
fn vm_line(
    expr: String,
    compiled: Result<genpar_algebra::vm::Program, genpar_algebra::vm::Ineligible>,
    cert: Option<&genpar_core::SafetyCert>,
) -> String {
    match compiled {
        Ok(prog) => match cert {
            Some(c) => {
                let prog = prog.with_cert(&c.to_string());
                format!("  {expr}: program of {} [cert: {c}]", prog.describe())
            }
            None => format!(
                "  {expr}: program of {} [uncertified route]",
                prog.describe()
            ),
        },
        Err(inel) => format!("  {expr}: AST walker — {inel}"),
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn explain_with(
    q: &Query,
    catalog: &Catalog,
    w: usize,
    cal: &Calibration,
    obs_stats: Option<&genpar_optimizer::CatalogStats>,
    stats_note: Option<(&str, &str)>,
    warnings: &[String],
    rules: &RuleSet,
) -> Result<String, CliError> {
    let obs_scope = genpar_obs::Scope::anonymous();
    let (chosen, trace, base_est, new_est) = {
        let _g = obs_scope.enter();
        optimize_costed_parallel_with_stats(q, rules, catalog, w, cal, obs_stats)
    };
    let snap = obs_scope.snapshot();

    let mut out = warning_lines(warnings);
    let _ = writeln!(out, "query:     {q}");
    let _ = writeln!(out, "optimized: {chosen}");
    if let Some((p, key)) = stats_note {
        let entries = obs_stats.map(|c| c.entries.len()).unwrap_or(0);
        let _ = writeln!(
            out,
            "stats:     {p} (catalog '{key}', {entries} observed entries)"
        );
    }
    let _ = writeln!(out);
    if trace.steps.is_empty() {
        // distinguish "nothing matched" from "matched but cost-rejected"
        let rejected = snap.events.iter().any(|e| {
            e.kind == "optimizer.plan_choice"
                && event_field(e, "chosen") == "original"
                && event_field(e, "steps") != "0"
        });
        if rejected {
            let _ = writeln!(
                out,
                "rewrites fired but the cost model kept the original plan."
            );
        } else {
            let _ = writeln!(out, "no rewrite fired.");
        }
    } else {
        let _ = writeln!(out, "rewrite trace:");
        let _ = write!(out, "{trace}");
    }
    // blocked rewrites: pattern matched, genericity side condition failed
    let mut blocked: Vec<String> = Vec::new();
    for e in snap
        .events
        .iter()
        .filter(|e| e.kind == "optimizer.rewrite" && event_field(e, "fired") == "false")
    {
        let line = format!(
            "  ✗ {}  blocked: {}\n      on {}",
            event_field(e, "rule"),
            event_field(e, "blocked_by"),
            event_field(e, "expr"),
        );
        if !blocked.contains(&line) {
            blocked.push(line);
        }
    }
    if !blocked.is_empty() {
        let _ = writeln!(out, "blocked rewrites:");
        for line in &blocked {
            let _ = writeln!(out, "{line}");
        }
    }
    let _ = writeln!(
        out,
        "estimated cost: {:.0} → {:.0} cells",
        base_est.cost, new_est.cost
    );
    let _ = writeln!(out, "\nparallel execution ({w} workers):");
    let serial_hint = |out: &mut String, w: usize| {
        if w > 1 {
            let _ = writeln!(out, "  would run on {w} worker threads");
        } else {
            let _ = writeln!(out, "  (serial: pass --parallel N or set GENPAR_PARALLEL)");
        }
    };
    let safety = partition_safety(&chosen);
    match &safety {
        PartitionSafety::Safe(cert) => {
            let _ = writeln!(out, "  partition-safe: {cert}");
            serial_hint(&mut out, w);
        }
        PartitionSafety::FixpointRoundSafe { body_cert } => {
            let _ = writeln!(
                out,
                "  fixpoint round-safe: per-round body certified: {body_cert}"
            );
            let _ = writeln!(
                out,
                "  each round's body runs on the morsel pool; deltas are canonically merged (semi-naive when the body is delta-linear)"
            );
            let _ = writeln!(
                out,
                "  the body is lowered once; its loop-invariant inputs are evaluated and indexed once, before round 1"
            );
            serial_hint(&mut out, w);
        }
        PartitionSafety::Combiner { op, cert } => {
            let _ = writeln!(
                out,
                "  combiner '{op}': partition-local accumulators + serial combine (cf. Lemma 2.12 — the aggregate itself is not partition-distributive, its partial sums are)"
            );
            let _ = writeln!(out, "  input {cert}");
            serial_hint(&mut out, w);
        }
        PartitionSafety::Unsafe { op, reason } => {
            let _ = writeln!(out, "  falls back to serial: '{op}' — {reason}");
        }
    }
    let _ = writeln!(out, "\nbytecode vm:");
    if !genpar_algebra::vm::enabled() {
        let _ = writeln!(
            out,
            "  disabled ({}=0): the AST walker evaluates every expression",
            genpar_algebra::vm::VM_ENV
        );
    } else {
        let cert = safety.certificate();
        let mut vm_lines: Vec<String> = Vec::new();
        chosen.visit(&mut |n| match n {
            Query::Select(p, _) => vm_lines.push(vm_line(
                format!("σ[{p:?}]"),
                genpar_algebra::vm::compile_pred(p),
                cert,
            )),
            Query::Map(f, _) => vm_lines.push(vm_line(
                format!("map({f:?})"),
                genpar_algebra::vm::compile_fn(f),
                cert,
            )),
            _ => {}
        });
        if vm_lines.is_empty() {
            let _ = writeln!(
                out,
                "  no compiled programs (plan has no σ/map expressions)"
            );
        }
        for line in vm_lines {
            let _ = writeln!(out, "{line}");
        }
    }
    // both routes, costed under the (possibly measured) calibration and
    // any observed statistics — stats can flip this choice, never the
    // answer
    let rc = route_costs_with_stats(&chosen, catalog, w, cal, obs_stats);
    let _ = writeln!(
        out,
        "\nroute costs (calibration: {:.3}/worker overhead, {:.0} cells startup):",
        cal.overhead_per_worker, cal.startup_cost_cells
    );
    let _ = writeln!(out, "  serial route:   {:.0} cells", rc.serial.cost);
    if w > 1 && rc.safe {
        let _ = writeln!(
            out,
            "  parallel route: {:.0} cells ({} workers)",
            rc.parallel.cost, rc.workers
        );
        let route = if rc.choose_parallel {
            "parallel"
        } else {
            "serial"
        };
        let _ = writeln!(
            out,
            "  chosen route:   {route} (margin {:.0} cells)",
            rc.margin_cells.abs()
        );
        match rc.crossover_cost_cells {
            Some(c) => {
                let _ = writeln!(
                    out,
                    "  crossover:      parallel pays above {c:.0} cells of serial cost"
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  crossover:      none — coordination overhead exceeds the ideal speedup at this width"
                );
            }
        }
    } else {
        let reason = if w <= 1 {
            "serial requested"
        } else {
            "gate refused the parallel route"
        };
        let _ = writeln!(out, "  parallel route: unavailable ({reason})");
        let _ = writeln!(out, "  chosen route:   serial");
    }
    let _ = writeln!(out, "\nchosen plan:");
    match genpar_engine::lower(&chosen) {
        Some(plan) => {
            for line in plan.to_string().lines() {
                let _ = writeln!(out, "  {line}");
            }
            let _ = writeln!(out, "\nestimated rows per operator:");
            for (op, est, src) in estimate_nodes_with_sources(&chosen, catalog, obs_stats) {
                let _ = writeln!(out, "  {op:<18} ~{:.0} rows  [{src}]", est.rows);
            }
        }
        None => {
            let _ = writeln!(
                out,
                "  (not lowerable to the row executor: complex values or a bare-valued map)"
            );
        }
    }
    Ok(out)
}

/// Sum the `rows_out` recorded by `plan.*` spans, per operator name.
fn span_rows_by_op(
    nodes: &[genpar_obs::SpanNode],
    acc: &mut std::collections::BTreeMap<String, u64>,
) {
    for n in nodes {
        if n.name.starts_with("plan.") {
            if let Some(r) = n.fields.get("rows_out") {
                *acc.entry(n.name.clone()).or_insert(0) += r;
            }
        }
        span_rows_by_op(&n.children, acc);
    }
}

/// Per-operator actual-vs-estimated rows: the optimizer's per-node
/// cardinality predictions paired against the `rows_out` the executor's
/// spans recorded. Only operators present on both sides are reported.
fn misestimate_rows(
    chosen: &Query,
    catalog: &Catalog,
    snap: &genpar_obs::Snapshot,
) -> Vec<(String, f64, u64, f64)> {
    let mut est: std::collections::BTreeMap<&'static str, f64> = std::collections::BTreeMap::new();
    for (op, e) in estimate_nodes(chosen, catalog) {
        *est.entry(op).or_insert(0.0) += e.rows;
    }
    let mut actual = std::collections::BTreeMap::new();
    span_rows_by_op(&snap.spans, &mut actual);
    actual
        .into_iter()
        .filter_map(|(op, rows)| {
            let e = *est.get(op.as_str())?;
            let ratio = rows as f64 / e.max(1.0);
            Some((op, e, rows, ratio))
        })
        .collect()
}

/// `profile`: optimize and execute the query with a fresh obs registry,
/// then dump the metrics snapshot (span tree, counters, events,
/// histograms, per-operator misestimates) as an ASCII tree or JSON.
/// `--trace FILE` additionally exports the run as Chrome `trace_event`
/// JSON (or JSONL for a `.jsonl` path) — with the timeline recorder on
/// (`--timeline`, implied by `--trace`) that is a true timeline of real
/// begin/end instants on per-worker lanes. `--stats FILE` consults the
/// observed-statistics store for routing and harvests this run's
/// `plan.node_stats` events back into it.
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
) -> Result<String, CliError> {
    let q = parse_q(query)?;
    let _wall =
        timeout_ms.map(|ms| genpar_guard::arm_wall_deadline(std::time::Duration::from_millis(ms)));
    let w = resolve_workers(workers);
    let catalog = build_catalog(&q, db_path)?;
    let rules = build_rules(union_key)?;
    let (cal, cal_warning) = load_calibration(calibration)?;
    let (store, stats_warning) = load_stats(stats_path);
    let warnings: Vec<String> = [cal_warning, stats_warning].into_iter().flatten().collect();
    let outcome = profile_with(
        &q,
        &catalog,
        &rules,
        json,
        w,
        trace_path,
        timeline,
        &cal,
        store.as_ref(),
        stats_path,
        stats_catalog_key(db_path),
        calibration,
        &warnings,
    )?;
    Ok(outcome.output)
}

/// What a profile run produced: the rendered report, plus the
/// statistics store as written to disk after the harvest (so a resident
/// caller — `genpar serve` — can refresh its in-memory copy).
pub(crate) struct ProfileOutcome {
    /// The rendered report (tree or JSON).
    pub output: String,
    /// The store state written by the harvest, when one happened.
    pub written_store: Option<StatsStore>,
}

/// The `profile` body over preloaded data. The one-shot wrapper above
/// loads catalog/calibration/statistics from disk; `genpar serve` calls
/// this with its resident copies. The harvest goes through
/// [`StatsStore::harvest_into`], which re-reads the on-disk store under
/// the process persistence lock before folding — concurrent profilers
/// (two serve sessions, or serve plus a one-shot CLI) cannot lose each
/// other's samples. Resets the process obs registry so the snapshot
/// attributes events to this query alone.
#[allow(clippy::too_many_arguments)]
pub(crate) fn profile_with(
    q: &Query,
    catalog: &Catalog,
    rules: &RuleSet,
    json: bool,
    w: usize,
    trace_path: Option<&str>,
    timeline: bool,
    cal: &Calibration,
    consult: Option<&StatsStore>,
    stats_path: Option<&str>,
    stats_key: &str,
    morsel_out: Option<&str>,
    warnings: &[String],
) -> Result<ProfileOutcome, CliError> {
    let obs_stats_owned = consult.and_then(|s| s.catalog(stats_key)).cloned();
    let obs_stats = obs_stats_owned.as_ref();
    // a trace export without the recorder would fall back to the
    // synthetic layout, so --trace implies --timeline for this run; the
    // previous flag state (e.g. GENPAR_TIMELINE) is restored afterwards
    let prev_timeline = genpar_obs::timeline::enabled();
    // an ambient GENPAR_TIMELINE=1 gets the same reporting as --timeline
    let want_timeline = timeline || trace_path.is_some() || prev_timeline;
    if want_timeline {
        genpar_obs::timeline::set_enabled(true);
    }
    // attribute this run's instrumentation to a private obs scope instead
    // of resetting the process registry: the snapshot below sees exactly
    // this query, concurrent profiles see theirs, and on drop the scope
    // rolls up into the parent so cumulative totals are preserved
    let obs_scope = genpar_obs::Scope::anonymous();
    let scope_guard = obs_scope.enter();
    let (chosen, _trace, _base, new_est) =
        optimize_costed_parallel_with_stats(q, rules, catalog, w, cal, obs_stats);
    // one call at the requested worker count: the gate picks the route
    // (executor, per-round fixpoint, combiner, or the walker fallback)
    let cfg = ExecConfig::default().with_workers(w);
    let (_, mut stats, _route) =
        genpar_exec::eval_query(&chosen, catalog, &cfg).map_err(CliError::from)?;
    // pair the model's prediction with the observed result size
    stats.est_rows_out = new_est.rows.round().max(0.0) as u64;
    drop(scope_guard);
    let snap = obs_scope.snapshot();
    let mut tl = genpar_obs::timeline::snapshot();
    if obs_scope.query_id() != 0 {
        // served request: the process timeline is shared with concurrent
        // queries — keep only the records stamped with this query's id
        tl = tl.for_query(obs_scope.query_id());
    }
    if want_timeline {
        genpar_obs::timeline::set_enabled(prev_timeline);
    }
    let mis = misestimate_rows(&chosen, catalog, &snap);

    if let Some(path) = trace_path {
        let text = if path.ends_with(".jsonl") {
            genpar_obs::trace::jsonl(&snap, &tl)
        } else {
            genpar_obs::trace::chrome_trace_string(&snap, &tl)
        };
        std::fs::write(path, text)
            .map_err(|e| CliError::runtime(format!("cannot write trace file {path}: {e}")))?;
    }

    // fold this run's per-node row counts back into the store, so the
    // next run's estimates are observed rather than guessed; the
    // read-fold-write cycle runs under the persistence lock, so a
    // concurrent harvester's samples are folded in, never overwritten
    let mut written_store = None;
    let harvested = match stats_path {
        Some(p) => {
            let (folded, written) =
                StatsStore::harvest_into(p, stats_key, &snap).map_err(CliError::runtime)?;
            written_store = Some(written);
            Some(folded)
        }
        None => None,
    };

    // persist the converged morsel size so the next run starts tuned
    let persisted_morsel = match morsel_out {
        Some(p) => Some(persist_morsel_rows(p)?),
        None => None,
    };

    if json {
        let mut j = snap.to_json();
        if let genpar_obs::Json::Obj(fields) = &mut j {
            fields.insert(
                0,
                (
                    "schema_version".to_string(),
                    genpar_obs::Json::Int(PROFILE_SCHEMA_VERSION as i128),
                ),
            );
            let mis_json = genpar_obs::Json::Obj(
                mis.iter()
                    .map(|(op, est, actual, ratio)| {
                        (
                            op.clone(),
                            genpar_obs::Json::obj([
                                ("est_rows", genpar_obs::Json::Num(*est)),
                                ("actual_rows", genpar_obs::Json::Int(*actual as i128)),
                                ("ratio", genpar_obs::Json::Num(*ratio)),
                            ]),
                        )
                    })
                    .collect(),
            );
            fields.push(("misestimate".to_string(), mis_json));
            fields.push((
                "result".to_string(),
                genpar_obs::Json::obj([
                    ("rows_out", genpar_obs::Json::Int(stats.rows_out as i128)),
                    (
                        "est_rows_out",
                        genpar_obs::Json::Int(stats.est_rows_out as i128),
                    ),
                ]),
            ));
            if let Some(path) = trace_path {
                fields.push(("trace_file".to_string(), genpar_obs::Json::str(path)));
            }
            if want_timeline {
                fields.push((
                    "timeline".to_string(),
                    genpar_obs::Json::obj([
                        ("events", genpar_obs::Json::Int(tl.events.len() as i128)),
                        ("written", genpar_obs::Json::Int(tl.written as i128)),
                        ("dropped", genpar_obs::Json::Int(tl.dropped as i128)),
                        (
                            "capacity_per_thread",
                            genpar_obs::Json::Int(tl.capacity_per_thread as i128),
                        ),
                    ]),
                ));
            }
            if let (Some(p), Some(folded)) = (stats_path, harvested) {
                fields.push((
                    "stats".to_string(),
                    genpar_obs::Json::obj([
                        ("file", genpar_obs::Json::str(p)),
                        ("catalog", genpar_obs::Json::str(stats_key)),
                        ("harvested", genpar_obs::Json::Int(folded as i128)),
                    ]),
                ));
            }
            if let Some(rows) = persisted_morsel {
                fields.push((
                    "morsel_rows_persisted".to_string(),
                    genpar_obs::Json::Int(rows as i128),
                ));
            }
            if !warnings.is_empty() {
                fields.push((
                    "warnings".to_string(),
                    genpar_obs::Json::Arr(
                        warnings
                            .iter()
                            .map(|w| genpar_obs::Json::str(w.as_str()))
                            .collect(),
                    ),
                ));
            }
        }
        Ok(ProfileOutcome {
            output: format!("{j}\n"),
            written_store,
        })
    } else {
        let mut out = format!(
            "{}query: {q}\n\n{}",
            warning_lines(warnings),
            snap.render_tree()
        );
        if !mis.is_empty() {
            let _ = writeln!(out, "misestimate (actual / estimated rows):");
            for (op, est, actual, ratio) in &mis {
                let _ = writeln!(out, "  {op:<18} {actual} / ~{est:.0}  (x{ratio:.2})");
            }
        }
        if want_timeline {
            let _ = writeln!(
                out,
                "timeline: {} events recorded ({} dropped by the per-thread rings)",
                tl.events.len(),
                tl.dropped
            );
        }
        if let Some(path) = trace_path {
            let _ = writeln!(out, "trace written to {path}");
        }
        if let (Some(p), Some(folded)) = (stats_path, harvested) {
            let _ = writeln!(
                out,
                "stats: harvested {folded} node observations into {p} (catalog '{stats_key}')"
            );
        }
        if let (Some(rows), Some(p)) = (persisted_morsel, morsel_out) {
            let _ = writeln!(out, "morsel size {rows} persisted to {p}");
        }
        Ok(ProfileOutcome {
            output: out,
            written_store,
        })
    }
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

/// The fault sites a chaos storm may arm. All of them sit on the
/// recovery ladder: nth-hit faults are retried in place, persistent
/// faults quarantine workers and ultimately degrade the query to the
/// serial interpreter — never a wrong answer, never a panic.
const CHAOS_SITES: &[&str] = &[
    "exec.morsel",
    "exec.merge",
    "exec.fixpoint_round",
    "exec.combine",
    "exec.retry",
];

/// The query pool a chaos case draws from: plain partitioned shapes,
/// every combiner, and a per-round fixpoint — one of each route the
/// parallel executor can take.
const CHAOS_QUERIES: &[&str] = &[
    "pi[$1](R)",
    "select[$1=$2](R)",
    "union(R, S)",
    "diff(R, S)",
    "pi[$1,$4](join[$2=$1](R, S))",
    "count(R)",
    "sum[$2](R)",
    "even(R)",
    "fix[X](E, pi[$1,$4](join[$2=$1](X, E)))",
];

/// `genpar chaos [--seed N] [--cases M]`: the chaos oracle as a
/// subcommand. Each case deterministically derives a random catalog,
/// query, worker width and multi-site fault storm from the seed,
/// computes the walker's answer, replays the query under the
/// storm, and fails loudly (exit 5, with the repro seed) if the
/// recovered answer differs — plus a torn-write drill proving corrupt
/// state files are quarantined and regenerated. Exit 0 means every
/// recovery rung preserved byte-identical answers.
fn chaos_cmd(seed: u64, cases: u32) -> Result<String, CliError> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let queries: Vec<Query> = CHAOS_QUERIES
        .iter()
        .map(|q| parse_q(q))
        .collect::<Result<_, _>>()?;
    // the storm owns the process-global fault table for the whole loop
    genpar_guard::disarm_faults();
    let (mut recovered, mut degraded) = (0u32, 0u32);
    for case in 0..cases {
        let mut rng = StdRng::seed_from_u64(
            seed ^ (case as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(1),
        );
        // a small random catalog: R/S binary tables and a chain E
        let mut catalog = Catalog::new();
        for name in ["R", "S"] {
            let rows = rng.gen_range(10..120i64);
            let modulus = rng.gen_range(2..9i64);
            let mut t = Table::new(name, Schema::uniform(CvType::int(), 2));
            for i in 0..rows {
                t.insert(vec![
                    genpar_value::Value::Int(i),
                    genpar_value::Value::Int(i % modulus),
                ]);
            }
            catalog.add(t);
        }
        let mut e = Table::new("E", Schema::uniform(CvType::int(), 2));
        for i in 0..rng.gen_range(3..12) {
            e.insert(vec![
                genpar_value::Value::Int(i),
                genpar_value::Value::Int(i + 1),
            ]);
        }
        catalog.add(e);
        let q = &queries[rng.gen_range(0..queries.len())];
        // the serial truth for this case: the walker, which passes no
        // exec.* fault site
        let truth = genpar_algebra::eval::eval(q, &genpar_exec::db_from_catalog(&catalog))
            .map_err(|e| {
                CliError::internal(format!("chaos case {case}: walker run failed: {e}"))
            })?;
        // a storm: one to three sites, each nth-hit or persistent
        let storm: Vec<String> = (0..rng.gen_range(1..4usize))
            .map(|_| {
                let site = CHAOS_SITES[rng.gen_range(0..CHAOS_SITES.len())];
                if rng.gen_bool(0.3) {
                    format!("{site}:*")
                } else {
                    format!("{site}:{}", rng.gen_range(1..6))
                }
            })
            .collect();
        let spec = storm.join(",");
        genpar_guard::arm_faults(&spec)
            .map_err(|e| CliError::internal(format!("chaos case {case}: bad storm spec: {e}")))?;
        let cfg = ExecConfig::serial()
            .with_workers(if rng.gen_bool(0.5) { 2 } else { 4 })
            .with_morsel_rows(rng.gen_range(4..48));
        let result = genpar_exec::eval_query(q, &catalog, &cfg);
        genpar_guard::disarm_faults();
        let repro = format!("repro: genpar chaos --seed {seed} --cases {}", case + 1);
        match result {
            Ok((v, _, route)) => {
                if v != truth {
                    return Err(CliError::internal(format!(
                        "chaos case {case}: answer diverged under storm \"{spec}\" on {q}\n  \
                         got:      {v}\n  expected: {truth}\n  {repro}"
                    )));
                }
                match route {
                    genpar_exec::ExecRoute::Fallback { .. } => degraded += 1,
                    _ => recovered += 1,
                }
            }
            Err(e) => {
                return Err(CliError::internal(format!(
                    "chaos case {case}: the ladder must degrade, never error — \
                     storm \"{spec}\" on {q} returned: {e}\n  {repro}"
                )))
            }
        }
    }

    // torn-write drill: injected persistence faults must leave the old
    // file intact, and a torn file must quarantine + regenerate
    let dir = std::env::temp_dir().join(format!("genpar-chaos-{}-{seed}", std::process::id()));
    std::fs::create_dir_all(&dir)
        .map_err(|e| CliError::runtime(format!("cannot create {}: {e}", dir.display())))?;
    let state = dir.join("STATS.json");
    let state_path = state.to_string_lossy().into_owned();
    let mut store = StatsStore::new();
    for _ in 0..3 {
        store
            .catalog_mut("chaos")
            .observe(7, "plan.Filter", 100, 10);
    }
    store.save(&state_path).map_err(CliError::runtime)?;
    genpar_guard::arm_faults("io.persist:1").map_err(|e| CliError::internal(e.to_string()))?;
    let fault_write = store.save(&state_path);
    genpar_guard::disarm_faults();
    if fault_write.is_ok() {
        return Err(CliError::internal(
            "chaos: injected io.persist fault did not surface from save".to_string(),
        ));
    }
    let (reloaded, warning) = StatsStore::load_or_quarantine(&state_path);
    if warning.is_some() || reloaded.catalogs.is_empty() {
        return Err(CliError::internal(
            "chaos: a failed save must leave the previous state file intact".to_string(),
        ));
    }
    // now tear the file mid-payload and prove the load quarantines it
    let text = std::fs::read_to_string(&state)
        .map_err(|e| CliError::runtime(format!("cannot read {state_path}: {e}")))?;
    std::fs::write(&state, &text[..text.len() / 2])
        .map_err(|e| CliError::runtime(format!("cannot tear {state_path}: {e}")))?;
    let (regenerated, warning) = StatsStore::load_or_quarantine(&state_path);
    let corrupt = format!("{state_path}.corrupt");
    if warning.is_none()
        || !regenerated.catalogs.is_empty()
        || !std::path::Path::new(&corrupt).exists()
    {
        return Err(CliError::internal(format!(
            "chaos: torn {state_path} was not quarantined and regenerated"
        )));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos: {cases} case(s) with seed {seed} — every answer byte-identical to serial"
    );
    let _ = writeln!(
        out,
        "  routes: {recovered} recovered on the parallel path, {degraded} degraded to serial"
    );
    let _ = writeln!(
        out,
        "  persistence: torn-write drill quarantined and regenerated the state file"
    );
    Ok(out)
}

/// Coerce a relation value to uniform-arity tuples (pad/skip oddballs) so
/// it can be loaded into a schema'd table.
fn normalize_rel(v: &genpar_value::Value, arity: usize) -> genpar_value::Value {
    match v.as_set() {
        Some(s) => genpar_value::Value::set(
            s.iter()
                .filter(|t| t.as_tuple().is_some_and(|tt| tt.len() == arity))
                .cloned(),
        ),
        None => genpar_value::Value::empty_set(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The obs registry is process-global; tests that reset + snapshot it
    /// serialize here so a concurrent reset cannot wipe their events.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
        match OBS_LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
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
            let serial = run(q, p, Some(1), None).unwrap();
            let parallel = run(q, p, Some(4), None).unwrap();
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
        let out = run("powerset(R)", p, Some(4), None).unwrap();
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
        assert_eq!(run("even(R)", p, Some(4), None).unwrap().trim(), "true");
        assert_eq!(run("count(R)", p, Some(4), None).unwrap().trim(), "2");
        assert_eq!(run("sum[$1](R)", p, Some(4), None).unwrap().trim(), "3");
        // a distributive-body fixpoint runs per-round on the pool
        let fix = "fix[X](E, pi[$1,$4](join[$2=$1](X, E)))";
        let serial = run(fix, p, Some(1), None).unwrap();
        let parallel = run(fix, p, Some(4), None).unwrap();
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
        let out = optimize_cmd("pi[$1](union(R, S))", None, None).unwrap();
        assert!(out.contains("ProjectThroughUnion"), "{out}");
        assert!(out.contains("estimated cost"), "{out}");
        // difference push only with the key flag
        let out = optimize_cmd("pi[$1](diff(R, S))", None, None).unwrap();
        assert!(out.contains("no profitable rewrite"), "{out}");
    }

    #[test]
    fn explain_shows_trace_and_plan() {
        let _g = obs_guard();
        let out = explain_cmd("pi[$1](union(R, S))", None, None, Some(1), None, None).unwrap();
        assert!(out.contains("ProjectThroughUnion"), "{out}");
        assert!(out.contains("Cor 4.15"), "{out}");
        assert!(out.contains("chosen plan:"), "{out}");
        assert!(out.contains("Scan R"), "{out}");
        assert!(out.contains("estimated cost"), "{out}");
        // the parallel section names the gate verdict even when serial
        assert!(out.contains("partition-safe"), "{out}");
    }

    #[test]
    fn explain_reports_parallel_route_and_fallback() {
        let _g = obs_guard();
        let out = explain_cmd("pi[$1](union(R, S))", None, None, Some(4), None, None).unwrap();
        assert!(out.contains("parallel execution (4 workers)"), "{out}");
        assert!(out.contains("would run on 4 worker threads"), "{out}");
        // both route costs are printed with the calibrated model
        assert!(out.contains("route costs"), "{out}");
        assert!(out.contains("serial route:"), "{out}");
        assert!(out.contains("parallel route:"), "{out}");
        assert!(out.contains("chosen route:"), "{out}");
        assert!(out.contains("crossover"), "{out}");
        // per-operator cardinality estimates back the misestimate report
        assert!(out.contains("estimated rows per operator:"), "{out}");
        assert!(out.contains("plan.Scan"), "{out}");
        let out = explain_cmd("powerset(R)", None, None, Some(4), None, None).unwrap();
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
        let out = explain_cmd("even(R)", None, None, Some(4), None, None).unwrap();
        assert!(out.contains("combiner 'even'"), "{out}");
        assert!(out.contains("Lemma 2.12"), "{out}");
        assert!(out.contains("partition-local accumulators"), "{out}");
        assert!(!out.contains("falls back to serial"), "{out}");
        assert!(!out.contains("gate refused"), "{out}");
        assert!(out.contains("serial route:"), "{out}");
        assert!(out.contains("parallel route:"), "{out}");
        assert!(out.contains("chosen route:"), "{out}");
        let out = explain_cmd("count(pi[$1](R))", None, None, Some(4), None, None).unwrap();
        assert!(out.contains("combiner 'count'"), "{out}");
    }

    #[test]
    fn explain_reports_the_per_round_fixpoint_certificate() {
        let _g = obs_guard();
        let q = "fix[X](E, pi[$1,$4](join[$2=$1](X, E)))";
        let out = explain_cmd(q, None, None, Some(4), None, None).unwrap();
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
        let out = explain_cmd("fix[X](E, powerset(X))", None, None, Some(4), None, None).unwrap();
        assert!(out.contains("falls back to serial"), "{out}");
    }

    #[test]
    fn explain_reports_blocked_difference_push() {
        let _g = obs_guard();
        // without the union-key assertion the Prop 3.4 side condition
        // fails: the rule must show up as blocked, not fired
        let out = explain_cmd("pi[$1](diff(R, S))", None, None, Some(1), None, None).unwrap();
        assert!(out.contains("blocked rewrites:"), "{out}");
        assert!(out.contains("ProjectThroughDifference"), "{out}");
        assert!(out.contains("Prop 3.4"), "{out}");
        // with the assertion the rule fires, but on narrow 2-column
        // tables the cost model keeps the original (the Series C
        // crossover) — explain must say so instead of "no rewrite fired"
        let out = explain_cmd(
            "pi[$1](diff(R, S))",
            None,
            Some("R,S:$1"),
            Some(1),
            None,
            None,
        )
        .unwrap();
        assert!(out.contains("cost model kept the original"), "{out}");
        assert!(!out.contains("no rewrite fired"), "{out}");
    }

    #[test]
    fn explain_reports_vm_programs_and_refusals() {
        let _g = obs_guard();
        // pin the switch regardless of the GENPAR_VM the test process
        // inherited (the CI vm job runs the whole workspace with it off)
        let vm_was = genpar_algebra::vm::enabled();
        genpar_algebra::vm::set_enabled(true);
        // an eligible σ compiles; the line carries the certificate the
        // program is stamped with at run time
        let out = explain_cmd("select[even($1)](R)", None, None, Some(2), None, None).unwrap();
        assert!(out.contains("bytecode vm:"), "{out}");
        assert!(out.contains("program of"), "{out}");
        assert!(out.contains("[cert:"), "{out}");
        // a plan with no σ/map expressions says so instead of going quiet
        let out = explain_cmd("pi[$1](R)", None, None, Some(2), None, None).unwrap();
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
        genpar_algebra::vm::set_enabled(false);
        let out = explain_cmd("select[even($1)](R)", None, None, Some(2), None, None);
        genpar_algebra::vm::set_enabled(vm_was);
        let out = out.unwrap();
        assert!(out.contains("disabled (GENPAR_VM=0)"), "{out}");
    }

    #[test]
    fn profile_renders_tree_and_json() {
        let _g = obs_guard();
        let out = profile_cmd(
            "pi[$1](union(R, S))",
            None,
            None,
            false,
            Some(1),
            None,
            false,
            None,
            None,
            None,
        )
        .unwrap();
        assert!(out.contains("spans:"), "{out}");
        assert!(out.contains("exec.parallel"), "{out}");
        assert!(out.contains("counters:"), "{out}");
        assert!(
            out.contains("misestimate (actual / estimated rows):"),
            "{out}"
        );
        let out = profile_cmd(
            "pi[$1](union(R, S))",
            None,
            None,
            true,
            Some(1),
            None,
            false,
            None,
            None,
            None,
        )
        .unwrap();
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
        let out = profile_cmd(
            "pi[$1](union(R, S))",
            None,
            None,
            false,
            Some(4),
            None,
            false,
            None,
            None,
            None,
        )
        .unwrap();
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
        let out = profile_cmd(
            "pi[$1](union(R, S))",
            None,
            None,
            false,
            Some(4),
            Some(p),
            false,
            None,
            None,
            None,
        )
        .unwrap();
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
        let out = profile_cmd(
            "pi[$1](union(R, S))",
            None,
            None,
            true,
            Some(4),
            Some(p),
            false,
            None,
            None,
            None,
        )
        .unwrap();
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
        profile_cmd(
            "pi[$1](union(R, S))",
            None,
            None,
            false,
            Some(1),
            Some(p),
            false,
            None,
            None,
            None,
        )
        .unwrap();
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
        let out = explain_cmd("pi[$1](union(R, S))", None, None, Some(4), Some(o), None).unwrap();
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
            let out = profile_cmd(
                "select[$1=$2](R)",
                None,
                None,
                false,
                Some(1),
                None,
                false,
                None,
                Some(f),
                None,
            )
            .unwrap();
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
        let out = explain_cmd("select[$1=$2](R)", None, None, Some(1), None, Some(f)).unwrap();
        assert!(out.contains("observed(n="), "{out}");
        assert!(out.contains(&format!("stats:     {f}")), "{out}");
        let out = explain_cmd("pi[$1](S)", None, None, Some(1), None, Some(f)).unwrap();
        assert!(!out.contains("observed(n="), "{out}");
        assert!(out.contains("[static]"), "{out}");
        // the JSON profile reports the harvest block
        let out = profile_cmd(
            "select[$1=$2](R)",
            None,
            None,
            true,
            Some(1),
            None,
            false,
            None,
            Some(f),
            None,
        )
        .unwrap();
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
        let out = profile_cmd(
            "pi[$1](union(R, S))",
            None,
            None,
            false,
            Some(4),
            None,
            true,
            None,
            None,
            None,
        )
        .unwrap();
        assert!(out.contains("timeline:"), "{out}");
        assert_eq!(genpar_obs::timeline::enabled(), prev, "flag restored");
        // JSON form carries the timeline block
        let out = profile_cmd(
            "pi[$1](union(R, S))",
            None,
            None,
            true,
            Some(4),
            None,
            true,
            None,
            None,
            None,
        )
        .unwrap();
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
        // --trace implies --timeline: the export must be real B/E pairs,
        // not the synthetic flame layout of complete (ph: X) events
        profile_cmd(
            "pi[$1](union(R, S))",
            None,
            None,
            false,
            Some(4),
            Some(p),
            false,
            None,
            None,
            None,
        )
        .unwrap();
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
        let out = profile_cmd(
            "adom(R)",
            None,
            None,
            false,
            Some(1),
            None,
            false,
            None,
            None,
            None,
        )
        .unwrap();
        assert!(out.contains("counters:"), "{out}");
        // at 4 workers the gate refuses it and records the fallback
        let out = profile_cmd(
            "adom(R)",
            None,
            None,
            false,
            Some(4),
            None,
            false,
            None,
            None,
            None,
        )
        .unwrap();
        assert!(out.contains("exec.fallback"), "{out}");
    }

    #[test]
    fn profile_parallel_combiner_and_fixpoint_routes() {
        let _g = obs_guard();
        // at 4 workers `even` takes the combiner route: combine span and
        // histogram in the profile, no fallback anywhere
        let out = profile_cmd(
            "even(R)",
            None,
            None,
            false,
            Some(4),
            None,
            false,
            None,
            None,
            None,
        )
        .unwrap();
        assert!(out.contains("exec.combine"), "{out}");
        assert!(!out.contains("exec.fallback"), "{out}");
        // a fixpoint profile shows the per-round spans and histogram
        let dir = std::env::temp_dir().join("genpar_cli_test_fixprof");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fix.gdb");
        std::fs::write(&path, "E = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)}\n").unwrap();
        let out = profile_cmd(
            "fix[X](E, pi[$1,$4](join[$2=$1](X, E)))",
            Some(path.to_str().unwrap()),
            None,
            false,
            Some(4),
            None,
            false,
            None,
            None,
            None,
        )
        .unwrap();
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
        let out = profile_cmd(
            "pi[$1](union(R, S))",
            None,
            None,
            false,
            Some(4),
            None,
            false,
            Some(c),
            None,
            None,
        )
        .unwrap();
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
        let out2 = profile_cmd(
            "pi[$1](union(R, S))",
            None,
            None,
            false,
            Some(4),
            None,
            false,
            Some(c),
            None,
            None,
        )
        .unwrap();
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
        assert!(run("R", "/nonexistent/path.gdb", Some(1), None).is_err());
        assert!(optimize_cmd("diff(R,S)", None, Some("R,S")).is_err());
        assert!(optimize_cmd("diff(R,S)", None, Some("R,S:$0")).is_err());
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
        let out = execute(&Command::Help).unwrap();
        assert!(out.contains("USAGE"));
        let out = execute(&Command::Classify { query: "R".into() }).unwrap();
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
        let out = explain_cmd("pi[$1](union(R, S))", None, None, None, None, Some(s)).unwrap();
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
    fn chaos_smoke_runs_a_few_cases_clean() {
        let _g = obs_guard();
        let out = chaos_cmd(42, 6).unwrap();
        assert!(out.contains("6 case(s) with seed 42"), "{out}");
        assert!(out.contains("byte-identical"), "{out}");
        assert!(out.contains("torn-write drill"), "{out}");
    }
}
