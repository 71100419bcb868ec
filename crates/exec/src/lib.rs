#![warn(missing_docs)]
// Execution paths must fail structurally, never unwrap (tests exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # genpar-exec — the genericity-aware parallel partitioned executor
//!
//! Morsel-driven evaluation of physical plans, **gated by the genericity
//! checker**. It is the one row executor: at one worker its tasks run
//! inline on the caller's thread, at more they fan out on the pool.
//!
//! The paper's central observation — generic
//! queries cannot distinguish relabelled inputs — has a physical
//! corollary: queries built from operators that distribute over
//! partition union can be evaluated per partition and canonically
//! merged, with results `Value`-identical to serial evaluation. The gate
//! ([`genpar_core::partition_safety`]) certifies exactly that fragment;
//! whole-set operators (`even`, `powerset`, active-domain tests …),
//! uncertified opaque closures and maps that may emit bare values take
//! the algebra walker, recorded as an `exec.fallback` obs event. The
//! walker is also the serial truth every oracle compares against.
//!
//! Pipeline per operator: cut the borrowed input into morsels or
//! hash-partition it ([`morsel`]), fan tasks out on a work-stealing
//! worker pool ([`pool`]), run the parallel kernel ([`kernels`]),
//! canonically merge. Tasks borrow their input, so the pool's recovery
//! ladder is always armed: a faulted task re-runs from the same rows.
//! Only an injected fault is worth a re-run
//! ([`ExecError::is_transient`]); any other error is the query's answer.
//! Every worker charges the meter armed on the calling thread
//! ([`genpar_guard::armed_meter`]: a budget, a tenant quota or a wall
//! deadline). The run passes the deterministic fault sites `exec.morsel`
//! and `exec.merge`, and records `exec.*` spans and counters in the
//! `genpar-obs` registry.
//!
//! Entry points:
//!
//! * [`EvalParallel::eval_parallel`] — extension method on
//!   [`PhysicalPlan`]: evaluation of an already-lowered plan.
//! * [`eval_query`] — query-level entry: consult the gate, lower and run
//!   on the executor when certified, fall back to the algebra walker
//!   otherwise. Returns the route taken alongside the result.
//! * [`eval_verdict`] — the same, for a caller that already holds the
//!   gate's verdict (so the gate runs once per query).
//!
//! Every per-run setting — worker count, morsel size, the VM switch and
//! the retry policy — comes from the caller's [`ExecConfig`]; the crate
//! reads no environment.

mod fixpoint;
pub mod kernels;
pub mod morsel;
pub mod pool;
pub mod tune;

use genpar_algebra::{eval::eval, Db, Query};
use genpar_core::{partition_safety, PartitionSafety};
use genpar_engine::plan::{lower, ExecError, ExecStats, PhysicalPlan};
use genpar_engine::schema::Catalog;
use genpar_guard::RetryPolicy;
use genpar_obs::FieldValue;
use genpar_value::Value;
use kernels::{Ctx, Rows, SetOp};
use std::borrow::Cow;

pub use kernels::CombineKind;

pub use morsel::DEFAULT_MORSEL_ROWS;

/// The gate every in-place re-run passes: the `exec.retry` fault site
/// (so chaos storms can fail the recovery machinery itself), plus the
/// obs trail — `exec.degrade_step.retry` counter, `exec.retry` event and
/// timeline instant. The re-run then re-enters the morsel from the top,
/// charging the shared meter again for the repeated work.
pub(crate) fn retry_gate(task: usize, attempt: u32) -> Result<(), ExecError> {
    genpar_guard::faultpoint("exec.retry").map_err(|f| ExecError::Fault(f.to_string()))?;
    genpar_obs::counter("exec.degrade_step.retry", 1);
    genpar_obs::event(
        "exec.retry",
        [
            ("task", FieldValue::U64(task as u64)),
            ("attempt", FieldValue::U64(u64::from(attempt))),
        ],
    );
    genpar_obs::timeline::record_instant("exec.retry", std::time::Instant::now());
    Ok(())
}

/// Record a rung of the degradation ladder firing: the
/// `exec.degrade_step.<step>` counter, an `exec.degrade_step` event and
/// a timeline instant. Steps: `retry` (recorded via [`retry_gate`]),
/// `quarantine` (recorded by the pool), `serial` (recorded here when a
/// route exhausts recovery and falls back whole-serial).
pub(crate) fn note_degrade(step: &'static str) {
    genpar_obs::counter(&format!("exec.degrade_step.{step}"), 1);
    genpar_obs::event("exec.degrade_step", [("step", FieldValue::from(step))]);
    genpar_obs::timeline::record_instant("exec.degrade_step", std::time::Instant::now());
}

/// Executor configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads. `<= 1` runs every task inline on the caller's
    /// thread (no threads spawned).
    pub workers: usize,
    /// Rows per morsel for embarrassingly-parallel operators. Only the
    /// effective size when `auto_tune` is off; otherwise the global
    /// [`tune::MorselTuner`] supplies the (observation-driven) size.
    pub morsel_rows: usize,
    /// Let the global morsel tuner pick the effective morsel size (the
    /// default). [`ExecConfig::with_morsel_rows`] turns this off, as does
    /// a pinned tuner ([`tune::init`]).
    pub auto_tune: bool,
    /// Run σ/map expressions on the bytecode VM where eligible (the
    /// default); off keeps the kernels and the walker fallback on the
    /// AST walker. Both settings give the same answers.
    pub vm: bool,
    /// In-place re-runs of a faulted task or fixpoint round (default 2).
    /// Zero also turns off the pool's requeue, so a fault degrades the
    /// route to the walker at once.
    pub retry: RetryPolicy,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            workers: 1,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            auto_tune: true,
            vm: true,
            retry: RetryPolicy::default(),
        }
    }
}

impl ExecConfig {
    /// Serial configuration (one worker).
    pub fn serial() -> ExecConfig {
        ExecConfig::default()
    }

    /// Set the worker count (builder style). Zero is clamped to one.
    pub fn with_workers(mut self, workers: usize) -> ExecConfig {
        self.workers = workers.max(1);
        self
    }

    /// Set the morsel size (builder style) and **pin** it — an explicit
    /// size turns the auto-tuner off for this config. Zero is clamped to
    /// one.
    pub fn with_morsel_rows(mut self, rows: usize) -> ExecConfig {
        self.morsel_rows = rows.max(1);
        self.auto_tune = false;
        self
    }

    /// Turn the bytecode VM on or off (builder style).
    pub fn with_vm(mut self, on: bool) -> ExecConfig {
        self.vm = on;
        self
    }

    /// The morsel size kernels actually chunk with right now: the global
    /// tuner's current size when auto-tuning, the configured size
    /// otherwise.
    pub fn effective_morsel_rows(&self) -> usize {
        if self.auto_tune {
            tune::tuner().rows()
        } else {
            self.morsel_rows
        }
    }
}

/// Which path [`eval_query`] took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecRoute {
    /// The gate certified the query; it ran on the morsel executor
    /// (inline when `workers` is 1).
    Parallel {
        /// Worker count requested.
        workers: usize,
        /// Rendering of the genericity certificate.
        certificate: String,
    },
    /// The gate refused; the algebra walker ran instead (recorded as an
    /// `exec.fallback` obs event).
    Fallback {
        /// The offending operator.
        op: &'static str,
        /// Why it cannot be partitioned.
        reason: &'static str,
    },
}

/// Parallel evaluation of physical plans — an extension trait because
/// `genpar-exec` sits above `genpar-engine` in the crate graph.
pub trait EvalParallel {
    /// Evaluate against a catalog on `cfg.workers` threads (inline at
    /// one), producing canonically-ordered deduplicated rows and summed
    /// work counters. Identical at every worker count by construction:
    /// deterministic hash partitioning + canonical merge.
    fn eval_parallel(
        &self,
        catalog: &Catalog,
        cfg: &ExecConfig,
    ) -> Result<(Vec<Vec<Value>>, ExecStats), ExecError>;
}

impl EvalParallel for PhysicalPlan {
    fn eval_parallel(
        &self,
        catalog: &Catalog,
        cfg: &ExecConfig,
    ) -> Result<(Vec<Vec<Value>>, ExecStats), ExecError> {
        eval_plan_parallel(self, catalog, cfg, None)
    }
}

/// [`EvalParallel::eval_parallel`] with the gate's certificate rendering
/// when the caller ran the gate ([`eval_query`] does) — the kernels
/// attach it to every compiled expression program.
fn eval_plan_parallel(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    cfg: &ExecConfig,
    cert: Option<&str>,
) -> Result<(Vec<Vec<Value>>, ExecStats), ExecError> {
    // a run is a fresh query on the timeline; pool workers
    // stamp the same id on every span they record for it. When an
    // obs scope is active (a served request), reuse its query id so
    // timeline records and the scope stay keyed together instead of
    // forking the numbering.
    match genpar_obs::scope::current().map(|s| s.query_id()) {
        Some(id) if id != 0 => genpar_obs::timeline::set_current_query(id),
        _ => {
            let _ = genpar_obs::timeline::begin_query();
        }
    }
    let mut sp = genpar_obs::span("exec.parallel");
    sp.field("workers", cfg.workers as u64);
    sp.field("morsel_rows", cfg.effective_morsel_rows() as u64);
    let (rows, stats) = on_executor(cfg, cert, |ctx, stats| {
        let rows = run_plan(plan, catalog, ctx, stats)?;
        stats.rows_out = rows.len() as u64;
        Ok(rows)
    })?;
    sp.field("rows_out", stats.rows_out);
    Ok((rows, stats))
}

/// One executor run, set up and torn down the same way on every route:
/// the armed meter and the run's [`Ctx`], a panic boundary around
/// `body`, the whole run's partial stats on a budget breach
/// ([`with_partial`]) and, on success, its counters folded into obs
/// ([`record_run`]). `body` adds its work to the stats, `rows_out`
/// included.
pub(crate) fn on_executor<T>(
    cfg: &ExecConfig,
    cert: Option<&str>,
    body: impl FnOnce(&Ctx, &mut ExecStats) -> Result<T, ExecError>,
) -> Result<(T, ExecStats), ExecError> {
    let meter = genpar_guard::armed_meter();
    let ctx = Ctx {
        cfg,
        meter: meter.as_deref(),
        cert,
    };
    let mut stats = ExecStats::default();
    let out = genpar_guard::catch_panics(|| body(&ctx, &mut stats))
        .map_err(ExecError::Internal)?
        .map_err(|e| with_partial(e, &stats))?;
    record_run(&stats);
    Ok((out, stats))
}

/// A budget breach reports the work of the whole run so far: the
/// counters of the plan nodes that finished, plus whatever the breaching
/// site reported for its own node.
pub(crate) fn with_partial(e: ExecError, done: &ExecStats) -> ExecError {
    match e {
        ExecError::Budget {
            resource,
            limit,
            used,
            op,
            mut partial,
        } => {
            kernels::add_stats(&mut partial, done);
            ExecError::Budget {
                resource,
                limit,
                used,
                op,
                partial,
            }
        }
        other => other,
    }
}

/// Fold one finished run's work counters into the `exec.*` obs counters.
pub(crate) fn record_run(stats: &ExecStats) {
    genpar_obs::counter("exec.executions", 1);
    genpar_obs::counter("exec.rows_scanned", stats.rows_scanned);
    genpar_obs::counter("exec.rows_processed", stats.rows_processed);
    genpar_obs::counter("exec.cells_processed", stats.cells_processed);
    genpar_obs::counter("exec.rows_out", stats.rows_out);
    genpar_obs::counter("exec.probes", stats.probes);
}

pub(crate) fn run_plan(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    ctx: &Ctx,
    stats: &mut ExecStats,
) -> Result<Rows, ExecError> {
    traced(plan, || match plan {
        PhysicalPlan::Scan(name) => {
            let t = catalog
                .get(name)
                .ok_or_else(|| ExecError::UnknownTable(name.clone()))?;
            stats.rows_scanned += t.len() as u64;
            charge_source(ctx, t.len() as u64, plan.op_name())?;
            Ok((t.len() as u64, t.rows().cloned().collect()))
        }
        PhysicalPlan::Values(rows) => {
            stats.rows_scanned += rows.len() as u64;
            charge_source(ctx, rows.len() as u64, plan.op_name())?;
            Ok((
                rows.len() as u64,
                genpar_value::canonical_rows(rows.iter().cloned()),
            ))
        }
        _ => {
            let inputs = children(plan)
                .into_iter()
                .map(|c| run_plan(c, catalog, ctx, stats).map(Cow::Owned))
                .collect::<Result<Vec<_>, ExecError>>()?;
            apply_op(plan, inputs, ctx, stats)
        }
    })
}

/// A node's inputs, left to right.
pub(crate) fn children(plan: &PhysicalPlan) -> Vec<&PhysicalPlan> {
    match plan {
        PhysicalPlan::Scan(_) | PhysicalPlan::Values(_) => vec![],
        PhysicalPlan::Filter(_, a) | PhysicalPlan::Project(_, a) | PhysicalPlan::MapRows(_, a) => {
            vec![a]
        }
        PhysicalPlan::HashJoin(_, a, b)
        | PhysicalPlan::Product(a, b)
        | PhysicalPlan::Union(a, b)
        | PhysicalPlan::Intersect(a, b)
        | PhysicalPlan::Difference(a, b) => vec![a, b],
    }
}

/// Run an interior node's kernel over its evaluated inputs (in
/// [`children`] order), adding its work to `stats`. Returns the rows in
/// and the rows out. Kernels borrow their inputs; a join indexes its
/// right input, which it takes whole (copied only when borrowed).
pub(crate) fn apply_op(
    plan: &PhysicalPlan,
    inputs: Vec<Cow<'_, Rows>>,
    ctx: &Ctx,
    stats: &mut ExecStats,
) -> Result<(u64, Rows), ExecError> {
    let rows_in = inputs.iter().map(|r| r.len() as u64).sum();
    let mut inputs = inputs.into_iter();
    let mut input = || {
        inputs
            .next()
            .ok_or_else(|| ExecError::Internal(format!("{} lacks an input", plan.op_name())))
    };
    let (rows, s) = match plan {
        PhysicalPlan::Filter(p, _) => kernels::par_filter(&input()?, p, ctx)?,
        PhysicalPlan::Project(cols, _) => kernels::par_project(&input()?, cols, ctx)?,
        PhysicalPlan::MapRows(f, _) => kernels::par_map(&input()?, f, ctx)?,
        PhysicalPlan::HashJoin(on, ..) => {
            let l = input()?;
            kernels::hash_join(&l, input()?.into_owned(), on, ctx)?
        }
        PhysicalPlan::Product(..) => {
            kernels::par_product(&input()?, &input()?, ctx, "plan.Product")?
        }
        PhysicalPlan::Union(..) => kernels::par_setop(&input()?, &input()?, SetOp::Union, ctx)?,
        PhysicalPlan::Intersect(..) => {
            kernels::par_setop(&input()?, &input()?, SetOp::Intersect, ctx)?
        }
        PhysicalPlan::Difference(..) => {
            kernels::par_setop(&input()?, &input()?, SetOp::Difference, ctx)?
        }
        PhysicalPlan::Scan(_) | PhysicalPlan::Values(_) => {
            return Err(ExecError::Internal(format!(
                "{} is a source, not a kernel",
                plan.op_name()
            )))
        }
    };
    kernels::add_stats(stats, &s);
    Ok((rows_in, rows))
}

/// One plan node's obs trail around `body`, which returns the node's
/// rows in and rows out: a span named for the operator, and a
/// `plan.node_stats` event keyed by the structural fingerprint, which
/// feeds the observed-statistics loop (the optimizer harvests
/// selectivity from these).
pub(crate) fn traced(
    plan: &PhysicalPlan,
    body: impl FnOnce() -> Result<(u64, Rows), ExecError>,
) -> Result<Rows, ExecError> {
    let op = plan.op_name();
    let mut sp = genpar_obs::span(op);
    let (rows_in, out) = body()?;
    sp.field("rows_in", rows_in);
    sp.field("rows_out", out.len() as u64);
    if genpar_obs::enabled() {
        genpar_obs::event(
            "plan.node_stats",
            [
                ("fp", FieldValue::U64(plan.fingerprint())),
                ("op", FieldValue::Str(op.to_string())),
                ("rows_in", FieldValue::U64(rows_in)),
                ("rows_out", FieldValue::U64(out.len() as u64)),
            ],
        );
    }
    Ok(out)
}

/// Source-node budget charges (scans and constant relations produce rows
/// without passing through a kernel merge). The breach's partial stats
/// are filled in by the route ([`with_partial`]).
pub(crate) fn charge_source(ctx: &Ctx, rows: u64, op: &'static str) -> Result<(), ExecError> {
    if let Some(m) = ctx.meter {
        m.charge_steps(1, op).map_err(breach_to_exec)?;
        m.charge_rows(rows, op).map_err(breach_to_exec)?;
    }
    Ok(())
}

/// Build an algebra database mirroring a catalog (for the walker
/// fallback path), with the standard integer signature and the VM on.
pub fn db_from_catalog(catalog: &Catalog) -> Db {
    let mut db = Db::with_standard_int();
    for t in catalog.tables() {
        db.set(t.name.clone(), t.to_value());
    }
    db
}

fn eval_to_exec(e: genpar_algebra::EvalError) -> ExecError {
    match e {
        genpar_algebra::EvalError::BudgetExceeded {
            resource,
            limit,
            used,
            op,
            ..
        } => ExecError::Budget {
            resource,
            limit,
            used,
            op,
            partial: ExecStats::default(),
        },
        genpar_algebra::EvalError::Fault(msg) => ExecError::Fault(msg),
        genpar_algebra::EvalError::Domain(d) => ExecError::Domain(d),
        other => ExecError::Eval(other.to_string()),
    }
}

/// Evaluate a query with the partition-safety gate in the loop, at any
/// worker count (one worker runs the same routes inline).
///
/// * Gate says **safe** — lower and run on the morsel executor; the
///   genericity certificate rides along in [`ExecRoute::Parallel`].
///   A root fixpoint or aggregate takes its per-round or combiner route.
/// * Gate says **unsafe** (or the plan will not lower) — run the algebra
///   walker, bump the `exec.fallbacks` counter and record an
///   `exec.fallback` obs event naming the operator and reason.
///
/// In every route the result is the same [`Value`].
pub fn eval_query(
    q: &Query,
    catalog: &Catalog,
    cfg: &ExecConfig,
) -> Result<(Value, ExecStats, ExecRoute), ExecError> {
    eval_verdict(q, partition_safety(q), catalog, cfg)
}

/// [`eval_query`] for a caller that already holds the gate's verdict on
/// `q`, so the gate runs once per query.
pub fn eval_verdict(
    q: &Query,
    verdict: PartitionSafety,
    catalog: &Catalog,
    cfg: &ExecConfig,
) -> Result<(Value, ExecStats, ExecRoute), ExecError> {
    // each executor route, and the walker fallback its faults degrade to
    let (ran, op, degraded) = match verdict {
        PartitionSafety::Safe(cert) => {
            let Some(plan) = lower(q) else {
                return fallback(q, catalog, cfg, "lit", "literal rows are not flat tuples");
            };
            let certificate = cert.to_string();
            let ran = eval_plan_parallel(&plan, catalog, cfg, Some(&certificate))
                .map(|(rows, stats)| (genpar_value::rows_to_value(rows), stats, certificate));
            let reason = "recovery ladder exhausted: degraded to the serial interpreter";
            (ran, "exec", reason)
        }
        PartitionSafety::FixpointRoundSafe { body_cert } => {
            let Query::Fixpoint { var, init, step } = q else {
                return Err(ExecError::Internal(
                    "fixpoint route on a non-fixpoint query".to_string(),
                ));
            };
            let Some(init) = lower(init) else {
                let reason = "fixpoint seed does not lower to the row engine";
                return fallback(q, catalog, cfg, "fix", reason);
            };
            let Some(body) = lower(step) else {
                let reason = "fixpoint body does not lower to the row engine";
                return fallback(q, catalog, cfg, "fix", reason);
            };
            let ran = fixpoint::run_fixpoint_route(var, &init, &body, catalog, cfg, &body_cert);
            let reason = "injected fault in a fixpoint round: degraded to the serial interpreter";
            (ran, "fix", reason)
        }
        PartitionSafety::Combiner { op, cert } => {
            let (kind, inner) = match q {
                Query::Even(inner) => (CombineKind::Parity, inner),
                Query::Count(inner) => (CombineKind::Count, inner),
                Query::Sum(col, inner) => (CombineKind::Sum(*col), inner),
                _ => {
                    return Err(ExecError::Internal(
                        "combiner route on a non-aggregate query".to_string(),
                    ))
                }
            };
            let Some(plan) = lower(inner) else {
                let reason = "aggregate input does not lower to the row engine";
                return fallback(q, catalog, cfg, op, reason);
            };
            let certificate = format!(
                "combiner `{op}`: partition-local accumulators + serial combine; input {cert}"
            );
            let ran = run_combiner_route(&plan, kind, catalog, cfg, &cert.to_string())
                .map(|(v, stats)| (v, stats, certificate));
            let reason = "injected fault in the combiner: degraded to the serial interpreter";
            (ran, op, reason)
        }
        PartitionSafety::Unsafe { op, reason } => return fallback(q, catalog, cfg, op, reason),
    };
    match ran {
        Ok((value, stats, certificate)) => Ok((
            value,
            stats,
            ExecRoute::Parallel {
                workers: cfg.workers,
                certificate,
            },
        )),
        // the ladder's last rung: the retries, requeue and quarantine
        // could not ride out a fault, so the whole query degrades to the
        // serial interpreter — a correct answer, never a wrong one
        Err(e) if e.is_transient() => {
            note_degrade("serial");
            fallback(q, catalog, cfg, op, degraded)
        }
        // an ill-typed application fails on whichever morsel reaches it
        // first; the walker names the first offending element in
        // canonical order, so every route reports its error
        Err(ExecError::Domain(first)) => {
            let db = db_from_catalog(catalog).with_vm(cfg.vm);
            match eval(q, &db) {
                Err(e) => Err(eval_to_exec(e)),
                Ok(_) => Err(ExecError::Domain(first)),
            }
        }
        Err(e) => Err(e),
    }
}

/// A guard breach as an exec error; the route fills in the partial
/// stats ([`with_partial`]).
pub(crate) fn breach_to_exec(b: genpar_guard::BudgetBreach) -> ExecError {
    ExecError::Budget {
        resource: b.resource,
        limit: b.limit,
        used: b.used,
        op: b.op,
        partial: ExecStats::default(),
    }
}

/// The combiner route: evaluate the (certified distributive) aggregate
/// input on the parallel executor, then fold partition-local
/// accumulators serially ([`kernels::par_combine`]).
fn run_combiner_route(
    plan: &PhysicalPlan,
    kind: CombineKind,
    catalog: &Catalog,
    cfg: &ExecConfig,
    cert: &str,
) -> Result<(Value, ExecStats), ExecError> {
    let mut sp = genpar_obs::span("exec.parallel");
    sp.field("workers", cfg.workers as u64);
    sp.field("morsel_rows", cfg.effective_morsel_rows() as u64);
    let (total, stats) = on_executor(cfg, Some(cert), |ctx, stats| {
        let rows = run_plan(plan, catalog, ctx, stats)?;
        let (total, s) = kernels::par_combine(&rows, kind, ctx)?;
        kernels::add_stats(stats, &s);
        stats.rows_out = 1;
        Ok(total)
    })?;
    let value = match kind {
        CombineKind::Parity => Value::Bool(total % 2 == 0),
        CombineKind::Count | CombineKind::Sum(_) => Value::Int(total),
    };
    Ok((value, stats))
}

/// Record a serial-fallback decision in the obs registry: the
/// `exec.fallbacks` counter plus an `exec.fallback` event naming the
/// operator and reason. Public so CLI surfaces that bypass
/// [`eval_query`] (to keep their own serial semantics) report fallbacks
/// identically.
pub fn note_fallback(op: &str, reason: &str) {
    genpar_obs::counter("exec.fallbacks", 1);
    genpar_obs::event(
        "exec.fallback",
        [
            ("op", FieldValue::from(op.to_string())),
            ("reason", FieldValue::from(reason.to_string())),
            ("mode", FieldValue::from("serial")),
        ],
    );
}

pub(crate) fn fallback(
    q: &Query,
    catalog: &Catalog,
    cfg: &ExecConfig,
    op: &'static str,
    reason: &'static str,
) -> Result<(Value, ExecStats, ExecRoute), ExecError> {
    note_fallback(op, reason);
    let _sp = genpar_obs::span("exec.fallback");
    let db = db_from_catalog(catalog).with_vm(cfg.vm);
    let v = eval(q, &db).map_err(eval_to_exec)?;
    Ok((v, ExecStats::default(), ExecRoute::Fallback { op, reason }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders_clamp() {
        let c = ExecConfig::serial().with_workers(0).with_morsel_rows(0);
        assert_eq!(c.workers, 1);
        assert_eq!(c.morsel_rows, 1);
        assert_eq!(ExecConfig::default().morsel_rows, DEFAULT_MORSEL_ROWS);
    }
}
