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
//! Pipeline per operator: chunk or hash-partition the input
//! ([`morsel`]), fan tasks out on a work-stealing worker pool
//! ([`pool`]), run the parallel kernel ([`kernels`]), canonically merge.
//! The run charges one shared atomic budget meter
//! ([`genpar_guard::SharedMeter`]) bridged from whatever
//! [`genpar_guard::ExecBudget`] is armed on the calling thread, passes
//! the deterministic fault sites `exec.morsel` and `exec.merge`, and
//! records `exec.*` spans and counters in the `genpar-obs` registry.
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
//! Worker count comes from [`ExecConfig`]: explicit, or the
//! `GENPAR_PARALLEL` environment variable via [`ExecConfig::from_env`].

mod fixpoint;
pub mod kernels;
pub mod morsel;
pub mod pool;
pub mod tune;

use genpar_algebra::{eval::eval, Db, Query};
use genpar_core::{partition_safety, PartitionSafety, SafetyCert};
use genpar_engine::plan::{lower, ExecError, ExecStats, PhysicalPlan};
use genpar_engine::schema::Catalog;
use genpar_guard::SharedMeter;
use genpar_obs::FieldValue;
use genpar_value::Value;
use kernels::{Ctx, Rows, SetOp};

pub use kernels::CombineKind;

pub use morsel::DEFAULT_MORSEL_ROWS;

/// Environment variable naming the default worker count.
pub const PARALLEL_ENV: &str = "GENPAR_PARALLEL";

/// In-place retries per failed task, when the recovery ladder should arm
/// for this run; `None` keeps the plain first-error-cancels pool (and
/// its zero-copy task hand-off).
///
/// Recovery requires holding every morsel recoverable (a clone per
/// task), so it arms only when re-running a failed task can actually
/// happen or help: fault injection is armed (every `Fault` is a
/// deterministic per-hit blip that a re-run rides out), or the operator
/// set `GENPAR_RETRY` explicitly — an opt-in to panic resilience at
/// clone cost on the clean path. `GENPAR_RETRY=0` disables the in-place
/// rung entirely, restoring the pre-ladder all-or-nothing behaviour.
pub(crate) fn recovery_retries() -> Option<u32> {
    let policy = genpar_guard::RetryPolicy::from_env_lossy();
    if policy.max_retries == 0 {
        return None;
    }
    let explicit = std::env::var(genpar_guard::RETRY_ENV).is_ok();
    if genpar_guard::fault::faults_armed() || explicit {
        Some(policy.max_retries)
    } else {
        None
    }
}

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
    /// `GENPAR_MORSEL=fixed:N` (via the tuner itself).
    pub auto_tune: bool,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            workers: 1,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            auto_tune: true,
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

    /// Configuration from the environment: `GENPAR_PARALLEL=N` sets the
    /// worker count (unset, empty or unparsable means serial).
    pub fn from_env() -> ExecConfig {
        let workers = std::env::var(PARALLEL_ENV)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(1);
        ExecConfig::default().with_workers(workers)
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
    let meter = SharedMeter::from_armed();
    let ctx = Ctx {
        cfg,
        meter: meter.as_deref(),
        cert,
    };
    let mut stats = ExecStats::default();
    let rows = genpar_guard::catch_panics(|| run_plan(plan, catalog, &ctx, &mut stats))
        .map_err(ExecError::Internal)?
        .map_err(|e| with_partial(e, &stats))?;
    stats.rows_out = rows.len() as u64;
    record_run(&stats);
    sp.field("rows_out", stats.rows_out);
    Ok((rows, stats))
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
                .map(|c| run_plan(c, catalog, ctx, stats))
                .collect::<Result<Vec<Rows>, ExecError>>()?;
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
/// and the rows out.
pub(crate) fn apply_op(
    plan: &PhysicalPlan,
    inputs: Vec<Rows>,
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
        PhysicalPlan::Filter(p, _) => kernels::par_filter(input()?, p, ctx)?,
        PhysicalPlan::Project(cols, _) => kernels::par_project(input()?, cols, ctx)?,
        PhysicalPlan::MapRows(f, _) => kernels::par_map(input()?, f, ctx)?,
        PhysicalPlan::HashJoin(on, ..) => kernels::par_join(input()?, input()?, on, ctx)?,
        PhysicalPlan::Product(..) => kernels::par_product(input()?, input()?, ctx, "plan.Product")?,
        PhysicalPlan::Union(..) => kernels::par_setop(input()?, input()?, SetOp::Union, ctx)?,
        PhysicalPlan::Intersect(..) => {
            kernels::par_setop(input()?, input()?, SetOp::Intersect, ctx)?
        }
        PhysicalPlan::Difference(..) => {
            kernels::par_setop(input()?, input()?, SetOp::Difference, ctx)?
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
/// fallback path), with the standard integer signature.
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
    match verdict {
        PartitionSafety::Safe(cert) => match lower(q) {
            Some(plan) => {
                let certificate = cert.to_string();
                match eval_plan_parallel(&plan, catalog, cfg, Some(&certificate)) {
                    Ok((rows, stats)) => Ok((
                        genpar_value::rows_to_value(rows),
                        stats,
                        ExecRoute::Parallel {
                            workers: cfg.workers,
                            certificate,
                        },
                    )),
                    // the ladder's last rung: retries and quarantine are
                    // exhausted, so the whole query degrades to the serial
                    // interpreter — a correct answer, never a wrong one
                    Err(ExecError::Fault(_)) => {
                        note_degrade("serial");
                        fallback(
                            q,
                            catalog,
                            "exec",
                            "recovery ladder exhausted: degraded to the serial interpreter",
                        )
                    }
                    Err(e) => Err(e),
                }
            }
            None => fallback(q, catalog, "lit", "literal rows are not flat tuples"),
        },
        PartitionSafety::FixpointRoundSafe { body_cert } => {
            fixpoint::run_fixpoint_route(q, catalog, cfg, &body_cert)
        }
        PartitionSafety::Combiner { op, cert } => run_combiner_route(q, catalog, cfg, op, &cert),
        PartitionSafety::Unsafe { op, reason } => fallback(q, catalog, op, reason),
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
/// accumulators serially ([`kernels::par_combine`]). An injected fault
/// at any site inside the route degrades to the serial interpreter.
fn run_combiner_route(
    q: &Query,
    catalog: &Catalog,
    cfg: &ExecConfig,
    agg: &'static str,
    cert: &SafetyCert,
) -> Result<(Value, ExecStats, ExecRoute), ExecError> {
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
        return fallback(
            q,
            catalog,
            agg,
            "aggregate input does not lower to the row engine",
        );
    };
    let mut sp = genpar_obs::span("exec.parallel");
    sp.field("workers", cfg.workers as u64);
    sp.field("morsel_rows", cfg.effective_morsel_rows() as u64);
    let meter = SharedMeter::from_armed();
    let cert_s = cert.to_string();
    let ctx = Ctx {
        cfg,
        meter: meter.as_deref(),
        cert: Some(&cert_s),
    };
    let mut stats = ExecStats::default();
    let result = genpar_guard::catch_panics(|| {
        let rows = run_plan(&plan, catalog, &ctx, &mut stats)?;
        kernels::par_combine(rows, kind, &ctx)
    })
    .map_err(ExecError::Internal)?;
    match result {
        Ok((total, s)) => {
            kernels::add_stats(&mut stats, &s);
            stats.rows_out = 1;
            record_run(&stats);
            let value = match kind {
                CombineKind::Parity => Value::Bool(total % 2 == 0),
                CombineKind::Count | CombineKind::Sum(_) => Value::Int(total),
            };
            let certificate = format!(
                "combiner `{agg}`: partition-local accumulators + serial combine; input {cert}"
            );
            Ok((
                value,
                stats,
                ExecRoute::Parallel {
                    workers: cfg.workers,
                    certificate,
                },
            ))
        }
        Err(ExecError::Fault(_)) => {
            note_degrade("serial");
            fallback(
                q,
                catalog,
                agg,
                "injected fault in the combiner: degraded to the serial interpreter",
            )
        }
        Err(e) => Err(with_partial(e, &stats)),
    }
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
    op: &'static str,
    reason: &'static str,
) -> Result<(Value, ExecStats, ExecRoute), ExecError> {
    note_fallback(op, reason);
    let _sp = genpar_obs::span("exec.fallback");
    let db = db_from_catalog(catalog);
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

    #[test]
    fn config_from_env_parses_and_defaults() {
        // set/unset around the calls; no other test in this binary reads
        // the variable
        std::env::set_var(PARALLEL_ENV, "6");
        assert_eq!(ExecConfig::from_env().workers, 6);
        std::env::set_var(PARALLEL_ENV, "not-a-number");
        assert_eq!(ExecConfig::from_env().workers, 1);
        std::env::remove_var(PARALLEL_ENV);
        assert_eq!(ExecConfig::from_env().workers, 1);
    }
}
