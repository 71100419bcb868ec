//! Execution budgets: per-thread resource governors checked at operator
//! boundaries.
//!
//! A [`ExecBudget`] is armed for the current thread with
//! [`ExecBudget::enter`]; while the returned [`BudgetScope`] lives, the
//! `charge_*` free functions meter work against it and return a
//! [`BudgetBreach`] once a cap is crossed. With no budget armed anywhere
//! in the process, every charge is one relaxed atomic load.

use crate::shared::SharedMeter;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of live [`BudgetScope`]s across all threads. Zero means every
/// `charge_*` call returns after one relaxed load.
static ARMED_SCOPES: AtomicUsize = AtomicUsize::new(0);

/// Number of live [`SharedBudgetScope`]s across all threads (tenant
/// quota pools armed by a resident server; see [`enter_shared`]).
static SHARED_SCOPES: AtomicUsize = AtomicUsize::new(0);

/// Process-wide count of *any* armed guard scope — thread-local budget,
/// shared meter, or wall deadline. Every `charge_*` fast path is exactly
/// one relaxed load of this counter; the per-kind checks only run when
/// it is nonzero, keeping the disarmed cost identical to pre-wall
/// builds.
pub(crate) static ACTIVE_GUARDS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ACTIVE: RefCell<Option<Meter>> = const { RefCell::new(None) };
    /// The shared meter armed on this thread by [`enter_shared`].
    static ACTIVE_SHARED: RefCell<Option<Arc<SharedMeter>>> = const { RefCell::new(None) };
}

/// Which budgeted resource a charge draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// Rows materialized by a single operator.
    Rows,
    /// Cells (row × width units) processed in total.
    Cells,
    /// Operator-evaluation steps (the no-wall-clock deadline).
    Steps,
    /// Fixpoint / recursion iterations.
    Depth,
    /// Elements under a `powerset`.
    Powerset,
    /// Wall-clock milliseconds (the `--timeout` deadline; see
    /// [`crate::wall`]).
    Wall,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Resource::Rows => "rows",
            Resource::Cells => "cells",
            Resource::Steps => "steps",
            Resource::Depth => "depth",
            Resource::Powerset => "powerset",
            Resource::Wall => "wall_ms",
        };
        write!(f, "{s}")
    }
}

/// Caps on the work one query evaluation may perform.
///
/// All limits are inclusive: evaluation fails once usage *exceeds* the
/// cap. `Default` gives finite, generous production caps; use
/// [`ExecBudget::unlimited`] to disable everything except the powerset
/// cap (which always defaults to [`ExecBudget::DEFAULT_POWERSET_CAP`]
/// even when no budget is armed — ℘ of 30 elements is a 2³⁰-element
/// answer regardless of anyone's intent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecBudget {
    /// Max rows a single operator may materialize.
    pub max_rows: u64,
    /// Max total cells processed.
    pub max_cells: u64,
    /// Max fixpoint / recursion depth.
    pub max_depth: u64,
    /// Max total evaluation steps (deadline; no wall clock).
    pub max_steps: u64,
    /// Max input-set size for `powerset`.
    pub max_powerset: usize,
}

impl ExecBudget {
    /// The powerset cap applied even when no budget is armed.
    pub const DEFAULT_POWERSET_CAP: usize = 20;

    /// No limits (the powerset cap becomes effectively unbounded too —
    /// only for tests that genuinely want the full expansion).
    pub fn unlimited() -> ExecBudget {
        ExecBudget {
            max_rows: u64::MAX,
            max_cells: u64::MAX,
            max_depth: u64::MAX,
            max_steps: u64::MAX,
            max_powerset: usize::MAX,
        }
    }

    /// Builder: cap rows materialized per operator.
    pub fn with_max_rows(mut self, n: u64) -> ExecBudget {
        self.max_rows = n;
        self
    }

    /// Builder: cap total cells processed.
    pub fn with_max_cells(mut self, n: u64) -> ExecBudget {
        self.max_cells = n;
        self
    }

    /// Builder: cap fixpoint/recursion depth.
    pub fn with_max_depth(mut self, n: u64) -> ExecBudget {
        self.max_depth = n;
        self
    }

    /// Builder: cap total evaluation steps.
    pub fn with_max_steps(mut self, n: u64) -> ExecBudget {
        self.max_steps = n;
        self
    }

    /// Builder: cap the input size of `powerset`.
    pub fn with_max_powerset(mut self, n: usize) -> ExecBudget {
        self.max_powerset = n;
        self
    }

    /// Parse a `key=value[,key=value...]` budget spec (the `GENPAR_BUDGET`
    /// environment grammar). Keys: `rows`, `cells`, `steps`, `depth`,
    /// `powerset`. Unmentioned resources keep their [`Default`] caps.
    pub fn parse(spec: &str) -> Result<ExecBudget, String> {
        let mut b = ExecBudget::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let Some((key, val)) = part.split_once('=') else {
                return Err(format!(
                    "missing '=' in {part:?} (want key=value, keys: rows|cells|steps|depth|powerset)"
                ));
            };
            let n: u64 = val
                .trim()
                .parse()
                .map_err(|_| format!("bad value {:?} for {}", val.trim(), key.trim()))?;
            match key.trim() {
                "rows" => b.max_rows = n,
                "cells" => b.max_cells = n,
                "steps" => b.max_steps = n,
                "depth" => b.max_depth = n,
                "powerset" => b.max_powerset = n as usize,
                other => {
                    return Err(format!(
                        "unknown budget key {other:?} (rows|cells|steps|depth|powerset)"
                    ))
                }
            }
        }
        Ok(b)
    }

    /// Arm this budget for the current thread until the returned scope is
    /// dropped. Scopes nest; the innermost budget governs.
    #[must_use = "the budget is disarmed when the scope drops"]
    pub fn enter(self) -> BudgetScope {
        let prev = ACTIVE.with(|a| {
            a.borrow_mut().replace(Meter {
                budget: self,
                cells: 0,
                steps: 0,
            })
        });
        ARMED_SCOPES.fetch_add(1, Ordering::Relaxed);
        ACTIVE_GUARDS.fetch_add(1, Ordering::Relaxed);
        BudgetScope { prev }
    }
}

impl Default for ExecBudget {
    fn default() -> ExecBudget {
        ExecBudget {
            max_rows: 1_000_000,
            max_cells: 50_000_000,
            max_depth: 100_000,
            max_steps: 10_000_000,
            max_powerset: Self::DEFAULT_POWERSET_CAP,
        }
    }
}

/// RAII scope keeping a budget armed on the current thread.
pub struct BudgetScope {
    prev: Option<Meter>,
}

impl Drop for BudgetScope {
    fn drop(&mut self) {
        ARMED_SCOPES.fetch_sub(1, Ordering::Relaxed);
        ACTIVE_GUARDS.fetch_sub(1, Ordering::Relaxed);
        ACTIVE.with(|a| *a.borrow_mut() = self.prev.take());
    }
}

/// Arm a long-lived [`SharedMeter`] — a tenant's cumulative quota pool —
/// for the current thread until the returned scope drops. While armed,
/// the `charge_*` free functions draw from the shared meter (in addition
/// to any thread-scoped budget), so serial evaluation on a server
/// session thread drains the same pool as the parallel workers, and
/// [`SharedMeter::from_armed`] layers a per-request meter on top of it.
/// Scopes nest; the innermost meter governs.
#[must_use = "the shared meter is disarmed when the scope drops"]
pub fn enter_shared(meter: Arc<SharedMeter>) -> SharedBudgetScope {
    let prev = ACTIVE_SHARED.with(|a| a.borrow_mut().replace(meter));
    SHARED_SCOPES.fetch_add(1, Ordering::Relaxed);
    ACTIVE_GUARDS.fetch_add(1, Ordering::Relaxed);
    SharedBudgetScope { prev }
}

/// RAII scope keeping a shared meter armed on the current thread.
pub struct SharedBudgetScope {
    prev: Option<Arc<SharedMeter>>,
}

impl Drop for SharedBudgetScope {
    fn drop(&mut self) {
        SHARED_SCOPES.fetch_sub(1, Ordering::Relaxed);
        ACTIVE_GUARDS.fetch_sub(1, Ordering::Relaxed);
        ACTIVE_SHARED.with(|a| *a.borrow_mut() = self.prev.take());
    }
}

/// The shared meter armed on the current thread, if any. One relaxed
/// load when no shared scope exists anywhere in the process.
pub(crate) fn active_shared() -> Option<Arc<SharedMeter>> {
    if SHARED_SCOPES.load(Ordering::Relaxed) == 0 {
        return None;
    }
    ACTIVE_SHARED.with(|a| a.borrow().clone())
}

/// Usage accumulated against an armed budget.
#[derive(Debug, Clone, Copy)]
struct Meter {
    budget: ExecBudget,
    cells: u64,
    steps: u64,
}

/// A budget cap was crossed.
///
/// Carries everything a structured error needs: which resource, the cap,
/// the observed usage, and the operator that crossed the line. The
/// evaluators wrap this in their own error types together with
/// partial-progress stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetBreach {
    /// The exhausted resource.
    pub resource: Resource,
    /// The configured cap.
    pub limit: u64,
    /// Usage at the moment of the breach.
    pub used: u64,
    /// The operator charging when the cap was crossed.
    pub op: &'static str,
}

impl fmt::Display for BudgetBreach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "budget exceeded: {} limit {} (used {}) at {}",
            self.resource, self.limit, self.used, self.op
        )
    }
}

impl std::error::Error for BudgetBreach {}

/// Record a breach into obs (counter + event) and build the error. Shared
/// with the atomic [`crate::shared::SharedMeter`] so both metering styles
/// report identically.
pub(crate) fn record_breach(
    resource: Resource,
    limit: u64,
    used: u64,
    op: &'static str,
) -> BudgetBreach {
    genpar_obs::counter("guard.budget_breaches", 1);
    genpar_obs::event(
        "guard.budget_exceeded",
        [
            (
                "resource",
                genpar_obs::FieldValue::from(resource.to_string()),
            ),
            ("limit", genpar_obs::FieldValue::U64(limit)),
            ("used", genpar_obs::FieldValue::U64(used)),
            ("op", genpar_obs::FieldValue::from(op)),
        ],
    );
    BudgetBreach {
        resource,
        limit,
        used,
        op,
    }
}

#[inline]
fn with_meter(f: impl FnOnce(&mut Meter) -> Result<(), BudgetBreach>) -> Result<(), BudgetBreach> {
    ACTIVE.with(|a| match a.borrow_mut().as_mut() {
        Some(m) => f(m),
        None => Ok(()),
    })
}

/// Is any budget armed on any thread? One relaxed load.
#[inline]
fn armed() -> bool {
    ARMED_SCOPES.load(Ordering::Relaxed) != 0
}

/// Any guard scope armed at all? The single-load disarmed fast path.
#[inline]
fn active() -> bool {
    ACTIVE_GUARDS.load(Ordering::Relaxed) != 0
}

/// The budget armed on the current thread by [`ExecBudget::enter`], if
/// any — excludes shared (tenant) meters, so
/// [`SharedMeter::from_armed`] can layer the two explicitly.
pub(crate) fn thread_budget() -> Option<ExecBudget> {
    if !armed() {
        return None;
    }
    ACTIVE.with(|a| a.borrow().as_ref().map(|m| m.budget))
}

/// The budget governing the current thread, if any: the thread-scoped
/// [`ExecBudget::enter`] budget when one is armed, otherwise the budget
/// of the shared meter armed by [`enter_shared`] (so depth and powerset
/// caps follow the tenant quota on server session threads).
pub fn active_budget() -> Option<ExecBudget> {
    thread_budget().or_else(|| active_shared().map(|m| m.budget()))
}

/// Charge `n` rows materialized by operator `op` (per-operator cap, not
/// cumulative: a plan may stream many small results).
#[inline]
pub fn charge_rows(n: u64, op: &'static str) -> Result<(), BudgetBreach> {
    if !active() {
        return Ok(());
    }
    match active_shared() {
        // the shared meter checks the wall (global and thread-local)
        Some(m) => m.charge_rows(n, op)?,
        None => crate::wall::check_wall(op)?,
    }
    if !armed() {
        return Ok(());
    }
    with_meter(|m| {
        if n > m.budget.max_rows {
            Err(record_breach(Resource::Rows, m.budget.max_rows, n, op))
        } else {
            Ok(())
        }
    })
}

/// Charge `n` cells processed (cumulative across the armed scope).
#[inline]
pub fn charge_cells(n: u64, op: &'static str) -> Result<(), BudgetBreach> {
    if !active() {
        return Ok(());
    }
    match active_shared() {
        Some(m) => m.charge_cells(n, op)?,
        None => crate::wall::check_wall(op)?,
    }
    if !armed() {
        return Ok(());
    }
    with_meter(|m| {
        m.cells = m.cells.saturating_add(n);
        if m.cells > m.budget.max_cells {
            Err(record_breach(
                Resource::Cells,
                m.budget.max_cells,
                m.cells,
                op,
            ))
        } else {
            Ok(())
        }
    })
}

/// Charge `n` evaluation steps (cumulative; the deadline surrogate).
#[inline]
pub fn charge_steps(n: u64, op: &'static str) -> Result<(), BudgetBreach> {
    if !active() {
        return Ok(());
    }
    match active_shared() {
        Some(m) => m.charge_steps(n, op)?,
        None => crate::wall::check_wall(op)?,
    }
    if !armed() {
        return Ok(());
    }
    with_meter(|m| {
        m.steps = m.steps.saturating_add(n);
        if m.steps > m.budget.max_steps {
            Err(record_breach(
                Resource::Steps,
                m.budget.max_steps,
                m.steps,
                op,
            ))
        } else {
            Ok(())
        }
    })
}

/// Check an iteration count against the armed depth cap. Iteration loops
/// call this with their running count rather than accumulating here, so
/// nested loops each get the full depth allowance.
#[inline]
pub fn charge_depth(depth: u64, op: &'static str) -> Result<(), BudgetBreach> {
    if !active() {
        return Ok(());
    }
    match active_shared() {
        Some(m) => m.charge_depth(depth, op)?,
        None => crate::wall::check_wall(op)?,
    }
    if !armed() {
        return Ok(());
    }
    with_meter(|m| {
        if depth > m.budget.max_depth {
            Err(record_breach(
                Resource::Depth,
                m.budget.max_depth,
                depth,
                op,
            ))
        } else {
            Ok(())
        }
    })
}

/// The fixpoint/recursion depth cap: the armed budget's `max_depth`, or
/// `u64::MAX` when nothing is armed.
pub fn depth_limit() -> u64 {
    active_budget().map_or(u64::MAX, |b| b.max_depth)
}

/// The powerset input cap: the armed budget's `max_powerset`, or
/// [`ExecBudget::DEFAULT_POWERSET_CAP`] when nothing is armed (the one
/// guard that stays on by default — ℘ is doubly exponential in intent).
pub fn powerset_cap() -> usize {
    active_budget().map_or(ExecBudget::DEFAULT_POWERSET_CAP, |b| b.max_powerset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_charges_are_free_and_ok() {
        assert!(charge_rows(u64::MAX, "t").is_ok());
        assert!(charge_cells(u64::MAX, "t").is_ok());
        assert!(charge_steps(u64::MAX, "t").is_ok());
        assert!(charge_depth(u64::MAX, "t").is_ok());
        assert_eq!(powerset_cap(), ExecBudget::DEFAULT_POWERSET_CAP);
        assert_eq!(depth_limit(), u64::MAX);
        assert!(active_budget().is_none());
    }

    #[test]
    fn rows_cap_is_per_operator() {
        let _scope = ExecBudget::unlimited().with_max_rows(10).enter();
        assert!(charge_rows(10, "a").is_ok());
        assert!(charge_rows(10, "b").is_ok()); // not cumulative
        let e = charge_rows(11, "c").unwrap_err();
        assert_eq!(e.resource, Resource::Rows);
        assert_eq!(e.limit, 10);
        assert_eq!(e.used, 11);
        assert_eq!(e.op, "c");
    }

    #[test]
    fn cells_and_steps_accumulate() {
        let _scope = ExecBudget::unlimited()
            .with_max_cells(100)
            .with_max_steps(5)
            .enter();
        assert!(charge_cells(60, "a").is_ok());
        let e = charge_cells(60, "b").unwrap_err();
        assert_eq!(e.resource, Resource::Cells);
        assert_eq!(e.used, 120);
        for _ in 0..5 {
            charge_steps(1, "s").unwrap();
        }
        assert_eq!(charge_steps(1, "s").unwrap_err().resource, Resource::Steps);
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = ExecBudget::unlimited().with_max_depth(3).enter();
        assert_eq!(depth_limit(), 3);
        {
            let _inner = ExecBudget::unlimited().with_max_depth(7).enter();
            assert_eq!(depth_limit(), 7);
            assert!(charge_depth(5, "f").is_ok());
        }
        assert_eq!(depth_limit(), 3);
        assert_eq!(charge_depth(5, "f").unwrap_err().resource, Resource::Depth);
        drop(outer);
        assert!(active_budget().is_none());
    }

    #[test]
    fn powerset_cap_follows_budget() {
        assert_eq!(powerset_cap(), 20);
        let _scope = ExecBudget::default().with_max_powerset(4).enter();
        assert_eq!(powerset_cap(), 4);
    }

    #[test]
    fn budget_specs_parse() {
        let b = ExecBudget::parse("rows=5, steps=9,powerset=3").unwrap();
        assert_eq!(b.max_rows, 5);
        assert_eq!(b.max_steps, 9);
        assert_eq!(b.max_powerset, 3);
        assert_eq!(b.max_cells, ExecBudget::default().max_cells);
        assert!(ExecBudget::parse("rows").is_err());
        assert!(ExecBudget::parse("rows=abc").is_err());
        assert!(ExecBudget::parse("clocks=1").is_err());
        assert_eq!(ExecBudget::parse("").unwrap(), ExecBudget::default());
    }

    #[test]
    fn shared_scope_routes_free_charges_to_the_pool() {
        let pool = Arc::new(SharedMeter::new(
            ExecBudget::unlimited().with_max_cells(100),
        ));
        let scope = enter_shared(Arc::clone(&pool));
        assert!(charge_cells(60, "a").is_ok());
        assert_eq!(pool.cells_used(), 60);
        let e = charge_cells(60, "b").unwrap_err();
        assert_eq!(e.resource, Resource::Cells);
        drop(scope);
        // disarmed again: charges no longer touch the pool
        assert!(charge_cells(60, "c").is_ok());
        assert_eq!(pool.cells_used(), 120);
    }

    #[test]
    fn shared_scope_governs_depth_and_powerset_caps() {
        assert_eq!(depth_limit(), u64::MAX);
        let pool = Arc::new(SharedMeter::new(
            ExecBudget::unlimited()
                .with_max_depth(4)
                .with_max_powerset(6),
        ));
        let _scope = enter_shared(pool);
        assert_eq!(depth_limit(), 4);
        assert_eq!(powerset_cap(), 6);
        assert_eq!(
            charge_depth(5, "fix").unwrap_err().resource,
            Resource::Depth
        );
        // a thread-scoped budget still narrows within the shared scope
        let _inner = ExecBudget::unlimited().with_max_depth(2).enter();
        assert_eq!(depth_limit(), 2);
    }

    #[test]
    fn shared_scope_is_thread_local() {
        let pool = Arc::new(SharedMeter::new(ExecBudget::unlimited().with_max_cells(10)));
        let _scope = enter_shared(Arc::clone(&pool));
        std::thread::scope(|s| {
            s.spawn(|| {
                // other threads are not governed by this thread's pool
                assert!(charge_cells(1_000, "t").is_ok());
            });
        });
        assert_eq!(pool.cells_used(), 0);
    }

    #[test]
    fn breach_renders_all_fields() {
        let b = BudgetBreach {
            resource: Resource::Cells,
            limit: 9,
            used: 12,
            op: "alg.Product",
        };
        let s = b.to_string();
        assert!(s.contains("cells"), "{s}");
        assert!(s.contains('9'), "{s}");
        assert!(s.contains("12"), "{s}");
        assert!(s.contains("alg.Product"), "{s}");
    }
}
