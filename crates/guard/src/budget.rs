//! Execution budgets and the one armed meter.
//!
//! Every limit — an [`ExecBudget`], a tenant quota pool, a wall
//! deadline — is a [`SharedMeter`] armed in one thread-local slot. The
//! three entry points ([`ExecBudget::enter`], [`enter_shared`],
//! [`crate::arm_wall_deadline`]) all push a meter into that slot until
//! the returned [`BudgetScope`] drops; a fresh meter's `parent` is the
//! meter it displaced, so an inner scope can only narrow the limits.
//! The `charge_*` free functions charge the armed meter (and, through
//! its parents, every meter under it) and return a [`BudgetBreach`] once
//! a cap is crossed. The executor takes the armed meter itself
//! ([`armed_meter`]) and hands it to its workers, so the walker, the
//! optimizer and every pool worker charge the same object. With no scope
//! live anywhere in the process, every charge is one relaxed atomic load.

use crate::shared::SharedMeter;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of live [`BudgetScope`]s across all threads. Zero means every
/// `charge_*` call returns after one relaxed load.
static LIVE_SCOPES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The meter armed on this thread, if any.
    static ARMED: RefCell<Option<Arc<SharedMeter>>> = const { RefCell::new(None) };
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

    /// Arm a fresh meter over this budget for the current thread until
    /// the returned scope drops. The meter already armed becomes its
    /// `parent`, so nested budgets layer: an inner scope only narrows.
    #[must_use = "the budget is disarmed when the scope drops"]
    pub fn enter(self) -> BudgetScope {
        enter_shared(SharedMeter::layered(Some(self), None))
    }

    /// The cap on `resource` ([`Resource::Wall`] has none here).
    pub(crate) fn limit(&self, resource: Resource) -> u64 {
        match resource {
            Resource::Rows => self.max_rows,
            Resource::Cells => self.max_cells,
            Resource::Steps => self.max_steps,
            Resource::Depth => self.max_depth,
            Resource::Powerset => self.max_powerset as u64,
            Resource::Wall => u64::MAX,
        }
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

/// RAII scope keeping a meter armed on the current thread; dropping it
/// restores the meter it displaced.
pub struct BudgetScope {
    prev: Option<Arc<SharedMeter>>,
}

impl Drop for BudgetScope {
    fn drop(&mut self) {
        ARMED.with(|a| *a.borrow_mut() = self.prev.take());
        LIVE_SCOPES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Arm `meter` as-is in the current thread's slot until the returned
/// scope drops — how a server arms a tenant's cumulative quota pool, and
/// the one way every other entry point fills the slot. Scopes armed
/// inside it ([`ExecBudget::enter`], [`crate::arm_wall_deadline`])
/// layer on top and draw from it too.
#[must_use = "the shared meter is disarmed when the scope drops"]
pub fn enter_shared(meter: Arc<SharedMeter>) -> BudgetScope {
    let prev = ARMED.with(|a| a.borrow_mut().replace(meter));
    LIVE_SCOPES.fetch_add(1, Ordering::Relaxed);
    BudgetScope { prev }
}

/// The meter armed on the current thread, if any — what the executor
/// hands its workers. One relaxed load when nothing is armed anywhere.
pub fn armed_meter() -> Option<Arc<SharedMeter>> {
    if LIVE_SCOPES.load(Ordering::Relaxed) == 0 {
        return None;
    }
    ARMED.with(|a| a.borrow().clone())
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

/// Record a breach into obs (counter + event) and build the error.
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

/// Charge the armed meter, if any: the single-load disarmed fast path.
#[inline]
fn charge(resource: Resource, n: u64, op: &'static str) -> Result<(), BudgetBreach> {
    if LIVE_SCOPES.load(Ordering::Relaxed) == 0 {
        return Ok(());
    }
    ARMED.with(|a| match a.borrow().as_deref() {
        Some(m) => m.charge(resource, n, op),
        None => Ok(()),
    })
}

/// Charge `n` rows materialized by operator `op` (per-operator cap, not
/// cumulative: a plan may stream many small results).
#[inline]
pub fn charge_rows(n: u64, op: &'static str) -> Result<(), BudgetBreach> {
    charge(Resource::Rows, n, op)
}

/// Charge `n` cells processed (cumulative across the armed scope).
#[inline]
pub fn charge_cells(n: u64, op: &'static str) -> Result<(), BudgetBreach> {
    charge(Resource::Cells, n, op)
}

/// Charge `n` evaluation steps (cumulative; the deadline surrogate).
#[inline]
pub fn charge_steps(n: u64, op: &'static str) -> Result<(), BudgetBreach> {
    charge(Resource::Steps, n, op)
}

/// Check an iteration count against the armed depth cap. Iteration loops
/// call this with their running count rather than accumulating here, so
/// nested loops each get the full depth allowance.
#[inline]
pub fn charge_depth(depth: u64, op: &'static str) -> Result<(), BudgetBreach> {
    charge(Resource::Depth, depth, op)
}

/// The tightest cap on `resource` along the armed meter's chain; `None`
/// when nothing on the chain has caps.
fn tightest(resource: Resource) -> Option<u64> {
    armed_meter()?.tightest(resource)
}

/// The fixpoint/recursion depth cap: the tightest `max_depth` on the
/// armed chain, or `u64::MAX` when nothing there has caps.
pub fn depth_limit() -> u64 {
    tightest(Resource::Depth).unwrap_or(u64::MAX)
}

/// The powerset input cap: the tightest `max_powerset` on the armed
/// chain, or [`ExecBudget::DEFAULT_POWERSET_CAP`] when nothing there has
/// caps (the one guard that stays on by default — ℘ is doubly
/// exponential in intent).
pub fn powerset_cap() -> usize {
    tightest(Resource::Powerset).map_or(ExecBudget::DEFAULT_POWERSET_CAP, |c| {
        usize::try_from(c).unwrap_or(usize::MAX)
    })
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
        assert!(armed_meter().is_none());
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
            // an inner budget layers over the outer one: it can only narrow
            let _inner = ExecBudget::unlimited().with_max_depth(7).enter();
            assert_eq!(depth_limit(), 3);
            assert_eq!(charge_depth(5, "f").unwrap_err().resource, Resource::Depth);
            let _narrower = ExecBudget::unlimited().with_max_depth(2).enter();
            assert_eq!(depth_limit(), 2);
        }
        assert_eq!(depth_limit(), 3);
        assert_eq!(charge_depth(5, "f").unwrap_err().resource, Resource::Depth);
        drop(outer);
        assert!(armed_meter().is_none());
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
