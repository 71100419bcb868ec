//! The one meter: a [`SharedMeter`] is what every armed scope holds and
//! what every charge — the walker's, the optimizer's, every pool
//! worker's — draws from.
//!
//! Cumulative resources (`cells`, `steps`) are `fetch_add`-then-check
//! counters; the per-operator `rows` cap and the `depth` check are plain
//! comparisons (nothing accumulates). A meter may carry a wall deadline
//! and a `parent` it also charges, so the meters armed on one thread form
//! a chain, innermost first.
//!
//! ## Overshoot bound
//!
//! A charge is `fetch_add(n)` followed by a cap comparison — there is no
//! lock, so two workers may both pass the check an instant before either
//! add lands. The slack is bounded: every worker stops at its own first
//! failed charge, so with `W` workers each charging quanta of at most
//! `q` units, recorded usage never exceeds `cap + W × q`. Executors keep
//! `q` at morsel granularity (`morsel_rows × row_width` cells), making
//! the bound tight and documented rather than incidental. The
//! `workers_cannot_overshoot_beyond_slack` test pins this bound.
//!
//! ## Layered meters (tenants)
//!
//! Layering happens when a scope is armed. A resident server arms one
//! long-lived `Arc<SharedMeter>` per tenant as-is
//! ([`crate::enter_shared`]); the request's wall deadline
//! ([`crate::arm_wall_deadline`]) then arms a fresh meter whose `parent`
//! is the tenant pool, so every charge — on the session thread or on a
//! pool worker holding the armed meter — checks the request's deadline
//! and draws from the tenant's cumulative quota.

use crate::budget::{record_breach, BudgetBreach, ExecBudget, Resource};
use crate::wall::WallDeadline;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An atomically charged meter: optional caps, an optional wall
/// deadline, and an optional parent it also charges.
///
/// Arm one for the current thread ([`ExecBudget::enter`],
/// [`crate::enter_shared`], [`crate::arm_wall_deadline`]), hand the
/// armed `Arc` ([`crate::armed_meter`]) to every worker, and map the
/// first [`BudgetBreach`] into the executor's error type.
#[derive(Debug)]
pub struct SharedMeter {
    /// This meter's own caps; `None` for a deadline-only meter.
    budget: Option<ExecBudget>,
    cells: AtomicU64,
    steps: AtomicU64,
    deadline: Option<WallDeadline>,
    /// The meter this one was armed over (a tenant pool, an outer
    /// budget); every charge that passes here is charged there too.
    parent: Option<Arc<SharedMeter>>,
}

impl SharedMeter {
    /// A standalone meter over an explicit budget (a tenant pool).
    pub fn new(budget: ExecBudget) -> SharedMeter {
        SharedMeter {
            budget: Some(budget),
            cells: AtomicU64::new(0),
            steps: AtomicU64::new(0),
            deadline: None,
            parent: None,
        }
    }

    /// A fresh meter whose `parent` is the meter armed on the current
    /// thread, if any.
    pub(crate) fn layered(
        budget: Option<ExecBudget>,
        deadline: Option<WallDeadline>,
    ) -> Arc<SharedMeter> {
        Arc::new(SharedMeter {
            budget,
            deadline,
            parent: crate::armed_meter(),
            ..SharedMeter::new(ExecBudget::unlimited())
        })
    }

    /// This meter's own caps; `None` for a deadline-only meter.
    pub fn budget(&self) -> Option<ExecBudget> {
        self.budget
    }

    /// Cumulative cells charged so far (may exceed the cap by the
    /// documented worker slack once a breach has been reported).
    pub fn cells_used(&self) -> u64 {
        self.cells.load(Ordering::Relaxed)
    }

    /// Cumulative steps charged so far.
    pub fn steps_used(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// This meter and every meter under it, innermost first.
    fn chain(&self) -> impl Iterator<Item = &SharedMeter> {
        std::iter::successors(Some(self), |m| m.parent.as_deref())
    }

    /// The tightest cap on `resource` along the chain; `None` when no
    /// meter on it has caps.
    pub(crate) fn tightest(&self, resource: Resource) -> Option<u64> {
        self.chain()
            .filter_map(|m| m.budget.map(|b| b.limit(resource)))
            .min()
    }

    /// The one charge: for each meter on the chain, innermost first, the
    /// deadline, then the meter's own cap; the first breach stops it.
    pub(crate) fn charge(
        &self,
        resource: Resource,
        n: u64,
        op: &'static str,
    ) -> Result<(), BudgetBreach> {
        for m in self.chain() {
            if let Some(d) = &m.deadline {
                d.check(op)?;
            }
            let used = match resource {
                Resource::Cells => m.cells.fetch_add(n, Ordering::Relaxed).saturating_add(n),
                Resource::Steps => m.steps.fetch_add(n, Ordering::Relaxed).saturating_add(n),
                _ => n,
            };
            let limit = m.budget.map_or(u64::MAX, |b| b.limit(resource));
            if used > limit {
                return Err(record_breach(resource, limit, used, op));
            }
        }
        Ok(())
    }

    /// Charge `n` rows materialized by operator `op` (per-operator cap,
    /// not cumulative — same semantics as [`crate::charge_rows`]).
    pub fn charge_rows(&self, n: u64, op: &'static str) -> Result<(), BudgetBreach> {
        self.charge(Resource::Rows, n, op)
    }

    /// Charge `n` cells processed (cumulative across all workers).
    pub fn charge_cells(&self, n: u64, op: &'static str) -> Result<(), BudgetBreach> {
        self.charge(Resource::Cells, n, op)
    }

    /// Charge `n` evaluation steps (cumulative across all workers).
    pub fn charge_steps(&self, n: u64, op: &'static str) -> Result<(), BudgetBreach> {
        self.charge(Resource::Steps, n, op)
    }

    /// Check an iteration count against the depth cap (same semantics
    /// as [`crate::charge_depth`]: the loop passes its running count).
    pub fn charge_depth(&self, depth: u64, op: &'static str) -> Result<(), BudgetBreach> {
        self.charge(Resource::Depth, depth, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn unarmed_thread_yields_no_meter() {
        assert!(crate::armed_meter().is_none());
        let _scope = ExecBudget::default().with_max_cells(7).enter();
        let m = crate::armed_meter().unwrap();
        assert_eq!(m.budget().unwrap().max_cells, 7);
    }

    #[test]
    fn shared_scope_alone_yields_the_pool_itself() {
        let pool = Arc::new(SharedMeter::new(ExecBudget::unlimited().with_max_cells(50)));
        let _scope = crate::budget::enter_shared(Arc::clone(&pool));
        let m = crate::armed_meter().unwrap();
        assert!(
            Arc::ptr_eq(&m, &pool),
            "no request layer: charge the pool directly"
        );
        // cumulative across "requests": a second run sees drained state
        m.charge_cells(40, "a").unwrap();
        let m2 = crate::armed_meter().unwrap();
        assert_eq!(
            m2.charge_cells(40, "b").unwrap_err().resource,
            Resource::Cells
        );
    }

    #[test]
    fn budget_layers_over_the_tenant_pool() {
        let pool = Arc::new(SharedMeter::new(
            ExecBudget::unlimited().with_max_cells(100),
        ));
        let _scope = crate::budget::enter_shared(Arc::clone(&pool));
        let _inner = ExecBudget::unlimited().with_max_cells(30).enter();
        let m = crate::armed_meter().unwrap();
        // successful charges drain the tenant pool too...
        m.charge_cells(20, "a").unwrap();
        assert_eq!(pool.cells_used(), 20);
        // ...and the request meter enforces its own (narrower) cap,
        // stopping before the breaching charge reaches the pool
        assert_eq!(m.budget().unwrap().max_cells, 30);
        assert_eq!(
            m.charge_cells(20, "b").unwrap_err().resource,
            Resource::Cells
        );
        assert_eq!(pool.cells_used(), 20);
    }

    #[test]
    fn armed_deadline_binds_off_thread() {
        let _wall = crate::arm_wall_deadline(std::time::Duration::ZERO);
        let m = crate::armed_meter().expect("a deadline alone arms a meter");
        assert!(m.budget().is_none(), "a deadline has no caps of its own");
        std::thread::sleep(std::time::Duration::from_millis(2));
        // a worker handed the armed meter breaches on the deadline even
        // though the arming thread's slot is invisible to it
        std::thread::scope(|s| {
            s.spawn(move || {
                let e = m.charge_cells(1, "exec.morsel").unwrap_err();
                assert_eq!(e.resource, Resource::Wall);
            });
        });
    }

    #[test]
    fn rows_cap_is_per_charge() {
        let m = SharedMeter::new(ExecBudget::unlimited().with_max_rows(10));
        assert!(m.charge_rows(10, "a").is_ok());
        assert!(m.charge_rows(10, "b").is_ok()); // not cumulative
        let e = m.charge_rows(11, "c").unwrap_err();
        assert_eq!(e.resource, Resource::Rows);
        assert_eq!(e.op, "c");
    }

    #[test]
    fn cells_and_steps_accumulate_across_charges() {
        let m = SharedMeter::new(
            ExecBudget::unlimited()
                .with_max_cells(100)
                .with_max_steps(3),
        );
        assert!(m.charge_cells(60, "a").is_ok());
        let e = m.charge_cells(60, "b").unwrap_err();
        assert_eq!(e.resource, Resource::Cells);
        assert_eq!(e.used, 120);
        for _ in 0..3 {
            m.charge_steps(1, "s").unwrap();
        }
        assert_eq!(
            m.charge_steps(1, "s").unwrap_err().resource,
            Resource::Steps
        );
    }

    /// The documented concurrency bound: with `W` workers charging
    /// quanta of `q`, recorded usage never exceeds `cap + W × q`, and
    /// every worker observes the breach (no one keeps charging past its
    /// own first error).
    #[test]
    fn workers_cannot_overshoot_beyond_slack() {
        const WORKERS: u64 = 8;
        const QUANTUM: u64 = 16;
        const CAP: u64 = 1000;
        let m = SharedMeter::new(
            ExecBudget::unlimited()
                .with_max_cells(CAP)
                .with_max_steps(CAP),
        );
        let all_breached = AtomicBool::new(true);
        std::thread::scope(|s| {
            for _ in 0..WORKERS {
                s.spawn(|| {
                    let mut breached = false;
                    // each worker tries far more work than the cap allows
                    for _ in 0..(2 * CAP / QUANTUM) {
                        if m.charge_cells(QUANTUM, "t").is_err() {
                            breached = true;
                            break; // a worker stops at its first breach
                        }
                    }
                    if !breached {
                        all_breached.store(false, Ordering::Relaxed);
                    }
                });
            }
        });
        assert!(
            all_breached.load(Ordering::Relaxed),
            "every worker must see the breach"
        );
        let used = m.cells_used();
        assert!(used > CAP, "the cap was genuinely reached: {used}");
        assert!(
            used <= CAP + WORKERS * QUANTUM,
            "overshoot {used} exceeds documented slack {}",
            CAP + WORKERS * QUANTUM
        );
    }
}
