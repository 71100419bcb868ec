//! Wall-clock deadlines: a cooperative cancellation token checked at the
//! existing `charge_*` points.
//!
//! The budget machinery is deliberately wall-clock free (steps are the
//! deterministic deadline surrogate), but an operator fronting a query
//! service needs a real timeout. [`arm_wall_deadline`] arms a fresh
//! [`crate::SharedMeter`] carrying the deadline and no caps of its own,
//! layered over whatever meter is armed on the thread. Every charge on
//! that meter — the walker's on the arming thread, and every pool
//! worker's, since the executor hands its workers the armed meter —
//! checks the deadline first. A crossed deadline surfaces as a
//! [`BudgetBreach`] with [`Resource::Wall`], flowing through the exact
//! same structured-error path (and exit code) as any other exhausted
//! budget. No thread is ever killed: workers notice the deadline at
//! their next charge point and unwind cooperatively.
//!
//! The deadline is thread-scoped, so concurrent server sessions each arm
//! their own per-request deadline without interfering.

use crate::budget::{record_breach, BudgetBreach, BudgetScope, Resource};
use crate::shared::SharedMeter;
use std::time::{Duration, Instant};

/// A wall deadline: when it was armed and how long it allows.
#[derive(Debug)]
pub(crate) struct WallDeadline {
    armed_at: Instant,
    limit: Duration,
}

impl WallDeadline {
    /// Has this deadline passed? A breach names the limit and the
    /// elapsed milliseconds (at least one past the limit).
    pub(crate) fn check(&self, op: &'static str) -> Result<(), BudgetBreach> {
        let elapsed = self.armed_at.elapsed();
        if elapsed <= self.limit {
            return Ok(());
        }
        let ms = |d: Duration| d.as_millis().min(u64::MAX as u128) as u64;
        let limit_ms = ms(self.limit);
        Err(record_breach(
            Resource::Wall,
            limit_ms,
            ms(elapsed).max(limit_ms.saturating_add(1)),
            op,
        ))
    }
}

/// Arm a wall-clock deadline `timeout` from now for the current thread
/// until the returned scope drops: a fresh meter with the deadline, no
/// caps of its own, and the meter already armed as its `parent`.
#[must_use = "the deadline is disarmed when the scope drops"]
pub fn arm_wall_deadline(timeout: Duration) -> BudgetScope {
    let deadline = WallDeadline {
        armed_at: Instant::now(),
        limit: timeout,
    };
    crate::enter_shared(SharedMeter::layered(None, Some(deadline)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{charge_cells, charge_steps, ExecBudget};

    #[test]
    fn generous_deadline_passes_and_disarms_on_drop() {
        let scope = arm_wall_deadline(Duration::from_secs(3600));
        assert!(charge_steps(1, "t").is_ok());
        drop(scope);
        assert!(crate::armed_meter().is_none());
    }

    #[test]
    fn expired_deadline_breaches_with_wall_resource() {
        let scope = arm_wall_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        let e = charge_steps(1, "exec.morsel").unwrap_err();
        assert_eq!(e.resource, Resource::Wall);
        assert_eq!(e.op, "exec.morsel");
        assert!(e.used > e.limit, "{e}");
        let s = e.to_string();
        assert!(
            s.contains("budget exceeded") && s.contains("wall_ms"),
            "{s}"
        );
        drop(scope);
        assert!(charge_steps(1, "exec.morsel").is_ok());
    }

    #[test]
    fn deadline_is_thread_scoped() {
        let _scope = arm_wall_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        assert!(charge_steps(1, "t").is_err());
        // another thread is not governed by this thread's deadline
        std::thread::scope(|s| {
            s.spawn(|| assert!(charge_steps(1, "other").is_ok()));
        });
    }

    #[test]
    fn deadlines_nest_and_restore() {
        let outer = arm_wall_deadline(Duration::from_secs(3600));
        let outer_meter = crate::armed_meter().unwrap();
        {
            let _inner = arm_wall_deadline(Duration::ZERO);
            std::thread::sleep(Duration::from_millis(2));
            assert!(charge_steps(1, "t").is_err());
        }
        assert!(std::sync::Arc::ptr_eq(
            &crate::armed_meter().unwrap(),
            &outer_meter
        ));
        assert!(charge_steps(1, "t").is_ok());
        drop(outer);
        assert!(crate::armed_meter().is_none());
    }

    #[test]
    fn deadline_layers_over_the_armed_budget() {
        let _budget = ExecBudget::unlimited()
            .with_max_cells(10)
            .with_max_powerset(4)
            .enter();
        let _wall = arm_wall_deadline(Duration::from_secs(3600));
        // the deadline adds no caps, and keeps the budget's
        assert_eq!(crate::powerset_cap(), 4);
        assert!(charge_cells(10, "a").is_ok());
        assert_eq!(charge_cells(1, "b").unwrap_err().resource, Resource::Cells);
    }

    #[test]
    fn deadline_alone_keeps_the_default_caps() {
        let _wall = arm_wall_deadline(Duration::from_secs(3600));
        assert_eq!(crate::powerset_cap(), ExecBudget::DEFAULT_POWERSET_CAP);
        assert_eq!(crate::depth_limit(), u64::MAX);
    }
}
