#![warn(missing_docs)]
// Execution paths must fail structurally, never unwrap (tests exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # genpar-guard — resource governance and fault tolerance
//!
//! The algebra of the paper contains inherently explosive operators
//! (`powerset` is the Chandra hierarchy's Q5; fixpoint iteration need not
//! converge), so a production engine must treat partiality and failure as
//! first-class. This crate provides the three guard mechanisms the rest
//! of the workspace threads through its execution paths:
//!
//! * **Execution budgets** ([`ExecBudget`]) — caps on rows materialized,
//!   cells processed, fixpoint/recursion depth and total evaluation steps
//!   (a step-count deadline), plus an opt-in wall-clock deadline
//!   ([`arm_wall_deadline`]) and cumulative tenant quota pools
//!   ([`enter_shared`]). All three arm one [`SharedMeter`] in one
//!   thread-local slot; a meter armed over another charges it too, so
//!   limits layer and an inner scope can only narrow. Evaluators call
//!   the `charge_*` functions at operator boundaries; the parallel
//!   executor hands the armed meter ([`armed_meter`]) to its workers, so
//!   every route charges the same object, with a documented
//!   `workers × quantum` overshoot bound. A breach surfaces as a
//!   [`BudgetBreach`], a structured error with partial-progress stats.
//! * **Deterministic fault injection** ([`faultpoint`]) — named sites in
//!   the engine, evaluator, checker and transfer machinery that can be
//!   armed with a `site:nth` spec ([`arm_faults`]; the `genpar` binary
//!   takes it from `GENPAR_FAULTS`) to fail on the nth hit,
//!   proving every failure path ends in a structured error, never a
//!   panic.
//! * **Panic boundaries** ([`catch_panics`]) — `catch_unwind` wrappers
//!   converting residual panics into error payloads at the engine and
//!   CLI boundaries.
//!
//! ## Cost when disabled
//!
//! When no meter is armed on any thread and no faults are armed, every
//! `charge_*` call and every [`faultpoint`] is **one relaxed atomic
//! load** and an immediate return. The `obs_overhead` bench in
//! `genpar-bench` asserts this path stays within the workspace's ≤5%
//! overhead bound.
//!
//! Guard activity is recorded through the `genpar-obs` registry:
//! `guard.budget_breaches` / `guard.faults_injected` counters and
//! `guard.budget_exceeded` / `guard.fault_injected` events.

pub mod budget;
pub mod fault;
pub mod retry;
pub mod shared;
pub mod wall;

pub use budget::{
    armed_meter, charge_cells, charge_depth, charge_rows, charge_steps, depth_limit, enter_shared,
    powerset_cap, BudgetBreach, BudgetScope, ExecBudget, Resource,
};
pub use fault::{
    arm_faults, arm_faults_strict, armed_faults, check_faults_strict, disarm_faults, faultpoint,
    faults_armed, Fault, FaultSpecError, KNOWN_SITES,
};
pub use retry::{RetryPolicy, RetrySpecError};
pub use shared::SharedMeter;
pub use wall::arm_wall_deadline;

/// Render a panic payload (from `std::panic::catch_unwind`) as text.
///
/// Downcasts the two payload types `panic!` actually produces (`&str` and
/// `String`); anything else renders as `"<non-string panic payload>"`.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run `f` behind a panic boundary: a panic becomes `Err(message)`.
///
/// This is the engine/CLI boundary of the robustness layer: residual
/// panics in operator code become structured internal errors instead of
/// unwinding across the public API.
pub fn catch_panics<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(panic_message)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_panics_passes_values_and_captures_payloads() {
        assert_eq!(catch_panics(|| 42), Ok(42));
        let err = catch_panics(|| -> u32 { panic!("boom {}", 7) }).unwrap_err();
        assert_eq!(err, "boom 7");
        let err = catch_panics(|| -> u32 { std::panic::panic_any(99u8) }).unwrap_err();
        assert_eq!(err, "<non-string panic payload>");
    }
}
