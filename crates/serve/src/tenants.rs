//! Per-tenant quota pools.
//!
//! Each tenant named on the wire gets one long-lived
//! [`SharedMeter`] over the server's `--tenant-budget` spec (the
//! `GENPAR_BUDGET` grammar), created on first sight. A session arms the
//! tenant's meter as-is around request execution
//! ([`genpar_guard::enter_shared`]); the request's wall deadline, when
//! it has one, layers a meter over it at arming time
//! ([`genpar_guard::arm_wall_deadline`]). Serial evaluation drains the
//! pool through the ordinary `charge_*` functions and parallel workers
//! through the armed meter the executor hands them. Cumulative resources
//! (cells, steps) are *not* reset between requests — a tenant that
//! exhausts its pool keeps getting `budget_exceeded` until the server
//! restarts, while every other tenant is untouched.

use genpar_guard::{ExecBudget, SharedMeter};
use genpar_obs::Json;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// The tenant registry. `None` budget means tenants are unmetered.
pub struct Tenants {
    budget: Option<ExecBudget>,
    meters: Mutex<BTreeMap<String, Arc<SharedMeter>>>,
}

impl Tenants {
    /// A registry issuing each tenant one pool over `budget` (or no
    /// metering at all when `budget` is `None`).
    pub fn new(budget: Option<ExecBudget>) -> Tenants {
        Tenants {
            budget,
            meters: Mutex::new(BTreeMap::new()),
        }
    }

    fn locked(&self) -> MutexGuard<'_, BTreeMap<String, Arc<SharedMeter>>> {
        match self.meters.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The tenant's quota pool, created on first sight; `None` when the
    /// server runs unmetered.
    pub fn meter(&self, tenant: &str) -> Option<Arc<SharedMeter>> {
        let budget = self.budget?;
        Some(Arc::clone(
            self.locked()
                .entry(tenant.to_string())
                .or_insert_with(|| Arc::new(SharedMeter::new(budget))),
        ))
    }

    /// Usage by tenant, for the `stats` op.
    pub fn usage_json(&self) -> Json {
        // every pool is over the registry's budget (no budget, no pools)
        let budget = self.budget.unwrap_or_else(ExecBudget::unlimited);
        let rows: Vec<(String, Json)> = self
            .locked()
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    Json::obj([
                        ("cells_used", Json::Int(m.cells_used() as i128)),
                        ("steps_used", Json::Int(m.steps_used() as i128)),
                        ("max_cells", Json::Int(budget.max_cells as i128)),
                        ("max_steps", Json::Int(budget.max_steps as i128)),
                    ]),
                )
            })
            .collect();
        Json::obj(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_get_distinct_persistent_pools() {
        let t = Tenants::new(Some(ExecBudget::unlimited().with_max_cells(100)));
        let a = t.meter("a").unwrap();
        let b = t.meter("b").unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "tenants are isolated");
        a.charge_cells(80, "t").unwrap();
        // same tenant, later request: the same drained pool
        let a2 = t.meter("a").unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        assert!(a2.charge_cells(80, "t").is_err(), "tenant a is exhausted");
        assert!(b.charge_cells(80, "t").is_ok(), "tenant b is untouched");
    }

    #[test]
    fn unmetered_registry_issues_no_pools() {
        let t = Tenants::new(None);
        assert!(t.meter("a").is_none());
    }
}
