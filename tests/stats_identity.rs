//! Observed-statistics feedback identity: stats may flip the *route*,
//! never the *answer*.
//!
//! The persistent statistics store feeds harvested cardinalities back
//! into the cost model. That loop is only sound if it is invisible to
//! query semantics: for any query, any database, and any observed
//! statistics — real, stale, or wildly wrong — the chosen plan under
//! stats must compute the same canonical `Value` as the chosen plan
//! without stats, at every worker count. These tests pin both halves:
//!
//! 1. A deterministic workload where observed stats demonstrably **do**
//!    flip the executor route (the feedback is load-bearing, not inert).
//! 2. A proptest differential oracle: harvested *and* adversarially
//!    distorted stats leave every answer byte-identical, serial and at
//!    4 workers.

use genpar_algebra::{Pred, Query};
use genpar_engine::workload::{generate_edges, generate_table, WorkloadSpec};
use genpar_engine::{lower, Catalog};
use genpar_exec::{db_from_catalog, eval_query, ExecConfig};
use genpar_optimizer::{
    estimate_with_stats, optimize_costed_parallel_with_stats, route_costs_with_stats, Calibration,
    CatalogStats, RuleSet, StatsStore, MIN_SAMPLES,
};
use genpar_value::Value;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A calibration with a real startup term: under it the parallel route
/// only pays off above a nonzero crossover cost, so shrinking a plan's
/// observed cardinality can push it back across the line.
fn startup_calibration() -> Calibration {
    Calibration {
        overhead_per_worker: 0.03,
        startup_cost_cells: 500.0,
        unreliable: false,
    }
}

/// Build a `CatalogStats` that claims the scan produces almost nothing,
/// with enough samples to clear the [`MIN_SAMPLES`] consumption gate.
fn tiny_row_stats(q: &Query) -> CatalogStats {
    let plan = lower(q).expect("workload lowers");
    let mut stats = CatalogStats::default();
    for _ in 0..MIN_SAMPLES {
        stats.observe(plan.fingerprint(), "plan.Scan", 4_000, 2);
    }
    stats
}

#[test]
fn observed_stats_flip_the_route_but_not_the_answer() {
    let mut rng = StdRng::seed_from_u64(11);
    let cat = Catalog::new().with(generate_table(
        &mut rng,
        "R",
        WorkloadSpec {
            rows: 4_000,
            arity: 2,
            value_range: 40,
            key_on_first: false,
        },
    ));
    let q = Query::rel("R").select(Pred::eq_const(1, Value::Int(7)));
    let cal = startup_calibration();
    let stats = tiny_row_stats(&Query::rel("R"));

    let without = route_costs_with_stats(&q, &cat, 4, &cal, None);
    let with = route_costs_with_stats(&q, &cat, 4, &cal, Some(&stats));
    // statically the 4000-row scan dwarfs the startup term: parallel wins
    assert!(
        without.choose_parallel,
        "static estimate should pick the parallel route (margin {})",
        without.margin_cells
    );
    // observed: the scan yields ~2 rows, far below the startup crossover
    assert!(
        estimate_with_stats(&q, &cat, Some(&stats)).rows < estimate_with_stats(&q, &cat, None).rows,
        "observed stats failed to override the static cardinality"
    );
    assert!(
        !with.choose_parallel,
        "observed stats should flip the route to serial (margin {})",
        with.margin_cells
    );

    // the flip is advisory only: every route computes the walker's Value
    let truth = genpar_algebra::eval::eval(&q, &db_from_catalog(&cat)).expect("walker eval");
    for w in [1, 4] {
        let (v, _, _) = eval_query(&q, &cat, &ExecConfig::serial().with_workers(w)).expect("eval");
        assert_eq!(truth, v, "route flip changed the answer at {w} workers");
    }
}

/// One query shape drawn from the same distribution the differential
/// oracle uses, kept small so each proptest case stays cheap.
fn random_query(rng: &mut StdRng) -> Query {
    let r = Query::rel("R");
    let s = Query::rel("S");
    match rng.gen_range(0..6) {
        0 => r.select(Pred::eq_const(1, Value::Int(rng.gen_range(0..6)))),
        1 => r.join_on(s, [(0, 0)]).project(vec![0, 1, 3]),
        2 => r.union(s).project(vec![rng.gen_range(0..2usize)]),
        3 => r.difference(s),
        4 => Query::fixpoint(
            "X",
            Query::rel("E"),
            Query::rel("X")
                .join_on(Query::rel("E"), [(1, 0)])
                .project(vec![0, 3]),
        ),
        _ => r.select(Pred::eq_cols(0, 1)).count(),
    }
}

fn random_catalog(rng: &mut StdRng) -> Catalog {
    let spec = |rows| WorkloadSpec {
        rows,
        arity: 2,
        value_range: 10,
        key_on_first: false,
    };
    let r_rows = rng.gen_range(0..150);
    let s_rows = rng.gen_range(0..100);
    let nodes = rng.gen_range(2..10);
    let r = generate_table(rng, "R", spec(r_rows));
    let s = generate_table(rng, "S", spec(s_rows));
    let e = generate_edges(rng, "E", nodes, 1.0, true);
    Catalog::new().with(r).with(s).with(e)
}

/// Evaluate `q` after optimizing under `obs`, serially and at 4 workers,
/// asserting both match `truth`.
fn assert_same_answer(
    q: &Query,
    cat: &Catalog,
    cal: &Calibration,
    obs: Option<&CatalogStats>,
    truth: &Value,
) -> Result<(), TestCaseError> {
    let rules = RuleSet::standard();
    for w in [1usize, 4] {
        let (chosen, _, _, _) = optimize_costed_parallel_with_stats(q, &rules, cat, w, cal, obs);
        let cfg = ExecConfig::serial().with_workers(w);
        let (v, _, route) = eval_query(&chosen, cat, &cfg)
            .map_err(|e| TestCaseError::Fail(format!("eval failed on {chosen}: {e}")))?;
        prop_assert_eq!(
            &v,
            truth,
            "stats feedback changed the answer of {} (w={}, route={:?}, stats={})",
            q,
            w,
            route,
            obs.is_some()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The stats-on/stats-off differential oracle: statistics harvested
    /// from a real run — then adversarially distorted — never change
    /// any query's Value; only the chosen plan/route may move.
    #[test]
    fn stats_on_and_stats_off_answers_are_identical(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cat = random_catalog(&mut rng);
        let q = random_query(&mut rng);
        let cal = startup_calibration();

        let truth = genpar_algebra::eval::eval(&q, &db_from_catalog(&cat))
            .map_err(|e| TestCaseError::Fail(format!("walker eval failed on {q}: {e}")))?;

        // harvest genuine per-node observations through the real
        // pipeline: obs events -> snapshot -> StatsStore::harvest, in a
        // private scope so concurrent tests cannot wipe or pollute it
        genpar_obs::set_enabled(true);
        let scope = genpar_obs::Scope::anonymous();
        let guard = scope.enter();
        let run = eval_query(&q, &cat, &ExecConfig::serial().with_workers(4));
        drop(guard);
        run.map_err(|e| TestCaseError::Fail(format!("instrumented eval failed: {e}")))?;
        let snap = scope.snapshot();
        let mut store = StatsStore::new();
        for _ in 0..MIN_SAMPLES {
            store.harvest("t", &snap);
        }
        let harvested = store.catalog("t").cloned().unwrap_or_default();

        // adversarial variant: same fingerprints, wildly wrong counts
        let mut distorted = CatalogStats::default();
        for (&fp, entry) in &harvested.entries {
            let fake = rng.gen_range(0..1_000_000u64);
            for _ in 0..MIN_SAMPLES {
                distorted.observe(fp, &entry.op, fake.max(1), fake);
            }
        }

        assert_same_answer(&q, &cat, &cal, None, &truth)?;
        assert_same_answer(&q, &cat, &cal, Some(&harvested), &truth)?;
        assert_same_answer(&q, &cat, &cal, Some(&distorted), &truth)?;
    }
}
