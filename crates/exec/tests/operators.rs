//! Per-operator behaviour of the row executor, at one worker (every task
//! inline on the caller's thread) and at four (the morsel pool): work
//! counters, budget stops, panic containment and the obs span tree.
//! The counters are sums over tasks, so they do not depend on the
//! worker count. The fixpoint cases check the prepared round plan
//! (loop-invariant inputs hoisted and indexed once) against the walker.

use genpar_algebra::{Pred, Query, ValueFn};
use genpar_engine::plan::{lower, ExecError, ExecStats, PhysicalPlan};
use genpar_engine::schema::{Catalog, Schema};
use genpar_engine::table::Table;
use genpar_exec::{db_from_catalog, eval_query, EvalParallel, ExecConfig, ExecRoute};
use genpar_value::{rows_to_value, CvType, Value};

const WORKERS: [usize; 2] = [1, 4];

fn catalog() -> Catalog {
    let mut r = Table::new("R", Schema::uniform(CvType::int(), 2));
    for i in 0..10 {
        r.insert(vec![Value::Int(i), Value::Int(i % 3)]);
    }
    let mut s = Table::new("S", Schema::uniform(CvType::int(), 2));
    for i in 5..15 {
        s.insert(vec![Value::Int(i), Value::Int(i % 3)]);
    }
    Catalog::new().with(r).with(s)
}

fn scan(name: &str) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Scan(name.into()))
}

/// Run `plan` at `workers` with small morsels, so four workers really
/// split the ten-row inputs.
fn run(
    plan: &PhysicalPlan,
    c: &Catalog,
    workers: usize,
) -> Result<(Vec<Vec<Value>>, ExecStats), ExecError> {
    plan.eval_parallel(
        c,
        &ExecConfig::serial()
            .with_workers(workers)
            .with_morsel_rows(3),
    )
}

#[test]
fn scan_counts_rows() {
    let c = catalog();
    for w in WORKERS {
        let (rows, stats) = run(&PhysicalPlan::Scan("R".into()), &c, w).unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(stats.rows_scanned, 10);
        assert_eq!(stats.rows_out, 10);
    }
}

#[test]
fn filter_and_project_count_rows_processed() {
    let c = catalog();
    let p = PhysicalPlan::Project(
        vec![1],
        Box::new(PhysicalPlan::Filter(
            Pred::eq_const(1, Value::Int(0)),
            scan("R"),
        )),
    );
    for w in WORKERS {
        let (rows, stats) = run(&p, &c, w).unwrap();
        assert_eq!(rows, vec![vec![Value::Int(0)]]);
        // filter sees 10 rows, project the 4 survivors (0, 3, 6, 9)
        assert_eq!(stats.rows_processed, 10 + 4);
    }
}

#[test]
fn hash_join_matches_product_filter_with_less_work() {
    let c = catalog();
    let join = PhysicalPlan::HashJoin(vec![(0, 0)], scan("R"), scan("S"));
    let pf = PhysicalPlan::Filter(
        Pred::eq_cols(0, 2),
        Box::new(PhysicalPlan::Product(scan("R"), scan("S"))),
    );
    for w in WORKERS {
        let (jrows, jstats) = run(&join, &c, w).unwrap();
        let (prows, pstats) = run(&pf, &c, w).unwrap();
        assert_eq!(jrows, prows);
        assert_eq!(jrows.len(), 5); // keys 5..10 overlap
        assert_eq!(jstats.probes, 10, "one probe per left row");
        assert!(jstats.rows_processed < pstats.rows_processed);
        let multi = PhysicalPlan::HashJoin(vec![(0, 0), (1, 1)], scan("R"), scan("S"));
        assert_eq!(run(&multi, &c, w).unwrap().0.len(), 5);
    }
}

#[test]
fn set_operators_and_map() {
    let c = catalog();
    for w in WORKERS {
        let size = |p: PhysicalPlan| run(&p, &c, w).unwrap().0.len();
        assert_eq!(size(PhysicalPlan::Union(scan("R"), scan("S"))), 15);
        assert_eq!(size(PhysicalPlan::Intersect(scan("R"), scan("S"))), 5);
        assert_eq!(size(PhysicalPlan::Difference(scan("R"), scan("S"))), 5);
        let m = PhysicalPlan::MapRows(ValueFn::Cols(vec![1, 0]), scan("R"));
        let (rows, _) = run(&m, &c, w).unwrap();
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|r| r.len() == 2));
    }
}

#[test]
fn every_operator_populates_stats() {
    // Values counts as a row source; Product and the keyless HashJoin
    // count the cells of every pair they build
    let c = catalog();
    let vals = PhysicalPlan::Values(vec![
        vec![Value::Int(1), Value::Int(2)],
        vec![Value::Int(3), Value::Int(4)],
    ]);
    let prod = PhysicalPlan::Product(scan("R"), scan("S"));
    let keyless = PhysicalPlan::HashJoin(vec![], scan("R"), scan("S"));
    for w in WORKERS {
        let (_, vstats) = run(&vals, &c, w).unwrap();
        assert_eq!(vstats.rows_scanned, 2);
        assert_eq!(vstats.rows_out, 2);
        let (_, pstats) = run(&prod, &c, w).unwrap();
        assert_eq!(pstats.rows_processed, 100);
        assert_eq!(pstats.cells_processed, 100 * 4, "product counts cells");
        let (_, kstats) = run(&keyless, &c, w).unwrap();
        assert_eq!(kstats.cells_processed, 100 * 4, "keyless join counts cells");
    }
}

#[test]
fn lowering_agrees_with_the_walker() {
    let c = catalog();
    let q = Query::rel("R")
        .select(Pred::eq_cols(1, 1))
        .union(Query::rel("S"))
        .project([0]);
    let expected = genpar_algebra::eval::eval(&q, &db_from_catalog(&c)).unwrap();
    let plan = lower(&q).unwrap();
    for w in WORKERS {
        let (rows, _) = run(&plan, &c, w).unwrap();
        assert_eq!(rows_to_value(rows), expected);
    }
}

#[test]
fn budget_stops_product_early_with_partial_stats() {
    let c = catalog();
    let prod = PhysicalPlan::Product(scan("R"), scan("S"));
    for w in WORKERS {
        let _scope = genpar_guard::ExecBudget::default()
            .with_max_steps(40)
            .enter();
        match run(&prod, &c, w).unwrap_err() {
            ExecError::Budget {
                resource, partial, ..
            } => {
                assert_eq!(resource, genpar_guard::Resource::Steps);
                // the breach reports the work done before the cap (both
                // scans), not zero and not the full 10×10 product
                assert_eq!(partial.rows_scanned, 20, "{partial:?}");
                assert!(partial.rows_processed < 100, "{partial:?}");
            }
            other => panic!("expected Budget at {w} workers, got {other:?}"),
        }
    }
}

#[test]
fn rows_cap_stops_oversized_results() {
    let c = catalog();
    for w in WORKERS {
        let _scope = genpar_guard::ExecBudget::default().with_max_rows(3).enter();
        let err = run(&PhysicalPlan::Scan("R".into()), &c, w).unwrap_err();
        assert!(err.is_budget(), "{err}");
        assert!(err.to_string().contains("rows limit 3"), "{err}");
    }
}

#[test]
fn panic_in_operator_becomes_internal_error() {
    let c = catalog();
    let m = PhysicalPlan::MapRows(
        ValueFn::custom(|_| panic!("operator bug: bad row")),
        scan("R"),
    );
    for w in WORKERS {
        match run(&m, &c, w).unwrap_err() {
            ExecError::Internal(msg) => assert!(msg.contains("operator bug"), "{msg}"),
            other => panic!("expected Internal at {w} workers, got {other:?}"),
        }
    }
}

#[test]
fn bare_map_output_is_an_internal_error_not_a_wrapped_row() {
    // lower never builds this plan; built by hand, the executor refuses
    // to invent the 1-tuple the walker would not produce
    let c = catalog();
    let m = PhysicalPlan::MapRows(ValueFn::Proj(0), scan("R"));
    for w in WORKERS {
        match run(&m, &c, w).unwrap_err() {
            ExecError::Internal(msg) => assert!(msg.contains("bare value"), "{msg}"),
            other => panic!("expected Internal at {w} workers, got {other:?}"),
        }
    }
}

#[test]
fn plan_spans_nest_under_the_run_span() {
    let c = catalog();
    let p = PhysicalPlan::Project(vec![0], scan("R"));
    for w in WORKERS {
        let scope = genpar_obs::Scope::anonymous();
        let guard = scope.enter();
        run(&p, &c, w).unwrap();
        drop(guard);
        let snap = scope.snapshot();
        let exec = snap
            .spans
            .iter()
            .find(|s| s.name == "exec.parallel")
            .expect("exec.parallel run span recorded");
        let project = exec
            .children
            .iter()
            .find(|s| s.name == "plan.Project")
            .expect("plan.Project nested under the run span");
        assert_eq!(project.fields["rows_in"], 10);
        assert_eq!(project.children[0].name, "plan.Scan");
        assert_eq!(snap.counters["exec.rows_scanned"], 10);
        assert_eq!(snap.counters["exec.cells_processed"], 20);
        assert_eq!(snap.counters["exec.executions"], 1);
    }
}

/// An edge relation for the fixpoint cases: a 12-node chain plus two
/// chords, so closures take several rounds and joins fan out.
fn edges() -> Catalog {
    let mut e = Table::new("E", Schema::uniform(CvType::int(), 2));
    for i in 0..12 {
        e.insert(vec![Value::Int(i), Value::Int(i + 1)]);
    }
    e.insert(vec![Value::Int(2), Value::Int(9)]);
    e.insert(vec![Value::Int(5), Value::Int(1)]);
    Catalog::new().with(e)
}

/// Run a fixpoint on its prepared-round route and compare it with the
/// walker at 1, 2 and 4 workers, with default morsels and with one-row
/// morsels (so a round's probe rows fan out on the pool).
fn assert_rounds_match_walker(q: &Query, c: &Catalog) {
    let truth = genpar_algebra::eval::eval(q, &db_from_catalog(c)).unwrap();
    for w in [1, 2, 4] {
        for cfg in [
            ExecConfig::serial().with_workers(w),
            ExecConfig::serial().with_workers(w).with_morsel_rows(1),
        ] {
            let (v, _, route) = eval_query(q, c, &cfg).unwrap();
            assert!(
                matches!(route, ExecRoute::Parallel { .. }),
                "{q} left the fixpoint route at {cfg:?}: {route:?}"
            );
            assert_eq!(v, truth, "{q} diverged from the walker at {cfg:?}");
        }
    }
}

/// `π[$1,$4](X ⋈[$2=$1] E)`, the transitive-closure step.
fn closure_step(e: Query) -> Query {
    Query::rel("X").join_on(e, [(1, 0)]).project(vec![0, 3])
}

#[test]
fn prepared_rounds_probe_either_join_side() {
    let c = edges();
    // loop variable on the left: E is the build side on the right
    let left = Query::fixpoint("X", Query::rel("E"), closure_step(Query::rel("E")));
    // loop variable on the right: E is the build side on the left, and
    // joined rows keep E's columns first
    let right = Query::fixpoint(
        "X",
        Query::rel("E"),
        Query::rel("E")
            .join_on(Query::rel("X"), [(1, 0)])
            .project(vec![0, 3]),
    );
    for q in [left, right] {
        assert_rounds_match_walker(&q, &c);
    }
}

#[test]
fn prepared_rounds_hoist_invariant_subtrees() {
    let c = edges();
    let e = || Query::rel("E");
    let cases = [
        // an invariant σ over E, hoisted under the join's build side
        closure_step(e().select(Pred::eq_cols(0, 0))),
        // invariant operands of a set operation
        closure_step(e()).union(e()),
        closure_step(e()).difference(e().select(Pred::eq_const(0, Value::Int(2)))),
        // a product with an invariant side
        Query::rel("X")
            .product(e().select(Pred::eq_const(0, Value::Int(3))))
            .project(vec![0, 3]),
    ];
    for step in cases {
        assert_rounds_match_walker(&Query::fixpoint("X", e(), step), &c);
    }
}

#[test]
fn prepared_rounds_run_a_nonlinear_body_on_the_accumulator() {
    // X ⋈ X hoists nothing: each round joins the whole accumulator
    let step = Query::rel("X")
        .join_on(Query::rel("X"), [(1, 0)])
        .project(vec![0, 3]);
    assert_rounds_match_walker(&Query::fixpoint("X", Query::rel("E"), step), &edges());
}

#[test]
fn the_loop_variable_shadows_a_catalog_relation_of_its_name() {
    // a stored X must never be read by the rounds: the walker binds the
    // loop variable over it, and so must the prepared body
    let mut x = Table::new("X", Schema::uniform(CvType::int(), 2));
    x.insert(vec![Value::Int(100), Value::Int(0)]);
    x.insert(vec![Value::Int(7), Value::Int(200)]);
    let c = edges().with(x);
    let q = Query::fixpoint("X", Query::rel("E"), closure_step(Query::rel("E")));
    assert_rounds_match_walker(&q, &c);
    let (v, _, _) = eval_query(&q, &c, &ExecConfig::serial()).unwrap();
    let rows = v.as_set().unwrap();
    assert!(
        rows.iter()
            .all(|t| t.as_tuple().is_some_and(|t| t[0] != Value::Int(100))),
        "the stored X leaked into the closure: {v}"
    );
}

#[test]
fn invariant_inputs_are_evaluated_once_per_query() {
    let c = edges();
    let q = Query::fixpoint("X", Query::rel("E"), closure_step(Query::rel("E")));
    let scope = genpar_obs::Scope::anonymous();
    let guard = scope.enter();
    eval_query(&q, &c, &ExecConfig::serial()).unwrap();
    drop(guard);
    let snap = scope.snapshot();
    let fix = snap
        .spans
        .iter()
        .find(|s| s.name == "exec.fixpoint")
        .expect("exec.fixpoint span recorded");
    assert_eq!(fix.fields["invariant_rows"], 14, "E is evaluated once");
    assert!(fix.fields["rounds"] > 2);
    // the seed and the build side are the only catalog scans; rounds
    // probe the index and never rescan E
    let scans: u64 = fix
        .children
        .iter()
        .filter(|s| s.name == "plan.Scan")
        .map(|s| s.calls)
        .sum();
    assert_eq!(scans, 2, "{fix:?}");
    let round = fix
        .children
        .iter()
        .find(|s| s.name == "exec.fixpoint_round")
        .expect("round spans recorded");
    assert!(round.children.iter().all(|s| s.name != "plan.Scan"));
    // the join's only per-round input is the delta: E sits in an index
    let project = &round.children[0];
    let join = &project.children[0];
    assert_eq!(join.name, "plan.HashJoin");
    assert_eq!(join.fields["rows_in"], round.fields["input_rows"]);
}
