//! Walker-vs-executor parity: on every workload in the relational
//! fragment, the executor's result is `Value`-identical to the algebra
//! walker's — at one worker (inline) and across worker counts and morsel
//! sizes, including degenerate ones. This is the executable
//! form of the partition-safety argument: deterministic hash routing +
//! canonical merge ⇒ the same set, in the same canonical order.

use genpar_algebra::{Pred, Query, ValueFn};
use genpar_engine::plan::lower;
use genpar_engine::schema::{Catalog, Schema};
use genpar_engine::table::Table;
use genpar_engine::workload::{generate_keyed_pair, generate_table, WorkloadSpec};
use genpar_exec::{db_from_catalog, EvalParallel, ExecConfig, ExecRoute};
use genpar_value::{rows_to_value, CvType, Value};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn small_catalog() -> Catalog {
    let mut r = Table::new("R", Schema::uniform(CvType::int(), 2));
    for i in 0..40 {
        r.insert(vec![Value::Int(i), Value::Int(i % 5)]);
    }
    let mut s = Table::new("S", Schema::uniform(CvType::int(), 2));
    for i in 20..60 {
        s.insert(vec![Value::Int(i), Value::Int(i % 5)]);
    }
    Catalog::new().with(r).with(s)
}

fn workload_catalog() -> Catalog {
    let mut rng = StdRng::seed_from_u64(42);
    let (r, s) = generate_keyed_pair(&mut rng, 500, 3, 0.4);
    let t = generate_table(
        &mut rng,
        "T",
        WorkloadSpec {
            rows: 300,
            arity: 2,
            value_range: 50,
            key_on_first: false,
        },
    );
    Catalog::new().with(r).with(s).with(t)
}

fn tier1_queries() -> Vec<Query> {
    vec![
        // every lowerable operator, alone and composed
        Query::rel("R"),
        Query::rel("R").select(Pred::eq_const(1, Value::Int(0))),
        Query::rel("R").project([1]),
        Query::rel("R").map(ValueFn::Cols(vec![1, 0])),
        Query::rel("R").union(Query::rel("S")),
        Query::rel("R").intersect(Query::rel("S")),
        Query::rel("R").difference(Query::rel("S")),
        Query::rel("R").product(Query::rel("S")),
        Query::rel("R").join_on(Query::rel("S"), [(0, 0)]),
        Query::rel("R").join_on(Query::rel("S"), [(0, 0), (1, 1)]),
        Query::rel("R")
            .select(Pred::eq_cols(1, 1))
            .union(Query::rel("S"))
            .project([0]),
        Query::rel("R")
            .join_on(Query::rel("S"), [(1, 1)])
            .project([0, 2])
            .select(Pred::eq_cols(0, 0)),
        Query::rel("R")
            .difference(Query::rel("S"))
            .map(ValueFn::Cols(vec![0]))
            .union(Query::rel("S").project([0])),
    ]
}

/// The walker's answer: the serial truth.
fn walker(q: &Query, catalog: &Catalog) -> Value {
    genpar_algebra::eval::eval(q, &db_from_catalog(catalog)).expect("walker ok")
}

/// Run `f` inside a private obs scope; returns its result and the
/// scope's snapshot (immune to concurrently running tests).
fn scoped<T>(f: impl FnOnce() -> T) -> (T, genpar_obs::Snapshot) {
    let scope = genpar_obs::Scope::anonymous();
    let guard = scope.enter();
    let out = f();
    drop(guard);
    (out, scope.snapshot())
}

fn assert_parity(catalog: &Catalog, q: &Query, cfg: &ExecConfig) {
    let plan = lower(q).expect("tier-1 queries lower");
    let (par_rows, _) = plan.eval_parallel(catalog, cfg).expect("executor ok");
    let par_v = rows_to_value(par_rows.clone());
    assert_eq!(
        walker(q, catalog),
        par_v,
        "executor != walker for {q} at workers={} morsel_rows={}",
        cfg.workers,
        cfg.morsel_rows
    );
    // and rows come out already canonically ordered
    let recanon = genpar_value::canonical_rows(par_rows.clone());
    assert_eq!(par_rows, recanon, "parallel rows not canonical for {q}");
}

#[test]
fn parallel_matches_serial_on_tier1_queries() {
    let small = small_catalog();
    let big = workload_catalog();
    for q in tier1_queries() {
        for workers in [1, 2, 4, 8] {
            for morsel_rows in [1, 7, 1024] {
                let cfg = ExecConfig::serial()
                    .with_workers(workers)
                    .with_morsel_rows(morsel_rows);
                assert_parity(&small, &q, &cfg);
            }
        }
        // workload-scale, default morsels
        assert_parity(&big, &q, &ExecConfig::serial().with_workers(4));
    }
}

#[test]
fn workload_join_parity_at_scale() {
    let c = workload_catalog();
    let q = Query::rel("R")
        .join_on(Query::rel("S"), [(0, 0)])
        .select(Pred::eq_cols(1, 1))
        .project([0, 1, 4]);
    for workers in [2, 4] {
        assert_parity(
            &c,
            &q,
            &ExecConfig::serial()
                .with_workers(workers)
                .with_morsel_rows(64),
        );
    }
}

#[test]
fn eval_query_routes_parallel_with_certificate() {
    let c = small_catalog();
    let q = Query::rel("R")
        .join_on(Query::rel("S"), [(0, 0)])
        .project([0]);
    let (v, _, route) = eval_query(&c, &q, 4);
    match route {
        ExecRoute::Parallel {
            workers,
            certificate,
        } => {
            assert_eq!(workers, 4);
            assert!(certificate.contains("certified"), "{certificate}");
        }
        other => panic!("expected Parallel route, got {other:?}"),
    }
    let (sv, _, sroute) = eval_query(&c, &q, 1);
    assert!(
        matches!(sroute, ExecRoute::Parallel { workers: 1, .. }),
        "one worker runs the same route inline: {sroute:?}"
    );
    assert_eq!(v, sv);
    assert_eq!(v, walker(&q, &c));
}

// thin wrapper so route tests read naturally
fn eval_query(
    c: &Catalog,
    q: &Query,
    workers: usize,
) -> (Value, genpar_engine::plan::ExecStats, ExecRoute) {
    genpar_exec::eval_query(q, c, &ExecConfig::serial().with_workers(workers))
        .expect("eval_query ok")
}

#[test]
fn non_partition_safe_queries_fall_back_with_event() {
    let c = small_catalog();
    let q = Query::Adom(Box::new(Query::rel("R")));
    let ((v, _, route), snap) = scoped(|| eval_query(&c, &q, 4));
    match route {
        ExecRoute::Fallback { op, reason } => {
            assert_eq!(op, "adom");
            assert!(reason.contains("whole-input"), "{reason}");
        }
        other => panic!("expected Fallback route, got {other:?}"),
    }
    // the fallback computed the right answer (adom of R is non-empty)
    assert!(v.as_set().is_some_and(|s| !s.is_empty()));
    // ... and announced itself to the obs registry
    assert!(snap.counters.get("exec.fallbacks").copied().unwrap_or(0) >= 1);
    let ev = snap
        .events
        .iter()
        .find(|e| e.kind == "exec.fallback")
        .expect("exec.fallback event recorded");
    let op_field = ev
        .fields
        .iter()
        .find(|(k, _)| k == "op")
        .expect("fallback event has op field");
    assert_eq!(op_field.1.to_string(), "adom");
}

#[test]
fn even_and_count_take_the_combiner_route_not_fallback() {
    let c = small_catalog();
    let scope = genpar_obs::Scope::anonymous();
    let guard = scope.enter();
    for (q, expect) in [
        (
            Query::Even(Box::new(Query::rel("R"))),
            Value::Bool(true), // |R| = 40
        ),
        (Query::rel("R").count(), Value::Int(40)),
        (
            Query::rel("R").project([1]).count(),
            Value::Int(5), // i % 5 has five residues
        ),
        (
            Query::rel("R").sum(1),
            Value::Int((0..40).map(|i| i % 5).sum()),
        ),
    ] {
        let (v, _, route) = eval_query(&c, &q, 4);
        match route {
            ExecRoute::Parallel { certificate, .. } => {
                assert!(certificate.contains("combiner"), "{certificate}");
                assert!(certificate.contains("serial combine"), "{certificate}");
            }
            other => panic!("expected combiner Parallel route for {q}, got {other:?}"),
        }
        assert_eq!(v, expect, "wrong aggregate for {q}");
        // one worker and the walker agree
        let (sv, _, _) = eval_query(&c, &q, 1);
        assert_eq!(v, sv, "1-worker/4-worker disagree for {q}");
        assert_eq!(v, walker(&q, &c), "executor/walker disagree for {q}");
    }
    drop(guard);
    let snap = scope.snapshot();
    assert_eq!(
        snap.counters.get("exec.fallbacks").copied().unwrap_or(0),
        0,
        "certified aggregates must not fall back"
    );
    assert!(
        snap.histograms
            .get("exec.combine_us")
            .is_some_and(|h| h.count > 0),
        "combine step recorded in exec.combine_us"
    );
}

/// Satellite 2: the xor-of-partition-parities pitfall, pinned
/// (Lemma 2.12: `even(R₁∪R₂)` is not a function of `even(R₁)` and
/// `even(R₂)`). A crafted 3-partition input whose partitions have even
/// sizes (2, 2, 2): xor of the per-partition parity bits is 0, which the
/// naive scheme reads as "even parity → even(R) = true"... and on
/// (2, 2) it is also 0 — but on (1, 1) it is likewise 0 while |R| = 2 IS
/// even, and on (1, 1, 1) it is 1 while |R| = 3 is odd, so no fixed
/// reading of the xor bit is right in both cases. The combiner route
/// sums partition COUNTS instead and must return the true parity on all
/// of them.
#[test]
fn even_regression_xor_of_partition_parities_is_not_parity() {
    let q = Query::Even(Box::new(Query::rel("R")));
    // (rows, morsel_rows, workers): partitions sizes and the two naive
    // xor readings — parity-bit xor and even-flag xor — each wrong on
    // one of these inputs, while the true answer is |rows| mod 2 == 0.
    for (rows, morsel_rows, workers) in [(3usize, 1usize, 3usize), (6, 2, 3), (4, 2, 2), (2, 1, 2)]
    {
        let mut r = Table::new("R", Schema::uniform(CvType::int(), 1));
        for i in 0..rows {
            r.insert(vec![Value::Int(i as i64)]);
        }
        let c = Catalog::new().with(r);
        let cfg = ExecConfig::serial()
            .with_workers(workers)
            .with_morsel_rows(morsel_rows);
        let truth = rows % 2 == 0;
        // naive per-partition flags for this exact chunking
        let nparts = rows.div_ceil(morsel_rows);
        let even_flags: Vec<bool> = (0..nparts)
            .map(|p| (morsel_rows.min(rows - p * morsel_rows)) % 2 == 0)
            .collect();
        let xor_of_even_flags = even_flags.iter().fold(false, |a, &b| a ^ b);
        let (v, _, route) = genpar_exec::eval_query(&q, &c, &cfg).expect("eval ok");
        assert!(
            matches!(route, ExecRoute::Parallel { .. }),
            "combiner route expected for even(R)"
        );
        assert_eq!(v, Value::Bool(truth), "wrong parity for |R|={rows}");
        if rows == 4 {
            // the pinned counterexample: two even partitions, xor of
            // even-flags = false, truth = true
            assert_ne!(
                truth, xor_of_even_flags,
                "xor of partition even-flags must disagree on (2,2)"
            );
        }
    }
}

#[test]
fn fixpoint_routes_parallel_and_matches_serial() {
    // transitive closure of a chain + a cycle, via fix[X](E, π(X⋈E))
    let mut e = Table::new("E", Schema::uniform(CvType::int(), 2));
    for i in 0..30 {
        e.insert(vec![Value::Int(i), Value::Int(i + 1)]);
    }
    e.insert(vec![Value::Int(30), Value::Int(0)]); // close the cycle
    let c = Catalog::new().with(e);
    let step = Query::rel("X")
        .join_on(Query::rel("E"), [(1, 0)])
        .project([0, 3]);
    let q = Query::fixpoint("X", Query::rel("E"), step);
    let ((v, _, route), snap) = scoped(|| eval_query(&c, &q, 4));
    match route {
        ExecRoute::Parallel {
            workers,
            certificate,
        } => {
            assert_eq!(workers, 4);
            assert!(
                certificate.contains("per-round body certified"),
                "{certificate}"
            );
            assert!(
                certificate.contains("semi-naive deltas: yes"),
                "{certificate}"
            );
        }
        other => panic!("expected Parallel route, got {other:?}"),
    }
    let (sv, _, sroute) = eval_query(&c, &q, 1);
    assert!(matches!(sroute, ExecRoute::Parallel { workers: 1, .. }));
    assert_eq!(v, sv, "4-worker fixpoint != 1-worker fixpoint");
    assert_eq!(v, walker(&q, &c), "executor fixpoint != walker fixpoint");
    // a closed 31-cycle's closure is complete: 31 × 31 pairs
    assert_eq!(v.as_set().map(|s| s.len()), Some(31 * 31));
    assert!(
        snap.counters
            .get("exec.fixpoint_rounds")
            .copied()
            .unwrap_or(0)
            >= 2
    );
    assert!(
        snap.histograms
            .get("exec.fixpoint_round_us")
            .is_some_and(|h| h.count > 0),
        "per-round latency recorded"
    );
    fn has_span(nodes: &[genpar_obs::SpanNode], name: &str) -> bool {
        nodes
            .iter()
            .any(|n| n.name == name || has_span(&n.children, name))
    }
    assert!(
        has_span(&snap.spans, "exec.fixpoint"),
        "exec.fixpoint span recorded"
    );
    assert!(
        has_span(&snap.spans, "exec.fixpoint_round"),
        "per-round spans recorded"
    );
}

#[test]
fn nonlinear_fixpoint_body_runs_full_accumulator_rounds() {
    // X ⋈ X mentions the loop variable twice: not semi-naive eligible,
    // but still round-safe — each round re-evaluates on the full
    // accumulator and must agree with serial evaluation.
    let mut e = Table::new("E", Schema::uniform(CvType::int(), 2));
    for i in 0..12 {
        e.insert(vec![Value::Int(i), Value::Int(i + 1)]);
    }
    let c = Catalog::new().with(e);
    let step = Query::rel("X")
        .join_on(Query::rel("X"), [(1, 0)])
        .project([0, 3]);
    let q = Query::fixpoint("X", Query::rel("E"), step);
    let (v, _, route) = eval_query(&c, &q, 4);
    match route {
        ExecRoute::Parallel { certificate, .. } => {
            assert!(
                certificate.contains("semi-naive deltas: no"),
                "{certificate}"
            );
        }
        other => panic!("expected Parallel route, got {other:?}"),
    }
    assert_eq!(v, walker(&q, &c), "nonlinear fixpoint executor != walker");
    // TC of a 13-node path: n(n-1)/2 ordered reachable pairs
    assert_eq!(v.as_set().map(|s| s.len()), Some(13 * 12 / 2));
}

#[test]
fn fixpoint_depth_budget_propagates_in_parallel_route() {
    // divergent-ish body bounded by an armed depth budget: the parallel
    // route reports the same Depth breach the serial loop would
    let mut e = Table::new("E", Schema::uniform(CvType::int(), 2));
    for i in 0..64 {
        e.insert(vec![Value::Int(i), Value::Int(i + 1)]);
    }
    let c = Catalog::new().with(e);
    let step = Query::rel("X")
        .join_on(Query::rel("E"), [(1, 0)])
        .project([0, 3]);
    let q = Query::fixpoint("X", Query::rel("E"), step);
    let budget = genpar_guard::ExecBudget::unlimited().with_max_depth(3);
    let _scope = budget.enter();
    let err = genpar_exec::eval_query(&q, &c, &ExecConfig::serial().with_workers(4)).unwrap_err();
    match err {
        genpar_engine::plan::ExecError::Budget { resource, .. } => {
            assert_eq!(resource, genpar_guard::Resource::Depth);
        }
        other => panic!("expected a Depth budget error, got {other:?}"),
    }
}

#[test]
fn powerset_falls_back_and_matches_algebra() {
    let mut r = Table::new("R", Schema::uniform(CvType::int(), 1));
    for i in 0..4 {
        r.insert(vec![Value::Int(i)]);
    }
    let c = Catalog::new().with(r);
    let q = Query::Powerset(Box::new(Query::rel("R")));
    let (v, _, route) = eval_query(&c, &q, 4);
    assert!(matches!(route, ExecRoute::Fallback { op: "powerset", .. }));
    assert_eq!(v.as_set().map(|s| s.len()), Some(16)); // 2^4 subsets
}

#[test]
fn opaque_map_closure_falls_back() {
    let c = small_catalog();
    let q = Query::rel("R").map(ValueFn::custom(|v| v.clone()));
    let (_, _, route) = eval_query(&c, &q, 4);
    assert!(
        matches!(route, ExecRoute::Fallback { op: "map", .. }),
        "uncertified closures must not run parallel: {route:?}"
    );
}

#[test]
fn unknown_table_errors_in_parallel_too() {
    let c = small_catalog();
    let plan = lower(&Query::rel("ZZZ")).unwrap();
    let err = plan
        .eval_parallel(&c, &ExecConfig::serial().with_workers(4))
        .unwrap_err();
    assert!(matches!(
        err,
        genpar_engine::plan::ExecError::UnknownTable(_)
    ));
}

#[test]
fn worker_spans_and_morsel_counters_recorded() {
    let c = workload_catalog();
    let plan = lower(&Query::rel("R").select(Pred::eq_cols(0, 0))).unwrap();
    let cfg = ExecConfig::serial().with_workers(4).with_morsel_rows(32);
    let (_, snap) = scoped(|| plan.eval_parallel(&c, &cfg).unwrap());
    assert!(snap.counters.get("exec.morsels").copied().unwrap_or(0) >= 2);
    assert!(snap.counters.get("exec.executions") == Some(&1));
    assert!(
        snap.spans.iter().any(|s| s.name == "exec.worker"),
        "worker spans recorded as top-level spans"
    );
    assert!(
        snap.spans.iter().any(|s| s.name == "exec.parallel"),
        "exec.parallel span recorded"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random relational-fragment queries over random tables evaluate
    /// `Value`-identically on the walker and the executor, at every
    /// tested worker count (one included) and morsel size.
    #[test]
    fn prop_parallel_value_equals_serial(
        rows_r in proptest::collection::vec((0i64..30, 0i64..6), 0..60),
        rows_s in proptest::collection::vec((0i64..30, 0i64..6), 0..60),
        workers in 1usize..6,
        morsel_rows in 1usize..40,
        pick in 0usize..9,
    ) {
        let mut r = Table::new("R", Schema::uniform(CvType::int(), 2));
        for (a, b) in rows_r {
            r.insert(vec![Value::Int(a), Value::Int(b)]);
        }
        let mut s = Table::new("S", Schema::uniform(CvType::int(), 2));
        for (a, b) in rows_s {
            s.insert(vec![Value::Int(a), Value::Int(b)]);
        }
        let c = Catalog::new().with(r).with(s);
        let qs = tier1_queries();
        let q = &qs[pick % qs.len()];
        let plan = lower(q).expect("lowerable");
        let cfg = ExecConfig::serial().with_workers(workers).with_morsel_rows(morsel_rows);
        let (par_rows, _) = plan.eval_parallel(&c, &cfg).expect("executor ok");
        prop_assert_eq!(walker(q, &c), rows_to_value(par_rows));
    }
}
