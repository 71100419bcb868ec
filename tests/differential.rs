//! Walker-vs-executor differential oracle.
//!
//! The executor's one correctness contract is *route equivalence*: for
//! any query, `eval_query` must produce the same canonical `Value` as
//! the algebra walker (the serial truth) on every route — plain
//! partitioning, per-round fixpoint evaluation, the combiner class and
//! the walker fallback — at any worker count and any morsel size. These
//! properties generate hundreds of random plans per shape (fixpoint
//! bodies, root combiners, and mixed/uncertified plans, over binary and
//! unary relations, with tuple-valued and bare-valued maps) over random
//! databases and assert byte-identical results across worker counts
//! {1, 2, 4} and several pinned morsel sizes.
//!
//! Everything is driven through [`genpar_exec::ExecConfig`] rather than
//! the `GENPAR_PARALLEL`/`GENPAR_MORSEL` environment (same code paths,
//! but hermetic under any ambient CI environment).

use genpar_algebra::{Pred, Query, ValueFn};
use genpar_engine::workload::{generate_edges, generate_table, WorkloadSpec};
use genpar_engine::Catalog;
use genpar_exec::{db_from_catalog, eval_query, ExecConfig};
use genpar_value::Value;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Worker counts and pinned morsel sizes every query is checked at.
const WORKERS: [usize; 3] = [1, 2, 4];
const MORSELS: [usize; 4] = [1, 16, 64, 256];

/// Assert the differential contract for one query: every executor
/// configuration reproduces the walker's value, bytewise.
fn assert_differential(q: &Query, cat: &Catalog) -> Result<(), TestCaseError> {
    let truth = genpar_algebra::eval::eval(q, &db_from_catalog(cat))
        .map_err(|e| TestCaseError::Fail(format!("walker eval failed on {q}: {e}")))?;
    let truth_bytes = truth.to_string();
    for w in WORKERS {
        for m in MORSELS {
            let cfg = ExecConfig::serial().with_workers(w).with_morsel_rows(m);
            let (v, _, route) = eval_query(q, cat, &cfg).map_err(|e| {
                TestCaseError::Fail(format!("executor eval failed on {q} (w={w}, m={m}): {e}"))
            })?;
            prop_assert_eq!(
                &v,
                &truth,
                "value diverged on {} (w={}, m={}, route={:?})",
                q,
                w,
                m,
                route
            );
            prop_assert_eq!(
                v.to_string(),
                truth_bytes.clone(),
                "canonical rendering diverged on {} (w={}, m={})",
                q,
                w,
                m
            );
        }
    }
    Ok(())
}

/// A random flat inner plan over `R`, `S` and the unary `U`, paired with
/// its output arity (so aggregate columns stay in range). Most shapes
/// are distributive — certified input for the combiner and
/// plain-partition routes; the bare-valued maps are refused by the gate
/// and exercise the walker route under the same oracle.
fn random_inner(rng: &mut StdRng) -> (Query, usize) {
    let r = Query::rel("R");
    let s = Query::rel("S");
    let u = Query::rel("U");
    let succ = || ValueFn::Interp("succ".into());
    match rng.gen_range(0..15) {
        0 => (r, 2),
        1 => (r.project(vec![rng.gen_range(0..2usize)]), 1),
        2 => (r.select(Pred::eq_cols(0, 1)), 2),
        3 => (
            r.select(Pred::eq_const(1, Value::Int(rng.gen_range(0..5)))),
            2,
        ),
        4 => (r.union(s), 2),
        5 => (r.difference(s), 2),
        // VM-compiled kernels: an interpreted σ and a column-shuffling
        // map exercise the bytecode route wherever an inner plan goes
        6 => (
            r.select(Pred::Named("even".into(), vec![rng.gen_range(0..2)])),
            2,
        ),
        7 => (r.map(ValueFn::Cols(vec![1, 0])), 2),
        8 => (r.join_on(s, [(0, 0)]).project(vec![0, 1, 3]), 3),
        // unary relations, alone and mixed with binary ones
        9 => (u, 1),
        10 => (u.union(r.project(vec![1])), 1),
        11 => (u.join_on(r, [(0, 0)]), 3),
        // bare-valued maps: elements are not tuples
        12 => (r.map(ValueFn::Proj(rng.gen_range(0..2))), 1),
        13 => (u.map(succ()), 1),
        _ => (
            r.map(ValueFn::Compose(
                Box::new(ValueFn::Proj(0)),
                Box::new(succ()),
            )),
            1,
        ),
    }
}

/// A random database for the flat shapes: two binary relations and a
/// unary one, with a small value range (collisions exercise dedup in the
/// canonical merge).
fn random_flat_catalog(rng: &mut StdRng) -> Catalog {
    let spec = |rows, arity| WorkloadSpec {
        rows,
        arity,
        value_range: 12,
        key_on_first: false,
    };
    let r_rows = rng.gen_range(0..180);
    let s_rows = rng.gen_range(0..120);
    let u_rows = rng.gen_range(0..12);
    let r = generate_table(rng, "R", spec(r_rows, 2));
    let s = generate_table(rng, "S", spec(s_rows, 2));
    let u = generate_table(rng, "U", spec(u_rows, 1));
    Catalog::new().with(r).with(s).with(u)
}

/// A random fixpoint step body over loop variable `X` and edges `E`.
/// Mixes delta-linear bodies (semi-naive rounds) with nonlinear ones
/// (full-accumulator rounds), and places loop-invariant subtrees where
/// the prepared round plan hoists them: a join's build side on either
/// side, a σ under it, set-operation operands and a product side.
fn random_step(rng: &mut StdRng) -> Query {
    let x = || Query::rel("X");
    let e = || Query::rel("E");
    let k = Value::Int(rng.gen_range(0..8));
    match rng.gen_range(0..9) {
        // an invariant σ over E, hoisted into the join's build side
        5 => x()
            .join_on(e().select(Pred::Named("even".into(), vec![0])), [(1, 0)])
            .project(vec![0, 3]),
        6 => x()
            .join_on(e(), [(1, 0)])
            .project(vec![0, 3])
            .difference(e().select(Pred::eq_const(0, k))),
        // a product with an invariant side
        7 => x()
            .product(e().select(Pred::eq_const(0, k)))
            .project(vec![0, 3]),
        // build side on the left, with an invariant σ
        8 => e()
            .select(Pred::eq_cols(0, 0))
            .join_on(x(), [(1, 0)])
            .project(vec![0, 3]),
        // transitive closure, delta on the left
        0 => x().join_on(e(), [(1, 0)]).project(vec![0, 3]),
        // delta on the right
        1 => e().join_on(x(), [(1, 0)]).project(vec![0, 3]),
        // union with the base relation
        2 => x().join_on(e(), [(1, 0)]).project(vec![0, 3]).union(e()),
        // selection over the growing set
        3 => x()
            .join_on(e(), [(1, 0)])
            .project(vec![0, 3])
            .select(Pred::True),
        // nonlinear: X ⋈ X (forces full-accumulator rounds)
        _ => x().join_on(x(), [(1, 0)]).project(vec![0, 3]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Shape 1 — root fixpoints: random graphs, random (linear and
    /// nonlinear) bodies, walker and executor saturation agree exactly.
    #[test]
    fn differential_fixpoint(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = rng.gen_range(2..14);
        let chain = rng.gen_bool(0.5);
        let degree = rng.gen_range(0.0..2.0);
        let e = generate_edges(&mut rng, "E", nodes, degree, chain);
        let mut cat = Catalog::new().with(e);
        // a stored relation named like the loop variable, which the
        // rounds must never read
        if rng.gen_bool(0.3) {
            cat.add(generate_edges(&mut rng, "X", nodes + 3, 1.0, false));
        }
        let q = Query::fixpoint("X", Query::rel("E"), random_step(&mut rng));
        assert_differential(&q, &cat)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Shape 2 — root combiners: `count`, `sum`, `even` over random
    /// distributive plans; partial accumulators + serial combine must
    /// equal the walker's whole-set aggregate.
    #[test]
    fn differential_combiner(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cat = random_flat_catalog(&mut rng);
        let (inner, arity) = random_inner(&mut rng);
        let q = match rng.gen_range(0..3) {
            0 => inner.count(),
            1 => inner.sum(rng.gen_range(0..arity)),
            _ => Query::Even(Box::new(inner)),
        };
        assert_differential(&q, &cat)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Shape 4 — fault-degraded routes: with faults armed on the
    /// per-round fixpoint site and the first combine, the parallel
    /// routes degrade to the walker mid-query — and the
    /// oracle still holds: a degraded route returns the *correct*
    /// answer, never a wrong one.
    ///
    /// Arming is programmatic (not `GENPAR_FAULTS`: the env is only
    /// read by binaries that opt in) and scoped to sites the plain
    /// partition route never hits, so concurrently running shapes see
    /// at worst a benign degradation of their own fixpoint/combiner
    /// cases.
    #[test]
    fn differential_under_armed_faults(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cat = random_flat_catalog(&mut rng);
        let nodes = rng.gen_range(2..10);
        cat.add(generate_edges(&mut rng, "E", nodes, 1.0, true));
        let q = match rng.gen_range(0..3) {
            0 => Query::fixpoint("X", Query::rel("E"), random_step(&mut rng)),
            1 => random_inner(&mut rng).0.count(),
            _ => Query::Even(Box::new(random_inner(&mut rng).0)),
        };
        // re-armed per case: hit counters reset, so each case gets its
        // own injected failure (2nd fixpoint round / 1st combine / 2nd
        // VM engage — the last degrades σ/map morsels to the AST walker)
        genpar_guard::arm_faults("exec.fixpoint_round:2,exec.combine:1,vm.exec:2")
            .map_err(|e| TestCaseError::Fail(format!("arm_faults: {e}")))?;
        let verdict = assert_differential(&q, &cat);
        genpar_guard::disarm_faults();
        verdict?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Shape 5 — the retry rung: a morsel fault is injected so the
    /// in-place retry machinery (the `exec.retry` gate) actually runs,
    /// and every retried morsel must reproduce the serial value exactly
    /// — at 2 and 4 workers and every pinned morsel size. Half the
    /// cases additionally fault the retry gate itself
    /// (`exec.retry:1`), forcing escalation past the in-place rung
    /// (requeue → quarantine → serial fallback); the oracle holds on
    /// every rung.
    ///
    /// Like shape 4, arming is programmatic and process-global:
    /// concurrently running shapes that hit `exec.morsel` see at worst
    /// a benign retry or degradation of their own cases — never a
    /// wrong answer, which is exactly the property under test.
    #[test]
    fn differential_under_retried_morsels(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cat = random_flat_catalog(&mut rng);
        let q = random_inner(&mut rng).0;
        let spec = if rng.gen_bool(0.5) {
            "exec.morsel:2"
        } else {
            "exec.morsel:2,exec.retry:1"
        };
        genpar_guard::arm_faults(spec)
            .map_err(|e| TestCaseError::Fail(format!("arm_faults: {e}")))?;
        let verdict = assert_differential(&q, &cat);
        genpar_guard::disarm_faults();
        verdict?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Shape 3 — mixed: plain partition-safe plans, combiners, fixpoints
    /// and uncertified whole-set operators drawn together, so the route
    /// dispatch itself (including the walker fallback) is part of the
    /// differential surface.
    #[test]
    fn differential_mixed(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cat = random_flat_catalog(&mut rng);
        let nodes = rng.gen_range(2..10);
        cat.add(generate_edges(&mut rng, "E", nodes, 1.0, true));
        let q = match rng.gen_range(0..6) {
            // plain certified plan — the classic partition route
            0 => random_inner(&mut rng).0,
            // combiner over a certified plan
            1 => random_inner(&mut rng).0.count(),
            2 => Query::Even(Box::new(random_inner(&mut rng).0)),
            // per-round fixpoint
            3 => Query::fixpoint("X", Query::rel("E"), random_step(&mut rng)),
            // uncertified: whole-input operator → walker fallback route
            4 => Query::Adom(Box::new(random_inner(&mut rng).0)),
            // aggregate *below* the root is uncertified too
            _ => Query::Singleton(Box::new(random_inner(&mut rng).0.count())),
        };
        assert_differential(&q, &cat)?;
    }
}
