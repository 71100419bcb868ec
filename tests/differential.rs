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
//! {1, 2, 4} and several pinned morsel sizes, with the bytecode VM on
//! and, at every worker count, switched off (walker and kernels then
//! evaluate every σ/map on the AST). Ill-typed applications — `succ` on
//! a binary row, `even` and `lt` on atoms — are part of every shape's
//! generator: there the walker's answer is a domain error (§2.5), and
//! every route must return that same error.
//!
//! Everything is driven through [`genpar_exec::ExecConfig`]; the
//! library reads no environment.

use genpar::optimizer::{
    optimize, optimize_costed_parallel_with_stats, Calibration, Constraints, Rule, RuleSet,
};
use genpar_algebra::{EvalError, Pred, Query, ValueFn};
use genpar_engine::plan::ExecError;
use genpar_engine::workload::{generate_edges, generate_keyed_pair, generate_table, WorkloadSpec};
use genpar_engine::{Catalog, Schema, Table};
use genpar_exec::{db_from_catalog, eval_query, ExecConfig};
use genpar_value::{CvType, DomainError, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Worker counts and pinned morsel sizes every query is checked at.
const WORKERS: [usize; 3] = [1, 2, 4];
const MORSELS: [usize; 4] = [1, 16, 64, 256];
/// The morsel size of the VM-off pass at each worker count.
const VM_OFF_MORSEL: usize = 16;

/// Assert the differential contract for one query: every executor
/// configuration reproduces the walker's value, bytewise, or its domain
/// error.
fn assert_differential(q: &Query, cat: &Catalog) -> Result<(), TestCaseError> {
    assert_routes_match(q, &walker(q, cat)?, cat, &WORKERS)
}

/// The serial truth: the walker's value, or the domain error of an
/// ill-typed application. Any other error fails the case.
type Truth = Result<Value, DomainError>;

/// The serial truth for `q` on the algebra walker.
fn walker(q: &Query, cat: &Catalog) -> Result<Truth, TestCaseError> {
    walk(q, cat, true)
}

fn walk(q: &Query, cat: &Catalog, vm: bool) -> Result<Truth, TestCaseError> {
    match genpar_algebra::eval::eval(q, &db_from_catalog(cat).with_vm(vm)) {
        Ok(v) => Ok(Ok(v)),
        Err(EvalError::Domain(d)) => Ok(Err(d)),
        Err(e) => Err(TestCaseError::Fail(format!(
            "walker eval failed on {q}: {e}"
        ))),
    }
}

/// The bytes a truth renders to: the value, or the error message.
fn render(t: &Truth) -> String {
    match t {
        Ok(v) => v.to_string(),
        Err(d) => d.to_string(),
    }
}

/// `eval_query` reproduces `truth` bytewise on `q` at each of `workers`
/// and every pinned morsel size with the VM on, and at each of `workers`
/// with the VM off — as does the walker with the VM off.
fn assert_routes_match(
    q: &Query,
    truth: &Truth,
    cat: &Catalog,
    workers: &[usize],
) -> Result<(), TestCaseError> {
    let truth_bytes = render(truth);
    prop_assert_eq!(
        &walk(q, cat, false)?,
        truth,
        "walker with the VM off diverged on {}",
        q
    );
    for &w in workers {
        let grid = MORSELS.iter().map(|&m| (m, true));
        for (m, vm) in grid.chain([(VM_OFF_MORSEL, false)]) {
            let cfg = ExecConfig::serial()
                .with_workers(w)
                .with_morsel_rows(m)
                .with_vm(vm);
            let (v, route) = match eval_query(q, cat, &cfg) {
                Ok((v, _, route)) => (Ok(v), Some(route)),
                Err(ExecError::Domain(d)) => (Err(d), None),
                Err(e) => {
                    return Err(TestCaseError::Fail(format!(
                        "executor eval failed on {q} (w={w}, m={m}, vm={vm}): {e}"
                    )))
                }
            };
            prop_assert_eq!(
                &v,
                truth,
                "value diverged on {} (w={}, m={}, vm={}, route={:?})",
                q,
                w,
                m,
                vm,
                route
            );
            prop_assert_eq!(
                render(&v),
                truth_bytes.clone(),
                "canonical rendering diverged on {} (w={}, m={}, vm={})",
                q,
                w,
                m,
                vm
            );
        }
    }
    Ok(())
}

/// A random flat inner plan over `R`, `S`, the unary `U` and the atoms
/// `A`, paired with its output arity (so aggregate columns stay in
/// range). Most shapes are distributive — certified input for the
/// combiner and plain-partition routes; the bare-valued maps are
/// refused by the gate and exercise the walker route under the same
/// oracle. The ill-typed applications fail on any non-empty input.
fn random_inner(rng: &mut StdRng) -> (Query, usize) {
    let r = Query::rel("R");
    let s = Query::rel("S");
    let u = Query::rel("U");
    let a = Query::rel("A");
    let succ = || ValueFn::Interp("succ".into());
    let named = |p: &str, cols: Vec<usize>| Pred::Named(p.into(), cols);
    match rng.gen_range(0..19) {
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
        // ill-typed: `succ` takes an int, not a binary row — inside a
        // row-shaped map (executor) and as a bare map (walker)
        15 => (
            r.map(ValueFn::Pair(Box::new(succ()), Box::new(ValueFn::Proj(0)))),
            2,
        ),
        16 => (r.map(succ()), 1),
        // ill-typed: `even` and `lt` take ints, not atoms
        17 => (a.select(named("even", vec![0])), 1),
        18 => (
            a.product(u)
                .select(named("lt", vec![rng.gen_range(0..2), 1])),
            2,
        ),
        _ => (
            r.map(ValueFn::Compose(
                Box::new(ValueFn::Proj(0)),
                Box::new(succ()),
            )),
            1,
        ),
    }
}

/// A random inner plan some Section 4.4 rule rewrites: π, σ or map
/// (`map[succ]` too) over ∪, π∘π, σ∘σ and σ over ×; with `keyed` (a
/// catalog where `$1` is a key for R ∪ S) also π and a column map over −
/// and ∩.
fn rewritable_inner(rng: &mut StdRng, keyed: bool) -> Query {
    fn pred(rng: &mut StdRng) -> Pred {
        match rng.gen_range(0..3) {
            0 => Pred::eq_cols(0, 1),
            1 => Pred::eq_const(rng.gen_range(0..2), Value::Int(rng.gen_range(0..12))),
            _ => Pred::Named("even".into(), vec![rng.gen_range(0..2)]),
        }
    }
    let r = Query::rel("R");
    let s = Query::rel("S");
    match rng.gen_range(0..if keyed { 12 } else { 8 }) {
        0 => r.union(s).project(vec![rng.gen_range(0..2usize)]),
        1 => r.union(s).select(pred(rng)),
        2 => r.union(s).map(ValueFn::Cols(vec![1, 0])),
        3 => r
            .project(vec![1, 0])
            .project(vec![rng.gen_range(0..2usize)]),
        4 => r.select(pred(rng)).select(pred(rng)),
        // the predicate reads left columns only, so it moves under ×
        5 => r.product(s).select(pred(rng)),
        // several rules in one plan
        6 => r.union(s).select(pred(rng)).project(vec![0]),
        // a bare-valued interpreted map over ∪ of unary operands
        7 => r
            .project(vec![0])
            .union(s.project(vec![1]))
            .map(ValueFn::Interp("succ".into())),
        8 => r.difference(s).project(vec![0]),
        9 => r.difference(s).map(ValueFn::Cols(vec![0, 1])),
        10 => r.intersect(s).project(if rng.gen_bool(0.5) {
            vec![0]
        } else {
            vec![1, 0]
        }),
        _ => r.intersect(s).map(if rng.gen_bool(0.5) {
            ValueFn::Cols(vec![0])
        } else {
            ValueFn::Proj(0)
        }),
    }
}

/// π[$1] or `map[$1]` over − or ∩ with no key asserted: the mapping is
/// not proven injective, so no commutation may fire (Prop 3.4).
fn unproven_inner(rng: &mut StdRng) -> Query {
    let (r, s) = (Query::rel("R"), Query::rel("S"));
    let operands = if rng.gen_bool(0.5) {
        r.difference(s)
    } else {
        r.intersect(s)
    };
    if rng.gen_bool(0.5) {
        operands.project(vec![0])
    } else {
        operands.map(ValueFn::Proj(0))
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
    Catalog::new().with(r).with(s).with(u).with(atoms(rng))
}

/// A unary relation `A` of up to 6 atoms, the values no interpreted
/// symbol of the integer signature is defined on.
fn atoms(rng: &mut StdRng) -> Table {
    let mut a = Table::new("A", Schema::uniform(CvType::domain(0), 1));
    for _ in 0..rng.gen_range(0..6) {
        a.insert(vec![Value::atom(0, rng.gen_range(0..6))]);
    }
    a
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
    match rng.gen_range(0..10) {
        // ill-typed: `even` on the atoms of an invariant product side
        9 => x()
            .product(Query::rel("A"))
            .select(Pred::Named("even".into(), vec![2]))
            .project(vec![0, 1]),
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
        cat.add(atoms(&mut rng));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Shape 6 — optimized ≡ unoptimized: the Section 4.4 rewrites are
    /// equivalences that genericity licenses (the one commutation rule
    /// whose licence the classifier derives: any π or map through ∪,
    /// Prop 3.1; a keyed π or column map through − and ∩, Prop 3.4;
    /// and Prop 3.1 for the σ and π cascades), so the rewrite and the
    /// plan the costed optimizer chooses at each worker count answer
    /// exactly as the query as written — through the walker and on
    /// every route, worker count and morsel size. Without a key, π and
    /// `map[$1]` over − and ∩ must not commute at all.
    #[test]
    fn differential_optimized(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        // the union-key rules only where the generator makes $1 a key
        // for R ∪ S
        let keyed = rng.gen_bool(0.5);
        let (cat, rules) = if keyed {
            let rows = rng.gen_range(0..60);
            let overlap = rng.gen_range(0.0..1.0);
            let (r, s) = generate_keyed_pair(&mut rng, rows, 2, overlap);
            let key = Constraints::none().with_union_key(["R".to_string(), "S".to_string()], [0]);
            (Catalog::new().with(r).with(s), RuleSet::with_constraints(key))
        } else {
            (random_flat_catalog(&mut rng), RuleSet::standard())
        };
        let unproven = !keyed && rng.gen_bool(0.25);
        let inner = if unproven {
            unproven_inner(&mut rng)
        } else {
            rewritable_inner(&mut rng, keyed)
        };
        let q = if rng.gen_bool(0.25) { inner.count() } else { inner };
        let truth = walker(&q, &cat)?;
        let (rewritten, trace) = optimize(&q, &rules, &cat);
        if unproven {
            prop_assert!(
                trace.steps.iter().all(|s| s.rule != Rule::MapThroughGeneric),
                "an unproven mapping commuted on {}:\n{}", q, trace
            );
        } else {
            prop_assert!(!trace.steps.is_empty(), "no rule fired on {}", q);
        }
        prop_assert_eq!(&walker(&rewritten, &cat)?, &truth, "rewrite {} of {}", rewritten, q);
        assert_routes_match(&rewritten, &truth, &cat, &WORKERS)?;
        for w in WORKERS {
            let (chosen, ..) = optimize_costed_parallel_with_stats(
                &q, &rules, &cat, w, &Calibration::default(), None,
            );
            prop_assert_eq!(&walker(&chosen, &cat)?, &truth, "chosen {} of {}", chosen, q);
            assert_routes_match(&chosen, &truth, &cat, &[w])?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Shape 7 — optimized ≡ unoptimized over operands of different
    /// widths: a column-sensitive rule needs one width for every row it
    /// moves past, so a σ over `(R op T) × S` whose predicate only the
    /// product's rows all reach stays above the × when R and T differ in
    /// width, and every plan answers as the query as written.
    #[test]
    fn differential_optimized_mixed_widths(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = |rows, arity| WorkloadSpec {
            rows,
            arity,
            value_range: 4,
            key_on_first: false,
        };
        let widths: [usize; 3] = [rng.gen_range(1..=3), rng.gen_range(1..=3), rng.gen_range(1..=2)];
        let mut cat = Catalog::new();
        for (name, arity) in ["R", "T", "S"].into_iter().zip(widths) {
            let rows = rng.gen_range(1..30);
            cat.add(generate_table(&mut rng, name, spec(rows, arity)));
        }
        let (r, t) = (Query::rel("R"), Query::rel("T"));
        let operands = match rng.gen_range(0..3) {
            0 => r.union(t),
            1 => r.intersect(t),
            _ => r.difference(t),
        };
        // a column every row of the product has
        let col = rng.gen_range(0..widths[0].min(widths[1]) + widths[2]);
        let pred = if rng.gen_bool(0.5) {
            Pred::eq_cols(col, col)
        } else {
            Pred::eq_const(col, Value::Int(rng.gen_range(0..4)))
        };
        let inner = operands.product(Query::rel("S")).select(pred);
        let q = if rng.gen_bool(0.25) { inner.count() } else { inner };
        let truth = walker(&q, &cat)?;
        let rules = RuleSet::standard();
        let (rewritten, _) = optimize(&q, &rules, &cat);
        prop_assert_eq!(&walker(&rewritten, &cat)?, &truth, "rewrite {} of {}", rewritten, q);
        for w in WORKERS {
            let (chosen, ..) = optimize_costed_parallel_with_stats(
                &q, &rules, &cat, w, &Calibration::default(), None,
            );
            prop_assert_eq!(&walker(&chosen, &cat)?, &truth, "chosen {} of {}", chosen, q);
            assert_routes_match(&chosen, &truth, &cat, &[w])?;
        }
    }
}
