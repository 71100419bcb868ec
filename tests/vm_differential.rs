//! The VM-vs-AST differential oracle.
//!
//! The bytecode VM's one correctness contract is *walker equivalence*:
//! for any expression the compiler accepts, running the compiled
//! program must produce exactly what the recursive AST walker produces
//! — the same value on success and the same structured error on
//! failure. These properties generate hundreds of random predicates,
//! value functions, and full plans per shape and assert byte-identical
//! results against the algebra walker (the serial truth) across worker
//! counts {1, 2, 4} × morsel sizes {16, 64, 256}, with the VM on, with
//! the VM switched off (`ExecConfig::with_vm(false)` and
//! `Db::with_vm(false)`, the `GENPAR_VM=0` semantics), and with the
//! `vm.exec` fault armed (the VM must *degrade to the walker*, never to
//! a wrong answer). Ill-typed applications — `succ` over a binary row,
//! `even`/`lt` over an atom column — are part of the surface: the AST,
//! the VM and the executor fail with the same `DomainError`.
//!
//! The VM switch is per evaluation, so the VM-off cases need no lock.
//! The fault table is process-global: every case that arms it holds
//! `FAULT_LOCK` until it disarms — the same discipline the chaos oracle
//! uses for fault storms.

use genpar_algebra::eval::{apply_fn, eval_pred, Db, EvalError};
use genpar_algebra::{vm, Pred, Query, ValueFn};
use genpar_engine::plan::ExecError;
use genpar_engine::workload::{generate_edges, generate_table, WorkloadSpec};
use genpar_engine::{Catalog, Schema, Table};
use genpar_exec::{db_from_catalog, eval_query, ExecConfig};
use genpar_value::{CvType, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard};

/// Worker counts and pinned morsel sizes every query is checked at.
const WORKERS: [usize; 3] = [1, 2, 4];
const MORSELS: [usize; 3] = [16, 64, 256];

/// The fault table is process-global; every case that arms it holds
/// this lock until it disarms.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_lock() -> MutexGuard<'static, ()> {
    match FAULT_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A random predicate tree: column equalities, constant comparisons,
/// interpreted predicates (including an unknown symbol, so the error
/// path is part of the differential surface), and random and/or/not
/// structure whose short-circuit order the jumps must reproduce.
fn random_pred(rng: &mut StdRng, depth: usize) -> Pred {
    if depth == 0 || rng.gen_bool(0.35) {
        return match rng.gen_range(0..6) {
            0 => Pred::True,
            1 => Pred::eq_cols(rng.gen_range(0..3), rng.gen_range(0..3)),
            2 => Pred::eq_const(rng.gen_range(0..3), Value::Int(rng.gen_range(0..5))),
            3 => Pred::Named("even".into(), vec![rng.gen_range(0..2)]),
            4 => Pred::Named("lt".into(), vec![0, 1]),
            // unknown symbol: both engines must fail identically —
            // and only when evaluation actually reaches it
            _ => Pred::Named("no_such_pred".into(), vec![0]),
        };
    }
    let a = random_pred(rng, depth - 1);
    match rng.gen_range(0..3) {
        0 => a.and(random_pred(rng, depth - 1)),
        1 => a.or(random_pred(rng, depth - 1)),
        _ => a.not(),
    }
}

/// A random value function: projections, constants, interpreted
/// symbols (known and unknown), compositions and pairs.
fn random_fn(rng: &mut StdRng, depth: usize) -> ValueFn {
    if depth == 0 || rng.gen_bool(0.35) {
        return match rng.gen_range(0..6) {
            0 => ValueFn::Identity,
            1 => ValueFn::Proj(rng.gen_range(0..3)),
            2 => ValueFn::Cols(vec![rng.gen_range(0..3), rng.gen_range(0..3)]),
            3 => ValueFn::Const(Value::Int(rng.gen_range(0..9))),
            4 => ValueFn::Interp("succ".into()),
            _ => ValueFn::Interp("no_such_fn".into()),
        };
    }
    let a = random_fn(rng, depth - 1);
    let b = random_fn(rng, depth - 1);
    if rng.gen_bool(0.5) {
        ValueFn::Compose(Box::new(a), Box::new(b))
    } else {
        ValueFn::Pair(Box::new(a), Box::new(b))
    }
}

/// A random tuple the predicates/functions are applied to — arity 3
/// covers every column the generators mention; scalars and short
/// tuples exercise the out-of-range error paths, and an atom in the
/// first column makes `even`/`lt`/`succ` over it ill-typed.
fn random_tuple(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..5) {
        0 => Value::Int(rng.gen_range(-3..9)),
        1 => Value::tuple((0..2).map(|_| Value::Int(rng.gen_range(0..5)))),
        2 => Value::tuple([
            Value::atom(0, rng.gen_range(0..3)),
            Value::Int(rng.gen_range(0..5)),
            Value::Int(rng.gen_range(0..5)),
        ]),
        _ => Value::tuple((0..3).map(|_| Value::Int(rng.gen_range(0..5)))),
    }
}

/// A random database for the flat query shapes.
fn random_flat_catalog(rng: &mut StdRng) -> Catalog {
    let spec = |rows| WorkloadSpec {
        rows,
        arity: 2,
        value_range: 12,
        key_on_first: false,
    };
    let r_rows = rng.gen_range(0..180);
    let s_rows = rng.gen_range(0..120);
    let r = generate_table(rng, "R", spec(r_rows));
    let s = generate_table(rng, "S", spec(s_rows));
    Catalog::new().with(r).with(s)
}

/// [`random_flat_catalog`] plus `A`, binary rows of atoms (at least
/// one), over which every interpreted int symbol is ill-typed.
fn random_catalog_with_atoms(rng: &mut StdRng) -> Catalog {
    let rows = rng.gen_range(1..40);
    let atoms = Value::set(
        (0..rows).map(|_| Value::tuple((0..2).map(|_| Value::atom(0, rng.gen_range(0..8))))),
    );
    let a = Table::from_value("A", Schema::uniform(CvType::domain(0), 2), &atoms);
    random_flat_catalog(rng).with(a)
}

/// A plan that applies an interpreted symbol outside its domain: `succ`
/// over a binary row, or `even`/`lt` over an atom column.
fn random_ill_typed_query(rng: &mut StdRng) -> Query {
    let succ = || ValueFn::Interp("succ".into());
    let a = || Query::rel("A");
    let atom_pred = if rng.gen_bool(0.5) {
        Pred::Named("even".into(), vec![rng.gen_range(0..2)])
    } else {
        Pred::Named("lt".into(), vec![0, 1])
    };
    match rng.gen_range(0..5) {
        0 => Query::rel("R").map(succ()),
        1 => Query::rel("R").union(Query::rel("S")).map(succ()),
        2 => a().select(atom_pred),
        3 => a().select(atom_pred).project(vec![0]).count(),
        _ => a().union(a().select(Pred::eq_cols(0, 1))).select(atom_pred),
    }
}

/// A VM-eligible predicate over binary rows (known symbols only, so
/// full plans never fail — the error parity shapes above cover the
/// failure surface).
fn random_total_pred(rng: &mut StdRng, depth: usize) -> Pred {
    if depth == 0 || rng.gen_bool(0.4) {
        return match rng.gen_range(0..4) {
            0 => Pred::True,
            1 => Pred::eq_cols(0, 1),
            2 => Pred::eq_const(rng.gen_range(0..2), Value::Int(rng.gen_range(0..6))),
            _ => Pred::Named("even".into(), vec![rng.gen_range(0..2)]),
        };
    }
    let a = random_total_pred(rng, depth - 1);
    match rng.gen_range(0..3) {
        0 => a.and(random_total_pred(rng, depth - 1)),
        1 => a.or(random_total_pred(rng, depth - 1)),
        _ => a.not(),
    }
}

/// A total value function over binary integer rows.
fn random_total_fn(rng: &mut StdRng) -> ValueFn {
    match rng.gen_range(0..5) {
        0 => ValueFn::Identity,
        1 => ValueFn::Cols(vec![1, 0]),
        2 => ValueFn::Cols(vec![rng.gen_range(0..2), rng.gen_range(0..2)]),
        3 => ValueFn::Pair(
            Box::new(ValueFn::Proj(rng.gen_range(0..2))),
            Box::new(ValueFn::Proj(rng.gen_range(0..2))),
        ),
        _ => ValueFn::Compose(
            Box::new(ValueFn::Proj(rng.gen_range(0..2))),
            Box::new(ValueFn::Interp("succ".into())),
        ),
    }
}

/// A random σ/map-bearing plan — the expressions the kernels compile.
fn random_vm_query(rng: &mut StdRng) -> Query {
    let r = || Query::rel("R");
    let s = || Query::rel("S");
    let p = random_total_pred(rng, 3);
    match rng.gen_range(0..6) {
        0 => r().select(p),
        1 => r().union(s()).select(p),
        2 => r().map(random_total_fn(rng)),
        3 => r().select(p).map(random_total_fn(rng)),
        4 => r().difference(s()).select(p).project(vec![0]),
        _ => r().join_on(s(), [(0, 0)]).project(vec![0, 3]).select(p),
    }
}

/// The algebra walker's answer: the serial truth.
fn walker(q: &Query, cat: &Catalog) -> Result<Value, TestCaseError> {
    genpar_algebra::eval::eval(q, &db_from_catalog(cat))
        .map_err(|e| TestCaseError::Fail(format!("walker eval failed on {q}: {e}")))
}

/// Assert the full differential contract for one query: the walker's
/// answer is reproduced byte-identically by the walker and every
/// executor configuration with the VM switched to `vm`.
fn assert_differential(q: &Query, cat: &Catalog, vm: bool) -> Result<(), TestCaseError> {
    let truth_bytes = walker(q, cat)?.to_string();
    let walked = genpar_algebra::eval::eval(q, &db_from_catalog(cat).with_vm(vm))
        .map_err(|e| TestCaseError::Fail(format!("walker (vm={vm}) failed on {q}: {e}")))?;
    prop_assert_eq!(
        walked.to_string(),
        truth_bytes.clone(),
        "walker with vm={} diverged on {}",
        vm,
        q
    );
    for w in WORKERS {
        for m in MORSELS {
            let cfg = ExecConfig::serial()
                .with_workers(w)
                .with_morsel_rows(m)
                .with_vm(vm);
            let (v, _, route) = eval_query(q, cat, &cfg).map_err(|e| {
                TestCaseError::Fail(format!("executor eval failed on {q} (w={w}, m={m}): {e}"))
            })?;
            prop_assert_eq!(
                v.to_string(),
                truth_bytes.clone(),
                "value diverged on {} (w={}, m={}, vm={}, route={:?})",
                q,
                w,
                m,
                vm,
                route
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Shape 1 — predicate parity: for random predicate trees and
    /// random tuples, the compiled program returns exactly what
    /// [`eval_pred`] returns — the same boolean, or the same structured
    /// error (unknown symbols and column overruns included), which
    /// pins short-circuit order and late symbol binding.
    #[test]
    fn vm_predicates_match_the_walker(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = Db::with_standard_int();
        let p = random_pred(&mut rng, 4);
        let prog = match vm::compile_pred(&p) {
            Ok(prog) => prog,
            Err(inel) => return Err(TestCaseError::Fail(format!(
                "every generated predicate is compilable, got: {inel}"
            ))),
        };
        let mut m = vm::Vm::new();
        for _ in 0..8 {
            let t = random_tuple(&mut rng);
            let walker = eval_pred(&p, &t, &db);
            let vm_out = m.run_pred(&prog, &t, &db);
            prop_assert_eq!(
                format!("{walker:?}"),
                format!("{vm_out:?}"),
                "pred diverged on {:?} at {}",
                p,
                t
            );
        }
    }

    /// Shape 2 — function parity: random compositions/pairs of
    /// projections, constants and interpreted symbols agree with
    /// [`apply_fn`] on every input — value and error alike.
    #[test]
    fn vm_functions_match_the_walker(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = Db::with_standard_int();
        let f = random_fn(&mut rng, 3);
        let prog = match vm::compile_fn(&f) {
            Ok(prog) => prog,
            Err(inel) => return Err(TestCaseError::Fail(format!(
                "every generated function is compilable, got: {inel}"
            ))),
        };
        let mut m = vm::Vm::new();
        for _ in 0..8 {
            let t = random_tuple(&mut rng);
            let walker = apply_fn(&f, &t, &db);
            let vm_out = m.run_fn(&prog, &t, &db);
            prop_assert_eq!(
                format!("{walker:?}"),
                format!("{vm_out:?}"),
                "fn diverged on {:?} at {}",
                f,
                t
            );
        }
    }

    /// Shape 3 — full plans: σ/map-bearing queries over random
    /// databases, walker truth vs {1, 2, 4} workers × {16, 64, 256}
    /// morsel rows with the VM engaged, plus the same grid with the VM
    /// off: switching it off must leave the answer byte-identical.
    #[test]
    fn vm_plans_match_serial_and_killed(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cat = random_flat_catalog(&mut rng);
        let q = random_vm_query(&mut rng);
        assert_differential(&q, &cat, true)?;
        assert_differential(&q, &cat, false)?;
    }

    /// Shape 4 — combiner bodies and fixpoint steps: the σ/map
    /// expressions the per-round and combiner routes compile are held
    /// to the same contract inside `count`/`sum`/`even` roots and
    /// transitive-closure step bodies.
    #[test]
    fn vm_combiners_and_fixpoints_match(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cat = random_flat_catalog(&mut rng);
        let nodes = rng.gen_range(2..12);
        let chain = rng.gen_bool(0.5);
        cat.add(generate_edges(&mut rng, "E", nodes, 1.0, chain));
        let inner = Query::rel("R").select(random_total_pred(&mut rng, 3));
        let q = match rng.gen_range(0..4) {
            0 => inner.count(),
            1 => inner.sum(rng.gen_range(0..2)),
            2 => Query::Even(Box::new(inner)),
            // fixpoint whose step body carries a σ the rounds compile
            _ => Query::fixpoint(
                "X",
                Query::rel("E"),
                Query::rel("X")
                    .join_on(Query::rel("E"), [(1, 0)])
                    .project(vec![0, 3])
                    .select(random_total_pred(&mut rng, 2)),
            ),
        };
        assert_differential(&q, &cat, true)?;
    }

    /// Shape 5 — fault-armed: with `vm.exec` armed (nth-hit and
    /// persistent), [`vm::engage`] refuses and the evaluator degrades
    /// to the AST walker mid-query. The oracle still holds: a degraded
    /// evaluation returns the *correct* answer, never a wrong one and
    /// never an error.
    #[test]
    fn vm_fault_degrades_to_the_walker(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cat = random_flat_catalog(&mut rng);
        let q = random_vm_query(&mut rng);
        let spec = if rng.gen_bool(0.5) { "vm.exec:*" } else { "vm.exec:2" };
        let truth = walker(&q, &cat)?;
        let _g = fault_lock();
        genpar_guard::arm_faults(spec)
            .map_err(|e| TestCaseError::Fail(format!("arm_faults({spec}): {e}")))?;
        let verdict = assert_differential(&q, &cat, true).and_then(|()| {
            let (v, _, _) = eval_query(&q, &cat, &ExecConfig::serial().with_workers(4))
                .map_err(|e| TestCaseError::Fail(format!("faulted eval errored on {q}: {e}")))?;
            prop_assert_eq!(
                v.to_string(),
                truth.to_string(),
                "vm.exec fault changed the answer on {}",
                q
            );
            Ok(())
        });
        genpar_guard::disarm_faults();
        verdict?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Shape 6 — ill-typed applications: `succ` over a binary row and
    /// `even`/`lt` over an atom column fail with the same structured
    /// error from the walker with the VM on and off and from the
    /// executor at every worker count, morsel size and VM setting —
    /// naming the symbol and the walker's first offending value.
    #[test]
    fn vm_ill_typed_applications_fail_alike(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cat = random_catalog_with_atoms(&mut rng);
        let q = random_ill_typed_query(&mut rng);
        let truth = genpar_algebra::eval::eval(&q, &db_from_catalog(&cat));
        let expected = match &truth {
            Err(EvalError::Domain(d)) => Err(ExecError::Domain(d.clone())),
            Ok(v) => Ok(v.to_string()),
            Err(other) => return Err(TestCaseError::Fail(format!(
                "walker failed on {q} with a non-domain error: {other}"
            ))),
        };
        prop_assert!(
            expected.is_err() || !matches!(q, Query::Select(..)),
            "a σ over the non-empty A must fail: {}", q
        );
        for vm in [true, false] {
            let walked = genpar_algebra::eval::eval(&q, &db_from_catalog(&cat).with_vm(vm));
            prop_assert_eq!(&walked, &truth, "walker (vm={}) diverged on {}", vm, q);
            for w in WORKERS {
                for m in MORSELS {
                    let cfg = ExecConfig::serial().with_workers(w).with_morsel_rows(m).with_vm(vm);
                    let got = eval_query(&q, &cat, &cfg).map(|(v, ..)| v.to_string());
                    prop_assert_eq!(
                        &got, &expected,
                        "executor diverged on {} (w={}, m={}, vm={})", q, w, m, vm
                    );
                }
            }
        }
    }
}

/// The degradation is observable: an armed `vm.exec` fault bumps the
/// `vm.degrade` counter while the answer stays intact.
#[test]
fn vm_fault_degradation_is_counted() {
    let mut rng = StdRng::seed_from_u64(7);
    let cat = random_flat_catalog(&mut rng);
    let q = Query::rel("R").select(Pred::Named("even".into(), vec![0]));
    let truth = genpar_algebra::eval::eval(&q, &db_from_catalog(&cat)).unwrap();
    let _g = fault_lock();
    genpar_guard::arm_faults("vm.exec:*").unwrap();
    let degrades =
        |snap: &genpar_obs::Snapshot| snap.counters.get("vm.degrade").copied().unwrap_or(0);
    let before = degrades(&genpar_obs::snapshot());
    let out = eval_query(&q, &cat, &ExecConfig::serial().with_workers(2));
    genpar_guard::disarm_faults();
    let (v, _, _) = out.expect("degraded eval must succeed");
    assert_eq!(
        v.to_string(),
        truth.to_string(),
        "answer must survive degradation"
    );
    let after = degrades(&genpar_obs::snapshot());
    assert!(
        after > before,
        "vm.degrade must count the refusals ({before} → {after})"
    );
}
