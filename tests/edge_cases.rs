//! Edge cases and failure injection across the workspace: empty domains,
//! empty relations, exhausted budgets, degenerate mappings, and
//! ill-shaped inputs — the paths a downstream user hits first.

use genpar::genericity::check::{check_invariance, AlgebraQuery, CheckConfig, NamedQuery};
use genpar::genericity::infer_requirements;
use genpar::mapping::extend::{postimages, relates, try_relates, ExtBudget, ExtensionMode};
use genpar::mapping::{Mapping, MappingClass, MappingFamily};
use genpar::optimizer::{optimize, optimize_costed, RuleSet};
use genpar::prelude::*;
use genpar_algebra::eval::{eval, Db, EvalError};
use genpar_algebra::{catalog, Pred, Query};
use genpar_engine::{lower, Catalog, Schema, Table};
use genpar_exec::{EvalParallel, ExecConfig};
use genpar_value::parse::parse_value;

fn rel2() -> CvType {
    CvType::relation(BaseType::Domain(genpar_value::DomainId(0)), 2)
}

#[test]
fn empty_mapping_relates_only_empties() {
    let f = MappingFamily::single(Mapping::empty(CvType::domain(0), CvType::domain(0)));
    let t = CvType::set(CvType::domain(0));
    assert!(relates(
        &f,
        &t,
        ExtensionMode::Rel,
        &Value::empty_set(),
        &Value::empty_set()
    ));
    assert!(relates(
        &f,
        &t,
        ExtensionMode::Strong,
        &Value::empty_set(),
        &Value::empty_set()
    ));
    let s = Value::set([Value::atom(0, 0)]);
    assert!(!relates(
        &f,
        &t,
        ExtensionMode::Rel,
        &s,
        &Value::empty_set()
    ));
    assert!(!relates(
        &f,
        &t,
        ExtensionMode::Rel,
        &Value::empty_set(),
        &s
    ));
}

#[test]
fn checker_with_empty_carrier_skips_gracefully() {
    // n_atoms = 0: no related inputs can be generated over atoms; the
    // checker must report Invariant with everything skipped, not panic.
    let q = AlgebraQuery::new(catalog::q3());
    let cfg = CheckConfig {
        n_atoms: 0,
        families: 3,
        inputs_per_family: 3,
        ..Default::default()
    };
    let out = check_invariance(
        &q,
        &rel2(),
        &CvType::set(CvType::tuple([CvType::domain(0)])),
        &MappingClass::all(),
        &cfg,
    );
    assert!(out.is_invariant());
}

#[test]
fn budget_exhaustion_is_an_error_not_a_wrong_answer() {
    // gigantic preimage space with a tiny budget: try_relates must return
    // Err, never a silently wrong bool
    let pairs: Vec<(u32, u32)> = (0..12).flat_map(|x| (0..12).map(move |y| (x, y))).collect();
    let f = MappingFamily::atoms(&pairs);
    // strong maximality over set-of-lists: the preimage of a 12-element
    // list is a 12¹²-product — must hit the budget, not mis-answer
    let nested = CvType::set(CvType::list(CvType::domain(0)));
    let v = Value::set([Value::list((0..12).map(|i| Value::atom(0, i)))]);
    let tight = ExtBudget { max_candidates: 4 };
    assert!(try_relates(&f, &nested, ExtensionMode::Strong, &v, &v, tight).is_err());
    assert!(postimages(
        &f,
        &CvType::set(CvType::domain(0)),
        ExtensionMode::Rel,
        &Value::set((0..12).map(|i| Value::atom(0, i))),
        tight
    )
    .is_err());
}

#[test]
fn eval_on_empty_relations() {
    let db = Db::new()
        .with("R", Value::empty_set())
        .with("S", Value::empty_set());
    for q in [
        catalog::q1(),
        catalog::q2(),
        catalog::q4(),
        catalog::q4_hat(),
        Query::rel("R").difference(Query::rel("S")),
        Query::rel("R").nest([0]),
        Query::EqAdom(Box::new(Query::rel("R"))),
    ] {
        assert_eq!(eval(&q, &db).unwrap(), Value::empty_set(), "{q}");
    }
    // even(∅) = true (zero is even)
    assert_eq!(
        eval(&Query::Even(Box::new(Query::rel("R"))), &db).unwrap(),
        Value::Bool(true)
    );
}

#[test]
fn eval_reports_mixed_arity_errors() {
    // a "relation" whose tuples disagree in arity: π past the short one fails
    let db = Db::new().with("R", parse_value("{(a), (a, b)}").unwrap());
    let err = eval(&Query::rel("R").project([1]), &db).unwrap_err();
    assert!(matches!(
        err,
        EvalError::BadColumn(1) | EvalError::Shape { .. }
    ));
}

#[test]
fn optimizer_on_empty_catalog_is_safe() {
    // no tables: cost estimates degrade to zero-row scans; rewriting is
    // still sound and lowering still executes (against an empty catalog
    // it errors cleanly at execution, not before)
    let catalog = Catalog::new();
    let q = Query::rel("R").union(Query::rel("S")).project([0]);
    let (opt, trace) = optimize(&q, &RuleSet::standard(), &catalog);
    assert!(!trace.steps.is_empty());
    let plan = lower(&opt).unwrap();
    assert!(plan.eval_parallel(&catalog, &ExecConfig::serial()).is_err()); // unknown table, reported
}

#[test]
fn costed_optimizer_never_picks_a_worse_plan_than_baseline_estimate() {
    let mut table = Table::new("R", Schema::uniform(CvType::int(), 2));
    for i in 0..50 {
        table.insert(vec![Value::Int(i), Value::Int(i % 7)]);
    }
    let catalog = Catalog::new().with(table.clone()).with({
        let mut s = Table::new("S", Schema::uniform(CvType::int(), 2));
        for r in table.rows().take(20) {
            s.insert(r.clone());
        }
        s
    });
    for q in [
        Query::rel("R").union(Query::rel("S")).project([0]),
        Query::rel("R").difference(Query::rel("S")).project([0]),
        Query::rel("R").select(Pred::eq_cols(0, 1)),
    ] {
        let (_, _, base, new) = optimize_costed(&q, &RuleSet::standard(), &catalog);
        // the chosen estimate is min(base, new) by construction
        assert!(new.cost.min(base.cost) <= base.cost);
    }
}

#[test]
fn classifier_handles_deep_and_degenerate_queries() {
    // a deep alternating pipeline classifies correctly; the classifier
    // recurses on the AST, so very deep pipelines need a commensurate
    // stack (debug builds have large match frames) — run on a dedicated
    // 32 MiB thread, as a deeply-nested production caller would
    let inf = std::thread::Builder::new()
        .stack_size(32 * 1024 * 1024)
        .spawn(|| {
            let mut q = Query::rel("R");
            for _ in 0..500 {
                q = q.project([0, 1]).union(Query::rel("S"));
            }
            infer_requirements(&q)
        })
        .unwrap()
        .join()
        .unwrap();
    assert!(inf.rel.is_fully_generic());
    // a query mentioning the same constant twice folds requirements
    let q2 = Query::rel("R")
        .select(Pred::eq_const(0, Value::Int(7)))
        .union(Query::Insert(Value::Int(7), Box::new(Query::rel("S"))));
    let inf2 = infer_requirements(&q2);
    assert_eq!(inf2.rel.constants.len(), 1); // joined, strict wins
}

#[test]
fn checker_skips_queries_undefined_on_generated_inputs() {
    // a query only defined on singletons: everything else skips
    let q = NamedQuery::new("head", |v: &Value| {
        let s = v.as_set()?;
        if s.len() == 1 {
            s.iter().next().cloned()
        } else {
            None
        }
    });
    let t = CvType::set(CvType::domain(0));
    let out = check_invariance(
        &q,
        &t,
        &CvType::domain(0),
        &MappingClass::injective(),
        &CheckConfig::default(),
    );
    // partial queries are fine: Definition 2.9 quantifies over legal inputs
    assert!(out.is_invariant());
}

#[test]
fn identity_family_makes_everything_invariant() {
    // the degenerate end of the spectrum the paper warns about: w.r.t.
    // the identity mapping every query is generic (§4.3's count example)
    let q = AlgebraQuery::new(catalog::even());
    let cfg = CheckConfig {
        families: 1,
        inputs_per_family: 30,
        n_atoms: 1, // only one atom: every total function is the identity
        exhaustive_functions: true,
        ..Default::default()
    };
    let out = check_invariance(
        &q,
        &CvType::set(CvType::tuple([CvType::domain(0)])),
        &CvType::bool(),
        &MappingClass::bijective(),
        &cfg,
    );
    assert!(out.is_invariant());
}

#[test]
fn deep_nesting_relates_within_budget() {
    let f = MappingFamily::atoms(&[(0, 0), (1, 1)]);
    let mut v = Value::set([Value::atom(0, 0), Value::atom(0, 1)]);
    let mut t = CvType::set(CvType::domain(0));
    for _ in 0..6 {
        v = Value::set([v]);
        t = CvType::set(t);
    }
    assert!(relates(&f, &t, ExtensionMode::Rel, &v, &v));
    assert!(relates(&f, &t, ExtensionMode::Strong, &v, &v));
}
