//! End-to-end pipelines across the workspace crates:
//! classify → probe → optimize → execute, and λ-terms → transfer → sets.

use genpar::genericity::check::{AlgebraQuery, CheckConfig};
use genpar::genericity::infer_requirements;
use genpar::genericity::probe::{probe_tightest, Rung};
use genpar::lambda::stdlib;
use genpar::lambda::term::Term;
use genpar::lambda::ty::Ty;
use genpar::optimizer::{optimize_costed, Constraints, RuleSet};
use genpar::parametricity::free_theorems::parametric;
use genpar::parametricity::relation::RelConfig;
use genpar::parametricity::transfer::{toset_deep, LsTy};
use genpar::prelude::*;
use genpar_algebra::eval::{eval, Db};
use genpar_algebra::{Pred, Query};
use genpar_engine::workload::{generate_keyed_pair, generate_table, WorkloadSpec};
use genpar_engine::{lower, Catalog};
use genpar_exec::{EvalParallel, ExecConfig};
use genpar_lambda::eval::{eval_closed, LValue};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rel2() -> CvType {
    CvType::relation(BaseType::Domain(genpar_value::DomainId(0)), 2)
}

/// Full relational pipeline: classify a query statically, validate the
/// class dynamically, rewrite it cost-guardedly, execute both plans, and
/// confirm identical results with reduced work.
#[test]
fn classify_probe_optimize_execute() {
    let q = Query::rel("R")
        .union(Query::rel("S"))
        .select(Pred::True)
        .project([0]);

    // 1. static classification: fully generic in both modes
    let inf = infer_requirements(&q);
    assert!(inf.rel.is_fully_generic());
    assert!(inf.strong.is_fully_generic());

    // 2. dynamic probe agrees: tightest class is "all mappings"
    let aq = AlgebraQuery::new(q.clone());
    let out1 = CvType::set(CvType::tuple([CvType::domain(0)]));
    let report = probe_tightest(
        &aq,
        &rel2(),
        &out1,
        &CheckConfig {
            families: 25,
            inputs_per_family: 15,
            ..Default::default()
        },
    );
    assert_eq!(report.tightest(), Some(Rung::AllMappings));

    // 3. optimize and execute on a generated workload
    let mut rng = StdRng::seed_from_u64(77);
    let spec = WorkloadSpec {
        rows: 3_000,
        arity: 2,
        value_range: 30,
        key_on_first: false,
    };
    let catalog = Catalog::new()
        .with(generate_table(&mut rng, "R", spec))
        .with(generate_table(&mut rng, "S", spec));
    let (chosen, trace, base_est, new_est) = optimize_costed(&q, &RuleSet::standard(), &catalog);
    assert!(!trace.steps.is_empty());
    assert!(new_est.cost < base_est.cost);

    let (rows_base, stats_base) = lower(&q)
        .unwrap()
        .eval_parallel(&catalog, &ExecConfig::serial())
        .unwrap();
    let (rows_opt, stats_opt) = lower(&chosen)
        .unwrap()
        .eval_parallel(&catalog, &ExecConfig::serial())
        .unwrap();
    assert_eq!(rows_base, rows_opt);
    assert!(stats_opt.cells_processed < stats_base.cells_processed);
}

/// The key-constraint pipeline: the same query is rewritten or not based
/// purely on declared semantics, and both decisions are validated against
/// the engine.
#[test]
fn key_constraint_gates_the_difference_push() {
    let q = Query::rel("R").difference(Query::rel("S")).project([0]);
    let mut rng = StdRng::seed_from_u64(78);
    let (r, s) = generate_keyed_pair(&mut rng, 3_000, 6, 0.4);
    let catalog = Catalog::new().with(r).with(s);

    // without the constraint: no rewrite
    let (_, no_key_trace, _, _) = optimize_costed(&q, &RuleSet::standard(), &catalog);
    assert!(no_key_trace.steps.is_empty());

    // with it: rewrite fires (arity 6 is beyond the crossover) and
    // semantics agree
    let rules = RuleSet::with_constraints(
        Constraints::none().with_union_key(["R".to_string(), "S".to_string()], [0]),
    );
    let (chosen, trace, _, _) = optimize_costed(&q, &rules, &catalog);
    assert!(!trace.steps.is_empty());
    let (a, _) = lower(&q)
        .unwrap()
        .eval_parallel(&catalog, &ExecConfig::serial())
        .unwrap();
    let (b, _) = lower(&chosen)
        .unwrap()
        .eval_parallel(&catalog, &ExecConfig::serial())
        .unwrap();
    assert_eq!(a, b);
}

/// λ-world to set-world: evaluate a parametric list program, convert via
/// toset, and match the algebra evaluator's set-level answer.
#[test]
fn lambda_to_set_world_roundtrip() {
    // concat (in System F) vs Flatten (in the algebra), through toset
    let term = Term::app(
        Term::tyapp(stdlib::concat(), Ty::int()),
        Term::list(
            Ty::list(Ty::int()),
            [
                Term::list(Ty::int(), [Term::Int(1), Term::Int(2)]),
                Term::list(Ty::int(), [Term::Int(2), Term::Int(3)]),
            ],
        ),
    );
    let lv = eval_closed(&term).unwrap();
    // ⟨1,2,2,3⟩ → lambda value to complex value
    fn to_value(v: &LValue) -> Value {
        match v {
            LValue::Int(n) => Value::Int(*n),
            LValue::Bool(b) => Value::Bool(*b),
            LValue::List(vs) => Value::list(vs.iter().map(to_value)),
            LValue::Tuple(vs) => Value::tuple(vs.iter().map(to_value)),
            other => panic!("non-first-order value {other:?}"),
        }
    }
    let as_list = to_value(&lv);
    let as_set = toset_deep(&as_list);

    // algebra side: Flatten of the toset'd input
    let input = toset_deep(&to_value(
        &eval_closed(&Term::list(
            Ty::list(Ty::int()),
            [
                Term::list(Ty::int(), [Term::Int(1), Term::Int(2)]),
                Term::list(Ty::int(), [Term::Int(2), Term::Int(3)]),
            ],
        ))
        .unwrap(),
    ));
    let db = Db::new().with("R", input);
    let flat = eval(&Query::Flatten(Box::new(Query::rel("R"))), &db).unwrap();
    assert_eq!(as_set, flat);

    // and concat's type is LtoS, which is what licensed the transfer
    let concat_ty = LsTy::arrow(
        LsTy::list(LsTy::list(LsTy::var(0))),
        LsTy::list(LsTy::var(0)),
    );
    assert!(concat_ty.is_lto_s());
    // while parametricity of the term itself holds
    parametric(
        &stdlib::concat(),
        RelConfig {
            max_list: 2,
            ..Default::default()
        },
    )
    .unwrap();
}

/// Strong-mode pipeline: the probe discovers Q1's tighter class and the
/// static classifier's conservative answer is consistent with it.
#[test]
fn q1_precision_gap_is_ordered() {
    let q1 = genpar_algebra::catalog::q1();
    let inf = infer_requirements(&q1);
    // static: needs injective in strong mode (conservative)
    assert!(inf.strong.injective);
    // dynamic: functional suffices
    let aq = AlgebraQuery::new(q1);
    let report = probe_tightest(
        &aq,
        &rel2(),
        &rel2(),
        &CheckConfig {
            mode: genpar::mapping::ExtensionMode::Strong,
            n_atoms: 3,
            families: 30,
            inputs_per_family: 20,
            ..Default::default()
        },
    );
    let tightest = report.tightest().unwrap();
    // dynamic rung is at most Functional — strictly tighter than the
    // static Injective classification
    assert!(tightest <= Rung::Functional, "probe found {tightest}");
}

/// `check_requirements` validates a static classification dynamically —
/// the glue the property suite leans on, exercised here on both modes.
#[test]
fn check_requirements_validates_classifications() {
    use genpar::genericity::check::check_requirements;
    let q4 = genpar_algebra::catalog::q4();
    let inf = infer_requirements(&q4);
    let aq = AlgebraQuery::new(q4);
    for (mode, reqs) in [
        (genpar::mapping::ExtensionMode::Rel, &inf.rel),
        (genpar::mapping::ExtensionMode::Strong, &inf.strong),
    ] {
        let cfg = CheckConfig {
            mode,
            families: 25,
            inputs_per_family: 15,
            ..Default::default()
        };
        let out = check_requirements(&aq, &rel2(), &rel2(), reqs, &cfg);
        assert!(
            out.is_invariant(),
            "derived class for Q4 in {mode} refuted: {:?}",
            out.counterexample()
        );
    }
}
