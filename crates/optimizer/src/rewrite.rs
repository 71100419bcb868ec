//! The bottom-up rewrite engine.

use crate::rules::{arity_of, base_tables, pred_columns, Rule, RuleSet};
use genpar_algebra::{Pred, Query};
use genpar_engine::Catalog;
use genpar_obs::FieldValue;
use std::fmt;

/// One recorded rewrite step.
#[derive(Debug, Clone)]
pub struct RewriteStep {
    /// The rule applied.
    pub rule: Rule,
    /// Rendering of the subexpression before the rewrite.
    pub before: String,
    /// Rendering after.
    pub after: String,
    /// Model cost of the subexpression before the rewrite.
    pub cost_before: f64,
    /// Model cost after.
    pub cost_after: f64,
}

/// The full trace of an optimization run.
#[derive(Debug, Clone, Default)]
pub struct RewriteTrace {
    /// Steps in application order.
    pub steps: Vec<RewriteStep>,
}

impl fmt::Display for RewriteTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.steps.iter().enumerate() {
            writeln!(
                f,
                "{:>2}. {}  [{}]  (cost {:.1} → {:.1})\n      {}  ⇒  {}",
                i + 1,
                s.rule,
                s.rule.justification(),
                s.cost_before,
                s.cost_after,
                s.before,
                s.after
            )?;
        }
        Ok(())
    }
}

/// Optimize a query under a rule set, returning the rewritten query and
/// the trace. Applies rules bottom-up to a fixpoint (bounded).
///
/// The optimizer is an *optional* stage: any failure inside it — an
/// injected fault, a panic in a rule, or a budget breach charged by the
/// rewrite passes — degrades gracefully to the unrewritten query (with an
/// `optimizer.degraded` obs event) rather than failing the whole query.
pub fn optimize(q: &Query, rules: &RuleSet, catalog: &Catalog) -> (Query, RewriteTrace) {
    let _sp = genpar_obs::span("optimizer.optimize");
    match try_optimize(q, rules, catalog) {
        Ok(out) => out,
        Err(reason) => {
            degrade("rewrite", &reason);
            (q.clone(), RewriteTrace::default())
        }
    }
}

fn try_optimize(
    q: &Query,
    rules: &RuleSet,
    catalog: &Catalog,
) -> Result<(Query, RewriteTrace), String> {
    genpar_guard::faultpoint("optimizer.rewrite").map_err(|f| f.to_string())?;
    genpar_guard::catch_panics(|| {
        let mut trace = RewriteTrace::default();
        let mut current = q.clone();
        for _ in 0..32 {
            if let Err(b) = genpar_guard::charge_steps(1, "optimizer.pass") {
                // budget exhausted mid-rewrite: keep what we have so far
                // rewritten — every prefix of the trace is still a valid
                // equivalence chain — but stop spending
                degrade("rewrite", &b.to_string());
                break;
            }
            genpar_obs::counter("optimizer.passes", 1);
            let (next, changed) = pass(&current, rules, catalog, &mut trace);
            current = next;
            if !changed {
                break;
            }
        }
        genpar_obs::counter("optimizer.rules_fired", trace.steps.len() as u64);
        (current, trace)
    })
}

/// Record a graceful-degradation decision: the optimizer hit `reason` in
/// `stage` and fell back to the original plan (or a rewritten prefix).
pub(crate) fn degrade(stage: &'static str, reason: &str) {
    genpar_obs::counter("optimizer.degraded", 1);
    genpar_obs::event(
        "optimizer.degraded",
        [
            ("stage", FieldValue::from(stage)),
            ("reason", FieldValue::from(reason.to_string())),
            ("fallback", FieldValue::from("original plan")),
        ],
    );
}

/// One bottom-up pass; returns the (possibly) rewritten tree and whether
/// anything fired.
fn pass(q: &Query, rules: &RuleSet, catalog: &Catalog, trace: &mut RewriteTrace) -> (Query, bool) {
    // rewrite children first
    let (node, mut changed) = map_children(q, |c| pass(c, rules, catalog, trace));
    // then try rules at this node
    for rule in &rules.rules {
        if let Some(next) = try_rule(*rule, &node, rules, catalog) {
            let cost_before = crate::cost::estimate(&node, catalog).cost;
            let cost_after = crate::cost::estimate(&next, catalog).cost;
            genpar_obs::event(
                "optimizer.rewrite",
                [
                    ("rule", FieldValue::from(rule.to_string())),
                    ("fired", FieldValue::Bool(true)),
                    ("justification", FieldValue::from(rule.justification())),
                    ("cost_before", FieldValue::F64(cost_before)),
                    ("cost_after", FieldValue::F64(cost_after)),
                    ("before", FieldValue::from(node.to_string())),
                    ("after", FieldValue::from(next.to_string())),
                ],
            );
            trace.steps.push(RewriteStep {
                rule: *rule,
                before: node.to_string(),
                after: next.to_string(),
                cost_before,
                cost_after,
            });
            changed = true;
            return (next, changed);
        }
    }
    (node, changed)
}

fn map_children(q: &Query, mut f: impl FnMut(&Query) -> (Query, bool)) -> (Query, bool) {
    macro_rules! one {
        ($ctor:expr, $inner:expr) => {{
            let (i, c) = f($inner);
            ($ctor(Box::new(i)), c)
        }};
    }
    macro_rules! two {
        ($ctor:expr, $a:expr, $b:expr) => {{
            let (a, ca) = f($a);
            let (b, cb) = f($b);
            ($ctor(Box::new(a), Box::new(b)), ca || cb)
        }};
    }
    match q {
        Query::Rel(_) | Query::Lit(_) | Query::Empty => (q.clone(), false),
        Query::Project(cols, inner) => {
            let (i, c) = f(inner);
            (Query::Project(cols.clone(), Box::new(i)), c)
        }
        Query::Select(p, inner) => {
            let (i, c) = f(inner);
            (Query::Select(p.clone(), Box::new(i)), c)
        }
        Query::SelectHat(a, b, inner) => {
            let (i, c) = f(inner);
            (Query::SelectHat(*a, *b, Box::new(i)), c)
        }
        Query::Map(g, inner) => {
            let (i, c) = f(inner);
            (Query::Map(g.clone(), Box::new(i)), c)
        }
        Query::Insert(v, inner) => {
            let (i, c) = f(inner);
            (Query::Insert(v.clone(), Box::new(i)), c)
        }
        Query::Join(on, a, b) => {
            let (a2, ca) = f(a);
            let (b2, cb) = f(b);
            (
                Query::Join(on.clone(), Box::new(a2), Box::new(b2)),
                ca || cb,
            )
        }
        Query::Nest(keys, inner) => {
            let (i, c) = f(inner);
            (Query::Nest(keys.clone(), Box::new(i)), c)
        }
        Query::Unnest(col, inner) => {
            let (i, c) = f(inner);
            (Query::Unnest(*col, Box::new(i)), c)
        }
        Query::Singleton(i) => one!(Query::Singleton, i),
        Query::Flatten(i) => one!(Query::Flatten, i),
        Query::Powerset(i) => one!(Query::Powerset, i),
        Query::EqAdom(i) => one!(Query::EqAdom, i),
        Query::Adom(i) => one!(Query::Adom, i),
        Query::Even(i) => one!(Query::Even, i),
        Query::NestParity(i) => one!(Query::NestParity, i),
        Query::Complement(i) => one!(Query::Complement, i),
        Query::Product(a, b) => two!(Query::Product, a, b),
        Query::Union(a, b) => two!(Query::Union, a, b),
        Query::Intersect(a, b) => two!(Query::Intersect, a, b),
        Query::Difference(a, b) => two!(Query::Difference, a, b),
        Query::TuplePair(a, b) => two!(Query::TuplePair, a, b),
        Query::Count(i) => one!(Query::Count, i),
        Query::Sum(col, inner) => {
            let (i, c) = f(inner);
            (Query::Sum(*col, Box::new(i)), c)
        }
        // Rewrite inside both the seed and the step; the loop variable is
        // just a free relation name to the rules, which are all sound for
        // arbitrary base relations.
        Query::Fixpoint { var, init, step } => {
            let (i, ci) = f(init);
            let (s, cs) = f(step);
            (
                Query::Fixpoint {
                    var: var.clone(),
                    init: Box::new(i),
                    step: Box::new(s),
                },
                ci || cs,
            )
        }
    }
}

/// Record a pattern match whose genericity side condition failed: the
/// rule's shape applied but the semantic precondition (a key constraint,
/// predicate locality, a projection shape) did not hold.
fn blocked(rule: Rule, q: &Query, reason: &'static str) {
    genpar_obs::counter("optimizer.rules_blocked", 1);
    genpar_obs::event(
        "optimizer.rewrite",
        [
            ("rule", FieldValue::from(rule.to_string())),
            ("fired", FieldValue::Bool(false)),
            ("blocked_by", FieldValue::from(reason)),
            ("expr", FieldValue::from(q.to_string())),
        ],
    );
}

fn try_rule(rule: Rule, q: &Query, rules: &RuleSet, catalog: &Catalog) -> Option<Query> {
    match (rule, q) {
        (Rule::FilterFuse, Query::Select(p, inner)) => {
            if let Query::Select(p2, inner2) = &**inner {
                Some(Query::Select(
                    Pred::And(Box::new(p2.clone()), Box::new(p.clone())),
                    inner2.clone(),
                ))
            } else {
                None
            }
        }
        (Rule::ProjectCascade, Query::Project(c1, inner)) => {
            if let Query::Project(c2, inner2) = &**inner {
                let composed: Option<Vec<usize>> = c1.iter().map(|&i| c2.get(i).copied()).collect();
                Some(Query::Project(composed?, inner2.clone()))
            } else {
                None
            }
        }
        (Rule::FilterThroughUnion, Query::Select(p, inner)) => {
            if let Query::Union(a, b) = &**inner {
                Some(Query::Union(
                    Box::new(Query::Select(p.clone(), a.clone())),
                    Box::new(Query::Select(p.clone(), b.clone())),
                ))
            } else {
                None
            }
        }
        (Rule::FilterThroughProduct, Query::Select(p, inner)) => {
            if let Query::Product(a, b) = &**inner {
                let left_arity = arity_of(a, catalog)?;
                let cols = pred_columns(p);
                if !cols.is_empty() && cols.iter().all(|&c| c < left_arity) {
                    Some(Query::Product(
                        Box::new(Query::Select(p.clone(), a.clone())),
                        b.clone(),
                    ))
                } else {
                    blocked(rule, q, "predicate touches right operand columns");
                    None
                }
            } else {
                None
            }
        }
        (Rule::ProjectThroughUnion, Query::Project(cols, inner)) => {
            if let Query::Union(a, b) = &**inner {
                Some(Query::Union(
                    Box::new(Query::Project(cols.clone(), a.clone())),
                    Box::new(Query::Project(cols.clone(), b.clone())),
                ))
            } else {
                None
            }
        }
        (Rule::ProjectThroughDifference, Query::Project(cols, inner)) => {
            if let Query::Difference(a, b) = &**inner {
                // side condition: cols contain a key for the union of the
                // base tables on both sides
                let mut tables = base_tables(a)?;
                tables.extend(base_tables(b)?);
                if rules.constraints.cols_key_for_union(&tables, cols) {
                    Some(Query::Difference(
                        Box::new(Query::Project(cols.clone(), a.clone())),
                        Box::new(Query::Project(cols.clone(), b.clone())),
                    ))
                } else {
                    blocked(rule, q, "projected columns are not a union key (Prop 3.4)");
                    None
                }
            } else {
                None
            }
        }
        (Rule::MapThroughUnion, Query::Map(f, inner)) => {
            if let Query::Union(a, b) = &**inner {
                Some(Query::Union(
                    Box::new(Query::Map(f.clone(), a.clone())),
                    Box::new(Query::Map(f.clone(), b.clone())),
                ))
            } else {
                None
            }
        }
        (Rule::MapThroughDifferenceKeyed, Query::Map(f, inner)) => {
            if let Query::Difference(a, b) = &**inner {
                // f must be a projection onto key columns
                let cols = match f {
                    genpar_algebra::ValueFn::Cols(cols) => cols.clone(),
                    genpar_algebra::ValueFn::Proj(i) => vec![*i],
                    _ => {
                        blocked(rule, q, "map function is not a column projection");
                        return None;
                    }
                };
                let mut tables = base_tables(a)?;
                tables.extend(base_tables(b)?);
                if rules.constraints.cols_key_for_union(&tables, &cols) {
                    Some(Query::Difference(
                        Box::new(Query::Map(f.clone(), a.clone())),
                        Box::new(Query::Map(f.clone(), b.clone())),
                    ))
                } else {
                    blocked(rule, q, "mapped columns are not a union key (Prop 3.4)");
                    None
                }
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Constraints;
    use genpar_algebra::eval::eval;
    use genpar_algebra::{Db, ValueFn};
    use genpar_engine::workload::{generate_keyed_pair, generate_table, WorkloadSpec};
    use genpar_engine::{lower, Catalog};
    use genpar_exec::{EvalParallel, ExecConfig};
    use genpar_value::Value;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_catalog() -> Catalog {
        let mut rng = StdRng::seed_from_u64(42);
        let r = generate_table(
            &mut rng,
            "R",
            WorkloadSpec {
                rows: 300,
                arity: 2,
                value_range: 40,
                key_on_first: false,
            },
        );
        let s = generate_table(
            &mut rng,
            "S",
            WorkloadSpec {
                rows: 300,
                arity: 2,
                value_range: 40,
                key_on_first: false,
            },
        );
        Catalog::new().with(r).with(s)
    }

    fn db_of(catalog: &Catalog) -> Db {
        let mut db = Db::with_standard_int();
        for t in catalog.tables() {
            db.set(t.name.clone(), t.to_value());
        }
        db
    }

    fn assert_equivalent(q: &Query, opt: &Query, catalog: &Catalog) {
        let db = db_of(catalog);
        assert_eq!(
            eval(q, &db).unwrap(),
            eval(opt, &db).unwrap(),
            "rewrite changed semantics:\n  {q}\n  {opt}"
        );
    }

    #[test]
    fn project_pushes_through_union() {
        let catalog = test_catalog();
        let q = Query::rel("R").union(Query::rel("S")).project([0]);
        let (opt, trace) = optimize(&q, &RuleSet::standard(), &catalog);
        assert!(matches!(opt, Query::Union(..)), "{opt}");
        assert!(trace
            .steps
            .iter()
            .any(|s| s.rule == Rule::ProjectThroughUnion));
        assert_equivalent(&q, &opt, &catalog);
    }

    #[test]
    fn project_does_not_push_through_difference_without_key() {
        let catalog = test_catalog();
        let q = Query::rel("R").difference(Query::rel("S")).project([0]);
        let (opt, trace) = optimize(&q, &RuleSet::standard(), &catalog);
        assert!(matches!(opt, Query::Project(..)), "{opt}");
        assert!(trace.steps.is_empty());
        // and indeed pushing would be WRONG on this data: verify the
        // naive push differs somewhere (semantics check on generated data)
        let pushed = Query::rel("R")
            .project([0])
            .difference(Query::rel("S").project([0]));
        let db = db_of(&catalog);
        // (not asserting inequality — it may coincide by luck — but the
        // optimizer must not rely on luck; equivalence is only guaranteed
        // with the key constraint.)
        let _ = eval(&pushed, &db).unwrap();
    }

    #[test]
    fn project_pushes_through_difference_with_key() {
        let mut rng = StdRng::seed_from_u64(7);
        let (r, s) = generate_keyed_pair(&mut rng, 200, 3, 0.4);
        let catalog = Catalog::new().with(r).with(s);
        let constraints =
            Constraints::none().with_union_key(["R".to_string(), "S".to_string()], [0]);
        let q = Query::rel("R").difference(Query::rel("S")).project([0, 1]);
        let (opt, trace) = optimize(&q, &RuleSet::with_constraints(constraints), &catalog);
        assert!(matches!(opt, Query::Difference(..)), "{opt}");
        assert!(trace
            .steps
            .iter()
            .any(|s| s.rule == Rule::ProjectThroughDifference));
        assert_equivalent(&q, &opt, &catalog);
    }

    #[test]
    fn key_push_through_difference_is_sound_on_keyed_data() {
        // the rewrite must agree exactly on data honouring the constraint
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (r, s) = generate_keyed_pair(&mut rng, 100, 2, 0.5);
            let catalog = Catalog::new().with(r).with(s);
            let q = Query::rel("R").difference(Query::rel("S")).project([0]);
            let pushed = Query::rel("R")
                .project([0])
                .difference(Query::rel("S").project([0]));
            assert_equivalent(&q, &pushed, &catalog);
        }
    }

    #[test]
    fn map_pushes_through_union_for_opaque_f() {
        let catalog = test_catalog();
        let f = ValueFn::custom(|v| {
            // a "user-defined method we know nothing about"
            Value::tuple([v.project(1).cloned().unwrap_or(Value::Int(0))])
        });
        let q = Query::rel("R").union(Query::rel("S")).map(f);
        let (opt, trace) = optimize(&q, &RuleSet::standard(), &catalog);
        assert!(matches!(opt, Query::Union(..)), "{opt}");
        assert!(trace.steps.iter().any(|s| s.rule == Rule::MapThroughUnion));
        assert_equivalent(&q, &opt, &catalog);
    }

    #[test]
    fn filter_pushes_through_union_and_product() {
        let catalog = test_catalog();
        let q = Query::rel("R")
            .union(Query::rel("S"))
            .select(Pred::eq_const(0, Value::Int(3)));
        let (opt, _) = optimize(&q, &RuleSet::standard(), &catalog);
        assert!(matches!(opt, Query::Union(..)));
        assert_equivalent(&q, &opt, &catalog);

        let q2 = Query::rel("R")
            .product(Query::rel("S"))
            .select(Pred::eq_const(1, Value::Int(3)));
        let (opt2, trace2) = optimize(&q2, &RuleSet::standard(), &catalog);
        assert!(
            trace2
                .steps
                .iter()
                .any(|s| s.rule == Rule::FilterThroughProduct),
            "{trace2}"
        );
        assert_equivalent(&q2, &opt2, &catalog);
    }

    #[test]
    fn filter_does_not_cross_product_when_touching_right() {
        let catalog = test_catalog();
        let q = Query::rel("R")
            .product(Query::rel("S"))
            .select(Pred::eq_cols(1, 2));
        let (_, trace) = optimize(&q, &RuleSet::standard(), &catalog);
        assert!(!trace
            .steps
            .iter()
            .any(|s| s.rule == Rule::FilterThroughProduct));
    }

    #[test]
    fn cascades_fuse() {
        let catalog = test_catalog();
        let q = Query::rel("R").project([0, 1]).project([1]);
        let (opt, _) = optimize(&q, &RuleSet::standard(), &catalog);
        match &opt {
            Query::Project(cols, inner) => {
                assert_eq!(cols, &vec![1]);
                assert!(matches!(**inner, Query::Rel(_)));
            }
            other => panic!("expected fused projection, got {other}"),
        }
        assert_equivalent(&q, &opt, &catalog);

        let q2 = Query::rel("R")
            .select(Pred::eq_const(0, Value::Int(1)))
            .select(Pred::eq_const(1, Value::Int(2)));
        let (opt2, _) = optimize(&q2, &RuleSet::standard(), &catalog);
        match &opt2 {
            Query::Select(Pred::And(..), inner) => {
                assert!(matches!(**inner, Query::Rel(_)));
            }
            other => panic!("expected fused selects, got {other}"),
        }
        assert_equivalent(&q2, &opt2, &catalog);
    }

    #[test]
    fn optimized_plans_do_less_work() {
        // the point of §4.4: the rewritten plan is cheaper on the engine
        let catalog = test_catalog();
        let q = Query::rel("R").union(Query::rel("S")).project([0]);
        let (opt, _) = optimize(&q, &RuleSet::standard(), &catalog);
        let (_, base_stats) = lower(&q)
            .unwrap()
            .eval_parallel(&catalog, &ExecConfig::serial())
            .unwrap();
        let (_, opt_stats) = lower(&opt)
            .unwrap()
            .eval_parallel(&catalog, &ExecConfig::serial())
            .unwrap();
        // pushing π below ∪ shrinks the union's inputs (duplicates
        // collapse early): strictly fewer rows processed
        assert!(
            opt_stats.rows_processed < base_stats.rows_processed,
            "optimized {opt_stats:?} vs baseline {base_stats:?}"
        );
    }

    #[test]
    fn trace_displays_justifications() {
        let catalog = test_catalog();
        let q = Query::rel("R").union(Query::rel("S")).project([0]);
        let (_, trace) = optimize(&q, &RuleSet::standard(), &catalog);
        let text = trace.to_string();
        assert!(text.contains("Cor 4.15"), "{text}");
    }

    #[test]
    fn rule_subsets_can_be_disabled() {
        let catalog = test_catalog();
        let q = Query::rel("R").union(Query::rel("S")).project([0]);
        let (opt, trace) = optimize(&q, &RuleSet::only([Rule::FilterFuse]), &catalog);
        assert!(trace.steps.is_empty());
        assert!(matches!(opt, Query::Project(..)));
    }
}
