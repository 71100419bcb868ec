//! A cardinality-based cost model, and cost-guarded optimization.
//!
//! Section 4.4 derives *equivalences*; an optimizer still needs to decide
//! whether firing one helps. The Series C experiment (EXPERIMENTS.md)
//! shows the key-aware `Π(R − S)` push has a genuine crossover in tuple
//! width, so [`optimize_costed`] estimates the work of the original and
//! rewritten plans and keeps whichever is cheaper — equivalence supplied
//! by genericity, profitability by the model.

use crate::rewrite::{optimize, RewriteTrace};
use crate::rules::{arity_of, pred_columns, RuleSet};
use crate::stats::{CatalogStats, EstimateSource, OpStats};
use genpar_algebra::{Pred, Query};
use genpar_engine::Catalog;

/// Cardinality and cost estimates for a query under a catalog.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated output tuple width.
    pub width: f64,
    /// Estimated total cells processed by the whole subtree.
    pub cost: f64,
}

/// Default selectivity of an equality predicate against a constant.
const EQ_CONST_SELECTIVITY: f64 = 0.1;
/// Default selectivity of a column-equality predicate.
const EQ_COLS_SELECTIVITY: f64 = 0.2;
/// Rounds the model expects an inflationary fixpoint to run before
/// saturating. Each round pays the worker-startup cost once on the
/// parallel route, so this multiplies into the crossover.
pub const EXPECTED_FIXPOINT_ROUNDS: f64 = 8.0;
/// How much larger than its seed the model guesses a saturated fixpoint
/// accumulator ends up.
const SATURATION_FACTOR: f64 = 4.0;

/// Estimate a query bottom-up. Unknown shapes get pessimistic defaults
/// (cardinality of the largest input).
pub fn estimate(q: &Query, catalog: &Catalog) -> Estimate {
    estimate_with_stats(q, catalog, None)
}

/// The observed entry backing this query node, if any: lower the subtree
/// to its plan shape, fingerprint it, and look up a trustworthy
/// (`samples >= MIN_SAMPLES`) entry. `None` when stats are off, the
/// subtree does not lower, or the entry is immature.
fn observed_at<'a>(q: &Query, obs: Option<&'a CatalogStats>) -> Option<&'a OpStats> {
    let stats = obs?;
    let plan = genpar_engine::lower(q)?;
    stats.lookup(plan.fingerprint())
}

/// [`estimate`] with a catalog's **observed statistics** in the loop: at
/// every node whose plan-shape fingerprint has a trustworthy entry, the
/// observed cardinality EWMA overrides the static guess. Child overrides
/// propagate — a parent's cost terms are computed from its children's
/// (possibly observed) cardinalities. `None` is byte-identical to
/// [`estimate`].
pub fn estimate_with_stats(q: &Query, catalog: &Catalog, obs: Option<&CatalogStats>) -> Estimate {
    let est = estimate_static_node(q, catalog, obs);
    match observed_at(q, obs) {
        Some(e) => Estimate {
            rows: e.rows_ewma,
            width: est.width,
            cost: est.cost,
        },
        None => est,
    }
}

/// One node of the static model, with children estimated through the
/// full (override-aware) recursion.
fn estimate_static_node(q: &Query, catalog: &Catalog, obs: Option<&CatalogStats>) -> Estimate {
    let estimate = |q: &Query, catalog: &Catalog| estimate_with_stats(q, catalog, obs);
    match q {
        Query::Rel(n) => {
            let (rows, width) = catalog
                .get(n)
                .map(|t| (t.len() as f64, t.schema.arity() as f64))
                .unwrap_or((0.0, 1.0));
            Estimate {
                rows,
                width,
                cost: 0.0,
            }
        }
        Query::Empty => Estimate {
            rows: 0.0,
            width: 1.0,
            cost: 0.0,
        },
        Query::Lit(v) => Estimate {
            rows: v.len() as f64,
            width: 1.0,
            cost: 0.0,
        },
        Query::Project(cols, inner) => {
            let i = estimate(inner, catalog);
            Estimate {
                rows: i.rows, // conservative: duplicates may collapse
                width: cols.len() as f64,
                cost: i.cost + i.rows * i.width,
            }
        }
        Query::Select(p, inner) => {
            let i = estimate(inner, catalog);
            Estimate {
                rows: i.rows * selectivity(p),
                width: i.width,
                cost: i.cost + i.rows * i.width,
            }
        }
        Query::SelectHat(_, _, inner) => {
            let i = estimate(inner, catalog);
            Estimate {
                rows: i.rows * EQ_COLS_SELECTIVITY,
                width: (i.width - 1.0).max(1.0),
                cost: i.cost + i.rows * i.width,
            }
        }
        Query::Union(a, b) => {
            let (x, y) = (estimate(a, catalog), estimate(b, catalog));
            Estimate {
                rows: x.rows + y.rows,
                width: x.width.max(y.width),
                cost: x.cost + y.cost + (x.rows * x.width + y.rows * y.width),
            }
        }
        Query::Intersect(a, b) | Query::Difference(a, b) => {
            let (x, y) = (estimate(a, catalog), estimate(b, catalog));
            Estimate {
                rows: x.rows * 0.5,
                width: x.width,
                cost: x.cost + y.cost + (x.rows * x.width + y.rows * y.width),
            }
        }
        Query::Product(a, b) => {
            let (x, y) = (estimate(a, catalog), estimate(b, catalog));
            Estimate {
                rows: x.rows * y.rows,
                width: x.width + y.width,
                cost: x.cost + y.cost + x.rows * y.rows * (x.width + y.width),
            }
        }
        Query::Join(on, a, b) => {
            let (x, y) = (estimate(a, catalog), estimate(b, catalog));
            let out_rows = if on.is_empty() {
                x.rows * y.rows
            } else {
                // foreign-key-ish heuristic
                (x.rows * y.rows / x.rows.max(y.rows).max(1.0)).max(1.0)
            };
            Estimate {
                rows: out_rows,
                width: x.width + y.width,
                cost: x.cost + y.cost + (x.rows * x.width + y.rows * y.width),
            }
        }
        Query::Map(_, inner) | Query::Insert(_, inner) => {
            let i = estimate(inner, catalog);
            Estimate {
                rows: i.rows,
                width: i.width,
                cost: i.cost + i.rows * i.width,
            }
        }
        // scalar aggregates: one pass over the input, one row out
        Query::Count(inner) | Query::Sum(_, inner) => {
            let i = estimate(inner, catalog);
            Estimate {
                rows: 1.0,
                width: 1.0,
                cost: i.cost + i.rows * i.width,
            }
        }
        Query::Even(inner) => {
            let i = estimate(inner, catalog);
            Estimate {
                rows: 1.0,
                width: 1.0,
                cost: i.cost + i.rows * i.width,
            }
        }
        // a fixpoint runs its body once per round until saturation; the
        // model prices EXPECTED_FIXPOINT_ROUNDS rounds (the loop variable
        // is absent from the catalog, so the step estimate reflects the
        // base relations it joins against)
        Query::Fixpoint { init, step, .. } => {
            let i = estimate(init, catalog);
            let s = estimate(step, catalog);
            Estimate {
                rows: (i.rows * SATURATION_FACTOR).max(i.rows),
                width: i.width.max(s.width),
                cost: i.cost + EXPECTED_FIXPOINT_ROUNDS * (s.cost + s.rows * s.width).max(1.0),
            }
        }
        // complex-value operators: coarse defaults
        _ => {
            let arity = arity_of(q, catalog).unwrap_or(1) as f64;
            Estimate {
                rows: 100.0,
                width: arity,
                cost: 100.0 * arity,
            }
        }
    }
}

/// Estimate a query as executed by `workers` workers on the partitioned
/// executor, under the **default** (uncalibrated) cost model — the
/// historical 3%/worker coordination guess. See
/// [`estimate_parallel_with_stats`] for the calibrated form.
pub fn estimate_parallel(q: &Query, catalog: &Catalog, workers: usize) -> Estimate {
    estimate_parallel_with_stats(q, catalog, workers, &crate::Calibration::default(), None)
}

/// Estimate a query as executed by `workers` workers on the partitioned
/// executor, pricing coordination with a measured
/// [`Calibration`](crate::Calibration) and cardinalities with a catalog's
/// observed statistics (see [`estimate_with_stats`]; `None` is the static
/// model). The parallelism factor applies **only** when the
/// partition-safety gate certifies the query — the cost model consults
/// the same genericity checker the executor does, so it never predicts a
/// speedup the executor would refuse to attempt. Cardinalities are
/// unchanged (parallelism moves work, it does not create rows); only
/// `cost` is scaled.
pub fn estimate_parallel_with_stats(
    q: &Query,
    catalog: &Catalog,
    workers: usize,
    cal: &crate::Calibration,
    obs: Option<&CatalogStats>,
) -> Estimate {
    let base = estimate_with_stats(q, catalog, obs);
    if workers <= 1 {
        return base;
    }
    let cost = match genpar_core::partition_safety(q) {
        // plainly distributive: one parallel run
        genpar_core::PartitionSafety::Safe(_) => cal.parallel_cost(base.cost, workers),
        // per-round gate: the body's work parallelizes, but every round
        // pays the worker-startup cost again — expected rounds × the
        // per-round parallel cost
        genpar_core::PartitionSafety::FixpointRoundSafe { .. } => {
            let per_round = base.cost / EXPECTED_FIXPOINT_ROUNDS;
            EXPECTED_FIXPOINT_ROUNDS * cal.parallel_cost(per_round, workers)
        }
        // combiner: the accumulate pass parallelizes; the serial combine
        // folds one partial per worker
        genpar_core::PartitionSafety::Combiner { .. } => {
            cal.parallel_cost(base.cost, workers) + workers as f64
        }
        genpar_core::PartitionSafety::Unsafe { .. } => return base,
    };
    Estimate {
        rows: base.rows,
        width: base.width,
        cost,
    }
}

/// Per-node estimates for the subtrees of `q`, preorder, each labelled
/// with the physical operator the node lowers to (`plan.Scan`,
/// `plan.Filter`, …) and with where its cardinality came from —
/// [`EstimateSource::Static`] or [`EstimateSource::Observed`]. `explain`
/// prints them per operator; pairing them against the `rows_out` fields
/// the executor records in its `plan.*` spans gives the per-operator
/// misestimate ratio that `profile` reports. Complex-value nodes that do
/// not lower get the label `plan.Other` and are not descended into.
pub fn estimate_nodes_with_sources(
    q: &Query,
    catalog: &Catalog,
    obs: Option<&CatalogStats>,
) -> Vec<(&'static str, Estimate, EstimateSource)> {
    fn walk(
        q: &Query,
        catalog: &Catalog,
        obs: Option<&CatalogStats>,
        out: &mut Vec<(&'static str, Estimate, EstimateSource)>,
    ) {
        let (name, children): (&'static str, Vec<&Query>) = match q {
            Query::Rel(_) => ("plan.Scan", vec![]),
            Query::Empty | Query::Lit(_) => ("plan.Values", vec![]),
            Query::Select(_, a) => ("plan.Filter", vec![a]),
            Query::SelectHat(_, _, a) => ("plan.Filter", vec![a]),
            Query::Project(_, a) => ("plan.Project", vec![a]),
            Query::Join(_, a, b) => ("plan.HashJoin", vec![a, b]),
            Query::Product(a, b) => ("plan.Product", vec![a, b]),
            Query::Union(a, b) => ("plan.Union", vec![a, b]),
            Query::Intersect(a, b) => ("plan.Intersect", vec![a, b]),
            Query::Difference(a, b) => ("plan.Difference", vec![a, b]),
            Query::Map(_, a) | Query::Insert(_, a) => ("plan.MapRows", vec![a]),
            // the dedicated parallel routes: label by the exec span they
            // record under, and keep descending into the certified input
            Query::Count(a) | Query::Sum(_, a) | Query::Even(a) => ("exec.combine", vec![a]),
            Query::Fixpoint { init, step, .. } => ("exec.fixpoint_round", vec![init, step]),
            _ => ("plan.Other", vec![]),
        };
        let source = match observed_at(q, obs) {
            Some(e) => EstimateSource::Observed { n: e.samples },
            None => EstimateSource::Static,
        };
        out.push((name, estimate_with_stats(q, catalog, obs), source));
        for c in children {
            walk(c, catalog, obs, out);
        }
    }
    let mut out = Vec::new();
    walk(q, catalog, obs, &mut out);
    out
}

fn selectivity(p: &Pred) -> f64 {
    match p {
        Pred::True => 1.0,
        Pred::EqCols(..) => EQ_COLS_SELECTIVITY,
        Pred::EqConst(..) => EQ_CONST_SELECTIVITY,
        Pred::Named(..) => 0.5,
        Pred::And(a, b) => selectivity(a) * selectivity(b),
        Pred::Or(a, b) => (selectivity(a) + selectivity(b)).min(1.0),
        Pred::Not(a) => 1.0 - selectivity(a),
    }
}

impl Estimate {
    /// Sanity: columns mentioned by a predicate are within the width.
    pub fn covers_pred(&self, p: &Pred) -> bool {
        pred_columns(p).into_iter().all(|c| (c as f64) < self.width)
    }
}

/// Optimize, then keep the rewritten query only if the model estimates it
/// cheaper. Returns the chosen query, the trace, and both estimates.
pub fn optimize_costed(
    q: &Query,
    rules: &RuleSet,
    catalog: &Catalog,
) -> (Query, RewriteTrace, Estimate, Estimate) {
    optimize_costed_parallel_with_stats(q, rules, catalog, 1, &crate::Calibration::default(), None)
}

/// [`optimize_costed`] with the plans costed for a `workers`-wide
/// executor under a measured [`Calibration`](crate::Calibration) and a
/// catalog's observed statistics: the rewrite pass, then
/// [`keep_cheaper`].
pub fn optimize_costed_parallel_with_stats(
    q: &Query,
    rules: &RuleSet,
    catalog: &Catalog,
    workers: usize,
    cal: &crate::Calibration,
    obs: Option<&CatalogStats>,
) -> (Query, RewriteTrace, Estimate, Estimate) {
    let (rewritten, trace) = optimize(q, rules, catalog);
    keep_cheaper(q, rewritten, trace, catalog, workers, cal, obs)
}

/// Cost `q` and its rewrite `rewritten` (with the rewrite pass's
/// `trace`) for a `workers`-wide executor ([`estimate_parallel_with_stats`])
/// and keep the cheaper: the rewrite with its trace, or `q` with an
/// empty one. Returns the chosen query, its trace and both estimates.
///
/// Because the parallelism factor applies only to partition-safe plans,
/// a rewrite that moves a query *into* the certified fragment is
/// rewarded with the full parallel discount — genericity pays twice,
/// once logically and once physically. Observed statistics can change
/// which plan wins, and *only* that: the two queries stay
/// value-equivalent by the rewrite rules' soundness, so feedback never
/// changes an answer.
pub fn keep_cheaper(
    q: &Query,
    rewritten: Query,
    trace: RewriteTrace,
    catalog: &Catalog,
    workers: usize,
    cal: &crate::Calibration,
    obs: Option<&CatalogStats>,
) -> (Query, RewriteTrace, Estimate, Estimate) {
    let _sp = genpar_obs::span("optimizer.costed");
    // cost estimation is advisory: a fault or panic inside it degrades to
    // the original plan with zeroed estimates instead of failing the query
    let attempted = genpar_guard::faultpoint("optimizer.cost")
        .map_err(|f| f.to_string())
        .and_then(|()| {
            genpar_guard::catch_panics(|| {
                (
                    estimate_parallel_with_stats(q, catalog, workers, cal, obs),
                    estimate_parallel_with_stats(&rewritten, catalog, workers, cal, obs),
                )
            })
        });
    let (base_est, new_est) = match attempted {
        Ok(out) => out,
        Err(reason) => {
            crate::rewrite::degrade("cost", &reason);
            let zero = Estimate {
                rows: 0.0,
                width: 0.0,
                cost: 0.0,
            };
            return (q.clone(), RewriteTrace::default(), zero, zero);
        }
    };
    let keep_rewrite = new_est.cost < base_est.cost;
    genpar_obs::event(
        "optimizer.plan_choice",
        [
            (
                "chosen",
                genpar_obs::FieldValue::from(if keep_rewrite {
                    "rewritten"
                } else {
                    "original"
                }),
            ),
            ("base_cost", genpar_obs::FieldValue::F64(base_est.cost)),
            ("new_cost", genpar_obs::FieldValue::F64(new_est.cost)),
            (
                "steps",
                genpar_obs::FieldValue::U64(trace.steps.len() as u64),
            ),
            (
                "workers",
                genpar_obs::FieldValue::U64(workers.max(1) as u64),
            ),
        ],
    );
    if keep_rewrite {
        genpar_obs::counter("optimizer.costed_rewrite_kept", 1);
        (rewritten, trace, base_est, new_est)
    } else {
        genpar_obs::counter("optimizer.costed_rewrite_rejected", 1);
        (q.clone(), RewriteTrace::default(), base_est, new_est)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Constraints;
    use genpar_engine::workload::generate_keyed_pair;
    use genpar_engine::{lower, Catalog};
    use genpar_exec::{EvalParallel, ExecConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keyed_catalog(arity: usize) -> Catalog {
        let mut rng = StdRng::seed_from_u64(9);
        let (r, s) = generate_keyed_pair(&mut rng, 2_000, arity, 0.5);
        Catalog::new().with(r).with(s)
    }

    fn keyed_rules() -> RuleSet {
        RuleSet::with_constraints(
            Constraints::none().with_union_key(["R".to_string(), "S".to_string()], [0]),
        )
    }

    #[test]
    fn estimates_scale_with_catalog() {
        let cat = keyed_catalog(3);
        let e = estimate(&Query::rel("R"), &cat);
        assert_eq!(e.rows, 2000.0);
        assert_eq!(e.width, 3.0);
        let u = estimate(&Query::rel("R").union(Query::rel("S")), &cat);
        assert_eq!(u.rows, 4000.0);
        assert!(u.cost > 0.0);
    }

    #[test]
    fn selection_reduces_estimated_rows() {
        let cat = keyed_catalog(2);
        let base = estimate(&Query::rel("R"), &cat).rows;
        let sel = estimate(
            &Query::rel("R").select(Pred::eq_const(0, genpar_value::Value::Int(3))),
            &cat,
        )
        .rows;
        assert!(sel < base);
    }

    #[test]
    fn costed_optimizer_respects_the_series_c_crossover() {
        // narrow rows: model must keep the ORIGINAL Π(R − S)
        let q = Query::rel("R").difference(Query::rel("S")).project([0]);
        let cat2 = keyed_catalog(2);
        let (chosen2, trace2, _, _) = optimize_costed(&q, &keyed_rules(), &cat2);
        assert!(trace2.steps.is_empty(), "narrow rows must not rewrite");
        assert!(matches!(chosen2, Query::Project(..)));

        // wide rows: model must take the rewrite
        let cat8 = keyed_catalog(8);
        let (chosen8, trace8, base_est, new_est) = optimize_costed(&q, &keyed_rules(), &cat8);
        assert!(!trace8.steps.is_empty(), "wide rows must rewrite");
        assert!(matches!(chosen8, Query::Difference(..)));
        assert!(new_est.cost < base_est.cost);

        // and the model's decisions match the engine's actual counters
        for (cat, q_chosen) in [(&cat2, &chosen2), (&cat8, &chosen8)] {
            let (_, chosen_stats) = lower(q_chosen)
                .unwrap()
                .eval_parallel(cat, &ExecConfig::serial())
                .unwrap();
            let (_, base_stats) = lower(&q)
                .unwrap()
                .eval_parallel(cat, &ExecConfig::serial())
                .unwrap();
            assert!(
                chosen_stats.cells_processed <= base_stats.cells_processed,
                "model picked a worse plan: {chosen_stats:?} vs {base_stats:?}"
            );
        }
    }

    #[test]
    fn costed_optimizer_always_pushes_projection_through_union() {
        let cat = keyed_catalog(3);
        let q = Query::rel("R").union(Query::rel("S")).project([0]);
        let (chosen, trace, _, _) = optimize_costed(&q, &RuleSet::standard(), &cat);
        assert!(!trace.steps.is_empty());
        assert!(matches!(chosen, Query::Union(..)));
    }

    #[test]
    fn parallel_estimate_discounts_only_certified_queries() {
        let cat = keyed_catalog(3);
        let safe = Query::rel("R")
            .join_on(Query::rel("S"), [(0, 0)])
            .project([0]);
        let serial = estimate_parallel(&safe, &cat, 1);
        let par4 = estimate_parallel(&safe, &cat, 4);
        assert!(par4.cost < serial.cost, "4 workers must cut certified cost");
        assert_eq!(
            par4.rows, serial.rows,
            "parallelism must not change cardinality"
        );

        // whole-set operators get no discount: the gate refuses them
        let unsafe_q = Query::Powerset(Box::new(Query::rel("R")));
        assert_eq!(
            estimate_parallel(&unsafe_q, &cat, 4).cost,
            estimate(&unsafe_q, &cat).cost
        );

        // coordination overhead dominates eventually
        let par1000 = estimate_parallel(&safe, &cat, 1000);
        assert!(par1000.cost > par4.cost, "overhead must bound the speedup");
    }

    #[test]
    fn combiner_and_fixpoint_routes_earn_a_parallel_discount() {
        let cat = keyed_catalog(3);
        // a certified aggregate is no longer priced serial
        for q in [
            Query::Even(Box::new(Query::rel("R"))),
            Query::rel("R").count(),
            Query::rel("R").sum(0),
        ] {
            let serial = estimate(&q, &cat).cost;
            let par = estimate_parallel(&q, &cat, 4).cost;
            assert!(
                par < serial,
                "combiner {q} must be discounted: {par} vs {serial}"
            );
        }
        // a round-safe fixpoint is discounted too, but pays the startup
        // cost once per expected round: with a startup-heavy calibration
        // its parallel estimate exceeds a plain query's of equal size
        let step = Query::rel("X")
            .join_on(Query::rel("S"), [(1, 0)])
            .project([0, 3]);
        let fix = Query::fixpoint("X", Query::rel("R"), step);
        let serial = estimate(&fix, &cat).cost;
        let par = estimate_parallel(&fix, &cat, 4).cost;
        assert!(par < serial, "round-safe fixpoint must be discounted");
        let startup_heavy = crate::Calibration {
            overhead_per_worker: 0.0,
            startup_cost_cells: 1_000.0,
            unreliable: false,
        };
        // with zero per-worker overhead, parallel cost is C/4 plus the
        // startup term — a single one for a plain query, one per
        // expected round for the fixpoint
        let plain = Query::rel("R").project([0]);
        let plain_par = estimate_parallel_with_stats(&plain, &cat, 4, &startup_heavy, None);
        let fix_par = estimate_parallel_with_stats(&fix, &cat, 4, &startup_heavy, None);
        let plain_startup = plain_par.cost - estimate(&plain, &cat).cost / 4.0;
        let fix_startup = fix_par.cost - estimate(&fix, &cat).cost / 4.0;
        assert!(
            (fix_startup / plain_startup - EXPECTED_FIXPOINT_ROUNDS).abs() < 1e-6,
            "per-round startup must multiply by expected rounds: {fix_startup} vs {plain_startup}"
        );
        // an aggregate over an uncertified input stays undiscounted
        let refused = Query::Powerset(Box::new(Query::rel("R"))).count();
        assert_eq!(
            estimate_parallel(&refused, &cat, 4).cost,
            estimate(&refused, &cat).cost
        );
    }

    #[test]
    fn parallel_costed_optimizer_matches_serial_choice_shape() {
        let cat = keyed_catalog(8);
        let q = Query::rel("R").difference(Query::rel("S")).project([0]);
        let (chosen, trace, base_est, new_est) = optimize_costed_parallel_with_stats(
            &q,
            &keyed_rules(),
            &cat,
            4,
            &crate::Calibration::default(),
            None,
        );
        // both candidates are partition-safe, so the discount cancels and
        // the wide-row rewrite decision is preserved
        assert!(!trace.steps.is_empty());
        assert!(matches!(chosen, Query::Difference(..)));
        assert!(new_est.cost < base_est.cost);
    }

    #[test]
    fn pred_coverage_check() {
        let cat = keyed_catalog(2);
        let e = estimate(&Query::rel("R"), &cat);
        assert!(e.covers_pred(&Pred::eq_cols(0, 1)));
        assert!(!e.covers_pred(&Pred::eq_cols(0, 5)));
    }

    #[test]
    fn observed_stats_override_the_static_cardinality_guess() {
        use crate::stats::{CatalogStats, MIN_SAMPLES};
        let cat = keyed_catalog(3);
        // static model guesses 10% selectivity for Select(eq_const)
        let q = Query::rel("R").select(Pred::eq_const(0, genpar_value::Value::Int(7)));
        let static_est = estimate(&q, &cat);
        let fp = lower(&q).expect("lowers").fingerprint();

        // immature entry (below MIN_SAMPLES): no override
        let mut stats = CatalogStats::default();
        for _ in 0..MIN_SAMPLES - 1 {
            stats.observe(fp, "plan.Filter", 2_000, 3);
        }
        assert_eq!(estimate_with_stats(&q, &cat, Some(&stats)), static_est);
        assert_eq!(
            estimate_nodes_with_sources(&q, &cat, Some(&stats))
                .iter()
                .filter(|(_, _, src)| matches!(src, EstimateSource::Observed { .. }))
                .count(),
            0
        );

        // mature entry: rows comes from the observed EWMA, width and the
        // cost *structure* stay the model's
        stats.observe(fp, "plan.Filter", 2_000, 3);
        let observed_est = estimate_with_stats(&q, &cat, Some(&stats));
        let ewma = stats.lookup(fp).expect("mature").rows_ewma;
        assert_eq!(observed_est.rows, ewma);
        assert!(
            observed_est.rows < static_est.rows,
            "observed {} must undercut the static 10% guess {}",
            observed_est.rows,
            static_est.rows
        );
        assert_eq!(observed_est.width, static_est.width);
        // explain surfaces the source
        let sources = estimate_nodes_with_sources(&q, &cat, Some(&stats));
        assert!(sources
            .iter()
            .any(|(_, _, src)| matches!(src, EstimateSource::Observed { n } if *n >= MIN_SAMPLES)));

        // child overrides propagate into the parent's cost terms: a
        // projection over the filtered node now prices the observed rows
        let proj = q.clone().project([0]);
        let proj_static = estimate(&proj, &cat);
        let proj_obs = estimate_with_stats(&proj, &cat, Some(&stats));
        assert!(
            proj_obs.cost < proj_static.cost,
            "parent cost must shrink with the child's observed cardinality"
        );

        // None is byte-identical to the static path
        assert_eq!(estimate_with_stats(&q, &cat, None), static_est);
    }
}
