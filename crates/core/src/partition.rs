//! The partition-safety gate: which queries may be evaluated
//! per-partition and recombined.
//!
//! Section 4.4 uses genericity/parametricity facts to license *logical*
//! rewrites; the same facts license a *physical* one. Partitioning a base
//! relation `R = R₁ ∪ … ∪ Rₚ` and evaluating per partition is sound for
//! an operator `Q` exactly when `Q` distributes over that union — and the
//! operators of the flat relational fragment do, for two reasons the
//! paper supplies:
//!
//! * **per-tuple operators** (σ, π, σ̂, map) are parametric in the row:
//!   their action on a tuple never inspects any other tuple, so
//!   `Q(⋃ᵢ Rᵢ) = ⋃ᵢ Q(Rᵢ)` (Proposition 3.1's closure under composition
//!   applied morsel-wise);
//! * **multiset operators** (∪, ∩, −, ×, ⋈) are generic set functions
//!   that commute with any *hash-consistent* partitioning — routing equal
//!   rows (or equal join keys) to the same partition makes the
//!   per-partition results disjoint up to canonical merge.
//!
//! What does **not** distribute is exactly the whole-set fragment:
//! `even` is generic (Lemma 2.12) yet its value on `R₁ ∪ R₂` is not a
//! function of its values on `R₁` and `R₂`; `powerset` of a partition
//! union is not the union of partition powersets; `eq_adom`, `adom`,
//! `complement`, nest/unnest and fixpoint iteration likewise couple
//! partitions. Those queries must take the serial path.
//!
//! The gate is *consulted*, not assumed: a query whose operators are all
//! distributive but whose static classification comes back `unknown`
//! (an opaque `map` closure, say) carries no genericity certificate and
//! is refused too — parallel execution runs only on certified plans.

use crate::class::Requirements;
use crate::infer::infer_requirements;
use genpar_algebra::Query;
use std::fmt;

/// A positive gate decision: the genericity certificate the static
/// classifier derived for a partition-distributive query.
#[derive(Debug, Clone)]
pub struct SafetyCert {
    /// Requirements in `rel` mode (the certificate the parallel rewrite
    /// cites — see [`crate::infer_requirements`]).
    pub rel: Requirements,
    /// Requirements in `strong` mode.
    pub strong: Requirements,
    /// Number of operators certified.
    pub ops: usize,
}

impl fmt::Display for SafetyCert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} operators certified; rel-mode class: {}",
            self.ops, self.rel
        )
    }
}

/// The gate's verdict on one query.
#[derive(Debug, Clone)]
pub enum PartitionSafety {
    /// Every operator distributes over hash-consistent partitioning and
    /// the classifier certified the query generic/parametric: parallel
    /// evaluation returns `Value`-identical results to serial.
    Safe(SafetyCert),
    /// The query is a fixpoint whose *loop as a whole* does not
    /// distribute over partitioning (saturation couples rounds), but
    /// whose seed and per-round body are both in the certified
    /// distributive fragment. Each round's body may run partitioned,
    /// with deltas canonically merged between rounds — results stay
    /// `Value`-identical to serial inflationary evaluation.
    FixpointRoundSafe {
        /// Certificate for the loop body (seed + step together).
        body_cert: SafetyCert,
    },
    /// The query is a whole-set aggregate (`even`, `count`, `sum`) that
    /// is *not* a function of per-partition results of itself — parity
    /// famously so (Lemma 2.12: `even(R₁∪R₂) ≠ even(R₁) xor even(R₂)`) —
    /// but whose underlying measure is: partition-local accumulators
    /// (counts, partial sums) combine serially into the exact answer.
    /// The input subquery is certified distributive.
    Combiner {
        /// The aggregate operator ("even", "count", "sum").
        op: &'static str,
        /// Certificate for the partitioned input subquery.
        cert: SafetyCert,
    },
    /// Some operator couples partitions (or carries no certificate);
    /// evaluation must fall back to the serial path.
    Unsafe {
        /// The first offending operator.
        op: &'static str,
        /// Why it does not commute with partitioning.
        reason: &'static str,
    },
}

impl PartitionSafety {
    /// Is plain per-partition evaluation licensed (the whole plan
    /// distributes)? Deliberately `false` for the round/combiner
    /// verdicts: those need their dedicated execution schemes, and every
    /// pre-existing caller of `is_safe` assumes the plain one.
    pub fn is_safe(&self) -> bool {
        matches!(self, PartitionSafety::Safe(_))
    }

    /// Can the executor take *any* parallel route for this query —
    /// plain partitioned, per-round fixpoint, or partition-local
    /// accumulate + serial combine?
    pub fn parallel_eligible(&self) -> bool {
        !matches!(self, PartitionSafety::Unsafe { .. })
    }

    /// The certificate backing the verdict, if any.
    pub fn certificate(&self) -> Option<&SafetyCert> {
        match self {
            PartitionSafety::Safe(c) => Some(c),
            PartitionSafety::FixpointRoundSafe { body_cert } => Some(body_cert),
            PartitionSafety::Combiner { cert, .. } => Some(cert),
            PartitionSafety::Unsafe { .. } => None,
        }
    }
}

/// First operator in the tree that does not distribute over partition
/// union, with the reason.
fn first_unsafe_op(q: &Query) -> Option<(&'static str, &'static str)> {
    match q {
        Query::Rel(_) | Query::Empty => None,
        Query::Lit(v) if v.as_set().is_some() => None,
        Query::Lit(_) => Some(("lit", "non-relation literal has no rows to partition")),
        Query::Project(_, a) | Query::Select(_, a) | Query::SelectHat(_, _, a) => {
            first_unsafe_op(a)
        }
        Query::Map(genpar_algebra::ValueFn::Custom(..), _) => Some((
            "map",
            "opaque map closure carries no genericity certificate (classifier returns unknown)",
        )),
        Query::Map(f, _) if !f.row_shaped() => Some((
            "map",
            "map may emit bare (non-tuple) values: rows are tuples (§2.1), so only the walker holds its output",
        )),
        Query::Map(_, a) => first_unsafe_op(a),
        Query::Product(a, b)
        | Query::Union(a, b)
        | Query::Intersect(a, b)
        | Query::Difference(a, b)
        | Query::Join(_, a, b) => first_unsafe_op(a).or_else(|| first_unsafe_op(b)),
        Query::Insert(..) => Some(("insert", "constant insertion is not morsel-local")),
        Query::Singleton(_) => Some(("singleton", "wraps the whole result, not each partition")),
        Query::Flatten(_) => Some(("flatten", "inner sets may straddle partitions")),
        Query::Powerset(_) => Some((
            "powerset",
            "℘(R₁ ∪ R₂) ≠ ℘(R₁) ∪ ℘(R₂): subsets straddle partitions",
        )),
        Query::EqAdom(_) => Some((
            "eq_adom",
            "active domain is a whole-input property (Prop 3.5)",
        )),
        Query::Adom(_) => Some(("adom", "active domain is a whole-input property")),
        Query::Even(_) => Some((
            "even",
            "cardinality parity is a whole-set property (Lemma 2.12): not a function of partition parities",
        )),
        Query::NestParity(_) => Some(("np", "nesting depth is a whole-value property (Prop 4.16)")),
        Query::Complement(_) => Some((
            "complement",
            "complement is relative to the whole universe, not a partition",
        )),
        Query::TuplePair(..) => Some(("pair", "produces a tuple, not a partitionable relation")),
        Query::Nest(..) => Some(("nest", "groups may straddle partitions")),
        Query::Unnest(..) => Some(("unnest", "nested sets are not hash-partitioned by row")),
        // The aggregates and the fixpoint get dedicated verdicts when
        // they sit at the ROOT of the plan (see `partition_safety`);
        // nested anywhere else they break distributivity like any other
        // whole-set operator.
        Query::Count(_) => Some((
            "count",
            "cardinality is a whole-set property: combinable only as the outermost operator",
        )),
        Query::Sum(..) => Some((
            "sum",
            "an aggregate is a whole-set property: combinable only as the outermost operator",
        )),
        Query::Fixpoint { .. } => Some((
            "fix",
            "fixpoint saturation couples rounds: parallelizable only as the outermost operator",
        )),
    }
}

/// Decide whether `q` may run on the parallel partitioned executor.
///
/// Safe means: every operator is in the distributive fragment **and**
/// the static genericity classifier ([`crate::infer_requirements`])
/// certified the query — the certificate rides along in the verdict so
/// executors and `explain` can cite it.
pub fn partition_safety(q: &Query) -> PartitionSafety {
    // Root-shape dispatch: a fixpoint or a combinable aggregate at the
    // TOP of the plan earns a dedicated verdict — the loop/aggregate
    // itself does not distribute, but its body/input does, and the
    // executor has an exact scheme for each (per-round morsels with
    // canonical delta merge; partition-local accumulate + serial
    // combine). Nested occurrences still fall through to `first_unsafe_op`.
    match q {
        Query::Fixpoint { init, step, .. } => {
            let ci = match certify_distributive(init) {
                Ok(c) => c,
                Err((op, reason)) => return PartitionSafety::Unsafe { op, reason },
            };
            let cs = match certify_distributive(step) {
                Ok(c) => c,
                Err((op, reason)) => return PartitionSafety::Unsafe { op, reason },
            };
            // One certificate for the whole loop body: seed joined with
            // step (the loop variable reads as a base relation — each
            // round's delta is materialized before the body runs, cf.
            // Prop 3.1 closure under composition).
            return PartitionSafety::FixpointRoundSafe {
                body_cert: SafetyCert {
                    rel: ci.rel.join(cs.rel),
                    strong: ci.strong.join(cs.strong),
                    ops: ci.ops + cs.ops,
                },
            };
        }
        Query::Even(inner) => return combiner_verdict("even", inner),
        Query::Count(inner) => return combiner_verdict("count", inner),
        Query::Sum(_, inner) => return combiner_verdict("sum", inner),
        _ => {}
    }
    match certify_distributive(q) {
        Ok(cert) => PartitionSafety::Safe(cert),
        Err((op, reason)) => PartitionSafety::Unsafe { op, reason },
    }
}

/// Certify one subtree as plainly distributive: no whole-set operator
/// anywhere, and the classifier produced a genericity certificate. The
/// error is the `(op, reason)` pair of an `Unsafe` verdict (kept small
/// so the hot `Result` path stays register-sized; callers wrap it).
fn certify_distributive(q: &Query) -> Result<SafetyCert, (&'static str, &'static str)> {
    if let Some((op, reason)) = first_unsafe_op(q) {
        return Err((op, reason));
    }
    let inf = infer_requirements(q);
    if inf.rel.unknown {
        return Err((
            "map",
            "classifier could not certify the query (unknown requirements)",
        ));
    }
    Ok(SafetyCert {
        rel: inf.rel,
        strong: inf.strong,
        ops: q.size(),
    })
}

/// Verdict for a root aggregate over a distributive input: the measure
/// (count, component sum) is a homomorphism from disjoint union, so
/// partition-local accumulators plus one serial combine reproduce the
/// serial answer exactly — unlike naive per-partition evaluation of the
/// aggregate itself (Lemma 2.12's parity pitfall).
fn combiner_verdict(op: &'static str, inner: &Query) -> PartitionSafety {
    match certify_distributive(inner) {
        Ok(cert) => PartitionSafety::Combiner { op, cert },
        Err((op, reason)) => PartitionSafety::Unsafe { op, reason },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genpar_algebra::{Pred, ValueFn};
    use genpar_value::Value;

    #[test]
    fn relational_fragment_is_safe_with_certificate() {
        let q = genpar_algebra::Query::rel("R")
            .select(Pred::eq_cols(0, 1))
            .join_on(genpar_algebra::Query::rel("S"), [(0, 0)])
            .project([0]);
        match partition_safety(&q) {
            PartitionSafety::Safe(cert) => {
                assert_eq!(cert.ops, 5);
                // σ$1=$2 and ⋈ demand equality preservation — the
                // certificate carries the classifier's derivation
                assert!(cert.rel.injective);
            }
            other => panic!("expected Safe, got {other:?}"),
        }
    }

    #[test]
    fn whole_set_operators_are_unsafe() {
        for (q, op) in [
            (
                genpar_algebra::Query::Powerset(Box::new(genpar_algebra::Query::rel("R"))),
                "powerset",
            ),
            (
                genpar_algebra::Query::Complement(Box::new(genpar_algebra::Query::rel("R"))),
                "complement",
            ),
            (
                genpar_algebra::Query::Adom(Box::new(genpar_algebra::Query::rel("R"))),
                "adom",
            ),
        ] {
            match partition_safety(&q) {
                PartitionSafety::Unsafe { op: got, .. } => assert_eq!(got, op),
                other => panic!("expected Unsafe({op}), got {other:?}"),
            }
        }
    }

    #[test]
    fn root_aggregates_get_combiner_verdicts() {
        let r = || genpar_algebra::Query::rel("R");
        for (q, op) in [
            (
                genpar_algebra::Query::Even(Box::new(r().select(Pred::True))),
                "even",
            ),
            (r().count(), "count"),
            (r().sum(0), "sum"),
        ] {
            let verdict = partition_safety(&q);
            assert!(!verdict.is_safe(), "combiner is not plain-safe");
            assert!(verdict.parallel_eligible());
            match verdict {
                PartitionSafety::Combiner { op: got, cert } => {
                    assert_eq!(got, op);
                    assert!(!cert.rel.unknown);
                }
                other => panic!("expected Combiner({op}), got {other:?}"),
            }
        }
    }

    #[test]
    fn aggregates_are_combinable_only_at_the_root() {
        // count nested under a projection is no longer the outermost
        // operator: the combiner scheme does not apply
        let q = genpar_algebra::Query::Singleton(Box::new(genpar_algebra::Query::rel("R").count()));
        match partition_safety(&q) {
            PartitionSafety::Unsafe { op, .. } => assert_eq!(op, "singleton"),
            other => panic!("expected Unsafe, got {other:?}"),
        }
        // ... and an aggregate over an uncertified input is refused
        let q = genpar_algebra::Query::rel("R")
            .map(ValueFn::custom(|v| v.clone()))
            .count();
        assert!(!partition_safety(&q).parallel_eligible());
    }

    #[test]
    fn root_fixpoint_with_distributive_body_is_round_safe() {
        // transitive closure: fix[X](E, π$1,$4(X ⋈ E))
        let step = genpar_algebra::Query::rel("X")
            .join_on(genpar_algebra::Query::rel("E"), [(1, 0)])
            .project([0, 3]);
        let q = genpar_algebra::Query::fixpoint("X", genpar_algebra::Query::rel("E"), step);
        let verdict = partition_safety(&q);
        assert!(verdict.parallel_eligible() && !verdict.is_safe());
        match verdict {
            PartitionSafety::FixpointRoundSafe { body_cert } => {
                assert!(body_cert.ops > 1);
                assert!(!body_cert.rel.unknown);
            }
            other => panic!("expected FixpointRoundSafe, got {other:?}"),
        }
    }

    #[test]
    fn fixpoint_with_whole_set_body_is_refused() {
        // even inside the loop body couples partitions within a round
        let step = genpar_algebra::Query::Singleton(Box::new(genpar_algebra::Query::Even(
            Box::new(genpar_algebra::Query::rel("X")),
        )));
        let q = genpar_algebra::Query::fixpoint("X", genpar_algebra::Query::rel("E"), step);
        match partition_safety(&q) {
            PartitionSafety::Unsafe { op, .. } => assert_eq!(op, "singleton"),
            other => panic!("expected Unsafe, got {other:?}"),
        }
        // a fixpoint nested under an aggregate is likewise not the
        // outermost operator of its own plan
        let tc = genpar_algebra::Query::fixpoint(
            "X",
            genpar_algebra::Query::rel("E"),
            genpar_algebra::Query::rel("X"),
        );
        match partition_safety(&tc.count()) {
            PartitionSafety::Unsafe { op, .. } => assert_eq!(op, "fix"),
            other => panic!("expected Unsafe, got {other:?}"),
        }
    }

    #[test]
    fn unsafe_op_found_under_safe_wrappers() {
        // the gate must see through π(σ(powerset(R)))
        let q = genpar_algebra::Query::Powerset(Box::new(genpar_algebra::Query::rel("R")))
            .select(Pred::True)
            .project([0]);
        assert!(!partition_safety(&q).is_safe());
    }

    #[test]
    fn opaque_map_closure_is_refused() {
        let q = genpar_algebra::Query::rel("R").map(ValueFn::custom(|v| v.clone()));
        match partition_safety(&q) {
            PartitionSafety::Unsafe { op, reason } => {
                assert_eq!(op, "map");
                assert!(reason.contains("certificate"), "{reason}");
            }
            other => panic!("expected Unsafe, got {other:?}"),
        }
    }

    #[test]
    fn bare_valued_map_is_refused() {
        for f in [
            ValueFn::Proj(0),
            ValueFn::Interp("succ".into()),
            ValueFn::Const(Value::Int(1)),
            ValueFn::Compose(
                Box::new(ValueFn::Proj(0)),
                Box::new(ValueFn::Interp("succ".into())),
            ),
        ] {
            let q = genpar_algebra::Query::rel("R").map(f);
            match partition_safety(&q) {
                PartitionSafety::Unsafe { op, reason } => {
                    assert_eq!(op, "map");
                    assert!(reason.contains("§2.1"), "{reason}");
                }
                other => panic!("expected Unsafe for {q}, got {other:?}"),
            }
        }
    }

    #[test]
    fn named_map_fns_stay_safe() {
        let q = genpar_algebra::Query::rel("R").map(ValueFn::Cols(vec![1, 0]));
        assert!(partition_safety(&q).is_safe());
        let lit = genpar_algebra::Query::Lit(Value::set([Value::tuple([Value::Int(1)])]));
        assert!(partition_safety(&lit).is_safe());
        assert!(!partition_safety(&genpar_algebra::Query::Lit(Value::Int(1))).is_safe());
    }
}
