//! A safe-range relational calculus fragment, for Proposition 3.3.
//!
//! The paper classifies calculus queries by how formulas are built:
//! "the functions expressed in the relational calculus, using only atomic
//! formulas `R(x̄)` with no repeated variables, using `∨` on formulas with
//! the same free variables, using `∧` on formulas with disjoint variable
//! sets, and using `∃`, are fully generic for both modes" (Prop 3.3).
//! Adding equality atoms `x = y` (or repeated variables, which abbreviate
//! them) leaves the fragment.
//!
//! Formulas here are evaluated under active-domain semantics; the
//! evaluator returns the set of assignments to the free variables, as
//! tuples ordered by variable index.

use crate::eval::{Db, EvalError};
use genpar_value::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A first-order variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A calculus formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Formula {
    /// Atomic `R(x₁,…,xₙ)`; variables may repeat (repetition implicitly
    /// uses equality and leaves the Prop 3.3 fragment).
    Atom(String, Vec<Var>),
    /// Equality atom `x = y` (outside the fragment).
    Eq(Var, Var),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Existential quantification.
    Exists(Var, Box<Formula>),
}

impl Formula {
    /// `R(x̄)` helper.
    pub fn atom(rel: impl Into<String>, vars: impl IntoIterator<Item = u32>) -> Formula {
        Formula::Atom(rel.into(), vars.into_iter().map(Var).collect())
    }
    /// Conjunction helper.
    pub fn and(self, other: Formula) -> Formula {
        Formula::And(Box::new(self), Box::new(other))
    }
    /// Disjunction helper.
    pub fn or(self, other: Formula) -> Formula {
        Formula::Or(Box::new(self), Box::new(other))
    }
    /// Existential helper.
    pub fn exists(v: u32, body: Formula) -> Formula {
        Formula::Exists(Var(v), Box::new(body))
    }

    /// Free variables, sorted.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        match self {
            Formula::Atom(_, vs) => vs.iter().copied().collect(),
            Formula::Eq(a, b) => [*a, *b].into_iter().collect(),
            Formula::And(a, b) | Formula::Or(a, b) => {
                let mut s = a.free_vars();
                s.extend(b.free_vars());
                s
            }
            Formula::Exists(v, body) => {
                let mut s = body.free_vars();
                s.remove(v);
                s
            }
        }
    }

    /// Is the formula inside the Proposition 3.3 fragment?
    ///
    /// * atoms have no repeated variables and there are no `Eq` atoms,
    /// * every `∨` joins formulas with the *same* free variables,
    /// * every `∧` joins formulas with *disjoint* free variables.
    pub fn in_prop_3_3_fragment(&self) -> bool {
        match self {
            Formula::Atom(_, vs) => {
                let mut seen = BTreeSet::new();
                vs.iter().all(|v| seen.insert(*v))
            }
            Formula::Eq(..) => false,
            Formula::Or(a, b) => {
                a.free_vars() == b.free_vars()
                    && a.in_prop_3_3_fragment()
                    && b.in_prop_3_3_fragment()
            }
            Formula::And(a, b) => {
                a.free_vars().is_disjoint(&b.free_vars())
                    && a.in_prop_3_3_fragment()
                    && b.in_prop_3_3_fragment()
            }
            Formula::Exists(_, body) => body.in_prop_3_3_fragment(),
        }
    }

    /// Evaluate under active-domain semantics: the result is the set of
    /// satisfying assignments to the free variables, each a tuple in
    /// ascending variable order.
    pub fn eval(&self, db: &Db) -> Result<Value, EvalError> {
        let free: Vec<Var> = self.free_vars().into_iter().collect();
        let adom: Vec<Value> = db.active_domain().into_iter().collect();
        let mut out = BTreeSet::new();
        let mut assignment: BTreeMap<Var, Value> = BTreeMap::new();
        enumerate_assignments(&free, 0, &adom, &mut assignment, &mut |asg| {
            if self.holds(asg, &adom, db)? {
                out.insert(Value::Tuple(free.iter().map(|v| asg[v].clone()).collect()));
            }
            Ok(())
        })?;
        Ok(Value::Set(out))
    }

    /// Satisfaction under an assignment of all free variables.
    fn holds(
        &self,
        asg: &BTreeMap<Var, Value>,
        adom: &[Value],
        db: &Db,
    ) -> Result<bool, EvalError> {
        match self {
            Formula::Atom(rel, vs) => {
                let r = db
                    .get(rel)
                    .ok_or_else(|| EvalError::UnknownRelation(rel.clone()))?;
                let s = r.as_set().ok_or_else(|| EvalError::Shape {
                    op: "calculus atom",
                    found: r.to_string(),
                })?;
                let tuple = Value::Tuple(vs.iter().map(|v| asg[v].clone()).collect());
                Ok(s.contains(&tuple))
            }
            Formula::Eq(a, b) => Ok(asg[a] == asg[b]),
            Formula::And(a, b) => Ok(a.holds(asg, adom, db)? && b.holds(asg, adom, db)?),
            Formula::Or(a, b) => Ok(a.holds(asg, adom, db)? || b.holds(asg, adom, db)?),
            Formula::Exists(v, body) => {
                for d in adom {
                    let mut asg2 = asg.clone();
                    asg2.insert(*v, d.clone());
                    if body.holds(&asg2, adom, db)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }
}

fn enumerate_assignments(
    vars: &[Var],
    i: usize,
    adom: &[Value],
    asg: &mut BTreeMap<Var, Value>,
    f: &mut impl FnMut(&BTreeMap<Var, Value>) -> Result<(), EvalError>,
) -> Result<(), EvalError> {
    if i == vars.len() {
        return f(asg);
    }
    for d in adom {
        asg.insert(vars[i], d.clone());
        enumerate_assignments(vars, i + 1, adom, asg, f)?;
    }
    asg.remove(&vars[i]);
    Ok(())
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Atom(r, vs) => {
                write!(f, "{r}(")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Formula::Eq(a, b) => write!(f, "{a} = {b}"),
            Formula::And(a, b) => write!(f, "({a} ∧ {b})"),
            Formula::Or(a, b) => write!(f, "({a} ∨ {b})"),
            Formula::Exists(v, body) => write!(f, "∃{v}.{body}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genpar_value::parse::parse_value;

    fn db() -> Db {
        Db::new()
            .with("R", parse_value("{(a, b), (b, c)}").unwrap())
            .with("S", parse_value("{(c)}").unwrap())
    }

    #[test]
    fn atom_evaluates_to_relation() {
        let f = Formula::atom("R", [0, 1]);
        assert_eq!(
            f.eval(&db()).unwrap(),
            parse_value("{(a, b), (b, c)}").unwrap()
        );
    }

    #[test]
    fn exists_projects() {
        // ∃x1. R(x0, x1)  ≡ π₁(R)
        let f = Formula::exists(1, Formula::atom("R", [0, 1]));
        assert_eq!(f.eval(&db()).unwrap(), parse_value("{(a), (b)}").unwrap());
    }

    #[test]
    fn disjunction_same_vars_is_union() {
        // R(x0,x1) ∨ R(x1,x0): same free vars
        let f = Formula::atom("R", [0, 1]).or(Formula::atom("R", [1, 0]));
        let got = f.eval(&db()).unwrap();
        assert_eq!(
            got,
            parse_value("{(a, b), (b, c), (b, a), (c, b)}").unwrap()
        );
    }

    #[test]
    fn conjunction_disjoint_vars_is_product() {
        // R(x0,x1) ∧ S(x2)
        let f = Formula::atom("R", [0, 1]).and(Formula::atom("S", [2]));
        let got = f.eval(&db()).unwrap();
        assert_eq!(got, parse_value("{(a, b, c), (b, c, c)}").unwrap());
    }

    #[test]
    fn equality_atom_selects() {
        // R(x0,x1) ∧ x0 = x1 — empty on our data
        let f = Formula::atom("R", [0, 1]).and(Formula::Eq(Var(0), Var(1)));
        // note: this ∧ has non-disjoint vars — it evaluates fine, it just
        // leaves the fragment
        assert_eq!(f.eval(&db()).unwrap(), Value::empty_set());
    }

    #[test]
    fn repeated_variable_atom_is_diagonal() {
        // R(x0, x0)
        let f = Formula::Atom("R".into(), vec![Var(0), Var(0)]);
        assert_eq!(f.eval(&db()).unwrap(), Value::empty_set());
        let db2 = Db::new().with("R", parse_value("{(a, a), (a, b)}").unwrap());
        assert_eq!(f.eval(&db2).unwrap(), parse_value("{(a)}").unwrap());
    }

    #[test]
    fn fragment_membership_prop_3_3() {
        // in the fragment:
        assert!(Formula::atom("R", [0, 1]).in_prop_3_3_fragment());
        assert!(Formula::exists(1, Formula::atom("R", [0, 1])).in_prop_3_3_fragment());
        assert!(Formula::atom("R", [0, 1])
            .or(Formula::atom("R", [0, 1]))
            .in_prop_3_3_fragment());
        assert!(Formula::atom("R", [0, 1])
            .and(Formula::atom("S", [2]))
            .in_prop_3_3_fragment());
        // out of the fragment:
        assert!(!Formula::Atom("R".into(), vec![Var(0), Var(0)]).in_prop_3_3_fragment());
        assert!(!Formula::Eq(Var(0), Var(1)).in_prop_3_3_fragment());
        assert!(!Formula::atom("R", [0, 1])
            .or(Formula::atom("S", [0]))
            .in_prop_3_3_fragment()); // different free vars
        assert!(!Formula::atom("R", [0, 1])
            .and(Formula::atom("R", [1, 2]))
            .in_prop_3_3_fragment()); // overlapping vars (a join!)
    }

    #[test]
    fn free_vars_respect_binders() {
        let f = Formula::exists(0, Formula::atom("R", [0, 1]));
        assert_eq!(f.free_vars().into_iter().collect::<Vec<_>>(), vec![Var(1)]);
    }

    #[test]
    fn display_formulas() {
        let f = Formula::exists(1, Formula::atom("R", [0, 1]).and(Formula::atom("S", [2])));
        assert_eq!(f.to_string(), "∃x1.(R(x0,x1) ∧ S(x2))");
    }

    #[test]
    fn unknown_relation_errors() {
        let f = Formula::atom("Z", [0]);
        assert!(matches!(f.eval(&db()), Err(EvalError::UnknownRelation(_))));
    }
}

/// Translate a Proposition 3.3 fragment formula to the algebra (the
/// classical calculus→algebra direction, restricted to the fragment —
/// which is exactly what makes the translation need no equality
/// operators: atoms become projections, ∧ a product, ∨ a union, ∃ a
/// projection-out).
///
/// Returns the query together with the output column order (the sorted
/// free variables), or `None` if the formula is outside the fragment or
/// contains a vacuous ∃ (a quantifier over a variable not free in its
/// body — whose active-domain semantics is not expressible without an
/// adom relation).
pub fn to_algebra(f: &Formula) -> Option<(crate::expr::Query, Vec<Var>)> {
    use crate::expr::Query;
    if !f.in_prop_3_3_fragment() {
        return None;
    }
    match f {
        Formula::Atom(rel, vars) => {
            let mut sorted: Vec<Var> = vars.clone();
            sorted.sort();
            // π reordering the atom's columns into sorted-variable order
            let perm: Vec<usize> = sorted
                .iter()
                .map(|v| vars.iter().position(|w| w == v))
                .collect::<Option<_>>()?;
            let q = Query::Project(perm, Box::new(Query::Rel(rel.clone())));
            Some((q, sorted))
        }
        Formula::Eq(..) => None,
        Formula::And(a, b) => {
            let (qa, va) = to_algebra(a)?;
            let (qb, vb) = to_algebra(b)?;
            // disjoint variable sets: product, then interleave columns
            let mut all: Vec<Var> = va.iter().chain(vb.iter()).copied().collect();
            all.sort();
            let perm: Vec<usize> = all
                .iter()
                .map(|v| {
                    va.iter()
                        .position(|w| w == v)
                        .or_else(|| vb.iter().position(|w| w == v).map(|i| i + va.len()))
                })
                .collect::<Option<_>>()?;
            let q = Query::Project(perm, Box::new(Query::Product(Box::new(qa), Box::new(qb))));
            Some((q, all))
        }
        Formula::Or(a, b) => {
            let (qa, va) = to_algebra(a)?;
            let (qb, vb) = to_algebra(b)?;
            debug_assert_eq!(va, vb, "fragment guarantees equal free vars");
            Some((Query::Union(Box::new(qa), Box::new(qb)), va))
        }
        Formula::Exists(v, body) => {
            let (qb, vars) = to_algebra(body)?;
            let pos = vars.iter().position(|w| w == v)?; // None if vacuous
            let keep: Vec<usize> = (0..vars.len()).filter(|&i| i != pos).collect();
            let out_vars: Vec<Var> = vars
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != pos)
                .map(|(_, v)| *v)
                .collect();
            Some((Query::Project(keep, Box::new(qb)), out_vars))
        }
    }
}

#[cfg(test)]
mod translation_tests {
    use super::*;
    use crate::eval::eval;
    use genpar_value::parse::parse_value;

    fn db() -> Db {
        Db::new()
            .with("R", parse_value("{(a, b), (b, c), (c, a)}").unwrap())
            .with("S", parse_value("{(b), (c)}").unwrap())
    }

    fn check_agree(f: &Formula) {
        let (q, _) = to_algebra(f).unwrap_or_else(|| panic!("should translate: {f}"));
        let calc = f.eval(&db()).unwrap();
        let alg = eval(&q, &db()).unwrap();
        assert_eq!(calc, alg, "{f} vs {q}");
    }

    #[test]
    fn atom_translation_reorders() {
        check_agree(&Formula::atom("R", [0, 1]));
        // reversed variable order forces a reordering projection
        check_agree(&Formula::atom("R", [1, 0]));
    }

    #[test]
    fn exists_translation_projects() {
        check_agree(&Formula::exists(1, Formula::atom("R", [0, 1])));
        check_agree(&Formula::exists(0, Formula::atom("R", [0, 1])));
    }

    #[test]
    fn and_translation_interleaves_columns() {
        // R(x0, x2) ∧ S(x1): sorted output (x0, x1, x2) interleaves sides
        let f = Formula::atom("R", [0, 2]).and(Formula::atom("S", [1]));
        check_agree(&f);
    }

    #[test]
    fn or_translation_unions() {
        let f = Formula::atom("R", [0, 1]).or(Formula::atom("R", [1, 0]));
        check_agree(&f);
    }

    #[test]
    fn nested_combination() {
        // ∃x1. (R(x0,x1) ∧ S(x2)) ∨ (R(x2,...)) — build a richer one
        let f = Formula::exists(1, Formula::atom("R", [0, 1]).and(Formula::atom("S", [2])));
        check_agree(&f);
    }

    #[test]
    fn out_of_fragment_returns_none() {
        assert!(to_algebra(&Formula::Eq(Var(0), Var(1))).is_none());
        assert!(to_algebra(&Formula::Atom("R".into(), vec![Var(0), Var(0)])).is_none());
        // vacuous ∃
        assert!(to_algebra(&Formula::exists(9, Formula::atom("R", [0, 1]))).is_none());
    }

    #[test]
    fn translated_queries_are_fully_generic_syntactically() {
        // the translation only uses π (distinct cols), ×, ∪ — i.e. the
        // Corollary 3.2 sub-language; Prop 3.3 via translation.
        let f = Formula::exists(1, Formula::atom("R", [1, 0]).and(Formula::atom("S", [2])))
            .or(Formula::exists(9, Formula::atom("R", [0, 2])).or(Formula::atom("R", [0, 2])));
        // note: inner Exists(9,…) is vacuous → whole thing fails to
        // translate; use the valid part
        let g = Formula::exists(1, Formula::atom("R", [1, 0]).and(Formula::atom("S", [2])));
        assert!(to_algebra(&f).is_none());
        let (q, _) = to_algebra(&g).unwrap();
        // no equality anywhere in the translated query
        let mut uses_eq = false;
        q.visit(&mut |node| {
            if matches!(
                node,
                crate::expr::Query::Select(..)
                    | crate::expr::Query::Join(..)
                    | crate::expr::Query::Intersect(..)
                    | crate::expr::Query::Difference(..)
            ) {
                uses_eq = true;
            }
        });
        assert!(!uses_eq);
    }
}
