//! The rewrite rules and their side conditions.

use genpar_algebra::{Pred, Query, ValueFn};
use genpar_core::{infer_requirements, Requirements};
use genpar_engine::Catalog;
use std::fmt;

/// Semantic constraints the optimizer may rely on beyond per-table
/// schemas.
///
/// A `union_key` entry `(tables, cols)` asserts that `cols` form a key
/// for the union of the named tables — the paper's "common key … a key
/// for R ∪ S" (Section 4.4). Per-table keys do *not* imply this (the same
/// key value could appear in both tables with different payloads), so it
/// is a separate, instance-level promise, which the workload generator
/// `genpar-engine::workload::generate_keyed_pair` honours.
#[derive(Debug, Clone, Default)]
pub struct Constraints {
    /// `(sorted table names, key columns)` assertions.
    pub union_keys: Vec<(Vec<String>, Vec<usize>)>,
}

impl Constraints {
    /// No constraints.
    pub fn none() -> Constraints {
        Constraints::default()
    }

    /// Assert a key for the union of tables.
    pub fn with_union_key(
        mut self,
        tables: impl IntoIterator<Item = String>,
        cols: impl IntoIterator<Item = usize>,
    ) -> Constraints {
        let mut ts: Vec<String> = tables.into_iter().collect();
        ts.sort();
        self.union_keys.push((ts, cols.into_iter().collect()));
        self
    }

    /// Do `cols` contain a key for the union of the given base tables?
    pub fn cols_key_for_union(&self, tables: &[&str], cols: &[usize]) -> bool {
        let mut ts: Vec<String> = tables.iter().map(|s| s.to_string()).collect();
        ts.sort();
        self.union_keys
            .iter()
            .any(|(names, key)| *names == ts && key.iter().all(|c| cols.contains(c)))
    }
}

/// A rewrite rule: a named transformation with a genericity/parametricity
/// justification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `σ_p(σ_q(A)) → σ_{p∧q}(A)`.
    FilterFuse,
    /// `π_c1(π_c2(A)) → π_{c2∘c1}(A)`.
    ProjectCascade,
    /// `σ_p(A ∪ B) → σ_p(A) ∪ σ_p(B)` — closure of genericity classes
    /// under ∪ (Prop 3.1).
    FilterThroughUnion,
    /// `σ_p(A × B) → σ_p(A) × B` when `p` touches only left columns.
    FilterThroughProduct,
    /// `map(f)(A op B) → map(f)(A) op map(f)(B)` and
    /// `π(A op B) → π(A) op π(B)` for op ∈ {∪, −, ∩}: a query generic
    /// w.r.t. a class of mappings commutes with every mapping in it
    /// (§4.4, Def 2.9). Licensed when what the classifier says `op`
    /// needs of a mapping is within what `f` (π read as a column map) is
    /// proven to be: ∪ needs nothing (Prop 3.1), − and ∩ need an
    /// injective `f` (Prop 3.4), which a union key proves.
    MapThroughGeneric,
}

impl Rule {
    /// All rules, in application priority order.
    pub fn all() -> Vec<Rule> {
        vec![
            Rule::FilterFuse,
            Rule::ProjectCascade,
            Rule::FilterThroughUnion,
            Rule::FilterThroughProduct,
            Rule::MapThroughGeneric,
        ]
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A set of enabled rules with the constraint context.
#[derive(Debug, Clone)]
pub struct RuleSet {
    /// Enabled rules, in priority order.
    pub rules: Vec<Rule>,
    /// Instance-level constraints.
    pub constraints: Constraints,
}

impl RuleSet {
    /// All rules, no constraints.
    pub fn standard() -> RuleSet {
        RuleSet {
            rules: Rule::all(),
            constraints: Constraints::none(),
        }
    }

    /// All rules with constraints.
    pub fn with_constraints(constraints: Constraints) -> RuleSet {
        RuleSet {
            rules: Rule::all(),
            constraints,
        }
    }

    /// Only the listed rules.
    pub fn only(rules: impl IntoIterator<Item = Rule>) -> RuleSet {
        RuleSet {
            rules: rules.into_iter().collect(),
            constraints: Constraints::none(),
        }
    }
}

/// [`Rule::MapThroughGeneric`] at `q`: `None` unless `q` is π or `map(f)`
/// over ∪, − or ∩; else the rewrite and its justification, or why it is
/// blocked. *Needed* is what the classifier derives for the operator
/// alone, over fresh base relations (so the operands' σ constants do not
/// block it), in `rel` mode, since `map(f)` of a set is its image.
/// *Provided* is what `f` (π read as `map(Cols(cols))`) is proven to be:
/// functional, and injective when it is the identity or a column
/// projection whose columns contain a union key for the operands' base
/// tables. It fires iff needed ⊑ provided.
pub(crate) fn map_through_generic(
    q: &Query,
    constraints: &Constraints,
) -> Option<Result<(Query, String), String>> {
    type SetOp = fn(Box<Query>, Box<Query>) -> Query;
    let (Query::Project(_, op) | Query::Map(_, op)) = q else {
        return None;
    };
    let (set_op, a, b): (SetOp, _, _) = match &**op {
        Query::Union(a, b) => (Query::Union, a, b),
        Query::Intersect(a, b) => (Query::Intersect, a, b),
        Query::Difference(a, b) => (Query::Difference, a, b),
        _ => return None,
    };
    let fresh = || Box::new(Query::rel("A"));
    let mut inferred = infer_requirements(&set_op(fresh(), fresh()));
    let derivation = inferred.trace.pop()?;
    let (f, head) = match q {
        Query::Project(cols, _) => {
            let shown: Vec<String> = cols.iter().map(|c| format!("${}", c + 1)).collect();
            (
                ValueFn::Cols(cols.clone()),
                format!("π[{}]", shown.join(",")),
            )
        }
        Query::Map(f, _) => (f.clone(), format!("map({f:?})")),
        _ => return None,
    };
    let keyed = |cols| base_tables(op).is_some_and(|ts| constraints.cols_key_for_union(&ts, cols));
    let (injective, proof) = match &f {
        ValueFn::Identity => (true, "the identity"),
        ValueFn::Proj(i) if keyed(std::slice::from_ref(i)) => (true, "union key"),
        ValueFn::Cols(cols) if keyed(cols) => (true, "union key"),
        ValueFn::Proj(_) | ValueFn::Cols(_) => (false, "no union key"),
        _ => (false, "not a column projection"),
    };
    let provided = Requirements {
        injective,
        functional: true,
        ..Requirements::none()
    };
    if !inferred.rel.subsumes(&provided) {
        return Some(Err(format!(
            "{derivation}; {head} not proven injective ({proof})"
        )));
    }
    let is = if injective {
        format!("injective ({proof})")
    } else {
        "functional".to_string()
    };
    let over = |side: &Query| {
        Box::new(match q {
            Query::Project(cols, _) => Query::Project(cols.clone(), Box::new(side.clone())),
            _ => Query::Map(f.clone(), Box::new(side.clone())),
        })
    };
    let justification = format!("{derivation}; {head} is {is}: commutes (§4.4)");
    Some(Ok((set_op(over(a), over(b)), justification)))
}

/// The arity (tuple width) of a query's output relation, when derivable
/// from the catalog. Needed by column-sensitive side conditions, so it is
/// a width *every* row has: `None` whenever rows of another width (or no
/// tuple at all) could appear.
pub fn arity_of(q: &Query, catalog: &Catalog) -> Option<usize> {
    match q {
        Query::Rel(n) => catalog.schema_of(n).map(|s| s.arity()),
        Query::Empty => None,
        Query::Lit(v) => {
            let mut widths = v.as_set()?.iter().map(|t| t.as_tuple().map(|t| t.len()));
            let first = widths.next()??;
            widths.all(|w| w == Some(first)).then_some(first)
        }
        Query::Project(cols, _) => Some(cols.len()),
        Query::Select(_, inner) => arity_of(inner, catalog),
        Query::SelectHat(_, _, inner) => arity_of(inner, catalog).map(|a| a.saturating_sub(1)),
        Query::Product(a, b) | Query::Join(_, a, b) => {
            Some(arity_of(a, catalog)? + arity_of(b, catalog)?)
        }
        Query::Union(a, b) | Query::Intersect(a, b) | Query::Difference(a, b) => {
            let (a, b) = (arity_of(a, catalog)?, arity_of(b, catalog)?);
            (a == b).then_some(a)
        }
        _ => None,
    }
}

/// The base tables a query reads, if it is a pure base-table expression
/// over ∪/−/∩ (used by the union-key side condition).
pub fn base_tables(q: &Query) -> Option<Vec<&str>> {
    match q {
        Query::Rel(n) => Some(vec![n.as_str()]),
        Query::Union(a, b) | Query::Intersect(a, b) | Query::Difference(a, b) => {
            let mut l = base_tables(a)?;
            l.extend(base_tables(b)?);
            Some(l)
        }
        _ => None,
    }
}

/// Columns mentioned by a predicate.
pub fn pred_columns(p: &Pred) -> Vec<usize> {
    match p {
        Pred::True => Vec::new(),
        Pred::EqCols(i, j) => vec![*i, *j],
        Pred::EqConst(i, _) => vec![*i],
        Pred::Named(_, cols) => cols.clone(),
        Pred::And(a, b) | Pred::Or(a, b) => {
            let mut out = pred_columns(a);
            out.extend(pred_columns(b));
            out
        }
        Pred::Not(a) => pred_columns(a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genpar_engine::{Schema, Table};
    use genpar_value::{CvType, Value};

    #[test]
    fn constraints_union_key_lookup() {
        let c = Constraints::none().with_union_key(["R".to_string(), "S".to_string()], [0]);
        assert!(c.cols_key_for_union(&["R", "S"], &[0, 1]));
        assert!(c.cols_key_for_union(&["S", "R"], &[0]));
        assert!(!c.cols_key_for_union(&["R", "S"], &[1]));
        assert!(!c.cols_key_for_union(&["R", "T"], &[0]));
        assert!(!Constraints::none().cols_key_for_union(&["R", "S"], &[0]));
    }

    #[test]
    fn arity_inference() {
        let cat = Catalog::new()
            .with(Table::new("R", Schema::uniform(CvType::int(), 2)))
            .with(Table::new("S", Schema::uniform(CvType::int(), 3)));
        assert_eq!(arity_of(&Query::rel("R"), &cat), Some(2));
        assert_eq!(
            arity_of(&Query::rel("R").product(Query::rel("S")), &cat),
            Some(5)
        );
        assert_eq!(arity_of(&Query::rel("R").project([0]), &cat), Some(1));
        assert_eq!(arity_of(&Query::rel("R").select_hat(0, 1), &cat), Some(1));
        assert_eq!(arity_of(&Query::rel("Z"), &cat), None);
        let r = || Query::rel("R");
        assert_eq!(arity_of(&r().union(r()), &cat), Some(2));
        // operands of different widths have no one width
        assert_eq!(arity_of(&r().union(Query::rel("S")), &cat), None);
        assert_eq!(arity_of(&r().difference(Query::rel("S")), &cat), None);
        assert_eq!(arity_of(&r().intersect(Query::rel("Z")), &cat), None);
        let tuple = |from: i64, w: i64| Value::tuple((from..from + w).map(Value::Int));
        let lit = |rows: [Value; 2]| Query::Lit(Value::set(rows));
        assert_eq!(arity_of(&lit([tuple(0, 2), tuple(5, 2)]), &cat), Some(2));
        assert_eq!(arity_of(&lit([tuple(0, 2), tuple(5, 3)]), &cat), None);
    }

    #[test]
    fn base_table_extraction() {
        let q = Query::rel("R").union(Query::rel("S"));
        assert_eq!(base_tables(&q), Some(vec!["R", "S"]));
        assert_eq!(base_tables(&Query::rel("R").project([0])), None);
        let d = Query::rel("R").difference(Query::rel("S"));
        assert_eq!(base_tables(&d), Some(vec!["R", "S"]));
    }

    #[test]
    fn pred_column_extraction() {
        let p = Pred::eq_cols(0, 2).and(Pred::eq_const(1, genpar_value::Value::Int(5)));
        let mut cols = pred_columns(&p);
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 1, 2]);
    }
}
