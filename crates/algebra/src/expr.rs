//! The query AST: relational algebra + complex-value operations.

use genpar_value::Value;
use std::fmt;
use std::sync::Arc;

/// A tuple predicate, used by selections.
///
/// The paper's genericity analysis distinguishes predicates by how much
/// equality they use: `True` uses none, `EqCols`/`EqConst` use equality of
/// (possibly uninterpreted) values, `Named` invokes an interpreted
/// predicate of the signature (e.g. `even`, `lt`), whose preservation is
/// the subject of Section 2.5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pred {
    /// Always true.
    True,
    /// `$i = $j` (0-based columns).
    EqCols(usize, usize),
    /// `$i = c` for a constant `c` (the paper's Q₅ uses `$1 = 7`).
    EqConst(usize, Value),
    /// An interpreted predicate of the signature applied to columns.
    Named(String, Vec<usize>),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// `$i = $j`.
    pub fn eq_cols(i: usize, j: usize) -> Pred {
        Pred::EqCols(i, j)
    }
    /// `$i = c`.
    pub fn eq_const(i: usize, c: Value) -> Pred {
        Pred::EqConst(i, c)
    }
    /// Conjunction helper.
    pub fn and(self, other: Pred) -> Pred {
        Pred::And(Box::new(self), Box::new(other))
    }
    /// Disjunction helper.
    pub fn or(self, other: Pred) -> Pred {
        Pred::Or(Box::new(self), Box::new(other))
    }
    /// Negation helper.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Pred {
        Pred::Not(Box::new(self))
    }

    /// The constants mentioned by the predicate (for the genericity
    /// classifier: Section 2.4's C).
    pub fn constants(&self) -> Vec<Value> {
        match self {
            Pred::True | Pred::EqCols(..) | Pred::Named(..) => Vec::new(),
            Pred::EqConst(_, c) => vec![c.clone()],
            Pred::And(a, b) | Pred::Or(a, b) => {
                let mut out = a.constants();
                out.extend(b.constants());
                out
            }
            Pred::Not(a) => a.constants(),
        }
    }

    /// Does the predicate test equality between columns or against
    /// constants (i.e. observe value identity)?
    pub fn uses_equality(&self) -> bool {
        match self {
            Pred::True | Pred::Named(..) => false,
            Pred::EqCols(..) | Pred::EqConst(..) => true,
            Pred::And(a, b) | Pred::Or(a, b) => a.uses_equality() || b.uses_equality(),
            Pred::Not(a) => a.uses_equality(),
        }
    }

    /// The interpreted predicate names used (Section 2.5 preservation
    /// obligations).
    pub fn named_preds(&self) -> Vec<String> {
        match self {
            Pred::Named(n, _) => vec![n.clone()],
            Pred::And(a, b) | Pred::Or(a, b) => {
                let mut out = a.named_preds();
                out.extend(b.named_preds());
                out
            }
            Pred::Not(a) => a.named_preds(),
            _ => Vec::new(),
        }
    }
}

/// A first-class element function for `map(f)` and function-parameterized
/// operators (the paper's `ins_c`, `σ_p`, and the `map(f)` of
/// Proposition 3.1 / Section 4.4).
#[derive(Clone)]
pub enum ValueFn {
    /// Identity.
    Identity,
    /// Tuple projection `t ↦ t.i`.
    Proj(usize),
    /// Generalized projection `t ↦ (t.i₁, …, t.iₖ)`; columns may repeat.
    Cols(Vec<usize>),
    /// Constant function.
    Const(Value),
    /// Composition: `Compose(f, g) = g ∘ f` (apply `f` first).
    Compose(Box<ValueFn>, Box<ValueFn>),
    /// An interpreted function of the signature (unary view: the value is
    /// passed as the single argument, or spread if it is a tuple).
    Interp(String),
    /// Pair the results of two functions: `t ↦ (f(t), g(t))`.
    Pair(Box<ValueFn>, Box<ValueFn>),
    /// An opaque user function — used by the checker to treat queries as
    /// black boxes and by Section 4.4's "f could be any user-defined
    /// method … about which we know nothing".
    Custom(Arc<dyn Fn(&Value) -> Value + Send + Sync>),
}

impl fmt::Debug for ValueFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueFn::Identity => write!(f, "id"),
            ValueFn::Proj(i) => write!(f, "π{i}"),
            ValueFn::Cols(cs) => write!(f, "π{cs:?}"),
            ValueFn::Const(c) => write!(f, "const({c})"),
            ValueFn::Compose(a, b) => write!(f, "({b:?} ∘ {a:?})"),
            ValueFn::Interp(n) => write!(f, "{n}"),
            ValueFn::Pair(a, b) => write!(f, "⟨{a:?}, {b:?}⟩"),
            ValueFn::Custom(_) => write!(f, "<custom>"),
        }
    }
}

impl ValueFn {
    /// A custom function from a closure.
    pub fn custom(f: impl Fn(&Value) -> Value + Send + Sync + 'static) -> ValueFn {
        ValueFn::Custom(Arc::new(f))
    }

    /// Does this function provably map a row to a row (a tuple)? This is
    /// the one representation rule between the walker and the row
    /// executor. Under §2.1 a relation is a set of tuples, and the
    /// executor holds every element as a tuple row. `map` may still emit
    /// bare values (`π0`, an interpreted function, a scalar constant). A
    /// relation-valued plan whose maps are not row-shaped neither lowers
    /// nor passes the partition gate, so it stays with the walker at every
    /// worker count. An opaque closure proves nothing and is refused.
    pub fn row_shaped(&self) -> bool {
        match self {
            ValueFn::Identity | ValueFn::Cols(_) | ValueFn::Pair(..) => true,
            ValueFn::Const(c) => matches!(c, Value::Tuple(_)),
            ValueFn::Compose(a, b) => a.row_shaped() && b.row_shaped(),
            ValueFn::Proj(_) | ValueFn::Interp(_) | ValueFn::Custom(_) => false,
        }
    }

    /// Constants mentioned (for the classifier).
    pub fn constants(&self) -> Vec<Value> {
        match self {
            ValueFn::Const(c) => vec![c.clone()],
            ValueFn::Compose(a, b) | ValueFn::Pair(a, b) => {
                let mut out = a.constants();
                out.extend(b.constants());
                out
            }
            _ => Vec::new(),
        }
    }
}

/// A query: a function from databases (named complex values) to a complex
/// value, built from the operations whose genericity Section 3 classifies.
#[derive(Debug, Clone)]
pub enum Query {
    /// A named input relation (the base query `R` of Corollary 3.2).
    Rel(String),
    /// A constant value (mentioning it costs genericity: Section 2.4).
    Lit(Value),
    /// `∅̂` — the query returning the empty relation (fully generic).
    Empty,
    /// π: generalized projection over a set of tuples; columns may repeat
    /// (`π_{1,1}` is allowed and matters for strong genericity).
    Project(Vec<usize>, Box<Query>),
    /// σ_p: selection.
    Select(Pred, Box<Query>),
    /// σ̂_{i=j}: Chandra's projecting selection (Section 3.2):
    /// `{π_ĵ(t) | t ∈ R, t.i = t.j}` — selects on equality, then projects
    /// *out* column `j` so equality never shows in the output.
    SelectHat(usize, usize, Box<Query>),
    /// Cartesian product (tuples concatenate).
    Product(Box<Query>, Box<Query>),
    /// Union.
    Union(Box<Query>, Box<Query>),
    /// Intersection.
    Intersect(Box<Query>, Box<Query>),
    /// Difference.
    Difference(Box<Query>, Box<Query>),
    /// Equi-join on column pairs `(i, j)`: tuples `s ++ t` with
    /// `s.i = t.j` for all pairs.
    Join(Vec<(usize, usize)>, Box<Query>, Box<Query>),
    /// `map(f)`: apply `f` to every element of a set (Proposition 3.1).
    Map(ValueFn, Box<Query>),
    /// `ins_c`: insert a constant into a set (Section 4.3's `ins`).
    Insert(Value, Box<Query>),
    /// Singleton: `v ↦ {v}`.
    Singleton(Box<Query>),
    /// Flatten: `{{…}, {…}} ↦ ⋃` (the monad multiplication of \[5\]).
    Flatten(Box<Query>),
    /// Powerset (the complex-value algebra of \[1\]).
    Powerset(Box<Query>),
    /// `eq_adom`: the equality relation over the active domain of the
    /// input (Proposition 3.5).
    EqAdom(Box<Query>),
    /// The active domain of the input, as a set (Section 3.3).
    Adom(Box<Query>),
    /// `even`: is the cardinality of the input set even? (Lemma 2.12.)
    Even(Box<Query>),
    /// Nest-parity `np`: is the set-nesting depth of the input even?
    /// (Proposition 4.16.)
    NestParity(Box<Query>),
    /// Complement w.r.t. the evaluation universe (Section 3.3 full-domain
    /// semantics; requires the evaluator to know the universe).
    Complement(Box<Query>),
    /// Pair two query results into a 2-tuple value.
    TuplePair(Box<Query>, Box<Query>),
    /// ν: nest — group tuples by the given key columns; the remaining
    /// columns are collected (in original order) into a set of tuples
    /// appended as one final set-valued component. The nested relational
    /// algebra's constructor (\[1\]; the discussion section notes L-to-S
    /// types capture the entire nested relational algebra).
    Nest(Vec<usize>, Box<Query>),
    /// μ⁻¹-style unnest — explode the set-valued column at the given
    /// index: `(…, {t₁, t₂}, …) ↦ {(…, t₁ᵢ…, …), (…, t₂ᵢ…, …)}` with the
    /// nested tuple's components spliced in place.
    Unnest(usize, Box<Query>),
    /// `count`: the cardinality of the input set, as an integer. Like
    /// `even` (Lemma 2.12), counting distinct elements observes value
    /// identity — but unlike a parity, partial counts *combine*: the
    /// executor's parallel-with-combiner class exploits this.
    Count(Box<Query>),
    /// `sum`: the sum of the integer values in the given column of the
    /// input set of tuples. Another combinable whole-set aggregate.
    Sum(usize, Box<Query>),
    /// Inflationary fixpoint `fix X. init ∪ step(X)`: evaluate `init`,
    /// then repeatedly union in `step` (which refers to the accumulator
    /// via `Rel(var)`) until the set stops growing. The loop variable
    /// shadows any database relation of the same name inside `step`.
    Fixpoint {
        /// The loop variable `step` refers to via `Rel(var)`.
        var: String,
        /// The seed set.
        init: Box<Query>,
        /// The body, re-evaluated each round with `var` bound.
        step: Box<Query>,
    },
}

impl Query {
    /// A named relation.
    pub fn rel(name: impl Into<String>) -> Query {
        Query::Rel(name.into())
    }
    /// π helper.
    pub fn project(self, cols: impl IntoIterator<Item = usize>) -> Query {
        Query::Project(cols.into_iter().collect(), Box::new(self))
    }
    /// σ helper.
    pub fn select(self, p: Pred) -> Query {
        Query::Select(p, Box::new(self))
    }
    /// σ̂ helper.
    pub fn select_hat(self, i: usize, j: usize) -> Query {
        Query::SelectHat(i, j, Box::new(self))
    }
    /// × helper.
    pub fn product(self, other: Query) -> Query {
        Query::Product(Box::new(self), Box::new(other))
    }
    /// ∪ helper.
    pub fn union(self, other: Query) -> Query {
        Query::Union(Box::new(self), Box::new(other))
    }
    /// ∩ helper.
    pub fn intersect(self, other: Query) -> Query {
        Query::Intersect(Box::new(self), Box::new(other))
    }
    /// − helper.
    pub fn difference(self, other: Query) -> Query {
        Query::Difference(Box::new(self), Box::new(other))
    }
    /// ⋈ helper.
    pub fn join_on(self, other: Query, on: impl IntoIterator<Item = (usize, usize)>) -> Query {
        Query::Join(on.into_iter().collect(), Box::new(self), Box::new(other))
    }
    /// map helper.
    pub fn map(self, f: ValueFn) -> Query {
        Query::Map(f, Box::new(self))
    }
    /// ν helper.
    pub fn nest(self, keys: impl IntoIterator<Item = usize>) -> Query {
        Query::Nest(keys.into_iter().collect(), Box::new(self))
    }
    /// unnest helper.
    pub fn unnest(self, col: usize) -> Query {
        Query::Unnest(col, Box::new(self))
    }
    /// count helper.
    pub fn count(self) -> Query {
        Query::Count(Box::new(self))
    }
    /// sum helper.
    pub fn sum(self, col: usize) -> Query {
        Query::Sum(col, Box::new(self))
    }
    /// Fixpoint helper: `fix var. init ∪ step(var)`.
    pub fn fixpoint(var: impl Into<String>, init: Query, step: Query) -> Query {
        Query::Fixpoint {
            var: var.into(),
            init: Box::new(init),
            step: Box::new(step),
        }
    }

    /// All relation names the query reads from the database. A fixpoint's
    /// loop variable is *bound*: occurrences of `Rel(var)` inside its
    /// `step` are references to the accumulator, not database reads, and
    /// are excluded (respecting shadowing by nested fixpoints).
    pub fn rel_names(&self) -> Vec<String> {
        fn go(q: &Query, bound: &mut Vec<String>, out: &mut Vec<String>) {
            match q {
                Query::Rel(n) => {
                    if !bound.iter().any(|b| b == n) {
                        out.push(n.clone());
                    }
                }
                Query::Fixpoint { var, init, step } => {
                    go(init, bound, out);
                    bound.push(var.clone());
                    go(step, bound, out);
                    bound.pop();
                }
                _ => {
                    let mut kids = Vec::new();
                    q.children(&mut kids);
                    for c in kids {
                        go(c, bound, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        go(self, &mut Vec::new(), &mut out);
        out.sort();
        out.dedup();
        out
    }

    /// The direct subqueries of this node, in evaluation order.
    fn children<'a>(&'a self, out: &mut Vec<&'a Query>) {
        match self {
            Query::Rel(_) | Query::Lit(_) | Query::Empty => {}
            Query::Project(_, q)
            | Query::Select(_, q)
            | Query::SelectHat(_, _, q)
            | Query::Map(_, q)
            | Query::Insert(_, q)
            | Query::Singleton(q)
            | Query::Flatten(q)
            | Query::Powerset(q)
            | Query::EqAdom(q)
            | Query::Adom(q)
            | Query::Even(q)
            | Query::NestParity(q)
            | Query::Complement(q)
            | Query::Nest(_, q)
            | Query::Unnest(_, q)
            | Query::Count(q)
            | Query::Sum(_, q) => out.push(q),
            Query::Product(a, b)
            | Query::Union(a, b)
            | Query::Intersect(a, b)
            | Query::Difference(a, b)
            | Query::Join(_, a, b)
            | Query::TuplePair(a, b) => {
                out.push(a);
                out.push(b);
            }
            Query::Fixpoint { init, step, .. } => {
                out.push(init);
                out.push(step);
            }
        }
    }

    /// Substitute a literal value for every free occurrence of the
    /// relation `var` (the binding primitive of fixpoint evaluation:
    /// a round binds the accumulator — or its delta — to the loop
    /// variable). Occurrences shadowed by a nested fixpoint binding the
    /// same name are left alone.
    pub fn substitute_rel(&self, var: &str, v: &Value) -> Query {
        match self {
            Query::Rel(n) if n == var => Query::Lit(v.clone()),
            Query::Rel(_) | Query::Lit(_) | Query::Empty => self.clone(),
            Query::Project(cols, q) => {
                Query::Project(cols.clone(), Box::new(q.substitute_rel(var, v)))
            }
            Query::Select(p, q) => Query::Select(p.clone(), Box::new(q.substitute_rel(var, v))),
            Query::SelectHat(i, j, q) => {
                Query::SelectHat(*i, *j, Box::new(q.substitute_rel(var, v)))
            }
            Query::Product(a, b) => Query::Product(
                Box::new(a.substitute_rel(var, v)),
                Box::new(b.substitute_rel(var, v)),
            ),
            Query::Union(a, b) => Query::Union(
                Box::new(a.substitute_rel(var, v)),
                Box::new(b.substitute_rel(var, v)),
            ),
            Query::Intersect(a, b) => Query::Intersect(
                Box::new(a.substitute_rel(var, v)),
                Box::new(b.substitute_rel(var, v)),
            ),
            Query::Difference(a, b) => Query::Difference(
                Box::new(a.substitute_rel(var, v)),
                Box::new(b.substitute_rel(var, v)),
            ),
            Query::Join(on, a, b) => Query::Join(
                on.clone(),
                Box::new(a.substitute_rel(var, v)),
                Box::new(b.substitute_rel(var, v)),
            ),
            Query::Map(f, q) => Query::Map(f.clone(), Box::new(q.substitute_rel(var, v))),
            Query::Insert(c, q) => Query::Insert(c.clone(), Box::new(q.substitute_rel(var, v))),
            Query::Singleton(q) => Query::Singleton(Box::new(q.substitute_rel(var, v))),
            Query::Flatten(q) => Query::Flatten(Box::new(q.substitute_rel(var, v))),
            Query::Powerset(q) => Query::Powerset(Box::new(q.substitute_rel(var, v))),
            Query::EqAdom(q) => Query::EqAdom(Box::new(q.substitute_rel(var, v))),
            Query::Adom(q) => Query::Adom(Box::new(q.substitute_rel(var, v))),
            Query::Even(q) => Query::Even(Box::new(q.substitute_rel(var, v))),
            Query::NestParity(q) => Query::NestParity(Box::new(q.substitute_rel(var, v))),
            Query::Complement(q) => Query::Complement(Box::new(q.substitute_rel(var, v))),
            Query::TuplePair(a, b) => Query::TuplePair(
                Box::new(a.substitute_rel(var, v)),
                Box::new(b.substitute_rel(var, v)),
            ),
            Query::Nest(keys, q) => Query::Nest(keys.clone(), Box::new(q.substitute_rel(var, v))),
            Query::Unnest(col, q) => Query::Unnest(*col, Box::new(q.substitute_rel(var, v))),
            Query::Count(q) => Query::Count(Box::new(q.substitute_rel(var, v))),
            Query::Sum(col, q) => Query::Sum(*col, Box::new(q.substitute_rel(var, v))),
            Query::Fixpoint { var: w, init, step } => {
                let init = Box::new(init.substitute_rel(var, v));
                // an inner fixpoint binding the same name shadows: the
                // outer substitution must not reach into its step
                let step = if w == var {
                    step.clone()
                } else {
                    Box::new(step.substitute_rel(var, v))
                };
                Query::Fixpoint {
                    var: w.clone(),
                    init,
                    step,
                }
            }
        }
    }

    /// All constants the query mentions — its C of Section 2.4 (from
    /// literals, predicates, `ins_c`, and `map` constant functions).
    pub fn mentioned_constants(&self) -> Vec<Value> {
        let mut out = Vec::new();
        self.visit(&mut |q| match q {
            Query::Lit(v) => out.push(v.clone()),
            Query::Insert(c, _) => out.push(c.clone()),
            Query::Select(p, _) => out.extend(p.constants()),
            Query::Map(f, _) => out.extend(f.constants()),
            _ => {}
        });
        out.sort();
        out.dedup();
        out
    }

    /// Visit every node of the AST (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&Query)) {
        f(self);
        match self {
            Query::Rel(_) | Query::Lit(_) | Query::Empty => {}
            Query::Project(_, q)
            | Query::Select(_, q)
            | Query::SelectHat(_, _, q)
            | Query::Map(_, q)
            | Query::Insert(_, q)
            | Query::Singleton(q)
            | Query::Flatten(q)
            | Query::Powerset(q)
            | Query::EqAdom(q)
            | Query::Adom(q)
            | Query::Even(q)
            | Query::NestParity(q)
            | Query::Complement(q)
            | Query::Nest(_, q)
            | Query::Unnest(_, q)
            | Query::Count(q)
            | Query::Sum(_, q) => q.visit(f),
            Query::Product(a, b)
            | Query::Union(a, b)
            | Query::Intersect(a, b)
            | Query::Difference(a, b)
            | Query::Join(_, a, b)
            | Query::TuplePair(a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Query::Fixpoint { init, step, .. } => {
                init.visit(f);
                step.visit(f);
            }
        }
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Rel(n) => write!(f, "{n}"),
            Query::Lit(v) => write!(f, "{v}"),
            Query::Empty => write!(f, "∅̂"),
            Query::Project(cols, q) => {
                write!(f, "π[")?;
                for (i, c) in cols.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "${}", c + 1)?;
                }
                write!(f, "]({q})")
            }
            Query::Select(p, q) => write!(f, "σ[{p:?}]({q})"),
            Query::SelectHat(i, j, q) => write!(f, "σ̂[${}=${}]({q})", i + 1, j + 1),
            Query::Product(a, b) => write!(f, "({a} × {b})"),
            Query::Union(a, b) => write!(f, "({a} ∪ {b})"),
            Query::Intersect(a, b) => write!(f, "({a} ∩ {b})"),
            Query::Difference(a, b) => write!(f, "({a} − {b})"),
            Query::Join(on, a, b) => write!(f, "({a} ⋈{on:?} {b})"),
            Query::Map(g, q) => write!(f, "map({g:?})({q})"),
            Query::Insert(c, q) => write!(f, "ins_{c}({q})"),
            Query::Singleton(q) => write!(f, "η({q})"),
            Query::Flatten(q) => write!(f, "μ({q})"),
            Query::Powerset(q) => write!(f, "℘({q})"),
            Query::EqAdom(q) => write!(f, "eq_adom({q})"),
            Query::Adom(q) => write!(f, "adom({q})"),
            Query::Even(q) => write!(f, "even({q})"),
            Query::NestParity(q) => write!(f, "np({q})"),
            Query::Complement(q) => write!(f, "¬({q})"),
            Query::TuplePair(a, b) => write!(f, "⟨{a}, {b}⟩"),
            Query::Nest(keys, q) => {
                write!(f, "ν[")?;
                for (i, k) in keys.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "${}", k + 1)?;
                }
                write!(f, "]({q})")
            }
            Query::Unnest(col, q) => write!(f, "μ[${}]({q})", col + 1),
            Query::Count(q) => write!(f, "count({q})"),
            Query::Sum(col, q) => write!(f, "sum[${}]({q})", col + 1),
            Query::Fixpoint { var, init, step } => write!(f, "fix[{var}]({init}, {step})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let q = Query::rel("R")
            .select(Pred::eq_cols(0, 1))
            .project([0])
            .union(Query::rel("S"));
        assert_eq!(q.rel_names(), vec!["R".to_string(), "S".to_string()]);
        assert_eq!(q.size(), 5);
    }

    #[test]
    fn mentioned_constants_collects_from_everywhere() {
        let q = Query::rel("R")
            .select(Pred::eq_const(0, Value::Int(7)))
            .union(Query::Insert(Value::Int(3), Box::new(Query::rel("S"))))
            .union(Query::Lit(Value::set([Value::Int(9)])));
        let cs = q.mentioned_constants();
        assert_eq!(
            cs,
            vec![Value::Int(3), Value::Int(7), Value::set([Value::Int(9)])]
        );
    }

    #[test]
    fn pred_introspection() {
        let p = Pred::eq_cols(0, 1)
            .and(Pred::Named("even".into(), vec![0]))
            .or(Pred::eq_const(2, Value::Int(7)).not());
        assert!(p.uses_equality());
        assert_eq!(p.named_preds(), vec!["even".to_string()]);
        assert_eq!(p.constants(), vec![Value::Int(7)]);
        assert!(!Pred::True.uses_equality());
        assert!(!Pred::Named("lt".into(), vec![0, 1]).uses_equality());
    }

    #[test]
    fn display_is_paperish() {
        let q1 = Query::rel("R")
            .join_on(Query::rel("R"), [(1, 0)])
            .project([0, 3]);
        let s = q1.to_string();
        assert!(s.contains('π'), "{s}");
        assert!(s.contains('⋈'), "{s}");
    }

    #[test]
    fn fixpoint_variable_is_bound_not_read() {
        // fix[X](E, X ⋈ E): X is the accumulator, E is the only DB read
        let q = Query::fixpoint(
            "X",
            Query::rel("E"),
            Query::rel("X").join_on(Query::rel("E"), [(1, 0)]),
        );
        assert_eq!(q.rel_names(), vec!["E".to_string()]);
        // a same-named DB relation outside the binder is still a read
        let q2 = Query::rel("X").union(q.clone());
        assert_eq!(q2.rel_names(), vec!["E".to_string(), "X".to_string()]);
        // Display round-trips the shape
        assert!(q.to_string().starts_with("fix[X]("), "{q}");
    }

    #[test]
    fn substitute_rel_respects_shadowing() {
        let v = Value::set([Value::Int(1)]);
        let q = Query::rel("X").union(Query::rel("R"));
        let s = q.substitute_rel("X", &v);
        assert!(matches!(&s, Query::Union(a, _) if matches!(a.as_ref(), Query::Lit(_))));
        // inner fix[X] shadows: its step keeps Rel("X"), its init does not
        let inner = Query::fixpoint("X", Query::rel("X"), Query::rel("X"));
        let sub = inner.substitute_rel("X", &v);
        match sub {
            Query::Fixpoint { init, step, .. } => {
                assert!(matches!(init.as_ref(), Query::Lit(_)));
                assert!(matches!(step.as_ref(), Query::Rel(n) if n == "X"));
            }
            other => panic!("unexpected shape {other:?}"),
        }
    }

    #[test]
    fn count_and_sum_builders() {
        let q = Query::rel("R").count();
        assert_eq!(q.to_string(), "count(R)");
        let q = Query::rel("R").sum(1);
        assert_eq!(q.to_string(), "sum[$2](R)");
        assert_eq!(q.size(), 2);
    }

    #[test]
    fn value_fn_debug_and_constants() {
        let f = ValueFn::Compose(
            Box::new(ValueFn::Proj(0)),
            Box::new(ValueFn::Const(Value::Int(1))),
        );
        assert_eq!(f.constants(), vec![Value::Int(1)]);
        assert!(format!("{f:?}").contains('π'));
        let c = ValueFn::custom(|v| v.clone());
        assert_eq!(format!("{c:?}"), "<custom>");
    }
}
