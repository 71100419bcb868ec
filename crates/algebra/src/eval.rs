//! Evaluation of queries over databases of complex values.

use crate::expr::{Pred, Query, ValueFn};
use genpar_value::enumerate::{enumerate, EnumLimits, Universe};
use genpar_value::{CvType, Signature, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A database: named complex values, plus the signature giving meaning to
/// interpreted symbols and (optionally) a finite universe for full-domain
/// operations such as [`Query::Complement`].
pub struct Db {
    relations: BTreeMap<String, Value>,
    signature: Signature,
    /// Universe for full-domain semantics (Section 3.3). `None` disables
    /// `Complement`.
    pub universe: Option<(Universe, CvType)>,
    /// Evaluate σ/map sets on the bytecode VM where eligible (the
    /// default); off keeps every expression on the AST walker. Both
    /// settings give the same answers.
    pub vm: bool,
}

impl Db {
    /// An empty database with an empty signature.
    pub fn new() -> Self {
        Db {
            relations: BTreeMap::new(),
            signature: Signature::new(),
            universe: None,
            vm: true,
        }
    }

    /// A database with the standard integer signature.
    pub fn with_standard_int() -> Self {
        Db {
            relations: BTreeMap::new(),
            signature: Signature::standard_int(),
            universe: None,
            vm: true,
        }
    }

    /// Insert/replace a named relation (builder style).
    pub fn with(mut self, name: impl Into<String>, v: Value) -> Self {
        self.relations.insert(name.into(), v);
        self
    }

    /// Insert/replace a named relation.
    pub fn set(&mut self, name: impl Into<String>, v: Value) {
        self.relations.insert(name.into(), v);
    }

    /// Look up a relation.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.relations.get(name)
    }

    /// Iterate over all relations.
    pub fn relations(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.relations.iter()
    }

    /// The signature.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// Mutable signature access (to register interpreted symbols).
    pub fn signature_mut(&mut self) -> &mut Signature {
        &mut self.signature
    }

    /// Turn the bytecode VM on or off (builder style).
    pub fn with_vm(mut self, on: bool) -> Self {
        self.vm = on;
        self
    }

    /// Enable full-domain semantics: complements are taken w.r.t. all
    /// values of `ty` over `universe`.
    pub fn with_universe(mut self, universe: Universe, ty: CvType) -> Self {
        self.universe = Some((universe, ty));
        self
    }

    /// The active domain of the whole database (union over relations).
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut out = BTreeSet::new();
        for v in self.relations.values() {
            out.extend(v.active_domain());
        }
        out
    }
}

impl Default for Db {
    fn default() -> Self {
        Db::new()
    }
}

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A referenced relation is missing from the database.
    UnknownRelation(String),
    /// An operator was applied to a value of the wrong shape.
    Shape {
        /// Which operator failed.
        op: &'static str,
        /// Rendering of the offending value.
        found: String,
    },
    /// An interpreted symbol is not in the signature.
    UnknownSymbol(String),
    /// An interpreted symbol was applied outside its declared domain.
    Domain(genpar_value::DomainError),
    /// `Complement` was evaluated without a universe, or the universe was
    /// too large to enumerate.
    NoUniverse,
    /// A projection column index was out of range.
    BadColumn(usize),
    /// An [`genpar_guard::ExecBudget`] cap was crossed. Evaluation stops
    /// promptly and reports the work done so far.
    BudgetExceeded {
        /// The exhausted resource.
        resource: genpar_guard::Resource,
        /// The configured cap.
        limit: u64,
        /// Usage at the moment of the breach.
        used: u64,
        /// The operator charging when the cap was crossed.
        op: &'static str,
        /// Work counters accumulated before the breach.
        partial: EvalStats,
    },
    /// A deterministic fault-injection site fired (`GENPAR_FAULTS`).
    Fault(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownRelation(n) => write!(f, "unknown relation {n}"),
            EvalError::Shape { op, found } => write!(f, "{op}: unexpected value shape {found}"),
            EvalError::UnknownSymbol(n) => write!(f, "unknown interpreted symbol {n}"),
            EvalError::Domain(e) => write!(f, "{e}"),
            EvalError::NoUniverse => write!(f, "complement requires a finite universe"),
            EvalError::BadColumn(i) => write!(f, "column ${} out of range", i + 1),
            EvalError::BudgetExceeded {
                resource,
                limit,
                used,
                op,
                partial,
            } => write!(
                f,
                "budget exceeded: {resource} limit {limit} (used {used}) at {op} \
                 [partial progress: {} scanned, {} emitted, {} fn applications]",
                partial.tuples_scanned, partial.tuples_emitted, partial.fn_applications
            ),
            EvalError::Fault(msg) => write!(f, "{msg}"),
        }
    }
}

impl EvalError {
    /// Is this a budget breach (as opposed to a semantic error)?
    pub fn is_budget(&self) -> bool {
        matches!(self, EvalError::BudgetExceeded { .. })
    }

    /// Wrap a guard breach when no work counters are at hand (the
    /// evaluator proper uses `budget_err` to attach partial progress).
    pub fn from_breach(b: genpar_guard::BudgetBreach) -> EvalError {
        EvalError::BudgetExceeded {
            resource: b.resource,
            limit: b.limit,
            used: b.used,
            op: b.op,
            partial: EvalStats::default(),
        }
    }
}

impl std::error::Error for EvalError {}

/// Work counters filled in during evaluation, used by the optimizer
/// benchmarks to compare plans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Elements read from input collections.
    pub tuples_scanned: u64,
    /// Elements written to output collections.
    pub tuples_emitted: u64,
    /// Predicate/function applications.
    pub fn_applications: u64,
}

/// Evaluate `q` against `db`.
pub fn eval(q: &Query, db: &Db) -> Result<Value, EvalError> {
    let mut stats = EvalStats::default();
    let out = eval_with_stats(q, db, &mut stats)?;
    genpar_obs::counter("algebra.tuples_scanned", stats.tuples_scanned);
    genpar_obs::counter("algebra.tuples_emitted", stats.tuples_emitted);
    genpar_obs::counter("algebra.fn_applications", stats.fn_applications);
    Ok(out)
}

/// The span name of a query node's outermost operator.
pub fn op_name(q: &Query) -> &'static str {
    match q {
        Query::Rel(_) => "alg.Rel",
        Query::Lit(_) => "alg.Lit",
        Query::Empty => "alg.Empty",
        Query::Project(..) => "alg.Project",
        Query::Select(..) => "alg.Select",
        Query::SelectHat(..) => "alg.SelectHat",
        Query::Product(..) => "alg.Product",
        Query::Union(..) => "alg.Union",
        Query::Intersect(..) => "alg.Intersect",
        Query::Difference(..) => "alg.Difference",
        Query::Join(..) => "alg.Join",
        Query::Map(..) => "alg.Map",
        Query::Insert(..) => "alg.Insert",
        Query::Singleton(..) => "alg.Singleton",
        Query::Flatten(..) => "alg.Flatten",
        Query::Powerset(..) => "alg.Powerset",
        Query::EqAdom(..) => "alg.EqAdom",
        Query::Adom(..) => "alg.Adom",
        Query::Even(..) => "alg.Even",
        Query::NestParity(..) => "alg.NestParity",
        Query::Complement(..) => "alg.Complement",
        Query::TuplePair(..) => "alg.TuplePair",
        Query::Nest(..) => "alg.Nest",
        Query::Unnest(..) => "alg.Unnest",
        Query::Count(..) => "alg.Count",
        Query::Sum(..) => "alg.Sum",
        Query::Fixpoint { .. } => "alg.Fixpoint",
    }
}

/// Evaluate `q` against `db`, accumulating work counters. Each operator
/// node gets an obs span (parent/child mirrors the query tree) carrying
/// `rows_in`/`rows_out` where the operator consumes/produces sets.
///
/// Budget governance happens at this operator boundary: each node charges
/// one step plus the rows it materialized against any armed
/// [`genpar_guard::ExecBudget`]; a breach surfaces as
/// [`EvalError::BudgetExceeded`] with the partial-progress counters.
pub fn eval_with_stats(q: &Query, db: &Db, stats: &mut EvalStats) -> Result<Value, EvalError> {
    let op = op_name(q);
    genpar_guard::faultpoint("algebra.eval").map_err(|f| EvalError::Fault(f.to_string()))?;
    genpar_guard::charge_steps(1, op).map_err(|b| budget_err(b, stats))?;
    let mut sp = genpar_obs::span(op);
    let out = eval_node(q, db, stats, &mut sp)?;
    if let Value::Set(s) = &out {
        sp.field("rows_out", s.len() as u64);
        genpar_guard::charge_rows(s.len() as u64, op).map_err(|b| budget_err(b, stats))?;
        genpar_guard::charge_cells(s.iter().map(Value::len).sum::<usize>() as u64, op)
            .map_err(|b| budget_err(b, stats))?;
    }
    Ok(out)
}

/// Wrap a guard breach into a structured eval error carrying the work
/// counters accumulated so far.
fn budget_err(b: genpar_guard::BudgetBreach, stats: &EvalStats) -> EvalError {
    EvalError::BudgetExceeded {
        resource: b.resource,
        limit: b.limit,
        used: b.used,
        op: b.op,
        partial: *stats,
    }
}

fn eval_node(
    q: &Query,
    db: &Db,
    stats: &mut EvalStats,
    sp: &mut genpar_obs::SpanGuard,
) -> Result<Value, EvalError> {
    match q {
        Query::Rel(name) => db
            .get(name)
            .cloned()
            .ok_or_else(|| EvalError::UnknownRelation(name.clone())),
        Query::Lit(v) => Ok(v.clone()),
        Query::Empty => Ok(Value::empty_set()),
        Query::Project(cols, q) => {
            let s = eval_set(q, db, stats)?;
            sp.field("rows_in", s.len() as u64);
            let mut out = BTreeSet::new();
            for t in &s {
                stats.tuples_scanned += 1;
                out.insert(project_tuple(t, cols)?);
            }
            stats.tuples_emitted += out.len() as u64;
            Ok(Value::Set(out))
        }
        Query::Select(p, q) => {
            let s = eval_set(q, db, stats)?;
            sp.field("rows_in", s.len() as u64);
            let out = select_set(p, s, db, stats)?;
            stats.tuples_emitted += out.len() as u64;
            Ok(Value::Set(out))
        }
        Query::SelectHat(i, j, q) => {
            // σ̂_{i=j}(R) = {π_ĵ(t) | t ∈ R, t.i = t.j} (Section 3.2)
            let s = eval_set(q, db, stats)?;
            sp.field("rows_in", s.len() as u64);
            let mut out = BTreeSet::new();
            for t in &s {
                stats.tuples_scanned += 1;
                let tup = t.as_tuple().ok_or_else(|| shape("σ̂", t))?;
                let a = tup.get(*i).ok_or(EvalError::BadColumn(*i))?;
                let b = tup.get(*j).ok_or(EvalError::BadColumn(*j))?;
                if a == b {
                    let projected: Vec<Value> = tup
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| k != j)
                        .map(|(_, v)| v.clone())
                        .collect();
                    out.insert(Value::Tuple(projected));
                }
            }
            stats.tuples_emitted += out.len() as u64;
            Ok(Value::Set(out))
        }
        Query::Product(a, b) => {
            let sa = eval_set(a, db, stats)?;
            let sb = eval_set(b, db, stats)?;
            sp.field("rows_in", (sa.len() + sb.len()) as u64);
            let mut out = BTreeSet::new();
            for x in &sa {
                // × is quadratic: re-check the budget between inner
                // sweeps so an armed cap stops the blow-up promptly
                // instead of after full materialization
                genpar_guard::charge_steps(sb.len() as u64, "alg.Product")
                    .map_err(|b| budget_err(b, stats))?;
                genpar_guard::charge_rows(out.len() as u64, "alg.Product")
                    .map_err(|b| budget_err(b, stats))?;
                for y in &sb {
                    stats.tuples_scanned += 1;
                    out.insert(concat_tuples(x, y)?);
                }
            }
            stats.tuples_emitted += out.len() as u64;
            Ok(Value::Set(out))
        }
        Query::Union(a, b) => {
            let mut sa = eval_set(a, db, stats)?;
            let sb = eval_set(b, db, stats)?;
            sp.field("rows_in", (sa.len() + sb.len()) as u64);
            stats.tuples_scanned += (sa.len() + sb.len()) as u64;
            sa.extend(sb);
            stats.tuples_emitted += sa.len() as u64;
            Ok(Value::Set(sa))
        }
        Query::Intersect(a, b) => {
            let sa = eval_set(a, db, stats)?;
            let sb = eval_set(b, db, stats)?;
            sp.field("rows_in", (sa.len() + sb.len()) as u64);
            stats.tuples_scanned += (sa.len() + sb.len()) as u64;
            let out: BTreeSet<Value> = sa.intersection(&sb).cloned().collect();
            stats.tuples_emitted += out.len() as u64;
            Ok(Value::Set(out))
        }
        Query::Difference(a, b) => {
            let sa = eval_set(a, db, stats)?;
            let sb = eval_set(b, db, stats)?;
            sp.field("rows_in", (sa.len() + sb.len()) as u64);
            stats.tuples_scanned += (sa.len() + sb.len()) as u64;
            let out: BTreeSet<Value> = sa.difference(&sb).cloned().collect();
            stats.tuples_emitted += out.len() as u64;
            Ok(Value::Set(out))
        }
        Query::Join(on, a, b) => {
            let sa = eval_set(a, db, stats)?;
            let sb = eval_set(b, db, stats)?;
            sp.field("rows_in", (sa.len() + sb.len()) as u64);
            // hash join on the first key pair, nested filter for the rest
            let mut out = BTreeSet::new();
            if let Some(&(i0, j0)) = on.first() {
                let mut index: BTreeMap<&Value, Vec<&Value>> = BTreeMap::new();
                for t in &sb {
                    stats.tuples_scanned += 1;
                    let tup = t.as_tuple().ok_or_else(|| shape("⋈", t))?;
                    let k = tup.get(j0).ok_or(EvalError::BadColumn(j0))?;
                    index.entry(k).or_default().push(t);
                }
                for s in &sa {
                    stats.tuples_scanned += 1;
                    let stup = s.as_tuple().ok_or_else(|| shape("⋈", s))?;
                    let k = stup.get(i0).ok_or(EvalError::BadColumn(i0))?;
                    if let Some(matches) = index.get(k) {
                        'next: for t in matches {
                            let ttup = t.as_tuple().expect("indexed tuples");
                            for &(i, j) in &on[1..] {
                                let x = stup.get(i).ok_or(EvalError::BadColumn(i))?;
                                let y = ttup.get(j).ok_or(EvalError::BadColumn(j))?;
                                if x != y {
                                    continue 'next;
                                }
                            }
                            out.insert(concat_tuples(s, t)?);
                        }
                    }
                }
            } else {
                // no key pairs: degenerate to product (quadratic, so
                // budget-checked between inner sweeps like ×)
                for x in &sa {
                    genpar_guard::charge_steps(sb.len() as u64, "alg.Join")
                        .map_err(|b| budget_err(b, stats))?;
                    genpar_guard::charge_rows(out.len() as u64, "alg.Join")
                        .map_err(|b| budget_err(b, stats))?;
                    for y in &sb {
                        stats.tuples_scanned += 1;
                        out.insert(concat_tuples(x, y)?);
                    }
                }
            }
            stats.tuples_emitted += out.len() as u64;
            Ok(Value::Set(out))
        }
        Query::Map(f, q) => {
            let s = eval_set(q, db, stats)?;
            sp.field("rows_in", s.len() as u64);
            let out = map_set(f, &s, db, stats)?;
            stats.tuples_emitted += out.len() as u64;
            Ok(Value::Set(out))
        }
        Query::Insert(c, q) => {
            let mut s = eval_set(q, db, stats)?;
            s.insert(c.clone());
            stats.tuples_emitted += 1;
            Ok(Value::Set(s))
        }
        Query::Singleton(q) => {
            let v = eval_with_stats(q, db, stats)?;
            stats.tuples_emitted += 1;
            Ok(Value::set([v]))
        }
        Query::Flatten(q) => {
            let s = eval_set(q, db, stats)?;
            let mut out = BTreeSet::new();
            for inner in &s {
                stats.tuples_scanned += 1;
                let is = inner.as_set().ok_or_else(|| shape("μ", inner))?;
                out.extend(is.iter().cloned());
            }
            stats.tuples_emitted += out.len() as u64;
            Ok(Value::Set(out))
        }
        Query::Powerset(q) => {
            let s = eval_set(q, db, stats)?;
            let elems: Vec<Value> = s.into_iter().collect();
            // ℘ of n elements is a 2ⁿ-element answer: governed by the
            // armed budget's powerset cap (default 20 even when no
            // budget is armed — this is the one always-on guard)
            // 62: the mask enumeration below uses a u64, and anything
            // beyond 2⁶² subsets is out of reach regardless of budget
            let cap = genpar_guard::powerset_cap().min(62);
            if elems.len() > cap {
                return Err(EvalError::BudgetExceeded {
                    resource: genpar_guard::Resource::Powerset,
                    limit: cap as u64,
                    used: elems.len() as u64,
                    op: "℘",
                    partial: *stats,
                });
            }
            let mut out = BTreeSet::new();
            for mask in 0u64..(1u64 << elems.len()) {
                let sub: BTreeSet<Value> = elems
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, v)| v.clone())
                    .collect();
                out.insert(Value::Set(sub));
            }
            stats.tuples_emitted += out.len() as u64;
            Ok(Value::Set(out))
        }
        Query::EqAdom(q) => {
            let v = eval_with_stats(q, db, stats)?;
            let adom = v.active_domain();
            let out: BTreeSet<Value> = adom
                .iter()
                .map(|x| Value::tuple([x.clone(), x.clone()]))
                .collect();
            stats.tuples_emitted += out.len() as u64;
            Ok(Value::Set(out))
        }
        Query::Adom(q) => {
            let v = eval_with_stats(q, db, stats)?;
            Ok(Value::Set(v.active_domain()))
        }
        Query::Even(q) => {
            let s = eval_set(q, db, stats)?;
            Ok(Value::Bool(s.len() % 2 == 0))
        }
        Query::NestParity(q) => {
            let v = eval_with_stats(q, db, stats)?;
            Ok(Value::Bool(v.set_nesting_depth() % 2 == 0))
        }
        Query::Complement(q) => {
            let s = eval_set(q, db, stats)?;
            let (universe, ty) = db.universe.as_ref().ok_or(EvalError::NoUniverse)?;
            let elem_ty = match ty {
                CvType::Set(t) => (**t).clone(),
                other => other.clone(),
            };
            let all = enumerate(&elem_ty, universe, EnumLimits::default())
                .ok_or(EvalError::NoUniverse)?;
            let out: BTreeSet<Value> = all.into_iter().filter(|v| !s.contains(v)).collect();
            stats.tuples_emitted += out.len() as u64;
            Ok(Value::Set(out))
        }
        Query::TuplePair(a, b) => {
            let va = eval_with_stats(a, db, stats)?;
            let vb = eval_with_stats(b, db, stats)?;
            Ok(Value::tuple([va, vb]))
        }
        Query::Nest(keys, q) => {
            let s = eval_set(q, db, stats)?;
            sp.field("rows_in", s.len() as u64);
            let mut groups: BTreeMap<Vec<Value>, BTreeSet<Value>> = BTreeMap::new();
            for t in &s {
                stats.tuples_scanned += 1;
                let tup = t.as_tuple().ok_or_else(|| shape("ν", t))?;
                let mut key = Vec::with_capacity(keys.len());
                for &k in keys {
                    key.push(tup.get(k).ok_or(EvalError::BadColumn(k))?.clone());
                }
                let rest: Vec<Value> = tup
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !keys.contains(i))
                    .map(|(_, v)| v.clone())
                    .collect();
                groups.entry(key).or_default().insert(Value::Tuple(rest));
            }
            let mut out = BTreeSet::new();
            for (key, nested) in groups {
                let mut row = key;
                row.push(Value::Set(nested));
                out.insert(Value::Tuple(row));
            }
            stats.tuples_emitted += out.len() as u64;
            Ok(Value::Set(out))
        }
        Query::Unnest(col, q) => {
            let s = eval_set(q, db, stats)?;
            sp.field("rows_in", s.len() as u64);
            let mut out = BTreeSet::new();
            for t in &s {
                stats.tuples_scanned += 1;
                let tup = t.as_tuple().ok_or_else(|| shape("μ (unnest)", t))?;
                let inner = tup
                    .get(*col)
                    .ok_or(EvalError::BadColumn(*col))?
                    .as_set()
                    .ok_or_else(|| shape("μ (unnest)", t))?;
                for elem in inner {
                    let spliced: Vec<Value> = match elem.as_tuple() {
                        Some(parts) => tup
                            .iter()
                            .enumerate()
                            .flat_map(|(i, v)| {
                                if i == *col {
                                    parts.to_vec()
                                } else {
                                    vec![v.clone()]
                                }
                            })
                            .collect(),
                        None => tup
                            .iter()
                            .enumerate()
                            .map(|(i, v)| if i == *col { elem.clone() } else { v.clone() })
                            .collect(),
                    };
                    out.insert(Value::Tuple(spliced));
                }
            }
            stats.tuples_emitted += out.len() as u64;
            Ok(Value::Set(out))
        }
        Query::Count(q) => {
            let s = eval_set(q, db, stats)?;
            sp.field("rows_in", s.len() as u64);
            stats.tuples_scanned += s.len() as u64;
            Ok(Value::Int(s.len() as i64))
        }
        Query::Sum(col, q) => {
            let s = eval_set(q, db, stats)?;
            sp.field("rows_in", s.len() as u64);
            let mut total: i64 = 0;
            for t in &s {
                stats.tuples_scanned += 1;
                total = total.wrapping_add(sum_component(t, *col)?);
            }
            Ok(Value::Int(total))
        }
        Query::Fixpoint { var, init, step } => {
            let seed = eval_with_stats(init, db, stats)?;
            // each round binds the accumulator to the loop variable by
            // literal substitution, then evaluates the body as usual
            crate::fixpoint::inflationary_fixpoint(
                &seed,
                |x| {
                    let bound = step.substitute_rel(var, x);
                    eval_with_stats(&bound, db, stats)
                },
                crate::fixpoint::DEFAULT_FIXPOINT_ITERS,
            )
        }
    }
}

/// The integer contribution of one set element to `sum[$col]`: column
/// `col` of a tuple element, or the element itself when it is a bare
/// integer addressed as column 0. Shared with the parallel combiner
/// kernel so the two routes agree on semantics (and on error cases).
pub fn sum_component(t: &Value, col: usize) -> Result<i64, EvalError> {
    match t.as_tuple() {
        Some(tup) => row_sum_component(tup, col),
        None if col == 0 => t.as_int().ok_or_else(|| shape("sum", t)),
        None => Err(shape("sum", t)),
    }
}

/// [`sum_component`] of a tuple element, read from its components where
/// they lie (the executor's rows).
pub fn row_sum_component(row: &[Value], col: usize) -> Result<i64, EvalError> {
    let v = row.get(col).ok_or(EvalError::BadColumn(col))?;
    v.as_int().ok_or_else(|| shape("sum", v))
}

fn shape(op: &'static str, v: &Value) -> EvalError {
    EvalError::Shape {
        op,
        found: v.to_string(),
    }
}

fn eval_set(q: &Query, db: &Db, stats: &mut EvalStats) -> Result<BTreeSet<Value>, EvalError> {
    match eval_with_stats(q, db, stats)? {
        Value::Set(s) => Ok(s),
        other => Err(shape("set operator", &other)),
    }
}

fn project_tuple(t: &Value, cols: &[usize]) -> Result<Value, EvalError> {
    let tup = t.as_tuple().ok_or_else(|| shape("π", t))?;
    let mut out = Vec::with_capacity(cols.len());
    for &c in cols {
        out.push(tup.get(c).ok_or(EvalError::BadColumn(c))?.clone());
    }
    Ok(Value::Tuple(out))
}

fn concat_tuples(a: &Value, b: &Value) -> Result<Value, EvalError> {
    let x = a.as_tuple().ok_or_else(|| shape("×", a))?;
    let y = b.as_tuple().ok_or_else(|| shape("×", b))?;
    Ok(Value::Tuple(x.iter().chain(y).cloned().collect()))
}

/// One set through `σ_p`, on the compiled-program path when the VM is
/// engaged (on for `db`, `vm.exec` fault site clean) and `p` is
/// eligible, otherwise the AST walker. The two paths are
/// observationally identical — verdicts, errors and the per-tuple stat
/// counts all match — which is exactly the parametricity fact the
/// differential oracle pins.
fn select_set(
    p: &Pred,
    s: BTreeSet<Value>,
    db: &Db,
    stats: &mut EvalStats,
) -> Result<BTreeSet<Value>, EvalError> {
    let mut out = BTreeSet::new();
    let prog = if db.vm && crate::vm::engage() {
        crate::vm::compile_pred(p).ok()
    } else {
        None
    };
    if let Some(prog) = prog {
        let mut vm = crate::vm::Vm::new();
        for t in s {
            stats.tuples_scanned += 1;
            stats.fn_applications += 1;
            if vm.run_pred(&prog, &t, db)? {
                out.insert(t);
            }
        }
    } else {
        for t in s {
            stats.tuples_scanned += 1;
            stats.fn_applications += 1;
            if eval_pred(p, &t, db)? {
                out.insert(t);
            }
        }
    }
    Ok(out)
}

/// One set through `map(f)` — same engage-or-walk split as
/// [`select_set`]. Ineligible functions (opaque closures, over-deep
/// programs) silently keep the walker here; `explain` is where the
/// refusal reason is surfaced.
fn map_set(
    f: &ValueFn,
    s: &BTreeSet<Value>,
    db: &Db,
    stats: &mut EvalStats,
) -> Result<BTreeSet<Value>, EvalError> {
    let mut out = BTreeSet::new();
    let prog = if db.vm && crate::vm::engage() {
        crate::vm::compile_fn(f).ok()
    } else {
        None
    };
    if let Some(prog) = prog {
        let mut vm = crate::vm::Vm::new();
        for t in s {
            stats.tuples_scanned += 1;
            stats.fn_applications += 1;
            out.insert(vm.run_fn(&prog, t, db)?);
        }
    } else {
        for t in s {
            stats.tuples_scanned += 1;
            stats.fn_applications += 1;
            out.insert(apply_fn(f, t, db)?);
        }
    }
    Ok(out)
}

/// Evaluate a predicate on a tuple.
pub fn eval_pred(p: &Pred, t: &Value, db: &Db) -> Result<bool, EvalError> {
    pred_on(p, t.as_tuple().ok_or(t), db)
}

/// [`eval_pred`] on a tuple's components, borrowed where they lie (the
/// executor's rows): the same verdicts and errors as on the tuple value.
pub fn eval_row_pred(p: &Pred, row: &[Value], db: &Db) -> Result<bool, EvalError> {
    pred_on(p, Ok(row), db)
}

/// A predicate over a tuple's components, or over the non-tuple element
/// it was applied to (a shape error wherever a column is read).
fn pred_on(p: &Pred, t: Result<&[Value], &Value>, db: &Db) -> Result<bool, EvalError> {
    let tuple = || t.map_err(|v| shape("σ", v));
    match p {
        Pred::True => Ok(true),
        Pred::EqCols(i, j) => {
            let tup = tuple()?;
            let a = tup.get(*i).ok_or(EvalError::BadColumn(*i))?;
            let b = tup.get(*j).ok_or(EvalError::BadColumn(*j))?;
            Ok(a == b)
        }
        Pred::EqConst(i, c) => Ok(tuple()?.get(*i).ok_or(EvalError::BadColumn(*i))? == c),
        Pred::Named(name, cols) => {
            let pred = db
                .signature()
                .predicate(name)
                .ok_or_else(|| EvalError::UnknownSymbol(name.clone()))?;
            let tup = tuple()?;
            let mut args = Vec::with_capacity(cols.len());
            for &c in cols {
                args.push(tup.get(c).ok_or(EvalError::BadColumn(c))?.clone());
            }
            pred.apply(&args).map_err(EvalError::Domain)
        }
        Pred::And(a, b) => Ok(pred_on(a, t, db)? && pred_on(b, t, db)?),
        Pred::Or(a, b) => Ok(pred_on(a, t, db)? || pred_on(b, t, db)?),
        Pred::Not(a) => Ok(!pred_on(a, t, db)?),
    }
}

/// Apply a [`ValueFn`] to a value.
pub fn apply_fn(f: &ValueFn, v: &Value, db: &Db) -> Result<Value, EvalError> {
    match f {
        ValueFn::Identity => Ok(v.clone()),
        ValueFn::Proj(i) => v.project(*i).cloned().ok_or_else(|| shape("π (fn)", v)),
        ValueFn::Cols(cols) => project_tuple(v, cols),
        ValueFn::Const(c) => Ok(c.clone()),
        ValueFn::Compose(a, b) => {
            let mid = apply_fn(a, v, db)?;
            apply_fn(b, &mid, db)
        }
        ValueFn::Interp(name) => {
            let func = db
                .signature()
                .function(name)
                .ok_or_else(|| EvalError::UnknownSymbol(name.clone()))?;
            func.apply(v).map_err(EvalError::Domain)
        }
        ValueFn::Pair(a, b) => Ok(Value::tuple([apply_fn(a, v, db)?, apply_fn(b, v, db)?])),
        ValueFn::Custom(g) => Ok(g(v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genpar_value::parse::parse_value;

    fn db_r(s: &str) -> Db {
        Db::new().with("R", parse_value(s).unwrap())
    }

    fn run(q: &Query, db: &Db) -> Value {
        eval(q, db).unwrap()
    }

    #[test]
    fn rel_and_lit_and_empty() {
        let db = db_r("{(a, b)}");
        assert_eq!(run(&Query::rel("R"), &db), parse_value("{(a, b)}").unwrap());
        assert_eq!(run(&Query::Lit(Value::Int(3)), &db), Value::Int(3));
        assert_eq!(run(&Query::Empty, &db), Value::empty_set());
        assert_eq!(
            eval(&Query::rel("S"), &db),
            Err(EvalError::UnknownRelation("S".into()))
        );
    }

    #[test]
    fn example_2_2_q1_composition() {
        // Q1 = π$1,$3(R ⋈ R) on r1 returns {(e,g),(i,g)}
        let db = db_r("{(e, f), (i, f), (e, j), (i, j), (f, g), (j, g)}");
        let q1 = Query::rel("R")
            .join_on(Query::rel("R"), [(1, 0)])
            .project([0, 3]);
        assert_eq!(run(&q1, &db), parse_value("{(e, g), (i, g)}").unwrap());
    }

    #[test]
    fn example_2_2_q1_on_r2() {
        let db = db_r("{(a, b), (b, c)}");
        let q1 = Query::rel("R")
            .join_on(Query::rel("R"), [(1, 0)])
            .project([0, 3]);
        assert_eq!(run(&q1, &db), parse_value("{(a, c)}").unwrap());
    }

    #[test]
    fn example_2_2_q1_on_r3_is_empty() {
        let db = db_r("{(e, j), (i, j), (f, g)}");
        let q1 = Query::rel("R")
            .join_on(Query::rel("R"), [(1, 0)])
            .project([0, 3]);
        assert_eq!(run(&q1, &db), Value::empty_set());
    }

    #[test]
    fn product_concatenates() {
        let db = db_r("{(a), (b)}");
        let q2 = Query::rel("R").product(Query::rel("R"));
        let got = run(&q2, &db);
        assert_eq!(got, parse_value("{(a,a),(a,b),(b,a),(b,b)}").unwrap());
    }

    #[test]
    fn select_eq_cols_q4() {
        let db = db_r("{(a, a), (a, b)}");
        let q4 = Query::rel("R").select(Pred::eq_cols(0, 1));
        assert_eq!(run(&q4, &db), parse_value("{(a, a)}").unwrap());
    }

    #[test]
    fn select_eq_const_q5() {
        let db = Db::new().with("R", parse_value("{(7), (8)}").unwrap());
        let q5 = Query::rel("R").select(Pred::eq_const(0, Value::Int(7)));
        assert_eq!(run(&q5, &db), parse_value("{(7)}").unwrap());
    }

    #[test]
    fn select_named_predicate() {
        let db = Db::with_standard_int().with("R", parse_value("{(1), (2), (3), (4)}").unwrap());
        let q = Query::rel("R").select(Pred::Named("even".into(), vec![0]));
        assert_eq!(run(&q, &db), parse_value("{(2), (4)}").unwrap());
        let bad = Query::rel("R").select(Pred::Named("nope".into(), vec![0]));
        assert_eq!(
            eval(&bad, &db),
            Err(EvalError::UnknownSymbol("nope".into()))
        );
    }

    #[test]
    fn select_hat_projects_out_equal_column() {
        // σ̂_{1=2} on {(a,a,b), (a,b,c)} → {(a,b)}
        let db = db_r("{(a, a, b), (a, b, c)}");
        let q = Query::rel("R").select_hat(0, 1);
        assert_eq!(run(&q, &db), parse_value("{(a, b)}").unwrap());
    }

    #[test]
    fn set_operations() {
        let db = Db::new()
            .with("R", parse_value("{(a), (b)}").unwrap())
            .with("S", parse_value("{(b), (c)}").unwrap());
        assert_eq!(
            run(&Query::rel("R").union(Query::rel("S")), &db),
            parse_value("{(a), (b), (c)}").unwrap()
        );
        assert_eq!(
            run(&Query::rel("R").intersect(Query::rel("S")), &db),
            parse_value("{(b)}").unwrap()
        );
        assert_eq!(
            run(&Query::rel("R").difference(Query::rel("S")), &db),
            parse_value("{(a)}").unwrap()
        );
    }

    #[test]
    fn join_multi_key() {
        let db = Db::new()
            .with("R", parse_value("{(a, b), (a, c)}").unwrap())
            .with("S", parse_value("{(a, b), (c, c)}").unwrap());
        let q = Query::rel("R").join_on(Query::rel("S"), [(0, 0), (1, 1)]);
        assert_eq!(run(&q, &db), parse_value("{(a, b, a, b)}").unwrap());
    }

    #[test]
    fn join_with_no_keys_is_product() {
        let db = db_r("{(a), (b)}");
        let q = Query::rel("R").join_on(Query::rel("R"), []);
        assert_eq!(run(&q, &db).len(), 4);
    }

    #[test]
    fn map_applies_fn() {
        let db = db_r("{(a, b), (b, c)}");
        let q = Query::rel("R").map(ValueFn::Proj(0));
        assert_eq!(run(&q, &db), parse_value("{a, b}").unwrap());
        let q2 = Query::rel("R").map(ValueFn::Cols(vec![1, 0]));
        assert_eq!(run(&q2, &db), parse_value("{(b, a), (c, b)}").unwrap());
    }

    #[test]
    fn map_with_interp_fn() {
        let db = Db::with_standard_int().with("R", parse_value("{1, 2}").unwrap());
        let q = Query::rel("R").map(ValueFn::Interp("succ".into()));
        assert_eq!(run(&q, &db), parse_value("{2, 3}").unwrap());
    }

    #[test]
    fn insert_and_singleton_and_flatten() {
        let db = db_r("{a}");
        assert_eq!(
            run(
                &Query::Insert(Value::atom(0, 1), Box::new(Query::rel("R"))),
                &db
            ),
            parse_value("{a, b}").unwrap()
        );
        assert_eq!(
            run(&Query::Singleton(Box::new(Query::rel("R"))), &db),
            parse_value("{{a}}").unwrap()
        );
        let db2 = db_r("{{a}, {b, c}}");
        assert_eq!(
            run(&Query::Flatten(Box::new(Query::rel("R"))), &db2),
            parse_value("{a, b, c}").unwrap()
        );
    }

    #[test]
    fn powerset_small() {
        let db = db_r("{a, b}");
        let q = Query::Powerset(Box::new(Query::rel("R")));
        assert_eq!(run(&q, &db).len(), 4);
    }

    #[test]
    fn powerset_guards_size() {
        // 30 elements: 2³⁰ subsets — must fail fast with a structured
        // budget error carrying partial stats, not a Shape error or OOM
        let big = Value::set((0..30).map(|i| Value::atom(0, i)));
        let db = Db::new().with("R", big);
        match eval(&Query::Powerset(Box::new(Query::rel("R"))), &db) {
            Err(EvalError::BudgetExceeded {
                resource,
                limit,
                used,
                op,
                ..
            }) => {
                assert_eq!(resource, genpar_guard::Resource::Powerset);
                assert_eq!(limit, 20);
                assert_eq!(used, 30);
                assert_eq!(op, "℘");
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn powerset_cap_is_budget_configurable() {
        let big = Value::set((0..25).map(|i| Value::atom(0, i)));
        let db = Db::new().with("R", big);
        let q = Query::Powerset(Box::new(Query::rel("R")));
        // raising the cap (and the row/cell caps ℘'s output needs)
        // allows the 2²⁵-subset expansion to be *attempted*; a tighter
        // cap rejects a small set
        {
            let _scope = genpar_guard::ExecBudget::default()
                .with_max_powerset(4)
                .enter();
            let err = eval(&Query::Powerset(Box::new(Query::rel("R"))), &db).unwrap_err();
            assert!(err.is_budget(), "{err}");
            let small = Db::new().with("R", Value::set((0..3).map(|i| Value::atom(0, i))));
            assert_eq!(eval(&q, &small).unwrap().len(), 8);
            let five = Db::new().with("R", Value::set((0..5).map(|i| Value::atom(0, i))));
            assert!(eval(&q, &five).unwrap_err().is_budget());
        }
    }

    #[test]
    fn eq_adom_builds_identity_relation() {
        let db = db_r("{(a, b)}");
        let q = Query::EqAdom(Box::new(Query::rel("R")));
        assert_eq!(run(&q, &db), parse_value("{(a, a), (b, b)}").unwrap());
    }

    #[test]
    fn adom_and_even_and_nest_parity() {
        let db = db_r("{(a, b), (b, c)}");
        assert_eq!(
            run(&Query::Adom(Box::new(Query::rel("R"))), &db),
            parse_value("{a, b, c}").unwrap()
        );
        assert_eq!(
            run(&Query::Even(Box::new(Query::rel("R"))), &db),
            Value::Bool(true)
        );
        let db2 = db_r("{(a, b), (b, c), (a, c)}");
        assert_eq!(
            run(&Query::Even(Box::new(Query::rel("R"))), &db2),
            Value::Bool(false)
        );
        // np: {(a,b)} has nesting depth 1 → odd
        assert_eq!(
            run(&Query::NestParity(Box::new(Query::rel("R"))), &db),
            Value::Bool(false)
        );
        let db3 = db_r("{{a}}");
        assert_eq!(
            run(&Query::NestParity(Box::new(Query::rel("R"))), &db3),
            Value::Bool(true)
        );
    }

    #[test]
    fn complement_needs_universe() {
        let db = db_r("{a}");
        assert_eq!(
            eval(&Query::Complement(Box::new(Query::rel("R"))), &db),
            Err(EvalError::NoUniverse)
        );
        let db = db_r("{a}").with_universe(Universe::atoms_only(3), CvType::set(CvType::domain(0)));
        assert_eq!(
            run(&Query::Complement(Box::new(Query::rel("R"))), &db),
            parse_value("{b, c}").unwrap()
        );
    }

    #[test]
    fn stats_count_work() {
        let db = db_r("{(a, b), (b, c), (c, d)}");
        let mut stats = EvalStats::default();
        let q = Query::rel("R").select(Pred::True).project([0]);
        eval_with_stats(&q, &db, &mut stats).unwrap();
        assert_eq!(stats.tuples_scanned, 6); // 3 select + 3 project
        assert_eq!(stats.fn_applications, 3);
        assert!(stats.tuples_emitted >= 6);
    }

    #[test]
    fn shape_errors_are_reported() {
        let db = Db::new().with("R", Value::Int(3));
        assert!(matches!(
            eval(&Query::rel("R").project([0]), &db),
            Err(EvalError::Shape { .. })
        ));
        let db2 = db_r("{a}");
        assert!(matches!(
            eval(&Query::rel("R").project([2]), &db2),
            Err(EvalError::Shape { .. }) | Err(EvalError::BadColumn(_))
        ));
    }

    #[test]
    fn count_and_sum_aggregate() {
        let db = db_r("{(1, 10), (2, 20), (3, 30)}");
        assert_eq!(run(&Query::rel("R").count(), &db), Value::Int(3));
        assert_eq!(run(&Query::rel("R").sum(1), &db), Value::Int(60));
        assert_eq!(run(&Query::Empty.count(), &db), Value::Int(0));
        assert_eq!(run(&Query::Empty.sum(0), &db), Value::Int(0));
        // bare-int elements sum as column 0
        let db2 = db_r("{1, 2, 3}");
        assert_eq!(run(&Query::rel("R").sum(0), &db2), Value::Int(6));
        // non-int column is a shape error
        let db3 = db_r("{(a, b)}");
        assert!(matches!(
            eval(&Query::rel("R").sum(0), &db3),
            Err(EvalError::Shape { .. })
        ));
        assert!(matches!(
            eval(&Query::rel("R").sum(7), &db3),
            Err(EvalError::BadColumn(7))
        ));
    }

    #[test]
    fn fixpoint_query_computes_transitive_closure() {
        // fix[X](E, π$1,$4(X ⋈ E)) = TC of edge relation E
        let db = Db::new().with("E", parse_value("{(a, b), (b, c), (c, d)}").unwrap());
        let q = Query::fixpoint(
            "X",
            Query::rel("E"),
            Query::rel("X")
                .join_on(Query::rel("E"), [(1, 0)])
                .project([0, 3]),
        );
        assert_eq!(
            run(&q, &db),
            parse_value("{(a, b), (b, c), (c, d), (a, c), (b, d), (a, d)}").unwrap()
        );
    }

    #[test]
    fn fixpoint_loop_variable_shadows_database_relation() {
        // a DB relation named X must not leak into the loop body
        let db = Db::new()
            .with("E", parse_value("{(a, b)}").unwrap())
            .with("X", parse_value("{(z, z)}").unwrap());
        let q = Query::fixpoint(
            "X",
            Query::rel("E"),
            Query::rel("X")
                .join_on(Query::rel("E"), [(1, 0)])
                .project([0, 3]),
        );
        assert_eq!(run(&q, &db), parse_value("{(a, b)}").unwrap());
    }

    #[test]
    fn fixpoint_respects_armed_depth_budget() {
        let db = Db::with_standard_int().with("R", parse_value("{1}").unwrap());
        // map(succ) grows forever: the armed depth cap must cut it short
        let q = Query::fixpoint(
            "X",
            Query::rel("R"),
            Query::rel("X").map(ValueFn::Interp("succ".into())),
        );
        let _scope = genpar_guard::ExecBudget::unlimited()
            .with_max_depth(5)
            .enter();
        let err = eval(&q, &db).unwrap_err();
        assert!(err.is_budget(), "{err}");
    }

    #[test]
    fn tuple_pair_builds_database_tuples() {
        let db = Db::new()
            .with("R", parse_value("{a}").unwrap())
            .with("S", parse_value("{b}").unwrap());
        let q = Query::TuplePair(Box::new(Query::rel("R")), Box::new(Query::rel("S")));
        assert_eq!(run(&q, &db), parse_value("({a}, {b})").unwrap());
    }
}

#[cfg(test)]
mod nest_tests {
    use super::*;
    use crate::expr::Query;
    use genpar_value::parse::parse_value;

    fn db_r(s: &str) -> Db {
        Db::new().with("R", parse_value(s).unwrap())
    }

    #[test]
    fn nest_groups_by_keys() {
        // R = {(a,1),(a,2),(b,1)} ν[$1] → {(a,{(1),(2)}), (b,{(1)})}
        let db = db_r("{(a, 1), (a, 2), (b, 1)}");
        let q = Query::rel("R").nest([0]);
        let got = eval(&q, &db).unwrap();
        assert_eq!(got, parse_value("{(a, {(1), (2)}), (b, {(1)})}").unwrap());
    }

    #[test]
    fn nest_on_all_columns_gives_unit_groups() {
        let db = db_r("{(a, 1)}");
        let q = Query::rel("R").nest([0, 1]);
        let got = eval(&q, &db).unwrap();
        assert_eq!(got, parse_value("{(a, 1, {()})}").unwrap());
    }

    #[test]
    fn unnest_inverts_nest() {
        let db = db_r("{(a, 1), (a, 2), (b, 1)}");
        let q = Query::rel("R").nest([0]).unnest(1);
        let got = eval(&q, &db).unwrap();
        assert_eq!(got, parse_value("{(a, 1), (a, 2), (b, 1)}").unwrap());
    }

    #[test]
    fn unnest_drops_empty_groups() {
        // a tuple with an empty nested set contributes nothing
        let db = db_r("{(a, {}), (b, {(1)})}");
        let q = Query::rel("R").unnest(1);
        let got = eval(&q, &db).unwrap();
        assert_eq!(got, parse_value("{(b, 1)}").unwrap());
    }

    #[test]
    fn unnest_of_non_tuple_elements_substitutes() {
        let db = db_r("{(a, {x, y})}");
        let q = Query::rel("R").unnest(1);
        let got = eval(&q, &db).unwrap();
        assert_eq!(got, parse_value("{(a, x), (a, y)}").unwrap());
    }

    #[test]
    fn nest_errors_on_bad_column() {
        let db = db_r("{(a)}");
        assert!(matches!(
            eval(&Query::rel("R").nest([4]), &db),
            Err(EvalError::BadColumn(4))
        ));
        assert!(matches!(
            eval(&Query::rel("R").unnest(0), &db),
            Err(EvalError::Shape { .. })
        ));
    }

    #[test]
    fn nest_displays() {
        let q = Query::rel("R").nest([0]).unnest(1);
        assert_eq!(q.to_string(), "μ[$2](ν[$1](R))");
    }
}
