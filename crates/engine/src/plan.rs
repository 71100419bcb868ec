//! Physical plans with work counters, and lowering from algebra queries.
//!
//! The plan is data: `genpar-exec` runs it (inline at one worker, on the
//! morsel pool at more). This module owns its shape, its lowering, its
//! structural fingerprint and the counters and errors of a run.

use genpar_algebra::{Pred, Query, ValueFn};
use genpar_value::Value;
use std::fmt;

/// A physical operator tree.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// Scan a named table.
    Scan(String),
    /// A constant relation.
    Values(Vec<Vec<Value>>),
    /// Filter by a predicate.
    Filter(Pred, Box<PhysicalPlan>),
    /// Project onto columns (deduplicating).
    Project(Vec<usize>, Box<PhysicalPlan>),
    /// Hash equi-join on column pairs.
    HashJoin(Vec<(usize, usize)>, Box<PhysicalPlan>, Box<PhysicalPlan>),
    /// Cartesian product.
    Product(Box<PhysicalPlan>, Box<PhysicalPlan>),
    /// Union (set).
    Union(Box<PhysicalPlan>, Box<PhysicalPlan>),
    /// Intersection (set).
    Intersect(Box<PhysicalPlan>, Box<PhysicalPlan>),
    /// Difference (set).
    Difference(Box<PhysicalPlan>, Box<PhysicalPlan>),
    /// Apply a function to every row (the row is passed as a tuple
    /// value). [`lower`] emits it only for row-shaped functions
    /// ([`ValueFn::row_shaped`]), so the result is a tuple.
    MapRows(ValueFn, Box<PhysicalPlan>),
}

/// Execution work counters — the cost measure the optimizer benchmarks
/// compare (rows that flow through operators, and hash probes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows produced by scans.
    pub rows_scanned: u64,
    /// Rows flowing into operators (work performed).
    pub rows_processed: u64,
    /// Cells flowing into operators (rows × tuple width) — the
    /// byte-proportional cost that reveals when narrowing rewrites pay.
    pub cells_processed: u64,
    /// Rows in the final result.
    pub rows_out: u64,
    /// Hash-table probes in joins.
    pub probes: u64,
    /// The optimizer's predicted `rows_out` for this execution (0 when
    /// no estimate was made). Filled in by callers that run the cost
    /// model — comparing it against `rows_out` gives the misestimate
    /// ratio `profile` reports.
    pub est_rows_out: u64,
}

/// An execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Unknown table.
    UnknownTable(String),
    /// Predicate/function evaluation failed.
    Eval(String),
    /// An interpreted symbol was applied outside its declared domain —
    /// the walker's `EvalError::Domain`, carried whole so every route
    /// reports the same error.
    Domain(genpar_value::DomainError),
    /// An [`genpar_guard::ExecBudget`] cap was crossed; execution stopped
    /// promptly, reporting the work counters accumulated so far.
    Budget {
        /// The exhausted resource.
        resource: genpar_guard::Resource,
        /// The configured cap.
        limit: u64,
        /// Usage at the moment of the breach.
        used: u64,
        /// The operator that crossed the cap.
        op: &'static str,
        /// Work performed before the breach.
        partial: ExecStats,
    },
    /// An injected fault fired (see [`genpar_guard::faultpoint`]).
    Fault(String),
    /// A panic escaped an operator and was converted at the execution
    /// boundary; the payload message is preserved.
    Internal(String),
}

impl ExecError {
    /// Is this a budget breach (as opposed to a semantic error)?
    pub fn is_budget(&self) -> bool {
        matches!(self, ExecError::Budget { .. })
    }

    /// Could re-running the failed work succeed? Only for an injected
    /// fault. Interpretations are defined on their declared domains
    /// (§2.5), so an off-domain application, a bad column or a budget
    /// breach fails the same way on every re-run; a caught panic is a
    /// broken invariant. The executor's retries, requeues and
    /// degradation to the walker all ask this one question.
    pub fn is_transient(&self) -> bool {
        matches!(self, ExecError::Fault(_))
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownTable(n) => write!(f, "unknown table {n}"),
            ExecError::Eval(e) => write!(f, "evaluation failed: {e}"),
            ExecError::Domain(e) => write!(f, "{e}"),
            ExecError::Budget {
                resource,
                limit,
                used,
                op,
                partial,
            } => write!(
                f,
                "budget exceeded: {resource} limit {limit} (used {used}) at {op} \
                 [partial progress: {} scanned, {} processed, {} probes]",
                partial.rows_scanned, partial.rows_processed, partial.probes
            ),
            ExecError::Fault(e) => write!(f, "{e}"),
            ExecError::Internal(e) => write!(f, "internal error: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// FNV-1a, the workspace's standard cheap stable hash (an independent
/// copy — `genpar-exec`'s partitioning hash is private to its morsel
/// module, and the two must be free to evolve separately).
struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    fn new() -> Fnv64 {
        Fnv64(Self::OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

impl PhysicalPlan {
    /// The obs span name of this operator node.
    pub fn op_name(&self) -> &'static str {
        match self {
            PhysicalPlan::Scan(_) => "plan.Scan",
            PhysicalPlan::Values(_) => "plan.Values",
            PhysicalPlan::Filter(..) => "plan.Filter",
            PhysicalPlan::Project(..) => "plan.Project",
            PhysicalPlan::HashJoin(..) => "plan.HashJoin",
            PhysicalPlan::Product(..) => "plan.Product",
            PhysicalPlan::Union(..) => "plan.Union",
            PhysicalPlan::Intersect(..) => "plan.Intersect",
            PhysicalPlan::Difference(..) => "plan.Difference",
            PhysicalPlan::MapRows(..) => "plan.MapRows",
        }
    }

    /// A stable structural fingerprint of this plan node: FNV-1a over the
    /// operator name, its parameters (predicates, columns, join keys), and
    /// the subtree below it. Two plan nodes hash equal exactly when they
    /// denote the same operator shape over the same inputs, so the
    /// fingerprint is a durable key for observed statistics (`STATS.json`)
    /// across processes. `Values` hashes by row count only (a constant
    /// relation's *shape* is its cardinality), and an opaque
    /// `ValueFn::Custom` hashes as `<custom>` — both are deliberate
    /// coarsenings that keep the key stable run-to-run.
    pub fn fingerprint(&self) -> u64 {
        fn feed(p: &PhysicalPlan, s: &mut String) {
            use std::fmt::Write;
            let _ = match p {
                PhysicalPlan::Scan(n) => write!(s, "Scan({n})"),
                PhysicalPlan::Values(rows) => write!(s, "Values({})", rows.len()),
                PhysicalPlan::Filter(pred, a) => {
                    let _ = write!(s, "Filter({pred:?})[");
                    feed(a, s);
                    write!(s, "]")
                }
                PhysicalPlan::Project(cols, a) => {
                    let _ = write!(s, "Project({cols:?})[");
                    feed(a, s);
                    write!(s, "]")
                }
                PhysicalPlan::MapRows(f, a) => {
                    let _ = write!(s, "MapRows({f:?})[");
                    feed(a, s);
                    write!(s, "]")
                }
                PhysicalPlan::HashJoin(on, a, b) => {
                    let _ = write!(s, "HashJoin({on:?})[");
                    feed(a, s);
                    let _ = write!(s, ",");
                    feed(b, s);
                    write!(s, "]")
                }
                PhysicalPlan::Product(a, b)
                | PhysicalPlan::Union(a, b)
                | PhysicalPlan::Intersect(a, b)
                | PhysicalPlan::Difference(a, b) => {
                    let _ = write!(s, "{}[", p.op_name());
                    feed(a, s);
                    let _ = write!(s, ",");
                    feed(b, s);
                    write!(s, "]")
                }
            };
        }
        let mut rendered = String::new();
        feed(self, &mut rendered);
        let mut h = Fnv64::new();
        h.write(rendered.as_bytes());
        h.0
    }

    /// Total number of operators.
    pub fn size(&self) -> usize {
        match self {
            PhysicalPlan::Scan(_) | PhysicalPlan::Values(_) => 1,
            PhysicalPlan::Filter(_, a)
            | PhysicalPlan::Project(_, a)
            | PhysicalPlan::MapRows(_, a) => 1 + a.size(),
            PhysicalPlan::HashJoin(_, a, b)
            | PhysicalPlan::Product(a, b)
            | PhysicalPlan::Union(a, b)
            | PhysicalPlan::Intersect(a, b)
            | PhysicalPlan::Difference(a, b) => 1 + a.size() + b.size(),
        }
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn go(p: &PhysicalPlan, indent: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let pad = "  ".repeat(indent);
            match p {
                PhysicalPlan::Scan(n) => writeln!(f, "{pad}Scan {n}"),
                PhysicalPlan::Values(rows) => writeln!(f, "{pad}Values ({} rows)", rows.len()),
                PhysicalPlan::Filter(p0, a) => {
                    writeln!(f, "{pad}Filter {p0:?}")?;
                    go(a, indent + 1, f)
                }
                PhysicalPlan::Project(cols, a) => {
                    writeln!(f, "{pad}Project {cols:?}")?;
                    go(a, indent + 1, f)
                }
                PhysicalPlan::MapRows(g, a) => {
                    writeln!(f, "{pad}Map {g:?}")?;
                    go(a, indent + 1, f)
                }
                PhysicalPlan::HashJoin(on, a, b) => {
                    writeln!(f, "{pad}HashJoin {on:?}")?;
                    go(a, indent + 1, f)?;
                    go(b, indent + 1, f)
                }
                PhysicalPlan::Product(a, b) => {
                    writeln!(f, "{pad}Product")?;
                    go(a, indent + 1, f)?;
                    go(b, indent + 1, f)
                }
                PhysicalPlan::Union(a, b) => {
                    writeln!(f, "{pad}Union")?;
                    go(a, indent + 1, f)?;
                    go(b, indent + 1, f)
                }
                PhysicalPlan::Intersect(a, b) => {
                    writeln!(f, "{pad}Intersect")?;
                    go(a, indent + 1, f)?;
                    go(b, indent + 1, f)
                }
                PhysicalPlan::Difference(a, b) => {
                    writeln!(f, "{pad}Difference")?;
                    go(a, indent + 1, f)?;
                    go(b, indent + 1, f)
                }
            }
        }
        go(self, 0, f)
    }
}

/// Lower an algebra query to a physical plan. Supports the relational
/// fragment (the operators Section 4.4's rewrites target); complex-value
/// operators, and maps that may emit bare values
/// ([`ValueFn::row_shaped`]), return `None`.
pub fn lower(q: &Query) -> Option<PhysicalPlan> {
    Some(match q {
        Query::Rel(n) => PhysicalPlan::Scan(n.clone()),
        Query::Empty => PhysicalPlan::Values(Vec::new()),
        Query::Lit(Value::Set(items)) => {
            let rows: Option<Vec<Vec<Value>>> = items
                .iter()
                .map(|v| v.as_tuple().map(|t| t.to_vec()))
                .collect();
            PhysicalPlan::Values(rows?)
        }
        Query::Lit(_) => return None,
        Query::Project(cols, inner) => PhysicalPlan::Project(cols.clone(), Box::new(lower(inner)?)),
        Query::Select(p, inner) => PhysicalPlan::Filter(p.clone(), Box::new(lower(inner)?)),
        Query::Product(a, b) => PhysicalPlan::Product(Box::new(lower(a)?), Box::new(lower(b)?)),
        Query::Union(a, b) => PhysicalPlan::Union(Box::new(lower(a)?), Box::new(lower(b)?)),
        Query::Intersect(a, b) => PhysicalPlan::Intersect(Box::new(lower(a)?), Box::new(lower(b)?)),
        Query::Difference(a, b) => {
            PhysicalPlan::Difference(Box::new(lower(a)?), Box::new(lower(b)?))
        }
        Query::Join(on, a, b) => {
            PhysicalPlan::HashJoin(on.clone(), Box::new(lower(a)?), Box::new(lower(b)?))
        }
        Query::Map(f, inner) if f.row_shaped() => {
            PhysicalPlan::MapRows(f.clone(), Box::new(lower(inner)?))
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::Table;
    use genpar_value::CvType;

    #[test]
    fn lowering_rejects_complex_value_ops() {
        assert!(lower(&Query::Powerset(Box::new(Query::rel("R")))).is_none());
        assert!(lower(&Query::Lit(Value::Int(3))).is_none());
    }

    #[test]
    fn lowering_refuses_maps_that_may_emit_bare_values() {
        let lowers = |f: ValueFn| lower(&Query::rel("R").map(f)).is_some();
        assert!(lowers(ValueFn::Cols(vec![1, 0])));
        assert!(lowers(ValueFn::Pair(
            Box::new(ValueFn::Proj(0)),
            Box::new(ValueFn::Interp("succ".into()))
        )));
        assert!(!lowers(ValueFn::Proj(0)));
        assert!(!lowers(ValueFn::Interp("succ".into())));
        assert!(!lowers(ValueFn::custom(|v| v.clone())));
    }

    #[test]
    fn table_from_bad_value_is_rejected() {
        let v = Value::Int(3);
        assert!(Table::try_from_value("R", Schema::uniform(CvType::int(), 1), &v).is_err());
    }

    #[test]
    fn plan_display_and_size() {
        let p = PhysicalPlan::Project(
            vec![0],
            Box::new(PhysicalPlan::Union(
                Box::new(PhysicalPlan::Scan("R".into())),
                Box::new(PhysicalPlan::Scan("S".into())),
            )),
        );
        assert_eq!(p.size(), 4);
        let d = p.to_string();
        assert!(d.contains("Project"), "{d}");
        assert!(d.contains("Scan R"), "{d}");
    }
}
