//! Human-readable rendering of complex values, mirroring the paper's
//! notation: tuples `(a, b)`, sets `{…}`, bags `⟅…⟆`, lists `⟨…⟩`.
//!
//! Multisets (sets and bags) render in **canonical order** — the derived
//! total `Ord` on [`Value`] — through the single [`canonical_order`]
//! choke point. Producers that hold rows in arbitrary order (a parallel
//! executor's per-worker partitions, a projection's morsel outputs) go
//! through [`canonical_rows`] / [`rows_to_value`] before anything is
//! rendered or compared, so serial and parallel evaluations of the same
//! query display — and `==` — identically.

use crate::value::Value;
use std::fmt;

/// Sort a multiset's elements into the one canonical display order (the
/// derived total order on [`Value`]). Every multiset rendering in the
/// workspace routes through here; do not iterate a hash-ordered
/// container straight into user output.
pub fn canonical_order<'a>(items: impl IntoIterator<Item = &'a Value>) -> Vec<&'a Value> {
    let mut v: Vec<&Value> = items.into_iter().collect();
    v.sort();
    v
}

/// Canonicalize a multiset of rows under set semantics: sorted by the
/// derived `Ord` on `Vec<Value>`, duplicates removed. The helper that
/// makes a parallel executor's arbitrarily-ordered partition merge
/// byte-identical to the serial evaluator's `BTreeSet` iteration.
pub fn canonical_rows(rows: impl IntoIterator<Item = Vec<Value>>) -> Vec<Vec<Value>> {
    let mut v: Vec<Vec<Value>> = rows.into_iter().collect();
    v.sort();
    v.dedup();
    v
}

/// Wrap rows as the canonical set-of-tuples [`Value`] — the relation
/// shape every evaluator in the workspace reports. Equal multisets of
/// rows produce `Value`-equal (and identically rendered) results no
/// matter what order the rows arrive in.
pub fn rows_to_value(rows: impl IntoIterator<Item = Vec<Value>>) -> Value {
    Value::set(rows.into_iter().map(Value::Tuple))
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Atom(a) => write!(f, "{a}"),
            Value::Tuple(vs) => {
                write!(f, "(")?;
                join(f, vs.iter())?;
                write!(f, ")")
            }
            Value::Set(vs) => {
                write!(f, "{{")?;
                join(f, canonical_order(vs.iter()).into_iter())?;
                write!(f, "}}")
            }
            Value::Bag(vs) => {
                write!(f, "⟅")?;
                let mut first = true;
                for v in canonical_order(vs.keys()) {
                    for _ in 0..vs[v] {
                        if !first {
                            write!(f, ", ")?;
                        }
                        first = false;
                        write!(f, "{v}")?;
                    }
                }
                write!(f, "⟆")
            }
            Value::List(vs) => {
                write!(f, "⟨")?;
                join(f, vs.iter())?;
                write!(f, "⟩")
            }
        }
    }
}

fn join<'a>(f: &mut fmt::Formatter<'_>, items: impl Iterator<Item = &'a Value>) -> fmt::Result {
    for (i, v) in items.enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{v}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_paper_notation() {
        let v = Value::set([
            Value::tuple([Value::atom(0, 0), Value::atom(0, 1)]),
            Value::tuple([Value::atom(0, 1), Value::atom(0, 2)]),
        ]);
        assert_eq!(v.to_string(), "{(a, b), (b, c)}");
    }

    #[test]
    fn renders_lists_and_bags() {
        assert_eq!(
            Value::list([Value::Int(1), Value::Int(2)]).to_string(),
            "⟨1, 2⟩"
        );
        assert_eq!(
            Value::bag([Value::Int(1), Value::Int(1), Value::Int(3)]).to_string(),
            "⟅1, 1, 3⟆"
        );
    }

    #[test]
    fn canonical_rows_sorts_and_dedups() {
        let rows = vec![
            vec![Value::Int(3)],
            vec![Value::Int(1)],
            vec![Value::Int(3)],
            vec![Value::Int(2)],
        ];
        assert_eq!(
            canonical_rows(rows),
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(3)]
            ]
        );
    }

    #[test]
    fn rows_to_value_is_order_insensitive() {
        let a = rows_to_value(vec![vec![Value::Int(2)], vec![Value::Int(1)]]);
        let b = rows_to_value(vec![
            vec![Value::Int(1)],
            vec![Value::Int(2)],
            vec![Value::Int(1)],
        ]);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "{(1), (2)}");
    }

    #[test]
    fn renders_scalars() {
        assert_eq!(Value::Bool(false).to_string(), "false");
        assert_eq!(Value::str("hi").to_string(), "\"hi\"");
        assert_eq!(Value::unit().to_string(), "()");
        assert_eq!(Value::empty_set().to_string(), "{}");
    }
}
