//! Set-semantics tables.
//!
//! A table keeps its rows once, as one canonical run: sorted under the
//! derived order on `Value` and deduplicated. A sorted run already is a
//! set, so the executor scans it where it lies and merges two runs in
//! one linear pass.

use crate::schema::Schema;
use genpar_value::Value;

/// A named table: a set of tuples satisfying a schema.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Schema (arity, types, keys).
    pub schema: Schema,
    /// Sorted and deduplicated.
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// An empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
        }
    }

    /// A table of `rows`, built in one pass: sorted, deduplicated, and
    /// its arity and keys checked once.
    ///
    /// # Panics
    /// Panics if a row's arity does not match the schema, or if two
    /// distinct rows agree on a declared key.
    pub fn from_rows(
        name: impl Into<String>,
        schema: Schema,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Table {
        let mut t = Table::new(name, schema);
        t.rows = rows.into_iter().collect();
        for row in &t.rows {
            t.check_arity(row);
        }
        t.rows.sort();
        t.rows.dedup();
        for key in &t.schema.keys {
            let mut kvs: Vec<Vec<&Value>> = t
                .rows
                .iter()
                .map(|r| key.iter().map(|&i| &r[i]).collect())
                .collect();
            kvs.sort();
            if kvs.windows(2).any(|w| w[0] == w[1]) {
                panic!(
                    "key violation on {:?} inserting into {}: duplicate key value",
                    key, t.name
                );
            }
        }
        t
    }

    fn check_arity(&self, row: &[Value]) {
        assert_eq!(
            row.len(),
            self.schema.arity(),
            "row arity {} ≠ schema arity {} for table {}",
            row.len(),
            self.schema.arity(),
            self.name
        );
    }

    /// Insert a row; returns false if it was already present.
    ///
    /// # Panics
    /// Panics if the row arity does not match the schema, or if an
    /// inserted row violates a declared key.
    pub fn insert(&mut self, row: Vec<Value>) -> bool {
        self.check_arity(&row);
        let Err(at) = self.rows.binary_search(&row) else {
            return false;
        };
        for key in &self.schema.keys {
            if self
                .rows
                .iter()
                .any(|r| key.iter().all(|&i| r[i] == row[i]))
            {
                panic!(
                    "key violation on {:?} inserting into {}: duplicate key value",
                    key, self.name
                );
            }
        }
        self.rows.insert(at, row);
        true
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate over rows in sorted order; `rows().as_slice()` borrows
    /// them as one canonical run (sorted, deduplicated) where they lie.
    pub fn rows(&self) -> std::slice::Iter<'_, Vec<Value>> {
        self.rows.iter()
    }

    /// The table as a complex value `{(…), …}` — bridging to the
    /// `genpar-algebra` world.
    pub fn to_value(&self) -> Value {
        Value::set(self.rows.iter().map(|r| Value::Tuple(r.clone())))
    }

    /// Build a table from a complex-value relation, rejecting values that
    /// are not sets of tuples (arity/key violations still panic inside
    /// [`Table::from_rows`], caught at the engine's execution boundary).
    pub fn try_from_value(
        name: impl Into<String>,
        schema: Schema,
        v: &Value,
    ) -> Result<Table, String> {
        let set = v
            .as_set()
            .ok_or_else(|| format!("relation value must be a set, got {v}"))?;
        let rows = set
            .iter()
            .map(|item| {
                item.as_tuple()
                    .map(<[Value]>::to_vec)
                    .ok_or_else(|| format!("relation elements must be tuples, got {item}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Table::from_rows(name, schema, rows))
    }

    /// Build a table from a complex-value relation.
    ///
    /// # Panics
    /// Panics if the value is not a set of tuples of the right arity, or
    /// violates the schema's keys. Use [`Table::try_from_value`] for a
    /// fallible variant.
    pub fn from_value(name: impl Into<String>, schema: Schema, v: &Value) -> Table {
        match Table::try_from_value(name, schema, v) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genpar_value::parse::parse_value;
    use genpar_value::CvType;

    #[test]
    fn insert_and_iterate_sorted() {
        let mut t = Table::new("R", Schema::uniform(CvType::int(), 2));
        t.insert(vec![Value::Int(2), Value::Int(0)]);
        t.insert(vec![Value::Int(1), Value::Int(9)]);
        let rows: Vec<_> = t.rows().collect();
        assert_eq!(rows.len(), 2);
        assert!(rows[0] < rows[1]);
        assert!(!t.is_empty());
    }

    #[test]
    fn key_violation_panics() {
        let mut t = Table::new("R", Schema::uniform(CvType::int(), 2).with_key([0]));
        t.insert(vec![Value::Int(1), Value::Int(10)]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.insert(vec![Value::Int(1), Value::Int(11)])
        }));
        assert!(r.is_err());
        // same full row is a no-op, not a violation
        assert!(!t.insert(vec![Value::Int(1), Value::Int(10)]));
    }

    #[test]
    fn from_rows_sorts_dedups_and_checks_keys_once() {
        let row = |a, b| vec![Value::Int(a), Value::Int(b)];
        let schema = || Schema::uniform(CvType::int(), 2).with_key([0]);
        let t = Table::from_rows("R", schema(), [row(3, 0), row(1, 9), row(3, 0)]);
        assert_eq!(t.rows().as_slice(), [row(1, 9), row(3, 0)]);
        let r =
            std::panic::catch_unwind(|| Table::from_rows("R", schema(), [row(1, 9), row(1, 8)]));
        assert!(r.is_err());
    }

    #[test]
    fn value_roundtrip() {
        let v = parse_value("{(1, 2), (3, 4)}").unwrap();
        let t = Table::from_value("R", Schema::uniform(CvType::int(), 2), &v);
        assert_eq!(t.len(), 2);
        assert_eq!(t.to_value(), v);
    }
}
