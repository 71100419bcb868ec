//! Random workload generators for the optimization benchmarks.

use crate::schema::Schema;
use crate::table::Table;
use genpar_value::{CvType, Value};
use rand::Rng;

/// Parameters of a generated relation.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Number of rows to attempt (duplicates collapse under set
    /// semantics).
    pub rows: usize,
    /// Number of columns.
    pub arity: usize,
    /// Values are drawn from `0..value_range` per column — small ranges
    /// create duplication, which is what makes projection-pushing pay.
    pub value_range: i64,
    /// Declare column 0 as a key and generate unique values for it.
    pub key_on_first: bool,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            rows: 1000,
            arity: 2,
            value_range: 100,
            key_on_first: false,
        }
    }
}

/// Generate a table.
pub fn generate_table<R: Rng + ?Sized>(rng: &mut R, name: &str, spec: WorkloadSpec) -> Table {
    let mut schema = Schema::uniform(CvType::int(), spec.arity);
    if spec.key_on_first {
        schema = schema.with_key([0]);
    }
    let range = spec.value_range.max(1);
    let rows: Vec<Vec<Value>> = if spec.key_on_first {
        // unique keys 0..rows, random payloads
        (0..spec.rows)
            .map(|k| {
                let mut row = vec![Value::Int(k as i64)];
                for _ in 1..spec.arity {
                    row.push(Value::Int(rng.gen_range(0..range)));
                }
                row
            })
            .collect()
    } else {
        // set semantics: duplicates silently collapse
        (0..spec.rows)
            .map(|_| {
                (0..spec.arity)
                    .map(|_| Value::Int(rng.gen_range(0..range)))
                    .collect()
            })
            .collect()
    };
    Table::from_rows(name, schema, rows)
}

/// Generate a pair of tables `R`, `S` sharing a key on column 0 with a
/// controlled overlap fraction — the employees/students shape of
/// Section 4.4 (`π₁` is injective on `R ∪ S`).
pub fn generate_keyed_pair<R: Rng + ?Sized>(
    rng: &mut R,
    rows: usize,
    arity: usize,
    overlap: f64,
) -> (Table, Table) {
    let schema = || Schema::uniform(CvType::int(), arity).with_key([0]);
    let overlap_rows = (rows as f64 * overlap) as usize;
    let payload = |rng: &mut R, k: i64| -> Vec<Value> {
        let mut row = vec![Value::Int(k)];
        for _ in 1..arity {
            row.push(Value::Int(rng.gen_range(0..1000)));
        }
        row
    };
    let mut r_rows = Vec::with_capacity(rows);
    let mut s_rows = Vec::with_capacity(rows);
    for k in 0..rows {
        let row = payload(rng, k as i64);
        if k < overlap_rows {
            // identical row in S (overlap region)
            s_rows.push(row.clone());
        }
        r_rows.push(row);
    }
    for k in rows..(2 * rows - overlap_rows) {
        s_rows.push(payload(rng, k as i64));
    }
    (
        Table::from_rows("R", schema(), r_rows),
        Table::from_rows("S", schema(), s_rows),
    )
}

/// Generate a binary edge relation for fixpoint workloads: `nodes`
/// vertices, each with out-edges to `rng`-chosen targets at the given
/// mean out-degree, plus a Hamiltonian-ish chain `i → i+1` when
/// `chain` is set (guaranteeing a deep transitive closure — the chain
/// forces at least `nodes − 1` semi-naive rounds on its own).
pub fn generate_edges<R: Rng + ?Sized>(
    rng: &mut R,
    name: &str,
    nodes: usize,
    mean_degree: f64,
    chain: bool,
) -> Table {
    let mut rows = Vec::new();
    if chain {
        for i in 0..nodes.saturating_sub(1) {
            rows.push(vec![Value::Int(i as i64), Value::Int(i as i64 + 1)]);
        }
    }
    let extra = (nodes as f64 * mean_degree) as usize;
    for _ in 0..extra {
        let a = rng.gen_range(0..nodes.max(1)) as i64;
        let b = rng.gen_range(0..nodes.max(1)) as i64;
        rows.push(vec![Value::Int(a), Value::Int(b)]);
    }
    Table::from_rows(name, Schema::uniform(CvType::int(), 2), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generate_table_respects_spec() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = generate_table(
            &mut rng,
            "R",
            WorkloadSpec {
                rows: 500,
                arity: 3,
                value_range: 50,
                key_on_first: false,
            },
        );
        assert!(t.len() <= 500);
        assert!(t.len() > 100); // collisions exist but are bounded
        assert!(t.rows().all(|r| r.len() == 3));
    }

    #[test]
    fn keyed_table_has_unique_keys_and_exact_size() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = generate_table(
            &mut rng,
            "R",
            WorkloadSpec {
                rows: 200,
                arity: 2,
                value_range: 5,
                key_on_first: true,
            },
        );
        assert_eq!(t.len(), 200);
        assert!(t.schema.cols_contain_key(&[0]));
    }

    #[test]
    fn keyed_pair_overlap() {
        let mut rng = StdRng::seed_from_u64(3);
        let (r, s) = generate_keyed_pair(&mut rng, 100, 2, 0.3);
        assert_eq!(r.len(), 100);
        assert_eq!(s.len(), 100);
        let rv: std::collections::BTreeSet<_> = r.rows().cloned().collect();
        let overlap = s.rows().filter(|row| rv.contains(*row)).count();
        assert_eq!(overlap, 30);
    }

    #[test]
    fn edge_generator_makes_chains_and_random_edges() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = generate_edges(&mut rng, "E", 20, 0.0, true);
        assert_eq!(t.len(), 19, "pure chain has nodes − 1 edges");
        assert!(t.rows().all(|r| r.len() == 2));
        let t = generate_edges(&mut rng, "E", 50, 2.0, false);
        assert!(t.len() > 20 && t.len() <= 100, "got {}", t.len());
    }

    #[test]
    fn small_value_range_creates_duplication() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = generate_table(
            &mut rng,
            "R",
            WorkloadSpec {
                rows: 1000,
                arity: 1,
                value_range: 10,
                key_on_first: false,
            },
        );
        assert!(t.len() <= 10);
    }
}
