//! ∪, ∩ and − as linear merges of canonical runs: for random pairs of
//! runs — empty sides, equal sides, sides of very different lengths —
//! the set kernel at every worker count and morsel size returns exactly
//! the `BTreeSet` answer. The inputs are scanned from a catalog, so the
//! kernel reads the tables' runs where they lie.

use genpar_engine::plan::PhysicalPlan;
use genpar_engine::schema::{Catalog, Schema};
use genpar_engine::table::Table;
use genpar_exec::{EvalParallel, ExecConfig};
use genpar_value::{CvType, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;

const WORKERS: [usize; 3] = [1, 2, 4];
const MORSELS: [usize; 4] = [1, 16, 64, 1024];

type Row = Vec<Value>;

fn row((a, b): (i64, i64)) -> Row {
    vec![Value::Int(a), Value::Int(b)]
}

/// A left run, and a right run shaped against it: independent, equal,
/// empty, a few rows, or the left run with more rows.
fn sides() -> impl Strategy<Value = (BTreeSet<Row>, BTreeSet<Row>)> {
    let run = |max| proptest::collection::btree_set((0i64..60, 0i64..3).prop_map(row), 0..max);
    (run(120), run(120), run(4), 0usize..5).prop_map(|(l, other, few, shape)| {
        let r = match shape {
            0 => other,
            1 => l.clone(),
            2 => BTreeSet::new(),
            3 => few,
            _ => l.union(&other).cloned().collect(),
        };
        (l, r)
    })
}

fn scan(name: &str) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Scan(name.into()))
}

proptest! {
    #[test]
    fn set_kernels_match_btreeset((l, r) in sides(), swap in any::<bool>()) {
        let (l, r) = if swap { (r, l) } else { (l, r) };
        let table = |name: &str, rows: &BTreeSet<Row>| {
            Table::from_rows(name, Schema::uniform(CvType::int(), 2), rows.iter().cloned())
        };
        let cat = Catalog::new().with(table("L", &l)).with(table("R", &r));
        let cases: [(PhysicalPlan, BTreeSet<Row>); 3] = [
            (PhysicalPlan::Union(scan("L"), scan("R")), l.union(&r).cloned().collect()),
            (PhysicalPlan::Intersect(scan("L"), scan("R")), l.intersection(&r).cloned().collect()),
            (PhysicalPlan::Difference(scan("L"), scan("R")), l.difference(&r).cloned().collect()),
        ];
        for (plan, truth) in &cases {
            let truth: Vec<Row> = truth.iter().cloned().collect();
            for w in WORKERS {
                for m in MORSELS {
                    let cfg = ExecConfig::serial().with_workers(w).with_morsel_rows(m);
                    let (rows, stats) = plan.eval_parallel(&cat, &cfg).expect("set kernel runs");
                    prop_assert_eq!(&rows, &truth, "{} at W={} morsel={}", plan.op_name(), w, m);
                    prop_assert_eq!(stats.rows_processed, (l.len() + r.len()) as u64);
                }
            }
        }
    }
}
