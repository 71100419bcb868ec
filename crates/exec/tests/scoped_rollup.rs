//! The roll-up identity, executable: for random query mixes at 4
//! workers, running every query inside its own obs [`Scope`] and letting
//! the scopes drop leaves the **root** registry with exactly the
//! counters that today's unscoped recording would have produced,
//! counter by counter. This is the invariant that lets the serve layer
//! scope every request without changing what `stats` reports:
//! `sum(child snapshots at drop) + root-direct = root total`.
//!
//! Only counters are compared: span nanoseconds and histogram samples
//! are wall-clock (never identical between passes), and steal events are
//! scheduling-dependent. Counters (`exec.rows_scanned`,
//! `exec.executions`, route/fallback counts, …) are deterministic
//! functions of the query and the data.

use genpar_algebra::{Pred, Query};
use genpar_engine::schema::{Catalog, Schema};
use genpar_engine::table::Table;
use genpar_exec::ExecConfig;
use genpar_obs::Scope;
use genpar_value::{CvType, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Serializes the two recording passes: both record into the process
/// global, so another test interleaving records would corrupt the
/// deltas.
static GLOBAL_OBS: Mutex<()> = Mutex::new(());

fn catalog() -> Catalog {
    let mut r = Table::new("R", Schema::uniform(CvType::int(), 2));
    for i in 0..60 {
        r.insert(vec![Value::Int(i), Value::Int(i % 7)]);
    }
    let mut s = Table::new("S", Schema::uniform(CvType::int(), 2));
    for i in 30..90 {
        s.insert(vec![Value::Int(i), Value::Int(i % 7)]);
    }
    let mut e = Table::new("E", Schema::uniform(CvType::int(), 2));
    for i in 0..12 {
        e.insert(vec![Value::Int(i), Value::Int(i + 1)]);
    }
    Catalog::new().with(r).with(s).with(e)
}

/// The mix candidates: every parallel route (plain partitioned shapes,
/// a combiner aggregate, a per-round fixpoint) plus a fallback query.
fn queries() -> Vec<Query> {
    let tc = Query::fixpoint(
        "X",
        Query::rel("E"),
        Query::rel("X")
            .join_on(Query::rel("E"), [(1, 0)])
            .project([0, 3]),
    );
    vec![
        Query::rel("R").project([0]),
        Query::rel("R").select(Pred::eq_cols(0, 1)),
        Query::rel("R").union(Query::rel("S")),
        Query::rel("R").difference(Query::rel("S")),
        Query::rel("R")
            .join_on(Query::rel("S"), [(1, 1)])
            .project([0, 3]),
        Query::rel("R").count(),
        tc,
    ]
}

fn counters() -> BTreeMap<String, u64> {
    genpar_obs::snapshot().counters
}

/// `after - before`, keeping only counters that moved. `exec.steals` is
/// excluded: how many tasks crossed deques depends on thread scheduling,
/// not on the query — every *deterministic* counter must match exactly.
fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    let mut d = BTreeMap::new();
    for (k, v) in after {
        let moved = v - before.get(k).copied().unwrap_or(0);
        if moved > 0 && k != "exec.steals" {
            d.insert(k.clone(), moved);
        }
    }
    d
}

fn run_mix(catalog: &Catalog, qs: &[Query], mix: &[usize], cfg: &ExecConfig, scoped: bool) {
    for (n, &i) in mix.iter().enumerate() {
        let q = &qs[i % qs.len()];
        if scoped {
            let scope = Scope::for_request(1000 + n as u64, None);
            let guard = scope.enter();
            genpar_exec::eval_query(q, catalog, cfg).expect("scoped eval ok");
            drop(guard);
            drop(scope); // roll up into the root
        } else {
            genpar_exec::eval_query(q, catalog, cfg).expect("unscoped eval ok");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn rollup_identity_holds_for_random_mixes(
        mix in proptest::collection::vec(0usize..7, 1..6),
    ) {
        let _g = match GLOBAL_OBS.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let catalog = catalog();
        let qs = queries();
        // pin the morsel size: the auto-tuner adapts on wall-clock
        // feedback, and a size change between passes would change
        // exec.morsels for reasons unrelated to scoping
        let cfg = ExecConfig::default().with_workers(4).with_morsel_rows(16);

        let before = counters();
        run_mix(&catalog, &qs, &mix, &cfg, false);
        let mid = counters();
        run_mix(&catalog, &qs, &mix, &cfg, true);
        let after = counters();

        let unscoped = delta(&before, &mid);
        let scoped = delta(&mid, &after);
        prop_assert_eq!(
            &unscoped, &scoped,
            "root counters after all scopes dropped must equal unscoped recording (mix {:?})",
            mix
        );
        prop_assert!(!unscoped.is_empty(), "the mix must have recorded something");
    }
}

/// Nested scopes roll up transitively: grandchild → child → root, and a
/// sibling scope's records never leak into another scope's snapshot.
#[test]
fn nested_and_sibling_scopes_stay_disjoint_then_roll_up() {
    let _g = match GLOBAL_OBS.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    let catalog = catalog();
    let cfg = ExecConfig::default().with_workers(4).with_morsel_rows(16);
    let q = Query::rel("R").union(Query::rel("S"));

    let before = counters();
    let a = Scope::for_request(1, None);
    let b = Scope::for_request(2, None);
    {
        let _ga = a.enter();
        genpar_exec::eval_query(&q, &catalog, &cfg).expect("scope-a eval ok");
    }
    {
        let _gb = b.enter();
        genpar_exec::eval_query(&q, &catalog, &cfg).expect("scope-b eval ok");
    }
    // the same filter as `delta`: scheduling-dependent steals out, and
    // counters that never moved (recorded as 0) carry no information
    let strip = |mut c: BTreeMap<String, u64>| {
        c.remove("exec.steals");
        c.retain(|_, v| *v > 0);
        c
    };
    let counters_a = strip(a.snapshot().counters);
    let counters_b = strip(b.snapshot().counters);
    assert_eq!(
        counters_a, counters_b,
        "identical queries in sibling scopes record identical counters"
    );
    assert!(
        counters_a.contains_key("exec.executions"),
        "the scope saw the executor's counters: {counters_a:?}"
    );
    // nothing reached the root while the scopes are alive
    assert_eq!(
        delta(&before, &counters()),
        BTreeMap::new(),
        "scoped records must not leak to the root before drop"
    );
    drop(a);
    drop(b);
    let rolled = delta(&before, &counters());
    let mut expected = counters_a.clone();
    for (k, v) in &counters_b {
        *expected.entry(k.clone()).or_insert(0) += v;
    }
    assert_eq!(
        rolled, expected,
        "root total after drop = sum of child snapshots at drop"
    );
}
