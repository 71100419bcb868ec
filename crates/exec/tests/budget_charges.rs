//! What a query is charged does not depend on whether its operators
//! read a stored relation where it lies or a copy of it. For `count(R)`,
//! `union(R, S)` and the π⋈ count, on the walker (the one-worker route)
//! and on the two-worker executor, a rows budget and a cells budget each
//! find the same charge, and a limit one below it breaches with the same
//! `used` value and the same partial stats, as pinned below.
//!
//! The charge is the smallest limit the query runs under: for cells the
//! run's total, for rows (a cap per operator) its largest
//! materialization. Either is fixed, so a run fits exactly when its
//! charge does, whatever the order the workers charge in; one below it,
//! the breach is a serial charge on every route.

use genpar_algebra::{Db, Query};
use genpar_engine::schema::{Catalog, Schema};
use genpar_engine::table::Table;
use genpar_exec::{db_from_catalog, ExecConfig};
use genpar_guard::ExecBudget;
use genpar_value::{CvType, Value};

fn catalog() -> Catalog {
    // R's second column meets S's first on about half of R
    let rows = |range: std::ops::Range<i64>, k: i64, m: i64| {
        range
            .map(move |i| vec![Value::Int(i), Value::Int(i * k % m)])
            .collect::<Vec<_>>()
    };
    let schema = || Schema::uniform(CvType::int(), 2);
    Catalog::new()
        .with(Table::from_rows("R", schema(), rows(0..200, 7, 250)))
        .with(Table::from_rows("S", schema(), rows(100..300, 3, 11)))
}

fn queries() -> [(&'static str, Query); 3] {
    let r = || Query::rel("R");
    let s = || Query::rel("S");
    [
        ("count(R)", r().count()),
        ("union(R, S)", r().union(s())),
        (
            "count(pi[$1,$4](join[$2=$1](R, S)))",
            r().join_on(s(), [(1, 0)]).project([0, 3]).count(),
        ),
    ]
}

#[derive(Clone, Copy, Debug)]
enum Route {
    Walker,
    Executor,
}

#[derive(Clone, Copy, Debug)]
enum Cap {
    Rows,
    Cells,
}

/// Run `q` on `route` under a `cap` of `limit`; `Ok(())` or the
/// breach's rendering.
fn run(
    q: &Query,
    route: Route,
    cap: Cap,
    limit: u64,
    cat: &Catalog,
    db: &Db,
) -> Result<(), String> {
    let budget = match cap {
        Cap::Rows => ExecBudget::default().with_max_rows(limit),
        Cap::Cells => ExecBudget::default().with_max_cells(limit),
    };
    let _scope = budget.enter();
    match route {
        Route::Walker => genpar_algebra::eval::eval(q, db)
            .map(drop)
            .map_err(|e| format!("{e:?}")),
        Route::Executor => {
            let cfg = ExecConfig::serial().with_workers(2).with_morsel_rows(64);
            genpar_exec::eval_query(q, cat, &cfg)
                .map(drop)
                .map_err(|e| format!("{e:?}"))
        }
    }
}

/// The total charge (the least limit the run fits under) and the breach
/// one below it.
fn charges(q: &Query, route: Route, cap: Cap, cat: &Catalog, db: &Db) -> (u64, String) {
    let (mut lo, mut hi) = (0u64, 1 << 20);
    assert!(
        run(q, route, cap, hi, cat, db).is_ok(),
        "{q} does not fit {hi}"
    );
    while lo < hi {
        let mid = (lo + hi) / 2;
        match run(q, route, cap, mid, cat, db) {
            Ok(()) => hi = mid,
            Err(_) => lo = mid + 1,
        }
    }
    let breach = run(q, route, cap, lo - 1, cat, db).expect_err("one below the total breaches");
    (lo, breach)
}

#[test]
fn borrowed_scans_are_charged_as_copies_were() {
    let cat = catalog();
    let db = db_from_catalog(&cat);
    let mut got = Vec::new();
    for (name, q) in queries() {
        for route in [Route::Walker, Route::Executor] {
            for cap in [Cap::Rows, Cap::Cells] {
                let (total, breach) = charges(&q, route, cap, &cat, &db);
                got.push(format!("{name} {route:?} {cap:?}: {total}; {breach}"));
            }
        }
    }
    let got = got.join("\n");
    println!("{got}");
    assert_eq!(got, PINNED.trim());
}

const PINNED: &str = r#"
count(R) Walker Rows: 200; BudgetExceeded { resource: Rows, limit: 199, used: 200, op: "alg.Rel", partial: EvalStats { tuples_scanned: 0, tuples_emitted: 0, fn_applications: 0 } }
count(R) Walker Cells: 400; BudgetExceeded { resource: Cells, limit: 399, used: 400, op: "alg.Rel", partial: EvalStats { tuples_scanned: 0, tuples_emitted: 0, fn_applications: 0 } }
count(R) Executor Rows: 200; Budget { resource: Rows, limit: 199, used: 200, op: "plan.Scan", partial: ExecStats { rows_scanned: 200, rows_processed: 0, cells_processed: 0, rows_out: 0, probes: 0, est_rows_out: 0 } }
count(R) Executor Cells: 401; Budget { resource: Cells, limit: 400, used: 401, op: "plan.Count", partial: ExecStats { rows_scanned: 200, rows_processed: 200, cells_processed: 400, rows_out: 0, probes: 0, est_rows_out: 0 } }
union(R, S) Walker Rows: 400; BudgetExceeded { resource: Rows, limit: 399, used: 400, op: "alg.Union", partial: EvalStats { tuples_scanned: 400, tuples_emitted: 400, fn_applications: 0 } }
union(R, S) Walker Cells: 1600; BudgetExceeded { resource: Cells, limit: 1599, used: 1600, op: "alg.Union", partial: EvalStats { tuples_scanned: 400, tuples_emitted: 400, fn_applications: 0 } }
union(R, S) Executor Rows: 400; Budget { resource: Rows, limit: 399, used: 400, op: "plan.Union", partial: ExecStats { rows_scanned: 400, rows_processed: 400, cells_processed: 800, rows_out: 0, probes: 0, est_rows_out: 0 } }
union(R, S) Executor Cells: 1200; Budget { resource: Cells, limit: 1199, used: 1200, op: "plan.Union", partial: ExecStats { rows_scanned: 400, rows_processed: 400, cells_processed: 800, rows_out: 0, probes: 0, est_rows_out: 0 } }
count(pi[$1,$4](join[$2=$1](R, S))) Walker Rows: 200; BudgetExceeded { resource: Rows, limit: 199, used: 200, op: "alg.Rel", partial: EvalStats { tuples_scanned: 0, tuples_emitted: 0, fn_applications: 0 } }
count(pi[$1,$4](join[$2=$1](R, S))) Walker Cells: 1484; BudgetExceeded { resource: Cells, limit: 1483, used: 1484, op: "alg.Project", partial: EvalStats { tuples_scanned: 514, tuples_emitted: 228, fn_applications: 0 } }
count(pi[$1,$4](join[$2=$1](R, S))) Executor Rows: 200; Budget { resource: Rows, limit: 199, used: 200, op: "plan.Scan", partial: ExecStats { rows_scanned: 200, rows_processed: 0, cells_processed: 0, rows_out: 0, probes: 0, est_rows_out: 0 } }
count(pi[$1,$4](join[$2=$1](R, S))) Executor Cells: 1769; Budget { resource: Cells, limit: 1768, used: 1769, op: "plan.Count", partial: ExecStats { rows_scanned: 400, rows_processed: 628, cells_processed: 1484, rows_out: 0, probes: 200, est_rows_out: 0 } }
"#;
