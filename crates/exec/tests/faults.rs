//! Fault injection and budget governance on the executor, at one worker
//! (the recovery ladder runs inline) and at several.
//!
//! Fault arming is process-global, so every test here holds one mutex
//! for its whole body and disarms before releasing it — they cannot
//! interleave with each other, and they live in their own test binary
//! so they cannot poison the parity tests either. Each test records its
//! events in a private obs scope rather than resetting the global
//! registry, and takes its truth from the algebra walker, which passes
//! no `exec.*` fault site.

use genpar_algebra::{Pred, Query};
use genpar_engine::plan::{lower, ExecError};
use genpar_engine::schema::{Catalog, Schema};
use genpar_engine::table::Table;
use genpar_exec::{db_from_catalog, EvalParallel, ExecConfig, ExecRoute};
use genpar_obs::Snapshot;
use genpar_value::{rows_to_value, CvType, Value};
use std::sync::{Mutex, MutexGuard};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    match FAULT_LOCK.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn catalog() -> Catalog {
    let mut r = Table::new("R", Schema::uniform(CvType::int(), 2));
    for i in 0..100 {
        r.insert(vec![Value::Int(i), Value::Int(i % 7)]);
    }
    let mut s = Table::new("S", Schema::uniform(CvType::int(), 2));
    for i in 50..150 {
        s.insert(vec![Value::Int(i), Value::Int(i % 7)]);
    }
    Catalog::new().with(r).with(s)
}

fn join_query() -> Query {
    Query::rel("R")
        .join_on(Query::rel("S"), [(0, 0)])
        .select(Pred::eq_cols(1, 3))
        .project([0, 1])
}

/// The walker's answer: the serial truth.
fn truth(q: &Query, c: &Catalog) -> Value {
    genpar_algebra::eval::eval(q, &db_from_catalog(c)).expect("walker eval ok")
}

fn cfg(workers: usize, morsel_rows: usize) -> ExecConfig {
    ExecConfig::serial()
        .with_workers(workers)
        .with_morsel_rows(morsel_rows)
}

/// Run `f` with `spec` armed and a private obs scope entered; returns
/// the result and the scope's snapshot. Always disarms. The caller
/// holds [`lock`].
fn armed<T>(spec: &str, f: impl FnOnce() -> T) -> (T, Snapshot) {
    genpar_guard::arm_faults(spec).expect("valid fault spec");
    let scope = genpar_obs::Scope::anonymous();
    let guard = scope.enter();
    let out = f();
    drop(guard);
    genpar_guard::disarm_faults();
    (out, scope.snapshot())
}

fn has_event(snap: &Snapshot, kind: &str) -> bool {
    snap.events.iter().any(|e| e.kind == kind)
}

#[test]
fn single_morsel_fault_recovers_in_place() {
    // the ladder's first rung: one injected morsel fault is retried on
    // the same worker and the plan-level run succeeds with the exact
    // fault-free answer — no error, no fallback needed
    let _g = lock();
    let c = catalog();
    let q = join_query();
    let plan = lower(&q).unwrap();
    for w in [1, 4] {
        let (rows, snap) = armed("exec.morsel:1", || {
            plan.eval_parallel(&c, &cfg(w, 16)).expect("retried").0
        });
        assert_eq!(
            rows_to_value(rows),
            truth(&q, &c),
            "retried answer at {w} workers"
        );
        assert!(
            has_event(&snap, "exec.retry"),
            "exec.retry recorded at {w} workers"
        );
        assert!(
            !has_event(&snap, "exec.fallback"),
            "recovery must happen on the executor, not via fallback"
        );
    }
}

#[test]
fn persistent_morsel_fault_surfaces_as_structured_error() {
    // `exec.morsel:*` faults every passage: retries, requeue and the
    // completion sweep all fail, so the plan-level API reports the
    // structured fault (the query-level route degrades it to the walker)
    let _g = lock();
    let c = catalog();
    let plan = lower(&join_query()).unwrap();
    for w in [1, 4] {
        let (err, _) = armed("exec.morsel:*", || plan.eval_parallel(&c, &cfg(w, 16)));
        match err.unwrap_err() {
            ExecError::Fault(msg) => assert!(msg.contains("exec.morsel"), "{msg}"),
            other => panic!("expected Fault at {w} workers, got {other:?}"),
        }
        // disarmed: the same plan now succeeds
        assert!(plan.eval_parallel(&c, &cfg(w, 16)).is_ok());
    }
}

#[test]
fn persistent_merge_fault_surfaces_as_structured_error() {
    let _g = lock();
    let c = catalog();
    let plan = lower(&join_query()).unwrap();
    for w in [1, 4] {
        let (err, _) = armed("exec.merge:*", || plan.eval_parallel(&c, &cfg(w, 16)));
        match err.unwrap_err() {
            ExecError::Fault(msg) => assert!(msg.contains("exec.merge"), "{msg}"),
            other => panic!("expected Fault at {w} workers, got {other:?}"),
        }
    }
}

#[test]
fn nth_hit_fault_recovers_and_earlier_morsels_pass() {
    let _g = lock();
    let c = catalog();
    let q = Query::rel("R").select(Pred::True);
    let plan = lower(&q).unwrap();
    for w in [1, 2] {
        // 100 rows at 10/morsel = 10 morsels; the 7th passage faults once
        // and is retried — the run completes with the clean answer
        let (rows, _) = armed("exec.morsel:7", || plan.eval_parallel(&c, &cfg(w, 10)));
        assert_eq!(rows_to_value(rows.expect("retried").0), truth(&q, &c));
    }
}

#[test]
fn fixpoint_round_fault_retries_then_exhaustion_degrades_to_serial() {
    let _g = lock();
    let mut e = Table::new("E", Schema::uniform(CvType::int(), 2));
    for i in 0..20 {
        e.insert(vec![Value::Int(i), Value::Int(i + 1)]);
    }
    let c = Catalog::new().with(e);
    let step = Query::rel("X")
        .join_on(Query::rel("E"), [(1, 0)])
        .project([0, 3]);
    let q = Query::fixpoint("X", Query::rel("E"), step);
    let expected = truth(&q, &c);
    for w in [1, 4] {
        let cfg = cfg(w, 8);
        // nth-hit faults: the round is re-run in place and the query
        // stays on the executor route with the exact answer
        for nth in [1, 3] {
            let spec = format!("exec.fixpoint_round:{nth}");
            let (out, snap) = armed(&spec, || genpar_exec::eval_query(&q, &c, &cfg));
            let (v, _, route) = out.expect("round retry must recover");
            assert!(
                matches!(route, ExecRoute::Parallel { .. }),
                "expected in-place round retry at {spec}, {w} workers, got {route:?}"
            );
            assert_eq!(v, expected, "retried answer must equal serial at {spec}");
            assert!(has_event(&snap, "exec.retry"), "exec.retry event at {spec}");
        }
        // a persistent fault exhausts the retries — the last rung
        // degrades the whole query to the walker, never a wrong answer
        let (out, snap) = armed("exec.fixpoint_round:*", || {
            genpar_exec::eval_query(&q, &c, &cfg)
        });
        let (v, _, route) = out.expect("exhaustion must degrade, not error");
        assert!(
            matches!(route, ExecRoute::Fallback { op: "fix", .. }),
            "expected degradation on persistent fault at {w} workers, got {route:?}"
        );
        assert_eq!(v, expected, "degraded answer must equal serial");
        assert!(has_event(&snap, "exec.fallback"));
        assert!(
            has_event(&snap, "exec.degrade_step"),
            "the ladder records which rung fired"
        );
        // disarmed: the same query takes the executor route again
        let (v, _, route) = genpar_exec::eval_query(&q, &c, &cfg).expect("ok");
        assert!(matches!(route, ExecRoute::Parallel { .. }));
        assert_eq!(v, expected);
    }
}

#[test]
fn combine_fault_degrades_to_serial_with_correct_answer() {
    let _g = lock();
    let c = catalog();
    for q in [
        Query::Even(Box::new(Query::rel("R"))),
        Query::rel("R").count(),
        Query::rel("R").sum(1),
    ] {
        let expected = truth(&q, &c);
        for w in [1, 4] {
            let cfg = cfg(w, 16);
            let (out, snap) = armed("exec.combine:1", || genpar_exec::eval_query(&q, &c, &cfg));
            let (v, _, route) = out.expect("fault must degrade, not error");
            assert!(
                matches!(route, ExecRoute::Fallback { .. }),
                "expected degradation for {q} at {w} workers, got {route:?}"
            );
            assert_eq!(v, expected, "degraded answer must equal serial for {q}");
            assert!(
                has_event(&snap, "exec.fallback"),
                "exec.fallback event recorded for {q}"
            );
            // disarmed: combiner route resumes and agrees
            let (v2, _, route2) = genpar_exec::eval_query(&q, &c, &cfg).expect("ok");
            assert!(matches!(route2, ExecRoute::Parallel { .. }));
            assert_eq!(v2, expected);
        }
    }
}

#[test]
fn morsel_fault_inside_combiner_or_fixpoint_degrades_not_errors() {
    // exec.morsel faults inside the dedicated routes climb the same
    // ladder: an nth-hit fault is retried in place (route stays on the
    // executor); a persistent fault degrades to the walker — the
    // whole-query answer is never wrong and never an error
    let _g = lock();
    let c = catalog();
    let q = Query::rel("R").count();
    let expected = truth(&q, &c);
    for w in [1, 4] {
        let cfg = cfg(w, 16);
        let (out, _) = armed("exec.morsel:2", || genpar_exec::eval_query(&q, &c, &cfg));
        let (v, _, route) = out.expect("retry must recover");
        assert!(matches!(route, ExecRoute::Parallel { .. }));
        assert_eq!(v, expected);
        let (out, snap) = armed("exec.morsel:*", || genpar_exec::eval_query(&q, &c, &cfg));
        let (v, _, route) = out.expect("exhaustion must degrade, not error");
        assert!(matches!(route, ExecRoute::Fallback { .. }));
        assert_eq!(v, expected);
        assert_eq!(snap.counters.get("exec.degrade_step.serial"), Some(&1));
    }
}

#[test]
fn shared_budget_caps_parallel_run() {
    let _g = lock();
    let c = catalog();
    // the product of 100 × 100 rows blows a 2k-step budget across all
    // workers together — the shared meter is one pool, not per-worker
    let plan = lower(&Query::rel("R").product(Query::rel("S"))).unwrap();
    for w in [1, 4] {
        let scope = genpar_guard::ExecBudget::default()
            .with_max_steps(2_000)
            .enter();
        let err = plan.eval_parallel(&c, &cfg(w, 8)).unwrap_err();
        drop(scope);
        match err {
            ExecError::Budget { resource, .. } => {
                assert_eq!(resource, genpar_guard::Resource::Steps);
            }
            other => panic!("expected Budget at {w} workers, got {other:?}"),
        }
        // without the budget the same plan completes
        assert!(plan.eval_parallel(&c, &cfg(w, 8)).is_ok());
    }
}

/// A wall deadline armed on the calling thread binds a two-worker run:
/// the executor charges the armed meter, deadline included.
#[test]
fn wall_deadline_binds_the_parallel_route() {
    let _g = lock();
    let c = catalog();
    let q = Query::rel("R").product(Query::rel("S"));
    let scope = genpar_guard::arm_wall_deadline(std::time::Duration::ZERO);
    std::thread::sleep(std::time::Duration::from_millis(2));
    let err = genpar_exec::eval_query(&q, &c, &cfg(2, 8)).unwrap_err();
    drop(scope);
    match err {
        ExecError::Budget { resource, .. } => {
            assert_eq!(resource, genpar_guard::Resource::Wall);
        }
        other => panic!("expected a wall_ms breach, got {other:?}"),
    }
}

#[test]
fn rows_cap_fires_on_parallel_output() {
    let _g = lock();
    let c = catalog();
    let plan = lower(&Query::rel("R")).unwrap();
    for w in [1, 4] {
        let scope = genpar_guard::ExecBudget::default()
            .with_max_rows(10)
            .enter();
        let err = plan.eval_parallel(&c, &cfg(w, 8)).unwrap_err();
        drop(scope);
        assert!(err.is_budget(), "{err:?}");
        assert!(err.to_string().contains("rows limit 10"), "{err}");
    }
}

/// A relation of atoms, on which `even` is undefined (§2.5).
fn atoms() -> Table {
    let mut a = Table::new("A", Schema::uniform(CvType::domain(0), 1));
    for i in 0..40 {
        a.insert(vec![Value::atom(0, i)]);
    }
    a
}

fn no_recovery_trail(snap: &Snapshot) -> bool {
    !has_event(snap, "exec.retry")
        && !has_event(snap, "exec.quarantine")
        && !snap
            .counters
            .keys()
            .any(|k| k.starts_with("exec.degrade_step."))
}

/// Only an injected fault is worth a re-run. An off-domain application
/// and a budget breach fail the same way on every re-run, so with the
/// recovery ladder armed they return their error at once: no retry, no
/// requeue, no degrade step. With one morsel the armed `exec.morsel:2`
/// never fires; with many, no fault is armed and the explicit policy
/// alone would have armed the ladder.
#[test]
fn deterministic_errors_are_not_retried() {
    let _g = lock();
    let c = catalog().with(atoms());
    let ill_typed = Query::rel("A").select(Pred::Named("even".into(), vec![0]));
    let scan = Query::rel("R").select(Pred::True);
    for w in [2, 4] {
        for (spec, morsel) in [("exec.morsel:2", 1024), ("", 8)] {
            let mut cfg = cfg(w, morsel);
            cfg.retry = genpar_guard::RetryPolicy { max_retries: 2 };
            let run = |q: &Query| {
                if spec.is_empty() {
                    let scope = genpar_obs::Scope::anonymous();
                    let guard = scope.enter();
                    let out = genpar_exec::eval_query(q, &c, &cfg);
                    drop(guard);
                    (out, scope.snapshot())
                } else {
                    armed(spec, || genpar_exec::eval_query(q, &c, &cfg))
                }
            };
            let (out, snap) = run(&ill_typed);
            match out {
                Err(ExecError::Domain(d)) => assert_eq!(d.symbol, "even"),
                other => panic!("expected the domain error at {w} workers, got {other:?}"),
            }
            assert!(
                no_recovery_trail(&snap),
                "{spec:?} at {w} workers: {snap:?}"
            );
            let budget = genpar_guard::ExecBudget::default()
                .with_max_cells(10)
                .enter();
            let (out, snap) = run(&scan);
            drop(budget);
            assert!(
                out.as_ref().is_err_and(ExecError::is_budget),
                "expected a budget breach at {w} workers, got {out:?}"
            );
            assert!(
                no_recovery_trail(&snap),
                "{spec:?} at {w} workers: {snap:?}"
            );
        }
    }
}

/// The retry gate is itself a fault site: a fault there abandons the
/// in-place rung, and the requeued task succeeds on its next passage.
#[test]
fn retry_gate_fault_escalates_to_requeue() {
    let _g = lock();
    let c = catalog();
    let q = Query::rel("R").select(Pred::True);
    let plan = lower(&q).unwrap();
    let (rows, snap) = armed("exec.morsel:1,exec.retry:*", || {
        plan.eval_parallel(&c, &cfg(4, 16))
    });
    assert_eq!(rows_to_value(rows.expect("requeued").0), truth(&q, &c));
    assert!(!has_event(&snap, "exec.retry"), "the gate faulted first");
}
