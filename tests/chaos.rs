//! The chaos oracle: random fault storms against the recovery ladder.
//!
//! Each case draws a random database, a random query covering every
//! executor route (plain partition, combiner, per-round fixpoint), a
//! random worker count (one included: the ladder then runs inline) and
//! morsel size, and a random *storm* — one to
//! three fault sites armed at once, each either nth-hit (the retry rung
//! must absorb it) or persistent (the ladder must walk retry →
//! quarantine → walker fallback). The contract under storm is the same
//! as the clean differential oracle's: the answer is byte-identical to
//! the algebra walker's (the serial truth), and the executor never errors
//! and never panics. A second block drills the crash-safe persistence
//! layer: injected write faults must leave the previous file intact,
//! and torn files must be quarantined and regenerated, never trusted.
//!
//! Everything is seed-deterministic; a failing case prints its seed so
//! `cargo test -q --test chaos` (or `genpar chaos --seed N`) reproduces
//! it exactly.

use genpar_algebra::{Pred, Query, ValueFn};
use genpar_engine::workload::{generate_edges, generate_table, WorkloadSpec};
use genpar_engine::Catalog;
use genpar_exec::{db_from_catalog, eval_query, ExecConfig};
use genpar_optimizer::persist;
use genpar_optimizer::StatsStore;
use genpar_value::Value;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard};

/// The fault table is process-global; every test that arms it holds
/// this lock so storms and drills never see each other's faults.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_lock() -> MutexGuard<'static, ()> {
    match FAULT_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Every fault site a storm may arm — the recovery ladder plus the
/// bytecode VM's engage gate (whose rung is degradation to the AST
/// walker rather than retry).
const SITES: &[&str] = &[
    "exec.morsel",
    "exec.merge",
    "exec.fixpoint_round",
    "exec.combine",
    "exec.retry",
    "vm.exec",
];

/// A random query drawing from every parallel route.
fn random_query(rng: &mut StdRng) -> Query {
    let r = || Query::rel("R");
    let s = || Query::rel("S");
    let x = || Query::rel("X");
    let e = || Query::rel("E");
    match rng.gen_range(0..11) {
        0 => r().project(vec![rng.gen_range(0..2usize)]),
        1 => r().select(Pred::eq_cols(0, 1)),
        2 => r().union(s()),
        3 => r().difference(s()),
        4 => r().join_on(s(), [(0, 0)]).project(vec![0, 1, 3]),
        5 => r().count(),
        6 => r().sum(rng.gen_range(0..2usize)),
        7 => Query::Even(Box::new(r().union(s()))),
        // VM-compiled σ/map kernels — a `vm.exec` arm degrades these to
        // the AST walker mid-plan
        8 => r()
            .union(s())
            .select(Pred::Named("even".into(), vec![rng.gen_range(0..2)])),
        9 => r().map(ValueFn::Cols(vec![1, 0])),
        _ => Query::fixpoint("X", e(), x().join_on(e(), [(1, 0)]).project(vec![0, 3])),
    }
}

fn random_catalog(rng: &mut StdRng) -> Catalog {
    let spec = |rows| WorkloadSpec {
        rows,
        arity: 2,
        value_range: 9,
        key_on_first: false,
    };
    let r_rows = rng.gen_range(5..150);
    let s_rows = rng.gen_range(5..100);
    let r = generate_table(rng, "R", spec(r_rows));
    let s = generate_table(rng, "S", spec(s_rows));
    let nodes = rng.gen_range(2..12);
    let chain = rng.gen_bool(0.5);
    let e = generate_edges(rng, "E", nodes, 1.0, chain);
    Catalog::new().with(r).with(s).with(e)
}

/// A random storm spec: 1–3 sites, nth-hit or persistent.
fn random_storm(rng: &mut StdRng) -> String {
    let n = rng.gen_range(1..4usize);
    let mut parts = Vec::with_capacity(n);
    for _ in 0..n {
        let site = SITES[rng.gen_range(0..SITES.len())];
        if rng.gen_bool(0.3) {
            parts.push(format!("{site}:*"));
        } else {
            parts.push(format!("{site}:{}", rng.gen_range(1..6)));
        }
    }
    parts.join(",")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The storm oracle: under any random fault storm, every executor
    /// configuration still reproduces the walker's answer,
    /// byte-identical — recovered in place or degraded to the walker,
    /// never wrong and never an error.
    #[test]
    fn chaos_storms_preserve_serial_answers(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cat = random_catalog(&mut rng);
        let q = random_query(&mut rng);
        // truth on the walker, which passes no exec.* site even if
        // another case is armed
        let truth = genpar_algebra::eval::eval(&q, &db_from_catalog(&cat))
            .map_err(|e| TestCaseError::Fail(format!("walker eval failed on {q}: {e}")))?;
        let truth_bytes = truth.to_string();
        let storm = random_storm(&mut rng);
        let workers: usize = [1, 2, 4][rng.gen_range(0..3usize)];
        let morsel = rng.gen_range(4..64usize);
        let _g = fault_lock();
        genpar_guard::arm_faults(&storm)
            .map_err(|e| TestCaseError::Fail(format!("arm_faults({storm}): {e}")))?;
        let cfg = ExecConfig::serial()
            .with_workers(workers)
            .with_morsel_rows(morsel);
        let verdict = eval_query(&q, &cat, &cfg);
        genpar_guard::disarm_faults();
        match verdict {
            Ok((v, _, route)) => {
                prop_assert_eq!(
                    v.to_string(),
                    truth_bytes,
                    "answer diverged under storm {:?} on {} (w={}, m={}, route={:?}, seed={})",
                    storm, q, workers, morsel, route, seed
                );
            }
            Err(e) => {
                return Err(TestCaseError::Fail(format!(
                    "the ladder must degrade, never error: storm {storm:?} on {q} \
                     (w={workers}, m={morsel}, seed={seed}) returned {e}"
                )));
            }
        }
    }
}

/// The persistence drill: a faulted save must leave the previous file
/// intact; a torn file must be quarantined to `<name>.corrupt` and the
/// store regenerated — never a panic, never silently trusted bytes.
#[test]
fn chaos_torn_writes_quarantine_and_regenerate() {
    let dir = std::env::temp_dir().join(format!("genpar-chaos-oracle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("STATS.json");
    let p = path.to_str().unwrap();

    // a healthy generation survives a faulted re-save untouched
    let mut store = StatsStore::new();
    for fp in 0..4u64 {
        store
            .catalog_mut("drill")
            .observe(fp, "plan.Filter", 200, 20);
    }
    store.save(p).expect("clean save");
    let faulted = {
        let _g = fault_lock();
        genpar_guard::arm_faults("io.persist:1").unwrap();
        let faulted = store.save(p);
        genpar_guard::disarm_faults();
        faulted
    };
    assert!(faulted.is_err(), "injected io.persist fault must surface");
    let (reloaded, warning) = StatsStore::load_or_quarantine(p);
    assert!(
        warning.is_none(),
        "previous file must still verify: {warning:?}"
    );
    assert!(!reloaded.catalogs.is_empty(), "previous generation intact");

    // tearing the payload anywhere breaks the checksum: quarantine +
    // regenerate, and the torn bytes are preserved for post-mortem
    let text = std::fs::read_to_string(&path).unwrap();
    for cut in [text.len() / 3, text.len() / 2, text.len() - 2] {
        std::fs::write(&path, &text[..cut]).unwrap();
        let corrupt = format!("{p}.corrupt");
        let _ = std::fs::remove_file(&corrupt);
        let (fresh, warning) = StatsStore::load_or_quarantine(p);
        let w = warning.unwrap_or_else(|| panic!("torn at {cut} must warn"));
        assert!(w.contains("quarantined"), "{w}");
        assert!(fresh.catalogs.is_empty(), "regenerated store starts fresh");
        assert!(
            std::path::Path::new(&corrupt).exists(),
            "torn bytes preserved at {corrupt}"
        );
        assert!(!path.exists(), "torn file moved aside");
        // restore a healthy file for the next cut
        store.save(p).expect("re-save after quarantine");
    }

    // flipped payload bytes (not just truncation) are caught too
    let healthy = std::fs::read_to_string(&path).unwrap();
    let flipped = healthy.replacen("plan.Filter", "plan.FiXter", 1);
    assert_ne!(healthy, flipped, "fixture edit must change the payload");
    std::fs::write(&path, flipped).unwrap();
    let (_, warning) = StatsStore::load_or_quarantine(p);
    assert!(warning.is_some(), "bit-flip must fail the checksum");

    // round-trip sanity on the seal itself
    let sealed = persist::seal("{\"k\": 1}\n");
    assert!(sealed.starts_with(persist::CHECKSUM_MAGIC));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Storms must leave no residue: after a full run the fault table is
/// disarmed and a clean differential pass still holds.
#[test]
fn chaos_leaves_the_process_clean() {
    let mut rng = StdRng::seed_from_u64(0xc0ffee);
    let cat = random_catalog(&mut rng);
    let q = Query::rel("R").union(Query::rel("S"));
    let truth = genpar_algebra::eval::eval(&q, &db_from_catalog(&cat)).unwrap();
    let cfg = ExecConfig::serial().with_workers(4);
    let (v, _, _) = eval_query(&q, &cat, &cfg).unwrap();
    assert_eq!(v, truth);
    let _ = Value::Int(0); // keep the import honest under cfg changes
}
