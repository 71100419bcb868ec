//! Timeline recorder contention tests.
//!
//! The per-thread rings in `genpar_obs::timeline` promise four things
//! under concurrent writers:
//!
//! 1. **No torn records** — a snapshot taken while writers are mid-slot
//!    either sees a complete record or skips the slot (seqlock).
//! 2. **No duplicated or lost records at quiescence** — after writers
//!    join, every surviving record decodes exactly once.
//! 3. **Exact overwrite accounting** — `dropped` is `written − kept`,
//!    computed, never estimated.
//! 4. **Chrome-loadable export** — the trace exporter emits matched
//!    B/E pairs per lane that a strict JSON parser accepts.
//!
//! Timeline state is process-global, so every test here serializes on
//! one lock and starts from `genpar_obs::reset()`.

use genpar_algebra::Query;
use genpar_engine::workload::generate_edges;
use genpar_engine::Catalog;
use genpar_exec::{eval_query, ExecConfig};
use genpar_obs::timeline::{self, TimelineKind, RING_CAPACITY};
use genpar_obs::Json;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static TL_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    match TL_LOCK.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Enable obs + timeline, clear every ring, and stamp a fresh query id.
///
/// The warmup record pins the process timeline epoch *before* any test
/// thread captures its own `Instant::now()`: instants earlier than the
/// epoch clamp to 0 ns, which would break exact-delta assertions for a
/// writer that races the lazy epoch initialization.
fn arm() -> u64 {
    genpar_obs::set_enabled(true);
    timeline::set_enabled(true);
    let now = Instant::now();
    timeline::record_span("warmup.epoch", now, now);
    genpar_obs::reset();
    timeline::begin_query().0
}

#[test]
fn four_writers_record_without_loss_or_duplication() {
    let _g = lock();
    let qid = arm();
    const PER_THREAD: usize = 1_000; // < RING_CAPACITY: nothing may drop
    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                timeline::set_lane(t as u32 + 1);
                let t0 = Instant::now();
                for i in 0..PER_THREAD {
                    let b = t0 + Duration::from_nanos(i as u64 * 10);
                    timeline::record_span(&format!("contend.t{t}"), b, b + Duration::from_nanos(5));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer thread panicked");
    }
    let snap = timeline::snapshot();
    timeline::set_enabled(false);
    // quiescent rings: every record survives, none duplicated
    for t in 0..4u32 {
        let name = format!("contend.t{t}");
        let mine: Vec<_> = snap.events.iter().filter(|e| e.name == name).collect();
        assert_eq!(
            mine.len(),
            PER_THREAD,
            "lane {t} lost or duplicated records"
        );
        for e in &mine {
            assert_eq!(e.lane, t + 1, "record on the wrong lane");
            assert_eq!(e.query, qid, "record stamped with the wrong query id");
            assert!(e.begin_ns <= e.end_ns, "non-monotone span instants");
            assert_eq!(e.kind, TimelineKind::Span);
        }
    }
    assert!(snap.written >= (4 * PER_THREAD) as u64);
    assert_eq!(snap.dropped, 0, "nothing wrapped, nothing may drop");
}

#[test]
fn overwrite_accounting_is_exact_per_ring() {
    let _g = lock();
    arm();
    // four fresh threads -> four fresh rings, each wrapping a different
    // exact amount
    let extras: [usize; 4] = [0, 1, 257, 1_024];
    let handles: Vec<_> = extras
        .iter()
        .enumerate()
        .map(|(t, &extra)| {
            std::thread::spawn(move || {
                timeline::set_lane(t as u32 + 1);
                let t0 = Instant::now();
                for i in 0..RING_CAPACITY + extra {
                    let b = t0 + Duration::from_nanos(i as u64);
                    timeline::record_span(&format!("wrap.t{t}"), b, b);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer thread panicked");
    }
    let snap = timeline::snapshot();
    timeline::set_enabled(false);
    let total_written: usize = extras.iter().map(|e| RING_CAPACITY + e).sum();
    let total_dropped: usize = extras.iter().sum();
    assert_eq!(snap.written, total_written as u64);
    assert_eq!(snap.dropped, total_dropped as u64, "dropped must be exact");
    // at quiescence every surviving slot decodes: kept == written − dropped
    for (t, _) in extras.iter().enumerate() {
        let name = format!("wrap.t{t}");
        let kept = snap.events.iter().filter(|e| e.name == name).count();
        assert_eq!(kept, RING_CAPACITY, "ring {t} kept the wrong record count");
    }
}

#[test]
fn concurrent_snapshots_never_observe_torn_records() {
    let _g = lock();
    let qid = arm();
    // every span is written with end == begin + 12345ns exactly; a torn
    // read mixing the payloads of two different writes would break it
    const STRIDE: u64 = 12_345;
    const WRITES_PER_THREAD: u64 = 2_000_000;
    let live = Arc::new(AtomicUsize::new(4));
    let writers: Vec<_> = (0..4)
        .map(|t| {
            let live = live.clone();
            std::thread::spawn(move || {
                timeline::set_lane(t as u32 + 1);
                let t0 = Instant::now();
                // bounded, not flag-driven: a panicking snapshot thread
                // must never leave a writer spinning into the next test
                for i in 0..WRITES_PER_THREAD {
                    let b = t0 + Duration::from_nanos(i * 7);
                    timeline::record_span("torn.probe", b, b + Duration::from_nanos(STRIDE));
                }
                live.fetch_sub(1, Ordering::Relaxed);
            })
        })
        .collect();
    // snapshot continuously while the writers hammer their rings
    while live.load(Ordering::Relaxed) > 0 {
        let snap = timeline::snapshot();
        for e in snap.events.iter().filter(|e| e.name == "torn.probe") {
            assert_eq!(
                e.end_ns,
                e.begin_ns + STRIDE,
                "torn record: payload mixes two writes"
            );
            assert!((1..=4).contains(&e.lane), "torn record: impossible lane");
            assert_eq!(e.query, qid, "torn record: impossible query id");
        }
    }
    for w in writers {
        w.join().expect("writer thread panicked");
    }
    timeline::set_enabled(false);
}

/// Parse Chrome trace text and return `(B count, E count)` per tid plus
/// the set of B events' names, asserting structural invariants on the
/// way through.
fn check_chrome_trace(text: &str) -> (Vec<(i128, usize, usize)>, Vec<String>) {
    let doc = Json::parse(text).expect("trace must be strict JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    let mut per_tid: std::collections::BTreeMap<i128, (usize, usize)> = Default::default();
    let mut begin_names = Vec::new();
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph");
        match ph {
            "B" => {
                let tid = ev.get("tid").and_then(|t| t.as_int()).expect("tid");
                per_tid.entry(tid).or_default().0 += 1;
                begin_names.push(
                    ev.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string(),
                );
                // every begin carries its query id
                assert!(
                    ev.get("args")
                        .and_then(|a| a.get("query"))
                        .and_then(|q| q.as_int())
                        .is_some(),
                    "B event without args.query"
                );
            }
            "E" => {
                let tid = ev.get("tid").and_then(|t| t.as_int()).expect("tid");
                per_tid.entry(tid).or_default().1 += 1;
            }
            "i" | "M" => {}
            other => panic!("unexpected trace phase {other:?}"),
        }
    }
    (
        per_tid.iter().map(|(&t, &(b, e))| (t, b, e)).collect(),
        begin_names,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 4-worker executor runs produce a Chrome-loadable trace: strict
    /// JSON, matched B/E counts per lane, at least two fixpoint-round
    /// barriers on a chain graph, and per-worker lanes actually used.
    #[test]
    fn four_worker_trace_is_chrome_loadable_and_balanced(seed in 0u64..100_000) {
        let _g = lock();
        arm();
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = rng.gen_range(8..24);
        let cat = Catalog::new().with(generate_edges(&mut rng, "E", nodes, 0.0, true));
        let q = Query::fixpoint(
            "X",
            Query::rel("E"),
            Query::rel("X").join_on(Query::rel("E"), [(1, 0)]).project(vec![0, 3]),
        );
        let cfg = ExecConfig::serial().with_workers(4).with_morsel_rows(4);
        eval_query(&q, &cat, &cfg).map_err(|e| TestCaseError::Fail(format!("eval: {e}")))?;
        let tl = timeline::snapshot();
        timeline::set_enabled(false);
        prop_assert!(!tl.events.is_empty(), "timeline recorded nothing");
        let text = genpar_obs::trace::chrome_trace_string(&tl);
        let (per_tid, begin_names) = check_chrome_trace(&text);
        for (tid, b, e) in &per_tid {
            prop_assert_eq!(b, e, "unbalanced B/E on tid {}", tid);
        }
        // a chain of n nodes closes in ≥ 2 semi-naive rounds
        let rounds = begin_names.iter().filter(|n| *n == "exec.fixpoint_round").count();
        prop_assert!(rounds >= 2, "expected ≥ 2 fixpoint-round barriers, saw {}", rounds);
    }
}
