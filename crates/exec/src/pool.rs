//! A work-stealing worker pool over scoped threads, with the
//! fault-recovery ladder always armed.
//!
//! Tasks (morsel or partition closures) are distributed round-robin onto
//! per-worker deques; each worker pops its own deque from the back
//! (LIFO, cache-warm) and steals from other workers' fronts (FIFO, the
//! oldest — largest remaining — work) when its own runs dry. Workers
//! record `exec.worker` obs spans and `exec.morsels` / `exec.steals`
//! counters.
//!
//! Tasks **borrow** their items: task `i` runs on `&items[i]`, and the
//! item never leaves its place, so a failed task re-runs from the same
//! item with no copy. Which failures are worth a re-run is one rule,
//! [`ExecError::is_transient`]: only an injected fault is. A transient
//! failure is first retried **in place** on the same worker (up to the
//! [`RetryPolicy`]'s count, each re-run passing [`crate::retry_gate`] —
//! the `exec.retry` fault site); when retries exhaust, the worker takes
//! a strike and the task is requeued once for another worker to absorb.
//! A worker with repeated strikes is **quarantined** out of the deque
//! set for the rest of the run (`exec.quarantine` event +
//! `exec.degrade_step.quarantine` counter) — unless it is the last
//! active worker, which must keep draining. A task that fails again
//! after requeue is the ladder's end within the pool: its error cancels
//! the run (the route above degrades whole-serial). Any other error — a
//! domain error, a bad column, a budget breach — fails the same way on
//! every re-run, so its first occurrence cancels the run. After the
//! workers join, any task stranded by a quarantine is finished serially
//! on the caller's thread, so no morsel is ever silently dropped.
//!
//! Results come back **in task order**, independent of which worker ran
//! what — the first half of the determinism argument (the second half is
//! the canonical merge in `kernels`).

use genpar_engine::plan::ExecError;
use genpar_guard::RetryPolicy;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Strikes (tasks failed past their in-place retries) before a worker is
/// quarantined out of the pool.
const QUARANTINE_STRIKES: u32 = 2;

/// Times a failed task is handed to the pool again before its error
/// cancels the run (in-place retries happen *within* each passage).
const MAX_REQUEUES: u32 = 1;

/// A bounded pool of worker slots shared by every parallel run in the
/// process. A resident server installs one at startup
/// ([`install_worker_governor`]) so concurrent queries *borrow* workers
/// from a single pool instead of each spawning its own full complement —
/// queries become morsel sources, not pool owners. With no governor
/// installed (the one-shot CLI), every request is granted in full and
/// nothing changes.
struct Governor {
    available: AtomicUsize,
    total: usize,
}

impl Governor {
    /// Take up to `want` slots (lock-free; a fully drained pool grants
    /// zero and the caller runs inline on its own thread).
    fn take(&self, want: usize) -> usize {
        let mut avail = self.available.load(Ordering::Acquire);
        loop {
            let take = want.min(avail);
            if take == 0 {
                return 0;
            }
            match self.available.compare_exchange_weak(
                avail,
                avail - take,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return take,
                Err(a) => avail = a,
            }
        }
    }

    fn put(&self, n: usize) {
        self.available.fetch_add(n, Ordering::AcqRel);
    }
}

static GOVERNOR: std::sync::OnceLock<Governor> = std::sync::OnceLock::new();

/// Install the process-wide worker-slot pool (`total` slots, min 1).
/// First installation wins and is permanent for the process; returns
/// `false` if one was already installed.
pub fn install_worker_governor(total: usize) -> bool {
    let total = total.max(1);
    GOVERNOR
        .set(Governor {
            available: AtomicUsize::new(total),
            total,
        })
        .is_ok()
}

/// `(available, total)` slots of the installed governor, if any.
pub fn worker_governor_stats() -> Option<(usize, usize)> {
    GOVERNOR
        .get()
        .map(|g| (g.available.load(Ordering::Relaxed), g.total))
}

/// RAII permit over slots borrowed from the installed governor.
/// `borrowed` distinguishes a real loan from the ungoverned full grant,
/// so slots are only ever returned to a pool they came from.
struct Permit {
    granted: usize,
    borrowed: bool,
}

impl Drop for Permit {
    fn drop(&mut self) {
        if self.borrowed {
            if let Some(g) = GOVERNOR.get() {
                g.put(self.granted);
                genpar_obs::gauge(
                    "exec.pool.available",
                    g.available.load(Ordering::Relaxed) as i64,
                );
            }
        }
    }
}

fn acquire_workers(want: usize) -> Permit {
    let Some(g) = GOVERNOR.get() else {
        return Permit {
            granted: want,
            borrowed: false,
        };
    };
    let take = g.take(want);
    if take == 0 {
        genpar_obs::counter("exec.pool.starved", 1);
        return Permit {
            granted: 0,
            borrowed: false,
        };
    }
    if take < want {
        genpar_obs::counter("exec.pool.trimmed", 1);
    }
    genpar_obs::gauge(
        "exec.pool.available",
        g.available.load(Ordering::Relaxed) as i64,
    );
    Permit {
        granted: take,
        borrowed: true,
    }
}

/// Lock a mutex, recovering from poisoning (a panicking worker must not
/// wedge the pool — panics are converted at the executor boundary).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn pop_own(deques: &[Mutex<VecDeque<usize>>], wid: usize) -> Option<usize> {
    lock(&deques[wid]).pop_back()
}

fn steal(deques: &[Mutex<VecDeque<usize>>], wid: usize, steals: &mut u64) -> Option<usize> {
    for (i, d) in deques.iter().enumerate() {
        if i == wid {
            continue;
        }
        if let Some(idx) = lock(d).pop_front() {
            *steals += 1;
            return Some(idx);
        }
    }
    None
}

/// Run `f` over every item on `workers` threads; results in item order.
///
/// Each task is one *passage*: an attempt plus up to
/// `retry.max_retries` in-place re-runs of a transient failure. A task
/// whose passage fails transiently is requeued once (not at all under a
/// zero-retry policy); any other failure, or a second failed passage,
/// cancels outstanding work and is returned. With `workers <= 1` (or at
/// most one item, or one granted slot) everything runs inline on the
/// caller's thread ([`run_inline`]) with the same requeue — no threads
/// are spawned, so thread-local state (an armed serial budget, say)
/// stays visible.
pub fn run_tasks<T, R, F>(
    workers: usize,
    retry: RetryPolicy,
    items: &[T],
    f: F,
) -> Result<Vec<R>, ExecError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R, ExecError> + Sync,
{
    let passage = |idx: usize| -> Result<R, ExecError> {
        let mut attempt: u32 = 0;
        loop {
            match f(idx, &items[idx]) {
                Err(e) if e.is_transient() && attempt < retry.max_retries => {
                    attempt += 1;
                    // the gate is itself a fault site: a fault injected at
                    // `exec.retry` abandons the in-place rung and escalates
                    crate::retry_gate(idx, attempt)?;
                }
                out => return out,
            }
        }
    };
    let n = items.len();
    let max_requeues = if retry.max_retries == 0 {
        0
    } else {
        MAX_REQUEUES
    };
    if workers <= 1 || n <= 1 {
        return run_inline(n, max_requeues, passage);
    }

    // borrow worker slots from the process-wide governor (full grant
    // when none is installed); a starved pool runs inline on the
    // caller's thread, which is always available
    let permit = acquire_workers(workers.min(n));
    if permit.granted <= 1 {
        drop(permit);
        return run_inline(n, max_requeues, passage);
    }
    let w = permit.granted;
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..w).map(|_| Mutex::new(VecDeque::new())).collect();
    for i in 0..n {
        lock(&deques[i % w]).push_back(i);
    }
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let first_err: Mutex<Option<ExecError>> = Mutex::new(None);
    let stop = AtomicBool::new(false);
    // per-task count of pool-level passages that ended in failure
    let requeues: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let active = AtomicUsize::new(w);

    // capture the spawning thread's obs scope so workers record into the
    // scope of the query that spawned their tasks — work-stealing moves
    // tasks between lanes, but every lane is entered into the same scope
    let obs_scope = genpar_obs::scope::current();
    std::thread::scope(|s| {
        for wid in 0..w {
            let (deques, results, requeues) = (&deques, &results, &requeues);
            let (first_err, stop, passage, active) = (&first_err, &stop, &passage, &active);
            let obs_scope = obs_scope.clone();
            s.spawn(move || {
                let _obs = obs_scope.map(genpar_obs::scope::enter);
                // worker wid records on timeline lane wid + 1 (lane 0
                // is the main thread)
                genpar_obs::timeline::set_lane(wid as u32 + 1);
                let mut sp = genpar_obs::span("exec.worker");
                sp.field("worker", wid as u64);
                let mut done = 0u64;
                let mut steals = 0u64;
                let mut strikes = 0u32;
                while !stop.load(Ordering::Acquire) {
                    let before = steals;
                    let Some(idx) =
                        pop_own(deques, wid).or_else(|| steal(deques, wid, &mut steals))
                    else {
                        break;
                    };
                    if steals > before {
                        genpar_obs::timeline::record_instant(
                            "exec.steal",
                            std::time::Instant::now(),
                        );
                    }
                    let e = match passage(idx) {
                        Ok(r) => {
                            *lock(&results[idx]) = Some(r);
                            done += 1;
                            continue;
                        }
                        Err(e) => e,
                    };
                    if !e.is_transient()
                        || requeues[idx].fetch_add(1, Ordering::Relaxed) >= max_requeues
                    {
                        let mut g = lock(first_err);
                        if g.is_none() {
                            *g = Some(e);
                        }
                        stop.store(true, Ordering::Release);
                        break;
                    }
                    // hand the task to the pool again: back on this
                    // worker's own front, where a peer's steal (or this
                    // worker, if it survives) picks it up with fresh
                    // in-place retries
                    lock(&deques[wid]).push_front(idx);
                    strikes += 1;
                    if strikes >= QUARANTINE_STRIKES {
                        // quarantine unless this is the last active
                        // worker, which must keep draining the deques
                        if active.fetch_sub(1, Ordering::AcqRel) > 1 {
                            sp.field("quarantined", 1);
                            genpar_obs::counter("exec.degrade_step.quarantine", 1);
                            genpar_obs::event(
                                "exec.quarantine",
                                [
                                    ("worker", genpar_obs::FieldValue::U64(wid as u64)),
                                    ("strikes", genpar_obs::FieldValue::U64(u64::from(strikes))),
                                ],
                            );
                            genpar_obs::timeline::record_instant(
                                "exec.quarantine",
                                std::time::Instant::now(),
                            );
                            break;
                        }
                        active.fetch_add(1, Ordering::AcqRel);
                    }
                }
                sp.field("morsels", done);
                sp.field("steals", steals);
                genpar_obs::counter("exec.morsels", done);
                genpar_obs::counter("exec.steals", steals);
            });
        }
    });

    if let Some(e) = lock(&first_err).take() {
        return Err(e);
    }
    // completion sweep: a quarantine can strand a requeued task with no
    // worker left to claim it — finish those serially here, so the pool
    // never drops work without an error
    results
        .into_iter()
        .enumerate()
        .map(|(idx, m)| {
            match m.into_inner() {
                Ok(r) => r,
                Err(poisoned) => poisoned.into_inner(),
            }
            .map_or_else(|| passage(idx), Ok)
        })
        .collect()
}

/// The pool with one worker, on the caller's thread: passages in task
/// order, a task whose passage fails transiently requeued behind the
/// rest up to `max_requeues` times, and the first other failure
/// returned.
fn run_inline<R>(
    n: usize,
    max_requeues: u32,
    passage: impl Fn(usize) -> Result<R, ExecError>,
) -> Result<Vec<R>, ExecError> {
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut queue: VecDeque<(usize, u32)> = (0..n).map(|idx| (idx, 0)).collect();
    while let Some((idx, requeues)) = queue.pop_front() {
        match passage(idx) {
            Ok(r) => results[idx] = Some(r),
            Err(e) if e.is_transient() && requeues < max_requeues => {
                queue.push_back((idx, requeues + 1));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(results.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn blip(x: u64) -> ExecError {
        ExecError::Fault(format!("blip {x}"))
    }

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let got = run_tasks(4, RetryPolicy::default(), &items, |i, x| {
            // uneven task cost to force interleaving and steals
            std::thread::sleep(std::time::Duration::from_micros(x % 7));
            Ok(i as u64 * 1000 + x)
        })
        .unwrap();
        assert_eq!(got.len(), 100);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, i as u64 * 1000 + i as u64);
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let ran = AtomicU64::new(0);
        let items: Vec<i32> = (0..257).collect();
        let got = run_tasks(8, RetryPolicy::default(), &items, |_, _| {
            ran.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })
        .unwrap();
        assert_eq!(got.len(), 257);
        assert_eq!(ran.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn first_error_wins_and_cancels() {
        let items: Vec<u64> = (0..1000).collect();
        let err = run_tasks(4, RetryPolicy::default(), &items, |_, &x| {
            if x == 3 {
                Err(ExecError::Eval(format!("boom {x}")))
            } else {
                std::thread::sleep(std::time::Duration::from_micros(5));
                Ok(x)
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("boom 3"), "{err}");
    }

    #[test]
    fn serial_path_spawns_no_threads() {
        let main = std::thread::current().id();
        let got = run_tasks(1, RetryPolicy::default(), &[1, 2, 3], |_, x| {
            assert_eq!(std::thread::current().id(), main);
            Ok(x * 2)
        })
        .unwrap();
        assert_eq!(got, vec![2, 4, 6]);
    }

    #[test]
    fn only_faults_are_transient() {
        assert!(ExecError::Fault("exec.morsel".into()).is_transient());
        assert!(!ExecError::Eval("column 3 missing".into()).is_transient());
        assert!(!ExecError::Domain(genpar_value::DomainError {
            symbol: "even".into(),
            found: "a".into(),
            expects: "int".into(),
        })
        .is_transient());
        assert!(!ExecError::Internal("task panicked".into()).is_transient());
    }

    #[test]
    fn transient_failures_are_retried_in_place() {
        // every task faults on its first attempt, succeeds on the second
        let attempts: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        let items: Vec<u64> = (0..64).collect();
        for w in [1, 4] {
            attempts.iter().for_each(|a| a.store(0, Ordering::Relaxed));
            let got = run_tasks(w, RetryPolicy::default(), &items, |i, &x| {
                if attempts[i].fetch_add(1, Ordering::Relaxed) == 0 {
                    Err(blip(x))
                } else {
                    Ok(x * 2)
                }
            })
            .unwrap();
            assert_eq!(got, (0..64).map(|x| x * 2).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn deterministic_error_is_not_retried() {
        // an evaluation error fails the same way on every re-run: it
        // runs once, is neither retried nor requeued, and cancels the run
        for w in [1, 2, 4] {
            let attempts: Vec<AtomicU32> = (0..32).map(|_| AtomicU32::new(0)).collect();
            let items: Vec<u64> = (0..32).collect();
            let err = run_tasks(w, RetryPolicy::default(), &items, |i, &x| {
                attempts[i].fetch_add(1, Ordering::Relaxed);
                if x == 5 {
                    Err(ExecError::Eval("column 3 missing".into()))
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
            assert!(matches!(err, ExecError::Eval(_)), "{err:?}");
            assert_eq!(attempts[5].load(Ordering::Relaxed), 1, "at {w} workers");
        }
    }

    #[test]
    fn persistent_fault_exhausts_ladder_and_errors() {
        let items: Vec<u64> = (0..32).collect();
        let err = run_tasks(4, RetryPolicy::default(), &items, |_, &x| {
            if x == 5 {
                Err(ExecError::Fault("hard fault".into()))
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        assert!(err.is_transient(), "{err:?}");
        assert_eq!(err.to_string(), "hard fault");
    }

    #[test]
    fn zero_retries_neither_retry_nor_requeue() {
        let attempts = AtomicU32::new(0);
        let items: Vec<u64> = (0..16).collect();
        let err = run_tasks(4, RetryPolicy::none(), &items, |_, &x| {
            if x == 7 {
                attempts.fetch_add(1, Ordering::Relaxed);
                Err(blip(x))
            } else {
                Ok(x)
            }
        })
        .unwrap_err();
        assert!(err.is_transient());
        assert_eq!(attempts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn requeued_task_recovers_on_a_later_passage() {
        // a task that faults its entire first passage (all in-place
        // retries) but succeeds once requeued: the run still completes
        let attempts = AtomicU32::new(0);
        let items: Vec<u64> = (0..32).collect();
        let got = run_tasks(4, RetryPolicy { max_retries: 1 }, &items, |_, &x| {
            if x == 7 && attempts.fetch_add(1, Ordering::Relaxed) < 2 {
                Err(blip(x))
            } else {
                Ok(x)
            }
        })
        .unwrap();
        assert_eq!(got, items);
    }

    #[test]
    fn governor_takes_trims_and_returns() {
        // exercised against a local pool: the global OnceLock governor
        // stays uninstalled so other tests keep their full grants
        let g = Governor {
            available: AtomicUsize::new(4),
            total: 4,
        };
        assert_eq!(g.take(3), 3);
        assert_eq!(g.take(3), 1, "partial grant when the pool runs low");
        assert_eq!(g.take(3), 0, "drained pool grants nothing");
        g.put(1);
        g.put(3);
        assert_eq!(g.take(9), 4, "returned slots are reusable, capped at total");
        assert_eq!(g.total, 4);
    }

    #[test]
    fn governor_is_consistent_under_contention() {
        let g = Governor {
            available: AtomicUsize::new(8),
            total: 8,
        };
        std::thread::scope(|s| {
            for _ in 0..6 {
                s.spawn(|| {
                    for _ in 0..500 {
                        let got = g.take(3);
                        assert!(got <= 3);
                        if got > 0 {
                            g.put(got);
                        }
                    }
                });
            }
        });
        assert_eq!(
            g.available.load(Ordering::Relaxed),
            8,
            "every borrowed slot came back"
        );
    }

    #[test]
    fn ungoverned_acquire_grants_in_full() {
        // the global governor is never installed by unit tests
        let p = acquire_workers(7);
        assert_eq!(p.granted, 7);
        assert!(!p.borrowed);
    }

    #[test]
    fn recovery_sweep_completes_after_mass_quarantine() {
        // every task faults its whole first passage (striking workers
        // out), but later attempts succeed: between requeues, the
        // surviving worker and the caller's sweep must finish all items
        let attempts: Vec<AtomicU32> = (0..16).map(|_| AtomicU32::new(0)).collect();
        let items: Vec<u64> = (0..16).collect();
        let got = run_tasks(4, RetryPolicy { max_retries: 1 }, &items, |i, &x| {
            if attempts[i].fetch_add(1, Ordering::Relaxed) < 2 {
                Err(blip(x))
            } else {
                Ok(x + 100)
            }
        })
        .unwrap();
        assert_eq!(got, (100..116).collect::<Vec<u64>>());
    }
}
