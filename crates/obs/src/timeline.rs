//! True-timeline recording: per-thread lock-free ring buffers of real
//! span begin/end instants.
//!
//! The registry's span tree ([`crate::Snapshot::spans`]) *aggregates*:
//! every instance of `exec.morsel` folds into one node with a count and
//! a total. That is the right shape for totals and misestimates, but it
//! destroys the information a timeline needs — **when** each instance
//! ran, and **on which worker**. This module keeps that information,
//! cheaply:
//!
//! * Each thread owns a fixed-capacity ring of slots (single writer —
//!   the owning thread; many readers — snapshotters). Recording is a
//!   monotonic `fetch_add` on the ring head plus a seqlock-protected
//!   slot write: no mutex anywhere on the hot path.
//! * The ring **overwrites oldest**: a long query keeps its most recent
//!   [`RING_CAPACITY`] records per thread, and the snapshot reports the
//!   exact number dropped (`written − kept`), never a guess.
//! * Everything is gated twice: the global obs kill switch
//!   ([`crate::enabled`]) *and* the timeline's own flag (the
//!   `GENPAR_TIMELINE` environment variable, or
//!   [`set_enabled`] — `profile --trace`/`--timeline` flips it
//!   programmatically). Both off by default; a disabled check is one
//!   relaxed atomic load.
//! * Every record is stamped with the current [`QueryId`] — a
//!   process-global counter bumped at each executor entry
//!   ([`begin_query`]) — and the recording thread's *lane* (0 = main
//!   thread, `wid + 1` = pool worker `wid`, set by [`set_lane`]). Lanes
//!   become Chrome trace `tid`s, so worker overlap, steals and
//!   fixpoint-round barriers are visible as real rows on the timeline.
//!
//! Memory bound: `RING_CAPACITY` slots × 6 words ≈ 384 KiB per thread
//! that ever records, freed never (rings are process-global so scoped
//! pool threads from finished queries stay readable). See DESIGN.md §12.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Slots per per-thread ring (power of two; overwrite-oldest beyond).
pub const RING_CAPACITY: usize = 8192;

/// A monotonically increasing identifier for one executor entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

/// What one timeline record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineKind {
    /// A completed span instance with real begin/end instants.
    Span,
    /// A point event (e.g. a successful steal).
    Instant,
}

/// One decoded timeline record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// Interned span/event name (`exec.morsel`, `exec.fixpoint_round`, …).
    pub name: String,
    /// Recording lane: 0 = main thread, `wid + 1` = pool worker `wid`.
    pub lane: u32,
    /// The [`QueryId`] current when the record was written (0 = none).
    pub query: u64,
    /// Begin instant, nanoseconds since the process timeline epoch.
    pub begin_ns: u64,
    /// End instant (== `begin_ns` for [`TimelineKind::Instant`]).
    pub end_ns: u64,
    /// Span or instant.
    pub kind: TimelineKind,
}

/// An immutable copy of every ring, decoded and time-sorted.
#[derive(Debug, Clone, Default)]
pub struct TimelineSnapshot {
    /// Surviving records, sorted by `(begin_ns, reverse end_ns)` so
    /// enclosing spans precede the spans they contain.
    pub events: Vec<TimelineEvent>,
    /// Records overwritten by ring wraparound — exact, not estimated.
    pub dropped: u64,
    /// Total records ever written (kept + dropped).
    pub written: u64,
    /// Per-thread ring capacity, for the memory-bound arithmetic.
    pub capacity_per_thread: usize,
}

impl TimelineSnapshot {
    /// The snapshot restricted to records stamped with `query_id` — the
    /// scope filter the trace renderers use when profiling one served
    /// request among many. `written`/`dropped` stay whole-ring totals
    /// (they describe ring pressure, which is shared across queries).
    pub fn for_query(&self, query_id: u64) -> TimelineSnapshot {
        TimelineSnapshot {
            events: self
                .events
                .iter()
                .filter(|e| e.query == query_id)
                .cloned()
                .collect(),
            dropped: self.dropped,
            written: self.written,
            capacity_per_thread: self.capacity_per_thread,
        }
    }
}

// ---------------------------------------------------------------------
// gating
// ---------------------------------------------------------------------

fn enabled_flag() -> &'static AtomicBool {
    static FLAG: OnceLock<AtomicBool> = OnceLock::new();
    FLAG.get_or_init(|| {
        let on = std::env::var("GENPAR_TIMELINE")
            .map(|v| {
                let v = v.trim().to_ascii_lowercase();
                !(v.is_empty() || v == "0" || v == "off" || v == "false")
            })
            .unwrap_or(false);
        AtomicBool::new(on)
    })
}

/// Is timeline recording on? Requires both the obs kill switch and the
/// timeline flag; a `false` answer costs two relaxed loads.
#[inline]
pub fn enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed) && crate::enabled()
}

/// Flip timeline recording programmatically (overrides `GENPAR_TIMELINE`).
pub fn set_enabled(on: bool) {
    enabled_flag().store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// query ids and lanes
// ---------------------------------------------------------------------

static NEXT_QUERY: AtomicU64 = AtomicU64::new(0);
static CURRENT_QUERY: AtomicU64 = AtomicU64::new(0);

/// Stamp a fresh [`QueryId`] as the process-wide current query.
///
/// Propagation rule (DESIGN.md §12): the id is process-global, set at
/// each executor entry; worker threads read it at record time, so every
/// record a query's morsels/rounds/combines produce carries the same id
/// without any per-thread plumbing. Each executor entry outside a served
/// request gets its own id, so distinct runs stay distinguishable on the
/// timeline.
pub fn begin_query() -> QueryId {
    let id = NEXT_QUERY.fetch_add(1, Ordering::Relaxed) + 1;
    CURRENT_QUERY.store(id, Ordering::Relaxed);
    QueryId(id)
}

/// The current query id (0 when no query has begun).
#[inline]
pub fn current_query() -> u64 {
    CURRENT_QUERY.load(Ordering::Relaxed)
}

/// Re-stamp an already-allocated [`QueryId`] as the process-wide current
/// query without allocating a fresh one. The serve path allocates the id
/// when a request is admitted (so the response and the obs scope share
/// it); the executor entry then re-stamps it here instead of calling
/// [`begin_query`] and forking the numbering.
pub fn set_current_query(id: u64) {
    CURRENT_QUERY.store(id, Ordering::Relaxed);
}

/// Declare this thread's timeline lane (0 = main, `wid + 1` = worker).
pub fn set_lane(lane: u32) {
    if !enabled() {
        return;
    }
    ring().lane.store(lane, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// name interning
// ---------------------------------------------------------------------

fn name_table() -> &'static Mutex<Vec<String>> {
    static TABLE: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static NAME_CACHE: std::cell::RefCell<HashMap<String, u32>> =
        std::cell::RefCell::new(HashMap::new());
}

fn intern(name: &str) -> u32 {
    NAME_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(&id) = cache.get(name) {
            return id;
        }
        let mut table = match name_table().lock() {
            Ok(t) => t,
            Err(p) => p.into_inner(),
        };
        let id = match table.iter().position(|n| n == name) {
            Some(i) => i as u32,
            None => {
                table.push(name.to_string());
                (table.len() - 1) as u32
            }
        };
        cache.insert(name.to_string(), id);
        id
    })
}

fn name_of(id: u32) -> String {
    let table = match name_table().lock() {
        Ok(t) => t,
        Err(p) => p.into_inner(),
    };
    table
        .get(id as usize)
        .cloned()
        .unwrap_or_else(|| format!("name#{id}"))
}

// ---------------------------------------------------------------------
// rings
// ---------------------------------------------------------------------

const KIND_SPAN: u64 = 0;
const KIND_INSTANT: u64 = 1;

/// One slot: seqlock word + payload. The writer bumps `seq` to an odd
/// value, writes the payload, then publishes an even `seq`; readers
/// retry/skip on odd or changed `seq`, so a concurrent snapshot can
/// never observe a torn record.
struct Slot {
    seq: AtomicU64,
    /// `name_id << 34 | lane << 2 | kind` (lane capped at 2³² lanes,
    /// kind in 2 bits).
    meta: AtomicU64,
    query: AtomicU64,
    begin_ns: AtomicU64,
    end_ns: AtomicU64,
}

struct Ring {
    /// Monotonic count of records ever written to this ring; the slot
    /// for write `n` is `n % RING_CAPACITY`, so
    /// `dropped = written.saturating_sub(RING_CAPACITY)` is exact.
    head: AtomicU64,
    lane: AtomicU32,
    slots: Vec<Slot>,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            head: AtomicU64::new(0),
            lane: AtomicU32::new(0),
            slots: (0..RING_CAPACITY)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                    query: AtomicU64::new(0),
                    begin_ns: AtomicU64::new(0),
                    end_ns: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    fn record(&self, name_id: u32, kind: u64, begin_ns: u64, end_ns: u64) {
        let n = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(n % RING_CAPACITY as u64) as usize];
        let lane = self.lane.load(Ordering::Relaxed) as u64;
        // seqlock write: odd while in progress, even (2·write#+2) when done
        slot.seq.store(2 * n + 1, Ordering::Release);
        slot.meta.store(
            ((name_id as u64) << 34) | (lane << 2) | kind,
            Ordering::Relaxed,
        );
        slot.query.store(current_query(), Ordering::Relaxed);
        slot.begin_ns.store(begin_ns, Ordering::Relaxed);
        slot.end_ns.store(end_ns, Ordering::Relaxed);
        slot.seq.store(2 * n + 2, Ordering::Release);
    }

    fn clear(&self) {
        self.head.store(0, Ordering::Relaxed);
        for s in &self.slots {
            s.seq.store(0, Ordering::Relaxed);
        }
    }
}

fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static MY_RING: std::cell::OnceCell<Arc<Ring>> = const { std::cell::OnceCell::new() };
}

fn ring() -> Arc<Ring> {
    MY_RING.with(|cell| {
        cell.get_or_init(|| {
            let r = Arc::new(Ring::new());
            match rings().lock() {
                Ok(mut all) => all.push(r.clone()),
                Err(p) => p.into_inner().push(r.clone()),
            }
            r
        })
        .clone()
    })
}

// ---------------------------------------------------------------------
// time base
// ---------------------------------------------------------------------

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[inline]
fn ns_since_epoch(t: Instant) -> u64 {
    t.checked_duration_since(epoch())
        .map(|d| d.as_nanos().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// recording api
// ---------------------------------------------------------------------

/// Record one completed span instance with its real begin/end instants.
#[inline]
pub fn record_span(name: &str, begin: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let b = ns_since_epoch(begin);
    let e = ns_since_epoch(end).max(b);
    ring().record(intern(name), KIND_SPAN, b, e);
}

/// Record a point event (steals, barriers) at `at`.
#[inline]
pub fn record_instant(name: &str, at: Instant) {
    if !enabled() {
        return;
    }
    let t = ns_since_epoch(at);
    ring().record(intern(name), KIND_INSTANT, t, t);
}

/// Decode every ring into one time-sorted snapshot. Torn slots (a
/// writer mid-overwrite) are skipped, never misread.
pub fn snapshot() -> TimelineSnapshot {
    let all: Vec<Arc<Ring>> = match rings().lock() {
        Ok(r) => r.clone(),
        Err(p) => p.into_inner().clone(),
    };
    let mut events = Vec::new();
    let mut written = 0u64;
    let mut dropped = 0u64;
    for r in &all {
        let head = r.head.load(Ordering::Acquire);
        written += head;
        dropped += head.saturating_sub(RING_CAPACITY as u64);
        let live = head.min(RING_CAPACITY as u64);
        for i in 0..live {
            let n = head - live + i; // write number held by this slot (if stable)
            let slot = &r.slots[(n % RING_CAPACITY as u64) as usize];
            let seq1 = slot.seq.load(Ordering::Acquire);
            if seq1 != 2 * n + 2 {
                // torn (odd), already overwritten, or racing ahead — skip
                continue;
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            let query = slot.query.load(Ordering::Relaxed);
            let begin_ns = slot.begin_ns.load(Ordering::Relaxed);
            let end_ns = slot.end_ns.load(Ordering::Relaxed);
            std::sync::atomic::fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != seq1 {
                continue;
            }
            events.push(TimelineEvent {
                name: name_of((meta >> 34) as u32),
                lane: ((meta >> 2) & 0xffff_ffff) as u32,
                query,
                begin_ns,
                end_ns,
                kind: if meta & 0b11 == KIND_INSTANT {
                    TimelineKind::Instant
                } else {
                    TimelineKind::Span
                },
            });
        }
    }
    events.sort_by(|a, b| {
        (a.lane, a.begin_ns, std::cmp::Reverse(a.end_ns)).cmp(&(
            b.lane,
            b.begin_ns,
            std::cmp::Reverse(b.end_ns),
        ))
    });
    TimelineSnapshot {
        events,
        dropped,
        written,
        capacity_per_thread: RING_CAPACITY,
    }
}

/// Empty every ring (the current query id and the epoch survive).
pub fn reset() {
    let all: Vec<Arc<Ring>> = match rings().lock() {
        Ok(r) => r.clone(),
        Err(p) => p.into_inner().clone(),
    };
    for r in &all {
        r.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Timeline state is process-global; tests serialize on this lock.
    static TL_LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        match TL_LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn disabled_recording_is_a_noop() {
        let _g = guard();
        set_enabled(false);
        let t = Instant::now();
        record_span("noop-span", t, t);
        record_instant("noop-instant", t);
        let snap = snapshot();
        assert!(snap
            .events
            .iter()
            .all(|e| e.name != "noop-span" && e.name != "noop-instant"));
    }

    #[test]
    fn records_spans_with_lanes_and_queries() {
        let _g = guard();
        crate::set_enabled(true);
        set_enabled(true);
        reset();
        let q = begin_query();
        set_lane(3);
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(50);
        record_span("exec.morsel", t0, t1);
        record_instant("exec.steal", t1);
        let snap = snapshot();
        set_enabled(false);
        // other obs tests may record concurrently into their own rings,
        // so locate this test's records by name + query id
        assert!(snap.written >= 2);
        let span = snap
            .events
            .iter()
            .find(|e| e.kind == TimelineKind::Span && e.name == "exec.morsel" && e.query == q.0)
            .unwrap();
        assert_eq!(span.lane, 3);
        assert!(span.end_ns >= span.begin_ns + 49_000);
        let inst = snap
            .events
            .iter()
            .find(|e| e.kind == TimelineKind::Instant && e.name == "exec.steal" && e.query == q.0)
            .unwrap();
        assert_eq!(inst.begin_ns, inst.end_ns);
    }

    #[test]
    fn overwrite_accounting_is_exact() {
        let _g = guard();
        crate::set_enabled(true);
        set_enabled(true);
        reset();
        let t = Instant::now();
        let total = RING_CAPACITY + 123;
        for _ in 0..total {
            record_span("wrap", t, t);
        }
        let snap = snapshot();
        set_enabled(false);
        // this thread's ring wrapped; other test threads may add a few
        // records of their own, so compare against this ring's share
        assert!(snap.written >= total as u64);
        assert!(snap.dropped >= 123);
        assert!(snap.events.len() as u64 >= RING_CAPACITY as u64 - 1);
    }

    #[test]
    fn query_ids_are_fresh_and_monotone() {
        let a = begin_query();
        let b = begin_query();
        assert!(b.0 > a.0);
        assert_eq!(current_query(), b.0);
    }
}
