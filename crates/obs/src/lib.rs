#![warn(missing_docs)]
//! # genpar-obs — observability substrate for the genpar workspace
//!
//! A zero-dependency tracing/metrics layer: nested span timers, monotonic
//! counters, gauges, and a bounded event ring buffer behind a thread-safe
//! [`Registry`], with a pretty-tree renderer and a JSON renderer
//! (hand-rolled in [`json`]; the build environment is offline, so no
//! serde).
//!
//! ## Usage
//!
//! Most code records into the process-wide [`global()`] registry through
//! the free functions:
//!
//! ```
//! genpar_obs::reset();
//! {
//!     let mut sp = genpar_obs::span("exec.parallel");
//!     sp.field("rows_out", 42);
//!     genpar_obs::counter("exec.rows_scanned", 42);
//! }
//! let snap = genpar_obs::snapshot();
//! assert_eq!(snap.counters["exec.rows_scanned"], 42);
//! println!("{}", snap.render_tree());
//! ```
//!
//! ## Kill switch
//!
//! Instrumentation is **on** by default and can be disabled at runtime
//! with [`set_enabled`]`(false)`, or at startup with the environment
//! variable `GENPAR_OBS=off` (also `0` / `false`). When disabled, every
//! recording call is one relaxed atomic load and an immediate return —
//! the overhead bench (`genpar-bench`, `obs_overhead`) asserts this is
//! near-zero relative to per-operator work.
//!
//! The [`timeline`] module adds a second, separately-gated layer
//! (`GENPAR_TIMELINE` / [`timeline::set_enabled`]): per-thread ring
//! buffers of real span begin/end instants with worker lanes and
//! per-query ids, exported as genuine Chrome `trace_event` B/E pairs by
//! [`trace`].

mod histogram;
pub mod json;
mod registry;
pub mod scope;
pub mod timeline;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot};
pub use json::{Json, JsonError};
pub use registry::{
    Event, FieldValue, HistogramHandle, Registry, Snapshot, SpanGuard, SpanNode,
    DEFAULT_EVENT_CAPACITY,
};
pub use scope::Scope;
pub use timeline::{QueryId, TimelineEvent, TimelineKind, TimelineSnapshot};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry. Created on first use; honours `GENPAR_OBS`
/// (`off`/`0`/`false` start it disabled).
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(|| {
        let r = Registry::new();
        if let Ok(v) = std::env::var("GENPAR_OBS") {
            let v = v.to_ascii_lowercase();
            if v == "off" || v == "0" || v == "false" {
                r.set_enabled(false);
            }
        }
        r
    })
}

/// Is the global registry recording?
#[inline]
pub fn enabled() -> bool {
    global().is_enabled()
}

/// Enable or disable the global registry at runtime (the `--quiet` /
/// `GENPAR_OBS=off` kill switch).
pub fn set_enabled(enabled: bool) {
    global().set_enabled(enabled);
}

/// Open a span on the current scope's registry (the global one when no
/// [`scope::Scope`] is entered on this thread). See [`Registry::span`].
#[inline]
pub fn span(name: &str) -> SpanGuard {
    match scope::current_registry() {
        Some(reg) => reg.span(name),
        None => global().span(name),
    }
}

/// Add to a counter on the current scope's registry (global fallback).
#[inline]
pub fn counter(name: &str, delta: u64) {
    match scope::current_registry() {
        Some(reg) => reg.counter(name, delta),
        None => global().counter(name, delta),
    }
}

/// Set a gauge on the current scope's registry (global fallback).
#[inline]
pub fn gauge(name: &str, value: i64) {
    match scope::current_registry() {
        Some(reg) => reg.gauge(name, value),
        None => global().gauge(name, value),
    }
}

/// Record an event on the current scope's registry (global fallback).
pub fn event(kind: &str, fields: impl IntoIterator<Item = (&'static str, FieldValue)>) {
    match scope::current_registry() {
        Some(reg) => reg.event(kind, fields),
        None => global().event(kind, fields),
    }
}

/// Intern a histogram on the current scope's registry (global fallback)
/// and return a handle that records lock-free. Hot loops should call
/// this once and reuse the handle **within one scope**; a handle interned
/// inside a scope records into that scope and must not outlive it.
/// See [`Registry::histogram`].
pub fn histogram(name: &str) -> HistogramHandle {
    match scope::current_registry() {
        Some(reg) => reg.histogram(name),
        None => global().histogram(name),
    }
}

/// One-shot record into a named histogram on the current scope's
/// registry (interns on each call — prefer [`histogram`] + handle in hot
/// paths; global fallback).
pub fn record(name: &str, value: u64) {
    match scope::current_registry() {
        Some(reg) => reg.record(name, value),
        None => global().record(name, value),
    }
}

/// Snapshot the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Clear the global registry (counters, spans, events; keeps the enabled
/// flag) and the timeline rings. Call before a run whose metrics you
/// want in isolation.
pub fn reset() {
    global().reset();
    timeline::reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn spans_nest_parent_child() {
        let reg = Registry::new();
        {
            let mut outer = reg.span("outer");
            outer.field("rows_in", 10);
            {
                let _inner = reg.span("inner");
                let _leaf = reg.span("leaf");
            }
            {
                let _inner2 = reg.span("inner");
            }
        }
        let snap = reg.snapshot();
        assert_eq!(snap.spans.len(), 1);
        let outer = &snap.spans[0];
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.calls, 1);
        assert_eq!(outer.fields["rows_in"], 10);
        // the two "inner" executions aggregate into one child node
        assert_eq!(outer.children.len(), 1);
        let inner = &outer.children[0];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.calls, 2);
        assert_eq!(inner.children.len(), 1);
        assert_eq!(inner.children[0].name, "leaf");
        // parent time includes child time
        assert!(outer.total_nanos >= inner.total_nanos);
    }

    #[test]
    fn sibling_spans_stay_siblings() {
        let reg = Registry::new();
        {
            let _a = reg.span("a");
        }
        {
            let _b = reg.span("b");
        }
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn counters_and_gauges() {
        let reg = Registry::new();
        reg.counter("x", 3);
        reg.counter("x", 4);
        reg.gauge("g", -2);
        reg.gauge("g", 5);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["x"], 7);
        assert_eq!(snap.gauges["g"], 5);
    }

    #[test]
    fn ring_buffer_overflow_drops_oldest() {
        let reg = Registry::with_event_capacity(3);
        for i in 0..5u64 {
            reg.event("tick", [("i", FieldValue::U64(i))]);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.events_dropped, 2);
        // oldest two dropped: seqs 2,3,4 remain in order
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
        assert_eq!(snap.events[0].fields[0].1, FieldValue::U64(2));
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::new();
        reg.set_enabled(false);
        {
            let mut sp = reg.span("quiet");
            sp.field("n", 1);
        }
        reg.counter("c", 1);
        reg.event("e", []);
        let snap = reg.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.events.is_empty());
        // re-enabling starts recording again
        reg.set_enabled(true);
        reg.counter("c", 1);
        assert_eq!(reg.snapshot().counters["c"], 1);
    }

    #[test]
    fn reset_clears_everything() {
        let reg = Registry::new();
        reg.counter("c", 1);
        {
            let _s = reg.span("s");
        }
        reg.event("e", []);
        reg.reset();
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty() && snap.spans.is_empty() && snap.events.is_empty());
    }

    #[test]
    fn json_round_trip() {
        let reg = Registry::with_event_capacity(8);
        {
            let mut sp = reg.span("outer");
            sp.field("rows", 9);
            let _inner = reg.span("inner");
        }
        reg.counter("ops", 12);
        reg.gauge("depth", -3);
        reg.event(
            "rewrite",
            [
                ("rule", FieldValue::Str("ProjectThroughUnion".into())),
                ("fired", FieldValue::Bool(true)),
                ("cost", FieldValue::F64(12.5)),
            ],
        );
        let snap = reg.snapshot();
        let text = snap.to_json_string();
        let parsed = Json::parse(&text).expect("snapshot JSON parses");
        assert_eq!(parsed, snap.to_json(), "parse(print(j)) == j");
        // spot-check structure
        assert_eq!(
            parsed.get("counters").unwrap().get("ops").unwrap().as_int(),
            Some(12)
        );
        let spans = parsed.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("outer"));
        let ev = &parsed.get("events").unwrap().as_arr().unwrap()[0];
        assert_eq!(ev.get("kind").unwrap().as_str(), Some("rewrite"));
    }

    #[test]
    fn render_tree_shows_nesting_and_fields() {
        let reg = Registry::new();
        {
            let mut a = reg.span("plan.Project");
            a.field("rows_out", 4);
            let _b = reg.span("plan.Scan");
        }
        reg.counter("exec.rows_scanned", 10);
        let text = reg.snapshot().render_tree();
        assert!(text.contains("plan.Project"), "{text}");
        assert!(text.contains("└─ plan.Scan"), "{text}");
        assert!(text.contains("rows_out=4"), "{text}");
        assert!(text.contains("exec.rows_scanned = 10"), "{text}");
    }

    #[test]
    fn global_helpers_work() {
        // keep assertions robust against other tests touching the global
        reset();
        counter("global.test.counter", 2);
        {
            let _s = span("global.test.span");
        }
        let snap = snapshot();
        assert!(snap.counters.get("global.test.counter").copied() == Some(2));
        assert!(snap.spans.iter().any(|s| s.name == "global.test.span"));
    }
}
