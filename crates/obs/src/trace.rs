//! Export a recorded timeline as a Chrome `trace_event` document.
//!
//! Two renderings:
//!
//! * [`chrome_trace`] — the `{"traceEvents": [...]}` object format that
//!   `chrome://tracing` and Perfetto load directly.
//! * [`jsonl`] — the same events, one JSON object per line (newline-
//!   delimited), for `jq`-style stream processing.
//!
//! The export is a *real* timeline (the recorder is on with
//! `GENPAR_TIMELINE` / [`crate::timeline::set_enabled`]): every recorded
//! span instance becomes a genuine begin/end pair (`"ph": "B"` /
//! `"ph": "E"`) at its measured instants, on a `tid` row per worker lane
//! (0 = main thread, `N` = pool worker `N−1`), with the owning
//! [`crate::timeline::QueryId`] in `args.query`. Morsel scheduling,
//! steal instants, fixpoint-round barriers and combiner folds all land
//! where they actually happened.

use crate::json::Json;
use crate::timeline::{TimelineEvent, TimelineKind, TimelineSnapshot};

/// Synthetic pid for all exported events.
const PID: i128 = 1;

fn thread_name(tid: i128, name: &str) -> Json {
    Json::obj([
        ("name", Json::str("thread_name")),
        ("ph", Json::str("M")),
        ("pid", Json::Int(PID)),
        ("tid", Json::Int(tid)),
        ("args", Json::obj([("name", Json::str(name))])),
    ])
}

fn process_name() -> Json {
    Json::obj([
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", Json::Int(PID)),
        ("tid", Json::Int(0)),
        ("args", Json::obj([("name", Json::str("genpar"))])),
    ])
}

fn lane_name(lane: u32) -> String {
    if lane == 0 {
        "main".to_string()
    } else {
        format!("worker-{}", lane - 1)
    }
}

fn begin_event(e: &TimelineEvent) -> Json {
    Json::obj([
        ("name", Json::str(&e.name)),
        ("ph", Json::str("B")),
        ("ts", Json::Num(e.begin_ns as f64 / 1e3)),
        ("pid", Json::Int(PID)),
        ("tid", Json::Int(e.lane as i128)),
        ("args", Json::obj([("query", Json::Int(e.query as i128))])),
    ])
}

fn end_event(e: &TimelineEvent) -> Json {
    Json::obj([
        ("name", Json::str(&e.name)),
        ("ph", Json::str("E")),
        ("ts", Json::Num(e.end_ns as f64 / 1e3)),
        ("pid", Json::Int(PID)),
        ("tid", Json::Int(e.lane as i128)),
    ])
}

fn timeline_instant(e: &TimelineEvent) -> Json {
    Json::obj([
        ("name", Json::str(&e.name)),
        ("ph", Json::str("i")),
        ("s", Json::str("t")),
        ("ts", Json::Num(e.begin_ns as f64 / 1e3)),
        ("pid", Json::Int(PID)),
        ("tid", Json::Int(e.lane as i128)),
        ("args", Json::obj([("query", Json::Int(e.query as i128))])),
    ])
}

/// Real-timeline trace events: per-lane metadata, then matched B/E
/// pairs. Within a lane the recorder's intervals are nested or disjoint
/// (one thread runs one span at a time), so a single stack sweep over
/// the `(begin asc, end desc)`-sorted events emits every `E` at its
/// measured end instant, properly nested for Chrome's validator.
fn timeline_events(tl: &TimelineSnapshot) -> Vec<Json> {
    let mut out = vec![process_name()];
    let mut lanes: Vec<u32> = tl.events.iter().map(|e| e.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for &lane in &lanes {
        out.push(thread_name(lane as i128, &lane_name(lane)));
    }
    let mut stack: Vec<&TimelineEvent> = Vec::new();
    let mut cur_lane: Option<u32> = None;
    let flush = |stack: &mut Vec<&TimelineEvent>, out: &mut Vec<Json>| {
        while let Some(top) = stack.pop() {
            out.push(end_event(top));
        }
    };
    for e in &tl.events {
        if cur_lane != Some(e.lane) {
            flush(&mut stack, &mut out);
            cur_lane = Some(e.lane);
        }
        // close every open span that ended before this record starts
        while let Some(top) = stack.last() {
            if top.end_ns <= e.begin_ns {
                out.push(end_event(top));
                stack.pop();
            } else {
                break;
            }
        }
        match e.kind {
            TimelineKind::Instant => out.push(timeline_instant(e)),
            TimelineKind::Span => {
                out.push(begin_event(e));
                stack.push(e);
            }
        }
    }
    flush(&mut stack, &mut out);
    out
}

/// Render a timeline as a Chrome `trace_event` JSON object
/// (`chrome://tracing` / Perfetto loadable): real B/E pairs on
/// per-worker lanes.
pub fn chrome_trace(tl: &TimelineSnapshot) -> Json {
    Json::obj([
        ("traceEvents", Json::Arr(timeline_events(tl))),
        ("displayTimeUnit", Json::str("ms")),
        ("timelineDropped", Json::Int(tl.dropped as i128)),
    ])
}

/// [`chrome_trace`] as text.
pub fn chrome_trace_string(tl: &TimelineSnapshot) -> String {
    chrome_trace(tl).to_string()
}

/// Render the trace events as JSONL: one JSON object per line.
pub fn jsonl(tl: &TimelineSnapshot) -> String {
    let mut out = String::new();
    for e in timeline_events(tl) {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built timeline: two lanes, nested spans on lane 0, a
    /// morsel + steal on lane 1.
    fn sample_timeline() -> TimelineSnapshot {
        let ev = |name: &str, lane, begin_ns, end_ns, kind| TimelineEvent {
            name: name.to_string(),
            lane,
            query: 7,
            begin_ns,
            end_ns,
            kind,
        };
        let mut events = vec![
            ev("exec.parallel", 0, 100, 10_000, TimelineKind::Span),
            ev("exec.fixpoint_round", 0, 200, 4_000, TimelineKind::Span),
            ev("exec.fixpoint_round", 0, 4_500, 9_000, TimelineKind::Span),
            ev("exec.morsel", 1, 300, 2_000, TimelineKind::Span),
            ev("exec.steal", 1, 2_100, 2_100, TimelineKind::Instant),
            ev("exec.morsel", 1, 2_200, 3_500, TimelineKind::Span),
        ];
        events.sort_by(|a, b| {
            (a.lane, a.begin_ns, std::cmp::Reverse(a.end_ns)).cmp(&(
                b.lane,
                b.begin_ns,
                std::cmp::Reverse(b.end_ns),
            ))
        });
        TimelineSnapshot {
            events,
            dropped: 0,
            written: 6,
            capacity_per_thread: 8192,
        }
    }

    #[test]
    fn timeline_export_emits_balanced_nested_be_pairs() {
        let j = chrome_trace(&sample_timeline());
        let events = j.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        // only begin/end pairs, instants and metadata: no complete events
        assert!(events
            .iter()
            .all(|e| e.get("ph").and_then(|p| p.as_str()) != Some("X")));
        // per tid: B/E balanced and properly nested (a stack never
        // underflows, and every E matches the innermost open B's name)
        use std::collections::HashMap;
        let mut stacks: HashMap<i128, Vec<&str>> = HashMap::new();
        let mut b_count = 0;
        for e in events {
            let ph = e.get("ph").and_then(|p| p.as_str()).unwrap();
            let tid = e.get("tid").and_then(|t| t.as_int()).unwrap_or(0);
            let name = e.get("name").and_then(|n| n.as_str()).unwrap();
            match ph {
                "B" => {
                    b_count += 1;
                    stacks.entry(tid).or_default().push(name);
                }
                "E" => {
                    let top = stacks.entry(tid).or_default().pop();
                    assert_eq!(top, Some(name), "E matches innermost B");
                }
                _ => {}
            }
        }
        assert_eq!(b_count, 5, "five span instances exported");
        assert!(stacks.values().all(|s| s.is_empty()), "all spans closed");
        // the two fixpoint rounds are distinct B events with real begins
        let rounds: Vec<f64> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("B")
                    && e.get("name").and_then(|n| n.as_str()) == Some("exec.fixpoint_round")
            })
            .map(|e| match e.get("ts") {
                Some(Json::Num(n)) => *n,
                _ => panic!("B has ts"),
            })
            .collect();
        assert_eq!(rounds.len(), 2);
        assert!(rounds[1] > rounds[0], "rounds at distinct instants");
        // worker lane carries the steal instant and the query id
        let steal = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("exec.steal"))
            .unwrap();
        assert_eq!(steal.get("tid").unwrap().as_int(), Some(1));
        assert_eq!(
            steal.get("args").unwrap().get("query").unwrap().as_int(),
            Some(7)
        );
        // lanes are named
        assert!(events.iter().any(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some("thread_name")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
                    == Some("worker-0")
        }));
    }

    #[test]
    fn timeline_jsonl_matches_object_form() {
        let tl = sample_timeline();
        let text = jsonl(&tl);
        let obj = chrome_trace(&tl);
        let n = obj
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .unwrap()
            .len();
        assert_eq!(text.lines().count(), n);
        for line in text.lines() {
            Json::parse(line).expect("each JSONL line parses");
        }
    }
}
