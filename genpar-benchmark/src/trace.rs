//! In-memory spans for the traced replay, written out at the end as
//! Chrome `trace_event` JSON.
//!
//! Spans are recorded by the benchmark around each call into a layer;
//! they nest on one thread, and spans of one request share its id.

use crate::json::quote;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `algebra.parse`.
    pub name: &'static str,
    /// Request id the span belongs to.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
    }

    /// Close the innermost open span and return its index.
    pub fn end(&mut self) -> usize {
        let idx = self.open.pop().expect("end() without a matching begin()");
        self.spans[idx].end_ns = self.now_ns();
        idx
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, request);
        let out = f();
        self.end();
        out
    }

    /// Every closed span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its children
    /// cover. Children run one after another on this thread, inside
    /// their parent, so what they cover is the sum of their durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Chrome `trace_event` JSON of the spans of requests `1..=last`: a
    /// `B`/`E` pair per span on one thread, with the request id in
    /// `args`.
    pub fn chrome_json(&self, last: u64) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let mut event = |out: &mut String, s: &Span, begin: bool| {
            if !first {
                out.push(',');
            }
            first = false;
            let ts = if begin { s.start_ns } else { s.end_ns };
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":\"genpar-benchmark\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"request\":{}}}}}",
                quote(s.name),
                if begin { 'B' } else { 'E' },
                ts as f64 / 1000.0,
                s.request
            );
        };
        // spans were opened in nesting order, so walking them with a
        // stack of open spans yields balanced, time-ordered B/E pairs
        let mut open: Vec<usize> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.request > last {
                continue;
            }
            while let Some(&top) = open.last() {
                if s.parent == Some(top) {
                    break;
                }
                open.pop();
                event(&mut out, &self.spans[top], false);
            }
            event(&mut out, s, true);
            open.push(i);
        }
        while let Some(top) = open.pop() {
            event(&mut out, &self.spans[top], false);
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.begin("root", 1);
        t.time("a", 1, || busy(200_000));
        t.time("b", 1, || busy(200_000));
        busy(100_000);
        let root = t.end();
        let children: u64 = t.spans()[1..].iter().map(Span::dur_ns).sum();
        let self_ns = t.self_ns();
        assert_eq!(self_ns[root], t.spans()[root].dur_ns() - children);
        assert!(self_ns[root] >= 100_000);
        assert_eq!(self_ns[1], t.spans()[1].dur_ns());
    }

    #[test]
    fn chrome_json_pairs_every_span() {
        let mut t = Tracer::default();
        for id in 1..=4 {
            t.begin("request", id);
            t.time("leaf", id, || ());
            t.end();
        }
        let j = crate::json::Json::parse(&t.chrome_json(3)).unwrap();
        let events = j.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 12);
        let phases: String = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
            .collect();
        assert_eq!(phases, "BBEEBBEEBBEE");
    }
}
