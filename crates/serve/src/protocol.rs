//! The line-oriented JSON wire protocol.
//!
//! One request per line, one response line per request — trivially
//! scriptable with `nc`, no framing beyond `\n`. Requests are JSON
//! objects:
//!
//! ```json
//! {"op": "run", "query": "pi[$1](R)", "tenant": "acme", "timeout_ms": 500}
//! ```
//!
//! Fields: `op` (required: `run` | `explain` | `profile` | `stats` |
//! `ping` | `shutdown`), `query` (required for the three query ops),
//! `tenant` (optional, default `"default"`), `timeout_ms` (optional
//! per-request wall deadline), `workers` (optional worker-count hint,
//! capped by the server's pool).
//!
//! Every message leaves through [`write_line`]: the whole rendered line
//! in one `write_all`, never a formatter writing straight onto the
//! socket (with `TCP_NODELAY` that sends one segment per fragment).
//!
//! Responses are JSON objects with a `status` discriminant:
//!
//! * `ok` — carries `output`, the byte-identical text the one-shot CLI
//!   would print for the same command, plus `query_id` (the obs
//!   timeline id), `elapsed_us`, `op`, `tenant`.
//! * `error` — structured failure: `error.kind` (the CLI's error-kind
//!   vocabulary: `usage` | `parse` | `internal` | `runtime`) and
//!   `error.message`.
//! * `budget_exceeded` — the tenant (or request) quota is exhausted;
//!   same `error` payload shape, exit-free backpressure.
//! * `overloaded` — shed by admission control before execution;
//!   carries `queue_depth`. The client should back off and retry.
//! * `shutting_down` — the server is draining; no new work accepted.

use genpar_obs::Json;
use std::io::{self, Write};

/// Protocol operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Evaluate a query; `output` is the one-shot `genpar run` text.
    Run,
    /// Cost-and-route report; `output` is the `genpar explain` text.
    Explain,
    /// Instrumented run harvesting observed statistics; `output` is the
    /// `genpar profile` text.
    Profile,
    /// Server-side counters: admission, tenants, worker pool, degrades.
    Stats,
    /// Liveness probe; responds `ok` with no output.
    Ping,
    /// Begin graceful shutdown: drain in-flight queries, flush state
    /// files, exit 0.
    Shutdown,
}

impl Op {
    /// The wire name (`"run"`, `"explain"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Op::Run => "run",
            Op::Explain => "explain",
            Op::Profile => "profile",
            Op::Stats => "stats",
            Op::Ping => "ping",
            Op::Shutdown => "shutdown",
        }
    }

    /// Does this op execute a query (and therefore pass admission
    /// control and tenant metering)?
    pub fn is_query(self) -> bool {
        matches!(self, Op::Run | Op::Explain | Op::Profile)
    }
}

/// A parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// The operation.
    pub op: Op,
    /// Query text (required when [`Op::is_query`]).
    pub query: Option<String>,
    /// Tenant name; quotas are per-tenant. Defaults to `"default"`.
    pub tenant: String,
    /// Per-request wall deadline in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Worker-count hint (capped by the server's pool).
    pub workers: Option<usize>,
    /// `stats` filter: was a `"tenant"` key present on the wire? When
    /// set, the response carries that tenant's retained roll-up.
    pub tenant_filter: Option<String>,
    /// `stats` filter: retained roll-up for one query id.
    pub query_id: Option<u64>,
}

/// Parse one request line. Errors are human-readable and become
/// `status: "error", error.kind: "parse"` responses.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let j = Json::parse(line).map_err(|e| format!("request is not JSON: {e}"))?;
    let op_name = j
        .get("op")
        .and_then(|v| v.as_str())
        .ok_or("missing required string field \"op\"")?;
    let op = match op_name {
        "run" => Op::Run,
        "explain" => Op::Explain,
        "profile" => Op::Profile,
        "stats" => Op::Stats,
        "ping" => Op::Ping,
        "shutdown" => Op::Shutdown,
        other => {
            return Err(format!(
                "unknown op {other:?} (run|explain|profile|stats|ping|shutdown)"
            ))
        }
    };
    let query = j
        .get("query")
        .and_then(|v| v.as_str())
        .map(|s| s.to_string());
    if op.is_query() && query.is_none() {
        return Err(format!(
            "op {:?} requires a string field \"query\"",
            op.name()
        ));
    }
    // the raw key's presence doubles as the stats-op tenant filter: a
    // plain `{"op": "stats"}` must not filter to the "default" roll-up
    let tenant_filter = j
        .get("tenant")
        .and_then(|v| v.as_str())
        .map(|s| s.to_string());
    let tenant = tenant_filter.clone().unwrap_or_else(|| "default".into());
    let timeout_ms = match j.get("timeout_ms") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_int()
                .filter(|n| *n >= 0)
                .ok_or("\"timeout_ms\" must be a non-negative integer")? as u64,
        ),
    };
    let workers = match j.get("workers") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_int()
                .filter(|n| *n >= 1)
                .ok_or("\"workers\" must be a positive integer")? as usize,
        ),
    };
    let query_id = match j.get("query_id") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_int()
                .filter(|n| *n >= 0)
                .ok_or("\"query_id\" must be a non-negative integer")? as u64,
        ),
    };
    Ok(Request {
        op,
        query,
        tenant,
        timeout_ms,
        workers,
        tenant_filter,
        query_id,
    })
}

/// Send one protocol message: `msg` rendered, plus the `'\n'` that
/// frames it, handed to `w` in a single `write_all` however finely
/// `Json`'s `Display` splits its output.
pub fn write_line(w: &mut impl Write, msg: &Json) -> io::Result<()> {
    let mut line = msg.to_string();
    line.push('\n');
    w.write_all(line.as_bytes())
}

/// `status: "ok"` response carrying the one-shot CLI output.
pub fn ok_response(op: Op, tenant: &str, query_id: u64, output: &str, elapsed_us: u64) -> Json {
    Json::obj([
        ("status", Json::str("ok")),
        ("op", Json::str(op.name())),
        ("tenant", Json::str(tenant)),
        ("query_id", Json::Int(query_id as i128)),
        ("elapsed_us", Json::Int(elapsed_us as i128)),
        ("output", Json::str(output)),
    ])
}

/// Structured failure: `budget` kinds get the dedicated
/// `budget_exceeded` status (quota backpressure a client can meter on),
/// everything else is `error`.
pub fn error_response(
    op: Op,
    tenant: &str,
    query_id: u64,
    kind: &str,
    message: &str,
    elapsed_us: u64,
) -> Json {
    let status = if kind == "budget" {
        "budget_exceeded"
    } else {
        "error"
    };
    Json::obj([
        ("status", Json::str(status)),
        ("op", Json::str(op.name())),
        ("tenant", Json::str(tenant)),
        ("query_id", Json::Int(query_id as i128)),
        ("elapsed_us", Json::Int(elapsed_us as i128)),
        (
            "error",
            Json::obj([("kind", Json::str(kind)), ("message", Json::str(message))]),
        ),
    ])
}

/// Shed by admission control before any work ran.
pub fn overloaded_response(op: Op, tenant: &str, queue_depth: usize) -> Json {
    Json::obj([
        ("status", Json::str("overloaded")),
        ("op", Json::str(op.name())),
        ("tenant", Json::str(tenant)),
        ("queue_depth", Json::Int(queue_depth as i128)),
    ])
}

/// The server is draining and accepts no new work.
pub fn shutting_down_response(op: Op) -> Json {
    Json::obj([
        ("status", Json::str("shutting_down")),
        ("op", Json::str(op.name())),
    ])
}

/// A request line that failed to parse.
pub fn parse_error_response(message: &str) -> Json {
    Json::obj([
        ("status", Json::str("error")),
        (
            "error",
            Json::obj([
                ("kind", Json::str("parse")),
                ("message", Json::str(message)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_with_defaults() {
        let r = parse_request(r#"{"op": "run", "query": "pi[$1](R)"}"#).unwrap();
        assert_eq!(r.op, Op::Run);
        assert_eq!(r.query.as_deref(), Some("pi[$1](R)"));
        assert_eq!(r.tenant, "default");
        assert_eq!(r.timeout_ms, None);
        assert_eq!(r.workers, None);
    }

    #[test]
    fn requests_parse_all_fields() {
        let r = parse_request(
            r#"{"op": "profile", "query": "count(R)", "tenant": "acme", "timeout_ms": 250, "workers": 4}"#,
        )
        .unwrap();
        assert_eq!(r.op, Op::Profile);
        assert_eq!(r.tenant, "acme");
        assert_eq!(r.timeout_ms, Some(250));
        assert_eq!(r.workers, Some(4));
    }

    #[test]
    fn bad_requests_are_structured_errors() {
        assert!(parse_request("not json").unwrap_err().contains("not JSON"));
        assert!(parse_request("{}").unwrap_err().contains("\"op\""));
        assert!(parse_request(r#"{"op": "fly"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(parse_request(r#"{"op": "run"}"#)
            .unwrap_err()
            .contains("requires a string field \"query\""));
        assert!(parse_request(r#"{"op": "run", "query": "R", "timeout_ms": -1}"#).is_err());
        assert!(parse_request(r#"{"op": "run", "query": "R", "workers": 0}"#).is_err());
    }

    #[test]
    fn shutdown_and_stats_need_no_query() {
        assert_eq!(
            parse_request(r#"{"op": "shutdown"}"#).unwrap().op,
            Op::Shutdown
        );
        assert_eq!(parse_request(r#"{"op": "stats"}"#).unwrap().op, Op::Stats);
        assert_eq!(parse_request(r#"{"op": "ping"}"#).unwrap().op, Op::Ping);
    }

    #[test]
    fn responses_round_trip_as_json() {
        let r = ok_response(Op::Run, "t", 7, "{1, 2}\n", 123);
        let j = Json::parse(&r.to_string()).unwrap();
        assert_eq!(j.get("status").and_then(|v| v.as_str()), Some("ok"));
        assert_eq!(j.get("query_id").and_then(|v| v.as_int()), Some(7));
        assert_eq!(j.get("output").and_then(|v| v.as_str()), Some("{1, 2}\n"));

        let e = error_response(Op::Run, "t", 8, "budget", "budget exceeded: cells", 5);
        let j = Json::parse(&e.to_string()).unwrap();
        assert_eq!(
            j.get("status").and_then(|v| v.as_str()),
            Some("budget_exceeded")
        );

        let o = overloaded_response(Op::Run, "t", 3);
        let j = Json::parse(&o.to_string()).unwrap();
        assert_eq!(j.get("status").and_then(|v| v.as_str()), Some("overloaded"));
        assert_eq!(j.get("queue_depth").and_then(|v| v.as_int()), Some(3));
    }

    #[test]
    fn response_lines_never_contain_raw_newlines() {
        // one response per line is the framing invariant: embedded
        // newlines in output must be escaped by the JSON renderer
        let r = ok_response(Op::Run, "t", 1, "line1\nline2\n", 1).to_string();
        assert!(!r.contains('\n'), "{r}");
    }

    /// A sink that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_line_sends_one_write_per_message() {
        let pieces = [
            "plain text ",
            "\"quoted\" ",
            "back\\slash ",
            "line\n",
            "\t\r\u{1}\u{1f}",
            "café 😀 \u{2028} ",
        ];
        let mut output = String::new();
        while output.len() < 4096 {
            output.extend(pieces);
        }
        let resp = ok_response(Op::Run, "tenant \"x\"", 42, &output, 9);
        let mut sink = CountingWriter::default();
        write_line(&mut sink, &resp).unwrap();
        assert_eq!(sink.writes, 1, "a message must leave in exactly one write");
        let line = String::from_utf8(sink.bytes).unwrap();
        let body = line.strip_suffix('\n').expect("the line ends in '\\n'");
        assert!(!body.contains('\n'), "the trailing '\\n' is the only one");
        assert_eq!(Json::parse(body).unwrap(), resp);
    }
}
