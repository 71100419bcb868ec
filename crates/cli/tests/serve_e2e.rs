//! End-to-end tests for `genpar serve`: spawn the real binary as a
//! resident server on an ephemeral port, drive it over raw TCP, and
//! assert the three contracts the subsystem makes:
//!
//! * served `output` is byte-identical to the one-shot CLI's stdout,
//!   also under concurrent multi-tenant load with a fault armed,
//! * SIGINT mid-load drains in-flight work and flushes state files
//!   through the checksummed atomic writer (exit 0, file verifies),
//! * an exhausted tenant is isolated — its `budget_exceeded` never
//!   leaks onto a neighbor running the identical query.

// the vendored proptest! macro is expansion-hungry at the default limit
#![recursion_limit = "256"]

use genpar_obs::Json;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

fn genpar() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_genpar"));
    // The CI parallel job exports these globally; tests pin their own.
    cmd.env_remove("GENPAR_FAULTS")
        .env_remove("GENPAR_BUDGET")
        .env_remove("GENPAR_PARALLEL");
    cmd
}

fn tmp_path(stem: &str, ext: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "genpar-serve-{stem}-{}-{n}.{ext}",
        std::process::id()
    ))
}

fn write_db(contents: &str) -> PathBuf {
    let path = tmp_path("db", "gdb");
    std::fs::write(&path, contents).unwrap();
    path
}

fn small_db() -> PathBuf {
    write_db("R = {(1, 2), (2, 3), (3, 4), (4, 5)}\nS = {(1, 9), (2, 8)}\n")
}

/// A spawned `genpar serve` child plus the address parsed from its
/// stderr readiness line.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn(db: &std::path::Path, extra: &[&str]) -> Server {
        Server::spawn_env(db, extra, &[])
    }

    fn spawn_env(db: &std::path::Path, extra: &[&str], env: &[(&str, &str)]) -> Server {
        let mut cmd = genpar();
        cmd.envs(env.iter().copied());
        cmd.args([
            "serve",
            db.to_str().unwrap(),
            "--port",
            "0",
            "--parallel",
            "2",
        ])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
        let mut child = cmd.spawn().unwrap();
        let mut reader = BufReader::new(child.stderr.take().unwrap());
        let mut addr = None;
        let mut line = String::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                addr = rest.split_whitespace().next().map(str::to_string);
                break;
            }
        }
        // keep draining stderr so the server can never block on the pipe
        std::thread::spawn(move || {
            let mut sink = String::new();
            while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                sink.clear();
            }
        });
        Server {
            addr: addr.expect("server never printed its readiness line"),
            child,
        }
    }

    fn connect(&self) -> Conn {
        Conn::open(&self.addr)
    }

    fn interrupt(&self) {
        // no libc crate: reach the signal through the coreutils binary
        let pid = self.child.id().to_string();
        let status = Command::new("kill").args(["-INT", &pid]).status().unwrap();
        assert!(status.success(), "kill -INT {pid} failed");
    }

    fn wait(mut self) -> std::process::ExitStatus {
        self.child.wait().unwrap()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // failure-path cleanup; a no-op once the child has been reaped
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection speaking the line-oriented JSON protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    let writer = stream.try_clone().unwrap();
                    return Conn {
                        reader: BufReader::new(stream),
                        writer,
                    };
                }
                Err(e) if Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("cannot connect to {addr}: {e}"),
            }
        }
    }

    fn request(&mut self, line: &str) -> Json {
        self.send(format!("{line}\n").as_bytes())
    }

    /// Send raw bytes (which must end the request line) and read the
    /// one response line.
    fn send(&mut self, bytes: &[u8]) -> Json {
        self.writer.write_all(bytes).unwrap();
        let mut resp = String::new();
        self.reader.read_line(&mut resp).unwrap();
        Json::parse(resp.trim()).unwrap_or_else(|e| panic!("bad response {resp:?}: {e}"))
    }
}

fn status_of(j: &Json) -> String {
    j.get("status")
        .and_then(|v| v.as_str())
        .unwrap_or("(no status)")
        .to_string()
}

fn output_of(j: &Json) -> String {
    j.get("output")
        .and_then(|v| v.as_str())
        .unwrap_or_else(|| panic!("response has no output: {j}"))
        .to_string()
}

fn one_shot(db: &std::path::Path, subcommand: &str, query: &str) -> String {
    // match the spawned server's pool (--parallel 2): a served request
    // without a workers hint defaults to the server's worker count, and
    // the explain text names it
    one_shot_at(db, subcommand, "2", query)
}

fn one_shot_at(db: &std::path::Path, subcommand: &str, parallel: &str, query: &str) -> String {
    let out = genpar()
        .args([
            subcommand,
            "--db",
            db.to_str().unwrap(),
            "--parallel",
            parallel,
            query,
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "one-shot {subcommand} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn served_responses_are_byte_identical_to_one_shot_output() {
    let db = small_db();
    let server = Server::spawn(&db, &[]);
    let mut conn = server.connect();

    let ping = conn.request(r#"{"op": "ping"}"#);
    assert_eq!(status_of(&ping), "ok");

    for (op, query) in [
        ("run", "pi[$1,$4](join[$2=$1](R, S))"),
        ("run", "diff(R, S)"),
        ("run", "count(R)"),
        ("explain", "pi[$1](union(R, S))"),
    ] {
        let expected = one_shot(&db, if op == "run" { "run" } else { "explain" }, query);
        let req = Json::obj([("op", Json::str(op)), ("query", Json::str(query))]);
        let resp = conn.request(&req.to_string());
        assert_eq!(status_of(&resp), "ok", "{resp}");
        assert_eq!(
            output_of(&resp),
            expected,
            "served {op} output diverged from one-shot CLI for {query}"
        );
    }

    // a parse failure is a structured response on the same connection,
    // never a disconnect — and the connection still works afterwards
    let bad = conn.request(r#"{"op": "run", "query": "pi[$1]((("}"#);
    assert_eq!(status_of(&bad), "error");
    let again = conn.request(r#"{"op": "ping"}"#);
    assert_eq!(status_of(&again), "ok");

    let ack = conn.request(r#"{"op": "shutdown"}"#);
    assert_eq!(status_of(&ack), "ok");
    let code = server.wait();
    assert_eq!(code.code(), Some(0), "graceful shutdown must exit 0");
}

#[test]
fn requests_split_inside_a_character_or_not_utf8_are_answered() {
    let db = small_db();
    let server = Server::spawn(&db, &[]);
    let mut conn = server.connect();

    // the split falls between the two bytes of 'é', and the pause
    // outlasts the session's 100 ms read timeout
    conn.writer
        .write_all(b"{\"op\": \"run\", \"query\": \"R\", \"tenant\": \"caf\xC3")
        .unwrap();
    std::thread::sleep(Duration::from_millis(250));
    let resp = conn.send(b"\xA9\"}\n");
    assert_eq!(status_of(&resp), "ok", "{resp}");
    assert_eq!(resp.get("tenant").and_then(|v| v.as_str()), Some("café"));

    // a line that is not UTF-8 is a structured parse error, not a
    // silent disconnect
    let bad = conn.send(b"{\"op\": \"ping\", \"x\": \"\xFF\xFE\"}\n");
    assert_eq!(status_of(&bad), "error", "{bad}");
    assert_eq!(
        bad.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|v| v.as_str()),
        Some("parse"),
        "{bad}"
    );
    let ping = conn.request(r#"{"op": "ping"}"#);
    assert_eq!(status_of(&ping), "ok");

    let ack = conn.request(r#"{"op": "shutdown"}"#);
    assert_eq!(status_of(&ack), "ok");
    assert_eq!(server.wait().code(), Some(0));
}

/// One query of every parallel route: plainly partitioned shapes, every
/// combiner, and a per-round fixpoint.
const ROUTE_QUERIES: [&str; 8] = [
    "pi[$1](R)",
    "select[$1=$2](R)",
    "union(R, S)",
    "diff(R, S)",
    "pi[$1,$4](join[$2=$1](R, S))",
    "count(R)",
    "sum[$2](R)",
    "fix[X](E, pi[$1,$4](join[$2=$1](X, E)))",
];

/// Concurrent clients spread over several tenants, with a morsel fault
/// armed in the server: every served answer must still equal the
/// one-shot answer, whatever route, worker or recovery rung produced it.
#[test]
fn concurrent_tenants_under_an_armed_fault_get_one_shot_answers() {
    const CLIENTS: usize = 8;
    const TENANTS: usize = 4;
    const REPEATS: usize = 3;
    let db = write_db(
        "R = {(1, 2), (2, 3), (3, 4), (4, 5)}\nS = {(1, 9), (2, 8)}\n\
         E = {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}\n",
    );
    let expected: Vec<(&str, String)> = ROUTE_QUERIES
        .iter()
        .map(|q| (*q, one_shot(&db, "run", q)))
        .collect();
    let stats_path = tmp_path("stats", "json");
    let stats = stats_path.to_str().unwrap();
    let server = Server::spawn_env(
        &db,
        &["--stats", stats],
        &[("GENPAR_FAULTS", "exec.morsel:2")],
    );

    let barrier = std::sync::Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (server, barrier, expected) = (&server, &barrier, &expected);
            s.spawn(move || {
                let tenant = format!("tenant-{}", client % TENANTS);
                let mut conn = server.connect();
                barrier.wait();
                for _ in 0..REPEATS {
                    for (query, want) in expected {
                        let req = Json::obj([
                            ("op", Json::str("run")),
                            ("query", Json::str(*query)),
                            ("tenant", Json::str(&tenant)),
                        ]);
                        let resp = conn.request(&req.to_string());
                        assert_eq!(status_of(&resp), "ok", "{query}: {resp}");
                        assert_eq!(
                            &output_of(&resp),
                            want,
                            "served {query} for {tenant} diverged from the one-shot CLI"
                        );
                    }
                }
            });
        }
    });

    let mut conn = server.connect();
    let totals = conn.request(r#"{"op": "stats"}"#);
    let degrade_steps = totals.get("degrade_steps").and_then(|v| v.as_int());
    assert!(
        degrade_steps.is_some_and(|d| d >= 1),
        "the armed morsel fault never fired: {totals}"
    );
    let per_tenant = (CLIENTS / TENANTS * REPEATS * ROUTE_QUERIES.len()) as i128;
    for t in 0..TENANTS {
        let tenant = format!("tenant-{t}");
        let req = Json::obj([("op", Json::str("stats")), ("tenant", Json::str(&tenant))]);
        let resp = conn.request(&req.to_string());
        let queries = resp
            .get("tenant_rollup")
            .and_then(|r| r.get("queries"))
            .and_then(|v| v.as_int());
        assert_eq!(queries, Some(per_tenant), "{tenant}: {resp}");
    }

    let ack = conn.request(r#"{"op": "shutdown"}"#);
    assert_eq!(status_of(&ack), "ok");
    assert_eq!(server.wait().code(), Some(0));
    let text = std::fs::read_to_string(&stats_path).unwrap();
    assert!(
        text.starts_with(genpar_optimizer::persist::CHECKSUM_MAGIC),
        "flushed stats file is missing its checksum header: {text}"
    );
}

#[test]
fn sigint_mid_load_drains_and_flushes_checksummed_state() {
    let db = small_db();
    let stats_path = tmp_path("stats", "json");
    let stats = stats_path.to_str().unwrap().to_string();
    let server = Server::spawn(&db, &["--stats", &stats]);
    let addr = server.addr.clone();

    // real load: two clients looping profile (which harvests into the
    // stats store) while the signal lands mid-flight
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut conn = Conn::open(&addr);
                let until = Instant::now() + Duration::from_secs(10);
                let mut served = 0u32;
                while Instant::now() < until {
                    writeln!(
                        conn.writer,
                        r#"{{"op": "profile", "query": "pi[$1,$4](join[$2=$1](R, S))"}}"#
                    )
                    .ok();
                    conn.writer.flush().ok();
                    let mut resp = String::new();
                    match conn.reader.read_line(&mut resp) {
                        Ok(0) | Err(_) => break, // server drained: done
                        Ok(_) => {
                            let j = Json::parse(resp.trim()).unwrap();
                            match status_of(&j).as_str() {
                                "ok" => served += 1,
                                "shutting_down" => break,
                                other => panic!("unexpected status {other}: {j}"),
                            }
                        }
                    }
                }
                served
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(400));
    server.interrupt();

    let code = server.wait();
    assert_eq!(
        code.code(),
        Some(0),
        "SIGINT must drain and exit 0, not die on the signal"
    );
    let served: u32 = clients.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(served > 0, "no request completed before the interrupt");

    // the flushed stats file must carry the checksum header AND verify
    let text = std::fs::read_to_string(&stats_path).unwrap();
    assert!(
        text.starts_with(genpar_optimizer::persist::CHECKSUM_MAGIC),
        "flushed stats file is missing its checksum header: {text}"
    );
    let payload = genpar_optimizer::persist::read_payload(&stats)
        .expect("flushed stats file must pass checksum verification")
        .expect("stats file must exist after drain");
    assert!(
        Json::parse(&payload).is_ok(),
        "flushed stats payload is not JSON: {payload}"
    );
}

/// Collapse every wall-clock artifact in a profile rendering while
/// keeping its structure: digit runs (with their decimal points) become
/// `#`, the time-unit suffix after a collapsed number becomes `T` (a
/// duration near a unit boundary renders as `999.8µs` in one process and
/// `1.0ms` in another), and runs of spaces collapse (column alignment
/// widens with the digits). Everything else — span tree shape, names,
/// counter names, event fields — must survive verbatim.
fn normalize_profile(text: &str) -> String {
    let mut out = String::new();
    let mut in_num = false;
    let mut in_space = false;
    for c in text.chars() {
        if c.is_ascii_digit() || (c == '.' && in_num) {
            if !in_num {
                out.push('#');
            }
            in_num = true;
            in_space = false;
        } else if c == ' ' {
            if !in_space {
                out.push(' ');
            }
            in_num = false;
            in_space = true;
        } else {
            out.push(c);
            in_num = false;
            in_space = false;
        }
    }
    for unit in ["#ns", "#µs", "#ms", "#s"] {
        out = out.replace(unit, "#T");
    }
    out
}

/// The `counters:` section of a profile rendering, raw — counters are
/// deterministic (no wall-clock), so this part must match byte-for-byte
/// where the span timings above it cannot.
fn counters_section(text: &str) -> &str {
    let start = text
        .find("\ncounters:")
        .unwrap_or_else(|| panic!("profile output has no counters section: {text}"));
    let rest = &text[start + 1..];
    // histograms (wall-clock latencies) and events follow the counters
    let end = ["\nhistograms", "\nevents"]
        .iter()
        .filter_map(|s| rest.find(s))
        .min();
    match end {
        Some(end) => &rest[..end],
        None => rest,
    }
}

/// The regression this PR fixes: served `explain`/`profile` used to
/// `reset()` the process-global registry to attribute records to one
/// query, silently zeroing the server's own cumulative counters. Now
/// they snapshot a private scope instead, so `stats` keeps counting.
#[test]
fn served_stats_stay_cumulative_across_explain_and_profile() {
    let db = small_db();
    let server = Server::spawn(&db, &[]);
    let mut conn = server.connect();

    for _ in 0..2 {
        let resp = conn.request(r#"{"op": "run", "query": "pi[$1](R)", "tenant": "acme"}"#);
        assert_eq!(status_of(&resp), "ok", "{resp}");
    }
    let admitted = |j: &Json| {
        j.get("admitted")
            .and_then(|v| v.as_int())
            .unwrap_or_else(|| panic!("stats response has no admitted count: {j}"))
    };
    let stats0 = conn.request(r#"{"op": "stats"}"#);
    assert_eq!(status_of(&stats0), "ok", "{stats0}");
    let before = admitted(&stats0);
    assert!(before >= 2, "two admitted runs are missing: {stats0}");

    let ex = conn.request(r#"{"op": "explain", "query": "pi[$1](union(R, S))"}"#);
    assert_eq!(status_of(&ex), "ok", "{ex}");
    let prof = conn.request(r#"{"op": "profile", "query": "count(R)", "tenant": "acme"}"#);
    assert_eq!(status_of(&prof), "ok", "{prof}");

    let stats1 = conn.request(r#"{"op": "stats"}"#);
    assert_eq!(
        admitted(&stats1),
        before + 2,
        "explain/profile must never reset cumulative server counters: {stats1}"
    );

    // the retained per-tenant roll-ups behind the new stats filters:
    // 2 runs + 1 profile were served under "acme"
    let filtered = conn.request(r#"{"op": "stats", "tenant": "acme"}"#);
    let roll = filtered
        .get("tenant_rollup")
        .unwrap_or_else(|| panic!("stats with a tenant filter has no tenant_rollup: {filtered}"));
    assert_eq!(
        roll.get("queries").and_then(|v| v.as_int()),
        Some(3),
        "{roll}"
    );
    assert_eq!(roll.get("tenant").and_then(|v| v.as_str()), Some("acme"));

    // the per-query roll-up is addressable by the id the response named
    let qid = prof
        .get("query_id")
        .and_then(|v| v.as_int())
        .unwrap_or_else(|| panic!("profile response has no query_id: {prof}"));
    let by_id = conn.request(&format!(r#"{{"op": "stats", "query_id": {qid}}}"#));
    let qroll = by_id
        .get("query_rollup")
        .unwrap_or_else(|| panic!("stats with a query_id filter has no query_rollup: {by_id}"));
    assert_eq!(qroll.get("tenant").and_then(|v| v.as_str()), Some("acme"));
    assert_eq!(qroll.get("query_id").and_then(|v| v.as_int()), Some(qid));

    // an unknown tenant is a null roll-up, not an error
    let none = conn.request(r#"{"op": "stats", "tenant": "nobody"}"#);
    assert_eq!(none.get("tenant_rollup"), Some(&Json::Null), "{none}");

    let ack = conn.request(r#"{"op": "shutdown"}"#);
    assert_eq!(status_of(&ack), "ok");
    assert_eq!(server.wait().code(), Some(0));
}

/// Two profiles racing through one server must return disjoint
/// snapshots: each response identical to the one-shot CLI profile of
/// the same query (modulo wall-clock digits), with the deterministic
/// counters section matching byte-for-byte. Before per-request scopes
/// this needed a profile mutex; now the race itself is the test.
#[test]
fn concurrent_served_profiles_return_disjoint_one_shot_identical_snapshots() {
    let db = small_db();
    let join_q = "pi[$1,$4](join[$2=$1](R, S))";
    let count_q = "count(R)";
    // one-shot expectations at the worker count the requests will pin
    let expected_join = one_shot_at(&db, "profile", "1", join_q);
    let expected_count = one_shot_at(&db, "profile", "1", count_q);

    let server = Server::spawn(&db, &[]);
    let barrier = std::sync::Barrier::new(2);
    let [served_join, served_count] = std::thread::scope(|s| {
        [(join_q, "tenant-join"), (count_q, "tenant-count")]
            .map(|(query, tenant)| {
                let (server, barrier) = (&server, &barrier);
                s.spawn(move || {
                    let mut conn = server.connect();
                    let req = Json::obj([
                        ("op", Json::str("profile")),
                        ("query", Json::str(query)),
                        ("tenant", Json::str(tenant)),
                        ("workers", Json::Int(1)),
                    ]);
                    barrier.wait();
                    let resp = conn.request(&req.to_string());
                    assert_eq!(status_of(&resp), "ok", "{resp}");
                    output_of(&resp)
                })
            })
            .map(|h| h.join().unwrap())
    });

    for (served, expected, other_span) in [
        (&served_join, &expected_join, "alg.Count"),
        (&served_count, &expected_count, "alg.Join"),
    ] {
        assert_eq!(
            normalize_profile(served),
            normalize_profile(expected),
            "a served profile racing a sibling diverged from the one-shot CLI"
        );
        assert_eq!(
            counters_section(served),
            counters_section(expected),
            "deterministic counters leaked between concurrent profile scopes"
        );
        assert!(
            !served.contains(other_span),
            "the sibling query's span tree leaked into this snapshot: {served}"
        );
    }

    let mut conn = server.connect();
    let ack = conn.request(r#"{"op": "shutdown"}"#);
    assert_eq!(status_of(&ack), "ok");
    assert_eq!(server.wait().code(), Some(0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Per-tenant budget isolation: one tenant exhausting its quota
    /// must keep getting `budget_exceeded` while a second tenant's
    /// identical query succeeds byte-identically. Each case runs its
    /// own server (quotas are cumulative for the life of a process) and
    /// fresh tenant names, with the query drawn by proptest.
    #[test]
    fn exhausted_tenant_never_starves_its_neighbors(qi in 0..3usize) {
        static CASE: AtomicU32 = AtomicU32::new(0);
        let queries = ["pi[$1](R)", "select[$1=$2](R)", "union(R, S)"];
        let query = queries[qi];
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let hog = format!("hog-{case}");
        let bystander = format!("bystander-{case}");

        let db = small_db();
        let server = Server::spawn(&db, &["--tenant-budget", "cells=400"]);
        let mut conn = server.connect();
        let req = |tenant: &str| {
            Json::obj([
                ("op", Json::str("run")),
                ("query", Json::str(query)),
                ("tenant", Json::str(tenant)),
            ])
            .to_string()
        };

        // drive the hog into its quota; capture its first good output
        let mut expected = None;
        let mut exhausted = false;
        for _ in 0..200 {
            let resp = conn.request(&req(&hog));
            match status_of(&resp).as_str() {
                "ok" => {
                    let out = output_of(&resp);
                    if let Some(prev) = &expected {
                        prop_assert_eq!(prev, &out, "output changed under quota pressure");
                    }
                    expected = Some(out);
                }
                "budget_exceeded" => {
                    exhausted = true;
                    break;
                }
                other => prop_assert!(false, "unexpected status {}: {}", other, resp),
            }
        }
        prop_assert!(exhausted, "hog never hit its quota within 200 requests");
        let expected = match expected {
            Some(e) => e,
            None => {
                prop_assert!(false, "quota must allow at least one request");
                unreachable!()
            }
        };

        // the bystander's identical query still succeeds, byte-identical
        let resp = conn.request(&req(&bystander));
        prop_assert_eq!(&status_of(&resp), "ok", "bystander was starved: {}", resp);
        prop_assert_eq!(output_of(&resp), expected);

        // and the hog stays exhausted — quotas are cumulative, not reset
        let resp = conn.request(&req(&hog));
        prop_assert_eq!(
            &status_of(&resp),
            "budget_exceeded",
            "quota forgot: {}",
            resp
        );

        let ack = conn.request(r#"{"op": "shutdown"}"#);
        prop_assert_eq!(&status_of(&ack), "ok");
        prop_assert_eq!(server.wait().code(), Some(0));
    }
}
