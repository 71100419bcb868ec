//! Every workload at tiny scale, served by an in-process `genpar serve`
//! and then replayed: every per-layer metric `BENCHMARK.json` names is
//! emitted, the span file parses with balanced spans grouped by request
//! id, and `replay.closure_ratio` is computed.

use genpar_benchmark::json::Json;
use genpar_benchmark::replay::{self, SERVE_WORKERS};
use genpar_benchmark::run::layer_metrics;
use genpar_benchmark::wire::{drive, request, server_counters};
use genpar_benchmark::workload::{generate, Sizes, WORKLOADS};
use genpar_cli::serve_cmd::ServeState;
use genpar_serve::server::{serve, ServeConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn per_layer_names() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let j = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    j.get("per_layer")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

/// Check the Chrome trace: `B`/`E` events nest like a stack, each pair
/// has one name and one request id, and every request has a `request`
/// root span. Returns the request ids seen.
fn check_spans(text: &str) -> BTreeSet<u64> {
    let j = Json::parse(text).expect("the span file parses");
    let events = j.get("traceEvents").and_then(Json::as_arr).unwrap();
    let mut open: Vec<(String, u64)> = Vec::new();
    let mut roots: BTreeMap<u64, BTreeSet<String>> = BTreeMap::new();
    for e in events {
        let name = e.get("name").and_then(Json::as_str).unwrap().to_string();
        let id = e
            .get("args")
            .and_then(|a| a.get("request"))
            .and_then(Json::as_f64)
            .unwrap() as u64;
        match e.get("ph").and_then(Json::as_str) {
            Some("B") => {
                if let Some((_, parent)) = open.last() {
                    assert_eq!(*parent, id, "a span nests under another request's span");
                } else {
                    roots.entry(id).or_default().insert(name.clone());
                }
                open.push((name, id));
            }
            Some("E") => assert_eq!(open.pop(), Some((name, id)), "unbalanced span"),
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(open.is_empty(), "spans left open: {open:?}");
    for (id, names) in &roots {
        assert!(
            names.contains("request"),
            "request {id} has no request span"
        );
        assert!(names.contains("probes"), "request {id} has no probes span");
    }
    roots.into_keys().collect()
}

#[test]
fn every_workload_replays_with_every_layer_metric() {
    let names = per_layer_names();
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("replay_smoke");
    for workload in WORKLOADS {
        let gen = generate(workload, 42, &Sizes::tiny());
        let dir = root.join(workload.name());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let gdb = dir.join("db.gdb");
        std::fs::write(&gdb, &gen.gdb).unwrap();
        let expected = genpar_benchmark::expected_outputs(&gen).unwrap();

        // a real server on a real socket, in this process
        let (state, _) =
            ServeState::load(&gdb.to_string_lossy(), None, None, SERVE_WORKERS).unwrap();
        let port = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .port();
        let cfg = ServeConfig {
            port,
            workers: SERVE_WORKERS,
            max_inflight: 4,
            queue_cap: 16,
            tenant_budget: None,
            default_timeout_ms: None,
        };
        let server = std::thread::spawn(move || serve(&cfg, Arc::new(state)));
        let addr = format!("127.0.0.1:{port}");
        let up_by = Instant::now() + Duration::from_secs(10);
        while TcpStream::connect(&addr).is_err() {
            assert!(
                Instant::now() < up_by,
                "the in-process server never listened"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let window = drive(
            &addr,
            &gen.requests,
            &expected,
            Duration::ZERO,
            Duration::from_millis(300),
        )
        .unwrap();
        assert_eq!(
            window.failed,
            0,
            "{}: {:?}",
            workload.name(),
            window.failures
        );
        let (degrade_steps, shed) = server_counters(&addr).unwrap();
        request(&addr, "{\"op\":\"shutdown\"}").unwrap();
        server.join().unwrap().unwrap();

        let rep = replay::replay(&replay::Input {
            gen: &gen,
            expected: &expected,
            gdb_path: &gdb,
            dir: &dir.join("replay"),
            budget: Duration::ZERO,
        })
        .unwrap();
        assert_eq!(rep.failed, 0, "{}: {:?}", workload.name(), rep.failures);
        // a zero budget still replays two passes: one layered, one whole
        let replayed = 2 * gen.requests.len() as u64;
        assert_eq!(rep.requests, replayed);

        let metrics = layer_metrics(&window, degrade_steps, shed, &rep).unwrap();
        for name in &names {
            let m = metrics.iter().find(|m| &m.name == name);
            assert!(
                m.is_some_and(|m| m.value.is_finite()),
                "{}: {name} missing",
                workload.name()
            );
        }
        let closure = rep.closure_ratio().expect("closure ratio");
        assert!(closure.is_finite() && closure > 0.0, "{closure}");

        let ids = check_spans(&rep.tracer.chrome_json(u64::MAX));
        assert_eq!(ids, (1..=replayed).collect());
    }
}
