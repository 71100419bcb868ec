//! Integration: the quickstart flow from README.md — `explain` and
//! `profile` against the Example 2.2 database must tell the Section 4.4
//! optimization story end to end.

use genpar_cli::{commands, parse_args};

fn example_db() -> String {
    format!(
        "{}/../../examples/data/example_2_2.gdb",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// `profile` resets and snapshots the process-global obs registry;
/// concurrent tests must not interleave their runs.
static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
    match OBS_LOCK.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn run(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let cmd = parse_args(&argv).expect("args parse");
    commands::execute(&cmd).expect("command runs")
}

#[test]
fn explain_example_2_2_names_section_4_4_rules() {
    let db = example_db();
    let out = run(&["explain", "pi[$1](union(r1, r3))", "--db", &db]);
    // the fired rule, by name and by justification
    assert!(out.contains("ProjectThroughUnion"), "{out}");
    assert!(out.contains("Cor 4.15"), "{out}");
    // the cost model's verdict and the physical plan it implies
    assert!(out.contains("estimated cost"), "{out}");
    assert!(out.contains("chosen plan:"), "{out}");
    assert!(out.contains("Scan r1"), "{out}");
    assert!(out.contains("Scan r3"), "{out}");
}

#[test]
fn explain_example_2_2_blocks_difference_push_without_key() {
    let db = example_db();
    let out = run(&["explain", "pi[$1](diff(r1, r3))", "--db", &db]);
    assert!(out.contains("blocked rewrites:"), "{out}");
    assert!(out.contains("ProjectThroughDifference"), "{out}");
    assert!(out.contains("Prop 3.4"), "{out}");
}

#[test]
fn profile_example_2_2_reports_executor_counters() {
    let _g = obs_guard();
    let db = example_db();
    // pin one worker: the executor runs inline, and the worker count
    // must not change when CI exports GENPAR_PARALLEL
    let out = run(&[
        "profile",
        "pi[$1](union(r1, r3))",
        "--db",
        &db,
        "--json",
        "--parallel",
        "1",
    ]);
    let j = genpar_obs::Json::parse(&out).expect("profile --json is valid JSON");
    let counters = j.get("counters").expect("counters object");
    let scanned = counters
        .get("exec.rows_scanned")
        .and_then(|v| v.as_int())
        .expect("exec.rows_scanned recorded");
    assert!(scanned > 0, "{out}");
    assert!(
        counters
            .get("optimizer.rules_fired")
            .and_then(|v| v.as_int())
            == Some(1),
        "{out}"
    );
}

#[test]
fn profile_example_2_2_parallel_reports_exec_counters() {
    let _g = obs_guard();
    let db = example_db();
    let out = run(&[
        "profile",
        "pi[$1](union(r1, r3))",
        "--db",
        &db,
        "--json",
        "--parallel",
        "4",
    ]);
    let j = genpar_obs::Json::parse(&out).expect("profile --json is valid JSON");
    let counters = j.get("counters").expect("counters object");
    let executions = counters
        .get("exec.executions")
        .and_then(|v| v.as_int())
        .expect("exec.executions recorded");
    assert!(executions > 0, "{out}");
    // the profile schema is versioned (S2) and reports misestimates
    assert_eq!(
        j.get("schema_version").and_then(|v| v.as_int()),
        Some(commands::PROFILE_SCHEMA_VERSION as i128),
        "{out}"
    );
    assert!(j.get("misestimate").is_some(), "{out}");
}

#[test]
fn explain_example_2_2_uncertified_query_states_the_refusal_reason() {
    let _g = obs_guard();
    let db = example_db();
    // `adom` is not partition-safe: the active domain is a whole-input
    // property. The explain output must surface the gate's reason, and
    // the same reason must ride on the exec.fallback event a profile run
    // records.
    let out = run(&["explain", "adom(r1)", "--db", &db, "--parallel", "4"]);
    assert!(out.contains("falls back to serial: 'adom'"), "{out}");
    assert!(out.contains("whole-input property"), "{out}");
    assert!(out.contains("gate refused the parallel route"), "{out}");

    let out = run(&[
        "profile",
        "adom(r1)",
        "--db",
        &db,
        "--json",
        "--parallel",
        "4",
    ]);
    let j = genpar_obs::Json::parse(&out).expect("profile --json is valid JSON");
    let events = j
        .get("events")
        .and_then(|e| e.as_arr())
        .expect("events array");
    let fallback = events
        .iter()
        .find(|e| e.get("kind").and_then(|k| k.as_str()) == Some("exec.fallback"))
        .expect("fallback event recorded");
    let fields = fallback.get("fields").expect("fallback fields");
    assert_eq!(
        fields.get("op").and_then(|v| v.as_str()),
        Some("adom"),
        "{out}"
    );
    let reason = fields
        .get("reason")
        .and_then(|v| v.as_str())
        .expect("fallback reason field");
    assert!(reason.contains("whole-input property"), "{out}");
}

#[test]
fn explain_example_2_2_even_now_earns_a_combiner_certificate() {
    let _g = obs_guard();
    let db = example_db();
    // `even` used to be the canonical refusal (its naive "xor the
    // partition parities" parallelization is the Lemma 2.12 pitfall);
    // the combiner class certifies it instead — partition-local counts,
    // one serial combine — and explain cites that certificate.
    let out = run(&["explain", "even(r1)", "--db", &db, "--parallel", "4"]);
    assert!(out.contains("combiner 'even'"), "{out}");
    assert!(out.contains("Lemma 2.12"), "{out}");
    assert!(!out.contains("falls back to serial"), "{out}");

    // and run answers through the combiner route, no fallback event
    let out = run(&["run", "even(r1)", "--db", &db, "--parallel", "4"]);
    assert_eq!(out.trim(), "true", "Example 2.2's r1 has 6 tuples");
}

/// One representation at every worker count: `map` with a bare-valued
/// function is refused by the partition gate (§2.1: rows are tuples), so
/// the walker answers at 1, 2 and 4 workers alike. This pins identity
/// across worker counts, not that `succ` of a 1-tuple is right.
#[test]
fn bare_valued_map_prints_the_same_bytes_at_every_worker_count() {
    let db = example_db();
    let at = |w: &str| run(&["run", "map[succ](nums)", "--db", &db, "--parallel", w]);
    let one = at("1");
    assert_eq!(at("2"), one, "2 workers diverged from 1");
    assert_eq!(at("4"), one, "4 workers diverged from 1");
}
