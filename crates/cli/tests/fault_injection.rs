//! End-to-end robustness tests: spawn the real `genpar` binary with
//! `GENPAR_FAULTS` / `GENPAR_BUDGET` armed and assert every injected
//! fault or budget breach becomes a rendered stderr message with the
//! documented exit code — never a panic trace.
//!
//! Each test is its own process spawn, so the process-global fault
//! table never crosses tests.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU32, Ordering};

fn genpar() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_genpar"));
    // The CI parallel job exports these globally; tests pin their own.
    cmd.env_remove("GENPAR_FAULTS")
        .env_remove("GENPAR_BUDGET")
        .env_remove("GENPAR_PARALLEL")
        .env_remove("GENPAR_RETRY");
    cmd
}

/// Write a temp `.gdb` file and return its path.
fn write_db(contents: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let path =
        std::env::temp_dir().join(format!("genpar-fault-test-{}-{n}.gdb", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

fn small_db() -> PathBuf {
    write_db("R = {(1, 2), (2, 3), (3, 4)}\nS = {(1, 9)}\n")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// No panic traces may reach the user, under any failure.
fn assert_no_panic(out: &Output) {
    let err = stderr_of(out);
    assert!(
        !err.contains("panicked at") && !err.contains("RUST_BACKTRACE"),
        "panic leaked to stderr: {err}"
    );
}

fn assert_fault_exit(out: &Output, site: &str) {
    assert_no_panic(out);
    assert_eq!(
        out.status.code(),
        Some(5),
        "expected internal-error exit 5 for fault at {site}; stderr: {}",
        stderr_of(out)
    );
    let err = stderr_of(out);
    assert!(err.starts_with("error:"), "unrendered stderr: {err}");
    assert!(err.contains(site), "message should name the site: {err}");
}

#[test]
fn algebra_eval_fault_exits_5() {
    let db = small_db();
    let out = genpar()
        .env("GENPAR_FAULTS", "algebra.eval:1")
        .args(["run", "--db", db.to_str().unwrap(), "R"])
        .output()
        .unwrap();
    assert_fault_exit(&out, "algebra.eval");
}

#[test]
fn checker_invariance_fault_exits_5() {
    let out = genpar()
        .env("GENPAR_FAULTS", "checker.invariance:1")
        .args(["check", "pi[$1](R)"])
        .output()
        .unwrap();
    assert_fault_exit(&out, "checker.invariance");
}

#[test]
fn probe_reports_checker_fault() {
    // probe runs the checker once per rung; fault the first invocation.
    let out = genpar()
        .env("GENPAR_FAULTS", "checker.invariance:1")
        .args(["probe", "pi[$1](R)"])
        .output()
        .unwrap();
    assert_fault_exit(&out, "checker.invariance");
}

#[test]
fn optimizer_rewrite_fault_degrades_to_success() {
    // Graceful degradation: the optimizer falls back to the original
    // plan, so the command still succeeds (exit 0) and the trace is
    // empty rather than the process failing.
    let out = genpar()
        .env("GENPAR_FAULTS", "optimizer.rewrite:1")
        .args(["optimize", "pi[$1](union(R, S))"])
        .output()
        .unwrap();
    assert_no_panic(&out);
    assert_eq!(
        out.status.code(),
        Some(0),
        "degraded optimizer should still succeed; stderr: {}",
        stderr_of(&out)
    );
}

#[test]
fn optimizer_cost_fault_degrades_to_success() {
    let out = genpar()
        .env("GENPAR_FAULTS", "optimizer.cost:1")
        .args(["optimize", "pi[$1](union(R, S))"])
        .output()
        .unwrap();
    assert_no_panic(&out);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
}

#[test]
fn unfired_fault_leaves_command_untouched() {
    let db = small_db();
    // nth=9 is never reached: the command must behave normally.
    let out = genpar()
        .env("GENPAR_FAULTS", "algebra.eval:9")
        .args(["run", "--db", db.to_str().unwrap(), "R"])
        .output()
        .unwrap();
    assert_no_panic(&out);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
}

#[test]
fn bad_fault_spec_is_usage_error() {
    let out = genpar()
        .env("GENPAR_FAULTS", "no spaces allowed:x")
        .args(["classify", "R"])
        .output()
        .unwrap();
    assert_no_panic(&out);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("GENPAR_FAULTS"));
}

#[test]
fn bad_budget_spec_is_usage_error() {
    let out = genpar()
        .env("GENPAR_BUDGET", "rows=lots")
        .args(["classify", "R"])
        .output()
        .unwrap();
    assert_no_panic(&out);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("GENPAR_BUDGET"));
}

#[test]
fn powerset_of_30_exceeds_default_budget() {
    // The powerset cap is always armed (default 20 elements); a
    // 30-element input must exit 4 with a structured message, promptly.
    let elems: Vec<String> = (1..=30).map(|i| i.to_string()).collect();
    let db = write_db(&format!("R = {{{}}}\n", elems.join(", ")));
    let out = genpar()
        .args(["run", "--db", db.to_str().unwrap(), "powerset(R)"])
        .output()
        .unwrap();
    assert_no_panic(&out);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("budget exceeded"), "{err}");
    assert!(err.contains("powerset"), "{err}");
    assert!(err.contains("30"), "{err}");
}

#[test]
fn env_budget_rows_cap_exits_4() {
    let db = small_db();
    let out = genpar()
        .env("GENPAR_BUDGET", "rows=2")
        .args(["run", "--db", db.to_str().unwrap(), "R"])
        .output()
        .unwrap();
    assert_no_panic(&out);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("budget exceeded"));
}

#[test]
fn env_budget_steps_deadline_exits_4() {
    let db = small_db();
    let out = genpar()
        .env("GENPAR_BUDGET", "steps=1")
        .args(["run", "--db", db.to_str().unwrap(), "product(R, S)"])
        .output()
        .unwrap();
    assert_no_panic(&out);
    assert_eq!(out.status.code(), Some(4), "stderr: {}", stderr_of(&out));
}

fn example_db() -> String {
    format!(
        "{}/../../examples/data/example_2_2.gdb",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// A certified transitive closure: it takes the per-round fixpoint route
/// at every worker count, one included.
const CLOSURE: &str = "fix[X](r1, pi[$1,$4](join[$2=$1](X, r1)))";

#[test]
fn one_worker_fixpoint_round_fault_is_retried_with_the_clean_answer() {
    let db = example_db();
    let clean = genpar()
        .args(["run", "--db", &db, CLOSURE])
        .output()
        .unwrap();
    assert_eq!(clean.status.code(), Some(0), "{}", stderr_of(&clean));
    let out = genpar()
        .env("GENPAR_FAULTS", "exec.fixpoint_round:1")
        .args(["run", "--db", &db, CLOSURE])
        .output()
        .unwrap();
    assert_no_panic(&out);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    assert_eq!(
        out.stdout, clean.stdout,
        "a retried round changed the answer"
    );
}

#[test]
fn fixpoint_depth_budget_exits_4_on_the_executor_at_every_worker_count() {
    let db = example_db();
    // one worker is the default: no --parallel
    for workers in [&[][..], &["--parallel", "2"][..]] {
        let out = genpar()
            .env("GENPAR_BUDGET", "depth=1")
            .args(["run", "--db", &db])
            .args(workers)
            .arg(CLOSURE)
            .output()
            .unwrap();
        assert_no_panic(&out);
        assert_eq!(out.status.code(), Some(4), "stderr: {}", stderr_of(&out));
        let err = stderr_of(&out);
        assert!(err.contains("fixpoint"), "{err}");
        // the executor's partial progress, not the walker's
        assert!(err.contains("probes"), "{workers:?}: {err}");
    }
}

#[test]
fn malformed_retry_and_parallel_env_vars_are_usage_errors() {
    let db = small_db();
    let db = db.to_str().unwrap();
    let retry_run: &[&str] = &["run", "--parallel", "2", "--db", db, "R"];
    let plain_run: &[&str] = &["run", "--db", db, "R"];
    for (var, value, args) in [
        ("GENPAR_RETRY", "banana", retry_run),
        ("GENPAR_RETRY", "17", retry_run),
        ("GENPAR_PARALLEL", "two", plain_run),
        ("GENPAR_PARALLEL", "-1", plain_run),
    ] {
        let out = genpar().env(var, value).args(args).output().unwrap();
        assert_no_panic(&out);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{var}={value}: stderr: {}",
            stderr_of(&out)
        );
        assert!(stderr_of(&out).contains(var), "{}", stderr_of(&out));
    }
    // empty means unset: CI runs `GENPAR_PARALLEL= genpar run ...`
    for var in ["GENPAR_RETRY", "GENPAR_PARALLEL"] {
        let out = genpar().env(var, "").args(plain_run).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{var}=: {}", stderr_of(&out));
    }
}

#[test]
fn retry_env_var_sets_the_retry_rung() {
    // with GENPAR_RETRY=0 a single morsel fault skips the retry rung and
    // degrades to serial; by default it is retried in place. Either
    // way the answer is the serial one.
    let db = small_db();
    let db = db.to_str().unwrap();
    let query = "pi[$1,$4](join[$1=$1](R, S))";
    let serial = genpar().args(["run", "--db", db, query]).output().unwrap();
    assert_eq!(serial.status.code(), Some(0), "{}", stderr_of(&serial));
    for (retry, taken, skipped) in [
        (
            Some("0"),
            "exec.degrade_step.serial = 1",
            "exec.degrade_step.retry",
        ),
        (
            None,
            "exec.degrade_step.retry = 1",
            "exec.degrade_step.serial",
        ),
    ] {
        let armed = || {
            let mut cmd = genpar();
            cmd.env("GENPAR_FAULTS", "exec.morsel:1");
            if let Some(n) = retry {
                cmd.env("GENPAR_RETRY", n);
            }
            cmd
        };
        let prof = armed()
            .args(["profile", "--parallel", "4", "--db", db, query])
            .output()
            .unwrap();
        assert_no_panic(&prof);
        assert_eq!(prof.status.code(), Some(0), "{}", stderr_of(&prof));
        let text = String::from_utf8_lossy(&prof.stdout);
        assert!(text.contains(taken), "GENPAR_RETRY={retry:?}: {text}");
        assert!(!text.contains(skipped), "GENPAR_RETRY={retry:?}: {text}");

        let run = armed()
            .args(["run", "--parallel", "4", "--db", db, query])
            .output()
            .unwrap();
        assert_eq!(run.status.code(), Some(0), "{}", stderr_of(&run));
        assert_eq!(run.stdout, serial.stdout, "GENPAR_RETRY={retry:?}");
    }
}

#[test]
fn parallel_morsel_fault_recovers_via_retry() {
    // The recovery ladder, end to end: a single injected morsel fault is
    // retried in place, the query stays on the parallel path (no
    // serial fallback), and the answer matches the fault-free run.
    let db = small_db();
    let query = "pi[$1](select[$2=$2](R))";
    let clean = genpar()
        .args(["run", "--db", db.to_str().unwrap(), query])
        .output()
        .unwrap();
    assert_eq!(clean.status.code(), Some(0), "{}", stderr_of(&clean));
    let out = genpar()
        .env("GENPAR_FAULTS", "exec.morsel:1")
        .args([
            "run",
            "--db",
            db.to_str().unwrap(),
            "--parallel",
            "4",
            query,
        ])
        .output()
        .unwrap();
    assert_no_panic(&out);
    assert_eq!(
        out.status.code(),
        Some(0),
        "a single morsel fault must be retried, not fatal; stderr: {}",
        stderr_of(&out)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&clean.stdout),
        "retried run must produce the fault-free answer"
    );
    // profile --json exposes the counters: the retry rung fired, the
    // serial-fallback rung did not.
    let prof = genpar()
        .env("GENPAR_FAULTS", "exec.morsel:1")
        .args([
            "profile",
            "--db",
            db.to_str().unwrap(),
            "--parallel",
            "4",
            "--json",
            query,
        ])
        .output()
        .unwrap();
    assert_no_panic(&prof);
    assert_eq!(prof.status.code(), Some(0), "{}", stderr_of(&prof));
    let json = String::from_utf8_lossy(&prof.stdout);
    assert!(
        json.contains("exec.degrade_step.retry"),
        "retry counter missing from profile: {json}"
    );
    assert!(
        !json.contains("exec.fallbacks"),
        "single fault must not reach the serial-fallback rung: {json}"
    );
}

#[test]
fn persistent_parallel_fault_degrades_to_serial_answer() {
    // Exhausting the ladder (every hit of the site faults) must still
    // answer — degraded to the serial interpreter, byte-identical.
    let db = small_db();
    let query = "pi[$1](select[$2=$2](R))";
    let clean = genpar()
        .args(["run", "--db", db.to_str().unwrap(), query])
        .output()
        .unwrap();
    let out = genpar()
        .env("GENPAR_FAULTS", "exec.morsel:*")
        .args([
            "run",
            "--db",
            db.to_str().unwrap(),
            "--parallel",
            "4",
            query,
        ])
        .output()
        .unwrap();
    assert_no_panic(&out);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&clean.stdout),
        "degraded run must produce the fault-free answer"
    );
}

#[test]
fn profile_under_persistent_morsel_fault_degrades_and_counts_it() {
    // profile runs the executor at every worker count, one included:
    // with every morsel faulting, the ladder's last rung answers on the
    // walker and the profile counts the serial degrade step
    let db = small_db();
    for workers in ["1", "4"] {
        let out = genpar()
            .env("GENPAR_FAULTS", "exec.morsel:*")
            .args([
                "profile",
                "--db",
                db.to_str().unwrap(),
                "--parallel",
                workers,
                "--json",
                "pi[$1](R)",
            ])
            .output()
            .unwrap();
        assert_no_panic(&out);
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
        let json = String::from_utf8_lossy(&out.stdout);
        assert!(
            json.contains("\"exec.degrade_step.serial\":1"),
            "serial degrade step missing at {workers} worker(s): {json}"
        );
    }
}

#[test]
fn unknown_fault_site_is_usage_error_naming_the_token() {
    let out = genpar()
        .env("GENPAR_FAULTS", "exec.morsel:1,exec.morsle:2")
        .args(["classify", "R"])
        .output()
        .unwrap();
    assert_no_panic(&out);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("exec.morsle"), "must name the bad site: {err}");
    assert!(err.contains("GENPAR_FAULTS"), "{err}");
}

#[test]
fn bad_fault_nth_is_usage_error_naming_the_token() {
    let out = genpar()
        .env("GENPAR_FAULTS", "exec.morsel:soon")
        .args(["classify", "R"])
        .output()
        .unwrap();
    assert_no_panic(&out);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("soon"), "must name the bad count: {err}");
}

#[test]
fn timeout_flag_exits_4_with_wall_resource() {
    // A deliberately heavy query under a 1 ms deadline: the watchdog
    // cancels it through the budget machinery (exit 4, resource
    // wall_ms), never a panic or a hang.
    let elems: Vec<String> = (1..=300).map(|i| format!("({i}, {})", i % 7)).collect();
    let db = write_db(&format!("R = {{{0}}}\nS = {{{0}}}\n", elems.join(", ")));
    let out = genpar()
        .args([
            "run",
            "--db",
            db.to_str().unwrap(),
            "--timeout",
            "1",
            "product(R, S)",
        ])
        .output()
        .unwrap();
    assert_no_panic(&out);
    assert_eq!(
        out.status.code(),
        Some(4),
        "wall deadline is a budget breach; stderr: {}",
        stderr_of(&out)
    );
    let err = stderr_of(&out);
    assert!(err.contains("wall_ms"), "must name the resource: {err}");
}

#[test]
fn generous_timeout_leaves_the_answer_alone() {
    let db = small_db();
    let plain = genpar()
        .args(["run", "--db", db.to_str().unwrap(), "R"])
        .output()
        .unwrap();
    let timed = genpar()
        .args([
            "run",
            "--db",
            db.to_str().unwrap(),
            "--timeout",
            "60000",
            "R",
        ])
        .output()
        .unwrap();
    assert_no_panic(&timed);
    assert_eq!(
        timed.status.code(),
        Some(0),
        "stderr: {}",
        stderr_of(&timed)
    );
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&timed.stdout)
    );
}

#[test]
fn chaos_subcommand_passes_a_fixed_seed_storm() {
    let out = genpar()
        .args(["chaos", "--seed", "7", "--cases", "8"])
        .output()
        .unwrap();
    assert_no_panic(&out);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("8 case(s) with seed 7"), "{text}");
    assert!(text.contains("byte-identical"), "{text}");
}

#[test]
fn parallel_env_var_output_matches_serial() {
    let db = small_db();
    let query = "pi[$1,$4](join[$1=$1](R, S))";
    let serial = genpar()
        .args(["run", "--db", db.to_str().unwrap(), query])
        .output()
        .unwrap();
    assert_eq!(serial.status.code(), Some(0), "{}", stderr_of(&serial));
    let parallel = genpar()
        .env("GENPAR_PARALLEL", "4")
        .args(["run", "--db", db.to_str().unwrap(), query])
        .output()
        .unwrap();
    assert_no_panic(&parallel);
    assert_eq!(parallel.status.code(), Some(0), "{}", stderr_of(&parallel));
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&parallel.stdout),
        "GENPAR_PARALLEL=4 must not change the answer"
    );
}

#[test]
fn bad_parallel_flag_is_usage_error() {
    let db = small_db();
    let out = genpar()
        .args([
            "run",
            "--db",
            db.to_str().unwrap(),
            "--parallel",
            "zero?",
            "R",
        ])
        .output()
        .unwrap();
    assert_no_panic(&out);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
}

#[test]
fn parse_error_exits_3_and_usage_exits_2() {
    let out = genpar().args(["classify", "pi[$1]((("]).output().unwrap();
    assert_no_panic(&out);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));

    let out = genpar().args(["frobnicate"]).output().unwrap();
    assert_no_panic(&out);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));

    let db = write_db("R = not-a-value\n");
    let out = genpar()
        .args(["run", "--db", db.to_str().unwrap(), "R"])
        .output()
        .unwrap();
    assert_no_panic(&out);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("byte"), "{}", stderr_of(&out));
}
