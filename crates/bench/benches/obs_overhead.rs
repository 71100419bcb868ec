//! Bench `obs_overhead` — the cost of the observability layer, and the
//! kill switch's near-zero-overhead claim.
//!
//! Two questions:
//!
//! 1. What does instrumentation cost when **enabled**? (a one-worker
//!    executor run with the global registry recording vs disabled —
//!    informative.)
//! 2. What does it cost when **disabled**? The design claim is that a
//!    disabled registry makes every recording call one relaxed atomic
//!    load; this harness *asserts* the disabled-path overhead against an
//!    uninstrumented baseline is ≤ 5% (the PR's acceptance bound).

use criterion::{black_box, Criterion};
use genpar_algebra::Query;
use genpar_engine::workload::{generate_table, WorkloadSpec};
use genpar_engine::{lower, Catalog};
use genpar_exec::{EvalParallel, ExecConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn catalog(rows: usize) -> Catalog {
    let mut rng = StdRng::seed_from_u64(7);
    let spec = WorkloadSpec {
        rows,
        arity: 3,
        value_range: 50,
        key_on_first: false,
    };
    Catalog::new()
        .with(generate_table(&mut rng, "R", spec))
        .with(generate_table(&mut rng, "S", spec))
}

fn bench_execute_enabled_vs_disabled(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs/execute");
    group.sample_size(20);
    let cat = catalog(20_000);
    let q = Query::rel("R").union(Query::rel("S")).project([0]);
    let plan = lower(&q).unwrap();

    genpar_obs::set_enabled(true);
    group.bench_function("enabled", |b| {
        b.iter(|| black_box(plan.eval_parallel(&cat, &ExecConfig::serial()).unwrap()))
    });
    genpar_obs::set_enabled(false);
    group.bench_function("disabled", |b| {
        b.iter(|| black_box(plan.eval_parallel(&cat, &ExecConfig::serial()).unwrap()))
    });
    genpar_obs::set_enabled(true);
    genpar_obs::reset();
    group.finish();
}

/// A fixed arithmetic kernel standing in for per-operator work.
/// `inline(never)` so baseline and instrumented variants run the exact
/// same loop code and the comparison isolates the obs calls themselves.
#[inline(never)]
fn kernel(n: u64) -> u64 {
    let mut acc = 0u64;
    for i in 0..n {
        acc = acc.wrapping_add(black_box(i).wrapping_mul(2654435761));
    }
    acc
}

/// The kernel with per-call instrumentation, as an instrumented operator
/// would have: one span (with a field), one counter, and one histogram
/// sample per invocation — the same trio a timed morsel records.
fn kernel_instrumented(n: u64) -> u64 {
    let mut sp = genpar_obs::span("bench.op");
    genpar_obs::counter("bench.ops", 1);
    let acc = kernel(n);
    genpar_obs::record("bench.op_us", n);
    sp.field("rows", 1);
    acc
}

/// The kernel as a guarded operator would run it: one faultpoint and the
/// full set of per-operator budget charges around the work. With no
/// budget armed and no faults armed, each call is one relaxed atomic
/// load and an immediate return.
fn kernel_guarded(n: u64) -> u64 {
    genpar_guard::faultpoint("bench.op").expect("bench faults must be disarmed");
    genpar_guard::charge_steps(1, "bench.op").expect("no budget armed");
    let acc = kernel(n);
    genpar_guard::charge_rows(1, "bench.op").expect("no budget armed");
    genpar_guard::charge_cells(1, "bench.op").expect("no budget armed");
    acc
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// Assert the kill-switch claim: with the registry disabled, the
/// instrumented kernel runs within 5% of the uninstrumented baseline.
/// Samples are interleaved so drift hits both variants alike. Returns
/// the measured relative overhead for the JSON report.
fn verify_kill_switch_overhead() -> f64 {
    const KERNEL_OPS: u64 = 50_000;
    const ROUNDS: usize = 41;
    genpar_obs::set_enabled(false);
    // warmup
    black_box(kernel(KERNEL_OPS));
    black_box(kernel_instrumented(KERNEL_OPS));
    let mut base = Vec::with_capacity(ROUNDS);
    let mut instr = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        black_box(kernel(KERNEL_OPS));
        base.push(t.elapsed());
        let t = Instant::now();
        black_box(kernel_instrumented(KERNEL_OPS));
        instr.push(t.elapsed());
    }
    genpar_obs::set_enabled(true);
    genpar_obs::reset();
    let (mb, mi) = (median(base), median(instr));
    let overhead = mi.as_secs_f64() / mb.as_secs_f64() - 1.0;
    println!(
        "obs/kill_switch: baseline {mb:?}, instrumented-disabled {mi:?} ({:+.2}% overhead)",
        overhead * 100.0
    );
    // 5% relative bound plus a 2µs absolute floor so sub-microsecond
    // timer jitter cannot fail the run
    assert!(
        mi <= mb.mul_f64(1.05) + Duration::from_micros(2),
        "kill switch overhead above 5%: baseline {mb:?}, disabled-instrumented {mi:?}"
    );
    println!("obs/kill_switch: OK (≤ 5% bound holds)");
    overhead
}

/// Assert the disarmed-guard claim: with no budget and no faults armed,
/// a kernel wrapped in faultpoint + budget charges runs within 5% of the
/// uninstrumented baseline (same interleaved-median protocol as the obs
/// kill switch). Returns the measured relative overhead for the report.
fn verify_disarmed_guard_overhead() -> f64 {
    const KERNEL_OPS: u64 = 50_000;
    const ROUNDS: usize = 41;
    genpar_guard::disarm_faults();
    // warmup
    black_box(kernel(KERNEL_OPS));
    black_box(kernel_guarded(KERNEL_OPS));
    let mut base = Vec::with_capacity(ROUNDS);
    let mut guarded = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        black_box(kernel(KERNEL_OPS));
        base.push(t.elapsed());
        let t = Instant::now();
        black_box(kernel_guarded(KERNEL_OPS));
        guarded.push(t.elapsed());
    }
    let (mb, mg) = (median(base), median(guarded));
    let overhead = mg.as_secs_f64() / mb.as_secs_f64() - 1.0;
    println!(
        "guard/disarmed: baseline {mb:?}, guarded-disarmed {mg:?} ({:+.2}% overhead)",
        overhead * 100.0
    );
    assert!(
        mg <= mb.mul_f64(1.05) + Duration::from_micros(2),
        "disarmed guard overhead above 5%: baseline {mb:?}, guarded {mg:?}"
    );
    println!("guard/disarmed: OK (≤ 5% bound holds)");
    overhead
}

/// Assert the timeline claim: with observability *enabled*, turning the
/// per-thread timeline rings on costs ≤ 5% extra on a real plan
/// execution (same interleaved-median protocol as the kill-switch
/// check). This is the bound the tracing tentpole promises: recording a
/// begin/end instant pair per span is two ring-slot writes, not a lock.
/// Returns the measured relative overhead for the report.
fn verify_timeline_overhead() -> f64 {
    const ROUNDS: usize = 41;
    let cat = catalog(10_000);
    let q = Query::rel("R").union(Query::rel("S")).project([0]);
    let plan = lower(&q).expect("timeline workload lowers");

    genpar_obs::set_enabled(true);
    let prev = genpar_obs::timeline::enabled();
    // warmup both variants
    genpar_obs::timeline::set_enabled(false);
    black_box(
        plan.eval_parallel(&cat, &ExecConfig::serial())
            .expect("warmup run"),
    );
    genpar_obs::timeline::set_enabled(true);
    black_box(
        plan.eval_parallel(&cat, &ExecConfig::serial())
            .expect("warmup run"),
    );

    let mut off = Vec::with_capacity(ROUNDS);
    let mut on = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        genpar_obs::timeline::set_enabled(false);
        let t = Instant::now();
        black_box(
            plan.eval_parallel(&cat, &ExecConfig::serial())
                .expect("timeline-off run"),
        );
        off.push(t.elapsed());
        genpar_obs::timeline::set_enabled(true);
        let t = Instant::now();
        black_box(
            plan.eval_parallel(&cat, &ExecConfig::serial())
                .expect("timeline-on run"),
        );
        on.push(t.elapsed());
    }
    genpar_obs::timeline::set_enabled(prev);
    genpar_obs::reset();
    let (moff, mon) = (median(off), median(on));
    let overhead = mon.as_secs_f64() / moff.as_secs_f64() - 1.0;
    println!(
        "obs/timeline: timeline-off {moff:?}, timeline-on {mon:?} ({:+.2}% overhead)",
        overhead * 100.0
    );
    assert!(
        mon <= moff.mul_f64(1.05) + Duration::from_micros(2),
        "timeline overhead above 5%: off {moff:?}, on {mon:?}"
    );
    println!("obs/timeline: OK (≤ 5% bound holds)");
    overhead
}

/// Assert the scoped-recording claim: routing the instrumented kernel
/// through a per-query [`genpar_obs::Scope`] (creation, thread-local
/// dispatch on every call, and the roll-up merge on drop included)
/// costs ≤ 5% over the global-registry path. Each measured round runs a
/// batch of instrumented kernels so the per-round scope create/merge
/// amortizes the way one scope per served request does. Same
/// interleaved-median protocol as the other gates. Returns the measured
/// relative overhead for the report.
fn verify_scoped_overhead() -> f64 {
    const KERNEL_OPS: u64 = 20_000;
    const BATCH: usize = 32;
    const ROUNDS: usize = 41;
    genpar_obs::set_enabled(true);

    let global_round = || {
        let mut acc = 0u64;
        for _ in 0..BATCH {
            acc = acc.wrapping_add(black_box(kernel_instrumented(KERNEL_OPS)));
        }
        acc
    };
    let scoped_round = || {
        let scope = genpar_obs::Scope::for_request(0, Some("bench-tenant"));
        let guard = scope.enter();
        let mut acc = 0u64;
        for _ in 0..BATCH {
            acc = acc.wrapping_add(black_box(kernel_instrumented(KERNEL_OPS)));
        }
        drop(guard);
        drop(scope); // roll-up merge charged to the scoped variant
        acc
    };

    // warmup
    black_box(global_round());
    black_box(scoped_round());
    let mut global = Vec::with_capacity(ROUNDS);
    let mut scoped = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t = Instant::now();
        black_box(global_round());
        global.push(t.elapsed());
        let t = Instant::now();
        black_box(scoped_round());
        scoped.push(t.elapsed());
    }
    genpar_obs::reset();
    genpar_obs::scope::clear_rollups();
    let (mg, ms) = (median(global), median(scoped));
    let overhead = ms.as_secs_f64() / mg.as_secs_f64() - 1.0;
    println!(
        "obs/scoped: global-path {mg:?}, scoped-path {ms:?} ({:+.2}% overhead)",
        overhead * 100.0
    );
    assert!(
        ms <= mg.mul_f64(1.05) + Duration::from_micros(2),
        "scoped recording overhead above 5%: global {mg:?}, scoped {ms:?}"
    );
    println!("obs/scoped: OK (≤ 5% bound holds)");
    overhead
}

/// Write `BENCH_obs.json` (schema v4: adds `scoped_overhead`) so
/// `bench-compare` can catch regressions of the disabled-path,
/// timeline-enabled, and scoped-recording overheads against the
/// committed baseline.
fn write_report(
    kill_switch_overhead: f64,
    guard_overhead: f64,
    timeline_overhead: f64,
    scoped_overhead: f64,
) {
    use genpar_obs::Json;
    let report = Json::obj([
        ("bench", Json::str("obs_overhead")),
        ("schema_version", Json::Int(4)),
        ("bound", Json::Num(0.05)),
        ("asserted", Json::Bool(true)),
        ("skip_reason", Json::Null),
        (
            "kill_switch_overhead",
            Json::Num(kill_switch_overhead.max(0.0)),
        ),
        ("guard_overhead", Json::Num(guard_overhead.max(0.0))),
        ("timeline_overhead", Json::Num(timeline_overhead.max(0.0))),
        ("scoped_overhead", Json::Num(scoped_overhead.max(0.0))),
    ]);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_obs.json");
    std::fs::write(&path, format!("{report}\n")).expect("write BENCH_obs.json");
    println!("obs/kill_switch: wrote {}", path.display());
}

fn main() {
    let mut c = Criterion::default();
    bench_execute_enabled_vs_disabled(&mut c);
    let ks = verify_kill_switch_overhead();
    let guard = verify_disarmed_guard_overhead();
    let timeline = verify_timeline_overhead();
    let scoped = verify_scoped_overhead();
    write_report(ks, guard, timeline, scoped);
}
