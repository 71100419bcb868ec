//! Bench `parallel_speedup` — throughput of the morsel-driven executor
//! across worker counts on a join+select workload.
//!
//! Two outputs:
//!
//! 1. Criterion timings for the same physical plan at 1/2/4/8 workers.
//! 2. A `BENCH_parallel.json` report (written to the working directory)
//!    with median wall-clock per worker count, the speedup relative
//!    to one worker, and per-worker-count `exec.morsel_us` /
//!    `exec.fixpoint_round_us` latency histograms (the latter from a
//!    deep transitive closure on the per-round fixpoint route). Every
//!    row, one worker included, runs the same executor (inline at one
//!    worker), so `speedup` isolates parallelism. The algorithmic win of
//!    semi-naive rounds over the walker's naive inflationary loop is
//!    reported apart, as `seminaive_speedup` (both at one worker, not
//!    gated). On machines with ≥ 4 hardware threads the harness
//!    *asserts* the PR's acceptance bound: ≥ 1.5× at 4 workers. On
//!    smaller machines (CI containers with 1-2 cores) the assertion is
//!    skipped — parallel speedup is physically impossible there — but
//!    the report is still written and result parity is still checked.

use criterion::{black_box, Criterion};
use genpar_algebra::eval::eval;
use genpar_algebra::{Pred, Query};
use genpar_engine::workload::{generate_edges, generate_keyed_pair, generate_table, WorkloadSpec};
use genpar_engine::{lower, Catalog};
use genpar_exec::{db_from_catalog, eval_query, EvalParallel, ExecConfig};
use genpar_obs::Json;
use genpar_optimizer::{route_costs, Calibration};
use genpar_value::rows_to_value;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn catalog() -> Catalog {
    let mut rng = StdRng::seed_from_u64(42);
    let (r, s) = generate_keyed_pair(&mut rng, 20_000, 3, 0.4);
    let t = generate_table(
        &mut rng,
        "T",
        WorkloadSpec {
            rows: 5_000,
            arity: 2,
            value_range: 100,
            key_on_first: false,
        },
    );
    Catalog::new().with(r).with(s).with(t)
}

/// The join+select workload from the issue: a keyed hash join feeding a
/// selection and a projection — enough per-morsel work for the pool to
/// amortize its scheduling overhead.
fn workload() -> Query {
    Query::rel("R")
        .join_on(Query::rel("S"), [(0, 0)])
        .select(Pred::eq_cols(1, 4))
        .project([0, 1, 2])
}

/// A deep transitive closure for the per-round fixpoint route: a pure
/// 96-node chain (no shortcut edges, which would collapse the closure
/// depth) forces ~95 semi-naive rounds, enough samples for a stable
/// `exec.fixpoint_round_us` p95.
fn fixpoint_catalog() -> Catalog {
    let mut rng = StdRng::seed_from_u64(7);
    Catalog::new().with(generate_edges(&mut rng, "E", 96, 0.0, true))
}

fn fixpoint_workload() -> Query {
    Query::fixpoint(
        "X",
        Query::rel("E"),
        Query::rel("X")
            .join_on(Query::rel("E"), [(1, 0)])
            .project(vec![0, 3]),
    )
}

/// Scan-filter workload for the VM-vs-AST comparison: a selection whose
/// predicate tree is deep enough that the walker's recursive dispatch —
/// not the scan — is the dominant per-tuple cost. This is the shape the
/// bytecode VM exists for.
fn vm_filter_catalog() -> Catalog {
    let mut rng = StdRng::seed_from_u64(11);
    Catalog::new().with(generate_table(
        &mut rng,
        "R",
        WorkloadSpec {
            rows: 40_000,
            arity: 3,
            value_range: 8,
            key_on_first: false,
        },
    ))
}

fn vm_filter_workload() -> Query {
    let mut p = Pred::True;
    for k in 0..12i64 {
        let col = (k as usize) % 3;
        let leaf = Pred::eq_const(col, genpar_value::Value::Int(k % 7))
            .or(Pred::eq_cols(col, (col + 1) % 3))
            .or(Pred::Named("even".into(), vec![col]));
        p = p.and(leaf);
    }
    Query::rel("R").select(p)
}

fn bench_workers(c: &mut Criterion) {
    let mut group = c.benchmark_group("exec/parallel");
    group.sample_size(10);
    let cat = catalog();
    let plan = lower(&workload()).expect("workload lowers");
    for w in WORKER_COUNTS {
        let cfg = ExecConfig::serial().with_workers(w);
        group.bench_function(format!("workers/{w}"), |b| {
            b.iter(|| black_box(plan.eval_parallel(&cat, &cfg).expect("workload runs")))
        });
    }
    group.finish();
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

/// Measure medians per worker count for **two workload shapes**, check
/// result parity, write the JSON report (schema v3: every result is
/// tagged with its `shape` and serial `model_cost_cells`, so
/// `genpar calibrate` can separate the per-worker overhead fraction from
/// the startup term — a single shape leaves them colinear), and
/// (hardware permitting) assert the 4-worker bound on the scan shape.
/// Sum of every `exec.degrade_step.*` counter in a snapshot: recovery
/// rungs taken during the measured runs. The clean benchmark path must
/// never take one — `bench-compare` fails on a nonzero value. The
/// cooperative watchdog (`exec.watchdog`) is deliberately excluded: an
/// observed overrun is a latency anecdote, not a degradation.
fn degrade_steps(snap: &genpar_obs::Snapshot) -> u64 {
    snap.counters
        .iter()
        .filter(|(k, _)| k.starts_with("exec.degrade_step."))
        .map(|(_, v)| *v)
        .sum()
}

fn verify_speedup_and_report() {
    const ROUNDS: usize = 9;
    let cat = catalog();
    let q = workload();
    let plan = lower(&q).expect("workload lowers");
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cal = Calibration::default();

    genpar_obs::set_enabled(true);
    let serial_rows = plan
        .eval_parallel(&cat, &ExecConfig::serial())
        .expect("serial run")
        .0;
    assert_eq!(
        rows_to_value(serial_rows.clone()),
        eval(&q, &db_from_catalog(&cat)).expect("walker run"),
        "the executor disagrees with the walker"
    );

    let fix_cat = fixpoint_catalog();
    let fix_q = fixpoint_workload();
    let fix_db = db_from_catalog(&fix_cat);
    let fix_truth = eval(&fix_q, &fix_db).expect("walker fixpoint run");
    // the walker's naive inflationary loop, timed for seminaive_speedup
    let walker_fix_median = median(
        (0..ROUNDS)
            .map(|_| {
                let t = Instant::now();
                black_box(eval(&fix_q, &fix_db).expect("walker fixpoint run"));
                t.elapsed()
            })
            .collect(),
    );

    // scan shape: the keyed join+select — large per-morsel work, slope
    // dominated by the per-worker overhead fraction
    let mut scan_medians: Vec<(usize, Duration)> = Vec::new();
    let mut morsel_stats: Vec<genpar_obs::HistogramSnapshot> = Vec::new();
    let mut scan_degrades: Vec<u64> = Vec::new();
    let mut fix_degrades: Vec<u64> = Vec::new();
    // fixpoint shape: ~95 short semi-naive rounds — each round pays the
    // startup term, so the slope is dominated by startup/cost
    let mut fix_medians: Vec<(usize, Duration)> = Vec::new();
    let mut round_stats: Vec<genpar_obs::HistogramSnapshot> = Vec::new();
    for &w in &WORKER_COUNTS {
        let cfg = ExecConfig::serial().with_workers(w);
        // parity first: every worker count must produce the serial rows
        let rows = plan.eval_parallel(&cat, &cfg).expect("parallel run").0;
        assert_eq!(rows, serial_rows, "worker count {w} changed the result");
        genpar_obs::reset();
        let mut samples = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let t = Instant::now();
            black_box(plan.eval_parallel(&cat, &cfg).expect("parallel run"));
            samples.push(t.elapsed());
        }
        scan_medians.push((w, median(samples)));
        let snap = genpar_obs::snapshot();
        scan_degrades.push(degrade_steps(&snap));
        morsel_stats.push(
            snap.histograms
                .get("exec.morsel_us")
                .copied()
                .unwrap_or_default(),
        );
        // the fixpoint shape, timed on the same worker count
        genpar_obs::reset();
        let mut samples = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let t = Instant::now();
            let (fix_v, _, _) = eval_query(&fix_q, &fix_cat, &cfg).expect("parallel fixpoint run");
            samples.push(t.elapsed());
            assert_eq!(fix_v, fix_truth, "worker count {w} changed the fixpoint");
        }
        fix_medians.push((w, median(samples)));
        let snap = genpar_obs::snapshot();
        fix_degrades.push(degrade_steps(&snap));
        round_stats.push(
            snap.histograms
                .get("exec.fixpoint_round_us")
                .copied()
                .unwrap_or_default(),
        );
    }

    // VM-vs-AST on the scan-filter shape: same plan, same pool, same
    // morsel size — only the expression engine differs. Measured at 2
    // workers so the morsel kernels (the compile-once path) are what is
    // timed; parity is asserted before either mode is clocked.
    let vm_workers = 2usize;
    let vm_cat = vm_filter_catalog();
    let vm_plan = lower(&vm_filter_workload()).expect("vm workload lowers");
    let vm_cfg = ExecConfig::serial().with_workers(vm_workers);
    genpar_algebra::vm::set_enabled(false);
    let ast_rows = vm_plan.eval_parallel(&vm_cat, &vm_cfg).expect("ast run").0;
    genpar_algebra::vm::set_enabled(true);
    let vm_rows = vm_plan.eval_parallel(&vm_cat, &vm_cfg).expect("vm run").0;
    assert_eq!(vm_rows, ast_rows, "VM mode changed the filter result");
    let time_mode = |vm_on: bool| {
        genpar_algebra::vm::set_enabled(vm_on);
        genpar_obs::reset();
        let mut samples = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let t = Instant::now();
            black_box(
                vm_plan
                    .eval_parallel(&vm_cat, &vm_cfg)
                    .expect("vm-mode run"),
            );
            samples.push(t.elapsed());
        }
        let snap = genpar_obs::snapshot();
        let hist = snap
            .histograms
            .get("exec.morsel_us")
            .copied()
            .unwrap_or_default();
        (median(samples), hist, degrade_steps(&snap))
    };
    let (ast_median, ast_hist, ast_deg) = time_mode(false);
    let (vm_median, vm_hist, vm_deg) = time_mode(true);
    genpar_algebra::vm::set_enabled(true);
    let vm_speedup = ast_median.as_secs_f64() / vm_median.as_secs_f64();
    println!(
        "exec/parallel: vm_speedup={vm_speedup:.2}x at {vm_workers} workers \
         (ast median {ast_median:?} p95 {}µs, vm median {vm_median:?} p95 {}µs)",
        ast_hist.p95, vm_hist.p95
    );

    // semi-naive rounds against the walker's naive loop, both at one
    // worker: an algorithmic ratio, not parallelism
    let fix_one = fix_medians[0].1;
    let seminaive_speedup = walker_fix_median.as_secs_f64() / fix_one.as_secs_f64();
    println!(
        "exec/parallel: seminaive_speedup={seminaive_speedup:.2}x at 1 worker \
         (walker median {walker_fix_median:?}, executor median {fix_one:?})"
    );

    let base = scan_medians[0].1.as_secs_f64();
    let four = scan_medians
        .iter()
        .find(|(w, _)| *w == 4)
        .expect("4-worker sample")
        .1
        .as_secs_f64();
    let speedup4 = base / four;
    let asserted = hw >= 4;
    let skip_reason = if asserted {
        Json::Null
    } else {
        Json::str(format!(
            "{hw} hardware thread(s): a 4-worker speedup is physically impossible here"
        ))
    };

    let mut results = Vec::new();
    // one result row per (shape, workers): the shape tag plus the
    // *serial* model cost is exactly what the two-regressor calibration
    // fit needs (x₂ = (w−1)/C_shape)
    for (shape, query, catalog, shape_medians, hist_key, hists, degrades) in [
        (
            "scan",
            &q,
            &cat,
            &scan_medians,
            "morsel_us",
            &morsel_stats,
            &scan_degrades,
        ),
        (
            "fixpoint",
            &fix_q,
            &fix_cat,
            &fix_medians,
            "fixpoint_round_us",
            &round_stats,
            &fix_degrades,
        ),
    ] {
        let shape_base = shape_medians[0].1.as_secs_f64();
        let serial_cells = route_costs(query, catalog, 1, &cal).serial.cost;
        for (((w, m), h), d) in shape_medians.iter().zip(hists).zip(degrades) {
            results.push(Json::obj([
                ("workers", Json::Int(*w as i128)),
                ("shape", Json::str(shape)),
                ("median_us", Json::Num(m.as_secs_f64() * 1e6)),
                ("speedup", Json::Num(shape_base / m.as_secs_f64())),
                ("model_cost_cells", Json::Num(serial_cells)),
                ("degrade_steps", Json::Int(*d as i128)),
                (hist_key, h.to_json()),
            ]));
            println!(
                "exec/parallel: shape={shape} workers={w} median={m:?} speedup={:.2}x \
                 {hist_key} p50/p95/p99 = {}/{}/{} µs over {} samples",
                shape_base / m.as_secs_f64(),
                h.p50,
                h.p95,
                h.p99,
                h.count,
            );
        }
    }
    let report = Json::obj([
        ("bench", Json::str("parallel_speedup")),
        ("schema_version", Json::Int(4)),
        ("workload", Json::str(q.to_string())),
        ("hardware_threads", Json::Int(hw as i128)),
        ("asserted", Json::Bool(asserted)),
        ("skip_reason", skip_reason),
        ("calibration", cal.to_json()),
        // schema v4: the VM-vs-AST comparison on the scan-filter shape —
        // `bench-compare` gates vm_morsel_us.p95 against ast_morsel_us.p95
        // always, and vm_speedup ≥ 1.2 when the hardware can show it
        ("vm_speedup", Json::Num(vm_speedup)),
        (
            "vm_filter",
            Json::obj([
                ("workload", Json::str(vm_filter_workload().to_string())),
                ("workers", Json::Int(vm_workers as i128)),
                ("ast_median_us", Json::Num(ast_median.as_secs_f64() * 1e6)),
                ("vm_median_us", Json::Num(vm_median.as_secs_f64() * 1e6)),
                ("ast_degrade_steps", Json::Int(ast_deg as i128)),
                ("vm_degrade_steps", Json::Int(vm_deg as i128)),
                ("ast_morsel_us", ast_hist.to_json()),
                ("vm_morsel_us", vm_hist.to_json()),
            ]),
        ),
        // reported, not gated: the walker's naive fixpoint loop against
        // the executor's semi-naive rounds, both at one worker
        ("seminaive_speedup", Json::Num(seminaive_speedup)),
        (
            "seminaive",
            Json::obj([
                ("workload", Json::str(fix_q.to_string())),
                ("workers", Json::Int(1)),
                (
                    "walker_median_us",
                    Json::Num(walker_fix_median.as_secs_f64() * 1e6),
                ),
                ("executor_median_us", Json::Num(fix_one.as_secs_f64() * 1e6)),
            ]),
        ),
        ("results", Json::Arr(results)),
    ]);
    // anchor to the workspace root so the report lands in one place no
    // matter where cargo set the bench's working directory
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_parallel.json");
    std::fs::write(&path, format!("{report}\n")).expect("write BENCH_parallel.json");
    println!("exec/parallel: wrote {}", path.display());

    if asserted {
        assert!(
            speedup4 >= 1.5,
            "4-worker speedup {speedup4:.2}x below the 1.5x acceptance bound \
             on a {hw}-thread machine"
        );
        println!("exec/parallel: OK ({speedup4:.2}x at 4 workers, bound 1.5x)");
    } else {
        println!(
            "exec/parallel: SKIPPED — speedup assertion not run: {hw} hardware \
             thread(s); 4-worker speedup was {speedup4:.2}x (recorded in \
             BENCH_parallel.json as asserted=false)"
        );
    }
}

fn main() {
    let mut c = Criterion::default();
    bench_workers(&mut c);
    verify_speedup_and_report();
}
