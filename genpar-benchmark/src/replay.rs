//! The traced replay: the workload's request stream, run single-threaded
//! in-process against `ServeState::load` of the same `.gdb`, with a span
//! around every public call on the served path.
//!
//! Each request gets two root spans sharing its id:
//!
//! * `request` — the path a served request takes, one child per call in
//!   the order the server makes them: `serve.decode`, `obs.scope_open`,
//!   the handler, `obs.snapshot`, `obs.scope_rollup`, `serve.encode`.
//! * `probes` — layers the handler calls internally, each timed alone on
//!   the same query: `engine.lower`, `algebra.vm_compile`,
//!   `optimizer.explain` and `optimizer.persist`. Probes are in no sum.
//!
//! The stream is replayed in passes, and a request's handler alternates
//! between them. On even passes it is decomposed into the calls
//! `run_with` makes (`algebra.parse`, `core.gate` at two workers,
//! `exec.eval` or `algebra.eval`, `value.render`); on odd passes it runs
//! whole through `ServeState::execute`, as `serve.handler`. Every request
//! thus runs once per pass, after the same predecessor, so the two
//! medians compare like with like; running both forms back to back
//! would make whichever runs second look faster.

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::wire::{check_output, Expected};
use crate::workload::{Generated, Request};
use genpar_algebra::parse::parse_query;
use genpar_algebra::{Db, Query};
use genpar_cli::serve_cmd::ServeState;
use genpar_engine::{Catalog, Schema, Table};
use genpar_exec::ExecConfig;
use genpar_obs::Scope;
use genpar_optimizer::{
    estimate_nodes_with_sources, optimize_costed_parallel_with_stats, route_costs_with_stats,
    Calibration, Constraints, RuleSet, StatsStore,
};
use genpar_serve::protocol;
use genpar_serve::server::QueryHandler;
use genpar_value::{CvType, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Worker slots of the server (`--parallel`), and so of the replay.
pub const SERVE_WORKERS: usize = 2;

/// What the replay needs.
pub struct Input<'a> {
    /// The workload.
    pub gen: &'a Generated,
    /// Expected `run` answers.
    pub expected: &'a Expected,
    /// The `.gdb` the server loaded.
    pub gdb_path: &'a Path,
    /// A directory for the replay's own state files.
    pub dir: &'a Path,
    /// Keep replaying passes over the stream until this much time has
    /// passed; at least two passes always run.
    pub budget: Duration,
}

/// What the replay measured.
pub struct Replay {
    /// Every span.
    pub tracer: Tracer,
    /// Requests replayed.
    pub requests: u64,
    /// Requests whose answer was wrong or whose handler failed.
    pub failed: u64,
    /// The first few failures.
    pub failures: Vec<String>,
    /// Handlers run as layers: the layers' summed time, µs, by position
    /// in the request stream.
    pub layer_sums_us: Vec<Vec<f64>>,
    /// Handlers run whole, µs, by position in the request stream.
    pub wholes_us: Vec<Vec<f64>>,
    /// Over the first pass: rows processed by the executors.
    pub rows_processed: u64,
    /// Over the first pass: rows returned.
    pub rows_out: u64,
    /// Over the first pass: fixpoint rounds of the executor route.
    pub fixpoint_rounds: u64,
    /// Over the first pass: requests that took `exec.eval`.
    pub exec_requests: u64,
}

/// The catalog `genpar serve` builds from its database: one table per
/// relation, arity from its first tuple. The generated relations are
/// uniform tuples, so nothing needs normalising.
fn catalog_of(db: &Db) -> Result<Catalog, String> {
    let mut cat = Catalog::new();
    for (name, v) in db.relations() {
        let arity = v
            .as_set()
            .and_then(|s| s.iter().next())
            .and_then(|t| t.as_tuple())
            .map_or(2, |t| t.len());
        cat.add(Table::try_from_value(
            name.clone(),
            Schema::uniform(CvType::domain(0), arity),
            v,
        )?);
    }
    Ok(cat)
}

/// Rows an answer returns: a set's size, else one value.
fn rows_of(v: &Value) -> u64 {
    v.as_set().map_or(1, |s| s.len() as u64)
}

struct Ctx<'a> {
    state: ServeState,
    db: Db,
    catalog: Catalog,
    rules: RuleSet,
    cal: Calibration,
    stats_key: String,
    probe_store: StatsStore,
    probe_path: String,
    expected: &'a Expected,
}

/// Replay `input.gen`'s stream.
pub fn replay(input: &Input) -> Result<Replay, String> {
    // the server's process-wide worker-slot pool; first install wins
    genpar_exec::pool::install_worker_governor(SERVE_WORKERS);
    std::fs::create_dir_all(input.dir)
        .map_err(|e| format!("cannot create {}: {e}", input.dir.display()))?;
    let gdb = input.gdb_path.to_string_lossy().to_string();
    let (state, _warnings) = ServeState::load(&gdb, None, None, SERVE_WORKERS)
        .map_err(|e| format!("ServeState::load: {}", e.message))?;
    let db = genpar_cli::dbfile::load_db(&gdb).map_err(|e| e.message)?;
    let catalog = catalog_of(&db)?;
    let mut ctx = Ctx {
        state,
        db,
        catalog,
        rules: RuleSet::with_constraints(Constraints::none()),
        cal: Calibration::default(),
        stats_key: gdb,
        probe_store: StatsStore::new(),
        probe_path: input
            .dir
            .join("PROBE_STATS.json")
            .to_string_lossy()
            .to_string(),
        expected: input.expected,
    };
    let mut out = Replay {
        tracer: Tracer::default(),
        requests: 0,
        failed: 0,
        failures: Vec::new(),
        layer_sums_us: vec![Vec::new(); input.gen.requests.len()],
        wholes_us: vec![Vec::new(); input.gen.requests.len()],
        rows_processed: 0,
        rows_out: 0,
        fixpoint_rounds: 0,
        exec_requests: 0,
    };
    let stream = &input.gen.requests;
    let deadline = Instant::now() + input.budget;
    let mut n = 0usize;
    while n < 2 * stream.len() || Instant::now() < deadline {
        let (pass, at) = (n / stream.len(), n % stream.len());
        n += 1;
        out.requests += 1;
        if let Err(e) = replay_one(&mut ctx, &mut out, n as u64, &stream[at], at, pass) {
            out.failed += 1;
            if out.failures.len() < 5 {
                out.failures.push(e);
            }
        }
    }
    Ok(out)
}

fn replay_one(
    ctx: &mut Ctx,
    out: &mut Replay,
    id: u64,
    req: &Request,
    at: usize,
    pass: usize,
) -> Result<(), String> {
    let whole = pass % 2 == 1;
    out.tracer.begin("request", id);
    let served = served_path(ctx, &mut out.tracer, id, &req.line(), whole);
    out.tracer.end();
    let served = served?;
    check_output(&req.query, &served.answer, ctx.expected)?;
    if whole {
        out.wholes_us[at].push(served.handler_us);
    } else {
        out.layer_sums_us[at].push(served.handler_us);
    }
    if pass == 0 {
        if let Some((rows, exec)) = served.run {
            let counter = |k: &str| served.snap.counters.get(k).copied().unwrap_or(0);
            out.rows_out += rows;
            out.rows_processed +=
                counter("exec.rows_processed") + counter("algebra.tuples_scanned");
            if exec {
                out.exec_requests += 1;
                out.fixpoint_rounds += counter("exec.fixpoint_rounds");
            }
        }
    }
    probes(&mut out.tracer, ctx, id, req, &served.snap)
}

/// One request along the served path, under the `request` span.
struct Served {
    answer: String,
    /// Time in the handler's spans, µs.
    handler_us: f64,
    /// For a handler run as layers: rows returned, and whether the
    /// executor route ran.
    run: Option<(u64, bool)>,
    /// The request scope's snapshot.
    snap: genpar_obs::Snapshot,
}

fn served_path(
    ctx: &Ctx,
    tr: &mut Tracer,
    id: u64,
    line: &str,
    whole: bool,
) -> Result<Served, String> {
    let req = tr.time("serve.decode", id, || protocol::parse_request(line))?;
    let query = req.query.clone().unwrap_or_default();
    let (scope, guard, query_id) = tr.time("obs.scope_open", id, || {
        let query_id = genpar_obs::timeline::begin_query().0;
        let scope = Scope::for_request(query_id, Some(&req.tenant));
        let guard = scope.enter();
        (scope, guard, query_id)
    });
    let handler_start = tr.spans().len();
    let answer = if whole {
        tr.time("serve.handler", id, || {
            ctx.state.execute(req.op, &query, req.workers)
        })
        .map(|text| (text, None))
        .map_err(|e| format!("{} {query}: {}: {}", req.op.name(), e.kind, e.message))
    } else {
        run_layers(tr, ctx, id, &query, req.workers)
    };
    let handler_us: f64 = tr.spans()[handler_start..]
        .iter()
        .map(|s| s.dur_ns() as f64 / 1e3)
        .sum();
    let snap = tr.time("obs.snapshot", id, || scope.snapshot());
    tr.time("obs.scope_rollup", id, || {
        drop(guard);
        drop(scope);
    });
    let (answer, run) = answer?;
    let encoded = tr.time("serve.encode", id, || {
        protocol::ok_response(req.op, &req.tenant, query_id, &answer, handler_us as u64).to_string()
    });
    black_box(encoded);
    Ok(Served {
        answer,
        handler_us,
        run,
        snap,
    })
}

/// The calls `run_with` makes, each in its own span. Returns the
/// rendered answer with the rows it holds and whether the executor
/// route ran.
fn run_layers(
    tr: &mut Tracer,
    ctx: &Ctx,
    id: u64,
    query: &str,
    workers: Option<usize>,
) -> Result<(String, Option<(u64, bool)>), String> {
    let q = tr
        .time("algebra.parse", id, || parse_query(query))
        .map_err(|e| format!("run {query}: {e}"))?;
    let w = workers.unwrap_or(SERVE_WORKERS).max(1);
    let eligible = w > 1
        && tr.time("core.gate", id, || {
            let verdict = genpar_core::partition_safety(&q);
            if let genpar_core::PartitionSafety::Unsafe { op, reason } = verdict {
                genpar_exec::note_fallback(op, reason);
                false
            } else {
                true
            }
        });
    let v = if eligible {
        let cfg = ExecConfig::serial().with_workers(w);
        tr.time("exec.eval", id, || {
            genpar_exec::eval_query(&q, &ctx.catalog, &cfg)
        })
        .map(|(v, _stats, _route)| v)
        .map_err(|e| format!("run {query}: {e:?}"))?
    } else {
        tr.time("algebra.eval", id, || {
            genpar_algebra::eval::eval(&q, &ctx.db)
        })
        .map_err(|e| format!("run {query}: {e}"))?
    };
    let text = tr.time("value.render", id, || format!("{v}\n"));
    Ok((text, Some((rows_of(&v), eligible))))
}

/// Layers the served path calls inside a whole call, each timed alone.
fn probes(
    tr: &mut Tracer,
    ctx: &mut Ctx,
    id: u64,
    req: &Request,
    snap: &genpar_obs::Snapshot,
) -> Result<(), String> {
    let q = parse_query(&req.query).map_err(|e| format!("{}: {e}", req.query))?;
    let workers = req.workers;
    tr.begin("probes", id);
    tr.time("engine.lower", id, || black_box(genpar_engine::lower(&q)));
    tr.time("algebra.vm_compile", id, || {
        q.visit(&mut |node| match node {
            Query::Select(p, _) => {
                let _ = black_box(genpar_algebra::vm::compile_pred(p));
            }
            Query::Map(f, _) => {
                let _ = black_box(genpar_algebra::vm::compile_fn(f));
            }
            _ => {}
        })
    });
    // the server runs without --stats, so explain has no observed
    // statistics to consult
    let obs_stats = None;
    tr.time("optimizer.explain", id, || {
        let (chosen, _trace, _base, _new) = optimize_costed_parallel_with_stats(
            &q,
            &ctx.rules,
            &ctx.catalog,
            workers,
            &ctx.cal,
            obs_stats,
        );
        black_box(route_costs_with_stats(
            &chosen,
            &ctx.catalog,
            workers,
            &ctx.cal,
            obs_stats,
        ));
        black_box(estimate_nodes_with_sources(
            &chosen,
            &ctx.catalog,
            obs_stats,
        ));
    });
    let saved = tr.time("optimizer.persist", id, || {
        ctx.probe_store.harvest(&ctx.stats_key, snap);
        ctx.probe_store.save(&ctx.probe_path)
    });
    tr.end();
    saved.map_err(|e| format!("persist probe: {e}"))
}

impl Replay {
    /// Self times (µs) of every span, by layer name.
    fn self_us_by_layer(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, self_ns) in self.tracer.spans().iter().zip(self.tracer.self_ns()) {
            by.entry(s.name).or_default().push(self_ns as f64 / 1e3);
        }
        by
    }

    /// `replay.closure_ratio`: over the request stream, the median of
    /// each request's median summed layer time divided by its median
    /// whole handler.
    pub fn closure_ratio(&self) -> Option<f64> {
        median_ratio(&self.layer_sums_us, &self.wholes_us)
    }

    /// The replay's per-layer values, by `BENCHMARK.json` name.
    /// `served_handler_us` holds the served handler times by position in
    /// the request stream, the base of `replay.handler_ratio`.
    pub fn values(
        &self,
        served_handler_us: &[Vec<f64>],
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let by = self.self_us_by_layer();
        let layer = |name: &str, p: f64| -> Result<f64, String> {
            by.get(name)
                .and_then(|v| percentile(v, p))
                .ok_or_else(|| format!("the replay recorded no {name} span"))
        };
        Ok(vec![
            ("serve.decode_us", layer("serve.decode", 50.0)?),
            ("serve.encode_us", layer("serve.encode", 50.0)?),
            ("obs.scope_open_us", layer("obs.scope_open", 50.0)?),
            ("obs.scope_rollup_us", layer("obs.scope_rollup", 50.0)?),
            ("obs.snapshot_us", layer("obs.snapshot", 50.0)?),
            ("algebra.parse_us", layer("algebra.parse", 50.0)?),
            ("core.gate_us", layer("core.gate", 50.0)?),
            ("engine.lower_us", layer("engine.lower", 50.0)?),
            ("algebra.vm_compile_us", layer("algebra.vm_compile", 50.0)?),
            ("exec.eval_us.p50", layer("exec.eval", 50.0)?),
            ("exec.eval_us.p99", layer("exec.eval", 99.0)?),
            ("algebra.eval_us.p50", layer("algebra.eval", 50.0)?),
            ("algebra.eval_us.p99", layer("algebra.eval", 99.0)?),
            ("value.render_us", layer("value.render", 50.0)?),
            ("optimizer.explain_us", layer("optimizer.explain", 50.0)?),
            ("optimizer.persist_us", layer("optimizer.persist", 50.0)?),
            (
                "exec.rows_per_row_out",
                self.rows_processed as f64 / self.rows_out.max(1) as f64,
            ),
            (
                "exec.fixpoint_rounds",
                self.fixpoint_rounds as f64 / self.exec_requests.max(1) as f64,
            ),
            (
                "replay.closure_ratio",
                self.closure_ratio()
                    .ok_or("no request to close the layer sum over")?,
            ),
            (
                "replay.handler_ratio",
                median_ratio(&self.wholes_us, served_handler_us)
                    .ok_or("no request both replayed whole and served")?,
            ),
        ])
    }
}

/// Over the positions where both have samples, the median of
/// `median(num[i]) / median(den[i])`. Comparing each request with itself
/// keeps the ratio off the gaps between the stream's very unequal
/// queries, where a median of all requests together can land.
fn median_ratio(num: &[Vec<f64>], den: &[Vec<f64>]) -> Option<f64> {
    let ratios: Vec<f64> = num
        .iter()
        .zip(den)
        .filter_map(|(n, d)| Some(median(n)? / median(d)?))
        .collect();
    median(&ratios)
}
