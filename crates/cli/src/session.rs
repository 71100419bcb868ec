//! One query pipeline.
//!
//! A [`Session`] holds everything a query needs — the database and its
//! catalog, the rewrite rules, the calibration and the observed-statistics
//! store — loaded once. [`Session::prepare`] turns a query into one
//! [`Prepared`] value: the plan to run, the rewrite trace, the gate's
//! verdict on that plan and the [`Route`] `run` takes. `run` executes it;
//! `explain` and `optimize` render it; `profile` executes it under its
//! obs scope and renders it. The one-shot commands and every `genpar
//! serve` op call the same methods, so `run` executes the plan `explain`
//! prints, and a served response is byte-identical to the one-shot
//! command because both paths use the same object.

use crate::commands::{parse_q, PROFILE_SCHEMA_VERSION};
use crate::config::{RunConfig, VM_ENV};
use crate::{dbfile, CliError};
use genpar_algebra::{Db, Query};
use genpar_core::{partition_safety, PartitionSafety};
use genpar_engine::plan::ExecStats;
use genpar_engine::{Catalog, Schema, Table};
use genpar_exec::{ExecConfig, ExecRoute};
use genpar_obs::Json;
use genpar_optimizer::rewrite::RewriteTrace;
use genpar_optimizer::{
    estimate_nodes_with_sources, estimate_parallel_with_stats, keep_cheaper,
    route_costs_with_stats, Calibration, CatalogStats, Estimate, EstimateSource, RuleSet,
    StatsStore,
};
use genpar_serve::protocol::Op;
use genpar_serve::server::{HandlerError, QueryHandler};
use genpar_value::{CvType, Value};
use std::fmt::{self, Write as _};
use std::sync::{Arc, PoisonError, RwLock};

/// Where `run` evaluates a prepared plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// The row executor (`genpar_exec::eval_verdict`): morsels, the
    /// per-round fixpoint route or a combiner, inline at one worker.
    Executor,
    /// The algebra walker over the resident database.
    Walker,
}

impl Route {
    /// The route an executor run actually took: a gate refusal or an
    /// exhausted recovery ladder ends on the walker.
    fn taken(route: &ExecRoute) -> Route {
        match route {
            ExecRoute::Parallel { .. } => Route::Executor,
            ExecRoute::Fallback { .. } => Route::Walker,
        }
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Route::Executor => "executor",
            Route::Walker => "walker",
        })
    }
}

/// A query made ready to run: the output of [`Session::prepare`].
pub(crate) struct Prepared {
    /// The plan every consumer runs or renders: the rewrite when the cost
    /// model kept it, else the query as written.
    pub(crate) plan: Query,
    /// The rewrite steps the pass fired, whether or not the cost model
    /// kept their result.
    pub(crate) trace: RewriteTrace,
    /// Whether `plan` is the rewrite (else the query as written).
    pub(crate) rewritten: bool,
    /// The original's and the rewrite's estimates, when a rule fired and
    /// the two were costed.
    pub(crate) costs: Option<(Estimate, Estimate)>,
    /// The partition-safety gate's verdict on `plan`.
    pub(crate) verdict: PartitionSafety,
    /// Where `run` evaluates `plan`.
    pub(crate) route: Route,
    /// The worker count the plan was prepared for.
    pub(crate) workers: usize,
    /// The observed statistics the plan was costed and estimated under.
    pub(crate) observed: Option<Arc<CatalogStats>>,
}

/// What `profile` writes and prints beyond the instrumented run.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ProfileOpts<'a> {
    /// Render the report as JSON instead of a tree.
    pub(crate) json: bool,
    /// Export the run as a Chrome trace (JSONL for a `.jsonl` path).
    pub(crate) trace_path: Option<&'a str>,
    /// Turn the timeline recorder on for this run.
    pub(crate) timeline: bool,
    /// Persist the tuner's morsel size into the calibration file after
    /// the run (a resident server does so once, at shutdown).
    pub(crate) persist_morsel: bool,
}

/// Everything a query needs, loaded once: a one-shot command holds one
/// for its single query, `genpar serve` keeps one resident for all.
pub struct Session {
    /// The walker's data: the loaded `.gdb`; `None` over a nominal
    /// catalog, which only `explain`, `profile` and `optimize` read.
    db: Option<Db>,
    catalog: Catalog,
    /// Relations of `db` whose members are not all tuples of one width.
    /// The catalog leaves them out, so no rule reads a width for them
    /// and only the walker evaluates a plan that reads them.
    ragged: Vec<String>,
    rules: RuleSet,
    cal: Calibration,
    cal_path: Option<String>,
    stats_path: Option<String>,
    stats_key: String,
    stats: RwLock<StatsStore>,
    /// This database's entry of `stats`, shared with every prepared plan.
    observed: RwLock<Option<Arc<CatalogStats>>>,
    default_workers: usize,
    /// The executor settings every run starts from: the VM switch and
    /// the retry policy. `db` carries the same VM switch.
    exec: ExecConfig,
    /// Load warnings a one-shot report prints ahead of itself; a server
    /// logs them once instead ([`Session::load`]).
    warnings: Vec<String>,
}

impl Session {
    /// Load a resident session over the `.gdb` at `db_path`, with its
    /// calibration and statistics store and the default settings; returns
    /// the session plus any load warnings (corrupt-file quarantines),
    /// which the caller logs — served responses never repeat them.
    pub fn load(
        db_path: &str,
        calibration: Option<&str>,
        stats_path: Option<&str>,
        default_workers: usize,
    ) -> Result<(Session, Vec<String>), CliError> {
        let env = RunConfig::default();
        Session::load_with(db_path, calibration, stats_path, default_workers, &env)
    }

    /// [`Session::load`] under the process's `GENPAR_*` settings.
    pub(crate) fn load_with(
        db_path: &str,
        calibration: Option<&str>,
        stats_path: Option<&str>,
        default_workers: usize,
        env: &RunConfig,
    ) -> Result<(Session, Vec<String>), CliError> {
        let rules = RuleSet::standard();
        let mut session = Session::open(Some(db_path), None, rules, calibration, stats_path, env)?;
        session.default_workers = default_workers.max(1);
        let warnings = std::mem::take(&mut session.warnings);
        Ok((session, warnings))
    }

    /// Load a session for one command, rewriting under `rules` and
    /// running under `env`. Without a `.gdb`, the catalog is nominal: a
    /// 1000-row binary table for every relation `q` mentions. Load
    /// warnings stay in the session and head its reports.
    pub(crate) fn open(
        db_path: Option<&str>,
        q: Option<&Query>,
        rules: RuleSet,
        calibration: Option<&str>,
        stats_path: Option<&str>,
        env: &RunConfig,
    ) -> Result<Session, CliError> {
        let (db, catalog, ragged) = match db_path {
            Some(p) => {
                let db = dbfile::load_db(p)?.with_vm(env.vm);
                let (catalog, ragged) = catalog_from_db(&db)?;
                (Some(db), catalog, ragged)
            }
            None => {
                let names = q.map(Query::rel_names).unwrap_or_default();
                (None, nominal_catalog(names), Vec::new())
            }
        };
        let (cal, cal_warning) = load_calibration(calibration)?;
        // the observed-statistics store rides the robustness ladder's
        // persistence rung: a missing file is an empty store (the first
        // run bootstraps it); a corrupt one — torn write, failed checksum,
        // JSON damage, wrong schema — is quarantined to `<path>.corrupt`
        // and regenerates empty, with a warning. Never an error, never a
        // panic, never a *silent* fresh start.
        let (store, stats_warning) = match stats_path {
            Some(p) => StatsStore::load_or_quarantine(p),
            None => (StatsStore::new(), None),
        };
        // stats from one database never steer estimates for another
        let stats_key = db_path.unwrap_or("nominal").to_string();
        let observed = store.catalog(&stats_key).cloned().map(Arc::new);
        Ok(Session {
            db,
            catalog,
            ragged,
            rules,
            cal,
            cal_path: calibration.map(str::to_string),
            stats_path: stats_path.map(str::to_string),
            stats_key,
            stats: RwLock::new(store),
            observed: RwLock::new(observed),
            default_workers: 1,
            exec: env.exec(),
            warnings: [cal_warning, stats_warning].into_iter().flatten().collect(),
        })
    }

    fn workers(&self, workers: Option<usize>) -> usize {
        workers.unwrap_or(self.default_workers).max(1)
    }

    /// Prepare `q` for `workers` workers: the rewrite pass once; only if
    /// it fired a rule, the original and the rewrite costed and the
    /// cheaper kept (with no rule fired the plan is the query itself, so
    /// there is nothing to cost); the gate once, on the chosen plan; and
    /// the route `run` takes.
    pub(crate) fn prepare(&self, q: &Query, workers: usize) -> Prepared {
        let workers = workers.max(1);
        let observed = self.stats_path.as_ref().and_then(|_| {
            let observed = self.observed.read();
            observed.unwrap_or_else(PoisonError::into_inner).clone()
        });
        let (rewrite, trace) = genpar_optimizer::optimize(q, &self.rules, &self.catalog);
        let (plan, rewritten, costs) = if trace.steps.is_empty() {
            (rewrite, false, None)
        } else {
            let (plan, kept, base, new) = keep_cheaper(
                q,
                rewrite,
                trace.clone(),
                &self.catalog,
                workers,
                &self.cal,
                observed.as_deref(),
            );
            (plan, !kept.steps.is_empty(), Some((base, new)))
        };
        let mut verdict = partition_safety(&plan);
        if verdict.parallel_eligible() && self.reads_ragged(&plan) {
            verdict = PartitionSafety::Unsafe {
                op: "relation",
                reason: "its members are not all tuples of one width, so only the walker reads it",
            };
        }
        // A certified fixpoint takes the executor at every worker count:
        // its prepared rounds beat the walker's naive loop. Any other
        // certified plan takes it only with more than one worker; the
        // walker answers the rest.
        let route = match verdict {
            PartitionSafety::FixpointRoundSafe { .. } => Route::Executor,
            _ if workers > 1 && verdict.parallel_eligible() => Route::Executor,
            _ => Route::Walker,
        };
        Prepared {
            plan,
            trace,
            rewritten,
            costs,
            verdict,
            route,
            workers,
            observed,
        }
    }

    /// Evaluate a prepared plan on its route; returns the answer and the
    /// route that produced it.
    pub(crate) fn evaluate(&self, p: Prepared) -> Result<(Value, Route), CliError> {
        match p.route {
            Route::Executor => {
                let cfg = self.exec.clone().with_workers(p.workers);
                let (v, _stats, route) =
                    genpar_exec::eval_verdict(&p.plan, p.verdict, &self.catalog, &cfg)?;
                Ok((v, Route::taken(&route)))
            }
            Route::Walker => Ok((self.walk(&p)?, Route::Walker)),
        }
    }

    /// Evaluate a prepared plan on the walker over the loaded database,
    /// recording a fallback when the gate refused more than one worker.
    fn walk(&self, p: &Prepared) -> Result<Value, CliError> {
        if let (PartitionSafety::Unsafe { op, reason }, true) = (&p.verdict, p.workers > 1) {
            genpar_exec::note_fallback(op, reason);
        }
        let db = self.db.as_ref();
        let db = db.ok_or_else(|| CliError::internal("the walker needs a loaded database"))?;
        Ok(genpar_algebra::eval::eval(&p.plan, db)?)
    }

    /// Whether `q` reads a relation the catalog leaves out.
    fn reads_ragged(&self, q: &Query) -> bool {
        let mut hit = false;
        if !self.ragged.is_empty() {
            q.visit(&mut |n| hit |= matches!(n, Query::Rel(r) if self.ragged.contains(r)));
        }
        hit
    }

    /// `run`: the answer, rendered.
    pub(crate) fn run(&self, q: &Query, workers: Option<usize>) -> Result<String, CliError> {
        let (v, _) = self.evaluate(self.prepare(q, self.workers(workers)))?;
        Ok(format!("{v}\n"))
    }

    /// The original's and the plan's estimates: the costed pair when a
    /// rule fired, else the plan's own estimate twice.
    fn costs(&self, p: &Prepared) -> (Estimate, Estimate) {
        p.costs.unwrap_or_else(|| {
            let e = estimate_parallel_with_stats(
                &p.plan,
                &self.catalog,
                p.workers,
                &self.cal,
                p.observed.as_deref(),
            );
            (e, e)
        })
    }

    /// `optimize`: the plan and trace `prepare` chose at one worker.
    pub(crate) fn optimize(&self, q: &Query) -> String {
        let p = self.prepare(q, 1);
        let (base_est, new_est) = self.costs(&p);
        let mut out = String::new();
        let _ = writeln!(out, "original:  {q}");
        let _ = writeln!(out, "optimized: {}", p.plan);
        if p.rewritten {
            let _ = write!(out, "{}", p.trace);
        } else {
            let _ = writeln!(out, "(no profitable rewrite)");
        }
        let _ = writeln!(
            out,
            "estimated cost: {:.0} → {:.0} cells",
            base_est.cost, new_est.cost
        );
        out
    }

    /// `explain`: the full optimizer story for one query — which Section
    /// 4.4 rewrites fired (with their genericity justifications), which
    /// matched but were blocked by a side condition, what the cost model
    /// decided, the route `run` takes and the physical plan. Rewrite and
    /// plan events are attributed to this query through a private obs
    /// scope — nothing global is reset, so a resident server's cumulative
    /// counters survive every `explain`.
    pub(crate) fn explain(&self, q: &Query, workers: Option<usize>) -> Result<String, CliError> {
        let w = self.workers(workers);
        let obs_scope = genpar_obs::Scope::anonymous();
        let p = {
            let _g = obs_scope.enter();
            self.prepare(q, w)
        };
        let snap = obs_scope.snapshot();
        let obs_stats = p.observed.as_deref();

        let mut out = warning_lines(&self.warnings);
        let _ = writeln!(out, "query:     {q}");
        let _ = writeln!(out, "optimized: {}", p.plan);
        if let Some(path) = &self.stats_path {
            let entries = obs_stats.map(|c| c.entries.len()).unwrap_or(0);
            let _ = writeln!(
                out,
                "stats:     {path} (catalog '{}', {entries} observed entries)",
                self.stats_key
            );
        }
        let _ = writeln!(out);
        if p.trace.steps.is_empty() {
            out.push_str("no rewrite fired.\n");
        } else {
            if p.rewritten {
                out.push_str("rewrite trace:\n");
            } else {
                out.push_str("rewrites fired but the cost model kept the original plan.\n");
                out.push_str("fired rewrites (not kept):\n");
            }
            let _ = write!(out, "{}", p.trace);
        }
        // blocked rewrites: pattern matched, genericity side condition failed
        let mut blocked: Vec<String> = Vec::new();
        for e in snap
            .events
            .iter()
            .filter(|e| e.kind == "optimizer.rewrite" && event_field(e, "fired") == "false")
        {
            let line = format!(
                "  ✗ {}  blocked: {}\n      on {}",
                event_field(e, "rule"),
                event_field(e, "blocked_by"),
                event_field(e, "expr"),
            );
            if !blocked.contains(&line) {
                blocked.push(line);
            }
        }
        if !blocked.is_empty() {
            let _ = writeln!(out, "blocked rewrites:");
            for line in &blocked {
                let _ = writeln!(out, "{line}");
            }
        }
        let (base_est, new_est) = self.costs(&p);
        let _ = writeln!(
            out,
            "estimated cost: {:.0} → {:.0} cells",
            base_est.cost, new_est.cost
        );
        let _ = writeln!(out, "\nparallel execution ({w} workers):");
        match &p.verdict {
            PartitionSafety::Safe(cert) => {
                let _ = writeln!(out, "  partition-safe: {cert}");
            }
            PartitionSafety::FixpointRoundSafe { body_cert } => {
                let _ = writeln!(
                    out,
                    "  fixpoint round-safe: per-round body certified: {body_cert}"
                );
                let _ = writeln!(
                    out,
                    "  each round's body runs on the morsel pool; deltas are canonically merged (semi-naive when the body is delta-linear)"
                );
                let _ = writeln!(
                    out,
                    "  the body is lowered once; its loop-invariant inputs are evaluated and indexed once, before round 1"
                );
            }
            PartitionSafety::Combiner { op, cert } => {
                let _ = writeln!(
                    out,
                    "  combiner '{op}': partition-local accumulators + serial combine (cf. Lemma 2.12 — the aggregate itself is not partition-distributive, its partial sums are)"
                );
                let _ = writeln!(out, "  input {cert}");
            }
            PartitionSafety::Unsafe { op, reason } => {
                let _ = writeln!(out, "  falls back to serial: '{op}' — {reason}");
            }
        }
        let _ = writeln!(out, "  run route:      {}", route_detail(&p));
        let _ = writeln!(out, "\nbytecode vm:");
        if !self.exec.vm {
            let _ = writeln!(
                out,
                "  disabled ({VM_ENV}=0): the AST walker evaluates every expression"
            );
        } else {
            let cert = p.verdict.certificate();
            let mut vm_lines: Vec<String> = Vec::new();
            p.plan.visit(&mut |n| match n {
                Query::Select(pred, _) => vm_lines.push(vm_line(
                    format!("σ[{pred:?}]"),
                    genpar_algebra::vm::compile_pred(pred),
                    cert,
                )),
                Query::Map(f, _) => vm_lines.push(vm_line(
                    format!("map({f:?})"),
                    genpar_algebra::vm::compile_fn(f),
                    cert,
                )),
                _ => {}
            });
            if vm_lines.is_empty() {
                let _ = writeln!(
                    out,
                    "  no compiled programs (plan has no σ/map expressions)"
                );
            }
            for line in vm_lines {
                let _ = writeln!(out, "{line}");
            }
        }
        // the cost model's view of both routes, under the (possibly
        // measured) calibration and any observed statistics — stats can
        // flip this preference, never the answer. `run` takes the route
        // named above.
        let rc = route_costs_with_stats(&p.plan, &self.catalog, w, &self.cal, obs_stats);
        let _ = writeln!(
            out,
            "\nroute costs (calibration: {:.3}/worker overhead, {:.0} cells startup):",
            self.cal.overhead_per_worker, self.cal.startup_cost_cells
        );
        let _ = writeln!(out, "  serial route:   {:.0} cells", rc.serial.cost);
        if w > 1 && rc.safe {
            let _ = writeln!(
                out,
                "  parallel route: {:.0} cells ({} workers)",
                rc.parallel.cost, rc.workers
            );
            let route = if rc.choose_parallel {
                "parallel"
            } else {
                "serial"
            };
            let _ = writeln!(
                out,
                "  model prefers:  {route} (margin {:.0} cells)",
                rc.margin_cells.abs()
            );
            match rc.crossover_cost_cells {
                Some(c) => {
                    let _ = writeln!(
                        out,
                        "  crossover:      parallel pays above {c:.0} cells of serial cost"
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  crossover:      none — coordination overhead exceeds the ideal speedup at this width"
                    );
                }
            }
        } else {
            let reason = if w <= 1 {
                "serial requested"
            } else {
                "gate refused the parallel route"
            };
            let _ = writeln!(out, "  parallel route: unavailable ({reason})");
            let _ = writeln!(out, "  model prefers:  serial");
        }
        let _ = writeln!(out, "\nchosen plan:");
        match genpar_engine::lower(&p.plan) {
            Some(plan) => {
                for line in plan.to_string().lines() {
                    let _ = writeln!(out, "  {line}");
                }
                let _ = writeln!(out, "\nestimated rows per operator:");
                for (op, est, src) in estimate_nodes_with_sources(&p.plan, &self.catalog, obs_stats)
                {
                    let _ = writeln!(out, "  {op:<18} ~{:.0} rows  [{src}]", est.rows);
                }
            }
            None => {
                let _ = writeln!(
                    out,
                    "  (not lowerable to the row executor: complex values or a bare-valued map)"
                );
            }
        }
        Ok(out)
    }

    /// `profile`: prepare and execute the query under a private obs scope,
    /// then dump the metrics snapshot (span tree, counters, events,
    /// histograms, per-operator misestimates) as an ASCII tree or JSON.
    ///
    /// The plan runs through `genpar_exec::eval_verdict`: the executor
    /// whenever the gate certifies it, at every worker count — the one
    /// path that records the per-operator rows the misestimate report and
    /// the statistics harvest read. At one worker `run` answers a
    /// certified non-fixpoint plan on the walker instead; the report then
    /// names `run`'s route in one line.
    ///
    /// With a statistics store, the run's `plan.node_stats` events are
    /// harvested into it through [`StatsStore::harvest_into`], which
    /// re-reads the on-disk store under the process persistence lock
    /// before folding — concurrent profilers (two serve sessions, or serve
    /// plus a one-shot CLI) cannot lose each other's samples — and the
    /// resident copy is refreshed from what was written.
    pub(crate) fn profile(
        &self,
        q: &Query,
        workers: Option<usize>,
        opts: &ProfileOpts<'_>,
    ) -> Result<String, CliError> {
        let w = self.workers(workers);
        // a trace export is the recorded timeline, so --trace implies
        // --timeline for this run; the previous flag state (e.g.
        // GENPAR_TIMELINE=1) is restored afterwards
        let prev_timeline = genpar_obs::timeline::enabled();
        // an ambient GENPAR_TIMELINE=1 gets the same reporting as --timeline
        let want_timeline = opts.timeline || opts.trace_path.is_some() || prev_timeline;
        if want_timeline {
            genpar_obs::timeline::set_enabled(true);
        }
        // attribute this run's instrumentation to a private obs scope
        // instead of resetting the process registry: the snapshot below
        // sees exactly this query, concurrent profiles see theirs, and on
        // drop the scope rolls up into the parent so cumulative totals are
        // preserved
        let obs_scope = genpar_obs::Scope::anonymous();
        let scope_guard = obs_scope.enter();
        let p = self.prepare(q, w);
        let executed = if self.reads_ragged(&p.plan) {
            // a relation the catalog leaves out is read from the database
            self.walk(&p).map(|_| ExecStats::default())
        } else {
            let cfg = self.exec.clone().with_workers(w);
            let v = genpar_exec::eval_verdict(&p.plan, p.verdict.clone(), &self.catalog, &cfg);
            v.map(|(_, stats, _)| stats).map_err(CliError::from)
        };
        drop(scope_guard);
        if want_timeline {
            genpar_obs::timeline::set_enabled(prev_timeline);
        }
        let mut stats = executed?;
        // the model's per-node predictions, under the statistics the plan
        // was prepared with; the root's pairs with the observed result size
        let nodes = estimate_nodes_with_sources(&p.plan, &self.catalog, p.observed.as_deref());
        stats.est_rows_out = nodes
            .first()
            .map_or(0, |(_, e, _)| e.rows.round().max(0.0) as u64);
        let snap = obs_scope.snapshot();
        let mut tl = genpar_obs::timeline::snapshot();
        if obs_scope.query_id() != 0 {
            // served request: the process timeline is shared with concurrent
            // queries — keep only the records stamped with this query's id
            tl = tl.for_query(obs_scope.query_id());
        }
        let mis = misestimate_rows(&nodes, &snap);

        if let Some(path) = opts.trace_path {
            let text = if path.ends_with(".jsonl") {
                genpar_obs::trace::jsonl(&tl)
            } else {
                genpar_obs::trace::chrome_trace_string(&tl)
            };
            std::fs::write(path, text)
                .map_err(|e| CliError::runtime(format!("cannot write trace file {path}: {e}")))?;
        }

        // fold this run's per-node row counts back into the store, so the
        // next run's estimates are observed rather than guessed; the
        // read-fold-write cycle runs under the persistence lock, so a
        // concurrent harvester's samples are folded in, never overwritten
        let harvested = match self.stats_path.as_deref() {
            Some(path) => {
                let (folded, written) = StatsStore::harvest_into(path, &self.stats_key, &snap)
                    .map_err(CliError::runtime)?;
                let observed = written.catalog(&self.stats_key).cloned().map(Arc::new);
                *self.stats.write().unwrap_or_else(PoisonError::into_inner) = written;
                *self
                    .observed
                    .write()
                    .unwrap_or_else(PoisonError::into_inner) = observed;
                Some((path, folded))
            }
            None => None,
        };

        // persist the converged morsel size so the next run starts tuned
        let persisted_morsel = match self.cal_path.as_deref() {
            Some(path) if opts.persist_morsel => Some((path, persist_morsel_rows(path)?)),
            _ => None,
        };

        // profile instruments the executor wherever the gate certifies the
        // plan; name run's route when it differs
        let profiled = if p.verdict.parallel_eligible() {
            Route::Executor
        } else {
            Route::Walker
        };

        if opts.json {
            let mut j = snap.to_json();
            if let Json::Obj(fields) = &mut j {
                let version = Json::Int(PROFILE_SCHEMA_VERSION.into());
                fields.insert(0, ("schema_version".into(), version));
                let mis = mis.iter().map(|(op, est, actual, ratio)| {
                    let entry = [
                        ("est_rows", Json::Num(*est)),
                        ("actual_rows", Json::Int(*actual as i128)),
                        ("ratio", Json::Num(*ratio)),
                    ];
                    (op.clone(), Json::obj(entry))
                });
                fields.push(("misestimate".into(), Json::Obj(mis.collect())));
                let result = [
                    ("rows_out", Json::Int(stats.rows_out as i128)),
                    ("est_rows_out", Json::Int(stats.est_rows_out as i128)),
                ];
                fields.push(("result".into(), Json::obj(result)));
                if let Some(path) = opts.trace_path {
                    fields.push(("trace_file".into(), Json::str(path)));
                }
                if want_timeline {
                    let timeline = [
                        ("events", Json::Int(tl.events.len() as i128)),
                        ("written", Json::Int(tl.written as i128)),
                        ("dropped", Json::Int(tl.dropped as i128)),
                        (
                            "capacity_per_thread",
                            Json::Int(tl.capacity_per_thread as i128),
                        ),
                    ];
                    fields.push(("timeline".into(), Json::obj(timeline)));
                }
                if let Some((path, folded)) = harvested {
                    let stats = [
                        ("file", Json::str(path)),
                        ("catalog", Json::str(self.stats_key.as_str())),
                        ("harvested", Json::Int(folded as i128)),
                    ];
                    fields.push(("stats".into(), Json::obj(stats)));
                }
                if let Some((_, rows)) = persisted_morsel {
                    fields.push(("morsel_rows_persisted".into(), Json::Int(rows as i128)));
                }
                if !self.warnings.is_empty() {
                    let warnings = self.warnings.iter().map(|w| Json::str(w.as_str()));
                    fields.push(("warnings".into(), Json::Arr(warnings.collect())));
                }
            }
            Ok(format!("{j}\n"))
        } else {
            let mut out = format!(
                "{}query: {q}\n\n{}",
                warning_lines(&self.warnings),
                snap.render_tree()
            );
            if !mis.is_empty() {
                let _ = writeln!(out, "misestimate (actual / estimated rows):");
                for (op, est, actual, ratio) in &mis {
                    let _ = writeln!(out, "  {op:<18} {actual} / ~{est:.0}  (x{ratio:.2})");
                }
            }
            if profiled != p.route {
                let _ = writeln!(
                    out,
                    "run route: {} at {w} worker(s); this profile instruments the {profiled}",
                    p.route
                );
            }
            if want_timeline {
                let _ = writeln!(
                    out,
                    "timeline: {} events recorded ({} dropped by the per-thread rings)",
                    tl.events.len(),
                    tl.dropped
                );
            }
            if let Some(path) = opts.trace_path {
                let _ = writeln!(out, "trace written to {path}");
            }
            if let Some((path, folded)) = harvested {
                let _ = writeln!(
                    out,
                    "stats: harvested {folded} node observations into {path} (catalog '{}')",
                    self.stats_key
                );
            }
            if let Some((path, rows)) = persisted_morsel {
                let _ = writeln!(out, "morsel size {rows} persisted to {path}");
            }
            Ok(out)
        }
    }
}

impl QueryHandler for Session {
    fn execute(&self, op: Op, query: &str, workers: Option<usize>) -> Result<String, HandlerError> {
        let answer = |q: Query| match op {
            Op::Run => self.run(&q, workers),
            Op::Explain => self.explain(&q, workers),
            Op::Profile => self.profile(&q, workers, &ProfileOpts::default()),
            // stats/ping/shutdown are answered by the server itself
            _ => Err(CliError::internal(format!(
                "op {:?} is not a query",
                op.name()
            ))),
        };
        parse_q(query).and_then(answer).map_err(|e| HandlerError {
            kind: e.kind.name().to_string(),
            message: e.message,
        })
    }

    fn flush(&self) -> Vec<String> {
        let mut warnings = Vec::new();
        if let Some(p) = self.stats_path.as_deref() {
            // save() prunes, so flush a clone rather than the resident copy
            let mut store = self
                .stats
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            if let Err(e) = store.save(p) {
                warnings.push(format!("stats flush to {p} failed: {e}"));
            }
        }
        if let Some(p) = self.cal_path.as_deref() {
            if let Err(e) = persist_morsel_rows(p) {
                warnings.push(format!("calibration flush to {p} failed: {e}"));
            }
        }
        warnings
    }
}

/// `explain`'s account of the route `run` takes for a prepared plan.
fn route_detail(p: &Prepared) -> String {
    match (p.route, p.workers) {
        (Route::Executor, 1) => format!("{}, inline at 1 worker", p.route),
        (Route::Executor, w) => format!("{} on {w} worker threads", p.route),
        (Route::Walker, 1) if p.verdict.parallel_eligible() => format!(
            "{} (one worker; pass --parallel N or set GENPAR_PARALLEL for the executor)",
            p.route
        ),
        (Route::Walker, _) => p.route.to_string(),
    }
}

/// Load a calibration file, or the built-in default when none is given.
/// A persisted `morsel_rows` key (written by `profile --calibration`)
/// seeds the global morsel tuner, unless `GENPAR_MORSEL` set it first.
/// A **missing** file is an error (the user named it); a **corrupt** one
/// is quarantined to `<path>.corrupt` and the default calibration rides
/// in its place, with the warning returned for the command to print.
pub(crate) fn load_calibration(
    path: Option<&str>,
) -> Result<(Calibration, Option<String>), CliError> {
    let Some(p) = path else {
        return Ok((Calibration::default(), None));
    };
    let attempt = (|| -> Result<Calibration, String> {
        let text = match genpar_optimizer::persist::read_payload(p) {
            Ok(Some(t)) => t,
            Ok(None) => return Err(format!("cannot read calibration file {p}: file not found")),
            Err(e) => return Err(e),
        };
        let j = Json::parse(&text).map_err(|e| format!("calibration file {p}: {e}"))?;
        if let Some(rows) = j.get("morsel_rows").and_then(|v| v.as_int()) {
            if rows > 0 {
                genpar_exec::tune::init(rows as usize, false);
            }
        }
        Calibration::from_json(&j)
    })();
    match attempt {
        Ok(cal) => Ok((cal, None)),
        // missing: a named calibration that does not exist is a real
        // error — defaults would silently misprice every route
        Err(reason) if !std::path::Path::new(p).exists() => Err(CliError::runtime(reason)),
        // corrupt: quarantine, regenerate from the default, warn loudly
        Err(reason) => {
            let warning = match genpar_optimizer::persist::quarantine_file(p, &reason) {
                Ok(corrupt) => format!(
                    "calibration file {p} is corrupt ({reason}); \
                     quarantined to {corrupt}, using the default calibration"
                ),
                Err(e) => format!(
                    "calibration file {p} is corrupt ({reason}); \
                     quarantine failed ({e}), using the default calibration"
                ),
            };
            Ok((Calibration::default(), Some(warning)))
        }
    }
}

/// Write the tuner's converged morsel size into a calibration file's
/// `morsel_rows` key, preserving every other key (inverse of the
/// seed in [`load_calibration`]). The write goes through the
/// crash-safe temp-file + fsync + rename protocol.
fn persist_morsel_rows(path: &str) -> Result<usize, CliError> {
    let text = match genpar_optimizer::persist::read_payload(path) {
        Ok(Some(t)) => t,
        // the file was quarantined (or never existed): restart it from
        // the default calibration so the tuner seed still persists
        Ok(None) => format!("{}\n", Calibration::default().to_json()),
        Err(e) => return Err(CliError::runtime(e)),
    };
    let mut j = Json::parse(&text)
        .map_err(|e| CliError::runtime(format!("calibration file {path}: {e}")))?;
    let rows = genpar_exec::tune::tuner().rows();
    if let Json::Obj(fields) = &mut j {
        match fields.iter_mut().find(|(k, _)| k == "morsel_rows") {
            Some((_, v)) => *v = Json::Int(rows as i128),
            None => fields.push(("morsel_rows".to_string(), Json::Int(rows as i128))),
        }
    }
    genpar_optimizer::persist::save_atomic(path, &format!("{j}\n")).map_err(CliError::runtime)?;
    Ok(rows)
}

/// Render collected load warnings as the `warning:`-prefixed lines the
/// text reports start with.
fn warning_lines(warnings: &[String]) -> String {
    warnings
        .iter()
        .map(|w| format!("warning: {w}\n"))
        .collect::<String>()
}

/// Build an execution/costing catalog from a loaded database (real
/// cardinalities, one table per relation), plus the names of the
/// relations it leaves out: those whose members are not all tuples of
/// one width, which no table schema describes.
fn catalog_from_db(db: &Db) -> Result<(Catalog, Vec<String>), CliError> {
    let mut cat = Catalog::new();
    let mut ragged = Vec::new();
    for (name, v) in db.relations() {
        // the width every member has; an empty relation is binary
        let arity = v.as_set().and_then(|s| {
            let mut widths = s.iter().map(|t| t.as_tuple().map(|t| t.len()));
            match widths.next() {
                None => Some(2),
                Some(first) => first.filter(|&a| widths.all(|w| w == Some(a))),
            }
        });
        let Some(arity) = arity else {
            ragged.push(name.clone());
            continue;
        };
        let table =
            Table::try_from_value(name.clone(), Schema::uniform(CvType::domain(0), arity), v)
                .map_err(CliError::runtime)?;
        cat.add(table);
    }
    Ok((cat, ragged))
}

/// The nominal catalog `explain`, `profile` and `optimize` cost against
/// without a `.gdb`: a 1000-row binary table for every named relation.
fn nominal_catalog(names: impl IntoIterator<Item = String>) -> Catalog {
    let mut cat = Catalog::new();
    for name in names {
        let mut t = Table::new(name, Schema::uniform(CvType::int(), 2));
        for i in 0..1000 {
            t.insert(vec![Value::Int(i), Value::Int(i % 37)]);
        }
        cat.add(t);
    }
    cat
}

/// Look up a field of an obs event by key, rendered as text.
pub(crate) fn event_field(e: &genpar_obs::Event, key: &str) -> String {
    e.fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.to_string())
        .unwrap_or_default()
}

/// One `explain` line for a σ/map expression: either the compiled
/// program (with the partition certificate it carries at run time) or
/// the paper-citing refusal explaining why the AST walker keeps it —
/// ineligibility is reported in the same voice as the partition gate,
/// never silently.
pub(crate) fn vm_line(
    expr: String,
    compiled: Result<genpar_algebra::vm::Program, genpar_algebra::vm::Ineligible>,
    cert: Option<&genpar_core::SafetyCert>,
) -> String {
    match compiled {
        Ok(prog) => match cert {
            Some(c) => {
                let prog = prog.with_cert(&c.to_string());
                format!("  {expr}: program of {} [cert: {c}]", prog.describe())
            }
            None => format!(
                "  {expr}: program of {} [uncertified route]",
                prog.describe()
            ),
        },
        Err(inel) => format!("  {expr}: AST walker — {inel}"),
    }
}

/// Sum the `rows_out` recorded by `plan.*` spans, per operator name.
fn span_rows_by_op(
    nodes: &[genpar_obs::SpanNode],
    acc: &mut std::collections::BTreeMap<String, u64>,
) {
    for n in nodes {
        if n.name.starts_with("plan.") {
            if let Some(r) = n.fields.get("rows_out") {
                *acc.entry(n.name.clone()).or_insert(0) += r;
            }
        }
        span_rows_by_op(&n.children, acc);
    }
}

/// Per-operator actual-vs-estimated rows: the model's per-node
/// cardinality predictions paired against the `rows_out` the executor's
/// spans recorded. Only operators present on both sides are reported.
fn misestimate_rows(
    nodes: &[(&'static str, Estimate, EstimateSource)],
    snap: &genpar_obs::Snapshot,
) -> Vec<(String, f64, u64, f64)> {
    let mut est: std::collections::BTreeMap<&'static str, f64> = std::collections::BTreeMap::new();
    for (op, e, _) in nodes {
        *est.entry(op).or_insert(0.0) += e.rows;
    }
    let mut actual = std::collections::BTreeMap::new();
    span_rows_by_op(&snap.spans, &mut actual);
    actual
        .into_iter()
        .filter_map(|(op, rows)| {
            let e = *est.get(op.as_str())?;
            let ratio = rows as f64 / e.max(1.0);
            Some((op, e, rows, ratio))
        })
        .collect()
}
