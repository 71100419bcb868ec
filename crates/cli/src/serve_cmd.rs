//! `genpar serve`: the resident query service.
//!
//! [`ServeState`] is the bridge between the protocol-agnostic server in
//! `genpar-serve` and this crate's command internals: it loads the
//! database, catalog, calibration, and observed-statistics store ONCE,
//! keeps them resident, and executes each request through the same
//! functions the one-shot CLI uses ([`commands::run_with`],
//! [`commands::explain_with`], [`commands::profile_with`]) — so a served
//! response's `output` is byte-identical to the one-shot command by
//! construction, not by testing alone.

use crate::commands::{
    self, catalog_from_db, explain_with, load_calibration, load_stats, parse_q,
    persist_morsel_rows, profile_with, resolve_workers, run_with,
};
use crate::{dbfile, CliError};
use genpar_engine::Catalog;
use genpar_optimizer::{Calibration, RuleSet, StatsStore};
use genpar_serve::protocol::Op;
use genpar_serve::server::{HandlerError, QueryHandler, ServeConfig};
use std::sync::{Arc, RwLock};

/// Resident server state: everything a request needs, loaded once.
pub struct ServeState {
    db: genpar_algebra::Db,
    catalog: Catalog,
    rules: RuleSet,
    cal: Calibration,
    cal_path: Option<String>,
    stats_path: Option<String>,
    stats_key: String,
    stats: RwLock<StatsStore>,
    default_workers: usize,
}

impl ServeState {
    /// Load the database, calibration, and statistics store; returns the
    /// state plus any load warnings (corrupt-file quarantines).
    pub fn load(
        db_path: &str,
        calibration: Option<&str>,
        stats_path: Option<&str>,
        default_workers: usize,
    ) -> Result<(ServeState, Vec<String>), CliError> {
        let db = dbfile::load_db(db_path)?;
        let catalog = catalog_from_db(&db)?;
        let (cal, cal_warning) = load_calibration(calibration)?;
        let (store, stats_warning) = load_stats(stats_path);
        let warnings: Vec<String> = [cal_warning, stats_warning].into_iter().flatten().collect();
        Ok((
            ServeState {
                db,
                catalog,
                rules: commands::build_rules(None)?,
                cal,
                cal_path: calibration.map(str::to_string),
                stats_path: stats_path.map(str::to_string),
                stats_key: commands::stats_catalog_key(Some(db_path)).to_string(),
                stats: RwLock::new(store.unwrap_or_default()),
                default_workers,
            },
            warnings,
        ))
    }

    fn stats_read(&self) -> std::sync::RwLockReadGuard<'_, StatsStore> {
        match self.stats.read() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn explain(&self, query: &str, workers: Option<usize>) -> Result<String, CliError> {
        let q = parse_q(query)?;
        let w = resolve_workers(workers.or(Some(self.default_workers)));
        let guard = self.stats_read();
        let obs_stats = self
            .stats_path
            .as_deref()
            .and_then(|_| guard.catalog(&self.stats_key));
        let stats_note = self
            .stats_path
            .as_deref()
            .map(|p| (p, self.stats_key.as_str()));
        explain_with(
            &q,
            &self.catalog,
            w,
            &self.cal,
            obs_stats,
            stats_note,
            &[],
            &self.rules,
        )
    }

    // concurrent profiles need no gate: each runs under its request's
    // private obs scope, so snapshots are disjoint by construction
    fn profile(&self, query: &str, workers: Option<usize>) -> Result<String, CliError> {
        let q = parse_q(query)?;
        let w = resolve_workers(workers.or(Some(self.default_workers)));
        // consult a snapshot of the resident store, harvest through the
        // locked on-disk read-fold-write, then refresh the resident copy
        let consult = self.stats_read().clone();
        let outcome = profile_with(
            &q,
            &self.catalog,
            &self.rules,
            false,
            w,
            None,
            false,
            &self.cal,
            Some(&consult),
            self.stats_path.as_deref(),
            &self.stats_key,
            None,
            &[],
        )?;
        if let Some(written) = outcome.written_store {
            match self.stats.write() {
                Ok(mut g) => *g = written,
                Err(poisoned) => *poisoned.into_inner() = written,
            }
        }
        Ok(outcome.output)
    }
}

impl QueryHandler for ServeState {
    fn execute(&self, op: Op, query: &str, workers: Option<usize>) -> Result<String, HandlerError> {
        let result = match op {
            Op::Run => run_with(
                query,
                &self.db,
                &self.catalog,
                workers.or(Some(self.default_workers)),
            ),
            Op::Explain => self.explain(query, workers),
            Op::Profile => self.profile(query, workers),
            // stats/ping/shutdown are answered by the server itself
            _ => Err(CliError::internal(format!(
                "op {:?} is not a query",
                op.name()
            ))),
        };
        result.map_err(|e| HandlerError {
            kind: e.kind.name().to_string(),
            message: e.message,
        })
    }

    fn flush(&self) -> Vec<String> {
        let mut warnings = Vec::new();
        if let Some(p) = self.stats_path.as_deref() {
            // save() prunes, so flush a clone rather than the resident copy
            let mut store = self.stats_read().clone();
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

/// `genpar serve <db.gdb> --port P ...`: run the resident service until
/// a graceful shutdown (SIGINT/SIGTERM or `{"op":"shutdown"}`) drains
/// it. Exits 0 with a drain summary.
#[allow(clippy::too_many_arguments)]
pub fn serve_cmd(
    db: &str,
    port: u16,
    workers: Option<usize>,
    tenant_budget: Option<&str>,
    max_inflight: Option<usize>,
    queue_cap: Option<usize>,
    calibration: Option<&str>,
    stats: Option<&str>,
    timeout_ms: Option<u64>,
) -> Result<String, CliError> {
    let w = resolve_workers(workers);
    let budget = tenant_budget
        .map(|spec| {
            genpar_guard::ExecBudget::parse(spec)
                .map_err(|e| CliError::usage(format!("bad --tenant-budget: {e}")))
        })
        .transpose()?;
    let (state, warnings) = ServeState::load(db, calibration, stats, w)?;
    for warning in &warnings {
        eprintln!("genpar serve: warning: {warning}");
    }
    let cfg = ServeConfig {
        port,
        workers: w,
        // enough concurrency to keep the pool busy, small enough that
        // overload queues (and then sheds) instead of thrashing
        max_inflight: max_inflight.unwrap_or_else(|| w.max(2) * 2),
        queue_cap: queue_cap.unwrap_or(16),
        tenant_budget: budget,
        default_timeout_ms: timeout_ms,
    };
    genpar_serve::server::serve(&cfg, Arc::new(state)).map_err(CliError::runtime)
}
