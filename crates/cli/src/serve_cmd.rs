//! `genpar serve`: the resident query service.
//!
//! The server in `genpar-serve` is protocol-agnostic; its handler is a
//! resident [`Session`], loaded once — the database, catalog,
//! calibration and observed-statistics store — and answering each
//! request through the same methods the one-shot commands call. A
//! served response's `output` is byte-identical to the one-shot command
//! because both paths use the same object.

use crate::config::RunConfig;
use crate::session::Session;
use crate::CliError;
use genpar_serve::server::ServeConfig;
use std::sync::Arc;

/// The resident server state: the one-shot commands' [`Session`].
pub type ServeState = Session;

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
    env: &RunConfig,
) -> Result<String, CliError> {
    if env.budget.is_some() {
        return Err(CliError::usage(
            "GENPAR_BUDGET applies to one-shot commands, not to `serve`; \
             meter served requests with --tenant-budget",
        ));
    }
    let w = env.workers(workers);
    let budget = tenant_budget
        .map(|spec| {
            genpar_guard::ExecBudget::parse(spec)
                .map_err(|e| CliError::usage(format!("bad --tenant-budget: {e}")))
        })
        .transpose()?;
    let (session, warnings) = Session::load_with(db, calibration, stats, w, env)?;
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
    genpar_serve::server::serve(&cfg, Arc::new(session)).map_err(CliError::runtime)
}
