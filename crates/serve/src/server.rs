//! The resident TCP front-end: accept loop, session threads, graceful
//! drain.
//!
//! One thread per connected session (std-only; the vendor tree has no
//! async runtime, and session counts here are bounded by admission
//! control anyway). All sessions share one [`Admission`] gate, one
//! [`Tenants`] registry, and — via
//! [`genpar_exec::pool::install_worker_governor`] — one process-wide
//! pool of morsel worker slots, so queries borrow workers instead of
//! owning pools.
//!
//! Query execution itself is injected through [`QueryHandler`]: the CLI
//! implements it over the same command internals as the one-shot paths,
//! which is what makes the byte-identity guarantee structural rather
//! than aspirational.
//!
//! Shutdown is cooperative: SIGINT/SIGTERM (or `{"op":"shutdown"}`)
//! flips one atomic; the accept loop stops accepting, sessions finish
//! their current request and exit, the admission gate drains queued
//! waiters with `shutting_down`, and the handler's `flush` persists
//! STATS.json / CALIBRATION.json through the checksummed atomic writer
//! before the process exits 0.

use crate::admission::{Admission, Admit};
use crate::protocol::{self, Op, Request};
use crate::tenants::Tenants;
use genpar_guard::ExecBudget;
use genpar_obs::Json;
use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A structured execution failure, mirroring the CLI's error-kind
/// vocabulary (`usage` | `parse` | `budget` | `internal` | `runtime`).
/// `budget` maps to the `budget_exceeded` wire status.
pub struct HandlerError {
    /// Error-kind name.
    pub kind: String,
    /// Human-readable message.
    pub message: String,
}

/// What the server needs from the command layer.
pub trait QueryHandler: Send + Sync {
    /// Execute `op` over `query`, returning exactly the text the
    /// one-shot CLI would print for the same invocation.
    fn execute(&self, op: Op, query: &str, workers: Option<usize>) -> Result<String, HandlerError>;

    /// Flush resident state (STATS.json / CALIBRATION.json) through the
    /// crash-safe writer on graceful shutdown. Returns warnings to log;
    /// empty means a clean flush.
    fn flush(&self) -> Vec<String>;
}

/// Server configuration (the CLI maps `genpar serve` flags onto this).
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral; the chosen address is
    /// announced on stderr).
    pub port: u16,
    /// Worker slots in the process-wide morsel pool.
    pub workers: usize,
    /// Queries executing concurrently before arrivals queue.
    pub max_inflight: usize,
    /// Queued requests beyond which arrivals are shed.
    pub queue_cap: usize,
    /// Per-tenant quota (the `GENPAR_BUDGET` grammar); `None` = unmetered.
    pub tenant_budget: Option<ExecBudget>,
    /// Default per-request wall deadline when the request names none.
    pub default_timeout_ms: Option<u64>,
}

/// Process-wide drain flag: set by SIGINT/SIGTERM, `{"op":"shutdown"}`,
/// or [`request_shutdown`]. A static (not per-server state) because the
/// signal handler must reach it without a context pointer.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Is a graceful drain in progress?
pub fn shutting_down() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Begin a graceful drain (idempotent).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers() {
    // std already links libc on unix; declare the one symbol needed
    // instead of growing a dependency. The handler only flips an
    // atomic — the only async-signal-safe action worth taking.
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `on_signal` is async-signal-safe (a single atomic store)
    // and stays valid for the process lifetime.
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

struct ServerCtx {
    admission: Admission,
    tenants: Tenants,
    handler: Arc<dyn QueryHandler>,
    default_timeout_ms: Option<u64>,
    served: AtomicU64,
    started: Instant,
}

/// Run the server until a graceful shutdown completes. Returns the
/// drain summary the CLI prints (exit 0).
pub fn serve(cfg: &ServeConfig, handler: Arc<dyn QueryHandler>) -> Result<String, String> {
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))
        .map_err(|e| format!("cannot bind 127.0.0.1:{}: {e}", cfg.port))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot set listener non-blocking: {e}"))?;

    // one process-wide morsel pool for all in-flight queries; first
    // installation wins, so a second serve in one process reuses it
    genpar_exec::pool::install_worker_governor(cfg.workers);
    SHUTDOWN.store(false, Ordering::SeqCst);
    install_signal_handlers();

    let ctx = Arc::new(ServerCtx {
        admission: Admission::new(cfg.max_inflight, cfg.queue_cap),
        tenants: Tenants::new(cfg.tenant_budget),
        handler: Arc::clone(&handler),
        default_timeout_ms: cfg.default_timeout_ms,
        served: AtomicU64::new(0),
        started: Instant::now(),
    });

    // the readiness line tests and scripts parse to find the port
    eprintln!(
        "genpar serve: listening on {addr} ({} worker slots, {} in-flight, queue {})",
        cfg.workers, cfg.max_inflight, cfg.queue_cap
    );

    let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let ctx = Arc::clone(&ctx);
                sessions.push(std::thread::spawn(move || session(stream, &ctx)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                request_shutdown();
                ctx.admission.close();
                for h in sessions {
                    let _ = h.join();
                }
                return Err(format!("accept failed: {e}"));
            }
        }
        sessions.retain(|h| !h.is_finished());
    }

    // drain: no new admissions, sessions finish their current request
    ctx.admission.close();
    for h in sessions {
        let _ = h.join();
    }
    let warnings = handler.flush();
    for w in &warnings {
        eprintln!("genpar serve: {w}");
    }
    let served = ctx.served.load(Ordering::Relaxed);
    let uptime = ctx.started.elapsed();
    Ok(format!(
        "serve: {addr} drained; {served} requests served in {:.1}s, state flushed\n",
        uptime.as_secs_f64()
    ))
}

fn session(stream: TcpStream, ctx: &ServerCtx) {
    let _ = stream.set_nodelay(true);
    // short read timeout so a session blocked on an idle client still
    // notices the drain flag
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    // raw bytes, decoded only once the line is complete: a timeout may
    // split a multi-byte character, and `read_line` would drop the
    // bytes it had already consumed on the invalid prefix
    let mut line = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => break, // client closed
            Ok(_) => {
                if let Some(resp) = respond(ctx, &line) {
                    if protocol::write_line(&mut writer, &resp).is_err() {
                        break;
                    }
                }
                line.clear();
                if shutting_down() {
                    break;
                }
            }
            // a timeout mid-line leaves the partial read appended to
            // `line`; the next read_until continues it — don't clear
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shutting_down() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// The response to one complete request line; `None` for a blank line.
fn respond(ctx: &ServerCtx, line: &[u8]) -> Option<Json> {
    let line = match std::str::from_utf8(line) {
        Ok(line) => line.trim(),
        Err(e) => {
            return Some(protocol::parse_error_response(&format!(
                "request is not UTF-8: {e}"
            )))
        }
    };
    if line.is_empty() {
        return None;
    }
    Some(match protocol::parse_request(line) {
        Ok(req) => handle_request(ctx, &req),
        Err(msg) => protocol::parse_error_response(&msg),
    })
}

fn handle_request(ctx: &ServerCtx, req: &Request) -> Json {
    match req.op {
        Op::Ping => Json::obj([("status", Json::str("ok")), ("op", Json::str("ping"))]),
        Op::Shutdown => {
            request_shutdown();
            ctx.admission.close();
            Json::obj([
                ("status", Json::str("ok")),
                ("op", Json::str("shutdown")),
                ("draining", Json::Bool(true)),
            ])
        }
        Op::Stats => stats_response(ctx, req),
        Op::Run | Op::Explain | Op::Profile => handle_query(ctx, req),
    }
}

fn handle_query(ctx: &ServerCtx, req: &Request) -> Json {
    if shutting_down() {
        return protocol::shutting_down_response(req.op);
    }
    let ticket = match ctx.admission.admit() {
        Admit::Granted(t) => t,
        Admit::Shed { queue_depth } => {
            return protocol::overloaded_response(req.op, &req.tenant, queue_depth)
        }
        Admit::Draining => return protocol::shutting_down_response(req.op),
    };
    let query_id = genpar_obs::timeline::begin_query().0;
    // every record this request produces — on this thread and on every
    // pool worker its tasks land on — lands in a per-request obs scope
    // keyed by (query id, tenant); dropping it below rolls the registry
    // up into the global root and retains the per-tenant summary that
    // the stats op's "tenant"/"query_id" filters serve
    let obs_scope = genpar_obs::Scope::for_request(query_id, Some(&req.tenant));
    // arm the tenant quota pool on this session thread, then the
    // per-request wall deadline over it: every charge — here and on the
    // pool workers the executor hands the armed meter — checks the
    // deadline and draws from the pool
    let _tenant_scope = ctx
        .tenants
        .meter(&req.tenant)
        .map(genpar_guard::enter_shared);
    let timeout = req.timeout_ms.or(ctx.default_timeout_ms);
    let _wall = timeout.map(|ms| genpar_guard::arm_wall_deadline(Duration::from_millis(ms)));
    let t0 = Instant::now();
    let result = {
        let _g = obs_scope.enter();
        ctx.handler.execute(
            req.op,
            req.query.as_deref().unwrap_or_default(),
            req.workers,
        )
    };
    drop(obs_scope); // roll up before rendering: stats sees this request
    let elapsed_us = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
    ctx.served.fetch_add(1, Ordering::Relaxed);
    drop(ticket); // free the in-flight slot before rendering
    match result {
        Ok(output) => protocol::ok_response(req.op, &req.tenant, query_id, &output, elapsed_us),
        Err(e) => protocol::error_response(
            req.op,
            &req.tenant,
            query_id,
            &e.kind,
            &e.message,
            elapsed_us,
        ),
    }
}

fn stats_response(ctx: &ServerCtx, req: &Request) -> Json {
    let snap = genpar_obs::snapshot();
    let counter = |name: &str| *snap.counters.get(name).unwrap_or(&0);
    let degrade_steps: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("exec.degrade_step"))
        .map(|(_, v)| *v)
        .sum();
    let (pool_available, pool_total) = genpar_exec::pool::worker_governor_stats().unwrap_or((0, 0));
    let mut fields = vec![
        ("status".to_string(), Json::str("ok")),
        ("op".to_string(), Json::str("stats")),
    ];
    // optional filters over the retained per-tenant roll-ups: presence
    // of the wire key selects the view, Json::Null means nothing kept
    if let Some(t) = &req.tenant_filter {
        fields.push((
            "tenant_rollup".to_string(),
            genpar_obs::scope::tenant_rollup_json(t),
        ));
    }
    if let Some(id) = req.query_id {
        fields.push((
            "query_rollup".to_string(),
            genpar_obs::scope::query_rollup_json(id),
        ));
    }
    let mut j = Json::obj([
        (
            "uptime_us",
            Json::Int(ctx.started.elapsed().as_micros().min(u64::MAX as u128) as i128),
        ),
        (
            "served",
            Json::Int(ctx.served.load(Ordering::Relaxed) as i128),
        ),
        ("inflight", Json::Int(ctx.admission.inflight() as i128)),
        ("admitted", Json::Int(counter("serve.admit") as i128)),
        ("shed", Json::Int(counter("serve.shed") as i128)),
        ("degrade_steps", Json::Int(degrade_steps as i128)),
        (
            "pool",
            Json::obj([
                ("available", Json::Int(pool_available as i128)),
                ("total", Json::Int(pool_total as i128)),
            ]),
        ),
        ("tenants", ctx.tenants.usage_json()),
    ]);
    if let Json::Obj(base) = &mut j {
        // splice the status/op/filter fields in front of the counters
        base.splice(0..0, fields);
    }
    j
}
