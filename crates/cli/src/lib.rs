#![warn(missing_docs)]
// Execution paths must fail structurally, never unwrap (tests exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # genpar-cli — command-line access to the genericity toolkit
//!
//! The library half of the `genpar` binary: command parsing, the database
//! file format, and the command implementations (testable without a
//! process boundary).
//!
//! ```text
//! genpar classify '<query>'                    static classification + trace
//! genpar check    '<query>' [--mode M] [--class C]   dynamic invariance check
//! genpar probe    '<query>' [--mode M]         tightest-class ladder
//! genpar run      '<query>' --db FILE          evaluate against a database
//! genpar optimize '<query>' [--db FILE] [--union-key R,S:$1]
//! genpar explain  '<query>' [--db FILE] [--union-key R,S:$1]
//! genpar profile  '<query>' [--db FILE] [--union-key R,S:$1] [--json]
//! genpar audit                                 classify the paper's query catalog
//! ```
//!
//! All commands accept `--quiet` (or `GENPAR_OBS=off`) to disable the
//! observability layer entirely.
//!
//! Database files bind relation names to complex-value literals:
//!
//! ```text
//! # Example 2.2
//! R = {(e, f), (i, f), (e, j), (i, j), (f, g), (j, g)}
//! S = {(a, b)}
//! ```

pub mod commands;
pub mod dbfile;
pub mod serve_cmd;

use std::fmt;

/// What went wrong, at the granularity the process exit code reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Bad command line, flags, or environment spec (exit 2).
    Usage,
    /// Query text or database file failed to parse (exit 3).
    Parse,
    /// An [`genpar_guard::ExecBudget`] cap was crossed (exit 4).
    Budget,
    /// An injected fault fired or a panic was caught at the execution
    /// boundary (exit 5).
    Internal,
    /// Any other runtime failure — unknown relation, IO, shape errors
    /// (exit 1).
    Runtime,
}

impl ErrorKind {
    /// The process exit code for this kind.
    pub fn exit_code(self) -> i32 {
        match self {
            ErrorKind::Runtime => 1,
            ErrorKind::Usage => 2,
            ErrorKind::Parse => 3,
            ErrorKind::Budget => 4,
            ErrorKind::Internal => 5,
        }
    }

    /// The kind's name on the serve wire protocol (`error.kind`).
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Runtime => "runtime",
            ErrorKind::Usage => "usage",
            ErrorKind::Parse => "parse",
            ErrorKind::Budget => "budget",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A CLI-level error: a category (which fixes the exit code) plus a
/// rendered message.
#[derive(Debug)]
pub struct CliError {
    /// The error category.
    pub kind: ErrorKind,
    /// Human-readable message (printed to stderr).
    pub message: String,
}

impl CliError {
    /// A bad-usage error (exit 2).
    pub fn usage(message: impl Into<String>) -> CliError {
        CliError {
            kind: ErrorKind::Usage,
            message: message.into(),
        }
    }

    /// A parse error (exit 3).
    pub fn parse(message: impl Into<String>) -> CliError {
        CliError {
            kind: ErrorKind::Parse,
            message: message.into(),
        }
    }

    /// A budget-exceeded error (exit 4).
    pub fn budget(message: impl Into<String>) -> CliError {
        CliError {
            kind: ErrorKind::Budget,
            message: message.into(),
        }
    }

    /// An internal error — injected fault or caught panic (exit 5).
    pub fn internal(message: impl Into<String>) -> CliError {
        CliError {
            kind: ErrorKind::Internal,
            message: message.into(),
        }
    }

    /// Any other runtime error (exit 1).
    pub fn runtime(message: impl Into<String>) -> CliError {
        CliError {
            kind: ErrorKind::Runtime,
            message: message.into(),
        }
    }

    /// The process exit code for this error.
    pub fn exit_code(&self) -> i32 {
        self.kind.exit_code()
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::runtime(format!("io error: {e}"))
    }
}

impl From<genpar_algebra::eval::EvalError> for CliError {
    fn from(e: genpar_algebra::eval::EvalError) -> Self {
        use genpar_algebra::eval::EvalError;
        match &e {
            EvalError::BudgetExceeded { .. } => CliError::budget(e.to_string()),
            EvalError::Fault(_) => CliError::internal(e.to_string()),
            _ => CliError::runtime(e.to_string()),
        }
    }
}

impl From<genpar_engine::plan::ExecError> for CliError {
    fn from(e: genpar_engine::plan::ExecError) -> Self {
        use genpar_engine::plan::ExecError;
        match &e {
            ExecError::Budget { .. } => CliError::budget(e.to_string()),
            ExecError::Fault(_) | ExecError::Internal(_) => CliError::internal(e.to_string()),
            _ => CliError::runtime(e.to_string()),
        }
    }
}

/// Usage text.
pub const USAGE: &str = "genpar — genericity & parametricity toolkit (PODS'96 reproduction)

USAGE:
  genpar classify '<query>'
  genpar check    '<query>' [--mode rel|strong] [--class all|total-surjective|functional|injective|bijective]
  genpar probe    '<query>' [--mode rel|strong] [--arity N]
  genpar run      '<query>' --db FILE [--parallel N] [--timeout MS]
  genpar optimize '<query>' [--db FILE] [--union-key R,S:$N]
  genpar explain  '<query>' [--db FILE] [--union-key R,S:$N] [--parallel N] [--calibration FILE]
                  [--stats FILE]
  genpar profile  '<query>' [--db FILE] [--union-key R,S:$N] [--json] [--parallel N]
                  [--trace FILE] [--timeline] [--calibration FILE] [--stats FILE] [--timeout MS]
  genpar calibrate [--bench FILE] [--out FILE]
  genpar stats    show|reset [--file FILE]
  genpar chaos    [--seed N] [--cases M]
  genpar serve    <db.gdb> --port P [--parallel N] [--tenant-budget SPEC] [--max-inflight N]
                  [--queue N] [--calibration FILE] [--stats FILE] [--timeout MS]
  genpar audit

  --quiet (any command) or GENPAR_OBS=off disables observability.
  --parallel N (or GENPAR_PARALLEL=N) runs partition-safe queries on N
  worker threads; root-level count/sum/even run as partition-local
  accumulators with a serial combine, and root-level fix runs each
  round's body on the morsel pool (semi-naive deltas). Queries the
  genericity checker cannot certify fall back to serial evaluation
  (recorded as an exec.fallback event).
  --trace FILE exports the run's spans/events as Chrome trace_event
  JSON (load in chrome://tracing or Perfetto; .jsonl ext for JSONL).
  --timeline (or GENPAR_TIMELINE=1) records real begin/end instants in
  per-worker ring buffers, so --trace emits a true timeline — morsel
  scheduling, steals, fixpoint-round barriers on per-worker lanes,
  stamped with a fresh query id per executor entry. --trace implies it.
  --calibration FILE loads measured cost-model parameters (see
  `genpar calibrate`, which fits them from BENCH_parallel.json).
  --stats FILE (explain/profile) loads a persistent observed-statistics
  store: per-plan-shape cardinality EWMAs override the static model's
  guesses once an entry has >= 3 samples (explain marks each node
  `static` or `observed(n=..)`). `profile --stats` also harvests the
  run's plan.node_stats events back into FILE, so estimates improve
  run over run. Stats only ever change the chosen *route* — answers
  are identical with stats on or off. `genpar stats show|reset`
  inspects or clears the store (default STATS.json).
  GENPAR_MORSEL=fixed:N pins the auto-tuned morsel size. `profile
  --calibration FILE` writes the converged morsel size back into the
  file (key `morsel_rows`); later runs preseed the tuner from it
  (GENPAR_MORSEL always wins over the persisted seed).
  --timeout MS (run/profile) arms a wall-clock deadline; crossing it
  ends the command as a budget breach (exit 4, resource wall_ms).
  GENPAR_RETRY=N caps in-place re-runs of faulted morsels and fixpoint
  rounds (default 2, 0 disables); repeated faults quarantine the
  worker, and only an exhausted ladder degrades the query to serial.
  GENPAR_FAULTS=site:nth|* arms deterministic fault injection at a
  known site (unknown sites are usage errors naming the bad token).
  `genpar serve` keeps the database, calibration and statistics store
  resident and answers a line-oriented JSON protocol on 127.0.0.1:PORT
  (one request per line: {\"op\": \"run\"|\"explain\"|\"profile\"|\"stats\"|
  \"ping\"|\"shutdown\", \"query\": ..., \"tenant\": ..., \"timeout_ms\": ...,
  \"workers\": ...}). --tenant-budget SPEC (the GENPAR_BUDGET grammar)
  gives every tenant its own cumulative quota pool — exhausting it
  yields structured budget_exceeded responses while other tenants keep
  running. --max-inflight / --queue bound admission: past both, requests
  are shed with an `overloaded` response instead of degrading everyone.
  SIGINT (or the shutdown op) drains in-flight queries, flushes state
  files through the checksummed writer, and exits 0.
  The serve `stats` op takes optional \"tenant\"/\"query_id\" fields
  filtering over the per-tenant obs roll-ups retained by the scoped
  registry (each request records into its own scope, rolled up into
  the process totals on completion).
  `genpar chaos` replays --cases seeded fault storms (morsel, merge,
  fixpoint-round, combine, retry and persistence faults) and fails
  loudly if any recovered answer differs from fault-free serial
  evaluation.

QUERY SYNTAX (columns are 1-based):
  R | empty | lit[{(a,b)}]
  pi[$1,$2](q)        select[$1=$2](q)      select[$1=7](q)
  select[even($1)](q) hat[$1=$2](q)         map[id|$N|cols($..)|const(v)|name](q)
  union(q,q) intersect(q,q) diff(q,q) product(q,q) join[$1=$1](q,q)
  nest[$1](q) unnest[$2](q)
  insert[(v)](q) singleton(q) flatten(q) powerset(q)
  eqadom(q) adom(q) even(q) np(q) complement(q)
  count(q) sum[$N](q) fix[X](init, step)

DB FILE: lines of `name = <value literal>`; `#` comments.";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `classify <query>`
    Classify {
        /// The query text.
        query: String,
    },
    /// `check <query> ...`
    Check {
        /// The query text.
        query: String,
        /// `rel` or `strong`.
        mode: String,
        /// Mapping-class name.
        class: String,
    },
    /// `probe <query> ...`
    Probe {
        /// The query text.
        query: String,
        /// `rel` or `strong`.
        mode: String,
        /// Assumed arity of the input relations.
        arity: usize,
    },
    /// `run <query> --db FILE [--parallel N] [--timeout MS]`
    Run {
        /// The query text.
        query: String,
        /// Path to a `.gdb` database file.
        db: String,
        /// Worker threads from `--parallel` (`None` defers to
        /// `GENPAR_PARALLEL`, then serial).
        workers: Option<usize>,
        /// Wall-clock deadline in milliseconds (`--timeout`); crossing
        /// it is a budget breach (exit 4).
        timeout_ms: Option<u64>,
    },
    /// `optimize <query> ...`
    Optimize {
        /// The query text.
        query: String,
        /// Optional `.gdb` file for cardinalities.
        db: Option<String>,
        /// Optional `R,S:$N` union-key assertion.
        union_key: Option<String>,
    },
    /// `explain <query> ...` — rewrite trace, blocked rules, chosen plan.
    Explain {
        /// The query text.
        query: String,
        /// Optional `.gdb` file for cardinalities.
        db: Option<String>,
        /// Optional `R,S:$N` union-key assertion.
        union_key: Option<String>,
        /// Worker threads from `--parallel` (`None` defers to
        /// `GENPAR_PARALLEL`, then serial).
        workers: Option<usize>,
        /// Optional calibration file for the parallel cost model.
        calibration: Option<String>,
        /// Optional observed-statistics store consulted by the cost
        /// model (entries with enough samples override static guesses).
        stats: Option<String>,
    },
    /// `profile <query> ...` — run the query and dump the obs snapshot.
    Profile {
        /// The query text.
        query: String,
        /// Optional `.gdb` file to run against.
        db: Option<String>,
        /// Optional `R,S:$N` union-key assertion.
        union_key: Option<String>,
        /// Emit the snapshot as JSON instead of a tree.
        json: bool,
        /// Worker threads from `--parallel` (`None` defers to
        /// `GENPAR_PARALLEL`, then serial).
        workers: Option<usize>,
        /// Write the run's spans/events as a Chrome `trace_event` file
        /// (`.jsonl` extension switches to JSONL).
        trace: Option<String>,
        /// Record real begin/end instants in the per-worker timeline
        /// rings for this run (`--trace` implies it).
        timeline: bool,
        /// Optional calibration file for the parallel cost model.
        calibration: Option<String>,
        /// Optional observed-statistics store: consulted for routing
        /// before the run, harvested from the run's `plan.node_stats`
        /// events and written back after it.
        stats: Option<String>,
        /// Wall-clock deadline in milliseconds (`--timeout`); crossing
        /// it is a budget breach (exit 4).
        timeout_ms: Option<u64>,
    },
    /// `calibrate` — fit the parallel cost model from a bench JSON and
    /// write a calibration file.
    Calibrate {
        /// Bench results to fit from (default `BENCH_parallel.json`).
        bench: String,
        /// Calibration file to write (default `CALIBRATION.json`).
        out: String,
    },
    /// `stats show|reset` — inspect or clear an observed-statistics
    /// store file.
    Stats {
        /// `show` or `reset`.
        action: String,
        /// Store file (default `STATS.json`).
        file: String,
    },
    /// `chaos` — the built-in chaos oracle: replay deterministic fault
    /// storms over random queries and assert the recovered answers stay
    /// byte-identical to fault-free serial evaluation.
    Chaos {
        /// Deterministic seed for the storm generator.
        seed: u64,
        /// Number of cases to run (default 64).
        cases: u32,
    },
    /// `serve <db.gdb> --port P` — the resident multi-tenant query
    /// service (line-oriented JSON over TCP).
    Serve {
        /// Path to the `.gdb` database file held resident.
        db: String,
        /// Port to bind on 127.0.0.1 (0 = ephemeral, announced on stderr).
        port: u16,
        /// Worker slots in the process-wide morsel pool (`--parallel`;
        /// `None` defers to `GENPAR_PARALLEL`, then serial).
        workers: Option<usize>,
        /// Per-tenant quota spec (`--tenant-budget`, the `GENPAR_BUDGET`
        /// grammar); `None` = unmetered tenants.
        tenant_budget: Option<String>,
        /// Queries executing concurrently before arrivals queue
        /// (`--max-inflight`; defaults to twice the worker count).
        max_inflight: Option<usize>,
        /// Queued requests beyond which arrivals are shed (`--queue`).
        queue_cap: Option<usize>,
        /// Calibration file held resident (`--calibration`).
        calibration: Option<String>,
        /// Observed-statistics store held resident (`--stats`).
        stats: Option<String>,
        /// Default per-request wall deadline (`--timeout`), overridable
        /// per request via the protocol's `timeout_ms` field.
        timeout_ms: Option<u64>,
    },
    /// `audit` — classify the built-in paper catalog.
    Audit,
    /// `--help` or no args.
    Help,
}

/// Parse a worker count the way both `--parallel` and `GENPAR_PARALLEL`
/// take it; `source` names the flag or variable in the usage error.
pub fn parse_workers(source: &str, value: &str) -> Result<usize, CliError> {
    value
        .parse::<usize>()
        .map_err(|e| CliError::usage(format!("bad {source} {value:?}: {e}")))
}

/// Parse argv (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    let mut rest: Vec<&String> = it.collect();

    fn take_switch(rest: &mut Vec<&String>, flag: &str) -> bool {
        match rest.iter().position(|a| a.as_str() == flag) {
            Some(idx) => {
                rest.remove(idx);
                true
            }
            None => false,
        }
    }

    fn take_flag(rest: &mut Vec<&String>, flag: &str) -> Option<String> {
        let idx = rest.iter().position(|a| a.as_str() == flag)?;
        if idx + 1 < rest.len() {
            let val = rest[idx + 1].clone();
            rest.drain(idx..=idx + 1);
            Some(val)
        } else {
            rest.remove(idx);
            None
        }
    }

    fn take_workers(rest: &mut Vec<&String>) -> Result<Option<usize>, CliError> {
        take_flag(rest, "--parallel")
            .map(|w| parse_workers("--parallel", &w))
            .transpose()
    }

    fn take_timeout(rest: &mut Vec<&String>) -> Result<Option<u64>, CliError> {
        let present = rest.iter().any(|a| a.as_str() == "--timeout");
        match take_flag(rest, "--timeout") {
            Some(ms) => ms
                .parse::<u64>()
                .map(Some)
                .map_err(|e| CliError::usage(format!("bad --timeout {ms:?}: {e}"))),
            None if present => Err(CliError::usage("--timeout needs a value in milliseconds")),
            None => Ok(None),
        }
    }

    match cmd.as_str() {
        "--help" | "-h" | "help" => Ok(Command::Help),
        "audit" => Ok(Command::Audit),
        "classify" => {
            let query = rest
                .first()
                .ok_or_else(|| CliError::usage("classify needs a query"))?
                .to_string();
            Ok(Command::Classify { query })
        }
        "check" => {
            let mode = take_flag(&mut rest, "--mode").unwrap_or_else(|| "rel".into());
            let class = take_flag(&mut rest, "--class").unwrap_or_else(|| "all".into());
            let query = rest
                .first()
                .ok_or_else(|| CliError::usage("check needs a query"))?
                .to_string();
            Ok(Command::Check { query, mode, class })
        }
        "probe" => {
            let mode = take_flag(&mut rest, "--mode").unwrap_or_else(|| "rel".into());
            let arity = take_flag(&mut rest, "--arity")
                .map(|a| {
                    a.parse::<usize>()
                        .map_err(|e| CliError::usage(format!("bad --arity: {e}")))
                })
                .transpose()?
                .unwrap_or(2);
            let query = rest
                .first()
                .ok_or_else(|| CliError::usage("probe needs a query"))?
                .to_string();
            Ok(Command::Probe { query, mode, arity })
        }
        "run" => {
            let db = take_flag(&mut rest, "--db")
                .ok_or_else(|| CliError::usage("run needs --db FILE"))?;
            let workers = take_workers(&mut rest)?;
            let timeout_ms = take_timeout(&mut rest)?;
            let query = rest
                .first()
                .ok_or_else(|| CliError::usage("run needs a query"))?
                .to_string();
            Ok(Command::Run {
                query,
                db,
                workers,
                timeout_ms,
            })
        }
        "optimize" => {
            let db = take_flag(&mut rest, "--db");
            let union_key = take_flag(&mut rest, "--union-key");
            let query = rest
                .first()
                .ok_or_else(|| CliError::usage("optimize needs a query"))?
                .to_string();
            Ok(Command::Optimize {
                query,
                db,
                union_key,
            })
        }
        "explain" => {
            let db = take_flag(&mut rest, "--db");
            let union_key = take_flag(&mut rest, "--union-key");
            let workers = take_workers(&mut rest)?;
            let calibration = take_flag(&mut rest, "--calibration");
            let stats = take_flag(&mut rest, "--stats");
            let query = rest
                .first()
                .ok_or_else(|| CliError::usage("explain needs a query"))?
                .to_string();
            Ok(Command::Explain {
                query,
                db,
                union_key,
                workers,
                calibration,
                stats,
            })
        }
        "profile" => {
            let db = take_flag(&mut rest, "--db");
            let union_key = take_flag(&mut rest, "--union-key");
            let json = take_switch(&mut rest, "--json");
            let workers = take_workers(&mut rest)?;
            let trace = take_flag(&mut rest, "--trace");
            let timeline = take_switch(&mut rest, "--timeline");
            let calibration = take_flag(&mut rest, "--calibration");
            let stats = take_flag(&mut rest, "--stats");
            let timeout_ms = take_timeout(&mut rest)?;
            let query = rest
                .first()
                .ok_or_else(|| CliError::usage("profile needs a query"))?
                .to_string();
            Ok(Command::Profile {
                query,
                db,
                union_key,
                json,
                workers,
                trace,
                timeline,
                calibration,
                stats,
                timeout_ms,
            })
        }
        "calibrate" => {
            let bench =
                take_flag(&mut rest, "--bench").unwrap_or_else(|| "BENCH_parallel.json".into());
            let out = take_flag(&mut rest, "--out").unwrap_or_else(|| "CALIBRATION.json".into());
            if let Some(stray) = rest.first() {
                return Err(CliError::usage(format!(
                    "calibrate takes no positional arguments (got {stray:?})"
                )));
            }
            Ok(Command::Calibrate { bench, out })
        }
        "chaos" => {
            let seed = take_flag(&mut rest, "--seed")
                .map(|s| {
                    s.parse::<u64>()
                        .map_err(|e| CliError::usage(format!("bad --seed {s:?}: {e}")))
                })
                .transpose()?
                .unwrap_or(0);
            let cases = take_flag(&mut rest, "--cases")
                .map(|s| {
                    s.parse::<u32>()
                        .map_err(|e| CliError::usage(format!("bad --cases {s:?}: {e}")))
                })
                .transpose()?
                .unwrap_or(64);
            if cases == 0 {
                return Err(CliError::usage("--cases must be at least 1"));
            }
            if let Some(stray) = rest.first() {
                return Err(CliError::usage(format!(
                    "chaos takes no positional arguments (got {stray:?})"
                )));
            }
            Ok(Command::Chaos { seed, cases })
        }
        "serve" => {
            fn take_parsed<T: std::str::FromStr>(
                rest: &mut Vec<&String>,
                flag: &str,
            ) -> Result<Option<T>, CliError>
            where
                T::Err: std::fmt::Display,
            {
                let present = rest.iter().any(|a| a.as_str() == flag);
                match take_flag(rest, flag) {
                    Some(v) => v
                        .parse::<T>()
                        .map(Some)
                        .map_err(|e| CliError::usage(format!("bad {flag} {v:?}: {e}"))),
                    None if present => Err(CliError::usage(format!("{flag} needs a value"))),
                    None => Ok(None),
                }
            }
            let port = take_parsed::<u16>(&mut rest, "--port")?
                .ok_or_else(|| CliError::usage("serve needs --port P (0 = ephemeral)"))?;
            let workers = take_workers(&mut rest)?;
            let tenant_budget = take_flag(&mut rest, "--tenant-budget");
            let max_inflight = take_parsed::<usize>(&mut rest, "--max-inflight")?;
            let queue_cap = take_parsed::<usize>(&mut rest, "--queue")?;
            let calibration = take_flag(&mut rest, "--calibration");
            let stats = take_flag(&mut rest, "--stats");
            let timeout_ms = take_timeout(&mut rest)?;
            let db = rest
                .first()
                .ok_or_else(|| CliError::usage("serve needs a db file"))?
                .to_string();
            if let Some(stray) = rest.get(1) {
                return Err(CliError::usage(format!(
                    "serve takes one db file; unexpected argument {stray:?}"
                )));
            }
            Ok(Command::Serve {
                db,
                port,
                workers,
                tenant_budget,
                max_inflight,
                queue_cap,
                calibration,
                stats,
                timeout_ms,
            })
        }
        "stats" => {
            let file = take_flag(&mut rest, "--file").unwrap_or_else(|| "STATS.json".into());
            let action = rest
                .first()
                .map(|s| s.to_string())
                .ok_or_else(|| CliError::usage("stats needs an action: show|reset"))?;
            if action != "show" && action != "reset" {
                return Err(CliError::usage(format!(
                    "stats action must be show or reset (got {action:?})"
                )));
            }
            Ok(Command::Stats { action, file })
        }
        other => Err(CliError::usage(format!(
            "unknown command '{other}' (try --help)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_commands() {
        assert_eq!(parse_args(&argv(&[])).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv(&["--help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv(&["audit"])).unwrap(), Command::Audit);
        assert_eq!(
            parse_args(&argv(&["classify", "pi[$1](R)"])).unwrap(),
            Command::Classify {
                query: "pi[$1](R)".into()
            }
        );
        assert_eq!(
            parse_args(&argv(&["check", "--mode", "strong", "R"])).unwrap(),
            Command::Check {
                query: "R".into(),
                mode: "strong".into(),
                class: "all".into()
            }
        );
        assert_eq!(
            parse_args(&argv(&["run", "--db", "x.gdb", "R"])).unwrap(),
            Command::Run {
                query: "R".into(),
                db: "x.gdb".into(),
                workers: None,
                timeout_ms: None
            }
        );
        assert_eq!(
            parse_args(&argv(&["run", "--db", "x.gdb", "--parallel", "4", "R"])).unwrap(),
            Command::Run {
                query: "R".into(),
                db: "x.gdb".into(),
                workers: Some(4),
                timeout_ms: None
            }
        );
        assert_eq!(
            parse_args(&argv(&["run", "--db", "x.gdb", "--timeout", "2500", "R"])).unwrap(),
            Command::Run {
                query: "R".into(),
                db: "x.gdb".into(),
                workers: None,
                timeout_ms: Some(2500)
            }
        );
        assert_eq!(
            parse_args(&argv(&["chaos"])).unwrap(),
            Command::Chaos { seed: 0, cases: 64 }
        );
        assert_eq!(
            parse_args(&argv(&["chaos", "--seed", "7", "--cases", "16"])).unwrap(),
            Command::Chaos { seed: 7, cases: 16 }
        );
        assert_eq!(
            parse_args(&argv(&["optimize", "--union-key", "R,S:$1", "diff(R,S)"])).unwrap(),
            Command::Optimize {
                query: "diff(R,S)".into(),
                db: None,
                union_key: Some("R,S:$1".into())
            }
        );
        assert_eq!(
            parse_args(&argv(&["explain", "pi[$1](union(R, S))"])).unwrap(),
            Command::Explain {
                query: "pi[$1](union(R, S))".into(),
                db: None,
                union_key: None,
                workers: None,
                calibration: None,
                stats: None
            }
        );
        assert_eq!(
            parse_args(&argv(&["profile", "--json", "--db", "x.gdb", "R"])).unwrap(),
            Command::Profile {
                query: "R".into(),
                db: Some("x.gdb".into()),
                union_key: None,
                json: true,
                workers: None,
                trace: None,
                timeline: false,
                calibration: None,
                stats: None,
                timeout_ms: None
            }
        );
        assert_eq!(
            parse_args(&argv(&["profile", "--parallel", "8", "R"])).unwrap(),
            Command::Profile {
                query: "R".into(),
                db: None,
                union_key: None,
                json: false,
                workers: Some(8),
                trace: None,
                timeline: false,
                calibration: None,
                stats: None,
                timeout_ms: None
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "profile",
                "--trace",
                "out.json",
                "--calibration",
                "cal.json",
                "R"
            ]))
            .unwrap(),
            Command::Profile {
                query: "R".into(),
                db: None,
                union_key: None,
                json: false,
                workers: None,
                trace: Some("out.json".into()),
                timeline: false,
                calibration: Some("cal.json".into()),
                stats: None,
                timeout_ms: None
            }
        );
        assert_eq!(
            parse_args(&argv(&["calibrate"])).unwrap(),
            Command::Calibrate {
                bench: "BENCH_parallel.json".into(),
                out: "CALIBRATION.json".into()
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "calibrate",
                "--bench",
                "b.json",
                "--out",
                "c.json"
            ]))
            .unwrap(),
            Command::Calibrate {
                bench: "b.json".into(),
                out: "c.json".into()
            }
        );
        assert_eq!(
            parse_args(&argv(&["serve", "--port", "7070", "x.gdb"])).unwrap(),
            Command::Serve {
                db: "x.gdb".into(),
                port: 7070,
                workers: None,
                tenant_budget: None,
                max_inflight: None,
                queue_cap: None,
                calibration: None,
                stats: None,
                timeout_ms: None
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "serve",
                "x.gdb",
                "--port",
                "7070",
                "--parallel",
                "4",
                "--tenant-budget",
                "cells=1000",
                "--max-inflight",
                "8",
                "--queue",
                "32",
                "--stats",
                "STATS.json",
                "--timeout",
                "500"
            ]))
            .unwrap(),
            Command::Serve {
                db: "x.gdb".into(),
                port: 7070,
                workers: Some(4),
                tenant_budget: Some("cells=1000".into()),
                max_inflight: Some(8),
                queue_cap: Some(32),
                calibration: None,
                stats: Some("STATS.json".into()),
                timeout_ms: Some(500)
            }
        );
    }

    #[test]
    fn rejects_bad_usage() {
        assert!(parse_args(&argv(&["classify"])).is_err());
        assert!(parse_args(&argv(&["explain"])).is_err());
        assert!(parse_args(&argv(&["profile", "--json"])).is_err());
        assert!(parse_args(&argv(&["run", "R"])).is_err());
        assert!(parse_args(&argv(&["frobnicate"])).is_err());
        assert!(parse_args(&argv(&["probe", "--arity", "x", "R"])).is_err());
        assert!(parse_args(&argv(&["run", "--db", "x.gdb", "--parallel", "many", "R"])).is_err());
        assert!(parse_args(&argv(&["calibrate", "stray-arg"])).is_err());
        // --timeout parsing is strict: missing or non-numeric values are
        // usage errors naming the bad token, never silently ignored
        assert!(parse_args(&argv(&["run", "--db", "x.gdb", "--timeout", "soon", "R"])).is_err());
        let err = parse_args(&argv(&["run", "--db", "x.gdb", "--timeout", "-5", "R"])).unwrap_err();
        assert!(err.message.contains("-5"), "{}", err.message);
        assert_eq!(err.kind, ErrorKind::Usage);
        assert!(parse_args(&argv(&["run", "--db", "x.gdb", "R", "--timeout"])).is_err());
        assert!(parse_args(&argv(&["chaos", "--seed", "NaN"])).is_err());
        assert!(parse_args(&argv(&["chaos", "--cases", "0"])).is_err());
        assert!(parse_args(&argv(&["chaos", "stray"])).is_err());
        // serve requires a port and a database; both omissions are usage
        // errors naming what is missing
        assert!(parse_args(&argv(&["serve", "x.gdb"])).is_err());
        assert!(parse_args(&argv(&["serve", "--port", "7070"])).is_err());
        assert!(parse_args(&argv(&["serve", "--port", "notaport", "x.gdb"])).is_err());
        assert!(parse_args(&argv(&["serve", "--port", "7070", "a.gdb", "b.gdb"])).is_err());
        // genpar-benchmark is the load harness; bench-serve is no command
        let err =
            parse_args(&argv(&["bench-serve", "--port", "7070", "--db", "x.gdb"])).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Usage);
    }
}
