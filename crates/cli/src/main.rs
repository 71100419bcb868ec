#![deny(clippy::unwrap_used, clippy::expect_used)]
//! The `genpar` binary. See [`genpar_cli`] for the library half.
//!
//! Exit codes: 0 success, 1 runtime error, 2 usage error, 3 parse
//! error, 4 budget exceeded, 5 internal error (injected fault or
//! caught panic).

use genpar_cli::{commands, parse_args, parse_workers, CliError};

fn fail(e: &CliError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(e.exit_code());
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // --quiet (anywhere on the line) disables the observability layer,
    // like GENPAR_OBS=off, before any command runs.
    if args.iter().any(|a| a == "--quiet") {
        args.retain(|a| a != "--quiet");
        genpar_obs::set_enabled(false);
    }

    // GENPAR_FAULTS=site:nth[,...] arms the fault-injection harness.
    // (FaultSpecError already names the env var in its rendering.)
    if let Err(e) = genpar_guard::arm_faults_from_env() {
        fail(&CliError::usage(e.to_string()));
    }

    // GENPAR_RETRY and GENPAR_PARALLEL are read where the executor runs,
    // which falls back to defaults; a malformed value is refused here.
    // Empty means unset for both.
    if let Err(e) = genpar_guard::RetryPolicy::from_env() {
        fail(&CliError::usage(e.to_string()));
    }
    let parallel = std::env::var(genpar_exec::PARALLEL_ENV).unwrap_or_default();
    if !parallel.trim().is_empty() {
        if let Err(e) = parse_workers(genpar_exec::PARALLEL_ENV, parallel.trim()) {
            fail(&e);
        }
    }

    // GENPAR_BUDGET=rows=N,cells=N,steps=N,depth=N,powerset=N arms an
    // execution budget for the whole command. The scope must outlive
    // execution, so it is held here.
    let budget = match std::env::var(genpar_guard::BUDGET_ENV) {
        Ok(spec) => match genpar_guard::ExecBudget::parse(&spec) {
            Ok(b) => Some(b),
            Err(e) => fail(&CliError::usage(format!(
                "bad {}: {e}",
                genpar_guard::BUDGET_ENV
            ))),
        },
        Err(_) => None,
    };
    let _scope = budget.map(|b| b.enter());

    // Panic boundary: anything that unwinds out of command execution
    // becomes an internal error with exit code 5, never an abort trace.
    let result =
        genpar_guard::catch_panics(|| parse_args(&args).and_then(|cmd| commands::execute(&cmd)));
    match result {
        Ok(Ok(out)) => print!("{out}"),
        Ok(Err(e)) => fail(&e),
        Err(panic_msg) => fail(&CliError::internal(format!("internal error: {panic_msg}"))),
    }
}
