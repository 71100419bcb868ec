#![deny(clippy::unwrap_used, clippy::expect_used)]
//! The `genpar` binary. See [`genpar_cli`] for the library half.
//!
//! Exit codes: 0 success, 1 runtime error, 2 usage error, 3 parse
//! error, 4 budget exceeded, 5 internal error (injected fault or
//! caught panic).

use genpar_cli::config::RunConfig;
use genpar_cli::{commands, parse_args, CliError};

fn fail(e: &CliError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(e.exit_code());
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // every GENPAR_* variable, checked once; a malformed one is exit 2
    let mut run = RunConfig::from_env().unwrap_or_else(|e| fail(&e));
    // --quiet (anywhere on the line) is GENPAR_OBS=off
    if args.iter().any(|a| a == "--quiet") {
        args.retain(|a| a != "--quiet");
        run.obs = false;
    }
    // the process globals, before any command runs; the budget scope
    // must outlive execution, so it is held here
    let _budget = run.install().unwrap_or_else(|e| fail(&e));

    // Panic boundary: anything that unwinds out of command execution
    // becomes an internal error with exit code 5, never an abort trace.
    let result = genpar_guard::catch_panics(|| {
        parse_args(&args).and_then(|cmd| commands::execute(&cmd, &run))
    });
    match result {
        Ok(Ok(out)) => print!("{out}"),
        Ok(Err(e)) => fail(&e),
        Err(panic_msg) => fail(&CliError::internal(format!("internal error: {panic_msg}"))),
    }
}
