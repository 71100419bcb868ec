//! The process's `GENPAR_*` settings, read from the environment once.
//!
//! [`RunConfig::from_env`] is the one place the workspace reads its
//! environment. Each variable is parsed strictly into one field: an
//! empty value means unset, and a malformed value is a usage error
//! (exit 2) naming the variable. The binary then installs the settings
//! hot paths read as process globals ([`RunConfig::install`]) and passes
//! the per-run ones — the worker count, the VM switch and the retry
//! policy — down to the commands.

use crate::{parse_workers, CliError};
use genpar_exec::ExecConfig;
use genpar_guard::{BudgetScope, ExecBudget, RetryPolicy};
use std::fmt::Display;

const OBS_ENV: &str = "GENPAR_OBS";
const TIMELINE_ENV: &str = "GENPAR_TIMELINE";
pub(crate) const VM_ENV: &str = "GENPAR_VM";
const MORSEL_ENV: &str = "GENPAR_MORSEL";
const RETRY_ENV: &str = "GENPAR_RETRY";
const PARALLEL_ENV: &str = "GENPAR_PARALLEL";
const FAULTS_ENV: &str = "GENPAR_FAULTS";
const BUDGET_ENV: &str = "GENPAR_BUDGET";

/// Every `GENPAR_*` setting of one process. The default is the setting
/// with every variable unset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    /// `GENPAR_OBS`, a flag (`1/0`, `on/off`, `true/false`; default on).
    /// `--quiet` turns it off.
    pub obs: bool,
    /// `GENPAR_TIMELINE`, a flag (default off).
    pub timeline: bool,
    /// `GENPAR_VM`, a flag (default on): σ/map on the bytecode VM.
    pub vm: bool,
    /// `GENPAR_MORSEL`: `N` starts the tuner at `N` rows, `fixed:N` pins
    /// it there (`N >= 1`).
    pub morsel: Option<(usize, bool)>,
    /// `GENPAR_RETRY`: the retry policy (`0..=16`; default 2).
    pub retry: RetryPolicy,
    /// `GENPAR_PARALLEL`: the worker count when `--parallel` is absent.
    pub parallel: Option<usize>,
    /// `GENPAR_FAULTS`: a fault spec, checked against the known sites.
    pub faults: Option<String>,
    /// `GENPAR_BUDGET`: a budget armed around the whole command.
    pub budget: Option<ExecBudget>,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            obs: true,
            timeline: false,
            vm: true,
            morsel: None,
            retry: RetryPolicy::default(),
            parallel: None,
            faults: None,
            budget: None,
        }
    }
}

/// A usage error naming the variable.
fn bad(var: &str, e: impl Display) -> CliError {
    CliError::usage(format!("bad {var}: {e}"))
}

fn flag(var: &str, v: &str) -> Result<bool, CliError> {
    match v.to_ascii_lowercase().as_str() {
        "1" | "on" | "true" => Ok(true),
        "0" | "off" | "false" => Ok(false),
        _ => Err(bad(var, format!("{v:?} (want 1/0, on/off or true/false)"))),
    }
}

fn morsel(v: &str) -> Result<(usize, bool), CliError> {
    let (n, pinned) = match v.strip_prefix("fixed:") {
        Some(n) => (n.trim(), true),
        None => (v, false),
    };
    match n.parse::<usize>() {
        Ok(n) if n >= 1 => Ok((n, pinned)),
        _ => Err(bad(
            MORSEL_ENV,
            format!("{v:?} (want N or fixed:N, N >= 1)"),
        )),
    }
}

impl RunConfig {
    /// Read and check every `GENPAR_*` variable.
    pub fn from_env() -> Result<RunConfig, CliError> {
        // a non-UTF-8 value becomes replacement characters, which no
        // variable's grammar accepts
        RunConfig::from_lookup(|var| std::env::var_os(var).map(|v| v.to_string_lossy().into()))
    }

    /// [`RunConfig::from_env`] over any variable lookup.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<RunConfig, CliError> {
        let get = |var: &str| {
            let v = lookup(var)?;
            let v = v.trim();
            (!v.is_empty()).then(|| v.to_string())
        };
        let mut run = RunConfig::default();
        for (var, field) in [
            (OBS_ENV, &mut run.obs),
            (TIMELINE_ENV, &mut run.timeline),
            (VM_ENV, &mut run.vm),
        ] {
            if let Some(v) = get(var) {
                *field = flag(var, &v)?;
            }
        }
        run.morsel = get(MORSEL_ENV).map(|v| morsel(&v)).transpose()?;
        if let Some(v) = get(RETRY_ENV) {
            run.retry = RetryPolicy::parse(&v).map_err(|e| bad(RETRY_ENV, e))?;
        }
        run.parallel = get(PARALLEL_ENV)
            .map(|v| parse_workers(PARALLEL_ENV, &v))
            .transpose()?;
        if let Some(spec) = get(FAULTS_ENV) {
            genpar_guard::check_faults_strict(&spec).map_err(|e| bad(FAULTS_ENV, e))?;
            run.faults = Some(spec);
        }
        run.budget = get(BUDGET_ENV)
            .map(|v| ExecBudget::parse(&v).map_err(|e| bad(BUDGET_ENV, e)))
            .transpose()?;
        Ok(run)
    }

    /// Install the settings hot paths read as process globals —
    /// observability, the timeline flag, the fault table and the morsel
    /// tuner — and arm the budget for the calling thread until the
    /// returned scope drops. Call once, before any command runs.
    pub fn install(&self) -> Result<Option<BudgetScope>, CliError> {
        genpar_obs::set_enabled(self.obs);
        genpar_obs::timeline::set_enabled(self.timeline);
        if let Some(spec) = &self.faults {
            genpar_guard::arm_faults_strict(spec).map_err(|e| bad(FAULTS_ENV, e))?;
        }
        if let Some((rows, pinned)) = self.morsel {
            genpar_exec::tune::init(rows, pinned);
        }
        Ok(self.budget.map(ExecBudget::enter))
    }

    /// The executor settings every run starts from: the VM switch and
    /// the retry policy (the worker count is set per run).
    pub fn exec(&self) -> ExecConfig {
        ExecConfig {
            vm: self.vm,
            retry: self.retry,
            ..ExecConfig::default()
        }
    }

    /// The worker count: `--parallel` when given, else `GENPAR_PARALLEL`,
    /// else one.
    pub fn workers(&self, flag: Option<usize>) -> usize {
        flag.or(self.parallel).unwrap_or(1).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> Result<RunConfig, CliError> {
        RunConfig::from_lookup(|var| {
            vars.iter()
                .find(|(k, _)| *k == var)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn every_variable_parses_into_its_field_and_empty_means_unset() {
        assert_eq!(parse(&[]).unwrap(), RunConfig::default());
        let empty = RunConfig::from_lookup(|_| Some(" ".to_string()));
        assert_eq!(empty.unwrap(), RunConfig::default());
        let run = parse(&[
            (OBS_ENV, "OFF"),
            (TIMELINE_ENV, "1"),
            (VM_ENV, "false"),
            (MORSEL_ENV, "fixed: 512"),
            (RETRY_ENV, "0"),
            (PARALLEL_ENV, "4"),
            (FAULTS_ENV, "exec.morsel:2"),
            (BUDGET_ENV, "rows=7"),
        ])
        .unwrap();
        assert!(!run.obs && run.timeline && !run.vm);
        assert_eq!(run.morsel, Some((512, true)));
        assert_eq!(run.parallel, Some(4));
        assert_eq!(run.faults.as_deref(), Some("exec.morsel:2"));
        assert_eq!(run.budget.map(|b| b.max_rows), Some(7));
        assert_eq!(
            parse(&[(MORSEL_ENV, "256")]).unwrap().morsel,
            Some((256, false))
        );
        let exec = run.exec();
        assert!(!exec.vm);
        assert_eq!(exec.retry, RetryPolicy::none());
        assert_eq!((run.workers(None), run.workers(Some(2))), (4, 2));
    }

    #[test]
    fn malformed_flags_and_morsel_sizes_are_usage_errors_naming_the_variable() {
        for (var, v) in [
            (OBS_ENV, "nope"),
            (TIMELINE_ENV, "yes"),
            (VM_ENV, "banana"),
            (MORSEL_ENV, "abc"),
            (MORSEL_ENV, "0"),
            (MORSEL_ENV, "fixed:0"),
            (MORSEL_ENV, "fixed:abc"),
        ] {
            let e = parse(&[(var, v)]).unwrap_err();
            assert_eq!(e.exit_code(), 2, "{var}={v}: {e}");
            assert!(e.message.contains(var), "{var}={v}: {e}");
        }
    }
}
