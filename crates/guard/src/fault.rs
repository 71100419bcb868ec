//! Deterministic fault injection.
//!
//! Call sites name themselves with [`faultpoint`]`("exec.morsel")`; a
//! test (or an operator, through the `genpar` binary's `GENPAR_FAULTS`)
//! arms a spec like `exec.morsel:2` and the **second** hit of that site
//! fails with a [`Fault`]. Since the workspace is single-source-of-truth
//! deterministic, arming `site:nth` reproduces the identical failure
//! every run — the harness the robustness tests use to prove each
//! failure path ends in a structured error rather than a panic.
//!
//! ## Spec grammar
//!
//! ```text
//! spec  := arm {',' arm}
//! arm   := site ':' trigger
//! trigger := nat            fire on the nth hit only (1-based)
//!          | '*'            fire on every hit
//! site  := [a-zA-Z0-9._-]+
//! ```
//!
//! Example: `exec.morsel:1,optimizer.cost:*`.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Fast-path switch: false means every [`faultpoint`] is one relaxed
/// load and an immediate `Ok`.
static FAULTS_ARMED: AtomicBool = AtomicBool::new(false);

static TABLE: OnceLock<Mutex<HashMap<String, Arm>>> = OnceLock::new();

fn table() -> &'static Mutex<HashMap<String, Arm>> {
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

#[derive(Debug, Clone, Copy)]
struct Arm {
    /// `None` fires every hit; `Some(n)` fires on the nth hit (1-based).
    nth: Option<u64>,
    hits: u64,
}

/// An injected fault: the structured error a [`faultpoint`] produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// The site that fired.
    pub site: String,
    /// Which hit of the site this was (1-based).
    pub hit: u64,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {} (hit {})", self.site, self.hit)
    }
}

impl std::error::Error for Fault {}

/// A malformed fault spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(pub String);

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (want site:nth[,site:nth...], nth a 1-based count or '*')",
            self.0
        )
    }
}

impl std::error::Error for FaultSpecError {}

/// Every fault site compiled into the workspace, sorted. The
/// operator-facing [`arm_faults_strict`] validates against this registry
/// so a typo in an operator's spec is a loud usage error instead of a spec
/// that silently never fires. (The programmatic [`arm_faults`] stays
/// charset-only so tests may arm synthetic sites.)
pub const KNOWN_SITES: &[&str] = &[
    "algebra.eval",
    "bench.op",
    "checker.invariance",
    "exec.combine",
    "exec.fixpoint_round",
    "exec.merge",
    "exec.morsel",
    "exec.retry",
    "io.persist",
    "optimizer.cost",
    "optimizer.rewrite",
    "transfer.check",
    "vm.exec",
];

fn parse_spec(spec: &str, strict: bool) -> Result<HashMap<String, Arm>, FaultSpecError> {
    let mut arms = HashMap::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let Some((site, trigger)) = part.split_once(':') else {
            return Err(FaultSpecError(format!("missing ':' in {part:?}")));
        };
        let site = site.trim();
        if site.is_empty()
            || !site
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        {
            return Err(FaultSpecError(format!("bad site name {site:?}")));
        }
        if strict && !KNOWN_SITES.contains(&site) {
            return Err(FaultSpecError(format!(
                "unknown fault site {site:?} (known sites: {})",
                KNOWN_SITES.join(", ")
            )));
        }
        let nth = match trigger.trim() {
            "*" => None,
            n => match n.parse::<u64>() {
                Ok(n) if n >= 1 => Some(n),
                _ => {
                    return Err(FaultSpecError(format!("bad trigger {n:?} for site {site}")));
                }
            },
        };
        arms.insert(site.to_string(), Arm { nth, hits: 0 });
    }
    Ok(arms)
}

fn install(arms: HashMap<String, Arm>) {
    let armed = !arms.is_empty();
    *table().lock().unwrap_or_else(|e| e.into_inner()) = arms;
    FAULTS_ARMED.store(armed, Ordering::Relaxed);
}

/// Arm faults from a `site:nth[,site:nth...]` spec, replacing any
/// previously armed set. Site names are charset-checked only — tests
/// may arm synthetic sites that no shipped code contains.
pub fn arm_faults(spec: &str) -> Result<(), FaultSpecError> {
    install(parse_spec(spec, false)?);
    Ok(())
}

/// Like [`arm_faults`] but additionally rejecting sites absent from
/// [`KNOWN_SITES`] — the validation applied at the operator boundary,
/// where a typo would otherwise arm nothing and report nothing.
pub fn arm_faults_strict(spec: &str) -> Result<(), FaultSpecError> {
    install(parse_spec(spec, true)?);
    Ok(())
}

/// The validation [`arm_faults_strict`] applies, without arming.
pub fn check_faults_strict(spec: &str) -> Result<(), FaultSpecError> {
    parse_spec(spec, true).map(drop)
}

/// Disarm all faults and reset hit counters.
pub fn disarm_faults() {
    FAULTS_ARMED.store(false, Ordering::Relaxed);
    table().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Is any fault currently armed? One relaxed load — cheap enough to
/// consult on hot paths (the executor uses it to decide whether tasks
/// must be held recoverable).
#[inline]
pub fn faults_armed() -> bool {
    FAULTS_ARMED.load(Ordering::Relaxed)
}

/// The currently armed sites (for diagnostics).
pub fn armed_faults() -> Vec<String> {
    let mut v: Vec<String> = table()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .keys()
        .cloned()
        .collect();
    v.sort();
    v
}

/// A named fault-injection site. Returns `Err(Fault)` when an armed spec
/// says this hit should fail; otherwise `Ok(())`. Disarmed cost: one
/// relaxed atomic load.
#[inline]
pub fn faultpoint(site: &'static str) -> Result<(), Fault> {
    if !FAULTS_ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    faultpoint_slow(site)
}

#[cold]
fn faultpoint_slow(site: &'static str) -> Result<(), Fault> {
    let mut t = table().lock().unwrap_or_else(|e| e.into_inner());
    let Some(arm) = t.get_mut(site) else {
        return Ok(());
    };
    arm.hits += 1;
    let fire = match arm.nth {
        None => true,
        Some(n) => arm.hits == n,
    };
    if !fire {
        return Ok(());
    }
    let fault = Fault {
        site: site.to_string(),
        hit: arm.hits,
    };
    drop(t);
    genpar_obs::counter("guard.faults_injected", 1);
    genpar_obs::event(
        "guard.fault_injected",
        [
            ("site", genpar_obs::FieldValue::from(site)),
            ("hit", genpar_obs::FieldValue::U64(fault.hit)),
        ],
    );
    Err(fault)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    // The fault table is process-global; serialize tests touching it.
    static LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_faultpoints_are_ok() {
        let _g = serial();
        disarm_faults();
        assert!(faultpoint("nowhere").is_ok());
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let _g = serial();
        arm_faults("a.site:2").unwrap();
        assert!(faultpoint("a.site").is_ok());
        let f = faultpoint("a.site").unwrap_err();
        assert_eq!(f.site, "a.site");
        assert_eq!(f.hit, 2);
        assert!(faultpoint("a.site").is_ok()); // 3rd hit: silent again
        assert!(faultpoint("other.site").is_ok());
        disarm_faults();
    }

    #[test]
    fn star_trigger_fires_every_time() {
        let _g = serial();
        arm_faults("b.site:*").unwrap();
        assert!(faultpoint("b.site").is_err());
        assert!(faultpoint("b.site").is_err());
        disarm_faults();
        assert!(faultpoint("b.site").is_ok());
    }

    #[test]
    fn multi_arm_specs_parse() {
        let _g = serial();
        arm_faults("x.one:1, y.two:3 ,z-three:*").unwrap();
        let sites = armed_faults();
        assert_eq!(sites, vec!["x.one", "y.two", "z-three"]);
        disarm_faults();
    }

    #[test]
    fn bad_specs_are_rejected() {
        let _g = serial();
        assert!(arm_faults("no-colon").is_err());
        assert!(arm_faults("site:0").is_err());
        assert!(arm_faults("site:abc").is_err());
        assert!(arm_faults("bad site:1").is_err());
        assert!(arm_faults(":1").is_err());
        // a failed arm must not leave faults half-armed
        disarm_faults();
        assert!(faultpoint("site").is_ok());
    }

    #[test]
    fn strict_arming_rejects_unknown_sites_naming_them() {
        let _g = serial();
        disarm_faults();
        let e = arm_faults_strict("exec.morzel:1").unwrap_err();
        assert!(e.to_string().contains("exec.morzel"), "{e}");
        assert!(e.to_string().contains("unknown fault site"), "{e}");
        // a failed strict arm must not leave faults half-armed
        assert!(faultpoint("exec.morsel").is_ok());
        // every registered site passes strict arming
        for site in KNOWN_SITES {
            arm_faults_strict(&format!("{site}:1")).unwrap();
        }
        disarm_faults();
    }

    #[test]
    fn known_sites_are_sorted_and_unique() {
        let mut sorted = KNOWN_SITES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, KNOWN_SITES, "keep the registry sorted + unique");
    }

    #[test]
    fn fault_renders_site_and_hit() {
        let f = Fault {
            site: "exec.morsel".into(),
            hit: 4,
        };
        let s = f.to_string();
        assert!(s.contains("exec.morsel"), "{s}");
        assert!(s.contains("hit 4"), "{s}");
    }
}
