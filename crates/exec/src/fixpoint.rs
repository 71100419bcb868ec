//! The per-round fixpoint route: `fix[X](init, step)` with a certified
//! body, run as semi-naive rounds on the executor.
//!
//! The body is lowered once, before round 1. Its loop variable lowers to
//! `Scan(X)`, and each round binds that scan to its input (the previous
//! round's delta, or the whole accumulator for a body that is not
//! delta-linear) instead of rewriting the query. A subtree that does not
//! mention `X` has the same value in every round (the body is generic,
//! and only `X` changes), so it is evaluated once; a join with such a
//! side keeps it as a [`JoinIndex`] built once, and each round only
//! probes it.

use crate::kernels::{self, Ctx, JoinIndex, Rows};
use crate::{
    apply_op, breach_to_exec, charge_source, children, fallback, note_degrade, record_run,
    recovery_retries, retry_gate, run_plan, traced, with_partial, ExecConfig, ExecRoute,
};
use genpar_algebra::Query;
use genpar_core::SafetyCert;
use genpar_engine::plan::{lower, ExecError, ExecStats, PhysicalPlan};
use genpar_engine::schema::Catalog;
use genpar_guard::SharedMeter;
use genpar_value::Value;
use std::borrow::Cow;
use std::collections::BTreeSet;

/// Does the lowered subtree read the loop variable?
fn reads(plan: &PhysicalPlan, var: &str) -> bool {
    match plan {
        PhysicalPlan::Scan(name) => name == var,
        _ => children(plan).into_iter().any(|c| reads(c, var)),
    }
}

/// Is the body *linear* in the loop variable — semi-naive safe? True
/// when every operator on the path to the (at most one) input reading
/// `var` distributes over union in that input, so
/// `step(X ∪ Δ) = step(X) ∪ step(Δ)` and each round may evaluate the
/// body on the previous round's delta alone. Joins/products with the
/// variable on both sides need cross terms (`Δ⋈X`, `X⋈Δ`) and are
/// conservatively refused, as is the right side of a difference
/// (anti-monotone).
fn delta_linear(plan: &PhysicalPlan, var: &str) -> bool {
    if let PhysicalPlan::Difference(a, b) = plan {
        return !reads(b, var) && delta_linear(a, var);
    }
    let reading: Vec<&PhysicalPlan> = children(plan)
        .into_iter()
        .filter(|c| reads(c, var))
        .collect();
    match reading[..] {
        [] => true,
        [input] => delta_linear(input, var),
        _ => false,
    }
}

/// A fixpoint body prepared for its rounds: the lowered plan, with every
/// loop-invariant input already evaluated.
enum Round<'p> {
    /// `Scan(X)`: bound to the round's input.
    Var,
    /// A maximal subtree that does not mention `X`, evaluated once.
    Fixed(Rows),
    /// A keyed join with one loop-invariant side, indexed once.
    Probe {
        node: &'p PhysicalPlan,
        on: &'p [(usize, usize)],
        index: JoinIndex,
        build_left: bool,
        probe: Box<Round<'p>>,
    },
    /// Any other operator over round-dependent inputs.
    Op(&'p PhysicalPlan, Vec<Round<'p>>),
}

/// Prepare the lowered body for its rounds: run every maximal subtree
/// that does not read `var` once through [`run_plan`] (so its scans,
/// budget charges and stats count once), and index the invariant side of
/// each keyed join. `invariant_rows` counts the rows evaluated outside
/// the loop.
fn prepare<'p>(
    plan: &'p PhysicalPlan,
    var: &str,
    catalog: &Catalog,
    ctx: &Ctx,
    stats: &mut ExecStats,
    invariant_rows: &mut u64,
) -> Result<Round<'p>, ExecError> {
    if !reads(plan, var) {
        let rows = run_plan(plan, catalog, ctx, stats)?;
        *invariant_rows += rows.len() as u64;
        return Ok(Round::Fixed(rows));
    }
    Ok(match plan {
        PhysicalPlan::Scan(_) => Round::Var,
        PhysicalPlan::HashJoin(on, a, b)
            if !on.is_empty() && (!reads(a, var) || !reads(b, var)) =>
        {
            let build_left = !reads(a, var);
            let (build, probe, key) = if build_left {
                (a, b, on[0].0)
            } else {
                (b, a, on[0].1)
            };
            let rows = run_plan(build, catalog, ctx, stats)?;
            *invariant_rows += rows.len() as u64;
            let (index, s) = JoinIndex::build(rows, key)?;
            kernels::add_stats(stats, &s);
            Round::Probe {
                node: plan,
                on,
                index,
                build_left,
                probe: Box::new(prepare(probe, var, catalog, ctx, stats, invariant_rows)?),
            }
        }
        _ => Round::Op(
            plan,
            children(plan)
                .into_iter()
                .map(|c| prepare(c, var, catalog, ctx, stats, invariant_rows))
                .collect::<Result<_, _>>()?,
        ),
    })
}

/// One round of the prepared body over `input`. Only the nodes that
/// depend on the loop variable run, each with its span and
/// `plan.node_stats` event; the loop variable is charged as the scan it
/// lowered to.
fn run_round<'a>(
    round: &'a Round,
    input: &'a Rows,
    ctx: &Ctx,
    stats: &mut ExecStats,
) -> Result<Cow<'a, Rows>, ExecError> {
    match round {
        Round::Var => {
            stats.rows_scanned += input.len() as u64;
            charge_source(ctx, input.len() as u64, "plan.Scan")?;
            Ok(Cow::Borrowed(input))
        }
        Round::Fixed(rows) => Ok(Cow::Borrowed(rows)),
        Round::Probe {
            node,
            on,
            index,
            build_left,
            probe,
        } => traced(node, || {
            let probe = run_round(probe, input, ctx, stats)?;
            let (rows, s) = kernels::probe_join(&probe, index, on, *build_left, ctx)?;
            kernels::add_stats(stats, &s);
            Ok((probe.len() as u64, rows))
        })
        .map(Cow::Owned),
        Round::Op(node, inputs) => traced(node, || {
            let inputs = inputs
                .iter()
                .map(|r| run_round(r, input, ctx, stats).map(Cow::into_owned))
                .collect::<Result<Vec<Rows>, ExecError>>()?;
            apply_op(node, inputs, ctx, stats)
        })
        .map(Cow::Owned),
    }
}

/// The per-round fixpoint route: semi-naive delta iteration with each
/// round's body on the executor (inline at one worker).
///
/// The loop as a whole does not distribute over partitioning, but the
/// gate certified its body does — so the body is lowered and its
/// loop-invariant inputs evaluated once, and each round runs it over
/// the current delta (or the full accumulator when the body is
/// non-linear in the loop variable), canonically merging the new rows
/// into the accumulator. Round count, depth-budget charges and the final
/// `Value` are identical to the serial inflationary loop by
/// construction.
///
/// Any injected fault (`exec.fixpoint_round`, or a morsel/merge site
/// inside a round) that round-granular retry cannot ride out degrades
/// the whole query to the serial interpreter — a correct answer, never
/// a wrong one.
pub(crate) fn run_fixpoint_route(
    q: &Query,
    catalog: &Catalog,
    cfg: &ExecConfig,
    body_cert: &SafetyCert,
) -> Result<(Value, ExecStats, ExecRoute), ExecError> {
    let Query::Fixpoint { var, init, step } = q else {
        return Err(ExecError::Internal(
            "fixpoint route on a non-fixpoint query".to_string(),
        ));
    };
    let Some(init_plan) = lower(init) else {
        return fallback(
            q,
            catalog,
            "fix",
            "fixpoint seed does not lower to the row engine",
        );
    };
    let Some(body) = lower(step) else {
        return fallback(
            q,
            catalog,
            "fix",
            "fixpoint body does not lower to the row engine",
        );
    };
    let semi_naive = delta_linear(&body, var);
    let mut sp = genpar_obs::span("exec.fixpoint");
    sp.field("workers", cfg.workers as u64);
    sp.field("semi_naive", u64::from(semi_naive));
    let meter = SharedMeter::from_armed();
    let body_cert_s = body_cert.to_string();
    let ctx = Ctx {
        cfg,
        meter: meter.as_deref(),
        cert: Some(&body_cert_s),
    };
    let mut stats = ExecStats::default();
    let mut invariant_rows = 0u64;
    let result = genpar_guard::catch_panics(|| {
        let seed = run_plan(&init_plan, catalog, &ctx, &mut stats)?;
        let round = prepare(&body, var, catalog, &ctx, &mut stats, &mut invariant_rows)?;
        drive_fixpoint(seed, &round, semi_naive, &ctx, &mut stats)
    })
    .map_err(ExecError::Internal)?;
    sp.field("invariant_rows", invariant_rows);
    match result {
        Ok((acc, rounds)) => {
            sp.field("rounds", rounds);
            stats.rows_out = acc.len() as u64;
            record_run(&stats);
            let value = genpar_value::rows_to_value(acc);
            let certificate =
                format!(
                "per-round body certified: {body_cert}; semi-naive deltas: {}; rounds: {rounds}",
                if semi_naive { "yes" } else { "no (full accumulator per round)" },
            );
            Ok((
                value,
                stats,
                ExecRoute::Parallel {
                    workers: cfg.workers,
                    certificate,
                },
            ))
        }
        Err(ExecError::Fault(_)) => {
            note_degrade("serial");
            fallback(
                q,
                catalog,
                "fix",
                "injected fault in a fixpoint round: degraded to the serial interpreter",
            )
        }
        Err(e) => Err(with_partial(e, &stats)),
    }
}

/// The round loop proper: mirrors [`genpar_algebra::fixpoint::inflationary_fixpoint`]
/// (same bound, same `charge_depth` schedule, same stop condition) with
/// the prepared body evaluated on the executor each round.
fn drive_fixpoint(
    seed: Rows,
    body: &Round,
    semi_naive: bool,
    ctx: &Ctx,
    stats: &mut ExecStats,
) -> Result<(Vec<Vec<Value>>, u64), ExecError> {
    let mut acc: BTreeSet<Vec<Value>> = seed.iter().cloned().collect();
    let mut delta: Rows = seed;
    let bound =
        (genpar_algebra::fixpoint::DEFAULT_FIXPOINT_ITERS as u64).min(genpar_guard::depth_limit());
    let hist = genpar_obs::histogram("exec.fixpoint_round_us");
    let round_watchdog_us = kernels::watchdog_deadline_us(hist.snapshot().p95);
    let round_retries = recovery_retries().unwrap_or(0);
    for iter in 0..bound {
        genpar_guard::charge_depth(iter + 1, "fixpoint").map_err(breach_to_exec)?;
        let start = std::time::Instant::now();
        let mut rsp = genpar_obs::span("exec.fixpoint_round");
        rsp.field("round", iter + 1);
        genpar_obs::counter("exec.fixpoint_rounds", 1);
        // non-linear bodies see the whole accumulator; linear ones only
        // the rows that are new since the previous round
        let input: Rows = if semi_naive {
            std::mem::take(&mut delta)
        } else {
            acc.iter().cloned().collect()
        };
        rsp.field("input_rows", input.len() as u64);
        // a round is pure against the accumulator (acc only changes
        // after success), so a faulted round can be re-run whole — the
        // round-granular rung of the recovery ladder
        let produced = {
            let mut attempt: u32 = 0;
            loop {
                let round = (|| -> Result<Rows, ExecError> {
                    genpar_guard::faultpoint("exec.fixpoint_round")
                        .map_err(|f| ExecError::Fault(f.to_string()))?;
                    if let Some(m) = ctx.meter {
                        m.charge_steps(1, "exec.fixpoint_round")
                            .map_err(breach_to_exec)?;
                    }
                    Ok(run_round(body, &input, ctx, stats)?.into_owned())
                })();
                match round {
                    Ok(rows) => break rows,
                    Err(ExecError::Fault(_)) if attempt < round_retries => {
                        attempt += 1;
                        retry_gate(iter as usize, attempt)?;
                    }
                    Err(e) => return Err(e),
                }
            }
        };
        let mut fresh: Rows = Vec::new();
        for row in produced {
            if acc.insert(row.clone()) {
                fresh.push(row);
            }
        }
        rsp.field("delta_rows", fresh.len() as u64);
        rsp.field("acc_rows", acc.len() as u64);
        let round_us = start.elapsed().as_micros() as u64;
        hist.record(round_us);
        if round_us > round_watchdog_us {
            kernels::note_watchdog("exec.fixpoint_round", round_us, round_watchdog_us);
        }
        if fresh.is_empty() {
            return Ok((acc.into_iter().collect(), iter + 1));
        }
        delta = fresh;
    }
    Err(ExecError::Budget {
        resource: genpar_guard::Resource::Depth,
        limit: bound,
        used: bound,
        op: "fixpoint",
        partial: ExecStats::default(),
    })
}
