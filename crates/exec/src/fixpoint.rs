//! The per-round fixpoint route: `fix[X](init, step)` with a certified
//! body, run as semi-naive rounds on the executor.
//!
//! The body is lowered once, before round 1. Its loop variable lowers to
//! `Scan(X)`, and each round binds that scan to its input (the previous
//! round's delta, or the whole accumulator for a body that is not
//! delta-linear), borrowed, instead of rewriting the query. The
//! accumulator is a canonical run: each round's new delta is the rows it
//! produced minus the accumulator, and is folded in by ∪, both one
//! linear merge ([`merge_runs`]). A subtree that does not
//! mention `X` has the same value in every round (the body is generic,
//! and only `X` changes), so it is evaluated once; a join with such a
//! side keeps it as a [`JoinIndex`] built once, and each round only
//! probes it.

use crate::kernels::{self, merge_runs, Ctx, JoinIndex, Row, Rows, SetOp};
use crate::{
    apply_op, breach_to_exec, charge_source, children, on_executor, retry_gate, run_plan, traced,
    ExecConfig,
};
use genpar_core::SafetyCert;
use genpar_engine::plan::{ExecError, ExecStats, PhysicalPlan};
use genpar_engine::schema::Catalog;
use genpar_value::Value;
use std::borrow::Cow;

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
/// loop-invariant input already evaluated (a scan still borrowed from
/// the catalog).
enum Round<'p> {
    /// `Scan(X)`: bound to the round's input.
    Var,
    /// A maximal subtree that does not mention `X`, evaluated once.
    Fixed(Cow<'p, [Row]>),
    /// A keyed join with one loop-invariant side, indexed once.
    Probe {
        node: &'p PhysicalPlan,
        on: &'p [(usize, usize)],
        index: JoinIndex<'p>,
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
    catalog: &'p Catalog,
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
    input: &'a [Row],
    ctx: &Ctx,
    stats: &mut ExecStats,
) -> Result<Cow<'a, [Row]>, ExecError> {
    match round {
        Round::Var => {
            stats.rows_scanned += input.len() as u64;
            charge_source(ctx, input.len() as u64, "plan.Scan")?;
            Ok(Cow::Borrowed(input))
        }
        Round::Fixed(rows) => Ok(Cow::Borrowed(rows.as_ref())),
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
            Ok((probe.len() as u64, Cow::Owned(rows)))
        }),
        Round::Op(node, inputs) => traced(node, || {
            let inputs = inputs
                .iter()
                .map(|r| run_round(r, input, ctx, stats))
                .collect::<Result<Vec<_>, ExecError>>()?;
            let (rows_in, rows) = apply_op(node, inputs, ctx, stats)?;
            Ok((rows_in, Cow::Owned(rows)))
        }),
    }
}

/// The per-round fixpoint route: semi-naive delta iteration with each
/// round's body on the executor (inline at one worker). `init` and
/// `body` are the lowered seed and step of `fix[var](init, body)`.
///
/// The loop as a whole does not distribute over partitioning, but the
/// gate certified its body does — so the body is lowered and its
/// loop-invariant inputs evaluated once, and each round runs it over
/// the current delta (or the full accumulator when the body is
/// non-linear in the loop variable), merging the new rows into the
/// accumulator. Round count, depth-budget charges and the final
/// `Value` are identical to the serial inflationary loop by
/// construction. Returns the answer, the work and the certificate.
///
/// A faulted round is re-run whole; a fault the round retry cannot ride
/// out is returned, and the route's caller degrades the query to the
/// walker.
pub(crate) fn run_fixpoint_route(
    var: &str,
    init: &PhysicalPlan,
    body: &PhysicalPlan,
    catalog: &Catalog,
    cfg: &ExecConfig,
    body_cert: &SafetyCert,
) -> Result<(Value, ExecStats, String), ExecError> {
    let semi_naive = delta_linear(body, var);
    let mut sp = genpar_obs::span("exec.fixpoint");
    sp.field("workers", cfg.workers as u64);
    sp.field("semi_naive", u64::from(semi_naive));
    let mut invariant_rows = 0u64;
    let ran = on_executor(cfg, Some(&body_cert.to_string()), |ctx, stats| {
        let seed = run_plan(init, catalog, ctx, stats)?;
        let round = prepare(body, var, catalog, ctx, stats, &mut invariant_rows)?;
        let (acc, rounds) = drive_fixpoint(seed.into_owned(), &round, semi_naive, ctx, stats)?;
        stats.rows_out = acc.len() as u64;
        Ok((acc, rounds))
    });
    sp.field("invariant_rows", invariant_rows);
    let ((acc, rounds), stats) = ran?;
    sp.field("rounds", rounds);
    let certificate = format!(
        "per-round body certified: {body_cert}; semi-naive deltas: {}; rounds: {rounds}",
        if semi_naive {
            "yes"
        } else {
            "no (full accumulator per round)"
        },
    );
    Ok((genpar_value::rows_to_value(acc), stats, certificate))
}

/// The round loop proper: mirrors [`genpar_algebra::fixpoint::inflationary_fixpoint`]
/// (same bound, same `charge_depth` schedule, same stop condition) with
/// the prepared body evaluated on the executor each round. `seed` is a
/// canonical run, and so is the accumulator it starts.
fn drive_fixpoint(
    seed: Rows,
    body: &Round,
    semi_naive: bool,
    ctx: &Ctx,
    stats: &mut ExecStats,
) -> Result<(Rows, u64), ExecError> {
    let mut acc: Rows = seed;
    // the rows new since the previous round; before round 1, the seed,
    // which is the accumulator itself
    let mut delta: Option<Rows> = None;
    let bound =
        (genpar_algebra::fixpoint::DEFAULT_FIXPOINT_ITERS as u64).min(genpar_guard::depth_limit());
    let hist = genpar_obs::histogram("exec.fixpoint_round_us");
    let round_watchdog_us = kernels::watchdog_deadline_us(hist.snapshot().p95);
    for iter in 0..bound {
        genpar_guard::charge_depth(iter + 1, "fixpoint").map_err(breach_to_exec)?;
        let start = std::time::Instant::now();
        let mut rsp = genpar_obs::span("exec.fixpoint_round");
        rsp.field("round", iter + 1);
        genpar_obs::counter("exec.fixpoint_rounds", 1);
        // non-linear bodies see the whole accumulator; linear ones only
        // the rows that are new since the previous round
        let input: &[Row] = match (&delta, semi_naive) {
            (Some(delta), true) => delta,
            _ => &acc,
        };
        rsp.field("input_rows", input.len() as u64);
        // a round is pure against the accumulator (acc only changes
        // after success), so a faulted round can be re-run whole — the
        // round-granular rung of the recovery ladder
        let mut attempt: u32 = 0;
        let produced = loop {
            let round = genpar_guard::faultpoint("exec.fixpoint_round")
                .map_err(|f| ExecError::Fault(f.to_string()))
                .and_then(|()| match ctx.meter {
                    Some(m) => m
                        .charge_steps(1, "exec.fixpoint_round")
                        .map_err(breach_to_exec),
                    None => Ok(()),
                })
                .and_then(|()| run_round(body, input, ctx, stats));
            match round {
                Ok(rows) => break rows,
                Err(e) if e.is_transient() && attempt < ctx.cfg.retry.max_retries => {
                    attempt += 1;
                    retry_gate(iter as usize, attempt)?;
                }
                Err(e) => return Err(e),
            }
        };
        // a body that is only `X`, or does not mention it, borrows; its
        // rows are copied here, once
        let produced = produced.into_owned().into_iter().map(Cow::Owned);
        let fresh = merge_runs(produced, acc.iter().map(Cow::Borrowed), SetOp::Difference);
        rsp.field("delta_rows", fresh.len() as u64);
        rsp.field("acc_rows", (acc.len() + fresh.len()) as u64);
        let round_us = start.elapsed().as_micros() as u64;
        hist.record(round_us);
        if round_us > round_watchdog_us {
            kernels::note_watchdog("exec.fixpoint_round", round_us, round_watchdog_us);
        }
        if fresh.is_empty() {
            return Ok((acc, iter + 1));
        }
        let old = std::mem::take(&mut acc);
        acc = merge_runs(
            old.into_iter().map(Cow::Owned),
            fresh.iter().map(Cow::Borrowed),
            SetOp::Union,
        );
        delta = Some(fresh);
    }
    Err(ExecError::Budget {
        resource: genpar_guard::Resource::Depth,
        limit: bound,
        used: bound,
        op: "fixpoint",
        partial: ExecStats::default(),
    })
}
