//! Parallel operator kernels.
//!
//! Every kernel has the same shape: cut (or hash-partition) the input,
//! run per-chunk tasks on the pool, then **canonically merge** — sort +
//! dedup under the derived total order on `Value` — so the result is
//! independent of worker count, morsel size and scheduling. Each task
//! passes the `exec.morsel` fault site and charges the shared budget
//! meter; the merge passes `exec.merge` and charges the output-side rows
//! and cells of each plan node.
//!
//! Every task is wall-clock timed into the `exec.morsel_us` histogram,
//! and chunk-based kernels feed each batch's p95 latency back to the
//! global [`crate::tune::MorselTuner`] so the morsel size converges on
//! the ~100µs/task sweet spot.

use crate::morsel::{chunk_rows, key_partition, partition_rows, row_partition};
use crate::{pool, tune, ExecConfig};
use genpar_algebra::{eval::apply_fn, eval::eval_pred, vm, Db, Pred, ValueFn};
use genpar_engine::plan::{ExecError, ExecStats};
use genpar_guard::SharedMeter;
use genpar_value::{canonical_rows, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// Rows in flight between operators (canonical: sorted, deduplicated).
pub(crate) type Rows = Vec<Vec<Value>>;

/// Shared per-run context handed to every task.
#[derive(Clone, Copy)]
pub(crate) struct Ctx<'a> {
    pub cfg: &'a ExecConfig,
    pub meter: Option<&'a SharedMeter>,
    /// The partition gate's certificate rendering for this route, when
    /// the gate ran — attached to every program the kernels compile, so
    /// certification happens once at compile time, not per morsel.
    pub cert: Option<&'a str>,
}

impl Ctx<'_> {
    /// The morsel size to chunk with (tuner-driven unless pinned).
    fn morsel_rows(&self) -> usize {
        self.cfg.effective_morsel_rows()
    }
}

/// Whether a kernel's tasks are morsel-sized (so their latency should
/// steer the tuner) or partition-sized (timed, but not fed back —
/// partition count tracks the worker count, not `morsel_rows`).
#[derive(Clone, Copy)]
enum TaskKind {
    Morsel,
    Partition,
}

/// The watchdog deadline for one task, derived from the observed latency
/// distribution: generous (8 × the running p95, floored at 10ms) so a
/// loaded machine does not trip it, but tight enough that a genuinely
/// stuck task is flagged. No history yet means no deadline.
pub(crate) fn watchdog_deadline_us(p95: u64) -> u64 {
    if p95 == 0 {
        u64::MAX
    } else {
        p95.saturating_mul(8).max(10_000)
    }
}

/// Record a task (or round) that overran its watchdog deadline. The
/// result is kept — it is correct, and discarding completed work would
/// be a worse degradation than the slowness itself — but the overrun is
/// reported loudly so an operator sees stuck-task pressure building
/// before the wall-clock rung (`--timeout`) starts cancelling queries.
pub(crate) fn note_watchdog(site: &'static str, us: u64, deadline_us: u64) {
    genpar_obs::counter("exec.watchdog", 1);
    genpar_obs::event(
        "exec.watchdog",
        [
            ("site", genpar_obs::FieldValue::from(site)),
            ("us", genpar_obs::FieldValue::U64(us)),
            ("deadline_us", genpar_obs::FieldValue::U64(deadline_us)),
        ],
    );
    genpar_obs::timeline::record_instant("exec.watchdog", std::time::Instant::now());
}

/// Run a kernel's tasks on the pool with each task wall-clock timed into
/// the `exec.morsel_us` histogram (and, when the timeline recorder is
/// on, a real begin/end record per task on its worker's lane).
/// Morsel-kind batches additionally report their batch **p95** latency
/// to the global tuner, which may resize `morsel_rows` for the *next*
/// batch (and emits `exec.retune`). p95 rather than the mean: a few
/// slow outlier morsels (a skewed partition, a cold cache) should grow
/// the batch verdict, not be averaged away by many fast ones.
///
/// This is also where the recovery ladder arms. Each task runs behind a
/// panic boundary (a panicking morsel becomes a structured internal
/// error, eligible for recovery like any fault), and when recovery is on
/// — fault injection armed, or `GENPAR_RETRY` set explicitly — the pool
/// keeps every morsel recoverable: in-place retries through
/// [`crate::retry_gate`], then worker quarantine, before the error
/// escapes to the route layer's whole-serial rung. Tasks overrunning the
/// p95-derived watchdog deadline are flagged via [`note_watchdog`].
fn run_timed<T, F>(
    ctx: &Ctx,
    kind: TaskKind,
    tasks: Vec<T>,
    f: F,
) -> Result<Vec<(Rows, ExecStats)>, ExecError>
where
    T: Clone + Send,
    F: Fn(usize, T) -> Result<(Rows, ExecStats), ExecError> + Sync,
{
    let hist = genpar_obs::histogram("exec.morsel_us");
    let watchdog_us = watchdog_deadline_us(hist.snapshot().p95);
    let tune_batch = matches!(kind, TaskKind::Morsel) && ctx.cfg.auto_tune;
    let samples: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let run = |i, t| {
        let start = std::time::Instant::now();
        let out = match genpar_guard::catch_panics(|| f(i, t)) {
            Ok(r) => r,
            Err(msg) => Err(ExecError::Internal(format!("task panicked: {msg}"))),
        };
        let end = std::time::Instant::now();
        genpar_obs::timeline::record_span("exec.morsel", start, end);
        let us = end.duration_since(start).as_micros() as u64;
        hist.record(us);
        if us > watchdog_us {
            note_watchdog("exec.morsel", us, watchdog_us);
        }
        if tune_batch {
            match samples.lock() {
                Ok(mut s) => s.push(us),
                Err(p) => p.into_inner().push(us),
            }
        }
        out
    };
    let parts = match crate::recovery_retries() {
        Some(retries) => pool::run_tasks_recovering(
            ctx.cfg.workers,
            tasks,
            Some(pool::Recovery {
                retries,
                gate: &crate::retry_gate,
            }),
            run,
        )?,
        None => pool::run_tasks(ctx.cfg.workers, tasks, run)?,
    };
    if tune_batch {
        let s = match samples.into_inner() {
            Ok(s) => s,
            Err(p) => p.into_inner(),
        };
        tune::tuner().observe_batch(&s);
    }
    Ok(parts)
}

fn fault_err(f: genpar_guard::Fault) -> ExecError {
    ExecError::Fault(f.to_string())
}

fn eval_err(e: genpar_algebra::EvalError) -> ExecError {
    ExecError::Eval(e.to_string())
}

fn budget_err(b: genpar_guard::BudgetBreach, partial: &ExecStats) -> ExecError {
    ExecError::Budget {
        resource: b.resource,
        limit: b.limit,
        used: b.used,
        op: b.op,
        partial: *partial,
    }
}

pub(crate) fn add_stats(into: &mut ExecStats, s: &ExecStats) {
    into.rows_scanned += s.rows_scanned;
    into.rows_processed += s.rows_processed;
    into.cells_processed += s.cells_processed;
    into.probes += s.probes;
}

fn row_cells(rows: &[Vec<Value>]) -> u64 {
    rows.iter().map(|r| r.len() as u64).sum()
}

/// Per-task entry: the `exec.morsel` fault site plus the input-side
/// budget charges (steps = one quantum per morsel, cells = morsel cells).
fn enter_morsel(ctx: &Ctx, morsel: &[Vec<Value>], op: &'static str) -> Result<(), ExecError> {
    genpar_guard::faultpoint("exec.morsel").map_err(fault_err)?;
    if let Some(m) = ctx.meter {
        let zero = ExecStats::default();
        m.charge_steps(1, op).map_err(|b| budget_err(b, &zero))?;
        m.charge_cells(row_cells(morsel), op)
            .map_err(|b| budget_err(b, &zero))?;
    }
    Ok(())
}

/// Canonical merge: the `exec.merge` fault site, per-task stats summed in
/// task order, rows sorted + deduplicated, output-side budget charges.
fn merge(
    parts: Vec<(Rows, ExecStats)>,
    ctx: &Ctx,
    op: &'static str,
) -> Result<(Rows, ExecStats), ExecError> {
    genpar_guard::faultpoint("exec.merge").map_err(fault_err)?;
    let mut stats = ExecStats::default();
    let mut all: Rows = Vec::new();
    for (rows, s) in parts {
        add_stats(&mut stats, &s);
        all.extend(rows);
    }
    let rows = canonical_rows(all);
    if let Some(m) = ctx.meter {
        m.charge_rows(rows.len() as u64, op)
            .map_err(|b| budget_err(b, &stats))?;
        m.charge_cells(row_cells(&rows), op)
            .map_err(|b| budget_err(b, &stats))?;
    }
    Ok((rows, stats))
}

/// Compile one operator's expression program — **once**, before the
/// tasks fan out; every worker then shares the immutable program and
/// holds its own reusable [`vm::Vm`]. The route certificate (when the
/// gate ran) is attached to the program here, and the compilation is
/// left on the obs trail: a `vm.programs` counter and `vm.program`
/// event on success, `vm.ineligible` (with the paper-citing reason) on
/// refusal.
fn prepare_program(
    compiled: Result<vm::Program, vm::Ineligible>,
    cert: Option<&str>,
    op: &'static str,
) -> Option<vm::Program> {
    if !vm::enabled() {
        return None;
    }
    match compiled {
        Ok(prog) => {
            let prog = match cert {
                Some(c) => prog.with_cert(c),
                None => prog,
            };
            genpar_obs::counter("vm.programs", 1);
            genpar_obs::event(
                "vm.program",
                [
                    ("op", genpar_obs::FieldValue::from(op)),
                    ("ops", genpar_obs::FieldValue::U64(prog.len() as u64)),
                    (
                        "certified",
                        genpar_obs::FieldValue::U64(u64::from(prog.cert().is_some())),
                    ),
                ],
            );
            Some(prog)
        }
        Err(inel) => {
            genpar_obs::counter("vm.ineligible", 1);
            genpar_obs::event(
                "vm.ineligible",
                [
                    ("op", genpar_obs::FieldValue::from(op)),
                    ("reason", genpar_obs::FieldValue::from(inel.reason)),
                ],
            );
            None
        }
    }
}

/// Parallel σ: embarrassingly parallel over morsels. The predicate is
/// compiled once; each morsel re-checks [`vm::engage`] so an armed
/// `vm.exec` fault degrades that one morsel to the AST walker.
pub(crate) fn par_filter(input: Rows, p: &Pred, ctx: &Ctx) -> Result<(Rows, ExecStats), ExecError> {
    let prog = prepare_program(vm::compile_pred(p), ctx.cert, "plan.Filter");
    let parts = run_timed(
        ctx,
        TaskKind::Morsel,
        chunk_rows(input, ctx.morsel_rows()),
        |_, morsel| {
            enter_morsel(ctx, &morsel, "plan.Filter")?;
            let db = Db::with_standard_int();
            let mut stats = ExecStats::default();
            let mut out = Vec::new();
            match prog.as_ref().filter(|_| vm::engage()) {
                Some(prog) => {
                    let mut m = vm::Vm::new();
                    for row in morsel {
                        stats.rows_processed += 1;
                        stats.cells_processed += row.len() as u64;
                        let tv = Value::Tuple(row.clone());
                        if m.run_pred(prog, &tv, &db).map_err(eval_err)? {
                            out.push(row);
                        }
                    }
                }
                None => {
                    for row in morsel {
                        stats.rows_processed += 1;
                        stats.cells_processed += row.len() as u64;
                        let tv = Value::Tuple(row.clone());
                        if eval_pred(p, &tv, &db).map_err(eval_err)? {
                            out.push(row);
                        }
                    }
                }
            }
            Ok((out, stats))
        },
    )?;
    merge(parts, ctx, "plan.Filter")
}

/// Parallel π: embarrassingly parallel over morsels (dedup at merge).
pub(crate) fn par_project(
    input: Rows,
    cols: &[usize],
    ctx: &Ctx,
) -> Result<(Rows, ExecStats), ExecError> {
    let parts = run_timed(
        ctx,
        TaskKind::Morsel,
        chunk_rows(input, ctx.morsel_rows()),
        |_, morsel| {
            enter_morsel(ctx, &morsel, "plan.Project")?;
            let mut stats = ExecStats::default();
            let mut out = Vec::new();
            for row in morsel {
                stats.rows_processed += 1;
                stats.cells_processed += row.len() as u64;
                let mut projected = Vec::with_capacity(cols.len());
                for &c in cols {
                    projected.push(
                        row.get(c)
                            .cloned()
                            .ok_or_else(|| ExecError::Eval(format!("column {c} missing")))?,
                    );
                }
                out.push(projected);
            }
            Ok((out, stats))
        },
    )?;
    merge(parts, ctx, "plan.Project")
}

/// Parallel map: embarrassingly parallel over morsels. Same
/// compile-once / per-morsel-engage scheme as [`par_filter`];
/// ineligible functions (opaque closures) keep the walker.
pub(crate) fn par_map(input: Rows, f: &ValueFn, ctx: &Ctx) -> Result<(Rows, ExecStats), ExecError> {
    let prog = prepare_program(vm::compile_fn(f), ctx.cert, "plan.MapRows");
    let parts = run_timed(
        ctx,
        TaskKind::Morsel,
        chunk_rows(input, ctx.morsel_rows()),
        |_, morsel| {
            enter_morsel(ctx, &morsel, "plan.MapRows")?;
            let db = Db::with_standard_int();
            let mut stats = ExecStats::default();
            let mut out = Vec::new();
            match prog.as_ref().filter(|_| vm::engage()) {
                Some(prog) => {
                    let mut m = vm::Vm::new();
                    for row in morsel {
                        stats.rows_processed += 1;
                        stats.cells_processed += row.len() as u64;
                        let tv = Value::Tuple(row);
                        out.push(into_row(m.run_fn(prog, &tv, &db).map_err(eval_err)?)?);
                    }
                }
                None => {
                    for row in morsel {
                        stats.rows_processed += 1;
                        stats.cells_processed += row.len() as u64;
                        let tv = Value::Tuple(row);
                        out.push(into_row(apply_fn(f, &tv, &db).map_err(eval_err)?)?);
                    }
                }
            }
            Ok((out, stats))
        },
    )?;
    merge(parts, ctx, "plan.MapRows")
}

/// A mapped value as a row. [`genpar_engine::lower`] admits only
/// row-shaped functions, so a bare value here is a broken invariant, not
/// a value to wrap: wrapping it would make the executor answer `{(v)}`
/// where the walker answers `{v}`.
fn into_row(v: Value) -> Result<Vec<Value>, ExecError> {
    match v {
        Value::Tuple(cols) => Ok(cols),
        other => Err(ExecError::Internal(format!(
            "map emitted the bare value {other}: only row-shaped maps lower"
        ))),
    }
}

/// Partitioned hash join: both sides are routed by a deterministic hash
/// of the first key column, so matching keys meet in the same partition;
/// each partition builds and probes independently. A keyless join
/// degenerates to the product kernel.
pub(crate) fn par_join(
    l: Rows,
    r: Rows,
    on: &[(usize, usize)],
    ctx: &Ctx,
) -> Result<(Rows, ExecStats), ExecError> {
    let Some(&(i0, j0)) = on.first() else {
        return par_product(l, r, ctx, "plan.HashJoin");
    };
    let nparts = ctx.cfg.workers.max(1) * 2;
    let lparts = partition_rows(l, nparts, |row| key_partition(row, i0, nparts));
    let rparts = partition_rows(r, nparts, |row| key_partition(row, j0, nparts));
    let tasks: Vec<(Rows, Rows)> = lparts.into_iter().zip(rparts).collect();
    let parts = run_timed(ctx, TaskKind::Partition, tasks, |_, (lp, rp)| {
        enter_morsel(ctx, &lp, "plan.HashJoin")?;
        let mut stats = ExecStats::default();
        let mut out = Vec::new();
        let mut index: BTreeMap<&Value, Vec<&Vec<Value>>> = BTreeMap::new();
        for row in &rp {
            stats.rows_processed += 1;
            stats.cells_processed += row.len() as u64;
            match row.get(j0) {
                Some(k) => index.entry(k).or_default().push(row),
                None => return Err(ExecError::Eval(format!("join column {j0} missing"))),
            }
        }
        for lrow in &lp {
            stats.rows_processed += 1;
            stats.cells_processed += lrow.len() as u64;
            stats.probes += 1;
            let Some(k) = lrow.get(i0) else {
                return Err(ExecError::Eval(format!("join column {i0} missing")));
            };
            if let Some(matches) = index.get(k) {
                'next: for rrow in matches {
                    for &(i, j) in &on[1..] {
                        if lrow.get(i) != rrow.get(j) {
                            continue 'next;
                        }
                    }
                    let mut joined = lrow.clone();
                    joined.extend(rrow.iter().cloned());
                    out.push(joined);
                }
            }
        }
        Ok((out, stats))
    })?;
    merge(parts, ctx, "plan.HashJoin")
}

/// A join side that does not change between fixpoint rounds, indexed
/// once on its key column so each round only probes it: the rows sorted
/// by key (already so when the key is the first column, as rows arrive
/// canonical), probed by binary search.
pub(crate) struct JoinIndex {
    key: usize,
    rows: Rows,
}

impl JoinIndex {
    /// Index `rows` on column `key`. The stats count the build rows once,
    /// as [`par_join`] counts them on every run.
    pub(crate) fn build(mut rows: Rows, key: usize) -> Result<(JoinIndex, ExecStats), ExecError> {
        if rows.iter().any(|r| r.len() <= key) {
            return Err(ExecError::Eval(format!("join column {key} missing")));
        }
        rows.sort_by(|a, b| a[key].cmp(&b[key]));
        let stats = ExecStats {
            rows_processed: rows.len() as u64,
            cells_processed: row_cells(&rows),
            ..ExecStats::default()
        };
        Ok((JoinIndex { key, rows }, stats))
    }

    /// The indexed rows whose key column equals `k`.
    fn matches(&self, k: &Value) -> &[Vec<Value>] {
        let key = self.key;
        let lo = self.rows.partition_point(|r| r[key] < *k);
        let n = self.rows[lo..].partition_point(|r| r[key] == *k);
        &self.rows[lo..lo + n]
    }
}

/// Hash join against a prebuilt [`JoinIndex`]: the probe rows are cut
/// into morsels (one morsel runs inline, more fan out on the pool) and
/// each probes the shared index. `build_left` says the index holds the
/// join's left side, so joined rows keep the plan's column order.
pub(crate) fn probe_join(
    probe: &[Vec<Value>],
    index: &JoinIndex,
    on: &[(usize, usize)],
    build_left: bool,
    ctx: &Ctx,
) -> Result<(Rows, ExecStats), ExecError> {
    let Some(&(i0, j0)) = on.first() else {
        return Err(ExecError::Internal("probe join without a key".to_string()));
    };
    let pk = if build_left { j0 } else { i0 };
    let tasks: Vec<&[Vec<Value>]> = probe.chunks(ctx.morsel_rows()).collect();
    let parts = run_timed(ctx, TaskKind::Morsel, tasks, |_, morsel| {
        enter_morsel(ctx, morsel, "plan.HashJoin")?;
        let mut stats = ExecStats::default();
        let mut out = Vec::new();
        for prow in morsel {
            stats.rows_processed += 1;
            stats.cells_processed += prow.len() as u64;
            stats.probes += 1;
            let Some(k) = prow.get(pk) else {
                return Err(ExecError::Eval(format!("join column {pk} missing")));
            };
            'next: for brow in index.matches(k) {
                let (lrow, rrow) = if build_left {
                    (brow, prow)
                } else {
                    (prow, brow)
                };
                for &(i, j) in &on[1..] {
                    if lrow.get(i) != rrow.get(j) {
                        continue 'next;
                    }
                }
                let mut joined = lrow.clone();
                joined.extend(rrow.iter().cloned());
                out.push(joined);
            }
        }
        Ok((out, stats))
    })?;
    merge(parts, ctx, "plan.HashJoin")
}

/// Parallel Cartesian product: the left side is morselized, each task
/// crosses its morsel with the whole right side. Quadratic, so every
/// task charges `|morsel| × |r|` steps up front — a breach fires long
/// before the full product materializes, even across workers.
pub(crate) fn par_product(
    l: Rows,
    r: Rows,
    ctx: &Ctx,
    op: &'static str,
) -> Result<(Rows, ExecStats), ExecError> {
    let rref = &r;
    let parts = run_timed(
        ctx,
        TaskKind::Morsel,
        chunk_rows(l, ctx.morsel_rows()),
        |_, morsel| {
            enter_morsel(ctx, &morsel, op)?;
            let mut stats = ExecStats::default();
            if let Some(m) = ctx.meter {
                m.charge_steps((morsel.len() * rref.len()) as u64, op)
                    .map_err(|b| budget_err(b, &stats))?;
            }
            let mut out = Vec::new();
            for lrow in &morsel {
                for rrow in rref {
                    stats.rows_processed += 1;
                    stats.cells_processed += (lrow.len() + rrow.len()) as u64;
                    let mut joined = lrow.clone();
                    joined.extend(rrow.iter().cloned());
                    out.push(joined);
                }
            }
            Ok((out, stats))
        },
    )?;
    merge(parts, ctx, op)
}

/// A partition-combinable whole-set aggregate: the kernel class sitting
/// *between* the per-tuple operators (embarrassingly parallel) and the
/// whole-set operators (serial only). The aggregate itself is not a
/// function of per-partition results of the aggregate — Lemma 2.12's
/// parity pitfall: `even(R₁∪R₂) ≠ even(R₁) xor even(R₂)` — but its
/// underlying *measure* is a homomorphism from disjoint union, so
/// partition-local accumulators combined serially reproduce the serial
/// answer exactly. Morsels are disjoint by construction (rows arrive
/// canonical: sorted + deduplicated).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CombineKind {
    /// `|R|` — each morsel contributes its row count.
    Count,
    /// `|R| mod 2` — each morsel contributes its row COUNT, not its
    /// parity bit: parities are combined by summing counts and taking
    /// the total mod 2 at the end, never by xor-ing partition parities.
    Parity,
    /// `Σ column` — each morsel contributes a partial (wrapping) sum of
    /// the given tuple component.
    Sum(usize),
}

impl CombineKind {
    fn op_name(self) -> &'static str {
        match self {
            CombineKind::Count => "plan.Count",
            CombineKind::Parity => "plan.Even",
            CombineKind::Sum(_) => "plan.Sum",
        }
    }
}

/// Partition-local accumulate + serial combine. Tasks run on the morsel
/// pool like any per-tuple kernel (timed into `exec.morsel_us`, steering
/// the tuner); the combine step is serial, passes the `exec.combine`
/// fault site, and is timed into `exec.combine_us` under an
/// `exec.combine` span. Returns the combined integer total — the caller
/// interprets it (count, parity, sum).
pub(crate) fn par_combine(
    input: Rows,
    kind: CombineKind,
    ctx: &Ctx,
) -> Result<(i64, ExecStats), ExecError> {
    let op = kind.op_name();
    let parts = run_timed(
        ctx,
        TaskKind::Morsel,
        chunk_rows(input, ctx.morsel_rows()),
        |_, morsel| {
            enter_morsel(ctx, &morsel, op)?;
            let mut stats = ExecStats::default();
            let mut acc: i64 = 0;
            for row in morsel {
                stats.rows_processed += 1;
                stats.cells_processed += row.len() as u64;
                match kind {
                    CombineKind::Count | CombineKind::Parity => acc += 1,
                    CombineKind::Sum(col) => {
                        // same component extraction as the serial
                        // evaluator, so the two routes agree on
                        // semantics and on error cases
                        let tv = Value::Tuple(row);
                        acc = acc.wrapping_add(
                            genpar_algebra::eval::sum_component(&tv, col).map_err(eval_err)?,
                        );
                    }
                }
            }
            // the partial accumulator rides back as a pseudo-row; the
            // combine below folds them in task order (no canonical
            // merge — equal partials must not deduplicate)
            Ok((vec![vec![Value::Int(acc)]], stats))
        },
    )?;
    let start = std::time::Instant::now();
    let mut sp = genpar_obs::span("exec.combine");
    sp.field("partials", parts.len() as u64);
    genpar_guard::faultpoint("exec.combine").map_err(fault_err)?;
    let mut stats = ExecStats::default();
    let mut total: i64 = 0;
    for (partial, s) in parts {
        add_stats(&mut stats, &s);
        for row in partial {
            for v in row {
                if let Value::Int(n) = v {
                    total = total.wrapping_add(n);
                }
            }
        }
    }
    if let Some(m) = ctx.meter {
        m.charge_rows(1, op).map_err(|b| budget_err(b, &stats))?;
        m.charge_cells(1, op).map_err(|b| budget_err(b, &stats))?;
    }
    genpar_obs::histogram("exec.combine_us").record(start.elapsed().as_micros() as u64);
    Ok((total, stats))
}

/// Which set operation a partitioned set kernel performs.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SetOp {
    Union,
    Intersect,
    Difference,
}

impl SetOp {
    fn op_name(self) -> &'static str {
        match self {
            SetOp::Union => "plan.Union",
            SetOp::Intersect => "plan.Intersect",
            SetOp::Difference => "plan.Difference",
        }
    }
}

/// Partitioned ∪/∩/−: both sides are routed by whole-row hash, so equal
/// rows meet in the same partition and each partition's set operation is
/// independent — the canonical merge of per-partition results equals the
/// serial result exactly.
pub(crate) fn par_setop(
    l: Rows,
    r: Rows,
    op: SetOp,
    ctx: &Ctx,
) -> Result<(Rows, ExecStats), ExecError> {
    let nparts = ctx.cfg.workers.max(1) * 2;
    let lparts = partition_rows(l, nparts, |row| row_partition(row, nparts));
    let rparts = partition_rows(r, nparts, |row| row_partition(row, nparts));
    let tasks: Vec<(Rows, Rows)> = lparts.into_iter().zip(rparts).collect();
    let name = op.op_name();
    let parts = run_timed(ctx, TaskKind::Partition, tasks, |_, (lp, rp)| {
        enter_morsel(ctx, &lp, name)?;
        let mut stats = ExecStats::default();
        stats.rows_processed += (lp.len() + rp.len()) as u64;
        stats.cells_processed += row_cells(&lp) + row_cells(&rp);
        let ls: BTreeSet<Vec<Value>> = lp.into_iter().collect();
        let rs: BTreeSet<Vec<Value>> = rp.into_iter().collect();
        let out: Rows = match op {
            SetOp::Union => ls.union(&rs).cloned().collect(),
            SetOp::Intersect => ls.intersection(&rs).cloned().collect(),
            SetOp::Difference => ls.difference(&rs).cloned().collect(),
        };
        Ok((out, stats))
    })?;
    merge(parts, ctx, name)
}
