//! Parallel operator kernels.
//!
//! Every kernel has the same shape: cut the input into pieces, run one
//! task per piece on the pool, then **canonically merge** — sort + dedup
//! under the derived total order on `Value` — so the result is
//! independent of worker count, morsel size and scheduling. Rows travel
//! between operators as canonical runs (sorted, deduplicated), so a
//! piece is a plain subslice: a morsel for the per-row kernels, a key
//! range of both inputs for ∪/∩/−. Where the task outputs are already
//! key ranges in order (σ keeps its input's order, a set operation
//! merges its range), the merge concatenates them instead of sorting.
//! Tasks read their rows where they lie: a kernel clones only the rows
//! it emits (and `par_map` its argument tuple). Each task
//! passes the `exec.morsel` fault site and charges the shared budget
//! meter; the merge passes `exec.merge` and charges the output-side rows
//! and cells of each plan node.
//!
//! Every task is wall-clock timed into the `exec.morsel_us` histogram,
//! and morsel kernels feed each batch's p95 latency back to the global
//! [`crate::tune::MorselTuner`] so the morsel size converges on the
//! ~100µs/task sweet spot.

use crate::{eval_to_exec, pool, tune, ExecConfig};
use genpar_algebra::eval::{apply_fn, eval_row_pred, row_sum_component};
use genpar_algebra::{vm, Db, Pred, ValueFn};
use genpar_engine::plan::{ExecError, ExecStats};
use genpar_guard::SharedMeter;
use genpar_value::{canonical_rows, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Mutex;

/// One row: a flat tuple's components.
pub(crate) type Row = Vec<Value>;

/// Rows in flight between operators (canonical: sorted, deduplicated).
pub(crate) type Rows = Vec<Row>;

/// Is `rows` a canonical run: strictly increasing, so sorted and free
/// of duplicates?
fn is_canonical(rows: &[Row]) -> bool {
    rows.windows(2).all(|w| w[0] < w[1])
}

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
        self.cfg.effective_morsel_rows().max(1)
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
/// Each task runs behind a panic boundary (a panicking morsel becomes a
/// structured internal error that cancels the run), and the pool's
/// recovery ladder re-runs a faulted task from the same borrowed input:
/// in-place retries through [`crate::retry_gate`], then one requeue and
/// worker quarantine, before the fault escapes to the route's
/// whole-serial rung. Tasks overrunning the p95-derived watchdog
/// deadline are flagged via [`note_watchdog`].
fn run_timed<T, R, F>(ctx: &Ctx, kind: TaskKind, tasks: &[T], f: F) -> Result<Vec<R>, ExecError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R, ExecError> + Sync,
{
    let hist = genpar_obs::histogram("exec.morsel_us");
    let watchdog_us = watchdog_deadline_us(hist.snapshot().p95);
    let tune_batch = matches!(kind, TaskKind::Morsel) && ctx.cfg.auto_tune;
    let samples: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let parts = pool::run_tasks(ctx.cfg.workers, ctx.cfg.retry, tasks, |_, t| {
        let start = std::time::Instant::now();
        let out = genpar_guard::catch_panics(|| f(t))
            .unwrap_or_else(|msg| Err(ExecError::Internal(format!("task panicked: {msg}"))));
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
    })?;
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

fn row_cells<R: AsRef<[Value]>>(rows: impl IntoIterator<Item = R>) -> u64 {
    rows.into_iter().map(|r| r.as_ref().len() as u64).sum()
}

/// Per-task entry: the `exec.morsel` fault site plus the input-side
/// budget charges (steps = one quantum per task, plus the task's input
/// cells).
fn enter_morsel(ctx: &Ctx, cells: u64, op: &'static str) -> Result<(), ExecError> {
    genpar_guard::faultpoint("exec.morsel").map_err(fault_err)?;
    if let Some(m) = ctx.meter {
        let zero = ExecStats::default();
        m.charge_steps(1, op).map_err(|b| budget_err(b, &zero))?;
        m.charge_cells(cells, op)
            .map_err(|b| budget_err(b, &zero))?;
    }
    Ok(())
}

/// How [`merge`] makes the gathered task outputs canonical.
#[derive(Clone, Copy)]
enum Gather {
    /// Outputs in any order: sort and deduplicate.
    Sort,
    /// Each output is canonical and precedes the next in key order:
    /// their concatenation already is canonical.
    Concat,
}

/// Canonical merge: the `exec.merge` fault site, per-task stats summed in
/// task order, rows made canonical ([`Gather`]), output-side budget
/// charges.
fn merge(
    parts: Vec<(Rows, ExecStats)>,
    ctx: &Ctx,
    op: &'static str,
    gather: Gather,
) -> Result<(Rows, ExecStats), ExecError> {
    genpar_guard::faultpoint("exec.merge").map_err(fault_err)?;
    let mut stats = ExecStats::default();
    let mut all: Rows = Vec::with_capacity(parts.iter().map(|(rows, _)| rows.len()).sum());
    for (rows, s) in parts {
        add_stats(&mut stats, &s);
        all.extend(rows);
    }
    let rows = match gather {
        Gather::Sort => canonical_rows(all),
        Gather::Concat => {
            debug_assert!(is_canonical(&all), "{op}: task outputs out of key order");
            all
        }
    };
    if let Some(m) = ctx.meter {
        m.charge_rows(rows.len() as u64, op)
            .map_err(|b| budget_err(b, &stats))?;
        m.charge_cells(row_cells(&rows), op)
            .map_err(|b| budget_err(b, &stats))?;
    }
    Ok((rows, stats))
}

/// A per-row kernel: `input` is cut into morsels, and each task passes
/// [`enter_morsel`] and hands its morsel to `body`, which pushes what
/// the rows emit. The task's stats start at one processed row (and its
/// cells) per row read; `body` may add to them. The parts are merged
/// canonically, as `gather` says.
fn per_morsel<F>(
    input: &[Row],
    ctx: &Ctx,
    op: &'static str,
    gather: Gather,
    body: F,
) -> Result<(Rows, ExecStats), ExecError>
where
    F: Fn(&[Row], &mut Rows, &mut ExecStats) -> Result<(), ExecError> + Sync,
{
    let morsels: Vec<&[Row]> = input.chunks(ctx.morsel_rows()).collect();
    let parts = run_timed(ctx, TaskKind::Morsel, &morsels, |&morsel| {
        let cells = row_cells(morsel);
        enter_morsel(ctx, cells, op)?;
        let mut stats = ExecStats {
            rows_processed: morsel.len() as u64,
            cells_processed: cells,
            ..ExecStats::default()
        };
        let mut out = Vec::new();
        body(morsel, &mut out, &mut stats)?;
        Ok((out, stats))
    })?;
    merge(parts, ctx, op, gather)
}

/// Compile one operator's expression program — **once**, before the
/// tasks fan out, and only with the VM on for this run; every worker
/// then shares the immutable program and holds its own reusable
/// [`vm::Vm`]. The route certificate (when the gate ran) is attached to
/// the program here, and the compilation is left on the obs trail: a
/// `vm.programs` counter and `vm.program` event on success,
/// `vm.ineligible` (with the paper-citing reason) on refusal.
fn prepare_program(
    compile: impl FnOnce() -> Result<vm::Program, vm::Ineligible>,
    ctx: &Ctx,
    op: &'static str,
) -> Option<vm::Program> {
    if !ctx.cfg.vm {
        return None;
    }
    match compile() {
        Ok(prog) => {
            let prog = match ctx.cert {
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
/// `vm.exec` fault degrades that one morsel to the AST walker. σ keeps
/// the order of its canonical input, so the morsels' outputs
/// concatenate.
pub(crate) fn par_filter(
    input: &[Row],
    p: &Pred,
    ctx: &Ctx,
) -> Result<(Rows, ExecStats), ExecError> {
    debug_assert!(is_canonical(input), "plan.Filter: input is not canonical");
    let prog = prepare_program(|| vm::compile_pred(p), ctx, "plan.Filter");
    per_morsel(
        input,
        ctx,
        "plan.Filter",
        Gather::Concat,
        |morsel, out, _| {
            let db = Db::with_standard_int();
            let mut on_vm = prog
                .as_ref()
                .filter(|_| vm::engage())
                .map(|p| (p, vm::Vm::new()));
            for row in morsel {
                let keep = match &mut on_vm {
                    Some((prog, m)) => m.run_row_pred(prog, row, &db),
                    None => eval_row_pred(p, row, &db),
                };
                if keep.map_err(eval_to_exec)? {
                    out.push(row.clone());
                }
            }
            Ok(())
        },
    )
}

/// Parallel π: embarrassingly parallel over morsels (dedup at merge).
pub(crate) fn par_project(
    input: &[Row],
    cols: &[usize],
    ctx: &Ctx,
) -> Result<(Rows, ExecStats), ExecError> {
    per_morsel(
        input,
        ctx,
        "plan.Project",
        Gather::Sort,
        |morsel, out, _| {
            for row in morsel {
                let projected = cols.iter().map(|&c| {
                    row.get(c)
                        .cloned()
                        .ok_or_else(|| ExecError::Eval(format!("column {c} missing")))
                });
                out.push(projected.collect::<Result<_, _>>()?);
            }
            Ok(())
        },
    )
}

/// Parallel map: embarrassingly parallel over morsels. Same
/// compile-once / per-morsel-engage scheme as [`par_filter`];
/// ineligible functions (opaque closures) keep the walker.
pub(crate) fn par_map(
    input: &[Row],
    f: &ValueFn,
    ctx: &Ctx,
) -> Result<(Rows, ExecStats), ExecError> {
    let prog = prepare_program(|| vm::compile_fn(f), ctx, "plan.MapRows");
    per_morsel(
        input,
        ctx,
        "plan.MapRows",
        Gather::Sort,
        |morsel, out, _| {
            let db = Db::with_standard_int();
            let mut on_vm = prog
                .as_ref()
                .filter(|_| vm::engage())
                .map(|p| (p, vm::Vm::new()));
            for row in morsel {
                // a function applies to a tuple value: the one row copy a
                // kernel makes that it may not emit
                let arg = Value::Tuple(row.clone());
                let v = match &mut on_vm {
                    Some((prog, m)) => m.run_fn(prog, &arg, &db),
                    None => apply_fn(f, &arg, &db),
                };
                out.push(into_row(v.map_err(eval_to_exec)?)?);
            }
            Ok(())
        },
    )
}

/// A mapped value as a row. [`genpar_engine::lower`] admits only
/// row-shaped functions, so a bare value here is a broken invariant, not
/// a value to wrap: wrapping it would make the executor answer `{(v)}`
/// where the walker answers `{v}`.
fn into_row(v: Value) -> Result<Row, ExecError> {
    match v {
        Value::Tuple(cols) => Ok(cols),
        other => Err(ExecError::Internal(format!(
            "map emitted the bare value {other}: only row-shaped maps lower"
        ))),
    }
}

/// Hash join: the right side is indexed once on its first key column
/// ([`JoinIndex::build`]) and the left side's morsels probe it
/// ([`probe_join`]). A keyless join is the product kernel.
pub(crate) fn hash_join(
    l: &[Row],
    r: Cow<'_, [Row]>,
    on: &[(usize, usize)],
    ctx: &Ctx,
) -> Result<(Rows, ExecStats), ExecError> {
    let Some(&(_, key)) = on.first() else {
        return par_product(l, &r, ctx, "plan.HashJoin");
    };
    let (index, build) = JoinIndex::build(r, key)?;
    let (rows, mut stats) = probe_join(l, &index, on, false, ctx)?;
    add_stats(&mut stats, &build);
    Ok((rows, stats))
}

/// One join side indexed on its key column: the rows sorted by key,
/// probed by binary search. A canonical run is already sorted on its
/// first column, so an index on column 0 borrows the rows where they
/// lie; only another key sorts a copy. A plan's join builds one over its
/// right side; a fixpoint keeps one over a loop-invariant side for all
/// its rounds.
pub(crate) struct JoinIndex<'a> {
    key: usize,
    rows: Cow<'a, [Row]>,
}

impl<'a> JoinIndex<'a> {
    /// Index `rows` on column `key`. The stats count the build rows once.
    pub(crate) fn build(
        rows: Cow<'a, [Row]>,
        key: usize,
    ) -> Result<(JoinIndex<'a>, ExecStats), ExecError> {
        if rows.iter().any(|r| r.len() <= key) {
            return Err(ExecError::Eval(format!("join column {key} missing")));
        }
        let rows = if rows.is_sorted_by(|a, b| a[key] <= b[key]) {
            rows
        } else {
            let mut sorted = rows.into_owned();
            sorted.sort_by(|a, b| a[key].cmp(&b[key]));
            Cow::Owned(sorted)
        };
        let stats = ExecStats {
            rows_processed: rows.len() as u64,
            cells_processed: row_cells(rows.iter()),
            ..ExecStats::default()
        };
        Ok((JoinIndex { key, rows }, stats))
    }

    /// The indexed rows whose key column equals `k`.
    fn matches(&self, k: &Value) -> &[Row] {
        let key = self.key;
        let lo = self.rows.partition_point(|r| r[key] < *k);
        let n = self.rows[lo..].partition_point(|r| r[key] == *k);
        &self.rows[lo..lo + n]
    }
}

/// Hash join against a built [`JoinIndex`]: the probe rows are cut into
/// morsels (one morsel runs inline, more fan out on the pool) and each
/// probes the shared index. `build_left` says the index holds the join's
/// left side, so joined rows keep the plan's column order.
pub(crate) fn probe_join(
    probe: &[Row],
    index: &JoinIndex<'_>,
    on: &[(usize, usize)],
    build_left: bool,
    ctx: &Ctx,
) -> Result<(Rows, ExecStats), ExecError> {
    let Some(&(i0, j0)) = on.first() else {
        return Err(ExecError::Internal("probe join without a key".to_string()));
    };
    let pk = if build_left { j0 } else { i0 };
    per_morsel(
        probe,
        ctx,
        "plan.HashJoin",
        Gather::Sort,
        |morsel, out, stats| {
            stats.probes = morsel.len() as u64;
            for prow in morsel {
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
                    out.push(concat(lrow, rrow));
                }
            }
            Ok(())
        },
    )
}

/// A joined row: the left row's components, then the right row's.
fn concat(l: &[Value], r: &[Value]) -> Row {
    let mut joined = Vec::with_capacity(l.len() + r.len());
    joined.extend_from_slice(l);
    joined.extend_from_slice(r);
    joined
}

/// Parallel Cartesian product: the left side is morselized, each task
/// crosses its morsel with the whole right side. Quadratic, so every
/// task charges `|morsel| × |r|` steps up front — a breach fires long
/// before the full product materializes, even across workers.
pub(crate) fn par_product(
    l: &[Row],
    r: &[Row],
    ctx: &Ctx,
    op: &'static str,
) -> Result<(Rows, ExecStats), ExecError> {
    let r_cells = row_cells(r);
    per_morsel(l, ctx, op, Gather::Sort, |morsel, out, stats| {
        let pairs = (morsel.len() * r.len()) as u64;
        if let Some(m) = ctx.meter {
            m.charge_steps(pairs, op)
                .map_err(|b| budget_err(b, &ExecStats::default()))?;
        }
        // every pair is processed: each left row once per right row
        *stats = ExecStats {
            rows_processed: pairs,
            cells_processed: stats.cells_processed * r.len() as u64 + morsel.len() as u64 * r_cells,
            ..ExecStats::default()
        };
        for lrow in morsel {
            for rrow in r {
                out.push(concat(lrow, rrow));
            }
        }
        Ok(())
    })
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
    input: &[Row],
    kind: CombineKind,
    ctx: &Ctx,
) -> Result<(i64, ExecStats), ExecError> {
    let op = kind.op_name();
    let morsels: Vec<&[Row]> = input.chunks(ctx.morsel_rows()).collect();
    let parts = run_timed(ctx, TaskKind::Morsel, &morsels, |&morsel| {
        let cells = row_cells(morsel);
        enter_morsel(ctx, cells, op)?;
        let stats = ExecStats {
            rows_processed: morsel.len() as u64,
            cells_processed: cells,
            ..ExecStats::default()
        };
        let partial = match kind {
            CombineKind::Count | CombineKind::Parity => morsel.len() as i64,
            // the walker's component extraction, so the two routes
            // agree on semantics and on error cases
            CombineKind::Sum(col) => morsel.iter().try_fold(0i64, |acc, row| {
                row_sum_component(row, col)
                    .map(|v| acc.wrapping_add(v))
                    .map_err(eval_to_exec)
            })?,
        };
        Ok((partial, stats))
    })?;
    let start = std::time::Instant::now();
    let mut sp = genpar_obs::span("exec.combine");
    sp.field("partials", parts.len() as u64);
    genpar_guard::faultpoint("exec.combine").map_err(fault_err)?;
    let mut stats = ExecStats::default();
    let mut total: i64 = 0;
    // partials fold in task order (no canonical merge — equal partials
    // must not deduplicate)
    for (partial, s) in parts {
        add_stats(&mut stats, &s);
        total = total.wrapping_add(partial);
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

/// Partitioned ∪/∩/− over two canonical runs: both are cut at the same
/// pivots ([`key_ranges`]), so equal rows meet in the same task, each
/// task merges its key range in one linear pass ([`merge_runs`]), and
/// the task outputs concatenate in key order. Tasks read the input rows
/// where they lie; only the rows a task emits are cloned.
pub(crate) fn par_setop(
    l: &[Row],
    r: &[Row],
    op: SetOp,
    ctx: &Ctx,
) -> Result<(Rows, ExecStats), ExecError> {
    debug_assert!(
        is_canonical(l) && is_canonical(r),
        "{}: inputs are not canonical runs",
        op.op_name()
    );
    let tasks = key_ranges(l, r, ctx.cfg.workers.max(1) * 2);
    let name = op.op_name();
    let parts = run_timed(ctx, TaskKind::Partition, &tasks, |&(lp, rp)| {
        enter_morsel(ctx, row_cells(lp), name)?;
        let stats = ExecStats {
            rows_processed: (lp.len() + rp.len()) as u64,
            cells_processed: row_cells(lp) + row_cells(rp),
            ..ExecStats::default()
        };
        let out = merge_runs(
            lp.iter().map(Cow::Borrowed),
            rp.iter().map(Cow::Borrowed),
            op,
        );
        Ok((out, stats))
    })?;
    merge(parts, ctx, name, Gather::Concat)
}

/// Cut two canonical runs into `parts` key ranges at the same pivots,
/// drawn evenly from the longer run and located in each by binary
/// search. A row equal to a pivot starts the next range in both runs,
/// so equal rows always fall into the same range.
fn key_ranges<'a>(l: &'a [Row], r: &'a [Row], parts: usize) -> Vec<(&'a [Row], &'a [Row])> {
    let longer = if l.len() >= r.len() { l } else { r };
    let mut cuts = vec![(0, 0)];
    for k in 1..parts {
        cuts.push(match longer.get(k * longer.len() / parts) {
            Some(pivot) => (
                l.partition_point(|row| row < pivot),
                r.partition_point(|row| row < pivot),
            ),
            None => (l.len(), r.len()),
        });
    }
    cuts.push((l.len(), r.len()));
    cuts.windows(2)
        .map(|w| (&l[w[0].0..w[1].0], &r[w[0].1..w[1].1]))
        .collect()
}

/// ∪, ∩ or − of two canonical runs in one linear merge; the result is a
/// canonical run. A row the result keeps is moved when its side yields
/// it owned and cloned when borrowed.
pub(crate) fn merge_runs<'a>(
    l: impl IntoIterator<Item = Cow<'a, Row>>,
    r: impl IntoIterator<Item = Cow<'a, Row>>,
    op: SetOp,
) -> Rows {
    let (keep_l, keep_both, keep_r) = match op {
        SetOp::Union => (true, true, true),
        SetOp::Intersect => (false, true, false),
        SetOp::Difference => (true, false, false),
    };
    let mut out = Vec::new();
    let (mut l, mut r) = (l.into_iter().peekable(), r.into_iter().peekable());
    loop {
        let order = match (l.peek(), r.peek()) {
            (Some(a), Some(b)) => a.cmp(b),
            (Some(_), None) if keep_l => Ordering::Less,
            (None, Some(_)) if keep_r => Ordering::Greater,
            _ => return out,
        };
        let (row, keep) = match order {
            Ordering::Less => (l.next(), keep_l),
            Ordering::Greater => (r.next(), keep_r),
            Ordering::Equal => {
                r.next();
                (l.next(), keep_both)
            }
        };
        if let (Some(row), true) = (row, keep) {
            out.push(row.into_owned());
        }
    }
}
