//! Compile-once stack bytecode for predicate and map-function evaluation.
//!
//! The recursive AST walk in [`crate::eval`] pays per-tuple dispatch on
//! every row of every morsel. This module compiles a [`Pred`] or
//! [`ValueFn`] **once** into an immutable [`Program`] — an
//! `Arc<Vec<Op>>` instruction sequence plus constant / symbol / column
//! pools — that a reusable [`Vm`] then executes per tuple with **no
//! recursion** and no per-tuple allocation beyond the values the AST
//! walker would also clone.
//!
//! Why this is safe to do at all is the paper's point: a generic query
//! cannot observe *how* its uniform parts are implemented, only what
//! they compute. A compiled program is just a second uniform
//! implementation of the same function, so Reynolds-style parametricity
//! says the two representations must be observationally identical — and
//! `tests/vm_differential.rs` turns that claim into an enforced
//! invariant (VM output byte-identical to the walker, including error
//! cases and short-circuit order).
//!
//! Contracts the compiler keeps so the oracle can hold:
//!
//! * **Short-circuit order** — `And`/`Or` become conditional jumps
//!   ([`Op::JumpIfFalse`]/[`Op::JumpIfTrue`]), so an erroring right arm
//!   that the walker would never evaluate is never executed here
//!   either. Constant folding only folds cases the walker also
//!   short-circuits (`And(false, _)`, `Or(true, _)`) or that are pure
//!   (`Not` of a constant).
//! * **Late symbol binding** — [`Pred::Named`] / [`ValueFn::Interp`]
//!   compile to pool indices and resolve against the [`Db`] signature
//!   at run time, exactly like the walker: an unknown symbol errors
//!   per-application, never at compile time.
//! * **Error parity** — shape and column errors are constructed with
//!   the same operator labels (`σ`, `π`, `π (fn)`) and in the same
//!   evaluation order as [`crate::eval::eval_pred`] /
//!   [`crate::eval::apply_fn`].
//!
//! Expressions the compiler cannot certify — opaque [`ValueFn::Custom`]
//! closures, or programs whose evaluation stack would exceed the armed
//! depth budget — are refused at compile time with a paper-citing
//! [`Ineligible`] reason; callers keep the AST walker for those, and
//! `explain` prints the refusal.
//!
//! The VM is switched per evaluation, never process-wide: the walker's
//! [`Db::with_vm`] and the executor's `ExecConfig::vm` turn it off, and
//! the walker remains the fallback implementation everywhere. The
//! `vm.exec` fault site lets the chaos harness force that degradation
//! per evaluation unit and assert the answer is unchanged.

use crate::eval::{Db, EvalError};
use crate::expr::{Pred, ValueFn};
use genpar_value::Value;
use std::sync::Arc;

/// The VM's deterministic fault site: injected faults here degrade one
/// evaluation unit (a set in the serial evaluator, a morsel in a
/// kernel) to the AST walker — a correct answer, never a wrong one.
pub const FAULT_SITE: &str = "vm.exec";

/// Hard ceiling on a compiled program's evaluation stack, independent
/// of any armed budget. Programs needing more refuse to compile.
pub const STACK_CAP: usize = 4096;

/// One bytecode instruction. Predicate programs leave one `bool` on the
/// stack; function programs transform the input value pushed at entry
/// into the result value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Push a boolean constant.
    PushBool(bool),
    /// `t.$i == t.$j` on the input tuple; push the verdict.
    EqCols(usize, usize),
    /// `t.$i == consts[c]` on the input tuple; push the verdict.
    EqConst(usize, u32),
    /// Apply interpreted predicate `syms[s]` to input columns
    /// `colsets[c]`; push the verdict. Resolved by name per call.
    CallPred(u32, u32),
    /// Negate the boolean at the top of the stack.
    Not,
    /// If the top of the stack is `false`, jump to the target
    /// (keeping the `false` in place as the result).
    JumpIfFalse(u32),
    /// If the top of the stack is `true`, jump to the target
    /// (keeping the `true` in place as the result).
    JumpIfTrue(u32),
    /// Discard the top of the stack.
    Pop,
    /// Replace the top of the stack with its tuple component `i`.
    ProjTos(usize),
    /// Replace the top of the stack with its projection onto
    /// `colsets[c]`.
    ColsTos(u32),
    /// Replace the top of the stack with `consts[c]`.
    ConstTos(u32),
    /// Replace the top of the stack with interpreted function `syms[s]`
    /// applied to it (tuple arguments spread unless the function is
    /// unary — the walker's rule). Resolved by name per call.
    CallFnTos(u32),
    /// Duplicate the top of the stack.
    Dup,
    /// Swap the two top stack values.
    Swap,
    /// Pop `b`, pop `a`, push the tuple `(a, b)`.
    MakePair,
}

/// Which evaluator a program was compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProgKind {
    Pred,
    Fn,
}

/// An immutable compiled program: shareable across worker threads
/// (`Send + Sync`), cheap to clone (all pools behind `Arc`).
///
/// The partition-safety gate's distributivity certificate can be
/// attached once at compile time via [`Program::with_cert`]; `explain`
/// prints it alongside the program length.
#[derive(Debug, Clone)]
pub struct Program {
    ops: Arc<Vec<Op>>,
    consts: Arc<Vec<Value>>,
    syms: Arc<Vec<String>>,
    colsets: Arc<Vec<Vec<usize>>>,
    max_stack: usize,
    kind: ProgKind,
    cert: Option<Arc<str>>,
}

impl Program {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the program has no instructions (e.g. compiled
    /// `ValueFn::Identity`: the input value *is* the result).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of pooled constants.
    pub fn const_count(&self) -> usize {
        self.consts.len()
    }

    /// The peak evaluation-stack depth this program can reach.
    pub fn max_stack(&self) -> usize {
        self.max_stack
    }

    /// The instruction sequence (for explain/debug rendering).
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Attach a genericity certificate rendering (from the
    /// partition-safety gate) to the compiled program — certification
    /// happens once at compile time, not per run.
    pub fn with_cert(mut self, cert: &str) -> Program {
        self.cert = Some(Arc::from(cert));
        self
    }

    /// The attached certificate, if any.
    pub fn cert(&self) -> Option<&str> {
        self.cert.as_deref()
    }

    /// One-line rendering for `explain`: length, pool sizes, stack.
    pub fn describe(&self) -> String {
        format!(
            "{} ops, {} consts, max stack {}",
            self.len(),
            self.const_count(),
            self.max_stack
        )
    }
}

/// A compile-time refusal: the expression is outside the fragment the
/// VM can certify, with a paper-citing reason in the style of the
/// partition gate. Callers keep the AST walker for the expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ineligible {
    /// The offending operator.
    pub op: &'static str,
    /// Why it cannot be compiled.
    pub reason: String,
}

impl std::fmt::Display for Ineligible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "`{}` not compiled: {}", self.op, self.reason)
    }
}

impl Ineligible {
    fn custom_closure() -> Ineligible {
        Ineligible {
            op: "map",
            reason: "opaque closure has no syntax to compile and carries no genericity \
                     certificate (Section 4.4: a method about which we know nothing); \
                     the AST walker evaluates it in place"
                .to_string(),
        }
    }

    fn stack_depth(need: usize, cap: u64) -> Ineligible {
        Ineligible {
            op: "vm",
            reason: format!(
                "compiled evaluation stack needs {need} slots, over the armed depth \
                 budget's cap of {cap} (Resource::Depth); the AST walker evaluates \
                 the expression under its own per-recursion depth charges"
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Engage gate

/// Gate one unit of compiled execution (a set in the serial evaluator,
/// a morsel in a kernel) with the VM switched on: the `vm.exec` fault
/// site. An injected fault degrades the unit to the AST walker —
/// recorded as a `vm.degrade` counter and event — and the answer is
/// unchanged by construction.
pub fn engage() -> bool {
    match genpar_guard::faultpoint(FAULT_SITE) {
        Ok(()) => true,
        Err(f) => {
            genpar_obs::counter("vm.degrade", 1);
            genpar_obs::event(
                "vm.degrade",
                [
                    ("site", genpar_obs::FieldValue::from(f.site)),
                    ("hit", genpar_obs::FieldValue::U64(f.hit)),
                ],
            );
            false
        }
    }
}

// ---------------------------------------------------------------------
// Compiler

struct Builder {
    ops: Vec<Op>,
    consts: Vec<Value>,
    syms: Vec<String>,
    colsets: Vec<Vec<usize>>,
}

/// Predicate-compiler worklist items. The compiler is **iterative** —
/// an explicit worklist instead of recursion, so arbitrarily deep
/// expressions compile without grow-the-call-stack risk.
enum PredWork<'a> {
    Emit(&'a Pred),
    /// Left arm emitted starting at `start`; now place the
    /// short-circuit jump (or fold) and emit the right arm.
    AndRhs {
        start: usize,
        rhs: &'a Pred,
    },
    OrRhs {
        start: usize,
        rhs: &'a Pred,
    },
    /// Operand emitted starting at `start`; negate (or fold).
    NotEnd {
        start: usize,
    },
    /// Patch the jump at `at` to land after everything emitted so far.
    Patch {
        at: usize,
    },
}

enum FnWork<'a> {
    Emit(&'a ValueFn),
    Push(Op),
}

impl Builder {
    fn new() -> Builder {
        Builder {
            ops: Vec::new(),
            consts: Vec::new(),
            syms: Vec::new(),
            colsets: Vec::new(),
        }
    }

    fn intern_const(&mut self, v: &Value) -> u32 {
        match self.consts.iter().position(|c| c == v) {
            Some(i) => i as u32,
            None => {
                self.consts.push(v.clone());
                (self.consts.len() - 1) as u32
            }
        }
    }

    fn intern_sym(&mut self, name: &str) -> u32 {
        match self.syms.iter().position(|s| s == name) {
            Some(i) => i as u32,
            None => {
                self.syms.push(name.to_string());
                (self.syms.len() - 1) as u32
            }
        }
    }

    fn intern_cols(&mut self, cols: &[usize]) -> u32 {
        match self.colsets.iter().position(|c| c == cols) {
            Some(i) => i as u32,
            None => {
                self.colsets.push(cols.to_vec());
                (self.colsets.len() - 1) as u32
            }
        }
    }

    /// If the code emitted since `start` is exactly one boolean push,
    /// its value — the only folding the compiler does, because it is
    /// the only folding the walker's own short-circuiting makes
    /// unobservable.
    fn const_block(&self, start: usize) -> Option<bool> {
        if self.ops.len() == start + 1 {
            if let Op::PushBool(b) = self.ops[start] {
                return Some(b);
            }
        }
        None
    }

    fn pred(&mut self, root: &Pred) {
        let mut work = vec![PredWork::Emit(root)];
        while let Some(w) = work.pop() {
            match w {
                PredWork::Emit(p) => match p {
                    Pred::True => self.ops.push(Op::PushBool(true)),
                    Pred::EqCols(i, j) => self.ops.push(Op::EqCols(*i, *j)),
                    Pred::EqConst(i, c) => {
                        let ci = self.intern_const(c);
                        self.ops.push(Op::EqConst(*i, ci));
                    }
                    Pred::Named(name, cols) => {
                        let s = self.intern_sym(name);
                        let c = self.intern_cols(cols);
                        self.ops.push(Op::CallPred(s, c));
                    }
                    Pred::And(a, b) => {
                        work.push(PredWork::AndRhs {
                            start: self.ops.len(),
                            rhs: b,
                        });
                        work.push(PredWork::Emit(a));
                    }
                    Pred::Or(a, b) => {
                        work.push(PredWork::OrRhs {
                            start: self.ops.len(),
                            rhs: b,
                        });
                        work.push(PredWork::Emit(a));
                    }
                    Pred::Not(a) => {
                        work.push(PredWork::NotEnd {
                            start: self.ops.len(),
                        });
                        work.push(PredWork::Emit(a));
                    }
                },
                PredWork::AndRhs { start, rhs } => match self.const_block(start) {
                    // `false && rhs`: the walker short-circuits, so the
                    // never-evaluated rhs can fold away entirely
                    Some(false) => {}
                    // `true && rhs` ≡ rhs
                    Some(true) => {
                        self.ops.truncate(start);
                        work.push(PredWork::Emit(rhs));
                    }
                    None => {
                        let at = self.ops.len();
                        self.ops.push(Op::JumpIfFalse(0));
                        self.ops.push(Op::Pop);
                        work.push(PredWork::Patch { at });
                        work.push(PredWork::Emit(rhs));
                    }
                },
                PredWork::OrRhs { start, rhs } => match self.const_block(start) {
                    Some(true) => {}
                    Some(false) => {
                        self.ops.truncate(start);
                        work.push(PredWork::Emit(rhs));
                    }
                    None => {
                        let at = self.ops.len();
                        self.ops.push(Op::JumpIfTrue(0));
                        self.ops.push(Op::Pop);
                        work.push(PredWork::Patch { at });
                        work.push(PredWork::Emit(rhs));
                    }
                },
                PredWork::NotEnd { start } => match self.const_block(start) {
                    Some(b) => {
                        self.ops.truncate(start);
                        self.ops.push(Op::PushBool(!b));
                    }
                    None => self.ops.push(Op::Not),
                },
                PredWork::Patch { at } => {
                    let target = self.ops.len() as u32;
                    if let Op::JumpIfFalse(t) | Op::JumpIfTrue(t) = &mut self.ops[at] {
                        *t = target;
                    }
                }
            }
        }
    }

    fn func(&mut self, root: &ValueFn) -> Result<(), Ineligible> {
        let mut work = vec![FnWork::Emit(root)];
        while let Some(w) = work.pop() {
            match w {
                FnWork::Emit(f) => match f {
                    // the input value is already the top of the stack
                    ValueFn::Identity => {}
                    ValueFn::Proj(i) => self.ops.push(Op::ProjTos(*i)),
                    ValueFn::Cols(cols) => {
                        let c = self.intern_cols(cols);
                        self.ops.push(Op::ColsTos(c));
                    }
                    ValueFn::Const(c) => {
                        let ci = self.intern_const(c);
                        self.ops.push(Op::ConstTos(ci));
                    }
                    ValueFn::Compose(a, b) => {
                        // apply `a` first (the walker's order)
                        work.push(FnWork::Emit(b));
                        work.push(FnWork::Emit(a));
                    }
                    ValueFn::Interp(name) => {
                        let s = self.intern_sym(name);
                        self.ops.push(Op::CallFnTos(s));
                    }
                    ValueFn::Pair(a, b) => {
                        // [v] → Dup → [v v] → a → [v a(v)] → Swap →
                        // [a(v) v] → b → [a(v) b(v)] → MakePair
                        work.push(FnWork::Push(Op::MakePair));
                        work.push(FnWork::Emit(b));
                        work.push(FnWork::Push(Op::Swap));
                        work.push(FnWork::Emit(a));
                        work.push(FnWork::Push(Op::Dup));
                    }
                    ValueFn::Custom(_) => return Err(Ineligible::custom_closure()),
                },
                FnWork::Push(op) => self.ops.push(op),
            }
        }
        Ok(())
    }

    fn finish(self, kind: ProgKind) -> Result<Program, Ineligible> {
        // Jump targets always rejoin at equal stack height (the jump
        // keeps the short-circuit value that the fall-through path
        // rebuilds), so a linear scan computes the exact peak depth.
        let mut height: isize = match kind {
            ProgKind::Pred => 0,
            ProgKind::Fn => 1, // the input value is pushed at entry
        };
        let mut max = height;
        for op in &self.ops {
            height += match op {
                Op::PushBool(_) | Op::EqCols(..) | Op::EqConst(..) | Op::CallPred(..) | Op::Dup => {
                    1
                }
                Op::Pop | Op::MakePair => -1,
                _ => 0,
            };
            max = max.max(height);
        }
        let need = max.max(0) as usize;
        // The stack cap is a Budget charge: an armed depth budget caps
        // the compiled stack exactly as it caps walker recursion.
        let cap = genpar_guard::depth_limit().min(STACK_CAP as u64);
        if need as u64 > cap {
            return Err(Ineligible::stack_depth(need, cap));
        }
        Ok(Program {
            ops: Arc::new(self.ops),
            consts: Arc::new(self.consts),
            syms: Arc::new(self.syms),
            colsets: Arc::new(self.colsets),
            max_stack: need,
            kind,
            cert: None,
        })
    }
}

/// Compile a predicate into a program whose verdicts (and errors) are
/// byte-identical to [`crate::eval::eval_pred`].
pub fn compile_pred(p: &Pred) -> Result<Program, Ineligible> {
    let mut b = Builder::new();
    b.pred(p);
    b.finish(ProgKind::Pred)
}

/// Compile a map function into a program whose results (and errors)
/// are byte-identical to [`crate::eval::apply_fn`]. Opaque
/// [`ValueFn::Custom`] closures are [`Ineligible`].
pub fn compile_fn(f: &ValueFn) -> Result<Program, Ineligible> {
    let mut b = Builder::new();
    b.func(f)?;
    b.finish(ProgKind::Fn)
}

// ---------------------------------------------------------------------
// Interpreter

/// A reusable evaluation engine: one per worker (or per evaluation
/// loop), shared across every tuple it processes. [`Vm::reset`] — also
/// run at the start of every execution — guarantees no state leaks
/// between tuples, even after an errored run.
#[derive(Debug, Default)]
pub struct Vm {
    stack: Vec<Value>,
    args: Vec<Value>,
}

fn shape(op: &'static str, v: &Value) -> EvalError {
    EvalError::Shape {
        op,
        found: v.to_string(),
    }
}

/// A structural impossibility (stack underflow, non-bool where the
/// compiler guaranteed a bool). Unreachable for programs produced by
/// [`compile_pred`]/[`compile_fn`]; reported as a shape error rather
/// than a panic so even a hand-built bad program cannot take a worker
/// down.
fn corrupt(found: &str) -> EvalError {
    EvalError::Shape {
        op: "vm",
        found: found.to_string(),
    }
}

impl Vm {
    /// A fresh VM with empty (lazily grown) stacks.
    pub fn new() -> Vm {
        Vm::default()
    }

    /// Clear all interpreter state. Execution entry points call this
    /// themselves; it is public so reuse-safety is testable.
    pub fn reset(&mut self) {
        self.stack.clear();
        self.args.clear();
    }

    /// Run a predicate program against one tuple. Verdicts and errors
    /// are byte-identical to [`crate::eval::eval_pred`] on the source
    /// expression.
    pub fn run_pred(&mut self, prog: &Program, t: &Value, db: &Db) -> Result<bool, EvalError> {
        self.pred_on(prog, t.as_tuple().ok_or(t), db)
    }

    /// [`Vm::run_pred`] on a tuple's components, borrowed where they lie
    /// (the executor's rows): the same verdicts and errors as on the
    /// tuple value.
    pub fn run_row_pred(
        &mut self,
        prog: &Program,
        row: &[Value],
        db: &Db,
    ) -> Result<bool, EvalError> {
        self.pred_on(prog, Ok(row), db)
    }

    /// A predicate program over a tuple's components, or over the
    /// non-tuple element it was applied to (a shape error wherever a
    /// column is read).
    fn pred_on(
        &mut self,
        prog: &Program,
        t: Result<&[Value], &Value>,
        db: &Db,
    ) -> Result<bool, EvalError> {
        let tuple = || t.map_err(|v| shape("σ", v));
        if prog.kind != ProgKind::Pred {
            return Err(corrupt("function program run as predicate"));
        }
        self.reset();
        self.stack.reserve(prog.max_stack);
        let ops = prog.ops.as_slice();
        let mut pc = 0usize;
        while let Some(op) = ops.get(pc) {
            match op {
                Op::PushBool(b) => self.stack.push(Value::Bool(*b)),
                Op::EqCols(i, j) => {
                    let tup = tuple()?;
                    let a = tup.get(*i).ok_or(EvalError::BadColumn(*i))?;
                    let b = tup.get(*j).ok_or(EvalError::BadColumn(*j))?;
                    self.stack.push(Value::Bool(a == b));
                }
                Op::EqConst(i, c) => {
                    let tup = tuple()?;
                    let a = tup.get(*i).ok_or(EvalError::BadColumn(*i))?;
                    self.stack.push(Value::Bool(a == &prog.consts[*c as usize]));
                }
                Op::CallPred(s, c) => {
                    let name = &prog.syms[*s as usize];
                    let pred = db
                        .signature()
                        .predicate(name)
                        .ok_or_else(|| EvalError::UnknownSymbol(name.clone()))?;
                    let tup = tuple()?;
                    self.args.clear();
                    for &col in &prog.colsets[*c as usize] {
                        self.args
                            .push(tup.get(col).ok_or(EvalError::BadColumn(col))?.clone());
                    }
                    let b = pred.apply(&self.args).map_err(EvalError::Domain)?;
                    self.stack.push(Value::Bool(b));
                }
                Op::Not => match self.stack.last_mut() {
                    Some(Value::Bool(b)) => *b = !*b,
                    _ => return Err(corrupt("Not on a non-bool")),
                },
                Op::JumpIfFalse(target) => {
                    if matches!(self.stack.last(), Some(Value::Bool(false))) {
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::JumpIfTrue(target) => {
                    if matches!(self.stack.last(), Some(Value::Bool(true))) {
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::Pop => {
                    self.stack.pop();
                }
                _ => return Err(corrupt("function opcode in a predicate program")),
            }
            pc += 1;
        }
        match self.stack.pop() {
            Some(Value::Bool(b)) => Ok(b),
            _ => Err(corrupt("predicate program left no bool")),
        }
    }

    /// Run a function program against one value. Results and errors are
    /// byte-identical to [`crate::eval::apply_fn`] on the source
    /// expression.
    pub fn run_fn(&mut self, prog: &Program, v: &Value, db: &Db) -> Result<Value, EvalError> {
        if prog.kind != ProgKind::Fn {
            return Err(corrupt("predicate program run as function"));
        }
        self.reset();
        self.stack.reserve(prog.max_stack);
        self.stack.push(v.clone());
        let ops = prog.ops.as_slice();
        let mut pc = 0usize;
        while let Some(op) = ops.get(pc) {
            match op {
                Op::ProjTos(i) => {
                    let top = self.stack.pop().ok_or_else(|| corrupt("empty stack"))?;
                    let out = top
                        .project(*i)
                        .cloned()
                        .ok_or_else(|| shape("π (fn)", &top))?;
                    self.stack.push(out);
                }
                Op::ColsTos(c) => {
                    let top = self.stack.pop().ok_or_else(|| corrupt("empty stack"))?;
                    let tup = top.as_tuple().ok_or_else(|| shape("π", &top))?;
                    let cols = &prog.colsets[*c as usize];
                    let mut out = Vec::with_capacity(cols.len());
                    for &col in cols {
                        out.push(tup.get(col).ok_or(EvalError::BadColumn(col))?.clone());
                    }
                    self.stack.push(Value::Tuple(out));
                }
                Op::ConstTos(c) => {
                    self.stack.pop();
                    self.stack.push(prog.consts[*c as usize].clone());
                }
                Op::CallFnTos(s) => {
                    let name = &prog.syms[*s as usize];
                    let func = db
                        .signature()
                        .function(name)
                        .ok_or_else(|| EvalError::UnknownSymbol(name.clone()))?;
                    let top = self.stack.pop().ok_or_else(|| corrupt("empty stack"))?;
                    self.stack
                        .push(func.apply(&top).map_err(EvalError::Domain)?);
                }
                Op::Dup => {
                    let top = self
                        .stack
                        .last()
                        .cloned()
                        .ok_or_else(|| corrupt("empty stack"))?;
                    self.stack.push(top);
                }
                Op::Swap => {
                    let n = self.stack.len();
                    if n < 2 {
                        return Err(corrupt("Swap needs two values"));
                    }
                    self.stack.swap(n - 1, n - 2);
                }
                Op::MakePair => {
                    let b = self.stack.pop().ok_or_else(|| corrupt("empty stack"))?;
                    let a = self.stack.pop().ok_or_else(|| corrupt("empty stack"))?;
                    self.stack.push(Value::tuple([a, b]));
                }
                _ => return Err(corrupt("predicate opcode in a function program")),
            }
            pc += 1;
        }
        match self.stack.pop() {
            Some(out) if self.stack.is_empty() => Ok(out),
            _ => Err(corrupt("function program left a bad stack")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{apply_fn, eval_pred};
    use genpar_value::parse::parse_value;

    fn tup(s: &str) -> Value {
        parse_value(s).unwrap()
    }

    fn pair(a: ValueFn, b: ValueFn) -> ValueFn {
        ValueFn::Pair(Box::new(a), Box::new(b))
    }

    fn comp(a: ValueFn, b: ValueFn) -> ValueFn {
        ValueFn::Compose(Box::new(a), Box::new(b))
    }

    fn db() -> Db {
        Db::with_standard_int()
    }

    /// VM and walker must agree exactly — on values and on errors.
    fn assert_pred_parity(p: &Pred, t: &Value, db: &Db) {
        let prog = compile_pred(p).expect("eligible predicate");
        let mut vm = Vm::new();
        assert_eq!(
            vm.run_pred(&prog, t, db),
            eval_pred(p, t, db),
            "{p:?} on {t}"
        );
    }

    fn assert_fn_parity(f: &ValueFn, v: &Value, db: &Db) {
        let prog = compile_fn(f).expect("eligible function");
        let mut vm = Vm::new();
        assert_eq!(vm.run_fn(&prog, v, db), apply_fn(f, v, db), "{f:?} on {v}");
    }

    #[test]
    fn pushbool_and_not_opcodes() {
        let t = tup("(1, 2)");
        assert_pred_parity(&Pred::True, &t, &db());
        assert_pred_parity(&Pred::True.not(), &t, &db());
        // Not over a non-constant exercises the Not opcode proper
        let p = Pred::eq_cols(0, 1).not();
        let prog = compile_pred(&p).unwrap();
        assert!(prog.ops().contains(&Op::Not));
        assert_pred_parity(&p, &t, &db());
        assert_pred_parity(&p, &tup("(3, 3)"), &db());
    }

    #[test]
    fn eqcols_and_eqconst_opcodes() {
        let d = db();
        for t in ["(1, 1)", "(1, 2)", "(7, 9)"] {
            let t = tup(t);
            assert_pred_parity(&Pred::eq_cols(0, 1), &t, &d);
            assert_pred_parity(&Pred::eq_const(0, Value::Int(7)), &t, &d);
            // error parity: bad column, non-tuple input
            assert_pred_parity(&Pred::eq_cols(0, 9), &t, &d);
        }
        assert_pred_parity(&Pred::eq_cols(0, 1), &Value::Int(3), &d);
    }

    #[test]
    fn callpred_opcode_resolves_per_call() {
        let d = db();
        let p = Pred::Named("even".into(), vec![0]);
        for t in ["(2, 5)", "(3, 5)"] {
            assert_pred_parity(&p, &tup(t), &d);
        }
        // unknown symbols error at run time, per application — exactly
        // like the walker, so compiling cannot introduce new failures
        let bad = Pred::Named("nope".into(), vec![0]);
        let prog = compile_pred(&bad).unwrap();
        let mut vm = Vm::new();
        assert_eq!(
            vm.run_pred(&prog, &tup("(1, 2)"), &d),
            Err(EvalError::UnknownSymbol("nope".into()))
        );
        assert_pred_parity(&bad, &tup("(1, 2)"), &d);
    }

    #[test]
    fn jump_opcodes_short_circuit_like_the_walker() {
        let d = db();
        // rhs errors (bad column) — must not fire when lhs decides
        let and = Pred::eq_cols(0, 9).and(Pred::eq_cols(0, 0)); // lhs errors first
        assert_pred_parity(&and, &tup("(1, 2)"), &d);
        let and2 = Pred::eq_const(0, Value::Int(9)).and(Pred::eq_cols(0, 99));
        // lhs false: rhs (which would error) is skipped by JumpIfFalse
        let prog = compile_pred(&and2).unwrap();
        assert!(prog.ops().iter().any(|o| matches!(o, Op::JumpIfFalse(_))));
        assert_pred_parity(&and2, &tup("(1, 2)"), &d);
        let or2 = Pred::eq_const(0, Value::Int(1)).or(Pred::eq_cols(0, 99));
        let prog = compile_pred(&or2).unwrap();
        assert!(prog.ops().iter().any(|o| matches!(o, Op::JumpIfTrue(_))));
        assert_pred_parity(&or2, &tup("(1, 2)"), &d);
        // and when the lhs does not decide, the erroring rhs fires
        let and3 = Pred::eq_const(0, Value::Int(1)).and(Pred::eq_cols(0, 99));
        assert_pred_parity(&and3, &tup("(1, 2)"), &d);
    }

    #[test]
    fn projtos_colstos_consttos_opcodes() {
        let d = db();
        let t = tup("(10, 20, 30)");
        assert_fn_parity(&ValueFn::Proj(1), &t, &d);
        assert_fn_parity(&ValueFn::Proj(9), &t, &d); // error parity
        assert_fn_parity(&ValueFn::Cols(vec![2, 0]), &t, &d);
        assert_fn_parity(&ValueFn::Cols(vec![2, 9]), &t, &d); // error parity
        assert_fn_parity(&ValueFn::Cols(vec![0]), &Value::Int(1), &d); // shape error
        assert_fn_parity(&ValueFn::Const(Value::Int(42)), &t, &d);
    }

    #[test]
    fn callfntos_opcode_and_spread_rule() {
        let mut d = db();
        // a binary function: tuple arguments spread
        d.signature_mut().add_function(genpar_value::InterpFn {
            name: "add".into(),
            args: vec![genpar_value::BaseType::Int, genpar_value::BaseType::Int],
            result: genpar_value::BaseType::Int,
            eval: Box::new(|vs: &[Value]| match vs {
                [Value::Int(a), Value::Int(b)] => Some(Value::Int(a + b)),
                _ => None,
            }),
        });
        // a tuple spreads: unary `succ` takes a 1-tuple's sole component
        // and errors, naming itself and the value, on a wider tuple
        assert_fn_parity(&ValueFn::Interp("succ".into()), &Value::Int(5), &d);
        assert_fn_parity(&ValueFn::Interp("succ".into()), &tup("(5)"), &d);
        assert_fn_parity(&ValueFn::Interp("succ".into()), &tup("(5, 6)"), &d);
        let succ = ValueFn::Interp("succ".into());
        assert_eq!(apply_fn(&succ, &tup("(5)"), &d), Ok(Value::Int(6)));
        let err = apply_fn(&succ, &tup("(5, 6)"), &d).unwrap_err();
        assert_eq!(
            err.to_string(),
            "succ is not defined on (5, 6): it takes int"
        );
        assert_fn_parity(&ValueFn::Interp("add".into()), &tup("(5, 6)"), &d);
        assert_fn_parity(&ValueFn::Interp("add".into()), &Value::Int(5), &d);
        assert_fn_parity(&ValueFn::Interp("ghost".into()), &Value::Int(5), &d);
    }

    #[test]
    fn dup_swap_makepair_opcodes() {
        let d = db();
        let f = pair(ValueFn::Proj(1), ValueFn::Proj(0));
        let prog = compile_fn(&f).unwrap();
        for op in [Op::Dup, Op::Swap, Op::MakePair] {
            assert!(prog.ops().contains(&op), "missing {op:?}");
        }
        assert_fn_parity(&f, &tup("(10, 20)"), &d);
        // left arm evaluates (and errors) first, as in the walker
        assert_fn_parity(
            &pair(ValueFn::Proj(9), ValueFn::Proj(0)),
            &tup("(1, 2)"),
            &d,
        );
    }

    #[test]
    fn compose_applies_left_first() {
        let d = db();
        let f = comp(ValueFn::Cols(vec![1, 0]), ValueFn::Proj(0));
        assert_fn_parity(&f, &tup("(10, 20)"), &d);
        // error in the first stage wins
        assert_fn_parity(
            &comp(ValueFn::Proj(9), ValueFn::Proj(8)),
            &tup("(1, 2)"),
            &d,
        );
    }

    #[test]
    fn empty_program_is_identity() {
        let prog = compile_fn(&ValueFn::Identity).unwrap();
        assert!(prog.is_empty());
        assert_eq!(prog.len(), 0);
        let v = tup("{(1, 2), 3}");
        let mut vm = Vm::new();
        assert_eq!(vm.run_fn(&prog, &v, &db()), Ok(v.clone()));
        assert_fn_parity(&ValueFn::Identity, &v, &db());
    }

    #[test]
    fn constant_folding_preserves_short_circuit_semantics() {
        // And(false, _): the walker never evaluates the rhs, so an
        // erroring rhs folds away entirely
        let dead_rhs = Pred::Named("nope".into(), vec![0]);
        let p = Pred::True.not().and(dead_rhs.clone());
        let prog = compile_pred(&p).unwrap();
        assert_eq!(prog.ops(), &[Op::PushBool(false)]);
        assert_pred_parity(&p, &tup("(1, 2)"), &db());
        // Or(true, _) likewise
        let p = Pred::True.or(dead_rhs);
        assert_eq!(compile_pred(&p).unwrap().ops(), &[Op::PushBool(true)]);
        assert_pred_parity(&p, &tup("(1, 2)"), &db());
        // And(true, b) ≡ b — no jump emitted
        let p = Pred::True.and(Pred::eq_cols(0, 1));
        assert_eq!(compile_pred(&p).unwrap().ops(), &[Op::EqCols(0, 1)]);
        // Or(false, b) ≡ b
        let p = Pred::True.not().or(Pred::eq_cols(0, 1));
        assert_eq!(compile_pred(&p).unwrap().ops(), &[Op::EqCols(0, 1)]);
        // Not(Not(True)) folds to a single push
        let p = Pred::True.not().not();
        assert_eq!(compile_pred(&p).unwrap().ops(), &[Op::PushBool(true)]);
    }

    #[test]
    fn deep_nesting_compiles_and_runs_without_recursion() {
        // deep enough that the recursive walker would overflow a test
        // thread's stack — the iterative compiler and flat interpreter
        // handle it in O(1) stack. The expression itself still needs a
        // big thread to be *dropped* (Box chains drop recursively),
        // which is precisely the hazard the VM removes from evaluation.
        std::thread::Builder::new()
            .stack_size(64 * 1024 * 1024)
            .spawn(|| {
                let depth = 50_000;
                let mut p = Pred::eq_cols(0, 1);
                for _ in 0..depth {
                    p = p.not();
                }
                let prog = compile_pred(&p).unwrap();
                assert_eq!(prog.len(), depth + 1);
                assert_eq!(prog.max_stack(), 1);
                let mut vm = Vm::new();
                // even depth of nots: identity
                assert_eq!(vm.run_pred(&prog, &tup("(3, 3)"), &db()), Ok(true));
                // a deep right-nested And-chain stays at stack height 1
                let mut q = Pred::eq_cols(0, 0);
                for _ in 0..depth {
                    q = Pred::eq_cols(0, 0).and(q);
                }
                let prog = compile_pred(&q).unwrap();
                assert_eq!(prog.max_stack(), 1);
                assert_eq!(vm.run_pred(&prog, &tup("(3, 3)"), &db()), Ok(true));
            })
            .expect("spawn")
            .join()
            .expect("deep-nesting thread");
    }

    #[test]
    fn stack_cap_is_a_budget_charge() {
        // Pair nesting is the one shape that actually grows the stack
        let mut f = ValueFn::Proj(0);
        for _ in 0..8 {
            f = pair(f, ValueFn::Proj(0));
        }
        let unbounded = compile_fn(&f).unwrap();
        assert!(unbounded.max_stack() > 4);
        // with a depth budget armed, the same program is refused — the
        // compiled stack is charged against Resource::Depth like walker
        // recursion would be
        let _scope = genpar_guard::ExecBudget::unlimited()
            .with_max_depth(4)
            .enter();
        let err = compile_fn(&f).unwrap_err();
        assert_eq!(err.op, "vm");
        assert!(err.reason.contains("Resource::Depth"), "{err}");
        assert!(err.to_string().contains("not compiled"), "{err}");
    }

    #[test]
    fn custom_closures_are_ineligible_with_a_citing_reason() {
        let f = ValueFn::custom(|v| v.clone());
        let err = compile_fn(&f).unwrap_err();
        assert_eq!(err.op, "map");
        assert!(err.reason.contains("Section 4.4"), "{err}");
        // nested anywhere, same refusal
        let nested = comp(ValueFn::Proj(0), ValueFn::custom(|v| v.clone()));
        assert!(compile_fn(&nested).is_err());
    }

    #[test]
    fn reset_reuse_leaks_no_state_between_tuples() {
        let d = db();
        let mut vm = Vm::new();
        let pred = compile_pred(&Pred::eq_cols(0, 1).and(Pred::eq_cols(1, 2))).unwrap();
        let func = compile_fn(&pair(ValueFn::Proj(0), ValueFn::Proj(1))).unwrap();
        // interleave successes and errors on ONE instance; every result
        // must match what a fresh instance computes
        let tuples = [
            tup("(1, 1, 1)"),
            Value::Int(9),
            tup("(2, 3)"),
            tup("(4, 4, 4)"),
        ];
        for t in &tuples {
            let reused_p = vm.run_pred(&pred, t, &d);
            let fresh_p = Vm::new().run_pred(&pred, t, &d);
            assert_eq!(reused_p, fresh_p, "pred on {t}");
            let reused_f = vm.run_fn(&func, t, &d);
            let fresh_f = Vm::new().run_fn(&func, t, &d);
            assert_eq!(reused_f, fresh_f, "fn on {t}");
        }
        // and reset() empties everything even after an errored run
        let _ = vm.run_pred(&pred, &Value::Int(9), &d);
        vm.reset();
        assert!(vm.stack.is_empty() && vm.args.is_empty());
    }

    #[test]
    fn programs_are_shareable_and_carry_certs() {
        fn is_send_sync<T: Send + Sync>() {}
        is_send_sync::<Program>();
        is_send_sync::<Vm>();
        let prog = compile_pred(&Pred::eq_cols(0, 1))
            .unwrap()
            .with_cert("1 operators certified; rel-mode class: generic");
        assert_eq!(
            prog.cert(),
            Some("1 operators certified; rel-mode class: generic")
        );
        assert!(prog.describe().contains("1 ops"));
        let clone = prog.clone();
        assert_eq!(clone.cert(), prog.cert());
    }
}
