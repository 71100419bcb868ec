#![warn(missing_docs)]
// Execution paths must fail structurally, never unwrap (tests exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # genpar-algebra — relational and complex-value algebra
//!
//! The paper analyzes the genericity of "many well known database
//! operations" (Section 3): the relational algebra (π, σ, ×, ∪, ∩, −, ⋈),
//! Chandra's projecting selection σ̂ (Section 3.2), `map(f)`, the
//! complement and active-domain operations of Section 3.3, and the
//! complex-value operations (nest/unnest/powerset/singleton/flatten) of
//! the languages it cites ([1, 4, 5]). This crate provides:
//!
//! * [`expr::Query`] — a query AST covering all of these, closed under
//!   composition, with first-class predicates ([`expr::Pred`]) and element
//!   functions ([`expr::ValueFn`]);
//! * [`eval`] — the evaluator `Query × Db → Value` with cost counters;
//! * [`catalog`] — the paper's named queries (Q₁–Q₅, `eq_adom`, `even`,
//!   nest-parity `np`, σ̂ variants) ready for the genericity experiments;
//! * [`vm`] — a compile-once stack bytecode for predicates and map
//!   functions, observationally identical to the walker by construction
//!   (and by the differential oracle), with `GENPAR_VM=0` as the kill
//!   switch.
//!
//! A *database* is a finite assignment of names to complex values
//! ([`eval::Db`]): "databases can be viewed as tuples of complex values"
//! (Section 2).

pub mod bags;
pub mod calculus;
pub mod catalog;
pub mod eval;
pub mod expr;
pub mod fixpoint;
pub mod parse;
pub mod types;
pub mod vm;

pub use eval::{Db, EvalError, EvalStats};
pub use expr::{Pred, Query, ValueFn};
