#![warn(missing_docs)]
// Execution paths must fail structurally, never unwrap (tests exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # genpar-engine — a small in-memory relational engine
//!
//! Section 4.4 of the paper derives algebraic rewrite laws from
//! genericity and parametricity (pushing `map(f)` and projections through
//! operators, key-aware projection through difference). Demonstrating
//! that those rewrites *matter* requires an execution substrate that
//! charges realistic costs; this crate provides it:
//!
//! * [`schema`] — column schemas and **key constraints** (the
//!   social-security-number example of Section 4.4 is exactly a key on
//!   `R ∪ S` making `π₁` injective);
//! * [`table`] — set-semantics tables of tuples;
//! * [`plan`] — physical operator trees (scan, filter, project, hash
//!   join, union, difference, map), their work counters and errors, plus
//!   a lowering from `genpar-algebra` queries. `genpar-exec` runs them;
//! * [`workload`] — random table generators with controllable
//!   duplication factor and key columns, used by the benchmark harness.

pub mod plan;
pub mod schema;
pub mod table;
pub mod workload;

pub use plan::{lower, ExecStats, PhysicalPlan};
pub use schema::{Catalog, Schema};
pub use table::Table;
