#![warn(missing_docs)]
//! # genpar-optimizer — rewrites justified by genericity/parametricity
//!
//! Section 4.4 of the paper turns invariance into *commutation*: a query
//! invariant under a class of mappings commutes with every mapping in the
//! class. Since `map(f)` **is** the `rel`-extension of a functional
//! mapping `f` (`{f}ʳᵉˡ = map(f)`), genericity facts become algebraic
//! laws:
//!
//! * `map(f)(R ∪ S) = map(f)(R) ∪ map(f)(S)` for **any** `f` — `∪` is
//!   fully generic, so `f` "could be any user-defined method, in any
//!   programming language, about which we know nothing";
//! * `Π₁(R ∪ S) = Π₁(R) ∪ Π₁(S)` — needs parametricity, not mere
//!   genericity: `π₁` relates values of *different* structures, which
//!   only the Section 4 relations allow;
//! * `Π₁(R − S) = Π₁(R) − Π₁(S)` and `Π₁(R ∩ S) = Π₁(R) ∩ Π₁(S)` —
//!   **only** when column 1 is a key for `R ∪ S`, making `π₁` injective
//!   there; `−` and `∩` are generic only w.r.t. injective mappings
//!   (Proposition 3.4).
//!
//! The [`rules`] module implements these as one commutation rule,
//! [`Rule::MapThroughGeneric`], whose licence comes from the classifier:
//! it fires when what `genpar_core::infer_requirements` says the
//! operator needs of a mapping is within what `f` (π read as a column
//! map) is proven to be. Beside it sit selection pushdown and the
//! classical σ/π-cascades. Every step carries a *justification*: for the
//! commutation rule, the classifier's derivation for the operator and
//! what `f` was proven to be. The [`rewrite`] engine applies the rules
//! bottom-up to fixpoint and records a trace. Soundness (rewritten ≡
//! original on all databases) is property-tested in `tests/`.

pub mod calibration;
pub mod cost;
pub mod persist;
pub mod rewrite;
pub mod rules;
pub mod stats;

pub use calibration::{
    route_costs_with_stats, Calibration, RouteCosts, CALIBRATION_SCHEMA_VERSION,
};
pub use cost::{
    estimate, estimate_nodes_with_sources, estimate_parallel, estimate_parallel_with_stats,
    estimate_with_stats, keep_cheaper, optimize_costed, optimize_costed_parallel_with_stats,
    Estimate,
};
pub use rewrite::{optimize, RewriteTrace};
pub use rules::{Constraints, Rule, RuleSet};
pub use stats::{
    CatalogStats, EstimateSource, OpStats, StatsStore, MIN_SAMPLES, STATS_SCHEMA_VERSION,
};
