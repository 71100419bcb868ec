#![warn(missing_docs)]
//! # genpar-value — the complex-value data model
//!
//! This crate implements the data model of Section 2 of Beeri, Milo &
//! Ta-Shma, *On Genericity and Parametricity* (PODS 1996):
//!
//! * a **signature** Σ of base types — interpreted (`bool`, `int`, `str`)
//!   and uninterpreted named domains of atoms — together with interpreted
//!   functions and predicates over them ([`base::Signature`]);
//! * **complex value types** (Definition 2.1): trees whose leaves are base
//!   types and whose internal nodes are the type constructors `×` (tuple),
//!   `{}` (set), `⟅⟆` (bag) and `⟨⟩` (list) ([`ty::CvType`]);
//! * **type expressions** (Definition 2.7): the same trees with type
//!   variables at (some of) the leaves ([`ty::TypeExpr`]), substitution and
//!   *associated types*;
//! * **complex values** ([`value::Value`]) with a total order (so sets and
//!   bags have a canonical representation), dynamic type checking, active
//!   domains, and exhaustive enumeration of all values of a type over a
//!   finite universe — the finite-model substrate on which the genericity
//!   and parametricity checkers operate.
//!
//! The paper allows infinite complex values (its footnote 2); this crate
//! materializes only finite values. Every *negative* claim in the paper is
//! witnessed by a finite counterexample, and every *positive* claim is
//! checked on finite models plus verified symbolically by the classifier in
//! `genpar-core`, so the restriction is harmless (see DESIGN.md §1).

pub mod base;
pub mod display;
pub mod enumerate;
pub mod parse;
pub mod random;
pub mod ty;
pub mod value;

pub use base::{Atom, BaseType, DomainError, DomainId, InterpFn, InterpPred, Signature};
pub use display::{canonical_order, canonical_rows, rows_to_value};
pub use ty::{CvType, TyVar, TypeExpr};
pub use value::{TypeError, Value};
