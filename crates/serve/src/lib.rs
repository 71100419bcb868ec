//! Resident multi-tenant query service.
//!
//! `genpar serve` keeps the catalog, calibration, and observed
//! statistics resident in one process and serves queries over a
//! line-oriented JSON protocol on TCP ([`protocol`]). The guard-rail
//! machinery built for one-shot runs is repurposed for multi-tenancy:
//!
//! * [`tenants`] — each tenant gets a long-lived
//!   [`genpar_guard::SharedMeter`] quota pool; exhausting it yields
//!   structured `budget_exceeded` responses while other tenants keep
//!   running.
//! * [`admission`] — a bounded in-flight gate with a bounded wait
//!   queue; past both, requests are shed with `overloaded` instead of
//!   degrading everyone (exit-free backpressure).
//! * [`server`] — session threads, per-request wall deadlines, one
//!   process-wide morsel worker pool, and a graceful drain that flushes
//!   state files through the checksummed atomic writer.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod protocol;
pub mod server;
pub mod tenants;

pub use admission::{Admission, Admit, Ticket};
pub use protocol::{parse_request, Op, Request};
pub use server::{request_shutdown, serve, HandlerError, QueryHandler, ServeConfig};
pub use tenants::Tenants;
