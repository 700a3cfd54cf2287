//! # laqy-server
//!
//! The overload-safe multi-tenant serving layer over the LAQy service:
//! a length-framed TCP protocol ([`protocol`]), per-tenant namespaces
//! with their own sample stores, WALs, and budgets ([`tenant`]),
//! bounded admission with explicit load shedding ([`admission`]), the
//! serving front-end with graceful drain ([`server`]), and a blocking
//! client ([`client`]).
//!
//! The serving contract, end to end:
//!
//! - **Always a typed outcome.** Every request gets an `Answer`,
//!   `IngestAck`, `Overloaded { retry_after_ms }`, or `Error { code }`
//!   — never a hang, never a torn frame accepted as data.
//! - **Degrade before shed.** Admitted queries run under a
//!   [`laqy::QueryBudget`] that had the queue wait charged against it:
//!   under load, answers get wider confidence intervals before any
//!   request is turned away.
//! - **Tenants are isolated.** Stores, WALs, budgets, gates, and
//!   counters are per tenant; a tenant that exhausts its queue, burns
//!   its budget, or eats a worker panic cannot slow or corrupt another.
//! - **Drain loses nothing acked.** Ingest acks are sent only after
//!   WAL durability, and drain stops admissions, finishes in-flight
//!   work, then snapshots — so a kill at *any* point preserves every
//!   acknowledged ingest.
//!
//! This crate is the only place in the workspace allowed to touch
//! sockets (`cargo run -p xtask -- lint`, rule `socket-io`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod protocol;
pub mod server;
pub mod tenant;

pub use admission::{Admission, Gate, Permit};
pub use client::Client;
pub use protocol::{Answer, ErrorCode, Request, Response, TenantSnapshot};
pub use server::{DrainReport, Server, ServerConfig};
pub use tenant::{TenantRegistry, TenantState};
