//! Query-time resolution service over the live incremental session.
//!
//! The batch pipeline answers "prune the whole corpus"; this crate turns
//! the incremental session into a *service*: a `std::net` TCP server
//! that answers `RESOLVE <entity>` requests — each one a single
//! neighbourhood sweep, bit-identical to the incident slice of a full
//! run — while `INGEST` batches keep arriving on the same corpus.
//! No async runtime: a [`TcpListener`](std::net::TcpListener) accept
//! loop hands connections to a scoped-thread worker pool, and all
//! synchronisation is `std::sync` (the vendored shims have no Condvar).
//!
//! * [`protocol`] — the length-prefixed binary wire format (`RESOLVE`,
//!   `INGEST`, `STATS`, `SHUTDOWN`; f64 weights travel as raw bits so
//!   bit-identity survives the wire).
//! * [`service`] — [`ResolveService`]: the shared state machine. One
//!   mutex owns the [`IncrementalSession`] (and with it the answer cache
//!   and its invalidation); concurrent resolves go through *batched
//!   admission* (a leader drains the waiting queue, coalesces duplicate
//!   entities, and answers the whole batch at one corpus version).
//! * [`server`] — [`Server`]: listener + worker pool + clean shutdown.
//! * [`client`] — [`Client`]: a small blocking client used by the CLI,
//!   the bench harness and the consistency suites.
//!
//! The correctness contract is the session's: every answer equals what
//! [`IncrementalSession::resolve_entity`] returns at the answer's
//! stamped version, cache hit or miss, under any interleaving of
//! resolves and ingests (`tests/serve_consistency.rs`).
//!
//! [`IncrementalSession`]: minoan_metablocking::IncrementalSession
//! [`IncrementalSession::resolve_entity`]: minoan_metablocking::IncrementalSession::resolve_entity

#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod service;

pub use client::Client;
pub use protocol::{IngestReply, Request, ResolveReply, Response, StatsReply};
pub use server::Server;
pub use service::{IngestError, ResolveService};
