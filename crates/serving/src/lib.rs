//! # elpc-serving — mapping-as-a-service
//!
//! The ops layer over the solver library: a long-running daemon
//! (`elpc-serve`) that accepts solve/remap requests over a length-prefixed
//! protocol (JSON headers; an inline network travels as a binary section)
//! on a local Unix socket, multiplexes them onto a
//! work-pulling worker pool sharing one [`elpc_workloads::ClosureBank`],
//! and **coalesces** concurrent requests hitting the same topology
//! fingerprint × cost model so each all-pairs closure is built exactly
//! once per batch.
//!
//! * [`protocol`] — the wire format: framing, request/response types, and
//!   every typed error a server can answer with;
//! * [`server`] — the daemon core: acceptor, connection readers, the
//!   crossbeam-channel worker pool, the request coalescer, drain/shutdown;
//! * [`client`] — a small blocking client library (see its runnable
//!   example) used by the CLI subcommands and the tests;
//! * [`loadgen`] — an open-loop load generator (paced sends decoupled from
//!   completions) behind the `serving` and `faults` benches and the
//!   `elpc-serve loadgen` subcommand.
//!
//! A network the daemon already holds travels by key: [`Client`] sends a
//! request's bank key instead of its network once a reply on the same
//! connection has acknowledged that key, and sends the request inline
//! again if the daemon no longer holds it (see [`protocol`]). The
//! open-loop [`loadgen`] still pipelines inline frames on purpose: it does
//! not wait for replies, so it never has the acknowledgement a keyed
//! request relies on.
//!
//! Solver execution stays decoupled from the request lifecycle: workers
//! run the unchanged `elpc_mapping` registry against bank-seeded
//! [`elpc_mapping::SolveContext`]s, so a served solve is bit-identical to
//! calling the registry directly (the loopback suite pins this).
//!
//! See ARCHITECTURE.md § "Serving lifecycle" for the request lifecycle,
//! the coalescing rule, and drain semantics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod histogram;
mod keyset;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, RetryPolicy};
pub use loadgen::{LoadConfig, LoadReport};
pub use protocol::{
    BodyError, FrameError, KeyedRemapRequest, KeyedSolveRequest, RemapReply, RemapRequest, Request,
    RequestFrame, Response, ResponseFrame, ServeError, SolveErrorKind, SolveReply, SolveRequest,
    StatsReply,
};
pub use server::{Server, ServerConfig};
