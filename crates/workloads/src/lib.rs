//! # elpc-workloads — experiment instances and runners
//!
//! Everything §4.1 of the paper describes generating, plus the machinery to
//! run the three algorithms over it:
//!
//! * [`InstanceSpec`] / [`ProblemInstance`] — seeded random (pipeline,
//!   network, endpoints) instances with the paper's parameter ranges;
//! * [`cases`] — the 20-case suite behind Fig. 2/5/6 (the published table's
//!   exact random draws are unrecoverable from the scanned PDF, so the
//!   suite is a seeded geometric progression anchored at the paper's worked
//!   5-module/6-node small case);
//! * [`compare`] — runs every algorithm in the `elpc_mapping::registry`
//!   on one instance through a shared `SolveContext` (one metric-closure
//!   computation per instance, not per solver), producing the row shape of
//!   Fig. 2 plus a generic any-solver runner;
//! * [`sweep`] — a crossbeam-based parallel map that keeps experiment
//!   wall-time reasonable on large suites (each worker gets its own
//!   per-instance context, so results are thread-count-invariant);
//! * [`bank`] — the [`ClosureBank`], a topology-keyed (network fingerprint
//!   × cost model × payload set) cross-instance cache of metric-closure
//!   trees, so consecutive cases sharing a network skip the all-pairs
//!   Dijkstra work entirely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod cases;
pub mod compare;
mod instance;
pub mod sweep;

pub use bank::{BankStats, BankedNetwork, ClosureBank};
pub use instance::{InstanceSpec, ProblemInstance, TopologyKind};

/// Result alias shared with the mapping crate.
pub type Result<T> = std::result::Result<T, elpc_mapping::MappingError>;
