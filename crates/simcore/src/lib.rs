//! # elpc-simcore — discrete-event execution of mapped pipelines
//!
//! The paper evaluates its mappings purely with the analytic cost model
//! (Eq. 1/2); the real system behind those models was the remote
//! visualization pipeline of reference \[13\], which we do not have. This
//! crate is the substitution: a deterministic discrete-event simulator
//! that *executes* a mapped pipeline frame by frame and measures
//! what actually happens, so the analytic objectives can be validated
//! end-to-end (experiment V1):
//!
//! * a single injected dataset's completion time must equal Eq. 1's
//!   end-to-end delay;
//! * the steady-state departure rate of a saturated stream must equal
//!   Eq. 2's `1 / bottleneck` when every stage owns its resources;
//! * when several module groups share a physical node (the §5 "frame rate
//!   with node reuse" extension), the shared node serializes their work and
//!   the achievable rate degrades to `1 / Σ(stage times on that node)` —
//!   the quantity the extension optimizes.
//!
//! ## Model
//!
//! A mapping's stage list (from [`elpc_mapping::CostModel::stage_times`])
//! becomes a chain of FIFO *resources*: each compute stage occupies its
//! physical node, each transfer stage occupies its physical (directed)
//! link. Frames are injected at the source on a configurable schedule and
//! flow through the chain; every resource serves one frame at a time in
//! arrival order. Service times are the analytic stage times — the
//! simulator adds *queueing*, which is exactly the phenomenon Eq. 2
//! abstracts into "the bottleneck".
//!
//! The [`engine`] module (event queue, FIFO resources) is independent of
//! pipelines and reusable as a general DES substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
mod executor;
mod report;

pub use executor::{simulate, simulate_assignment, Workload};
pub use report::SimReport;

/// Result alias matching the mapping crate's error type (simulation reuses
/// its validation).
pub type Result<T> = std::result::Result<T, elpc_mapping::MappingError>;
