//! # elpc-netsim — network resource model for the ELPC reproduction
//!
//! Models the *transport networks* of the paper (§2.2, §4.1): geographically
//! distributed computing nodes joined by communication links.
//!
//! * [`Node`] carries the paper's node attributes — `NodeID`, `NodeIP`,
//!   `ProcessingPower` (a normalized scalar `p`).
//! * [`Link`] carries the link attributes — `LinkID` (the graph edge id),
//!   `LinkBWInMbps` (bandwidth `b`) and `LinkDelayInMilliseconds` (minimum
//!   link delay `d`, MLD).
//! * [`Network`] wraps an [`elpc_netgraph::Graph`] of those payloads and
//!   provides the two primitive cost quantities of §2.2:
//!   `T_transport(m, L) = m/b + d` ([`Link::transfer_time_ms`]) and the
//!   per-node compute rate used in `T_computing = m·c / p`.
//! * [`measure`] simulates the active-probing estimator of Wu & Rao \[14\]:
//!   linear regression over (message size, transfer time) samples recovers
//!   `(b, d)` — the substitution for the paper's real WAN probes.
//! * [`dynamics`] models the time-varying resource availability that §5
//!   flags as future work; it drives the adaptive-remapping extension.
//! * [`faults`] injects *failures* on top: seeded, reproducible crash /
//!   cut / degrade schedules whose removals are cost-space sentinels
//!   (`bw = 0`, `power = 0`) rather than graph surgery, so edge ids stay
//!   stable for incremental closure repair.
//! * [`mod@format`] reads/writes a plain-text network description matching the
//!   paper's parameter tables, and serde/JSON works on all model types.
//!
//! ## Units
//!
//! Consistency matters more than any particular choice, so the whole stack
//! standardizes on the paper's reporting units:
//!
//! | quantity          | unit                       |
//! |-------------------|----------------------------|
//! | data size         | bytes                      |
//! | bandwidth         | Mbit/s (`LinkBWInMbps`)    |
//! | delay / time      | milliseconds               |
//! | processing power  | complexity·bytes per ms    |
//!
//! `transfer_time_ms(bytes) = bytes·8/1000/bw_mbps + mld_ms` (see
//! [`units`]). A node of power `p` finishes a module of complexity `c` on
//! `m` input bytes in `c·m/p` ms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamics;
pub mod error;
pub mod faults;
pub mod format;
pub mod measure;
mod model;
pub mod units;

pub use error::NetworkError;
pub use model::{Link, Network, NetworkBuilder, Node};

// Re-export the ids so downstream crates don't need a direct netgraph dep
// for casual use.
pub use elpc_netgraph::{EdgeId, NodeId};

/// Result alias for network-model operations.
pub type Result<T> = std::result::Result<T, NetworkError>;
