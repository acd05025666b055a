//! # elpc-netgraph — graph substrate for the ELPC reproduction
//!
//! The IPDPS 2008 paper maps computing pipelines onto *arbitrary* network
//! topologies, so every algorithm in the stack sits on top of a directed
//! weighted graph. This crate provides that substrate from scratch:
//!
//! * [`Graph`] — an adjacency-list directed multigraph generic over node and
//!   edge payloads, with helpers for the undirected (symmetric-link) networks
//!   the paper uses.
//! * [`algo`] — breadth-first hop distances, Dijkstra shortest paths, and
//!   exact-hop simple-path enumeration. The last of these is the exact
//!   counterpart of the paper's NP-complete
//!   "exact n-hop widest path" problem (§3.1.2) and is used to measure the
//!   ELPC-rate heuristic's optimality gap.
//! * [`csr`] — flat compressed-sparse-row snapshots of a built graph plus
//!   cache-friendly SSSP kernels with reusable scratch, bit-identical to
//!   the [`algo`] kernels. This is what multi-source (metric-closure)
//!   workloads run on past a few hundred nodes.
//! * [`gen`] — seeded topology generators covering the "essentially
//!   arbitrary" networks of §4.1: random connected, Waxman geometric,
//!   ring-with-chords, complete, line, and star graphs, plus the
//!   scale-free (Barabási–Albert) and small-world (Watts–Strogatz)
//!   families that the 10⁴-node scaling experiments draw from.
//! * [`dot`] — Graphviz DOT export used by the Fig. 3 / Fig. 4 path
//!   illustrations.
//!
//! ## Invariants enforced by this crate's tests
//!
//! * Every generated topology is connected (spanning-tree patching).
//! * `add_undirected_edge` always creates a forward/reverse pair whose ids
//!   differ by exactly one, so either direction can be recovered in O(1).
//! * BFS hop distances lower-bound every simple path length, which the
//!   exact-hop enumerator relies on for pruning.
//! * Dijkstra results agree with exhaustive enumeration on small graphs
//!   (property-tested).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod csr;
pub mod dot;
pub mod error;
pub mod fnv;
pub mod gen;
mod graph;
mod ids;

pub use error::GraphError;
pub use graph::{Edge, Graph, Neighbor};
pub use ids::{EdgeId, NodeId};

/// Convenient result alias for graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;
