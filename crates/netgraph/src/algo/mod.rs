//! Graph algorithms used by the pipeline-mapping stack.
//!
//! Everything here is deterministic and allocation-conscious; the ELPC
//! dynamic programs call these routines inside experiment sweeps over
//! thousands of instances.

mod bfs;
mod dijkstra;
mod paths;

pub use bfs::{hop_distances, hop_distances_rev, is_connected, reachable_count};
pub use dijkstra::{dijkstra, extract_path, ShortestPaths};
pub use paths::{
    all_simple_paths_exact_nodes, count_simple_paths_exact_nodes, for_each_simple_path_exact_nodes,
    PathVisit,
};
