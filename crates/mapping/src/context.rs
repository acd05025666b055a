//! Shared solver state: the thread-safe sharded routed metric closure.
//!
//! Every routed-semantics algorithm in this crate — the routed-overlay ELPC
//! DPs, Streamline's free placement, the routed evaluators, and the
//! local-search polish — needs the same quantity over and over: *the
//! cheapest multi-hop transfer time of `m` bytes from node `u` to every
//! other node*, i.e. one Dijkstra run over the §2.2 edge cost
//! `m/b (+ d)`. [`MetricClosure`] memoizes those runs per
//! `(payload size, source node)` for a fixed network and cost model;
//! [`SolveContext`] bundles a closure with a problem [`Instance`] and is the
//! single argument every registered [`crate::Solver`] receives.
//!
//! ## Concurrency model
//!
//! The closure is `Send + Sync`. Entries live in a small fixed array of
//! [`parking_lot::RwLock`]-guarded hash-map **shards** (selected by a hash
//! of the `(payload, source)` key), so concurrent readers never contend
//! with each other and concurrent writers rarely contend at all: a solve
//! running on one thread, a parallel sweep hammering the same closure from
//! many threads, and a background warm-up all observe one coherent cache.
//! Dijkstra itself runs *outside* any lock; when two threads race to build
//! the same tree the first insert wins and both receive the same `Arc`
//! (the trees are bit-identical either way — Dijkstra is deterministic per
//! key). Statistics are atomic counters, so `hits + misses` always equals
//! the number of [`MetricClosure::routed_from`] queries, even under
//! contention.
//!
//! ## One kernel, two schedules
//!
//! Every tree is built by one private builder on a flat [`Csr`] snapshot
//! of the adjacency (built once per closure), with the §2.2 edge cost
//! resolved once per payload into a memoized slot-aligned vector, and an
//! [`SsspScratch`] heap. [`MetricClosure::routed_from`] calls it lazily,
//! one tree per missing query. The per-source trees are embarrassingly
//! parallel — no tree depends on any other — so
//! [`MetricClosure::par_warm`] calls it for a whole `sources × payloads`
//! block through [`crate::par::for_each_with`], the one work-pulling loop
//! the delta repair, the portfolio race and the experiment sweeps share,
//! each worker recycling its own scratch. The routed DPs call
//! [`SolveContext::warm_routed_dp`] on entry, which turns a serial cold
//! solve into a parallel-warm one when the context was built with
//! [`SolveContext::with_threads`]; with `threads == 1` the solvers keep
//! their lazy, minimal-work behavior. The thread count only picks *when*
//! and *on how many workers* trees are built, never *how*, so results are
//! bit-for-bit identical at any thread count.
//!
//! ## Cross-instance reuse
//!
//! [`MetricClosure::export`] / [`MetricClosure::seed`] move materialized
//! trees (cheap `Arc` clones) between closures over the *same* network and
//! cost model — the mechanism behind `elpc_workloads::ClosureBank`, the
//! topology-keyed cache that lets consecutive sweep cases sharing a network
//! skip the all-pairs work entirely.
//!
//! The closure is keyed by the exact payload byte count (`f64` bit
//! pattern): the §2.2 edge cost is `bytes·8/b + d`, so route choice
//! genuinely depends on the payload size, and consecutive pipeline stages
//! usually reuse only a handful of distinct sizes. Entries store the full
//! [`ShortestPaths`] (distances *and* entering edges), so routed paths
//! can be reconstructed without a new traversal.

use crate::{CostModel, Instance, MappingError, Result};
use elpc_netgraph::algo::ShortestPaths;
use elpc_netgraph::csr::{Csr, SsspScratch};
use elpc_netgraph::NodeId;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of lock shards. A small power of two: enough to make write
/// contention negligible at realistic thread counts, small enough that
/// iterating all shards (stats, export) stays trivial.
const SHARD_COUNT: usize = 16;

/// Cache key of one shortest-path tree: the payload's `f64` bit pattern and
/// the source node index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TreeKey {
    /// `bytes.to_bits()` of the payload size.
    pub payload_bits: u64,
    /// Source node index.
    pub source: u32,
}

impl TreeKey {
    /// The key for a `(source, payload)` query.
    pub fn new(src: NodeId, bytes: f64) -> Self {
        TreeKey {
            payload_bits: bytes.to_bits(),
            source: src.index() as u32,
        }
    }

    /// The payload size in bytes.
    pub fn payload(&self) -> f64 {
        f64::from_bits(self.payload_bits)
    }

    /// The source node.
    pub fn source_node(&self) -> NodeId {
        NodeId::from_index(self.source as usize)
    }
}

/// One materialized cache entry, as exported by [`MetricClosure::export`]
/// and re-imported by [`MetricClosure::seed`] (the unit the cross-instance
/// `ClosureBank` stores).
#[derive(Debug, Clone)]
pub struct CachedTree {
    /// The `(payload, source)` key.
    pub key: TreeKey,
    /// The shared shortest-path tree.
    pub tree: Arc<ShortestPaths>,
}

/// Cache statistics, for tests and perf reports.
///
/// **Invariant:** every [`MetricClosure::routed_from`] query counts exactly
/// one hit or one miss — `hits + misses` always equals the number of
/// queries made so far, even under concurrent access (the counters are
/// atomic and racing builders each record their own miss). Seeding via
/// [`MetricClosure::seed`] and probing via [`MetricClosure::contains`] are
/// *not* queries and leave the statistics untouched.
///
/// ```
/// use elpc_mapping::{CostModel, MetricClosure, NodeId};
/// # let mut b = elpc_netsim::Network::builder();
/// # let a = b.add_node(100.0).unwrap();
/// # let c = b.add_node(100.0).unwrap();
/// # b.add_link(a, c, 100.0, 0.5).unwrap();
/// # let network = b.build().unwrap();
/// let closure = MetricClosure::new(&network, CostModel::default());
/// let queries = 5u64;
/// for _ in 0..queries {
///     closure.routed_from(NodeId(0), 1e6); // 1 miss, then 4 hits
/// }
/// let stats = closure.stats();
/// assert_eq!(stats.hits + stats.misses, queries);
/// assert_eq!(stats.misses, 1);
/// assert!(closure.contains(NodeId(0), 1e6)); // not a query
/// assert_eq!(closure.stats().hits + closure.stats().misses, queries);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClosureStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that ran a fresh Dijkstra.
    pub misses: u64,
}

impl ClosureStats {
    /// Fraction of queries served from cache (0 when nothing was queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type ShardMap = HashMap<TreeKey, Arc<ShortestPaths>>;

/// Shard index of a key: an FNV-1a mix over both key halves, so payloads
/// and sources spread independently.
fn shard_of(key: &TreeKey) -> usize {
    let mut h = elpc_netgraph::fnv::Fnv1a::new();
    h.write_u64(key.payload_bits).write_u64(key.source as u64);
    (h.finish() >> 32) as usize & (SHARD_COUNT - 1)
}

/// Lazily materialized routed metric closure of a network under one cost
/// model: per payload size, per source node, the single-source shortest
/// transfer-time tree. `Send + Sync`; see the module docs for the
/// concurrency model.
pub struct MetricClosure<'a> {
    net: &'a elpc_netsim::Network,
    cost: CostModel,
    shards: [RwLock<ShardMap>; SHARD_COUNT],
    hits: AtomicU64,
    misses: AtomicU64,
    /// Flat CSR snapshot of the network's adjacency, built on the first
    /// tree build and shared by every build thereafter (the network behind
    /// a closure is immutable, so the snapshot never goes stale).
    csr: OnceLock<Csr>,
    /// Slot-aligned §2.2 edge-cost vectors keyed by payload bits, filled
    /// on the first build at each payload.
    costs: RwLock<HashMap<u64, Arc<[f64]>>>,
}

impl<'a> MetricClosure<'a> {
    /// An empty closure over `net` under `cost`.
    pub fn new(net: &'a elpc_netsim::Network, cost: CostModel) -> Self {
        MetricClosure {
            net,
            cost,
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            csr: OnceLock::new(),
            costs: RwLock::new(HashMap::new()),
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &'a elpc_netsim::Network {
        self.net
    }

    /// The cost model the closure is computed under.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The routed shortest-path tree from `src` for a payload of `bytes`:
    /// `tree.dist[v]` is the cheapest multi-hop transfer time (ms), and
    /// `tree.entering(v)` names the route's last edge, from whose tail the
    /// rest of the route follows. Cached after the first query.
    ///
    /// The result is identical (bit for bit) to calling
    /// [`elpc_netgraph::algo::dijkstra`] with the §2.2 edge cost directly —
    /// the cache-correctness property test pins this. Counts exactly one
    /// hit or one miss per call (a miss when this call ran Dijkstra, even
    /// if a racing thread's identical tree won the insert).
    pub fn routed_from(&self, src: NodeId, bytes: f64) -> Arc<ShortestPaths> {
        self.materialize(TreeKey::new(src, bytes), &mut SsspScratch::new())
    }

    /// The one place a tree is built. A hit when `key` is already
    /// materialized; otherwise one miss and one CSR Dijkstra run outside
    /// any lock, and the first insert wins (racing builders produce
    /// bit-identical trees, so the loser's copy is simply dropped).
    fn materialize(&self, key: TreeKey, scratch: &mut SsspScratch) -> Arc<ShortestPaths> {
        let shard = &self.shards[shard_of(&key)];
        if let Some(tree) = shard.read().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(tree);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let costs = self.costs_for(key.payload_bits);
        let tree = Arc::new(scratch.shortest_paths(self.csr(), key.source_node(), &costs));
        Arc::clone(shard.write().entry(key).or_insert(tree))
    }

    /// True when the `(src, bytes)` tree is already materialized. Does not
    /// count as a query.
    pub fn contains(&self, src: NodeId, bytes: f64) -> bool {
        let key = TreeKey::new(src, bytes);
        self.shards[shard_of(&key)].read().contains_key(&key)
    }

    /// The flat CSR snapshot of the network's adjacency, built on first
    /// use. Slot order matches [`elpc_netgraph::Graph::neighbors`] order,
    /// which is what makes the CSR kernel bit-identical to
    /// [`elpc_netgraph::algo::dijkstra`].
    pub(crate) fn csr(&self) -> &Csr {
        self.csr.get_or_init(|| Csr::from_graph(self.net.graph()))
    }

    /// The slot-aligned §2.2 edge costs of one payload, resolved on first
    /// use and memoized; racing fills compute identical vectors and the
    /// first insert wins.
    pub(crate) fn costs_for(&self, payload_bits: u64) -> Arc<[f64]> {
        if let Some(costs) = self.costs.read().get(&payload_bits) {
            return Arc::clone(costs);
        }
        let bytes = f64::from_bits(payload_bits);
        let costs: Arc<[f64]> = self
            .csr()
            .cost_vector(|eid| self.cost.edge_transfer_ms(self.net, eid, bytes))
            .into();
        Arc::clone(self.costs.write().entry(payload_bits).or_insert(costs))
    }

    /// Builds every missing `(source, payload)` tree of the cross product
    /// on `threads` worker threads (`0` = all CPUs, `1` = inline serial).
    /// Returns the number of trees this call set out to build.
    ///
    /// Each worker runs the same builder as [`MetricClosure::routed_from`]
    /// on its own [`SsspScratch`], recycling the heap across its sources;
    /// only the schedule differs. Every tree is an independent Dijkstra
    /// run, so neither the build order, the thread count, nor which call
    /// materialized an entry can affect its contents: `par_warm(s, p, 1)`,
    /// `par_warm(s, p, 0)`, and lazy queries leave bit-for-bit identical
    /// caches (property-tested in `tests/csr_equivalence.rs`). Every build
    /// counts as one miss (and a key a racing builder already inserted as
    /// a hit), keeping `hits + misses == queries` exact.
    ///
    /// # Examples
    ///
    /// ```
    /// use elpc_mapping::{CostModel, MetricClosure, NodeId};
    /// # let mut b = elpc_netsim::Network::builder();
    /// # let s = b.add_node(100.0).unwrap();
    /// # let m = b.add_node(100.0).unwrap();
    /// # let d = b.add_node(100.0).unwrap();
    /// # b.add_link(s, m, 100.0, 0.5).unwrap();
    /// # b.add_link(m, d, 100.0, 0.5).unwrap();
    /// # let network = b.build().unwrap();
    /// let closure = MetricClosure::new(&network, CostModel::default());
    /// let sources: Vec<NodeId> = network.node_ids().collect();
    /// // 3 sources × 2 payloads on all CPUs
    /// let built = closure.par_warm(&sources, &[1e5, 1e6], 0);
    /// assert_eq!(built, 6);
    /// assert_eq!(closure.cached_trees(), 6);
    /// // idempotent: everything is already materialized
    /// assert_eq!(closure.par_warm(&sources, &[1e5, 1e6], 1), 0);
    /// ```
    pub fn par_warm(&self, sources: &[NodeId], payloads: &[f64], threads: usize) -> usize {
        let mut seen = std::collections::HashSet::new();
        let work: Vec<TreeKey> = payloads
            .iter()
            .flat_map(|&bytes| sources.iter().map(move |&src| TreeKey::new(src, bytes)))
            .filter(|key| seen.insert(*key) && !self.shards[shard_of(key)].read().contains_key(key))
            .collect();
        crate::par::for_each_with(&work, threads, SsspScratch::new, |scratch, &key| {
            self.materialize(key, scratch);
        });
        work.len()
    }

    /// Every materialized entry, sorted by key (deterministic order), as
    /// cheap `Arc` clones. The export half of the cross-instance reuse path.
    pub fn export(&self) -> Vec<CachedTree> {
        let mut out: Vec<CachedTree> = Vec::with_capacity(self.cached_trees());
        for shard in &self.shards {
            for (key, tree) in shard.read().iter() {
                out.push(CachedTree {
                    key: *key,
                    tree: Arc::clone(tree),
                });
            }
        }
        out.sort_by_key(|e| e.key);
        out
    }

    /// Imports previously exported entries (same network, same cost model —
    /// the caller keys on that; `ClosureBank` uses a structural
    /// fingerprint). Entries whose tree does not match this network's node
    /// count are rejected; existing entries are kept. Returns the number of
    /// entries inserted. Seeding is not a query: stats are untouched.
    ///
    /// Entries are grouped by shard first, so each shard's write lock is
    /// taken once per call, not once per tree; within a shard they are
    /// inserted in the order given.
    pub fn seed(&self, entries: &[CachedTree]) -> usize {
        let k = self.net.node_count();
        let mut by_shard: [Vec<&CachedTree>; SHARD_COUNT] = Default::default();
        for e in entries {
            if e.tree.dist.len() == k && (e.key.source as usize) < k {
                by_shard[shard_of(&e.key)].push(e);
            }
        }
        let mut inserted = 0;
        for (shard, group) in self.shards.iter().zip(&by_shard) {
            if group.is_empty() {
                continue;
            }
            let mut shard = shard.write();
            shard.reserve(group.len());
            for e in group {
                if let std::collections::hash_map::Entry::Vacant(v) = shard.entry(e.key) {
                    v.insert(Arc::clone(&e.tree));
                    inserted += 1;
                }
            }
        }
        inserted
    }

    /// Minimum routed transport time of `bytes` from `a` to `b` (ms), zero
    /// when `a == b`, [`MappingError::Infeasible`] when no route exists.
    pub fn routed_transfer_ms(&self, a: NodeId, b: NodeId, bytes: f64) -> Result<f64> {
        if a == b {
            return Ok(0.0);
        }
        let tree = self.routed_from(a, bytes);
        let d = tree.dist[b.index()];
        if d.is_finite() {
            Ok(d)
        } else {
            Err(MappingError::Infeasible(format!(
                "no route from {a} to {b} in the network"
            )))
        }
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> ClosureStats {
        ClosureStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of materialized `(payload, source)` trees.
    pub fn cached_trees(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }
}

/// Everything a registered solver needs to run: the problem instance, the
/// cost model, and the shared metric closure (held behind an [`Arc`], so
/// the cache can also be shared across contexts and threads). Build one per
/// instance and pass it to every algorithm being compared.
///
/// # Examples
///
/// ```
/// use elpc_mapping::{solver, CostModel, Instance, SolveContext};
/// # let mut b = elpc_netsim::Network::builder();
/// # let s = b.add_node(100.0).unwrap();
/// # let m = b.add_node(1000.0).unwrap();
/// # let d = b.add_node(100.0).unwrap();
/// # b.add_link(s, m, 100.0, 0.5).unwrap();
/// # b.add_link(m, d, 100.0, 0.5).unwrap();
/// # let network = b.build().unwrap();
/// # let pipeline = elpc_pipeline::Pipeline::from_stages(1e6, &[(2.0, 1e5)], 1.0).unwrap();
/// let inst = Instance::new(&network, &pipeline, s, d).unwrap();
/// // `new` is the lazy serial constructor; `with_threads(inst, cost, 0)`
/// // would additionally pre-build the routed DPs' transfer trees on all
/// // CPUs — results are identical either way
/// let ctx = SolveContext::new(inst, CostModel::default());
/// let a = solver("elpc_delay_routed").unwrap().solve(&ctx).unwrap();
/// let b = solver("streamline_delay").unwrap().solve(&ctx).unwrap();
/// // both solvers shared one metric closure: the second one hit the cache
/// assert!(ctx.closure().stats().hits > 0);
/// assert!(a.objective_ms <= b.objective_ms);
/// ```
#[derive(Clone)]
pub struct SolveContext<'a> {
    inst: Instance<'a>,
    closure: Arc<MetricClosure<'a>>,
    warm_threads: usize,
    /// Lazily built dense evaluation kernel (see [`crate::eval`]), shared
    /// across clones of this context so a compare row or portfolio slate
    /// snapshots the closure exactly once.
    kernel: Arc<std::sync::OnceLock<Arc<crate::eval::EvalKernel>>>,
}

impl<'a> SolveContext<'a> {
    /// A context for `inst` under `cost` with an empty closure cache and
    /// serial (lazy) tree builds — the minimal-work single-threaded
    /// configuration.
    pub fn new(inst: Instance<'a>, cost: CostModel) -> Self {
        Self::with_threads(inst, cost, 1)
    }

    /// A context whose routed solvers pre-build their transfer trees on
    /// `threads` worker threads (`0` = all CPUs, `1` = lazy serial).
    pub fn with_threads(inst: Instance<'a>, cost: CostModel, threads: usize) -> Self {
        SolveContext {
            inst,
            closure: Arc::new(MetricClosure::new(inst.network, cost)),
            warm_threads: threads,
            kernel: Arc::new(std::sync::OnceLock::new()),
        }
    }

    /// A context sharing an existing closure (same network required —
    /// checked by identity). The intra-process sharing path: several
    /// contexts over one network see one cache.
    pub fn from_shared(
        inst: Instance<'a>,
        closure: Arc<MetricClosure<'a>>,
        threads: usize,
    ) -> Result<Self> {
        if !std::ptr::eq(closure.network(), inst.network) {
            return Err(MappingError::BadConfig(
                "shared closure was built over a different network".into(),
            ));
        }
        Ok(SolveContext {
            inst,
            closure,
            warm_threads: threads,
            kernel: Arc::new(std::sync::OnceLock::new()),
        })
    }

    /// The problem instance.
    pub fn instance(&self) -> &Instance<'a> {
        &self.inst
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        self.closure.cost()
    }

    /// The transport network.
    pub fn network(&self) -> &'a elpc_netsim::Network {
        self.inst.network
    }

    /// The computing pipeline.
    pub fn pipeline(&self) -> &'a elpc_pipeline::Pipeline {
        self.inst.pipeline
    }

    /// The shared metric closure.
    pub fn closure(&self) -> &MetricClosure<'a> {
        &self.closure
    }

    /// The closure as a cloneable handle, for sharing across contexts or
    /// threads.
    pub fn closure_arc(&self) -> Arc<MetricClosure<'a>> {
        Arc::clone(&self.closure)
    }

    /// The configured warm-up thread count (`0` = all CPUs, `1` = lazy).
    pub fn warm_threads(&self) -> usize {
        self.warm_threads
    }

    /// Pre-builds the transfer trees the routed DPs consult: the first
    /// boundary's payload from the source, and every later boundary's
    /// payload from every node. Called by the routed solvers on entry; a
    /// no-op at `warm_threads == 1`, where the solvers' lazy queries build
    /// strictly the trees they touch. Returns the number of trees built.
    pub fn warm_routed_dp(&self) -> usize {
        if self.warm_threads == 1 {
            return 0;
        }
        let pipe = self.inst.pipeline;
        let n = pipe.len();
        if n < 2 {
            return 0;
        }
        let mut built =
            self.closure
                .par_warm(&[self.inst.src], &[pipe.input_bytes(1)], self.warm_threads);
        if n > 2 {
            let sources: Vec<NodeId> = self.network().node_ids().collect();
            let payloads: Vec<f64> = (2..n).map(|j| pipe.input_bytes(j)).collect();
            built += self
                .closure
                .par_warm(&sources, &payloads, self.warm_threads);
        }
        built
    }

    /// The dense evaluation kernel for this instance (see [`crate::eval`]),
    /// built on first use — through [`MetricClosure::par_warm`] on the
    /// context's warm-thread count — and memoized, so every local-search
    /// solver running on this context (or a clone of it) shares one
    /// snapshot. Contents are bit-identical at any thread count.
    pub fn eval_kernel(&self) -> Arc<crate::eval::EvalKernel> {
        Arc::clone(
            self.kernel
                .get_or_init(|| Arc::new(crate::eval::EvalKernel::build(self))),
        )
    }

    /// Shorthand for [`MetricClosure::routed_from`].
    pub fn routed_from(&self, src: NodeId, bytes: f64) -> Arc<ShortestPaths> {
        self.closure.routed_from(src, bytes)
    }

    /// Shorthand for [`MetricClosure::routed_transfer_ms`].
    pub fn routed_transfer_ms(&self, a: NodeId, b: NodeId, bytes: f64) -> Result<f64> {
        self.closure.routed_transfer_ms(a, b, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elpc_netgraph::algo::dijkstra;
    use elpc_netsim::Network;
    use elpc_pipeline::Pipeline;

    fn net3() -> Network {
        let mut b = Network::builder();
        let n0 = b.add_node(100.0).unwrap();
        let n1 = b.add_node(100.0).unwrap();
        let n2 = b.add_node(100.0).unwrap();
        b.add_link(n0, n1, 1000.0, 0.1).unwrap();
        b.add_link(n1, n2, 1000.0, 0.1).unwrap();
        b.add_link(n0, n2, 1.0, 0.1).unwrap();
        b.build().unwrap()
    }

    fn assert_send_sync<T: Send + Sync>(_: &T) {}

    #[test]
    fn closure_and_context_are_send_and_sync() {
        let net = net3();
        let mc = MetricClosure::new(&net, CostModel::default());
        assert_send_sync(&mc);
        let pipe = Pipeline::from_stages(1e5, &[(1.0, 1e4)], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let ctx = SolveContext::new(inst, CostModel::default());
        assert_send_sync(&ctx);
    }

    #[test]
    fn closure_caches_per_payload_and_source() {
        let net = net3();
        let mc = MetricClosure::new(&net, CostModel::default());
        let a = mc.routed_from(NodeId(0), 1e6);
        let b = mc.routed_from(NodeId(0), 1e6);
        assert!(
            Arc::ptr_eq(&a, &b),
            "same query must return the cached tree"
        );
        assert_eq!(mc.stats(), ClosureStats { hits: 1, misses: 1 });
        // different payload or source recomputes
        mc.routed_from(NodeId(0), 2e6);
        mc.routed_from(NodeId(1), 1e6);
        assert_eq!(mc.stats().misses, 3);
        assert_eq!(mc.cached_trees(), 3);
        assert!(mc.contains(NodeId(0), 2e6));
        assert!(!mc.contains(NodeId(2), 2e6));
    }

    #[test]
    fn closure_matches_fresh_dijkstra_bit_for_bit() {
        let net = net3();
        let cost = CostModel::default();
        let mc = MetricClosure::new(&net, cost);
        for bytes in [1.0, 1e4, 1e6] {
            for src in 0..3u32 {
                let cached = mc.routed_from(NodeId(src), bytes);
                let fresh = dijkstra(net.graph(), NodeId(src), |eid, _| {
                    cost.edge_transfer_ms(&net, eid, bytes)
                });
                for v in 0..3 {
                    assert_eq!(cached.dist[v].to_bits(), fresh.dist[v].to_bits());
                    assert_eq!(cached.prev[v], fresh.prev[v]);
                }
            }
        }
    }

    #[test]
    fn routed_transfer_prefers_multi_hop_over_slow_direct() {
        let net = net3();
        let mc = MetricClosure::new(&net, CostModel::default());
        // 1 MB over the direct 1 Mbps link = 8000 ms; via n1 = 16.2 ms
        let t = mc.routed_transfer_ms(NodeId(0), NodeId(2), 1e6).unwrap();
        assert!((t - 16.2).abs() < 1e-9, "got {t}");
        assert_eq!(
            mc.routed_transfer_ms(NodeId(1), NodeId(1), 1e9).unwrap(),
            0.0
        );
    }

    #[test]
    fn par_warm_builds_the_cross_product_once() {
        let net = net3();
        let mc = MetricClosure::new(&net, CostModel::default());
        let sources = [NodeId(0), NodeId(1), NodeId(2)];
        let built = mc.par_warm(&sources, &[1e4, 1e6], 2);
        assert_eq!(built, 6);
        assert_eq!(mc.cached_trees(), 6);
        // a second warm builds nothing
        assert_eq!(mc.par_warm(&sources, &[1e4, 1e6], 0), 0);
        // duplicate inputs are deduplicated
        let built = mc.par_warm(&[NodeId(0), NodeId(0)], &[5e5, 5e5], 4);
        assert_eq!(built, 1);
    }

    #[test]
    fn par_warm_thread_counts_agree_bit_for_bit() {
        let net = net3();
        let cost = CostModel::default();
        let serial = MetricClosure::new(&net, cost);
        let parallel = MetricClosure::new(&net, cost);
        let sources = [NodeId(0), NodeId(1), NodeId(2)];
        let payloads = [1.0, 1e4, 2.5e5, 1e6];
        serial.par_warm(&sources, &payloads, 1);
        parallel.par_warm(&sources, &payloads, 0);
        for &src in &sources {
            for &bytes in &payloads {
                let a = serial.routed_from(src, bytes);
                let b = parallel.routed_from(src, bytes);
                for v in 0..3 {
                    assert_eq!(a.dist[v].to_bits(), b.dist[v].to_bits());
                    assert_eq!(a.prev[v], b.prev[v]);
                }
            }
        }
    }

    #[test]
    fn export_seed_round_trips_trees_by_identity() {
        let net = net3();
        let cost = CostModel::default();
        let mc = MetricClosure::new(&net, cost);
        mc.par_warm(&[NodeId(0), NodeId(1)], &[1e4, 1e6], 1);
        let entries = mc.export();
        assert_eq!(entries.len(), 4);
        // deterministic order
        let again = mc.export();
        for (a, b) in entries.iter().zip(&again) {
            assert_eq!(a.key, b.key);
            assert!(Arc::ptr_eq(&a.tree, &b.tree));
        }
        let fresh = MetricClosure::new(&net, cost);
        assert_eq!(fresh.seed(&entries), 4);
        assert_eq!(fresh.cached_trees(), 4);
        // seeding is not a query and keeps existing entries
        assert_eq!(fresh.stats(), ClosureStats::default());
        assert_eq!(fresh.seed(&entries), 0);
        // a seeded query is a hit on the identical Arc
        let tree = fresh.routed_from(NodeId(0), 1e4);
        assert!(Arc::ptr_eq(&tree, &mc.routed_from(NodeId(0), 1e4)));
        assert_eq!(fresh.stats().hits, 1);
    }

    #[test]
    fn seed_rejects_foreign_shaped_trees() {
        let net = net3();
        let cost = CostModel::default();
        let mut b = Network::builder();
        let a = b.add_node(1.0).unwrap();
        let c = b.add_node(1.0).unwrap();
        b.add_link(a, c, 10.0, 0.1).unwrap();
        let net2 = b.build().unwrap();
        let mc2 = MetricClosure::new(&net2, cost);
        mc2.routed_from(a, 1e4);
        let mc = MetricClosure::new(&net, cost);
        assert_eq!(mc.seed(&mc2.export()), 0, "2-node trees must be rejected");
    }

    #[test]
    fn context_exposes_instance_and_closure() {
        let net = net3();
        let pipe = Pipeline::from_stages(1e5, &[(1.0, 1e4)], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let ctx = SolveContext::new(inst, CostModel::default());
        assert_eq!(ctx.pipeline().len(), 3);
        assert_eq!(ctx.network().node_count(), 3);
        assert_eq!(ctx.instance().src, NodeId(0));
        assert_eq!(ctx.warm_threads(), 1);
        ctx.routed_from(NodeId(0), 1e4);
        assert_eq!(ctx.closure().stats().misses, 1);
        // lazy contexts skip the DP warm-up entirely
        assert_eq!(ctx.warm_routed_dp(), 0);
    }

    #[test]
    fn parallel_context_prewarms_the_dp_trees() {
        let net = net3();
        let pipe = Pipeline::from_stages(1e5, &[(1.0, 1e4), (1.0, 1e3)], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let ctx = SolveContext::with_threads(inst, CostModel::default(), 2);
        // boundary 1 from src only, boundaries 2..n from all 3 nodes
        let built = ctx.warm_routed_dp();
        assert_eq!(built, 1 + 3 * 2);
        // idempotent
        assert_eq!(ctx.warm_routed_dp(), 0);
    }

    #[test]
    fn shared_closure_contexts_enforce_network_identity() {
        let net = net3();
        let pipe = Pipeline::from_stages(1e5, &[(1.0, 1e4)], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let ctx = SolveContext::new(inst, CostModel::default());
        ctx.routed_from(NodeId(1), 1e4);
        let shared = SolveContext::from_shared(inst, ctx.closure_arc(), 1).unwrap();
        assert_eq!(shared.closure().cached_trees(), 1);
        let other = net3();
        let inst2 = Instance::new(&other, &pipe, NodeId(0), NodeId(2)).unwrap();
        assert!(SolveContext::from_shared(inst2, ctx.closure_arc(), 1).is_err());
    }
}
