//! Cross-instance metric-closure reuse: the topology-keyed [`ClosureBank`].
//!
//! A `SolveContext` shares the routed all-pairs work across *solvers* on
//! one instance; consecutive suite cases, parameter sweeps that hold the
//! network fixed, and repeated experiment runs still rebuilt identical
//! closures from scratch because each case owns its own context. The bank
//! closes that gap: materialized shortest-path trees are deposited under a
//! key derived from the **network fingerprint × cost model × payload set**,
//! and any later instance with the same key checks them back out as cheap
//! `Arc` clones.
//!
//! The key is deliberately strict — [`elpc_netsim::Network::fingerprint`]
//! covers every node power and every link's bandwidth/MLD bit pattern, so a
//! perturbed edge misses the bank instead of serving stale trees. Payload
//! sets are part of the key so an entry always contains exactly the trees
//! its pipeline's boundaries query (seeding is still shape-checked on
//! import). Correctness never depends on the bank: a miss just means a cold
//! closure, and checked-out trees are bit-identical to freshly built ones
//! (the bank-identity test pins this).
//!
//! The bank is `Send + Sync` (one mutex around the store, atomic
//! statistics) so a parallel sweep can share a single bank across workers.

use elpc_mapping::delta::repair_trees;
use elpc_mapping::{
    CachedTree, CostModel, Instance, MetricClosure, NetworkDelta, RepairReport, SolveContext,
};
use elpc_netsim::Network;
use elpc_pipeline::Pipeline;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bank access statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BankStats {
    /// Checkouts that found a banked closure for the key.
    pub hits: u64,
    /// Checkouts that found nothing (cold context handed out).
    pub misses: u64,
    /// Deposits that stored or enriched an entry.
    pub deposits: u64,
    /// In-place repairs ([`ClosureBank::update_in_place`]) that migrated an
    /// entry to a perturbed topology's key. Not checkouts: `hits + misses`
    /// still equals the number of [`ClosureBank::context_for`] calls.
    pub repairs: u64,
    /// Bytes of the banked trees
    /// ([`ShortestPaths::bytes`](elpc_netgraph::algo::ShortestPaths::bytes)
    /// summed over every entry): 12 per node per tree. A counter kept as
    /// entries are deposited, enriched, repaired and evicted; not a scan.
    pub tree_bytes: u64,
}

impl BankStats {
    /// Fraction of checkouts served from the bank (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The bank key of an instance: FNV-1a over the network fingerprint, the
/// cost-model fingerprint ([`CostModel::fingerprint`] — exhaustive over
/// the model's fields by construction), and the sorted distinct payload
/// sizes of the pipeline's stage boundaries (`f64` bit patterns).
pub fn bank_key(inst: &Instance<'_>, cost: &CostModel) -> u64 {
    bank_key_of(inst.network.fingerprint(), inst.pipeline, cost)
}

/// [`bank_key`] from a network fingerprint already at hand
/// ([`elpc_netsim::Network::fingerprint`]), so a caller that holds one
/// never hashes the network again.
pub fn bank_key_of(network_fingerprint: u64, pipeline: &Pipeline, cost: &CostModel) -> u64 {
    let mut h = elpc_netgraph::fnv::Fnv1a::new();
    h.write_u64(network_fingerprint);
    h.write_u64(cost.fingerprint());
    let n = pipeline.len();
    let mut payloads: Vec<u64> = (1..n).map(|j| pipeline.input_bytes(j).to_bits()).collect();
    payloads.sort_unstable();
    payloads.dedup();
    h.write_usize(payloads.len());
    for p in payloads {
        h.write_u64(p);
    }
    h.finish()
}

/// A network as a bank entry holds it: shared, and fingerprinted once, so
/// its key under any pipeline and cost model costs no second hash.
#[derive(Debug, Clone)]
pub struct BankedNetwork {
    network: Arc<Network>,
    fingerprint: u64,
}

impl BankedNetwork {
    /// Shares `network`, fingerprinting it once.
    pub fn new(network: Arc<Network>) -> Self {
        let fingerprint = network.fingerprint();
        BankedNetwork {
            network,
            fingerprint,
        }
    }

    /// The network.
    pub fn network(&self) -> &Arc<Network> {
        &self.network
    }

    /// The [`bank_key`] of an instance of this network.
    pub fn key(&self, pipeline: &Pipeline, cost: &CostModel) -> u64 {
        bank_key_of(self.fingerprint, pipeline, cost)
    }
}

/// One banked closure, and the network its trees were built over once a
/// caller has handed it in ([`ClosureBank::keep_network`]); the two are
/// evicted together.
struct BankEntry {
    trees: Arc<Vec<CachedTree>>,
    network: Option<BankedNetwork>,
}

/// Bytes of a closure's trees.
fn tree_bytes(trees: &[CachedTree]) -> u64 {
    trees.iter().map(|t| t.tree.bytes() as u64).sum()
}

/// Closure store plus FIFO eviction order, behind one mutex. Entries are
/// added and removed only through [`BankStore::put`] and
/// [`BankStore::take`], which keep `tree_bytes` exact.
#[derive(Default)]
struct BankStore {
    entries: HashMap<u64, BankEntry>,
    /// Keys in first-deposit order; front is evicted first once the
    /// capacity is reached. Re-deposits of an existing key keep its slot.
    order: std::collections::VecDeque<u64>,
    /// [`tree_bytes`] summed over `entries`.
    tree_bytes: u64,
}

impl BankStore {
    /// Evicts oldest-deposited keys until a new key fits in `capacity`.
    fn make_room(&mut self, capacity: usize) {
        while self.order.len() >= capacity {
            if let Some(evicted) = self.order.pop_front() {
                self.take(evicted);
            }
        }
    }

    /// Banks `trees` under `key`: a new entry holding no network, or new
    /// trees for an existing entry, which keeps its network. Eviction
    /// order is the caller's.
    fn put(&mut self, key: u64, trees: Arc<Vec<CachedTree>>) {
        let network = self.take(key).and_then(|old| old.network);
        self.tree_bytes += tree_bytes(&trees);
        self.entries.insert(key, BankEntry { trees, network });
    }

    /// Removes the entry under `key`; its eviction slot is the caller's.
    fn take(&mut self, key: u64) -> Option<BankEntry> {
        let entry = self.entries.remove(&key)?;
        self.tree_bytes -= tree_bytes(&entry.trees);
        Some(entry)
    }
}

/// A topology-keyed cross-instance cache of materialized metric-closure
/// entries. Checkout seeds a fresh context from the bank; deposit saves a
/// solved context's trees back for the next instance with the same key.
///
/// Capacity-bounded: once `capacity` distinct keys are on deposit, the
/// oldest-deposited key is evicted to make room (first-in, first-out —
/// sweeps revisit topologies in waves, so deposit age tracks usefulness
/// well enough without per-hit bookkeeping). An evicted topology simply
/// solves cold again and re-deposits.
///
/// An entry can also hold the network its trees were built over, as a
/// shared [`BankedNetwork`], so a caller that only knows a key can get the
/// network back ([`ClosureBank::network`]). A network is evicted with its
/// trees, and dropped by the in-place repair that moves its trees to a
/// perturbed key.
pub struct ClosureBank {
    store: Mutex<BankStore>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    deposits: AtomicU64,
    repairs: AtomicU64,
}

impl Default for ClosureBank {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl ClosureBank {
    /// Default number of distinct topologies kept on deposit. Each banked
    /// closure holds all materialized all-pairs trees of one instance, so
    /// the cap bounds memory on sweeps over many distinct networks.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// An empty bank with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty bank evicting beyond `capacity` keys (min 1).
    ///
    /// Eviction is **first-in, first-out on first deposit**: once
    /// `capacity` distinct keys are on deposit, the next *new* key evicts
    /// the oldest-deposited one. Re-depositing an existing key (even with a
    /// richer closure) keeps its original eviction slot, and an evicted
    /// topology simply solves cold and re-deposits at the back of the
    /// queue.
    ///
    /// ```
    /// use elpc_mapping::solver;
    /// use elpc_workloads::{ClosureBank, InstanceSpec};
    /// let cost = elpc_mapping::CostModel::default();
    /// let spec = InstanceSpec::sized(4, 8, 14);
    /// let bank = ClosureBank::with_capacity(2);
    /// // deposit three distinct topologies into a 2-slot bank
    /// let instances: Vec<_> = (0..3).map(|s| spec.generate(s).unwrap()).collect();
    /// for inst in &instances {
    ///     let ctx = bank.context_for(inst.as_instance(), cost, 1);
    ///     solver("elpc_delay_routed").unwrap().solve(&ctx).unwrap();
    ///     bank.deposit(&ctx);
    /// }
    /// assert_eq!(bank.len(), 2);
    /// // the oldest deposit (seed 0) was evicted; the youngest two remain
    /// let cold = bank.context_for(instances[0].as_instance(), cost, 1);
    /// assert_eq!(cold.closure().cached_trees(), 0);
    /// let warm = bank.context_for(instances[2].as_instance(), cost, 1);
    /// assert!(warm.closure().cached_trees() > 0);
    /// ```
    pub fn with_capacity(capacity: usize) -> Self {
        ClosureBank {
            store: Mutex::new(BankStore::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            deposits: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
        }
    }

    /// The eviction threshold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A context for `inst`, seeded from the bank when a closure for the
    /// instance's topology/cost/payload key is on deposit (a hit), cold
    /// otherwise (a miss). `threads` configures the context's parallel
    /// warm-up exactly as [`SolveContext::with_threads`] does.
    ///
    /// # Examples
    ///
    /// Checkout → solve → deposit; the next instance with the same
    /// topology/cost/payload key starts with every tree already built:
    ///
    /// ```
    /// use elpc_mapping::solver;
    /// use elpc_workloads::{ClosureBank, InstanceSpec};
    /// let cost = elpc_mapping::CostModel::default();
    /// let inst = InstanceSpec::sized(5, 10, 20).generate(7).unwrap();
    /// let bank = ClosureBank::new();
    ///
    /// let ctx = bank.context_for(inst.as_instance(), cost, 1); // miss
    /// solver("elpc_delay_routed").unwrap().solve(&ctx).unwrap();
    /// bank.deposit(&ctx);
    ///
    /// let warm = bank.context_for(inst.as_instance(), cost, 1); // hit
    /// let stats = bank.stats();
    /// assert_eq!((stats.hits, stats.misses), (1, 1));
    /// assert!(warm.closure().cached_trees() > 0);
    /// // the warm solve never runs a Dijkstra
    /// solver("elpc_delay_routed").unwrap().solve(&warm).unwrap();
    /// assert_eq!(warm.closure().stats().misses, 0);
    /// ```
    pub fn context_for<'a>(
        &self,
        inst: Instance<'a>,
        cost: CostModel,
        threads: usize,
    ) -> SolveContext<'a> {
        self.context_for_key(bank_key(&inst, &cost), inst, cost, threads)
    }

    /// [`ClosureBank::context_for`] with the instance's [`bank_key`]
    /// already computed by the caller.
    pub fn context_for_key<'a>(
        &self,
        key: u64,
        inst: Instance<'a>,
        cost: CostModel,
        threads: usize,
    ) -> SolveContext<'a> {
        let ctx = SolveContext::with_threads(inst, cost, threads);
        let banked = self
            .store
            .lock()
            .entries
            .get(&key)
            .map(|e| Arc::clone(&e.trees));
        match banked {
            Some(entries) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                ctx.closure().seed(&entries);
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        ctx
    }

    /// Deposits `ctx`'s materialized trees under its instance key. Keeps
    /// whichever entry holds more trees, so a richer closure (more solvers
    /// ran against it) is never replaced by a poorer one; a first deposit
    /// beyond the capacity evicts the oldest-deposited key.
    pub fn deposit(&self, ctx: &SolveContext<'_>) {
        self.deposit_keyed(bank_key(ctx.instance(), ctx.cost()), ctx);
    }

    /// [`ClosureBank::deposit`] with the instance's [`bank_key`] already
    /// computed by the caller.
    pub fn deposit_keyed(&self, key: u64, ctx: &SolveContext<'_>) {
        let exported = ctx.closure().export();
        if exported.is_empty() {
            return;
        }
        let mut guard = self.store.lock();
        let store = &mut *guard;
        match store.entries.get(&key) {
            Some(old) if old.trees.len() >= exported.len() => return,
            // enrich in place; the key keeps its eviction slot
            Some(_) => {}
            None => {
                store.make_room(self.capacity);
                store.order.push_back(key);
            }
        }
        store.put(key, Arc::new(exported));
        self.deposits.fetch_add(1, Ordering::Relaxed);
    }

    /// Has the entry banked under `key` hold `net`, the network its trees
    /// were built over, unless it holds one already. Returns whether the
    /// bank now holds a network under `key`; false when nothing is banked
    /// there. A probe like [`ClosureBank::contains_key`]: no statistics
    /// move. `key` must be `net`'s key under the entry's pipeline and cost
    /// model.
    pub fn keep_network(&self, key: u64, net: &BankedNetwork) -> bool {
        match self.store.lock().entries.get_mut(&key) {
            Some(entry) => {
                entry.network.get_or_insert_with(|| net.clone());
                true
            }
            None => false,
        }
    }

    /// True when a closure is on deposit under `key` (see [`bank_key`]).
    ///
    /// A *probe*, not a checkout: it touches no statistics, so
    /// `hits + misses` still equals the number of [`ClosureBank::context_for`]
    /// calls. The serving layer's request coalescer uses it to decide
    /// whether a request can check out immediately or must elect a builder
    /// for the key first.
    pub fn contains_key(&self, key: u64) -> bool {
        self.store.lock().entries.contains_key(&key)
    }

    /// The network held under `key` ([`ClosureBank::keep_network`]), if
    /// any. A probe like [`ClosureBank::contains_key`]: no statistics move.
    pub fn network(&self, key: u64) -> Option<BankedNetwork> {
        self.store
            .lock()
            .entries
            .get(&key)
            .and_then(|e| e.network.clone())
    }

    /// Repairs the entry banked under `old_key` into the key of `inst` ×
    /// `cost` — a perturbed topology becomes a bank *hit-with-repair*
    /// instead of the guaranteed miss the strict fingerprint key would
    /// force. The entry's trees are run through the churn invalidation rule
    /// ([`elpc_mapping::delta`]): untouched trees migrate as shared `Arc`s,
    /// stale trees are repaired on `threads` workers, and the repaired
    /// entry is stored under the new key **in the old key's eviction slot**
    /// (the topology aged as one resident; its identity moved, not its
    /// tenure). A network the old entry held is dropped: it is the
    /// pre-perturbation network.
    ///
    /// The repair is in place: the entry is taken *out* of the store first,
    /// so a tree no live context holds is rewritten in its own buffers, and
    /// one a context still holds is copied before it is repaired — nothing
    /// is mutated under a reader. While the repair runs, `old_key` is
    /// absent: a racing checkout of it misses and starts cold.
    ///
    /// Returns the repair accounting (`rebuilt` counts the trees repaired),
    /// or `None` when nothing is banked under `old_key` (the caller falls
    /// back to a cold solve). `delta` must be the [`NetworkDelta`] from the
    /// old entry's network to `inst.network` — the caller vouches for that
    /// pairing exactly as it vouches for `old_key`. Not a checkout and not
    /// a deposit: only the `repairs` statistic moves, so `hits + misses`
    /// still equals the number of [`ClosureBank::context_for`] calls and a
    /// subsequent checkout of the new key counts its own hit.
    pub fn update_in_place(
        &self,
        old_key: u64,
        inst: Instance<'_>,
        cost: CostModel,
        delta: &NetworkDelta,
        threads: usize,
    ) -> Option<RepairReport> {
        self.update_in_place_keyed(old_key, bank_key(&inst, &cost), inst, cost, delta, threads)
    }

    /// [`ClosureBank::update_in_place`] with the perturbed instance's key
    /// computed by the caller: `new_key` must be `bank_key(&inst, &cost)`.
    pub fn update_in_place_keyed(
        &self,
        old_key: u64,
        new_key: u64,
        inst: Instance<'_>,
        cost: CostModel,
        delta: &NetworkDelta,
        threads: usize,
    ) -> Option<RepairReport> {
        let mut trees = {
            let mut store = self.store.lock();
            if new_key == old_key {
                // value-identical topology (empty delta): nothing to migrate
                let total = store.entries.get(&old_key)?.trees.len();
                drop(store);
                self.repairs.fetch_add(1, Ordering::Relaxed);
                return Some(RepairReport {
                    total,
                    kept: total,
                    rebuilt: 0,
                });
            }
            // take the entry out; its eviction slot stays in `order`
            store.take(old_key)?.trees
        };
        // repair outside the lock; the Vec is copied only if a checkout
        // still holds it
        let report = repair_trees(
            &MetricClosure::new(inst.network, cost),
            Arc::make_mut(&mut trees),
            delta,
            threads,
        );

        let mut guard = self.store.lock();
        let store = &mut *guard;
        let slot = store.order.iter().position(|&k| k == old_key);
        match store.entries.get(&new_key) {
            // the new key is somehow already banked: richer-wins, and the
            // old key's slot simply retires
            Some(existing) => {
                if let Some(i) = slot {
                    store.order.remove(i);
                }
                if existing.trees.len() < trees.len() {
                    store.put(new_key, trees);
                }
            }
            None => {
                match slot {
                    Some(i) => store.order[i] = new_key,
                    // the old entry was evicted while we repaired: the
                    // repaired closure is still valid, bank it as new
                    None => {
                        store.make_room(self.capacity);
                        store.order.push_back(new_key);
                    }
                }
                store.put(new_key, trees);
            }
        }
        drop(guard);
        self.repairs.fetch_add(1, Ordering::Relaxed);
        Some(report)
    }

    /// Access statistics so far.
    pub fn stats(&self) -> BankStats {
        BankStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            deposits: self.deposits.load(Ordering::Relaxed),
            repairs: self.repairs.load(Ordering::Relaxed),
            tree_bytes: self.store.lock().tree_bytes,
        }
    }

    /// Number of banked closures (distinct keys).
    pub fn len(&self) -> usize {
        self.store.lock().entries.len()
    }

    /// True when nothing is on deposit.
    pub fn is_empty(&self) -> bool {
        self.store.lock().entries.is_empty()
    }

    /// Drops every banked closure (statistics are kept).
    pub fn clear(&self) {
        let mut store = self.store.lock();
        store.entries.clear();
        store.order.clear();
        store.tree_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InstanceSpec;
    use elpc_mapping::solver;
    use elpc_netgraph::EdgeId;
    use elpc_netsim::Link;

    fn cost() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn same_topology_hits_perturbed_topology_misses() {
        let spec = InstanceSpec::sized(5, 10, 20);
        let a = spec.generate(3).unwrap();
        let b = spec.generate(3).unwrap(); // identical draw
        let bank = ClosureBank::new();

        let ctx = bank.context_for(a.as_instance(), cost(), 1);
        solver("elpc_delay_routed").unwrap().solve(&ctx).unwrap();
        bank.deposit(&ctx);
        assert_eq!(bank.len(), 1);
        assert_eq!(bank.stats().deposits, 1);

        // contains_key is a probe: true for the deposited key, and no
        // statistics move
        let stats_before = bank.stats();
        assert!(bank.contains_key(bank_key(&a.as_instance(), &cost())));
        assert!(!bank.contains_key(0xDEAD_BEEF));
        assert_eq!(bank.stats(), stats_before);

        // identical network + pipeline → hit, and the closure starts warm
        let warm = bank.context_for(b.as_instance(), cost(), 1);
        assert_eq!(bank.stats().hits, 1);
        assert!(warm.closure().cached_trees() > 0);

        // perturb one link bandwidth → fingerprint guard forces a miss
        let mut c = spec.generate(3).unwrap();
        let old = c.network.link(EdgeId(0)).unwrap().clone();
        c.network
            .set_link_symmetric(EdgeId(0), Link::new(old.bw_mbps * 1.001, old.mld_ms))
            .unwrap();
        let cold = bank.context_for(c.as_instance(), cost(), 1);
        assert_eq!(cold.closure().cached_trees(), 0);
        // a different cost model also misses
        bank.context_for(b.as_instance(), CostModel { include_mld: false }, 1);
        assert_eq!(bank.stats().misses, 3);
    }

    #[test]
    fn banked_solve_is_bit_identical_to_cold_solve() {
        let spec = InstanceSpec::sized(6, 12, 30);
        let owned = spec.generate(11).unwrap();
        let bank = ClosureBank::new();
        let s = solver("elpc_delay_routed").unwrap();

        let cold = s
            .solve(&bank.context_for(owned.as_instance(), cost(), 1))
            .unwrap();
        // redo with a deposited closure
        let ctx = bank.context_for(owned.as_instance(), cost(), 1);
        s.solve(&ctx).unwrap();
        bank.deposit(&ctx);
        let warm_ctx = bank.context_for(owned.as_instance(), cost(), 1);
        let warm = s.solve(&warm_ctx).unwrap();
        assert_eq!(cold.objective_ms.to_bits(), warm.objective_ms.to_bits());
        assert_eq!(cold.assignment, warm.assignment);
        // the warm solve never ran a Dijkstra
        assert_eq!(warm_ctx.closure().stats().misses, 0);
    }

    #[test]
    fn capacity_evicts_oldest_deposit_first() {
        let spec = InstanceSpec::sized(4, 8, 14);
        let instances: Vec<_> = (0..3).map(|s| spec.generate(s).unwrap()).collect();
        let bank = ClosureBank::with_capacity(2);
        assert_eq!(bank.capacity(), 2);
        for inst in &instances {
            let ctx = bank.context_for(inst.as_instance(), cost(), 1);
            solver("elpc_delay_routed").unwrap().solve(&ctx).unwrap();
            bank.deposit(&ctx);
        }
        assert_eq!(bank.len(), 2, "third deposit must evict one");
        // the oldest (seed 0) is gone; the two youngest survive
        let c0 = bank.context_for(instances[0].as_instance(), cost(), 1);
        assert_eq!(c0.closure().cached_trees(), 0, "seed 0 was evicted");
        for inst in &instances[1..] {
            let c = bank.context_for(inst.as_instance(), cost(), 1);
            assert!(c.closure().cached_trees() > 0);
        }
        // an evicted topology re-deposits cleanly (evicting the next oldest)
        solver("elpc_delay_routed").unwrap().solve(&c0).unwrap();
        bank.deposit(&c0);
        assert_eq!(bank.len(), 2);
        assert!(
            bank.context_for(instances[0].as_instance(), cost(), 1)
                .closure()
                .cached_trees()
                > 0
        );
    }

    /// The re-deposit-after-eviction path, pinned at capacity 1: a new key
    /// evicts the only resident, the evicted topology checks out cold
    /// (miss), and its re-deposit cleanly evicts the usurper in turn —
    /// each eviction registers at the *back* of the FIFO queue, so the
    /// cycle never corrupts the order bookkeeping.
    #[test]
    fn capacity_one_evict_miss_redeposit_cycle() {
        let spec = InstanceSpec::sized(4, 8, 14);
        let a = spec.generate(0).unwrap();
        let b = spec.generate(1).unwrap();
        let bank = ClosureBank::with_capacity(1);
        let s = solver("elpc_delay_routed").unwrap();
        let bytes_of = |ctx: &SolveContext<'_>| {
            ctx.closure().cached_trees() as u64 * 12 * a.network.node_count() as u64
        };

        // deposit A (miss), then B (miss) — B's first deposit evicts A
        let ctx_a = bank.context_for(a.as_instance(), cost(), 1);
        s.solve(&ctx_a).unwrap();
        bank.deposit(&ctx_a);
        assert_eq!(bank.len(), 1);
        let ctx_b = bank.context_for(b.as_instance(), cost(), 1);
        s.solve(&ctx_b).unwrap();
        bank.deposit(&ctx_b);
        assert_eq!(bank.len(), 1, "capacity 1 keeps exactly one key");

        // A was evicted: its checkout is a miss and starts cold
        let cold_a = bank.context_for(a.as_instance(), cost(), 1);
        assert_eq!(cold_a.closure().cached_trees(), 0, "A must start cold");
        assert_eq!(
            bank.stats(),
            BankStats {
                hits: 0,
                misses: 3,
                deposits: 2,
                repairs: 0,
                tree_bytes: bytes_of(&ctx_b),
            }
        );

        // re-deposit A: it evicts B and is immediately checkable-out again
        s.solve(&cold_a).unwrap();
        bank.deposit(&cold_a);
        assert_eq!(bank.len(), 1);
        assert_eq!(bank.stats().deposits, 3);
        let warm_a = bank.context_for(a.as_instance(), cost(), 1);
        assert!(warm_a.closure().cached_trees() > 0, "A is banked again");
        assert_eq!(bank.stats().hits, 1);
        // the re-deposited trees are the very Arcs A's solve built
        let solved = s.solve(&warm_a).unwrap();
        assert_eq!(
            warm_a.closure().stats().misses,
            0,
            "warm solve, no Dijkstra"
        );
        let reference = s
            .solve(&SolveContext::new(a.as_instance(), cost()))
            .unwrap();
        assert_eq!(
            solved.objective_ms.to_bits(),
            reference.objective_ms.to_bits()
        );
        // ... and B, evicted by the cycle, misses once more
        let cold_b = bank.context_for(b.as_instance(), cost(), 1);
        assert_eq!(cold_b.closure().cached_trees(), 0, "B was evicted in turn");
        assert_eq!(
            bank.stats(),
            BankStats {
                hits: 1,
                misses: 4,
                deposits: 3,
                repairs: 0,
                tree_bytes: bytes_of(&cold_a),
            }
        );
    }

    #[test]
    fn update_in_place_turns_a_perturbation_into_a_hit_with_repair() {
        let spec = InstanceSpec::sized(5, 12, 26);
        let base = spec.generate(21).unwrap();
        let bank = ClosureBank::new();
        let s = solver("elpc_delay_routed").unwrap();

        // bank the base topology
        let ctx = bank.context_for(base.as_instance(), cost(), 1);
        s.solve(&ctx).unwrap();
        bank.deposit(&ctx);
        let old_key = bank_key(&base.as_instance(), &cost());

        // perturb two links; the strict key would miss
        let mut pert = base.clone();
        for id in [EdgeId(0), EdgeId(4)] {
            let old = pert.network.link(id).unwrap().clone();
            pert.network
                .set_link_symmetric(id, Link::new(old.bw_mbps * 0.5, old.mld_ms))
                .unwrap();
        }
        let new_key = bank_key(&pert.as_instance(), &cost());
        assert_ne!(old_key, new_key);
        assert!(!bank.contains_key(new_key));

        let delta = NetworkDelta::between(&base.network, &pert.network).unwrap();
        let report = bank
            .update_in_place(old_key, pert.as_instance(), cost(), &delta, 1)
            .expect("old key is banked");
        assert_eq!(report.kept + report.rebuilt, report.total);
        assert!(report.total > 0);

        // the entry moved: new key banked, old key retired, same slot count
        assert!(bank.contains_key(new_key));
        assert!(!bank.contains_key(old_key));
        assert_eq!(bank.len(), 1);
        let stats = bank.stats();
        assert_eq!((stats.hits, stats.misses, stats.repairs), (0, 1, 1));

        // checking out the repaired entry is a plain hit, and the solve is
        // bit-identical to a cold solve of the perturbed instance
        let warm = bank.context_for(pert.as_instance(), cost(), 1);
        assert_eq!(bank.stats().hits, 1);
        let warm_sol = s.solve(&warm).unwrap();
        let cold_sol = s
            .solve(&SolveContext::new(pert.as_instance(), cost()))
            .unwrap();
        assert_eq!(warm_sol.assignment, cold_sol.assignment);
        assert_eq!(
            warm_sol.objective_ms.to_bits(),
            cold_sol.objective_ms.to_bits()
        );

        // repairing an unbanked key reports None and changes nothing
        assert!(bank
            .update_in_place(0xDEAD_BEEF, pert.as_instance(), cost(), &delta, 1)
            .is_none());
        assert_eq!(bank.stats().repairs, 1);
    }

    /// A uniquely owned entry is repaired in its own buffers: every tree,
    /// stale ones included, keeps its allocation. A tree a live context
    /// still holds is copied instead, and the context keeps the old bits.
    #[test]
    fn update_in_place_repairs_unshared_trees_without_reallocating() {
        let spec = InstanceSpec::sized(5, 40, 90);
        let base = spec.generate(9).unwrap();
        let bank = ClosureBank::new();
        let sources: Vec<elpc_mapping::NodeId> = base.network.node_ids().collect();
        let payloads: Vec<f64> = (1..base.pipeline.len())
            .map(|j| base.pipeline.input_bytes(j))
            .collect();
        let ctx = bank.context_for(base.as_instance(), cost(), 1);
        ctx.closure().par_warm(&sources, &payloads, 1);
        bank.deposit(&ctx);
        drop(ctx);
        let buffers = |inst: &crate::ProblemInstance| {
            let ctx = bank.context_for(inst.as_instance(), cost(), 1);
            let out: Vec<(elpc_mapping::TreeKey, usize, Vec<u64>)> = ctx
                .closure()
                .export()
                .iter()
                .map(|e| {
                    let bits = e.tree.dist.iter().map(|d| d.to_bits()).collect();
                    (e.key, e.tree.dist.as_ptr() as usize, bits)
                })
                .collect();
            out
        };
        let before = buffers(&base);

        // crash a relay: nearly every tree goes stale
        let relay = sources
            .iter()
            .copied()
            .find(|&v| v != base.src && v != base.dst)
            .unwrap();
        let mut crashed = base.clone();
        crashed.network.fail_node(relay).unwrap();
        let delta = NetworkDelta::between(&base.network, &crashed.network).unwrap();
        let report = bank
            .update_in_place(
                bank_key(&base.as_instance(), &cost()),
                crashed.as_instance(),
                cost(),
                &delta,
                1,
            )
            .unwrap();
        assert!(report.rebuilt > 0, "the crash makes trees stale");
        let after = buffers(&crashed);
        assert_eq!(after.len(), before.len());
        let mut moved = 0;
        for (b, a) in before.iter().zip(&after) {
            assert_eq!((b.0, b.1), (a.0, a.1), "same key, same buffer");
            moved += usize::from(b.2 != a.2);
        }
        assert!(moved > 0, "repaired trees changed in their own buffers");

        // a live context shares every tree: the repair back copies, and the
        // context still holds the crashed network's bits
        let held = bank.context_for(crashed.as_instance(), cost(), 1);
        let back = NetworkDelta::between(&crashed.network, &base.network).unwrap();
        bank.update_in_place(
            bank_key(&crashed.as_instance(), &cost()),
            base.as_instance(),
            cost(),
            &back,
            1,
        )
        .unwrap();
        let restored = buffers(&base);
        for ((b, a), r) in before.iter().zip(&after).zip(&restored) {
            assert_eq!(b.2, r.2, "the restore round-trips the bits");
            if a.2 != r.2 {
                assert_ne!(a.1, r.1, "a shared tree is copied before its repair");
            }
        }
        for (e, a) in held.closure().export().iter().zip(&after) {
            let bits: Vec<u64> = e.tree.dist.iter().map(|d| d.to_bits()).collect();
            assert_eq!(bits, a.2, "a held tree is never mutated");
        }
    }

    /// A network lives in its closure's entry once handed in: a repair to
    /// a perturbed key drops it, and eviction drops it with the trees.
    #[test]
    fn kept_networks_live_and_die_with_their_entries() {
        let spec = InstanceSpec::sized(5, 12, 26);
        let base = spec.generate(5).unwrap();
        let other = spec.generate(6).unwrap();
        let bank = ClosureBank::with_capacity(1);
        let s = solver("elpc_delay_routed").unwrap();
        let net = BankedNetwork::new(Arc::new(base.network.clone()));
        let key = net.key(&base.pipeline, &cost());
        assert_eq!(key, bank_key(&base.as_instance(), &cost()));
        assert!(!bank.keep_network(key, &net), "nothing is banked yet");

        let ctx = bank.context_for(base.as_instance(), cost(), 1);
        s.solve(&ctx).unwrap();
        bank.deposit(&ctx);
        assert!(bank.network(key).is_none(), "a deposit keeps no network");
        let stats = bank.stats();
        assert!(bank.keep_network(key, &net));
        let held = bank.network(key).expect("kept");
        assert!(
            Arc::ptr_eq(held.network(), net.network()),
            "shared, not copied"
        );
        assert_eq!(held.key(&base.pipeline, &cost()), key);
        assert_eq!(bank.stats(), stats, "keeping is not a checkout");

        // a repair moves the trees to the perturbed key, not the old network
        let mut pert = base.clone();
        let old = pert.network.link(EdgeId(2)).unwrap().clone();
        pert.network
            .set_link_symmetric(EdgeId(2), Link::new(old.bw_mbps * 0.5, old.mld_ms))
            .unwrap();
        let delta = NetworkDelta::between(&base.network, &pert.network).unwrap();
        let new_key = bank_key(&pert.as_instance(), &cost());
        bank.update_in_place_keyed(key, new_key, pert.as_instance(), cost(), &delta, 1)
            .expect("old key is banked");
        assert!(bank.network(key).is_none() && !bank.contains_key(key));
        assert!(bank.contains_key(new_key) && bank.network(new_key).is_none());
        let pert_net = BankedNetwork::new(Arc::new(delta.apply(held.network()).unwrap()));
        assert_eq!(pert_net.key(&pert.pipeline, &cost()), new_key);
        assert!(bank.keep_network(new_key, &pert_net));

        // a second topology evicts the entry, network and all
        let ctx = bank.context_for(other.as_instance(), cost(), 1);
        s.solve(&ctx).unwrap();
        bank.deposit(&ctx);
        assert!(bank.network(new_key).is_none());
        assert!(!bank.keep_network(new_key, &pert_net));
    }

    /// `tree_bytes` is 12 bytes per node per banked tree through every
    /// way an entry changes: deposit, enrichment, repair, eviction, clear.
    #[test]
    fn tree_bytes_counts_the_trees_on_deposit() {
        let spec = InstanceSpec::sized(5, 12, 26);
        let (a, b) = (spec.generate(1).unwrap(), spec.generate(2).unwrap());
        let per_tree = 12 * a.network.node_count() as u64;
        let bank = ClosureBank::with_capacity(1);
        let s = solver("elpc_delay_routed").unwrap();
        let held = || bank.stats().tree_bytes;
        assert_eq!(held(), 0);

        // a one-tree deposit, then an enrichment
        let poor = SolveContext::new(a.as_instance(), cost());
        poor.routed_from(a.src, 1e4);
        bank.deposit(&poor);
        assert_eq!(held(), per_tree);
        let rich = bank.context_for(a.as_instance(), cost(), 1);
        s.solve(&rich).unwrap();
        bank.deposit(&rich);
        let trees = rich.closure().cached_trees() as u64;
        assert!(trees > 1);
        assert_eq!(held(), trees * per_tree);

        // a repair moves the same trees to the perturbed key
        let mut pert = a.clone();
        let old = pert.network.link(EdgeId(0)).unwrap().clone();
        pert.network
            .set_link_symmetric(EdgeId(0), Link::new(old.bw_mbps * 0.5, old.mld_ms))
            .unwrap();
        let delta = NetworkDelta::between(&a.network, &pert.network).unwrap();
        bank.update_in_place(
            bank_key(&a.as_instance(), &cost()),
            pert.as_instance(),
            cost(),
            &delta,
            1,
        )
        .unwrap();
        assert_eq!(held(), trees * per_tree);

        // a second topology evicts the entry; clearing empties the bank
        let other = bank.context_for(b.as_instance(), cost(), 1);
        s.solve(&other).unwrap();
        bank.deposit(&other);
        assert_eq!(held(), other.closure().cached_trees() as u64 * per_tree);
        bank.clear();
        assert_eq!(held(), 0);
    }

    #[test]
    fn richer_deposits_replace_poorer_ones_only() {
        let spec = InstanceSpec::sized(5, 8, 16);
        let owned = spec.generate(1).unwrap();
        let bank = ClosureBank::new();
        let rich = bank.context_for(owned.as_instance(), cost(), 1);
        solver("elpc_delay_routed").unwrap().solve(&rich).unwrap();
        bank.deposit(&rich);
        let rich_count = rich.closure().cached_trees();

        // a sparser context (one tree) must not clobber the banked closure
        let poor = SolveContext::new(owned.as_instance(), cost());
        poor.routed_from(owned.src, 1e4);
        bank.deposit(&poor);
        let again = bank.context_for(owned.as_instance(), cost(), 1);
        assert_eq!(again.closure().cached_trees(), rich_count);

        bank.clear();
        assert!(bank.is_empty());
        // empty contexts deposit nothing
        bank.deposit(&SolveContext::new(owned.as_instance(), cost()));
        assert!(bank.is_empty());
    }
}
