//! The in-place tree repair of `elpc_mapping::delta`, held to a cold build
//! where the other differential suites cannot reach:
//!
//! 1. **Exact ties.** Link MLDs come from the tie-heavy integer lattice of
//!    `csr_equivalence`, and one payload is zero bytes, so every path cost
//!    is an exact sum and distinct shortest paths collide all the time.
//!    Chained up/down/cut/restore and crash/restore deltas on random,
//!    disconnected, scale-free and small-world topologies must leave every
//!    repaired distance bit-identical to a cold build, and every
//!    predecessor tight (`dist[u] + w == dist[v]` on the edge it names) —
//!    under ties a predecessor may legitimately differ from the cold
//!    build's choice.
//! 2. **Thread counts.** The stale trees are split over workers; the
//!    export is identical at 1, 2, 3 and all CPUs.
//! 3. **Scale.** A 500-node crash → restore → cut chain on the shape of the
//!    served `churn` workload equals a cold build byte for byte.

use elpc_mapping::delta::repair_closure;
use elpc_mapping::{CachedTree, CostModel, EdgeId, MetricClosure, NetworkDelta, NodeId};
use elpc_netgraph::gen::{self, Topology};
use elpc_netsim::{Link, Network};
use elpc_workloads::{InstanceSpec, ProblemInstance};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Tie-heavy lattice (as in `csr_equivalence`): multiples of 0.25, exact
/// in binary, so sums of them never round.
fn lattice_weight(a: u32, b: u32) -> f64 {
    0.25 * (1 + (a * 31 + b * 17) % 7) as f64
}

/// Payloads of the tie-heavy suite: zero bytes prices a link at exactly
/// its MLD, and a megabyte adds a bandwidth term.
const TIE_PAYLOADS: [f64; 2] = [0.0, 1e6];

/// The lattice network over `topo`; disconnected topologies allowed.
fn lattice_network(topo: &Topology) -> Network {
    let mut b = Network::builder();
    for _ in 0..topo.node_count() {
        b.add_node(100.0).expect("positive power");
    }
    for &(x, y) in topo.links() {
        let bw = [125.0, 250.0, 500.0, 1000.0][((x + y) % 4) as usize];
        b.add_link(NodeId(x), NodeId(y), bw, lattice_weight(x, y))
            .expect("valid link");
    }
    b.build_unchecked()
}

/// Two random connected components with no link between them.
fn disconnected(n: usize, rng: &mut ChaCha8Rng) -> Topology {
    let n1 = n / 2;
    let t1 = gen::random_connected(n1, n1, rng).expect("tree-plus-one budget");
    let t2 = gen::random_connected(n - n1, n - n1, rng).expect("tree-plus-one budget");
    let off = n1 as u32;
    let links = t1
        .links()
        .iter()
        .copied()
        .chain(t2.links().iter().map(|&(a, b)| (a + off, b + off)));
    Topology::from_edges(n, links).expect("disjoint components")
}

fn topology(kind: usize, n: usize, seed: u64) -> Topology {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match kind {
        0 => {
            let links = rng.gen_range(n..=Topology::max_links(n).min(3 * n));
            gen::random_connected(n, links, &mut rng).expect("feasible budget")
        }
        1 => disconnected(n, &mut rng),
        2 => gen::barabasi_albert(n, 2, &mut rng).expect("attach < n"),
        _ => gen::watts_strogatz(n, 4, 0.2, &mut rng).expect("k < n"),
    }
}

fn warm(net: &Network, cost: CostModel, payloads: &[f64]) -> Vec<CachedTree> {
    let sources: Vec<NodeId> = net.node_ids().collect();
    let closure = MetricClosure::new(net, cost);
    closure.par_warm(&sources, payloads, 1);
    closure.export()
}

/// Failures currently in force, so a later step can restore them.
enum Down {
    Link(EdgeId, Link),
    Node(NodeId, f64, Vec<(EdgeId, Link)>),
}

/// One chained step: 1–3 moves among a lattice step up or down of a
/// link's bandwidth and MLD, a link cut, a node crash, or a restore of an
/// earlier failure.
fn step(net: &Network, down: &mut Vec<Down>, rng: &mut ChaCha8Rng) -> Network {
    let mut out = net.clone();
    for _ in 0..rng.gen_range(1..=3usize) {
        let id = EdgeId(2 * rng.gen_range(0..net.link_count()) as u32);
        let old = out.link(id).expect("valid link").clone();
        match rng.gen_range(0..6u32) {
            _ if old.is_failed() => {}
            0 | 1 => {
                let mld = (old.mld_ms - 0.25).max(0.25);
                out.set_link_symmetric(id, Link::new(old.bw_mbps * 2.0, mld))
                    .expect("same shape");
            }
            2 => {
                let next = Link::new(old.bw_mbps * 0.5, old.mld_ms + 0.25);
                out.set_link_symmetric(id, next).expect("same shape");
            }
            3 => {
                let old = out.fail_link_symmetric(id).expect("valid link");
                down.push(Down::Link(id, old));
            }
            4 => {
                let v = NodeId(rng.gen_range(0..net.node_count()) as u32);
                if !out.node_is_failed(v) {
                    let (power, links) = out.fail_node(v).expect("valid node");
                    down.push(Down::Node(v, power, links));
                }
            }
            _ if !down.is_empty() => match down.remove(rng.gen_range(0..down.len())) {
                Down::Link(id, old) => out.set_link_symmetric(id, old).expect("same shape"),
                Down::Node(v, power, links) => {
                    out.node_mut(v).expect("valid node").power = power;
                    for (e, link) in links {
                        out.set_link_symmetric(e, link).expect("same shape");
                    }
                }
            },
            _ => {}
        }
    }
    out
}

/// Repaired distances equal the cold build's bit for bit, and every
/// repaired predecessor is tight and leads back to the source.
fn assert_exact_and_tight(label: &str, net: &Network, cost: CostModel, a: &[CachedTree]) {
    let b = warm(net, cost, &TIE_PAYLOADS);
    assert_eq!(a.len(), b.len(), "{label}: tree counts differ");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.key, y.key, "{label}: key order differs");
        let (dist, prev) = (&x.tree.dist, &x.tree.prev);
        for v in 0..dist.len() {
            assert_eq!(
                dist[v].to_bits(),
                y.tree.dist[v].to_bits(),
                "{label}: distance of node {v} from {:?} differs from the cold build",
                x.key
            );
            let Some((u, e)) = prev[v] else {
                assert!(
                    v == x.key.source as usize || dist[v].is_infinite(),
                    "{label}: a reached node has no predecessor"
                );
                continue;
            };
            let edge = net.graph().edge(e).expect("valid edge");
            assert_eq!((edge.src, edge.dst.index()), (u, v), "{label}: edge ends");
            let w = cost.edge_transfer_ms(net, e, x.key.payload());
            assert_eq!(
                (dist[u.index()] + w).to_bits(),
                dist[v].to_bits(),
                "{label}: predecessor of node {v} is not tight"
            );
            // tight links with positive costs cannot cycle, but check the
            // walk home anyway
            let (mut at, mut hops) = (v, 0);
            while let Some((p, _)) = prev[at] {
                at = p.index();
                hops += 1;
                assert!(hops <= dist.len(), "{label}: predecessor cycle");
            }
            assert_eq!(
                at, x.key.source as usize,
                "{label}: walk ends at the source"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn tie_heavy_chained_repairs_keep_exact_distances_and_tight_predecessors(
        (kind, n, seed) in (0usize..4, 8usize..=24, any::<u64>())
    ) {
        let cost = CostModel::default();
        let mut net = lattice_network(&topology(kind, n, seed));
        let mut entries = warm(&net, cost, &TIE_PAYLOADS);
        let mut down = Vec::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7E);
        for s in 0..6 {
            let next = step(&net, &mut down, &mut rng);
            let delta = NetworkDelta::between(&net, &next).expect("same shape");
            let target = MetricClosure::new(&next, cost);
            let report = repair_closure(&target, &entries, &delta, 1);
            prop_assert_eq!(report.kept + report.rebuilt, entries.len());
            let repaired = target.export();
            assert_exact_and_tight(&format!("topology {kind} n={n} step {s}"), &next, cost, &repaired);
            entries = repaired;
            net = next;
        }
    }
}

fn assert_byte_identical(label: &str, a: &[CachedTree], b: &[CachedTree]) {
    assert_eq!(a.len(), b.len(), "{label}: tree counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.key, y.key, "{label}: key order differs");
        let bits = |t: &CachedTree| t.tree.dist.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(x), bits(y), "{label}: distances differ");
        assert_eq!(x.tree.prev, y.tree.prev, "{label}: predecessors differ");
    }
}

/// The served `churn` workload's network shape: 5 modules on 500 nodes
/// and 1 500 links.
fn churn_shaped(seed: u64) -> ProblemInstance {
    InstanceSpec::sized(5, 500, 1500)
        .generate(seed)
        .expect("spec generates")
}

fn payloads(inst: &ProblemInstance) -> Vec<f64> {
    (1..inst.pipeline.len())
        .map(|j| inst.pipeline.input_bytes(j))
        .collect()
}

#[test]
fn repair_is_thread_count_invariant() {
    let cost = CostModel::default();
    let inst = InstanceSpec::sized(4, 120, 300)
        .generate(0x7AB)
        .expect("spec generates");
    let entries = warm(&inst.network, cost, &payloads(&inst));
    // a crash reaches nearly every tree; add a cut and a cheaper link
    let mut next = inst.network.clone();
    next.fail_node(NodeId(7)).expect("valid node");
    next.fail_link_symmetric(EdgeId(40)).expect("valid link");
    let old = next.link(EdgeId(90)).expect("valid link").clone();
    next.set_link_symmetric(EdgeId(90), Link::new(old.bw_mbps * 4.0, old.mld_ms))
        .expect("same shape");
    let delta = NetworkDelta::between(&inst.network, &next).expect("same shape");

    let export_at = |threads: usize| {
        let target = MetricClosure::new(&next, cost);
        let report = repair_closure(&target, &entries, &delta, threads);
        (report, target.export())
    };
    let (serial_report, serial) = export_at(1);
    assert!(serial_report.rebuilt > 0, "the crash makes trees stale");
    for threads in [0, 2, 3] {
        let (report, parallel) = export_at(threads);
        assert_eq!(report, serial_report, "threads = {threads}");
        assert_byte_identical(&format!("threads = {threads}"), &parallel, &serial);
    }
    assert_byte_identical("vs cold", &serial, &warm(&next, cost, &payloads(&inst)));
}

#[test]
fn churn_shaped_crash_restore_cut_chain_equals_a_cold_build() {
    let cost = CostModel::default();
    let inst = churn_shaped(0xC4A5);
    let payloads = payloads(&inst);
    let base = inst.network.clone();
    let mut entries = warm(&base, cost, &payloads);
    let total = entries.len();

    // crash the busiest relay: the node most trees route through
    let mut through = vec![0usize; base.node_count()];
    for e in &entries {
        for (u, _) in e.tree.prev.iter().flatten() {
            through[u.index()] += 1;
        }
    }
    let relay = NodeId::from_index(
        (0..through.len())
            .max_by_key(|&v| through[v])
            .expect("nodes"),
    );
    let mut crashed = base.clone();
    crashed.fail_node(relay).expect("valid node");
    // then restore it, then cut the first tree's first link
    let restored = base.clone();
    let cut_edge = entries[0]
        .tree
        .prev
        .iter()
        .flatten()
        .map(|&(_, e)| EdgeId(e.0 & !1))
        .next()
        .expect("the first tree reaches some node");
    let mut cut = base.clone();
    cut.fail_link_symmetric(cut_edge).expect("valid link");

    let mut net = base;
    for (label, next) in [("crash", crashed), ("restore", restored), ("cut", cut)] {
        let delta = NetworkDelta::between(&net, &next).expect("same shape");
        let target = MetricClosure::new(&next, cost);
        let report = repair_closure(&target, &entries, &delta, 1);
        assert_eq!(report.kept + report.rebuilt, total, "{label}");
        assert!(report.rebuilt > 0, "{label}: the delta touches trees");
        let repaired = target.export();
        assert_byte_identical(label, &repaired, &warm(&next, cost, &payloads));
        entries = repaired;
        net = next;
    }
}
