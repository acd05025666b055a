//! Cross-layer equivalence suite for the CSR snapshot fast path.
//!
//! The CSR Dijkstra kernel promises **bit-for-bit** identity with the
//! adjacency-list `algo::dijkstra` oracle — not approximate agreement: the
//! same `f64` bits in `dist` and the same `prev` parent/edge choices,
//! including on ties (the kernel reproduces `std::BinaryHeap`'s pop order
//! exactly; see `elpc_netgraph::csr` docs for the argument). That promise
//! is what makes every `MetricClosure` tree equal to the §2.2 Dijkstra it
//! memoizes, whichever schedule (`par_warm` or lazy `routed_from`) built it.
//!
//! Property-tested here at three layers:
//! 1. the raw kernel vs `algo::dijkstra` on random connected,
//!    disconnected, and generator (Barabási–Albert / Watts–Strogatz)
//!    topologies, with tie-heavy integer weights to exercise equal-key
//!    heap order;
//! 2. the closure cache: `par_warm` and per-source lazy queries must leave
//!    byte-identical caches;
//! 3. registry solvers on a cold context vs a pre-warmed shared context.

use elpc_mapping::{solver, CostModel, MetricClosure, NodeId, SolveContext};
use elpc_netgraph::csr::{dijkstra_csr, Csr};
use elpc_netgraph::gen::{self, Topology};
use elpc_netgraph::{algo, Graph};
use elpc_netsim::{Link, Network, Node};
use elpc_workloads::{InstanceSpec, TopologyKind};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Tie-heavy deterministic weights: a small integer lattice scaled to
/// fractional values, so distinct paths frequently collide on bit-equal
/// distances and the heap's equal-key pop order becomes observable.
fn lattice_weight(a: u32, b: u32) -> f64 {
    0.25 * (1 + (a * 31 + b * 17) % 7) as f64
}

fn connected_graph(n: usize, links: usize, seed: u64) -> Graph<(), f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let topo = gen::random_connected(n, links, &mut rng).expect("feasible budget");
    topo.into_graph(|_| (), lattice_weight)
}

/// Two random connected components with no edges between them — the
/// unreachable-node case (`dist = +inf`, `prev = None`) must round-trip
/// through the CSR path bit-for-bit too.
fn disconnected_graph(n1: usize, n2: usize, seed: u64) -> Graph<(), f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let t1 = gen::random_connected(n1, n1 - 1, &mut rng).expect("tree budget");
    let t2 = gen::random_connected(n2, n2 - 1, &mut rng).expect("tree budget");
    let mut g: Graph<(), f64> = Graph::new();
    for _ in 0..n1 + n2 {
        g.add_node(());
    }
    let off = n1 as u32;
    for e in t1.links() {
        g.add_edge(NodeId(e.0), NodeId(e.1), lattice_weight(e.0, e.1))
            .unwrap();
        g.add_edge(NodeId(e.1), NodeId(e.0), lattice_weight(e.0, e.1))
            .unwrap();
    }
    for e in t2.links() {
        g.add_edge(
            NodeId(e.0 + off),
            NodeId(e.1 + off),
            lattice_weight(e.0 + off, e.1 + off),
        )
        .unwrap();
        g.add_edge(
            NodeId(e.1 + off),
            NodeId(e.0 + off),
            lattice_weight(e.0 + off, e.1 + off),
        )
        .unwrap();
    }
    g
}

/// Asserts the CSR and legacy runs agree bit-for-bit from every source.
fn assert_sssp_identical(g: &Graph<(), f64>) {
    let csr = Csr::from_graph(g);
    let costs = csr.cost_vector(|eid| g.edge(eid).expect("live edge").payload);
    for src in g.node_ids() {
        let legacy = algo::dijkstra(g, src, |_, e| e.payload);
        let fast = dijkstra_csr(&csr, src, &costs);
        for v in 0..g.node_count() {
            assert_eq!(
                legacy.dist[v].to_bits(),
                fast.dist[v].to_bits(),
                "dist divergence src={src:?} v={v}"
            );
            assert_eq!(
                legacy.prev[v], fast.prev[v],
                "prev divergence src={src:?} v={v}"
            );
        }
    }
}

fn topo_params() -> impl Strategy<Value = (usize, usize, u64)> {
    (2usize..=14, any::<u64>()).prop_flat_map(|(n, seed)| {
        let min = n - 1;
        let max = Topology::max_links(n);
        (Just(n), min..=max, Just(seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_dijkstra_matches_legacy_on_random_topologies((n, links, seed) in topo_params()) {
        assert_sssp_identical(&connected_graph(n, links, seed));
    }

    #[test]
    fn csr_kernels_match_legacy_on_disconnected_graphs(
        (n1, n2, seed) in (2usize..=8, 2usize..=8, any::<u64>())
    ) {
        let g = disconnected_graph(n1, n2, seed);
        assert_sssp_identical(&g);
    }

    #[test]
    fn csr_kernels_match_legacy_on_generator_topologies(
        (n, attach, k, seed) in (6usize..=24, 1usize..=3, 1usize..=2, any::<u64>())
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let ba = gen::barabasi_albert(n, attach, &mut rng).expect("valid BA params");
        let g = ba.into_graph(|_| (), lattice_weight);
        assert_sssp_identical(&g);

        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA5A5);
        let ws = gen::watts_strogatz(n, 2 * k, 0.3, &mut rng).expect("valid WS params");
        let g = ws.into_graph(|_| (), lattice_weight);
        assert_sssp_identical(&g);
    }
}

/// A small BA network with the suite's §4.1 parameter ranges.
fn ba_network(n: usize, seed: u64) -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let topo = gen::barabasi_albert(n, 2, &mut rng).expect("valid BA params");
    let powers: Vec<f64> = (0..n)
        .map(|_| 50.0 + 4950.0 * ((seed >> 3) % 97) as f64 / 97.0)
        .collect();
    let mut wrng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(1));
    Network::from_topology(
        &topo,
        |i| Node::with_power(powers[i]),
        |_, _| {
            use rand::Rng;
            Link::new(wrng.gen_range(1.0..1000.0), wrng.gen_range(0.1..10.0))
        },
    )
    .expect("BA topologies materialize")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The closure invariant the whole reuse design hangs on: a batched
    /// `par_warm` and a per-source lazy walk leave *identical* caches, so
    /// which path materialized an entry can never be observed downstream.
    #[test]
    fn par_warm_and_lazy_queries_leave_identical_caches(
        (n, seed) in (4usize..=24, any::<u64>())
    ) {
        let net = ba_network(n, seed);
        let cost = CostModel::default();
        let payloads = [1e5, 1e6];

        let lazy = MetricClosure::new(&net, cost);
        for &bytes in &payloads {
            for s in net.node_ids() {
                lazy.routed_from(s, bytes);
            }
        }
        let sources: Vec<NodeId> = net.node_ids().collect();
        let a = lazy.export();
        // inline on the caller's thread, and on three work-pulling workers
        for threads in [1, 3] {
            let warm = MetricClosure::new(&net, cost);
            let built = warm.par_warm(&sources, &payloads, threads);
            prop_assert_eq!(built, n * payloads.len());

            let b = warm.export();
            prop_assert_eq!(a.len(), b.len());
            for (ea, eb) in a.iter().zip(&b) {
                prop_assert_eq!(ea.key, eb.key);
                for v in 0..n {
                    prop_assert_eq!(ea.tree.dist[v].to_bits(), eb.tree.dist[v].to_bits());
                    prop_assert_eq!(ea.tree.prev[v], eb.tree.prev[v]);
                }
            }
        }
    }

    /// Registry solvers see the same world whether the closure was warmed
    /// through the CSR batch path, filled lazily by their own queries, or
    /// snapshotted into the dense evaluation kernel before they ran.
    #[test]
    fn solvers_agree_on_cold_and_csr_warmed_contexts(seed in 0u64..2048) {
        let mut spec = InstanceSpec::sized(5, 12, 0);
        spec.topology = TopologyKind::ScaleFree { attach: 2 };
        let owned = spec.generate(seed).expect("BA instances generate");
        let inst = owned.as_instance();
        let cost = CostModel::default();

        let cold = SolveContext::new(inst, cost);

        let closure = MetricClosure::new(&owned.network, cost);
        let sources: Vec<NodeId> = owned.network.node_ids().collect();
        let payloads: Vec<f64> = (1..owned.pipeline.len())
            .map(|j| owned.pipeline.input_bytes(j))
            .collect();
        closure.par_warm(&sources, &payloads, 1);
        let warmed = SolveContext::from_shared(inst, Arc::new(closure), 1)
            .expect("closure shares the instance network");
        let kerneled = SolveContext::new(inst, cost);
        kerneled.eval_kernel();

        for name in [
            "elpc_delay",
            "elpc_rate",
            "streamline_delay",
            "streamline_rate",
            "greedy_delay",
            "elpc_delay_routed",
            "elpc_rate_routed",
        ] {
            let s = solver(name).expect("registered");
            let a = s.solve(&cold);
            for (label, ctx) in [("warmed", &warmed), ("kerneled", &kerneled)] {
                match (&a, s.solve(ctx)) {
                    (Ok(sa), Ok(sb)) => {
                        prop_assert_eq!(&sa.assignment, &sb.assignment, "{} {}", name, label);
                        prop_assert_eq!(
                            sa.objective_ms.to_bits(),
                            sb.objective_ms.to_bits(),
                            "{} {}", name, label
                        );
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => prop_assert!(false, "{name}: cold {a:?} vs {label} {b:?}"),
                }
            }
        }
    }
}
