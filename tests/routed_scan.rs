//! Differential suite for the routed delay DP's closure-row scan.
//!
//! `elpc_delay::solve_routed_ctx` offers each reached host's moves in one
//! guard-free pass over its closure row. The oracle below is the per-cell
//! loop that pass replaced: it skips a row's own root and every unreachable
//! cell explicitly. Both run the same column recurrence over the public
//! `SolveContext::routed_from`, so they must agree exactly — the
//! assignment, the objective's bits, and the closure's hit and miss counts
//! — on connected, disconnected, crashed-host, scale-free, small-world and
//! tie-heavy lattice networks, on cold, pre-warmed and seeded closures.

use elpc_mapping::{elpc_delay, CostModel, Instance, MetricClosure, NodeId, SolveContext};
use elpc_netgraph::gen;
use elpc_netsim::{Link, Network, Node};
use elpc_pipeline::gen::PipelineSpec;
use elpc_pipeline::Pipeline;
use elpc_workloads::{InstanceSpec, TopologyKind};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// The per-cell routed scan: stay values first, then for each reached host
/// `u` in ascending order one `routed_from` query and every other host it
/// reaches, kept only when strictly smaller. `None` when the destination
/// is unreachable.
fn per_cell_oracle(ctx: &SolveContext<'_>) -> Option<(Vec<NodeId>, f64)> {
    let inst = ctx.instance();
    let (net, pipe) = (inst.network, inst.pipeline);
    let (n, k) = (pipe.len(), net.node_count());
    ctx.warm_routed_dp();
    let mut prev = vec![f64::INFINITY; k];
    prev[inst.src.index()] = 0.0;
    let mut parents: Vec<Vec<Option<NodeId>>> = Vec::with_capacity(n - 1);
    for j in 1..n {
        let work = pipe.compute_work(j);
        let compute: Vec<f64> = net.node_ids().map(|v| work / net.power(v)).collect();
        let mut cost = vec![f64::INFINITY; k];
        let mut parent = vec![None; k];
        for v in 0..k {
            if prev[v].is_finite() {
                cost[v] = prev[v] + compute[v];
                parent[v] = Some(NodeId::from_index(v));
            }
        }
        for (u, &from) in prev.iter().enumerate() {
            if !from.is_finite() {
                continue;
            }
            let tree = ctx.routed_from(NodeId::from_index(u), pipe.input_bytes(j));
            for (v, &d) in tree.dist.iter().enumerate() {
                if u == v || d.is_infinite() {
                    continue;
                }
                let t = from + d + compute[v];
                if t < cost[v] {
                    cost[v] = t;
                    parent[v] = Some(NodeId::from_index(u));
                }
            }
        }
        parents.push(parent);
        prev = cost;
    }
    let total = prev[inst.dst.index()];
    if !total.is_finite() {
        return None;
    }
    let mut assignment = vec![inst.dst; n];
    for j in (1..n).rev() {
        assignment[j - 1] =
            parents[j - 1][assignment[j].index()].expect("finite cells have parents");
    }
    Some((assignment, total))
}

/// The crate's scan, in the oracle's shape.
fn crate_scan(ctx: &SolveContext<'_>) -> Option<(Vec<NodeId>, f64)> {
    let sol = elpc_delay::solve_routed_ctx(ctx).ok()?;
    Some((sol.assignment, sol.objective_ms))
}

/// What one solve leaves: the assignment, the objective's bits, and the
/// closure's hits and misses afterwards.
type Outcome = (Option<(Vec<NodeId>, u64)>, u64, u64);

type Scan = fn(&SolveContext<'_>) -> Option<(Vec<NodeId>, f64)>;

fn outcome(ctx: &SolveContext<'_>, scan: Scan) -> Outcome {
    let sol = scan(ctx).map(|(a, total)| (a, total.to_bits()));
    let stats = ctx.closure().stats();
    (sol, stats.hits, stats.misses)
}

/// A context whose closure is seeded with every tree `donor` built, the
/// shape a bank checkout hands the solver.
fn seeded<'a>(inst: Instance<'a>, donor: &SolveContext<'a>) -> SolveContext<'a> {
    let closure = MetricClosure::new(inst.network, CostModel::default());
    closure.seed(&donor.closure().export());
    SolveContext::from_shared(inst, Arc::new(closure), 1).expect("same network")
}

/// Runs the crate's scan and the oracle on twin contexts — lazy, all-CPU
/// pre-warmed, and seeded — and requires identical outcomes. Returns
/// whether the instance was feasible.
fn assert_scan_matches_oracle(label: &str, inst: Instance<'_>) -> bool {
    let cost = CostModel::default();
    let mut feasible = false;
    for threads in [1, 0] {
        let ours = SolveContext::with_threads(inst, cost, threads);
        let theirs = SolveContext::with_threads(inst, cost, threads);
        let got = outcome(&ours, crate_scan);
        assert_eq!(
            got,
            outcome(&theirs, per_cell_oracle),
            "{label}, threads {threads}"
        );
        feasible = got.0.is_some();
        let got = outcome(&seeded(inst, &ours), crate_scan);
        let want = outcome(&seeded(inst, &theirs), per_cell_oracle);
        assert_eq!(got, want, "{label}, seeded from threads {threads}");
    }
    feasible
}

/// Tie-heavy deterministic link delays: a small integer lattice scaled to
/// fractional values, so distinct routes and moves collide on bit-equal
/// costs (the weights of `csr_equivalence`).
fn lattice_weight(a: u32, b: u32) -> f64 {
    0.25 * (1 + (a * 31 + b * 17) % 7) as f64
}

/// A random connected topology with uniform powers and bandwidths and
/// lattice delays.
fn lattice_network(n: usize, links: usize, rng: &mut ChaCha8Rng) -> Network {
    let topo = gen::random_connected(n, links, rng).expect("feasible budget");
    Network::from_topology(
        &topo,
        |_| Node::with_power(100.0),
        |a, b| Link::new(100.0, lattice_weight(a, b)),
    )
    .expect("lattice topologies materialize")
}

/// Two random connected components with no link between them: every row
/// of one component is infinite over the other.
fn disconnected_network(n1: usize, n2: usize, rng: &mut ChaCha8Rng) -> Network {
    let mut b = Network::builder();
    let powers: Vec<f64> = (0..n1 + n2).map(|_| rng.gen_range(50.0..5000.0)).collect();
    let ids: Vec<NodeId> = powers.iter().map(|&p| b.add_node(p).unwrap()).collect();
    for (offset, size) in [(0, n1), (n1, n2)] {
        let topo = gen::random_connected(size, size + 2, rng).expect("feasible budget");
        for e in topo.links() {
            let (x, y) = (ids[offset + e.0 as usize], ids[offset + e.1 as usize]);
            let (bw, mld) = (rng.gen_range(1.0..1000.0), rng.gen_range(0.1..10.0));
            b.add_link(x, y, bw, mld).unwrap();
        }
    }
    b.build_unchecked()
}

fn pipeline(modules: usize, rng: &mut ChaCha8Rng) -> Pipeline {
    PipelineSpec {
        modules,
        ..Default::default()
    }
    .generate(rng)
    .expect("pipeline spec generates")
}

#[test]
fn scan_matches_per_cell_oracle_on_generated_topologies() {
    let kinds = [
        ("random", TopologyKind::RandomConnected),
        ("scale_free", TopologyKind::ScaleFree { attach: 2 }),
        ("small_world", TopologyKind::SmallWorld { k: 4, beta: 0.2 }),
    ];
    for (name, topology) in kinds {
        let mut feasible = 0;
        for seed in 0..12u64 {
            let mut spec = InstanceSpec::sized(2 + (seed as usize % 6), 30, 70);
            spec.topology = topology;
            let owned = spec.generate(seed).expect("spec generates");
            feasible +=
                assert_scan_matches_oracle(&format!("{name} seed {seed}"), owned.as_instance())
                    as usize;
        }
        assert!(feasible > 0, "{name}: no feasible instance was compared");
    }
}

#[test]
fn scan_matches_per_cell_oracle_on_disconnected_networks() {
    for seed in 0..12u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = disconnected_network(12, 9, &mut rng);
        let pipe = pipeline(3 + (seed as usize % 4), &mut rng);
        // one destination in the source's component, one beyond it
        for dst in [NodeId(11), NodeId(15)] {
            let inst = Instance::new(&net, &pipe, NodeId(0), dst).unwrap();
            let feasible = assert_scan_matches_oracle(&format!("seed {seed} dst {dst}"), inst);
            assert_eq!(feasible, dst == NodeId(11), "seed {seed} dst {dst}");
        }
    }
}

#[test]
fn scan_matches_per_cell_oracle_with_crashed_hosts() {
    let mut feasible = 0;
    for seed in 0..16u64 {
        let mut owned = InstanceSpec::sized(2 + (seed as usize % 5), 24, 60)
            .generate(seed)
            .expect("spec generates");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC4A5);
        let k = owned.network.node_count() as u32;
        // the crash sentinel (power 0, links down) on one or two hosts,
        // now and then the source or the destination itself
        for _ in 0..1 + seed % 2 {
            let node = NodeId(rng.gen_range(0..k));
            if !owned.network.node_is_failed(node) {
                owned.network.fail_node(node).expect("valid node");
            }
        }
        feasible +=
            assert_scan_matches_oracle(&format!("seed {seed}"), owned.as_instance()) as usize;
    }
    assert!(
        feasible > 0,
        "no feasible crashed-host instance was compared"
    );
}

#[test]
fn scan_matches_per_cell_oracle_on_tie_heavy_lattices() {
    let mut feasible = 0;
    for seed in 0..16u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let net = lattice_network(20, 36, &mut rng);
        // one payload for every boundary, and one compute work per module
        let stages = vec![(1.0, 1e6); 1 + seed as usize % 5];
        let pipe = Pipeline::from_stages(1e6, &stages, 1.0).unwrap();
        let dst = NodeId(rng.gen_range(0..20));
        let inst = Instance::new(&net, &pipe, NodeId(0), dst).unwrap();
        feasible += assert_scan_matches_oracle(&format!("seed {seed}"), inst) as usize;
    }
    assert!(feasible > 0, "no feasible lattice instance was compared");
}
