//! Incremental closure repair vs full rebuild under link churn and faults.
//!
//! The `elpc_mapping::delta` module's reason to exist: when a few links
//! drift, the bank no longer rebuilds the all-pairs routed closure from
//! scratch — it keeps every tree the perturbation cannot affect and
//! repairs only the subtrees of the stale ones the delta touched. This
//! bench measures that gap on 200- and 1000-node random topologies under
//! 1/5/20-link perturbations (`perturb/` rows), and on fault epochs — the
//! busiest relay crashing, then its restore — at 200 and 500 nodes
//! (`fault/` rows; 500 nodes and 1 500 links is the served `churn`
//! workload's shape). Every repaired closure is checked byte-identical to
//! a cold build of the perturbed network, and the ratios are committed to
//! `BENCH_churn.json`. `tests/bench_artifacts.rs` pins a ≥5× repair
//! speedup for ≤5-link perturbations at 1000 nodes.
//!
//! Churn concentrates on the *slowest* links (the paper's time-varying
//! load story: loaded links get more loaded) — those are also exactly the
//! links shortest-path trees avoid, so the kept majority is large. The
//! perturbation degrades them further (×0.7 bandwidth), which can never
//! make a degraded link newly competitive.
//!
//! Not a criterion bench: each row times two whole-closure operations a
//! handful of times and keeps the best, so this target has `harness =
//! false` and writes its artifact directly.
//!
//! ```text
//! cargo bench -p elpc-bench --bench churn
//! ```

use elpc_experiments::artifact::{self, Row};
use elpc_mapping::delta::repair_closure;
use elpc_mapping::{CostModel, EdgeId, MetricClosure, NetworkDelta, NodeId};
use elpc_netsim::{Link, Network};
use elpc_workloads::{InstanceSpec, ProblemInstance};
use serde_json::Value;
use std::path::Path;
use std::time::Instant;

const MODULES: usize = 5;
const REPEATS: usize = 3;
const BW_SCALE: f64 = 0.7;

/// The `count` slowest undirected links (their even directed ids): where
/// load-driven churn lands, and where shortest-path trees already aren't.
fn slowest_links(net: &Network, count: usize) -> Vec<EdgeId> {
    let mut by_bw: Vec<(f64, u32)> = (0..net.link_count())
        .map(|k| {
            let id = EdgeId((2 * k) as u32);
            (net.link(id).expect("valid link").bw_mbps, id.0)
        })
        .collect();
    by_bw.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite bw")
            .then(a.1.cmp(&b.1))
    });
    by_bw
        .iter()
        .take(count)
        .map(|&(_, id)| EdgeId(id))
        .collect()
}

fn degrade(net: &Network, links: &[EdgeId]) -> Network {
    let mut out = net.clone();
    for &id in links {
        let old = net.link(id).expect("valid link").clone();
        out.set_link_symmetric(id, Link::new(old.bw_mbps * BW_SCALE, old.mld_ms))
            .expect("same shape");
    }
    out
}

fn best_of<F: FnMut() -> f64>(mut run: F) -> f64 {
    (0..REPEATS).map(|_| run()).fold(f64::INFINITY, f64::min)
}

/// Times a full cold rebuild of `live`'s closure and the repair of `base`
/// into it (best of N each), checks the repair byte-identical to the cold
/// build, and prints and returns the artifact row.
fn time_repair(
    id: String,
    params: [(&str, Value); 3],
    base: &MetricClosure<'_>,
    live: &Network,
    delta: &NetworkDelta,
    sources: &[NodeId],
    payloads: &[f64],
) -> Row {
    let cost = *base.cost();
    let total_trees = sources.len() * payloads.len();
    let full_rebuild_ms = best_of(|| {
        let t0 = Instant::now();
        let cold = MetricClosure::new(live, cost);
        let built = cold.par_warm(sources, payloads, 0);
        assert_eq!(built, total_trees);
        t0.elapsed().as_secs_f64() * 1e3
    });

    let mut rebuilt_trees = 0usize;
    let repair_ms = best_of(|| {
        let t0 = Instant::now();
        // everything the bank's hit-with-repair path does: export the
        // banked entry, decide per tree, repair the stale set
        let entries = base.export();
        let target = MetricClosure::new(live, cost);
        let report = repair_closure(&target, &entries, delta, 0);
        rebuilt_trees = report.rebuilt;
        assert_eq!(report.kept + report.rebuilt, total_trees);
        t0.elapsed().as_secs_f64() * 1e3
    });

    // differential check: the repaired closure is byte-identical to the
    // cold build of the perturbed network
    let target = MetricClosure::new(live, cost);
    repair_closure(&target, &base.export(), delta, 0);
    let cold = MetricClosure::new(live, cost);
    cold.par_warm(sources, payloads, 0);
    let (a, b) = (target.export(), cold.export());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.key, y.key);
        assert!(x
            .tree
            .dist
            .iter()
            .zip(&y.tree.dist)
            .all(|(p, q)| p.to_bits() == q.to_bits()));
        assert_eq!(x.tree.prev, y.tree.prev);
    }
    let speedup = full_rebuild_ms / repair_ms;
    println!(
        "{id}: repaired {rebuilt_trees}/{total_trees} trees, full {full_rebuild_ms:.1}ms \
         vs repair {repair_ms:.1}ms — {speedup:.1}x"
    );
    Row::new(
        id,
        params,
        [
            ("total_trees", total_trees as f64),
            ("rebuilt_trees", rebuilt_trees as f64),
            ("full_rebuild_ms", full_rebuild_ms),
            ("repair_ms", repair_ms),
            ("speedup", speedup),
        ],
    )
}

fn sources_and_payloads(inst: &ProblemInstance) -> (Vec<NodeId>, Vec<f64>) {
    let sources = inst.network.node_ids().collect();
    let payloads = (1..inst.pipeline.len())
        .map(|j| inst.pipeline.input_bytes(j))
        .collect();
    (sources, payloads)
}

/// Crash of the relay the most cached trees route through, then its
/// restore, at 200 nodes and at the served `churn` workload's shape.
fn fault_rows(cost: CostModel) -> Vec<Row> {
    let mut rows = Vec::new();
    for &(nodes, links, seed) in &[(200usize, 460usize, 0xC0FFEE_u64), (500, 1500, 0xFA57)] {
        let inst = InstanceSpec::sized(MODULES, nodes, links)
            .generate(seed)
            .expect("spec generates");
        let (sources, payloads) = sources_and_payloads(&inst);
        let healthy = MetricClosure::new(&inst.network, cost);
        healthy.par_warm(&sources, &payloads, 0);

        let mut through = vec![0usize; nodes];
        for e in healthy.export() {
            for (u, _) in e.tree.prev.iter().flatten() {
                through[u.index()] += 1;
            }
        }
        let relay = (0..nodes).max_by_key(|&v| through[v]).expect("nodes");
        let mut crashed_net = inst.network.clone();
        crashed_net
            .fail_node(NodeId::from_index(relay))
            .expect("valid node");
        let crashed = MetricClosure::new(&crashed_net, cost);
        crashed.par_warm(&sources, &payloads, 0);

        for (event, base, live) in [
            ("crash", &healthy, &crashed_net),
            ("restore", &crashed, &inst.network),
        ] {
            let delta = NetworkDelta::between(base.network(), live).expect("same shape");
            rows.push(time_repair(
                format!("fault/{nodes}n/{event}"),
                [
                    ("nodes", nodes.into()),
                    ("links", links.into()),
                    ("event", event.into()),
                ],
                base,
                live,
                &delta,
                &sources,
                &payloads,
            ));
        }
    }
    rows
}

fn main() {
    let cost = CostModel::default();
    let mut rows = Vec::new();

    for &(nodes, links, seed) in &[(200usize, 460usize, 0xC0FFEE_u64), (1000, 2300, 0xB0BA)] {
        let inst = InstanceSpec::sized(MODULES, nodes, links)
            .generate(seed)
            .expect("spec generates");
        let (sources, payloads) = sources_and_payloads(&inst);

        // the banked state: a fully-warmed closure of the pre-churn network
        let base = MetricClosure::new(&inst.network, cost);
        base.par_warm(&sources, &payloads, 0);

        for &perturbed in &[1usize, 5, 20] {
            let changed = slowest_links(&inst.network, perturbed);
            let live = degrade(&inst.network, &changed);
            let delta = NetworkDelta::between(&inst.network, &live).expect("same shape");
            assert_eq!(delta.links.len(), 2 * perturbed, "both directions");
            rows.push(time_repair(
                format!("perturb/{nodes}n/{perturbed}"),
                [
                    ("nodes", nodes.into()),
                    ("links", links.into()),
                    ("perturbed_links", perturbed.into()),
                ],
                &base,
                &live,
                &delta,
                &sources,
                &payloads,
            ));
        }
    }
    rows.extend(fault_rows(cost));
    artifact::write(Path::new(env!("CARGO_MANIFEST_DIR")), "churn", rows);
}
