//! The differential fault suite: closures repaired after **failures**
//! (link cuts, node crashes — removals, not perturbations) must be
//! indistinguishable from building over the failed network from scratch.
//!
//! Mirrors `churn_equivalence.rs`, but the churn steps are drawn from the
//! failure model: links cut to the `bw = 0` sentinel, nodes crashed with
//! every incident link taken down, and previously failed elements
//! restored. After every step the repaired closure must be
//! **byte-identical** (distance bit patterns and predecessor links) to a
//! cold closure of the failed network, with the repaired state chained
//! forward so a wrongly kept tree would compound.
//!
//! The second half proves the property end to end: every registry solver,
//! on a bank context repaired across a node crash plus a link cut via
//! `update_in_place`, returns the bit-identical solution it returns on a
//! cold context of the failed instance.

use elpc_mapping::delta::repair_closure;
use elpc_mapping::{
    registry, CostModel, EdgeId, MetricClosure, NetworkDelta, NodeId, SolveContext,
};
use elpc_netsim::{Link, Network};
use elpc_workloads::bank::bank_key;
use elpc_workloads::{ClosureBank, InstanceSpec, ProblemInstance, TopologyKind};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const STEPS: usize = 6;

fn topologies() -> Vec<(&'static str, TopologyKind)> {
    vec![
        ("random", TopologyKind::RandomConnected),
        ("scale_free", TopologyKind::ScaleFree { attach: 2 }),
        ("small_world", TopologyKind::SmallWorld { k: 4, beta: 0.2 }),
    ]
}

fn instance(topology: TopologyKind, seed: u64) -> ProblemInstance {
    let mut spec = InstanceSpec::sized(4, 24, 60);
    spec.topology = topology;
    spec.generate(seed).expect("spec generates")
}

/// What a fault step did, with enough state to undo it later.
enum Fault {
    Link {
        edge: EdgeId,
        old: Link,
    },
    Node {
        node: NodeId,
        old_power: f64,
        links: Vec<(EdgeId, Link)>,
    },
}

/// One random fault step: cut a healthy link, crash a healthy node, or
/// (when something is down) restore a previous failure. Always changes
/// the network.
fn fault_step(net: &Network, down: &mut Vec<Fault>, rng: &mut ChaCha8Rng) -> Network {
    let mut out = net.clone();
    let restore = !down.is_empty() && rng.gen_bool(0.35);
    if restore {
        let idx = rng.gen_range(0..down.len());
        match down.swap_remove(idx) {
            Fault::Link { edge, old } => {
                out.set_link_symmetric(edge, old).expect("same shape");
            }
            Fault::Node {
                node,
                old_power,
                links,
            } => {
                out.node_mut(node).expect("valid node").power = old_power;
                for (edge, old) in links {
                    out.set_link_symmetric(edge, old).expect("same shape");
                }
            }
        }
        return out;
    }
    // crash/cut only healthy elements so every step is a real removal
    if rng.gen_bool(0.35) {
        let healthy: Vec<NodeId> = out.node_ids().filter(|&v| !out.node_is_failed(v)).collect();
        let node = healthy[rng.gen_range(0..healthy.len())];
        let (old_power, links) = out.fail_node(node).expect("valid node");
        down.push(Fault::Node {
            node,
            old_power,
            links,
        });
    } else {
        let healthy: Vec<EdgeId> = (0..out.link_count())
            .map(|k| EdgeId((2 * k) as u32))
            .filter(|&e| !out.link(e).expect("valid link").is_failed())
            .collect();
        let edge = healthy[rng.gen_range(0..healthy.len())];
        let old = out.fail_link_symmetric(edge).expect("valid link");
        down.push(Fault::Link { edge, old });
    }
    out
}

fn export_closure<'a>(
    net: &'a Network,
    cost: CostModel,
    inst: &ProblemInstance,
) -> MetricClosure<'a> {
    let sources: Vec<NodeId> = net.node_ids().collect();
    let payloads: Vec<f64> = (1..inst.pipeline.len())
        .map(|j| inst.pipeline.input_bytes(j))
        .collect();
    let closure = MetricClosure::new(net, cost);
    closure.par_warm(&sources, &payloads, 1);
    closure
}

fn assert_byte_identical(
    label: &str,
    a: &[elpc_mapping::CachedTree],
    b: &[elpc_mapping::CachedTree],
) {
    assert_eq!(a.len(), b.len(), "{label}: tree counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.key, y.key, "{label}: key order differs");
        for (p, q) in x.tree.dist.iter().zip(&y.tree.dist) {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "{label}: a repaired distance differs from the cold build"
            );
        }
        assert_eq!(
            x.tree.prev, y.tree.prev,
            "{label}: a repaired predecessor differs from the cold build"
        );
    }
}

/// Chained failure/restore sequences over random, scale-free, and
/// small-world topologies: the repaired closure is byte-identical to a
/// cold build of the failed network at every step.
#[test]
fn failure_sequences_repair_byte_identically() {
    let cost = CostModel::default();
    for (label, topology) in topologies() {
        let inst = instance(topology, 0xFA17);
        let mut net = inst.network.clone();
        let mut entries = export_closure(&net, cost, &inst).export();

        let mut down = Vec::new();
        let mut rng = ChaCha8Rng::seed_from_u64(0xDEAD ^ label.len() as u64);
        let mut saw_failure_delta = false;
        for step in 0..STEPS {
            let next = fault_step(&net, &mut down, &mut rng);
            let delta = NetworkDelta::between(&net, &next).expect("same shape");
            assert!(!delta.is_empty(), "{label} step {step}: a fault must move");
            saw_failure_delta |= delta.has_failures();

            let target = MetricClosure::new(&next, cost);
            let report = repair_closure(&target, &entries, &delta, 1);
            assert_eq!(
                report.kept + report.rebuilt,
                entries.len(),
                "{label} step {step}: every tree is either kept or rebuilt"
            );
            let repaired = target.export();
            let cold = export_closure(&next, cost, &inst).export();
            assert_byte_identical(&format!("{label} step {step}"), &repaired, &cold);

            // chain the REPAIRED state forward: a tree wrongly kept across
            // a removal would compound into later steps
            entries = repaired;
            net = next;
        }
        assert!(
            saw_failure_delta,
            "{label}: the sequence must classify at least one real failure"
        );
    }
}

/// Fail → repair → restore → repair returns the closure to **exactly**
/// its pre-failure bytes: the failure leaves no residue in the repaired
/// state.
#[test]
fn failure_then_restore_round_trips_to_the_original_closure() {
    let cost = CostModel::default();
    let inst = instance(TopologyKind::RandomConnected, 0x0F0F);
    let net = inst.network.clone();
    let original = export_closure(&net, cost, &inst).export();

    // cut a link the closure certainly routes through somewhere
    let mut failed_net = net.clone();
    let edge = EdgeId(4);
    let old = failed_net.fail_link_symmetric(edge).expect("valid link");
    let cut = NetworkDelta::between(&net, &failed_net).expect("same shape");
    // both directions of the symmetric cut classify as failures
    assert_eq!(
        cut.links.iter().filter(|l| l.is_failure()).count(),
        2,
        "the cut is a failure, not churn"
    );
    assert!(cut.links.iter().all(|l| l.is_failure()));

    let during = MetricClosure::new(&failed_net, cost);
    repair_closure(&during, &original, &cut, 1);
    assert_byte_identical(
        "failed",
        &during.export(),
        &export_closure(&failed_net, cost, &inst).export(),
    );

    // restore: healthy-from-failed diffs as an ordinary perturbation
    let mut restored_net = failed_net.clone();
    restored_net
        .set_link_symmetric(edge, old)
        .expect("same shape");
    let restore = NetworkDelta::between(&failed_net, &restored_net).expect("same shape");
    assert_eq!(restore.links.len(), 2, "a restore is churn, not a failure");
    assert!(!restore.links.iter().any(|l| l.is_failure()));

    let after = MetricClosure::new(&restored_net, cost);
    let entries = during.export();
    repair_closure(&after, &entries, &restore, 1);
    assert_byte_identical("restored", &after.export(), &original);
}

/// End-to-end over the full registry: a bank context repaired across a
/// node crash plus a link cut yields bit-identical solver output to a
/// cold context of the failed instance.
#[test]
fn every_registry_solver_is_bit_identical_repaired_vs_cold_after_failures() {
    let cost = CostModel::default();
    for (label, topology) in topologies() {
        // tiny instance: the registry includes exponential exact solvers
        let mut spec = InstanceSpec::sized(3, 8, 14);
        spec.topology = topology;
        let base = spec.generate(0xFEED).expect("spec generates");
        let old_key = bank_key(&base.as_instance(), &cost);

        let bank = ClosureBank::new();
        {
            let ctx = bank.context_for(base.as_instance(), cost, 1);
            for entry in registry() {
                let _ = entry.solve(&ctx);
            }
            bank.deposit(&ctx);
        }

        // crash an interior node (not a pipeline endpoint) and cut a link
        let mut live = base.clone();
        let crash = live
            .network
            .node_ids()
            .find(|&v| v != base.src && v != base.dst)
            .expect("an interior node exists");
        live.network.fail_node(crash).expect("valid node");
        let healthy = (0..live.network.link_count())
            .map(|k| EdgeId((2 * k) as u32))
            .find(|&e| !live.network.link(e).expect("valid link").is_failed())
            .expect("a healthy link survives the crash");
        live.network
            .fail_link_symmetric(healthy)
            .expect("valid link");

        let delta = NetworkDelta::between(&base.network, &live.network).expect("same shape");
        assert_eq!(
            delta.nodes.iter().filter(|n| n.is_crash()).count(),
            1,
            "{label}: crash classified"
        );
        assert!(
            delta.links.iter().any(|l| l.is_failure()),
            "{label}: cuts classified (crash incidents + explicit cut)"
        );
        assert!(delta.forces_remap(&[crash]), "{label}: dead host detected");
        assert!(!delta.forces_remap(&[base.src, base.dst]));

        bank.update_in_place(old_key, live.as_instance(), cost, &delta, 1)
            .expect("the base entry is banked");
        let warm = bank.context_for(live.as_instance(), cost, 1);
        let cold = SolveContext::new(live.as_instance(), cost);
        let stats = bank.stats();
        assert_eq!(stats.hits, 1, "{label}: the repaired checkout must hit");
        assert_eq!(stats.repairs, 1);

        for entry in registry() {
            match (entry.solve(&warm), entry.solve(&cold)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.assignment,
                        b.assignment,
                        "{label}: solver {} moved on a repaired failed context",
                        entry.name()
                    );
                    assert_eq!(
                        a.objective_ms.to_bits(),
                        b.objective_ms.to_bits(),
                        "{label}: solver {} objective drifted",
                        entry.name()
                    );
                    assert!(
                        !a.assignment.contains(&crash),
                        "{label}: solver {} mapped a module onto a crashed host",
                        entry.name()
                    );
                }
                (Err(_), Err(_)) => {} // both infeasible the same way
                (warm_r, cold_r) => panic!(
                    "{label}: solver {} disagreed on feasibility: warm {:?} cold {:?}",
                    entry.name(),
                    warm_r.is_ok(),
                    cold_r.is_ok()
                ),
            }
        }
    }
}
