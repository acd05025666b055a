//! Frozen outputs of the epoch engine ([`run_epochs`]) on three fixtures,
//! one per scenario the engine serves:
//!
//! * `degrading()` — the adaptive unit tests' 4-node network whose fast
//!   host collapses — under `Always { hysteresis: 0.05 }`, once with the
//!   strict and once with the routed delay DP;
//! * `churn_soak`'s 20-node load-churn fixture under
//!   `Drift { threshold: 0.08 }` for 40 epochs;
//! * a seeded 24-node instance carrying three pipelines (two share a bank
//!   key) through a fault schedule with a permanent host crash, under
//!   `Drift { threshold: 0.02 }`.
//!
//! The literals were captured from the three loops the engine replaced
//! (the adaptation, churn and failover loops), before they were merged:
//! every field they reported except wall-clock timings, with each `f64`
//! pinned by its bit pattern. The engine must reproduce all of them
//! exactly. The failover loop checked a pipeline out only on epochs whose
//! delta was non-empty, so its bank hit count is not pinned; misses,
//! repairs and resident keys are.

use elpc_extensions::adaptive::{run_epochs, EpochConfig, EpochReport, RemapPolicy};
use elpc_mapping::{solver, CostModel, EdgeId, NodeId, SolveContext};
use elpc_netsim::dynamics::{DynamicNetwork, LoadModel};
use elpc_netsim::faults::{FaultConfig, FaultEvent, FaultKind, FaultSchedule};
use elpc_netsim::Network;
use elpc_pipeline::Pipeline;
use elpc_workloads::{ClosureBank, InstanceSpec};

fn bits(x: f64) -> u64 {
    x.to_bits()
}

fn no_faults() -> FaultSchedule {
    FaultSchedule::from_events(vec![])
}

/// Two routes s→d: via a (initially fast) and via b (initially slower);
/// node a collapses to 5% availability after ~2 s.
fn degrading() -> DynamicNetwork {
    let mut bld = Network::builder();
    let s = bld.add_node(100.0).unwrap();
    let a = bld.add_node(1000.0).unwrap();
    let b = bld.add_node(600.0).unwrap();
    let d = bld.add_node(100.0).unwrap();
    bld.add_link(s, a, 500.0, 0.5).unwrap();
    bld.add_link(a, d, 500.0, 0.5).unwrap();
    bld.add_link(s, b, 500.0, 0.5).unwrap();
    bld.add_link(b, d, 500.0, 0.5).unwrap();
    let node_models = vec![
        LoadModel::Constant(1.0),
        LoadModel::Sinusoid {
            period_ms: 20_000.0,
            amplitude: 0.95,
            phase_ms: 0.0,
        },
        LoadModel::Constant(1.0),
        LoadModel::Constant(1.0),
    ];
    let link_models = vec![LoadModel::Constant(1.0); 4];
    DynamicNetwork::new(bld.build().unwrap(), node_models, link_models).unwrap()
}

/// `tests/churn_soak.rs`'s fixture: 20 nodes, a third of them and the
/// eight slowest links under three load-model families.
fn churn_fixture() -> (DynamicNetwork, elpc_workloads::ProblemInstance) {
    let inst = InstanceSpec::sized(4, 20, 46).generate(7).expect("gen");
    let net = inst.network.clone();
    let node_models: Vec<LoadModel> = (0..net.node_count())
        .map(|i| match i % 3 {
            0 => LoadModel::Sinusoid {
                period_ms: 7_000.0,
                amplitude: 0.4,
                phase_ms: 97.0 * i as f64,
            },
            1 => LoadModel::Constant(1.0),
            _ => LoadModel::RandomEpochs {
                epoch_ms: 1_500.0,
                floor: 0.6,
                seed: i as u64,
            },
        })
        .collect();
    let mut by_bw: Vec<(f64, usize)> = (0..net.link_count())
        .map(|k| (net.link(EdgeId((2 * k) as u32)).unwrap().bw_mbps, k))
        .collect();
    by_bw.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let slow: Vec<usize> = by_bw.iter().take(8).map(|p| p.1).collect();
    let link_models: Vec<LoadModel> = (0..net.link_count())
        .map(|k| {
            if slow[..4].contains(&k) {
                LoadModel::Sinusoid {
                    period_ms: 5_000.0,
                    amplitude: 0.3,
                    phase_ms: 131.0 * k as f64,
                }
            } else if slow[4..].contains(&k) {
                LoadModel::RandomEpochs {
                    epoch_ms: 2_000.0,
                    floor: 0.7,
                    seed: 1_000 + k as u64,
                }
            } else {
                LoadModel::Constant(1.0)
            }
        })
        .collect();
    let dyn_net = DynamicNetwork::new(net, node_models, link_models).unwrap();
    (dyn_net, inst)
}

/// 24 nodes, one load-churned node, three pipelines (the first two share
/// their payloads and so one bank key), a seeded schedule of link cuts
/// plus a permanent crash of one of pipeline 0's hosts at t = 2500.
fn failover_fixture() -> (
    DynamicNetwork,
    FaultSchedule,
    Vec<(Pipeline, NodeId, NodeId)>,
) {
    let seed = 11;
    let inst = InstanceSpec::sized(5, 24, 56).generate(seed).expect("gen");
    let other = InstanceSpec::sized(4, 24, 56)
        .generate(seed + 1)
        .expect("gen")
        .pipeline;
    let pipes = vec![
        (inst.pipeline.clone(), inst.src, inst.dst),
        (inst.pipeline.clone(), NodeId(3), NodeId(17)),
        (other, NodeId(9), NodeId(21)),
    ];
    let protect: Vec<NodeId> = pipes.iter().flat_map(|&(_, s, d)| [s, d]).collect();
    let first = solver("elpc_delay_routed")
        .unwrap()
        .solve(&SolveContext::new(inst.as_instance(), CostModel::default()))
        .unwrap();
    let host = first
        .assignment
        .iter()
        .copied()
        .find(|h| !protect.contains(h))
        .expect("an interior host");
    let config = FaultConfig {
        events: 6,
        horizon_ms: 8_000.0,
        crash_weight: 2,
        cut_weight: 3,
        degrade_weight: 1,
        transient_fraction: 0.3,
        protect,
        ..FaultConfig::default()
    };
    let mut events = FaultSchedule::generate(&inst.network, &config, seed)
        .unwrap()
        .events()
        .to_vec();
    events.push(FaultEvent {
        kind: FaultKind::NodeCrash { node: host },
        start_ms: 2_500.0,
        end_ms: f64::INFINITY,
    });
    let mut node_models = vec![LoadModel::Constant(1.0); inst.network.node_count()];
    node_models[5] = LoadModel::RandomEpochs {
        epoch_ms: 3_000.0,
        floor: 0.6,
        seed: 3,
    };
    let link_models = vec![LoadModel::Constant(1.0); inst.network.link_count()];
    let dyn_net = DynamicNetwork::new(inst.network.clone(), node_models, link_models).unwrap();
    (dyn_net, FaultSchedule::from_events(events), pipes)
}

fn config(period_ms: f64, policy: RemapPolicy) -> EpochConfig {
    EpochConfig {
        period_ms,
        policy,
        switch_cost_ms: 0.0,
    }
}

/// `(t_ms, candidate, delay, static, switched)` per epoch, `f64`s as bits.
type AlwaysRow = (u64, u64, u64, u64, bool);

#[rustfmt::skip]
const ALWAYS_STRICT: [AlwaysRow; 20] = [
    (0x0000000000000000, 0x40b1a6999999999a, 0x40b1a6999999999a, 0x40b1a6999999999a, false),
    (0x407f400000000000, 0x40b1be2137acc0cc, 0x40b1be2137acc0cb, 0x40b1be2137acc0cb, false),
    (0x408f400000000000, 0x40b205ce54ddb642, 0x40b205ce54ddb642, 0x40b205ce54ddb642, false),
    (0x4097700000000000, 0x40b280fe89e67fa5, 0x40b280fe89e67fa5, 0x40b280fe89e67fa5, false),
    (0x409f400000000000, 0x40b335ab8d68d738, 0x40b335ab8d68d738, 0x40b335ab8d68d738, false),
    (0x40a3880000000000, 0x40b42d080b3658a7, 0x40b42d080b3658a7, 0x40b42d080b3658a7, false),
    (0x40a7700000000000, 0x40b5747fdedef75c, 0x40b5747fdedef75c, 0x40b5747fdedef75c, false),
    (0x40ab580000000000, 0x40b71f4b6374ce5a, 0x40b71f4b6374ce5a, 0x40b71f4b6374ce5a, false),
    (0x40af400000000000, 0x40b948e72ea0476c, 0x40b948e72ea0476c, 0x40b948e72ea0476c, false),
    (0x40b1940000000000, 0x40bc114444444445, 0x40bc18fb8a258179, 0x40bc18fb8a258179, false),
    (0x40b3880000000000, 0x40bc114444444445, 0x40bc144444444445, 0x40bfc9a5ca5ca5c9, true),
    (0x40b57c0000000000, 0x40bc114444444445, 0x40bc114444444445, 0x40c258e7822adccf, false),
    (0x40b7700000000000, 0x40bc114444444445, 0x40bc114444444445, 0x40c5ab454716f5ee, false),
    (0x40b9640000000000, 0x40bc114444444445, 0x40bc114444444445, 0x40ca445fe55edf92, false),
    (0x40bb580000000000, 0x40bc114444444445, 0x40bc114444444445, 0x40d065f70e56bb76, false),
    (0x40bd4c0000000000, 0x40bc114444444445, 0x40bc114444444445, 0x40d5292dad01ab94, false),
    (0x40bf400000000000, 0x40bc114444444445, 0x40bc114444444445, 0x40dc441d953e1e5e, false),
    (0x40c09a0000000000, 0x40bc114444444445, 0x40bc114444444445, 0x40e371c5be48c372, false),
    (0x40c1940000000000, 0x40bc114444444445, 0x40bc114444444445, 0x40eaeaef7e704f73, false),
    (0x40c28e0000000000, 0x40bc114444444445, 0x40bc114444444445, 0x40f19cd871353ecd, false),
];

#[rustfmt::skip]
const ALWAYS_ROUTED: [AlwaysRow; 20] = [
    (0x0000000000000000, 0x40b1a6999999999a, 0x40b1a6999999999a, 0x40b1a6999999999a, false),
    (0x407f400000000000, 0x40b1be2137acc0cb, 0x40b1be2137acc0cb, 0x40b1be2137acc0cb, false),
    (0x408f400000000000, 0x40b205ce54ddb642, 0x40b205ce54ddb642, 0x40b205ce54ddb642, false),
    (0x4097700000000000, 0x40b280fe89e67fa5, 0x40b280fe89e67fa5, 0x40b280fe89e67fa5, false),
    (0x409f400000000000, 0x40b335ab8d68d738, 0x40b335ab8d68d738, 0x40b335ab8d68d738, false),
    (0x40a3880000000000, 0x40b42d080b3658a7, 0x40b42d080b3658a7, 0x40b42d080b3658a7, false),
    (0x40a7700000000000, 0x40b5747fdedef75c, 0x40b5747fdedef75c, 0x40b5747fdedef75c, false),
    (0x40ab580000000000, 0x40b71f4b6374ce5a, 0x40b71f4b6374ce5a, 0x40b71f4b6374ce5a, false),
    (0x40af400000000000, 0x40b948e72ea0476c, 0x40b948e72ea0476c, 0x40b948e72ea0476c, false),
    (0x40b1940000000000, 0x40bc114444444445, 0x40bc18fb8a258179, 0x40bc18fb8a258179, false),
    (0x40b3880000000000, 0x40bc114444444445, 0x40bc144444444445, 0x40bfc9a5ca5ca5c9, true),
    (0x40b57c0000000000, 0x40bc114444444445, 0x40bc114444444445, 0x40c258e7822adccf, false),
    (0x40b7700000000000, 0x40bc114444444445, 0x40bc114444444445, 0x40c5ab454716f5ee, false),
    (0x40b9640000000000, 0x40bc114444444445, 0x40bc114444444445, 0x40ca445fe55edf92, false),
    (0x40bb580000000000, 0x40bc114444444445, 0x40bc114444444445, 0x40d065f70e56bb76, false),
    (0x40bd4c0000000000, 0x40bc114444444445, 0x40bc114444444445, 0x40d5292dad01ab94, false),
    (0x40bf400000000000, 0x40bc114444444445, 0x40bc114444444445, 0x40dc441d953e1e5e, false),
    (0x40c09a0000000000, 0x40bc114444444445, 0x40bc114444444445, 0x40e371c5be48c372, false),
    (0x40c1940000000000, 0x40bc114444444445, 0x40bc114444444445, 0x40eaeaef7e704f73, false),
    (0x40c28e0000000000, 0x40bc114444444445, 0x40bc114444444445, 0x40f19cd871353ecd, false),
];

/// `(t_ms, changed_links, changed_nodes, trees_total, trees_kept,
/// trees_rebuilt, delay, resolved, candidate, staleness, switched)` per
/// epoch, `f64`s as bits.
type ChurnRow = (
    u64,
    usize,
    usize,
    usize,
    usize,
    usize,
    u64,
    bool,
    Option<u64>,
    u64,
    bool,
);

#[rustfmt::skip]
const CHURN: [ChurnRow; 40] = [
    (0x0000000000000000, 0, 0, 0, 0, 0, 0x40a0a5a30f36389f, true, Some(0x40a0a5a30f36389f), 0x0000000000000000, false),
    (0x4079000000000000, 4, 7, 41, 41, 0, 0x40a16e4819457cce, false, None, 0x0000000000000000, false),
    (0x4089000000000000, 4, 7, 41, 41, 0, 0x40a26a6443e4708c, true, Some(0x40a26a6443e4708c), 0x0000000000000000, false),
    (0x4092c00000000000, 4, 7, 41, 41, 0, 0x40a383edc3f63ef8, false, None, 0x0000000000000000, false),
    (0x4099000000000000, 4, 13, 41, 41, 0, 0x40a48eed57bc5b10, true, Some(0x40a48eed57bc5b10), 0x0000000000000000, false),
    (0x409f400000000000, 8, 7, 41, 41, 0, 0x40a54c53bac34dc6, false, None, 0x0000000000000000, false),
    (0x40a2c00000000000, 4, 7, 41, 41, 0, 0x40a581a1860cfb65, false, None, 0x0000000000000000, false),
    (0x40a5e00000000000, 4, 7, 41, 41, 0, 0x40a51c368f56e198, false, None, 0x0000000000000000, false),
    (0x40a9000000000000, 4, 13, 41, 41, 0, 0x40a43eafa1acb992, false, None, 0x0000000000000000, false),
    (0x40ac200000000000, 4, 7, 41, 41, 0, 0x40a328d4cee64cfe, false, None, 0x0000000000000000, false),
    (0x40af400000000000, 8, 7, 41, 41, 0, 0x40a2151224eb26db, false, None, 0x0000000000000000, false),
    (0x40b1300000000000, 4, 7, 41, 41, 0, 0x40a127e868f4272e, false, None, 0x0000000000000000, false),
    (0x40b2c00000000000, 4, 13, 41, 41, 0, 0x40a071c427d99c2d, false, None, 0x0000000000000000, false),
    (0x40b4500000000000, 4, 7, 41, 41, 0, 0x409fee640c0a902c, false, None, 0x0000000000000000, false),
    (0x40b5e00000000000, 4, 7, 41, 41, 0, 0x409f6fbaf1380dc5, false, None, 0x0000000000000000, false),
    (0x40b7700000000000, 8, 13, 41, 41, 0, 0x409f6551ded9d8d1, false, None, 0x0000000000000000, false),
    (0x40b9000000000000, 4, 7, 41, 41, 0, 0x409fceec42900a67, false, None, 0x0000000000000000, false),
    (0x40ba900000000000, 4, 7, 41, 41, 0, 0x40a0574890c80361, false, None, 0x0000000000000000, false),
    (0x40bc200000000000, 4, 6, 41, 41, 0, 0x40a102d229e84400, false, None, 0x0000000000000000, false),
    (0x40bdb00000000000, 4, 13, 41, 41, 0, 0x40a1e6d5bef8bffa, false, None, 0x0000000000000000, false),
    (0x40bf400000000000, 8, 7, 41, 41, 0, 0x40a2f5aa847c6a0e, false, None, 0x0000000000000000, false),
    (0x40c0680000000000, 4, 7, 41, 41, 0, 0x40a40ee6f8e7ea83, false, None, 0x0000000000000000, false),
    (0x40c1300000000000, 4, 7, 41, 41, 0, 0x40a4fb83ffd7b2b0, false, None, 0x0000000000000000, false),
    (0x40c1f80000000000, 4, 13, 41, 41, 0, 0x40a57a712fdfd711, false, None, 0x0000000000000000, false),
    (0x40c2c00000000000, 4, 7, 41, 41, 0, 0x40a56137229bbbfe, false, None, 0x0000000000000000, false),
    (0x40c3880000000000, 8, 7, 41, 41, 0, 0x40a4b8b5756fd448, false, None, 0x0000000000000000, false),
    (0x40c4500000000000, 4, 7, 41, 41, 0, 0x40a3b6b654959b87, false, None, 0x0000000000000000, false),
    (0x40c5180000000000, 4, 13, 41, 41, 0, 0x40a29bdb0268e7ea, false, None, 0x0000000000000000, false),
    (0x40c5e00000000000, 4, 7, 41, 41, 0, 0x40a1984262b57984, false, None, 0x0000000000000000, false),
    (0x40c6a80000000000, 4, 7, 41, 41, 0, 0x40a0c57e33da81a1, false, None, 0x0000000000000000, false),
    (0x40c7700000000000, 8, 13, 41, 41, 0, 0x40a02d009072cbf2, false, None, 0x0000000000000000, false),
    (0x40c8380000000000, 4, 7, 41, 41, 0, 0x409fa069c159a6e9, false, None, 0x0000000000000000, false),
    (0x40c9000000000000, 4, 7, 41, 41, 0, 0x409f5c129e7b15aa, false, None, 0x0000000000000000, false),
    (0x40c9c80000000000, 4, 7, 41, 41, 0, 0x409f8b8774ac3f45, false, None, 0x0000000000000000, false),
    (0x40ca900000000000, 4, 13, 41, 41, 0, 0x40a017ea0fec31ec, false, None, 0x0000000000000000, false),
    (0x40cb580000000000, 8, 7, 41, 41, 0, 0x40a0a5a30f36389e, false, None, 0x0000000000000000, false),
    (0x40cc200000000000, 4, 7, 41, 41, 0, 0x40a16e4819457cce, false, None, 0x0000000000000000, false),
    (0x40cce80000000000, 4, 7, 41, 41, 0, 0x40a26a6443e4708a, false, None, 0x0000000000000000, false),
    (0x40cdb00000000000, 4, 13, 41, 41, 0, 0x40a383edc3f63ef8, false, None, 0x0000000000000000, false),
    (0x40ce780000000000, 4, 7, 41, 41, 0, 0x40a48eed57bc5b10, false, None, 0x0000000000000000, false),
];

/// `(t_ms, failed_links, failed_nodes, perturbed_elements, trees_total,
/// trees_kept, trees_rebuilt, forced remaps, remaps)` per epoch.
type FailoverRow = (u64, usize, usize, usize, usize, usize, usize, usize, usize);

#[rustfmt::skip]
const FAILOVER: [FailoverRow; 8] = [
    (0x0000000000000000, 0, 0, 0, 0, 0, 0, 0, 0),
    (0x408f400000000000, 2, 0, 0, 123, 40, 83, 0, 0),
    (0x409f400000000000, 2, 0, 0, 123, 47, 76, 0, 0),
    (0x40a7700000000000, 6, 1, 1, 123, 0, 123, 2, 2),
    (0x40af400000000000, 0, 0, 0, 0, 0, 0, 0, 0),
    (0x40b3880000000000, 0, 0, 2, 123, 47, 76, 0, 0),
    (0x40b7700000000000, 2, 0, 1, 123, 123, 0, 0, 0),
    (0x40bb580000000000, 2, 0, 0, 123, 81, 42, 0, 0),
];

#[test]
fn always_policy_reproduces_the_adaptation_loop() {
    let pipe = Pipeline::from_stages(1e6, &[(4.0, 1e5)], 0.5).unwrap();
    for (name, expected) in [
        ("elpc_delay", &ALWAYS_STRICT),
        ("elpc_delay_routed", &ALWAYS_ROUTED),
    ] {
        let report = run_epochs(
            &degrading(),
            &no_faults(),
            &[(pipe.clone(), NodeId(0), NodeId(3))],
            &CostModel::default(),
            EpochConfig {
                period_ms: 500.0,
                policy: RemapPolicy::Always { hysteresis: 0.05 },
                switch_cost_ms: 3.0,
            },
            10_000.0,
            solver(name).unwrap(),
            &ClosureBank::new(),
        )
        .unwrap();
        let got: Vec<AlwaysRow> = report
            .epochs
            .iter()
            .map(|e| {
                let p = &e.pipelines[0];
                let candidate = p.candidate_delay_ms.expect("Always re-solves every epoch");
                let delays = (bits(candidate), bits(p.delay_ms), bits(p.static_delay_ms));
                (bits(e.t_ms), delays.0, delays.1, delays.2, p.switched)
            })
            .collect();
        assert_eq!(got, expected, "{name}");
        let means = (bits(report.adaptive_mean_ms), bits(report.static_mean_ms));
        assert_eq!(
            (report.switches, means),
            (1, (0x40b87f60ff1f1944, 0x40d01ec93baf7fd6)),
            "{name}"
        );
    }
}

#[test]
fn drift_policy_reproduces_the_churn_loop() {
    let (dyn_net, inst) = churn_fixture();
    let bank = ClosureBank::new();
    let report = run_epochs(
        &dyn_net,
        &no_faults(),
        &[(inst.pipeline.clone(), inst.src, inst.dst)],
        &CostModel::default(),
        config(400.0, RemapPolicy::Drift { threshold: 0.08 }),
        16_000.0,
        solver("elpc_delay_routed").unwrap(),
        &bank,
    )
    .unwrap();
    let got: Vec<ChurnRow> = report
        .epochs
        .iter()
        .map(|e| {
            let p = &e.pipelines[0];
            (
                bits(e.t_ms),
                e.changed_links,
                e.changed_nodes,
                e.trees_total,
                e.trees_kept,
                e.trees_rebuilt,
                bits(p.delay_ms),
                p.resolved,
                p.candidate_delay_ms.map(bits),
                bits(p.staleness_ms),
                p.switched,
            )
        })
        .collect();
    assert_eq!(got, CHURN);
    let totals = (report.trees_kept_total, report.trees_rebuilt_total);
    assert_eq!(
        (report.resolves, report.switches, totals),
        (3, 0, (1599, 0))
    );
    assert_eq!(bits(report.adaptive_mean_ms), 0x40a24310851f8850);
    let s = bank.stats();
    assert_eq!((s.hits, s.misses, s.repairs, bank.len()), (39, 1, 39, 1));
}

#[test]
fn drift_policy_with_faults_reproduces_the_failover_loop() {
    let (dyn_net, faults, pipes) = failover_fixture();
    let bank = ClosureBank::new();
    let report: EpochReport = run_epochs(
        &dyn_net,
        &faults,
        &pipes,
        &CostModel::default(),
        config(1_000.0, RemapPolicy::Drift { threshold: 0.02 }),
        8_000.0,
        solver("elpc_delay_routed").unwrap(),
        &bank,
    )
    .unwrap();
    let got: Vec<FailoverRow> = report
        .epochs
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let forced = e.pipelines.iter().filter(|p| p.forced).count();
            // epoch 0's solves are the initial adoption, not remaps
            let resolved = e.pipelines.iter().filter(|p| p.resolved).count();
            let remapped = if i == 0 { 0 } else { resolved };
            let trees = (e.trees_total, e.trees_kept, e.trees_rebuilt);
            (
                bits(e.t_ms),
                e.failed_links,
                e.failed_nodes,
                e.perturbed_elements,
                trees.0,
                trees.1,
                trees.2,
                forced,
                remapped,
            )
        })
        .collect();
    assert_eq!(got, FAILOVER);
    assert_eq!(
        (report.forced_remaps, report.resolves - pipes.len()),
        (2, 2)
    );
    let s = bank.stats();
    assert_eq!((s.misses, s.repairs, bank.len()), (2, 12, 2));
}
