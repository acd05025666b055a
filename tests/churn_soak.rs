//! Churn-loop soak: a long seeded [`DynamicNetwork`] run with mixed load
//! models (sinusoids, random epochs, and static elements) driven through
//! the epoch engine (`run_epochs`, no faults, `Drift` policy), with the
//! accounting pinned exactly:
//!
//! * every epoch's repair partitions the closure — kept + rebuilt == total;
//! * the bank is consulted exactly once per epoch, and only epoch 0 ever
//!   misses: in-place repair turns every churned epoch into a hit;
//! * `repairs` equals the number of epochs whose snapshot actually moved
//!   (the `changes_between` set was non-empty);
//! * on every re-solve epoch the candidate delay is bit-identical to an
//!   independent cold solve of that snapshot — the differential proof that
//!   repaired closures never leak into solver results;
//! * the whole run is deterministic: a second run reproduces the report
//!   bit for bit.

use elpc_extensions::adaptive::{run_epochs, EpochConfig, RemapPolicy};
use elpc_mapping::{solver, CostModel, EdgeId, Instance, SolveContext};
use elpc_netsim::dynamics::{DynamicNetwork, LoadModel};
use elpc_netsim::faults::FaultSchedule;
use elpc_workloads::{ClosureBank, InstanceSpec};

const PERIOD_MS: f64 = 400.0;
const HORIZON_MS: f64 = 16_000.0;
const EPOCHS: usize = 40;

/// A 20-node network where roughly a third of the nodes and half of the
/// links move, under three different load-model families.
fn dyn_fixture() -> (DynamicNetwork, elpc_workloads::ProblemInstance) {
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
    // sparse link churn on the *slowest* links plus two mid-speed ones —
    // load-driven drift hits congested links, which shortest-path trees
    // mostly avoid, so the kept-majority path is actually exercised.
    // (Churning a fast link invalidates nearly every tree: it is some
    // node's dominant parent edge, and every spanning tree has a parent
    // edge per node — that regime is covered by the bench's 20-link row
    // and the adaptive module's link-churn test.)
    let mut by_bw: Vec<(f64, usize)> = (0..net.link_count())
        .map(|k| {
            let link = net.link(EdgeId((2 * k) as u32)).expect("valid link");
            (link.bw_mbps, k)
        })
        .collect();
    by_bw.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite bw"));
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
    let dyn_net = DynamicNetwork::new(net, node_models, link_models).expect("shapes match");
    (dyn_net, inst)
}

#[test]
fn long_churn_run_has_exact_repair_and_bank_accounting() {
    let (dyn_net, inst) = dyn_fixture();
    let cost = CostModel::default();
    let config = EpochConfig {
        period_ms: PERIOD_MS,
        policy: RemapPolicy::Drift { threshold: 0.08 },
        switch_cost_ms: 0.0,
    };
    let remap = solver("elpc_delay_routed").expect("registered");

    let bank = ClosureBank::new();
    let report = run_epochs(
        &dyn_net,
        &FaultSchedule::from_events(vec![]),
        &[(inst.pipeline.clone(), inst.src, inst.dst)],
        &cost,
        config,
        HORIZON_MS,
        remap,
        &bank,
    )
    .expect("churn run");

    assert_eq!(report.epochs.len(), EPOCHS);
    assert!(report.resolves >= 1, "epoch 0 always solves");
    assert_eq!(
        report.resolves,
        report
            .epochs
            .iter()
            .filter(|e| e.pipelines[0].resolved)
            .count()
    );
    assert_eq!(
        report.switches,
        report
            .epochs
            .iter()
            .filter(|e| e.pipelines[0].switched)
            .count()
    );

    // per-epoch repair partition and field consistency
    let mut churned_epochs = 0u64;
    for e in &report.epochs {
        assert_eq!(
            e.trees_kept + e.trees_rebuilt,
            e.trees_total,
            "t={}: repair must partition the closure",
            e.t_ms
        );
        if e.changed_links + e.changed_nodes > 0 {
            churned_epochs += 1;
            assert!(
                e.trees_total > 0,
                "t={}: a moved snapshot must repair a non-empty entry",
                e.t_ms
            );
        } else {
            assert_eq!(e.trees_total, 0, "t={}: nothing moved", e.t_ms);
        }
        let p = &e.pipelines[0];
        if p.resolved {
            assert!(p.candidate_delay_ms.is_some());
        } else {
            assert!(p.candidate_delay_ms.is_none());
            assert_eq!(p.staleness_ms, 0.0);
        }
        assert!(p.delay_ms.is_finite() && p.delay_ms > 0.0);
    }
    assert!(
        churned_epochs >= EPOCHS as u64 / 2,
        "the fixture must actually churn (got {churned_epochs} moved epochs)"
    );
    assert!(
        report.trees_kept_total > report.trees_rebuilt_total,
        "most trees must survive each perturbation ({} kept vs {} rebuilt)",
        report.trees_kept_total,
        report.trees_rebuilt_total
    );

    // the bank invariants: one checkout per epoch, repairs keep everything
    // after epoch 0 a hit, and repairs are not checkouts
    let stats = bank.stats();
    assert_eq!(stats.hits + stats.misses, EPOCHS as u64);
    assert_eq!(stats.misses, 1, "only epoch 0 builds cold");
    assert_eq!(
        stats.repairs, churned_epochs,
        "one in-place repair per moved snapshot"
    );
    assert_eq!(bank.len(), 1, "the entry migrates; it never duplicates");

    // differential proof: every re-solve epoch's candidate is bit-identical
    // to an independent cold solve of that snapshot
    for e in report.epochs.iter().filter(|e| e.pipelines[0].resolved) {
        let snapshot = dyn_net.snapshot_at(e.t_ms);
        let cold_inst =
            Instance::new(&snapshot, &inst.pipeline, inst.src, inst.dst).expect("valid instance");
        let ctx = SolveContext::new(cold_inst, cost);
        let cold = remap.solve(&ctx).expect("cold solve");
        assert_eq!(
            cold.objective_ms.to_bits(),
            e.pipelines[0]
                .candidate_delay_ms
                .expect("resolved")
                .to_bits(),
            "t={}: repaired-closure candidate differs from a cold solve",
            e.t_ms
        );
    }
}

#[test]
fn churn_runs_are_deterministic() {
    let (dyn_net, inst) = dyn_fixture();
    let cost = CostModel::default();
    let config = EpochConfig {
        period_ms: PERIOD_MS,
        policy: RemapPolicy::Drift { threshold: 0.08 },
        switch_cost_ms: 0.0,
    };
    let remap = solver("elpc_delay_routed").expect("registered");
    let run = || {
        let bank = ClosureBank::new();
        run_epochs(
            &dyn_net,
            &FaultSchedule::from_events(vec![]),
            &[(inst.pipeline.clone(), inst.src, inst.dst)],
            &cost,
            config,
            HORIZON_MS,
            remap,
            &bank,
        )
        .expect("churn run")
    };
    assert_eq!(run(), run(), "two identical runs must agree bit for bit");
}
