//! Property-based tests for the §5 extension algorithms.

use elpc_extensions::{adaptive, reuse_rate, workflow};
use elpc_mapping::{elpc_delay, elpc_rate, CostModel, Instance, MappingError, NodeId};
use elpc_netsim::dynamics::{DynamicNetwork, LoadModel};
use elpc_netsim::faults::FaultSchedule;
use elpc_netsim::{Link, Network, Node};
use elpc_pipeline::gen::PipelineSpec;
use elpc_pipeline::Pipeline;
use elpc_workloads::ClosureBank;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn build_instance(seed: u64) -> (Network, Pipeline) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let k = rng.gen_range(3usize..=8);
    let links = rng.gen_range(k - 1..=k * (k - 1) / 2);
    let topo = elpc_netgraph::gen::random_connected(k, links, &mut rng).unwrap();
    let powers: Vec<f64> = (0..k).map(|_| rng.gen_range(10.0..1000.0)).collect();
    let mut lr = ChaCha8Rng::seed_from_u64(seed ^ 0xDEAD);
    let net = Network::from_topology(
        &topo,
        |i| Node::with_power(powers[i]),
        |_, _| Link::new(lr.gen_range(1.0..500.0), lr.gen_range(0.05..5.0)),
    )
    .unwrap();
    let n = rng.gen_range(2usize..=6);
    let pipe = PipelineSpec {
        modules: n,
        ..Default::default()
    }
    .generate(&mut rng)
    .unwrap();
    (net, pipe)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Grouping strictly generalizes one-to-one mapping: wherever the
    /// strict no-reuse solver succeeds, the reuse solver is at least as
    /// good; and the reuse solver solves a superset of instances.
    #[test]
    fn reuse_rate_generalizes_strict_rate(seed in any::<u64>()) {
        let (net, pipe) = build_instance(seed);
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId((net.node_count() - 1) as u32)).unwrap();
        let cm = CostModel::default();
        match (elpc_rate::solve(&inst, &cm), reuse_rate::solve(&inst, &cm)) {
            (Ok(strict), Ok(grouped)) => {
                prop_assert!(grouped.bottleneck_ms <= strict.bottleneck_ms + 1e-9);
            }
            // reuse feasible where strict is not: fine (that is the point)
            (Err(MappingError::Infeasible(_)), Ok(_)) => {}
            (Err(MappingError::Infeasible(_)), Err(MappingError::Infeasible(_))) => {}
            // strict feasible but grouped infeasible would be a bug:
            // every one-to-one mapping IS a grouped mapping
            (Ok(s), Err(e)) => prop_assert!(false, "grouped lost a feasible instance: {s:?} vs {e:?}"),
            (a, b) => prop_assert!(false, "unexpected: {a:?} vs {b:?}"),
        }
    }

    /// The grouped-rate solution always re-evaluates to its objective and
    /// never revisits a node.
    #[test]
    fn reuse_rate_solutions_are_consistent(seed in any::<u64>()) {
        let (net, pipe) = build_instance(seed);
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId((net.node_count() - 1) as u32)).unwrap();
        let cm = CostModel::default();
        if let Ok(sol) = reuse_rate::solve(&inst, &cm) {
            prop_assert!(sol.mapping.uses_distinct_nodes());
            let re = cm.bottleneck_ms(&inst, &sol.mapping).unwrap();
            prop_assert!((re - sol.bottleneck_ms).abs() <= 1e-6 * sol.bottleneck_ms.max(1.0));
        }
    }

    /// HEFT on a chain workflow can never beat the optimal delay DP, and
    /// its schedule is causally consistent.
    #[test]
    fn dag_scheduler_is_sound_on_chains(seed in any::<u64>()) {
        let (net, pipe) = build_instance(seed);
        let (src, dst) = (NodeId(0), NodeId((net.node_count() - 1) as u32));
        let inst = Instance::new(&net, &pipe, src, dst).unwrap();
        let cm = CostModel::default();
        let wf = workflow::DagWorkflow::from_pipeline(&pipe);
        let n = pipe.len();
        if let (Ok(opt), Ok(sched)) = (
            elpc_delay::solve(&inst, &cm),
            workflow::map_dag(&wf, &net, &cm, &[(0, src), (n - 1, dst)]),
        ) {
            // routed HEFT can exploit shortcuts the strict DP cannot, so
            // compare against the routed-overlay optimum instead
            let routed_opt = elpc_delay::solve_routed(&inst, &cm).unwrap();
            prop_assert!(sched.makespan_ms + 1e-6 >= routed_opt.objective_ms,
                "HEFT {} beat the routed optimum {}", sched.makespan_ms, routed_opt.objective_ms);
            let _ = opt;
            for i in 0..n {
                prop_assert!(sched.start_ms[i] <= sched.finish_ms[i] + 1e-12);
            }
            for i in 1..n {
                // chain: module i starts after its predecessor finishes
                prop_assert!(sched.start_ms[i] + 1e-9 >= sched.finish_ms[i - 1]);
            }
        }
    }

    /// The adaptive loop's epoch-0 candidate lower-bounds both strategies
    /// at every later epoch evaluated on its own snapshot, and the static
    /// strategy never switches.
    #[test]
    fn adaptive_invariants(seed in any::<u64>()) {
        let (net, pipe) = build_instance(seed);
        let (src, dst) = (NodeId(0), NodeId((net.node_count() - 1) as u32));
        let cm = CostModel::default();
        let k = net.node_count();
        let links = net.link_count();
        let node_models: Vec<LoadModel> = (0..k)
            .map(|i| LoadModel::RandomEpochs { epoch_ms: 400.0, floor: 0.4, seed: seed ^ i as u64 })
            .collect();
        let link_models = vec![LoadModel::Constant(1.0); links];
        let dyn_net = DynamicNetwork::new(net, node_models, link_models).unwrap();
        let report = match adaptive::run_epochs(
            &dyn_net, &FaultSchedule::from_events(vec![]), &[(pipe, src, dst)], &cm,
            adaptive::EpochConfig {
                period_ms: 500.0,
                policy: adaptive::RemapPolicy::Always { hysteresis: 0.1 },
                switch_cost_ms: 10.0,
            },
            4000.0, elpc_mapping::solver("elpc_delay").expect("registered"), &ClosureBank::new(),
        ) {
            Ok(r) => r,
            Err(MappingError::Infeasible(_)) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
        };
        prop_assert_eq!(report.epochs.len(), 8);
        for e in &report.epochs {
            let p = &e.pipelines[0];
            let candidate = p.candidate_delay_ms.expect("Always re-solves every epoch");
            prop_assert!(candidate <= p.static_delay_ms + 1e-9);
            // the hysteresis rule bounds how far the retained mapping may
            // lag the optimum: no switch happens only while
            // retained < candidate / (1 - hysteresis); a switch costs 10 ms
            prop_assert!(
                p.delay_ms <= candidate / (1.0 - 0.1) + 10.0 + 1e-9,
                "epoch at {} ms: adaptive {} exceeds hysteresis bound of candidate {}",
                e.t_ms, p.delay_ms, candidate
            );
        }
        prop_assert!(!report.epochs[0].pipelines[0].switched);
    }
}
