//! Integration coverage for the unified solver registry: every entry point
//! is reachable by name from the umbrella crate, the comparison harness's
//! columns are backed by registered solvers, and running through the
//! registry is observationally identical to calling the algorithms
//! directly.

use elpc::mapping::{
    elpc_delay, elpc_rate, greedy, registry, solver, streamline, CostModel, Objective, SolveContext,
};
use elpc::workloads::cases;
use elpc::workloads::compare::{run_case, run_solvers, Outcome, CASE_COLUMNS};

fn cost() -> CostModel {
    CostModel::default()
}

#[test]
fn all_entry_points_are_registered() {
    let names: Vec<&str> = registry().iter().map(|s| s.name()).collect();
    assert!(names.len() >= 7, "registry holds {} solvers", names.len());
    for column in CASE_COLUMNS {
        assert!(
            solver(column).is_some(),
            "compare column `{column}` has no registered solver"
        );
    }
    for s in registry() {
        assert!(matches!(
            s.objective(),
            Objective::MinDelay | Objective::MaxRate
        ));
    }
}

#[test]
fn registry_matches_direct_calls_on_suite_cases() {
    for case in &cases::paper_cases()[..3] {
        let owned = case.generate().unwrap();
        let inst = owned.as_instance();
        let ctx = SolveContext::new(inst, cost());

        let direct = elpc_delay::solve(&inst, &cost()).unwrap();
        let via = solver("elpc_delay").unwrap().solve(&ctx).unwrap();
        assert_eq!(via.objective_ms.to_bits(), direct.delay_ms.to_bits());

        let direct = elpc_delay::solve_routed(&inst, &cost()).unwrap();
        let via = solver("elpc_delay_routed").unwrap().solve(&ctx).unwrap();
        assert_eq!(via.objective_ms.to_bits(), direct.objective_ms.to_bits());
        assert_eq!(via.assignment, direct.assignment);

        if let Ok(direct) = elpc_rate::solve(&inst, &cost()) {
            let via = solver("elpc_rate").unwrap().solve(&ctx).unwrap();
            assert_eq!(via.objective_ms.to_bits(), direct.bottleneck_ms.to_bits());
        }
        let direct = streamline::solve_min_delay(&inst, &cost()).unwrap();
        let via = solver("streamline_delay").unwrap().solve(&ctx).unwrap();
        assert_eq!(via.objective_ms.to_bits(), direct.objective_ms.to_bits());

        let direct = greedy::solve_min_delay(&inst, &cost()).unwrap();
        let via = solver("greedy_delay").unwrap().solve(&ctx).unwrap();
        assert_eq!(via.objective_ms.to_bits(), direct.delay_ms.to_bits());
    }
}

#[test]
fn case_rows_are_backed_by_the_registry() {
    let owned = cases::paper_cases()[1].generate().unwrap();
    let row = run_case(&owned, &cost());
    let named = run_solvers(&owned, &cost(), &CASE_COLUMNS);
    let by_name = |n: &str| -> &Outcome { &named.iter().find(|(name, _)| name == n).unwrap().1 };
    assert_eq!(&row.delay_elpc, by_name("elpc_delay_routed"));
    assert_eq!(&row.delay_elpc_strict, by_name("elpc_delay"));
    assert_eq!(&row.delay_streamline, by_name("streamline_delay"));
    assert_eq!(&row.delay_greedy, by_name("greedy_delay"));
    assert_eq!(&row.rate_elpc, by_name("elpc_rate_routed"));
    assert_eq!(&row.rate_elpc_strict, by_name("elpc_rate"));
    assert_eq!(&row.rate_streamline, by_name("streamline_rate"));
    assert_eq!(&row.rate_greedy, by_name("greedy_rate"));
    assert_eq!(&row.rate_anneal, by_name("anneal_rate"));
    assert_eq!(&row.rate_genetic, by_name("genetic_rate"));
}

#[test]
fn shared_context_produces_cache_hits_across_solvers() {
    let owned = cases::paper_cases()[2].generate().unwrap();
    let inst = owned.as_instance();
    let ctx = SolveContext::new(inst, cost());
    for s in registry() {
        if s.name().starts_with("exact") {
            continue; // exponential; not needed to demonstrate sharing
        }
        let _ = s.solve(&ctx);
    }
    let stats = ctx.closure().stats();
    assert!(stats.misses > 0, "routed solvers must populate the closure");
    assert!(
        stats.hits > stats.misses,
        "sharing across solvers should be hit-dominated: {stats:?}"
    );
}

#[test]
fn adaptive_control_loop_accepts_any_delay_solver() {
    use elpc::extensions::adaptive::{run_epochs, EpochConfig, RemapPolicy};
    use elpc::netsim::dynamics::DynamicNetwork;
    use elpc::netsim::faults::FaultSchedule;
    use elpc::prelude::*;
    use elpc::workloads::ClosureBank;

    let mut b = Network::builder();
    let s = b.add_node(1_000.0).unwrap();
    let a = b.add_node(10_000.0).unwrap();
    let d = b.add_node(1_000.0).unwrap();
    b.add_link(s, a, 622.0, 1.0).unwrap();
    b.add_link(a, d, 622.0, 1.0).unwrap();
    let dyn_net = DynamicNetwork::steady(b.build().unwrap());
    let pipe = Pipeline::from_stages(1e6, &[(2.0, 1e5)], 0.5).unwrap();
    let run = |name: &str, policy: RemapPolicy| {
        run_epochs(
            &dyn_net,
            &FaultSchedule::from_events(vec![]),
            &[(pipe.clone(), s, d)],
            &cost(),
            EpochConfig {
                period_ms: 1_000.0,
                policy,
                switch_cost_ms: 0.0,
            },
            3_000.0,
            solver(name).unwrap(),
            &ClosureBank::new(),
        )
    };

    for name in [
        "elpc_delay",
        "elpc_delay_routed",
        "streamline_delay",
        "greedy_delay",
    ] {
        for policy in [
            RemapPolicy::Always { hysteresis: 0.10 },
            RemapPolicy::Drift { threshold: 0.10 },
        ] {
            let report = run(name, policy).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(report.switches, 0, "{name} switched on a steady network");
        }
    }
    // rate solvers are rejected up front
    let err = run("elpc_rate", RemapPolicy::Always { hysteresis: 0.10 });
    assert!(err.is_err());
}
