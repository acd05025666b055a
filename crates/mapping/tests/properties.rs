//! Property-based tests for the mapping solvers.
//!
//! These encode the paper's central claims as machine-checked properties:
//!
//! * §3.1.1's optimality proof — the ELPC-delay DP equals exhaustive search;
//! * Eq. 2 ≤ Eq. 1 — a bottleneck never exceeds the total delay;
//! * the ELPC-rate heuristic never beats the exact optimum, and wider label
//!   sets never hurt it;
//! * baselines never beat the optimal DP on the delay objective.

use elpc_mapping::{
    elpc_delay, elpc_rate, exact, greedy, lns, portfolio, solver, tabu, CostModel, Instance,
    LnsConfig, MappingError, NodeId, Objective, SolveContext, TabuConfig,
};
use elpc_netsim::{Link, Network, Node};
use elpc_pipeline::gen::PipelineSpec;
use elpc_pipeline::Pipeline;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Builds a random connected instance from a seed: 4..=9 nodes, feasible
/// link budget, 2..=min(k,6) modules.
fn build_instance(seed: u64) -> (Network, Pipeline) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let k = rng.gen_range(4usize..=9);
    let max_links = k * (k - 1) / 2;
    let links = rng.gen_range(k - 1..=max_links);
    let topo = elpc_netgraph::gen::random_connected(k, links, &mut rng).unwrap();
    let powers: Vec<f64> = (0..k).map(|_| rng.gen_range(5.0..2000.0)).collect();
    let mut link_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED);
    let net = Network::from_topology(
        &topo,
        |i| Node::with_power(powers[i]),
        |_, _| {
            Link::new(
                link_rng.gen_range(1.0..1000.0),
                link_rng.gen_range(0.01..10.0),
            )
        },
    )
    .unwrap();
    let n = rng.gen_range(2usize..=k.min(6));
    let pipe = PipelineSpec {
        modules: n,
        ..Default::default()
    }
    .generate(&mut rng)
    .unwrap();
    (net, pipe)
}

fn endpoints(net: &Network) -> (NodeId, NodeId) {
    (NodeId(0), NodeId((net.node_count() - 1) as u32))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// §3.1.1: "the final solution is optimal for a given mapping problem".
    #[test]
    fn elpc_delay_is_optimal(seed in any::<u64>()) {
        let (net, pipe) = build_instance(seed);
        let (src, dst) = endpoints(&net);
        let inst = Instance::new(&net, &pipe, src, dst).unwrap();
        let cm = CostModel::default();
        match (elpc_delay::solve(&inst, &cm), exact::min_delay(&inst, &cm, exact::ExactLimits::default())) {
            (Ok(dp), Ok(ex)) => {
                prop_assert!((dp.delay_ms - ex.delay_ms).abs() <= 1e-6 * ex.delay_ms.max(1.0),
                    "DP {} vs exact {}", dp.delay_ms, ex.delay_ms);
            }
            (Err(MappingError::Infeasible(_)), Err(MappingError::Infeasible(_))) => {}
            (dp, ex) => prop_assert!(false, "disagreement: {dp:?} vs {ex:?}"),
        }
    }

    /// The heuristic can never do better than the exact optimum, and its
    /// solution re-evaluates consistently under the cost model.
    #[test]
    fn elpc_rate_never_beats_exact(seed in any::<u64>()) {
        let (net, pipe) = build_instance(seed);
        let (src, dst) = endpoints(&net);
        let inst = Instance::new(&net, &pipe, src, dst).unwrap();
        let cm = CostModel::default();
        let ex = exact::max_rate(&inst, &cm, exact::ExactLimits::default());
        let heur = elpc_rate::solve(&inst, &cm);
        match (&ex, &heur) {
            (Ok(ex), Ok(h)) => {
                prop_assert!(ex.bottleneck_ms <= h.bottleneck_ms + 1e-9);
                let re = cm.bottleneck_ms(&inst, &h.mapping).unwrap();
                prop_assert!((re - h.bottleneck_ms).abs() < 1e-6 * h.bottleneck_ms.max(1.0));
            }
            (Err(MappingError::Infeasible(_)), Err(MappingError::Infeasible(_))) => {}
            // heuristic may miss a path exact finds; never the reverse
            (Ok(_), Err(MappingError::Infeasible(_))) => {}
            (ex, h) => prop_assert!(false, "unexpected: {ex:?} vs {h:?}"),
        }
    }

    /// Widening the label set is monotone: K labels never worsen the result.
    #[test]
    fn k_labels_are_monotone(seed in any::<u64>()) {
        let (net, pipe) = build_instance(seed);
        let (src, dst) = endpoints(&net);
        let inst = Instance::new(&net, &pipe, src, dst).unwrap();
        let cm = CostModel::default();
        let k1 = elpc_rate::solve_with(&inst, &cm, elpc_rate::RateConfig { k_labels: 1 });
        let k4 = elpc_rate::solve_with(&inst, &cm, elpc_rate::RateConfig { k_labels: 4 });
        match (k1, k4) {
            (Ok(a), Ok(b)) => prop_assert!(b.bottleneck_ms <= a.bottleneck_ms + 1e-9),
            (Err(MappingError::Infeasible(_)), Err(MappingError::Infeasible(_))) => {}
            // K=4 may find a path K=1 misses; never the reverse
            (Err(MappingError::Infeasible(_)), Ok(_)) => {}
            (a, b) => prop_assert!(false, "unexpected: {a:?} vs {b:?}"),
        }
    }

    /// Eq. 2 ≤ Eq. 1: the slowest stage cannot exceed the sum of stages.
    #[test]
    fn bottleneck_never_exceeds_delay(seed in any::<u64>()) {
        let (net, pipe) = build_instance(seed);
        let (src, dst) = endpoints(&net);
        let inst = Instance::new(&net, &pipe, src, dst).unwrap();
        let cm = CostModel::default();
        if let Ok(sol) = elpc_delay::solve(&inst, &cm) {
            let b = cm.bottleneck_ms(&inst, &sol.mapping).unwrap();
            prop_assert!(b <= sol.delay_ms + 1e-9);
        }
        if let Ok(sol) = elpc_rate::solve(&inst, &cm) {
            let d = cm.delay_ms(&inst, &sol.mapping).unwrap();
            prop_assert!(sol.bottleneck_ms <= d + 1e-9);
        }
    }

    /// The optimal DP dominates the greedy baseline on every instance
    /// (Fig. 5's qualitative shape).
    #[test]
    fn greedy_never_beats_elpc_delay(seed in any::<u64>()) {
        let (net, pipe) = build_instance(seed);
        let (src, dst) = endpoints(&net);
        let inst = Instance::new(&net, &pipe, src, dst).unwrap();
        let cm = CostModel::default();
        if let (Ok(e), Ok(g)) = (elpc_delay::solve(&inst, &cm), greedy::solve_min_delay(&inst, &cm)) {
            prop_assert!(e.delay_ms <= g.delay_ms + 1e-9,
                "ELPC {} must dominate greedy {}", e.delay_ms, g.delay_ms);
        }
    }

    /// Greedy rate solutions, when they exist, are valid one-to-one
    /// mappings and never beat the exact optimum.
    #[test]
    fn greedy_rate_solutions_are_sound(seed in any::<u64>()) {
        let (net, pipe) = build_instance(seed);
        let (src, dst) = endpoints(&net);
        let inst = Instance::new(&net, &pipe, src, dst).unwrap();
        let cm = CostModel::default();
        if let Ok(g) = greedy::solve_max_rate(&inst, &cm) {
            prop_assert!(g.mapping.is_one_to_one());
            g.mapping.validate(&inst, true).unwrap();
            if let Ok(ex) = exact::max_rate(&inst, &cm, exact::ExactLimits::default()) {
                prop_assert!(ex.bottleneck_ms <= g.bottleneck_ms + 1e-9);
            }
        }
    }

    /// Tabu search (rate-only) is seed-deterministic — the same seed yields
    /// the same mapping whether the context is lazy-serial (`threads = 1`)
    /// or all-CPU (`threads = 0`) — and, because the greedy solution is one
    /// of its starting candidates, never worse than greedy on the same
    /// instance (greedy's strict objective upper-bounds its own routed
    /// re-evaluation).
    #[test]
    fn tabu_is_deterministic_and_never_worse_than_greedy(seed in any::<u64>()) {
        let (net, pipe) = build_instance(seed);
        let (src, dst) = endpoints(&net);
        let inst = Instance::new(&net, &pipe, src, dst).unwrap();
        let cm = CostModel::default();
        let config = TabuConfig::default();
        let serial = tabu::solve_tabu(&SolveContext::new(inst, cm), &config);
        let parallel = tabu::solve_tabu(&SolveContext::with_threads(inst, cm, 0), &config);
        match (&serial, &parallel) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.assignment, &b.assignment);
                prop_assert_eq!(a.objective_ms.to_bits(), b.objective_ms.to_bits());
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            other => prop_assert!(false, "divergent feasibility {:?}", other),
        }
        let greedy_ms = greedy::solve_max_rate(&inst, &cm).ok().map(|s| s.bottleneck_ms);
        if let (Ok(t), Some(g)) = (&serial, greedy_ms) {
            prop_assert!(t.objective_ms <= g + 1e-9 * g.max(1.0),
                "tabu {} worse than greedy {}", t.objective_ms, g);
        }
    }

    /// LNS is seed-deterministic at any thread count and — starting from
    /// the same warm-start candidates as tabu (greedy among them) — never
    /// worse than greedy on the same instance.
    #[test]
    fn lns_is_deterministic_and_never_worse_than_greedy(seed in any::<u64>()) {
        let (net, pipe) = build_instance(seed);
        let (src, dst) = endpoints(&net);
        let inst = Instance::new(&net, &pipe, src, dst).unwrap();
        let cm = CostModel::default();
        for objective in [Objective::MinDelay, Objective::MaxRate] {
            let config = LnsConfig {
                budget: 600,
                ..Default::default()
            };
            let serial = lns::solve_lns(&SolveContext::new(inst, cm), objective, &config);
            let parallel =
                lns::solve_lns(&SolveContext::with_threads(inst, cm, 0), objective, &config);
            match (&serial, &parallel) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.assignment, &b.assignment);
                    prop_assert_eq!(a.objective_ms.to_bits(), b.objective_ms.to_bits());
                }
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                other => prop_assert!(false, "divergent feasibility {:?}", other),
            }
            let greedy_ms = match objective {
                Objective::MinDelay => greedy::solve_min_delay(&inst, &cm).ok().map(|s| s.delay_ms),
                Objective::MaxRate => {
                    greedy::solve_max_rate(&inst, &cm).ok().map(|s| s.bottleneck_ms)
                }
            };
            if let (Ok(l), Some(g)) = (&serial, greedy_ms) {
                prop_assert!(l.objective_ms <= g + 1e-9 * g.max(1.0),
                    "lns {} worse than greedy {} ({objective:?})", l.objective_ms, g);
            }
        }
    }

    /// The portfolio registry entries are deterministic across thread
    /// counts (the winner is chosen by value with a fixed tie-break, the
    /// context's `warm_threads` only sets the worker count) and — greedy
    /// being a slate member — never worse than greedy.
    #[test]
    fn portfolio_is_deterministic_and_never_worse_than_greedy(seed in any::<u64>()) {
        let (net, pipe) = build_instance(seed);
        let (src, dst) = endpoints(&net);
        let inst = Instance::new(&net, &pipe, src, dst).unwrap();
        let cm = CostModel::default();
        for (name, objective) in [
            ("portfolio_delay", Objective::MinDelay),
            ("portfolio_rate", Objective::MaxRate),
        ] {
            let s = solver(name).expect("registered");
            let serial = s.solve(&SolveContext::new(inst, cm));
            let parallel = s.solve(&SolveContext::with_threads(inst, cm, 0));
            match (&serial, &parallel) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.assignment, &b.assignment);
                    prop_assert_eq!(a.objective_ms.to_bits(), b.objective_ms.to_bits());
                }
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                other => prop_assert!(false, "divergent feasibility {:?}", other),
            }
            let greedy_ms = match objective {
                Objective::MinDelay => greedy::solve_min_delay(&inst, &cm).ok().map(|s| s.delay_ms),
                Objective::MaxRate => {
                    greedy::solve_max_rate(&inst, &cm).ok().map(|s| s.bottleneck_ms)
                }
            };
            if let (Ok(p), Some(g)) = (&serial, greedy_ms) {
                prop_assert!(p.objective_ms <= g + 1e-9 * g.max(1.0),
                    "{name} {} worse than greedy {}", p.objective_ms, g);
            }
            // a direct race agrees with the registry entry
            if let Ok(p) = &serial {
                let race = portfolio::solve_portfolio(&SolveContext::new(inst, cm), objective)
                    .unwrap();
                prop_assert_eq!(race.solution.objective_ms.to_bits(), p.objective_ms.to_bits());
                prop_assert_eq!(&race.solution.assignment, &p.assignment);
            }
        }
    }

    /// Removing the MLD term can only shrink delays (ablation A1 direction).
    #[test]
    fn dropping_mld_never_increases_optimal_delay(seed in any::<u64>()) {
        let (net, pipe) = build_instance(seed);
        let (src, dst) = endpoints(&net);
        let inst = Instance::new(&net, &pipe, src, dst).unwrap();
        let with = elpc_delay::solve(&inst, &CostModel { include_mld: true });
        let without = elpc_delay::solve(&inst, &CostModel { include_mld: false });
        if let (Ok(w), Ok(wo)) = (with, without) {
            prop_assert!(wo.delay_ms <= w.delay_ms + 1e-9);
        }
    }
}
