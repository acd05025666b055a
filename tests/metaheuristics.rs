//! Lockdown for the metaheuristic solver family (ISSUE 3): registry
//! membership, seeded-RNG determinism across runs and thread counts, and
//! the `quality_gap ≥ 1` contract against the exact solvers of the same
//! routed search space on 20 small instances. Annealing and the genetic
//! search are rate-only: min-delay with node reuse belongs to the DP.

use elpc::mapping::{
    exact, metaheuristic, solver, AnnealConfig, CostModel, GeneticConfig, Objective, SolveContext,
};
use elpc::workloads::compare::run_case;
use elpc::workloads::InstanceSpec;

fn cost() -> CostModel {
    CostModel::default()
}

#[test]
fn metaheuristics_are_registered_with_the_expected_objectives() {
    for (name, objective) in [
        ("anneal_rate", Objective::MaxRate),
        ("genetic_rate", Objective::MaxRate),
    ] {
        let s = solver(name).unwrap_or_else(|| panic!("`{name}` missing from the registry"));
        assert_eq!(s.objective(), objective, "{name}");
        assert!(!s.is_exact(), "{name} is a heuristic");
    }
}

/// Same seed ⇒ identical mapping, across repeated runs and across context
/// thread counts (the parallel closure warm-up must not leak into the
/// search).
#[test]
fn determinism_same_seed_same_mapping_across_runs_and_thread_counts() {
    let names = ["anneal_rate", "genetic_rate"];
    for seed in 0..10u64 {
        let owned = InstanceSpec::sized(5, 9, 20).generate(seed).unwrap();
        let inst = owned.as_instance();
        for name in names {
            let s = solver(name).expect("registered");
            let lazy = s.solve(&SolveContext::new(inst, cost()));
            let rerun = s.solve(&SolveContext::new(inst, cost()));
            let all_cpus = s.solve(&SolveContext::with_threads(inst, cost(), 0));
            match (lazy, rerun, all_cpus) {
                (Ok(a), Ok(b), Ok(c)) => {
                    assert_eq!(a.assignment, b.assignment, "seed {seed}, {name}: rerun");
                    assert_eq!(a.objective_ms.to_bits(), b.objective_ms.to_bits());
                    assert_eq!(a.assignment, c.assignment, "seed {seed}, {name}: threads");
                    assert_eq!(a.objective_ms.to_bits(), c.objective_ms.to_bits());
                }
                (Err(a), Err(b), Err(c)) => {
                    assert_eq!(a.to_string(), b.to_string(), "seed {seed}, {name}");
                    assert_eq!(a.to_string(), c.to_string(), "seed {seed}, {name}");
                }
                other => panic!("seed {seed}, {name}: divergent feasibility {other:?}"),
            }
        }
    }
}

/// Configs are honored, not ignored. The guaranteed-monotone comparison:
/// with an identical temperature schedule, `restarts = 3` replays the
/// `restarts = 1` chain verbatim (same RNG stream prefix) and then only
/// adds candidates to the best-ever tracking, so its objective can never
/// be worse. (Comparing different `iterations` values would be fragile:
/// the cooling factor — and therefore the acceptance trajectory — depends
/// on the iteration count.)
#[test]
fn configs_are_honored() {
    let owned = InstanceSpec::sized(5, 10, 24).generate(99).unwrap();
    let inst = owned.as_instance();
    let ctx = SolveContext::new(inst, cost());
    let schedule = AnnealConfig {
        iterations: 400,
        restarts: 1,
        ..Default::default()
    };
    let one = metaheuristic::solve_anneal(&ctx, &schedule).unwrap();
    let three = metaheuristic::solve_anneal(
        &ctx,
        &AnnealConfig {
            restarts: 3,
            ..schedule
        },
    )
    .unwrap();
    assert!(three.objective_ms <= one.objective_ms + 1e-9);
    let ga = metaheuristic::solve_genetic(
        &ctx,
        &GeneticConfig {
            population: 8,
            generations: 5,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(ga.objective_ms.is_finite() && ga.objective_ms > 0.0);
}

/// The acceptance contract: on 20 small instances the searches never beat
/// the exact solver of their own search space — `quality_gap ≥ 1.0` for
/// both objectives through the public `workloads::compare` columns, and
/// the rate metaheuristics against the exhaustive reference directly.
#[test]
fn quality_gap_is_at_least_one_against_exact_on_twenty_small_instances() {
    let mut delay_gaps = 0usize;
    let mut rate_gaps = 0usize;
    for seed in 0..20u64 {
        let owned = InstanceSpec::sized(4, 8, 16).generate(seed).unwrap();
        let inst = owned.as_instance();

        // via the public compare column
        let row = run_case(&owned, &cost());
        if let Some(gap) = row.quality_gap_delay {
            assert!(
                gap >= 1.0 - 1e-9,
                "seed {seed}: delay quality_gap {gap} < 1"
            );
            delay_gaps += 1;
        }
        if let Some(gap) = row.quality_gap_rate {
            assert!(gap >= 1.0 - 1e-9, "seed {seed}: rate quality_gap {gap} < 1");
            rate_gaps += 1;
        }

        // and directly against the exact solvers of the same space
        let ctx = SolveContext::new(inst, cost());
        if let Ok(exact_rate) = exact::max_rate_routed(&ctx, exact::ExactLimits::default()) {
            for name in ["anneal_rate", "genetic_rate"] {
                if let Ok(meta) = solver(name).unwrap().solve(&ctx) {
                    assert!(
                        meta.objective_ms >= exact_rate.objective_ms - 1e-9,
                        "seed {seed}: {name} {} beat the routed-exact bottleneck {}",
                        meta.objective_ms,
                        exact_rate.objective_ms
                    );
                }
            }
        }
    }
    assert!(
        delay_gaps >= 15 && rate_gaps >= 15,
        "too few instances produced gaps (delay {delay_gaps}, rate {rate_gaps})"
    );
}

/// The pinned Fig. 2 small case: the compare row must carry a quality gap
/// of at least 1 and LNS should sit essentially on the optimum.
#[test]
fn quality_gap_on_the_pinned_fig2_case() {
    let inst = elpc::workloads::cases::paper_cases()[0].generate().unwrap();
    let row = run_case(&inst, &cost());
    let gap = row.quality_gap_delay.expect("case 1 solves both sides");
    assert!(gap >= 1.0 - 1e-9, "delay gap {gap} < 1 on the pinned case");
    assert!(
        gap <= 1.05,
        "LNS should land within 5% of the optimum on K6 (gap {gap})"
    );
    let rate_gap = row.quality_gap_rate.expect("K6 is within the rate budget");
    assert!(rate_gap >= 1.0 - 1e-9, "rate gap {rate_gap} < 1");
}
