//! The portfolio meta-solver bench: the concurrent slate race on one
//! shared closure vs its best single member solving cold, per-member
//! attribution timings for the whole delay slate, and tabu vs
//! anneal/genetic at **equal move budgets** (5000 candidate evaluations
//! each). The `BENCH_portfolio.json` artifact tracks all of it across
//! commits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use elpc_mapping::{metaheuristic, portfolio, solver, tabu, CostModel, Objective, SolveContext};
use elpc_workloads::InstanceSpec;
use std::hint::black_box;
use std::time::Duration;

fn bench_portfolio(c: &mut Criterion) {
    let cost = CostModel::default();
    // the metaheuristics bench's mid-size shape: the closure build
    // dominates a cold solve, warm solves are milliseconds
    let inst_owned = InstanceSpec::sized(10, 30, 110).generate(0xA11E).unwrap();
    let inst = inst_owned.as_instance();

    let mut group = c.benchmark_group("portfolio");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    // the race on a shared, already-warm closure — serial and all-CPU
    // workers produce identical results; only wall time differs. The
    // worker count is the context's, so each gets a context over the one
    // warm closure (its first race snapshots that context's eval kernel)
    let warm = SolveContext::new(inst, cost);
    let _ = portfolio::solve_portfolio(&warm, Objective::MinDelay);
    for (label, threads) in [("shared_serial_t1", 1usize), ("shared_parallel_t0", 0usize)] {
        let ctx = SolveContext::from_shared(inst, warm.closure_arc(), threads)
            .expect("the warm closure covers this network");
        let _ = portfolio::solve_portfolio(&ctx, Objective::MinDelay);
        group.bench_with_input(BenchmarkId::new("race", label), &ctx, |b, ctx| {
            b.iter(|| black_box(portfolio::solve_portfolio(ctx, Objective::MinDelay)))
        });
    }

    // vs the best single member paying for its own closure (the
    // pre-portfolio comparison point), and the race itself cold
    group.bench_function("race/best_member_cold", |b| {
        let s = solver("elpc_delay_routed").expect("registered");
        b.iter(|| {
            let ctx = SolveContext::new(inst, cost);
            black_box(s.solve(&ctx))
        })
    });
    group.bench_function("race/portfolio_cold_t0", |b| {
        b.iter(|| {
            let ctx = SolveContext::with_threads(inst, cost, 0);
            black_box(portfolio::solve_portfolio(&ctx, Objective::MinDelay))
        })
    });

    // per-member attribution: every delay-slate member alone on the
    // warm context — the timing breakdown behind the race entries
    for name in portfolio::DELAY_SLATE {
        let s = solver(name).expect("registered");
        group.bench_with_input(BenchmarkId::new("member", name), &s, |b, s| {
            b.iter(|| black_box(s.solve(&warm)))
        });
    }

    // tabu vs anneal vs genetic at an equal budget of 5000 candidate
    // evaluations, all warm — the classical-baseline comparison from the
    // dispersed-computing literature
    let tabu_cfg = tabu::TabuConfig {
        iterations: 250,
        neighborhood: 20,
        ..Default::default()
    };
    let anneal_cfg = metaheuristic::AnnealConfig {
        iterations: 2500,
        restarts: 2,
        ..Default::default()
    };
    let genetic_cfg = metaheuristic::GeneticConfig {
        population: 50,
        generations: 100,
        ..Default::default()
    };
    group.bench_function("equal_budget/tabu_delay", |b| {
        b.iter(|| black_box(tabu::solve_tabu(&warm, Objective::MinDelay, &tabu_cfg)))
    });
    group.bench_function("equal_budget/anneal_delay", |b| {
        b.iter(|| {
            black_box(metaheuristic::solve_anneal(
                &warm,
                Objective::MinDelay,
                &anneal_cfg,
            ))
        })
    });
    group.bench_function("equal_budget/genetic_delay", |b| {
        b.iter(|| {
            black_box(metaheuristic::solve_genetic(
                &warm,
                Objective::MinDelay,
                &genetic_cfg,
            ))
        })
    });
    // the quality side of the equal-budget comparison, for the log
    let optimum = solver("elpc_delay_routed")
        .expect("registered")
        .solve(&warm)
        .expect("feasible")
        .objective_ms;
    for (name, ms) in [
        (
            "tabu",
            tabu::solve_tabu(&warm, Objective::MinDelay, &tabu_cfg)
                .expect("feasible")
                .objective_ms,
        ),
        (
            "anneal",
            metaheuristic::solve_anneal(&warm, Objective::MinDelay, &anneal_cfg)
                .expect("feasible")
                .objective_ms,
        ),
        (
            "genetic",
            metaheuristic::solve_genetic(&warm, Objective::MinDelay, &genetic_cfg)
                .expect("feasible")
                .objective_ms,
        ),
    ] {
        eprintln!(
            "equal-budget quality {name}: {ms:.1} ms (gap {:.4} vs routed optimum)",
            ms / optimum
        );
    }
    group.finish();
}

criterion_group!(benches, bench_portfolio);
criterion_main!(benches);
