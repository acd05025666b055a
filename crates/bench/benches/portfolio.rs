//! The portfolio meta-solver bench: the concurrent slate race on one
//! shared closure vs its best single member solving cold, and per-member
//! attribution timings for the whole delay slate. The
//! `BENCH_portfolio.json` artifact tracks all of it across commits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use elpc_mapping::{portfolio, solver, CostModel, Objective, SolveContext};
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

    group.finish();
}

criterion_group!(benches, bench_portfolio);
criterion_main!(benches);
