//! The metaheuristic solver bench: the rate annealer and genetic search
//! against the exact/DP references on a mid-size instance, cold context vs
//! a shared warm closure (the compare-harness shape, where the DPs run
//! first and every metaheuristic candidate evaluation is a hash lookup).
//! The `BENCH_metaheuristics.json` artifact tracks it across commits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use elpc_mapping::{solver, CostModel, SolveContext};
use elpc_workloads::InstanceSpec;
use std::hint::black_box;
use std::time::Duration;

fn bench_metaheuristics(c: &mut Criterion) {
    let cost = CostModel::default();
    // mid-size: large enough that the closure build dominates a cold solve,
    // small enough that every solver finishes in milliseconds when warm
    let inst_owned = InstanceSpec::sized(10, 30, 110).generate(0xA11E).unwrap();
    let inst = inst_owned.as_instance();
    let names = ["anneal_rate", "genetic_rate"];

    let mut group = c.benchmark_group("metaheuristics");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    // cold: the metaheuristic pays for every transfer tree it touches
    for name in names {
        let s = solver(name).expect("registered");
        group.bench_with_input(BenchmarkId::new("cold", name), &s, |b, s| {
            b.iter(|| {
                let ctx = SolveContext::new(inst, cost);
                black_box(s.solve(&ctx))
            })
        });
    }

    // warm: the compare-harness shape — the routed DPs populated the
    // closure, candidate evaluations are pure cache hits
    let warm = SolveContext::new(inst, cost);
    let _ = solver("elpc_delay_routed")
        .expect("registered")
        .solve(&warm);
    let _ = solver("elpc_rate_routed").expect("registered").solve(&warm);
    for name in names {
        let s = solver(name).expect("registered");
        group.bench_with_input(BenchmarkId::new("warm", name), &s, |b, s| {
            b.iter(|| black_box(s.solve(&warm)))
        });
    }

    // the references the quality gap is measured against
    for name in ["elpc_delay_routed", "elpc_rate_routed"] {
        let s = solver(name).expect("registered");
        group.bench_with_input(BenchmarkId::new("reference_warm", name), &s, |b, s| {
            b.iter(|| black_box(s.solve(&warm)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_metaheuristics);
criterion_main!(benches);
