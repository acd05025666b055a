//! Criterion benches for the Fig. 2 comparison: per-algorithm solve time on
//! representative suite cases (E1/E2 in `elpc-bench`'s experiment index).
//!
//! The published observation (§4.3) is that all three algorithms run in
//! milliseconds-to-seconds; these benches regenerate that comparison with
//! statistical rigor. Algorithms are pulled from the `elpc_mapping` solver
//! registry; every measured iteration builds a *cold* `SolveContext` so
//! the cross-algorithm runtimes stay comparable (a warm shared context
//! would serve Streamline's Dijkstra work from cache while the strict DPs
//! do full work — the warm numbers live in the `context_reuse` bench).
//! Criterion parameters are tuned down so the full bench suite completes
//! in minutes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use elpc_mapping::{solver, CostModel, SolveContext};
use elpc_workloads::cases::paper_cases;
use std::hint::black_box;
use std::time::Duration;

const SOLVERS: [&str; 4] = [
    "elpc_delay",
    "elpc_rate",
    "streamline_delay",
    "greedy_delay",
];

fn bench_fig2(c: &mut Criterion) {
    let cost = CostModel::default();
    let cases = paper_cases();
    let mut group = c.benchmark_group("fig2_algorithms");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    // one small, one medium, one large suite case
    for idx in [0usize, 7, 14] {
        let case = &cases[idx];
        let inst_owned = case.generate().expect("suite cases generate");
        let label = format!("m{}_n{}_l{}", case.modules, case.nodes, case.links);
        let inst = inst_owned.as_instance();

        for name in SOLVERS {
            let entry = solver(name).expect("registered");
            group.bench_with_input(BenchmarkId::new(name, &label), &inst, |b, inst| {
                b.iter(|| {
                    let ctx = SolveContext::new(*inst, cost);
                    black_box(entry.solve(&ctx))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
