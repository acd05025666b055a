//! The ISSUE 5 evaluation-kernel bench: closure-locked vs dense full
//! evaluation, full vs O(1) delta move evaluation, and the headline
//! number — evaluations/second of the tabu/anneal-shaped move loop at the
//! 5000-candidate budget, locked baseline vs kernel delta. The
//! `BENCH_eval_kernel.json` artifact tracks it across commits.
//!
//! The bench also pins the reconciliation contract at solver level: the
//! tabu/anneal/genetic registry entries and both portfolio slates must report
//! objectives that re-evaluate **bit-for-bit** under the closure-backed
//! routed evaluators (same seed, same budget — the kernel changes how fast
//! candidates are scored, never what the search returns).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use elpc_mapping::{
    portfolio, routed, solver, CostModel, DeltaEval, MoveSpec, NodeId, Objective, SolveContext,
};
use elpc_workloads::InstanceSpec;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

/// Candidate evaluations per timed move loop — the metaheuristics' shared
/// default budget (tabu: 250 × 20, anneal: 2500 × 2).
const BUDGET: usize = 5000;
/// Assignments per timed full-evaluation batch.
const BATCH: usize = 1000;

fn bench_eval_kernel(c: &mut Criterion) {
    let cost = CostModel::default();
    // the metaheuristics bench's mid-size instance (10 modules, 30 nodes)
    let inst_owned = InstanceSpec::sized(10, 30, 110).generate(0xA11E).unwrap();
    let inst = inst_owned.as_instance();
    let n = inst.n_modules();
    let k = inst.network.node_count();

    // compare-harness shape: the routed DPs warmed the closure, then the
    // kernel snapshot is built once for the whole solver family
    let warm = SolveContext::new(inst, cost);
    let _ = solver("elpc_delay_routed")
        .expect("registered")
        .solve(&warm);
    let _ = solver("elpc_rate_routed").expect("registered").solve(&warm);
    let kernel = warm.eval_kernel();

    let mut rng = ChaCha8Rng::seed_from_u64(0x4B45524E);
    // random shape-valid assignments: endpoints pinned, interior free
    let delay_batch: Vec<Vec<NodeId>> = (0..BATCH)
        .map(|_| {
            let mut a: Vec<NodeId> = (0..n)
                .map(|_| NodeId::from_index(rng.gen_range(0..k)))
                .collect();
            a[0] = inst.src;
            *a.last_mut().unwrap() = inst.dst;
            a
        })
        .collect();
    // distinct-host assignments for the rate side (partial Fisher–Yates)
    let rate_batch: Vec<Vec<NodeId>> = (0..BATCH)
        .map(|_| {
            let mut pool: Vec<NodeId> = (0..k)
                .map(NodeId::from_index)
                .filter(|&v| v != inst.src && v != inst.dst)
                .collect();
            let mut a = vec![inst.src; n];
            *a.last_mut().unwrap() = inst.dst;
            for slot in a.iter_mut().take(n - 1).skip(1) {
                let pick = rng.gen_range(0..pool.len());
                *slot = pool.swap_remove(pick);
            }
            a
        })
        .collect();

    let mut group = c.benchmark_group("eval_kernel");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    // --- tier 1: full evaluation, closure-locked vs dense ---------------
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function("full_eval/locked_delay", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for a in &delay_batch {
                acc += routed::routed_delay_ms_ctx(&warm, a).unwrap();
            }
            black_box(acc)
        })
    });
    group.bench_function("full_eval/dense_delay", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for a in &delay_batch {
                acc += kernel.full_delay_ms(a);
            }
            black_box(acc)
        })
    });
    group.bench_function("full_eval/locked_rate", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for a in &rate_batch {
                acc += routed::routed_bottleneck_ms_ctx(&warm, a, true).unwrap();
            }
            black_box(acc)
        })
    });
    group.bench_function("full_eval/dense_rate", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for a in &rate_batch {
                acc += kernel.full_bottleneck_ms(a, true);
            }
            black_box(acc)
        })
    });

    // --- tier 2: the 5000-candidate move loop ---------------------------
    // identical pre-sampled move sequences driven through (a) the
    // closure-locked candidate-materializing loop every solver ran before
    // ISSUE 5 and (b) the kernel's O(1) delta tier — the two ends of the
    // headline evaluations/second comparison
    let delay_moves: Vec<MoveSpec> = (0..BUDGET)
        .map(|_| {
            if rng.gen_bool(0.5) {
                MoveSpec::Reassign {
                    stage: 1 + rng.gen_range(0..n - 2),
                    to: NodeId::from_index(rng.gen_range(0..k)),
                }
            } else {
                swap_move(n, &mut rng)
            }
        })
        .collect();
    // swaps only: distinct-preserving against any rate assignment
    let rate_moves: Vec<MoveSpec> = (0..BUDGET).map(|_| swap_move(n, &mut rng)).collect();

    group.throughput(Throughput::Elements(BUDGET as u64));
    for (id, objective, moves, start) in [
        (
            "move_loop_5000/locked_delay",
            Objective::MinDelay,
            &delay_moves,
            &delay_batch[0],
        ),
        (
            "move_loop_5000/locked_rate",
            Objective::MaxRate,
            &rate_moves,
            &rate_batch[0],
        ),
    ] {
        group.bench_function(id, |b| {
            b.iter(|| {
                // the pre-kernel loop: copy the assignment, mutate, and pay
                // the closure (shard lock + hash + Arc) for every term
                let mut current = start.clone();
                let mut cur_cost = locked_eval(&warm, objective, &current).unwrap();
                let mut candidate = current.clone();
                for &mv in moves {
                    candidate.copy_from_slice(&current);
                    apply_move(&mut candidate, mv);
                    if let Some(cand) = locked_eval(&warm, objective, &candidate) {
                        if cand < cur_cost {
                            current.copy_from_slice(&candidate);
                            cur_cost = cand;
                        }
                    }
                }
                black_box(cur_cost)
            })
        });
    }
    for (id, objective, moves, start) in [
        (
            "move_loop_5000/delta_delay",
            Objective::MinDelay,
            &delay_moves,
            &delay_batch[0],
        ),
        (
            "move_loop_5000/delta_rate",
            Objective::MaxRate,
            &rate_moves,
            &rate_batch[0],
        ),
    ] {
        group.bench_function(id, |b| {
            b.iter(|| {
                let mut state = DeltaEval::new(Arc::clone(&kernel), objective, start);
                let mut cur_cost = state.objective_ms().unwrap();
                for &mv in moves {
                    if let Some(cand) = state.eval_move(mv) {
                        if cand < cur_cost {
                            cur_cost = state.apply(mv).unwrap();
                        }
                    }
                }
                black_box(cur_cost)
            })
        });
    }
    group.finish();

    // --- the reconciliation + unchanged-mappings record -----------------
    // the tabu/anneal/genetic entries (all rate searches) and both
    // portfolio slates, solved at their default seed/budget on the warm
    // context: the reported objective must re-evaluate bit-for-bit under
    // the closure-backed routed evaluators
    for name in ["anneal_rate", "genetic_rate", "tabu_rate"] {
        let s = solver(name).expect("registered");
        let sol = s.solve(&warm).expect("bench instance is feasible");
        let re = routed::routed_bottleneck_ms_ctx(&warm, &sol.assignment, true).unwrap();
        assert_eq!(
            re.to_bits(),
            sol.objective_ms.to_bits(),
            "{name}: kernel-reported objective must reconcile exactly"
        );
        eprintln!(
            "mapping {name:<14} objective {:>10.3} ms  assignment {:?}",
            sol.objective_ms,
            sol.assignment.iter().map(|h| h.index()).collect::<Vec<_>>()
        );
    }
    for objective in [Objective::MinDelay, Objective::MaxRate] {
        let race = portfolio::solve_portfolio(&warm, objective).expect("feasible");
        eprintln!(
            "portfolio {objective:?} winner {} objective {:>10.3} ms",
            race.winner, race.solution.objective_ms
        );
    }
}

/// A random interior swap (the move shape legal under both objectives).
fn swap_move(n: usize, rng: &mut ChaCha8Rng) -> MoveSpec {
    let interior = n - 2;
    let a = 1 + rng.gen_range(0..interior);
    let mut b = 1 + rng.gen_range(0..interior - 1);
    if b >= a {
        b += 1;
    }
    MoveSpec::Swap { a, b }
}

fn apply_move(a: &mut [NodeId], mv: MoveSpec) {
    match mv {
        MoveSpec::Reassign { stage, to } => a[stage] = to,
        MoveSpec::Swap { a: x, b: y } => a.swap(x, y),
    }
}

/// The pre-ISSUE 5 evaluation path: every term through the shared closure.
fn locked_eval(ctx: &SolveContext<'_>, objective: Objective, a: &[NodeId]) -> Option<f64> {
    let r = match objective {
        Objective::MinDelay => routed::routed_delay_ms_ctx(ctx, a),
        Objective::MaxRate => routed::routed_bottleneck_ms_ctx(ctx, a, true),
    };
    r.ok().filter(|ms| ms.is_finite())
}

criterion_group!(benches, bench_eval_kernel);
criterion_main!(benches);
