//! Cross-solver invariant lockdown (ISSUE 4): every entry in the solver
//! registry — present and future — must respect the provably-optimal
//! routed references and the structural mapping constraints.
//!
//! The contract, checked over the **whole registry** on 20 seeded
//! instances, so a newly registered solver is covered without touching
//! this file:
//!
//! * delay solvers can never beat `elpc_delay_routed`, the exact optimum
//!   of the routed free-assignment space (strict-semantics values are
//!   further from it by construction: routed transport relaxes Eq. 1);
//! * rate solvers can never beat `exact::max_rate_routed`, the exhaustive
//!   routed reference, on instances inside its enumeration budget —
//!   equivalently, no solver's frame rate exceeds the exact optimum's;
//! * every solved mapping pins module 0 to the source and the last module
//!   to the destination, covers the whole pipeline, and — for the rate
//!   objective — uses pairwise-distinct hosts (the §3.1.2 streaming
//!   constraint);
//! * the dense evaluation kernel (ISSUE 5) is indistinguishable from the
//!   closure-backed routed evaluators: full evaluations agree bit for bit
//!   and delta-applied move sequences reconcile exactly
//!   ([`kernel_equivalence_full_evaluations_are_bit_identical`],
//!   [`kernel_equivalence_delta_moves_reconcile_exactly`] — the
//!   `elpc-mapping` crate's `eval_kernel` proptests run the same contract
//!   against adversarial disconnected topologies).

use elpc::mapping::{
    exact, registry, routed, solver, CostModel, DeltaEval, MoveSpec, NodeId, Objective,
    SolveContext,
};
use elpc::workloads::InstanceSpec;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn cost() -> CostModel {
    CostModel::default()
}

/// Relative tolerance for float comparisons against the references.
fn eps(reference: f64) -> f64 {
    1e-9 * reference.max(1.0)
}

#[test]
fn every_registry_solver_respects_the_routed_references() {
    assert_eq!(registry().len(), 17, "the registry has 17 entries");
    let mut delay_checks = 0usize;
    let mut rate_checks = 0usize;
    let mut solves = 0usize;
    for seed in 0..20u64 {
        let owned = InstanceSpec::sized(5, 9, 20).generate(seed).unwrap();
        let inst = owned.as_instance();
        let ctx = SolveContext::new(inst, cost());

        // the provably-optimal routed references of both objectives
        let delay_opt = solver("elpc_delay_routed")
            .expect("registered")
            .solve(&ctx)
            .ok()
            .map(|s| s.objective_ms);
        let rate_opt = exact::max_rate_routed(&ctx, exact::ExactLimits::default())
            .ok()
            .map(|s| s.objective_ms);

        for s in registry() {
            let Ok(sol) = s.solve(&ctx) else {
                continue; // infeasibility is a legal outcome per solver
            };
            solves += 1;
            let name = s.name();

            // structural invariants: full coverage, pinned endpoints
            assert_eq!(
                sol.assignment.len(),
                owned.pipeline.len(),
                "seed {seed}, {name}: assignment does not cover the pipeline"
            );
            assert_eq!(
                sol.assignment[0], owned.src,
                "seed {seed}, {name}: module 0 left the source"
            );
            assert_eq!(
                *sol.assignment.last().unwrap(),
                owned.dst,
                "seed {seed}, {name}: last module left the destination"
            );
            assert!(
                sol.objective_ms.is_finite() && sol.objective_ms > 0.0,
                "seed {seed}, {name}: degenerate objective {}",
                sol.objective_ms
            );

            match s.objective() {
                Objective::MinDelay => {
                    if let Some(opt) = delay_opt {
                        assert!(
                            sol.objective_ms >= opt - eps(opt),
                            "seed {seed}, {name}: delay {} beat the routed optimum {opt}",
                            sol.objective_ms
                        );
                        delay_checks += 1;
                    }
                }
                Objective::MaxRate => {
                    // the no-reuse constraint: pairwise-distinct hosts
                    let mut seen = std::collections::BTreeSet::new();
                    for &h in &sol.assignment {
                        assert!(
                            seen.insert(h),
                            "seed {seed}, {name}: host {h} reused under the rate objective"
                        );
                    }
                    if let Some(opt) = rate_opt {
                        assert!(
                            sol.objective_ms >= opt - eps(opt),
                            "seed {seed}, {name}: bottleneck {} beat the routed exact {opt} \
                             (frame rate above the optimum)",
                            sol.objective_ms
                        );
                        rate_checks += 1;
                    }
                }
            }
        }
    }
    // the suite must actually have exercised the bounds, not skipped them
    assert!(solves >= 200, "only {solves} solves across the suite");
    assert!(
        delay_checks >= 100,
        "only {delay_checks} delay bound checks"
    );
    assert!(rate_checks >= 50, "only {rate_checks} rate bound checks");
}

/// The acceptance pin: the portfolio and LNS entries are bit-identical at
/// `threads = 1` (serial slate) and `threads = 0` (all-CPU race) — the
/// winner is chosen by value with a fixed tie-break, never by finish
/// order. The registry entries inherit the thread count from the context.
#[test]
fn portfolio_entries_are_bit_identical_across_thread_counts() {
    for seed in 0..10u64 {
        let owned = InstanceSpec::sized(5, 9, 20).generate(seed).unwrap();
        let inst = owned.as_instance();
        for name in ["portfolio_delay", "portfolio_rate", "lns_delay", "lns_rate"] {
            let s = solver(name).expect("registered");
            let serial = s.solve(&SolveContext::new(inst, cost()));
            let parallel = s.solve(&SolveContext::with_threads(inst, cost(), 0));
            match (serial, parallel) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.assignment, b.assignment, "seed {seed}, {name}");
                    assert_eq!(
                        a.objective_ms.to_bits(),
                        b.objective_ms.to_bits(),
                        "seed {seed}, {name}"
                    );
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string(), "seed {seed}, {name}");
                }
                other => panic!("seed {seed}, {name}: divergent feasibility {other:?}"),
            }
        }
    }
}

/// Why `lns_delay` races in `portfolio_delay`: a served delay race is the
/// request that banks a closure, and the slate's kernel-backed member warms
/// every source at every boundary payload. After one race on a fresh
/// context, every delay entry of the registry solving over that closure
/// must find all its trees there — the closure's `misses` never move.
#[test]
fn portfolio_delay_leaves_a_closure_every_delay_solver_hits() {
    for (i, (nodes, links)) in [(9, 20), (60, 150), (200, 460)].into_iter().enumerate() {
        let owned = InstanceSpec::sized(5, nodes, links)
            .generate(0x5EED + i as u64)
            .unwrap();
        let inst = owned.as_instance();
        let raced = SolveContext::new(inst, cost());
        solver("portfolio_delay")
            .expect("registered")
            .solve(&raced)
            .expect("sized instances are delay-feasible");
        let misses = raced.closure().stats().misses;
        for s in registry()
            .iter()
            .filter(|s| s.objective() == Objective::MinDelay)
        {
            let ctx =
                SolveContext::from_shared(inst, raced.closure_arc(), 1).expect("same network");
            let _ = s.solve(&ctx);
            assert_eq!(
                raced.closure().stats().misses,
                misses,
                "{nodes} nodes: `{}` built a tree the race left out",
                s.name()
            );
        }
    }
}

/// ISSUE 5 kernel equivalence, part 1: on every suite instance the dense
/// kernel's full evaluation is bit-identical to the closure-backed routed
/// evaluators — the values every solver reports are the values the
/// evaluators would have produced.
#[test]
fn kernel_equivalence_full_evaluations_are_bit_identical() {
    for seed in 0..20u64 {
        let owned = InstanceSpec::sized(5, 9, 20).generate(seed).unwrap();
        let inst = owned.as_instance();
        let ctx = SolveContext::new(inst, cost());
        let kernel = ctx.eval_kernel();
        let k = inst.network.node_count();
        let n = inst.n_modules();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4B45524E); // "KERN"
        for _ in 0..40 {
            let mut a: Vec<NodeId> = (0..n)
                .map(|_| NodeId::from_index(rng.gen_range(0..k)))
                .collect();
            a[0] = inst.src;
            *a.last_mut().unwrap() = inst.dst;
            let delay = routed::routed_delay_ms_ctx(&ctx, &a).expect("suite nets are connected");
            assert_eq!(
                delay.to_bits(),
                kernel.full_delay_ms(&a).to_bits(),
                "seed {seed}: delay mismatch on {a:?}"
            );
            match routed::routed_bottleneck_ms_ctx(&ctx, &a, true) {
                Ok(b) => assert_eq!(
                    b.to_bits(),
                    kernel.full_bottleneck_ms(&a, true).to_bits(),
                    "seed {seed}: bottleneck mismatch on {a:?}"
                ),
                // host reuse: the evaluator rejects, the kernel reports ∞
                Err(_) => assert!(kernel.full_bottleneck_ms(&a, true).is_infinite()),
            }
        }
    }
}

/// ISSUE 5 kernel equivalence, part 2: a seeded random sequence of
/// delta-applied reassign/swap moves stays exactly reconciled — after
/// every committed move the tracked objective is bit-identical to a fresh
/// full evaluation (which part 1 ties to the routed evaluators), and every
/// candidate's feasibility verdict agrees with its full evaluation.
#[test]
fn kernel_equivalence_delta_moves_reconcile_exactly() {
    for seed in 0..20u64 {
        let owned = InstanceSpec::sized(5, 9, 20).generate(seed).unwrap();
        let inst = owned.as_instance();
        let ctx = SolveContext::new(inst, cost());
        let kernel = ctx.eval_kernel();
        let k = inst.network.node_count();
        let n = inst.n_modules();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xDE17A);
        for objective in [Objective::MinDelay, Objective::MaxRate] {
            let start: Vec<NodeId> = match objective {
                Objective::MinDelay => {
                    let mut a = vec![inst.src; n];
                    *a.last_mut().unwrap() = inst.dst;
                    a
                }
                Objective::MaxRate => {
                    // lowest-index distinct interior hosts
                    let mut a = vec![inst.src; n];
                    *a.last_mut().unwrap() = inst.dst;
                    let mut next = 0usize;
                    for slot in a.iter_mut().take(n - 1).skip(1) {
                        while next < k {
                            let cand = NodeId::from_index(next);
                            next += 1;
                            if cand != inst.src && cand != inst.dst {
                                *slot = cand;
                                break;
                            }
                        }
                    }
                    a
                }
            };
            let mut state = DeltaEval::new(Arc::clone(&kernel), objective, &start);
            let mut shadow = start.clone();
            for _ in 0..80 {
                let mv = match objective {
                    Objective::MinDelay if rng.gen_bool(0.5) => MoveSpec::Reassign {
                        stage: 1 + rng.gen_range(0..n - 2),
                        to: NodeId::from_index(rng.gen_range(0..k)),
                    },
                    Objective::MaxRate if n < k && rng.gen_bool(0.5) => {
                        let used = state.used_hosts();
                        let free: Vec<usize> = (0..k).filter(|&v| !used[v]).collect();
                        MoveSpec::Reassign {
                            stage: 1 + rng.gen_range(0..n - 2),
                            to: NodeId::from_index(free[rng.gen_range(0..free.len())]),
                        }
                    }
                    _ => {
                        let a = 1 + rng.gen_range(0..n - 2);
                        let mut b = 1 + rng.gen_range(0..n - 2);
                        if b == a {
                            b = if b + 1 < n - 1 { b + 1 } else { 1 };
                        }
                        MoveSpec::Swap { a, b }
                    }
                };
                let mut cand = shadow.clone();
                match mv {
                    MoveSpec::Reassign { stage, to } => cand[stage] = to,
                    MoveSpec::Swap { a, b } => cand.swap(a, b),
                }
                let full_cand = kernel.full_objective_ms(objective, &cand);
                match state.eval_move(mv) {
                    Some(ms) => {
                        assert!(full_cand.is_finite(), "seed {seed}: feasibility diverged");
                        assert!(
                            (ms - full_cand).abs() <= 1e-9 * full_cand.abs().max(1.0),
                            "seed {seed}: candidate {ms} vs full {full_cand}"
                        );
                    }
                    None => assert!(full_cand.is_infinite(), "seed {seed}: feasibility diverged"),
                }
                let committed = state.apply(mv);
                shadow = cand;
                let full_now = kernel.full_objective_ms(objective, &shadow);
                match committed {
                    Some(ms) => assert_eq!(
                        ms.to_bits(),
                        full_now.to_bits(),
                        "seed {seed}: committed objective must reconcile exactly"
                    ),
                    None => assert!(full_now.is_infinite()),
                }
            }
        }
    }
}
