//! The differential churn suite: incremental closure repair must be
//! indistinguishable from starting over.
//!
//! Random perturbation *sequences* — bandwidth up and down, MLD shifts,
//! node-power swings, several links at a time — are applied to random,
//! scale-free, and small-world topologies. After every step the repaired
//! closure (`MetricClosure::export`) must be **byte-identical** (distance
//! bit patterns and predecessor links) to a from-scratch closure of the
//! perturbed network, and the repaired state (not the cold control) is
//! carried into the next step, so errors would compound if the
//! invalidation rule ever kept a tree it shouldn't.
//!
//! The second half proves the property end to end: every registry solver,
//! solving on a bank context repaired via `update_in_place`, must return
//! the bit-identical solution it returns on a cold context of the
//! perturbed instance.
//!
//! Instances use continuous random weights, so exact shortest-path ties
//! (the one documented caveat of the kept-tree rule) occur with
//! probability zero.

use elpc_mapping::delta::repair_closure;
use elpc_mapping::{
    registry, CachedTree, CostModel, DeltaEval, EdgeId, EvalKernel, Instance, MetricClosure,
    MoveSpec, NetworkDelta, NodeId, Objective, SolveContext,
};
use elpc_netsim::{Link, Network};
use elpc_workloads::bank::bank_key;
use elpc_workloads::{ClosureBank, InstanceSpec, ProblemInstance, TopologyKind};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

const STEPS: usize = 6;

fn topologies() -> Vec<(&'static str, TopologyKind)> {
    vec![
        ("random", TopologyKind::RandomConnected),
        ("scale_free", TopologyKind::ScaleFree { attach: 2 }),
        ("small_world", TopologyKind::SmallWorld { k: 4, beta: 0.2 }),
    ]
}

fn instance(topology: TopologyKind, seed: u64) -> ProblemInstance {
    let mut spec = InstanceSpec::sized(4, 24, 60);
    spec.topology = topology;
    spec.generate(seed).expect("spec generates")
}

/// One random churn step: 1–3 links get bandwidth scaled (up or down) or
/// MLD shifted, and sometimes a node's power moves too.
fn perturb(net: &Network, rng: &mut ChaCha8Rng) -> Network {
    let mut out = net.clone();
    let scales = [0.5, 0.8, 1.25, 2.0];
    for _ in 0..rng.gen_range(1..=3usize) {
        let k = rng.gen_range(0..net.link_count());
        let id = EdgeId((2 * k) as u32);
        let old = out.link(id).expect("valid link").clone();
        let next = if rng.gen_bool(0.75) {
            Link::new(
                old.bw_mbps * scales[rng.gen_range(0..scales.len())],
                old.mld_ms,
            )
        } else {
            Link::new(old.bw_mbps, old.mld_ms + rng.gen_range(0.01..1.0))
        };
        out.set_link_symmetric(id, next).expect("same shape");
    }
    if rng.gen_bool(0.5) {
        let v = NodeId(rng.gen_range(0..net.node_count()) as u32);
        out.node_mut(v).expect("valid node").power *= rng.gen_range(0.3..2.0);
    }
    out
}

fn assert_byte_identical(label: &str, a: &[CachedTree], b: &[CachedTree]) {
    assert_eq!(a.len(), b.len(), "{label}: tree counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.key, y.key, "{label}: key order differs");
        assert_eq!(
            x.tree.dist.len(),
            y.tree.dist.len(),
            "{label}: tree shapes differ"
        );
        for (p, q) in x.tree.dist.iter().zip(&y.tree.dist) {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "{label}: a repaired distance differs from the cold build"
            );
        }
        assert_eq!(
            x.tree.prev, y.tree.prev,
            "{label}: a repaired predecessor differs from the cold build"
        );
    }
}

#[test]
fn random_perturbation_sequences_repair_byte_identically() {
    let cost = CostModel::default();
    for (label, topology) in topologies() {
        let inst = instance(topology, 0x5EED);
        let sources: Vec<NodeId> = inst.network.node_ids().collect();
        let payloads: Vec<f64> = (1..inst.pipeline.len())
            .map(|j| inst.pipeline.input_bytes(j))
            .collect();

        // the maintained state: the current network and its (repaired)
        // closure entries, chained step to step
        let mut net = inst.network.clone();
        let mut entries = {
            let base = MetricClosure::new(&net, cost);
            base.par_warm(&sources, &payloads, 1);
            base.export()
        };

        let mut rng = ChaCha8Rng::seed_from_u64(0xC4A0 ^ label.len() as u64);
        for step in 0..STEPS {
            let next = perturb(&net, &mut rng);
            let delta = NetworkDelta::between(&net, &next).expect("same shape");

            let target = MetricClosure::new(&next, cost);
            let report = repair_closure(&target, &entries, &delta, 1);
            assert_eq!(
                report.kept + report.rebuilt,
                entries.len(),
                "{label} step {step}: every tree is either kept or rebuilt"
            );
            let repaired = target.export();

            let control = MetricClosure::new(&next, cost);
            control.par_warm(&sources, &payloads, 1);
            let cold = control.export();

            assert_byte_identical(&format!("{label} step {step}"), &repaired, &cold);

            // chain the REPAIRED state forward: compounding would expose
            // any tree the rule wrongly kept
            entries = repaired;
            net = next;
        }
    }
}

/// A power-only churn sequence never rebuilds a single tree — transfer
/// costs do not depend on node power — yet stays byte-identical.
#[test]
fn power_only_churn_keeps_the_entire_closure() {
    let cost = CostModel::default();
    let inst = instance(TopologyKind::RandomConnected, 0xCAFE);
    let sources: Vec<NodeId> = inst.network.node_ids().collect();
    let payloads: Vec<f64> = (1..inst.pipeline.len())
        .map(|j| inst.pipeline.input_bytes(j))
        .collect();
    let base = MetricClosure::new(&inst.network, cost);
    let total = base.par_warm(&sources, &payloads, 1);
    let entries = base.export();

    let mut next = inst.network.clone();
    for i in 0..next.node_count() {
        next.node_mut(NodeId(i as u32)).expect("valid node").power *= 0.5 + (i as f64) * 0.01;
    }
    let delta = NetworkDelta::between(&inst.network, &next).expect("same shape");
    assert!(delta.links.is_empty());
    assert_eq!(delta.nodes.len(), next.node_count());

    let target = MetricClosure::new(&next, cost);
    let report = repair_closure(&target, &entries, &delta, 1);
    assert_eq!(report.kept, total, "power churn must keep every tree");
    assert_eq!(report.rebuilt, 0);

    let control = MetricClosure::new(&next, cost);
    control.par_warm(&sources, &payloads, 1);
    assert_byte_identical("power-only", &target.export(), &control.export());
}

/// Drives every candidate kernel through the exact workload `reference`
/// sees — seeded random full evaluations under both objectives, then
/// delta-applied reassign/swap sequences — and requires every produced
/// number to match `reference` to the bit.
fn assert_kernels_indistinguishable(
    tag: &str,
    inst: &Instance<'_>,
    reference: &Arc<EvalKernel>,
    candidates: &[(&str, &Arc<EvalKernel>)],
    seed: u64,
) {
    let k = inst.network.node_count();
    let n = inst.n_modules();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    // full evaluations on random (often infeasible) assignments: ∞ and
    // finite values alike must agree bitwise
    for _ in 0..30 {
        let mut a: Vec<NodeId> = (0..n)
            .map(|_| NodeId::from_index(rng.gen_range(0..k)))
            .collect();
        a[0] = inst.src;
        *a.last_mut().unwrap() = inst.dst;
        for objective in [Objective::MinDelay, Objective::MaxRate] {
            let want = reference.full_objective_ms(objective, &a);
            for (name, kernel) in candidates {
                assert_eq!(
                    want.to_bits(),
                    kernel.full_objective_ms(objective, &a).to_bits(),
                    "{tag}: {name} full {objective:?} differs on {a:?}"
                );
            }
        }
    }

    // delta-move sequences: candidate verdicts and committed objectives
    // must stay locked to the reference move by move
    for objective in [Objective::MinDelay, Objective::MaxRate] {
        let mut start = vec![inst.src; n];
        *start.last_mut().unwrap() = inst.dst;
        if objective == Objective::MaxRate {
            // distinct interior hosts so the rate walk starts feasible
            let mut next = 0usize;
            for slot in start.iter_mut().take(n - 1).skip(1) {
                while next < k {
                    let cand = NodeId::from_index(next);
                    next += 1;
                    if cand != inst.src && cand != inst.dst {
                        *slot = cand;
                        break;
                    }
                }
            }
        }
        let mut state = DeltaEval::new(Arc::clone(reference), objective, &start);
        let mut shadows: Vec<(&str, DeltaEval)> = candidates
            .iter()
            .map(|(name, kernel)| (*name, DeltaEval::new(Arc::clone(kernel), objective, &start)))
            .collect();
        for _ in 0..60 {
            let mv = if rng.gen_bool(0.5) {
                MoveSpec::Reassign {
                    stage: 1 + rng.gen_range(0..n - 2),
                    to: NodeId::from_index(rng.gen_range(0..k)),
                }
            } else {
                let a = 1 + rng.gen_range(0..n - 2);
                let mut b = 1 + rng.gen_range(0..n - 2);
                if b == a {
                    b = if b + 1 < n - 1 { b + 1 } else { 1 };
                }
                MoveSpec::Swap { a, b }
            };
            let want = state.eval_move(mv).map(f64::to_bits);
            for (name, shadow) in &mut shadows {
                assert_eq!(
                    want,
                    shadow.eval_move(mv).map(f64::to_bits),
                    "{tag}: {name} verdict differs on {mv:?}"
                );
            }
            if want.is_some() {
                let committed = state.apply(mv).map(f64::to_bits);
                for (name, shadow) in &mut shadows {
                    assert_eq!(
                        committed,
                        shadow.apply(mv).map(f64::to_bits),
                        "{tag}: {name} committed objective drifted on {mv:?}"
                    );
                }
            }
        }
    }
}

/// ISSUE 9: the dense eval kernel a churn-repaired bank context lazily
/// rebuilds must be **bit-identical** to a cold context's kernel — full
/// evaluations AND delta-applied move sequences — across chained
/// perturbations (the repaired bank state, not the cold control, carries
/// into the next step).
#[test]
fn repaired_context_kernels_are_bit_identical_across_chained_churn() {
    let cost = CostModel::default();
    for (label, topology) in topologies() {
        let base = instance(topology, 0x6E55);

        let bank = ClosureBank::new();
        {
            let ctx = bank.context_for(base.as_instance(), cost, 1);
            // the kernel build materializes every (payload, source) tree,
            // so the deposit banks the full table the repairs will chew on
            ctx.eval_kernel();
            bank.deposit(&ctx);
        }

        let mut live = base.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(0x6B31 + label.len() as u64);
        for step in 0..STEPS {
            let old_key = bank_key(&live.as_instance(), &cost);
            let next = perturb(&live.network, &mut rng);
            let delta = NetworkDelta::between(&live.network, &next).expect("same shape");
            live.network = next;

            bank.update_in_place(old_key, live.as_instance(), cost, &delta, 1)
                .expect("the chained entry is banked");
            let warm = bank.context_for(live.as_instance(), cost, 1);
            let cold = SolveContext::new(live.as_instance(), cost);
            let rebuilt = warm.eval_kernel();
            let reference = cold.eval_kernel();

            assert_kernels_indistinguishable(
                &format!("{label} step {step}"),
                &live.as_instance(),
                &reference,
                &[("repaired-rebuilt", &rebuilt)],
                0x4B4E ^ (step as u64) ^ label.len() as u64,
            );

            // chain the REPAIRED state forward; a wrongly kept tree would
            // compound into later steps
            bank.deposit(&warm);
        }
        let stats = bank.stats();
        assert_eq!(
            stats.repairs, STEPS as u64,
            "{label}: every step must repair in place"
        );
    }
}

/// End-to-end: every registry solver returns the bit-identical solution on
/// a repaired bank context as on a cold context of the perturbed instance.
#[test]
fn every_registry_solver_is_bit_identical_repaired_vs_cold() {
    let cost = CostModel::default();
    for (label, topology) in topologies() {
        // tiny instance: the registry includes exponential exact solvers
        let mut spec = InstanceSpec::sized(3, 8, 14);
        spec.topology = topology;
        let base = spec.generate(0xD1FF).expect("spec generates");
        let old_key = bank_key(&base.as_instance(), &cost);

        let bank = ClosureBank::new();
        {
            // populate the banked closure with whatever the full roster
            // touches, then deposit it
            let ctx = bank.context_for(base.as_instance(), cost, 1);
            for entry in registry() {
                let _ = entry.solve(&ctx);
            }
            bank.deposit(&ctx);
        }

        // a multi-link perturbation, both directions priced
        let mut live = base.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(0xA11 + label.len() as u64);
        live.network = perturb(&live.network, &mut rng);
        let delta = NetworkDelta::between(&base.network, &live.network).expect("same shape");
        assert!(!delta.is_empty(), "the perturbation must move something");

        bank.update_in_place(old_key, live.as_instance(), cost, &delta, 1)
            .expect("the base entry is banked");

        let warm = bank.context_for(live.as_instance(), cost, 1);
        let cold = SolveContext::new(live.as_instance(), cost);
        let stats = bank.stats();
        assert_eq!(stats.hits, 1, "{label}: the repaired checkout must hit");
        assert_eq!(stats.repairs, 1);

        for entry in registry() {
            match (entry.solve(&warm), entry.solve(&cold)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.assignment,
                        b.assignment,
                        "{label}: solver {} moved on a repaired context",
                        entry.name()
                    );
                    assert_eq!(
                        a.objective_ms.to_bits(),
                        b.objective_ms.to_bits(),
                        "{label}: solver {} objective drifted",
                        entry.name()
                    );
                }
                (Err(_), Err(_)) => {} // both infeasible the same way
                (warm_r, cold_r) => panic!(
                    "{label}: solver {} disagreed on feasibility: warm {:?} cold {:?}",
                    entry.name(),
                    warm_r.is_ok(),
                    cold_r.is_ok()
                ),
            }
        }
    }
}
