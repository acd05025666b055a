//! Tabu-search mapping solver over free stage→node assignments.
//!
//! The dispersed-computing throughput literature (Zhao et al., *Design and
//! Experimental Evaluation of Algorithms for Optimizing the Throughput of
//! Dispersed Computing*, arXiv:2112.13875) uses tabu search as its
//! strongest classical baseline for the unstructured assignment problem the
//! metaheuristic family already explores. This module supplies that
//! baseline behind the [`crate::Solver`] registry (`tabu_rate`), reusing the reassign-one-stage / swap-two-stages
//! neighborhood machinery of [`crate::metaheuristic`] under a different
//! acceptance rule:
//!
//! * each iteration samples `neighborhood` candidate moves from the current
//!   assignment and takes the best **admissible** one — admissible meaning
//!   not tabu, *or* tabu but better than anything seen so far (the
//!   **aspiration** criterion);
//! * applying a move marks the *reverse* placements tabu: every stage the
//!   move touched may not return to its previous host for `tenure`
//!   iterations. Unlike annealing, a non-improving best-admissible move is
//!   still taken, which is what walks the search out of local minima.
//!
//! ## Search space, evaluation, and warm start
//!
//! Identical to the metaheuristics: endpoints pinned, MaxRate's
//! pairwise-distinct hosts, and every candidate scored under routed
//! transport. Since ISSUE 5 the neighborhood scan is
//! pure array arithmetic over the context's dense
//! [`crate::eval::EvalKernel`]: each sampled move is scored by only its
//! changed stage terms in O(1) through [`crate::eval::DeltaEval`] (no
//! candidate vector is materialized, no locks are taken, nothing
//! allocates), the scan abandons a candidate as soon as a
//! delta-updated stage term already reaches the best admissible bottleneck
//! of the round, and the applied move re-derives the exact objective so
//! every recorded value reconciles bit-for-bit with the routed evaluators.
//! The initial assignment is the best of the deterministic baseline, the
//! greedy solver's solution re-evaluated under routed semantics (a
//! classical warm start — and the reason `tabu_rate` can never end worse than
//! greedy: routed evaluation never exceeds greedy's own strict objective),
//! and a handful of random draws.
//!
//! ## Determinism
//!
//! All randomness flows from one seeded [`rand_chacha::ChaCha8Rng`]; the
//! same [`TabuConfig`] on the same instance reproduces the identical search
//! at every [`crate::SolveContext`] thread count (closure warm-up changes
//! *when* trees are built, never what a candidate scores).

use crate::eval::{BoundedEval, MoveSpec};
use crate::metaheuristic::{track_best, Search};
use crate::{greedy, AssignmentSolution, MappingError, Objective, Result, SolveContext};
use elpc_netgraph::NodeId;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Configuration of the tabu-search solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TabuConfig {
    /// RNG seed; equal seeds reproduce the search exactly.
    pub seed: u64,
    /// Search iterations (one applied move each).
    pub iterations: usize,
    /// Candidate moves sampled per iteration.
    pub neighborhood: usize,
    /// Iterations a reversed placement stays tabu. `0` disables the list
    /// (the search degenerates to a steepest-descent walk with restarts
    /// from nowhere — legal, rarely useful).
    pub tenure: usize,
}

impl Default for TabuConfig {
    /// The default budget matches the annealer's: `iterations ×
    /// neighborhood` = 5000 candidate evaluations, the same count as
    /// [`crate::AnnealConfig::default`]'s `iterations × restarts`, so the
    /// registry entries compare at equal move budgets.
    fn default() -> Self {
        TabuConfig {
            seed: crate::metaheuristic::DEFAULT_SEED,
            iterations: 250,
            neighborhood: 20,
            tenure: 8,
        }
    }
}

impl TabuConfig {
    fn validate(&self) -> Result<()> {
        if self.iterations == 0 || self.neighborhood == 0 {
            return Err(MappingError::BadConfig(
                "tabu search needs at least one iteration and one candidate per iteration".into(),
            ));
        }
        Ok(())
    }
}

/// The best feasible starting point: the deterministic baseline, the greedy
/// solver's assignment re-scored under routed semantics, and random draws.
/// Shared with [`crate::lns`], which starts from the same candidates.
pub(crate) fn warm_start(
    ctx: &SolveContext<'_>,
    objective: Objective,
    search: &Search,
    rng: &mut ChaCha8Rng,
) -> Option<(Vec<NodeId>, f64)> {
    let mut best = search.initial(rng, 50, true);
    let greedy_assignment = match objective {
        Objective::MinDelay => greedy::solve_min_delay(ctx.instance(), ctx.cost())
            .ok()
            .map(|s| s.mapping.assignment()),
        Objective::MaxRate => greedy::solve_max_rate(ctx.instance(), ctx.cost())
            .ok()
            .map(|s| s.mapping.assignment()),
    };
    if let Some(a) = greedy_assignment {
        if let Some(cost) = search.evaluate(&a) {
            track_best(&mut best, &a, cost);
        }
    }
    best
}

/// Keeps `slot` pointing at the lowest-cost move seen so far (strict `<`,
/// so the earliest sampled move wins ties — the same first-wins rule the
/// assignment-cloning scan used).
fn keep_best(slot: &mut Option<(MoveSpec, f64)>, mv: MoveSpec, cost: f64) {
    if slot.as_ref().is_none_or(|(_, b)| cost < *b) {
        *slot = Some((mv, cost));
    }
}

/// Tabu search over distinct-host stage→node assignments (MaxRate).
///
/// Walks from a warm-started assignment, each iteration applying the best
/// admissible of `neighborhood` sampled reassign/swap moves; a move is
/// inadmissible while any stage it touches would return to a host it left
/// within the last `tenure` iterations, unless the move beats the best
/// objective ever seen (aspiration). The scan is pure array arithmetic:
/// each sampled move is scored by its changed stage terms through the
/// context's dense evaluation kernel (O(1) per candidate, allocation-free),
/// and a candidate is abandoned as soon as a delta-updated
/// stage term already rules it out of this round's selection. Deterministic
/// for a fixed `(instance, cost model, config)` at any thread count, and —
/// because the greedy solution is a starting candidate — never worse than
/// the greedy rate baseline under routed evaluation.
pub fn solve_tabu(ctx: &SolveContext<'_>, config: &TabuConfig) -> Result<AssignmentSolution> {
    config.validate()?;
    let search = Search::new(ctx, Objective::MaxRate)?;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let Some((current, mut cur_cost)) = warm_start(ctx, Objective::MaxRate, &search, &mut rng)
    else {
        return search.finish(None);
    };
    let mut best: Option<(Vec<NodeId>, f64)> = None;
    track_best(&mut best, &current, cur_cost);
    let mut state = search.delta_state(&current);

    // (stage, host) → first iteration the placement is allowed again
    let mut tabu: HashMap<(usize, NodeId), usize> = HashMap::new();

    for iter in 0..config.iterations {
        // best admissible move this round, and the all-tabu fallback when
        // every sampled move is tabu and none aspirates
        let mut chosen: Option<(MoveSpec, f64)> = None;
        let mut chosen_tabu: Option<(MoveSpec, f64)> = None;
        let best_ever = best.as_ref().map(|(_, b)| *b).expect("tracked above");
        for _ in 0..config.neighborhood {
            let Some(mv) = search.propose_spec(state.used_hosts(), &mut rng) else {
                // a 2-module instance has exactly one assignment
                return search.finish(best);
            };
            // a move is tabu when any changed stage returns to a host on
            // its tabu list (at most two changed placements per move)
            let active = |j: usize, h: NodeId| tabu.get(&(j, h)).is_some_and(|&until| iter < until);
            let cur = state.assignment();
            let is_tabu = match mv {
                MoveSpec::Reassign { stage, to } => to != cur[stage] && active(stage, to),
                MoveSpec::Swap { a, b } => {
                    cur[a] != cur[b] && (active(a, cur[b]) || active(b, cur[a]))
                }
            };
            // a candidate can only matter below these costs, so the rate
            // scan may abandon it the moment a delta term reaches them
            let slot_cost = |s: &Option<(MoveSpec, f64)>| s.map_or(f64::INFINITY, |(_, c)| c);
            let prune_at = if is_tabu {
                best_ever
                    .min(slot_cost(&chosen))
                    .max(slot_cost(&chosen_tabu))
            } else {
                slot_cost(&chosen)
            };
            let BoundedEval::Feasible(cand_cost) = state.eval_move_bounded(mv, prune_at) else {
                continue; // infeasible, or provably not this round's pick
            };
            if !is_tabu || cand_cost < best_ever {
                keep_best(&mut chosen, mv, cand_cost);
            } else {
                keep_best(&mut chosen_tabu, mv, cand_cost);
            }
        }
        let Some((mv, _)) = chosen.or(chosen_tabu) else {
            continue; // no sampled move was feasible this round
        };
        // reverse placements become tabu: each changed stage may not return
        // to the host it just left for `tenure` iterations
        let cur = state.assignment();
        match mv {
            MoveSpec::Reassign { stage, to } if to != cur[stage] => {
                tabu.insert((stage, cur[stage]), iter + 1 + config.tenure);
            }
            MoveSpec::Swap { a, b } if cur[a] != cur[b] => {
                tabu.insert((a, cur[a]), iter + 1 + config.tenure);
                tabu.insert((b, cur[b]), iter + 1 + config.tenure);
            }
            _ => {} // a no-op move changes no placement
        }
        cur_cost = state.apply(mv).expect("chosen move is feasible");
        track_best(&mut best, state.assignment(), cur_cost);
    }
    search.finish(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{k5, pipe4};
    use crate::{routed, CostModel, Instance};
    use elpc_pipeline::Pipeline;

    fn cost() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn tabu_is_seed_deterministic() {
        let net = k5();
        let pipe = pipe4();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let a = solve_tabu(&SolveContext::new(inst, cost()), &TabuConfig::default()).unwrap();
        let b = solve_tabu(&SolveContext::new(inst, cost()), &TabuConfig::default()).unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.objective_ms.to_bits(), b.objective_ms.to_bits());
    }

    #[test]
    fn tabu_never_ends_worse_than_greedy() {
        let net = k5();
        let pipe = pipe4();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let ctx = SolveContext::new(inst, cost());
        let ts = solve_tabu(&ctx, &TabuConfig::default()).unwrap();
        let g = greedy::solve_max_rate(ctx.instance(), ctx.cost()).unwrap();
        assert!(ts.objective_ms <= g.bottleneck_ms + 1e-9);
    }

    #[test]
    fn rate_solutions_respect_the_distinctness_constraint() {
        let net = k5();
        let pipe = pipe4();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let ctx = SolveContext::new(inst, cost());
        let sol = solve_tabu(&ctx, &TabuConfig::default()).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for &h in &sol.assignment {
            assert!(seen.insert(h), "host {h} reused in a MaxRate mapping");
        }
        assert_eq!(sol.assignment[0], NodeId(0));
        assert_eq!(*sol.assignment.last().unwrap(), NodeId(4));
        let re = routed::routed_bottleneck_ms_ctx(&ctx, &sol.assignment, true).unwrap();
        assert_eq!(re.to_bits(), sol.objective_ms.to_bits());
    }

    #[test]
    fn infeasible_instances_are_reported() {
        let net = k5();
        // 6 modules on 5 nodes: MaxRate is structurally infeasible
        let pipe = Pipeline::from_stages(1e5, &[(1.0, 1e4); 4], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let ctx = SolveContext::new(inst, cost());
        assert!(matches!(
            solve_tabu(&ctx, &TabuConfig::default()),
            Err(MappingError::Infeasible(_))
        ));
    }

    #[test]
    fn bad_configs_are_rejected() {
        let net = k5();
        let pipe = pipe4();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let ctx = SolveContext::new(inst, cost());
        for bad in [
            TabuConfig {
                iterations: 0,
                ..Default::default()
            },
            TabuConfig {
                neighborhood: 0,
                ..Default::default()
            },
        ] {
            assert!(matches!(
                solve_tabu(&ctx, &bad),
                Err(MappingError::BadConfig(_))
            ));
        }
        // a zero tenure is legal (plain steepest-admissible walk)
        assert!(solve_tabu(
            &ctx,
            &TabuConfig {
                tenure: 0,
                ..Default::default()
            }
        )
        .is_ok());
    }

    #[test]
    fn two_module_pipelines_have_one_assignment() {
        let net = k5();
        let pipe = Pipeline::from_stages(1e5, &[], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let ctx = SolveContext::new(inst, cost());
        let sol = solve_tabu(&ctx, &TabuConfig::default()).unwrap();
        assert_eq!(sol.assignment, vec![NodeId(0), NodeId(4)]);
    }
}
