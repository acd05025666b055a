//! Metaheuristic mapping solvers: simulated annealing and a genetic
//! algorithm over free stage→node assignments.
//!
//! The ELPC DPs are exact for their path-structured formulations, but the
//! dispersed-computing literature (Zhao et al., *Design and Experimental
//! Evaluation of Algorithms for Optimizing the Throughput of Dispersed
//! Computing*; Benoit et al., *Multi-criteria scheduling of pipeline
//! workflows*) measures mapping quality against metaheuristic baselines
//! that search the unstructured assignment space directly. This module
//! supplies both standard baselines behind the [`crate::Solver`] registry:
//!
//! * [`solve_anneal`] — simulated annealing with a geometric temperature
//!   schedule and two neighborhood moves, *reassign one stage* and *swap
//!   two stages*;
//! * [`solve_genetic`] — a generational genetic algorithm with tournament
//!   selection, one-point crossover on the interior stage vector, and
//!   random-reassignment mutation.
//!
//! ## Search space and evaluation semantics
//!
//! Both solvers search per-module host assignments with the endpoints
//! pinned (`assignment[0] = src`, `assignment[n-1] = dst`) and evaluate
//! every candidate under **routed transport** — the same semantics the
//! routed DP overlays and the Streamline baseline are scored under, so
//! `workloads::compare` can rank all of them on one axis. Since ISSUE 5
//! candidates are scored through the context's dense
//! [`crate::eval::EvalKernel`] (a lock-free snapshot of the shared
//! [`crate::MetricClosure`], built once per context through `par_warm`):
//! the annealer scores each reassign/swap move by only its changed terms (≤ 6) in
//! O(1) via [`crate::eval::DeltaEval`] and re-derives the exact objective
//! on every accepted move, while the genetic algorithm scores whole
//! children through the kernel's allocation-free full evaluation — both
//! bit-identical to [`crate::routed::routed_delay_ms_ctx`] /
//! [`crate::routed::routed_bottleneck_ms_ctx`] on everything they report.
//!
//! Both solvers optimize **MaxRate**: candidates must use pairwise-distinct
//! hosts (the §3.1.2 streaming constraint, the NP-complete side of the
//! paper), and the exact reference on small instances is
//! [`crate::exact::max_rate_routed`]. Min-delay with node reuse is solved
//! exactly by `elpc_delay_routed` (§3.1.1), so no single-move search runs
//! on it; the shared `Search` state keeps its MinDelay rules for
//! [`crate::lns`] only.
//!
//! ## Determinism
//!
//! All randomness flows from one seeded [`rand_chacha::ChaCha8Rng`] per
//! solve: the same [`AnnealConfig`]/[`GeneticConfig`] on the same instance
//! produces the same mapping on every run and at every
//! [`crate::SolveContext`] thread count. (Across *platforms* the annealer's
//! acceptance test calls `exp`/`powf`, whose last-ulp rounding may differ
//! between libm implementations, so cross-machine reproducibility is
//! per-platform rather than universal.) The registry entries
//! (`anneal_rate`, `genetic_rate`) use the default configs and are
//! therefore fully reproducible within a platform.

use crate::eval::{DeltaEval, EvalKernel, MoveSpec};
use crate::{AssignmentSolution, MappingError, Objective, Result, SolveContext};
use elpc_netgraph::NodeId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// The default RNG seed shared by the registry entries (`b"ELPC"` as a
/// 32-bit integer).
pub const DEFAULT_SEED: u64 = 0x454C_5043;

/// Configuration of the simulated-annealing solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealConfig {
    /// RNG seed; equal seeds reproduce the search exactly.
    pub seed: u64,
    /// Proposed moves per restart.
    pub iterations: usize,
    /// Independent restarts (the best mapping across restarts wins).
    pub restarts: usize,
    /// Initial temperature, relative to the current objective (a move that
    /// worsens the objective by fraction `d` is accepted with probability
    /// `exp(-d / T)`).
    pub initial_temp: f64,
    /// Final temperature of the geometric cooling schedule.
    pub final_temp: f64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            seed: DEFAULT_SEED,
            iterations: 2500,
            restarts: 2,
            initial_temp: 0.3,
            final_temp: 1e-3,
        }
    }
}

impl AnnealConfig {
    fn validate(&self) -> Result<()> {
        if self.iterations == 0 || self.restarts == 0 {
            return Err(MappingError::BadConfig(
                "annealing needs at least one iteration and one restart".into(),
            ));
        }
        if !(self.initial_temp > 0.0)
            || !(self.final_temp > 0.0)
            || !self.initial_temp.is_finite()
            || !self.final_temp.is_finite()
        {
            return Err(MappingError::BadConfig(
                "annealing temperatures must be positive and finite".into(),
            ));
        }
        if self.final_temp > self.initial_temp {
            return Err(MappingError::BadConfig(
                "final_temp must not exceed initial_temp (the schedule cools)".into(),
            ));
        }
        Ok(())
    }
}

/// Configuration of the genetic-algorithm solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneticConfig {
    /// RNG seed; equal seeds reproduce the search exactly.
    pub seed: u64,
    /// Individuals per generation.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Probability of one-point crossover (otherwise the fitter parent is
    /// cloned).
    pub crossover_rate: f64,
    /// Per-gene probability of a random-reassignment mutation.
    pub mutation_rate: f64,
    /// Individuals copied unchanged into the next generation.
    pub elite: usize,
}

impl Default for GeneticConfig {
    fn default() -> Self {
        GeneticConfig {
            seed: DEFAULT_SEED,
            population: 32,
            generations: 80,
            tournament: 3,
            crossover_rate: 0.9,
            mutation_rate: 0.1,
            elite: 2,
        }
    }
}

impl GeneticConfig {
    fn validate(&self) -> Result<()> {
        if self.population < 2 || self.generations == 0 || self.tournament == 0 {
            return Err(MappingError::BadConfig(
                "genetic search needs population ≥ 2, generations ≥ 1, tournament ≥ 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.crossover_rate) || !(0.0..=1.0).contains(&self.mutation_rate)
        {
            return Err(MappingError::BadConfig(
                "crossover and mutation rates must lie in [0, 1]".into(),
            ));
        }
        if self.elite >= self.population {
            return Err(MappingError::BadConfig(
                "elite count must be smaller than the population".into(),
            ));
        }
        Ok(())
    }
}

/// Shared search state: the instance shape plus the objective's evaluation
/// and feasibility rules, all served by the context's dense evaluation
/// kernel. Shared with [`crate::tabu`], which drives the same reassign/swap
/// neighborhood from a different acceptance rule.
pub(crate) struct Search {
    objective: Objective,
    kernel: Arc<EvalKernel>,
    pub(crate) n: usize,
    pub(crate) k: usize,
    src: NodeId,
    dst: NodeId,
}

impl Search {
    pub(crate) fn new(ctx: &SolveContext<'_>, objective: Objective) -> Result<Self> {
        let inst = ctx.instance();
        let n = inst.n_modules();
        let k = inst.network.node_count();
        if objective == Objective::MaxRate {
            inst.ensure_distinct_hosts_feasible()?;
        }
        Ok(Search {
            objective,
            kernel: ctx.eval_kernel(),
            n,
            k,
            src: inst.src,
            dst: inst.dst,
        })
    }

    /// True when node reuse is forbidden (the streaming objective).
    pub(crate) fn distinct(&self) -> bool {
        self.objective == Objective::MaxRate
    }

    /// The context's dense evaluation kernel backing this search.
    pub(crate) fn kernel(&self) -> &Arc<EvalKernel> {
        &self.kernel
    }

    /// Routed objective of a full assignment through the dense kernel —
    /// bit-identical to the closure-backed evaluators; `None` when the
    /// assignment is infeasible (an unreachable transfer or a violated
    /// constraint).
    pub(crate) fn evaluate(&self, assignment: &[NodeId]) -> Option<f64> {
        let ms = self.kernel.full_objective_ms(self.objective, assignment);
        ms.is_finite().then_some(ms)
    }

    /// Incremental-evaluation state seated on `assignment`.
    pub(crate) fn delta_state(&self, assignment: &[NodeId]) -> DeltaEval {
        DeltaEval::new(Arc::clone(&self.kernel), self.objective, assignment)
    }

    /// A deterministic baseline assignment: everything on the source until
    /// the pinned sink (MinDelay), or the lowest-index distinct hosts
    /// (MaxRate). May be infeasible; the caller falls back to random draws.
    pub(crate) fn baseline(&self) -> Vec<NodeId> {
        let mut a = vec![self.src; self.n];
        *a.last_mut().expect("n >= 2") = self.dst;
        if self.distinct() {
            let mut next = 0usize;
            for slot in a.iter_mut().take(self.n - 1).skip(1) {
                while next < self.k {
                    let cand = NodeId::from_index(next);
                    next += 1;
                    if cand != self.src && cand != self.dst {
                        *slot = cand;
                        break;
                    }
                }
            }
        }
        a
    }

    /// A uniformly random assignment respecting the objective's
    /// constraints (endpoints pinned; distinct hosts for MaxRate).
    pub(crate) fn random_assignment(&self, rng: &mut ChaCha8Rng) -> Vec<NodeId> {
        let mut a = vec![self.src; self.n];
        *a.last_mut().expect("n >= 2") = self.dst;
        if self.distinct() {
            let mut pool: Vec<NodeId> = (0..self.k)
                .map(NodeId::from_index)
                .filter(|&v| v != self.src && v != self.dst)
                .collect();
            // partial Fisher–Yates: draw n-2 distinct interior hosts
            for j in 1..self.n - 1 {
                let pick = rng.gen_range(0..pool.len() - (j - 1)) + (j - 1);
                pool.swap(j - 1, pick);
                a[j] = pool[j - 1];
            }
        } else {
            for slot in a.iter_mut().take(self.n - 1).skip(1) {
                *slot = NodeId::from_index(rng.gen_range(0..self.k));
            }
        }
        a
    }

    /// An initial feasible assignment: the deterministic baseline when
    /// `use_baseline` (and it evaluates), otherwise up to `attempts` random
    /// draws. Restarts after the first pass `use_baseline = false` so they
    /// diversify from genuinely different starting points.
    pub(crate) fn initial(
        &self,
        rng: &mut ChaCha8Rng,
        attempts: usize,
        use_baseline: bool,
    ) -> Option<(Vec<NodeId>, f64)> {
        if use_baseline {
            let base = self.baseline();
            if let Some(cost) = self.evaluate(&base) {
                return Some((base, cost));
            }
        }
        for _ in 0..attempts {
            let a = self.random_assignment(rng);
            if let Some(cost) = self.evaluate(&a) {
                return Some((a, cost));
            }
        }
        None
    }

    /// Draws one distinct-host neighborhood move — reassign one stage to
    /// an unused host, or swap two stages — without materializing the
    /// candidate (`used` marks which hosts the current assignment
    /// occupies). Only the rate searches (annealing, tabu) propose moves.
    /// Returns `None` when the instance admits no move. The RNG call
    /// sequence is the neighborhood's contract: a seeded run proposes the
    /// same moves whether the caller scores them by delta or by full
    /// evaluation.
    pub(crate) fn propose_spec(&self, used: &[bool], rng: &mut ChaCha8Rng) -> Option<MoveSpec> {
        debug_assert!(self.distinct(), "moves are proposed for MaxRate only");
        let interior = self.n.saturating_sub(2);
        if interior == 0 {
            return None;
        }
        let can_swap = interior >= 2;
        // reassignment needs a currently unused host
        let can_reassign = self.k > self.n;
        let do_swap = match (can_swap, can_reassign) {
            (true, true) => rng.gen_bool(0.5),
            (true, false) => true,
            (false, true) => false,
            (false, false) => return None,
        };
        if do_swap {
            let j1 = 1 + rng.gen_range(0..interior);
            let mut j2 = 1 + rng.gen_range(0..interior - 1);
            if j2 >= j1 {
                j2 += 1;
            }
            Some(MoveSpec::Swap { a: j1, b: j2 })
        } else {
            let j = 1 + rng.gen_range(0..interior);
            // i-th unused host in ascending node order, without
            // materializing the unused list (all n hosts are distinct, so
            // exactly k - n candidates exist)
            let mut pick = rng.gen_range(0..self.k - self.n);
            let mut v = usize::MAX;
            for (c, &u) in used.iter().enumerate() {
                if !u {
                    if pick == 0 {
                        v = c;
                        break;
                    }
                    pick -= 1;
                }
            }
            debug_assert!(v < self.k, "k > n guarantees an unused host");
            Some(MoveSpec::Reassign {
                stage: j,
                to: NodeId::from_index(v),
            })
        }
    }

    pub(crate) fn finish(&self, best: Option<(Vec<NodeId>, f64)>) -> Result<AssignmentSolution> {
        match best {
            Some((assignment, objective_ms)) => Ok(AssignmentSolution {
                assignment,
                objective_ms,
            }),
            None => Err(MappingError::Infeasible(format!(
                "no feasible assignment of {} modules from {} to {} was found",
                self.n, self.src, self.dst
            ))),
        }
    }
}

/// Keeps `best` pointing at the lowest-objective assignment seen so far.
pub(crate) fn track_best(best: &mut Option<(Vec<NodeId>, f64)>, cand: &[NodeId], cost: f64) {
    if best.as_ref().is_none_or(|(_, b)| cost < *b) {
        *best = Some((cand.to_vec(), cost));
    }
}

/// Simulated annealing over distinct-host stage→node assignments (MaxRate).
///
/// Each restart walks from a feasible initial assignment, proposing
/// reassign/swap moves and accepting a worsening move of relative size `d`
/// with probability `exp(-d / T)` under the geometric schedule
/// `T: initial_temp → final_temp`. Candidates are scored incrementally
/// through the context's dense [`crate::eval::EvalKernel`]: a proposed move
/// costs O(1) array arithmetic on only the stage terms it changes (no
/// candidate materialization, no locks, no allocation), and every accepted
/// move re-derives the exact objective, so the walk's current cost — and
/// every incumbent — reconciles bit-for-bit with the routed evaluators.
/// Deterministic for a fixed `(instance, cost model, config)` at any
/// thread count.
pub fn solve_anneal(ctx: &SolveContext<'_>, config: &AnnealConfig) -> Result<AssignmentSolution> {
    config.validate()?;
    let search = Search::new(ctx, Objective::MaxRate)?;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut best: Option<(Vec<NodeId>, f64)> = None;
    let cooling =
        (config.final_temp / config.initial_temp).powf(1.0 / config.iterations.max(1) as f64);

    // one incremental-evaluation state, re-seated per restart
    let mut state: Option<DeltaEval> = None;
    for restart in 0..config.restarts {
        let Some((current, mut cur_cost)) = search.initial(&mut rng, 50, restart == 0) else {
            continue;
        };
        track_best(&mut best, &current, cur_cost);
        match state.as_mut() {
            Some(s) => s.reset(&current),
            None => state = Some(search.delta_state(&current)),
        }
        let state = state.as_mut().expect("seated above");
        let mut temp = config.initial_temp;
        for _ in 0..config.iterations {
            let Some(mv) = search.propose_spec(state.used_hosts(), &mut rng) else {
                break; // a 2-module instance has exactly one assignment
            };
            if let Some(cand_cost) = state.eval_move(mv) {
                let accept = if cand_cost <= cur_cost {
                    true
                } else {
                    let d = (cand_cost - cur_cost) / cur_cost.max(f64::MIN_POSITIVE);
                    rng.gen::<f64>() < (-d / temp).exp()
                };
                if accept {
                    cur_cost = state.apply(mv).expect("accepted move is feasible");
                    track_best(&mut best, state.assignment(), cur_cost);
                }
            }
            temp *= cooling;
        }
    }
    search.finish(best)
}

/// Elitism ordering: population indices by ascending fitness, ties broken
/// by position. A degenerate cost evaluation can surface NaN (0/0 — e.g. a
/// zero-byte payload priced over a zero-bandwidth link); the sort must not
/// panic on it, and `total_cmp` orders NaN above +∞, so such individuals
/// rank strictly worse than every infeasible one and die out.
pub(crate) fn elite_order(fitness: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..fitness.len()).collect();
    order.sort_by(|&a, &b| fitness[a].total_cmp(&fitness[b]).then(a.cmp(&b)));
    order
}

/// Genetic search over distinct-host stage→node assignments (MaxRate).
///
/// A generational GA: tournament selection picks parents, one-point
/// crossover on the interior stage vector recombines them (with a
/// duplicate-repair pass under the distinctness constraint),
/// per-gene mutation reassigns a stage to a random host, and the `elite`
/// best individuals survive unchanged. Fitness is the routed objective
/// through the shared metric closure; infeasible individuals score
/// `+∞` and die out. Deterministic for a fixed `(instance, cost model,
/// config)` at any thread count.
pub fn solve_genetic(ctx: &SolveContext<'_>, config: &GeneticConfig) -> Result<AssignmentSolution> {
    config.validate()?;
    let search = Search::new(ctx, Objective::MaxRate)?;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let n = search.n;

    // seed the population: the deterministic baseline plus random draws
    let mut population: Vec<Vec<NodeId>> = Vec::with_capacity(config.population);
    population.push(search.baseline());
    while population.len() < config.population {
        population.push(search.random_assignment(&mut rng));
    }
    let mut fitness: Vec<f64> = population
        .iter()
        .map(|a| search.evaluate(a).unwrap_or(f64::INFINITY))
        .collect();
    let mut best: Option<(Vec<NodeId>, f64)> = None;
    for (a, &f) in population.iter().zip(&fitness) {
        if f.is_finite() {
            track_best(&mut best, a, f);
        }
    }

    let tournament = |rng: &mut ChaCha8Rng, fitness: &[f64]| -> usize {
        let mut winner = rng.gen_range(0..fitness.len());
        for _ in 1..config.tournament {
            let c = rng.gen_range(0..fitness.len());
            if fitness[c] < fitness[winner] {
                winner = c;
            }
        }
        winner
    };

    for _ in 0..config.generations {
        let order = elite_order(&fitness);
        let mut next: Vec<Vec<NodeId>> = order
            .iter()
            .take(config.elite)
            .map(|&i| population[i].clone())
            .collect();

        while next.len() < config.population {
            let pa = tournament(&mut rng, &fitness);
            let pb = tournament(&mut rng, &fitness);
            let mut child = if n > 3 && rng.gen_bool(config.crossover_rate) {
                // one-point crossover on the interior stage vector
                let cut = 1 + rng.gen_range(1..n - 2);
                let mut c = population[pa][..cut].to_vec();
                c.extend_from_slice(&population[pb][cut..]);
                c
            } else if fitness[pa] <= fitness[pb] {
                population[pa].clone()
            } else {
                population[pb].clone()
            };
            // mutation: random reassignment per interior gene
            for j in 1..n - 1 {
                if rng.gen_bool(config.mutation_rate) {
                    child[j] = NodeId::from_index(rng.gen_range(0..search.k));
                }
            }
            repair_duplicates(&mut child, search.k, &mut rng);
            next.push(child);
        }
        population = next;
        fitness = population
            .iter()
            .map(|a| search.evaluate(a).unwrap_or(f64::INFINITY))
            .collect();
        for (a, &f) in population.iter().zip(&fitness) {
            if f.is_finite() {
                track_best(&mut best, a, f);
            }
        }
    }
    search.finish(best)
}

/// Repairs a genome after crossover/mutation: later duplicates are
/// replaced by deterministic-random unused hosts, so every individual in
/// the population satisfies the distinctness constraint by construction.
fn repair_duplicates(a: &mut [NodeId], k: usize, rng: &mut ChaCha8Rng) {
    let n = a.len();
    let mut used = vec![false; k];
    used[a[0].index()] = true;
    used[a[n - 1].index()] = true;
    for j in 1..n - 1 {
        if !used[a[j].index()] {
            used[a[j].index()] = true;
            continue;
        }
        let unused: Vec<usize> = (0..k).filter(|&v| !used[v]).collect();
        debug_assert!(!unused.is_empty(), "n ≤ k guarantees a free host");
        let pick = unused[rng.gen_range(0..unused.len())];
        a[j] = NodeId::from_index(pick);
        used[pick] = true;
    }
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

    /// ISSUE 9 regression: the elitism sort used `partial_cmp(..).expect`
    /// and panicked the whole GA on the first NaN fitness — which a
    /// degenerate cost evaluation can produce (0/0, e.g. a zero-byte
    /// payload priced over a zero-bandwidth link). NaN must instead rank
    /// strictly worse than every infeasible (+∞) individual.
    #[test]
    fn elite_order_survives_nan_fitness() {
        let fitness = [f64::NAN, 1.0, f64::INFINITY, f64::NAN, 0.5];
        let order = elite_order(&fitness);
        assert_eq!(
            order,
            vec![4, 1, 2, 0, 3],
            "finite < +inf < NaN, index ties"
        );
        // all-degenerate populations must not panic either
        assert_eq!(elite_order(&[f64::NAN, f64::NAN]), vec![0, 1]);
        assert_eq!(elite_order(&[]), Vec::<usize>::new());
    }

    /// End-to-end companion: a seeded population where every individual,
    /// the baseline included, is infeasible (non-finite fitness) still runs
    /// every generation's elitism sort without panicking and recovers a
    /// feasible host pair.
    #[test]
    fn genetic_survives_an_all_infeasible_population() {
        // nodes 1-3 are isolated and the line runs 0-4-5-6, so the
        // baseline (lowest free indices 1, 2) and 18 of the 20 ordered
        // interior pairs are unreachable; only (4, 5) and (5, 4) are finite
        let mut b = elpc_netsim::Network::builder();
        let ns: Vec<NodeId> = [100.0, 10.0, 10.0, 10.0, 50.0, 80.0, 200.0]
            .iter()
            .map(|&p| b.add_node(p).unwrap())
            .collect();
        for w in [0, 4, 5, 6].windows(2) {
            b.add_link(ns[w[0]], ns[w[1]], 10.0, 1.0).unwrap();
        }
        let net = b.build_unchecked();
        let pipe = pipe4();
        let inst = Instance::new(&net, &pipe, ns[0], ns[6]).unwrap();
        let ctx = SolveContext::new(inst, cost());
        let config = GeneticConfig {
            population: 4,
            elite: 1,
            ..GeneticConfig::default()
        };
        // precondition: the seeded initial population is all ∞
        let search = Search::new(&ctx, Objective::MaxRate).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut initial = vec![search.baseline()];
        initial.extend((1..config.population).map(|_| search.random_assignment(&mut rng)));
        for a in &initial {
            assert!(search.evaluate(a).is_none(), "{a:?} is feasible");
        }
        let sol = solve_genetic(&ctx, &config).expect("the line mapping is feasible");
        assert!(sol.objective_ms.is_finite());
        let pair = &sol.assignment[1..3];
        assert!(pair == [ns[4], ns[5]] || pair == [ns[5], ns[4]], "{pair:?}");
    }

    #[test]
    fn anneal_is_seed_deterministic() {
        let net = k5();
        let pipe = pipe4();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let a = solve_anneal(&SolveContext::new(inst, cost()), &AnnealConfig::default()).unwrap();
        let b = solve_anneal(&SolveContext::new(inst, cost()), &AnnealConfig::default()).unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.objective_ms.to_bits(), b.objective_ms.to_bits());
    }

    #[test]
    fn genetic_is_seed_deterministic() {
        let net = k5();
        let pipe = pipe4();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let a = solve_genetic(&SolveContext::new(inst, cost()), &GeneticConfig::default()).unwrap();
        let b = solve_genetic(&SolveContext::new(inst, cost()), &GeneticConfig::default()).unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.objective_ms.to_bits(), b.objective_ms.to_bits());
    }

    #[test]
    fn rate_solutions_respect_the_distinctness_constraint() {
        let net = k5();
        let pipe = pipe4();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let ctx = SolveContext::new(inst, cost());
        for sol in [
            solve_anneal(&ctx, &AnnealConfig::default()).unwrap(),
            solve_genetic(&ctx, &GeneticConfig::default()).unwrap(),
        ] {
            let mut seen = std::collections::BTreeSet::new();
            for &h in &sol.assignment {
                assert!(seen.insert(h), "host {h} reused in a MaxRate mapping");
            }
            assert_eq!(sol.assignment[0], NodeId(0));
            assert_eq!(*sol.assignment.last().unwrap(), NodeId(4));
            // the reported objective re-evaluates exactly
            let re = routed::routed_bottleneck_ms_ctx(&ctx, &sol.assignment, true).unwrap();
            assert_eq!(re.to_bits(), sol.objective_ms.to_bits());
        }
    }

    #[test]
    fn infeasible_instances_are_reported() {
        let net = k5();
        // 6 modules on 5 nodes: MaxRate is structurally infeasible
        let pipe = Pipeline::from_stages(1e5, &[(1.0, 1e4); 4], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let ctx = SolveContext::new(inst, cost());
        assert!(matches!(
            solve_anneal(&ctx, &AnnealConfig::default()),
            Err(MappingError::Infeasible(_))
        ));
        assert!(matches!(
            solve_genetic(&ctx, &GeneticConfig::default()),
            Err(MappingError::Infeasible(_))
        ));
        // coincident endpoints likewise
        let pipe = pipe4();
        let inst = Instance::new(&net, &pipe, NodeId(1), NodeId(1)).unwrap();
        let ctx = SolveContext::new(inst, cost());
        assert!(matches!(
            solve_anneal(&ctx, &AnnealConfig::default()),
            Err(MappingError::Infeasible(_))
        ));
    }

    #[test]
    fn bad_configs_are_rejected() {
        let net = k5();
        let pipe = pipe4();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let ctx = SolveContext::new(inst, cost());
        let bad = AnnealConfig {
            iterations: 0,
            ..Default::default()
        };
        assert!(matches!(
            solve_anneal(&ctx, &bad),
            Err(MappingError::BadConfig(_))
        ));
        let bad = AnnealConfig {
            initial_temp: -1.0,
            ..Default::default()
        };
        assert!(matches!(
            solve_anneal(&ctx, &bad),
            Err(MappingError::BadConfig(_))
        ));
        // a heating schedule (final above initial) is a misconfiguration
        let bad = AnnealConfig {
            initial_temp: 1e-3,
            final_temp: 0.3,
            ..Default::default()
        };
        assert!(matches!(
            solve_anneal(&ctx, &bad),
            Err(MappingError::BadConfig(_))
        ));
        // an infinite temperature would poison the cooling factor into NaN
        let bad = AnnealConfig {
            initial_temp: f64::INFINITY,
            ..Default::default()
        };
        assert!(matches!(
            solve_anneal(&ctx, &bad),
            Err(MappingError::BadConfig(_))
        ));
        let bad = GeneticConfig {
            population: 1,
            ..Default::default()
        };
        assert!(matches!(
            solve_genetic(&ctx, &bad),
            Err(MappingError::BadConfig(_))
        ));
        let bad = GeneticConfig {
            mutation_rate: 1.5,
            ..Default::default()
        };
        assert!(matches!(
            solve_genetic(&ctx, &bad),
            Err(MappingError::BadConfig(_))
        ));
        let bad = GeneticConfig {
            elite: 32,
            ..Default::default()
        };
        assert!(matches!(
            solve_genetic(&ctx, &bad),
            Err(MappingError::BadConfig(_))
        ));
    }

    #[test]
    fn two_module_pipelines_have_one_assignment() {
        let net = k5();
        let pipe = Pipeline::from_stages(1e5, &[], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let ctx = SolveContext::new(inst, cost());
        let sa = solve_anneal(&ctx, &AnnealConfig::default()).unwrap();
        assert_eq!(sa.assignment, vec![NodeId(0), NodeId(4)]);
        let ga = solve_genetic(&ctx, &GeneticConfig::default()).unwrap();
        assert_eq!(ga.assignment, vec![NodeId(0), NodeId(4)]);
    }
}
