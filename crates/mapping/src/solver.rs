//! The unified solver registry.
//!
//! Every mapping algorithm in this crate is reachable behind one trait:
//! [`Solver`] takes a shared [`SolveContext`] (instance + cost model +
//! metric-closure cache) and returns a uniform [`Solution`]. The static
//! [`registry`] enumerates all entry points, so comparison harnesses,
//! experiment binaries, benches, and the adaptive-remapping control loop
//! select algorithms by name instead of hard-coding call sites — adding an
//! algorithm is a one-file change (implement `Solver` here, append it to
//! `REGISTRY`).
//!
//! | name | objective | semantics |
//! |------|-----------|-----------|
//! | `elpc_delay` | min delay | strict Eq. 1 DP, node reuse (optimal) |
//! | `elpc_delay_routed` | min delay | the same DP on the routed metric closure |
//! | `elpc_rate` | max rate | strict Eq. 2 single-label DP, no reuse |
//! | `elpc_rate_routed` | max rate | K-best routed DP portfolio + polish |
//! | `streamline_delay` | min delay | Streamline baseline, routed evaluation |
//! | `streamline_rate` | max rate | Streamline baseline, routed evaluation |
//! | `greedy_delay` | min delay | local greedy walk (strict) |
//! | `greedy_rate` | max rate | local greedy walk (strict) |
//! | `exact_delay` | min delay | budgeted exhaustive search |
//! | `exact_rate` | max rate | budgeted exhaustive enumeration |
//! | `anneal_rate` | max rate | simulated annealing, routed evaluation |
//! | `genetic_rate` | max rate | genetic algorithm, routed evaluation |
//! | `tabu_rate` | max rate | tabu search, routed evaluation |
//! | `lns_delay` | min delay | adaptive large-neighborhood search, routed evaluation |
//! | `lns_rate` | max rate | adaptive large-neighborhood search, routed evaluation |
//! | `portfolio_delay` | min delay | concurrent slate race over the registry |
//! | `portfolio_rate` | max rate | concurrent slate race over the registry |
//!
//! The metaheuristic entries (see [`crate::metaheuristic`],
//! [`crate::tabu`], and [`crate::lns`]) are seeded and fully deterministic;
//! `workloads::compare` reports their *quality gap* against the exact
//! solver of the same semantics. Annealing, the genetic search and tabu
//! are registered for the rate objective only: min-delay with node reuse
//! has the exact polynomial `elpc_delay_routed` (§3.1.1), which a
//! single-move search can at best tie. The portfolio entries (see
//! [`crate::portfolio`]) race the fixed slates on the context's
//! configured thread count and pick the winner by value with a fixed
//! tie-break order, so they too are deterministic at any thread count.
//!
//! # Examples
//!
//! Run every registered algorithm on one instance through a shared context
//! (the routed solvers then share one metric closure), or pick a solver by
//! name:
//!
//! ```
//! use elpc_mapping::{registry, solver, CostModel, Instance, SolveContext};
//! # let mut b = elpc_netsim::Network::builder();
//! # let s = b.add_node(100.0).unwrap();
//! # let m = b.add_node(1000.0).unwrap();
//! # let d = b.add_node(100.0).unwrap();
//! # b.add_link(s, m, 100.0, 0.5).unwrap();
//! # b.add_link(m, d, 100.0, 0.5).unwrap();
//! # let network = b.build().unwrap();
//! # let pipeline = elpc_pipeline::Pipeline::from_stages(1e6, &[(2.0, 1e5)], 1.0).unwrap();
//! let inst = Instance::new(&network, &pipeline, s, d).unwrap();
//! let ctx = SolveContext::new(inst, CostModel::default());
//! for entry in registry() {
//!     let _ = entry.solve(&ctx); // Ok(Solution) or a typed error
//! }
//! let optimal = solver("elpc_delay").unwrap();
//! assert!(optimal.is_exact());
//! assert!(optimal.solve(&ctx).unwrap().objective_ms > 0.0);
//! ```

use crate::{
    elpc_delay, elpc_rate, exact, greedy, lns, metaheuristic, portfolio, streamline, tabu,
    AssignmentSolution, DelaySolution, Mapping, RateSolution, Result, SolveContext,
};
use elpc_netgraph::NodeId;

/// Which §2.3 objective a solver optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Eq. 1 — minimize end-to-end delay (interactive applications).
    MinDelay,
    /// Eq. 2 — maximize frame rate / minimize the bottleneck stage
    /// (streaming applications).
    MaxRate,
}

/// Uniform solver output: a per-module host assignment, the objective value
/// in ms, and — for solvers whose placements follow network-adjacent paths
/// (the strict DPs, greedy, exact) — the structured [`Mapping`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Node hosting each module, in pipeline order.
    pub assignment: Vec<NodeId>,
    /// Objective value in ms: total delay (MinDelay) or bottleneck stage
    /// time (MaxRate).
    pub objective_ms: f64,
    /// The adjacent-path mapping, when the algorithm produces one. Routed
    /// free-placement solvers (Streamline, the routed ELPC overlays) leave
    /// this `None`: their transfers are multi-hop routes, not single links.
    pub mapping: Option<Mapping>,
}

impl Solution {
    /// Frames per second for MaxRate solutions (Eq. 2 reciprocal).
    pub fn frame_rate_fps(&self) -> f64 {
        elpc_netsim::units::frame_rate_fps(self.objective_ms)
    }

    fn from_delay(d: DelaySolution) -> Self {
        Solution {
            assignment: d.mapping.assignment(),
            objective_ms: d.delay_ms,
            mapping: Some(d.mapping),
        }
    }

    fn from_rate(r: RateSolution) -> Self {
        Solution {
            assignment: r.mapping.assignment(),
            objective_ms: r.bottleneck_ms,
            mapping: Some(r.mapping),
        }
    }

    fn from_assignment(a: AssignmentSolution) -> Self {
        Solution {
            assignment: a.assignment,
            objective_ms: a.objective_ms,
            mapping: None,
        }
    }
}

/// A registered mapping algorithm.
///
/// # Examples
///
/// Implementors are looked up by [`solver`] and run against a shared
/// [`SolveContext`]:
///
/// ```
/// use elpc_mapping::{solver, CostModel, Instance, Objective, SolveContext};
/// # let mut b = elpc_netsim::Network::builder();
/// # let s = b.add_node(100.0).unwrap();
/// # let d = b.add_node(100.0).unwrap();
/// # b.add_link(s, d, 100.0, 0.5).unwrap();
/// # let network = b.build().unwrap();
/// # let pipeline = elpc_pipeline::Pipeline::from_stages(1e5, &[], 1.0).unwrap();
/// let inst = Instance::new(&network, &pipeline, s, d).unwrap();
/// let ctx = SolveContext::new(inst, CostModel::default());
/// let entry = solver("greedy_delay").expect("registered");
/// assert_eq!(entry.objective(), Objective::MinDelay);
/// let solution = entry.solve(&ctx).unwrap();
/// assert_eq!(solution.assignment.len(), pipeline.len());
/// ```
pub trait Solver: Sync {
    /// Stable registry name (snake_case, unique).
    fn name(&self) -> &'static str;

    /// The objective this solver optimizes.
    fn objective(&self) -> Objective;

    /// True for solvers that prove optimality (within their semantics).
    fn is_exact(&self) -> bool {
        false
    }

    /// True for local-search solvers whose candidate scoring runs on the
    /// context's dense [`crate::eval::EvalKernel`]. The portfolio uses
    /// this to hoist the kernel snapshot ahead of the race instead of
    /// letting the first such member build it inside its own timing —
    /// declare it (the `uses_eval_kernel` marker in `declare_solver!`)
    /// when adding a kernel-backed solver so attribution stays clean.
    fn uses_eval_kernel(&self) -> bool {
        false
    }

    /// Runs the algorithm against a shared context.
    fn solve(&self, ctx: &SolveContext<'_>) -> Result<Solution>;
}

// The optional marker ident after `$exact` expands verbatim into a
// `fn <marker>() -> bool { true }` trait override — `uses_eval_kernel` is
// the only marker the `Solver` trait defines, so a misspelled marker fails
// to compile ("method is not a member of trait") instead of being ignored.
macro_rules! declare_solver {
    ($ty:ident, $name:literal, $objective:expr, $exact:literal $(, $marker:ident)?, |$ctx:ident| $body:expr) => {
        struct $ty;

        impl Solver for $ty {
            fn name(&self) -> &'static str {
                $name
            }
            fn objective(&self) -> Objective {
                $objective
            }
            fn is_exact(&self) -> bool {
                $exact
            }
            $(
                fn $marker(&self) -> bool {
                    true
                }
            )?
            fn solve(&self, $ctx: &SolveContext<'_>) -> Result<Solution> {
                $body
            }
        }
    };
}

declare_solver!(ElpcDelay, "elpc_delay", Objective::MinDelay, true, |ctx| {
    elpc_delay::solve(ctx.instance(), ctx.cost()).map(Solution::from_delay)
});

declare_solver!(
    ElpcDelayRouted,
    "elpc_delay_routed",
    Objective::MinDelay,
    true,
    |ctx| elpc_delay::solve_routed_ctx(ctx).map(Solution::from_assignment)
);

declare_solver!(ElpcRate, "elpc_rate", Objective::MaxRate, false, |ctx| {
    elpc_rate::solve(ctx.instance(), ctx.cost()).map(Solution::from_rate)
});

declare_solver!(
    ElpcRateRouted,
    "elpc_rate_routed",
    Objective::MaxRate,
    false,
    |ctx| elpc_rate::solve_routed_portfolio(ctx).map(Solution::from_assignment)
);

declare_solver!(
    StreamlineDelay,
    "streamline_delay",
    Objective::MinDelay,
    false,
    |ctx| streamline::solve_min_delay_ctx(ctx).map(Solution::from_assignment)
);

declare_solver!(
    StreamlineRate,
    "streamline_rate",
    Objective::MaxRate,
    false,
    |ctx| streamline::solve_max_rate_ctx(ctx).map(Solution::from_assignment)
);

declare_solver!(
    GreedyDelay,
    "greedy_delay",
    Objective::MinDelay,
    false,
    |ctx| greedy::solve_min_delay(ctx.instance(), ctx.cost()).map(Solution::from_delay)
);

declare_solver!(
    GreedyRate,
    "greedy_rate",
    Objective::MaxRate,
    false,
    |ctx| greedy::solve_max_rate(ctx.instance(), ctx.cost()).map(Solution::from_rate)
);

declare_solver!(
    ExactDelay,
    "exact_delay",
    Objective::MinDelay,
    true,
    |ctx| {
        exact::min_delay(ctx.instance(), ctx.cost(), exact::ExactLimits::default())
            .map(Solution::from_delay)
    }
);

declare_solver!(ExactRate, "exact_rate", Objective::MaxRate, true, |ctx| {
    exact::max_rate(ctx.instance(), ctx.cost(), exact::ExactLimits::default())
        .map(Solution::from_rate)
});

declare_solver!(
    AnnealRate,
    "anneal_rate",
    Objective::MaxRate,
    false,
    uses_eval_kernel,
    |ctx| {
        metaheuristic::solve_anneal(ctx, &metaheuristic::AnnealConfig::default())
            .map(Solution::from_assignment)
    }
);

declare_solver!(
    GeneticRate,
    "genetic_rate",
    Objective::MaxRate,
    false,
    uses_eval_kernel,
    |ctx| {
        metaheuristic::solve_genetic(ctx, &metaheuristic::GeneticConfig::default())
            .map(Solution::from_assignment)
    }
);

declare_solver!(
    TabuRate,
    "tabu_rate",
    Objective::MaxRate,
    false,
    uses_eval_kernel,
    |ctx| tabu::solve_tabu(ctx, &tabu::TabuConfig::default()).map(Solution::from_assignment)
);

declare_solver!(
    LnsDelay,
    "lns_delay",
    Objective::MinDelay,
    false,
    uses_eval_kernel,
    |ctx| {
        lns::solve_lns(ctx, Objective::MinDelay, &lns::LnsConfig::default())
            .map(Solution::from_assignment)
    }
);

declare_solver!(
    LnsRate,
    "lns_rate",
    Objective::MaxRate,
    false,
    uses_eval_kernel,
    |ctx| {
        lns::solve_lns(ctx, Objective::MaxRate, &lns::LnsConfig::default())
            .map(Solution::from_assignment)
    }
);

declare_solver!(
    PortfolioDelay,
    "portfolio_delay",
    Objective::MinDelay,
    false,
    |ctx| portfolio::solve_portfolio(ctx, Objective::MinDelay).map(|race| race.solution)
);

declare_solver!(
    PortfolioRate,
    "portfolio_rate",
    Objective::MaxRate,
    false,
    |ctx| portfolio::solve_portfolio(ctx, Objective::MaxRate).map(|race| race.solution)
);

static REGISTRY: [&dyn Solver; 17] = [
    &ElpcDelay,
    &ElpcDelayRouted,
    &ElpcRate,
    &ElpcRateRouted,
    &StreamlineDelay,
    &StreamlineRate,
    &GreedyDelay,
    &GreedyRate,
    &ExactDelay,
    &ExactRate,
    &AnnealRate,
    &GeneticRate,
    &TabuRate,
    &LnsDelay,
    &LnsRate,
    &PortfolioDelay,
    &PortfolioRate,
];

/// Every registered solver, in registration order.
pub fn registry() -> &'static [&'static dyn Solver] {
    &REGISTRY
}

/// Looks a solver up by its registry name.
pub fn solver(name: &str) -> Option<&'static dyn Solver> {
    REGISTRY.iter().copied().find(|s| s.name() == name)
}

/// Registered solvers optimizing `objective`.
pub fn solvers_for(objective: Objective) -> Vec<&'static dyn Solver> {
    REGISTRY
        .iter()
        .copied()
        .filter(|s| s.objective() == objective)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, Instance};
    use elpc_netsim::Network;
    use elpc_pipeline::Pipeline;

    fn fixture() -> (Network, Pipeline) {
        let mut b = Network::builder();
        let powers = [100.0, 10.0, 1000.0, 10.0, 100.0];
        let ns: Vec<NodeId> = powers.iter().map(|&p| b.add_node(p).unwrap()).collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                b.add_link(ns[i], ns[j], 100.0, 0.5).unwrap();
            }
        }
        let net = b.build().unwrap();
        let pipe = Pipeline::from_stages(1e6, &[(2.0, 1e5), (1.0, 5e4)], 1.0).unwrap();
        (net, pipe)
    }

    #[test]
    fn registry_names_are_unique_and_complete() {
        let names: Vec<&str> = registry().iter().map(|s| s.name()).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "duplicate registry names");
        for required in [
            "elpc_delay",
            "elpc_delay_routed",
            "elpc_rate",
            "elpc_rate_routed",
            "streamline_delay",
            "streamline_rate",
            "greedy_delay",
            "greedy_rate",
            "exact_delay",
            "exact_rate",
            "anneal_rate",
            "genetic_rate",
            "tabu_rate",
            "lns_delay",
            "lns_rate",
            "portfolio_delay",
            "portfolio_rate",
        ] {
            assert!(
                solver(required).is_some(),
                "solver `{required}` missing from registry"
            );
        }
        assert!(solver("does_not_exist").is_none());
    }

    #[test]
    fn exactly_the_kernel_backed_family_declares_uses_eval_kernel() {
        for s in registry() {
            let expected = ["anneal", "genetic", "tabu", "lns"]
                .iter()
                .any(|p| s.name().starts_with(p));
            assert_eq!(
                s.uses_eval_kernel(),
                expected,
                "`{}` mis-declares its evaluation-kernel use",
                s.name()
            );
        }
    }

    #[test]
    fn objectives_split_the_registry_seven_delay_ten_rate() {
        assert_eq!(solvers_for(Objective::MinDelay).len(), 7);
        assert_eq!(solvers_for(Objective::MaxRate).len(), 10);
    }

    #[test]
    fn every_solver_runs_through_one_shared_context() {
        let (net, pipe) = fixture();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let ctx = SolveContext::new(inst, CostModel::default());
        for s in registry() {
            let sol = s
                .solve(&ctx)
                .unwrap_or_else(|e| panic!("{} failed: {e}", s.name()));
            assert_eq!(sol.assignment.len(), pipe.len(), "{}", s.name());
            assert_eq!(sol.assignment[0], NodeId(0), "{}", s.name());
            assert_eq!(*sol.assignment.last().unwrap(), NodeId(4), "{}", s.name());
            assert!(sol.objective_ms.is_finite() && sol.objective_ms > 0.0);
            if let Some(m) = &sol.mapping {
                assert_eq!(m.assignment(), sol.assignment, "{}", s.name());
            }
        }
        // the routed solvers all hit the same closure
        assert!(
            ctx.closure().stats().hits > 0,
            "sharing a context must produce cache hits"
        );
    }

    #[test]
    fn registry_results_match_direct_calls_bit_for_bit() {
        let (net, pipe) = fixture();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let cost = CostModel::default();
        let ctx = SolveContext::new(inst, cost);

        let direct = elpc_delay::solve(&inst, &cost).unwrap();
        let via = solver("elpc_delay").unwrap().solve(&ctx).unwrap();
        assert_eq!(via.objective_ms.to_bits(), direct.delay_ms.to_bits());
        assert_eq!(via.mapping.as_ref().unwrap(), &direct.mapping);

        let direct = elpc_delay::solve_routed(&inst, &cost).unwrap();
        let via = solver("elpc_delay_routed").unwrap().solve(&ctx).unwrap();
        assert_eq!(via.objective_ms.to_bits(), direct.objective_ms.to_bits());
        assert_eq!(via.assignment, direct.assignment);

        let direct = streamline::solve_max_rate(&inst, &cost).unwrap();
        let via = solver("streamline_rate").unwrap().solve(&ctx).unwrap();
        assert_eq!(via.objective_ms.to_bits(), direct.objective_ms.to_bits());
        assert_eq!(via.assignment, direct.assignment);
    }

    #[test]
    fn exact_solvers_lower_bound_their_heuristics() {
        let (net, pipe) = fixture();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let ctx = SolveContext::new(inst, CostModel::default());
        let exact_delay = solver("exact_delay").unwrap().solve(&ctx).unwrap();
        let exact_rate = solver("exact_rate").unwrap().solve(&ctx).unwrap();
        for s in registry() {
            let Ok(sol) = s.solve(&ctx) else { continue };
            match s.objective() {
                // strict-semantics delay solvers cannot beat the strict optimum;
                // routed overlays may (they relax transport)
                Objective::MinDelay if s.name() == "greedy_delay" => {
                    assert!(exact_delay.objective_ms <= sol.objective_ms + 1e-9);
                }
                Objective::MaxRate if s.name() == "greedy_rate" || s.name() == "elpc_rate" => {
                    assert!(exact_rate.objective_ms <= sol.objective_ms + 1e-9);
                }
                _ => {}
            }
        }
    }
}
