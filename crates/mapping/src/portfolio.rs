//! The portfolio meta-solver: one fixed slate of registry members per
//! objective, racing on one shared context.
//!
//! The registry makes every algorithm callable by name against a shared
//! [`SolveContext`]; the portfolio turns that into a self-racing ensemble.
//! [`solve_portfolio`] runs [`DELAY_SLATE`] or [`RATE_SLATE`] — on the
//! context's [`SolveContext::warm_threads`] workers, concurrently through
//! [`crate::par`] when that is not `1` — against **one** shared
//! metric closure, then returns the best result with per-member
//! timing/quality attribution. A plain [`SolveContext::new`] context races
//! the slate serially, a `with_threads(inst, cost, 0)` context races it on
//! all CPUs. Because `elpc_delay_routed` — provably optimal for the routed
//! delay space — leads the delay slate, `portfolio_delay` inherits its
//! optimality while attributing how close every heuristic came; the
//! single-move delay searches (tabu, annealing, genetic) could at best tie
//! it and are not registered at all. `lns_delay` stays on the delay slate
//! for the closure it leaves behind (see [`DELAY_SLATE`]).
//!
//! ## Determinism
//!
//! The winner is chosen **by value, never by finish order**: every member
//! is deterministic (the seeded searches included) and a member's
//! result cannot depend on what the closure already contains (caching
//! changes *when* trees are built, never what a query returns), so the
//! member outcomes are identical at any thread count. Ties on the
//! objective are broken by slate order — the earliest member with the
//! minimal objective wins — so the portfolio's solution is bit-identical
//! whether the slate ran serially, on two threads, or on all CPUs.
//!
//! N members hammering one sharded closure is also the strongest
//! concurrency stress in the workspace; `tests/context_concurrency.rs`
//! pins that the `hits + misses == queries` statistics invariant and the
//! closure contents survive it bit-for-bit.

use crate::{par, solver, MappingError, Objective, Result, Solution, SolveContext, Solver};

/// The delay slate, in tie-break priority order. Leads with the
/// routed-optimal DP, then the polynomial baselines, then `lns_delay`, the
/// slate's one kernel-backed member: racing it builds the context's
/// [`crate::eval::EvalKernel`], which warms the transfer tree of every
/// source at every boundary payload, so a closure banked after one race
/// serves every later delay checkout without a miss. The DP alone warms
/// only the trees its columns reach. (The budgeted `exact_*` solvers are
/// exponential and stay out of the race.)
pub const DELAY_SLATE: [&str; 4] = [
    "elpc_delay_routed",
    "streamline_delay",
    "greedy_delay",
    "lns_delay",
];

/// The rate slate, in tie-break priority order. The distinct-host rate
/// problem is NP-complete (§3.1.2), so every rate search races here.
pub const RATE_SLATE: [&str; 6] = [
    "elpc_rate_routed",
    "streamline_rate",
    "greedy_rate",
    "tabu_rate",
    "anneal_rate",
    "genetic_rate",
];

/// One slate member's outcome: what it scored, how long it took, whether it
/// won.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberReport {
    /// The member's registry name.
    pub name: String,
    /// Objective in ms when the member solved.
    pub objective_ms: Option<f64>,
    /// The member's error when it failed.
    pub error: Option<MappingError>,
    /// Wall time the member's solve took (ms). Informational only — the
    /// winner is chosen by objective value, never by speed.
    pub elapsed_ms: f64,
    /// True for the member whose solution the portfolio returned.
    pub won: bool,
}

/// A portfolio run: the winning solution plus per-member attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioSolution {
    /// The winning member's solution.
    pub solution: Solution,
    /// The winning member's registry name.
    pub winner: String,
    /// Every member's outcome, in slate order.
    pub members: Vec<MemberReport>,
}

/// Races the `objective`'s slate on `ctx` and returns the best result.
///
/// Members run concurrently on [`crate::par`]'s workers when
/// `ctx.warm_threads() != 1` (`0` = all CPUs), all sharing `ctx`'s metric
/// closure, so the all-pairs transfer trees are built once for the whole
/// slate. The winner is the member with the lowest `objective_ms`, ties
/// broken by slate order; the result is therefore identical at every
/// thread count. When no member solves, the slate's errors collapse to
/// one: [`MappingError::Infeasible`] when every member reported
/// infeasibility, otherwise the first non-infeasibility error in slate
/// order.
///
/// # Examples
///
/// ```
/// use elpc_mapping::{portfolio, CostModel, Instance, Objective, SolveContext};
/// # let mut b = elpc_netsim::Network::builder();
/// # let s = b.add_node(100.0).unwrap();
/// # let m = b.add_node(1000.0).unwrap();
/// # let d = b.add_node(100.0).unwrap();
/// # b.add_link(s, m, 100.0, 0.5).unwrap();
/// # b.add_link(m, d, 100.0, 0.5).unwrap();
/// # let network = b.build().unwrap();
/// # let pipeline = elpc_pipeline::Pipeline::from_stages(1e6, &[(2.0, 1e5)], 1.0).unwrap();
/// let inst = Instance::new(&network, &pipeline, s, d).unwrap();
/// let ctx = SolveContext::new(inst, CostModel::default());
/// let race = portfolio::solve_portfolio(&ctx, Objective::MinDelay).unwrap();
/// // the routed-optimal DP leads the slate, so it wins every tie
/// assert_eq!(race.winner, "elpc_delay_routed");
/// assert_eq!(race.members.len(), portfolio::DELAY_SLATE.len());
/// assert!(race.members.iter().all(|m| m.objective_ms.unwrap() >= race.solution.objective_ms));
/// ```
pub fn solve_portfolio(ctx: &SolveContext<'_>, objective: Objective) -> Result<PortfolioSolution> {
    let names: &[&str] = match objective {
        Objective::MinDelay => &DELAY_SLATE,
        Objective::MaxRate => &RATE_SLATE,
    };
    let members: Vec<&'static dyn Solver> = names
        .iter()
        .map(|&name| solver(name).expect("slate members are registered"))
        .collect();
    race(ctx, &members)
}

/// One member's raw outcome: the solve result and its wall time in ms.
type TimedOutcome = (Result<Solution>, f64);

/// Races `members` on `ctx`: runs each once — serially when
/// `ctx.warm_threads()` resolves to one worker, otherwise work-pulled onto
/// [`par::map`]'s workers all sharing `ctx` — then picks the winner by
/// value, ties by slate order, and collapses the errors when nothing
/// solved.
fn race(ctx: &SolveContext<'_>, members: &[&'static dyn Solver]) -> Result<PortfolioSolution> {
    // when kernel-backed local-search members are racing, snapshot the
    // dense evaluation kernel once up front (parallelized by the context's
    // warm threads) instead of letting the first such member build it
    // mid-race — results are identical either way, only the build is
    // hoisted out of that member's attribution timing
    if members.iter().any(|s| s.uses_eval_kernel()) {
        ctx.eval_kernel();
    }
    let outcomes: Vec<TimedOutcome> = par::map(members, ctx.warm_threads(), |member| {
        let start = std::time::Instant::now();
        let result = member.solve(ctx);
        (result, start.elapsed().as_secs_f64() * 1e3)
    });

    // winner by value, ties by slate order — finish order never enters
    let mut winner: Option<(usize, f64)> = None;
    for (i, (result, _)) in outcomes.iter().enumerate() {
        if let Ok(sol) = result {
            if winner.is_none_or(|(_, best)| sol.objective_ms < best) {
                winner = Some((i, sol.objective_ms));
            }
        }
    }
    let Some((win_idx, _)) = winner else {
        let mut first_error: Option<MappingError> = None;
        for (result, _) in outcomes {
            match result {
                Err(e @ MappingError::Infeasible(_)) => {
                    first_error.get_or_insert(e);
                }
                Err(e) => return Err(e),
                Ok(_) => unreachable!("no winner means no Ok outcome"),
            }
        }
        return Err(first_error.expect("slate is non-empty"));
    };

    let reports: Vec<MemberReport> = members
        .iter()
        .zip(&outcomes)
        .enumerate()
        .map(|(i, (s, (result, elapsed_ms)))| MemberReport {
            name: s.name().to_string(),
            objective_ms: result.as_ref().ok().map(|sol| sol.objective_ms),
            error: result.as_ref().err().cloned(),
            elapsed_ms: *elapsed_ms,
            won: i == win_idx,
        })
        .collect();
    let (result, _) = outcomes.into_iter().nth(win_idx).expect("winner index");
    Ok(PortfolioSolution {
        solution: result.expect("winner solved"),
        winner: members[win_idx].name().to_string(),
        members: reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{k5, pipe4};
    use crate::{CostModel, Instance, NodeId};
    use elpc_pipeline::Pipeline;

    fn cost() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn portfolio_is_thread_count_invariant() {
        let net = k5();
        let pipe = pipe4();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let race_on = |threads: usize, objective: Objective| {
            solve_portfolio(
                &SolveContext::with_threads(inst, cost(), threads),
                objective,
            )
            .unwrap()
        };
        for objective in [Objective::MinDelay, Objective::MaxRate] {
            let serial = race_on(1, objective);
            let two = race_on(2, objective);
            let all = race_on(0, objective);
            for other in [&two, &all] {
                assert_eq!(serial.winner, other.winner);
                assert_eq!(serial.solution.assignment, other.solution.assignment);
                assert_eq!(
                    serial.solution.objective_ms.to_bits(),
                    other.solution.objective_ms.to_bits()
                );
                for (a, b) in serial.members.iter().zip(&other.members) {
                    assert_eq!(a.name, b.name);
                    assert_eq!(a.objective_ms, b.objective_ms);
                    assert_eq!(a.error, b.error);
                    assert_eq!(a.won, b.won);
                }
            }
        }
    }

    #[test]
    fn winner_is_never_beaten_by_any_member() {
        let net = k5();
        let pipe = pipe4();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let ctx = SolveContext::with_threads(inst, cost(), 0);
        for objective in [Objective::MinDelay, Objective::MaxRate] {
            let race = solve_portfolio(&ctx, objective).unwrap();
            assert_eq!(race.members.iter().filter(|m| m.won).count(), 1);
            for m in &race.members {
                if let Some(ms) = m.objective_ms {
                    assert!(
                        race.solution.objective_ms <= ms + 1e-12,
                        "{} beat the declared winner {}",
                        m.name,
                        race.winner
                    );
                }
                assert!(m.elapsed_ms >= 0.0);
            }
        }
    }

    #[test]
    fn ties_break_by_slate_order() {
        let net = k5();
        let pipe = pipe4();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let ctx = SolveContext::with_threads(inst, cost(), 0);
        // the same solver twice: identical values, the first listing wins
        let greedy = solver("greedy_delay").unwrap();
        let race = race(&ctx, &[greedy, greedy]).unwrap();
        assert!(race.members[0].won && !race.members[1].won);
    }

    #[test]
    fn slates_are_registered_single_objective_and_flat() {
        for (objective, names) in [
            (Objective::MinDelay, &DELAY_SLATE[..]),
            (Objective::MaxRate, &RATE_SLATE[..]),
        ] {
            for name in names {
                let s = solver(name).unwrap_or_else(|| panic!("`{name}` is not registered"));
                assert_eq!(
                    s.objective(),
                    objective,
                    "`{name}` optimizes the wrong objective"
                );
                assert!(!name.starts_with("portfolio"), "`{name}` nests a portfolio");
            }
        }
    }

    #[test]
    fn infeasible_when_every_member_is_infeasible() {
        let net = k5();
        // 6 modules on 5 nodes: the whole rate slate is infeasible
        let pipe = Pipeline::from_stages(1e5, &[(1.0, 1e4); 4], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let ctx = SolveContext::new(inst, cost());
        assert!(matches!(
            solve_portfolio(&ctx, Objective::MaxRate),
            Err(MappingError::Infeasible(_))
        ));
    }
}
