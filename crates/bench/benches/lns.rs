//! LNS quality gap vs evaluation budget on the Fig. 2 suite.
//!
//! ISSUE 9's tentpole claim: the budget the eval kernel freed (ISSUE 5
//! made candidate moves O(1)) is better spent on large-neighborhood
//! destroy/repair than on more tabu sweeps. This bench measures the LNS
//! delay quality gap — `lns_delay` objective divided by the routed
//! optimum (`elpc_delay_routed`) — at 1x/10x/100x of the default
//! 5000-evaluation budget, on every Fig. 2 case where the 1x gap is
//! above 1.0, and commits the curves to `BENCH_lns.json`.
//! `tests/bench_artifacts.rs` pins the artifact shape, per-case gap
//! monotonicity in the budget, and the headline floor: case 20
//! (m=100, n=220, l=2500) at the 10x tier closes to a gap of at most
//! 1.05.
//!
//! Not a criterion bench: each case is three deterministic solver runs
//! (LNS is a pure function of its seed), one row per budget tier, so this
//! target has `harness = false` and writes its artifact directly.
//!
//! ```text
//! cargo bench -p elpc-bench --bench lns
//! ```

use elpc_experiments::artifact::{self, Row};
use elpc_mapping::{lns, solver, CostModel, LnsConfig, Objective, SolveContext};
use elpc_workloads::cases::{self, CaseSpec};
use std::path::Path;
use std::time::Instant;

const BASELINE_BUDGET: usize = 5000;
const TIERS: [usize; 3] = [1, 10, 100];

/// One case × budget-tier row: the LNS delay objective at `multiplier`
/// times the default budget, and its gap over the routed optimum (1.0 =
/// optimal).
fn run_tier(spec: &CaseSpec, ctx: &SolveContext<'_>, multiplier: usize, optimum: f64) -> Row {
    let budget = multiplier * BASELINE_BUDGET;
    let config = LnsConfig {
        budget,
        ..Default::default()
    };
    let t0 = Instant::now();
    let sol = lns::solve_lns(ctx, Objective::MinDelay, &config).expect("suite cases are feasible");
    Row::new(
        format!("case{}/{multiplier}x", spec.number),
        [
            ("case", spec.number.into()),
            ("modules", spec.modules.into()),
            ("nodes", spec.nodes.into()),
            ("links", spec.links.into()),
            ("budget", budget.into()),
            ("multiplier", multiplier.into()),
        ],
        [
            ("routed_optimum_ms", optimum),
            ("objective_ms", sol.objective_ms),
            ("gap", sol.objective_ms / optimum),
            ("elapsed_ms", t0.elapsed().as_secs_f64() * 1e3),
        ],
    )
}

fn main() {
    let cost = CostModel::default();
    let routed = solver("elpc_delay_routed").expect("registered");
    let mut rows = Vec::new();

    for spec in cases::paper_cases() {
        let owned = spec.generate().expect("suite cases generate");
        let inst = owned.as_instance();
        let ctx = SolveContext::with_threads(inst, cost, 0);
        let optimum = routed
            .solve(&ctx)
            .expect("suite cases are feasible")
            .objective_ms;

        let base = run_tier(&spec, &ctx, TIERS[0], optimum);
        if base.metric("gap") <= 1.0 + 1e-9 {
            println!(
                "lns case {:02} (m={} n={} l={}): 1x gap {:.4} — already optimal, skipped",
                spec.number,
                spec.modules,
                spec.nodes,
                spec.links,
                base.metric("gap")
            );
            continue;
        }
        let mut tiers = vec![base];
        for &multiplier in &TIERS[1..] {
            tiers.push(run_tier(&spec, &ctx, multiplier, optimum));
        }
        let curve: Vec<String> = tiers
            .iter()
            .map(|t| {
                let (gap, ms) = (t.metric("gap"), t.metric("elapsed_ms"));
                format!("{} {gap:.4} ({ms:.0}ms)", t.id)
            })
            .collect();
        println!(
            "lns case {:02} (m={} n={} l={}): opt {:.1}ms, gap {}",
            spec.number,
            spec.modules,
            spec.nodes,
            spec.links,
            optimum,
            curve.join(" -> ")
        );
        rows.extend(tiers);
    }
    // only the cases whose 1x gap exceeds 1.0: on the rest the default
    // budget already reaches the routed optimum, so there is no curve
    artifact::write(Path::new(env!("CARGO_MANIFEST_DIR")), "lns", rows);
}
