//! Reproducibility guarantees: every component of the experiment stack is
//! a pure function of its seeds — a hard requirement for a credible
//! reproduction (same seed ⇒ same table, on any machine).

use elpc::mapping::elpc_rate::RateConfig;
use elpc::mapping::{
    elpc_delay, elpc_rate, par, solver, streamline, CostModel, Instance, MappingError, NodeId,
    SolveContext,
};
use elpc::netgraph::gen;
use elpc::netsim::{Link, Network, Node};
use elpc::pipeline::Pipeline;
use elpc::simcore::{simulate, Workload};
use elpc::workloads::{cases, compare, InstanceSpec};

fn cost() -> CostModel {
    CostModel::default()
}

#[test]
fn instances_are_bitwise_reproducible() {
    let spec = InstanceSpec::sized(8, 16, 40);
    let a = spec.generate(123).unwrap();
    let b = spec.generate(123).unwrap();
    assert_eq!(
        serde_json::to_string(&a.network).unwrap(),
        serde_json::to_string(&b.network).unwrap()
    );
    assert_eq!(a.pipeline, b.pipeline);
}

#[test]
fn solvers_are_deterministic() {
    let owned = InstanceSpec::sized(7, 14, 30).generate(55).unwrap();
    let inst = owned.as_instance();
    let d1 = elpc_delay::solve(&inst, &cost()).unwrap();
    let d2 = elpc_delay::solve(&inst, &cost()).unwrap();
    assert_eq!(d1.mapping, d2.mapping);
    assert_eq!(d1.delay_ms.to_bits(), d2.delay_ms.to_bits());
    if let (Ok(r1), Ok(r2)) = (
        elpc_rate::solve(&inst, &cost()),
        elpc_rate::solve(&inst, &cost()),
    ) {
        assert_eq!(r1.mapping, r2.mapping);
    }
    let s1 = streamline::solve_min_delay(&inst, &cost()).unwrap();
    let s2 = streamline::solve_min_delay(&inst, &cost()).unwrap();
    assert_eq!(s1, s2);
}

#[test]
fn simulation_is_deterministic() {
    let owned = InstanceSpec::sized(6, 12, 25).generate(7).unwrap();
    let inst = owned.as_instance();
    let sol = elpc_delay::solve(&inst, &cost()).unwrap();
    let r1 = simulate(&inst, &cost(), &sol.mapping, Workload::stream(20)).unwrap();
    let r2 = simulate(&inst, &cost(), &sol.mapping, Workload::stream(20)).unwrap();
    assert_eq!(r1, r2);
}

#[test]
fn parallel_sweep_equals_sequential_run() {
    // thread count must never change results (no data races, no
    // order-dependence)
    let specs = &cases::paper_cases()[..3];
    let seq: Vec<compare::CaseResult> = specs
        .iter()
        .map(|s| compare::run_case(&s.generate().unwrap(), &cost()))
        .collect();
    let par = par::map(specs, 3, |s| {
        compare::run_case(&s.generate().unwrap(), &cost())
    });
    assert_eq!(seq, par);
}

/// The full 20-case suite produces identical `compare` rows at
/// `threads = 1` and `threads = 0` (all CPUs): every worker builds its own
/// per-instance `SolveContext`, so the shared metric-closure cache cannot
/// leak state across threads or make results schedule-dependent.
#[test]
fn parallel_sweep_is_thread_count_invariant_over_the_full_suite() {
    let specs = cases::paper_cases();
    let run = |threads: usize| {
        par::map(&specs, threads, |s| {
            compare::run_case(&s.generate().expect("suite cases generate"), &cost())
        })
    };
    let sequential = run(1);
    let parallel = run(0);
    assert_eq!(sequential.len(), 20);
    for (seq_row, par_row) in sequential.iter().zip(&parallel) {
        assert_eq!(seq_row, par_row, "row diverged for {}", seq_row.label);
        // bit-level check on the headline columns (PartialEq on f64 is
        // already exact, but make the intent explicit for the objectives)
        if let (Some(a), Some(b)) = (seq_row.delay_elpc.ms(), par_row.delay_elpc.ms()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        if let (Some(a), Some(b)) = (seq_row.rate_elpc.ms(), par_row.rate_elpc.ms()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn suite_case_one_matches_published_seed_values() {
    // pin the published-seed values of the smallest suite case: if the
    // generator drifts, recorded experiment numbers silently rot.
    // (Update both together when intentionally changing the generator.)
    //
    // These values were re-derived when the workspace moved to the offline
    // rand/rand_chacha shims, whose streams are deterministic but not
    // bit-compatible with upstream rand (the pre-shim pins were 4243.6 ms
    // and 0.43 fps).
    let inst = cases::paper_cases()[0].generate().unwrap();
    let view = inst.as_instance();
    let d = elpc_delay::solve(&view, &cost()).unwrap();
    assert!(
        (d.delay_ms - 1864.0).abs() < 0.1,
        "case 1 delay drifted: {:.1} (pinned 1864.0)",
        d.delay_ms
    );
    // note: the Fig. 2 table's rate column is the routed-overlay portfolio;
    // the strict single-label DP is what is pinned here
    let r = elpc_rate::solve(&view, &cost()).unwrap();
    assert!(
        (r.frame_rate_fps() - 0.35).abs() < 0.01,
        "case 1 strict rate drifted: {:.2} (pinned 0.35)",
        r.frame_rate_fps()
    );
}

// --------------------------------------------------------------------------
// ELPC DP tie order
// --------------------------------------------------------------------------

/// Tie-heavy fixtures: every node has power 100 and every link is 100 Mbps
/// with a 1 ms MLD, so many placements share one objective and the DPs'
/// move order alone picks the reported assignment. Four topologies, 4- and
/// 6-module uniform pipelines, two destinations each, source node 0.
fn tie_fixtures() -> Vec<(String, Network, Pipeline, NodeId)> {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(18);
    let topologies = [
        ("ring12", gen::ring(12).unwrap(), [3, 9]),
        ("complete6", gen::complete(6).unwrap(), [5, 2]),
        (
            "ba30",
            gen::barabasi_albert(30, 2, &mut rng).unwrap(),
            [29, 15],
        ),
        (
            "ws24",
            gen::watts_strogatz(24, 4, 0.2, &mut rng).unwrap(),
            [12, 23],
        ),
    ];
    let mut out = Vec::new();
    for (name, topo, dsts) in topologies {
        let net = Network::from_topology(
            &topo,
            |_| Node::with_power(100.0),
            |_, _| Link::new(100.0, 1.0),
        )
        .unwrap();
        for modules in [4usize, 6] {
            let stages = vec![(1.0, 1e6); modules - 2];
            let pipe = Pipeline::from_stages(1e6, &stages, 1.0).unwrap();
            for dst in dsts {
                let label = format!("{name} m{modules} d{dst}");
                out.push((label, net.clone(), pipe.clone(), NodeId(dst)));
            }
        }
    }
    out
}

/// One line per DP call: the assignment and the objective's bit pattern,
/// or only the error variant.
fn outcome(call: &str, r: Result<(Vec<NodeId>, f64), MappingError>) -> String {
    match r {
        Ok((a, ms)) => {
            let hosts: Vec<String> = a.iter().map(|v| v.index().to_string()).collect();
            format!("{call} [{}] {:#018x}", hosts.join(" "), ms.to_bits())
        }
        Err(e) => {
            let dbg = format!("{e:?}");
            format!("{call} Err({})", dbg.split(['(', ' ']).next().unwrap())
        }
    }
}

/// Runs every ELPC DP entry point on every tie fixture through one context
/// per fixture (`threads` as in [`SolveContext::with_threads`]). Returns
/// one `(outcome, closure stats)` pair per call; routed calls carry the
/// context's cumulative `(hits, misses)` after the call.
fn tie_order_records(threads: usize) -> Vec<(String, Option<(u64, u64)>)> {
    let mut out = Vec::new();
    for (label, net, pipe, dst) in tie_fixtures() {
        let inst = Instance::new(&net, &pipe, NodeId(0), dst).unwrap();
        let ctx = SolveContext::with_threads(inst, cost(), threads);
        let stats = || {
            let s = ctx.closure().stats();
            Some((s.hits, s.misses))
        };
        let call = |c: &str| format!("{label} {c}");
        let d = elpc_delay::solve(&inst, &cost()).map(|s| (s.mapping.assignment(), s.delay_ms));
        out.push((outcome(&call("delay"), d), None));
        let d = elpc_delay::solve_routed_ctx(&ctx).map(|s| (s.assignment, s.objective_ms));
        out.push((outcome(&call("delay_routed"), d), stats()));
        for k_labels in [1, 4] {
            let r = elpc_rate::solve_with(&inst, &cost(), RateConfig { k_labels })
                .map(|s| (s.mapping.assignment(), s.bottleneck_ms));
            out.push((outcome(&call(&format!("rate k{k_labels}")), r), None));
        }
        for k_labels in [1, 12] {
            let r = elpc_rate::solve_routed_with_ctx(&ctx, RateConfig { k_labels })
                .map(|s| (s.assignment, s.objective_ms));
            out.push((
                outcome(&call(&format!("rate_routed k{k_labels}")), r),
                stats(),
            ));
        }
        let r = solver("elpc_rate_routed")
            .unwrap()
            .solve(&ctx)
            .map(|s| (s.assignment, s.objective_ms));
        out.push((outcome(&call("elpc_rate_routed"), r), stats()));
    }
    out
}

/// The DPs' tie order is part of their output: a cell keeps the first of
/// several equal candidates in move order (stay first, then the moves in
/// the order the variant offers them), so the tie-heavy fixtures above pin
/// the reported assignments, not just the objectives. Also pins the lazy
/// closure's hit/miss counts after each routed solve (the routed DPs query
/// their trees in ascending source order, one column at a time), and
/// checks that an all-CPU context reproduces every outcome. The routed
/// DPs' debug assertions re-evaluate on a context of their own, so the
/// pinned counts hold with and without debug assertions.
#[test]
fn elpc_dp_tie_order_is_pinned() {
    let lazy = tie_order_records(1);
    let got: Vec<String> = lazy
        .iter()
        .map(|(o, stats)| match stats {
            Some((h, m)) => format!("{o} h{h} m{m}"),
            None => o.clone(),
        })
        .collect();
    if got != TIE_ORDER {
        for line in &got {
            eprintln!("    {line:?},");
        }
    }
    assert_eq!(got.len(), TIE_ORDER.len());
    for (g, want) in got.iter().zip(TIE_ORDER) {
        assert_eq!(g, want);
    }
    let all_cpus = tie_order_records(0);
    for ((a, _), (b, _)) in lazy.iter().zip(&all_cpus) {
        assert_eq!(a, b, "threads = 0 diverged from the lazy context");
    }
}

/// `tie_order_records(1)`. The assignments, objectives and misses were
/// captured before the strict and routed DPs of each objective were merged
/// into one column loop, the hits from a build without debug assertions
/// before the DPs' debug re-evaluation moved off the shared closure.
const TIE_ORDER: &[&str] = &[
    "ring12 m4 d3 delay [0 1 2 3] 0x40dd88c000000000",
    "ring12 m4 d3 delay_routed [0 3 3 3] 0x40dd88c000000000 h13 m12",
    "ring12 m4 d3 rate k1 [0 1 2 3] 0x40c3880000000000",
    "ring12 m4 d3 rate k4 [0 1 2 3] 0x40c3880000000000",
    "ring12 m4 d3 rate_routed k1 [0 2 1 3] 0x40c3880000000000 h34 m12",
    "ring12 m4 d3 rate_routed k12 [0 2 1 3] 0x40c3880000000000 h55 m12",
    "ring12 m4 d3 elpc_rate_routed [0 2 1 3] 0x40c3880000000000 h88 m12",
    "ring12 m4 d9 delay [0 11 10 9] 0x40dd88c000000000",
    "ring12 m4 d9 delay_routed [0 9 9 9] 0x40dd88c000000000 h13 m12",
    "ring12 m4 d9 rate k1 [0 11 10 9] 0x40c3880000000000",
    "ring12 m4 d9 rate k4 [0 11 10 9] 0x40c3880000000000",
    "ring12 m4 d9 rate_routed k1 [0 2 1 9] 0x40c3880000000000 h34 m12",
    "ring12 m4 d9 rate_routed k12 [0 2 1 9] 0x40c3880000000000 h55 m12",
    "ring12 m4 d9 elpc_rate_routed [0 2 1 9] 0x40c3880000000000 h88 m12",
    "ring12 m6 d3 delay [0 1 2 3 3 3] 0x40e8886000000000",
    "ring12 m6 d3 delay_routed [0 3 3 3 3 3] 0x40e8886000000000 h37 m12",
    "ring12 m6 d3 rate k1 Err(Infeasible)",
    "ring12 m6 d3 rate k4 Err(Infeasible)",
    "ring12 m6 d3 rate_routed k1 [0 2 1 5 4 3] 0x40c3880000000000 h75 m12",
    "ring12 m6 d3 rate_routed k12 [0 5 4 2 1 3] 0x40c3880000000000 h116 m12",
    "ring12 m6 d3 elpc_rate_routed [0 5 4 2 1 3] 0x40c3880000000000 h172 m12",
    "ring12 m6 d9 delay [0 11 10 9 9 9] 0x40e8886000000000",
    "ring12 m6 d9 delay_routed [0 9 9 9 9 9] 0x40e8886000000000 h37 m12",
    "ring12 m6 d9 rate k1 Err(Infeasible)",
    "ring12 m6 d9 rate k4 Err(Infeasible)",
    "ring12 m6 d9 rate_routed k1 [0 2 1 4 3 9] 0x40c3880000000000 h75 m12",
    "ring12 m6 d9 rate_routed k12 [0 4 3 2 1 9] 0x40c3880000000000 h116 m12",
    "ring12 m6 d9 elpc_rate_routed [0 4 3 2 1 9] 0x40c3880000000000 h172 m12",
    "complete6 m4 d5 delay [0 5 5 5] 0x40dd604000000000",
    "complete6 m4 d5 delay_routed [0 5 5 5] 0x40dd604000000000 h7 m6",
    "complete6 m4 d5 rate k1 [0 2 1 5] 0x40c3880000000000",
    "complete6 m4 d5 rate k4 [0 2 1 5] 0x40c3880000000000",
    "complete6 m4 d5 rate_routed k1 [0 2 1 5] 0x40c3880000000000 h16 m6",
    "complete6 m4 d5 rate_routed k12 [0 2 1 5] 0x40c3880000000000 h25 m6",
    "complete6 m4 d5 elpc_rate_routed [0 2 1 5] 0x40c3880000000000 h46 m6",
    "complete6 m4 d2 delay [0 2 2 2] 0x40dd604000000000",
    "complete6 m4 d2 delay_routed [0 2 2 2] 0x40dd604000000000 h7 m6",
    "complete6 m4 d2 rate k1 [0 3 1 2] 0x40c3880000000000",
    "complete6 m4 d2 rate k4 [0 3 1 2] 0x40c3880000000000",
    "complete6 m4 d2 rate_routed k1 [0 3 1 2] 0x40c3880000000000 h16 m6",
    "complete6 m4 d2 rate_routed k12 [0 3 1 2] 0x40c3880000000000 h25 m6",
    "complete6 m4 d2 elpc_rate_routed [0 3 1 2] 0x40c3880000000000 h46 m6",
    "complete6 m6 d5 delay [0 5 5 5 5 5] 0x40e8742000000000",
    "complete6 m6 d5 delay_routed [0 5 5 5 5 5] 0x40e8742000000000 h19 m6",
    "complete6 m6 d5 rate k1 [0 2 1 4 3 5] 0x40c3880000000000",
    "complete6 m6 d5 rate k4 [0 4 3 2 1 5] 0x40c3880000000000",
    "complete6 m6 d5 rate_routed k1 [0 2 1 4 3 5] 0x40c3880000000000 h33 m6",
    "complete6 m6 d5 rate_routed k12 [0 4 3 2 1 5] 0x40c3880000000000 h50 m6",
    "complete6 m6 d5 elpc_rate_routed [0 4 3 2 1 5] 0x40c3880000000000 h87 m6",
    "complete6 m6 d2 delay [0 2 2 2 2 2] 0x40e8742000000000",
    "complete6 m6 d2 delay_routed [0 2 2 2 2 2] 0x40e8742000000000 h19 m6",
    "complete6 m6 d2 rate k1 [0 3 1 5 4 2] 0x40c3880000000000",
    "complete6 m6 d2 rate k4 [0 5 4 3 1 2] 0x40c3880000000000",
    "complete6 m6 d2 rate_routed k1 [0 3 1 5 4 2] 0x40c3880000000000 h33 m6",
    "complete6 m6 d2 rate_routed k12 [0 5 4 3 1 2] 0x40c3880000000000 h50 m6",
    "complete6 m6 d2 elpc_rate_routed [0 5 4 3 1 2] 0x40c3880000000000 h87 m6",
    "ba30 m4 d29 delay [0 29 29 29] 0x40dd604000000000",
    "ba30 m4 d29 delay_routed [0 29 29 29] 0x40dd604000000000 h31 m30",
    "ba30 m4 d29 rate k1 [0 3 20 29] 0x40c3880000000000",
    "ba30 m4 d29 rate k4 [0 3 20 29] 0x40c3880000000000",
    "ba30 m4 d29 rate_routed k1 [0 2 1 29] 0x40c3880000000000 h88 m30",
    "ba30 m4 d29 rate_routed k12 [0 2 1 29] 0x40c3880000000000 h145 m30",
    "ba30 m4 d29 elpc_rate_routed [0 2 1 29] 0x40c3880000000000 h214 m30",
    "ba30 m4 d15 delay [0 1 15 15] 0x40dd748000000000",
    "ba30 m4 d15 delay_routed [0 15 15 15] 0x40dd748000000000 h31 m30",
    "ba30 m4 d15 rate k1 [0 2 1 15] 0x40c3880000000000",
    "ba30 m4 d15 rate k4 [0 2 1 15] 0x40c3880000000000",
    "ba30 m4 d15 rate_routed k1 [0 2 1 15] 0x40c3880000000000 h88 m30",
    "ba30 m4 d15 rate_routed k12 [0 2 1 15] 0x40c3880000000000 h145 m30",
    "ba30 m4 d15 elpc_rate_routed [0 2 1 15] 0x40c3880000000000 h214 m30",
    "ba30 m6 d29 delay [0 29 29 29 29 29] 0x40e8742000000000",
    "ba30 m6 d29 delay_routed [0 29 29 29 29 29] 0x40e8742000000000 h91 m30",
    "ba30 m6 d29 rate k1 [0 2 1 3 20 29] 0x40c3880000000000",
    "ba30 m6 d29 rate k4 [0 2 1 3 20 29] 0x40c3880000000000",
    "ba30 m6 d29 rate_routed k1 [0 2 1 4 3 29] 0x40c3880000000000 h201 m30",
    "ba30 m6 d29 rate_routed k12 [0 4 3 2 1 29] 0x40c3880000000000 h314 m30",
    "ba30 m6 d29 elpc_rate_routed [0 4 3 2 1 29] 0x40c3880000000000 h447 m30",
    "ba30 m6 d15 delay [0 1 15 15 15 15] 0x40e87e4000000000",
    "ba30 m6 d15 delay_routed [0 15 15 15 15 15] 0x40e87e4000000000 h91 m30",
    "ba30 m6 d15 rate k1 Err(Infeasible)",
    "ba30 m6 d15 rate k4 [0 10 11 3 1 15] 0x40c3880000000000",
    "ba30 m6 d15 rate_routed k1 [0 2 1 4 3 15] 0x40c3880000000000 h201 m30",
    "ba30 m6 d15 rate_routed k12 [0 4 3 2 1 15] 0x40c3880000000000 h314 m30",
    "ba30 m6 d15 elpc_rate_routed [0 4 3 2 1 15] 0x40c3880000000000 h447 m30",
    "ws24 m4 d12 delay Err(Infeasible)",
    "ws24 m4 d12 delay_routed [0 12 12 12] 0x40dd9d0000000000 h25 m24",
    "ws24 m4 d12 rate k1 Err(Infeasible)",
    "ws24 m4 d12 rate k4 Err(Infeasible)",
    "ws24 m4 d12 rate_routed k1 [0 2 1 12] 0x40c3880000000000 h70 m24",
    "ws24 m4 d12 rate_routed k12 [0 2 1 12] 0x40c3880000000000 h115 m24",
    "ws24 m4 d12 elpc_rate_routed [0 2 1 12] 0x40c3880000000000 h169 m24",
    "ws24 m4 d23 delay [0 23 23 23] 0x40dd604000000000",
    "ws24 m4 d23 delay_routed [0 23 23 23] 0x40dd604000000000 h25 m24",
    "ws24 m4 d23 rate k1 [0 22 21 23] 0x40c3880000000000",
    "ws24 m4 d23 rate k4 [0 22 21 23] 0x40c3880000000000",
    "ws24 m4 d23 rate_routed k1 [0 2 1 23] 0x40c3880000000000 h70 m24",
    "ws24 m4 d23 rate_routed k12 [0 2 1 23] 0x40c3880000000000 h115 m24",
    "ws24 m4 d23 elpc_rate_routed [0 2 1 23] 0x40c3880000000000 h172 m24",
    "ws24 m6 d12 delay [0 22 6 7 12 12] 0x40e8928000000000",
    "ws24 m6 d12 delay_routed [0 12 12 12 12 12] 0x40e8928000000000 h73 m24",
    "ws24 m6 d12 rate k1 [0 1 3 5 7 12] 0x40c3880000000000",
    "ws24 m6 d12 rate k4 [0 1 3 5 7 12] 0x40c3880000000000",
    "ws24 m6 d12 rate_routed k1 [0 2 1 4 3 12] 0x40c3880000000000 h159 m24",
    "ws24 m6 d12 rate_routed k12 [0 4 3 2 1 12] 0x40c3880000000000 h248 m24",
    "ws24 m6 d12 elpc_rate_routed [0 4 3 2 1 12] 0x40c3880000000000 h357 m24",
    "ws24 m6 d23 delay [0 23 23 23 23 23] 0x40e8742000000000",
    "ws24 m6 d23 delay_routed [0 23 23 23 23 23] 0x40e8742000000000 h73 m24",
    "ws24 m6 d23 rate k1 [0 11 10 19 21 23] 0x40c3880000000000",
    "ws24 m6 d23 rate k4 [0 11 10 19 21 23] 0x40c3880000000000",
    "ws24 m6 d23 rate_routed k1 [0 2 1 4 3 23] 0x40c3880000000000 h159 m24",
    "ws24 m6 d23 rate_routed k12 [0 4 3 2 1 23] 0x40c3880000000000 h248 m24",
    "ws24 m6 d23 elpc_rate_routed [0 4 3 2 1 23] 0x40c3880000000000 h357 m24",
];
