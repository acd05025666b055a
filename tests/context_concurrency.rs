//! Concurrency and determinism lockdown for the sharded `MetricClosure`,
//! the parallel warm-up path, and the cross-instance `ClosureBank`.
//!
//! The contract under test: thread counts and cache seeding change *when*
//! shortest-path trees are built and *where* they come from — never their
//! contents, never a solver's output, and never the exactness of the
//! statistics. CI runs the `determinism_` tests both at
//! `RUST_TEST_THREADS=1` and with `threads = 0` (all CPUs) warm-ups.

use elpc::mapping::{solver, CostModel, MetricClosure, NodeId, SolveContext};
use elpc::netgraph::algo::dijkstra;
use elpc::workloads::compare::{run_case, run_case_opts, run_cases};
use elpc::workloads::{cases, ClosureBank, InstanceSpec, ProblemInstance};

fn cost() -> CostModel {
    CostModel::default()
}

/// The distinct stage-boundary payload sizes of an instance's pipeline.
fn boundary_payloads(inst: &ProblemInstance) -> Vec<f64> {
    let mut p: Vec<f64> = (1..inst.pipeline.len())
        .map(|j| inst.pipeline.input_bytes(j))
        .collect();
    p.sort_by(|a, b| a.partial_cmp(b).expect("payloads are finite"));
    p.dedup();
    p
}

// --------------------------------------------------------------------------
// parallel-vs-serial determinism
// --------------------------------------------------------------------------

/// `par_warm` at `threads = 1` and `threads = 0` leaves bit-for-bit
/// identical caches on ≥ 20 generated instances.
#[test]
fn determinism_par_warm_thread_counts_are_bit_identical() {
    for seed in 0..20u64 {
        let owned = InstanceSpec::sized(5, 10, 24).generate(seed).unwrap();
        let net = &owned.network;
        let payloads = boundary_payloads(&owned);
        let sources: Vec<NodeId> = net.node_ids().collect();

        let serial = MetricClosure::new(net, cost());
        let parallel = MetricClosure::new(net, cost());
        let built_serial = serial.par_warm(&sources, &payloads, 1);
        let built_parallel = parallel.par_warm(&sources, &payloads, 0);
        assert_eq!(built_serial, built_parallel, "seed {seed}");
        assert_eq!(serial.cached_trees(), parallel.cached_trees());

        for &src in &sources {
            for &bytes in &payloads {
                let a = serial.routed_from(src, bytes);
                let b = parallel.routed_from(src, bytes);
                let fresh = dijkstra(net.graph(), src, |eid, _| {
                    cost().edge_transfer_ms(net, eid, bytes)
                });
                for v in 0..net.node_count() {
                    assert_eq!(
                        a.dist[v].to_bits(),
                        b.dist[v].to_bits(),
                        "seed {seed}, src {src}, payload {bytes}, node {v}"
                    );
                    assert_eq!(a.prev[v], b.prev[v]);
                    assert_eq!(a.dist[v].to_bits(), fresh.dist[v].to_bits());
                    assert_eq!(a.prev[v], fresh.prev[v]);
                }
            }
        }
    }
}

/// Every solver produces identical output on lazy-serial, serial-warm, and
/// all-CPU-warm contexts, on ≥ 20 generated instances. For the routed DPs
/// the thread count only decides when their trees are built, and for the
/// metaheuristics it must not perturb the seeded search.
#[test]
fn determinism_solver_outputs_are_warm_up_invariant() {
    let names = [
        "elpc_delay_routed",
        "elpc_rate_routed",
        "streamline_delay",
        "streamline_rate",
        "lns_delay",
        "genetic_rate",
    ];
    for seed in 100..120u64 {
        let owned = InstanceSpec::sized(5, 9, 20).generate(seed).unwrap();
        let inst = owned.as_instance();
        for name in names {
            let s = solver(name).expect("registered");
            let lazy = s.solve(&SolveContext::new(inst, cost()));
            let warm1 = s.solve(&SolveContext::with_threads(inst, cost(), 2));
            let warm0 = s.solve(&SolveContext::with_threads(inst, cost(), 0));
            match (lazy, warm1, warm0) {
                (Ok(a), Ok(b), Ok(c)) => {
                    assert_eq!(
                        a.objective_ms.to_bits(),
                        b.objective_ms.to_bits(),
                        "seed {seed}, solver {name}"
                    );
                    assert_eq!(a.objective_ms.to_bits(), c.objective_ms.to_bits());
                    assert_eq!(a.assignment, b.assignment);
                    assert_eq!(a.assignment, c.assignment);
                }
                (Err(a), Err(b), Err(c)) => {
                    assert_eq!(a.to_string(), b.to_string(), "seed {seed}, solver {name}");
                    assert_eq!(a.to_string(), c.to_string());
                }
                other => panic!("seed {seed}, solver {name}: divergent feasibility {other:?}"),
            }
        }
    }
}

/// The routed DPs on `threads = 1` (lazy trees, no workers), `threads = 2`
/// and `threads = 0` (all CPUs) contexts: the trees are pre-built in
/// parallel on the last two, and the DP outputs — objective *and*
/// assignment — must be bit-for-bit identical on every one, on 30- to
/// 90-node instances.
#[test]
fn determinism_parallel_relax_is_bit_identical_to_serial() {
    for (seed, (m, n, l)) in [
        (31u64, (8, 70, 220)),
        (32, (6, 64, 160)),
        (33, (10, 90, 300)),
        (34, (7, 30, 100)),
    ]
    .into_iter()
    .cycle()
    .take(8)
    .enumerate()
    .map(|(i, (s, dims))| (s + 100 * i as u64, dims))
    {
        let owned = InstanceSpec::sized(m, n, l).generate(seed).unwrap();
        let inst = owned.as_instance();
        for name in ["elpc_delay_routed", "elpc_rate_routed"] {
            let s = solver(name).expect("registered");
            let serial = s.solve(&SolveContext::with_threads(inst, cost(), 1));
            let two = s.solve(&SolveContext::with_threads(inst, cost(), 2));
            let all = s.solve(&SolveContext::with_threads(inst, cost(), 0));
            match (serial, two, all) {
                (Ok(a), Ok(b), Ok(c)) => {
                    assert_eq!(
                        a.objective_ms.to_bits(),
                        b.objective_ms.to_bits(),
                        "seed {seed}, {name}: t1 vs t2"
                    );
                    assert_eq!(
                        a.objective_ms.to_bits(),
                        c.objective_ms.to_bits(),
                        "seed {seed}, {name}: t1 vs t0"
                    );
                    assert_eq!(a.assignment, b.assignment, "seed {seed}, {name}");
                    assert_eq!(a.assignment, c.assignment, "seed {seed}, {name}");
                }
                (Err(a), Err(b), Err(c)) => {
                    assert_eq!(a.to_string(), b.to_string(), "seed {seed}, {name}");
                    assert_eq!(a.to_string(), c.to_string(), "seed {seed}, {name}");
                }
                other => panic!("seed {seed}, {name}: divergent feasibility {other:?}"),
            }
        }
    }
}

// --------------------------------------------------------------------------
// concurrent stress
// --------------------------------------------------------------------------

/// Many threads hammer one shared closure with a mixed hit/miss key
/// pattern: the final statistics stay exact (`hits + misses == queries`)
/// and every cached entry equals a fresh Dijkstra run.
#[test]
fn concurrent_stress_keeps_stats_exact_and_entries_correct() {
    let owned = InstanceSpec::sized(6, 20, 60).generate(4242).unwrap();
    let net = &owned.network;
    let k = net.node_count();
    let payloads: Vec<f64> = (1..=6).map(|i| 2.5e5 * i as f64).collect();
    let mc = MetricClosure::new(net, cost());

    const THREADS: usize = 8;
    const PER_THREAD: usize = 500;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let mc = &mc;
            let payloads = &payloads;
            scope.spawn(move || {
                // a cheap deterministic per-thread LCG walk over the keys,
                // revisiting hot keys often (hits) and spreading over the
                // full space (misses)
                let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1);
                for _ in 0..PER_THREAD {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let src = NodeId::from_index(((state >> 33) as usize) % k);
                    let bytes = payloads[((state >> 7) as usize) % payloads.len()];
                    let tree = mc.routed_from(src, bytes);
                    assert_eq!(tree.dist.len(), k);
                }
            });
        }
    });

    let stats = mc.stats();
    assert_eq!(
        stats.hits + stats.misses,
        (THREADS * PER_THREAD) as u64,
        "every query must count exactly one hit or one miss"
    );
    // each cached tree cost at least one miss (racing builders may add more)
    assert!(stats.misses as usize >= mc.cached_trees());
    assert!(mc.cached_trees() <= k * payloads.len());
    assert!(
        stats.hit_rate() > 0.5,
        "the walk revisits keys; most queries must hit ({stats:?})"
    );

    // every entry the stress built equals a fresh Dijkstra, bit for bit
    for v in 0..k {
        let src = NodeId::from_index(v);
        for &bytes in &payloads {
            if !mc.contains(src, bytes) {
                continue;
            }
            let cached = mc.routed_from(src, bytes);
            let fresh = dijkstra(net.graph(), src, |eid, _| {
                cost().edge_transfer_ms(net, eid, bytes)
            });
            for u in 0..k {
                assert_eq!(cached.dist[u].to_bits(), fresh.dist[u].to_bits());
                assert_eq!(cached.prev[u], fresh.prev[u]);
            }
        }
    }
}

/// The strongest concurrency stress the closure faces: both portfolio
/// slates — twelve registered solvers, metaheuristics included — hammer
/// **one** shared context at full parallelism (the two races themselves on
/// separate threads, each racing its slate on all CPUs). The lockdown:
///
/// * every member's query count is deterministic and cache-independent, so
///   the concurrent run's `hits + misses` must equal the serial run's
///   total **exactly** (racing builders each record their own miss, so
///   only the hit/miss split may shift — never the sum);
/// * both race winners are bit-identical to the serial references;
/// * every closure entry the stress built equals a fresh serial Dijkstra.
#[test]
fn concurrent_portfolio_races_keep_stats_exact_and_closure_correct() {
    use elpc::mapping::portfolio::solve_portfolio;
    use elpc::mapping::Objective;

    let owned = InstanceSpec::sized(6, 14, 40).generate(2024).unwrap();
    let inst = owned.as_instance();

    // serial reference: both slates, one at a time, on a fresh context
    let serial_ctx = SolveContext::new(inst, cost());
    let serial_delay =
        solve_portfolio(&serial_ctx, Objective::MinDelay).expect("delay slate solves");
    let serial_rate = solve_portfolio(&serial_ctx, Objective::MaxRate).expect("rate slate solves");
    let serial_stats = serial_ctx.closure().stats();

    // concurrent: one shared context, both races at once, slates on all CPUs
    let ctx = SolveContext::with_threads(inst, cost(), 0);
    let (delay, rate) = std::thread::scope(|scope| {
        let d =
            scope.spawn(|| solve_portfolio(&ctx, Objective::MinDelay).expect("delay slate solves"));
        let r =
            scope.spawn(|| solve_portfolio(&ctx, Objective::MaxRate).expect("rate slate solves"));
        (d.join().unwrap(), r.join().unwrap())
    });

    for (concurrent, serial) in [(&delay, &serial_delay), (&rate, &serial_rate)] {
        assert_eq!(concurrent.winner, serial.winner);
        assert_eq!(concurrent.solution.assignment, serial.solution.assignment);
        assert_eq!(
            concurrent.solution.objective_ms.to_bits(),
            serial.solution.objective_ms.to_bits()
        );
        for (a, b) in concurrent.members.iter().zip(&serial.members) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.objective_ms, b.objective_ms, "member {}", a.name);
            assert_eq!(a.won, b.won, "member {}", a.name);
        }
    }

    // exact statistics: the sum is the (deterministic) query count
    let stats = ctx.closure().stats();
    assert_eq!(
        stats.hits + stats.misses,
        serial_stats.hits + serial_stats.misses,
        "hits + misses must equal the slates' total query count \
         (concurrent {stats:?} vs serial {serial_stats:?})"
    );
    // each cached tree cost at least one miss (racing builders may add more)
    assert!(stats.misses as usize >= ctx.closure().cached_trees());

    // every entry the stress built equals a fresh serial Dijkstra
    for entry in ctx.closure().export() {
        let src = entry.key.source_node();
        let bytes = entry.key.payload();
        let fresh = dijkstra(owned.network.graph(), src, |eid, _| {
            cost().edge_transfer_ms(&owned.network, eid, bytes)
        });
        for v in 0..owned.network.node_count() {
            assert_eq!(
                entry.tree.dist[v].to_bits(),
                fresh.dist[v].to_bits(),
                "src {src}, payload {bytes}, node {v}"
            );
            assert_eq!(entry.tree.prev[v], fresh.prev[v]);
        }
    }
}

/// A single `SolveContext` shared by reference across threads: concurrent
/// solves agree with the serial baseline exactly.
#[test]
fn concurrent_solves_share_one_context_safely() {
    let owned = InstanceSpec::sized(6, 14, 40).generate(777).unwrap();
    let inst = owned.as_instance();
    let baseline = solver("elpc_delay_routed")
        .unwrap()
        .solve(&SolveContext::new(inst, cost()))
        .unwrap();

    let ctx = SolveContext::new(inst, cost());
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let ctx = &ctx;
                scope.spawn(move || {
                    solver("elpc_delay_routed")
                        .unwrap()
                        .solve(ctx)
                        .expect("feasible")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for sol in results {
        assert_eq!(sol.objective_ms.to_bits(), baseline.objective_ms.to_bits());
        assert_eq!(sol.assignment, baseline.assignment);
    }
    let stats = ctx.closure().stats();
    assert!(stats.hits > 0, "six solves on one closure must share trees");
}

// --------------------------------------------------------------------------
// ClosureBank identity and the banked sweep/compare path
// --------------------------------------------------------------------------

/// The golden-CSV pin: `fig2_table`-shaped rows over the suite prefix are
/// character-identical with the bank on and off.
#[test]
fn determinism_fig2_rows_identical_with_bank_on_and_off() {
    use elpc_experiments::{fmt_fps, fmt_ms};
    let to_csv = |rows: &[elpc::workloads::compare::CaseResult]| -> String {
        let mut csv = String::from(
            "case,m,n,l,elpc_delay,streamline_delay,greedy_delay,\
             elpc_rate,streamline_rate,greedy_rate\n",
        );
        for (i, r) in rows.iter().enumerate() {
            csv.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{}\n",
                i + 1,
                r.dims.0,
                r.dims.1,
                r.dims.2,
                fmt_ms(&r.delay_elpc),
                fmt_ms(&r.delay_streamline),
                fmt_ms(&r.delay_greedy),
                fmt_fps(&r.rate_elpc),
                fmt_fps(&r.rate_streamline),
                fmt_fps(&r.rate_greedy),
            ));
        }
        csv
    };

    let specs = &cases::paper_cases()[..4];
    let plain: Vec<_> = specs
        .iter()
        .map(|c| run_case(&c.generate().unwrap(), &cost()))
        .collect();
    let bank = ClosureBank::new();
    let banked: Vec<_> = specs
        .iter()
        .map(|c| run_case_opts(&c.generate().unwrap(), &cost(), Some(&bank)))
        .collect();
    assert_eq!(plain, banked, "bank must not change any row");
    assert_eq!(to_csv(&plain), to_csv(&banked), "golden CSV must pin");
    // four distinct topologies: all misses, all deposited
    assert_eq!(bank.stats().misses, 4);
    assert_eq!(bank.len(), 4);
}

/// The sweep/compare path reuses a banked closure across cases sharing a
/// network, and a perturbed network misses the bank.
#[test]
fn banked_sweep_hits_on_shared_topology_and_misses_on_perturbation() {
    let spec = InstanceSpec::sized(6, 12, 30);
    let inst = spec.generate(9).unwrap();
    let baseline = run_case(&inst, &cost());

    // three sweep cases over one network → one cold build, two bank hits
    let suite = vec![inst.clone(), inst.clone(), inst.clone()];
    let bank = ClosureBank::new();
    let rows = run_cases(&suite, &cost(), 1, Some(&bank));
    for row in &rows {
        assert_eq!(row, &baseline);
    }
    let stats = bank.stats();
    assert_eq!((stats.hits, stats.misses), (2, 1));
    assert!(stats.hit_rate() > 0.6);

    // perturb one link bandwidth: the fingerprint guard must force a miss
    let mut perturbed = spec.generate(9).unwrap();
    let link = perturbed
        .network
        .link(elpc::netgraph::EdgeId(0))
        .unwrap()
        .clone();
    perturbed
        .network
        .set_link_symmetric(
            elpc::netgraph::EdgeId(0),
            elpc::netsim::Link::new(link.bw_mbps + 0.5, link.mld_ms),
        )
        .unwrap();
    run_case_opts(&perturbed, &cost(), Some(&bank));
    assert_eq!(bank.stats().misses, 2, "perturbed bandwidth must miss");

    // ... and a perturbed MLD likewise
    let mut perturbed = spec.generate(9).unwrap();
    perturbed
        .network
        .set_link_symmetric(
            elpc::netgraph::EdgeId(0),
            elpc::netsim::Link::new(link.bw_mbps, link.mld_ms + 0.25),
        )
        .unwrap();
    run_case_opts(&perturbed, &cost(), Some(&bank));
    assert_eq!(bank.stats().misses, 3, "perturbed MLD must miss");
}
