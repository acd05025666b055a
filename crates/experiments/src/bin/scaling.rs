//! Regenerates the §4.3 runtime observation: "the measured execution time
//! of these algorithms varies from milliseconds for small-scale problems to
//! seconds for large-scale ones", and checks the published complexity
//! classes (`O(n·|E|)` for ELPC-delay, `O(m·n²)` for Streamline, `O(m·n)`
//! for Greedy) by timing a size sweep.
//!
//! Algorithms come from the `elpc_mapping` solver registry; per size the
//! sweep reports a *cold* solve (fresh `SolveContext`, metric closure
//! computed from scratch), a *shared* solve (all solvers on one context),
//! and a *banked* solve — a second instance of the same topology checked
//! out of a cross-instance [`ClosureBank`], the parameter-sweep shape where
//! consecutive cases hold the network fixed — making both reuse tiers
//! visible in the same artifact.
//!
//! A second phase, run before the sweep, measures the **scale wall**:
//! all-sources metric-closure construction on Barabási–Albert scale-free
//! networks at 100 / 1 000 / 10 000 nodes, comparing the adjacency-list `algo::dijkstra` oracle (one
//! run per source, cost model resolved per heap relaxation) against the
//! closure's CSR kernel (`par_warm` — flat snapshot, slot-aligned
//! precomputed cost vector, recycled scratch), plus the median of 5 banked
//! routed solves over the warm closure and a peak-RSS proxy. The two
//! kernels are verified bit-identical on the spot before timings are
//! reported. Its sizes
//! ascend and each row drops its trees before the next, so the
//! process-wide high-water mark each row reads is that row's own peak.
//!
//! ```text
//! cargo run --release -p elpc-experiments --bin scaling
//! ```
//!
//! Artifacts: `results/scaling.csv` and `BENCH_closure_scaling.json`
//! (written into `crates/bench/` next to the criterion artifacts when run
//! from the workspace root, else into the results directory).
//!
//! `SCALING_SMOKE=1` runs a truncated CI-sized version of both phases
//! (closure sizes 100/300, shortened sweep) and writes the JSON into the
//! results directory only, leaving the committed artifact untouched.

use elpc_experiments::artifact::{self, Row};
use elpc_experiments::{results_dir, save_csv};
use elpc_mapping::{solver, CostModel, Instance, MetricClosure, NodeId, SolveContext};
use elpc_netgraph::algo;
use elpc_netsim::{Link, Network, Node};
use elpc_pipeline::Pipeline;
use elpc_workloads::{ClosureBank, InstanceSpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;

/// Registry names timed by the sweep. Exact solvers are excluded (they are
/// exponential and exist to certify the others on small instances), and so
/// are the routed ELPC overlays: their all-pairs closure is quadratic in
/// node count and is benchmarked separately on a bounded topology by the
/// `context_reuse` bench.
const SOLVERS: [&str; 5] = [
    "elpc_delay",
    "elpc_rate",
    "streamline_delay",
    "streamline_rate",
    "greedy_delay",
];

/// Uniform payload carried across every boundary of the closure-scaling
/// pipeline: one distinct payload size keeps the all-sources closure to a
/// single batch, which is the shape the CSR warm path is built for.
const CLOSURE_PAYLOAD: f64 = 1e6;

fn time_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// The median of a non-empty set of timings (the upper one of an even
/// count).
fn median_ms(mut runs: Vec<f64>) -> f64 {
    runs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    runs[runs.len() / 2]
}

/// Peak resident set size (VmHWM) in MiB, from `/proc/self/status`; 0.0
/// when the proc interface is unavailable (non-Linux).
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            if let Some(kb) = rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<f64>().ok())
            {
                return kb / 1024.0;
            }
        }
    }
    0.0
}

/// A Barabási–Albert scale-free network with the suite's default node
/// power / link parameter ranges, deterministic per seed.
fn ba_network(n: usize, attach: usize, seed: u64) -> Network {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let topo =
        elpc_netgraph::gen::barabasi_albert(n, attach, &mut rng).expect("BA parameters are valid");
    let powers: Vec<f64> = (0..n).map(|_| rng_range(&mut rng, 50.0, 5000.0)).collect();
    let mut link_rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(0x9E3779B97F4A7C15));
    Network::from_topology(
        &topo,
        |i| Node::with_power(powers[i]),
        |_, _| {
            Link::new(
                rng_range(&mut link_rng, 1.0, 1000.0),
                rng_range(&mut link_rng, 0.1, 10.0),
            )
        },
    )
    .expect("BA topologies materialize")
}

fn rng_range(rng: &mut ChaCha8Rng, lo: f64, hi: f64) -> f64 {
    rng.gen_range(lo..hi)
}

/// Times all-sources closure construction (adjacency-list oracle vs
/// batched CSR) on one BA network, verifies the two agree bit-for-bit on
/// sampled sources, and runs a banked routed solve over the warm closure.
fn closure_scaling_row(n: usize) -> Row {
    let cost = CostModel::default();
    let net = ba_network(n, 3, 0xC5A0 + n as u64);
    let sources: Vec<NodeId> = net.node_ids().collect();

    // Interleaved A/B, median of `reps` alternating cold builds: the two
    // timings see the same machine state, and the median absorbs scheduler
    // noise. 10k-node builds are seconds each, so they run once.
    let reps = if n <= 1000 { 3 } else { 1 };
    let mut legacy_runs = Vec::with_capacity(reps);
    let mut csr_runs = Vec::with_capacity(reps);
    let mut legacy = Vec::with_capacity(n);
    let mut warm = MetricClosure::new(&net, cost);
    for r in 0..reps {
        if r > 0 {
            // fresh trees so every rep is a cold build
            legacy = Vec::with_capacity(n);
            warm = MetricClosure::new(&net, cost);
        }
        // legacy: the adjacency-list oracle once per source, with the
        // cost model resolved per heap relaxation
        legacy_runs.push(time_ms(|| {
            legacy.extend(sources.iter().map(|&s| {
                algo::dijkstra(net.graph(), s, |eid, _| {
                    cost.edge_transfer_ms(&net, eid, CLOSURE_PAYLOAD)
                })
            }));
        }));
        // CSR: one batched warm — snapshot + slot-aligned cost vector +
        // recycled scratch, single thread so the comparison is
        // kernel-vs-kernel
        csr_runs.push(time_ms(|| {
            warm.par_warm(&sources, &[CLOSURE_PAYLOAD], 1);
        }));
    }
    let legacy_cold_ms = median_ms(legacy_runs);
    let csr_cold_ms = median_ms(csr_runs);

    // spot-check bit-identity on sampled sources (the proptest suite does
    // this exhaustively on small graphs; here we guard the measured pair)
    for &s in sources.iter().step_by((n / 8).max(1)) {
        let a = &legacy[s.index()];
        let b = warm.routed_from(s, CLOSURE_PAYLOAD);
        for v in 0..n {
            assert_eq!(
                a.dist[v].to_bits(),
                b.dist[v].to_bits(),
                "legacy/CSR divergence at n={n} src={s} v={v}"
            );
            assert_eq!(a.prev[v], b.prev[v]);
        }
    }
    let rss = peak_rss_mb();

    // banked routed solve: deposit the warm closure, check it out for an
    // instance on the same network, and run the routed delay DP warm
    let pipe = Pipeline::from_stages(
        CLOSURE_PAYLOAD,
        &[
            (1.0, CLOSURE_PAYLOAD),
            (1.0, CLOSURE_PAYLOAD),
            (1.0, CLOSURE_PAYLOAD),
        ],
        1.0,
    )
    .expect("uniform pipeline builds");
    let src = NodeId(0);
    let hops = algo::hop_distances(net.graph(), src);
    let budget = (pipe.len() - 1) as u32;
    let dst = net
        .node_ids()
        .filter(|v| *v != src)
        .filter_map(|v| hops[v.index()].map(|d| (d, v)))
        .filter(|(d, _)| *d <= budget)
        .max_by_key(|(d, v)| (*d, std::cmp::Reverse(v.0)))
        .map(|(_, v)| v)
        .expect("BA networks are connected");
    let inst = Instance::new(&net, &pipe, src, dst).expect("endpoints are valid");
    let bank = ClosureBank::new();
    {
        let ctx = SolveContext::from_shared(inst, Arc::new(warm), 1)
            .expect("closure and instance share the network");
        bank.deposit(&ctx);
    }
    let bctx = bank.context_for(inst, cost, 1);
    let routed = solver("elpc_delay_routed").expect("registered");
    // median of 5 warm solves on the one checkout: a single solve moved by
    // a third between runs of the same code
    let banked_solve_ms = median_ms(
        (0..5)
            .map(|_| {
                time_ms(|| {
                    routed.solve(&bctx).expect("routed solve succeeds");
                })
            })
            .collect(),
    );

    Row::new(
        format!("{n}n"),
        [
            ("nodes", n.into()),
            ("links", net.link_count().into()),
            // the all-pairs closure: one tree per node
            ("sources", sources.len().into()),
        ],
        [
            // all-sources trees via the adjacency-list `algo::dijkstra` oracle
            ("legacy_cold_ms", legacy_cold_ms),
            // all-sources closure via the batched CSR path (1 thread)
            ("csr_cold_ms", csr_cold_ms),
            ("speedup", legacy_cold_ms / csr_cold_ms),
            // median of 5 `elpc_delay_routed` solves on one ClosureBank
            // checkout of the warm closure
            ("banked_solve_ms", banked_solve_ms),
            // `VmHWM` after the build: this row's own peak, since the
            // rows before it were smaller and the sweep runs after them
            ("peak_rss_mb", rss),
        ],
    )
}

fn run_closure_scaling(smoke: bool) {
    let sizes: &[usize] = if smoke {
        &[100, 300]
    } else {
        &[100, 1000, 10000]
    };
    println!(
        "\nclosure scaling (BA attach=3, all-sources, payload {:.0e} B):",
        CLOSURE_PAYLOAD
    );
    println!(
        "{:>7} {:>7} | {:>14} {:>12} {:>8} {:>15} {:>12}",
        "nodes",
        "links",
        "legacy cold ms",
        "csr cold ms",
        "speedup",
        "banked solve ms",
        "peak rss MB"
    );
    let mut rows = Vec::with_capacity(sizes.len());
    for &n in sizes {
        let row = closure_scaling_row(n);
        println!(
            "{n:>7} {:>7} | {:>14.1} {:>12.1} {:>7.2}x {:>15.2} {:>12.1}",
            row.param("links").as_f64().expect("a count"),
            row.metric("legacy_cold_ms"),
            row.metric("csr_cold_ms"),
            row.metric("speedup"),
            row.metric("banked_solve_ms"),
            row.metric("peak_rss_mb")
        );
        rows.push(row);
    }
    // full runs refresh the committed artifact next to the criterion
    // benches; smoke runs (CI) never touch it
    let bench_dir = std::path::Path::new("crates/bench");
    let dir = if !smoke && bench_dir.is_dir() {
        bench_dir.to_path_buf()
    } else {
        results_dir()
    };
    let path = artifact::write(&dir, "closure_scaling", rows);
    // the read-back CI's smoke run relies on: the artifact parses with the
    // reader the committed-artifact gate uses
    let parsed = artifact::read(&path).expect("closure-scaling artifact parses");
    assert_eq!(parsed.group, "closure_scaling");
    assert!(!parsed.rows.is_empty());
}

fn main() {
    let smoke = std::env::var("SCALING_SMOKE").is_ok_and(|v| v == "1");
    // first: the sweep's instances would otherwise set the peak RSS the
    // closure rows read
    run_closure_scaling(smoke);

    let cost = CostModel::default();
    let mut sweep: Vec<(usize, usize, usize)> = vec![
        (5, 10, 20),
        (10, 25, 80),
        (20, 50, 250),
        (30, 100, 800),
        (50, 150, 2000),
        (80, 250, 5000),
        (100, 400, 12000),
        (150, 600, 30000),
    ];
    if smoke {
        sweep.truncate(3);
    }

    let mut header: Vec<String> = vec!["modules".into(), "nodes".into(), "links".into()];
    header.extend(SOLVERS.iter().map(|s| format!("{s}_cold_ms")));
    header.extend(SOLVERS.iter().map(|s| format!("{s}_shared_ms")));
    header.extend(SOLVERS.iter().map(|s| format!("{s}_banked_ms")));
    header.push("closure_hit_rate".into());
    header.push("bank_hit".into());
    let mut rows = vec![header];
    let bank = ClosureBank::new();

    println!(
        "{:>8} {:>6} {:>7} | {:>14} {:>16} {:>16} {:>9}",
        "modules",
        "nodes",
        "links",
        "cold total ms",
        "shared total ms",
        "banked total ms",
        "hit rate"
    );
    for &(m, n, l) in &sweep {
        let inst_owned = InstanceSpec::sized(m, n, l)
            .generate(0xE1_9C + m as u64)
            .expect("sweep instances generate");
        let inst = inst_owned.as_instance();

        // cold: every solver pays its own metric closure
        let cold: Vec<f64> = SOLVERS
            .iter()
            .map(|name| {
                let s = solver(name).expect("registered");
                time_ms(|| {
                    let ctx = SolveContext::new(inst, cost);
                    let _ = s.solve(&ctx);
                })
            })
            .collect();

        // shared: one context for the whole roster
        let ctx = SolveContext::new(inst, cost);
        let shared: Vec<f64> = SOLVERS
            .iter()
            .map(|name| {
                let s = solver(name).expect("registered");
                time_ms(|| {
                    let _ = s.solve(&ctx);
                })
            })
            .collect();
        let hit_rate = ctx.closure().stats().hit_rate();
        bank.deposit(&ctx);

        // banked: a *second* instance of the same topology (the parameter-
        // sweep shape) checks the closure out of the bank and solves warm
        let inst2_owned = InstanceSpec::sized(m, n, l)
            .generate(0xE1_9C + m as u64)
            .expect("sweep instances regenerate");
        let bank_hits_before = bank.stats().hits;
        let bctx = bank.context_for(inst2_owned.as_instance(), cost, 1);
        let bank_hit = bank.stats().hits > bank_hits_before;
        let banked: Vec<f64> = SOLVERS
            .iter()
            .map(|name| {
                let s = solver(name).expect("registered");
                time_ms(|| {
                    let _ = s.solve(&bctx);
                })
            })
            .collect();

        println!(
            "{m:>8} {n:>6} {l:>7} | {:>14.2} {:>16.2} {:>16.2} {:>8.1}%",
            cold.iter().sum::<f64>(),
            shared.iter().sum::<f64>(),
            banked.iter().sum::<f64>(),
            hit_rate * 100.0
        );
        let mut row = vec![m.to_string(), n.to_string(), l.to_string()];
        row.extend(cold.iter().map(|t| format!("{t:.3}")));
        row.extend(shared.iter().map(|t| format!("{t:.3}")));
        row.extend(banked.iter().map(|t| format!("{t:.3}")));
        row.push(format!("{hit_rate:.4}"));
        row.push(if bank_hit { "1".into() } else { "0".into() });
        rows.push(row);
    }
    save_csv(&results_dir().join("scaling.csv"), &rows);
    let bstats = bank.stats();
    println!(
        "\n§4.3 claim check: small cases run in milliseconds, the largest in \
         seconds; sharing one SolveContext across the roster removes the \
         repeated all-pairs routed work (the hit-rate column), and the \
         ClosureBank extends that across instances sharing a topology \
         ({} checkouts, {:.0}% bank hit rate).",
        bstats.hits + bstats.misses,
        bstats.hit_rate() * 100.0
    );
}
