//! Surviving failure, measured: time-to-recovery of the targeted
//! repair-and-remap path vs cold re-solving everything, and goodput under
//! overload on the bounded-queue daemon.
//!
//! **Recovery.** A seeded [`FaultSchedule`] (crashes, cuts, degradations,
//! flaps) plays out over 200- and 1000-node topologies carrying several
//! pipelines. The epoch engine (`run_epochs`, `Drift` policy) repairs the
//! shared closure bank in place through the failure-aware `NetworkDelta`
//! and re-solves only the pipelines a failure actually touched; the cold
//! baseline re-solves every pipeline on fresh contexts. Both sides are
//! wall-clock timed back to back on the same snapshots.
//! `tests/bench_artifacts.rs` pins the committed `speedup` floor.
//!
//! **Overload.** An in-process daemon with a deliberately small bounded
//! queue takes paced open-loop bursts at ~0.5×, 1×, and 2× its measured
//! capacity. Past saturation the daemon sheds with typed `Overloaded`
//! replies instead of queueing without bound, so goodput holds and the
//! p99 of the replies it *does* serve stays bounded. The artifact pins
//! `shed > 0` at 2× and the p99 ratio between overload and light load.
//!
//! Not a criterion bench: one half measures a control loop end to end,
//! the other needs the open-loop generator, so this target has
//! `harness = false` and writes `BENCH_faults.json` directly.
//!
//! ```text
//! cargo bench -p elpc-bench --bench faults
//! ```

use elpc_extensions::adaptive::{run_epochs, EpochConfig, RemapPolicy};
use elpc_mapping::{solver, CostModel, NodeId, SolveContext};
use elpc_netsim::dynamics::DynamicNetwork;
use elpc_netsim::faults::{FaultConfig, FaultEvent, FaultKind, FaultSchedule};
use elpc_pipeline::Pipeline;
use elpc_serving::loadgen::{run_open_loop, LoadConfig, LoadReport};
use elpc_serving::{RetryPolicy, Server, ServerConfig};
use elpc_workloads::{ClosureBank, InstanceSpec, ProblemInstance};
use serde::{Deserialize, Serialize};
use std::path::Path;

const MODULES: usize = 5;
const PIPELINES: usize = 3;
const HORIZON_MS: f64 = 6_000.0;

#[derive(Debug, Serialize, Deserialize)]
struct RecoveryRow {
    nodes: usize,
    links: usize,
    /// Pipelines sharing the network (and the closure bank).
    pipelines: usize,
    /// Events in the seeded fault schedule (crash/cut/degrade mix).
    fault_events: usize,
    /// Directed edges that failed across the run.
    failed_links: usize,
    /// Nodes that crashed across the run.
    failed_nodes: usize,
    /// Pipelines whose host died (forced to move).
    forced_remaps: usize,
    /// Targeted re-solves across the run (forced + drift-affected).
    remapped: usize,
    /// Cached trees the repair rule kept bit-for-bit.
    trees_kept: usize,
    /// Stale trees, repaired in place.
    trees_rebuilt: usize,
    /// Total measured time-to-recovery of repair + targeted remap, ms.
    recovery_ms: f64,
    /// Total measured cost of cold re-solving every pipeline, ms.
    cold_resolve_ms: f64,
    /// `cold_resolve_ms / recovery_ms` — the committed floor lives in
    /// `tests/bench_artifacts.rs`.
    speedup: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct OverloadRow {
    /// Offered load as a fraction of measured capacity.
    offered_fraction: f64,
    /// Offered rate, requests/second.
    offered_rps: f64,
    sent: usize,
    ok: usize,
    /// Requests answered with typed `Overloaded` (bounded queue full).
    shed: usize,
    /// Successful replies per second of wall clock.
    goodput_rps: f64,
    p50_ms: f64,
    /// p99 of the replies actually served — bounded because the queue is.
    p99_ms: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct OverloadSection {
    solver: String,
    nodes: usize,
    links: usize,
    workers: usize,
    queue_capacity: usize,
    /// Closed-loop, shed-free throughput (one connection per worker) the
    /// offered rates are scaled from.
    capacity_rps: f64,
    rows: Vec<OverloadRow>,
}

#[derive(Debug, Serialize, Deserialize)]
struct FaultsArtifact {
    group: String,
    /// CPUs available to the run.
    cpus: usize,
    /// Build profile of the measured code.
    profile: String,
    recovery: Vec<RecoveryRow>,
    overload: OverloadSection,
}

/// Several pipelines over one network: the instance's own endpoints plus
/// deterministic extra pairs spread across the node range, so one crash
/// rarely touches every pipeline (that asymmetry is what the targeted
/// path exploits).
fn pipelines_for(inst: &ProblemInstance) -> Vec<(Pipeline, NodeId, NodeId)> {
    let n = inst.network.node_count() as u32;
    let mut out = vec![(inst.pipeline.clone(), inst.src, inst.dst)];
    for k in 1..PIPELINES as u32 {
        let src = NodeId((7 * k + 3) % n);
        let mut dst = NodeId((n / 2 + 13 * k) % n);
        if dst == src {
            dst = NodeId((dst.0 + 1) % n);
        }
        out.push((inst.pipeline.clone(), src, dst));
    }
    out
}

fn recovery_rows() -> Vec<RecoveryRow> {
    let cost = CostModel::default();
    let remap = solver("elpc_delay_routed").expect("registered");
    let mut rows = Vec::new();

    for &(nodes, links, seed) in &[(200usize, 460usize, 0xFA11_u64), (1000, 2300, 0x0DD5)] {
        let inst = InstanceSpec::sized(MODULES, nodes, links)
            .generate(seed)
            .expect("spec generates");
        let pipes = pipelines_for(&inst);
        let protect: Vec<NodeId> = pipes.iter().flat_map(|&(_, s, d)| [s, d]).collect();

        // random faults rarely land on a mapped host, so guarantee one
        // forced failover per run: pre-solve pipeline 0 and schedule a
        // permanent crash of one of its assigned interior hosts
        let host_crash = {
            let ctx = SolveContext::new(inst.as_instance(), cost);
            let sol = remap.solve(&ctx).expect("base instance solvable");
            sol.assignment
                .iter()
                .copied()
                .find(|h| !protect.contains(h))
        };

        for &events in &[4usize, 12] {
            let faults = FaultSchedule::generate(
                &inst.network,
                &FaultConfig {
                    events,
                    horizon_ms: HORIZON_MS,
                    // bias the draw toward real removals (crashes and
                    // cuts) that mostly persist — this bench is about
                    // failure, not congestion
                    crash_weight: 2,
                    cut_weight: 3,
                    degrade_weight: 1,
                    transient_fraction: 0.25,
                    protect: protect.clone(),
                    ..FaultConfig::default()
                },
                seed ^ events as u64,
            )
            .expect("schedule generates");
            let mut all_events = faults.events().to_vec();
            if let Some(host) = host_crash {
                all_events.push(FaultEvent {
                    kind: FaultKind::NodeCrash { node: host },
                    start_ms: 1_500.0,
                    end_ms: f64::INFINITY,
                });
            }
            let faults = FaultSchedule::from_events(all_events);
            let dyn_net = DynamicNetwork::steady(inst.network.clone());
            let bank = ClosureBank::new();
            let report = run_epochs(
                &dyn_net,
                &faults,
                &pipes,
                &cost,
                EpochConfig {
                    period_ms: 1_000.0,
                    // tight drift tolerance: losing a best route to a cut
                    // is enough to trigger a targeted re-solve
                    policy: RemapPolicy::Drift { threshold: 0.02 },
                    switch_cost_ms: 0.0,
                },
                HORIZON_MS,
                remap,
                &bank,
            )
            .expect("epoch engine runs");

            let row = RecoveryRow {
                nodes,
                links,
                pipelines: pipes.len(),
                fault_events: faults.events().len(),
                failed_links: report.epochs.iter().map(|e| e.failed_links).sum(),
                failed_nodes: report.epochs.iter().map(|e| e.failed_nodes).sum(),
                forced_remaps: report.forced_remaps,
                // every re-solve after the mandatory epoch-0 one per pipeline
                remapped: report.resolves - pipes.len(),
                trees_kept: report.trees_kept_total,
                trees_rebuilt: report.trees_rebuilt_total,
                recovery_ms: report.recovery_ms_total(),
                cold_resolve_ms: report.cold_resolve_ms_total(),
                speedup: report.recovery_speedup(),
            };
            println!(
                "recovery {}n/{}l, {} events: {} cut edges, {} crashes, {} remapped \
                 ({} forced) — targeted {:.1}ms vs cold {:.1}ms = {:.1}x",
                nodes,
                links,
                row.fault_events,
                row.failed_links,
                row.failed_nodes,
                row.remapped,
                row.forced_remaps,
                row.recovery_ms,
                row.cold_resolve_ms,
                row.speedup
            );
            rows.push(row);
        }
    }
    rows
}

fn overload_section() -> OverloadSection {
    const NODES: usize = 200;
    const LINKS: usize = 460;
    const WORKERS: usize = 2;
    const QUEUE: usize = 8;
    const REQUESTS: usize = 192;

    let socket =
        std::env::temp_dir().join(format!("elpc-bench-faults-{}.sock", std::process::id()));
    let server = Server::bind(
        &socket,
        ServerConfig {
            workers: WORKERS,
            queue_capacity: QUEUE,
            ..ServerConfig::default()
        },
    )
    .expect("bind daemon");
    let base = LoadConfig {
        connections: 4,
        requests: REQUESTS,
        ..LoadConfig::default()
    };
    let inst = vec![InstanceSpec::sized(MODULES, NODES, LINKS)
        .generate(0x600D)
        .expect("spec generates")];

    // warm the bank, then measure the daemon's banked capacity
    let warm = run_open_loop(
        &socket,
        &inst,
        &LoadConfig {
            connections: 1,
            requests: 1,
            ..base.clone()
        },
    )
    .expect("warmup");
    assert_eq!(warm.ok, 1, "warmup solve must succeed");
    // closed loop, one connection per worker: every worker stays busy and
    // nothing sheds, so the completion rate is the daemon's capacity (an
    // unpaced flood spends the daemon on refusals and under-reads it)
    let probe = run_open_loop(
        &socket,
        &inst,
        &LoadConfig {
            connections: WORKERS,
            retry: Some(RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            }),
            ..base.clone()
        },
    )
    .expect("capacity probe");
    assert_eq!(probe.ok, REQUESTS, "the capacity probe must not shed");
    let capacity_rps = probe.ok as f64 / probe.elapsed_s.max(1e-9);

    let run_at = |fraction: f64| -> LoadReport {
        run_open_loop(
            &socket,
            &inst,
            &LoadConfig {
                rate_per_sec: capacity_rps * fraction,
                ..base.clone()
            },
        )
        .expect("paced run")
    };
    let rows: Vec<OverloadRow> = [0.5, 1.0, 2.0]
        .iter()
        .map(|&fraction| {
            let report = run_at(fraction);
            let row = OverloadRow {
                offered_fraction: fraction,
                offered_rps: capacity_rps * fraction,
                sent: report.sent,
                ok: report.ok,
                shed: report.shed,
                goodput_rps: report.ok as f64 / report.elapsed_s.max(1e-9),
                p50_ms: report.p50_ms,
                p99_ms: report.p99_ms,
            };
            println!(
                "overload {:.1}x ({:.0} rps offered): {} ok, {} shed, goodput {:.0}/s, \
                 p50 {:.2}ms, p99 {:.2}ms",
                fraction,
                row.offered_rps,
                row.ok,
                row.shed,
                row.goodput_rps,
                row.p50_ms,
                row.p99_ms
            );
            row
        })
        .collect();
    assert!(
        rows.last().expect("three rows").shed > 0,
        "2x offered load must shed on a bounded queue"
    );

    let stats = server.shutdown();
    assert_eq!(stats.requests, stats.accepted + stats.shed);
    assert_eq!(
        stats.accepted,
        stats.completed + stats.timeouts + stats.errors,
        "drained ledger must balance"
    );
    assert!(
        stats.max_queue_depth <= QUEUE as u64,
        "the queue bound must hold under 2x overload"
    );

    OverloadSection {
        solver: base.solver,
        nodes: NODES,
        links: LINKS,
        workers: WORKERS,
        queue_capacity: QUEUE,
        capacity_rps,
        rows,
    }
}

fn main() {
    let artifact = FaultsArtifact {
        group: "faults".into(),
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
        .into(),
        recovery: recovery_rows(),
        overload: overload_section(),
    };

    let json = serde_json::to_string_pretty(&artifact).expect("serialize artifact");
    let back: FaultsArtifact = serde_json::from_str(&json).expect("own artifact parses");
    assert_eq!(back.group, "faults");

    let dest = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_faults.json");
    std::fs::write(&dest, json.as_bytes()).expect("write artifact");
    println!("wrote {}", dest.display());
}
