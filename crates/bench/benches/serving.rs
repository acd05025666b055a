//! End-to-end serving throughput: open-loop bursts against an in-process
//! `elpc-serve` daemon, measured in two regimes —
//!
//! * **banked**: every request carries the same topology, so after the
//!   warm-up deposit each solve checks its metric closure out of the
//!   shared [`elpc_workloads::ClosureBank`] (pure bank hits);
//! * **cold**: every request carries a *distinct* topology, so each solve
//!   pays a full all-pairs closure build.
//!
//! The throughput ratio between the two is the serving layer's reason to
//! exist: `BENCH_serving.json` commits one row per regime, and
//! `tests/bench_artifacts.rs` pins a ≥5× floor on the ratio so a
//! regression in bank sharing or request coalescing fails the PR that
//! caused it.
//!
//! Not a criterion bench: latency percentiles of a queueing system need
//! the open-loop generator, so this target has `harness = false` and
//! writes its artifact directly.
//!
//! ```text
//! cargo bench -p elpc-bench --bench serving
//! ```

use elpc_experiments::artifact::{self, Row};
use elpc_serving::loadgen::{run_open_loop, LoadConfig, LoadReport};
use elpc_serving::{Server, ServerConfig};
use elpc_workloads::{InstanceSpec, ProblemInstance};
use std::path::Path;

/// Topology size: large enough that the all-pairs closure build dominates
/// a cold solve (that gap is what the bank amortizes), small enough to
/// keep the bench under a minute.
const MODULES: usize = 5;
const NODES: usize = 200;
const LINKS: usize = 460;

const BANKED_REQUESTS: usize = 96;
const COLD_REQUESTS: usize = 16;
const CONNECTIONS: usize = 4;
const WORKERS: usize = 2;

/// One regime's row: the daemon's shape and the burst's latency/throughput.
fn regime(id: &str, solver: &str, report: &LoadReport) -> Row {
    Row::new(
        id,
        [
            ("solver", solver.into()),
            ("nodes", NODES.into()),
            ("links", LINKS.into()),
            ("workers", WORKERS.into()),
            ("connections", CONNECTIONS.into()),
        ],
        [
            ("requests", report.ok as f64),
            ("solves_per_sec", report.throughput_rps),
            ("mean_ms", report.mean_ms),
            ("p50_ms", report.p50_ms),
            ("p99_ms", report.p99_ms),
            ("max_ms", report.max_ms),
        ],
    )
}

fn instances(distinct: usize, base_seed: u64) -> Vec<ProblemInstance> {
    (0..distinct)
        .map(|i| {
            InstanceSpec::sized(MODULES, NODES, LINKS)
                .generate(base_seed + i as u64)
                .expect("spec generates")
        })
        .collect()
}

fn main() {
    let socket =
        std::env::temp_dir().join(format!("elpc-bench-serving-{}.sock", std::process::id()));
    let server = Server::bind(
        &socket,
        ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
    )
    .expect("bind daemon");
    let cfg = LoadConfig {
        connections: CONNECTIONS,
        solver: "elpc_delay_routed".into(),
        threads: 1,
        ..LoadConfig::default()
    };

    // --- banked: one topology, closure deposited once, then pure hits ----
    let fixed = instances(1, 0xBEEF);
    // warm-up outside the measured window: deposits the closure so the
    // measured burst is hit-only (and never coalesce-bound)
    let warm = run_open_loop(
        &socket,
        &fixed,
        &LoadConfig {
            connections: 1,
            requests: 1,
            ..cfg.clone()
        },
    )
    .expect("warmup");
    assert_eq!(warm.ok, 1, "warmup solve must succeed");
    let banked_report = run_open_loop(
        &socket,
        &fixed,
        &LoadConfig {
            requests: BANKED_REQUESTS,
            ..cfg.clone()
        },
    )
    .expect("banked burst");
    assert_eq!(
        banked_report.ok, BANKED_REQUESTS,
        "banked burst all-success"
    );

    // --- cold: a distinct topology per request, every closure built ------
    let distinct = instances(COLD_REQUESTS, 0xC01D);
    let cold_report = run_open_loop(
        &socket,
        &distinct,
        &LoadConfig {
            requests: COLD_REQUESTS,
            ..cfg.clone()
        },
    )
    .expect("cold burst");
    assert_eq!(cold_report.ok, COLD_REQUESTS, "cold burst all-success");

    let stats = server.shutdown();
    // exactness: every executed solve consulted the bank exactly once
    let total = (1 + BANKED_REQUESTS + COLD_REQUESTS) as u64;
    assert_eq!(stats.bank_hits + stats.bank_misses, total);
    // one build for the fixed topology + one per distinct topology
    assert_eq!(stats.bank_misses, 1 + COLD_REQUESTS as u64);

    println!(
        "serving: banked {:.1}/s (p50 {:.2}ms, p99 {:.2}ms) vs cold {:.1}/s (p50 {:.2}ms) — {:.1}x",
        banked_report.throughput_rps,
        banked_report.p50_ms,
        banked_report.p99_ms,
        cold_report.throughput_rps,
        cold_report.p50_ms,
        banked_report.throughput_rps / cold_report.throughput_rps,
    );
    let rows = vec![
        regime("banked", &cfg.solver, &banked_report),
        regime("cold", &cfg.solver, &cold_report),
    ];
    artifact::write(Path::new(env!("CARGO_MANIFEST_DIR")), "serving", rows);
}
