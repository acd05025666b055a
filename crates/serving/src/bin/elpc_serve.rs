//! `elpc-serve` — mapping-as-a-service CLI.
//!
//! Subcommands:
//!
//! ```text
//! elpc-serve serve    --socket PATH [--workers N] [--bank-capacity N] [--queue-capacity N]
//! elpc-serve ping     --socket PATH
//! elpc-serve solve    --socket PATH [--solver NAME] [--modules M --nodes N --links L]
//!                     [--seed S] [--threads T] [--timeout-ms MS]
//!                     [--retries N] [--retry-base-ms MS] [--retry-seed S]
//! elpc-serve stats    --socket PATH
//! elpc-serve shutdown --socket PATH
//! elpc-serve loadgen  --socket PATH [--requests N] [--connections C] [--rate R]
//!                     [--solver NAME] [--modules M --nodes N --links L] [--seed S]
//!                     [--retries N] [--retry-base-ms MS] [--retry-seed S]
//! ```
//!
//! `serve` blocks until a client sends `shutdown`, then drains and exits.
//!
//! `--retries N` (N > 1) makes `solve` and `loadgen` retry transient
//! failures — shed replies, daemon restarts — under a deterministic
//! seeded exponential-backoff-with-jitter policy.

use elpc_mapping::CostModel;
use elpc_serving::loadgen::{run_open_loop, LoadConfig};
use elpc_serving::{Client, RetryPolicy, Server, ServerConfig, SolveRequest};
use elpc_workloads::{InstanceSpec, ProblemInstance};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.push((name.to_string(), value.clone()));
        }
        Ok(Args { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse {v:?}")),
        }
    }

    fn socket(&self) -> Result<PathBuf, String> {
        self.get("socket")
            .map(PathBuf::from)
            .ok_or_else(|| "missing required --socket PATH".into())
    }
}

fn gen_instances(args: &Args, count: usize) -> Result<Vec<ProblemInstance>, String> {
    let modules: usize = args.num("modules", 5)?;
    let nodes: usize = args.num("nodes", 40)?;
    let links: usize = args.num("links", 90)?;
    let seed: u64 = args.num("seed", 42)?;
    (0..count)
        .map(|i| {
            InstanceSpec::sized(modules, nodes, links)
                .generate(seed + i as u64)
                .map_err(|e| format!("instance generation failed: {e}"))
        })
        .collect()
}

fn solve_request(args: &Args, instance: ProblemInstance) -> Result<SolveRequest, String> {
    Ok(SolveRequest {
        solver: args
            .get("solver")
            .unwrap_or("elpc_delay_routed")
            .to_string(),
        cost: CostModel::default(),
        threads: args.num("threads", 1)?,
        timeout_ms: match args.get("timeout-ms") {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("flag --timeout-ms: cannot parse {v:?}"))?,
            ),
        },
        instance,
    })
}

/// `--retries N` (plus `--retry-base-ms`/`--retry-seed`) as a policy;
/// `None` when retries are off (N <= 1).
fn retry_policy(args: &Args) -> Result<Option<RetryPolicy>, String> {
    let retries: u32 = args.num("retries", 1)?;
    if retries <= 1 {
        return Ok(None);
    }
    Ok(Some(RetryPolicy {
        max_attempts: retries,
        base_ms: args.num("retry-base-ms", RetryPolicy::default().base_ms)?,
        seed: args.num("retry-seed", RetryPolicy::default().seed)?,
        ..RetryPolicy::default()
    }))
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let socket = args.socket()?;
    let default = ServerConfig::default();
    let config = ServerConfig {
        workers: args.num("workers", default.workers)?,
        bank_capacity: args.num("bank-capacity", default.bank_capacity)?,
        queue_capacity: args.num("queue-capacity", default.queue_capacity)?,
    };
    let server = Server::bind(&socket, config).map_err(|e| format!("bind failed: {e}"))?;
    println!(
        "elpc-serve: listening on {} with {} workers",
        server.socket_path().display(),
        server.worker_count()
    );
    server.run_until_shutdown();
    let stats = server.shutdown();
    println!(
        "elpc-serve: drained; {} requests ({} accepted, {} shed), {} completed, {} errors, {} timeouts",
        stats.requests, stats.accepted, stats.shed, stats.completed, stats.errors, stats.timeouts
    );
    Ok(())
}

fn connect(args: &Args) -> Result<Client, String> {
    let socket = args.socket()?;
    Client::connect(&socket).map_err(|e| format!("connect to {} failed: {e}", socket.display()))
}

fn cmd_ping(args: &Args) -> Result<(), String> {
    let mut client = connect(args)?;
    client.ping().map_err(|e| e.to_string())?;
    println!("pong");
    Ok(())
}

fn cmd_solve(args: &Args) -> Result<(), String> {
    let mut client = connect(args)?;
    let inst = gen_instances(args, 1)?.pop().expect("one instance");
    let label = inst.label.clone();
    let req = solve_request(args, inst)?;
    let reply = match retry_policy(args)? {
        Some(policy) => client.solve_with_retry(&req, &policy),
        None => client.solve(req),
    }
    .map_err(|e| e.to_string())?;
    println!(
        "{label}: solver={} objective_ms={:.6} banked={} coalesced={} queue_ms={:.3} solve_ms={:.3}",
        reply.solver, reply.objective_ms, reply.banked, reply.coalesced, reply.queue_ms,
        reply.solve_ms
    );
    println!(
        "assignment: {:?}",
        reply.assignment.iter().map(|n| n.0).collect::<Vec<_>>()
    );
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let mut client = connect(args)?;
    let s = client.stats().map_err(|e| e.to_string())?;
    println!(
        "requests={} accepted={} shed={} completed={} errors={} timeouts={} coalesced={}",
        s.requests, s.accepted, s.shed, s.completed, s.errors, s.timeouts, s.coalesced
    );
    println!(
        "queue_depth={} max_queue_depth={} workers={}",
        s.queue_depth, s.max_queue_depth, s.workers
    );
    println!(
        "bank: hits={} misses={} deposits={} repairs={}",
        s.bank_hits, s.bank_misses, s.bank_deposits, s.bank_repairs
    );
    println!("by key: keyed={} unknown_keys={}", s.keyed, s.unknown_keys);
    println!(
        "latency over {} requests: p50={:.3}ms p99={:.3}ms max={:.3}ms",
        s.latency.count, s.latency.p50_ms, s.latency.p99_ms, s.latency.max_ms
    );
    Ok(())
}

fn cmd_shutdown(args: &Args) -> Result<(), String> {
    let mut client = connect(args)?;
    client.shutdown().map_err(|e| e.to_string())?;
    println!("shutdown acknowledged; daemon is draining");
    Ok(())
}

fn cmd_loadgen(args: &Args) -> Result<(), String> {
    let socket = args.socket()?;
    let default = LoadConfig::default();
    let cfg = LoadConfig {
        connections: args.num("connections", default.connections)?,
        requests: args.num("requests", default.requests)?,
        rate_per_sec: args.num("rate", default.rate_per_sec)?,
        solver: args.get("solver").map_or(default.solver, String::from),
        threads: args.num("threads", default.threads)?,
        retry: retry_policy(args)?,
        ..default
    };
    let instances = gen_instances(args, args.num("distinct", 1)?)?;
    let report = run_open_loop(&socket, &instances, &cfg).map_err(|e| format!("loadgen: {e}"))?;
    print_report(&report);
    if report.errors > 0 {
        return Err(format!(
            "{} of {} requests failed",
            report.errors, report.sent
        ));
    }
    Ok(())
}

fn print_report(r: &elpc_serving::LoadReport) {
    println!(
        "sent={} ok={} errors={} (shed={} timeouts={} server_errors={} lost={}) elapsed={:.3}s throughput={:.1}/s",
        r.sent,
        r.ok,
        r.errors,
        r.shed,
        r.timeouts,
        r.server_errors,
        r.lost,
        r.elapsed_s,
        r.throughput_rps
    );
    println!(
        "latency: mean={:.3}ms p50={:.3}ms p99={:.3}ms max={:.3}ms",
        r.mean_ms, r.p50_ms, r.p99_ms, r.max_ms
    );
}

fn usage() -> String {
    "usage: elpc-serve <serve|ping|solve|stats|shutdown|loadgen> [--flag value ...]\n\
     run with a subcommand; see crate docs for the flag list"
        .to_string()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let run = Args::parse(rest).and_then(|args| match cmd.as_str() {
        "serve" => cmd_serve(&args),
        "ping" => cmd_ping(&args),
        "solve" => cmd_solve(&args),
        "stats" => cmd_stats(&args),
        "shutdown" => cmd_shutdown(&args),
        "loadgen" => cmd_loadgen(&args),
        other => Err(format!("unknown subcommand {other:?}\n{}", usage())),
    });
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("elpc-serve: {msg}");
            ExitCode::FAILURE
        }
    }
}
