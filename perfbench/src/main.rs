//! Closed-loop serving benchmark for the `elpc-serve` daemon.
//!
//! ```text
//! perfbench --daemon PATH --workload banked|cold|churn --seed N --seconds S --trace 0|1
//!           [--rev REV] [--rustc VERSION]
//! ```
//!
//! `--trace 0` boots the daemon (2 workers), drives it closed-loop from one
//! connection through the public `Client`, and prints the end-to-end
//! metrics. `--trace 1` sends the same workload one request at a time and
//! replays each in process through every layer's public call, printing the
//! per-layer metrics. Both gate every run on bit-identical answers and the
//! daemon's ledger. The last stdout line is the JSON result; the line
//! before it stamps the environment. `perfbench/README.md` explains the
//! workloads and what each layer metric should move.

mod daemon;
mod gate;
mod load;
mod trace;
mod workload;

use daemon::Daemon;
use load::{median, percentile, secs, ConnLog};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Mirror, Traced, Tracer};
use workload::{Kind, Stream};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Untimed traffic between set-up and the timed window: the daemon's
/// throughput still rises over its first few thousand requests.
const WARMUP_S: f64 = 3.0;
/// `banked` polls `Client::stats` once per this many calls.
const STATS_EVERY: u64 = 50;
/// The traced run polls `Client::stats` once per this many calls.
const TRACED_STATS_EVERY: u64 = 10;
/// Where sockets and span dumps go, relative to the checkout root.
const STATE_DIR: &str = ".bench_build/perfbench";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    rev: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<&str> {
        raw.iter()
            .position(|a| a == name)
            .and_then(|i| raw.get(i + 1))
            .map(String::as_str)
    };
    let need = |name: &str| get(name).ok_or_else(|| format!("missing {name}"));
    let kind = need("--workload")?;
    Ok(Args {
        kind: Kind::parse(kind).ok_or_else(|| format!("unknown workload {kind:?}"))?,
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed must be an integer")?,
        seconds: need("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
        },
        daemon: PathBuf::from(need("--daemon")?),
        rev: get("--rev").unwrap_or("unknown").to_string(),
        rustc: get("--rustc").unwrap_or("unknown").to_string(),
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Extra stamp fields, as JSON members.
    notes: Vec<String>,
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn socket_path(tag: &str) -> PathBuf {
    Path::new(STATE_DIR).join(format!("{}-{tag}.sock", std::process::id()))
}

/// (steal, total) clock ticks of the host's CPUs so far, from `/proc/stat`:
/// the share of time the hypervisor gave this machine's CPUs to others.
fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn stats_of(daemon: &Daemon) -> Result<elpc_serving::StatsReply, String> {
    elpc_serving::Client::connect(daemon.socket())
        .map_err(|e| e.to_string())?
        .stats()
        .map_err(|e| format!("stats failed: {e}"))
}

/// Boots a daemon, generates the workload and makes its deposits.
fn set_up(args: &Args, tag: &str) -> Result<(Daemon, Vec<Stream>, ConnLog), String> {
    let daemon = Daemon::boot(&args.daemon, socket_path(tag))?;
    let mut streams = workload::streams(args.kind, args.seed);
    let log = load::setup(daemon.socket(), &mut streams)?;
    Ok((daemon, streams, log))
}

fn run_untraced(args: &Args) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (daemon, streams, logs) = set_up(args, &format!("setup{rep}"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            daemon.stop()?;
        } else {
            kept = Some((daemon, streams, logs));
        }
    }
    let (daemon, mut streams, setup_log) = kept.expect("at least one set-up ran");

    let start = Instant::now() + secs(WARMUP_S);
    let end = start + secs(args.seconds);
    let stats_every = (args.kind == Kind::Banked).then_some(STATS_EVERY);
    let (loop_log, (cpu0, host0)) = std::thread::scope(|s| {
        let cpu0 = s.spawn(|| {
            load::sleep_until(start);
            (daemon.cpu_s(), host_ticks())
        });
        let log = load::closed_loop(daemon.socket(), &mut streams, start, end, stats_every);
        (log, cpu0.join().expect("cpu sampler panicked"))
    });
    let loop_log = loop_log?;
    let cpu_s = daemon.cpu_s()? - cpu0?;
    let steal = match (host0, host_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    let rss_mb = daemon.peak_rss_mb()?;
    let stats = stats_of(&daemon)?;
    daemon.stop()?;

    let (attempted, failed) = (loop_log.attempted, loop_log.failed);
    let mut lat = loop_log.latencies_ms.clone();
    lat.sort_by(f64::total_cmp);
    if lat.is_empty() {
        return Err("no request succeeded in the timed window".into());
    }
    let last = loop_log.last_done.expect("a timed reply exists");
    let wall_s = (last - start).as_secs_f64();
    let ok = lat.len() as f64;

    let logs = [setup_log, loop_log];
    let gate = gate::check_ledger(&stats, &logs, args.kind)
        .and_then(|()| gate::check_replies(args.kind, &streams, &logs));
    let (correct, gap) = match gate {
        Ok(Some(gap)) => (true, gap),
        Ok(None) => {
            eprintln!("perfbench: gate: no timed reply was sampled");
            (false, f64::NAN)
        }
        Err(e) => {
            eprintln!("perfbench: gate failed: {e}");
            (false, f64::NAN)
        }
    };
    let p90 = percentile(&lat, 0.9);
    let p99 = percentile(&lat, 0.99);
    let beyond = lat.iter().filter(|&&l| l > p90).count();
    eprintln!(
        "perfbench: {} seed {}: {} timed replies ({} beyond p90), p99 {:.3} ms, setups {:?} s, host steal {:.1} %",
        args.kind.name(),
        args.seed,
        lat.len(),
        beyond,
        p99,
        setup_s,
        steal * 100.0
    );
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("latency_p50_ms", percentile(&lat, 0.5), "ms"),
            metric("latency_p90_ms", p90, "ms"),
            metric("throughput_rps", ok / wall_s, "1/s"),
            metric("cpu_ms_per_req", cpu_s * 1e3 / ok, "ms"),
            metric("peak_rss_mb", rss_mb, "MB"),
            metric("objective_gap", gap, "ratio"),
        ],
        notes: vec![
            format!(
                "\"failed_frac\":{}",
                json_num(failed as f64 / attempted.max(1) as f64)
            ),
            format!("\"timed_replies\":{}", lat.len()),
            format!("\"host_steal_frac\":{}", json_num(steal)),
            format!("\"samples_beyond_p90\":{beyond}"),
            format!("\"latency_p99_ms\":{}", json_num(p99)),
            format!(
                "\"setup_runs_s\":[{}]",
                setup_s.iter().map(|v| json_num(*v)).collect::<Vec<_>>().join(",")
            ),
            format!(
                "\"daemon_ledger\":{{\"requests\":{},\"completed\":{},\"shed\":{},\"timeouts\":{},\"errors\":{},\"bank_hits\":{},\"bank_misses\":{},\"bank_repairs\":{}}}",
                stats.requests,
                stats.completed,
                stats.shed,
                stats.timeouts,
                stats.errors,
                stats.bank_hits,
                stats.bank_misses,
                stats.bank_repairs
            ),
        ],
    })
}

/// A request the traced run sent: its id, a copy of the call, the served
/// reply, and when the client computed its delta.
type Sent = (
    u64,
    workload::Call,
    load::Served,
    Option<(Instant, Instant)>,
);

/// The single-connection traced run.
struct TracedRun {
    client: elpc_serving::Client,
    streams: Vec<Stream>,
    log: ConnLog,
    mirror: Mirror,
    tracer: Tracer,
    next_req: u64,
    turn: usize,
}

impl TracedRun {
    /// Sends the next request (streams take turns); returns it with its
    /// reply, or `None` when it failed.
    fn serve(&mut self, timed: bool) -> Option<Sent> {
        let i = self.turn % self.streams.len();
        self.turn += 1;
        let plan = self.streams[i].next(timed);
        self.serve_plan(i, plan, timed)
    }

    fn serve_plan(&mut self, i: usize, plan: workload::Planned, timed: bool) -> Option<Sent> {
        let req = self.next_req;
        self.next_req += 1;
        let call = plan.call.clone();
        let between = plan.between;
        let served = self
            .log
            .exchange(&mut self.client, &mut self.streams[i], plan, timed)?;
        Some((req, call, served, between))
    }

    fn replay(
        &mut self,
        req: u64,
        call: workload::Call,
        served: &load::Served,
    ) -> Result<trace::ReqCounts, String> {
        self.mirror
            .replay(&mut self.tracer, req, call, &served.reply)
    }
}

fn run_traced(args: &Args) -> Result<Outcome, String> {
    let daemon = Daemon::boot(&args.daemon, socket_path("traced"))?;
    let mut run = TracedRun {
        client: elpc_serving::Client::connect(daemon.socket()).map_err(|e| e.to_string())?,
        streams: workload::streams(args.kind, args.seed),
        log: ConnLog::default(),
        mirror: Mirror::new(),
        tracer: Tracer::new(),
        next_req: 1,
        turn: 0,
    };
    // set-up deposits and a short warm-up, served and mirrored untraced
    for i in 0..run.streams.len() {
        for plan in run.streams[i].setup_calls() {
            if let Some((req, call, served, _)) = run.serve_plan(i, plan, false) {
                run.replay(req, call, &served)?;
            }
        }
    }
    let phase_end = |s: f64| Instant::now() + secs(s);
    let end = phase_end(1.0);
    while Instant::now() < end {
        if let Some((req, call, served, _)) = run.serve(false) {
            run.replay(req, call, &served)?;
        }
    }
    // untraced concurrency-1 pass: served back to back, mirrored afterwards
    let mut untraced_ms = Vec::new();
    let mut pending = Vec::new();
    let end = phase_end(args.seconds / 3.0);
    while Instant::now() < end {
        if let Some((req, call, served, _)) = run.serve(false) {
            untraced_ms.push(served.ms());
            pending.push((req, call, served));
        }
    }
    for (req, call, served) in pending {
        run.replay(req, call, &served)?;
    }
    // traced pass
    run.tracer.on = true;
    let mut traced = Vec::new();
    let end = phase_end(args.seconds * 2.0 / 3.0);
    while Instant::now() < end {
        let Some((req, call, served, between)) = run.serve(true) else {
            continue;
        };
        if let Some((t0, t1)) = between {
            run.tracer.record(req, "delta.between", t0, t1);
        }
        run.tracer.record(req, "served", served.start, served.done);
        let counts = run.replay(req, call, &served)?;
        traced.push(Traced {
            req,
            served_ms: served.ms(),
            counts,
        });
        if (traced.len() as u64).is_multiple_of(TRACED_STATS_EVERY) {
            let client = &mut run.client;
            run.tracer
                .time(req, "server.stats", || client.stats())
                .map_err(|e| format!("stats poll failed: {e}"))?;
        }
    }
    run.tracer.on = false;
    let stats = stats_of(&daemon)?;
    let TracedRun {
        streams,
        log,
        mirror,
        tracer,
        ..
    } = run;
    daemon.stop()?;
    if traced.is_empty() {
        return Err("no request was traced".into());
    }

    let bank = mirror.bank.stats();
    let logs = [log];
    let gate = gate::check_ledger(&stats, &logs, args.kind)
        .and_then(|()| {
            if (bank.hits, bank.misses, bank.repairs)
                == (stats.bank_hits, stats.bank_misses, stats.bank_repairs)
            {
                Ok(())
            } else {
                Err(format!(
                    "mirror bank {bank:?} differs from the daemon's hits {} misses {} repairs {}",
                    stats.bank_hits, stats.bank_misses, stats.bank_repairs
                ))
            }
        })
        .and_then(|()| gate::check_replies(args.kind, &streams, &logs));
    let correct = match gate {
        Ok(_) => true,
        Err(e) => {
            eprintln!("perfbench: gate failed: {e}");
            false
        }
    };

    let dump = Path::new(STATE_DIR).join(format!(
        "trace-{}-seed{}.jsonl",
        args.kind.name(),
        args.seed
    ));
    tracer
        .write(&dump)
        .map_err(|e| format!("cannot write {}: {e}", dump.display()))?;

    let layers = trace::layer_medians(&tracer);
    let layer = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let ledger = trace::ledger(&tracer, &traced);
    let coverage = median(&ledger.iter().map(|l| l.0).collect::<Vec<_>>());
    let residual = median(&ledger.iter().map(|l| l.1).collect::<Vec<_>>());
    let served_p50 = median(&traced.iter().map(|t| t.served_ms).collect::<Vec<_>>());
    let untraced_p50 = median(&untraced_ms);
    let mean = |v: Vec<f64>| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let repairs: Vec<(usize, usize)> = traced.iter().filter_map(|t| t.counts.repair).collect();
    let field =
        |f: fn(&trace::ReqCounts) -> f64| traced.iter().map(|t| f(&t.counts)).collect::<Vec<_>>();
    eprintln!(
        "perfbench: {} seed {} ledger: {} traced requests, served p50 {:.3} ms (untraced c1 {:.3} ms), spans cover {:.1} %, residual {:.3} ms",
        args.kind.name(),
        args.seed,
        traced.len(),
        served_p50,
        untraced_p50,
        coverage * 100.0,
        residual
    );
    for (name, ms) in &layers {
        eprintln!("perfbench:   {name:<34} {ms:>10.4} ms");
    }
    let (attempted, failed) = (logs[0].attempted, logs[0].failed);
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: vec![
            metric(
                "protocol.request_bytes",
                median(&field(|c| c.request_bytes as f64)),
                "bytes",
            ),
            metric(
                "protocol.encode_request_ms",
                layer("protocol.encode_request"),
                "ms",
            ),
            metric(
                "protocol.decode_request_ms",
                layer("protocol.decode_request"),
                "ms",
            ),
            metric("protocol.response_ms", layer("protocol.response"), "ms"),
            metric("netsim.fingerprint_ms", layer("netsim.fingerprint"), "ms"),
            metric("bank.key_ms", layer("bank.key"), "ms"),
            metric("bank.checkout_ms", layer("bank.checkout"), "ms"),
            metric("bank.deposit_ms", layer("bank.deposit"), "ms"),
            metric("bank.repair_ms", layer("bank.repair"), "ms"),
            metric("bank.hit_rate", bank.hit_rate(), "ratio"),
            metric("bank.misses", bank.misses as f64, "count"),
            metric("bank.repairs", bank.repairs as f64, "count"),
            metric("closure.build_ms", layer("closure.build"), "ms"),
            metric(
                "closure.trees_built",
                mean(field(|c| c.trees_built as f64)),
                "count",
            ),
            metric("delta.between_ms", layer("delta.between"), "ms"),
            metric(
                "delta.trees_rebuilt",
                mean(repairs.iter().map(|r| r.0 as f64).collect()),
                "count",
            ),
            metric(
                "delta.trees_kept",
                mean(repairs.iter().map(|r| r.1 as f64).collect()),
                "count",
            ),
            metric("eval.kernel_build_ms", layer("eval.kernel_build"), "ms"),
            metric(
                "solver.elpc_delay_routed.solve_ms",
                layer("solver.elpc_delay_routed.solve"),
                "ms",
            ),
            metric(
                "solver.lns_delay.solve_ms",
                layer("solver.lns_delay.solve"),
                "ms",
            ),
            metric(
                "solver.portfolio_delay.solve_ms",
                layer("solver.portfolio_delay.solve"),
                "ms",
            ),
            metric("server.queue_ms", median(&field(|c| c.queue_ms)), "ms"),
            metric("server.solve_ms", median(&field(|c| c.solve_ms)), "ms"),
            metric("server.coalesced", stats.coalesced as f64, "count"),
            metric(
                "server.max_queue_depth",
                stats.max_queue_depth as f64,
                "count",
            ),
            metric("server.stats_ms", layer("server.stats"), "ms"),
            metric("transport.residual_ms", residual, "ms"),
            metric("ledger.coverage", coverage, "ratio"),
            metric("ledger.served_p50_ms", served_p50, "ms"),
            metric("ledger.untraced_p50_ms", untraced_p50, "ms"),
            metric("trace.overhead", served_p50 / untraced_p50, "ratio"),
        ],
        notes: vec![
            format!("\"traced_requests\":{}", traced.len()),
            format!("\"span_dump\":\"{}\"", dump.display()),
        ],
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(STATE_DIR) {
        eprintln!("perfbench: cannot create {STATE_DIR}: {e}");
        return ExitCode::from(2);
    }
    let outcome = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.kind.name());
            return ExitCode::FAILURE;
        }
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "{{\"stamp\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"cpus\":{cpus},\"profile\":\"{profile}\",\"git_rev\":\"{}\",\"rustc\":\"{}\",\"daemon_workers\":{},\"connections\":1,\"streams\":{}}},{}}}",
        args.kind.name(),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        args.rev.replace('"', "'"),
        args.rustc.replace('"', "'"),
        daemon::WORKERS,
        args.kind.streams(),
        outcome.notes.join(",")
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
