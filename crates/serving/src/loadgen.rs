//! An open-loop load generator for the `elpc-serve` daemon.
//!
//! *Open-loop* means the send schedule is fixed up front: each connection's
//! writer thread fires requests at the configured aggregate rate (or as
//! fast as the socket accepts them at rate 0) **without waiting for
//! responses**, while a separate reader thread matches responses by
//! correlation id and records end-to-end latency. A server that falls
//! behind therefore shows up as growing latency, not as a silently
//! throttled client — the honest way to measure a queueing system.
//!
//! The `serving` bench and the CI `SERVING_SMOKE` step both drive the
//! daemon through [`run_open_loop`].
//!
//! Open-loop requests always carry their network inline: a writer that
//! never waits for replies never sees the acknowledgement
//! ([`crate::SolveReply::network_key`]) a keyed request needs. The
//! closed-loop retry mode goes through [`Client`], so it sends by key.
//!
//! Replies are tallied by kind — [`LoadReport::ok`], [`LoadReport::shed`]
//! (typed `Overloaded` refusals), [`LoadReport::timeouts`],
//! [`LoadReport::server_errors`], and [`LoadReport::lost`] (sent but
//! never answered) — so overload experiments can tell load-shedding from
//! failure. Setting [`LoadConfig::retry`] switches to a **closed-loop**
//! mode built on [`Client::solve_with_retry`]: each connection waits for
//! (and retries) every reply before sending the next request, which is
//! the mode chaos tests use to prove no accepted request is lost across
//! a daemon restart.

use crate::client::{Client, ClientError, RetryPolicy};
use crate::protocol::{
    decode_response, encode_request, percentile, read_frame, write_frame, Request, RequestFrame,
    Response, ServeError, SolveRequest,
};
use elpc_mapping::CostModel;
use elpc_workloads::ProblemInstance;
use std::collections::HashMap;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Knobs for one open-loop run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Client connections to open.
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Aggregate send rate in requests/second (0 = unpaced, send as fast
    /// as the sockets accept).
    pub rate_per_sec: f64,
    /// Registry solver every request asks for.
    pub solver: String,
    /// Cost model every request carries.
    pub cost: CostModel,
    /// Per-request closure threads (1 keeps the daemon's parallelism in
    /// the pool, not inside each solve).
    pub threads: usize,
    /// Optional per-request timeout forwarded to the server.
    pub timeout_ms: Option<u64>,
    /// When set, the run is **closed-loop**: each connection issues its
    /// requests synchronously through [`Client::solve_with_retry`] under
    /// this policy (reconnecting across daemon restarts, backing off on
    /// shed replies) instead of the open-loop fire-and-match schedule.
    pub retry: Option<RetryPolicy>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            connections: 4,
            requests: 64,
            rate_per_sec: 0.0,
            solver: "elpc_delay_routed".into(),
            cost: CostModel::default(),
            threads: 1,
            timeout_ms: None,
            retry: None,
        }
    }
}

/// What an open-loop run observed.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests actually written to the sockets.
    pub sent: usize,
    /// Successful solve replies.
    pub ok: usize,
    /// Every non-ok outcome: `shed + timeouts + server_errors + lost`
    /// (kept as the historical aggregate existing consumers assert on).
    pub errors: usize,
    /// Typed `Overloaded` refusals — the daemon shedding load, not
    /// failing.
    pub shed: usize,
    /// Typed `Timeout` replies (deadline expired server-side).
    pub timeouts: usize,
    /// Any other typed error reply (solve failures, malformed, internal,
    /// shutting-down).
    pub server_errors: usize,
    /// Requests written to a socket but never answered (connection died
    /// with the reply outstanding).
    pub lost: usize,
    /// Wall-clock duration of the whole run in seconds.
    pub elapsed_s: f64,
    /// Successful replies per second of wall clock.
    pub throughput_rps: f64,
    /// Mean end-to-end latency (ms) over successful replies.
    pub mean_ms: f64,
    /// Median end-to-end latency (ms).
    pub p50_ms: f64,
    /// 99th-percentile end-to-end latency (ms).
    pub p99_ms: f64,
    /// Worst end-to-end latency (ms).
    pub max_ms: f64,
}

/// Drives `cfg.requests` solve requests at the daemon on `socket`,
/// round-robining `instances` across the request stream, and returns the
/// observed throughput/latency report.
pub fn run_open_loop(
    socket: &Path,
    instances: &[ProblemInstance],
    cfg: &LoadConfig,
) -> std::io::Result<LoadReport> {
    assert!(!instances.is_empty(), "need at least one instance");
    if cfg.retry.is_some() {
        return run_closed_loop(socket, instances, cfg);
    }
    let connections = cfg.connections.max(1);
    let interval = if cfg.rate_per_sec > 0.0 {
        Duration::from_secs_f64(1.0 / cfg.rate_per_sec)
    } else {
        Duration::ZERO
    };

    // Pre-open every connection so the measured window is pure serving.
    let mut streams = Vec::with_capacity(connections);
    for _ in 0..connections {
        streams.push(UnixStream::connect(socket)?);
    }

    let latencies = Mutex::new(Vec::<f64>::with_capacity(cfg.requests));
    let sent = AtomicUsize::new(0);
    let ok = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    let timeouts = AtomicUsize::new(0);
    let server_errors = AtomicUsize::new(0);
    let start = Instant::now();

    std::thread::scope(|s| -> std::io::Result<()> {
        for (conn_idx, stream) in streams.into_iter().enumerate() {
            let writer_stream = stream.try_clone()?;
            // ids this connection owns: the global request indices
            // congruent to conn_idx mod connections.
            let my_ids: Vec<usize> = (0..cfg.requests)
                .filter(|k| k % connections == conn_idx)
                .collect();
            let expect = my_ids.len();
            let in_flight = Mutex::new(HashMap::<u64, Instant>::with_capacity(expect));

            let latencies = &latencies;
            let sent = &sent;
            let ok = &ok;
            let shed = &shed;
            let timeouts = &timeouts;
            let server_errors = &server_errors;
            let cfg_ref = cfg;

            s.spawn(move || {
                let in_flight = &in_flight;
                std::thread::scope(|inner| {
                    // Writer: paced sends on the global schedule, never
                    // waiting for responses (open loop).
                    let mut w = writer_stream;
                    inner.spawn(move || {
                        for k in my_ids {
                            if !interval.is_zero() {
                                let due = start + interval.mul_f64(k as f64);
                                let now = Instant::now();
                                if due > now {
                                    std::thread::sleep(due - now);
                                }
                            }
                            let body = Request::Solve(SolveRequest {
                                solver: cfg_ref.solver.clone(),
                                cost: cfg_ref.cost,
                                threads: cfg_ref.threads,
                                timeout_ms: cfg_ref.timeout_ms,
                                instance: instances[k % instances.len()].clone(),
                            });
                            let frame = RequestFrame { id: k as u64, body };
                            let payload = encode_request(&frame);
                            in_flight
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .insert(frame.id, Instant::now());
                            if write_frame(&mut w, payload.as_bytes()).is_err() {
                                break;
                            }
                            sent.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                    // Reader: match responses by id until the connection's
                    // share is answered or the server hangs up.
                    let mut r = stream;
                    inner.spawn(move || {
                        let mut received = 0usize;
                        while received < expect {
                            let payload = match read_frame(&mut r) {
                                Ok(Some(p)) => p,
                                Ok(None) | Err(_) => break,
                            };
                            let Ok(frame) = decode_response(&payload) else {
                                break;
                            };
                            let sent_at = in_flight
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .remove(&frame.id);
                            received += 1;
                            match (frame.body, sent_at) {
                                (Response::Solved(_), Some(t0)) => {
                                    ok.fetch_add(1, Ordering::Relaxed);
                                    latencies
                                        .lock()
                                        .unwrap_or_else(|e| e.into_inner())
                                        .push(t0.elapsed().as_secs_f64() * 1e3);
                                }
                                (Response::Error(ServeError::Overloaded { .. }), _) => {
                                    shed.fetch_add(1, Ordering::Relaxed);
                                }
                                (Response::Error(ServeError::Timeout { .. }), _) => {
                                    timeouts.fetch_add(1, Ordering::Relaxed);
                                }
                                _ => {
                                    server_errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    });
                });
            });
        }
        Ok(())
    })?;

    let lat = latencies.into_inner().unwrap_or_else(|e| e.into_inner());
    let sent = sent.into_inner();
    let ok = ok.into_inner();
    let shed = shed.into_inner();
    let timeouts = timeouts.into_inner();
    let server_errors = server_errors.into_inner();
    let lost = sent.saturating_sub(ok + shed + timeouts + server_errors);
    Ok(build_report(
        start.elapsed().as_secs_f64(),
        lat,
        sent,
        ok,
        shed,
        timeouts,
        server_errors,
        lost,
    ))
}

/// The closed-loop retry mode behind [`LoadConfig::retry`]: every
/// connection synchronously drives its share of the request stream
/// through [`Client::solve_with_retry`], so a mid-run daemon restart
/// shows up as retried-and-answered work, not lost replies. Each
/// connection's policy seed is decorrelated by its index.
fn run_closed_loop(
    socket: &Path,
    instances: &[ProblemInstance],
    cfg: &LoadConfig,
) -> std::io::Result<LoadReport> {
    let policy = cfg.retry.clone().expect("run_closed_loop needs a policy");
    let connections = cfg.connections.max(1);
    let mut clients = Vec::with_capacity(connections);
    for _ in 0..connections {
        clients.push(Client::connect(socket)?);
    }

    let latencies = Mutex::new(Vec::<f64>::with_capacity(cfg.requests));
    let sent = AtomicUsize::new(0);
    let ok = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    let timeouts = AtomicUsize::new(0);
    let server_errors = AtomicUsize::new(0);
    let lost = AtomicUsize::new(0);
    let start = Instant::now();

    std::thread::scope(|s| {
        for (conn_idx, mut client) in clients.into_iter().enumerate() {
            let my_ids: Vec<usize> = (0..cfg.requests)
                .filter(|k| k % connections == conn_idx)
                .collect();
            let policy = RetryPolicy {
                seed: policy.seed ^ (conn_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ..policy.clone()
            };
            let (latencies, sent, ok) = (&latencies, &sent, &ok);
            let (shed, timeouts, server_errors, lost) = (&shed, &timeouts, &server_errors, &lost);
            let cfg_ref = cfg;
            s.spawn(move || {
                for k in my_ids {
                    let req = SolveRequest {
                        solver: cfg_ref.solver.clone(),
                        cost: cfg_ref.cost,
                        threads: cfg_ref.threads,
                        timeout_ms: cfg_ref.timeout_ms,
                        instance: instances[k % instances.len()].clone(),
                    };
                    sent.fetch_add(1, Ordering::Relaxed);
                    let t0 = Instant::now();
                    match client.solve_with_retry(&req, &policy) {
                        Ok(_) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                            latencies
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push(t0.elapsed().as_secs_f64() * 1e3);
                        }
                        Err(ClientError::Server(ServeError::Overloaded { .. })) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ClientError::Server(ServeError::Timeout { .. })) => {
                            timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ClientError::Io(_) | ClientError::Closed | ClientError::Frame(_)) => {
                            lost.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            server_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    Ok(build_report(
        start.elapsed().as_secs_f64(),
        latencies.into_inner().unwrap_or_else(|e| e.into_inner()),
        sent.into_inner(),
        ok.into_inner(),
        shed.into_inner(),
        timeouts.into_inner(),
        server_errors.into_inner(),
        lost.into_inner(),
    ))
}

#[allow(clippy::too_many_arguments)]
fn build_report(
    elapsed_s: f64,
    mut lat: Vec<f64>,
    sent: usize,
    ok: usize,
    shed: usize,
    timeouts: usize,
    server_errors: usize,
    lost: usize,
) -> LoadReport {
    lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    LoadReport {
        sent,
        ok,
        errors: shed + timeouts + server_errors + lost,
        shed,
        timeouts,
        server_errors,
        lost,
        elapsed_s,
        throughput_rps: if elapsed_s > 0.0 {
            ok as f64 / elapsed_s
        } else {
            0.0
        },
        mean_ms: if lat.is_empty() {
            0.0
        } else {
            lat.iter().sum::<f64>() / lat.len() as f64
        },
        p50_ms: percentile(&lat, 0.50),
        p99_ms: percentile(&lat, 0.99),
        max_ms: lat.last().copied().unwrap_or(0.0),
    }
}
