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
//! The `serving` and `faults` benches, the `elpc-serve loadgen`
//! subcommand and the serving test suites drive the daemon through
//! [`run_open_loop`].
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
//! failure. Ok latencies go into the daemon's bounded log-linear histogram
//! type (relative precision 2⁻⁷; exact count, mean and max), so a run's
//! memory does not grow with its request count. Setting [`LoadConfig::retry`] switches to a **closed-loop**
//! mode built on [`Client::solve_with_retry`]: each connection waits for
//! (and retries) every reply before sending the next request, which is
//! the mode chaos tests use to prove no accepted request is lost across
//! a daemon restart.

use crate::client::{Client, ClientError, RetryPolicy};
use crate::histogram::LatencyHistogram;
use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, Request, RequestFrame, Response,
    ServeError, SolveRequest,
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

impl LoadConfig {
    /// The solve request this run sends for `instance`.
    fn request(&self, instance: &ProblemInstance) -> SolveRequest {
        SolveRequest {
            solver: self.solver.clone(),
            cost: self.cost,
            threads: self.threads,
            timeout_ms: self.timeout_ms,
            instance: instance.clone(),
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
    /// Mean end-to-end latency (ms) over successful replies. Open-loop
    /// latency runs from a request's scheduled due instant when the run is
    /// paced ([`LoadConfig::rate_per_sec`] `> 0`), so a writer that falls
    /// behind its schedule shows up here, and from its send when unpaced;
    /// closed-loop latency runs from the first attempt to the reply. The
    /// same holds for every latency field below.
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
    let streams: Vec<_> = (0..connections)
        .map(|_| UnixStream::connect(socket))
        .collect::<std::io::Result<_>>()?;

    let in_flight: Vec<Mutex<HashMap<u64, Instant>>> =
        (0..connections).map(|_| Mutex::default()).collect();
    let tally = Tally::default();
    let start = Instant::now();

    std::thread::scope(|s| -> std::io::Result<()> {
        for (conn_idx, mut r) in streams.into_iter().enumerate() {
            let mut w = r.try_clone()?;
            // ids this connection owns: the global request indices
            // congruent to conn_idx mod connections.
            let my_ids: Vec<usize> = (conn_idx..cfg.requests).step_by(connections).collect();
            let expect = my_ids.len();
            let (in_flight, tally) = (&in_flight[conn_idx], &tally);
            // Writer: paced sends on the global schedule, never waiting
            // for responses (open loop).
            s.spawn(move || {
                for k in my_ids {
                    let due = due_instant(start, interval, k);
                    if let Some(due) = due {
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                    }
                    let body = Request::Solve(cfg.request(&instances[k % instances.len()]));
                    let frame = RequestFrame { id: k as u64, body };
                    let payload = encode_request(&frame);
                    // a paced request is timed from when it was due, so a
                    // writer running late counts its own lateness
                    in_flight
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(frame.id, due.unwrap_or_else(Instant::now));
                    if write_frame(&mut w, payload.as_bytes()).is_err() {
                        break;
                    }
                    bump(&tally.sent);
                }
            });
            // Reader: match responses by id until the connection's share
            // is answered or the server hangs up.
            s.spawn(move || {
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
                        (Response::Solved(_), Some(t0)) => tally.ok.record(t0.elapsed()),
                        (Response::Error(ServeError::Overloaded { .. }), _) => bump(&tally.shed),
                        (Response::Error(ServeError::Timeout { .. }), _) => bump(&tally.timeouts),
                        _ => bump(&tally.server_errors),
                    }
                }
            });
        }
        Ok(())
    })?;

    Ok(tally.report(start.elapsed().as_secs_f64()))
}

/// When request `k` of a paced run that began at `start` is due: `start +
/// k · interval`. `None` for an unpaced run (`interval` zero), whose
/// requests go out, and are timed, as fast as the writer sends them.
fn due_instant(start: Instant, interval: Duration, k: usize) -> Option<Instant> {
    (!interval.is_zero()).then(|| start + interval.mul_f64(k as f64))
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
    let clients: Vec<_> = (0..connections)
        .map(|_| Client::connect(socket))
        .collect::<std::io::Result<_>>()?;

    let tally = Tally::default();
    let start = Instant::now();

    std::thread::scope(|s| {
        for (conn_idx, mut client) in clients.into_iter().enumerate() {
            let my_ids = (conn_idx..cfg.requests).step_by(connections);
            let policy = RetryPolicy {
                seed: policy.seed ^ (conn_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ..policy.clone()
            };
            let tally = &tally;
            s.spawn(move || {
                for k in my_ids {
                    let req = cfg.request(&instances[k % instances.len()]);
                    bump(&tally.sent);
                    let t0 = Instant::now();
                    match client.solve_with_retry(&req, &policy) {
                        Ok(_) => tally.ok.record(t0.elapsed()),
                        Err(ClientError::Server(ServeError::Overloaded { .. })) => {
                            bump(&tally.shed)
                        }
                        Err(ClientError::Server(ServeError::Timeout { .. })) => {
                            bump(&tally.timeouts)
                        }
                        // no reply: the report counts the request as lost
                        Err(ClientError::Io(_) | ClientError::Closed | ClientError::Frame(_)) => {}
                        Err(_) => bump(&tally.server_errors),
                    }
                }
            });
        }
    });

    Ok(tally.report(start.elapsed().as_secs_f64()))
}

/// What one run's threads count, shared by reference: every request sent,
/// the latency of each ok reply (its count is `ok`), and each typed
/// refusal or error. A sent request with none of these is lost.
#[derive(Default)]
struct Tally {
    sent: AtomicUsize,
    ok: LatencyHistogram,
    shed: AtomicUsize,
    timeouts: AtomicUsize,
    server_errors: AtomicUsize,
}

fn bump(n: &AtomicUsize) {
    n.fetch_add(1, Ordering::Relaxed);
}

impl Tally {
    fn report(self, elapsed_s: f64) -> LoadReport {
        let [sent, shed, timeouts, server_errors] =
            [self.sent, self.shed, self.timeouts, self.server_errors].map(AtomicUsize::into_inner);
        let latency = self.ok.summary();
        let ok = latency.count as usize;
        let lost = sent.saturating_sub(ok + shed + timeouts + server_errors);
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
            mean_ms: self.ok.mean_ms().unwrap_or(0.0),
            p50_ms: latency.p50_ms,
            p99_ms: latency.p99_ms,
            max_ms: latency.max_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paced_requests_are_timed_from_their_due_instant() {
        let start = Instant::now();
        // unpaced: no schedule, so each request is timed from its send
        assert_eq!(due_instant(start, Duration::ZERO, 0), None);
        assert_eq!(due_instant(start, Duration::ZERO, 9), None);
        // paced: request k is due k intervals after the start, whenever
        // its writer gets to send it
        let interval = Duration::from_millis(4);
        assert_eq!(due_instant(start, interval, 0), Some(start));
        assert_eq!(
            due_instant(start, interval, 5),
            Some(start + Duration::from_millis(20))
        );
    }
}
