//! The closed-loop driver: one [`Client`] whose streams take turns, each
//! request sent only after the previous reply arrived.

use crate::workload::{Call, Check, Planned, Stream};
use elpc_mapping::NodeId;
use elpc_serving::{Client, ClientError, SolveReply};
use std::path::Path;
use std::time::{Duration, Instant};

/// One served reply kept for the correctness gate.
pub struct Record {
    pub check: Check,
    pub solver: String,
    pub assignment: Vec<NodeId>,
    pub objective_ms: f64,
    /// Sent inside the timed window.
    pub timed: bool,
}

/// What one connection saw.
#[derive(Default)]
pub struct ConnLog {
    /// Client-side durations of successful timed calls, in ms.
    pub latencies_ms: Vec<f64>,
    /// Timed calls sent.
    pub attempted: u64,
    /// Timed calls that failed.
    pub failed: u64,
    /// Calls of any phase that the daemon answered with a reply.
    pub served: u64,
    /// Calls of any phase that failed.
    pub failed_any: u64,
    /// `Remap` calls of any phase.
    pub remaps: u64,
    /// End of the last timed call.
    pub last_done: Option<Instant>,
    pub records: Vec<Record>,
}

/// Sends one call through the public client and returns its reply.
pub fn send(client: &mut Client, call: Call) -> Result<SolveReply, ClientError> {
    match call {
        Call::Solve(req) => client.solve(req),
        Call::Remap(req) => client.remap(req).map(|r| r.reply),
    }
}

/// A successful exchange, with the instants that bound it.
pub struct Served {
    pub start: Instant,
    pub done: Instant,
    pub reply: SolveReply,
}

impl Served {
    pub fn ms(&self) -> f64 {
        (self.done - self.start).as_secs_f64() * 1e3
    }
}

impl ConnLog {
    /// Sends `plan`, feeds the reply back to the stream, and logs it.
    pub fn exchange(
        &mut self,
        client: &mut Client,
        stream: &mut Stream,
        plan: Planned,
        timed: bool,
    ) -> Option<Served> {
        let is_remap = matches!(plan.call, Call::Remap(_));
        let solver = plan.call.solve().solver.clone();
        self.remaps += u64::from(is_remap);
        self.attempted += u64::from(timed);
        let start = Instant::now();
        let result = send(client, plan.call);
        let done = Instant::now();
        match result {
            Ok(reply) => {
                let served = Served { start, done, reply };
                stream.observe(&served.reply);
                self.served += 1;
                if timed {
                    self.latencies_ms.push(served.ms());
                    self.last_done = Some(done);
                }
                self.records.push(Record {
                    check: plan.check,
                    solver,
                    assignment: served.reply.assignment.clone(),
                    objective_ms: served.reply.objective_ms,
                    timed,
                });
                Some(served)
            }
            Err(e) => {
                eprintln!("perfbench: {solver} request failed: {e}");
                self.failed_any += 1;
                self.failed += u64::from(timed);
                None
            }
        }
    }
}

/// Sends every stream's set-up calls over one connection, stream by stream.
pub fn setup(socket: &Path, streams: &mut [Stream]) -> Result<ConnLog, String> {
    let mut client = Client::connect(socket).map_err(|e| e.to_string())?;
    let mut log = ConnLog::default();
    for stream in streams {
        for plan in stream.setup_calls() {
            log.exchange(&mut client, stream, plan, false);
        }
    }
    Ok(log)
}

/// The closed loop over one connection: the streams take turns, and each
/// call is sent only after the previous reply arrived. Calls warm up until
/// `start`, then are timed until `end`. `banked` polls `Client::stats`
/// every `stats_every` calls, as an operator's monitor would.
pub fn closed_loop(
    socket: &Path,
    streams: &mut [Stream],
    start: Instant,
    end: Instant,
    stats_every: Option<u64>,
) -> Result<ConnLog, String> {
    let mut client = Client::connect(socket).map_err(|e| e.to_string())?;
    let mut log = ConnLog::default();
    let mut calls = 0u64;
    loop {
        let now = Instant::now();
        if now >= end {
            return Ok(log);
        }
        let timed = now >= start;
        let stream = &mut streams[calls as usize % streams.len()];
        let plan = stream.next(timed);
        log.exchange(&mut client, stream, plan, timed);
        calls += 1;
        if stats_every.is_some_and(|k| calls.is_multiple_of(k)) {
            client
                .stats()
                .map_err(|e| format!("stats poll failed: {e}"))?;
        }
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Sleeps until `t` (returns at once when it has passed).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Shorthand for a whole-second duration.
pub fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}
