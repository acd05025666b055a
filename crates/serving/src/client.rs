//! A small blocking client for the `elpc-serve` daemon.
//!
//! One [`Client`] wraps one connection and issues synchronous
//! request/response exchanges; open several clients for concurrency (the
//! server multiplexes them onto its worker pool). The CLI subcommands and
//! the serving test harness are both built on this type.
//!
//! The client survives a flaky daemon:
//!
//! * solve/remap calls derive **socket read/write timeouts** from the
//!   request's own deadline, so a dead peer can never hang a deadlined
//!   call forever;
//! * any transport failure marks the connection broken and the next call
//!   transparently **reconnects** (the daemon may have restarted under
//!   the same socket path);
//! * [`Client::solve_with_retry`] layers a deterministic, seeded
//!   [`RetryPolicy`] (exponential backoff with jitter) on top, honoring
//!   the `retry_after_ms` hint carried by [`ServeError::Overloaded`]
//!   shed replies.
//!
//! The client also keeps the wire from carrying what the daemon already
//! holds. Each connection remembers the bank keys the daemon acknowledged
//! ([`SolveReply::network_key`]); a solve or remap on one of those
//! networks goes out keyed ([`Request::SolveKeyed`],
//! [`Request::RemapKeyed`]) instead of inline. When the daemon refuses a
//! key ([`ServeError::UnknownNetwork`]: evicted, or the daemon restarted)
//! the client forgets it and sends the same request inline, once. The
//! caller sees one reply either way.

use crate::keyset::KeySet;
use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, FrameError, KeyedRemapRequest,
    KeyedSolveRequest, RemapReply, RemapRequest, Request, RequestFrame, Response, ServeError,
    SolveReply, SolveRequest, StatsReply,
};
use elpc_mapping::CostModel;
use elpc_workloads::bank::bank_key_of;
use elpc_workloads::ProblemInstance;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Socket-timeout headroom over a request's deadline: the server answers
/// a typed `Timeout` itself at the deadline, so the raw socket timeout
/// only fires when the daemon is actually gone or wedged.
const DEADLINE_SLACK_MS: u64 = 500;

/// Bank keys a connection remembers, well above the daemon's default bank
/// capacity; a remembered key the daemon has since evicted costs one
/// refused round trip.
const KNOWN_KEYS: usize = 1024;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(std::io::Error),
    /// A frame could not be read or decoded.
    Frame(FrameError),
    /// The server answered with a typed error.
    Server(ServeError),
    /// The server answered with a response of the wrong kind.
    Unexpected {
        /// The response kind the call was waiting for.
        expected: &'static str,
        /// Debug rendering of what arrived instead.
        got: String,
    },
    /// The server closed the connection before answering.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "client frame error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Unexpected { expected, got } => {
                write!(f, "expected {expected} response, got {got}")
            }
            ClientError::Closed => f.write_str("server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// True when retrying the same request can plausibly succeed: a
    /// transport failure (the daemon may be restarting), a shed
    /// [`ServeError::Overloaded`] reply, or a drain-window
    /// [`ServeError::ShuttingDown`]. Typed solve failures, malformed
    /// requests, and deadline timeouts are final answers.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ClientError::Io(_)
                | ClientError::Frame(_)
                | ClientError::Closed
                | ClientError::Server(ServeError::Overloaded { .. })
                | ClientError::Server(ServeError::ShuttingDown)
        )
    }

    /// The server's backoff hint, when this error carries one.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ClientError::Server(ServeError::Overloaded { retry_after_ms }) => Some(*retry_after_ms),
            _ => None,
        }
    }
}

/// Deterministic exponential-backoff-with-jitter schedule for
/// [`Client::solve_with_retry`].
///
/// The jitter is drawn from a SplitMix64 hash of `(seed, attempt)` — the
/// same policy always produces the same wait sequence, so retry behavior
/// in tests and benchmarks is reproducible, while different seeds
/// decorrelate concurrent clients and avoid a retry stampede.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, initial try included (1 = never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub base_ms: u64,
    /// Cap on the exponential backoff (pre-jitter).
    pub max_backoff_ms: u64,
    /// Fraction of the backoff randomized away, in `[0, 1]`: the wait is
    /// drawn from `[backoff × (1 - jitter), backoff]`.
    pub jitter: f64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_ms: 10,
            max_backoff_ms: 2_000,
            jitter: 0.5,
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// The wait before retry number `attempt` (0-based), in milliseconds.
    ///
    /// Exponential in `attempt` from [`base_ms`](RetryPolicy::base_ms),
    /// capped at [`max_backoff_ms`](RetryPolicy::max_backoff_ms),
    /// jittered downward deterministically, and never below the server's
    /// `server_hint_ms` (an [`ServeError::Overloaded`] reply's
    /// `retry_after_ms` estimate of when capacity frees up).
    pub fn backoff_ms(&self, attempt: u32, server_hint_ms: Option<u64>) -> u64 {
        let exp = self
            .base_ms
            .max(1)
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.max_backoff_ms.max(1));
        let h = splitmix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64; // uniform [0, 1)
        let jittered = exp as f64 * (1.0 - self.jitter.clamp(0.0, 1.0) * frac);
        (jittered.round() as u64)
            .max(1)
            .max(server_hint_ms.unwrap_or(0))
    }
}

/// SplitMix64 finalizer — the same mix used by the fault-schedule
/// generator; good enough to decorrelate per-attempt jitter.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// A blocking connection to a running `elpc-serve` daemon.
///
/// # Examples
///
/// Boot an in-process server, solve over the socket, and check the answer
/// matches a direct registry call:
///
/// ```
/// use elpc_serving::{Client, Server, ServerConfig, SolveRequest};
/// use elpc_mapping::{solver, CostModel, SolveContext};
/// use elpc_workloads::InstanceSpec;
///
/// let socket = std::env::temp_dir().join(format!("elpc-doc-{}.sock", std::process::id()));
/// let server = Server::bind(&socket, ServerConfig::default()).unwrap();
///
/// let inst = InstanceSpec::sized(4, 12, 22).generate(7).unwrap();
/// let mut client = Client::connect(&socket).unwrap();
/// client.ping().unwrap();
/// let reply = client
///     .solve(SolveRequest {
///         solver: "elpc_delay_routed".into(),
///         cost: CostModel::default(),
///         threads: 1,
///         timeout_ms: None,
///         instance: inst.clone(),
///     })
///     .unwrap();
///
/// let ctx = SolveContext::with_threads(inst.as_instance(), CostModel::default(), 1);
/// let direct = solver("elpc_delay_routed").unwrap().solve(&ctx).unwrap();
/// assert_eq!(reply.assignment, direct.assignment);
/// assert_eq!(reply.objective_ms, direct.objective_ms);
///
/// client.shutdown().unwrap();
/// server.shutdown();
/// ```
pub struct Client {
    path: PathBuf,
    stream: UnixStream,
    next_id: u64,
    broken: bool,
    /// Bank keys the daemon acknowledged holding, on this connection.
    known: KeySet,
}

impl Client {
    /// Connects to the daemon listening on `path`. The path is kept so a
    /// broken connection can be re-established transparently.
    pub fn connect<P: AsRef<Path>>(path: P) -> std::io::Result<Client> {
        let path = path.as_ref().to_path_buf();
        Ok(Client {
            stream: UnixStream::connect(&path)?,
            path,
            next_id: 1,
            broken: false,
            known: KeySet::with_capacity(KNOWN_KEYS),
        })
    }

    /// Re-dials the daemon's socket, replacing the current connection.
    /// Called automatically by [`Client::request`] after a transport
    /// failure; exposed for callers that want to force a fresh dial.
    /// Forgets every acknowledged bank key: the new connection may reach
    /// a restarted daemon whose bank is empty.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        self.stream = UnixStream::connect(&self.path)?;
        self.broken = false;
        self.known.clear();
        Ok(())
    }

    /// Re-dials only when a prior exchange broke the connection. A
    /// half-exchanged stream is never reused: its frame boundary may be
    /// mid-reply, and a late reply to a stale id must not be
    /// misattributed to a new request.
    fn ensure_connected(&mut self) -> Result<(), ClientError> {
        if self.broken {
            self.reconnect()?;
        }
        Ok(())
    }

    /// Sets socket read/write timeouts from a request deadline (`None`
    /// blocks indefinitely). The slack keeps the server's own typed
    /// `Timeout` reply the common outcome; the socket timeout is the
    /// backstop for a daemon that died mid-request.
    fn set_deadline(&mut self, timeout_ms: Option<u64>) {
        let t =
            timeout_ms.map(|ms| Duration::from_millis(ms.saturating_add(DEADLINE_SLACK_MS).max(1)));
        let _ = self.stream.set_read_timeout(t);
        let _ = self.stream.set_write_timeout(t);
    }

    /// Sends one request and blocks for its response.
    ///
    /// A transport failure (write error, short read, torn frame, EOF)
    /// marks the connection broken; the next call reconnects before
    /// sending. The error is still surfaced — retry orchestration
    /// belongs to [`Client::solve_with_retry`] or the caller.
    pub fn request(&mut self, body: Request) -> Result<Response, ClientError> {
        self.ensure_connected()?;
        let id = self.next_id;
        self.next_id += 1;
        let payload = encode_request(&RequestFrame { id, body });
        if let Err(e) = write_frame(&mut self.stream, payload.as_bytes()) {
            self.broken = true;
            return Err(e.into());
        }
        loop {
            let payload = match read_frame(&mut self.stream) {
                Ok(Some(payload)) => payload,
                Ok(None) => {
                    self.broken = true;
                    return Err(ClientError::Closed);
                }
                Err(e) => {
                    self.broken = true;
                    return Err(e.into());
                }
            };
            let frame = decode_response(&payload)?;
            // A synchronous client only ever has one request outstanding;
            // skip anything stale rather than misattributing it.
            if frame.id == id {
                return Ok(frame.body);
            }
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Runs a solve on the daemon and returns its reply. Socket timeouts
    /// are derived from the request's own deadline.
    ///
    /// When the daemon acknowledged holding the instance's network on this
    /// connection, the request goes out keyed, without the network; if the
    /// daemon no longer holds it, the request is sent again inline.
    pub fn solve(&mut self, req: SolveRequest) -> Result<SolveReply, ClientError> {
        self.ensure_connected()?;
        self.set_deadline(req.timeout_ms);
        let key = instance_key(&req.instance, &req.cost);
        if self.known.contains(key) {
            match self.exchange_solved(Request::SolveKeyed(keyed(&req, key))) {
                Err(ClientError::Server(ServeError::UnknownNetwork { key })) => {
                    self.known.remove(key);
                }
                done => return done,
            }
        }
        self.exchange_solved(Request::Solve(req))
    }

    fn exchange_solved(&mut self, body: Request) -> Result<SolveReply, ClientError> {
        match self.request(body)? {
            Response::Solved(reply) => {
                self.learn(&reply);
                Ok(reply)
            }
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(unexpected("Solved", &other)),
        }
    }

    fn exchange_remapped(&mut self, body: Request) -> Result<RemapReply, ClientError> {
        match self.request(body)? {
            Response::Remapped(reply) => {
                self.learn(&reply.reply);
                Ok(reply)
            }
            Response::Error(e) => Err(ClientError::Server(e)),
            other => Err(unexpected("Remapped", &other)),
        }
    }

    /// Remembers the bank key a reply acknowledged.
    fn learn(&mut self, reply: &SolveReply) {
        if let Some(key) = reply.network_key {
            self.known.insert(key);
        }
    }

    /// Like [`Client::solve`], but retries transient failures (shed
    /// replies, daemon restarts, broken pipes) under `policy`,
    /// reconnecting as needed and sleeping the policy's deterministic
    /// backoff — never less than a shed reply's `retry_after_ms` hint —
    /// between attempts. Non-transient errors and exhausted attempts
    /// surface the last error unchanged.
    pub fn solve_with_retry(
        &mut self,
        req: &SolveRequest,
        policy: &RetryPolicy,
    ) -> Result<SolveReply, ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.solve(req.clone()) {
                Ok(reply) => return Ok(reply),
                Err(e) if e.is_transient() && attempt + 1 < policy.max_attempts.max(1) => {
                    let wait = policy.backoff_ms(attempt, e.retry_after_ms());
                    std::thread::sleep(Duration::from_millis(wait));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Runs a remap on the daemon and returns its reply. Socket timeouts
    /// are derived from the request's own deadline.
    ///
    /// When the request names a `previous_key` the daemon acknowledged on
    /// this connection, plus its `delta`, the perturbed network travels as
    /// that delta alone. If the daemon cannot rebuild the network from
    /// them, the request is sent again inline *without* the repair fields:
    /// a delta that does not fit the banked network must not repair it.
    pub fn remap(&mut self, mut req: RemapRequest) -> Result<RemapReply, ClientError> {
        self.ensure_connected()?;
        self.set_deadline(req.solve.timeout_ms);
        if let (Some(previous_key), Some(delta)) = (req.previous_key, &req.delta) {
            if self.known.contains(previous_key) {
                let key = instance_key(&req.solve.instance, &req.solve.cost);
                let body = Request::RemapKeyed(KeyedRemapRequest {
                    solve: keyed(&req.solve, key),
                    previous: req.previous.clone(),
                    previous_key,
                    delta: delta.clone(),
                });
                match self.exchange_remapped(body) {
                    Err(ClientError::Server(ServeError::UnknownNetwork { key })) => {
                        self.known.remove(key);
                        req.previous_key = None;
                        req.delta = None;
                    }
                    done => return done,
                }
            }
        }
        self.exchange_remapped(Request::Remap(req))
    }

    /// Fetches a statistics snapshot.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        match self.request(Request::Stats)? {
            Response::Stats(reply) => Ok(reply),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Asks the daemon to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

/// The bank key the daemon would hold `inst`'s network under.
fn instance_key(inst: &ProblemInstance, cost: &CostModel) -> u64 {
    bank_key_of(inst.network.fingerprint(), &inst.pipeline, cost)
}

/// `req` with its network replaced by the instance's bank key.
fn keyed(req: &SolveRequest, key: u64) -> KeyedSolveRequest {
    KeyedSolveRequest {
        solver: req.solver.clone(),
        cost: req.cost,
        threads: req.threads,
        timeout_ms: req.timeout_ms,
        key,
        pipeline: req.instance.pipeline.clone(),
        src: req.instance.src,
        dst: req.instance.dst,
    }
}

fn unexpected(expected: &'static str, got: &Response) -> ClientError {
    ClientError::Unexpected {
        expected,
        got: format!("{got:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let p = RetryPolicy::default();
        let a: Vec<u64> = (0..6).map(|i| p.backoff_ms(i, None)).collect();
        let b: Vec<u64> = (0..6).map(|i| p.backoff_ms(i, None)).collect();
        assert_eq!(a, b, "same policy must replay the same schedule");
        let other = RetryPolicy {
            seed: 1234,
            ..RetryPolicy::default()
        };
        let c: Vec<u64> = (0..6).map(|i| other.backoff_ms(i, None)).collect();
        assert_ne!(a, c, "different seeds must decorrelate");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        // jitter off: pure doubling from base_ms, capped at max_backoff_ms
        assert_eq!(p.backoff_ms(0, None), 10);
        assert_eq!(p.backoff_ms(1, None), 20);
        assert_eq!(p.backoff_ms(4, None), 160);
        assert_eq!(p.backoff_ms(12, None), 2_000);
        assert_eq!(p.backoff_ms(63, None), 2_000); // shift amount is clamped
    }

    #[test]
    fn backoff_honors_the_server_hint() {
        let p = RetryPolicy::default();
        assert!(p.backoff_ms(0, Some(5_000)) >= 5_000);
        // jittered wait stays within [backoff × (1 - jitter), backoff]
        let full = RetryPolicy {
            jitter: 0.0,
            ..p.clone()
        };
        for i in 0..8 {
            let cap = full.backoff_ms(i, None);
            let w = p.backoff_ms(i, None);
            assert!(w <= cap && w as f64 >= cap as f64 * (1.0 - p.jitter) - 1.0);
        }
    }

    #[test]
    fn transient_classification_matches_the_retry_contract() {
        use std::io;
        assert!(ClientError::Closed.is_transient());
        assert!(ClientError::Io(io::Error::new(io::ErrorKind::BrokenPipe, "x")).is_transient());
        assert!(ClientError::Server(ServeError::Overloaded { retry_after_ms: 7 }).is_transient());
        assert!(ClientError::Server(ServeError::ShuttingDown).is_transient());
        assert!(!ClientError::Server(ServeError::Timeout { waited_ms: 9 }).is_transient());
        assert!(!ClientError::Server(ServeError::UnknownSolver {
            name: "nope".into()
        })
        .is_transient());
        assert_eq!(
            ClientError::Server(ServeError::Overloaded { retry_after_ms: 7 }).retry_after_ms(),
            Some(7)
        );
        assert_eq!(ClientError::Closed.retry_after_ms(), None);
    }
}
