//! The `elpc-serve` wire protocol: framing and request/response types.
//!
//! Every message is a **frame**: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 JSON. Frames larger than
//! [`MAX_FRAME_LEN`] are rejected before allocation so a corrupt length
//! prefix cannot make the server balloon. The JSON payload is an
//! externally tagged [`RequestFrame`] / [`ResponseFrame`] — a correlation
//! `id` chosen by the client plus the body — so a client may pipeline
//! requests on one connection and match responses out of order.
//!
//! Decoding is total: malformed or truncated frames surface as a typed
//! [`FrameError`], never a panic, and a clean EOF *between* frames is
//! distinguished from a connection dying *mid*-frame. The round-trip
//! property tests in `crates/serving/tests/protocol_roundtrip.rs` pin
//! encode→decode bit-identity for every request and response variant,
//! including every typed error.
//!
//! A network the daemon already holds travels **by key**: once a reply's
//! [`SolveReply::network_key`] acknowledges that the daemon banked a
//! request's network, the client may send [`Request::SolveKeyed`] /
//! [`Request::RemapKeyed`], which carry the bank key instead of the
//! network. A key the daemon cannot resolve is refused with
//! [`ServeError::UnknownNetwork`] before admission, and the client sends
//! the request again inline.

use elpc_mapping::{CostModel, MappingError, NetworkDelta};
use elpc_netgraph::NodeId;
use elpc_pipeline::Pipeline;
use elpc_workloads::ProblemInstance;
use serde::{Deserialize, Serialize};
use std::io::{ErrorKind, Read, Write};

/// Upper bound on a frame payload (16 MiB). Large enough for the 10k-node
/// topologies the workload generators emit, small enough that a garbage
/// length prefix fails fast instead of triggering a giant allocation.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    TooLarge {
        /// Length the prefix claimed.
        len: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// The connection ended mid-frame.
    Truncated {
        /// Bytes the frame still owed (header or payload).
        expected: usize,
        /// Bytes actually received before the stream ended.
        got: usize,
    },
    /// The payload is not valid UTF-8.
    Utf8,
    /// The payload is not a JSON document of the expected shape.
    Json(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Truncated { expected, got } => {
                write!(f, "stream ended mid-frame: got {got} of {expected} bytes")
            }
            FrameError::Utf8 => f.write_str("frame payload is not valid UTF-8"),
            FrameError::Json(e) => write!(f, "frame payload is not valid JSON: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one length-prefixed frame and flushes the writer.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(ErrorKind::InvalidInput, "frame payload exceeds u32 range")
    })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame from a blocking reader.
///
/// Returns `Ok(None)` on a clean EOF before the first header byte; an EOF
/// anywhere later is [`FrameError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
    read_frame_poll(r, || false)
}

/// Reads one frame from a reader that may have a read timeout armed,
/// polling `should_stop` whenever a read times out.
///
/// This is how the server drains: connection readers arm a short
/// `SO_RCVTIMEO` and pass the drain flag as `should_stop`, so an idle
/// connection notices shutdown within one timeout tick. A stop request
/// *between* frames returns `Ok(None)` like a clean EOF; a stop (or EOF)
/// *mid*-frame is [`FrameError::Truncated`] because the peer's message was
/// cut off.
pub fn read_frame_poll<R: Read>(
    r: &mut R,
    should_stop: impl Fn() -> bool,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    if !fill_poll(r, &mut header, 0, &should_stop)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let mut payload = vec![0u8; len];
    if len > 0 && !fill_poll(r, &mut payload, 4, &should_stop)? {
        // unreachable in practice: fill_poll only reports "stopped clean"
        // when zero bytes were read, and the header already consumed four.
        return Err(FrameError::Truncated {
            expected: len,
            got: 0,
        });
    }
    Ok(Some(payload))
}

/// Fills `buf` completely. Returns `Ok(false)` when the stream ended (or
/// `should_stop` fired) before *any* byte of the whole frame arrived —
/// `prior` counts frame bytes already consumed by earlier fills, so a
/// partial header or payload is reported as truncation instead.
fn fill_poll<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    prior: usize,
    should_stop: &impl Fn() -> bool,
) -> Result<bool, FrameError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if prior + filled == 0 {
                    Ok(false)
                } else {
                    Err(FrameError::Truncated {
                        expected: prior + buf.len(),
                        got: prior + filled,
                    })
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if should_stop() {
                    return if prior + filled == 0 {
                        Ok(false)
                    } else {
                        Err(FrameError::Truncated {
                            expected: prior + buf.len(),
                            got: prior + filled,
                        })
                    };
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(true)
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One client→server message: a correlation id plus the request body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RequestFrame {
    /// Client-chosen correlation id, echoed verbatim on the response.
    pub id: u64,
    /// The request itself.
    pub body: Request,
}

/// Every operation the daemon accepts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe; answered inline with [`Response::Pong`].
    Ping,
    /// Solve an instance with a named registry solver.
    Solve(SolveRequest),
    /// Re-solve after a topology change, reporting whether the assignment
    /// moved relative to `previous`.
    Remap(RemapRequest),
    /// [`Request::Solve`] against a network the daemon holds, named by key.
    SolveKeyed(KeyedSolveRequest),
    /// [`Request::Remap`] whose perturbed network the daemon rebuilds from
    /// a network it holds plus the delta.
    RemapKeyed(KeyedRemapRequest),
    /// Snapshot server statistics; answered inline.
    Stats,
    /// Ask the daemon to drain queued work and exit.
    Shutdown,
}

/// A solve order: which solver, against what instance, under which knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveRequest {
    /// Registry solver name, e.g. `"elpc_delay_routed"`.
    pub solver: String,
    /// Cost model the closure and objective are evaluated under.
    pub cost: CostModel,
    /// Closure worker threads for this solve (0 = all CPUs, 1 = serial).
    pub threads: usize,
    /// Optional wall-clock budget measured from enqueue; an expired
    /// request answers [`ServeError::Timeout`] instead of a reply.
    pub timeout_ms: Option<u64>,
    /// The owned problem instance to solve.
    pub instance: ProblemInstance,
}

/// A remap order: a solve plus the assignment it would replace. A client
/// that knows *what* changed can ship the bank key of the pre-change
/// instance plus the exact [`NetworkDelta`]; the server then repairs the
/// banked closure in place ([hit-with-repair]) instead of building the
/// perturbed topology's closure cold.
///
/// [hit-with-repair]: elpc_workloads::ClosureBank::update_in_place
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RemapRequest {
    /// The fresh solve to run against the (possibly changed) topology.
    pub solve: SolveRequest,
    /// The assignment currently deployed.
    pub previous: Vec<NodeId>,
    /// Bank key of the *pre-change* instance (as banked by an earlier
    /// solve), when the client wants an in-place repair.
    pub previous_key: Option<u64>,
    /// The exact perturbation between the banked instance and
    /// `solve.instance`, when the client wants an in-place repair.
    pub delta: Option<NetworkDelta>,
}

/// A [`SolveRequest`] whose network travels by reference: the instance's
/// bank key ([`elpc_workloads::bank::bank_key`]) replaces the network, and
/// the pipeline and endpoints travel as they are.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeyedSolveRequest {
    /// Registry solver name.
    pub solver: String,
    /// Cost model the closure and objective are evaluated under.
    pub cost: CostModel,
    /// Closure worker threads for this solve (0 = all CPUs, 1 = serial).
    pub threads: usize,
    /// Optional wall-clock budget measured from enqueue.
    pub timeout_ms: Option<u64>,
    /// Bank key of the instance: the daemon solves on the network it holds
    /// under this key, after checking that the key is this network's under
    /// `pipeline` and `cost`.
    pub key: u64,
    /// The computing pipeline.
    pub pipeline: Pipeline,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
}

/// A [`RemapRequest`] whose perturbed network travels as a delta against a
/// network the daemon holds. The daemon applies `delta` to the network
/// banked under `previous_key` and checks that the result has bank key
/// `solve.key` before it repairs and solves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeyedRemapRequest {
    /// The fresh solve, keyed by the *perturbed* instance's bank key.
    pub solve: KeyedSolveRequest,
    /// The assignment currently deployed.
    pub previous: Vec<NodeId>,
    /// Bank key of the pre-change instance.
    pub previous_key: u64,
    /// The exact perturbation from the pre-change network to the new one.
    pub delta: NetworkDelta,
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One server→client message: the request's id plus the response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResponseFrame {
    /// The correlation id of the request this answers.
    pub id: u64,
    /// The response itself.
    pub body: Response,
}

/// Every answer the daemon produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Liveness answer to [`Request::Ping`].
    Pong,
    /// A completed solve.
    Solved(SolveReply),
    /// A completed remap.
    Remapped(RemapReply),
    /// A statistics snapshot.
    Stats(StatsReply),
    /// Acknowledgement of [`Request::Shutdown`]; the daemon drains and
    /// exits after answering.
    ShuttingDown,
    /// The request failed; every failure mode is a typed variant.
    Error(ServeError),
}

/// A successful solve, with the serving-side telemetry for this request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveReply {
    /// The solver that ran.
    pub solver: String,
    /// The mapping: pipeline module → network node, length `m`.
    pub assignment: Vec<NodeId>,
    /// Objective value in milliseconds (registry semantics, untouched).
    pub objective_ms: f64,
    /// True when the closure came out of the bank (hit), false when this
    /// request built it cold.
    pub banked: bool,
    /// True when this request waited on another request's closure build
    /// for the same bank key instead of building its own.
    pub coalesced: bool,
    /// Milliseconds spent queued before a worker picked the request up.
    pub queue_ms: f64,
    /// Milliseconds of solver execution (closure wait included).
    pub solve_ms: f64,
    /// The bank key under which the daemon now holds this request's
    /// network, when it does: later requests on the same network may name
    /// it by this key instead of sending it. The daemon keeps a network
    /// once a request checks its key out as a bank hit, so a network's
    /// first, cold solve is not acknowledged.
    pub network_key: Option<u64>,
}

/// A successful remap: the fresh solve plus the movement verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemapReply {
    /// The fresh solve result.
    pub reply: SolveReply,
    /// True when the fresh assignment differs from `previous`.
    pub changed: bool,
    /// True when the request's `previous_key`/`delta` repaired a banked
    /// closure in place (the solve then reports `banked: true`).
    pub repaired: bool,
}

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `q · n` values at or below it (0 when empty). Every latency
/// summary the daemon and the load generator report uses this rule.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Latency summary over completed requests, in milliseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Completed requests the percentiles are over.
    pub count: u64,
    /// Median end-to-end latency.
    pub p50_ms: f64,
    /// 99th-percentile end-to-end latency.
    pub p99_ms: f64,
    /// Worst observed latency.
    pub max_ms: f64,
}

/// A point-in-time snapshot of server counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Solve/remap requests that arrived (admitted + shed).
    pub requests: u64,
    /// Solve/remap requests admitted onto the bounded queue. Once drained,
    /// `accepted == completed + timeouts + errors` exactly.
    pub accepted: u64,
    /// Requests shed at admission with [`ServeError::Overloaded`] because
    /// the queue was full; `requests == accepted + shed` always.
    pub shed: u64,
    /// Requests answered with a successful reply.
    pub completed: u64,
    /// Requests answered with a typed error (timeouts counted separately).
    pub errors: u64,
    /// Requests answered with [`ServeError::Timeout`].
    pub timeouts: u64,
    /// Requests that waited on another request's closure build.
    pub coalesced: u64,
    /// Solve/remap requests currently queued or executing.
    pub queue_depth: u64,
    /// High-water mark of `queue_depth`.
    pub max_queue_depth: u64,
    /// Worker threads in the pool.
    pub workers: u64,
    /// Closure-bank checkouts that hit.
    pub bank_hits: u64,
    /// Closure-bank checkouts that missed (cold builds).
    pub bank_misses: u64,
    /// Closure-bank deposits.
    pub bank_deposits: u64,
    /// Closure-bank in-place repairs (remap hit-with-repair migrations).
    pub bank_repairs: u64,
    /// Solve/remap requests whose network was resolved from a bank key.
    pub keyed: u64,
    /// Keyed requests refused with [`ServeError::UnknownNetwork`]; these
    /// never reach admission, so they are not counted in `requests`.
    pub unknown_keys: u64,
    /// End-to-end latency summary over completed requests.
    pub latency: LatencySummary,
}

/// Typed failure modes a request can be answered with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServeError {
    /// The named solver is not in the registry.
    UnknownSolver {
        /// The name the request asked for.
        name: String,
    },
    /// The solver ran and failed; mirrors [`MappingError`].
    Solve(SolveFailure),
    /// The request's `timeout_ms` budget expired before an answer.
    Timeout {
        /// Milliseconds the request had waited when it was expired.
        waited_ms: u64,
    },
    /// The bounded job queue is full; the request was shed at admission
    /// and never enqueued. Idempotent clients should back off and retry.
    Overloaded {
        /// Server's estimate of when a slot is likely to free up, from the
        /// current queue depth and recent per-request service time.
        retry_after_ms: u64,
    },
    /// A keyed request named a network the daemon cannot produce: nothing
    /// is banked under the key (never deposited, or evicted), or a keyed
    /// remap's delta does not rebuild the network the request's key names.
    /// Answered before admission; the client sends the request inline.
    UnknownNetwork {
        /// The key the daemon could not resolve.
        key: u64,
    },
    /// The request frame decoded but its content is unusable.
    Malformed {
        /// What was wrong.
        detail: String,
    },
    /// The daemon is draining and accepts no new work.
    ShuttingDown,
    /// A worker failed in a way no other variant covers.
    Internal {
        /// Diagnostic detail.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownSolver { name } => write!(f, "unknown solver {name:?}"),
            ServeError::Solve(e) => write!(f, "solve failed: {} ({})", e.message, e.kind.name()),
            ServeError::Timeout { waited_ms } => {
                write!(f, "request timed out after {waited_ms} ms")
            }
            ServeError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded, retry after {retry_after_ms} ms")
            }
            ServeError::UnknownNetwork { key } => {
                write!(f, "no network is banked under key {key:#018x}")
            }
            ServeError::Malformed { detail } => write!(f, "malformed request: {detail}"),
            ServeError::ShuttingDown => f.write_str("server is shutting down"),
            ServeError::Internal { detail } => write!(f, "internal server error: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A solver failure carried over the wire: the typed kind plus the
/// human-readable message the library produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveFailure {
    /// Which [`MappingError`] variant failed the solve.
    pub kind: SolveErrorKind,
    /// The library error's display string.
    pub message: String,
}

impl SolveFailure {
    /// Projects a library error into its wire form.
    pub fn from_mapping(e: &MappingError) -> Self {
        let kind = match e {
            MappingError::Infeasible(_) => SolveErrorKind::Infeasible,
            MappingError::InvalidMapping(_) => SolveErrorKind::InvalidMapping,
            MappingError::Network(_) => SolveErrorKind::Network,
            MappingError::Pipeline(_) => SolveErrorKind::Pipeline,
            MappingError::BadConfig(_) => SolveErrorKind::BadConfig,
            MappingError::BudgetExhausted { budget } => SolveErrorKind::BudgetExhausted {
                budget: *budget as u64,
            },
        };
        SolveFailure {
            kind,
            message: e.to_string(),
        }
    }
}

/// Wire projection of [`MappingError`]'s variants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SolveErrorKind {
    /// No feasible mapping exists.
    Infeasible,
    /// A mapping failed structural validation.
    InvalidMapping,
    /// Underlying network-model error.
    Network,
    /// Underlying pipeline-model error.
    Pipeline,
    /// Invalid solver parameters.
    BadConfig,
    /// Exact search ran out of budget.
    BudgetExhausted {
        /// The exhausted exploration budget.
        budget: u64,
    },
}

impl SolveErrorKind {
    /// Stable lowercase name for logs and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            SolveErrorKind::Infeasible => "infeasible",
            SolveErrorKind::InvalidMapping => "invalid_mapping",
            SolveErrorKind::Network => "network",
            SolveErrorKind::Pipeline => "pipeline",
            SolveErrorKind::BadConfig => "bad_config",
            SolveErrorKind::BudgetExhausted { .. } => "budget_exhausted",
        }
    }
}

// ---------------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------------

/// Encodes a request frame to its JSON payload.
pub fn encode_request(frame: &RequestFrame) -> String {
    serde_json::to_string(frame).expect("request serialization is infallible")
}

/// Decodes a request frame from raw payload bytes.
pub fn decode_request(bytes: &[u8]) -> Result<RequestFrame, FrameError> {
    let text = std::str::from_utf8(bytes).map_err(|_| FrameError::Utf8)?;
    serde_json::from_str(text).map_err(|e| FrameError::Json(e.to_string()))
}

/// Encodes a response frame to its JSON payload.
pub fn encode_response(frame: &ResponseFrame) -> String {
    serde_json::to_string(frame).expect("response serialization is infallible")
}

/// Decodes a response frame from raw payload bytes.
pub fn decode_response(bytes: &[u8]) -> Result<ResponseFrame, FrameError> {
    let text = std::str::from_utf8(bytes).map_err(|_| FrameError::Utf8)?;
    serde_json::from_str(text).map_err(|e| FrameError::Json(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_response(body: Response) {
        let frame = ResponseFrame { id: 7, body };
        let one = encode_response(&frame);
        let back = decode_response(one.as_bytes()).unwrap();
        assert_eq!(back.id, 7);
        assert_eq!(encode_response(&back), one, "re-encode must be identical");
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"world").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"world");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncation_is_distinguished_from_clean_eof() {
        // mid-header
        let mut r: &[u8] = &[0, 0];
        match read_frame(&mut r) {
            Err(FrameError::Truncated {
                expected: 4,
                got: 2,
            }) => {}
            other => panic!("expected header truncation, got {other:?}"),
        }
        // mid-payload
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = &buf[..];
        match read_frame(&mut r) {
            Err(FrameError::Truncated { .. }) => {}
            other => panic!("expected payload truncation, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut buf = (u32::MAX).to_be_bytes().to_vec();
        buf.extend_from_slice(b"junk");
        let mut r = &buf[..];
        match read_frame(&mut r) {
            Err(FrameError::TooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, MAX_FRAME_LEN);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn garbage_payload_decodes_to_typed_errors_not_panics() {
        let mut frame = Vec::new();
        write_frame(&mut frame, &[0xFF, 0xFE, 0x80]).unwrap();
        let mut r = &frame[..];
        let payload = read_frame(&mut r).unwrap().unwrap();
        assert!(matches!(decode_request(&payload), Err(FrameError::Utf8)));
        assert!(matches!(
            decode_request(b"{\"id\": 3"),
            Err(FrameError::Json(_))
        ));
        assert!(matches!(
            decode_request(b"{\"id\": 3, \"body\": \"NoSuchRequest\"}"),
            Err(FrameError::Json(_))
        ));
    }

    #[test]
    fn every_error_variant_reencodes_identically() {
        for err in [
            ServeError::UnknownSolver {
                name: "nope".into(),
            },
            ServeError::Solve(SolveFailure::from_mapping(&MappingError::Infeasible(
                "dst unreachable".into(),
            ))),
            ServeError::Solve(SolveFailure::from_mapping(&MappingError::BudgetExhausted {
                budget: 4096,
            })),
            ServeError::Timeout { waited_ms: 250 },
            ServeError::Overloaded { retry_after_ms: 40 },
            ServeError::UnknownNetwork { key: u64::MAX },
            ServeError::Malformed {
                detail: "empty pipeline".into(),
            },
            ServeError::ShuttingDown,
            ServeError::Internal {
                detail: "worker panicked".into(),
            },
        ] {
            roundtrip_response(Response::Error(err));
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn mapping_errors_project_onto_distinct_kinds() {
        let cases: Vec<(MappingError, &str)> = vec![
            (MappingError::Infeasible("x".into()), "infeasible"),
            (MappingError::InvalidMapping("x".into()), "invalid_mapping"),
            (MappingError::BadConfig("x".into()), "bad_config"),
            (
                MappingError::BudgetExhausted { budget: 9 },
                "budget_exhausted",
            ),
        ];
        for (err, name) in cases {
            let failure = SolveFailure::from_mapping(&err);
            assert_eq!(failure.kind.name(), name);
            assert_eq!(failure.message, err.to_string());
        }
    }
}
