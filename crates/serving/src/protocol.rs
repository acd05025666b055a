//! The `elpc-serve` wire protocol: framing and request/response types.
//!
//! Every message is a **frame**: a 4-byte big-endian payload length
//! followed by that many payload bytes. Frames larger than
//! [`MAX_FRAME_LEN`] are rejected before allocation so a corrupt length
//! prefix cannot make the server balloon. A payload carries an externally
//! tagged [`RequestFrame`] / [`ResponseFrame`] — a correlation `id` chosen
//! by the client plus the body — so a client may pipeline requests on one
//! connection and match responses out of order.
//!
//! Responses, and requests that carry no network, are UTF-8 JSON. A
//! request that carries its network inline ([`Request::Solve`], and
//! [`Request::Remap`] through `solve.instance.network`) is a JSON header
//! (the request without its network), a NUL byte, and the network as a
//! flat little-endian **binary section**: node powers and optional
//! strings, then every directed edge in id order as `(u32, u32, f64,
//! f64)`, then the link count. JSON escapes control characters, so the
//! first NUL always ends the header. Adjacency never travels: the decoder
//! rebuilds it with [`Network::from_parts`], so edge ids, out-lists and
//! the fingerprint (hence bank keys and every DP tie-break) equal the
//! sender's. A 200-node request is about a quarter the size of its JSON
//! form and decodes ~25× faster (`BENCH_codec.json`).
//!
//! Decoding is total: malformed or truncated frames surface as a typed
//! [`FrameError`], never a panic, and a clean EOF *between* frames is
//! distinguished from a connection dying *mid*-frame. [`read_frame`] is
//! the one frame reader, for both ends: it blocks until a frame or EOF
//! arrives, and a socket read timeout comes back as [`FrameError::Io`].
//! The daemon ends a reader by shutting the read half of its socket,
//! which reads as EOF once the bytes already sent are read.
//!
//! A network section is checked as it is read ([`BodyError`]): every
//! count against the bytes left before anything is allocated for it,
//! every endpoint against the node count, every parameter against
//! [`Network::validate`]'s rules. Connectivity is not checked, so a
//! disconnected network still reaches the solvers and is answered as
//! infeasible. The round-trip property tests in
//! `crates/serving/tests/protocol_roundtrip.rs` pin encode→decode
//! bit-identity for every request and response variant, including every
//! typed error and every bit of an inline network.
//!
//! A network the daemon already holds travels **by key**: once a reply's
//! [`SolveReply::network_key`] acknowledges that the daemon banked a
//! request's network, the client may send [`Request::SolveKeyed`] /
//! [`Request::RemapKeyed`], which carry the bank key instead of the
//! network. A key the daemon cannot resolve is refused with
//! [`ServeError::UnknownNetwork`] before admission, and the client sends
//! the request again inline.
//!
//! [`StatsReply::latency`] comes from the daemon's bounded log-linear
//! latency histogram (relative precision 2⁻⁷; see [`LatencySummary`]).

use elpc_mapping::{CostModel, MappingError, NetworkDelta};
use elpc_netgraph::NodeId;
use elpc_netsim::{Link, Network, NetworkError, Node};
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
    /// A request's header decoded but its binary network section did not.
    Body {
        /// The request's id, so the refusal can reach its caller.
        id: u64,
        /// What is wrong with the section.
        error: BodyError,
    },
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
            FrameError::Body { id, error } => {
                write!(f, "network section of request {id}: {error}")
            }
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

/// Reads one frame.
///
/// Returns `Ok(None)` on a clean EOF before the first header byte; an EOF
/// anywhere later is [`FrameError::Truncated`]. A read timeout armed on
/// the underlying socket surfaces as [`FrameError::Io`] (`WouldBlock` or
/// `TimedOut`), whether or not part of the frame had arrived.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    if !fill(r, &mut header, 0)? {
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
    fill(r, &mut payload, 4)?;
    Ok(Some(payload))
}

/// Fills `buf` completely. Returns `Ok(false)` when the stream ended
/// before *any* byte of the whole frame arrived — `prior` counts frame
/// bytes already consumed by earlier fills, so a partial header or payload
/// is reported as truncation instead.
fn fill<R: Read>(r: &mut R, buf: &mut [u8], prior: usize) -> Result<bool, FrameError> {
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
    /// The daemon caps it at its own CPU count; answers are bit-identical
    /// at any thread count, so the cap changes none.
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
    /// The daemon caps it at its own CPU count; answers are bit-identical
    /// at any thread count, so the cap changes none.
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

/// Latency summary over completed requests, in milliseconds, timed from
/// admission onto the queue to a ready reply (decode and write excluded).
/// A percentile is the upper edge of its nearest-rank histogram bucket:
/// at most 2⁻⁷ above the exact value, never below it or above `max_ms`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Completed requests the percentiles are over.
    pub count: u64,
    /// Median admission-to-reply latency.
    pub p50_ms: f64,
    /// 99th-percentile admission-to-reply latency.
    pub p99_ms: f64,
    /// Worst admission-to-reply latency, exact.
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
    /// Admission-to-reply latency summary over completed requests
    /// (`latency.count == completed`).
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
// Request codec: a JSON header plus a binary network section
// ---------------------------------------------------------------------------

/// An encoded request payload, ready for [`write_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestBytes(Vec<u8>);

impl RequestBytes {
    /// The payload bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for an empty payload (never produced by [`encode_request`]).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The payload bytes, by value.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }
}

/// Why a request's binary network section could not be decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum BodyError {
    /// The header names an inline network but the frame has no section.
    MissingNetwork,
    /// The frame has a section but the header carries no inline network.
    UnexpectedNetwork,
    /// A count or length promises more bytes than the section has left;
    /// checked before anything is allocated for the records.
    Overrun {
        /// Bytes the count or length needs.
        needed: usize,
        /// Bytes left in the section.
        remaining: usize,
    },
    /// A string presence byte other than 0 (absent) or 1 (present).
    Presence(u8),
    /// A node string is not valid UTF-8.
    Utf8,
    /// Bytes remain after the network.
    Trailing {
        /// How many.
        bytes: usize,
    },
    /// The parts do not make a network: an endpoint names no node, an edge
    /// is a self-loop, or a parameter breaks [`Network::validate`]'s rules.
    Network(NetworkError),
}

impl std::fmt::Display for BodyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BodyError::MissingNetwork => f.write_str("the request's network section is missing"),
            BodyError::UnexpectedNetwork => {
                f.write_str("the frame has a network section the request does not carry")
            }
            BodyError::Overrun { needed, remaining } => {
                write!(f, "needs {needed} bytes, {remaining} remain")
            }
            BodyError::Presence(b) => write!(f, "string presence byte {b} is not 0 or 1"),
            BodyError::Utf8 => f.write_str("a node string is not valid UTF-8"),
            BodyError::Trailing { bytes } => write!(f, "{bytes} trailing bytes"),
            BodyError::Network(e) => e.fmt(f),
        }
    }
}

/// Separates the JSON header from the network section. JSON text never
/// contains a raw NUL (control characters in strings are escaped), so the
/// first NUL of a payload ends its header.
const SECTION_MARK: u8 = 0;

/// Smallest encoded node: its power plus two absent strings.
const MIN_NODE_BYTES: usize = 8 + 1 + 1;
/// An encoded directed edge: `(u32 src, u32 dst, f64 bw_mbps, f64 mld_ms)`.
const EDGE_BYTES: usize = 4 + 4 + 8 + 8;

/// A [`ProblemInstance`] without its network, which travels in the frame's
/// binary section.
#[derive(Serialize, Deserialize)]
struct InstanceHeader {
    pipeline: Pipeline,
    src: NodeId,
    dst: NodeId,
    label: String,
}

/// A [`SolveRequest`] whose instance travels as an [`InstanceHeader`].
#[derive(Serialize, Deserialize)]
struct SolveHeader {
    solver: String,
    cost: CostModel,
    threads: usize,
    timeout_ms: Option<u64>,
    instance: InstanceHeader,
}

impl SolveHeader {
    fn of(s: &SolveRequest) -> Self {
        let i = &s.instance;
        SolveHeader {
            solver: s.solver.clone(),
            cost: s.cost,
            threads: s.threads,
            timeout_ms: s.timeout_ms,
            instance: InstanceHeader {
                pipeline: i.pipeline.clone(),
                src: i.src,
                dst: i.dst,
                label: i.label.clone(),
            },
        }
    }

    fn with_network(self, network: Network) -> SolveRequest {
        let i = self.instance;
        SolveRequest {
            solver: self.solver,
            cost: self.cost,
            threads: self.threads,
            timeout_ms: self.timeout_ms,
            instance: ProblemInstance {
                network,
                pipeline: i.pipeline,
                src: i.src,
                dst: i.dst,
                label: i.label,
            },
        }
    }
}

/// A [`RemapRequest`] whose instance travels as an [`InstanceHeader`].
#[derive(Serialize, Deserialize)]
struct RemapHeader {
    solve: SolveHeader,
    previous: Vec<NodeId>,
    previous_key: Option<u64>,
    delta: Option<NetworkDelta>,
}

/// [`Request`] with every inline network lifted out of the JSON.
#[derive(Serialize, Deserialize)]
enum BodyHeader {
    Ping,
    Solve(SolveHeader),
    Remap(RemapHeader),
    SolveKeyed(KeyedSolveRequest),
    RemapKeyed(KeyedRemapRequest),
    Stats,
    Shutdown,
}

/// The JSON header of a request frame.
#[derive(Serialize, Deserialize)]
struct FrameHeader {
    id: u64,
    body: BodyHeader,
}

/// Encodes a request frame: its JSON header, then, when the request carries
/// a network inline, a NUL and the network's binary section.
pub fn encode_request(frame: &RequestFrame) -> RequestBytes {
    let (body, network) = match &frame.body {
        Request::Ping => (BodyHeader::Ping, None),
        Request::Solve(s) => (
            BodyHeader::Solve(SolveHeader::of(s)),
            Some(&s.instance.network),
        ),
        Request::Remap(r) => (
            BodyHeader::Remap(RemapHeader {
                solve: SolveHeader::of(&r.solve),
                previous: r.previous.clone(),
                previous_key: r.previous_key,
                delta: r.delta.clone(),
            }),
            Some(&r.solve.instance.network),
        ),
        Request::SolveKeyed(k) => (BodyHeader::SolveKeyed(k.clone()), None),
        Request::RemapKeyed(k) => (BodyHeader::RemapKeyed(k.clone()), None),
        Request::Stats => (BodyHeader::Stats, None),
        Request::Shutdown => (BodyHeader::Shutdown, None),
    };
    let header = FrameHeader { id: frame.id, body };
    let mut out = serde_json::to_string(&header)
        .expect("request serialization is infallible")
        .into_bytes();
    if let Some(net) = network {
        out.push(SECTION_MARK);
        encode_network(net, &mut out);
    }
    RequestBytes(out)
}

/// Decodes a request frame from raw payload bytes.
pub fn decode_request(bytes: &[u8]) -> Result<RequestFrame, FrameError> {
    let (header, section) = match bytes.iter().position(|&b| b == SECTION_MARK) {
        Some(at) => (&bytes[..at], Some(&bytes[at + 1..])),
        None => (bytes, None),
    };
    let text = std::str::from_utf8(header).map_err(|_| FrameError::Utf8)?;
    let header: FrameHeader =
        serde_json::from_str(text).map_err(|e| FrameError::Json(e.to_string()))?;
    let id = header.id;
    let body =
        join_network(header.body, section).map_err(|error| FrameError::Body { id, error })?;
    Ok(RequestFrame { id, body })
}

/// Gives a decoded header body the network its frame's section carries.
fn join_network(body: BodyHeader, section: Option<&[u8]>) -> Result<Request, BodyError> {
    let mut network = section.map(decode_network).transpose()?;
    let mut inline = || network.take().ok_or(BodyError::MissingNetwork);
    let body = match body {
        BodyHeader::Ping => Request::Ping,
        BodyHeader::Solve(s) => Request::Solve(s.with_network(inline()?)),
        BodyHeader::Remap(r) => Request::Remap(RemapRequest {
            solve: r.solve.with_network(inline()?),
            previous: r.previous,
            previous_key: r.previous_key,
            delta: r.delta,
        }),
        BodyHeader::SolveKeyed(k) => Request::SolveKeyed(k),
        BodyHeader::RemapKeyed(k) => Request::RemapKeyed(k),
        BodyHeader::Stats => Request::Stats,
        BodyHeader::Shutdown => Request::Shutdown,
    };
    if network.is_some() {
        return Err(BodyError::UnexpectedNetwork);
    }
    Ok(body)
}

/// Appends `net`'s binary section (all little-endian): the node count, each
/// node's power (f64 bits) and optional `ip` and `name`; the directed-edge
/// count and each edge in id order as `(u32 src, u32 dst, f64 bw_mbps,
/// f64 mld_ms)`; then the undirected link count as a u64. An optional
/// string is a presence byte, then a u32 length and the UTF-8 bytes.
///
/// Directed edges travel rather than links because the two directions of
/// a link may differ ([`Network::link_mut`]); adjacency does not travel at
/// all, since [`Network::from_parts`] derives it from the edge order.
fn encode_network(net: &Network, out: &mut Vec<u8>) {
    let g = net.graph();
    // node strings, when present, grow the buffer past this
    out.reserve(4 + MIN_NODE_BYTES * g.node_count() + 4 + EDGE_BYTES * g.edge_count() + 8);
    put_count(out, g.node_count());
    for (_, n) in g.nodes() {
        out.extend_from_slice(&n.power.to_bits().to_le_bytes());
        for s in [&n.ip, &n.name] {
            match s {
                None => out.push(0),
                Some(s) => {
                    out.push(1);
                    put_count(out, s.len());
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
    }
    put_count(out, g.edge_count());
    for (_, e) in g.edges() {
        out.extend_from_slice(&e.src.0.to_le_bytes());
        out.extend_from_slice(&e.dst.0.to_le_bytes());
        out.extend_from_slice(&e.payload.bw_mbps.to_bits().to_le_bytes());
        out.extend_from_slice(&e.payload.mld_ms.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&(net.link_count() as u64).to_le_bytes());
}

fn put_count(out: &mut Vec<u8>, n: usize) {
    let n = u32::try_from(n).expect("node, edge and string counts fit in u32");
    out.extend_from_slice(&n.to_le_bytes());
}

/// Rebuilds a network from its binary section (see [`encode_network`]).
fn decode_network(section: &[u8]) -> Result<Network, BodyError> {
    let mut r = Reader(section);
    let nodes = r.count(MIN_NODE_BYTES)?;
    let mut parts = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        parts.push(Node {
            power: r.f64()?,
            ip: r.string()?,
            name: r.string()?,
        });
    }
    let edges = r.count(EDGE_BYTES)?;
    let edges = r
        .take(edges * EDGE_BYTES)?
        .chunks_exact(EDGE_BYTES)
        .map(|e| {
            let word = |at: usize| u32::from_le_bytes(e[at..at + 4].try_into().expect("4 bytes"));
            let float = |at: usize| {
                f64::from_bits(u64::from_le_bytes(
                    e[at..at + 8].try_into().expect("8 bytes"),
                ))
            };
            (
                NodeId(word(0)),
                NodeId(word(4)),
                Link::new(float(8), float(16)),
            )
        });
    let links = r.u64()?;
    if !r.0.is_empty() {
        return Err(BodyError::Trailing { bytes: r.0.len() });
    }
    // `links` only feeds `Network::link_count`; it cannot exceed usize on
    // the 64-bit targets this daemon serves on.
    let links = usize::try_from(links).unwrap_or(usize::MAX);
    Network::from_parts(parts, edges, links).map_err(BodyError::Network)
}

/// A cursor over a network section; every read checks the bytes left.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], BodyError> {
        if n > self.0.len() {
            return Err(BodyError::Overrun {
                needed: n,
                remaining: self.0.len(),
            });
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, BodyError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, BodyError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, BodyError> {
        self.u64().map(f64::from_bits)
    }

    /// A record count, refused when even records of `min_bytes` each would
    /// overrun the bytes left, so no allocation sized by it can exceed the
    /// section.
    fn count(&mut self, min_bytes: usize) -> Result<usize, BodyError> {
        let n = self.u32()? as usize;
        let needed = n.saturating_mul(min_bytes);
        if needed > self.0.len() {
            return Err(BodyError::Overrun {
                needed,
                remaining: self.0.len(),
            });
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<Option<String>, BodyError> {
        match self.take(1)?[0] {
            0 => Ok(None),
            1 => {
                let len = self.u32()? as usize;
                let raw = self.take(len)?;
                let s = std::str::from_utf8(raw).map_err(|_| BodyError::Utf8)?;
                Ok(Some(s.to_owned()))
            }
            b => Err(BodyError::Presence(b)),
        }
    }
}

// ---------------------------------------------------------------------------
// Response codec (JSON)
// ---------------------------------------------------------------------------

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

    /// A read timeout on the socket ends the read with an I/O error
    /// instead of being retried, so a caller's deadline can fire.
    #[test]
    fn a_socket_read_timeout_ends_the_read() {
        let (mut a, _b) = std::os::unix::net::UnixStream::pair().unwrap();
        a.set_read_timeout(Some(std::time::Duration::from_millis(50)))
            .unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(read_frame(&mut a));
        });
        match rx.recv_timeout(std::time::Duration::from_secs(2)) {
            Ok(Err(FrameError::Io(e)))
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Ok(other) => panic!("expected a timed-out read, got {other:?}"),
            Err(_) => panic!("read_frame ignored the socket's 50 ms read timeout"),
        }
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
