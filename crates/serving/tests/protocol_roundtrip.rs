//! Property tests for the `elpc-serve` wire protocol.
//!
//! Two families:
//!
//! * **round trips** — arbitrary solve/remap requests (inline and keyed)
//!   and every response variant (including each typed error)
//!   encode→decode bit-identically:
//!   decoding and re-encoding reproduces the exact JSON payload, and where
//!   the types carry `PartialEq` the decoded value equals the original;
//! * **hostile input** — arbitrary byte soup, truncated frames, and
//!   corrupt length prefixes must come back as typed [`FrameError`]s,
//!   never a panic.

use elpc_mapping::{CostModel, LinkPerturbation, NetworkDelta, NodeId, NodePerturbation};
use elpc_netgraph::EdgeId;
use elpc_netsim::Link;
use elpc_serving::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    FrameError, KeyedRemapRequest, KeyedSolveRequest, LatencySummary, RemapReply, RemapRequest,
    Request, RequestFrame, Response, ResponseFrame, ServeError, SolveErrorKind, SolveFailure,
    SolveReply, SolveRequest, StatsReply, MAX_FRAME_LEN,
};
use elpc_workloads::{InstanceSpec, ProblemInstance};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Finite (but otherwise wild) f64s: raw bit patterns when they happen to
/// be finite, a scaled fallback otherwise. Covers negatives, subnormals,
/// and huge magnitudes — everything the JSON codec must round-trip exactly.
fn arb_finite_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let f = f64::from_bits(bits);
        if f.is_finite() {
            f
        } else {
            (bits >> 11) as f64 * 1.25e-3
        }
    })
}

/// Strings with JSON-hostile content: quotes, backslashes, control
/// characters, non-ASCII.
fn arb_string() -> impl Strategy<Value = String> {
    const PALETTE: &[char] = &[
        'a', 'Z', '0', '_', ' ', '"', '\\', '\n', '\t', '/', '{', '}', 'é', '→', '𝕊', '\u{0}',
    ];
    prop::collection::vec(0usize..PALETTE.len(), 0..12)
        .prop_map(|idxs| idxs.into_iter().map(|i| PALETTE[i]).collect())
}

fn arb_node() -> impl Strategy<Value = NodeId> {
    any::<u32>().prop_map(|n| NodeId(n % 1024))
}

fn arb_cost() -> impl Strategy<Value = CostModel> {
    any::<bool>().prop_map(|include_mld| CostModel { include_mld })
}

fn arb_instance() -> impl Strategy<Value = ProblemInstance> {
    (2usize..=4, 6usize..=10, any::<u64>()).prop_map(|(m, n, seed)| {
        let links = n + (seed % n as u64) as usize;
        InstanceSpec::sized(m, n, links)
            .generate(seed)
            .expect("sized specs generate")
    })
}

fn arb_solve_request() -> impl Strategy<Value = SolveRequest> {
    (
        arb_string(),
        arb_cost(),
        0usize..=8,
        (any::<bool>(), any::<u64>()),
        arb_instance(),
    )
        .prop_map(
            |(solver, cost, threads, (has_timeout, ms), instance)| SolveRequest {
                solver,
                cost,
                threads,
                timeout_ms: has_timeout.then_some(ms % 1_000_000),
                instance,
            },
        )
}

/// A keyed solve: a solve request's knobs, pipeline and endpoints, with an
/// arbitrary key in place of the network.
fn arb_keyed_solve() -> impl Strategy<Value = KeyedSolveRequest> {
    (arb_solve_request(), any::<u64>()).prop_map(|(s, key)| KeyedSolveRequest {
        solver: s.solver,
        cost: s.cost,
        threads: s.threads,
        timeout_ms: s.timeout_ms,
        key,
        pipeline: s.instance.pipeline,
        src: s.instance.src,
        dst: s.instance.dst,
    })
}

/// Keyed requests, both forms, with perturbation or failure deltas.
fn arb_keyed_request() -> impl Strategy<Value = Request> {
    (
        any::<bool>(),
        arb_keyed_solve(),
        prop::collection::vec(arb_node(), 0..6),
        any::<u64>(),
        (any::<bool>(), arb_delta(), arb_failure_delta()),
    )
        .prop_map(
            |(remap, solve, previous, previous_key, (failed, delta, failures))| {
                if !remap {
                    return Request::SolveKeyed(solve);
                }
                Request::RemapKeyed(KeyedRemapRequest {
                    solve,
                    previous,
                    previous_key,
                    delta: if failed { failures } else { delta },
                })
            },
        )
}

/// Perturbation deltas with wild-but-finite link/power values — the remap
/// repair fields must round-trip exactly like every other payload.
fn arb_delta() -> impl Strategy<Value = NetworkDelta> {
    (
        prop::collection::vec(
            (
                any::<u32>(),
                arb_node(),
                arb_node(),
                arb_finite_f64(),
                arb_finite_f64(),
            ),
            0..3,
        ),
        prop::collection::vec((arb_node(), arb_finite_f64(), arb_finite_f64()), 0..3),
    )
        .prop_map(|(links, nodes)| NetworkDelta {
            links: links
                .into_iter()
                .map(|(e, src, dst, old_bw, new_bw)| LinkPerturbation {
                    edge: EdgeId(e % 64),
                    src,
                    dst,
                    old: Link::new(old_bw.abs().max(1.0), 0.1),
                    new: Link::new(new_bw.abs().max(1.0), 0.2),
                })
                .collect(),
            nodes: nodes
                .into_iter()
                .map(|(node, old_power, new_power)| NodePerturbation {
                    node,
                    old_power,
                    new_power,
                })
                .collect(),
        })
}

/// Deltas of failures: perturbations to the `bw = 0` / `power = 0`
/// sentinels (some cuts also move the MLD) must round-trip exactly like
/// any other perturbation.
fn arb_failure_delta() -> impl Strategy<Value = NetworkDelta> {
    (
        prop::collection::vec(
            (
                any::<u32>(),
                arb_node(),
                arb_node(),
                arb_finite_f64(),
                0.0..2.0f64,
            ),
            0..3,
        ),
        prop::collection::vec((arb_node(), arb_finite_f64()), 0..3),
    )
        .prop_map(|(links, nodes)| NetworkDelta {
            links: links
                .into_iter()
                .map(|(e, src, dst, old_bw, mld_shift)| LinkPerturbation {
                    edge: EdgeId(e % 64),
                    src,
                    dst,
                    old: Link::new(old_bw.abs().max(1.0), 0.1),
                    new: Link::new(0.0, 0.1 + mld_shift),
                })
                .collect(),
            nodes: nodes
                .into_iter()
                .map(|(node, old_power)| NodePerturbation {
                    node,
                    old_power: old_power.abs().max(1.0),
                    new_power: 0.0,
                })
                .collect(),
        })
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        0u8..7,
        (arb_solve_request(), arb_keyed_request()),
        prop::collection::vec(arb_node(), 0..6),
        (any::<bool>(), any::<u64>()),
        ((any::<bool>(), arb_delta()), arb_failure_delta()),
    )
        .prop_map(
            |(sel, (solve, keyed), previous, (has_key, key), ((has_delta, delta), failures))| {
                match sel {
                    0 => Request::Ping,
                    1 => Request::Solve(solve),
                    2 => Request::Remap(RemapRequest {
                        solve,
                        previous,
                        previous_key: has_key.then_some(key),
                        delta: has_delta.then_some(delta),
                    }),
                    3 => Request::Remap(RemapRequest {
                        solve,
                        previous,
                        previous_key: has_key.then_some(key),
                        delta: Some(failures),
                    }),
                    4 => Request::Stats,
                    5 => Request::Shutdown,
                    _ => keyed,
                }
            },
        )
}

fn arb_solve_reply() -> impl Strategy<Value = SolveReply> {
    (
        arb_string(),
        prop::collection::vec(arb_node(), 0..8),
        (arb_finite_f64(), arb_finite_f64(), arb_finite_f64()),
        (any::<bool>(), any::<bool>()),
        (any::<bool>(), any::<u64>()),
    )
        .prop_map(
            |(
                solver,
                assignment,
                (objective_ms, queue_ms, solve_ms),
                (banked, coalesced),
                (acked, key),
            )| SolveReply {
                solver,
                assignment,
                objective_ms,
                banked,
                coalesced,
                queue_ms,
                solve_ms,
                network_key: acked.then_some(key),
            },
        )
}

fn arb_stats_reply() -> impl Strategy<Value = StatsReply> {
    (
        prop::collection::vec(any::<u64>(), 16..17),
        (arb_finite_f64(), arb_finite_f64(), arb_finite_f64()),
        any::<u64>(),
    )
        .prop_map(|(counts, (p50_ms, p99_ms, max_ms), lat_count)| StatsReply {
            requests: counts[0],
            accepted: counts[1],
            shed: counts[2],
            completed: counts[3],
            errors: counts[4],
            timeouts: counts[5],
            coalesced: counts[6],
            queue_depth: counts[7],
            max_queue_depth: counts[8],
            workers: counts[9],
            bank_hits: counts[10],
            bank_misses: counts[11],
            bank_deposits: counts[12],
            bank_repairs: counts[13],
            keyed: counts[14],
            unknown_keys: counts[15],
            latency: LatencySummary {
                count: lat_count,
                p50_ms,
                p99_ms,
                max_ms,
            },
        })
}

/// Every [`ServeError`] variant, every [`SolveErrorKind`] kind.
fn arb_serve_error() -> impl Strategy<Value = ServeError> {
    (0u8..8, arb_string(), any::<u64>(), 0u8..6).prop_map(|(sel, text, num, kind_sel)| {
        let kind = match kind_sel {
            0 => SolveErrorKind::Infeasible,
            1 => SolveErrorKind::InvalidMapping,
            2 => SolveErrorKind::Network,
            3 => SolveErrorKind::Pipeline,
            4 => SolveErrorKind::BadConfig,
            _ => SolveErrorKind::BudgetExhausted { budget: num },
        };
        match sel {
            0 => ServeError::UnknownSolver { name: text },
            1 => ServeError::Solve(SolveFailure {
                kind,
                message: text,
            }),
            2 => ServeError::Timeout { waited_ms: num },
            3 => ServeError::Malformed { detail: text },
            4 => ServeError::ShuttingDown,
            5 => ServeError::Overloaded {
                retry_after_ms: num,
            },
            6 => ServeError::UnknownNetwork { key: num },
            _ => ServeError::Internal { detail: text },
        }
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        0u8..6,
        arb_solve_reply(),
        arb_stats_reply(),
        arb_serve_error(),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(sel, reply, stats, error, (changed, repaired))| match sel {
                0 => Response::Pong,
                1 => Response::Solved(reply),
                2 => Response::Remapped(RemapReply {
                    reply,
                    changed,
                    repaired,
                }),
                3 => Response::Stats(stats),
                4 => Response::ShuttingDown,
                _ => Response::Error(error),
            },
        )
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Requests (which carry a whole `ProblemInstance` and thus have no
    /// `PartialEq`) round-trip bit-identically at the JSON level: decoding
    /// and re-encoding reproduces the exact payload string.
    #[test]
    fn requests_reencode_bit_identically(id in any::<u64>(), body in arb_request()) {
        let frame = RequestFrame { id, body };
        let json = encode_request(&frame);
        let decoded = decode_request(json.as_bytes()).expect("own encoding decodes");
        prop_assert_eq!(decoded.id, id);
        prop_assert_eq!(encode_request(&decoded), json);
    }

    /// Keyed requests carry no network, so they compare by value: they
    /// round-trip to equal requests AND identical bytes.
    #[test]
    fn keyed_requests_roundtrip_exactly(id in any::<u64>(), body in arb_keyed_request()) {
        let json = encode_request(&RequestFrame { id, body: body.clone() });
        let decoded = decode_request(json.as_bytes()).expect("own encoding decodes");
        prop_assert_eq!(decoded.id, id);
        match (&decoded.body, &body) {
            (Request::SolveKeyed(a), Request::SolveKeyed(b)) => prop_assert_eq!(a, b),
            (Request::RemapKeyed(a), Request::RemapKeyed(b)) => prop_assert_eq!(a, b),
            (got, _) => panic!("a keyed request decoded as {got:?}"),
        }
        prop_assert_eq!(encode_request(&decoded), json);
    }

    /// Responses round-trip to equal values AND identical bytes.
    #[test]
    fn responses_roundtrip_exactly(id in any::<u64>(), body in arb_response()) {
        let frame = ResponseFrame { id, body };
        let json = encode_response(&frame);
        let decoded = decode_response(json.as_bytes()).expect("own encoding decodes");
        prop_assert_eq!(decoded.id, frame.id);
        prop_assert_eq!(&decoded.body, &frame.body);
        prop_assert_eq!(encode_response(&decoded), json);
    }

    /// A full frame survives the wire layer too: write_frame → read_frame
    /// hands back the exact payload bytes.
    #[test]
    fn framing_preserves_payload_bytes(id in any::<u64>(), body in arb_request()) {
        let json = encode_request(&RequestFrame { id, body });
        let mut wire = Vec::new();
        write_frame(&mut wire, json.as_bytes()).expect("vec write");
        let mut r = &wire[..];
        let payload = read_frame(&mut r).expect("framed").expect("one frame");
        prop_assert_eq!(payload, json.into_bytes());
        prop_assert!(read_frame(&mut r).expect("clean tail").is_none());
    }
}

// ---------------------------------------------------------------------------
// Hostile input
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup through the frame reader: typed error or a
    /// (possibly nonsensical) frame, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic_the_frame_reader(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut r = &bytes[..];
        match read_frame(&mut r) {
            Ok(_) => {}
            Err(FrameError::Truncated { expected, got }) => prop_assert!(got < expected),
            Err(FrameError::TooLarge { len, max }) => {
                prop_assert!(len > max);
                prop_assert_eq!(max, MAX_FRAME_LEN);
            }
            Err(e) => panic!("unexpected frame error from a byte slice: {e}"),
        }
    }

    /// Arbitrary byte soup through the JSON decoders: typed error, never a
    /// panic. (A random payload passing JSON + shape validation is
    /// astronomically unlikely; any error variant is acceptable.)
    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
    }

    /// Truncating a valid frame at any interior point yields `Truncated`
    /// with honest byte counts; truncating to zero bytes is a clean EOF.
    #[test]
    fn truncated_frames_are_rejected_with_typed_errors(
        id in any::<u64>(),
        body in arb_request(),
        cut_sel in any::<u64>(),
    ) {
        let json = encode_request(&RequestFrame { id, body });
        let mut wire = Vec::new();
        write_frame(&mut wire, json.as_bytes()).expect("vec write");
        let cut = (cut_sel % wire.len() as u64) as usize; // 0..wire.len()-1: always truncating
        let mut r = &wire[..cut];
        if cut == 0 {
            prop_assert!(read_frame(&mut r).expect("clean EOF").is_none());
        } else {
            match read_frame(&mut r) {
                Err(FrameError::Truncated { expected, got }) => {
                    prop_assert!(got < expected);
                    prop_assert_eq!(got, cut);
                }
                other => panic!("expected Truncated at cut {cut}, got {other:?}"),
            }
        }
    }

    /// Corrupting the length prefix of a valid frame never panics: the
    /// reader answers TooLarge, Truncated, or (for a shorter-but-valid
    /// prefix) a reinterpreted frame — and in that last case the decoder
    /// still only returns typed errors.
    #[test]
    fn corrupt_length_prefixes_stay_typed(
        id in any::<u64>(),
        body in arb_request(),
        prefix in any::<u32>(),
    ) {
        let json = encode_request(&RequestFrame { id, body });
        let mut wire = Vec::new();
        write_frame(&mut wire, json.as_bytes()).expect("vec write");
        wire[..4].copy_from_slice(&prefix.to_be_bytes());
        let mut r = &wire[..];
        match read_frame(&mut r) {
            Ok(Some(payload)) => {
                let _ = decode_request(&payload); // typed result either way
            }
            Ok(None) => panic!("non-empty wire cannot be a clean EOF"),
            Err(FrameError::TooLarge { len, .. }) => {
                prop_assert!(len > MAX_FRAME_LEN);
            }
            Err(FrameError::Truncated { expected, got }) => {
                // counts include the 4 header bytes already consumed
                prop_assert_eq!(expected, prefix as usize + 4);
                prop_assert_eq!(got, json.len() + 4);
            }
            Err(e) => panic!("unexpected error for corrupt prefix: {e}"),
        }
    }
}

/// Non-property pin: the `u32::MAX` prefix (the classic fuzzer find) is
/// rejected before any allocation happens.
#[test]
fn max_prefix_is_rejected_cheaply() {
    let mut wire = u32::MAX.to_be_bytes().to_vec();
    wire.push(0);
    let mut r = &wire[..];
    assert!(matches!(
        read_frame(&mut r),
        Err(FrameError::TooLarge { .. })
    ));
}
