//! Property tests for the `elpc-serve` wire protocol.
//!
//! Two families:
//!
//! * **round trips** — arbitrary solve/remap requests (inline and keyed)
//!   and every response variant (including each typed error)
//!   encode→decode bit-identically:
//!   decoding and re-encoding reproduces the exact payload bytes, and where
//!   the types carry `PartialEq` the decoded value equals the original;
//! * **hostile input** — arbitrary byte soup, truncated frames, and
//!   corrupt length prefixes must come back as typed [`FrameError`]s,
//!   never a panic.
//!
//! A third family pins the binary network section of inline requests: every
//! node and edge bit pattern, the out-lists, the link count, the node
//! strings and the fingerprint survive a round trip, and hand-written
//! hostile sections (huge counts, bad parameters, dangling endpoints,
//! truncation, byte flips) come back as typed [`BodyError`]s.

use elpc_mapping::{CostModel, LinkPerturbation, NetworkDelta, NodeId, NodePerturbation};
use elpc_netgraph::EdgeId;
use elpc_netgraph::GraphError;
use elpc_netsim::{Link, Network, NetworkError};
use elpc_serving::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    BodyError, FrameError, KeyedRemapRequest, KeyedSolveRequest, LatencySummary, RemapReply,
    RemapRequest, Request, RequestFrame, Response, ResponseFrame, ServeError, SolveErrorKind,
    SolveFailure, SolveReply, SolveRequest, StatsReply, MAX_FRAME_LEN,
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
        prop::collection::vec(any::<u64>(), 17..18),
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
            bank_tree_bytes: counts[16],
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

// ---------------------------------------------------------------------------
// Binary network sections
// ---------------------------------------------------------------------------

/// Instances whose networks stress the binary section: generated, then
/// perturbed in one direction only through `link_mut`, failed through the
/// sentinels, given `-0.0` and subnormal parameters, and labelled with
/// JSON-hostile node strings.
fn arb_edited_instance() -> impl Strategy<Value = ProblemInstance> {
    (
        arb_instance(),
        prop::collection::vec((any::<u32>(), 0u8..7, arb_finite_f64()), 0..10),
        prop::collection::vec((any::<u32>(), arb_string(), any::<bool>()), 0..4),
    )
        .prop_map(|(mut inst, edits, labels)| {
            let net = &mut inst.network;
            let n = net.node_count() as u32;
            let e = net.graph().edge_count() as u32;
            for (at, op, x) in edits {
                let (node, edge) = (NodeId(at % n), EdgeId(at % e));
                match op {
                    0 => net.link_mut(edge).unwrap().bw_mbps = x.abs(),
                    1 => net.link_mut(edge).unwrap().mld_ms = -0.0,
                    2 => net.node_mut(node).unwrap().power = f64::from_bits(1 + u64::from(at)),
                    3 => net.link_mut(edge).unwrap().bw_mbps = f64::MIN_POSITIVE / 2.0,
                    4 => {
                        net.fail_link_symmetric(edge).unwrap();
                    }
                    5 => {
                        net.fail_node(node).unwrap();
                    }
                    _ => net.node_mut(node).unwrap().power = -0.0,
                }
            }
            for (at, text, as_ip) in labels {
                let node = net.node_mut(NodeId(at % n)).unwrap();
                if as_ip {
                    node.ip = Some(text);
                } else {
                    node.name = Some(text);
                }
            }
            inst
        })
}

fn inline_solve(instance: ProblemInstance) -> SolveRequest {
    SolveRequest {
        solver: "elpc_delay_routed".into(),
        cost: CostModel::default(),
        threads: 1,
        timeout_ms: Some(250),
        instance,
    }
}

/// The network an inline request carries.
fn inline_network(body: &Request) -> &Network {
    match body {
        Request::Solve(s) => &s.instance.network,
        Request::Remap(r) => &r.solve.instance.network,
        other => panic!("{other:?} carries no network"),
    }
}

/// Every bit the solvers, the bank key and the reports read.
fn assert_same_network(got: &Network, want: &Network) {
    let (g, w) = (got.graph(), want.graph());
    assert_eq!(g.node_count(), w.node_count());
    for ((_, a), (_, b)) in g.nodes().zip(w.nodes()) {
        assert_eq!(a.power.to_bits(), b.power.to_bits());
        assert_eq!((&a.ip, &a.name), (&b.ip, &b.name));
    }
    assert_eq!(g.edge_count(), w.edge_count());
    for ((_, a), (_, b)) in g.edges().zip(w.edges()) {
        assert_eq!((a.src, a.dst), (b.src, b.dst));
        assert_eq!(a.payload.bw_mbps.to_bits(), b.payload.bw_mbps.to_bits());
        assert_eq!(a.payload.mld_ms.to_bits(), b.payload.mld_ms.to_bits());
    }
    for v in w.node_ids() {
        assert!(g.neighbors(v).eq(w.neighbors(v)), "out-list of {v}");
    }
    assert_eq!(got.link_count(), want.link_count());
    assert_eq!(got.fingerprint(), want.fingerprint());
}

/// Splits an inline payload into its JSON header and its network section.
fn split_section(payload: &[u8]) -> (&[u8], &[u8]) {
    let at = payload
        .iter()
        .position(|&b| b == 0)
        .expect("inline payload");
    (&payload[..at], &payload[at + 1..])
}

/// A valid inline `Solve` header followed by `section`.
fn with_section(section: &[u8]) -> Vec<u8> {
    let inst = InstanceSpec::sized(3, 6, 8).generate(5).expect("gen");
    let payload = encode_request(&RequestFrame {
        id: 9,
        body: Request::Solve(inline_solve(inst)),
    });
    let (header, _) = split_section(payload.as_bytes());
    [header, &[0], section].concat()
}

/// A network section written field by field in the documented layout,
/// with no node strings.
fn section(powers: &[f64], edges: &[(u32, u32, f64, f64)], links: u64) -> Vec<u8> {
    let mut b = (powers.len() as u32).to_le_bytes().to_vec();
    for p in powers {
        b.extend(p.to_bits().to_le_bytes());
        b.extend([0, 0]); // no ip, no name
    }
    b.extend((edges.len() as u32).to_le_bytes());
    for &(src, dst, bw, mld) in edges {
        b.extend(src.to_le_bytes());
        b.extend(dst.to_le_bytes());
        b.extend(bw.to_bits().to_le_bytes());
        b.extend(mld.to_bits().to_le_bytes());
    }
    b.extend(links.to_le_bytes());
    b
}

/// Two nodes, one healthy link.
fn pair_section() -> Vec<u8> {
    section(&[2.0, 3.0], &[(0, 1, 10.0, 0.5), (1, 0, 10.0, 0.5)], 1)
}

fn body_error(payload: &[u8]) -> BodyError {
    match decode_request(payload) {
        Err(FrameError::Body { error, .. }) => error,
        other => panic!("expected a network-section error, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Solve and Remap frames carry their network bit for bit.
    #[test]
    fn inline_networks_roundtrip_bit_for_bit(
        id in any::<u64>(),
        inst in arb_edited_instance(),
        remap in any::<bool>(),
    ) {
        let want = inst.network.clone();
        let solve = inline_solve(inst);
        let body = if remap {
            Request::Remap(RemapRequest {
                solve,
                previous: vec![NodeId(0)],
                previous_key: Some(id),
                delta: None,
            })
        } else {
            Request::Solve(solve)
        };
        let payload = encode_request(&RequestFrame { id, body });
        let decoded = decode_request(payload.as_bytes()).expect("own encoding decodes");
        prop_assert_eq!(decoded.id, id);
        assert_same_network(inline_network(&decoded.body), &want);
        prop_assert_eq!(encode_request(&decoded), payload);
    }

    /// Cutting an inline payload anywhere is a typed error; a cut inside the
    /// network section is an overrun.
    #[test]
    fn truncated_sections_are_typed_overruns(inst in arb_edited_instance(), cut in any::<u64>()) {
        let payload = encode_request(&RequestFrame { id: 1, body: Request::Solve(inline_solve(inst)) });
        let bytes = payload.as_bytes();
        let header = split_section(bytes).0.len();
        let cut = (cut % bytes.len() as u64) as usize;
        match decode_request(&bytes[..cut]) {
            Err(FrameError::Body { id, error: BodyError::Overrun { needed, remaining } }) => {
                prop_assert_eq!(id, 1);
                prop_assert!(cut > header);
                prop_assert!(needed > remaining);
            }
            Err(FrameError::Body { error: BodyError::MissingNetwork, .. }) => {
                prop_assert_eq!(cut, header)
            }
            Err(FrameError::Json(_)) => prop_assert!(cut < header),
            other => panic!("cut at {cut} of {} decoded as {other:?}", bytes.len()),
        }
    }

    /// Flipping any byte of a section gives a typed error or a network that
    /// re-encodes to exactly the flipped bytes: nothing is read loosely.
    #[test]
    fn flipped_section_bytes_decode_faithfully_or_not_at_all(
        inst in arb_edited_instance(),
        at in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let payload = encode_request(&RequestFrame { id: 2, body: Request::Solve(inline_solve(inst)) });
        let mut bytes = payload.into_bytes();
        let header = split_section(&bytes).0.len();
        let at = header + 1 + (at % (bytes.len() - header - 1) as u64) as usize;
        bytes[at] ^= xor;
        match decode_request(&bytes) {
            Ok(frame) => prop_assert_eq!(encode_request(&frame).into_bytes(), bytes),
            Err(FrameError::Body { .. }) => {}
            Err(e) => panic!("a flipped section byte gave {e}"),
        }
    }

    /// Arbitrary bytes as a section: typed error or a faithful network.
    #[test]
    fn arbitrary_sections_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..160)) {
        let payload = with_section(&bytes);
        match decode_request(&payload) {
            Ok(frame) => prop_assert_eq!(encode_request(&frame).into_bytes(), payload),
            Err(FrameError::Body { .. }) => {}
            Err(e) => panic!("an arbitrary section gave {e}"),
        }
    }
}

#[test]
fn the_section_layout_is_the_documented_one() {
    let mut b = Network::builder();
    let a = b.add_node(2.0).unwrap();
    let c = b.add_node(3.0).unwrap();
    b.add_link(a, c, 10.0, 0.5).unwrap();
    let mut net = b.build().unwrap();
    let inst = ProblemInstance {
        network: net.clone(),
        ..InstanceSpec::sized(3, 6, 8).generate(5).expect("gen")
    };
    let payload = encode_request(&RequestFrame {
        id: 9,
        body: Request::Solve(inline_solve(inst.clone())),
    });
    assert_eq!(payload.as_bytes(), with_section(&pair_section()));
    // a node string is a presence byte, a u32 length and the UTF-8 bytes
    net.node_mut(NodeId(1)).unwrap().name = Some("é\"".into());
    let payload = encode_request(&RequestFrame {
        id: 9,
        body: Request::Solve(inline_solve(ProblemInstance {
            network: net,
            ..inst
        })),
    });
    let mut want = pair_section();
    want.splice(
        4 + 10 + 8 + 1..4 + 10 + 8 + 2,
        [1, 3, 0, 0, 0, 0xC3, 0xA9, b'"'],
    );
    assert_eq!(split_section(payload.as_bytes()).1, &want[..]);
}

#[test]
fn huge_counts_are_refused_before_allocation() {
    let node_count = [u32::MAX.to_le_bytes().as_slice(), &[0; 12]].concat();
    assert!(matches!(
        body_error(&with_section(&node_count)),
        BodyError::Overrun { needed, remaining: 12 } if needed == u32::MAX as usize * 10
    ));
    let mut edge_count = section(&[1.0], &[], 0);
    edge_count[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        body_error(&with_section(&edge_count)),
        BodyError::Overrun { needed, remaining: 8 } if needed == u32::MAX as usize * 24
    ));
    let mut string_len = section(&[1.0], &[], 0);
    string_len.splice(12..13, [1, 0xFF, 0xFF, 0xFF, 0xFF]);
    assert!(matches!(
        body_error(&with_section(&string_len)),
        BodyError::Overrun { needed, .. } if needed == u32::MAX as usize
    ));
}

#[test]
fn non_finite_and_negative_parameters_are_typed_errors() {
    for bad in [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -1.0,
        -f64::MIN_POSITIVE,
    ] {
        let power = section(&[bad, 3.0], &[(0, 1, 10.0, 0.5), (1, 0, 10.0, 0.5)], 1);
        assert!(matches!(
            body_error(&with_section(&power)),
            BodyError::Network(NetworkError::BadNodeParameter { .. })
        ));
        for (bw, mld) in [(bad, 0.5), (10.0, bad)] {
            let link = section(&[2.0, 3.0], &[(0, 1, 10.0, 0.5), (1, 0, bw, mld)], 1);
            assert!(matches!(
                body_error(&with_section(&link)),
                BodyError::Network(NetworkError::BadLinkParameter { .. })
            ));
        }
    }
}

#[test]
fn structural_faults_in_a_section_are_typed_errors() {
    let dangling = section(&[2.0, 3.0], &[(0, 1, 10.0, 0.5), (1, 9999, 10.0, 0.5)], 1);
    assert!(
        matches!(
            decode_request(&with_section(&dangling)),
            Err(FrameError::Body { id: 9, .. })
        ),
        "a section error keeps the id its header decoded"
    );
    assert!(matches!(
        body_error(&with_section(&dangling)),
        BodyError::Network(NetworkError::Graph(GraphError::NodeOutOfBounds { .. }))
    ));
    let self_loop = section(&[2.0, 3.0], &[(1, 1, 10.0, 0.5)], 1);
    assert!(matches!(
        body_error(&with_section(&self_loop)),
        BodyError::Network(NetworkError::Graph(GraphError::SelfLoop(_)))
    ));
    let mut presence = pair_section();
    presence[12] = 2;
    assert_eq!(body_error(&with_section(&presence)), BodyError::Presence(2));
    let mut utf8 = pair_section();
    utf8.splice(12..13, [1, 2, 0, 0, 0, 0xC3, 0x28]);
    assert_eq!(body_error(&with_section(&utf8)), BodyError::Utf8);
    let trailing = [pair_section(), vec![7, 7, 7]].concat();
    assert_eq!(
        body_error(&with_section(&trailing)),
        BodyError::Trailing { bytes: 3 }
    );
}

#[test]
fn sections_must_match_what_the_header_carries() {
    let solve = with_section(&pair_section());
    let header = split_section(&solve).0;
    assert_eq!(body_error(header), BodyError::MissingNetwork);
    let ping = encode_request(&RequestFrame {
        id: 1,
        body: Request::Ping,
    });
    let ping_with_section = [ping.as_bytes(), &[0], &pair_section()].concat();
    assert_eq!(body_error(&ping_with_section), BodyError::UnexpectedNetwork);
    // the JSON network encoding is gone from the wire: a Solve whose
    // network is spelled in its JSON is refused
    let inst = InstanceSpec::sized(3, 6, 8).generate(5).expect("gen");
    let legacy = format!(
        r#"{{"id":1,"body":{{"Solve":{{"solver":"elpc_delay_routed","cost":{},"threads":1,"timeout_ms":null,"instance":{}}}}}}}"#,
        serde_json::to_string(&CostModel::default()).unwrap(),
        serde_json::to_string(&inst).unwrap(),
    );
    assert_eq!(body_error(legacy.as_bytes()), BodyError::MissingNetwork);
}

#[test]
fn disconnected_networks_decode_for_the_solvers_to_refuse() {
    let islands = section(&[2.0, 3.0, 4.0], &[(0, 1, 10.0, 0.5), (1, 0, 10.0, 0.5)], 1);
    let frame = decode_request(&with_section(&islands)).expect("decodes");
    let net = inline_network(&frame.body);
    assert_eq!(net.node_count(), 3);
    assert!(!net.is_connected());
}
