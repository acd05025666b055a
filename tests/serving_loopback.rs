//! Deterministic loopback serving test: an in-process `elpc-serve` daemon
//! must answer exactly what the solver registry answers when called
//! directly — same assignment, bit-identical objective, same typed error
//! messages — no matter how many clients hammer it concurrently or how
//! many threads the solve context uses.
//!
//! Every (instance × solver) pair is solved twice per configuration:
//! once directly through [`elpc_mapping::registry`], once over the wire
//! by each of N concurrent clients. Any divergence — a different
//! assignment, a flipped error, a single objective bit — fails the test.
//!
//! The second half pins networks sent by key: a keyed solve answers
//! exactly what the inline one does, and every way a key can go stale —
//! eviction, a daemon restart, a hostile or mismatched keyed remap — ends
//! in a typed refusal and an inline answer, with the ledger still exact.
//! An inline network that names a node it does not have, or breaks a
//! parameter rule, is refused as `Malformed` under its request's id when
//! its frame decodes, before admission. A deadlined solve against a peer
//! that never answers ends with a transient error.

use elpc_mapping::{registry, CostModel, EdgeId, NetworkDelta, NodeId, SolveContext};
use elpc_netsim::Link;
use elpc_serving::protocol::{decode_response, encode_request, read_frame, write_frame};
use elpc_serving::{
    Client, ClientError, KeyedRemapRequest, KeyedSolveRequest, RemapRequest, Request, RequestFrame,
    Response, RetryPolicy, ServeError, Server, ServerConfig, SolveRequest, StatsReply,
};
use elpc_workloads::bank::bank_key;
use elpc_workloads::{InstanceSpec, ProblemInstance};
use std::path::PathBuf;

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("elpc-loopback-{}-{tag}.sock", std::process::id()))
}

fn test_instances() -> Vec<ProblemInstance> {
    // Three comfortable instances plus one with more modules than nodes,
    // so the no-reuse (distinct-host) solvers exercise the typed error
    // path — a served Infeasible must match the direct one verbatim.
    vec![
        InstanceSpec::sized(4, 12, 26).generate(101).expect("gen"),
        InstanceSpec::sized(5, 14, 30).generate(202).expect("gen"),
        InstanceSpec::sized(3, 9, 16).generate(303).expect("gen"),
        InstanceSpec::sized(6, 5, 8).generate(404).expect("gen"),
    ]
}

/// What a solve produced, in directly comparable form: the assignment and
/// exact objective bits on success, or the typed error message.
#[derive(Debug, PartialEq)]
enum Outcome {
    Ok(Vec<u32>, u64),
    Err(String),
}

fn direct_outcome(inst: &ProblemInstance, solver_name: &str, threads: usize) -> Outcome {
    let ctx = SolveContext::with_threads(inst.as_instance(), CostModel::default(), threads);
    let entry = elpc_mapping::solver(solver_name).expect("registry solver");
    match entry.solve(&ctx) {
        Ok(sol) => Outcome::Ok(
            sol.assignment.iter().map(|n| n.0).collect(),
            sol.objective_ms.to_bits(),
        ),
        Err(e) => Outcome::Err(e.to_string()),
    }
}

fn solve_request(inst: &ProblemInstance, solver_name: &str, threads: usize) -> SolveRequest {
    SolveRequest {
        solver: solver_name.to_string(),
        cost: CostModel::default(),
        threads,
        timeout_ms: None,
        instance: inst.clone(),
    }
}

fn outcome_of(result: Result<elpc_serving::SolveReply, ClientError>, solver_name: &str) -> Outcome {
    match result {
        Ok(reply) => Outcome::Ok(
            reply.assignment.iter().map(|n| n.0).collect(),
            reply.objective_ms.to_bits(),
        ),
        Err(ClientError::Server(ServeError::Solve(failure))) => Outcome::Err(failure.message),
        Err(other) => panic!("unexpected client error for {solver_name}: {other}"),
    }
}

fn served_outcome(
    client: &mut Client,
    inst: &ProblemInstance,
    solver_name: &str,
    threads: usize,
) -> Outcome {
    outcome_of(
        client.solve(solve_request(inst, solver_name, threads)),
        solver_name,
    )
}

/// N concurrent clients, every registry solver, every instance: served
/// answers must be bit-identical to direct registry calls.
fn run_loopback(tag: &str, threads: usize, workers: usize, clients: usize) {
    let socket = socket_path(tag);
    let server = Server::bind(
        &socket,
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let instances = test_instances();
    let names: Vec<&'static str> = registry().iter().map(|s| s.name()).collect();
    let expected: Vec<Vec<Outcome>> = instances
        .iter()
        .map(|inst| {
            names
                .iter()
                .map(|name| direct_outcome(inst, name, threads))
                .collect()
        })
        .collect();

    std::thread::scope(|s| {
        for c in 0..clients {
            let socket = &socket;
            let instances = &instances;
            let names = &names;
            let expected = &expected;
            s.spawn(move || {
                let mut client = Client::connect(socket).expect("connect");
                // Stagger the iteration order per client so different
                // clients race different keys at any given moment.
                for step in 0..(instances.len() * names.len()) {
                    let idx = (step + c) % (instances.len() * names.len());
                    let (i, j) = (idx / names.len(), idx % names.len());
                    let got = served_outcome(&mut client, &instances[i], names[j], threads);
                    assert_eq!(
                        got, expected[i][j],
                        "client {c}: served {} on instance {i} diverged from direct call",
                        names[j]
                    );
                }
            });
        }
    });

    let stats = server.shutdown();
    let total = (clients * instances.len() * names.len()) as u64;
    assert_eq!(stats.requests, total, "every request must be accounted");
    assert_eq!(
        stats.completed + stats.errors,
        total,
        "every request must be answered"
    );
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.queue_depth, 0, "drain must leave an empty queue");
    assert!(!socket.exists(), "drain must remove the socket file");
}

#[test]
fn loopback_matches_direct_serial() {
    // threads=1 (lazy serial closure) on a single worker: the fully
    // deterministic baseline configuration.
    run_loopback("serial", 1, 1, 3);
}

#[test]
fn loopback_matches_direct_full_cpu() {
    // threads=0 (all CPUs) across a wide worker pool: solver determinism
    // at any thread count is what keeps this bit-identical.
    run_loopback("fullcpu", 0, 6, 4);
}

#[test]
fn unknown_solver_is_a_typed_error_not_a_hang() {
    let socket = socket_path("unknown");
    let server = Server::bind(&socket, ServerConfig::default()).expect("bind");
    let mut client = Client::connect(&socket).expect("connect");
    let inst = InstanceSpec::sized(3, 8, 14).generate(7).expect("gen");
    let err = client
        .solve(SolveRequest {
            solver: "definitely_not_registered".into(),
            cost: CostModel::default(),
            threads: 1,
            timeout_ms: None,
            instance: inst,
        })
        .expect_err("must fail");
    match err {
        ClientError::Server(ServeError::UnknownSolver { name }) => {
            assert_eq!(name, "definitely_not_registered");
        }
        other => panic!("expected UnknownSolver, got {other}"),
    }
    server.shutdown();
}

/// A deadlined solve against a peer that reads the request but never
/// answers ends with a transient transport error once its socket timeout
/// (deadline plus slack) fires, instead of blocking forever.
#[test]
fn a_deadlined_solve_against_a_silent_peer_ends_transient() {
    let socket = socket_path("silent");
    let _ = std::fs::remove_file(&socket);
    let listener = std::os::unix::net::UnixListener::bind(&socket).expect("bind");
    std::thread::spawn(move || {
        if let Ok((mut stream, _)) = listener.accept() {
            let _ = std::io::copy(&mut stream, &mut std::io::sink());
        }
    });
    let mut client = Client::connect(&socket).expect("connect");
    let inst = InstanceSpec::sized(3, 8, 14).generate(7).expect("gen");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut req = solve_request(&inst, "elpc_delay_routed", 1);
        req.timeout_ms = Some(100);
        let _ = tx.send(client.solve(req));
    });
    match rx.recv_timeout(std::time::Duration::from_secs(5)) {
        Ok(Err(e)) => assert!(e.is_transient(), "expected a transient error, got {e}"),
        Ok(Ok(reply)) => panic!("a silent peer cannot answer, got {reply:?}"),
        Err(_) => panic!("the 100 ms deadline's socket timeout never fired"),
    }
    let _ = std::fs::remove_file(&socket);
}

#[test]
fn remap_reports_movement_against_previous_assignment() {
    let socket = socket_path("remap");
    let server = Server::bind(&socket, ServerConfig::default()).expect("bind");
    let mut client = Client::connect(&socket).expect("connect");
    let inst = InstanceSpec::sized(4, 12, 26).generate(101).expect("gen");

    let fresh = match direct_outcome(&inst, "elpc_delay_routed", 1) {
        Outcome::Ok(assignment, _) => assignment,
        Outcome::Err(e) => panic!("fixture must solve: {e}"),
    };
    let solve = SolveRequest {
        solver: "elpc_delay_routed".into(),
        cost: CostModel::default(),
        threads: 1,
        timeout_ms: None,
        instance: inst,
    };

    // Previous == what the solver answers now: nothing moved.
    let same = client
        .remap(RemapRequest {
            solve: solve.clone(),
            previous: fresh.iter().map(|&n| elpc_mapping::NodeId(n)).collect(),
            previous_key: None,
            delta: None,
        })
        .expect("remap");
    assert!(!same.changed, "identical previous assignment cannot move");
    assert!(!same.repaired, "no repair fields, no repair");
    assert_eq!(
        same.reply
            .assignment
            .iter()
            .map(|n| n.0)
            .collect::<Vec<_>>(),
        fresh
    );

    // A previous assignment that cannot match (wrong length): moved.
    let moved = client
        .remap(RemapRequest {
            solve,
            previous: Vec::new(),
            previous_key: None,
            delta: None,
        })
        .expect("remap");
    assert!(moved.changed, "empty previous assignment always differs");

    server.shutdown();
}

// ---------------------------------------------------------------------------
// Networks sent by key
// ---------------------------------------------------------------------------

/// The inline form of a solve, bypassing the client's key bookkeeping.
fn inline_outcome(client: &mut Client, inst: &ProblemInstance, solver_name: &str) -> Outcome {
    let result = match client
        .request(Request::Solve(solve_request(inst, solver_name, 1)))
        .expect("exchange")
    {
        Response::Solved(reply) => Ok(reply),
        Response::Error(e) => Err(ClientError::Server(e)),
        other => panic!("unexpected response {other:?}"),
    };
    outcome_of(result, solver_name)
}

/// `requests == accepted + shed`, and every admitted request executed a
/// solve: these tests send no request that fails before its checkout.
fn assert_ledger_exact(stats: &StatsReply) {
    assert_eq!(stats.requests, stats.accepted + stats.shed);
    assert_eq!(
        stats.accepted,
        stats.completed + stats.timeouts + stats.errors
    );
    assert_eq!(
        stats.bank_hits + stats.bank_misses,
        stats.completed + stats.errors,
        "hits + misses must equal executed solves"
    );
}

/// `inst` with one undirected link's bandwidth halved.
fn perturbed(inst: &ProblemInstance, edge: EdgeId) -> ProblemInstance {
    let mut out = inst.clone();
    let old = out.network.link(edge).expect("edge").clone();
    out.network
        .set_link_symmetric(edge, Link::new(old.bw_mbps * 0.5, old.mld_ms))
        .expect("edge");
    out
}

fn remap_request(prev: &ProblemInstance, next: &ProblemInstance) -> RemapRequest {
    RemapRequest {
        solve: solve_request(next, "elpc_delay_routed", 1),
        previous: Vec::new(),
        previous_key: Some(bank_key(&prev.as_instance(), &CostModel::default())),
        delta: Some(NetworkDelta::between(&prev.network, &next.network).expect("same shape")),
    }
}

/// The daemon acknowledges a network once its key is reused (a bank hit),
/// and from then on every registry solver's keyed solve answers
/// bit-for-bit what the inline request and a direct registry call answer.
#[test]
fn keyed_solves_match_inline_for_every_registry_solver() {
    let socket = socket_path("keyed");
    let server = Server::bind(
        &socket,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(&socket).expect("connect");
    let names: Vec<&'static str> = registry().iter().map(|s| s.name()).collect();
    let instances = test_instances();
    for (i, inst) in instances.iter().enumerate() {
        let dp = solve_request(inst, "elpc_delay_routed", 1);
        let cold = client.solve(dp.clone()).expect("the routed DP banks");
        assert_eq!(
            cold.network_key, None,
            "instance {i}: a cold solve acks nothing"
        );
        let hit = client.solve(dp).expect("the routed DP hits");
        assert_eq!(
            hit.network_key,
            Some(bank_key(&inst.as_instance(), &CostModel::default())),
            "instance {i}: a hit must acknowledge the banked key"
        );
        for name in &names {
            let before = client.stats().expect("stats").keyed;
            let keyed = served_outcome(&mut client, inst, name, 1);
            assert_eq!(
                client.stats().expect("stats").keyed,
                before + 1,
                "instance {i}: {name} must travel by key"
            );
            let inline = inline_outcome(&mut client, inst, name);
            assert_eq!(
                keyed, inline,
                "instance {i}: keyed {name} diverged from inline"
            );
            assert_eq!(
                keyed,
                direct_outcome(inst, name, 1),
                "instance {i}: keyed {name} diverged from the registry"
            );
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.keyed, (instances.len() * names.len()) as u64);
    assert_eq!(stats.unknown_keys, 0);
    assert_ledger_exact(&stats);
}

/// A one-slot bank evicts the network a client still remembers: the keyed
/// solve and the keyed remap are refused, and each is answered inline
/// with the right result; the remap falls back without its repair fields.
#[test]
fn evicted_keys_fall_back_to_inline_requests() {
    let socket = socket_path("evict");
    let server = Server::bind(
        &socket,
        ServerConfig {
            workers: 1,
            bank_capacity: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(&socket).expect("connect");
    let instances = test_instances();
    let (a, b) = (&instances[0], &instances[1]);
    let dp = "elpc_delay_routed";

    // a cold solve, then a hit that acknowledges A; then B evicts A and
    // is acknowledged in turn
    for inst in [a, a, b, b] {
        served_outcome(&mut client, inst, dp, 1);
    }
    // A is refused by key and answered inline; that cold solve evicts B
    assert_eq!(
        served_outcome(&mut client, a, dp, 1),
        direct_outcome(a, dp, 1)
    );
    let stats = client.stats().expect("stats");
    assert_eq!(
        (stats.keyed, stats.unknown_keys),
        (0, 1),
        "A was refused once"
    );
    assert_eq!(stats.requests, 5, "the refusal never reached admission");

    // B's entry is gone, so a keyed remap from B is refused and re-sent
    // inline without repair fields
    let b2 = perturbed(b, EdgeId(0));
    let reply = client.remap(remap_request(b, &b2)).expect("remap");
    assert!(!reply.repaired, "the fallback must not repair");
    let want = direct_outcome(&b2, dp, 1);
    assert_eq!(outcome_of(Ok(reply.reply), dp), want);

    let stats = server.shutdown();
    assert_eq!((stats.keyed, stats.unknown_keys), (0, 2));
    assert_eq!(stats.requests, 6);
    assert_eq!(stats.bank_repairs, 0);
    assert_ledger_exact(&stats);
}

/// `bank_tree_bytes` is what the bank holds: three distinct networks
/// through a 2-slot bank leave the last two closures, each tree 12 bytes
/// per node, and each closure the trees a direct solve builds.
#[test]
fn stats_report_the_bytes_of_the_banked_trees() {
    let socket = socket_path("tree-bytes");
    let server = Server::bind(
        &socket,
        ServerConfig {
            workers: 1,
            bank_capacity: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(&socket).expect("connect");
    let (nodes, dp) = (12, "elpc_delay_routed");
    let spec = InstanceSpec::sized(4, nodes, 26);
    let instances: Vec<ProblemInstance> = (0..3)
        .map(|seed| spec.generate(505 + seed).expect("gen"))
        .collect();
    assert_eq!(client.stats().expect("stats").bank_tree_bytes, 0);
    for inst in &instances {
        served_outcome(&mut client, inst, dp, 1);
    }
    let trees = |inst: &ProblemInstance| {
        let ctx = SolveContext::with_threads(inst.as_instance(), CostModel::default(), 1);
        let solver = elpc_mapping::solver(dp).expect("registry solver");
        solver.solve(&ctx).expect("solves");
        ctx.closure().cached_trees() as u64
    };
    let held: Vec<u64> = instances[1..].iter().map(trees).collect();
    assert!(held.iter().all(|&t| t > 0));
    let stats = server.shutdown();
    assert_eq!(stats.bank_deposits, 3);
    assert_eq!(
        stats.bank_tree_bytes,
        held.iter().sum::<u64>() * nodes as u64 * 12,
        "the first network was evicted"
    );
    assert_ledger_exact(&stats);
}

/// A daemon restarted under one `Client`: the reconnect forgets every key,
/// so requests reach the empty daemon inline, never as a stale key, until
/// it acknowledges the network again.
#[test]
fn a_restarted_daemon_never_sees_stale_keys() {
    let socket = socket_path("restart");
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let inst = &test_instances()[0];
    let dp = "elpc_delay_routed";
    let want = direct_outcome(inst, dp, 1);

    let first = Server::bind(&socket, config.clone()).expect("bind");
    let mut client = Client::connect(&socket).expect("connect");
    for _ in 0..3 {
        assert_eq!(served_outcome(&mut client, inst, dp, 1), want);
    }
    assert_eq!(first.shutdown().keyed, 1);

    let second = Server::bind(&socket, config).expect("rebind");
    let reply = client
        .solve_with_retry(&solve_request(inst, dp, 1), &RetryPolicy::default())
        .expect("the retry reconnects");
    assert_eq!(outcome_of(Ok(reply), dp), want);
    let stats = client.stats().expect("stats");
    assert_eq!((stats.keyed, stats.unknown_keys), (0, 0));
    for _ in 0..2 {
        assert_eq!(served_outcome(&mut client, inst, dp, 1), want);
    }

    let stats = second.shutdown();
    assert_eq!((stats.keyed, stats.unknown_keys), (1, 0));
    assert_eq!(stats.requests, 3);
    assert_ledger_exact(&stats);
}

/// Keyed remaps: a valid one repairs and answers like the inline form;
/// hostile ones — an edge id out of range, an old value that does not
/// match, a wrong expected key, an unknown base key — are each refused
/// with a typed `UnknownNetwork`, and the connection keeps serving.
#[test]
fn hostile_keyed_remaps_get_typed_refusals() {
    let socket = socket_path("hostile");
    let server = Server::bind(
        &socket,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(&socket).expect("connect");
    let dp = "elpc_delay_routed";
    let a = &test_instances()[0];
    served_outcome(&mut client, a, dp, 1);
    served_outcome(&mut client, a, dp, 1); // the hit acknowledges A

    // a valid keyed remap repairs in place
    let a2 = perturbed(a, EdgeId(2));
    let reply = client.remap(remap_request(a, &a2)).expect("remap");
    assert!(reply.repaired);
    assert_eq!(outcome_of(Ok(reply.reply), dp), direct_outcome(&a2, dp, 1));
    let stats = client.stats().expect("stats");
    assert_eq!((stats.keyed, stats.bank_repairs), (1, 1));

    // hostile forms against the now-banked A2
    let cost = CostModel::default();
    let key2 = bank_key(&a2.as_instance(), &cost);
    let a3 = perturbed(&a2, EdgeId(4));
    let key3 = bank_key(&a3.as_instance(), &cost);
    let good = NetworkDelta::between(&a2.network, &a3.network).expect("same shape");
    let keyed = |key: u64| KeyedSolveRequest {
        solver: dp.into(),
        cost,
        threads: 1,
        timeout_ms: None,
        key,
        pipeline: a3.pipeline.clone(),
        src: a3.src,
        dst: a3.dst,
    };
    let mut out_of_range = good.clone();
    out_of_range.links[0].edge = EdgeId(9_999);
    let mut stale = good.clone();
    stale.links[0].old.bw_mbps *= 3.0;
    let cases = [
        (key2, out_of_range, key3, key3),
        (key2, stale, key3, key3),
        (key2, good.clone(), key3 ^ 1, key3 ^ 1),
        (key2 ^ 1, good, key3, key2 ^ 1),
    ];
    for (previous_key, delta, key, refused) in cases {
        let body = Request::RemapKeyed(KeyedRemapRequest {
            solve: keyed(key),
            previous: vec![NodeId(0)],
            previous_key,
            delta,
        });
        match client.request(body).expect("exchange") {
            Response::Error(ServeError::UnknownNetwork { key }) => assert_eq!(key, refused),
            other => panic!("expected UnknownNetwork, got {other:?}"),
        }
    }
    // a keyed solve under an unbanked key, and one whose pipeline does not
    // match the key, are refused the same way
    for key in [key3, key2] {
        let mut solve = keyed(key);
        solve.pipeline = InstanceSpec::sized(3, 12, 26)
            .generate(9)
            .expect("gen")
            .pipeline;
        match client
            .request(Request::SolveKeyed(solve))
            .expect("exchange")
        {
            Response::Error(ServeError::UnknownNetwork { key: k }) => assert_eq!(k, key),
            other => panic!("expected UnknownNetwork, got {other:?}"),
        }
    }

    // the connection still serves, by key
    client.ping().expect("ping");
    assert_eq!(
        served_outcome(&mut client, &a2, dp, 1),
        direct_outcome(&a2, dp, 1)
    );
    let stats = server.shutdown();
    assert_eq!((stats.keyed, stats.unknown_keys), (2, 6));
    assert_eq!(stats.requests, 4, "refusals never reach admission");
    assert_eq!(stats.bank_repairs, 1);
    assert_ledger_exact(&stats);
}

#[test]
fn hostile_inline_networks_are_malformed_before_admission() {
    let socket = socket_path("hostile-inline");
    let server = Server::bind(
        &socket,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let dp = "elpc_delay_routed";
    let inst = &test_instances()[0];
    let valid = encode_request(&RequestFrame {
        id: 7,
        body: Request::Solve(solve_request(inst, dp, 1)),
    })
    .into_bytes();
    // the section ends with the last directed edge `(src, dst, bw, mld)`
    // and the u64 link count: point that edge's `dst` past the last node
    let mut hostile = valid.clone();
    let dst = hostile.len() - 8 - 16 - 4;
    hostile[dst..dst + 4].copy_from_slice(&9_999u32.to_le_bytes());

    let mut stream = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
    let mut exchange = |payload: &[u8]| {
        write_frame(&mut stream, payload).expect("write");
        let reply = read_frame(&mut stream).expect("read").expect("a reply");
        decode_response(&reply).expect("decodes")
    };
    let refused = exchange(&hostile);
    assert_eq!(refused.id, 7, "the refusal answers the request's id");
    match refused.body {
        Response::Error(ServeError::Malformed { detail }) => {
            assert!(detail.contains("9999"), "{detail}");
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
    // the connection still serves, and the valid frame answers as directly
    let answered = exchange(&valid);
    assert_eq!(answered.id, 7);
    match answered.body {
        Response::Solved(reply) => {
            assert_eq!(outcome_of(Ok(reply), dp), direct_outcome(inst, dp, 1));
        }
        other => panic!("expected Solved, got {other:?}"),
    }
    // a client whose network breaks the parameter rules gets the typed
    // refusal as its answer, not a wait for a reply that never comes
    let mut nan = inst.clone();
    nan.network.node_mut(NodeId(0)).expect("node 0").power = f64::NAN;
    let mut client = Client::connect(&socket).expect("connect");
    let mut request = solve_request(&nan, dp, 1);
    request.timeout_ms = Some(10_000);
    match client.solve(request) {
        Err(ClientError::Server(ServeError::Malformed { .. })) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.errors, 0, "no worker saw a hostile frame");
    assert_eq!(stats.requests, 1, "refused before admission");
    assert_ledger_exact(&stats);
}
