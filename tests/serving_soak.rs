//! Coalescing soak: many clients race requests for the *same* topology
//! fingerprint at a wide worker pool, interleaved with perturbed-topology
//! requests. The server must build each distinct all-pairs closure
//! **exactly once** — the racing requests coalesce onto one leader's
//! build — and the closure-bank statistics must stay exact:
//!
//! * `misses` == number of distinct bank keys (one cold build each),
//! * `hits + misses` == executed solve requests (each request checks the
//!   bank out exactly once),
//! * perturbed topologies never hit the base topology's entry,
//! * per-reply `banked`/`coalesced` flags sum to the server counters.

use elpc_mapping::{solver, CostModel, EdgeId, NetworkDelta, SolveContext};
use elpc_netsim::Link;
use elpc_serving::{
    Client, ClientError, RemapRequest, ServeError, Server, ServerConfig, SolveRequest,
};
use elpc_workloads::bank::bank_key;
use elpc_workloads::{InstanceSpec, ProblemInstance};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const BASE_PER_CLIENT: usize = 6;
const PERTURBED: usize = 4;

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("elpc-soak-{}-{tag}.sock", std::process::id()))
}

fn base_instance() -> ProblemInstance {
    // Large enough that the all-pairs closure build is real work worth
    // coalescing, small enough to keep the soak quick.
    InstanceSpec::sized(5, 48, 110).generate(1000).expect("gen")
}

fn perturbed_instances() -> Vec<ProblemInstance> {
    // Same spec, different seeds: structurally similar topologies whose
    // fingerprints (and thus bank keys) must all differ from the base.
    (0..PERTURBED)
        .map(|i| {
            InstanceSpec::sized(5, 48, 110)
                .generate(2000 + i as u64)
                .expect("gen")
        })
        .collect()
}

fn solve_req(inst: &ProblemInstance) -> SolveRequest {
    SolveRequest {
        solver: "elpc_delay_routed".into(),
        cost: CostModel::default(),
        threads: 1,
        timeout_ms: None,
        instance: inst.clone(),
    }
}

#[test]
fn racing_clients_build_each_closure_exactly_once() {
    let base = base_instance();
    let perturbed = perturbed_instances();

    // Precondition: every perturbed topology really has a different key.
    let cost = CostModel::default();
    let base_key = bank_key(&base.as_instance(), &cost);
    for p in &perturbed {
        assert_ne!(
            bank_key(&p.as_instance(), &cost),
            base_key,
            "perturbed topology must not share the base bank key"
        );
    }

    let socket = socket_path("race");
    let server = Server::bind(
        &socket,
        ServerConfig {
            workers: CLIENTS, // force in-pool concurrency even on 1 CPU
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    // Every client hammers the base topology and sprinkles in one
    // perturbed topology; collect each reply's telemetry flags.
    let flags: Vec<(bool, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let socket = &socket;
                let base = &base;
                let perturbed = &perturbed;
                s.spawn(move || {
                    let mut client = Client::connect(socket).expect("connect");
                    let mut flags = Vec::new();
                    for k in 0..BASE_PER_CLIENT {
                        let reply = client.solve(solve_req(base)).expect("base solve");
                        flags.push((reply.banked, reply.coalesced));
                        if k == BASE_PER_CLIENT / 2 {
                            let p = &perturbed[c % PERTURBED];
                            let reply = client.solve(solve_req(p)).expect("perturbed solve");
                            flags.push((reply.banked, reply.coalesced));
                        }
                    }
                    flags
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });

    let stats = server.shutdown();
    let total = (CLIENTS * (BASE_PER_CLIENT + 1)) as u64;
    let distinct = 1 + PERTURBED as u64;

    assert_eq!(flags.len() as u64, total);
    assert_eq!(stats.requests, total);
    assert_eq!(stats.completed, total, "every request must succeed");
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.timeouts, 0);

    // The tentpole invariants: one cold build per distinct key, and the
    // bank was consulted exactly once per request.
    assert_eq!(
        stats.bank_misses, distinct,
        "each distinct topology must be built exactly once"
    );
    assert_eq!(
        stats.bank_hits + stats.bank_misses,
        total,
        "bank stats must stay exact: hits + misses == queries"
    );
    assert_eq!(stats.bank_deposits, distinct);

    // Reply telemetry must agree with the server counters bit for bit.
    let banked = flags.iter().filter(|(b, _)| *b).count() as u64;
    let coalesced = flags.iter().filter(|(_, c)| *c).count() as u64;
    assert_eq!(banked, stats.bank_hits, "banked flags must equal bank hits");
    assert_eq!(
        coalesced, stats.coalesced,
        "coalesced flags must equal the coalesced counter"
    );
    // A request that waited on a leader's build then checked out that
    // deposit: coalesced implies banked.
    for &(banked, coalesced) in &flags {
        assert!(!coalesced || banked, "a coalesced request must end banked");
    }

    assert_eq!(stats.queue_depth, 0, "drain must leave an empty queue");
    assert!(!socket.exists(), "drain must remove the socket file");
}

/// Degrades `count` undirected links of a copy of `inst` by halving their
/// bandwidth, returning the perturbed instance.
fn degraded(inst: &ProblemInstance, count: usize) -> ProblemInstance {
    let mut out = inst.clone();
    for k in 0..count {
        let id = EdgeId((2 * k) as u32);
        let old = out.network.link(id).expect("valid link").clone();
        out.network
            .set_link_symmetric(id, Link::new(old.bw_mbps * 0.5, old.mld_ms))
            .expect("same shape");
    }
    out
}

/// The churn serving path: a client that knows what changed ships the old
/// bank key plus the exact delta, and the server repairs the banked
/// closure in place — the perturbed-topology solve is a bank **hit**, not
/// a cold rebuild, and every counter stays exact.
#[test]
fn perturb_then_remap_repairs_the_banked_closure_in_place() {
    let base = base_instance();
    let cost = CostModel::default();
    let base_key = bank_key(&base.as_instance(), &cost);

    let live = degraded(&base, 2);
    let delta = NetworkDelta::between(&base.network, &live.network).expect("same shape");
    assert_eq!(delta.links.len(), 4, "two links, both directions each");

    let socket = socket_path("remap-repair");
    let server = Server::bind(
        &socket,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(&socket).expect("connect");

    // 1. a cold solve banks the pre-churn topology
    let first = client.solve(solve_req(&base)).expect("base solve");
    assert!(!first.banked, "first sight of this topology");

    // 2. perturb-then-remap with the repair fields: the banked entry
    //    migrates to the perturbed key, so this solve is banked
    let remap = client
        .remap(RemapRequest {
            solve: solve_req(&live),
            previous: first.assignment.clone(),
            previous_key: Some(base_key),
            delta: Some(delta.clone()),
        })
        .expect("remap");
    assert!(remap.repaired, "the delta must repair the banked closure");
    assert!(
        remap.reply.banked,
        "an in-place repair turns the perturbed solve into a bank hit"
    );
    assert!(!remap.reply.coalesced, "nothing to coalesce with");

    // the repaired solve is bit-identical to solving the perturbed
    // instance from scratch
    let ctx = SolveContext::new(live.as_instance(), cost);
    let cold = solver("elpc_delay_routed")
        .expect("registered")
        .solve(&ctx)
        .expect("cold solve");
    assert_eq!(remap.reply.assignment, cold.assignment);
    assert_eq!(
        remap.reply.objective_ms.to_bits(),
        cold.objective_ms.to_bits(),
        "repaired and cold objectives must be bit-identical"
    );

    // 3. a remap naming a key that was never banked falls back to the
    //    normal cold path — no repair, no error
    let other = degraded(&base, 4);
    let other_delta = NetworkDelta::between(&live.network, &other.network).expect("same shape");
    let fallback = client
        .remap(RemapRequest {
            solve: solve_req(&other),
            previous: remap.reply.assignment.clone(),
            previous_key: Some(0xDEAD_BEEF),
            delta: Some(other_delta),
        })
        .expect("fallback remap");
    assert!(!fallback.repaired, "unknown key cannot repair");
    assert!(!fallback.reply.banked, "fallback is a cold build");

    let stats = server.shutdown();
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.completed, 3, "every request must succeed");
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.bank_repairs, 1, "exactly the one repair");
    assert_eq!(
        stats.bank_misses, 2,
        "base cold build + fallback cold build; the repaired remap hit"
    );
    assert_eq!(stats.bank_hits, 1, "the repaired remap");
    assert_eq!(
        stats.bank_hits + stats.bank_misses,
        3,
        "bank consulted exactly once per request, repairs are not checkouts"
    );
    assert_eq!(stats.coalesced, 0);
}

/// A topology whose serial all-pairs closure build takes long enough to
/// reliably out-wait the millisecond deadlines below.
fn slow_instance() -> ProblemInstance {
    InstanceSpec::sized(6, 300, 900).generate(77).expect("gen")
}

/// Waits until the daemon's bank has counted `misses` checkouts: the
/// request occupying the worker has been dequeued and is building its
/// closure, so anything enqueued from now on strictly trails it (the queue
/// is FIFO). Panics if that takes implausibly long.
fn await_bank_misses(server: &Server, misses: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().bank_misses < misses {
        assert!(
            Instant::now() < deadline,
            "the blocking request never checked the bank out"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn expect_timeout(tag: &str, r: Result<elpc_serving::SolveReply, ClientError>) {
    match r {
        Err(ClientError::Server(ServeError::Timeout { .. })) => {}
        other => panic!("{tag}: expected a Timeout answer, got {other:?}"),
    }
}

/// ISSUE 9 queued-timeout fix, part 1: requests whose deadline expires
/// while they sit in the queue behind a saturated worker are answered
/// `Timeout` at dequeue and never burn a solve — the bank counters keep
/// counting executed solves only (`hits + misses` excludes every expired
/// request).
#[test]
fn expired_in_queue_requests_never_burn_a_solve() {
    let slow = slow_instance();
    let socket = socket_path("expired-queue");
    let server = Server::bind(
        &socket,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    const FOLLOWERS: usize = 4;
    std::thread::scope(|s| {
        let socket = &socket;
        let slow = &slow;
        // saturate the single worker with a no-deadline cold solve
        let blocker = s.spawn(move || {
            let mut client = Client::connect(socket).expect("connect");
            client.solve(solve_req(slow)).expect("blocker solve")
        });
        // wait until the worker has dequeued the blocker, then enqueue
        // requests whose 1 ms deadlines expire long before the blocker's
        // build finishes
        await_bank_misses(&server, 1);
        let followers: Vec<_> = (0..FOLLOWERS)
            .map(|_| {
                s.spawn(move || {
                    let mut client = Client::connect(socket).expect("connect");
                    let mut req = solve_req(slow);
                    req.timeout_ms = Some(1);
                    client.solve(req)
                })
            })
            .collect();
        for (i, h) in followers.into_iter().enumerate() {
            expect_timeout(&format!("queued follower {i}"), h.join().expect("thread"));
        }
        blocker.join().expect("thread");
    });

    let stats = server.shutdown();
    assert_eq!(stats.requests, 1 + FOLLOWERS as u64);
    assert_eq!(stats.timeouts, FOLLOWERS as u64, "every follower expired");
    assert_eq!(stats.completed, 1, "only the blocker solved");
    assert_eq!(stats.errors, 0, "timeouts are not errors");
    // the exactness invariant the fix protects: expired requests never
    // check the bank out, so hits + misses counts executed solves only
    assert_eq!(stats.bank_misses, 1, "one cold build for the blocker");
    assert_eq!(
        stats.bank_hits + stats.bank_misses,
        stats.completed,
        "expired-in-queue requests must not increment the solve counters"
    );
}

/// ISSUE 9 queued-timeout fix, part 2: a coalesce *follower* — dequeued in
/// time, but blocked inside `coalesce()` on another request's closure
/// build until past its deadline — is answered `Timeout` after the wait
/// without checking out a context or burning a solve.
#[test]
fn expired_coalesce_followers_never_burn_a_solve() {
    let slow = slow_instance();
    let socket = socket_path("expired-coalesce");
    let server = Server::bind(
        &socket,
        ServerConfig {
            workers: 2, // the follower is dequeued while the leader builds
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    std::thread::scope(|s| {
        let socket = &socket;
        let slow = &slow;
        let leader = s.spawn(move || {
            let mut client = Client::connect(socket).expect("connect");
            client.solve(solve_req(slow)).expect("leader solve")
        });
        // once the leader has checked out, send the same bank key with a
        // deadline far shorter than the leader's build: the free second
        // worker dequeues this immediately (so the dequeue-time expiry
        // check passes) and it blocks in coalesce()
        await_bank_misses(&server, 1);
        let follower = s.spawn(move || {
            let mut client = Client::connect(socket).expect("connect");
            let mut req = solve_req(slow);
            req.timeout_ms = Some(25);
            client.solve(req)
        });
        expect_timeout("coalesce follower", follower.join().expect("thread"));
        leader.join().expect("thread");
    });

    let stats = server.shutdown();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.timeouts, 1, "the follower expired in coalesce()");
    assert_eq!(stats.completed, 1, "only the leader solved");
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.bank_misses, 1, "one cold build by the leader");
    assert_eq!(
        stats.bank_hits + stats.bank_misses,
        stats.completed,
        "an expired coalesce follower must not check a context out"
    );
}

/// Sequential control: with one client and one worker there is nothing to
/// coalesce, yet the exactness invariants must hold identically.
#[test]
fn sequential_soak_has_exact_stats_and_no_coalescing() {
    let base = base_instance();
    let socket = socket_path("seq");
    let server = Server::bind(
        &socket,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let mut client = Client::connect(&socket).expect("connect");
    let rounds = 5usize;
    for k in 0..rounds {
        let reply = client.solve(solve_req(&base)).expect("solve");
        assert_eq!(reply.banked, k > 0, "first solve cold, rest banked");
        assert!(!reply.coalesced, "sequential requests never wait");
    }

    let stats = server.shutdown();
    assert_eq!(stats.bank_misses, 1);
    assert_eq!(stats.bank_hits, rounds as u64 - 1);
    assert_eq!(stats.coalesced, 0);
    assert_eq!(stats.completed, rounds as u64);
}
