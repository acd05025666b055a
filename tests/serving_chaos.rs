//! Serving chaos suite: the daemon under failure and overload.
//!
//! Four properties, each pinned exactly:
//!
//! * **bounded queue** — with `queue_capacity` slots, a saturated daemon
//!   answers the overflow with a typed `Overloaded` (plus a
//!   `retry_after_ms` hint) instead of queueing without bound, and the
//!   accounting invariants hold exactly: `requests == accepted + shed`
//!   at all times, `accepted == completed + timeouts + errors` once
//!   drained, and `max_queue_depth <= queue_capacity`;
//! * **retry rides out overload** — a client under the seeded
//!   [`RetryPolicy`] backs off on shed replies and lands the request
//!   once capacity frees up;
//! * **restart survival** — killing and rebinding the daemon in the
//!   middle of a retrying closed-loop burst loses zero replies: every
//!   request is answered exactly once, by the old daemon or the new one;
//! * **pool survival** — bursts of error-answered requests (unknown
//!   solver) never shrink the worker pool or break the accounting.

use elpc_mapping::CostModel;
use elpc_serving::loadgen::{run_open_loop, LoadConfig};
use elpc_serving::{
    Client, ClientError, RetryPolicy, ServeError, Server, ServerConfig, SolveRequest, StatsReply,
};
use elpc_workloads::{InstanceSpec, ProblemInstance};
use std::path::PathBuf;
use std::time::Duration;

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("elpc-chaos-{}-{tag}.sock", std::process::id()))
}

/// A topology whose serial all-pairs closure build takes long enough to
/// hold the single worker busy while followers pile onto the queue.
fn slow_instance() -> ProblemInstance {
    InstanceSpec::sized(6, 300, 900).generate(77).expect("gen")
}

fn quick_instance() -> ProblemInstance {
    InstanceSpec::sized(4, 24, 60).generate(11).expect("gen")
}

/// The latency record agrees with the ledger: one latency per completed
/// request, with ordered percentiles.
fn assert_latency_matches_ledger(stats: &StatsReply) {
    let l = &stats.latency;
    assert_eq!(
        l.count, stats.completed,
        "one latency per completed request"
    );
    assert!(
        l.p50_ms <= l.p99_ms && l.p99_ms <= l.max_ms,
        "percentiles out of order: {l:?}"
    );
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

/// One worker, one queue slot: while a slow cold build occupies the
/// worker, any further request is shed with a typed `Overloaded` reply —
/// deterministically, because the slot is provably held. After the
/// blocker completes, the next request is admitted again, and the final
/// statistics balance exactly. Then an unpaced open-loop flood at a fresh
/// 1-slot daemon is shed, not queued: every request is answered, the
/// client counts exactly the shed replies the daemon counted, and the
/// depth never passes the bound.
#[test]
fn full_queue_sheds_with_typed_overloaded_and_exact_accounting() {
    let slow = slow_instance();
    let socket = socket_path("shed");
    let server = Server::bind(
        &socket,
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    std::thread::scope(|s| {
        let socket = &socket;
        let slow = &slow;
        // saturate the one queue slot with a no-deadline cold solve
        let blocker = s.spawn(move || {
            let mut client = Client::connect(socket).expect("connect");
            client.solve(solve_req(slow)).expect("blocker solve")
        });
        std::thread::sleep(Duration::from_millis(10));
        // the slot is held: this request must be shed, not queued
        let mut client = Client::connect(socket).expect("connect");
        match client.solve(solve_req(slow)) {
            Err(ClientError::Server(ServeError::Overloaded { retry_after_ms })) => {
                assert!(
                    retry_after_ms >= 10,
                    "the hint is clamped to a useful floor, got {retry_after_ms}"
                );
            }
            other => panic!("expected a shed Overloaded reply, got {other:?}"),
        }
        blocker.join().expect("thread");
        // capacity freed: the same client is admitted and served
        client.solve(solve_req(slow)).expect("post-shed solve");
    });

    let stats = server.shutdown();
    assert_eq!(stats.requests, 3, "blocker + shed + recovery");
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.shed, 1);
    assert_eq!(
        stats.requests,
        stats.accepted + stats.shed,
        "admission accounting must balance"
    );
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.errors, 0);
    assert_eq!(
        stats.accepted,
        stats.completed + stats.timeouts + stats.errors,
        "drain accounting must balance"
    );
    assert_latency_matches_ledger(&stats);
    assert_eq!(
        stats.max_queue_depth, 1,
        "the queue bound is exact: depth never exceeded capacity"
    );

    const FLOOD: usize = 192;
    let socket = socket_path("flood");
    let server = Server::bind(
        &socket,
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let cfg = LoadConfig {
        connections: 4,
        requests: FLOOD,
        ..LoadConfig::default()
    };
    let report = run_open_loop(&socket, std::slice::from_ref(&slow), &cfg).expect("flood");
    let stats = server.shutdown();
    assert_eq!(report.lost, 0, "every flooded request is answered");
    assert_eq!(report.ok + report.shed, FLOOD, "answered ok or shed");
    assert!(stats.shed > 0, "the flood must shed at a 1-slot bound");
    assert_eq!(
        report.shed as u64, stats.shed,
        "the client sees exactly the shed replies the daemon counted"
    );
    assert!(stats.max_queue_depth <= 1, "depth never passes the bound");
    assert_eq!(stats.requests, stats.accepted + stats.shed);
    assert_eq!(
        stats.accepted,
        stats.completed + stats.timeouts + stats.errors
    );
    assert_latency_matches_ledger(&stats);
}

/// A retrying client backs off on the shed reply (honoring its
/// `retry_after_ms` hint) and lands the solve once the blocker clears.
#[test]
fn retry_policy_rides_out_overload() {
    let slow = slow_instance();
    let socket = socket_path("retry");
    let server = Server::bind(
        &socket,
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let reply = std::thread::scope(|s| {
        let socket = &socket;
        let slow = &slow;
        let blocker = s.spawn(move || {
            let mut client = Client::connect(socket).expect("connect");
            client.solve(solve_req(slow)).expect("blocker solve")
        });
        std::thread::sleep(Duration::from_millis(10));
        let mut client = Client::connect(socket).expect("connect");
        let policy = RetryPolicy {
            max_attempts: 64,
            base_ms: 15,
            max_backoff_ms: 100,
            ..RetryPolicy::default()
        };
        let reply = client
            .solve_with_retry(&solve_req(slow), &policy)
            .expect("retry must outlast the blocker");
        blocker.join().expect("thread");
        reply
    });
    assert!(
        reply.banked,
        "the retried solve lands on the banked closure"
    );

    let stats = server.shutdown();
    assert!(stats.shed >= 1, "the first attempts must have been shed");
    assert_eq!(stats.completed, 2, "blocker + the retried request");
    assert_eq!(stats.requests, stats.accepted + stats.shed);
    assert_eq!(
        stats.accepted,
        stats.completed + stats.timeouts + stats.errors
    );
    assert_latency_matches_ledger(&stats);
}

/// Kill the daemon in the middle of a retrying closed-loop burst, rebind
/// it on the same socket, and require zero lost replies: every request
/// is answered exactly once, by one daemon or the other. The clients must
/// go back to sending the network by key, and no key they learned from
/// the first daemon may reach the second.
#[test]
fn killed_and_restarted_daemon_loses_no_replies() {
    let inst = quick_instance();
    let socket = socket_path("restart");
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind(&socket, config.clone()).expect("bind");

    const REQUESTS: usize = 192;
    let cfg = LoadConfig {
        connections: 4,
        requests: REQUESTS,
        retry: Some(RetryPolicy {
            max_attempts: 16,
            base_ms: 20,
            max_backoff_ms: 500,
            ..RetryPolicy::default()
        }),
        ..LoadConfig::default()
    };
    let instances = [inst];

    let (report, first, finale) = std::thread::scope(|s| {
        let socket = &socket;
        let burst = s.spawn(|| run_open_loop(socket, &instances, &cfg));
        // kill the moment the burst demonstrably started, so most of the
        // stream still lies ahead of the restart
        while server.stats().completed == 0 {
            std::thread::sleep(Duration::from_micros(500));
        }
        let first = server.shutdown();
        std::thread::sleep(Duration::from_millis(100));
        let restarted = Server::bind(socket, config.clone()).expect("rebind");
        let report = burst.join().expect("loadgen thread").expect("loadgen run");
        let finale = restarted.shutdown();
        (report, first, finale)
    });

    assert_eq!(report.lost, 0, "no reply may vanish across the restart");
    assert_eq!(
        report.ok, REQUESTS,
        "every request is answered exactly once (shed={} timeouts={} server_errors={})",
        report.shed, report.timeouts, report.server_errors
    );
    assert!(
        finale.completed > 0,
        "the restarted daemon must have served the tail of the burst"
    );
    assert!(
        first.completed + finale.completed >= REQUESTS as u64,
        "the two daemons together served at least every request"
    );
    // each daemon's own ledger balances
    for (tag, stats) in [("first", &first), ("restarted", &finale)] {
        assert_eq!(stats.requests, stats.accepted + stats.shed, "{tag}");
        assert_eq!(
            stats.accepted,
            stats.completed + stats.timeouts + stats.errors,
            "{tag}: drained ledger must balance"
        );
        assert_eq!(stats.queue_depth, 0, "{tag}: drain left work queued");
        assert_latency_matches_ledger(stats);
    }
    // the reconnected clients sent inline to the empty restarted daemon,
    // then went back to keys it acknowledged, never a stale one
    assert!(finale.keyed > 0, "no keyed request reached the restart");
    assert_eq!(finale.unknown_keys, 0, "a stale key reached the restart");
}

/// Bursts of error-answered requests must not shrink the worker pool or
/// corrupt the counters: the daemon keeps serving, and the drained
/// ledger balances with the errors on the books.
#[test]
fn error_bursts_do_not_shrink_the_pool() {
    let inst = quick_instance();
    let socket = socket_path("errors");
    let server = Server::bind(
        &socket,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    const BAD: usize = 24;
    let mut client = Client::connect(&socket).expect("connect");
    for k in 0..BAD {
        let mut req = solve_req(&inst);
        req.solver = format!("no_such_solver_{k}");
        match client.solve(req) {
            Err(ClientError::Server(ServeError::UnknownSolver { .. })) => {}
            other => panic!("expected UnknownSolver, got {other:?}"),
        }
        // the pool is still alive after every error
        client.solve(solve_req(&inst)).expect("good solve");
    }

    let stats = server.shutdown();
    assert_eq!(stats.requests, 2 * BAD as u64);
    assert_eq!(stats.errors, BAD as u64);
    assert_eq!(stats.completed, BAD as u64);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.requests, stats.accepted + stats.shed);
    assert_eq!(
        stats.accepted,
        stats.completed + stats.timeouts + stats.errors
    );
    assert_latency_matches_ledger(&stats);
}
