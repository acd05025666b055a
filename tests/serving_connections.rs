//! Connection lifecycle of the `elpc-serve` daemon.
//!
//! The daemon holds one entry per *live* connection, so connections that
//! come and go leave nothing behind: 2 000 sequential connections do not
//! grow the process's address space by a reader stack each. A drain ends
//! idle connections by shutting their read halves, so it does not wait on
//! clients that never send anything.
//!
//! This binary reads its own `/proc/self/status`, so it runs its tests one
//! at a time and holds no other daemon.

use elpc_serving::protocol::{decode_response, encode_request, read_frame, write_frame};
use elpc_serving::{Client, Request, RequestFrame, Response, Server, ServerConfig};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Keeps the tests of this binary from running side by side, so one
/// test's threads never show up in the other's memory readings.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("elpc-conns-{}-{tag}.sock", std::process::id()))
}

/// A numeric field of `/proc/self/status`, such as `VmSize` (in KiB) or
/// `Threads`.
fn status_field(name: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("no {name} line in /proc/self/status"))
}

/// Waits until this process runs at most `threads` threads again, so the
/// last connection's reader has exited. A thread that starts while
/// another still holds its malloc arena gets a new 64 MiB arena, which
/// would show up in `VmSize` as if it were a kept reader.
fn await_threads(threads: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while status_field("Threads") > threads {
        assert!(
            Instant::now() < deadline,
            "a reader outlived its closed connection"
        );
        std::thread::sleep(Duration::from_micros(50));
    }
}

fn one_worker() -> ServerConfig {
    ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }
}

/// A finished connection's reader is not kept: 2 000 ping-and-close
/// connections, one after another, grow the address space by far less
/// than the 2 MiB reader stack each would keep (about 4 GB in all). Each
/// connection's reader exits before the next connection opens.
#[test]
fn finished_connections_leave_nothing_behind() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let socket = socket_path("churn");
    let server = Server::bind(&socket, one_worker()).expect("bind");
    let threads = status_field("Threads");
    let ping_and_close = || {
        let mut client = Client::connect(&socket).expect("connect");
        client.ping().expect("pong");
        drop(client);
        await_threads(threads);
    };
    // the acceptor and the first reader take their arenas here, before
    // the baseline
    ping_and_close();
    let before = status_field("VmSize");
    for _ in 0..2_000 {
        ping_and_close();
    }
    let grown_mib = status_field("VmSize").saturating_sub(before) / 1024;
    server.shutdown();
    assert!(
        grown_mib < 256,
        "2 000 closed connections grew VmSize by {grown_mib} MiB"
    );
}

/// A drain does not wait for idle clients: with 32 connections open and
/// silent, `shutdown` returns within 2 s, and every client then reads a
/// clean EOF.
#[test]
fn a_drain_ends_idle_connections() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let socket = socket_path("idle");
    let server = Server::bind(&socket, one_worker()).expect("bind");
    let ping = encode_request(&RequestFrame {
        id: 1,
        body: Request::Ping,
    });
    let mut idle: Vec<_> = (0..32)
        .map(|_| {
            let mut stream = UnixStream::connect(&socket).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .expect("timeout");
            // once answered, the connection's reader is running
            write_frame(&mut stream, ping.as_bytes()).expect("send ping");
            let pong = read_frame(&mut stream).expect("read").expect("a frame");
            assert!(matches!(
                decode_response(&pong).expect("decode").body,
                Response::Pong
            ));
            stream
        })
        .collect();

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.shutdown());
    });
    let stats = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("shutdown waited on idle connections");
    assert_eq!(stats.requests, 0, "pings are not solve requests");
    assert!(!socket.exists(), "drain must remove the socket file");
    for stream in &mut idle {
        assert!(
            read_frame(stream).expect("EOF, not an error").is_none(),
            "a drained connection ends with a clean EOF"
        );
    }
}
