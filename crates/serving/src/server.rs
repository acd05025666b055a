//! The `elpc-serve` daemon core.
//!
//! One [`Server`] owns four kinds of threads:
//!
//! * an **acceptor** blocked on the Unix listener, spawning a connection
//!   reader per client;
//! * **connection readers** that decode frames, answer `Ping`/`Stats`
//!   inline, resolve keyed requests against the bank, and enqueue
//!   solve/remap work;
//! * a **worker pool** pulling jobs from one crossbeam channel, so a slow
//!   solve never blocks the accept path or other requests;
//! * the caller's thread, which owns the [`Server`] handle and drives
//!   drain/shutdown.
//!
//! All workers share one [`ClosureBank`], and concurrent requests hitting
//! the same bank key (topology fingerprint × cost model × payload set)
//! are **coalesced**: the first such request is elected *leader* and
//! builds the all-pairs closure once; the rest wait on its completion and
//! then check the deposited closure out as a bank hit. Each request calls
//! [`ClosureBank::context_for`] exactly once, so the bank's
//! `hits + misses` always equals the number of executed solve requests —
//! the soak suite pins this exactness.
//!
//! A bank entry also holds its network once a request checks the key out
//! as a hit, so a client that was told a network's key
//! ([`SolveReply::network_key`]) can send later requests on it by key
//! ([`Request::SolveKeyed`], [`Request::RemapKeyed`]). The
//! reader resolves a keyed request into the same work item an inline
//! request becomes, with the instance's bank key computed once; a key the
//! bank does not hold is refused with [`ServeError::UnknownNetwork`]
//! before admission, so it touches none of the ledger counters.
//!
//! The work queue is **bounded** ([`ServerConfig::queue_capacity`]):
//! requests beyond the bound are shed with a typed
//! [`ServeError::Overloaded`] reply carrying a `retry_after_ms` hint
//! instead of queueing without limit, so an open-loop overload keeps
//! tail latency bounded. The counters keep two invariants exact:
//! `requests == accepted + shed` at all times, and once drained
//! `accepted == completed + timeouts + errors`.
//!
//! Connection readers block on plain reads. The daemon holds one entry
//! per *live* connection (a stream clone and the reader's handle); a
//! reader removes its own entry when its connection ends.
//!
//! Shutdown is a **drain**: new work is refused with
//! [`ServeError::ShuttingDown`], and every live connection's read half is
//! shut down. A reader then still reads the frames its client sent before
//! the drain, answers each (work with `ShuttingDown`), sees EOF and ends;
//! the client's later writes fail with a broken pipe. Queued work still
//! completes and its responses are written, since a read-half shutdown
//! leaves the write half open. Then workers stop on sentinel jobs and the
//! socket file is removed.

use crate::histogram::LatencyHistogram;
use crate::keyset::KeySet;
use crate::protocol::{
    decode_request, encode_response, read_frame, write_frame, FrameError, KeyedRemapRequest,
    KeyedSolveRequest, RemapReply, Request, Response, ResponseFrame, ServeError, SolveFailure,
    SolveReply, SolveRequest, StatsReply,
};
use crossbeam::channel;
use elpc_mapping::par::effective_threads;
use elpc_mapping::{solver, Instance, NetworkDelta, NodeId};
use elpc_workloads::bank::{BankedNetwork, ClosureBank};
use elpc_workloads::ProblemInstance;
use std::collections::HashMap;
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads in the solve pool (0 = one per available CPU).
    pub workers: usize,
    /// [`ClosureBank`] capacity in distinct keys.
    pub bank_capacity: usize,
    /// Admission bound on queued-plus-executing work (0 = unbounded).
    /// Requests arriving when the queue is full are **shed** with a typed
    /// [`ServeError::Overloaded`] carrying a `retry_after_ms` hint instead
    /// of growing the queue without limit.
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            bank_capacity: 64,
            queue_capacity: 1024,
        }
    }
}

enum Job {
    Work(Box<WorkItem>),
    Stop,
}

/// A solve or remap resolved to the network it runs on. Connection
/// readers turn inline and keyed requests alike into one of these, so
/// everything after admission takes one path.
struct Work {
    /// The request's knobs, pipeline and endpoints; `solve.key` is the
    /// instance's bank key, computed once, in the reader.
    solve: KeyedSolveRequest,
    network: BankedNetwork,
    remap: Option<RemapWork>,
}

struct RemapWork {
    previous: Vec<NodeId>,
    /// `(previous_key, delta)` when the client asked for an in-place repair.
    repair: Option<(u64, NetworkDelta)>,
}

impl Work {
    fn inline(s: SolveRequest, remap: Option<RemapWork>) -> Work {
        let ProblemInstance {
            network,
            pipeline,
            src,
            dst,
            ..
        } = s.instance;
        let network = BankedNetwork::new(Arc::new(network));
        let solve = KeyedSolveRequest {
            key: network.key(&pipeline, &s.cost),
            solver: s.solver,
            cost: s.cost,
            threads: s.threads,
            timeout_ms: s.timeout_ms,
            pipeline,
            src,
            dst,
        };
        Work {
            solve,
            network,
            remap,
        }
    }
}

struct WorkItem {
    id: u64,
    work: Work,
    submitted: Instant,
    deadline: Option<Instant>,
    writer: SharedWriter,
}

type SharedWriter = Arc<parking_lot::Mutex<UnixStream>>;

/// A one-way flag threads block on until it is released: a closure build
/// its followers wait for, or a client's shutdown request.
#[derive(Default)]
struct Latch {
    done: StdMutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn wait(&self) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = self.cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn release(&self) {
        *self.done.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    accepted: AtomicU64,
    shed: AtomicU64,
    errors: AtomicU64,
    timeouts: AtomicU64,
    coalesced: AtomicU64,
    keyed: AtomicU64,
    unknown_keys: AtomicU64,
    queue_depth: AtomicU64,
    max_queue_depth: AtomicU64,
    /// Every completed request's latency from admission to a ready reply;
    /// its count is `completed`, and its exact mean feeds the shed path's
    /// `retry_after_ms` hint without a lock.
    latency: LatencyHistogram,
}

struct Shared {
    path: PathBuf,
    bank: ClosureBank,
    tx: channel::Sender<Job>,
    draining: AtomicBool,
    shutdown_requested: Latch,
    /// Live connections by id: a clone of the stream, so a drain can shut
    /// its read half, and the reader's handle, so the drain can join it.
    conns: parking_lot::Mutex<HashMap<u64, (UnixStream, JoinHandle<()>)>>,
    coalesce: StdMutex<HashMap<u64, Arc<Latch>>>,
    /// Keys whose leader's solve never materialized a closure (a strict
    /// solver that works link-level, not on the metric closure). Such keys
    /// can never turn into bank hits, so coalescing them again would just
    /// serialize independent solves. Bounded first-in, first-out at the
    /// bank's capacity.
    no_closure: parking_lot::Mutex<KeySet>,
    /// CPUs this process may use: the cap on a request's `threads`.
    cpus: usize,
    workers: u64,
    queue_capacity: u64,
    stats: Counters,
}

impl Shared {
    fn new(path: PathBuf, config: &ServerConfig, tx: channel::Sender<Job>, workers: usize) -> Self {
        let bank_capacity = config.bank_capacity.max(1);
        Shared {
            path,
            bank: ClosureBank::with_capacity(bank_capacity),
            tx,
            draining: AtomicBool::new(false),
            shutdown_requested: Latch::default(),
            conns: parking_lot::Mutex::new(HashMap::new()),
            coalesce: StdMutex::new(HashMap::new()),
            no_closure: parking_lot::Mutex::new(KeySet::with_capacity(bank_capacity)),
            cpus: effective_threads(0),
            workers: workers as u64,
            queue_capacity: config.queue_capacity as u64,
            stats: Counters::default(),
        }
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// A request's `threads` capped at the CPUs this process may use
    /// (`0`, all CPUs, stays `0`). Results are bit-identical at any thread
    /// count, so the cap changes no answer, only how many threads one
    /// request can make the daemon start.
    fn capped_threads(&self, threads: usize) -> usize {
        threads.min(self.cpus)
    }

    /// `retry_after_ms` hint answered with [`ServeError::Overloaded`]:
    /// roughly how long the current backlog takes to clear.
    fn retry_after_ms(&self) -> u64 {
        retry_after_hint(
            self.stats.queue_depth.load(Ordering::SeqCst),
            self.stats.latency.mean_ms().unwrap_or(10.0),
            self.workers,
        )
    }

    fn stats_snapshot(&self) -> StatsReply {
        let bank = self.bank.stats();
        let latency = self.stats.latency.summary();
        StatsReply {
            requests: self.stats.requests.load(Ordering::Relaxed),
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            completed: latency.count,
            errors: self.stats.errors.load(Ordering::Relaxed),
            timeouts: self.stats.timeouts.load(Ordering::Relaxed),
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
            queue_depth: self.stats.queue_depth.load(Ordering::Relaxed),
            max_queue_depth: self.stats.max_queue_depth.load(Ordering::Relaxed),
            workers: self.workers,
            bank_hits: bank.hits,
            bank_misses: bank.misses,
            bank_deposits: bank.deposits,
            bank_repairs: bank.repairs,
            keyed: self.stats.keyed.load(Ordering::Relaxed),
            unknown_keys: self.stats.unknown_keys.load(Ordering::Relaxed),
            latency,
        }
    }
}

/// Backlog-drain estimate for shed replies: `depth` jobs at
/// `mean_latency_ms` each across `workers` lanes, clamped to
/// [10 ms, 10 s] so clients never busy-spin or stall for minutes on a
/// skewed sample.
fn retry_after_hint(depth: u64, mean_latency_ms: f64, workers: u64) -> u64 {
    let est = depth as f64 * mean_latency_ms / workers.max(1) as f64;
    (est.ceil() as u64).clamp(10, 10_000)
}

/// A running solve daemon bound to a Unix socket.
///
/// Dropping the handle performs a full drain/shutdown; call
/// [`Server::shutdown`] to do it explicitly and receive the final
/// statistics snapshot.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the daemon to `path` and starts its threads.
    ///
    /// A pre-existing file at `path` is removed first (a stale socket from
    /// a crashed daemon would otherwise make the bind fail forever).
    pub fn bind<P: AsRef<Path>>(path: P, config: ServerConfig) -> std::io::Result<Server> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        let workers = effective_threads(config.workers);
        let (tx, rx) = channel::unbounded::<Job>();
        let shared = Arc::new(Shared::new(path, &config, tx, workers));
        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("elpc-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("elpc-serve-accept".into())
                .spawn(move || acceptor_loop(&shared, &listener))?
        };
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The socket path clients connect to.
    pub fn socket_path(&self) -> &Path {
        &self.shared.path
    }

    /// Worker threads in the pool.
    pub fn worker_count(&self) -> usize {
        self.workers.len().max(self.shared.workers as usize)
    }

    /// The shared closure bank (exposed for the soak suite's exactness
    /// assertions).
    pub fn bank(&self) -> &ClosureBank {
        &self.shared.bank
    }

    /// A point-in-time statistics snapshot.
    pub fn stats(&self) -> StatsReply {
        self.shared.stats_snapshot()
    }

    /// Blocks until a client requests shutdown via [`Request::Shutdown`],
    /// then returns (the caller still owns the handle and performs the
    /// actual [`Server::shutdown`]).
    pub fn run_until_shutdown(&self) {
        self.shared.shutdown_requested.wait();
    }

    /// Drains and stops the daemon: refuses new work, completes and
    /// answers everything already queued, joins every thread, removes the
    /// socket file, and returns the final statistics.
    pub fn shutdown(mut self) -> StatsReply {
        self.shutdown_impl();
        self.shared.stats_snapshot()
    }

    fn shutdown_impl(&mut self) {
        if self.acceptor.is_none() && self.workers.is_empty() {
            return; // already shut down
        }
        self.shared.draining.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection; it re-checks
        // the drain flag after every accept.
        let _ = UnixStream::connect(&self.shared.path);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // The acceptor is gone, so no connection is added from here on.
        // Shutting a read half wakes its blocked reader, which answers what
        // was already sent, then sees EOF.
        let conns = std::mem::take(&mut *self.shared.conns.lock());
        for (stream, _) in conns.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for (_, (_, h)) in conns {
            let _ = h.join();
        }
        // No producers remain: everything queued ahead of the sentinels
        // still executes, then each worker consumes exactly one Stop.
        for _ in 0..self.workers.len() {
            let _ = self.shared.tx.send(Job::Stop);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.shared.path);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

// ---------------------------------------------------------------------------
// Acceptor and connection readers
// ---------------------------------------------------------------------------

fn acceptor_loop(shared: &Arc<Shared>, listener: &UnixListener) {
    for id in 0u64.. {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.draining() {
                    break; // the wake-up connection, or a drain race
                }
                let Ok(handle) = stream.try_clone() else {
                    continue;
                };
                // Held across the spawn, so the reader's own removal of
                // its entry cannot run before the entry exists.
                let mut conns = shared.conns.lock();
                let sh = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("elpc-serve-conn".into())
                    .spawn(move || {
                        connection_loop(&sh, stream);
                        // ended: dropping its entry detaches this thread
                        sh.conns.lock().remove(&id);
                    });
                if let Ok(h) = spawned {
                    conns.insert(id, (handle, h));
                }
            }
            Err(_) => {
                if shared.draining() {
                    break;
                }
            }
        }
    }
}

fn connection_loop(shared: &Arc<Shared>, stream: UnixStream) {
    let writer: SharedWriter = match stream.try_clone() {
        Ok(w) => Arc::new(parking_lot::Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = stream;
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            // Clean EOF between frames (a drain shuts the read half, so it
            // ends here too); queued work for this connection still
            // answers through the writer clone.
            Ok(None) => break,
            // Truncated/oversized/io: the stream is no longer framed;
            // nothing can be answered reliably, so drop the connection.
            Err(_) => break,
        };
        let req = match decode_request(&frame) {
            Ok(f) => f,
            Err(e) => {
                // The frame boundary is intact, so answer the typed error
                // and keep serving: under the request's id when its header
                // decoded, else id 0 (the real id is unrecoverable).
                let id = match e {
                    FrameError::Body { id, .. } => id,
                    _ => 0,
                };
                respond(
                    &writer,
                    id,
                    Response::Error(ServeError::Malformed {
                        detail: e.to_string(),
                    }),
                );
                continue;
            }
        };
        match req.body {
            Request::Ping => {
                respond(&writer, req.id, Response::Pong);
            }
            Request::Stats => {
                respond(&writer, req.id, Response::Stats(shared.stats_snapshot()));
            }
            Request::Shutdown => {
                respond(&writer, req.id, Response::ShuttingDown);
                shared.draining.store(true, Ordering::SeqCst);
                shared.shutdown_requested.release();
                break;
            }
            Request::Solve(s) => enqueue(shared, req.id, Work::inline(s, None), &writer),
            Request::Remap(r) => {
                let remap = RemapWork {
                    previous: r.previous,
                    repair: r.previous_key.zip(r.delta),
                };
                enqueue(shared, req.id, Work::inline(r.solve, Some(remap)), &writer);
            }
            Request::SolveKeyed(s) => {
                let resolved = resolve_solve(shared, s);
                enqueue_keyed(shared, req.id, resolved, &writer);
            }
            Request::RemapKeyed(r) => {
                let resolved = resolve_remap(shared, r);
                enqueue_keyed(shared, req.id, resolved, &writer);
            }
        }
    }
}

/// The network a keyed solve names: the one banked under its key, when
/// that key is this network's under the request's pipeline and cost model.
fn resolve_solve(shared: &Shared, s: KeyedSolveRequest) -> Result<Work, ServeError> {
    let network = shared
        .bank
        .network(s.key)
        .filter(|net| net.key(&s.pipeline, &s.cost) == s.key)
        .ok_or(ServeError::UnknownNetwork { key: s.key })?;
    Ok(Work {
        solve: s,
        network,
        remap: None,
    })
}

/// The network a keyed remap names: the delta applied to the network
/// banked under `previous_key`, when the result has the key the request
/// names. The base must be banked under the request's own pipeline and
/// cost model too, or its trees could not be repaired into the new key.
fn resolve_remap(shared: &Shared, r: KeyedRemapRequest) -> Result<Work, ServeError> {
    let KeyedRemapRequest {
        solve,
        previous,
        previous_key,
        delta,
    } = r;
    let base = shared
        .bank
        .network(previous_key)
        .filter(|net| net.key(&solve.pipeline, &solve.cost) == previous_key)
        .ok_or(ServeError::UnknownNetwork { key: previous_key })?;
    let network = delta
        .apply(base.network())
        .ok()
        .map(|net| BankedNetwork::new(Arc::new(net)))
        .filter(|net| net.key(&solve.pipeline, &solve.cost) == solve.key)
        .ok_or(ServeError::UnknownNetwork { key: solve.key })?;
    let remap = RemapWork {
        previous,
        repair: Some((previous_key, delta)),
    };
    Ok(Work {
        solve,
        network,
        remap: Some(remap),
    })
}

/// Enqueues a resolved keyed request, or refuses an unresolved one before
/// admission: the refusal moves only `unknown_keys`, never the ledger.
fn enqueue_keyed(
    shared: &Arc<Shared>,
    id: u64,
    resolved: Result<Work, ServeError>,
    writer: &SharedWriter,
) {
    match resolved {
        Ok(work) => {
            shared.stats.keyed.fetch_add(1, Ordering::Relaxed);
            enqueue(shared, id, work, writer);
        }
        Err(e) => {
            shared.stats.unknown_keys.fetch_add(1, Ordering::Relaxed);
            respond(writer, id, Response::Error(e));
        }
    }
}

/// Admission control: reserves one queue slot, or refuses.
///
/// A compare-and-swap loop on `queue_depth` makes the bound exact under
/// concurrent readers — two connections racing for the last slot cannot
/// both win, so `max_queue_depth` never exceeds `queue_capacity`. On
/// refusal the caller sheds the request with [`ServeError::Overloaded`].
fn try_admit(shared: &Shared) -> Option<u64> {
    if shared.queue_capacity == 0 {
        return Some(shared.stats.queue_depth.fetch_add(1, Ordering::SeqCst) + 1);
    }
    let mut cur = shared.stats.queue_depth.load(Ordering::SeqCst);
    loop {
        if cur >= shared.queue_capacity {
            return None;
        }
        match shared.stats.queue_depth.compare_exchange(
            cur,
            cur + 1,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => return Some(cur + 1),
            Err(actual) => cur = actual,
        }
    }
}

fn enqueue(shared: &Arc<Shared>, id: u64, mut work: Work, writer: &SharedWriter) {
    if shared.draining() {
        respond(writer, id, Response::Error(ServeError::ShuttingDown));
        return;
    }
    work.solve.threads = shared.capped_threads(work.solve.threads);
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    let Some(depth) = try_admit(shared) else {
        // Queue full: shed instead of queueing without bound. The typed
        // refusal carries a backlog-drain estimate so well-behaved
        // clients back off rather than hammer.
        shared.stats.shed.fetch_add(1, Ordering::Relaxed);
        respond(
            writer,
            id,
            Response::Error(ServeError::Overloaded {
                retry_after_ms: shared.retry_after_ms(),
            }),
        );
        return;
    };
    shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .max_queue_depth
        .fetch_max(depth, Ordering::SeqCst);
    let submitted = Instant::now();
    let deadline = work
        .solve
        .timeout_ms
        .map(|ms| submitted + Duration::from_millis(ms));
    let item = Box::new(WorkItem {
        id,
        work,
        submitted,
        deadline,
        writer: Arc::clone(writer),
    });
    if shared.tx.send(Job::Work(item)).is_err() {
        // Drain raced the admission: the job will never execute, so its
        // accepted slot settles as an error to keep
        // `accepted == completed + timeouts + errors` exact.
        shared.stats.queue_depth.fetch_sub(1, Ordering::SeqCst);
        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        respond(writer, id, Response::Error(ServeError::ShuttingDown));
    }
}

fn respond(writer: &SharedWriter, id: u64, body: Response) {
    let json = encode_response(&ResponseFrame { id, body });
    let mut w = writer.lock();
    let _ = write_frame(&mut *w, json.as_bytes());
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>, rx: &channel::Receiver<Job>) {
    // `Stop` sentinels (one per worker, queued behind the remaining work
    // during drain) and a closed channel both end the loop
    while let Ok(Job::Work(item)) = rx.recv() {
        let (id, writer) = (item.id, Arc::clone(&item.writer));
        // `handle_item` already converts solver panics into typed
        // `Internal` replies; this outer net catches a panic anywhere
        // else in the request path so a poisoned job can never shrink
        // the worker pool.
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| handle_item(shared, *item)));
        if run.is_err() {
            // handle_item never reached its own accounting: settle the
            // slot as an error so queue_depth and the
            // accepted == completed + timeouts + errors invariant stay
            // exact, and still answer the client.
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            shared.stats.queue_depth.fetch_sub(1, Ordering::SeqCst);
            respond(
                &writer,
                id,
                Response::Error(ServeError::Internal {
                    detail: "worker panicked outside the solve scope".to_string(),
                }),
            );
        }
    }
}

fn handle_item(shared: &Arc<Shared>, item: WorkItem) {
    let queue_ms = item.submitted.elapsed().as_secs_f64() * 1e3;
    let body = if expired(&item) {
        Response::Error(timeout_error(&item))
    } else {
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| execute(shared, &item, queue_ms)));
        match run {
            Ok(Ok(_)) if expired(&item) => Response::Error(timeout_error(&item)),
            Ok(Ok(response)) => response,
            Ok(Err(e)) => Response::Error(e),
            Err(panic) => Response::Error(ServeError::Internal {
                detail: panic_detail(panic.as_ref()),
            }),
        }
    };
    match &body {
        Response::Error(ServeError::Timeout { .. }) => {
            shared.stats.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        Response::Error(_) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        _ => shared.stats.latency.record(item.submitted.elapsed()),
    }
    respond(&item.writer, item.id, body);
    shared.stats.queue_depth.fetch_sub(1, Ordering::SeqCst);
}

fn expired(item: &WorkItem) -> bool {
    item.deadline.is_some_and(|d| Instant::now() >= d)
}

fn timeout_error(item: &WorkItem) -> ServeError {
    ServeError::Timeout {
        waited_ms: item.submitted.elapsed().as_millis() as u64,
    }
}

fn panic_detail(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Runs one admitted solve or remap to its response.
fn execute(shared: &Arc<Shared>, item: &WorkItem, queue_ms: f64) -> Result<Response, ServeError> {
    let work = &item.work;
    let s = &work.solve;
    let inst = Instance::new(work.network.network(), &s.pipeline, s.src, s.dst);
    let Some(remap) = &work.remap else {
        return run_solve(shared, work, inst, item, queue_ms).map(Response::Solved);
    };
    let repaired = match (&remap.repair, &inst) {
        (Some((previous_key, delta)), Ok(inst)) => {
            try_repair(shared, s, *inst, *previous_key, delta)
        }
        _ => false, // run_solve surfaces the Malformed error
    };
    let reply = run_solve(shared, work, inst, item, queue_ms)?;
    Ok(Response::Remapped(RemapReply {
        changed: reply.assignment != remap.previous,
        reply,
        repaired,
    }))
}

/// Attempts a remap's in-place bank repair: migrates the closure banked
/// under `previous_key` to the perturbed instance's key (repairing only
/// the trees the delta can affect), so the solve that follows checks out
/// a **hit**. A key that is not banked, or an empty delta, falls through
/// to the normal path — a failed repair is never an error, just a cold
/// solve. The delta is the client's contract: it must be the exact
/// perturbation between the instance it banked earlier and this one.
fn try_repair(
    shared: &Shared,
    s: &KeyedSolveRequest,
    inst: Instance<'_>,
    previous_key: u64,
    delta: &NetworkDelta,
) -> bool {
    !delta.is_empty()
        && shared
            .bank
            .update_in_place_keyed(previous_key, s.key, inst, s.cost, delta, s.threads)
            .is_some()
}

/// Runs one solve request to a reply, coalescing closure builds.
fn run_solve(
    shared: &Arc<Shared>,
    work: &Work,
    inst: elpc_mapping::Result<Instance<'_>>,
    item: &WorkItem,
    queue_ms: f64,
) -> Result<SolveReply, ServeError> {
    let s = &work.solve;
    let entry = solver(&s.solver).ok_or_else(|| ServeError::UnknownSolver {
        name: s.solver.clone(),
    })?;
    let inst = inst.map_err(|e| ServeError::Malformed {
        detail: e.to_string(),
    })?;
    let key = s.key;
    let start = Instant::now();
    let (coalesced, leader) = coalesce(shared, key);
    // A coalesce follower blocks on the leader's closure build and can
    // out-wait its deadline in there — the dequeue-time expiry check has
    // already passed. Answer `Timeout` before the bank checkout below:
    // an expired request must not burn a solve, and hits + misses must
    // keep counting only executed solves. Dropping the guard lets any
    // remaining followers re-elect a leader.
    if expired(item) {
        drop(leader);
        return Err(timeout_error(item));
    }
    let banked = shared.bank.contains_key(key);
    // The one and only checkout this request makes: the bank's
    // hits + misses stays exactly equal to executed solve requests.
    let ctx = shared.bank.context_for_key(key, inst, s.cost, s.threads);
    let result = entry.solve(&ctx);
    if leader.is_some() {
        // Deposit BEFORE the guard drops: a racer that sees the in-flight
        // entry gone must also see the deposited closure, or it would
        // elect itself leader and build the same closure a second time.
        shared.bank.deposit_keyed(key, &ctx);
        if !shared.bank.contains_key(key) {
            // The solver never touched the metric closure; remember that
            // so later requests for this key skip the (useless) election.
            shared.no_closure.lock().insert(key);
        }
    }
    drop(leader);
    let solution = result.map_err(|e| ServeError::Solve(SolveFailure::from_mapping(&e)))?;
    Ok(SolveReply {
        solver: s.solver.clone(),
        assignment: solution.assignment,
        objective_ms: solution.objective_ms,
        banked,
        coalesced,
        queue_ms,
        solve_ms: start.elapsed().as_secs_f64() * 1e3,
        // The bank keeps a network once its key is checked out again, so
        // networks seen once cost no memory.
        network_key: (banked && shared.bank.keep_network(key, &work.network)).then_some(key),
    })
}

/// Removes the in-flight entry for `key` and wakes its followers when the
/// leader finishes — on success, error, or panic (the guard drops during
/// unwinding too).
struct LeaderGuard<'a> {
    shared: &'a Shared,
    key: u64,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        let entry = self
            .shared
            .coalesce
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&self.key);
        if let Some(fl) = entry {
            fl.release();
        }
    }
}

/// Coalesces this request onto any in-flight closure build for `key`.
///
/// Returns `(waited, leader_guard)`: `waited` is true when the request
/// blocked on another request's build; the guard is `Some` when this
/// request was elected leader and must build + deposit the closure.
fn coalesce<'a>(shared: &'a Shared, key: u64) -> (bool, Option<LeaderGuard<'a>>) {
    let mut waited = false;
    if shared.bank.contains_key(key) || shared.no_closure.lock().contains(key) {
        return (waited, None);
    }
    loop {
        enum Role {
            Banked,
            Lead,
            Wait(Arc<Latch>),
        }
        let role = {
            let mut map = shared.coalesce.lock().unwrap_or_else(|e| e.into_inner());
            if shared.bank.contains_key(key) || shared.no_closure.lock().contains(key) {
                Role::Banked
            } else if let Some(fl) = map.get(&key) {
                Role::Wait(Arc::clone(fl))
            } else {
                map.insert(key, Arc::new(Latch::default()));
                Role::Lead
            }
        };
        match role {
            Role::Banked => return (waited, None),
            Role::Lead => return (waited, Some(LeaderGuard { shared, key })),
            Role::Wait(fl) => {
                if !waited {
                    shared.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                    waited = true;
                }
                fl.wait();
                // Re-check from the top: the leader may have failed before
                // depositing, in which case someone must rebuild.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shared(queue_capacity: usize) -> Shared {
        let config = ServerConfig {
            bank_capacity: 1,
            queue_capacity,
            ..ServerConfig::default()
        };
        Shared::new(PathBuf::new(), &config, channel::unbounded().0, 1)
    }

    #[test]
    fn retry_after_hint_scales_and_clamps() {
        // 8 queued × 50 ms each over 4 workers ≈ 100 ms of backlog
        assert_eq!(retry_after_hint(8, 50.0, 4), 100);
        // never below 10 ms (empty queue / tiny jobs)…
        assert_eq!(retry_after_hint(0, 50.0, 4), 10);
        assert_eq!(retry_after_hint(1, 0.001, 64), 10);
        // …never above 10 s (skewed first sample), and 0 workers is safe
        assert_eq!(retry_after_hint(10_000, 5_000.0, 0), 10_000);
    }

    #[test]
    fn admission_is_exact_at_the_bound() {
        let shared = test_shared(3);
        assert_eq!(try_admit(&shared), Some(1));
        assert_eq!(try_admit(&shared), Some(2));
        assert_eq!(try_admit(&shared), Some(3));
        assert_eq!(try_admit(&shared), None); // full: shed
        shared.stats.queue_depth.fetch_sub(1, Ordering::SeqCst);
        assert_eq!(try_admit(&shared), Some(3)); // slot freed: admitted again
    }

    #[test]
    fn request_threads_are_capped_at_the_cpu_count() {
        let shared = test_shared(1);
        assert_eq!(shared.capped_threads(usize::MAX), effective_threads(0));
        assert_eq!(shared.capped_threads(0), 0, "0 still means all CPUs");
        assert_eq!(shared.capped_threads(1), 1);
    }

    #[test]
    fn zero_capacity_means_unbounded() {
        let shared = test_shared(0);
        for expect in 1..=4096u64 {
            assert_eq!(try_admit(&shared), Some(expect));
        }
    }

    /// The no-closure set forgets its oldest keys at the bank's capacity
    /// instead of growing with every distinct key a strict solver sees.
    #[test]
    fn no_closure_set_is_bounded_by_the_bank_capacity() {
        let socket = std::env::temp_dir().join(format!(
            "elpc-server-no-closure-{}.sock",
            std::process::id()
        ));
        let capacity = 3;
        let server = Server::bind(
            &socket,
            ServerConfig {
                workers: 1,
                bank_capacity: capacity,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut client = crate::Client::connect(&socket).unwrap();
        let spec = elpc_workloads::InstanceSpec::sized(3, 6, 9);
        for seed in 0..(3 * capacity as u64) {
            client
                .solve(SolveRequest {
                    // the strict DP works link-level and never touches the
                    // metric closure
                    solver: "elpc_delay".into(),
                    cost: elpc_mapping::CostModel::default(),
                    threads: 1,
                    timeout_ms: None,
                    instance: spec.generate(seed).unwrap(),
                })
                .unwrap();
            assert!(server.shared.no_closure.lock().len() <= capacity);
        }
        assert!(server.bank().is_empty(), "strict solves deposit nothing");
        assert_eq!(server.shared.no_closure.lock().len(), capacity);
        server.shutdown();
    }

    /// `run_until_shutdown` blocks on the shutdown latch and returns once a
    /// client asks the daemon to exit.
    #[test]
    fn a_client_shutdown_ends_run_until_shutdown() {
        let socket =
            std::env::temp_dir().join(format!("elpc-server-run-until-{}.sock", std::process::id()));
        let server = Server::bind(
            &socket,
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || {
            server.run_until_shutdown();
            let _ = tx.send(server.shutdown());
        });
        crate::Client::connect(&socket).unwrap().shutdown().unwrap();
        let stats = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("run_until_shutdown returns after a client's shutdown");
        assert_eq!(stats.requests, 0);
        waiter.join().unwrap();
        assert!(!socket.exists(), "the drain removed the socket file");
    }

    #[test]
    fn a_latch_wakes_all_waiters() {
        let fl = Arc::new(Latch::default());
        let joined: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let fl = Arc::clone(&fl);
                    s.spawn(move || {
                        fl.wait();
                        true
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(10));
            fl.release();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(joined, vec![true; 4]);
    }
}
