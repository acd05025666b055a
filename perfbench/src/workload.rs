//! The three workloads as deterministic request streams.
//!
//! A workload is a few [`Stream`]s taking turns on one connection; the
//! same seed always yields the same requests in the same order, and the
//! daemon sees only the generated requests. Every call records enough in
//! its [`Check`] for the correctness gate to re-solve the same request in
//! process.

use elpc_mapping::{CostModel, NetworkDelta, NodeId};
use elpc_netgraph::EdgeId;
use elpc_netsim::faults::{FaultConfig, FaultKind, FaultSchedule};
use elpc_netsim::{Link, Network};
use elpc_serving::{RemapRequest, SolveReply, SolveRequest};
use elpc_workloads::bank::bank_key;
use elpc_workloads::{InstanceSpec, ProblemInstance};
use std::sync::Arc;
use std::time::Instant;

/// Pipeline length of every workload (4 stage boundaries, so 4 payloads).
const MODULES: usize = 5;
/// The provably optimal routed delay DP: the reference objective.
pub const DP: &str = "elpc_delay_routed";
/// `banked` solver mix, 2 : 1 : 1 in a fixed cycle.
pub const BANKED_CYCLE: [&str; 4] = [DP, "lns_delay", DP, "portfolio_delay"];
/// Distinct networks `banked` cycles over.
const BANKED_NETWORKS: usize = 4;
/// Size of the `banked` and `cold` networks.
const SMALL: (usize, usize) = (200, 460);
/// Size of the `churn` networks.
const LARGE: (usize, usize) = (500, 1500);
/// Request streams of `banked` and `cold`.
const STREAMS: usize = 2;
/// Evolving networks of `churn`, one per stream, so a run's figures do not
/// hang on one or two networks' structure.
const CHURN_NETWORKS: usize = 4;
/// Cold requests each `cold` stream deposits during set-up.
const COLD_SETUP_PER_CONN: usize = 8;
/// Every this many epochs a `churn` epoch applies a crash or cut instead of
/// bandwidth churn; fault epochs are 20 % of requests, so p90 sits in the
/// middle of their mode, where it is steady.
const FAULT_EVERY: u64 = 5;
/// Links whose bandwidth a plain churn epoch degrades or restores.
const CHURN_LINKS: usize = 3;
/// Plain churn draws from this slowest share of the links: congestion on
/// already slow links, which shortest-path trees seldom use, so a plain
/// epoch repairs few trees and a fault epoch rebuilds most of them. A wider
/// share gives plain epochs a long tail of partial rebuilds, on whose slope
/// p50 swings from run to run.
const CHURN_SLOW_SHARE: f64 = 0.1;
/// One sampled `cold` request in this many goes through the gate.
const COLD_SAMPLE_ONE_IN: u64 = 12;
/// Cap on gated `cold` samples per stream.
const COLD_SAMPLES_PER_CONN: usize = 12;
/// One sampled `churn` epoch in this many goes through the gate.
const CHURN_SAMPLE_ONE_IN: u64 = 24;
/// Cap on gated `churn` samples per stream (each costs a cold
/// reference solve of a large network).
const CHURN_SAMPLES_PER_CONN: usize = 2;

/// The workloads the benchmark defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fixed networks, every checkout hits.
    Banked,
    /// Every request carries a distinct network.
    Cold,
    /// Evolving large networks, remapped with in-place repair.
    Churn,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "banked" => Some(Kind::Banked),
            "cold" => Some(Kind::Cold),
            "churn" => Some(Kind::Churn),
            _ => None,
        }
    }

    /// Request streams of the workload; they take turns on one connection.
    pub fn streams(self) -> usize {
        match self {
            Kind::Banked | Kind::Cold => STREAMS,
            Kind::Churn => CHURN_NETWORKS,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Banked => "banked",
            Kind::Cold => "cold",
            Kind::Churn => "churn",
        }
    }
}

/// SplitMix64 finalizer: derives independent sub-seeds from the workload
/// seed, and drives the churn link picks.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn sub_seed(seed: u64, tag: u64, a: u64, b: u64) -> u64 {
    mix(mix(mix(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F)) ^ a) ^ b)
}

fn generate(size: (usize, usize), seed: u64) -> ProblemInstance {
    InstanceSpec::sized(MODULES, size.0, size.1)
        .generate(seed)
        .expect("the workload sizes always admit a feasible instance")
}

fn solve_request(solver: &str, instance: ProblemInstance) -> SolveRequest {
    SolveRequest {
        solver: solver.to_string(),
        cost: CostModel::default(),
        threads: 1,
        timeout_ms: None,
        instance,
    }
}

/// One request to send.
#[derive(Clone)]
pub enum Call {
    Solve(SolveRequest),
    Remap(RemapRequest),
}

impl Call {
    pub fn solve(&self) -> &SolveRequest {
        match self {
            Call::Solve(s) => s,
            Call::Remap(r) => &r.solve,
        }
    }
}

/// What the gate needs to re-solve a request in process.
#[derive(Clone)]
pub enum Check {
    /// A `banked` request: network index and solver name.
    Banked { net: usize, solver: &'static str },
    /// A gated `cold` or `churn` request, with its instance.
    Sampled(Box<ProblemInstance>),
    /// Not gated individually (checked by the ledger only).
    Unsampled,
}

/// A planned request: the call plus its gate record.
pub struct Planned {
    pub call: Call,
    pub check: Check,
    /// When the client computed the `churn` delta (`NetworkDelta::between`).
    pub between: Option<(Instant, Instant)>,
}

/// A request generator; a workload's streams take turns.
pub enum Stream {
    Banked(BankedStream),
    Cold(ColdStream),
    Churn(Box<ChurnStream>),
}

/// Builds the streams of one workload; this is the
/// set-up's instance generation.
pub fn streams(kind: Kind, seed: u64) -> Vec<Stream> {
    let conns = kind.streams();
    match kind {
        Kind::Banked => {
            let nets: Arc<Vec<ProblemInstance>> = Arc::new(
                (0..BANKED_NETWORKS as u64)
                    .map(|k| generate(SMALL, sub_seed(seed, 1, k, 0)))
                    .collect(),
            );
            (0..conns)
                .map(|c| {
                    Stream::Banked(BankedStream {
                        nets: Arc::clone(&nets),
                        conn: c,
                        conns,
                        // half a solver cycle apart, so the streams'
                        // portfolio requests do not line up
                        next: (c * 2 * BANKED_NETWORKS) as u64,
                    })
                })
                .collect()
        }
        Kind::Cold => (0..conns)
            .map(|c| {
                Stream::Cold(ColdStream {
                    seed,
                    conn: c as u64,
                    next: 0,
                    samples: 0,
                })
            })
            .collect(),
        Kind::Churn => (0..conns)
            .map(|c| Stream::Churn(Box::new(ChurnStream::new(seed, c as u64))))
            .collect(),
    }
}

impl Stream {
    /// The requests this stream sends during set-up: the deposits
    /// every later request of the workload relies on.
    pub fn setup_calls(&mut self) -> Vec<Planned> {
        match self {
            Stream::Banked(s) => s.setup_calls(),
            Stream::Cold(s) => (0..COLD_SETUP_PER_CONN).map(|_| s.next(false)).collect(),
            Stream::Churn(s) => vec![s.base_call()],
        }
    }

    /// The next request; `sample` asks the stream to keep a gate record.
    pub fn next(&mut self, sample: bool) -> Planned {
        match self {
            Stream::Banked(s) => s.next(),
            Stream::Cold(s) => s.next(sample),
            Stream::Churn(s) => s.next(sample),
        }
    }

    /// Feeds back a successful reply (the churn stream deploys it).
    pub fn observe(&mut self, reply: &SolveReply) {
        if let Stream::Churn(s) = self {
            s.deployed = reply.assignment.clone();
        }
    }

    /// The `banked` networks, for the gate.
    pub fn banked_networks(&self) -> Option<&[ProblemInstance]> {
        match self {
            Stream::Banked(s) => Some(&s.nets),
            _ => None,
        }
    }
}

/// `banked`: every stream cycles over the same fixed networks.
pub struct BankedStream {
    nets: Arc<Vec<ProblemInstance>>,
    conn: usize,
    conns: usize,
    next: u64,
}

impl BankedStream {
    /// Stream `c` deposits networks `c, c + conns, …` with the
    /// portfolio, whose member slate materialises every tree any solver of
    /// the mix queries, so later checkouts build none.
    fn setup_calls(&self) -> Vec<Planned> {
        (self.conn..BANKED_NETWORKS)
            .step_by(self.conns)
            .map(|net| Planned {
                call: Call::Solve(solve_request("portfolio_delay", self.nets[net].clone())),
                check: Check::Banked {
                    net,
                    solver: "portfolio_delay",
                },
                between: None,
            })
            .collect()
    }

    fn next(&mut self) -> Planned {
        let i = self.next;
        self.next += 1;
        let net = (i % BANKED_NETWORKS as u64) as usize;
        let slot = (i / BANKED_NETWORKS as u64) % BANKED_CYCLE.len() as u64;
        let solver = BANKED_CYCLE[slot as usize];
        Planned {
            call: Call::Solve(solve_request(solver, self.nets[net].clone())),
            check: Check::Banked { net, solver },
            between: None,
        }
    }
}

/// `cold`: request `i` of stream `c` carries its own network.
pub struct ColdStream {
    seed: u64,
    conn: u64,
    next: u64,
    samples: usize,
}

impl ColdStream {
    fn next(&mut self, sample: bool) -> Planned {
        let i = self.next;
        self.next += 1;
        let inst = generate(SMALL, sub_seed(self.seed, 2, self.conn, i));
        let check = if sample
            && self.samples < COLD_SAMPLES_PER_CONN
            && mix(self.seed ^ mix(self.conn) ^ i).is_multiple_of(COLD_SAMPLE_ONE_IN)
        {
            self.samples += 1;
            Check::Sampled(Box::new(inst.clone()))
        } else {
            Check::Unsampled
        };
        Planned {
            call: Call::Solve(solve_request(DP, inst)),
            check,
            between: None,
        }
    }
}

/// `churn`: one large network per stream, evolving epoch by epoch.
pub struct ChurnStream {
    base: ProblemInstance,
    /// The slowest links of the base network, where plain churn happens.
    slow: Vec<EdgeId>,
    /// The base network with the current bandwidth churn applied (faults
    /// are layered on top per epoch).
    churned: Network,
    /// The network of the previous epoch, as the daemon banked it.
    previous: ProblemInstance,
    deployed: Vec<NodeId>,
    faults: FaultSchedule,
    epoch: u64,
    rng: u64,
    seed: u64,
    conn: u64,
    samples: usize,
    fault_sampled: bool,
}

impl ChurnStream {
    fn new(seed: u64, conn: u64) -> ChurnStream {
        let base = generate(LARGE, sub_seed(seed, 3, conn, 0));
        let cfg = FaultConfig {
            events: 64,
            crash_weight: 1,
            cut_weight: 1,
            degrade_weight: 0,
            transient_fraction: 0.0,
            protect: vec![base.src, base.dst],
            ..FaultConfig::default()
        };
        let faults = FaultSchedule::generate(&base.network, &cfg, sub_seed(seed, 4, conn, 0))
            .expect("fault generation over a valid network succeeds");
        // consecutive fault epochs must differ, or the second delta is empty
        assert!(
            faults.events().len() >= 2,
            "the fault schedule drew too few events"
        );
        let mut slow: Vec<EdgeId> = (0..base.network.link_count())
            .map(|i| EdgeId(2 * i as u32))
            .collect();
        slow.sort_by(|a, b| {
            let bw = |e: &EdgeId| base.network.link(*e).expect("edge in range").bw_mbps;
            bw(a).total_cmp(&bw(b)).then(a.0.cmp(&b.0))
        });
        slow.truncate(((slow.len() as f64 * CHURN_SLOW_SHARE) as usize).max(CHURN_LINKS));
        ChurnStream {
            slow,
            churned: base.network.clone(),
            previous: base.clone(),
            base,
            deployed: Vec::new(),
            faults,
            epoch: 0,
            rng: sub_seed(seed, 5, conn, 0),
            seed,
            conn,
            samples: 0,
            fault_sampled: false,
        }
    }

    /// Epoch 0: the base network, solved cold and banked.
    fn base_call(&self) -> Planned {
        Planned {
            call: Call::Solve(solve_request(DP, self.base.clone())),
            check: Check::Unsampled,
            between: None,
        }
    }

    fn next_rng(&mut self) -> u64 {
        self.rng = mix(self.rng);
        self.rng
    }

    /// Degrades (when at its base value) or restores (when degraded) a few
    /// random slow links.
    fn churn_links(&mut self) {
        for _ in 0..CHURN_LINKS {
            let pick = self.next_rng() % self.slow.len() as u64;
            let edge = self.slow[pick as usize];
            let base = self.base.network.link(edge).expect("edge in range").clone();
            let cur = self.churned.link(edge).expect("edge in range").clone();
            let next = if cur.bw_mbps.to_bits() == base.bw_mbps.to_bits() {
                let factor = 0.2 + 0.6 * (self.next_rng() >> 11) as f64 / (1u64 << 53) as f64;
                Link::new(base.bw_mbps * factor, base.mld_ms)
            } else {
                base
            };
            self.churned
                .set_link_symmetric(edge, next)
                .expect("edge in range");
        }
    }

    /// The network of the current epoch: the churned base plus the fault
    /// in effect. Fault `k` holds from epoch `k·FAULT_EVERY` until the next
    /// fault epoch heals it and applies fault `k + 1`.
    fn network_now(&self) -> Network {
        let mut network = self.churned.clone();
        let active = self.epoch / FAULT_EVERY;
        if active > 0 {
            let events = self.faults.events();
            match &events[((active - 1) % events.len() as u64) as usize].kind {
                FaultKind::NodeCrash { node } => {
                    network.fail_node(*node).expect("node in range");
                }
                FaultKind::LinkCut { link } => {
                    network.fail_link_symmetric(*link).expect("link in range");
                }
                FaultKind::LinkDegrade { .. } => unreachable!("degrade weight is zero"),
            }
        }
        network
    }

    fn next(&mut self, sample: bool) -> Planned {
        self.epoch += 1;
        let fault = self.epoch.is_multiple_of(FAULT_EVERY);
        // a remap with an empty delta is not repaired by the daemon, so a
        // plain epoch churns again until the network really changed (the
        // picked links can sit behind a crashed node)
        let (network, delta, between) = loop {
            if !fault {
                self.churn_links();
            }
            let network = self.network_now();
            let t0 = Instant::now();
            let delta = NetworkDelta::between(&self.previous.network, &network)
                .expect("epochs share the base wiring");
            let between = (t0, Instant::now());
            if !delta.is_empty() {
                break (network, delta, between);
            }
            assert!(!fault, "consecutive faults hit the same element");
        };
        let current = ProblemInstance {
            network,
            pipeline: self.base.pipeline.clone(),
            src: self.base.src,
            dst: self.base.dst,
            label: format!("{} epoch{}", self.base.label, self.epoch),
        };
        let previous = std::mem::replace(&mut self.previous, current.clone());
        let previous_key = bank_key(&previous.as_instance(), &CostModel::default());
        let sampled = sample
            && self.samples < CHURN_SAMPLES_PER_CONN
            && ((fault && !self.fault_sampled)
                || mix(self.seed ^ mix(self.conn) ^ self.epoch)
                    .is_multiple_of(CHURN_SAMPLE_ONE_IN));
        let check = if sampled {
            self.samples += 1;
            self.fault_sampled |= fault;
            Check::Sampled(Box::new(current.clone()))
        } else {
            Check::Unsampled
        };
        Planned {
            call: Call::Remap(RemapRequest {
                solve: solve_request(DP, current),
                previous: self.deployed.clone(),
                previous_key: Some(previous_key),
                delta: Some(delta),
            }),
            check,
            between: Some(between),
        }
    }
}
