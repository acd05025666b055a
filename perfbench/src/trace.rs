//! The traced run: requests go to the daemon one at a time over a single
//! connection, and each is then replayed in process, through the public
//! call of every layer, against a mirror [`ClosureBank`] that sees exactly
//! what the daemon's bank saw. Spans are kept in memory and written out
//! once when the run ends.

use crate::load::median;
use crate::workload::Call;
use elpc_mapping::{solver, Instance, SolveContext};
use elpc_serving::protocol::{
    decode_request, decode_response, encode_request, encode_response, RemapReply, Request,
    RequestFrame, Response, ResponseFrame,
};
use elpc_serving::SolveReply;
use elpc_workloads::bank::{bank_key, ClosureBank};
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans on the served path at concurrency 1: their self times add up to
/// the part of a served request the replay accounts for.
const PATH: [&str; 12] = [
    "protocol.encode_request",
    "protocol.decode_request",
    "bank.repair",
    "bank.key",
    "bank.checkout",
    "closure.build",
    "eval.kernel_build",
    "solver.elpc_delay_routed.solve",
    "solver.lns_delay.solve",
    "solver.portfolio_delay.solve",
    "bank.deposit",
    "protocol.response",
];

fn solve_span(name: &str) -> &'static str {
    match name {
        "elpc_delay_routed" => "solver.elpc_delay_routed.solve",
        "lns_delay" => "solver.lns_delay.solve",
        "portfolio_delay" => "solver.portfolio_delay.solve",
        _ => "solver.other.solve",
    }
}

/// One timed interval of one request.
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; records nothing while `on` is false.
pub struct Tracer {
    origin: Instant,
    pub on: bool,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval under the innermost open span.
    pub fn record(&mut self, req: u64, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let span = Span {
                req,
                name,
                parent: self.open.last().copied(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            };
            self.spans.push(span);
        }
    }

    /// Times `f` as span `name` of request `req`.
    pub fn time<T>(&mut self, req: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        self.spans.push(Span {
            req,
            name,
            parent: self.open.last().copied(),
            start_ns: self.ns(start),
            end_ns: 0,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        let out = f();
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"req\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Self time of every span: its duration minus what its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }
}

/// Per-request counts the replay measures.
#[derive(Default, Clone)]
pub struct ReqCounts {
    pub request_bytes: usize,
    pub trees_built: u64,
    pub repair: Option<(usize, usize)>,
    pub queue_ms: f64,
    pub solve_ms: f64,
}

/// The in-process mirror of the daemon's bank and coalescing rule.
pub struct Mirror {
    pub bank: ClosureBank,
    no_closure: HashSet<u64>,
}

impl Mirror {
    pub fn new() -> Mirror {
        Mirror {
            bank: ClosureBank::new(),
            no_closure: HashSet::new(),
        }
    }

    /// Replays one served request through every layer and checks that the
    /// in-process answer equals the served one bit for bit.
    pub fn replay(
        &mut self,
        tr: &mut Tracer,
        req: u64,
        call: Call,
        served: &SolveReply,
    ) -> Result<ReqCounts, String> {
        let mut counts = ReqCounts {
            queue_ms: served.queue_ms,
            solve_ms: served.solve_ms,
            ..ReqCounts::default()
        };
        let is_remap = matches!(call, Call::Remap(_));
        let frame = RequestFrame {
            id: req,
            body: match call {
                Call::Solve(s) => Request::Solve(s),
                Call::Remap(r) => Request::Remap(r),
            },
        };
        let json = tr.time(req, "protocol.encode_request", || encode_request(&frame));
        drop(frame);
        counts.request_bytes = json.len();
        let decoded = tr
            .time(req, "protocol.decode_request", || {
                decode_request(json.as_bytes())
            })
            .map_err(|e| format!("replayed request does not decode: {e}"))?;
        drop(json);
        let (sreq, repair) = match decoded.body {
            Request::Solve(s) => (s, None),
            Request::Remap(r) => (r.solve, r.previous_key.zip(r.delta)),
            other => return Err(format!("replayed an unexpected request {other:?}")),
        };
        let pi = &sreq.instance;
        let inst = Instance::new(&pi.network, &pi.pipeline, pi.src, pi.dst)
            .map_err(|e| format!("replayed instance is invalid: {e}"))?;
        tr.time(req, "netsim.fingerprint", || pi.network.fingerprint());

        // the daemon repairs only when the remap names a key and a change
        if let Some((prev, delta)) = repair.filter(|(_, d)| !d.is_empty()) {
            let report = tr.time(req, "bank.repair", || {
                self.bank
                    .update_in_place(prev, inst, sreq.cost, &delta, sreq.threads)
            });
            counts.repair = report.map(|rep| (rep.rebuilt, rep.kept));
        }
        let entry = solver(&sreq.solver).ok_or_else(|| format!("no solver {}", sreq.solver))?;
        let key = tr.time(req, "bank.key", || bank_key(&inst, &sreq.cost));
        let leader = !self.bank.contains_key(key) && !self.no_closure.contains(&key);
        if leader == served.banked {
            return Err(format!(
                "mirror bank disagrees with the daemon on request {req}: served banked={}",
                served.banked
            ));
        }
        let ctx = tr.time(req, "bank.checkout", || {
            self.bank.context_for(inst, sreq.cost, sreq.threads)
        });
        if leader {
            tr.time(req, "closure.build", || materialise(&ctx));
        }
        if sreq.solver != crate::workload::DP {
            tr.time(req, "eval.kernel_build", || ctx.eval_kernel());
        }
        let before = ctx.closure().stats().misses;
        let solution = tr.time(req, solve_span(&sreq.solver), || entry.solve(&ctx));
        let after = ctx.closure().stats().misses;
        if leader && after != before {
            return Err(format!(
                "the solve built {} trees after closure.build materialised them",
                after - before
            ));
        }
        counts.trees_built = after;
        if leader {
            tr.time(req, "bank.deposit", || self.bank.deposit(&ctx));
            if !self.bank.contains_key(key) {
                self.no_closure.insert(key);
            }
        }
        let solution = solution.map_err(|e| format!("replayed solve failed: {e}"))?;
        if solution.assignment != served.assignment
            || solution.objective_ms.to_bits() != served.objective_ms.to_bits()
        {
            return Err(format!(
                "replay of request {req} gave {:?} / {} ms, the daemon {:?} / {} ms",
                solution.assignment, solution.objective_ms, served.assignment, served.objective_ms
            ));
        }
        let body = if is_remap {
            Response::Remapped(RemapReply {
                reply: served.clone(),
                changed: true,
                repaired: true,
            })
        } else {
            Response::Solved(served.clone())
        };
        let frame = ResponseFrame { id: req, body };
        tr.time(req, "protocol.response", || {
            decode_response(encode_response(&frame).as_bytes())
        })
        .map_err(|e| format!("replayed reply does not decode: {e}"))?;
        Ok(counts)
    }
}

/// Builds, through `SolveContext::routed_from`, every tree the routed
/// delay DP queries on a healthy network: the first boundary's payload
/// from the source, and every later boundary's payload from every node.
fn materialise(ctx: &SolveContext<'_>) {
    let inst = ctx.instance();
    let pipe = inst.pipeline;
    ctx.routed_from(inst.src, pipe.input_bytes(1));
    for j in 2..pipe.len() {
        for v in ctx.network().node_ids() {
            ctx.routed_from(v, pipe.input_bytes(j));
        }
    }
}

/// One traced request: its served duration plus the replay's counts.
pub struct Traced {
    pub req: u64,
    pub served_ms: f64,
    pub counts: ReqCounts,
}

/// Per-layer numbers from the spans: medians of per-request self time,
/// keyed by span name, over the requests that have that span.
pub fn layer_medians(tr: &Tracer) -> BTreeMap<&'static str, f64> {
    let own = tr.self_ns();
    let mut per_req: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    for (s, ns) in tr.spans.iter().zip(&own) {
        *per_req.entry((s.name, s.req)).or_default() += ns;
    }
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in per_req {
        by_name.entry(name).or_default().push(ns as f64 / 1e6);
    }
    by_name
        .into_iter()
        .map(|(name, v)| (name, median(&v)))
        .collect()
}

/// For each traced request, the share of its served latency the path
/// spans cover, and the residual they leave: (coverage, residual_ms).
pub fn ledger(tr: &Tracer, traced: &[Traced]) -> Vec<(f64, f64)> {
    let own = tr.self_ns();
    let mut path_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for (s, ns) in tr.spans.iter().zip(&own) {
        if PATH.contains(&s.name) {
            *path_ns.entry(s.req).or_default() += ns;
        }
    }
    traced
        .iter()
        .map(|t| {
            let covered = path_ns.get(&t.req).copied().unwrap_or(0) as f64 / 1e6;
            (covered / t.served_ms, t.served_ms - covered)
        })
        .collect()
}
