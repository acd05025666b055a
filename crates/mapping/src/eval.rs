//! Dense evaluation kernel and O(1) delta moves for the local-search
//! solver family.
//!
//! The local searches (annealing, genetic, tabu, LNS) spend their entire
//! budget evaluating assignments, and every transfer term of a
//! closure-backed evaluation pays a shard `RwLock` read, a hash lookup, and
//! an `Arc` clone through [`crate::MetricClosure::routed_from`] — even
//! though a reassign/swap move perturbs at most three terms. This module
//! snapshots the closure into dense, lock-free tables once per instance and
//! serves two query tiers on top of them:
//!
//! * **Full evaluation** ([`EvalKernel::full_delay_ms`] /
//!   [`EvalKernel::full_bottleneck_ms`]) — an allocation-free array scan
//!   that reproduces [`crate::routed::routed_delay_ms_ctx`] /
//!   [`crate::routed::routed_bottleneck_ms_ctx`] **bit for bit** (the same
//!   terms accumulated in the same order; infeasibility reported as
//!   `f64::INFINITY` instead of an error). Pinned by the kernel-equivalence
//!   proptests.
//! * **Delta evaluation** ([`DeltaEval`]) — scoring a reassign/swap
//!   [`MoveSpec`] against the current assignment by the ≤ 6 stage terms it
//!   changes. MinDelay updates a running sum in O(1); MaxRate answers
//!   bottleneck queries in O(1) from prefix/suffix maxima plus a sparse
//!   range-max table over the stage-time array (the trick proven in
//!   [`crate::routed::polish_rate_assignment_ctx`]), and is *exact*: `max`
//!   is insensitive to rounding order, so a MaxRate delta value is bit-for-
//!   bit the full evaluation of the candidate.
//!
//! ## Exact-on-commit reconciliation
//!
//! A MinDelay delta value can drift from the candidate's full evaluation by
//! float-rounding ulps (sums are order-sensitive). The contract that keeps
//! reported objectives exactly reconcilable with the routed evaluators:
//! delta values steer the *search* (accept/reject, neighborhood ranking),
//! but [`DeltaEval::apply`] re-sums the committed assignment exactly —
//! [`DeltaEval::objective_ms`] is therefore always bit-identical to the
//! full evaluation of the current assignment, and every incumbent a solver
//! records re-evaluates exactly under
//! [`crate::routed::routed_delay_ms_ctx`] /
//! [`crate::routed::routed_bottleneck_ms_ctx`].
//!
//! ## Construction and the reuse tiers
//!
//! [`EvalKernel::build`] warms the context's shared closure through
//! [`crate::MetricClosure::par_warm`] (all sources × the pipeline's
//! distinct payload sizes, on the context's warm-thread count) and then
//! copies the per-source distance rows into flat matrices. Construction
//! therefore parallelizes like every other tree build, trees seeded from a
//! `ClosureBank` are reused instead of recomputed, and the trees the kernel
//! does build stay in the closure for every later solver on the context.
//! [`crate::SolveContext::eval_kernel`] memoizes the kernel per context, so
//! a compare row or portfolio slate builds it once for every kernel-backed
//! member (the rate tabu, annealing and genetic searches, and both LNS
//! entries).
//!
//! Infeasible transfers (disconnected host pairs) are stored as
//! `f64::INFINITY`; the delta tier tracks infinite terms by count (never by
//! arithmetic), so searches can move through and out of infeasible
//! assignments without `∞ − ∞` poisoning.

use crate::{Objective, SolveContext};
use elpc_netgraph::NodeId;
use std::sync::Arc;

/// Dense snapshot of everything a routed evaluation reads: per-payload
/// transfer matrices and per-module compute-time vectors. Immutable, `Send
/// + Sync`, shared via [`crate::SolveContext::eval_kernel`].
#[derive(Debug, Clone)]
pub struct EvalKernel {
    n: usize,
    k: usize,
    /// `compute[j * k + v]` = compute time (ms) of module `j` on node `v`
    /// (`0.0` when the module has no work).
    compute: Vec<f64>,
    /// `transfer[payload_idx * k * k + a * k + b]` = cheapest routed
    /// transfer time (ms) of the payload from `a` to `b`; `0.0` on the
    /// diagonal, `f64::INFINITY` when unreachable.
    transfer: Vec<f64>,
    /// Boundary `j` (the module `j → j+1` transfer) → payload index.
    payload_of: Vec<u32>,
}

impl EvalKernel {
    /// Snapshots `ctx`'s closure into dense tables: one `k × k` matrix per
    /// distinct boundary payload plus the `n × k` compute matrix. Missing
    /// trees are built through [`crate::MetricClosure::par_warm`] on the
    /// context's warm-thread count, so construction parallelizes and
    /// bank-seeded trees are reused.
    pub fn build(ctx: &SolveContext<'_>) -> Self {
        let inst = ctx.instance();
        let pipe = inst.pipeline;
        let net = inst.network;
        let n = pipe.len();
        let k = net.node_count();

        // distinct boundary payloads in first-seen order, keyed by bit
        // pattern (the closure's own key discipline)
        let mut payloads: Vec<f64> = Vec::new();
        let mut payload_of: Vec<u32> = Vec::with_capacity(n.saturating_sub(1));
        for j in 0..n.saturating_sub(1) {
            let bytes = pipe.module(j).output_bytes;
            let idx = payloads
                .iter()
                .position(|p| p.to_bits() == bytes.to_bits())
                .unwrap_or_else(|| {
                    payloads.push(bytes);
                    payloads.len() - 1
                });
            payload_of.push(idx as u32);
        }

        let sources: Vec<NodeId> = net.node_ids().collect();
        ctx.closure()
            .par_warm(&sources, &payloads, ctx.warm_threads());

        let mut transfer = vec![0.0_f64; payloads.len() * k * k];
        for (p, &bytes) in payloads.iter().enumerate() {
            for a in 0..k {
                let tree = ctx.routed_from(NodeId::from_index(a), bytes);
                let row = &mut transfer[p * k * k + a * k..p * k * k + (a + 1) * k];
                row.copy_from_slice(&tree.dist);
                // routed_transfer_ms semantics: a same-node transfer is free
                row[a] = 0.0;
            }
        }

        let mut compute = vec![0.0_f64; n * k];
        for j in 0..n {
            let work = pipe.compute_work(j);
            if work > 0.0 {
                for v in 0..k {
                    compute[j * k + v] = work / net.power(NodeId::from_index(v));
                }
            }
        }

        EvalKernel {
            n,
            k,
            compute,
            transfer,
            payload_of,
        }
    }

    /// Number of pipeline modules `n`.
    pub fn n_modules(&self) -> usize {
        self.n
    }

    /// Number of network nodes `k`.
    pub fn node_count(&self) -> usize {
        self.k
    }

    /// Routed transfer time (ms) of boundary `j`'s payload from `a` to `b`:
    /// `0.0` when `a == b`, `f64::INFINITY` when unreachable. Identical to
    /// the closure's answer for the same query.
    #[inline]
    pub fn transfer_ms(&self, boundary: usize, a: NodeId, b: NodeId) -> f64 {
        let p = self.payload_of[boundary] as usize;
        self.transfer[p * self.k * self.k + a.index() * self.k + b.index()]
    }

    /// Compute time (ms) of module `j` on node `v` (`0.0` for work-free
    /// modules).
    #[inline]
    pub fn compute_ms(&self, j: usize, v: NodeId) -> f64 {
        self.compute[j * self.k + v.index()]
    }

    /// End-to-end routed delay (ms) of an assignment; `f64::INFINITY` when
    /// any transfer is unreachable. Bit-for-bit equal to
    /// [`crate::routed::routed_delay_ms_ctx`] on shape-valid assignments
    /// (same terms, same accumulation order; that function reports
    /// unreachable transfers as an error instead).
    pub fn full_delay_ms(&self, assignment: &[NodeId]) -> f64 {
        debug_assert_eq!(assignment.len(), self.n);
        let mut total = 0.0_f64;
        for j in 0..self.n {
            total += self.compute_ms(j, assignment[j]);
            if j + 1 < self.n {
                total += self.transfer_ms(j, assignment[j], assignment[j + 1]);
            }
        }
        total
    }

    /// Bottleneck stage time (ms) of an assignment; `f64::INFINITY` when a
    /// transfer is unreachable or (under `require_distinct`) a host is
    /// reused. Bit-for-bit equal to
    /// [`crate::routed::routed_bottleneck_ms_ctx`] whenever that function
    /// returns a value (`max` is rounding-order-insensitive; its error
    /// cases map to `∞` here).
    pub fn full_bottleneck_ms(&self, assignment: &[NodeId], require_distinct: bool) -> f64 {
        debug_assert_eq!(assignment.len(), self.n);
        if require_distinct {
            for (i, &a) in assignment.iter().enumerate() {
                if assignment[..i].contains(&a) {
                    return f64::INFINITY;
                }
            }
        }
        let mut bottleneck = 0.0_f64;
        for j in 0..self.n {
            bottleneck = bottleneck.max(self.compute_ms(j, assignment[j]));
            if j + 1 < self.n {
                bottleneck = bottleneck.max(self.transfer_ms(j, assignment[j], assignment[j + 1]));
            }
        }
        bottleneck
    }

    /// The objective of `assignment` under `objective` (distinct hosts
    /// enforced for MaxRate); `f64::INFINITY` marks infeasibility.
    pub fn full_objective_ms(&self, objective: Objective, assignment: &[NodeId]) -> f64 {
        match objective {
            Objective::MinDelay => self.full_delay_ms(assignment),
            Objective::MaxRate => self.full_bottleneck_ms(assignment, true),
        }
    }
}

/// One local-search neighborhood move against a current assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveSpec {
    /// Reassign module `stage` to host `to`.
    Reassign {
        /// The module being moved.
        stage: usize,
        /// Its new host.
        to: NodeId,
    },
    /// Swap the hosts of modules `a` and `b`.
    Swap {
        /// First module (any order).
        a: usize,
        /// Second module.
        b: usize,
    },
}

/// Outcome of a bounded (early-exit) move evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundedEval {
    /// The candidate is feasible with this objective (ms).
    Feasible(f64),
    /// Abandoned early: a delta-updated stage term already reached the
    /// caller's bound, so the candidate cannot score below it.
    Pruned,
    /// The candidate is infeasible (an unreachable transfer).
    Infeasible,
}

/// Stage-term layout shared with the polish: `2j` is module `j`'s compute
/// term, `2j + 1` is boundary `j`'s transfer term; `2n − 1` terms total.
#[inline]
fn term_len(n: usize) -> usize {
    2 * n - 1
}

/// Incremental evaluation state over one [`EvalKernel`]: the current
/// assignment, its stage-term array, and the objective-specific structures
/// that answer [`DeltaEval::eval_move`] in O(1).
///
/// MinDelay keeps a running sum of finite terms plus a count of infinite
/// ones; MaxRate keeps prefix/suffix maxima and a sparse range-max table
/// over the term array. [`DeltaEval::apply`] commits a move and re-derives
/// the exact objective (see the module docs for the reconciliation
/// contract); buffers are reused across [`DeltaEval::reset`] calls, so a
/// whole restart loop allocates nothing after the first iteration.
///
/// Under MaxRate the *caller* preserves the distinct-hosts invariant
/// (reassign only to hosts unused per [`DeltaEval::used_hosts`], as every
/// search in this crate does); delta values do not re-check it, exactly as
/// the reassign/swap neighborhoods never generate a violating move.
#[derive(Debug, Clone)]
pub struct DeltaEval {
    kernel: Arc<EvalKernel>,
    objective: Objective,
    assign: Vec<NodeId>,
    /// Host-usage marks, maintained only under MaxRate (distinct hosts).
    used: Vec<bool>,
    /// Stage terms of the current assignment (layout: [`term_len`]).
    terms: Vec<f64>,
    /// Number of infinite entries in `terms`.
    inf_terms: usize,
    /// MinDelay: exact sum of the (finite) terms in index order.
    sum: f64,
    /// MaxRate: `pre[i]` = max of `terms[..i]` (`pre[0] = 0`).
    pre: Vec<f64>,
    /// MaxRate: `suf[i]` = max of `terms[i..]` (`suf[len] = 0`).
    suf: Vec<f64>,
    /// MaxRate: sparse range-max table; `sparse[l][i]` covers
    /// `terms[i..i + 2^l]`.
    sparse: Vec<Vec<f64>>,
}

/// The ≤ 6 stage terms a move changes: `(term index, new value)` pairs with
/// unique indices.
type Affected = ([(usize, f64); 6], usize);

impl DeltaEval {
    /// State for `assignment` (shape-valid for the kernel's instance).
    pub fn new(kernel: Arc<EvalKernel>, objective: Objective, assignment: &[NodeId]) -> Self {
        let n = kernel.n_modules();
        let k = kernel.node_count();
        debug_assert_eq!(assignment.len(), n);
        let mut state = DeltaEval {
            kernel,
            objective,
            assign: assignment.to_vec(),
            used: vec![false; k],
            terms: vec![0.0; term_len(n)],
            inf_terms: 0,
            sum: 0.0,
            pre: Vec::new(),
            suf: Vec::new(),
            sparse: Vec::new(),
        };
        state.recompute();
        state
    }

    /// Re-seats the state on a new assignment, reusing every buffer.
    pub fn reset(&mut self, assignment: &[NodeId]) {
        debug_assert_eq!(assignment.len(), self.assign.len());
        self.assign.copy_from_slice(assignment);
        self.recompute();
    }

    /// The current assignment.
    pub fn assignment(&self) -> &[NodeId] {
        &self.assign
    }

    /// Host-usage marks (`used[v]` ⇔ node `v` hosts a module). Maintained
    /// only under MaxRate; all-`false` under MinDelay.
    pub fn used_hosts(&self) -> &[bool] {
        &self.used
    }

    /// Exact objective of the current assignment (bit-identical to the
    /// kernel's full evaluation); `None` when it is infeasible.
    pub fn objective_ms(&self) -> Option<f64> {
        match self.objective {
            Objective::MinDelay => (self.inf_terms == 0).then_some(self.sum),
            Objective::MaxRate => {
                let b = self.suf[0];
                b.is_finite().then_some(b)
            }
        }
    }

    /// Scores `mv` against the current assignment in O(1): the candidate's
    /// objective (`None` when infeasible). MaxRate values are exact;
    /// MinDelay values may differ from the candidate's full evaluation by
    /// rounding ulps (see the module docs).
    #[inline]
    pub fn eval_move(&self, mv: MoveSpec) -> Option<f64> {
        match self.eval_move_bounded(mv, f64::INFINITY) {
            BoundedEval::Feasible(ms) => Some(ms),
            BoundedEval::Infeasible => None,
            BoundedEval::Pruned => unreachable!("an infinite bound never prunes"),
        }
    }

    /// [`DeltaEval::eval_move`] with early-exit pruning: returns
    /// [`BoundedEval::Pruned`] as soon as the candidate's objective is
    /// known to be `>= prune_at` (MaxRate: a delta-updated stage term — or
    /// the maximum over the untouched stages — already reaches the bound;
    /// MinDelay falls back to a plain evaluation with a final comparison,
    /// since partial sums do not bound the total from below as usefully).
    #[inline]
    pub fn eval_move_bounded(&self, mv: MoveSpec, prune_at: f64) -> BoundedEval {
        if self.is_noop(mv) {
            return match self.objective_ms() {
                Some(ms) if ms < prune_at => BoundedEval::Feasible(ms),
                Some(_) => BoundedEval::Pruned,
                None => BoundedEval::Infeasible,
            };
        }
        let (affected, len) = self.affected_terms(mv);
        match self.objective {
            Objective::MinDelay => {
                let mut inf = self.inf_terms;
                let mut delta = 0.0_f64;
                for &(idx, new) in &affected[..len] {
                    let old = self.terms[idx];
                    if old.is_finite() {
                        delta -= old;
                    } else {
                        inf -= 1;
                    }
                    if new.is_finite() {
                        delta += new;
                    } else {
                        inf += 1;
                    }
                }
                if inf > 0 {
                    BoundedEval::Infeasible
                } else {
                    let ms = self.sum + delta;
                    if !ms.is_finite() {
                        BoundedEval::Infeasible // finite terms overflowed the sum
                    } else if ms < prune_at {
                        BoundedEval::Feasible(ms)
                    } else {
                        BoundedEval::Pruned
                    }
                }
            }
            Objective::MaxRate => {
                let mut bottleneck = self.max_excluding(mv, &affected[..len]);
                if bottleneck >= prune_at {
                    return if bottleneck.is_finite() {
                        BoundedEval::Pruned
                    } else {
                        BoundedEval::Infeasible
                    };
                }
                for &(_, new) in &affected[..len] {
                    bottleneck = bottleneck.max(new);
                    if bottleneck >= prune_at {
                        return if bottleneck.is_finite() {
                            BoundedEval::Pruned
                        } else {
                            BoundedEval::Infeasible
                        };
                    }
                }
                if bottleneck.is_finite() {
                    BoundedEval::Feasible(bottleneck)
                } else {
                    BoundedEval::Infeasible
                }
            }
        }
    }

    /// Commits `mv` and re-derives the exact objective of the new current
    /// assignment (returned; `None` when it is infeasible). O(changed
    /// terms) for the bookkeeping plus an O(n) exact re-sum (MinDelay) or
    /// an O(n log n) prefix/suffix + sparse-table rebuild (MaxRate).
    pub fn apply(&mut self, mv: MoveSpec) -> Option<f64> {
        if !self.is_noop(mv) {
            let (affected, len) = self.affected_terms(mv);
            for &(idx, new) in &affected[..len] {
                self.terms[idx] = new;
            }
            match mv {
                MoveSpec::Reassign { stage, to } => {
                    if self.objective == Objective::MaxRate {
                        self.used[self.assign[stage].index()] = false;
                        self.used[to.index()] = true;
                    }
                    self.assign[stage] = to;
                }
                MoveSpec::Swap { a, b } => self.assign.swap(a, b),
            }
            self.refresh_aggregates();
        }
        self.objective_ms()
    }

    /// True when `mv` leaves the assignment unchanged (reassigning a module
    /// to its current host, or swapping two modules on the same host).
    #[inline]
    fn is_noop(&self, mv: MoveSpec) -> bool {
        match mv {
            MoveSpec::Reassign { stage, to } => self.assign[stage] == to,
            MoveSpec::Swap { a, b } => a == b || self.assign[a] == self.assign[b],
        }
    }

    /// The `(term index, new value)` pairs `mv` changes. Indices are unique
    /// and grouped into at most two contiguous windows (one per touched
    /// module), which is what [`DeltaEval::max_excluding`] relies on.
    #[inline]
    fn affected_terms(&self, mv: MoveSpec) -> Affected {
        let kernel = &self.kernel;
        let n = kernel.n_modules();
        let a = &self.assign;
        let mut out = [(0usize, 0.0_f64); 6];
        let mut len = 0;
        macro_rules! push {
            ($idx:expr, $val:expr) => {{
                out[len] = ($idx, $val);
                len += 1;
            }};
        }
        match mv {
            MoveSpec::Reassign { stage: j, to } => {
                push!(2 * j, kernel.compute_ms(j, to));
                if j > 0 {
                    push!(2 * j - 1, kernel.transfer_ms(j - 1, a[j - 1], to));
                }
                if j + 1 < n {
                    push!(2 * j + 1, kernel.transfer_ms(j, to, a[j + 1]));
                }
            }
            MoveSpec::Swap { a: x, b: y } => {
                let (lo, hi) = (x.min(y), x.max(y));
                let (new_lo, new_hi) = (a[hi], a[lo]);
                push!(2 * lo, kernel.compute_ms(lo, new_lo));
                push!(2 * hi, kernel.compute_ms(hi, new_hi));
                if lo > 0 {
                    push!(2 * lo - 1, kernel.transfer_ms(lo - 1, a[lo - 1], new_lo));
                }
                if hi + 1 < n {
                    push!(2 * hi + 1, kernel.transfer_ms(hi, new_hi, a[hi + 1]));
                }
                if hi == lo + 1 {
                    // one shared boundary between the swapped modules
                    push!(2 * lo + 1, kernel.transfer_ms(lo, new_lo, new_hi));
                } else {
                    push!(2 * lo + 1, kernel.transfer_ms(lo, new_lo, a[lo + 1]));
                    push!(2 * hi - 1, kernel.transfer_ms(hi - 1, a[hi - 1], new_hi));
                }
            }
        }
        (out, len)
    }

    /// Max over every term *not* touched by `mv`, in O(1): a move's
    /// affected indices form one or two contiguous windows (each touched
    /// module's compute term plus its adjacent transfer terms), so
    /// prefix/suffix maxima cover the outside and the sparse table covers
    /// the gap between the windows of a non-adjacent swap.
    fn max_excluding(&self, mv: MoveSpec, affected: &[(usize, f64)]) -> f64 {
        let n = self.kernel.n_modules();
        // window of one touched module: [2j-1, 2j+1] clipped to the array
        let window = |j: usize| (2 * j - usize::from(j > 0), 2 * j + usize::from(j + 1 < n));
        let (first, second) = match mv {
            MoveSpec::Reassign { stage, .. } => (window(stage), None),
            MoveSpec::Swap { a, b } => {
                let (lo, hi) = (a.min(b), a.max(b));
                if hi == lo + 1 {
                    // adjacent modules share a boundary: one merged window
                    ((window(lo).0, window(hi).1), None)
                } else {
                    (window(lo), Some(window(hi)))
                }
            }
        };
        debug_assert!({
            let inside = |idx: usize| {
                (first.0..=first.1).contains(&idx)
                    || second.is_some_and(|w| (w.0..=w.1).contains(&idx))
            };
            affected.iter().all(|&(idx, _)| inside(idx))
        });
        let last = second.unwrap_or(first);
        let mut m = self.pre[first.0].max(self.suf[last.1 + 1]);
        if let Some(w2) = second {
            debug_assert!(w2.0 > first.1 + 1, "non-adjacent swap windows leave a gap");
            m = m.max(self.range_max(first.1 + 1, w2.0 - 1));
        }
        m
    }

    /// Max of `terms[lo..=hi]` from the sparse table (requires `lo <= hi`).
    fn range_max(&self, lo: usize, hi: usize) -> f64 {
        debug_assert!(lo <= hi);
        let len = hi - lo + 1;
        let lvl = (usize::BITS - 1 - len.leading_zeros()) as usize;
        self.sparse[lvl][lo].max(self.sparse[lvl][hi + 1 - (1 << lvl)])
    }

    /// Rebuilds terms, the inf count, and the objective aggregates from the
    /// current assignment.
    fn recompute(&mut self) {
        let n = self.kernel.n_modules();
        for j in 0..n {
            self.terms[2 * j] = self.kernel.compute_ms(j, self.assign[j]);
            if j + 1 < n {
                self.terms[2 * j + 1] =
                    self.kernel
                        .transfer_ms(j, self.assign[j], self.assign[j + 1]);
            }
        }
        if self.objective == Objective::MaxRate {
            self.used.fill(false);
            for &v in &self.assign {
                self.used[v.index()] = true;
            }
        }
        self.refresh_aggregates();
    }

    /// Re-derives the exact aggregates from `terms`: the MinDelay running
    /// sum (same accumulation order as the full evaluation, so it stays bit-
    /// identical) or the MaxRate prefix/suffix maxima and sparse table.
    fn refresh_aggregates(&mut self) {
        self.inf_terms = self.terms.iter().filter(|t| t.is_infinite()).count();
        match self.objective {
            Objective::MinDelay => {
                // sum of the *finite* terms in index order: with no
                // infinite term this is the identical accumulation order to
                // `full_delay_ms` (bit-for-bit), and while the assignment
                // is infeasible it stays the finite base a delta move can
                // transition back out from (∞ never enters the arithmetic)
                self.sum = self.terms.iter().filter(|t| t.is_finite()).sum();
            }
            Objective::MaxRate => {
                let len = self.terms.len();
                self.pre.resize(len + 1, 0.0);
                self.suf.resize(len + 1, 0.0);
                self.pre[0] = 0.0;
                for i in 0..len {
                    self.pre[i + 1] = self.pre[i].max(self.terms[i]);
                }
                self.suf[len] = 0.0;
                for i in (0..len).rev() {
                    self.suf[i] = self.suf[i + 1].max(self.terms[i]);
                }
                let levels = (usize::BITS - len.leading_zeros()) as usize;
                self.sparse.resize(levels, Vec::new());
                self.sparse[0].clear();
                self.sparse[0].extend_from_slice(&self.terms);
                for l in 1..levels {
                    let half = 1 << (l - 1);
                    let width = 1 << l;
                    let rows = len + 1 - width;
                    let (prev, rest) = self.sparse.split_at_mut(l);
                    let prev = &prev[l - 1];
                    let row = &mut rest[0];
                    row.clear();
                    row.extend((0..rows).map(|i| prev[i].max(prev[i + half])));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{k5, pipe4};
    use crate::{routed, CostModel, Instance, MappingError};
    use elpc_netsim::Network;
    use elpc_pipeline::Pipeline;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn cost() -> CostModel {
        CostModel::default()
    }

    /// Two 2-node islands: transfers across the gap are unreachable.
    fn split_net() -> Network {
        let mut b = Network::builder();
        let n0 = b.add_node(100.0).unwrap();
        let n1 = b.add_node(200.0).unwrap();
        let n2 = b.add_node(300.0).unwrap();
        let n3 = b.add_node(400.0).unwrap();
        b.add_link(n0, n1, 100.0, 0.5).unwrap();
        b.add_link(n2, n3, 100.0, 0.5).unwrap();
        // deliberately disconnected: cross-island transfers are infeasible
        b.build_unchecked()
    }

    #[test]
    fn full_evaluations_match_the_routed_evaluators_bit_for_bit() {
        let net = k5();
        let pipe = pipe4();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let ctx = SolveContext::new(inst, cost());
        let kernel = ctx.eval_kernel();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..200 {
            let mut a: Vec<NodeId> = (0..pipe.len())
                .map(|_| NodeId::from_index(rng.gen_range(0..net.node_count())))
                .collect();
            a[0] = NodeId(0);
            *a.last_mut().unwrap() = NodeId(4);
            let delay = routed::routed_delay_ms_ctx(&ctx, &a).unwrap();
            assert_eq!(delay.to_bits(), kernel.full_delay_ms(&a).to_bits());
            match routed::routed_bottleneck_ms_ctx(&ctx, &a, true) {
                Ok(b) => assert_eq!(b.to_bits(), kernel.full_bottleneck_ms(&a, true).to_bits()),
                Err(MappingError::InvalidMapping(_)) => {
                    assert!(kernel.full_bottleneck_ms(&a, true).is_infinite())
                }
                Err(e) => panic!("unexpected error {e}"),
            }
            let b = routed::routed_bottleneck_ms_ctx(&ctx, &a, false).unwrap();
            assert_eq!(b.to_bits(), kernel.full_bottleneck_ms(&a, false).to_bits());
        }
    }

    #[test]
    fn delta_moves_reconcile_with_full_evaluation() {
        let net = k5();
        let pipe = pipe4();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let ctx = SolveContext::new(inst, cost());
        let kernel = ctx.eval_kernel();
        let n = pipe.len();
        let k = net.node_count();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for objective in [Objective::MinDelay, Objective::MaxRate] {
            let start: Vec<NodeId> = if objective == Objective::MaxRate {
                (0..n).map(NodeId::from_index).collect()
            } else {
                let mut a = vec![NodeId(0); n];
                *a.last_mut().unwrap() = NodeId(4);
                a
            };
            let mut state = DeltaEval::new(Arc::clone(&kernel), objective, &start);
            let mut shadow = start.clone();
            for _ in 0..400 {
                let mv = if objective == Objective::MinDelay && rng.gen_bool(0.5) {
                    MoveSpec::Reassign {
                        stage: 1 + rng.gen_range(0..n - 2),
                        to: NodeId::from_index(rng.gen_range(0..k)),
                    }
                } else {
                    let a = 1 + rng.gen_range(0..n - 2);
                    let mut b = 1 + rng.gen_range(0..n - 2);
                    if b == a {
                        b = if b + 1 < n - 1 { b + 1 } else { 1 };
                    }
                    MoveSpec::Swap { a, b }
                };
                // candidate value vs a scratch full evaluation
                let mut cand = shadow.clone();
                match mv {
                    MoveSpec::Reassign { stage, to } => cand[stage] = to,
                    MoveSpec::Swap { a, b } => cand.swap(a, b),
                }
                let full = kernel.full_objective_ms(objective, &cand);
                match state.eval_move(mv) {
                    Some(ms) => {
                        assert!(full.is_finite());
                        if objective == Objective::MaxRate {
                            assert_eq!(ms.to_bits(), full.to_bits(), "rate delta is exact");
                        } else {
                            assert!(
                                (ms - full).abs() <= 1e-9 * full.abs().max(1.0),
                                "delay delta drifted: {ms} vs {full}"
                            );
                        }
                    }
                    None => assert!(full.is_infinite(), "feasibility must agree"),
                }
                // commit and check the exact reconciliation
                let committed = state.apply(mv);
                shadow = cand;
                let full = kernel.full_objective_ms(objective, &shadow);
                match committed {
                    Some(ms) => assert_eq!(ms.to_bits(), full.to_bits(), "apply is exact"),
                    None => assert!(full.is_infinite()),
                }
                assert_eq!(state.assignment(), &shadow[..]);
            }
        }
    }

    #[test]
    fn delta_moves_cross_infeasibility_without_poisoning() {
        let net = split_net();
        // 3 modules; endpoints 0 and 1 are connected, node 2/3 are not
        let pipe = Pipeline::from_stages(1e5, &[(1.0, 1e4)], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(1)).unwrap();
        let ctx = SolveContext::new(inst, cost());
        let kernel = ctx.eval_kernel();
        let feasible = vec![NodeId(0), NodeId(1), NodeId(1)];
        let mut state = DeltaEval::new(Arc::clone(&kernel), Objective::MinDelay, &feasible);
        let base = state.objective_ms().expect("feasible start");
        assert_eq!(
            base.to_bits(),
            routed::routed_delay_ms_ctx(&ctx, &feasible)
                .unwrap()
                .to_bits()
        );
        // move the middle module across the island gap: infeasible
        let out = MoveSpec::Reassign {
            stage: 1,
            to: NodeId(2),
        };
        assert_eq!(state.eval_move(out), None);
        assert_eq!(state.apply(out), None);
        assert!(state.objective_ms().is_none());
        // and back: the exact feasible objective returns unchanged
        let back = MoveSpec::Reassign {
            stage: 1,
            to: NodeId(1),
        };
        let restored = state.apply(back).expect("feasible again");
        assert_eq!(restored.to_bits(), base.to_bits());
    }

    #[test]
    fn bounded_evaluation_prunes_exactly_at_the_bound() {
        let net = k5();
        let pipe = pipe4();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let ctx = SolveContext::new(inst, cost());
        let kernel = ctx.eval_kernel();
        let n = pipe.len();
        let start: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        let state = DeltaEval::new(kernel, Objective::MaxRate, &start);
        let mv = MoveSpec::Swap { a: 1, b: 2 };
        let exact = state.eval_move(mv).expect("k5 is fully connected");
        // a bound above the value admits it; at or below the value prunes
        assert_eq!(
            state.eval_move_bounded(mv, exact * 1.0000001),
            BoundedEval::Feasible(exact)
        );
        assert_eq!(state.eval_move_bounded(mv, exact), BoundedEval::Pruned);
        assert_eq!(state.eval_move_bounded(mv, 0.0), BoundedEval::Pruned);
    }

    #[test]
    fn reset_reuses_buffers_and_matches_a_fresh_state() {
        let net = k5();
        let pipe = pipe4();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(4)).unwrap();
        let ctx = SolveContext::new(inst, cost());
        let kernel = ctx.eval_kernel();
        let n = pipe.len();
        let a: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
        let b: Vec<NodeId> = vec![NodeId(0), NodeId(3), NodeId(2), NodeId(4)];
        let mut state = DeltaEval::new(Arc::clone(&kernel), Objective::MaxRate, &a);
        state.reset(&b);
        let fresh = DeltaEval::new(kernel, Objective::MaxRate, &b);
        assert_eq!(state.objective_ms(), fresh.objective_ms());
        assert_eq!(state.assignment(), fresh.assignment());
        assert_eq!(state.used_hosts(), fresh.used_hosts());
    }
}
