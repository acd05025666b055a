//! Routed-transport evaluation of arbitrary per-module assignments.
//!
//! The ELPC formulation (§2.3) maps module groups onto a *path*: consecutive
//! groups sit on network-adjacent nodes and Eq. 1/2 charge the direct link.
//! The Streamline baseline, by contrast, was designed for a grid overlay
//! "with n resources and n×n communication links" (§3.2) — it freely
//! assigns any stage to any node. On an arbitrary sparse topology its
//! placements are not always adjacent, so transfers must be *routed*: the
//! transfer between hosts `a` and `b` costs the minimum over network routes
//! of the summed per-hop transport times (store-and-forward message
//! semantics, computed by Dijkstra with the §2.2 edge cost).
//!
//! For an assignment whose consecutive hosts *are* adjacent, the routed
//! value never exceeds the Eq. 1 value (a direct link is one of the
//! candidate routes), which keeps cross-algorithm comparisons conservative
//! toward the baselines: the experiment tables evaluate ELPC under its
//! strict Eq. 1/2 semantics and the baselines under this (never-worse)
//! routed relaxation, so the reported ELPC advantage is a lower bound.

use crate::{CostModel, Instance, MappingError, MetricClosure, Result, SolveContext};
use elpc_netgraph::NodeId;

/// Minimum routed transport time of `bytes` from `a` to `b` (ms): the
/// cheapest route by total per-hop transport time. Zero when `a == b`.
///
/// Cold-path convenience over [`MetricClosure::routed_transfer_ms`]; when
/// evaluating many transfers on one network, build a [`MetricClosure`] (or a
/// full [`SolveContext`]) and query it instead so the per-source Dijkstra
/// runs are shared.
pub fn routed_transfer_ms(
    net: &elpc_netsim::Network,
    cost: &CostModel,
    a: NodeId,
    b: NodeId,
    bytes: f64,
) -> Result<f64> {
    MetricClosure::new(net, *cost).routed_transfer_ms(a, b, bytes)
}

/// Validates the assignment shape shared by both routed objectives.
fn check_assignment(inst: &Instance<'_>, assignment: &[NodeId]) -> Result<()> {
    if assignment.len() != inst.n_modules() {
        return Err(MappingError::InvalidMapping(format!(
            "assignment covers {} modules, pipeline has {}",
            assignment.len(),
            inst.n_modules()
        )));
    }
    for &node in assignment {
        inst.network
            .graph()
            .check_node(node)
            .map_err(elpc_netsim::NetworkError::from)?;
    }
    if assignment[0] != inst.src {
        return Err(MappingError::InvalidMapping(format!(
            "module 0 assigned to {} but the data source is {}",
            assignment[0], inst.src
        )));
    }
    if *assignment.last().expect("non-empty") != inst.dst {
        return Err(MappingError::InvalidMapping(format!(
            "last module assigned to {} but the end user is {}",
            assignment.last().expect("non-empty"),
            inst.dst
        )));
    }
    Ok(())
}

/// End-to-end delay (Eq. 1 semantics, routed transfers) of an assignment,
/// sharing the context's metric closure.
pub fn routed_delay_ms_ctx(ctx: &SolveContext<'_>, assignment: &[NodeId]) -> Result<f64> {
    let inst = ctx.instance();
    check_assignment(inst, assignment)?;
    let net = inst.network;
    let pipe = inst.pipeline;
    let mut total = 0.0;
    for (j, &node) in assignment.iter().enumerate() {
        let work = pipe.compute_work(j);
        if work > 0.0 {
            total += work / net.power(node);
        }
        if j + 1 < assignment.len() && assignment[j + 1] != node {
            let bytes = pipe.module(j).output_bytes;
            total += ctx.routed_transfer_ms(node, assignment[j + 1], bytes)?;
        }
    }
    Ok(total)
}

/// End-to-end delay of an assignment with a transient context (cold path).
pub fn routed_delay_ms(
    inst: &Instance<'_>,
    cost: &CostModel,
    assignment: &[NodeId],
) -> Result<f64> {
    routed_delay_ms_ctx(&SolveContext::new(*inst, *cost), assignment)
}

/// Bottleneck stage time (Eq. 2 semantics, routed transfers) of an
/// assignment, sharing the context's metric closure. With
/// `require_distinct`, node reuse is rejected (the streaming constraint of
/// §3.1.2).
pub fn routed_bottleneck_ms_ctx(
    ctx: &SolveContext<'_>,
    assignment: &[NodeId],
    require_distinct: bool,
) -> Result<f64> {
    let inst = ctx.instance();
    check_assignment(inst, assignment)?;
    if require_distinct {
        let mut seen = std::collections::BTreeSet::new();
        for &n in assignment {
            if !seen.insert(n) {
                return Err(MappingError::InvalidMapping(format!(
                    "node {n} hosts more than one module but reuse is disabled"
                )));
            }
        }
    }
    let net = inst.network;
    let pipe = inst.pipeline;
    let mut bottleneck = 0.0_f64;
    for (j, &node) in assignment.iter().enumerate() {
        let work = pipe.compute_work(j);
        if work > 0.0 {
            bottleneck = bottleneck.max(work / net.power(node));
        }
        if j + 1 < assignment.len() && assignment[j + 1] != node {
            let bytes = pipe.module(j).output_bytes;
            bottleneck = bottleneck.max(ctx.routed_transfer_ms(node, assignment[j + 1], bytes)?);
        }
    }
    Ok(bottleneck)
}

/// Bottleneck of an assignment with a transient context (cold path).
pub fn routed_bottleneck_ms(
    inst: &Instance<'_>,
    cost: &CostModel,
    assignment: &[NodeId],
    require_distinct: bool,
) -> Result<f64> {
    routed_bottleneck_ms_ctx(
        &SolveContext::new(*inst, *cost),
        assignment,
        require_distinct,
    )
}

/// Hill-climbing polish for a routed rate assignment: per sweep, estimate
/// every single-module relocation (to an unused node) and every interior
/// host swap from precomputed routed-distance tables, then apply the best
/// estimated move and re-verify it exactly; repeat until no move improves
/// or `max_sweeps` moves were taken. Endpoints stay pinned; distinctness is
/// preserved.
///
/// Move estimation assumes symmetric transfer costs (the builder's
/// undirected links), but acceptance is gated on an exact
/// [`routed_bottleneck_ms`] re-evaluation, so the result is correct on any
/// network — asymmetry only costs move-selection quality.
///
/// Each sweep reads its distance tables from `2n` shortest-path trees of
/// the shared closure, so a cold context builds only the trees the polish
/// touches.
///
/// Used by the comparison harness to absorb label-pruning misses of the DP
/// heuristics; the result is always a valid no-reuse placement.
pub fn polish_rate_assignment_ctx(
    ctx: &SolveContext<'_>,
    assignment: &mut Vec<NodeId>,
    max_sweeps: usize,
) -> Result<f64> {
    let inst = ctx.instance();
    let mut current = routed_bottleneck_ms_ctx(ctx, assignment, true)?;
    let net = inst.network;
    let pipe = inst.pipeline;
    let n = assignment.len();
    if n <= 2 {
        return Ok(current); // endpoints are pinned; nothing to move
    }
    let k = net.node_count();

    for _ in 0..max_sweeps {
        // --- tables: routed distances per boundary, both directions -----
        // fwd[j] from host[j] with bytes m_j (boundary j → j+1), rev[j]
        // from host[j+1] (the symmetric reverse estimate)
        let mut fwd = Vec::with_capacity(n - 1);
        let mut rev = Vec::with_capacity(n - 1);
        for j in 0..n - 1 {
            let bytes = pipe.module(j).output_bytes;
            fwd.push(ctx.routed_from(assignment[j], bytes));
            rev.push(ctx.routed_from(assignment[j + 1], bytes));
        }
        // stage times: stages[2j] = compute_j, stages[2j+1] = transfer_j
        let mut stages = vec![0.0_f64; 2 * n - 1];
        for j in 0..n {
            let work = pipe.compute_work(j);
            stages[2 * j] = if work > 0.0 {
                work / net.power(assignment[j])
            } else {
                0.0
            };
            if j + 1 < n {
                stages[2 * j + 1] = fwd[j].dist[assignment[j + 1].index()];
            }
        }
        // prefix/suffix maxima for O(1) "max excluding a window"
        let len = stages.len();
        let mut pre = vec![0.0_f64; len + 1];
        let mut suf = vec![0.0_f64; len + 1];
        for i in 0..len {
            pre[i + 1] = pre[i].max(stages[i]);
        }
        for i in (0..len).rev() {
            suf[i] = suf[i + 1].max(stages[i]);
        }
        let max_excluding = |lo: usize, hi: usize| -> f64 {
            // max of stages outside [lo, hi]
            pre[lo].max(suf[hi + 1])
        };
        let used: std::collections::BTreeSet<NodeId> = assignment.iter().copied().collect();

        // --- enumerate candidate moves ----------------------------------
        #[derive(Clone, Copy)]
        enum Move {
            Relocate(usize, NodeId),
            Swap(usize, usize),
        }
        let mut best_est = current;
        let mut best_move: Option<Move> = None;
        // relocations of interior modules
        for j in 1..n - 1 {
            let work = pipe.compute_work(j);
            let others = max_excluding(2 * j - 1, 2 * j + 1);
            for vi in 0..k {
                let v = NodeId::from_index(vi);
                if used.contains(&v) {
                    continue;
                }
                // estimated affected stages: t_{j-1}, c_j, t_j
                let t_prev = fwd[j - 1].dist[vi];
                let t_next = rev[j].dist[vi]; // symmetric estimate of t(v, host[j+1])
                if !t_prev.is_finite() || !t_next.is_finite() {
                    continue;
                }
                let c_j = if work > 0.0 { work / net.power(v) } else { 0.0 };
                let est = others.max(t_prev).max(c_j).max(t_next);
                if est < best_est - 1e-12 {
                    best_est = est;
                    best_move = Some(Move::Relocate(j, v));
                }
            }
        }
        // interior swaps (estimate by scanning affected stages exactly)
        for a in 1..n - 1 {
            for b in a + 1..n - 1 {
                let ha = assignment[a].index();
                let hb = assignment[b].index();
                let wa = pipe.compute_work(a);
                let wb = pipe.compute_work(b);
                // affected transfers use table symmetry; adjacent pairs share t_a
                let (t_am1, t_a, t_bm1, t_b);
                t_am1 = fwd[a - 1].dist[hb];
                t_b = rev[b].dist[ha];
                if b == a + 1 {
                    // boundary a now runs host_b → host_a
                    t_a = fwd[a].dist[hb]; // symmetric: t(host_b, host_a, m_a)
                    t_bm1 = t_a;
                } else {
                    t_a = rev[a].dist[hb];
                    t_bm1 = fwd[b - 1].dist[ha];
                }
                if ![t_am1, t_a, t_bm1, t_b].iter().all(|t| t.is_finite()) {
                    continue;
                }
                let c_a = if wa > 0.0 {
                    wa / net.power(NodeId::from_index(hb))
                } else {
                    0.0
                };
                let c_b = if wb > 0.0 {
                    wb / net.power(NodeId::from_index(ha))
                } else {
                    0.0
                };
                // max over unaffected stages: scan once (O(n)); swaps touch
                // two windows so prefix/suffix alone cannot exclude both
                let mut others = 0.0_f64;
                for (i, &s) in stages.iter().enumerate() {
                    let touched =
                        (i >= 2 * a - 1 && i <= 2 * a + 1) || (i >= 2 * b - 1 && i <= 2 * b + 1);
                    if !touched {
                        others = others.max(s);
                    }
                }
                let est = others
                    .max(t_am1)
                    .max(c_a)
                    .max(t_a)
                    .max(t_bm1)
                    .max(c_b)
                    .max(t_b);
                if est < best_est - 1e-12 {
                    best_est = est;
                    best_move = Some(Move::Swap(a, b));
                }
            }
        }

        // --- apply and verify the best estimated move --------------------
        let Some(mv) = best_move else { break };
        let backup = assignment.clone();
        match mv {
            Move::Relocate(j, v) => assignment[j] = v,
            Move::Swap(a, b) => assignment.swap(a, b),
        }
        match routed_bottleneck_ms_ctx(ctx, assignment, true) {
            Ok(b) if b < current - 1e-12 => current = b,
            _ => {
                *assignment = backup;
                break; // estimate misled us (asymmetric net); stop here
            }
        }
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mapping;
    use elpc_netsim::Network;
    use elpc_pipeline::Pipeline;

    /// 0-1-2 line with a slow direct 0-2 link: routing beats the shortcut.
    fn shortcut_net() -> Network {
        let mut b = Network::builder();
        let n0 = b.add_node(100.0).unwrap();
        let n1 = b.add_node(100.0).unwrap();
        let n2 = b.add_node(100.0).unwrap();
        b.add_link(n0, n1, 1000.0, 0.1).unwrap();
        b.add_link(n1, n2, 1000.0, 0.1).unwrap();
        b.add_link(n0, n2, 1.0, 0.1).unwrap(); // slow direct
        b.build().unwrap()
    }

    fn pipe3() -> Pipeline {
        Pipeline::from_stages(1e6, &[(1.0, 1e5)], 1.0).unwrap()
    }

    #[test]
    fn routing_takes_the_faster_multi_hop_route() {
        let net = shortcut_net();
        let cm = CostModel::default();
        // 1 MB: direct = 8000 ms + 0.1; via n1 = 8 + 0.1 + 8 + 0.1
        let t = routed_transfer_ms(&net, &cm, NodeId(0), NodeId(2), 1e6).unwrap();
        assert!((t - 16.2).abs() < 1e-9, "got {t}");
        // tiny message: MLD dominates; direct (0.1) beats 2 hops (0.2)
        let t = routed_transfer_ms(&net, &cm, NodeId(0), NodeId(2), 1.0).unwrap();
        assert!(t < 0.2, "got {t}");
    }

    #[test]
    fn same_node_transfer_is_free() {
        let net = shortcut_net();
        let cm = CostModel::default();
        assert_eq!(
            routed_transfer_ms(&net, &cm, NodeId(1), NodeId(1), 1e9).unwrap(),
            0.0
        );
    }

    #[test]
    fn routed_delay_matches_strict_cost_model_on_adjacent_assignments() {
        let net = shortcut_net();
        let pipe = pipe3();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let cm = CostModel::default();
        // assignment 0,1,2 — all consecutive pairs adjacent via fast links
        let a = vec![NodeId(0), NodeId(1), NodeId(2)];
        let strict = cm
            .delay_ms(&inst, &Mapping::from_assignment(&a).unwrap())
            .unwrap();
        let routed = routed_delay_ms(&inst, &cm, &a).unwrap();
        assert!(routed <= strict + 1e-9);
        // here the direct links are the best routes, so they are equal
        assert!((routed - strict).abs() < 1e-9);
    }

    #[test]
    fn routed_never_exceeds_strict_even_with_slow_direct_links() {
        let net = shortcut_net();
        let pipe = pipe3();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let cm = CostModel::default();
        // assignment 0,0,2: modules 0-1 on n0, sink on n2; the 0→2 transfer
        // is routed via n1 and beats the slow direct link
        let a = vec![NodeId(0), NodeId(0), NodeId(2)];
        let strict = cm
            .delay_ms(&inst, &Mapping::from_assignment(&a).unwrap())
            .unwrap();
        let routed = routed_delay_ms(&inst, &cm, &a).unwrap();
        assert!(
            routed < strict,
            "routed {routed} should beat strict {strict}"
        );
    }

    #[test]
    fn bottleneck_flags_reuse_when_distinct_required() {
        let net = shortcut_net();
        let pipe = pipe3();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let cm = CostModel::default();
        let a = vec![NodeId(0), NodeId(0), NodeId(2)];
        assert!(routed_bottleneck_ms(&inst, &cm, &a, true).is_err());
        assert!(routed_bottleneck_ms(&inst, &cm, &a, false).is_ok());
    }

    #[test]
    fn endpoint_and_length_validation() {
        let net = shortcut_net();
        let pipe = pipe3();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let cm = CostModel::default();
        assert!(routed_delay_ms(&inst, &cm, &[NodeId(0), NodeId(1)]).is_err());
        assert!(routed_delay_ms(&inst, &cm, &[NodeId(1), NodeId(1), NodeId(2)]).is_err());
        assert!(routed_delay_ms(&inst, &cm, &[NodeId(0), NodeId(1), NodeId(1)]).is_err());
        assert!(routed_delay_ms(&inst, &cm, &[NodeId(0), NodeId(9), NodeId(2)]).is_err());
    }

    #[test]
    fn polish_never_worsens_and_respects_constraints() {
        // 5-node net where the initial placement is deliberately bad
        let mut b = Network::builder();
        let powers = [100.0, 1.0, 1000.0, 1.0, 100.0];
        let ns: Vec<NodeId> = powers.iter().map(|&p| b.add_node(p).unwrap()).collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                b.add_link(ns[i], ns[j], 100.0, 0.5).unwrap();
            }
        }
        let net = b.build().unwrap();
        let pipe = Pipeline::from_stages(1e6, &[(5.0, 1e5)], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, ns[0], ns[4]).unwrap();
        let cm = CostModel::default();
        // heavy middle module starts on the weakest node
        let mut a = vec![ns[0], ns[1], ns[4]];
        let before = routed_bottleneck_ms(&inst, &cm, &a, true).unwrap();
        let ctx = SolveContext::new(inst, cm);
        let after = polish_rate_assignment_ctx(&ctx, &mut a, 5).unwrap();
        assert!(after < before, "polish should fix the weak-node placement");
        assert_eq!(a[1], ns[2], "the strong node should host the heavy module");
        assert_eq!(a[0], ns[0]);
        assert_eq!(a[2], ns[4]);
        // idempotent at the local optimum
        let again = polish_rate_assignment_ctx(&ctx, &mut a.clone(), 5).unwrap();
        assert!((again - after).abs() < 1e-12);
    }

    #[test]
    fn routed_bottleneck_is_max_of_stage_times() {
        let net = shortcut_net();
        let pipe = pipe3();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let cm = CostModel::default();
        let a = vec![NodeId(0), NodeId(1), NodeId(2)];
        let b = routed_bottleneck_ms(&inst, &cm, &a, true).unwrap();
        // stages: xfer 1e6 over 1000 Mbps = 8.1; compute 1e6/100 = 1e4;
        // xfer 1e5 = 0.9; compute 1e5/100 = 1e3 → bottleneck = 1e4
        assert!((b - 1e4).abs() < 1e-9, "got {b}");
    }
}
