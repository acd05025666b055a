//! The Greedy baseline (§3.3).
//!
//! "A greedy algorithm iteratively obtains the greatest immediate gain
//! based on certain local optimality criteria at each step … calculates the
//! end-to-end delay or maximum frame rate for the mapping of a new module
//! onto the current node when node reuse is allowed or one of its neighbor
//! nodes and chooses the minimal one. This greedy algorithm makes a mapping
//! decision at each step only based on current information."
//!
//! Because greedy walks the network edge by edge, its output *is* a valid
//! adjacent-path [`Mapping`] (unlike Streamline's free placement). One
//! practical necessity the paper leaves implicit: module `n-1` is pinned to
//! the destination, so a candidate is only admissible if the destination
//! remains reachable within the remaining module budget (otherwise greedy
//! walks itself into a corner on almost every sparse instance). We use the
//! static BFS hop distance for that screen — a *necessary* condition only,
//! so the no-reuse variant can still dead-end and report infeasibility,
//! which is authentic greedy behaviour the experiments count.
//!
//! Complexity: `O(n · deg)` ≤ `O(m · n)` as stated in §3.3.

use crate::{CostModel, DelaySolution, Instance, Mapping, MappingError, RateSolution, Result};
use elpc_netgraph::algo::hop_distances_rev;
use elpc_netgraph::NodeId;

/// Greedy minimum end-to-end delay with node reuse.
pub fn solve_min_delay(inst: &Instance<'_>, cost: &CostModel) -> Result<DelaySolution> {
    let net = inst.network;
    let pipe = inst.pipeline;
    let n = pipe.len();
    let hops_to_dst = hop_distances_rev(net.graph(), inst.dst);
    if !reachable_within(&hops_to_dst, inst.src, n - 1) {
        return Err(MappingError::Infeasible(format!(
            "destination {} is more than {} hops from source {}",
            inst.dst,
            n - 1,
            inst.src
        )));
    }

    let mut assignment = Vec::with_capacity(n);
    assignment.push(inst.src);
    let mut current = inst.src;
    let mut total = 0.0;
    for j in 1..n {
        let work = pipe.compute_work(j);
        let in_bytes = pipe.input_bytes(j);
        let budget = n - 1 - j; // moves left after placing module j
                                // stay candidate
        let mut best_cost = if reachable_within(&hops_to_dst, current, budget) {
            work / net.power(current)
        } else {
            f64::INFINITY
        };
        let mut best_node = current;
        // move candidates
        for nb in net.graph().neighbors(current) {
            if !reachable_within(&hops_to_dst, nb.node, budget) {
                continue;
            }
            let c = work / net.power(nb.node) + cost.edge_transfer_ms(net, nb.edge, in_bytes);
            if c < best_cost {
                best_cost = c;
                best_node = nb.node;
            }
        }
        if best_cost.is_infinite() {
            return Err(MappingError::Infeasible(format!(
                "greedy stranded at {current} before module {j}"
            )));
        }
        total += best_cost;
        current = best_node;
        assignment.push(current);
    }
    debug_assert_eq!(current, inst.dst, "the hop screen forces arrival at dst");

    let mapping = Mapping::from_assignment(&assignment)?;
    debug_assert!({
        let re = cost.delay_ms(inst, &mapping)?;
        (re - total).abs() <= 1e-6 * total.max(1.0)
    });
    Ok(DelaySolution {
        mapping,
        delay_ms: total,
    })
}

/// Greedy maximum frame rate without node reuse.
pub fn solve_max_rate(inst: &Instance<'_>, cost: &CostModel) -> Result<RateSolution> {
    let net = inst.network;
    let pipe = inst.pipeline;
    let n = pipe.len();
    let k = net.node_count();
    inst.ensure_distinct_hosts_feasible()?;
    let hops_to_dst = hop_distances_rev(net.graph(), inst.dst);

    let mut used = vec![false; k];
    used[inst.src.index()] = true;
    let mut assignment = Vec::with_capacity(n);
    assignment.push(inst.src);
    let mut current = inst.src;
    let mut bottleneck = 0.0_f64;
    for j in 1..n {
        let work = pipe.compute_work(j);
        let in_bytes = pipe.input_bytes(j);
        let budget = n - 1 - j;
        let mut best: Option<(f64, f64, NodeId, elpc_netgraph::EdgeId)> = None;
        for nb in net.graph().neighbors(current) {
            if used[nb.node.index()] {
                continue;
            }
            // dst may only host the last module
            if nb.node == inst.dst && j != n - 1 {
                continue;
            }
            if !reachable_within(&hops_to_dst, nb.node, budget) {
                continue;
            }
            let compute = work / net.power(nb.node);
            let transfer = cost.edge_transfer_ms(net, nb.edge, in_bytes);
            let stage_max = compute.max(transfer);
            let new_bottleneck = bottleneck.max(stage_max);
            // local criterion: smallest resulting bottleneck, tie-broken by
            // the smaller stage time (leaves more headroom later)
            let key = (new_bottleneck, stage_max);
            if best.is_none_or(|(b0, s0, _, _)| key < (b0, s0)) {
                best = Some((new_bottleneck, stage_max, nb.node, nb.edge));
            }
        }
        let Some((new_bottleneck, _, node, _)) = best else {
            return Err(MappingError::Infeasible(format!(
                "greedy stranded at {current} before module {j} (no unused \
                 neighbor keeps the destination reachable)"
            )));
        };
        bottleneck = new_bottleneck;
        used[node.index()] = true;
        current = node;
        assignment.push(node);
    }
    debug_assert_eq!(current, inst.dst);

    let mapping = Mapping::from_assignment(&assignment)?;
    debug_assert!(mapping.is_one_to_one());
    debug_assert!({
        let re = cost.bottleneck_ms(inst, &mapping)?;
        (re - bottleneck).abs() <= 1e-6 * bottleneck.max(1.0)
    });
    Ok(RateSolution {
        mapping,
        bottleneck_ms: bottleneck,
    })
}

#[inline]
fn reachable_within(hops_to_dst: &[Option<u32>], node: NodeId, budget: usize) -> bool {
    hops_to_dst[node.index()].is_some_and(|d| d as usize <= budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elpc_netsim::Network;
    use elpc_pipeline::{Module, Pipeline};

    fn cost() -> CostModel {
        CostModel::default()
    }

    fn net5() -> Network {
        let mut b = Network::builder();
        let powers = [100.0, 10.0, 1000.0, 10.0, 100.0];
        let ns: Vec<NodeId> = powers.iter().map(|&p| b.add_node(p).unwrap()).collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                b.add_link(ns[i], ns[j], 100.0, 0.5).unwrap();
            }
        }
        b.build().unwrap()
    }

    fn pipe(n: usize) -> Pipeline {
        let stages: Vec<(f64, f64)> = (0..n - 2).map(|_| (2.0, 1e5)).collect();
        Pipeline::from_stages(1e6, &stages, 1.0).unwrap()
    }

    #[test]
    fn delay_solution_is_a_valid_mapping_reaching_dst() {
        let net = net5();
        let p = pipe(4);
        let inst = Instance::new(&net, &p, NodeId(0), NodeId(4)).unwrap();
        let sol = solve_min_delay(&inst, &cost()).unwrap();
        sol.mapping.validate(&inst, false).unwrap();
        assert_eq!(*sol.mapping.path().last().unwrap(), NodeId(4));
    }

    #[test]
    fn greedy_is_never_better_than_elpc_delay() {
        let net = net5();
        for n in [3, 4, 5, 6] {
            let p = pipe(n);
            let inst = Instance::new(&net, &p, NodeId(0), NodeId(4)).unwrap();
            let g = solve_min_delay(&inst, &cost()).unwrap();
            let e = crate::elpc_delay::solve(&inst, &cost()).unwrap();
            assert!(
                e.delay_ms <= g.delay_ms + 1e-9,
                "n={n}: ELPC {} vs greedy {}",
                e.delay_ms,
                g.delay_ms
            );
        }
    }

    #[test]
    fn greedy_is_never_better_than_exact_rate() {
        let net = net5();
        for n in [3, 4, 5] {
            let p = pipe(n);
            let inst = Instance::new(&net, &p, NodeId(0), NodeId(4)).unwrap();
            let g = solve_max_rate(&inst, &cost()).unwrap();
            let ex = crate::exact::max_rate(&inst, &cost(), crate::exact::ExactLimits::default())
                .unwrap();
            assert!(ex.bottleneck_ms <= g.bottleneck_ms + 1e-9);
        }
    }

    #[test]
    fn rate_solution_never_reuses_nodes() {
        let net = net5();
        let p = pipe(5);
        let inst = Instance::new(&net, &p, NodeId(0), NodeId(4)).unwrap();
        let sol = solve_max_rate(&inst, &cost()).unwrap();
        assert!(sol.mapping.is_one_to_one());
        sol.mapping.validate(&inst, true).unwrap();
    }

    #[test]
    fn myopia_can_cost_greedy_the_optimum() {
        // trap: a tempting fast neighbor leads into a slow corner.
        //   s ——— trap(fast cpu, then slow exit link) ——— d
        //   s ——— good(slow cpu, fast exit) ——— d
        let mut b = Network::builder();
        let s = b.add_node(10.0).unwrap();
        let trap = b.add_node(1000.0).unwrap();
        let good = b.add_node(500.0).unwrap();
        let d = b.add_node(10.0).unwrap();
        b.add_link(s, trap, 1000.0, 0.1).unwrap();
        b.add_link(trap, d, 1.0, 0.1).unwrap(); // slow exit
        b.add_link(s, good, 1000.0, 0.1).unwrap();
        b.add_link(good, d, 1000.0, 0.1).unwrap();
        let net = b.build().unwrap();
        let p = Pipeline::new(vec![
            Module::new(0.0, 1e6),
            Module::new(1.0, 2e6), // big output makes the slow exit fatal
            Module::new(0.0001, 0.0),
        ])
        .unwrap();
        let inst = Instance::new(&net, &p, s, d).unwrap();
        let g = solve_min_delay(&inst, &cost()).unwrap();
        let e = crate::elpc_delay::solve(&inst, &cost()).unwrap();
        // greedy grabs the locally cheaper trap node (1000 ms compute vs
        // 2000 ms on `good`), then pays 16000 ms shipping 2 MB over the
        // 1 Mbps exit; ELPC routes via `good` for ~2 s total
        assert!(
            g.delay_ms > e.delay_ms * 2.0,
            "greedy {} vs elpc {}",
            g.delay_ms,
            e.delay_ms
        );
        assert_eq!(g.mapping.assignment()[1], trap);
        assert_eq!(e.mapping.assignment()[1], good);
    }

    #[test]
    fn infeasible_cases_are_reported() {
        // line 0-1-2, 2-module pipeline, endpoints 2 hops apart
        let mut b = Network::builder();
        let n0 = b.add_node(10.0).unwrap();
        let n1 = b.add_node(10.0).unwrap();
        let n2 = b.add_node(10.0).unwrap();
        b.add_link(n0, n1, 10.0, 0.1).unwrap();
        b.add_link(n1, n2, 10.0, 0.1).unwrap();
        let net = b.build().unwrap();
        let p = Pipeline::new(vec![Module::new(0.0, 1e4), Module::new(1.0, 0.0)]).unwrap();
        let inst = Instance::new(&net, &p, NodeId(0), NodeId(2)).unwrap();
        assert!(matches!(
            solve_min_delay(&inst, &cost()),
            Err(MappingError::Infeasible(_))
        ));
        // rate: more modules than nodes
        let p = pipe(7);
        let inst = Instance::new(&net, &p, NodeId(0), NodeId(2)).unwrap();
        assert!(matches!(
            solve_max_rate(&inst, &cost()),
            Err(MappingError::Infeasible(_))
        ));
    }

    #[test]
    fn reuse_lets_greedy_idle_on_good_nodes() {
        // when staying is free (no transfer), greedy groups modules on the
        // current node if moving would not pay off
        let mut b = Network::builder();
        let s = b.add_node(1000.0).unwrap();
        let d = b.add_node(1.0).unwrap();
        b.add_link(s, d, 1.0, 10.0).unwrap();
        let net = b.build().unwrap();
        let p = Pipeline::new(vec![
            Module::new(0.0, 1e6),
            Module::new(2.0, 1e4),
            Module::new(2.0, 1e4),
            Module::new(0.1, 0.0),
        ])
        .unwrap();
        let inst = Instance::new(&net, &p, s, d).unwrap();
        let sol = solve_min_delay(&inst, &cost()).unwrap();
        let a = sol.mapping.assignment();
        // modules 1 and 2 stay on the strong source; only the pinned sink moves
        assert_eq!(a, vec![s, s, s, d]);
    }
}
