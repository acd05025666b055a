//! ELPC minimum end-to-end delay with node reuse (§3.1.1).
//!
//! Fills the Fig. 1 two-dimensional table column by column: cell `T_j(v)`
//! holds the minimum total delay of mapping the first `j+1` modules (0-based
//! here) onto a walk from the source `vs` ending at `v`. Each new column
//! considers the two sub-cases of the paper's correctness proof:
//!
//! 1. **stay** — module `j` joins the group on the same node `v`
//!    (`T_{j-1}(v) + c_j·m_{j-1}/p_v`), and
//! 2. **move** — module `j` starts a new group on `v`, fed from the host `u`
//!    of module `j-1` (`T_{j-1}(u) + c_j·m_{j-1}/p_v + transfer(m_{j-1}, u→v)`).
//!
//! The base column pins module 0 (the data source) to `vs` with zero cost;
//! this deliberately *includes* `T_1(vs)` via the stay case, which the
//! paper's Eq. 4 omits but its own Fig. 3 solution requires.
//!
//! One column loop, `solve_columns`, serves both variants; they differ only
//! in the moves they offer it: [`solve`] the network's links, one at a
//! time, and [`solve_routed_ctx`] every host pair of the metric closure,
//! one closure row per reached host in a single pass over the column. A
//! cell keeps a move only if it is strictly smaller, so ties go to the stay
//! case, then to the first move offered: each variant's move order is its
//! tie-break.

use crate::{
    AssignmentSolution, CostModel, DelaySolution, Instance, Mapping, MappingError, Result,
    SolveContext,
};
use elpc_netgraph::NodeId;

/// The column under construction: each host's compute time for the
/// column's module, and each cell's best delay and parent host so far.
struct Column {
    compute: Vec<f64>,
    cost: Vec<f64>,
    parent: Vec<Option<NodeId>>,
}

impl Column {
    /// Offers a move `u → v` with total delay `t`; the cell keeps it only
    /// when it is strictly smaller than the cell's best so far.
    #[inline]
    fn relax(&mut self, u: usize, v: usize, t: f64) {
        if t < self.cost[v] {
            self.cost[v] = t;
            self.parent[v] = Some(NodeId::from_index(u));
        }
    }

    /// Offers every move out of host `u` at once: `u → v` costs
    /// `(from + dist[v]) + compute[v]`, kept under [`Column::relax`]'s
    /// strict rule. One pass over the four rows, without per-cell guards:
    /// `u`'s own cell (`dist[u] == 0.0`) offers bitwise its stay value,
    /// and an unreachable cell offers `∞`, so neither is ever kept.
    fn relax_row(&mut self, u: usize, from: f64, dist: &[f64]) {
        debug_assert_eq!(dist.len(), self.cost.len(), "one distance per host");
        debug_assert_eq!(dist[u], 0.0, "a tree's root is at distance zero");
        let via = Some(NodeId::from_index(u));
        let cells = self.cost.iter_mut().zip(&mut self.parent);
        for ((cost, parent), (&d, &compute)) in cells.zip(dist.iter().zip(&self.compute)) {
            let t = (from + d) + compute;
            if t < *cost {
                *cost = t;
                *parent = via;
            }
        }
    }
}

/// The delay DP's column loop. Column `j` seeds each cell with its stay
/// value (`prev[v] + compute[v]`, parent `v`), then `moves(j, prev, col)`
/// offers its moves through [`Column::relax`]. Returns the assignment and
/// delay of the best walk into the destination, `None` if there is none.
fn solve_columns<M>(inst: &Instance<'_>, mut moves: M) -> Option<(Vec<NodeId>, f64)>
where
    M: FnMut(usize, &[f64], &mut Column),
{
    let net = inst.network;
    let pipe = inst.pipeline;
    let n = pipe.len();
    let k = net.node_count();
    // T[v] for the previous column; module 0 sits on src at zero cost.
    let mut prev = vec![f64::INFINITY; k];
    prev[inst.src.index()] = 0.0;
    // parents[j - 1][v] for columns j = 1..n (column 0 is implicit)
    let mut parents = Vec::with_capacity(n - 1);
    let mut col = Column {
        compute: vec![0.0; k],
        cost: vec![f64::INFINITY; k],
        parent: vec![None; k],
    };
    for j in 1..n {
        let work = pipe.compute_work(j);
        for v in 0..k {
            let vid = NodeId::from_index(v);
            col.compute[v] = work / net.power(vid);
            let reached = prev[v].is_finite();
            col.cost[v] = if reached {
                prev[v] + col.compute[v]
            } else {
                f64::INFINITY
            };
            col.parent[v] = reached.then_some(vid);
        }
        moves(j, &prev, &mut col);
        parents.push(col.parent.clone());
        prev.copy_from_slice(&col.cost);
    }

    let total = prev[inst.dst.index()];
    if !total.is_finite() {
        return None;
    }
    // walk parents back from (n-1, dst)
    let mut assignment = vec![inst.dst; n];
    for j in (1..n).rev() {
        assignment[j - 1] =
            parents[j - 1][assignment[j].index()].expect("finite cells have parents");
    }
    debug_assert_eq!(assignment[0], inst.src, "module 0 must end on the source");
    Some((assignment, total))
}

/// Solves the minimum end-to-end delay problem. Returns the optimal mapping
/// and its Eq. 1 delay.
///
/// Moves are the network's links in edge-id order (ties go to the lowest
/// edge id), each charged `(prev[u] + compute[v]) + transfer(u→v)`.
/// `O(n·(k + |E|))` time — the paper's `O(n·|E|)` plus the stay scan.
///
/// Errors with [`MappingError::Infeasible`] when the destination cannot be
/// reached within `n - 1` hops (§4.3: "the shortest end-to-end path is
/// longer than the pipeline").
pub fn solve(inst: &Instance<'_>, cost: &CostModel) -> Result<DelaySolution> {
    let net = inst.network;
    let pipe = inst.pipeline;
    let (assignment, total) = solve_columns(inst, |j, prev, col| {
        let in_bytes = pipe.input_bytes(j);
        for (eid, e) in net.graph().edges() {
            let (u, v) = (e.src.index(), e.dst.index());
            if !prev[u].is_finite() {
                continue;
            }
            let t = prev[u] + col.compute[v] + cost.edge_transfer_ms(net, eid, in_bytes);
            col.relax(u, v, t);
        }
    })
    .ok_or_else(|| {
        MappingError::Infeasible(format!(
            "destination {} is more than {} hops from source {}",
            inst.dst,
            pipe.len() - 1,
            inst.src
        ))
    })?;

    let mapping = Mapping::from_assignment(&assignment)?;
    debug_assert!(
        cost.delay_ms(inst, &mapping)
            .is_ok_and(|check| (check - total).abs() <= 1e-6 * total.max(1.0)),
        "DP objective must match Eq. 1 evaluation"
    );
    Ok(DelaySolution {
        mapping,
        delay_ms: total,
    })
}

/// ELPC-delay on the network's *metric closure* (routed-overlay variant).
///
/// The strict DP above charges transfers at direct-link cost and therefore
/// must place a module on every traversed node. Free-placement baselines
/// (Streamline) are instead evaluated under routed transport — the best
/// multi-hop route between consecutive hosts ([`crate::routed`]). This
/// variant runs the same column loop over the *complete overlay* whose
/// `u → v` cost is the routed transfer time, making it **optimal for the
/// routed objective**: no per-module placement, Streamline's included, can
/// beat it. Use it whenever baselines are compared under routed semantics
/// (the Fig. 2/5 tables do).
///
/// Moves are source-major: for each reached host `u` in ascending order,
/// one [`SolveContext::routed_from`] query, then one pass over the whole
/// column that offers every cell `v` the move `(prev[u] + d(u→v)) +
/// compute[v]`; ties go to the stay case, then to the lowest source. The
/// pass has no per-cell guards because the two cells the moves exclude
/// can never win: `u`'s own cell has `d(u→u) = 0`, so it offers bitwise
/// its stay value, and a host `u` cannot reach has `d = ∞`, so it offers
/// `∞`; neither is strictly smaller than the cell. `O(n·k²)` relax work
/// plus the trees, which come from the context's shared
/// [`crate::MetricClosure`] (built in parallel up front,
/// [`SolveContext::warm_routed_dp`], on a [`SolveContext::with_threads`]
/// context).
pub fn solve_routed_ctx(ctx: &SolveContext<'_>) -> Result<AssignmentSolution> {
    let inst = ctx.instance();
    let pipe = inst.pipeline;
    ctx.warm_routed_dp();

    let (assignment, total) = solve_columns(inst, |j, prev, col| {
        let in_bytes = pipe.input_bytes(j);
        for (u, &from) in prev.iter().enumerate() {
            if !from.is_finite() {
                continue;
            }
            let tree = ctx.routed_from(NodeId::from_index(u), in_bytes);
            col.relax_row(u, from, &tree.dist);
        }
    })
    .ok_or_else(|| {
        MappingError::Infeasible(format!(
            "destination {} is unreachable from source {}",
            inst.dst, inst.src
        ))
    })?;

    // re-evaluated on a transient context, so the check neither moves the
    // shared closure's statistics nor turns into an error of its own
    debug_assert!(
        crate::routed::routed_delay_ms_ctx(
            &SolveContext::new(*ctx.instance(), *ctx.cost()),
            &assignment
        )
        .is_ok_and(|re| (re - total).abs() <= 1e-6 * total.max(1.0)),
        "DP objective must match the routed evaluation"
    );
    Ok(AssignmentSolution {
        assignment,
        objective_ms: total,
    })
}

/// [`solve_routed_ctx`] with a transient context (cold path). Prefer the
/// context form when running several solvers on one instance.
pub fn solve_routed(inst: &Instance<'_>, cost: &CostModel) -> Result<AssignmentSolution> {
    solve_routed_ctx(&SolveContext::new(*inst, *cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use elpc_netsim::Network;
    use elpc_pipeline::{Module, Pipeline};

    fn cost() -> CostModel {
        CostModel::default()
    }

    /// Fast source, weak middle, fast destination, on a 0-1-2 line.
    fn line_net() -> Network {
        let mut b = Network::builder();
        let n0 = b.add_node(100.0).unwrap();
        let n1 = b.add_node(1.0).unwrap();
        let n2 = b.add_node(100.0).unwrap();
        b.add_link(n0, n1, 100.0, 0.1).unwrap();
        b.add_link(n1, n2, 100.0, 0.1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn groups_heavy_work_away_from_weak_nodes() {
        let net = line_net();
        // 4 modules: heavy stage work; the optimum keeps compute on the
        // fast endpoints and leaves only a light module on the weak relay.
        let pipe = Pipeline::new(vec![
            Module::new(0.0, 1e4),
            Module::new(5.0, 1e4), // heavy
            Module::new(0.1, 1e4), // light
            Module::new(5.0, 0.0), // heavy sink (pinned to n2 anyway)
        ])
        .unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let sol = solve(&inst, &cost()).unwrap();
        let a = sol.mapping.assignment();
        assert_eq!(a[0], NodeId(0));
        assert_eq!(a[3], NodeId(2));
        // heavy module 1 stays on the fast source, not the weak middle
        assert_eq!(a[1], NodeId(0));
        // module 2 (light) is the one that crosses the weak node
        assert_eq!(a[2], NodeId(1));
    }

    #[test]
    fn single_node_instance_runs_everything_locally() {
        // src == dst: optimal is q = 1, pure local compute
        let net = line_net();
        let pipe = Pipeline::from_stages(1e4, &[(1.0, 1e3)], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(0)).unwrap();
        let sol = solve(&inst, &cost()).unwrap();
        assert_eq!(sol.mapping.q(), 1);
        assert_eq!(sol.mapping.path(), &[NodeId(0)]);
        // (1*1e4 + 1*1e3)/100 = 110 ms
        assert!((sol.delay_ms - 110.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_when_pipeline_shorter_than_shortest_path() {
        let net = line_net();
        let pipe = Pipeline::new(vec![Module::new(0.0, 1e3), Module::new(1.0, 0.0)]).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        assert!(matches!(
            solve(&inst, &cost()),
            Err(MappingError::Infeasible(_))
        ));
    }

    #[test]
    fn delay_equals_cost_model_reevaluation() {
        let net = line_net();
        let pipe = Pipeline::from_stages(1e5, &[(2.0, 5e4), (1.0, 2e4)], 0.5).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let sol = solve(&inst, &cost()).unwrap();
        let re = cost().delay_ms(&inst, &sol.mapping).unwrap();
        assert!((sol.delay_ms - re).abs() < 1e-9);
    }

    #[test]
    fn mld_toggle_changes_the_reported_delay() {
        let net = line_net();
        let pipe = Pipeline::from_stages(1e5, &[(2.0, 5e4), (1.0, 2e4)], 0.5).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let with = solve(&inst, &CostModel { include_mld: true }).unwrap();
        let without = solve(&inst, &CostModel { include_mld: false }).unwrap();
        assert!(with.delay_ms > without.delay_ms);
    }

    #[test]
    fn fast_relay_attracts_heavy_modules() {
        // star: src —— hub (very fast) —— dst; hub power dwarfs endpoints
        let mut b = Network::builder();
        let s = b.add_node(1.0).unwrap();
        let hub = b.add_node(1000.0).unwrap();
        let d = b.add_node(1.0).unwrap();
        b.add_link(s, hub, 1000.0, 0.01).unwrap();
        b.add_link(hub, d, 1000.0, 0.01).unwrap();
        let net = b.build().unwrap();
        let pipe = Pipeline::new(vec![
            Module::new(0.0, 1e6),
            Module::new(10.0, 1e6),
            Module::new(10.0, 1e4),
            Module::new(0.1, 0.0),
        ])
        .unwrap();
        let inst = Instance::new(&net, &pipe, s, d).unwrap();
        let sol = solve(&inst, &CostModel::default()).unwrap();
        let a = sol.mapping.assignment();
        // both heavy middle modules run on the hub
        assert_eq!(a[1], hub);
        assert_eq!(a[2], hub);
    }

    #[test]
    fn loops_are_used_when_a_detour_node_is_fast() {
        // src=dst-adjacent triangle: src(slow) — helper(fast) — dst(slow),
        // plus src—dst direct. With 3 modules the optimum may bounce
        // src → helper → dst; verify the solver at least matches the
        // best enumerated alternative.
        let mut b = Network::builder();
        let s = b.add_node(1.0).unwrap();
        let h = b.add_node(500.0).unwrap();
        let d = b.add_node(1.0).unwrap();
        b.add_link(s, h, 1000.0, 0.01).unwrap();
        b.add_link(h, d, 1000.0, 0.01).unwrap();
        b.add_link(s, d, 1000.0, 0.01).unwrap();
        let net = b.build().unwrap();
        let pipe = Pipeline::new(vec![
            Module::new(0.0, 1e6),
            Module::new(20.0, 1e5),
            Module::new(0.5, 0.0),
        ])
        .unwrap();
        let inst = Instance::new(&net, &pipe, s, d).unwrap();
        let sol = solve(&inst, &CostModel::default()).unwrap();
        // heavy module 1 must run on the helper
        assert_eq!(sol.mapping.assignment()[1], h);
    }

    #[test]
    fn two_module_pipeline_on_adjacent_endpoints() {
        let net = line_net();
        let pipe = Pipeline::new(vec![Module::new(0.0, 1e4), Module::new(1.0, 0.0)]).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(1)).unwrap();
        let sol = solve(&inst, &cost()).unwrap();
        assert_eq!(sol.mapping.path(), &[NodeId(0), NodeId(1)]);
        // transfer 1e4 B over 100 Mbps = 0.8 ms + 0.1 MLD, compute 1e4/1
        assert!((sol.delay_ms - (0.9 + 1e4)).abs() < 1e-9);
    }

    #[test]
    fn solution_validates_under_the_instance() {
        let net = line_net();
        let pipe = Pipeline::from_stages(1e5, &[(1.0, 1e4), (2.0, 1e3)], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, NodeId(0), NodeId(2)).unwrap();
        let sol = solve(&inst, &cost()).unwrap();
        sol.mapping.validate(&inst, false).unwrap();
    }

    #[test]
    fn routed_variant_never_loses_to_strict_or_streamline() {
        use rand::{Rng, SeedableRng};
        for seed in 0..15u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let k = rng.gen_range(4..9);
            let links = rng.gen_range(k - 1..=k * (k - 1) / 2);
            let topo = elpc_netgraph::gen::random_connected(k, links, &mut rng).unwrap();
            let powers: Vec<f64> = (0..k).map(|_| rng.gen_range(10.0..1000.0)).collect();
            let mut lr = rand_chacha::ChaCha8Rng::seed_from_u64(seed + 77);
            let net = Network::from_topology(
                &topo,
                |i| elpc_netsim::Node::with_power(powers[i]),
                |_, _| elpc_netsim::Link::new(lr.gen_range(1.0..1000.0), lr.gen_range(0.1..5.0)),
            )
            .unwrap();
            let n = rng.gen_range(2..=k.min(6));
            let pipe = elpc_pipeline::gen::PipelineSpec {
                modules: n,
                ..Default::default()
            }
            .generate(&mut rng)
            .unwrap();
            let inst = Instance::new(&net, &pipe, NodeId(0), NodeId((k - 1) as u32)).unwrap();
            let routed = solve_routed(&inst, &cost()).unwrap();
            // routed relaxation never loses to the strict optimum
            if let Ok(strict) = solve(&inst, &cost()) {
                assert!(
                    routed.objective_ms <= strict.delay_ms + 1e-9,
                    "seed {seed}: routed {} > strict {}",
                    routed.objective_ms,
                    strict.delay_ms
                );
            }
            // and provably dominates Streamline under the same semantics
            if let Ok(sl) = crate::streamline::solve_min_delay(&inst, &cost()) {
                assert!(
                    routed.objective_ms <= sl.objective_ms + 1e-9,
                    "seed {seed}: routed ELPC {} > Streamline {}",
                    routed.objective_ms,
                    sl.objective_ms
                );
            }
        }
    }

    /// A slow source `s` and a slow destination `t`, joined through two
    /// identical fast relays `a < b` by identical links, plus a fast host
    /// no link reaches. Every route over the relays costs bitwise the same.
    fn twin_relay_net() -> Network {
        let mut b = Network::builder();
        let s = b.add_node(1.0).unwrap();
        let (ra, rb) = (b.add_node(1000.0).unwrap(), b.add_node(1000.0).unwrap());
        let t = b.add_node(1.0).unwrap();
        b.add_node(1000.0).unwrap();
        for (x, y) in [(s, ra), (s, rb), (ra, t), (rb, t)] {
            b.add_link(x, y, 100.0, 0.1).unwrap();
        }
        b.build_unchecked()
    }

    #[test]
    fn routed_scan_breaks_exact_ties_stay_first_then_lowest_source() {
        let net = twin_relay_net();
        let [s, a, t, lone] = [0, 1, 3, 4].map(NodeId);
        // zero compute: at `t` the stay and the moves from `s`, `a` and
        // `b` all cost bitwise `2d`, and the stay keeps the cell
        let free = Pipeline::new(vec![
            Module::new(0.0, 1e4),
            Module::new(0.0, 1e4),
            Module::new(0.0, 0.0),
        ])
        .unwrap();
        let inst = Instance::new(&net, &free, s, t).unwrap();
        let sol = solve_routed(&inst, &cost()).unwrap();
        assert_eq!(sol.assignment, vec![s, t, t]);

        // real compute: the slow endpoints lose, and the relays' moves into
        // `t` tie exactly, so the lower source `a` keeps the cell
        let work = Pipeline::new(vec![
            Module::new(0.0, 1e4),
            Module::new(1.0, 1e4),
            Module::new(1.0, 0.0),
        ])
        .unwrap();
        let inst = Instance::new(&net, &work, s, t).unwrap();
        let sol = solve_routed(&inst, &cost()).unwrap();
        assert_eq!(sol.assignment, vec![s, a, t]);

        // the unreached host's cell: its distance is infinite in every
        // row, and offering it leaves the cell unreached and unparented
        let ctx = SolveContext::new(inst, cost());
        let tree = ctx.routed_from(s, 1e4);
        assert!(tree.dist[lone.index()].is_infinite());
        let k = net.node_count();
        let mut col = Column {
            compute: vec![10.0; k],
            cost: vec![f64::INFINITY; k],
            parent: vec![None; k],
        };
        (col.cost[s.index()], col.parent[s.index()]) = (10.0, Some(s));
        col.relax_row(s.index(), 0.0, &tree.dist);
        assert_eq!(col.cost[lone.index()], f64::INFINITY);
        assert_eq!(col.parent[lone.index()], None);
        // the root's own cell offered exactly its stay value, and kept it
        assert_eq!(
            (col.cost[s.index()], col.parent[s.index()]),
            (10.0, Some(s))
        );
        assert_eq!(col.parent[a.index()], Some(s));
    }

    #[test]
    fn routed_equals_strict_on_complete_networks() {
        // on a complete graph the best route between any pair is usually the
        // direct link, but multi-hop can still win when a relay pair of fat
        // links beats one thin link — so routed ≤ strict, with equality when
        // direct links dominate
        let mut b = Network::builder();
        let ns: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(100.0 * (i + 1) as f64).unwrap())
            .collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_link(ns[i], ns[j], 100.0, 0.5).unwrap();
            }
        }
        let net = b.build().unwrap();
        let pipe = Pipeline::from_stages(1e6, &[(2.0, 1e5)], 1.0).unwrap();
        let inst = Instance::new(&net, &pipe, ns[0], ns[3]).unwrap();
        let strict = solve(&inst, &cost()).unwrap();
        let routed = solve_routed(&inst, &cost()).unwrap();
        assert!((routed.objective_ms - strict.delay_ms).abs() < 1e-9);
    }
}
