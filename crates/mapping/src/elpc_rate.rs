//! ELPC maximum frame rate without node reuse (§3.1.2).
//!
//! The underlying problem — the widest path with *exactly* `n` nodes — is
//! NP-complete (the paper's reduction from Hamiltonian Path; reproduced as
//! a test in `exact.rs`). The paper's heuristic adapts the delay DP:
//! a cell `T_j(v)` now holds the best *bottleneck* (Eq. 5/6), "at each step,
//! we ensure that the current node has not been used previously in the
//! path".
//!
//! Keeping only one label (partial path) per cell is what makes it a
//! heuristic: if the single best partial path into `v` blocks the only
//! continuation to the destination, a feasible or better solution is
//! missed. The paper argues this is "extremely rare"; experiment E8
//! measures it against the exact solver. [`RateConfig::k_labels`] keeps the
//! K best distinct partial paths per cell instead of one (ablation A2) —
//! `k_labels = 1` is the published algorithm.
//!
//! Eq. 5's transfer term is `m_{j-1}/b` here (the data module `j` actually
//! receives); the paper prints `m_j`, inconsistent with its own base case
//! Eq. 6 — DESIGN.md erratum 3.
//!
//! One column loop, `solve_columns`, serves both variants; they differ only
//! in the moves they offer it: [`solve_with`] the network's links, and
//! [`solve_routed_with_ctx`] every host pair of the metric closure. A new
//! label goes after the cell's labels of equal bottleneck, so ties go to
//! the first move offered: each variant's move order is its tie-break.

use crate::{
    AssignmentSolution, CostModel, Instance, Mapping, MappingError, RateSolution, Result,
    SolveContext,
};
use elpc_netgraph::NodeId;

/// Configuration for the rate DP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateConfig {
    /// Number of labels (distinct partial paths) kept per DP cell.
    /// 1 reproduces the paper's algorithm.
    pub k_labels: usize,
}

impl Default for RateConfig {
    fn default() -> Self {
        RateConfig { k_labels: 1 }
    }
}

/// A partial mapping ending at some node: bottleneck so far, visited-node
/// bitmask, and the predecessor (node, label index) for reconstruction.
#[derive(Debug, Clone)]
struct Label {
    bottleneck: f64,
    mask: Box<[u64]>,
    parent: Option<(NodeId, u32)>,
}

impl Label {
    fn mask_contains(&self, v: usize) -> bool {
        self.mask[v / 64] & (1u64 << (v % 64)) != 0
    }

    fn mask_with(&self, v: usize) -> Box<[u64]> {
        let mut m = self.mask.clone();
        m[v / 64] |= 1u64 << (v % 64);
        m
    }
}

/// The column under construction: the previous column's label sets, each
/// host's compute time for the column's module, and the new label sets.
struct Column<'c> {
    prev: &'c [Vec<Label>],
    compute: Vec<f64>,
    cells: Vec<Vec<Label>>,
    k_labels: usize,
}

impl Column<'_> {
    /// Offers every label of `prev[u]` a move to `v` whose transfer stage
    /// takes `transfer` ms, in label order; labels that already visited `v`
    /// are skipped (node reuse is disabled for streaming). `v`'s label set
    /// stays sorted by ascending bottleneck and bounded by `k_labels`; a new
    /// label goes after the labels of equal bottleneck, and one that would
    /// land past the bound, or that duplicates a label (same bottleneck and
    /// same visited set), is dropped — the bound is checked first, so a
    /// dropped label never pays for its mask.
    #[inline]
    fn offer(&mut self, u: usize, v: usize, transfer: f64) {
        let cell = &mut self.cells[v];
        for (idx, label) in self.prev[u].iter().enumerate() {
            if label.mask_contains(v) {
                continue;
            }
            let bottleneck = label.bottleneck.max(self.compute[v]).max(transfer);
            let pos = cell.partition_point(|l| l.bottleneck <= bottleneck);
            if pos >= self.k_labels {
                continue;
            }
            let mask = label.mask_with(v);
            if cell
                .iter()
                .any(|l| l.bottleneck == bottleneck && l.mask == mask)
            {
                continue;
            }
            cell.insert(
                pos,
                Label {
                    bottleneck,
                    mask,
                    parent: Some((NodeId::from_index(u), idx as u32)),
                },
            );
            cell.truncate(self.k_labels);
        }
    }
}

/// The rate DP's column loop. Screens the instance (`k_labels ≥ 1`,
/// `n ≤ k`, `src ≠ dst`), roots column 0 at the source, and lets
/// `moves(j, col)` offer column `j`'s moves through [`Column::offer`].
/// Returns the assignment and bottleneck of the best final label on the
/// destination, `None` if there is none.
fn solve_columns<M>(
    inst: &Instance<'_>,
    config: RateConfig,
    mut moves: M,
) -> Result<Option<(Vec<NodeId>, f64)>>
where
    M: FnMut(usize, &mut Column<'_>),
{
    if config.k_labels == 0 {
        return Err(MappingError::BadConfig(
            "k_labels must be at least 1".into(),
        ));
    }
    inst.ensure_distinct_hosts_feasible()?;
    let net = inst.network;
    let pipe = inst.pipeline;
    let n = pipe.len();
    let k = net.node_count();

    // column 0: module 0 on src, zero cost (the source only transfers)
    let empty = Label {
        bottleneck: 0.0,
        mask: vec![0u64; k.div_ceil(64)].into(),
        parent: None,
    };
    let mut columns = vec![vec![Vec::new(); k]];
    columns[0][inst.src.index()].push(Label {
        mask: empty.mask_with(inst.src.index()),
        ..empty
    });

    for j in 1..n {
        let work = pipe.compute_work(j);
        let mut col = Column {
            prev: &columns[j - 1],
            compute: net.node_ids().map(|v| work / net.power(v)).collect(),
            cells: vec![Vec::new(); k],
            k_labels: config.k_labels,
        };
        moves(j, &mut col);
        if j != n - 1 {
            // the destination may only host the final module
            col.cells[inst.dst.index()].clear();
        }
        columns.push(col.cells);
    }

    // label sets are sorted, so the best final label is the first
    let Some(best) = columns[n - 1][inst.dst.index()].first() else {
        return Ok(None);
    };
    // reconstruct: walk parent pointers back through the columns
    let mut assignment = vec![inst.dst; n];
    let mut cursor = (inst.dst, 0);
    for j in (0..n).rev() {
        assignment[j] = cursor.0;
        if let Some(p) = columns[j][cursor.0.index()][cursor.1 as usize].parent {
            cursor = p;
        }
    }
    debug_assert_eq!(assignment[0], inst.src);
    Ok(Some((assignment, best.bottleneck)))
}

/// Solves with the paper's single-label heuristic.
pub fn solve(inst: &Instance<'_>, cost: &CostModel) -> Result<RateSolution> {
    solve_with(inst, cost, RateConfig::default())
}

/// Solves with an explicit [`RateConfig`]. Moves are the network's links
/// in edge-id order (ties go to the lowest edge id).
pub fn solve_with(
    inst: &Instance<'_>,
    cost: &CostModel,
    config: RateConfig,
) -> Result<RateSolution> {
    let net = inst.network;
    let pipe = inst.pipeline;
    let Some((assignment, bottleneck)) = solve_columns(inst, config, |j, col| {
        let in_bytes = pipe.input_bytes(j);
        for (eid, e) in net.graph().edges() {
            if col.prev[e.src.index()].is_empty() {
                continue;
            }
            let transfer = cost.edge_transfer_ms(net, eid, in_bytes);
            col.offer(e.src.index(), e.dst.index(), transfer);
        }
    })?
    else {
        return Err(MappingError::Infeasible(format!(
            "the heuristic found no simple {}-node path from {} to {} \
             (either none exists or the single-label DP missed it)",
            pipe.len(),
            inst.src,
            inst.dst
        )));
    };

    let mapping = Mapping::from_assignment(&assignment)?;
    debug_assert!(mapping.is_one_to_one(), "rate mappings never reuse nodes");
    debug_assert!(
        cost.bottleneck_ms(inst, &mapping)
            .is_ok_and(|check| (check - bottleneck).abs() <= 1e-6 * bottleneck.max(1.0)),
        "DP objective must match Eq. 2 evaluation"
    );
    Ok(RateSolution {
        mapping,
        bottleneck_ms: bottleneck,
    })
}

/// ELPC-rate on the network's metric closure (routed-overlay variant).
///
/// The counterpart of [`crate::elpc_delay::solve_routed`] for the streaming
/// objective: hosts may be any *distinct* nodes (module hosts are still
/// never reused), and each inter-host transfer is one pipeline stage whose
/// time is the best routed transfer. This matches the semantics under
/// which the Streamline baseline is evaluated
/// ([`crate::routed::routed_bottleneck_ms`] with `require_distinct`).
/// Like the strict DP it is a heuristic — the exact routed problem
/// contains the NP-complete strict problem. `solve_routed` keeps the
/// paper-style single label per cell; [`solve_routed_with_ctx`] widens it.
pub fn solve_routed(inst: &Instance<'_>, cost: &CostModel) -> Result<AssignmentSolution> {
    solve_routed_with_ctx(&SolveContext::new(*inst, *cost), RateConfig::default())
}

/// The routed rate DP over a shared [`SolveContext`]. Moves are
/// source-major: for each host `u` holding labels, in ascending order, one
/// [`SolveContext::routed_from`] query, then each other host `v` it
/// reaches in ascending order, with transfer stage `d(u→v)`; ties go to
/// the lowest source. On a [`SolveContext::with_threads`] context the trees
/// are built in parallel once the instance passes the screens.
pub fn solve_routed_with_ctx(
    ctx: &SolveContext<'_>,
    config: RateConfig,
) -> Result<AssignmentSolution> {
    let inst = ctx.instance();
    let pipe = inst.pipeline;
    let Some((assignment, bottleneck)) = solve_columns(inst, config, |j, col| {
        if j == 1 {
            // the screens passed: pre-build the trees on contexts
            // configured for it (lazy no-op otherwise)
            ctx.warm_routed_dp();
        }
        let in_bytes = pipe.input_bytes(j);
        let prev = col.prev;
        for u in 0..prev.len() {
            if prev[u].is_empty() {
                continue;
            }
            let tree = ctx.routed_from(NodeId::from_index(u), in_bytes);
            for (v, &d) in tree.dist.iter().enumerate() {
                if u == v || d.is_infinite() {
                    continue;
                }
                col.offer(u, v, d);
            }
        }
    })?
    else {
        return Err(MappingError::Infeasible(format!(
            "no {}-host routed placement found from {} to {}",
            pipe.len(),
            inst.src,
            inst.dst
        )));
    };

    // re-evaluated on a transient context, so the check neither moves the
    // shared closure's statistics nor turns into an error of its own
    debug_assert!(
        crate::routed::routed_bottleneck_ms_ctx(
            &SolveContext::new(*ctx.instance(), *ctx.cost()),
            &assignment,
            true
        )
        .is_ok_and(|re| (re - bottleneck).abs() <= 1e-6 * bottleneck.max(1.0)),
        "DP objective must match the routed evaluation"
    );
    Ok(AssignmentSolution {
        assignment,
        objective_ms: bottleneck,
    })
}

/// ELPC rate under routed semantics as a small portfolio — the Fig. 2
/// "ELPC rate" column. Members: the routed DP with a modestly widened
/// label set (ablation A2 showed K-best labels recover most single-label
/// misses) and the strict DP's mapping re-evaluated under routed transport;
/// the better placement is polished by
/// [`crate::routed::polish_rate_assignment_ctx`]. Both members are ELPC
/// variants — the portfolio only papers over heuristic label misses.
///
/// All members share the context's metric closure, so the portfolio costs
/// little more than its most expensive member.
pub fn solve_routed_portfolio(ctx: &SolveContext<'_>) -> Result<AssignmentSolution> {
    // wider label sets are cheap on small networks and recover nearly all
    // single-label misses; large networks keep a modest width
    let k_labels = if ctx.network().node_count() <= 100 {
        16
    } else {
        12
    };
    let config = RateConfig { k_labels };

    let mut candidates: Vec<(f64, Vec<NodeId>)> = Vec::new();
    if let Ok(r) = solve_routed_with_ctx(ctx, config) {
        candidates.push((r.objective_ms, r.assignment));
    }
    if let Ok(s) = solve_with(ctx.instance(), ctx.cost(), config) {
        let a = s.mapping.assignment();
        if let Ok(b) = crate::routed::routed_bottleneck_ms_ctx(ctx, &a, true) {
            candidates.push((b, a));
        }
    }
    let Some((_, mut best)) = candidates
        .into_iter()
        .min_by(|a, b| a.0.partial_cmp(&b.0).expect("objectives are not NaN"))
    else {
        return Err(MappingError::Infeasible(
            "no ELPC rate variant found a feasible placement".into(),
        ));
    };
    // local-search polish absorbs residual label-pruning misses
    let sweeps = 4;
    let objective_ms = crate::routed::polish_rate_assignment_ctx(ctx, &mut best, sweeps)?;
    Ok(AssignmentSolution {
        assignment: best,
        objective_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use elpc_netsim::Network;
    use elpc_pipeline::{Module, Pipeline};

    fn cost() -> CostModel {
        CostModel::default()
    }

    /// Two disjoint 2-hop routes 0→3: via 1 (fast node, slow link) and via
    /// 2 (slow node, fast link).
    fn diamond() -> Network {
        let mut b = Network::builder();
        let s = b.add_node(100.0).unwrap();
        let fast_node = b.add_node(1000.0).unwrap();
        let slow_node = b.add_node(10.0).unwrap();
        let d = b.add_node(100.0).unwrap();
        b.add_link(s, fast_node, 1.0, 0.1).unwrap(); // slow link
        b.add_link(fast_node, d, 1.0, 0.1).unwrap();
        b.add_link(s, slow_node, 100.0, 0.1).unwrap(); // fast link
        b.add_link(slow_node, d, 100.0, 0.1).unwrap();
        b.build().unwrap()
    }

    fn pipe3(c: f64, m0: f64, m1: f64) -> Pipeline {
        Pipeline::new(vec![
            Module::new(0.0, m0),
            Module::new(c, m1),
            Module::new(c, 0.0),
        ])
        .unwrap()
    }

    #[test]
    fn picks_the_route_with_smaller_bottleneck() {
        let net = diamond();
        // transfer-dominated workload: big data, light compute.
        // via fast_node: links 1 Mbps → 1e6 B = 8000 ms bottleneck
        // via slow_node: links 100 Mbps = 80 ms; compute 0.1*1e6/10 = 10000/
        //   wait, slow node power 10: c=0.01 → 0.01*1e6/10 = 1000 ms. Choose
        //   c small enough that the link dominates: c = 0.001 → 100 ms.
        let p = pipe3(0.001, 1e6, 1e6);
        let inst = Instance::new(&net, &p, NodeId(0), NodeId(3)).unwrap();
        let sol = solve(&inst, &cost()).unwrap();
        assert_eq!(sol.mapping.path()[1], NodeId(2), "fast links win");
        // compute-dominated: heavy compute, tiny data → fast node wins
        let p = pipe3(100.0, 1e3, 1e3);
        let inst = Instance::new(&net, &p, NodeId(0), NodeId(3)).unwrap();
        let sol = solve(&inst, &cost()).unwrap();
        assert_eq!(sol.mapping.path()[1], NodeId(1), "fast node wins");
    }

    #[test]
    fn solution_is_one_to_one_and_validates() {
        let net = diamond();
        let p = pipe3(1.0, 1e5, 1e4);
        let inst = Instance::new(&net, &p, NodeId(0), NodeId(3)).unwrap();
        let sol = solve(&inst, &cost()).unwrap();
        sol.mapping.validate(&inst, true).unwrap();
        assert_eq!(sol.mapping.q(), 3);
    }

    #[test]
    fn bottleneck_matches_cost_model() {
        let net = diamond();
        let p = pipe3(2.0, 5e5, 2e5);
        let inst = Instance::new(&net, &p, NodeId(0), NodeId(3)).unwrap();
        let sol = solve(&inst, &cost()).unwrap();
        let re = cost().bottleneck_ms(&inst, &sol.mapping).unwrap();
        assert!((sol.bottleneck_ms - re).abs() < 1e-9);
        assert!(sol.frame_rate_fps() > 0.0);
    }

    #[test]
    fn more_modules_than_nodes_is_infeasible() {
        let net = diamond();
        let stages: Vec<(f64, f64)> = (0..4).map(|_| (1.0, 1e3)).collect();
        let p = Pipeline::from_stages(1e4, &stages, 1.0).unwrap(); // 6 modules, 4 nodes
        let inst = Instance::new(&net, &p, NodeId(0), NodeId(3)).unwrap();
        assert!(matches!(
            solve(&inst, &cost()),
            Err(MappingError::Infeasible(_))
        ));
    }

    #[test]
    fn coincident_endpoints_are_infeasible() {
        let net = diamond();
        let p = pipe3(1.0, 1e4, 1e3);
        let inst = Instance::new(&net, &p, NodeId(0), NodeId(0)).unwrap();
        assert!(matches!(
            solve(&inst, &cost()),
            Err(MappingError::Infeasible(_))
        ));
    }

    #[test]
    fn pipeline_longer_than_longest_simple_path_is_infeasible() {
        // 0-1-2 line, 3 nodes; 3-module pipeline fits, but src/dst adjacent
        // (0→1) forces a 2-node path for a 3-module pipeline: infeasible.
        let mut b = Network::builder();
        let n0 = b.add_node(10.0).unwrap();
        let n1 = b.add_node(10.0).unwrap();
        let n2 = b.add_node(10.0).unwrap();
        b.add_link(n0, n1, 10.0, 0.1).unwrap();
        b.add_link(n1, n2, 10.0, 0.1).unwrap();
        let net = b.build().unwrap();
        let p = pipe3(1.0, 1e4, 1e3);
        let inst = Instance::new(&net, &p, NodeId(0), NodeId(1)).unwrap();
        assert!(matches!(
            solve(&inst, &cost()),
            Err(MappingError::Infeasible(_))
        ));
        // but 0 → 2 works: path 0-1-2
        let inst = Instance::new(&net, &p, NodeId(0), NodeId(2)).unwrap();
        let sol = solve(&inst, &cost()).unwrap();
        assert_eq!(sol.mapping.path(), &[NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn zero_k_labels_is_rejected() {
        let net = diamond();
        let p = pipe3(1.0, 1e4, 1e3);
        let inst = Instance::new(&net, &p, NodeId(0), NodeId(3)).unwrap();
        assert!(matches!(
            solve_with(&inst, &cost(), RateConfig { k_labels: 0 }),
            Err(MappingError::BadConfig(_))
        ));
    }

    #[test]
    fn k_labels_never_hurt_the_objective() {
        let net = diamond();
        for (c, m0, m1) in [(0.5, 1e5, 5e4), (3.0, 1e6, 1e5), (0.01, 1e6, 1e6)] {
            let p = pipe3(c, m0, m1);
            let inst = Instance::new(&net, &p, NodeId(0), NodeId(3)).unwrap();
            let k1 = solve_with(&inst, &cost(), RateConfig { k_labels: 1 }).unwrap();
            let k4 = solve_with(&inst, &cost(), RateConfig { k_labels: 4 }).unwrap();
            assert!(k4.bottleneck_ms <= k1.bottleneck_ms + 1e-9);
        }
    }

    /// The documented failure mode of the single-label heuristic: the best
    /// partial path into a cut node blocks the only continuation.
    /// Topology ("theta" graph):
    ///
    /// ```text
    ///        s ——fast—— a ——fast—— c ———— d
    ///        └──slow——— b ——fast———┘
    /// ```
    ///
    /// 4 modules must use s→{a|b}→c→d. The fast s-a edge beats s-b, so the
    /// single label at column 1 sits on `a`… which is fine here; to force a
    /// miss we make the a→c edge terrible, so the *optimal* route is s-b-c-d
    /// but a greedy per-cell winner via `a` can coexist — multi-label search
    /// must still find the optimum.
    #[test]
    fn k_labels_recover_the_optimum_when_single_label_is_misled() {
        let mut bld = Network::builder();
        let s = bld.add_node(100.0).unwrap();
        let a = bld.add_node(100.0).unwrap();
        let b = bld.add_node(100.0).unwrap();
        let c = bld.add_node(100.0).unwrap();
        let d = bld.add_node(100.0).unwrap();
        bld.add_link(s, a, 1000.0, 0.1).unwrap(); // fast
        bld.add_link(s, b, 10.0, 0.1).unwrap(); // slow
        bld.add_link(a, c, 1.0, 0.1).unwrap(); // terrible
        bld.add_link(b, c, 1000.0, 0.1).unwrap(); // fast
        bld.add_link(c, d, 1000.0, 0.1).unwrap();
        let net = bld.build().unwrap();
        let stages = vec![(0.01, 1e5), (0.01, 1e5)];
        let p = Pipeline::from_stages(1e5, &stages, 0.01).unwrap(); // 4 modules
        let inst = Instance::new(&net, &p, s, d).unwrap();
        let k1 = solve_with(&inst, &cost(), RateConfig { k_labels: 1 }).unwrap();
        let k4 = solve_with(&inst, &cost(), RateConfig { k_labels: 4 }).unwrap();
        // the optimum goes via b; single-label also finds it here because
        // cell c at column 2 keeps the better bottleneck — the point is
        // both must agree with the s-b-c-d bottleneck (the slow s-b link).
        assert_eq!(k4.mapping.path(), &[s, b, c, d]);
        assert!(k4.bottleneck_ms <= k1.bottleneck_ms);
    }

    #[test]
    fn deterministic_results() {
        let net = diamond();
        let p = pipe3(1.0, 1e5, 1e4);
        let inst = Instance::new(&net, &p, NodeId(0), NodeId(3)).unwrap();
        let a = solve(&inst, &cost()).unwrap();
        let b = solve(&inst, &cost()).unwrap();
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.bottleneck_ms, b.bottleneck_ms);
    }

    #[test]
    fn routed_variant_relaxes_the_strict_problem() {
        let net = diamond();
        let p = pipe3(1.0, 1e5, 1e4);
        let inst = Instance::new(&net, &p, NodeId(0), NodeId(3)).unwrap();
        let strict = solve(&inst, &cost()).unwrap();
        let routed = solve_routed(&inst, &cost()).unwrap();
        // routed hosts are a superset of strict adjacent paths
        assert!(routed.objective_ms <= strict.bottleneck_ms + 1e-9);
        // distinct hosts, pinned endpoints
        let mut seen = std::collections::BTreeSet::new();
        for &h in &routed.assignment {
            assert!(seen.insert(h));
        }
        assert_eq!(routed.assignment[0], NodeId(0));
        assert_eq!(*routed.assignment.last().unwrap(), NodeId(3));
    }

    #[test]
    fn routed_variant_usually_dominates_streamline() {
        use rand::{Rng, SeedableRng};
        let mut wins = 0;
        let mut comparisons = 0;
        for seed in 0..15u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let k = rng.gen_range(4..9);
            let links = rng.gen_range(k - 1..=k * (k - 1) / 2);
            let topo = elpc_netgraph::gen::random_connected(k, links, &mut rng).unwrap();
            let powers: Vec<f64> = (0..k).map(|_| rng.gen_range(10.0..1000.0)).collect();
            let mut lr = rand_chacha::ChaCha8Rng::seed_from_u64(seed + 55);
            let net = Network::from_topology(
                &topo,
                |i| elpc_netsim::Node::with_power(powers[i]),
                |_, _| elpc_netsim::Link::new(lr.gen_range(1.0..1000.0), lr.gen_range(0.1..5.0)),
            )
            .unwrap();
            let n = rng.gen_range(2..=k.min(5));
            let p = elpc_pipeline::gen::PipelineSpec {
                modules: n,
                ..Default::default()
            }
            .generate(&mut rng)
            .unwrap();
            let inst = Instance::new(&net, &p, NodeId(0), NodeId((k - 1) as u32)).unwrap();
            if let (Ok(r), Ok(s)) = (
                solve_routed(&inst, &cost()),
                crate::streamline::solve_max_rate(&inst, &cost()),
            ) {
                comparisons += 1;
                if r.objective_ms <= s.objective_ms + 1e-9 {
                    wins += 1;
                }
            }
        }
        assert!(comparisons >= 5, "too few comparisons ran");
        // heuristic vs heuristic: dominance is not guaranteed, but the DP
        // should win essentially always
        assert!(
            wins as f64 >= comparisons as f64 * 0.9,
            "routed ELPC won only {wins}/{comparisons}"
        );
    }
}
