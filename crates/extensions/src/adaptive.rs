//! The epoch engine: remapping under time-varying resources and failures
//! (§5 future work).
//!
//! "The time-varying nature of system resources' availability makes it
//! challenging to perform an accurate prediction or estimation of the
//! execution time of a computing module in a real network environment."
//! The authors' own earlier system (\[13\], the self-adaptive visualization
//! pipeline) re-configures when conditions change. [`run_epochs`] is that
//! control loop, for load churn and outright failure alike.
//! Every `period_ms` it:
//!
//! 1. materializes the network: a [`DynamicNetwork`] snapshot with the
//!    [`FaultSchedule`]'s active crashes, cuts and degradations applied (an
//!    empty schedule is plain load churn);
//! 2. turns what moved since the previous epoch into an O(|changes|)
//!    [`NetworkDelta`] and migrates each distinct [`ClosureBank`] entry
//!    once through [`ClosureBank::update_in_place`], so a moved snapshot is
//!    a bank hit with only the trees the delta can affect repaired;
//! 3. checks out every pipeline's context, re-prices its incumbent mapping
//!    through the repaired closure, and lets the [`RemapPolicy`] decide
//!    whether to re-solve and whether to adopt the candidate. A pipeline
//!    whose host died is always re-solved and moved;
//! 4. records what moved, what the repair kept, and each pipeline's delay
//!    next to the *static* strategy that keeps its epoch-0 mapping forever.
//!    On a moved epoch it also times the targeted path (repair, re-pricing,
//!    re-solves) against the cold baseline that re-solves every pipeline on
//!    a fresh context.

use elpc_mapping::{
    routed, CostModel, Instance, MappingError, NetworkDelta, Objective, Solution, SolveContext,
    Solver,
};
use elpc_netgraph::NodeId;
use elpc_netsim::dynamics::DynamicNetwork;
use elpc_netsim::faults::FaultSchedule;
use elpc_netsim::Network;
use elpc_pipeline::Pipeline;
use elpc_workloads::bank::bank_key;
use elpc_workloads::ClosureBank;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The most epochs one run may take: every epoch keeps a record, so an
/// unbounded count would be unbounded memory.
const MAX_EPOCHS: usize = 1 << 20;

/// When the engine re-solves a pipeline and when it adopts the candidate.
/// Under either rule a pipeline whose host died
/// ([`NetworkDelta::forces_remap`]) is re-solved and moved: its dead
/// incumbent is priced at ∞ and never evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RemapPolicy {
    /// Re-solve every epoch; switch iff the candidate beats the incumbent's
    /// current delay by more than the hysteresis fraction,
    /// `cand < cur·(1 − hysteresis)`.
    Always {
        /// Relative improvement required to switch (∞ never switches).
        hysteresis: f64,
    },
    /// Re-solve only once the incumbent runs slower than the delay it was
    /// last vetted at by more than the threshold, `cur > ref·(1 + threshold)`.
    /// Adopt iff `cand < cur`; otherwise rebase `ref` to `cur`, so a plateau
    /// is not re-solved every epoch.
    Drift {
        /// Relative degradation that triggers a re-solve.
        threshold: f64,
    },
}

impl RemapPolicy {
    /// Whether an incumbent now at `cur`, last vetted at `reference`, is
    /// re-solved.
    fn resolves(self, cur: f64, reference: f64) -> bool {
        match self {
            RemapPolicy::Always { .. } => true,
            RemapPolicy::Drift { threshold } => {
                !cur.is_finite() || cur > reference * (1.0 + threshold)
            }
        }
    }

    /// Whether a candidate at `cand` replaces an incumbent at `cur`.
    fn adopts(self, cand: f64, cur: f64) -> bool {
        match self {
            RemapPolicy::Always { hysteresis } => cand < cur * (1.0 - hysteresis),
            RemapPolicy::Drift { .. } => cand < cur,
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochConfig {
    /// Sampling period in ms.
    pub period_ms: f64,
    /// The re-solve and adoption rule.
    pub policy: RemapPolicy,
    /// One-off cost (ms) charged to a pipeline's delay in an epoch where it
    /// switches mappings. The adoption decision ignores it.
    pub switch_cost_ms: f64,
}

/// One pipeline in one epoch.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineEpoch {
    /// Delay the pipeline experiences: its incumbent's, or the adopted
    /// candidate's plus `switch_cost_ms`.
    pub delay_ms: f64,
    /// Delay of the static strategy (the epoch-0 mapping) on this snapshot;
    /// ∞ once a failure leaves that mapping without a route.
    pub static_delay_ms: f64,
    /// The fresh candidate's delay when this epoch re-solved.
    pub candidate_delay_ms: Option<f64>,
    /// How much the incumbent cost over the candidate at a re-solve (0 when
    /// none ran; ∞ when its host died).
    pub staleness_ms: f64,
    /// Whether this epoch paid a solver run (epoch 0 always does).
    pub resolved: bool,
    /// Whether the incumbent's host died since the previous epoch.
    pub forced: bool,
    /// Whether the pipeline adopted the candidate (never at epoch 0).
    pub switched: bool,
}

/// One epoch: what moved, what the repair did about it, and what each
/// pipeline decided.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Snapshot time.
    pub t_ms: f64,
    /// Undirected links the timeline reports moved since the previous
    /// epoch: load churn and fault flips.
    pub changed_links: usize,
    /// Nodes the timeline reports moved since the previous epoch.
    pub changed_nodes: usize,
    /// Directed edges that failed since the previous epoch.
    pub failed_links: usize,
    /// Nodes that crashed since the previous epoch.
    pub failed_nodes: usize,
    /// Ordinary perturbations in the same delta (load changes, degrades,
    /// restores).
    pub perturbed_elements: usize,
    /// Cached trees examined by this epoch's in-place repairs (0 when
    /// nothing moved or nothing was banked).
    pub trees_total: usize,
    /// Trees the invalidation rule kept bit-for-bit.
    pub trees_kept: usize,
    /// Stale trees, repaired in place (see [`elpc_mapping::delta`]).
    pub trees_rebuilt: usize,
    /// Measured wall-clock of the targeted path: bank repair, checkouts,
    /// re-pricing and re-solves. Zero on epochs whose delta is empty.
    pub recovery_ms: f64,
    /// Measured wall-clock of the naive baseline: a fresh context and a
    /// full re-solve for every pipeline. Zero on epochs whose delta is empty.
    pub cold_resolve_ms: f64,
    /// Per-pipeline outcomes, in input order.
    pub pipelines: Vec<PipelineEpoch>,
}

/// Equality compares what an epoch did, not how long it took: the two
/// wall-clock fields are left out, so two runs of one input compare equal.
impl PartialEq for EpochRecord {
    fn eq(&self, other: &Self) -> bool {
        fn untimed(r: &EpochRecord) -> impl PartialEq + '_ {
            let moved = (
                r.changed_links,
                r.changed_nodes,
                r.failed_links,
                r.failed_nodes,
            );
            let trees = (
                r.perturbed_elements,
                r.trees_total,
                r.trees_kept,
                r.trees_rebuilt,
            );
            (r.t_ms, moved, trees, &r.pipelines)
        }
        untimed(self) == untimed(other)
    }
}

/// Outcome of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Per-epoch records.
    pub epochs: Vec<EpochRecord>,
    /// Solver runs paid, including the mandatory epoch-0 one per pipeline.
    pub resolves: usize,
    /// Candidate adoptions after epoch 0, forced ones included.
    pub switches: usize,
    /// Re-solves forced by a dead host.
    pub forced_remaps: usize,
    /// Trees kept bit-for-bit across every repair.
    pub trees_kept_total: usize,
    /// Stale trees repaired in place across every repair.
    pub trees_rebuilt_total: usize,
    /// Mean delay experienced per pipeline and epoch (switch costs
    /// included).
    pub adaptive_mean_ms: f64,
    /// Mean delay of the static strategy per pipeline and epoch.
    pub static_mean_ms: f64,
}

impl EpochReport {
    /// Relative improvement of adaptive over static (positive = adaptive
    /// wins).
    pub fn improvement(&self) -> f64 {
        if self.static_mean_ms <= 0.0 {
            return 0.0;
        }
        1.0 - self.adaptive_mean_ms / self.static_mean_ms
    }

    /// Total measured time-to-recovery of the targeted path, ms.
    pub fn recovery_ms_total(&self) -> f64 {
        self.epochs.iter().map(|e| e.recovery_ms).sum()
    }

    /// Total measured cost of the cold re-solve baseline, ms.
    pub fn cold_resolve_ms_total(&self) -> f64 {
        self.epochs.iter().map(|e| e.cold_resolve_ms).sum()
    }

    /// How many times faster the targeted path recovered than cold
    /// re-solving everything (> 1 = targeted wins).
    pub fn recovery_speedup(&self) -> f64 {
        let recovery = self.recovery_ms_total();
        if recovery <= 0.0 {
            return 1.0;
        }
        self.cold_resolve_ms_total() / recovery
    }
}

/// Evaluates a retained solution's delay on the current snapshot: strict
/// Eq. 1 when the solver produced an adjacent-path mapping, routed
/// semantics otherwise — the same semantics its `objective_ms` was
/// reported under, so the policy compares like with like.
fn current_delay(ctx: &SolveContext<'_>, sol: &Solution) -> crate::Result<f64> {
    match &sol.mapping {
        Some(m) => ctx.cost().delay_ms(ctx.instance(), m),
        None => routed::routed_delay_ms_ctx(ctx, &sol.assignment),
    }
}

/// A pipeline's standing between epochs.
struct Standing {
    incumbent: Solution,
    /// The epoch-0 mapping the static strategy keeps.
    fixed: Solution,
    /// The delay the incumbent was last vetted at (`Drift`'s `ref`).
    reference: f64,
}

/// Runs `pipelines` through the epoch engine for `horizon_ms` of simulated
/// time over `dyn_net` with `faults` applied, re-mapping through
/// `remap_solver` (any minimum-delay [`Solver`]) on contexts checked out of
/// `bank`. A caller without a bank passes `ClosureBank::new()`: banked,
/// repaired and cold closures give bit-identical results.
///
/// Pipelines with equal payloads share one bank key and so one entry; each
/// distinct key is repaired once per moved epoch. Epoch `i` samples
/// `t = i · period_ms` for every `t < horizon_ms`.
///
/// Rejects with [`MappingError::BadConfig`]: a rate solver; no pipelines; a
/// period that is not finite and positive; a horizon that is not finite,
/// is shorter than one period, or spans more than 2²⁰ periods; a switch
/// cost that is not finite and non-negative; a negative or NaN hysteresis
/// or drift threshold.
#[allow(clippy::too_many_arguments)]
pub fn run_epochs(
    dyn_net: &DynamicNetwork,
    faults: &FaultSchedule,
    pipelines: &[(Pipeline, NodeId, NodeId)],
    cost: &CostModel,
    config: EpochConfig,
    horizon_ms: f64,
    remap_solver: &dyn Solver,
    bank: &ClosureBank,
) -> crate::Result<EpochReport> {
    let bad = |msg: String| Err(MappingError::BadConfig(msg));
    let period = config.period_ms;
    let rule = match config.policy {
        RemapPolicy::Always { hysteresis } => hysteresis,
        RemapPolicy::Drift { threshold } => threshold,
    };
    if remap_solver.objective() != Objective::MinDelay {
        let name = remap_solver.name();
        return bad(format!(
            "remapping optimizes delay; solver `{name}` optimizes rate"
        ));
    }
    if pipelines.is_empty() {
        return bad("the epoch engine needs at least one pipeline".into());
    }
    if !(period > 0.0 && period.is_finite()) {
        return bad(format!("period must be positive and finite, got {period}"));
    }
    if !(horizon_ms >= period && horizon_ms.is_finite()) {
        return bad(format!(
            "horizon {horizon_ms} is not a finite span of at least one period"
        ));
    }
    let epochs = (horizon_ms / period).ceil();
    if epochs > MAX_EPOCHS as f64 {
        return bad(format!("{epochs} epochs exceed the bound of {MAX_EPOCHS}"));
    }
    if !(config.switch_cost_ms >= 0.0 && config.switch_cost_ms.is_finite()) {
        let c = config.switch_cost_ms;
        return bad(format!(
            "switch cost must be finite and non-negative, got {c}"
        ));
    }
    if !(rule >= 0.0) {
        return bad(format!(
            "hysteresis or drift threshold must be non-negative, got {rule}"
        ));
    }

    let mut records: Vec<EpochRecord> = Vec::with_capacity(epochs as usize);
    let mut standings: Vec<Option<Standing>> = pipelines.iter().map(|_| None).collect();
    // the previous epoch's time, network, and per-pipeline bank keys
    let mut previous: Option<(f64, Network, Vec<u64>)> = None;
    for i in 0..epochs as usize {
        let t = i as f64 * period;
        let snapshot = faults.apply_at(&dyn_net.snapshot_at(t), t)?;
        let insts = pipelines
            .iter()
            .map(|(pipe, src, dst)| Instance::new(&snapshot, pipe, *src, *dst))
            .collect::<Result<Vec<_>, _>>()?;
        let keys: Vec<u64> = insts.iter().map(|inst| bank_key(inst, cost)).collect();
        let mut record = EpochRecord {
            t_ms: t,
            pipelines: Vec::with_capacity(pipelines.len()),
            ..EpochRecord::default()
        };

        let mut delta = NetworkDelta::default();
        if let Some((t_prev, prev_net, _)) = &previous {
            let mut changes = dyn_net.changes_between(*t_prev, t);
            let flips = faults.changed_elements_between(dyn_net.base(), *t_prev, t);
            changes.links.extend(flips.links);
            changes.nodes.extend(flips.nodes);
            changes.links.sort_unstable();
            changes.links.dedup();
            changes.nodes.sort_unstable();
            changes.nodes.dedup();
            record.changed_links = changes.links.len();
            record.changed_nodes = changes.nodes.len();
            if !changes.is_empty() {
                delta = NetworkDelta::from_changed_elements(
                    prev_net,
                    &snapshot,
                    &changes.links,
                    &changes.nodes,
                )?;
            }
            record.failed_links = delta.links.iter().filter(|l| l.is_failure()).count();
            record.failed_nodes = delta.nodes.iter().filter(|n| n.is_crash()).count();
            record.perturbed_elements =
                delta.links.len() + delta.nodes.len() - record.failed_links - record.failed_nodes;
        }

        let started = Instant::now();
        if let (false, Some((_, _, prev_keys))) = (delta.is_empty(), &previous) {
            // migrate each distinct bank entry once: the repair moves it off
            // its old key, so pipelines sharing that key find nothing left
            // there, and neither does one whose entry was evicted (its
            // checkout below misses)
            for (inst, &old_key) in insts.iter().zip(prev_keys) {
                if let Some(rep) = bank.update_in_place(old_key, *inst, *cost, &delta, 1) {
                    record.trees_total += rep.total;
                    record.trees_kept += rep.kept;
                    record.trees_rebuilt += rep.rebuilt;
                }
            }
        }

        let mut contexts = Vec::with_capacity(pipelines.len());
        for ((inst, &key), standing) in insts.iter().zip(&keys).zip(&mut standings) {
            let ctx = bank.context_for_key(key, *inst, *cost, 1);
            let row = match standing {
                None => {
                    // epoch 0: mandatory solve, adopted unconditionally
                    let sol = remap_solver.solve(&ctx)?;
                    let d = sol.objective_ms;
                    *standing = Some(Standing {
                        fixed: sol.clone(),
                        incumbent: sol,
                        reference: d,
                    });
                    PipelineEpoch {
                        delay_ms: d,
                        candidate_delay_ms: Some(d),
                        resolved: true,
                        ..PipelineEpoch::default()
                    }
                }
                Some(st) => {
                    let forced = delta.forces_remap(&st.incumbent.assignment);
                    let cur = if forced {
                        f64::INFINITY
                    } else {
                        current_delay(&ctx, &st.incumbent)?
                    };
                    let mut row = PipelineEpoch {
                        delay_ms: cur,
                        forced,
                        ..PipelineEpoch::default()
                    };
                    if config.policy.resolves(cur, st.reference) {
                        let cand = remap_solver.solve(&ctx)?;
                        let c = cand.objective_ms;
                        row.resolved = true;
                        row.candidate_delay_ms = Some(c);
                        row.staleness_ms = cur - c;
                        if forced || config.policy.adopts(c, cur) {
                            row.switched = true;
                            row.delay_ms = c + config.switch_cost_ms;
                            st.reference = c;
                            st.incumbent = cand;
                        } else {
                            st.reference = cur;
                        }
                    }
                    row
                }
            };
            bank.deposit_keyed(key, &ctx);
            record.pipelines.push(row);
            contexts.push(ctx);
        }

        if !delta.is_empty() {
            record.recovery_ms = started.elapsed().as_secs_f64() * 1e3;
            // the cold baseline: same snapshot, fresh contexts, no bank
            let started = Instant::now();
            for inst in &insts {
                remap_solver.solve(&SolveContext::new(*inst, *cost))?;
            }
            record.cold_resolve_ms = started.elapsed().as_secs_f64() * 1e3;
        }
        // the static strategy is priced outside both timed spans
        for ((row, ctx), standing) in record.pipelines.iter_mut().zip(&contexts).zip(&standings) {
            let fixed = &standing.as_ref().expect("adopted at epoch 0").fixed;
            row.static_delay_ms = match current_delay(ctx, fixed) {
                Err(MappingError::Infeasible(_)) => f64::INFINITY,
                other => other?,
            };
        }
        records.push(record);
        previous = Some((t, snapshot, keys));
    }

    let rows = || records.iter().flat_map(|e| &e.pipelines);
    let n = rows().count() as f64;
    Ok(EpochReport {
        resolves: rows().filter(|p| p.resolved).count(),
        switches: rows().filter(|p| p.switched).count(),
        forced_remaps: rows().filter(|p| p.forced).count(),
        trees_kept_total: records.iter().map(|e| e.trees_kept).sum(),
        trees_rebuilt_total: records.iter().map(|e| e.trees_rebuilt).sum(),
        adaptive_mean_ms: rows().map(|p| p.delay_ms).sum::<f64>() / n,
        static_mean_ms: rows().map(|p| p.static_delay_ms).sum::<f64>() / n,
        epochs: records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use elpc_mapping::solver;
    use elpc_netsim::dynamics::LoadModel;
    use elpc_netsim::faults::{FaultEvent, FaultKind};
    use elpc_netsim::EdgeId;

    fn cost() -> CostModel {
        CostModel::default()
    }

    /// Two routes s→d: via a (initially fast) and via b (initially slower).
    fn base_net() -> Network {
        let mut bld = Network::builder();
        let s = bld.add_node(100.0).unwrap();
        let a = bld.add_node(1000.0).unwrap();
        let b = bld.add_node(600.0).unwrap();
        let d = bld.add_node(100.0).unwrap();
        bld.add_link(s, a, 500.0, 0.5).unwrap(); // link 0: s-a
        bld.add_link(a, d, 500.0, 0.5).unwrap(); // link 1: a-d
        bld.add_link(s, b, 500.0, 0.5).unwrap(); // link 2: s-b
        bld.add_link(b, d, 500.0, 0.5).unwrap(); // link 3: b-d
        bld.build().unwrap()
    }

    fn pipe() -> Pipeline {
        Pipeline::from_stages(1e6, &[(4.0, 1e5)], 0.5).unwrap()
    }

    fn no_faults() -> FaultSchedule {
        FaultSchedule::from_events(vec![])
    }

    fn config(period_ms: f64, policy: RemapPolicy, switch_cost_ms: f64) -> EpochConfig {
        EpochConfig {
            period_ms,
            policy,
            switch_cost_ms,
        }
    }

    fn always(hysteresis: f64) -> RemapPolicy {
        RemapPolicy::Always { hysteresis }
    }

    fn drift(threshold: f64) -> RemapPolicy {
        RemapPolicy::Drift { threshold }
    }

    /// The one-pipeline s→d run every test below drives.
    fn run(
        dyn_net: &DynamicNetwork,
        faults: &FaultSchedule,
        config: EpochConfig,
        horizon_ms: f64,
        solver_name: &str,
        bank: &ClosureBank,
    ) -> crate::Result<EpochReport> {
        run_epochs(
            dyn_net,
            faults,
            &[(pipe(), NodeId(0), NodeId(3))],
            &cost(),
            config,
            horizon_ms,
            solver(solver_name).expect("registered"),
            bank,
        )
    }

    fn forced(e: &EpochRecord) -> usize {
        e.pipelines.iter().filter(|p| p.forced).count()
    }

    fn remapped(e: &EpochRecord) -> usize {
        e.pipelines.iter().filter(|p| p.resolved).count()
    }

    #[test]
    fn steady_network_never_switches() {
        let dyn_net = DynamicNetwork::steady(base_net());
        let report = run(
            &dyn_net,
            &no_faults(),
            config(1_000.0, always(0.10), 0.0),
            10_000.0,
            "elpc_delay",
            &ClosureBank::new(),
        )
        .unwrap();
        assert_eq!(report.switches, 0);
        assert!((report.adaptive_mean_ms - report.static_mean_ms).abs() < 1e-9);
        assert_eq!(report.epochs.len(), 10);
        assert!(report.improvement().abs() < 1e-12);
    }

    /// Node `a` (the initial winner) degrades hard mid-run; adaptive should
    /// move to `b` and beat static.
    fn degrading() -> DynamicNetwork {
        let net = base_net();
        let node_models = vec![
            LoadModel::Constant(1.0),
            // node a: collapses to 5% availability after ~2 s
            LoadModel::Sinusoid {
                period_ms: 20_000.0,
                amplitude: 0.95,
                phase_ms: 0.0,
            },
            LoadModel::Constant(1.0),
            LoadModel::Constant(1.0),
        ];
        let link_models = vec![LoadModel::Constant(1.0); 4];
        DynamicNetwork::new(net, node_models, link_models).unwrap()
    }

    #[test]
    fn adaptation_beats_static_under_drift() {
        let report = run(
            &degrading(),
            &no_faults(),
            config(500.0, always(0.05), 0.0),
            10_000.0,
            "elpc_delay",
            &ClosureBank::new(),
        )
        .unwrap();
        assert!(report.switches >= 1, "expected at least one switch");
        assert!(
            report.adaptive_mean_ms < report.static_mean_ms,
            "adaptive {} should beat static {}",
            report.adaptive_mean_ms,
            report.static_mean_ms
        );
        assert!(report.improvement() > 0.0);
    }

    #[test]
    fn infinite_hysteresis_degenerates_to_static() {
        let report = run(
            &degrading(),
            &no_faults(),
            config(500.0, always(f64::INFINITY), 0.0),
            5_000.0,
            "elpc_delay",
            &ClosureBank::new(),
        )
        .unwrap();
        assert_eq!(report.switches, 0);
        assert!((report.adaptive_mean_ms - report.static_mean_ms).abs() < 1e-9);
    }

    #[test]
    fn switch_costs_discourage_churn() {
        let cheap = run(
            &degrading(),
            &no_faults(),
            config(500.0, always(0.01), 0.0),
            10_000.0,
            "elpc_delay",
            &ClosureBank::new(),
        )
        .unwrap();
        let costly = run(
            &degrading(),
            &no_faults(),
            config(500.0, always(0.01), 1e9), // absurd switch cost
            10_000.0,
            "elpc_delay",
            &ClosureBank::new(),
        )
        .unwrap();
        // switching still happens (the decision ignores the sunk cost),
        // but the accounted mean reflects the penalty
        assert!(costly.adaptive_mean_ms >= cheap.adaptive_mean_ms);
    }

    #[test]
    fn candidate_is_never_worse_than_adaptive_choice() {
        let report = run(
            &degrading(),
            &no_faults(),
            config(250.0, always(0.2), 0.0),
            8_000.0,
            "elpc_delay",
            &ClosureBank::new(),
        )
        .unwrap();
        for e in &report.epochs {
            let p = &e.pipelines[0];
            let candidate = p.candidate_delay_ms.expect("Always re-solves every epoch");
            // the fresh DP solution is optimal for the snapshot, so it lower
            // bounds whatever the strategies actually run
            assert!(candidate <= p.delay_ms + 1e-9);
            assert!(candidate <= p.static_delay_ms + 1e-9);
        }
    }

    #[test]
    fn banked_epochs_reuse_the_closure_on_steady_networks() {
        let dyn_net = DynamicNetwork::steady(base_net());
        // a routed solver so the epochs actually consult the metric closure
        let s = "elpc_delay_routed";
        let plain = run(
            &dyn_net,
            &no_faults(),
            config(1_000.0, always(0.10), 0.0),
            10_000.0,
            s,
            &ClosureBank::new(),
        )
        .unwrap();
        let bank = ClosureBank::new();
        let banked = run(
            &dyn_net,
            &no_faults(),
            config(1_000.0, always(0.10), 0.0),
            10_000.0,
            s,
            &bank,
        )
        .unwrap();
        assert_eq!(plain, banked, "the bank must not change any epoch");
        let stats = bank.stats();
        assert_eq!(stats.hits + stats.misses, 10, "one checkout per epoch");
        assert_eq!(stats.misses, 1, "only epoch 0 should solve cold");
        assert_eq!(bank.len(), 1, "steady snapshots share one key");
    }

    #[test]
    fn churn_loop_idles_on_a_steady_network() {
        let dyn_net = DynamicNetwork::steady(base_net());
        let bank = ClosureBank::new();
        let report = run(
            &dyn_net,
            &no_faults(),
            config(1_000.0, drift(0.10), 0.0),
            10_000.0,
            "elpc_delay_routed",
            &bank,
        )
        .unwrap();
        assert_eq!(report.epochs.len(), 10);
        assert_eq!(report.resolves, 1, "only the mandatory epoch-0 solve");
        assert_eq!(report.switches, 0);
        assert_eq!(report.trees_kept_total + report.trees_rebuilt_total, 0);
        for e in &report.epochs {
            assert_eq!(e.changed_links + e.changed_nodes, 0);
            assert!(!e.pipelines[0].switched);
        }
        let stats = bank.stats();
        assert_eq!(stats.hits + stats.misses, 10, "one checkout per epoch");
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.repairs, 0, "nothing moved, nothing repaired");
        assert_eq!(bank.len(), 1);
    }

    #[test]
    fn churn_loop_repairs_in_place_and_resolves_on_drift() {
        // degrading(): node-power churn only, so every repair keeps every
        // tree — transfer costs never depend on power
        let bank = ClosureBank::new();
        let report = run(
            &degrading(),
            &no_faults(),
            config(500.0, drift(0.05), 0.0),
            10_000.0,
            "elpc_delay_routed",
            &bank,
        )
        .unwrap();
        assert_eq!(report.epochs.len(), 20);
        assert!(report.resolves >= 2, "drift must trigger a re-solve");
        assert!(report.switches >= 1, "the loop should move off node a");
        assert_eq!(report.trees_rebuilt_total, 0, "power churn keeps trees");
        for e in &report.epochs {
            assert_eq!(e.trees_kept + e.trees_rebuilt, e.trees_total);
            if e.t_ms > 0.0 {
                assert_eq!(e.changed_nodes, 1, "only node a moves");
                assert_eq!(e.changed_links, 0);
            }
            let p = &e.pipelines[0];
            if p.resolved {
                assert!(p.candidate_delay_ms.is_some());
                assert!(p.staleness_ms >= -1e-9, "routed optimum lower-bounds");
            } else {
                assert!(p.candidate_delay_ms.is_none());
                assert_eq!(p.staleness_ms, 0.0);
            }
        }
        let stats = bank.stats();
        assert_eq!(stats.hits + stats.misses, 20, "one checkout per epoch");
        assert_eq!(stats.misses, 1, "repairs keep every later epoch a hit");
        assert_eq!(stats.repairs, 19, "every epoch after the first moved");
        assert_eq!(bank.len(), 1, "identity migrated, never duplicated");
    }

    #[test]
    fn link_churn_rebuilds_only_through_the_repair_path() {
        // link 1 (a-d) bandwidth oscillates: trees crossing it rebuild,
        // the rest of the closure is kept in place
        let node_models = vec![LoadModel::Constant(1.0); 4];
        let mut link_models = vec![LoadModel::Constant(1.0); 4];
        link_models[1] = LoadModel::Sinusoid {
            period_ms: 4_000.0,
            amplitude: 0.6,
            phase_ms: 0.0,
        };
        let dyn_net = DynamicNetwork::new(base_net(), node_models, link_models).unwrap();
        let bank = ClosureBank::new();
        let report = run(
            &dyn_net,
            &no_faults(),
            config(500.0, drift(0.05), 0.0),
            6_000.0,
            "elpc_delay_routed",
            &bank,
        )
        .unwrap();
        assert!(
            report.trees_rebuilt_total > 0,
            "bandwidth churn must invalidate some trees"
        );
        for e in &report.epochs {
            assert_eq!(e.trees_kept + e.trees_rebuilt, e.trees_total);
            if e.t_ms > 0.0 {
                assert_eq!(e.changed_links, 1, "exactly link 1 moves");
            }
        }
        let stats = bank.stats();
        assert_eq!(stats.misses, 1, "repair keeps churned epochs banked");
        assert_eq!(stats.hits, report.epochs.len() as u64 - 1);
        assert_eq!(stats.repairs, report.epochs.len() as u64 - 1);
    }

    /// A crash of node `a` (the fast route's host) at t = 2100, permanent.
    fn crash_of_a() -> FaultSchedule {
        FaultSchedule::from_events(vec![FaultEvent {
            kind: FaultKind::NodeCrash { node: NodeId(1) },
            start_ms: 2_100.0,
            end_ms: f64::INFINITY,
        }])
    }

    #[test]
    fn failover_loop_is_quiet_without_faults() {
        let dyn_net = DynamicNetwork::steady(base_net());
        let bank = ClosureBank::new();
        let report = run(
            &dyn_net,
            &no_faults(),
            config(1_000.0, drift(0.10), 0.0),
            5_000.0,
            "elpc_delay_routed",
            &bank,
        )
        .unwrap();
        assert_eq!(report.epochs.len(), 5);
        assert_eq!(report.resolves - 1, 0);
        assert_eq!(report.forced_remaps, 0);
        assert_eq!(report.recovery_ms_total(), 0.0);
        assert_eq!(report.cold_resolve_ms_total(), 0.0);
        let stats = bank.stats();
        assert_eq!(stats.misses, 1, "only epoch 0 builds");
    }

    #[test]
    fn node_crash_forces_a_targeted_remap_and_the_pipeline_recovers() {
        let dyn_net = DynamicNetwork::steady(base_net());
        let bank = ClosureBank::new();
        let report = run(
            &dyn_net,
            &crash_of_a(),
            config(1_000.0, drift(0.05), 0.0),
            6_000.0,
            "elpc_delay_routed",
            &bank,
        )
        .unwrap();
        assert_eq!(report.epochs.len(), 6);
        // the crash lands between epochs 2 and 3
        let hit = &report.epochs[3];
        assert_eq!(hit.failed_nodes, 1);
        assert_eq!(hit.failed_links, 4, "both incident links, both directions");
        assert_eq!(forced(hit), 1, "the incumbent hosted on node a");
        assert_eq!(remapped(hit), 1);
        assert!(hit.recovery_ms > 0.0);
        assert!(hit.cold_resolve_ms > 0.0);
        assert!(hit.trees_kept + hit.trees_rebuilt == hit.trees_total);
        assert_eq!(report.forced_remaps, 1);
        // epochs after the crash are quiet again — the remapped pipeline
        // holds steady on the surviving route
        for e in &report.epochs[4..] {
            assert_eq!(remapped(e), 0);
            assert_eq!(e.failed_nodes + e.failed_links, 0);
        }
        let stats = bank.stats();
        assert_eq!(stats.misses, 1, "repair keeps every later epoch banked");
    }

    /// Two identical pipelines share one bank key: every moved epoch
    /// repairs that one entry once, its trees are counted once, and both
    /// pipelines are forced off the crashed host.
    #[test]
    fn shared_bank_keys_are_repaired_once_per_moved_epoch() {
        let dyn_net = DynamicNetwork::steady(base_net());
        let lone = run(
            &dyn_net,
            &crash_of_a(),
            config(1_000.0, drift(0.05), 0.0),
            6_000.0,
            "elpc_delay_routed",
            &ClosureBank::new(),
        )
        .unwrap();
        let bank = ClosureBank::new();
        let twin = (pipe(), NodeId(0), NodeId(3));
        let report = run_epochs(
            &dyn_net,
            &crash_of_a(),
            &[twin.clone(), twin],
            &cost(),
            config(1_000.0, drift(0.05), 0.0),
            6_000.0,
            solver("elpc_delay_routed").expect("registered"),
            &bank,
        )
        .unwrap();
        let moved = report.epochs.iter().filter(|e| e.trees_total > 0).count();
        assert_eq!(moved, 1, "only the crash moves the network");
        assert_eq!(bank.stats().repairs, 1, "one repair per moved epoch");
        for (e, l) in report.epochs.iter().zip(&lone.epochs) {
            assert_eq!(e.trees_total, l.trees_total, "trees counted once");
        }
        let hit = &report.epochs[3];
        assert!(hit
            .pipelines
            .iter()
            .all(|p| p.forced && p.resolved && p.switched));
        assert_eq!(report.forced_remaps, 2);
        assert_eq!(bank.len(), 1);
    }

    #[test]
    fn flapping_link_recovers_through_restore() {
        // cut the a-d link for one epoch, then it heals; both transitions
        // must flow through the delta path without a cold rebuild
        let sched = FaultSchedule::from_events(vec![FaultEvent {
            kind: FaultKind::LinkCut { link: EdgeId(2) }, // undirected link 1
            start_ms: 1_100.0,
            end_ms: 2_100.0,
        }]);
        let dyn_net = DynamicNetwork::steady(base_net());
        let bank = ClosureBank::new();
        let report = run(
            &dyn_net,
            &sched,
            config(1_000.0, drift(0.05), 0.0),
            5_000.0,
            "elpc_delay_routed",
            &bank,
        )
        .unwrap();
        let cut = &report.epochs[2];
        assert_eq!(cut.failed_links, 2, "one undirected link, two directions");
        assert_eq!(forced(cut), 0, "no host died");
        let heal = &report.epochs[3];
        assert_eq!(heal.failed_links, 0);
        assert_eq!(heal.perturbed_elements, 2, "restore is a perturbation");
        let stats = bank.stats();
        assert_eq!(stats.misses, 1, "cut and restore both repair in place");
        // structural determinism: a rerun reports identical non-timing data
        let bank2 = ClosureBank::new();
        let rerun = run(
            &dyn_net,
            &sched,
            config(1_000.0, drift(0.05), 0.0),
            5_000.0,
            "elpc_delay_routed",
            &bank2,
        )
        .unwrap();
        for (a, b) in report.epochs.iter().zip(&rerun.epochs) {
            assert_eq!(a.failed_links, b.failed_links);
            assert_eq!(a.failed_nodes, b.failed_nodes);
            assert_eq!(a.perturbed_elements, b.perturbed_elements);
            assert_eq!(a.trees_kept, b.trees_kept);
            assert_eq!(a.trees_rebuilt, b.trees_rebuilt);
            assert_eq!(remapped(a), remapped(b));
            assert_eq!(forced(a), forced(b));
        }
    }

    /// Every rejected input, under both policies' configs: the shape of
    /// the run (period, horizon, switch cost, pipelines) and the policy's
    /// own parameter.
    #[test]
    fn bad_configs_are_rejected() {
        let dyn_net = DynamicNetwork::steady(base_net());
        let pipes = [(pipe(), NodeId(0), NodeId(3))];
        let ok = config(1_000.0, drift(0.10), 0.0);
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        for (config, horizon, pipelines) in [
            (config(0.0, drift(0.10), 0.0), 5_000.0, &pipes[..]),
            (config(0.0, always(0.10), 0.0), 1_000.0, &pipes[..]),
            (config(nan, always(0.10), 0.0), 1_000.0, &pipes[..]),
            (config(inf, always(0.10), 0.0), 1_000.0, &pipes[..]),
            (config(1_000.0, drift(-0.1), 0.0), 5_000.0, &pipes[..]),
            (config(1_000.0, drift(nan), 0.0), 5_000.0, &pipes[..]),
            (config(1_000.0, always(-0.5), 0.0), 1_000.0, &pipes[..]),
            (config(1_000.0, always(0.10), nan), 1_000.0, &pipes[..]),
            (config(1_000.0, always(0.10), -1.0), 1_000.0, &pipes[..]),
            (config(1_000.0, always(0.10), inf), 1_000.0, &pipes[..]),
            // horizon shorter than one period
            (ok, 500.0, &pipes[..]),
            (ok, nan, &pipes[..]),
            // an unbounded horizon, and a finite one of 10¹⁵ epochs
            (ok, inf, &pipes[..]),
            (config(1e-3, always(0.10), 0.0), 1e12, &pipes[..]),
            (ok, 5_000.0, &[][..]),
        ] {
            let result = run_epochs(
                &dyn_net,
                &no_faults(),
                pipelines,
                &cost(),
                config,
                horizon,
                solver("elpc_delay_routed").expect("registered"),
                &ClosureBank::new(),
            );
            assert!(
                matches!(result, Err(MappingError::BadConfig(_))),
                "{config:?} over {horizon} ms must be rejected"
            );
        }
    }

    /// The portfolio control loop equals the routed-optimal DP loop
    /// exactly: `elpc_delay_routed` leads the slate and no slate member
    /// can beat the routed optimum, so ties resolve to the DP's mapping
    /// every epoch.
    #[test]
    fn portfolio_adaptation_equals_the_routed_dp_loop() {
        let config = config(500.0, always(0.05), 0.0);
        let via_portfolio = run(
            &degrading(),
            &no_faults(),
            config,
            8_000.0,
            "portfolio_delay",
            &ClosureBank::new(),
        )
        .unwrap();
        let via_dp = run(
            &degrading(),
            &no_faults(),
            config,
            8_000.0,
            "elpc_delay_routed",
            &ClosureBank::new(),
        )
        .unwrap();
        // the decisions match; the repair accounting differs, since the
        // slate's heuristics bank more trees than the DP alone
        let decisions = |r: &EpochReport| {
            let epochs: Vec<_> = r
                .epochs
                .iter()
                .map(|e| (e.t_ms, e.pipelines.clone()))
                .collect();
            (epochs, r.switches, r.adaptive_mean_ms, r.static_mean_ms)
        };
        assert_eq!(decisions(&via_portfolio), decisions(&via_dp));
        assert!(via_portfolio.switches >= 1, "drift must trigger a remap");
    }
}
