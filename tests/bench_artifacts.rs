//! Validates the committed benchmark artifacts under `crates/bench/`.
//!
//! Every artifact has one shape, `{group, env: {cpus, profile, rev}, rows:
//! [{id, params, metrics}]}`, and is read here with the one reader,
//! [`elpc_experiments::artifact::read`], whether the criterion shim or
//! `elpc_experiments::artifact::write` produced it. The floors below pin
//! the *committed* copies, so artifact bit-rot fails the PR that caused
//! it, not the next perf investigation.

use elpc_experiments::artifact::{self, Artifact, Row};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The committed artifact set, by group name.
const COMMITTED: [&str; 10] = [
    "churn",
    "closure_scaling",
    "codec",
    "context_reuse",
    "eval_kernel",
    "faults",
    "lns",
    "metaheuristics",
    "portfolio",
    "serving",
];

fn bench_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench")
}

fn load(group: &str) -> Artifact {
    let path = bench_dir().join(format!("BENCH_{group}.json"));
    let a = artifact::read(&path)
        .unwrap_or_else(|e| panic!("must be committed and carry the artifact keys: {e}"));
    assert_eq!(a.group, group, "artifact group name is pinned");
    assert!(!a.rows.is_empty(), "{group}: at least one row");
    a
}

/// Every `BENCH_*.json` in the bench directory, committed or left behind
/// by a local bench run, parsed with the one reader.
fn every_artifact() -> Vec<(String, Artifact)> {
    let mut all = Vec::new();
    for entry in std::fs::read_dir(bench_dir()).expect("bench dir exists") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            let a = artifact::read(&path).unwrap_or_else(|e| panic!("{name} parses: {e}"));
            all.push((name.to_string(), a));
        }
    }
    all
}

/// A numeric parameter.
fn num(row: &Row, name: &str) -> f64 {
    row.param(name)
        .as_f64()
        .unwrap_or_else(|| panic!("row {}: param `{name}` is a number", row.id))
}

/// The stored ratio column equals `num / den` (ulp slack).
fn assert_ratio_column(row: &Row, column: &str, num: &str, den: &str) {
    let stored = row.metric(column);
    let ratio = row.metric(num) / row.metric(den);
    assert!(
        (ratio - stored).abs() < 1e-6 * stored.max(1.0),
        "{}: {column} column must equal {num} / {den}",
        row.id
    );
}

#[test]
fn closure_scaling_artifact_has_the_expected_shape() {
    let a = load("closure_scaling");
    for row in &a.rows {
        assert!(num(row, "links") > 0.0, "{} has links", row.id);
        assert!(row.metric("legacy_cold_ms") > 0.0);
        assert!(row.metric("csr_cold_ms") > 0.0);
        assert!(row.metric("banked_solve_ms") > 0.0);
        assert!(row.metric("peak_rss_mb") >= 0.0);
        assert_ratio_column(row, "speedup", "legacy_cold_ms", "csr_cold_ms");
    }
}

#[test]
fn closure_scaling_covers_the_scale_sweep() {
    let a = load("closure_scaling");
    let nodes: Vec<f64> = a.rows.iter().map(|r| num(r, "nodes")).collect();
    // the scale-wall sweep: two orders of magnitude up to 10k nodes; the
    // 10k row existing with real timings is the "completed build" check
    assert_eq!(
        nodes,
        vec![100.0, 1000.0, 10_000.0],
        "nodes sweep is pinned"
    );
    for r in &a.rows {
        // the all-sources closure: one tree per node
        assert_eq!(
            num(r, "sources"),
            num(r, "nodes"),
            "{} warms every source",
            r.id
        );
    }
    // the headline row: the batched CSR path must beat the adjacency-list
    // `algo::dijkstra` decisively at 1k nodes (2x is the regression floor
    // under timer noise)
    let k1 = a.rows[1].metric("speedup");
    assert!(k1 >= 2.0, "1k-node CSR speedup regressed below 2x: {k1:.2}");
}

#[test]
fn serving_artifact_shows_the_bank_amortizing_closures() {
    let a = load("serving");
    let ids: Vec<&str> = a.rows.iter().map(|r| r.id.as_str()).collect();
    assert_eq!(ids, ["banked", "cold"], "one row per regime");
    for r in &a.rows {
        let tag = &r.id;
        assert!(
            r.param("solver").as_str().is_some_and(|s| !s.is_empty()),
            "{tag}: served solver is recorded"
        );
        assert!(
            num(r, "nodes") > 0.0 && num(r, "links") > 0.0,
            "{tag}: topology size"
        );
        assert!(
            num(r, "workers") > 0.0 && num(r, "connections") > 0.0,
            "{tag}: daemon shape"
        );
        assert!(
            r.metric("requests") > 0.0,
            "{tag}: measured at least one request"
        );
        assert!(
            r.metric("solves_per_sec") > 0.0,
            "{tag}: positive throughput"
        );
        assert!(r.metric("mean_ms") > 0.0, "{tag}: positive mean latency");
        let (p50, p99, max) = (r.metric("p50_ms"), r.metric("p99_ms"), r.metric("max_ms"));
        assert!(
            p50 <= p99 && p99 <= max,
            "{tag}: percentiles must be ordered (p50 {p50} ≤ p99 {p99} ≤ max {max})"
        );
    }
    // The serving acceptance floor: checking a closure out of the shared
    // bank must beat rebuilding it per request by ≥5x on the fixed-topology
    // workload.
    let ratio = a.rows[0].metric("solves_per_sec") / a.rows[1].metric("solves_per_sec");
    assert!(
        ratio >= 5.0,
        "banked throughput must be ≥5x cold, got {ratio:.2}x"
    );
}

/// The shape every repair row of `BENCH_churn.json` shares, churn or fault.
fn repair_row_is_sane(row: &Row) {
    let tag = &row.id;
    assert!(num(row, "links") > 0.0, "{tag}: links recorded");
    assert!(
        row.metric("total_trees") > 0.0,
        "{tag}: closure is non-empty"
    );
    assert!(
        row.metric("rebuilt_trees") <= row.metric("total_trees"),
        "{tag}: rebuilt set is a subset of the closure"
    );
    assert!(row.metric("full_rebuild_ms") > 0.0 && row.metric("repair_ms") > 0.0);
    assert_ratio_column(row, "speedup", "full_rebuild_ms", "repair_ms");
}

#[test]
fn churn_artifact_pins_the_repair_speedup_floor() {
    let a = load("churn");
    let (churn, faults): (Vec<&Row>, Vec<&Row>) = a
        .rows
        .iter()
        .partition(|r| r.params.contains_key("perturbed_links"));
    for row in &churn {
        repair_row_is_sane(row);
        assert!(
            num(row, "perturbed_links") > 0.0,
            "{}: a churn row perturbs",
            row.id
        );
    }
    // the crash and restore epochs: the same shape checks, no floor
    assert!(!faults.is_empty(), "fault rows are committed");
    for row in &faults {
        repair_row_is_sane(row);
        let event = row.param("event").as_str();
        assert!(
            matches!(event, Some("crash" | "restore")),
            "{}: a fault row is a crash or a restore",
            row.id
        );
    }

    // the sweep shape the bench commits: 200- and 1000-node topologies
    // under 1/5/20-link perturbations
    let shape: Vec<(f64, f64)> = churn
        .iter()
        .map(|r| (num(r, "nodes"), num(r, "perturbed_links")))
        .collect();
    assert_eq!(
        shape,
        vec![
            (200.0, 1.0),
            (200.0, 5.0),
            (200.0, 20.0),
            (1000.0, 1.0),
            (1000.0, 5.0),
            (1000.0, 20.0)
        ],
        "churn sweep shape is pinned"
    );

    // The acceptance floor: repairing after a ≤5-link perturbation at 1000
    // nodes must beat a full rebuild by ≥5x.
    for row in churn
        .iter()
        .filter(|r| num(r, "nodes") == 1000.0 && num(r, "perturbed_links") <= 5.0)
    {
        let speedup = row.metric("speedup");
        assert!(
            speedup >= 5.0,
            "{}: repair speedup regressed below 5x: {speedup:.2}",
            row.id
        );
    }
}

#[test]
fn lns_artifact_pins_the_gap_vs_budget_floor() {
    let a = load("lns");
    // one row per case × budget tier, in ascending budget order
    let mut cases: BTreeMap<u64, Vec<&Row>> = BTreeMap::new();
    for row in &a.rows {
        cases.entry(num(row, "case") as u64).or_default().push(row);
    }
    for (case, tiers) in &cases {
        let tag = format!("case {case}");
        assert!((1..=20).contains(case), "{tag}: a Fig. 2 case number");
        let multipliers: Vec<f64> = tiers.iter().map(|t| num(t, "multiplier")).collect();
        assert_eq!(
            multipliers,
            vec![1.0, 10.0, 100.0],
            "{tag}: tier sweep is pinned"
        );
        for t in tiers {
            assert!(
                num(t, "modules") > 0.0 && num(t, "nodes") > 0.0 && num(t, "links") > 0.0,
                "{tag}: dims recorded"
            );
            // the 1x tier is the default 5000-evaluation budget
            assert_eq!(num(t, "budget"), num(t, "multiplier") * 5000.0, "{tag}");
            assert!(
                t.metric("routed_optimum_ms") > 0.0,
                "{tag}: positive optimum"
            );
            let objective = t.metric("objective_ms");
            assert!(objective.is_finite() && objective > 0.0, "{tag}");
            assert!(t.metric("elapsed_ms") >= 0.0, "{tag}");
            // gap = objective / routed optimum, and a registry solver can
            // never beat the routed optimum
            let gap = t.metric("gap");
            let ratio = objective / t.metric("routed_optimum_ms");
            assert!(
                (ratio - gap).abs() < 1e-9 * gap.max(1.0),
                "{tag}: gap column must equal the objective ratio"
            );
            assert!(
                gap >= 1.0 - 1e-9,
                "{tag}: gap {gap} below the routed optimum"
            );
        }
        // the gap-improvement floor: a larger budget replays the smaller
        // run's deterministic prefix and only then keeps searching, so
        // the curve is monotone non-increasing (ulp reconciliation slack)
        for pair in tiers.windows(2) {
            let (small, large) = (pair[0].metric("gap"), pair[1].metric("gap"));
            assert!(
                large <= small + 1e-6,
                "{tag}: gap worsened with budget ({small} -> {large})"
            );
        }
    }

    // The acceptance floor: the hardest suite case (case 20, m=100 n=220
    // l=2500) must close to ≤1.05 at the 10x tier — before LNS the best
    // metaheuristic left a 1.28 gap there.
    let case20 = cases
        .get(&20)
        .expect("case 20 is above optimum at 1x and must be in the artifact");
    let t = case20[0];
    assert_eq!(
        (num(t, "modules"), num(t, "nodes"), num(t, "links")),
        (100.0, 220.0, 2500.0)
    );
    let ten_x = case20
        .iter()
        .find(|t| num(t, "multiplier") == 10.0)
        .expect("10x tier")
        .metric("gap");
    assert!(
        ten_x <= 1.05,
        "case 20 delay gap at 10x budget regressed above 1.05: {ten_x:.4}"
    );
}

#[test]
fn faults_artifact_pins_recovery_speedup_and_overload_shedding() {
    let a = load("faults");
    let recovery: Vec<&Row> = a
        .rows
        .iter()
        .filter(|r| r.id.starts_with("recovery/"))
        .collect();
    let overload: Vec<&Row> = a
        .rows
        .iter()
        .filter(|r| r.id.starts_with("overload/"))
        .collect();
    assert_eq!(
        recovery.len() + overload.len(),
        a.rows.len(),
        "every row is one or the other"
    );

    assert!(!recovery.is_empty(), "at least one recovery row");
    for row in &recovery {
        let tag = &row.id;
        assert!(
            num(row, "links") > 0.0 && num(row, "pipelines") > 0.0,
            "{tag}: shape recorded"
        );
        assert!(
            row.metric("failed_links") + row.metric("failed_nodes") > 0.0,
            "{tag}: a recovery row must contain real removals"
        );
        assert!(
            row.metric("forced_remaps") >= 1.0,
            "{tag}: the scheduled host crash must force a failover"
        );
        assert!(
            row.metric("remapped") >= row.metric("forced_remaps"),
            "{tag}"
        );
        assert!(
            row.metric("trees_kept") + row.metric("trees_rebuilt") > 0.0,
            "{tag}"
        );
        assert!(
            row.metric("recovery_ms") > 0.0 && row.metric("cold_resolve_ms") > 0.0,
            "{tag}"
        );
        assert_ratio_column(row, "speedup", "cold_resolve_ms", "recovery_ms");
        // The robustness acceptance floor: repairing the bank and
        // re-solving only the affected pipelines must beat cold re-solving
        // everything by ≥3x on every committed row.
        let speedup = row.metric("speedup");
        assert!(
            speedup >= 3.0,
            "{tag}: recovery speedup regressed below 3x: {speedup:.2}"
        );
    }
    // both topology scales are represented
    let scales: Vec<f64> = recovery.iter().map(|r| num(r, "nodes")).collect();
    assert!(scales.contains(&200.0) && scales.contains(&1000.0));

    let fractions: Vec<f64> = overload
        .iter()
        .map(|r| num(r, "offered_fraction"))
        .collect();
    assert_eq!(fractions, vec![0.5, 1.0, 2.0], "load sweep is pinned");
    for row in &overload {
        let tag = &row.id;
        assert!(
            row.param("solver").as_str().is_some_and(|s| !s.is_empty())
                && num(row, "nodes") > 0.0
                && num(row, "links") > 0.0
        );
        assert!(
            num(row, "workers") > 0.0 && num(row, "queue_capacity") > 0.0,
            "{tag}: bounded daemon shape"
        );
        let capacity = row.metric("capacity_rps");
        assert!(capacity > 0.0, "{tag}: measured capacity recorded");
        assert!(
            (row.metric("offered_rps") - capacity * num(row, "offered_fraction")).abs()
                < 1e-6 * capacity,
            "{tag}: offered rate is the capacity scaled by the fraction"
        );
        let (sent, ok, shed) = (row.metric("sent"), row.metric("ok"), row.metric("shed"));
        assert!(sent > 0.0 && ok > 0.0, "{tag}");
        assert!(ok + shed <= sent, "{tag}: reply accounting");
        assert!(row.metric("goodput_rps") > 0.0, "{tag}");
        let (p50, p99) = (row.metric("p50_ms"), row.metric("p99_ms"));
        assert!(p50 > 0.0 && p50 <= p99, "{tag}");
    }
    let light = overload[0];
    let over = overload[2];
    assert_eq!(light.metric("shed"), 0.0, "0.5x load must be shed-free");
    // the overload floor: past saturation the daemon sheds instead of
    // queueing without bound, so the p99 of served replies stays bounded
    assert!(
        over.metric("shed") > 0.0,
        "2x offered load must shed on the bounded queue"
    );
    let p99 = over.metric("p99_ms");
    assert!(
        p99 < 1_000.0,
        "2x-overload p99 must stay bounded by the queue cap, got {p99:.1}ms"
    );
    let (goodput, capacity) = (over.metric("goodput_rps"), over.metric("capacity_rps"));
    assert!(
        goodput >= 0.5 * capacity,
        "goodput under overload must hold near capacity: {goodput:.0}/s vs capacity {capacity:.0}/s"
    );
}

#[test]
fn all_committed_bench_artifacts_parse() {
    // every BENCH_*.json in the directory parses with the one reader and
    // carries a full env — whichever bench wrote it, committed or not
    let all = every_artifact();
    for (name, a) in &all {
        assert_eq!(
            *name,
            format!("BENCH_{}.json", a.group),
            "file named after its group"
        );
        assert!(a.env.cpus >= 1, "{name}: env.cpus");
        assert!(
            a.env.profile == "release" || a.env.profile == "debug",
            "{name}: env.profile is {:?}",
            a.env.profile
        );
        assert!(!a.env.rev.is_empty(), "{name}: env.rev");
        assert!(!a.rows.is_empty(), "{name}: at least one row");
        for row in &a.rows {
            assert!(!row.id.is_empty(), "{name}: every row has an id");
            for (metric, v) in &row.metrics {
                assert!(v.is_finite(), "{name}: {} {metric} is finite", row.id);
            }
        }
    }
    let groups: Vec<&str> = all.iter().map(|(_, a)| a.group.as_str()).collect();
    for group in COMMITTED {
        assert!(groups.contains(&group), "BENCH_{group}.json is committed");
    }
}

#[test]
fn solver_named_rows_name_registered_solvers() {
    // a row that names a solver — a criterion row `<kind>/<solver>`, or any
    // row with a `solver` param — times one registry entry; a row whose
    // solver has been deleted measures nothing that still exists
    const SOLVER_KINDS: [&str; 5] = ["member", "equal_budget", "cold", "warm", "reference_warm"];
    let (mut by_id, mut by_param) = (0, 0);
    for (name, a) in every_artifact() {
        for row in &a.rows {
            let mut named = Vec::new();
            if let Some((kind, solver)) = row.id.split_once('/') {
                if SOLVER_KINDS.contains(&kind) {
                    by_id += 1;
                    named.push(solver);
                }
            }
            if let Some(solver) = row.params.get("solver") {
                by_param += 1;
                named.push(solver.as_str().expect("a solver param is a name"));
            }
            for solver in named {
                assert!(
                    elpc_mapping::solver(solver).is_some(),
                    "{name}: row {} names {solver}, which the registry no longer has",
                    row.id
                );
            }
        }
    }
    assert!(by_id > 0, "the `<kind>/<solver>` rows were found");
    assert!(by_param > 0, "the rows with a `solver` param were found");
}
