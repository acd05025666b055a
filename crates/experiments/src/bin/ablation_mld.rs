//! Ablation A1: the minimum-link-delay (MLD) term.
//!
//! §2.2 defines `T_transport = m/b + d`, but the paper's Eq. 1/3/4 write
//! only `m/b`. This ablation quantifies what the term is worth: both
//! optimal objectives over the 20-case suite with `include_mld` on vs off,
//! plus how often the *chosen mapping itself* changes. Solvers come from the registry; each cost-model variant gets
//! its own `SolveContext` (the closure is keyed by the cost model).
//!
//! ```text
//! cargo run --release -p elpc-experiments --bin ablation_mld
//! ```
//!
//! Artifact: `results/ablation_mld.csv`.

use elpc_experiments::{results_dir, save_csv};
use elpc_mapping::{solver, CostModel, Solution, SolveContext};
use elpc_workloads::{cases, sweep};

fn main() {
    let with = CostModel { include_mld: true };
    let without = CostModel { include_mld: false };
    let specs = cases::paper_cases();
    let delay = solver("elpc_delay").expect("registered");
    let rate = solver("elpc_rate").expect("registered");

    let rows = sweep::run_parallel(&specs, 0, |_, spec| {
        let inst_owned = spec.generate().expect("suite cases generate");
        let inst = inst_owned.as_instance();
        let ctx_with = SolveContext::new(inst, with);
        let ctx_without = SolveContext::new(inst, without);
        let d_with = delay.solve(&ctx_with).ok();
        let d_without = delay.solve(&ctx_without).ok();
        let r_with = rate.solve(&ctx_with).ok();
        let r_without = rate.solve(&ctx_without).ok();
        (spec.number, d_with, d_without, r_with, r_without)
    });

    println!("=== MLD term ablation over the 20-case suite ===\n");
    println!(
        "{:>5} {:>14} {:>14} {:>8} {:>9} | {:>12} {:>12} {:>8} {:>9}",
        "case",
        "delay+mld ms",
        "delay-mld ms",
        "Δ%",
        "remapped",
        "rate+mld ms",
        "rate-mld ms",
        "Δ%",
        "remapped"
    );
    let mut csv = vec![vec![
        "case".into(),
        "delay_with_mld_ms".into(),
        "delay_without_mld_ms".into(),
        "delay_mapping_changed".into(),
        "rate_with_mld_ms".into(),
        "rate_without_mld_ms".into(),
        "rate_mapping_changed".into(),
    ]];
    let changed = |a: &Option<Solution>, b: &Option<Solution>| -> (f64, f64, bool) {
        match (a, b) {
            (Some(x), Some(y)) => (x.objective_ms, y.objective_ms, x.assignment != y.assignment),
            _ => (f64::NAN, f64::NAN, false),
        }
    };
    let mut delay_changed = 0usize;
    let mut rate_changed = 0usize;
    for (case, d_with, d_without, r_with, r_without) in rows {
        let (dw, dwo, d_re) = changed(&d_with, &d_without);
        let (rw, rwo, r_re) = changed(&r_with, &r_without);
        delay_changed += usize::from(d_re);
        rate_changed += usize::from(r_re);
        println!(
            "{case:>5} {dw:>14.1} {dwo:>14.1} {:>7.2}% {:>9} | {rw:>12.1} {rwo:>12.1} {:>7.2}% {:>9}",
            if dw.is_nan() { 0.0 } else { (dw - dwo) / dw * 100.0 },
            if d_re { "yes" } else { "no" },
            if rw.is_nan() { 0.0 } else { (rw - rwo) / rw * 100.0 },
            if r_re { "yes" } else { "no" },
        );
        csv.push(vec![
            case.to_string(),
            format!("{dw:.3}"),
            format!("{dwo:.3}"),
            d_re.to_string(),
            format!("{rw:.3}"),
            format!("{rwo:.3}"),
            r_re.to_string(),
        ]);
    }
    save_csv(&results_dir().join("ablation_mld.csv"), &csv);
    println!(
        "\nthe MLD term changed the chosen delay mapping on {delay_changed}/20 \
         cases and the rate mapping on {rate_changed}/20 — dropping a term \
         the prose defines is not semantically free."
    );
}
