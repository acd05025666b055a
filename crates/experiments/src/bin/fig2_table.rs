//! Regenerates the **Fig. 2** comparison table: minimum end-to-end delay
//! (node reuse) and maximum frame rate (no node reuse) for ELPC,
//! Streamline, and Greedy over the 20-case suite.
//!
//! ```text
//! cargo run --release -p elpc-experiments --bin fig2_table
//! ```
//!
//! Artifacts: `results/fig2_results.json`, `results/fig2_table.md`.

use elpc_experiments::{fmt_fps, fmt_ms, markdown_table, results_dir, suite_results};

fn main() {
    let fresh = std::env::args().any(|a| a == "--fresh");
    let rows = suite_results(!fresh);

    let header = [
        "case",
        "m / n / l",
        "ELPC delay (ms)",
        "Streamline delay (ms)",
        "Greedy delay (ms)",
        "LNS delay (ms)",
        "Portfolio delay (ms)",
        "ELPC rate (fps)",
        "Streamline rate (fps)",
        "Greedy rate (fps)",
        "Anneal rate (fps)",
        "GA rate (fps)",
        "Tabu rate (fps)",
        "LNS rate (fps)",
        "Portfolio rate (fps)",
        "quality gap (delay)",
        "quality gap (rate)",
    ];
    let fmt_gap = |g: Option<f64>| match g {
        Some(g) => format!("{g:.4}"),
        None => "—".to_string(),
    };
    let mut table = Vec::new();
    let mut delay_wins = 0usize;
    let mut rate_wins = 0usize;
    let mut rate_comparable = 0usize;
    let mut gap_count = 0usize;
    let mut gap_sum = 0.0f64;
    for (i, r) in rows.iter().enumerate() {
        table.push(vec![
            format!("{}", i + 1),
            format!("{} / {} / {}", r.dims.0, r.dims.1, r.dims.2),
            fmt_ms(&r.delay_elpc),
            fmt_ms(&r.delay_streamline),
            fmt_ms(&r.delay_greedy),
            fmt_ms(&r.delay_lns),
            fmt_ms(&r.delay_portfolio),
            fmt_fps(&r.rate_elpc),
            fmt_fps(&r.rate_streamline),
            fmt_fps(&r.rate_greedy),
            fmt_fps(&r.rate_anneal),
            fmt_fps(&r.rate_genetic),
            fmt_fps(&r.rate_tabu),
            fmt_fps(&r.rate_lns),
            fmt_fps(&r.rate_portfolio),
            fmt_gap(r.quality_gap_delay),
            fmt_gap(r.quality_gap_rate),
        ]);
        if r.elpc_delay_dominates() {
            delay_wins += 1;
        }
        if r.rate_elpc.ms().is_some() {
            rate_comparable += 1;
            if r.elpc_rate_dominates() {
                rate_wins += 1;
            }
        }
        if let Some(g) = r.quality_gap_delay {
            gap_count += 1;
            gap_sum += g;
        }
    }
    let md = markdown_table(&header, &table);
    println!("## Fig. 2 — mapping performance comparison (20 cases)\n");
    println!("{md}");
    println!(
        "ELPC delay ≤ both baselines on {delay_wins}/20 cases; \
         ELPC rate ≤ both baselines on {rate_wins}/{rate_comparable} solvable cases."
    );
    if gap_count > 0 {
        println!(
            "Mean LNS delay quality gap vs the routed optimum: \
             {:.4} over {gap_count} cases (1.0 = optimal).",
            gap_sum / gap_count as f64
        );
    }
    println!(
        "(ELPC columns use routed-overlay semantics so all algorithms are \
         charged transfers identically; the quality-gap columns divide a \
         search objective (LNS for delay, the best rate search for rate) by \
         the exact optimum of the same routed search space. See DESIGN.md and ARCHITECTURE.md.)"
    );

    std::fs::write(results_dir().join("fig2_table.md"), md).expect("write fig2_table.md");
    eprintln!("wrote {}", results_dir().join("fig2_table.md").display());
}
