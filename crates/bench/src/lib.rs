//! # elpc-bench — benchmarks per paper table/figure
//!
//! Every bench under `benches/` writes `BENCH_<group>.json` into this crate's
//! directory in one shape, `{group, env: {cpus, profile, rev}, rows: [{id,
//! params, metrics}]}`: the criterion shim's groups from its `finish()`, the
//! hand-rolled ones through [`elpc_experiments::artifact`]. This table is the
//! experiment index: what each bench measures, the artifact it writes, and
//! the command that regenerates it (`cargo bench -p elpc-bench --bench
//! <name>`, run from anywhere in the workspace).
//!
//! | bench | measures | artifact |
//! |---|---|---|
//! | `fig2_algorithms` | E1/E2: per-solver time on Fig. 2 suite cases | `BENCH_fig2_algorithms.json`, not committed |
//! | `scaling` | E7: solver time vs problem size (§4.3 complexity classes) | `BENCH_scaling.json`, not committed |
//! | `heuristic_gap` | E8/A2: cost of widening the ELPC-rate label set vs the exact search | `BENCH_heuristic_gap.json`, not committed |
//! | `simulation` | V1: discrete-event engine cost | `BENCH_simulation.json`, not committed |
//! | `context_reuse` | cold vs shared-`SolveContext` solves per registered solver; serial vs parallel closure warm-up; bank checkouts | `BENCH_context_reuse.json` |
//! | `metaheuristics` | rate anneal/genetic vs exact references, cold vs warm | `BENCH_metaheuristics.json` |
//! | `portfolio` | the slate race vs its best member, per-member timings | `BENCH_portfolio.json` |
//! | `eval_kernel` | locked vs dense full evaluation, O(1) delta moves, the 5000-candidate move loop | `BENCH_eval_kernel.json` |
//! | `codec` | request encode/decode of an inline 200- and 500-node network | `BENCH_codec.json` |
//! | `serving` | in-process daemon throughput, one `banked` and one `cold` row | `BENCH_serving.json` |
//! | `churn` | in-place closure repair vs full rebuild under link churn and node faults | `BENCH_churn.json` |
//! | `lns` | LNS delay gap vs budget, one row per Fig. 2 case × budget tier | `BENCH_lns.json` |
//! | `faults` | time-to-recovery after faults; goodput under overload | `BENCH_faults.json` |
//!
//! The tenth committed artifact, `BENCH_closure_scaling.json` (all-sources
//! closure build, adjacency-list oracle vs CSR kernel, at 100/1 000/10 000
//! nodes), comes from `cargo run --release -p elpc-experiments --bin
//! scaling` run at the workspace root. `tests/bench_artifacts.rs` reads
//! every artifact with one reader and pins each committed floor.
