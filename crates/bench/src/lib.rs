//! # elpc-bench — criterion benchmarks per paper table/figure
//!
//! See `benches/`: `fig2_algorithms` (E1/E2), `scaling` (E7),
//! `heuristic_gap` (E8/A2), `simulation` (V1 engine cost),
//! `context_reuse` (cold-solve vs shared-`SolveContext` solve for every
//! registered algorithm — the metric-closure cache payoff — plus the
//! `context_parallel_warm` entries: serial vs all-CPU `par_warm` closure
//! builds, parallel-warm cold solves, and `ClosureBank` checkout solves),
//! `metaheuristics` / `portfolio` (the rate annealer and genetic search
//! against their exact references, the slate race and its per-member
//! timings), and `eval_kernel` (closure-locked vs dense full evaluation,
//! full vs O(1) delta move evaluation, and the 5000-candidate move loop
//! behind the ISSUE 5 evaluations/second headline — plus the solver-level
//! reconciliation pin: every tabu/anneal/genetic rate entry's reported
//! objective re-evaluates bit-for-bit under the routed evaluators).
//! Run with
//! `cargo bench --workspace`; each bench group writes a `BENCH_<group>.json`
//! artifact so results are tracked across commits. DESIGN.md §5 maps each
//! bench to its paper artifact.
