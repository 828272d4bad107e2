//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (Section 7).
//!
//! Each experiment lives in [`experiments`] as a pure function from a
//! config to printable rows, so the regeneration binaries
//! (`cargo run -p msd-bench --release --bin tableN`), the Criterion
//! benches and the integration tests all share one implementation.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table 1 — Greedy A vs Greedy B vs OPT, synthetic N=50 |
//! | `table2` | Table 2 — Greedy A / Greedy B / LS with times, synthetic N=500 |
//! | `table3` | Table 3 — improved Greedy A vs improved Greedy B, N=50 |
//! | `table4` | Table 4 — simulated LETOR, top-50, with OPT |
//! | `table5` | Table 5 — simulated LETOR, top-370, with times |
//! | `table6` | Table 6 — LETOR average over 5 queries, top-50 |
//! | `table7` | Table 7 — LETOR average over 5 queries, full pools |
//! | `table8` | Table 8 — documents returned by Greedy A / Greedy B / OPT |
//! | `fig1` | Figure 1 — approximation ratio under dynamic updates |
//! | `ablations` | DESIGN.md ablations (cache, potential, pivot, appendix) |
//! | `all_experiments` | everything above, in order |

pub mod experiments;
pub mod fmt;
pub mod naive;
pub mod stats;
pub mod streaming;
pub mod support;

/// Identifier of a ground-set element (shared across the workspace).
pub type ElementId = u32;
