//! Dataset substrate: the workloads of the paper's experimental section.
//!
//! * [`synthetic`] — Section 7.1's generator: quality `f(v)` uniform in
//!   `[0, 1]`, distances uniform in `[1, 2]` (always a metric — the same
//!   `{1,2}`-flavoured family the hardness discussion uses).
//! * [`letor`] — a simulated LETOR corpus (Section 7.2). The real LETOR
//!   benchmark is an external download we substitute with a seeded
//!   generator reproducing the statistics the experiments consume:
//!   per-query documents with integer relevance grades 0–5 and
//!   topic-clustered feature vectors in ℝ⁴⁶ compared by cosine distance.
//!   See DESIGN.md §2 for the substitution rationale.
//! * [`clustered`] — Gaussian clusters in low-dimensional Euclidean space,
//!   for the geometric examples and ablations.
//! * [`adversarial`] — worst-case instances: the greedy lower-bound family
//!   and planted-clique-style `{1,2}` metrics from the hardness discussion.
//! * [`graphs`] — connected sparse networks (road-like grids, clustered
//!   communities) with dyadic edge weights, the substrate of the dynamic
//!   graph-metric workloads.
//!
//! All generators are deterministic given a seed (`rand::StdRng`).

#![forbid(unsafe_code)]

pub mod adversarial;
pub mod clustered;
pub mod graphs;
pub mod letor;
pub mod synthetic;

pub use clustered::ClusteredConfig;
pub use graphs::{clustered_graph, dyadic_weight, road_like};
pub use letor::{LetorConfig, LetorQuery};
pub use synthetic::SyntheticConfig;

/// Identifier of a ground-set element (shared across the workspace).
pub type ElementId = u32;
