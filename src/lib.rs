//! # max-sum-diversification
//!
//! A complete Rust implementation of **Borodin, Jain, Lee and Ye,
//! *"Max-Sum Diversification, Monotone Submodular Functions and Dynamic
//! Updates"*** (PODS 2012; extended version arXiv:1203.6397).
//!
//! Given a ground set with a metric distance `d`, a normalized monotone
//! submodular quality function `f` and a trade-off `λ ≥ 0`, the library
//! maximizes
//!
//! ```text
//! φ(S) = f(S) + λ · Σ_{ {u,v} ⊆ S } d(u, v)
//! ```
//!
//! under a cardinality or arbitrary matroid constraint, with the paper's
//! guarantees:
//!
//! * [`core::greedy_b`] — 2-approximation greedy for `|S| = p` (Theorem 1);
//! * [`core::local_search_matroid`] — 2-approximation local search for any
//!   matroid (Theorem 2);
//! * [`core::DynamicInstance`] — ratio-3 maintenance under weight/distance
//!   perturbations with single oblivious swaps (Theorems 3–6);
//! * baselines: Gollapudi–Sharma ([`core::greedy_a`]), Hassin et al.
//!   dispersion algorithms, MMR, and exact branch-and-bound.
//!
//! # Quickstart
//!
//! ```
//! use max_sum_diversification::prelude::*;
//!
//! // Ten points on a line; quality favours low indices.
//! let positions: Vec<f64> = (0..10).map(|i| i as f64).collect();
//! let metric = DistanceMatrix::from_points(&positions, |a, b| (a - b).abs());
//! let quality = ModularFunction::new((0..10).map(|i| 1.0 / (1.0 + i as f64)).collect::<Vec<_>>());
//! let problem = DiversificationProblem::new(metric, quality, 0.5);
//!
//! // Pick 3 results balancing quality and diversity (Theorem 1 greedy).
//! let picks = greedy_b(&problem, 3, GreedyBConfig::default());
//! assert_eq!(picks.len(), 3);
//! assert!(2.0 * problem.objective(&picks)
//!     >= exact_max_diversification(&problem, 3).objective);
//! ```
//!
//! The workspace is organized as one crate per subsystem, re-exported
//! here: [`metric`], [`submodular`], [`matroid`], [`core`], [`data`].
//! See `DESIGN.md` for the full inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

#![forbid(unsafe_code)]

pub use msd_core as core;
pub use msd_data as data;
pub use msd_matroid as matroid;
pub use msd_metric as metric;
pub use msd_submodular as submodular;

/// Convenient glob-import surface covering the common workflow: build a
/// metric + quality function, wrap them in a problem, run an algorithm.
pub mod prelude {
    pub use msd_core::{
        distributed_greedy, exact_max_diversification, greedy_a, greedy_b, hassin_edge_greedy,
        hassin_matching, knapsack_diversify, local_search_matroid, local_search_refine,
        max_sum_dispersion_greedy, mmr_select, oblivious_update_step_knapsack,
        oblivious_update_step_matroid, stream_diversify, AdmissionPolicy, BatchReport, Clock,
        CompactStreamingSession, ConstraintPolicy, DistributedConfig, DistributedResult,
        DiversificationProblem, DynamicInstance, DynamicSession, ElementId, GraphPerturbation,
        GreedyAConfig, GreedyBConfig, KnapsackConfig, LocalSearchConfig, MergeStats, MmrConfig,
        PartitionScheme, Perturbation, PerturbationError, PotentialState, QueryResponse,
        RejectionAudit, ScanExtent, ScanPool, ServingFrontend, SessionCheckpoint, SessionError,
        SessionPerturbation, ShardedConfig, ShardedEngine, ShardedReport, SharedServingFrontend,
        SubmitError, TenantId, TenantSnapshot, TenantStats, TokenBucket,
    };
    pub use msd_matroid::{
        GraphicMatroid, LaminarMatroid, Matroid, PartitionMatroid, TransversalMatroid,
        TruncatedMatroid, UniformMatroid,
    };
    pub use msd_metric::{
        DistanceMatrix, DynamicGraphMetric, EdgePerturbableMetric, EdgeUpdateError, Metric,
        OverlayMetric, PerturbableMetric, Point, PointKernel, PointMetric, WeightedGraph,
    };
    pub use msd_submodular::{
        ConcaveOverModular, ConcaveShape, CoverageFunction, FacilityLocationFunction,
        LogDetFunction, MixtureFunction, ModularFunction, SetFunction, SharedModularOracle,
        WeightOverlay,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let metric = DistanceMatrix::from_fn(6, |u, v| f64::from(v.abs_diff(u)));
        let quality = ModularFunction::uniform(6, 1.0);
        let problem = DiversificationProblem::new(metric, quality, 0.3);
        let s = greedy_b(&problem, 3, GreedyBConfig::default());
        assert_eq!(s.len(), 3);
        let matroid = UniformMatroid::new(6, 3);
        let ls = local_search_matroid(&problem, &matroid, LocalSearchConfig::default());
        assert_eq!(ls.set.len(), 3);
    }
}
