//! Max-sum diversification: the algorithms of Borodin, Jain, Lee and Ye,
//! *"Max-Sum Diversification, Monotone Submodular Functions and Dynamic
//! Updates"* (PODS 2012; extended version arXiv:1203.6397).
//!
//! Given a ground set `U` with a metric `d`, a normalized monotone
//! submodular quality function `f` and a trade-off `λ ≥ 0`, the problem is
//! to maximize
//!
//! ```text
//! φ(S) = f(S) + λ · Σ_{ {u,v} ⊆ S } d(u, v)
//! ```
//!
//! subject to `|S| = p` (Section 4) or `S` independent in a matroid
//! (Section 5). This crate implements every algorithm the paper defines,
//! analyzes or compares against:
//!
//! | Module | Paper | Algorithm |
//! |---|---|---|
//! | [`greedy`] | §4, Thm 1 | **Greedy B** — non-oblivious vertex greedy, 2-approx for monotone submodular `f` |
//! | [`gollapudi_sharma`] | §1, §7 | **Greedy A** — Gollapudi–Sharma reduction + Hassin et al. edge greedy (modular `f` only) |
//! | [`hassin`] | §3 | matching-based `2 − 1/⌈p/2⌉` dispersion algorithm and the edge greedy it builds on |
//! | [`local_search`] | §5, Thm 2 | single-swap local search over matroid bases, 2-approx |
//! | [`dynamic`] | §6, Thms 3–6 | oblivious single-swap update rule under weight/distance perturbations |
//! | [`session`] | §6 at scale | persistent dynamic session: incremental oracle kept alive across perturbations, O(Δ) repair per update |
//! | [`sharded`] | §6 + §8 | persistent sharded engine: live per-shard sessions, incremental union-scoped reduce (dirty-shard tracking) |
//! | [`exact`] | §7 (OPT columns) | branch-and-bound exact solver for small instances |
//! | [`mmr`] | §2 | Maximal Marginal Relevance baseline (Carbonell–Goldstein) |
//! | [`counterexample`] | Appendix | the partition-matroid instance on which greedy is unboundedly bad |
//! | [`streaming`] | §2 (Minack et al.) | incremental one-pass diversification over a stream |
//! | [`knapsack`] | §8 open question | partial-enumeration greedy under a knapsack constraint (experimental) |
//! | [`dynamic::DynamicInstance::oblivious_update_double`] | §8 open question | larger-cardinality swap update rule (experimental) |
//!
//! Shared infrastructure: [`problem`] (the objective) and [`solution`]
//! (incremental `d_u(S)` state à la Birnbaum–Goldman, giving the `O(np)`
//! greedy the paper describes at the end of Section 4).

pub(crate) mod check;
pub mod counterexample;
pub mod distributed;
pub mod dynamic;
pub mod exact;
pub mod gollapudi_sharma;
pub mod greedy;
pub mod hassin;
pub mod knapsack;
pub mod local_search;
pub mod mmr;
pub mod pool;
pub mod potential;
pub mod problem;
pub(crate) mod scan;
pub mod serving;
pub mod session;
pub mod sharded;
pub mod solution;
pub mod streaming;

pub use distributed::{distributed_greedy, DistributedConfig, DistributedResult, PartitionScheme};
pub use dynamic::{
    oblivious_update_step, oblivious_update_step_knapsack, oblivious_update_step_matroid,
    DynamicInstance, Perturbation, UpdateOutcome,
};
pub use exact::{exact_max_diversification, BranchAndBound};
pub use gollapudi_sharma::{greedy_a, GreedyAConfig};
pub use greedy::{greedy_b, greedy_b_pairs, max_sum_dispersion_greedy, GreedyBConfig};
pub use hassin::{hassin_edge_greedy, hassin_matching};
pub use knapsack::{knapsack_diversify, KnapsackConfig, KnapsackResult};
pub use local_search::{local_search_matroid, local_search_refine, LocalSearchConfig};
pub use mmr::{mmr_select, MmrConfig};
pub use pool::ScanPool;
pub use potential::PotentialState;
pub use problem::DiversificationProblem;
pub use serving::{
    AdmissionPolicy, Clock, QueryResponse, RejectionAudit, ServingFrontend, SharedServingFrontend,
    SubmitError, TenantId, TenantSnapshot, TenantStats, TokenBucket,
};
pub use session::{
    BatchReport, ConstraintPolicy, DynamicSession, GraphPerturbation, PerturbationError,
    ScanExtent, SessionCheckpoint, SessionError, SessionPerturbation, DEFAULT_CANDIDATE_CAPACITY,
};
pub use sharded::{MergeStats, ShardMetric, ShardedConfig, ShardedEngine, ShardedReport};
pub use solution::SolutionState;
pub use streaming::{stream_diversify, CompactStreamingSession, StreamDecision, StreamingSession};

/// Identifier of a ground-set element (shared across the workspace).
pub type ElementId = u32;

#[cfg(test)]
mod tests {
    use super::*;
    use msd_metric::DistanceMatrix;

    fn assert_send_sync<T: Send + Sync>() {}

    /// Sessions, engines and frontends are thread-shareable with their
    /// default oracle type: every metric, set function, incremental
    /// oracle and matroid is `Send + Sync`.
    #[test]
    fn default_types_are_thread_shareable() {
        assert_send_sync::<DynamicSession<'static, DistanceMatrix>>();
        assert_send_sync::<PotentialState<'static, DistanceMatrix>>();
        assert_send_sync::<ServingFrontend<'static, DistanceMatrix>>();
        assert_send_sync::<SharedServingFrontend<'static, DistanceMatrix>>();
        assert_send_sync::<ShardedEngine<'static, DistanceMatrix>>();
    }
}
