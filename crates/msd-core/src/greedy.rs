//! **Greedy B** — the paper's non-oblivious greedy (Section 4, Theorem 1).
//!
//! ```text
//! S = ∅
//! while |S| < p
//!     find u ∈ U − S maximizing φ'_u(S) = ½·f_u(S) + λ·d_u(S)
//!     S = S + u
//! return S
//! ```
//!
//! Theorem 1: for normalized monotone submodular `f` this is a
//! 2-approximation for max-sum `p`-diversification. The algorithm is
//! *non-oblivious* (in the sense of Khanna et al.): each step maximizes the
//! potential `φ'`, not the objective `φ` — the ½ factor on the quality
//! marginal is exactly what makes the telescoping bound in the proof close.
//!
//! With the [`crate::SolutionState`] gain cache the total cost is `O(np)` oracle
//! and distance operations (Birnbaum–Goldman), as the paper notes at the
//! end of Section 4.
//!
//! Two refinements from the experimental section (Table 3) are exposed via
//! [`GreedyBConfig`]:
//!
//! * `best_pair_start` — "for Greedy B, we will start with the best pair of
//!   nodes rather than an arbitrary node". The approximation ratio is
//!   unaffected; observed quality typically improves.
//! * Setting the quality function to zero recovers the Ravi–Rosenkrantz–
//!   Tayi dispersion greedy (Corollary 1); see
//!   [`max_sum_dispersion_greedy`].

use msd_metric::Metric;
use msd_submodular::{SetFunction, ZeroFunction};

use crate::potential::PotentialState;
use crate::problem::DiversificationProblem;
use crate::ElementId;

/// Configuration for [`greedy_b`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyBConfig {
    /// Start from the pair `{x, y}` maximizing `½·f({x,y}) + λ·d(x,y)`
    /// instead of greedily choosing the first vertex (the "improved
    /// Greedy B" of Table 3). Only takes effect when `p ≥ 2`.
    pub best_pair_start: bool,
}

/// Runs Greedy B, returning the selected set (size `min(p, n)`) in
/// selection order.
///
/// Implements the greedy algorithm of Theorem 1: a 2-approximation for
/// monotone submodular quality functions under a cardinality constraint.
///
/// **Submodularity is relied on, not just assumed for the ratio**: for
/// quality functions without a specialized incremental oracle, candidate
/// selection uses the Minoux lazy queue, whose cached upper bounds are
/// only valid when marginals are non-increasing in `S`. With a
/// non-submodular quality (which [`SetFunction`] deliberately does not
/// rule out) the selected element may deviate from the exact per-step
/// argmax (and from `parallel::greedy_b_in`, which evaluates exact
/// marginals); the Theorem 1 guarantee is void in that regime anyway.
pub fn greedy_b<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    p: usize,
    config: GreedyBConfig,
) -> Vec<ElementId> {
    greedy_b_with_state(PotentialState::new(problem), p, config)
}

/// The Greedy B selection loop over an already-constructed *empty*
/// [`PotentialState`] — shared by [`greedy_b`] and the sharded engine's
/// union-scoped reduce (`crate::sharded`), which must select through this
/// exact code path to stay equivalent to the one-shot distributed solver.
pub(crate) fn greedy_b_with_state<M: Metric>(
    mut state: PotentialState<'_, M>,
    p: usize,
    config: GreedyBConfig,
) -> Vec<ElementId> {
    let n = state.ground_size();
    let p = p.min(n);
    if p == 0 {
        return Vec::new();
    }

    if config.best_pair_start && p >= 2 {
        // Seed with argmax_{x,y} ½·f({x,y}) + λ·d(x,y) (the pair potential
        // from the empty set).
        let (mut best, mut best_score) = ((0, 1), f64::NEG_INFINITY);
        for x in 0..n as ElementId {
            for y in (x + 1)..n as ElementId {
                let score = state.pair_potential(x, y);
                if score > best_score {
                    best_score = score;
                    best = (x, y);
                }
            }
        }
        state.insert(best.0);
        state.insert(best.1);
    }

    while state.len() < p {
        match lazy_greedy_argmax(&mut state) {
            Some(u) => state.insert(u),
            None => break, // ground set exhausted
        }
    }
    state.into_members()
}

/// Heap entry for the Minoux lazy queue: max by score, ties toward the
/// lowest index, with a total order on floats (`total_cmp`) so degenerate
/// scores cannot poison the heap invariants.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LazyCandidate {
    score: f64,
    u: ElementId,
}

impl Eq for LazyCandidate {}

impl Ord for LazyCandidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.u.cmp(&self.u))
    }
}

impl PartialOrd for LazyCandidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One lazy-greedy (Minoux) selection step: the argmax of the potential
/// `φ'_u(S)` over `u ∉ S`, ties broken toward the lowest index.
///
/// Candidates are ranked by the O(1) [`PotentialState::potential_bound`]
/// (exact distance term + possibly-stale quality upper bound — valid
/// **provided `f` is submodular**, because then marginals cached at a
/// smaller `S` only shrink as `S` grows; see the note on [`greedy_b`]).
/// Structured oracles always report exact bounds, so the fast path — one
/// linear scan whose winner is already exact — selects immediately, at the
/// cost of the eager implementation. Otherwise the candidates are heapified
/// once (O(n)) and popped lazily: a popped entry whose score is stale is
/// re-pushed at its current bound (O(log n)), a current-but-inexact entry
/// is refreshed through the oracle and re-pushed, and a current exact
/// entry is the argmax. Refreshes therefore cost O(log n) reordering each
/// instead of an O(n) rescan.
///
/// The selected element is identical to the eager scan's: stale bounds
/// only over-rank candidates, so any candidate that would beat (or tie at
/// a lower index) the selected one sorts ahead of it in the pop order and
/// is examined first.
pub(crate) fn lazy_greedy_argmax<M: Metric>(
    state: &mut PotentialState<'_, M>,
) -> Option<ElementId> {
    let n = state.ground_size() as ElementId;
    // Fast path: one linear scan over the O(1) bounds. If the winner's
    // bound is exact — always, for structured oracles — it is the argmax.
    let mut best: Option<ElementId> = None;
    let mut best_score = f64::NEG_INFINITY;
    for u in 0..n {
        if state.contains(u) {
            continue;
        }
        let score = state.potential_bound(u);
        if score > best_score {
            best_score = score;
            best = Some(u);
        }
    }
    let top = best?;
    if state.potential_is_exact(top) {
        return Some(top);
    }

    // Lazy path (generic fallback oracles): heap over the stale bounds.
    let mut heap: std::collections::BinaryHeap<LazyCandidate> = (0..n)
        .filter(|&u| !state.contains(u))
        .map(|u| LazyCandidate {
            score: state.potential_bound(u),
            u,
        })
        .collect();
    while let Some(entry) = heap.pop() {
        let current = state.potential_bound(entry.u);
        if entry.score > current {
            // Stale snapshot (the bound tightened since it was pushed);
            // re-queue at the current bound.
            heap.push(LazyCandidate {
                score: current,
                u: entry.u,
            });
            continue;
        }
        if state.potential_is_exact(entry.u) {
            return Some(entry.u);
        }
        let refreshed = state.refresh_potential(entry.u);
        heap.push(LazyCandidate {
            score: refreshed,
            u: entry.u,
        });
    }
    unreachable!("non-empty candidate heap cannot drain without an exact top");
}

/// The Ravi–Rosenkrantz–Tayi greedy for max-sum `p`-dispersion.
///
/// Corollary 1 of the paper: running Greedy B with `f ≡ 0` *is* the Ravi et
/// al. vertex greedy, so it inherits the 2-approximation (the bound
/// Birnbaum and Goldman later proved directly, settling a conjecture of
/// Hassin et al.).
pub fn max_sum_dispersion_greedy<M: Metric>(metric: &M, p: usize) -> Vec<ElementId> {
    let problem = DiversificationProblem::new(metric, ZeroFunction::new(metric.len()), 1.0);
    greedy_b(&problem, p, GreedyBConfig::default())
}

/// Batch greedy: add the best *pair* of vertices per step.
///
/// Birnbaum and Goldman show that greedily choosing `d` nodes at a time
/// gives a `(2p−2)/(p+d−2)` approximation for max-sum dispersion
/// (Section 3 of the paper); `d = 2` improves the single-vertex greedy's
/// `(2p−2)/(p−1)` at an `O(n²)`-per-step cost. This implementation
/// extends the same batch rule to the diversification potential
/// `φ'`, adding the pair maximizing
/// `½·f_{{u,v}}(S) + λ·(d_u(S) + d_v(S) + d(u,v))`; an odd `p` gets one
/// final single-vertex step.
///
/// With the `parallel` feature, `parallel::greedy_b_pairs` distributes the
/// O(n²) pair scan over threads with bit-identical (lexicographically
/// smallest maximizing pair) output.
pub fn greedy_b_pairs<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    p: usize,
) -> Vec<ElementId> {
    let n = problem.ground_size();
    let p = p.min(n);
    if p == 0 {
        return Vec::new();
    }
    let mut state = PotentialState::new(problem);

    while state.len() + 2 <= p {
        let mut best: Option<(ElementId, ElementId)> = None;
        let mut best_score = f64::NEG_INFINITY;
        for u in 0..n as ElementId {
            if state.contains(u) {
                continue;
            }
            for v in (u + 1)..n as ElementId {
                if state.contains(v) {
                    continue;
                }
                // Pair marginal of the potential, read from the caches —
                // no per-pair set materialization.
                let score = state.pair_potential(u, v);
                if score > best_score {
                    best_score = score;
                    best = Some((u, v));
                }
            }
        }
        match best {
            Some((u, v)) => {
                state.insert(u);
                state.insert(v);
            }
            None => break,
        }
    }
    if state.len() < p {
        // One final single-vertex step for odd p.
        if let Some(u) = lazy_greedy_argmax(&mut state) {
            state.insert(u);
        }
    }
    state.into_members()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_max_diversification;
    use crate::solution::SolutionState;
    use msd_metric::DistanceMatrix;
    use msd_submodular::{ModularFunction, SetFunction};

    fn line_instance() -> DiversificationProblem<DistanceMatrix, ModularFunction> {
        // positions 0..6 on a line, weights favour the middle.
        let pos: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let metric = DistanceMatrix::from_points(&pos, |a, b| (a - b).abs());
        let weights = vec![0.1, 0.2, 5.0, 5.0, 0.2, 0.1];
        DiversificationProblem::new(metric, ModularFunction::new(weights), 1.0)
    }

    #[test]
    fn selects_requested_cardinality() {
        let p = line_instance();
        for k in 0..=6 {
            let s = greedy_b(&p, k, GreedyBConfig::default());
            assert_eq!(s.len(), k);
            // no duplicates
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k);
        }
    }

    #[test]
    fn oversized_p_is_clamped_to_ground_set() {
        let p = line_instance();
        let s = greedy_b(&p, 100, GreedyBConfig::default());
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn p_zero_returns_empty() {
        let p = line_instance();
        assert!(greedy_b(&p, 0, GreedyBConfig::default()).is_empty());
    }

    #[test]
    fn p_one_picks_max_potential_singleton() {
        let p = line_instance();
        let s = greedy_b(&p, 1, GreedyBConfig::default());
        // φ'_u(∅) = ½ w(u): elements 2 and 3 tie at 2.5; first wins.
        assert_eq!(s, vec![2]);
    }

    #[test]
    fn first_step_balances_weight_and_distance() {
        // Two heavy close points vs two light far points.
        let pos = [0.0_f64, 0.1, 100.0];
        let metric = DistanceMatrix::from_points(&pos, |a, b| (a - b).abs());
        let quality = ModularFunction::new(vec![1.0, 1.0, 0.0]);
        let p = DiversificationProblem::new(metric, quality, 1.0);
        let s = greedy_b(&p, 2, GreedyBConfig::default());
        // After picking any first element, the distance term dominates and
        // the far point must be chosen.
        assert!(s.contains(&2), "far point must be selected, got {s:?}");
    }

    #[test]
    fn achieves_half_of_optimum_on_exhaustive_instances() {
        // Theorem 1 guarantee, checked against brute force on a batch of
        // deterministic small instances.
        for seed in 0u32..20 {
            let n = 7;
            // Simple deterministic pseudo-random values in [0,1] / [1,2].
            let mut x = u64::from(seed) * 2654435761 + 1;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 11) as f64 / (1u64 << 53) as f64
            };
            let weights: Vec<f64> = (0..n).map(|_| next()).collect();
            let metric = DistanceMatrix::from_fn(n, |_, _| 1.0 + next());
            let problem = DiversificationProblem::new(metric, ModularFunction::new(weights), 0.2);
            for p in 1..=4usize {
                let greedy = greedy_b(&problem, p, GreedyBConfig::default());
                let opt = exact_max_diversification(&problem, p);
                let g = problem.objective(&greedy);
                let o = problem.objective(&opt.set);
                assert!(
                    2.0 * g >= o - 1e-9,
                    "seed {seed} p {p}: greedy {g} < OPT/2 = {}",
                    o / 2.0
                );
            }
        }
    }

    #[test]
    fn best_pair_start_matches_or_beats_on_pathological_first_pick() {
        // Element 0 has a huge weight but sits on top of element 1; the
        // plain greedy takes 0 first and can get stuck with a poor pair.
        let pos = [0.0_f64, 0.0, 10.0];
        let metric = DistanceMatrix::from_points(&pos, |a, b| (a - b).abs());
        let quality = ModularFunction::new(vec![3.0, 0.0, 2.9]);
        let p = DiversificationProblem::new(metric, quality, 0.01);
        let plain = greedy_b(&p, 2, GreedyBConfig::default());
        let improved = greedy_b(
            &p,
            2,
            GreedyBConfig {
                best_pair_start: true,
            },
        );
        assert!(p.objective(&improved) >= p.objective(&plain) - 1e-12);
    }

    #[test]
    fn dispersion_greedy_is_greedy_b_with_zero_quality() {
        let pos: Vec<f64> = vec![0.0, 1.0, 4.0, 9.0, 16.0];
        let metric = DistanceMatrix::from_points(&pos, |a, b| (a - b).abs());
        let via_zero = {
            let problem =
                DiversificationProblem::new(&metric, msd_submodular::ZeroFunction::new(5), 1.0);
            greedy_b(&problem, 3, GreedyBConfig::default())
        };
        let direct = max_sum_dispersion_greedy(&metric, 3);
        assert_eq!(via_zero, direct);
        // Extremes must be in the dispersion solution.
        assert!(direct.contains(&0) && direct.contains(&4));
    }

    #[test]
    fn works_with_submodular_quality() {
        use msd_submodular::CoverageFunction;
        // 4 elements, 3 topics; elements 0 and 1 cover the same topic.
        let cover = CoverageFunction::new(
            vec![vec![0], vec![0], vec![1], vec![2]],
            vec![10.0, 1.0, 1.0],
        );
        let metric = DistanceMatrix::from_fn(4, |_, _| 1.0);
        let p = DiversificationProblem::new(metric, cover, 0.0);
        let s = greedy_b(&p, 2, GreedyBConfig::default());
        // With λ=0 and coverage quality, picking both 0 and 1 is wasteful;
        // greedy must take one of {0,1} and then a new topic.
        assert_eq!(p.quality().value(&s), 11.0);
    }

    #[test]
    fn pair_greedy_selects_requested_cardinality() {
        let p = line_instance();
        for k in 0..=6usize {
            let s = greedy_b_pairs(&p, k);
            assert_eq!(s.len(), k, "p = {k}");
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), k);
        }
    }

    #[test]
    fn pair_greedy_meets_the_batch_dispersion_bound() {
        // Birnbaum–Goldman: batch size d=2 gives (2p−2)/(p+d−2) = (2p−2)/p
        // for dispersion. Verify against brute force.
        for seed in 0u32..10 {
            let n = 8;
            let mut x = u64::from(seed) * 2654435761 + 7;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 11) as f64 / (1u64 << 53) as f64
            };
            let metric = DistanceMatrix::from_fn(n, |_, _| 1.0 + next());
            let problem =
                DiversificationProblem::new(&metric, msd_submodular::ZeroFunction::new(n), 1.0);
            for p in [2usize, 4, 6] {
                let s = greedy_b_pairs(&problem, p);
                let opt = exact_max_diversification(&problem, p);
                let bound = (2 * p - 2) as f64 / p as f64;
                assert!(
                    bound * metric.dispersion(&s) >= opt.objective - 1e-9,
                    "seed {seed} p {p}"
                );
            }
        }
    }

    #[test]
    fn pair_greedy_first_pair_maximizes_pair_potential() {
        let pos = [0.0_f64, 1.0, 9.0, 10.0];
        let metric = DistanceMatrix::from_points(&pos, |a, b| (a - b).abs());
        let quality = ModularFunction::uniform(4, 0.0);
        let p = DiversificationProblem::new(metric, quality, 1.0);
        let mut s = greedy_b_pairs(&p, 2);
        s.sort_unstable();
        assert_eq!(s, vec![0, 3], "farthest pair first");
    }

    #[test]
    fn greedy_marginals_agree_with_naive_computation() {
        // The gain cache must match recomputing d_u(S) from scratch at
        // every step (regression test for the Birnbaum–Goldman cache).
        let p = line_instance();
        let n = p.ground_size();
        let mut state = SolutionState::empty(n);
        for _ in 0..4 {
            let members = state.members().to_vec();
            let mut best = None;
            let mut best_score = f64::NEG_INFINITY;
            for u in 0..n as ElementId {
                if state.contains(u) {
                    continue;
                }
                let cached =
                    0.5 * p.quality().marginal(u, &members) + p.lambda() * state.distance_gain(u);
                let naive = p.potential(u, &members);
                assert!((cached - naive).abs() < 1e-12);
                if cached > best_score {
                    best_score = cached;
                    best = Some(u);
                }
            }
            state.insert(p.metric(), best.unwrap());
        }
    }
}
