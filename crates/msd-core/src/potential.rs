//! Joint incremental state for the diversification potential.
//!
//! [`PotentialState`] fuses the two marginal caches every hot path needs:
//!
//! * the **distance side** — [`SolutionState`]'s Birnbaum–Goldman gain
//!   cache (`d_u(S)` for all `u`, O(n) per mutation, O(1) reads), and
//! * the **quality side** — an [`IncrementalOracle`] obtained from the
//!   problem's quality function (`f_u(S)` in O(1) for the structured
//!   functions, `O(touched)` per mutation; see `msd_submodular::incremental`).
//!
//! With both caches in place, one candidate evaluation in Greedy B, the
//! local search, the dynamic-update rule or the streaming session is O(1)
//! — the scans are pure array walks, which a [`crate::ScanPool`] with more
//! than one thread then splits across threads. Parallelism comes from the
//! pool that runs those scans: every oracle is `Send + Sync`, so one state
//! serves serial and pooled scans alike.
//!
//! The exact swap gain and the two upper bounds the local search prunes
//! with — a cell's d-free value and a whole candidate row's bound — live
//! side by side here, so they cannot drift apart.

// Holds the pruning bounds of every local-search scan: no panicking
// shortcuts outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use msd_metric::Metric;
use msd_submodular::{IncrementalOracle, SetFunction};

use crate::problem::DiversificationProblem;
use crate::solution::SolutionState;
use crate::ElementId;

/// Relative rounding slack of [`PotentialState::row_bound`].
const ROW_BOUND_SLACK: f64 = 1e-12;

/// The member side of [`PotentialState::row_bound`]: the least and the
/// largest magnitude of `b_m = f_m + λ·d_m(S)` over the members `m`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemberEnvelope {
    min: f64,
    max_abs: f64,
}

/// Incrementally-maintained `φ` state over a mutable subset `S`.
pub struct PotentialState<'a, M: Metric> {
    metric: &'a M,
    lambda: f64,
    dist: SolutionState,
    quality: Box<dyn IncrementalOracle + 'a>,
}

impl<M: Metric> std::fmt::Debug for PotentialState<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PotentialState")
            .field("members", &self.dist.members())
            .field("lambda", &self.lambda)
            .field("objective", &self.objective())
            .finish()
    }
}

impl<'a, M: Metric> PotentialState<'a, M> {
    /// Empty state for `problem`, using the quality function's specialized
    /// incremental oracle where one exists.
    pub fn new<F: SetFunction>(problem: &'a DiversificationProblem<M, F>) -> Self {
        Self {
            metric: problem.metric(),
            lambda: problem.lambda(),
            dist: SolutionState::empty(problem.ground_size()),
            quality: problem.quality().incremental(),
        }
    }

    /// State seeded with `set`.
    pub fn from_set<F: SetFunction>(
        problem: &'a DiversificationProblem<M, F>,
        set: &[ElementId],
    ) -> Self {
        let mut state = Self::new(problem);
        for &u in set {
            state.insert(u);
        }
        state
    }

    /// Empty state over an explicit metric / quality-oracle pair. This is
    /// the sharded engine's reduce path: the oracle there is a restricted
    /// view over engine-owned global state, not something derivable from a
    /// `DiversificationProblem` borrow.
    pub(crate) fn from_oracle(
        metric: &'a M,
        quality: Box<dyn IncrementalOracle + 'a>,
        lambda: f64,
    ) -> Self {
        assert_eq!(
            metric.len(),
            quality.ground_size(),
            "metric and quality oracle must share a ground set"
        );
        assert!(quality.is_empty(), "quality oracle must start empty");
        Self {
            metric,
            lambda,
            dist: SolutionState::empty(metric.len()),
            quality,
        }
    }

    /// Ground-set size `n`.
    pub fn ground_size(&self) -> usize {
        self.dist.ground_size()
    }

    /// `|S|`.
    pub fn len(&self) -> usize {
        self.dist.len()
    }

    /// `true` when `S = ∅`.
    pub fn is_empty(&self) -> bool {
        self.dist.is_empty()
    }

    /// `true` iff `u ∈ S`.
    pub fn contains(&self, u: ElementId) -> bool {
        self.dist.contains(u)
    }

    /// Current members in insertion order (removals reorder, mirroring
    /// [`SolutionState`]).
    pub fn members(&self) -> &[ElementId] {
        self.dist.members()
    }

    /// The trade-off `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The quality oracle's relative per-read cost (the scheduling hint
    /// behind the pooled scans' cost-weighted work floor — see
    /// `IncrementalOracle::scan_cost_hint`).
    pub fn scan_cost_hint(&self) -> usize {
        self.quality.scan_cost_hint()
    }

    /// `d_u(S)` from the distance gain cache (O(1)).
    pub fn distance_gain(&self, u: ElementId) -> f64 {
        self.dist.distance_gain(u)
    }

    /// Exact quality marginal `f_u(S)` (O(1) for structured oracles).
    pub fn quality_marginal(&self, u: ElementId) -> f64 {
        self.quality.marginal(u)
    }

    /// The Theorem 1 potential `φ'_u(S) = ½·f_u(S) + λ·d_u(S)`, exact.
    pub fn potential(&self, u: ElementId) -> f64 {
        0.5 * self.quality.marginal(u) + self.lambda * self.dist.distance_gain(u)
    }

    /// O(1) upper bound on `φ'_u(S)`: the distance term is exact, the
    /// quality term is the oracle's (possibly stale) bound.
    pub fn potential_bound(&self, u: ElementId) -> f64 {
        0.5 * self.quality.marginal_bound(u) + self.lambda * self.dist.distance_gain(u)
    }

    /// `true` when [`potential_bound`](Self::potential_bound) equals
    /// [`potential`](Self::potential).
    pub fn potential_is_exact(&self, u: ElementId) -> bool {
        self.quality.marginal_is_exact(u)
    }

    /// Recomputes the exact potential, tightening the quality bound.
    pub fn refresh_potential(&mut self, u: ElementId) -> f64 {
        0.5 * self.quality.refresh(u) + self.lambda * self.dist.distance_gain(u)
    }

    /// The full objective marginal `φ_u(S) = f_u(S) + λ·d_u(S)`.
    pub fn objective_marginal(&self, u: ElementId) -> f64 {
        self.quality.marginal(u) + self.lambda * self.dist.distance_gain(u)
    }

    /// Pair potential
    /// `½·f_{{u,v}}(S) + λ·(d_u(S) + d_v(S) + d(u,v))` for `u, v ∉ S`
    /// — the score of the batch (pair) greedy and of the best-pair seeding.
    pub fn pair_potential(&self, u: ElementId, v: ElementId) -> f64 {
        0.5 * self.quality.pair_marginal(u, v)
            + self.lambda
                * (self.dist.distance_gain(u)
                    + self.dist.distance_gain(v)
                    + self.metric.distance(u, v))
    }

    /// Swap gain `φ(S − v + u) − φ(S)` for `v ∈ S`, `u ∉ S`, with both
    /// sides read from the caches.
    pub fn swap_gain(&self, u: ElementId, v: ElementId) -> f64 {
        let q = self.quality.swap_gain(u, v);
        self.swap_gain_expr(q, u, v, self.metric.distance(u, v))
    }

    /// [`swap_gain`](Self::swap_gain) for a pair that may beat `floor`;
    /// `None`, without reading `d(u, v)`, for one that cannot.
    ///
    /// The pair's one quality-oracle call comes first. Then the gain
    /// expression is evaluated with `d(u, v)` replaced by `0`. Since
    /// `d(u, v) ≥ 0` (the [`Metric`] contract), `λ ≥ 0` and IEEE rounding
    /// is monotone, that value is ≥ the exact gain bit for bit. When it is
    /// `≤ floor`, so is the exact gain, and the distance is never read.
    /// Otherwise the result is the exact gain, bit-identical to
    /// [`swap_gain`](Self::swap_gain). A scan that only takes gains
    /// strictly above `floor` therefore picks the same pair either way.
    #[inline]
    pub fn swap_gain_above(&self, u: ElementId, v: ElementId, floor: f64) -> Option<f64> {
        let q = self.quality.swap_gain(u, v);
        if self.swap_gain_expr(q, u, v, 0.0) <= floor {
            return None;
        }
        Some(self.swap_gain_expr(q, u, v, self.metric.distance(u, v)))
    }

    /// The member side of [`row_bound`](Self::row_bound), in O(p).
    ///
    /// `None` when the quality's swap gains depend on `S`
    /// (`IncrementalOracle::swap_gains_are_membership_independent`), when
    /// `S` is empty, or when some member's `b_m` is not finite: the row
    /// bound then does not apply and every row takes the per-cell path.
    pub(crate) fn member_envelope(&self) -> Option<MemberEnvelope> {
        if !self.quality.swap_gains_are_membership_independent() || self.is_empty() {
            return None;
        }
        let mut envelope = MemberEnvelope {
            min: f64::INFINITY,
            max_abs: 0.0,
        };
        for &m in self.members() {
            let b = self.objective_marginal(m);
            if !b.is_finite() {
                return None;
            }
            envelope.min = envelope.min.min(b);
            envelope.max_abs = envelope.max_abs.max(b.abs());
        }
        Some(envelope)
    }

    /// An upper bound, rounding slack included, on the d-free value
    /// `q + λ·((d_c(S) − 0) − d_m(S))` that
    /// [`swap_gain_above`](Self::swap_gain_above) computes for every cell
    /// `(c, m)` of candidate `c`'s row, so a row whose bound is `≤ floor`
    /// holds no cell above `floor`.
    ///
    /// With membership-independent swap gains, `q = h(c) − h(m)` where
    /// every oracle returns `h(x)` from `marginal(x)`, members included.
    /// So the d-free value is `a_c − b_m` up to rounding, with
    /// `a_c = f_c + λ·d_c(S)` and `b_m = f_m + λ·d_m(S)`, and it is at most
    /// `a_c − min_m b_m`. Every input is non-negative (weights, `λ` and
    /// distances), so the rounding of both expressions stays within a few
    /// ulps of `|a_c| + max_m |b_m|`; the relative slack `1e-12` covers it
    /// many times over. A non-finite `a_c` makes the bound NaN or `+∞`,
    /// which is never `≤ floor`.
    #[inline]
    pub(crate) fn row_bound(&self, c: ElementId, envelope: MemberEnvelope) -> f64 {
        let a = self.objective_marginal(c);
        a - envelope.min + ROW_BOUND_SLACK * (a.abs() + envelope.max_abs)
    }

    /// `q + λ·((d_u(S) − d) − d_v(S))`: the one swap-gain expression, so
    /// the exact gain and its d-free bound cannot drift apart.
    #[inline(always)]
    fn swap_gain_expr(&self, q: f64, u: ElementId, v: ElementId, d: f64) -> f64 {
        debug_assert!(self.dist.contains(v) && !self.dist.contains(u));
        q + self.lambda * (self.dist.distance_gain(u) - d - self.dist.distance_gain(v))
    }

    /// Current objective `φ(S) = f(S) + λ·d(S)`.
    pub fn objective(&self) -> f64 {
        self.quality.value() + self.lambda * self.dist.dispersion()
    }

    /// Inserts `u`, updating both caches.
    pub fn insert(&mut self, u: ElementId) {
        self.dist.insert(self.metric, u);
        self.quality.insert(u);
    }

    /// Removes `v`, updating both caches.
    pub fn remove(&mut self, v: ElementId) {
        self.dist.remove(self.metric, v);
        self.quality.remove(v);
    }

    /// Swaps `v ∈ S` for `u ∉ S` (remove-then-insert, like
    /// [`SolutionState::swap`]).
    pub fn swap(&mut self, u: ElementId, v: ElementId) {
        self.remove(v);
        self.insert(u);
    }

    /// Consumes the state, returning the member list.
    pub fn into_members(self) -> Vec<ElementId> {
        self.dist.into_members()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_metric::DistanceMatrix;
    use msd_submodular::{CoverageFunction, ModularFunction};

    fn modular_problem() -> DiversificationProblem<DistanceMatrix, ModularFunction> {
        let pos = [0.0_f64, 1.0, 3.0, 7.0, 12.0];
        let metric = DistanceMatrix::from_points(&pos, |a, b| (a - b).abs());
        DiversificationProblem::new(
            metric,
            ModularFunction::new(vec![1.0, 0.5, 2.0, 0.0, 1.5]),
            0.3,
        )
    }

    fn coverage_problem() -> DiversificationProblem<DistanceMatrix, CoverageFunction> {
        let metric = DistanceMatrix::from_fn(5, |u, v| 1.0 + f64::from(u + v) * 0.1);
        let cover = CoverageFunction::new(
            vec![vec![0, 1], vec![1], vec![2], vec![0, 2, 3], vec![3]],
            vec![2.0, 1.0, 4.0, 0.5],
        );
        DiversificationProblem::new(metric, cover, 0.7)
    }

    #[test]
    fn marginals_match_slice_computation() {
        let p = coverage_problem();
        let mut state = PotentialState::from_set(&p, &[1, 3]);
        for u in 0..5u32 {
            if state.contains(u) {
                continue;
            }
            let set = state.members().to_vec();
            assert!(
                (state.potential(u) - p.potential(u, &set)).abs() < 1e-12,
                "u={u}"
            );
            assert!((state.objective_marginal(u) - p.marginal(u, &set)).abs() < 1e-12);
            for &v in &set {
                assert!(
                    (state.swap_gain(u, v) - p.swap_gain(u, v, &set)).abs() < 1e-12,
                    "swap {u}<->{v}"
                );
            }
        }
        assert!((state.objective() - p.objective(state.members())).abs() < 1e-12);
        state.swap(0, 1);
        assert!((state.objective() - p.objective(state.members())).abs() < 1e-12);
    }

    #[test]
    fn pair_potential_matches_two_step_extension() {
        let p = modular_problem();
        let state = PotentialState::from_set(&p, &[2]);
        let set = state.members().to_vec();
        for u in [0u32, 1] {
            for v in [3u32, 4] {
                let mut with_u = set.clone();
                with_u.push(u);
                let expected = 0.5
                    * (p.quality().marginal(u, &set) + p.quality().marginal(v, &with_u))
                    + p.lambda()
                        * (p.metric().distance_to_set(u, &set)
                            + p.metric().distance_to_set(v, &set)
                            + p.metric().distance(u, v));
                assert!(
                    (state.pair_potential(u, v) - expected).abs() < 1e-12,
                    "pair ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn bounds_are_exact_for_structured_oracles() {
        let p = coverage_problem();
        let mut state = PotentialState::new(&p);
        state.insert(0);
        for u in 1..5u32 {
            assert!(state.potential_is_exact(u));
            assert_eq!(state.potential_bound(u), state.potential(u));
            let refreshed = state.refresh_potential(u);
            assert_eq!(refreshed, state.potential(u));
        }
    }
}
