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
//! local search or the dynamic-update rule is O(1). Greedy B's argmax and
//! the local search's row check go further: each is one pass over slices
//! — the oracle's batched bound read
//! ([`IncrementalOracle::marginal_bounds`]), the gain cache and the
//! membership mask — with no per-element oracle call. Greedy B's `p` steps
//! then cost `p − 1` distance sweeps (the last pick's gains are never
//! read) plus `p` such passes (`PotentialState::best_potential_bound`),
//! and each local-search scan starts with one pass that bounds every
//! candidate row (`PotentialState::row_pass`). A local search that starts
//! from Greedy B's answer takes the distance cache Greedy B parked on the
//! problem (`PotentialState::from_warm_start`) and sweeps only the last
//! pick, with the same gains bit for bit. A [`crate::ScanPool`]
//! with more than one thread splits the per-cell scans across threads;
//! every oracle is `Send + Sync`, so one state serves serial and pooled
//! scans alike.
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

/// Relative rounding slack of the row bound of [`PotentialState::row_pass`].
const ROW_BOUND_SLACK: f64 = 1e-12;

/// Independent maxima kept by [`PotentialState::best_potential_bound`].
const LANES: usize = 4;

/// The member side of a row bound (see [`PotentialState::row_pass`]): the
/// least and the largest magnitude of `b_m = f_m + λ·d_m(S)` over the
/// members `m`.
#[derive(Debug, Clone, Copy)]
struct MemberEnvelope {
    min: f64,
    max_abs: f64,
}

impl MemberEnvelope {
    /// An upper bound, rounding slack included, on the d-free value of
    /// every cell of a candidate row whose `a_c = f_c + λ·d_c(S)` is `a`.
    #[inline(always)]
    fn row_bound(self, a: f64) -> f64 {
        a - self.min + ROW_BOUND_SLACK * (a.abs() + self.max_abs)
    }
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

    /// [`from_set`](Self::from_set), bit for bit, taking the warm start
    /// Greedy B parked on `problem` and reusing its distance cache when
    /// `set` is exactly its members followed by its last pick
    /// (`WarmStart::starts`).
    ///
    /// The quality oracle is rebuilt fresh by inserting the members in
    /// that order (the calls `from_set` makes, O(p) for modular oracles);
    /// the last pick then goes in with one distance sweep, where
    /// `from_set` sweeps once per member. The gain cache and the cached
    /// dispersion are sums of the same distances in the same insertion
    /// order either way, so they are bit-identical. Any other `set`, or an
    /// empty slot, takes `from_set`; the slot is empty afterwards either
    /// way.
    pub(crate) fn from_warm_start<F: SetFunction>(
        problem: &'a DiversificationProblem<M, F>,
        set: &[ElementId],
    ) -> Self {
        let warm = problem.take_warm_start();
        let Some(warm) = warm.filter(|w| w.starts(set)) else {
            return Self::from_set(problem, set);
        };
        let mut quality = problem.quality().incremental();
        for &u in warm.dist.members() {
            quality.insert(u);
        }
        let mut state = Self {
            metric: problem.metric(),
            lambda: problem.lambda(),
            dist: warm.dist,
            quality,
        };
        state.insert(warm.last);
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

    /// The outsider with the greatest
    /// [`potential_bound`](Self::potential_bound), the first index among
    /// equal maxima; `None` when no outsider scores above `−∞`.
    ///
    /// One pass over slices: `bounds` (length `n`) receives the quality
    /// oracle's batched bound read, and each score
    /// `½·bounds[u] + λ·d_u(S)` is the expression of `potential_bound`, so
    /// the scores are bit-identical to the per-element reads. A member
    /// scores `−∞`, which never wins the strict comparison.
    pub(crate) fn best_potential_bound(&self, bounds: &mut [f64]) -> Option<ElementId> {
        self.quality.marginal_bounds(bounds);
        let lambda = self.lambda;
        let score = |b: f64, g: f64, member: bool| {
            if member {
                f64::NEG_INFINITY
            } else {
                0.5 * b + lambda * g
            }
        };
        // Independent lanes break the loop-carried compare chain. Lane `l`
        // keeps the first maximum over its own indices; the merge below
        // takes the greatest lane, the lowest index on ties, which is the
        // first index of the overall maximum.
        let mut lane_score = [f64::NEG_INFINITY; LANES];
        let mut lane_index = [usize::MAX; LANES];
        let (gains, mask) = (self.dist.gains(), self.dist.mask());
        let blocks = bounds
            .chunks_exact(LANES)
            .zip(gains.chunks_exact(LANES))
            .zip(mask.chunks_exact(LANES));
        for (k, ((b, g), m)) in blocks.enumerate() {
            for l in 0..LANES {
                let s = score(b[l], g[l], m[l]);
                if s > lane_score[l] {
                    lane_score[l] = s;
                    lane_index[l] = k * LANES + l;
                }
            }
        }
        let tail = bounds.len() - bounds.len() % LANES;
        for u in tail..bounds.len() {
            let (l, s) = (u - tail, score(bounds[u], gains[u], mask[u]));
            if s > lane_score[l] {
                lane_score[l] = s;
                lane_index[l] = u;
            }
        }
        let mut best: Option<(f64, usize)> = None;
        for (&s, &u) in lane_score.iter().zip(&lane_index) {
            if u == usize::MAX {
                continue;
            }
            if best.is_none_or(|(bs, bu)| s > bs || (s == bs && u < bu)) {
                best = Some((s, u));
            }
        }
        best.map(|(_, u)| u as ElementId)
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

    /// The local search's row pass: bounds every candidate row in one pass
    /// over slices and lists the outsiders whose row may still beat
    /// `floor`.
    ///
    /// Returns `None` when the row bound does not apply: the quality's swap gains depend on `S`
    /// (`IncrementalOracle::swap_gains_are_membership_independent`), `S`
    /// is empty, or some member's `b_m` is not finite. Every row then takes
    /// the per-cell path. Otherwise `bounds` (length `n`) ends up holding
    /// each element's row bound, and the returned prefix of `survivors`
    /// (length `n`) lists, ascending, every outsider whose bound is not
    /// `≤ floor`. A scan whose floor only rises from `floor` may skip every
    /// other row and re-check a listed row against its current floor.
    ///
    /// The bound of candidate `c`'s row is an upper bound, rounding slack
    /// included, on the d-free value `q + λ·((d_c(S) − 0) − d_m(S))` that
    /// [`swap_gain_above`](Self::swap_gain_above) computes for every cell
    /// `(c, m)`, so a row whose bound is `≤ floor` holds no cell above
    /// `floor`. With membership-independent swap gains,
    /// `q = h(c) − h(m)` where every oracle returns `h(x)` from
    /// `marginal(x)`, members included, and its batched bound read is that
    /// same marginal. So the d-free value is `a_c − b_m` up to rounding,
    /// with `a_c = f_c + λ·d_c(S)` and `b_m = f_m + λ·d_m(S)`, and it is at
    /// most `a_c − min_m b_m`. Every input is non-negative (weights, `λ`
    /// and distances), so the rounding of both expressions stays within a
    /// few ulps of `|a_c| + max_m |b_m|`; the relative slack `1e-12` covers
    /// it many times over. A non-finite `a_c` makes the bound NaN or `+∞`,
    /// which is never `≤ floor`.
    pub(crate) fn row_pass<'s>(
        &self,
        floor: f64,
        bounds: &mut [f64],
        survivors: &'s mut [ElementId],
    ) -> Option<&'s [ElementId]> {
        if !self.quality.swap_gains_are_membership_independent() || self.is_empty() {
            return None;
        }
        self.quality.marginal_bounds(bounds);
        let lambda = self.lambda;
        let gains = self.dist.gains();
        let mut envelope = MemberEnvelope {
            min: f64::INFINITY,
            max_abs: 0.0,
        };
        for &m in self.members() {
            let b = bounds[m as usize] + lambda * gains[m as usize];
            if !b.is_finite() {
                return None;
            }
            envelope.min = envelope.min.min(b);
            envelope.max_abs = envelope.max_abs.max(b.abs());
        }
        // Branch-free compaction: every index is written, and the count
        // only advances past a survivor.
        let mut kept = 0;
        let rows = bounds.iter_mut().zip(gains).zip(self.dist.mask());
        for (c, ((slot, &g), &member)) in rows.enumerate() {
            let bound = envelope.row_bound(*slot + lambda * g);
            *slot = bound;
            // A NaN bound is never `≤ floor`, so its row survives.
            let cut = bound <= floor;
            survivors[kept] = c as ElementId;
            kept += usize::from(!member && !cut);
        }
        Some(&survivors[..kept])
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

    /// Consumes the state, returning its distance cache (the quality
    /// oracle is dropped).
    pub(crate) fn into_distance_cache(self) -> SolutionState {
        self.dist
    }

    /// Inserts `u` as the last pick and returns the member list: `u`
    /// enters the quality oracle, but the O(n) distance sweep, whose gains
    /// nobody would read, is skipped.
    pub(crate) fn into_members_with(mut self, u: ElementId) -> Vec<ElementId> {
        self.quality.insert(u);
        self.dist.into_members_with(u)
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
