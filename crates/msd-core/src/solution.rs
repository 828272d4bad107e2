//! Incremental solution state.
//!
//! The paper's Section 4 closes with the observation (due to Birnbaum and
//! Goldman) that the greedy's marginal distances `d_u(S)` can be maintained
//! for *all* `u` within the same `O(n)` sweep used to pick the next vertex,
//! bringing the total running time to `O(np)`. [`SolutionState`] implements
//! that bookkeeping and is shared by the greedy, the local search and the
//! dynamic-update driver.

// Shared by every solver and session: no panicking shortcuts outside
// tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use msd_metric::Metric;

use crate::ElementId;

/// A mutable subset `S ⊆ U` with incrementally-maintained dispersion data.
///
/// Maintains, for every element `u ∈ U`:
///
/// * `gain[u] = d_u(S) = Σ_{v ∈ S} d(u, v)` — the marginal dispersion, and
/// * `dispersion = d(S)` — the current total.
///
/// Every mutation is `O(n)`; all queries are `O(1)`.
#[derive(Debug, Clone)]
pub struct SolutionState {
    members: Vec<ElementId>,
    in_set: Vec<bool>,
    /// `gain[u] = Σ_{v∈S} d(u, v)`; for `u ∈ S` this excludes `d(u,u) = 0`
    /// so it equals `d_u(S − u)`.
    gain: Vec<f64>,
    dispersion: f64,
}

impl SolutionState {
    /// An empty solution over a ground set of size `n`.
    pub fn empty(n: usize) -> Self {
        Self {
            members: Vec::new(),
            in_set: vec![false; n],
            gain: vec![0.0; n],
            dispersion: 0.0,
        }
    }

    /// Builds state for an existing subset.
    ///
    /// # Panics
    ///
    /// Panics on duplicate or out-of-range members.
    pub fn from_set<M: Metric>(metric: &M, set: &[ElementId]) -> Self {
        let mut state = Self::empty(metric.len());
        for &u in set {
            state.insert(metric, u);
        }
        state
    }

    /// Current members in insertion order.
    pub fn members(&self) -> &[ElementId] {
        &self.members
    }

    /// `|S|`.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when `S = ∅`.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Ground-set size `n`.
    pub fn ground_size(&self) -> usize {
        self.in_set.len()
    }

    /// `true` iff `u ∈ S`.
    pub fn contains(&self, u: ElementId) -> bool {
        self.in_set[u as usize]
    }

    /// `d_u(S)` — the marginal dispersion of `u` with respect to `S`.
    /// For `u ∈ S` this is `Σ_{v ∈ S, v ≠ u} d(u,v)`.
    pub fn distance_gain(&self, u: ElementId) -> f64 {
        self.gain[u as usize]
    }

    /// Total dispersion `d(S)`.
    pub fn dispersion(&self) -> f64 {
        self.dispersion
    }

    /// Inserts `u`, updating all gains in one `O(n)` sweep.
    ///
    /// # Panics
    ///
    /// Panics if `u ∈ S` already.
    pub fn insert<M: Metric>(&mut self, metric: &M, u: ElementId) {
        assert!(!self.in_set[u as usize], "element {u} already in solution");
        self.dispersion += self.gain[u as usize];
        metric.accumulate_distances(u, &mut self.gain, 1.0);
        self.in_set[u as usize] = true;
        self.members.push(u);
    }

    /// Removes `v`, updating all gains in one `O(n)` sweep.
    ///
    /// # Panics
    ///
    /// Panics if `v ∉ S`.
    pub fn remove<M: Metric>(&mut self, metric: &M, v: ElementId) {
        let position = self.members.iter().position(|&x| x == v);
        let Some(idx) = position.filter(|_| self.in_set[v as usize]) else {
            panic!("element {v} not in solution");
        };
        self.in_set[v as usize] = false;
        self.members.swap_remove(idx);
        metric.accumulate_distances(v, &mut self.gain, -1.0);
        self.dispersion -= self.gain[v as usize];
    }

    /// Swaps `v ∈ S` for `u ∉ S` (the local-search move).
    pub fn swap<M: Metric>(&mut self, metric: &M, u: ElementId, v: ElementId) {
        self.remove(metric, v);
        self.insert(metric, u);
    }

    /// The dispersion change `d(S − v + u) − d(S)` a swap *would* cause,
    /// in O(1) using the maintained gains.
    pub fn swap_dispersion_delta<M: Metric>(&self, metric: &M, u: ElementId, v: ElementId) -> f64 {
        debug_assert!(self.contains(v) && !self.contains(u));
        self.gain[u as usize] - metric.distance(u, v) - self.gain[v as usize]
    }

    /// Rebuilds all cached quantities from scratch (O(n²)); used by tests
    /// and after bulk metric perturbations.
    pub fn recompute<M: Metric>(&mut self, metric: &M) {
        // distance_to_set includes d(u,u) = 0 when u ∈ S, so no correction
        // is needed for members.
        for u in 0..self.gain.len() as ElementId {
            self.gain[u as usize] = metric.distance_to_set(u, &self.members);
        }
        self.dispersion = metric.dispersion(&self.members);
    }

    /// Consumes the state, returning the member list.
    pub fn into_members(self) -> Vec<ElementId> {
        self.members
    }

    /// Consumes the state, returning the member list with `u` appended:
    /// an insert without the gain sweep, for a last pick whose gains
    /// nobody reads.
    ///
    /// # Panics
    ///
    /// Panics if `u ∈ S` already.
    pub(crate) fn into_members_with(mut self, u: ElementId) -> Vec<ElementId> {
        assert!(!self.in_set[u as usize], "element {u} already in solution");
        self.members.push(u);
        self.members
    }

    /// The gain cache as a slice: `gains()[u] = d_u(S)`.
    pub(crate) fn gains(&self) -> &[f64] {
        &self.gain
    }

    /// The membership mask: `mask()[u]` iff `u ∈ S`.
    pub(crate) fn mask(&self) -> &[bool] {
        &self.in_set
    }

    /// Shifts one cached gain (crate-internal repair hook for dynamic
    /// distance perturbations).
    pub(crate) fn add_gain(&mut self, u: ElementId, delta: f64) {
        self.gain[u as usize] += delta;
    }

    /// Shifts the cached dispersion (crate-internal repair hook).
    pub(crate) fn add_dispersion(&mut self, delta: f64) {
        self.dispersion += delta;
    }

    /// Exports the raw fields — member order, membership mask, the cached
    /// gain vector and dispersion — for the serving layer's tenant
    /// eviction snapshots.
    pub(crate) fn raw_parts(&self) -> (Vec<ElementId>, Vec<bool>, Vec<f64>, f64) {
        (
            self.members.clone(),
            self.in_set.clone(),
            self.gain.clone(),
            self.dispersion,
        )
    }

    /// Rebuilds a state from raw exported fields **without**
    /// re-accumulating the cached floats — re-inserting members would
    /// re-derive `gain`/`dispersion` through a different accumulation
    /// history, breaking the bit-identity contract of evict → attach.
    ///
    /// # Panics
    ///
    /// Panics when the field lengths disagree or the mask does not match
    /// the member list.
    pub(crate) fn from_raw(
        members: Vec<ElementId>,
        in_set: Vec<bool>,
        gain: Vec<f64>,
        dispersion: f64,
    ) -> Self {
        assert_eq!(in_set.len(), gain.len(), "mask/gain length mismatch");
        assert_eq!(
            members.len(),
            in_set.iter().filter(|&&b| b).count(),
            "membership mask and member list out of sync"
        );
        assert!(
            members.iter().all(|&u| in_set[u as usize]),
            "membership mask and member list out of sync"
        );
        Self {
            members,
            in_set,
            gain,
            dispersion,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_metric::DistanceMatrix;

    fn line_metric() -> DistanceMatrix {
        // positions 0, 1, 3, 7
        let pos = [0.0_f64, 1.0, 3.0, 7.0];
        DistanceMatrix::from_points(&pos, |a, b| (a - b).abs())
    }

    #[test]
    fn insert_maintains_gains_and_dispersion() {
        let m = line_metric();
        let mut s = SolutionState::empty(4);
        assert!(s.is_empty());

        s.insert(&m, 0);
        assert_eq!(s.dispersion(), 0.0);
        assert_eq!(s.distance_gain(1), 1.0);
        assert_eq!(s.distance_gain(3), 7.0);

        s.insert(&m, 3);
        assert_eq!(s.dispersion(), 7.0);
        assert_eq!(s.distance_gain(1), 1.0 + 6.0);
        assert_eq!(s.distance_gain(2), 3.0 + 4.0);

        s.insert(&m, 1);
        // d({0,1,3}) = 1 + 7 + 6 = 14
        assert_eq!(s.dispersion(), 14.0);
        assert_eq!(s.members().len(), 3);
        assert!(s.contains(1));
        assert!(!s.contains(2));
    }

    #[test]
    fn remove_reverses_insert() {
        let m = line_metric();
        let mut s = SolutionState::from_set(&m, &[0, 1, 3]);
        s.remove(&m, 1);
        assert_eq!(s.dispersion(), 7.0);
        assert_eq!(s.len(), 2);
        assert!(!s.contains(1));
        // gain of 1 back to d_1({0,3}) = 1 + 6
        assert_eq!(s.distance_gain(1), 7.0);
    }

    #[test]
    fn swap_equals_remove_then_insert() {
        let m = line_metric();
        let mut a = SolutionState::from_set(&m, &[0, 1]);
        let mut b = a.clone();
        a.swap(&m, 3, 1);
        b.remove(&m, 1);
        b.insert(&m, 3);
        assert_eq!(a.dispersion(), b.dispersion());
        assert_eq!(a.contains(3), b.contains(3));
        assert_eq!(a.dispersion(), 7.0);
    }

    #[test]
    fn swap_dispersion_delta_matches_actual_swap() {
        let m = line_metric();
        let s = SolutionState::from_set(&m, &[0, 2]);
        for u in [1u32, 3] {
            for v in [0u32, 2] {
                let predicted = s.swap_dispersion_delta(&m, u, v);
                let mut t = s.clone();
                t.swap(&m, u, v);
                assert!(
                    (t.dispersion() - s.dispersion() - predicted).abs() < 1e-12,
                    "swap {u}<->{v}"
                );
            }
        }
    }

    #[test]
    fn gains_agree_with_metric_sweep() {
        let m = line_metric();
        let s = SolutionState::from_set(&m, &[1, 2, 3]);
        for u in 0..4u32 {
            let expected: f64 = s
                .members()
                .iter()
                .filter(|&&v| v != u)
                .map(|&v| m.distance(u, v))
                .sum();
            assert!((s.distance_gain(u) - expected).abs() < 1e-12, "u={u}");
        }
        assert!((s.dispersion() - m.dispersion(s.members())).abs() < 1e-12);
    }

    #[test]
    fn recompute_restores_state_after_metric_change() {
        let mut m = line_metric();
        let mut s = SolutionState::from_set(&m, &[0, 3]);
        m.set(0, 3, 100.0);
        s.recompute(&m);
        assert_eq!(s.dispersion(), 100.0);
        assert_eq!(s.distance_gain(0), 100.0);
        assert_eq!(s.distance_gain(1), 1.0 + 6.0);
    }

    #[test]
    #[should_panic(expected = "already in solution")]
    fn double_insert_panics() {
        let m = line_metric();
        let mut s = SolutionState::empty(4);
        s.insert(&m, 0);
        s.insert(&m, 0);
    }

    #[test]
    #[should_panic(expected = "not in solution")]
    fn removing_absent_element_panics() {
        let m = line_metric();
        let mut s = SolutionState::empty(4);
        s.remove(&m, 0);
    }

    #[test]
    fn into_members_returns_the_set() {
        let m = line_metric();
        let s = SolutionState::from_set(&m, &[2, 0]);
        let mut members = s.into_members();
        members.sort_unstable();
        assert_eq!(members, vec![0, 2]);
    }
}
