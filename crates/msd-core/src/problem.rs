//! The max-sum diversification problem instance.
//!
//! Bundles the three ingredients of the paper's objective — a metric `d`, a
//! quality function `f` and the trade-off `λ` — and evaluates
//! `φ(S) = f(S) + λ·d(S)` plus the marginal quantities used by every
//! algorithm (`φ_u`, the potential `φ'_u` of Theorem 1, and swap gains).
//!
//! An instance also holds one parked `WarmStart`: the distance cache
//! [`crate::greedy_b`] built, which the next
//! [`crate::local_search_refine`] on the same instance takes instead of
//! rebuilding it (see [`crate::local_search`]).

// Holds the warm-start slot that every Greedy B and local search locks:
// no panicking shortcuts outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::{Arc, Mutex, PoisonError};

use msd_metric::Metric;
use msd_submodular::SetFunction;

use crate::pool::ScanPool;
use crate::solution::SolutionState;
use crate::ElementId;

/// Greedy B's final distance cache, parked for the local search that
/// refines its answer: `dist` holds every pick but the last, in selection
/// order, with the gains of exactly those picks, and `last` is the last
/// pick, whose sweep Greedy B skipped.
#[derive(Debug)]
pub(crate) struct WarmStart {
    pub(crate) dist: SolutionState,
    pub(crate) last: ElementId,
}

impl WarmStart {
    /// `true` when `set` is exactly the parked members followed by the
    /// last pick, in that order.
    pub(crate) fn starts(&self, set: &[ElementId]) -> bool {
        set.split_last()
            .is_some_and(|(&last, members)| last == self.last && members == self.dist.members())
    }
}

/// An instance of Max-Sum `p`-Diversification (Problem 2 of the paper).
///
/// The cardinality / matroid constraint is *not* part of the instance; it
/// is supplied to each algorithm, so one instance can be solved under many
/// constraints.
///
/// The instance also carries the [`ScanPool`] its algorithms scan on
/// ([`with_scan_pool`](Self::with_scan_pool); the ambient
/// [`ScanPool::global`] by default). The pool is scheduling only: every
/// algorithm returns the same result on every pool.
pub struct DiversificationProblem<M, F> {
    metric: M,
    quality: F,
    lambda: f64,
    scan_pool: Option<Arc<ScanPool>>,
    /// The last [`crate::greedy_b`] run's distance cache, until a local
    /// search takes it or the metric may change. Clones start empty, and
    /// `Debug` leaves it out.
    warm_start: Mutex<Option<WarmStart>>,
}

impl<M: Clone, F: Clone> Clone for DiversificationProblem<M, F> {
    fn clone(&self) -> Self {
        Self {
            metric: self.metric.clone(),
            quality: self.quality.clone(),
            lambda: self.lambda,
            scan_pool: self.scan_pool.clone(),
            warm_start: Mutex::new(None),
        }
    }
}

impl<M: std::fmt::Debug, F: std::fmt::Debug> std::fmt::Debug for DiversificationProblem<M, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiversificationProblem")
            .field("metric", &self.metric)
            .field("quality", &self.quality)
            .field("lambda", &self.lambda)
            .field("scan_pool", &self.scan_pool)
            .finish()
    }
}

impl<M: Metric, F: SetFunction> DiversificationProblem<M, F> {
    /// Creates an instance.
    ///
    /// # Panics
    ///
    /// Panics if the metric and quality function disagree on the ground
    /// size, or `λ` is negative or non-finite.
    pub fn new(metric: M, quality: F, lambda: f64) -> Self {
        assert_eq!(
            metric.len(),
            quality.ground_size(),
            "metric ({}) and quality function ({}) must share a ground set",
            metric.len(),
            quality.ground_size()
        );
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "lambda must be finite and non-negative, got {lambda}"
        );
        Self {
            metric,
            quality,
            lambda,
            scan_pool: None,
            warm_start: Mutex::new(None),
        }
    }

    /// Runs this instance's candidate scans — Greedy B, the local search,
    /// the repair steps, [`crate::DynamicInstance`] and sessions opened
    /// with [`crate::DynamicSession::new`] — on `pool` (builder style).
    pub fn with_scan_pool(mut self, pool: Arc<ScanPool>) -> Self {
        self.scan_pool = Some(pool);
        self
    }

    /// The pool this instance's scans run on.
    pub fn scan_pool(&self) -> &ScanPool {
        self.scan_pool
            .as_deref()
            .unwrap_or_else(|| ScanPool::global())
    }

    /// The pool given to [`with_scan_pool`](Self::with_scan_pool), if any.
    pub(crate) fn scan_pool_handle(&self) -> Option<&Arc<ScanPool>> {
        self.scan_pool.as_ref()
    }

    /// Ground-set size `n`.
    pub fn ground_size(&self) -> usize {
        self.metric.len()
    }

    /// The metric `d`.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// The quality function `f`.
    pub fn quality(&self) -> &F {
        &self.quality
    }

    /// Mutable access to the metric (dynamic updates perturb distances).
    ///
    /// Drops the distance cache a [`crate::greedy_b`] run parked, so the
    /// next local search rebuilds it from the changed metric.
    pub fn metric_mut(&mut self) -> &mut M {
        *self
            .warm_start
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = None;
        &mut self.metric
    }

    /// Mutable access to the quality function (dynamic updates perturb
    /// weights).
    pub fn quality_mut(&mut self) -> &mut F {
        &mut self.quality
    }

    /// Parks `warm` for the next local search, replacing any earlier one.
    pub(crate) fn park_warm_start(&self, warm: WarmStart) {
        *self.warm_slot() = Some(warm);
    }

    /// Takes the parked warm start, leaving the slot empty.
    pub(crate) fn take_warm_start(&self) -> Option<WarmStart> {
        self.warm_slot().take()
    }

    /// The locked slot. A panic while it was held cannot leave it half
    /// written (each holder replaces or takes the whole value), so a
    /// poisoned lock is recovered, never propagated.
    fn warm_slot(&self) -> std::sync::MutexGuard<'_, Option<WarmStart>> {
        self.warm_start
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The trade-off parameter `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The objective `φ(S) = f(S) + λ·d(S)`.
    pub fn objective(&self, set: &[ElementId]) -> f64 {
        self.quality.value(set) + self.lambda * self.metric.dispersion(set)
    }

    /// The quality component `f(S)`.
    pub fn quality_value(&self, set: &[ElementId]) -> f64 {
        self.quality.value(set)
    }

    /// The dispersion component `d(S)` (unweighted by `λ`).
    pub fn dispersion(&self, set: &[ElementId]) -> f64 {
        self.metric.dispersion(set)
    }

    /// Total marginal gain `φ_u(S) = f_u(S) + λ·d_u(S)` for `u ∉ S`.
    pub fn marginal(&self, u: ElementId, set: &[ElementId]) -> f64 {
        self.quality.marginal(u, set) + self.lambda * self.metric.distance_to_set(u, set)
    }

    /// The non-oblivious potential of Theorem 1:
    /// `φ'_u(S) = ½·f_u(S) + λ·d_u(S)`.
    ///
    /// Greedy B maximizes this instead of `φ_u`; the ½ factor is what makes
    /// the telescoping argument in the proof of Theorem 1 close.
    pub fn potential(&self, u: ElementId, set: &[ElementId]) -> f64 {
        0.5 * self.quality.marginal(u, set) + self.lambda * self.metric.distance_to_set(u, set)
    }

    /// Swap gain `φ(S − v + u) − φ(S)` for `v ∈ S`, `u ∉ S`.
    ///
    /// Computed incrementally:
    /// `Δφ = f(S−v+u) − f(S) + λ·(d_u(S) − d(u,v) − d_v(S))`.
    pub fn swap_gain(&self, u: ElementId, v: ElementId, set: &[ElementId]) -> f64 {
        let df = self.quality.swap_gain(u, v, set);
        let dd = self.metric.distance_to_set(u, set)
            - self.metric.distance(u, v)
            - self.metric.distance_to_set(v, set);
        df + self.lambda * dd
    }
}

#[cfg(test)]
impl<M: Metric + Clone, F: SetFunction + Clone> DiversificationProblem<M, F> {
    /// A copy of the instance that scans on a fresh forced pool of
    /// `threads` threads (`1` is the serial traversal).
    pub(crate) fn on_pool(&self, threads: usize) -> Self {
        self.clone()
            .with_scan_pool(Arc::new(ScanPool::new(threads)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_metric::DistanceMatrix;
    use msd_submodular::ModularFunction;

    /// 4 elements on a line at positions 0, 1, 2, 4; weights 1, 2, 3, 4.
    fn instance() -> DiversificationProblem<DistanceMatrix, ModularFunction> {
        let pos = [0.0_f64, 1.0, 2.0, 4.0];
        let metric = DistanceMatrix::from_points(&pos, |a, b| (a - b).abs());
        let quality = ModularFunction::new(vec![1.0, 2.0, 3.0, 4.0]);
        DiversificationProblem::new(metric, quality, 0.5)
    }

    #[test]
    fn objective_combines_quality_and_dispersion() {
        let p = instance();
        // S = {0, 3}: f = 5, d = 4, φ = 5 + 0.5·4 = 7.
        assert_eq!(p.objective(&[0, 3]), 7.0);
        assert_eq!(p.quality_value(&[0, 3]), 5.0);
        assert_eq!(p.dispersion(&[0, 3]), 4.0);
        assert_eq!(p.objective(&[]), 0.0);
    }

    #[test]
    fn marginal_matches_objective_difference() {
        let p = instance();
        let base = &[0u32, 1];
        for u in 2..4u32 {
            let mut with = base.to_vec();
            with.push(u);
            let expected = p.objective(&with) - p.objective(base);
            assert!((p.marginal(u, base) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn potential_halves_the_quality_component() {
        let p = instance();
        let set = &[0u32];
        // f_2(S) = 3, d_2(S) = 2 → φ' = 1.5 + 0.5·2 = 2.5
        assert!((p.potential(2, set) - 2.5).abs() < 1e-12);
        // φ = 3 + 1 = 4
        assert!((p.marginal(2, set) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn swap_gain_matches_objective_difference() {
        let p = instance();
        let set = &[0u32, 2];
        for u in [1u32, 3] {
            for &v in set {
                let swapped: Vec<ElementId> = set
                    .iter()
                    .copied()
                    .filter(|&x| x != v)
                    .chain(std::iter::once(u))
                    .collect();
                let expected = p.objective(&swapped) - p.objective(set);
                assert!(
                    (p.swap_gain(u, v, set) - expected).abs() < 1e-12,
                    "swap {u}<->{v}"
                );
            }
        }
    }

    #[test]
    fn lambda_zero_reduces_to_pure_quality() {
        let pos = [0.0_f64, 5.0];
        let metric = DistanceMatrix::from_points(&pos, |a, b| (a - b).abs());
        let p = DiversificationProblem::new(metric, ModularFunction::new(vec![1.0, 2.0]), 0.0);
        assert_eq!(p.objective(&[0, 1]), 3.0);
    }

    #[test]
    fn accessors_and_mutators() {
        let mut p = instance();
        assert_eq!(p.ground_size(), 4);
        assert_eq!(p.lambda(), 0.5);
        assert_eq!(p.quality().weight(3), 4.0);
        p.quality_mut().set_weight(3, 10.0);
        assert_eq!(p.quality().weight(3), 10.0);
        p.metric_mut().set(0, 1, 9.0);
        assert_eq!(p.metric().distance(1, 0), 9.0);
    }

    #[test]
    #[should_panic(expected = "share a ground set")]
    fn mismatched_sizes_rejected() {
        let metric = DistanceMatrix::zeros(3);
        let quality = ModularFunction::new(vec![1.0]);
        let _ = DiversificationProblem::new(metric, quality, 1.0);
    }

    #[test]
    #[should_panic(expected = "lambda must be finite and non-negative")]
    fn negative_lambda_rejected() {
        let _ = DiversificationProblem::new(
            DistanceMatrix::zeros(1),
            ModularFunction::new(vec![1.0]),
            -1.0,
        );
    }
}
