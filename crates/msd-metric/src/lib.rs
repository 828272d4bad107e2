//! Metric-space substrate for max-sum diversification.
//!
//! The algorithms of Borodin et al. (PODS 2012) operate over a finite ground
//! set `U = {0, 1, ..., n-1}` equipped with a metric distance `d(·,·)`.
//! This crate provides:
//!
//! * [`Metric`] — the distance oracle trait used by every algorithm,
//! * [`DistanceMatrix`] — a dense, cache-friendly precomputed metric stored
//!   as a flat upper-triangular buffer,
//! * [`point`] — dense Euclidean points and the vector kernels used to build
//!   metrics from feature embeddings,
//! * [`functions`] — standard metrics (Euclidean, Manhattan, Chebyshev,
//!   cosine distance, the `{1,2}` metric central to the paper's hardness
//!   discussion),
//! * [`implicit`] — compute-on-demand point-backed metrics (Euclidean /
//!   cosine) whose block-tiled row kernel is bit-identical to the
//!   materialized matrix while using `O(n·dim)` memory, breaking the `n²`
//!   wall for `n = 10⁵–10⁶` ground sets,
//! * [`overlay`] — sparse perturbation overlays that give *any* base metric
//!   a [`PerturbableMetric`] implementation (the dynamic engine's route to
//!   perturbing implicit metrics),
//! * [`restricted`] — sub-universe views under a local id remap (the
//!   building block of the composable/sharded distributed paths),
//! * [`graph`] — all-pairs shortest-path metrics of weighted networks,
//!   the location-theory setting the dispersion literature starts from,
//! * [`dynamic_graph`] — graph metrics under *edge-weight updates*:
//!   incremental APSP repair with per-update change reports, the
//!   perturbation model of network-sourced dynamic instances,
//! * [`derived`] — metric-preserving transformations, including the
//!   Gollapudi–Sharma reduction metric `w(u) + w(v) + 2λ·d(u,v)`,
//! * [`relaxed`] — α-relaxed triangle inequalities (Sydow's `2α` regime,
//!   discussed in the paper's conclusion), and
//! * [`validate`] — auditing utilities that verify metric axioms, used
//!   heavily by the test suites of the downstream crates.
//!
//! # Conventions
//!
//! Ground-set elements are identified by `u32` indices. Distances are `f64`
//! and must be non-negative and symmetric; `d(u, u) = 0`. All functions in
//! this workspace treat the distance oracle as the ground truth — algorithms
//! never recompute distances from raw features.

pub mod derived;
pub mod dynamic_graph;
pub mod functions;
pub mod graph;
pub mod implicit;
pub mod matrix;
pub mod overlay;
pub mod point;
pub mod relaxed;
pub mod restricted;
pub mod validate;

pub use derived::{GollapudiSharmaMetric, ScaledMetric, StarWeightMetric};
pub use dynamic_graph::{
    DistanceChange, DynamicGraphMetric, EdgePerturbableMetric, EdgeUpdateError, EdgeUpdateReport,
    RepairStrategy,
};
pub use graph::{DisconnectedGraph, WeightedGraph};
pub use implicit::{PointKernel, PointMetric, TileCacheStats};
pub use matrix::{DistanceMatrix, DistanceMatrixBuilder};
pub use overlay::OverlayMetric;
pub use point::Point;
pub use relaxed::{relaxation_parameter, RelaxedMetricReport};
pub use restricted::RestrictedMetric;
pub use validate::{MetricAudit, MetricViolation};

/// Identifier of a ground-set element.
///
/// Elements are dense indices `0..n`. Using `u32` keeps per-element state
/// small (see the type-size guidance in the Rust perf book); ground sets of
/// more than `u32::MAX` elements are far beyond the quadratic-distance
/// regime these algorithms target.
pub type ElementId = u32;

/// A finite metric (or semi-metric) over ground set `{0, .., len-1}`.
///
/// Implementations must guarantee:
///
/// * `distance(u, u) == 0.0`
/// * `distance(u, v) == distance(v, u)`
/// * `distance(u, v) >= 0.0` and finite
///
/// The triangle inequality is required by the approximation guarantees of
/// the paper (Theorems 1 and 2) but not by the code itself; the relaxed
/// `α`-metric setting of [`relaxed`] is explicitly supported. Use
/// [`validate::MetricAudit`] to check axioms.
///
/// The code does rely on `d ≥ 0`: the local search's pruned swap scans
/// skip the read of `d(u, v)` for any pair whose swap gain, bounded with
/// `d(u, v) = 0`, cannot beat the incumbent. [`DistanceMatrix::from_fn`]
/// and [`DistanceMatrix::set`] do not check the sign, so a matrix with a
/// negative entry may make such a scan pick a different winner than an
/// unpruned one would; [`validate::MetricAudit`] reports those entries.
pub trait Metric {
    /// Number of elements in the ground set.
    fn len(&self) -> usize;

    /// `true` when the ground set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Distance between two elements.
    ///
    /// # Panics
    ///
    /// May panic if `u` or `v` is out of range.
    fn distance(&self, u: ElementId, v: ElementId) -> f64;

    /// Sum of distances from `u` to every element of `set`.
    ///
    /// This is the marginal dispersion gain `d_u(S)` of the paper. The
    /// default implementation is a straight sweep over the set.
    fn distance_to_set(&self, u: ElementId, set: &[ElementId]) -> f64 {
        set.iter().map(|&v| self.distance(u, v)).sum()
    }

    /// Total dispersion `d(S) = Σ_{ {u,v} ⊆ S } d(u,v)` of a subset.
    fn dispersion(&self, set: &[ElementId]) -> f64 {
        let mut total = 0.0;
        for (i, &u) in set.iter().enumerate() {
            for &v in &set[i + 1..] {
                total += self.distance(u, v);
            }
        }
        total
    }

    /// Sum of all cross distances `d(X, Y) = Σ_{u ∈ X, v ∈ Y} d(u,v)` between
    /// two disjoint subsets.
    fn cross_dispersion(&self, xs: &[ElementId], ys: &[ElementId]) -> f64 {
        let mut total = 0.0;
        for &u in xs {
            for &v in ys {
                total += self.distance(u, v);
            }
        }
        total
    }

    /// Batched row kernel: `out[v] += factor · d(u, v)` for every `v ≠ u`.
    ///
    /// This is the inner sweep of the Birnbaum–Goldman gain cache
    /// (`SolutionState` in `msd-core` calls it once per insert/remove with
    /// `factor = ±1`). The default walks the distance oracle element by
    /// element; [`DistanceMatrix`] overrides it with a direct traversal of
    /// its triangular storage, avoiding per-pair index arithmetic.
    ///
    /// # Panics
    ///
    /// May panic if `out.len() < self.len()` or `u` is out of range.
    fn accumulate_distances(&self, u: ElementId, out: &mut [f64], factor: f64) {
        for v in 0..self.len() as ElementId {
            if v != u {
                out[v as usize] += factor * self.distance(u, v);
            }
        }
    }
}

/// A metric whose pairwise distances can be perturbed in place.
///
/// The dynamic-update setting (Section 6 of the paper) rewrites individual
/// distances between updates. [`set_distance`](Self::set_distance) is the
/// *mutation-with-notification* path: it overwrites `d(u, v)` and returns
/// the previous value, so an incremental consumer (the persistent
/// `DynamicSession` in `msd-core`) learns the exact delta `new − old` from
/// the mutation itself and can repair its Birnbaum–Goldman gain caches in
/// O(1) instead of rebuilding them.
///
/// Implementations must keep the [`Metric`] axioms (symmetry, zero
/// diagonal); preserving the triangle inequality remains the caller's
/// responsibility, as everywhere else in this workspace.
pub trait PerturbableMetric: Metric {
    /// Sets `d(u, v) = d(v, u) = value`, returning the previous distance.
    ///
    /// # Panics
    ///
    /// Panics if `u == v`, either element is out of range, or `value` is
    /// negative or non-finite.
    fn set_distance(&mut self, u: ElementId, v: ElementId, value: f64) -> f64;
}

impl<M: Metric + ?Sized> Metric for &M {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn distance(&self, u: ElementId, v: ElementId) -> f64 {
        (**self).distance(u, v)
    }

    fn distance_to_set(&self, u: ElementId, set: &[ElementId]) -> f64 {
        (**self).distance_to_set(u, set)
    }

    fn dispersion(&self, set: &[ElementId]) -> f64 {
        (**self).dispersion(set)
    }

    fn cross_dispersion(&self, xs: &[ElementId], ys: &[ElementId]) -> f64 {
        (**self).cross_dispersion(xs, ys)
    }

    fn accumulate_distances(&self, u: ElementId, out: &mut [f64], factor: f64) {
        (**self).accumulate_distances(u, out, factor)
    }
}

/// Shared-ownership view of a base metric: any number of consumers (e.g.
/// per-tenant [`OverlayMetric`] sessions in `msd-core`'s serving layer)
/// read one immutable corpus without cloning its `O(n²)` (or `O(n·dim)`)
/// storage. `Arc<M>` has no [`PerturbableMetric`] impl by design — the
/// base is immutable; perturbations belong in a per-consumer
/// [`OverlayMetric`] wrapped around the `Arc`.
impl<M: Metric + ?Sized> Metric for std::sync::Arc<M> {
    #[inline]
    fn len(&self) -> usize {
        (**self).len()
    }

    #[inline]
    fn distance(&self, u: ElementId, v: ElementId) -> f64 {
        (**self).distance(u, v)
    }

    fn distance_to_set(&self, u: ElementId, set: &[ElementId]) -> f64 {
        (**self).distance_to_set(u, set)
    }

    fn dispersion(&self, set: &[ElementId]) -> f64 {
        (**self).dispersion(set)
    }

    fn cross_dispersion(&self, xs: &[ElementId], ys: &[ElementId]) -> f64 {
        (**self).cross_dispersion(xs, ys)
    }

    fn accumulate_distances(&self, u: ElementId, out: &mut [f64], factor: f64) {
        (**self).accumulate_distances(u, out, factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny hand-rolled metric for exercising the default methods.
    struct Line(usize);

    impl Metric for Line {
        fn len(&self) -> usize {
            self.0
        }

        fn distance(&self, u: ElementId, v: ElementId) -> f64 {
            (f64::from(u) - f64::from(v)).abs()
        }
    }

    #[test]
    fn distance_to_set_sums_pairwise_distances() {
        let m = Line(10);
        assert_eq!(m.distance_to_set(0, &[1, 2, 3]), 6.0);
        assert_eq!(m.distance_to_set(5, &[]), 0.0);
    }

    #[test]
    fn dispersion_counts_each_unordered_pair_once() {
        let m = Line(10);
        // pairs: (0,1)=1, (0,3)=3, (1,3)=2  => 6
        assert_eq!(m.dispersion(&[0, 1, 3]), 6.0);
        assert_eq!(m.dispersion(&[4]), 0.0);
        assert_eq!(m.dispersion(&[]), 0.0);
    }

    #[test]
    fn cross_dispersion_is_full_bipartite_sum() {
        let m = Line(10);
        // (0,2)=2 (0,4)=4 (1,2)=1 (1,4)=3 => 10
        assert_eq!(m.cross_dispersion(&[0, 1], &[2, 4]), 10.0);
    }

    #[test]
    fn reference_impl_delegates() {
        let m = Line(4);
        let r: &dyn Metric = &m;
        assert_eq!(r.len(), 4);
        assert_eq!(r.distance(0, 3), 3.0);
    }

    #[test]
    fn empty_metric_reports_empty() {
        let m = Line(0);
        assert!(m.is_empty());
        let m = Line(1);
        assert!(!m.is_empty());
    }
}
