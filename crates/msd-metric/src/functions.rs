//! Standard metrics over point sets and graphs.
//!
//! These adapters wrap a slice of [`Point`]s (or an adjacency structure)
//! into the [`Metric`] trait. For hot loops prefer materializing them into a
//! [`DistanceMatrix`](crate::DistanceMatrix) via
//! [`DistanceMatrix::from_metric`](crate::DistanceMatrix::from_metric);
//! these lazy wrappers recompute the kernel on every call.

use crate::{ElementId, Metric, Point};

/// Euclidean (ℓ2) metric over a point set.
///
/// This wrapper checks nothing: a non-finite coordinate, or finite ones
/// near `1e154` in magnitude and up, yield NaN or `+∞` distances, which
/// break the [`Metric`] contract. It stays unchecked because it is the
/// reference [`PointMetric`](crate::PointMetric) is tested against bit
/// for bit; `PointMetric` rejects such rows at construction.
#[derive(Debug, Clone)]
pub struct EuclideanMetric {
    points: Vec<Point>,
}

impl EuclideanMetric {
    /// Wraps a point set.
    pub fn new(points: Vec<Point>) -> Self {
        Self { points }
    }

    /// The underlying points.
    pub fn points(&self) -> &[Point] {
        &self.points
    }
}

impl Metric for EuclideanMetric {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn distance(&self, u: ElementId, v: ElementId) -> f64 {
        self.points[u as usize].euclidean(&self.points[v as usize])
    }
}

/// Manhattan (ℓ1) metric over a point set.
///
/// Fekete and Meijer study max-sum dispersion under exactly this metric
/// (referenced in the paper's conclusion); it is provided so their geometric
/// regime can be exercised.
#[derive(Debug, Clone)]
pub struct ManhattanMetric {
    points: Vec<Point>,
}

impl ManhattanMetric {
    /// Wraps a point set.
    pub fn new(points: Vec<Point>) -> Self {
        Self { points }
    }
}

impl Metric for ManhattanMetric {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn distance(&self, u: ElementId, v: ElementId) -> f64 {
        self.points[u as usize].manhattan(&self.points[v as usize])
    }
}

/// Chebyshev (ℓ∞) metric over a point set.
#[derive(Debug, Clone)]
pub struct ChebyshevMetric {
    points: Vec<Point>,
}

impl ChebyshevMetric {
    /// Wraps a point set.
    pub fn new(points: Vec<Point>) -> Self {
        Self { points }
    }
}

impl Metric for ChebyshevMetric {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn distance(&self, u: ElementId, v: ElementId) -> f64 {
        self.points[u as usize].chebyshev(&self.points[v as usize])
    }
}

/// Cosine distance `1 − cos(u, v)` over a point set.
///
/// This is the document distance used by the paper's LETOR experiments
/// (Section 7.2). Note that cosine distance is a *semi*-metric: the triangle
/// inequality can fail by a bounded factor. The paper's algorithms still
/// apply empirically, and the relaxed-metric analysis of
/// [`crate::relaxed`] quantifies the violation.
///
/// Like [`EuclideanMetric`], this reference wrapper checks nothing:
/// non-finite or very large coordinates (a dot product that overflows)
/// yield NaN distances. [`PointMetric`](crate::PointMetric) rejects such
/// rows at construction.
#[derive(Debug, Clone)]
pub struct CosineMetric {
    points: Vec<Point>,
}

impl CosineMetric {
    /// Wraps a point set.
    pub fn new(points: Vec<Point>) -> Self {
        Self { points }
    }
}

impl Metric for CosineMetric {
    fn len(&self) -> usize {
        self.points.len()
    }

    fn distance(&self, u: ElementId, v: ElementId) -> f64 {
        self.points[u as usize].cosine_distance(&self.points[v as usize])
    }
}

/// The `{1, 2}` metric induced by a graph: adjacent pairs are at distance 1,
/// non-adjacent pairs at distance 2.
///
/// Any `{1,2}`-valued symmetric function with zero diagonal satisfies the
/// triangle inequality, which is why this family is the source of the
/// paper's hardness evidence (Section 3, via planted clique): the reduction
/// embeds a graph into exactly this metric. The synthetic workloads of
/// Section 7.1 draw distances from `[1, 2]` for the same reason.
#[derive(Debug, Clone)]
pub struct OneTwoMetric {
    n: usize,
    /// Flat upper-triangular adjacency; `true` means distance 1.
    adjacent: Vec<bool>,
}

impl OneTwoMetric {
    /// Builds from an edge list; absent pairs get distance 2.
    ///
    /// # Panics
    ///
    /// Panics on self-loops or out-of-range endpoints.
    pub fn from_edges(n: usize, edges: &[(ElementId, ElementId)]) -> Self {
        let mut adjacent = vec![false; n * n.saturating_sub(1) / 2];
        for &(u, v) in edges {
            assert!(u != v, "self-loop at {u}");
            assert!((u as usize) < n && (v as usize) < n, "edge out of range");
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            let (a, b) = (a as usize, b as usize);
            adjacent[a * n - a * (a + 1) / 2 + (b - a - 1)] = true;
        }
        Self { n, adjacent }
    }

    /// `true` if `u` and `v` are at distance 1.
    pub fn is_adjacent(&self, u: ElementId, v: ElementId) -> bool {
        if u == v {
            return false;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        let (a, b) = (a as usize, b as usize);
        self.adjacent[a * self.n - a * (a + 1) / 2 + (b - a - 1)]
    }
}

impl Metric for OneTwoMetric {
    fn len(&self) -> usize {
        self.n
    }

    fn distance(&self, u: ElementId, v: ElementId) -> f64 {
        if u == v {
            0.0
        } else if self.is_adjacent(u, v) {
            1.0
        } else {
            2.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::MetricAudit;

    fn square() -> Vec<Point> {
        vec![
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![1.0, 0.0]),
            Point::new(vec![1.0, 1.0]),
            Point::new(vec![0.0, 1.0]),
        ]
    }

    #[test]
    fn euclidean_metric_on_unit_square() {
        let m = EuclideanMetric::new(square());
        assert_eq!(m.len(), 4);
        assert_eq!(m.distance(0, 1), 1.0);
        assert!((m.distance(0, 2) - 2f64.sqrt()).abs() < 1e-12);
        assert!(MetricAudit::check(&m).is_metric());
    }

    #[test]
    fn manhattan_metric_on_unit_square() {
        let m = ManhattanMetric::new(square());
        assert_eq!(m.distance(0, 2), 2.0);
        assert!(MetricAudit::check(&m).is_metric());
    }

    #[test]
    fn chebyshev_metric_on_unit_square() {
        let m = ChebyshevMetric::new(square());
        assert_eq!(m.distance(0, 2), 1.0);
        assert!(MetricAudit::check(&m).is_metric());
    }

    #[test]
    fn cosine_metric_values() {
        let m = CosineMetric::new(vec![
            Point::new(vec![1.0, 0.0]),
            Point::new(vec![0.0, 1.0]),
            Point::new(vec![1.0, 1.0]),
        ]);
        assert!((m.distance(0, 1) - 1.0).abs() < 1e-12);
        assert!((m.distance(0, 2) - (1.0 - 1.0 / 2f64.sqrt())).abs() < 1e-12);
    }

    #[test]
    fn one_two_metric_from_edges() {
        let m = OneTwoMetric::from_edges(4, &[(0, 1), (2, 1)]);
        assert_eq!(m.distance(0, 1), 1.0);
        assert_eq!(m.distance(1, 2), 1.0);
        assert_eq!(m.distance(0, 2), 2.0);
        assert_eq!(m.distance(3, 0), 2.0);
        assert_eq!(m.distance(2, 2), 0.0);
    }

    #[test]
    fn one_two_metric_always_satisfies_triangle_inequality() {
        // Every {1,2} metric is a metric: 1 + 1 >= 2.
        let m = OneTwoMetric::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        assert!(MetricAudit::check(&m).is_metric());
    }

    #[test]
    fn one_two_adjacency_is_symmetric() {
        let m = OneTwoMetric::from_edges(3, &[(2, 0)]);
        assert!(m.is_adjacent(0, 2));
        assert!(m.is_adjacent(2, 0));
        assert!(!m.is_adjacent(1, 1));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let _ = OneTwoMetric::from_edges(3, &[(1, 1)]);
    }

    #[test]
    fn euclidean_points_accessor() {
        let m = EuclideanMetric::new(square());
        assert_eq!(m.points().len(), 4);
    }
}
