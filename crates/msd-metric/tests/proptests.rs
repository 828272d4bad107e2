//! Property tests for the metric substrate's data-structure invariants.

use msd_metric::{
    relaxation_parameter, DistanceMatrix, GollapudiSharmaMetric, Metric, MetricAudit, ScaledMetric,
    StarWeightMetric, WeightedGraph,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flat upper-triangular layout is a faithful symmetric store.
    #[test]
    fn matrix_set_get_roundtrip(
        n in 2usize..20,
        writes in prop::collection::vec((0u32..20, 0u32..20, 0.0f64..100.0), 1..40),
    ) {
        let mut m = DistanceMatrix::zeros(n);
        let mut reference = std::collections::HashMap::new();
        for (u, v, d) in writes {
            let (u, v) = (u % n as u32, v % n as u32);
            if u == v {
                continue;
            }
            m.set(u, v, d);
            reference.insert((u.min(v), u.max(v)), d);
        }
        for (&(u, v), &d) in &reference {
            prop_assert_eq!(m.distance(u, v), d);
            prop_assert_eq!(m.distance(v, u), d);
        }
        for u in 0..n as u32 {
            prop_assert_eq!(m.distance(u, u), 0.0);
        }
    }

    /// Dispersion identities: d(S ∪ T) = d(S) + d(T) + d(S, T) for
    /// disjoint S, T.
    #[test]
    fn dispersion_decomposes_over_disjoint_union(
        raw in prop::collection::vec(0.0f64..10.0, 45),
        split in 0usize..10,
    ) {
        let n = 10usize;
        let mut it = raw.into_iter().cycle();
        let m = DistanceMatrix::from_fn(n, |_, _| it.next().unwrap());
        let s: Vec<u32> = (0..split as u32).collect();
        let t: Vec<u32> = (split as u32..n as u32).collect();
        let all: Vec<u32> = (0..n as u32).collect();
        let lhs = m.dispersion(&all);
        let rhs = m.dispersion(&s) + m.dispersion(&t) + m.cross_dispersion(&s, &t);
        prop_assert!((lhs - rhs).abs() < 1e-9);
    }

    /// distance_to_set is additive over set concatenation.
    #[test]
    fn distance_to_set_is_additive(
        raw in prop::collection::vec(0.0f64..5.0, 28),
        u in 0u32..8,
    ) {
        let n = 8usize;
        let mut it = raw.into_iter().cycle();
        let m = DistanceMatrix::from_fn(n, |_, _| it.next().unwrap());
        let a: Vec<u32> = vec![(u + 1) % 8, (u + 2) % 8];
        let b: Vec<u32> = vec![(u + 3) % 8];
        let joint: Vec<u32> = a.iter().chain(&b).copied().collect();
        let lhs = m.distance_to_set(u, &joint);
        let rhs = m.distance_to_set(u, &a) + m.distance_to_set(u, &b);
        prop_assert!((lhs - rhs).abs() < 1e-9);
    }

    /// Distances in [1, 2] always form a metric; relaxation parameter 1.
    #[test]
    fn one_two_band_is_always_metric(
        raw in prop::collection::vec(0.0f64..1.0, 21),
    ) {
        let mut it = raw.into_iter().cycle();
        let m = DistanceMatrix::from_fn(7, |_, _| 1.0 + it.next().unwrap());
        MetricAudit::check(&m).assert_metric();
        let report = relaxation_parameter(&m);
        prop_assert!(report.is_exact_metric());
    }

    /// Scaling preserves metricity and scales dispersion linearly.
    #[test]
    fn scaling_preserves_metric_and_scales_dispersion(
        raw in prop::collection::vec(0.0f64..1.0, 21),
        factor in 0.01f64..50.0,
    ) {
        let mut it = raw.into_iter().cycle();
        let base = DistanceMatrix::from_fn(7, |_, _| 1.0 + it.next().unwrap());
        let scaled = ScaledMetric::new(base.clone(), factor);
        MetricAudit::check(&scaled).assert_metric();
        let set: Vec<u32> = vec![0, 2, 4, 6];
        prop_assert!((scaled.dispersion(&set) - factor * base.dispersion(&set)).abs() < 1e-9);
    }

    /// Star-weight metrics and GS reduction metrics are metrics for any
    /// non-negative inputs.
    #[test]
    fn derived_metrics_are_metrics(
        weights in prop::collection::vec(0.0f64..5.0, 6),
        raw in prop::collection::vec(0.0f64..1.0, 15),
        lambda in 0.0f64..2.0,
    ) {
        let star = StarWeightMetric::new(weights.clone());
        MetricAudit::check(&star).assert_metric();
        let mut it = raw.into_iter().cycle();
        let base = DistanceMatrix::from_fn(6, |_, _| 1.0 + it.next().unwrap());
        let gs = GollapudiSharmaMetric::new(base, weights, lambda);
        MetricAudit::check(&gs).assert_metric();
    }

    /// Shortest-path metrics of random connected graphs are metrics.
    #[test]
    fn shortest_path_metrics_are_metrics(
        extra in prop::collection::vec((0u32..7, 0u32..7, 0.1f64..5.0), 0..10),
        spine in prop::collection::vec(0.1f64..5.0, 6),
    ) {
        let mut g = WeightedGraph::new(7);
        // Spine guarantees connectivity.
        for (i, &w) in spine.iter().enumerate() {
            g.add_edge(i as u32, i as u32 + 1, w);
        }
        for (u, v, w) in extra {
            if u != v {
                g.add_edge(u, v, w);
            }
        }
        let m = g.shortest_path_metric().expect("spine keeps the graph connected");
        MetricAudit::check(&m).assert_metric();
    }

    /// The chunked `accumulate_distances` row kernel is bit-identical to
    /// the scalar per-pair reference on arbitrary ground sizes: full
    /// 8-lane chunks, odd tails of every residue, the single-element
    /// matrix whose rows are empty, and arbitrary pre-filled output
    /// buffers and factors.
    #[test]
    fn chunked_row_kernel_matches_scalar_reference(
        n in 1usize..36,
        u in 0u32..36,
        factor in -3.0f64..3.0,
        raw in prop::collection::vec(0.0f64..10.0, 1..631),
        init in prop::collection::vec(-5.0f64..5.0, 36),
    ) {
        let u = u % n as u32;
        let mut it = raw.into_iter().cycle();
        let m = DistanceMatrix::from_fn(n, |_, _| it.next().unwrap());
        let mut fast = init[..n].to_vec();
        let mut scalar = fast.clone();
        let mut per_pair = fast.clone();
        m.accumulate_distances(u, &mut fast, factor);
        m.accumulate_distances_scalar(u, &mut scalar, factor);
        for v in 0..n as u32 {
            if v != u {
                per_pair[v as usize] += factor * m.distance(u, v);
            }
        }
        // Chunked vs scalar reference: exactly equal, every slot gets one
        // fused multiply-add in both paths.
        prop_assert_eq!(&fast, &scalar);
        // And the reference is itself the naive per-pair sweep.
        prop_assert_eq!(&scalar, &per_pair);
    }

    /// The kernel writes only the `v ≠ u` slots of the first `n` entries:
    /// the diagonal slot and any surplus buffer tail are untouched, for
    /// every chunk/tail split.
    #[test]
    fn row_kernel_touches_only_foreign_slots(
        n in 1usize..24,
        u in 0u32..24,
        surplus in 0usize..5,
        raw in prop::collection::vec(0.5f64..4.0, 1..277),
    ) {
        let u = u % n as u32;
        let mut it = raw.into_iter().cycle();
        let m = DistanceMatrix::from_fn(n, |_, _| it.next().unwrap());
        let sentinel = -123.456;
        let mut buf = vec![sentinel; n + surplus];
        m.accumulate_distances(u, &mut buf, 1.0);
        prop_assert_eq!(buf[u as usize], sentinel, "diagonal slot written");
        for (v, &x) in buf.iter().enumerate().skip(n) {
            prop_assert_eq!(x, sentinel, "surplus slot {} written", v);
        }
        for (v, &x) in buf.iter().enumerate().take(n) {
            if v != u as usize {
                prop_assert_eq!(x, sentinel + m.distance(u, v as u32), "slot {}", v);
            }
        }
    }
}

/// Properties of the implicit point-backed metrics and perturbation
/// overlays: both must be *bit-identical* to the materialized
/// [`DistanceMatrix`] reference — see `implicit`/`overlay` module docs.
mod implicit_metrics {
    use super::*;
    use msd_metric::{OverlayMetric, PerturbableMetric, Point, PointMetric};

    fn point_metrics(coords: &[f64], n: usize, dim: usize) -> Vec<PointMetric> {
        let pts: Vec<Point> = (0..n)
            .map(|u| Point::new(coords[u * dim..(u + 1) * dim].to_vec()))
            .collect();
        vec![PointMetric::euclidean(&pts), PointMetric::cosine(&pts)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Point reads and the block-tiled row kernel match the
        /// materialized matrix bit-for-bit, across odd tails (n not a
        /// multiple of the block), empty rows (n = 1), negative and zero
        /// factors, and both kernels.
        #[test]
        fn tiled_row_kernel_is_bit_identical_to_materialized(
            n in 1usize..27,
            dim in 0usize..6,
            fi in 0usize..5,
            raw in prop::collection::vec(-4.0f64..4.0, 1..163),
        ) {
            let factor = [-2.5f64, -1.0, 0.0, 1.0, 0.375][fi];
            let mut it = raw.into_iter().cycle();
            let coords: Vec<f64> = (0..n * dim).map(|_| it.next().unwrap()).collect();
            for metric in point_metrics(&coords, n, dim) {
                let dense = DistanceMatrix::from_metric(&metric);
                for u in 0..n as u32 {
                    let mut got = vec![0.25; n + 2];
                    let mut want = vec![0.25; n + 2];
                    metric.accumulate_distances(u, &mut got, factor);
                    dense.accumulate_distances(u, &mut want, factor);
                    prop_assert_eq!(&got, &want, "row {}", u);
                    for v in 0..n as u32 {
                        prop_assert_eq!(metric.distance(u, v), dense.distance(u, v));
                    }
                }
            }
        }

        /// An overlay over an implicit metric equals a materialized matrix
        /// with the same `set` calls applied — reads and row kernel alike.
        #[test]
        fn overlay_matches_perturbed_materialized_matrix(
            n in 2usize..20,
            edits in prop::collection::vec((0u32..20, 0u32..20, 0.0f64..9.0), 0..24),
            fi in 0usize..3,
            raw in prop::collection::vec(-2.0f64..2.0, 1..81),
        ) {
            let factor = [-1.0f64, 1.0, 2.25][fi];
            let dim = 2usize;
            let mut it = raw.into_iter().cycle();
            let coords: Vec<f64> = (0..n * dim).map(|_| it.next().unwrap()).collect();
            for base in point_metrics(&coords, n, dim) {
                let mut dense = DistanceMatrix::from_metric(&base);
                let mut overlay = OverlayMetric::new(base);
                for &(u, v, d) in &edits {
                    let (u, v) = (u % n as u32, v % n as u32);
                    if u == v {
                        continue;
                    }
                    let prev_dense = dense.distance(u, v);
                    dense.set(u, v, d);
                    prop_assert_eq!(overlay.set_distance(u, v, d), prev_dense);
                }
                for u in 0..n as u32 {
                    let mut got = vec![-0.5; n];
                    let mut want = vec![-0.5; n];
                    overlay.accumulate_distances(u, &mut got, factor);
                    dense.accumulate_distances(u, &mut want, factor);
                    prop_assert_eq!(&got, &want, "row {}", u);
                    for v in 0..n as u32 {
                        prop_assert_eq!(overlay.distance(u, v), dense.distance(u, v));
                    }
                }
            }
        }
    }
}
