//! Incremental APSP repair on edge weights whose path sums round.
//!
//! The `graph_equivalence` suite in `msd-bench` pins repair ≡ rebuild bit
//! for bit, but only on dyadic weights, where every path sum is exact and
//! ties are exact ties. Real road weights are not dyadic: two equal-length
//! routes can sum to values a few ulps apart, so an exact `==` tightness
//! test can miss a shortest path that runs over the updated edge and
//! leave a stale, too-short distance behind. This suite drives random
//! increase, decrease, insert and remove scripts on weights drawn from
//! `U[0.1, 3)` and asserts, after every update, that the repaired matrix
//! matches a from-scratch Floyd–Warshall rebuild within `1e-12` relative.

use max_sum_diversification::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest accepted relative gap between a repaired and a rebuilt
/// distance: far above the ulps two summation orders produce, far below
/// any real reroute.
const REL_TOL: f64 = 1e-12;

/// Spanning path plus `chords` random chords, weights in `U[0.1, 3)`.
fn random_graph(rng: &mut StdRng, n: usize, chords: usize) -> WeightedGraph {
    let mut g = WeightedGraph::new(n);
    for i in 1..n {
        g.add_edge((i - 1) as u32, i as u32, rng.gen_range(0.1..3.0));
    }
    for _ in 0..chords {
        let (u, v) = random_pair(rng, n);
        g.set_edge(u, v, rng.gen_range(0.1..3.0));
    }
    g
}

fn random_pair(rng: &mut StdRng, n: usize) -> (u32, u32) {
    let u = rng.gen_range(0..n) as u32;
    let mut v = rng.gen_range(0..n) as u32;
    while v == u {
        v = rng.gen_range(0..n) as u32;
    }
    (u, v)
}

fn assert_matches_rebuild(metric: &DynamicGraphMetric, mirror: &WeightedGraph, context: &str) {
    let rebuilt = mirror
        .shortest_path_metric()
        .expect("mirror stays connected");
    let n = metric.len() as u32;
    for i in 0..n {
        for j in (i + 1)..n {
            let (got, want) = (metric.distance(i, j), rebuilt.distance(i, j));
            assert!(
                (got - want).abs() <= REL_TOL * want,
                "{context}: d({i},{j}) repaired to {got}, rebuild gives {want}"
            );
        }
    }
}

#[test]
fn repair_tracks_rebuild_on_non_dyadic_weights() {
    let n = 40;
    // Counts of increases, decreases, insertions and removals applied.
    let mut kinds = [0usize; 4];
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7919) + 3);
        let mut mirror = random_graph(&mut rng, n, 30);
        let mut metric = DynamicGraphMetric::from_graph(&mirror).expect("connected by the path");
        assert_matches_rebuild(&metric, &mirror, &format!("seed {seed}: construction"));
        for step in 0..500 {
            let edges = metric.edges();
            let roll = rng.gen_range(0..100u32);
            let (u, v, w) = edges[rng.gen_range(0..edges.len())];
            if roll < 40 {
                let weight = w * rng.gen_range(1.0..4.0);
                metric.set_edge(u, v, weight).expect("valid weight");
                mirror.set_edge(u, v, weight);
                kinds[0] += 1;
            } else if roll < 75 {
                let weight = w * rng.gen_range(0.2..1.0);
                metric.set_edge(u, v, weight).expect("valid weight");
                mirror.set_edge(u, v, weight);
                kinds[1] += 1;
            } else if roll < 85 {
                let (a, b) = random_pair(&mut rng, n);
                if metric.edge_weight(a, b).is_none() {
                    let weight = rng.gen_range(0.1..3.0);
                    metric.set_edge(a, b, weight).expect("valid weight");
                    mirror.set_edge(a, b, weight);
                    kinds[2] += 1;
                }
            } else if metric.remove_edge(u, v).is_ok() {
                mirror.remove_edge(u, v);
                kinds[3] += 1;
            }
            assert_matches_rebuild(&metric, &mirror, &format!("seed {seed} step {step}"));
        }
    }
    assert!(
        kinds.iter().all(|&k| k > 0),
        "every update kind must run: {kinds:?}"
    );
}
