//! The certified bound behind `quality_ratio` must never fall below the
//! exact optimum.

use max_sum_diversification::core::{exact_max_diversification, DiversificationProblem};
use max_sum_diversification::metric::{DistanceMatrix, ElementId, Metric};
use max_sum_diversification::submodular::{CoverageFunction, ModularFunction, SetFunction};
use perfbench::bound::certified_upper_bound;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Euclidean distances between random points in the unit square.
fn random_metric(rng: &mut StdRng, n: usize) -> DistanceMatrix {
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
        .collect();
    DistanceMatrix::from_points(&points, |a, b| {
        ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
    })
}

fn random_coverage(rng: &mut StdRng, n: usize, topics: usize) -> CoverageFunction {
    let covers = (0..n)
        .map(|_| (0..topics as u32).filter(|_| rng.gen_bool(0.35)).collect())
        .collect();
    let weights = (0..topics).map(|_| rng.gen_range(0.1..2.0)).collect();
    CoverageFunction::new(covers, weights)
}

fn assert_bound_holds<F: SetFunction>(metric: DistanceMatrix, quality: F, lambda: f64, p: usize) {
    let all: Vec<ElementId> = (0..metric.len() as ElementId).collect();
    let ub = certified_upper_bound(&metric, &quality, lambda, p, &all);
    let problem = DiversificationProblem::new(metric, quality, lambda);
    let opt = exact_max_diversification(&problem, p).objective;
    assert!(
        ub >= opt * (1.0 - 1e-12),
        "UB {ub} below OPT {opt} (p = {p}, lambda = {lambda})"
    );
}

#[test]
fn bound_dominates_the_optimum_for_modular_quality() {
    let mut rng = StdRng::seed_from_u64(7);
    for n in [6usize, 9, 12] {
        for p in 1..=5 {
            for lambda in [0.0, 0.3, 1.0, 3.0] {
                let metric = random_metric(&mut rng, n);
                let quality =
                    ModularFunction::new((0..n).map(|_| rng.gen_range(0.0..1.0)).collect());
                assert_bound_holds(metric, quality, lambda, p);
            }
        }
    }
}

#[test]
fn bound_dominates_the_optimum_for_coverage_quality() {
    let mut rng = StdRng::seed_from_u64(11);
    for n in [6usize, 9, 12] {
        for p in 1..=5 {
            for lambda in [0.0, 0.3, 1.0, 3.0] {
                let metric = random_metric(&mut rng, n);
                let quality = random_coverage(&mut rng, n, 8);
                assert_bound_holds(metric, quality, lambda, p);
            }
        }
    }
}

#[test]
fn bound_is_tight_when_every_distance_is_equal() {
    // With all distances 1 and uniform weights every p-set is optimal:
    // OPT = p·w + λ·p(p−1)/2, and the bound gives p·(w + λ(p−1)/2).
    let n = 8;
    let metric = DistanceMatrix::from_fn(n, |_, _| 1.0);
    let quality = ModularFunction::uniform(n, 0.5);
    let all: Vec<ElementId> = (0..n as ElementId).collect();
    let ub = certified_upper_bound(&metric, &quality, 2.0, 4, &all);
    assert_eq!(ub, 4.0 * 0.5 + 2.0 * 6.0);
}
