//! Oracle-complexity tests: the algorithms issue the number of
//! value-oracle queries their analyses promise.
//!
//! Section 4 closes with the `O(np)` bound for Greedy B; these tests pin
//! it (and the O(n·p) marginal-call budget of one local-search scan) via
//! [`CountingOracle`], guarding against accidental quadratic regressions.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use msd_core::{
    greedy_b, local_search_refine, DiversificationProblem, GreedyBConfig, LocalSearchConfig,
};
use msd_metric::{DistanceMatrix, ElementId, Metric};
use msd_submodular::{CountingOracle, ModularFunction};

/// Counts every distance read; the default row kernels route through
/// `distance`, so cache builds and updates are counted too.
struct ReadCounter {
    inner: DistanceMatrix,
    reads: AtomicU64,
}

impl Metric for ReadCounter {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn distance(&self, u: ElementId, v: ElementId) -> f64 {
        self.reads.fetch_add(1, Relaxed);
        self.inner.distance(u, v)
    }
}

fn instance(n: usize) -> DiversificationProblem<DistanceMatrix, CountingOracle<ModularFunction>> {
    let weights: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37) % 1.0).collect();
    let metric = DistanceMatrix::from_fn(n, |u, v| 1.0 + f64::from(u * 31 + v) % 100.0 / 100.0);
    DiversificationProblem::new(
        metric,
        CountingOracle::new(ModularFunction::new(weights)),
        0.2,
    )
}

#[test]
fn greedy_b_issues_at_most_np_marginal_queries() {
    for (n, p) in [(30usize, 5usize), (60, 10), (100, 7)] {
        let problem = instance(n);
        problem.quality().reset();
        let s = greedy_b(&problem, p, GreedyBConfig::default());
        assert_eq!(s.len(), p);
        let marginals = problem.quality().marginal_calls();
        assert!(
            marginals <= (n * p) as u64,
            "n={n} p={p}: {marginals} marginal calls exceed n*p"
        );
        assert_eq!(
            problem.quality().value_calls(),
            0,
            "greedy needs no full evaluations"
        );
    }
}

#[test]
fn best_pair_start_adds_at_most_n_squared_value_queries() {
    let n = 40;
    let p = 6;
    let problem = instance(n);
    problem.quality().reset();
    let _ = greedy_b(
        &problem,
        p,
        GreedyBConfig {
            best_pair_start: true,
        },
    );
    let values = problem.quality().value_calls();
    assert!(
        values <= (n * (n - 1) / 2) as u64,
        "{values} value calls exceed the pair-scan budget"
    );
}

#[test]
fn one_local_search_scan_is_linear_in_n_times_p() {
    let n = 50;
    let p = 6;
    let problem = instance(n);
    let init: Vec<u32> = (0..p as u32).collect();
    problem.quality().reset();
    let r = local_search_refine(
        &problem,
        &init,
        LocalSearchConfig {
            max_swaps: 1,
            ..LocalSearchConfig::default()
        },
    );
    // One best-improvement scan = at most (n-p)·p swap-gain queries
    // (counted as marginal calls by the oracle), plus p marginals to seed
    // the incremental quality oracle, plus O(1) bookkeeping evaluations.
    let budget = ((n - p) * p) as u64 + p as u64 + 4;
    let used = problem.quality().marginal_calls() + problem.quality().value_calls();
    assert!(
        used <= budget,
        "single LS scan used {used} oracle calls, budget {budget} (swaps: {})",
        r.swaps
    );
}

#[test]
fn modular_swap_gains_need_no_value_oracle() {
    // ModularFunction overrides swap_gain with the O(1) weight formula;
    // the local search must route through it rather than evaluating sets.
    let n = 30;
    let problem = instance(n);
    let init: Vec<u32> = (0..5).collect();
    problem.quality().reset();
    let _ = local_search_refine(&problem, &init, LocalSearchConfig::default());
    assert!(
        problem.quality().value_calls() <= 8,
        "local search should not materialize full evaluations for modular quality, got {}",
        problem.quality().value_calls()
    );
}

#[test]
fn pruned_scan_skips_the_distance_reads_of_losing_pairs() {
    // One dominant swap: outsider p (the first one scanned) carries a
    // weight no other swap comes near, so once its pairs are read, every
    // later pair's distance-free bound falls below the incumbent.
    let (n, p) = (60usize, 6usize);
    let weights: Vec<f64> = (0..n).map(|i| if i == p { 100.0 } else { 1.0 }).collect();
    let metric = DistanceMatrix::from_fn(n, |u, v| 1.0 + f64::from(u * 31 + v) % 100.0 / 100.0);
    let problem = DiversificationProblem::new(
        ReadCounter {
            inner: metric,
            reads: AtomicU64::new(0),
        },
        ModularFunction::new(weights),
        0.2,
    );
    let init: Vec<u32> = (0..p as u32).collect();
    let r = local_search_refine(
        &problem,
        &init,
        LocalSearchConfig {
            max_swaps: 1,
            ..LocalSearchConfig::default()
        },
    );
    assert_eq!(r.swaps, 1);
    assert!(r.set.contains(&(p as u32)), "dominant swap not taken");
    let reads = problem.metric().reads.load(Relaxed);
    // Outside the scan: the gain-cache build (p inserts) and the swap
    // update (one remove, one insert), each reading the other n − 1
    // distances, and two objective evaluations of p(p−1)/2 reads each.
    let outside = ((p + 2) * (n - 1) + p * (p - 1)) as u64;
    let scan_pairs = ((n - p) * p) as u64;
    assert!(
        reads <= outside + scan_pairs / 2,
        "{reads} distance reads: the scan read {} of its {scan_pairs} pairs",
        reads.saturating_sub(outside)
    );
}
