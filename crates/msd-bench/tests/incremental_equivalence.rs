//! Equivalence suite: the incremental-oracle, lazy-greedy and parallel
//! paths must reproduce the slice-recomputing reference implementations
//! (`msd_bench::naive`) *exactly* — same selected sets, same order, same
//! tie-breaks — on seeded random instances across modular, coverage,
//! facility-location and mixture qualities.

use msd_bench::naive::{
    greedy_b_naive, greedy_b_naive_with_config, greedy_b_pairs_naive, local_search_refine_naive,
    oblivious_update_step_naive,
};
use msd_bench::streaming::StreamingDiversifier;
use msd_core::local_search::PivotRule;
use msd_core::{
    greedy_b, greedy_b_pairs, local_search_refine, oblivious_update_step, stream_diversify,
    CompactStreamingSession, DiversificationProblem, ElementId, GreedyBConfig, LocalSearchConfig,
};
use msd_data::SyntheticConfig;
use msd_metric::DistanceMatrix;
use msd_submodular::{CountingOracle, CoverageFunction, FacilityLocationFunction, MixtureFunction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_metric(rng: &mut StdRng, n: usize) -> DistanceMatrix {
    DistanceMatrix::from_fn(n, |_, _| rng.gen_range(1.0..2.0))
}

/// This suite's coverage shape: sparser covers (1–5 of `2n/3 + 1`
/// topics) than the bench shape, exercising more uncovered-topic paths.
fn coverage_instance(
    seed: u64,
    n: usize,
) -> DiversificationProblem<DistanceMatrix, CoverageFunction> {
    msd_bench::support::coverage_instance(seed, n, 2 * n / 3 + 1, 1, 6)
}

/// This suite's facility shape: a dense client pool (`n/2 + 3`), seed
/// salted so facility instances never share streams with coverage ones.
fn facility_instance(
    seed: u64,
    n: usize,
) -> DiversificationProblem<DistanceMatrix, FacilityLocationFunction> {
    msd_bench::support::facility_instance(seed ^ 0xFAC1717, n, n / 2 + 3)
}

fn mixture_instance(
    seed: u64,
    n: usize,
) -> DiversificationProblem<DistanceMatrix, MixtureFunction> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3417);
    let coverage = coverage_instance(seed, n);
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
    let quality = MixtureFunction::new(n)
        .with(0.7, coverage.quality().clone())
        .with(1.3, msd_submodular::ModularFunction::new(weights));
    let metric = random_metric(&mut rng, n);
    DiversificationProblem::new(metric, quality, 0.25)
}

/// Asserts exact equality (content and order) of two selections.
#[track_caller]
fn assert_same(label: &str, got: &[ElementId], want: &[ElementId]) {
    assert_eq!(got, want, "{label}: incremental diverged from reference");
}

#[test]
fn greedy_b_matches_naive_on_modular() {
    for seed in 0..12u64 {
        let problem = SyntheticConfig::paper(50).generate(seed);
        for p in [1usize, 2, 9, 25, 50] {
            assert_same(
                &format!("modular seed {seed} p {p}"),
                &greedy_b(&problem, p, GreedyBConfig::default()),
                &greedy_b_naive(&problem, p),
            );
        }
    }
}

#[test]
fn greedy_b_matches_naive_on_coverage() {
    for seed in 0..10u64 {
        let problem = coverage_instance(seed, 40);
        for p in [2usize, 7, 18] {
            assert_same(
                &format!("coverage seed {seed} p {p}"),
                &greedy_b(&problem, p, GreedyBConfig::default()),
                &greedy_b_naive(&problem, p),
            );
        }
    }
}

#[test]
fn greedy_b_matches_naive_on_facility() {
    for seed in 0..10u64 {
        let problem = facility_instance(seed, 30);
        for p in [2usize, 8, 15] {
            assert_same(
                &format!("facility seed {seed} p {p}"),
                &greedy_b(&problem, p, GreedyBConfig::default()),
                &greedy_b_naive(&problem, p),
            );
        }
    }
}

#[test]
fn greedy_b_matches_naive_on_mixture() {
    for seed in 0..6u64 {
        let problem = mixture_instance(seed, 25);
        for p in [3usize, 10] {
            assert_same(
                &format!("mixture seed {seed} p {p}"),
                &greedy_b(&problem, p, GreedyBConfig::default()),
                &greedy_b_naive(&problem, p),
            );
        }
    }
}

#[test]
fn best_pair_start_matches_naive() {
    let config = GreedyBConfig {
        best_pair_start: true,
    };
    for seed in 0..8u64 {
        let problem = coverage_instance(seed + 40, 30);
        for p in [2usize, 5, 12] {
            assert_same(
                &format!("pair-start seed {seed} p {p}"),
                &greedy_b(&problem, p, config),
                &greedy_b_naive_with_config(&problem, p, config),
            );
        }
    }
}

#[test]
fn pair_greedy_matches_naive() {
    for seed in 0..8u64 {
        let modular = SyntheticConfig::paper(30).generate(seed);
        let coverage = coverage_instance(seed + 7, 30);
        for p in [2usize, 5, 8] {
            assert_same(
                &format!("pairs modular seed {seed} p {p}"),
                &greedy_b_pairs(&modular, p),
                &greedy_b_pairs_naive(&modular, p),
            );
            assert_same(
                &format!("pairs coverage seed {seed} p {p}"),
                &greedy_b_pairs(&coverage, p),
                &greedy_b_pairs_naive(&coverage, p),
            );
        }
    }
}

#[test]
fn local_search_matches_naive_swap_for_swap() {
    let config = LocalSearchConfig::default();
    for seed in 0..8u64 {
        let modular = SyntheticConfig::paper(30).generate(seed + 100);
        let coverage = coverage_instance(seed + 100, 24);
        let facility = facility_instance(seed + 100, 24);
        let initial: Vec<ElementId> = (0..5).collect();
        assert_same(
            &format!("refine modular seed {seed}"),
            &local_search_refine(&modular, &initial, config).set,
            &local_search_refine_naive(&modular, &initial, config),
        );
        assert_same(
            &format!("refine coverage seed {seed}"),
            &local_search_refine(&coverage, &initial, config).set,
            &local_search_refine_naive(&coverage, &initial, config),
        );
        assert_same(
            &format!("refine facility seed {seed}"),
            &local_search_refine(&facility, &initial, config).set,
            &local_search_refine_naive(&facility, &initial, config),
        );
    }
}

#[test]
fn lazy_greedy_through_generic_oracle_matches_and_saves_oracle_calls() {
    // CountingOracle has no specialized incremental oracle, so greedy_b
    // runs the Minoux lazy loop over the generic fallback: identical
    // output, strictly fewer marginal evaluations than the eager n·p scan.
    for seed in 0..6u64 {
        let base = coverage_instance(seed + 200, 40);
        let n = base.ground_size();
        let p = 12;
        let counted = DiversificationProblem::new(
            base.metric().clone(),
            CountingOracle::new(base.quality().clone()),
            base.lambda(),
        );
        counted.quality().reset();
        let lazy = greedy_b(&counted, p, GreedyBConfig::default());
        let lazy_calls = counted.quality().marginal_calls();
        assert_same(
            &format!("lazy seed {seed}"),
            &lazy,
            &greedy_b_naive(&base, p),
        );
        let eager_calls = (n * p) as u64;
        assert!(
            lazy_calls < eager_calls,
            "seed {seed}: lazy used {lazy_calls} marginal calls, eager bound {eager_calls}"
        );
    }
}

#[test]
fn streaming_session_matches_legacy_diversifier() {
    for seed in 0..8u64 {
        let problem = SyntheticConfig::paper(60).generate(seed + 300);
        let order: Vec<ElementId> = (0..60).collect();
        let p = 8;
        let mut legacy = StreamingDiversifier::new(p);
        for &e in &order {
            legacy.offer(&problem, e);
        }
        let mut legacy_set = legacy.finish();
        let mut session_set = stream_diversify(&problem, &order, p);
        legacy_set.sort_unstable();
        session_set.sort_unstable();
        assert_eq!(
            session_set, legacy_set,
            "seed {seed}: streaming session diverged from legacy rule"
        );
    }
}

#[test]
fn dynamic_update_step_matches_naive_across_qualities() {
    // The generic oblivious repair step (fused incremental caches) must
    // reproduce the slice-recomputing reference swap for swap, across
    // quality families and repeated steps on a drifting instance.
    for seed in 0..6u64 {
        let modular = SyntheticConfig::paper(30).generate(seed + 700);
        let coverage = coverage_instance(seed + 700, 26);
        let facility = facility_instance(seed + 700, 22);
        let mixture = mixture_instance(seed + 700, 22);
        macro_rules! check {
            ($label:expr, $problem:expr, $p:expr) => {{
                let problem = $problem;
                let mut inc: Vec<ElementId> = (0..$p).collect();
                let mut naive = inc.clone();
                for step in 0..5 {
                    let outcome = oblivious_update_step(&problem, &mut inc);
                    let expected = oblivious_update_step_naive(&problem, &mut naive);
                    assert_eq!(
                        outcome.swap, expected,
                        "{} seed {seed} step {step}: swap diverged",
                        $label
                    );
                    assert_eq!(
                        inc, naive,
                        "{} seed {seed} step {step}: solution diverged",
                        $label
                    );
                    if outcome.swap.is_none() {
                        break;
                    }
                }
            }};
        }
        check!("modular", modular, 5);
        check!("coverage", coverage, 6);
        check!("facility", facility, 4);
        check!("mixture", mixture, 4);
    }
}

#[test]
fn double_swap_cache_algebra_matches_brute_force() {
    // The double-swap rule scores exchanges through the gain cache plus
    // pairwise corrections; the brute-force objective recomputation must
    // agree on the best gain (up to FP accumulation order) and the applied
    // swap must realize exactly that objective change.
    use msd_bench::naive::best_double_swap_naive;
    use msd_core::{DynamicInstance, Perturbation};
    for seed in 0..6u64 {
        let n = 14;
        let problem = SyntheticConfig::paper(n).generate(seed + 800);
        let init = greedy_b(&problem, 4, GreedyBConfig::default());
        let mut d = DynamicInstance::new(problem, &init);
        d.apply(Perturbation::SetWeight {
            u: (n - 1) as u32,
            value: 0.9,
        });
        let before = d.objective();
        let naive = best_double_swap_naive(d.problem(), d.solution());
        let single_best_gain = {
            let mut probe = d.clone();
            probe.oblivious_update().gain
        };
        let outcome = d.oblivious_update_double();
        let best_gain = naive.map_or(0.0, |(g, _, _)| g).max(single_best_gain);
        assert!(
            (outcome.gain - best_gain).abs() < 1e-9,
            "seed {seed}: cache gain {} vs brute-force best {best_gain}",
            outcome.gain
        );
        assert!(
            (d.objective() - before - outcome.gain).abs() < 1e-9,
            "seed {seed}: applied gain not realized"
        );
    }
}

#[test]
fn streaming_variants_reach_the_same_final_objective() {
    // StreamingDiversifier (slice oracles, recomputed gains) and
    // CompactStreamingSession (maintained member gains) apply the same
    // accept/best-positive-swap/reject rule; on shared random streams the
    // final objectives must agree. Member sets may differ only on
    // near-exact ties (the floating-point caveat in `streaming.rs`) —
    // which never bind on these continuous random instances, so the sets
    // are asserted equal as multisets too.
    for seed in 0..8u64 {
        let n = 48;
        let p = 7;
        let mut rng = StdRng::seed_from_u64(seed + 900);
        let mut order: Vec<ElementId> = (0..n as ElementId).collect();
        use rand::seq::SliceRandom;
        order.shuffle(&mut rng);

        let modular = SyntheticConfig::paper(n).generate(seed + 900);
        let coverage = coverage_instance(seed + 900, n);
        macro_rules! check {
            ($label:expr, $problem:expr) => {{
                let problem = $problem;
                let mut minimal = StreamingDiversifier::new(p);
                let mut session = CompactStreamingSession::new(&problem, p);
                for &e in &order {
                    minimal.offer(&problem, e);
                    session.offer(e);
                }
                let a = minimal.finish();
                let mut b = session.finish();
                let oa = problem.objective(&a);
                let ob = problem.objective(&b);
                assert!(
                    (oa - ob).abs() <= 1e-9 * oa.abs().max(1.0),
                    "{} seed {seed}: objectives diverged ({oa} vs {ob})",
                    $label
                );
                let mut a = a;
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "{} seed {seed}: member sets diverged", $label);
            }};
        }
        check!("modular", modular);
        check!("coverage", coverage);
    }
}

#[test]
fn tie_breaks_are_deterministic_lowest_index() {
    // A fully symmetric instance: every weight and distance equal, so every
    // candidate ties at every step. The contract is lowest-index-first.
    let metric = DistanceMatrix::from_fn(12, |_, _| 1.0);
    let quality = msd_submodular::ModularFunction::uniform(12, 1.0);
    let problem = DiversificationProblem::new(metric, quality, 0.5);
    for p in [1usize, 3, 6, 12] {
        let picks = greedy_b(&problem, p, GreedyBConfig::default());
        let expected: Vec<ElementId> = (0..p as ElementId).collect();
        assert_eq!(picks, expected, "p {p}");
        assert_eq!(greedy_b_naive(&problem, p), expected);
    }
}

/// Dyadic distances from {0.5, 1, 1.5, 2} and weights from
/// {0.25, 0.5, 1}: every sum is exact, so many swap gains tie bit for bit
/// and the lowest-index tie-break decides.
fn dyadic_tie_instance(
    seed: u64,
    n: usize,
) -> DiversificationProblem<DistanceMatrix, msd_submodular::ModularFunction> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1AD1C);
    let metric = DistanceMatrix::from_fn(n, |_, _| f64::from(rng.gen_range(1u32..5)) * 0.5);
    let weights: Vec<f64> = (0..n)
        .map(|_| [0.25, 0.5, 1.0][rng.gen_range(0usize..3)])
        .collect();
    let lambda = [0.5, 1.0, 2.0][seed as usize % 3];
    DiversificationProblem::new(
        metric,
        msd_submodular::ModularFunction::new(weights),
        lambda,
    )
}

/// [`dyadic_tie_instance`]'s distances and λ under a modular mixture with
/// dyadic coefficients and a zero component: still exact, still tie-heavy.
fn dyadic_mixture_instance(
    seed: u64,
    n: usize,
) -> DiversificationProblem<DistanceMatrix, MixtureFunction> {
    let base = dyadic_tie_instance(seed, n);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3127);
    let other: Vec<f64> = (0..n)
        .map(|_| [0.0, 0.5, 2.0][rng.gen_range(0usize..3)])
        .collect();
    let quality = MixtureFunction::new(n)
        .with(0.5, base.quality().clone())
        .with(2.0, msd_submodular::ModularFunction::new(other))
        .with(4.0, msd_submodular::ZeroFunction::new(n));
    DiversificationProblem::new(base.metric().clone(), quality, base.lambda())
}

/// [`dyadic_tie_instance`]'s distances and λ with no quality at all.
fn dyadic_zero_instance(
    seed: u64,
    n: usize,
) -> DiversificationProblem<DistanceMatrix, msd_submodular::ZeroFunction> {
    let base = dyadic_tie_instance(seed, n);
    DiversificationProblem::new(
        base.metric().clone(),
        msd_submodular::ZeroFunction::new(n),
        base.lambda(),
    )
}

/// The pruned, row-bounded local search against the naive reference,
/// capped after every swap count, and on a forced 4-thread pool. `make`
/// builds the instance (twice: once for the pooled copy).
fn assert_pruned_local_search_matches_naive<F: msd_submodular::SetFunction>(
    label: &str,
    make: impl Fn() -> DiversificationProblem<DistanceMatrix, F>,
    pivot: PivotRule,
) {
    let problem = make();
    for p in [3usize, 6, 9] {
        let initial: Vec<ElementId> = (0..p as ElementId).map(|i| i * 2 + 1).collect();
        for epsilon in [0.0, LocalSearchConfig::default().epsilon] {
            let config = LocalSearchConfig {
                epsilon,
                pivot,
                ..LocalSearchConfig::default()
            };
            let full = local_search_refine(&problem, &initial, config);
            assert!(full.converged);
            for k in 0..=full.swaps {
                let capped = LocalSearchConfig {
                    max_swaps: k,
                    ..config
                };
                assert_same(
                    &format!("{label} p {p} eps {epsilon} swap {k}"),
                    &local_search_refine(&problem, &initial, capped).set,
                    &local_search_refine_naive(&problem, &initial, capped),
                );
            }
            {
                let pool = std::sync::Arc::new(msd_core::ScanPool::new(4));
                let par = local_search_refine(&make().with_scan_pool(pool), &initial, config);
                assert_eq!(par.set, full.set, "{label} p {p} eps {epsilon}");
                assert_eq!(par.objective.to_bits(), full.objective.to_bits());
                assert_eq!(par.swaps, full.swaps);
            }
        }
    }
}

#[test]
fn pruned_local_search_matches_naive_on_ties() {
    for seed in 0..10u64 {
        for pivot in [PivotRule::BestImprovement, PivotRule::FirstImprovement] {
            assert_pruned_local_search_matches_naive(
                &format!("ties seed {seed} {pivot:?}"),
                || dyadic_tie_instance(seed, 26),
                pivot,
            );
            assert_pruned_local_search_matches_naive(
                &format!("mixture ties seed {seed} {pivot:?}"),
                || dyadic_mixture_instance(seed, 26),
                pivot,
            );
            assert_pruned_local_search_matches_naive(
                &format!("zero-quality ties seed {seed} {pivot:?}"),
                || dyadic_zero_instance(seed, 26),
                pivot,
            );
        }
    }
}

/// Local search from a one-member start against the naive reference:
/// the row pass's member envelope is a single member. Same set, same
/// objective bits and the same number of swaps (the capped runs agree at
/// every count, and the reference needs every one of them).
fn assert_one_member_local_search_matches_naive<F: msd_submodular::SetFunction>(
    label: &str,
    problem: &DiversificationProblem<DistanceMatrix, F>,
    pivot: PivotRule,
) {
    for start in [0 as ElementId, 7, 25] {
        let initial = [start];
        for epsilon in [0.0, LocalSearchConfig::default().epsilon] {
            let config = LocalSearchConfig {
                epsilon,
                pivot,
                ..LocalSearchConfig::default()
            };
            let label = format!("{label} start {start} eps {epsilon}");
            let full = local_search_refine(problem, &initial, config);
            let naive = local_search_refine_naive(problem, &initial, config);
            assert!(full.converged, "{label}");
            assert_same(&label, &full.set, &naive);
            assert_eq!(
                full.objective.to_bits(),
                problem.objective(&naive).to_bits(),
                "{label}"
            );
            let capped = |k: usize| LocalSearchConfig {
                max_swaps: k,
                ..config
            };
            for k in 0..=full.swaps {
                assert_same(
                    &format!("{label} swap {k}"),
                    &local_search_refine(problem, &initial, capped(k)).set,
                    &local_search_refine_naive(problem, &initial, capped(k)),
                );
            }
            if full.swaps > 0 {
                assert_ne!(
                    local_search_refine_naive(problem, &initial, capped(full.swaps - 1)),
                    naive,
                    "{label}: the reference stopped early"
                );
            }
        }
    }
}

#[test]
fn one_member_local_search_matches_naive() {
    for seed in 0..10u64 {
        for pivot in [PivotRule::BestImprovement, PivotRule::FirstImprovement] {
            assert_one_member_local_search_matches_naive(
                &format!("ties seed {seed} {pivot:?}"),
                &dyadic_tie_instance(seed, 26),
                pivot,
            );
            assert_one_member_local_search_matches_naive(
                &format!("mixture ties seed {seed} {pivot:?}"),
                &dyadic_mixture_instance(seed, 26),
                pivot,
            );
            assert_one_member_local_search_matches_naive(
                &format!("zero-quality ties seed {seed} {pivot:?}"),
                &dyadic_zero_instance(seed, 26),
                pivot,
            );
            assert_one_member_local_search_matches_naive(
                &format!("modular seed {seed} {pivot:?}"),
                &SyntheticConfig::paper(30).generate(seed + 300),
                pivot,
            );
        }
    }
}

mod parallel_equivalence {
    use super::*;
    use msd_core::ScanPool;
    use msd_metric::Metric;
    use msd_submodular::SetFunction;
    use std::sync::Arc;

    /// A copy of `problem` that scans on a forced 4-thread pool.
    fn pooled<M: Metric, F: SetFunction>(
        problem: DiversificationProblem<M, F>,
    ) -> DiversificationProblem<M, F> {
        problem.with_scan_pool(Arc::new(ScanPool::new(4)))
    }

    #[test]
    fn parallel_greedy_is_bit_identical_across_qualities() {
        for seed in 0..6u64 {
            let modular = SyntheticConfig::paper(70).generate(seed);
            let coverage = coverage_instance(seed, 50);
            let facility = facility_instance(seed, 40);
            let modular_par = pooled(modular.clone());
            let coverage_par = pooled(coverage.clone());
            let facility_par = pooled(facility.clone());
            for p in [3usize, 11, 24] {
                for best_pair_start in [false, true] {
                    let config = GreedyBConfig { best_pair_start };
                    assert_eq!(
                        greedy_b(&modular_par, p, config),
                        greedy_b(&modular, p, config),
                        "modular seed {seed} p {p}"
                    );
                    assert_eq!(
                        greedy_b(&coverage_par, p, config),
                        greedy_b(&coverage, p, config),
                        "coverage seed {seed} p {p}"
                    );
                    assert_eq!(
                        greedy_b(&facility_par, p, config),
                        greedy_b(&facility, p, config),
                        "facility seed {seed} p {p}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_local_search_is_bit_identical() {
        for seed in 0..6u64 {
            let problem = coverage_instance(seed + 500, 40);
            let initial: Vec<ElementId> = (0..7).collect();
            let par = local_search_refine(
                &pooled(problem.clone()),
                &initial,
                LocalSearchConfig::default(),
            );
            let ser = local_search_refine(&problem, &initial, LocalSearchConfig::default());
            assert_eq!(par.set, ser.set, "seed {seed}");
            assert_eq!(par.objective, ser.objective);
            assert_eq!(par.swaps, ser.swaps);
        }
    }

    #[test]
    fn parallel_pair_greedy_is_bit_identical_across_qualities() {
        for seed in 0..6u64 {
            let modular = SyntheticConfig::paper(60).generate(seed + 600);
            let coverage = coverage_instance(seed + 600, 44);
            let facility = facility_instance(seed + 600, 36);
            let mixture = mixture_instance(seed + 600, 30);
            let modular_par = pooled(modular.clone());
            let coverage_par = pooled(coverage.clone());
            let facility_par = pooled(facility.clone());
            let mixture_par = pooled(mixture_instance(seed + 600, 30));
            for p in [2usize, 5, 9, 16] {
                assert_eq!(
                    greedy_b_pairs(&modular_par, p),
                    greedy_b_pairs(&modular, p),
                    "modular seed {seed} p {p}"
                );
                assert_eq!(
                    greedy_b_pairs(&coverage_par, p),
                    greedy_b_pairs(&coverage, p),
                    "coverage seed {seed} p {p}"
                );
                assert_eq!(
                    greedy_b_pairs(&facility_par, p),
                    greedy_b_pairs(&facility, p),
                    "facility seed {seed} p {p}"
                );
                assert_eq!(
                    greedy_b_pairs(&mixture_par, p),
                    greedy_b_pairs(&mixture, p),
                    "mixture seed {seed} p {p}"
                );
            }
        }
    }

    #[test]
    fn parallel_oblivious_updates_are_bit_identical() {
        use msd_core::{DynamicInstance, Perturbation};
        for seed in 0..6u64 {
            let n = 36;
            let problem = SyntheticConfig::paper(n).generate(seed + 650);
            let init = greedy_b(&problem, 6, GreedyBConfig::default());
            let mut ser = DynamicInstance::new(problem.clone(), &init);
            let mut par = DynamicInstance::new(pooled(problem.clone()), &init);
            let mut rng = StdRng::seed_from_u64(seed + 650);
            for step in 0..6 {
                let perturbation = if rng.gen_bool(0.5) {
                    Perturbation::SetWeight {
                        u: rng.gen_range(0..n) as u32,
                        value: rng.gen_range(0.0..1.0),
                    }
                } else {
                    let u = rng.gen_range(0..n) as u32;
                    let v = (u + 1 + rng.gen_range(0..n - 1) as u32) % n as u32;
                    Perturbation::SetDistance {
                        u,
                        v,
                        value: rng.gen_range(1.0..2.0),
                    }
                };
                ser.apply(perturbation);
                par.apply(perturbation);
                if step % 2 == 0 {
                    assert_eq!(
                        ser.oblivious_update(),
                        par.oblivious_update(),
                        "seed {seed} step {step}: single swap diverged"
                    );
                } else {
                    assert_eq!(
                        ser.oblivious_update_double(),
                        par.oblivious_update_double(),
                        "seed {seed} step {step}: double swap diverged"
                    );
                }
                assert_eq!(ser.solution(), par.solution(), "seed {seed} step {step}");
                assert_eq!(ser.objective(), par.objective(), "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn parallel_update_step_is_bit_identical_across_qualities() {
        for seed in 0..5u64 {
            let modular = || SyntheticConfig::paper(40).generate(seed + 680);
            let coverage = || coverage_instance(seed + 680, 32);
            let facility = || facility_instance(seed + 680, 26);
            let mixture = || mixture_instance(seed + 680, 24);
            macro_rules! check {
                ($label:expr, $make:expr, $p:expr) => {{
                    let problem = $make();
                    let pooled_problem = pooled($make());
                    let mut ser: Vec<ElementId> = (0..$p).collect();
                    let mut par = ser.clone();
                    for step in 0..4 {
                        let a = oblivious_update_step(&problem, &mut ser);
                        let b = oblivious_update_step(&pooled_problem, &mut par);
                        assert_eq!(a, b, "{} seed {seed} step {step}", $label);
                        assert_eq!(ser, par, "{} seed {seed} step {step}", $label);
                        if a.swap.is_none() {
                            break;
                        }
                    }
                }};
            }
            check!("modular", modular, 6);
            check!("coverage", coverage, 5);
            check!("facility", facility, 4);
            check!("mixture", mixture, 4);
        }
    }
}

/// `greedy_b` parks its distance cache on the problem, and the next
/// `local_search_refine` on the same problem takes it when its start is
/// Greedy B's answer (the warm path). The reference (the cold path) is
/// the same refine on a clone, whose slot is empty, so it builds its
/// state from the start set. Every case must agree on the set, the swap
/// count, `converged` and the objective bits; the row counter shows
/// which path ran.
mod greedy_to_local_search_handoff {
    use super::*;
    use msd_core::local_search::LocalSearchResult;
    use msd_core::ScanPool;
    use msd_metric::{Metric, PointKernel, PointMetric};
    use msd_submodular::{ConcaveOverModular, ConcaveShape, ModularFunction, SetFunction};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Forwards to `M` and counts its row sweeps (`accumulate_distances`).
    #[derive(Debug)]
    struct RowCounting<M> {
        inner: M,
        rows: AtomicU64,
    }

    impl<M: Clone> Clone for RowCounting<M> {
        fn clone(&self) -> Self {
            counted(self.inner.clone())
        }
    }

    fn counted<M>(inner: M) -> RowCounting<M> {
        RowCounting {
            inner,
            rows: AtomicU64::new(0),
        }
    }

    impl<M: Metric> Metric for RowCounting<M> {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn distance(&self, u: ElementId, v: ElementId) -> f64 {
            self.inner.distance(u, v)
        }

        fn dispersion(&self, set: &[ElementId]) -> f64 {
            self.inner.dispersion(set)
        }

        fn accumulate_distances(&self, u: ElementId, out: &mut [f64], factor: f64) {
            self.rows.fetch_add(1, Ordering::Relaxed);
            self.inner.accumulate_distances(u, out, factor);
        }
    }

    /// A problem whose metric counts rows; the quality is borrowed, so
    /// every family clones.
    type Counted<'f, M, F> = DiversificationProblem<RowCounting<M>, &'f F>;

    /// `problem`'s metric behind a row counter, on `pool`.
    fn on_pool<'f, M: Metric + Clone, F: SetFunction>(
        problem: &'f DiversificationProblem<M, F>,
        pool: &Arc<ScanPool>,
    ) -> Counted<'f, M, F> {
        DiversificationProblem::new(
            counted(problem.metric().clone()),
            problem.quality(),
            problem.lambda(),
        )
        .with_scan_pool(Arc::clone(pool))
    }

    /// Runs `local_search_refine` and returns its result with the number
    /// of row sweeps it made.
    fn refine_counted<M: Metric, F: SetFunction>(
        problem: &Counted<'_, M, F>,
        start: &[ElementId],
        config: LocalSearchConfig,
    ) -> (LocalSearchResult, u64) {
        problem.metric().rows.store(0, Ordering::Relaxed);
        let result = local_search_refine(problem, start, config);
        (result, problem.metric().rows.load(Ordering::Relaxed))
    }

    #[track_caller]
    fn assert_same_result(label: &str, got: &LocalSearchResult, want: &LocalSearchResult) {
        assert_eq!(got.set, want.set, "{label}: set");
        assert_eq!(got.swaps, want.swaps, "{label}: swaps");
        assert_eq!(got.converged, want.converged, "{label}: converged");
        assert_eq!(
            got.objective.to_bits(),
            want.objective.to_bits(),
            "{label}: objective {} vs {}",
            got.objective,
            want.objective
        );
    }

    /// Refines `start` on `problem` (warm when its slot matches) and on a
    /// clone (cold): equal results, and the rows each made.
    fn warm_and_cold<M: Metric + Clone, F: SetFunction>(
        label: &str,
        problem: &Counted<'_, M, F>,
        start: &[ElementId],
        config: LocalSearchConfig,
    ) -> (u64, u64) {
        let (cold, cold_rows) = refine_counted(&problem.clone(), start, config);
        let (warm, warm_rows) = refine_counted(problem, start, config);
        assert_same_result(label, &warm, &cold);
        // Cold: one sweep per start member, two per swap.
        assert_eq!(
            cold_rows,
            (start.len() + 2 * cold.swaps) as u64,
            "{label}: cold rows"
        );
        (warm_rows, cold_rows)
    }

    /// Greedy B then local search on one problem against the cold
    /// refine, for p ∈ {1, 2, 5, n}, both `best_pair_start` settings, ε
    /// ∈ {0, default}, on a serial and a 4-thread pool, plus every
    /// fallback case.
    fn assert_handoff_matches_cold<M: Metric + Clone, F: SetFunction>(
        label: &str,
        base: &DiversificationProblem<M, F>,
    ) {
        let n = base.ground_size();
        for threads in [1usize, 4] {
            let pool = Arc::new(ScanPool::new(threads));
            let problem = on_pool(base, &pool);
            for p in [1usize, 2, 5, n] {
                for best_pair_start in [false, true] {
                    for epsilon in [0.0, LocalSearchConfig::default().epsilon] {
                        let greedy = GreedyBConfig { best_pair_start };
                        let config = LocalSearchConfig {
                            epsilon,
                            ..LocalSearchConfig::default()
                        };
                        let label = format!(
                            "{label} threads {threads} p {p} pair_start {best_pair_start} \
                             eps {epsilon}"
                        );
                        let start = greedy_b(&problem, p, greedy);
                        let (warm, cold) = warm_and_cold(&label, &problem, &start, config);
                        assert_eq!(warm + (p as u64 - 1), cold, "{label}: warm rows");
                        // The warm refine took the slot: a second is cold.
                        let (again, cold) =
                            warm_and_cold(&format!("{label} again"), &problem, &start, config);
                        assert_eq!(again, cold, "{label}: second refine rows");
                    }
                }
            }
            assert_fallbacks_match_cold(&format!("{label} threads {threads}"), &problem);
        }
    }

    /// Starts that are not exactly Greedy B's answer, and runs between
    /// which the slot goes stale or is replaced, all refine cold.
    fn assert_fallbacks_match_cold<M: Metric + Clone, F: SetFunction>(
        label: &str,
        problem: &Counted<'_, M, F>,
    ) {
        let config = LocalSearchConfig::default();
        let greedy = GreedyBConfig::default();
        let start = greedy_b(problem, 5, greedy);
        let outsider = (0..problem.ground_size() as ElementId)
            .find(|u| !start.contains(u))
            .expect("an outsider");
        let mut permuted = start.clone();
        permuted.rotate_left(1);
        let mut changed = start.clone();
        changed[2] = outsider;
        let mut shortened = start.clone();
        shortened.pop();
        for (what, other) in [
            ("permuted", permuted),
            ("one element changed", changed),
            ("prefix", shortened),
        ] {
            greedy_b(problem, 5, greedy);
            let (warm, cold) = warm_and_cold(&format!("{label} {what}"), problem, &other, config);
            assert_eq!(warm, cold, "{label} {what}: rows");
        }

        // Two Greedy B runs, then one refine of each answer: the first
        // answer's refine finds the second run's state and goes cold; the
        // second's then finds the slot empty.
        let other = greedy_b(
            problem,
            4,
            GreedyBConfig {
                best_pair_start: true,
            },
        );
        let first = greedy_b(problem, 5, greedy);
        let (warm, cold) = warm_and_cold(&format!("{label} stale run"), problem, &other, config);
        assert_eq!(warm, cold, "{label} stale run: rows");
        greedy_b(
            problem,
            4,
            GreedyBConfig {
                best_pair_start: true,
            },
        );
        greedy_b(problem, 5, greedy);
        let (warm, cold) = warm_and_cold(&format!("{label} latest run"), problem, &first, config);
        assert_eq!(warm + 4, cold, "{label} latest run: rows");
    }

    /// Greedy B, then a distance change between two of its picks through
    /// `metric_mut`, then the refine: the slot was emptied, so the refine
    /// is cold and sees the new distance.
    fn assert_metric_mut_empties_the_slot(
        label: &str,
        base: &DiversificationProblem<DistanceMatrix, impl SetFunction>,
    ) {
        for threads in [1usize, 4] {
            let pool = Arc::new(ScanPool::new(threads));
            let mut problem = on_pool(base, &pool);
            let start = greedy_b(&problem, 5, GreedyBConfig::default());
            let (a, b) = (start[0], start[1]);
            let d = problem.metric().distance(a, b);
            problem.metric_mut().inner.set(a, b, d + 0.75);
            let label = format!("{label} threads {threads} metric_mut");
            let config = LocalSearchConfig::default();
            let (warm, cold) = warm_and_cold(&label, &problem, &start, config);
            assert_eq!(warm, cold, "{label}: rows");
        }
    }

    /// Greedy B, then a weight change through `quality_mut`, then the
    /// refine: only distances are parked, so the refine stays warm, sees
    /// the new weight (the boosted outsider enters) and matches the cold
    /// refine.
    #[test]
    fn quality_mut_between_the_calls_keeps_the_cache() {
        let base = SyntheticConfig::paper(30).generate(731);
        for threads in [1usize, 4] {
            let mut problem = DiversificationProblem::new(
                counted(base.metric().clone()),
                base.quality().clone(),
                base.lambda(),
            )
            .with_scan_pool(Arc::new(ScanPool::new(threads)));
            let start = greedy_b(&problem, 5, GreedyBConfig::default());
            let outsider = (0..problem.ground_size() as ElementId)
                .find(|u| !start.contains(u))
                .expect("an outsider");
            problem.quality_mut().set_weight(outsider, 1e3);
            let label = format!("threads {threads} quality_mut");
            let config = LocalSearchConfig::default();
            let cold = problem.clone();
            let want = local_search_refine(&cold, &start, config);
            problem.metric().rows.store(0, Ordering::Relaxed);
            let got = local_search_refine(&problem, &start, config);
            assert_same_result(&label, &got, &want);
            assert!(got.set.contains(&outsider), "{label}: boosted outsider");
            assert_eq!(
                problem.metric().rows.load(Ordering::Relaxed) + 4,
                cold.metric().rows.load(Ordering::Relaxed),
                "{label}: warm rows"
            );
        }
    }

    /// A rerank-shaped instance: an implicit cosine metric with `n mod 8
    /// ≠ 0` and modular weights.
    fn point_instance(seed: u64, n: usize) -> DiversificationProblem<PointMetric, ModularFunction> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9017);
        let dim = 6;
        let coords: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..2.0)).collect();
        DiversificationProblem::new(
            PointMetric::from_flat(PointKernel::Cosine, n, dim, coords),
            ModularFunction::new(weights),
            1.0,
        )
    }

    #[test]
    fn handoff_matches_cold_refine_across_qualities() {
        for seed in 0..3u64 {
            let modular = SyntheticConfig::paper(30).generate(seed + 700);
            assert_handoff_matches_cold(&format!("modular seed {seed}"), &modular);
            assert_metric_mut_empties_the_slot(&format!("modular seed {seed}"), &modular);
            let coverage = coverage_instance(seed + 700, 24);
            assert_handoff_matches_cold(&format!("coverage seed {seed}"), &coverage);
            assert_metric_mut_empties_the_slot(&format!("coverage seed {seed}"), &coverage);
            assert_handoff_matches_cold(
                &format!("facility seed {seed}"),
                &facility_instance(seed + 700, 24),
            );
            assert_handoff_matches_cold(
                &format!("mixture seed {seed}"),
                &mixture_instance(seed + 700, 24),
            );
            assert_handoff_matches_cold(
                &format!("mixture ties seed {seed}"),
                &dyadic_mixture_instance(seed, 26),
            );
            assert_handoff_matches_cold(
                &format!("zero-quality ties seed {seed}"),
                &dyadic_zero_instance(seed, 26),
            );
            // No specialized oracle: the generic fallback and the lazy
            // Minoux argmax.
            let generic = DiversificationProblem::new(
                modular.metric().clone(),
                ConcaveOverModular::new(modular.quality().weights().to_vec(), ConcaveShape::Sqrt),
                modular.lambda(),
            );
            assert_handoff_matches_cold(&format!("concave seed {seed}"), &generic);
            assert_handoff_matches_cold(
                &format!("point metric seed {seed}"),
                &point_instance(seed, 27),
            );
        }
    }
}
