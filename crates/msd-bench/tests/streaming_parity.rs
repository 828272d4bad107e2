//! Decision parity of the O(p)-memory [`CompactStreamingSession`] against
//! the slice-recomputing [`StreamingDiversifier`] under *adversarial*
//! offer orders — the gap called out by the streaming ROADMAP item.
//!
//! The two implement the same accept / best-positive-swap / reject rule
//! with the same in-place member ordering; the compact session merely
//! maintains its member gains incrementally. The suites below force the
//! regimes where incremental maintenance is most likely to betray that
//! contract: descending-gain orders (every arrival is a fresh eviction
//! fight), all-ties instances built from exactly-representable values
//! (so equal gains are bitwise equal and the `> 1e-12` threshold really
//! decides), and duplicate offers of previously rejected or evicted
//! elements (each re-offer re-reads the maintained gains). Every order
//! also goes through the one-shot [`stream_diversify`] driver, whose
//! selection must equal the reference's, member order included.

use msd_bench::streaming::StreamingDiversifier;
use msd_core::{
    stream_diversify, CompactStreamingSession, DiversificationProblem, ElementId, StreamDecision,
};
use msd_metric::DistanceMatrix;
use msd_submodular::{
    CoverageFunction, FacilityLocationFunction, MixtureFunction, ModularFunction, SetFunction,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Offers `order` to both implementations, asserting the decision stream,
/// member lists and swap counters agree offer for offer. Elements already
/// selected at offer time are skipped (both implementations treat a
/// selected re-offer as a caller error). The offers actually made are then
/// replayed through [`stream_diversify`], whose output must equal the
/// reference's final member list in order.
fn assert_decision_parity<M: msd_metric::Metric, F: SetFunction>(
    label: &str,
    problem: &DiversificationProblem<M, F>,
    order: &[ElementId],
    p: usize,
) {
    let mut minimal = StreamingDiversifier::new(p);
    let mut compact = CompactStreamingSession::new(problem, p);
    let mut offered = Vec::with_capacity(order.len());
    for (step, &e) in order.iter().enumerate() {
        if minimal.members().contains(&e) {
            assert!(
                compact.members().contains(&e),
                "{label} step {step}: membership diverged before the skip"
            );
            continue;
        }
        offered.push(e);
        let a = minimal.offer(problem, e);
        let b = compact.offer(e);
        assert_eq!(a, b, "{label} step {step}: decision diverged at offer {e}");
        assert_eq!(
            minimal.members(),
            compact.members(),
            "{label} step {step}: member lists diverged"
        );
    }
    assert_eq!(minimal.swaps(), compact.swaps(), "{label}: swap counters");
    assert_eq!(minimal.seen(), compact.seen(), "{label}: seen counters");
    let direct = problem.objective(compact.members());
    assert!(
        (compact.objective() - direct).abs() < 1e-9 * direct.abs().max(1.0),
        "{label}: compact cached gains drifted from the slice objective"
    );
    assert_eq!(
        stream_diversify(problem, &offered, p),
        minimal.finish(),
        "{label}: stream_diversify diverged from the reference"
    );
}

/// Exact-arithmetic instance: distances in {1.0, 1.5, 2.0}, weights
/// multiples of 0.25 — gains compare bitwise, ties really tie.
fn tie_instance(seed: u64, n: usize) -> DiversificationProblem<DistanceMatrix, ModularFunction> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA2545F49).wrapping_add(3));
    let weights: Vec<f64> = (0..n)
        .map(|_| f64::from(rng.gen_range(0..5u32)) * 0.25)
        .collect();
    let metric = DistanceMatrix::from_fn(n, |_, _| [1.0, 1.5, 2.0][rng.gen_range(0..3usize)]);
    DiversificationProblem::new(metric, ModularFunction::new(weights), 0.5)
}

#[test]
fn descending_gain_offer_order_keeps_parity() {
    // Offer best-first: after the fill, every arrival is weaker than the
    // incumbents, peppered with weight ties — eviction decisions hinge on
    // the dispersion terms the compact session maintains incrementally.
    for seed in 0..6u64 {
        let n = 32;
        let problem = tie_instance(seed, n);
        let mut order: Vec<ElementId> = (0..n as ElementId).collect();
        // Descending by weight via `total_cmp` (NaN-total: a NaN weight
        // would sort below every finite weight instead of panicking);
        // equal weights break toward the lower element id.
        order.sort_by(|&a, &b| {
            problem
                .quality()
                .weight(b)
                .total_cmp(&problem.quality().weight(a))
                .then(a.cmp(&b))
        });
        assert_decision_parity("descending", &problem, &order, 6);
    }
}

#[test]
fn all_ties_instance_rejects_identically() {
    // Uniform distances and uniform weights: every post-fill swap gain is
    // exactly 0, below the strict > 1e-12 improvement threshold — both
    // sides must reject every arrival and keep the first p offers.
    let n = 20;
    let metric = DistanceMatrix::from_fn(n, |_, _| 1.5);
    let quality = ModularFunction::uniform(n, 0.75);
    let problem = DiversificationProblem::new(metric, quality, 0.5);
    let order: Vec<ElementId> = (0..n as ElementId).collect();
    let mut minimal = StreamingDiversifier::new(5);
    let mut compact = CompactStreamingSession::new(&problem, 5);
    for &e in &order {
        let a = minimal.offer(&problem, e);
        let b = compact.offer(e);
        assert_eq!(a, b);
        if e >= 5 {
            assert_eq!(
                a,
                StreamDecision::Rejected,
                "tied arrival {e} must not swap"
            );
        }
    }
    assert_eq!(compact.members(), &[0, 1, 2, 3, 4]);
    assert_eq!(minimal.members(), compact.members());
    assert_decision_parity("all-ties", &problem, &order, 5);
}

#[test]
fn duplicate_offers_keep_parity() {
    // Every rejected or evicted element is re-offered up to three times,
    // interleaved with fresh arrivals; each re-offer re-reads the
    // maintained gains against a solution that may have changed since.
    for seed in 0..6u64 {
        let n = 24;
        let problem = tie_instance(seed + 50, n);
        let mut rng = StdRng::seed_from_u64(seed + 900);
        let mut order: Vec<ElementId> = Vec::new();
        for e in 0..n as ElementId {
            order.push(e);
            // Re-offer up to three earlier elements.
            for _ in 0..rng.gen_range(0..3u32) {
                order.push(rng.gen_range(0..e + 1));
            }
        }
        assert_decision_parity("duplicates", &problem, &order, 5);
    }
}

#[test]
fn adversarial_orders_keep_parity_across_quality_families() {
    // The compact session's quality gains go through the generic slice
    // oracle — drive the same adversarial orders over coverage, facility
    // and mixture qualities.
    let n = 24;
    let coverage = {
        let covers: Vec<Vec<u32>> = (0..n as u32).map(|u| vec![u % 7, (u * 3) % 7]).collect();
        let metric = DistanceMatrix::from_fn(n, |u, v| [1.0, 1.5, 2.0][((u * 7 + v) % 3) as usize]);
        DiversificationProblem::new(
            metric,
            CoverageFunction::new(covers, vec![1.0, 2.0, 0.5, 3.0, 1.5, 0.25, 2.5]),
            0.5,
        )
    };
    run_family("coverage", coverage);
    let facility = {
        let sim: Vec<Vec<f64>> = (0..n / 2)
            .map(|c| {
                (0..n)
                    .map(|u| f64::from(((c * 31 + u * 17) % 4) as u32) * 0.25)
                    .collect()
            })
            .collect();
        let weights: Vec<f64> = (0..n / 2).map(|c| 0.5 + (c % 3) as f64 * 0.5).collect();
        let metric = DistanceMatrix::from_fn(n, |u, v| [1.0, 1.5, 2.0][((u + 2 * v) % 3) as usize]);
        DiversificationProblem::new(metric, FacilityLocationFunction::new(sim, weights), 0.5)
    };
    run_family("facility", facility);
    let mixture = {
        let weights: Vec<f64> = (0..n).map(|u| f64::from((u % 4) as u32) * 0.25).collect();
        let covers: Vec<Vec<u32>> = (0..n as u32).map(|u| vec![u % 5]).collect();
        let quality = MixtureFunction::new(n)
            .with(0.5, ModularFunction::new(weights))
            .with(
                1.0,
                CoverageFunction::new(covers, vec![2.0, 1.0, 0.5, 1.5, 3.0]),
            );
        let metric = DistanceMatrix::from_fn(n, |u, v| [1.0, 1.5, 2.0][((3 * u + v) % 3) as usize]);
        DiversificationProblem::new(metric, quality, 0.5)
    };
    run_family("mixture", mixture);

    fn run_family<F: SetFunction>(label: &str, problem: DiversificationProblem<DistanceMatrix, F>) {
        let n = problem.ground_size();
        // Descending singleton quality via `total_cmp` (NaN-total: a NaN
        // singleton would sort below every finite value instead of
        // panicking), ties toward lower index.
        let mut descending: Vec<ElementId> = (0..n as ElementId).collect();
        descending.sort_by(|&a, &b| {
            problem
                .quality()
                .singleton(b)
                .total_cmp(&problem.quality().singleton(a))
                .then(a.cmp(&b))
        });
        assert_decision_parity(label, &problem, &descending, 5);
        // Duplicate-laden ascending order.
        let mut order: Vec<ElementId> = Vec::new();
        for e in 0..n as ElementId {
            order.push(e);
            if e % 3 == 0 && e > 0 {
                order.push(e - 1);
                order.push(e / 2);
            }
        }
        assert_decision_parity(label, &problem, &order, 5);
    }
}
