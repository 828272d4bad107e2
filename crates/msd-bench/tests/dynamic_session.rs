//! Equivalence suite for the persistent [`DynamicSession`]: a session
//! that repairs its caches in O(Δ) per perturbation (and skips scans its
//! stability tracking proves redundant) must reproduce the rebuild path —
//! a fresh [`oblivious_update_step`] against an identically-perturbed
//! problem — swap for swap and solution for solution, across random
//! perturbation sequences, all four quality families, and both the serial
//! and the forced-chunking parallel scans.

use msd_bench::naive::{session_refill_naive, session_update_step_naive};
use msd_bench::support::ingest_legacy;
use msd_core::{
    greedy_b, oblivious_update_step, BatchReport, DiversificationProblem, DynamicSession,
    ElementId, GreedyBConfig, Perturbation, ScanExtent, SessionPerturbation,
};
use msd_data::SyntheticConfig;
use msd_metric::{DistanceMatrix, PerturbableMetric};
use msd_submodular::{
    CoverageFunction, FacilityLocationFunction, IncrementalOracle, MixtureFunction, SetFunction,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One perturbation through the unified ingestion API under the legacy
/// (trusting) regime — the migration target of the old `apply` contract.
fn ingest_one<M: PerturbableMetric, Q: IncrementalOracle + ?Sized>(
    session: &mut DynamicSession<'_, M, Q>,
    pert: impl Into<SessionPerturbation>,
) -> BatchReport {
    let pert: SessionPerturbation = pert.into();
    ingest_legacy(session, pert)
}

fn coverage_instance(
    seed: u64,
    n: usize,
) -> DiversificationProblem<DistanceMatrix, CoverageFunction> {
    msd_bench::support::coverage_instance(seed, n, 2 * n / 3 + 1, 1, 6)
}

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
    let metric = DistanceMatrix::from_fn(n, |_, _| rng.gen_range(1.0..2.0));
    DiversificationProblem::new(metric, quality, 0.25)
}

fn random_distance(rng: &mut StdRng, n: usize) -> Perturbation {
    let u = rng.gen_range(0..n) as ElementId;
    let mut v = rng.gen_range(0..n) as ElementId;
    while v == u {
        v = rng.gen_range(0..n) as ElementId;
    }
    Perturbation::SetDistance {
        u,
        v,
        value: rng.gen_range(1.0..2.0),
    }
}

/// Drives a random distance-perturbation sequence through a session and
/// through per-step rebuilds on an identically-perturbed twin instance
/// (`make` must be deterministic); asserts bit-identical swaps and
/// solutions at every step.
fn assert_session_matches_rebuild<F: SetFunction>(
    label: &str,
    make: impl Fn() -> DiversificationProblem<DistanceMatrix, F>,
    p: usize,
    seed: u64,
    steps: usize,
) {
    let problem = make();
    let mut mirror = make();
    let n = problem.ground_size();
    let init = greedy_b(&problem, p, GreedyBConfig::default());
    let mut session = DynamicSession::new(&problem, &init);
    let mut sol = init.clone();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7));
    for step in 0..steps {
        let pert = random_distance(&mut rng, n);
        if let Perturbation::SetDistance { u, v, value } = pert {
            mirror.metric_mut().set(u, v, value);
        }
        let report = ingest_one(&mut session, pert);
        let expected = oblivious_update_step(&mirror, &mut sol);
        assert_eq!(
            report.outcome.swap, expected.swap,
            "{label} seed {seed} step {step}: swap diverged"
        );
        assert_eq!(
            session.solution(),
            &sol[..],
            "{label} seed {seed} step {step}: solution diverged"
        );
    }
}

#[test]
fn session_matches_rebuild_on_modular_with_mixed_weight_and_distance() {
    for seed in 0..6u64 {
        let n = 40;
        let problem = SyntheticConfig::paper(n).generate(seed + 1000);
        let init = greedy_b(&problem, 6, GreedyBConfig::default());
        let mut session = DynamicSession::new(&problem, &init);
        let mut mirror = problem.clone();
        let mut sol = init.clone();
        let mut rng = StdRng::seed_from_u64(seed + 1000);
        for step in 0..50 {
            let pert = if rng.gen_bool(0.5) {
                Perturbation::SetWeight {
                    u: rng.gen_range(0..n) as ElementId,
                    value: rng.gen_range(0.0..1.0),
                }
            } else {
                random_distance(&mut rng, n)
            };
            match pert {
                Perturbation::SetWeight { u, value } => mirror.quality_mut().set_weight(u, value),
                Perturbation::SetDistance { u, v, value } => mirror.metric_mut().set(u, v, value),
            }
            let report = ingest_one(&mut session, pert);
            let expected = oblivious_update_step(&mirror, &mut sol);
            assert_eq!(
                report.outcome.swap, expected.swap,
                "seed {seed} step {step}: swap diverged"
            );
            assert_eq!(
                session.solution(),
                &sol[..],
                "seed {seed} step {step}: solution diverged"
            );
        }
    }
}

#[test]
fn session_matches_rebuild_on_coverage_facility_and_mixture() {
    for seed in 0..4u64 {
        assert_session_matches_rebuild(
            "coverage",
            || coverage_instance(seed + 50, 30),
            6,
            seed,
            40,
        );
        assert_session_matches_rebuild(
            "facility",
            || facility_instance(seed + 50, 24),
            5,
            seed,
            30,
        );
        assert_session_matches_rebuild("mixture", || mixture_instance(seed + 50, 24), 5, seed, 30);
    }
}

#[test]
fn session_skips_most_scans_once_stable() {
    // The perf claim behind the session bench: in the steady state of a
    // Figure-1 perturbation stream, most updates are provably-irrelevant
    // O(1) skips. With p/n = 50/1000-style sparsity most random distance
    // redraws touch no member.
    let n = 200;
    let problem = SyntheticConfig::paper(n).generate(9);
    let init = greedy_b(&problem, 10, GreedyBConfig::default());
    let mut session = DynamicSession::new(&problem, &init);
    session.update_until_stable(1000);
    let mut rng = StdRng::seed_from_u64(99);
    let (mut skipped, mut total) = (0usize, 0usize);
    for _ in 0..200 {
        let report = ingest_one(&mut session, random_distance(&mut rng, n));
        total += 1;
        if report.scan == ScanExtent::Skipped {
            skipped += 1;
        }
    }
    assert!(
        skipped * 2 > total,
        "only {skipped}/{total} scans skipped — stability tracking regressed"
    );
}

#[test]
fn session_matches_masked_naive_under_arrivals_and_departures() {
    // Mixed membership + distance scripts vs the slice-recomputing
    // masked reference: identical swaps, refills and solutions.
    for seed in 0..4u64 {
        let n = 26;
        let p = 5;
        drive_membership(
            "modular",
            || SyntheticConfig::paper(n).generate(seed + 2000),
            n,
            p,
            seed,
        );
        drive_membership("coverage", || coverage_instance(seed + 2000, n), n, p, seed);
        drive_membership("facility", || facility_instance(seed + 2000, n), n, p, seed);
        drive_membership("mixture", || mixture_instance(seed + 2000, n), n, p, seed);
    }
}

fn drive_membership<F: SetFunction>(
    label: &str,
    make: impl Fn() -> DiversificationProblem<DistanceMatrix, F>,
    n: usize,
    p: usize,
    seed: u64,
) {
    let problem = make();
    let mut mirror = make();
    let init = greedy_b(&problem, p, GreedyBConfig::default());
    let mut session = DynamicSession::new(&problem, &init);
    let mut sol = init.clone();
    let mut active = vec![true; n];
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(97).wrapping_add(13));
    for step in 0..40 {
        let pert = match rng.gen_range(0..4u32) {
            0 => SessionPerturbation::Arrive {
                u: rng.gen_range(0..n) as ElementId,
            },
            1 => SessionPerturbation::Depart {
                u: rng.gen_range(0..n) as ElementId,
            },
            _ => random_distance(&mut rng, n).into(),
        };
        // Mirror the session's repair semantics on the naive state.
        match pert {
            SessionPerturbation::Arrive { u } => {
                if !active[u as usize] {
                    active[u as usize] = true;
                    while sol.len() < p {
                        if session_refill_naive(&mirror, &active, &mut sol).is_none() {
                            break;
                        }
                    }
                }
            }
            SessionPerturbation::Depart { u } => {
                if active[u as usize] {
                    active[u as usize] = false;
                    if let Some(idx) = sol.iter().position(|&x| x == u) {
                        sol.swap_remove(idx);
                        session_refill_naive(&mirror, &active, &mut sol);
                    }
                }
            }
            SessionPerturbation::SetDistance { u, v, value } => {
                mirror.metric_mut().set(u, v, value);
            }
            SessionPerturbation::SetWeight { .. } => unreachable!(),
        }
        let report = ingest_one(&mut session, pert);
        let expected = session_update_step_naive(&mirror, &active, &mut sol);
        assert_eq!(
            report.outcome.swap, expected,
            "{label} seed {seed} step {step}: swap diverged"
        );
        assert_eq!(
            session.solution(),
            &sol[..],
            "{label} seed {seed} step {step}: solution diverged"
        );
        for u in 0..n as ElementId {
            assert_eq!(
                session.is_active(u),
                active[u as usize],
                "{label} seed {seed} step {step}: mask diverged"
            );
        }
    }
}

#[cfg(feature = "parallel")]
mod parallel_equivalence {
    use super::*;
    use msd_bench::support::OneReport;
    use msd_core::{ScanPool, ServingFrontend};
    use msd_submodular::ModularFunction;
    use std::sync::Arc;

    /// Serial session, parallel session and fresh parallel rebuild must
    /// agree swap for swap (CI forces real chunking through
    /// `MSD_PARALLEL_THREADS`).
    #[test]
    fn parallel_session_is_bit_identical_across_qualities() {
        for seed in 0..3u64 {
            check(
                "modular",
                || SyntheticConfig::paper(36).generate(seed + 3000),
                6,
                seed,
            );
            check("coverage", || coverage_instance(seed + 3000, 30), 6, seed);
            check("facility", || facility_instance(seed + 3000, 24), 5, seed);
            check("mixture", || mixture_instance(seed + 3000, 24), 5, seed);
        }
    }

    fn check<F: SetFunction + Sync>(
        label: &str,
        make: impl Fn() -> DiversificationProblem<DistanceMatrix, F>,
        p: usize,
        seed: u64,
    ) {
        let problem = make();
        let sync_problem = make();
        let mut mirror = make();
        let n = problem.ground_size();
        let init = greedy_b(&problem, p, GreedyBConfig::default());
        let mut serial =
            DynamicSession::new(&problem, &init).with_scan_pool(Arc::new(ScanPool::new(1)));
        let mut parallel = DynamicSession::new(&sync_problem, &init);
        let mut sol = init.clone();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(61).wrapping_add(3));
        for step in 0..25 {
            let pert = random_distance(&mut rng, n);
            if let Perturbation::SetDistance { u, v, value } = pert {
                mirror.metric_mut().set(u, v, value);
            }
            let a = ingest_one(&mut serial, pert);
            // A pool-less session: its full scans chunk on the global pool.
            let b = OneReport::from(ingest_one(&mut parallel, pert));
            assert_eq!(
                (a.outcome, a.refills.last().copied(), a.scan),
                (b.outcome, b.refill, b.scan),
                "{label} seed {seed} step {step}: reports diverged"
            );
            let expected =
                msd_core::parallel::oblivious_update_step_in(ScanPool::global(), &mirror, &mut sol);
            assert_eq!(
                a.outcome.swap, expected.swap,
                "{label} seed {seed} step {step}: swap diverged from rebuild"
            );
            assert_eq!(serial.solution(), parallel.solution());
            assert_eq!(serial.solution(), &sol[..]);
        }
    }

    /// A shared (`Arc`) quality keeps its specialized oracle on the pooled
    /// path: strict weight bursts are accepted, and the session matches
    /// the owned-quality one swap for swap with equal objective bits.
    #[test]
    fn arc_quality_session_accepts_weight_bursts_on_a_pool() {
        let owned_problem = SyntheticConfig::paper(30).generate(4100);
        let shared_problem = DiversificationProblem::new(
            owned_problem.metric().clone(),
            Arc::new(owned_problem.quality().clone()),
            owned_problem.lambda(),
        );
        let init = greedy_b(&owned_problem, 5, GreedyBConfig::default());
        let mut owned =
            DynamicSession::new(&owned_problem, &init).with_scan_pool(Arc::new(ScanPool::new(1)));
        let mut shared =
            DynamicSession::new(&shared_problem, &init).with_scan_pool(Arc::new(ScanPool::new(4)));
        let mut rng = StdRng::seed_from_u64(4101);
        for burst_idx in 0..8 {
            let burst: Vec<SessionPerturbation> = (0..6)
                .map(|_| SessionPerturbation::SetWeight {
                    u: rng.gen_range(0..30u32),
                    value: rng.gen_range(0.0..2.0),
                })
                .collect();
            let a = owned
                .ingest(&burst[..])
                .expect("owned quality accepts weights");
            let b = shared
                .ingest(&burst[..])
                .expect("Arc quality accepts weights");
            assert_eq!(a, b, "burst {burst_idx}: reports diverged");
            assert_eq!(
                owned.update_until_stable(64),
                shared.update_until_stable(64),
                "burst {burst_idx}: stabilization swap counts diverged"
            );
            assert_eq!(owned.solution(), shared.solution(), "burst {burst_idx}");
            assert_eq!(
                owned.objective().to_bits(),
                shared.objective().to_bits(),
                "burst {burst_idx}"
            );
        }
    }

    /// The same fix through the serving frontend: a tenant registered
    /// with an `Arc` quality flushes a weight update instead of
    /// rejecting it.
    #[test]
    fn arc_quality_tenant_accepts_weight_updates_on_a_pool() {
        let problem = SyntheticConfig::paper(30).generate(4200);
        let base = Arc::new(problem.metric().clone());
        let quality: Arc<ModularFunction> = Arc::new(problem.quality().clone());
        let init = greedy_b(&problem, 5, GreedyBConfig::default());
        let mut frontend = ServingFrontend::new(base).with_scan_pool(Arc::new(ScanPool::new(4)));
        let t = frontend.register_tenant(&quality, problem.lambda(), &init);
        frontend
            .try_submit(t, SessionPerturbation::SetWeight { u: 0, value: 1.5 })
            .expect("queued");
        let response = frontend.query(t);
        assert!(response.rejected.is_none(), "{:?}", response.rejected);
        assert_eq!(response.flushed, 1);
    }
}
