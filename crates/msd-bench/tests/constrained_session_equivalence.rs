//! Equivalence suite for **constrained** dynamic sessions: a
//! [`DynamicSession`] carrying a [`ConstraintPolicy`] (matroid exchange
//! scans, knapsack density scans) must reproduce the slice-recomputing
//! masked naive references swap for swap and refill for refill, across
//! random perturbation scripts with arrivals and departures, every
//! matroid family in the workspace, all four quality families, both the
//! serial and the forced-chunking parallel scans, and tie-heavy
//! exact-arithmetic instances where the lowest-index tie-break really
//! decides. Every stabilized solution is additionally asserted feasible
//! (independent / within budget).

use msd_bench::naive::{
    session_refill_knapsack_naive, session_refill_matroid_naive,
    session_update_step_knapsack_naive, session_update_step_matroid_naive,
};
use msd_bench::support::ingest_legacy;
use msd_core::{
    greedy_b, ConstraintPolicy, DiversificationProblem, DynamicSession, ElementId, GreedyBConfig,
    SessionPerturbation,
};
use msd_data::SyntheticConfig;
use msd_matroid::{
    GraphicMatroid, LaminarMatroid, Matroid, PartitionMatroid, TransversalMatroid,
    TruncatedMatroid, UniformMatroid,
};
use msd_metric::DistanceMatrix;
use msd_submodular::{
    CoverageFunction, FacilityLocationFunction, MixtureFunction, ModularFunction, SetFunction,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Instances (same builders as the unconstrained session suite).

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

/// Tie-heavy modular instance: every distance in {1.0, 1.5, 2.0}, every
/// weight a multiple of 0.25, λ = 0.5 — all gain arithmetic is exact in
/// f64, so equal gains (and equal densities, with the power-of-two costs
/// used below) are *exactly* equal and the lowest-index tie-break
/// discipline really decides.
fn tie_heavy_instance(
    seed: u64,
    n: usize,
) -> DiversificationProblem<DistanceMatrix, ModularFunction> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x5DEECE66D).wrapping_add(0xB));
    let weights: Vec<f64> = (0..n)
        .map(|_| f64::from(rng.gen_range(0..5u32)) * 0.25)
        .collect();
    let metric = DistanceMatrix::from_fn(n, |_, _| [1.0, 1.5, 2.0][rng.gen_range(0..3usize)]);
    DiversificationProblem::new(metric, ModularFunction::new(weights), 0.5)
}

// ---------------------------------------------------------------------------
// Matroid families over a ground set of size `n`.

/// Every matroid family in the workspace, instantiated over `n` elements
/// with a rank small enough that exchanges bind.
fn matroid_families(n: usize) -> Vec<(&'static str, Box<dyn Matroid + Sync>)> {
    let blocks: Vec<u32> = (0..n as u32).map(|u| u % 3).collect();
    let partition = PartitionMatroid::new(blocks.clone(), vec![3, 2, 2]);
    let third = n / 3;
    vec![
        ("uniform", Box::new(UniformMatroid::new(n, 6))),
        ("partition", Box::new(partition.clone())),
        ("truncated", Box::new(TruncatedMatroid::new(partition, 4))),
        (
            "graphic",
            Box::new(GraphicMatroid::new(
                8,
                (0..n as u32).map(|i| (i % 8, (i * 3 + 1) % 8)).collect(),
            )),
        ),
        (
            "laminar",
            Box::new(LaminarMatroid::new(
                n,
                vec![
                    ((0..third as ElementId).collect(), 2),
                    ((third as ElementId..2 * third as ElementId).collect(), 2),
                    ((0..n as ElementId).collect(), 5),
                ],
            )),
        ),
        (
            "transversal",
            Box::new(TransversalMatroid::new(
                n,
                &(0..4usize)
                    .map(|j| {
                        (0..n as ElementId)
                            .filter(|&u| u as usize % 4 == j || u as usize % 7 == j)
                            .collect()
                    })
                    .collect::<Vec<Vec<ElementId>>>(),
            )),
        ),
    ]
}

// ---------------------------------------------------------------------------
// The driver: random membership + distance (+ optional weight) scripts,
// session vs masked slice-recomputing naive reference.

/// The constraint under test — carries exactly what both the session
/// builder and the naive reference need.
enum Reference<'a> {
    Matroid(&'a (dyn Matroid + Sync)),
    Knapsack { costs: &'a [f64], budget: f64 },
}

impl<'a> Reference<'a> {
    /// Builds the constrained session over `problem` starting at `init`.
    fn session<'q, F: SetFunction>(
        &self,
        problem: &'q DiversificationProblem<DistanceMatrix, F>,
        init: &[ElementId],
    ) -> DynamicSession<'q, DistanceMatrix>
    where
        'a: 'q,
    {
        let session = DynamicSession::new(problem, init);
        match self {
            Reference::Matroid(m) => session.with_matroid(*m),
            Reference::Knapsack { costs, budget } => session.with_knapsack(costs.to_vec(), *budget),
        }
    }

    fn step<F: SetFunction>(
        &self,
        mirror: &DiversificationProblem<DistanceMatrix, F>,
        active: &[bool],
        sol: &mut Vec<ElementId>,
    ) -> Option<(ElementId, ElementId)> {
        match self {
            Reference::Matroid(m) => session_update_step_matroid_naive(mirror, *m, active, sol),
            Reference::Knapsack { costs, budget } => {
                session_update_step_knapsack_naive(mirror, costs, *budget, active, sol)
            }
        }
    }

    fn refill<F: SetFunction>(
        &self,
        mirror: &DiversificationProblem<DistanceMatrix, F>,
        active: &[bool],
        sol: &mut Vec<ElementId>,
    ) -> Option<ElementId> {
        match self {
            Reference::Matroid(m) => session_refill_matroid_naive(mirror, *m, active, sol),
            Reference::Knapsack { costs, budget } => {
                session_refill_knapsack_naive(mirror, costs, *budget, active, sol)
            }
        }
    }

    fn assert_feasible(&self, label: &str, step: usize, sol: &[ElementId]) {
        match self {
            Reference::Matroid(m) => assert!(
                m.is_independent(sol),
                "{label} step {step}: solution left the matroid"
            ),
            Reference::Knapsack { costs, budget } => {
                let load: f64 = sol.iter().map(|&u| costs[u as usize]).sum();
                assert!(
                    load <= *budget,
                    "{label} step {step}: load {load} exceeds budget {budget}"
                );
            }
        }
    }
}

/// Generates one script step: arrivals, departures (biased toward
/// members so refills actually fire), distance redraws, and — when
/// `tie_exact` — weight rewrites on the same exact tie grid as
/// [`tie_heavy_instance`].
fn script_step(
    rng: &mut StdRng,
    n: usize,
    members: &[ElementId],
    tie_exact: bool,
) -> SessionPerturbation {
    match rng.gen_range(0..8u32) {
        0 => SessionPerturbation::Arrive {
            u: rng.gen_range(0..n) as ElementId,
        },
        1 | 2 => SessionPerturbation::Depart {
            u: if rng.gen_bool(0.5) && !members.is_empty() {
                members[rng.gen_range(0..members.len())]
            } else {
                rng.gen_range(0..n) as ElementId
            },
        },
        3 if tie_exact => SessionPerturbation::SetWeight {
            u: rng.gen_range(0..n) as ElementId,
            value: f64::from(rng.gen_range(0..5u32)) * 0.25,
        },
        _ => {
            let u = rng.gen_range(0..n) as ElementId;
            let mut v = rng.gen_range(0..n) as ElementId;
            while v == u {
                v = rng.gen_range(0..n) as ElementId;
            }
            SessionPerturbation::SetDistance {
                u,
                v,
                value: if tie_exact {
                    [1.0, 1.5, 2.0][rng.gen_range(0..3usize)]
                } else {
                    rng.gen_range(1.0..2.0)
                },
            }
        }
    }
}

/// Replays `pert` on the naive mirror with the session's single-apply
/// semantics: membership mutates the mask/solution, a shortfall from an
/// arrival or a member departure is greedily refilled (constraint-aware)
/// before the swap step. Weight rewrites only occur in modular scripts.
fn mirror_ingest<F: SetFunction>(
    mirror: &mut DiversificationProblem<DistanceMatrix, F>,
    reference: &Reference,
    active: &mut [bool],
    sol: &mut Vec<ElementId>,
    p: usize,
    pert: SessionPerturbation,
    set_weight: impl FnOnce(&mut DiversificationProblem<DistanceMatrix, F>, ElementId, f64),
) {
    let mut refill = false;
    match pert {
        SessionPerturbation::Arrive { u } => {
            active[u as usize] = true;
            refill = sol.len() < p;
        }
        SessionPerturbation::Depart { u } => {
            if active[u as usize] {
                active[u as usize] = false;
                if let Some(idx) = sol.iter().position(|&x| x == u) {
                    sol.swap_remove(idx);
                    refill = true;
                }
            }
        }
        SessionPerturbation::SetDistance { u, v, value } => {
            mirror.metric_mut().set(u, v, value);
        }
        SessionPerturbation::SetWeight { u, value } => set_weight(mirror, u, value),
    }
    if refill {
        while sol.len() < p {
            if reference.refill(mirror, active, sol).is_none() {
                break;
            }
        }
    }
}

/// Drives `steps` random script steps through a constrained session and
/// the masked naive mirror; asserts bit-identical swaps, solutions, and
/// feasibility at every step. `tie_exact` additionally enables weight
/// rewrites (modular quality only — `set_weight` must handle them).
#[allow(clippy::too_many_arguments)]
fn drive_constrained<F: SetFunction>(
    label: &str,
    make: impl Fn() -> DiversificationProblem<DistanceMatrix, F>,
    reference: &Reference,
    init: &[ElementId],
    seed: u64,
    steps: usize,
    tie_exact: bool,
    set_weight: impl Fn(&mut DiversificationProblem<DistanceMatrix, F>, ElementId, f64),
) {
    let problem = make();
    let mut mirror = make();
    let n = problem.ground_size();
    let p = init.len();
    let mut session = reference.session(&problem, init);
    let mut sol = init.to_vec();
    let mut active = vec![true; n];
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(97).wrapping_add(13));
    for step in 0..steps {
        let pert = script_step(&mut rng, n, &sol, tie_exact);
        mirror_ingest(
            &mut mirror,
            reference,
            &mut active,
            &mut sol,
            p,
            pert,
            |m, u, value| set_weight(m, u, value),
        );
        let report = ingest_legacy(&mut session, pert);
        let expected = reference.step(&mirror, &active, &mut sol);
        assert_eq!(
            report.outcome.swap, expected,
            "{label} seed {seed} step {step}: swap diverged"
        );
        assert_eq!(
            session.solution(),
            &sol[..],
            "{label} seed {seed} step {step}: solution diverged"
        );
        reference.assert_feasible(label, step, session.solution());
    }
}

/// `set_weight` stub for non-modular scripts (weight rewrites disabled).
fn no_weights<F: SetFunction>(
    _: &mut DiversificationProblem<DistanceMatrix, F>,
    _: ElementId,
    _: f64,
) {
    unreachable!("weight perturbations are only generated in tie-exact scripts");
}

/// Deterministic knapsack fixture: random costs, an initial greedy
/// solution, and a budget slightly above its load so the constraint
/// binds (upgrades to costlier elements must compete on density).
fn knapsack_fixture<F: SetFunction>(
    problem: &DiversificationProblem<DistanceMatrix, F>,
    p: usize,
    seed: u64,
) -> (Vec<f64>, f64, Vec<ElementId>) {
    let n = problem.ground_size();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC057);
    let costs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..1.5)).collect();
    let init = greedy_b(problem, p, GreedyBConfig::default());
    let load: f64 = init.iter().map(|&u| costs[u as usize]).sum();
    (costs, load + 0.4, init)
}

// ---------------------------------------------------------------------------
// Serial equivalence.

#[test]
fn matroid_sessions_match_masked_naive_across_families() {
    let n = 26;
    for seed in 0..3u64 {
        for (family, matroid) in matroid_families(n) {
            let reference = Reference::Matroid(matroid.as_ref());
            let init = matroid.extend_to_basis(&[]);
            drive_constrained(
                family,
                || SyntheticConfig::paper(n).generate(seed + 4000),
                &reference,
                &init,
                seed,
                40,
                false,
                no_weights,
            );
        }
    }
}

#[test]
fn matroid_sessions_match_masked_naive_across_quality_families() {
    let n = 24;
    for seed in 0..2u64 {
        let blocks: Vec<u32> = (0..n as u32).map(|u| u % 3).collect();
        let matroid = PartitionMatroid::new(blocks, vec![2, 2, 2]);
        let init = matroid.extend_to_basis(&[]);
        let reference = Reference::Matroid(&matroid);
        drive_constrained(
            "matroid/modular",
            || SyntheticConfig::paper(n).generate(seed + 5000),
            &reference,
            &init,
            seed,
            30,
            false,
            no_weights,
        );
        drive_constrained(
            "matroid/coverage",
            || coverage_instance(seed + 5000, n),
            &reference,
            &init,
            seed,
            30,
            false,
            no_weights,
        );
        drive_constrained(
            "matroid/facility",
            || facility_instance(seed + 5000, n),
            &reference,
            &init,
            seed,
            30,
            false,
            no_weights,
        );
        drive_constrained(
            "matroid/mixture",
            || mixture_instance(seed + 5000, n),
            &reference,
            &init,
            seed,
            30,
            false,
            no_weights,
        );
    }
}

#[test]
fn knapsack_sessions_match_masked_naive_across_quality_families() {
    let n = 24;
    for seed in 0..2u64 {
        fn case<F: SetFunction>(
            label: &str,
            make: impl Fn() -> DiversificationProblem<DistanceMatrix, F>,
            seed: u64,
        ) {
            let (costs, budget, init) = knapsack_fixture(&make(), 5, seed);
            let reference = Reference::Knapsack {
                costs: &costs,
                budget,
            };
            drive_constrained(label, make, &reference, &init, seed, 30, false, no_weights);
        }
        case(
            "knapsack/modular",
            || SyntheticConfig::paper(n).generate(seed + 7000),
            seed,
        );
        case(
            "knapsack/coverage",
            || coverage_instance(seed + 7000, n),
            seed,
        );
        case(
            "knapsack/facility",
            || facility_instance(seed + 7000, n),
            seed,
        );
        case(
            "knapsack/mixture",
            || mixture_instance(seed + 7000, n),
            seed,
        );
    }
}

#[test]
fn tie_heavy_constrained_sessions_keep_the_tie_break_discipline() {
    // Exact arithmetic end to end: modular tie grid for gains, and
    // power-of-two costs so knapsack densities (gain / cost) are exact
    // too — many cells score *exactly* equal and only the
    // lowest-candidate-then-earliest-member discipline separates the
    // session from the reference.
    let n = 22;
    for seed in 0..4u64 {
        let blocks: Vec<u32> = (0..n as u32).map(|u| u % 4).collect();
        let matroid = PartitionMatroid::new(blocks, vec![2, 2, 1, 2]);
        let init = matroid.extend_to_basis(&[]);
        let reference = Reference::Matroid(&matroid);
        drive_constrained(
            "tie/matroid",
            || tie_heavy_instance(seed, n),
            &reference,
            &init,
            seed,
            50,
            true,
            |m, u, value| m.quality_mut().set_weight(u, value),
        );

        let costs: Vec<f64> = (0..n).map(|u| [1.0, 2.0, 0.5, 4.0][u % 4]).collect();
        let problem = tie_heavy_instance(seed, n);
        let init = greedy_b(&problem, 5, GreedyBConfig::default());
        let load: f64 = init.iter().map(|&u| costs[u as usize]).sum();
        let budget = load + 1.0;
        let reference = Reference::Knapsack {
            costs: &costs,
            budget,
        };
        drive_constrained(
            "tie/knapsack",
            || tie_heavy_instance(seed, n),
            &reference,
            &init,
            seed,
            50,
            true,
            |m, u, value| m.quality_mut().set_weight(u, value),
        );
    }
}

#[test]
fn default_sessions_stay_on_the_cardinality_policy() {
    let problem = SyntheticConfig::paper(16).generate(1);
    let init = greedy_b(&problem, 4, GreedyBConfig::default());
    let session = DynamicSession::new(&problem, &init);
    assert!(matches!(
        session.constraint(),
        ConstraintPolicy::Cardinality
    ));
}

// ---------------------------------------------------------------------------
// Forced-parallel equivalence: an explicit 4-worker pool must chunk for
// real and still agree with the serial session and the naive reference.

#[cfg(feature = "parallel")]
mod parallel_equivalence {
    use super::*;
    use msd_bench::support::OneReport;
    use msd_core::ScanPool;
    use std::sync::Arc;

    #[test]
    fn forced_parallel_constrained_sessions_are_bit_identical() {
        let n = 26;
        for seed in 0..2u64 {
            for (family, matroid) in matroid_families(n) {
                let init = matroid.extend_to_basis(&[]);
                check(
                    family,
                    || SyntheticConfig::paper(n).generate(seed + 8000),
                    &Reference::Matroid(matroid.as_ref()),
                    &init,
                    seed,
                );
            }
            let problem = SyntheticConfig::paper(n).generate(seed + 9000);
            let (costs, budget, init) = knapsack_fixture(&problem, 5, seed);
            check(
                "knapsack",
                || SyntheticConfig::paper(n).generate(seed + 9000),
                &Reference::Knapsack {
                    costs: &costs,
                    budget,
                },
                &init,
                seed,
            );
        }
    }

    fn check(
        label: &str,
        make: impl Fn() -> DiversificationProblem<DistanceMatrix, ModularFunction>,
        reference: &Reference,
        init: &[ElementId],
        seed: u64,
    ) {
        let problem = make();
        let sync_problem = make();
        let mut mirror = make();
        let n = problem.ground_size();
        let p = init.len();
        let mut serial = reference.session(&problem, init);
        serial.set_scan_pool(Arc::new(ScanPool::new(1)));
        let mut parallel = {
            let session = DynamicSession::new(&sync_problem, init);
            match reference {
                Reference::Matroid(m) => session.with_matroid(*m),
                Reference::Knapsack { costs, budget } => {
                    session.with_knapsack(costs.to_vec(), *budget)
                }
            }
        };
        // A 4-worker pool on a 26-element ground set: chunking is real
        // (several workers get nonempty ranges) regardless of the
        // machine the suite runs on.
        parallel.set_scan_pool(Arc::new(ScanPool::new(4)));
        let mut sol = init.to_vec();
        let mut active = vec![true; n];
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(97).wrapping_add(13));
        for step in 0..30 {
            let pert = script_step(&mut rng, n, &sol, false);
            mirror_ingest(
                &mut mirror,
                reference,
                &mut active,
                &mut sol,
                p,
                pert,
                no_weights,
            );
            let a = ingest_legacy(&mut serial, pert);
            let b = OneReport::from(ingest_legacy(&mut parallel, pert));
            assert_eq!(
                (a.outcome, a.refills.last().copied(), a.scan),
                (b.outcome, b.refill, b.scan),
                "{label} seed {seed} step {step}: reports diverged"
            );
            let expected = reference.step(&mirror, &active, &mut sol);
            assert_eq!(
                a.outcome.swap, expected,
                "{label} seed {seed} step {step}: swap diverged from naive"
            );
            assert_eq!(serial.solution(), parallel.solution());
            assert_eq!(serial.solution(), &sol[..]);
            reference.assert_feasible(label, step, serial.solution());
        }
    }
}
