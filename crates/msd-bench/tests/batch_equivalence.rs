//! Equivalence suite for batched [`DynamicSession::ingest`] and the bounded
//! best-swap candidate cache.
//!
//! **Batch semantics.** `ingest` applies every perturbation's O(Δ)
//! repair in order (departure removals included), then runs **one**
//! batch-final greedy refill pass toward `p` over the union state
//! (ROADMAP follow-up (e)) and defers the swap work behind one
//! union-scoped scan. The bit-identical reference is therefore
//! *sequential ingestion with deferred refills and deferred swaps*:
//! apply each perturbation of the batch, in order, to a mirrored
//! instance (weights/distances mutated, availability mask replayed),
//! replay the greedy refill loop once at batch end, then stabilize with
//! the slice-recomputing oblivious rule
//! ([`session_stabilize_naive`]). The batch's single swap plus its
//! `update_until_stable` tail must reproduce that reference swap for
//! swap and solution for solution — across random scripts of mixed
//! batches (weights, distances, arrivals, departures, in-batch
//! duplicates, empty batches), all four quality families, serial and
//! with `MSD_PARALLEL_THREADS` forced chunking.
//!
//! (Interleaving a *scan* after every perturbation — k sequential
//! `apply` calls — takes best-improvement steps against intermediate
//! objectives and can legitimately hill-climb to a different local
//! optimum of the final instance; the deferred-ingestion reference is
//! the semantics `ingest` promises and the one that is provably
//! bit-identical, tie-breaks included.)
//!
//! **Candidate cache.** For any capacity `K` the cache is pure
//! scheduling: on tie-heavy instances (every distance/weight a multiple
//! of 0.25, so all gain arithmetic is exact and ties really tie),
//! `K ∈ {0, 1, p, n}` must pick lowest-index-identical swaps, with
//! `K = 0` never taking the cached path — it degrades to the full-scan
//! behavior the session had before the cache existed.

use msd_bench::naive::session_stabilize_naive;
use msd_bench::support::{coverage_instance, facility_instance, ingest_lenient};
use msd_core::{
    greedy_b, DiversificationProblem, DynamicSession, ElementId, GreedyBConfig, ScanExtent,
    SessionPerturbation,
};
use msd_data::SyntheticConfig;
use msd_metric::DistanceMatrix;
use msd_submodular::{
    CoverageFunction, FacilityLocationFunction, MixtureFunction, ModularFunction, SetFunction,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn mixture_instance(
    seed: u64,
    n: usize,
) -> DiversificationProblem<DistanceMatrix, MixtureFunction> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3417);
    let coverage = coverage_instance(seed, n, 2 * n / 3 + 1, 1, 6);
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
    let quality = MixtureFunction::new(n)
        .with(0.7, coverage.quality().clone())
        .with(1.3, ModularFunction::new(weights));
    let metric = DistanceMatrix::from_fn(n, |_, _| rng.gen_range(1.0..2.0));
    DiversificationProblem::new(metric, quality, 0.25)
}

/// One random batch: sizes 0 (empty) to 7, mixing distances,
/// arrivals/departures, weights (modular-quality scripts only) and
/// explicit in-batch duplicates of an earlier perturbation.
fn random_batch(
    rng: &mut StdRng,
    n: usize,
    with_weights: bool,
    members: &[ElementId],
) -> Vec<SessionPerturbation> {
    let len = match rng.gen_range(0..8u32) {
        0 => 0,
        x => x as usize,
    };
    let mut batch: Vec<SessionPerturbation> = Vec::with_capacity(len);
    while batch.len() < len {
        // One in five: duplicate an earlier perturbation of this batch.
        if !batch.is_empty() && rng.gen_range(0..5u32) == 0 {
            let dup = batch[rng.gen_range(0..batch.len())];
            batch.push(dup);
            continue;
        }
        let pert = match rng.gen_range(0..8u32) {
            0 => SessionPerturbation::Arrive {
                u: rng.gen_range(0..n) as ElementId,
            },
            1 => SessionPerturbation::Depart {
                u: rng.gen_range(0..n) as ElementId,
            },
            2 | 3 if with_weights => {
                // Half the weight rewrites target a current member (the
                // row-breaking direction the candidate cache answers).
                let u = if rng.gen_bool(0.5) && !members.is_empty() {
                    members[rng.gen_range(0..members.len())]
                } else {
                    rng.gen_range(0..n) as ElementId
                };
                SessionPerturbation::SetWeight {
                    u,
                    value: rng.gen_range(0.0..1.0),
                }
            }
            _ => {
                let u = rng.gen_range(0..n) as ElementId;
                let mut v = rng.gen_range(0..n) as ElementId;
                while v == u {
                    v = rng.gen_range(0..n) as ElementId;
                }
                SessionPerturbation::SetDistance {
                    u,
                    v,
                    value: rng.gen_range(1.0..2.0),
                }
            }
        };
        batch.push(pert);
    }
    batch
}

/// Replays one batch's ingestion onto the mirrored reference state:
/// problem mutation and availability mask in the session's ingestion
/// order, then the **batch-final** greedy refill loop toward `p` over
/// the union state (the deferred-refill contract of `ingest`).
fn ingest_into_mirror<F: SetFunction>(
    batch: &[SessionPerturbation],
    mirror: &mut DiversificationProblem<DistanceMatrix, F>,
    set_weight: impl Fn(&mut DiversificationProblem<DistanceMatrix, F>, ElementId, f64),
    active: &mut [bool],
    sol: &mut Vec<ElementId>,
    p: usize,
) {
    let mut refill = false;
    for &pert in batch {
        match pert {
            SessionPerturbation::SetWeight { u, value } => set_weight(mirror, u, value),
            SessionPerturbation::SetDistance { u, v, value } => {
                mirror.metric_mut().set(u, v, value)
            }
            SessionPerturbation::Arrive { u } => {
                if !active[u as usize] {
                    active[u as usize] = true;
                    refill |= sol.len() < p;
                }
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
        }
    }
    if refill {
        while sol.len() < p {
            if msd_bench::naive::session_refill_naive(mirror, active, sol).is_none() {
                break;
            }
        }
    }
}

/// Drives `batches` random batches through `ingest` + stabilization
/// and through the deferred-ingestion naive reference; asserts swaps,
/// solutions, masks and objective agree after every batch.
#[allow(clippy::too_many_arguments)]
fn drive_batches<F: SetFunction>(
    label: &str,
    make: impl Fn() -> DiversificationProblem<DistanceMatrix, F>,
    set_weight: impl Fn(&mut DiversificationProblem<DistanceMatrix, F>, ElementId, f64) + Copy,
    n: usize,
    p: usize,
    with_weights: bool,
    seed: u64,
    batches: usize,
) {
    let problem = make();
    let mut mirror = make();
    let init = greedy_b(&problem, p, GreedyBConfig::default());
    let mut session = DynamicSession::new(&problem, &init);
    let mut sol = init.clone();
    let mut active = vec![true; n];
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(73).wrapping_add(11));
    session.update_until_stable(300);
    session_stabilize_naive(&mirror, &active, &mut sol, 300);
    assert_eq!(session.solution(), &sol[..], "{label}: seed state diverged");
    let mut saw_empty = false;
    let mut saw_skip = false;
    for batch_idx in 0..batches {
        let batch = random_batch(&mut rng, n, with_weights, session.solution());
        saw_empty |= batch.is_empty();
        ingest_into_mirror(&batch, &mut mirror, set_weight, &mut active, &mut sol, p);
        let report = ingest_lenient(&mut session, &batch[..]);
        assert_eq!(report.ingested, batch.len());
        saw_skip |= report.scan == ScanExtent::Skipped;
        // Batch swap + stabilization tail vs the naive reference, swap
        // for swap.
        let expected = session_stabilize_naive(&mirror, &active, &mut sol, 300);
        let mut got = Vec::new();
        if let Some(s) = report.outcome.swap {
            got.push(s);
        }
        while let Some(s) = session.step().swap {
            got.push(s);
        }
        assert_eq!(
            got, expected,
            "{label} seed {seed} batch {batch_idx}: swap sequence diverged ({batch:?})"
        );
        assert_eq!(
            session.solution(),
            &sol[..],
            "{label} seed {seed} batch {batch_idx}: solution diverged"
        );
        for u in 0..n as ElementId {
            assert_eq!(
                session.is_active(u),
                active[u as usize],
                "{label} seed {seed} batch {batch_idx}: mask diverged"
            );
        }
        let direct = mirror.objective(&sol);
        assert!(
            (session.objective() - direct).abs() < 1e-9 * direct.abs().max(1.0),
            "{label} seed {seed} batch {batch_idx}: cached objective drifted"
        );
    }
    assert!(saw_empty, "{label}: scripts must include an empty batch");
    assert!(
        saw_skip,
        "{label}: scripts must include a provably-irrelevant batch"
    );
}

#[test]
fn apply_batch_matches_the_sequential_ingestion_reference_on_modular() {
    for seed in 0..4u64 {
        drive_batches(
            "modular",
            || SyntheticConfig::paper(30).generate(seed + 5000),
            |problem, u, value| problem.quality_mut().set_weight(u, value),
            30,
            6,
            true,
            seed,
            25,
        );
    }
}

#[test]
fn apply_batch_matches_the_sequential_ingestion_reference_on_other_families() {
    fn no_weights<F: SetFunction>(
        _: &mut DiversificationProblem<DistanceMatrix, F>,
        _: ElementId,
        _: f64,
    ) {
        unreachable!("weight perturbations are modular-only in these scripts")
    }
    for seed in 0..3u64 {
        drive_batches::<CoverageFunction>(
            "coverage",
            || coverage_instance(seed + 5100, 26, 18, 1, 6),
            no_weights,
            26,
            5,
            false,
            seed,
            20,
        );
        drive_batches::<FacilityLocationFunction>(
            "facility",
            || facility_instance(seed + 5200, 22, 14),
            no_weights,
            22,
            5,
            false,
            seed,
            16,
        );
        drive_batches::<MixtureFunction>(
            "mixture",
            || mixture_instance(seed + 5300, 22),
            no_weights,
            22,
            5,
            false,
            seed,
            16,
        );
    }
}

// ---------------------------------------------------------------------------
// Candidate-cache adversarial equivalence: tie-heavy, exact arithmetic.
// ---------------------------------------------------------------------------

/// Tie-heavy modular instance: every distance in {1.0, 1.5, 2.0}, every
/// weight a multiple of 0.25, λ = 0.5 — all gain arithmetic is exact in
/// f64, so equal gains are *exactly* equal and the lowest-index
/// tie-break discipline really decides.
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

/// One tie-set perturbation (values stay exactly representable).
fn tie_perturbation(rng: &mut StdRng, n: usize, members: &[ElementId]) -> SessionPerturbation {
    match rng.gen_range(0..10u32) {
        0 => SessionPerturbation::Arrive {
            u: rng.gen_range(0..n) as ElementId,
        },
        1 => SessionPerturbation::Depart {
            u: rng.gen_range(0..n) as ElementId,
        },
        2..=4 => {
            // Weight rewrites, half aimed at members so row breaks (the
            // cached path) occur regularly.
            let u = if rng.gen_bool(0.5) && !members.is_empty() {
                members[rng.gen_range(0..members.len())]
            } else {
                rng.gen_range(0..n) as ElementId
            };
            SessionPerturbation::SetWeight {
                u,
                value: f64::from(rng.gen_range(0..5u32)) * 0.25,
            }
        }
        _ => {
            let u = rng.gen_range(0..n) as ElementId;
            let mut v = rng.gen_range(0..n) as ElementId;
            while v == u {
                v = rng.gen_range(0..n) as ElementId;
            }
            SessionPerturbation::SetDistance {
                u,
                v,
                value: [1.0, 1.5, 2.0][rng.gen_range(0..3usize)],
            }
        }
    }
}

#[test]
fn candidate_cache_capacities_agree_on_tie_heavy_instances() {
    let n = 18;
    let p = 5;
    for seed in 0..4u64 {
        let problems: Vec<_> = (0..4).map(|_| tie_heavy_instance(seed, n)).collect();
        let mut mirror = tie_heavy_instance(seed, n);
        let init = greedy_b(&problems[0], p, GreedyBConfig::default());
        let ks = [0usize, 1, p, n];
        let mut sessions: Vec<_> = ks
            .iter()
            .zip(&problems)
            .map(|(&k, problem)| {
                let mut s = DynamicSession::new(problem, &init).with_candidate_cache(k);
                s.update_until_stable(300);
                s
            })
            .collect();
        let mut sol = init.clone();
        let mut active = vec![true; n];
        session_stabilize_naive(&mirror, &active, &mut sol, 300);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(41).wrapping_add(5));
        let (mut saw_cached, mut saw_k0_full_on_row_break) = (0usize, 0usize);
        for step in 0..120 {
            let pert = tie_perturbation(&mut rng, n, sessions[0].solution());
            // Mirror the repair, then take the naive reference step.
            match pert {
                SessionPerturbation::SetWeight { u, value } => {
                    mirror.quality_mut().set_weight(u, value)
                }
                SessionPerturbation::SetDistance { u, v, value } => {
                    mirror.metric_mut().set(u, v, value)
                }
                SessionPerturbation::Arrive { u } => {
                    if !active[u as usize] {
                        active[u as usize] = true;
                        while sol.len() < p {
                            if msd_bench::naive::session_refill_naive(&mirror, &active, &mut sol)
                                .is_none()
                            {
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
                            msd_bench::naive::session_refill_naive(&mirror, &active, &mut sol);
                        }
                    }
                }
            }
            let reports: Vec<_> = sessions
                .iter_mut()
                .map(|s| ingest_lenient(s, std::slice::from_ref(&pert)))
                .collect();
            let expected = msd_bench::naive::session_update_step_naive(&mirror, &active, &mut sol);
            for (k, report) in ks.iter().zip(&reports) {
                assert_eq!(
                    report.outcome.swap, expected,
                    "seed {seed} step {step} K={k}: swap diverged from the naive reference"
                );
            }
            for s in &sessions {
                assert_eq!(
                    s.solution(),
                    &sol[..],
                    "seed {seed} step {step}: solutions diverged across K"
                );
            }
            // K = 0 must degrade to exactly the cache-free behavior: never
            // the cached path, and a full scan wherever K = n verified
            // through the cache.
            assert_ne!(
                reports[0].scan,
                ScanExtent::Cached,
                "K = 0 took the cached path"
            );
            if reports[3].scan == ScanExtent::Cached {
                saw_cached += 1;
                assert_eq!(
                    reports[0].scan,
                    ScanExtent::Full,
                    "seed {seed} step {step}: K = 0 must full-scan where the cache verifies"
                );
                saw_k0_full_on_row_break += 1;
            }
            // Extents other than Cached/Full must agree everywhere (the
            // skip and column logic is cache-independent).
            if matches!(reports[0].scan, ScanExtent::Skipped | ScanExtent::Column) {
                for r in &reports {
                    assert_eq!(r.scan, reports[0].scan);
                }
            }
        }
        assert!(
            saw_cached > 0,
            "seed {seed}: the cached path never engaged — the adversarial script is toothless"
        );
        assert!(saw_k0_full_on_row_break > 0);
    }
}

// ---------------------------------------------------------------------------
// Forced-chunking parallel equivalence.
// ---------------------------------------------------------------------------

mod parallel_equivalence {
    use super::*;
    use msd_core::ScanPool;
    use std::sync::Arc;

    /// A serial session, a pooled one (chunked scans) and the
    /// deferred-ingestion naive reference must agree batch for batch (CI
    /// forces real chunking through `MSD_PARALLEL_THREADS`).
    #[test]
    fn parallel_apply_batch_is_bit_identical_across_qualities() {
        check(
            "modular",
            || SyntheticConfig::paper(30).generate(6000),
            true,
            30,
            6,
        );
        check(
            "coverage",
            || coverage_instance(6100, 26, 18, 1, 6),
            false,
            26,
            5,
        );
        check("facility", || facility_instance(6200, 22, 14), false, 22, 5);
        check("mixture", || mixture_instance(6300, 22), false, 22, 5);
    }

    fn check<F: SetFunction>(
        label: &str,
        make: impl Fn() -> DiversificationProblem<DistanceMatrix, F>,
        with_weights: bool,
        n: usize,
        p: usize,
    ) {
        let problem = make();
        let sync_problem = make();
        let init = greedy_b(&problem, p, GreedyBConfig::default());
        let mut serial =
            DynamicSession::new(&problem, &init).with_scan_pool(Arc::new(ScanPool::new(1)));
        let mut parallel = DynamicSession::new(&sync_problem, &init);
        serial.update_until_stable(300);
        parallel.update_until_stable(300);
        let mut rng = StdRng::seed_from_u64(0xBA7C4 ^ n as u64);
        for batch_idx in 0..15 {
            let batch = random_batch(&mut rng, n, with_weights, serial.solution());
            let a = ingest_lenient(&mut serial, &batch[..]);
            let b = ingest_lenient(&mut parallel, &batch[..]);
            assert_eq!(
                a, b,
                "{label} batch {batch_idx}: serial and parallel batch reports diverged"
            );
            serial.update_until_stable(300);
            parallel.update_until_stable(300);
            assert_eq!(
                serial.solution(),
                parallel.solution(),
                "{label} batch {batch_idx}"
            );
            assert_eq!(
                serial.objective(),
                parallel.objective(),
                "{label} batch {batch_idx}"
            );
        }
    }
}
