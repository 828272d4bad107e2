//! Fault-injection suite for the validated ingestion path: valid random
//! perturbation scripts are salted with malformed entries (NaN / infinite
//! / negative distances and weights, diagonal rewrites, out-of-range ids,
//! duplicate arrivals, departures of absent elements, weight updates on
//! families that do not support them) at a ~10% per-entry rate, and
//! driven through strict [`DynamicSession::ingest`] across all four
//! quality families, serial and under a forced 4-thread
//! [`msd_core::ScanPool`].
//!
//! The properties asserted:
//!
//! * every poisoned batch is rejected **whole** at the index of its first
//!   malformed entry, and the rejection leaves the session bit-identical
//!   (triangle bits, solution, availability mask, objective bits,
//!   stability flag) to its state before the call;
//! * after every batch — applied or rejected — the session is
//!   bit-identical to a mirror session that only ever saw the clean
//!   batches, i.e. a 10% fault rate degrades ingestion *throughput*, not
//!   ingestion *state*;
//! * in the multi-tenant [`ServingFrontend`], a repeat-poisoner tenant is
//!   quarantined after the configured number of consecutive rejected
//!   flushes while healthy tenants' answers stay bit-identical to a
//!   frontend that never saw the poisoner, and [`ServingFrontend::recover`]
//!   restores the quarantined tenant to its last good checkpoint.

use msd_core::{
    greedy_b, Batch, DiversificationProblem, DynamicSession, ElementId, GreedyBConfig,
    PerturbationError, SessionError, SessionPerturbation, Validation,
};
use msd_data::SyntheticConfig;
use msd_metric::DistanceMatrix;
use msd_submodular::{
    CoverageFunction, FacilityLocationFunction, IncrementalOracle, MixtureFunction,
    ModularFunction, SetFunction,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const P: usize = 6;
const STAB: usize = 300;

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
    msd_bench::support::facility_instance(seed ^ 0xFA17, n, n / 2 + 3)
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
        .with(1.3, ModularFunction::new(weights));
    let metric = DistanceMatrix::from_fn(n, |_, _| rng.gen_range(1.0..2.0));
    DiversificationProblem::new(metric, quality, 0.25)
}

/// Bit-level session state: triangle bits, solution, availability mask,
/// objective bits, stability flag. Two sessions with equal fingerprints
/// are indistinguishable to every read API the suite exercises.
type Fingerprint = (Vec<u64>, Vec<ElementId>, Vec<bool>, u64, bool);

fn fingerprint<Q: IncrementalOracle + ?Sized>(
    s: &DynamicSession<'_, DistanceMatrix, Q>,
    n: usize,
) -> Fingerprint {
    (
        s.metric().triangle().iter().map(|d| d.to_bits()).collect(),
        s.solution().to_vec(),
        (0..n as ElementId).map(|u| s.is_active(u)).collect(),
        s.objective().to_bits(),
        s.is_stable(),
    )
}

/// One valid perturbation against the simulated availability mask
/// (arrivals only of absent elements, departures only of resident ones —
/// exactly what the session's batch validation simulates).
fn valid_entry(
    rng: &mut StdRng,
    n: usize,
    with_weights: bool,
    mask: &mut [bool],
) -> SessionPerturbation {
    loop {
        match rng.gen_range(0..8u32) {
            0 => {
                // Arrive: needs an absent element.
                let absent: Vec<ElementId> =
                    (0..n as ElementId).filter(|&u| !mask[u as usize]).collect();
                if let Some(&u) = absent.get(rng.gen_range(0..absent.len().max(1))) {
                    mask[u as usize] = true;
                    return SessionPerturbation::Arrive { u };
                }
            }
            1 => {
                // Depart: needs a resident element.
                let resident: Vec<ElementId> =
                    (0..n as ElementId).filter(|&u| mask[u as usize]).collect();
                if let Some(&u) = resident.get(rng.gen_range(0..resident.len().max(1))) {
                    mask[u as usize] = false;
                    return SessionPerturbation::Depart { u };
                }
            }
            2 | 3 if with_weights => {
                return SessionPerturbation::SetWeight {
                    u: rng.gen_range(0..n) as ElementId,
                    value: rng.gen_range(0.0..1.0),
                }
            }
            _ => {
                let u = rng.gen_range(0..n) as ElementId;
                let mut v = rng.gen_range(0..n) as ElementId;
                while v == u {
                    v = rng.gen_range(0..n) as ElementId;
                }
                return SessionPerturbation::SetDistance {
                    u,
                    v,
                    value: rng.gen_range(1.0..2.0),
                };
            }
        }
    }
}

/// One malformed perturbation, valid-looking but rejected by ingestion.
/// `mask` is the simulated availability at the injection point, so the
/// duplicate-arrival / absent-departure shapes are malformed *there*,
/// matching the session's in-batch simulation exactly.
fn malformed_entry(
    rng: &mut StdRng,
    n: usize,
    with_weights: bool,
    mask: &[bool],
) -> SessionPerturbation {
    loop {
        match rng.gen_range(0..9u32) {
            0 => {
                return SessionPerturbation::SetDistance {
                    u: 0,
                    v: 1,
                    value: f64::NAN,
                }
            }
            1 => {
                return SessionPerturbation::SetDistance {
                    u: 1,
                    v: 2,
                    value: f64::INFINITY,
                }
            }
            2 => {
                return SessionPerturbation::SetDistance {
                    u: 0,
                    v: 2,
                    value: -1.0,
                }
            }
            3 => {
                let u = rng.gen_range(0..n) as ElementId;
                return SessionPerturbation::SetDistance {
                    u,
                    v: u,
                    value: 1.5,
                };
            }
            4 => {
                return SessionPerturbation::SetDistance {
                    u: n as ElementId,
                    v: 0,
                    value: 1.5,
                }
            }
            5 => {
                // NaN weight where weights are supported; a plain finite
                // weight rewrite is itself malformed everywhere else.
                return SessionPerturbation::SetWeight {
                    u: 0,
                    value: if with_weights { f64::NAN } else { 0.5 },
                };
            }
            6 => {
                // Duplicate arrival of a currently-resident element.
                let resident: Vec<ElementId> =
                    (0..n as ElementId).filter(|&u| mask[u as usize]).collect();
                if let Some(&u) = resident.get(rng.gen_range(0..resident.len().max(1))) {
                    return SessionPerturbation::Arrive { u };
                }
            }
            7 => {
                // Departure of an absent element.
                let absent: Vec<ElementId> =
                    (0..n as ElementId).filter(|&u| !mask[u as usize]).collect();
                if let Some(&u) = absent.get(rng.gen_range(0..absent.len().max(1))) {
                    return SessionPerturbation::Depart { u };
                }
            }
            _ => {
                return SessionPerturbation::Arrive {
                    u: n as ElementId + 7,
                }
            }
        }
    }
}

/// One batch salted at `FAULT_RATE`: each slot flips malformed with 10%
/// probability. Returns the batch, the index of the first malformed entry
/// (`None` for a clean batch), and the post-batch mask to commit iff the
/// batch is applied.
fn salted_batch(
    rng: &mut StdRng,
    n: usize,
    with_weights: bool,
    mask: &[bool],
) -> (Vec<SessionPerturbation>, Option<usize>, Vec<bool>) {
    let len = rng.gen_range(1..7usize);
    let mut local = mask.to_vec();
    let mut batch = Vec::with_capacity(len);
    let mut first_bad = None;
    for idx in 0..len {
        if rng.gen_bool(0.10) {
            batch.push(malformed_entry(rng, n, with_weights, &local));
            if first_bad.is_none() {
                first_bad = Some(idx);
            }
        } else {
            batch.push(valid_entry(rng, n, with_weights, &mut local));
        }
    }
    (batch, first_bad, local)
}

/// Drives `batches` salted batches through strict `ingest` and a mirror
/// session that only sees the clean ones; asserts rejection indices,
/// no-mutation-on-rejection, and live/mirror bit-identity after every
/// batch.
fn drive_family<F: SetFunction>(
    label: &str,
    make: impl Fn() -> DiversificationProblem<DistanceMatrix, F>,
    n: usize,
    with_weights: bool,
    seed: u64,
    batches: usize,
) {
    let problem = make();
    let mirror_problem = make();
    let init = greedy_b(&problem, P, GreedyBConfig::default());
    let mut live = DynamicSession::new(&problem, &init);
    let mut mirror = DynamicSession::new(&mirror_problem, &init);
    live.update_until_stable(STAB);
    mirror.update_until_stable(STAB);
    let mut mask = vec![true; n];
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(131).wrapping_add(17));
    let (mut poisoned, mut clean) = (0usize, 0usize);
    for batch_idx in 0..batches {
        let (batch, first_bad, post_mask) = salted_batch(&mut rng, n, with_weights, &mask);
        match first_bad {
            Some(expect_idx) => {
                let before = fingerprint(&live, n);
                let err = live
                    .ingest(&batch[..])
                    .expect_err("a salted batch must be rejected");
                let SessionError::Rejected { index, .. } = err else {
                    panic!("{label} seed {seed} batch {batch_idx}: unexpected error shape {err:?}");
                };
                assert_eq!(
                    index, expect_idx,
                    "{label} seed {seed} batch {batch_idx}: wrong rejection index ({batch:?})"
                );
                assert_eq!(
                    fingerprint(&live, n),
                    before,
                    "{label} seed {seed} batch {batch_idx}: rejection mutated the session"
                );
                poisoned += 1;
            }
            None => {
                live.ingest(&batch[..])
                    .unwrap_or_else(|e| panic!("{label}: clean batch rejected: {e:?}"));
                mirror
                    .ingest(Batch::from(&batch[..]).with_validation(Validation::Legacy))
                    .expect("legacy ingest never rejects");
                live.update_until_stable(STAB);
                mirror.update_until_stable(STAB);
                mask = post_mask;
                clean += 1;
            }
        }
        assert_eq!(
            fingerprint(&live, n),
            fingerprint(&mirror, n),
            "{label} seed {seed} batch {batch_idx}: live session diverged from the clean mirror"
        );
    }
    assert!(
        poisoned > 0 && clean > 0,
        "{label} seed {seed}: the script must mix poisoned ({poisoned}) and clean ({clean}) batches"
    );
}

#[test]
fn salted_scripts_leave_sessions_bit_identical_on_modular() {
    for seed in 0..4u64 {
        drive_family(
            "modular",
            || SyntheticConfig::paper(30).generate(seed + 9000),
            30,
            true,
            seed,
            40,
        );
    }
}

#[test]
fn salted_scripts_leave_sessions_bit_identical_on_coverage() {
    for seed in 0..3u64 {
        drive_family(
            "coverage",
            || coverage_instance(seed, 28),
            28,
            false,
            seed,
            40,
        );
    }
}

#[test]
fn salted_scripts_leave_sessions_bit_identical_on_facility() {
    for seed in 0..3u64 {
        drive_family(
            "facility",
            || facility_instance(seed, 26),
            26,
            false,
            seed,
            40,
        );
    }
}

#[test]
fn salted_scripts_leave_sessions_bit_identical_on_mixture() {
    for seed in 0..3u64 {
        drive_family(
            "mixture",
            || mixture_instance(seed, 28),
            28,
            false,
            seed,
            40,
        );
    }
}

/// Forced-chunking counterpart of [`drive_family`]: the live session runs
/// strict `ingest` chunked on an explicit 4-thread pool, the mirror
/// stays serial — validation, rollback and results must be bit-identical
/// to the serial path for any pool.
#[cfg(feature = "parallel")]
fn drive_family_parallel<F: SetFunction + Sync>(
    label: &str,
    make: impl Fn() -> DiversificationProblem<DistanceMatrix, F>,
    n: usize,
    with_weights: bool,
    seed: u64,
    batches: usize,
) {
    use msd_core::ScanPool;
    use std::sync::Arc;

    let problem = make();
    let mirror_problem = make();
    let init = greedy_b(&problem, P, GreedyBConfig::default());
    let mut live = DynamicSession::new(&problem, &init).with_scan_pool(Arc::new(ScanPool::new(4)));
    let mut mirror =
        DynamicSession::new(&mirror_problem, &init).with_scan_pool(Arc::new(ScanPool::new(1)));
    live.update_until_stable(STAB);
    mirror.update_until_stable(STAB);
    let mut mask = vec![true; n];
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(131).wrapping_add(17));
    for batch_idx in 0..batches {
        let (batch, first_bad, post_mask) = salted_batch(&mut rng, n, with_weights, &mask);
        match first_bad {
            Some(expect_idx) => {
                let before = fingerprint(&live, n);
                let err = live
                    .ingest(&batch[..])
                    .expect_err("a salted batch must be rejected");
                let SessionError::Rejected { index, .. } = err else {
                    panic!("{label} parallel: unexpected error shape {err:?}");
                };
                assert_eq!(index, expect_idx, "{label} parallel: wrong rejection index");
                assert_eq!(
                    fingerprint(&live, n),
                    before,
                    "{label} parallel seed {seed} batch {batch_idx}: rejection mutated the session"
                );
            }
            None => {
                live.ingest(&batch[..])
                    .unwrap_or_else(|e| panic!("{label} parallel: clean batch rejected: {e:?}"));
                mirror
                    .ingest(Batch::from(&batch[..]).with_validation(Validation::Legacy))
                    .expect("legacy ingest never rejects");
                live.update_until_stable(STAB);
                mirror.update_until_stable(STAB);
                mask = post_mask;
            }
        }
        assert_eq!(
            fingerprint(&live, n),
            fingerprint(&mirror, n),
            "{label} parallel seed {seed} batch {batch_idx}: diverged from the serial mirror"
        );
    }
}

#[cfg(feature = "parallel")]
#[test]
fn salted_scripts_leave_sessions_bit_identical_forced_parallel() {
    for seed in 0..2u64 {
        drive_family_parallel(
            "modular",
            || SyntheticConfig::paper(30).generate(seed + 9000),
            30,
            true,
            seed,
            30,
        );
        drive_family_parallel(
            "coverage",
            || coverage_instance(seed, 28),
            28,
            false,
            seed,
            30,
        );
        drive_family_parallel(
            "facility",
            || facility_instance(seed, 26),
            26,
            false,
            seed,
            30,
        );
        drive_family_parallel(
            "mixture",
            || mixture_instance(seed, 28),
            28,
            false,
            seed,
            30,
        );
    }
}

/// Every malformed shape the salter can emit maps to the documented
/// [`PerturbationError`] variant — exercised here against one live
/// session so the suite cannot silently stop covering a rejection path.
#[test]
fn every_malformed_shape_is_observed_and_classified() {
    let n = 24;
    let problem = SyntheticConfig::paper(n).generate(4242);
    let init = greedy_b(&problem, P, GreedyBConfig::default());
    let mut session = DynamicSession::new(&problem, &init);
    session.update_until_stable(STAB);
    let mask = vec![true; n];
    let mut rng = StdRng::seed_from_u64(77);
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..400 {
        let entry = malformed_entry(&mut rng, n, true, &mask);
        let err = session
            .ingest(entry)
            .expect_err("malformed entries must be rejected");
        let SessionError::Rejected {
            index: 0,
            error: err,
        } = err
        else {
            panic!("single-entry rejection must carry index 0: {err:?}");
        };
        seen.insert(match err {
            PerturbationError::ElementOutOfRange { .. } => "out-of-range",
            PerturbationError::InvalidDistance { .. } => "invalid-distance",
            PerturbationError::DiagonalDistance { .. } => "diagonal",
            PerturbationError::InvalidWeight { .. } => "invalid-weight",
            PerturbationError::DuplicateArrival { .. } => "duplicate-arrival",
            other => panic!("unexpected classification {other:?}"),
        });
    }
    // With all elements resident the salter can emit five shapes; the
    // departure-of-absent and unsupported-weight paths are covered by the
    // family drivers above.
    assert_eq!(seen.len(), 5, "rejection coverage shrank: {seen:?}");
}

mod serving_faults {
    use super::*;
    use msd_core::{AdmissionPolicy, ServingFrontend, SubmitError};
    use std::sync::Arc;

    const N: usize = 40;
    const ROUNDS: usize = 10;

    fn corpus(seed: u64) -> (Arc<DistanceMatrix>, ModularFunction) {
        let mut rng = StdRng::seed_from_u64(seed);
        let metric = DistanceMatrix::from_fn(N, |_, _| rng.gen_range(1.0..2.0));
        let weights: Vec<f64> = (0..N).map(|_| rng.gen_range(0.0..1.0)).collect();
        (Arc::new(metric), ModularFunction::new(weights))
    }

    fn valid_round(rng: &mut StdRng) -> Vec<SessionPerturbation> {
        (0..3)
            .map(|_| {
                let u = rng.gen_range(0..N) as ElementId;
                let mut v = rng.gen_range(0..N) as ElementId;
                while v == u {
                    v = rng.gen_range(0..N) as ElementId;
                }
                SessionPerturbation::SetDistance {
                    u,
                    v,
                    value: rng.gen_range(1.0..2.0),
                }
            })
            .collect()
    }

    /// A repeat poisoner is quarantined after `quarantine_after`
    /// consecutive rejected flushes; its healthy neighbor's answers stay
    /// bit-identical to a frontend that never hosted the poisoner, and
    /// `recover` restores service from the last good checkpoint.
    #[test]
    fn quarantine_isolates_healthy_tenants_and_recovery_restores_service() {
        let (base, quality) = corpus(3101);
        let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
        let init = greedy_b(&problem, P, GreedyBConfig::default());

        let policy = AdmissionPolicy {
            max_flush_per_query: None,
            max_pending: Some(64),
            quarantine_after: Some(2),
            checkpoint_every: 1,
            ..AdmissionPolicy::default()
        };
        let mut frontend = ServingFrontend::new(Arc::clone(&base));
        let healthy = frontend.register_tenant(&quality, 0.3, &init);
        let poisoner = frontend.register_tenant(&quality, 0.3, &init);
        let mut frontend = frontend.with_admission_policy(policy);

        // The mirror never hosts the poisoner at all.
        let mut mirror = ServingFrontend::new(Arc::clone(&base));
        let healthy_mirror = mirror.register_tenant(&quality, 0.3, &init);

        let mut rng = StdRng::seed_from_u64(555);
        let mut last_good_poisoner = None;
        for round in 0..ROUNDS {
            let batch = valid_round(&mut rng);
            for &p in &batch {
                frontend.try_submit(healthy, p).expect("healthy submit");
                mirror.submit(healthy_mirror, p);
            }
            if !frontend.is_quarantined(poisoner) {
                frontend
                    .try_submit(
                        poisoner,
                        SessionPerturbation::SetDistance {
                            u: 0,
                            v: 1,
                            value: f64::NAN,
                        },
                    )
                    .expect("poisoner submits while not quarantined");
            }
            let rh = frontend.query(healthy);
            let rp = frontend.query(poisoner);
            let rm = mirror.query(healthy_mirror);
            assert!(rh.rejected.is_none(), "healthy tenant rejected at {round}");
            assert_eq!(
                rh.solution, rm.solution,
                "healthy tenant diverged from the poisoner-free mirror at {round}"
            );
            assert_eq!(
                rh.objective.to_bits(),
                rm.objective.to_bits(),
                "healthy objective bits diverged at {round}"
            );
            // The poisoner keeps serving its last good (pre-poison) answer.
            match &last_good_poisoner {
                None => last_good_poisoner = Some((rp.solution.clone(), rp.objective.to_bits())),
                Some((sol, obj)) => {
                    assert_eq!(&rp.solution, sol, "poisoner answer drifted at {round}");
                    assert_eq!(rp.objective.to_bits(), *obj, "poisoner objective drifted");
                }
            }
        }
        assert!(
            frontend.is_quarantined(poisoner),
            "two consecutive rejected flushes must quarantine"
        );
        assert!(matches!(
            frontend.try_submit(
                poisoner,
                SessionPerturbation::SetDistance {
                    u: 0,
                    v: 1,
                    value: 1.5
                }
            ),
            Err(SubmitError::Quarantined { .. })
        ));
        assert!(frontend.stats(poisoner).rejected >= 2);

        // Recovery: the tenant serves again from its last good state.
        assert!(frontend.recover(poisoner));
        assert!(!frontend.is_quarantined(poisoner));
        frontend
            .try_submit(
                poisoner,
                SessionPerturbation::SetDistance {
                    u: 0,
                    v: 1,
                    value: 1.75,
                },
            )
            .expect("recovered tenant accepts traffic");
        let back = frontend.query(poisoner);
        assert!(back.rejected.is_none());
        assert_eq!(back.flushed, 1);
    }

    /// Same scenario on the forced-chunking parallel query path.
    #[cfg(feature = "parallel")]
    #[test]
    fn quarantine_isolation_holds_forced_parallel() {
        use msd_core::ScanPool;

        let (base, quality) = corpus(3103);
        let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
        let init = greedy_b(&problem, P, GreedyBConfig::default());

        let policy = AdmissionPolicy {
            max_flush_per_query: None,
            max_pending: Some(64),
            quarantine_after: Some(2),
            checkpoint_every: 1,
            ..AdmissionPolicy::default()
        };
        let mut frontend = ServingFrontend::new(Arc::clone(&base));
        let healthy = frontend.register_tenant(&quality, 0.3, &init);
        let poisoner = frontend.register_tenant(&quality, 0.3, &init);
        let mut frontend = frontend
            .with_scan_pool(Arc::new(ScanPool::new(4)))
            .with_admission_policy(policy);

        // Serial poisoner-free mirror: the parallel path must be
        // bit-identical to it under any pool.
        let mut mirror =
            ServingFrontend::new(Arc::clone(&base)).with_scan_pool(Arc::new(ScanPool::new(1)));
        let healthy_mirror = mirror.register_tenant(&quality, 0.3, &init);

        let mut rng = StdRng::seed_from_u64(556);
        for round in 0..ROUNDS {
            let batch = valid_round(&mut rng);
            for &p in &batch {
                frontend.try_submit(healthy, p).expect("healthy submit");
                mirror.submit(healthy_mirror, p);
            }
            if !frontend.is_quarantined(poisoner) {
                frontend
                    .try_submit(
                        poisoner,
                        SessionPerturbation::SetDistance {
                            u: 2,
                            v: 3,
                            value: f64::NEG_INFINITY,
                        },
                    )
                    .expect("poisoner submits while not quarantined");
            }
            let rh = frontend.query(healthy);
            let _ = frontend.query(poisoner);
            let rm = mirror.query(healthy_mirror);
            assert_eq!(
                rh.solution, rm.solution,
                "parallel healthy tenant diverged at {round}"
            );
            assert_eq!(rh.objective.to_bits(), rm.objective.to_bits());
        }
        assert!(frontend.is_quarantined(poisoner));
        assert!(frontend.recover(poisoner));
    }
}
