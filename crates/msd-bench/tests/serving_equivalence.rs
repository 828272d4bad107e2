//! Equivalence suite for multi-tenant serving over a shared metric:
//! tenant sessions reading one immutable `Arc` base through per-session
//! copy-on-write overlays must be **bit-identical** to fully-owned
//! sessions running the same perturbation streams on private metric
//! clones — under interleaved, deliberately conflicting rewrites of the
//! same pairs, on the serial scan path and on the forced-chunking
//! parallel path, without ever writing to the shared base.
//!
//! Runs under the default multi-threaded test harness: the forced
//! parallel variant takes an explicit [`msd_core::ScanPool`] instead of
//! mutating process environment.

use std::sync::Arc;

use msd_core::{
    greedy_b, DiversificationProblem, DynamicSession, ElementId, GreedyBConfig, ServingFrontend,
    SessionPerturbation,
};
use msd_metric::DistanceMatrix;
use msd_submodular::ModularFunction;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 48;
const P: usize = 6;
const ROUNDS: usize = 12;

fn corpus(seed: u64) -> (Arc<DistanceMatrix>, ModularFunction) {
    let mut rng = StdRng::seed_from_u64(seed);
    let metric = DistanceMatrix::from_fn(N, |_, _| rng.gen_range(1.0..2.0));
    let weights: Vec<f64> = (0..N).map(|_| rng.gen_range(0.0..1.0)).collect();
    (Arc::new(metric), ModularFunction::new(weights))
}

/// One round of deliberately conflicting tenant batches: both tenants
/// rewrite the *same* pair (and the same element's weight) to different
/// values, plus one extra independent rewrite each.
fn conflicting_batches(rng: &mut StdRng) -> (Vec<SessionPerturbation>, Vec<SessionPerturbation>) {
    let u = rng.gen_range(0..N) as ElementId;
    let mut v = rng.gen_range(0..N) as ElementId;
    while v == u {
        v = rng.gen_range(0..N) as ElementId;
    }
    let w = rng.gen_range(0..N) as ElementId;
    let batch = |bias: f64, rng: &mut StdRng| {
        vec![
            SessionPerturbation::SetDistance {
                u,
                v,
                value: 1.0 + bias,
            },
            SessionPerturbation::SetWeight { u: w, value: bias },
            SessionPerturbation::SetDistance {
                u: rng.gen_range(0..N - 1) as ElementId,
                v: N as ElementId - 1,
                value: rng.gen_range(1.0..2.0),
            },
        ]
    };
    (batch(0.25, rng), batch(0.9, rng))
}

/// Owned counterpart of one tenant: a session over its own metric clone
/// (and its own quality state), stepped exactly like a frontend query.
struct Owned<'q> {
    session: DynamicSession<'q, DistanceMatrix>,
}

impl<'q> Owned<'q> {
    fn query(&mut self, batch: &[SessionPerturbation]) -> (Vec<ElementId>, f64) {
        self.session
            .ingest(batch)
            .expect("well-formed serving batch");
        self.session.update_until_stable(256);
        (self.session.solution().to_vec(), self.session.objective())
    }
}

#[test]
fn shared_tenants_match_owned_sessions_serial() {
    let (base, quality) = corpus(11);
    let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
    let init = greedy_b(&problem, P, GreedyBConfig::default());
    let snapshot = (*base).clone();

    let owned_a_problem = DiversificationProblem::new((*base).clone(), quality.clone(), 0.3);
    let owned_b_problem = DiversificationProblem::new((*base).clone(), quality.clone(), 0.3);
    let mut owned_a = Owned {
        session: DynamicSession::new(&owned_a_problem, &init),
    };
    let mut owned_b = Owned {
        session: DynamicSession::new(&owned_b_problem, &init),
    };

    let mut frontend = ServingFrontend::new(Arc::clone(&base));
    let ta = frontend.register_tenant(&quality, 0.3, &init);
    let tb = frontend.register_tenant(&quality, 0.3, &init);

    let mut rng = StdRng::seed_from_u64(77);
    for round in 0..ROUNDS {
        let (batch_a, batch_b) = conflicting_batches(&mut rng);
        // Interleave the two tenants' submissions before either flushes.
        for (p_a, p_b) in batch_a.iter().zip(&batch_b) {
            frontend.submit(ta, *p_a);
            frontend.submit(tb, *p_b);
        }
        let ra = frontend.query(ta);
        let rb = frontend.query(tb);
        let (sol_a, obj_a) = owned_a.query(&batch_a);
        let (sol_b, obj_b) = owned_b.query(&batch_b);
        assert_eq!(ra.solution, sol_a, "tenant A diverged at round {round}");
        assert_eq!(ra.objective, obj_a, "tenant A objective, round {round}");
        assert_eq!(rb.solution, sol_b, "tenant B diverged at round {round}");
        assert_eq!(rb.objective, obj_b, "tenant B objective, round {round}");
    }

    // The conflicting rewrites landed in the overlays, never the base.
    assert_eq!(base.triangle(), snapshot.triangle());
    assert!(frontend.session(ta).metric().override_count() > 0);
    assert!(frontend.session(tb).metric().override_count() > 0);
}

#[cfg(feature = "parallel")]
#[test]
fn shared_tenants_match_owned_sessions_forced_parallel() {
    use msd_core::ScanPool;

    let (base, quality) = corpus(23);
    let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
    let init = greedy_b(&problem, P, GreedyBConfig::default());

    let owned_a_problem = DiversificationProblem::new((*base).clone(), quality.clone(), 0.3);
    let owned_b_problem = DiversificationProblem::new((*base).clone(), quality.clone(), 0.3);
    let mut owned_a = Owned {
        session: DynamicSession::new(&owned_a_problem, &init)
            .with_scan_pool(Arc::new(ScanPool::new(1))),
    };
    let mut owned_b = Owned {
        session: DynamicSession::new(&owned_b_problem, &init)
            .with_scan_pool(Arc::new(ScanPool::new(1))),
    };

    let mut frontend = ServingFrontend::new(Arc::clone(&base));
    let ta = frontend.register_tenant(&quality, 0.3, &init);
    let tb = frontend.register_tenant(&quality, 0.3, &init);
    // A forced 4-thread pool chunks every scan even at this test size —
    // the old `MSD_PARALLEL_THREADS` semantics without touching the
    // process environment, so this runs safely under the default
    // multi-threaded test harness.
    let mut frontend = frontend.with_scan_pool(Arc::new(ScanPool::new(4)));

    let mut rng = StdRng::seed_from_u64(91);
    for round in 0..ROUNDS {
        let (batch_a, batch_b) = conflicting_batches(&mut rng);
        for (p_a, p_b) in batch_a.iter().zip(&batch_b) {
            frontend.submit(ta, *p_a);
            frontend.submit(tb, *p_b);
        }
        let ra = frontend.query(ta);
        let rb = frontend.query(tb);
        let (sol_a, obj_a) = owned_a.query(&batch_a);
        let (sol_b, obj_b) = owned_b.query(&batch_b);
        assert_eq!(
            ra.solution, sol_a,
            "parallel tenant A diverged at round {round}"
        );
        assert_eq!(ra.objective, obj_a, "tenant A objective, round {round}");
        assert_eq!(
            rb.solution, sol_b,
            "parallel tenant B diverged at round {round}"
        );
        assert_eq!(rb.objective, obj_b, "tenant B objective, round {round}");
    }
}
