//! Equivalence suite for concurrent multi-tenant serving: the
//! fan-out/join frontend ([`ServingFrontend::query_many`], fanned out on
//! the frontend's pool) must be **bit-identical** to the serial
//! per-tenant query loop under interleaved, deliberately conflicting
//! rewrites from k ≥ 4 tenants; tenants spilled through
//! [`SharedServingFrontend::evict`] and re-attached must be
//! indistinguishable from never-evicted twins; and tenants sharing one
//! base weight vector through copy-on-write overlays must match tenants
//! owning a full [`ModularFunction`] each.
//!
//! Runs under the default multi-threaded test harness: the parallel
//! variant takes an explicit [`msd_core::ScanPool`] instead of mutating
//! the process environment.

use std::sync::Arc;

use msd_core::{
    greedy_b, DiversificationProblem, ElementId, GreedyBConfig, QueryResponse, ServingFrontend,
    SessionPerturbation, SharedServingFrontend,
};
use msd_metric::DistanceMatrix;
use msd_submodular::ModularFunction;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 48;
const P: usize = 6;
const K: usize = 4;
const ROUNDS: usize = 10;

fn corpus(seed: u64) -> (Arc<DistanceMatrix>, ModularFunction) {
    let mut rng = StdRng::seed_from_u64(seed);
    let metric = DistanceMatrix::from_fn(N, |_, _| rng.gen_range(1.0..2.0));
    let weights: Vec<f64> = (0..N).map(|_| rng.gen_range(0.0..1.0)).collect();
    (Arc::new(metric), ModularFunction::new(weights))
}

/// One round of deliberately conflicting batches for all K tenants:
/// every tenant rewrites the *same* pair and the *same* element's weight
/// to a different value, plus one independent rewrite each.
fn conflicting_round(rng: &mut StdRng) -> Vec<Vec<SessionPerturbation>> {
    let u = rng.gen_range(0..N) as ElementId;
    let mut v = rng.gen_range(0..N) as ElementId;
    while v == u {
        v = rng.gen_range(0..N) as ElementId;
    }
    let w = rng.gen_range(0..N) as ElementId;
    (0..K)
        .map(|t| {
            let bias = 0.2 + t as f64 * 0.3;
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
        })
        .collect()
}

fn assert_bit_identical(a: &QueryResponse, b: &QueryResponse, what: &str, round: usize) {
    assert_eq!(a.solution, b.solution, "{what}: solution, round {round}");
    assert_eq!(
        a.objective.to_bits(),
        b.objective.to_bits(),
        "{what}: objective bits, round {round}"
    );
    assert_eq!(a.flushed, b.flushed, "{what}: flushed, round {round}");
    assert_eq!(a.swaps, b.swaps, "{what}: swaps, round {round}");
}

/// Family 1 (serial scheduling): `query_many` over k = 4 tenants with
/// interleaved conflicting rewrites ≡ the serial round-robin loop.
#[test]
fn fan_out_join_matches_serial_round_robin() {
    let (base, quality) = corpus(101);
    let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
    let init = greedy_b(&problem, P, GreedyBConfig::default());

    let mut fanned = ServingFrontend::new(Arc::clone(&base));
    let mut looped = ServingFrontend::new(Arc::clone(&base));
    let lambdas = [0.2, 0.3, 0.9, 1.5];
    let ft: Vec<_> = lambdas
        .iter()
        .map(|&l| fanned.register_tenant(&quality, l, &init))
        .collect();
    let lt: Vec<_> = lambdas
        .iter()
        .map(|&l| looped.register_tenant(&quality, l, &init))
        .collect();

    let mut rng = StdRng::seed_from_u64(313);
    for round in 0..ROUNDS {
        let batches = conflicting_round(&mut rng);
        // Interleave all tenants' submissions before anyone flushes.
        for step in 0..batches[0].len() {
            for (t, batch) in batches.iter().enumerate() {
                fanned
                    .try_submit(ft[t], batch[step])
                    .expect("submission admitted");
                looped
                    .try_submit(lt[t], batch[step])
                    .expect("submission admitted");
            }
        }
        let joined = fanned.query_many(&ft);
        let serial: Vec<_> = lt.iter().map(|&t| looped.query(t)).collect();
        for (t, (j, s)) in joined.iter().zip(serial.iter()).enumerate() {
            assert_bit_identical(j, s, &format!("tenant {t}"), round);
        }
    }

    // drain_all serves exactly the tenants with queued work, ascending.
    fanned
        .try_submit(ft[2], SessionPerturbation::SetWeight { u: 1, value: 3.0 })
        .expect("submission admitted");
    fanned
        .try_submit(ft[0], SessionPerturbation::SetWeight { u: 2, value: 0.5 })
        .expect("submission admitted");
    let drained = fanned.drain_all();
    assert_eq!(
        drained.iter().map(|r| r.tenant).collect::<Vec<_>>(),
        vec![ft[0], ft[2]]
    );
    assert!(fanned.drain_all().is_empty());
}

/// Family 1 (parallel scheduling): the fan-out/join pool path under a
/// forced 4-thread [`msd_core::ScanPool`] ≡ the serial loop, bit for bit.
#[test]
fn fan_out_join_parallel_matches_serial_round_robin() {
    use msd_core::ScanPool;

    let (base, quality) = corpus(103);
    let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
    let init = greedy_b(&problem, P, GreedyBConfig::default());

    let mut looped =
        ServingFrontend::new(Arc::clone(&base)).with_scan_pool(Arc::new(ScanPool::new(1)));
    let mut fanned = ServingFrontend::new(Arc::clone(&base));
    let lambdas = [0.2, 0.3, 0.9, 1.5];
    let lt: Vec<_> = lambdas
        .iter()
        .map(|&l| looped.register_tenant(&quality, l, &init))
        .collect();
    let ft: Vec<_> = lambdas
        .iter()
        .map(|&l| fanned.register_tenant(&quality, l, &init))
        .collect();
    // The forced pool both chunks every tenant's scans and carries the
    // fan-out jobs — the join must still be deterministic.
    let mut fanned = fanned.with_scan_pool(Arc::new(ScanPool::new(4)));

    let mut rng = StdRng::seed_from_u64(717);
    for round in 0..ROUNDS {
        let batches = conflicting_round(&mut rng);
        for step in 0..batches[0].len() {
            for (t, batch) in batches.iter().enumerate() {
                looped
                    .try_submit(lt[t], batch[step])
                    .expect("submission admitted");
                fanned
                    .try_submit(ft[t], batch[step])
                    .expect("submission admitted");
            }
        }
        let serial: Vec<_> = lt.iter().map(|&t| looped.query(t)).collect();
        let joined = fanned.query_many(&ft);
        for (t, (j, s)) in joined.iter().zip(serial.iter()).enumerate() {
            assert_bit_identical(j, s, &format!("parallel tenant {t}"), round);
        }
    }

    for (&ts, &tp) in lt.iter().zip(ft.iter()).take(2) {
        let p = SessionPerturbation::SetWeight { u: 7, value: 2.0 };
        looped.try_submit(ts, p).expect("submission admitted");
        fanned.try_submit(tp, p).expect("submission admitted");
    }
    let rs = looped.drain_all();
    let rp = fanned.drain_all();
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.len(), rp.len());
    for (a, b) in rs.iter().zip(rp.iter()) {
        assert_bit_identical(a, b, "drain_all", ROUNDS);
    }
}

/// Family 2: a tenant spilled mid-stream through `evict` (queued work
/// and all) and re-attached from its snapshot stays bit-identical to a
/// never-evicted twin, and its neighbors' handles survive.
#[test]
fn evict_attach_round_trip_matches_never_evicted_twin() {
    let (base, quality) = corpus(107);
    let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
    let init = greedy_b(&problem, P, GreedyBConfig::default());
    let weights: Arc<[f64]> = quality.weights().to_vec().into();

    let mut spilling = SharedServingFrontend::new_shared(Arc::clone(&base));
    let mut resident = SharedServingFrontend::new_shared(Arc::clone(&base));
    let st: Vec<_> = (0..K)
        .map(|_| spilling.register_tenant_shared(Arc::clone(&weights), 0.3, &init))
        .collect();
    let rt: Vec<_> = (0..K)
        .map(|_| resident.register_tenant_shared(Arc::clone(&weights), 0.3, &init))
        .collect();

    let mut rng = StdRng::seed_from_u64(929);
    for round in 0..ROUNDS {
        let batches = conflicting_round(&mut rng);
        for step in 0..batches[0].len() {
            for (t, batch) in batches.iter().enumerate() {
                spilling
                    .try_submit(st[t], batch[step])
                    .expect("submission admitted");
                resident
                    .try_submit(rt[t], batch[step])
                    .expect("submission admitted");
            }
        }
        // Tenant 1 rides through a spill/re-attach cycle every round,
        // with its freshly-submitted batch still queued in the snapshot.
        let snapshot = spilling.evict(st[1]);
        assert_eq!(snapshot.pending.len(), batches[1].len());
        assert_eq!(spilling.tenant_count(), K - 1);
        let back = spilling.attach(snapshot);
        assert_eq!(back, st[1], "lowest tombstone is reused");

        let a = spilling.query_many(&st);
        let b = resident.query_many(&rt);
        for (t, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_bit_identical(x, y, &format!("spill tenant {t}"), round);
        }
    }
    // The overlays kept the round-trip cheap: at most one overridden
    // weight per round, not a k× copy of the base vector.
    for &t in &st {
        let deltas = spilling.weight_delta_count(t);
        assert!(
            (1..=ROUNDS).contains(&deltas),
            "expected a sparse overlay, got {deltas} deltas"
        );
    }
}

/// Family 3: tenants sharing one `Arc<[f64]>` base through
/// [`SharedServingFrontend`] ≡ tenants owning a private
/// [`ModularFunction`] each, bit for bit, without writing the base.
#[test]
fn shared_overlay_tenants_match_owned_oracle_tenants() {
    let (base, quality) = corpus(113);
    let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
    let init = greedy_b(&problem, P, GreedyBConfig::default());
    let weights: Arc<[f64]> = quality.weights().to_vec().into();
    let base_snapshot = weights.to_vec();

    let mut owned = ServingFrontend::new(Arc::clone(&base));
    let mut shared = SharedServingFrontend::new_shared(Arc::clone(&base));
    let ot: Vec<_> = (0..K)
        .map(|_| owned.register_tenant(&quality, 0.3, &init))
        .collect();
    let st: Vec<_> = (0..K)
        .map(|_| shared.register_tenant_shared(Arc::clone(&weights), 0.3, &init))
        .collect();

    let mut rng = StdRng::seed_from_u64(1231);
    for round in 0..ROUNDS {
        let batches = conflicting_round(&mut rng);
        for step in 0..batches[0].len() {
            for (t, batch) in batches.iter().enumerate() {
                owned
                    .try_submit(ot[t], batch[step])
                    .expect("submission admitted");
                shared
                    .try_submit(st[t], batch[step])
                    .expect("submission admitted");
            }
        }
        let a = owned.query_many(&ot);
        let b = shared.query_many(&st);
        for (t, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_bit_identical(x, y, &format!("overlay tenant {t}"), round);
        }
    }

    // Per-tenant residency is the sparse delta set, and the conflicting
    // weight rewrites never leaked into the shared base vector.
    for &t in &st {
        let deltas = shared.weight_delta_count(t);
        assert!(
            (1..N / 2).contains(&deltas),
            "expected a sparse overlay, got {deltas} deltas"
        );
    }
    assert_eq!(&weights[..], &base_snapshot[..]);
}
