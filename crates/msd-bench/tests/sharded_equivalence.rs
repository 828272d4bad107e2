//! Equivalence suite for the persistent sharded engine
//! ([`ShardedEngine`]).
//!
//! Three contracts are pinned here:
//!
//! 1. **Round 0 is the one-shot distributed greedy.** Straight after
//!    construction, the engine's proposals, merged set, winner rule and
//!    objective must be element-for-element (and bit-for-bit) those of
//!    [`distributed_greedy`] on the same problem, across partition
//!    schemes, machine counts and both implicit point kernels — the
//!    engine seeds through the solver's exact map round, so any
//!    divergence is a bug, not noise.
//!
//! 2. **Per-shard stabilization is the naive session reference.** Across
//!    random perturbation streams (weights, distances, departures,
//!    arrivals), each shard's maintained proposal must match the
//!    slice-recomputing reference ([`session_stabilize_naive`]) run on a
//!    mirrored per-shard sub-problem whose `DistanceMatrix` and weights
//!    are updated perturbation for perturbation — the naive mirror
//!    materializes what the engine never does. The merged solution must
//!    equal a naive re-merge (Greedy B over the union of reference
//!    proposals vs the best single proposal, the one-shot winner rule).
//!
//! 3. **The reduce is incremental and *provably* skippable.** A batch
//!    confined to non-union, same-shard elements that cannot change any
//!    proposal must leave `reduce_ran == false`, dirty shards empty, the
//!    merged set untouched and `MergeStats::reduce_runs` unchanged; a
//!    union-touching batch must re-run it. This is the acceptance
//!    assertion for the dirty-shard tracking (merge stats), not just a
//!    perf property.
//!
//! With `--features parallel` the whole stream also runs through a
//! pooled [`ShardedEngine`], whose shard sessions chunk their scans, and must
//! be bit-identical report for report (CI forces genuine chunking with
//! `MSD_PARALLEL_THREADS=4`).

use msd_bench::naive::session_stabilize_naive;
use msd_bench::support::{ingest_sharded_legacy, point_instance};
use msd_core::{
    distributed_greedy, greedy_b, DistributedConfig, DiversificationProblem, ElementId,
    GreedyBConfig, MergeStats, PartitionScheme, SessionPerturbation, ShardedConfig, ShardedEngine,
};
use msd_metric::{DistanceMatrix, Metric, PointKernel};
use msd_submodular::ModularFunction;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KERNELS: [PointKernel; 2] = [PointKernel::Euclidean, PointKernel::Cosine];

fn sharded_config(machines: usize, scheme: PartitionScheme) -> ShardedConfig {
    ShardedConfig {
        machines,
        scheme,
        greedy: GreedyBConfig::default(),
        max_updates: 300,
    }
}

// ---------------------------------------------------------------------------
// Contract 1: round 0 == one-shot distributed greedy.
// ---------------------------------------------------------------------------

#[test]
fn round_zero_matches_distributed_greedy_on_implicit_metrics() {
    for kernel in KERNELS {
        for seed in 0..3u64 {
            let problem = point_instance(700 + seed, 48, 4, kernel);
            for machines in [1usize, 4, 7] {
                for scheme in [PartitionScheme::RoundRobin, PartitionScheme::Contiguous] {
                    let engine = ShardedEngine::new(&problem, 6, sharded_config(machines, scheme));
                    let one_shot = distributed_greedy(
                        &problem,
                        6,
                        DistributedConfig {
                            machines,
                            scheme,
                            greedy: GreedyBConfig::default(),
                        },
                    );
                    let label = format!("{kernel:?} seed {seed} m{machines} {scheme:?}");
                    assert_eq!(engine.proposals(), &one_shot.proposals[..], "{label}");
                    assert_eq!(engine.solution(), &one_shot.set[..], "{label}");
                    assert_eq!(engine.reduce_won(), one_shot.reduce_won, "{label}");
                    assert_eq!(engine.objective(), one_shot.objective, "{label}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Contract 2: perturbation stream vs the naive per-shard reference.
// ---------------------------------------------------------------------------

/// Mirrored naive state: one materialized sub-problem per shard (the
/// `DistanceMatrix` the engine refuses to build, restricted to the
/// shard), plus global weights/distances for the re-merge.
struct NaiveMirror {
    /// Materialized global distances (perturbations applied).
    distances: DistanceMatrix,
    weights: Vec<f64>,
    active: Vec<bool>,
    lambda: f64,
    /// Per-shard solution in the reference's own order.
    solutions: Vec<Vec<ElementId>>,
}

impl NaiveMirror {
    /// Materializes the restricted sub-problem over `ids` (global ids
    /// remapped to `0..ids.len()`), reading the mirror's current state.
    fn restricted_problem(
        &self,
        ids: &[ElementId],
    ) -> DiversificationProblem<DistanceMatrix, ModularFunction> {
        let metric = DistanceMatrix::from_fn(ids.len(), |u, v| {
            self.distances.distance(ids[u as usize], ids[v as usize])
        });
        let weights: Vec<f64> = ids.iter().map(|&g| self.weights[g as usize]).collect();
        DiversificationProblem::new(metric, ModularFunction::new(weights), self.lambda)
    }

    fn objective_of(&self, set: &[ElementId]) -> f64 {
        let mut quality = 0.0;
        let mut dispersion = 0.0;
        for (i, &u) in set.iter().enumerate() {
            quality += self.weights[u as usize];
            for &v in &set[i + 1..] {
                dispersion += self.distances.distance(u, v);
            }
        }
        quality + self.lambda * dispersion
    }
}

/// Drives a random stream through the engine and the naive mirror,
/// checking per-shard proposals, the merged set and the winner rule after
/// every batch. Returns the engine's final merge stats.
fn drive_stream(
    label: &str,
    problem: &DiversificationProblem<msd_metric::PointMetric, ModularFunction>,
    p: usize,
    machines: usize,
    scheme: PartitionScheme,
    seed: u64,
    batches: usize,
) -> MergeStats {
    let n = problem.ground_size();
    let mut engine = ShardedEngine::new(problem, p, sharded_config(machines, scheme));
    // Each session's refill target is its seed size (min(p, shard size)).
    let shard_ps: Vec<usize> = engine.proposals().iter().map(|prop| prop.len()).collect();
    let mut mirror = NaiveMirror {
        distances: DistanceMatrix::from_fn(n, |u, v| problem.metric().distance(u, v)),
        weights: (0..n as ElementId)
            .map(|u| problem.quality().weight(u))
            .collect(),
        active: vec![true; n],
        lambda: problem.lambda(),
        solutions: engine.proposals().to_vec(),
    };
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7));
    let mut saw_quiet = false;
    let mut saw_dirty = false;

    for batch_idx in 0..batches {
        // Random batch: weights, distances, departures, re-arrivals; half
        // the single-endpoint draws aim at the current union.
        let union = engine.union().to_vec();
        let len = rng.gen_range(0..6usize);
        let mut batch: Vec<SessionPerturbation> = Vec::with_capacity(len);
        for _ in 0..len {
            let hot = !union.is_empty() && rng.gen_bool(0.5);
            let u = if hot {
                union[rng.gen_range(0..union.len())]
            } else {
                rng.gen_range(0..n) as ElementId
            };
            batch.push(match rng.gen_range(0..6u32) {
                0 => SessionPerturbation::Depart { u },
                1 => SessionPerturbation::Arrive {
                    u: rng.gen_range(0..n) as ElementId,
                },
                2 | 3 => SessionPerturbation::SetWeight {
                    u,
                    value: rng.gen_range(0.0..1.0),
                },
                _ => {
                    let mut v = rng.gen_range(0..n) as ElementId;
                    while v == u {
                        v = rng.gen_range(0..n) as ElementId;
                    }
                    SessionPerturbation::SetDistance {
                        u,
                        v,
                        value: rng.gen_range(0.25..1.5),
                    }
                }
            });
        }

        // Determine which shards the session layer will see (mirrors the
        // engine's routing: weights/arrivals/departures to the owner,
        // distance rewrites only when both endpoints share a shard).
        let mut touched: Vec<usize> = Vec::new();
        for &pert in &batch {
            match pert {
                SessionPerturbation::SetWeight { u, .. } => touched.push(engine.shard_of(u)),
                SessionPerturbation::SetDistance { u, v, .. } => {
                    if engine.shard_of(u) == engine.shard_of(v) {
                        touched.push(engine.shard_of(u));
                    }
                }
                SessionPerturbation::Arrive { u } | SessionPerturbation::Depart { u } => {
                    touched.push(engine.shard_of(u));
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();

        // Per-shard naive replay, matching the session's ingestion
        // semantics exactly: perturbations applied *in batch order* to
        // the materialized sub-problem, then the session's **batch-final**
        // greedy refill pass (deferred refills see the whole batch's
        // mutations — ROADMAP follow-up (e)), then the slice-recomputing
        // stabilization.
        for &s in &touched {
            let ids = engine.shard_members(s).to_vec();
            // Built from the PRE-batch mirror; this batch's mutations are
            // replayed onto it below, in order.
            let mut shard_problem = mirror.restricted_problem(&ids);
            let shard_p = shard_ps[s];
            let to_local = |g: ElementId| ids.iter().position(|&x| x == g).unwrap() as ElementId;
            let mut active: Vec<bool> = ids.iter().map(|&g| mirror.active[g as usize]).collect();
            let mut sol: Vec<ElementId> =
                mirror.solutions[s].iter().map(|&g| to_local(g)).collect();
            let mut refill = false;
            for &pert in &batch {
                match pert {
                    SessionPerturbation::SetWeight { u, value } if engine.shard_of(u) == s => {
                        shard_problem.quality_mut().set_weight(to_local(u), value);
                    }
                    SessionPerturbation::SetDistance { u, v, value }
                        if engine.shard_of(u) == s && engine.shard_of(v) == s =>
                    {
                        shard_problem
                            .metric_mut()
                            .set(to_local(u), to_local(v), value);
                    }
                    SessionPerturbation::Arrive { u } if engine.shard_of(u) == s => {
                        let lu = to_local(u) as usize;
                        if !active[lu] {
                            active[lu] = true;
                            refill |= sol.len() < shard_p;
                        }
                    }
                    SessionPerturbation::Depart { u } if engine.shard_of(u) == s => {
                        let lu = to_local(u) as usize;
                        if active[lu] {
                            active[lu] = false;
                            if let Some(idx) = sol.iter().position(|&x| x as usize == lu) {
                                sol.swap_remove(idx);
                                refill = true;
                            }
                        }
                    }
                    _ => {}
                }
            }
            if refill {
                while sol.len() < shard_p {
                    if msd_bench::naive::session_refill_naive(&shard_problem, &active, &mut sol)
                        .is_none()
                    {
                        break;
                    }
                }
            }
            session_stabilize_naive(&shard_problem, &active, &mut sol, 300);
            for (l, &g) in ids.iter().enumerate() {
                mirror.active[g as usize] = active[l];
            }
            mirror.solutions[s] = sol.into_iter().map(|l| ids[l as usize]).collect();
        }

        // Commit the batch's mutations to the global mirror (the re-merge
        // below scores under post-batch data, like the engine's reduce).
        for &pert in &batch {
            match pert {
                SessionPerturbation::SetWeight { u, value } => {
                    mirror.weights[u as usize] = value;
                }
                SessionPerturbation::SetDistance { u, v, value } => {
                    mirror.distances.set(u, v, value);
                }
                SessionPerturbation::Arrive { .. } | SessionPerturbation::Depart { .. } => {}
            }
        }

        let report = ingest_sharded_legacy(&mut engine, &batch[..]);
        saw_quiet |= !report.reduce_ran;
        saw_dirty |= !report.dirty_shards.is_empty();

        // Per-shard proposals must match the naive reference as sets (the
        // engine keeps selection order; the reference's swap-remove order
        // can differ after identical swaps — membership is the contract).
        for s in 0..machines {
            let mut got = engine.proposals()[s].clone();
            let mut want = mirror.solutions[s].clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(
                got, want,
                "{label} seed {seed} batch {batch_idx} shard {s}: proposal diverged ({batch:?})"
            );
        }

        // Naive re-merge over the union of reference proposals, with the
        // one-shot winner rule, must agree with the engine's merged set.
        let mut union: Vec<ElementId> = mirror.solutions.iter().flatten().copied().collect();
        union.sort_unstable();
        union.dedup();
        if union.is_empty() {
            assert!(engine.solution().is_empty(), "{label} batch {batch_idx}");
        } else {
            let union_problem = mirror.restricted_problem(&union);
            let reduced_local =
                greedy_b(&union_problem, p.min(union.len()), GreedyBConfig::default());
            let reduced: Vec<ElementId> = reduced_local
                .into_iter()
                .map(|l| union[l as usize])
                .collect();
            let reduced_val = mirror.objective_of(&reduced);
            let (mut best_val, mut best_idx) = (f64::NEG_INFINITY, 0usize);
            for (s, proposal) in mirror.solutions.iter().enumerate() {
                let val = mirror.objective_of(proposal);
                if val >= best_val {
                    best_val = val;
                    best_idx = s;
                }
            }
            let want: Vec<ElementId> = if reduced_val >= best_val {
                reduced
            } else {
                mirror.solutions[best_idx].clone()
            };
            let mut got = engine.solution().to_vec();
            let mut want_sorted = want.clone();
            got.sort_unstable();
            want_sorted.sort_unstable();
            assert_eq!(
                got, want_sorted,
                "{label} seed {seed} batch {batch_idx}: merged set diverged"
            );
            let want_val = mirror.objective_of(&want);
            assert!(
                (engine.objective() - want_val).abs() < 1e-9 * want_val.abs().max(1.0),
                "{label} seed {seed} batch {batch_idx}: merged objective diverged \
                 ({} vs {want_val})",
                engine.objective()
            );
        }
    }
    assert!(
        saw_dirty,
        "{label}: stream never dirtied a shard — toothless"
    );
    let _ = saw_quiet; // quiet rounds are pinned deterministically below
    engine.stats()
}

#[test]
fn perturbation_streams_match_the_naive_reference() {
    for kernel in KERNELS {
        for seed in 0..2u64 {
            let problem = point_instance(810 + seed, 36, 4, kernel);
            let stats = drive_stream(
                &format!("{kernel:?}"),
                &problem,
                5,
                3,
                PartitionScheme::RoundRobin,
                seed,
                18,
            );
            assert_eq!(stats.rounds, 18);
            // Incrementality: at least one round must have merged without
            // work the stream didn't force. (Deterministic skip coverage
            // is in `quiet_batches_skip_the_reduce`.)
            assert!(stats.reduce_runs >= 1);
        }
    }
    // Contiguous partitioning exercises the uneven-shard routing.
    let problem = point_instance(890, 30, 3, PointKernel::Euclidean);
    drive_stream(
        "contiguous",
        &problem,
        4,
        4,
        PartitionScheme::Contiguous,
        9,
        12,
    );
}

// ---------------------------------------------------------------------------
// Contract 3: merge stats prove the reduce is incremental.
// ---------------------------------------------------------------------------

#[test]
fn quiet_batches_skip_the_reduce_and_union_touches_rerun_it() {
    let problem = point_instance(930, 40, 4, PointKernel::Euclidean);
    let mut engine =
        ShardedEngine::new(&problem, 5, sharded_config(4, PartitionScheme::RoundRobin));

    // Settle shard 0 (map-round proposals are greedy output, not
    // swap-stable; the first touch may legitimately stabilize).
    let outside = |engine: &ShardedEngine<'_, msd_metric::PointMetric>| -> Vec<ElementId> {
        (0..40u32)
            .filter(|&u| !engine.union().contains(&u) && engine.shard_of(u) == 0)
            .collect()
    };
    let warm = outside(&engine);
    engine
        .ingest(SessionPerturbation::SetDistance {
            u: warm[0],
            v: warm[1],
            value: engine.metric().distance(warm[0], warm[1]) * 0.5,
        })
        .expect("well-formed perturbation");

    // Quiet batch: *lowering* a distance between two same-shard non-union
    // elements can only shrink their swap gains — no proposal can change
    // and the union is untouched, so the engine must prove the merge
    // redundant and skip it.
    let before = engine.solution().to_vec();
    let runs_before = engine.stats().reduce_runs;
    let quiet = outside(&engine);
    let report = engine
        .ingest(SessionPerturbation::SetDistance {
            u: quiet[2],
            v: quiet[3],
            value: engine.metric().distance(quiet[2], quiet[3]) * 0.5,
        })
        .expect("well-formed perturbation");
    assert!(!report.reduce_ran, "quiet batch must skip the reduce");
    assert!(report.dirty_shards.is_empty());
    assert_eq!(report.perturbed_shards, 1);
    assert_eq!(
        engine.stats().reduce_runs,
        runs_before,
        "merge stats must show zero extra reduce work"
    );
    assert!(!engine.stats().last_reduce_ran);
    assert_eq!(engine.stats().last_dirty_shards, 0);
    assert_eq!(engine.solution(), &before[..]);

    // Union-touching batch: a weight rewrite of a union member must
    // re-run the reduce even if no proposal changes.
    let target = engine.union()[0];
    let report = engine
        .ingest(SessionPerturbation::SetWeight {
            u: target,
            value: 40.0,
        })
        .expect("well-formed perturbation");
    assert!(report.reduce_ran, "union weight rewrite must re-merge");
    assert_eq!(engine.stats().reduce_runs, runs_before + 1);
    assert!(engine.stats().last_reduce_ran);
    assert!(engine.solution().contains(&target));
    assert_eq!(report.reduce_scope, engine.union().len());
}

// ---------------------------------------------------------------------------
// Forced-chunking parallel equivalence.
// ---------------------------------------------------------------------------

#[cfg(feature = "parallel")]
mod parallel_equivalence {
    use super::*;
    use msd_core::ScanPool;
    use std::sync::Arc;

    /// The serial engine and the forced-chunking parallel engine must
    /// produce bit-identical reports, proposals and merged sets on the
    /// same stream (CI sets `MSD_PARALLEL_THREADS=4`).
    #[test]
    fn parallel_engine_is_bit_identical_on_shared_streams() {
        for kernel in KERNELS {
            let problem = point_instance(950, 32, 4, kernel);
            let sync_problem = point_instance(950, 32, 4, kernel);
            let config = sharded_config(3, PartitionScheme::RoundRobin);
            let mut serial =
                ShardedEngine::new(&problem, 5, config).with_scan_pool(Arc::new(ScanPool::new(1)));
            let mut parallel = ShardedEngine::new(&sync_problem, 5, config);
            assert_eq!(serial.solution(), parallel.solution());
            let mut rng = StdRng::seed_from_u64(0xD157 ^ kernel as u64);
            for batch_idx in 0..12 {
                let union = serial.union().to_vec();
                let batch: Vec<SessionPerturbation> = (0..rng.gen_range(1..5usize))
                    .map(|_| {
                        let u = if rng.gen_bool(0.5) && !union.is_empty() {
                            union[rng.gen_range(0..union.len())]
                        } else {
                            rng.gen_range(0..32u32)
                        };
                        if rng.gen_bool(0.5) {
                            SessionPerturbation::SetWeight {
                                u,
                                value: rng.gen_range(0.0..1.0),
                            }
                        } else {
                            let mut v = rng.gen_range(0..32u32);
                            while v == u {
                                v = rng.gen_range(0..32u32);
                            }
                            SessionPerturbation::SetDistance {
                                u,
                                v,
                                value: rng.gen_range(0.25..1.5),
                            }
                        }
                    })
                    .collect();
                let a = ingest_sharded_legacy(&mut serial, &batch[..]);
                let b = ingest_sharded_legacy(&mut parallel, &batch[..]);
                assert_eq!(a, b, "{kernel:?} batch {batch_idx}: reports diverged");
                assert_eq!(serial.proposals(), parallel.proposals());
                assert_eq!(serial.solution(), parallel.solution());
                assert_eq!(serial.objective(), parallel.objective());
            }
        }
    }
}
