//! Perturb→update throughput bench for the dynamic-update subsystem
//! (Figure 1's engine at production scale).
//!
//! Each measured routine is one full Figure 1 cycle — apply one random
//! perturbation (the MPERTURBATION mix: weight redraw from `U[0,1]` /
//! distance redraw from `U[1,2]`, which always stays metric), then run one
//! oblivious single-swap update — driven over `n ∈ {1000, 5000}` for
//!
//! * **modular** quality through [`DynamicInstance`] (the paper's
//!   Section 6 setting; distance-only redraws for the other qualities),
//! * **coverage** and **facility** quality through the generic
//!   [`oblivious_update_step`] repair (rebuild-and-scan against the
//!   current instance),
//!
//! plus a `dynamic/double` family measuring the O(n²p²) double-swap rule
//! at small fixed `n`, a `dynamic/session/*` family pitting the
//! persistent [`DynamicSession`] (long-lived incremental caches, O(Δ)
//! repair per perturbation) against the per-cycle rebuild path on the
//! same perturbation streams — the `rebuild_ns`/`session_ns` pair tracks
//! the session speedup in-repo — and a `dynamic/batch/*` family driving
//! whole redraw *bursts* ([`BATCH`] perturbations + stabilization per
//! iteration) per-perturbation vs through
//! [`DynamicSession::ingest`]'s one-scan-per-batch ingestion (the
//! `per_apply_ns`/`batch_ns` pair, ns per perturbation), and a
//! `dynamic/graph/*` family driving edge-weight churn on road-like and
//! clustered networks through the incremental APSP repair of
//! [`DynamicGraphMetric`] against the O(n³) Floyd–Warshall rebuild (the
//! `fw_rebuild_ns`/`repair_ns` pair plus a graph-session update), and a
//! `dynamic/constrained/*` family driving the same steady-state cycle
//! through **constrained** sessions ([`ConstraintPolicy`]: matroid
//! exchange scans over uniform and partition matroids, knapsack density
//! scans) against the per-cycle rebuild references
//! ([`oblivious_update_step_matroid`] / [`oblivious_update_step_knapsack`],
//! which reconstruct the potential caches every cycle) — the same
//! `rebuild_ns`/`session_ns` row shape as the session family. With
//! `--features parallel`, the cycling families gain a
//! `perturb_update_parallel` variant plus a `perturb_update_forced` one
//! (`MSD_PARALLEL_THREADS=4`, recording genuinely chunked execution even
//! on a 1-core host where the plain parallel path collapses to a single
//! chunk), the session family a `session_parallel` one and the batch
//! family a `batch_parallel` one — a session whose full scans chunk on
//! the global pool (bit-identical outputs; see
//! `msd-core/src/parallel.rs`). Parallelism comes from the pool, so under
//! the feature the serial rows pin their sessions to a one-thread pool.
//!
//! Results are written to `BENCH_dynamic.json` at the workspace root so
//! the dynamic-update perf trajectory is tracked in-repo.
//!
//! Session ingestion is timed through the validating
//! [`DynamicSession::ingest`] (via `msd_bench::support::ingest_lenient`):
//! every number includes the batch check.
//!
//! Knobs: `MSD_BENCH_N=500` restricts the ground sizes (CI smoke); the
//! double-swap family keeps its own small sizes (its cost is O(n²p²)).

use std::fmt::Write as _;
use std::time::Duration;

use criterion::{BenchRecord, Criterion};
use msd_bench::support::{
    coverage_instance, facility_instance, ground_sizes, ingest_lenient, json_num, json_ratio,
    record_configs, record_mean, workspace_root,
};
use msd_core::{
    greedy_b, oblivious_update_step, oblivious_update_step_knapsack, oblivious_update_step_matroid,
    DiversificationProblem, DynamicInstance, DynamicSession, GraphPerturbation, GreedyBConfig,
    Perturbation, ScanPool, SessionPerturbation,
};

use msd_data::SyntheticConfig;
use msd_matroid::{Matroid, PartitionMatroid, UniformMatroid};
use msd_metric::{DistanceMatrix, DynamicGraphMetric, EdgePerturbableMetric, WeightedGraph};
use msd_submodular::{CoverageFunction, FacilityLocationFunction, ModularFunction, SetFunction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

const P: usize = 50;
/// Pre-drawn perturbations per family; routines cycle through them.
const SCRIPT_LEN: usize = 64;

/// One MPERTURBATION draw: weight and distance redraws in equal
/// proportion (weight redraws only when `with_weights`).
fn draw_perturbation(rng: &mut StdRng, n: usize, with_weights: bool) -> Perturbation {
    if with_weights && rng.gen_bool(0.5) {
        Perturbation::SetWeight {
            u: rng.gen_range(0..n) as u32,
            value: rng.gen_range(0.0..1.0),
        }
    } else {
        let u = rng.gen_range(0..n) as u32;
        let mut v = rng.gen_range(0..n) as u32;
        while v == u {
            v = rng.gen_range(0..n) as u32;
        }
        Perturbation::SetDistance {
            u,
            v,
            value: rng.gen_range(1.0..2.0),
        }
    }
}

/// Fixed-length MPERTURBATION script (the cycling families).
fn perturbation_script(seed: u64, n: usize, with_weights: bool) -> Vec<Perturbation> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..SCRIPT_LEN)
        .map(|_| draw_perturbation(&mut rng, n, with_weights))
        .collect()
}

/// This bench's coverage shape: `n/2 + 1` topics, 2–7 covers per element.
fn coverage(seed: u64, n: usize) -> DiversificationProblem<DistanceMatrix, CoverageFunction> {
    coverage_instance(seed, n, n / 2 + 1, 2, 8)
}

/// This bench's facility shape: `n/4 + 1` clients (the per-cycle oracle
/// rebuild is O(clients·n), so the client pool stays lean).
fn facility(
    seed: u64,
    n: usize,
) -> DiversificationProblem<DistanceMatrix, FacilityLocationFunction> {
    facility_instance(seed, n, n / 4 + 1)
}

/// Registers one perturb→update variant: clones `base` into long-lived
/// state, then measures `cycle` (apply one scripted perturbation + one
/// update) per iteration. Shared by every family so the cycling
/// discipline exists exactly once.
fn bench_cycle<S: Clone, O>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    base: &S,
    script: &[Perturbation],
    mut cycle: impl FnMut(&mut S, Perturbation) -> O,
) {
    let mut state = base.clone();
    let mut i = 0usize;
    let script = script.to_vec();
    group.bench_function(name, move |b| {
        b.iter(|| {
            let out = cycle(&mut state, black_box(script[i % SCRIPT_LEN]));
            i += 1;
            out
        })
    });
}

/// `problem` on a one-thread pool, so the serial rows stay serial under
/// `--features parallel` (where the default pool is the ambient one).
fn serial<F: SetFunction>(
    problem: DiversificationProblem<DistanceMatrix, F>,
) -> DiversificationProblem<DistanceMatrix, F> {
    problem.with_scan_pool(Arc::new(ScanPool::new(1)))
}

/// Applies a scripted perturbation to an owned generic problem (weight
/// perturbations are modular-only, so generic scripts are distance-only).
fn apply_to_problem<F: SetFunction>(
    problem: &mut DiversificationProblem<DistanceMatrix, F>,
    perturbation: Perturbation,
) {
    if let Perturbation::SetDistance { u, v, value } = perturbation {
        problem.metric_mut().set(u, v, value);
    }
}

/// Modular family: the Figure 1 cycle through [`DynamicInstance`]
/// (incrementally repaired caches, no per-step rebuild).
fn bench_modular(c: &mut Criterion, ns: &[usize]) {
    for &n in ns {
        let p = P.min(n / 2);
        let problem = SyntheticConfig::paper(n).generate(42);
        let init = greedy_b(&problem, p, GreedyBConfig::default());
        let base = DynamicInstance::new(serial(problem.clone()), &init);
        let script = perturbation_script(7 + n as u64, n, true);
        let mut group = c.benchmark_group(format!("dynamic/modular/n{n}/p{p}"));
        bench_cycle(&mut group, "perturb_update", &base, &script, |d, pert| {
            d.apply(pert);
            d.oblivious_update()
        });
        #[cfg(feature = "parallel")]
        {
            let on_global = DynamicInstance::new(problem.clone(), &init);
            bench_cycle(
                &mut group,
                "perturb_update_parallel",
                &on_global,
                &script,
                |d, pert| {
                    d.apply(pert);
                    d.oblivious_update()
                },
            );
            let forced = problem.with_scan_pool(Arc::new(ScanPool::new(4)));
            bench_cycle(
                &mut group,
                "perturb_update_forced",
                &DynamicInstance::new(forced, &init),
                &script,
                |d, pert| {
                    d.apply(pert);
                    d.oblivious_update()
                },
            );
        }
        group.finish();
    }
}

/// Generic-quality families: distance redraws on the owned matrix, then
/// one [`oblivious_update_step`] repair (cache rebuild + scan — the
/// honest per-update cost when the instance mutates between updates).
fn bench_generic<F: SetFunction + Clone>(
    c: &mut Criterion,
    family: &str,
    make: impl Fn(u64, usize) -> DiversificationProblem<DistanceMatrix, F>,
    ns: &[usize],
) {
    for &n in ns {
        let p = P.min(n / 2);
        let problem = make(9 + n as u64, n);
        let init = greedy_b(&problem, p, GreedyBConfig::default());
        let base = (serial(problem.clone()), init.clone());
        let script = perturbation_script(11 + n as u64, n, false);
        let mut group = c.benchmark_group(format!("dynamic/{family}/n{n}/p{p}"));
        bench_cycle(
            &mut group,
            "perturb_update",
            &base,
            &script,
            |(problem, solution), pert| {
                apply_to_problem(problem, pert);
                oblivious_update_step(black_box(problem), solution)
            },
        );
        #[cfg(feature = "parallel")]
        bench_cycle(
            &mut group,
            "perturb_update_parallel",
            &(problem.clone(), init.clone()),
            &script,
            |(problem, solution), pert| {
                apply_to_problem(problem, pert);
                oblivious_update_step(black_box(problem), solution)
            },
        );
        // Forced-chunking variant: on a 1-core host the plain parallel
        // path collapses to a single chunk (scheduling-wise it *is* the
        // serial scan), so a forced 4-thread pool is the only way to
        // record what genuinely chunked execution costs here — the
        // `forced_chunk_ns` column carries the real dispatch/merge
        // overhead.
        #[cfg(feature = "parallel")]
        bench_cycle(
            &mut group,
            "perturb_update_forced",
            &(problem.with_scan_pool(Arc::new(ScanPool::new(4))), init),
            &script,
            |(problem, solution), pert| {
                apply_to_problem(problem, pert);
                oblivious_update_step(black_box(problem), solution)
            },
        );
        group.finish();
    }
}

/// Session families: the same perturb→update cycle driven through a
/// persistent [`DynamicSession`] (O(Δ) cache repair, scans skipped when
/// stability provably survives) against the *rebuild* reference — a fresh
/// [`oblivious_update_step`] whose caches are reconstructed every cycle.
/// Both variants draw identical perturbation streams from their own
/// seeded RNG (no short cycling script: a repeating script degenerates to
/// all-neutral redraws after one pass, which would flatter the session),
/// so the recorded `rebuild_ns`/`session_ns` pair reflects the honest
/// steady-state mix of skipped, column and full updates.
/// Perturb→update cycles per measured iteration of the `session`
/// variants. One steady-state session cycle is usually an O(1) skip with
/// occasional full scans — a heavy-tailed mix the measurement shim's
/// per-call calibration would mis-provision; batching amortizes it and
/// every sample averages the honest skip/scan mix. `to_json` divides the
/// recorded means back to ns-per-cycle.
const SESSION_BATCH: usize = 64;

// `to_json` normalizes both family kinds through one divisor.
const _: () = assert!(SESSION_BATCH == BATCH);

fn bench_session<F: SetFunction + Clone>(
    c: &mut Criterion,
    family: &str,
    make: impl Fn(u64, usize) -> DiversificationProblem<DistanceMatrix, F>,
    apply: impl Fn(&mut DiversificationProblem<DistanceMatrix, F>, Perturbation) + Copy,
    ns: &[usize],
    with_weights: bool,
) {
    for &n in ns {
        let p = P.min(n / 2);
        let problem = make(9 + n as u64, n);
        let mut init = greedy_b(&problem, p, GreedyBConfig::default());
        // Drive the start solution to single-swap optimality so both
        // variants measure the maintained steady state of the Figure-1
        // loop, not the initial repair transient (the session's scan
        // skipping only pays off once the solution is maintained).
        for _ in 0..10 * p {
            if oblivious_update_step(&problem, &mut init).swap.is_none() {
                break;
            }
        }
        let rng_seed = 23 + n as u64;
        let mut group = c.benchmark_group(format!("dynamic/session/{family}/n{n}/p{p}"));
        {
            let mut state = (serial(problem.clone()), init.clone());
            let mut rng = StdRng::seed_from_u64(rng_seed);
            group.bench_function("rebuild", |b| {
                b.iter(|| {
                    let pert = draw_perturbation(&mut rng, n, with_weights);
                    let (prob, sol) = &mut state;
                    apply(prob, pert);
                    oblivious_update_step(black_box(prob), sol)
                })
            });
        }
        {
            let session_problem = problem.clone();
            let mut session = DynamicSession::new(&session_problem, &init);
            session.set_scan_pool(Arc::new(ScanPool::new(1)));
            let mut rng = StdRng::seed_from_u64(rng_seed);
            group.bench_function("session", |b| {
                b.iter(|| {
                    let mut last = None;
                    for _ in 0..SESSION_BATCH {
                        let pert = draw_perturbation(&mut rng, n, with_weights);
                        last = Some(ingest_lenient(&mut session, &[black_box(pert.into())]));
                    }
                    last
                })
            });
        }
        #[cfg(feature = "parallel")]
        {
            let session_problem = problem.clone();
            let mut session = DynamicSession::new(&session_problem, &init);
            let mut rng = StdRng::seed_from_u64(rng_seed);
            group.bench_function("session_parallel", |b| {
                b.iter(|| {
                    let mut last = None;
                    for _ in 0..SESSION_BATCH {
                        let pert = draw_perturbation(&mut rng, n, with_weights);
                        last = Some(ingest_lenient(&mut session, &[black_box(pert.into())]));
                    }
                    last
                })
            });
        }
        group.finish();
    }
}

/// Batch-ingestion family: one Figure-1 redraw *burst* per measured
/// iteration — [`BATCH`] perturbations plus the stabilization needed
/// before the solution is read — driven per-perturbation
/// (one-perturbation [`DynamicSession::ingest`] × [`BATCH`], one scan
/// per relevant perturbation) against batched ingestion
/// ([`DynamicSession::ingest`] of the burst, O(Δ) repairs then at most one
/// union-scoped scan). Both variants keep their session alive across
/// iterations and draw identical perturbation streams from their own
/// seeded RNG; `to_json` normalizes the recorded means to ns per
/// perturbation.
const BATCH: usize = 64;

/// One redraw-burst perturbation: half the draws pin one endpoint (or
/// the reweighted element) inside the seed solution. Figure 1's bursts
/// run at small `n`, where most redraws touch the maintained solution;
/// at production `n` a uniform draw almost never does, and both
/// ingestion modes degenerate to the O(1) skip path that
/// `dynamic/session/*` already measures. The hot-set bias restores the
/// paper's relevance mix, so this family measures what batching is for:
/// bursts that repeatedly break local optimality.
fn draw_burst_perturbation(
    rng: &mut StdRng,
    n: usize,
    with_weights: bool,
    hot: &[u32],
) -> Perturbation {
    let pick_hot = rng.gen_bool(0.5);
    let u = if pick_hot {
        hot[rng.gen_range(0..hot.len())]
    } else {
        rng.gen_range(0..n) as u32
    };
    if with_weights && rng.gen_bool(0.5) {
        Perturbation::SetWeight {
            u,
            value: rng.gen_range(0.0..1.0),
        }
    } else {
        let mut v = rng.gen_range(0..n) as u32;
        while v == u {
            v = rng.gen_range(0..n) as u32;
        }
        Perturbation::SetDistance {
            u,
            v,
            value: rng.gen_range(1.0..2.0),
        }
    }
}

fn bench_batch<F: SetFunction + Clone>(
    c: &mut Criterion,
    family: &str,
    make: impl Fn(u64, usize) -> DiversificationProblem<DistanceMatrix, F>,
    ns: &[usize],
    with_weights: bool,
) {
    for &n in ns {
        let p = P.min(n / 2);
        let problem = make(9 + n as u64, n);
        let mut init = greedy_b(&problem, p, GreedyBConfig::default());
        for _ in 0..10 * p {
            if oblivious_update_step(&problem, &mut init).swap.is_none() {
                break;
            }
        }
        let rng_seed = 29 + n as u64;
        let hot = init.clone();
        let mut group = c.benchmark_group(format!("dynamic/batch/{family}/n{n}/p{p}"));
        // A burst (64 perturbations + stabilization) is one iteration
        // with a heavy-tailed cost (most bursts are narrow scans, a few
        // are churn storms of full scans), so this family needs a much
        // longer window than the per-cycle families — short windows catch
        // a handful of bursts and whole runs swing 5× on whether a storm
        // landed inside them.
        group.measurement_time(Duration::from_millis(2000));
        {
            let session_problem = problem.clone();
            let mut session = DynamicSession::new(&session_problem, &init);
            session.set_scan_pool(Arc::new(ScanPool::new(1)));
            let mut rng = StdRng::seed_from_u64(rng_seed);
            let hot = hot.clone();
            group.bench_function("per_apply", |b| {
                b.iter(|| {
                    for _ in 0..BATCH {
                        let pert = draw_burst_perturbation(&mut rng, n, with_weights, &hot);
                        ingest_lenient(&mut session, &[black_box(pert.into())]);
                    }
                    session.update_until_stable(BATCH)
                })
            });
        }
        {
            let session_problem = problem.clone();
            let mut session = DynamicSession::new(&session_problem, &init);
            session.set_scan_pool(Arc::new(ScanPool::new(1)));
            let mut rng = StdRng::seed_from_u64(rng_seed);
            let hot = hot.clone();
            group.bench_function("batch", |b| {
                b.iter(|| {
                    let burst: Vec<SessionPerturbation> = (0..BATCH)
                        .map(|_| draw_burst_perturbation(&mut rng, n, with_weights, &hot).into())
                        .collect();
                    ingest_lenient(&mut session, black_box(&burst));
                    session.update_until_stable(BATCH)
                })
            });
        }
        #[cfg(feature = "parallel")]
        {
            let session_problem = problem.clone();
            let mut session = DynamicSession::new(&session_problem, &init);
            let mut rng = StdRng::seed_from_u64(rng_seed);
            let hot = hot.clone();
            group.bench_function("batch_parallel", |b| {
                b.iter(|| {
                    let burst: Vec<SessionPerturbation> = (0..BATCH)
                        .map(|_| draw_burst_perturbation(&mut rng, n, with_weights, &hot).into())
                        .collect();
                    ingest_lenient(&mut session, black_box(&burst));
                    session.update_until_stable(BATCH)
                })
            });
        }
        group.finish();
    }
}

/// Applies one modular-script perturbation to an owned modular problem
/// (the constrained rebuild references mutate the instance in place).
fn apply_modular(
    problem: &mut DiversificationProblem<DistanceMatrix, ModularFunction>,
    pert: Perturbation,
) {
    match pert {
        Perturbation::SetWeight { u, value } => problem.quality_mut().set_weight(u, value),
        Perturbation::SetDistance { u, v, value } => problem.metric_mut().set(u, v, value),
    }
}

/// Constrained-session family: the steady-state perturb→update cycle
/// under a `ConstraintPolicy` — matroid exchange scans (uniform and
/// partition families) and knapsack density scans through the session's
/// persistent caches — against the per-cycle rebuild references
/// ([`oblivious_update_step_matroid`] / [`oblivious_update_step_knapsack`],
/// which reconstruct the potential caches every cycle). Same
/// rebuild/session/session_parallel variant discipline (and JSON row
/// shape) as `dynamic/session/*`.
fn bench_constrained(c: &mut Criterion, ns: &[usize]) {
    for &n in ns {
        let p = P.min(n / 2);
        let families: Vec<(&str, Box<dyn Matroid>)> = vec![
            ("uniform", Box::new(UniformMatroid::new(n, p))),
            (
                "partition",
                Box::new(PartitionMatroid::new(
                    (0..n as u32).map(|u| u % 5).collect(),
                    vec![p as u32 / 5; 5],
                )),
            ),
        ];
        for (family, matroid) in &families {
            let problem = SyntheticConfig::paper(n).generate(37 + n as u64);
            // Matroid-feasible start, driven to exchange-stability so both
            // variants measure the maintained steady state.
            let mut init = matroid.extend_to_basis(&[]);
            for _ in 0..10 * p {
                if oblivious_update_step_matroid(&problem, matroid.as_ref(), &mut init)
                    .swap
                    .is_none()
                {
                    break;
                }
            }
            let rng_seed = 41 + n as u64;
            let mut group = c.benchmark_group(format!("dynamic/constrained/{family}/n{n}/p{p}"));
            {
                let mut state = (serial(problem.clone()), init.clone());
                let mut rng = StdRng::seed_from_u64(rng_seed);
                group.bench_function("rebuild", |b| {
                    b.iter(|| {
                        let pert = draw_perturbation(&mut rng, n, true);
                        let (prob, sol) = &mut state;
                        apply_modular(prob, pert);
                        oblivious_update_step_matroid(black_box(prob), matroid.as_ref(), sol)
                    })
                });
            }
            {
                let session_problem = problem.clone();
                let mut session =
                    DynamicSession::new(&session_problem, &init).with_matroid(matroid.as_ref());
                session.set_scan_pool(Arc::new(ScanPool::new(1)));
                let mut rng = StdRng::seed_from_u64(rng_seed);
                group.bench_function("session", |b| {
                    b.iter(|| {
                        let mut last = None;
                        for _ in 0..SESSION_BATCH {
                            let pert = draw_perturbation(&mut rng, n, true);
                            last = Some(ingest_lenient(&mut session, &[black_box(pert.into())]));
                        }
                        last
                    })
                });
            }
            #[cfg(feature = "parallel")]
            {
                let session_problem = problem.clone();
                let mut session =
                    DynamicSession::new(&session_problem, &init).with_matroid(matroid.as_ref());
                let mut rng = StdRng::seed_from_u64(rng_seed);
                group.bench_function("session_parallel", |b| {
                    b.iter(|| {
                        let mut last = None;
                        for _ in 0..SESSION_BATCH {
                            let pert = draw_perturbation(&mut rng, n, true);
                            last = Some(ingest_lenient(&mut session, &[black_box(pert.into())]));
                        }
                        last
                    })
                });
            }
            group.finish();
        }
        // Knapsack: random costs, budget slightly above the seed load so
        // density repairs actually bind.
        {
            let problem = SyntheticConfig::paper(n).generate(43 + n as u64);
            let mut cost_rng = StdRng::seed_from_u64(53 + n as u64);
            let costs: Vec<f64> = (0..n).map(|_| cost_rng.gen_range(0.5..1.5)).collect();
            let mut init = greedy_b(&problem, p, GreedyBConfig::default());
            let budget = init.iter().map(|&u| costs[u as usize]).sum::<f64>() + 2.0;
            for _ in 0..10 * p {
                if oblivious_update_step_knapsack(&problem, &costs, budget, &mut init)
                    .swap
                    .is_none()
                {
                    break;
                }
            }
            let rng_seed = 47 + n as u64;
            let mut group = c.benchmark_group(format!("dynamic/constrained/knapsack/n{n}/p{p}"));
            {
                let mut state = (serial(problem.clone()), init.clone());
                let costs = costs.clone();
                let mut rng = StdRng::seed_from_u64(rng_seed);
                group.bench_function("rebuild", |b| {
                    b.iter(|| {
                        let pert = draw_perturbation(&mut rng, n, true);
                        let (prob, sol) = &mut state;
                        apply_modular(prob, pert);
                        oblivious_update_step_knapsack(black_box(prob), &costs, budget, sol)
                    })
                });
            }
            {
                let session_problem = problem.clone();
                let mut session = DynamicSession::new(&session_problem, &init)
                    .with_knapsack(costs.clone(), budget);
                session.set_scan_pool(Arc::new(ScanPool::new(1)));
                let mut rng = StdRng::seed_from_u64(rng_seed);
                group.bench_function("session", |b| {
                    b.iter(|| {
                        let mut last = None;
                        for _ in 0..SESSION_BATCH {
                            let pert = draw_perturbation(&mut rng, n, true);
                            last = Some(ingest_lenient(&mut session, &[black_box(pert.into())]));
                        }
                        last
                    })
                });
            }
            #[cfg(feature = "parallel")]
            {
                let session_problem = problem.clone();
                let mut session = DynamicSession::new(&session_problem, &init)
                    .with_knapsack(costs.clone(), budget);
                let mut rng = StdRng::seed_from_u64(rng_seed);
                group.bench_function("session_parallel", |b| {
                    b.iter(|| {
                        let mut last = None;
                        for _ in 0..SESSION_BATCH {
                            let pert = draw_perturbation(&mut rng, n, true);
                            last = Some(ingest_lenient(&mut session, &[black_box(pert.into())]));
                        }
                        last
                    })
                });
            }
            group.finish();
        }
    }
}

/// Graph-metric family: edge-churn on connected sparse networks
/// (road-like grids and clustered communities from `msd_data::graphs`),
/// n ∈ {1000, 5000}. Each measured iteration redraws one random edge's
/// weight on the dyadic grid — a mix of increases and decreases, most of
/// which move many induced shortest-path distances — through three
/// pipelines:
///
/// * `fw_rebuild` — mutate a [`WeightedGraph`] and rerun the O(n³)
///   Floyd–Warshall [`WeightedGraph::shortest_path_metric`] (the naive
///   reference; sampled sparsely, it is *minutes* per update at
///   n = 5000),
/// * `repair` — [`DynamicGraphMetric::set_edge`]'s pair-scoped APSP
///   repair: a decrease relaxes the pairs (u-side × v-side) in
///   O(n + |U|·|V|); an increase runs, per source of the smaller side,
///   a Dijkstra confined to its edge-using targets `T_i`, in
///   O(n + |U|·|V| + Σ|T_i|·deg·log n),
/// * `session_update` — one [`DynamicSession::try_apply_graph_batch`] over the
///   graph metric with modular quality: metric repair + O(Δ) cache
///   patches + the (scoped) oblivious swap update.
///
/// The recorded `fw_rebuild_ns`/`repair_ns` pair tracks the
/// repair-vs-rebuild win per update in `BENCH_dynamic.json`.
fn bench_graph(c: &mut Criterion, ns: &[usize]) {
    for &n in ns {
        let shapes: [(&str, WeightedGraph); 2] = [
            ("road", msd_data::road_like(17 + n as u64, n)),
            (
                "clustered",
                msd_data::clustered_graph(19 + n as u64, n, n / 64 + 4),
            ),
        ];
        for (family, graph) in shapes {
            let metric = DynamicGraphMetric::from_graph(&graph).expect("generators are connected");
            let edges: Vec<(u32, u32)> = graph.edges().iter().map(|&(u, v, _)| (u, v)).collect();
            let rng_seed = 31 + n as u64;
            // One redraw: a random existing edge, new weight from the
            // generators' own dyadic grid (increases and decreases mix).
            let draw = |rng: &mut StdRng| {
                let (u, v) = edges[rng.gen_range(0..edges.len())];
                (u, v, msd_data::dyadic_weight(rng))
            };
            let mut group = c.benchmark_group(format!("dynamic/graph/{family}/n{n}"));
            // The Floyd–Warshall baseline is O(n³) per iteration — keep
            // it to the minimum sample count (the measured quantity is
            // seconds-scale and stable).
            group.sample_size(2);
            {
                let mut g = graph.clone();
                let mut rng = StdRng::seed_from_u64(rng_seed);
                group.bench_function("fw_rebuild", |b| {
                    b.iter(|| {
                        let (u, v, w) = draw(&mut rng);
                        g.set_edge(u, v, w);
                        black_box(g.shortest_path_metric().expect("connected"))
                    })
                });
            }
            group.sample_size(10);
            {
                let mut m = metric.clone();
                let mut rng = StdRng::seed_from_u64(rng_seed);
                group.bench_function("repair", |b| {
                    b.iter(|| {
                        let (u, v, w) = draw(&mut rng);
                        black_box(
                            m.set_edge(u, v, w)
                                .expect("weight updates never disconnect"),
                        )
                    })
                });
            }
            {
                let p = P.min(n / 2);
                let mut rng = StdRng::seed_from_u64(rng_seed ^ 0x5EED);
                let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
                let problem =
                    DiversificationProblem::new(metric.clone(), ModularFunction::new(weights), 0.2);
                let init = greedy_b(&problem, p, GreedyBConfig::default());
                let mut session = DynamicSession::new(&problem, &init);
                session.update_until_stable(10 * p);
                let mut rng = StdRng::seed_from_u64(rng_seed);
                group.bench_function("session_update", |b| {
                    b.iter(|| {
                        let (u, v, w) = draw(&mut rng);
                        black_box(
                            session
                                .try_apply_graph_batch(&[GraphPerturbation::SetEdge {
                                    u,
                                    v,
                                    weight: w,
                                }])
                                .expect("weight updates never disconnect"),
                        )
                    })
                });
            }
            group.finish();
        }
    }
}

/// Double-swap family at small fixed sizes (the scan is O(n²p²); these
/// sizes keep one update in the milliseconds while still giving the
/// parallel chunking enough member pairs to spread).
fn bench_double(c: &mut Criterion) {
    for &(n, p) in &[(100usize, 10usize), (200, 20)] {
        let problem = SyntheticConfig::paper(n).generate(44);
        let init = greedy_b(&problem, p, GreedyBConfig::default());
        let base = DynamicInstance::new(serial(problem.clone()), &init);
        let script = perturbation_script(13 + n as u64, n, true);
        let mut group = c.benchmark_group(format!("dynamic/double/n{n}/p{p}"));
        bench_cycle(&mut group, "perturb_update", &base, &script, |d, pert| {
            d.apply(pert);
            d.oblivious_update_double()
        });
        #[cfg(feature = "parallel")]
        bench_cycle(
            &mut group,
            "perturb_update_parallel",
            &DynamicInstance::new(problem, &init),
            &script,
            |d, pert| {
                d.apply(pert);
                d.oblivious_update_double()
            },
        );
        group.finish();
    }
}

/// Serializes the dynamic-family records into a JSON document with
/// serial-vs-parallel speedups per configuration. Hand-rolled writer —
/// the build environment has no serde.
fn to_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"dynamic\",");
    let _ = writeln!(
        out,
        "  \"command\": \"cargo bench -p msd-bench --bench dynamic --features parallel\","
    );
    let _ = writeln!(
        out,
        "  \"workload\": \"one Figure-1 perturb->oblivious-update cycle per iteration\","
    );
    let _ = writeln!(out, "  \"unit\": \"ns_per_cycle\",");
    let _ = writeln!(
        out,
        "  \"host_cpus\": {},",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    out.push_str("  \"results\": [\n");
    // Record ids look like `dynamic/coverage/n1000/p50/perturb_update`,
    // `dynamic/session/coverage/n1000/p50/rebuild`,
    // `dynamic/constrained/partition/n5000/p50/session`,
    // `dynamic/batch/modular/n5000/p50/batch` or
    // `dynamic/graph/road/n5000/repair`; session and constrained configs
    // emit a rebuild-vs-session pair, batch configs a per-apply-vs-batch pair,
    // graph configs a Floyd–Warshall-vs-repair pair (plus the
    // graph-session update), the others a serial-vs-parallel pair.
    let configs = record_configs(records);
    for (i, config) in configs.iter().enumerate() {
        let tail = if i + 1 < configs.len() { "," } else { "" };
        let rebuild = record_mean(records, config, "rebuild");
        // Session and batch variants measure SESSION_BATCH (= BATCH)
        // cycles per iteration; normalize back to ns-per-cycle.
        let per_cycle = |v: Option<f64>| v.map(|v| v / SESSION_BATCH as f64);
        let session = per_cycle(record_mean(records, config, "session"));
        let per_apply = per_cycle(record_mean(records, config, "per_apply"));
        let batch = per_cycle(record_mean(records, config, "batch"));
        let fw_rebuild = record_mean(records, config, "fw_rebuild");
        let repair = record_mean(records, config, "repair");
        if fw_rebuild.is_some() || repair.is_some() {
            let session_update = record_mean(records, config, "session_update");
            let _ = writeln!(
                out,
                "    {{\"config\": \"{config}\", \"fw_rebuild_ns\": {}, \"repair_ns\": {}, \"session_update_ns\": {}, \"speedup_rebuild_over_repair\": {}}}{tail}",
                json_num(fw_rebuild),
                json_num(repair),
                json_num(session_update),
                json_ratio(fw_rebuild, repair),
            );
        } else if per_apply.is_some() || batch.is_some() {
            let batch_parallel = per_cycle(record_mean(records, config, "batch_parallel"));
            let _ = writeln!(
                out,
                "    {{\"config\": \"{config}\", \"per_apply_ns\": {}, \"batch_ns\": {}, \"batch_parallel_ns\": {}, \"speedup_per_apply_over_batch\": {}}}{tail}",
                json_num(per_apply),
                json_num(batch),
                json_num(batch_parallel),
                json_ratio(per_apply, batch),
            );
        } else if rebuild.is_some() || session.is_some() {
            let session_parallel = per_cycle(record_mean(records, config, "session_parallel"));
            let _ = writeln!(
                out,
                "    {{\"config\": \"{config}\", \"rebuild_ns\": {}, \"session_ns\": {}, \"session_parallel_ns\": {}, \"speedup_rebuild_over_session\": {}}}{tail}",
                json_num(rebuild),
                json_num(session),
                json_num(session_parallel),
                json_ratio(rebuild, session),
            );
        } else {
            let serial = record_mean(records, config, "perturb_update");
            let parallel = record_mean(records, config, "perturb_update_parallel");
            // `forced_chunk_ns` is the MSD_PARALLEL_THREADS=4 variant:
            // genuinely chunked scans even on a 1-core host, where
            // `parallel_ns` measures the single-chunk (serial) schedule.
            let forced = record_mean(records, config, "perturb_update_forced");
            let _ = writeln!(
                out,
                "    {{\"config\": \"{config}\", \"serial_ns\": {}, \"parallel_ns\": {}, \"forced_chunk_ns\": {}, \"speedup_serial_over_parallel\": {}}}{tail}",
                json_num(serial),
                json_num(parallel),
                json_num(forced),
                json_ratio(serial, parallel),
            );
        }
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let ns = ground_sizes(&[1000, 5000]);
    let mut c = Criterion::default()
        .sample_size(3)
        .measurement_time(Duration::from_millis(50));
    bench_modular(&mut c, &ns);
    bench_generic(&mut c, "coverage", coverage, &ns);
    bench_generic(&mut c, "facility", facility, &ns);
    bench_double(&mut c);
    bench_session(
        &mut c,
        "modular",
        |seed, n| SyntheticConfig::paper(n).generate(seed),
        |problem, pert| match pert {
            Perturbation::SetWeight { u, value } => problem.quality_mut().set_weight(u, value),
            Perturbation::SetDistance { u, v, value } => problem.metric_mut().set(u, v, value),
        },
        &ns,
        true,
    );
    bench_session(&mut c, "coverage", coverage, apply_to_problem, &ns, false);
    bench_session(&mut c, "facility", facility, apply_to_problem, &ns, false);
    bench_batch(
        &mut c,
        "modular",
        |seed, n| SyntheticConfig::paper(n).generate(seed),
        &ns,
        true,
    );
    bench_batch(&mut c, "coverage", coverage, &ns, false);
    bench_batch(&mut c, "facility", facility, &ns, false);
    bench_constrained(&mut c, &ns);
    bench_graph(&mut c, &ns);
    let records = c.take_records();

    let json = to_json(&records);
    let target = workspace_root().join("BENCH_dynamic.json");
    std::fs::write(&target, json).expect("write bench json");
    println!("wrote {}", target.display());
}
