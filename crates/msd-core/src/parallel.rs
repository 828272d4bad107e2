//! Thread-parallel candidate scans (`parallel` feature).
//!
//! The quadratic scans of the hot paths — the Greedy B argmax, the
//! `best_pair_start` O(n²) seed, the pair greedy's O(n²) batch scan, the
//! best-improvement swap scan of the local search, and the dynamic-update
//! rule's O(n·p) single-swap and O(n²p²) double-swap scans — are
//! embarrassingly parallel once every candidate evaluation is an O(1)
//! cache read (see [`crate::potential`]). This module distributes them
//! over the persistent [`ScanPool`] workers (no external dependencies;
//! the build environment has no registry access, so rayon is deliberately
//! not used). Every public entry point takes its pool explicitly: pass
//! [`ScanPool::global`] for the ambient pool, whose worker count is fixed
//! once at first use (`MSD_PARALLEL_THREADS` or the hardware count);
//! tests and benches that need a specific chunk schedule construct their
//! own pool instead of mutating the process environment.
//!
//! **Determinism.** Every scan breaks ties toward the *lowest index* (for
//! pair scans: lexicographically smallest pair; for swap scans: smallest
//! candidate, then earliest member), both inside a chunk and when merging
//! chunks in index order. Each candidate's score is computed by the exact
//! same expression as the serial code, so for any instance the parallel
//! entry points return **bit-identical outputs** to their serial
//! counterparts — asserted by the equivalence suite in
//! `msd-bench/tests/incremental_equivalence.rs`.
//!
//! Parallelism comes from the pool; every problem is thread-shareable,
//! because metrics, set functions, oracles and matroids all require
//! `Send + Sync`. The entry points therefore mirror the serial
//! signatures exactly, with one leading pool argument:
//!
//! * [`greedy_b_in`] / [`greedy_b_pairs_in`] / [`max_sum_dispersion_greedy_in`]
//! * [`local_search_matroid_in`] / [`local_search_refine_in`]
//! * [`oblivious_update_step_in`] and its matroid / knapsack variants
//!   (the generic dynamic repair step; the modular
//!   [`crate::DynamicInstance`] exposes its own
//!   `oblivious_update_parallel_in` / `oblivious_update_double_parallel_in`,
//!   built on the same chunked reduction)

use msd_matroid::Matroid;
use msd_metric::Metric;
use msd_submodular::SetFunction;

use crate::local_search::{LocalSearchConfig, LocalSearchResult, PivotRule};
use crate::pool::ScanPool;
use crate::potential::PotentialState;
use crate::problem::DiversificationProblem;
use crate::{ElementId, GreedyBConfig};

/// Deterministic parallel argmax over `0..n`: highest score wins, ties go
/// to the lowest index. `score` returns `None` for excluded candidates.
/// A thin wrapper over [`ScanPool::scan_chunks`] so the
/// determinism-critical chunk/merge logic exists exactly once.
fn par_argmax<F>(pool: &ScanPool, n: usize, score: F) -> Option<(ElementId, f64)>
where
    F: Fn(ElementId) -> Option<f64> + Sync,
{
    pool.scan_chunks(
        n,
        |lo, hi| {
            let mut best: Option<(ElementId, f64)> = None;
            for u in lo..hi {
                if let Some(s) = score(u as ElementId) {
                    if best.is_none_or(|(_, b)| s > b) {
                        best = Some((u as ElementId, s));
                    }
                }
            }
            best
        },
        |&(_, s)| s,
    )
}

/// Runs `scan` chunked over the pool when `chunked`, or as one inline
/// `scan(0, n)` call when not — the sub-work-floor fallback that reuses
/// the caller's already-built caches instead of delegating to a serial
/// entry point that would rebuild them. Identical output either way
/// (one chunk *is* the serial traversal).
fn scan_maybe_par<T, S, K>(pool: &ScanPool, n: usize, chunked: bool, scan: S, key: K) -> Option<T>
where
    T: Send,
    S: Fn(usize, usize) -> Option<T> + Sync,
    K: Fn(&T) -> f64,
{
    if chunked {
        pool.scan_chunks(n, scan, key)
    } else {
        scan(0, n)
    }
}

/// Parallel Greedy B: bit-identical to [`crate::greedy_b`].
///
/// Each step evaluates the exact potential `φ'_u(S)` of every candidate
/// concurrently (O(1) reads for structured quality oracles) and merges
/// with the deterministic lowest-index tie-break.
pub fn greedy_b_in<M, F>(
    pool: &ScanPool,
    problem: &DiversificationProblem<M, F>,
    p: usize,
    config: GreedyBConfig,
) -> Vec<ElementId>
where
    M: Metric,
    F: SetFunction,
{
    let n = problem.ground_size();
    let p = p.min(n);
    if p == 0 {
        return Vec::new();
    }
    let mut state = PotentialState::new(problem);

    if config.best_pair_start && p >= 2 {
        // Parallel over x; each worker runs the full inner y loop, so the
        // traversal inside a chunk is the serial lexicographic order.
        let seed = {
            let st = &state;
            pool.scan_chunks(
                n,
                |lo, hi| {
                    let mut best: Option<(ElementId, ElementId, f64)> = None;
                    for x in lo as ElementId..hi as ElementId {
                        for y in (x + 1)..n as ElementId {
                            let score = st.pair_potential(x, y);
                            if best.is_none_or(|(_, _, b)| score > b) {
                                best = Some((x, y, score));
                            }
                        }
                    }
                    best
                },
                |&(_, _, score)| score,
            )
        };
        if let Some((x, y, _)) = seed {
            state.insert(x);
            state.insert(y);
        }
    }

    while state.len() < p {
        let next = {
            let st = &state;
            par_argmax(pool, n, |u| (!st.contains(u)).then(|| st.potential(u)))
        };
        match next {
            Some((u, _)) => state.insert(u),
            None => break,
        }
    }
    state.into_members()
}

/// Parallel pair (batch) greedy: bit-identical to
/// [`crate::greedy_b_pairs`].
///
/// Each batch step distributes the O(n²) pair scan chunked over the first
/// pair element `u`; a worker runs the full inner `v` loop so traversal
/// inside a chunk is the serial lexicographic order, and chunks merge in
/// index order with strict comparison — the lexicographically smallest
/// maximizing pair wins, exactly as in the serial scan. The final
/// single-vertex step for odd `p` is the parallel exact-potential argmax
/// (the serial code's lazy argmax selects the same element — stale bounds
/// only over-rank, see [`crate::greedy::greedy_b`]'s submodularity note).
pub fn greedy_b_pairs_in<M, F>(
    pool: &ScanPool,
    problem: &DiversificationProblem<M, F>,
    p: usize,
) -> Vec<ElementId>
where
    M: Metric,
    F: SetFunction,
{
    let n = problem.ground_size();
    let p = p.min(n);
    if p == 0 {
        return Vec::new();
    }
    let mut state = PotentialState::new(problem);
    // Each batch step is an O(n²) scan of pair-potential reads; below the
    // cost-weighted amortization floor the same scans run inline over the
    // same state (one chunk is the serial traversal — bit-identical, no
    // spawn cost and no second cache construction).
    let chunked = pool.worthwhile(n.saturating_mul(n).saturating_mul(state.scan_cost_hint()));

    while state.len() + 2 <= p {
        let best = {
            let st = &state;
            scan_maybe_par(
                pool,
                n,
                chunked,
                |lo, hi| {
                    let mut best: Option<(ElementId, ElementId, f64)> = None;
                    for u in lo as ElementId..hi as ElementId {
                        if st.contains(u) {
                            continue;
                        }
                        for v in (u + 1)..n as ElementId {
                            if st.contains(v) {
                                continue;
                            }
                            let score = st.pair_potential(u, v);
                            if best.is_none_or(|(_, _, b)| score > b) {
                                best = Some((u, v, score));
                            }
                        }
                    }
                    best
                },
                |&(_, _, score)| score,
            )
        };
        match best {
            Some((u, v, _)) => {
                state.insert(u);
                state.insert(v);
            }
            None => break,
        }
    }
    if state.len() < p {
        // One final single-vertex step for odd p (exact-potential argmax;
        // the serial code's lazy argmax selects the same element — stale
        // bounds only over-rank, see `crate::greedy::greedy_b`).
        let next = {
            let st = &state;
            scan_maybe_par(
                pool,
                n,
                chunked,
                |lo, hi| {
                    let mut best: Option<(ElementId, f64)> = None;
                    for u in lo as ElementId..hi as ElementId {
                        if st.contains(u) {
                            continue;
                        }
                        let score = st.potential(u);
                        if best.is_none_or(|(_, b)| score > b) {
                            best = Some((u, score));
                        }
                    }
                    best
                },
                |&(_, score)| score,
            )
        };
        if let Some((u, _)) = next {
            state.insert(u);
        }
    }
    state.into_members()
}

/// Parallel generic dynamic repair step: bit-identical to
/// [`crate::dynamic::oblivious_update_step`].
///
/// The `(v ∉ S, u ∈ S)` scan runs chunked over the candidate `v`; each
/// worker walks the member list in solution order, so per-chunk traversal
/// matches the serial loop and the deterministic merge keeps the serial
/// winner (smallest incoming `v`, then earliest member).
pub fn oblivious_update_step_in<M, F>(
    pool: &ScanPool,
    problem: &DiversificationProblem<M, F>,
    solution: &mut Vec<ElementId>,
) -> crate::dynamic::UpdateOutcome
where
    M: Metric,
    F: SetFunction,
{
    let n = problem.ground_size();
    let mut state = PotentialState::new(problem);
    for &u in solution.iter() {
        state.insert(u);
    }
    // The scan is O(n·p) cache reads whose unit cost depends on the
    // quality family; below the cost-weighted amortization floor the same
    // chunk runs once inline over the same state (bit-identical, no spawn
    // cost).
    let work = n
        .saturating_mul(solution.len())
        .saturating_mul(state.scan_cost_hint());
    let best = {
        let st = &state;
        scan_maybe_par(
            pool,
            n,
            pool.worthwhile(work),
            |lo, hi| {
                crate::dynamic::scan_swap_chunk(
                    lo as ElementId,
                    hi as ElementId,
                    st.members(),
                    |v| !st.contains(v),
                    |v, u| st.swap_gain(v, u),
                )
            },
            |&(_, _, gain)| gain,
        )
    };
    crate::dynamic::apply_step_outcome(solution, best)
}

/// Parallel matroid-constrained repair step: bit-identical to
/// [`crate::dynamic::oblivious_update_step_matroid`].
///
/// Chunked over the candidate `v` like [`oblivious_update_step_in`];
/// exchange-infeasible cells score `NEG_INFINITY` inside the chunk, so
/// the deterministic merge sees the exact serial score surface and keeps
/// the serial winner.
pub fn oblivious_update_step_matroid_in<M, F, Mat>(
    pool: &ScanPool,
    problem: &DiversificationProblem<M, F>,
    matroid: &Mat,
    solution: &mut Vec<ElementId>,
) -> crate::dynamic::UpdateOutcome
where
    M: Metric,
    F: SetFunction,
    Mat: Matroid + ?Sized,
{
    let n = problem.ground_size();
    let mut state = PotentialState::new(problem);
    for &u in solution.iter() {
        state.insert(u);
    }
    let work = n
        .saturating_mul(solution.len())
        .saturating_mul(state.scan_cost_hint());
    let best = {
        let st = &state;
        scan_maybe_par(
            pool,
            n,
            pool.worthwhile(work),
            |lo, hi| {
                crate::dynamic::scan_swap_chunk(
                    lo as ElementId,
                    hi as ElementId,
                    st.members(),
                    |v| !st.contains(v),
                    |v, u| {
                        if matroid.exchange_feasible(st.members(), u, v) {
                            st.swap_gain(v, u)
                        } else {
                            f64::NEG_INFINITY
                        }
                    },
                )
            },
            |&(_, _, gain)| gain,
        )
    };
    crate::dynamic::apply_step_outcome(solution, best)
}

/// Parallel knapsack-constrained repair step: bit-identical to
/// [`crate::dynamic::oblivious_update_step_knapsack`].
///
/// Cells rank by gain-per-cost density (budget-infeasible and
/// non-improving cells score `NEG_INFINITY`); the winning swap's reported
/// gain is remapped to the true objective gain after the merge, exactly
/// as in the serial step.
pub fn oblivious_update_step_knapsack_in<M, F>(
    pool: &ScanPool,
    problem: &DiversificationProblem<M, F>,
    costs: &[f64],
    budget: f64,
    solution: &mut Vec<ElementId>,
) -> crate::dynamic::UpdateOutcome
where
    M: Metric,
    F: SetFunction,
{
    let n = problem.ground_size();
    assert_eq!(costs.len(), n, "one cost per element required");
    let mut state = PotentialState::new(problem);
    for &u in solution.iter() {
        state.insert(u);
    }
    let load: f64 = state.members().iter().map(|&u| costs[u as usize]).sum();
    let work = n
        .saturating_mul(solution.len())
        .saturating_mul(state.scan_cost_hint());
    let best = {
        let st = &state;
        scan_maybe_par(
            pool,
            n,
            pool.worthwhile(work),
            |lo, hi| {
                crate::dynamic::scan_swap_chunk(
                    lo as ElementId,
                    hi as ElementId,
                    st.members(),
                    |v| !st.contains(v),
                    |v, u| {
                        if load - costs[u as usize] + costs[v as usize] > budget {
                            return f64::NEG_INFINITY;
                        }
                        let gain = st.swap_gain(v, u);
                        if gain > 0.0 {
                            crate::knapsack::density_score(gain, costs[v as usize])
                        } else {
                            f64::NEG_INFINITY
                        }
                    },
                )
            },
            |&(_, _, score)| score,
        )
    };
    let best = best.map(|(u, v, _)| (u, v, state.swap_gain(v, u)));
    crate::dynamic::apply_step_outcome(solution, best)
}

/// Parallel dispersion greedy (Corollary 1), bit-identical to
/// [`crate::max_sum_dispersion_greedy`].
pub fn max_sum_dispersion_greedy_in<M: Metric>(
    pool: &ScanPool,
    metric: &M,
    p: usize,
) -> Vec<ElementId> {
    let problem =
        DiversificationProblem::new(metric, msd_submodular::ZeroFunction::new(metric.len()), 1.0);
    greedy_b_in(pool, &problem, p, GreedyBConfig::default())
}

/// Parallel Theorem 2 local search, bit-identical to
/// [`crate::local_search_matroid`].
///
/// # Panics
///
/// Panics if the matroid's ground size disagrees with the problem's, or
/// if `config.epsilon` is negative or not finite.
pub fn local_search_matroid_in<M, F, Mat>(
    pool: &ScanPool,
    problem: &DiversificationProblem<M, F>,
    matroid: &Mat,
    config: LocalSearchConfig,
) -> LocalSearchResult
where
    M: Metric,
    F: SetFunction,
    Mat: Matroid,
{
    crate::local_search::assert_valid_epsilon(config.epsilon);
    assert_eq!(
        matroid.ground_size(),
        problem.ground_size(),
        "matroid and problem must share a ground set"
    );
    let n = problem.ground_size();
    let rank = matroid.rank();
    if rank == 0 || n == 0 {
        return LocalSearchResult {
            set: Vec::new(),
            objective: 0.0,
            swaps: 0,
            converged: true,
        };
    }

    // Initialization mirrors the serial code; the pair scan is the
    // parallelized O(n²) part.
    let seed: Vec<ElementId> = if rank >= 2 {
        let best = pool.scan_chunks(
            n,
            |lo, hi| {
                let mut best: Option<(ElementId, ElementId, f64)> = None;
                for x in lo as ElementId..hi as ElementId {
                    for y in (x + 1)..n as ElementId {
                        if !matroid.is_independent(&[x, y]) {
                            continue;
                        }
                        let score = problem.quality().value(&[x, y])
                            + problem.lambda() * problem.metric().distance(x, y);
                        if best.is_none_or(|(_, _, b)| score > b) {
                            best = Some((x, y, score));
                        }
                    }
                }
                best
            },
            |&(_, _, score)| score,
        );
        match best {
            Some((x, y, _)) => vec![x, y],
            None => Vec::new(),
        }
    } else {
        // Total order on NaN (see the serial seed in `local_search`):
        // identical tie semantics keep the parallel path bit-compatible.
        let best = (0..n as ElementId)
            .filter(|&x| matroid.is_independent(&[x]))
            .max_by(|&a, &b| {
                problem
                    .quality()
                    .singleton(a)
                    .total_cmp(&problem.quality().singleton(b))
            });
        best.map(|x| vec![x]).unwrap_or_default()
    };
    let basis = matroid.extend_to_basis(&seed);
    refine_par(pool, problem, matroid, basis, config)
}

/// Parallel budgeted refinement, bit-identical to
/// [`crate::local_search_refine`].
///
/// # Panics
///
/// Panics if `config.epsilon` is negative or not finite.
pub fn local_search_refine_in<M, F>(
    pool: &ScanPool,
    problem: &DiversificationProblem<M, F>,
    initial: &[ElementId],
    config: LocalSearchConfig,
) -> LocalSearchResult
where
    M: Metric,
    F: SetFunction,
{
    let matroid = msd_matroid::UniformMatroid::new(problem.ground_size(), initial.len());
    refine_par(pool, problem, &matroid, initial.to_vec(), config)
}

/// Parallel core swap loop: the best-improvement (or first-improvement)
/// scan over `(u, v)` pairs runs chunked over `u`.
fn refine_par<M, F, Mat>(
    pool: &ScanPool,
    problem: &DiversificationProblem<M, F>,
    matroid: &Mat,
    initial: Vec<ElementId>,
    config: LocalSearchConfig,
) -> LocalSearchResult
where
    M: Metric,
    F: SetFunction,
    Mat: Matroid,
{
    crate::local_search::assert_valid_epsilon(config.epsilon);
    let start = std::time::Instant::now();
    let n = problem.ground_size();

    let mut state = PotentialState::new(problem);
    for &u in &initial {
        state.insert(u);
    }
    let mut objective = problem.objective(state.members());
    let mut swaps = 0usize;
    let mut converged = false;

    loop {
        if swaps >= config.max_swaps {
            break;
        }
        if let Some(budget) = config.time_budget {
            if start.elapsed() >= budget {
                break;
            }
        }
        let threshold = config.epsilon * objective.abs().max(1.0);
        let chosen = {
            let st = &state;
            pool.scan_chunks(
                n,
                |lo, hi| {
                    let members = st.members();
                    let mut local: Option<(ElementId, ElementId, f64)> = None;
                    // The serial refine's prune, against this chunk's own
                    // best: the chunk's winner, and so the merge, is unchanged.
                    let mut floor = threshold;
                    for u in lo as ElementId..hi as ElementId {
                        if st.contains(u) {
                            continue;
                        }
                        for &v in members {
                            // Same test as the serial refine's hot loop:
                            // `exchange_feasible` engages the per-family
                            // fast paths.
                            if !matroid.exchange_feasible(members, v, u) {
                                continue;
                            }
                            let Some(gain) = st.swap_gain_above(u, v, floor) else {
                                continue;
                            };
                            if gain <= threshold {
                                continue;
                            }
                            match config.pivot {
                                // First improving pair in traversal order:
                                // the chunk stops at its first hit, and the
                                // earliest chunk wins the merge.
                                PivotRule::FirstImprovement => return Some((u, v, gain)),
                                PivotRule::BestImprovement => {
                                    if local.is_none_or(|(_, _, g)| gain > g) {
                                        local = Some((u, v, gain));
                                        floor = threshold.max(gain);
                                    }
                                }
                            }
                        }
                    }
                    local
                },
                // For FirstImprovement the merge must pick the earliest
                // chunk's hit regardless of magnitude; feeding a constant
                // key does exactly that (strict merge keeps the first).
                |&(_, _, gain)| match config.pivot {
                    PivotRule::FirstImprovement => 0.0,
                    PivotRule::BestImprovement => gain,
                },
            )
        };
        match chosen {
            Some((u, v, gain)) => {
                state.swap(u, v);
                objective += gain;
                swaps += 1;
            }
            None => {
                converged = true;
                break;
            }
        }
    }

    let set = state.into_members();
    let objective = problem.objective(&set);
    LocalSearchResult {
        set,
        objective,
        swaps,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GreedyBConfig, LocalSearchConfig};
    use msd_metric::DistanceMatrix;
    use msd_submodular::{CoverageFunction, ModularFunction};

    fn modular_instance(
        seed: u64,
        n: usize,
    ) -> DiversificationProblem<DistanceMatrix, ModularFunction> {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let weights: Vec<f64> = (0..n).map(|_| next()).collect();
        let metric = DistanceMatrix::from_fn(n, |_, _| 1.0 + next());
        DiversificationProblem::new(metric, ModularFunction::new(weights), 0.2)
    }

    #[test]
    fn parallel_greedy_matches_serial_exactly() {
        for seed in 0..6u64 {
            let problem = modular_instance(seed, 80);
            for p in [1usize, 7, 23] {
                for best_pair_start in [false, true] {
                    let config = GreedyBConfig { best_pair_start };
                    assert_eq!(
                        greedy_b_in(ScanPool::global(), &problem, p, config),
                        crate::greedy_b(&problem, p, config),
                        "seed {seed} p {p} pair_start {best_pair_start}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_greedy_matches_serial_on_coverage() {
        let cover = CoverageFunction::new(
            (0..60).map(|u| vec![u % 7, (u * 3) % 7]).collect(),
            vec![1.0, 2.0, 0.5, 4.0, 1.5, 3.0, 0.25],
        );
        let metric = DistanceMatrix::from_fn(60, |u, v| 1.0 + f64::from(u * 17 + v) % 50.0 / 50.0);
        let problem = DiversificationProblem::new(metric, cover, 0.3);
        for p in [2usize, 9, 30] {
            assert_eq!(
                greedy_b_in(ScanPool::global(), &problem, p, GreedyBConfig::default()),
                crate::greedy_b(&problem, p, GreedyBConfig::default()),
                "p {p}"
            );
        }
    }

    #[test]
    fn parallel_local_search_matches_serial_exactly() {
        use crate::local_search::PivotRule;
        for seed in 0..4u64 {
            let problem = modular_instance(seed + 100, 40);
            let initial: Vec<ElementId> = (0..6).collect();
            for pivot in [PivotRule::BestImprovement, PivotRule::FirstImprovement] {
                let config = LocalSearchConfig {
                    pivot,
                    ..LocalSearchConfig::default()
                };
                let par = local_search_refine_in(ScanPool::global(), &problem, &initial, config);
                let ser = crate::local_search_refine(&problem, &initial, config);
                assert_eq!(par.set, ser.set, "seed {seed} pivot {pivot:?}");
                assert_eq!(par.swaps, ser.swaps);
                assert_eq!(par.objective, ser.objective);
            }
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be finite and non-negative")]
    fn parallel_refine_rejects_negative_epsilon() {
        let problem = modular_instance(5, 12);
        let _ = local_search_refine_in(
            &ScanPool::new(4),
            &problem,
            &[0, 1, 2, 3],
            LocalSearchConfig {
                epsilon: -0.1,
                max_swaps: 10_000,
                ..LocalSearchConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "epsilon must be finite and non-negative")]
    fn parallel_refine_rejects_nan_epsilon() {
        let problem = modular_instance(5, 12);
        let _ = local_search_refine_in(
            &ScanPool::new(4),
            &problem,
            &[0, 1, 2, 3],
            LocalSearchConfig {
                epsilon: f64::NAN,
                max_swaps: 10_000,
                ..LocalSearchConfig::default()
            },
        );
    }

    #[test]
    fn parallel_matroid_search_matches_serial_exactly() {
        use msd_matroid::PartitionMatroid;
        for seed in 0..4u64 {
            let problem = modular_instance(seed + 50, 24);
            let matroid = PartitionMatroid::new((0..24u32).map(|u| u % 3).collect(), vec![2, 3, 2]);
            let par = local_search_matroid_in(
                ScanPool::global(),
                &problem,
                &matroid,
                LocalSearchConfig::default(),
            );
            let ser = crate::local_search_matroid(&problem, &matroid, LocalSearchConfig::default());
            assert_eq!(par.set, ser.set, "seed {seed}");
            assert_eq!(par.objective, ser.objective);
        }
    }

    #[test]
    fn parallel_dispersion_greedy_matches_serial() {
        let problem = modular_instance(9, 50);
        assert_eq!(
            max_sum_dispersion_greedy_in(ScanPool::global(), problem.metric(), 8),
            crate::max_sum_dispersion_greedy(problem.metric(), 8)
        );
    }

    #[test]
    fn parallel_pair_greedy_matches_serial_exactly() {
        for seed in 0..6u64 {
            let problem = modular_instance(seed + 200, 60);
            for p in [0usize, 1, 2, 5, 8, 17, 60] {
                assert_eq!(
                    greedy_b_pairs_in(ScanPool::global(), &problem, p),
                    crate::greedy_b_pairs(&problem, p),
                    "seed {seed} p {p}"
                );
            }
        }
    }

    #[test]
    fn parallel_pair_greedy_matches_serial_on_coverage() {
        let cover = CoverageFunction::new(
            (0..50).map(|u| vec![u % 9, (u * 5) % 9]).collect(),
            vec![1.0, 2.0, 0.5, 4.0, 1.5, 3.0, 0.25, 2.5, 0.75],
        );
        let metric = DistanceMatrix::from_fn(50, |u, v| 1.0 + f64::from(u * 13 + v) % 40.0 / 40.0);
        let problem = DiversificationProblem::new(metric, cover, 0.3);
        for p in [2usize, 7, 21] {
            assert_eq!(
                greedy_b_pairs_in(ScanPool::global(), &problem, p),
                crate::greedy_b_pairs(&problem, p),
                "p {p}"
            );
        }
    }

    #[test]
    fn parallel_dynamic_updates_match_serial_exactly() {
        use crate::dynamic::{DynamicInstance, Perturbation};
        for seed in 0..5u64 {
            let n = 40;
            let problem = {
                let m = modular_instance(seed + 300, n);
                DiversificationProblem::new(m.metric().clone(), m.quality().clone(), m.lambda())
            };
            let init = crate::greedy_b(&problem, 6, GreedyBConfig::default());
            let mut serial = DynamicInstance::new(problem.clone(), &init);
            let mut par = DynamicInstance::new(problem, &init);
            for (u, value) in [(0u32, 3.0), (7, 0.01), (39, 2.5)] {
                serial.apply(Perturbation::SetWeight { u, value });
                par.apply(Perturbation::SetWeight { u, value });
                let a = serial.oblivious_update();
                let b = par.oblivious_update_parallel_in(ScanPool::global());
                assert_eq!(a, b, "seed {seed} single-swap diverged");
                let a = serial.oblivious_update_double();
                let b = par.oblivious_update_double_parallel_in(ScanPool::global());
                assert_eq!(a, b, "seed {seed} double-swap diverged");
                assert_eq!(serial.solution(), par.solution(), "seed {seed}");
                assert_eq!(serial.objective(), par.objective(), "seed {seed}");
            }
        }
    }

    #[test]
    fn overprovisioned_forced_worker_count_is_safe() {
        // Regression: a forced worker count exceeding the chunk grid
        // (7 workers over 15 member pairs → trailing lo of 18) used to
        // panic the slice-indexed double-swap scan. Exercised through an
        // explicit over-provisioned pool — no env mutation, safe under
        // the default multi-threaded test harness.
        use crate::dynamic::{DynamicInstance, Perturbation};
        let pool = ScanPool::new(7);
        let problem = modular_instance(77, 20);
        let init: Vec<ElementId> = (0..6).collect();
        let mut ser = DynamicInstance::new(problem.clone(), &init);
        let mut par = DynamicInstance::new(problem, &init);
        for d in [&mut ser, &mut par] {
            d.apply(Perturbation::SetWeight { u: 19, value: 5.0 });
        }
        assert_eq!(
            ser.oblivious_update_double(),
            par.oblivious_update_double_parallel_in(&pool)
        );
        assert_eq!(ser.solution(), par.solution());
    }

    #[test]
    fn parallel_update_step_matches_serial_exactly() {
        for seed in 0..5u64 {
            let problem = modular_instance(seed + 400, 45);
            let mut a: Vec<ElementId> = (0..7).collect();
            let mut b = a.clone();
            for _ in 0..4 {
                let sa = crate::dynamic::oblivious_update_step(&problem, &mut a);
                let sb = oblivious_update_step_in(ScanPool::global(), &problem, &mut b);
                assert_eq!(sa, sb, "seed {seed} step outcome diverged");
                assert_eq!(a, b, "seed {seed} solution diverged");
                if sa.swap.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn parallel_matroid_update_step_matches_serial_exactly() {
        use msd_matroid::PartitionMatroid;
        let pool = ScanPool::new(4);
        for seed in 0..5u64 {
            let problem = modular_instance(seed + 500, 45);
            let matroid = PartitionMatroid::new((0..45u32).map(|u| u % 3).collect(), vec![3, 2, 2]);
            let mut a: Vec<ElementId> = vec![0, 3, 6, 1, 4, 2, 5];
            let mut b = a.clone();
            for _ in 0..4 {
                let sa = crate::dynamic::oblivious_update_step_matroid(&problem, &matroid, &mut a);
                let sb = oblivious_update_step_matroid_in(&pool, &problem, &matroid, &mut b);
                assert_eq!(sa, sb, "seed {seed} step outcome diverged");
                assert_eq!(a, b, "seed {seed} solution diverged");
                assert!(matroid.is_independent(&a), "seed {seed} left the matroid");
                if sa.swap.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn parallel_knapsack_update_step_matches_serial_exactly() {
        let pool = ScanPool::new(4);
        for seed in 0..5u64 {
            let problem = modular_instance(seed + 600, 45);
            let costs: Vec<f64> = (0..45).map(|u| 1.0 + f64::from(u % 5u32)).collect();
            let budget = 16.0;
            let mut a: Vec<ElementId> = (0..6).collect();
            let mut b = a.clone();
            for _ in 0..4 {
                let sa = crate::dynamic::oblivious_update_step_knapsack(
                    &problem, &costs, budget, &mut a,
                );
                let sb = oblivious_update_step_knapsack_in(&pool, &problem, &costs, budget, &mut b);
                assert_eq!(sa, sb, "seed {seed} step outcome diverged");
                assert_eq!(a, b, "seed {seed} solution diverged");
                let load: f64 = a.iter().map(|&u| costs[u as usize]).sum();
                assert!(load <= budget, "seed {seed} broke the budget");
                if sa.swap.is_none() {
                    break;
                }
            }
        }
    }
}
