//! Single-swap local search over matroid bases (Section 5, Theorem 2).
//!
//! ```text
//! {x, y} = argmax_{ {x,y} ∈ F } [ f({x,y}) + λ·d(x,y) ]
//! let S be a basis containing x and y
//! while ∃ u ∈ U−S, v ∈ S with S − v + u ∈ F and φ(S − v + u) > φ(S)
//!     S = S − v + u
//! return S
//! ```
//!
//! Theorem 2: the result is a 2-approximation for max-sum diversification
//! with a monotone submodular quality function under any matroid
//! constraint — the regime where the Section 4 greedy provably fails (see
//! [`crate::counterexample`]).
//!
//! As the paper notes after Theorem 2, requiring at least an
//! ε-improvement per swap makes the algorithm polynomial at a small cost
//! in the ratio; [`LocalSearchConfig::epsilon`] exposes that knob
//! (`epsilon = 0` reproduces the plain rule).
//!
//! [`local_search_refine`] is the *budgeted* variant of Section 7's
//! experiments: it starts from a given solution (there, Greedy B's output)
//! and performs best-improvement 1-swaps under a uniform matroid until a
//! local optimum or a wall-clock budget is hit ("terminated … when the
//! algorithm runs for ten times the time of the Greedy B initialization").
//!
//! **Pruned scans.** Almost all of a search's time goes to proving that no
//! swap improves, and each pair's gain
//! `q(u,v) + λ·((g_u − d(u,v)) − g_v)` reads one distance (q is the
//! oracle's swap gain, g the cached distance gains). Because `d ≥ 0` (the
//! [`Metric`] contract), `λ ≥ 0` and IEEE rounding is monotone, the d-free
//! value `q + λ·((g_u − 0) − g_v)` is ≥ the computed gain bit for bit. A
//! pair is only taken with a gain strictly above a floor: the ε-threshold,
//! and for best-improvement also the best gain so far. So the scan skips
//! the distance read of every pair whose d-free bound is ≤ that floor
//! ([`PotentialState::swap_gain_above`]). Such a pair could never win the
//! strict comparison, so winners, lowest-index ties, swap counts and
//! objectives are those of the unpruned scan.
//!
//! The same argument then skips whole rows, the threshold-algorithm idea
//! of Fagin, Lotem and Naor applied to a candidate's row. When the
//! quality's swap gains are membership-independent
//! (`IncrementalOracle::swap_gains_are_membership_independent`: the
//! modular, zero and modular-mixture oracles and the views over them),
//! `q(u,v) = h(u) − h(v)` with `h(x)` the oracle's `marginal(x)`, members
//! included. The d-free value of cell `(u, v)` is then `a_u − b_v` up to
//! rounding, with `a_u = f_u + λ·g_u` and `b_v = f_v + λ·g_v`, so no cell
//! of `u`'s row exceeds `a_u − min_v b_v`. A row whose bound, plus a
//! relative `1e-12` rounding slack, is ≤ the floor is skipped with no
//! oracle call and no distance read. All inputs are non-negative, so both
//! expressions round within a few ulps of `|a_u| + max_v |b_v|`, far below
//! the slack: a skipped row holds no cell whose d-free value beats the
//! floor, and the skip changes nothing the per-cell path would have
//! chosen. Before each scan, one pass over slices
//! (`PotentialState::row_pass`) reads every `f_u` in one batched oracle
//! call, takes `min_v b_v` in O(p), writes every row's bound and lists the
//! outsiders whose bound beats the scan's base. The scan walks only that
//! list and re-checks each row against its risen floor. A scan at a local
//! optimum then costs that one O(n) pass plus the surviving rows' cells,
//! instead of n·p cells.
//!
//! **Greedy B's cache.** A search first builds the gain cache of its
//! start set, one O(n) distance sweep per member. When the start is
//! exactly the answer of the last [`crate::greedy_b`] on the same problem
//! (same elements, same order), the search takes the cache that Greedy B
//! parked on the problem instead: it rebuilds the quality oracle by
//! inserting the members in order and sweeps only the last pick, whose
//! sweep Greedy B skipped. The gains are sums of the same distances in
//! the same insertion order, so sets, swaps, `converged` and objective
//! bits equal the rebuild's. The cache is taken, not copied: a second
//! search, a clone of the problem, any other start, and a search after
//! `metric_mut` all rebuild. Only distances are parked: the quality
//! oracle is built afresh from the problem's quality function, so an edit
//! through `quality_mut` between the two calls is seen either way.
//!
//! The scan is the crate's swap-scan kernel (the `scan` module) on the
//! problem's [`scan_pool`](DiversificationProblem::scan_pool). When the
//! pool splits a scan, each chunk prunes against its own best, so the
//! winner is unchanged and only the number of cells and distance reads
//! grows.

// Constraint-scan module (shares the matroid exchange fast path with the
// dynamic session's constrained scans): no panicking shortcuts outside
// tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::time::{Duration, Instant};

use msd_matroid::Matroid;
use msd_metric::Metric;
use msd_submodular::SetFunction;

use crate::potential::PotentialState;
use crate::problem::DiversificationProblem;
use crate::scan::{Columns, SwapScan};
use crate::ElementId;

/// Pivoting rule for choosing among improving swaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PivotRule {
    /// Scan all `(u, v)` pairs and apply the best improving swap.
    #[default]
    BestImprovement,
    /// Apply the first improving swap found (cheaper per iteration, more
    /// iterations; same guarantee).
    FirstImprovement,
}

/// Configuration for the local search.
#[derive(Debug, Clone, Copy)]
pub struct LocalSearchConfig {
    /// Relative improvement threshold: a swap is taken only if it improves
    /// `φ` by more than `epsilon · max(|φ(S)|, 1)`. `0` is the paper's
    /// plain rule; any `ε > 0` bounds the number of swaps polynomially at
    /// a `(1+ε)` factor in the ratio. Must be finite and non-negative: a
    /// negative or NaN threshold admits non-improving swaps, and the
    /// search would cycle until `max_swaps`.
    pub epsilon: f64,
    /// Hard cap on the number of swaps.
    pub max_swaps: usize,
    /// Optional wall-clock budget.
    pub time_budget: Option<Duration>,
    /// Pivoting rule.
    pub pivot: PivotRule,
}

impl Default for LocalSearchConfig {
    fn default() -> Self {
        Self {
            epsilon: 1e-12,
            max_swaps: usize::MAX,
            time_budget: None,
            pivot: PivotRule::BestImprovement,
        }
    }
}

/// Outcome of a local-search run.
#[derive(Debug, Clone)]
pub struct LocalSearchResult {
    /// The final solution.
    pub set: Vec<ElementId>,
    /// Its objective value.
    pub objective: f64,
    /// Number of swaps performed.
    pub swaps: usize,
    /// `true` if the run ended at a local optimum (rather than on a
    /// budget/cap).
    pub converged: bool,
}

/// The paper's Theorem 2 algorithm: local search over bases of `matroid`.
///
/// # Panics
///
/// Panics if the matroid's ground size disagrees with the problem's, or
/// if `config.epsilon` is negative or not finite.
pub fn local_search_matroid<M: Metric, F: SetFunction, Mat: Matroid>(
    problem: &DiversificationProblem<M, F>,
    matroid: &Mat,
    config: LocalSearchConfig,
) -> LocalSearchResult {
    assert_valid_epsilon(config.epsilon);
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

    // Initialization: the best independent pair {x, y}, extended to a
    // basis. (If the rank is 1 no pair exists; fall back to the best
    // singleton.) The O(n²) pair scan chunks over `x` when the problem's
    // pool splits it; a chunk runs the full inner `y` loop, so its
    // traversal is the serial lexicographic order.
    let seed: Vec<ElementId> = if rank >= 2 {
        let best = problem.scan_pool().scan_chunks(
            n,
            n.saturating_mul(n),
            |lo, hi| {
                let mut best: Option<(ElementId, ElementId, f64)> = None;
                for x in lo as ElementId..hi as ElementId {
                    for y in (x + 1)..n as ElementId {
                        if !matroid.is_independent(&[x, y]) {
                            continue;
                        }
                        let score = problem.quality().value(&[x, y])
                            + problem.lambda() * problem.metric().distance(x, y);
                        if score > best.map_or(f64::NEG_INFINITY, |b| b.2) {
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
        // `total_cmp` keeps the argmax total (and the seed deterministic)
        // even on NaN singleton values, which it orders above +∞; the
        // validated ingestion paths reject NaN upstream, so this is a
        // determinism backstop, not a semantic choice. Ties keep the
        // highest index (`max_by` returns the last maximum).
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
    refine(problem, matroid, basis, config)
}

/// Budgeted refinement from an explicit starting set (Section 7's "LS").
///
/// The constraint is the uniform matroid of rank `|initial|` — i.e. plain
/// 1-swap local search preserving the cardinality.
///
/// When `initial` is the answer of the last [`greedy_b`](crate::greedy_b)
/// on `problem`, in selection order, the search reuses the distance cache
/// that run parked instead of rebuilding it (one sweep instead of
/// `|initial|`); any other start rebuilds it. The result is identical
/// either way (see the [module docs](self)).
///
/// # Panics
///
/// Panics if `config.epsilon` is negative or not finite.
pub fn local_search_refine<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    initial: &[ElementId],
    config: LocalSearchConfig,
) -> LocalSearchResult {
    let matroid = msd_matroid::UniformMatroid::new(problem.ground_size(), initial.len());
    refine(problem, &matroid, initial.to_vec(), config)
}

/// Rejects an ε that would admit non-improving swaps (see
/// [`LocalSearchConfig::epsilon`]), with the wording of the `λ` check in
/// [`DiversificationProblem::new`].
pub(crate) fn assert_valid_epsilon(epsilon: f64) {
    assert!(
        epsilon.is_finite() && epsilon >= 0.0,
        "epsilon must be finite and non-negative, got {epsilon}"
    );
}

/// Core swap loop shared by both entry points: one [`SwapScan`] per
/// swap, on the problem's pool.
fn refine<M: Metric, F: SetFunction, Mat: Matroid>(
    problem: &DiversificationProblem<M, F>,
    matroid: &Mat,
    initial: Vec<ElementId>,
    config: LocalSearchConfig,
) -> LocalSearchResult {
    assert_valid_epsilon(config.epsilon);
    // The clock is read only when a budget is set.
    let deadline = config.time_budget.map(|budget| (Instant::now(), budget));
    let n = problem.ground_size();

    let mut state = PotentialState::from_warm_start(problem, &initial);
    let mut objective = problem.objective(state.members());
    let mut swaps = 0usize;
    let mut converged = false;
    // The row pass's buffers, reused by every scan.
    let mut bounds = vec![0.0; n];
    let mut survivors: Vec<ElementId> = vec![0; n];

    loop {
        if swaps >= config.max_swaps {
            break;
        }
        if let Some((start, budget)) = deadline {
            if start.elapsed() >= budget {
                break;
            }
        }
        let members = state.members();
        let base = config.epsilon * objective.abs().max(1.0);
        // One slice pass bounds every row and lists the outsiders whose row
        // can beat the base; `None` where the row bound does not apply.
        let listed = state.row_pass(base, &mut bounds, &mut survivors);
        let scan = SwapScan {
            pool: problem.scan_pool(),
            members,
            base,
            pivot: config.pivot,
            cell_cost: state.scan_cost_hint(),
        };
        let chosen = scan.run(
            listed.map_or(Columns::All(n), Columns::Listed),
            |u, floor| {
                // A row whose bound cannot beat the risen floor costs no
                // oracle call and no distance read.
                let skip = match listed {
                    Some(_) => bounds[u as usize] <= floor,
                    None => state.contains(u),
                };
                (!skip).then_some(members)
            },
            |u, v, floor| {
                // `exchange_feasible` is `can_swap(u, v, members)` with
                // the per-family fast paths (uniform O(1), partition
                // O(1) same-block) engaged in this hot loop.
                if !matroid.exchange_feasible(members, v, u) {
                    return None;
                }
                // Δφ = f-swap-gain + λ·(d_u(S) − d(u,v) − d_v(S)) from the
                // fused caches; a pair whose d-free bound cannot beat the
                // floor skips the distance read.
                state.swap_gain_above(u, v, floor)
            },
        );
        match chosen {
            Some((v, u, gain)) => {
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

    // Recompute the objective exactly to shed accumulated float drift.
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
    use crate::exact::enumerate_exact;
    use msd_matroid::{PartitionMatroid, UniformMatroid};
    use msd_metric::DistanceMatrix;
    use msd_submodular::{CoverageFunction, MixtureFunction, ModularFunction, ZeroFunction};

    fn pseudo_random_instance(
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

    /// Asserts that every candidate row's bound from the row pass is ≥
    /// each of its cells' d-free values bit for bit: `swap_gain_above`
    /// with the bound as the floor rejects every cell exactly when that
    /// holds. A floor of `−∞` lists every outsider.
    fn assert_row_bound_covers_every_cell<F: SetFunction>(
        label: &str,
        problem: &DiversificationProblem<DistanceMatrix, F>,
    ) {
        let n = problem.ground_size() as ElementId;
        let mut bounds = vec![0.0; n as usize];
        let mut survivors = vec![0; n as usize];
        for p in [1usize, 3, 7] {
            let members: Vec<ElementId> = (0..p as ElementId).map(|i| (i * 5 + 2) % n).collect();
            let state = PotentialState::from_set(problem, &members);
            let listed = state
                .row_pass(f64::NEG_INFINITY, &mut bounds, &mut survivors)
                .expect("membership-independent quality");
            let outsiders: Vec<ElementId> = (0..n).filter(|&c| !state.contains(c)).collect();
            assert_eq!(listed, outsiders, "{label} p {p}");
            for &c in listed {
                let bound = bounds[c as usize];
                for &m in state.members() {
                    assert!(
                        state.swap_gain_above(c, m, bound).is_none(),
                        "{label} p {p}: cell ({c}, {m}) beats its row bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_bound_covers_every_cells_d_free_value() {
        for seed in 0..8u64 {
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 11) as f64 / (1u64 << 53) as f64
            };
            let n = 16;
            for lambda in [0.0, 1e-9, 3.0] {
                let random: Vec<f64> = (0..n).map(|_| next()).collect();
                // Weights near 1e8 that differ in their last bits.
                let near: Vec<f64> = (0..n)
                    .map(|_| 1e8 * (1.0 + f64::EPSILON * (next() * 8.0).floor()))
                    .collect();
                let metric = DistanceMatrix::from_fn(n, |_, _| 1.0 + next());
                let tiny = DistanceMatrix::from_fn(n, |_, _| 1e-6 * next());
                let cases = [
                    ("random", random.clone(), metric.clone()),
                    ("near 1e8", near.clone(), metric.clone()),
                    ("near 1e8, tiny d", near, tiny),
                ];
                for (label, weights, metric) in cases {
                    let label = format!("{label} seed {seed} lambda {lambda}");
                    let modular = DiversificationProblem::new(
                        metric.clone(),
                        ModularFunction::new(weights.clone()),
                        lambda,
                    );
                    assert_row_bound_covers_every_cell(&label, &modular);
                    let mixture = DiversificationProblem::new(
                        metric,
                        MixtureFunction::new(n)
                            .with(0.7, ModularFunction::new(weights))
                            .with(1.3, ModularFunction::new(random.clone())),
                        lambda,
                    );
                    assert_row_bound_covers_every_cell(&format!("mixture {label}"), &mixture);
                }
                let zero = DiversificationProblem::new(metric, ZeroFunction::new(n), lambda);
                assert_row_bound_covers_every_cell(&format!("zero seed {seed}"), &zero);
            }
        }
        // Set-dependent swap gains get no row bound.
        let cover = CoverageFunction::new(vec![vec![0], vec![0, 1], vec![1]], vec![1.0, 2.0]);
        let problem =
            DiversificationProblem::new(DistanceMatrix::from_fn(3, |_, _| 1.0), cover, 1.0);
        assert!(PotentialState::from_set(&problem, &[0])
            .row_pass(f64::NEG_INFINITY, &mut [0.0; 3], &mut [0; 3])
            .is_none());
    }

    #[test]
    fn returns_a_basis_of_the_matroid() {
        let problem = pseudo_random_instance(1, 8);
        let matroid = PartitionMatroid::new(vec![0, 0, 0, 0, 1, 1, 1, 1], vec![2, 2]);
        let r = local_search_matroid(&problem, &matroid, LocalSearchConfig::default());
        assert_eq!(r.set.len(), 4);
        assert!(matroid.is_independent(&r.set));
        assert!(r.converged);
    }

    #[test]
    fn local_optimum_has_no_improving_swap() {
        let problem = pseudo_random_instance(2, 8);
        let matroid = UniformMatroid::new(8, 3);
        let r = local_search_matroid(&problem, &matroid, LocalSearchConfig::default());
        for u in 0..8u32 {
            if r.set.contains(&u) {
                continue;
            }
            for &v in &r.set {
                let gain = problem.swap_gain(u, v, &r.set);
                assert!(gain <= 1e-9, "improving swap {u}<->{v} left: {gain}");
            }
        }
    }

    #[test]
    fn achieves_half_of_optimum_under_uniform_matroid() {
        for seed in 0..10u64 {
            let problem = pseudo_random_instance(seed, 9);
            for p in 2..=4usize {
                let matroid = UniformMatroid::new(9, p);
                let r = local_search_matroid(&problem, &matroid, LocalSearchConfig::default());
                let opt = enumerate_exact(&problem, p);
                assert!(
                    2.0 * r.objective >= opt.objective - 1e-9,
                    "seed {seed} p {p}"
                );
            }
        }
    }

    #[test]
    fn achieves_half_of_optimum_under_partition_matroid() {
        // Exhaustive optimum over the partition matroid's bases.
        for seed in 0..8u64 {
            let problem = pseudo_random_instance(seed + 50, 8);
            let matroid = PartitionMatroid::new(vec![0, 0, 0, 0, 1, 1, 1, 1], vec![1, 2]);
            let r = local_search_matroid(&problem, &matroid, LocalSearchConfig::default());
            // Brute force over all subsets.
            let mut opt = f64::NEG_INFINITY;
            for mask in 0u32..256 {
                let set: Vec<ElementId> = (0..8).filter(|&i| mask >> i & 1 == 1).collect();
                if set.len() == 3 && matroid.is_independent(&set) {
                    opt = opt.max(problem.objective(&set));
                }
            }
            assert!(2.0 * r.objective >= opt - 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn refine_never_decreases_the_objective() {
        let problem = pseudo_random_instance(11, 12);
        let initial: Vec<ElementId> = vec![0, 1, 2, 3];
        let before = problem.objective(&initial);
        let r = local_search_refine(&problem, &initial, LocalSearchConfig::default());
        assert!(r.objective >= before - 1e-12);
        assert_eq!(r.set.len(), 4);
    }

    #[test]
    fn max_swaps_zero_returns_initial() {
        let problem = pseudo_random_instance(4, 6);
        let initial: Vec<ElementId> = vec![0, 1];
        let r = local_search_refine(
            &problem,
            &initial,
            LocalSearchConfig {
                max_swaps: 0,
                ..LocalSearchConfig::default()
            },
        );
        assert_eq!(r.set, initial);
        assert_eq!(r.swaps, 0);
        assert!(!r.converged);
    }

    #[test]
    fn time_budget_zero_stops_immediately() {
        let problem = pseudo_random_instance(4, 10);
        let r = local_search_refine(
            &problem,
            &[0, 1, 2],
            LocalSearchConfig {
                time_budget: Some(Duration::ZERO),
                ..LocalSearchConfig::default()
            },
        );
        assert_eq!(r.swaps, 0);
    }

    #[test]
    fn first_improvement_reaches_a_local_optimum_too() {
        let problem = pseudo_random_instance(8, 9);
        let cfg = LocalSearchConfig {
            pivot: PivotRule::FirstImprovement,
            ..LocalSearchConfig::default()
        };
        let matroid = UniformMatroid::new(9, 3);
        let r = local_search_matroid(&problem, &matroid, cfg);
        assert!(r.converged);
        for u in 0..9u32 {
            if r.set.contains(&u) {
                continue;
            }
            for &v in &r.set {
                assert!(problem.swap_gain(u, v, &r.set) <= 1e-9);
            }
        }
    }

    #[test]
    fn large_epsilon_stops_early_but_keeps_feasibility() {
        let problem = pseudo_random_instance(9, 10);
        let matroid = UniformMatroid::new(10, 4);
        let r = local_search_matroid(
            &problem,
            &matroid,
            LocalSearchConfig {
                epsilon: 0.5,
                ..LocalSearchConfig::default()
            },
        );
        assert_eq!(r.set.len(), 4);
        assert!(r.converged);
    }

    #[test]
    fn rank_one_matroid_picks_best_singleton() {
        let problem = pseudo_random_instance(3, 6);
        let matroid = UniformMatroid::new(6, 1);
        let r = local_search_matroid(&problem, &matroid, LocalSearchConfig::default());
        assert_eq!(r.set.len(), 1);
        // Best singleton by φ = weight (dispersion of a singleton is 0).
        let best = (0..6u32)
            .max_by(|&a, &b| {
                problem
                    .quality()
                    .weight(a)
                    .total_cmp(&problem.quality().weight(b))
            })
            .unwrap();
        assert_eq!(r.set, vec![best]);
    }

    #[test]
    fn zero_rank_matroid_returns_empty() {
        let problem = pseudo_random_instance(3, 4);
        let matroid = UniformMatroid::new(4, 0);
        let r = local_search_matroid(&problem, &matroid, LocalSearchConfig::default());
        assert!(r.set.is_empty());
        assert_eq!(r.objective, 0.0);
    }

    #[test]
    fn works_with_submodular_quality_under_matroid() {
        let cover = CoverageFunction::new(
            vec![vec![0], vec![0], vec![1], vec![2], vec![3]],
            vec![4.0, 3.0, 2.0, 1.0],
        );
        let metric = DistanceMatrix::from_fn(5, |_, _| 1.0);
        let problem = DiversificationProblem::new(metric, cover, 0.1);
        let matroid = UniformMatroid::new(5, 3);
        let r = local_search_matroid(&problem, &matroid, LocalSearchConfig::default());
        // Optimal coverage picks one of {0,1}, plus 2 and 3 → f = 9.
        assert!((problem.quality().value(&r.set) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn first_improvement_takes_the_first_improving_pair() {
        // One first-improvement swap against a brute-force scan of the
        // slice-level swap gains in the same traversal order: outsiders
        // ascending, members in insertion order.
        let config = LocalSearchConfig {
            pivot: PivotRule::FirstImprovement,
            max_swaps: 1,
            ..LocalSearchConfig::default()
        };
        for seed in 0..12u64 {
            let problem = pseudo_random_instance(seed + 20, 14);
            let initial: Vec<ElementId> = vec![9, 2, 11, 5];
            let threshold = config.epsilon * problem.objective(&initial).abs().max(1.0);
            let expected = (0..14u32)
                .filter(|u| !initial.contains(u))
                .flat_map(|u| initial.iter().map(move |&v| (u, v)))
                .find(|&(u, v)| problem.swap_gain(u, v, &initial) > threshold);
            let r = local_search_refine(&problem, &initial, config);
            let mut got = r.set.clone();
            got.sort_unstable();
            match expected {
                Some((u, v)) => {
                    let mut want: Vec<ElementId> = initial
                        .iter()
                        .map(|&w| if w == v { u } else { w })
                        .collect();
                    want.sort_unstable();
                    assert_eq!(got, want, "seed {seed}: expected swap {u}<->{v}");
                    assert_eq!(r.swaps, 1);
                }
                None => {
                    assert_eq!(r.set, initial, "seed {seed}");
                    assert!(r.converged);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be finite and non-negative")]
    fn negative_epsilon_rejected_by_refine() {
        let problem = pseudo_random_instance(5, 12);
        let _ = local_search_refine(
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
    fn nan_epsilon_rejected_by_refine() {
        let problem = pseudo_random_instance(5, 12);
        let _ = local_search_refine(
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
    #[should_panic(expected = "epsilon must be finite and non-negative")]
    fn negative_epsilon_rejected_by_matroid_search() {
        let problem = pseudo_random_instance(5, 8);
        let matroid = UniformMatroid::new(8, 3);
        let _ = local_search_matroid(
            &problem,
            &matroid,
            LocalSearchConfig {
                epsilon: -0.1,
                ..LocalSearchConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "epsilon must be finite and non-negative")]
    fn nan_epsilon_rejected_by_matroid_search() {
        let problem = pseudo_random_instance(5, 8);
        let matroid = UniformMatroid::new(8, 3);
        let _ = local_search_matroid(
            &problem,
            &matroid,
            LocalSearchConfig {
                epsilon: f64::NAN,
                ..LocalSearchConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "share a ground set")]
    fn ground_size_mismatch_panics() {
        let problem = pseudo_random_instance(1, 4);
        let matroid = UniformMatroid::new(7, 2);
        let _ = local_search_matroid(&problem, &matroid, LocalSearchConfig::default());
    }

    #[test]
    fn parallel_local_search_matches_serial_exactly() {
        for seed in 0..4u64 {
            let problem = pseudo_random_instance(seed + 100, 40);
            let initial: Vec<ElementId> = (0..6).collect();
            for pivot in [PivotRule::BestImprovement, PivotRule::FirstImprovement] {
                let config = LocalSearchConfig {
                    pivot,
                    ..LocalSearchConfig::default()
                };
                let par = local_search_refine(&problem.on_pool(4), &initial, config);
                let ser = local_search_refine(&problem.on_pool(1), &initial, config);
                assert_eq!(par.set, ser.set, "seed {seed} pivot {pivot:?}");
                assert_eq!(par.swaps, ser.swaps);
                assert_eq!(par.objective, ser.objective);
            }
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be finite and non-negative")]
    fn parallel_refine_rejects_negative_epsilon() {
        let problem = pseudo_random_instance(5, 12).on_pool(4);
        let _ = local_search_refine(
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
        let problem = pseudo_random_instance(5, 12).on_pool(4);
        let _ = local_search_refine(
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
        for seed in 0..4u64 {
            let problem = pseudo_random_instance(seed + 50, 24);
            let matroid = PartitionMatroid::new((0..24u32).map(|u| u % 3).collect(), vec![2, 3, 2]);
            let par =
                local_search_matroid(&problem.on_pool(4), &matroid, LocalSearchConfig::default());
            let ser =
                local_search_matroid(&problem.on_pool(1), &matroid, LocalSearchConfig::default());
            assert_eq!(par.set, ser.set, "seed {seed}");
            assert_eq!(par.objective, ser.objective);
        }
    }
}
