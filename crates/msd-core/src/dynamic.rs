//! Dynamic updates (Section 6, Theorems 3–6).
//!
//! Setting: a modular quality function (element weights) whose weights and
//! pairwise distances change over time. After each perturbation the
//! solution is repaired with the **oblivious single-element-swap update
//! rule**:
//!
//! ```text
//! find (u ∈ S, v ∉ S) maximizing φ_{v→u}(S) = φ(S − u + v) − φ(S)
//! if φ_{v→u}(S) ≤ 0: do nothing; otherwise swap u with v
//! ```
//!
//! The paper divides perturbations into four types and proves that a
//! 3-approximation is maintained with
//!
//! * **(I) weight increase** — a single update (Theorem 3),
//! * **(II) weight decrease by δ** — `⌈log_{(p−2)/(p−3)} w/(w−δ)⌉` updates,
//!   a single one when `δ ≤ w/(p−2)` (Theorem 4),
//! * **(III) distance increase** — a single update (Theorem 5),
//! * **(IV) distance decrease** — a single update (Theorem 6),
//!
//! and any perturbation at all when `p ≤ 3` (Corollary 3). Distance
//! perturbations must preserve the metric property — the caller is
//! responsible (the Figure 1 driver redraws from `[1, 2]`, which always
//! stays metric).

use msd_matroid::Matroid;
use msd_metric::{DistanceMatrix, Metric};
use msd_submodular::{ModularFunction, SetFunction};

use crate::local_search::PivotRule;
use crate::potential::PotentialState;
use crate::problem::DiversificationProblem;
use crate::scan::{Columns, Swap, SwapScan};
use crate::session::ConstraintPolicy;
use crate::solution::SolutionState;
use crate::ElementId;

/// A single atomic change to the instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Perturbation {
    /// Set `w(u)` to `value` (type I when increasing, II when decreasing).
    SetWeight {
        /// The element whose weight changes.
        u: ElementId,
        /// The new weight.
        value: f64,
    },
    /// Set `d(u, v)` to `value` (type III when increasing, IV when
    /// decreasing).
    SetDistance {
        /// First endpoint.
        u: ElementId,
        /// Second endpoint.
        v: ElementId,
        /// The new distance.
        value: f64,
    },
}

/// The paper's four perturbation types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerturbationType {
    /// Type (I).
    WeightIncrease,
    /// Type (II).
    WeightDecrease,
    /// Type (III).
    DistanceIncrease,
    /// Type (IV).
    DistanceDecrease,
    /// The perturbation does not change the instance.
    Neutral,
}

/// Outcome of one application of the oblivious update rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateOutcome {
    /// The swap performed: `(u_out, v_in)`; `None` when no positive-gain
    /// swap existed.
    pub swap: Option<(ElementId, ElementId)>,
    /// The objective improvement (0 when no swap).
    pub gain: f64,
}

/// A diversification instance under dynamic perturbations, maintaining a
/// current solution of fixed cardinality `p`. Its update scans run on the
/// problem's [`scan_pool`](DiversificationProblem::scan_pool).
#[derive(Debug, Clone)]
pub struct DynamicInstance {
    problem: DiversificationProblem<DistanceMatrix, ModularFunction>,
    state: SolutionState,
    p: usize,
}

impl DynamicInstance {
    /// Wraps an instance with an initial solution (typically Greedy B's
    /// output, a 2-approximation, as in Section 7.3).
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty, has duplicates, or exceeds the ground
    /// set.
    pub fn new(
        problem: DiversificationProblem<DistanceMatrix, ModularFunction>,
        initial: &[ElementId],
    ) -> Self {
        let state = SolutionState::from_set(problem.metric(), initial);
        assert!(!initial.is_empty(), "initial solution must be non-empty");
        Self {
            p: initial.len(),
            state,
            problem,
        }
    }

    /// The current solution.
    pub fn solution(&self) -> &[ElementId] {
        self.state.members()
    }

    /// The solution cardinality `p`.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The underlying problem (read access).
    pub fn problem(&self) -> &DiversificationProblem<DistanceMatrix, ModularFunction> {
        &self.problem
    }

    /// Current objective `φ(S)`.
    pub fn objective(&self) -> f64 {
        self.problem.quality().value(self.state.members())
            + self.problem.lambda() * self.state.dispersion()
    }

    /// Classifies a perturbation against the current instance.
    pub fn classify(&self, perturbation: Perturbation) -> PerturbationType {
        match perturbation {
            Perturbation::SetWeight { u, value } => {
                let old = self.problem.quality().weight(u);
                if value > old {
                    PerturbationType::WeightIncrease
                } else if value < old {
                    PerturbationType::WeightDecrease
                } else {
                    PerturbationType::Neutral
                }
            }
            Perturbation::SetDistance { u, v, value } => {
                let old = self.problem.metric().distance(u, v);
                if value > old {
                    PerturbationType::DistanceIncrease
                } else if value < old {
                    PerturbationType::DistanceDecrease
                } else {
                    PerturbationType::Neutral
                }
            }
        }
    }

    /// Applies a perturbation to the instance, keeping the solution set
    /// fixed but its cached state consistent. Returns the classification.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range elements, `u == v` for distance changes,
    /// negative weights, or negative distances.
    pub fn apply(&mut self, perturbation: Perturbation) -> PerturbationType {
        let kind = self.classify(perturbation);
        match perturbation {
            Perturbation::SetWeight { u, value } => {
                self.problem.quality_mut().set_weight(u, value);
            }
            Perturbation::SetDistance { u, v, value } => {
                assert!(
                    value.is_finite() && value >= 0.0,
                    "distance must be finite and non-negative, got {value}"
                );
                let old = self.problem.metric().distance(u, v);
                let delta = value - old;
                self.problem.metric_mut().set(u, v, value);
                // Incrementally repair the gain cache: gain[x] sums
                // distances to members, so only the endpoints' gains (and
                // the dispersion, when both are members) change.
                if delta != 0.0 {
                    self.state.apply_distance_delta(u, v, delta);
                }
            }
        }
        kind
    }

    /// One application of the oblivious (single element swap) update rule.
    ///
    /// Scans all `(u ∈ S, v ∉ S)` pairs for the maximum marginal gain
    /// `φ_{v→u}(S)`; swaps when positive.
    pub fn oblivious_update(&mut self) -> UpdateOutcome {
        match self.best_single_swap() {
            Some((u, v, gain)) => {
                self.state.swap(self.problem.metric(), v, u);
                UpdateOutcome {
                    swap: Some((u, v)),
                    gain,
                }
            }
            None => UpdateOutcome {
                swap: None,
                gain: 0.0,
            },
        }
    }

    /// One application of the *double-swap* update rule: the best
    /// simultaneous exchange of up to two members for up to two outside
    /// elements (a 1-swap is a special case, so this dominates
    /// [`DynamicInstance::oblivious_update`] per step at O(n²p²) cost).
    ///
    /// The paper's conclusion leaves open whether "larger cardinality
    /// swaps" can maintain a better ratio than 3; this rule is the
    /// experimental probe for that question (see the `ablations` binary).
    pub fn oblivious_update_double(&mut self) -> UpdateOutcome {
        let single = self.best_single_swap();
        let best_double = self.best_double_swap();
        self.commit_double(single, best_double)
    }

    /// Gain of the simultaneous exchange `S − {u1,u2} + {v1,v2}`: Δd from
    /// the gain cache plus pairwise corrections, Δf by plain modular weight
    /// arithmetic — no per-pair set materialization.
    #[inline]
    fn double_swap_gain(&self, u1: ElementId, u2: ElementId, v1: ElementId, v2: ElementId) -> f64 {
        let metric = self.problem.metric();
        let quality = self.problem.quality();
        let dd = self.state.distance_gain(v1) + self.state.distance_gain(v2)
            - self.state.distance_gain(u1)
            - self.state.distance_gain(u2)
            + metric.distance(u1, u2)
            + metric.distance(v1, v2)
            - metric.distance(v1, u1)
            - metric.distance(v1, u2)
            - metric.distance(v2, u1)
            - metric.distance(v2, u2);
        let df = quality.weight(v1) + quality.weight(v2) - quality.weight(u1) - quality.weight(u2);
        df + self.problem.lambda() * dd
    }

    /// Best positive double swap `({u1,u2} out, {v1,v2} in, gain)` without
    /// applying it — the O(n²p²) scan. It chunks over the member pairs
    /// (in the serial `(i, i+1..)` order) when the problem's pool splits
    /// it; each chunk runs the full outsider-pair loops, so chunk
    /// concatenation is the serial traversal.
    fn best_double_swap(&self) -> Option<([ElementId; 2], [ElementId; 2], f64)> {
        let members = self.state.members();
        let outsiders: Vec<ElementId> = (0..self.problem.ground_size() as ElementId)
            .filter(|&v| !self.state.contains(v))
            .collect();
        let pairs: Vec<(ElementId, ElementId)> = members
            .iter()
            .enumerate()
            .flat_map(|(i, &u1)| members[i + 1..].iter().map(move |&u2| (u1, u2)))
            .collect();
        let out = outsiders.len();
        let ops = pairs.len().saturating_mul(out.saturating_mul(out) / 2);
        self.problem.scan_pool().scan_chunks(
            pairs.len(),
            ops,
            |lo, hi| {
                let mut best: Option<([ElementId; 2], [ElementId; 2], f64)> = None;
                for &(u1, u2) in &pairs[lo..hi] {
                    for (j, &v1) in outsiders.iter().enumerate() {
                        for &v2 in &outsiders[j + 1..] {
                            let gain = self.double_swap_gain(u1, u2, v1, v2);
                            if gain > best.map_or(0.0, |(_, _, g)| g) {
                                best = Some(([u1, u2], [v1, v2], gain));
                            }
                        }
                    }
                }
                best
            },
            |&(_, _, gain)| gain,
        )
    }

    /// Applies the better of the best single and best double swap.
    fn commit_double(
        &mut self,
        single: Option<(ElementId, ElementId, f64)>,
        best_double: Option<([ElementId; 2], [ElementId; 2], f64)>,
    ) -> UpdateOutcome {
        let single_gain = single.map_or(0.0, |(_, _, g)| g);
        match best_double {
            Some((out, into, gain)) if gain > single_gain => {
                self.state.swap(self.problem.metric(), into[0], out[0]);
                self.state.swap(self.problem.metric(), into[1], out[1]);
                UpdateOutcome {
                    swap: Some((out[0], into[0])),
                    gain,
                }
            }
            _ => match single {
                Some((u, v, gain)) => {
                    self.state.swap(self.problem.metric(), v, u);
                    UpdateOutcome {
                        swap: Some((u, v)),
                        gain,
                    }
                }
                None => UpdateOutcome {
                    swap: None,
                    gain: 0.0,
                },
            },
        }
    }

    /// Best positive single swap `(u ∈ S, v ∉ S, gain)` without applying
    /// it: the swap-scan kernel on the problem's pool. The modular cell is
    /// O(1) arithmetic (cost 1).
    fn best_single_swap(&self) -> Option<Swap> {
        let members = self.state.members();
        let metric = self.problem.metric();
        let quality = self.problem.quality();
        let lambda = self.problem.lambda();
        let scan = SwapScan {
            pool: self.problem.scan_pool(),
            members,
            base: 0.0,
            pivot: PivotRule::BestImprovement,
            cell_cost: 1,
        };
        scan.run(
            Columns::All(self.problem.ground_size()),
            |v, _| (!self.state.contains(v)).then_some(members),
            |v, u, _| {
                Some(
                    quality.swap_gain(v, u, members)
                        + lambda * self.state.swap_dispersion_delta(metric, v, u),
                )
            },
        )
    }

    /// Repeats the oblivious rule until no positive swap remains or
    /// `max_updates` is hit; returns the number of swaps performed.
    pub fn update_until_stable(&mut self, max_updates: usize) -> usize {
        let mut updates = 0;
        while updates < max_updates {
            if self.oblivious_update().swap.is_none() {
                break;
            }
            updates += 1;
        }
        updates
    }
}

/// One oblivious single-swap repair step for **any** quality function.
///
/// [`DynamicInstance`] is specialized to modular weights (the paper's
/// Section 6 setting, where weight perturbations are meaningful). When the
/// instance mutates externally — distance redraws over an owned
/// [`DistanceMatrix`], re-weighted coverage topics, refreshed facility
/// similarities — this free function repairs an existing solution against
/// the *current* problem: it rebuilds the fused [`PotentialState`] caches
/// for `solution` (O(n·p) plus oracle setup), scans all `(v ∉ S, u ∈ S)`
/// pairs through O(1)/O(touched) incremental reads on the problem's
/// [`scan_pool`](DiversificationProblem::scan_pool), and applies the best
/// strictly-positive swap in place.
///
/// The swap mirrors [`SolutionState`]'s remove-then-push ordering so
/// repeated steps evolve `solution` exactly as a [`DynamicInstance`]
/// member list would. Returns the outcome; `solution` is untouched when no
/// positive swap exists.
pub fn oblivious_update_step<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    solution: &mut Vec<ElementId>,
) -> UpdateOutcome {
    repair_step(problem, &ConstraintPolicy::Cardinality, solution)
}

/// The body of the three free repair steps: rebuild the caches for
/// `solution`, scan every `(v ∉ S, u ∈ S)` cell under `policy` with the
/// swap-scan kernel, and apply the winner with its true objective gain.
fn repair_step<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    policy: &ConstraintPolicy<'_>,
    solution: &mut Vec<ElementId>,
) -> UpdateOutcome {
    let state = PotentialState::from_set(problem, solution);
    let members = state.members();
    let load = policy.load(members);
    let scan = SwapScan {
        pool: problem.scan_pool(),
        members,
        base: 0.0,
        pivot: PivotRule::BestImprovement,
        cell_cost: state.scan_cost_hint(),
    };
    let best = scan.run(
        Columns::All(problem.ground_size()),
        |v, _| (!state.contains(v)).then_some(members),
        |v, u, _| policy.score(members, load, v, u, || state.swap_gain(v, u)),
    );
    let best = policy.with_true_gain(best, |v, u| state.swap_gain(v, u));
    apply_step_outcome(solution, best)
}

/// Applies a chosen `(u_out, v_in, gain)` swap to a raw solution vector
/// with [`SolutionState`]'s swap-remove-then-push ordering.
fn apply_step_outcome(solution: &mut Vec<ElementId>, best: Option<Swap>) -> UpdateOutcome {
    match best {
        Some((u, v, gain)) => {
            let idx = solution
                .iter()
                .position(|&x| x == u)
                .expect("chosen swap-out element must be in the solution");
            solution.swap_remove(idx);
            solution.push(v);
            UpdateOutcome {
                swap: Some((u, v)),
                gain,
            }
        }
        None => UpdateOutcome {
            swap: None,
            gain: 0.0,
        },
    }
}

/// [`oblivious_update_step`] under a matroid constraint: the scan visits
/// exactly the same `(v ∉ S, u ∈ S)` pairs in the same order, but a pair
/// only competes when the exchange `S − u + v` is independent
/// ([`Matroid::exchange_feasible`]). Applying the best strictly-positive
/// feasible swap keeps a feasible solution feasible, so repeated steps
/// walk the matroid's base-exchange graph.
///
/// This is the rebuild reference for `DynamicSession` matroid sessions:
/// it rebuilds all caches from scratch each call, which the session's
/// delta-patched scan must match swap-for-swap.
///
/// The caller is responsible for `solution` being independent in
/// `matroid`; infeasible inputs make the scan's filter meaningless rather
/// than erroring.
///
/// # Panics
///
/// Panics if the matroid's ground size disagrees with the problem's.
pub fn oblivious_update_step_matroid<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    matroid: &(impl Matroid + ?Sized),
    solution: &mut Vec<ElementId>,
) -> UpdateOutcome {
    assert_eq!(
        matroid.ground_size(),
        problem.ground_size(),
        "matroid and problem must share a ground set"
    );
    repair_step(problem, &ConstraintPolicy::Matroid(&matroid), solution)
}

/// [`oblivious_update_step`] under a knapsack constraint
/// `Σ cost(u) ≤ budget`: same pair enumeration, but a swap only competes
/// when it stays within budget AND strictly improves the objective, and
/// competing swaps are ranked by **gain per unit cost** of the incoming
/// element (`density_score`, mirroring [`knapsack_diversify`]'s greedy
/// accept rule — zero-cost improvements dominate). The applied swap's
/// reported gain is the true objective delta, not the density score.
///
/// This is the rebuild reference for `DynamicSession` knapsack sessions.
///
/// The caller is responsible for `solution` fitting the budget.
///
/// # Panics
///
/// Panics if `costs` does not cover the ground set, any cost is
/// negative/non-finite, or `budget` is negative/non-finite.
///
/// [`knapsack_diversify`]: crate::knapsack::knapsack_diversify
pub fn oblivious_update_step_knapsack<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    costs: &[f64],
    budget: f64,
    solution: &mut Vec<ElementId>,
) -> UpdateOutcome {
    crate::knapsack::assert_valid_knapsack(costs, problem.ground_size(), budget);
    let policy = ConstraintPolicy::Knapsack {
        costs: costs.to_vec(),
        budget,
    };
    repair_step(problem, &policy, solution)
}

/// Theorem 4's bound on the number of updates needed after a weight
/// decrease of magnitude `delta`, where `w` is the solution's objective
/// value before the decrease: `⌈log_{(p−2)/(p−3)} w/(w−δ)⌉`.
///
/// Returns 1 for `p ≤ 3` (Corollary 3) and when `δ ≤ w/(p−2)`.
///
/// # Panics
///
/// Panics unless `0 ≤ delta < w`.
pub fn weight_decrease_update_bound(w: f64, delta: f64, p: usize) -> usize {
    assert!(
        delta >= 0.0 && delta < w,
        "need 0 <= delta < w, got delta={delta} w={w}"
    );
    if p <= 3 || delta <= w / (p as f64 - 2.0) {
        return 1;
    }
    let base = (p as f64 - 2.0) / (p as f64 - 3.0);
    let needed = (w / (w - delta)).ln() / base.ln();
    needed.ceil().max(1.0) as usize
}

impl SolutionState {
    /// Repairs the gain cache after `d(u, v)` changed by `delta`
    /// (the endpoints' gains shift by `delta` for each member endpoint;
    /// the dispersion shifts iff both are members).
    pub(crate) fn apply_distance_delta(&mut self, u: ElementId, v: ElementId, delta: f64) {
        let u_in = self.contains(u);
        let v_in = self.contains(v);
        if v_in {
            self.add_gain(u, delta);
        }
        if u_in {
            self.add_gain(v, delta);
        }
        if u_in && v_in {
            self.add_dispersion(delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::enumerate_exact;
    use crate::greedy::{greedy_b, GreedyBConfig};

    fn instance(seed: u64, n: usize) -> DiversificationProblem<DistanceMatrix, ModularFunction> {
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

    fn dynamic(seed: u64, n: usize, p: usize) -> DynamicInstance {
        let problem = instance(seed, n);
        let greedy = greedy_b(&problem, p, GreedyBConfig::default());
        DynamicInstance::new(problem, &greedy)
    }

    #[test]
    fn objective_matches_problem_objective() {
        let d = dynamic(1, 10, 4);
        let direct = d.problem().objective(d.solution());
        assert!((d.objective() - direct).abs() < 1e-12);
    }

    #[test]
    fn classification_matches_direction() {
        let d = dynamic(2, 6, 3);
        let w0 = d.problem().quality().weight(0);
        assert_eq!(
            d.classify(Perturbation::SetWeight {
                u: 0,
                value: w0 + 1.0
            }),
            PerturbationType::WeightIncrease
        );
        assert_eq!(
            d.classify(Perturbation::SetWeight {
                u: 0,
                value: w0 / 2.0
            }),
            PerturbationType::WeightDecrease
        );
        assert_eq!(
            d.classify(Perturbation::SetWeight { u: 0, value: w0 }),
            PerturbationType::Neutral
        );
        let d01 = d.problem().metric().distance(0, 1);
        assert_eq!(
            d.classify(Perturbation::SetDistance {
                u: 0,
                v: 1,
                value: d01 + 0.1
            }),
            PerturbationType::DistanceIncrease
        );
        assert_eq!(
            d.classify(Perturbation::SetDistance {
                u: 0,
                v: 1,
                value: d01 - 0.1
            }),
            PerturbationType::DistanceDecrease
        );
    }

    #[test]
    fn apply_keeps_cached_state_consistent() {
        let mut d = dynamic(3, 8, 4);
        // Perturb a distance inside the solution, outside, and mixed.
        let s0 = d.solution()[0];
        let s1 = d.solution()[1];
        let outside: ElementId = (0..8u32).find(|u| !d.solution().contains(u)).unwrap();
        for (u, v, val) in [(s0, s1, 1.7), (s0, outside, 1.9), (outside, s1, 1.1)] {
            d.apply(Perturbation::SetDistance { u, v, value: val });
            let expected = d.problem().objective(d.solution());
            assert!(
                (d.objective() - expected).abs() < 1e-9,
                "cache drifted after d({u},{v}) := {val}"
            );
        }
        d.apply(Perturbation::SetWeight { u: s0, value: 5.0 });
        let expected = d.problem().objective(d.solution());
        assert!((d.objective() - expected).abs() < 1e-9);
    }

    #[test]
    fn oblivious_update_takes_the_best_positive_swap() {
        let mut d = dynamic(4, 8, 3);
        // Make one outside element overwhelmingly attractive.
        let outside: ElementId = (0..8u32).find(|u| !d.solution().contains(u)).unwrap();
        d.apply(Perturbation::SetWeight {
            u: outside,
            value: 100.0,
        });
        let before = d.objective();
        let outcome = d.oblivious_update();
        let (swapped_out, swapped_in) = outcome.swap.expect("swap must happen");
        assert_eq!(swapped_in, outside);
        assert!(d.solution().contains(&outside));
        assert!(!d.solution().contains(&swapped_out));
        assert!((d.objective() - before - outcome.gain).abs() < 1e-9);
    }

    #[test]
    fn oblivious_update_is_a_no_op_at_local_optimum() {
        let mut d = dynamic(5, 8, 3);
        // Drive to a local optimum first.
        d.update_until_stable(100);
        let before = d.objective();
        let outcome = d.oblivious_update();
        assert_eq!(outcome.swap, None);
        assert_eq!(outcome.gain, 0.0);
        assert!((d.objective() - before).abs() < 1e-12);
    }

    #[test]
    fn single_update_maintains_ratio_3_under_each_perturbation_type() {
        // Empirical check of Theorems 3, 5, 6 (+ Theorem 4's single-update
        // case): start from a 2-approx greedy solution, apply a bounded
        // perturbation, one oblivious update, and compare to the new OPT.
        for seed in 0..10u64 {
            let n = 8;
            let p = 4;
            let mut d = dynamic(seed + 10, n, p);

            let kind = seed % 4;
            let perturbation = match kind {
                0 => Perturbation::SetWeight {
                    u: (seed % 8) as u32,
                    value: 0.95,
                },
                1 => {
                    // Weight decrease bounded by w/(p-2) to stay in the
                    // single-update regime.
                    let u = d.solution()[0];
                    let w = d.objective();
                    let old = d.problem().quality().weight(u);
                    let delta = (w / (p as f64 - 2.0)).min(old);
                    Perturbation::SetWeight {
                        u,
                        value: old - delta * 0.9,
                    }
                }
                2 => Perturbation::SetDistance {
                    u: (seed % 8) as u32,
                    v: ((seed + 3) % 8) as u32,
                    value: 2.0,
                },
                _ => Perturbation::SetDistance {
                    u: (seed % 8) as u32,
                    v: ((seed + 3) % 8) as u32,
                    value: 1.0,
                },
            };
            if let Perturbation::SetDistance { u, v, .. } = perturbation {
                if u == v {
                    continue;
                }
            }
            d.apply(perturbation);
            d.oblivious_update();
            let opt = enumerate_exact(d.problem(), p);
            assert!(
                3.0 * d.objective() >= opt.objective - 1e-9,
                "seed {seed}: ratio-3 violated ({} vs OPT {})",
                d.objective(),
                opt.objective
            );
        }
    }

    #[test]
    fn update_until_stable_reaches_local_optimum() {
        let mut d = dynamic(6, 10, 4);
        // Shake the instance.
        d.apply(Perturbation::SetWeight { u: 7, value: 3.0 });
        d.apply(Perturbation::SetDistance {
            u: 0,
            v: 7,
            value: 2.0,
        });
        let swaps = d.update_until_stable(1000);
        assert!(swaps < 1000);
        assert_eq!(d.oblivious_update().swap, None);
    }

    #[test]
    fn weight_decrease_bound_formula() {
        // p <= 3 → always 1 (Corollary 3).
        assert_eq!(weight_decrease_update_bound(10.0, 9.0, 3), 1);
        // Small decrease → 1 (Theorem 4's special case).
        assert_eq!(weight_decrease_update_bound(10.0, 1.0, 6), 1);
        // Large decrease: log_{(p-2)/(p-3)}(w/(w-δ)).
        // p = 5 → base = 3/2; w = 10, δ = 7.5 → log_1.5(4) ≈ 3.419 → 4.
        assert_eq!(weight_decrease_update_bound(10.0, 7.5, 5), 4);
        // Boundary δ = w/(p-2) exactly → 1.
        assert_eq!(weight_decrease_update_bound(9.0, 3.0, 5), 1);
    }

    #[test]
    fn theorem4_bound_suffices_empirically() {
        // After a large weight decrease, at most `bound` oblivious updates
        // restore a 3-approximation.
        for seed in 0..8u64 {
            let n = 8;
            let p = 5;
            let mut d = dynamic(seed + 30, n, p);
            let u = d.solution()[0];
            let w = d.objective();
            let old_weight = d.problem().quality().weight(u);
            let delta = old_weight * 0.99; // nearly zero out the weight
            d.apply(Perturbation::SetWeight {
                u,
                value: old_weight - delta,
            });
            let bound = weight_decrease_update_bound(w, delta.min(w * 0.99), p);
            for _ in 0..bound {
                d.oblivious_update();
            }
            let opt = enumerate_exact(d.problem(), p);
            assert!(
                3.0 * d.objective() >= opt.objective - 1e-9,
                "seed {seed}: {} vs {}",
                d.objective(),
                opt.objective
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_initial_solution_rejected() {
        let problem = instance(1, 4);
        let _ = DynamicInstance::new(problem, &[]);
    }

    #[test]
    #[should_panic(expected = "need 0 <= delta < w")]
    fn bound_rejects_delta_at_w() {
        let _ = weight_decrease_update_bound(5.0, 5.0, 6);
    }

    #[test]
    fn p_accessor() {
        let d = dynamic(1, 6, 3);
        assert_eq!(d.p(), 3);
        assert_eq!(d.solution().len(), 3);
    }

    #[test]
    fn double_swap_dominates_single_swap_per_step() {
        for seed in 0..6u64 {
            let mut d1 = dynamic(seed + 40, 10, 4);
            let mut d2 = d1.clone();
            // Shake the instance so swaps exist.
            d1.apply(Perturbation::SetWeight { u: 9, value: 2.0 });
            d2.apply(Perturbation::SetWeight { u: 9, value: 2.0 });
            let g1 = d1.oblivious_update().gain;
            let g2 = d2.oblivious_update_double().gain;
            assert!(
                g2 >= g1 - 1e-9,
                "seed {seed}: double {g2} below single {g1}"
            );
            // Cached state stays consistent after a double swap.
            let direct = d2.problem().objective(d2.solution());
            assert!((d2.objective() - direct).abs() < 1e-9);
        }
    }

    #[test]
    fn double_swap_is_noop_at_double_optimum() {
        let mut d = dynamic(8, 8, 3);
        // Exhaust both rules.
        for _ in 0..50 {
            if d.oblivious_update_double().swap.is_none() {
                break;
            }
        }
        let out = d.oblivious_update_double();
        assert_eq!(out.swap, None);
        assert_eq!(d.solution().len(), 3);
    }

    #[test]
    fn double_swap_escapes_a_single_swap_optimum() {
        // Two tight pairs: singles are locked (any 1-swap loses the pair
        // bonus), but exchanging both members at once wins.
        // Weights: members {0,1} light; outsiders {2,3} heavy.
        // Distances: d(0,1) large keeps the pair attractive; crossing
        // distances small so replacing one member at a time is a loss.
        let mut m = DistanceMatrix::zeros(4);
        m.set(0, 1, 10.0);
        m.set(2, 3, 10.0);
        m.set(0, 2, 0.5);
        m.set(0, 3, 0.5);
        m.set(1, 2, 0.5);
        m.set(1, 3, 0.5);
        // Not a metric, but the update rule never requires one — the
        // paper's metric assumption is only used in the *analysis*.
        let problem =
            DiversificationProblem::new(m, ModularFunction::new(vec![0.0, 0.0, 1.0, 1.0]), 1.0);
        let mut d = DynamicInstance::new(problem, &[0, 1]);
        // Single swap: replacing 0 by 2 gives φ = 0 + 1 + d(1,2) = 1.5 < 10.
        assert_eq!(d.oblivious_update().swap, None);
        // Double swap: {2,3} gives φ = 2 + 10 = 12 > 10.
        let out = d.oblivious_update_double();
        assert!(out.swap.is_some());
        let mut s = d.solution().to_vec();
        s.sort_unstable();
        assert_eq!(s, vec![2, 3]);
    }

    // ------------------------------------------------------------------
    // Degenerate-case coverage for the dynamic driver.
    // ------------------------------------------------------------------

    #[test]
    fn p_one_solution_swaps_to_the_best_singleton() {
        // With |S| = 1 and λ scaled down, the oblivious rule reduces to
        // "hold the best-weight element" — both rules and the generic
        // step must behave, and the double rule has no member pair to
        // scan.
        let metric = DistanceMatrix::from_fn(6, |_, _| 1.0);
        let weights = vec![0.1, 0.2, 0.3, 5.0, 0.4, 0.5];
        let problem = DiversificationProblem::new(metric, ModularFunction::new(weights), 0.0);
        let mut d = DynamicInstance::new(problem.clone(), &[0]);
        let out = d.oblivious_update();
        assert_eq!(out.swap, Some((0, 3)));
        assert_eq!(d.solution(), &[3]);
        assert_eq!(d.oblivious_update().swap, None, "already optimal");
        assert_eq!(
            d.oblivious_update_double().swap,
            None,
            "no member pair exists at p = 1"
        );

        let mut sol = vec![0];
        let step = oblivious_update_step(&problem, &mut sol);
        assert_eq!(step.swap, Some((0, 3)));
        assert_eq!(sol, vec![3]);
    }

    #[test]
    fn p_equals_n_has_no_outsiders_and_never_swaps() {
        let problem = instance(21, 7);
        let all: Vec<ElementId> = (0..7).collect();
        let mut d = DynamicInstance::new(problem.clone(), &all);
        // Shake the instance; with no element outside S, no swap exists.
        d.apply(Perturbation::SetWeight { u: 3, value: 9.0 });
        d.apply(Perturbation::SetDistance {
            u: 1,
            v: 5,
            value: 0.25,
        });
        let out = d.oblivious_update();
        assert_eq!(out.swap, None);
        assert_eq!(out.gain, 0.0);
        assert_eq!(d.oblivious_update_double().swap, None);
        assert_eq!(d.solution().len(), 7);

        let mut sol = all.clone();
        assert_eq!(oblivious_update_step(&problem, &mut sol).swap, None);
        assert_eq!(sol, all);
    }

    #[test]
    fn lambda_zero_reduces_to_pure_quality_repair() {
        // λ = 0: distances are irrelevant; one update must hold the
        // max-weight subset of the right size once an update is needed.
        let metric = DistanceMatrix::from_fn(5, |u, v| 1.0 + f64::from(u + v));
        let weights = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let problem = DiversificationProblem::new(metric, ModularFunction::new(weights), 0.0);
        let mut d = DynamicInstance::new(problem, &[4, 3]);
        assert_eq!(d.oblivious_update().swap, None, "top-2 already held");
        // Demote a held element below the field; exactly one swap repairs.
        d.apply(Perturbation::SetWeight { u: 4, value: 0.5 });
        let out = d.oblivious_update();
        assert_eq!(out.swap, Some((4, 2)));
        assert!((out.gain - 2.5).abs() < 1e-12);
        let mut s = d.solution().to_vec();
        s.sort_unstable();
        assert_eq!(s, vec![2, 3]);
        assert_eq!(d.oblivious_update().swap, None);
    }

    #[test]
    fn zero_gain_perturbation_reports_no_swap() {
        // A perturbation that rewrites a weight/distance to its current
        // value is Neutral, and at a local optimum the follow-up update
        // must report no swap and leave every cached quantity untouched.
        let mut d = dynamic(17, 9, 4);
        d.update_until_stable(1000);
        let before = d.objective();
        let s0 = d.solution()[0];
        let w = d.problem().quality().weight(s0);
        assert_eq!(
            d.apply(Perturbation::SetWeight { u: s0, value: w }),
            PerturbationType::Neutral
        );
        let d01 = d.problem().metric().distance(0, 1);
        assert_eq!(
            d.apply(Perturbation::SetDistance {
                u: 0,
                v: 1,
                value: d01
            }),
            PerturbationType::Neutral
        );
        let out = d.oblivious_update();
        assert_eq!(out.swap, None);
        assert_eq!(out.gain, 0.0);
        assert_eq!(d.objective(), before);
        let direct = d.problem().objective(d.solution());
        assert!((d.objective() - direct).abs() < 1e-9);
    }

    #[test]
    fn generic_step_matches_dynamic_instance_on_modular() {
        // The generic rebuild-and-scan repair and DynamicInstance's cached
        // scan implement the same rule; on modular instances they must
        // pick identical swaps step for step.
        for seed in 0..5u64 {
            let problem = instance(seed + 70, 12);
            let init = greedy_b(&problem, 4, GreedyBConfig::default());
            let mut d = DynamicInstance::new(problem.clone(), &init);
            d.apply(Perturbation::SetWeight { u: 11, value: 7.0 });
            let mut perturbed = problem;
            perturbed.quality_mut().set_weight(11, 7.0);
            let mut sol = init.clone();
            loop {
                let a = d.oblivious_update();
                let b = oblivious_update_step(&perturbed, &mut sol);
                assert_eq!(a.swap, b.swap, "seed {seed}");
                assert_eq!(d.solution(), &sol[..], "seed {seed}");
                if a.swap.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn parallel_dynamic_updates_match_serial_exactly() {
        for seed in 0..5u64 {
            let problem = instance(seed + 300, 40);
            let init = greedy_b(&problem, 6, GreedyBConfig::default());
            let mut serial = DynamicInstance::new(problem.on_pool(1), &init);
            let mut par = DynamicInstance::new(problem.on_pool(4), &init);
            for (u, value) in [(0u32, 3.0), (7, 0.01), (39, 2.5)] {
                serial.apply(Perturbation::SetWeight { u, value });
                par.apply(Perturbation::SetWeight { u, value });
                let a = serial.oblivious_update();
                let b = par.oblivious_update();
                assert_eq!(a, b, "seed {seed} single-swap diverged");
                let a = serial.oblivious_update_double();
                let b = par.oblivious_update_double();
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
        let problem = instance(77, 20);
        let init: Vec<ElementId> = (0..6).collect();
        let mut ser = DynamicInstance::new(problem.on_pool(1), &init);
        let mut par = DynamicInstance::new(problem.on_pool(7), &init);
        for d in [&mut ser, &mut par] {
            d.apply(Perturbation::SetWeight { u: 19, value: 5.0 });
        }
        assert_eq!(ser.oblivious_update_double(), par.oblivious_update_double());
        assert_eq!(ser.solution(), par.solution());
    }

    #[test]
    fn parallel_update_step_matches_serial_exactly() {
        for seed in 0..5u64 {
            let problem = instance(seed + 400, 45);
            let (serial, pooled) = (problem.on_pool(1), problem.on_pool(4));
            let mut a: Vec<ElementId> = (0..7).collect();
            let mut b = a.clone();
            for _ in 0..4 {
                let sa = oblivious_update_step(&serial, &mut a);
                let sb = oblivious_update_step(&pooled, &mut b);
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
        for seed in 0..5u64 {
            let problem = instance(seed + 500, 45);
            let (serial, pooled) = (problem.on_pool(1), problem.on_pool(4));
            let matroid = PartitionMatroid::new((0..45u32).map(|u| u % 3).collect(), vec![3, 2, 2]);
            let mut a: Vec<ElementId> = vec![0, 3, 6, 1, 4, 2, 5];
            let mut b = a.clone();
            for _ in 0..4 {
                let sa = oblivious_update_step_matroid(&serial, &matroid, &mut a);
                let sb = oblivious_update_step_matroid(&pooled, &matroid, &mut b);
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
        for seed in 0..5u64 {
            let problem = instance(seed + 600, 45);
            let (serial, pooled) = (problem.on_pool(1), problem.on_pool(4));
            let costs: Vec<f64> = (0..45).map(|u| 1.0 + f64::from(u % 5u32)).collect();
            let budget = 16.0;
            let mut a: Vec<ElementId> = (0..6).collect();
            let mut b = a.clone();
            for _ in 0..4 {
                let sa = oblivious_update_step_knapsack(&serial, &costs, budget, &mut a);
                let sb = oblivious_update_step_knapsack(&pooled, &costs, budget, &mut b);
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

    /// A smaller partition matroid would make every out-of-range incoming
    /// element exchange-infeasible, silently shrinking the scan.
    #[test]
    #[should_panic(expected = "matroid and problem must share a ground set")]
    fn matroid_step_rejects_a_foreign_ground_set() {
        use msd_matroid::PartitionMatroid;
        let problem = instance(3, 12);
        let matroid = PartitionMatroid::new(vec![0, 0, 1, 1, 2, 2], vec![1, 1, 1]);
        let mut solution: Vec<ElementId> = vec![0, 2, 4];
        let _ = oblivious_update_step_matroid(&problem, &matroid, &mut solution);
    }

    /// A NaN budget would make every `load − c_u + c_v > budget` test
    /// false, ignoring the budget.
    #[test]
    #[should_panic(expected = "budget must be finite and non-negative")]
    fn knapsack_step_rejects_a_nan_budget() {
        let problem = instance(3, 12);
        let costs = vec![1.0; 12];
        let mut solution: Vec<ElementId> = vec![0, 1, 2];
        let _ = oblivious_update_step_knapsack(&problem, &costs, f64::NAN, &mut solution);
    }

    /// A negative cost would flip the density ranking.
    #[test]
    #[should_panic(expected = "cost of element 5 must be finite and non-negative")]
    fn knapsack_step_rejects_a_negative_cost() {
        let problem = instance(3, 12);
        let mut costs = vec![1.0; 12];
        costs[5] = -1.0;
        let mut solution: Vec<ElementId> = vec![0, 1, 2];
        let _ = oblivious_update_step_knapsack(&problem, &costs, 4.0, &mut solution);
    }
}
