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

use crate::potential::PotentialState;
use crate::problem::DiversificationProblem;
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
/// current solution of fixed cardinality `p`.
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
    /// arithmetic — no per-pair set materialization. The single expression
    /// shared by the serial and parallel double-swap scans, so both compute
    /// bit-identical candidate scores.
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

    /// Elements outside the current solution, in index order (the shared
    /// traversal order of the double-swap scans).
    fn outsiders(&self) -> Vec<ElementId> {
        (0..self.problem.ground_size() as ElementId)
            .filter(|&v| !self.state.contains(v))
            .collect()
    }

    /// Best positive double swap `({u1,u2} out, {v1,v2} in, gain)` without
    /// applying it — the O(n²p²) scan.
    fn best_double_swap(&self) -> Option<([ElementId; 2], [ElementId; 2], f64)> {
        let members = self.state.members();
        let outsiders = self.outsiders();
        let mut best: Option<([ElementId; 2], [ElementId; 2], f64)> = None;
        for (i, &u1) in members.iter().enumerate() {
            for &u2 in &members[i + 1..] {
                for (j, &v1) in outsiders.iter().enumerate() {
                    for &v2 in &outsiders[j + 1..] {
                        let gain = self.double_swap_gain(u1, u2, v1, v2);
                        if gain > best.map_or(0.0, |(_, _, g)| g) {
                            best = Some(([u1, u2], [v1, v2], gain));
                        }
                    }
                }
            }
        }
        best
    }

    /// Applies the better of the best single and best double swap (shared
    /// tail of the serial and parallel double-update entry points).
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
    /// it.
    fn best_single_swap(&self) -> Option<(ElementId, ElementId, f64)> {
        let n = self.problem.ground_size();
        let members = self.state.members();
        let metric = self.problem.metric();
        let quality = self.problem.quality();
        let lambda = self.problem.lambda();
        scan_swap_chunk(
            0,
            n as ElementId,
            members,
            |v| !self.state.contains(v),
            |v, u| {
                quality.swap_gain(v, u, members)
                    + lambda * self.state.swap_dispersion_delta(metric, v, u)
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

/// Thread-parallel scans for the dynamic-update rules (`parallel`
/// feature). Chunking and merge discipline come from
/// `ScanPool::scan_chunks`; every candidate's gain is the
/// exact serial expression, so outputs are bit-identical to
/// [`DynamicInstance::oblivious_update`] /
/// [`DynamicInstance::oblivious_update_double`]. Each takes its pool
/// explicitly — [`crate::pool::ScanPool::global`] for the ambient one, or
/// a forced pool to pin a chunk schedule.
#[cfg(feature = "parallel")]
impl DynamicInstance {
    /// Parallel [`DynamicInstance::oblivious_update`] on `pool`: the
    /// O(n·p) swap scan runs chunked over the incoming candidate `v`.
    pub fn oblivious_update_parallel_in(&mut self, pool: &crate::pool::ScanPool) -> UpdateOutcome {
        match self.best_single_swap_parallel(pool) {
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

    /// Parallel [`DynamicInstance::oblivious_update_double`] on `pool`:
    /// the O(n²p²) double-swap scan runs chunked over the outgoing member
    /// pair (each worker owns a contiguous run of `(u1, u2)` pairs in the
    /// serial traversal order and runs the full outsider-pair inner
    /// loops), and the baseline single-swap scan runs chunked over
    /// candidates.
    pub fn oblivious_update_double_parallel_in(
        &mut self,
        pool: &crate::pool::ScanPool,
    ) -> UpdateOutcome {
        let single = self.best_single_swap_parallel(pool);
        let best_double = self.best_double_swap_parallel(pool);
        self.commit_double(single, best_double)
    }

    /// Parallel counterpart of `best_single_swap`, chunked over `v`.
    /// Falls back to the serial scan below the work floor where chunking
    /// does not amortize (identical result either way). The modular
    /// per-candidate evaluation is O(1) arithmetic — scan cost hint 1 —
    /// so the raw candidate count is the weighted work.
    fn best_single_swap_parallel(
        &self,
        pool: &crate::pool::ScanPool,
    ) -> Option<(ElementId, ElementId, f64)> {
        let n = self.problem.ground_size();
        if !pool.worthwhile(n.saturating_mul(self.state.len())) {
            return self.best_single_swap();
        }
        let members = self.state.members();
        let metric = self.problem.metric();
        let quality = self.problem.quality();
        let lambda = self.problem.lambda();
        let state = &self.state;
        pool.scan_chunks(
            n,
            |lo, hi| {
                scan_swap_chunk(
                    lo as ElementId,
                    hi as ElementId,
                    members,
                    |v| !state.contains(v),
                    |v, u| {
                        quality.swap_gain(v, u, members)
                            + lambda * state.swap_dispersion_delta(metric, v, u)
                    },
                )
            },
            |&(_, _, gain)| gain,
        )
    }

    /// Parallel counterpart of `best_double_swap`, chunked over the
    /// member-pair list (p(p−1)/2 units of O(n²) work each). Falls back
    /// to the serial scan below the work floor (identical result).
    fn best_double_swap_parallel(
        &self,
        pool: &crate::pool::ScanPool,
    ) -> Option<([ElementId; 2], [ElementId; 2], f64)> {
        let p = self.state.len();
        let out = self.problem.ground_size() - p;
        let ops = (p * p / 2).saturating_mul(out).saturating_mul(out) / 2;
        if !pool.worthwhile(ops) {
            return self.best_double_swap();
        }
        let members = self.state.members();
        let outsiders = self.outsiders();
        // Member pairs in the serial (i, i+1..) traversal order, so chunk
        // concatenation reproduces the serial scan sequence exactly.
        let pairs: Vec<(ElementId, ElementId)> = members
            .iter()
            .enumerate()
            .flat_map(|(i, &u1)| members[i + 1..].iter().map(move |&u2| (u1, u2)))
            .collect();
        let this = self;
        let outsiders = &outsiders;
        pool.scan_chunks(
            pairs.len(),
            |lo, hi| {
                let mut best: Option<([ElementId; 2], [ElementId; 2], f64)> = None;
                for &(u1, u2) in &pairs[lo..hi] {
                    for (j, &v1) in outsiders.iter().enumerate() {
                        for &v2 in &outsiders[j + 1..] {
                            let gain = this.double_swap_gain(u1, u2, v1, v2);
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
/// pairs through O(1)/O(touched) incremental reads, and applies the best
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
    let n = problem.ground_size();
    let state = PotentialState::from_set(problem, solution);
    let best = scan_swap_chunk(
        0,
        n as ElementId,
        state.members(),
        |v| !state.contains(v),
        |v, u| state.swap_gain(v, u),
    );
    apply_step_outcome(solution, best)
}

/// One chunk `lo..hi` of THE oblivious single-swap scan: incoming
/// candidates ascending, members in solution order, strict improvement
/// over the running best (seeded at 0, so only positive gains qualify).
/// Every serial, parallel-chunk and session scan funnels through this one
/// traversal, which makes the *tie-break discipline* a structural
/// property instead of a convention to re-check per call site. Agreement
/// of the scanned values themselves is up to the caller's `gain`
/// expression: serial vs parallel read the same caches and are exactly
/// bit-identical, while a session's delta-patched caches match a fresh
/// rebuild's sums up to floating-point accumulation order (only
/// near-exact gain ties can distinguish them — see the equivalence
/// suites). `eligible` filters candidates (membership, availability
/// masks); `gain` supplies the swap-gain expression of the caller's
/// caches.
pub(crate) fn scan_swap_chunk(
    lo: ElementId,
    hi: ElementId,
    members: &[ElementId],
    eligible: impl Fn(ElementId) -> bool,
    gain: impl Fn(ElementId, ElementId) -> f64,
) -> Option<(ElementId, ElementId, f64)> {
    let mut best: Option<(ElementId, ElementId, f64)> = None;
    for v in lo..hi {
        if !eligible(v) {
            continue;
        }
        for &u in members {
            let g = gain(v, u);
            if g > best.map_or(0.0, |(_, _, g)| g) {
                best = Some((u, v, g));
            }
        }
    }
    best
}

/// Applies a chosen `(u_out, v_in, gain)` swap to a raw solution vector
/// with [`SolutionState`]'s swap-remove-then-push ordering (shared by the
/// serial and parallel [`oblivious_update_step`] entry points).
pub(crate) fn apply_step_outcome(
    solution: &mut Vec<ElementId>,
    best: Option<(ElementId, ElementId, f64)>,
) -> UpdateOutcome {
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
pub fn oblivious_update_step_matroid<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    matroid: &(impl Matroid + ?Sized),
    solution: &mut Vec<ElementId>,
) -> UpdateOutcome {
    let n = problem.ground_size();
    let state = PotentialState::from_set(problem, solution);
    let best = scan_swap_chunk(
        0,
        n as ElementId,
        state.members(),
        |v| !state.contains(v),
        |v, u| {
            if matroid.exchange_feasible(state.members(), u, v) {
                state.swap_gain(v, u)
            } else {
                f64::NEG_INFINITY
            }
        },
    );
    apply_step_outcome(solution, best)
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
/// The caller is responsible for `solution` fitting the budget; `costs`
/// must cover the ground set (checked).
///
/// # Panics
///
/// Panics if `costs.len() != problem.ground_size()`.
///
/// [`knapsack_diversify`]: crate::knapsack::knapsack_diversify
pub fn oblivious_update_step_knapsack<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    costs: &[f64],
    budget: f64,
    solution: &mut Vec<ElementId>,
) -> UpdateOutcome {
    let n = problem.ground_size();
    assert_eq!(costs.len(), n, "one cost per element required");
    let state = PotentialState::from_set(problem, solution);
    let load: f64 = state.members().iter().map(|&u| costs[u as usize]).sum();
    let best = scan_swap_chunk(
        0,
        n as ElementId,
        state.members(),
        |v| !state.contains(v),
        |v, u| {
            if load - costs[u as usize] + costs[v as usize] > budget {
                return f64::NEG_INFINITY;
            }
            let gain = state.swap_gain(v, u);
            if gain > 0.0 {
                crate::knapsack::density_score(gain, costs[v as usize])
            } else {
                f64::NEG_INFINITY
            }
        },
    );
    // `best.2` is a density score; report the true objective delta.
    let best = best.map(|(u, v, _)| (u, v, state.swap_gain(v, u)));
    apply_step_outcome(solution, best)
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
}
