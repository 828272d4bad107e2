//! Deliberately-naive reference implementations for the ablation benches
//! and for the incremental-oracle equivalence suite
//! (`tests/incremental_equivalence.rs`).
//!
//! Every function here evaluates candidates through the *slice-based*
//! oracles only — `quality.marginal(u, &members)`,
//! `metric.distance_to_set(u, &members)`, `quality.swap_gain(u, v, &members)`
//! — recomputing from scratch at every step. They are the ground truth the
//! incremental/lazy/parallel paths must reproduce, and the baselines the
//! `incremental_oracle` bench measures speedups against:
//!
//! * [`greedy_b_naive`] — Greedy B without any gain cache: `O(cost(f) + p)`
//!   per candidate per step.
//! * [`greedy_b_pairs_naive`] — the pair greedy with a fresh member-list
//!   clone per candidate pair (the seed implementation's behaviour).
//! * [`local_search_refine_naive`] — best-improvement 1-swap local search
//!   with slice-recomputed swap gains.
//! * [`greedy_b_oblivious`] — Greedy B with the *oblivious* selection rule
//!   (maximizing the true marginal `φ_u` instead of the potential `φ'_u`).
//!   Theorem 1's proof needs the ½ factor; this variant shows what the
//!   plain rule does empirically.

use msd_core::local_search::PivotRule;
use msd_core::{DiversificationProblem, ElementId, GreedyBConfig, LocalSearchConfig};
use msd_matroid::Matroid;
use msd_metric::Metric;
use msd_submodular::SetFunction;

/// Gain-per-cost density, mirroring the documented rule of the core's
/// knapsack scans: positive potential at zero cost is infinitely dense;
/// non-positive potential at zero cost keeps its raw value so it still
/// loses to any strictly positive score.
fn density(potential: f64, cost: f64) -> f64 {
    if cost == 0.0 {
        if potential > 0.0 {
            f64::INFINITY
        } else {
            potential
        }
    } else {
        potential / cost
    }
}

/// One slice-based greedy step: the lowest-index argmax of the potential
/// `φ'_u(S)` over `u ∉ members`, recomputed from scratch. Shared by every
/// naive greedy in this module so the reference selection rule exists in
/// exactly one place.
fn naive_potential_argmax<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    members: &[ElementId],
) -> Option<ElementId> {
    let n = problem.ground_size();
    let mut best: Option<ElementId> = None;
    let mut best_score = f64::NEG_INFINITY;
    for u in 0..n as ElementId {
        if members.contains(&u) {
            continue;
        }
        let score = problem.potential(u, members); // O(|S|) distance sweep
        if score > best_score {
            best_score = score;
            best = Some(u);
        }
    }
    best
}

/// Greedy B recomputing `d_u(S)` from scratch at every step.
pub fn greedy_b_naive<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    p: usize,
) -> Vec<ElementId> {
    greedy_b_naive_with_config(problem, p, GreedyBConfig::default())
}

/// Greedy B with `best_pair_start` semantics, fully slice-based.
pub fn greedy_b_naive_with_config<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    p: usize,
    config: GreedyBConfig,
) -> Vec<ElementId> {
    let n = problem.ground_size();
    let p = p.min(n);
    if p == 0 {
        return Vec::new();
    }
    let mut members: Vec<ElementId> = Vec::with_capacity(p);
    if config.best_pair_start && p >= 2 {
        let (mut best, mut best_score) = ((0, 1), f64::NEG_INFINITY);
        for x in 0..n as ElementId {
            for y in (x + 1)..n as ElementId {
                let score = 0.5 * problem.quality().value(&[x, y])
                    + problem.lambda() * problem.metric().distance(x, y);
                if score > best_score {
                    best_score = score;
                    best = (x, y);
                }
            }
        }
        members.push(best.0);
        members.push(best.1);
    }
    while members.len() < p {
        match naive_potential_argmax(problem, &members) {
            Some(u) => members.push(u),
            None => break,
        }
    }
    members
}

/// The pair (batch) greedy recomputing every pair's quality marginal from
/// a freshly cloned member list — the pre-incremental implementation, kept
/// as the reference and bench baseline.
pub fn greedy_b_pairs_naive<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    p: usize,
) -> Vec<ElementId> {
    let n = problem.ground_size();
    let p = p.min(n);
    if p == 0 {
        return Vec::new();
    }
    let lambda = problem.lambda();
    let quality = problem.quality();
    let metric = problem.metric();
    let mut members: Vec<ElementId> = Vec::new();
    let in_set = |members: &[ElementId], u: ElementId| members.contains(&u);

    while members.len() + 2 <= p {
        let mut best: Option<(ElementId, ElementId)> = None;
        let mut best_score = f64::NEG_INFINITY;
        for u in 0..n as ElementId {
            if in_set(&members, u) {
                continue;
            }
            for v in (u + 1)..n as ElementId {
                if in_set(&members, v) {
                    continue;
                }
                let mut with_u = members.clone();
                with_u.push(u);
                let fq = quality.marginal(u, &members) + quality.marginal(v, &with_u);
                let dd = metric.distance_to_set(u, &members)
                    + metric.distance_to_set(v, &members)
                    + metric.distance(u, v);
                let score = 0.5 * fq + lambda * dd;
                if score > best_score {
                    best_score = score;
                    best = Some((u, v));
                }
            }
        }
        match best {
            Some((u, v)) => {
                members.push(u);
                members.push(v);
            }
            None => break,
        }
    }
    if members.len() < p {
        // One final single-vertex step for odd p (same rule as the greedy).
        if let Some(u) = naive_potential_argmax(problem, &members) {
            members.push(u);
        }
    }
    members
}

/// 1-swap local search with every swap gain recomputed through the slice
/// oracles (`O(cost(f) + p)` per candidate pair).
///
/// Only `epsilon`, `max_swaps` and the pivot are honoured; this exists as
/// ground truth for `local_search_refine`, whose swaps it must reproduce
/// move for move. First-improvement takes the first pair above the
/// threshold in the same traversal order.
pub fn local_search_refine_naive<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    initial: &[ElementId],
    config: LocalSearchConfig,
) -> Vec<ElementId> {
    let n = problem.ground_size();
    let mut members: Vec<ElementId> = initial.to_vec();
    let mut objective = problem.objective(&members);
    let mut swaps = 0usize;
    let first = config.pivot == PivotRule::FirstImprovement;
    while swaps < config.max_swaps {
        let threshold = config.epsilon * objective.abs().max(1.0);
        let mut best_swap: Option<(usize, ElementId, f64)> = None;
        'scan: for u in 0..n as ElementId {
            if members.contains(&u) {
                continue;
            }
            for (idx, &v) in members.iter().enumerate() {
                let gain = problem.swap_gain(u, v, &members);
                if gain <= threshold {
                    continue;
                }
                if best_swap.is_none_or(|(_, _, g)| gain > g) {
                    best_swap = Some((idx, u, gain));
                    if first {
                        break 'scan;
                    }
                }
            }
        }
        match best_swap {
            Some((idx, u, gain)) => {
                // Mirror SolutionState's swap-remove-then-push order so the
                // member ordering (and hence any subsequent tie-break)
                // matches the incremental implementation exactly.
                members.swap_remove(idx);
                members.push(u);
                objective += gain;
                swaps += 1;
            }
            None => break,
        }
    }
    members
}

/// One oblivious single-swap dynamic repair step with every gain
/// recomputed through the slice oracles — the ground truth for
/// `msd_core::oblivious_update_step` (and, for modular quality, for
/// `DynamicInstance::oblivious_update`). Same traversal (incoming
/// candidate `v` ascending, members in solution order), same
/// strictly-positive threshold, same swap-remove-then-push mutation.
pub fn oblivious_update_step_naive<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    solution: &mut Vec<ElementId>,
) -> Option<(ElementId, ElementId)> {
    let n = problem.ground_size();
    let mut best: Option<(usize, ElementId, f64)> = None;
    for v in 0..n as ElementId {
        if solution.contains(&v) {
            continue;
        }
        for (idx, &u) in solution.iter().enumerate() {
            let gain = problem.swap_gain(v, u, solution);
            if gain > best.map_or(0.0, |(_, _, g)| g) {
                best = Some((idx, v, gain));
            }
        }
    }
    let (idx, v, _) = best?;
    let u = solution[idx];
    solution.swap_remove(idx);
    solution.push(v);
    Some((u, v))
}

/// One oblivious repair step restricted to an availability mask — the
/// slice-recomputing ground truth for `DynamicSession` under arrivals and
/// departures. Identical to [`oblivious_update_step_naive`] except that
/// inactive candidates are skipped.
pub fn session_update_step_naive<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    active: &[bool],
    solution: &mut Vec<ElementId>,
) -> Option<(ElementId, ElementId)> {
    let n = problem.ground_size();
    let mut best: Option<(usize, ElementId, f64)> = None;
    for v in 0..n as ElementId {
        if !active[v as usize] || solution.contains(&v) {
            continue;
        }
        for (idx, &u) in solution.iter().enumerate() {
            let gain = problem.swap_gain(v, u, solution);
            if gain > best.map_or(0.0, |(_, _, g)| g) {
                best = Some((idx, v, gain));
            }
        }
    }
    let (idx, v, _) = best?;
    let u = solution[idx];
    solution.swap_remove(idx);
    solution.push(v);
    Some((u, v))
}

/// Repeats [`session_update_step_naive`] until no positive swap remains
/// or `max_updates` steps ran, returning the swaps in order — the
/// slice-recomputing stabilization tail of the **batch reference**: apply
/// a burst's repairs to a mirrored instance (weights/distances mutated,
/// availability mask replayed in ingestion order, the greedy refill loop
/// replayed once at batch end — the session's deferred-refill contract),
/// then call this to reach the single-swap optimum
/// `DynamicSession::ingest` followed by `update_until_stable` must
/// reproduce swap for swap.
pub fn session_stabilize_naive<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    active: &[bool],
    solution: &mut Vec<ElementId>,
    max_updates: usize,
) -> Vec<(ElementId, ElementId)> {
    let mut swaps = Vec::new();
    while swaps.len() < max_updates {
        match session_update_step_naive(problem, active, solution) {
            Some(swap) => swaps.push(swap),
            None => break,
        }
    }
    swaps
}

/// Greedy refill by the objective marginal over active outsiders (lowest
/// index on ties) — the reference for `DynamicSession`'s
/// departure-replacement rule. Returns the inserted element, pushing it
/// onto `solution`.
pub fn session_refill_naive<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    active: &[bool],
    solution: &mut Vec<ElementId>,
) -> Option<ElementId> {
    let n = problem.ground_size();
    let mut best: Option<(ElementId, f64)> = None;
    for w in 0..n as ElementId {
        if !active[w as usize] || solution.contains(&w) {
            continue;
        }
        let score = problem.marginal(w, solution);
        if best.is_none_or(|(_, b)| score > b) {
            best = Some((w, score));
        }
    }
    let (w, _) = best?;
    solution.push(w);
    Some(w)
}

/// [`session_update_step_naive`] restricted to matroid exchange-feasible
/// swaps — the slice-recomputing ground truth for a `DynamicSession`
/// carrying [`ConstraintPolicy::Matroid`](msd_core::ConstraintPolicy).
/// Infeasible cells are skipped, which under the strictly-positive
/// threshold is indistinguishable from the core's `NEG_INFINITY`
/// sentinel; traversal order and tie-breaks are unchanged.
pub fn session_update_step_matroid_naive<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    matroid: &(impl Matroid + ?Sized),
    active: &[bool],
    solution: &mut Vec<ElementId>,
) -> Option<(ElementId, ElementId)> {
    let n = problem.ground_size();
    let mut best: Option<(usize, ElementId, f64)> = None;
    for v in 0..n as ElementId {
        if !active[v as usize] || solution.contains(&v) {
            continue;
        }
        for (idx, &u) in solution.iter().enumerate() {
            if !matroid.can_swap(v, u, solution) {
                continue;
            }
            let gain = problem.swap_gain(v, u, solution);
            if gain > best.map_or(0.0, |(_, _, g)| g) {
                best = Some((idx, v, gain));
            }
        }
    }
    let (idx, v, _) = best?;
    let u = solution[idx];
    solution.swap_remove(idx);
    solution.push(v);
    Some((u, v))
}

/// [`session_update_step_naive`] under a knapsack budget: cells must keep
/// the post-swap load within budget and improve the objective, and rank
/// by gain-per-cost `density` — the slice-recomputing ground truth for
/// a `DynamicSession` carrying
/// [`ConstraintPolicy::Knapsack`](msd_core::ConstraintPolicy). The
/// returned swap is the densest strictly-improving feasible exchange
/// (lowest candidate, then earliest member, on density ties).
pub fn session_update_step_knapsack_naive<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    costs: &[f64],
    budget: f64,
    active: &[bool],
    solution: &mut Vec<ElementId>,
) -> Option<(ElementId, ElementId)> {
    let n = problem.ground_size();
    let load: f64 = solution.iter().map(|&u| costs[u as usize]).sum();
    let mut best: Option<(usize, ElementId, f64)> = None;
    for v in 0..n as ElementId {
        if !active[v as usize] || solution.contains(&v) {
            continue;
        }
        for (idx, &u) in solution.iter().enumerate() {
            if load - costs[u as usize] + costs[v as usize] > budget {
                continue;
            }
            let gain = problem.swap_gain(v, u, solution);
            if gain <= 0.0 {
                continue;
            }
            let score = density(gain, costs[v as usize]);
            if score > best.map_or(0.0, |(_, _, s)| s) {
                best = Some((idx, v, score));
            }
        }
    }
    let (idx, v, _) = best?;
    let u = solution[idx];
    solution.swap_remove(idx);
    solution.push(v);
    Some((u, v))
}

/// [`session_refill_naive`] restricted to additions that keep the set
/// independent — the reference for the constrained session's
/// departure-refill rule under a matroid.
pub fn session_refill_matroid_naive<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    matroid: &(impl Matroid + ?Sized),
    active: &[bool],
    solution: &mut Vec<ElementId>,
) -> Option<ElementId> {
    let n = problem.ground_size();
    let mut best: Option<(ElementId, f64)> = None;
    for w in 0..n as ElementId {
        if !active[w as usize] || solution.contains(&w) {
            continue;
        }
        if !matroid.can_add(w, solution) {
            continue;
        }
        let score = problem.marginal(w, solution);
        if best.is_none_or(|(_, b)| score > b) {
            best = Some((w, score));
        }
    }
    let (w, _) = best?;
    solution.push(w);
    Some(w)
}

/// [`session_refill_naive`] under a knapsack budget: affordable outsiders
/// rank by the `density` of the *potential* `φ'_w = ½·f_w + λ·d_w`
/// (the same accept rule as `knapsack_diversify`'s greedy completion) —
/// the reference for the constrained session's refill under a budget.
pub fn session_refill_knapsack_naive<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    costs: &[f64],
    budget: f64,
    active: &[bool],
    solution: &mut Vec<ElementId>,
) -> Option<ElementId> {
    let n = problem.ground_size();
    let load: f64 = solution.iter().map(|&u| costs[u as usize]).sum();
    let mut best: Option<(ElementId, f64)> = None;
    for w in 0..n as ElementId {
        if !active[w as usize] || solution.contains(&w) {
            continue;
        }
        let c = costs[w as usize];
        if load + c > budget {
            continue;
        }
        let score = density(problem.potential(w, solution), c);
        if best.is_none_or(|(_, b)| score > b) {
            best = Some((w, score));
        }
    }
    let (w, _) = best?;
    solution.push(w);
    Some(w)
}

/// The best simultaneous two-for-two exchange, scored by brute-force
/// objective recomputation on materialized sets — the (tolerance-based)
/// reference for `DynamicInstance::oblivious_update_double`, whose cache
/// algebra must agree with it up to floating-point accumulation order.
pub fn best_double_swap_naive<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    solution: &[ElementId],
) -> Option<(f64, [ElementId; 2], [ElementId; 2])> {
    let n = problem.ground_size();
    let base = problem.objective(solution);
    let outsiders: Vec<ElementId> = (0..n as ElementId)
        .filter(|v| !solution.contains(v))
        .collect();
    let mut best: Option<(f64, [ElementId; 2], [ElementId; 2])> = None;
    for (i, &u1) in solution.iter().enumerate() {
        for &u2 in &solution[i + 1..] {
            for (j, &v1) in outsiders.iter().enumerate() {
                for &v2 in &outsiders[j + 1..] {
                    let mut swapped: Vec<ElementId> = solution
                        .iter()
                        .copied()
                        .filter(|&x| x != u1 && x != u2)
                        .collect();
                    swapped.push(v1);
                    swapped.push(v2);
                    let gain = problem.objective(&swapped) - base;
                    if gain > best.map_or(0.0, |(g, _, _)| g) {
                        best = Some((gain, [u1, u2], [v1, v2]));
                    }
                }
            }
        }
    }
    best
}

/// Greedy selecting by the *objective* marginal `φ_u(S) = f_u + λ·d_u`
/// instead of the potential `φ'_u = ½·f_u + λ·d_u`.
pub fn greedy_b_oblivious<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    p: usize,
) -> Vec<ElementId> {
    let n = problem.ground_size();
    let p = p.min(n);
    let mut members: Vec<ElementId> = Vec::with_capacity(p);
    let mut in_set = vec![false; n];
    while members.len() < p {
        let mut best: Option<ElementId> = None;
        let mut best_score = f64::NEG_INFINITY;
        for u in 0..n as ElementId {
            if in_set[u as usize] {
                continue;
            }
            let score = problem.marginal(u, &members);
            if score > best_score {
                best_score = score;
                best = Some(u);
            }
        }
        match best {
            Some(u) => {
                members.push(u);
                in_set[u as usize] = true;
            }
            None => break,
        }
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_core::{greedy_b, GreedyBConfig};
    use msd_data::SyntheticConfig;

    #[test]
    fn naive_and_cached_greedy_agree() {
        for seed in 0..5u64 {
            let problem = SyntheticConfig::paper(30).generate(seed);
            for p in [1usize, 3, 7, 12] {
                assert_eq!(
                    greedy_b_naive(&problem, p),
                    greedy_b(&problem, p, GreedyBConfig::default()),
                    "seed {seed} p {p}"
                );
            }
        }
    }

    #[test]
    fn oblivious_rule_differs_when_quality_dominates() {
        // Both rules may pick different sets; verify both produce valid
        // selections with positive objectives (the quality comparison is
        // the ablation bench's job, not a unit invariant).
        for seed in 0..5u64 {
            let problem = SyntheticConfig::paper(20).generate(seed + 100);
            let a = greedy_b(&problem, 6, GreedyBConfig::default());
            let b = greedy_b_oblivious(&problem, 6);
            assert_eq!(a.len(), 6);
            assert_eq!(b.len(), 6);
            let va = problem.objective(&a);
            let vb = problem.objective(&b);
            assert!(va > 0.0 && vb > 0.0);
        }
    }

    #[test]
    fn degenerate_p() {
        let problem = SyntheticConfig::paper(5).generate(1);
        assert!(greedy_b_naive(&problem, 0).is_empty());
        assert_eq!(greedy_b_oblivious(&problem, 99).len(), 5);
    }
}
