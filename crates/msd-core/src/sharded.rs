//! Persistent sharded dynamic engine: the distributed composable greedy
//! kept alive across perturbations.
//!
//! [`crate::distributed::distributed_greedy`] is one-shot: partition, map,
//! reduce, return. Under the paper's dynamic-update model (Section 6) a
//! stream of [`SessionPerturbation`]s would force a full re-solve per
//! batch — `machines + 1` greedy runs each time, almost all of them
//! recomputing shards nothing touched. [`ShardedEngine`] makes the
//! distributed scheme *persistent*:
//!
//! * one live [`DynamicSession`] per shard, each holding its
//!   Birnbaum–Goldman gain caches and bounded best-swap candidate cache
//!   across batches, so a perturbation costs the session's O(Δ) repair +
//!   oblivious swaps instead of a shard re-solve;
//! * perturbations are routed to their owning shard through the same
//!   pluggable partitioner as the one-shot solver ([`PartitionScheme`]);
//!   cross-shard distance rewrites — invisible to every per-shard view —
//!   are recorded in an engine-global [`OverlayMetric`] that the reduce
//!   and all objective scoring read;
//! * the **incremental reduce**: after a batch stabilizes, the engine
//!   re-runs the union-scoped reduce greedy *only* when some shard's
//!   proposal set actually changed (dirty-shard tracking, compared as
//!   sets) or the batch touched the current proposal union (a weight
//!   rewrite of a union element, a distance rewrite within the union, or
//!   a union departure). Quiet batches — the common case under localized
//!   perturbation streams — keep the merged solution and its objective
//!   with **zero** reduce work, provably unchanged: every quantity the
//!   reduce depends on (union membership, union-internal distances, union
//!   weights, per-shard fallback objectives) is untouched by construction.
//!   The best-single-shard fallback of the composable scheme is preserved
//!   verbatim.
//!
//! Memory never materializes `n²` distances: shard sessions see
//! [`RestrictedMetric`] views of the problem metric (implicit metrics
//! stay implicit), quality oracles are [`RestrictedOracle`] views over
//! per-shard instances of the function's specialized oracle, and the
//! reduce re-restricts an engine-owned global oracle. For an implicit
//! point metric the resident distance state is the sparse overlay of
//! rewrites — `o(n²)` end to end.
//!
//! Round 0 is element-for-element identical to
//! [`distributed_greedy`](crate::distributed::distributed_greedy): the
//! engine seeds its sessions through the one-shot solver's exact map
//! round and re-selects the merged set through the same Greedy B code
//! path over the same union. The equivalence suite in `msd-bench` pins
//! this, along with per-shard agreement with naive stabilization across
//! perturbation rounds.

// Ingestion boundary: faults arrive here as values, never as panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use msd_metric::{Metric, OverlayMetric, PerturbableMetric, RestrictedMetric};
use msd_submodular::{IncrementalOracle, RestrictedOracle, SetFunction};

use crate::check::BatchCheck;
use crate::distributed::{solve_restricted, PartitionScheme};
use crate::greedy::{greedy_b_with_state, GreedyBConfig};
use crate::pool::ScanPool;
use crate::potential::PotentialState;
use crate::problem::DiversificationProblem;
use crate::session::{DynamicSession, SessionError, SessionPerturbation};
use crate::ElementId;

/// Metric owned by one shard session: a perturbation overlay over the
/// restricted view of the (borrowed) problem metric. `O(shard size)`
/// state plus the shard-local rewrites.
pub type ShardMetric<'q, M> = OverlayMetric<RestrictedMetric<&'q M>>;

/// Configuration of a [`ShardedEngine`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of shards (≥ 1).
    pub machines: usize,
    /// Partitioning scheme (shared with the one-shot solver).
    pub scheme: PartitionScheme,
    /// Greedy settings for the map round and the reduce.
    pub greedy: GreedyBConfig,
    /// Per-batch cap on oblivious updates while stabilizing a shard.
    pub max_updates: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            machines: 4,
            scheme: PartitionScheme::RoundRobin,
            greedy: GreedyBConfig::default(),
            max_updates: 4096,
        }
    }
}

/// Cumulative merge statistics of a [`ShardedEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Perturbation batches ingested.
    pub rounds: u64,
    /// Union-scoped reduce greedies actually executed (includes the
    /// round-0 merge; quiet batches don't increment this).
    pub reduce_runs: u64,
    /// Dirty shards (proposal set changed) in the last batch.
    pub last_dirty_shards: usize,
    /// Union size the last executed reduce selected over.
    pub last_reduce_scope: usize,
    /// Whether the last batch re-ran the reduce.
    pub last_reduce_ran: bool,
}

/// Outcome of one [`ShardedEngine::ingest`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedReport {
    /// Shards that received at least one perturbation.
    pub perturbed_shards: usize,
    /// Shards whose proposal set changed (the re-merge triggers).
    pub dirty_shards: Vec<usize>,
    /// Oblivious swaps committed across all shard sessions.
    pub swaps: usize,
    /// Greedy refills committed across all shard sessions
    /// (departure replacements, arrival refills).
    pub refills: usize,
    /// Whether the union-scoped reduce re-ran.
    pub reduce_ran: bool,
    /// Current proposal-union size (the reduce scope).
    pub reduce_scope: usize,
    /// Whether the merged solution currently comes from the reduce greedy
    /// (vs the best-single-shard fallback).
    pub reduce_won: bool,
    /// Objective of the merged solution.
    pub objective: f64,
}

/// Persistent sharded dynamic engine. See the [module docs](self).
pub struct ShardedEngine<'q, M: Metric> {
    /// Engine-global perturbed metric view (all rewrites, including
    /// cross-shard ones); the reduce and every objective read this.
    metric: OverlayMetric<&'q M>,
    lambda: f64,
    p: usize,
    config: ShardedConfig,
    /// Global ids per shard, ascending (the partitioner's output).
    shard_ids: Vec<Vec<ElementId>>,
    /// Owning shard per global element.
    shard_of: Vec<u32>,
    /// Local id within the owning shard per global element.
    local_of: Vec<ElementId>,
    /// One persistent session per non-empty shard.
    sessions: Vec<Option<DynamicSession<'q, ShardMetric<'q, M>>>>,
    /// Engine-owned global oracle, kept at `S = ∅` between uses; scores
    /// proposals and backs the union-restricted reduce greedy. Weight
    /// perturbations are mirrored into it.
    reduce_oracle: Box<dyn IncrementalOracle + 'q>,
    /// Current per-shard proposals (global ids, selection order).
    proposals: Vec<Vec<ElementId>>,
    /// Objective of each shard's proposal (the fallback candidates).
    shard_objective: Vec<f64>,
    /// Sorted union of the current proposals.
    union: Vec<ElementId>,
    /// Membership mask of `union` over the global ground set.
    in_union: Vec<bool>,
    /// Current merged solution (reduce output or fallback winner).
    merged: Vec<ElementId>,
    merged_objective: f64,
    reduce_won: bool,
    stats: MergeStats,
}

impl<M: Metric> std::fmt::Debug for ShardedEngine<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("machines", &self.shard_ids.len())
            .field("p", &self.p)
            .field("merged", &self.merged)
            .field("objective", &self.merged_objective)
            .field("reduce_won", &self.reduce_won)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<'q, M: Metric> ShardedEngine<'q, M> {
    /// Builds the engine: partitions the ground set, runs the one-shot map
    /// round (identical to `distributed_greedy`'s), opens one persistent
    /// session per non-empty shard, and merges. The engine borrows only
    /// `problem`; all session state is owned.
    ///
    /// # Panics
    ///
    /// Panics when `config.machines == 0`.
    pub fn new<F: SetFunction>(
        problem: &'q DiversificationProblem<M, F>,
        p: usize,
        config: ShardedConfig,
    ) -> Self {
        assert!(config.machines > 0, "need at least one machine");
        let n = problem.ground_size();
        let p = p.min(n);
        let machines = config.machines;

        // Partition exactly like the one-shot solver.
        let mut shard_ids: Vec<Vec<ElementId>> = vec![Vec::new(); machines];
        match config.scheme {
            PartitionScheme::RoundRobin => {
                for u in 0..n as ElementId {
                    shard_ids[u as usize % machines].push(u);
                }
            }
            PartitionScheme::Contiguous => {
                let per = n.div_ceil(machines);
                for u in 0..n as ElementId {
                    shard_ids[(u as usize / per).min(machines - 1)].push(u);
                }
            }
        }
        let mut shard_of = vec![0u32; n];
        let mut local_of = vec![0 as ElementId; n];
        for (s, ids) in shard_ids.iter().enumerate() {
            for (l, &g) in ids.iter().enumerate() {
                shard_of[g as usize] = s as u32;
                local_of[g as usize] = l as ElementId;
            }
        }

        // Map round: the one-shot solver's exact code path (round-0
        // equivalence with `distributed_greedy`).
        let proposals: Vec<Vec<ElementId>> = shard_ids
            .iter()
            .map(|shard| {
                if p == 0 || shard.is_empty() {
                    Vec::new()
                } else {
                    solve_restricted(problem, shard, p, config.greedy)
                }
            })
            .collect();

        // Persistent sessions, seeded with the map-round proposals.
        let sessions: Vec<Option<DynamicSession<'q, ShardMetric<'q, M>>>> = shard_ids
            .iter()
            .zip(&proposals)
            .map(|(ids, proposal)| {
                if proposal.is_empty() {
                    return None;
                }
                let metric =
                    OverlayMetric::new(RestrictedMetric::new(problem.metric(), ids.clone()));
                let mut oracle: Box<dyn IncrementalOracle + 'q> =
                    Box::new(RestrictedOracle::<_, dyn IncrementalOracle + 'q>::new(
                        problem.quality().incremental(),
                        ids.clone(),
                    ));
                let local: Vec<ElementId> =
                    proposal.iter().map(|&g| local_of[g as usize]).collect();
                for &lu in &local {
                    oracle.insert(lu);
                }
                Some(DynamicSession::from_parts(
                    metric,
                    oracle,
                    problem.lambda(),
                    &local,
                ))
            })
            .collect();

        let mut engine = Self {
            metric: OverlayMetric::new(problem.metric()),
            lambda: problem.lambda(),
            p,
            config,
            shard_ids,
            shard_of,
            local_of,
            sessions,
            reduce_oracle: problem.quality().incremental(),
            proposals,
            shard_objective: vec![0.0; machines],
            union: Vec::new(),
            in_union: vec![false; n],
            merged: Vec::new(),
            merged_objective: 0.0,
            reduce_won: false,
            stats: MergeStats::default(),
        };
        engine.run_reduce();
        engine
    }

    /// Objective `f(set) + λ·d(set)` under the engine's perturbed view,
    /// scored through the global oracle (marginal telescoping — the oracle
    /// is returned to `S = ∅`).
    fn scored_objective(&mut self, set: &[ElementId]) -> f64 {
        let mut quality = 0.0;
        for &u in set {
            quality += self.reduce_oracle.marginal(u);
            self.reduce_oracle.insert(u);
        }
        for &u in set {
            self.reduce_oracle.remove(u);
        }
        quality + self.lambda * self.metric.dispersion(set)
    }

    /// Re-scores shard `s`'s proposal into `shard_objective`.
    fn refresh_shard_objective(&mut self, s: usize) {
        let proposal = std::mem::take(&mut self.proposals[s]);
        let val = self.scored_objective(&proposal);
        self.proposals[s] = proposal;
        self.shard_objective[s] = val;
    }

    /// Full union-scoped merge: rebuilds the proposal union, re-runs the
    /// reduce greedy over it (same Greedy B code path as the map round),
    /// re-scores every fallback candidate, and installs the winner under
    /// the one-shot solver's `reduce_val >= best_machine` rule.
    fn run_reduce(&mut self) {
        // Rebuild the union and its membership mask.
        for &u in &self.union {
            self.in_union[u as usize] = false;
        }
        let mut union: Vec<ElementId> = self.proposals.iter().flatten().copied().collect();
        union.sort_unstable();
        union.dedup();
        for &u in &union {
            self.in_union[u as usize] = true;
        }
        self.union = union;
        self.stats.reduce_runs += 1;
        self.stats.last_reduce_scope = self.union.len();

        if self.union.is_empty() {
            self.merged.clear();
            self.merged_objective = 0.0;
            self.reduce_won = false;
            return;
        }

        // Union-scoped reduce greedy through the shared selection loop.
        let reduced: Vec<ElementId> = {
            let view = RestrictedMetric::new(&self.metric, self.union.clone());
            let oracle: Box<dyn IncrementalOracle + '_> =
                Box::new(RestrictedOracle::<_, dyn IncrementalOracle + 'q>::new(
                    self.reduce_oracle.as_mut(),
                    self.union.clone(),
                ));
            let state = PotentialState::from_oracle(&view, oracle, self.lambda);
            // The ambient pool, like the one-shot solver's restricted
            // problems.
            let local = greedy_b_with_state(ScanPool::global(), state, self.p, self.config.greedy);
            local.into_iter().map(|l| self.union[l as usize]).collect()
        };
        // The greedy left its selection in the global oracle; restore ∅.
        for &u in &reduced {
            self.reduce_oracle.remove(u);
        }
        let reduced_val = self.scored_objective(&reduced);

        // Best-single-shard fallback, re-scored under current data; ties
        // keep the last maximum, mirroring the one-shot solver's max_by.
        for s in 0..self.shard_ids.len() {
            self.refresh_shard_objective(s);
        }
        let mut best_idx = 0usize;
        let mut best_val = f64::NEG_INFINITY;
        for (s, &val) in self.shard_objective.iter().enumerate() {
            if val >= best_val {
                best_val = val;
                best_idx = s;
            }
        }

        if reduced_val >= best_val {
            self.merged = reduced;
            self.merged_objective = reduced_val;
            self.reduce_won = true;
        } else {
            self.merged = self.proposals[best_idx].clone();
            self.merged_objective = best_val;
            self.reduce_won = false;
        }
    }

    /// Ingests a batch of global-id perturbations: routes each to its
    /// owning shard, stabilizes the perturbed sessions, and re-merges
    /// incrementally (only dirty/union-touching batches re-run the
    /// reduce). Returns the round's [`ShardedReport`].
    ///
    /// As with [`DynamicSession::ingest`], the batch is checked up front,
    /// against the availability it produces itself, and rejected whole —
    /// engine, overlays, shard sessions and merged solution untouched —
    /// on the first offender.
    ///
    /// # Errors
    ///
    /// [`SessionError::Rejected`] with the offending index and typed
    /// [`PerturbationError`](crate::PerturbationError).
    pub fn ingest(
        &mut self,
        perturbations: &[SessionPerturbation],
    ) -> Result<ShardedReport, SessionError> {
        BatchCheck::new(
            self.shard_of.len(),
            self.reduce_oracle.supports_weight_updates(),
            |u| {
                let s = self.shard_of[u as usize] as usize;
                // A p = 0 shard keeps no session (and drops the
                // perturbation on apply); treat its elements as resident
                // so arrivals there are flagged rather than silently
                // double-admitted.
                self.sessions[s]
                    .as_ref()
                    .is_none_or(|session| session.is_active(self.local_of[u as usize]))
            },
        )
        .matrix(perturbations)?;
        Ok(self.ingest_unchecked(perturbations))
    }

    /// The core of [`ShardedEngine::ingest`] over a checked batch: route,
    /// stabilize perturbed shards, detect dirty proposals, and re-merge
    /// only when needed.
    fn ingest_unchecked(&mut self, perturbations: &[SessionPerturbation]) -> ShardedReport {
        self.stats.rounds += 1;
        let machines = self.shard_ids.len();
        let mut routed: Vec<Vec<SessionPerturbation>> = vec![Vec::new(); machines];
        let mut reduce_dirty = false;

        for &pert in perturbations {
            match pert {
                SessionPerturbation::SetWeight { u, value } => {
                    let ui = u as usize;
                    // Mirror into the engine-global oracle so the reduce
                    // and fallback scoring see current weights.
                    self.reduce_oracle
                        .try_set_weight(u, value)
                        .unwrap_or_else(|| {
                            panic!("quality oracle does not support weight updates (element {u})")
                        });
                    if self.in_union[ui] {
                        reduce_dirty = true;
                    }
                    routed[self.shard_of[ui] as usize].push(SessionPerturbation::SetWeight {
                        u: self.local_of[ui],
                        value,
                    });
                }
                SessionPerturbation::SetDistance { u, v, value } => {
                    // Record globally (validates endpoints and value).
                    self.metric.set_distance(u, v, value);
                    let (ui, vi) = (u as usize, v as usize);
                    if self.in_union[ui] && self.in_union[vi] {
                        reduce_dirty = true;
                    }
                    if self.shard_of[ui] == self.shard_of[vi] {
                        routed[self.shard_of[ui] as usize].push(SessionPerturbation::SetDistance {
                            u: self.local_of[ui],
                            v: self.local_of[vi],
                            value,
                        });
                    }
                    // A cross-shard rewrite touches no session: no shard
                    // contains both endpoints, so no per-shard cache can
                    // see the pair. The engine overlay covers the reduce
                    // and all objective scoring.
                }
                SessionPerturbation::Arrive { u } => {
                    let ui = u as usize;
                    // An inactive element is never in a current proposal,
                    // so arrivals alone cannot dirty the reduce.
                    routed[self.shard_of[ui] as usize].push(SessionPerturbation::Arrive {
                        u: self.local_of[ui],
                    });
                }
                SessionPerturbation::Depart { u } => {
                    let ui = u as usize;
                    if self.in_union[ui] {
                        reduce_dirty = true;
                    }
                    routed[self.shard_of[ui] as usize].push(SessionPerturbation::Depart {
                        u: self.local_of[ui],
                    });
                }
            }
        }

        // Stabilize every perturbed shard.
        let mut swaps = 0usize;
        let mut refills = 0usize;
        let mut perturbed: Vec<usize> = Vec::new();
        for (s, batch) in routed.iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let Some(session) = self.sessions[s].as_mut() else {
                continue; // p = 0: nothing to maintain
            };
            let report = session.ingest_unchecked(batch);
            if report.outcome.swap.is_some() {
                swaps += 1;
            }
            refills += report.refills.len();
            swaps += session.update_until_stable(self.config.max_updates);
            perturbed.push(s);
        }

        // Dirty-shard detection: proposal compared as a *set* (sessions
        // reorder members on swaps; order carries no information here).
        let mut dirty: Vec<usize> = Vec::new();
        for &s in &perturbed {
            let new_proposal: Vec<ElementId> = {
                let Some(session) = self.sessions[s].as_ref() else {
                    unreachable!("perturbed shard has a session")
                };
                let ids = &self.shard_ids[s];
                session
                    .solution()
                    .iter()
                    .map(|&lu| ids[lu as usize])
                    .collect()
            };
            let mut a = new_proposal.clone();
            a.sort_unstable();
            let mut b = self.proposals[s].clone();
            b.sort_unstable();
            if a != b {
                self.proposals[s] = new_proposal;
                dirty.push(s);
            }
        }

        // Incremental reduce: merge only when something it reads changed.
        let reduce_ran = reduce_dirty || !dirty.is_empty();
        if reduce_ran {
            self.run_reduce();
        }
        self.stats.last_dirty_shards = dirty.len();
        self.stats.last_reduce_ran = reduce_ran;

        ShardedReport {
            perturbed_shards: perturbed.len(),
            dirty_shards: dirty,
            swaps,
            refills,
            reduce_ran,
            reduce_scope: self.union.len(),
            reduce_won: self.reduce_won,
            objective: self.merged_objective,
        }
    }

    /// The merged solution (global ids).
    pub fn solution(&self) -> &[ElementId] {
        &self.merged
    }

    /// Objective of the merged solution under the perturbed view.
    pub fn objective(&self) -> f64 {
        self.merged_objective
    }

    /// `true` when the merged solution comes from the reduce greedy
    /// rather than the best-single-shard fallback.
    pub fn reduce_won(&self) -> bool {
        self.reduce_won
    }

    /// Current per-shard proposals (global ids, selection order).
    pub fn proposals(&self) -> &[Vec<ElementId>] {
        &self.proposals
    }

    /// Sorted union of the current proposals (the reduce scope).
    pub fn union(&self) -> &[ElementId] {
        &self.union
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shard_ids.len()
    }

    /// The shard owning global element `u`.
    pub fn shard_of(&self, u: ElementId) -> usize {
        self.shard_of[u as usize] as usize
    }

    /// Global ids of shard `s` (ascending).
    pub fn shard_members(&self, s: usize) -> &[ElementId] {
        &self.shard_ids[s]
    }

    /// The live session of shard `s`, if the shard is non-empty.
    pub fn session(&self, s: usize) -> Option<&DynamicSession<'q, ShardMetric<'q, M>>> {
        self.sessions[s].as_ref()
    }

    /// Target cardinality `p`.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The trade-off `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The engine's global perturbed metric view.
    pub fn metric(&self) -> &OverlayMetric<&'q M> {
        &self.metric
    }

    /// Cumulative merge statistics.
    pub fn stats(&self) -> MergeStats {
        self.stats
    }
}

impl<'q, M: Metric> ShardedEngine<'q, M> {
    /// Routes every shard session's scans through an explicit
    /// [`ScanPool`] (builder style) — the env-free route for forcing a
    /// chunk schedule; results are bit-identical for any pool.
    pub fn with_scan_pool(mut self, pool: std::sync::Arc<ScanPool>) -> Self {
        for session in self.sessions.iter_mut().flatten() {
            session.set_scan_pool(std::sync::Arc::clone(&pool));
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::{distributed_greedy, DistributedConfig};
    use crate::session::PerturbationError;
    use msd_metric::DistanceMatrix;
    use msd_submodular::ModularFunction;

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

    fn config(machines: usize, scheme: PartitionScheme) -> ShardedConfig {
        ShardedConfig {
            machines,
            scheme,
            ..ShardedConfig::default()
        }
    }

    #[test]
    fn round_zero_matches_one_shot_distributed_greedy() {
        for seed in 0..6u64 {
            let problem = instance(seed, 36);
            for machines in [1usize, 3, 5] {
                for scheme in [PartitionScheme::RoundRobin, PartitionScheme::Contiguous] {
                    let engine = ShardedEngine::new(&problem, 6, config(machines, scheme));
                    let one_shot = distributed_greedy(
                        &problem,
                        6,
                        DistributedConfig {
                            machines,
                            scheme,
                            greedy: GreedyBConfig::default(),
                        },
                    );
                    assert_eq!(engine.solution(), &one_shot.set[..], "seed {seed}");
                    assert_eq!(engine.proposals(), &one_shot.proposals[..]);
                    assert_eq!(engine.reduce_won(), one_shot.reduce_won);
                    assert_eq!(engine.objective(), one_shot.objective);
                }
            }
        }
    }

    #[test]
    fn strict_ingest_rejects_malformed_batches_without_mutation() {
        let problem = instance(5, 30);
        let mut engine = ShardedEngine::new(&problem, 5, config(3, PartitionScheme::RoundRobin));
        engine
            .ingest(&[SessionPerturbation::Depart { u: 17 }])
            .unwrap();
        let before_solution = engine.solution().to_vec();
        let before_objective = engine.objective().to_bits();
        let before_proposals = engine.proposals().to_vec();
        let cases: Vec<(Vec<SessionPerturbation>, usize)> = vec![
            // NaN distance behind a valid prefix entry.
            (
                vec![
                    SessionPerturbation::SetWeight { u: 0, value: 2.0 },
                    SessionPerturbation::SetDistance {
                        u: 1,
                        v: 2,
                        value: f64::NAN,
                    },
                ],
                1,
            ),
            (
                vec![SessionPerturbation::SetDistance {
                    u: 4,
                    v: 4,
                    value: 1.0,
                }],
                0,
            ),
            (
                vec![SessionPerturbation::SetWeight { u: 99, value: 1.0 }],
                0,
            ),
            (vec![SessionPerturbation::Arrive { u: 3 }], 0), // already resident
            (vec![SessionPerturbation::Depart { u: 17 }], 0), // already gone
            // The sim mask sees the batch's own arrival.
            (
                vec![
                    SessionPerturbation::Arrive { u: 17 },
                    SessionPerturbation::Arrive { u: 17 },
                ],
                1,
            ),
        ];
        for (batch, want_index) in cases {
            let err = engine.ingest(&batch[..]).unwrap_err();
            let SessionError::Rejected { index, .. } = err;
            assert_eq!(index, want_index, "{batch:?}");
            assert_eq!(engine.solution(), &before_solution[..]);
            assert_eq!(engine.objective().to_bits(), before_objective);
            assert_eq!(engine.proposals(), &before_proposals[..]);
        }
        // Valid traffic (including the arrival/departure round-trip the
        // rejected batches circled) still flows, identical to the
        // panicking path.
        let report = engine
            .ingest(&[
                SessionPerturbation::Arrive { u: 17 },
                SessionPerturbation::SetWeight { u: 0, value: 2.0 },
            ])
            .unwrap();
        let _ = report.reduce_ran;
        let err = engine
            .ingest(&[SessionPerturbation::Arrive { u: 17 }])
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::Rejected {
                index: 0,
                error: PerturbationError::DuplicateArrival { u: 17 }
            }
        );
    }

    #[test]
    fn quiet_batch_skips_the_reduce() {
        let problem = instance(3, 30);
        let mut engine = ShardedEngine::new(&problem, 4, config(3, PartitionScheme::RoundRobin));
        // Warm-up: the map-round proposals are greedy output, not
        // swap-stable, so the first batch touching shard 0 may stabilize
        // it (a legitimate dirty round). Poke shard 0 once to settle it.
        let pick_outside = |engine: &ShardedEngine<'_, DistanceMatrix>| {
            (0..30u32)
                .filter(|&u| !engine.union().contains(&u) && engine.shard_of(u) == 0)
                .collect::<Vec<ElementId>>()
        };
        let warm = pick_outside(&engine);
        let d0 = problem.metric().distance(warm[0], warm[1]);
        engine
            .ingest(&[SessionPerturbation::SetDistance {
                u: warm[0],
                v: warm[1],
                value: d0 * 0.5,
            }])
            .unwrap();

        let before = engine.solution().to_vec();
        let runs_before = engine.stats().reduce_runs;
        // Now *lower* a distance between two same-shard elements outside
        // the union: no swap gain can grow and the reduce scope is
        // untouched, so the batch must be quiet.
        let outside = pick_outside(&engine);
        let (a, b) = (outside[2], outside[3]);
        let d = engine.metric().distance(a, b);
        let report = engine
            .ingest(&[SessionPerturbation::SetDistance {
                u: a,
                v: b,
                value: d * 0.5,
            }])
            .unwrap();
        assert!(!report.reduce_ran, "quiet batch must skip the reduce");
        assert!(report.dirty_shards.is_empty());
        assert_eq!(engine.stats().reduce_runs, runs_before);
        assert_eq!(engine.solution(), &before[..]);
    }

    #[test]
    fn union_weight_rewrite_forces_a_reduce() {
        let problem = instance(4, 30);
        let mut engine = ShardedEngine::new(&problem, 4, config(3, PartitionScheme::RoundRobin));
        let runs_before = engine.stats().reduce_runs;
        let target = engine.union()[0];
        let report = engine
            .ingest(&[SessionPerturbation::SetWeight {
                u: target,
                value: 50.0,
            }])
            .unwrap();
        assert!(report.reduce_ran);
        assert_eq!(engine.stats().reduce_runs, runs_before + 1);
        assert!(engine.solution().contains(&target));
    }

    #[test]
    fn departure_of_merged_member_refills_and_remerges() {
        let problem = instance(5, 24);
        let mut engine = ShardedEngine::new(&problem, 4, config(2, PartitionScheme::Contiguous));
        let leaving = engine.solution()[0];
        let report = engine
            .ingest(&[SessionPerturbation::Depart { u: leaving }])
            .unwrap();
        assert!(report.reduce_ran);
        assert!(!engine.solution().contains(&leaving));
        assert_eq!(engine.solution().len(), 4);
    }

    #[test]
    fn parallel_feature_objective_is_consistent() {
        let problem = instance(6, 20);
        let engine = ShardedEngine::new(&problem, 5, config(4, PartitionScheme::RoundRobin));
        // Engine objective must equal re-scoring its solution from scratch.
        let expect = problem.objective(engine.solution());
        assert!((engine.objective() - expect).abs() < 1e-9);
    }

    #[test]
    fn p_zero_engine_is_empty_and_inert() {
        let problem = instance(7, 10);
        let mut engine = ShardedEngine::new(&problem, 0, config(2, PartitionScheme::RoundRobin));
        assert!(engine.solution().is_empty());
        assert_eq!(engine.objective(), 0.0);
        let report = engine
            .ingest(&[SessionPerturbation::SetWeight { u: 3, value: 9.0 }])
            .unwrap();
        assert!(engine.solution().is_empty());
        assert!(!report.reduce_ran);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_rejected() {
        let problem = instance(1, 4);
        let _ = ShardedEngine::new(&problem, 2, config(0, PartitionScheme::RoundRobin));
    }
}
