//! Maintaining a diverse selection over a 200 000-document corpus —
//! past the `n²` memory wall.
//!
//! A dense [`DistanceMatrix`] at `n = 200 000` would need
//! `n(n-1)/2 ≈ 2·10¹⁰` doubles (~160 GB): the classic quadratic wall.
//! This example never materializes it. Documents live as embedding
//! points in an implicit [`PointMetric`] (cosine kernel, `O(n·dim)`
//! memory), and the selection is maintained by the persistent
//! [`ShardedEngine`]: the ground set is partitioned across shards, each
//! shard keeps a live `DynamicSession` (the paper's Section 6 dynamic
//! updates) across perturbation batches, and the two-round distributed
//! greedy's reduce is re-run **incrementally** — only when a shard's
//! proposal set changed or a perturbation touched the proposal union.
//!
//! The run prints per-round merge statistics: how many shards were
//! perturbed, how many turned *dirty* (proposal changed), whether the
//! reduce ran at all, and the reduce scope (union size — the entire
//! re-merge works on ~`machines·p` elements, never on `n`).
//!
//! ```sh
//! cargo run --release --example sharded_corpus
//! ```

use max_sum_diversification::prelude::*;

/// Deterministic pseudo-random stream (keeps the example dependency-free
/// and its output reproducible).
struct XorShift(u64);

impl XorShift {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
    fn next_range(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }
}

fn main() {
    let n = 200_000;
    let dim = 8;
    let p = 24;
    let machines = 16;

    // Implicit embedding corpus: 200k documents, 8-dim, cosine distance.
    // Resident metric state is the coordinate table — 12.8 MB, vs the
    // ~160 GB a dense matrix would take.
    let mut rng = XorShift(0x5EED_CAFE);
    let coords: Vec<f64> = (0..n * dim).map(|_| rng.next_f64()).collect();
    let weights: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
    let metric = PointMetric::from_flat(PointKernel::Cosine, n, dim, coords);
    let problem = DiversificationProblem::new(metric, ModularFunction::new(weights), 0.4);
    println!(
        "corpus: n = {n}, dim = {dim}; implicit metric resident state {:.1} MB \
         (dense matrix would be {:.0} GB)",
        (n * dim * 8) as f64 / 1e6,
        (n * (n - 1) / 2 * 8) as f64 / 1e9,
    );

    // Build: one-shot distributed greedy (map round per shard) plus one
    // persistent session per shard, then the first merge.
    let t0 = std::time::Instant::now();
    let mut engine = ShardedEngine::new(
        &problem,
        p,
        ShardedConfig {
            machines,
            scheme: PartitionScheme::RoundRobin,
            greedy: GreedyBConfig::default(),
            max_updates: 256,
        },
    );
    println!(
        "engine up in {:.2?}: {} shards, merged |S| = {}, objective {:.3}, reduce_won = {}\n",
        t0.elapsed(),
        engine.shards(),
        engine.solution().len(),
        engine.objective(),
        engine.reduce_won(),
    );

    // The perturbation stream interleaves two realistic regimes. *Hot*
    // rounds rewrite weights/distances of current proposals (rankings
    // shift, documents get re-scored) — these dirty shards and force
    // re-merges. *Background* rounds are bulk churn: re-scores and
    // similarity tweaks of rank-and-file documents too weak to displace
    // any proposal — the engine proves the merge redundant and skips the
    // reduce outright (the `skip` rows below do zero merge work).
    println!("round  perturbed  dirty  reduce  scope  swaps  objective");
    for round in 0..12 {
        let union = engine.union().to_vec();
        let hot_round = round % 3 == 0;
        let batch: Vec<SessionPerturbation> = (0..24)
            .map(|_| {
                if hot_round && !union.is_empty() && rng.next_range(2) == 0 {
                    let u = union[rng.next_range(union.len())];
                    if rng.next_range(2) == 0 {
                        SessionPerturbation::SetWeight {
                            u,
                            value: rng.next_f64(),
                        }
                    } else {
                        let mut v = rng.next_range(n) as ElementId;
                        while v == u {
                            v = rng.next_range(n) as ElementId;
                        }
                        SessionPerturbation::SetDistance {
                            u,
                            v,
                            value: 0.25 + rng.next_f64(),
                        }
                    }
                } else if rng.next_range(10) < 7 {
                    // Background re-score: weights low enough that no
                    // outsider overtakes a maintained proposal.
                    SessionPerturbation::SetWeight {
                        u: rng.next_range(n) as ElementId,
                        value: 0.3 * rng.next_f64(),
                    }
                } else {
                    // Background similarity tweak: pull a random pair
                    // *closer* — shrinking gains never breaks stability.
                    let u = rng.next_range(n) as ElementId;
                    let mut v = rng.next_range(n) as ElementId;
                    while v == u {
                        v = rng.next_range(n) as ElementId;
                    }
                    SessionPerturbation::SetDistance {
                        u,
                        v,
                        value: 0.01 + 0.04 * rng.next_f64(),
                    }
                }
            })
            .collect();
        let report = engine.ingest(&batch).expect("well-formed batch");
        println!(
            "{round:>5}  {:>9}  {:>5}  {:>6}  {:>5}  {:>5}  {:.3}",
            report.perturbed_shards,
            report.dirty_shards.len(),
            if report.reduce_ran { "ran" } else { "skip" },
            report.reduce_scope,
            report.swaps,
            report.objective,
        );
    }

    let stats = engine.stats();
    println!(
        "\nmerge stats: {} rounds, {} reduce runs (incl. build) — \
         {} rounds merged with zero reduce work; last scope {} of n = {n}",
        stats.rounds,
        stats.reduce_runs,
        stats.rounds - (stats.reduce_runs - 1),
        stats.last_reduce_scope,
    );
}
