//! Budgeted ad slotting — the knapsack extension (conclusion's open
//! question) plus streaming arrival, on one instance.
//!
//! An ad exchange picks a diverse, high-quality slate of creatives under a
//! spend budget: each creative has a bid quality, a cost, and an embedding
//! whose pairwise distances measure audience overlap. Two regimes:
//!
//! 1. **offline knapsack** — the partial-enumeration greedy of
//!    `msd-core::knapsack`;
//! 2. **streaming** — creatives arrive one at a time and the slate is
//!    maintained with one swap per arrival, then polished with local
//!    search.
//!
//! ```sh
//! cargo run --release --example budgeted_ads
//! ```

use max_sum_diversification::core::knapsack::{knapsack_diversify, KnapsackConfig};
use max_sum_diversification::prelude::*;

fn main() {
    // 30 creatives in 5 audience segments.
    let n = 30usize;
    let segments = 5usize;
    let mut embeddings = Vec::with_capacity(n);
    let mut quality = Vec::with_capacity(n);
    let mut costs = Vec::with_capacity(n);
    for i in 0..n {
        let seg = i % segments;
        let angle = 2.0 * std::f64::consts::PI * seg as f64 / segments as f64;
        let jitter = (i / segments) as f64 * 0.07;
        embeddings.push(Point::new(vec![angle.cos() + jitter, angle.sin() - jitter]));
        quality.push(0.4 + 0.6 * ((i * 7) % 10) as f64 / 10.0);
        costs.push(0.5 + ((i * 3) % 4) as f64 * 0.5);
    }
    let metric = DistanceMatrix::from_points(&embeddings, |a, b| a.euclidean(b));
    let problem = DiversificationProblem::new(metric, ModularFunction::new(quality), 0.6);
    let budget = 6.0;

    // Offline: knapsack partial-enumeration greedy.
    let offline = knapsack_diversify(&problem, &costs, budget, KnapsackConfig::default());
    println!("offline knapsack slate (budget {budget}):");
    print_slate(&problem, &costs, &offline.set);
    println!(
        "  φ = {:.3}, spend = {:.2}\n",
        offline.objective, offline.cost
    );

    // Streaming: fixed slate size chosen from the offline solve, one swap
    // per arriving creative, then LS polish.
    let p = offline.set.len().max(1);
    let mut stream = CompactStreamingSession::new(&problem, p);
    for e in 0..n as u32 {
        stream.offer(e);
    }
    let streamed = stream.finish();
    let polished = local_search_refine(&problem, &streamed, LocalSearchConfig::default());
    println!("streaming slate (p = {p}, one swap per arrival, then LS polish):");
    print_slate(&problem, &costs, &polished.set);
    println!(
        "  φ = {:.3}  (raw stream φ = {:.3})",
        polished.objective,
        problem.objective(&streamed)
    );
    println!(
        "\nnote: the streaming regime ignores costs (fixed slate size); the knapsack \
         regime ignores arrival order — together they bracket the online problem."
    );
}

fn print_slate(
    problem: &DiversificationProblem<DistanceMatrix, ModularFunction>,
    costs: &[f64],
    set: &[ElementId],
) {
    for &e in set {
        println!(
            "  creative {:>2}  quality={:.2} cost={:.2}",
            e,
            problem.quality().weight(e),
            costs[e as usize]
        );
    }
}
