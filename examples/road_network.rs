//! Diverse depot placement on a live road network.
//!
//! The location-theory setting of the paper (Section 3): the metric is
//! *induced* by a network — here a road-like grid with highway shortcuts
//! — and the realistic perturbation is an **edge-weight change** (a road
//! gets congested, a highway reopens), which moves many shortest-path
//! distances at once.
//!
//! The example maintains a set of `p` depots maximizing quality +
//! λ·dispersion through a graph-backed `DynamicSession`: every traffic
//! update flows through `DynamicGraphMetric::set_edge`'s incremental
//! APSP repair (never a Floyd–Warshall rebuild), its changed pairs are
//! patched into the session's gain caches in O(Δ), and one oblivious
//! swap keeps the placement locally optimal.
//!
//! ```sh
//! cargo run --release --example road_network
//! ```

use max_sum_diversification::data::graphs::road_like;
use max_sum_diversification::prelude::*;

fn main() {
    let n = 400;
    let p = 8;
    let graph = road_like(42, n);
    let metric = DynamicGraphMetric::from_graph(&graph).expect("road grids are connected");
    println!(
        "road network: {} junctions, {} road segments, APSP materialized",
        n,
        metric.num_edges()
    );

    // Depot quality: a deterministic "demand" score per junction.
    let weights: Vec<f64> = (0..n)
        .map(|i| 0.5 + 0.5 * ((i as f64 * 0.7173).sin().abs()))
        .collect();
    let problem = DiversificationProblem::new(metric, ModularFunction::new(weights), 0.05);
    let init = greedy_b(&problem, p, GreedyBConfig::default());
    let mut session = DynamicSession::new(&problem, &init);
    session.update_until_stable(4 * p);
    println!(
        "initial depots {:?}  objective {:.2}\n",
        session.solution(),
        session.objective()
    );

    // Rush hour: a burst of congestion updates on the depots' access
    // roads, ingested as one batch (at most one swap scan), then
    // stabilized.
    let edges = problem.metric().edges();
    let burst: Vec<GraphPerturbation> = edges
        .iter()
        .filter(|&&(u, v, _)| session.contains(u) || session.contains(v))
        .take(12)
        .map(|&(u, v, w)| GraphPerturbation::SetEdge {
            u,
            v,
            weight: w * 4.0,
        })
        .collect();
    let report = session
        .try_apply_graph_batch(&burst)
        .expect("congestion never disconnects");
    session.update_until_stable(4 * p);
    println!(
        "rush hour: {} edge updates ingested, scan extent {:?}, swap {:?}",
        report.ingested, report.scan, report.outcome.swap
    );
    println!(
        "depots now {:?}  objective {:.2}\n",
        session.solution(),
        session.objective()
    );

    // A highway reopens across the map: one big decrease, repaired
    // incrementally; the report tells exactly how many distances moved.
    let (hu, hv) = (3u32, (n - 7) as u32);
    let before = session.metric().matrix().mean_distance();
    let update = session
        .try_apply_graph_batch(&[GraphPerturbation::SetEdge {
            u: hu,
            v: hv,
            weight: 0.25,
        }])
        .expect("adding a road never disconnects");
    session.update_until_stable(4 * p);
    println!(
        "highway {hu}-{hv} opened: mean distance {:.3} -> {:.3}, scan {:?}",
        before,
        session.metric().matrix().mean_distance(),
        update.scan
    );
    println!(
        "final depots {:?}  objective {:.2}",
        session.solution(),
        session.objective()
    );
}
