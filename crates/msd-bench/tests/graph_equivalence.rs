//! Equivalence suite for the dynamic graph metric and the graph-backed
//! session (the edge-update perturbation model).
//!
//! Two bit-identity contracts are pinned here, both on **dyadic** edge
//! weights (multiples of 1/32, so every shortest-path sum is exact in
//! `f64` and "equal" means *bit-identical*, ties included):
//!
//! * **repair ≡ rebuild** — after every edge update of a random script
//!   (decreases, increases, insertions, removals, zero weights,
//!   rejected disconnections), `DynamicGraphMetric`'s incrementally
//!   repaired APSP matrix equals a from-scratch Floyd–Warshall rebuild
//!   of an identically-mutated [`WeightedGraph`] mirror, entry for
//!   entry.
//! * **session-over-graph ≡ naive stabilization** — a
//!   [`DynamicSession`] driven by [`GraphPerturbation`]s (whose caches
//!   are patched from the metric's [`EdgeUpdateReport`]s in O(Δ))
//!   chooses, swap for swap, what the slice-recomputing naive reference
//!   chooses against the Floyd–Warshall-rebuilt twin — per update and
//!   for whole bursts through `try_apply_graph_batch`, serial and (with
//!   `--features parallel`, forced chunking via `MSD_PARALLEL_THREADS`)
//!   parallel.

use msd_bench::naive::session_stabilize_naive;
use msd_core::{
    greedy_b, DiversificationProblem, DynamicSession, ElementId, GraphPerturbation, GreedyBConfig,
};
use msd_metric::{
    DynamicGraphMetric, EdgePerturbableMetric, Metric, RepairStrategy, WeightedGraph,
};
use msd_submodular::ModularFunction;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random connected graph on the dyadic weight grid: spanning path +
/// random chords (denser than the bench generators, so removals often
/// succeed and still often reroute).
fn random_graph(rng: &mut StdRng, n: usize, extra_edges: usize) -> WeightedGraph {
    let mut g = WeightedGraph::new(n);
    for i in 1..n {
        let w = rng.gen_range(8..96) as f64 / 32.0;
        g.add_edge((i - 1) as u32, i as u32, w);
    }
    for _ in 0..extra_edges {
        let u = rng.gen_range(0..n) as u32;
        let mut v = rng.gen_range(0..n) as u32;
        while v == u {
            v = rng.gen_range(0..n) as u32;
        }
        let w = rng.gen_range(8..96) as f64 / 32.0;
        g.set_edge(u, v, w);
    }
    g
}

/// One random edge operation drawn against the metric's current edge
/// set: weight redraw (60%, including zero weights), insertion (15%),
/// removal (25%).
fn random_op(rng: &mut StdRng, metric: &DynamicGraphMetric) -> GraphPerturbation {
    let edges = metric.edges();
    let n = metric.len();
    let roll = rng.gen_range(0..100u32);
    if roll < 60 && !edges.is_empty() {
        let (u, v, _) = edges[rng.gen_range(0..edges.len())];
        GraphPerturbation::SetEdge {
            u,
            v,
            weight: rng.gen_range(0..96) as f64 / 32.0,
        }
    } else if roll < 75 || edges.is_empty() {
        let u = rng.gen_range(0..n) as u32;
        let mut v = rng.gen_range(0..n) as u32;
        while v == u {
            v = rng.gen_range(0..n) as u32;
        }
        GraphPerturbation::SetEdge {
            u,
            v,
            weight: rng.gen_range(8..96) as f64 / 32.0,
        }
    } else {
        let (u, v, _) = edges[rng.gen_range(0..edges.len())];
        GraphPerturbation::RemoveEdge { u, v }
    }
}

fn rebuilt(mirror: &WeightedGraph) -> msd_metric::DistanceMatrix {
    mirror
        .shortest_path_metric()
        .expect("mirror stays connected")
}

/// Draws a burst of `k` edge operations valid *in sequence*: each op is
/// validated against a probe clone carrying the earlier ops, so a
/// removal never disconnects mid-burst (the session and the mirror stay
/// in lockstep).
fn draw_burst(rng: &mut StdRng, start: &DynamicGraphMetric, k: usize) -> Vec<GraphPerturbation> {
    let mut probe = start.clone();
    let mut burst = Vec::new();
    while burst.len() < k {
        let op = random_op(rng, &probe);
        match op {
            GraphPerturbation::SetEdge { u, v, weight } => {
                probe.set_edge(u, v, weight).expect("set_edge never fails");
                burst.push(op);
            }
            GraphPerturbation::RemoveEdge { u, v } => {
                if probe.remove_edge(u, v).is_ok() {
                    burst.push(op);
                }
            }
            _ => unreachable!("random_op only draws edge operations"),
        }
    }
    burst
}

#[test]
fn repair_matches_floyd_warshall_rebuild_bit_for_bit() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(977) + 5);
        let n = 24 + (seed as usize % 3) * 9;
        let mut mirror = random_graph(&mut rng, n, n);
        let mut metric = DynamicGraphMetric::from_graph(&mirror).expect("connected by the path");
        assert_eq!(
            metric.matrix().triangle(),
            rebuilt(&mirror).triangle(),
            "seed {seed}: construction diverged"
        );
        let mut removals_rejected = 0usize;
        for step in 0..120 {
            match random_op(&mut rng, &metric) {
                GraphPerturbation::SetEdge { u, v, weight } => {
                    let report = metric.set_edge(u, v, weight).expect("set_edge never fails");
                    mirror.set_edge(u, v, weight);
                    // The report's old values must be the pre-update
                    // distances and its new values the post-update ones.
                    for c in &report.changed {
                        assert_ne!(c.old, c.new, "seed {seed} step {step}: no-op reported");
                        assert_eq!(
                            metric.distance(c.u, c.v),
                            c.new,
                            "seed {seed} step {step}: report inconsistent"
                        );
                    }
                }
                GraphPerturbation::RemoveEdge { u, v } => match metric.remove_edge(u, v) {
                    Ok(_) => {
                        mirror.remove_edge(u, v);
                    }
                    Err(_) => {
                        // Rejected: the metric must be untouched (the
                        // mirror was not mutated, so the comparison below
                        // asserts exactly that).
                        removals_rejected += 1;
                        assert_eq!(
                            metric.edge_weight(u, v),
                            mirror
                                .edges()
                                .iter()
                                .filter(|&&(a, b, _)| (a, b) == (u, v) || (a, b) == (v, u))
                                .map(|&(_, _, w)| w)
                                .fold(None, |acc: Option<f64>, w| Some(
                                    acc.map_or(w, |a| a.min(w))
                                )),
                            "seed {seed} step {step}: rejected removal mutated the edge"
                        );
                    }
                },
                _ => unreachable!("random_op only draws edge operations"),
            }
            assert_eq!(
                metric.matrix().triangle(),
                rebuilt(&mirror).triangle(),
                "seed {seed} step {step}: repaired matrix diverged from rebuild"
            );
        }
        assert!(
            removals_rejected < 120,
            "seed {seed}: the script never exercised successful ops"
        );
    }
}

/// Rows whose old shortest path to one endpoint of `{u, v}` runs over
/// the edge at weight `w`. An increase with more than n/2 of them is the
/// heavy case a row-granular repair would hand to an all-rows rebuild.
fn edge_using_rows(metric: &DynamicGraphMetric, u: ElementId, v: ElementId, w: f64) -> usize {
    (0..metric.len() as ElementId)
        .filter(|&i| {
            let (a, b) = (metric.distance(i, u), metric.distance(i, v));
            a + w == b || b + w == a
        })
        .count()
}

#[test]
fn repair_strategies_cover_all_branches() {
    // A long script on a sparse graph must hit every repair strategy —
    // the equivalence above is only meaningful if decreases, rescans,
    // untouched updates and increases crossing more than half the rows
    // all actually ran.
    let mut rng = StdRng::seed_from_u64(31337);
    let mut mirror = random_graph(&mut rng, 40, 12);
    let mut metric = DynamicGraphMetric::from_graph(&mirror).unwrap();
    let (mut relaxed, mut rescanned, mut heavy, mut untouched) = (0, 0, 0, 0);
    for step in 0..400 {
        if let GraphPerturbation::SetEdge { u, v, weight } = random_op(&mut rng, &metric) {
            let heavy_increase = metric.edge_weight(u, v).is_some_and(|old| {
                weight > old && edge_using_rows(&metric, u, v, old) * 2 > metric.len()
            });
            let report = metric.set_edge(u, v, weight).unwrap();
            mirror.set_edge(u, v, weight);
            match report.strategy {
                RepairStrategy::Relaxed { .. } => relaxed += 1,
                RepairStrategy::Rescanned { .. } => rescanned += 1,
                RepairStrategy::Rebuilt => panic!("step {step}: no repair rebuilds every row"),
                RepairStrategy::Untouched => untouched += 1,
            }
            if heavy_increase {
                heavy += 1;
                assert_eq!(
                    metric.matrix().triangle(),
                    rebuilt(&mirror).triangle(),
                    "step {step}: heavy increase diverged from rebuild"
                );
            }
        }
    }
    assert!(relaxed > 0, "no decrease was relaxed");
    assert!(rescanned > 0, "no increase was rescanned");
    assert!(heavy > 0, "no increase crossed more than half the rows");
    assert!(untouched > 0, "no irrelevant update was skipped");
}

#[test]
fn degenerate_graphs() {
    // n = 1: a metric with no pairs, no edges to update.
    let metric = DynamicGraphMetric::from_graph(&WeightedGraph::new(1)).unwrap();
    assert_eq!(metric.len(), 1);
    assert_eq!(metric.distance(0, 0), 0.0);
    // n = 2 over a single bridge: weight moves repair the one pair,
    // removal must be rejected with the state intact.
    let mut g = WeightedGraph::new(2);
    g.add_edge(0, 1, 1.5);
    let mut metric = DynamicGraphMetric::from_graph(&g).unwrap();
    metric.set_edge(0, 1, 0.0).unwrap(); // zero-weight edges are legal
    assert_eq!(metric.distance(0, 1), 0.0);
    metric.set_edge(0, 1, 2.25).unwrap();
    assert_eq!(metric.distance(0, 1), 2.25);
    let err = metric.remove_edge(0, 1).unwrap_err();
    assert_eq!(
        err,
        msd_metric::EdgeUpdateError::Disconnected(msd_metric::DisconnectedGraph { u: 0, v: 1 })
    );
    assert_eq!(metric.distance(0, 1), 2.25);
    assert_eq!(metric.num_edges(), 1);
}

/// Dyadic modular quality so every objective/gain sum is exact and the
/// session-vs-naive comparison is bit-for-bit even on ties.
fn dyadic_quality(rng: &mut StdRng, n: usize) -> ModularFunction {
    ModularFunction::new((0..n).map(|_| rng.gen_range(0..64) as f64 / 64.0).collect())
}

/// Drives `steps` random edge operations through a graph-backed session
/// and, in lockstep, through the naive reference (Floyd–Warshall rebuild
/// of the mirrored graph + slice-recomputed stabilization); asserts
/// identical swaps and solutions at every step. `batch_size > 1` groups
/// the operations into `try_apply_graph_batch` bursts followed by
/// stabilization, against the deferred-ingestion naive stabilization.
fn assert_graph_session_matches_naive(seed: u64, n: usize, p: usize, steps: usize, batch: usize) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(131) + 17);
    let mut mirror = random_graph(&mut rng, n, n / 2);
    let metric = DynamicGraphMetric::from_graph(&mirror).expect("connected");
    let quality = dyadic_quality(&mut rng, n);
    let lambda = 0.25;
    let problem = DiversificationProblem::new(metric, quality.clone(), lambda);
    let init = greedy_b(&problem, p, GreedyBConfig::default());
    let mut session = DynamicSession::new(&problem, &init);
    session.update_until_stable(8 * p);
    let active = vec![true; n];
    let mut sol = session.solution().to_vec();
    {
        // Align the naive twin with the session's stabilized start.
        let start = DiversificationProblem::new(rebuilt(&mirror), quality.clone(), lambda);
        session_stabilize_naive(&start, &active, &mut sol, 8 * p);
        assert_eq!(session.solution(), &sol[..], "seed {seed}: start diverged");
    }
    let mut performed = 0usize;
    while performed < steps {
        let burst = draw_burst(&mut rng, session.metric(), batch.min(steps - performed));
        performed += burst.len();
        for &op in &burst {
            match op {
                GraphPerturbation::SetEdge { u, v, weight } => {
                    mirror.set_edge(u, v, weight);
                }
                GraphPerturbation::RemoveEdge { u, v } => {
                    mirror.remove_edge(u, v);
                }
                _ => unreachable!(),
            }
        }
        let report = session
            .try_apply_graph_batch(&burst)
            .expect("disconnecting removals are filtered");
        let twin = DiversificationProblem::new(rebuilt(&mirror), quality.clone(), lambda);
        // The session's swaps: the batch's (at most one) plus the
        // stabilization tail; the reference stabilizes the twin from the
        // shared pre-batch solution.
        let mut session_swaps: Vec<(ElementId, ElementId)> = Vec::new();
        session_swaps.extend(report.outcome.swap);
        while let Some(swap) = {
            let outcome = session.step();
            outcome.swap
        } {
            session_swaps.push(swap);
        }
        let naive_swaps = session_stabilize_naive(&twin, &active, &mut sol, 16 * p);
        assert_eq!(
            session_swaps, naive_swaps,
            "seed {seed} after {performed} ops: swap sequence diverged"
        );
        assert_eq!(
            session.solution(),
            &sol[..],
            "seed {seed} after {performed} ops: solution diverged"
        );
        // And the metric itself stayed bit-identical to the rebuild.
        assert_eq!(
            session.metric().matrix().triangle(),
            twin.metric().triangle(),
            "seed {seed} after {performed} ops: metric diverged"
        );
        let direct = twin.objective(session.solution());
        assert!(
            (session.objective() - direct).abs() < 1e-9,
            "seed {seed}: cached objective drifted"
        );
    }
}

#[test]
fn graph_session_matches_naive_per_update() {
    for seed in 0..4u64 {
        assert_graph_session_matches_naive(seed, 26, 5, 40, 1);
    }
}

#[test]
fn graph_session_matches_naive_in_bursts() {
    for seed in 0..3u64 {
        assert_graph_session_matches_naive(seed + 100, 30, 6, 48, 8);
    }
}

mod parallel {
    use super::*;
    use msd_core::ScanPool;
    use std::sync::Arc;

    /// The burst driver again through a `DynamicSession` on a forced
    /// 4-thread pool (chunked scans): swaps, solutions and matrices must
    /// stay bit-identical to the naive reference — hence to the serial
    /// session.
    #[test]
    fn parallel_graph_session_matches_naive() {
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(131) + 900);
            let n = 28;
            let p = 5;
            let mut mirror = random_graph(&mut rng, n, n / 2);
            let metric = DynamicGraphMetric::from_graph(&mirror).expect("connected");
            let quality = dyadic_quality(&mut rng, n);
            let problem = DiversificationProblem::new(metric, quality.clone(), 0.25);
            let init = greedy_b(&problem, p, GreedyBConfig::default());
            let mut session =
                DynamicSession::new(&problem, &init).with_scan_pool(Arc::new(ScanPool::new(4)));
            session.update_until_stable(8 * p);
            let active = vec![true; n];
            let mut sol = session.solution().to_vec();
            let start = DiversificationProblem::new(rebuilt(&mirror), quality.clone(), 0.25);
            session_stabilize_naive(&start, &active, &mut sol, 8 * p);
            assert_eq!(session.solution(), &sol[..]);
            for round in 0..6 {
                let burst = draw_burst(&mut rng, session.metric(), 6);
                for &op in &burst {
                    match op {
                        GraphPerturbation::SetEdge { u, v, weight } => {
                            mirror.set_edge(u, v, weight);
                        }
                        GraphPerturbation::RemoveEdge { u, v } => {
                            mirror.remove_edge(u, v);
                        }
                        _ => unreachable!(),
                    }
                }
                let report = session.try_apply_graph_batch(&burst).expect("filtered");
                let twin = DiversificationProblem::new(rebuilt(&mirror), quality.clone(), 0.25);
                let mut session_swaps: Vec<(ElementId, ElementId)> = Vec::new();
                session_swaps.extend(report.outcome.swap);
                loop {
                    let outcome = session.step();
                    match outcome.swap {
                        Some(swap) => session_swaps.push(swap),
                        None => break,
                    }
                }
                let naive_swaps = session_stabilize_naive(&twin, &active, &mut sol, 16 * p);
                assert_eq!(
                    session_swaps, naive_swaps,
                    "seed {seed} round {round}: parallel swaps diverged"
                );
                assert_eq!(session.solution(), &sol[..], "seed {seed} round {round}");
            }
        }
    }
}
