//! `graph-road`: Section 3 location theory on a road network whose edges
//! change.
//!
//! A fixed `road_like` graph with n = 800 runs under a graph-backed
//! [`DynamicSession`]. Each op is one `try_apply_graph_batch` call with a
//! single edge perturbation, followed by `update_until_stable`. The mix
//! is 80% congestion redraws on the dyadic weight grid, 10% closures and
//! 10% reopenings. A congestion incident raises an edge in one jump and
//! clears in two steps (halfway, then back to its base weight), so a
//! third of the redraws are increases, the kind that can force an
//! all-rows APSP rebuild; the median op then sits well inside the fast
//! mode instead of next to the rebuild cliff. The mix is exact in every
//! block of 30 ops (shuffled within the block), so runs differ in which
//! edges change, not in how many of each kind. Some closures would
//! disconnect the network; the script knows which, and the session must
//! reject exactly those.

use std::collections::BTreeMap;
use std::time::Instant;

use max_sum_diversification::core::{
    greedy_b, DiversificationProblem, DynamicSession, GraphPerturbation, GreedyBConfig,
};
use max_sum_diversification::data::{dyadic_weight, road_like};
use max_sum_diversification::metric::{
    DynamicGraphMetric, EdgePerturbableMetric, ElementId, Metric, WeightedGraph,
};
use max_sum_diversification::submodular::{ModularFunction, SetFunction};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::bound::DistanceProfile;
use crate::stats::{self, Outcome};
use crate::wrappers::TracedGraph;
use crate::{closed_loop, push_end_to_end, push_trace_summary, trace, RunConfig};

const N: usize = 800;
const P: usize = 16;
const LAMBDA: f64 = 1.0;
const MAX_WEIGHT: f64 = 50.0;
/// Seed of the fixed road network and site weights.
const CITY_SEED: u64 = 0x0c17;
/// Untimed warm-up ops; the answers after each are the quality set.
const WARMUP: usize = 16;
/// Ops between sampled objective checks.
const CHECK_EVERY: usize = 16;
const MAX_UPDATES: usize = 256;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Incident,
    Recovery,
    Closure,
    Reopening,
}

/// One block of the op mix: 80% congestion redraws (one incident per two
/// recovery steps), 10% closures and 10% reopenings.
const BLOCK: [(Kind, usize); 4] = [
    (Kind::Incident, 8),
    (Kind::Recovery, 16),
    (Kind::Closure, 3),
    (Kind::Reopening, 3),
];
const SETUP_REPS: usize = 9;
/// Script ops generated per second of timed phase, far more than one
/// core completes; a run that exhausts the script stops early.
const OPS_PER_SECOND: usize = 200;

/// One op of the script.
#[derive(Debug, Clone, Copy)]
struct Op {
    perturbation: GraphPerturbation,
    /// The closure would disconnect the network and must be rejected.
    expect_reject: bool,
}

struct Inputs {
    graph: WeightedGraph,
    quality: ModularFunction,
    script: Vec<Op>,
}

fn key(u: ElementId, v: ElementId) -> (ElementId, ElementId) {
    (u.min(v), u.max(v))
}

/// The network as the script generator tracks it: open edges, their
/// base weights, and the congested ones with their current weights and
/// whether they have recovered halfway yet.
struct Network {
    edges: Vec<(ElementId, ElementId)>,
    adjacency: Vec<Vec<ElementId>>,
    base: BTreeMap<(ElementId, ElementId), f64>,
    congested: BTreeMap<(ElementId, ElementId), (f64, bool)>,
}

impl Network {
    fn new(graph: &WeightedGraph) -> Self {
        // Parallel edges collapse to the lightest, as in the metric.
        let mut base: BTreeMap<(ElementId, ElementId), f64> = BTreeMap::new();
        for &(u, v, w) in graph.edges() {
            let e = base.entry(key(u, v)).or_insert(w);
            *e = e.min(w);
        }
        let mut adjacency = vec![Vec::new(); graph.len()];
        for &(u, v) in base.keys() {
            adjacency[u as usize].push(v);
            adjacency[v as usize].push(u);
        }
        Self {
            edges: base.keys().copied().collect(),
            adjacency,
            base,
            congested: BTreeMap::new(),
        }
    }

    /// A congestion recovery step: a congested edge moves halfway back to
    /// its base weight (on the 1/32 grid), or, when already halfway, back
    /// to it. `None` when nothing is congested.
    fn recovery(&mut self, rng: &mut StdRng) -> Option<GraphPerturbation> {
        if self.congested.is_empty() {
            return None;
        }
        let nth = rng.gen_range(0..self.congested.len());
        let (&(u, v), &(weight, halfway)) = self.congested.iter().nth(nth)?;
        let base = self.base[&(u, v)];
        let weight = if halfway {
            self.congested.remove(&(u, v));
            base
        } else {
            let weight = base + ((weight - base) * 16.0).floor() / 32.0;
            self.congested.insert((u, v), (weight, true));
            weight
        };
        Some(GraphPerturbation::SetEdge { u, v, weight })
    }

    /// A congestion incident: a random uncongested edge rises by a dyadic
    /// amount in [0.5, 2.5).
    fn incident(&mut self, rng: &mut StdRng) -> GraphPerturbation {
        loop {
            let (u, v) = self.edges[rng.gen_range(0..self.edges.len())];
            if self.congested.contains_key(&(u, v)) {
                continue;
            }
            let weight = self.base[&(u, v)] + dyadic_weight(rng);
            self.congested.insert((u, v), (weight, false));
            return GraphPerturbation::SetEdge { u, v, weight };
        }
    }

    /// `true` when `v` stays reachable from `u` without the edge `{u, v}`.
    fn connected_without(&self, u: ElementId, v: ElementId) -> bool {
        let mut seen = vec![false; self.adjacency.len()];
        let mut stack = vec![u];
        seen[u as usize] = true;
        while let Some(x) = stack.pop() {
            for &y in &self.adjacency[x as usize] {
                if key(x, y) == key(u, v) || seen[y as usize] {
                    continue;
                }
                if y == v {
                    return true;
                }
                seen[y as usize] = true;
                stack.push(y);
            }
        }
        false
    }

    fn remove(&mut self, u: ElementId, v: ElementId) {
        self.congested.remove(&key(u, v));
        self.edges.retain(|&e| e != key(u, v));
        self.adjacency[u as usize].retain(|&x| x != v);
        self.adjacency[v as usize].retain(|&x| x != u);
    }

    fn insert(&mut self, u: ElementId, v: ElementId) {
        self.edges.push(key(u, v));
        self.adjacency[u as usize].push(v);
        self.adjacency[v as usize].push(u);
    }
}

fn generate(seed: u64, ops: usize) -> Inputs {
    // The network and its sites are fixed, like one city; the seed drives
    // the traffic. Runs on different seeds then differ in the op script,
    // not in the graph's shape, which sets how often a repair rebuilds.
    let mut city = StdRng::seed_from_u64(CITY_SEED);
    let graph = road_like(city.gen(), N);
    let quality = ModularFunction::new((0..N).map(|_| city.gen_range(0.0..MAX_WEIGHT)).collect());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x60ad_0000);
    let mut network = Network::new(&graph);
    let mut closed: Vec<(ElementId, ElementId)> = Vec::new();
    let mut kinds: Vec<Kind> = Vec::with_capacity(ops);
    while kinds.len() < ops {
        let mut block: Vec<Kind> = BLOCK
            .iter()
            .flat_map(|&(kind, count)| std::iter::repeat_n(kind, count))
            .collect();
        block.shuffle(&mut rng);
        kinds.extend(block);
    }
    kinds.truncate(ops);
    let script = kinds
        .into_iter()
        .map(|kind| match kind {
            Kind::Reopening if !closed.is_empty() => {
                let (u, v) = closed.swap_remove(rng.gen_range(0..closed.len()));
                network.insert(u, v);
                Op {
                    perturbation: GraphPerturbation::SetEdge {
                        u,
                        v,
                        weight: network.base[&(u, v)],
                    },
                    expect_reject: false,
                }
            }
            Kind::Closure => {
                // A quarter of the closures target a least-connected
                // vertex, which sooner or later hangs on a bridge.
                let (u, v) = if rng.gen_bool(0.25) {
                    let min_degree = network.adjacency.iter().map(Vec::len).min().unwrap_or(0);
                    let weakest: Vec<usize> = (0..N)
                        .filter(|&x| network.adjacency[x].len() == min_degree)
                        .collect();
                    let x = weakest[rng.gen_range(0..weakest.len())];
                    let y = network.adjacency[x][rng.gen_range(0..min_degree)];
                    key(x as ElementId, y)
                } else {
                    network.edges[rng.gen_range(0..network.edges.len())]
                };
                let expect_reject = !network.connected_without(u, v);
                if !expect_reject {
                    network.remove(u, v);
                    closed.push((u, v));
                }
                Op {
                    perturbation: GraphPerturbation::RemoveEdge { u, v },
                    expect_reject,
                }
            }
            // A recovery (or reopening) with nothing to recover becomes
            // an incident.
            Kind::Recovery | Kind::Reopening => Op {
                perturbation: match network.recovery(&mut rng) {
                    Some(p) => p,
                    None => network.incident(&mut rng),
                },
                expect_reject: false,
            },
            Kind::Incident => Op {
                perturbation: network.incident(&mut rng),
                expect_reject: false,
            },
        })
        .collect();
    Inputs {
        graph,
        quality,
        script,
    }
}

/// Applies an accepted op to the mirror graph.
fn mirror(graph: &mut WeightedGraph, op: &Op) {
    match op.perturbation {
        GraphPerturbation::SetEdge { u, v, weight } => {
            graph.set_edge(u, v, weight);
        }
        GraphPerturbation::RemoveEdge { u, v } => {
            graph.remove_edge(u, v);
        }
        _ => {}
    }
}

/// φ(S)/UB for the session's current answer.
fn quality_ratio<M: Metric>(session: &DynamicSession<'_, M>, quality: &ModularFunction) -> f64 {
    let all: Vec<ElementId> = (0..N as ElementId).collect();
    let ub = DistanceProfile::new(session.metric(), &all, P - 1).upper_bound(
        |u| quality.singleton(u),
        LAMBDA,
        P,
    );
    session.objective() / ub
}

struct PassResult {
    latencies_ms: Vec<f64>,
    rejected: usize,
    swaps: usize,
}

/// Opens a session on `problem`, runs the warm-up and then the timed
/// ops, and checks the repaired metric at the end. `quality_set`
/// receives φ/UB after each warm-up op. Tracing starts after the warm-up
/// when `traced`.
#[allow(clippy::too_many_arguments)]
fn pass<M: EdgePerturbableMetric + Clone>(
    problem: &DiversificationProblem<M, &ModularFunction>,
    initial: &[ElementId],
    inputs: &Inputs,
    seconds: f64,
    count: Option<usize>,
    traced: bool,
    quality_set: &mut Vec<f64>,
    out: &mut Outcome,
) -> PassResult {
    let mut session = DynamicSession::new(problem, initial);
    let mut graph = inputs.graph.clone();
    let mut result = PassResult {
        latencies_ms: Vec::new(),
        rejected: 0,
        swaps: 0,
    };
    let mut run_op = |i: usize, session: &mut DynamicSession<'_, M>, result: &mut PassResult| {
        let op = &inputs.script[i];
        trace::set_request(i as u32);
        let start = Instant::now();
        let (applied, swaps) = trace::span("session.op", || {
            let applied = session.try_apply_graph_batch(std::slice::from_ref(&op.perturbation));
            let swaps = applied
                .as_ref()
                .map_or(0, |r| usize::from(r.outcome.swap.is_some()));
            (
                applied.is_ok(),
                swaps + session.update_until_stable(MAX_UPDATES - swaps),
            )
        });
        let latency = start.elapsed();
        if applied == op.expect_reject {
            out.failed += 1;
        }
        if applied {
            mirror(&mut graph, op);
        } else {
            result.rejected += 1;
        }
        result.swaps += swaps;
        if i.is_multiple_of(CHECK_EVERY) {
            let solution = session.solution();
            let fresh =
                inputs.quality.value(solution) + LAMBDA * session.metric().dispersion(solution);
            out.check(
                crate::is_distinct_of_size(solution, P)
                    && crate::objective_matches(session.objective(), fresh),
                || {
                    format!(
                        "graph-road op {i}: objective {} but fresh {fresh}",
                        session.objective()
                    )
                },
            );
        }
        latency
    };
    for i in 0..WARMUP {
        run_op(i, &mut session, &mut result);
        quality_set.push(quality_ratio(&session, &inputs.quality));
    }
    result.rejected = 0;
    result.swaps = 0;
    if traced {
        trace::start();
    }
    let (min, max) = count.map_or((1, inputs.script.len() - WARMUP), |k| (k, k));
    result.latencies_ms = closed_loop(seconds, min, max, |k| {
        run_op(WARMUP + k, &mut session, &mut result)
    });
    // The repaired metric must equal a fresh APSP of the mirrored network.
    let fresh = DynamicGraphMetric::from_graph(&graph);
    let same = fresh.as_ref().is_ok_and(|fresh| {
        (0..N as ElementId).all(|u| {
            (u + 1..N as ElementId).all(|v| {
                fresh.distance(u, v).to_bits() == session.metric().distance(u, v).to_bits()
            })
        })
    });
    out.check(same, || {
        "graph-road: repaired metric differs from a fresh APSP".to_string()
    });
    result
}

/// APSP, problem and initial `greedy_b` solution. The session borrows
/// the problem, so [`pass`] opens its own.
fn build<M: Metric>(
    inputs: &Inputs,
    wrap: impl Fn(DynamicGraphMetric) -> M,
) -> (DiversificationProblem<M, &ModularFunction>, Vec<ElementId>) {
    let metric = match DynamicGraphMetric::from_graph(&inputs.graph) {
        Ok(metric) => metric,
        Err(e) => panic!("road_like returned a disconnected graph: {e}"),
    };
    let problem = DiversificationProblem::new(wrap(metric), &inputs.quality, LAMBDA);
    let initial = greedy_b(&problem, P, GreedyBConfig::default());
    (problem, initial)
}

pub fn run(cfg: RunConfig) -> Outcome {
    let ops = WARMUP + (cfg.seconds.ceil() as usize).max(1) * OPS_PER_SECOND;
    let inputs = generate(cfg.seed, ops);
    let mut out = Outcome::default();
    let ((problem, initial), setup_s) = crate::timed_setups(SETUP_REPS, || {
        let (problem, initial) = build(&inputs, |m| m);
        // The session is part of set-up: open one and drop it.
        drop(DynamicSession::new(&problem, &initial));
        (problem, initial)
    });

    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut quality_set = Vec::new();
    let untraced = pass(
        &problem,
        &initial,
        &inputs,
        seconds,
        None,
        false,
        &mut quality_set,
        &mut out,
    );
    let timed = untraced.latencies_ms.len();
    out.attempted = timed as u64;
    let expected: usize = inputs.script[WARMUP..WARMUP + timed]
        .iter()
        .filter(|op| op.expect_reject)
        .count();
    out.check(untraced.rejected == expected, || {
        format!(
            "graph-road: {} closures rejected, script expects {expected}",
            untraced.rejected
        )
    });
    if !cfg.trace {
        push_end_to_end(
            &mut out,
            &untraced.latencies_ms,
            &setup_s,
            stats::mean(&quality_set),
        );
        return out;
    }
    drop(problem);

    // Traced pass over the same ops, on the wrapped metric.
    let (problem, initial) = build(&inputs, TracedGraph);
    let traced = pass(
        &problem,
        &initial,
        &inputs,
        0.0,
        Some(timed),
        true,
        &mut Vec::new(),
        &mut out,
    );
    let spans = trace::stop();
    let layers = spans.layers();
    let per_op = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 / 1e6 / timed as f64)
    };
    let (repair, checkpoint, patch) = (
        per_op("dynamic_graph.repair"),
        per_op("session.checkpoint"),
        per_op("session.op"),
    );
    let repairs = spans.counter("dynamic_graph.repairs");
    out.push("dynamic_graph.repair_ms", repair, "ms");
    out.push(
        "dynamic_graph.rejected",
        spans.counter("dynamic_graph.rejected"),
        "count",
    );
    out.push(
        "dynamic_graph.changed_pairs",
        spans.counter("dynamic_graph.changed_pairs") / timed as f64,
        "count",
    );
    out.push(
        "dynamic_graph.rows_recomputed",
        spans.counter("dynamic_graph.rows_recomputed") / timed as f64,
        "count",
    );
    let rebuilt = if repairs > 0.0 {
        spans.counter("dynamic_graph.rebuilt") / repairs
    } else {
        0.0
    };
    out.push("dynamic_graph.rebuilt_ratio", rebuilt, "ratio");
    out.push("session.patch_ms", patch, "ms");
    out.push("session.checkpoint_ms", checkpoint, "ms");
    out.push(
        "session.swaps_per_op",
        traced.swaps as f64 / timed as f64,
        "count",
    );
    out.check(
        spans.counter("dynamic_graph.rejected") as usize == expected,
        || "graph-road: traced pass rejected a different set of closures".to_string(),
    );
    push_trace_summary(
        &mut out,
        &traced.latencies_ms,
        &untraced.latencies_ms,
        repair + checkpoint + patch,
        spans.spans.len(),
    );
    crate::write_trace(&spans, "graph-road", cfg.seed);
    out
}
