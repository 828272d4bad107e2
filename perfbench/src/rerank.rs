//! `rerank`: Section 7.2 one-shot reranking.
//!
//! Each request takes one of 16 simulated-LETOR pools (1000 documents,
//! 46-dimensional features), builds an implicit cosine [`PointMetric`]
//! with relevance weights, runs [`greedy_b`] and then
//! [`local_search_refine`]. Requests cycle through p ∈ {5, 10, 20} ×
//! λ ∈ {0.2, 1, 3}. No state survives a request, so session, serving and
//! graph code are bypassed.

use std::time::Instant;

use max_sum_diversification::core::{
    greedy_b, local_search_refine, DiversificationProblem, GreedyBConfig, LocalSearchConfig,
};
use max_sum_diversification::data::LetorConfig;
use max_sum_diversification::metric::{ElementId, Metric, PointKernel, PointMetric};
use max_sum_diversification::submodular::ModularFunction;

use crate::bound::DistanceProfile;
use crate::stats::{self, Outcome};
use crate::wrappers::{self, CountingMetric};
use crate::{closed_loop, push_end_to_end, push_trace_summary, trace, RunConfig};

const POOLS: usize = 16;
const PS: [usize; 3] = [5, 10, 20];
const LAMBDAS: [f64; 3] = [0.2, 1.0, 3.0];
/// One round: every pool under every (p, λ).
const ROUND: usize = POOLS * PS.len() * LAMBDAS.len();
const SETUP_REPS: usize = 51;

/// One pool in the form a request reads: row-major features and weights.
struct Pool {
    n: usize,
    dim: usize,
    coords: Vec<f64>,
    weights: Vec<f64>,
}

#[derive(Debug, Clone, Copy)]
struct Request {
    pool: usize,
    p: usize,
    lambda: f64,
}

/// The `i`-th request of the deterministic cycle. Pools and (p, λ) both
/// change on every request (16 and 9 are coprime, so a round of 144 holds
/// every pairing once); a slow spell of the host then hits every
/// configuration alike instead of one block of them.
fn request(i: usize) -> Request {
    let config = i % (PS.len() * LAMBDAS.len());
    Request {
        pool: i % POOLS,
        p: PS[config % PS.len()],
        lambda: LAMBDAS[config / PS.len()],
    }
}

struct Answer {
    set: Vec<ElementId>,
    objective: f64,
    swaps: usize,
}

/// Serves one request, recording layer spans when tracing is on. Returns
/// the answer and the problem it was computed on (for the checks).
fn serve_request<M: Metric>(
    pool: &Pool,
    req: Request,
    wrap: impl FnOnce(PointMetric) -> M,
) -> (Answer, DiversificationProblem<M, ModularFunction>) {
    let problem = trace::span("metric.build", || build_problem(pool, req.lambda, wrap));
    let start = trace::span("greedy", || {
        greedy_b(&problem, req.p, GreedyBConfig::default())
    });
    let refined = trace::span("local_search", || {
        local_search_refine(&problem, &start, LocalSearchConfig::default())
    });
    let answer = Answer {
        set: refined.set,
        objective: refined.objective,
        swaps: refined.swaps,
    };
    (answer, problem)
}

/// Checks one answer: p distinct elements, the reported objective equals
/// a fresh evaluation, and φ ≥ UB/2. Returns φ/UB.
///
/// Theorems 1 and 2 give φ ≥ OPT/2, and UB ≥ OPT, so φ ≥ UB/2 is not a
/// theorem: it is an empirical guard that holds with wide headroom on
/// these pools (see the package README), and a correct answer could fail
/// it only where the bound is loose by close to 2×.
fn check<M: Metric>(
    out: &mut Outcome,
    i: usize,
    req: Request,
    answer: &Answer,
    problem: &DiversificationProblem<M, ModularFunction>,
    ub: f64,
) -> f64 {
    out.check(crate::is_distinct_of_size(&answer.set, req.p), || {
        format!(
            "rerank request {i}: {:?} is not {} distinct elements",
            answer.set, req.p
        )
    });
    let fresh = problem.objective(&answer.set);
    out.check(crate::objective_matches(answer.objective, fresh), || {
        format!(
            "rerank request {i}: objective {} but fresh {fresh}",
            answer.objective
        )
    });
    out.check(answer.objective >= 0.5 * ub * (1.0 - 1e-12), || {
        format!(
            "rerank request {i}: objective {} below UB/2 = {}",
            answer.objective,
            ub / 2.0
        )
    });
    answer.objective / ub
}

/// Certified bounds for every (pool, p, λ), indexed like [`request`]'s cycle.
fn upper_bounds(pools: &[Pool], problems: &[Problem]) -> Vec<f64> {
    let max_k = PS.iter().max().copied().unwrap_or(1) - 1;
    let profiles: Vec<DistanceProfile> = problems
        .iter()
        .map(|problem| {
            let all: Vec<ElementId> = (0..problem.metric().len() as ElementId).collect();
            DistanceProfile::new(problem.metric(), &all, max_k)
        })
        .collect();
    (0..ROUND)
        .map(|i| {
            let req = request(i);
            let weights = &pools[req.pool].weights;
            profiles[req.pool].upper_bound(|u| weights[u as usize], req.lambda, req.p)
        })
        .collect()
}

type Problem = DiversificationProblem<PointMetric, ModularFunction>;

/// The per-pool state a reranker builds: the implicit cosine metric,
/// wrapped by `wrap`, and the problem over it.
fn build_problem<M: Metric>(
    pool: &Pool,
    lambda: f64,
    wrap: impl FnOnce(PointMetric) -> M,
) -> DiversificationProblem<M, ModularFunction> {
    let metric = PointMetric::from_flat(PointKernel::Cosine, pool.n, pool.dim, pool.coords.clone());
    DiversificationProblem::new(
        wrap(metric),
        ModularFunction::new(pool.weights.clone()),
        lambda,
    )
}

pub fn run(cfg: RunConfig) -> Outcome {
    // Inputs: the LETOR pools, generated before anything is timed.
    let letor = LetorConfig::default();
    // flattened into the row-major form requests read.
    let pools: Vec<Pool> = (0..POOLS as u32)
        .map(|q| {
            let q = letor.generate(cfg.seed, q);
            Pool {
                n: q.len(),
                dim: letor.feature_dim,
                coords: q
                    .features
                    .iter()
                    .flat_map(|f| f.coords().iter().copied())
                    .collect(),
                weights: q.relevance.iter().map(|&r| f64::from(r)).collect(),
            }
        })
        .collect();

    // Set-up: each pool's metric and problem.
    let (problems, setup_s) = crate::timed_setups(SETUP_REPS, || {
        pools
            .iter()
            .map(|pool| build_problem(pool, 1.0, |m| m))
            .collect::<Vec<Problem>>()
    });
    let ubs = upper_bounds(&pools, &problems);
    let mut out = Outcome::default();

    // Warm-up round (untimed); its answers are the quality set.
    let mut ratios = Vec::with_capacity(ROUND);
    for i in 0..ROUND {
        let req = request(i);
        let (answer, problem) = serve_request(&pools[req.pool], req, |m| m);
        ratios.push(check(&mut out, i, req, &answer, &problem, ubs[i % ROUND]));
    }
    let quality = stats::mean(&ratios);

    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let untraced = closed_loop(seconds, 1, usize::MAX, |k| {
        let i = ROUND + k;
        let req = request(i);
        let start = Instant::now();
        let (answer, problem) = serve_request(&pools[req.pool], req, |m| m);
        let latency = start.elapsed();
        check(&mut out, i, req, &answer, &problem, ubs[i % ROUND]);
        latency
    });
    out.attempted = untraced.len() as u64;
    if !cfg.trace {
        push_end_to_end(&mut out, &untraced, &setup_s, quality);
        return out;
    }

    // Traced pass over the same requests.
    let requests = untraced.len();
    let mut reads = 0u64;
    let mut swaps = 0usize;
    wrappers::take_distance_reads();
    trace::start();
    let traced = closed_loop(0.0, requests, requests, |k| {
        let i = ROUND + k;
        let req = request(i);
        trace::set_request(i as u32);
        let start = Instant::now();
        let (answer, problem) = serve_request(&pools[req.pool], req, CountingMetric);
        let latency = start.elapsed();
        reads += wrappers::take_distance_reads();
        swaps += answer.swaps;
        check(&mut out, i, req, &answer, &problem, ubs[i % ROUND]);
        wrappers::take_distance_reads();
        latency
    });
    let spans = trace::stop();
    let layers = spans.layers();
    let per_request = |name: &str| -> f64 {
        layers
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 / 1e6 / requests as f64)
    };
    let (build, greedy, local) = (
        per_request("metric.build"),
        per_request("greedy"),
        per_request("local_search"),
    );
    out.push("metric.build_ms", build, "ms");
    out.push(
        "metric.distance_reads",
        reads as f64 / requests as f64,
        "count",
    );
    out.push("greedy.ms", greedy, "ms");
    out.push("local_search.ms", local, "ms");
    out.push(
        "local_search.swaps",
        swaps as f64 / requests as f64,
        "count",
    );
    push_trace_summary(
        &mut out,
        &traced,
        &untraced,
        build + greedy + local,
        spans.spans.len(),
    );
    crate::write_trace(&spans, "rerank", cfg.seed);
    out
}
