//! End-to-end and per-layer benchmark of the max-sum diversification
//! workspace.
//!
//! Three serial workloads, one per kind of caller of Borodin–Lee–Ye's
//! algorithms:
//!
//! * [`rerank`] — one-shot Section 7.2 reranking (Greedy B + Theorem 2
//!   local search over an implicit cosine metric);
//! * [`serve`] — a multi-tenant [`ServingFrontend`] answering queries
//!   while weights, distances and availability change (Section 6);
//! * [`graph_road`] — a graph-backed dynamic session over a road network
//!   whose edges change (Section 3).
//!
//! Every workload runs closed-loop on one thread, from a seed, with an
//! untimed warm-up round first. Everything is measured from outside the
//! library: end-to-end timings wrap the public call a user makes, and the
//! traced run wraps calls into each layer (see [`trace`] and
//! [`wrappers`]).
//!
//! [`ServingFrontend`]: max_sum_diversification::core::ServingFrontend

pub mod bound;
pub mod graph_road;
pub mod rerank;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod wrappers;

use std::time::{Duration, Instant};

use stats::Outcome;

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
}

/// Workload names, as given to `--workload`.
pub const WORKLOADS: &[&str] = &["rerank", "serve", "graph-road"];

/// End-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("quality_ratio", "ratio"),
];

/// Per-layer metrics every traced run reports, with units. A workload
/// reports 0 for a layer it bypasses. Layer times are self times per
/// request, except `serving.submit_us` (per call) and the per-class
/// latency percentiles.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("metric.build_ms", "ms"),
    ("metric.distance_reads", "count"),
    ("greedy.ms", "ms"),
    ("local_search.ms", "ms"),
    ("local_search.swaps", "count"),
    ("serving.submit_us", "us"),
    ("serving.rejected_flushes", "count"),
    ("serving.read_p50_ms", "ms"),
    ("serving.read_p90_ms", "ms"),
    ("serving.write1_p50_ms", "ms"),
    ("serving.write1_p90_ms", "ms"),
    ("serving.write8_p50_ms", "ms"),
    ("serving.write8_p90_ms", "ms"),
    ("serving.write32_p50_ms", "ms"),
    ("serving.write32_p90_ms", "ms"),
    ("session.ingest_ms", "ms"),
    ("session.stabilize_ms", "ms"),
    ("session.checkpoint_ms", "ms"),
    ("session.scan_skipped_ratio", "ratio"),
    ("session.scan_column_ratio", "ratio"),
    ("session.scan_cached_ratio", "ratio"),
    ("session.scan_full_ratio", "ratio"),
    ("session.swaps_per_query", "count"),
    ("session.refills_per_query", "count"),
    ("metric.row_kernel_calls", "count"),
    ("metric.row_kernel_ms", "ms"),
    ("metric.overlay_pairs_start", "count"),
    ("metric.overlay_pairs", "count"),
    ("dynamic_graph.repair_ms", "ms"),
    ("dynamic_graph.rejected", "count"),
    ("dynamic_graph.changed_pairs", "count"),
    ("dynamic_graph.rows_recomputed", "count"),
    ("dynamic_graph.rebuilt_ratio", "ratio"),
    ("session.patch_ms", "ms"),
    ("session.swaps_per_op", "count"),
    ("trace.e2e_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.remainder_ms", "ms"),
    ("trace.spans", "count"),
];

/// Runs workload `name`, or `None` for an unknown name.
pub fn run_workload(name: &str, cfg: RunConfig) -> Option<Outcome> {
    let mut outcome = match name {
        "rerank" => rerank::run(cfg),
        "serve" => serve::run(cfg),
        "graph-road" => graph_road::run(cfg),
        _ => return None,
    };
    let wanted = if cfg.trace { PER_LAYER } else { END_TO_END };
    for m in &outcome.metrics {
        assert!(
            wanted.iter().any(|&(n, u)| n == m.name && u == m.unit),
            "{name} reported undeclared metric {} [{}]",
            m.name,
            m.unit
        );
    }
    // Bypassed layers read 0, in the declared order.
    let reported = std::mem::take(&mut outcome.metrics);
    for &(metric, unit) in wanted {
        match reported.iter().find(|m| m.name == metric) {
            Some(m) => outcome.metrics.push(m.clone()),
            None => outcome.push(metric, 0.0, unit),
        }
    }
    Some(outcome)
}

/// Runs `setup` `reps` times (at least once), returning the last result
/// and every set-up time in seconds.
pub fn timed_setups<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        let value = setup();
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    let Some(value) = last else {
        unreachable!("at least one set-up ran")
    };
    (value, times)
}

/// Closed loop: calls `request(i)` for `i = 0, 1, …` until `seconds` of
/// wall time have passed and at least `min` requests ran, or `max`
/// requests ran. Each call returns its own latency (work it does after
/// the answer, such as checks, stays out of it). Returns the latencies in
/// milliseconds.
pub fn closed_loop(
    seconds: f64,
    min: usize,
    max: usize,
    mut request: impl FnMut(usize) -> Duration,
) -> Vec<f64> {
    let start = Instant::now();
    let mut latencies = Vec::new();
    while latencies.len() < max
        && (latencies.len() < min || start.elapsed().as_secs_f64() < seconds)
    {
        let latency = request(latencies.len());
        latencies.push(latency.as_secs_f64() * 1e3);
    }
    latencies
}

/// Pushes the six end-to-end metrics of an untraced run.
pub fn push_end_to_end(out: &mut Outcome, latencies_ms: &[f64], setup_s: &[f64], quality: f64) {
    let n = latencies_ms.len();
    out.push_sampled("p50_ms", stats::median(latencies_ms), "ms", n);
    out.push_sampled("p90_ms", stats::percentile(latencies_ms, 0.9), "ms", n);
    // Closed loop with one client: completed per busy second = 1 / mean.
    let busy_s: f64 = latencies_ms.iter().sum::<f64>() / 1e3;
    out.push_sampled("throughput_rps", n as f64 / busy_s, "1/s", n);
    out.push_sampled("setup_s", stats::median(setup_s), "s", setup_s.len());
    out.push("peak_rss_mb", stats::peak_rss_mb(), "MB");
    out.push("quality_ratio", quality, "ratio");
}

/// Pushes the tracing summary: traced and untraced time per request over
/// the same requests, their difference (the tracing overhead), and what
/// the per-layer self times (`layer_self_ms`, per request) leave
/// unaccounted.
pub fn push_trace_summary(
    out: &mut Outcome,
    traced_ms: &[f64],
    untraced_ms: &[f64],
    layer_self_ms: f64,
    spans: usize,
) {
    let traced = stats::mean(traced_ms);
    let untraced = stats::mean(untraced_ms);
    out.push_sampled("trace.e2e_ms", traced, "ms", traced_ms.len());
    out.push_sampled("trace.untraced_ms", untraced, "ms", untraced_ms.len());
    out.push("trace.overhead_ms", traced - untraced, "ms");
    out.push("trace.remainder_ms", traced - layer_self_ms, "ms");
    out.push("trace.spans", spans as f64, "count");
}

/// Writes the spans to `perfbench/out/trace-<workload>-seed<n>.jsonl`
/// under the working directory, reporting (not failing on) an I/O error.
pub fn write_trace(spans: &trace::Trace, workload: &str, seed: u64) {
    let path = std::path::Path::new("perfbench")
        .join("out")
        .join(format!("trace-{workload}-seed{seed}.jsonl"));
    match spans.write_jsonl(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

/// Relative closeness of a cached and a recomputed objective.
pub fn objective_matches(cached: f64, fresh: f64) -> bool {
    (cached - fresh).abs() <= 1e-9 * fresh.abs().max(1.0)
}

/// `true` when `set` has exactly `p` distinct elements.
pub fn is_distinct_of_size(set: &[u32], p: usize) -> bool {
    let mut sorted = set.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len() == p && set.len() == p
}
