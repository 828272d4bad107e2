//! Perf-trajectory bench for the incremental-oracle subsystem.
//!
//! Measures Greedy B and the budgeted local search with the incremental
//! oracles + lazy greedy against the slice-recomputation baselines
//! (`msd_bench::naive`) over `n ∈ {1000, 5000, 20000}` × modular/coverage
//! quality, and writes the results to `BENCH_greedy.json` and
//! `BENCH_local_search.json` at the workspace root so the perf trajectory
//! is tracked in-repo from this change onward.
//!
//! Knobs:
//! * `MSD_BENCH_N=1000,5000` restricts the ground sizes (CI smoke uses
//!   this; the full sweep runs by default).
//! * building with `--features parallel` adds the thread-parallel variants,
//!   plus a `forced` variant running on an explicit 4-thread
//!   [`msd_core::ScanPool`] so the chunked scan schedule (and its merge
//!   overhead) is measured even on a single-core host, where the ambient
//!   parallel path collapses to one chunk.

use std::fmt::Write as _;
use std::time::Duration;

use criterion::{BenchRecord, Criterion};
use msd_bench::naive::{greedy_b_naive, local_search_refine_naive};
use msd_bench::support::{
    ground_sizes, json_num, json_ratio, record_configs, record_mean, workspace_root,
};
use msd_core::{
    greedy_b, local_search_refine, DiversificationProblem, GreedyBConfig, LocalSearchConfig,
    ScanPool,
};
use msd_data::SyntheticConfig;
use msd_metric::DistanceMatrix;
use msd_submodular::CoverageFunction;
use std::hint::black_box;
use std::sync::Arc;

const P: usize = 100;
const LS_SWAP_BUDGET: usize = 10;

/// This bench's coverage shape: `n/2 + 1` topics, 2–7 covers per element.
fn coverage_instance(
    seed: u64,
    n: usize,
) -> DiversificationProblem<DistanceMatrix, CoverageFunction> {
    msd_bench::support::coverage_instance(seed, n, n / 2 + 1, 2, 8)
}

fn bench_greedy(c: &mut Criterion, ns: &[usize]) {
    for &n in ns {
        let p = P.min(n / 2);
        {
            let problem = SyntheticConfig::paper(n).generate(42);
            let mut group = c.benchmark_group(format!("greedy/modular/n{n}/p{p}"));
            let serial = problem.clone().with_scan_pool(Arc::new(ScanPool::new(1)));
            group.bench_function("incremental", |b| {
                b.iter(|| greedy_b(black_box(&serial), p, GreedyBConfig::default()))
            });
            group.bench_function("naive", |b| {
                b.iter(|| greedy_b_naive(black_box(&problem), p))
            });
            #[cfg(feature = "parallel")]
            group.bench_function("parallel", |b| {
                b.iter(|| greedy_b(black_box(&problem), p, GreedyBConfig::default()))
            });
            #[cfg(feature = "parallel")]
            {
                let forced = problem.clone().with_scan_pool(Arc::new(ScanPool::new(4)));
                group.bench_function("forced", |b| {
                    b.iter(|| greedy_b(black_box(&forced), p, GreedyBConfig::default()))
                });
            }
            group.finish();
        }
        {
            let problem = coverage_instance(7 + n as u64, n);
            let mut group = c.benchmark_group(format!("greedy/coverage/n{n}/p{p}"));
            let serial = problem.clone().with_scan_pool(Arc::new(ScanPool::new(1)));
            group.bench_function("incremental", |b| {
                b.iter(|| greedy_b(black_box(&serial), p, GreedyBConfig::default()))
            });
            group.bench_function("naive", |b| {
                b.iter(|| greedy_b_naive(black_box(&problem), p))
            });
            #[cfg(feature = "parallel")]
            group.bench_function("parallel", |b| {
                b.iter(|| greedy_b(black_box(&problem), p, GreedyBConfig::default()))
            });
            #[cfg(feature = "parallel")]
            {
                let forced = problem.clone().with_scan_pool(Arc::new(ScanPool::new(4)));
                group.bench_function("forced", |b| {
                    b.iter(|| greedy_b(black_box(&forced), p, GreedyBConfig::default()))
                });
            }
            group.finish();
        }
    }
}

fn bench_local_search(c: &mut Criterion, ns: &[usize]) {
    // The quadratic swap scan dominates; a fixed swap budget keeps the
    // naive baseline tractable at the larger sizes.
    let config = LocalSearchConfig {
        max_swaps: LS_SWAP_BUDGET,
        ..LocalSearchConfig::default()
    };
    for &n in ns {
        if n > 5000 {
            // The slice baseline is O(n·p·cost(f)) per scan; past n=5000 it
            // stops being a meaningful interactive baseline. The skip shows
            // up in the JSON as a missing config rather than silently.
            continue;
        }
        let p = 50.min(n / 4);
        {
            let problem = SyntheticConfig::paper(n).generate(43);
            let start = greedy_b(&problem, p, GreedyBConfig::default());
            let mut group = c.benchmark_group(format!("local_search/modular/n{n}/p{p}"));
            let serial = problem.clone().with_scan_pool(Arc::new(ScanPool::new(1)));
            group.bench_function("incremental", |b| {
                b.iter(|| local_search_refine(black_box(&serial), &start, config))
            });
            group.bench_function("naive", |b| {
                b.iter(|| local_search_refine_naive(black_box(&problem), &start, config))
            });
            #[cfg(feature = "parallel")]
            group.bench_function("parallel", |b| {
                b.iter(|| local_search_refine(black_box(&problem), &start, config))
            });
            #[cfg(feature = "parallel")]
            {
                let forced = problem.clone().with_scan_pool(Arc::new(ScanPool::new(4)));
                group.bench_function("forced", |b| {
                    b.iter(|| local_search_refine(black_box(&forced), &start, config))
                });
            }
            group.finish();
        }
        {
            let problem = coverage_instance(9 + n as u64, n);
            let start = greedy_b(&problem, p, GreedyBConfig::default());
            let mut group = c.benchmark_group(format!("local_search/coverage/n{n}/p{p}"));
            let serial = problem.clone().with_scan_pool(Arc::new(ScanPool::new(1)));
            group.bench_function("incremental", |b| {
                b.iter(|| local_search_refine(black_box(&serial), &start, config))
            });
            group.bench_function("naive", |b| {
                b.iter(|| local_search_refine_naive(black_box(&problem), &start, config))
            });
            #[cfg(feature = "parallel")]
            group.bench_function("parallel", |b| {
                b.iter(|| local_search_refine(black_box(&problem), &start, config))
            });
            #[cfg(feature = "parallel")]
            {
                let forced = problem.clone().with_scan_pool(Arc::new(ScanPool::new(4)));
                group.bench_function("forced", |b| {
                    b.iter(|| local_search_refine(black_box(&forced), &start, config))
                });
            }
            group.finish();
        }
    }
}

/// Serializes the records of one bench family (`greedy` or `local_search`)
/// into a JSON document with per-configuration naive-vs-incremental
/// speedups. Hand-rolled writer — the build environment has no serde.
fn to_json(family: &str, records: &[BenchRecord]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"{family}\",");
    let _ = writeln!(
        out,
        "  \"command\": \"cargo bench -p msd-bench --bench incremental_oracle --features parallel\","
    );
    let _ = writeln!(out, "  \"unit\": \"ns_per_run\",");
    out.push_str("  \"results\": [\n");
    // Record ids look like `greedy/coverage/n5000/p100/incremental`.
    let configs = record_configs(records);
    for (i, config) in configs.iter().enumerate() {
        let incremental = record_mean(records, config, "incremental");
        let naive = record_mean(records, config, "naive");
        let parallel = record_mean(records, config, "parallel");
        let forced = record_mean(records, config, "forced");
        let _ = writeln!(
            out,
            "    {{\"config\": \"{config}\", \"incremental_ns\": {}, \"naive_ns\": {}, \"parallel_ns\": {}, \"forced_chunk_ns\": {}, \"speedup_naive_over_incremental\": {}}}{}",
            json_num(incremental),
            json_num(naive),
            json_num(parallel),
            json_num(forced),
            json_ratio(naive, incremental),
            if i + 1 < configs.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let ns = ground_sizes(&[1000, 5000, 20000]);
    let mut c = Criterion::default()
        .sample_size(3)
        .measurement_time(Duration::from_millis(50));
    bench_greedy(&mut c, &ns);
    bench_local_search(&mut c, &ns);
    let records = c.take_records();

    let root = workspace_root();
    for (family, path) in [
        ("greedy/", "BENCH_greedy.json"),
        ("local_search/", "BENCH_local_search.json"),
    ] {
        let family_records: Vec<BenchRecord> = records
            .iter()
            .filter(|r| r.id.starts_with(family))
            .cloned()
            .collect();
        let json = to_json(family.trim_end_matches('/'), &family_records);
        let target = root.join(path);
        std::fs::write(&target, json).expect("write bench json");
        println!("wrote {}", target.display());
    }
}
