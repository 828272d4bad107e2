//! End-to-end bench for the sharded dynamic engine at post-`n²` scale
//! (`BENCH_distributed.json`).
//!
//! Every other bench family materializes a [`DistanceMatrix`] and tops
//! out around `n = 5000` (the `n(n-1)/2` triangle is the wall: 40 GB at
//! `n = 10⁵`). This family runs on the **implicit** point metric
//! ([`msd_metric::PointMetric`], compute-on-demand kernels, `O(n·dim)`
//! resident memory) and measures the full distributed pipeline at
//! `n = 10⁵` per kernel:
//!
//! * `one_shot` — [`distributed_greedy`]: partition, map-round Greedy B
//!   per shard, union reduce. This is the cost of *re-solving from
//!   scratch*, i.e. what every perturbation batch would pay without the
//!   persistent engine.
//! * `engine_build` — [`ShardedEngine::new`]: the same map round plus
//!   opening one persistent [`msd_core::DynamicSession`] per shard and
//!   the first merge (paid once per corpus, amortized across the stream).
//! * `perturb_stabilize` — one [`BURST`]-perturbation batch through
//!   [`ShardedEngine::ingest`] per iteration: routing, per-shard
//!   O(Δ) repair + stabilization, and the *incremental* reduce (re-merged
//!   only when a proposal set changed or the batch touched the union —
//!   half the draws target union members so dirty merges genuinely
//!   occur). The `one_shot_ns`/`perturb_stabilize_ns` ratio is the
//!   persistent engine's headline win: re-solve cost vs incremental
//!   batch cost at the same `n`.
//! * `perturb_stabilize_forced` (`--features parallel`) — the same
//!   stream through a [`ShardedEngine`]'s `ingest` on an
//!   explicit 4-thread [`msd_core::ScanPool`] forcing genuinely chunked
//!   scans, so the recorded number carries real chunk/merge overhead even
//!   on a 1-core host (without a forced pool a 1-core box collapses every
//!   scan to a single chunk and the "parallel" column silently measures
//!   the serial path). Parallelism comes from the pool, so under the
//!   feature `perturb_stabilize` pins its engine to a one-thread pool.
//!
//! `perturb_stabilize` times the validating [`ShardedEngine::ingest`]
//! (via `msd_bench::support::ingest_sharded_lenient`), batch check
//! included.
//!
//! Results go to `BENCH_distributed.json` at the workspace root.
//! `MSD_BENCH_N` restricts the ground sizes (CI smoke); the default is
//! the full `n = 100 000`.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Duration;

use criterion::{BenchRecord, Criterion};
use msd_bench::support::{
    ground_sizes, ingest_sharded_lenient, json_num, json_ratio, point_instance, record_configs,
    record_mean, workspace_root,
};
use msd_core::{
    distributed_greedy, DistributedConfig, ElementId, GreedyBConfig, PartitionScheme,
    SessionPerturbation, ShardedConfig, ShardedEngine,
};
use msd_metric::PointKernel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 8;
const MACHINES: usize = 16;
const P: usize = 32;
/// Perturbations per measured batch (weight/distance mix, half the
/// draws aimed at the current proposal union).
const BURST: usize = 32;

fn sharded_config(machines: usize) -> ShardedConfig {
    ShardedConfig {
        machines,
        scheme: PartitionScheme::RoundRobin,
        greedy: GreedyBConfig::default(),
        max_updates: 256,
    }
}

/// One union-biased perturbation burst. Weight redraws from `U[0,1)`
/// (the corpus' own weight range), distance rewrites from `U[0.25,1.5)`
/// (straddling both kernels' typical distances, so rewrites raise and
/// lower alike).
fn draw_burst(rng: &mut StdRng, n: usize, union: &[ElementId]) -> Vec<SessionPerturbation> {
    (0..BURST)
        .map(|_| {
            let u = if !union.is_empty() && rng.gen_bool(0.5) {
                union[rng.gen_range(0..union.len())]
            } else {
                rng.gen_range(0..n) as ElementId
            };
            if rng.gen_bool(0.5) {
                SessionPerturbation::SetWeight {
                    u,
                    value: rng.gen_range(0.0..1.0),
                }
            } else {
                let mut v = rng.gen_range(0..n) as ElementId;
                while v == u {
                    v = rng.gen_range(0..n) as ElementId;
                }
                SessionPerturbation::SetDistance {
                    u,
                    v,
                    value: rng.gen_range(0.25..1.5),
                }
            }
        })
        .collect()
}

fn bench_kernel(c: &mut Criterion, name: &str, kernel: PointKernel, ns: &[usize]) {
    for &n in ns {
        let p = P.min(n / 2).max(1);
        let machines = MACHINES.min(n.max(1));
        let problem = point_instance(97 + n as u64, n, DIM, kernel);
        let rng_seed = 41 + n as u64;
        let mut group = c.benchmark_group(format!("dynamic/distributed/{name}/n{n}/p{p}"));
        // One-shot and build are seconds-scale at n = 10⁵; the measured
        // quantity is stable, so the minimum sample count suffices.
        group.sample_size(2);
        {
            let config = DistributedConfig {
                machines,
                scheme: PartitionScheme::RoundRobin,
                greedy: GreedyBConfig::default(),
            };
            group.bench_function("one_shot", |b| {
                b.iter(|| black_box(distributed_greedy(black_box(&problem), p, config)))
            });
        }
        group.bench_function("engine_build", |b| {
            b.iter(|| {
                black_box(ShardedEngine::new(
                    black_box(&problem),
                    p,
                    sharded_config(machines),
                ))
            })
        });
        group.sample_size(3);
        {
            let mut engine = ShardedEngine::new(&problem, p, sharded_config(machines))
                .with_scan_pool(std::sync::Arc::new(msd_core::ScanPool::new(1)));
            let mut rng = StdRng::seed_from_u64(rng_seed);
            group.bench_function("perturb_stabilize", |b| {
                b.iter(|| {
                    let union = engine.union().to_vec();
                    let batch = draw_burst(&mut rng, n, &union);
                    black_box(ingest_sharded_lenient(&mut engine, black_box(&batch)))
                })
            });
        }
        #[cfg(feature = "parallel")]
        {
            let pool = std::sync::Arc::new(msd_core::ScanPool::new(4));
            let mut engine =
                ShardedEngine::new(&problem, p, sharded_config(machines)).with_scan_pool(pool);
            let mut rng = StdRng::seed_from_u64(rng_seed);
            group.bench_function("perturb_stabilize_forced", |b| {
                b.iter(|| {
                    let union = engine.union().to_vec();
                    let batch = draw_burst(&mut rng, n, &union);
                    black_box(ingest_sharded_lenient(&mut engine, black_box(&batch)))
                })
            });
        }
        group.finish();
    }
}

/// Hand-rolled JSON writer (no serde in the build environment). One row
/// per configuration: the re-solve baseline, the engine build cost, the
/// incremental per-batch cost (serial and forced-chunking), and the
/// resolve-vs-incremental speedup.
fn to_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"distributed\",");
    let _ = writeln!(
        out,
        "  \"command\": \"cargo bench -p msd-bench --bench distributed --features parallel\","
    );
    let _ = writeln!(
        out,
        "  \"workload\": \"implicit point metric (no n^2 materialization), {MACHINES} shards: one-shot distributed greedy and sharded-engine build per iteration; perturb variants ingest one {BURST}-perturbation union-biased batch through the persistent engine (incremental reduce)\","
    );
    let _ = writeln!(out, "  \"metric\": \"implicit-point\",");
    let _ = writeln!(out, "  \"dim\": {DIM},");
    let _ = writeln!(out, "  \"unit\": \"ns_per_iteration\",");
    let _ = writeln!(
        out,
        "  \"host_cpus\": {},",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    out.push_str("  \"results\": [\n");
    let configs = record_configs(records);
    for (i, config) in configs.iter().enumerate() {
        let tail = if i + 1 < configs.len() { "," } else { "" };
        let one_shot = record_mean(records, config, "one_shot");
        let build = record_mean(records, config, "engine_build");
        let perturb = record_mean(records, config, "perturb_stabilize");
        let forced = record_mean(records, config, "perturb_stabilize_forced");
        let _ = writeln!(
            out,
            "    {{\"config\": \"{config}\", \"one_shot_ns\": {}, \"engine_build_ns\": {}, \"perturb_stabilize_ns\": {}, \"forced_chunk_ns\": {}, \"speedup_resolve_over_incremental\": {}}}{tail}",
            json_num(one_shot),
            json_num(build),
            json_num(perturb),
            json_num(forced),
            json_ratio(one_shot, perturb),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let ns = ground_sizes(&[100_000]);
    let mut c = Criterion::default()
        .sample_size(3)
        .measurement_time(Duration::from_millis(50));
    bench_kernel(&mut c, "euclidean", PointKernel::Euclidean, &ns);
    bench_kernel(&mut c, "cosine", PointKernel::Cosine, &ns);
    let records = c.take_records();

    let json = to_json(&records);
    let target = workspace_root().join("BENCH_distributed.json");
    std::fs::write(&target, json).expect("write bench json");
    println!("wrote {}", target.display());
}
