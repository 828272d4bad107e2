//! Shared scaffolding for the JSON-emitting Criterion benches and the
//! equivalence suite: seeded instance builders, the `MSD_BENCH_N` knob,
//! workspace-root resolution, and the record-grouping helpers behind the
//! hand-rolled `BENCH_*.json` writers — one implementation, imported by
//! every bench, so the knob parsing and JSON conventions cannot drift
//! between families — plus the trusting-ingestion drivers the suites and
//! benches feed their well-formed scripts through.

use criterion::BenchRecord;
use msd_core::{
    Batch, BatchReport, DiversificationProblem, DynamicSession, ElementId, ScanExtent,
    ShardedEngine, ShardedReport, UpdateOutcome, Validation,
};
use msd_metric::{DistanceMatrix, Metric, PerturbableMetric, PointKernel, PointMetric};
use msd_submodular::{
    CoverageFunction, FacilityLocationFunction, IncrementalOracle, ModularFunction,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ground sizes for a bench sweep: the comma-separated `MSD_BENCH_N`
/// environment variable when set (CI smoke), otherwise `default`
/// (families pick their own — the dynamic bench defaults smaller than
/// `incremental_oracle` because its facility cycles rebuild oracles).
pub fn ground_sizes(default: &[usize]) -> Vec<usize> {
    match std::env::var("MSD_BENCH_N") {
        Ok(list) => list
            .split(',')
            .filter_map(|tok| tok.trim().parse().ok())
            .collect(),
        Err(_) => default.to_vec(),
    }
}

/// Workspace root (where the `BENCH_*.json` trajectories live).
pub fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// Seeded random coverage instance: `n` elements each covering
/// `cover_lo..cover_hi` of `topics` random topics (weights `U[0,3)`),
/// distances `U[1,2)` (always metric), `λ = 0.2`. The RNG consumption
/// order is part of the contract — benches and the equivalence suite
/// rely on reproducing historical instances exactly.
pub fn coverage_instance(
    seed: u64,
    n: usize,
    topics: usize,
    cover_lo: usize,
    cover_hi: usize,
) -> DiversificationProblem<DistanceMatrix, CoverageFunction> {
    let mut rng = StdRng::seed_from_u64(seed);
    let covers: Vec<Vec<u32>> = (0..n)
        .map(|_| {
            (0..rng.gen_range(cover_lo..cover_hi))
                .map(|_| rng.gen_range(0..topics) as u32)
                .collect()
        })
        .collect();
    let weights: Vec<f64> = (0..topics).map(|_| rng.gen_range(0.0..3.0)).collect();
    let metric = DistanceMatrix::from_fn(n, |_, _| rng.gen_range(1.0..2.0));
    DiversificationProblem::new(metric, CoverageFunction::new(covers, weights), 0.2)
}

/// Seeded random facility-location instance: `clients` clients with
/// similarities `U[0,1)` and weights `U[0.5,2)`, distances `U[1,2)`,
/// `λ = 0.15`. Same RNG-order contract as [`coverage_instance`].
pub fn facility_instance(
    seed: u64,
    n: usize,
    clients: usize,
) -> DiversificationProblem<DistanceMatrix, FacilityLocationFunction> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sim: Vec<Vec<f64>> = (0..clients)
        .map(|_| (0..n).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let weights: Vec<f64> = (0..clients).map(|_| rng.gen_range(0.5..2.0)).collect();
    let metric = DistanceMatrix::from_fn(n, |_, _| rng.gen_range(1.0..2.0));
    DiversificationProblem::new(metric, FacilityLocationFunction::new(sim, weights), 0.15)
}

/// Seeded implicit-metric point corpus: `n` points with `dim` coordinates
/// `U[0,1)` under `kernel`, modular weights `U[0,1)`, `λ = 0.2`. The
/// metric is compute-on-demand ([`PointMetric`]) — nothing `n²` is ever
/// materialized, which is what lets the distributed bench and the sharded
/// equivalence suite run at `n = 10⁵`. Coordinates are drawn row-major
/// before the weights; same RNG-order contract as [`coverage_instance`].
pub fn point_instance(
    seed: u64,
    n: usize,
    dim: usize,
    kernel: PointKernel,
) -> DiversificationProblem<PointMetric, ModularFunction> {
    let mut rng = StdRng::seed_from_u64(seed);
    let coords: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(0.0..1.0)).collect();
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
    let metric = PointMetric::from_flat(kernel, n, dim, coords);
    DiversificationProblem::new(metric, ModularFunction::new(weights), 0.2)
}

/// One batch through [`DynamicSession::ingest`] under
/// [`Validation::Legacy`]: no validation pass, one union-scoped scan.
/// Callers draw well-formed perturbations, so this never rejects.
pub fn ingest_legacy<M: PerturbableMetric, Q: IncrementalOracle + ?Sized>(
    session: &mut DynamicSession<'_, M, Q>,
    batch: impl Into<Batch>,
) -> BatchReport {
    session
        .ingest(batch.into().with_validation(Validation::Legacy))
        .expect("legacy ingest never rejects")
}

/// [`ingest_legacy`] through a [`ShardedEngine`]: routing,
/// stabilization and the reduce, without a validation pass.
pub fn ingest_sharded_legacy<M: Metric>(
    engine: &mut ShardedEngine<'_, M>,
    batch: impl Into<Batch>,
) -> ShardedReport {
    engine
        .ingest(batch.into().with_validation(Validation::Legacy))
        .expect("legacy ingest never rejects")
}

/// The fields of a one-perturbation [`BatchReport`] that the
/// serial-vs-parallel session suites compare.
pub struct OneReport {
    pub outcome: UpdateOutcome,
    pub refill: Option<ElementId>,
    pub scan: ScanExtent,
}

impl From<BatchReport> for OneReport {
    fn from(report: BatchReport) -> Self {
        OneReport {
            outcome: report.outcome,
            refill: report.refills.last().copied(),
            scan: report.scan,
        }
    }
}

/// Distinct configuration prefixes of record ids (everything before the
/// final `/variant` segment), in first-appearance order.
pub fn record_configs(records: &[BenchRecord]) -> Vec<String> {
    let mut configs: Vec<String> = Vec::new();
    for r in records {
        let (config, _) = r.id.rsplit_once('/').expect("group/variant id");
        if !configs.iter().any(|c| c == config) {
            configs.push(config.to_string());
        }
    }
    configs
}

/// Mean ns of the `config/variant` record, if it was measured.
pub fn record_mean(records: &[BenchRecord], config: &str, variant: &str) -> Option<f64> {
    let id = format!("{config}/{variant}");
    records.iter().find(|r| r.id == id).map(|r| r.mean_ns)
}

/// JSON literal for an optional nanosecond mean (`null` when missing).
pub fn json_num(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.1}"),
        None => "null".to_string(),
    }
}

/// JSON literal for a serial/parallel (or naive/incremental) ratio,
/// `null` unless both sides were measured.
pub fn json_ratio(numerator: Option<f64>, denominator: Option<f64>) -> String {
    match (numerator, denominator) {
        (Some(a), Some(b)) if b > 0.0 => format!("{:.2}", a / b),
        _ => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_helpers_group_and_find() {
        let records = vec![
            BenchRecord {
                id: "fam/a/n1/serial".into(),
                mean_ns: 10.0,
                stddev_ns: 0.0,
                iterations: 1,
            },
            BenchRecord {
                id: "fam/a/n1/parallel".into(),
                mean_ns: 5.0,
                stddev_ns: 0.0,
                iterations: 1,
            },
            BenchRecord {
                id: "fam/b/n2/serial".into(),
                mean_ns: 7.0,
                stddev_ns: 0.0,
                iterations: 1,
            },
        ];
        assert_eq!(record_configs(&records), vec!["fam/a/n1", "fam/b/n2"]);
        assert_eq!(record_mean(&records, "fam/a/n1", "parallel"), Some(5.0));
        assert_eq!(record_mean(&records, "fam/b/n2", "parallel"), None);
        assert_eq!(json_num(Some(5.0)), "5.0");
        assert_eq!(json_num(None), "null");
        assert_eq!(json_ratio(Some(10.0), Some(5.0)), "2.00");
        assert_eq!(json_ratio(Some(10.0), None), "null");
    }

    #[test]
    fn instance_builders_are_deterministic() {
        let a = coverage_instance(3, 12, 7, 1, 6);
        let b = coverage_instance(3, 12, 7, 1, 6);
        assert_eq!(a.metric().triangle(), b.metric().triangle());
        let f = facility_instance(4, 10, 8);
        let g = facility_instance(4, 10, 8);
        assert_eq!(f.metric().triangle(), g.metric().triangle());
        assert_eq!(f.quality().num_clients(), 8);
    }
}
