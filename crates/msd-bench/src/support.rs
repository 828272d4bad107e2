//! Shared scaffolding for the JSON-emitting Criterion benches and the
//! equivalence suite: seeded instance builders, the `MSD_BENCH_N` knob,
//! workspace-root resolution, and the record-grouping helpers behind the
//! hand-rolled `BENCH_*.json` writers — one implementation, imported by
//! every bench, so the knob parsing and JSON conventions cannot drift
//! between families — plus the lenient ingestion drivers the suites and
//! benches feed their scripts through.

use std::collections::HashMap;

use criterion::BenchRecord;
use msd_core::{
    BatchReport, DiversificationProblem, DynamicSession, ElementId, ScanExtent,
    SessionPerturbation, ShardedEngine, ShardedReport, UpdateOutcome,
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

/// One batch through [`DynamicSession::ingest`], minus the entries the
/// checker refuses but the scripts treat as no-ops: arrivals of resident
/// and departures of absent elements, residency simulated across the batch
/// as the checker does. `report.ingested` counts the whole input.
///
/// # Panics
///
/// On any other rejection: callers draw well-formed perturbations.
pub fn ingest_lenient<M: PerturbableMetric, Q: IncrementalOracle + ?Sized>(
    session: &mut DynamicSession<'_, M, Q>,
    perturbations: &[SessionPerturbation],
) -> BatchReport {
    let kept = drop_availability_noops(perturbations, |u| session.is_active(u));
    let mut report = session.ingest(&kept).expect("well-formed batch");
    report.ingested = perturbations.len();
    report
}

/// [`ingest_lenient`] through a [`ShardedEngine`]: residency is read from
/// the owning shard's session (an element of a session-less `p = 0` shard
/// counts as resident, as the checker has it).
///
/// # Panics
///
/// As [`ingest_lenient`].
pub fn ingest_sharded_lenient<M: Metric>(
    engine: &mut ShardedEngine<'_, M>,
    perturbations: &[SessionPerturbation],
) -> ShardedReport {
    let kept = drop_availability_noops(perturbations, |u| {
        let s = engine.shard_of(u);
        engine.session(s).is_none_or(|session| {
            let local = engine.shard_members(s).binary_search(&u).expect("owned");
            session.is_active(local as ElementId)
        })
    });
    engine.ingest(&kept).expect("well-formed batch")
}

/// `perturbations` without arrivals of resident and departures of absent
/// elements; `resident(u)` is `u`'s availability before the batch.
fn drop_availability_noops(
    perturbations: &[SessionPerturbation],
    resident: impl Fn(ElementId) -> bool,
) -> Vec<SessionPerturbation> {
    let mut simulated: HashMap<ElementId, bool> = HashMap::new();
    perturbations
        .iter()
        .copied()
        .filter(|&p| {
            let (u, arrive) = match p {
                SessionPerturbation::Arrive { u } => (u, true),
                SessionPerturbation::Depart { u } => (u, false),
                _ => return true,
            };
            let was_resident = *simulated.entry(u).or_insert_with(|| resident(u));
            simulated.insert(u, arrive);
            was_resident != arrive
        })
        .collect()
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
    use msd_core::{greedy_b, GreedyBConfig, ShardedConfig};

    use SessionPerturbation::{Arrive, Depart, SetWeight};

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

    /// The fields of a session report and state that padding with
    /// availability no-ops must leave alone.
    fn session_view(
        report: &BatchReport,
        session: &DynamicSession<'_, DistanceMatrix>,
    ) -> (
        UpdateOutcome,
        u64,
        Vec<ElementId>,
        ScanExtent,
        Vec<ElementId>,
        u64,
    ) {
        (
            report.outcome,
            report.outcome.gain.to_bits(),
            report.refills.clone(),
            report.scan,
            session.solution().to_vec(),
            session.objective().to_bits(),
        )
    }

    #[test]
    fn lenient_session_driver_drops_availability_noops() {
        let mut rng = StdRng::seed_from_u64(11);
        let weights: Vec<f64> = (0..24).map(|_| rng.gen_range(0.0..1.0)).collect();
        let metric = DistanceMatrix::from_fn(24, |_, _| rng.gen_range(1.0..2.0));
        let problem = DiversificationProblem::new(metric, ModularFunction::new(weights), 0.2);
        let init = greedy_b(&problem, 4, GreedyBConfig::default());
        let mut outsiders = (0..24).filter(|u| !init.contains(u));
        let (gone, spiked) = (outsiders.next().unwrap(), outsiders.next().unwrap());
        let twin = || {
            let mut s = DynamicSession::new(&problem, &init);
            s.ingest(&[Depart { u: gone }]).expect("valid departure");
            s.update_until_stable(64);
            s
        };
        let (mut padded_session, mut plain_session) = (twin(), twin());
        let leaving = init[0];
        let plain = [
            SetWeight {
                u: spiked,
                value: 9.0,
            },
            Depart { u: leaving },
        ];
        let padded = [
            Arrive { u: init[1] },
            plain[0],
            plain[1],
            Depart { u: leaving },
            Depart { u: gone },
        ];

        let a = ingest_lenient(&mut padded_session, &padded);
        let b = plain_session.ingest(&plain).expect("valid batch");
        assert_eq!(a.ingested, padded.len());
        assert_eq!(b.ingested, plain.len());
        assert_eq!(
            session_view(&a, &padded_session),
            session_view(&b, &plain_session)
        );
        assert!(!padded_session.contains(leaving));
    }

    #[test]
    fn lenient_sharded_driver_drops_availability_noops() {
        let problem = point_instance(12, 48, 3, PointKernel::Euclidean);
        let config = ShardedConfig {
            machines: 3,
            ..ShardedConfig::default()
        };
        let fresh = ShardedEngine::new(&problem, 5, config);
        let union = fresh.union().to_vec();
        let mut outside = (0..48).filter(|u| !union.contains(u));
        let (gone, spiked) = (outside.next().unwrap(), outside.next().unwrap());
        let twin = || {
            let mut e = ShardedEngine::new(&problem, 5, config);
            e.ingest(&[Depart { u: gone }]).expect("valid departure");
            e
        };
        let (mut padded_engine, mut plain_engine) = (twin(), twin());
        let leaving = union[0];
        let plain = [
            SetWeight {
                u: spiked,
                value: 9.0,
            },
            Depart { u: leaving },
        ];
        let padded = [
            Arrive { u: union[1] },
            plain[0],
            plain[1],
            Depart { u: leaving },
            Depart { u: gone },
        ];

        let a = ingest_sharded_lenient(&mut padded_engine, &padded);
        let b = plain_engine.ingest(&plain).expect("valid batch");
        assert_eq!(a, b);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        assert_eq!(padded_engine.solution(), plain_engine.solution());
        assert!(!padded_engine.solution().contains(&leaving));
    }
}
