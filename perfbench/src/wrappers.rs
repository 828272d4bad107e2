//! Metric wrappers that measure a layer from outside: each forwards every
//! call to the wrapped metric unchanged and records counts or spans on
//! the way. The traced run substitutes them for the plain types.

use std::cell::Cell;

use max_sum_diversification::metric::{
    DynamicGraphMetric, EdgePerturbableMetric, EdgeUpdateError, EdgeUpdateReport, ElementId,
    Metric, RepairStrategy,
};

use crate::trace;

thread_local! {
    static DISTANCE_READS: Cell<u64> = const { Cell::new(0) };
}

fn add_reads(k: usize) {
    DISTANCE_READS.with(|c| c.set(c.get() + k as u64));
}

/// Pairwise distances read through [`CountingMetric`]s since the last call.
pub fn take_distance_reads() -> u64 {
    DISTANCE_READS.with(|c| c.replace(0))
}

/// Counts every pairwise distance read (a row kernel call reads `n − 1`).
#[derive(Debug, Clone)]
pub struct CountingMetric<M>(pub M);

impl<M: Metric> Metric for CountingMetric<M> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn distance(&self, u: ElementId, v: ElementId) -> f64 {
        add_reads(1);
        self.0.distance(u, v)
    }

    fn distance_to_set(&self, u: ElementId, set: &[ElementId]) -> f64 {
        add_reads(set.len());
        self.0.distance_to_set(u, set)
    }

    fn dispersion(&self, set: &[ElementId]) -> f64 {
        add_reads(set.len() * set.len().saturating_sub(1) / 2);
        self.0.dispersion(set)
    }

    fn cross_dispersion(&self, xs: &[ElementId], ys: &[ElementId]) -> f64 {
        add_reads(xs.len() * ys.len());
        self.0.cross_dispersion(xs, ys)
    }

    fn accumulate_distances(&self, u: ElementId, out: &mut [f64], factor: f64) {
        add_reads(self.0.len().saturating_sub(1));
        self.0.accumulate_distances(u, out, factor);
    }
}

/// Records a `metric.row_kernel` span around every row kernel call; the
/// serving overlay forwards its clean rows here.
#[derive(Debug, Clone)]
pub struct TimedMetric<M>(pub M);

impl<M: Metric> Metric for TimedMetric<M> {
    fn len(&self) -> usize {
        self.0.len()
    }

    #[inline]
    fn distance(&self, u: ElementId, v: ElementId) -> f64 {
        self.0.distance(u, v)
    }

    fn distance_to_set(&self, u: ElementId, set: &[ElementId]) -> f64 {
        self.0.distance_to_set(u, set)
    }

    fn dispersion(&self, set: &[ElementId]) -> f64 {
        self.0.dispersion(set)
    }

    fn cross_dispersion(&self, xs: &[ElementId], ys: &[ElementId]) -> f64 {
        self.0.cross_dispersion(xs, ys)
    }

    fn accumulate_distances(&self, u: ElementId, out: &mut [f64], factor: f64) {
        trace::span("metric.row_kernel", || {
            self.0.accumulate_distances(u, out, factor)
        });
    }
}

/// A graph metric whose edge repairs record `dynamic_graph.repair` spans
/// plus their reports, and whose clones (the session checkpoint taken
/// before a closure batch, and the rollback) record `session.checkpoint`.
#[derive(Debug)]
pub struct TracedGraph(pub DynamicGraphMetric);

impl Clone for TracedGraph {
    fn clone(&self) -> Self {
        trace::span("session.checkpoint", || TracedGraph(self.0.clone()))
    }
}

impl TracedGraph {
    fn record(
        &self,
        result: Result<EdgeUpdateReport, EdgeUpdateError>,
    ) -> Result<EdgeUpdateReport, EdgeUpdateError> {
        match &result {
            Ok(report) => {
                let rows = match report.strategy {
                    RepairStrategy::Untouched => 0,
                    RepairStrategy::Relaxed { sources } => sources,
                    RepairStrategy::Rescanned { rows } => rows,
                    RepairStrategy::Rebuilt => self.0.len(),
                };
                trace::count("dynamic_graph.repairs", 1.0);
                trace::count("dynamic_graph.changed_pairs", report.changed.len() as f64);
                trace::count("dynamic_graph.rows_recomputed", rows as f64);
                if report.strategy == RepairStrategy::Rebuilt {
                    trace::count("dynamic_graph.rebuilt", 1.0);
                }
            }
            Err(_) => trace::count("dynamic_graph.rejected", 1.0),
        }
        result
    }
}

impl Metric for TracedGraph {
    fn len(&self) -> usize {
        self.0.len()
    }

    #[inline]
    fn distance(&self, u: ElementId, v: ElementId) -> f64 {
        self.0.distance(u, v)
    }

    fn distance_to_set(&self, u: ElementId, set: &[ElementId]) -> f64 {
        self.0.distance_to_set(u, set)
    }

    fn dispersion(&self, set: &[ElementId]) -> f64 {
        self.0.dispersion(set)
    }

    fn cross_dispersion(&self, xs: &[ElementId], ys: &[ElementId]) -> f64 {
        self.0.cross_dispersion(xs, ys)
    }

    fn accumulate_distances(&self, u: ElementId, out: &mut [f64], factor: f64) {
        self.0.accumulate_distances(u, out, factor);
    }
}

impl EdgePerturbableMetric for TracedGraph {
    fn set_edge(
        &mut self,
        u: ElementId,
        v: ElementId,
        weight: f64,
    ) -> Result<EdgeUpdateReport, EdgeUpdateError> {
        let result = trace::span("dynamic_graph.repair", || self.0.set_edge(u, v, weight));
        self.record(result)
    }

    fn remove_edge(
        &mut self,
        u: ElementId,
        v: ElementId,
    ) -> Result<EdgeUpdateReport, EdgeUpdateError> {
        let result = trace::span("dynamic_graph.repair", || self.0.remove_edge(u, v));
        self.record(result)
    }
}
