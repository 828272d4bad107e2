//! Sub-universe views of a metric under a local id remap.
//!
//! The composable-greedy and sharded-engine paths in `msd-core` repeatedly
//! solve the diversification problem restricted to a subset of the ground
//! set (one machine's shard, or the union of per-shard proposals).
//! [`RestrictedMetric`] is that restriction as a [`Metric`]: local element
//! `i` maps to global element `ids[i]`.
//!
//! Over most metrics every distance is delegated to the wrapped metric and
//! nothing is copied: the view is `O(|ids|)` memory on top of the base.
//! A [`PointMetric`] instead hands the view a compact copy of the rows in
//! `ids` (through [`Metric::compact_rows`]), because its interleaved
//! layout makes pair-by-pair reads strided while a row sweep over the copy
//! reads contiguously. Such a view holds `O(|ids|·dim)` coordinates — one
//! extra copy of the corpus across a partition into shards — and is still
//! implicit: no distance is materialized. Views whose ids repeat an
//! element keep the per-pair path, which gives duplicates distance 0.

use crate::implicit::PointMetric;
use crate::{ElementId, Metric};

/// A [`Metric`] over the sub-universe `{0, .., ids.len()-1}` where local
/// element `i` denotes global element `ids[i]` of the wrapped metric.
///
/// The order of `ids` defines the local indexing; `ids` need not be sorted.
#[derive(Debug, Clone)]
pub struct RestrictedMetric<M> {
    inner: M,
    ids: Vec<ElementId>,
    /// The inner metric's copy of the rows `ids`, indexed by local id,
    /// when it offers one; every read then goes to the copy.
    compact: Option<PointMetric>,
}

impl<M: Metric> RestrictedMetric<M> {
    /// Builds the view. Every id must be in range for `inner`; duplicate
    /// ids are permitted but make the view a semi-metric (zero distances
    /// between distinct local elements). Over a [`PointMetric`] with
    /// distinct ids the view copies the rows `ids` once (see the module
    /// docs).
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range for `inner`.
    pub fn new(inner: M, ids: Vec<ElementId>) -> Self {
        let n = inner.len();
        assert!(
            ids.iter().all(|&u| (u as usize) < n),
            "restricted id out of range"
        );
        let compact = inner.compact_rows(&ids);
        Self {
            inner,
            ids,
            compact,
        }
    }

    /// The global id of local element `u`.
    #[inline]
    pub fn global(&self, u: ElementId) -> ElementId {
        self.ids[u as usize]
    }

    /// The local → global id map.
    pub fn ids(&self) -> &[ElementId] {
        &self.ids
    }

    /// The wrapped metric.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: Metric> Metric for RestrictedMetric<M> {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn distance(&self, u: ElementId, v: ElementId) -> f64 {
        match &self.compact {
            Some(compact) => compact.distance(u, v),
            None => self.inner.distance(self.global(u), self.global(v)),
        }
    }

    fn accumulate_distances(&self, u: ElementId, out: &mut [f64], factor: f64) {
        match &self.compact {
            Some(compact) => compact.accumulate_distances(u, out, factor),
            None => {
                let gu = self.global(u);
                for (v, &gv) in self.ids.iter().enumerate() {
                    if v != u as usize {
                        out[v] += factor * self.inner.distance(gu, gv);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistanceMatrix, Point};

    #[test]
    fn view_remaps_ids_and_inherits_row_sweeps() {
        let dense = DistanceMatrix::from_fn(8, |u, v| f64::from(u * 10 + v));
        let view = RestrictedMetric::new(&dense, vec![6, 1, 4]);
        assert_eq!(view.len(), 3);
        assert_eq!(view.distance(0, 1), dense.distance(6, 1));
        assert_eq!(view.distance(2, 0), dense.distance(4, 6));
        assert_eq!(view.distance(1, 1), 0.0);
        let mut out = vec![0.0; 3];
        view.accumulate_distances(0, &mut out, 1.0);
        assert_eq!(out, vec![0.0, dense.distance(6, 1), dense.distance(6, 4)]);
        assert_eq!(view.global(2), 4);
        assert_eq!(view.ids(), &[6, 1, 4]);
        assert!(view.compact.is_none());
    }

    /// 20 points: rows 0..16 sit in interleaved blocks, 16..20 in the tail.
    fn point_metrics() -> [PointMetric; 2] {
        let pts: Vec<Point> = (0..20u32)
            .map(|u| {
                Point::new(
                    (0..5u32)
                        .map(|k| f64::from((u * 37 + k * 11) % 23) * 0.3 - 3.0)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        [PointMetric::euclidean(&pts), PointMetric::cosine(&pts)]
    }

    /// The per-pair view over the same ids, with no compact copy.
    fn per_pair<'a>(view: &RestrictedMetric<&'a PointMetric>) -> RestrictedMetric<&'a PointMetric> {
        RestrictedMetric {
            inner: view.inner,
            ids: view.ids.clone(),
            compact: None,
        }
    }

    #[test]
    fn compact_point_view_matches_per_pair_path_bitwise() {
        // Unsorted, from blocks 0 and 1 and from the tail; the view itself
        // has one block and a two-row tail.
        let ids = vec![17, 3, 12, 0, 19, 9, 5, 16, 2, 11];
        for base in &point_metrics() {
            let view = RestrictedMetric::new(base, ids.clone());
            assert!(view.compact.is_some(), "{:?}", base.kernel());
            let pairs = per_pair(&view);
            for u in 0..ids.len() as ElementId {
                for v in 0..ids.len() as ElementId {
                    assert_eq!(
                        view.distance(u, v).to_bits(),
                        pairs.distance(u, v).to_bits(),
                        "{:?} d({u},{v})",
                        base.kernel()
                    );
                }
                let mut got = vec![0.5; ids.len()];
                let mut want = vec![0.5; ids.len()];
                view.accumulate_distances(u, &mut got, -1.25);
                pairs.accumulate_distances(u, &mut want, -1.25);
                let bits = |row: &[f64]| row.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{:?} row {u}", base.kernel());
            }
        }
    }

    #[test]
    fn duplicate_ids_keep_the_per_pair_path() {
        for base in &point_metrics() {
            let view = RestrictedMetric::new(base, vec![4, 17, 4, 9]);
            assert!(view.compact.is_none());
            assert_eq!(view.distance(0, 2), 0.0);
            assert_eq!(view.distance(2, 0), 0.0);
            assert_eq!(view.distance(0, 1), base.distance(4, 17));
            let mut out = vec![0.0; 4];
            view.accumulate_distances(0, &mut out, 1.0);
            assert_eq!(
                out,
                vec![0.0, base.distance(4, 17), 0.0, base.distance(4, 9)]
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_id_panics() {
        let dense = DistanceMatrix::zeros(3);
        let _ = RestrictedMetric::new(&dense, vec![0, 3]);
    }
}
