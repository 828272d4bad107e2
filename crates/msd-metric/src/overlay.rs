//! Sparse perturbation overlays over arbitrary base metrics.
//!
//! The dynamic-update setting rewrites individual distances, but an implicit
//! metric such as [`PointMetric`](crate::PointMetric) has no storage to
//! rewrite — its distances are derived from coordinates. [`OverlayMetric`]
//! closes that gap: it wraps *any* [`Metric`] and keeps the rewritten pairs
//! in a sparse side table, giving every base metric a
//! [`PerturbableMetric`] implementation at `O(#overrides)` extra memory.
//! This is what lets the sharded dynamic engine in `msd-core` run
//! perturbation streams over ground sets that never materialize `n²`
//! distances.
//!
//! # Bit-identity contract
//!
//! `OverlayMetric` behaves exactly like a materialized copy of the base
//! metric with [`set_distance`](PerturbableMetric::set_distance) applied:
//! reads return the override verbatim (or the base value bit-for-bit), and
//! [`Metric::accumulate_distances`] issues exactly one fused
//! `out[v] += factor · d(u, v)` per candidate. Rows without overrides
//! delegate straight to the base kernel; rows with overrides save the
//! overridden slots' incoming values, run the base kernel over the whole
//! row, and rewrite just those slots as `saved + factor · d_override` — so
//! every slot's final value is its incoming value plus exactly one fused
//! multiply-add, at clean-row cost plus `O(Δ_row)`.

use std::collections::HashMap;

use crate::{ElementId, Metric, PerturbableMetric};

/// Key of an overridden unordered pair, normalized to `(min, max)`.
#[inline]
fn pair_key(u: ElementId, v: ElementId) -> (ElementId, ElementId) {
    if u < v {
        (u, v)
    } else {
        (v, u)
    }
}

/// A [`Metric`] plus a sparse set of rewritten pairwise distances.
///
/// See the [module docs](self) for the equivalence contract.
#[derive(Debug, Clone)]
pub struct OverlayMetric<M> {
    inner: M,
    /// `(min, max) → d` for every rewritten pair.
    overrides: HashMap<(ElementId, ElementId), f64>,
    /// `u → sorted partners v` with an override on `{u, v}` (both
    /// directions), so the row sweep can tell override-free rows apart in
    /// O(1) and patch overridden slots in one ordered pass.
    partners: HashMap<ElementId, Vec<ElementId>>,
    /// `dirty_row[u]` ⟺ some override touches row `u`. Point reads on
    /// clean rows — the overwhelming majority under sparse perturbation —
    /// skip the hash lookup entirely (one indexed load instead), keeping
    /// per-candidate `distance` reads on shared-corpus sessions at the
    /// base metric's cost.
    dirty_row: Vec<bool>,
}

impl<M: Metric> OverlayMetric<M> {
    /// Wraps `inner` with an empty overlay (behaves exactly like `inner`).
    pub fn new(inner: M) -> Self {
        let n = inner.len();
        Self {
            inner,
            overrides: HashMap::new(),
            partners: HashMap::new(),
            dirty_row: vec![false; n],
        }
    }

    /// The wrapped base metric.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Consumes the overlay, returning the base metric.
    pub fn into_inner(self) -> M {
        self.inner
    }

    /// Number of rewritten pairs.
    pub fn override_count(&self) -> usize {
        self.overrides.len()
    }

    /// The overlay deltas: every rewritten pair `(u, v)` (with `u < v`)
    /// and its override distance, in unspecified order.
    ///
    /// This is the audit hook behind transactional rollback in
    /// `msd-core`: a checkpoint restores a session's overlay by clone,
    /// and the fault-injection suite asserts via this iterator that the
    /// restored delta set matches the pre-batch one exactly.
    pub fn overrides(&self) -> impl Iterator<Item = ((ElementId, ElementId), f64)> + '_ {
        self.overrides.iter().map(|(&pair, &d)| (pair, d))
    }

    /// The overlay deltas sorted by `(u, v)` key — the deterministic
    /// plain-old-data export behind tenant eviction snapshots in
    /// `msd-core`: replaying the returned triples through
    /// [`set_distance`](PerturbableMetric::set_distance) in order rebuilds
    /// an overlay with identical reads *and* identical sorted partner
    /// lists, so row sweeps on the re-attached tenant stay bit-identical.
    pub fn override_deltas(&self) -> Vec<(ElementId, ElementId, f64)> {
        let mut out: Vec<(ElementId, ElementId, f64)> = self
            .overrides
            .iter()
            .map(|(&(u, v), &d)| (u, v, d))
            .collect();
        out.sort_unstable_by_key(|&(u, v, _)| (u, v));
        out
    }
}

impl<M: Metric> Metric for OverlayMetric<M> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    #[inline]
    fn distance(&self, u: ElementId, v: ElementId) -> f64 {
        if u == v {
            return self.inner.distance(u, v); // keep base bounds checks
        }
        // Clean-row fast path: one indexed load instead of a hash probe.
        // Out-of-range `u` falls through to the base oracle's bounds check.
        if !self.dirty_row.get(u as usize).copied().unwrap_or(false) {
            return self.inner.distance(u, v);
        }
        match self.overrides.get(&pair_key(u, v)) {
            Some(&d) => d,
            None => self.inner.distance(u, v),
        }
    }

    fn accumulate_distances(&self, u: ElementId, out: &mut [f64], factor: f64) {
        // Same clean-row fast path as `distance`: override-free rows
        // delegate without touching the hash maps.
        if !self.dirty_row.get(u as usize).copied().unwrap_or(false) {
            return self.inner.accumulate_distances(u, out, factor);
        }
        match self.partners.get(&u) {
            None => self.inner.accumulate_distances(u, out, factor),
            Some(parts) => {
                let n = self.inner.len();
                assert!(out.len() >= n, "output buffer too small");
                // Save the overridden slots' incoming values, run the
                // base row kernel over the whole row (vectorized,
                // clean-row cost), then rewrite each overridden slot as
                // `saved + factor · d_override`. Every slot's final value
                // is its incoming value plus exactly one fused
                // `factor · d(u, v)`, so the result stays bit-identical
                // to a materialized perturbed copy while a dirty row
                // costs only `O(Δ_row)` over a clean one.
                let saved: Vec<f64> = parts.iter().map(|&v| out[v as usize]).collect();
                self.inner.accumulate_distances(u, out, factor);
                for (&v, &prev) in parts.iter().zip(&saved) {
                    out[v as usize] = prev + factor * self.overrides[&pair_key(u, v)];
                }
            }
        }
    }
}

impl<M: Metric> PerturbableMetric for OverlayMetric<M> {
    fn set_distance(&mut self, u: ElementId, v: ElementId, value: f64) -> f64 {
        assert!(u != v, "cannot set diagonal distance d({u},{u})");
        let n = self.inner.len();
        assert!((u as usize) < n && (v as usize) < n, "element out of range");
        assert!(
            value.is_finite() && value >= 0.0,
            "distance must be finite and non-negative"
        );
        let key = pair_key(u, v);
        match self.overrides.insert(key, value) {
            Some(prev) => prev,
            None => {
                // Partner lists stay sorted: iteration order (and with
                // it the row sweep's slot-rewrite order) is then
                // deterministic regardless of insertion history.
                for (row, partner) in [(u, v), (v, u)] {
                    let list = self.partners.entry(row).or_default();
                    if let Err(pos) = list.binary_search(&partner) {
                        list.insert(pos, partner);
                    }
                }
                self.dirty_row[u as usize] = true;
                self.dirty_row[v as usize] = true;
                self.inner.distance(u, v)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistanceMatrix;

    fn base() -> DistanceMatrix {
        DistanceMatrix::from_fn(6, |u, v| 1.0 + f64::from(u + v) * 0.5)
    }

    #[test]
    fn empty_overlay_is_transparent() {
        let m = base();
        let o = OverlayMetric::new(m.clone());
        for u in 0..6u32 {
            let mut got = vec![0.0; 6];
            let mut want = vec![0.0; 6];
            o.accumulate_distances(u, &mut got, 2.5);
            m.accumulate_distances(u, &mut want, 2.5);
            assert_eq!(got, want);
            for v in 0..6u32 {
                assert_eq!(o.distance(u, v), m.distance(u, v));
            }
        }
        assert_eq!(o.override_count(), 0);
    }

    #[test]
    fn overlay_matches_materialized_perturbed_matrix_bitwise() {
        let mut dense = base();
        let mut o = OverlayMetric::new(base());
        let edits = [(0u32, 3u32, 9.25), (3, 5, 0.0), (0, 3, 4.5), (2, 1, 7.75)];
        for (u, v, d) in edits {
            let prev_dense = dense.distance(u, v);
            dense.set(u, v, d);
            assert_eq!(o.set_distance(u, v, d), prev_dense);
        }
        for u in 0..6u32 {
            let mut got = vec![0.5; 6];
            let mut want = vec![0.5; 6];
            o.accumulate_distances(u, &mut got, -1.75);
            dense.accumulate_distances(u, &mut want, -1.75);
            assert_eq!(got, want, "row {u}");
            for v in 0..6u32 {
                assert_eq!(o.distance(u, v), dense.distance(u, v), "({u},{v})");
            }
        }
        assert_eq!(o.override_count(), 3); // (0,3) rewritten twice
    }

    #[test]
    fn set_distance_returns_previous_override() {
        let mut o = OverlayMetric::new(base());
        let prev = o.set_distance(1, 4, 3.0);
        assert_eq!(prev, base().distance(1, 4));
        assert_eq!(o.set_distance(4, 1, 8.0), 3.0);
        assert_eq!(o.distance(1, 4), 8.0);
    }

    #[test]
    fn shared_arc_base_overlays_are_isolated() {
        // Two overlays over one `Arc` base: conflicting rewrites of the
        // same pair never leak across overlays or into the base.
        let base = std::sync::Arc::new(base());
        let mut a = OverlayMetric::new(std::sync::Arc::clone(&base));
        let mut b = OverlayMetric::new(std::sync::Arc::clone(&base));
        let original = base.distance(1, 4);
        assert_eq!(a.set_distance(1, 4, 2.0), original);
        assert_eq!(b.set_distance(4, 1, 9.0), original);
        assert_eq!(a.distance(1, 4), 2.0);
        assert_eq!(b.distance(1, 4), 9.0);
        assert_eq!(base.distance(1, 4), original);
        // Row kernels diverge per overlay, clean rows stay bit-identical.
        for u in 0..6u32 {
            let mut got_a = vec![0.0; 6];
            let mut got_b = vec![0.0; 6];
            a.accumulate_distances(u, &mut got_a, 1.5);
            b.accumulate_distances(u, &mut got_b, 1.5);
            if u != 1 && u != 4 {
                assert_eq!(got_a, got_b, "clean row {u}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn diagonal_set_panics() {
        let mut o = OverlayMetric::new(base());
        o.set_distance(2, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_distance_panics() {
        let mut o = OverlayMetric::new(base());
        o.set_distance(0, 1, -1.0);
    }
}
