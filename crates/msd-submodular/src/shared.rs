//! Shared-base modular quality with per-tenant copy-on-write deltas.
//!
//! The multi-tenant serving layer in `msd-core` runs `k` sessions over the
//! *same* corpus-wide modular weight vector. [`ModularOracle`]'s
//! copy-on-write override is session-local but clones the **full** weight
//! slice on the first `try_set_weight`, so `k` tenants that each touch a
//! handful of weights still pay `k·O(n)` memory. This module generalizes
//! the metric-overlay trick (`msd-metric`'s `OverlayMetric`) to the quality
//! side:
//!
//! * [`WeightOverlay`] — one immutable `Arc<[f64]>` base vector shared by
//!   every tenant, plus a sparse per-tenant delta map, `O(Δ_w)` memory per
//!   tenant instead of `O(n)`;
//! * [`SharedModularOracle`] — an [`IncrementalOracle`] over the overlay
//!   whose every floating-point operation matches [`ModularOracle`]
//!   bit-for-bit (same read → same add, in the same order), so a tenant
//!   served through the overlay is bit-identical to one served through an
//!   owned modular oracle.
//!
//! The overlay's sparse deltas are exportable in a deterministic sorted
//! order ([`SharedModularOracle::weight_deltas`]), which is what makes
//! tenant eviction snapshots plain-old-data.
//!
//! [`ModularOracle`]: crate::ModularOracle

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashMap;
use std::sync::Arc;

use crate::incremental::{IncrementalOracle, Membership, OracleState};
use crate::ElementId;

/// One shared immutable base weight vector plus sparse per-holder deltas.
///
/// Reads go through a dirty bitmap: an element with no delta reads the
/// shared base in O(1) with no hashing; an element that was overridden
/// reads its delta. Memory is `O(n)` once for the base (shared across all
/// holders via `Arc`) plus `O(Δ_w)` per holder for the delta map — the
/// bitmap is `n` *bits* of bookkeeping, not `n` floats.
#[derive(Debug, Clone)]
pub struct WeightOverlay {
    base: Arc<[f64]>,
    deltas: HashMap<ElementId, f64>,
    dirty: Vec<bool>,
}

impl WeightOverlay {
    /// Overlay with no deltas over `base`.
    ///
    /// # Panics
    ///
    /// Panics when any base weight is negative or non-finite (the modular
    /// quality contract).
    pub fn new(base: Arc<[f64]>) -> Self {
        for (u, &w) in base.iter().enumerate() {
            assert!(
                w.is_finite() && w >= 0.0,
                "weight of element {u} must be finite and non-negative, got {w}"
            );
        }
        let n = base.len();
        Self {
            base,
            deltas: HashMap::new(),
            dirty: vec![false; n],
        }
    }

    /// The shared base vector.
    pub fn base(&self) -> &Arc<[f64]> {
        &self.base
    }

    /// Ground-set size `n`.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// `true` when the ground set is empty.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Effective weight of `u`: the delta when one exists, the shared base
    /// otherwise.
    #[inline]
    pub fn weight(&self, u: ElementId) -> f64 {
        if self.dirty[u as usize] {
            self.deltas[&u]
        } else {
            self.base[u as usize]
        }
    }

    /// Overrides `w(u) = value`, returning the previous effective weight.
    pub fn set(&mut self, u: ElementId, value: f64) -> f64 {
        if self.dirty[u as usize] {
            #[allow(clippy::unwrap_used)] // dirty[u] ⇒ the delta exists
            std::mem::replace(self.deltas.get_mut(&u).unwrap(), value)
        } else {
            self.dirty[u as usize] = true;
            self.deltas.insert(u, value);
            self.base[u as usize]
        }
    }

    /// Number of overridden elements (the per-holder `Δ_w`).
    pub fn delta_count(&self) -> usize {
        self.deltas.len()
    }

    /// The sparse deltas sorted by element id — a deterministic
    /// plain-old-data export for snapshots and audits.
    pub fn deltas_sorted(&self) -> Vec<(ElementId, f64)> {
        let mut out: Vec<(ElementId, f64)> = self.deltas.iter().map(|(&u, &w)| (u, w)).collect();
        out.sort_unstable_by_key(|&(u, _)| u);
        out
    }
}

/// Per-oracle [`OracleState`] payload (see `incremental.rs` for why these
/// are named structs).
#[derive(Clone)]
struct SharedModularState {
    deltas: HashMap<ElementId, f64>,
    dirty: Vec<bool>,
    members: Membership,
    value: f64,
}

/// Modular-quality oracle over a [`WeightOverlay`]: the shared-base
/// counterpart of [`ModularOracle`](crate::ModularOracle).
///
/// Every floating-point operation mirrors the owned oracle exactly —
/// `insert` adds `w(u)`, `remove` subtracts it, `try_set_weight` applies
/// `value += new − old` when `u` is a member — so a session driven by this
/// oracle produces bit-identical trajectories to one driven by
/// `ModularOracle` over equal weights. What changes is the memory story:
/// `try_set_weight` records an `O(1)` sparse delta instead of cloning the
/// `O(n)` weight slice.
#[derive(Debug, Clone)]
pub struct SharedModularOracle {
    overlay: WeightOverlay,
    members: Membership,
    value: f64,
}

impl SharedModularOracle {
    /// Oracle over the empty set sharing `base`.
    pub fn new(base: Arc<[f64]>) -> Self {
        let overlay = WeightOverlay::new(base);
        let n = overlay.len();
        Self {
            overlay,
            members: Membership::new(n),
            value: 0.0,
        }
    }

    /// The shared base vector this oracle reads through.
    pub fn base(&self) -> &Arc<[f64]> {
        self.overlay.base()
    }

    /// Number of per-tenant weight overrides currently held (`Δ_w`).
    pub fn delta_count(&self) -> usize {
        self.overlay.delta_count()
    }

    /// The sparse weight overrides sorted by element id.
    pub fn weight_deltas(&self) -> Vec<(ElementId, f64)> {
        self.overlay.deltas_sorted()
    }

    /// Rebuilds an oracle from snapshot parts **without** re-accumulating
    /// `value` — the captured float is restored verbatim, which is what
    /// makes evict → attach round-trips bit-identical (replaying inserts
    /// would re-derive `value` through a different accumulation history).
    ///
    /// # Panics
    ///
    /// Panics when `in_set` length differs from the base length, when a
    /// delta element is out of range, or when a delta weight violates the
    /// modular contract.
    pub fn from_parts(
        base: Arc<[f64]>,
        deltas: &[(ElementId, f64)],
        in_set: &[bool],
        value: f64,
    ) -> Self {
        let mut oracle = Self::new(base);
        assert_eq!(
            in_set.len(),
            oracle.overlay.len(),
            "membership mask length must match the shared base length"
        );
        for &(u, w) in deltas {
            assert!(
                w.is_finite() && w >= 0.0,
                "weight of element {u} must be finite and non-negative, got {w}"
            );
            oracle.overlay.set(u, w);
        }
        let mut members = Membership::new(in_set.len());
        for (u, &inside) in in_set.iter().enumerate() {
            if inside {
                members.insert(u as ElementId);
            }
        }
        oracle.members = members;
        oracle.value = value;
        oracle
    }
}

impl IncrementalOracle for SharedModularOracle {
    fn ground_size(&self) -> usize {
        self.overlay.len()
    }

    fn len(&self) -> usize {
        self.members.size
    }

    fn contains(&self, u: ElementId) -> bool {
        self.members.contains(u)
    }

    fn value(&self) -> f64 {
        self.value
    }

    fn marginal(&self, u: ElementId) -> f64 {
        self.overlay.weight(u)
    }

    fn marginal_bounds(&self, out: &mut [f64]) {
        out.copy_from_slice(&self.overlay.base);
        for (&u, &w) in &self.overlay.deltas {
            out[u as usize] = w;
        }
    }

    fn pair_marginal(&self, u: ElementId, v: ElementId) -> f64 {
        self.overlay.weight(u) + self.overlay.weight(v)
    }

    fn swap_gain(&self, u: ElementId, v: ElementId) -> f64 {
        self.overlay.weight(u) - self.overlay.weight(v)
    }

    fn insert(&mut self, u: ElementId) {
        self.members.insert(u);
        self.value += self.overlay.weight(u);
    }

    fn remove(&mut self, u: ElementId) {
        self.members.remove(u);
        self.value -= self.overlay.weight(u);
    }

    fn supports_weight_updates(&self) -> bool {
        true
    }

    fn try_set_weight(&mut self, u: ElementId, value: f64) -> Option<f64> {
        assert!(
            value.is_finite() && value >= 0.0,
            "weight of element {u} must be finite and non-negative, got {value}"
        );
        let old = self.overlay.set(u, value);
        if self.members.contains(u) {
            self.value += value - old;
        }
        Some(old)
    }

    fn swap_gains_are_membership_independent(&self) -> bool {
        // swap_gain(u, v) = w(u) − w(v) regardless of S.
        true
    }

    fn save_state(&self) -> OracleState {
        OracleState::new(SharedModularState {
            deltas: self.overlay.deltas.clone(),
            dirty: self.overlay.dirty.clone(),
            members: self.members.clone(),
            value: self.value,
        })
    }

    fn restore_state(&mut self, state: &OracleState) {
        let s: &SharedModularState = state.downcast();
        self.overlay.deltas.clone_from(&s.deltas);
        self.overlay.dirty.clone_from(&s.dirty);
        self.members.clone_from(&s.members);
        self.value = s.value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModularFunction, ModularOracle};

    fn base(n: usize) -> Arc<[f64]> {
        (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect()
    }

    #[test]
    fn matches_owned_modular_oracle_bitwise() {
        let weights: Vec<f64> = base(8).to_vec();
        let f = ModularFunction::new(weights.clone());
        let mut owned = ModularOracle::new(&f);
        let mut shared = SharedModularOracle::new(base(8));

        let script: [(u8, ElementId, f64); 9] = [
            (0, 2, 0.0),
            (0, 5, 0.0),
            (2, 5, 0.625),
            (0, 7, 0.0),
            (1, 2, 0.0),
            (2, 2, 0.125),
            (0, 2, 0.0),
            (2, 0, 3.5),
            (1, 5, 0.0),
        ];
        for &(op, u, w) in &script {
            match op {
                0 => {
                    owned.insert(u);
                    shared.insert(u);
                }
                1 => {
                    owned.remove(u);
                    shared.remove(u);
                }
                _ => {
                    assert_eq!(owned.try_set_weight(u, w), shared.try_set_weight(u, w));
                }
            }
            assert_eq!(owned.value().to_bits(), shared.value().to_bits());
            for x in 0..8 {
                assert_eq!(owned.marginal(x).to_bits(), shared.marginal(x).to_bits());
                assert_eq!(
                    owned.swap_gain(x, 2).to_bits(),
                    shared.swap_gain(x, 2).to_bits()
                );
            }
        }
        // The owned oracle cloned all 8 weights on the first override; the
        // shared one holds exactly the touched elements.
        assert_eq!(shared.delta_count(), 3);
    }

    #[test]
    fn save_restore_round_trips_bitwise() {
        let mut o = SharedModularOracle::new(base(6));
        o.insert(0);
        o.insert(4);
        o.try_set_weight(4, 0.3);
        let snap = o.save_state();
        let (v, d) = (o.value(), o.delta_count());
        o.remove(4);
        o.try_set_weight(0, 7.0);
        o.restore_state(&snap);
        assert_eq!(o.value().to_bits(), v.to_bits());
        assert_eq!(o.delta_count(), d);
        assert!(o.contains(4));
        assert_eq!(o.marginal(4), 0.3);
    }

    #[test]
    fn from_parts_restores_value_verbatim() {
        let mut o = SharedModularOracle::new(base(5));
        o.insert(2);
        o.insert(3);
        o.try_set_weight(3, 0.8);
        let deltas = o.weight_deltas();
        let in_set: Vec<bool> = (0..5).map(|u| o.contains(u)).collect();
        let rebuilt =
            SharedModularOracle::from_parts(o.base().clone(), &deltas, &in_set, o.value());
        assert_eq!(rebuilt.value().to_bits(), o.value().to_bits());
        assert_eq!(rebuilt.weight_deltas(), deltas);
        for u in 0..5 {
            assert_eq!(rebuilt.contains(u), o.contains(u));
            assert_eq!(rebuilt.marginal(u).to_bits(), o.marginal(u).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "must be finite and non-negative")]
    fn rejects_negative_weight() {
        let mut o = SharedModularOracle::new(base(3));
        o.try_set_weight(0, -1.0);
    }
}
