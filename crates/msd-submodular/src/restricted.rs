//! Sub-universe views of an incremental oracle under a local id remap.
//!
//! The sharded dynamic engine in `msd-core` keeps one persistent
//! `DynamicSession` per shard, each operating over local ids
//! `{0, .., k-1}` that denote a subset of the global ground set. Those
//! sessions still need a quality oracle — and rebuilding one per shard
//! from scratch would lose the specialized incremental structure (and the
//! weight-update support) of the global function's oracle.
//!
//! [`RestrictedOracle`] solves this by *delegation with id remap*: it wraps
//! any [`IncrementalOracle`] (owned `Box`, or `&mut` for a transient
//! borrow) together with a local → global id map, translating every query
//! and mutation. The wrapped oracle keeps doing the incremental work; the
//! view only renames elements. All structural hints (`scan_cost_hint`,
//! `supports_weight_updates`, the cache-validity contracts) pass straight
//! through, so sessions over a restricted view are exactly as fast — and
//! keep their candidate caches exactly as warm — as over the global oracle.
//!
//! The wrapped oracle's current set must stay within the mapped ids for
//! the view to be a faithful restriction; the intended usage (a fresh
//! global oracle per shard, mutated only through the view) guarantees
//! this by construction.

use std::borrow::BorrowMut;
use std::marker::PhantomData;

use crate::incremental::IncrementalOracle;
use crate::ElementId;

/// An [`IncrementalOracle`] over the sub-universe `{0, .., ids.len()-1}`
/// where local element `i` denotes global element `ids[i]` of the wrapped
/// oracle.
///
/// `B` is the ownership mode of the wrapped oracle (`Box<O>` for a
/// session-owned view, `&mut O` for a transient reduce-scoped view); `O`
/// is the oracle type itself, usually `dyn IncrementalOracle`.
pub struct RestrictedOracle<B, O: ?Sized> {
    inner: B,
    ids: Vec<ElementId>,
    _oracle: PhantomData<fn() -> Box<O>>,
}

impl<B: std::fmt::Debug, O: ?Sized> std::fmt::Debug for RestrictedOracle<B, O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RestrictedOracle")
            .field("inner", &self.inner)
            .field("ids", &self.ids)
            .finish()
    }
}

impl<O: IncrementalOracle + ?Sized, B: BorrowMut<O>> RestrictedOracle<B, O> {
    /// Builds the view. The order of `ids` defines the local indexing.
    ///
    /// # Panics
    ///
    /// Panics if any id is out of range for the wrapped oracle.
    pub fn new(inner: B, ids: Vec<ElementId>) -> Self {
        let n = {
            let o: &O = inner.borrow();
            o.ground_size()
        };
        assert!(
            ids.iter().all(|&u| (u as usize) < n),
            "restricted id out of range"
        );
        Self {
            inner,
            ids,
            _oracle: PhantomData,
        }
    }

    /// The global id of local element `u`.
    #[inline]
    fn global(&self, u: ElementId) -> ElementId {
        self.ids[u as usize]
    }

    /// The local → global id map.
    pub fn ids(&self) -> &[ElementId] {
        &self.ids
    }

    /// Consumes the view, returning the wrapped oracle.
    pub fn into_inner(self) -> B {
        self.inner
    }

    #[inline]
    fn inner(&self) -> &O {
        self.inner.borrow()
    }

    #[inline]
    fn inner_mut(&mut self) -> &mut O {
        self.inner.borrow_mut()
    }
}

impl<O: IncrementalOracle + ?Sized, B: BorrowMut<O> + Send + Sync> IncrementalOracle
    for RestrictedOracle<B, O>
{
    fn ground_size(&self) -> usize {
        self.ids.len()
    }

    fn len(&self) -> usize {
        self.inner().len()
    }

    fn contains(&self, u: ElementId) -> bool {
        self.inner().contains(self.global(u))
    }

    fn value(&self) -> f64 {
        self.inner().value()
    }

    fn marginal(&self, u: ElementId) -> f64 {
        self.inner().marginal(self.global(u))
    }

    fn marginal_bound(&self, u: ElementId) -> f64 {
        self.inner().marginal_bound(self.global(u))
    }

    fn marginal_is_exact(&self, u: ElementId) -> bool {
        self.inner().marginal_is_exact(self.global(u))
    }

    fn refresh(&mut self, u: ElementId) -> f64 {
        let g = self.global(u);
        self.inner_mut().refresh(g)
    }

    fn pair_marginal(&self, u: ElementId, v: ElementId) -> f64 {
        self.inner().pair_marginal(self.global(u), self.global(v))
    }

    fn swap_gain(&self, u: ElementId, v: ElementId) -> f64 {
        self.inner().swap_gain(self.global(u), self.global(v))
    }

    fn insert(&mut self, u: ElementId) {
        let g = self.global(u);
        self.inner_mut().insert(g);
    }

    fn remove(&mut self, u: ElementId) {
        let g = self.global(u);
        self.inner_mut().remove(g);
    }

    fn scan_cost_hint(&self) -> usize {
        self.inner().scan_cost_hint()
    }

    fn supports_weight_updates(&self) -> bool {
        self.inner().supports_weight_updates()
    }

    fn try_set_weight(&mut self, u: ElementId, value: f64) -> Option<f64> {
        let g = self.global(u);
        self.inner_mut().try_set_weight(g, value)
    }

    fn weight_updates_shift_uniformly(&self) -> bool {
        self.inner().weight_updates_shift_uniformly()
    }

    fn swap_gains_are_membership_independent(&self) -> bool {
        self.inner().swap_gains_are_membership_independent()
    }

    fn invalidate(&mut self, elems: &[ElementId]) {
        let globals: Vec<ElementId> = elems.iter().map(|&u| self.global(u)).collect();
        self.inner_mut().invalidate(&globals);
    }

    fn save_state(&self) -> crate::incremental::OracleState {
        // The id map is immutable; the inner oracle is the only mutable
        // state, so its snapshot (global-id addressed) is the view's.
        self.inner().save_state()
    }

    fn restore_state(&mut self, state: &crate::incremental::OracleState) {
        self.inner_mut().restore_state(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModularFunction, SetFunction};

    fn modular() -> ModularFunction {
        ModularFunction::new(vec![1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    }

    #[test]
    fn queries_and_mutations_remap_to_global_ids() {
        let f = modular();
        let inner = f.incremental();
        let mut view: RestrictedOracle<_, dyn IncrementalOracle + '_> =
            RestrictedOracle::new(inner, vec![5, 0, 3]);
        assert_eq!(view.ground_size(), 3);
        assert!(view.is_empty());
        view.insert(0); // global 5
        view.insert(2); // global 3
        assert_eq!(view.len(), 2);
        assert!(view.contains(0) && view.contains(2) && !view.contains(1));
        assert_eq!(view.value(), 32.0 + 8.0);
        assert_eq!(view.marginal(1), 1.0); // global 0
        assert_eq!(view.swap_gain(1, 2), 1.0 - 8.0);
        view.remove(2);
        assert_eq!(view.value(), 32.0);
        let inner = view.into_inner();
        assert!(inner.contains(5) && !inner.contains(3));
    }

    #[test]
    fn weight_updates_and_hints_delegate() {
        let f = modular();
        let mut view: RestrictedOracle<_, dyn IncrementalOracle + '_> =
            RestrictedOracle::new(f.incremental(), vec![2, 4]);
        assert!(view.supports_weight_updates());
        assert!(view.weight_updates_shift_uniformly());
        assert!(view.swap_gains_are_membership_independent());
        assert_eq!(view.scan_cost_hint(), 1);
        assert_eq!(view.try_set_weight(0, 7.0), Some(4.0)); // global 2
        assert_eq!(view.marginal(0), 7.0);
        view.invalidate(&[0]); // restores the authoritative weight
        assert_eq!(view.marginal(0), 4.0);
    }

    #[test]
    fn borrowed_oracle_works_for_transient_views() {
        let f = modular();
        let mut inner = f.incremental();
        {
            let mut view: RestrictedOracle<_, dyn IncrementalOracle + '_> =
                RestrictedOracle::new(&mut *inner, vec![1, 2]);
            view.insert(0);
            assert_eq!(view.value(), 2.0);
        }
        assert!(inner.contains(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_id_panics() {
        let f = modular();
        let _: RestrictedOracle<_, dyn IncrementalOracle + '_> =
            RestrictedOracle::new(f.incremental(), vec![6]);
    }
}
