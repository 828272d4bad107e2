//! Set-function substrate for max-sum diversification.
//!
//! The quality term `f(S)` of the paper's objective
//! `φ(S) = f(S) + λ·Σ d(u,v)` is a *normalized monotone submodular* set
//! function accessed through a value oracle. This crate provides:
//!
//! * [`SetFunction`] — the value-oracle trait (`f(S)` and the marginal
//!   `f_u(S) = f(S + u) − f(S)`),
//! * [`modular`] — weighted (modular/linear) functions, the setting of the
//!   original Gollapudi–Sharma problem and of the paper's dynamic-update
//!   section,
//! * [`coverage`] — weighted coverage functions,
//! * [`facility`] — facility-location functions,
//! * [`saturated`] — concave-over-modular functions (√, log, capped),
//! * [`mixture`] — non-negative linear combinations (submodularity is
//!   closed under these), and
//! * [`audit`] — empirical monotonicity/submodularity verification used by
//!   the property-test suites.
//!
//! # Oracle conventions
//!
//! Sets are slices of [`ElementId`]s with no duplicates; order is
//! irrelevant. All provided functions are normalized (`f(∅) = 0`),
//! monotone, and submodular — each module's tests audit those axioms via
//! [`audit`].

#![forbid(unsafe_code)]

pub mod audit;
pub mod coverage;
pub mod facility;
pub mod incremental;
pub mod logdet;
pub mod mixture;
pub mod modular;
pub mod restricted;
pub mod saturated;
pub mod shared;

pub use coverage::CoverageFunction;
pub use facility::FacilityLocationFunction;
pub use incremental::{
    CoverageOracle, FacilityOracle, GenericOracle, IncrementalOracle, MixtureOracle, ModularOracle,
    OracleState, ZeroOracle,
};
pub use logdet::LogDetFunction;
pub use mixture::MixtureFunction;
pub use modular::ModularFunction;
pub use restricted::RestrictedOracle;
pub use saturated::{ConcaveOverModular, ConcaveShape};
pub use shared::{SharedModularOracle, WeightOverlay};

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Identifier of a ground-set element (shared with `msd-metric`).
pub type ElementId = u32;

/// A normalized set function `f : 2^U → ℝ≥0` accessed by value oracle.
///
/// Implementations provided by this crate are monotone and submodular;
/// the trait itself does not enforce those properties (the paper's
/// counterexample experiments intentionally use degenerate functions).
///
/// Every set function is `Send + Sync`, so any problem can be scanned
/// from a thread pool and any session built over it is thread-shareable.
/// Wrappers that count calls through `&self` keep their counters in
/// atomics, as [`CountingOracle`] does.
pub trait SetFunction: Send + Sync {
    /// Ground-set size `|U|`.
    fn ground_size(&self) -> usize;

    /// `f(S)`. `set` contains distinct elements in arbitrary order.
    fn value(&self, set: &[ElementId]) -> f64;

    /// Marginal gain `f_u(S) = f(S + u) − f(S)`.
    ///
    /// The default computes two oracle values; implementations override it
    /// with O(1)/O(|S|) incremental formulas where possible.
    fn marginal(&self, u: ElementId, set: &[ElementId]) -> f64 {
        let mut with: Vec<ElementId> = Vec::with_capacity(set.len() + 1);
        with.extend_from_slice(set);
        with.push(u);
        self.value(&with) - self.value(set)
    }

    /// `f({u})` — the singleton value, used by several initializers.
    fn singleton(&self, u: ElementId) -> f64 {
        self.value(&[u])
    }

    /// Swap gain `f(S − v + u) − f(S)` for `v ∈ set`, `u ∉ set`.
    ///
    /// This is the quality component of the local-search and
    /// dynamic-update swap tests (Sections 5 and 6). The default evaluates
    /// the oracle twice; [`ModularFunction`] overrides it with the O(1)
    /// formula `w(u) − w(v)`.
    fn swap_gain(&self, u: ElementId, v: ElementId, set: &[ElementId]) -> f64 {
        let mut swapped: Vec<ElementId> = Vec::with_capacity(set.len());
        swapped.extend(set.iter().copied().filter(|&x| x != v));
        swapped.push(u);
        self.value(&swapped) - self.value(set)
    }

    /// A stateful [`IncrementalOracle`] over the empty set.
    ///
    /// The default wraps the value oracle in a [`GenericOracle`] (exact
    /// marginals at `O(cost(f))` per read, plus lazy upper bounds). The
    /// structured functions of this crate override it with oracles whose
    /// marginal reads are O(1) and whose mutations are `O(touched)` — see
    /// [`incremental`] for the complexity table.
    fn incremental<'a>(&'a self) -> Box<dyn IncrementalOracle + 'a> {
        Box::new(GenericOracle::new(self))
    }

    /// [`Self::incremental`] pre-seeded with `set`.
    fn incremental_from<'a>(&'a self, set: &[ElementId]) -> Box<dyn IncrementalOracle + 'a> {
        let mut oracle = self.incremental();
        for &u in set {
            oracle.insert(u);
        }
        oracle
    }
}

impl<F: SetFunction + ?Sized> SetFunction for &F {
    fn ground_size(&self) -> usize {
        (**self).ground_size()
    }

    fn value(&self, set: &[ElementId]) -> f64 {
        (**self).value(set)
    }

    fn marginal(&self, u: ElementId, set: &[ElementId]) -> f64 {
        (**self).marginal(u, set)
    }

    fn singleton(&self, u: ElementId) -> f64 {
        (**self).singleton(u)
    }

    fn swap_gain(&self, u: ElementId, v: ElementId, set: &[ElementId]) -> f64 {
        (**self).swap_gain(u, v, set)
    }

    fn incremental<'a>(&'a self) -> Box<dyn IncrementalOracle + 'a> {
        (**self).incremental()
    }
}

/// Shared-ownership quality: one corpus-wide function driving any number
/// of tenant sessions (the multi-tenant serving layer in `msd-core`)
/// without cloning its weight/coverage/similarity tables. Oracle
/// construction forwards to the inner function's specialized override, so
/// an `Arc<ModularFunction>` still gets the O(1) modular oracle — each
/// oracle instance keeps its *own* session-local mutable state (e.g.
/// [`ModularOracle`]'s copy-on-write weights), so per-tenant weight
/// perturbations never touch the shared base.
impl<F: SetFunction + ?Sized> SetFunction for std::sync::Arc<F> {
    fn ground_size(&self) -> usize {
        (**self).ground_size()
    }

    fn value(&self, set: &[ElementId]) -> f64 {
        (**self).value(set)
    }

    fn marginal(&self, u: ElementId, set: &[ElementId]) -> f64 {
        (**self).marginal(u, set)
    }

    fn singleton(&self, u: ElementId) -> f64 {
        (**self).singleton(u)
    }

    fn swap_gain(&self, u: ElementId, v: ElementId, set: &[ElementId]) -> f64 {
        (**self).swap_gain(u, v, set)
    }

    fn incremental<'a>(&'a self) -> Box<dyn IncrementalOracle + 'a> {
        (**self).incremental()
    }
}

/// The identically-zero function.
///
/// With `f ≡ 0` the diversification objective degenerates to max-sum
/// *dispersion*; Corollary 1 of the paper derives the Ravi–Rosenkrantz–Tayi
/// greedy's 2-approximation exactly this way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroFunction {
    ground: usize,
}

impl ZeroFunction {
    /// Zero function over a ground set of size `n`.
    pub fn new(n: usize) -> Self {
        Self { ground: n }
    }
}

impl SetFunction for ZeroFunction {
    fn ground_size(&self) -> usize {
        self.ground
    }

    fn value(&self, _set: &[ElementId]) -> f64 {
        0.0
    }

    fn marginal(&self, _u: ElementId, _set: &[ElementId]) -> f64 {
        0.0
    }

    fn incremental<'a>(&'a self) -> Box<dyn IncrementalOracle + 'a> {
        Box::new(ZeroOracle::new(self))
    }
}

/// A wrapper that counts value-oracle calls.
///
/// Submodular-maximization algorithms are conventionally measured in oracle
/// queries; the experiment harness reports these counts alongside wall
/// times. The counters are relaxed atomics, so a counted function stays
/// `Sync` and can be scanned from a thread pool.
#[derive(Debug)]
pub struct CountingOracle<F> {
    inner: F,
    value_calls: AtomicU64,
    marginal_calls: AtomicU64,
}

impl<F: SetFunction> CountingOracle<F> {
    /// Wraps a function, starting all counters at zero.
    pub fn new(inner: F) -> Self {
        Self {
            inner,
            value_calls: AtomicU64::new(0),
            marginal_calls: AtomicU64::new(0),
        }
    }

    /// Number of `value` calls so far.
    pub fn value_calls(&self) -> u64 {
        self.value_calls.load(Relaxed)
    }

    /// Number of `marginal` calls so far.
    pub fn marginal_calls(&self) -> u64 {
        self.marginal_calls.load(Relaxed)
    }

    /// Resets both counters.
    pub fn reset(&self) {
        self.value_calls.store(0, Relaxed);
        self.marginal_calls.store(0, Relaxed);
    }

    /// Unwraps the inner function.
    pub fn into_inner(self) -> F {
        self.inner
    }
}

impl<F: SetFunction> SetFunction for CountingOracle<F> {
    fn ground_size(&self) -> usize {
        self.inner.ground_size()
    }

    fn value(&self, set: &[ElementId]) -> f64 {
        self.value_calls.fetch_add(1, Relaxed);
        self.inner.value(set)
    }

    fn marginal(&self, u: ElementId, set: &[ElementId]) -> f64 {
        self.marginal_calls.fetch_add(1, Relaxed);
        self.inner.marginal(u, set)
    }

    fn swap_gain(&self, u: ElementId, v: ElementId, set: &[ElementId]) -> f64 {
        self.marginal_calls.fetch_add(1, Relaxed);
        self.inner.swap_gain(u, v, set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_function_is_identically_zero() {
        let f = ZeroFunction::new(10);
        assert_eq!(f.ground_size(), 10);
        assert_eq!(f.value(&[]), 0.0);
        assert_eq!(f.value(&[1, 2, 3]), 0.0);
        assert_eq!(f.marginal(5, &[1]), 0.0);
        assert_eq!(f.singleton(9), 0.0);
    }

    #[test]
    fn default_marginal_is_value_difference() {
        // Cardinality function via the default-marginal path.
        struct Card(usize);
        impl SetFunction for Card {
            fn ground_size(&self) -> usize {
                self.0
            }
            fn value(&self, set: &[ElementId]) -> f64 {
                set.len() as f64
            }
        }
        let f = Card(5);
        assert_eq!(f.marginal(4, &[0, 1]), 1.0);
        assert_eq!(f.singleton(0), 1.0);
    }

    #[test]
    fn counting_oracle_counts() {
        let f = CountingOracle::new(ZeroFunction::new(3));
        let _ = f.value(&[0]);
        let _ = f.value(&[0, 1]);
        let _ = f.marginal(2, &[0]);
        assert_eq!(f.value_calls(), 2);
        assert_eq!(f.marginal_calls(), 1);
        f.reset();
        assert_eq!(f.value_calls(), 0);
        assert_eq!(f.marginal_calls(), 0);
        assert_eq!(f.into_inner().ground_size(), 3);
    }

    #[test]
    fn shared_and_borrowed_qualities_keep_the_specialized_oracle() {
        let f = std::sync::Arc::new(ModularFunction::new(vec![0.5; 12]));
        let borrowed = &*f;
        for oracle in [f.incremental(), borrowed.incremental()] {
            assert_eq!(oracle.scan_cost_hint(), 1);
            assert!(oracle.supports_weight_updates());
        }
    }

    #[test]
    fn reference_delegation() {
        let f = ZeroFunction::new(4);
        let r: &dyn SetFunction = &f;
        assert_eq!(r.ground_size(), 4);
        assert_eq!(r.value(&[0, 1]), 0.0);
        assert_eq!(r.marginal(0, &[]), 0.0);
        assert_eq!(r.singleton(1), 0.0);
    }
}
