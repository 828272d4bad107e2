//! Matroid substrate for max-sum diversification.
//!
//! Section 5 of Borodin et al. generalizes the cardinality constraint to an
//! arbitrary matroid `M = ⟨U, F⟩` and proves that single-swap local search
//! is a 2-approximation. This crate provides the independence oracles that
//! the local-search algorithm consumes:
//!
//! * [`Matroid`] — the oracle trait (independence test + helpers derived
//!   from it: extension tests, basis completion, rank computation),
//! * [`UniformMatroid`] — `|S| ≤ k` (the cardinality constraint),
//! * [`PartitionMatroid`] — per-block capacities (the paper's "ni tuples
//!   from database field i" scenario),
//! * [`TransversalMatroid`] — systems of distinct representatives over a
//!   collection of possibly-overlapping sets (the paper's second example),
//! * [`GraphicMatroid`] — forests of a graph,
//! * [`TruncatedMatroid`] — intersection with a uniform matroid, which the
//!   paper notes is again a matroid ("we could further impose the
//!   constraint that the set S has at most p elements"), and
//! * [`audit`] — exhaustive axiom verification (hereditary + augmentation)
//!   for test-sized ground sets.
//!
//! Internal algorithm helpers live in [`unionfind`] (for graphic matroids)
//! and [`matching`] (augmenting-path bipartite matching for transversal
//! matroids).

#![forbid(unsafe_code)]

pub mod audit;
pub mod graphic;
pub mod laminar;
pub mod matching;
pub mod partition;
pub mod transversal;
pub mod truncated;
pub mod uniform;
pub mod unionfind;

pub use graphic::GraphicMatroid;
pub use laminar::LaminarMatroid;
pub use partition::PartitionMatroid;
pub use transversal::TransversalMatroid;
pub use truncated::TruncatedMatroid;
pub use uniform::UniformMatroid;

/// Identifier of a ground-set element (shared with the rest of the
/// workspace).
pub type ElementId = u32;

/// An independence oracle for a matroid `M = ⟨U, F⟩`.
///
/// Implementations must satisfy the matroid axioms:
///
/// * **Hereditary** — `∅ ∈ F`, and subsets of independent sets are
///   independent.
/// * **Augmentation** — if `A, B ∈ F` and `|A| > |B|` then some
///   `e ∈ A − B` has `B + e ∈ F`.
///
/// [`audit::MatroidAudit`] verifies both axioms exhaustively on small
/// ground sets; every implementation in this crate is tested against it.
///
/// Every matroid is `Send + Sync`, so a constrained session over it is
/// thread-shareable and its exchange scans can run on a thread pool.
/// Wrappers that count oracle calls through `&self` keep their counters
/// in atomics.
pub trait Matroid: Send + Sync {
    /// Ground-set size `|U|`.
    fn ground_size(&self) -> usize;

    /// `true` iff `set` (distinct elements, arbitrary order) is independent.
    fn is_independent(&self, set: &[ElementId]) -> bool;

    /// `true` iff `set + u` is independent, for `u ∉ set`.
    ///
    /// The default allocates; implementations override with incremental
    /// checks where cheap (uniform, partition).
    fn can_add(&self, u: ElementId, set: &[ElementId]) -> bool {
        let mut with = Vec::with_capacity(set.len() + 1);
        with.extend_from_slice(set);
        with.push(u);
        self.is_independent(&with)
    }

    /// `true` iff `set − v + u` is independent, for `v ∈ set`, `u ∉ set`.
    ///
    /// This is the swap test at the heart of the paper's local-search
    /// algorithm.
    fn can_swap(&self, u: ElementId, v: ElementId, set: &[ElementId]) -> bool {
        let mut swapped: Vec<ElementId> = Vec::with_capacity(set.len());
        swapped.extend(set.iter().copied().filter(|&x| x != v));
        swapped.push(u);
        self.is_independent(&swapped)
    }

    /// Exchange-feasibility fast path for hot swap scans: `true` iff
    /// `set − out + inn` is independent, for `out ∈ set`, `inn ∉ set`.
    ///
    /// Semantically identical to [`Matroid::can_swap`]`(inn, out, set)` —
    /// the argument order names the exchange direction explicitly (`out`
    /// leaves, `inn` enters), matching the enumeration order of the
    /// dynamic session's constrained scan which probes every candidate
    /// column against every member. Families with structure cheaper than
    /// the generic swap test override this (uniform: O(1); partition:
    /// O(1) for same-block exchanges).
    fn exchange_feasible(&self, set: &[ElementId], out: ElementId, inn: ElementId) -> bool {
        self.can_swap(inn, out, set)
    }

    /// Greedily extends `set` to a basis (a maximal independent set)
    /// containing it, scanning elements in id order.
    ///
    /// # Panics
    ///
    /// Panics if `set` itself is not independent.
    fn extend_to_basis(&self, set: &[ElementId]) -> Vec<ElementId> {
        assert!(
            self.is_independent(set),
            "cannot extend a dependent set to a basis"
        );
        let mut basis = set.to_vec();
        for u in 0..self.ground_size() as ElementId {
            if !basis.contains(&u) && self.can_add(u, &basis) {
                basis.push(u);
            }
        }
        basis
    }

    /// The rank of the matroid (size of every basis).
    fn rank(&self) -> usize {
        self.extend_to_basis(&[]).len()
    }

    /// Rank of a subset: the size of a maximal independent subset of `set`.
    fn rank_of(&self, set: &[ElementId]) -> usize {
        let mut independent: Vec<ElementId> = Vec::new();
        for &u in set {
            if self.can_add(u, &independent) {
                independent.push(u);
            }
        }
        independent.len()
    }
}

impl<M: Matroid + ?Sized> Matroid for &M {
    fn ground_size(&self) -> usize {
        (**self).ground_size()
    }

    fn is_independent(&self, set: &[ElementId]) -> bool {
        (**self).is_independent(set)
    }

    fn can_add(&self, u: ElementId, set: &[ElementId]) -> bool {
        (**self).can_add(u, set)
    }

    fn can_swap(&self, u: ElementId, v: ElementId, set: &[ElementId]) -> bool {
        (**self).can_swap(u, v, set)
    }

    fn exchange_feasible(&self, set: &[ElementId], out: ElementId, inn: ElementId) -> bool {
        (**self).exchange_feasible(set, out, inn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_helpers_work_through_uniform_matroid() {
        let m = UniformMatroid::new(5, 3);
        assert!(m.can_add(0, &[1, 2]));
        assert!(!m.can_add(0, &[1, 2, 3]));
        assert!(m.can_swap(0, 3, &[1, 2, 3]));
        let basis = m.extend_to_basis(&[4]);
        assert_eq!(basis.len(), 3);
        assert!(basis.contains(&4));
        assert_eq!(m.rank(), 3);
        assert_eq!(m.rank_of(&[0, 1]), 2);
        assert_eq!(m.rank_of(&[0, 1, 2, 3, 4]), 3);
    }

    #[test]
    #[should_panic(expected = "dependent set")]
    fn extending_dependent_set_panics() {
        let m = UniformMatroid::new(5, 1);
        let _ = m.extend_to_basis(&[0, 1]);
    }

    #[test]
    fn reference_delegation() {
        let m = UniformMatroid::new(4, 2);
        let r: &dyn Matroid = &m;
        assert_eq!(r.ground_size(), 4);
        assert!(r.is_independent(&[0, 1]));
        assert!(!r.can_add(2, &[0, 1]));
        assert!(r.can_swap(2, 0, &[0, 1]));
        assert!(r.exchange_feasible(&[0, 1], 0, 2));
    }

    /// Every `exchange_feasible` override must agree with the generic
    /// `can_swap` on all (independent-set, out, in) triples of a small
    /// ground set — the fast paths are pure speedups, never semantics.
    #[test]
    fn exchange_feasible_agrees_with_can_swap_across_families() {
        let n = 6usize;
        let matroids: Vec<Box<dyn Matroid>> = vec![
            Box::new(UniformMatroid::new(n, 3)),
            Box::new(PartitionMatroid::new(vec![0, 0, 1, 1, 2, 2], vec![1, 2, 1])),
            Box::new(TruncatedMatroid::new(
                PartitionMatroid::new(vec![0, 0, 0, 1, 1, 1], vec![2, 2]),
                3,
            )),
            Box::new(GraphicMatroid::new(
                4,
                vec![(0, 1), (1, 2), (0, 2), (2, 3), (0, 3), (1, 3)],
            )),
            Box::new(LaminarMatroid::new(
                n,
                vec![((0..n as ElementId).collect(), 3), (vec![0, 1, 2], 2)],
            )),
            Box::new(TransversalMatroid::new(
                n,
                &[vec![0, 1, 2], vec![2, 3], vec![4, 5]],
            )),
        ];
        for m in &matroids {
            for mask in 0u32..(1 << n) {
                let set: Vec<ElementId> = (0..n as ElementId)
                    .filter(|&i| mask >> i & 1 == 1)
                    .collect();
                if !m.is_independent(&set) {
                    continue;
                }
                for &out in &set {
                    for inn in 0..n as ElementId {
                        if set.contains(&inn) {
                            continue;
                        }
                        assert_eq!(
                            m.exchange_feasible(&set, out, inn),
                            m.can_swap(inn, out, &set),
                            "{set:?} -{out} +{inn}"
                        );
                    }
                }
            }
        }
    }
}
