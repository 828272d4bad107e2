//! Modular (linear/weighted) set functions.
//!
//! A modular function is `f(S) = Σ_{u ∈ S} w(u)` for element weights
//! `w(u) ≥ 0`. This is the setting of the Gollapudi–Sharma diversification
//! problem (reduced to dispersion via `d'(u,v) = w(u)+w(v)+2λd(u,v)`) and
//! of the paper's dynamic-update section, where individual weights are
//! perturbed over time (perturbation types I and II).

use crate::{ElementId, SetFunction};

/// A weighted modular function `f(S) = Σ_{u∈S} w(u)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ModularFunction {
    weights: Vec<f64>,
}

impl ModularFunction {
    /// Builds from per-element weights.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or non-finite — the paper assumes
    /// non-negative quality throughout (e.g. the weight-increase analysis
    /// of Theorem 3 uses "the original weight of s is non-negative").
    pub fn new(weights: Vec<f64>) -> Self {
        for (u, &w) in weights.iter().enumerate() {
            assert!(
                w.is_finite() && w >= 0.0,
                "weight of element {u} must be finite and non-negative, got {w}"
            );
        }
        Self { weights }
    }

    /// A uniform weight for every element.
    pub fn uniform(n: usize, w: f64) -> Self {
        Self::new(vec![w; n])
    }

    /// Weight of one element.
    pub fn weight(&self, u: ElementId) -> f64 {
        self.weights[u as usize]
    }

    /// All weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Overwrites the weight of `u` (used by the dynamic-update driver).
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite weights.
    pub fn set_weight(&mut self, u: ElementId, w: f64) {
        assert!(
            w.is_finite() && w >= 0.0,
            "weight of element {u} must be finite and non-negative, got {w}"
        );
        self.weights[u as usize] = w;
    }

    /// Total weight of the ground set (an upper bound on `f`).
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }
}

impl SetFunction for ModularFunction {
    fn ground_size(&self) -> usize {
        self.weights.len()
    }

    fn value(&self, set: &[ElementId]) -> f64 {
        set.iter().map(|&u| self.weights[u as usize]).sum()
    }

    /// O(1): the marginal of a modular function is the weight itself,
    /// independent of `S`.
    fn marginal(&self, u: ElementId, _set: &[ElementId]) -> f64 {
        self.weights[u as usize]
    }

    fn singleton(&self, u: ElementId) -> f64 {
        self.weights[u as usize]
    }

    /// O(1): swapping `v` for `u` changes the value by `w(u) − w(v)`.
    fn swap_gain(&self, u: ElementId, v: ElementId, _set: &[ElementId]) -> f64 {
        self.weights[u as usize] - self.weights[v as usize]
    }

    fn incremental<'a>(&'a self) -> Box<dyn crate::IncrementalOracle + 'a> {
        Box::new(crate::ModularOracle::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::FunctionAudit;

    #[test]
    fn value_is_weight_sum() {
        let f = ModularFunction::new(vec![1.0, 2.0, 4.0]);
        assert_eq!(f.value(&[]), 0.0);
        assert_eq!(f.value(&[0, 2]), 5.0);
        assert_eq!(f.value(&[0, 1, 2]), 7.0);
        assert_eq!(f.total_weight(), 7.0);
    }

    #[test]
    fn marginal_ignores_the_set() {
        let f = ModularFunction::new(vec![1.0, 2.0, 4.0]);
        assert_eq!(f.marginal(1, &[]), 2.0);
        assert_eq!(f.marginal(1, &[0, 2]), 2.0);
        assert_eq!(f.singleton(2), 4.0);
    }

    #[test]
    fn uniform_weights() {
        let f = ModularFunction::uniform(4, 0.5);
        assert_eq!(f.value(&[0, 1, 2, 3]), 2.0);
        assert_eq!(f.weight(3), 0.5);
    }

    #[test]
    fn set_weight_updates() {
        let mut f = ModularFunction::uniform(3, 1.0);
        f.set_weight(1, 9.0);
        assert_eq!(f.weight(1), 9.0);
        assert_eq!(f.value(&[0, 1]), 10.0);
        assert_eq!(f.weights(), &[1.0, 9.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_rejected() {
        let _ = ModularFunction::new(vec![1.0, -0.5]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_update_rejected() {
        ModularFunction::uniform(2, 1.0).set_weight(0, -1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_weight_rejected() {
        let _ = ModularFunction::new(vec![f64::NAN]);
    }

    #[test]
    fn axioms_hold() {
        let f = ModularFunction::new(vec![0.3, 0.0, 2.5, 1.1, 0.7]);
        FunctionAudit::exhaustive(&f).assert_monotone_submodular();
    }
}
