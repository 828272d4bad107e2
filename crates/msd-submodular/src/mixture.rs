//! Non-negative mixtures of set functions.
//!
//! Monotone submodular functions are closed under non-negative linear
//! combinations; mixtures let applications blend, say, a modular relevance
//! score with a coverage term and a facility-location representativeness
//! term — the exact structure of the Lin–Bilmes summarization objectives
//! cited in Section 4 of the paper.

use crate::{ElementId, SetFunction};

/// `f(S) = Σ_i c_i · f_i(S)` with `c_i ≥ 0`.
///
/// Components are stored as [`SetFunction`] trait objects, which are
/// `Send + Sync` like every set function.
pub struct MixtureFunction {
    components: Vec<(f64, Box<dyn SetFunction>)>,
    ground: usize,
}

impl std::fmt::Debug for MixtureFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MixtureFunction")
            .field("components", &self.components.len())
            .field("ground", &self.ground)
            .finish()
    }
}

impl MixtureFunction {
    /// Creates an empty mixture (the zero function) over `n` elements.
    pub fn new(n: usize) -> Self {
        Self {
            components: Vec::new(),
            ground: n,
        }
    }

    /// Adds a weighted component; returns `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics if `coefficient` is negative/non-finite or the component's
    /// ground size differs from the mixture's.
    #[must_use]
    pub fn with(mut self, coefficient: f64, component: impl SetFunction + 'static) -> Self {
        assert!(
            coefficient.is_finite() && coefficient >= 0.0,
            "mixture coefficient must be finite and non-negative, got {coefficient}"
        );
        assert_eq!(
            component.ground_size(),
            self.ground,
            "component ground size mismatch"
        );
        self.components.push((coefficient, Box::new(component)));
        self
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// `true` when the mixture has no components.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

impl SetFunction for MixtureFunction {
    fn ground_size(&self) -> usize {
        self.ground
    }

    fn value(&self, set: &[ElementId]) -> f64 {
        self.components.iter().map(|(c, f)| c * f.value(set)).sum()
    }

    fn marginal(&self, u: ElementId, set: &[ElementId]) -> f64 {
        self.components
            .iter()
            .map(|(c, f)| c * f.marginal(u, set))
            .sum()
    }

    fn incremental<'a>(&'a self) -> Box<dyn crate::IncrementalOracle + 'a> {
        Box::new(crate::incremental::MixtureOracle::from_parts(
            self.ground,
            self.components
                .iter()
                .map(|(c, f)| (*c, f.incremental()))
                .collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::FunctionAudit;
    use crate::{CoverageFunction, ModularFunction};

    fn sample() -> MixtureFunction {
        MixtureFunction::new(3)
            .with(2.0, ModularFunction::new(vec![1.0, 0.5, 0.0]))
            .with(
                1.0,
                CoverageFunction::new(vec![vec![0], vec![0, 1], vec![1]], vec![3.0, 5.0]),
            )
    }

    #[test]
    fn value_is_weighted_sum_of_components() {
        let f = sample();
        // f({0}) = 2·1.0 + 1·3.0 = 5
        assert_eq!(f.value(&[0]), 5.0);
        // f({0,1}) = 2·1.5 + 1·8.0 = 11
        assert_eq!(f.value(&[0, 1]), 11.0);
        assert_eq!(f.value(&[]), 0.0);
    }

    #[test]
    fn marginal_is_weighted_sum_of_marginals() {
        let f = sample();
        // marginal(2, {0}) = 2·0 + 1·5 = 5 (topic 1 is new)
        assert_eq!(f.marginal(2, &[0]), 5.0);
    }

    #[test]
    fn empty_mixture_is_zero() {
        let f = MixtureFunction::new(4);
        assert!(f.is_empty());
        assert_eq!(f.value(&[0, 1, 2]), 0.0);
        assert_eq!(f.marginal(3, &[]), 0.0);
    }

    #[test]
    fn mixture_of_monotone_submodular_is_monotone_submodular() {
        FunctionAudit::exhaustive(&sample()).assert_monotone_submodular();
    }

    #[test]
    fn zero_coefficient_component_is_inert() {
        let f = MixtureFunction::new(2)
            .with(0.0, ModularFunction::new(vec![100.0, 100.0]))
            .with(1.0, ModularFunction::new(vec![1.0, 2.0]));
        assert_eq!(f.value(&[0, 1]), 3.0);
        assert_eq!(f.len(), 2);
    }

    #[test]
    #[should_panic(expected = "ground size mismatch")]
    fn ground_size_mismatch_rejected() {
        let _ = MixtureFunction::new(3).with(1.0, ModularFunction::new(vec![1.0]));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_coefficient_rejected() {
        let _ = MixtureFunction::new(1).with(-1.0, ModularFunction::new(vec![1.0]));
    }
}
