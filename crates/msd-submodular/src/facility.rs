//! Facility-location functions.
//!
//! `f(S) = Σ_{client c} w(c) · max_{u ∈ S} sim(c, u)` — every client is
//! served by its most similar selected element. This is the
//! "representativeness" term of the Lin–Bilmes document-summarization
//! objectives cited by the paper (Section 4), and a standard monotone
//! submodular function.

use crate::{ElementId, SetFunction};

/// A facility-location function.
///
/// `sim[c][u] ≥ 0` is the benefit client `c` receives from element `u`;
/// clients receive the maximum benefit over the selected set (0 for the
/// empty set, so the function is normalized).
#[derive(Debug, Clone)]
pub struct FacilityLocationFunction {
    /// `sim[c]` = row of similarities from client `c` to every element.
    sim: Vec<Vec<f64>>,
    client_weights: Vec<f64>,
    ground: usize,
}

impl FacilityLocationFunction {
    /// Builds from a client-by-element similarity matrix and client weights.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths, weights mismatch the number
    /// of clients, or any entry is negative or non-finite.
    pub fn new(sim: Vec<Vec<f64>>, client_weights: Vec<f64>) -> Self {
        assert_eq!(
            sim.len(),
            client_weights.len(),
            "one weight per client required"
        );
        let ground = sim.first().map_or(0, Vec::len);
        for (c, row) in sim.iter().enumerate() {
            assert_eq!(row.len(), ground, "similarity row {c} has wrong length");
            for (u, &s) in row.iter().enumerate() {
                assert!(
                    s.is_finite() && s >= 0.0,
                    "similarity sim[{c}][{u}] must be finite and non-negative, got {s}"
                );
            }
        }
        for (c, &w) in client_weights.iter().enumerate() {
            assert!(
                w.is_finite() && w >= 0.0,
                "weight of client {c} must be finite and non-negative, got {w}"
            );
        }
        Self {
            sim,
            client_weights,
            ground,
        }
    }

    /// Self-representation variant: the clients are the ground set itself
    /// with unit weights (`sim` square). Common in summarization, where
    /// `f(S)` measures how well `S` represents the corpus.
    pub fn self_representing(sim: Vec<Vec<f64>>) -> Self {
        let n = sim.len();
        Self::new(sim, vec![1.0; n])
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.client_weights.len()
    }

    /// Similarity row of one client (indexed by element).
    pub fn sim_row(&self, client: usize) -> &[f64] {
        &self.sim[client]
    }

    /// Weight of one client.
    pub fn client_weight(&self, client: usize) -> f64 {
        self.client_weights[client]
    }
}

impl SetFunction for FacilityLocationFunction {
    fn ground_size(&self) -> usize {
        self.ground
    }

    fn value(&self, set: &[ElementId]) -> f64 {
        if set.is_empty() {
            return 0.0;
        }
        self.sim
            .iter()
            .zip(&self.client_weights)
            .map(|(row, &w)| {
                let best = set.iter().map(|&u| row[u as usize]).fold(0.0_f64, f64::max);
                w * best
            })
            .sum()
    }

    fn marginal(&self, u: ElementId, set: &[ElementId]) -> f64 {
        self.sim
            .iter()
            .zip(&self.client_weights)
            .map(|(row, &w)| {
                let current = set.iter().map(|&v| row[v as usize]).fold(0.0_f64, f64::max);
                w * (row[u as usize] - current).max(0.0)
            })
            .sum()
    }

    fn incremental<'a>(&'a self) -> Box<dyn crate::IncrementalOracle + 'a> {
        Box::new(crate::FacilityOracle::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::FunctionAudit;

    fn sample() -> FacilityLocationFunction {
        // 3 clients, 3 elements.
        FacilityLocationFunction::new(
            vec![
                vec![1.0, 0.2, 0.0],
                vec![0.1, 0.9, 0.3],
                vec![0.0, 0.4, 0.8],
            ],
            vec![1.0, 2.0, 1.0],
        )
    }

    #[test]
    fn value_takes_best_representative_per_client() {
        let f = sample();
        assert_eq!(f.value(&[]), 0.0);
        // Only element 0: clients get 1.0, 0.1, 0.0 weighted 1,2,1 → 1.2
        assert!((f.value(&[0]) - 1.2).abs() < 1e-12);
        // Elements 0 and 2: clients get max(1.0,0.0), max(0.1,0.3), max(0.0,0.8)
        //   → 1.0 + 2·0.3 + 0.8 = 2.4
        assert!((f.value(&[0, 2]) - 2.4).abs() < 1e-12);
    }

    #[test]
    fn marginal_counts_only_improvements() {
        let f = sample();
        // Adding 1 to {0}: client0 max stays 1.0; client1 improves 0.1→0.9
        // (+2·0.8); client2 improves 0→0.4 (+0.4). Total 2.0.
        assert!((f.marginal(1, &[0]) - 2.0).abs() < 1e-12);
        // Adding 0 to {0} is not meaningful, but adding an element that
        // improves nothing gives zero:
        let g = FacilityLocationFunction::new(vec![vec![1.0, 0.5]], vec![1.0]);
        assert_eq!(g.marginal(1, &[0]), 0.0);
    }

    #[test]
    fn self_representing_square_matrix() {
        let f = FacilityLocationFunction::self_representing(vec![vec![1.0, 0.5], vec![0.5, 1.0]]);
        assert_eq!(f.num_clients(), 2);
        assert_eq!(f.ground_size(), 2);
        assert_eq!(f.value(&[0]), 1.5);
        assert_eq!(f.value(&[0, 1]), 2.0);
    }

    #[test]
    fn axioms_hold() {
        FunctionAudit::exhaustive(&sample()).assert_monotone_submodular();
    }

    #[test]
    fn axioms_hold_on_degenerate_rows() {
        let f = FacilityLocationFunction::new(
            vec![vec![0.0, 0.0, 0.0], vec![3.0, 3.0, 3.0]],
            vec![1.0, 1.0],
        );
        FunctionAudit::exhaustive(&f).assert_monotone_submodular();
    }

    #[test]
    #[should_panic(expected = "one weight per client")]
    fn weight_count_mismatch_rejected() {
        let _ = FacilityLocationFunction::new(vec![vec![1.0]], vec![]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn ragged_rows_rejected() {
        let _ = FacilityLocationFunction::new(vec![vec![1.0, 2.0], vec![1.0]], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_similarity_rejected() {
        let _ = FacilityLocationFunction::new(vec![vec![-0.1]], vec![1.0]);
    }

    #[test]
    fn empty_function() {
        let f = FacilityLocationFunction::new(vec![], vec![]);
        assert_eq!(f.ground_size(), 0);
        assert_eq!(f.value(&[]), 0.0);
    }
}
