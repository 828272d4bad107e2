//! Weighted coverage functions.
//!
//! `f(S) = Σ_{topic t covered by S} w(t)` where each element covers a set of
//! topics. Coverage is the canonical monotone submodular function and models
//! the paper's motivating database scenario: a query result "covers" the
//! facets it is relevant to, and additional results covering the same facets
//! give no extra quality.

use crate::{ElementId, SetFunction};

/// A weighted coverage function over a universe of `topics`.
///
/// Element `u` covers the topic set `covers[u]`; topic `t` has weight
/// `topic_weights[t] ≥ 0`.
#[derive(Debug, Clone)]
pub struct CoverageFunction {
    /// `covers[u]` = sorted topic ids covered by element `u`.
    covers: Vec<Vec<u32>>,
    topic_weights: Vec<f64>,
}

impl CoverageFunction {
    /// Builds a coverage function.
    ///
    /// # Panics
    ///
    /// Panics if a topic id is out of range or a weight is negative or
    /// non-finite.
    pub fn new(mut covers: Vec<Vec<u32>>, topic_weights: Vec<f64>) -> Self {
        let t = topic_weights.len() as u32;
        for (topic, &w) in topic_weights.iter().enumerate() {
            assert!(
                w.is_finite() && w >= 0.0,
                "weight of topic {topic} must be finite and non-negative, got {w}"
            );
        }
        for (u, c) in covers.iter_mut().enumerate() {
            c.sort_unstable();
            c.dedup();
            if let Some(&max) = c.last() {
                assert!(max < t, "element {u} covers out-of-range topic {max}");
            }
        }
        Self {
            covers,
            topic_weights,
        }
    }

    /// Unweighted coverage (every topic has weight 1).
    pub fn unweighted(covers: Vec<Vec<u32>>, num_topics: usize) -> Self {
        Self::new(covers, vec![1.0; num_topics])
    }

    /// Number of topics in the universe.
    pub fn num_topics(&self) -> usize {
        self.topic_weights.len()
    }

    /// Topics covered by one element (sorted, deduplicated).
    pub fn covered_by(&self, u: ElementId) -> &[u32] {
        &self.covers[u as usize]
    }

    /// Weight of one topic.
    pub fn topic_weight(&self, t: u32) -> f64 {
        self.topic_weights[t as usize]
    }

    /// All topic weights.
    pub fn topic_weights(&self) -> &[f64] {
        &self.topic_weights
    }

    /// Marks the topics covered by `set` in `seen` and returns the total
    /// weight of newly-marked topics.
    fn cover_into(&self, set: &[ElementId], seen: &mut [bool]) -> f64 {
        let mut total = 0.0;
        for &u in set {
            for &t in &self.covers[u as usize] {
                let t = t as usize;
                if !seen[t] {
                    seen[t] = true;
                    total += self.topic_weights[t];
                }
            }
        }
        total
    }
}

impl SetFunction for CoverageFunction {
    fn ground_size(&self) -> usize {
        self.covers.len()
    }

    fn value(&self, set: &[ElementId]) -> f64 {
        let mut seen = vec![false; self.topic_weights.len()];
        self.cover_into(set, &mut seen)
    }

    fn marginal(&self, u: ElementId, set: &[ElementId]) -> f64 {
        let mut seen = vec![false; self.topic_weights.len()];
        self.cover_into(set, &mut seen);
        self.covers[u as usize]
            .iter()
            .filter(|&&t| !seen[t as usize])
            .map(|&t| self.topic_weights[t as usize])
            .sum()
    }

    fn incremental<'a>(&'a self) -> Box<dyn crate::IncrementalOracle + 'a> {
        Box::new(crate::CoverageOracle::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::FunctionAudit;

    fn sample() -> CoverageFunction {
        CoverageFunction::new(
            vec![vec![0, 1], vec![1, 2], vec![3], vec![0, 1, 2, 3]],
            vec![1.0, 2.0, 4.0, 8.0],
        )
    }

    #[test]
    fn value_counts_each_topic_once() {
        let f = sample();
        assert_eq!(f.value(&[]), 0.0);
        assert_eq!(f.value(&[0]), 3.0); // topics 0, 1
        assert_eq!(f.value(&[0, 1]), 7.0); // topics 0, 1, 2
        assert_eq!(f.value(&[0, 1, 2]), 15.0); // all topics
        assert_eq!(f.value(&[3]), 15.0); // element 3 covers everything
        assert_eq!(f.value(&[3, 0, 1, 2]), 15.0);
    }

    #[test]
    fn marginal_is_weight_of_new_topics() {
        let f = sample();
        assert_eq!(f.marginal(1, &[0]), 4.0); // only topic 2 is new
        assert_eq!(f.marginal(3, &[0, 1]), 8.0); // only topic 3 is new
        assert_eq!(f.marginal(0, &[3]), 0.0); // nothing new
    }

    #[test]
    fn duplicate_topics_in_cover_are_deduplicated() {
        let f = CoverageFunction::new(vec![vec![0, 0, 0]], vec![5.0]);
        assert_eq!(f.value(&[0]), 5.0);
        assert_eq!(f.covered_by(0), &[0]);
    }

    #[test]
    fn unweighted_counts_topics() {
        let f = CoverageFunction::unweighted(vec![vec![0], vec![1], vec![0, 1]], 2);
        assert_eq!(f.value(&[0, 1]), 2.0);
        assert_eq!(f.value(&[2]), 2.0);
        assert_eq!(f.num_topics(), 2);
    }

    #[test]
    #[should_panic(expected = "out-of-range topic")]
    fn out_of_range_topic_rejected() {
        let _ = CoverageFunction::new(vec![vec![5]], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_topic_weight_rejected() {
        let _ = CoverageFunction::new(vec![vec![0]], vec![-1.0]);
    }

    #[test]
    fn axioms_hold() {
        FunctionAudit::exhaustive(&sample()).assert_monotone_submodular();
    }

    #[test]
    fn axioms_hold_on_disjoint_and_nested_covers() {
        let f = CoverageFunction::new(
            vec![vec![0], vec![0, 1], vec![0, 1, 2], vec![3], vec![]],
            vec![1.0, 1.0, 1.0, 1.0],
        );
        FunctionAudit::exhaustive(&f).assert_monotone_submodular();
    }

    #[test]
    fn element_covering_nothing_has_zero_marginal() {
        let f = CoverageFunction::new(vec![vec![0], vec![]], vec![1.0]);
        assert_eq!(f.marginal(1, &[]), 0.0);
        assert_eq!(f.singleton(1), 0.0);
    }
}
