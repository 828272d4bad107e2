//! Certified upper bound on the optimum, behind `quality_ratio`.
//!
//! For `|S| = p`, let `D_u` be the sum of `u`'s `p − 1` largest distances
//! to the other candidates. Every pair of `S*` is counted from both
//! endpoints, so `d(S*) ≤ ½·Σ_{u∈S*} D_u`; a monotone submodular `f` with
//! `f(∅) = 0` is subadditive, so `f(S*) ≤ Σ_{u∈S*} f({u})`. Hence
//!
//! ```text
//! OPT ≤ Σ_{u∈S*} (f({u}) + (λ/2)·D_u) ≤ sum of the p largest f({u}) + (λ/2)·D_u
//! ```
//!
//! which needs no triangle inequality and holds at any `n`.

use max_sum_diversification::metric::{ElementId, Metric};
use max_sum_diversification::submodular::SetFunction;

/// Per-candidate sums of the largest distances to the other candidates,
/// for every prefix length up to a fixed maximum.
#[derive(Debug, Clone)]
pub struct DistanceProfile {
    candidates: Vec<ElementId>,
    /// `sums[i][k]` = sum of the `k` largest distances from
    /// `candidates[i]` to the other candidates.
    sums: Vec<Vec<f64>>,
}

impl DistanceProfile {
    /// Profiles `candidates` up to `max_k` largest distances each (one row
    /// kernel call per candidate).
    pub fn new<M: Metric>(metric: &M, candidates: &[ElementId], max_k: usize) -> Self {
        let n = metric.len();
        let mut in_set = vec![false; n];
        for &u in candidates {
            in_set[u as usize] = true;
        }
        let mut row = vec![0.0; n];
        let mut others = Vec::with_capacity(candidates.len());
        let sums = candidates
            .iter()
            .map(|&u| {
                row.fill(0.0);
                metric.accumulate_distances(u, &mut row, 1.0);
                others.clear();
                others.extend(
                    candidates
                        .iter()
                        .filter(|&&v| v != u && in_set[v as usize])
                        .map(|&v| row[v as usize]),
                );
                let k = max_k.min(others.len());
                if k > 0 && k < others.len() {
                    others.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
                }
                let top = &mut others[..k];
                top.sort_unstable_by(|a, b| b.total_cmp(a));
                let mut prefix = Vec::with_capacity(k + 1);
                prefix.push(0.0);
                let mut acc = 0.0;
                for &d in top.iter() {
                    acc += d;
                    prefix.push(acc);
                }
                prefix
            })
            .collect();
        Self {
            candidates: candidates.to_vec(),
            sums,
        }
    }

    /// The bound for cardinality `p` and trade-off `lambda`, with
    /// `singleton(u)` = `f({u})`.
    pub fn upper_bound(&self, singleton: impl Fn(ElementId) -> f64, lambda: f64, p: usize) -> f64 {
        let mut values: Vec<f64> = self
            .candidates
            .iter()
            .zip(&self.sums)
            .map(|(&u, prefix)| {
                let k = p.saturating_sub(1).min(prefix.len() - 1);
                singleton(u) + 0.5 * lambda * prefix[k]
            })
            .collect();
        let take = p.min(values.len());
        if take == 0 {
            return 0.0;
        }
        if take < values.len() {
            values.select_nth_unstable_by(take - 1, |a, b| b.total_cmp(a));
        }
        values[..take].iter().sum()
    }
}

/// The certified bound for one instance over `candidates`.
pub fn certified_upper_bound<M: Metric, F: SetFunction>(
    metric: &M,
    quality: &F,
    lambda: f64,
    p: usize,
    candidates: &[ElementId],
) -> f64 {
    DistanceProfile::new(metric, candidates, p.saturating_sub(1)).upper_bound(
        |u| quality.singleton(u),
        lambda,
        p,
    )
}
