//! The memory-minimal streaming diversifier, kept as the reference for
//! `msd_core::streaming`'s session (`tests/streaming_parity.rs`,
//! `tests/incremental_equivalence.rs`).
//!
//! [`StreamingDiversifier`] applies the swap-based streaming rule of
//! Minack, Siberski and Nejdl (SIGIR 2011) with `O(p)` state and no cache:
//! every arrival recomputes its swap gains through the slice oracles, at
//! `O(p)` quality marginals plus `O(p²)` distance reads. The library's
//! `CompactStreamingSession` (same `O(p)` memory, `O(p)` distance reads),
//! which also drives `stream_diversify`, must reproduce its decisions.

use msd_core::{DiversificationProblem, ElementId, StreamDecision};
use msd_metric::Metric;
use msd_submodular::SetFunction;

/// Streaming state: the current solution over a fixed capacity `p`.
#[derive(Debug, Clone)]
pub struct StreamingDiversifier {
    p: usize,
    members: Vec<ElementId>,
    /// Arrivals seen so far (for reporting only).
    seen: usize,
    /// Swaps performed so far.
    swaps: usize,
}

impl StreamingDiversifier {
    /// An empty stream state with capacity `p`.
    ///
    /// # Panics
    ///
    /// Panics when `p == 0` (an empty solution can never change).
    pub fn new(p: usize) -> Self {
        assert!(p > 0, "capacity must be positive");
        Self {
            p,
            members: Vec::with_capacity(p),
            seen: 0,
            swaps: 0,
        }
    }

    /// Offers the next stream element; `problem` supplies the oracles
    /// (only the arriving element and current members are consulted).
    ///
    /// # Panics
    ///
    /// Panics if `e` is already in the solution (streams must not repeat
    /// selected ids).
    pub fn offer<M: Metric, F: SetFunction>(
        &mut self,
        problem: &DiversificationProblem<M, F>,
        e: ElementId,
    ) -> StreamDecision {
        assert!(
            !self.members.contains(&e),
            "element {e} offered twice while selected"
        );
        self.seen += 1;
        if self.members.len() < self.p {
            self.members.push(e);
            return StreamDecision::Accepted;
        }
        // Best single swap bringing e in.
        let mut best: Option<(usize, f64)> = None;
        for (idx, &v) in self.members.iter().enumerate() {
            let gain = problem.swap_gain(e, v, &self.members);
            if gain > 1e-12 && best.is_none_or(|(_, g)| gain > g) {
                best = Some((idx, gain));
            }
        }
        match best {
            Some((idx, _)) => {
                let evicted = self.members[idx];
                self.members[idx] = e;
                self.swaps += 1;
                StreamDecision::Swapped { evicted }
            }
            None => StreamDecision::Rejected,
        }
    }

    /// The current solution (arrival order is not preserved across swaps).
    pub fn members(&self) -> &[ElementId] {
        &self.members
    }

    /// Elements offered so far.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Swaps performed so far.
    pub fn swaps(&self) -> usize {
        self.swaps
    }

    /// Capacity `p`.
    pub fn capacity(&self) -> usize {
        self.p
    }

    /// Finishes the stream, returning the selected set.
    pub fn finish(self) -> Vec<ElementId> {
        self.members
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msd_core::CompactStreamingSession;
    use msd_metric::DistanceMatrix;
    use msd_submodular::ModularFunction;

    fn instance(seed: u64, n: usize) -> DiversificationProblem<DistanceMatrix, ModularFunction> {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let weights: Vec<f64> = (0..n).map(|_| next()).collect();
        let metric = DistanceMatrix::from_fn(n, |_, _| 1.0 + next());
        DiversificationProblem::new(metric, ModularFunction::new(weights), 0.2)
    }

    #[test]
    fn fills_then_swaps() {
        let problem = instance(1, 6);
        let mut s = StreamingDiversifier::new(2);
        assert_eq!(s.offer(&problem, 0), StreamDecision::Accepted);
        assert_eq!(s.offer(&problem, 1), StreamDecision::Accepted);
        assert_eq!(s.capacity(), 2);
        // From here on, decisions are swaps or rejections, never growth.
        for e in 2..6u32 {
            let before = problem.objective(s.members());
            let decision = s.offer(&problem, e);
            let after = problem.objective(s.members());
            match decision {
                StreamDecision::Accepted => panic!("capacity exceeded"),
                StreamDecision::Swapped { evicted } => {
                    assert!(after > before, "swap must improve φ");
                    assert!(!s.members().contains(&evicted));
                    assert!(s.members().contains(&e));
                }
                StreamDecision::Rejected => {
                    assert_eq!(after, before);
                    assert!(!s.members().contains(&e));
                }
            }
            assert_eq!(s.members().len(), 2);
        }
        assert_eq!(s.seen(), 6);
    }

    #[test]
    fn objective_is_monotone_along_the_stream() {
        let problem = instance(2, 30);
        let mut s = StreamingDiversifier::new(5);
        let mut last = 0.0;
        for e in 0..30u32 {
            s.offer(&problem, e);
            let val = problem.objective(s.members());
            assert!(val >= last - 1e-12, "objective decreased at {e}");
            last = val;
        }
    }

    #[test]
    fn swap_counter_tracks_changes() {
        let problem = instance(9, 20);
        let mut s = StreamingDiversifier::new(3);
        for e in 0..20u32 {
            s.offer(&problem, e);
        }
        assert!(s.swaps() > 0, "some arrivals should displace members");
        assert!(s.swaps() <= 17);
    }

    #[test]
    fn compact_session_matches_the_minimal_diversifier_decision_for_decision() {
        // Same rule, same member ordering, gains maintained incrementally
        // instead of recomputed — the decision stream must be identical.
        for seed in 0..8u64 {
            let problem = instance(seed + 70, 40);
            let mut minimal = StreamingDiversifier::new(5);
            let mut compact = CompactStreamingSession::new(&problem, 5);
            for e in 0..40u32 {
                let a = minimal.offer(&problem, e);
                let b = compact.offer(e);
                assert_eq!(a, b, "seed {seed}: decision diverged at arrival {e}");
                assert_eq!(minimal.members(), compact.members(), "seed {seed}");
            }
            assert_eq!(minimal.swaps(), compact.swaps());
            assert_eq!(compact.seen(), 40);
            let direct = problem.objective(compact.members());
            assert!(
                (compact.objective() - direct).abs() < 1e-9,
                "seed {seed}: cached gains drifted"
            );
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = StreamingDiversifier::new(0);
    }

    #[test]
    #[should_panic(expected = "offered twice")]
    fn duplicate_selected_offer_panics() {
        let problem = instance(1, 4);
        let mut s = StreamingDiversifier::new(3);
        s.offer(&problem, 2);
        s.offer(&problem, 2);
    }
}
