//! Incremental (streaming) diversification.
//!
//! Minack, Siberski and Nejdl (SIGIR 2011, discussed in the paper's
//! Section 2) process the input as a *stream*, "maintaining a near-optimal
//! diverse set at any point in the stream" with one cheap update per
//! arriving element. The paper positions its dynamic-update results as the
//! theoretically-grounded counterpart of that approach.
//!
//! Two sessions apply the natural swap-based streaming rule over the
//! max-sum objective are provided:
//!
//! * while `|S| < p`, accept the arriving element;
//! * afterwards, swap it with the current member whose replacement most
//!   improves `φ`, if any improvement exists.
//!
//! [`CompactStreamingSession`] is the memory-minimal variant: `O(p)`
//! state over the already-selected set and no pass over past stream
//! elements — the property that makes the approach "applicable to large
//! data sets" — at `O(p)` oracle marginals and `O(p)` distance reads per
//! arrival.
//!
//! [`StreamingSession`] is the throughput variant used by
//! [`stream_diversify`]: it spends `O(n)` cache state
//! ([`PotentialState`]) to make the common case — an arrival that is
//! *rejected* — cost only `O(p)` O(1) cache reads, at the price of an
//! `O(n)` cache sweep whenever an arrival is accepted or swapped in
//! (accepted swaps become rare as the stream saturates). Pick by regime:
//! unbounded streams / tight memory → `CompactStreamingSession`; indexed
//! corpora streamed for throughput → `StreamingSession`.
//!
//! After the stream ends, the result can optionally be polished with
//! [`crate::local_search_refine`], which restores the offline
//! 2-approximation guarantee.

use msd_metric::Metric;
use msd_submodular::SetFunction;

use crate::potential::PotentialState;
use crate::problem::DiversificationProblem;
use crate::ElementId;

/// What happened to one arriving element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamDecision {
    /// The solution had spare capacity; the element was added.
    Accepted,
    /// The element replaced a current member.
    Swapped {
        /// The evicted member.
        evicted: ElementId,
    },
    /// The element did not improve the objective and was discarded.
    Rejected,
}

/// Incremental streaming session bound to one problem instance.
///
/// The same accept / best-positive-swap / reject rule as
/// [`CompactStreamingSession`] (on *exactly* tied swap gains the evicted
/// member may differ — the two maintain their member lists in different
/// orders, and ties break toward the first member scanned), but the
/// session borrows the problem once and maintains a [`PotentialState`]:
/// evaluating an arrival costs `O(p)` O(1) swap-gain reads instead of
/// `O(p)` value-oracle evaluations through the slice API. The trade-off is `O(n)` cache state, and an `O(n)` gain-cache
/// sweep (plus one `O(touched)` quality-oracle mutation) whenever the
/// arrival is actually accepted or swapped in — cheap amortized, since
/// acceptances become rare once the solution saturates. For `O(p)`-memory
/// streaming over unbounded ground sets use
/// [`CompactStreamingSession`]. This is the hot path behind
/// [`stream_diversify`].
#[derive(Debug)]
pub struct StreamingSession<'a, M: Metric> {
    state: PotentialState<'a, M>,
    p: usize,
    seen: usize,
    swaps: usize,
}

impl<'a, M: Metric> StreamingSession<'a, M> {
    /// An empty session with capacity `p` over `problem`.
    ///
    /// # Panics
    ///
    /// Panics when `p == 0`.
    pub fn new<F: SetFunction>(problem: &'a DiversificationProblem<M, F>, p: usize) -> Self {
        assert!(p > 0, "capacity must be positive");
        Self {
            state: PotentialState::new(problem),
            p,
            seen: 0,
            swaps: 0,
        }
    }

    /// Offers the next stream element.
    ///
    /// # Panics
    ///
    /// Panics if `e` is already selected.
    pub fn offer(&mut self, e: ElementId) -> StreamDecision {
        assert!(
            !self.state.contains(e),
            "element {e} offered twice while selected"
        );
        self.seen += 1;
        if self.state.len() < self.p {
            self.state.insert(e);
            return StreamDecision::Accepted;
        }
        let mut best: Option<(ElementId, f64)> = None;
        for &v in self.state.members() {
            let gain = self.state.swap_gain(e, v);
            if gain > 1e-12 && best.is_none_or(|(_, g)| gain > g) {
                best = Some((v, gain));
            }
        }
        match best {
            Some((evicted, _)) => {
                self.state.swap(e, evicted);
                self.swaps += 1;
                StreamDecision::Swapped { evicted }
            }
            None => StreamDecision::Rejected,
        }
    }

    /// The current solution.
    pub fn members(&self) -> &[ElementId] {
        self.state.members()
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

    /// Current objective `φ(S)` (O(1) from the caches).
    pub fn objective(&self) -> f64 {
        self.state.objective()
    }

    /// Finishes the stream, returning the selected set.
    pub fn finish(self) -> Vec<ElementId> {
        self.state.into_members()
    }
}

/// Capacity-bounded streaming session: the `O(p)`-memory mode of
/// [`StreamingSession`].
///
/// Tracks distance gains only for the *current members* (the arriving
/// element's gain is computed on the fly) instead of allocating an O(n)
/// [`SolutionState`](crate::SolutionState)-backed cache, so the state is
/// truly `O(p)` for unbounded streams — while still beating the
/// `O(p²)` distance reads per arrival of recomputing every swap gain
/// (the slice-recomputing reference diversifier in `msd-bench`):
///
/// | variant | memory | distance reads / arrival |
/// |---|---|---|
/// | slice-recomputing reference | O(p) | O(p²) |
/// | `CompactStreamingSession` | O(p) | O(p) |
/// | [`StreamingSession`] | O(n) | O(p), O(n) sweep on accept |
///
/// Quality marginals go through the slice oracle (`O(p)`-memory by
/// construction; O(1) for modular quality). The decision rule, member
/// ordering (in-place replacement) and tie-breaks are exactly the
/// reference diversifier's; agreement with it — and with
/// [`StreamingSession`] — holds up to floating-point accumulation order
/// (the maintained gains accumulate `±d` repairs where the diversifier
/// sums afresh), which only near-exact ties can distinguish.
#[derive(Debug)]
pub struct CompactStreamingSession<'a, M: Metric, F: SetFunction> {
    problem: &'a DiversificationProblem<M, F>,
    p: usize,
    members: Vec<ElementId>,
    /// `gains[i] = d_{members[i]}(S − members[i])`, maintained in O(p)
    /// per accepted arrival.
    gains: Vec<f64>,
    /// Scratch: `d(e, members[i])` for the arrival being offered, so each
    /// member distance is read from the metric once per arrival.
    row: Vec<f64>,
    seen: usize,
    swaps: usize,
}

impl<'a, M: Metric, F: SetFunction> CompactStreamingSession<'a, M, F> {
    /// An empty compact session with capacity `p` over `problem`.
    ///
    /// # Panics
    ///
    /// Panics when `p == 0`.
    pub fn new(problem: &'a DiversificationProblem<M, F>, p: usize) -> Self {
        assert!(p > 0, "capacity must be positive");
        Self {
            problem,
            p,
            members: Vec::with_capacity(p),
            gains: Vec::with_capacity(p),
            row: Vec::with_capacity(p),
            seen: 0,
            swaps: 0,
        }
    }

    /// Offers the next stream element.
    ///
    /// # Panics
    ///
    /// Panics if `e` is already selected.
    pub fn offer(&mut self, e: ElementId) -> StreamDecision {
        assert!(
            !self.members.contains(&e),
            "element {e} offered twice while selected"
        );
        self.seen += 1;
        let metric = self.problem.metric();
        // One metric sweep per arrival: d(e, m) for every member, reused
        // by the gain computation, the swap scan and the gain repair.
        self.row.clear();
        self.row
            .extend(self.members.iter().map(|&m| metric.distance(e, m)));
        // d_e(S), summed in member order.
        let gain_e: f64 = self.row.iter().sum();
        if self.members.len() < self.p {
            // Accept: fold e's distances into the member gains.
            for (g, &d) in self.gains.iter_mut().zip(&self.row) {
                *g += d;
            }
            self.members.push(e);
            self.gains.push(gain_e);
            return StreamDecision::Accepted;
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, &v) in self.members.iter().enumerate() {
            let dd = gain_e - self.row[i] - self.gains[i];
            let gain =
                self.problem.quality().swap_gain(e, v, &self.members) + self.problem.lambda() * dd;
            if gain > 1e-12 && best.is_none_or(|(_, g)| gain > g) {
                best = Some((i, gain));
            }
        }
        match best {
            Some((idx, _)) => {
                let evicted = self.members[idx];
                // Repair the member gains in O(p): each keeps its slot,
                // trading d(·, evicted) for d(·, e); the newcomer takes
                // the evicted slot with its freshly-computed gain.
                for (j, &m) in self.members.iter().enumerate() {
                    if j != idx {
                        self.gains[j] += self.row[j] - metric.distance(evicted, m);
                    }
                }
                self.gains[idx] = gain_e - self.row[idx];
                self.members[idx] = e;
                self.swaps += 1;
                StreamDecision::Swapped { evicted }
            }
            None => StreamDecision::Rejected,
        }
    }

    /// The current solution (in-place replacement order).
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

    /// Current objective `φ(S)` (one O(p·cost(f)) slice evaluation plus
    /// the O(p) cached dispersion — no O(n) state to read from).
    pub fn objective(&self) -> f64 {
        self.problem.quality_value(&self.members)
            + self.problem.lambda() * self.gains.iter().sum::<f64>() / 2.0
    }

    /// Finishes the stream, returning the selected set.
    pub fn finish(self) -> Vec<ElementId> {
        self.members
    }
}

/// Convenience one-shot driver: streams `order` through a fresh
/// [`StreamingSession`] and returns the final selection.
pub fn stream_diversify<M: Metric, F: SetFunction>(
    problem: &DiversificationProblem<M, F>,
    order: &[ElementId],
    p: usize,
) -> Vec<ElementId> {
    let mut s = StreamingSession::new(problem, p.max(1).min(problem.ground_size().max(1)));
    for &e in order {
        s.offer(e);
    }
    s.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::enumerate_exact;
    use crate::greedy::{greedy_b, GreedyBConfig};
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
    fn stream_result_is_competitive_with_greedy() {
        // No guarantee is claimed, but on random data the stream should
        // land within a modest factor of Greedy B.
        for seed in 0..8u64 {
            let problem = instance(seed + 5, 40);
            let order: Vec<ElementId> = (0..40).collect();
            let streamed = stream_diversify(&problem, &order, 6);
            let greedy = greedy_b(&problem, 6, GreedyBConfig::default());
            let sv = problem.objective(&streamed);
            let gv = problem.objective(&greedy);
            assert!(
                sv >= 0.6 * gv,
                "seed {seed}: stream {sv} too far below greedy {gv}"
            );
        }
    }

    #[test]
    fn refinement_restores_the_offline_guarantee() {
        use crate::local_search::{local_search_refine, LocalSearchConfig};
        for seed in 0..5u64 {
            let problem = instance(seed + 50, 9);
            let order: Vec<ElementId> = (0..9).collect();
            let streamed = stream_diversify(&problem, &order, 3);
            let polished = local_search_refine(&problem, &streamed, LocalSearchConfig::default());
            let opt = enumerate_exact(&problem, 3);
            assert!(
                2.0 * polished.objective >= opt.objective - 1e-9,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn short_stream_returns_what_it_saw() {
        let problem = instance(3, 10);
        let streamed = stream_diversify(&problem, &[4, 7], 5);
        let mut s = streamed.clone();
        s.sort_unstable();
        assert_eq!(s, vec![4, 7]);
    }

    #[test]
    fn compact_session_reaches_the_session_objective() {
        // O(p) mode vs the O(n)-cache session: same final objective and
        // member multiset on continuous random instances (exact ties are
        // the documented divergence point and never bind here).
        for seed in 0..6u64 {
            let problem = instance(seed + 90, 36);
            let mut session = StreamingSession::new(&problem, 6);
            let mut compact = CompactStreamingSession::new(&problem, 6);
            for e in 0..36u32 {
                session.offer(e);
                compact.offer(e);
            }
            let mut a = session.finish();
            let mut b = compact.finish();
            let oa = problem.objective(&a);
            let ob = problem.objective(&b);
            assert!(
                (oa - ob).abs() <= 1e-9 * oa.abs().max(1.0),
                "seed {seed}: objectives diverged ({oa} vs {ob})"
            );
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "seed {seed}: member sets diverged");
        }
    }

    #[test]
    fn compact_capacity_accessors() {
        let problem = instance(4, 8);
        let mut c = CompactStreamingSession::new(&problem, 3);
        assert_eq!(c.capacity(), 3);
        for e in 0..5u32 {
            c.offer(e);
        }
        assert_eq!(c.members().len(), 3);
        assert_eq!(c.seen(), 5);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn compact_zero_capacity_rejected() {
        let problem = instance(1, 4);
        let _ = CompactStreamingSession::new(&problem, 0);
    }

    #[test]
    #[should_panic(expected = "offered twice")]
    fn compact_duplicate_offer_panics() {
        let problem = instance(1, 4);
        let mut c = CompactStreamingSession::new(&problem, 3);
        c.offer(2);
        c.offer(2);
    }
}
