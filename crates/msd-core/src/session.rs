//! Persistent dynamic sessions: the incremental oracle kept alive across
//! perturbations.
//!
//! The paper's dynamic-update result (Section 6) is only cheap if the
//! solver's state survives between updates: one oblivious swap per
//! perturbation assumes the marginal caches are *already there*. The
//! generic [`crate::oblivious_update_step`] honours the swap rule but
//! rebuilds its fused [`crate::PotentialState`] caches from scratch on
//! every call — an O(n·p) oracle-heavy rebuild that dominates the swap
//! scan it feeds. [`DynamicSession`] removes that rebuild: it owns a
//! long-lived distance-gain cache ([`SolutionState`]) plus quality oracle
//! ([`IncrementalOracle`]) and repairs only what a perturbation touched:
//!
//! * **distance perturbation** — the owned metric's
//!   [`PerturbableMetric::set_distance`] reports the displaced value, so
//!   the Birnbaum–Goldman gains of the two endpoints (and the dispersion)
//!   are patched in O(1);
//! * **weight perturbation** — forwarded to the oracle's
//!   [`IncrementalOracle::try_set_weight`] O(1) repair (modular-weight
//!   oracles; others panic, as weight perturbations are the paper's
//!   modular setting);
//! * **arrival / departure** — an availability mask over the ground set;
//!   a departing member is removed and the solution greedily refilled by
//!   the best objective marginal.
//!
//! After the repair, one oblivious single-swap update runs over the
//! repaired caches — the exact scan of [`crate::oblivious_update_step`],
//! same traversal order and tie-breaks, so a session reproduces the
//! rebuild path swap for swap (asserted across random perturbation
//! sequences by the equivalence suite in `msd-bench`; the repaired gains
//! match a fresh rebuild's sums up to floating-point accumulation order,
//! so only near-exact gain ties could ever distinguish the two).
//!
//! On top of the rebuild savings the session tracks **local optimality**:
//! when the last scan found no positive swap, a perturbation that provably
//! cannot create one — both endpoints outside `S`, a distance increase
//! inside `S`, a weight decrease outside `S`, … — skips the scan entirely
//! ([`ScanExtent::Skipped`]), mirroring the monotonicity arguments behind
//! the paper's perturbation types I–IV. In the steady state of a
//! perturb→update stream (Figure 1), most updates reduce to this O(1)
//! path, which is where the session's order-of-magnitude win over the
//! rebuild path comes from (see `BENCH_dynamic.json`).
//!
//! When optimality *does* break, the direction analysis also scopes the
//! scan: over a stable baseline every swap gain is `≤ 0`, so only the
//! cells a perturbation may have *raised* can hold a positive swap. A
//! change raising one candidate's gains (a distance increase against a
//! member, a candidate weight increase, an arrival) scans just that
//! candidate's **column** — O(p) instead of O(n·p)
//! ([`ScanExtent::Column`]). A change uniformly raising one *member's*
//! whole row of gains (a member weight decrease, a distance decrease
//! inside `S`) is answered through the **bounded best-swap candidate
//! cache**: the last full scan records, per member, the top-`K`
//! candidates by swap gain (O(p·K) memory), and because the later
//! perturbations either shift whole rows uniformly (order-preserving) or
//! touch single columns that are tracked as *dirty* and re-scanned
//! fresh, re-verifying one rank representative per broken row plus the
//! dirty columns — O((K + dirty)·p) — provably reproduces the full
//! scan's winner, lowest-index tie-breaks included
//! ([`ScanExtent::Cached`]; boundary-tied or exhausted ranks fall back
//! to the full scan, and `K = 0` disables the cache entirely).
//!
//! The candidate cache also survives **committed swaps** when the
//! quality oracle's swap gains are membership-independent (the modular
//! family — [`IncrementalOracle::swap_gains_are_membership_independent`]):
//! the swap's effect on every surviving rank row decomposes into a
//! row-uniform shift (invisible to the cache) plus the exactly
//! repairable per-candidate term `λ·(d(x, v_in) − d(x, u_out))`, so
//! [`DynamicSession::step`]'s post-swap re-stabilization verifies one
//! representative per row — plus an O(n) sweep for the fresh incoming
//! member's row — instead of paying the full O(n·p) traversal.
//!
//! Sessions over an *induced* (network) metric use the graph-backed
//! entry point [`DynamicSession::try_apply_graph_batch`] (over any
//! [`EdgePerturbableMetric`], e.g. `msd_metric::DynamicGraphMetric`):
//! one edge-weight update moves many pairwise distances at once, the
//! metric repairs its own APSP matrix incrementally, and the returned
//! change report becomes a stream of the same O(Δ) distance patches —
//! flowing through the identical direction analysis, scan scoping and
//! cache dirt tracking as matrix perturbations.
//!
//! Bursts of perturbations (Figure 1's redraw workload) go through
//! [`DynamicSession::ingest`]: every perturbation is repaired in
//! O(Δ) as above, the scan scopes are accumulated across the whole
//! batch, and **at most one** swap scan runs over their union — skipped
//! entirely when every perturbation in the batch is provably irrelevant.
//! The whole batch is checked before anything commits, so a malformed
//! batch is rejected with nothing applied:
//!
//! ```
//! use msd_core::{greedy_b, DiversificationProblem, DynamicSession, GreedyBConfig,
//!     SessionPerturbation};
//! use msd_metric::DistanceMatrix;
//! use msd_submodular::ModularFunction;
//!
//! let metric = DistanceMatrix::from_fn(6, |u, v| 1.0 + f64::from((u + v) % 3) * 0.25);
//! let quality = ModularFunction::new(vec![0.9, 0.3, 0.8, 0.2, 0.7, 0.1]);
//! let problem = DiversificationProblem::new(metric, quality, 0.3);
//! let init = greedy_b(&problem, 3, GreedyBConfig::default());
//!
//! let mut session = DynamicSession::new(&problem, &init);
//! session.update_until_stable(16);
//!
//! // One redraw burst: k repairs, at most one scan over the union scope.
//! let burst = [
//!     SessionPerturbation::SetWeight { u: 5, value: 2.0 },
//!     SessionPerturbation::SetDistance { u: 0, v: 4, value: 1.9 },
//!     SessionPerturbation::SetDistance { u: 1, v: 3, value: 1.1 },
//! ];
//! let report = session.ingest(&burst).expect("well-formed burst");
//! assert_eq!(report.ingested, 3);
//! // Read the maintained solution once the burst is stabilized.
//! session.update_until_stable(16);
//! assert!(session.is_stable());
//! assert_eq!(session.solution().len(), 3);
//! ```
//!
//! **Parallelism comes from the pool; every session is thread-shareable.**
//! Metrics, quality oracles and matroids are all `Send + Sync`, and every
//! session scan — full, column, cache-verified or collecting — is the
//! crate's swap-scan kernel (the `scan` module) on the session's pool: the
//! one given to [`DynamicSession::with_scan_pool`], else the problem's
//! ([`DiversificationProblem::with_scan_pool`]) for a session opened with
//! [`DynamicSession::new`], else the ambient [`ScanPool::global`] with its
//! cost-weighted work floor (one thread, so serial, without the
//! `parallel` feature). Chunking is scheduling only; the winner and the
//! candidate cache are bit-identical either way.
//!
//! **Constrained sessions** run the same machinery under a matroid or
//! knapsack feasibility regime ([`ConstraintPolicy`], builder methods
//! [`DynamicSession::with_matroid`] / [`DynamicSession::with_knapsack`]):
//! matroid scans enumerate only exchange-feasible pairs
//! ([`Matroid::exchange_feasible`]) and refill departures with the best
//! addable outsider; knapsack scans rank budget-feasible
//! strictly-improving exchanges by gain-per-cost density (mirroring
//! [`crate::knapsack::knapsack_diversify`]). Direction analysis, O(Δ)
//! repairs, union-scoped batch scans and pooled scans all carry over;
//! every solution a constrained session exposes is feasible:
//!
//! ```
//! use msd_core::{DiversificationProblem, DynamicSession, SessionPerturbation};
//! use msd_matroid::{Matroid, PartitionMatroid};
//! use msd_metric::DistanceMatrix;
//! use msd_submodular::ModularFunction;
//!
//! let metric = DistanceMatrix::from_fn(6, |u, v| 1.0 + f64::from((u + v) % 3) * 0.25);
//! let quality = ModularFunction::new(vec![0.9, 0.3, 0.8, 0.2, 0.7, 0.1]);
//! let problem = DiversificationProblem::new(metric, quality, 0.3);
//!
//! // At most two picks from {0, 1, 2} and one from {3, 4, 5}.
//! let matroid = PartitionMatroid::new(vec![0, 0, 0, 1, 1, 1], vec![2, 1]);
//! let init = matroid.extend_to_basis(&[]);
//! let mut session = DynamicSession::new(&problem, &init).with_matroid(&matroid);
//! session.update_until_stable(16);
//!
//! // Perturbations flow through the same O(Δ) repairs; every swap the
//! // exchange scan commits keeps the solution independent.
//! session.ingest(&[SessionPerturbation::SetWeight { u: 1, value: 2.5 }]).unwrap();
//! session.ingest(&[SessionPerturbation::Depart { u: 4 }]).unwrap();
//! assert!(matroid.is_independent(session.solution()));
//! assert_eq!(session.solution().len(), 3);
//! ```

// Perturbation-ingestion module: untrusted tenant input flows through
// here, so a stray `unwrap`/`expect` on the non-test paths is a
// denial-of-service vector for every co-resident tenant. Invariant
// violations that genuinely cannot happen are spelled `unreachable!`
// with their reasoning; data faults are typed errors.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use msd_matroid::Matroid;
use msd_metric::{
    EdgePerturbableMetric, EdgeUpdateError, EdgeUpdateReport, Metric, OverlayMetric,
    PerturbableMetric,
};
use msd_submodular::{IncrementalOracle, OracleState, SetFunction};

use crate::check::BatchCheck;
use crate::dynamic::{Perturbation, UpdateOutcome};
use crate::local_search::PivotRule;
use crate::pool::ScanPool;
use crate::problem::DiversificationProblem;
use crate::scan::{CellSink, Columns, Swap, SwapScan};
use crate::solution::SolutionState;
use crate::ElementId;

/// A perturbation accepted by [`DynamicSession::ingest`]: the paper's
/// weight / distance rewrites ([`Perturbation`]) plus ground-set arrivals
/// and departures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SessionPerturbation {
    /// Set `w(u)` (types I/II). Requires a quality oracle with modular
    /// weight data (see [`IncrementalOracle::supports_weight_updates`]).
    SetWeight {
        /// The element whose weight changes.
        u: ElementId,
        /// The new weight.
        value: f64,
    },
    /// Set `d(u, v)` (types III/IV).
    SetDistance {
        /// First endpoint.
        u: ElementId,
        /// Second endpoint.
        v: ElementId,
        /// The new distance.
        value: f64,
    },
    /// Element `u` becomes available for selection.
    Arrive {
        /// The arriving element.
        u: ElementId,
    },
    /// Element `u` becomes unavailable; if selected it is removed and the
    /// solution refilled greedily.
    Depart {
        /// The departing element.
        u: ElementId,
    },
}

impl From<Perturbation> for SessionPerturbation {
    fn from(p: Perturbation) -> Self {
        match p {
            Perturbation::SetWeight { u, value } => SessionPerturbation::SetWeight { u, value },
            Perturbation::SetDistance { u, v, value } => {
                SessionPerturbation::SetDistance { u, v, value }
            }
        }
    }
}

/// A perturbation accepted by the graph-backed session entry point
/// ([`DynamicSession::try_apply_graph_batch`], over any
/// [`EdgePerturbableMetric`]): the underlying network's edge rewrites
/// plus the weight / availability perturbations shared with
/// [`SessionPerturbation`]. Raw `SetDistance` rewrites have no meaning
/// over an induced shortest-path metric — its distances move only
/// through edges, and one edge update moves many of them at once (the
/// metric's [`EdgeUpdateReport`] lists exactly which).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphPerturbation {
    /// Set the weight of edge `{u, v}` (inserting it when absent).
    SetEdge {
        /// First endpoint.
        u: ElementId,
        /// Second endpoint.
        v: ElementId,
        /// The new edge weight.
        weight: f64,
    },
    /// Remove edge `{u, v}` (fails if that disconnects the graph).
    RemoveEdge {
        /// First endpoint.
        u: ElementId,
        /// Second endpoint.
        v: ElementId,
    },
    /// Set `w(u)` — as [`SessionPerturbation::SetWeight`].
    SetWeight {
        /// The element whose weight changes.
        u: ElementId,
        /// The new weight.
        value: f64,
    },
    /// Element `u` becomes available — as [`SessionPerturbation::Arrive`].
    Arrive {
        /// The arriving element.
        u: ElementId,
    },
    /// Element `u` becomes unavailable — as
    /// [`SessionPerturbation::Depart`].
    Depart {
        /// The departing element.
        u: ElementId,
    },
}

/// How much of the swap scan one [`DynamicSession::ingest`] (or graph
/// batch) ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanExtent {
    /// Every ingested perturbation provably preserved local optimality;
    /// no scan ran.
    Skipped,
    /// Only the columns of candidates whose gains may have risen (arrived
    /// elements, candidate weight increases, distance increases against a
    /// member) were scanned — O(p) per column; the remaining cells were
    /// already known non-improving.
    Column,
    /// The scan was answered through the bounded best-swap candidate
    /// cache instead of the full O(n·p) traversal, same winner: over a
    /// stable baseline, one rank representative per uniformly-risen
    /// member row plus every dirty column (O((K + dirty)·p)); after a
    /// committed swap kept the repaired tables warm, one representative
    /// per ranked row plus an O(n) row sweep per fresh (post-install)
    /// member — the cache-driven *stabilization* path of ROADMAP (d).
    Cached,
    /// The full `(v ∉ S, u ∈ S)` scan ran.
    Full,
}

/// Typed rejection of one perturbation by the validating session entry
/// points ([`DynamicSession::ingest`] and
/// [`DynamicSession::try_apply_graph_batch`]).
///
/// Every variant is detected **before** the offending perturbation
/// mutates any session state. The variants mirror
/// exactly the malformed shapes an untrusted perturbation stream can
/// take: non-finite or negative numerics, out-of-range ids, and
/// availability-state violations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PerturbationError {
    /// An element id is outside the ground set `0..n`.
    ElementOutOfRange {
        /// The offending element.
        u: ElementId,
        /// Ground-set size.
        n: usize,
    },
    /// A distance value is NaN, infinite, or negative.
    InvalidDistance {
        /// First endpoint.
        u: ElementId,
        /// Second endpoint.
        v: ElementId,
        /// The offending distance.
        value: f64,
    },
    /// A distance rewrite targets the diagonal (`u == v`), which a metric
    /// pins to zero.
    DiagonalDistance {
        /// The repeated endpoint.
        u: ElementId,
    },
    /// A weight value is NaN, infinite, or negative.
    InvalidWeight {
        /// The element whose weight was rewritten.
        u: ElementId,
        /// The offending weight.
        value: f64,
    },
    /// A weight rewrite against a quality oracle with no modular weight
    /// data ([`IncrementalOracle::supports_weight_updates`] is `false`).
    WeightUpdatesUnsupported {
        /// The element whose weight was rewritten.
        u: ElementId,
    },
    /// An arrival of an element that is already resident (taking the
    /// batch's earlier arrivals/departures into account).
    DuplicateArrival {
        /// The arriving element.
        u: ElementId,
    },
    /// A departure of an element that is not resident (taking the batch's
    /// earlier arrivals/departures into account).
    DepartureOfAbsent {
        /// The departing element.
        u: ElementId,
    },
    /// A rejected edge update (graph-backed sessions): malformed edge
    /// data caught up front, or a runtime rejection (missing edge,
    /// disconnecting removal) that triggered the batch rollback.
    Edge(EdgeUpdateError),
}

impl std::fmt::Display for PerturbationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ElementOutOfRange { u, n } => {
                write!(f, "element {u} out of range (ground set size {n})")
            }
            Self::InvalidDistance { u, v, value } => write!(
                f,
                "distance d({u}, {v}) = {value} must be finite and non-negative"
            ),
            Self::DiagonalDistance { u } => {
                write!(f, "cannot set diagonal distance d({u},{u})")
            }
            Self::InvalidWeight { u, value } => {
                write!(f, "weight w({u}) = {value} must be finite and non-negative")
            }
            Self::WeightUpdatesUnsupported { u } => write!(
                f,
                "quality oracle does not support weight updates (element {u})"
            ),
            Self::DuplicateArrival { u } => {
                write!(f, "arrival of element {u} which is already resident")
            }
            Self::DepartureOfAbsent { u } => {
                write!(f, "departure of element {u} which is not resident")
            }
            Self::Edge(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PerturbationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Edge(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EdgeUpdateError> for PerturbationError {
    fn from(e: EdgeUpdateError) -> Self {
        Self::Edge(e)
    }
}

/// Error of the validating batch entry points: which perturbation of
/// the batch was rejected, and the [`PerturbationError`] saying why.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// All-or-nothing mode ([`DynamicSession::ingest`] /
    /// [`DynamicSession::try_apply_graph_batch`]): perturbation `index`
    /// was rejected and the session is **bit-identical to its pre-batch
    /// state** — either never mutated (malformed input is detected before
    /// ingestion) or restored from the pre-batch [`SessionCheckpoint`].
    Rejected {
        /// Position of the rejected perturbation in the submitted batch.
        index: usize,
        /// Why it was rejected.
        error: PerturbationError,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Rejected { index, error } => {
                write!(
                    f,
                    "perturbation {index} rejected (batch rolled back): {error}"
                )
            }
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Rejected { error, .. } => Some(error),
        }
    }
}

/// Outcome of one [`DynamicSession::ingest`] or graph-batch call.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// The (at most one) oblivious update performed after all repairs,
    /// over the union scan scope.
    pub outcome: UpdateOutcome,
    /// Elements greedily inserted to restore the target cardinality while
    /// ingesting departures/arrivals, in insertion order.
    pub refills: Vec<ElementId>,
    /// How much of the swap scan the batch needed.
    pub scan: ScanExtent,
    /// Number of perturbations ingested (`perturbations.len()`).
    pub ingested: usize,
}

/// A bit-exact snapshot of a [`DynamicSession`]'s mutable state: the
/// perturbed metric (overlay deltas for shared-corpus sessions), the
/// solution with its Birnbaum–Goldman gain caches, the availability
/// mask, the stability flag, and the quality oracle's
/// [`OracleState`] (owned weights for the modular family).
///
/// Taken by [`DynamicSession::checkpoint`] and restored — any number of
/// times — by [`DynamicSession::rollback_to`]. This is the
/// transactional-batch primitive: incremental *undo* (re-applying the
/// displaced values of [`PerturbableMetric::set_distance`] /
/// [`IncrementalOracle::try_set_weight`] in reverse) restores the metric
/// exactly but re-derives the running float sums of the solution and
/// oracle caches through a different accumulation history, so only a
/// snapshot restores the whole session bit-for-bit. Cost: O(Δ) for
/// overlay-metric sessions plus O(n + p + oracle state) — the dominant
/// term is the metric clone (O(n²) only when the session *owns* a dense
/// matrix).
pub struct SessionCheckpoint<M> {
    metric: M,
    dist: SolutionState,
    active: Vec<bool>,
    p: usize,
    stable: bool,
    oracle: OracleState,
}

impl<M> SessionCheckpoint<M> {
    /// The checkpointed solution, in insertion order — what
    /// [`DynamicSession::rollback_to`] will restore as
    /// [`DynamicSession::solution`].
    pub fn solution(&self) -> &[ElementId] {
        self.dist.members()
    }
}

impl<M> std::fmt::Debug for SessionCheckpoint<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionCheckpoint")
            .field("members", &self.dist.members())
            .field("p", &self.p)
            .field("stable", &self.stable)
            .finish_non_exhaustive()
    }
}

/// Default per-member capacity `K` of the bounded best-swap candidate
/// cache (see [`DynamicSession::with_candidate_cache`]).
pub const DEFAULT_CANDIDATE_CAPACITY: usize = 8;

/// A full swap scan's winner plus, when the candidate cache collects,
/// the rank tables built in the same pass.
type FullScan = (Option<Swap>, Option<TopKCollector>);

/// Per-member top-K candidate table filled *during* a full swap scan:
/// entries ordered by build gain descending, ties keeping the
/// earlier-scanned (lower) candidate first — the scan's own tie-break —
/// plus, per member, the highest gain truncated out of the row
/// (`overflow`). The overflow marks where the stored ranking stops being
/// trustworthy: an excluded candidate tying the boundary could out-rank a
/// stored entry, so verification walking down to that gain level must
/// fall back to the full scan.
#[derive(Debug, Clone)]
struct TopKCollector {
    k: usize,
    rows: Vec<Vec<(ElementId, f64)>>,
    overflow: Vec<f64>,
}

impl TopKCollector {
    fn new(k: usize, p: usize) -> Self {
        Self {
            k,
            // `vec![template; p]` clones, and cloning an empty Vec drops
            // its capacity — build each row explicitly.
            rows: (0..p).map(|_| Vec::with_capacity(k.min(64))).collect(),
            overflow: vec![f64::NEG_INFINITY; p],
        }
    }
}

impl CellSink for TopKCollector {
    /// Offers the evaluated cell `(candidate v, member position pos)` with
    /// gain `g`. Must be called in scan order (candidates ascending).
    #[inline]
    fn offer(&mut self, pos: usize, v: ElementId, g: f64) {
        let row = &mut self.rows[pos];
        if row.len() == self.k {
            // Fast path: the boundary holds (ties keep the stored earlier
            // candidate); only the overflow high-water mark can move.
            if g <= row[self.k - 1].1 {
                if g > self.overflow[pos] {
                    self.overflow[pos] = g;
                }
                return;
            }
            let Some((_, dropped)) = row.pop() else {
                unreachable!("row is full (len == k >= 1), pop cannot fail")
            };
            if dropped > self.overflow[pos] {
                self.overflow[pos] = dropped;
            }
        }
        // `>=` keeps equal-gain earlier entries in front — stable for the
        // ascending candidate order.
        let idx = row.partition_point(|&(_, eg)| eg >= g);
        row.insert(idx, (v, g));
    }

    /// Merges `right` — collected over strictly higher candidate indices —
    /// into `self`, preserving the gain-descending / earlier-candidate-
    /// first order and folding every truncation into the overflow marks.
    fn merge(mut self, right: TopKCollector) -> TopKCollector {
        for (pos, (row_r, over_r)) in right.rows.into_iter().zip(right.overflow).enumerate() {
            let row_l = std::mem::take(&mut self.rows[pos]);
            let mut overflow = self.overflow[pos].max(over_r);
            let mut merged = Vec::with_capacity(row_l.len().max(row_r.len()));
            let mut l = row_l.into_iter().peekable();
            let mut r = row_r.into_iter().peekable();
            loop {
                let take_left = match (l.peek(), r.peek()) {
                    // Ties prefer the left (earlier-index) chunk's entry.
                    (Some(&(_, gl)), Some(&(_, gr))) => gl >= gr,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => break,
                };
                let Some(entry) = (if take_left { l.next() } else { r.next() }) else {
                    unreachable!("the chosen side was just peeked non-empty")
                };
                if merged.len() < self.k {
                    merged.push(entry);
                } else if entry.1 > overflow {
                    overflow = entry.1;
                }
            }
            self.rows[pos] = merged;
            self.overflow[pos] = overflow;
        }
        self
    }
}

/// Bounded best-swap candidate cache: the rank tables of the last
/// installed full scan, per-member dirt tracking, and a readiness flag.
/// O(p·K) table memory plus the O(n) dirty mask.
#[derive(Debug)]
struct CandidateCache {
    /// Per-member capacity `K`; 0 disables the cache.
    k: usize,
    /// `true` while the tables reflect the current solution: installed by
    /// a full no-swap scan and no membership change since.
    ready: bool,
    rows: Vec<Vec<(ElementId, f64)>>,
    overflow: Vec<f64>,
    /// Candidates whose gains changed *non-uniformly* since the install
    /// (single-column perturbations, arrivals). They are excluded from the
    /// rank argument and re-scanned fresh alongside any cached
    /// verification.
    dirty: Vec<ElementId>,
    dirty_mask: Vec<bool>,
}

impl CandidateCache {
    fn new(k: usize, n: usize) -> Self {
        Self {
            k,
            ready: false,
            rows: Vec::new(),
            overflow: Vec::new(),
            dirty: Vec::new(),
            dirty_mask: vec![false; n],
        }
    }

    /// Drops the tables (membership changed, or the dirt rivals the
    /// ground set); the next full no-swap scan rebuilds them.
    fn invalidate(&mut self) {
        if self.ready {
            self.ready = false;
            self.rows.clear();
            self.overflow.clear();
            for &v in &self.dirty {
                self.dirty_mask[v as usize] = false;
            }
            self.dirty.clear();
        }
    }

    /// Records a non-uniform single-column change since the install.
    fn mark_dirty(&mut self, v: ElementId) {
        if !self.ready || self.dirty_mask[v as usize] {
            return;
        }
        // A dirt set rivalling the ground set makes cached verification no
        // cheaper than the full scan it replaces — drop the tables and let
        // the next break rebuild them fresh.
        if (self.dirty.len() + 1) * 4 > self.dirty_mask.len() {
            self.invalidate();
            return;
        }
        self.dirty_mask[v as usize] = true;
        self.dirty.push(v);
    }

    /// Installs freshly collected rank tables (after a full scan that
    /// found no swap) and clears the dirt.
    fn install(&mut self, coll: TopKCollector) {
        debug_assert!(self.k > 0);
        for &v in &self.dirty {
            self.dirty_mask[v as usize] = false;
        }
        self.dirty.clear();
        self.rows = coll.rows;
        self.overflow = coll.overflow;
        self.ready = true;
    }
}

/// Scan scope accumulated while ingesting a batch of perturbations:
/// candidate columns whose gains may have risen, member rows uniformly
/// shifted upward, and whether anything demanded an unconditional full
/// scan (membership changes, non-uniform weight semantics).
#[derive(Debug, Default)]
struct PendingScan {
    cols: Vec<ElementId>,
    rows: Vec<ElementId>,
    full: bool,
    /// Some availability event may have left the solution short of `p`:
    /// run the batch-final greedy refill pass
    /// ([`DynamicSession::refill_shortfall`]) before the scan.
    refill: bool,
}

impl PendingScan {
    fn is_empty(&self) -> bool {
        !self.full && self.cols.is_empty() && self.rows.is_empty()
    }
}

/// The feasibility regime a [`DynamicSession`]'s swap scans, commits and
/// greedy refills respect (ROADMAP: constraint-diverse dynamic sessions).
///
/// The default [`ConstraintPolicy::Cardinality`] is exactly the classic
/// session: every `(v ∉ S, u ∈ S)` exchange is feasible and cells compete
/// by raw swap gain. [`ConstraintPolicy::Matroid`] restricts the *same*
/// traversal to exchange-feasible pairs
/// ([`Matroid::exchange_feasible`]); [`ConstraintPolicy::Knapsack`]
/// restricts it to budget-feasible pairs and ranks strictly-improving
/// cells by **gain per unit cost** of the incoming element (mirroring
/// [`crate::knapsack::knapsack_diversify`]'s greedy accept rule). All
/// three policies share the direction analysis, O(Δ) repairs,
/// union-scoped batch scans and pooled scans; the bounded
/// best-swap candidate cache stays disabled under the constrained
/// policies (rank order is position-dependent there, so cached
/// verification would be unsound).
pub enum ConstraintPolicy<'q> {
    /// `|S| = p`: every exchange feasible (the classic session).
    Cardinality,
    /// Matroid independence: an exchange `S − u + v` competes iff the
    /// result is independent. Departure refills greedily insert the best
    /// *addable* ([`Matroid::can_add`]) outsider.
    Matroid(&'q (dyn Matroid + 'q)),
    /// Knapsack `Σ cost(u) ≤ budget`: an exchange competes iff it stays
    /// within budget **and** strictly improves the objective, ranked by
    /// gain-per-cost density. Refills insert the best affordable
    /// outsider by potential density.
    Knapsack {
        /// One non-negative finite cost per ground-set element.
        costs: Vec<f64>,
        /// The budget (non-negative, finite).
        budget: f64,
    },
}

impl ConstraintPolicy<'_> {
    fn is_cardinality(&self) -> bool {
        matches!(self, ConstraintPolicy::Cardinality)
    }

    /// The knapsack load `Σ cost(member)` of `members` (0 for the other
    /// policies). Membership only changes between scans, so one sum
    /// serves a whole traversal.
    pub(crate) fn load(&self, members: &[ElementId]) -> f64 {
        match self {
            ConstraintPolicy::Knapsack { costs, .. } => {
                members.iter().map(|&u| costs[u as usize]).sum()
            }
            _ => 0.0,
        }
    }

    /// The one cell rule of every constrained swap scan: the score of
    /// exchanging `u ∈ members` for `v ∉ members`, with `gain` the swap
    /// gain and `load` from [`load`](Self::load). The raw gain under
    /// Cardinality, and under Matroid when the exchange is independent
    /// ([`Matroid::exchange_feasible`]); under Knapsack, the gain-per-cost
    /// density of a budget-feasible strictly-improving exchange. `None`
    /// for every other cell, which the kernel skips.
    pub(crate) fn score(
        &self,
        members: &[ElementId],
        load: f64,
        v: ElementId,
        u: ElementId,
        gain: impl FnOnce() -> f64,
    ) -> Option<f64> {
        match self {
            ConstraintPolicy::Cardinality => Some(gain()),
            ConstraintPolicy::Matroid(m) => m.exchange_feasible(members, u, v).then(gain),
            ConstraintPolicy::Knapsack { costs, budget } => {
                if load - costs[u as usize] + costs[v as usize] > *budget {
                    return None;
                }
                let gain = gain();
                (gain > 0.0).then(|| crate::knapsack::density_score(gain, costs[v as usize]))
            }
        }
    }

    /// A scan winner with its objective gain: knapsack scans rank by
    /// density, so their winner's score is replaced by `gain(v, u)`.
    pub(crate) fn with_true_gain(
        &self,
        best: Option<Swap>,
        gain: impl FnOnce(ElementId, ElementId) -> f64,
    ) -> Option<Swap> {
        match (self, best) {
            (ConstraintPolicy::Knapsack { .. }, Some((u, v, _))) => Some((u, v, gain(v, u))),
            (_, best) => best,
        }
    }
}

impl std::fmt::Debug for ConstraintPolicy<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstraintPolicy::Cardinality => f.write_str("Cardinality"),
            ConstraintPolicy::Matroid(m) => f
                .debug_struct("Matroid")
                .field("ground_size", &m.ground_size())
                .finish_non_exhaustive(),
            ConstraintPolicy::Knapsack { costs, budget } => f
                .debug_struct("Knapsack")
                .field("elements", &costs.len())
                .field("budget", budget)
                .finish(),
        }
    }
}

/// A long-lived dynamic max-sum diversification session over any quality
/// function: owned (perturbable) metric, persistent distance-gain cache
/// and quality oracle, O(Δ) repair per perturbation (see the module docs).
/// Its scans run on its pool (see the module docs).
pub struct DynamicSession<'q, M: Metric, Q: IncrementalOracle + ?Sized = dyn IncrementalOracle + 'q>
{
    metric: M,
    lambda: f64,
    dist: SolutionState,
    quality: Box<Q>,
    /// Availability mask (arrivals / departures).
    active: Vec<bool>,
    /// Target cardinality `p` (the initial solution's size).
    p: usize,
    /// `true` when the last scan over the *current* caches found no
    /// positive swap and nothing affecting a swap gain changed since.
    stable: bool,
    /// Bounded best-swap candidate cache (see the module docs).
    cache: CandidateCache,
    /// Feasibility regime of scans, commits and refills (default
    /// [`ConstraintPolicy::Cardinality`] — the classic session,
    /// bit-identical to pre-policy behavior).
    constraint: ConstraintPolicy<'q>,
    /// Explicit pool for the scans; `None` uses the ambient
    /// [`ScanPool::global`] pool.
    scan_pool: Option<std::sync::Arc<ScanPool>>,
    _quality_fn: std::marker::PhantomData<&'q ()>,
}

impl<M: Metric, Q: IncrementalOracle + ?Sized> std::fmt::Debug for DynamicSession<'_, M, Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicSession")
            .field("members", &self.dist.members())
            .field("p", &self.p)
            .field("lambda", &self.lambda)
            .field("stable", &self.stable)
            .field("constraint", &self.constraint)
            .field("objective", &self.objective())
            .finish()
    }
}

impl<'q, M: Metric> DynamicSession<'q, M> {
    /// Opens a session seeded with `initial` (typically Greedy B's output,
    /// as in the paper's Section 7.3 driver). The metric is cloned into
    /// the session — perturbations mutate the session's copy, never the
    /// source problem — while the quality function stays borrowed (its
    /// oracle lives as long as the session). The session scans on the
    /// problem's pool when one was attached.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty, has duplicates, or exceeds the
    /// ground set.
    pub fn new<F: SetFunction>(
        problem: &'q DiversificationProblem<M, F>,
        initial: &[ElementId],
    ) -> Self
    where
        M: Clone,
    {
        let mut session = Self::from_parts(
            problem.metric().clone(),
            problem.quality().incremental_from(initial),
            problem.lambda(),
            initial,
        );
        session.scan_pool = problem.scan_pool_handle().cloned();
        session
    }
}

impl<'q, M: Metric> DynamicSession<'q, OverlayMetric<std::sync::Arc<M>>> {
    /// Opens a session over a **shared** base metric: the `Arc` corpus is
    /// referenced, not cloned, and the session's distance perturbations
    /// land in a private copy-on-write [`OverlayMetric`] at
    /// O(#overrides) memory — `k` sessions over one `n²` corpus cost
    /// O(n²) + k·O(Δ) instead of k·O(n²). The quality function stays
    /// borrowed; weight perturbations repair its session-local oracle
    /// (e.g. `ModularOracle`'s owned weights), so quality state never
    /// leaks across sessions either.
    ///
    /// # Panics
    ///
    /// As [`DynamicSession::new`].
    pub fn new_shared<F: SetFunction>(
        base: &std::sync::Arc<M>,
        quality: &'q F,
        lambda: f64,
        initial: &[ElementId],
    ) -> Self {
        Self::from_parts(
            OverlayMetric::new(std::sync::Arc::clone(base)),
            quality.incremental_from(initial),
            lambda,
            initial,
        )
    }
}

impl<'q, M: Metric, Q: IncrementalOracle + ?Sized> DynamicSession<'q, M, Q> {
    /// Assembles a session from an explicit metric / oracle pair; the
    /// oracle must already be seeded with `initial`. `pub(crate)` for the
    /// sharded engine, whose per-shard metrics and restricted oracles are
    /// not derivable from a single `DiversificationProblem` borrow.
    pub(crate) fn from_parts(
        metric: M,
        quality: Box<Q>,
        lambda: f64,
        initial: &[ElementId],
    ) -> Self {
        assert!(!initial.is_empty(), "initial solution must be non-empty");
        assert_eq!(
            metric.len(),
            quality.ground_size(),
            "metric and quality oracle must share a ground set"
        );
        assert_eq!(
            quality.len(),
            initial.len(),
            "quality oracle must be seeded with the initial solution"
        );
        let dist = SolutionState::from_set(&metric, initial);
        let active = vec![true; metric.len()];
        Self::from_restored(metric, quality, lambda, dist, active, initial.len(), false)
    }

    /// Reassembles a session from raw evicted state — the serving layer's
    /// tenant re-attach hook. Unlike [`DynamicSession::from_parts`] the
    /// cached floats (`dist`'s gain vector and dispersion, the oracle's
    /// running value) arrive verbatim inside `dist`/`quality` and are
    /// **not** re-accumulated, preserving bit-identity with the evicted
    /// session. The candidate cache starts cold (same documented
    /// [`ScanExtent`]-only divergence as
    /// [`DynamicSession::rollback_to`]); the constraint policy resets to
    /// [`ConstraintPolicy::Cardinality`], the only policy the serving
    /// layer runs.
    pub(crate) fn from_restored(
        metric: M,
        quality: Box<Q>,
        lambda: f64,
        dist: SolutionState,
        active: Vec<bool>,
        p: usize,
        stable: bool,
    ) -> Self {
        assert_eq!(
            metric.len(),
            quality.ground_size(),
            "metric and quality oracle must share a ground set"
        );
        assert_eq!(
            active.len(),
            metric.len(),
            "availability mask must cover the ground set"
        );
        assert_eq!(
            dist.ground_size(),
            metric.len(),
            "solution state must cover the ground set"
        );
        Self {
            active,
            p,
            cache: CandidateCache::new(DEFAULT_CANDIDATE_CAPACITY, metric.len()),
            constraint: ConstraintPolicy::Cardinality,
            metric,
            lambda,
            dist,
            quality,
            stable,
            scan_pool: None,
            _quality_fn: std::marker::PhantomData,
        }
    }

    /// Raw solution-state export (members, mask, gain cache, dispersion)
    /// for tenant eviction snapshots.
    pub(crate) fn solution_raw(&self) -> (Vec<ElementId>, Vec<bool>, Vec<f64>, f64) {
        self.dist.raw_parts()
    }

    /// The availability mask (`active[u]` ⟺ `u` has not departed).
    pub(crate) fn availability_mask(&self) -> &[bool] {
        &self.active
    }

    /// The session's quality oracle (eviction reads its concrete state).
    pub(crate) fn quality_oracle(&self) -> &Q {
        &self.quality
    }

    /// Sets the per-member capacity `K` of the bounded best-swap
    /// candidate cache (builder style; the default is
    /// [`DEFAULT_CANDIDATE_CAPACITY`]). `K = 0` disables the cache: every
    /// row-breaking perturbation falls back to the full scan — exactly
    /// the cache-free behavior. Larger `K` keeps cached verification
    /// alive through more boundary ties and candidate churn at O(p·K)
    /// memory. Purely a scheduling knob: the chosen swaps are identical
    /// for every `K`.
    pub fn with_candidate_cache(mut self, k: usize) -> Self {
        self.cache = CandidateCache::new(k, self.metric.len());
        self
    }

    /// The candidate cache's per-member capacity `K` (0 = disabled).
    pub fn candidate_cache_capacity(&self) -> usize {
        self.cache.k
    }

    /// Constrains the session to `matroid` (builder style): swap scans
    /// enumerate only exchange-feasible pairs
    /// ([`Matroid::exchange_feasible`]) and departure refills insert the
    /// best addable outsider, so every solution the session ever exposes
    /// is independent. The bounded candidate cache is disabled for the
    /// session's lifetime (see [`ConstraintPolicy`]).
    ///
    /// # Panics
    ///
    /// Panics if the matroid's ground set differs from the session's, or
    /// the current solution is not independent.
    pub fn with_matroid(mut self, matroid: &'q (dyn Matroid + 'q)) -> Self {
        assert_eq!(
            matroid.ground_size(),
            self.dist.ground_size(),
            "matroid and session must share a ground set"
        );
        assert!(
            matroid.is_independent(self.dist.members()),
            "current solution must be independent in the matroid"
        );
        self.cache.invalidate();
        self.constraint = ConstraintPolicy::Matroid(matroid);
        self
    }

    /// Constrains the session to a knapsack `Σ cost(u) ≤ budget`
    /// (builder style): swap scans rank budget-feasible strictly-improving
    /// exchanges by gain-per-cost density and refills insert the best
    /// affordable outsider by potential density (both mirroring
    /// [`crate::knapsack::knapsack_diversify`]'s accept rule). The
    /// bounded candidate cache is disabled for the session's lifetime
    /// (see [`ConstraintPolicy`]).
    ///
    /// # Panics
    ///
    /// Panics if `costs` does not cover the ground set, any cost is
    /// negative/non-finite, `budget` is negative/non-finite, or the
    /// current solution exceeds the budget.
    pub fn with_knapsack(mut self, costs: Vec<f64>, budget: f64) -> Self {
        crate::knapsack::assert_valid_knapsack(&costs, self.dist.ground_size(), budget);
        let load: f64 = self.dist.members().iter().map(|&u| costs[u as usize]).sum();
        assert!(
            load <= budget,
            "current solution (load {load}) must fit the budget {budget}"
        );
        self.cache.invalidate();
        self.constraint = ConstraintPolicy::Knapsack { costs, budget };
        self
    }

    /// The session's feasibility regime.
    pub fn constraint(&self) -> &ConstraintPolicy<'q> {
        &self.constraint
    }

    /// Routes this session's scans through an explicit [`ScanPool`]
    /// (builder style). Sessions sharing one pool share its persistent
    /// workers; without this the session uses the pool of the problem it
    /// was opened on, else the ambient [`ScanPool::global`] pool. A
    /// one-thread pool scans serially. Purely a scheduling knob — results
    /// are bit-identical for any pool.
    pub fn with_scan_pool(mut self, pool: std::sync::Arc<ScanPool>) -> Self {
        self.scan_pool = Some(pool);
        self
    }

    /// In-place form of [`DynamicSession::with_scan_pool`].
    pub fn set_scan_pool(&mut self, pool: std::sync::Arc<ScanPool>) {
        self.scan_pool = Some(pool);
    }

    /// The swap-scan kernel over this session's caches: positive gains
    /// only (base 0), best improvement, on the session's pool.
    fn swap_scan(&self) -> SwapScan<'_> {
        SwapScan {
            pool: self
                .scan_pool
                .as_deref()
                .unwrap_or_else(|| ScanPool::global()),
            members: self.dist.members(),
            base: 0.0,
            pivot: PivotRule::BestImprovement,
            cell_cost: self.quality.scan_cost_hint(),
        }
    }

    /// The current solution (insertion order; swaps reorder like
    /// [`SolutionState`]).
    pub fn solution(&self) -> &[ElementId] {
        self.dist.members()
    }

    /// The target cardinality `p`.
    pub fn p(&self) -> usize {
        self.p
    }

    /// The trade-off `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The session's (perturbed) metric.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// `true` iff `u` is currently selected.
    pub fn contains(&self, u: ElementId) -> bool {
        self.dist.contains(u)
    }

    /// `true` iff `u` is currently available (has not departed).
    pub fn is_active(&self, u: ElementId) -> bool {
        self.active[u as usize]
    }

    /// `true` when the solution is known to be single-swap optimal for
    /// the current instance (the last scan found no positive swap and no
    /// later perturbation could have created one).
    pub fn is_stable(&self) -> bool {
        self.stable
    }

    /// Current objective `φ(S)` (O(1) from the caches).
    pub fn objective(&self) -> f64 {
        self.quality.value() + self.lambda * self.dist.dispersion()
    }

    /// One oblivious update over the current caches, without a
    /// perturbation (O(1) when the session is already stable). A no-swap
    /// scan (re-)establishes stability; when the candidate cache survived
    /// the last commit (see [`ScanExtent::Cached`]) the verification runs
    /// through it, otherwise a full collecting scan installs fresh rank
    /// tables.
    pub fn step(&mut self) -> UpdateOutcome {
        if self.stable {
            return UpdateOutcome {
                swap: None,
                gain: 0.0,
            };
        }
        let mut pending = PendingScan::default();
        let (best, _) = self.scoped_scan(&mut pending);
        self.commit(best)
    }

    /// Repeats [`DynamicSession::step`] until no positive swap remains or
    /// `max_updates` is hit; returns the number of swaps performed.
    pub fn update_until_stable(&mut self, max_updates: usize) -> usize {
        let mut updates = 0;
        while updates < max_updates {
            if self.step().swap.is_none() {
                break;
            }
            updates += 1;
        }
        updates
    }

    /// Swap gain `φ(S − u_out + v_in) − φ(S)` from the caches — the exact
    /// expression of [`crate::PotentialState::swap_gain`], so session
    /// scans reproduce the rebuild path's choices.
    fn swap_gain(&self, v_in: ElementId, u_out: ElementId) -> f64 {
        self.quality.swap_gain(v_in, u_out)
            + self.lambda * self.dist.swap_dispersion_delta(&self.metric, v_in, u_out)
    }

    /// `true` for an active outsider — a candidate column of every scan.
    fn is_candidate(&self, v: ElementId) -> bool {
        self.active[v as usize] && !self.dist.contains(v)
    }

    /// The kernel scan over the candidate columns `cols`: each active
    /// outsider `v` scans the member row `row(v)` (the full solution, or a
    /// subset of it in solution order), every cell scored under the
    /// constraint policy ([`ConstraintPolicy::score`]).
    fn scan<'r>(
        &'r self,
        cols: Columns<'_>,
        row: impl Fn(ElementId) -> &'r [ElementId] + Sync,
    ) -> Option<Swap> {
        let members = self.dist.members();
        let load = self.constraint.load(members);
        self.swap_scan().run(
            cols,
            |v, _| self.is_candidate(v).then(|| row(v)),
            |v, u, _| {
                self.constraint
                    .score(members, load, v, u, || self.swap_gain(v, u))
            },
        )
    }

    /// Scan over the given candidate columns (sorted ascending and
    /// deduplicated), which provably contain every positive cell.
    fn scan_columns(&self, cols: &[ElementId]) -> Option<Swap> {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        self.scan(Columns::Listed(cols), |_| self.dist.members())
    }

    /// The full scan; it also collects the candidate cache's rank tables
    /// when the cache is enabled (Cardinality only: the constrained
    /// policies never install tables, so raw swap gains are the cell
    /// scores) — same cells, same gains, same winner either way (asserted
    /// by the `K = 0` equivalence tests).
    fn scan_full(&self) -> FullScan {
        let cols = Columns::All(self.dist.ground_size());
        let members = self.dist.members();
        if self.cache.k == 0 || !self.constraint.is_cardinality() {
            return (self.scan(cols, |_| members), None);
        }
        let (best, coll) = self.swap_scan().run_into(
            cols,
            |v, _| self.is_candidate(v).then_some(members),
            |v, u, _| Some(self.swap_gain(v, u)),
            || TopKCollector::new(self.cache.k, members.len()),
        );
        (best, Some(coll))
    }

    /// First cache entry of the member at solution position `pos` that is
    /// still rank-trustworthy: dirty entries are skipped (their fresh
    /// gains are re-scanned through the dirty columns anyway), inactive
    /// ones are ineligible, and an entry at the truncation boundary's
    /// gain level is ambiguous (an excluded candidate could tie it).
    /// `None` means the row is stale — fall back to the full scan.
    fn cached_row_representative(&self, pos: usize) -> Option<ElementId> {
        for &(v, g) in &self.cache.rows[pos] {
            if self.cache.dirty_mask[v as usize] {
                continue;
            }
            if !self.is_candidate(v) {
                continue;
            }
            if g <= self.cache.overflow[pos] {
                return None;
            }
            return Some(v);
        }
        None
    }

    /// Candidate columns for a cache-verified scan: the broken columns,
    /// every dirty column, and one rank representative per broken member
    /// row. `None` when some broken row's ranking is stale — the caller
    /// falls back to the full scan.
    fn cached_scan_targets(&self, pending: &PendingScan) -> Option<Vec<ElementId>> {
        let members = self.dist.members();
        let mut targets = pending.cols.clone();
        targets.extend_from_slice(&self.cache.dirty);
        for &m in &pending.rows {
            let Some(pos) = members.iter().position(|&x| x == m) else {
                unreachable!("broken row must still be a member (membership changes invalidate)")
            };
            targets.push(self.cached_row_representative(pos)?);
        }
        targets.sort_unstable();
        targets.dedup();
        Some(targets)
    }

    /// Verification targets for a cache-driven *stabilization* scan over
    /// an unstable session (the tables survived the last commit through
    /// [`DynamicSession::repair_cache_for_swap`]): the accumulated break
    /// columns plus every dirty column, one rank representative per
    /// ranked member row, and — instead of a representative — a full
    /// O(n) row sweep for every *fresh* row (a member that entered after
    /// the last install: empty row, untouched overflow mark). `None`
    /// when some ranked row is stale (boundary-tied or rank-exhausted)
    /// or the fresh rows rival the solution size — the caller falls back
    /// to the full scan, which also reinstalls the tables.
    fn cached_stabilize_targets(
        &self,
        pending: &PendingScan,
    ) -> Option<(Vec<ElementId>, Vec<ElementId>)> {
        let members = self.dist.members();
        debug_assert_eq!(self.cache.rows.len(), members.len());
        let mut cols = pending.cols.clone();
        cols.extend_from_slice(&self.cache.dirty);
        let mut fresh = Vec::new();
        for (pos, &m) in members.iter().enumerate() {
            match self.cached_row_representative(pos) {
                Some(v) => cols.push(v),
                None if self.cache.rows[pos].is_empty()
                    && self.cache.overflow[pos] == f64::NEG_INFINITY =>
                {
                    fresh.push(m);
                }
                None => return None,
            }
        }
        // Each fresh row costs an O(n) sweep; past half the solution the
        // full collecting scan is the better buy.
        if fresh.len() * 2 > members.len() {
            return None;
        }
        cols.sort_unstable();
        cols.dedup();
        Some((cols, fresh))
    }

    /// Scan over full candidate columns (`cols`, sorted and deduplicated)
    /// plus, for every other eligible candidate, only the cells against
    /// the `fresh_rows` members (kept in solution order) — the full scan's
    /// traversal restricted to exactly the cells that can hold its
    /// winner, so strict-improvement selection reproduces its
    /// lowest-index tie-breaks.
    fn scan_scoped(&self, cols: &[ElementId], fresh_rows: &[ElementId]) -> Option<Swap> {
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        if fresh_rows.is_empty() {
            return self.scan_columns(cols);
        }
        let members = self.dist.members();
        let fresh: Vec<ElementId> = members
            .iter()
            .copied()
            .filter(|m| fresh_rows.contains(m))
            .collect();
        let mut full_row = vec![false; self.dist.ground_size()];
        for &v in cols {
            full_row[v as usize] = true;
        }
        self.scan(Columns::All(self.dist.ground_size()), |v| {
            if full_row[v as usize] {
                members
            } else {
                &fresh
            }
        })
    }

    /// Runs the narrowest sound scan for the accumulated scope: columns
    /// only, cache-verified rows, cache-driven stabilization, or the full
    /// traversal (which rebuilds the rank tables when it ends stable).
    /// Every path returns the swap the full scan would choose.
    fn scoped_scan(&mut self, pending: &mut PendingScan) -> (Option<Swap>, ScanExtent) {
        if !pending.full {
            if self.stable {
                if pending.rows.is_empty() {
                    pending.cols.sort_unstable();
                    pending.cols.dedup();
                    return (self.scan_columns(&pending.cols), ScanExtent::Column);
                }
                if self.cache.ready {
                    if let Some(targets) = self.cached_scan_targets(pending) {
                        return (self.scan_columns(&targets), ScanExtent::Cached);
                    }
                }
            } else if self.cache.ready {
                // Local optimality is unknown — typically a committed
                // swap just kept the repaired rank tables warm — so
                // verify every row through the cache instead of the full
                // O(n·p) traversal.
                if let Some((cols, fresh)) = self.cached_stabilize_targets(pending) {
                    return (self.scan_scoped(&cols, &fresh), ScanExtent::Cached);
                }
            }
        }
        let (best, coll) = self.scan_full();
        if best.is_none() {
            if let Some(coll) = coll {
                self.cache.install(coll);
            }
        }
        (best, ScanExtent::Full)
    }

    /// Shared tail of every batched entry point: skips the scan when the
    /// session is stable and the batch provably irrelevant (an empty batch
    /// included), otherwise runs the narrowest sound scan over the
    /// accumulated scope and commits at most one swap.
    fn finish_batch(
        &mut self,
        mut pending: PendingScan,
        refills: Vec<ElementId>,
        ingested: usize,
    ) -> BatchReport {
        if self.stable && pending.is_empty() {
            return BatchReport {
                outcome: UpdateOutcome {
                    swap: None,
                    gain: 0.0,
                },
                refills,
                scan: ScanExtent::Skipped,
                ingested,
            };
        }
        let (best, scan) = self.scoped_scan(&mut pending);
        let outcome = self.commit(best);
        BatchReport {
            outcome,
            refills,
            scan,
            ingested,
        }
    }

    /// Weight-perturbation repair + direction analysis (the
    /// [`SessionPerturbation::SetWeight`] arm; shared with the
    /// graph-backed entry points).
    ///
    /// # Panics
    ///
    /// Panics when the quality oracle has no modular weight data.
    fn ingest_weight(&mut self, u: ElementId, value: f64, pending: &mut PendingScan) {
        let old = self.quality.try_set_weight(u, value).unwrap_or_else(|| {
            panic!("quality oracle does not support weight updates (element {u})")
        });
        // Compare in *effective-marginal* units on both sides:
        // `try_set_weight` returns the previous effective weight
        // (coefficient-weighted for mixtures), so the raw `value` is not
        // directly comparable — re-read the marginal, which
        // modular-weight oracles report membership-independently.
        let new = self.quality.marginal(u);
        if !self.quality.weight_updates_shift_uniformly() {
            // Exotic weight semantics (element interactions in
            // try_set_weight): neither the direction analysis nor the
            // column confinement nor the cached ranking is trustworthy —
            // full scan, fresh ranks.
            self.cache.invalidate();
            pending.full = true;
        } else if self.dist.contains(u) {
            if new < old {
                // The member's whole gain row rose by old − new,
                // uniformly: rank order survives, optimality may not.
                pending.rows.push(u);
            }
            // new ≥ old: a uniform downward shift — preserves optimality
            // and the cached order.
        } else {
            self.cache.mark_dirty(u);
            if new > old && self.active[u as usize] {
                pending.cols.push(u);
            }
            // Decreases only lower the one column, and a departed
            // element is in no feasible swap: preserves.
        }
    }

    /// Distance-change repair + direction analysis for an already-applied
    /// metric mutation `d(u, v) += delta` (the tail of the
    /// [`SessionPerturbation::SetDistance`] arm, and the per-pair patch
    /// of a graph edge update's [`EdgeUpdateReport`]).
    fn ingest_distance_delta(
        &mut self,
        u: ElementId,
        v: ElementId,
        delta: f64,
        pending: &mut PendingScan,
    ) {
        if delta == 0.0 {
            return;
        }
        let u_in = self.dist.contains(u);
        let v_in = self.dist.contains(v);
        self.dist.apply_distance_delta(u, v, delta);
        match (u_in, v_in) {
            // Neither endpoint selected: no swap gain involves d(u, v)
            // or either gain row.
            (false, false) => {}
            // Both selected: member gains move by delta, so both rows of
            // swap gains move by −delta, uniformly — increases preserve,
            // decreases break the two rows (rank order survives either
            // way).
            (true, true) => {
                if delta < 0.0 {
                    pending.rows.push(u);
                    pending.rows.push(v);
                }
            }
            // Mixed: only the outside endpoint's column moves (by +delta
            // against every member but the inside endpoint — non-uniform,
            // so the column is dirty for the rank tables). Decreases
            // preserve, as does a departed (ineligible) outside endpoint.
            _ => {
                let outsider = if u_in { v } else { u };
                self.cache.mark_dirty(outsider);
                if delta > 0.0 && self.active[outsider as usize] {
                    pending.cols.push(outsider);
                }
            }
        }
    }

    /// Arrival repair (the [`SessionPerturbation::Arrive`] arm; shared
    /// with the graph-backed entry points). Refills are **deferred** to
    /// the batch-final [`DynamicSession::refill_shortfall`] pass, so a
    /// short solution greedily refills once against the whole batch's
    /// union state (ROADMAP follow-up (e)).
    fn ingest_arrival(&mut self, u: ElementId, pending: &mut PendingScan) {
        if self.active[u as usize] {
            return;
        }
        self.active[u as usize] = true;
        // The element may have been perturbed — or excluded from rank
        // rebuilds — while away: rank-untrustworthy either way.
        self.cache.mark_dirty(u);
        if self.dist.len() < self.p {
            // A standing shortfall (an earlier refill found no feasible
            // candidate) may now be fillable by the newcomer.
            pending.refill = true;
        }
        // Every pre-existing candidate keeps its verified gains; only
        // the new column can hold a positive swap. (If the batch-final
        // refill inserts `u`, its column is skipped as a member — the
        // refill itself clears `stable`, forcing the full scan.)
        pending.cols.push(u);
    }

    /// Departure repair (the [`SessionPerturbation::Depart`] arm; shared
    /// with the graph-backed entry points). Like arrivals, the greedy
    /// refill replacing a departed member is deferred to the batch-final
    /// [`DynamicSession::refill_shortfall`] pass.
    fn ingest_departure(&mut self, u: ElementId, pending: &mut PendingScan) {
        if !self.active[u as usize] {
            return;
        }
        self.active[u as usize] = false;
        if self.dist.contains(u) {
            self.dist.remove(&self.metric, u);
            self.quality.remove(u);
            self.cache.invalidate();
            pending.refill = true;
            self.stable = false;
            pending.full = true;
        }
        // Losing a non-selected candidate only shrinks the scan; its
        // cache entries are filtered by the activity mask at
        // verification time.
    }

    /// Applies a chosen swap to both caches (remove-then-insert, the
    /// [`crate::PotentialState::swap`] order) and updates the stability
    /// flag. When the quality oracle's swap gains are membership-
    /// independent the candidate-cache rank tables are positionally
    /// repaired across the swap instead of dropped (ROADMAP item (d);
    /// see [`DynamicSession::repair_cache_for_swap`]).
    fn commit(&mut self, best: Option<Swap>) -> UpdateOutcome {
        // Knapsack scans rank by gain-per-cost density, so the winning
        // cell's score is not the objective delta — re-read the true gain
        // from the caches before committing it to the report.
        let best = self
            .constraint
            .with_true_gain(best, |v_in, u_out| self.swap_gain(v_in, u_out));
        match best {
            Some((u_out, v_in, gain)) => {
                let Some(idx) = self.dist.members().iter().position(|&x| x == u_out) else {
                    unreachable!("swap winner must be a member")
                };
                self.dist.swap(&self.metric, v_in, u_out);
                self.quality.remove(u_out);
                self.quality.insert(v_in);
                if self.cache.ready && self.quality.swap_gains_are_membership_independent() {
                    self.repair_cache_for_swap(idx, u_out, v_in);
                } else {
                    // A membership change moves every gain row
                    // non-uniformly; without the membership-independence
                    // contract the ranking cannot be repaired.
                    self.cache.invalidate();
                }
                self.stable = false;
                UpdateOutcome {
                    swap: Some((u_out, v_in)),
                    gain,
                }
            }
            None => {
                self.stable = true;
                UpdateOutcome {
                    swap: None,
                    gain: 0.0,
                }
            }
        }
    }

    /// ROADMAP item (d): keeps the candidate cache warm across a
    /// committed swap `u_out → v_in` (sound only under
    /// [`IncrementalOracle::swap_gains_are_membership_independent`]).
    ///
    /// With a membership-independent quality part, the swap moves the
    /// true gain of every surviving cell `(x, u)` by `c(x) + r(u)` where
    /// `c(x) = λ·(d(x, v_in) − d(x, u_out))` and `r(u)` is row-uniform.
    /// Row-uniform offsets never matter to the cache — stored gains and
    /// the overflow high-water mark shift together — so adding `c(x)` to
    /// every stored entry restores the exact relative order, re-sorted
    /// under the scan's tie-break (gain descending, earlier candidate
    /// first). The overflow mark rises by `max_x c(x)` over the
    /// candidate pool, a sound bound for every truncated-out candidate.
    /// The row vector permutes positionally like [`SolutionState::swap`]
    /// (swap-remove at `idx`, then push): the incoming member's row
    /// starts *empty-and-fresh* — re-verified by an O(n) row sweep until
    /// the next full install ([`ScanExtent::Cached`]) — and the departed
    /// member re-enters the candidate pool as a dirty column (its gains
    /// were never ranked). O(p·K·log K + n) per swap, against the full
    /// O(n·p) re-stabilization scan it makes avoidable.
    fn repair_cache_for_swap(&mut self, idx: usize, u_out: ElementId, v_in: ElementId) {
        debug_assert!(self.cache.ready && self.cache.k > 0);
        let lambda = self.lambda;
        let metric = &self.metric;
        let shift = |x: ElementId| lambda * (metric.distance(x, v_in) - metric.distance(x, u_out));
        let mut shift_max = f64::NEG_INFINITY;
        for x in 0..self.dist.ground_size() as ElementId {
            if !self.dist.contains(x) {
                shift_max = shift_max.max(shift(x));
            }
        }
        if !shift_max.is_finite() {
            // No candidates left (p = n): nothing the cache could answer.
            self.cache.invalidate();
            return;
        }
        self.cache.rows.swap_remove(idx);
        self.cache.overflow.swap_remove(idx);
        for (row, overflow) in self
            .cache
            .rows
            .iter_mut()
            .zip(self.cache.overflow.iter_mut())
        {
            for entry in row.iter_mut() {
                entry.1 += shift(entry.0);
            }
            row.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            *overflow += shift_max;
        }
        self.cache.rows.push(Vec::new());
        self.cache.overflow.push(f64::NEG_INFINITY);
        self.cache.mark_dirty(u_out);
    }

    /// Inserts the best *feasible* active outsider (lowest index on
    /// ties), if any: by objective marginal `φ_w(S) = f_w(S) + λ·d_w(S)`
    /// under Cardinality and (filtered through [`Matroid::can_add`])
    /// under a matroid, by potential density
    /// `(½·f_w(S) + λ·d_w(S)) / cost(w)` over the affordable outsiders
    /// under a knapsack (the [`crate::knapsack::knapsack_diversify`]
    /// greedy-completion rule).
    fn refill_once(&mut self) -> Option<ElementId> {
        let n = self.dist.ground_size();
        let load = self.constraint.load(self.dist.members());
        let mut best: Option<(ElementId, f64)> = None;
        for w in 0..n as ElementId {
            if !self.active[w as usize] || self.dist.contains(w) {
                continue;
            }
            let score = match &self.constraint {
                ConstraintPolicy::Cardinality => {
                    self.quality.marginal(w) + self.lambda * self.dist.distance_gain(w)
                }
                ConstraintPolicy::Matroid(m) => {
                    if !m.can_add(w, self.dist.members()) {
                        continue;
                    }
                    self.quality.marginal(w) + self.lambda * self.dist.distance_gain(w)
                }
                ConstraintPolicy::Knapsack { costs, budget } => {
                    let c = costs[w as usize];
                    if load + c > *budget {
                        continue;
                    }
                    crate::knapsack::density_score(
                        0.5 * self.quality.marginal(w) + self.lambda * self.dist.distance_gain(w),
                        c,
                    )
                }
            };
            if best.is_none_or(|(_, b)| score > b) {
                best = Some((w, score));
            }
        }
        let (w, _) = best?;
        self.dist.insert(&self.metric, w);
        self.quality.insert(w);
        self.cache.invalidate();
        Some(w)
    }

    /// Batch-final greedy refill toward `p` (ROADMAP follow-up (e)): all
    /// of the batch's departures and arrivals have been ingested when
    /// this runs, so each greedy pick scores against the *union* state —
    /// one deferred pass instead of one interleaved refill per
    /// availability event. A no-op unless some ingested perturbation
    /// flagged a possible shortfall.
    fn refill_shortfall(&mut self, pending: &PendingScan, refills: &mut Vec<ElementId>) {
        if !pending.refill {
            return;
        }
        while self.dist.len() < self.p {
            match self.refill_once() {
                Some(w) => {
                    refills.push(w);
                    self.stable = false;
                }
                None => break,
            }
        }
    }

    /// The batch checker over this session's ground set, oracle and
    /// availability mask.
    fn check(&self) -> BatchCheck<impl Fn(ElementId) -> bool + '_> {
        BatchCheck::new(
            self.dist.ground_size(),
            self.quality.supports_weight_updates(),
            |u| self.active[u as usize],
        )
    }
}

impl<'q, M: Metric + Clone, Q: IncrementalOracle + ?Sized> DynamicSession<'q, M, Q> {
    /// Captures a [`SessionCheckpoint`]: the session's complete mutable
    /// state, bit-for-bit. See the checkpoint type for the cost model.
    pub fn checkpoint(&self) -> SessionCheckpoint<M> {
        SessionCheckpoint {
            metric: self.metric.clone(),
            dist: self.dist.clone(),
            active: self.active.clone(),
            p: self.p,
            stable: self.stable,
            oracle: self.quality.save_state(),
        }
    }

    /// Restores the session to `checkpoint`, bit-for-bit: metric,
    /// solution and gain caches, availability mask, stability flag, and
    /// oracle state. The bounded best-swap candidate cache is dropped
    /// rather than restored — it is a scheduling accelerator whose
    /// contents never affect which swap wins, so a rolled-back session
    /// answers every query identically to one that never left the
    /// checkpoint (the fault-injection suite asserts this), though an
    /// individual scan may report [`ScanExtent::Full`] where the pristine
    /// session reports a narrower extent.
    ///
    /// # Panics
    ///
    /// Panics when `checkpoint` was taken over a different ground set —
    /// a checkpoint/session pairing bug, not a data fault.
    pub fn rollback_to(&mut self, checkpoint: &SessionCheckpoint<M>) {
        assert_eq!(
            checkpoint.active.len(),
            self.dist.ground_size(),
            "checkpoint from a different ground set"
        );
        self.metric = checkpoint.metric.clone();
        self.dist = checkpoint.dist.clone();
        self.active.clone_from(&checkpoint.active);
        self.p = checkpoint.p;
        self.stable = checkpoint.stable;
        self.quality.restore_state(&checkpoint.oracle);
        self.cache.invalidate();
    }
}

impl<'q, M: PerturbableMetric, Q: IncrementalOracle + ?Sized> DynamicSession<'q, M, Q> {
    /// The unified matrix-perturbation entry point: ingests one coalesced
    /// batch — every perturbation repaired in O(Δ), in order, with the
    /// scan scopes of the direction analysis accumulating across the batch
    /// and at most **one** swap scan over the union scope (see
    /// [`ScanExtent`]). Run [`DynamicSession::update_until_stable`]
    /// afterwards to restore single-swap optimality before reading the
    /// solution. The whole batch is checked up front: either every
    /// perturbation ingests or none does. An empty batch skips the scan
    /// on a stable session and otherwise does what
    /// [`DynamicSession::step`] does.
    ///
    /// Every malformed shape a matrix perturbation can take — NaN /
    /// infinite / negative distances and weights, out-of-range ids,
    /// weight rewrites against an oracle without modular weight data,
    /// arrivals of resident and departures of non-resident elements — is
    /// statically detectable, including availability violations against
    /// the batch's own earlier arrivals/departures (validation simulates
    /// the mask), so a rejected batch provably never mutated the session:
    /// no undo log or checkpoint is spent on the happy path. Graph
    /// batches, whose failures depend on in-batch connectivity, roll back
    /// through a [`SessionCheckpoint`] instead (see
    /// [`DynamicSession::try_apply_graph_batch`]).
    ///
    /// # Errors
    ///
    /// [`SessionError::Rejected`] carrying the offending index and typed
    /// [`PerturbationError`]; the session state is bit-identical to the
    /// pre-call state.
    ///
    /// # Examples
    ///
    /// ```
    /// use msd_core::{greedy_b, DiversificationProblem, DynamicSession, GreedyBConfig};
    /// use msd_core::SessionPerturbation::{Depart, SetDistance, SetWeight};
    /// use msd_metric::DistanceMatrix;
    /// use msd_submodular::ModularFunction;
    ///
    /// let metric = DistanceMatrix::from_fn(6, |u, v| 1.0 + f64::from(u + v) * 0.1);
    /// let quality = ModularFunction::new(vec![0.6, 0.5, 0.4, 0.3, 0.2, 0.1]);
    /// let problem = DiversificationProblem::new(metric, quality, 0.5);
    /// let init = greedy_b(&problem, 3, GreedyBConfig::default());
    /// let mut session = DynamicSession::new(&problem, &init);
    ///
    /// let report = session
    ///     .ingest(&[
    ///         SetWeight { u: 2, value: 3.0 },
    ///         SetDistance { u: 0, v: 1, value: 0.4 },
    ///         Depart { u: init[0] },
    ///     ])
    ///     .expect("well-formed batch");
    /// assert_eq!(report.ingested, 3);
    /// session.update_until_stable(16);
    /// assert!(session.is_stable());
    /// ```
    ///
    /// ```
    /// use msd_core::{
    ///     greedy_b, DiversificationProblem, DynamicSession, GreedyBConfig, PerturbationError,
    ///     SessionError, SessionPerturbation,
    /// };
    /// use msd_metric::DistanceMatrix;
    /// use msd_submodular::ModularFunction;
    ///
    /// let metric = DistanceMatrix::from_fn(6, |u, v| 1.0 + f64::from(u + v) * 0.1);
    /// let quality = ModularFunction::new(vec![0.6, 0.5, 0.4, 0.3, 0.2, 0.1]);
    /// let problem = DiversificationProblem::new(metric, quality, 0.5);
    /// let init = greedy_b(&problem, 3, GreedyBConfig::default());
    /// let mut session = DynamicSession::new(&problem, &init);
    ///
    /// let before = (session.solution().to_vec(), session.objective());
    /// let err = session
    ///     .ingest(&[
    ///         SessionPerturbation::SetDistance { u: 0, v: 1, value: 1.7 }, // valid
    ///         SessionPerturbation::SetDistance { u: 2, v: 3, value: f64::NAN },
    ///     ])
    ///     .unwrap_err();
    /// assert!(matches!(
    ///     err,
    ///     SessionError::Rejected { index: 1, error: PerturbationError::InvalidDistance { .. } }
    /// ));
    /// // All-or-nothing: the valid first entry did not commit either.
    /// assert_eq!((session.solution().to_vec(), session.objective()), before);
    /// ```
    pub fn ingest(
        &mut self,
        perturbations: &[SessionPerturbation],
    ) -> Result<BatchReport, SessionError> {
        self.check().matrix(perturbations)?;
        Ok(self.ingest_unchecked(perturbations))
    }

    /// The ingestion core behind [`DynamicSession::ingest`], also called
    /// directly by the crate-internal drivers (sharded engine, serving
    /// replay) whose input is already validated.
    pub(crate) fn ingest_unchecked(
        &mut self,
        perturbations: &[SessionPerturbation],
    ) -> BatchReport {
        let mut refills = Vec::new();
        let mut pending = PendingScan::default();
        for &p in perturbations {
            self.ingest_one(p, &mut pending);
        }
        self.refill_shortfall(&pending, &mut refills);
        self.finish_batch(pending, refills, perturbations.len())
    }

    /// Repairs the session caches for one perturbation in O(Δ) and
    /// records which part of the swap-gain matrix may have *risen* (the
    /// module docs' direction analysis): nothing, candidate columns,
    /// uniformly shifted member rows, or an unconditional full scan.
    /// Candidate-cache dirt (non-uniform single-column changes) is
    /// recorded even for optimality-preserving perturbations — the rank
    /// tables must stay honest for later cached scans.
    fn ingest_one(&mut self, perturbation: SessionPerturbation, pending: &mut PendingScan) {
        match perturbation {
            SessionPerturbation::SetWeight { u, value } => self.ingest_weight(u, value, pending),
            SessionPerturbation::SetDistance { u, v, value } => {
                let old = self.metric.set_distance(u, v, value);
                self.ingest_distance_delta(u, v, value - old, pending);
            }
            SessionPerturbation::Arrive { u } => self.ingest_arrival(u, pending),
            SessionPerturbation::Depart { u } => self.ingest_departure(u, pending),
        }
    }
}

/// Graph-backed session entry points: edge updates over an
/// [`EdgePerturbableMetric`] (e.g. `msd_metric::DynamicGraphMetric`)
/// flow through the same O(Δ) repair, direction analysis, scan-scope
/// narrowing and candidate-cache dirt tracking as matrix perturbations —
/// the metric repairs its own induced distances and hands back the exact
/// set of moved `(i, j)` pairs, each of which becomes one
/// [`SessionPerturbation::SetDistance`]-style patch.
impl<'q, M: EdgePerturbableMetric, Q: IncrementalOracle + ?Sized> DynamicSession<'q, M, Q> {
    /// The ingestion loop under [`DynamicSession::try_apply_graph_batch`]:
    /// every edge update is repaired incrementally by the metric
    /// (O(n + affected·n), never the Floyd–Warshall cube) and patched
    /// into the session in O(Δ), the scan scopes accumulate across the
    /// batch, and at most **one** swap scan runs over the union. Stops at
    /// the first edge update the metric rejects and returns its index
    /// with the metric's error; rolling back is the caller's job.
    fn ingest_graph_batch(
        &mut self,
        perturbations: &[GraphPerturbation],
    ) -> Result<BatchReport, (usize, EdgeUpdateError)> {
        let mut pending = PendingScan::default();
        for (i, &p) in perturbations.iter().enumerate() {
            self.ingest_graph(p, &mut pending).map_err(|e| (i, e))?;
        }
        let mut refills = Vec::new();
        self.refill_shortfall(&pending, &mut refills);
        Ok(self.finish_batch(pending, refills, perturbations.len()))
    }

    /// Repairs the caches for one graph perturbation: edge updates ask
    /// the metric for its [`EdgeUpdateReport`] and patch every moved pair
    /// through the shared distance-delta analysis; the weight /
    /// availability arms are exactly [`SessionPerturbation`]'s.
    fn ingest_graph(
        &mut self,
        perturbation: GraphPerturbation,
        pending: &mut PendingScan,
    ) -> Result<(), EdgeUpdateError> {
        match perturbation {
            GraphPerturbation::SetEdge { u, v, weight } => {
                let report = self.metric.set_edge(u, v, weight)?;
                self.ingest_edge_report(&report, pending);
            }
            GraphPerturbation::RemoveEdge { u, v } => {
                let report = self.metric.remove_edge(u, v)?;
                self.ingest_edge_report(&report, pending);
            }
            GraphPerturbation::SetWeight { u, value } => self.ingest_weight(u, value, pending),
            GraphPerturbation::Arrive { u } => self.ingest_arrival(u, pending),
            GraphPerturbation::Depart { u } => self.ingest_departure(u, pending),
        }
        Ok(())
    }

    /// Converts an edge update's changed-pair set into the existing O(Δ)
    /// distance patches and scan scoping — one
    /// [`DynamicSession::ingest_distance_delta`] per moved pair.
    fn ingest_edge_report(&mut self, report: &EdgeUpdateReport, pending: &mut PendingScan) {
        for change in &report.changed {
            self.ingest_distance_delta(change.u, change.v, change.new - change.old, pending);
        }
    }
}

/// The validating, transactional graph entry point (`M: Clone` buys the
/// pre-batch [`SessionCheckpoint`]).
impl<'q, M: EdgePerturbableMetric + Clone, Q: IncrementalOracle + ?Sized> DynamicSession<'q, M, Q> {
    /// Ingests a burst of graph perturbations, all-or-nothing over
    /// untrusted input — the [`DynamicSession::ingest`] contract over the
    /// edge-update perturbation model. Every edge update is repaired
    /// incrementally by the metric (O(n + affected·n), never the
    /// Floyd–Warshall cube) and patched into the session in O(Δ), the
    /// scan scopes accumulate across the batch, and at most **one** swap
    /// scan runs over the union, skipped or narrowed when local
    /// optimality provably survives.
    ///
    /// Malformed shapes (invalid weights, out-of-range endpoints,
    /// self-loops, availability violations) are rejected up front without
    /// mutating anything; runtime rejections — a removal of a missing
    /// edge or one that would disconnect the graph, both of which depend
    /// on the connectivity state earlier batch entries created — roll the
    /// session back to a pre-batch [`SessionCheckpoint`], bit-for-bit.
    /// The checkpoint is only taken when a [`GraphPerturbation::RemoveEdge`]
    /// (the one shape that can fail after validation) follows the first
    /// entry. A rejected edge update leaves the metric untouched (the
    /// [`EdgePerturbableMetric`] contract) and nothing runs before the
    /// first entry, so a rejection there has nothing to undo: purely
    /// additive batches and single removals pay no clone.
    ///
    /// # Errors
    ///
    /// [`SessionError::Rejected`] carrying the offending index and the
    /// typed [`PerturbationError`] (every [`EdgeUpdateError`] shape is
    /// wrapped as [`PerturbationError::Edge`]); the session state is
    /// bit-identical to the pre-call state.
    pub fn try_apply_graph_batch(
        &mut self,
        perturbations: &[GraphPerturbation],
    ) -> Result<BatchReport, SessionError> {
        self.check().graph(perturbations)?;
        let checkpoint = perturbations
            .iter()
            .skip(1)
            .any(|p| matches!(p, GraphPerturbation::RemoveEdge { .. }))
            .then(|| self.checkpoint());
        self.ingest_graph_batch(perturbations)
            .map_err(|(index, error)| {
                match &checkpoint {
                    Some(checkpoint) => self.rollback_to(checkpoint),
                    // Only a RemoveEdge fails after validation, and one
                    // past index 0 forces the checkpoint; at index 0 the
                    // rejected update left everything untouched.
                    None => debug_assert_eq!(index, 0, "a later rejection needs a checkpoint"),
                }
                SessionError::Rejected {
                    index,
                    error: error.into(),
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::oblivious_update_step;
    use crate::greedy::{greedy_b, GreedyBConfig};
    use msd_metric::DistanceMatrix;
    use msd_submodular::{CoverageFunction, ModularFunction};

    /// The typed error of a rejected one-perturbation batch.
    fn rejection(result: Result<BatchReport, SessionError>) -> PerturbationError {
        match result {
            Err(SessionError::Rejected { index: 0, error }) => error,
            other => panic!("expected a rejection at index 0, got {other:?}"),
        }
    }

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

    fn coverage_instance(n: usize) -> DiversificationProblem<DistanceMatrix, CoverageFunction> {
        let covers: Vec<Vec<u32>> = (0..n as u32).map(|u| vec![u % 5, (u * 3) % 5]).collect();
        let metric = DistanceMatrix::from_fn(n, |u, v| 1.0 + f64::from(u * 7 + v) % 13.0 / 13.0);
        DiversificationProblem::new(
            metric,
            CoverageFunction::new(covers, vec![1.0, 2.0, 0.5, 3.0, 1.5]),
            0.4,
        )
    }

    /// Drives the same weight/distance script through a session and
    /// through per-step rebuilds on a mirrored problem; swaps and
    /// solutions must match step for step.
    #[test]
    fn session_matches_rebuild_path_on_modular() {
        for seed in 0..5u64 {
            let n = 20;
            let problem = instance(seed, n);
            let init = greedy_b(&problem, 5, GreedyBConfig::default());
            let mut session = DynamicSession::new(&problem, &init);
            let mut mirror = problem.clone();
            let mut sol = init.clone();
            let script = [
                Perturbation::SetWeight { u: 19, value: 3.0 },
                Perturbation::SetDistance {
                    u: 0,
                    v: 7,
                    value: 1.9,
                },
                Perturbation::SetWeight { u: 3, value: 0.01 },
                Perturbation::SetDistance {
                    u: 4,
                    v: 12,
                    value: 1.05,
                },
                Perturbation::SetWeight { u: 11, value: 2.0 },
            ];
            for (step, &pert) in script.iter().enumerate() {
                match pert {
                    Perturbation::SetWeight { u, value } => {
                        mirror.quality_mut().set_weight(u, value)
                    }
                    Perturbation::SetDistance { u, v, value } => {
                        mirror.metric_mut().set(u, v, value)
                    }
                }
                let report = session
                    .ingest(&[SessionPerturbation::from(pert)])
                    .expect("valid batch");
                let expected = oblivious_update_step(&mirror, &mut sol);
                assert_eq!(
                    report.outcome.swap, expected.swap,
                    "seed {seed} step {step}: swap diverged"
                );
                assert_eq!(session.solution(), &sol[..], "seed {seed} step {step}");
                let direct = mirror.objective(&sol);
                assert!(
                    (session.objective() - direct).abs() < 1e-9,
                    "seed {seed} step {step}: cached objective drifted"
                );
            }
        }
    }

    #[test]
    fn stable_session_skips_provably_irrelevant_perturbations() {
        let problem = instance(3, 16);
        let init = greedy_b(&problem, 4, GreedyBConfig::default());
        let mut s = DynamicSession::new(&problem, &init);
        s.update_until_stable(100);
        assert!(s.is_stable());
        // Both endpoints outside S: skipped for any new value.
        let (a, b) = {
            let mut outs = (0..16u32).filter(|&x| !s.contains(x));
            (outs.next().unwrap(), outs.next().unwrap())
        };
        let r = s
            .ingest(&[SessionPerturbation::SetDistance {
                u: a,
                v: b,
                value: 1.99,
            }])
            .expect("valid batch");
        assert_eq!(r.scan, ScanExtent::Skipped);
        assert_eq!(r.outcome.swap, None);
        assert!(s.is_stable());
        // Mixed endpoints, distance decrease: candidate gains only fall.
        let m = s.solution()[0];
        let old = s.metric().distance(a, m);
        let r = s
            .ingest(&[SessionPerturbation::SetDistance {
                u: a,
                v: m,
                value: old * 0.5,
            }])
            .expect("valid batch");
        assert_eq!(r.scan, ScanExtent::Skipped);
        // Mixed endpoints, distance increase: only the outside endpoint's
        // column can have turned positive — a column scan suffices.
        let r = s
            .ingest(&[SessionPerturbation::SetDistance {
                u: a,
                v: m,
                value: old * 2.0,
            }])
            .expect("valid batch");
        assert_eq!(r.scan, ScanExtent::Column);
        // Weight directions: member increase skips, member decrease
        // re-verifies the member's row through the candidate cache.
        s.update_until_stable(100);
        assert!(s.is_stable());
        let m = s.solution()[0];
        assert_eq!(
            s.ingest(&[SessionPerturbation::SetWeight { u: m, value: 6.0 }])
                .expect("valid batch")
                .scan,
            ScanExtent::Skipped,
            "raising a member's weight preserves single-swap optimality"
        );
        assert_eq!(
            s.ingest(&[SessionPerturbation::SetWeight { u: m, value: 0.01 }])
                .expect("valid batch")
                .scan,
            ScanExtent::Cached
        );
    }

    #[test]
    fn departures_refill_greedily_and_arrivals_rescan_one_column() {
        let problem = instance(8, 12);
        let init = greedy_b(&problem, 4, GreedyBConfig::default());
        let mut s = DynamicSession::new(&problem, &init);
        s.update_until_stable(100);
        let leaving = s.solution()[1];
        // Expected refill: best objective marginal among active outsiders
        // of S − leaving, recomputed through the slice oracles.
        let expected_refill = {
            let remaining: Vec<ElementId> = s
                .solution()
                .iter()
                .copied()
                .filter(|&x| x != leaving)
                .collect();
            (0..12u32)
                .filter(|x| x != &leaving && !remaining.contains(x))
                .map(|w| (w, problem.marginal(w, &remaining)))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap()
                .0
        };
        let r = s
            .ingest(&[SessionPerturbation::Depart { u: leaving }])
            .expect("valid batch");
        assert_eq!(r.refills.last().copied(), Some(expected_refill));
        assert!(!s.contains(leaving));
        assert!(!s.is_active(leaving));
        assert_eq!(s.solution().len(), 4);
        // A departed element never re-enters through the scan.
        s.update_until_stable(100);
        assert!(!s.contains(leaving));
        // Departure of a non-member while stable is a no-op.
        let outsider = (0..12u32)
            .find(|&x| !s.contains(x) && s.is_active(x))
            .unwrap();
        let r = s
            .ingest(&[SessionPerturbation::Depart { u: outsider }])
            .expect("valid batch");
        assert_eq!(r.scan, ScanExtent::Skipped);
        // Perturbations touching only the departed element are skippable
        // in *any* direction — it is in no feasible swap. (Values are
        // restored afterwards so the final consistency check against the
        // unperturbed problem still holds.)
        let m0 = s.solution()[0];
        let d_old = s.metric().distance(outsider, m0);
        let r = s
            .ingest(&[SessionPerturbation::SetDistance {
                u: outsider,
                v: m0,
                value: d_old * 3.0,
            }])
            .expect("valid batch");
        assert_eq!(r.scan, ScanExtent::Skipped);
        let w_old = problem.quality().weight(outsider);
        let r = s
            .ingest(&[SessionPerturbation::SetWeight {
                u: outsider,
                value: w_old + 50.0,
            }])
            .expect("valid batch");
        assert_eq!(r.scan, ScanExtent::Skipped);
        s.ingest(&[SessionPerturbation::SetDistance {
            u: outsider,
            v: m0,
            value: d_old,
        }])
        .expect("valid batch");
        s.ingest(&[SessionPerturbation::SetWeight {
            u: outsider,
            value: w_old,
        }])
        .expect("valid batch");
        // Re-arrival scans only the new column.
        let r = s
            .ingest(&[SessionPerturbation::Arrive { u: outsider }])
            .expect("valid batch");
        assert_eq!(r.scan, ScanExtent::Column);
        let r = s
            .ingest(&[SessionPerturbation::Arrive { u: leaving }])
            .expect("valid batch");
        assert_eq!(r.scan, ScanExtent::Column);
        // Objective cache stays consistent with a slice recomputation.
        let direct = problem.objective(s.solution());
        assert!((s.objective() - direct).abs() < 1e-9);
    }

    #[test]
    fn session_works_on_coverage_with_distance_perturbations() {
        let problem = coverage_instance(14);
        let init = greedy_b(&problem, 4, GreedyBConfig::default());
        let mut session = DynamicSession::new(&problem, &init);
        let mut mirror = problem.clone();
        let mut sol = init.clone();
        for (step, (u, v, value)) in [(0u32, 5u32, 1.8), (2, 9, 1.01), (1, 13, 1.6), (3, 4, 1.2)]
            .into_iter()
            .enumerate()
        {
            mirror.metric_mut().set(u, v, value);
            let report = session
                .ingest(&[SessionPerturbation::SetDistance { u, v, value }])
                .expect("valid batch");
            let expected = oblivious_update_step(&mirror, &mut sol);
            assert_eq!(report.outcome.swap, expected.swap, "step {step}");
            assert_eq!(session.solution(), &sol[..], "step {step}");
        }
    }

    #[test]
    fn mixture_weight_skip_compares_effective_units() {
        // Regression: for a coefficient-weighted modular mixture the raw
        // new weight and `try_set_weight`'s effective old value live in
        // different units. With coefficient 0.25, setting the selected
        // member's raw weight 1.0 → 0.5 *halves* its effective marginal
        // (0.25 → 0.125) — the buggy raw-vs-effective comparison
        // (0.5 ≥ 0.25) skipped the scan and left the session stuck on a
        // suboptimal solution forever.
        use msd_submodular::MixtureFunction;
        let metric = DistanceMatrix::from_fn(2, |_, _| 1.0);
        let quality = MixtureFunction::new(2).with(0.25, ModularFunction::new(vec![1.0, 0.6]));
        let problem = DiversificationProblem::new(metric, quality, 0.0);
        let mut s = DynamicSession::new(&problem, &[0]);
        s.update_until_stable(10);
        assert!(s.is_stable());
        let r = s
            .ingest(&[SessionPerturbation::SetWeight { u: 0, value: 0.5 }])
            .expect("valid batch");
        assert_eq!(r.scan, ScanExtent::Cached);
        assert_eq!(r.outcome.swap, Some((0, 1)));
        assert_eq!(s.solution(), &[1]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_initial_solution_rejected() {
        let problem = instance(1, 4);
        let _ = DynamicSession::new(&problem, &[]);
    }

    #[test]
    fn degenerate_p_equals_n_and_p_one() {
        // p = n: no outsiders, every perturbation skips or scans to None.
        let problem = instance(5, 6);
        let all: Vec<ElementId> = (0..6).collect();
        let mut s = DynamicSession::new(&problem, &all);
        let r = s
            .ingest(&[SessionPerturbation::SetDistance {
                u: 1,
                v: 4,
                value: 1.3,
            }])
            .expect("valid batch");
        assert_eq!(r.outcome.swap, None);
        assert_eq!(s.solution().len(), 6);
        // p = 1: holds the best singleton under λ = 0-style dominance.
        let metric = DistanceMatrix::from_fn(5, |_, _| 1.0);
        let weights = vec![0.1, 0.2, 5.0, 0.4, 0.3];
        let p1 = DiversificationProblem::new(metric, ModularFunction::new(weights), 0.0);
        let mut s = DynamicSession::new(&p1, &[0]);
        let r = s
            .ingest(&[SessionPerturbation::SetWeight { u: 0, value: 0.05 }])
            .expect("valid batch");
        assert_eq!(r.outcome.swap, Some((0, 2)));
        assert_eq!(s.solution(), &[2]);
    }

    #[test]
    fn apply_batch_empty_skips_only_on_a_stable_session() {
        // Unstable: an empty batch is exactly one `step()` of a twin.
        let problem = instance(2, 10);
        let mut s = DynamicSession::new(&problem, &[0, 1, 2]);
        let mut twin = DynamicSession::new(&problem, &[0, 1, 2]);
        let mut swaps = 0;
        while !twin.is_stable() {
            let r = s.ingest(&[]).expect("valid batch");
            let step = twin.step();
            assert_eq!(r.ingested, 0);
            assert!(r.refills.is_empty());
            assert_ne!(r.scan, ScanExtent::Skipped);
            assert_eq!(r.outcome.swap, step.swap);
            assert_eq!(r.outcome.gain.to_bits(), step.gain.to_bits());
            assert_eq!(s.solution(), twin.solution());
            assert_eq!(s.objective().to_bits(), twin.objective().to_bits());
            assert_eq!(s.is_stable(), twin.is_stable());
            swaps += usize::from(step.swap.is_some());
        }
        assert!(swaps > 0, "the instance must exercise a swap");
        // Stable: skipped, and the state is untouched bit for bit.
        let before = fingerprint(&s);
        let r = s.ingest(&[]).expect("valid batch");
        assert_eq!(r.scan, ScanExtent::Skipped);
        assert_eq!(r.outcome.swap, None);
        assert!(r.refills.is_empty());
        assert_eq!(fingerprint(&s), before);
    }

    #[test]
    fn apply_batch_skips_fully_irrelevant_batches() {
        let problem = instance(4, 16);
        let init = greedy_b(&problem, 4, GreedyBConfig::default());
        let mut s = DynamicSession::new(&problem, &init);
        s.update_until_stable(100);
        assert!(s.is_stable());
        // Both-outside distance rewrites and an outsider weight decrease:
        // provably irrelevant individually, hence as a batch.
        let (a, b, c) = {
            let mut outs = (0..16u32).filter(|&x| !s.contains(x));
            (
                outs.next().unwrap(),
                outs.next().unwrap(),
                outs.next().unwrap(),
            )
        };
        let batch = [
            SessionPerturbation::SetDistance {
                u: a,
                v: b,
                value: 1.95,
            },
            SessionPerturbation::SetDistance {
                u: b,
                v: c,
                value: 1.01,
            },
            SessionPerturbation::SetWeight { u: a, value: 0.0 },
        ];
        let r = s.ingest(&batch).expect("valid batch");
        assert_eq!(r.scan, ScanExtent::Skipped);
        assert_eq!(r.outcome.swap, None);
        assert_eq!(r.ingested, 3);
        assert!(s.is_stable());
    }

    #[test]
    fn apply_batch_merges_scopes_and_matches_the_deferred_rebuild_reference() {
        // A burst mixing column breaks (candidate weight increase, mixed
        // distance increase), a row break (member weight decrease) and an
        // in-batch duplicate: the batched session runs one scoped scan
        // and must reproduce, swap for swap, the reference that applies
        // every repair to a mirrored instance first and then repairs by
        // fresh rebuild-and-scan steps — the sequential-ingestion
        // semantics batched ingestion promises (repairs in order, swaps
        // deferred behind the single union scan).
        for seed in 0..6u64 {
            let n = 24;
            let problem = instance(seed + 40, n);
            let init = greedy_b(&problem, 6, GreedyBConfig::default());
            let mut batched = DynamicSession::new(&problem, &init);
            batched.update_until_stable(100);
            let m0 = batched.solution()[0];
            let m1 = batched.solution()[1];
            let out: Vec<ElementId> = (0..n as u32).filter(|&x| !batched.contains(x)).collect();
            let burst = [
                SessionPerturbation::SetWeight {
                    u: out[0],
                    value: 0.9,
                },
                SessionPerturbation::SetWeight { u: m0, value: 0.05 },
                SessionPerturbation::SetDistance {
                    u: out[1],
                    v: m1,
                    value: 1.99,
                },
                // Duplicate of the first element inside the same batch.
                SessionPerturbation::SetWeight {
                    u: out[0],
                    value: 0.95,
                },
            ];
            let mut mirror = problem.clone();
            let mut sol = batched.solution().to_vec();
            for &p in &burst {
                match p {
                    SessionPerturbation::SetWeight { u, value } => {
                        mirror.quality_mut().set_weight(u, value)
                    }
                    SessionPerturbation::SetDistance { u, v, value } => {
                        mirror.metric_mut().set(u, v, value)
                    }
                    _ => unreachable!(),
                }
            }
            let r = batched.ingest(&burst).expect("valid batch");
            assert_eq!(r.ingested, 4);
            assert_ne!(r.scan, ScanExtent::Skipped, "the burst is relevant");
            let expected = oblivious_update_step(&mirror, &mut sol);
            assert_eq!(
                r.outcome.swap, expected.swap,
                "seed {seed}: batch scan winner diverged from the rebuild reference"
            );
            // …and so must the stabilization tail, step for step.
            loop {
                let a = batched.step();
                let b = oblivious_update_step(&mirror, &mut sol);
                assert_eq!(a.swap, b.swap, "seed {seed}: stabilization diverged");
                assert_eq!(batched.solution(), &sol[..], "seed {seed}");
                if a.swap.is_none() {
                    break;
                }
            }
            assert!(batched.is_stable());
        }
    }

    #[test]
    fn candidate_cache_matches_cache_free_swaps_bit_for_bit() {
        // The cache is a scheduling structure: for any K the chosen swaps
        // must equal the cache-free (K = 0, full-scan) session's.
        for seed in 0..4u64 {
            let n = 20;
            let problem = instance(seed + 60, n);
            let init = greedy_b(&problem, 5, GreedyBConfig::default());
            let mut reference = DynamicSession::new(&problem, &init).with_candidate_cache(0);
            let mut cached = DynamicSession::new(&problem, &init).with_candidate_cache(3);
            reference.update_until_stable(100);
            cached.update_until_stable(100);
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for step in 0..60 {
                let pert = match next() % 3 {
                    0 => SessionPerturbation::SetWeight {
                        u: (next() % n as u64) as u32,
                        value: (next() % 97) as f64 / 97.0,
                    },
                    _ => {
                        let u = (next() % n as u64) as u32;
                        let mut v = (next() % n as u64) as u32;
                        if v == u {
                            v = (v + 1) % n as u32;
                        }
                        SessionPerturbation::SetDistance {
                            u,
                            v,
                            value: 1.0 + (next() % 89) as f64 / 89.0,
                        }
                    }
                };
                let a = reference.ingest(&[pert]).expect("valid batch");
                let b = cached.ingest(&[pert]).expect("valid batch");
                assert_eq!(
                    a.outcome.swap, b.outcome.swap,
                    "seed {seed} step {step}: cache changed the swap"
                );
                assert_eq!(reference.solution(), cached.solution());
                assert_ne!(
                    a.scan,
                    ScanExtent::Cached,
                    "K = 0 must never take the cached path"
                );
            }
        }
    }

    #[test]
    fn boundary_tied_cache_rows_fall_back_to_the_full_scan() {
        // Uniform metric, member weight 1.0, four candidates all tied at
        // 0.5: with K = 1 the row's sole entry ties the truncation
        // boundary, so a member-row break must refuse the cached path —
        // and still pick the lowest-index candidate.
        let metric = DistanceMatrix::from_fn(5, |_, _| 1.0);
        let weights = vec![1.0, 0.5, 0.5, 0.5, 0.5];
        let problem = DiversificationProblem::new(metric, ModularFunction::new(weights), 0.25);
        let mut s = DynamicSession::new(&problem, &[0]).with_candidate_cache(1);
        s.update_until_stable(10);
        assert!(s.is_stable());
        let r = s
            .ingest(&[SessionPerturbation::SetWeight { u: 0, value: 0.4 }])
            .expect("valid batch");
        assert_eq!(
            r.scan,
            ScanExtent::Full,
            "tied boundary must not trust K = 1"
        );
        assert_eq!(r.outcome.swap, Some((0, 1)), "lowest-index tie-break");
        // With capacity for every candidate the ranking is complete, the
        // cached path engages, and the same lowest-index winner emerges.
        let mut s = DynamicSession::new(&problem, &[0]).with_candidate_cache(4);
        s.update_until_stable(10);
        let r = s
            .ingest(&[SessionPerturbation::SetWeight { u: 0, value: 0.4 }])
            .expect("valid batch");
        assert_eq!(r.scan, ScanExtent::Cached);
        assert_eq!(r.outcome.swap, Some((0, 1)));
    }

    #[test]
    fn candidate_cache_survives_swaps_for_modular_quality() {
        // ROADMAP (d): with membership-independent quality gains a
        // committed swap repairs the rank tables positionally instead of
        // dropping them, so the post-swap re-verification runs through
        // the cache (ScanExtent::Cached) — while every chosen swap stays
        // bit-identical to the cache-free session.
        let problem = instance(12, 30);
        let init = greedy_b(&problem, 6, GreedyBConfig::default());
        let mut cached = DynamicSession::new(&problem, &init).with_candidate_cache(8);
        let mut reference = DynamicSession::new(&problem, &init).with_candidate_cache(0);
        cached.update_until_stable(100);
        reference.update_until_stable(100);
        assert!(cached.is_stable());
        // A 10× weight spike on an outsider forces a swap through the
        // narrow column scan; the commit must repair, not drop, the
        // tables.
        let outsider = (0..30u32).find(|&v| !cached.contains(v)).unwrap();
        let spike = SessionPerturbation::SetWeight {
            u: outsider,
            value: 10.0,
        };
        let a = cached.ingest(&[spike]).expect("valid batch");
        let b = reference.ingest(&[spike]).expect("valid batch");
        assert_eq!(a.outcome.swap, b.outcome.swap);
        assert!(a.outcome.swap.is_some(), "the weight spike must swap in");
        assert_eq!(cached.solution(), reference.solution());
        assert!(!cached.is_stable());
        // The session is unstable with warm repaired tables: the next
        // update re-verifies through the cache, where the cache-free
        // session pays the full scan.
        let (x, y) = {
            let mut outs = (0..30u32).filter(|&v| !cached.contains(v));
            (outs.next().unwrap(), outs.next().unwrap())
        };
        let pert = SessionPerturbation::SetDistance {
            u: x,
            v: y,
            value: 1.5,
        };
        let a = cached.ingest(&[pert]).expect("valid batch");
        let b = reference.ingest(&[pert]).expect("valid batch");
        assert_eq!(a.scan, ScanExtent::Cached, "repaired tables must answer");
        assert_eq!(b.scan, ScanExtent::Full);
        assert_eq!(a.outcome.swap, b.outcome.swap);
        assert_eq!(cached.solution(), reference.solution());
        // Once re-stabilized, both sessions agree on further traffic.
        cached.update_until_stable(100);
        reference.update_until_stable(100);
        assert_eq!(cached.solution(), reference.solution());
        let direct = problem_objective_check(&cached);
        assert!((cached.objective() - direct).abs() < 1e-9);

        fn problem_objective_check(s: &DynamicSession<'_, DistanceMatrix>) -> f64 {
            // The session owns its (perturbed) metric; recompute from it.
            s.quality.value() + s.lambda() * s.metric().dispersion(s.solution())
        }
    }

    #[test]
    fn graph_session_patches_edge_updates_through_the_report() {
        use msd_metric::{DynamicGraphMetric, WeightedGraph};
        // A 6-cycle with a chord; modular quality. One edge update moves
        // several induced distances at once; the graph session must match
        // a fresh rebuild-and-scan on the Floyd–Warshall-rebuilt twin.
        let mut g = WeightedGraph::new(6);
        for i in 0..6u32 {
            g.add_edge(i, (i + 1) % 6, 1.0 + f64::from(i) * 0.25);
        }
        g.add_edge(0, 3, 2.0);
        let metric = DynamicGraphMetric::from_graph(&g).unwrap();
        let weights = vec![0.9, 0.3, 0.8, 0.2, 0.7, 0.1];
        let problem =
            DiversificationProblem::new(metric, ModularFunction::new(weights.clone()), 0.3);
        let init = greedy_b(&problem, 3, GreedyBConfig::default());
        let mut session = DynamicSession::new(&problem, &init);
        session.update_until_stable(16);
        let mut mirror_graph = g.clone();
        let mut sol = session.solution().to_vec();
        let script = [(0u32, 3u32, 0.5), (1, 2, 4.0), (4, 5, 0.25), (0, 1, 3.0)];
        for (step, &(u, v, w)) in script.iter().enumerate() {
            mirror_graph.set_edge(u, v, w);
            let rebuilt = mirror_graph.shortest_path_metric().unwrap();
            let mirror =
                DiversificationProblem::new(rebuilt, ModularFunction::new(weights.clone()), 0.3);
            let report = session
                .try_apply_graph_batch(&[GraphPerturbation::SetEdge { u, v, weight: w }])
                .unwrap();
            let expected = oblivious_update_step(&mirror, &mut sol);
            assert_eq!(report.outcome.swap, expected.swap, "step {step}");
            assert_eq!(session.solution(), &sol[..], "step {step}");
            // The owned metric matches the rebuilt twin bit for bit
            // (dyadic weights: exact shortest-path sums).
            assert_eq!(
                session.metric().matrix().triangle(),
                mirror.metric().triangle(),
                "step {step}: repaired metric diverged"
            );
            let direct = mirror.objective(session.solution());
            assert!((session.objective() - direct).abs() < 1e-9, "step {step}");
        }
        // A disconnecting removal fails cleanly: metric, caches and
        // stability untouched.
        let mut bridge = WeightedGraph::new(3);
        bridge.add_edge(0, 1, 1.0).add_edge(1, 2, 1.0);
        let metric = DynamicGraphMetric::from_graph(&bridge).unwrap();
        let problem =
            DiversificationProblem::new(metric, ModularFunction::new(vec![1.0, 0.1, 0.5]), 0.1);
        let mut session = DynamicSession::new(&problem, &[0, 2]);
        session.update_until_stable(8);
        let before = session.solution().to_vec();
        let err = rejection(
            session.try_apply_graph_batch(&[GraphPerturbation::RemoveEdge { u: 0, v: 1 }]),
        );
        assert_eq!(
            err,
            PerturbationError::Edge(msd_metric::EdgeUpdateError::Disconnected(
                msd_metric::DisconnectedGraph { u: 0, v: 1 }
            ))
        );
        assert_eq!(session.solution(), &before[..]);
        assert!(
            session.is_stable(),
            "a rejected lone update keeps stability"
        );
        // The shared weight / availability arms ride along unchanged.
        let r = session
            .try_apply_graph_batch(&[GraphPerturbation::SetWeight { u: 1, value: 9.0 }])
            .unwrap();
        assert_eq!(r.outcome.swap, Some((2, 1)));
        let r = session
            .try_apply_graph_batch(&[GraphPerturbation::Depart { u: 1 }])
            .unwrap();
        assert_eq!(r.refills.last().copied(), Some(2));
    }

    #[test]
    fn depart_below_capacity_refills_on_next_arrival() {
        // Shrink the active pool to exactly p, depart a member (no refill
        // candidate), then let an arrival restore the capacity.
        let problem = instance(9, 6);
        let mut s = DynamicSession::new(&problem, &[0, 1, 2]);
        for u in [3u32, 4, 5] {
            s.ingest(&[SessionPerturbation::Depart { u }])
                .expect("valid batch");
        }
        let r = s
            .ingest(&[SessionPerturbation::Depart { u: 1 }])
            .expect("valid batch");
        assert_eq!(r.refills.last().copied(), None);
        assert_eq!(s.solution().len(), 2);
        let r = s
            .ingest(&[SessionPerturbation::Arrive { u: 4 }])
            .expect("valid batch");
        assert_eq!(r.refills.last().copied(), Some(4));
        assert_eq!(s.solution().len(), 3);
        assert!(s.contains(4));
        let direct = problem.objective(s.solution());
        assert!((s.objective() - direct).abs() < 1e-9);
    }

    /// Bit-level fingerprint of a matrix-backed session's observable
    /// state: metric triangle, solution, availability, objective bits,
    /// stability.
    fn fingerprint(
        s: &DynamicSession<'_, DistanceMatrix>,
    ) -> (Vec<u64>, Vec<ElementId>, Vec<bool>, u64, bool) {
        (
            s.metric().triangle().iter().map(|d| d.to_bits()).collect(),
            s.solution().to_vec(),
            (0..s.metric().len() as ElementId)
                .map(|u| s.is_active(u))
                .collect(),
            s.objective().to_bits(),
            s.is_stable(),
        )
    }

    #[test]
    fn try_apply_rejects_every_malformed_shape_without_mutation() {
        let problem = instance(3, 12);
        let mut s = DynamicSession::new(&problem, &[0, 1, 2, 3]);
        s.ingest(&[SessionPerturbation::Depart { u: 7 }])
            .expect("valid batch");
        s.update_until_stable(20);
        let before = fingerprint(&s);
        let cases: Vec<(SessionPerturbation, PerturbationError)> = vec![
            (
                SessionPerturbation::SetDistance {
                    u: 0,
                    v: 5,
                    value: f64::NAN,
                },
                PerturbationError::InvalidDistance {
                    u: 0,
                    v: 5,
                    value: f64::NAN,
                },
            ),
            (
                SessionPerturbation::SetDistance {
                    u: 2,
                    v: 4,
                    value: f64::INFINITY,
                },
                PerturbationError::InvalidDistance {
                    u: 2,
                    v: 4,
                    value: f64::INFINITY,
                },
            ),
            (
                SessionPerturbation::SetDistance {
                    u: 1,
                    v: 3,
                    value: -0.5,
                },
                PerturbationError::InvalidDistance {
                    u: 1,
                    v: 3,
                    value: -0.5,
                },
            ),
            (
                SessionPerturbation::SetDistance {
                    u: 6,
                    v: 6,
                    value: 1.0,
                },
                PerturbationError::DiagonalDistance { u: 6 },
            ),
            (
                SessionPerturbation::SetDistance {
                    u: 0,
                    v: 40,
                    value: 1.0,
                },
                PerturbationError::ElementOutOfRange { u: 40, n: 12 },
            ),
            (
                SessionPerturbation::SetWeight {
                    u: 2,
                    value: f64::NAN,
                },
                PerturbationError::InvalidWeight {
                    u: 2,
                    value: f64::NAN,
                },
            ),
            (
                SessionPerturbation::SetWeight { u: 2, value: -1.0 },
                PerturbationError::InvalidWeight { u: 2, value: -1.0 },
            ),
            (
                SessionPerturbation::Arrive { u: 0 },
                PerturbationError::DuplicateArrival { u: 0 },
            ),
            (
                SessionPerturbation::Depart { u: 7 },
                PerturbationError::DepartureOfAbsent { u: 7 },
            ),
            (
                SessionPerturbation::Arrive { u: 99 },
                PerturbationError::ElementOutOfRange { u: 99, n: 12 },
            ),
        ];
        for (pert, want) in cases {
            let err = rejection(s.ingest(&[pert]));
            // NaN payloads compare unequal under `==`; match on rendering.
            assert_eq!(err.to_string(), want.to_string(), "{pert:?}");
            assert_eq!(
                fingerprint(&s),
                before,
                "rejected {pert:?} mutated the session"
            );
        }
        // A NaN-carrying error's Display names the offending value.
        assert!(PerturbationError::InvalidDistance {
            u: 0,
            v: 5,
            value: f64::NAN
        }
        .to_string()
        .contains("NaN"));
        // The session is still live: a valid perturbation goes through.
        let report = s
            .ingest(&[SessionPerturbation::SetWeight { u: 2, value: 4.0 }])
            .unwrap();
        let _ = report.scan;
    }

    #[test]
    fn try_apply_batch_is_all_or_nothing_over_simulated_availability() {
        let problem = instance(11, 10);
        let mut s = DynamicSession::new(&problem, &[0, 1, 2]);
        s.ingest(&[SessionPerturbation::Depart { u: 9 }])
            .expect("valid batch");
        s.update_until_stable(20);
        let before = fingerprint(&s);
        // Index 2 re-arrives an element the batch itself already brought
        // back: only the simulated mask catches it.
        let batch = [
            SessionPerturbation::Arrive { u: 9 },
            SessionPerturbation::SetDistance {
                u: 0,
                v: 9,
                value: 2.0,
            },
            SessionPerturbation::Arrive { u: 9 },
        ];
        let err = s.ingest(&batch[..]).unwrap_err();
        assert!(matches!(
            err,
            SessionError::Rejected {
                index: 2,
                error: PerturbationError::DuplicateArrival { u: 9 }
            }
        ));
        assert_eq!(
            fingerprint(&s),
            before,
            "rejected batch must not commit a prefix"
        );
        // The departure/arrival pair is legal in one batch (the mask
        // tracks the intermediate state), as is departing a batch arrival.
        let batch = [
            SessionPerturbation::Arrive { u: 9 },
            SessionPerturbation::Depart { u: 9 },
            SessionPerturbation::Arrive { u: 9 },
        ];
        let report = s.ingest(&batch[..]).unwrap();
        assert_eq!(report.ingested, 3);
        assert!(s.is_active(9));
        // Error indices point at the first offender.
        let err = s
            .ingest(&[
                SessionPerturbation::SetWeight { u: 1, value: 2.0 },
                SessionPerturbation::SetDistance {
                    u: 3,
                    v: 3,
                    value: 1.0,
                },
            ])
            .unwrap_err();
        assert!(matches!(err, SessionError::Rejected { index: 1, .. }));
    }

    #[test]
    fn checkpoint_rollback_is_bit_exact_under_interleaved_batches() {
        let problem = instance(17, 14);
        let mut live = DynamicSession::new(&problem, &[0, 1, 2, 3]);
        let mut pristine = DynamicSession::new(&problem, &[0, 1, 2, 3]);
        let prefix = [
            SessionPerturbation::SetDistance {
                u: 2,
                v: 9,
                value: 3.5,
            },
            SessionPerturbation::Depart { u: 5 },
            SessionPerturbation::SetWeight { u: 8, value: 2.25 },
        ];
        for &p in &prefix {
            live.ingest(&[p]).expect("valid batch");
            pristine.ingest(&[p]).expect("valid batch");
        }
        live.update_until_stable(30);
        pristine.update_until_stable(30);
        let cp = live.checkpoint();
        // Diverge the live session with interleaved availability churn,
        // distance rewrites, and weight updates…
        let leaving = live.solution()[0];
        live.ingest(&[
            SessionPerturbation::Arrive { u: 5 },
            SessionPerturbation::SetDistance {
                u: 0,
                v: 5,
                value: 9.0,
            },
            SessionPerturbation::Depart { u: leaving },
            SessionPerturbation::SetWeight { u: 1, value: 0.01 },
            SessionPerturbation::SetDistance {
                u: 3,
                v: 11,
                value: 0.25,
            },
        ])
        .expect("valid batch");
        live.update_until_stable(30);
        assert_ne!(fingerprint(&live), fingerprint(&pristine));
        // …then roll back: every observable bit matches a session that
        // never diverged.
        live.rollback_to(&cp);
        assert_eq!(fingerprint(&live), fingerprint(&pristine));
        // The checkpoint is reusable and the rolled-back session answers
        // the future identically to the pristine one.
        let suffix = [
            SessionPerturbation::Depart { u: 0 },
            SessionPerturbation::SetDistance {
                u: 4,
                v: 10,
                value: 5.0,
            },
        ];
        for &p in &suffix {
            let a = live.ingest(&[p]).expect("valid batch");
            let b = pristine.ingest(&[p]).expect("valid batch");
            assert_eq!(a.outcome.swap, b.outcome.swap);
            assert_eq!(a.refills.last().copied(), b.refills.last().copied());
        }
        assert_eq!(fingerprint(&live), fingerprint(&pristine));
        live.rollback_to(&cp);
        assert_eq!(live.solution().len(), cp.solution().len());
    }

    #[test]
    fn try_apply_graph_batch_rolls_back_to_the_pre_batch_state() {
        use msd_metric::{DynamicGraphMetric, EdgeUpdateError, WeightedGraph};
        // Path 0-1-2-3: removing 1-2 disconnects, after a departure that
        // committed a greedy refill. The transactional path must leave no
        // trace of the prefix.
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 1.0)
            .add_edge(1, 2, 1.0)
            .add_edge(2, 3, 1.0);
        let metric = DynamicGraphMetric::from_graph(&g).unwrap();
        let problem = DiversificationProblem::new(
            metric,
            ModularFunction::new(vec![1.0, 0.8, 0.6, 0.4]),
            0.1,
        );
        let mut s = DynamicSession::new(&problem, &[0, 1]);
        s.update_until_stable(8);
        let leaving = s.solution()[0];
        let before_solution = s.solution().to_vec();
        let before_triangle: Vec<u64> = s
            .metric()
            .matrix()
            .triangle()
            .iter()
            .map(|d| d.to_bits())
            .collect();
        let before_objective = s.objective().to_bits();
        let batch = [
            GraphPerturbation::Depart { u: leaving },
            GraphPerturbation::RemoveEdge { u: 1, v: 2 },
            GraphPerturbation::SetWeight { u: 3, value: 9.0 },
        ];
        let err = s.try_apply_graph_batch(&batch).unwrap_err();
        assert!(matches!(
            err,
            SessionError::Rejected {
                index: 1,
                error: PerturbationError::Edge(EdgeUpdateError::Disconnected(_))
            }
        ));
        assert_eq!(s.solution(), &before_solution[..]);
        assert!(
            s.contains(leaving),
            "the ingested departure was rolled back"
        );
        assert!(s.is_active(leaving));
        assert!(s.is_stable(), "rollback restores the stability flag");
        assert_eq!(s.objective().to_bits(), before_objective);
        let after_triangle: Vec<u64> = s
            .metric()
            .matrix()
            .triangle()
            .iter()
            .map(|d| d.to_bits())
            .collect();
        assert_eq!(
            after_triangle, before_triangle,
            "metric rolled back bit-for-bit"
        );
        // Malformed shapes are rejected statically — before the checkpoint
        // is even taken — with the metric's own typed errors.
        let err = rejection(s.try_apply_graph_batch(&[GraphPerturbation::SetEdge {
            u: 0,
            v: 1,
            weight: f64::NAN,
        }]));
        assert!(matches!(
            err,
            PerturbationError::Edge(EdgeUpdateError::InvalidWeight { u: 0, v: 1, .. })
        ));
        let err =
            rejection(s.try_apply_graph_batch(&[GraphPerturbation::RemoveEdge { u: 2, v: 2 }]));
        assert!(matches!(
            err,
            PerturbationError::Edge(EdgeUpdateError::SelfLoop { u: 2 })
        ));
        let err = rejection(s.try_apply_graph_batch(&[GraphPerturbation::SetEdge {
            u: 0,
            v: 9,
            weight: 1.0,
        }]));
        assert!(matches!(
            err,
            PerturbationError::Edge(EdgeUpdateError::EndpointOutOfRange { u: 0, v: 9, n: 4 })
        ));
        assert_eq!(s.objective().to_bits(), before_objective);
        // A removal that keeps the graph connected commits normally
        // (checkpoint taken, then discarded).
        s.try_apply_graph_batch(&[GraphPerturbation::SetEdge {
            u: 0,
            v: 3,
            weight: 2.0,
        }])
        .unwrap();
        s.try_apply_graph_batch(&[GraphPerturbation::RemoveEdge { u: 2, v: 3 }])
            .unwrap();
        assert_eq!(s.metric().edge_weight(2, 3), None);
    }

    #[test]
    fn rejected_leading_removal_needs_no_checkpoint() {
        use msd_metric::{DynamicGraphMetric, EdgeUpdateError, WeightedGraph};
        // A one-op batch takes no checkpoint: its disconnecting removal is
        // rejected before the metric or the session moves.
        let mut g = WeightedGraph::new(5);
        g.add_edge(0, 1, 1.0)
            .add_edge(1, 2, 2.0)
            .add_edge(2, 3, 1.0)
            .add_edge(3, 4, 1.5)
            .add_edge(0, 2, 2.5);
        let metric = DynamicGraphMetric::from_graph(&g).unwrap();
        let problem = DiversificationProblem::new(
            metric,
            ModularFunction::new(vec![1.0, 0.8, 0.6, 0.4, 0.9]),
            0.3,
        );
        let triangle = |s: &DynamicSession<'_, DynamicGraphMetric, _>| -> Vec<u64> {
            let m = s.metric().matrix();
            m.triangle().iter().map(|d| d.to_bits()).collect()
        };
        let mut s = DynamicSession::new(&problem, &[0, 1]);
        s.update_until_stable(8);
        let mut twin = DynamicSession::new(&problem, &[0, 1]);
        twin.update_until_stable(8);
        let before_solution = s.solution().to_vec();
        let before_objective = s.objective().to_bits();
        let before_triangle = triangle(&s);
        let err =
            rejection(s.try_apply_graph_batch(&[GraphPerturbation::RemoveEdge { u: 3, v: 4 }]));
        assert!(matches!(
            err,
            PerturbationError::Edge(EdgeUpdateError::Disconnected(_))
        ));
        let err =
            rejection(s.try_apply_graph_batch(&[GraphPerturbation::RemoveEdge { u: 1, v: 3 }]));
        assert!(matches!(
            err,
            PerturbationError::Edge(EdgeUpdateError::MissingEdge { u: 1, v: 3 })
        ));
        assert_eq!(s.solution(), &before_solution[..]);
        assert_eq!(s.objective().to_bits(), before_objective);
        assert_eq!(triangle(&s), before_triangle);
        assert!(s.is_stable());
        // No hidden state moved either: the next batch plays out exactly
        // as on a twin that never saw the rejections.
        let next = [GraphPerturbation::SetEdge {
            u: 0,
            v: 4,
            weight: 0.5,
        }];
        let a = s.try_apply_graph_batch(&next).unwrap();
        let b = twin.try_apply_graph_batch(&next).unwrap();
        assert_eq!(a.outcome.swap, b.outcome.swap);
        assert_eq!(s.solution(), twin.solution());
        assert_eq!(s.objective().to_bits(), twin.objective().to_bits());
        assert_eq!(triangle(&s), triangle(&twin));
    }

    #[test]
    fn sync_sessions_match_serial_validation_and_rollback() {
        let problem = instance(23, 12);
        let mut serial = DynamicSession::new(&problem, &[0, 1, 2])
            .with_scan_pool(std::sync::Arc::new(ScanPool::new(1)));
        let mut par = DynamicSession::new(&problem, &[0, 1, 2])
            .with_scan_pool(std::sync::Arc::new(ScanPool::new(4)));
        let batch = [
            SessionPerturbation::SetDistance {
                u: 0,
                v: 7,
                value: 4.0,
            },
            SessionPerturbation::Depart { u: 2 },
        ];
        let a = serial.ingest(&batch[..]).unwrap();
        let b = par.ingest(&batch[..]).unwrap();
        assert_eq!(a.outcome.swap, b.outcome.swap);
        assert_eq!(a.refills, b.refills);
        assert_eq!(serial.solution(), par.solution());
        let bad = [SessionPerturbation::Depart { u: 2 }];
        assert!(matches!(
            par.ingest(&bad[..]),
            Err(SessionError::Rejected {
                index: 0,
                error: PerturbationError::DepartureOfAbsent { u: 2 }
            })
        ));
        assert_eq!(serial.solution(), par.solution());
    }
}
