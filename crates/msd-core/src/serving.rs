//! Multi-tenant query serving over one shared corpus.
//!
//! The paper frames max-sum diversification as a *query-time* problem:
//! many users issue queries with different `p`, `λ` and quality `f` over
//! one corpus. Running a [`DynamicSession`] per user used to cost a full
//! metric clone each (`O(n²)` for a dense matrix). [`ServingFrontend`]
//! removes that: every tenant session reads one immutable `Arc<M>` base
//! metric through a private copy-on-write [`OverlayMetric`], so a
//! tenant's `set_distance` perturbations land in its overlay — never the
//! shared base — and resident memory is `O(n²) + k·O(Δ)` for `k` tenants
//! with `Δ` perturbed pairs each, instead of `k·O(n²)`. Weight
//! perturbations repair the tenant's own incremental oracle (session
//! state by construction), so quality state never crosses tenants
//! either.
//!
//! Perturbations are queued per tenant
//! ([`ServingFrontend::try_submit`]) and coalesced into a single
//! validated batch application ([`DynamicSession::ingest`]) when that
//! tenant's next query arrives — the batch path scans at most once over
//! the union scope, which is where the perturb→query throughput comes
//! from. Tenants are addressed by the typed [`TenantId`] handle
//! returned at registration ([`ServingFrontend::register_tenant`]).
//!
//! # Fan-out/join scheduling
//!
//! [`ServingFrontend::query_many`] answers a set of distinct tenants in
//! one call and [`ServingFrontend::drain_all`] runs a flush cycle over
//! every tenant with queued work. Parallelism comes from the pool; every
//! tenant session is thread-shareable and shares no mutable state, so the
//! frontend partitions the requested tenants into independent jobs on its
//! [`ScanPool`] and joins the responses in request order — bit-identical
//! to the serial per-tenant loop (each job runs the identical serial
//! flush + stabilize body; the pool only schedules *which thread*
//! serves a tenant, never what it computes). A one-thread pool runs the
//! jobs in order on the calling thread. The same pool runs every tenant
//! session's scans; a scan submitted from inside a fan-out job runs
//! inline on that job's thread.
//!
//! # Shared weight overlays and tenant eviction
//!
//! [`SharedServingFrontend`] specializes the quality side the same way
//! the metric side already is: `k` tenants read one immutable
//! `Arc<[f64]>` base weight vector through per-tenant sparse
//! copy-on-write deltas ([`msd_submodular::SharedModularOracle`]), so
//! quality memory is `O(n) + k·O(Δ_w)` instead of `k·O(n)`. Because
//! every piece of such a tenant's state is then base + sparse deltas,
//! the tenant can be **evicted**: [`SharedServingFrontend::evict`]
//! spills it to a plain-old-data [`TenantSnapshot`] (overlay deltas,
//! solution state, availability mask, oracle value — raw floats, never
//! re-derived) and [`SharedServingFrontend::attach`] re-attaches it
//! bit-identically later.
//!
//! # Fault tolerance and admission control
//!
//! The frontend is an *ingestion boundary*: request content is
//! untrusted, so no submitted perturbation can panic it. Malformed
//! batches (NaN distances, out-of-range ids, availability violations)
//! are rejected whole at flush time — the tenant's session rolls back
//! bit-for-bit and the query answers from the last good state, carrying
//! the typed error in [`QueryResponse::rejected`]. An optional
//! [`AdmissionPolicy`] adds backpressure ([`SubmitError::QueueFull`]
//! from [`ServingFrontend::try_submit`] when a tenant's queue is at
//! depth), burst-spreading (each query flushes at most
//! `max_flush_per_query` entries, the lag reported as
//! [`TenantStats::staleness`]), and quarantine: a tenant whose flushes
//! keep failing is isolated — queue dropped, submissions refused,
//! queries still served from its last good checkpoint — without
//! perturbing any other tenant, and re-opened via
//! [`ServingFrontend::recover`]. Every rejected batch is kept on a
//! per-tenant audit channel ([`ServingFrontend::last_rejection`])
//! together with its typed error, so poison sources can be debugged
//! after the fact.
//!
//! Latency SLOs are enforced against an **injected** [`Clock`]
//! ([`ServingFrontend::with_clock`] — the frontend is told the time,
//! it never reads it, so tests drive a fake): with
//! [`AdmissionPolicy::max_staleness_ticks`] a tenant whose oldest
//! queued perturbation exceeds the lag budget is quarantined at its
//! next query (the queue can no longer be served within the SLO; the
//! session itself is still the last good state, so no rollback
//! happens), and [`AdmissionPolicy::rate_limit`] meters submissions
//! through a per-tenant token bucket ([`SubmitError::RateLimited`]).
//!
//! ```
//! use std::sync::Arc;
//! use msd_core::{ServingFrontend, SessionPerturbation};
//! use msd_metric::{DistanceMatrix, Metric};
//! use msd_submodular::ModularFunction;
//!
//! let base = Arc::new(DistanceMatrix::from_fn(8, |u, v| {
//!     1.0 + f64::from((u + v) % 4) * 0.25
//! }));
//! let quality = ModularFunction::new(vec![0.9, 0.3, 0.8, 0.2, 0.7, 0.1, 0.6, 0.4]);
//!
//! let mut frontend = ServingFrontend::new(Arc::clone(&base));
//! let alice = frontend.register_tenant(&quality, 0.3, &[0, 2, 4]);
//! let bob = frontend.register_tenant(&quality, 1.5, &[1, 3, 5]);
//!
//! let rewrite = SessionPerturbation::SetDistance { u: 0, v: 5, value: 1.9 };
//! frontend.try_submit(alice, rewrite).expect("no admission policy");
//! let responses = [frontend.query(alice), frontend.query(bob)];
//! assert_eq!(responses[0].flushed, 1); // alice's pending batch coalesced
//! assert_eq!(responses[1].flushed, 0);
//! // The shared base is untouched by alice's perturbation.
//! assert_eq!(base.distance(0, 5), 1.0 + 0.25);
//! ```
//!
//! The fault path, end to end — a rejected batch rolls back whole, a
//! repeat poisoner is quarantined, recovery restores service:
//!
//! ```
//! use std::sync::Arc;
//! use msd_core::{AdmissionPolicy, ServingFrontend, SessionPerturbation, SubmitError};
//! use msd_metric::DistanceMatrix;
//! use msd_submodular::ModularFunction;
//!
//! let base = Arc::new(DistanceMatrix::from_fn(8, |u, v| {
//!     1.0 + f64::from((u + v) % 4) * 0.25
//! }));
//! let quality = ModularFunction::new(vec![0.9, 0.3, 0.8, 0.2, 0.7, 0.1, 0.6, 0.4]);
//!
//! let mut frontend = ServingFrontend::new(Arc::clone(&base));
//! let mallory = frontend.register_tenant(&quality, 0.3, &[0, 2, 4]);
//! let mut frontend = frontend.with_admission_policy(AdmissionPolicy {
//!     max_flush_per_query: Some(16),
//!     max_pending: Some(64),
//!     quarantine_after: Some(2),
//!     ..AdmissionPolicy::default()
//! });
//!
//! let poison = SessionPerturbation::SetDistance { u: 0, v: 1, value: f64::NAN };
//! let baseline = frontend.query(mallory).solution;
//! for _ in 0..2 {
//!     frontend.try_submit(mallory, poison).unwrap();
//!     let response = frontend.query(mallory);
//!     // Rejected whole: the answer is the last good state, with the
//!     // typed error attached.
//!     assert!(response.rejected.is_some());
//!     assert_eq!(response.solution, baseline);
//! }
//! // Two consecutive rejected flushes: quarantined, submissions refused.
//! assert!(frontend.is_quarantined(mallory));
//! assert!(matches!(
//!     frontend.try_submit(mallory, poison),
//!     Err(SubmitError::Quarantined { .. })
//! ));
//! // Recovery re-opens the tenant from its last good checkpoint.
//! assert!(frontend.recover(mallory));
//! let ok = SessionPerturbation::SetDistance { u: 0, v: 1, value: 1.9 };
//! frontend.try_submit(mallory, ok).unwrap();
//! assert!(frontend.query(mallory).rejected.is_none());
//! ```
//!
//! Shared-weight tenants can be spilled and re-attached bit-identically:
//!
//! ```
//! use std::sync::Arc;
//! use msd_core::{SessionPerturbation, SharedServingFrontend};
//! use msd_metric::DistanceMatrix;
//!
//! let base = Arc::new(DistanceMatrix::from_fn(8, |u, v| {
//!     1.0 + f64::from((u + v) % 4) * 0.25
//! }));
//! let weights: Arc<[f64]> = vec![0.9, 0.3, 0.8, 0.2, 0.7, 0.1, 0.6, 0.4].into();
//!
//! let mut frontend = SharedServingFrontend::new_shared(Arc::clone(&base));
//! let t = frontend.register_tenant_shared(Arc::clone(&weights), 0.3, &[0, 2, 4]);
//! frontend.try_submit(t, SessionPerturbation::SetWeight { u: 2, value: 9.0 }).unwrap();
//! let before = frontend.query(t);
//!
//! let snapshot = frontend.evict(t); // plain-old-data: O(Δ) deltas + solution
//! let t = frontend.attach(snapshot); // bit-identical re-attach
//! let after = frontend.query(t);
//! assert_eq!(before.solution, after.solution);
//! assert_eq!(before.objective.to_bits(), after.objective.to_bits());
//! ```

// Ingestion boundary: faults arrive here as values, never as panics.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::Arc;

use msd_metric::{Metric, OverlayMetric, PerturbableMetric};
use msd_submodular::{IncrementalOracle, SetFunction, SharedModularOracle};

use crate::pool::ScanPool;
use crate::session::{
    BatchReport, DynamicSession, SessionCheckpoint, SessionError, SessionPerturbation,
};
use crate::solution::SolutionState;
use crate::ElementId;

/// Opaque handle to a tenant session inside a [`ServingFrontend`],
/// returned by [`ServingFrontend::register_tenant`]. Handles stay valid
/// across other tenants' registration and eviction (slots are
/// tombstoned, never shifted); using an evicted tenant's handle
/// panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(usize);

impl TenantId {
    /// The underlying slot index (stable for the tenant's lifetime).
    pub fn index(self) -> usize {
        self.0
    }

    /// Rebuilds a handle from a raw slot index (e.g. one carried in an
    /// external request envelope). The frontend re-validates it on use.
    pub fn from_index(index: usize) -> Self {
        TenantId(index)
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Injected time source for the admission layer's latency SLOs. The
/// frontend is *told* the time in abstract ticks — it never reads a
/// wall clock — so staleness and rate limits are deterministic and
/// testable with a fake. Like the metric and quality traits, clocks are
/// `Send + Sync`, so a frontend stays thread-shareable.
pub trait Clock: Send + Sync {
    /// Monotone tick counter (the unit is the caller's choice; the
    /// admission bounds are expressed in the same unit).
    fn now_ticks(&self) -> u64;
}

/// Per-tenant token-bucket rate limit (see
/// [`AdmissionPolicy::rate_limit`]): a tenant holds at most `capacity`
/// tokens, [`ServingFrontend::try_submit`] spends one per submission,
/// and one token mints every `ticks_per_token` clock ticks.
///
/// Refill is driven by the injected [`Clock`]; without one the bucket
/// never refills after the initial `capacity` submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenBucket {
    /// Maximum (and initial) token count.
    pub capacity: u32,
    /// Ticks needed to mint one token (`0` disables refill).
    pub ticks_per_token: u64,
}

/// Answer to one [`ServingFrontend::query`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The queried tenant.
    pub tenant: TenantId,
    /// The maintained solution (insertion order, as
    /// [`DynamicSession::solution`]).
    pub solution: Vec<ElementId>,
    /// Objective `φ(S)` under the tenant's `λ` and quality oracle.
    pub objective: f64,
    /// Perturbations coalesced into the flush (0 for a pure read).
    pub flushed: usize,
    /// Oblivious swaps committed while stabilizing this query.
    pub swaps: usize,
    /// `Some(error)` when this query's flush was rejected: the drained
    /// batch was discarded and the session rolled back, bit-for-bit, to
    /// its pre-flush state — the `solution`/`objective` in this response
    /// are the last good answer, not a partial commit.
    pub rejected: Option<SessionError>,
}

/// Cumulative per-tenant counters (see [`ServingFrontend::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Queries answered.
    pub queries: usize,
    /// Perturbations ingested (across all flushed batches).
    pub perturbations: usize,
    /// Coalesced non-empty batches flushed.
    pub batches: usize,
    /// Oblivious swaps committed.
    pub swaps: usize,
    /// Perturbations still queued after this tenant's most recent query
    /// — how far the served answer lags the submitted stream when
    /// [`AdmissionPolicy::max_flush_per_query`] spreads a burst across
    /// queries. 0 once the queue has drained.
    pub staleness: usize,
    /// Flush batches rejected by validation (each one rolled back
    /// whole; see [`QueryResponse::rejected`]).
    pub rejected: usize,
}

/// Admission control for a [`ServingFrontend`]: bounds on how much
/// un-validated work one tenant can push into the shared serving loop.
///
/// The default (`None` everywhere) reproduces the unbounded legacy
/// behavior at zero overhead: no checkpoints are taken, queues are
/// unbounded, and every query flushes its whole queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Per-query flush bound: a query drains at most this many queued
    /// perturbations (front first), spreading a burst across queries so
    /// one tenant's backlog cannot monopolize a serving tick. The
    /// remainder stays queued and is reported as
    /// [`TenantStats::staleness`].
    pub max_flush_per_query: Option<usize>,
    /// Pending-queue depth bound: [`ServingFrontend::try_submit`]
    /// answers [`SubmitError::QueueFull`] (backpressure) once a tenant
    /// has this many queued perturbations.
    pub max_pending: Option<usize>,
    /// Quarantine threshold: after this many *consecutive* rejected
    /// flush batches the tenant is quarantined — its queue is dropped,
    /// new submissions answer [`SubmitError::Quarantined`], and queries
    /// keep serving the last good state until
    /// [`ServingFrontend::recover`]. Enabling this also turns on
    /// per-tenant [`SessionCheckpoint`]s (refreshed every
    /// [`checkpoint_every`](Self::checkpoint_every) successful flushes)
    /// so recovery is anchored to the last known-good state.
    pub quarantine_after: Option<usize>,
    /// Checkpoint cadence: with quarantine enabled, the recovery anchor
    /// is re-snapshotted every this-many successful flushes instead of
    /// after each one (a checkpoint clones the full session state — at
    /// cadence 1 that O(n + p) copy dominated light per-query flushes).
    /// Between snapshots the successfully-flushed batches are kept in a
    /// bounded replay log (at most `checkpoint_every − 1` batches), and
    /// quarantine rollback / [`ServingFrontend::recover`] restore the
    /// checkpoint then replay that tail — landing bit-for-bit on the
    /// last known-good stabilized state. `0` is treated as `1` (the
    /// legacy refresh-every-flush behavior, which is also the default).
    pub checkpoint_every: usize,
    /// Staleness SLO in [`Clock`] ticks: at query time, a tenant whose
    /// *oldest* queued perturbation has waited longer than this is
    /// quarantined — its lagging queue is dropped (it can no longer be
    /// served within the SLO) and submissions are refused until
    /// [`ServingFrontend::recover`]. The session itself is the last
    /// good flushed state, so unlike poison quarantine no rollback
    /// happens. Requires an injected clock
    /// ([`ServingFrontend::with_clock`]); without one all submissions
    /// carry tick 0 and never lag.
    pub max_staleness_ticks: Option<u64>,
    /// Per-tenant token-bucket submission rate limit:
    /// [`ServingFrontend::try_submit`] answers
    /// [`SubmitError::RateLimited`] when the tenant's bucket is empty.
    /// Refill is metered by the injected [`Clock`].
    pub rate_limit: Option<TokenBucket>,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_flush_per_query: None,
            max_pending: None,
            quarantine_after: None,
            checkpoint_every: 1,
            max_staleness_ticks: None,
            rate_limit: None,
        }
    }
}

/// Rejected [`ServingFrontend::try_submit`] — the backpressure signal of
/// the admission layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The tenant's pending queue is at [`AdmissionPolicy::max_pending`];
    /// retry after the tenant's next query drains it.
    QueueFull {
        /// The tenant whose queue is full.
        tenant: TenantId,
        /// The configured depth bound.
        max_pending: usize,
    },
    /// The tenant is quarantined (see
    /// [`AdmissionPolicy::quarantine_after`]); call
    /// [`ServingFrontend::recover`] first.
    Quarantined {
        /// The quarantined tenant.
        tenant: TenantId,
    },
    /// The tenant's token bucket is empty (see
    /// [`AdmissionPolicy::rate_limit`]); retry after enough clock ticks
    /// for a token to mint.
    RateLimited {
        /// The rate-limited tenant.
        tenant: TenantId,
    },
    /// No such tenant (never registered, or evicted).
    UnknownTenant {
        /// The out-of-range id.
        tenant: TenantId,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SubmitError::QueueFull {
                tenant,
                max_pending,
            } => write!(
                f,
                "tenant {tenant}: pending queue full ({max_pending} perturbations)"
            ),
            SubmitError::Quarantined { tenant } => {
                write!(f, "tenant {tenant} is quarantined; recover() it first")
            }
            SubmitError::RateLimited { tenant } => {
                write!(f, "tenant {tenant}: rate limited (token bucket empty)")
            }
            SubmitError::UnknownTenant { tenant } => write!(f, "no tenant {tenant}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One rejected flush on the per-tenant audit channel
/// ([`ServingFrontend::last_rejection`]): the drained batch exactly as
/// it failed validation, plus the typed error. Overwritten by the next
/// rejection; survives successful flushes so a poison source can be
/// diagnosed after service has recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectionAudit {
    /// The batch that was drained and rejected whole.
    pub batch: Vec<SessionPerturbation>,
    /// Why validation rejected it.
    pub error: SessionError,
}

/// A spilled shared-weight tenant (see
/// [`SharedServingFrontend::evict`]): plain-old-data — sparse overlay
/// deltas against the shared bases plus the session's raw cached floats
/// (gain vector, dispersion, oracle value), captured verbatim and
/// restored verbatim by [`SharedServingFrontend::attach`] so the
/// round-trip is bit-identical. `base_weights` is a handle to the
/// *shared* corpus weight vector, not tenant state — a serializer would
/// persist only the deltas and re-bind the base on load.
///
/// Checkpoint/replay recovery anchors are intentionally not carried:
/// [`SharedServingFrontend::attach`] re-anchors recovery at the
/// restored state.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSnapshot {
    /// Trade-off `λ`.
    pub lambda: f64,
    /// Solution size `p`.
    pub p: usize,
    /// Whether the session had (re-)established stability.
    pub stable: bool,
    /// Whether the tenant was quarantined when evicted.
    pub quarantined: bool,
    /// Solution members in insertion order.
    pub members: Vec<ElementId>,
    /// Membership mask over the ground set.
    pub in_set: Vec<bool>,
    /// Cached marginal-dispersion vector `d_u(S)`, verbatim.
    pub gain: Vec<f64>,
    /// Cached total dispersion `d(S)`, verbatim.
    pub dispersion: f64,
    /// Availability mask (`false` ⟺ departed).
    pub active: Vec<bool>,
    /// Sparse metric overrides `(u, v, d)` sorted by pair.
    pub metric_deltas: Vec<(ElementId, ElementId, f64)>,
    /// Sparse weight overrides `(u, w)` sorted by element.
    pub weight_deltas: Vec<(ElementId, f64)>,
    /// The oracle's running `f(S)` accumulator, verbatim.
    pub oracle_value: f64,
    /// Handle to the shared base weight vector (corpus data).
    pub base_weights: Arc<[f64]>,
    /// Cumulative counters, preserved across the round-trip.
    pub stats: TenantStats,
    /// Queued (unflushed) perturbations.
    pub pending: Vec<SessionPerturbation>,
    /// Submission ticks parallel to `pending` (staleness SLO state).
    pub pending_ticks: Vec<u64>,
}

/// Live token-bucket state (lazily initialized at the first
/// rate-limited submission).
#[derive(Debug, Clone, Copy)]
struct RateState {
    tokens: u32,
    last_refill: u64,
}

/// Outcome of one coalesced flush attempt (see
/// [`ServingFrontend::query`]): the drained batch rides along in both
/// non-idle arms — the success arm feeds the recovery replay log, the
/// rejection arm feeds the audit channel.
enum FlushAttempt {
    /// Nothing to flush (empty queue, quarantined, or a zero cap).
    Idle,
    Applied(BatchReport, Vec<SessionPerturbation>),
    Rejected(SessionError, Vec<SessionPerturbation>),
}

/// Per-tenant state: a session over the shared base plus the pending
/// (not yet flushed) perturbation queue and its fault-tolerance state.
struct Tenant<'q, M: Metric, Q: IncrementalOracle + ?Sized> {
    session: DynamicSession<'q, OverlayMetric<Arc<M>>, Q>,
    pending: Vec<SessionPerturbation>,
    /// Submission tick of each queued perturbation (parallel to
    /// `pending`) — the staleness SLO measures the front of this queue.
    pending_ticks: Vec<u64>,
    stats: TenantStats,
    /// Last known-good snapshot (maintained only when
    /// [`AdmissionPolicy::quarantine_after`] is set).
    checkpoint: Option<SessionCheckpoint<OverlayMetric<Arc<M>>>>,
    /// Successfully-flushed batches since the checkpoint was last
    /// re-snapshotted — the bounded tail (at most
    /// [`AdmissionPolicy::checkpoint_every`]` − 1` batches) that
    /// recovery replays on top of the checkpoint to reach the last
    /// known-good state.
    replay_log: Vec<Vec<SessionPerturbation>>,
    /// Successful flushes since the last checkpoint refresh.
    flushes_since_checkpoint: usize,
    /// Rejected flush batches since the last successful one.
    consecutive_rejects: usize,
    quarantined: bool,
    /// Token-bucket state (only when [`AdmissionPolicy::rate_limit`]).
    rate: Option<RateState>,
    /// Audit channel: the most recently rejected batch + typed error.
    last_rejection: Option<RejectionAudit>,
}

/// Multi-tenant serving frontend: `k` independent dynamic sessions over
/// one shared immutable base metric. See the [module docs](self).
///
/// Generic over the boxed oracle type exactly like [`DynamicSession`]
/// ([`SharedServingFrontend`] fixes it to the shared-weight oracle).
/// Its tenants' scans and its fan-out run on the frontend's pool (see
/// the module docs).
pub struct ServingFrontend<
    'q,
    M: Metric,
    Q: IncrementalOracle + ?Sized = dyn IncrementalOracle + 'q,
> {
    base: Arc<M>,
    /// Tenant slots; eviction tombstones (`None`) keep every other
    /// tenant's [`TenantId`] stable.
    tenants: Vec<Option<Tenant<'q, M, Q>>>,
    /// Hard cap on stabilization swaps per query (defensive; the
    /// oblivious rule converges in ≤ p swaps on every workload the
    /// equivalence suites drive).
    max_updates_per_query: usize,
    policy: AdmissionPolicy,
    /// Injected time source for the SLO/rate-limit admission bounds.
    clock: Option<Arc<dyn Clock>>,
    /// Pool given to [`with_scan_pool`](Self::with_scan_pool): it runs
    /// the fan-out jobs and every tenant session's chunked scans. `None`
    /// uses the ambient global pool.
    scan_pool: Option<Arc<ScanPool>>,
}

/// [`ServingFrontend`] whose tenants all read one shared immutable base
/// weight vector through sparse copy-on-write overlays
/// ([`SharedModularOracle`]) — quality memory `O(n) + k·O(Δ_w)` for `k`
/// tenants instead of `k·O(n)`, and the only frontend whose tenants can
/// be [evicted](SharedServingFrontend::evict) to plain-old-data
/// [`TenantSnapshot`]s.
pub type SharedServingFrontend<'q, M> = ServingFrontend<'q, M, SharedModularOracle>;

impl<M: Metric, Q: IncrementalOracle + ?Sized> std::fmt::Debug for ServingFrontend<'_, M, Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingFrontend")
            .field("tenants", &self.tenants.iter().flatten().count())
            .field("ground_size", &self.base.len())
            .finish()
    }
}

/// Default cap on stabilization swaps per query.
const DEFAULT_MAX_UPDATES_PER_QUERY: usize = 256;

impl<'q, M: Metric> ServingFrontend<'q, M> {
    /// A frontend over `base` with no tenants yet.
    pub fn new(base: Arc<M>) -> Self {
        Self::with_base(base)
    }

    /// Opens a tenant session seeded with `initial` (typically Greedy B's
    /// output for that tenant's `p`, `λ` and quality — sessions do not
    /// re-solve). The quality function stays borrowed for the frontend's
    /// lifetime; its incremental oracle state is tenant-local.
    ///
    /// # Panics
    ///
    /// As [`DynamicSession::new`].
    pub fn register_tenant<F: SetFunction>(
        &mut self,
        quality: &'q F,
        lambda: f64,
        initial: &[ElementId],
    ) -> TenantId {
        self.push_tenant(DynamicSession::new_shared(
            &self.base, quality, lambda, initial,
        ))
    }
}

impl<'q, M: Metric> SharedServingFrontend<'q, M> {
    /// A shared-weight frontend over `base` with no tenants yet (see
    /// [`SharedServingFrontend`]).
    pub fn new_shared(base: Arc<M>) -> Self {
        Self::with_base(base)
    }

    /// Opens a tenant whose quality oracle reads `weights` (the shared
    /// immutable base vector, `f(S) = Σ_{u∈S} w(u)`) through a
    /// tenant-private sparse overlay: `try_set_weight` perturbations
    /// cost `O(Δ_w)` per tenant instead of cloning the `O(n)` vector
    /// per tenant.
    ///
    /// # Panics
    ///
    /// Panics when `weights` disagrees with the base metric's ground
    /// set, contains non-finite or negative entries, or `initial` is
    /// malformed (as [`DynamicSession::new`]).
    pub fn register_tenant_shared(
        &mut self,
        weights: Arc<[f64]>,
        lambda: f64,
        initial: &[ElementId],
    ) -> TenantId {
        assert_eq!(
            weights.len(),
            self.base.len(),
            "base weights and base metric must share a ground set"
        );
        let mut oracle = SharedModularOracle::new(weights);
        for &u in initial {
            oracle.insert(u);
        }
        let session = DynamicSession::from_parts(
            OverlayMetric::new(Arc::clone(&self.base)),
            Box::new(oracle),
            lambda,
            initial,
        );
        self.push_tenant(session)
    }

    /// Number of weight overrides (`Δ_w`) currently held by `tenant`'s
    /// overlay — the tenant's share of quality-side resident memory.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is unknown or evicted.
    pub fn weight_delta_count(&self, tenant: TenantId) -> usize {
        self.tenant(tenant).session.quality_oracle().delta_count()
    }

    /// Spills `tenant` to a plain-old-data [`TenantSnapshot`] and frees
    /// its slot (a tombstone: other tenants' ids are untouched; this
    /// tenant's id becomes invalid). Quarantined tenants are evictable —
    /// the flag rides along. The snapshot captures the session's cached
    /// floats verbatim, so [`attach`](Self::attach) restores the tenant
    /// bit-identically (the candidate cache restarts cold — the same
    /// documented `ScanExtent`-only divergence as
    /// [`DynamicSession::rollback_to`]).
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is unknown or already evicted.
    pub fn evict(&mut self, tenant: TenantId) -> TenantSnapshot {
        let t = match self.tenants.get_mut(tenant.index()).and_then(Option::take) {
            Some(t) => t,
            None => panic!("no tenant {tenant} (unknown or evicted)"),
        };
        let (members, in_set, gain, dispersion) = t.session.solution_raw();
        let oracle = t.session.quality_oracle();
        TenantSnapshot {
            lambda: t.session.lambda(),
            p: t.session.p(),
            stable: t.session.is_stable(),
            quarantined: t.quarantined,
            active: t.session.availability_mask().to_vec(),
            metric_deltas: t.session.metric().override_deltas(),
            weight_deltas: oracle.weight_deltas(),
            oracle_value: oracle.value(),
            base_weights: Arc::clone(oracle.base()),
            members,
            in_set,
            gain,
            dispersion,
            stats: t.stats,
            pending: t.pending,
            pending_ticks: t.pending_ticks,
        }
    }

    /// Re-attaches a [`TenantSnapshot`] under a fresh [`TenantId`]
    /// (reusing the lowest tombstoned slot when one exists). The
    /// overlays are rebuilt by replaying the sparse deltas in their
    /// sorted snapshot order and the cached floats are restored
    /// verbatim, so queries answer bit-identically to the evicted
    /// tenant. Recovery (checkpoint + replay log) re-anchors at the
    /// restored state.
    ///
    /// # Panics
    ///
    /// Panics when the snapshot is internally inconsistent or does not
    /// match this frontend's base metric ground set.
    pub fn attach(&mut self, snapshot: TenantSnapshot) -> TenantId {
        let TenantSnapshot {
            lambda,
            p,
            stable,
            quarantined,
            members,
            in_set,
            gain,
            dispersion,
            active,
            metric_deltas,
            weight_deltas,
            oracle_value,
            base_weights,
            stats,
            pending,
            pending_ticks,
        } = snapshot;
        let mut metric = OverlayMetric::new(Arc::clone(&self.base));
        for (u, v, d) in metric_deltas {
            metric.set_distance(u, v, d);
        }
        let oracle =
            SharedModularOracle::from_parts(base_weights, &weight_deltas, &in_set, oracle_value);
        let dist = SolutionState::from_raw(members, in_set, gain, dispersion);
        let session = DynamicSession::from_restored(
            metric,
            Box::new(oracle),
            lambda,
            dist,
            active,
            p,
            stable,
        );
        let id = self.push_tenant(session);
        let t = match self.tenants.get_mut(id.index()).and_then(Option::as_mut) {
            Some(t) => t,
            None => unreachable!("push_tenant returned a live slot"),
        };
        t.stats = stats;
        t.pending = pending;
        t.pending_ticks = pending_ticks;
        t.quarantined = quarantined;
        id
    }
}

impl<'q, M: Metric, Q: IncrementalOracle + ?Sized> ServingFrontend<'q, M, Q> {
    fn with_base(base: Arc<M>) -> Self {
        Self {
            base,
            tenants: Vec::new(),
            max_updates_per_query: DEFAULT_MAX_UPDATES_PER_QUERY,
            policy: AdmissionPolicy::default(),
            clock: None,
            scan_pool: None,
        }
    }

    fn push_tenant(&mut self, session: DynamicSession<'q, OverlayMetric<Arc<M>>, Q>) -> TenantId {
        let session = match &self.scan_pool {
            Some(pool) => session.with_scan_pool(Arc::clone(pool)),
            None => session,
        };
        // With quarantine enabled every tenant starts with a known-good
        // anchor, so recovery works even before the first clean flush.
        let checkpoint = self
            .policy
            .quarantine_after
            .is_some()
            .then(|| session.checkpoint());
        let tenant = Tenant {
            session,
            pending: Vec::new(),
            pending_ticks: Vec::new(),
            stats: TenantStats::default(),
            checkpoint,
            replay_log: Vec::new(),
            flushes_since_checkpoint: 0,
            consecutive_rejects: 0,
            quarantined: false,
            rate: None,
            last_rejection: None,
        };
        // Reuse the lowest tombstone so eviction does not leak slots.
        if let Some(idx) = self.tenants.iter().position(Option::is_none) {
            self.tenants[idx] = Some(tenant);
            TenantId(idx)
        } else {
            self.tenants.push(Some(tenant));
            TenantId(self.tenants.len() - 1)
        }
    }

    /// Panicking lookup: every by-id entry point funnels through here so
    /// unknown and evicted tenants fail with one message.
    fn tenant(&self, tenant: TenantId) -> &Tenant<'q, M, Q> {
        match self.tenants.get(tenant.index()).and_then(Option::as_ref) {
            Some(t) => t,
            None => panic!("no tenant {tenant} (unknown or evicted)"),
        }
    }

    fn tenant_mut(&mut self, tenant: TenantId) -> &mut Tenant<'q, M, Q> {
        match self
            .tenants
            .get_mut(tenant.index())
            .and_then(Option::as_mut)
        {
            Some(t) => t,
            None => panic!("no tenant {tenant} (unknown or evicted)"),
        }
    }

    /// The shared base metric.
    pub fn base(&self) -> &Arc<M> {
        &self.base
    }

    /// Number of live (non-evicted) tenant sessions.
    pub fn tenant_count(&self) -> usize {
        self.tenants.iter().flatten().count()
    }

    /// Handles of all live tenants, ascending.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.tenants
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|_| TenantId(i)))
            .collect()
    }

    /// Live, unquarantined tenants with queued work — the "ready" set a
    /// [`drain_all`](Self::drain_all) flush cycle serves.
    fn ready_ids(&self) -> Vec<TenantId> {
        self.tenants
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|t| (i, t)))
            .filter(|(_, t)| !t.quarantined && !t.pending.is_empty())
            .map(|(i, _)| TenantId(i))
            .collect()
    }

    /// Injects the [`Clock`] the admission layer's staleness SLO and
    /// token-bucket refill are measured against (builder style). The
    /// frontend never reads a wall clock itself.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Current tick of the injected clock (0 when none is configured).
    fn now(&self) -> u64 {
        self.clock.as_ref().map_or(0, |c| c.now_ticks())
    }

    /// Caps the stabilization swaps spent per query (builder style;
    /// default 256 — far above the ≤ p swaps the oblivious rule needs in
    /// practice).
    pub fn with_max_updates_per_query(mut self, max_updates: usize) -> Self {
        self.max_updates_per_query = max_updates;
        self
    }

    /// Installs an [`AdmissionPolicy`] (builder style; default
    /// unbounded). When [`AdmissionPolicy::quarantine_after`] is set this
    /// also anchors every *existing* tenant with a checkpoint of its
    /// current state.
    pub fn with_admission_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        if policy.quarantine_after.is_some() {
            for t in self.tenants.iter_mut().flatten() {
                if t.checkpoint.is_none() {
                    t.checkpoint = Some(t.session.checkpoint());
                }
            }
        }
        self
    }

    /// The active [`AdmissionPolicy`].
    pub fn admission_policy(&self) -> AdmissionPolicy {
        self.policy
    }

    /// Queues a perturbation for `tenant`, subject to the
    /// [`AdmissionPolicy`]. This is the backpressure-aware ingestion
    /// path: no input can panic the frontend through it.
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownTenant`], [`SubmitError::Quarantined`],
    /// [`SubmitError::RateLimited`] (token bucket empty), or
    /// [`SubmitError::QueueFull`] (the queue drains at the tenant's next
    /// query). Malformed perturbation *contents* are not checked here —
    /// they are validated (and rejected batch-at-a-time, with rollback)
    /// at flush time.
    pub fn try_submit(
        &mut self,
        tenant: TenantId,
        perturbation: SessionPerturbation,
    ) -> Result<(), SubmitError> {
        let now = self.now();
        let policy = self.policy;
        let Some(t) = self
            .tenants
            .get_mut(tenant.index())
            .and_then(Option::as_mut)
        else {
            return Err(SubmitError::UnknownTenant { tenant });
        };
        if t.quarantined {
            return Err(SubmitError::Quarantined { tenant });
        }
        if let Some(max_pending) = policy.max_pending {
            if t.pending.len() >= max_pending {
                return Err(SubmitError::QueueFull {
                    tenant,
                    max_pending,
                });
            }
        }
        // After the queue check so a backpressured submit does not also
        // burn a token.
        if let Some(bucket) = policy.rate_limit {
            let rate = t.rate.get_or_insert(RateState {
                tokens: bucket.capacity,
                last_refill: now,
            });
            // checked_div doubles as the ticks_per_token == 0 guard
            // (a zero-period bucket never refills past its burst).
            let minted = now
                .saturating_sub(rate.last_refill)
                .checked_div(bucket.ticks_per_token)
                .unwrap_or(0);
            if minted > 0 {
                let minted32 = u32::try_from(minted).unwrap_or(bucket.capacity);
                rate.tokens = rate.tokens.saturating_add(minted32).min(bucket.capacity);
                rate.last_refill += minted * bucket.ticks_per_token;
            }
            if rate.tokens == 0 {
                return Err(SubmitError::RateLimited { tenant });
            }
            rate.tokens -= 1;
        }
        t.pending.push(perturbation);
        t.pending_ticks.push(now);
        Ok(())
    }

    /// `true` when `tenant` is quarantined (consecutive rejected flushes
    /// reached [`AdmissionPolicy::quarantine_after`], or its queue blew
    /// the [`AdmissionPolicy::max_staleness_ticks`] SLO).
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is unknown or evicted.
    pub fn is_quarantined(&self, tenant: TenantId) -> bool {
        self.tenant(tenant).quarantined
    }

    /// Lifts `tenant`'s quarantine: drops whatever is still queued,
    /// rolls the session back to its last known-good checkpoint (when
    /// one is maintained), and re-opens submissions. Returns `true` when
    /// a checkpoint was restored.
    ///
    /// Other tenants are untouched — their sessions never shared mutable
    /// state with the quarantined one.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is out of range.
    pub fn recover(&mut self, tenant: TenantId) -> bool {
        let max_updates = self.max_updates_per_query;
        let t = self.tenant_mut(tenant);
        let restored = Self::restore_last_known_good(t, max_updates);
        t.pending.clear();
        t.pending_ticks.clear();
        t.stats.staleness = 0;
        t.quarantined = false;
        t.consecutive_rejects = 0;
        restored
    }

    /// Rolls the session back to its checkpoint and replays the logged
    /// known-good tail (each batch re-stabilized exactly as
    /// [`respond`](Self::respond) did when it first succeeded), landing
    /// bit-for-bit on the last known-good state. `false` when no
    /// checkpoint is maintained.
    fn restore_last_known_good(t: &mut Tenant<'q, M, Q>, max_updates: usize) -> bool {
        let Some(checkpoint) = &t.checkpoint else {
            return false;
        };
        t.session.rollback_to(checkpoint);
        for batch in &t.replay_log {
            // The batch validated when it first flushed, so the
            // unvalidated replay applies the identical mutations.
            let report = t.session.ingest_unchecked(batch);
            let swaps = usize::from(report.outcome.swap.is_some());
            t.session
                .update_until_stable(max_updates.saturating_sub(swaps));
        }
        true
    }

    /// Number of queued (unflushed) perturbations for `tenant`.
    pub fn pending(&self, tenant: TenantId) -> usize {
        self.tenant(tenant).pending.len()
    }

    /// The tenant's maintained solution, without flushing its queue.
    pub fn solution(&self, tenant: TenantId) -> &[ElementId] {
        self.tenant(tenant).session.solution()
    }

    /// The tenant's session (read access; perturb through
    /// [`try_submit`](Self::try_submit) so coalescing stays intact).
    pub fn session(&self, tenant: TenantId) -> &DynamicSession<'q, OverlayMetric<Arc<M>>, Q> {
        &self.tenant(tenant).session
    }

    /// Cumulative counters for `tenant`.
    pub fn stats(&self, tenant: TenantId) -> TenantStats {
        self.tenant(tenant).stats
    }

    /// The audit channel: `tenant`'s most recently rejected flush batch
    /// and its typed error, or `None` if no flush was ever rejected.
    /// Survives successful flushes and recovery; overwritten by the
    /// next rejection.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is unknown or evicted.
    pub fn last_rejection(&self, tenant: TenantId) -> Option<&RejectionAudit> {
        self.tenant(tenant).last_rejection.as_ref()
    }

    /// Flushes (up to [`AdmissionPolicy::max_flush_per_query`] of)
    /// `tenant`'s queued perturbations as one coalesced, *validated*
    /// [`DynamicSession::ingest`], stabilizes, and answers with the
    /// maintained solution.
    ///
    /// A rejected batch is kept on the audit channel
    /// ([`last_rejection`](Self::last_rejection)) but discarded from the
    /// session — it rolls back bit-for-bit and the response carries the
    /// typed error in [`QueryResponse::rejected`]; a quarantined tenant
    /// answers from its last good state without flushing. No request
    /// content can panic this entry point.
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is unknown or evicted.
    pub fn query(&mut self, tenant: TenantId) -> QueryResponse {
        let max_updates = self.max_updates_per_query;
        let policy = self.policy;
        let now = self.now();
        let t = self.tenant_mut(tenant);
        Self::query_tenant(t, tenant, policy, max_updates, now)
    }

    /// The whole per-tenant query body — staleness check, coalesced
    /// flush, stabilize, respond. Both [`query`](Self::query) and the
    /// fan-out jobs run exactly this function, which is what makes the
    /// fan-out bit-identical to the serial loop by construction.
    fn query_tenant(
        t: &mut Tenant<'q, M, Q>,
        tenant: TenantId,
        policy: AdmissionPolicy,
        max_updates: usize,
        now: u64,
    ) -> QueryResponse {
        Self::quarantine_if_stale(t, policy, now);
        let flush = Self::flush_pending(t, policy);
        Self::respond(t, tenant, flush, max_updates, policy)
    }

    /// Enforces [`AdmissionPolicy::max_staleness_ticks`]: a queue whose
    /// oldest entry has lagged past the SLO can no longer be served in
    /// time — drop it and quarantine. The session state is the last
    /// good flush, so unlike poison quarantine nothing rolls back.
    fn quarantine_if_stale(t: &mut Tenant<'q, M, Q>, policy: AdmissionPolicy, now: u64) {
        let Some(limit) = policy.max_staleness_ticks else {
            return;
        };
        if t.quarantined {
            return;
        }
        let Some(&oldest) = t.pending_ticks.first() else {
            return;
        };
        if now.saturating_sub(oldest) > limit {
            t.quarantined = true;
            t.pending.clear();
            t.pending_ticks.clear();
        }
    }

    /// Answers a set of *distinct* tenants in request order, as the
    /// [`query`](Self::query) loop would at one clock reading: the
    /// tenants fan out as independent jobs on the frontend's pool (the
    /// `with_scan_pool` pool, else the global one); each job runs the
    /// identical serial per-tenant body, so the responses are
    /// bit-identical to the loop, and a one-thread pool *is* the loop.
    ///
    /// # Panics
    ///
    /// Panics on duplicate handles (two jobs would race on one tenant)
    /// or on unknown/evicted tenants, and propagates any tenant-job
    /// panic after the join.
    pub fn query_many(&mut self, tenants: &[TenantId]) -> Vec<QueryResponse> {
        let max_updates = self.max_updates_per_query;
        let policy = self.policy;
        let now = self.now();
        let mut slots: Vec<Option<QueryResponse>> = Vec::with_capacity(tenants.len());
        slots.resize_with(tenants.len(), || None);
        {
            let cells = Self::disjoint_tenants_mut(&mut self.tenants, tenants);
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = cells
                .into_iter()
                .zip(slots.iter_mut())
                .map(|((_, id, t), slot)| {
                    Box::new(move || {
                        *slot = Some(Self::query_tenant(t, id, policy, max_updates, now));
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            let pool = self
                .scan_pool
                .as_deref()
                .unwrap_or_else(|| ScanPool::global());
            pool.run_jobs(jobs);
        }
        slots
            .into_iter()
            .map(|slot| match slot {
                Some(response) => response,
                None => panic!("fan-out job dropped its response"),
            })
            .collect()
    }

    /// One flush cycle over the ready set (live, unquarantined tenants
    /// with queued work), ascending by id: each ready tenant gets one
    /// [`query`](Self::query). Tenants with empty queues are skipped —
    /// a pure read costs nothing through this path.
    pub fn drain_all(&mut self) -> Vec<QueryResponse> {
        let ready = self.ready_ids();
        self.query_many(&ready)
    }

    /// Drains the admission-bounded front of the pending queue through
    /// one validating, all-or-nothing [`DynamicSession::ingest`]. A
    /// quarantined tenant flushes nothing. The drained batch rides in
    /// the returned [`FlushAttempt`] either way — into the recovery
    /// replay log on success, onto the audit channel on rejection.
    fn flush_pending(t: &mut Tenant<'q, M, Q>, policy: AdmissionPolicy) -> FlushAttempt {
        if t.quarantined || t.pending.is_empty() {
            return FlushAttempt::Idle;
        }
        let take = policy
            .max_flush_per_query
            .map_or(t.pending.len(), |cap| cap.min(t.pending.len()));
        if take == 0 {
            return FlushAttempt::Idle;
        }
        let batch: Vec<SessionPerturbation> = t.pending.drain(..take).collect();
        t.pending_ticks.drain(..take);
        match t.session.ingest(&batch) {
            Ok(report) => FlushAttempt::Applied(report, batch),
            Err(error) => FlushAttempt::Rejected(error, batch),
        }
    }

    /// Stabilizes and assembles the response + fault-tolerance
    /// bookkeeping after a flush attempt.
    fn respond(
        t: &mut Tenant<'q, M, Q>,
        tenant: TenantId,
        flush: FlushAttempt,
        max_updates: usize,
        policy: AdmissionPolicy,
    ) -> QueryResponse {
        let mut swaps = 0usize;
        let mut flushed = 0usize;
        let mut rejected = None;
        let mut applied_batch = None;
        match flush {
            FlushAttempt::Idle => {}
            FlushAttempt::Applied(report, batch) => {
                flushed = report.ingested;
                if report.outcome.swap.is_some() {
                    swaps += 1;
                }
                t.stats.batches += 1;
                t.stats.perturbations += flushed;
                t.consecutive_rejects = 0;
                applied_batch = Some(batch);
            }
            FlushAttempt::Rejected(error, batch) => {
                // The batch was discarded and the session rolled back by
                // `ingest`; keep the evidence and track the streak.
                t.stats.rejected += 1;
                t.consecutive_rejects += 1;
                t.last_rejection = Some(RejectionAudit {
                    batch,
                    error: error.clone(),
                });
                rejected = Some(error);
                if let Some(threshold) = policy.quarantine_after {
                    if t.consecutive_rejects >= threshold {
                        t.quarantined = true;
                        // The rest of the queue came from the same source
                        // as the poison — drop it, and re-anchor on the
                        // last known-good state (checkpoint plus the
                        // logged since-checkpoint tail; the rejection
                        // rollback already restored it, this is the
                        // defensive path).
                        t.pending.clear();
                        t.pending_ticks.clear();
                        Self::restore_last_known_good(t, max_updates);
                    }
                }
            }
        }
        swaps += t
            .session
            .update_until_stable(max_updates.saturating_sub(swaps));
        if rejected.is_none() && policy.quarantine_after.is_some() {
            if let Some(batch) = applied_batch {
                // Known-good, stabilized state. Refresh the recovery
                // anchor only every `checkpoint_every` successful
                // flushes (the snapshot clones the full session state —
                // ROADMAP iv-b); between refreshes the batch joins the
                // bounded replay tail recovery re-applies on top of the
                // checkpoint.
                t.flushes_since_checkpoint += 1;
                if t.flushes_since_checkpoint >= policy.checkpoint_every.max(1) {
                    t.checkpoint = Some(t.session.checkpoint());
                    t.replay_log.clear();
                    t.flushes_since_checkpoint = 0;
                } else {
                    t.replay_log.push(batch);
                }
            }
        }
        t.stats.queries += 1;
        t.stats.swaps += swaps;
        t.stats.staleness = t.pending.len();
        QueryResponse {
            tenant,
            solution: t.session.solution().to_vec(),
            objective: t.session.objective(),
            flushed,
            swaps,
            rejected,
        }
    }
}

impl<'q, M: Metric, Q: IncrementalOracle + ?Sized> ServingFrontend<'q, M, Q> {
    /// Runs the fan-out and every tenant session's scans — existing
    /// tenants and any registered or attached later — on an explicit
    /// [`ScanPool`] (builder style): one persistent worker set serves all
    /// tenants. Results are bit-identical for any pool.
    pub fn with_scan_pool(mut self, pool: Arc<ScanPool>) -> Self {
        for t in self.tenants.iter_mut().flatten() {
            t.session.set_scan_pool(Arc::clone(&pool));
        }
        self.scan_pool = Some(pool);
        self
    }

    /// Splits the slot vector into disjoint `&mut` borrows of the
    /// requested tenants (sorted-walk `split_at_mut`), returned in
    /// request order as `(request position, id, tenant)`.
    ///
    /// # Panics
    ///
    /// Panics on duplicate, unknown or evicted tenants.
    #[allow(clippy::type_complexity)]
    fn disjoint_tenants_mut<'a>(
        tenants: &'a mut [Option<Tenant<'q, M, Q>>],
        ids: &[TenantId],
    ) -> Vec<(usize, TenantId, &'a mut Tenant<'q, M, Q>)> {
        let mut order: Vec<(usize, usize)> = ids
            .iter()
            .enumerate()
            .map(|(pos, id)| (id.index(), pos))
            .collect();
        order.sort_unstable();
        for w in order.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate tenant {} in fan-out", w[0].0);
        }
        let mut out: Vec<(usize, TenantId, &'a mut Tenant<'q, M, Q>)> =
            Vec::with_capacity(order.len());
        let mut rest = tenants;
        let mut base = 0usize;
        for (idx, pos) in order {
            assert!(
                idx < base + rest.len(),
                "no tenant {idx} (unknown or evicted)"
            );
            let (head, tail) = rest.split_at_mut(idx - base + 1);
            match head[idx - base].as_mut() {
                Some(t) => out.push((pos, TenantId::from_index(idx), t)),
                None => panic!("no tenant {idx} (unknown or evicted)"),
            }
            rest = tail;
            base = idx + 1;
        }
        out.sort_unstable_by_key(|&(pos, _, _)| pos);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::{greedy_b, GreedyBConfig};
    use crate::problem::DiversificationProblem;
    use msd_metric::DistanceMatrix;
    use msd_submodular::ModularFunction;

    /// Queueing that the test expects admission to accept.
    trait SubmitAdmitted {
        fn submit(&mut self, tenant: TenantId, perturbation: SessionPerturbation);
    }

    impl<M: Metric, Q: IncrementalOracle + ?Sized> SubmitAdmitted for ServingFrontend<'_, M, Q> {
        fn submit(&mut self, tenant: TenantId, perturbation: SessionPerturbation) {
            self.try_submit(tenant, perturbation)
                .expect("submission admitted");
        }
    }

    fn base_and_quality(n: usize) -> (Arc<DistanceMatrix>, ModularFunction) {
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let metric = DistanceMatrix::from_fn(n, |_, _| 1.0 + next());
        let weights: Vec<f64> = (0..n).map(|_| next()).collect();
        (Arc::new(metric), ModularFunction::new(weights))
    }

    #[test]
    fn queries_coalesce_pending_perturbations() {
        let (base, quality) = base_and_quality(24);
        let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
        let init = greedy_b(&problem, 5, GreedyBConfig::default());
        let mut frontend = ServingFrontend::new(Arc::clone(&base));
        let t = frontend.register_tenant(&quality, 0.3, &init);

        frontend.submit(
            t,
            SessionPerturbation::SetDistance {
                u: 0,
                v: 7,
                value: 3.0,
            },
        );
        frontend.submit(t, SessionPerturbation::SetWeight { u: 23, value: 4.0 });
        assert_eq!(frontend.pending(t), 2);

        let response = frontend.query(t);
        assert_eq!(response.flushed, 2);
        assert_eq!(frontend.pending(t), 0);
        assert_eq!(response.solution.len(), 5);
        let stats = frontend.stats(t);
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.perturbations, 2);

        // A pure read flushes nothing and answers from the caches.
        let read = frontend.query(t);
        assert_eq!(read.flushed, 0);
        assert_eq!(read.solution, response.solution);
    }

    #[test]
    fn tenants_are_isolated_and_base_is_untouched() {
        let (base, quality) = base_and_quality(20);
        let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.25);
        let init = greedy_b(&problem, 4, GreedyBConfig::default());
        let original = base.distance(1, 5);

        let mut frontend = ServingFrontend::new(Arc::clone(&base));
        let a = frontend.register_tenant(&quality, 0.25, &init);
        let b = frontend.register_tenant(&quality, 0.25, &init);

        // Conflicting rewrites of the same pair.
        frontend.submit(
            a,
            SessionPerturbation::SetDistance {
                u: 1,
                v: 5,
                value: 0.5,
            },
        );
        frontend.submit(
            b,
            SessionPerturbation::SetDistance {
                u: 1,
                v: 5,
                value: 9.0,
            },
        );
        frontend.query(a);
        frontend.query(b);

        assert_eq!(frontend.session(a).metric().distance(1, 5), 0.5);
        assert_eq!(frontend.session(b).metric().distance(1, 5), 9.0);
        assert_eq!(base.distance(1, 5), original);
    }

    #[test]
    fn stream_processing_interleaves_tenants() {
        let (base, quality) = base_and_quality(16);
        let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.4);
        let init = greedy_b(&problem, 3, GreedyBConfig::default());
        let mut frontend = ServingFrontend::new(Arc::clone(&base));
        let a = frontend.register_tenant(&quality, 0.4, &init);
        let b = frontend.register_tenant(&quality, 1.0, &init);

        frontend.submit(a, SessionPerturbation::SetWeight { u: 15, value: 3.0 });
        frontend.submit(
            b,
            SessionPerturbation::SetDistance {
                u: 0,
                v: 9,
                value: 2.0,
            },
        );
        frontend.submit(
            a,
            SessionPerturbation::SetDistance {
                u: 2,
                v: 3,
                value: 1.5,
            },
        );
        let responses = [frontend.query(a), frontend.query(b)];
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].tenant, a);
        assert_eq!(responses[0].flushed, 2); // a's two perturbations coalesced
        assert_eq!(responses[1].tenant, b);
        assert_eq!(responses[1].flushed, 1);
    }

    #[test]
    fn bounded_flush_spreads_a_burst_and_reports_staleness() {
        let (base, quality) = base_and_quality(20);
        let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
        let init = greedy_b(&problem, 4, GreedyBConfig::default());
        let mut frontend =
            ServingFrontend::new(Arc::clone(&base)).with_admission_policy(AdmissionPolicy {
                max_flush_per_query: Some(3),
                max_pending: Some(10),
                ..AdmissionPolicy::default()
            });
        let t = frontend.register_tenant(&quality, 0.3, &init);
        for i in 0..10u32 {
            frontend
                .try_submit(
                    t,
                    SessionPerturbation::SetDistance {
                        u: i,
                        v: i + 10,
                        value: 1.0 + f64::from(i) * 0.125,
                    },
                )
                .unwrap();
        }
        // Queue is at depth: backpressure, not growth.
        let err = frontend
            .try_submit(t, SessionPerturbation::SetWeight { u: 0, value: 1.0 })
            .unwrap_err();
        assert_eq!(
            err,
            SubmitError::QueueFull {
                tenant: t,
                max_pending: 10
            }
        );
        assert!(err.to_string().contains("queue full"));
        // Each query drains at most 3, front first; staleness falls
        // monotonically to zero.
        let mut last_staleness = usize::MAX;
        let mut total_flushed = 0usize;
        while frontend.pending(t) > 0 {
            let r = frontend.query(t);
            assert!(r.flushed <= 3);
            assert!(r.rejected.is_none());
            total_flushed += r.flushed;
            let staleness = frontend.stats(t).staleness;
            assert!(staleness < last_staleness, "staleness must shrink");
            last_staleness = staleness;
        }
        assert_eq!(total_flushed, 10);
        assert_eq!(frontend.stats(t).staleness, 0);
        // The spread-out answer matches an unbounded frontend fed the
        // same stream.
        let mut unbounded = ServingFrontend::new(Arc::clone(&base));
        let u = unbounded.register_tenant(&quality, 0.3, &init);
        for i in 0..10u32 {
            unbounded.submit(
                u,
                SessionPerturbation::SetDistance {
                    u: i,
                    v: i + 10,
                    value: 1.0 + f64::from(i) * 0.125,
                },
            );
        }
        let ru = unbounded.query(u);
        assert_eq!(frontend.query(t).solution, ru.solution);
    }

    #[test]
    fn rejected_flushes_answer_last_good_state_and_quarantine_isolates() {
        let (base, quality) = base_and_quality(24);
        let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
        let init = greedy_b(&problem, 5, GreedyBConfig::default());
        let mut frontend =
            ServingFrontend::new(Arc::clone(&base)).with_admission_policy(AdmissionPolicy {
                quarantine_after: Some(2),
                ..AdmissionPolicy::default()
            });
        let poisoner = frontend.register_tenant(&quality, 0.3, &init);
        let healthy = frontend.register_tenant(&quality, 0.3, &init);
        // Mirror of the healthy tenant in a frontend that never sees the
        // poisoner: its answers must be bit-identical throughout.
        let mut mirror_frontend = ServingFrontend::new(Arc::clone(&base));
        let mirror = mirror_frontend.register_tenant(&quality, 0.3, &init);

        // A good flush establishes the checkpoint.
        frontend.submit(
            poisoner,
            SessionPerturbation::SetDistance {
                u: 0,
                v: 9,
                value: 2.5,
            },
        );
        let good = frontend.query(poisoner);
        assert!(good.rejected.is_none());

        // Two consecutive poisoned batches → quarantine.
        for _ in 0..2 {
            frontend.submit(
                poisoner,
                SessionPerturbation::SetDistance {
                    u: 1,
                    v: 2,
                    value: f64::NAN,
                },
            );
            frontend.submit(healthy, SessionPerturbation::SetWeight { u: 3, value: 2.0 });
            mirror_frontend.submit(mirror, SessionPerturbation::SetWeight { u: 3, value: 2.0 });
            let rp = frontend.query(poisoner);
            assert!(matches!(
                rp.rejected,
                Some(SessionError::Rejected { index: 0, .. })
            ));
            // Degraded, not down: the poisoner still gets its last good
            // answer.
            assert_eq!(rp.solution, good.solution);
            assert_eq!(rp.objective, good.objective);
            // The healthy tenant is untouched by its neighbor's faults.
            let rh = frontend.query(healthy);
            let rm = mirror_frontend.query(mirror);
            assert_eq!(rh.solution, rm.solution);
            assert_eq!(rh.objective.to_bits(), rm.objective.to_bits());
            assert!(rh.rejected.is_none());
        }
        assert!(frontend.is_quarantined(poisoner));
        assert!(!frontend.is_quarantined(healthy));
        assert_eq!(frontend.stats(poisoner).rejected, 2);

        // Quarantined: submissions refused, queries served, others fine.
        assert_eq!(
            frontend
                .try_submit(
                    poisoner,
                    SessionPerturbation::SetWeight { u: 0, value: 1.0 }
                )
                .unwrap_err(),
            SubmitError::Quarantined { tenant: poisoner }
        );
        let rq = frontend.query(poisoner);
        assert_eq!(rq.solution, good.solution);
        assert_eq!(rq.flushed, 0);

        // Recovery restores the last good checkpoint and re-opens the
        // tenant; subsequent valid traffic flows normally.
        assert!(frontend.recover(poisoner));
        assert!(!frontend.is_quarantined(poisoner));
        assert_eq!(frontend.solution(poisoner), &good.solution[..]);
        frontend
            .try_submit(
                poisoner,
                SessionPerturbation::SetWeight { u: 5, value: 3.0 },
            )
            .unwrap();
        let back = frontend.query(poisoner);
        assert!(back.rejected.is_none());
        assert_eq!(back.flushed, 1);

        // Unknown tenants are an error, not a panic, through try_submit.
        let ghost = TenantId::from_index(99);
        assert_eq!(
            frontend
                .try_submit(ghost, SessionPerturbation::SetWeight { u: 0, value: 1.0 })
                .unwrap_err(),
            SubmitError::UnknownTenant { tenant: ghost }
        );
    }

    #[test]
    fn periodic_checkpoints_recover_bit_identically_to_per_flush_checkpoints() {
        // Regression for the checkpoint cost fix (ROADMAP iv-b): with
        // `checkpoint_every > 1` the recovery anchor is stale by up to
        // `checkpoint_every − 1` good flushes, and recovery must replay
        // that logged tail — `recover()` has to land bit-for-bit on the
        // same last-known-good state as the legacy refresh-every-flush
        // cadence.
        let (base, quality) = base_and_quality(24);
        let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
        let init = greedy_b(&problem, 5, GreedyBConfig::default());
        let policy_every = |checkpoint_every: usize| AdmissionPolicy {
            quarantine_after: Some(2),
            checkpoint_every,
            ..AdmissionPolicy::default()
        };
        let mut per_flush =
            ServingFrontend::new(Arc::clone(&base)).with_admission_policy(policy_every(1));
        let a = per_flush.register_tenant(&quality, 0.3, &init);
        let mut periodic =
            ServingFrontend::new(Arc::clone(&base)).with_admission_policy(policy_every(3));
        let b = periodic.register_tenant(&quality, 0.3, &init);

        // Five good flushes: the cadence-3 frontend refreshes its anchor
        // at flush 3 and holds flushes 4–5 in the replay log, so the
        // checkpoint alone is genuinely stale when the poison arrives.
        let mut last_good = None;
        for i in 0..5u32 {
            let perturbation = SessionPerturbation::SetDistance {
                u: i,
                v: i + 7,
                value: 1.5 + f64::from(i) * 0.25,
            };
            per_flush.submit(a, perturbation);
            periodic.submit(b, perturbation);
            let ra = per_flush.query(a);
            let rb = periodic.query(b);
            assert!(ra.rejected.is_none() && rb.rejected.is_none());
            assert_eq!(ra.solution, rb.solution);
            assert_eq!(ra.objective.to_bits(), rb.objective.to_bits());
            last_good = Some(ra);
        }
        let last_good = last_good.unwrap();

        // Two consecutive poisoned batches quarantine both tenants.
        for _ in 0..2 {
            let poison = SessionPerturbation::SetDistance {
                u: 1,
                v: 2,
                value: f64::NAN,
            };
            per_flush.submit(a, poison);
            periodic.submit(b, poison);
            assert!(per_flush.query(a).rejected.is_some());
            assert!(periodic.query(b).rejected.is_some());
        }
        assert!(per_flush.is_quarantined(a) && periodic.is_quarantined(b));
        // Quarantined answers already come from the last good state.
        assert_eq!(periodic.query(b).solution, last_good.solution);

        // Recovery: checkpoint + replayed tail ≡ per-flush checkpoint.
        assert!(per_flush.recover(a));
        assert!(periodic.recover(b));
        assert_eq!(per_flush.solution(a), periodic.solution(b));
        assert_eq!(periodic.solution(b), &last_good.solution[..]);

        // Post-recovery traffic stays bit-identical.
        let follow = SessionPerturbation::SetWeight { u: 11, value: 3.0 };
        per_flush.submit(a, follow);
        periodic.submit(b, follow);
        let ra = per_flush.query(a);
        let rb = periodic.query(b);
        assert!(ra.rejected.is_none() && rb.rejected.is_none());
        assert_eq!(ra.solution, rb.solution);
        assert_eq!(ra.objective.to_bits(), rb.objective.to_bits());
    }

    #[test]
    fn parallel_queries_match_serial_with_forced_pool() {
        let (base, quality) = base_and_quality(40);
        let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
        let init = greedy_b(&problem, 6, GreedyBConfig::default());

        let mut serial =
            ServingFrontend::new(Arc::clone(&base)).with_scan_pool(Arc::new(ScanPool::new(1)));
        let ts = serial.register_tenant(&quality, 0.3, &init);
        let mut par = ServingFrontend::new(Arc::clone(&base));
        let tp = par.register_tenant(&quality, 0.3, &init);
        // A forced pool chunks every scan even at this test size.
        let mut par = par.with_scan_pool(Arc::new(ScanPool::new(4)));

        for (u, v, value) in [(0u32, 7u32, 3.0), (4, 12, 0.2), (1, 2, 2.5)] {
            serial.submit(ts, SessionPerturbation::SetDistance { u, v, value });
            par.submit(tp, SessionPerturbation::SetDistance { u, v, value });
            let rs = serial.query(ts);
            let rp = par.query(tp);
            assert_eq!(rs.solution, rp.solution);
            assert_eq!(rs.objective, rp.objective);
            assert_eq!(rs.flushed, rp.flushed);
        }
    }

    #[test]
    fn typed_tenant_ids_round_trip_and_display() {
        let t = TenantId::from_index(7);
        assert_eq!(t.index(), 7);
        assert_eq!(t.to_string(), "7");
        assert_eq!(t, TenantId::from_index(7));
        assert!(TenantId::from_index(1) < TenantId::from_index(2));
    }

    #[test]
    fn query_many_matches_individual_queries_and_drain_all_hits_ready_set() {
        let (base, quality) = base_and_quality(24);
        let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
        let init = greedy_b(&problem, 5, GreedyBConfig::default());

        let mut fan = ServingFrontend::new(Arc::clone(&base));
        let mut one = ServingFrontend::new(Arc::clone(&base));
        let fa = fan.register_tenant(&quality, 0.3, &init);
        let fb = fan.register_tenant(&quality, 0.9, &init);
        let fc = fan.register_tenant(&quality, 1.4, &init);
        let oa = one.register_tenant(&quality, 0.3, &init);
        let ob = one.register_tenant(&quality, 0.9, &init);
        let oc = one.register_tenant(&quality, 1.4, &init);

        for (u, v, value) in [(0u32, 7u32, 3.0), (4, 12, 0.2)] {
            for t in [fa, fb] {
                fan.submit(t, SessionPerturbation::SetDistance { u, v, value });
            }
            for t in [oa, ob] {
                one.submit(t, SessionPerturbation::SetDistance { u, v, value });
            }
        }
        // Fan-out in request order ≡ the serial loop, bit for bit.
        let joined = fan.query_many(&[fb, fa, fc]);
        let serial = [one.query(ob), one.query(oa), one.query(oc)];
        assert_eq!(joined.len(), 3);
        for (j, s) in joined.iter().zip(serial.iter()) {
            assert_eq!(j.solution, s.solution);
            assert_eq!(j.objective.to_bits(), s.objective.to_bits());
            assert_eq!(j.flushed, s.flushed);
            assert_eq!(j.swaps, s.swaps);
        }
        assert_eq!(joined[0].tenant, fb);
        assert_eq!(joined[1].tenant, fa);

        // drain_all serves only tenants with queued work.
        fan.submit(fc, SessionPerturbation::SetWeight { u: 3, value: 2.0 });
        let drained = fan.drain_all();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].tenant, fc);
        assert_eq!(drained[0].flushed, 1);
        assert!(fan.drain_all().is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate tenant")]
    fn query_many_rejects_duplicate_handles() {
        let (base, quality) = base_and_quality(8);
        let mut frontend = ServingFrontend::new(Arc::clone(&base));
        let t = frontend.register_tenant(&quality, 0.3, &[0, 1]);
        frontend.query_many(&[t, t]);
    }

    struct FakeClock(std::sync::atomic::AtomicU64);

    impl FakeClock {
        fn arc(start: u64) -> Arc<Self> {
            Arc::new(FakeClock(std::sync::atomic::AtomicU64::new(start)))
        }

        fn set(&self, ticks: u64) {
            self.0.store(ticks, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl Clock for FakeClock {
        fn now_ticks(&self) -> u64 {
            self.0.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    #[test]
    fn stale_queues_quarantine_under_injected_clock() {
        let (base, quality) = base_and_quality(20);
        let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
        let init = greedy_b(&problem, 4, GreedyBConfig::default());
        let clock = FakeClock::arc(0);
        let mut frontend = ServingFrontend::new(Arc::clone(&base))
            .with_clock(clock.clone())
            .with_admission_policy(AdmissionPolicy {
                max_staleness_ticks: Some(10),
                ..AdmissionPolicy::default()
            });
        let t = frontend.register_tenant(&quality, 0.3, &init);

        // Within the SLO the flush happens normally.
        frontend.submit(
            t,
            SessionPerturbation::SetDistance {
                u: 0,
                v: 9,
                value: 2.5,
            },
        );
        clock.set(5);
        let ok = frontend.query(t);
        assert_eq!(ok.flushed, 1);
        assert!(!frontend.is_quarantined(t));

        // A queue whose oldest entry lags past the budget is dropped and
        // the tenant quarantined — served state stays the last good one.
        frontend.submit(
            t,
            SessionPerturbation::SetDistance {
                u: 1,
                v: 7,
                value: 4.0,
            },
        );
        clock.set(30);
        let stale = frontend.query(t);
        assert_eq!(stale.flushed, 0);
        assert!(stale.rejected.is_none());
        assert_eq!(stale.solution, ok.solution);
        assert!(frontend.is_quarantined(t));
        assert_eq!(frontend.pending(t), 0);
        assert!(matches!(
            frontend.try_submit(t, SessionPerturbation::SetWeight { u: 0, value: 1.0 }),
            Err(SubmitError::Quarantined { .. })
        ));

        // Recovery re-opens the tenant (no checkpoint is maintained
        // without quarantine_after; the session was never corrupted).
        assert!(!frontend.recover(t));
        assert!(!frontend.is_quarantined(t));
        frontend.submit(t, SessionPerturbation::SetWeight { u: 2, value: 2.0 });
        clock.set(31);
        assert_eq!(frontend.query(t).flushed, 1);
    }

    #[test]
    fn token_bucket_rate_limits_and_refills_by_ticks() {
        let (base, quality) = base_and_quality(12);
        let clock = FakeClock::arc(0);
        let mut frontend = ServingFrontend::new(Arc::clone(&base))
            .with_clock(clock.clone())
            .with_admission_policy(AdmissionPolicy {
                rate_limit: Some(TokenBucket {
                    capacity: 2,
                    ticks_per_token: 5,
                }),
                ..AdmissionPolicy::default()
            });
        let t = frontend.register_tenant(&quality, 0.3, &[0, 1, 2]);
        let w = |u: u32| SessionPerturbation::SetWeight { u, value: 2.0 };

        // Burst up to capacity, then limited.
        assert!(frontend.try_submit(t, w(0)).is_ok());
        assert!(frontend.try_submit(t, w(1)).is_ok());
        assert_eq!(
            frontend.try_submit(t, w(2)).unwrap_err(),
            SubmitError::RateLimited { tenant: t }
        );
        // 5 ticks mint exactly one token.
        clock.set(5);
        assert!(frontend.try_submit(t, w(2)).is_ok());
        assert!(matches!(
            frontend.try_submit(t, w(3)),
            Err(SubmitError::RateLimited { .. })
        ));
        // A long idle stretch refills to capacity, not beyond.
        clock.set(1000);
        assert!(frontend.try_submit(t, w(3)).is_ok());
        assert!(frontend.try_submit(t, w(4)).is_ok());
        assert!(matches!(
            frontend.try_submit(t, w(5)),
            Err(SubmitError::RateLimited { .. })
        ));
        assert_eq!(frontend.pending(t), 5);
        assert_eq!(frontend.query(t).flushed, 5);
    }

    #[test]
    fn rejected_batches_land_on_the_audit_channel() {
        let (base, quality) = base_and_quality(16);
        let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
        let init = greedy_b(&problem, 4, GreedyBConfig::default());
        let mut frontend = ServingFrontend::new(Arc::clone(&base));
        let t = frontend.register_tenant(&quality, 0.3, &init);
        assert!(frontend.last_rejection(t).is_none());

        let poison = SessionPerturbation::SetDistance {
            u: 1,
            v: 2,
            value: f64::NAN,
        };
        let rider = SessionPerturbation::SetWeight { u: 3, value: 2.0 };
        frontend.submit(t, rider);
        frontend.submit(t, poison);
        let response = frontend.query(t);
        let error = response.rejected.clone().expect("poisoned flush rejects");

        // The audit entry holds the exact drained batch + typed error.
        // (NaN != NaN, so the poisoned entry is matched structurally.)
        let assert_audit = |audit: &RejectionAudit| {
            assert_eq!(audit.batch.len(), 2);
            assert_eq!(audit.batch[0], rider);
            assert!(matches!(
                audit.batch[1],
                SessionPerturbation::SetDistance { u: 1, v: 2, value } if value.is_nan()
            ));
        };
        let audit = frontend.last_rejection(t).expect("audit entry recorded");
        assert_audit(audit);
        assert_eq!(audit.error.to_string(), error.to_string());
        assert!(matches!(
            audit.error,
            SessionError::Rejected { index: 1, .. }
        ));

        // A later good flush leaves the evidence in place.
        frontend.submit(t, rider);
        assert!(frontend.query(t).rejected.is_none());
        let audit = frontend.last_rejection(t).expect("audit entry survives");
        assert_audit(audit);
    }

    fn shared_weights(quality: &ModularFunction) -> Arc<[f64]> {
        quality.weights().to_vec().into()
    }

    #[test]
    fn shared_overlay_tenants_match_owned_oracle_tenants_bitwise() {
        let (base, quality) = base_and_quality(24);
        let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
        let init = greedy_b(&problem, 5, GreedyBConfig::default());
        let weights = shared_weights(&quality);

        let mut owned = ServingFrontend::new(Arc::clone(&base));
        let to = owned.register_tenant(&quality, 0.3, &init);
        let mut shared = SharedServingFrontend::new_shared(Arc::clone(&base));
        let ts = shared.register_tenant_shared(Arc::clone(&weights), 0.3, &init);

        let stream = [
            SessionPerturbation::SetWeight { u: 3, value: 4.0 },
            SessionPerturbation::SetDistance {
                u: 0,
                v: 7,
                value: 3.0,
            },
            SessionPerturbation::SetWeight { u: 9, value: 0.05 },
            SessionPerturbation::SetDistance {
                u: 4,
                v: 12,
                value: 0.2,
            },
            SessionPerturbation::SetWeight { u: 3, value: 1.5 },
        ];
        for chunk in stream.chunks(2) {
            for &p in chunk {
                owned.submit(to, p);
                shared.submit(ts, p);
            }
            let ro = owned.query(to);
            let rs = shared.query(ts);
            assert_eq!(ro.solution, rs.solution);
            assert_eq!(ro.objective.to_bits(), rs.objective.to_bits());
            assert_eq!(ro.swaps, rs.swaps);
        }
        // Only the two distinct overridden weights are resident.
        assert_eq!(shared.weight_delta_count(ts), 2);
    }

    #[test]
    fn evict_attach_round_trip_is_bit_identical() {
        let (base, quality) = base_and_quality(24);
        let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
        let init = greedy_b(&problem, 5, GreedyBConfig::default());
        let weights = shared_weights(&quality);

        let mut spilled = SharedServingFrontend::new_shared(Arc::clone(&base));
        let mut resident = SharedServingFrontend::new_shared(Arc::clone(&base));
        let a = spilled.register_tenant_shared(Arc::clone(&weights), 0.3, &init);
        let keeper = spilled.register_tenant_shared(Arc::clone(&weights), 0.9, &init);
        let b = resident.register_tenant_shared(Arc::clone(&weights), 0.3, &init);

        let warmup = [
            SessionPerturbation::SetWeight { u: 3, value: 4.0 },
            SessionPerturbation::SetDistance {
                u: 0,
                v: 7,
                value: 3.0,
            },
            SessionPerturbation::Depart { u: init[0] },
        ];
        for &p in &warmup {
            spilled.submit(a, p);
            resident.submit(b, p);
        }
        let before = spilled.query(a);
        let mirror = resident.query(b);
        assert_eq!(before.solution, mirror.solution);

        // Leave one perturbation queued across the eviction.
        let queued = SessionPerturbation::SetWeight { u: 11, value: 2.5 };
        spilled.submit(a, queued);
        resident.submit(b, queued);

        let snapshot = spilled.evict(a);
        assert_eq!(spilled.tenant_count(), 1);
        assert_eq!(snapshot.pending, vec![queued]);
        assert_eq!(snapshot.weight_deltas.len(), 1);
        // The keeper's handle survives its neighbor's eviction.
        assert_eq!(spilled.pending(keeper), 0);

        let a2 = spilled.attach(snapshot);
        assert_eq!(a2, a, "tombstoned slot is reused");
        assert_eq!(spilled.stats(a2).queries, 1);
        assert_eq!(spilled.pending(a2), 1);

        // Post-attach traffic is bit-identical to the never-evicted twin.
        let after = spilled.query(a2);
        let mirror = resident.query(b);
        assert_eq!(after.solution, mirror.solution);
        assert_eq!(after.objective.to_bits(), mirror.objective.to_bits());
        assert_eq!(after.flushed, mirror.flushed);
        for (u, v, value) in [(2u32, 9u32, 0.4), (5, 13, 6.0)] {
            let p = SessionPerturbation::SetDistance { u, v, value };
            spilled.submit(a2, p);
            resident.submit(b, p);
            let ra = spilled.query(a2);
            let rb = resident.query(b);
            assert_eq!(ra.solution, rb.solution);
            assert_eq!(ra.objective.to_bits(), rb.objective.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "no tenant 0")]
    fn evicted_handles_panic_on_use() {
        let (base, quality) = base_and_quality(8);
        let weights = shared_weights(&quality);
        let mut frontend = SharedServingFrontend::new_shared(Arc::clone(&base));
        let t = frontend.register_tenant_shared(weights, 0.3, &[0, 1]);
        let _ = frontend.evict(t);
        let _ = frontend.query(t);
    }

    #[test]
    fn quarantined_tenants_are_evictable_and_reattach_quarantined() {
        let (base, quality) = base_and_quality(16);
        let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
        let init = greedy_b(&problem, 4, GreedyBConfig::default());
        let weights = shared_weights(&quality);
        let mut frontend = SharedServingFrontend::new_shared(Arc::clone(&base))
            .with_admission_policy(AdmissionPolicy {
                quarantine_after: Some(1),
                ..AdmissionPolicy::default()
            });
        let t = frontend.register_tenant_shared(weights, 0.3, &init);
        frontend.submit(
            t,
            SessionPerturbation::SetDistance {
                u: 0,
                v: 1,
                value: f64::NAN,
            },
        );
        assert!(frontend.query(t).rejected.is_some());
        assert!(frontend.is_quarantined(t));

        let snapshot = frontend.evict(t);
        assert!(snapshot.quarantined);
        let t = frontend.attach(snapshot);
        assert!(frontend.is_quarantined(t));
        assert!(matches!(
            frontend.try_submit(t, SessionPerturbation::SetWeight { u: 0, value: 1.0 }),
            Err(SubmitError::Quarantined { .. })
        ));
        frontend.recover(t);
        assert!(!frontend.is_quarantined(t));
    }

    #[test]
    fn fan_out_join_matches_serial_loop_with_forced_pool() {
        let (base, quality) = base_and_quality(40);
        let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
        let init = greedy_b(&problem, 6, GreedyBConfig::default());

        let mut serial =
            ServingFrontend::new(Arc::clone(&base)).with_scan_pool(Arc::new(ScanPool::new(1)));
        let mut par = ServingFrontend::new(Arc::clone(&base));
        let lambdas = [0.2, 0.3, 0.9, 1.5];
        let st: Vec<_> = lambdas
            .iter()
            .map(|&l| serial.register_tenant(&quality, l, &init))
            .collect();
        let pt: Vec<_> = lambdas
            .iter()
            .map(|&l| par.register_tenant(&quality, l, &init))
            .collect();
        let mut par = par.with_scan_pool(Arc::new(ScanPool::new(4)));

        for round in 0..3u32 {
            for (i, (&ts, &tp)) in st.iter().zip(pt.iter()).enumerate() {
                let p = SessionPerturbation::SetDistance {
                    u: round * 4 + i as u32,
                    v: 20 + round * 4 + i as u32,
                    value: 0.3 + f64::from(round) * 0.7,
                };
                serial.submit(ts, p);
                par.submit(tp, p);
            }
            let rs = serial.query_many(&st);
            let rp = par.query_many(&pt);
            assert_eq!(rs.len(), rp.len());
            for (a, b) in rs.iter().zip(rp.iter()) {
                assert_eq!(a.solution, b.solution);
                assert_eq!(a.objective.to_bits(), b.objective.to_bits());
                assert_eq!(a.flushed, b.flushed);
                assert_eq!(a.swaps, b.swaps);
            }
        }
        // drain_all on the fanned-out frontend ≡ the serial loop's.
        for (&ts, &tp) in st.iter().zip(pt.iter()).take(2) {
            let p = SessionPerturbation::SetWeight { u: 5, value: 3.0 };
            serial.submit(ts, p);
            par.submit(tp, p);
        }
        let rs = serial.drain_all();
        let rp = par.drain_all();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.len(), rp.len());
        for (a, b) in rs.iter().zip(rp.iter()) {
            assert_eq!(a.tenant, b.tenant);
            assert_eq!(a.solution, b.solution);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        }
    }

    /// Distance matrix that records every thread reading it.
    struct ThreadLog {
        inner: DistanceMatrix,
        readers: std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
    }

    impl ThreadLog {
        fn record(&self) {
            self.readers
                .lock()
                .expect("reader log poisoned")
                .insert(std::thread::current().id());
        }
    }

    impl Metric for ThreadLog {
        fn len(&self) -> usize {
            self.inner.len()
        }

        fn distance(&self, u: ElementId, v: ElementId) -> f64 {
            self.record();
            self.inner.distance(u, v)
        }

        fn accumulate_distances(&self, u: ElementId, out: &mut [f64], factor: f64) {
            self.record();
            self.inner.accumulate_distances(u, out, factor);
        }
    }

    /// Tenants registered after `with_scan_pool`, or re-attached after an
    /// eviction, scan on the frontend's pool: with a one-thread pool no
    /// read leaves the calling thread. (Under a forced global pool, a
    /// tenant that missed the frontend's pool would chunk onto workers.)
    #[test]
    fn late_and_reattached_tenants_scan_on_the_frontend_pool() {
        let (base, quality) = base_and_quality(60);
        let problem = DiversificationProblem::new(Arc::clone(&base), &quality, 0.3);
        let init = greedy_b(&problem, 6, GreedyBConfig::default());
        let weights = shared_weights(&quality);
        let logged = Arc::new(ThreadLog {
            inner: (*base).clone(),
            readers: std::sync::Mutex::default(),
        });
        let mut frontend = SharedServingFrontend::new_shared(Arc::clone(&logged))
            .with_scan_pool(Arc::new(ScanPool::new(1)));
        let late = frontend.register_tenant_shared(Arc::clone(&weights), 0.3, &init);
        let evicted = frontend.register_tenant_shared(Arc::clone(&weights), 0.9, &init);
        let snapshot = frontend.evict(evicted);
        let reattached = frontend.attach(snapshot);
        for round in 0..3u32 {
            for (i, t) in [late, reattached].into_iter().enumerate() {
                frontend.submit(
                    t,
                    SessionPerturbation::SetDistance {
                        u: round * 2 + i as u32,
                        v: 40 + round,
                        value: 2.5,
                    },
                );
                frontend.submit(
                    t,
                    SessionPerturbation::SetWeight {
                        u: init[1],
                        value: 0.01,
                    },
                );
            }
            let responses = frontend.query_many(&[late, reattached]);
            assert_eq!(responses.len(), 2);
        }
        let readers = logged.readers.lock().expect("reader log poisoned");
        assert_eq!(
            *readers,
            std::collections::HashSet::from([std::thread::current().id()]),
            "a tenant scanned off the calling thread"
        );
    }
}
