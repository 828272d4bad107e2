//! Incremental marginal-gain oracles.
//!
//! Every algorithm in this workspace is a *candidate-scan loop*: Greedy B
//! evaluates `f_u(S)` for each `u ∉ S` at every step, local search and the
//! dynamic-update rule evaluate `f(S − v + u) − f(S)` for many `(u, v)`
//! pairs per swap. Evaluating those through the plain [`SetFunction`] value
//! oracle costs `O(cost(f))` per candidate *per step*, even though a step
//! changes `S` by a single element.
//!
//! [`IncrementalOracle`] is the stateful counterpart: it carries the
//! current set `S` and maintains per-element marginal caches that are
//! updated in `O(touched)` work on [`insert`](IncrementalOracle::insert) /
//! [`remove`](IncrementalOracle::remove), so that
//! [`marginal`](IncrementalOracle::marginal) is an O(1) read for every
//! structured function this crate ships:
//!
//! | function | `insert`/`remove` | `marginal` | `swap_gain` |
//! |---|---|---|---|
//! | [`ModularFunction`] | O(1) | O(1) | O(1) |
//! | [`CoverageFunction`] | O(Σ_{new/lost topics} degree) | O(1) | O(\|cov(u)\| + \|cov(v)\|) |
//! | [`FacilityLocationFunction`] | O(n · #changed clients) | O(1) | O(#clients) |
//! | [`crate::MixtureFunction`] | sum of components | sum | sum |
//! | any [`SetFunction`] | O(cost(f)) | O(cost(f)) (+ lazy bounds) | O(cost(f)) |
//!
//! The generic fallback ([`GenericOracle`]) additionally exposes *stale
//! upper bounds* ([`marginal_bound`](IncrementalOracle::marginal_bound)):
//! for submodular `f`, a marginal cached at an earlier (smaller) `S` only
//! shrinks as `S` grows, so the cached value remains a valid upper bound
//! until explicitly [`refresh`](IncrementalOracle::refresh)ed. That is the
//! invariant behind the Minoux lazy-greedy scan in `msd-core`.
//!
//! Obtain an oracle through [`SetFunction::incremental`]; the structured
//! functions override that hook to return their specialized oracles.
//! Every oracle is `Send + Sync`, so the same oracle serves serial and
//! pooled scans.

use std::any::Any;
use std::fmt;

use crate::coverage::CoverageFunction;
use crate::facility::FacilityLocationFunction;
use crate::modular::ModularFunction;
use crate::{ElementId, SetFunction, ZeroFunction};

/// Opaque, bit-exact snapshot of an [`IncrementalOracle`]'s mutable state.
///
/// Produced by [`IncrementalOracle::save_state`] and consumed *by
/// reference* — one snapshot can be restored any number of times — by
/// [`IncrementalOracle::restore_state`]. The payload is type-erased so a
/// session holding `Box<dyn IncrementalOracle>` can checkpoint without
/// naming the concrete oracle type; each implementation downcasts its own
/// payload back on restore.
///
/// Snapshots capture only the *mutable* fields (membership, cached
/// marginals, running value sums, copy-on-write weight overrides); the
/// borrowed function data is shared and immutable, so saving is
/// `O(mutable state)` regardless of the wrapped function's size.
pub struct OracleState(Box<dyn Any + Send + Sync>);

impl OracleState {
    pub(crate) fn new<T: Any + Send + Sync>(payload: T) -> Self {
        Self(Box::new(payload))
    }

    /// # Panics
    ///
    /// Panics when the payload is not a `T` — the snapshot was produced
    /// by a different oracle type, a checkpoint/session pairing bug.
    pub(crate) fn downcast<T: Any>(&self) -> &T {
        self.0
            .downcast_ref::<T>()
            .expect("oracle state snapshot does not match this oracle type")
    }
}

impl fmt::Debug for OracleState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("OracleState(..)")
    }
}

/// A stateful value oracle over a mutable set `S`, with incrementally
/// maintained marginal gains.
///
/// Implementations must keep every query consistent with the underlying
/// [`SetFunction`]: `value() == f(S)`, `marginal(u) == f_u(S)`,
/// `swap_gain(u, v) == f(S − v + u) − f(S)` and
/// `pair_marginal(u, v) == f(S + u + v) − f(S)` (all up to floating-point
/// accumulation order).
///
/// Oracles are `Send + Sync`: a session's scans read one oracle from every
/// worker of its pool. Wrappers that count reads through `&self` keep
/// their counters in atomics, as `CountingOracle` does for set functions.
pub trait IncrementalOracle: Send + Sync {
    /// Ground-set size `n`.
    fn ground_size(&self) -> usize;

    /// `|S|`.
    fn len(&self) -> usize;

    /// `true` when `S = ∅`.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` iff `u ∈ S`.
    fn contains(&self, u: ElementId) -> bool;

    /// `f(S)`.
    fn value(&self) -> f64;

    /// Exact marginal `f_u(S)`. O(1) for the specialized oracles; may cost
    /// a full oracle evaluation for the generic fallback.
    fn marginal(&self, u: ElementId) -> f64;

    /// An upper bound on `f_u(S)`, always O(1).
    ///
    /// For specialized oracles this *is* the exact marginal. The generic
    /// fallback returns the last refreshed value (valid by submodularity
    /// while `S` only grows) or `+∞` when nothing is cached.
    fn marginal_bound(&self, u: ElementId) -> f64 {
        self.marginal(u)
    }

    /// Writes [`marginal_bound(u)`](Self::marginal_bound) into `out[u]`
    /// for every `u`, members included: one batched read where a scan
    /// would make one call per element.
    ///
    /// The default loop is compiled inside each implementation, so its
    /// per-element call is static; oracles whose bounds are a stored
    /// vector copy it instead. Either way every entry is bit-identical to
    /// the per-element read.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the ground size.
    fn marginal_bounds(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.ground_size(), "bound buffer length");
        for (u, slot) in out.iter_mut().enumerate() {
            *slot = self.marginal_bound(u as ElementId);
        }
    }

    /// `true` when [`marginal_bound`](Self::marginal_bound) is the exact
    /// current marginal (always true for specialized oracles).
    fn marginal_is_exact(&self, _u: ElementId) -> bool {
        true
    }

    /// Recomputes the exact marginal, tightening the cached bound, and
    /// returns it.
    fn refresh(&mut self, u: ElementId) -> f64 {
        self.marginal(u)
    }

    /// Pair marginal `f(S + u + v) − f(S)` for distinct `u, v ∉ S`.
    fn pair_marginal(&self, u: ElementId, v: ElementId) -> f64;

    /// Swap gain `f(S − v + u) − f(S)` for `v ∈ S`, `u ∉ S`.
    fn swap_gain(&self, u: ElementId, v: ElementId) -> f64;

    /// Adds `u` to `S`, updating caches in `O(touched)`.
    ///
    /// # Panics
    ///
    /// Panics if `u ∈ S`.
    fn insert(&mut self, u: ElementId);

    /// Removes `u` from `S`, updating caches in `O(touched)`.
    ///
    /// # Panics
    ///
    /// Panics if `u ∉ S`.
    fn remove(&mut self, u: ElementId);

    /// Relative cost of one [`marginal`](Self::marginal) /
    /// [`swap_gain`](Self::swap_gain) read, normalized so `1` is the O(1)
    /// arithmetic of the modular oracle (coverage ≈ cover-list walks,
    /// facility ≈ one pass over its clients, generic ≈ a full value-oracle
    /// evaluation). Pure *scheduling hint* consumed by the thread-parallel
    /// scans' work floor in `msd-core` — it must never affect results.
    fn scan_cost_hint(&self) -> usize {
        1
    }

    /// `true` when the oracle carries per-element modular weight data that
    /// [`try_set_weight`](Self::try_set_weight) can update in place.
    fn supports_weight_updates(&self) -> bool {
        false
    }

    /// Point weight update for oracles backed by modular weights: sets
    /// `w(u) = value`, repairs `value()` and the marginal caches in O(1),
    /// and returns the previous weight. Oracles without a modular notion
    /// of per-element weight return `None` (callers fall back to a
    /// rebuild). This is the weight-perturbation repair hook of the
    /// persistent dynamic session in `msd-core`.
    ///
    /// # Panics
    ///
    /// Panics on negative or non-finite `value` where supported.
    fn try_set_weight(&mut self, u: ElementId, value: f64) -> Option<f64> {
        let _ = (u, value);
        None
    }

    /// `true` when a [`try_set_weight`](Self::try_set_weight) on element
    /// `u` changes every swap gain / marginal involving `u` by the *same*
    /// amount, independently of the other element — i.e. the update is a
    /// uniform shift of `u`'s whole gain row. This holds for the modular
    /// family (`w(u)` enters every expression as a lone additive term) and
    /// for coefficient-weighted mixtures of modular components.
    ///
    /// This is the order-preservation contract behind the bounded
    /// best-swap candidate cache of `msd-core`'s `DynamicSession`: a
    /// uniform shift cannot reorder the cached per-member candidate
    /// ranking, so the cache survives the perturbation. An oracle with
    /// element interactions in its weight updates must override this to
    /// `false`, which makes the session invalidate its candidate ranks and
    /// fall back to a full scan (never wrong, just slower). Like
    /// [`scan_cost_hint`](Self::scan_cost_hint), this is a scheduling /
    /// cache-validity hint — it must never affect results.
    fn weight_updates_shift_uniformly(&self) -> bool {
        self.supports_weight_updates()
    }

    /// `true` when [`swap_gain`](Self::swap_gain) does not depend on the
    /// rest of the current set: `f(S − v + u) − f(S)` is a function of
    /// `u` and `v` alone. This holds for the modular family
    /// (`w(u) − w(v)`), the zero function, and coefficient-weighted
    /// mixtures of such components; coverage / facility / generic gains
    /// genuinely interact with `S` and must keep the default `false`.
    ///
    /// An oracle that returns `true` must also satisfy
    /// `swap_gain(u, v) = marginal(u) − marginal(v)` up to rounding, with
    /// [`marginal`](Self::marginal) of a member being its weight (its
    /// `h(x)` in `swap_gain = h(u) − h(v)`), not `0`, and with
    /// [`marginal_bound`](Self::marginal_bound) (so every entry of
    /// [`marginal_bounds`](Self::marginal_bounds)) equal to that exact
    /// marginal. `msd-core`'s local search reads this identity, through
    /// one batched bound read per scan, to bound a whole candidate row by
    /// `marginal(u) − min_v marginal(v)` plus the distance terms; the
    /// bound allows a relative `1e-12` of rounding.
    ///
    /// This is the membership-change contract behind keeping the bounded
    /// best-swap candidate cache of `msd-core`'s `DynamicSession` warm
    /// *across committed swaps*: with a membership-independent quality
    /// part, the swap-gain change of every surviving cache row decomposes
    /// into a row-uniform term plus a per-candidate term `λ·(d(x, v_in) −
    /// d(x, u_out))` the session can repair exactly. Like
    /// [`scan_cost_hint`](Self::scan_cost_hint), this is a cache-validity
    /// hint — a conservative `false` costs a full scan, never a wrong
    /// answer.
    fn swap_gains_are_membership_independent(&self) -> bool {
        false
    }

    /// Captures a bit-exact snapshot of the oracle's mutable state.
    ///
    /// Together with [`restore_state`](Self::restore_state) this is the
    /// transactional-rollback hook behind `msd-core`'s
    /// `SessionCheckpoint`. Replaying *inverse* mutations (`insert`
    /// undoing `remove`, `try_set_weight` re-applying a displaced value)
    /// re-derives the cached floats through a different accumulation
    /// history, so it is not IEEE-round-trip safe — only a state snapshot
    /// restores the running value sums and marginal caches bit-for-bit.
    fn save_state(&self) -> OracleState;

    /// Restores mutable state captured by
    /// [`save_state`](Self::save_state) on this oracle (or on an oracle
    /// of the same type over the same function data).
    ///
    /// # Panics
    ///
    /// Panics when `state` was produced by an incompatible oracle — a
    /// checkpoint/session pairing bug, not a data fault.
    fn restore_state(&mut self, state: &OracleState);
}

/// Shared membership bookkeeping for the oracle implementations.
#[derive(Debug, Clone)]
pub(crate) struct Membership {
    pub(crate) in_set: Vec<bool>,
    pub(crate) size: usize,
}

impl Membership {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            in_set: vec![false; n],
            size: 0,
        }
    }

    pub(crate) fn contains(&self, u: ElementId) -> bool {
        self.in_set[u as usize]
    }

    pub(crate) fn insert(&mut self, u: ElementId) {
        assert!(
            !self.in_set[u as usize],
            "element {u} already in oracle set"
        );
        self.in_set[u as usize] = true;
        self.size += 1;
    }

    pub(crate) fn remove(&mut self, u: ElementId) {
        assert!(self.in_set[u as usize], "element {u} not in oracle set");
        self.in_set[u as usize] = false;
        self.size -= 1;
    }
}

// Per-oracle [`OracleState`] payloads. Private named structs (rather than
// tuples) so a snapshot can never downcast into a different oracle type
// that happens to share the same field shape.

#[derive(Clone)]
struct ModularState {
    own: Vec<f64>,
    members: Membership,
    value: f64,
}

#[derive(Clone)]
struct ZeroState {
    members: Membership,
}

#[derive(Clone)]
struct CoverageState {
    members: Membership,
    count: Vec<u32>,
    cache: Vec<f64>,
    value: f64,
}

#[derive(Clone)]
struct FacilityState {
    members: Membership,
    member_list: Vec<ElementId>,
    best: Vec<f64>,
    provider: Vec<ElementId>,
    second: Vec<f64>,
    cache: Vec<f64>,
    value: f64,
}

struct MixtureState {
    parts: Vec<OracleState>,
    members: Membership,
}

#[derive(Clone)]
struct GenericState {
    members: Vec<ElementId>,
    in_set: Vec<bool>,
    value: f64,
    bound: Vec<f64>,
    stamp: Vec<u64>,
    version: u64,
}

// ---------------------------------------------------------------------------
// Modular
// ---------------------------------------------------------------------------

/// O(1)-everything oracle for [`ModularFunction`].
///
/// Weights read from the wrapped function's slice until the first
/// [`IncrementalOracle::try_set_weight`] (the dynamic-session weight
/// perturbation), which copies them into a session-local override —
/// copy-on-write, so greedy-style consumers keep the zero-copy borrow.
#[derive(Debug, Clone)]
pub struct ModularOracle<'a> {
    f: &'a ModularFunction,
    /// Session-local weight override; empty until the first
    /// `try_set_weight`.
    own: Vec<f64>,
    members: Membership,
    value: f64,
}

impl<'a> ModularOracle<'a> {
    /// Oracle over the empty set.
    pub fn new(f: &'a ModularFunction) -> Self {
        Self {
            f,
            own: Vec::new(),
            members: Membership::new(f.ground_size()),
            value: 0.0,
        }
    }

    /// The effective weights: the override when one exists, the wrapped
    /// function's otherwise.
    #[inline]
    fn weights(&self) -> &[f64] {
        if self.own.is_empty() {
            self.f.weights()
        } else {
            &self.own
        }
    }
}

impl IncrementalOracle for ModularOracle<'_> {
    fn ground_size(&self) -> usize {
        self.f.ground_size()
    }

    fn len(&self) -> usize {
        self.members.size
    }

    fn contains(&self, u: ElementId) -> bool {
        self.members.contains(u)
    }

    fn value(&self) -> f64 {
        self.value
    }

    fn marginal(&self, u: ElementId) -> f64 {
        self.weights()[u as usize]
    }

    fn marginal_bounds(&self, out: &mut [f64]) {
        out.copy_from_slice(self.weights());
    }

    fn pair_marginal(&self, u: ElementId, v: ElementId) -> f64 {
        self.weights()[u as usize] + self.weights()[v as usize]
    }

    fn swap_gain(&self, u: ElementId, v: ElementId) -> f64 {
        self.weights()[u as usize] - self.weights()[v as usize]
    }

    fn insert(&mut self, u: ElementId) {
        self.members.insert(u);
        self.value += self.weights()[u as usize];
    }

    fn remove(&mut self, u: ElementId) {
        self.members.remove(u);
        self.value -= self.weights()[u as usize];
    }

    fn supports_weight_updates(&self) -> bool {
        true
    }

    fn try_set_weight(&mut self, u: ElementId, value: f64) -> Option<f64> {
        assert!(
            value.is_finite() && value >= 0.0,
            "weight of element {u} must be finite and non-negative, got {value}"
        );
        if self.own.is_empty() {
            self.own = self.f.weights().to_vec();
        }
        let old = std::mem::replace(&mut self.own[u as usize], value);
        if self.members.contains(u) {
            self.value += value - old;
        }
        Some(old)
    }

    fn swap_gains_are_membership_independent(&self) -> bool {
        // swap_gain(u, v) = w(u) − w(v) regardless of S.
        true
    }

    fn save_state(&self) -> OracleState {
        OracleState::new(ModularState {
            own: self.own.clone(),
            members: self.members.clone(),
            value: self.value,
        })
    }

    fn restore_state(&mut self, state: &OracleState) {
        let s: &ModularState = state.downcast();
        self.own.clone_from(&s.own);
        self.members.clone_from(&s.members);
        self.value = s.value;
    }
}

// ---------------------------------------------------------------------------
// Zero
// ---------------------------------------------------------------------------

/// Trivial oracle for [`ZeroFunction`] (keeps the pure-dispersion greedy
/// free of oracle overhead).
#[derive(Debug, Clone)]
pub struct ZeroOracle {
    members: Membership,
}

impl ZeroOracle {
    /// Oracle over the empty set.
    pub fn new(f: &ZeroFunction) -> Self {
        Self {
            members: Membership::new(f.ground_size()),
        }
    }
}

impl IncrementalOracle for ZeroOracle {
    fn ground_size(&self) -> usize {
        self.members.in_set.len()
    }

    fn len(&self) -> usize {
        self.members.size
    }

    fn contains(&self, u: ElementId) -> bool {
        self.members.contains(u)
    }

    fn value(&self) -> f64 {
        0.0
    }

    fn marginal(&self, _u: ElementId) -> f64 {
        0.0
    }

    fn pair_marginal(&self, _u: ElementId, _v: ElementId) -> f64 {
        0.0
    }

    fn swap_gain(&self, _u: ElementId, _v: ElementId) -> f64 {
        0.0
    }

    fn insert(&mut self, u: ElementId) {
        self.members.insert(u);
    }

    fn remove(&mut self, u: ElementId) {
        self.members.remove(u);
    }

    fn swap_gains_are_membership_independent(&self) -> bool {
        true
    }

    fn save_state(&self) -> OracleState {
        OracleState::new(ZeroState {
            members: self.members.clone(),
        })
    }

    fn restore_state(&mut self, state: &OracleState) {
        let s: &ZeroState = state.downcast();
        self.members.clone_from(&s.members);
    }
}

// ---------------------------------------------------------------------------
// Coverage
// ---------------------------------------------------------------------------

/// Coverage oracle: maintains per-topic cover counts and, through an
/// inverted topic→elements index, the exact marginal of *every* element.
///
/// `insert`/`remove` touch only the elements covering topics whose covered
/// state flipped — `O(Σ_{flipped t} degree(t))` — and `marginal` is an O(1)
/// array read.
#[derive(Debug, Clone)]
pub struct CoverageOracle<'a> {
    f: &'a CoverageFunction,
    members: Membership,
    /// `count[t]` = number of members covering topic `t`.
    count: Vec<u32>,
    /// `cache[u]` = exact marginal `f_u(S)`.
    cache: Vec<f64>,
    /// `inv[t]` = elements covering topic `t`.
    inv: Vec<Vec<ElementId>>,
    value: f64,
    /// Scan-cost hint: 1 + 2·(mean cover size), fixed at construction.
    cost_hint: usize,
}

impl<'a> CoverageOracle<'a> {
    /// Oracle over the empty set. O(total cover size) setup.
    pub fn new(f: &'a CoverageFunction) -> Self {
        let n = f.ground_size();
        let t = f.num_topics();
        let mut inv: Vec<Vec<ElementId>> = vec![Vec::new(); t];
        let mut cache = vec![0.0; n];
        let mut total_cover = 0usize;
        for (u, slot) in cache.iter_mut().enumerate() {
            for &topic in f.covered_by(u as ElementId) {
                inv[topic as usize].push(u as ElementId);
                *slot += f.topic_weight(topic);
            }
            total_cover += f.covered_by(u as ElementId).len();
        }
        Self {
            f,
            members: Membership::new(n),
            count: vec![0; t],
            cache,
            inv,
            value: 0.0,
            // One swap-gain read walks cov(u) + cov(v) with binary
            // searches; 2·mean-cover (+1 so it never hits zero) tracks it.
            cost_hint: 1 + 2 * total_cover / n.max(1),
        }
    }

    /// `true` iff sorted cover list of `x` contains `t` (binary search —
    /// cover lists are sorted and deduplicated at construction).
    fn covers(&self, x: ElementId, t: u32) -> bool {
        self.f.covered_by(x).binary_search(&t).is_ok()
    }
}

impl IncrementalOracle for CoverageOracle<'_> {
    fn ground_size(&self) -> usize {
        self.cache.len()
    }

    fn len(&self) -> usize {
        self.members.size
    }

    fn contains(&self, u: ElementId) -> bool {
        self.members.contains(u)
    }

    fn value(&self) -> f64 {
        self.value
    }

    fn marginal(&self, u: ElementId) -> f64 {
        self.cache[u as usize]
    }

    fn pair_marginal(&self, u: ElementId, v: ElementId) -> f64 {
        debug_assert!(u != v);
        let mut total = 0.0;
        for &t in self.f.covered_by(u) {
            if self.count[t as usize] == 0 {
                total += self.f.topic_weight(t);
            }
        }
        for &t in self.f.covered_by(v) {
            if self.count[t as usize] == 0 && !self.covers(u, t) {
                total += self.f.topic_weight(t);
            }
        }
        total
    }

    fn swap_gain(&self, u: ElementId, v: ElementId) -> f64 {
        debug_assert!(self.contains(v) && !self.contains(u));
        let mut gain = 0.0;
        // Topics newly covered: uncovered before the swap and covered by u
        // (a topic covered only by v and re-covered by u nets zero).
        for &t in self.f.covered_by(u) {
            if self.count[t as usize] == 0 {
                gain += self.f.topic_weight(t);
            }
        }
        // Topics lost when v leaves and u does not replace it.
        for &t in self.f.covered_by(v) {
            if self.count[t as usize] == 1 && !self.covers(u, t) {
                gain -= self.f.topic_weight(t);
            }
        }
        gain
    }

    fn insert(&mut self, u: ElementId) {
        self.members.insert(u);
        for &t in self.f.covered_by(u) {
            let c = &mut self.count[t as usize];
            *c += 1;
            if *c == 1 {
                let w = self.f.topic_weight(t);
                self.value += w;
                for &x in &self.inv[t as usize] {
                    self.cache[x as usize] -= w;
                }
            }
        }
    }

    fn remove(&mut self, u: ElementId) {
        self.members.remove(u);
        for &t in self.f.covered_by(u) {
            let c = &mut self.count[t as usize];
            *c -= 1;
            if *c == 0 {
                let w = self.f.topic_weight(t);
                self.value -= w;
                for &x in &self.inv[t as usize] {
                    self.cache[x as usize] += w;
                }
            }
        }
    }

    fn scan_cost_hint(&self) -> usize {
        self.cost_hint
    }

    fn save_state(&self) -> OracleState {
        OracleState::new(CoverageState {
            members: self.members.clone(),
            count: self.count.clone(),
            cache: self.cache.clone(),
            value: self.value,
        })
    }

    fn restore_state(&mut self, state: &OracleState) {
        let s: &CoverageState = state.downcast();
        self.members.clone_from(&s.members);
        self.count.clone_from(&s.count);
        self.cache.clone_from(&s.cache);
        self.value = s.value;
    }
}

// ---------------------------------------------------------------------------
// Facility location
// ---------------------------------------------------------------------------

/// Facility-location oracle: maintains per-client best / second-best served
/// similarity (plus the providing element) and the exact marginal of every
/// element.
///
/// `insert` costs `O(n)` per client whose best similarity improves;
/// `remove` rescans members for clients that lose their top-2 provider;
/// `marginal` is an O(1) read and `swap_gain` is one `O(#clients)` sweep
/// (versus `O(#clients · |S|)` through the value oracle).
#[derive(Debug, Clone)]
pub struct FacilityOracle<'a> {
    f: &'a FacilityLocationFunction,
    members: Membership,
    member_list: Vec<ElementId>,
    /// Best served similarity per client (0 for the empty set).
    best: Vec<f64>,
    /// Member providing `best`, `u32::MAX` when none.
    provider: Vec<ElementId>,
    /// Best similarity over `S` minus the provider (0 when |S| ≤ 1).
    second: Vec<f64>,
    /// `cache[u]` = exact marginal `f_u(S)`.
    cache: Vec<f64>,
    value: f64,
}

const NO_PROVIDER: ElementId = ElementId::MAX;

/// Chunk width of the branchless [`FacilityOracle::shift_client`] sweep
/// (8 f64 lanes; see the matching constant on `DistanceMatrix`'s row
/// kernel in `msd-metric`).
const SHIFT_LANES: usize = 8;

impl<'a> FacilityOracle<'a> {
    /// Oracle over the empty set. O(#clients · n) setup.
    pub fn new(f: &'a FacilityLocationFunction) -> Self {
        let n = f.ground_size();
        let c = f.num_clients();
        let mut cache = vec![0.0; n];
        for client in 0..c {
            let w = f.client_weight(client);
            let row = f.sim_row(client);
            for (u, &s) in row.iter().enumerate() {
                cache[u] += w * s;
            }
        }
        Self {
            f,
            members: Membership::new(n),
            member_list: Vec::new(),
            best: vec![0.0; c],
            provider: vec![NO_PROVIDER; c],
            second: vec![0.0; c],
            cache,
            value: 0.0,
        }
    }

    /// Applies the cache delta for client `client` whose best similarity
    /// moves from `old` to `new`.
    ///
    /// This is the facility oracle's hot row sweep — O(n) per client whose
    /// best provider changes, executed on every insert/remove. The walk is
    /// branchless (`(s − old)⁺ − (s − new)⁺` is 0 for untouched elements,
    /// and `x + w·0 == x`) and runs as fixed [`SHIFT_LANES`]-wide chunks
    /// over the parallel `row`/`cache` slices with a scalar tail, the
    /// shape LLVM auto-vectorizes; `max(0)` maps to vector-max, so the
    /// chunk body is straight-line SIMD arithmetic. Slice-oracle audits
    /// (including chunk-boundary row lengths) pin the semantics.
    fn shift_client(&mut self, client: usize, old: f64, new: f64) {
        if old == new {
            return;
        }
        let w = self.f.client_weight(client);
        let row = self.f.sim_row(client);
        let cache = &mut self.cache[..row.len()];
        let mut c_chunks = cache.chunks_exact_mut(SHIFT_LANES);
        let mut r_chunks = row.chunks_exact(SHIFT_LANES);
        for (c, r) in (&mut c_chunks).zip(&mut r_chunks) {
            for k in 0..SHIFT_LANES {
                let before = (r[k] - old).max(0.0);
                let after = (r[k] - new).max(0.0);
                c[k] += w * (after - before);
            }
        }
        for (c, &s) in c_chunks
            .into_remainder()
            .iter_mut()
            .zip(r_chunks.remainder())
        {
            let before = (s - old).max(0.0);
            let after = (s - new).max(0.0);
            *c += w * (after - before);
        }
    }

    /// Recomputes best/second/provider for `client` by scanning members.
    fn rescan_client(&mut self, client: usize) {
        let row = self.f.sim_row(client);
        let (mut best, mut second, mut provider) = (0.0_f64, 0.0_f64, NO_PROVIDER);
        for &m in &self.member_list {
            let s = row[m as usize];
            if s > best {
                second = best;
                best = s;
                provider = m;
            } else if s > second {
                second = s;
            }
        }
        self.best[client] = best;
        self.second[client] = second;
        self.provider[client] = provider;
    }
}

impl IncrementalOracle for FacilityOracle<'_> {
    fn ground_size(&self) -> usize {
        self.cache.len()
    }

    fn len(&self) -> usize {
        self.members.size
    }

    fn contains(&self, u: ElementId) -> bool {
        self.members.contains(u)
    }

    fn value(&self) -> f64 {
        self.value
    }

    fn marginal(&self, u: ElementId) -> f64 {
        self.cache[u as usize]
    }

    fn pair_marginal(&self, u: ElementId, v: ElementId) -> f64 {
        debug_assert!(u != v);
        let mut total = 0.0;
        for client in 0..self.best.len() {
            let row = self.f.sim_row(client);
            let best = self.best[client];
            let joint = row[u as usize].max(row[v as usize]);
            if joint > best {
                total += self.f.client_weight(client) * (joint - best);
            }
        }
        total
    }

    fn swap_gain(&self, u: ElementId, v: ElementId) -> f64 {
        debug_assert!(self.contains(v) && !self.contains(u));
        let mut total = 0.0;
        for client in 0..self.best.len() {
            let row = self.f.sim_row(client);
            let without_v = if self.provider[client] == v {
                self.second[client]
            } else {
                self.best[client]
            };
            let new_best = without_v.max(row[u as usize]);
            let delta = new_best - self.best[client];
            if delta != 0.0 {
                total += self.f.client_weight(client) * delta;
            }
        }
        total
    }

    fn insert(&mut self, u: ElementId) {
        self.members.insert(u);
        self.value += self.cache[u as usize];
        self.member_list.push(u);
        for client in 0..self.best.len() {
            let s = self.f.sim_row(client)[u as usize];
            if s > self.best[client] {
                let old = self.best[client];
                self.second[client] = old;
                self.best[client] = s;
                self.provider[client] = u;
                self.shift_client(client, old, s);
            } else if s > self.second[client] {
                self.second[client] = s;
            }
        }
    }

    fn remove(&mut self, u: ElementId) {
        self.members.remove(u);
        let idx = self
            .member_list
            .iter()
            .position(|&x| x == u)
            .expect("member list out of sync");
        self.member_list.swap_remove(idx);
        for client in 0..self.best.len() {
            let s = self.f.sim_row(client)[u as usize];
            // Only clients for which u was (possibly tied for) top-2 can
            // change.
            if self.provider[client] == u || s >= self.second[client] {
                let old = self.best[client];
                self.rescan_client(client);
                let new = self.best[client];
                if new != old {
                    self.value -= self.f.client_weight(client) * (old - new);
                    self.shift_client(client, old, new);
                }
            }
        }
    }

    fn scan_cost_hint(&self) -> usize {
        // One swap-gain read sweeps every client.
        self.best.len().max(1)
    }

    fn save_state(&self) -> OracleState {
        OracleState::new(FacilityState {
            members: self.members.clone(),
            member_list: self.member_list.clone(),
            best: self.best.clone(),
            provider: self.provider.clone(),
            second: self.second.clone(),
            cache: self.cache.clone(),
            value: self.value,
        })
    }

    fn restore_state(&mut self, state: &OracleState) {
        let s: &FacilityState = state.downcast();
        self.members.clone_from(&s.members);
        self.member_list.clone_from(&s.member_list);
        self.best.clone_from(&s.best);
        self.provider.clone_from(&s.provider);
        self.second.clone_from(&s.second);
        self.cache.clone_from(&s.cache);
        self.value = s.value;
    }
}

// ---------------------------------------------------------------------------
// Mixture
// ---------------------------------------------------------------------------

/// Oracle for [`crate::MixtureFunction`]: a weighted composition of its
/// components' oracles, so every query and mutation costs the sum of the
/// component costs (each specialized where possible).
pub struct MixtureOracle<'a> {
    parts: Vec<(f64, Box<dyn IncrementalOracle + 'a>)>,
    members: Membership,
}

impl<'a> MixtureOracle<'a> {
    /// Composes pre-built component oracles (used by
    /// `MixtureFunction::incremental`).
    ///
    /// # Panics
    ///
    /// Panics if a component's ground size differs from `n`.
    pub fn from_parts(n: usize, parts: Vec<(f64, Box<dyn IncrementalOracle + 'a>)>) -> Self {
        for (_, p) in &parts {
            assert_eq!(p.ground_size(), n, "component ground size mismatch");
        }
        Self {
            parts,
            members: Membership::new(n),
        }
    }
}

impl IncrementalOracle for MixtureOracle<'_> {
    fn ground_size(&self) -> usize {
        self.members.in_set.len()
    }

    fn len(&self) -> usize {
        self.members.size
    }

    fn contains(&self, u: ElementId) -> bool {
        self.members.contains(u)
    }

    fn value(&self) -> f64 {
        self.parts.iter().map(|(c, p)| c * p.value()).sum()
    }

    fn marginal(&self, u: ElementId) -> f64 {
        self.parts.iter().map(|(c, p)| c * p.marginal(u)).sum()
    }

    fn marginal_bound(&self, u: ElementId) -> f64 {
        self.parts
            .iter()
            // A zero coefficient must contribute 0 even when the component's
            // lazy bound is still +∞ (0 · ∞ = NaN would poison the whole
            // lazy-greedy scan).
            .map(|(c, p)| {
                if *c == 0.0 {
                    0.0
                } else {
                    c * p.marginal_bound(u)
                }
            })
            .sum()
    }

    fn marginal_is_exact(&self, u: ElementId) -> bool {
        self.parts.iter().all(|(_, p)| p.marginal_is_exact(u))
    }

    fn refresh(&mut self, u: ElementId) -> f64 {
        self.parts.iter_mut().map(|(c, p)| *c * p.refresh(u)).sum()
    }

    fn pair_marginal(&self, u: ElementId, v: ElementId) -> f64 {
        self.parts
            .iter()
            .map(|(c, p)| c * p.pair_marginal(u, v))
            .sum()
    }

    fn swap_gain(&self, u: ElementId, v: ElementId) -> f64 {
        self.parts.iter().map(|(c, p)| c * p.swap_gain(u, v)).sum()
    }

    fn insert(&mut self, u: ElementId) {
        self.members.insert(u);
        for (_, p) in &mut self.parts {
            p.insert(u);
        }
    }

    fn remove(&mut self, u: ElementId) {
        self.members.remove(u);
        for (_, p) in &mut self.parts {
            p.remove(u);
        }
    }

    fn scan_cost_hint(&self) -> usize {
        self.parts
            .iter()
            .map(|(_, p)| p.scan_cost_hint())
            .sum::<usize>()
            .max(1)
    }

    fn supports_weight_updates(&self) -> bool {
        // All-or-nothing so a weight update can never be applied to only
        // some components (mixtures of modular functions support it).
        !self.parts.is_empty() && self.parts.iter().all(|(_, p)| p.supports_weight_updates())
    }

    fn try_set_weight(&mut self, u: ElementId, value: f64) -> Option<f64> {
        if !self.supports_weight_updates() {
            return None;
        }
        let mut old = 0.0;
        for (c, p) in &mut self.parts {
            old += *c
                * p.try_set_weight(u, value)
                    .expect("component advertised weight-update support");
        }
        Some(old)
    }

    fn weight_updates_shift_uniformly(&self) -> bool {
        // A coefficient-weighted sum of uniform row shifts is itself a
        // uniform row shift.
        self.supports_weight_updates()
            && self
                .parts
                .iter()
                .all(|(_, p)| p.weight_updates_shift_uniformly())
    }

    fn swap_gains_are_membership_independent(&self) -> bool {
        // A coefficient-weighted sum of membership-independent gains is
        // itself membership-independent.
        self.parts
            .iter()
            .all(|(_, p)| p.swap_gains_are_membership_independent())
    }

    fn save_state(&self) -> OracleState {
        OracleState::new(MixtureState {
            parts: self.parts.iter().map(|(_, p)| p.save_state()).collect(),
            members: self.members.clone(),
        })
    }

    fn restore_state(&mut self, state: &OracleState) {
        let s: &MixtureState = state.downcast();
        assert_eq!(
            s.parts.len(),
            self.parts.len(),
            "mixture snapshot component count mismatch"
        );
        for ((_, p), part_state) in self.parts.iter_mut().zip(&s.parts) {
            p.restore_state(part_state);
        }
        self.members.clone_from(&s.members);
    }
}

// ---------------------------------------------------------------------------
// Generic fallback
// ---------------------------------------------------------------------------

/// Fallback oracle wrapping any [`SetFunction`] through its value oracle.
///
/// `marginal` delegates to the underlying oracle (`O(cost(f))`), but the
/// oracle additionally maintains *lazy upper bounds*: [`refresh`] caches
/// the exact marginal, and — because `f` is submodular — that cached value
/// remains a valid upper bound as long as `S` only grows. `remove`
/// invalidates all bounds (marginals may increase when the set shrinks).
///
/// **Contract**: the bound semantics (and the lazy-greedy scan built on
/// them) are only sound for submodular `f`. Wrapping a non-submodular
/// function still yields exact `value`/`marginal`/`swap_gain` queries,
/// but `marginal_bound` may under-estimate after insertions.
///
/// [`refresh`]: IncrementalOracle::refresh
#[derive(Debug, Clone)]
pub struct GenericOracle<'a, F: ?Sized> {
    f: &'a F,
    members: Vec<ElementId>,
    in_set: Vec<bool>,
    value: f64,
    /// Last refreshed marginal; `+∞` when never refreshed.
    bound: Vec<f64>,
    /// Version stamp at which `bound[u]` was exact.
    stamp: Vec<u64>,
    version: u64,
}

impl<'a, F: SetFunction + ?Sized> GenericOracle<'a, F> {
    /// Oracle over the empty set.
    pub fn new(f: &'a F) -> Self {
        let n = f.ground_size();
        Self {
            f,
            members: Vec::new(),
            in_set: vec![false; n],
            value: 0.0,
            bound: vec![f64::INFINITY; n],
            stamp: vec![u64::MAX; n],
            version: 0,
        }
    }
}

impl<F: SetFunction + ?Sized> IncrementalOracle for GenericOracle<'_, F> {
    fn ground_size(&self) -> usize {
        self.in_set.len()
    }

    fn len(&self) -> usize {
        self.members.len()
    }

    fn contains(&self, u: ElementId) -> bool {
        self.in_set[u as usize]
    }

    fn value(&self) -> f64 {
        self.value
    }

    fn marginal(&self, u: ElementId) -> f64 {
        self.f.marginal(u, &self.members)
    }

    fn marginal_bound(&self, u: ElementId) -> f64 {
        self.bound[u as usize]
    }

    fn marginal_is_exact(&self, u: ElementId) -> bool {
        self.stamp[u as usize] == self.version
    }

    fn refresh(&mut self, u: ElementId) -> f64 {
        let m = self.f.marginal(u, &self.members);
        self.bound[u as usize] = m;
        self.stamp[u as usize] = self.version;
        m
    }

    fn pair_marginal(&self, u: ElementId, v: ElementId) -> f64 {
        debug_assert!(u != v && !self.contains(u) && !self.contains(v));
        let mut with: Vec<ElementId> = Vec::with_capacity(self.members.len() + 2);
        with.extend_from_slice(&self.members);
        with.push(u);
        with.push(v);
        self.f.value(&with) - self.value
    }

    fn swap_gain(&self, u: ElementId, v: ElementId) -> f64 {
        self.f.swap_gain(u, v, &self.members)
    }

    fn insert(&mut self, u: ElementId) {
        assert!(
            !self.in_set[u as usize],
            "element {u} already in oracle set"
        );
        self.value += self.refresh(u);
        self.in_set[u as usize] = true;
        self.members.push(u);
        // Bounds cached for smaller sets stay valid upper bounds
        // (submodularity); only the exactness stamps expire.
        self.version += 1;
    }

    fn remove(&mut self, u: ElementId) {
        assert!(self.in_set[u as usize], "element {u} not in oracle set");
        self.in_set[u as usize] = false;
        let idx = self
            .members
            .iter()
            .position(|&x| x == u)
            .expect("member list out of sync");
        self.members.swap_remove(idx);
        self.value = self.f.value(&self.members);
        // Marginals can grow when the set shrinks: all bounds are invalid.
        self.bound.fill(f64::INFINITY);
        self.version += 1;
    }

    fn scan_cost_hint(&self) -> usize {
        // Exact reads re-evaluate the wrapped value oracle over slices of
        // the current set; the ground size is the only structure-free
        // proxy for that cost.
        self.in_set.len().max(1)
    }

    fn save_state(&self) -> OracleState {
        OracleState::new(GenericState {
            members: self.members.clone(),
            in_set: self.in_set.clone(),
            value: self.value,
            bound: self.bound.clone(),
            stamp: self.stamp.clone(),
            version: self.version,
        })
    }

    fn restore_state(&mut self, state: &OracleState) {
        let s: &GenericState = state.downcast();
        self.members.clone_from(&s.members);
        self.in_set.clone_from(&s.in_set);
        self.value = s.value;
        self.bound.clone_from(&s.bound);
        self.stamp.clone_from(&s.stamp);
        self.version = s.version;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MixtureFunction;

    fn coverage() -> CoverageFunction {
        CoverageFunction::new(
            vec![
                vec![0, 1],
                vec![1, 2],
                vec![3],
                vec![0, 1, 2, 3],
                vec![],
                vec![2, 4],
            ],
            vec![1.0, 2.0, 4.0, 8.0, 16.0],
        )
    }

    fn facility() -> FacilityLocationFunction {
        FacilityLocationFunction::new(
            vec![
                vec![1.0, 0.2, 0.0, 0.7, 0.7],
                vec![0.1, 0.9, 0.3, 0.9, 0.2],
                vec![0.0, 0.4, 0.8, 0.1, 0.6],
            ],
            vec![1.0, 2.0, 1.5],
        )
    }

    /// Drives `oracle` through a scripted insert/remove sequence, checking
    /// every query against the slice-based ground truth after each step.
    fn audit_against_slices<F: SetFunction>(f: &F, oracle: &mut dyn IncrementalOracle) {
        let n = f.ground_size();
        let script: Vec<(bool, ElementId)> = vec![
            (true, 0),
            (true, 3),
            (true, 1),
            (false, 3),
            (true, 5 % n as ElementId),
            (false, 0),
            (true, 2),
        ];
        let mut mirror: Vec<ElementId> = Vec::new();
        for (add, u) in script {
            if u as usize >= n {
                continue;
            }
            if add {
                if mirror.contains(&u) {
                    continue;
                }
                oracle.insert(u);
                mirror.push(u);
            } else {
                if !mirror.contains(&u) {
                    continue;
                }
                oracle.remove(u);
                mirror.retain(|&x| x != u);
            }
            assert_eq!(oracle.len(), mirror.len());
            assert!(
                (oracle.value() - f.value(&mirror)).abs() < 1e-9,
                "value drifted after {:?}",
                (add, u)
            );
            for x in 0..n as ElementId {
                assert_eq!(oracle.contains(x), mirror.contains(&x));
                if !mirror.contains(&x) {
                    let expected = f.marginal(x, &mirror);
                    assert!(
                        (oracle.marginal(x) - expected).abs() < 1e-9,
                        "marginal({x}) = {} expected {expected} after {:?}",
                        oracle.marginal(x),
                        (add, u)
                    );
                    assert!(oracle.marginal_bound(x) >= expected - 1e-9);
                    for &v in &mirror {
                        let expected = f.swap_gain(x, v, &mirror);
                        assert!(
                            (oracle.swap_gain(x, v) - expected).abs() < 1e-9,
                            "swap_gain({x},{v}) drifted"
                        );
                    }
                    for y in 0..n as ElementId {
                        if y != x && !mirror.contains(&y) {
                            let mut with = mirror.clone();
                            with.push(x);
                            with.push(y);
                            let expected = f.value(&with) - f.value(&mirror);
                            assert!(
                                (oracle.pair_marginal(x, y) - expected).abs() < 1e-9,
                                "pair_marginal({x},{y}) drifted"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn modular_oracle_matches_slices() {
        let f = ModularFunction::new(vec![0.5, 2.0, 0.0, 3.25, 1.0, 0.75]);
        audit_against_slices(&f, &mut ModularOracle::new(&f));
    }

    #[test]
    fn coverage_oracle_matches_slices() {
        let f = coverage();
        audit_against_slices(&f, &mut CoverageOracle::new(&f));
    }

    #[test]
    fn facility_oracle_matches_slices() {
        let f = facility();
        audit_against_slices(&f, &mut FacilityOracle::new(&f));
    }

    #[test]
    fn facility_shift_kernel_matches_slices_across_chunk_boundaries() {
        // Ground sizes straddling the SHIFT_LANES chunking: one full chunk
        // exactly, odd tails, and sub-chunk rows. Every insert/remove runs
        // shift_client over rows of these lengths; the marginals must stay
        // equal to the slice-recomputed ground truth.
        for n in [3usize, 8, 9, 16, 21, 27] {
            let clients = n / 2 + 2;
            let sim: Vec<Vec<f64>> = (0..clients)
                .map(|c| {
                    (0..n)
                        .map(|u| ((c * 31 + u * 17) % 97) as f64 / 97.0)
                        .collect()
                })
                .collect();
            let weights: Vec<f64> = (0..clients).map(|c| 0.5 + (c % 5) as f64 * 0.3).collect();
            let f = FacilityLocationFunction::new(sim, weights);
            let mut oracle = FacilityOracle::new(&f);
            let mut mirror: Vec<ElementId> = Vec::new();
            let script: Vec<ElementId> = (0..n as ElementId)
                .chain([0, (n / 2) as ElementId])
                .collect();
            for u in script {
                if mirror.contains(&u) {
                    oracle.remove(u);
                    mirror.retain(|&x| x != u);
                } else {
                    oracle.insert(u);
                    mirror.push(u);
                }
                assert!(
                    (oracle.value() - f.value(&mirror)).abs() < 1e-9,
                    "n={n}: value drifted after touching {u}"
                );
                for x in 0..n as ElementId {
                    if !mirror.contains(&x) {
                        let expected = f.marginal(x, &mirror);
                        assert!(
                            (oracle.marginal(x) - expected).abs() < 1e-9,
                            "n={n}: marginal({x}) = {} expected {expected}",
                            oracle.marginal(x)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_oracle_matches_slices() {
        let f = ZeroFunction::new(6);
        audit_against_slices(&f, &mut ZeroOracle::new(&f));
    }

    #[test]
    fn generic_oracle_matches_slices() {
        let f = coverage();
        audit_against_slices(&f, &mut GenericOracle::new(&f));
    }

    #[test]
    fn mixture_oracle_matches_slices() {
        let f = MixtureFunction::new(6)
            .with(
                0.5,
                ModularFunction::new(vec![1.0, 0.0, 2.0, 0.5, 1.5, 0.25]),
            )
            .with(2.0, coverage());
        audit_against_slices(&f, &mut *f.incremental());
    }

    #[test]
    fn dispatch_picks_specialized_oracles() {
        // Via SetFunction::incremental the structured functions return
        // their O(1)-read oracles; behaviourally indistinguishable, so just
        // audit through the trait hook.
        let cov = coverage();
        audit_against_slices(&cov, &mut *cov.incremental());
        let fac = facility();
        audit_against_slices(&fac, &mut *fac.incremental());
        let z = ZeroFunction::new(5);
        audit_against_slices(&z, &mut *z.incremental());
    }

    #[test]
    fn zero_coefficient_mixture_component_keeps_bounds_finite() {
        // A 0-weighted component with an unrefreshed generic bound (+∞)
        // must not turn the mixture bound into NaN (0 · ∞).
        struct Opaque(usize);
        impl SetFunction for Opaque {
            fn ground_size(&self) -> usize {
                self.0
            }
            fn value(&self, set: &[ElementId]) -> f64 {
                set.len() as f64
            }
        }
        let f = MixtureFunction::new(4)
            .with(1.0, ModularFunction::new(vec![1.0, 2.0, 3.0, 4.0]))
            .with(0.0, Opaque(4));
        let oracle = f.incremental();
        for u in 0..4 {
            let bound = oracle.marginal_bound(u);
            assert!(bound.is_finite(), "bound({u}) = {bound}");
            assert!(bound >= oracle.marginal(u) - 1e-12);
        }
    }

    #[test]
    fn incremental_from_seeds_the_set() {
        let f = coverage();
        let oracle = f.incremental_from(&[1, 3]);
        assert_eq!(oracle.len(), 2);
        assert!(oracle.contains(1) && oracle.contains(3));
        assert!((oracle.value() - f.value(&[1, 3])).abs() < 1e-12);
    }

    #[test]
    fn generic_bounds_are_lazy_and_tighten_on_refresh() {
        let f = coverage();
        let mut o = GenericOracle::new(&f);
        assert!(o.marginal_bound(0).is_infinite());
        assert!(!o.marginal_is_exact(0));
        let exact = o.refresh(0);
        assert!(o.marginal_is_exact(0));
        assert_eq!(o.marginal_bound(0), exact);
        // Growing the set keeps the bound valid but stale.
        o.insert(3);
        assert!(!o.marginal_is_exact(0));
        assert!(o.marginal_bound(0) >= o.marginal(0));
        // Shrinking invalidates.
        o.remove(3);
        assert!(o.marginal_bound(0).is_infinite());
    }

    #[test]
    fn save_restore_round_trips_bit_exactly() {
        // Snapshot → further mutations → restore must reproduce the
        // saved value, membership, and every marginal with == equality
        // (the SessionCheckpoint contract), across all oracle families.
        let cov = coverage();
        let fac = facility();
        let modular = ModularFunction::new(vec![0.5, 2.0, 0.0, 3.25, 1.0, 0.75]);
        let mix = MixtureFunction::new(6)
            .with(0.5, modular.clone())
            .with(2.0, coverage());
        let zero = ZeroFunction::new(6);
        let mut oracles: Vec<Box<dyn IncrementalOracle + '_>> = vec![
            cov.incremental(),
            fac.incremental(),
            modular.incremental(),
            mix.incremental(),
            Box::new(GenericOracle::new(&cov)),
            Box::new(ZeroOracle::new(&zero)),
        ];
        for oracle in &mut oracles {
            let n = oracle.ground_size() as ElementId;
            oracle.insert(1);
            oracle.insert(3);
            if oracle.supports_weight_updates() {
                oracle.try_set_weight(3, 9.5);
            }
            let saved = oracle.save_state();
            let value = oracle.value();
            let marginals: Vec<f64> = (0..n).map(|u| oracle.marginal(u)).collect();
            let members: Vec<bool> = (0..n).map(|u| oracle.contains(u)).collect();
            // Diverge: swap membership around, poke weights.
            oracle.remove(3);
            oracle.insert(0);
            oracle.insert(4);
            if oracle.supports_weight_updates() {
                oracle.try_set_weight(0, 0.125);
            }
            oracle.restore_state(&saved);
            assert_eq!(oracle.len(), 2);
            assert!(oracle.value() == value, "value not bit-identical");
            for u in 0..n {
                assert!(
                    oracle.marginal(u) == marginals[u as usize],
                    "marginal({u}) not bit-identical after restore"
                );
                assert_eq!(oracle.contains(u), members[u as usize]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match this oracle type")]
    fn restore_rejects_foreign_snapshots() {
        let cov = coverage();
        let mut o = cov.incremental();
        let zero = ZeroOracle::new(&ZeroFunction::new(6)).save_state();
        o.restore_state(&zero);
    }

    #[test]
    fn modular_weight_updates_repair_value_and_marginals() {
        let f = ModularFunction::new(vec![1.0, 2.0, 3.0, 4.0]);
        let mut o = f.incremental_from(&[1, 3]);
        assert!(o.supports_weight_updates());
        // Member weight update shifts the value; outsider update does not.
        assert_eq!(o.try_set_weight(3, 10.0), Some(4.0));
        assert_eq!(o.value(), 12.0);
        assert_eq!(o.try_set_weight(0, 7.0), Some(1.0));
        assert_eq!(o.value(), 12.0);
        assert_eq!(o.marginal(0), 7.0);
        assert_eq!(o.swap_gain(0, 1), 5.0);
    }

    #[test]
    fn weight_updates_are_unsupported_off_the_modular_family() {
        let cov = coverage();
        let mut o = cov.incremental();
        assert!(!o.supports_weight_updates());
        assert_eq!(o.try_set_weight(0, 1.0), None);
        let fac = facility();
        assert!(!fac.incremental().supports_weight_updates());
        // Mixtures forward all-or-nothing: one non-modular part disables.
        let mix = MixtureFunction::new(6)
            .with(1.0, ModularFunction::uniform(6, 1.0))
            .with(1.0, coverage());
        assert!(!mix.incremental().supports_weight_updates());
        let modular_mix = MixtureFunction::new(4)
            .with(2.0, ModularFunction::new(vec![1.0, 2.0, 3.0, 4.0]))
            .with(0.5, ModularFunction::uniform(4, 2.0));
        let mut o = modular_mix.incremental();
        assert!(o.supports_weight_updates());
        // Previous effective weight: 2.0·2.0 + 0.5·2.0 = 5.0.
        assert_eq!(o.try_set_weight(1, 6.0), Some(5.0));
        assert_eq!(o.marginal(1), 2.5 * 6.0);
    }

    #[test]
    fn weight_update_uniformity_tracks_the_modular_family() {
        // The candidate-cache validity hint: modular-family oracles shift
        // an element's whole gain row uniformly on try_set_weight; oracles
        // without weight updates report false (nothing to preserve).
        let modular = ModularFunction::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert!(modular.incremental().weight_updates_shift_uniformly());
        let cov = coverage();
        assert!(!cov.incremental().weight_updates_shift_uniformly());
        let modular_mix = MixtureFunction::new(4)
            .with(2.0, ModularFunction::new(vec![1.0, 2.0, 3.0, 4.0]))
            .with(0.5, ModularFunction::uniform(4, 2.0));
        assert!(modular_mix.incremental().weight_updates_shift_uniformly());
        let mixed = MixtureFunction::new(6)
            .with(1.0, ModularFunction::uniform(6, 1.0))
            .with(1.0, coverage());
        assert!(!mixed.incremental().weight_updates_shift_uniformly());
        // And the claim itself: a modular try_set_weight moves every swap
        // gain involving the element by the same delta.
        let f = ModularFunction::new(vec![1.0, 2.0, 3.0, 4.0]);
        let mut o = f.incremental_from(&[2]);
        let before: Vec<f64> = [0u32, 1, 3].iter().map(|&v| o.swap_gain(v, 2)).collect();
        o.try_set_weight(2, 5.5);
        for (i, &v) in [0u32, 1, 3].iter().enumerate() {
            assert!((o.swap_gain(v, 2) - (before[i] - 2.5)).abs() < 1e-12);
        }
    }

    #[test]
    fn swap_gain_membership_independence_tracks_the_modular_family() {
        // The cache-across-swaps validity hint: modular-family swap gains
        // are w(u) − w(v) regardless of S; coverage / facility / generic
        // gains interact with the set and must stay conservative.
        let modular = ModularFunction::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert!(modular
            .incremental()
            .swap_gains_are_membership_independent());
        assert!(ZeroFunction::new(4)
            .incremental()
            .swap_gains_are_membership_independent());
        let cov = coverage();
        assert!(!cov.incremental().swap_gains_are_membership_independent());
        assert!(!facility()
            .incremental()
            .swap_gains_are_membership_independent());
        assert!(!GenericOracle::new(&cov).swap_gains_are_membership_independent());
        let modular_mix = MixtureFunction::new(4)
            .with(2.0, ModularFunction::new(vec![1.0, 2.0, 3.0, 4.0]))
            .with(0.5, ModularFunction::uniform(4, 2.0));
        assert!(modular_mix
            .incremental()
            .swap_gains_are_membership_independent());
        let mixed = MixtureFunction::new(6)
            .with(1.0, ModularFunction::uniform(6, 1.0))
            .with(1.0, coverage());
        assert!(!mixed.incremental().swap_gains_are_membership_independent());
        // And the claim itself: the modular swap gain is the same for
        // every carrier set.
        let mut o = modular.incremental_from(&[2]);
        let g = o.swap_gain(0, 2);
        o.insert(3);
        assert_eq!(o.swap_gain(0, 2), g);
    }

    /// Asserts `swap_gain(u, v) = marginal(u) − marginal(v)` within 1e-12
    /// relative for every outsider `u` and member `v`, after each step of
    /// a scripted insert/remove sequence.
    fn assert_gains_are_marginal_differences(label: &str, oracle: &mut dyn IncrementalOracle) {
        assert!(oracle.swap_gains_are_membership_independent(), "{label}");
        let n = oracle.ground_size() as ElementId;
        let script: [(bool, ElementId); 5] =
            [(true, 1), (true, 4), (true, 0), (false, 4), (true, 2)];
        for (insert, x) in script {
            if insert {
                oracle.insert(x);
            } else {
                oracle.remove(x);
            }
            for v in (0..n).filter(|&v| oracle.contains(v)) {
                for u in (0..n).filter(|&u| !oracle.contains(u)) {
                    let (mu, mv) = (oracle.marginal(u), oracle.marginal(v));
                    let gap = (oracle.swap_gain(u, v) - (mu - mv)).abs();
                    assert!(
                        gap <= 1e-12 * (mu.abs() + mv.abs()),
                        "{label}: swap_gain({u}, {v}) is {gap} off marginal({u}) − marginal({v})"
                    );
                }
            }
        }
    }

    #[test]
    fn membership_independent_swap_gains_are_marginal_differences() {
        // The identity behind the local search's row bound, members'
        // marginals included: every oracle that reports membership-
        // independent swap gains.
        let weights = vec![
            1e8,
            1e8 + 2.0 * f64::EPSILON * 1e8,
            0.3,
            1e8 - f64::EPSILON * 1e8,
            7.25,
            0.0,
        ];
        let modular = ModularFunction::new(weights.clone());
        assert_gains_are_marginal_differences("modular", &mut *modular.incremental());
        assert_gains_are_marginal_differences("zero", &mut *ZeroFunction::new(6).incremental());
        let mixture = MixtureFunction::new(6)
            .with(0.7, ModularFunction::new(weights.clone()))
            .with(
                1.3,
                ModularFunction::new(vec![0.1, 2.0, 1e8, 0.0, 3.5, 1e-3]),
            )
            .with(0.2, ZeroFunction::new(6));
        assert_gains_are_marginal_differences("modular mixture", &mut *mixture.incremental());
        let mut shared = crate::SharedModularOracle::new(weights.into());
        shared.try_set_weight(2, 1e8 + 1.0);
        shared.try_set_weight(5, 0.125);
        assert_gains_are_marginal_differences("shared modular", &mut shared);
        let mut view: crate::RestrictedOracle<_, dyn IncrementalOracle + '_> =
            crate::RestrictedOracle::new(mixture.incremental(), vec![5, 0, 3, 2, 1]);
        assert_gains_are_marginal_differences("restricted mixture view", &mut view);
    }

    /// Asserts that the batched `marginal_bounds` equals the per-element
    /// `marginal_bound(u)` bit for bit, and equals `marginal(u)` wherever
    /// the oracle claims membership-independent swap gains (the local
    /// search's row pass reads the batch as exact marginals there).
    fn assert_batched_bounds(label: &str, oracle: &dyn IncrementalOracle) {
        let n = oracle.ground_size();
        let mut out = vec![f64::NAN; n];
        oracle.marginal_bounds(&mut out);
        let exact = oracle.swap_gains_are_membership_independent();
        for (u, &b) in out.iter().enumerate() {
            let u = u as ElementId;
            assert_eq!(
                b.to_bits(),
                oracle.marginal_bound(u).to_bits(),
                "{label}: batched bound of {u}"
            );
            if exact {
                assert_eq!(
                    b.to_bits(),
                    oracle.marginal(u).to_bits(),
                    "{label}: bound of {u} is not the exact marginal"
                );
            }
        }
    }

    /// [`assert_batched_bounds`] on the empty set, then after each insert
    /// of `members`.
    fn assert_batched_bounds_while_growing(
        label: &str,
        oracle: &mut dyn IncrementalOracle,
        members: &[ElementId],
    ) {
        assert_batched_bounds(&format!("{label} ∅"), oracle);
        for (k, &u) in members.iter().enumerate() {
            oracle.insert(u);
            assert_batched_bounds(&format!("{label} |S| = {}", k + 1), oracle);
        }
    }

    #[test]
    fn batched_bounds_match_per_element_reads() {
        let weights = vec![0.5, 2.0, 0.0, 3.25, 1.0, 0.75];
        let modular = ModularFunction::new(weights.clone());
        assert_batched_bounds_while_growing("modular", &mut *modular.incremental(), &[3, 0]);
        let mut overridden = modular.incremental();
        overridden.try_set_weight(4, 9.5);
        assert_batched_bounds_while_growing("modular override", &mut *overridden, &[4, 1]);

        let mut shared = crate::SharedModularOracle::new(weights.clone().into());
        assert_batched_bounds("shared modular", &shared);
        shared.try_set_weight(2, 0.125);
        shared.try_set_weight(5, 4.0);
        assert_batched_bounds_while_growing("shared modular deltas", &mut shared, &[5, 2]);

        let zero = ZeroFunction::new(6);
        assert_batched_bounds_while_growing("zero", &mut *zero.incremental(), &[1, 2]);
        let cov = coverage();
        assert_batched_bounds_while_growing("coverage", &mut *cov.incremental(), &[3, 1, 5]);
        let fac = facility();
        assert_batched_bounds_while_growing("facility", &mut *fac.incremental(), &[0, 2]);

        let modular_mix = MixtureFunction::new(6)
            .with(0.7, modular.clone())
            .with(0.0, ModularFunction::new(vec![1.0; 6]))
            .with(1.3, ZeroFunction::new(6));
        assert_batched_bounds_while_growing(
            "modular mixture",
            &mut *modular_mix.incremental(),
            &[2, 4],
        );
        // A zero-coefficient generic component whose bounds are still +∞.
        let lazy_mix = MixtureFunction::new(6)
            .with(1.0, modular.clone())
            .with(0.0, crate::CountingOracle::new(coverage()))
            .with(0.5, coverage());
        assert_batched_bounds_while_growing("lazy mixture", &mut *lazy_mix.incremental(), &[1]);

        let mut view: crate::RestrictedOracle<_, dyn IncrementalOracle + '_> =
            crate::RestrictedOracle::new(modular_mix.incremental(), vec![5, 0, 3, 2]);
        assert_batched_bounds_while_growing("restricted view", &mut view, &[1, 3]);

        // The generic fallback: never-refreshed (+∞), exact, and stale
        // bounds side by side, then the reset after a removal.
        let mut generic = GenericOracle::new(&cov);
        assert_batched_bounds("generic ∅", &generic);
        generic.refresh(0);
        generic.refresh(2);
        generic.insert(3);
        generic.refresh(2);
        assert!(!generic.marginal_is_exact(0) && generic.marginal_is_exact(2));
        assert_batched_bounds("generic stale", &generic);
        generic.insert(1);
        generic.remove(3);
        assert_batched_bounds("generic after remove", &generic);
    }

    #[test]
    fn scan_cost_hints_rank_families_sensibly() {
        let modular = ModularFunction::uniform(8, 1.0);
        assert_eq!(modular.incremental().scan_cost_hint(), 1);
        let cov = coverage();
        let fac = facility();
        assert!(cov.incremental().scan_cost_hint() >= 2);
        assert_eq!(fac.incremental().scan_cost_hint(), 3);
        assert_eq!(GenericOracle::new(&cov).scan_cost_hint(), 6);
        let mix = MixtureFunction::new(6)
            .with(1.0, ModularFunction::uniform(6, 1.0))
            .with(1.0, coverage());
        assert_eq!(
            mix.incremental().scan_cost_hint(),
            1 + cov.incremental().scan_cost_hint()
        );
    }

    #[test]
    #[should_panic(expected = "already in oracle set")]
    fn double_insert_panics() {
        let f = coverage();
        let mut o = CoverageOracle::new(&f);
        o.insert(1);
        o.insert(1);
    }

    #[test]
    #[should_panic(expected = "not in oracle set")]
    fn absent_remove_panics() {
        let f = facility();
        let mut o = FacilityOracle::new(&f);
        o.remove(0);
    }
}
