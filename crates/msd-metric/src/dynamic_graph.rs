//! Dynamic graph metrics: edge-weight updates with incremental
//! all-pairs-shortest-path repair.
//!
//! The dispersion problems of the paper originate in location theory on
//! networks, where the metric is *induced*: `d(u, v)` is the length of
//! the shortest path between `u` and `v` in a weighted graph. Under that
//! model the realistic perturbation is not a single distance rewrite but
//! an **edge-weight change** — one road gets congested — which moves many
//! pairwise distances at once.
//!
//! [`DynamicGraphMetric`] owns a weighted undirected graph *and* its
//! materialized APSP [`DistanceMatrix`], and keeps the two consistent
//! under [`set_edge`](DynamicGraphMetric::set_edge) /
//! [`remove_edge`](DynamicGraphMetric::remove_edge) without paying the
//! O(n³) Floyd–Warshall rebuild per update.
//!
//! Both repairs split the vertices into two **sides** of the edge: the
//! u-side holds the `i` whose shortest path to `v` may run `i → u → v`
//! (`d(i,v) = d(i,u) + w`), the v-side the mirror. A pair can only move
//! if a shortest path between its ends crosses the edge, and such a pair
//! has one vertex on each side, so each repair touches those pairs only:
//!
//! * **decrease** (including inserting a new edge) — the two endpoint
//!   rows are relaxed through the cheaper edge in O(n). The sides are
//!   then read off the *new* endpoint rows, and the three-term relaxation
//!   `min(d(i,j), d'(i,u)+w+d'(v,j), d'(i,v)+w+d'(u,j))` runs over the
//!   pairs (u-side × v-side) only: O(n + |U|·|V|).
//! * **increase / removal** — pair by pair, in the style of Ramalingam &
//!   Reps' dynamic shortest paths, on the **old** matrix with the **old**
//!   weight. Each source `i` of the smaller side collects its targets
//!   `T_i`: the vertices `j` on the other side with
//!   `d(i,j) = d(i,s) + w_old + d(t,j)`, where `s` and `t` are the near
//!   and far endpoints. Every other distance from `i` survives the
//!   update, so each `j ∈ T_i` is seeded with the best
//!   `d(i,k) + w(k,j)` over neighbours `k ∉ T_i`, and a Dijkstra confined
//!   to `T_i` over the updated adjacency settles the rest:
//!   O(n + |U|·|V| + Σ|T_i|·deg·log n).
//!
//! Every repair returns an [`EdgeUpdateReport`] listing the exact set of
//! changed `(i, j)` pairs with their old and new distances — the O(Δ)
//! patch stream the persistent `DynamicSession` in `msd-core` consumes to
//! repair its Birnbaum–Goldman gain caches without a rebuild (see the
//! [`EdgePerturbableMetric`] trait).
//!
//! # Exactness
//!
//! Both repairs compute true shortest-path lengths. The side and target
//! tests accept a path through the edge whenever it is within a small
//! relative rounding band of the stored distance, so a vertex is never
//! dropped because two equal-length routes summed to different ulps; a
//! vertex let in needlessly only costs one recomputed entry. With edge
//! weights whose path sums are exact in `f64` (e.g. dyadic rationals, as
//! produced by `msd-data`'s graph generators) the repaired matrix is
//! **bit-identical** to a from-scratch [`WeightedGraph`] Floyd–Warshall
//! rebuild — asserted across random edge scripts by the equivalence suite
//! in `msd-bench`. With weights whose sums round, the repaired matrix is
//! within ulps of a rebuild (different summation order on equal-length
//! routes), as pinned by the facade crate's `graph_repair_rounding` test.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::DisconnectedGraph;
use crate::{DistanceMatrix, ElementId, Metric, WeightedGraph};

/// One repaired pairwise distance: `d(u, v)` moved from `old` to `new`
/// (`u < v` normalized).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceChange {
    /// Smaller endpoint.
    pub u: ElementId,
    /// Larger endpoint.
    pub v: ElementId,
    /// Distance before the edge update.
    pub old: f64,
    /// Distance after the edge update.
    pub new: f64,
}

/// Which repair strategy an edge update took (diagnostics; the `changed`
/// list is authoritative either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStrategy {
    /// The update provably moved no distance (same weight, or the edge
    /// was on no shortest path): O(1)–O(n) witness work, no row scans.
    Untouched,
    /// Edge decrease: endpoint-row relaxation plus a three-term
    /// relaxation over the pairs (u-side × v-side).
    Relaxed {
        /// Source rows the scoped pass visited (the smaller side).
        sources: usize,
    },
    /// Edge increase/removal: a Dijkstra confined to each source's
    /// edge-using targets.
    Rescanned {
        /// Source rows the scoped pass visited (the smaller side, or
        /// every side vertex when the sides overlap).
        rows: usize,
    },
    /// Every row recomputed. No longer produced: the pair-scoped
    /// increase repair has no all-rows fallback. The variant stays so
    /// that exhaustive matches over the public enum keep compiling.
    Rebuilt,
}

/// Outcome of one [`DynamicGraphMetric::set_edge`] /
/// [`DynamicGraphMetric::remove_edge`]: the exact set of pairwise
/// distances the update moved, plus the strategy that repaired them.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeUpdateReport {
    /// Every `(i, j)` pair whose shortest-path distance changed, with old
    /// and new values (`old != new`, `i < j`, each pair at most once).
    pub changed: Vec<DistanceChange>,
    /// How the repair ran.
    pub strategy: RepairStrategy,
}

impl EdgeUpdateReport {
    fn untouched() -> Self {
        Self {
            changed: Vec::new(),
            strategy: RepairStrategy::Untouched,
        }
    }
}

/// Typed rejection of an edge perturbation.
///
/// Every variant leaves the metric **unchanged** — a rejected update can
/// never corrupt the APSP matrix, so callers ingesting untrusted edge
/// streams keep serving from the pre-update metric. Until PR 8 the
/// malformed-input variants were `assert!` panics deep inside
/// [`DynamicGraphMetric`]; a typed error is what lets a multi-tenant
/// frontend reject one tenant's poisoned batch without taking the
/// process down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeUpdateError {
    /// Removing the edge would disconnect the graph: no finite induced
    /// metric exists. Carries the witness pair.
    Disconnected(DisconnectedGraph),
    /// The edge weight is NaN, infinite, or negative — admitting it would
    /// poison every shortest path through the edge.
    InvalidWeight {
        /// Edge endpoints as submitted.
        u: ElementId,
        /// Second endpoint.
        v: ElementId,
        /// The offending weight.
        weight: f64,
    },
    /// An endpoint lies outside the ground set `0..n`.
    EndpointOutOfRange {
        /// Edge endpoints as submitted.
        u: ElementId,
        /// Second endpoint.
        v: ElementId,
        /// Ground-set size.
        n: usize,
    },
    /// `u == v` — self-loops have no metric meaning.
    SelfLoop {
        /// The repeated endpoint.
        u: ElementId,
    },
    /// [`EdgePerturbableMetric::remove_edge`] on a pair with no edge.
    MissingEdge {
        /// Edge endpoints as submitted.
        u: ElementId,
        /// Second endpoint.
        v: ElementId,
    },
}

impl std::fmt::Display for EdgeUpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Disconnected(e) => e.fmt(f),
            Self::InvalidWeight { u, v, weight } => write!(
                f,
                "edge weight {weight} for {{{u}, {v}}} must be finite and non-negative"
            ),
            Self::EndpointOutOfRange { u, v, n } => {
                write!(f, "edge endpoint out of range: {{{u}, {v}}} with n = {n}")
            }
            Self::SelfLoop { u } => write!(f, "self-loop {{{u}, {u}}} has no metric meaning"),
            Self::MissingEdge { u, v } => write!(f, "no edge between {u} and {v} to remove"),
        }
    }
}

impl std::error::Error for EdgeUpdateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Disconnected(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DisconnectedGraph> for EdgeUpdateError {
    fn from(e: DisconnectedGraph) -> Self {
        Self::Disconnected(e)
    }
}

/// A metric whose distances are induced by an updatable structure (a
/// weighted graph) rather than stored per pair: one edge update moves a
/// whole *set* of pairwise distances and reports it.
///
/// This is the graph-world counterpart of [`crate::PerturbableMetric`]'s
/// mutation-with-notification contract: the returned
/// [`EdgeUpdateReport::changed`] list carries the exact `old → new` delta
/// of every moved pair, so an incremental consumer (the graph-backed
/// `DynamicSession` in `msd-core`) repairs its caches in O(Δ) instead of
/// rebuilding. Implementations must keep the [`Metric`] axioms; induced
/// shortest-path metrics satisfy the triangle inequality by construction.
///
/// **A rejected update leaves the metric untouched.** Both methods check
/// before they mutate, so an `Err` means no distance, edge or cache moved.
/// The graph-backed session relies on this: a batch whose only fallible
/// entry comes first takes no rollback checkpoint.
pub trait EdgePerturbableMetric: Metric {
    /// Sets the weight of the undirected edge `{u, v}` (inserting it if
    /// absent), repairs the induced metric, and reports every moved pair.
    ///
    /// # Errors
    ///
    /// Rejects NaN / infinite / negative weights, out-of-range endpoints,
    /// and self-loops with a typed [`EdgeUpdateError`], leaving the
    /// metric **untouched**. It rejects nothing else. (Shortest-path metrics never disconnect on a
    /// weight change; the [`EdgeUpdateError::Disconnected`] variant is
    /// shared with [`remove_edge`](Self::remove_edge).)
    fn set_edge(
        &mut self,
        u: ElementId,
        v: ElementId,
        weight: f64,
    ) -> Result<EdgeUpdateReport, EdgeUpdateError>;

    /// Removes the edge `{u, v}`, repairs the induced metric, and reports
    /// every moved pair.
    ///
    /// # Errors
    ///
    /// Returns an error — leaving the metric **untouched** — when the
    /// removal would disconnect the graph (no finite metric exists), the
    /// edge does not exist, or the endpoints are invalid.
    fn remove_edge(
        &mut self,
        u: ElementId,
        v: ElementId,
    ) -> Result<EdgeUpdateReport, EdgeUpdateError>;
}

/// Min-heap entry for the Dijkstra sweeps (finite non-negative keys, so
/// `total_cmp` is a proper order).
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    dist: f64,
    vertex: ElementId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop the smallest
        // distance (ties by larger vertex first — irrelevant to the
        // computed values, which are tie-break-independent).
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Relative width of the rounding band inside which a path through the
/// updated edge counts as possibly shortest. A stored distance is the
/// `f64` sum of one path's weights, off by at most `hops · ε` relative,
/// so `1e-9` covers paths of millions of hops. A vertex the band lets in
/// needlessly costs one recomputed entry; one it kept out would be a
/// wrong answer.
const TIE_BAND: f64 = 1e-9;

/// `true` when a path of length `through` may be a shortest path whose
/// length is stored as `stored`.
#[inline]
fn tight(through: f64, stored: f64) -> bool {
    through <= stored + TIE_BAND * through
}

/// Splits the vertices by the endpoint their shortest path to the edge
/// `{u, v}` (weight `w`) may enter through, given the endpoint columns
/// `du`, `dv`: the u-side holds the `i` with `d(i,v) = d(i,u) + w`, the
/// v-side the mirror. Both tests are `tight`, so a vertex may sit on both
/// sides when `w` is zero or near it.
fn sides(du: &[f64], dv: &[f64], w: f64) -> (Vec<ElementId>, Vec<ElementId>) {
    let (mut u_side, mut v_side) = (Vec::new(), Vec::new());
    for i in 0..du.len() as ElementId {
        let (a, b) = (du[i as usize], dv[i as usize]);
        if tight(a + w, b) {
            u_side.push(i);
        }
        if tight(b + w, a) {
            v_side.push(i);
        }
    }
    (u_side, v_side)
}

/// A weighted undirected graph bundled with its materialized APSP
/// [`DistanceMatrix`], kept consistent under edge updates by incremental
/// repair (see the module docs).
///
/// Parallel edges of the source [`WeightedGraph`] are collapsed to the
/// lightest at construction; thereafter `{u, v}` identifies a unique
/// edge. The ground set is the vertex set; [`Metric`] queries (including
/// the batched [`Metric::accumulate_distances`] row kernel) delegate to
/// the dense matrix, so a graph-backed solver pays no per-read penalty
/// over a plain [`DistanceMatrix`].
#[derive(Debug, Clone)]
pub struct DynamicGraphMetric {
    n: usize,
    /// Adjacency lists, symmetric: `adj[u]` holds `(v, w)` iff `adj[v]`
    /// holds `(u, w)`.
    adj: Vec<Vec<(ElementId, f64)>>,
    /// Materialized APSP metric, repaired in place on edge updates.
    dist: DistanceMatrix,
    num_edges: usize,
}

impl DynamicGraphMetric {
    /// Builds the metric from a connected graph: collapses parallel
    /// edges to the lightest and materializes the APSP matrix by one
    /// Dijkstra sweep per vertex — O(n·m log n), the sparse-graph
    /// counterpart of [`WeightedGraph::shortest_path_metric`].
    ///
    /// # Errors
    ///
    /// Returns the same witness error as
    /// [`WeightedGraph::shortest_path_metric`] when some pair is
    /// unreachable.
    pub fn from_graph(graph: &WeightedGraph) -> Result<Self, DisconnectedGraph> {
        let n = graph.len();
        let mut adj: Vec<Vec<(ElementId, f64)>> = vec![Vec::new(); n];
        let mut num_edges = 0usize;
        for &(u, v, w) in graph.edges() {
            let (u, v) = (u as usize, v as usize);
            // Collapse parallel edges, keeping the lightest.
            match adj[u].iter_mut().find(|(x, _)| *x as usize == v) {
                Some(entry) if entry.1 <= w => {}
                Some(entry) => {
                    entry.1 = w;
                    let back = adj[v]
                        .iter_mut()
                        .find(|(x, _)| *x as usize == u)
                        .expect("symmetric adjacency");
                    back.1 = w;
                }
                None => {
                    adj[u].push((v as ElementId, w));
                    adj[v].push((u as ElementId, w));
                    num_edges += 1;
                }
            }
        }
        let mut metric = Self {
            n,
            adj,
            dist: DistanceMatrix::zeros(n),
            num_edges,
        };
        let mut row = vec![0.0; n];
        for i in 0..n {
            metric.dijkstra_row(i as ElementId, &mut row);
            for (j, &d) in row.iter().enumerate().skip(i + 1) {
                if d.is_infinite() {
                    return Err(DisconnectedGraph {
                        u: i as ElementId,
                        v: j as ElementId,
                    });
                }
                metric.dist.set(i as ElementId, j as ElementId, d);
            }
        }
        Ok(metric)
    }

    /// The materialized APSP matrix (always consistent with the graph).
    pub fn matrix(&self) -> &DistanceMatrix {
        &self.dist
    }

    /// Number of (collapsed, undirected) edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Current weight of the edge `{u, v}`, or `None` when absent.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints.
    pub fn edge_weight(&self, u: ElementId, v: ElementId) -> Option<f64> {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge endpoint out of range"
        );
        self.adj[u as usize]
            .iter()
            .find(|(x, _)| *x == v)
            .map(|&(_, w)| w)
    }

    /// All edges as `(u, v, w)` with `u < v`, in adjacency order.
    pub fn edges(&self) -> Vec<(ElementId, ElementId, f64)> {
        let mut out = Vec::with_capacity(self.num_edges);
        for (u, list) in self.adj.iter().enumerate() {
            for &(v, w) in list {
                if (u as ElementId) < v {
                    out.push((u as ElementId, v, w));
                }
            }
        }
        out
    }

    /// Single-source shortest paths from `s` over the current adjacency,
    /// written into `out` (`∞` for unreachable vertices).
    fn dijkstra_row(&self, s: ElementId, out: &mut [f64]) {
        out[..self.n].fill(f64::INFINITY);
        out[s as usize] = 0.0;
        let mut heap = BinaryHeap::with_capacity(self.n.min(64));
        heap.push(HeapEntry {
            dist: 0.0,
            vertex: s,
        });
        while let Some(HeapEntry { dist, vertex }) = heap.pop() {
            if dist > out[vertex as usize] {
                continue; // stale heap entry
            }
            for &(next, w) in &self.adj[vertex as usize] {
                let through = dist + w;
                if through < out[next as usize] {
                    out[next as usize] = through;
                    heap.push(HeapEntry {
                        dist: through,
                        vertex: next,
                    });
                }
            }
        }
    }

    /// Writes `value` into the matrix iff it differs from the stored
    /// distance, recording the move. Idempotent re-relaxations of the
    /// same pair (both endpoints affected) become no-ops, so `changed`
    /// carries each pair at most once with `old` = the pre-update value.
    fn record(
        changed: &mut Vec<DistanceChange>,
        dist: &mut DistanceMatrix,
        i: ElementId,
        j: ElementId,
        value: f64,
    ) {
        let old = dist.distance(i, j);
        if value != old {
            dist.set(i, j, value);
            let (u, v) = if i < j { (i, j) } else { (j, i) };
            changed.push(DistanceChange {
                u,
                v,
                old,
                new: value,
            });
        }
    }

    /// Upserts the adjacency entry for `{u, v}`; returns the previous
    /// weight.
    fn upsert_adjacency(&mut self, u: ElementId, v: ElementId, w: f64) -> Option<f64> {
        let mut old = None;
        for (a, b) in [(u, v), (v, u)] {
            match self.adj[a as usize].iter_mut().find(|(x, _)| *x == b) {
                Some(entry) => old = Some(std::mem::replace(&mut entry.1, w)),
                None => self.adj[a as usize].push((b, w)),
            }
        }
        if old.is_none() {
            self.num_edges += 1;
        }
        old
    }

    /// Drops the adjacency entry for `{u, v}`; returns the removed
    /// weight.
    fn drop_adjacency(&mut self, u: ElementId, v: ElementId) -> Option<f64> {
        let mut old = None;
        for (a, b) in [(u, v), (v, u)] {
            if let Some(idx) = self.adj[a as usize].iter().position(|(x, _)| *x == b) {
                old = Some(self.adj[a as usize].swap_remove(idx).1);
            }
        }
        if old.is_some() {
            self.num_edges -= 1;
        }
        old
    }

    /// `true` when every vertex is reachable from `s` over the current
    /// adjacency, ignoring the edge `{skip_u, skip_v}` (connectivity is
    /// weight-independent, so a plain DFS suffices).
    fn connected_without(&self, s: ElementId, skip_u: ElementId, skip_v: ElementId) -> bool {
        let mut seen = vec![false; self.n];
        let mut stack = vec![s];
        seen[s as usize] = true;
        let mut reached = 1usize;
        while let Some(x) = stack.pop() {
            for &(y, _) in &self.adj[x as usize] {
                let skipped = (x == skip_u && y == skip_v) || (x == skip_v && y == skip_u);
                if !skipped && !seen[y as usize] {
                    seen[y as usize] = true;
                    reached += 1;
                    stack.push(y);
                }
            }
        }
        reached == self.n
    }

    /// Decrease repair (also covers inserting a new edge): endpoint rows
    /// first, then the three-term relaxation over the pairs with one
    /// vertex on each side of the edge.
    fn repair_decrease(&mut self, u: ElementId, v: ElementId, w: f64) -> EdgeUpdateReport {
        let n = self.n;
        let mut changed = Vec::new();
        // New endpoint rows, relaxed through the cheaper edge. At most
        // one of the two relaxations fires per source (both would imply
        // d(i,v) + 2w < d(i,v)), so reading the stored rows is safe.
        let mut du = vec![0.0; n];
        let mut dv = vec![0.0; n];
        for i in 0..n as ElementId {
            let (a, b) = (self.dist.distance(i, u), self.dist.distance(i, v));
            du[i as usize] = a.min(b + w);
            dv[i as usize] = b.min(a + w);
        }
        for i in 0..n as ElementId {
            if i != u {
                Self::record(&mut changed, &mut self.dist, i, u, du[i as usize]);
            }
            if i != v {
                Self::record(&mut changed, &mut self.dist, i, v, dv[i as usize]);
            }
        }
        // Any other pair can only drop if its new shortest path runs
        // i → u → v → j (or the mirror), which puts i on the u-side and j
        // on the v-side of the new endpoint rows. The endpoint rows are
        // already final, and the relaxation never undercuts them.
        let (u_side, v_side) = sides(&du, &dv, w);
        let (outer, inner) = if u_side.len() <= v_side.len() {
            (u_side, v_side)
        } else {
            (v_side, u_side)
        };
        for &i in &outer {
            let (a, b) = (du[i as usize], dv[i as usize]);
            for &j in &inner {
                if j == i {
                    continue;
                }
                // Symmetric in (i, j), so a pair met from both ends (a
                // vertex on both sides) gets the same bits twice and is
                // recorded once.
                let through = (a + dv[j as usize]).min(b + du[j as usize]) + w;
                if through < self.dist.distance(i, j) {
                    Self::record(&mut changed, &mut self.dist, i, j, through);
                }
            }
        }
        EdgeUpdateReport {
            changed,
            strategy: RepairStrategy::Relaxed {
                sources: outer.len(),
            },
        }
    }

    /// Increase/removal repair, pair by pair (Ramalingam–Reps style).
    /// The adjacency must already hold the new weight (or have the edge
    /// dropped) when this runs; the matrix still holds the old distances.
    ///
    /// Only a pair whose old shortest path crossed the edge can grow, and
    /// such a pair has one vertex on each side of the edge. Each source
    /// `i` of the smaller side gathers the targets `T_i` whose old
    /// shortest path from `i` may cross the edge. Every other distance
    /// from `i` survives the update, so each target is seeded with its
    /// best entry from outside `T_i` and a Dijkstra confined to `T_i`
    /// settles the rest.
    fn repair_increase(&mut self, u: ElementId, v: ElementId, old_w: f64) -> EdgeUpdateReport {
        let n = self.n;
        let column = |x: ElementId| -> Vec<f64> {
            (0..n as ElementId)
                .map(|i| self.dist.distance(i, x))
                .collect()
        };
        let (du, dv) = (column(u), column(v));
        let (u_side, v_side) = sides(&du, &dv, old_w);
        // Bit 1 marks the u-side, bit 2 the v-side.
        let mut side_bits = vec![0u8; n];
        for (side, bit) in [(&u_side, 1), (&v_side, 2)] {
            for &i in side {
                side_bits[i as usize] |= bit;
            }
        }
        let overlap = side_bits.contains(&3);
        let (sources, targets) = if overlap {
            // A vertex on both sides (old weight zero, or within rounding
            // of it) may cross the edge either way: every side vertex
            // becomes a source and a target.
            let all: Vec<ElementId> = (0..n as ElementId)
                .filter(|&i| side_bits[i as usize] != 0)
                .collect();
            (all.clone(), all)
        } else if u_side.len() <= v_side.len() {
            (u_side, v_side)
        } else {
            (v_side, u_side)
        };
        if sources.is_empty() {
            return EdgeUpdateReport::untouched();
        }
        // `stamp[j] == mark` iff `j` is in the current source's `T_i`.
        let mut stamp = vec![0usize; n];
        let mut row = vec![f64::INFINITY; n];
        let mut members = Vec::new();
        let mut heap = BinaryHeap::new();
        let mut writes: Vec<(ElementId, ElementId, f64)> = Vec::new();
        for (mark, &i) in (1..).zip(&sources) {
            let (via_u, via_v) = (du[i as usize] + old_w, dv[i as usize] + old_w);
            members.clear();
            // Either crossing direction admits a target; on disjoint
            // sides only the one leaving the source's side can pass.
            for &j in &targets {
                let stored = self.dist.distance(i, j);
                if j != i
                    && (tight(via_u + dv[j as usize], stored)
                        || tight(via_v + du[j as usize], stored))
                {
                    stamp[j as usize] = mark;
                    members.push(j);
                }
            }
            // Distances to vertices outside T_i are final: seed each
            // target with its best entry from there, then settle T_i.
            for &j in &members {
                let mut seed = f64::INFINITY;
                for &(k, w) in &self.adj[j as usize] {
                    if stamp[k as usize] != mark {
                        seed = seed.min(self.dist.distance(i, k) + w);
                    }
                }
                row[j as usize] = seed;
                if seed.is_finite() {
                    heap.push(HeapEntry {
                        dist: seed,
                        vertex: j,
                    });
                }
            }
            while let Some(HeapEntry { dist, vertex }) = heap.pop() {
                if dist > row[vertex as usize] {
                    continue; // stale heap entry
                }
                for &(next, w) in &self.adj[vertex as usize] {
                    let through = dist + w;
                    if stamp[next as usize] == mark && through < row[next as usize] {
                        row[next as usize] = through;
                        heap.push(HeapEntry {
                            dist: through,
                            vertex: next,
                        });
                    }
                }
            }
            for &j in &members {
                debug_assert!(
                    row[j as usize].is_finite(),
                    "disconnection must be pre-checked"
                );
                writes.push((i, j, row[j as usize]));
            }
        }
        if overlap {
            // Overlapping sides can meet a pair from both ends, with
            // results that differ in the last ulp; keep the first.
            let pair = |&(i, j, _): &(ElementId, ElementId, f64)| (i.min(j), i.max(j));
            writes.sort_by_key(pair);
            writes.dedup_by(|a, b| pair(a) == pair(b));
        }
        let mut changed = Vec::new();
        for (i, j, d) in writes {
            Self::record(&mut changed, &mut self.dist, i, j, d);
        }
        EdgeUpdateReport {
            changed,
            strategy: RepairStrategy::Rescanned {
                rows: sources.len(),
            },
        }
    }

    fn check_endpoints(&self, u: ElementId, v: ElementId) -> Result<(), EdgeUpdateError> {
        if (u as usize) >= self.n || (v as usize) >= self.n {
            return Err(EdgeUpdateError::EndpointOutOfRange { u, v, n: self.n });
        }
        if u == v {
            return Err(EdgeUpdateError::SelfLoop { u });
        }
        Ok(())
    }
}

impl EdgePerturbableMetric for DynamicGraphMetric {
    fn set_edge(
        &mut self,
        u: ElementId,
        v: ElementId,
        weight: f64,
    ) -> Result<EdgeUpdateReport, EdgeUpdateError> {
        self.check_endpoints(u, v)?;
        if !(weight.is_finite() && weight >= 0.0) {
            // Rejected before any adjacency or APSP mutation: one NaN
            // admitted here would propagate through every Dijkstra relax.
            return Err(EdgeUpdateError::InvalidWeight { u, v, weight });
        }
        match self.edge_weight(u, v) {
            Some(old) if weight == old => Ok(EdgeUpdateReport::untouched()),
            Some(old) if weight > old => {
                self.upsert_adjacency(u, v, weight);
                Ok(self.repair_increase(u, v, old))
            }
            _ => {
                // New edge (effective old weight ∞) or a decrease.
                self.upsert_adjacency(u, v, weight);
                Ok(self.repair_decrease(u, v, weight))
            }
        }
    }

    fn remove_edge(
        &mut self,
        u: ElementId,
        v: ElementId,
    ) -> Result<EdgeUpdateReport, EdgeUpdateError> {
        self.check_endpoints(u, v)?;
        let Some(old) = self.edge_weight(u, v) else {
            return Err(EdgeUpdateError::MissingEdge { u, v });
        };
        if !self.connected_without(u, u, v) {
            // The metric is untouched; the caller may keep using it.
            return Err(EdgeUpdateError::Disconnected(DisconnectedGraph {
                u: u.min(v),
                v: u.max(v),
            }));
        }
        self.drop_adjacency(u, v);
        Ok(self.repair_increase(u, v, old))
    }
}

impl Metric for DynamicGraphMetric {
    fn len(&self) -> usize {
        self.n
    }

    #[inline]
    fn distance(&self, u: ElementId, v: ElementId) -> f64 {
        self.dist.distance(u, v)
    }

    fn distance_to_set(&self, u: ElementId, set: &[ElementId]) -> f64 {
        self.dist.distance_to_set(u, set)
    }

    fn dispersion(&self, set: &[ElementId]) -> f64 {
        self.dist.dispersion(set)
    }

    fn cross_dispersion(&self, xs: &[ElementId], ys: &[ElementId]) -> f64 {
        self.dist.cross_dispersion(xs, ys)
    }

    fn accumulate_distances(&self, u: ElementId, out: &mut [f64], factor: f64) {
        self.dist.accumulate_distances(u, out, factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricAudit;

    /// 0 -1- 1 -2- 2 -3- 3 path plus a 0-3 chord of weight 2.5.
    fn diamond() -> WeightedGraph {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 1.0)
            .add_edge(1, 2, 2.0)
            .add_edge(2, 3, 3.0)
            .add_edge(0, 3, 2.5);
        g
    }

    fn assert_matches_rebuild(metric: &DynamicGraphMetric) {
        let mut g = WeightedGraph::new(metric.len());
        for (u, v, w) in metric.edges() {
            g.add_edge(u, v, w);
        }
        let rebuilt = g.shortest_path_metric().expect("connected");
        assert_eq!(
            metric.matrix().triangle(),
            rebuilt.triangle(),
            "repaired matrix diverged from the Floyd–Warshall rebuild"
        );
    }

    #[test]
    fn construction_matches_floyd_warshall() {
        let metric = DynamicGraphMetric::from_graph(&diamond()).unwrap();
        assert_eq!(metric.len(), 4);
        assert_eq!(metric.num_edges(), 4);
        assert_eq!(metric.distance(0, 3), 2.5);
        assert_eq!(metric.distance(0, 2), 3.0);
        assert_matches_rebuild(&metric);
        MetricAudit::check(&metric).assert_metric();
    }

    #[test]
    fn construction_collapses_parallel_edges() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(0, 1, 5.0)
            .add_edge(1, 0, 2.0)
            .add_edge(0, 1, 9.0);
        let metric = DynamicGraphMetric::from_graph(&g).unwrap();
        assert_eq!(metric.num_edges(), 1);
        assert_eq!(metric.edge_weight(0, 1), Some(2.0));
        assert_eq!(metric.distance(1, 0), 2.0);
    }

    #[test]
    fn construction_rejects_disconnected_graphs() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 1.0).add_edge(2, 3, 1.0);
        let err = DynamicGraphMetric::from_graph(&g).unwrap_err();
        assert!(err.u < err.v);
    }

    #[test]
    fn decrease_moves_exactly_the_rerouted_pairs() {
        let mut metric = DynamicGraphMetric::from_graph(&diamond()).unwrap();
        // Cheaper chord: 0-3 drops 2.5 → 0.5, rerouting 1-3 and 2-3.
        let report = metric.set_edge(0, 3, 0.5).unwrap();
        assert!(matches!(report.strategy, RepairStrategy::Relaxed { .. }));
        assert_eq!(metric.distance(0, 3), 0.5);
        assert_eq!(metric.distance(1, 3), 1.5); // 1-0-3
        assert_matches_rebuild(&metric);
        for c in &report.changed {
            assert!(c.new < c.old, "decrease must only lower distances");
            assert_eq!(metric.distance(c.u, c.v), c.new);
        }
        // Every changed pair really changed (old values were different).
        assert!(report.changed.iter().all(|c| c.old != c.new));
    }

    #[test]
    fn increase_rescans_only_edge_using_rows() {
        let mut metric = DynamicGraphMetric::from_graph(&diamond()).unwrap();
        // 0-1 is on shortest paths; raising it rescans affected rows.
        let report = metric.set_edge(0, 1, 4.0).unwrap();
        assert!(matches!(report.strategy, RepairStrategy::Rescanned { .. }));
        assert_eq!(metric.distance(0, 1), 4.0); // direct still beats 0-3-2-1
        assert_matches_rebuild(&metric);
    }

    #[test]
    fn irrelevant_increase_is_untouched() {
        let mut metric = DynamicGraphMetric::from_graph(&diamond()).unwrap();
        // Make 2-3 useless first (0-3 chord + 0-1-2 is shorter), then
        // raise it further: no shortest path uses it.
        metric.set_edge(2, 3, 30.0).unwrap();
        let report = metric.set_edge(2, 3, 40.0).unwrap();
        assert_eq!(report.strategy, RepairStrategy::Untouched);
        assert!(report.changed.is_empty());
        assert_matches_rebuild(&metric);
    }

    #[test]
    fn setting_the_same_weight_is_untouched() {
        let mut metric = DynamicGraphMetric::from_graph(&diamond()).unwrap();
        let report = metric.set_edge(1, 2, 2.0).unwrap();
        assert_eq!(report.strategy, RepairStrategy::Untouched);
        assert!(report.changed.is_empty());
    }

    #[test]
    fn inserting_a_new_edge_is_a_decrease_from_infinity() {
        let mut metric = DynamicGraphMetric::from_graph(&diamond()).unwrap();
        assert_eq!(metric.edge_weight(1, 3), None);
        let report = metric.set_edge(1, 3, 0.25).unwrap();
        assert_eq!(metric.num_edges(), 5);
        assert!(matches!(report.strategy, RepairStrategy::Relaxed { .. }));
        assert_eq!(metric.distance(1, 3), 0.25);
        assert_matches_rebuild(&metric);
    }

    #[test]
    fn removal_repairs_or_reports_disconnection() {
        let mut metric = DynamicGraphMetric::from_graph(&diamond()).unwrap();
        // 2-3 removable: 3 stays reachable via the chord.
        let report = metric.remove_edge(2, 3).unwrap();
        assert_eq!(metric.num_edges(), 3);
        assert_eq!(metric.edge_weight(2, 3), None);
        assert!(!report.changed.is_empty());
        assert_matches_rebuild(&metric);
        // Now 0-3 is a bridge: removal must fail and leave everything
        // intact.
        let before = metric.matrix().triangle().to_vec();
        let err = metric.remove_edge(3, 0).unwrap_err();
        assert_eq!(
            err,
            EdgeUpdateError::Disconnected(DisconnectedGraph { u: 0, v: 3 })
        );
        assert_eq!(metric.edge_weight(0, 3), Some(2.5));
        assert_eq!(metric.matrix().triangle(), &before[..]);
        assert_matches_rebuild(&metric);
    }

    #[test]
    fn zero_weight_edges_are_supported() {
        let mut metric = DynamicGraphMetric::from_graph(&diamond()).unwrap();
        metric.set_edge(0, 1, 0.0).unwrap();
        assert_eq!(metric.distance(0, 1), 0.0);
        assert_eq!(metric.distance(1, 3), 2.5); // 1-0-3 through the free edge
        assert_matches_rebuild(&metric);
    }

    #[test]
    fn trivial_ground_sets() {
        let metric = DynamicGraphMetric::from_graph(&WeightedGraph::new(1)).unwrap();
        assert_eq!(metric.len(), 1);
        assert_eq!(metric.num_edges(), 0);
        let metric = DynamicGraphMetric::from_graph(&WeightedGraph::new(0)).unwrap();
        assert!(metric.is_empty());
    }

    #[test]
    fn accumulate_distances_delegates_to_the_matrix() {
        let metric = DynamicGraphMetric::from_graph(&diamond()).unwrap();
        let n = metric.len();
        let mut fast = vec![0.0; n];
        metric.accumulate_distances(1, &mut fast, 2.0);
        for (v, &acc) in fast.iter().enumerate() {
            let expected = if v == 1 {
                0.0
            } else {
                2.0 * metric.distance(1, v as ElementId)
            };
            assert_eq!(acc, expected);
        }
    }

    #[test]
    fn malformed_edge_updates_are_rejected_without_mutation() {
        // Each malformed update must return its typed error and leave the
        // adjacency *and* the APSP matrix bit-identical — the fault-
        // tolerance contract the serving stack builds on.
        let mut metric = DynamicGraphMetric::from_graph(&diamond()).unwrap();
        let before = metric.matrix().triangle().to_vec();
        let edges_before = metric.num_edges();

        assert_eq!(
            metric.set_edge(0, 9, 1.0),
            Err(EdgeUpdateError::EndpointOutOfRange { u: 0, v: 9, n: 4 })
        );
        assert_eq!(
            metric.set_edge(2, 2, 1.0),
            Err(EdgeUpdateError::SelfLoop { u: 2 })
        );
        for bad in [-0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = metric.set_edge(0, 1, bad).unwrap_err();
            match err {
                EdgeUpdateError::InvalidWeight { u: 0, v: 1, weight } => {
                    assert!(weight.is_nan() == bad.is_nan() && (weight == bad || bad.is_nan()));
                }
                other => panic!("expected InvalidWeight, got {other:?}"),
            }
        }
        assert_eq!(
            metric.remove_edge(1, 3),
            Err(EdgeUpdateError::MissingEdge { u: 1, v: 3 })
        );
        assert_eq!(
            metric.remove_edge(1, 9),
            Err(EdgeUpdateError::EndpointOutOfRange { u: 1, v: 9, n: 4 })
        );

        assert_eq!(metric.num_edges(), edges_before);
        assert_eq!(metric.matrix().triangle(), &before[..]);
        assert_matches_rebuild(&metric);
    }
}
