//! The best-single-swap scan kernel.
//!
//! Theorem 2's local search and the oblivious update rule of Section 6
//! (Fig. 1) take the same step: the best feasible single swap
//! `S − u + v` (`u ∈ S` out, `v ∉ S` in) whose score beats a floor. Every
//! such traversal in this crate — [`crate::local_search`], the free
//! repair steps and [`crate::DynamicInstance`] in [`crate::dynamic`], and
//! the session's full, column, scoped and collecting scans — runs through
//! [`SwapScan`]:
//!
//! * candidate columns ascending, member rows in solution order;
//! * a rows closure that picks each candidate's member row, or skips the
//!   candidate (`None`); it sees the current floor, so a caller that can
//!   bound a whole row skips one that cannot beat it;
//! * a cell closure that scores `(v in, u out)` against the current floor,
//!   or returns `None` (infeasible, or provably unable to beat the floor);
//! * a floor seeded at the caller's base (the ε-threshold, or 0) that
//!   rises to every accepted score, so only strictly better cells win and
//!   ties keep the earliest cell;
//! * best- or first-improvement ([`PivotRule`]);
//! * an optional per-cell [`CellSink`] (the session's candidate-cache rank
//!   tables);
//! * on a pool that splits the scan, contiguous column ranges whose
//!   winners (and sinks) merge in index order.
//!
//! One chunk *is* the serial traversal, and the merge keeps the earliest
//! of equal winners, so the chosen swap is the same on every pool. A rows
//! or cell closure that prunes against its floor sees a chunk-local floor
//! when the scan splits: it may then evaluate more cells, never a
//! different winner.
//!
//! The kernel makes the traversal order and the tie-break structural;
//! agreement of the scores themselves is up to each caller's cell
//! expression. A fresh rebuild and a pooled scan read the same caches and
//! agree bit for bit, while a session's delta-patched caches match a
//! rebuild's sums up to floating-point accumulation order (only near-exact
//! gain ties can tell them apart — see the equivalence suites).

// Shared by every constrained scan of the serving path: no panicking
// shortcuts outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::local_search::PivotRule;
use crate::pool::ScanPool;
use crate::ElementId;

/// A scan's winning cell: `(u out, v in, score)`.
pub(crate) type Swap = (ElementId, ElementId, f64);

/// The candidate columns of a scan, in ascending order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Columns<'a> {
    /// Every element `0..n`.
    All(usize),
    /// A sorted, deduplicated subset.
    Listed(&'a [ElementId]),
}

impl Columns<'_> {
    fn len(&self) -> usize {
        match self {
            Columns::All(n) => *n,
            Columns::Listed(cols) => cols.len(),
        }
    }
}

/// Receives every scored cell of a scan, in traversal order.
pub(crate) trait CellSink: Send {
    /// Offers the cell `(v in, member at row position pos)` with `score`.
    fn offer(&mut self, pos: usize, v: ElementId, score: f64);

    /// Folds `later`, collected over later columns, into `self`.
    fn merge(self, later: Self) -> Self;
}

impl CellSink for () {
    #[inline(always)]
    fn offer(&mut self, _: usize, _: ElementId, _: f64) {}

    fn merge(self, _: Self) -> Self {}
}

/// One best-single-swap scan: where it runs, where its floor starts and
/// which improving cell it returns. See the [module docs](self).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SwapScan<'a> {
    /// The pool that may split the scan.
    pub pool: &'a ScanPool,
    /// The full member row, in solution order (sizes the pool's work
    /// estimate; callers usually return it as every column's row).
    pub members: &'a [ElementId],
    /// The floor a cell must strictly beat before any cell is accepted.
    pub base: f64,
    /// Best- or first-improvement.
    pub pivot: PivotRule,
    /// Relative cost of one cell (the quality oracle's `scan_cost_hint`),
    /// weighting the pool's work floor.
    pub cell_cost: usize,
}

impl<'a> SwapScan<'a> {
    /// The winning cell over `cols`: `rows(v, floor)` is the member row
    /// scanned for candidate `v` (`None` skips the column), `cell(v, u,
    /// floor)` scores a cell; both see the current floor.
    pub(crate) fn run<R, C>(&self, cols: Columns<'_>, rows: R, cell: C) -> Option<Swap>
    where
        R: Fn(ElementId, f64) -> Option<&'a [ElementId]> + Sync,
        C: Fn(ElementId, ElementId, f64) -> Option<f64> + Sync,
    {
        self.run_into(cols, rows, cell, || ()).0
    }

    /// [`run`](Self::run) that also offers every scored cell to a sink
    /// built by `sink` (one per chunk, merged in index order). Only
    /// best-improvement scans visit every cell, so only they may collect.
    pub(crate) fn run_into<R, C, S, B>(
        &self,
        cols: Columns<'_>,
        rows: R,
        cell: C,
        sink: B,
    ) -> (Option<Swap>, S)
    where
        R: Fn(ElementId, f64) -> Option<&'a [ElementId]> + Sync,
        C: Fn(ElementId, ElementId, f64) -> Option<f64> + Sync,
        S: CellSink,
        B: Fn() -> S + Sync,
    {
        let len = cols.len();
        let ops = len
            .saturating_mul(self.members.len())
            .saturating_mul(self.cell_cost);
        // The inline path calls the traversal directly, so it inlines into
        // the caller's loop like a hand-written scan.
        if !self.pool.splits(len, ops) {
            return self.walk(cols, 0, len, &rows, &cell, sink());
        }
        let pivot = self.pivot;
        self.pool.fold_chunks(
            len,
            ops,
            |lo, hi| self.walk(cols, lo, hi, &rows, &cell, sink()),
            |(best_l, sink_l), (best_r, sink_r)| {
                let best = match (best_l, best_r) {
                    (Some(l), Some(r)) if pivot == PivotRule::BestImprovement && r.2 > l.2 => {
                        Some(r)
                    }
                    (l, r) => l.or(r),
                };
                (best, sink_l.merge(sink_r))
            },
        )
    }

    /// The traversal of the columns at positions `lo..hi`.
    #[inline(always)]
    fn walk<S: CellSink>(
        &self,
        cols: Columns<'_>,
        lo: usize,
        hi: usize,
        rows: &impl Fn(ElementId, f64) -> Option<&'a [ElementId]>,
        cell: &impl Fn(ElementId, ElementId, f64) -> Option<f64>,
        sink: S,
    ) -> (Option<Swap>, S) {
        match cols {
            Columns::All(_) => self.walk_iter(lo as ElementId..hi as ElementId, rows, cell, sink),
            Columns::Listed(list) => self.walk_iter(list[lo..hi].iter().copied(), rows, cell, sink),
        }
    }

    /// The traversal of one chunk of columns.
    #[inline(always)]
    fn walk_iter<S: CellSink>(
        &self,
        cols: impl Iterator<Item = ElementId>,
        rows: &impl Fn(ElementId, f64) -> Option<&'a [ElementId]>,
        cell: &impl Fn(ElementId, ElementId, f64) -> Option<f64>,
        mut sink: S,
    ) -> (Option<Swap>, S) {
        let first = self.pivot == PivotRule::FirstImprovement;
        let mut floor = self.base;
        let mut best: Option<Swap> = None;
        for v in cols {
            let Some(row) = rows(v, floor) else {
                continue;
            };
            for (pos, &u) in row.iter().enumerate() {
                let Some(score) = cell(v, u, floor) else {
                    continue;
                };
                sink.offer(pos, v, score);
                if score > floor {
                    best = Some((u, v, score));
                    if first {
                        return (best, sink);
                    }
                    floor = score;
                }
            }
        }
        (best, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cell surface with ties, negatives and gaps.
    fn score(v: ElementId, u: ElementId) -> Option<f64> {
        let x = (v * 7 + u * 13) % 11;
        (x != 3).then_some(f64::from(x) - 4.0)
    }

    /// The plain nested loop the kernel replaces.
    fn reference(
        cols: &[ElementId],
        members: &[ElementId],
        base: f64,
        pivot: PivotRule,
    ) -> Option<Swap> {
        let mut best: Option<Swap> = None;
        for &v in cols {
            for &u in members {
                let Some(s) = score(v, u) else { continue };
                if s > best.map_or(base, |b| b.2) {
                    best = Some((u, v, s));
                    if pivot == PivotRule::FirstImprovement {
                        return best;
                    }
                }
            }
        }
        best
    }

    #[test]
    fn every_pool_picks_the_reference_cell() {
        let members: Vec<ElementId> = vec![4, 1, 9];
        let cols: Vec<ElementId> = (0..40).filter(|v| !members.contains(v)).collect();
        for threads in [1usize, 2, 3, 7] {
            let pool = ScanPool::new(threads);
            for pivot in [PivotRule::BestImprovement, PivotRule::FirstImprovement] {
                for base in [0.0, 2.5, 10.0] {
                    let scan = SwapScan {
                        pool: &pool,
                        members: &members,
                        base,
                        pivot,
                        cell_cost: 1,
                    };
                    let rows =
                        |v: ElementId, _floor| (!members.contains(&v)).then_some(&members[..]);
                    let cell = |v, u, _floor| score(v, u);
                    let want = reference(&cols, &members, base, pivot);
                    assert_eq!(scan.run(Columns::All(40), rows, cell), want);
                    assert_eq!(scan.run(Columns::Listed(&cols), rows, cell), want);
                }
            }
        }
    }

    #[test]
    fn rows_see_the_rising_floor_chunk_local_when_split() {
        let members: Vec<ElementId> = vec![4, 1, 9];
        let cols: Vec<ElementId> = (0..40).collect();
        let row_max = |v: ElementId| {
            members
                .iter()
                .filter_map(|&u| score(v, u))
                .fold(f64::NEG_INFINITY, f64::max)
        };
        for (threads, chunk) in [(1usize, 40usize), (4, 10)] {
            let pool = ScanPool::new(threads);
            let scan = SwapScan {
                pool: &pool,
                members: &members,
                base: -1.5,
                pivot: PivotRule::BestImprovement,
                cell_cost: 1,
            };
            let seen = std::sync::Mutex::new(Vec::new());
            // A rows closure that records its floor and skips every row
            // whose best cell cannot beat it.
            let got = scan.run(
                Columns::Listed(&cols),
                |v, floor| {
                    seen.lock().unwrap().push((v, floor));
                    (row_max(v) > floor).then_some(&members[..])
                },
                |v, u, _| score(v, u),
            );
            assert_eq!(got, reference(&cols, &members, -1.5, scan.pivot));
            // The floor each column should see: the best score so far
            // within its chunk (a forced pool splits 40 columns evenly).
            let mut want = Vec::new();
            for lo in (0..40).step_by(chunk) {
                let mut floor = -1.5_f64;
                for v in lo as ElementId..(lo + chunk) as ElementId {
                    want.push((v, floor));
                    floor = floor.max(row_max(v));
                }
            }
            let mut seen = seen.into_inner().unwrap();
            seen.sort_by_key(|&(v, _)| v);
            assert_eq!(seen, want, "threads {threads}");
        }
    }

    /// Counts every offered cell and keeps them in traversal order.
    struct Trail(Vec<(usize, ElementId)>);

    impl CellSink for Trail {
        fn offer(&mut self, pos: usize, v: ElementId, _: f64) {
            self.0.push((pos, v));
        }

        fn merge(mut self, later: Self) -> Self {
            self.0.extend(later.0);
            self
        }
    }

    #[test]
    fn sinks_see_every_scored_cell_in_traversal_order() {
        let members: Vec<ElementId> = vec![2, 0];
        let want: Vec<(usize, ElementId)> = (3..30)
            .flat_map(|v| (0..2).map(move |pos| (pos, v)))
            .filter(|&(pos, v)| score(v, members[pos]).is_some())
            .collect();
        for threads in [1usize, 4] {
            let pool = ScanPool::new(threads);
            let scan = SwapScan {
                pool: &pool,
                members: &members,
                base: 0.0,
                pivot: PivotRule::BestImprovement,
                cell_cost: 1,
            };
            let (_, trail) = scan.run_into(
                Columns::All(30),
                |v, _| (v >= 3).then_some(&members[..]),
                |v, u, _| score(v, u),
                || Trail(Vec::new()),
            );
            assert_eq!(trail.0, want, "threads {threads}");
        }
    }
}
