//! Implicit (compute-on-demand) point-backed metrics.
//!
//! Every dense path in this workspace bottoms out in [`DistanceMatrix`]'s
//! `n(n−1)/2` triangle — `O(n²)` memory, which caps instances at `n ≈ 10⁴`
//! (`n = 10⁶` would need ~4 TB). [`PointMetric`] breaks that wall: it keeps
//! only the `n·dim` feature coordinates and recomputes distances on demand,
//! so [`Metric::accumulate_distances`] — the one hot row sweep behind the
//! Birnbaum–Goldman gain caches — runs over the coordinate rows instead of
//! a triangle traversal.
//!
//! # Interleaved blocks
//!
//! The coordinates are stored as blocks of `BLOCK = 8` rows interleaved by
//! dimension: row `8b + j`, dimension `k` sits at `b·8·dim + k·8 + j`. The
//! `n mod 8` tail rows follow row-major. [`PointMetric::from_flat`] builds
//! this layout in place from row-major input, through one block-sized
//! scratch, and computes the squared row norms in the same pass.
//!
//! The row sweep of `accumulate_distances` takes each block and, for each
//! dimension `k`, reads the eight lanes `k·8 .. k·8 + 8` — one contiguous
//! load — into eight independent `acc[j] += term(a[k], lane[j])` updates,
//! so the accumulators live in vector registers. The tail takes a scalar
//! loop, and `dim = 0` gives empty sums. Sums go 512 rows at a time into a
//! stack buffer, and the kernel's epilogue (`√`, or the cosine division
//! and clamp, then `out[v] += factor · d`) runs over that buffer as a
//! plain slice loop, which vectorizes too. The sweep, like the
//! `from_flat` pass, is one generic body compiled twice: once for the
//! build's baseline target and once inside a
//! `#[target_feature(enable = "avx2")]` function, picked at run time when
//! the CPU has AVX2.
//!
//! On a 2-vCPU x86-64 VM (four alternating runs per build) one
//! 1000 × 46 cosine row cost 25.8–30.1 µs with the earlier layout (eight
//! strided row-major rows per block), 18.0–18.8 µs with the portable
//! interleaved sweep and 9.8–10.0 µs with the AVX2 copy. A clone plus
//! `from_flat` of that shape went from 37–45 µs to 44–48 µs. Point reads
//! (`distance`) are strided in this layout — a block row's coordinates
//! sit 8 apart — and a random 1000 × 46 pair read went from 46–50 ns to
//! 58–61 ns. [`RestrictedMetric`](crate::RestrictedMetric) views therefore
//! copy their rows into a compact `PointMetric` of their own and sweep
//! those, instead of reading pair by pair through the id remap.
//!
//! # Bit-identity contract
//!
//! `PointMetric` is *bit-identical* to the reference pipeline
//! `DistanceMatrix::from_metric(&functions::EuclideanMetric /* or cosine */)`:
//! every per-pair distance sums dimensions in increasing order with a single
//! `f64` accumulator that starts at `−0.0`, exactly like the
//! `Iterator::sum` of [`Point::euclidean`] / [`Point::cosine_distance`],
//! and `accumulate_distances` issues exactly one `out[v] += factor · d(u, v)`
//! per candidate (the pivot's slot gets one too and is then restored). The
//! blocked sweep interleaves *candidates*, never the per-pair dimension
//! order: each vector lane is one candidate's own accumulator. The AVX2
//! copy enables AVX2 only, never FMA, and Rust does not contract
//! `x·y + z` into a fused multiply-add on its own, so every product is
//! rounded before it is added, as in the scalar reference. Vector square
//! roots and divisions round exactly like their scalar forms.
//! Greedy/local-search/session runs over a `PointMetric` therefore select
//! the same elements as over the materialized matrix. The property suite
//! in `tests/proptests.rs` pins this down (odd tails, empty rows, negative
//! factors), and unit tests check block-boundary shapes and the benchmark's
//! shape against the `Point` wrappers directly, for the portable copy and
//! the dispatched one.
//!
//! # Coordinate bound
//!
//! The [`Metric`] contract asks for finite distances. `from_flat` rejects a
//! non-finite coordinate and any row whose squared norm exceeds
//! `f64::MAX / 8`, which keeps every Euclidean and cosine distance finite:
//! a Euclidean sum is at most `Σ(x−y)² ≤ 2(‖a‖² + ‖b‖²) ≤ f64::MAX / 2`
//! and a cosine dot product at most `|⟨a, b⟩| ≤ ‖a‖‖b‖ ≤ f64::MAX / 8`.
//! The check rides on the norm pass.
//!
//! [`DistanceMatrix`]: crate::DistanceMatrix
//! [`Point::euclidean`]: crate::Point::euclidean
//! [`Point::cosine_distance`]: crate::Point::cosine_distance

// `from_flat` takes coordinates from outside the program: a bad row
// panics with its named cause, never through a panicking shortcut.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::undocumented_unsafe_blocks)]

use crate::point::Point;
use crate::{ElementId, Metric};

/// Rows per interleaved block of the coordinate store.
const BLOCK: usize = 8;

/// Rows per pass of the row sweep: their sums fill one 4 KB stack buffer
/// before the kernel's epilogue runs over it.
const PASS: usize = 64 * BLOCK;

/// Largest squared row norm [`PointMetric::from_flat`] accepts
/// (`f64::MAX / 8`). Below it every distance is finite under both
/// kernels: a Euclidean sum is at most `Σ(x−y)² ≤ 2(‖a‖² + ‖b‖²) ≤
/// f64::MAX / 2`, a cosine dot product at most `|⟨a, b⟩| ≤ ‖a‖‖b‖ ≤
/// f64::MAX / 8` (every partial sum obeys the same bounds, and the factor 2
/// of headroom absorbs rounding).
const MAX_SQUARED_NORM: f64 = f64::MAX / 8.0;

/// The vector kernel a [`PointMetric`] derives distances from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointKernel {
    /// Euclidean (ℓ2) distance, matching [`Point::euclidean`].
    Euclidean,
    /// Cosine distance `1 − cos_sim`, matching [`Point::cosine_distance`]
    /// (zero vectors have similarity 0; the similarity is clamped to
    /// `[-1, 1]` before subtraction).
    Cosine,
}

/// An implicit metric over dense feature points: distances are recomputed
/// from coordinates on demand, so memory stays `O(n·dim)` instead of the
/// `O(n²)` of a materialized [`DistanceMatrix`](crate::DistanceMatrix).
///
/// See the [module docs](self) for the storage layout, the bit-identity
/// contract and the coordinate bound.
#[derive(Debug, Clone)]
pub struct PointMetric {
    /// `n × dim` coordinates: the first `n − n % BLOCK` rows in blocks of
    /// [`BLOCK`] rows interleaved by dimension, the tail rows row-major
    /// after them (see the module docs).
    coords: Vec<f64>,
    n: usize,
    dim: usize,
    kernel: PointKernel,
    /// Precomputed ℓ2 norms (cosine kernel only, else empty). Each equals
    /// [`Point::norm`] of the row bit-for-bit.
    norms: Vec<f64>,
}

impl PointMetric {
    /// Builds an implicit Euclidean metric over `points`.
    ///
    /// # Panics
    ///
    /// Panics if the points have inconsistent dimensions.
    pub fn euclidean(points: &[Point]) -> Self {
        Self::from_points(points, PointKernel::Euclidean)
    }

    /// Builds an implicit cosine-distance metric over `points`.
    ///
    /// # Panics
    ///
    /// Panics if the points have inconsistent dimensions.
    pub fn cosine(points: &[Point]) -> Self {
        Self::from_points(points, PointKernel::Cosine)
    }

    fn from_points(points: &[Point], kernel: PointKernel) -> Self {
        let dim = points.first().map_or(0, Point::dim);
        let mut coords = Vec::with_capacity(points.len() * dim);
        for p in points {
            assert_eq!(p.dim(), dim, "dimension mismatch");
            coords.extend_from_slice(p.coords());
        }
        Self::from_flat(kernel, points.len(), dim, coords)
    }

    /// Builds an implicit metric from row-major flat coordinates
    /// (`coords.len() == n · dim`), avoiding per-point allocations for
    /// large corpora.
    ///
    /// One pass interleaves each block of rows in place (see the module
    /// docs) and computes its rows' squared norms: they yield the cosine
    /// norms and reject any row that could make a distance non-finite.
    ///
    /// # Panics
    ///
    /// Panics if `n · dim` overflows or differs from `coords.len()`, if any
    /// coordinate is non-finite, or if a row's squared norm exceeds
    /// `f64::MAX / 8`.
    pub fn from_flat(kernel: PointKernel, n: usize, dim: usize, mut coords: Vec<f64>) -> Self {
        assert!(
            n.checked_mul(dim) == Some(coords.len()),
            "coords must be n·dim row-major"
        );
        let mut norms = Vec::with_capacity(if kernel == PointKernel::Cosine { n } else { 0 });
        Sweep::Dispatched.interleave(&mut coords, n, dim, |row, sq| {
            if sq.is_nan() || sq > MAX_SQUARED_NORM {
                reject_row(row);
            }
            if kernel == PointKernel::Cosine {
                // Same accumulation as Point::dot(self).sqrt().
                norms.push(sq.sqrt());
            }
        });
        Self {
            coords,
            n,
            dim,
            kernel,
            norms,
        }
    }

    /// The vector kernel in use.
    pub fn kernel(&self) -> PointKernel {
        self.kernel
    }

    /// Dimensionality of the backing points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Per-pair kernel, bit-identical to [`Point::euclidean`] /
    /// [`Point::cosine_distance`] on the backing rows (`u ≠ v`).
    #[inline]
    fn kernel_pair(&self, u: usize, v: usize) -> f64 {
        let (a, b) = (self.row(u), self.row(v));
        match self.kernel {
            PointKernel::Euclidean => pair_sum(a, b, sq_diff).sqrt(),
            PointKernel::Cosine => {
                cosine_from_dot(pair_sum(a, b, mul), self.norms[u] * self.norms[v])
            }
        }
    }

    /// Where element `u`'s coordinates sit.
    #[inline]
    fn row(&self, u: usize) -> Row<'_> {
        let dim = self.dim;
        let blocked = blocked_rows(self.n, dim);
        if u < blocked {
            let start = u / BLOCK * BLOCK * dim;
            let block = &self.coords[start..start + BLOCK * dim];
            Row::Lane(block.as_chunks::<BLOCK>().0, u % BLOCK)
        } else {
            let start = blocked * dim + (u - blocked) * dim;
            Row::Flat(&self.coords[start..start + dim])
        }
    }

    /// Appends element `u`'s coordinates to `out`, in increasing dimension.
    fn copy_row(&self, u: usize, out: &mut Vec<f64>) {
        match self.row(u) {
            Row::Lane(groups, j) => out.extend(groups.iter().map(|lanes| lanes[j])),
            Row::Flat(row) => out.extend_from_slice(row),
        }
    }

    /// `out[v] += factor · d(u, v)` for every `v ≠ u`, through `sweep`.
    #[inline(always)]
    fn accumulate_with(&self, sweep: Sweep, u: usize, out: &mut [f64], factor: f64) {
        let mut a = Vec::with_capacity(self.dim);
        self.copy_row(u, &mut a);
        let out = &mut out[..self.n];
        // The sweep writes every row, the pivot's too: put its slot back.
        let pivot = out[u];
        let (coords, n) = (self.coords.as_slice(), self.n);
        match self.kernel {
            PointKernel::Euclidean => {
                let finish = Finish::Euclidean { factor };
                sweep.rows(&a, coords, n, sq_diff, finish, out);
            }
            PointKernel::Cosine => {
                let (nu, norms) = (self.norms[u], self.norms.as_slice());
                let finish = Finish::Cosine { factor, nu, norms };
                sweep.rows(&a, coords, n, mul, finish, out);
            }
        }
        out[u] = pivot;
    }
}

impl Metric for PointMetric {
    fn len(&self) -> usize {
        self.n
    }

    fn distance(&self, u: ElementId, v: ElementId) -> f64 {
        let (u, v) = (u as usize, v as usize);
        assert!(u < self.n && v < self.n, "element out of range");
        if u == v {
            return 0.0;
        }
        self.kernel_pair(u, v)
    }

    /// Interleaved block sweep over the coordinate rows (see the module
    /// docs): every written value is bit-identical to `factor · d(u, v)`,
    /// and the pivot row is skipped.
    fn accumulate_distances(&self, u: ElementId, out: &mut [f64], factor: f64) {
        let u = u as usize;
        assert!(u < self.n, "element out of range");
        assert!(out.len() >= self.n, "output buffer too small");
        self.accumulate_with(Sweep::Dispatched, u, out, factor);
    }

    /// Copies the rows `ids` into a compact `PointMetric` whose row sweeps
    /// read them contiguously; `None` if `ids` repeats an element.
    fn compact_rows(&self, ids: &[ElementId]) -> Option<PointMetric> {
        let mut seen = vec![false; self.n];
        let mut coords = Vec::with_capacity(ids.len() * self.dim);
        for &id in ids {
            if std::mem::replace(&mut seen[id as usize], true) {
                return None;
            }
            self.copy_row(id as usize, &mut coords);
        }
        Some(Self::from_flat(self.kernel, ids.len(), self.dim, coords))
    }
}

/// Number of rows stored in interleaved blocks; the rest are the
/// row-major tail. A zero-dimensional metric has no blocks.
#[inline]
fn blocked_rows(n: usize, dim: usize) -> usize {
    if dim == 0 {
        0
    } else {
        n - n % BLOCK
    }
}

/// Which compiled copy of the row sweep runs.
#[derive(Debug, Clone, Copy)]
enum Sweep {
    /// The copy compiled for the build's baseline target.
    #[cfg_attr(not(test), allow(dead_code))]
    Portable,
    /// The AVX2 copy when the running CPU has AVX2, else the portable one.
    Dispatched,
}

impl Sweep {
    /// [`sweep_rows`] through the selected copy.
    #[inline(always)]
    #[allow(unsafe_code)]
    fn rows(
        self,
        a: &[f64],
        coords: &[f64],
        n: usize,
        term: impl Fn(f64, f64) -> f64 + Copy,
        finish: Finish<'_>,
        out: &mut [f64],
    ) {
        #[cfg(target_arch = "x86_64")]
        if matches!(self, Sweep::Dispatched) && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the running CPU supports AVX2, checked just above.
            unsafe { sweep_rows_avx2(a, coords, n, term, finish, out) };
            return;
        }
        sweep_rows(a, coords, n, term, finish, out);
    }

    /// [`interleave`] through the selected copy.
    #[inline(always)]
    #[allow(unsafe_code)]
    fn interleave(self, coords: &mut [f64], n: usize, dim: usize, check: impl FnMut(&[f64], f64)) {
        #[cfg(target_arch = "x86_64")]
        if matches!(self, Sweep::Dispatched) && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the running CPU supports AVX2, checked just above.
            unsafe { interleave_avx2(coords, n, dim, check) };
            return;
        }
        interleave(coords, n, dim, check);
    }
}

/// [`sweep_rows`] compiled with AVX2 enabled. FMA stays disabled, so each
/// sum rounds every term before adding it, as the portable copy does.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
unsafe fn sweep_rows_avx2(
    a: &[f64],
    coords: &[f64],
    n: usize,
    term: impl Fn(f64, f64) -> f64 + Copy,
    finish: Finish<'_>,
    out: &mut [f64],
) {
    sweep_rows(a, coords, n, term, finish, out);
}

/// [`interleave`] compiled with AVX2 enabled (and FMA disabled).
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
unsafe fn interleave_avx2(
    coords: &mut [f64],
    n: usize,
    dim: usize,
    check: impl FnMut(&[f64], f64),
) {
    interleave(coords, n, dim, check);
}

/// Panics for a row whose squared norm failed the [`MAX_SQUARED_NORM`]
/// check, naming the cause: a non-finite coordinate or finite coordinates
/// too large for finite distances.
#[cold]
fn reject_row(row: &[f64]) -> ! {
    assert!(
        row.iter().all(|c| c.is_finite()),
        "coordinates must be finite"
    );
    panic!("coordinate row norm too large: squared norm exceeds f64::MAX / 8");
}

/// `(x − y)²`, the Euclidean kernel's per-dimension term.
#[inline(always)]
fn sq_diff(x: f64, y: f64) -> f64 {
    let d = x - y;
    d * d
}

/// `x · y`, the cosine kernel's per-dimension term.
#[inline(always)]
fn mul(x: f64, y: f64) -> f64 {
    x * y
}

/// `y²`, the squared-norm term (the pivot entry is ignored).
#[inline(always)]
fn square(_: f64, y: f64) -> f64 {
    y * y
}

/// `1 − clamp(dot / denom)`, with similarity 0 when a norm is zero —
/// exactly [`Point::cosine_distance`]'s epilogue.
#[inline(always)]
fn cosine_from_dot(dot: f64, denom: f64) -> f64 {
    let sim = if denom == 0.0 {
        0.0
    } else {
        (dot / denom).clamp(-1.0, 1.0)
    };
    1.0 - sim
}

/// One row of the coordinate store.
#[derive(Clone, Copy)]
enum Row<'a> {
    /// Lane `j` of each group of [`BLOCK`] in an interleaved block.
    Lane(&'a [[f64; BLOCK]], usize),
    /// A row-major tail row.
    Flat(&'a [f64]),
}

/// `Σ_k term(a[k], r[k])` in increasing `k` with one accumulator that
/// starts at `−0.0`, the identity `Iterator::sum` starts from.
#[inline(always)]
fn row_sum(
    a: impl Iterator<Item = f64>,
    r: impl Iterator<Item = f64>,
    term: impl Fn(f64, f64) -> f64,
) -> f64 {
    let mut acc = -0.0;
    for (x, y) in a.zip(r) {
        acc += term(x, y);
    }
    acc
}

/// [`row_sum`] over two stored rows, each read in its own layout.
#[inline(always)]
fn pair_sum(a: Row<'_>, b: Row<'_>, term: impl Fn(f64, f64) -> f64) -> f64 {
    fn lane(groups: &[[f64; BLOCK]], j: usize) -> impl Iterator<Item = f64> + '_ {
        groups.iter().map(move |lanes| lanes[j])
    }
    match (a, b) {
        (Row::Lane(x, i), Row::Lane(y, j)) => row_sum(lane(x, i), lane(y, j), term),
        (Row::Lane(x, i), Row::Flat(y)) => row_sum(lane(x, i), y.iter().copied(), term),
        (Row::Flat(x), Row::Lane(y, j)) => row_sum(x.iter().copied(), lane(y, j), term),
        (Row::Flat(x), Row::Flat(y)) => row_sum(x.iter().copied(), y.iter().copied(), term),
    }
}

/// The epilogue of `accumulate_distances`: `out[v] += factor · d(u, v)`
/// from row `v`'s sum. A value with an `#[inline(always)]` method rather
/// than a closure, so the AVX2 copy of the sweep compiles it inline.
#[derive(Clone, Copy)]
enum Finish<'a> {
    /// `d = √sum`.
    Euclidean { factor: f64 },
    /// `d` from the dot product and the norms `nu · norms[v]`.
    Cosine {
        factor: f64,
        nu: f64,
        norms: &'a [f64],
    },
}

impl Finish<'_> {
    /// Adds the distances of rows `first..first + sums.len()` to `out`
    /// (already narrowed to those rows).
    #[inline(always)]
    fn pass(self, out: &mut [f64], first: usize, sums: &[f64]) {
        match self {
            Finish::Euclidean { factor } => {
                for (o, sq) in out.iter_mut().zip(sums) {
                    *o += factor * sq.sqrt();
                }
            }
            Finish::Cosine { factor, nu, norms } => {
                let norms = &norms[first..first + sums.len()];
                for ((o, dot), nv) in out.iter_mut().zip(sums).zip(norms) {
                    *o += factor * cosine_from_dot(*dot, nu * nv);
                }
            }
        }
    }
}

/// The row sweep behind `accumulate_distances`. It computes
/// `Σ_k term(a[k], x_v[k])` for each of the `n` rows `x_v` of the
/// interleaved store `coords` (`a.len()` wide), [`PASS`] rows at a time
/// into a stack buffer, and hands each pass to [`Finish::pass`], whose
/// epilogue is then a plain slice loop that vectorizes too. Blocks go
/// through [`block_sums`] and the tail rows through the scalar
/// [`row_sum`]; each row's sum is the same single-accumulator,
/// increasing-`k` sum in both paths. With `dim == 0` every sum is empty.
#[inline(always)]
fn sweep_rows(
    a: &[f64],
    coords: &[f64],
    n: usize,
    term: impl Fn(f64, f64) -> f64 + Copy,
    finish: Finish<'_>,
    out: &mut [f64],
) {
    let dim = a.len();
    debug_assert_eq!(coords.len(), n * dim);
    let blocked = blocked_rows(n, dim);
    let mut sums = [-0.0f64; PASS];
    for first in (0..n).step_by(PASS) {
        let end = n.min(first + PASS);
        // A pass holds whole blocks, then (in the last pass) the tail.
        let mid = end.min(blocked).max(first);
        if dim > 0 {
            let groups = sums.as_chunks_mut::<BLOCK>().0;
            let blocks = coords[first * dim..mid * dim].chunks_exact(BLOCK * dim);
            for (group, block) in groups.iter_mut().zip(blocks) {
                *group = block_sums(a, block, term);
            }
            let tail = coords[mid * dim..end * dim].chunks_exact(dim);
            for (sum, r) in sums[mid - first..].iter_mut().zip(tail) {
                *sum = row_sum(a.iter().copied(), r.iter().copied(), term);
            }
        }
        finish.pass(&mut out[first..end], first, &sums[..end - first]);
    }
}

/// Converts `n` row-major rows `coords` (`dim` wide) to the interleaved
/// layout in place and calls `check(row, Σ_k row[k]²)` for every row, in
/// order. Each block is copied to one block-sized scratch and written back
/// by dimension; its norms come from [`block_sums`] over the interleaved
/// block while it is still in cache.
#[inline(always)]
fn interleave(coords: &mut [f64], n: usize, dim: usize, mut check: impl FnMut(&[f64], f64)) {
    debug_assert_eq!(coords.len(), n * dim);
    if dim == 0 {
        (0..n).for_each(|_| check(&[], -0.0));
        return;
    }
    let (blocks, tail) = coords.split_at_mut(blocked_rows(n, dim) * dim);
    let mut scratch = vec![0.0; BLOCK * dim];
    for block in blocks.chunks_exact_mut(BLOCK * dim) {
        scratch.copy_from_slice(block);
        let rows: [&[f64]; BLOCK] = std::array::from_fn(|j| &scratch[j * dim..(j + 1) * dim]);
        for (k, lanes) in block.as_chunks_mut::<BLOCK>().0.iter_mut().enumerate() {
            *lanes = rows.map(|r| r[k]);
        }
        let sums = block_sums(&scratch[..dim], block, square);
        for (row, sq) in scratch.chunks_exact(dim).zip(sums) {
            check(row, sq);
        }
    }
    for row in tail.chunks_exact(dim) {
        check(
            row,
            row_sum(row.iter().copied(), row.iter().copied(), square),
        );
    }
}

/// [`BLOCK`] independent row sums over one interleaved `BLOCK · dim`
/// block: for each `k`, the eight `acc[j] += term(a[k], lane[j])` updates
/// read one contiguous group of eight lanes, so they vectorize.
#[inline(always)]
fn block_sums(a: &[f64], block: &[f64], term: impl Fn(f64, f64) -> f64) -> [f64; BLOCK] {
    let mut acc = [-0.0f64; BLOCK];
    for (&x, lanes) in a.iter().zip(block.as_chunks::<BLOCK>().0) {
        for j in 0..BLOCK {
            acc[j] += term(x, lanes[j]);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{CosineMetric, EuclideanMetric};
    use crate::DistanceMatrix;

    fn sample_points(n: usize, dim: usize) -> Vec<Point> {
        (0..n)
            .map(|u| {
                Point::new(
                    (0..dim)
                        .map(|k| ((u * 31 + k * 7) % 17) as f64 * 0.25 - 2.0)
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    #[test]
    fn euclidean_matches_lazy_wrapper_bitwise() {
        let pts = sample_points(13, 5);
        let implicit = PointMetric::euclidean(&pts);
        let lazy = EuclideanMetric::new(pts);
        for u in 0..13u32 {
            for v in 0..13u32 {
                if u == v {
                    assert_eq!(implicit.distance(u, v), 0.0);
                } else {
                    assert_eq!(implicit.distance(u, v), lazy.distance(u, v), "({u},{v})");
                }
            }
        }
    }

    #[test]
    fn cosine_matches_lazy_wrapper_off_diagonal() {
        let pts = sample_points(11, 4);
        let implicit = PointMetric::cosine(&pts);
        let lazy = CosineMetric::new(pts);
        for u in 0..11u32 {
            for v in 0..11u32 {
                if u != v {
                    assert_eq!(implicit.distance(u, v), lazy.distance(u, v), "({u},{v})");
                }
            }
        }
    }

    #[test]
    fn accumulate_is_bit_identical_to_materialized_matrix() {
        for (n, dim) in [(1usize, 3usize), (7, 1), (8, 4), (9, 4), (23, 6)] {
            let pts = sample_points(n, dim);
            for metric in [PointMetric::euclidean(&pts), PointMetric::cosine(&pts)] {
                let dense = DistanceMatrix::from_metric(&metric);
                for u in 0..n as ElementId {
                    let mut got = vec![0.1; n];
                    let mut want = vec![0.1; n];
                    metric.accumulate_distances(u, &mut got, -0.75);
                    dense.accumulate_distances(u, &mut want, -0.75);
                    assert_eq!(got, want, "n={n} dim={dim} u={u}");
                }
            }
        }
    }

    #[test]
    fn zero_dim_and_zero_vectors_are_well_defined() {
        let m = PointMetric::from_flat(PointKernel::Cosine, 3, 0, Vec::new());
        assert_eq!(m.distance(0, 0), 0.0);
        assert_eq!(m.distance(0, 1), 1.0); // zero vectors: sim 0 → d = 1
        let e = PointMetric::from_flat(PointKernel::Euclidean, 2, 0, Vec::new());
        assert_eq!(e.distance(0, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "coords must be n·dim")]
    fn flat_length_mismatch_panics() {
        let _ = PointMetric::from_flat(PointKernel::Euclidean, 3, 2, vec![0.0; 5]);
    }

    #[test]
    #[should_panic(expected = "coords must be n·dim")]
    fn flat_length_overflow_panics() {
        let _ = PointMetric::from_flat(PointKernel::Euclidean, 1 << 33, 1 << 31, Vec::new());
    }

    /// Two rows of two coordinates, the last one `c`.
    fn with_last_coordinate(kernel: PointKernel, c: f64) -> PointMetric {
        PointMetric::from_flat(kernel, 2, 2, vec![1.0, -2.0, 0.5, c])
    }

    #[test]
    #[should_panic(expected = "coordinates must be finite")]
    fn euclidean_nan_coordinate_panics() {
        let _ = with_last_coordinate(PointKernel::Euclidean, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "coordinates must be finite")]
    fn cosine_nan_coordinate_panics() {
        let _ = with_last_coordinate(PointKernel::Cosine, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "coordinates must be finite")]
    fn euclidean_infinite_coordinate_panics() {
        let _ = with_last_coordinate(PointKernel::Euclidean, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "coordinates must be finite")]
    fn cosine_infinite_coordinate_panics() {
        let _ = with_last_coordinate(PointKernel::Cosine, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "coordinate row norm too large")]
    fn euclidean_huge_coordinate_panics() {
        // Finite, but d(0, 1) would overflow to +inf.
        let _ = with_last_coordinate(PointKernel::Euclidean, 1e200);
    }

    #[test]
    #[should_panic(expected = "coordinate row norm too large")]
    fn cosine_huge_coordinate_panics() {
        // Finite, but the dot product overflows and d(0, 1) would be NaN.
        let _ = PointMetric::from_flat(PointKernel::Cosine, 2, 2, vec![1e200, 1e200, 1e200, 3e199]);
    }

    #[test]
    fn largest_accepted_rows_give_finite_distances() {
        let c = (MAX_SQUARED_NORM / 2.0).sqrt();
        let coords = vec![c, c, -c, -c, c, -c];
        for kernel in [PointKernel::Euclidean, PointKernel::Cosine] {
            let m = PointMetric::from_flat(kernel, 3, 2, coords.clone());
            let mut row = vec![0.0; 3];
            m.accumulate_distances(0, &mut row, 1.0);
            for v in 0..3u32 {
                assert!(m.distance(0, v).is_finite(), "{kernel:?} d(0,{v})");
            }
            assert!(row.iter().all(|d| d.is_finite()), "{kernel:?} {row:?}");
        }
    }

    /// Nine rows of two coordinates; row 3, inside block 0, ends in `c`.
    fn with_block_row_coordinate(kernel: PointKernel, c: f64) -> PointMetric {
        let mut coords: Vec<f64> = (0..18).map(|i| f64::from(i) * 0.25 - 1.0).collect();
        coords[3 * 2 + 1] = c;
        PointMetric::from_flat(kernel, 9, 2, coords)
    }

    #[test]
    #[should_panic(expected = "coordinates must be finite")]
    fn euclidean_nan_block_row_panics() {
        let _ = with_block_row_coordinate(PointKernel::Euclidean, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "coordinates must be finite")]
    fn cosine_nan_block_row_panics() {
        let _ = with_block_row_coordinate(PointKernel::Cosine, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "coordinates must be finite")]
    fn euclidean_infinite_block_row_panics() {
        let _ = with_block_row_coordinate(PointKernel::Euclidean, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "coordinates must be finite")]
    fn cosine_infinite_block_row_panics() {
        let _ = with_block_row_coordinate(PointKernel::Cosine, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "coordinate row norm too large")]
    fn euclidean_huge_block_row_panics() {
        let _ = with_block_row_coordinate(PointKernel::Euclidean, 1e200);
    }

    #[test]
    #[should_panic(expected = "coordinate row norm too large")]
    fn cosine_huge_block_row_panics() {
        let _ = with_block_row_coordinate(PointKernel::Cosine, 1e200);
    }

    /// `n` pseudo-random `dim`-wide points with negative entries; every
    /// row `u ≡ 5 (mod 97)` is all zero.
    fn random_points(n: usize, dim: usize) -> Vec<Point> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|u| {
                let coords: Vec<f64> = (0..dim)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.4) * 3.0
                    })
                    .collect();
                if u % 97 == 5 {
                    Point::origin(dim)
                } else {
                    Point::new(coords)
                }
            })
            .collect()
    }

    /// Both kernels over `pts`, each beside its `Point` reference wrapper.
    fn with_references(pts: &[Point]) -> [(PointMetric, Box<dyn Metric>); 2] {
        [
            (
                PointMetric::euclidean(pts),
                Box::new(EuclideanMetric::new(pts.to_vec())),
            ),
            (
                PointMetric::cosine(pts),
                Box::new(CosineMetric::new(pts.to_vec())),
            ),
        ]
    }

    /// Checks the row of `u` written by `accumulate` (starting from 0.125,
    /// scaled by `factor`) against `reference`, bit for bit.
    fn assert_row_matches(
        reference: &dyn Metric,
        u: ElementId,
        factor: f64,
        accumulate: impl FnOnce(&mut [f64]),
        what: &str,
    ) {
        let n = reference.len();
        let mut got = vec![0.125; n];
        accumulate(&mut got);
        for v in 0..n as ElementId {
            let want = if u == v {
                0.125
            } else {
                0.125 + factor * reference.distance(u, v)
            };
            assert_eq!(
                got[v as usize].to_bits(),
                want.to_bits(),
                "{what} u={u} v={v}"
            );
        }
    }

    /// Point reads equal `reference` bit for bit, with 0 on the diagonal.
    fn assert_reads_match(metric: &PointMetric, reference: &dyn Metric, u: ElementId) {
        for v in 0..reference.len() as ElementId {
            let want = if u == v {
                0.0
            } else {
                reference.distance(u, v)
            };
            assert_eq!(
                metric.distance(u, v).to_bits(),
                want.to_bits(),
                "u={u} v={v}"
            );
        }
    }

    /// Block-boundary shapes (`n mod 8 ∈ {0, 1, 7}`, `dim ∈ {0, 1, 46}`):
    /// the dispatched sweep, the portable copy called directly and point
    /// reads all equal the `Point` reference bit for bit, and both copies
    /// of the `from_flat` pass agree. The direct calls cover the portable
    /// copy on hosts where dispatch picks AVX2.
    #[test]
    fn block_boundaries_match_point_reference_in_both_sweeps() {
        for n in [8usize, 9, 15] {
            for dim in [0usize, 1, 46] {
                for (metric, reference) in with_references(&random_points(n, dim)) {
                    let what = format!("{:?} n={n} dim={dim}", metric.kernel());
                    for u in 0..n as ElementId {
                        assert_row_matches(
                            reference.as_ref(),
                            u,
                            -1.5,
                            |out| metric.accumulate_distances(u, out, -1.5),
                            &format!("{what} dispatched"),
                        );
                        assert_row_matches(
                            reference.as_ref(),
                            u,
                            -1.5,
                            |out| metric.accumulate_with(Sweep::Portable, u as usize, out, -1.5),
                            &format!("{what} portable"),
                        );
                        assert_reads_match(&metric, reference.as_ref(), u);
                    }
                }
                // The from_flat pass: same layout and squared norms from
                // both copies.
                let flat: Vec<f64> = random_points(n, dim)
                    .iter()
                    .flat_map(|p| p.coords().to_vec())
                    .collect();
                let [mut portable, mut dispatched] = [flat.clone(), flat];
                let (mut portable_sq, mut dispatched_sq) = (Vec::new(), Vec::new());
                Sweep::Portable.interleave(&mut portable, n, dim, |_, sq| portable_sq.push(sq));
                Sweep::Dispatched.interleave(&mut dispatched, n, dim, |_, sq| {
                    dispatched_sq.push(sq);
                });
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&portable), bits(&dispatched), "n={n} dim={dim}");
                assert_eq!(bits(&portable_sq), bits(&dispatched_sq), "n={n} dim={dim}");
                assert_eq!(portable_sq.len(), n);
            }
        }
    }

    /// The benchmark's shape (`dim = 46`) with `n = 1003`: a `n % BLOCK`
    /// tail, negative entries and all-zero rows. Row sweeps and point reads
    /// must equal the `Point` reference wrappers bit for bit.
    #[test]
    fn sweeps_and_reads_match_point_reference_at_benchmark_shape() {
        let (n, dim) = (1003usize, 46usize);
        for (metric, reference) in with_references(&random_points(n, dim)) {
            for u in [0, 5, 7, 8, 500, 1001, 1002] {
                for factor in [-1.5, 1.0] {
                    assert_row_matches(
                        reference.as_ref(),
                        u,
                        factor,
                        |out| metric.accumulate_distances(u, out, factor),
                        "dispatched",
                    );
                }
                assert_reads_match(&metric, reference.as_ref(), u);
            }
        }
    }
}
