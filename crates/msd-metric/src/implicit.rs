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
//! # Fixed-width row sweep
//!
//! One routine computes every run of consecutive row sums: the
//! `accumulate_distances` row and the squared norms of
//! [`PointMetric::from_flat`]. It takes candidate rows `BLOCK = 8` at a
//! time with `chunks_exact`, splits each block into eight `dim`-long row
//! slices, and for each dimension `k` does eight independent
//! `acc[j] += term(a[k], r_j[k])` updates; the `n mod 8` tail takes a
//! scalar loop, and `dim = 0` gives empty sums.
//! The fixed width is what matters: over a variable-width block every
//! access is bounds-checked and the accumulators live in memory, so a row
//! costs about as much as `n` separate point reads. On a 2-vCPU x86-64 VM
//! one 1000 × 46 cosine row takes ~17 µs this way against ~30–45 µs for a
//! variable-width block.
//!
//! The coordinates stay row-major, so memory, [`PointMetric::coords`] and
//! point reads are unchanged. An 8-row transposed layout was measured too:
//! its sweep is faster still (~12–15 µs per 1000 × 46 cosine row against
//! ~15–22 µs), but the transpose alone costs 25–38 µs and a `from_flat`
//! that performed it took 340–425 µs per build. Every one-shot rerank
//! builds a fresh metric, so it loses end to end.
//!
//! # Bit-identity contract
//!
//! `PointMetric` is *bit-identical* to the reference pipeline
//! `DistanceMatrix::from_metric(&functions::EuclideanMetric /* or cosine */)`:
//! every per-pair distance sums dimensions in increasing order with a single
//! `f64` accumulator (exactly like [`Point::euclidean`] /
//! [`Point::cosine_distance`]), and `accumulate_distances` issues exactly one
//! fused `out[v] += factor · d(u, v)` per candidate. The blocked sweep
//! interleaves *candidates*, never the per-pair dimension order, so
//! greedy/local-search/session runs over a `PointMetric` select the same
//! elements as over the materialized matrix. The property suite in
//! `tests/proptests.rs` pins this down (odd tails, empty rows, negative
//! factors), and a unit test checks the benchmark's shape against the
//! `Point` wrappers directly.
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

use crate::point::Point;
use crate::{ElementId, Metric};

/// Candidate rows processed per register block of the row sweep.
const BLOCK: usize = 8;

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
/// See the [module docs](self) for the bit-identity contract and the
/// coordinate bound.
#[derive(Debug, Clone)]
pub struct PointMetric {
    /// Row-major `n × dim` coordinates.
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
    /// One blocked pass computes every row's squared norm: it yields the
    /// cosine norms and rejects any row that could make a distance
    /// non-finite (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `n · dim` overflows or differs from `coords.len()`, if any
    /// coordinate is non-finite, or if a row's squared norm exceeds
    /// `f64::MAX / 8`.
    pub fn from_flat(kernel: PointKernel, n: usize, dim: usize, coords: Vec<f64>) -> Self {
        assert!(
            n.checked_mul(dim) == Some(coords.len()),
            "coords must be n·dim row-major"
        );
        let mut norms = Vec::with_capacity(if kernel == PointKernel::Cosine { n } else { 0 });
        // Only the row entries are read (`term` ignores `x`); with n = 0
        // there are no rows and the pivot may be empty.
        let pivot = coords.get(..dim).unwrap_or_default();
        sweep_rows(
            pivot,
            &coords,
            n,
            |_, y| y * y,
            |u, sq| {
                if sq.is_nan() || sq > MAX_SQUARED_NORM {
                    reject_row(&coords[u * dim..(u + 1) * dim]);
                }
                if kernel == PointKernel::Cosine {
                    // Same accumulation as Point::dot(self).sqrt().
                    norms.push(sq.sqrt());
                }
            },
        );
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

    /// Row-major flat coordinates (`n × dim`).
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Per-pair kernel, bit-identical to [`Point::euclidean`] /
    /// [`Point::cosine_distance`] on the backing rows (`u ≠ v`).
    #[inline]
    fn kernel_pair(&self, u: usize, v: usize) -> f64 {
        let a = self.row(u);
        let b = self.row(v);
        match self.kernel {
            PointKernel::Euclidean => row_sum(a, b, sq_diff).sqrt(),
            PointKernel::Cosine => {
                cosine_from_dot(row_sum(a, b, mul), self.norms[u] * self.norms[v])
            }
        }
    }

    /// Coordinates of element `u`.
    #[inline]
    fn row(&self, u: usize) -> &[f64] {
        &self.coords[u * self.dim..(u + 1) * self.dim]
    }

    /// Calls `emit(v, d(u, v))` for every `v` through the fixed-width
    /// block sweep. The value emitted for `v == u` is the kernel's
    /// self-distance formula, not 0: callers skip or overwrite it.
    #[inline]
    fn for_each_distance(&self, u: usize, mut emit: impl FnMut(usize, f64)) {
        let a = self.row(u);
        match self.kernel {
            PointKernel::Euclidean => {
                sweep_rows(a, &self.coords, self.n, sq_diff, |v, sq| emit(v, sq.sqrt()));
            }
            PointKernel::Cosine => {
                let nu = self.norms[u];
                let nv = &self.norms;
                sweep_rows(a, &self.coords, self.n, mul, |v, dot| {
                    emit(v, cosine_from_dot(dot, nu * nv[v]));
                });
            }
        }
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

    /// Fixed-width block sweep over the coordinate rows (see the module
    /// docs): every written value is bit-identical to `factor · d(u, v)`,
    /// and the pivot row is skipped.
    fn accumulate_distances(&self, u: ElementId, out: &mut [f64], factor: f64) {
        let u = u as usize;
        assert!(u < self.n, "element out of range");
        assert!(out.len() >= self.n, "output buffer too small");
        let out = &mut out[..self.n];
        self.for_each_distance(u, |v, d| {
            if v != u {
                out[v] += factor * d;
            }
        });
    }
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

/// `Σ_k term(a[k], r[k])` in increasing `k` with one accumulator.
#[inline(always)]
fn row_sum(a: &[f64], r: &[f64], term: impl Fn(f64, f64) -> f64) -> f64 {
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(r) {
        acc += term(x, y);
    }
    acc
}

/// The row sweep shared by `accumulate_distances` and the norm pass:
/// calls `emit(j, Σ_k term(a[k], r_j[k]))` for each of the `count` rows
/// `r_j` of `rows` (row-major, `a.len()` wide), in order.
/// Rows go [`BLOCK`] at a time through [`block_sums`] and the
/// `count % BLOCK` tail through the scalar [`row_sum`]; each row's sum is
/// the same single-accumulator, increasing-`k` sum in both paths. With
/// `dim == 0` every sum is empty (0), and `chunks_exact` must not see a
/// zero width.
#[inline(always)]
fn sweep_rows(
    a: &[f64],
    rows: &[f64],
    count: usize,
    term: impl Fn(f64, f64) -> f64 + Copy,
    mut emit: impl FnMut(usize, f64),
) {
    let dim = a.len();
    debug_assert_eq!(rows.len(), count * dim);
    if dim == 0 {
        (0..count).for_each(|j| emit(j, 0.0));
        return;
    }
    let mut blocks = rows.chunks_exact(BLOCK * dim);
    for (b, block) in (&mut blocks).enumerate() {
        for (j, s) in block_sums(a, block, term).into_iter().enumerate() {
            emit(b * BLOCK + j, s);
        }
    }
    let first = count - count % BLOCK;
    for (j, r) in blocks.remainder().chunks_exact(dim).enumerate() {
        emit(first + j, row_sum(a, r, term));
    }
}

/// `BLOCK` independent row sums over one `BLOCK · dim` block: for each `k`,
/// eight `acc[j] += term(a[k], r_j[k])` updates. The block is split into
/// fixed-length row slices up front, so the loop carries no bounds checks
/// and the accumulators stay in registers.
#[inline(always)]
fn block_sums(a: &[f64], block: &[f64], term: impl Fn(f64, f64) -> f64) -> [f64; BLOCK] {
    let dim = a.len();
    let (r0, rest) = block.split_at(dim);
    let (r1, rest) = rest.split_at(dim);
    let (r2, rest) = rest.split_at(dim);
    let (r3, rest) = rest.split_at(dim);
    let (r4, rest) = rest.split_at(dim);
    let (r5, rest) = rest.split_at(dim);
    let (r6, r7) = rest.split_at(dim);
    let r7 = &r7[..dim];
    let mut acc = [0.0f64; BLOCK];
    for k in 0..dim {
        let x = a[k];
        acc[0] += term(x, r0[k]);
        acc[1] += term(x, r1[k]);
        acc[2] += term(x, r2[k]);
        acc[3] += term(x, r3[k]);
        acc[4] += term(x, r4[k]);
        acc[5] += term(x, r5[k]);
        acc[6] += term(x, r6[k]);
        acc[7] += term(x, r7[k]);
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

    /// The benchmark's shape (`dim = 46`) with `n = 1003`: a `n % BLOCK`
    /// tail, negative entries and all-zero rows. Row sweeps and point reads
    /// must equal the `Point` reference wrappers bit for bit.
    #[test]
    fn sweeps_and_reads_match_point_reference_at_benchmark_shape() {
        let (n, dim) = (1003usize, 46usize);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let pts: Vec<Point> = (0..n)
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
            .collect();
        let cases: [(PointMetric, Box<dyn Metric>); 2] = [
            (
                PointMetric::euclidean(&pts),
                Box::new(EuclideanMetric::new(pts.clone())),
            ),
            (
                PointMetric::cosine(&pts),
                Box::new(CosineMetric::new(pts.clone())),
            ),
        ];
        for (metric, reference) in cases {
            for u in [0, 5, 7, 8, 500, 1001, 1002] {
                for factor in [-1.5, 1.0] {
                    let mut got = vec![0.125; n];
                    metric.accumulate_distances(u, &mut got, factor);
                    for v in 0..n as ElementId {
                        let want = if u == v {
                            0.125
                        } else {
                            0.125 + factor * reference.distance(u, v)
                        };
                        assert_eq!(got[v as usize].to_bits(), want.to_bits(), "u={u} v={v}");
                    }
                }
                for v in 0..n as ElementId {
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
        }
    }
}
