//! Day-level cache answering windowed moments from one copy of a day.
//!
//! The `ntc_datacenter` week simulation produces one day-ahead forecast
//! per day and then re-plans EPACT on every hourly slot of that day —
//! 24 windows into the *same* underlying series. Rebuilding a
//! [`CorrelationCache`](crate::CorrelationCache) from scratch per slot
//! copies, re-centers and re-multiplies every series 24 times.
//! [`DayCache`] holds the day's raw values once and answers, for a
//! window `[a, b)` of width `w`:
//!
//! ```text
//! mean      = stats::mean(x[a..b])
//! variance  = stats::variance(x[a..b])
//! cov(x, y) = (Σ_{a≤s<b} x[s]·y[s]) / w − mean_x · mean_y
//! ```
//!
//! Means and variances are the exact two-pass moments of the window
//! slice; the covariance's product sums come from a memoized window
//! plane.
//!
//! # Window planes
//!
//! A cache carries a block size, and every covariance window must start
//! and end on a multiple of it. [`DayCache::new`] uses one-sample
//! blocks, which accept any window; the week simulation builds with
//! [`DayCache::with_block_size`] at the samples-per-slot grid and only
//! asks slot windows. The pair product sums of a window are computed
//! wholesale into one contiguous triangular *window plane* —
//! `num_pairs` wide, entry `hi·(hi+1)/2 + lo` — memoized for the last
//! window asked. Every admit of a packing run over that window streams
//! the one compact plane (L2-resident), and the next window reuses the
//! plane's allocation.
//!
//! A pair's window sum is defined block by block: each block
//! contributes a four-lane dot product — lanes started at `0.0` over
//! the block's samples in chunks of four, combined
//! `(l0 + l1) + (l2 + l3)`, then the leftover samples added in order —
//! and the blocks are summed `0.0 + d[k0] + … + d[k1−1]` in block
//! order. The fill computes exactly that, one block at a time: the
//! block is transposed sample-major and each triangular row is computed
//! across four `lo` pairs at once, so one register tile streams four
//! contiguous values per sample against a broadcast of series `hi`.
//! The tiling changes speed, never bits. The scalar
//! [`DayCache::window_covariance_with_means`] reads the same plane as
//! the bulk [`DayCache::accumulate_window_covariances`], so the two
//! agree bit for bit.
//!
//! The uncentered covariance form trades a little precision for
//! sharing one plane across every pair query of a window: it agrees
//! with the centered [`stats::covariance`](crate::stats::covariance) to
//! rounding, not bit for bit, and can cancel on near-constant windows.
//! Means and variances carry no such error, which is why
//! [`CorrelationCache::from_day_window`](crate::CorrelationCache::from_day_window)
//! takes its per-series moments from [`DayCache::window_mean`] and
//! [`DayCache::window_variance`].
//!
//! # Examples
//!
//! ```
//! use ntc_trace::{stats, DayCache, TimeSeries};
//!
//! let day = DayCache::new(&[
//!     TimeSeries::from_values(vec![1.0, 2.0, 3.0, 4.0]),
//!     TimeSeries::from_values(vec![4.0, 3.0, 2.0, 1.0]),
//! ]);
//! let direct = stats::covariance(&[2.0, 3.0], &[3.0, 2.0]);
//! assert!((day.window_covariance(0, 1, 1..3) - direct).abs() < 1e-12);
//! ```

use std::borrow::Borrow;
use std::cell::{RefCell, RefMut};
use std::ops::Range;

use crate::{stats, TimeSeries};

/// Why a series set cannot back a cache.
///
/// [`std::fmt::Display`] reproduces the wording of the legacy assertion
/// messages so panicking wrappers stay drop-in compatible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The series set was empty.
    EmptySeriesSet,
    /// The series in the set have differing lengths.
    RaggedSeries,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::EmptySeriesSet => write!(f, "correlation cache needs a series set"),
            Error::RaggedSeries => write!(f, "all series must cover the same slot"),
        }
    }
}

impl std::error::Error for Error {}

/// The window plane of the last window asked for, and that window;
/// `None` until the first covariance query.
#[derive(Debug, Default)]
struct WindowPlane {
    window: Option<Range<usize>>,
    sums: Vec<f64>,
}

/// One day of equal-length series answering windowed means, variances
/// and pair covariances. Covariances read a triangular plane of pair
/// product sums, built block by block for the last window asked and
/// reused until a different window is asked; every covariance window
/// must start and end on the cache's block grid.
#[derive(Debug)]
pub struct DayCache {
    num_series: usize,
    len: usize,
    /// Block granularity of the window planes (≥ 1, divides `len`).
    block: usize,
    /// Row-major `num_series × len` raw values.
    values: Vec<f64>,
    plane: RefCell<WindowPlane>,
}

impl DayCache {
    /// Builds the day cache with one-sample blocks, so every window is
    /// on the grid. Construction only copies the raw values; the
    /// window plane is computed on first use.
    ///
    /// Fails with [`Error::EmptySeriesSet`] on an empty slice and
    /// [`Error::RaggedSeries`] when the series lengths differ.
    pub fn try_new(series: &[TimeSeries]) -> Result<Self, Error> {
        Self::try_with_block_size(series, 1)
    }

    /// [`try_new`](Self::try_new) with window planes summed in blocks
    /// of `block` samples, for windows that start and end on multiples
    /// of `block`. A `block` that is zero or does not divide the day
    /// length falls back to one-sample blocks. The series may be owned
    /// or borrowed (`&[TimeSeries]` or `&[&TimeSeries]`).
    pub fn try_with_block_size<S: Borrow<TimeSeries>>(
        series: &[S],
        block: usize,
    ) -> Result<Self, Error> {
        if series.is_empty() {
            return Err(Error::EmptySeriesSet);
        }
        let len = series[0].borrow().len();
        if series.iter().any(|s| s.borrow().len() != len) {
            return Err(Error::RaggedSeries);
        }
        let num_series = series.len();
        let mut values = Vec::with_capacity(num_series * len);
        for s in series {
            values.extend_from_slice(s.borrow().values());
        }
        let block = if block > 0 && len.is_multiple_of(block) {
            block
        } else {
            1
        };
        Ok(Self {
            num_series,
            len,
            block,
            values,
            plane: RefCell::default(),
        })
    }

    /// Panicking form of [`try_new`](Self::try_new).
    ///
    /// # Panics
    ///
    /// Panics if `series` is empty or the series lengths differ.
    #[track_caller]
    pub fn new(series: &[TimeSeries]) -> Self {
        match Self::try_new(series) {
            Ok(cache) => cache,
            Err(e) => panic!("{e}"),
        }
    }

    /// Panicking form of
    /// [`try_with_block_size`](Self::try_with_block_size).
    ///
    /// # Panics
    ///
    /// Panics if `series` is empty or the series lengths differ.
    #[track_caller]
    pub fn with_block_size<S: Borrow<TimeSeries>>(series: &[S], block: usize) -> Self {
        match Self::try_with_block_size(series, block) {
            Ok(cache) => cache,
            Err(e) => panic!("{e}"),
        }
    }

    /// Number of series in the day.
    pub fn num_series(&self) -> usize {
        self.num_series
    }

    /// Number of samples per series (the day length).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the day holds zero samples per series.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw values of series `i`.
    pub fn series(&self, i: usize) -> &[f64] {
        &self.values[i * self.len..(i + 1) * self.len]
    }

    /// Population mean of series `i` over `window`: exactly
    /// [`stats::mean`] of the window's values (0 for an empty window).
    ///
    /// # Panics
    ///
    /// Panics if `window` reaches outside the day.
    pub fn window_mean(&self, i: usize, window: Range<usize>) -> f64 {
        stats::mean(self.window_values(i, window))
    }

    /// Population variance of series `i` over `window`: exactly
    /// [`stats::variance`] of the window's values (0 for windows
    /// shorter than 2).
    ///
    /// # Panics
    ///
    /// Panics if `window` reaches outside the day.
    pub fn window_variance(&self, i: usize, window: Range<usize>) -> f64 {
        stats::variance(self.window_values(i, window))
    }

    /// Population covariance of series `i` and `j` over `window`, from
    /// the window plane (built on first use of the window). Windows
    /// shorter than 2 yield 0, matching
    /// [`stats::covariance`](crate::stats::covariance).
    ///
    /// # Panics
    ///
    /// Panics if `window` reaches outside the day or is off the block
    /// grid.
    pub fn window_covariance(&self, i: usize, j: usize, window: Range<usize>) -> f64 {
        let mi = self.window_mean(i, window.clone());
        let mj = self.window_mean(j, window.clone());
        self.window_covariance_with_means(i, j, window, mi, mj)
    }

    /// [`window_covariance`](Self::window_covariance) with the window
    /// means supplied by the caller — lets
    /// [`CorrelationCache::from_day_window`](crate::CorrelationCache::from_day_window)
    /// pair the plane's product sums with means it already holds.
    ///
    /// # Panics
    ///
    /// Panics if `window` reaches outside the day or is off the block
    /// grid.
    pub fn window_covariance_with_means(
        &self,
        i: usize,
        j: usize,
        window: Range<usize>,
        mean_i: f64,
        mean_j: f64,
    ) -> f64 {
        let w = window.len();
        if w < 2 {
            return 0.0;
        }
        let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
        let products = self.plane(&window)[hi * (hi + 1) / 2 + lo];
        products * (1.0 / w as f64) - mean_i * mean_j
    }

    /// Adds `cov(u, v)` over `window` into `acc[v]` for every series
    /// `v`, with the window means supplied by the caller — the bulk
    /// form of
    /// [`window_covariance_with_means`](Self::window_covariance_with_means)
    /// behind the allocator's admit loop. A single `RefCell` borrow and
    /// one window check serve the whole row, so the per-pair cost is
    /// one plane load and a handful of flops; the per-value arithmetic
    /// is identical to the scalar form. Windows shorter than 2 add zero
    /// everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `means` or `acc` is not one entry per series, or if
    /// `window` reaches outside the day or is off the block grid.
    pub fn accumulate_window_covariances(
        &self,
        u: usize,
        window: Range<usize>,
        means: &[f64],
        acc: &mut [f64],
    ) {
        assert_eq!(means.len(), self.num_series, "one mean per series");
        assert_eq!(acc.len(), self.num_series, "one accumulator per series");
        let w = window.len();
        if w < 2 {
            return;
        }
        let inv_w = 1.0 / w as f64;
        let mean_u = means[u];
        let guard = self.plane(&window);
        let plane = &guard[..];
        // Split at `u`: the `v ≤ u` half of the triangular row is
        // contiguous in the plane and vectorizes.
        let base = u * (u + 1) / 2;
        for (v, (acc_v, &mean_v)) in acc[..=u].iter_mut().zip(means).enumerate() {
            *acc_v += plane[base + v] * inv_w - mean_u * mean_v;
        }
        for (acc_v, (v, &mean_v)) in acc[u + 1..]
            .iter_mut()
            .zip(means.iter().enumerate().skip(u + 1))
        {
            *acc_v += plane[v * (v + 1) / 2 + u] * inv_w - mean_u * mean_v;
        }
    }

    /// The window plane of `window`, recomputed only when the window
    /// differs from the memoized one: every pair starts at `0.0` and
    /// each block of the window is transposed sample-major and added in
    /// order by [`add_block_plane`].
    fn plane(&self, window: &Range<usize>) -> RefMut<'_, [f64]> {
        self.check_window(window);
        let g = self.block;
        assert!(
            window.start.is_multiple_of(g) && window.end.is_multiple_of(g),
            "window {}..{} is off the {g}-sample block grid",
            window.start,
            window.end
        );
        RefMut::map(self.plane.borrow_mut(), |plane| {
            if plane.window.as_ref() != Some(window) {
                let n = self.num_series;
                plane.sums.clear();
                plane.sums.resize(n * (n + 1) / 2, 0.0);
                let mut block = vec![0.0; g * n];
                for start in window.clone().step_by(g) {
                    for i in 0..n {
                        for (s, &x) in self.series(i)[start..start + g].iter().enumerate() {
                            block[s * n + i] = x;
                        }
                    }
                    add_block_plane(&block, n, &mut plane.sums);
                }
                plane.window = Some(window.clone());
            }
            &mut plane.sums[..]
        })
    }

    /// Series `i`'s values over `window`.
    fn window_values(&self, i: usize, window: Range<usize>) -> &[f64] {
        self.check_window(&window);
        &self.series(i)[window]
    }

    fn check_window(&self, window: &Range<usize>) {
        assert!(
            window.start <= window.end && window.end <= self.len,
            "window {}..{} outside day of {} samples",
            window.start,
            window.end,
            self.len
        );
    }
}

/// Adds one block's four-lane dot products into a triangular plane,
/// entry `hi·(hi+1)/2 + lo` += `Σ x_lo·x_hi`, from the block held
/// sample-major (`block[s·n + i]` is sample `s` of series `i`): four
/// `lo` pairs per register tile, then the row's leftover pairs one at a
/// time.
fn add_block_plane(block: &[f64], n: usize, plane: &mut [f64]) {
    for hi in 0..n {
        let row = &mut plane[hi * (hi + 1) / 2..][..=hi];
        let mut tiles = row.chunks_exact_mut(4);
        for (t, out) in (&mut tiles).enumerate() {
            for (o, d) in out.iter_mut().zip(tile_dots::<4>(block, n, 4 * t, hi)) {
                *o += d;
            }
        }
        let done = (hi + 1) / 4 * 4;
        for (q, out) in tiles.into_remainder().iter_mut().enumerate() {
            *out += tile_dots::<1>(block, n, done + q, hi)[0];
        }
    }
}

/// The dot products of series `lo..lo + W` with series `hi` over a
/// sample-major block, each pair with the exact operations of a
/// four-lane dot: lanes from `0.0` over chunks of four samples,
/// `(l0 + l1) + (l2 + l3)`, then the leftover samples in order.
#[inline(always)]
fn tile_dots<const W: usize>(block: &[f64], n: usize, lo: usize, hi: usize) -> [f64; W] {
    let mut samples = block.chunks_exact(n);
    let mut lanes = [[0.0f64; W]; 4];
    for _ in 0..samples.len() / 4 {
        for lane in &mut lanes {
            let s = samples.next().expect("a full chunk of four samples");
            let y = s[hi];
            for (acc, &x) in lane.iter_mut().zip(&s[lo..lo + W]) {
                *acc += x * y;
            }
        }
    }
    let mut out = [0.0; W];
    for (q, o) in out.iter_mut().enumerate() {
        *o = (lanes[0][q] + lanes[1][q]) + (lanes[2][q] + lanes[3][q]);
    }
    for s in samples {
        for (o, &x) in out.iter_mut().zip(&s[lo..lo + W]) {
            *o += x * s[hi];
        }
    }
    out
}

/// Dot product with four independent accumulator lanes — the per-pair
/// oracle the tiled [`add_block_plane`] must reproduce bit for bit.
#[cfg(test)]
fn block_dot(a: &[f64], b: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in (&mut ca).zip(&mut cb) {
        lanes[0] += x[0] * y[0];
        lanes[1] += x[1] * y[1];
        lanes[2] += x[2] * y[2];
        lanes[3] += x[3] * y[3];
    }
    let mut s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        s += x * y;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    fn fixtures(n: usize, len: usize) -> Vec<TimeSeries> {
        (0..n)
            .map(|i| {
                TimeSeries::from_values(
                    (0..len)
                        .map(|t| {
                            let x = (i * 5 + t * 7) % 13;
                            3.0 + i as f64 + x as f64 * (0.5 + 0.3 * i as f64)
                        })
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn windowed_moments_match_stats_on_slices() {
        let series = fixtures(4, 48);
        let day = DayCache::new(&series);
        for (a, b) in [(0, 48), (0, 12), (12, 24), (36, 48), (5, 7), (20, 20)] {
            for i in 0..4 {
                let w = &series[i].values()[a..b];
                assert!(
                    (day.window_mean(i, a..b) - stats::mean(w)).abs() < 1e-9,
                    "mean series {i} window {a}..{b}"
                );
                assert!(
                    (day.window_variance(i, a..b) - stats::variance(w)).abs() < 1e-9,
                    "variance series {i} window {a}..{b}"
                );
                for (j, other) in series.iter().enumerate() {
                    let v = &other.values()[a..b];
                    assert!(
                        (day.window_covariance(i, j, a..b) - stats::covariance(w, v)).abs() < 1e-9,
                        "covariance ({i}, {j}) window {a}..{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_windows_are_zero() {
        let day = DayCache::new(&fixtures(2, 8));
        assert_eq!(day.window_mean(0, 3..3), 0.0);
        assert_eq!(day.window_variance(0, 3..4), 0.0);
        assert_eq!(day.window_covariance(0, 1, 3..4), 0.0);
    }

    #[test]
    fn variance_never_negative_on_constant_windows() {
        let series = vec![TimeSeries::constant(16, 123.456789)];
        let day = DayCache::new(&series);
        assert!(day.window_variance(0, 2..14) >= 0.0);
    }

    /// Both orderings of a pair read the same triangular plane entry.
    #[test]
    fn pair_rows_are_shared_across_orderings() {
        let series = fixtures(3, 10);
        let day = DayCache::new(&series);
        let ab = day.window_covariance(0, 2, 1..9);
        let ba = day.window_covariance(2, 0, 1..9);
        assert_eq!(ab, ba);
    }

    /// Wiggly fixtures with irregular magnitudes, so every block sum
    /// rounds and a reordered addition would change bits.
    fn rough_fixtures(n: usize, len: usize) -> Vec<TimeSeries> {
        (0..n)
            .map(|i| {
                TimeSeries::from_values(
                    (0..len)
                        .map(|t| {
                            let x = ((i * 31 + t * 17) % 23) as f64;
                            0.1 * (i + 1) as f64 + x.sqrt() * (1.0 + 0.37 * t as f64).ln()
                        })
                        .collect(),
                )
            })
            .collect()
    }

    /// Every window plane entry must equal `0.0 + d[k0] + … + d[k1−1]`
    /// of per-pair four-lane block dots, bit for bit, on one-block and
    /// multi-block windows.
    #[test]
    fn tiled_window_plane_matches_per_pair_block_dots_bitwise() {
        for block in [1, 3, 4, 5, 12] {
            for n in [1, 2, 3, 5, 6, 7, 9, 13] {
                let series = rough_fixtures(n, block * 3);
                let day = DayCache::with_block_size(&series, block);
                for blocks in [0..1, 2..3, 0..3, 1..3] {
                    let window = blocks.start * block..blocks.end * block;
                    let plane = day.plane(&window);
                    assert_eq!(plane.len(), n * (n + 1) / 2);
                    for hi in 0..n {
                        for lo in 0..=hi {
                            let want = blocks.clone().fold(0.0, |sum, k| {
                                let span = k * block..(k + 1) * block;
                                sum + block_dot(
                                    &day.series(lo)[span.clone()],
                                    &day.series(hi)[span],
                                )
                            });
                            let got = plane[hi * (hi + 1) / 2 + lo];
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "block {block}, {n} series, blocks {blocks:?}, pair ({lo}, {hi})"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The bulk row and the scalar per-pair query must both equal the
    /// covariance formula over per-pair block dots, bit for bit, on
    /// one-block and multi-block windows — each asked right after a
    /// query of a different window replaced the memoized plane.
    #[test]
    fn bulk_window_covariances_match_scalar_bitwise() {
        let (n, block) = (7, 4);
        let series = rough_fixtures(n, 6 * block);
        let day = DayCache::with_block_size(&series, block);
        let windows = [0..24, 4..8, 8..20, 0..24, 4..16, 8..20, 20..24];
        for (i, window) in windows.iter().enumerate() {
            let other = windows[(i + 1) % windows.len()].clone();
            let inv_w = 1.0 / window.len() as f64;
            let means: Vec<f64> = (0..n)
                .map(|i| stats::mean(&day.series(i)[window.clone()]))
                .collect();
            for u in 0..n {
                let _ = day.window_covariance(0, 1, other.clone());
                let mut acc = vec![0.0; n];
                day.accumulate_window_covariances(u, window.clone(), &means, &mut acc);
                for (v, &bulk) in acc.iter().enumerate() {
                    let products =
                        (window.start / block..window.end / block).fold(0.0, |sum, k| {
                            let span = k * block..(k + 1) * block;
                            sum + block_dot(&day.series(u)[span.clone()], &day.series(v)[span])
                        });
                    let want = products * inv_w - means[u] * means[v];
                    let _ = day.window_covariance(0, 1, other.clone());
                    let scalar =
                        day.window_covariance_with_means(u, v, window.clone(), means[u], means[v]);
                    assert_eq!(
                        bulk.to_bits(),
                        want.to_bits(),
                        "bulk, window {window:?}, pair ({u}, {v})"
                    );
                    assert_eq!(
                        scalar.to_bits(),
                        want.to_bits(),
                        "scalar, window {window:?}, pair ({u}, {v})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "window 2..6 is off the 4-sample block grid")]
    fn off_grid_window_panics() {
        let day = DayCache::with_block_size(&fixtures(2, 8), 4);
        let _ = day.window_covariance(0, 1, 2..6);
    }

    #[test]
    fn empty_set_is_rejected() {
        assert!(matches!(DayCache::try_new(&[]), Err(Error::EmptySeriesSet)));
    }

    #[test]
    fn ragged_set_is_rejected() {
        let series = vec![TimeSeries::zeros(4), TimeSeries::zeros(5)];
        assert!(matches!(
            DayCache::try_new(&series),
            Err(Error::RaggedSeries)
        ));
    }

    #[test]
    #[should_panic(expected = "same slot")]
    fn ragged_set_panics_via_new() {
        let series = vec![TimeSeries::zeros(4), TimeSeries::zeros(5)];
        let _ = DayCache::new(&series);
    }

    #[test]
    fn error_wording_matches_legacy_asserts() {
        assert_eq!(
            Error::EmptySeriesSet.to_string(),
            "correlation cache needs a series set"
        );
        assert_eq!(
            Error::RaggedSeries.to_string(),
            "all series must cover the same slot"
        );
    }
}
