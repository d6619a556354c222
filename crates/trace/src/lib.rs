//! Time-series substrate for utilization traces.
//!
//! The allocation policies of the paper operate on per-VM CPU and memory
//! utilization traces sampled every 5 minutes (the Google Cluster cadence)
//! and organized into one-hour *time slots* of 12 samples each. This crate
//! provides:
//!
//! * [`SampleGrid`] — the sampling layout (period, horizon, slot size);
//! * [`TimeSeries`] — a utilization trace with element-wise arithmetic,
//!   peaks, slot windows and the *complementary pattern* operator of
//!   Algorithms 1 and 2;
//! * [`stats`] — Pearson correlation (the φ similarity of Eq. 2),
//!   Euclidean distance (the Dist term of Eq. 2) and supporting moments;
//! * [`CorrelationCache`] / [`PatternStats`] — memoized pairwise Pearson
//!   terms and O(1) running-pattern correlations for the allocator
//!   candidate scans of Algorithms 1 and 2;
//! * [`DayCache`] — one copy of a day's series answering windowed
//!   mean/variance/covariance queries, the covariances from a memoized
//!   plane of the window's pair product sums, so one cache serves all
//!   hourly re-plans of a day.
//!
//! # Examples
//!
//! ```
//! use ntc_trace::{stats, TimeSeries};
//!
//! let a = TimeSeries::from_values(vec![10.0, 20.0, 30.0]);
//! let b = TimeSeries::from_values(vec![1.0, 2.0, 3.0]);
//! let phi = stats::pearson_correlation(a.values(), b.values());
//! assert!((phi - 1.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod corr;
mod grid;
pub mod rolling;
mod series;
pub mod stats;
mod windowed;

pub use corr::{CorrelationCache, PatternStats};
pub use grid::SampleGrid;
pub use series::TimeSeries;
pub use windowed::{DayCache, Error};
