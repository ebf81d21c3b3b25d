//! Statistics primitives shared across the workspace.
//!
//! * [`OnlineStats`] — Welford's streaming mean/variance plus min/max.
//! * [`Histogram`] — fixed-width binning (paper Fig. 2 uses 0.1 s bins)
//!   with explicit underflow/overflow buckets.
//! * [`TimeSeries`] — event counts bucketed by a fixed interval of
//!   virtual time (paper Fig. 4 uses 1-hour buckets).
//!
//! This module moved here from `rai-sim` so every crate (workload,
//! bench, core ranking, and the metrics registry itself) consumes one
//! shared implementation.

use rai_sim::{SimDuration, SimTime};
use std::fmt;

/// Streaming univariate statistics (Welford's algorithm).
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub(crate) fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (std-dev / mean); 0 when the mean is 0.
    /// Used by the worker-concurrency timing-repeatability ablation.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m
        }
    }

    /// Smallest observation (NaN if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (NaN if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

/// A fixed-bin-width histogram over `f64` observations, as used for the
/// paper's Fig. 2 ("each bin in the histogram is 0.1 second interval")
/// and the telemetry registry's latency metrics.
#[derive(Clone, Debug)]
pub struct Histogram {
    bin_width: f64,
    origin: f64,
    bins: Vec<u64>,
    total: u64,
    sum: f64,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// A histogram with `nbins` bins of width `bin_width` starting at
    /// `origin`. Observations outside the binned range are counted in
    /// explicit underflow/overflow buckets rather than dropped or
    /// silently clamped.
    pub fn new(origin: f64, bin_width: f64, nbins: usize) -> Self {
        assert!(bin_width > 0.0, "bin width must be positive");
        assert!(nbins > 0, "need at least one bin");
        Histogram {
            bin_width,
            origin,
            bins: vec![0; nbins],
            total: 0,
            sum: 0.0,
            underflow: 0,
            overflow: 0,
        }
    }

    /// Record one observation. Values below the origin are counted in
    /// the underflow bucket (they used to clamp into the first bin,
    /// which silently distorted the first bin's count).
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        self.sum += x;
        let rel = (x - self.origin) / self.bin_width;
        if rel < 0.0 {
            self.underflow += 1;
        } else if (rel as usize) < self.bins.len() {
            self.bins[rel as usize] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Count in bin `i`.
    pub fn bin(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// `[lo, hi)` bounds of bin `i`.
    pub(crate) fn bin_range(&self, i: usize) -> (f64, f64) {
        let lo = self.origin + i as f64 * self.bin_width;
        (lo, lo + self.bin_width)
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Observations below the origin.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations past the last bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded observations (Prometheus `_sum`).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Iterator of `(lo, hi, count)` rows, including empty bins.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        (0..self.bins.len()).map(|i| {
            let (lo, hi) = self.bin_range(i);
            (lo, hi, self.bins[i])
        })
    }

    /// Index of the fullest bin (ties break low), or `None` if no
    /// observation landed in a bin.
    pub fn mode_bin(&self) -> Option<usize> {
        if self.total == self.overflow + self.underflow {
            return None;
        }
        let mut best = 0usize;
        for (i, &c) in self.bins.iter().enumerate() {
            if c > self.bins[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Render an ASCII bar chart, one row per non-empty bin. An empty
    /// histogram renders as an explicit placeholder instead of an
    /// empty string.
    pub fn ascii(&self, max_width: usize) -> String {
        if self.total == 0 {
            return "(no samples)\n".to_string();
        }
        let peak = self.bins.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        if self.underflow > 0 {
            out.push_str(&format!("below origin: {}\n", self.underflow));
        }
        for (lo, hi, count) in self.rows() {
            if count == 0 {
                continue;
            }
            let w = (count as usize * max_width).div_ceil(peak as usize);
            out.push_str(&format!(
                "[{lo:6.1}, {hi:6.1}) |{:<width$}| {count}\n",
                "#".repeat(w),
                width = max_width
            ));
        }
        if self.overflow > 0 {
            out.push_str(&format!("overflow: {}\n", self.overflow));
        }
        out
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.ascii(50))
    }
}

/// Counts of events bucketed by fixed-width intervals of virtual time,
/// used for the paper's Fig. 4 (submissions per hour over two weeks).
#[derive(Clone, Debug)]
pub struct TimeSeries {
    start: SimTime,
    bucket: SimDuration,
    counts: Vec<u64>,
}

impl TimeSeries {
    /// A series starting at `start` with buckets of width `bucket`.
    pub fn new(start: SimTime, bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        TimeSeries {
            start,
            bucket,
            counts: Vec::new(),
        }
    }

    /// Record one event at time `t`. Events before `start` are ignored.
    pub fn record(&mut self, t: SimTime) {
        if t < self.start {
            return;
        }
        let idx = (t.duration_since(self.start).as_millis() / self.bucket.as_millis()) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Bucket counts, in time order.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Peak bucket as `(index, count)`, or `None` if empty.
    pub fn peak(&self) -> Option<(usize, u64)> {
        self.counts
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(i, c)| (c, std::cmp::Reverse(i)))
    }

    /// Sparkline-style rendering with `cols` output columns (buckets are
    /// grouped if there are more buckets than columns). A series with
    /// no recorded events renders as the empty string — callers that
    /// need fixed-width output should check [`TimeSeries::total`]
    /// first.
    pub fn sparkline(&self, cols: usize) -> String {
        const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if self.counts.is_empty() || cols == 0 {
            return String::new();
        }
        let group = self.counts.len().div_ceil(cols);
        let grouped: Vec<u64> = self
            .counts
            .chunks(group)
            .map(|c| c.iter().sum::<u64>())
            .collect();
        let peak = grouped.iter().copied().max().unwrap_or(0).max(1);
        grouped
            .iter()
            .map(|&c| GLYPHS[((c * (GLYPHS.len() as u64 - 1)).div_ceil(peak)) as usize])
            .collect()
    }
}

/// Sampled gauge values (queue depth, in-flight count, pool size)
/// bucketed by fixed-width intervals of virtual time. Unlike
/// [`TimeSeries`], which counts events, this tracks the *level* of a
/// quantity: per bucket it keeps the max and the sample count, so
/// reports can plot peaks deterministically.
#[derive(Clone, Debug)]
pub struct GaugeSeries {
    start: SimTime,
    bucket: SimDuration,
    max: Vec<u64>,
    count: Vec<u64>,
}

impl GaugeSeries {
    /// A series starting at `start` with buckets of width `bucket`.
    pub fn new(start: SimTime, bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        GaugeSeries { start, bucket, max: Vec::new(), count: Vec::new() }
    }

    /// Record one sample of the gauge at time `t`. Samples before
    /// `start` are ignored.
    pub fn record(&mut self, t: SimTime, value: u64) {
        if t < self.start {
            return;
        }
        let idx = (t.duration_since(self.start).as_millis() / self.bucket.as_millis()) as usize;
        if idx >= self.max.len() {
            self.max.resize(idx + 1, 0);
            self.count.resize(idx + 1, 0);
        }
        self.max[idx] = self.max[idx].max(value);
        self.count[idx] += 1;
    }

    /// Total samples recorded.
    pub(crate) fn samples(&self) -> u64 {
        self.count.iter().sum()
    }

    /// The bucket with the highest max as `(index, max)`, earliest wins
    /// ties; `None` if no samples.
    pub fn peak_bucket(&self) -> Option<(usize, u64)> {
        if self.samples() == 0 {
            return None;
        }
        self.max
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(i, v)| (v, std::cmp::Reverse(i)))
    }

    /// The start time of bucket `i`.
    pub fn bucket_start(&self, i: usize) -> SimTime {
        self.start + self.bucket * i as u64
    }

    /// Sparkline of per-bucket maxima with `cols` output columns
    /// (buckets grouped by max). Empty series render as "".
    pub fn sparkline(&self, cols: usize) -> String {
        const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if self.max.is_empty() || cols == 0 {
            return String::new();
        }
        let group = self.max.len().div_ceil(cols);
        let grouped: Vec<u64> = self
            .max
            .chunks(group)
            .map(|c| c.iter().copied().max().unwrap_or(0))
            .collect();
        let peak = grouped.iter().copied().max().unwrap_or(0).max(1);
        grouped
            .iter()
            .map(|&c| GLYPHS[((c * (GLYPHS.len() as u64 - 1)).div_ceil(peak)) as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.cv() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
    }

    #[test]
    fn histogram_binning() {
        // The Fig. 2 configuration: 0.1 s bins from 0.
        let mut h = Histogram::new(0.0, 0.1, 25);
        h.record(0.45);
        h.record(0.44);
        h.record(0.05);
        h.record(123.0); // the paper's 2-minute straggler → overflow
        assert_eq!(h.bin(4), 2);
        assert_eq!(h.bin(0), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 4);
        assert_eq!(h.mode_bin(), Some(4));
        assert!((h.sum() - 123.94).abs() < 1e-9);
        let (lo, hi) = h.bin_range(4);
        assert!((lo - 0.4).abs() < 1e-12 && (hi - 0.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_underflow_goes_to_underflow_bucket() {
        let mut h = Histogram::new(1.0, 1.0, 3);
        h.record(0.0);
        h.record(-5.0);
        h.record(1.5);
        // Below-origin observations no longer pollute the first bin.
        assert_eq!(h.bin(0), 1);
        assert_eq!(h.underflow(), 2);
        assert_eq!(h.total(), 3);
        assert_eq!(h.mode_bin(), Some(0));
    }

    #[test]
    fn histogram_all_underflow_has_no_mode() {
        let mut h = Histogram::new(10.0, 1.0, 4);
        h.record(1.0);
        h.record(2.0);
        assert_eq!(h.underflow(), 2);
        assert_eq!(h.mode_bin(), None);
    }

    #[test]
    fn histogram_ascii_renders_nonempty_rows() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(0.5);
        h.record(2.5);
        h.record(2.7);
        let art = h.ascii(10);
        assert_eq!(art.lines().count(), 2);
        assert!(art.contains('#'));
    }

    #[test]
    fn histogram_ascii_empty_is_explicit() {
        let h = Histogram::new(0.0, 1.0, 4);
        assert_eq!(h.ascii(10), "(no samples)\n");
    }

    #[test]
    fn histogram_ascii_shows_underflow() {
        let mut h = Histogram::new(1.0, 1.0, 2);
        h.record(0.5);
        h.record(1.5);
        let art = h.ascii(10);
        assert!(art.contains("below origin: 1"), "got: {art}");
    }

    #[test]
    fn time_series_buckets_by_hour() {
        let mut ts = TimeSeries::new(SimTime::ZERO, SimDuration::HOUR);
        ts.record(SimTime::from_secs(10));
        ts.record(SimTime::from_secs(3599));
        ts.record(SimTime::from_secs(3600));
        ts.record(SimTime::from_secs(3 * 3600 + 1));
        assert_eq!(ts.counts(), &[2, 1, 0, 1]);
        assert_eq!(ts.total(), 4);
        assert_eq!(ts.peak(), Some((0, 2)));
    }

    #[test]
    fn time_series_ignores_pre_start() {
        let mut ts = TimeSeries::new(SimTime::from_secs(100), SimDuration::SECOND);
        ts.record(SimTime::from_secs(50));
        assert_eq!(ts.total(), 0);
    }

    #[test]
    fn sparkline_has_requested_columns() {
        let mut ts = TimeSeries::new(SimTime::ZERO, SimDuration::SECOND);
        for i in 0..100u64 {
            for _ in 0..=(i % 7) {
                ts.record(SimTime::from_secs(i));
            }
        }
        let line = ts.sparkline(20);
        assert_eq!(line.chars().count(), 20);
    }

    #[test]
    fn sparkline_empty_series_is_empty_string() {
        let ts = TimeSeries::new(SimTime::ZERO, SimDuration::SECOND);
        assert_eq!(ts.sparkline(20), "");
        assert_eq!(ts.peak(), None);
    }
}
