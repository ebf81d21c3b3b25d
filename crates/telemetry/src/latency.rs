//! Deterministic log-bucketed latency histograms.
//!
//! [`LogHistogram`] records non-negative latencies in integer
//! microseconds into HDR-style log-linear buckets: values below 64 µs
//! are counted exactly (one bucket per microsecond), and each octave
//! above that is split into 32 sub-buckets, bounding the relative
//! error of any bucket at 1/32 ≈ 3.1 %. Bucket boundaries are a pure
//! function of the value — no configuration, no floating point — so
//! two histograms built from the same samples in any order are
//! byte-identical.
//!
//! Quantiles use the nearest-rank rule over bucket counts and report
//! the bucket's inclusive upper bound, clamped to the exact observed
//! maximum — deterministic integers, never an interpolation.

use rai_sim::SimDuration;

/// A sim-duration in microseconds (sim-time has millisecond resolution).
pub fn duration_micros(d: SimDuration) -> u64 {
    d.as_millis().saturating_mul(1_000)
}

/// Sub-bucket resolution: 32 sub-buckets per octave (exact below 64 µs).
const SUB_BITS: u32 = 6;
const SUB_COUNT: u64 = 1 << SUB_BITS;
const SUB_HALF: u64 = SUB_COUNT / 2;

/// Fixed log-linear histogram over latencies in microseconds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogHistogram {
    /// `counts[i]` = samples whose bucket index is `i`. Grown on demand;
    /// trailing zero buckets are never significant.
    counts: Vec<u64>,
    count: u64,
    sum_micros: u64,
    min_micros: u64,
    max_micros: u64,
}

/// Bucket index for a value. Values `< SUB_COUNT` map to themselves;
/// larger values use `exp * SUB_HALF + (v >> exp)` where `exp` is the
/// octave above the exact region.
fn index_for(v: u64) -> usize {
    let bits = 64 - v.leading_zeros();
    if bits <= SUB_BITS {
        v as usize
    } else {
        let exp = bits - SUB_BITS;
        (exp as usize) * SUB_HALF as usize + (v >> exp) as usize
    }
}

/// Inclusive upper bound of bucket `i` (the largest value mapping to it).
fn upper_bound(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB_COUNT {
        i
    } else {
        let exp = (i >> (SUB_BITS - 1)) - 1;
        let sub = (i & (SUB_HALF - 1)) + SUB_HALF;
        ((sub + 1) << exp) - 1
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency in microseconds.
    pub fn record_micros(&mut self, micros: u64) {
        let idx = index_for(micros);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        if self.count == 0 {
            self.min_micros = micros;
            self.max_micros = micros;
        } else {
            self.min_micros = self.min_micros.min(micros);
            self.max_micros = self.max_micros.max(micros);
        }
        self.count += 1;
        self.sum_micros = self.sum_micros.saturating_add(micros);
    }

    /// Record a sim-duration (millisecond resolution, stored as µs).
    pub(crate) fn record(&mut self, d: SimDuration) {
        self.record_micros(duration_micros(d));
    }

    /// Record a latency in (non-negative) seconds.
    pub fn record_secs(&mut self, secs: f64) {
        self.record_micros((secs.max(0.0) * 1e6).round() as u64);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Integer mean in microseconds (0 when empty).
    pub fn mean_micros(&self) -> u64 {
        self.sum_micros.checked_div(self.count).unwrap_or(0)
    }

    /// Nearest-rank quantile in microseconds: the smallest bucket upper
    /// bound `u` such that at least `ceil(q * count)` samples are ≤ u,
    /// clamped to the observed maximum. `q` is clamped to [0, 1].
    pub fn quantile_micros(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return upper_bound(i).clamp(self.min_micros, self.max_micros);
            }
        }
        self.max_micros
    }

    /// Exact count of samples ≤ `micros` **when `micros` is a bucket
    /// upper bound** (always true below 64 µs); otherwise the count of
    /// the whole bucket containing `micros` is included.
    pub fn count_le_micros(&self, micros: u64) -> u64 {
        let idx = index_for(micros);
        self.counts.iter().take(idx + 1).sum()
    }

    /// The standard latency summary: count, mean, min/max, p50/p95/p99/p99.9.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_micros: self.mean_micros(),
            min_micros: self.min_micros,
            max_micros: self.max_micros,
            p50_micros: self.quantile_micros(0.50),
            p95_micros: self.quantile_micros(0.95),
            p99_micros: self.quantile_micros(0.99),
            p999_micros: self.quantile_micros(0.999),
        }
    }

    /// Stable textual encoding: `count;sum;min;max;[idx:count,...]`
    /// over non-empty buckets. Byte-identical iff the histograms hold
    /// identical bucket contents — the byte-identity gate for exports.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "{};{};{};{};[",
            self.count, self.sum_micros, self.min_micros, self.max_micros
        );
        let mut first = true;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{i}:{c}"));
        }
        out.push(']');
        out
    }
}

/// Exact-quantile summary of one latency population, in microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    pub count: u64,
    pub(crate) mean_micros: u64,
    pub(crate) min_micros: u64,
    pub max_micros: u64,
    pub p50_micros: u64,
    pub(crate) p95_micros: u64,
    pub p99_micros: u64,
    pub p999_micros: u64,
}

impl LatencySummary {
    /// Render one quantile in human seconds.
    pub(crate) fn secs(micros: u64) -> f64 {
        micros as f64 / 1e6
    }

    /// `p50/p95/p99/p99.9` line in seconds with fixed formatting.
    pub fn render_secs(&self) -> String {
        format!(
            "n={} mean={:.3}s p50={:.3}s p95={:.3}s p99={:.3}s p99.9={:.3}s max={:.3}s",
            self.count,
            Self::secs(self.mean_micros),
            Self::secs(self.p50_micros),
            Self::secs(self.p95_micros),
            Self::secs(self.p99_micros),
            Self::secs(self.p999_micros),
            Self::secs(self.max_micros),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_region_is_exact() {
        let mut h = LogHistogram::new();
        for v in 0..SUB_COUNT {
            h.record_micros(v);
        }
        assert_eq!(h.count(), SUB_COUNT);
        for v in 0..SUB_COUNT {
            assert_eq!(h.count_le_micros(v), v + 1);
        }
        assert_eq!(h.quantile_micros(0.0), 0);
        assert_eq!(h.quantile_micros(1.0), SUB_COUNT - 1);
    }

    #[test]
    fn bucket_bounds_invert_the_index() {
        for v in [0u64, 1, 31, 32, 63, 64, 65, 127, 128, 1_000, 999_999, 1_000_000, u64::from(u32::MAX), 3_000_000_000_000] {
            let idx = index_for(v);
            let hi = upper_bound(idx);
            assert!(v <= hi, "v={v} above its bucket upper bound {hi}");
            // v is in the bucket whose upper bound we report.
            assert_eq!(index_for(hi), idx, "upper bound {hi} escapes bucket of {v}");
            if hi < u64::MAX {
                assert_eq!(index_for(hi + 1), idx + 1, "bucket of {v} not tight at {hi}");
            }
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = LogHistogram::new();
        let v = 123_456_789u64;
        h.record_micros(v);
        let p50 = h.quantile_micros(0.5);
        assert!(p50 >= v);
        assert!((p50 - v) as f64 / v as f64 <= 1.0 / SUB_HALF as f64);
    }

    #[test]
    fn quantiles_are_monotone_and_clamped() {
        let mut h = LogHistogram::new();
        for i in 1..=1000u64 {
            h.record_micros(i * 1000); // 1ms .. 1s
        }
        let s = h.summary();
        assert!(s.p50_micros <= s.p95_micros);
        assert!(s.p95_micros <= s.p99_micros);
        assert!(s.p99_micros <= s.p999_micros);
        assert!(s.p999_micros <= s.max_micros);
        assert_eq!(s.max_micros, 1_000_000);
        assert_eq!(s.min_micros, 1000);
        // p50 within 3.2% above the true median.
        let true_median = 500_000f64;
        assert!(s.p50_micros as f64 >= true_median);
        assert!(s.p50_micros as f64 <= true_median * (1.0 + 1.0 / SUB_HALF as f64));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.summary(), LatencySummary::default());
        assert_eq!(h.encode(), "0;0;0;0;[]");
    }
}
