//! A cheap log-bucketed histogram.
//!
//! [`Histogram`] keeps a fixed footprint (one bucket per bit length), is
//! exact for `count`/`sum`/`min`/`max`, and merges commutatively. The live
//! serving loop records its per-decision and per-tick wall times into it.

/// Number of power-of-two buckets: bucket `i` holds values whose bit length
/// is `i` (bucket 0 = the value 0, bucket 64 = values ≥ 2⁶³).
const N_BUCKETS: usize = 65;

/// A fixed-footprint histogram over `u64` samples with power-of-two buckets
/// — coarse (one bucket per bit length) but allocation-free, mergeable, and
/// exact for `count`/`sum`/`min`/`max`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; N_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(v: u64) -> usize {
        // Bit length of v: 0 → 0, 1 → 1, 2..=3 → 2, … (≤ 64, so the
        // conversion never truncates).
        usize::try_from(64 - v.leading_zeros()).unwrap_or(N_BUCKETS - 1)
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record `v` with weight `n`: the same state as `n` calls of
    /// [`Self::record`] (the sum saturates), and a no-op when `n` is 0. A
    /// sampler that times one event in `n` records each timed value this
    /// way, so `count` stays exact and the rest become estimates.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_index(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            // u64 → f64 is a value conversion, not a truncation.
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `pct`-th percentile sample
    /// (nearest-rank over buckets; `pct` is clamped to 0..=100). Exact to
    /// within one power of two — enough to tell a 2 ms run from a 2 s one.
    pub fn approx_percentile(&self, pct: u64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let pct = pct.min(100);
        // Nearest-rank: the smallest rank r with r ≥ pct% of count (≥ 1).
        let target = (self.count * pct).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(match i {
                    0 => 0,
                    i if i >= 64 => u64::MAX,
                    i => (1u64 << i) - 1,
                });
            }
        }
        Some(u64::MAX)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_exact_aggregates() {
        let mut h = Histogram::new();
        assert_eq!(h.approx_percentile(50), None);
        assert_eq!(h.min(), None);
        for v in [0u64, 1, 2, 3, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1_001_006);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1_000_000));
        assert_eq!(h.mean(), 1_001_006.0 / 6.0);
    }

    #[test]
    fn percentile_bounds_bracket_the_sample() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // p50 sample is 500 (bit length 9 ⇒ bucket bound 511).
        assert_eq!(h.approx_percentile(50), Some(511));
        assert_eq!(h.approx_percentile(100), Some(1023));
        assert_eq!(h.approx_percentile(0), Some(1), "lowest non-empty bucket");
        // Extremes of the bucket range.
        let mut edges = Histogram::new();
        edges.record(0);
        edges.record(u64::MAX);
        assert_eq!(edges.approx_percentile(0), Some(0));
        assert_eq!(edges.approx_percentile(100), Some(u64::MAX));
    }

    #[test]
    fn histogram_merge_equals_recording_everything_in_one() {
        let xs = [3u64, 7, 9, 1 << 40];
        let ys = [0u64, 2, 1 << 63];
        let mut merged = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for &v in &xs {
            merged.record(v);
            left.record(v);
        }
        for &v in &ys {
            merged.record(v);
            right.record(v);
        }
        left.merge(&right);
        assert_eq!(left, merged);
    }

    #[test]
    fn saturation_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
    }
}
