//! The priority structure (Section III-B).
//!
//! PULSE counts how many times each model has been downgraded during peaks.
//! Before every utility computation the counts are normalized with the
//! paper's Equation 1 (min–max, with the degenerate `X_max == X_min` case
//! mapping to all zeros). A model that has absorbed many downgrades gets a
//! *high* normalized priority, which raises its utility value `Uv` and
//! shields it from further downgrades — the unbiasedness mechanism that stops
//! one model (e.g. a low-accuracy YOLO) from always paying for peaks.
//! "To minimize memory overhead, the priority structure is implemented as an
//! array."
//!
//! Equation 1's count bounds are maintained across bumps, so
//! [`PriorityStructure::count_bounds`] is a field read, not an `O(n)` scan,
//! and [`PriorityStructure::normalized_single`] scores one model in `O(1)`.

use crate::convert::u64_to_f64;
use pulse_models::stats::normalize_min_max;

/// Downgrade-count array with Equation 1 normalization. Only the counts are
/// state; the maintained bounds are derived from them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PriorityStructure {
    counts: Vec<u64>,
    /// Smallest count (0 when tracking no models).
    lo: u64,
    /// Largest count (0 when tracking no models).
    hi: u64,
    /// Number of models whose count is `lo`.
    at_lo: usize,
}

impl PriorityStructure {
    /// Zero-initialized structure for `n_models` models ("this initialization
    /// occurs immediately after the system has started").
    pub fn new(n_models: usize) -> Self {
        Self::from_counts(vec![0; n_models])
    }

    /// The raw downgrade counts, one per model.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// A structure over the given per-model counts: computes the maintained
    /// bounds in `O(n)`.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        let lo = counts.iter().copied().min().unwrap_or(0);
        let hi = counts.iter().copied().max().unwrap_or(0);
        let at_lo = counts.iter().filter(|&&c| c == lo).count();
        Self {
            counts,
            lo,
            hi,
            at_lo,
        }
    }

    /// Number of models tracked.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when tracking no models.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Raw downgrade count of model `m`.
    pub fn count(&self, m: usize) -> u64 {
        self.counts[m]
    }

    /// Record one downgrade of model `m` ("update priority structure with +1
    /// for m"), keeping Equation 1's bounds current: `O(1)`, except for the
    /// recount when the last model at the minimum moves up.
    pub fn bump(&mut self, m: usize) {
        let old = self.counts[m];
        self.counts[m] = old + 1;
        self.hi = self.hi.max(old + 1);
        if old == self.lo {
            self.at_lo -= 1;
            if self.at_lo == 0 {
                // Every other count was already above `lo`, so `m`'s new
                // count `lo + 1` is the new minimum.
                self.lo += 1;
                self.at_lo = self.counts.iter().filter(|&&c| c == self.lo).count();
            }
        }
    }

    /// Equation 1 normalization of the whole structure: values in `[0, 1]`,
    /// the most-downgraded model at 1, with the all-equal case yielding all
    /// zeros.
    pub fn normalized(&self) -> Vec<f64> {
        let xs: Vec<f64> = self.counts.iter().map(|&c| u64_to_f64(c)).collect();
        normalize_min_max(&xs)
    }

    /// Count bounds `(min, max)` across all models — the inputs to Equation
    /// 1's normalization. `None` when tracking no models. `O(1)`: the
    /// bounds are maintained by [`Self::bump`].
    pub fn count_bounds(&self) -> Option<(u64, u64)> {
        (!self.counts.is_empty()).then_some((self.lo, self.hi))
    }

    /// Equation 1 normalization of one model given count bounds:
    /// bit-identical to `self.normalized()[m]` whenever `lo`/`hi` equal
    /// [`Self::count_bounds`] (counts convert to f64 exactly, and a float
    /// min/max fold over exact values equals the converted integer bounds).
    #[allow(clippy::float_cmp)] // exact u64-derived values; Equation 1's degenerate-range test
    pub fn normalized_single(&self, m: usize, lo: u64, hi: u64) -> f64 {
        let x = u64_to_f64(self.counts[m]);
        let lo = u64_to_f64(lo);
        let hi = u64_to_f64(hi);
        if hi == lo {
            x - lo
        } else {
            (x - lo) / (hi - lo)
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
#[allow(clippy::cast_possible_truncation, clippy::needless_range_loop)] // test-local sizes
mod tests {
    use super::*;

    #[test]
    fn starts_all_zero() {
        let p = PriorityStructure::new(4);
        assert_eq!(p.normalized(), vec![0.0; 4]);
        assert_eq!(p.count(2), 0);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn most_downgraded_normalizes_to_one() {
        let mut p = PriorityStructure::new(3);
        p.bump(0);
        p.bump(0);
        p.bump(1);
        let n = p.normalized();
        assert_eq!(n[0], 1.0);
        assert_eq!(n[1], 0.5);
        assert_eq!(n[2], 0.0);
    }

    #[test]
    fn all_equal_counts_normalize_to_zero() {
        let mut p = PriorityStructure::new(3);
        for m in 0..3 {
            p.bump(m);
        }
        assert_eq!(p.normalized(), vec![0.0; 3]);
    }

    #[test]
    fn normalized_values_stay_in_unit_interval() {
        let mut p = PriorityStructure::new(5);
        for (m, k) in [(0, 7), (1, 3), (2, 0), (3, 11), (4, 11)] {
            for _ in 0..k {
                p.bump(m);
            }
        }
        for v in p.normalized() {
            assert!((0.0..=1.0).contains(&v));
        }
        assert_eq!(p.normalized()[3], 1.0);
        assert_eq!(p.normalized()[2], 0.0);
    }

    #[test]
    fn empty_structure_is_fine() {
        let p = PriorityStructure::new(0);
        assert!(p.is_empty());
        assert!(p.normalized().is_empty());
    }

    #[test]
    fn normalized_single_matches_full_normalization_bitwise() {
        let mut p = PriorityStructure::new(6);
        assert_eq!(PriorityStructure::new(0).count_bounds(), None);
        // Exercise the all-equal, two-level, and spread-out regimes.
        for (m, k) in [(0, 7), (1, 3), (3, 11), (4, 11), (5, 1)] {
            for _ in 0..k {
                p.bump(m);
            }
        }
        for stage in 0..3 {
            let (lo, hi) = p.count_bounds().unwrap();
            let full = p.normalized();
            for m in 0..p.len() {
                assert_eq!(
                    p.normalized_single(m, lo, hi).to_bits(),
                    full[m].to_bits(),
                    "stage {stage} model {m}"
                );
            }
            p.bump(2); // second stage lifts the min, third the all-equal case
            for m in 0..p.len() {
                while p.count(m) < p.count(3) {
                    p.bump(m);
                }
            }
        }
    }

    #[test]
    fn bump_accumulates() {
        let mut p = PriorityStructure::new(2);
        for _ in 0..10 {
            p.bump(1);
        }
        assert_eq!(p.count(1), 10);
        assert_eq!(p.count(0), 0);
    }
}
