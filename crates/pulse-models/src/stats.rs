//! Dependency-free summary statistics shared across the workspace.
//!
//! Kept deliberately small: mean / variance (Welford), percentiles by
//! nearest-rank on a sorted copy, min/max, coefficient of variation, and the
//! paper's Equation 1 min–max normalization.

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation via Welford's single-pass algorithm.
/// Returns 0.0 for slices shorter than 2.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mut m = 0.0f64;
    let mut m2 = 0.0f64;
    for (i, &x) in xs.iter().enumerate() {
        let delta = x - m;
        m += delta / (i + 1) as f64;
        m2 += delta * (x - m);
    }
    (m2 / xs.len() as f64).sqrt()
}

/// `numerator / denominator`, with the workspace-wide degenerate-input
/// convention: exactly-zero denominators (empty runs, zero invocations)
/// report 0.0 instead of NaN/∞. Near-zero denominators still divide — only
/// the exact 0.0 produced by "nothing happened" counters is special-cased.
pub fn ratio_or_zero(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Percentile `p` in `[0, 100]` by linear interpolation on a sorted copy.
/// Returns 0.0 for an empty slice.
///
/// NaN inputs are ordered by IEEE 754 `totalOrder` ([`f64::total_cmp`]):
/// positive NaN sorts above every number, negative NaN below. So NaNs never
/// panic the sort; a positive NaN only reaches the result when `p` lands in
/// the top ranks (where the answer genuinely is "not a number").
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_of_sorted(&sorted, p)
}

/// Percentile on an already-sorted slice (ascending). Linear interpolation
/// between closest ranks.
// rank is in [0, n - 1], so its floor and ceil index the slice.
#[allow(clippy::cast_possible_truncation)]
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// Minimum of a slice; 0.0 when empty.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter()
        .copied()
        .fold(f64::INFINITY, f64::min)
        .min(f64::INFINITY)
        .pipe_finite()
}

/// Maximum of a slice; 0.0 when empty.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max)
        .pipe_finite()
}

trait PipeFinite {
    fn pipe_finite(self) -> f64;
}
impl PipeFinite for f64 {
    fn pipe_finite(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

/// The paper's Equation 1: min–max normalization with the degenerate-range
/// convention `X_max == X_min → X − X_min` (i.e. all zeros).
///
/// Returns values in `[0, 1]` when the range is non-degenerate and all zeros
/// otherwise. Used for the priority structure of Algorithm 2.
// Exact equality is the degenerate-range check: hi == lo only when every
// value is the same.
#[allow(clippy::float_cmp)]
pub fn normalize_min_max(xs: &[f64]) -> Vec<f64> {
    if xs.is_empty() {
        return Vec::new();
    }
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if hi == lo {
        xs.iter().map(|&x| x - lo).collect()
    } else {
        xs.iter().map(|&x| (x - lo) / (hi - lo)).collect()
    }
}

/// Streaming mean/std accumulator (Welford), for the parallel run harness
/// where per-run metrics arrive one at a time.
#[derive(Debug, Clone, Default)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self {
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

    /// Merge another accumulator (parallel reduction), Chan et al. formula.
    pub fn merge(&mut self, other: &Running) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean so far (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation so far (0.0 when n < 2).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// Smallest observation (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(min(&[]), 0.0);
        assert_eq!(max(&[]), 0.0);
        assert!(normalize_min_max(&[]).is_empty());
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[42.0], 99.0), 42.0);
    }

    #[test]
    fn percentile_tolerates_nan_via_total_order() {
        // total_cmp sorts positive NaN above every number: low/mid
        // percentiles stay numeric, only the top ranks report NaN.
        let xs = [1.0, f64::NAN, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert!(percentile(&xs, 100.0).is_nan());
        // Negative NaN sorts below every number — the mirror image.
        let ys = [-f64::NAN, 1.0, 2.0];
        assert!(percentile(&ys, 0.0).is_nan());
        assert_eq!(percentile(&ys, 100.0), 2.0);
        // All-NaN input is NaN at every percentile, never a panic.
        assert!(percentile(&[f64::NAN; 3], 50.0).is_nan());
    }

    #[test]
    fn normalize_spans_unit_interval() {
        let ys = normalize_min_max(&[10.0, 20.0, 30.0]);
        assert_eq!(ys, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn normalize_degenerate_range_is_all_zeros() {
        // Equation 1's X_max == X_min branch: X - X_min = 0 everywhere.
        let ys = normalize_min_max(&[7.0, 7.0, 7.0]);
        assert_eq!(ys, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn running_matches_batch() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut r = Running::new();
        for &x in &xs {
            r.push(x);
        }
        assert!((r.mean() - mean(&xs)).abs() < 1e-12);
        assert!((r.std_dev() - std_dev(&xs)).abs() < 1e-12);
        assert_eq!(r.min(), 1.0);
        assert_eq!(r.max(), 9.0);
        assert_eq!(r.count(), 8);
    }

    #[test]
    fn running_merge_matches_single_stream() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0];
        let ys = [9.0, 2.0, 6.0];
        let mut a = Running::new();
        let mut b = Running::new();
        xs.iter().for_each(|&x| a.push(x));
        ys.iter().for_each(|&y| b.push(y));
        a.merge(&b);
        let all: Vec<f64> = xs.iter().chain(ys.iter()).copied().collect();
        assert!((a.mean() - mean(&all)).abs() < 1e-12);
        assert!((a.std_dev() - std_dev(&all)).abs() < 1e-12);
        assert_eq!(a.count(), 8);
    }

    #[test]
    fn running_merge_with_empty_is_identity() {
        let mut a = Running::new();
        a.push(1.0);
        a.push(2.0);
        let before = a.mean();
        a.merge(&Running::new());
        assert_eq!(a.mean(), before);
        let mut e = Running::new();
        e.merge(&a);
        assert_eq!(e.mean(), before);
    }

    #[test]
    fn ratio_or_zero_conventions() {
        assert_eq!(ratio_or_zero(3.0, 4.0), 0.75);
        assert_eq!(ratio_or_zero(1.0, 0.0), 0.0);
        assert_eq!(ratio_or_zero(0.0, 0.0), 0.0);
        // Near-zero denominators are NOT special-cased: they divide.
        assert!(ratio_or_zero(1.0, 1e-300).is_finite());
        assert!(ratio_or_zero(1.0, 1e-300) > 0.0);
        // Negative ratios pass through (a worsening reads negative).
        assert_eq!(ratio_or_zero(-2.0, 4.0), -0.5);
    }
}
