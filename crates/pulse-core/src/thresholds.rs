//! Greedy probability-threshold schemes (Section III-A, Figure 10).
//!
//! Given the invocation probability `p` for a minute of the keep-alive window
//! and a family with `N` quality variants, a threshold scheme picks which
//! variant to keep alive during that minute. Both schemes follow the paper's
//! "general principle of keeping alive the variant with the highest accuracy
//! at higher invocation probabilities".
//!
//! Probabilities arrive as the validated [`Probability`] newtype, so the
//! schemes never see NaN or out-of-range input; each `select` additionally
//! debug-asserts its postcondition (the chosen index lies on the ladder).

use crate::convert::{count_to_f64, floor_index};
use crate::probability::Probability;
use pulse_models::VariantId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Maps an invocation probability to the quality variant to keep alive.
pub trait ThresholdScheme {
    /// Select a variant index in `0..n_variants` for probability `p`.
    /// Index 0 is the lowest-accuracy variant.
    fn select(&self, p: Probability, n_variants: usize) -> VariantId;

    /// Scheme name for reports.
    fn name(&self) -> &'static str;

    /// The thresholds this scheme induces for `n_variants` variants
    /// (boundaries between adjacent bands), for documentation and plots.
    fn thresholds(&self, n_variants: usize) -> Vec<f64>;
}

/// Postcondition shared by every scheme: the selected rung is on the ladder.
#[inline]
fn check_selection(v: VariantId, n_variants: usize) -> VariantId {
    debug_assert!(
        v < n_variants,
        "scheme selected rung {v} outside ladder of {n_variants}"
    );
    v
}

/// **T1** — the scheme of the paper's main design: divide `[0, 1]` into `N`
/// equal areas with `N − 1` thresholds at `1/N, 2/N, …, (N−1)/N`; the lowest
/// area keeps the lowest-accuracy variant alive, the highest area the
/// highest-accuracy variant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchemeT1;

impl ThresholdScheme for SchemeT1 {
    fn select(&self, p: Probability, n_variants: usize) -> VariantId {
        assert!(n_variants >= 1, "a family has at least one variant");
        let n = count_to_f64(n_variants);
        check_selection(floor_index(p.value() * n).min(n_variants - 1), n_variants)
    }

    fn name(&self) -> &'static str {
        "T1"
    }

    fn thresholds(&self, n_variants: usize) -> Vec<f64> {
        (1..n_variants)
            .map(|k| count_to_f64(k) / count_to_f64(n_variants))
            .collect()
    }
}

/// **T2** — the ablation scheme of Figure 10: the lowest-accuracy variant is
/// reserved for probability exactly 0; probabilities in `(0, 1]` are divided
/// into `N − 1` equal areas over the remaining variants (`N − 2` thresholds).
/// With a single-variant family it degenerates to always choosing variant 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchemeT2;

impl ThresholdScheme for SchemeT2 {
    fn select(&self, p: Probability, n_variants: usize) -> VariantId {
        assert!(n_variants >= 1, "a family has at least one variant");
        if p.is_zero() || n_variants == 1 {
            return 0;
        }
        if n_variants == 2 {
            return 1;
        }
        let bands = count_to_f64(n_variants - 1);
        check_selection(
            1 + floor_index(p.value() * bands).min(n_variants - 2),
            n_variants,
        )
    }

    fn name(&self) -> &'static str {
        "T2"
    }

    fn thresholds(&self, n_variants: usize) -> Vec<f64> {
        if n_variants <= 2 {
            return Vec::new();
        }
        (1..n_variants - 1)
            .map(|k| count_to_f64(k) / count_to_f64(n_variants - 1))
            .collect()
    }
}

/// Error returned by [`CustomThresholds::new`] for invalid band boundaries.
#[derive(Debug, Clone, PartialEq)]
pub enum ThresholdError {
    /// Adjacent thresholds are not strictly increasing.
    NotIncreasing {
        /// The offending pair, in input order.
        pair: (f64, f64),
    },
    /// A threshold lies outside the open interval `(0, 1)` (or is NaN).
    OutOfRange {
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for ThresholdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotIncreasing { pair: (a, b) } => {
                write!(f, "thresholds must be strictly increasing: {a} !< {b}")
            }
            Self::OutOfRange { value } => {
                write!(f, "thresholds must lie strictly inside (0, 1): {value}")
            }
        }
    }
}

impl std::error::Error for ThresholdError {}

/// **Custom thresholds** — the paper notes "the greedy optimization can be
/// tuned by the provider based on available resources and specific needs";
/// this scheme lets a provider place the band boundaries explicitly.
/// With thresholds `t_1 < t_2 < … < t_k`, probability `p` selects the
/// variant index `#{i : p > t_i}`, clamped to the family's ladder. A family
/// with fewer than `k + 1` variants simply tops out at its highest rung.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CustomThresholds {
    thresholds: Vec<f64>,
}

impl CustomThresholds {
    /// Build from explicit band boundaries. Rejects thresholds that are not
    /// strictly increasing or that fall outside the open interval `(0, 1)`.
    pub fn new(thresholds: Vec<f64>) -> Result<Self, ThresholdError> {
        for w in thresholds.windows(2) {
            if w[0] >= w[1] {
                return Err(ThresholdError::NotIncreasing { pair: (w[0], w[1]) });
            }
        }
        for &t in &thresholds {
            if !(t > 0.0 && t < 1.0) {
                return Err(ThresholdError::OutOfRange { value: t });
            }
        }
        Ok(Self { thresholds })
    }
}

impl ThresholdScheme for CustomThresholds {
    fn select(&self, p: Probability, n_variants: usize) -> VariantId {
        assert!(n_variants >= 1, "a family has at least one variant");
        check_selection(
            self.thresholds
                .iter()
                .filter(|&&t| p.value() > t)
                .count()
                .min(n_variants - 1),
            n_variants,
        )
    }

    fn name(&self) -> &'static str {
        "custom"
    }

    fn thresholds(&self, n_variants: usize) -> Vec<f64> {
        self.thresholds
            .iter()
            .copied()
            .take(n_variants.saturating_sub(1))
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::as_conversions)] // test-local sizes
mod tests {
    use super::*;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    #[test]
    fn t1_three_variants_bands() {
        let s = SchemeT1;
        // thresholds at 1/3 and 2/3
        assert_eq!(s.select(p(0.0), 3), 0);
        assert_eq!(s.select(p(0.2), 3), 0);
        assert_eq!(s.select(p(1.0 / 3.0 + 1e-9), 3), 1);
        assert_eq!(s.select(p(0.5), 3), 1);
        assert_eq!(s.select(p(2.0 / 3.0 + 1e-9), 3), 2);
        assert_eq!(s.select(p(1.0), 3), 2);
    }

    #[test]
    fn t1_two_variants_bands() {
        let s = SchemeT1;
        assert_eq!(s.select(p(0.49), 2), 0);
        assert_eq!(s.select(p(0.51), 2), 1);
    }

    #[test]
    fn t1_single_variant_always_zero() {
        let s = SchemeT1;
        for v in [0.0, 0.3, 1.0] {
            assert_eq!(s.select(p(v), 1), 0);
        }
    }

    #[test]
    fn t1_threshold_count_is_n_minus_1() {
        assert_eq!(SchemeT1.thresholds(3), vec![1.0 / 3.0, 2.0 / 3.0]);
        assert_eq!(SchemeT1.thresholds(2).len(), 1);
        assert!(SchemeT1.thresholds(1).is_empty());
    }

    #[test]
    fn t2_zero_probability_reserves_lowest() {
        let s = SchemeT2;
        assert_eq!(s.select(Probability::ZERO, 3), 0);
        // Any nonzero probability skips the lowest variant.
        assert_eq!(s.select(p(1e-6), 3), 1);
    }

    #[test]
    fn t2_three_variants_bands() {
        let s = SchemeT2;
        // (0,1] split into 2 areas; threshold at 1/2.
        assert_eq!(s.select(p(0.3), 3), 1);
        assert_eq!(s.select(p(0.6), 3), 2);
        assert_eq!(s.select(p(1.0), 3), 2);
    }

    #[test]
    fn t2_threshold_count_is_n_minus_2() {
        assert_eq!(SchemeT2.thresholds(3).len(), 1);
        assert_eq!(SchemeT2.thresholds(4).len(), 2);
        assert!(SchemeT2.thresholds(2).is_empty());
    }

    #[test]
    fn t2_two_variants() {
        let s = SchemeT2;
        assert_eq!(s.select(Probability::ZERO, 2), 0);
        assert_eq!(s.select(p(0.2), 2), 1);
        assert_eq!(s.select(p(1.0), 2), 1);
    }

    #[test]
    fn both_schemes_monotone_in_probability() {
        for n in 1..=5usize {
            for scheme in [&SchemeT1 as &dyn ThresholdScheme, &SchemeT2] {
                let mut prev = 0usize;
                for i in 0..=100u32 {
                    let prob = p(f64::from(i) / 100.0);
                    let v = scheme.select(prob, n);
                    assert!(
                        v >= prev,
                        "{} not monotone at p={prob}, n={n}",
                        scheme.name()
                    );
                    assert!(v < n);
                    prev = v;
                }
            }
        }
    }

    #[test]
    fn max_probability_selects_highest() {
        for n in 1..=5usize {
            assert_eq!(SchemeT1.select(Probability::ONE, n), n - 1);
            assert_eq!(SchemeT2.select(Probability::ONE, n), n - 1);
        }
    }

    #[test]
    fn custom_scheme_respects_explicit_bands() {
        let s = CustomThresholds::new(vec![0.25, 0.9]).unwrap();
        assert_eq!(s.select(p(0.1), 3), 0);
        assert_eq!(s.select(p(0.25), 3), 0); // boundary stays in lower band
        assert_eq!(s.select(p(0.5), 3), 1);
        assert_eq!(s.select(p(0.95), 3), 2);
    }

    #[test]
    fn custom_scheme_clamps_to_small_ladders() {
        let s = CustomThresholds::new(vec![0.2, 0.4, 0.6, 0.8]).unwrap();
        assert_eq!(s.select(p(0.99), 2), 1);
        assert_eq!(s.select(p(0.5), 2), 1);
        assert_eq!(s.select(p(0.1), 2), 0);
    }

    #[test]
    fn custom_scheme_is_monotone() {
        let s = CustomThresholds::new(vec![0.1, 0.5, 0.7]).unwrap();
        let mut prev = 0;
        for i in 0..=100u32 {
            let v = s.select(p(f64::from(i) / 100.0), 4);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn unsorted_custom_thresholds_rejected() {
        let err = CustomThresholds::new(vec![0.5, 0.3]).unwrap_err();
        assert_eq!(err, ThresholdError::NotIncreasing { pair: (0.5, 0.3) });
        assert!(err.to_string().contains("strictly increasing"));
    }

    #[test]
    fn out_of_range_custom_thresholds_rejected() {
        let err = CustomThresholds::new(vec![0.0, 0.5]).unwrap_err();
        assert_eq!(err, ThresholdError::OutOfRange { value: 0.0 });
        assert!(err.to_string().contains("inside (0, 1)"));
        assert!(CustomThresholds::new(vec![0.5, 1.0]).is_err());
        assert!(CustomThresholds::new(vec![f64::NAN]).is_err());
    }

    #[test]
    fn equal_custom_thresholds_rejected() {
        assert!(CustomThresholds::new(vec![0.4, 0.4]).is_err());
    }

    #[test]
    fn custom_thresholds_report_truncates_to_ladder() {
        let s = CustomThresholds::new(vec![0.2, 0.4, 0.6]).unwrap();
        assert_eq!(s.thresholds(3), vec![0.2, 0.4]);
        assert_eq!(s.thresholds(10), vec![0.2, 0.4, 0.6]);
    }
}
