//! Shared types and tunables of the PULSE policy.

use crate::convert::{count_to_f64, floor_index};
use crate::probability::Probability;
use pulse_models::VariantId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Simulation/policy time in minutes since the start of the trace. The paper
/// works at minute resolution throughout ("the time resolution used for
/// inter-arrival time is in minutes").
pub type Minute = u64;

/// Identifier of a serverless function within a deployment (dense index).
pub type FuncId = usize;

/// Greedy probability-threshold scheme (Section III-A, Figure 10's T1 vs
/// T2): maps the invocation probability of one keep-alive minute to the
/// quality variant kept alive during it. Both schemes follow the paper's
/// "general principle of keeping alive the variant with the highest
/// accuracy at higher invocation probabilities".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchemeKind {
    /// T1, the paper's main design: divide the probability space `[0, 1]`
    /// into `N` equal areas (`N − 1` thresholds at `1/N, 2/N, …`), lowest
    /// area → lowest variant, highest area → highest variant.
    T1,
    /// T2, Figure 10's ablation: reserve the lowest-accuracy variant for
    /// probability exactly 0 and divide `(0, 1]` into `N − 1` equal areas
    /// over the remaining variants (`N − 2` thresholds). A single-variant
    /// family always gets variant 0.
    T2,
}

impl SchemeKind {
    /// Select a variant index in `0..n_variants` for probability `p`;
    /// index 0 is the lowest-accuracy variant. Probabilities arrive as the
    /// validated [`Probability`] newtype, so no NaN or out-of-range input
    /// reaches the bands.
    #[inline]
    pub fn select(self, p: Probability, n_variants: usize) -> VariantId {
        assert!(n_variants >= 1, "a family has at least one variant");
        let v = match self {
            Self::T1 => floor_index(p.value() * count_to_f64(n_variants)).min(n_variants - 1),
            Self::T2 if p.is_zero() || n_variants == 1 => 0,
            Self::T2 if n_variants == 2 => 1,
            Self::T2 => {
                1 + floor_index(p.value() * count_to_f64(n_variants - 1)).min(n_variants - 2)
            }
        };
        debug_assert!(
            v < n_variants,
            "scheme selected rung {v} outside ladder of {n_variants}"
        );
        v
    }
}

/// All tunables of PULSE, with the paper's defaults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PulseConfig {
    /// Length of the keep-alive window after an invocation, minutes.
    /// The paper (and every major provider it cites) uses 10; Section V notes
    /// the design "can be adapted to different keep-alive durations".
    pub keepalive_minutes: u32,
    /// Sliding local-window length for the immediate-past inter-arrival
    /// distribution and for Algorithm 1's averaged prior memory, minutes.
    /// Figure 12 sweeps {10, 60, 120}; we default to 60.
    pub local_window: u32,
    /// Keep-alive memory threshold `KM_T` of Algorithm 1: a minute is a peak
    /// when current memory exceeds prior memory by more than this fraction.
    /// Figure 11 sweeps {0.05, 0.10, 0.15} (M1–M3); the paper's discussion
    /// default (M2) is 0.10.
    pub km_threshold: f64,
    /// Which probability-threshold scheme the individual optimizer uses.
    pub scheme: SchemeKind,
}

impl Default for PulseConfig {
    fn default() -> Self {
        Self {
            keepalive_minutes: 10,
            local_window: 60,
            km_threshold: 0.10,
            scheme: SchemeKind::T1,
        }
    }
}

/// Why a [`PulseConfig`] was rejected by [`PulseConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `keepalive_minutes` is 0 (the policy needs at least one minute).
    ZeroKeepalive,
    /// `local_window` is 0 (the sliding window needs at least one minute).
    ZeroLocalWindow,
    /// `km_threshold` is NaN, infinite, or negative.
    InvalidKmThreshold,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroKeepalive => write!(f, "keepalive_minutes must be >= 1"),
            Self::ZeroLocalWindow => write!(f, "local_window must be >= 1"),
            Self::InvalidKmThreshold => write!(f, "km_threshold must be finite and >= 0"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl PulseConfig {
    /// Validate tunables; every engine construction path calls this.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.keepalive_minutes == 0 {
            return Err(ConfigError::ZeroKeepalive);
        }
        if self.local_window == 0 {
            return Err(ConfigError::ZeroLocalWindow);
        }
        if !self.km_threshold.is_finite() || self.km_threshold < 0.0 {
            return Err(ConfigError::InvalidKmThreshold);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = PulseConfig::default();
        assert_eq!(c.keepalive_minutes, 10);
        assert_eq!(c.local_window, 60);
        assert!((c.km_threshold - 0.10).abs() < 1e-12);
        assert_eq!(c.scheme, SchemeKind::T1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn zero_window_rejected() {
        let c = PulseConfig {
            local_window: 0,
            ..Default::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroLocalWindow));
    }

    #[test]
    fn zero_keepalive_rejected() {
        let c = PulseConfig {
            keepalive_minutes: 0,
            ..Default::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroKeepalive));
    }

    #[test]
    fn negative_threshold_rejected() {
        let c = PulseConfig {
            km_threshold: -0.1,
            ..Default::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::InvalidKmThreshold));
        let nan = PulseConfig {
            km_threshold: f64::NAN,
            ..Default::default()
        };
        assert_eq!(nan.validate(), Err(ConfigError::InvalidKmThreshold));
    }

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    #[test]
    fn t1_three_variants_bands() {
        let s = SchemeKind::T1;
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
        let s = SchemeKind::T1;
        assert_eq!(s.select(p(0.49), 2), 0);
        assert_eq!(s.select(p(0.51), 2), 1);
    }

    #[test]
    fn t1_single_variant_always_zero() {
        for v in [0.0, 0.3, 1.0] {
            assert_eq!(SchemeKind::T1.select(p(v), 1), 0);
        }
    }

    #[test]
    fn t2_zero_probability_reserves_lowest() {
        let s = SchemeKind::T2;
        assert_eq!(s.select(Probability::ZERO, 3), 0);
        // Any nonzero probability skips the lowest variant.
        assert_eq!(s.select(p(1e-6), 3), 1);
    }

    #[test]
    fn t2_three_variants_bands() {
        let s = SchemeKind::T2;
        // (0,1] split into 2 areas; threshold at 1/2.
        assert_eq!(s.select(p(0.3), 3), 1);
        assert_eq!(s.select(p(0.6), 3), 2);
        assert_eq!(s.select(p(1.0), 3), 2);
    }

    #[test]
    fn t2_two_variants() {
        let s = SchemeKind::T2;
        assert_eq!(s.select(Probability::ZERO, 2), 0);
        assert_eq!(s.select(p(0.2), 2), 1);
        assert_eq!(s.select(p(1.0), 2), 1);
    }

    #[test]
    fn both_schemes_monotone_in_probability() {
        for n in 1..=5usize {
            for scheme in [SchemeKind::T1, SchemeKind::T2] {
                let mut prev = 0usize;
                for i in 0..=100u32 {
                    let prob = p(f64::from(i) / 100.0);
                    let v = scheme.select(prob, n);
                    assert!(v >= prev, "{scheme:?} not monotone at p={prob}, n={n}");
                    assert!(v < n);
                    prev = v;
                }
            }
        }
    }

    #[test]
    fn max_probability_selects_highest() {
        for n in 1..=5usize {
            assert_eq!(SchemeKind::T1.select(Probability::ONE, n), n - 1);
            assert_eq!(SchemeKind::T2.select(Probability::ONE, n), n - 1);
        }
    }

    #[test]
    fn config_errors_display_the_constraint() {
        assert!(ConfigError::ZeroKeepalive.to_string().contains("keepalive"));
        assert!(ConfigError::InvalidKmThreshold
            .to_string()
            .contains("km_threshold"));
    }
}
