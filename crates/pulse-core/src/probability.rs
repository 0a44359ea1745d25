//! The `Probability` newtype: an `f64` proven to lie in `[0, 1]`.
//!
//! Every probability PULSE manipulates — gap probabilities from the
//! inter-arrival model, the `Ip` term of Equation 2, the normalized
//! downgrade priority — is semantically a value in `[0, 1]`, but carrying
//! them as bare `f64` means every consumer must re-derive (or silently
//! assume) that bound. This module moves the check to the boundary:
//!
//! * [`Probability::new`] validates untrusted input and returns a typed
//!   error;
//! * [`Probability::saturating`] clamps caller-supplied values where the
//!   policy's documented behaviour is "treat out-of-range as the nearest
//!   valid probability" (e.g. `AliveModel::invocation_probability`);
//! * `Probability::from_invariant` (crate-internal) is for values the
//!   surrounding algorithm already guarantees are in range — it
//!   `debug_assert!`s the guarantee and clamps in release builds so a
//!   violated invariant degrades instead of propagating garbage;
//! * the arithmetic combinators ([`Probability::average`],
//!   [`Probability::and`], [`Probability::complement`]) debug-assert their
//!   results, so invariant breakage is caught where it happens.
//!
//! The probability-bearing modules (`interarrival`, `thresholds`,
//! `utility`) route their values through this type; the
//! `probability_math_is_typed_at_its_boundaries` test pins their entry
//! points' signatures.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Error returned by [`Probability::new`] for values outside `[0, 1]` (or
/// NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilityError {
    /// The rejected value.
    pub value: f64,
}

impl fmt::Display for ProbabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "probability out of range [0, 1]: {}", self.value)
    }
}

impl std::error::Error for ProbabilityError {}

/// A probability: an `f64` guaranteed finite and within `[0, 1]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Probability(f64);

impl Probability {
    /// Probability 0.
    pub const ZERO: Self = Self(0.0);
    /// Probability 1.
    pub const ONE: Self = Self(1.0);

    /// Validate `p`; reject NaN and anything outside `[0, 1]`.
    pub fn new(p: f64) -> Result<Self, ProbabilityError> {
        if (0.0..=1.0).contains(&p) {
            Ok(Self(p))
        } else {
            Err(ProbabilityError { value: p })
        }
    }

    /// Clamp `p` into `[0, 1]`; NaN maps to 0. For caller-supplied values
    /// whose documented handling is saturation (e.g. the `Ip` field a
    /// platform fills into `AliveModel`).
    pub fn saturating(p: f64) -> Self {
        if p.is_nan() {
            return Self::ZERO;
        }
        Self(p.clamp(0.0, 1.0))
    }

    /// For values an algorithm invariant already guarantees are in range:
    /// debug-asserts the guarantee, clamps in release builds.
    pub(crate) fn from_invariant(p: f64) -> Self {
        debug_assert!(
            (0.0..=1.0).contains(&p),
            "probability invariant violated: {p}"
        );
        Self::saturating(p)
    }

    /// The inner value, in `[0, 1]`.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// True for probability exactly 0 — the distinguished value both the
    /// inter-arrival model ("uninformed") and scheme T2 ("reserve the lowest
    /// variant for p = 0") branch on. This is the one sanctioned exact float
    /// comparison on probabilities: 0.0 is produced literally, never by
    /// rounding.
    #[inline]
    #[allow(clippy::float_cmp)]
    pub fn is_zero(self) -> bool {
        // audit:allow(float-cmp): exact zero is assigned (never computed), so the sentinel compares exactly by design
        self.0 == 0.0
    }

    /// `1 − p`.
    pub fn complement(self) -> Self {
        let r = 1.0 - self.0;
        debug_assert!((0.0..=1.0).contains(&r));
        Self(r)
    }

    /// `(p + q) / 2` — the paper's local/global combination rule.
    pub fn average(self, other: Self) -> Self {
        let r = (self.0 + other.0) / 2.0;
        debug_assert!((0.0..=1.0).contains(&r), "average escaped [0,1]: {r}");
        Self(r)
    }

    /// `p · q` — joint probability of independent events.
    pub fn and(self, other: Self) -> Self {
        let r = self.0 * other.0;
        debug_assert!((0.0..=1.0).contains(&r), "product escaped [0,1]: {r}");
        Self(r)
    }
}

impl From<Probability> for f64 {
    fn from(p: Probability) -> f64 {
        p.value()
    }
}

impl fmt::Display for Probability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;

    /// The modules whose math is about probabilities — gap mass, Equation
    /// 2's `Pr`/`Ip` terms, threshold bands — carry the newtype across
    /// their boundaries: each entry point coerces to a `Probability`-typed
    /// fn pointer, so retyping one as a bare `f64` fails to compile.
    #[test]
    fn probability_math_is_typed_at_its_boundaries() {
        use crate::interarrival::InterArrivalModel;
        use crate::thresholds::ThresholdScheme;
        use crate::types::Minute;
        use pulse_models::VariantId;

        let ip: fn(&InterArrivalModel, Minute, u32) -> Probability =
            InterArrivalModel::invocation_probability_at;
        let uv: fn(f64, Probability, Probability) -> f64 = crate::utility::utility_value;
        let select: fn(&(dyn ThresholdScheme + 'static), Probability, usize) -> VariantId =
            <dyn ThresholdScheme>::select;

        let mut model = InterArrivalModel::new(10);
        for t in [0, 2, 4, 6] {
            model.record(t);
        }
        let p = ip(&model, 8, 60);
        assert!((0.0..=1.0).contains(&p.value()));
        assert!(uv(0.5, p, Probability::ZERO) <= 3.0);
        assert!(select(&crate::thresholds::SchemeT1, p, 3) < 3);
    }

    #[test]
    fn new_accepts_unit_interval_only() {
        assert!(Probability::new(0.0).is_ok());
        assert!(Probability::new(1.0).is_ok());
        assert!(Probability::new(0.5).is_ok());
        assert!(Probability::new(-1e-12).is_err());
        assert!(Probability::new(1.0 + 1e-12).is_err());
        assert!(Probability::new(f64::NAN).is_err());
        assert!(Probability::new(f64::INFINITY).is_err());
    }

    #[test]
    fn saturating_clamps_and_maps_nan_to_zero() {
        assert_eq!(Probability::saturating(-3.0), Probability::ZERO);
        assert_eq!(Probability::saturating(7.0), Probability::ONE);
        assert_eq!(Probability::saturating(f64::NAN), Probability::ZERO);
        assert_eq!(Probability::saturating(0.25).value(), 0.25);
    }

    #[test]
    fn is_zero_only_at_exact_zero() {
        assert!(Probability::ZERO.is_zero());
        assert!(!Probability::new(1e-300).unwrap().is_zero());
        assert!(!Probability::ONE.is_zero());
    }

    #[test]
    fn combinators_stay_in_range() {
        let a = Probability::new(0.3).unwrap();
        let b = Probability::new(0.8).unwrap();
        assert!((a.average(b).value() - 0.55).abs() < 1e-12);
        assert!((a.and(b).value() - 0.24).abs() < 1e-12);
        assert!((a.complement().value() - 0.7).abs() < 1e-12);
        assert_eq!(Probability::ONE.complement(), Probability::ZERO);
    }

    #[test]
    fn ordering_follows_inner_value() {
        let a = Probability::new(0.2).unwrap();
        let b = Probability::new(0.9).unwrap();
        assert!(a < b);
        assert!(b <= Probability::ONE);
    }

    #[test]
    fn error_displays_value() {
        let e = Probability::new(2.0).unwrap_err();
        assert!(e.to_string().contains("2"));
    }
}
