//! Per-variant metadata: the four scalars PULSE's decisions consume.

use serde::{Deserialize, Serialize};

/// Metadata for one quality variant of a model family.
///
/// These are the quantities the paper profiles on AWS Lambda (Table I):
/// warm service time, cold-start time, keep-alive memory (from which the
/// keep-alive cost follows under a GB-second price), and accuracy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariantSpec {
    /// Human-readable variant name, e.g. `"GPT-Large"`.
    pub name: String,
    /// Execution time of one inference when the container is warm, seconds.
    pub warm_service_time_s: f64,
    /// Additional time to create the container and load the model on a cold
    /// start, seconds. A cold invocation takes
    /// `cold_start_s + warm_service_time_s` in total.
    pub cold_start_s: f64,
    /// Keep-alive memory footprint of the container hosting this variant, MB.
    /// The paper reports model containers between roughly 300 MB and 3500 MB,
    /// doubled for the Lambda allocation (memory size = 2 × image size).
    pub memory_mb: f64,
    /// Inference accuracy on the family's benchmark dataset, percent (0–100).
    pub accuracy_pct: f64,
}

impl VariantSpec {
    /// Construct a variant, validating invariants.
    ///
    /// # Panics
    /// Panics if any quantity is non-finite or out of range (times and memory
    /// must be positive, accuracy must lie in `(0, 100]`).
    // Documented panicking constructor for hand-built zoos; validate() is
    // the fallible check.
    #[allow(clippy::expect_used)]
    pub fn new(
        name: impl Into<String>,
        warm_service_time_s: f64,
        cold_start_s: f64,
        memory_mb: f64,
        accuracy_pct: f64,
    ) -> Self {
        let v = Self {
            name: name.into(),
            warm_service_time_s,
            cold_start_s,
            memory_mb,
            accuracy_pct,
        };
        v.validate().expect("invalid VariantSpec");
        v
    }

    /// Check the invariants without panicking.
    pub fn validate(&self) -> Result<(), String> {
        let finite = |x: f64, what: &str| {
            if x.is_finite() {
                Ok(())
            } else {
                Err(format!("{}: {} is not finite", self.name, what))
            }
        };
        finite(self.warm_service_time_s, "warm_service_time_s")?;
        finite(self.cold_start_s, "cold_start_s")?;
        finite(self.memory_mb, "memory_mb")?;
        finite(self.accuracy_pct, "accuracy_pct")?;
        if self.warm_service_time_s <= 0.0 {
            return Err(format!("{}: warm service time must be > 0", self.name));
        }
        if self.cold_start_s < 0.0 {
            return Err(format!("{}: cold start time must be >= 0", self.name));
        }
        if self.memory_mb <= 0.0 {
            return Err(format!("{}: memory must be > 0", self.name));
        }
        if !(0.0 < self.accuracy_pct && self.accuracy_pct <= 100.0) {
            return Err(format!("{}: accuracy must be in (0, 100]", self.name));
        }
        Ok(())
    }

    /// Accuracy as a fraction in `(0, 1]` — the "decimal form" the paper uses
    /// for the accuracy-improvement term of the utility value.
    #[inline]
    pub fn accuracy_frac(&self) -> f64 {
        self.accuracy_pct / 100.0
    }

    /// Total service time of a cold invocation, seconds.
    #[inline]
    pub fn cold_service_time_s(&self) -> f64 {
        self.cold_start_s + self.warm_service_time_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VariantSpec {
        VariantSpec::new("GPT-Large", 23.66, 23.4, 7000.0, 93.45)
    }

    #[test]
    fn accessors_are_consistent() {
        let v = sample();
        assert!((v.accuracy_frac() - 0.9345).abs() < 1e-12);
        assert!((v.cold_service_time_s() - (23.4 + 23.66)).abs() < 1e-12);
    }

    #[test]
    fn validate_accepts_good_spec() {
        assert!(sample().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid VariantSpec")]
    fn zero_memory_rejected() {
        VariantSpec::new("bad", 1.0, 1.0, 0.0, 50.0);
    }

    #[test]
    #[should_panic(expected = "invalid VariantSpec")]
    fn negative_cold_start_rejected() {
        VariantSpec::new("bad", 1.0, -0.5, 100.0, 50.0);
    }

    #[test]
    #[should_panic(expected = "invalid VariantSpec")]
    fn accuracy_above_100_rejected() {
        VariantSpec::new("bad", 1.0, 1.0, 100.0, 101.0);
    }

    #[test]
    #[should_panic(expected = "invalid VariantSpec")]
    fn nan_rejected() {
        VariantSpec::new("bad", f64::NAN, 1.0, 100.0, 50.0);
    }

    #[test]
    fn zero_accuracy_rejected_nonpanicking() {
        let v = VariantSpec {
            name: "bad".into(),
            warm_service_time_s: 1.0,
            cold_start_s: 1.0,
            memory_mb: 100.0,
            accuracy_pct: 0.0,
        };
        assert!(v.validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let v = sample();
        // serde round-trip through the derived impls using a manual in-memory
        // format is covered by the trace crate's CSV; here we check the
        // Serialize/Deserialize derives exist and Clone/PartialEq agree.
        let w = v.clone();
        assert_eq!(v, w);
    }
}
