//! Utility value of a keep-alive decision (Section III-B, Equation 2).
//!
//! During a peak, every model currently kept alive is scored:
//!
//! ```text
//! Uv = Ai + Pr + Ip
//! ```
//!
//! * `Ai` — accuracy improvement of the chosen variant over the next-lower
//!   variant (or, at the lowest variant, that variant's accuracy in decimal
//!   form), see [`pulse_models::ModelFamily::accuracy_improvement`];
//! * `Pr` — the model's normalized downgrade priority (Equation 1), carried
//!   as a validated [`Probability`]-typed unit-interval value;
//! * `Ip` — the probability of invocation derived in the individual
//!   optimization, likewise a [`Probability`].
//!
//! Each component lies in `[0, 1]` and they are *equally weighted* "to ensure
//! a balanced assessment and prevent bias". The model with the lowest `Uv`
//! is downgraded first.

use crate::probability::Probability;

/// Equation 2: `Uv = Ai + Pr + Ip`.
///
/// `Pr` and `Ip` are unit-interval by type; `Ai` (an accuracy delta, not a
/// probability) is debug-asserted into the paper's stated `[0, 1]` range.
#[inline]
pub fn utility_value(ai: f64, pr: Probability, ip: Probability) -> f64 {
    debug_assert!((0.0..=1.0).contains(&ai), "Ai out of range: {ai}");
    let uv = ai + pr.value() + ip.value();
    debug_assert!((0.0..=3.0).contains(&uv), "Uv out of range: {uv}");
    uv
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    #[test]
    fn utility_is_sum_of_components() {
        assert!((utility_value(0.2, p(0.3), p(0.4)) - 0.9).abs() < 1e-12);
        assert_eq!(
            utility_value(0.0, Probability::ZERO, Probability::ZERO),
            0.0
        );
        assert_eq!(utility_value(1.0, Probability::ONE, Probability::ONE), 3.0);
    }

    #[test]
    fn utility_range_is_zero_to_three() {
        for ai in [0.0, 0.5, 1.0] {
            for pr in [0.0, 0.5, 1.0] {
                for ip in [0.0, 0.5, 1.0] {
                    let uv = utility_value(ai, p(pr), p(ip));
                    assert!((0.0..=3.0).contains(&uv));
                }
            }
        }
    }
}
