//! Seeded fault injection: the resilience layer's source of adversity.
//!
//! The paper's evaluation assumes a perfectly reliable platform. Real
//! serverless platforms are not: container provisioning fails (placement
//! races, image-pull errors), model loads fail (corrupt layers, OOM during
//! weight mapping), and containers crash mid-execution. PULSE's quality
//! ladder is a natural resilience mechanism — when the high-quality variant
//! cannot be provisioned, falling one rung is strictly better than failing
//! the request — and this module supplies the machinery to exercise it:
//!
//! * [`FaultPlan`] — a declarative, per-function fault configuration
//!   (provisioning-failure / variant-load-failure / mid-execution-crash
//!   rates, optional per-request timeout) with its own seed;
//! * [`FaultInjector`] — the runtime-side sampler that draws fault outcomes
//!   and backoff jitter from a dedicated seeded RNG, so fault sequences
//!   replay bit-identically and never perturb the duration sampler's
//!   stream.
//!
//! **Zero-fault invariant:** every draw is guarded by its rate, so a plan
//! with all rates at zero ([`FaultPlan::none`]) consumes no randomness and
//! schedules no extra events — a `Runtime::session` under such a plan is
//! bit-identical to `Runtime::run`.

use pulse_models::VariantId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Per-function fault rates. All rates are probabilities in `[0, 1]`
/// (values outside the interval are clamped at draw time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability that one provisioning attempt (cold start or retry)
    /// fails after its full provisioning duration.
    pub provision_failure: f64,
    /// Probability that a proactive variant load at a minute boundary (a
    /// pre-warm or a planned variant swap) fails, demoting the container to
    /// the provisioning path with retries.
    pub variant_load_failure: f64,
    /// Probability that an execution crashes its container partway through.
    pub exec_crash: f64,
    /// When set, faults only strike variants at or above this ladder rung —
    /// e.g. `Some(family.highest_id())` makes only the top variant flaky,
    /// which exercises one-rung degradation in isolation.
    pub min_faulty_variant: Option<VariantId>,
}

impl FaultRates {
    /// No faults at all.
    pub fn none() -> Self {
        Self {
            provision_failure: 0.0,
            variant_load_failure: 0.0,
            exec_crash: 0.0,
            min_faulty_variant: None,
        }
    }

    /// Uniform rates across the three fault classes, all rungs faulty.
    pub fn uniform(provision: f64, variant_load: f64, exec_crash: f64) -> Self {
        Self {
            provision_failure: provision,
            variant_load_failure: variant_load,
            exec_crash,
            min_faulty_variant: None,
        }
    }

    /// Whether faults of this rate set strike variant `v`.
    pub fn applies_to(&self, v: VariantId) -> bool {
        self.min_faulty_variant.is_none_or(|m| v >= m)
    }

    fn is_none(&self) -> bool {
        self.provision_failure <= 0.0 && self.variant_load_failure <= 0.0 && self.exec_crash <= 0.0
    }
}

impl Default for FaultRates {
    fn default() -> Self {
        Self::none()
    }
}

/// Retries after the initial failed attempt before falling one ladder rung
/// (provisioning) or failing the request (execution).
pub(crate) const MAX_RETRIES: u32 = 3;
/// Backoff before retry 1; doubles per retry.
const BASE_BACKOFF_MS: u64 = 100;
/// Backoff ceiling.
const MAX_BACKOFF_MS: u64 = 5_000;
/// Jitter as a fraction of the computed backoff, drawn uniformly in
/// `[0, JITTER_FRAC · backoff]` from the fault RNG.
const JITTER_FRAC: f64 = 0.2;

/// A declarative fault-injection configuration: a default rate set, optional
/// per-function overrides, an optional per-request timeout, and the seed of
/// the dedicated fault RNG. Failed attempts retry with capped exponential
/// backoff and seeded jitter ([`FaultInjector::backoff_ms`]).
///
/// The plan is pure data; [`FaultInjector`] turns it into a deterministic
/// fault stream. Two runs with the same plan (and the same
/// `RuntimeConfig.stochastic_seed`) produce identical failure sequences,
/// retry schedules and summary counters.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault RNG (independent of the duration-jitter seed).
    pub seed: u64,
    /// Rates applied to functions without an override.
    pub default_rates: FaultRates,
    /// Per-function rate overrides, keyed by function index.
    pub overrides: BTreeMap<usize, FaultRates>,
    /// When set, a request that has not completed within this budget of its
    /// arrival is failed and counted as a timeout (SLO accounting).
    pub request_timeout_ms: Option<u64>,
}

impl FaultPlan {
    /// The no-fault plan: zero rates everywhere, no timeout. Running under
    /// this plan is bit-identical to running without a fault layer.
    pub fn none() -> Self {
        Self {
            seed: 0,
            default_rates: FaultRates::none(),
            overrides: BTreeMap::new(),
            request_timeout_ms: None,
        }
    }

    /// Uniform rates for every function.
    pub fn uniform(provision: f64, variant_load: f64, exec_crash: f64, seed: u64) -> Self {
        Self {
            seed,
            default_rates: FaultRates::uniform(provision, variant_load, exec_crash),
            ..Self::none()
        }
    }

    /// Override the rates of one function.
    #[must_use]
    pub fn with_function(mut self, func: usize, rates: FaultRates) -> Self {
        self.overrides.insert(func, rates);
        self
    }

    /// Set the per-request timeout.
    #[must_use]
    pub fn with_timeout_ms(mut self, timeout_ms: u64) -> Self {
        self.request_timeout_ms = Some(timeout_ms);
        self
    }

    /// The rates governing `func`.
    pub fn rates_for(&self, func: usize) -> &FaultRates {
        self.overrides.get(&func).unwrap_or(&self.default_rates)
    }

    /// True when the plan can never produce a fault or a timeout.
    pub fn is_none(&self) -> bool {
        self.request_timeout_ms.is_none()
            && self.default_rates.is_none()
            && self.overrides.values().all(FaultRates::is_none)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// The runtime-side fault sampler: owns the plan and a dedicated seeded RNG.
///
/// Every boolean draw is guarded by its rate — a zero rate returns `false`
/// and a rate ≥ 1 returns `true` without consuming randomness — which is
/// what makes [`FaultPlan::none`] runs bit-identical to fault-free runs and
/// keeps degenerate plans (rate 1.0 chaos tests) deterministic.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SmallRng,
}

impl FaultInjector {
    /// Injector over `plan`, seeded from `plan.seed`.
    pub fn new(plan: &FaultPlan) -> Self {
        Self {
            plan: plan.clone(),
            rng: SmallRng::seed_from_u64(plan.seed),
        }
    }

    /// The plan this injector draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn draw(&mut self, rate: f64) -> bool {
        if rate <= 0.0 {
            false
        } else if rate >= 1.0 {
            true
        } else {
            self.rng.gen::<f64>() < rate
        }
    }

    /// Does this provisioning attempt of `variant` for `func` fail?
    pub fn provision_fails(&mut self, func: usize, variant: VariantId) -> bool {
        let r = *self.plan.rates_for(func);
        r.applies_to(variant) && self.draw(r.provision_failure)
    }

    /// Does the proactive minute-boundary load of `variant` for `func` fail?
    pub fn variant_load_fails(&mut self, func: usize, variant: VariantId) -> bool {
        let r = *self.plan.rates_for(func);
        r.applies_to(variant) && self.draw(r.variant_load_failure)
    }

    /// Does this execution on `variant` crash its container?
    pub fn exec_crashes(&mut self, func: usize, variant: VariantId) -> bool {
        let r = *self.plan.rates_for(func);
        r.applies_to(variant) && self.draw(r.exec_crash)
    }

    /// Where within an `exec_ms`-long execution the crash manifests:
    /// uniform over `[1, exec_ms]` (never zero, so a crash always consumes
    /// simulated time).
    pub fn crash_point_ms(&mut self, exec_ms: u64) -> u64 {
        if exec_ms <= 1 {
            1
        } else {
            self.rng.gen_range(1..=exec_ms)
        }
    }

    /// Backoff before retry number `attempt` (1-based): capped exponential
    /// plus uniform jitter. All arithmetic is checked/saturating, so an
    /// arbitrarily large attempt count saturates at the cap rather than
    /// overflowing `u64` before the cap applies.
    // The jitter cap is a fraction of a u64 backoff, so the cast cannot
    // exceed it.
    #[allow(clippy::cast_possible_truncation)]
    pub fn backoff_ms(&mut self, attempt: u32) -> u64 {
        let exp = attempt.saturating_sub(1);
        let factor = 1u64.checked_shl(exp).unwrap_or(u64::MAX);
        let backoff = BASE_BACKOFF_MS.saturating_mul(factor).min(MAX_BACKOFF_MS);
        let jitter_cap = (backoff as f64 * JITTER_FRAC) as u64;
        if jitter_cap == 0 {
            backoff
        } else {
            backoff.saturating_add(self.rng.gen_range(0..=jitter_cap))
        }
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)] // test-local counts fit
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_none_and_draws_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        let mut inj = FaultInjector::new(&plan);
        let before = inj.rng.clone();
        for f in 0..8 {
            assert!(!inj.provision_fails(f, 2));
            assert!(!inj.variant_load_fails(f, 0));
            assert!(!inj.exec_crashes(f, 1));
        }
        assert_eq!(inj.rng, before, "zero rates must not consume randomness");
    }

    #[test]
    fn rate_one_always_fails_without_randomness() {
        let plan = FaultPlan::uniform(1.0, 1.0, 1.0, 9);
        let mut inj = FaultInjector::new(&plan);
        let before = inj.rng.clone();
        assert!(inj.provision_fails(0, 0));
        assert!(inj.variant_load_fails(1, 3));
        assert!(inj.exec_crashes(2, 1));
        assert_eq!(inj.rng, before);
    }

    #[test]
    fn variant_scope_gates_faults() {
        let rates = FaultRates {
            provision_failure: 1.0,
            variant_load_failure: 1.0,
            exec_crash: 1.0,
            min_faulty_variant: Some(2),
        };
        let plan = FaultPlan {
            default_rates: rates,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(&plan);
        assert!(!inj.provision_fails(0, 0));
        assert!(!inj.provision_fails(0, 1));
        assert!(inj.provision_fails(0, 2));
        assert!(inj.exec_crashes(0, 5));
        assert!(!inj.exec_crashes(0, 1));
    }

    #[test]
    fn per_function_overrides_take_precedence() {
        let plan = FaultPlan::uniform(1.0, 0.0, 0.0, 1).with_function(3, FaultRates::none());
        let mut inj = FaultInjector::new(&plan);
        assert!(inj.provision_fails(0, 0));
        assert!(!inj.provision_fails(3, 0));
        assert!(!plan.is_none());
    }

    #[test]
    fn intermediate_rates_replay_deterministically() {
        let plan = FaultPlan::uniform(0.3, 0.2, 0.1, 42);
        let mut a = FaultInjector::new(&plan);
        let mut b = FaultInjector::new(&plan);
        for f in 0..200 {
            assert_eq!(a.provision_fails(f % 5, 1), b.provision_fails(f % 5, 1));
            assert_eq!(a.exec_crashes(f % 5, 1), b.exec_crashes(f % 5, 1));
            assert_eq!(
                a.backoff_ms(f as u32 % 6 + 1),
                b.backoff_ms(f as u32 % 6 + 1)
            );
        }
    }

    #[test]
    fn intermediate_rates_hit_roughly_in_proportion() {
        let plan = FaultPlan::uniform(0.25, 0.0, 0.0, 7);
        let mut inj = FaultInjector::new(&plan);
        let hits = (0..10_000).filter(|_| inj.provision_fails(0, 0)).count();
        assert!((2_000..3_000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let mut inj = FaultInjector::new(&FaultPlan::uniform(0.0, 0.0, 1.0, 5));
        for attempt in 1..=10u32 {
            let want = (BASE_BACKOFF_MS << (attempt - 1)).min(MAX_BACKOFF_MS);
            for _ in 0..200 {
                let b = inj.backoff_ms(attempt);
                let cap = want + (want as f64 * JITTER_FRAC) as u64;
                assert!(
                    (want..=cap).contains(&b),
                    "retry {attempt}: backoff {b} outside {want}..={cap}"
                );
            }
        }
        assert_eq!(BASE_BACKOFF_MS, 100);
        assert_eq!(MAX_BACKOFF_MS, 5_000);
        assert_eq!(MAX_RETRIES, 3);
    }

    #[test]
    fn huge_attempt_counts_saturate_at_the_cap_without_overflow() {
        let mut inj = FaultInjector::new(&FaultPlan::none());
        let cap = MAX_BACKOFF_MS + (MAX_BACKOFF_MS as f64 * JITTER_FRAC) as u64;
        // attempt = 63 → shift of 62: the exponential alone is ~4.6e20 ms
        // and must saturate, not wrap.
        for attempt in [63, 64, 65, u32::MAX] {
            for _ in 0..200 {
                let b = inj.backoff_ms(attempt);
                assert!(
                    (MAX_BACKOFF_MS..=cap).contains(&b),
                    "attempt {attempt}: backoff {b} outside the cap band"
                );
            }
        }
    }

    #[test]
    fn backoff_jitter_spans_its_fraction() {
        let mut inj = FaultInjector::new(&FaultPlan::none());
        let nominal = BASE_BACKOFF_MS * 2; // retry 2
        let cap = nominal + (nominal as f64 * JITTER_FRAC) as u64;
        let draws: Vec<u64> = (0..2_000).map(|_| inj.backoff_ms(2)).collect();
        assert!(draws.iter().all(|b| (nominal..=cap).contains(b)));
        assert_eq!(draws.iter().min(), Some(&nominal), "jitter reaches 0");
        assert_eq!(draws.iter().max(), Some(&cap), "jitter reaches its cap");
    }

    #[test]
    fn crash_point_is_within_execution() {
        let mut inj = FaultInjector::new(&FaultPlan::uniform(0.0, 0.0, 1.0, 3));
        for _ in 0..500 {
            let p = inj.crash_point_ms(2_200);
            assert!((1..=2_200).contains(&p));
        }
        assert_eq!(inj.crash_point_ms(0), 1);
        assert_eq!(inj.crash_point_ms(1), 1);
    }

    #[test]
    fn timeout_only_plan_is_not_none() {
        assert!(!FaultPlan::none().with_timeout_ms(60_000).is_none());
    }
}
