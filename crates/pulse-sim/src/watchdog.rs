//! A policy watchdog with a safe fallback.
//!
//! PULSE's optimizations are model-driven: when the invocation-probability
//! model goes bad (a workload shift, a pathological trace, a mis-tuned
//! threshold scheme) the policy can bleed cold starts or hold far more
//! keep-alive memory than it saves. SPES-style systems answer this with a
//! guarded fallback to the provider default; [`Watchdog`] is that guard for
//! any [`KeepAlivePolicy`].
//!
//! The wrapper tracks a rolling window of per-minute observations (requests
//! and SLO violations, fed by both engines through
//! [`KeepAlivePolicy::observe_minute`]) and compares the window's
//! **SLO-violation rate** (violations ÷ requests) against
//! [`WatchdogConfig::max_violation_rate`]. The rate can exceed 1: one
//! request can count both a cold start and a failure in the same minute.
//!
//! A minute whose window breaches the guardrail feeds an *enter* streak; a
//! clean minute feeds an *exit* streak. Only [`WatchdogConfig::enter_after`]
//! consecutive breached minutes switch the wrapper to the fixed 10-minute
//! OpenWhisk baseline, and only [`WatchdogConfig::exit_after`] consecutive
//! healthy minutes switch it back — the enter/exit hysteresis that keeps a
//! single transient spike from flapping the policy.
//!
//! With `max_violation_rate: f64::INFINITY` the window never breaches, so
//! the wrapper never falls back and adds no events: runs are bit-identical
//! to driving the inner policy directly.

use crate::policies::OpenWhiskFixed;
use crate::policy::{KeepAlivePolicy, MinuteObservation};
use pulse_core::global::{AliveModel, DowngradeAction};
use pulse_core::individual::KeepAliveSchedule;
use pulse_core::types::{FuncId, Minute};
use pulse_models::{ModelFamily, VariantId};
use std::collections::VecDeque;

/// Guardrails and hysteresis for [`Watchdog`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Rolling-window length, minutes.
    pub window: usize,
    /// Breach when the window's SLO violations per request exceed this
    /// (`f64::INFINITY` never breaches).
    pub max_violation_rate: f64,
    /// Consecutive breached minutes before falling back.
    pub enter_after: u32,
    /// Consecutive healthy minutes before recovering.
    pub exit_after: u32,
}

impl Default for WatchdogConfig {
    /// 30-minute window, 50% violation rate, enter after 3 breached
    /// minutes, exit after 10 healthy ones.
    fn default() -> Self {
        Self {
            window: 30,
            max_violation_rate: 0.5,
            enter_after: 3,
            exit_after: 10,
        }
    }
}

/// A [`KeepAlivePolicy`] wrapper that falls back to the fixed 10-minute
/// OpenWhisk baseline when the inner policy breaches its guardrails, with
/// enter/exit hysteresis. See the module docs for semantics.
#[derive(Debug, Clone)]
pub struct Watchdog<P> {
    inner: P,
    fallback: OpenWhiskFixed,
    cfg: WatchdogConfig,
    name: String,
    /// Rolling window of (requests, violations).
    window: VecDeque<(u64, u64)>,
    sum_requests: u64,
    sum_violations: u64,
    streak_breached: u32,
    streak_healthy: u32,
    in_fallback: bool,
    fallback_minutes: u64,
}

impl<P: KeepAlivePolicy> Watchdog<P> {
    /// Wrap `inner`, using the fixed 10-minute baseline over `families` as
    /// the safe fallback.
    pub fn new(inner: P, families: &[ModelFamily], cfg: WatchdogConfig) -> Self {
        let name = format!("watchdog({})", inner.name());
        Self {
            inner,
            fallback: OpenWhiskFixed::new(families),
            cfg,
            name,
            window: VecDeque::new(),
            sum_requests: 0,
            sum_violations: 0,
            streak_breached: 0,
            streak_healthy: 0,
            in_fallback: false,
            fallback_minutes: 0,
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Minutes spent in fallback so far.
    pub fn fallback_minutes(&self) -> u64 {
        self.fallback_minutes
    }

    /// Whether the rolling window's violation rate breaches the guardrail.
    fn window_breached(&self) -> bool {
        let rate = if self.sum_requests == 0 {
            0.0
        } else {
            self.sum_violations as f64 / self.sum_requests as f64
        };
        rate > self.cfg.max_violation_rate
    }
}

impl<P: KeepAlivePolicy> KeepAlivePolicy for Watchdog<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        // The inner policy keeps observing invocations even while benched —
        // its interarrival statistics must stay fresh for recovery.
        let inner_schedule = self.inner.schedule_on_invocation(f, t);
        if self.in_fallback {
            self.fallback.schedule_on_invocation(f, t)
        } else {
            inner_schedule
        }
    }

    fn cold_start_variant(&mut self, f: FuncId, t: Minute) -> VariantId {
        let inner_choice = self.inner.cold_start_variant(f, t);
        if self.in_fallback {
            self.fallback.cold_start_variant(f, t)
        } else {
            inner_choice
        }
    }

    fn adjust_minute(
        &mut self,
        t: Minute,
        mem_history: &[f64],
        first_minute_of_period: bool,
        current_kam_mb: f64,
        alive: &mut Vec<AliveModel>,
    ) -> Vec<DowngradeAction> {
        // In fallback the fixed baseline governs: it has no global layer, so
        // no cross-function actions are taken (the inner policy is not
        // consulted — its actions would mutate `alive` inconsistently with
        // the schedules the fallback produced).
        if self.in_fallback {
            return Vec::new();
        }
        self.inner.adjust_minute(
            t,
            mem_history,
            first_minute_of_period,
            current_kam_mb,
            alive,
        )
    }

    fn observe_minute(&mut self, obs: &MinuteObservation) {
        self.inner.observe_minute(obs);
        self.window.push_back((obs.requests, obs.slo_violations));
        self.sum_requests += obs.requests;
        self.sum_violations += obs.slo_violations;
        while self.window.len() > self.cfg.window.max(1) {
            if let Some((r, v)) = self.window.pop_front() {
                self.sum_requests -= r;
                self.sum_violations -= v;
            }
        }

        if self.window_breached() {
            self.streak_breached += 1;
            self.streak_healthy = 0;
        } else {
            self.streak_healthy += 1;
            self.streak_breached = 0;
        }

        if !self.in_fallback && self.streak_breached >= self.cfg.enter_after.max(1) {
            self.in_fallback = true;
        } else if self.in_fallback && self.streak_healthy >= self.cfg.exit_after.max(1) {
            self.in_fallback = false;
        }
        if self.in_fallback {
            self.fallback_minutes += 1;
        }
    }

    fn in_fallback(&self) -> bool {
        self.in_fallback
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_models::zoo;

    fn fams() -> Vec<ModelFamily> {
        vec![zoo::bert(), zoo::gpt()]
    }

    fn cfg() -> WatchdogConfig {
        WatchdogConfig {
            window: 5,
            max_violation_rate: 0.5,
            enter_after: 3,
            exit_after: 4,
        }
    }

    fn bad_minute(t: Minute) -> MinuteObservation {
        MinuteObservation {
            minute: t,
            requests: 10,
            slo_violations: 10,
        }
    }

    fn good_minute(t: Minute) -> MinuteObservation {
        MinuteObservation {
            minute: t,
            requests: 10,
            slo_violations: 0,
        }
    }

    #[test]
    fn transient_spike_does_not_flap() {
        let f = fams();
        let mut w = Watchdog::new(OpenWhiskFixed::new(&f), &f, cfg());
        // One bad minute among good ones: the enter streak never reaches 3.
        for t in 0..20 {
            let obs = if t == 7 {
                bad_minute(t)
            } else {
                good_minute(t)
            };
            w.observe_minute(&obs);
            assert!(!w.in_fallback(), "flapped at minute {t}");
        }
        assert_eq!(w.fallback_minutes(), 0);
    }

    #[test]
    fn sustained_breach_falls_back_and_recovers() {
        let f = fams();
        let mut w = Watchdog::new(OpenWhiskFixed::new(&f), &f, cfg());
        // Sustained violations: fallback after `enter_after` minutes.
        for t in 0..3 {
            assert!(!w.in_fallback());
            w.observe_minute(&bad_minute(t));
        }
        assert!(w.in_fallback(), "3 breached minutes must trip the watchdog");
        // Recovery needs the *rolling window* to go healthy, then
        // `exit_after` consecutive healthy minutes.
        let mut recovered_at = None;
        for t in 3..40 {
            w.observe_minute(&good_minute(t));
            if !w.in_fallback() {
                recovered_at = Some(t);
                break;
            }
        }
        let t = recovered_at.expect("sustained health must recover");
        // Window (5) must flush the bad minutes, then 4 healthy in a row —
        // recovery is not instant.
        assert!(t >= 6, "recovered too eagerly at {t}");
        // In fallback from the tripping minute 2 up to, not including, `t`.
        assert_eq!(w.fallback_minutes(), t - 2);
    }

    #[test]
    fn fallback_serves_the_fixed_baseline() {
        let f = fams();
        // Inner keeps the lowest variant; the fallback keeps the highest.
        let inner = crate::policies::FixedVariant::all_low(&f);
        let mut w = Watchdog::new(inner, &f, cfg());
        let before = w.schedule_on_invocation(1, 0);
        assert_eq!(before.variant_at_offset(1), Some(0), "inner governs");
        for t in 0..3 {
            w.observe_minute(&bad_minute(t));
        }
        assert!(w.in_fallback());
        let after = w.schedule_on_invocation(1, 10);
        assert_eq!(
            after.variant_at_offset(1),
            Some(f[1].highest_id()),
            "fallback governs"
        );
        assert_eq!(w.cold_start_variant(1, 10), f[1].highest_id());
        // No cross-function actions while benched.
        let mut alive = Vec::new();
        assert!(w.adjust_minute(10, &[], false, 0.0, &mut alive).is_empty());
    }

    #[test]
    fn a_minute_can_report_more_violations_than_requests() {
        // A cold start that then fails counts twice: 2 violations for 1
        // request is a rate of 2, so a bound of 1.0 still trips and only
        // an infinite bound never does.
        let f = fams();
        let double = |t| MinuteObservation {
            minute: t,
            requests: 1,
            slo_violations: 2,
        };
        let mut at_one = Watchdog::new(
            OpenWhiskFixed::new(&f),
            &f,
            WatchdogConfig {
                max_violation_rate: 1.0,
                ..cfg()
            },
        );
        let mut never = Watchdog::new(
            OpenWhiskFixed::new(&f),
            &f,
            WatchdogConfig {
                max_violation_rate: f64::INFINITY,
                ..cfg()
            },
        );
        for t in 0..100 {
            at_one.observe_minute(&double(t));
            never.observe_minute(&double(t));
        }
        assert!(at_one.in_fallback(), "a rate of 2 breaches a bound of 1");
        assert!(!never.in_fallback());
        assert_eq!(never.fallback_minutes(), 0);
        assert_eq!(never.name(), "watchdog(openwhisk-fixed-10min)");
    }

    #[test]
    fn zero_request_window_is_healthy() {
        let f = fams();
        let mut w = Watchdog::new(OpenWhiskFixed::new(&f), &f, cfg());
        for t in 0..10 {
            w.observe_minute(&MinuteObservation {
                minute: t,
                requests: 0,
                slo_violations: 0,
            });
        }
        assert!(!w.in_fallback(), "an idle platform is not a breach");
    }
}
