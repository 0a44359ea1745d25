//! The PULSE engine: both optimization layers behind one stateful API.
//!
//! A platform (the `pulse-sim` simulator, or a real serverless shim) drives
//! the engine with three calls:
//!
//! 1. [`PulseEngine::record_invocation`] whenever a function is invoked;
//! 2. [`PulseEngine::schedule_after_invocation`] to obtain the per-minute
//!    variant plan for the next keep-alive window (individual optimization);
//!    a forecaster passes its own warm window to [`PulseEngine::plan_window`];
//! 3. once per minute, [`PulseEngine::flatten_minute`] with the current
//!    keep-alive memory and the set of alive containers — if Algorithm 1
//!    flags a peak, the engine fills each alive model's `Ip` and returns
//!    Algorithm 2's downgrade actions for the platform to apply
//!    (cross-function optimization). Off-peak minutes cost one prior. A
//!    policy with its own flattener hands it to [`PulseEngine::peak_step`];
//!    [`PulseEngine::check_and_flatten`] is the step for callers that
//!    supply `Ip` themselves.

use crate::convert::window_to_len;
use crate::global::{flatten_peak_scratch, AliveModel, FlattenOutcome, FlattenScratch};
use crate::individual::KeepAliveSchedule;
use crate::interarrival::InterArrivalModel;
use crate::peak::PeakDetector;
use crate::priority::PriorityStructure;
use crate::schedule::Slot;
use crate::types::{ConfigError, FuncId, Minute, PulseConfig, SchemeKind};
use pulse_models::ModelFamily;
use std::fmt;

/// Why [`PulseEngine::try_new`] rejected its inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum PulseInitError {
    /// The configuration failed [`PulseConfig::validate`].
    Config(ConfigError),
    /// `families[index]` failed its own validation.
    Family {
        /// Index of the rejected family.
        index: usize,
        /// The family's validation message.
        reason: String,
    },
}

impl fmt::Display for PulseInitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(e) => write!(f, "invalid PulseConfig: {e}"),
            Self::Family { index, reason } => write!(f, "invalid family {index}: {reason}"),
        }
    }
}

impl std::error::Error for PulseInitError {}

/// Stateful PULSE policy over a fixed set of functions, each assigned one
/// model family.
#[derive(Debug, Clone)]
pub struct PulseEngine {
    families: Vec<ModelFamily>,
    arrivals: Vec<InterArrivalModel>,
    priority: PriorityStructure,
    detector: PeakDetector,
    config: PulseConfig,
    /// Reused by Algorithm 2 so repeated peaks allocate no
    /// per-pass victim-selection state. Pure scratch: carries no state
    /// across calls.
    scratch: FlattenScratch,
}

impl PulseEngine {
    /// Create an engine for `families.len()` functions; `families[f]` is the
    /// model family assigned to function `f`.
    ///
    /// # Panics
    /// Panics if the configuration or any family is invalid; fallible
    /// callers should use [`Self::try_new`].
    // Documented panicking convenience constructor; fallible callers use try_new.
    #[allow(clippy::panic)]
    pub fn new(families: Vec<ModelFamily>, config: PulseConfig) -> Self {
        match Self::try_new(families, config) {
            Ok(engine) => engine,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible construction: validates the configuration and every family,
    /// returning a typed error instead of panicking.
    pub fn try_new(
        families: Vec<ModelFamily>,
        config: PulseConfig,
    ) -> Result<Self, PulseInitError> {
        config.validate().map_err(PulseInitError::Config)?;
        for (index, f) in families.iter().enumerate() {
            f.validate()
                .map_err(|reason| PulseInitError::Family { index, reason })?;
        }
        let n = families.len();
        Ok(Self {
            families,
            arrivals: vec![InterArrivalModel::new(config.keepalive_minutes); n],
            priority: PriorityStructure::new(n),
            detector: PeakDetector::new(config.km_threshold, window_to_len(config.local_window)),
            config,
            scratch: FlattenScratch::default(),
        })
    }

    /// The family assigned to function `f`.
    pub fn family(&self, f: FuncId) -> &ModelFamily {
        &self.families[f]
    }

    /// All family assignments.
    pub fn families(&self) -> &[ModelFamily] {
        &self.families
    }

    /// The downgrade-priority structure (inspection/testing).
    pub fn priority(&self) -> &PriorityStructure {
        &self.priority
    }

    /// The peak detector (inspection).
    pub fn detector(&self) -> &PeakDetector {
        &self.detector
    }

    /// Record an invocation of function `f` at minute `t`.
    pub fn record_invocation(&mut self, f: FuncId, t: Minute) {
        self.arrivals[f].record(t);
    }

    /// Individual optimization: the variant plan for the keep-alive window
    /// following an invocation of `f` at minute `t` — [`Self::plan_window`]
    /// over every minute of the window.
    ///
    /// Call [`Self::record_invocation`] first so the plan reflects the
    /// just-observed arrival.
    pub fn schedule_after_invocation(&self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        self.plan_window(f, t, self.config.keepalive_minutes, |_| true)
    }

    /// The plan for minutes `1..=len` after an invocation of `f` at `t`: a
    /// minute `m` with `covers(m)` keeps the variant the configured scheme
    /// selects from gap `m`'s combined estimate (zero, so rung 0, past the
    /// keep-alive window), any other a [`Slot::Hole`]. The plan is mapped in
    /// one buffer, with the scheme matched once per window.
    pub fn plan_window(
        &self,
        f: FuncId,
        t: Minute,
        len: u32,
        covers: impl Fn(u64) -> bool,
    ) -> KeepAliveSchedule {
        let n = self.families[f].n_variants();
        let (model, window) = (&self.arrivals[f], self.config.local_window);
        let mut plan = match self.config.scheme {
            SchemeKind::T1 => model.map_combined(t, window, |p| SchemeKind::T1.select(p, n)),
            SchemeKind::T2 => model.map_combined(t, window, |p| SchemeKind::T2.select(p, n)),
        };
        plan.resize(window_to_len(len), 0);
        for (m, slot) in (1..).zip(&mut plan) {
            if !covers(m) {
                *slot = Slot::Hole.into_raw();
            }
        }
        KeepAliveSchedule::from_raw(t, plan)
    }

    /// `Ip` — the probability that function `f` is invoked at minute `t`,
    /// i.e. the probability of an inter-arrival gap equal to the time since
    /// `f`'s last invocation. Zero when `f` has never been invoked or the
    /// gap exceeds the keep-alive window. See
    /// [`InterArrivalModel::invocation_probability_at`].
    pub fn invocation_probability_at(&self, f: FuncId, t: Minute) -> f64 {
        self.arrivals[f]
            .invocation_probability_at(t, self.config.local_window)
            .value()
    }

    /// Cross-function optimization for minute `t`: [`Self::peak_step`]
    /// with the production victim heap ([`Peak::flatten`]). Arguments are
    /// those of [`Self::check_and_flatten`].
    pub fn flatten_minute(
        &mut self,
        t: Minute,
        mem_history: &[f64],
        first_minute_of_period: bool,
        current_kam_mb: f64,
        alive: &mut Vec<AliveModel>,
    ) -> Option<FlattenOutcome> {
        let (history, first) = (mem_history, first_minute_of_period);
        self.peak_step(t, history, first, current_kam_mb, alive, |p| p.flatten())
    }

    /// The peak step of minute `t`, paying for Algorithm 2's inputs only on
    /// a peak: Algorithm 1's prior is computed once, and a non-peak returns
    /// `None` without touching `alive`. On a peak it fills each alive
    /// model's `invocation_probability` with
    /// [`Self::invocation_probability_at`] and returns what `flatten` makes
    /// of the [`Peak`]. Other arguments are those of
    /// [`Self::check_and_flatten`].
    pub fn peak_step<R>(
        &mut self,
        t: Minute,
        mem_history: &[f64],
        first_minute_of_period: bool,
        current_kam_mb: f64,
        alive: &mut Vec<AliveModel>,
        flatten: impl FnOnce(Peak<'_>) -> R,
    ) -> Option<R> {
        let (history, first) = (mem_history, first_minute_of_period);
        self.peak(Some(t), history, first, current_kam_mb, alive)
            .map(flatten)
    }

    /// Cross-function optimization for one minute, with `Ip` supplied by
    /// the caller.
    ///
    /// * `mem_history` — per-minute keep-alive memory series *before* this
    ///   minute (oldest first);
    /// * `first_minute_of_period` — true when activity just resumed (the
    ///   previous minute had no alive containers), selecting Algorithm 1's
    ///   `t == 1` branch;
    /// * `current_kam_mb` — keep-alive memory at this minute;
    /// * `alive` — the alive containers, with `invocation_probability`
    ///   already filled in; mutated in place when a peak is flattened.
    ///
    /// Returns `None` when the minute is not a peak, otherwise the actions
    /// the platform must apply.
    pub fn check_and_flatten(
        &mut self,
        mem_history: &[f64],
        first_minute_of_period: bool,
        current_kam_mb: f64,
        alive: &mut Vec<AliveModel>,
    ) -> Option<FlattenOutcome> {
        let (history, first) = (mem_history, first_minute_of_period);
        self.peak(None, history, first, current_kam_mb, alive)
            .map(|p| p.flatten())
    }

    /// Algorithm 1 on this minute: `None` on a non-peak, otherwise the
    /// [`Peak`] over the engine's own state, with `Ip` filled at `ip_at`
    /// when it is given.
    fn peak<'a>(
        &'a mut self,
        ip_at: Option<Minute>,
        mem_history: &[f64],
        first_minute_of_period: bool,
        current_kam_mb: f64,
        alive: &'a mut Vec<AliveModel>,
    ) -> Option<Peak<'a>> {
        let prior = self.detector.prior_kam(mem_history, first_minute_of_period);
        if !self.detector.is_peak(current_kam_mb, prior) {
            return None;
        }
        if let Some(t) = ip_at {
            for m in alive.iter_mut() {
                m.invocation_probability = self.invocation_probability_at(m.func, t);
            }
        }
        Some(Peak {
            alive,
            families: &self.families,
            priority: &mut self.priority,
            current_kam_mb,
            target_kam_mb: self.detector.flatten_target(prior),
            scratch: &mut self.scratch,
        })
    }
}

/// A minute Algorithm 1 flagged, as [`PulseEngine::peak_step`] hands it to
/// a flattener: Algorithm 2's inputs, with `Ip` filled.
pub struct Peak<'a> {
    /// The alive models; the flattener removes or downgrades its victims.
    pub alive: &'a mut Vec<AliveModel>,
    /// The engine's families, indexed by function.
    pub families: &'a [ModelFamily],
    /// The engine's downgrade-priority structure; the flattener bumps each
    /// victim.
    pub priority: &'a mut PriorityStructure,
    /// Keep-alive memory at this minute, MB.
    pub current_kam_mb: f64,
    /// Algorithm 1's flatten target, MB.
    pub target_kam_mb: f64,
    scratch: &'a mut FlattenScratch,
}

impl Peak<'_> {
    /// Algorithm 2 with the production victim heap and the engine's
    /// scratch.
    pub fn flatten(self) -> FlattenOutcome {
        flatten_peak_scratch(
            self.scratch,
            self.alive,
            self.families,
            self.priority,
            self.current_kam_mb,
            self.target_kam_mb,
        )
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;
    use pulse_models::zoo;

    fn engine() -> PulseEngine {
        PulseEngine::new(
            vec![zoo::gpt(), zoo::bert(), zoo::yolo()],
            PulseConfig::default(),
        )
    }

    #[test]
    fn construction_sizes_state_per_function() {
        let e = engine();
        assert_eq!(e.families().len(), 3);
        assert_eq!(e.priority().len(), 3);
        assert_eq!(e.family(1).name, "BERT");
    }

    #[test]
    fn periodic_function_gets_peaked_schedule() {
        let mut e = engine();
        for t in [0u64, 3, 6, 9, 12] {
            e.record_invocation(0, t);
        }
        let s = e.schedule_after_invocation(0, 12);
        assert_eq!(s.variant_at_offset(3), Some(2), "P(3)=1 → highest variant");
        assert_eq!(s.variant_at_offset(5), Some(0));
        assert_eq!(s.window(), 10);
    }

    #[test]
    fn tight_cadence_warms_high_variant_at_the_right_minute() {
        let mut e = engine();
        for t in [0u64, 2, 4, 6, 8, 10] {
            e.record_invocation(0, t);
        }
        let s = e.schedule_after_invocation(0, 10);
        // P(gap=2)=1 → highest variant at offset 2; all other offsets have
        // probability 0 → lowest variant (but still alive).
        assert_eq!(s.variant_at_offset(2), Some(2));
        for m in [1u64, 3, 4, 5, 6, 7, 8, 9, 10] {
            assert_eq!(s.variant_at_offset(m), Some(0), "offset {m}");
        }
    }

    #[test]
    fn uninformed_history_keeps_lowest_variant_alive_under_both_schemes() {
        for scheme in [SchemeKind::T1, SchemeKind::T2] {
            let cfg = PulseConfig {
                scheme,
                ..Default::default()
            };
            let mut e = PulseEngine::new(vec![zoo::gpt()], cfg);
            e.record_invocation(0, 50);
            let s = e.schedule_after_invocation(0, 50);
            assert_eq!(s.window(), 10);
            for m in 1..=10u64 {
                assert_eq!(s.variant_at_offset(m), Some(0), "{scheme:?} offset {m}");
            }
        }
    }

    #[test]
    fn window_of_one_minute() {
        let cfg = PulseConfig {
            keepalive_minutes: 1,
            ..Default::default()
        };
        let mut e = PulseEngine::new(vec![zoo::gpt()], cfg);
        e.record_invocation(0, 0);
        let s = e.schedule_after_invocation(0, 0);
        assert_eq!(s.window(), 1);
        assert_eq!(s.variant_at_offset(1), Some(0));
        assert_eq!(s.variant_at_offset(2), None);
    }

    #[test]
    fn forecast_window_holes_uncovered_minutes_and_extends_past_keepalive() {
        let mut e = engine();
        for t in [0u64, 3, 6, 9, 12] {
            e.record_invocation(0, t);
        }
        let s = e.plan_window(0, 12, 14, |m| m % 3 == 0);
        assert_eq!(s.window(), 14);
        assert_eq!(s.slot_at_offset(3), Some(Slot::Alive(2)), "P(3)=1");
        assert_eq!(s.slot_at_offset(4), Some(Slot::Hole));
        // Past the keep-alive window the estimate is zero: rung 0.
        assert_eq!(s.slot_at_offset(12), Some(Slot::Alive(0)));
        assert_eq!(s.slot_at_offset(13), Some(Slot::Hole));
        assert_eq!(e.plan_window(0, 12, 2, |_| true).window(), 2);
    }

    #[test]
    fn invocation_probability_tracks_gap() {
        let mut e = engine();
        for t in [0u64, 4, 8, 12] {
            e.record_invocation(0, t);
        }
        // Last arrival at 12; at t=16 the gap would be 4, which is the only
        // gap ever observed → probability 1.
        assert!((e.invocation_probability_at(0, 16) - 1.0).abs() < 1e-12);
        assert_eq!(e.invocation_probability_at(0, 15), 0.0);
        // Never-invoked function.
        assert_eq!(e.invocation_probability_at(1, 16), 0.0);
        // Same minute as the last arrival.
        assert_eq!(e.invocation_probability_at(0, 12), 0.0);
    }

    #[test]
    fn no_peak_returns_none() {
        let mut e = engine();
        let history = vec![1000.0; 20];
        let mut alive = Vec::new();
        assert!(e
            .check_and_flatten(&history, false, 1000.0, &mut alive)
            .is_none());
    }

    #[test]
    fn peak_triggers_downgrades_and_priority_updates() {
        let mut e = engine();
        let history = vec![1000.0; 20];
        let mut alive = vec![
            AliveModel {
                func: 0,
                variant: 2,
                invocation_probability: 0.0,
            },
            AliveModel {
                func: 1,
                variant: 1,
                invocation_probability: 0.0,
            },
        ];
        let current = 9000.0; // 9× the steady level → definitely a peak
        let out = e
            .check_and_flatten(&history, false, current, &mut alive)
            .expect("peak expected");
        assert!(out.flattened);
        assert!(out.final_kam_mb <= 1100.0 + 1e-9);
        assert!(!out.actions.is_empty());
        let total_bumps: u64 = (0..3).map(|m| e.priority().count(m)).sum();
        assert_eq!(usize::try_from(total_bumps).unwrap(), out.actions.len());
    }

    #[test]
    fn first_minute_wakeup_is_not_peaked_at_prior_level() {
        let mut e = engine();
        // Steady at 5000 then inactive.
        let mut history = vec![5000.0; 120];
        history.extend(vec![0.0; 60]);
        let mut alive = vec![AliveModel {
            func: 0,
            variant: 2,
            invocation_probability: 0.5,
        }];
        // Wake up at roughly the old level: not a peak.
        assert!(e
            .check_and_flatten(&history, true, 5100.0, &mut alive)
            .is_none());
        assert_eq!(alive.len(), 1);
    }

    #[test]
    fn scheme_t2_is_selectable_via_config() {
        let cfg = PulseConfig {
            scheme: SchemeKind::T2,
            ..Default::default()
        };
        let mut e = PulseEngine::new(vec![zoo::gpt()], cfg);
        for t in [0u64, 5, 10, 15] {
            e.record_invocation(0, t);
        }
        let s = e.schedule_after_invocation(0, 15);
        // Under T2, P(5)=1 → highest; zero-probability minutes → lowest.
        assert_eq!(s.variant_at_offset(5), Some(2));
        assert_eq!(s.variant_at_offset(1), Some(0));
    }

    #[test]
    #[should_panic(expected = "invalid PulseConfig")]
    fn invalid_config_rejected() {
        PulseEngine::new(
            vec![zoo::gpt()],
            PulseConfig {
                keepalive_minutes: 0,
                ..Default::default()
            },
        );
    }

    #[test]
    fn try_new_reports_typed_errors() {
        use crate::types::ConfigError;
        let err = PulseEngine::try_new(
            vec![zoo::gpt()],
            PulseConfig {
                keepalive_minutes: 0,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, PulseInitError::Config(ConfigError::ZeroKeepalive));
        assert!(err.to_string().contains("invalid PulseConfig"));

        let ok = PulseEngine::try_new(vec![zoo::gpt()], PulseConfig::default());
        assert!(ok.is_ok());
    }
}
