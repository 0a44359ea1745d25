//! The PULSE engine: both optimization layers behind one stateful API.
//!
//! A platform (the `pulse-sim` simulator, or a real serverless shim) drives
//! the engine with three calls:
//!
//! 1. [`PulseEngine::record_invocation`] whenever a function is invoked;
//! 2. [`PulseEngine::schedule_after_invocation`] to obtain the per-minute
//!    variant plan for the next keep-alive window (individual optimization);
//! 3. once per minute, [`PulseEngine::flatten_minute`] with the current
//!    keep-alive memory and the set of alive containers — if Algorithm 1
//!    flags a peak, the engine fills each alive model's `Ip` and returns
//!    Algorithm 2's downgrade actions for the platform to apply
//!    (cross-function optimization). Off-peak minutes cost one prior.
//!    [`PulseEngine::check_and_flatten`] is the same step for callers that
//!    supply `Ip` themselves.

use crate::convert::window_to_len;
use crate::global::{flatten_peak_scratch, AliveModel, FlattenOutcome, FlattenScratch};
use crate::individual::KeepAliveSchedule;
use crate::interarrival::{GapProbabilities, InterArrivalModel};
use crate::peak::PeakDetector;
use crate::priority::PriorityStructure;
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
    /// across calls, so it is deliberately absent from export/import.
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

    /// Number of functions managed.
    pub fn n_functions(&self) -> usize {
        self.families.len()
    }

    /// The family assigned to function `f`.
    pub fn family(&self, f: FuncId) -> &ModelFamily {
        &self.families[f]
    }

    /// All family assignments.
    pub fn families(&self) -> &[ModelFamily] {
        &self.families
    }

    /// The active configuration.
    pub fn config(&self) -> &PulseConfig {
        &self.config
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

    /// Current combined gap-probability estimate for function `f` at `t`.
    pub fn probabilities(&self, f: FuncId, t: Minute) -> GapProbabilities {
        self.arrivals[f].probabilities(t, self.config.local_window)
    }

    /// Individual optimization: the variant plan for the keep-alive window
    /// following an invocation of `f` at minute `t`.
    ///
    /// Call [`Self::record_invocation`] first so the plan reflects the
    /// just-observed arrival.
    ///
    /// Each minute's combined gap probability selects its variant in place,
    /// so the plan is the only allocation. The scheme is matched once per
    /// window, so each arm's per-minute closure inlines a fixed scheme.
    pub fn schedule_after_invocation(&self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        let n = self.families[f].n_variants();
        let (model, window) = (&self.arrivals[f], self.config.local_window);
        let plan = match self.config.scheme {
            SchemeKind::T1 => model.map_combined(t, window, |p| SchemeKind::T1.select(p, n)),
            SchemeKind::T2 => model.map_combined(t, window, |p| SchemeKind::T2.select(p, n)),
        };
        KeepAliveSchedule::new(t, plan)
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

    /// Cross-function optimization for minute `t`, paying for Algorithm 2's
    /// inputs only on a peak: Algorithm 1's prior is computed once, and on a
    /// non-peak the call returns `None` without touching `alive`. On a peak
    /// it fills each alive model's `invocation_probability` with
    /// [`Self::invocation_probability_at`] and flattens exactly as
    /// [`Self::check_and_flatten`] would after the caller filled `Ip` for
    /// every model. Arguments are those of [`Self::check_and_flatten`].
    pub fn flatten_minute(
        &mut self,
        t: Minute,
        mem_history: &[f64],
        first_minute_of_period: bool,
        current_kam_mb: f64,
        alive: &mut Vec<AliveModel>,
    ) -> Option<FlattenOutcome> {
        let prior = self.detector.prior_kam(mem_history, first_minute_of_period);
        if !self.detector.is_peak(current_kam_mb, prior) {
            return None;
        }
        for m in alive.iter_mut() {
            m.invocation_probability = self.invocation_probability_at(m.func, t);
        }
        Some(self.flatten_from_prior(prior, current_kam_mb, alive))
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
        let prior = self.detector.prior_kam(mem_history, first_minute_of_period);
        if !self.detector.is_peak(current_kam_mb, prior) {
            return None;
        }
        Some(self.flatten_from_prior(prior, current_kam_mb, alive))
    }

    /// Algorithm 2 on a minute Algorithm 1 flagged against `prior`.
    fn flatten_from_prior(
        &mut self,
        prior: f64,
        current_kam_mb: f64,
        alive: &mut Vec<AliveModel>,
    ) -> FlattenOutcome {
        let target = self.detector.flatten_target(prior);
        flatten_peak_scratch(
            &mut self.scratch,
            alive,
            &self.families,
            &mut self.priority,
            current_kam_mb,
            target,
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
        assert_eq!(e.n_functions(), 3);
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
