//! The keep-alive policy interface the simulator drives.

use pulse_core::global::{AliveModel, DowngradeAction};
use pulse_core::individual::KeepAliveSchedule;
use pulse_core::types::{FuncId, Minute};
use pulse_models::{ModelFamily, VariantId};

/// What one simulated minute looked like from the platform's side, fed back
/// to the policy after the minute completes (see
/// [`KeepAlivePolicy::observe_minute`]). Both engines report it: the minute
/// engine counts a cold start as the SLO violation, the event-driven runtime
/// additionally counts terminal failures and shed requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinuteObservation {
    /// The minute that just completed.
    pub minute: Minute,
    /// Requests that arrived during the minute.
    pub requests: u64,
    /// Requests that violated the SLO during the minute (cold starts in the
    /// minute engine; cold starts + failures + sheds in the runtime).
    pub slo_violations: u64,
}

/// A keep-alive policy: decides which variant container (if any) each
/// function keeps alive at each minute, and how to react to memory peaks.
///
/// The engine calls:
/// * [`Self::schedule_on_invocation`] after every invocation — the returned
///   schedule replaces the function's remaining plan;
/// * [`Self::cold_start_variant`] when an invocation arrives with no alive
///   container — the variant launched for that cold start;
/// * [`Self::adjust_minute`] once per minute *before* invocations are served
///   — the policy may return downgrade/evict actions (cross-function
///   optimization). Policies without a global layer use the default no-op;
/// * [`Self::observe_minute`] after each minute completes — feedback for
///   self-monitoring wrappers such as [`crate::watchdog::Watchdog`]. The
///   default is a no-op, so plain policies are unaffected.
pub trait KeepAlivePolicy: Send {
    /// Human-readable policy name for reports.
    fn name(&self) -> &str;

    /// Plan the keep-alive window following an invocation of `f` at `t`.
    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule;

    /// The variant to launch when `f` cold-starts at `t`.
    fn cold_start_variant(&mut self, f: FuncId, t: Minute) -> VariantId;

    /// Cross-function adjustment at minute `t`.
    ///
    /// * `mem_history` — keep-alive memory of minutes `0..t` (MB);
    /// * `first_minute_of_period` — true when this minute begins a new
    ///   keep-alive period (an invocation arrived in the previous minute, or
    ///   activity just resumed after an idle stretch) — Algorithm 1's
    ///   `t == 1` branch;
    /// * `current_kam_mb` — keep-alive memory at `t` before adjustment;
    /// * `alive` — alive containers at `t`, in function order, with
    ///   `invocation_probability` zeroed. It is the engine's own footprint
    ///   buffer ([`crate::engine::PlanState::fp`]), not a copy: implementations
    ///   may mutate it in step with the actions they return, and the engine
    ///   refills it before reading it again.
    ///
    /// The PULSE policies fill `Ip` for the alive models only when they
    /// act. Every policy built on [`pulse_core::PulseEngine`] —
    /// [`crate::policies::PulsePolicy`], the forecast-integrated ones, and
    /// the MILP and ablation policies of the experiments — goes through the
    /// engine's one peak step ([`pulse_core::PulseEngine::peak_step`]),
    /// which runs Algorithm 1 first, so an off-peak minute costs one prior,
    /// not one `Ip` query per alive model;
    /// [`crate::policies::CapacityPulse`] fills it only above its cap.
    fn adjust_minute(
        &mut self,
        _t: Minute,
        _mem_history: &[f64],
        _first_minute_of_period: bool,
        _current_kam_mb: f64,
        _alive: &mut Vec<AliveModel>,
    ) -> Vec<DowngradeAction> {
        Vec::new()
    }

    /// Feedback after a minute completes: request count and SLO
    /// violations. Default: ignore it.
    fn observe_minute(&mut self, _obs: &MinuteObservation) {}

    /// Whether the policy is currently serving from a safety fallback (see
    /// [`crate::watchdog::Watchdog`]). Plain policies never are.
    fn in_fallback(&self) -> bool {
        false
    }
}

/// Boxed policies forward everything, so wrappers generic over
/// `P: KeepAlivePolicy` (e.g. [`crate::watchdog::Watchdog`]) also accept
/// `Box<dyn KeepAlivePolicy>`.
impl<P: KeepAlivePolicy + ?Sized> KeepAlivePolicy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        (**self).schedule_on_invocation(f, t)
    }

    fn cold_start_variant(&mut self, f: FuncId, t: Minute) -> VariantId {
        (**self).cold_start_variant(f, t)
    }

    fn adjust_minute(
        &mut self,
        t: Minute,
        mem_history: &[f64],
        first_minute_of_period: bool,
        current_kam_mb: f64,
        alive: &mut Vec<AliveModel>,
    ) -> Vec<DowngradeAction> {
        (**self).adjust_minute(
            t,
            mem_history,
            first_minute_of_period,
            current_kam_mb,
            alive,
        )
    }

    fn observe_minute(&mut self, obs: &MinuteObservation) {
        (**self).observe_minute(obs)
    }

    fn in_fallback(&self) -> bool {
        (**self).in_fallback()
    }
}

/// The provider-default keep-alive window, minutes: the paper's baseline
/// keeps a container alive for 10 minutes after each invocation.
pub(crate) const PROVIDER_WINDOW: u32 = 10;

/// Shared helper: the highest variant id of each family, used by several
/// policies as the provider-default cold-start choice.
pub fn highest_ids(families: &[ModelFamily]) -> Vec<VariantId> {
    families.iter().map(|f| f.highest_id()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_models::zoo;

    #[test]
    fn highest_ids_match_families() {
        let fams = vec![zoo::bert(), zoo::gpt()];
        assert_eq!(highest_ids(&fams), vec![1, 2]);
    }

    struct Noop;
    impl KeepAlivePolicy for Noop {
        fn name(&self) -> &str {
            "noop"
        }
        fn schedule_on_invocation(&mut self, _f: FuncId, t: Minute) -> KeepAliveSchedule {
            KeepAliveSchedule::constant(t, 0, 10)
        }
        fn cold_start_variant(&mut self, _f: FuncId, _t: Minute) -> VariantId {
            0
        }
    }

    #[test]
    fn default_adjust_is_noop() {
        let mut p = Noop;
        let mut alive = Vec::new();
        let actions = p.adjust_minute(5, &[1.0, 2.0], false, 100.0, &mut alive);
        assert!(actions.is_empty());
    }

    #[test]
    fn default_observe_is_noop_and_never_in_fallback() {
        let mut p = Noop;
        p.observe_minute(&MinuteObservation {
            minute: 3,
            requests: 10,
            slo_violations: 10,
        });
        assert!(!p.in_fallback());
    }
}
