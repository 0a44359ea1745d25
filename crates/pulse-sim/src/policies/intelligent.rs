//! The "intelligent solution" oracle (Tables II/III, row 4).
//!
//! "In the fourth approach, we implemented an intelligent solution wherein
//! functions with a higher number of actual invocations during the 10
//! minutes had high-quality models kept alive, while others utilized
//! low-quality models." It is an *oracle*: it reads the trace's future to
//! rank functions — the motivation-section upper bound PULSE approximates
//! with predictions.

use crate::policy::{KeepAlivePolicy, PROVIDER_WINDOW};
use pulse_core::individual::KeepAliveSchedule;
use pulse_core::types::{FuncId, Minute};
use pulse_models::{ModelFamily, VariantId};
use pulse_trace::Trace;

/// Oracle mixing: the top half of functions by *actual* future invocation
/// volume (over each window) keep their highest variant; the rest keep their
/// lowest.
#[derive(Debug, Clone)]
pub struct IntelligentOracle {
    trace: Trace,
    highest: Vec<VariantId>,
}

impl IntelligentOracle {
    /// Oracle over the trace it will be simulated against (10-minute window).
    pub fn new(families: &[ModelFamily], trace: Trace) -> Self {
        assert_eq!(
            families.len(),
            trace.n_functions(),
            "one family per traced function"
        );
        Self {
            trace,
            highest: crate::policy::highest_ids(families),
        }
    }

    /// Future invocation volume of `f` in `(t, t + window]`.
    fn future_volume(&self, f: FuncId, t: Minute) -> u64 {
        (1..=u64::from(PROVIDER_WINDOW))
            .map(|m| self.trace.function(f).at(t + m) as u64)
            .sum()
    }

    /// Whether `f` ranks in the top half by future volume at `t` (ties break
    /// toward high quality, matching the balanced-count construction).
    fn is_high(&self, f: FuncId, t: Minute) -> bool {
        let mine = self.future_volume(f, t);
        let busier = (0..self.trace.n_functions())
            .filter(|&g| {
                let v = self.future_volume(g, t);
                v > mine || (v == mine && g < f)
            })
            .count();
        busier < self.trace.n_functions().div_ceil(2)
    }
}

impl KeepAlivePolicy for IntelligentOracle {
    fn name(&self) -> &str {
        "intelligent-oracle"
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        let v = if self.is_high(f, t) {
            self.highest[f]
        } else {
            0
        };
        KeepAliveSchedule::constant(t, v, PROVIDER_WINDOW)
    }

    fn cold_start_variant(&mut self, f: FuncId, t: Minute) -> VariantId {
        if self.is_high(f, t) {
            self.highest[f]
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_models::zoo;
    use pulse_trace::FunctionTrace;

    fn setup() -> (Vec<ModelFamily>, Trace) {
        let fams = vec![zoo::gpt(), zoo::bert(), zoo::densenet(), zoo::yolo()];
        // Function 0 busy, 1 quiet, 2 moderately busy, 3 silent after t=0.
        let trace = Trace::new(vec![
            FunctionTrace::new("busy", vec![1, 5, 5, 5, 5, 5, 0, 0, 0, 0, 0, 0]),
            FunctionTrace::new("quiet", vec![1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]),
            FunctionTrace::new("mid", vec![1, 2, 0, 2, 0, 2, 0, 0, 0, 0, 0, 0]),
            FunctionTrace::new("silent", vec![1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
        ]);
        (fams, trace)
    }

    #[test]
    fn busiest_functions_get_high_quality() {
        let (fams, trace) = setup();
        let mut p = IntelligentOracle::new(&fams, trace);
        // At t=0, future volumes: busy=25, quiet=1, mid=6, silent=0 → top
        // half = {busy, mid}.
        assert_eq!(p.cold_start_variant(0, 0), 2); // GPT highest
        assert_eq!(p.cold_start_variant(2, 0), 2); // DenseNet highest
        assert_eq!(p.cold_start_variant(1, 0), 0);
        assert_eq!(p.cold_start_variant(3, 0), 0);
    }

    #[test]
    fn schedule_matches_rank() {
        let (fams, trace) = setup();
        let mut p = IntelligentOracle::new(&fams, trace);
        let s_busy = p.schedule_on_invocation(0, 0);
        let s_silent = p.schedule_on_invocation(3, 0);
        assert_eq!(s_busy.variant_at_offset(1), Some(2));
        assert_eq!(s_silent.variant_at_offset(1), Some(0));
    }

    #[test]
    fn rank_changes_over_time() {
        let (fams, trace) = setup();
        let mut p = IntelligentOracle::new(&fams, trace);
        // At t=5 the busy function has no future volume left; quiet and mid
        // tie at 0 with everyone — ties break by index, so 0 and 1 are high.
        assert_eq!(p.cold_start_variant(0, 5), 2);
        assert_eq!(p.cold_start_variant(2, 5), 0);
    }

    #[test]
    fn future_window_clips_at_horizon() {
        let (fams, trace) = setup();
        let p = IntelligentOracle::new(&fams, trace);
        assert_eq!(p.future_volume(0, 100), 0);
    }

    #[test]
    #[should_panic(expected = "one family per traced function")]
    fn mismatched_sizes_rejected() {
        let (mut fams, trace) = setup();
        fams.pop();
        IntelligentOracle::new(&fams, trace);
    }
}
