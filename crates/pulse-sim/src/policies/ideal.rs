//! The ideal-cost oracle (Figure 6b's reference line).
//!
//! "…the ideal value of keep-alive cost, where the model is only kept alive
//! during the time it is invoked." This oracle reads the trace's future and
//! keeps the highest-quality container alive exactly at the minutes when an
//! invocation will arrive — every start is warm, and no idle minute is ever
//! billed. It is unrealizable in practice (it requires perfect foresight)
//! and serves purely as the denominator of the per-minute cost-error series.

use crate::policy::{KeepAlivePolicy, PROVIDER_WINDOW};
use pulse_core::individual::KeepAliveSchedule;
use pulse_core::schedule::Slot;
use pulse_core::types::{FuncId, Minute};
use pulse_models::{ModelFamily, VariantId};
use pulse_trace::Trace;

/// Keep containers alive only at (future) invocation minutes.
#[derive(Debug, Clone)]
pub struct IdealOracle {
    trace: Trace,
    highest: Vec<VariantId>,
}

impl IdealOracle {
    /// Oracle over the trace it will be simulated against (10-minute window).
    pub fn new(families: &[ModelFamily], trace: Trace) -> Self {
        assert_eq!(families.len(), trace.n_functions());
        Self {
            trace,
            highest: crate::policy::highest_ids(families),
        }
    }
}

impl KeepAlivePolicy for IdealOracle {
    fn name(&self) -> &str {
        "ideal-oracle"
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        // Alive exactly at the future invocation minutes within the window:
        // mark invocation minutes with the highest variant and everything in
        // between as a typed hole, trimming the plan at the last invocation
        // minute (the ledger bills only alive slots, so trailing holes would
        // be equivalent but pointless).
        let last_inv =
            (1..=u64::from(PROVIDER_WINDOW)).rfind(|&m| self.trace.function(f).at(t + m) > 0);
        match last_inv {
            // No future invocation in the window: keep nothing alive.
            None => KeepAliveSchedule::new(t, Vec::new()),
            Some(last) => KeepAliveSchedule::from_slots(
                t,
                (1..=last).map(|m| {
                    if self.trace.function(f).at(t + m) > 0 {
                        Slot::Alive(self.highest[f])
                    } else {
                        Slot::Hole
                    }
                }),
            ),
        }
    }

    fn cold_start_variant(&mut self, f: FuncId, _t: Minute) -> VariantId {
        self.highest[f]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_models::zoo;
    use pulse_trace::FunctionTrace;

    fn setup() -> (Vec<ModelFamily>, Trace) {
        let fams = vec![zoo::gpt()];
        let trace = Trace::new(vec![FunctionTrace::new(
            "f",
            vec![1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        )]);
        (fams, trace)
    }

    #[test]
    fn alive_only_at_invocation_minutes() {
        let (fams, trace) = setup();
        let mut p = IdealOracle::new(&fams, trace);
        let s = p.schedule_on_invocation(0, 0);
        // Future invocations at minutes 2 and 5 → alive there, holes between.
        assert_eq!(s.slot_at_offset(1), Some(Slot::Hole));
        assert_eq!(s.slot_at_offset(2), Some(Slot::Alive(2)));
        assert_eq!(s.slot_at_offset(3), Some(Slot::Hole));
        assert_eq!(s.slot_at_offset(5), Some(Slot::Alive(2)));
        assert_eq!(s.slot_at_offset(6), None); // plan trimmed
    }

    #[test]
    fn no_future_invocations_keeps_nothing() {
        let (fams, trace) = setup();
        let mut p = IdealOracle::new(&fams, trace);
        let s = p.schedule_on_invocation(0, 5);
        assert_eq!(s.window(), 0);
        assert_eq!(s.variant_at_offset(1), None);
    }
}
