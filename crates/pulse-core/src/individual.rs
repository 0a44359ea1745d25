//! Individual (function-centric) optimization (Section III-A).
//!
//! After every invocation, PULSE plans the next `keepalive_minutes` minutes
//! for that function: for each minute offset `m`, the estimated probability
//! of an inter-arrival gap of exactly `m` minutes is pushed through the
//! threshold scheme to pick the quality variant to keep alive during that
//! minute. Two properties the paper relies on:
//!
//! * there is *always* a container alive during the window — "PULSE ensures
//!   that at least the container with low-quality model is kept alive every
//!   10 minutes after an invocation, preventing cold starts" — so an
//!   uninformed probability simply yields variant 0;
//! * higher probability minutes get higher-accuracy variants (the monotone
//!   threshold principle).

use crate::convert::{gap_to_index, len_to_u32, len_to_u64, window_to_len};
use crate::interarrival::GapProbabilities;
use crate::schedule::Slot;
use crate::types::{Minute, SchemeKind};
use pulse_models::VariantId;
use serde::{Deserialize, Serialize};

/// The per-minute variant plan for one keep-alive window following an
/// invocation at [`Self::invoked_at`]. Offset `m` (1-based) covers the
/// wall-clock minute `invoked_at + m`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeepAliveSchedule {
    /// Minute of the invocation this schedule follows.
    pub invoked_at: Minute,
    /// `plan[m-1]` is the variant kept alive during minute `invoked_at + m`.
    plan: Vec<VariantId>,
}

impl KeepAliveSchedule {
    /// Build from a plan of alive variants (offset 1 first). Plans with dead
    /// minutes go through [`Self::from_slots`].
    pub fn new(invoked_at: Minute, plan: Vec<VariantId>) -> Self {
        debug_assert!(
            plan.iter().all(|&v| !Slot::from_raw(v).is_hole()),
            "KeepAliveSchedule::new takes alive variants; plan holes with from_slots"
        );
        Self { invoked_at, plan }
    }

    /// Build from typed slots (offset 1 first) — the supported way to plan
    /// windows with dead minutes (see [`crate::schedule::Slot::Hole`]).
    pub fn from_slots(invoked_at: Minute, slots: impl IntoIterator<Item = Slot>) -> Self {
        Self {
            invoked_at,
            plan: slots.into_iter().map(Slot::into_raw).collect(),
        }
    }

    /// Schedule that keeps `variant` alive for the whole window — the shape
    /// of the fixed OpenWhisk policy and of the all-low/all-high baselines.
    pub fn constant(invoked_at: Minute, variant: VariantId, window: u32) -> Self {
        Self::new(invoked_at, vec![variant; window_to_len(window)])
    }

    /// Window length in minutes.
    pub fn window(&self) -> u32 {
        len_to_u32(self.plan.len())
    }

    /// Variant kept alive at minute-offset `m` (1-based), `None` outside the
    /// window or at a hole.
    pub fn variant_at_offset(&self, m: u64) -> Option<VariantId> {
        self.slot_at_offset(m).and_then(Slot::alive)
    }

    /// Variant kept alive at absolute minute `t`, `None` outside the window
    /// or at a hole.
    pub fn variant_at(&self, t: Minute) -> Option<VariantId> {
        self.slot_at(t).and_then(Slot::alive)
    }

    /// Typed slot at minute-offset `m` (1-based), `None` outside the window.
    pub fn slot_at_offset(&self, m: u64) -> Option<Slot> {
        let i = gap_to_index(m.checked_sub(1)?);
        self.plan.get(i).copied().map(Slot::from_raw)
    }

    /// Typed slot at absolute minute `t`, `None` outside the window.
    pub fn slot_at(&self, t: Minute) -> Option<Slot> {
        t.checked_sub(self.invoked_at)
            .and_then(|m| self.slot_at_offset(m))
    }

    /// Iterate `(absolute minute, slot)` pairs of the plan.
    pub fn iter(&self) -> impl Iterator<Item = (Minute, Slot)> + '_ {
        self.plan
            .iter()
            .enumerate()
            .map(move |(i, &v)| (self.invoked_at + 1 + len_to_u64(i), Slot::from_raw(v)))
    }

    /// Replace the typed slot at absolute minute `t` (no-op outside the
    /// window) — [`crate::schedule::ScheduleLedger`]'s write path.
    pub fn set_slot_at(&mut self, t: Minute, slot: Slot) {
        let Some(m) = t
            .checked_sub(self.invoked_at)
            .and_then(|m| m.checked_sub(1))
        else {
            return;
        };
        if let Some(raw) = self.plan.get_mut(gap_to_index(m)) {
            *raw = slot.into_raw();
        }
    }
}

/// The function-centric optimizer over a precomputed distribution (the
/// ablations' path; [`crate::PulseEngine`] plans in one buffer instead).
#[derive(Debug, Clone, Copy)]
pub struct IndividualOptimizer {
    /// Keep-alive window length, minutes.
    pub window: u32,
}

impl IndividualOptimizer {
    /// Optimizer for a `window`-minute keep-alive period.
    pub fn new(window: u32) -> Self {
        assert!(window >= 1);
        Self { window }
    }

    /// Plan the window after an invocation at `invoked_at`, given the gap
    /// probabilities and the family's variant count.
    pub fn schedule(
        &self,
        invoked_at: Minute,
        probs: &GapProbabilities,
        n_variants: usize,
        scheme: SchemeKind,
    ) -> KeepAliveSchedule {
        let plan = (1..=u64::from(self.window))
            .map(|m| scheme.select(probs.prob(m), n_variants))
            .collect();
        KeepAliveSchedule::new(invoked_at, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interarrival::InterArrivalModel;

    fn probs_for(arrivals: &[Minute], now: Minute) -> GapProbabilities {
        let mut m = InterArrivalModel::new(10);
        for &t in arrivals {
            m.record(t);
        }
        m.probabilities(now, 60)
    }

    #[test]
    fn tight_cadence_warms_high_variant_at_the_right_minute() {
        let probs = probs_for(&[0, 2, 4, 6, 8, 10], 10);
        let opt = IndividualOptimizer::new(10);
        let s = opt.schedule(10, &probs, 3, SchemeKind::T1);
        // P(gap=2)=1 → highest variant at offset 2; all other offsets have
        // probability 0 → lowest variant (but still alive).
        assert_eq!(s.variant_at_offset(2), Some(2));
        for m in [1u64, 3, 4, 5, 6, 7, 8, 9, 10] {
            assert_eq!(s.variant_at_offset(m), Some(0), "offset {m}");
        }
    }

    #[test]
    fn uninformed_history_keeps_lowest_variant_alive_everywhere() {
        let probs = GapProbabilities::zeros(10);
        let s = IndividualOptimizer::new(10).schedule(50, &probs, 3, SchemeKind::T1);
        for m in 1..=10u64 {
            assert_eq!(s.variant_at_offset(m), Some(0));
        }
        assert_eq!(s.window(), 10);
    }

    #[test]
    fn absolute_minute_lookup() {
        let probs = GapProbabilities::zeros(10);
        let s = IndividualOptimizer::new(10).schedule(100, &probs, 2, SchemeKind::T1);
        assert_eq!(s.variant_at(100), None); // invocation minute itself
        assert_eq!(s.variant_at(101), Some(0));
        assert_eq!(s.variant_at(110), Some(0));
        assert_eq!(s.variant_at(111), None);
        assert_eq!(s.variant_at(99), None);
    }

    #[test]
    fn mixed_probabilities_produce_mixed_plan() {
        // Gaps {3,100,3,100,3}: P(3)=0.6. Evaluated at now=400, the local
        // window is empty, so the global distribution is used alone.
        let probs = probs_for(&[0, 3, 103, 106, 206, 209], 400);
        let s = IndividualOptimizer::new(10).schedule(400, &probs, 3, SchemeKind::T1);
        // P(3) = 0.6 → middle variant at offset 3 (band [1/3, 2/3)).
        assert_eq!(s.variant_at_offset(3), Some(1));
        assert_eq!(s.variant_at_offset(1), Some(0));
    }

    #[test]
    fn t2_uninformed_also_keeps_lowest() {
        let probs = GapProbabilities::zeros(10);
        let s = IndividualOptimizer::new(10).schedule(0, &probs, 3, SchemeKind::T2);
        for m in 1..=10u64 {
            assert_eq!(s.variant_at_offset(m), Some(0));
        }
    }

    #[test]
    fn constant_schedule_matches_fixed_policy_shape() {
        let s = KeepAliveSchedule::constant(7, 2, 10);
        assert_eq!(s.window(), 10);
        for m in 1..=10u64 {
            assert_eq!(s.variant_at_offset(m), Some(2));
        }
        assert_eq!(s.iter().count(), 10);
    }

    #[test]
    fn set_slot_at_mutates_only_in_window() {
        let mut s = KeepAliveSchedule::constant(10, 2, 5);
        s.set_slot_at(12, Slot::Alive(0));
        s.set_slot_at(14, Slot::Hole);
        assert_eq!(s.variant_at(12), Some(0));
        assert_eq!(s.variant_at(13), Some(2));
        // A hole is reported as a slot, never as a variant.
        assert_eq!(s.slot_at(14), Some(Slot::Hole));
        assert_eq!(s.variant_at(14), None);
        // Out-of-window writes are ignored.
        s.set_slot_at(10, Slot::Alive(0));
        s.set_slot_at(16, Slot::Alive(0));
        s.set_slot_at(3, Slot::Alive(0));
        assert_eq!(s.variant_at(11), Some(2));
        assert_eq!(s.window(), 5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "plan holes with from_slots")]
    fn new_rejects_a_raw_hole() {
        let _ = KeepAliveSchedule::new(0, vec![0, usize::MAX]);
    }

    #[test]
    fn iter_yields_absolute_minutes() {
        let s = KeepAliveSchedule::from_slots(20, [Slot::Alive(0), Slot::Hole, Slot::Alive(2)]);
        let got: Vec<_> = s.iter().collect();
        assert_eq!(
            got,
            vec![(21, Slot::Alive(0)), (22, Slot::Hole), (23, Slot::Alive(2))]
        );
    }

    #[test]
    fn window_of_one_minute() {
        let probs = GapProbabilities::zeros(1);
        let s = IndividualOptimizer::new(1).schedule(0, &probs, 3, SchemeKind::T1);
        assert_eq!(s.window(), 1);
        assert_eq!(s.variant_at_offset(1), Some(0));
        assert_eq!(s.variant_at_offset(2), None);
    }
}
