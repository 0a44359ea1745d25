//! The plan type of individual (function-centric) optimization
//! (Section III-A).
//!
//! After every invocation, PULSE plans the next `keepalive_minutes` minutes
//! for that function: for each minute offset `m`, the estimated probability
//! of an inter-arrival gap of exactly `m` minutes is pushed through the
//! threshold scheme to pick the quality variant to keep alive during that
//! minute. [`crate::PulseEngine::plan_window`] is the planner; this module
//! holds the plan it returns. Two properties the paper relies on:
//!
//! * there is *always* a container alive during the window — "PULSE ensures
//!   that at least the container with low-quality model is kept alive every
//!   10 minutes after an invocation, preventing cold starts" — so an
//!   uninformed probability simply yields variant 0;
//! * higher probability minutes get higher-accuracy variants (the monotone
//!   threshold principle).

use crate::convert::{gap_to_index, len_to_u32, len_to_u64, window_to_len};
use crate::schedule::Slot;
use crate::types::Minute;
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

    /// Build from a raw plan that may hold holes (the planner's buffer).
    pub(crate) fn from_raw(invoked_at: Minute, plan: Vec<VariantId>) -> Self {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_minute_lookup() {
        let s = KeepAliveSchedule::constant(100, 0, 10);
        assert_eq!(s.variant_at(100), None); // invocation minute itself
        assert_eq!(s.variant_at(101), Some(0));
        assert_eq!(s.variant_at(110), Some(0));
        assert_eq!(s.variant_at(111), None);
        assert_eq!(s.variant_at(99), None);
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
}
