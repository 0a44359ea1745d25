//! The schedule ledger: the one place that owns keep-alive slot semantics.
//!
//! Every engine in the workspace — the minute-resolution simulator
//! (`pulse-sim`), the event-driven runtime (`pulse-runtime`), and any future
//! online/sharded serving mode — accounts the same way: *which variant each
//! function's schedule holds at each minute* determines billing, downgrade
//! application (Algorithm 2) and warm/cold outcomes. This module extracts
//! that shared substrate so it is implemented once:
//!
//! * [`Slot`] — a typed per-minute slot: [`Slot::Alive`] with a variant, or
//!   [`Slot::Hole`] (a planned-but-dead minute, used by oracle and
//!   forecast-integrated policies that keep containers alive at
//!   non-contiguous minutes). [`KeepAliveSchedule`] stores a hole as a
//!   private sentinel variant id; no public method takes or returns it, so
//!   `Slot` is the only way to produce or consume one.
//! * [`ScheduleLedger`] — the per-function schedule table with the footprint
//!   and billing queries ([`ScheduleLedger::alive_variant_at`],
//!   [`ScheduleLedger::keep_alive_mb_at`],
//!   [`ScheduleLedger::keepalive_cost_usd_at`]) and the single
//!   downgrade/eviction routine ([`ScheduleLedger::apply_downgrade`],
//!   [`ScheduleLedger::apply_eviction`]) that engines previously hand-rolled.
//!
//! # Downgrade semantics
//!
//! Algorithm 2 downgrades are decisions for the peak minute `t` ("for every
//! time period t classified as peak"): [`ScheduleLedger::apply_downgrade`]
//! clamps minute `t` of the schedule only — if the demand is still peaked at
//! `t + 1`, the detector fires again there. The clamp never *raises* a slot:
//! a minute already at or below the requested rung (or a hole) is left
//! untouched, so repeated downgrade actions against the same minute are
//! monotone — the slot can only move down the ladder within the window.
//! [`ScheduleLedger::apply_eviction`] punches a [`Slot::Hole`] at minute `t`.
//!
//! # The sweep and the incremental index
//!
//! A ledger built with [`ScheduleLedger::new`] answers every query by
//! sweeping its functions in ascending order. That is the simulator's
//! production path: end to end it is faster than maintaining the index
//! below, and it is the reference every indexed answer must equal bitwise.
//!
//! A ledger built with [`ScheduleLedger::for_families`] (the runtime's)
//! additionally keeps the sorted alive set of every live minute, so
//! [`ScheduleLedger::fill_minute_footprint`] visits only the functions alive
//! at the minute. Schedule replacement and eviction keep the sets in step;
//! a downgrade changes a variant, not membership, so it leaves them alone.
//! The fill re-sums the set in ascending function order, the exact operand
//! sequence of the sweep, so its footprint is bit-identical to
//! [`ScheduleLedger::minute_footprint`]. The index holds no totals: every
//! footprint is summed when it is read.
//!
//! Snapshots never carry the index, so both forms restore from the same
//! rows.

use crate::global::{AliveModel, DowngradeAction};
use crate::individual::KeepAliveSchedule;
use crate::types::{FuncId, Minute};
use pulse_models::{CostModel, ModelFamily, VariantId};
use std::collections::BTreeMap;

/// Raw in-plan marker for a "dead" minute inside a schedule: the container
/// is not alive even though the plan covers the minute. This is the storage
/// encoding of [`Slot::Hole`] (it keeps `KeepAliveSchedule`'s serialized
/// plan a flat list of ids); it never crosses the crate boundary.
const HOLE: VariantId = usize::MAX;

/// One minute of a keep-alive plan, typed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// A container holding `VariantId` is kept alive during the minute.
    Alive(VariantId),
    /// The plan covers the minute but keeps nothing alive (oracle /
    /// forecast policies warm non-contiguous minutes).
    Hole,
}

impl Slot {
    /// Decode a raw plan entry ([`HOLE`] ⇒ [`Slot::Hole`]).
    pub(crate) fn from_raw(raw: VariantId) -> Self {
        if raw == HOLE {
            Slot::Hole
        } else {
            Slot::Alive(raw)
        }
    }

    /// Encode for plan storage ([`Slot::Hole`] ⇒ [`HOLE`]).
    pub(crate) fn into_raw(self) -> VariantId {
        match self {
            Slot::Alive(v) => v,
            Slot::Hole => HOLE,
        }
    }

    /// The kept-alive variant, `None` for a hole.
    pub fn alive(self) -> Option<VariantId> {
        match self {
            Slot::Alive(v) => Some(v),
            Slot::Hole => None,
        }
    }

    /// Whether this slot keeps nothing alive.
    pub fn is_hole(self) -> bool {
        matches!(self, Slot::Hole)
    }
}

/// The alive set and total keep-alive footprint of one minute, computed in
/// one pass so cross-function optimization and billing agree by
/// construction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MinuteFootprint {
    /// Kept-alive models at the minute, in function order, with
    /// `invocation_probability` zeroed (the policy fills it in).
    pub alive: Vec<AliveModel>,
    /// Total keep-alive memory at the minute, MB. Summed in ascending
    /// function order — engines bill from this exact value, so the addition
    /// order is part of the bit-identity contract.
    pub total_mb: f64,
}

impl MinuteFootprint {
    /// Append `f`, alive at variant `v`, and add its memory to the total.
    fn push(&mut self, families: &[ModelFamily], f: FuncId, v: VariantId) {
        self.total_mb += families[f].variant(v).memory_mb;
        self.alive.push(AliveModel {
            func: f,
            variant: v,
            invocation_probability: 0.0,
        });
    }
}

/// The incremental side-structure of a [`ScheduleLedger::for_families`]
/// ledger: the sorted alive set of every live minute.
#[derive(Debug, Clone, Default)]
struct LedgerIndex {
    /// Alive functions per live minute, ascending — the functions the full
    /// sweep would visit, in its order. Only minutes with at least one
    /// alive function are present.
    states: BTreeMap<Minute, Vec<FuncId>>,
    /// Minutes below this have been retired ([`ScheduleLedger::retire_minutes_before`]);
    /// queries against them fall back to the sweep.
    retired_before: Minute,
}

impl LedgerIndex {
    /// Remove `f` from the alive set of minute `t`.
    fn remove(&mut self, f: FuncId, t: Minute) {
        if t < self.retired_before {
            return;
        }
        let Some(funcs) = self.states.get_mut(&t) else {
            debug_assert!(false, "indexed minute {t} missing on removal");
            return;
        };
        if let Ok(i) = funcs.binary_search(&f) {
            funcs.remove(i);
        } else {
            debug_assert!(false, "function {f} missing from indexed minute {t}");
        }
        if funcs.is_empty() {
            self.states.remove(&t);
        }
    }

    /// Remove every alive minute of `sched` (for function `f`) from the index.
    fn remove_schedule(&mut self, f: FuncId, sched: &KeepAliveSchedule) {
        for (t, slot) in sched.iter() {
            if !slot.is_hole() {
                self.remove(f, t);
            }
        }
    }

    /// Add every alive minute of `sched` (for function `f`) to the index.
    fn add_schedule(&mut self, f: FuncId, sched: &KeepAliveSchedule) {
        for (t, slot) in sched.iter() {
            if slot.is_hole() || t < self.retired_before {
                continue;
            }
            let funcs = self.states.entry(t).or_default();
            if let Err(i) = funcs.binary_search(&f) {
                funcs.insert(i, f);
            } else {
                debug_assert!(false, "function {f} already in indexed minute {t}");
            }
        }
    }
}

/// Per-function keep-alive schedules plus the footprint/billing/downgrade
/// semantics shared by every engine.
///
/// The ledger holds at most one schedule per function (each invocation
/// replaces the function's plan, exactly as the paper's individual
/// optimization prescribes) and answers minute-indexed queries against it.
#[derive(Debug, Clone, Default)]
pub struct ScheduleLedger {
    schedules: Vec<Option<KeepAliveSchedule>>,
    /// Incremental per-minute index; `None` for [`Self::new`] ledgers, which
    /// answer every query through the full sweep.
    index: Option<LedgerIndex>,
}

impl ScheduleLedger {
    /// An empty ledger for `n_functions` functions (full-sweep
    /// queries only; see [`Self::for_families`] for the incremental form).
    pub fn new(n_functions: usize) -> Self {
        Self {
            schedules: vec![None; n_functions],
            index: None,
        }
    }

    /// An empty ledger for `families.len()` functions with the incremental
    /// per-minute index enabled: mutations maintain each live minute's alive
    /// set, making [`Self::fill_minute_footprint`] `O(alive)` instead of
    /// `O(n_functions)`. Every query answers exactly as on a [`Self::new`]
    /// ledger.
    pub fn for_families(families: &[ModelFamily]) -> Self {
        Self {
            schedules: vec![None; families.len()],
            index: Some(LedgerIndex::default()),
        }
    }

    /// Whether this ledger maintains the incremental per-minute index.
    pub fn is_incremental(&self) -> bool {
        self.index.is_some()
    }

    /// Number of functions tracked.
    pub fn n_functions(&self) -> usize {
        self.schedules.len()
    }

    /// The current schedule of `f`, if any.
    pub fn schedule(&self, f: FuncId) -> Option<&KeepAliveSchedule> {
        self.schedules.get(f).and_then(Option::as_ref)
    }

    /// Replace `f`'s plan (the policy's response to an invocation).
    pub fn replace(&mut self, f: FuncId, schedule: KeepAliveSchedule) {
        let Some(slot) = self.schedules.get_mut(f) else {
            return;
        };
        let old = slot.replace(schedule);
        if let Some(ix) = self.index.as_mut() {
            if let Some(old) = &old {
                ix.remove_schedule(f, old);
            }
            if let Some(new) = self.schedules[f].as_ref() {
                ix.add_schedule(f, new);
            }
        }
    }

    /// Drop `f`'s plan entirely (nothing kept alive until the next
    /// invocation).
    pub fn clear(&mut self, f: FuncId) {
        let Some(slot) = self.schedules.get_mut(f) else {
            return;
        };
        if let (Some(ix), Some(old)) = (self.index.as_mut(), slot.take()) {
            ix.remove_schedule(f, &old);
        }
    }

    /// The typed slot of `f` at minute `t`: [`Slot::Hole`] when the plan has
    /// a hole there, does not cover `t`, or does not exist. ("Expired" and
    /// "planned dead" are deliberately indistinguishable here — neither
    /// keeps anything alive, neither bills.)
    pub fn slot_at(&self, f: FuncId, t: Minute) -> Slot {
        self.schedule(f)
            .and_then(|s| s.slot_at(t))
            .unwrap_or(Slot::Hole)
    }

    /// Alive variant of `f` at minute `t` per its schedule (`None` when
    /// expired, absent, or a hole).
    pub fn alive_variant_at(&self, f: FuncId, t: Minute) -> Option<VariantId> {
        self.slot_at(f, t).alive()
    }

    /// Total keep-alive memory (MB) at minute `t`, summed in ascending
    /// function order.
    pub fn keep_alive_mb_at(&self, families: &[ModelFamily], t: Minute) -> f64 {
        (0..self.schedules.len())
            .filter_map(|f| {
                self.alive_variant_at(f, t)
                    .map(|v| families[f].variant(v).memory_mb)
            })
            .sum()
    }

    /// The alive set and footprint of minute `t` in one pass (the shape the
    /// cross-function adjustment and capacity-enforcement stages consume).
    pub fn minute_footprint(&self, families: &[ModelFamily], t: Minute) -> MinuteFootprint {
        let mut out = MinuteFootprint::default();
        self.sweep_footprint(families, t, &mut out);
        out
    }

    /// Append every function alive at `t` to an empty `out`, ascending.
    fn sweep_footprint(&self, families: &[ModelFamily], t: Minute, out: &mut MinuteFootprint) {
        for f in 0..self.schedules.len().min(families.len()) {
            if let Some(v) = self.alive_variant_at(f, t) {
                out.push(families, f, v);
            }
        }
    }

    /// GB-s metering: the keep-alive cost (USD) billed for minute `t` under
    /// `cost`, from the post-adjustment schedule footprint.
    pub fn keepalive_cost_usd_at(
        &self,
        families: &[ModelFamily],
        cost: &CostModel,
        t: Minute,
    ) -> f64 {
        cost.keepalive_cost_usd_per_minutes(self.keep_alive_mb_at(families, t), 1.0)
    }

    /// Apply Algorithm 2's downgrade to minute `t` of `f`'s schedule: clamp
    /// the slot to `to` iff it is currently alive *above* `to`. Holes,
    /// expired plans and slots already at or below the rung are untouched
    /// (the persistent-downgrade rule: a downgraded slot can never be
    /// re-raised by a later, weaker action). Returns whether the slot moved.
    pub fn apply_downgrade(&mut self, f: FuncId, t: Minute, to: VariantId) -> bool {
        let moves = matches!(self.slot_at(f, t), Slot::Alive(v) if v > to);
        if moves {
            // The function stays alive, so the index has nothing to update.
            if let Some(s) = self.schedules.get_mut(f).and_then(Option::as_mut) {
                s.set_slot_at(t, Slot::Alive(to));
            }
        }
        moves
    }

    /// Apply an eviction to minute `t` of `f`'s schedule: punch a hole (the
    /// next invocation during `t` cold-starts). A no-op outside the window.
    /// Returns whether the slot actually changed (it was alive at `t`) —
    /// the event hook observability layers key off.
    pub fn apply_eviction(&mut self, f: FuncId, t: Minute) -> bool {
        let moves = !self.slot_at(f, t).is_hole();
        if moves {
            if let Some(s) = self.schedules.get_mut(f).and_then(Option::as_mut) {
                s.set_slot_at(t, Slot::Hole);
            }
            if let Some(ix) = self.index.as_mut() {
                ix.remove(f, t);
            }
        }
        moves
    }

    /// Apply one cross-function action to minute `t`. Returns whether the
    /// targeted slot actually moved (downgrades of holes/expired/already-
    /// lower slots and evictions of non-alive slots are ignored), so
    /// engines can report applied-vs-ignored actions faithfully.
    pub fn apply_action(&mut self, t: Minute, action: &DowngradeAction) -> bool {
        match *action {
            DowngradeAction::Downgrade { func, to, .. } => self.apply_downgrade(func, t, to),
            DowngradeAction::Evict { func, .. } => self.apply_eviction(func, t),
        }
    }

    /// Apply a batch of cross-function actions to minute `t`, in order.
    /// Returns how many actions moved a slot.
    pub fn apply_actions(&mut self, t: Minute, actions: &[DowngradeAction]) -> usize {
        actions.iter().filter(|a| self.apply_action(t, a)).count()
    }

    /// Fill `out` with the alive set and footprint of minute `t`, reusing
    /// its buffers: the contents of [`Self::minute_footprint`] with no
    /// per-call allocation, `O(alive)` on an incremental ledger. The total
    /// is summed in ascending function order from +0.0, exactly as
    /// [`Self::minute_footprint`] sums it.
    pub fn fill_minute_footprint(
        &self,
        families: &[ModelFamily],
        t: Minute,
        out: &mut MinuteFootprint,
    ) {
        out.alive.clear();
        out.total_mb = 0.0;
        match &self.index {
            Some(ix) if t >= ix.retired_before => {
                for &f in ix.states.get(&t).map_or(&[][..], Vec::as_slice) {
                    // The index only tracks alive slots; a miss here means
                    // the add/remove hooks and the schedule diverged.
                    let Some(v) = self.alive_variant_at(f, t) else {
                        debug_assert!(false, "indexed function {f} not alive at minute {t}");
                        continue;
                    };
                    out.push(families, f, v);
                }
            }
            _ => self.sweep_footprint(families, t, out),
        }
    }

    /// Drop index state for minutes before `t` (the runtime calls this once
    /// per minute tick so the index holds only the live keep-alive horizon;
    /// a no-op on a [`Self::new`] ledger). Queries against retired minutes
    /// fall back to the sweep.
    pub fn retire_minutes_before(&mut self, t: Minute) {
        if let Some(ix) = self.index.as_mut() {
            if t > ix.retired_before {
                ix.states = ix.states.split_off(&t);
                ix.retired_before = t;
            }
        }
    }
}

/// Algorithm 1's `t == 1` branch applies at the first minute of a keep-alive
/// period — i.e. the minute right after an invocation started a new period,
/// or the minute at which keep-alive demand resumes after an idle stretch.
/// There the prior keep-alive memory is the local-window average (or the
/// last non-zero level after inactivity), not the previous minute, so
/// routine schedule renewals are judged against the steady level rather
/// than minute-to-minute jitter. Both engines derive the flag identically
/// through this helper.
pub fn begins_keepalive_period(
    invoked_last_minute: bool,
    current_kam_mb: f64,
    demand_history: &[f64],
) -> bool {
    invoked_last_minute || (current_kam_mb > 0.0 && demand_history.last().is_none_or(|&m| m <= 0.0))
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
#[allow(
    clippy::as_conversions,
    clippy::cast_possible_truncation,
    clippy::needless_range_loop
)] // test-local sizes
mod tests {
    use super::*;
    use pulse_models::zoo;

    fn two_fn_ledger() -> (ScheduleLedger, Vec<ModelFamily>) {
        let fams = vec![zoo::gpt(), zoo::bert()];
        let mut ledger = ScheduleLedger::new(2);
        // f0: gpt-large (variant 2) minutes 1..=10; f1: bert-large minutes 1..=5.
        ledger.replace(0, KeepAliveSchedule::constant(0, 2, 10));
        ledger.replace(1, KeepAliveSchedule::constant(0, 1, 5));
        (ledger, fams)
    }

    #[test]
    fn slot_round_trips_through_raw() {
        assert_eq!(Slot::from_raw(HOLE), Slot::Hole);
        assert_eq!(Slot::from_raw(3), Slot::Alive(3));
        assert_eq!(Slot::Hole.into_raw(), HOLE);
        assert_eq!(Slot::Alive(7).into_raw(), 7);
        assert_eq!(Slot::Alive(2).alive(), Some(2));
        assert_eq!(Slot::Hole.alive(), None);
        assert!(Slot::Hole.is_hole());
        assert!(!Slot::Alive(0).is_hole());
    }

    #[test]
    fn alive_variant_filters_holes_and_expiry() {
        let (mut ledger, _) = two_fn_ledger();
        assert_eq!(ledger.alive_variant_at(0, 5), Some(2));
        assert_eq!(ledger.alive_variant_at(0, 0), None, "invocation minute");
        assert_eq!(ledger.alive_variant_at(0, 11), None, "expired");
        assert_eq!(ledger.alive_variant_at(1, 6), None, "short window");
        ledger.apply_eviction(0, 5);
        assert_eq!(ledger.alive_variant_at(0, 5), None, "hole");
        assert_eq!(ledger.slot_at(0, 5), Slot::Hole);
        assert_eq!(ledger.alive_variant_at(0, 6), Some(2), "hole is per-minute");
    }

    #[test]
    fn footprint_matches_per_function_sum() {
        let (ledger, fams) = two_fn_ledger();
        let mb = fams[0].variant(2).memory_mb + fams[1].variant(1).memory_mb;
        assert_eq!(ledger.keep_alive_mb_at(&fams, 3), mb);
        let fp = ledger.minute_footprint(&fams, 3);
        assert_eq!(fp.total_mb, mb);
        assert_eq!(fp.alive.len(), 2);
        assert_eq!(fp.alive[0].func, 0);
        assert_eq!(fp.alive[1].variant, 1);
        // Minute 7: only f0 still covered.
        assert_eq!(
            ledger.keep_alive_mb_at(&fams, 7),
            fams[0].variant(2).memory_mb
        );
    }

    #[test]
    fn metering_matches_cost_model() {
        let (ledger, fams) = two_fn_ledger();
        let cost = CostModel::aws_lambda();
        let expect = cost.keepalive_cost_usd_per_minutes(ledger.keep_alive_mb_at(&fams, 2), 1.0);
        assert_eq!(ledger.keepalive_cost_usd_at(&fams, &cost, 2), expect);
        assert_eq!(ledger.keepalive_cost_usd_at(&fams, &cost, 500), 0.0);
    }

    #[test]
    fn downgrade_clamps_only_above_and_only_at_t() {
        let (mut ledger, _) = two_fn_ledger();
        assert!(ledger.apply_downgrade(0, 4, 1));
        assert_eq!(ledger.alive_variant_at(0, 4), Some(1));
        assert_eq!(ledger.alive_variant_at(0, 3), Some(2), "t-1 untouched");
        assert_eq!(ledger.alive_variant_at(0, 5), Some(2), "t+1 untouched");
        // A weaker (higher-rung) action can never re-raise the slot.
        assert!(!ledger.apply_downgrade(0, 4, 1));
        assert!(ledger.apply_downgrade(0, 4, 0));
        assert!(!ledger.apply_downgrade(0, 4, 2));
        assert_eq!(ledger.alive_variant_at(0, 4), Some(0));
    }

    #[test]
    fn downgrade_ignores_holes_expired_and_unknown_functions() {
        let (mut ledger, _) = two_fn_ledger();
        ledger.apply_eviction(1, 2);
        assert!(!ledger.apply_downgrade(1, 2, 0), "hole stays a hole");
        assert_eq!(ledger.slot_at(1, 2), Slot::Hole);
        assert!(!ledger.apply_downgrade(1, 40, 0), "expired");
        assert!(!ledger.apply_downgrade(99, 2, 0), "unknown function");
        ledger.apply_eviction(99, 2); // must not panic
    }

    #[test]
    fn action_hooks_report_applied_vs_ignored() {
        let (mut ledger, _) = two_fn_ledger();
        // Eviction of an alive slot applies; of a hole/expired slot, not.
        assert!(ledger.apply_eviction(0, 5));
        assert!(!ledger.apply_eviction(0, 5), "already a hole");
        assert!(!ledger.apply_eviction(0, 40), "expired");
        assert!(!ledger.apply_eviction(99, 2), "unknown function");
        // The batch count matches per-action results: downgrade f0@3
        // applies, a repeat is ignored, the eviction of f1@3 applies.
        let actions = vec![
            DowngradeAction::Downgrade {
                func: 0,
                from: 2,
                to: 0,
            },
            DowngradeAction::Downgrade {
                func: 0,
                from: 2,
                to: 1,
            },
            DowngradeAction::Evict { func: 1, from: 1 },
        ];
        assert_eq!(ledger.apply_actions(3, &actions), 2);
    }

    #[test]
    fn apply_actions_matches_manual_application() {
        let (mut a, _) = two_fn_ledger();
        let (mut b, _) = two_fn_ledger();
        let actions = vec![
            DowngradeAction::Downgrade {
                func: 0,
                from: 2,
                to: 0,
            },
            DowngradeAction::Evict { func: 1, from: 1 },
        ];
        a.apply_actions(3, &actions);
        b.apply_downgrade(0, 3, 0);
        b.apply_eviction(1, 3);
        for f in 0..2 {
            for t in 0..12 {
                assert_eq!(a.slot_at(f, t), b.slot_at(f, t), "f={f} t={t}");
            }
        }
    }

    #[test]
    fn replace_and_clear() {
        let (mut ledger, _) = two_fn_ledger();
        assert!(ledger.schedule(0).is_some());
        ledger.clear(0);
        assert!(ledger.schedule(0).is_none());
        assert_eq!(ledger.alive_variant_at(0, 3), None);
        ledger.replace(0, KeepAliveSchedule::constant(2, 0, 3));
        assert_eq!(ledger.alive_variant_at(0, 3), Some(0));
        assert_eq!(ledger.n_functions(), 2);
    }

    /// Deterministic LCG so the incremental-vs-sweep check can cover many
    /// action interleavings without a rand dependency in pulse-core.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            self.0 >> 33
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn zoo_families(n: usize) -> Vec<ModelFamily> {
        let all = [
            zoo::gpt(),
            zoo::bert(),
            zoo::densenet(),
            zoo::yolo(),
            zoo::resnet(),
        ];
        (0..n).map(|f| all[f % all.len()].clone()).collect()
    }

    /// Drive an incremental and a sweep ledger through the same random
    /// replace/clear/downgrade/evict sequence and require every filled
    /// footprint to be bit-identical to the ascending-order sweep.
    #[test]
    fn incremental_reads_are_bit_identical_to_full_sweep() {
        let fams = zoo_families(9);
        let mut inc = ScheduleLedger::for_families(&fams);
        let mut full = ScheduleLedger::new(fams.len());
        assert!(inc.is_incremental());
        assert!(!full.is_incremental());
        let mut rng = Lcg(0x5eed);
        let mut fp = MinuteFootprint::default();
        for step in 0..400u64 {
            let f = rng.below(fams.len() as u64) as usize;
            let t = rng.below(40);
            match rng.below(4) {
                0 => {
                    let v = rng.below(fams[f].n_variants() as u64) as usize;
                    let w = 1 + rng.below(10) as u32;
                    let s = KeepAliveSchedule::constant(t, v, w);
                    inc.replace(f, s.clone());
                    full.replace(f, s);
                }
                1 => {
                    let v = rng.below(fams[f].n_variants() as u64) as usize;
                    inc.apply_downgrade(f, t, v);
                    full.apply_downgrade(f, t, v);
                }
                2 => {
                    inc.apply_eviction(f, t);
                    full.apply_eviction(f, t);
                }
                _ => {
                    inc.clear(f);
                    full.clear(f);
                }
            }
            let probe = rng.below(52);
            inc.fill_minute_footprint(&fams, probe, &mut fp);
            let want = full.minute_footprint(&fams, probe);
            assert_eq!(fp.alive, want.alive, "step {step} minute {probe}");
            assert_eq!(fp.total_mb.to_bits(), want.total_mb.to_bits());
        }
    }

    /// Retiring minutes keeps reads correct (they fall back to the sweep)
    /// and bounds the index to the live horizon.
    #[test]
    fn retired_minutes_fall_back_to_sweep() {
        let fams = zoo_families(3);
        let mut ledger = ScheduleLedger::for_families(&fams);
        ledger.replace(0, KeepAliveSchedule::constant(0, 1, 10));
        ledger.replace(2, KeepAliveSchedule::constant(2, 0, 4));
        let mut fp = MinuteFootprint::default();
        let fill = |ledger: &ScheduleLedger, fp: &mut MinuteFootprint, t| {
            ledger.fill_minute_footprint(&fams, t, fp);
            (fp.alive.clone(), fp.total_mb.to_bits())
        };
        let before: Vec<_> = (0..12).map(|t| fill(&ledger, &mut fp, t)).collect();
        ledger.retire_minutes_before(6);
        let ix = ledger.index.as_ref().unwrap();
        assert_eq!(ix.states.keys().next(), Some(&6), "retired");
        for (t, want) in before.iter().enumerate() {
            let t = t as Minute;
            assert_eq!(&fill(&ledger, &mut fp, t), want, "t={t}");
        }
        // Replacing a schedule that spans the retirement boundary only
        // indexes the live part; both sides still read correctly.
        ledger.replace(1, KeepAliveSchedule::constant(3, 1, 10));
        for t in 0..14 {
            let want = ledger.minute_footprint(&fams, t);
            assert_eq!(
                fill(&ledger, &mut fp, t),
                (want.alive, want.total_mb.to_bits()),
                "t={t}"
            );
        }
    }

    #[test]
    fn period_start_detection() {
        // An invocation last minute always starts a period.
        assert!(begins_keepalive_period(true, 0.0, &[]));
        // Demand resuming after zero history starts a period.
        assert!(begins_keepalive_period(false, 10.0, &[5.0, 0.0]));
        assert!(begins_keepalive_period(false, 10.0, &[]));
        // Steady demand does not.
        assert!(!begins_keepalive_period(false, 10.0, &[5.0]));
        // No demand at all does not.
        assert!(!begins_keepalive_period(false, 0.0, &[0.0]));
    }
}
