//! Cross-function (global) optimization — the paper's Algorithm 2.
//!
//! When Algorithm 1 flags a minute as a peak, PULSE repeatedly downgrades
//! the kept-alive model with the lowest utility value `Uv = Ai + Pr + Ip`
//! until the keep-alive memory no longer exceeds the flatten target
//! (`prior × (1 + KM_T)`). A downgrade moves a model one rung down its
//! quality ladder; a model already at its lowest variant is evicted entirely
//! ("warm starts with models having lower accuracy, or even cold starts").
//! Every downgrade bumps the model's priority counter, which shields it from
//! future downgrades via the normalized `Pr` component.
//!
//! # Victim selection
//!
//! The production path ([`flatten_peak`]) scores only the alive models, on
//! Equation 1's maintained count bounds
//! ([`PriorityStructure::normalized_single`], `O(1)` each), and selects
//! each victim from a min-heap keyed by utility. A bump that leaves the
//! bounds unchanged re-keys only the touched position; a bump that moves
//! them shifts every normalized priority, so the heap is rebuilt over the
//! alive set (a new epoch). A peak costs `O(alive + actions·log alive)`,
//! with nothing sized by the fleet. Both regimes compute bit-identical
//! scores to the linear-scan oracle ([`flatten_peak_scan`]), so the chosen
//! victims, actions, and final memory are bit-identical too (tests pin it).

use crate::priority::PriorityStructure;
use crate::probability::Probability;
use crate::types::FuncId;
use crate::utility::utility_value;
use pulse_models::{ModelFamily, VariantId};
use serde::{Deserialize, Serialize};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One model currently kept alive at the peak minute, as seen by the global
/// optimizer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AliveModel {
    /// Which function's container this is (indexes the priority structure
    /// and the family assignment).
    pub func: FuncId,
    /// The variant currently kept alive.
    pub variant: VariantId,
    /// `Ip`: the probability that this function is invoked at this minute,
    /// from the individual optimization.
    pub invocation_probability: f64,
}

/// One step taken by the downgrade loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DowngradeAction {
    /// Replace the kept-alive variant `from` with the next-lower `to`.
    Downgrade {
        /// Affected function.
        func: FuncId,
        /// Variant before the downgrade.
        from: VariantId,
        /// Variant after the downgrade (`from - 1`).
        to: VariantId,
    },
    /// The model was already at its lowest variant: evict the container
    /// (the next invocation will cold-start).
    Evict {
        /// Affected function.
        func: FuncId,
        /// Variant that was evicted (always 0).
        from: VariantId,
    },
}

impl DowngradeAction {
    /// The function this action applies to.
    pub fn func(&self) -> FuncId {
        match *self {
            DowngradeAction::Downgrade { func, .. } | DowngradeAction::Evict { func, .. } => func,
        }
    }
}

/// Result of one flattening pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlattenOutcome {
    /// Actions taken, in order.
    pub actions: Vec<DowngradeAction>,
    /// Keep-alive memory after the pass, MB.
    pub final_kam_mb: f64,
    /// Whether the memory reached the target (false only when every container
    /// was evicted and memory still exceeds the target — impossible when the
    /// target is non-negative, kept for defensive completeness).
    pub flattened: bool,
}

/// Algorithm 2: flatten a peak by utility-ordered downgrades.
///
/// * `alive` — the kept-alive models at this minute; mutated in place
///   (variants lowered, evicted entries removed).
/// * `families` — family assignment, indexed by `FuncId`.
/// * `priority` — the downgrade-count structure, bumped per action.
/// * `current_kam_mb` — keep-alive memory at this minute **including** the
///   models in `alive` (the caller computes it; this function only subtracts
///   freed memory from it).
/// * `target_kam_mb` — the flatten target from
///   [`crate::peak::PeakDetector::flatten_target`].
pub fn flatten_peak(
    alive: &mut Vec<AliveModel>,
    families: &[ModelFamily],
    priority: &mut PriorityStructure,
    current_kam_mb: f64,
    target_kam_mb: f64,
) -> FlattenOutcome {
    let mut scratch = FlattenScratch::default();
    flatten_peak_scratch(
        &mut scratch,
        alive,
        families,
        priority,
        current_kam_mb,
        target_kam_mb,
    )
}

/// The paper's `Uv = Ai + Pr + Ip` victim score. Shared by the heap loop
/// and the scan reference so both compute bit-identical values.
fn utility_score(m: &AliveModel, fam: &ModelFamily, pr: f64) -> f64 {
    utility_value(
        fam.accuracy_improvement(m.variant),
        // Normalized priorities are in [0, 1] by construction.
        Probability::from_invariant(pr),
        // Ip is a caller-filled field; saturate out-of-range input.
        Probability::saturating(m.invocation_probability),
    )
}

/// Reference implementation of [`flatten_peak`]: the original
/// re-score-every-alive-model linear scan, `O(n)` per action (it normalizes
/// the whole priority structure each iteration). A test oracle only: kept
/// public so tests and benches can pin the heap-based production path
/// against it bit-for-bit.
pub fn flatten_peak_scan(
    alive: &mut Vec<AliveModel>,
    families: &[ModelFamily],
    priority: &mut PriorityStructure,
    current_kam_mb: f64,
    target_kam_mb: f64,
) -> FlattenOutcome {
    flatten_peak_with(
        alive,
        families,
        priority,
        current_kam_mb,
        target_kam_mb,
        utility_score,
    )
}

/// One heap entry: the utility score of the model at position `pos` of the
/// alive set, stamped for lazy invalidation. Ordered by `(score, pos)` under
/// `total_cmp` so the min entry is exactly the scan's "first minimum".
#[derive(Debug, Clone, Copy)]
struct VictimEntry {
    score: f64,
    pos: usize,
    stamp: u64,
}

impl Ord for VictimEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then(self.pos.cmp(&other.pos))
    }
}
impl PartialOrd for VictimEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for VictimEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for VictimEntry {}

/// Reusable state of the heap-based downgrade loop
/// ([`flatten_peak_scratch`]): the victim heap and per-position stamps.
/// Engines own one and reuse it across peaks so the hot path allocates
/// nothing in steady state.
#[derive(Debug, Clone, Default)]
pub struct FlattenScratch {
    heap: BinaryHeap<Reverse<VictimEntry>>,
    stamps: Vec<u64>,
}

/// The heap entry for position `pos` under count bounds `(lo, hi)`.
fn entry(
    alive: &[AliveModel],
    families: &[ModelFamily],
    priority: &PriorityStructure,
    (lo, hi): (u64, u64),
    pos: usize,
    stamp: u64,
) -> Reverse<VictimEntry> {
    let m = &alive[pos];
    let pr = priority.normalized_single(m.func, lo, hi);
    Reverse(VictimEntry {
        score: utility_score(m, &families[m.func], pr),
        pos,
        stamp,
    })
}

/// Pop entries until one describes a live position with a current stamp.
fn pop_victim(
    scratch: &mut FlattenScratch,
    alive: &[AliveModel],
) -> Option<(usize, FuncId, VariantId)> {
    while let Some(Reverse(e)) = scratch.heap.pop() {
        if e.pos < alive.len() && e.stamp == scratch.stamps[e.pos] {
            let m = &alive[e.pos];
            return Some((e.pos, m.func, m.variant));
        }
    }
    None
}

/// [`flatten_peak`] with a caller-owned [`FlattenScratch`], so repeated
/// flattening passes reuse the heap and stamps. This is the production
/// `O(alive + actions·log alive)` path; its victims, actions, and
/// bookkeeping are bit-identical to [`flatten_peak_scan`].
///
/// Precondition: the alive entries name distinct functions, each tracked by
/// `priority` (checked by a debug assertion). The engines keep one schedule
/// per function, so they never present duplicates.
pub fn flatten_peak_scratch(
    scratch: &mut FlattenScratch,
    alive: &mut Vec<AliveModel>,
    families: &[ModelFamily],
    priority: &mut PriorityStructure,
    current_kam_mb: f64,
    target_kam_mb: f64,
) -> FlattenOutcome {
    debug_assert!(
        {
            let mut seen = std::collections::BTreeSet::new();
            alive
                .iter()
                .all(|m| m.func < priority.len() && seen.insert(m.func))
        },
        "alive set must name distinct functions tracked by the priority structure"
    );
    let mut kam = current_kam_mb;
    let mut actions = Vec::new();
    let mut tick: u64 = 0;
    // The bounds the queued scores were computed under; `None` until the
    // heap is (re)built over the alive set.
    let mut epoch: Option<(u64, u64)> = None;

    while kam > target_kam_mb && !alive.is_empty() {
        let bounds = match epoch {
            Some(bounds) => bounds,
            None => {
                let bounds = priority.count_bounds().unwrap_or_default();
                tick += 1;
                scratch.heap.clear();
                scratch.stamps.clear();
                scratch.stamps.resize(alive.len(), tick);
                scratch.heap.extend(
                    (0..alive.len()).map(|p| entry(alive, families, priority, bounds, p, tick)),
                );
                epoch = Some(bounds);
                bounds
            }
        };

        let Some((idx, func, from)) = pop_victim(scratch, alive) else {
            break; // unreachable: every live position has a queued entry
        };
        let fam = &families[func];
        let evicted = if from > 0 {
            let freed = fam.variant(from).memory_mb - fam.variant(from - 1).memory_mb;
            // Algorithm 2 invariant: ladders are ordered by memory, so a
            // one-rung downgrade never *adds* memory.
            debug_assert!(freed >= 0.0, "downgrade must not grow memory: {freed}");
            alive[idx].variant = from - 1;
            kam -= freed;
            actions.push(DowngradeAction::Downgrade {
                func,
                from,
                to: from - 1,
            });
            false
        } else {
            kam -= fam.variant(0).memory_mb;
            alive.swap_remove(idx);
            scratch.stamps.swap_remove(idx);
            actions.push(DowngradeAction::Evict { func, from });
            true
        };
        // "Update Priority Structure with +1 for m".
        priority.bump(func);

        // If the bump moved Equation 1's bounds, every normalized priority
        // may have shifted: rebuild next iteration. Otherwise only position
        // `idx` changed — it holds the downgraded victim (new variant, new
        // priority) or the tail element `swap_remove` moved in (new
        // position) — so it alone gets a fresh stamp and entry.
        if priority.count_bounds() != Some(bounds) {
            epoch = None;
        } else if !evicted || idx < alive.len() {
            tick += 1;
            scratch.stamps[idx] = tick;
            let e = entry(alive, families, priority, bounds, idx, tick);
            scratch.heap.push(e);
        }
    }

    // Algorithm 2 postcondition: the loop only exits at the target or with
    // every container evicted; bookkeeping must agree.
    debug_assert!(
        kam <= target_kam_mb || alive.is_empty(),
        "flatten loop exited above target with models still alive"
    );
    debug_assert!(
        kam <= current_kam_mb,
        "flattening must not increase keep-alive memory"
    );
    FlattenOutcome {
        actions,
        final_kam_mb: kam,
        flattened: kam <= target_kam_mb,
    }
}

/// [`flatten_peak`] with a caller-supplied victim-scoring function — the
/// model with the **lowest** score is downgraded first. `score` receives
/// the alive entry, its family, and its normalized priority. Used by the
/// ablation experiments to isolate the contribution of each `Uv` component
/// (Ai-only, Ai+Ip, full Uv, …); production callers should use
/// [`flatten_peak`].
pub fn flatten_peak_with(
    alive: &mut Vec<AliveModel>,
    families: &[ModelFamily],
    priority: &mut PriorityStructure,
    current_kam_mb: f64,
    target_kam_mb: f64,
    score: impl Fn(&AliveModel, &ModelFamily, f64) -> f64,
) -> FlattenOutcome {
    let mut kam = current_kam_mb;
    let mut actions = Vec::new();

    while kam > target_kam_mb && !alive.is_empty() {
        // "Normalise the priority structure" — once per loop iteration.
        let pr = priority.normalized();

        // "For every model that is kept-alive in t: compute Ai and Pr;
        //  Uv ← Ai + Pr + Ip" — then downgrade the minimum. `total_cmp`
        // gives a total order even for a pathological NaN score from a
        // caller-supplied ablation closure (NaN sorts above every number,
        // so it is never chosen as the minimum victim over a real score).
        let scored = alive
            .iter()
            .enumerate()
            .map(|(i, m)| (i, score(m, &families[m.func], pr[m.func])))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        let Some((idx, _)) = scored else {
            break; // unreachable: the loop condition keeps `alive` non-empty
        };

        let func = alive[idx].func;
        let from = alive[idx].variant;
        let fam = &families[func];
        if from > 0 {
            let freed = fam.variant(from).memory_mb - fam.variant(from - 1).memory_mb;
            // Algorithm 2 invariant: ladders are ordered by memory, so a
            // one-rung downgrade never *adds* memory.
            debug_assert!(freed >= 0.0, "downgrade must not grow memory: {freed}");
            alive[idx].variant = from - 1;
            kam -= freed;
            actions.push(DowngradeAction::Downgrade {
                func,
                from,
                to: from - 1,
            });
        } else {
            kam -= fam.variant(0).memory_mb;
            alive.swap_remove(idx);
            actions.push(DowngradeAction::Evict { func, from });
        }
        // "Update Priority Structure with +1 for m".
        priority.bump(func);
    }

    // Algorithm 2 postcondition: the loop only exits at the target or with
    // every container evicted; bookkeeping must agree.
    debug_assert!(
        kam <= target_kam_mb || alive.is_empty(),
        "flatten loop exited above target with models still alive"
    );
    debug_assert!(
        kam <= current_kam_mb,
        "flattening must not increase keep-alive memory"
    );
    FlattenOutcome {
        actions,
        final_kam_mb: kam,
        flattened: kam <= target_kam_mb,
    }
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

    fn families() -> Vec<ModelFamily> {
        vec![zoo::gpt(), zoo::yolo(), zoo::bert()]
    }

    fn alive_all_highest(fams: &[ModelFamily]) -> Vec<AliveModel> {
        fams.iter()
            .enumerate()
            .map(|(func, f)| AliveModel {
                func,
                variant: f.highest_id(),
                invocation_probability: 0.0,
            })
            .collect()
    }

    fn total_mem(alive: &[AliveModel], fams: &[ModelFamily]) -> f64 {
        alive
            .iter()
            .map(|m| fams[m.func].variant(m.variant).memory_mb)
            .sum()
    }

    #[test]
    fn no_peak_means_no_action() {
        let fams = families();
        let mut alive = alive_all_highest(&fams);
        let mut pr = PriorityStructure::new(fams.len());
        let kam = total_mem(&alive, &fams);
        let out = flatten_peak(&mut alive, &fams, &mut pr, kam, kam + 1.0);
        assert!(out.actions.is_empty());
        assert!(out.flattened);
        assert_eq!(out.final_kam_mb, kam);
    }

    #[test]
    fn flattening_reaches_target() {
        let fams = families();
        let mut alive = alive_all_highest(&fams);
        let mut pr = PriorityStructure::new(fams.len());
        let kam = total_mem(&alive, &fams);
        let target = kam * 0.6;
        let out = flatten_peak(&mut alive, &fams, &mut pr, kam, target);
        assert!(out.flattened);
        assert!(out.final_kam_mb <= target);
        assert!(!out.actions.is_empty());
        // Bookkeeping agrees with recomputing memory from scratch.
        assert!((out.final_kam_mb - total_mem(&alive, &fams)).abs() < 1e-9);
    }

    #[test]
    fn lowest_utility_goes_first() {
        let fams = families();
        // YOLO's Ai at the top rung (65.7−63.5 = 0.022) vs GPT's (0.011) vs
        // BERT's (0.025); all Ip equal → GPT-Large is downgraded first.
        let mut alive = alive_all_highest(&fams);
        let mut pr = PriorityStructure::new(fams.len());
        let kam = total_mem(&alive, &fams);
        let out = flatten_peak(&mut alive, &fams, &mut pr, kam, kam - 1.0);
        assert_eq!(
            out.actions[0].func(),
            0,
            "GPT (func 0) first: {:?}",
            out.actions
        );
    }

    #[test]
    fn high_invocation_probability_shields_a_model() {
        let fams = families();
        let mut alive = alive_all_highest(&fams);
        alive[0].invocation_probability = 1.0; // GPT about to be invoked
        let mut pr = PriorityStructure::new(fams.len());
        let kam = total_mem(&alive, &fams);
        let out = flatten_peak(&mut alive, &fams, &mut pr, kam, kam - 1.0);
        assert_ne!(out.actions[0].func(), 0);
    }

    #[test]
    fn priority_prevents_repeated_victimization() {
        let fams = families();
        let mut pr = PriorityStructure::new(fams.len());
        // First peak: GPT (func 0) is the natural victim (smallest Ai).
        let mut alive = alive_all_highest(&fams);
        let kam = total_mem(&alive, &fams);
        flatten_peak(&mut alive, &fams, &mut pr, kam, kam - 1.0);
        assert!(pr.count(0) >= 1);

        // Second peak from a fresh all-highest state: with func 0's priority
        // now at 1 (normalized max), someone else is downgraded first.
        let mut alive = alive_all_highest(&fams);
        let kam = total_mem(&alive, &fams);
        let out = flatten_peak(&mut alive, &fams, &mut pr, kam, kam - 1.0);
        assert_ne!(out.actions[0].func(), 0, "{:?}", out.actions);
    }

    #[test]
    fn exhausting_ladder_evicts() {
        let fams = vec![zoo::bert()];
        let mut alive = vec![AliveModel {
            func: 0,
            variant: 1,
            invocation_probability: 0.0,
        }];
        let mut pr = PriorityStructure::new(1);
        let kam = total_mem(&alive, &fams);
        // Target 0: must downgrade 1→0 and then evict.
        let out = flatten_peak(&mut alive, &fams, &mut pr, kam, 0.0);
        assert!(out.flattened);
        assert!(alive.is_empty());
        assert_eq!(out.actions.len(), 2);
        assert!(matches!(
            out.actions[1],
            DowngradeAction::Evict { func: 0, from: 0 }
        ));
        assert!(out.final_kam_mb.abs() < 1e-9);
        assert_eq!(pr.count(0), 2);
    }

    #[test]
    fn downgrades_never_increase_memory() {
        let fams = families();
        let mut alive = alive_all_highest(&fams);
        let mut pr = PriorityStructure::new(fams.len());
        let mut kam = total_mem(&alive, &fams);
        let target = kam * 0.3;
        // Step the loop manually by calling with progressively tighter targets
        // and check monotonicity at every stage.
        for frac in [0.9, 0.7, 0.5, 0.3] {
            let t = (total_mem(&alive_all_highest(&fams), &fams)) * frac;
            let out = flatten_peak(&mut alive, &fams, &mut pr, kam, t.max(target));
            assert!(out.final_kam_mb <= kam + 1e-9);
            kam = out.final_kam_mb;
        }
    }

    #[test]
    fn empty_alive_set_terminates_immediately() {
        let fams = families();
        let mut alive: Vec<AliveModel> = Vec::new();
        let mut pr = PriorityStructure::new(fams.len());
        let out = flatten_peak(&mut alive, &fams, &mut pr, 0.0, 100.0);
        assert!(out.actions.is_empty());
        assert!(out.flattened);
    }

    #[test]
    fn unsatisfiable_target_evicts_everything() {
        let fams = families();
        let mut alive = alive_all_highest(&fams);
        let mut pr = PriorityStructure::new(fams.len());
        let kam = total_mem(&alive, &fams);
        let out = flatten_peak(&mut alive, &fams, &mut pr, kam, -1.0);
        assert!(alive.is_empty());
        assert!(!out.flattened); // memory is 0 but target is negative
        assert!(out.final_kam_mb.abs() < 1e-9);
    }

    /// Deterministic LCG so heap-vs-scan equivalence can cover many random
    /// configurations without a rand dependency in pulse-core.
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
        fn unit(&mut self) -> f64 {
            self.below(1_000_000) as f64 / 1_000_000.0
        }
    }

    fn assert_outcomes_identical(a: &FlattenOutcome, b: &FlattenOutcome) {
        assert_eq!(a.actions, b.actions);
        assert_eq!(a.final_kam_mb.to_bits(), b.final_kam_mb.to_bits());
        assert_eq!(a.flattened, b.flattened);
    }

    /// The heap-based production path must be bit-identical to the linear
    /// scan — victims, actions, final memory, and priority bumps — across
    /// random fleets, alive subsets, Ip values, pre-seeded priorities, and
    /// targets (including unsatisfiable ones that drain the alive set).
    #[test]
    fn heap_path_matches_scan_reference_bitwise() {
        let zoo_all = [
            zoo::gpt(),
            zoo::yolo(),
            zoo::bert(),
            zoo::densenet(),
            zoo::resnet(),
        ];
        let mut rng = Lcg(0xf1a7 ^ 0x9e37_79b9_7f4a_7c15);
        let mut scratch = FlattenScratch::default();
        for case in 0..300u64 {
            let n = 1 + rng.below(12) as usize;
            let fams: Vec<ModelFamily> =
                (0..n).map(|f| zoo_all[f % zoo_all.len()].clone()).collect();
            let mut pr_scan = PriorityStructure::new(n);
            for m in 0..n {
                for _ in 0..rng.below(4) {
                    pr_scan.bump(m);
                }
            }
            let mut alive_scan: Vec<AliveModel> = Vec::new();
            for func in 0..n {
                if rng.below(4) == 0 {
                    continue;
                }
                let variant = rng.below(fams[func].n_variants() as u64) as usize;
                alive_scan.push(AliveModel {
                    func,
                    variant,
                    invocation_probability: rng.unit(),
                });
            }
            let kam = total_mem(&alive_scan, &fams);
            // Mostly partial targets, sometimes unsatisfiable ones.
            let target = match rng.below(5) {
                0 => -1.0,
                f => kam * (f as f64 / 5.0),
            };
            let mut pr_heap = pr_scan.clone();
            let mut alive_heap = alive_scan.clone();
            let scan = flatten_peak_scan(&mut alive_scan, &fams, &mut pr_scan, kam, target);
            let heap = flatten_peak_scratch(
                &mut scratch,
                &mut alive_heap,
                &fams,
                &mut pr_heap,
                kam,
                target,
            );
            assert_outcomes_identical(&scan, &heap);
            assert_eq!(alive_scan, alive_heap, "case {case}");
            assert_eq!(pr_scan, pr_heap, "case {case}");
        }
    }

    /// Repeated peaks against an evolving priority structure reuse one
    /// scratch — the engine's usage pattern — and must stay pinned to the
    /// scan across the whole sequence, not just for a cold scratch.
    #[test]
    fn scratch_reuse_across_peaks_stays_pinned_to_scan() {
        let fams = families();
        let mut pr_scan = PriorityStructure::new(fams.len());
        let mut pr_heap = PriorityStructure::new(fams.len());
        let mut scratch = FlattenScratch::default();
        let mut rng = Lcg(42);
        for peak in 0..50u64 {
            let mut alive_scan: Vec<AliveModel> = alive_all_highest(&fams);
            for m in &mut alive_scan {
                m.invocation_probability = rng.unit();
            }
            let mut alive_heap = alive_scan.clone();
            let kam = total_mem(&alive_scan, &fams);
            let target = kam * (rng.below(10) as f64 / 10.0);
            let scan = flatten_peak_scan(&mut alive_scan, &fams, &mut pr_scan, kam, target);
            let heap = flatten_peak_scratch(
                &mut scratch,
                &mut alive_heap,
                &fams,
                &mut pr_heap,
                kam,
                target,
            );
            assert_outcomes_identical(&scan, &heap);
            assert_eq!(pr_scan, pr_heap, "peak {peak}");
        }
    }

    #[test]
    fn actions_are_single_rung_steps() {
        let fams = families();
        let mut alive = alive_all_highest(&fams);
        let mut pr = PriorityStructure::new(fams.len());
        let kam = total_mem(&alive, &fams);
        let out = flatten_peak(&mut alive, &fams, &mut pr, kam, kam * 0.4);
        for a in &out.actions {
            if let DowngradeAction::Downgrade { from, to, .. } = a {
                assert_eq!(*to + 1, *from);
            }
        }
    }
}
