//! Property tests for the policy core.

#![allow(clippy::float_cmp)] // property assertions compare exact reconstructions

use proptest::prelude::*;
use pulse_core::engine::PulseEngine;
use pulse_core::global::{flatten_peak_scan, flatten_peak_scratch, AliveModel, FlattenScratch};
use pulse_core::individual::KeepAliveSchedule;
use pulse_core::peak::PeakDetector;
use pulse_core::priority::PriorityStructure;
use pulse_core::probability::Probability;
use pulse_core::types::{PulseConfig, SchemeKind};
use pulse_models::zoo;

proptest! {
    /// Schedule lookups are consistent between offset/absolute addressing
    /// and iteration.
    #[test]
    fn schedule_addressing_consistency(
        invoked_at in 0u64..10_000,
        plan in proptest::collection::vec(0usize..4, 0..20),
    ) {
        let s = KeepAliveSchedule::new(invoked_at, plan.clone());
        prop_assert_eq!(s.window() as usize, plan.len());
        for (m, &v) in plan.iter().enumerate() {
            let offset = m as u64 + 1;
            prop_assert_eq!(s.variant_at_offset(offset), Some(v));
            prop_assert_eq!(s.variant_at(invoked_at + offset), Some(v));
        }
        prop_assert_eq!(s.variant_at(invoked_at), None);
        prop_assert_eq!(s.variant_at(invoked_at + plan.len() as u64 + 1), None);
        let collected: Vec<_> = s.iter().filter_map(|(_, slot)| slot.alive()).collect();
        prop_assert_eq!(collected, plan);
    }

    /// The engine's schedules always cover the full window with valid
    /// variants, regardless of history shape.
    #[test]
    fn engine_schedules_are_total_and_valid(
        gaps in proptest::collection::vec(1u64..40, 1..50),
        scheme in prop_oneof![Just(SchemeKind::T1), Just(SchemeKind::T2)],
        local_window in 1u32..200,
    ) {
        let cfg = PulseConfig { scheme, local_window, ..Default::default() };
        let mut e = PulseEngine::new(vec![zoo::gpt()], cfg);
        let mut t = 0u64;
        e.record_invocation(0, t);
        for g in gaps {
            t += g;
            e.record_invocation(0, t);
        }
        let s = e.schedule_after_invocation(0, t);
        prop_assert_eq!(s.window(), 10);
        for m in 1..=10u64 {
            let v = s.variant_at_offset(m).expect("window covered");
            prop_assert!(v < 3, "variant {v} out of GPT's ladder");
        }
    }

    /// Invocation probability is always a probability and zero before any
    /// history exists.
    #[test]
    fn invocation_probability_in_unit_interval(
        gaps in proptest::collection::vec(1u64..30, 0..40),
        query_offset in 0u64..40,
    ) {
        let mut e = PulseEngine::new(vec![zoo::bert()], PulseConfig::default());
        let mut t = 0u64;
        if gaps.is_empty() {
            prop_assert_eq!(e.invocation_probability_at(0, query_offset), 0.0);
            return Ok(());
        }
        e.record_invocation(0, t);
        for g in &gaps {
            t += g;
            e.record_invocation(0, t);
        }
        let p = e.invocation_probability_at(0, t + query_offset);
        prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
    }

    /// `prior_kam` returns either a value present in history, a local
    /// average of history, or infinity — never something below the minimum
    /// or above the maximum of the non-zero history.
    #[test]
    fn prior_kam_is_anchored_in_history(
        history in proptest::collection::vec(0.0f64..1e5, 0..100),
        first in any::<bool>(),
        window in 1usize..30,
    ) {
        let d = PeakDetector::new(0.1, window);
        let prior = d.prior_kam(&history, first);
        if prior.is_finite() {
            let nonzero: Vec<f64> = history.iter().copied().filter(|&x| x > 0.0).collect();
            if first {
                // Average-of-window or last-nonzero: bounded by history range
                // (allow the all-zero tail average case → prior can be less
                // than min(nonzero) only when it came from averaging zeros,
                // which the avg>0 guard excludes; the tail average still
                // mixes zeros, so the lower bound is 0).
                let hi = history.iter().copied().fold(0.0f64, f64::max);
                prop_assert!(prior <= hi + 1e-9);
                prop_assert!(prior >= 0.0);
            } else {
                prop_assert_eq!(prior, *history.last().unwrap());
            }
            let _ = nonzero;
        } else {
            // Infinity only when nothing usable exists.
            prop_assert!(first || history.is_empty());
        }
    }

    /// Flatten targets never flag themselves as peaks (fixed-point sanity
    /// across thresholds).
    #[test]
    fn flatten_target_is_never_a_peak(km in 0.0f64..1.0, prior in 0.0f64..1e6) {
        let d = PeakDetector::new(km, 10);
        prop_assert!(!d.is_peak(d.flatten_target(prior), prior));
    }

    /// `Probability` is closed under its combinators: arbitrary chains of
    /// `average`, `and`, and `complement` over validated inputs never escape
    /// `[0, 1]` (the invariant the policy math relies on everywhere).
    #[test]
    fn probability_arithmetic_never_escapes_unit_interval(
        seed in 0.0f64..=1.0,
        ops in proptest::collection::vec((0u8..3, 0.0f64..=1.0), 0..64),
    ) {
        let mut p = Probability::new(seed).unwrap();
        for (op, operand) in ops {
            let q = Probability::new(operand).unwrap();
            p = match op {
                0 => p.average(q),
                1 => p.and(q),
                _ => p.complement(),
            };
            prop_assert!((0.0..=1.0).contains(&p.value()), "escaped: {p}");
        }
    }

    /// `saturating` is total: any f64 (including NaN and infinities) maps
    /// into `[0, 1]`.
    #[test]
    fn probability_saturating_is_total(
        x in prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            -1e12f64..1e12,
        ],
    ) {
        let p = Probability::saturating(x);
        prop_assert!((0.0..=1.0).contains(&p.value()), "{x} -> {p}");
    }
}

proptest! {
    /// Peak first, then `Ip`: `flatten_minute` returns the same outcome,
    /// leaves the same post-peak alive set and the same priority counts as
    /// filling every alive model's `Ip` and then calling
    /// `check_and_flatten`. On a non-peak it returns `None` and leaves the
    /// alive set bitwise untouched, stale `Ip` values included.
    #[test]
    fn flatten_minute_matches_fill_all_then_check_and_flatten(
        fns in proptest::collection::vec(
            (
                proptest::collection::vec(1u64..15, 0..30),
                any::<bool>(),
                0usize..4,
                0.0f64..1.0,
                0u64..5,
            ),
            1..10,
        ),
        since_last in 0u64..15,
        history in proptest::collection::vec(0.0f64..20_000.0, 0..60),
        first in any::<bool>(),
        current in 0.0f64..40_000.0,
        km_threshold in 0.0f64..0.5,
    ) {
        let zoo = zoo::standard();
        let fams: Vec<_> = (0..fns.len()).map(|f| zoo[f % zoo.len()].clone()).collect();
        let cfg = PulseConfig { km_threshold, ..Default::default() };
        let mut lazy = PulseEngine::new(fams.clone(), cfg);
        let mut alive = Vec::new();
        let mut last = 0u64;
        for (f, (gaps, is_alive, variant, ip, count)) in fns.iter().enumerate() {
            if !gaps.is_empty() {
                let mut t = 0u64;
                lazy.record_invocation(f, t);
                for g in gaps {
                    t += g;
                    lazy.record_invocation(f, t);
                }
                last = last.max(t);
            }
            // Each forced peak over `f` alone at its lowest rung evicts it,
            // one priority bump per call.
            while lazy.priority().count(f) < *count {
                let mut lone = vec![AliveModel { func: f, variant: 0, invocation_probability: 0.0 }];
                lazy.check_and_flatten(&[1.0; 4], false, 1e9, &mut lone);
            }
            prop_assert_eq!(lazy.priority().count(f), *count);
            if *is_alive {
                alive.push(AliveModel {
                    func: f,
                    variant: variant % fams[f].n_variants(),
                    invocation_probability: *ip,
                });
            }
        }
        let now = last + since_last;
        let mut eager = lazy.clone();

        let mut lazy_alive = alive.clone();
        let got = lazy.flatten_minute(now, &history, first, current, &mut lazy_alive);

        let mut eager_alive = alive.clone();
        for m in &mut eager_alive {
            m.invocation_probability = eager.invocation_probability_at(m.func, now);
        }
        let want = eager.check_and_flatten(&history, first, current, &mut eager_alive);

        prop_assert_eq!(&got, &want);
        prop_assert_eq!(lazy.priority().counts(), eager.priority().counts());
        let bits = |a: &[AliveModel]| -> Vec<(usize, usize, u64)> {
            a.iter()
                .map(|m| (m.func, m.variant, m.invocation_probability.to_bits()))
                .collect()
        };
        if got.is_some() {
            prop_assert_eq!(bits(&lazy_alive), bits(&eager_alive));
        } else {
            prop_assert_eq!(bits(&lazy_alive), bits(&alive));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The priority structure's maintained Equation 1 bounds equal an
    /// `O(n)` recomputation after any restore and bump sequence (counts
    /// start close together, so bumps keep moving both bounds), and the
    /// `O(1)` normalized priority equals the whole normalization bit for
    /// bit.
    #[test]
    fn priority_bounds_are_maintained_exactly(
        counts in proptest::collection::vec(0u64..3, 0..12),
        bumps in proptest::collection::vec(0usize..64, 0..80),
    ) {
        let mut p = PriorityStructure::from_counts(counts);
        check_priority_bounds(&p)?;
        for b in bumps {
            if p.is_empty() {
                break;
            }
            p.bump(b % p.len());
            check_priority_bounds(&p)?;
        }
    }

    /// The production victim heap equals the linear-scan oracle bit for
    /// bit — actions, final memory, the post-peak alive set and every
    /// priority count — on random alive sets over pre-seeded counts that
    /// bumps move mid-peak, across two consecutive peaks sharing one
    /// scratch. Targets run from unsatisfiable (everything evicted) to no
    /// action at all.
    #[test]
    fn flatten_heap_matches_scan_oracle_bitwise(
        fns in proptest::collection::vec(
            (0u64..3, any::<bool>(), 0usize..4, 0.0f64..1.0),
            1..40,
        ),
        fracs in (-0.1f64..1.0, -0.1f64..1.0),
    ) {
        let zoo = zoo::standard();
        let fams: Vec<_> = (0..fns.len()).map(|f| zoo[f % zoo.len()].clone()).collect();
        let counts: Vec<u64> = fns.iter().map(|f| f.0).collect();
        let alive: Vec<AliveModel> = fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.1)
            .map(|(func, f)| AliveModel {
                func,
                variant: f.2 % fams[func].n_variants(),
                invocation_probability: f.3,
            })
            .collect();
        let mut pr_scan = PriorityStructure::from_counts(counts);
        let mut pr_heap = pr_scan.clone();
        let mut scratch = FlattenScratch::default();
        for frac in [fracs.0, fracs.1] {
            let kam: f64 = alive
                .iter()
                .map(|m| fams[m.func].variant(m.variant).memory_mb)
                .sum();
            let target = kam * frac;
            let mut alive_scan = alive.clone();
            let mut alive_heap = alive.clone();
            let scan = flatten_peak_scan(&mut alive_scan, &fams, &mut pr_scan, kam, target);
            let heap = flatten_peak_scratch(
                &mut scratch,
                &mut alive_heap,
                &fams,
                &mut pr_heap,
                kam,
                target,
            );
            prop_assert_eq!(&scan.actions, &heap.actions);
            prop_assert_eq!(scan.final_kam_mb.to_bits(), heap.final_kam_mb.to_bits());
            prop_assert_eq!(scan.flattened, heap.flattened);
            prop_assert_eq!(&alive_scan, &alive_heap);
            prop_assert_eq!(&pr_scan, &pr_heap);
            check_priority_bounds(&pr_heap)?;
        }
    }
}

/// The maintained bounds of `p` equal a recomputation from its counts, a
/// structure rebuilt from those counts equals `p`, and every model's
/// single-model normalization equals the whole normalization bitwise.
fn check_priority_bounds(p: &PriorityStructure) -> Result<(), TestCaseError> {
    let c = p.counts();
    let want = c.iter().copied().min().zip(c.iter().copied().max());
    prop_assert_eq!(p.count_bounds(), want);
    prop_assert_eq!(&PriorityStructure::from_counts(c.to_vec()), p);
    let full = p.normalized();
    if let Some((lo, hi)) = want {
        for (m, v) in full.iter().enumerate() {
            prop_assert_eq!(p.normalized_single(m, lo, hi).to_bits(), v.to_bits());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The incremental inter-arrival model reproduces the whole-log oracle
    /// bit for bit: arbitrary and dense logs (gaps longer than the window
    /// included), windows, local windows and query times, including queries at or
    /// before the last arrival. The single-gap `Ip` query equals the full
    /// estimate at `t − last`.
    #[test]
    fn interarrival_model_matches_whole_log_oracle_bitwise(
        start in 0u64..400,
        gaps in proptest::collection::vec(0u64..80, 0..120),
        dense in any::<bool>(),
        window in 1u32..=30,
        local_window in 1u32..200,
        queries in proptest::collection::vec((any::<bool>(), 0u64..100_000), 1..10),
    ) {
        use pulse_core::interarrival::InterArrivalModel;

        // A dense log ends, after its random prefix, with an arrival every
        // minute for longer than the local window, so a query at or before
        // the last arrival sees a local slice of exactly `local_window + 1`
        // arrivals, the most the window-bounded search keeps. Short local
        // windows make that edge observable: a slice one arrival short
        // changes the estimate when it leaves no local gap at all.
        let local_window = if dense { local_window % 8 + 1 } else { local_window };
        let mut gaps = gaps;
        if dense {
            gaps.resize(gaps.len() + local_window as usize + 40, 1);
        }
        let mut queries = queries;
        queries.push((true, 0)); // exactly at the last arrival
        let mut model = InterArrivalModel::new(window);
        let mut t = start;
        model.record(t);
        let mut log = vec![t];
        for &g in &gaps {
            t += g; // a zero gap is a same-minute duplicate, not logged
            model.record(t);
            if g > 0 {
                log.push(t);
            }
        }
        for (near, q) in queries {
            // Half the queries land in the 40 minutes from the last arrival,
            // where the single-gap query does its work; the rest anywhere
            // up to it.
            let now = if near { t + q % 40 } else { q % (t + 1) };
            let expect = oracle_probabilities(&log, now, local_window, window);
            let got = model.probabilities(now, local_window);
            prop_assert_eq!(got.window(), u64::from(window));
            for (k, &e) in expect.iter().enumerate() {
                let g = got.at(k as u64);
                prop_assert_eq!(g.to_bits(), e.to_bits(), "gap {} at now {}: {} vs oracle {}", k, now, g, e);
            }
            let ip = model.invocation_probability_at(now, local_window).value();
            let want = if now > t { got.at(now - t) } else { 0.0 };
            prop_assert_eq!(ip.to_bits(), want.to_bits(), "Ip at now {}", now);
        }
    }
}

proptest! {
    /// The planner against its definition: over arbitrary histories, both
    /// schemes, warm windows of 1..=240 minutes (Wild's cap) and arbitrary
    /// covers, `plan_window` keeps at each covered minute `m` the rung
    /// `SchemeKind::select` picks from `InterArrivalModel::probabilities`'
    /// gap `m` (rung 0 past the keep-alive window) and a hole at every
    /// other minute. `schedule_after_invocation` is the all-minutes case.
    #[test]
    fn plan_window_matches_distribution_and_scheme_oracle(
        gaps in proptest::collection::vec(0u64..40, 0..60),
        scheme in prop_oneof![Just(SchemeKind::T1), Just(SchemeKind::T2)],
        keepalive in 1u32..=30,
        local_window in 1u32..200,
        family in 0usize..5,
        len in 1u32..=240,
        cover in proptest::collection::vec(any::<bool>(), 240),
        delay in 0u64..30,
    ) {
        use pulse_core::interarrival::InterArrivalModel;
        use pulse_core::schedule::Slot;

        let cfg = PulseConfig {
            scheme,
            keepalive_minutes: keepalive,
            local_window,
            ..Default::default()
        };
        let fam = zoo::standard()[family].clone();
        let n = fam.n_variants();
        let mut e = PulseEngine::new(vec![fam], cfg);
        let mut model = InterArrivalModel::new(keepalive);
        let mut t = 0u64;
        for g in std::iter::once(0).chain(gaps) {
            t += g;
            e.record_invocation(0, t);
            model.record(t);
        }
        let now = t + delay;
        let probs = model.probabilities(now, local_window);
        let covers = |m: u64| usize::try_from(m - 1).is_ok_and(|i| cover[i]);
        let expect = |m: u64| {
            if !covers(m) {
                Slot::Hole
            } else if m > u64::from(keepalive) {
                Slot::Alive(0)
            } else {
                Slot::Alive(scheme.select(probs.prob(m), n))
            }
        };
        let s = e.plan_window(0, now, len, covers);
        prop_assert_eq!(s.window(), len);
        prop_assert_eq!(s.invoked_at, now);
        for m in 1..=u64::from(len) {
            prop_assert_eq!(s.slot_at_offset(m), Some(expect(m)), "offset {}", m);
        }
        let all = e.schedule_after_invocation(0, now);
        prop_assert_eq!(&all, &e.plan_window(0, now, keepalive, |_| true));
        for m in 1..=u64::from(keepalive) {
            let want = scheme.select(probs.prob(m), n);
            prop_assert_eq!(all.variant_at_offset(m), Some(want), "offset {}", m);
        }
    }
}

/// Whole-log oracle for the inter-arrival estimate: rescans every arrival
/// per query and follows the paper's definition literally. Returns the
/// combined probability of each gap `0..=window` at `now`.
fn oracle_probabilities(log: &[u64], now: u64, local_window: u32, window: u32) -> Vec<f64> {
    let from = now.saturating_sub(u64::from(local_window));
    let local = oracle_distribution(log, from, now, window);
    let global = oracle_distribution(log, 0, u64::MAX, window);
    let uninformed = |d: &[f64]| d.iter().all(|&p| p == 0.0);
    match (uninformed(&local), uninformed(&global)) {
        (true, true) => vec![0.0; window as usize + 1],
        (true, false) => global,
        (false, true) => local,
        (false, false) => local
            .iter()
            .zip(&global)
            .map(|(l, g)| (l + g) / 2.0)
            .collect(),
    }
}

/// Gap `k`'s share of all gaps between consecutive arrivals in
/// `[from, to]`, for `k` in `0..=window`.
fn oracle_distribution(log: &[u64], from: u64, to: u64, window: u32) -> Vec<f64> {
    let in_range: Vec<u64> = log
        .iter()
        .copied()
        .filter(|&a| from <= a && a <= to)
        .collect();
    let gaps: Vec<u64> = in_range.windows(2).map(|w| w[1] - w[0]).collect();
    (0..=u64::from(window))
        .map(|k| {
            if gaps.is_empty() {
                0.0
            } else {
                gaps.iter().filter(|&&g| g == k).count() as f64 / gaps.len() as f64
            }
        })
        .collect()
}
