//! Property-based tests (proptest) on the core invariants, spanning crates.

#![allow(clippy::cast_possible_truncation)] // test-local minute counts fit usize

use proptest::prelude::*;
use pulse::core::global::{flatten_peak, AliveModel};
use pulse::core::interarrival::InterArrivalModel;
use pulse::core::peak::PeakDetector;
use pulse::core::priority::PriorityStructure;
use pulse::core::probability::Probability;
use pulse::core::types::SchemeKind;
use pulse::milp::MilpDowngrader;
use pulse::models::stats::normalize_min_max;
use pulse::models::zoo;

proptest! {
    /// Gap probabilities are a sub-distribution: every entry in [0,1] and
    /// the in-window mass never exceeds 1.
    #[test]
    fn gap_probabilities_are_subdistribution(
        gaps in proptest::collection::vec(1u64..200, 0..60),
        local_window in 1u32..200,
    ) {
        let mut m = InterArrivalModel::new(10);
        let mut t = 0u64;
        m.record(t);
        for g in gaps {
            t += g;
            m.record(t);
        }
        let p = m.probabilities(t, local_window);
        let mut mass = 0.0;
        for k in 0..=10u64 {
            let v = p.at(k);
            prop_assert!((0.0..=1.0).contains(&v));
            mass += v;
        }
        prop_assert!(mass <= 1.0 + 1e-9);
    }

    /// Threshold schemes are monotone in p and always in range.
    #[test]
    fn threshold_schemes_monotone(n in 1usize..6, steps in 2usize..50) {
        for scheme in [SchemeKind::T1, SchemeKind::T2] {
            let mut prev = 0usize;
            for i in 0..=steps {
                let p = Probability::new(i as f64 / steps as f64).unwrap();
                let v = scheme.select(p, n);
                prop_assert!(v < n);
                prop_assert!(v >= prev);
                prev = v;
            }
        }
    }

    /// Equation 1 normalization maps into [0,1] and hits both endpoints for
    /// non-degenerate input.
    #[test]
    fn normalization_bounds(xs in proptest::collection::vec(0.0f64..1e6, 1..40)) {
        let ys = normalize_min_max(&xs);
        prop_assert_eq!(ys.len(), xs.len());
        for &y in &ys {
            prop_assert!((0.0..=1.0).contains(&y));
        }
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if hi > lo {
            prop_assert!(ys.contains(&0.0));
            prop_assert!(ys.contains(&1.0));
        } else {
            prop_assert!(ys.iter().all(|&y| y == 0.0));
        }
    }

    /// The peak detector never fires on a non-increasing memory series.
    #[test]
    fn no_peak_on_non_increasing_memory(
        start in 1.0f64..1e5,
        drops in proptest::collection::vec(0.0f64..0.2, 1..50),
        km in 0.0f64..0.5,
    ) {
        let d = PeakDetector::new(km, 5);
        let mut history = vec![start];
        let mut level = start;
        for frac in drops {
            let next = level * (1.0 - frac);
            prop_assert!(!d.detect(&history, false, next));
            history.push(next);
            level = next;
        }
    }

    /// Flattening always terminates, never increases memory, and reaches any
    /// non-negative target.
    #[test]
    fn flatten_terminates_and_hits_target(
        n_models in 1usize..8,
        target_frac in 0.0f64..1.2,
        ips in proptest::collection::vec(0.0f64..1.0, 8),
    ) {
        let zoo = zoo::standard();
        let fams: Vec<_> = (0..n_models).map(|i| zoo[i % zoo.len()].clone()).collect();
        let mut alive: Vec<AliveModel> = fams
            .iter()
            .enumerate()
            .map(|(func, f)| AliveModel {
                func,
                variant: f.highest_id(),
                invocation_probability: ips[func],
            })
            .collect();
        let total: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
        let target = total * target_frac;
        let mut pr = PriorityStructure::new(n_models);
        let out = flatten_peak(&mut alive, &fams, &mut pr, total, target);
        prop_assert!(out.final_kam_mb <= total + 1e-9);
        prop_assert!(out.final_kam_mb <= target.max(0.0) + 1e-9 || alive.is_empty());
        // Bookkeeping matches recomputation.
        let recomputed: f64 = alive
            .iter()
            .map(|m| fams[m.func].variant(m.variant).memory_mb)
            .sum();
        prop_assert!((recomputed - out.final_kam_mb).abs() < 1e-6);
        // Priority bumps equal actions taken.
        let bumps: u64 = (0..n_models).map(|m| pr.count(m)).sum();
        prop_assert_eq!(bumps as usize, out.actions.len());
    }

    /// FFT round trip is the identity for arbitrary real signals.
    #[test]
    fn fft_round_trip(signal in proptest::collection::vec(-1e3f64..1e3, 1..129)) {
        let spec = pulse::forecast::fft::fft(&signal);
        let back = pulse::forecast::fft::ifft(&spec);
        for (i, x) in signal.iter().enumerate() {
            prop_assert!((x - back[i]).abs() < 1e-6, "idx {}: {} vs {}", i, x, back[i]);
        }
        // Padding tail reconstructs to ~0.
        for y in &back[signal.len()..] {
            prop_assert!(y.abs() < 1e-6);
        }
    }

    /// The MILP downgrader's plan always respects the memory budget and its
    /// utility is at least the greedy loop's (it is the exact optimizer of
    /// the same objective).
    #[test]
    fn milp_plan_feasible_and_at_least_greedy(
        n_models in 1usize..6,
        target_frac in 0.05f64..1.0,
    ) {
        let zoo = zoo::standard();
        let fams: Vec<_> = (0..n_models).map(|i| zoo[i % zoo.len()].clone()).collect();
        let alive: Vec<AliveModel> = fams
            .iter()
            .enumerate()
            .map(|(func, f)| AliveModel {
                func,
                variant: f.highest_id(),
                invocation_probability: 0.2,
            })
            .collect();
        let total: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
        let target = total * target_frac;
        let pr = PriorityStructure::new(n_models);
        let plan = MilpDowngrader.solve(&alive, &fams, &pr, target);
        prop_assert!(plan.memory_mb <= target + 1e-6);
        let dp = MilpDowngrader.solve_dp(&alive, &fams, &pr, target);
        prop_assert!(dp.memory_mb <= target + 1e-6);
        // The DP discretizes memory to whole MB (ceil weights, floor
        // capacity), so it solves a slightly *tighter* knapsack: its optimum
        // can never exceed branch-and-bound's, and at knife-edge budgets it
        // may fall short by up to one item's utility.
        prop_assert!(dp.utility <= plan.utility + 1e-9,
            "dp {} > bb {}", dp.utility, plan.utility);
    }

    /// Simulated metrics are consistent for arbitrary small traces.
    #[test]
    fn simulator_invariants_hold_on_random_traces(
        counts in proptest::collection::vec(
            proptest::collection::vec(0u32..3, 60..120), 1..4
        ),
    ) {
        use pulse::prelude::*;
        let len = counts.iter().map(|c| c.len()).min().unwrap();
        let functions: Vec<FunctionTrace> = counts
            .iter()
            .enumerate()
            .map(|(i, c)| FunctionTrace::new(format!("f{i}"), c[..len].to_vec()))
            .collect();
        let trace = Trace::new(functions);
        let zoo = zoo::standard();
        let fams: Vec<_> = (0..trace.n_functions())
            .map(|i| zoo[i % zoo.len()].clone())
            .collect();
        let sim = Simulator::new(trace.clone(), fams.clone());
        let m = sim.run(&mut PulsePolicy::new(
            fams,
            pulse::core::PulseConfig::default(),
        ));
        prop_assert_eq!(m.invocations(), trace.total_invocations());
        prop_assert!(m.keepalive_cost_usd >= 0.0);
        prop_assert!(m.service_time_s >= 0.0);
        for &mb in &m.memory_series_mb {
            prop_assert!(mb >= 0.0);
        }
    }
}

// ---------------------------------------------------------------------------
// Crash-recovery properties: checkpoint at *any* point, restore by replay,
// resume — bit-identical to the uninterrupted run for arbitrary workloads
// and fault plans; corrupt or stale checkpoints fail with typed errors,
// never a panic.
// ---------------------------------------------------------------------------

/// Build an arbitrary small trace + matching families from proptest counts.
fn arb_workload(counts: &[Vec<u32>]) -> (pulse::trace::Trace, Vec<pulse::models::ModelFamily>) {
    use pulse::prelude::*;
    let len = counts.iter().map(|c| c.len()).min().unwrap_or(0);
    let functions: Vec<FunctionTrace> = counts
        .iter()
        .enumerate()
        .map(|(i, c)| FunctionTrace::new(format!("f{i}"), c[..len].to_vec()))
        .collect();
    let trace = Trace::new(functions);
    let z = zoo::standard();
    let fams: Vec<_> = (0..trace.n_functions())
        .map(|i| z[i % z.len()].clone())
        .collect();
    (trace, fams)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Minute engine: kill at an arbitrary minute of an arbitrary workload,
    /// restore, resume — equal to never stopping.
    #[test]
    fn sim_snapshot_at_any_minute_resumes_identically(
        counts in proptest::collection::vec(
            proptest::collection::vec(0u32..3, 40..90), 1..4
        ),
        kill_frac in 0.0f64..1.0,
    ) {
        use pulse::prelude::*;
        let (trace, fams) = arb_workload(&counts);
        let minutes = trace.minutes() as u64;
        let kill = ((minutes as f64 * kill_frac) as u64).min(minutes.saturating_sub(1));
        let sim = Simulator::new(trace, fams.clone());
        let make = || PulsePolicy::new(fams.clone(), pulse::core::PulseConfig::default());

        let whole = sim.run(&mut make());
        let mut p1 = make();
        let mut sess = sim.session(&mut p1);
        while sess.next_minute() < kill && sess.step_minute().is_some() {}
        let snap = sess.snapshot();
        drop(sess);
        let mut p2 = make();
        let resumed = sim
            .restore(&mut p2, &snap)
            .map_err(|e| TestCaseError::fail(e.to_string()))?
            .finish();
        prop_assert_eq!(&whole, &resumed);
        prop_assert_eq!(
            whole.keepalive_cost_usd.to_bits(),
            resumed.keepalive_cost_usd.to_bits()
        );
    }

    /// Event-driven runtime: kill after an arbitrary number of events under
    /// an arbitrary fault plan (both RNG streams live), restore, resume —
    /// equal to never stopping.
    #[test]
    fn runtime_snapshot_at_any_event_resumes_identically(
        counts in proptest::collection::vec(
            proptest::collection::vec(0u32..3, 40..80), 1..3
        ),
        kill_events in 0usize..600,
        prov in 0.0f64..0.3,
        crash in 0.0f64..0.2,
        fault_seed in any::<u64>(),
    ) {
        use pulse::prelude::*;
        use pulse::runtime::{ClusterConfig, FaultPlan, Runtime, RuntimeConfig};
        let (trace, fams) = arb_workload(&counts);
        let rt = Runtime::new(
            trace,
            fams.clone(),
            RuntimeConfig {
                stochastic_seed: Some(fault_seed ^ 0x5eed),
                ..RuntimeConfig::default()
            },
        );
        let plan = FaultPlan::uniform(prov, prov / 2.0, crash, fault_seed);
        let cluster = ClusterConfig::unlimited();
        let make = || PulsePolicy::new(fams.clone(), pulse::core::PulseConfig::default());

        let mut whole_p = make();
        let whole = rt.session(&mut whole_p, &plan, cluster).finish();
        let mut p1 = make();
        let mut sess = rt.session(&mut p1, &plan, cluster);
        for _ in 0..kill_events {
            if sess.step().is_none() {
                break;
            }
        }
        let snap = sess.snapshot();
        drop(sess);
        let mut p2 = make();
        let resumed = rt
            .restore(&mut p2, &plan, cluster, &snap)
            .map_err(|e| TestCaseError::fail(e.to_string()))?
            .finish();
        prop_assert_eq!(&whole.records, &resumed.records);
        prop_assert_eq!(format!("{whole:?}"), format!("{resumed:?}"));
    }
}

proptest! {
    /// Arbitrary garbage — and arbitrary corruptions of a valid snapshot,
    /// Azure day-file trace CSV and checkpoint journal — are rejected with a
    /// typed error by both engines' restore, the trace parser and journal
    /// replay; none of them panics.
    #[test]
    fn corrupt_snapshots_fail_soft_never_panic(
        garbage_bytes in proptest::collection::vec(any::<u8>(), 0..200),
        cut_frac in 0.0f64..1.0,
        splice_bytes in proptest::collection::vec(32u8..127, 0..30),
    ) {
        use pulse::prelude::*;
        use pulse::runtime::{ClusterConfig, FaultPlan, Runtime, RuntimeConfig};
        use pulse::trace::csv;
        let trace = Trace::new(vec![FunctionTrace::new("f", vec![1, 0, 2, 0, 1, 0, 0, 1])]);
        let fams = vec![zoo::bert()];
        let sim = Simulator::new(trace.clone(), fams.clone());
        let make = || PulsePolicy::new(fams.clone(), pulse::core::PulseConfig::default());
        let mut p = make();
        let mut sess = sim.session(&mut p);
        for _ in 0..4 {
            sess.step_minute();
        }
        let snap = sess.snapshot();
        drop(sess);
        let rt = Runtime::new(trace.clone(), fams.clone(), RuntimeConfig::default());
        let cluster = ClusterConfig::unlimited();
        let mut p = make();
        let mut sess = rt.session(&mut p, &FaultPlan::none(), cluster);
        for _ in 0..6 {
            sess.step();
        }
        let rt_snap = sess.snapshot();
        drop(sess);
        let garbage = String::from_utf8_lossy(&garbage_bytes).into_owned();
        let splice = String::from_utf8_lossy(&splice_bytes).into_owned();

        // Corrupt a valid document: truncate at an arbitrary char boundary
        // and splice arbitrary printable bytes in.
        let corrupt = |doc: &str| {
            let cut = ((doc.len() as f64) * cut_frac) as usize;
            let cut = (0..=cut).rev().find(|&i| doc.is_char_boundary(i)).unwrap_or(0);
            format!("{}{}", &doc[..cut], splice)
        };
        let mut journal = pulse::obs::JournalSink::new(Vec::new());
        journal.checkpoint(&snap);
        let journal = String::from_utf8(journal.into_inner()).unwrap();
        // A cut inside the second row leaves a clean row before the bad one.
        let two = Trace::new(vec![
            FunctionTrace::new("f", vec![1, 0, 2, 0]),
            FunctionTrace::new("g", vec![0, 3, 0, 1]),
        ]);
        let docs = [
            garbage,
            corrupt(&snap),
            corrupt(&rt_snap),
            corrupt(&csv::to_azure_day_csv(&trace, 0)),
            corrupt(&csv::to_azure_day_csv(&two, 0)),
            corrupt(&journal),
        ];

        for doc in &docs {
            // Either a typed error, or (for corruptions that happen to stay
            // well-formed, e.g. a truncation splicing into a valid prefix)
            // a successful parse that then runs to completion — but never a
            // panic.
            let mut p = make();
            if let Ok(resumed) = sim.restore(&mut p, doc) {
                resumed.finish();
            }
            let mut p = make();
            if let Ok(resumed) = rt.restore(&mut p, &FaultPlan::none(), cluster, doc) {
                resumed.finish();
            }
            let _ = csv::parse_azure_day(doc);
            let _ = pulse::obs::replay_journal(doc);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The incrementally-maintained ledger fills every minute footprint
    /// bit-identically to a from-scratch ascending full sweep, after
    /// arbitrary interleaved schedule mutations and after retirement — the
    /// contract the runtime's hot path relies on.
    #[test]
    fn incremental_ledger_matches_full_sweep_bitwise(
        ops in proptest::collection::vec(
            (0usize..8, 0u64..40, 0u8..5, 0usize..4), 1..60),
        probe_minute in 0u64..45,
    ) {
        use pulse::core::individual::KeepAliveSchedule;
        use pulse::core::schedule::{MinuteFootprint, ScheduleLedger};

        let z = zoo::standard();
        let fams: Vec<_> = (0..8).map(|i| z[i % z.len()].clone()).collect();

        // The same mutation stream drives an index-backed ledger and a
        // plain one that only knows the full sweep.
        let mut inc = ScheduleLedger::for_families(&fams);
        let mut full = ScheduleLedger::new(fams.len());
        prop_assert!(inc.is_incremental());
        prop_assert!(!full.is_incremental());

        // One buffer is refilled across the whole stream, exactly like the
        // engines' session-owned footprint.
        let fixed_minute = 20u64;
        let mut fp = MinuteFootprint::default();
        let mut check = |inc: &ScheduleLedger, full: &ScheduleLedger, m: u64| {
            inc.fill_minute_footprint(&fams, m, &mut fp);
            let swept = full.minute_footprint(&fams, m);
            prop_assert_eq!(&fp.alive, &swept.alive, "minute {}", m);
            prop_assert_eq!(fp.total_mb.to_bits(), swept.total_mb.to_bits(), "minute {}", m);
            Ok(())
        };

        for &(f, t, kind, v) in &ops {
            let variant = v % fams[f].n_variants();
            match kind {
                0 | 1 => {
                    let s = KeepAliveSchedule::constant(t, variant, 8);
                    inc.replace(f, s.clone());
                    full.replace(f, s);
                }
                2 => {
                    prop_assert_eq!(
                        inc.apply_downgrade(f, t, variant),
                        full.apply_downgrade(f, t, variant)
                    );
                }
                3 => {
                    prop_assert_eq!(inc.apply_eviction(f, t), full.apply_eviction(f, t));
                }
                _ => {
                    inc.clear(f);
                    full.clear(f);
                }
            }

            // Footprints: bitwise equal at the mutated minute, a later
            // one, a random probe, and a fixed minute (covers empty
            // minutes, whose footprint total is +0.0).
            for m in [t, t + 3, probe_minute, fixed_minute] {
                check(&inc, &full, m)?;
            }
        }

        // Retiring billed minutes must not change any answer: minutes past
        // the retirement point stay indexed, earlier ones fall back to the
        // sweep — both bitwise equal to the plain ledger.
        inc.retire_minutes_before(probe_minute);
        for m in [0, probe_minute, probe_minute + 5] {
            check(&inc, &full, m)?;
        }
    }
}
