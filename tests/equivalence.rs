//! Cross-engine equivalence properties over the shared schedule ledger.
//!
//! Both engines — the minute-resolution `Simulator` and the millisecond
//! event-driven `Runtime` — now plan, downgrade, and bill through the same
//! `pulse_core::schedule::ScheduleLedger`. These properties pin the payoff:
//! for deterministic policies on arbitrary workloads, the engines agree on
//! billed keep-alive cost (to minute-boundary rounding), on warm/cold start
//! counts exactly, and on the number of downgrade/evict actions exactly —
//! including policies that exercise the cross-function downgrade path, which
//! the per-crate validation tests only cover for action-free baselines.

#![allow(clippy::cast_possible_truncation)] // test-local minute counts fit usize

use proptest::prelude::*;
use pulse::core::global::{flatten_peak_scan, AliveModel, DowngradeAction};
use pulse::core::individual::KeepAliveSchedule;
use pulse::core::peak::PeakDetector;
use pulse::core::priority::PriorityStructure;
use pulse::core::types::{FuncId, Minute};
use pulse::models::VariantId;
use pulse::prelude::*;
use pulse::sim::assignment::round_robin_assignment;

/// A trace of `1..=3` functions over `30..120` minutes with at most
/// `max_per_minute` invocations per function-minute. The downgrade-exercising
/// properties stay at one invocation per minute so no request is ever
/// executing across the minute tick that evicts its container (the engines
/// model that boundary at different resolutions by design).
fn arb_trace(max_per_minute: u32) -> impl Strategy<Value = Trace> {
    (1usize..4, 30usize..120).prop_flat_map(move |(nf, minutes)| {
        proptest::collection::vec(
            proptest::collection::vec(0u32..=max_per_minute, minutes..=minutes),
            nf..=nf,
        )
        .prop_map(|rows| {
            Trace::new(
                rows.into_iter()
                    .enumerate()
                    .map(|(i, counts)| FunctionTrace::new(format!("f{i}"), counts))
                    .collect(),
            )
        })
    })
}

/// A deterministic cross-function layer over a fixed keep-alive baseline:
/// every `period` minutes it downgrades one alive container by one rung (or
/// evicts it when already at the lowest rung), rotating the victim by
/// minute. Both engines drive it through the same `adjust_minute` call, so
/// any divergence in the alive sets they present — or in how the shared
/// ledger applies the returned actions — changes its decisions and breaks
/// the equality assertions downstream.
struct PeriodicDowngrader {
    inner: OpenWhiskFixed,
    period: u64,
}

impl KeepAlivePolicy for PeriodicDowngrader {
    fn name(&self) -> &str {
        "periodic-downgrader"
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        self.inner.schedule_on_invocation(f, t)
    }

    fn cold_start_variant(&mut self, f: FuncId, t: Minute) -> VariantId {
        self.inner.cold_start_variant(f, t)
    }

    fn adjust_minute(
        &mut self,
        t: Minute,
        _mem_history: &[f64],
        _first_minute_of_period: bool,
        _current_kam_mb: f64,
        alive: &mut Vec<AliveModel>,
    ) -> Vec<DowngradeAction> {
        if t == 0 || !t.is_multiple_of(self.period) || alive.is_empty() {
            return Vec::new();
        }
        let idx = (t / self.period) as usize % alive.len();
        let victim = alive[idx].clone();
        if victim.variant > 0 {
            alive[idx].variant -= 1;
            vec![DowngradeAction::Downgrade {
                func: victim.func,
                from: victim.variant,
                to: victim.variant - 1,
            }]
        } else {
            alive.remove(idx);
            vec![DowngradeAction::Evict {
                func: victim.func,
                from: 0,
            }]
        }
    }
}

/// Assert the full equivalence contract between one sim run and one runtime
/// run: exact warm/cold/downgrade counts, cost to minute-boundary rounding,
/// and the per-minute billed memory series elementwise.
fn assert_engines_agree(
    s: &RunMetrics,
    r: &pulse::runtime::RuntimeSummary,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(s.warm_starts, r.warm_starts());
    prop_assert_eq!(s.cold_starts, r.cold_starts());
    prop_assert_eq!(s.downgrades, r.downgrades);
    prop_assert!(
        (s.keepalive_cost_usd - r.keepalive_cost_usd).abs() < 1e-9,
        "cost: sim {} vs runtime {}",
        s.keepalive_cost_usd,
        r.keepalive_cost_usd
    );
    prop_assert_eq!(s.memory_series_mb.len(), r.memory_at_tick_mb.len());
    for (t, (&sm, &rm)) in s
        .memory_series_mb
        .iter()
        .zip(r.memory_at_tick_mb.iter())
        .enumerate()
    {
        prop_assert!(
            (sm - rm).abs() < 1e-9,
            "minute {}: sim billed {} MB, runtime billed {} MB",
            t,
            sm,
            rm
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Equivalence under an action-emitting policy: the shared ledger applies
    /// the same downgrades/evictions in both engines, so costs, counts, and
    /// the billed memory series all agree on arbitrary sparse workloads.
    #[test]
    fn engines_agree_under_periodic_downgrades(
        trace in arb_trace(1),
        period in 2u64..7,
    ) {
        let fams = round_robin_assignment(
            &pulse::models::zoo::standard(),
            trace.n_functions(),
        );
        let sim = Simulator::new(trace.clone(), fams.clone());
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let s = sim.run(&mut PeriodicDowngrader {
            inner: OpenWhiskFixed::new(&fams),
            period,
        });
        let r = rt.run(&mut PeriodicDowngrader {
            inner: OpenWhiskFixed::new(&fams),
            period,
        });
        assert_engines_agree(&s, &r)?;
    }

    /// Equivalence for the pinned-variant baselines (all-low and all-high)
    /// on denser workloads — no downgrade actions, but cold-start variant
    /// choice and schedule refresh must route identically through the ledger.
    #[test]
    fn engines_agree_on_pinned_variants(trace in arb_trace(2), high in 0u8..2) {
        let high = high == 1;
        let fams = round_robin_assignment(
            &pulse::models::zoo::standard(),
            trace.n_functions(),
        );
        let mk = |fams: &[_]| if high {
            FixedVariant::all_high(fams)
        } else {
            FixedVariant::all_low(fams)
        };
        let sim = Simulator::new(trace.clone(), fams.clone());
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let s = sim.run(&mut mk(&fams));
        let r = rt.run(&mut mk(&fams));
        assert_engines_agree(&s, &r)?;
    }

    /// The steppable sessions preserve the equivalence: driving both engines
    /// by hand — `SimSession::step_minute` against `RuntimeSession::step` —
    /// yields the same agreement as the batch `run` entry points, and the
    /// mid-run ledgers expose the same alive variant for every function at
    /// every minute boundary.
    #[test]
    fn stepped_sessions_agree_and_expose_one_ledger_view(
        trace in arb_trace(1),
        period in 2u64..7,
    ) {
        let fams = round_robin_assignment(
            &pulse::models::zoo::standard(),
            trace.n_functions(),
        );
        let minutes = trace.minutes();
        let sim = Simulator::new(trace.clone(), fams.clone());
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());

        let mut sp = PeriodicDowngrader { inner: OpenWhiskFixed::new(&fams), period };
        let mut rp = PeriodicDowngrader { inner: OpenWhiskFixed::new(&fams), period };
        let mut ssess = sim.session(&mut sp);
        let plan = FaultPlan::none();
        let mut rsess = rt.session(&mut rp, &plan, ClusterConfig::unlimited());

        for t in 0..minutes as u64 {
            // Advance each engine through exactly minute t: the runtime
            // processes every event timestamped inside the minute (its tick,
            // arrivals, completions), the sim takes one step. With both
            // engines at the t/t+1 boundary, minute t's slots are final in
            // both ledgers and must agree for every function.
            while rsess
                .peek_time()
                .is_some_and(|ms| ms < (t + 1) * pulse::runtime::MS_PER_MINUTE)
            {
                rsess.step();
            }
            prop_assert!(ssess.step_minute().is_some());
            for f in 0..fams.len() {
                prop_assert_eq!(
                    ssess.ledger().alive_variant_at(f, t),
                    rsess.ledger().alive_variant_at(f, t),
                    "minute {} func {}: ledgers disagree",
                    t,
                    f
                );
            }
        }
        prop_assert!(ssess.step_minute().is_none());
        assert_engines_agree(&ssess.finish(), &rsess.finish())?;
    }
}

/// The engines meter through different ledger paths — the simulator by full
/// sweep, the runtime through its incremental index — so pin them against
/// each other under real PULSE peaks: one day of `azure_like_12` makes
/// Algorithm 2 fire hundreds of times, and cost, counts and the billed
/// series must agree exactly, not to rounding.
#[test]
fn sim_sweep_and_runtime_index_agree_bitwise_under_pulse_peaks() {
    for seed in [1, 2, 3, 7] {
        let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 1440);
        let fams = round_robin_assignment(&pulse::models::zoo::standard(), trace.n_functions());
        let make = || PulsePolicy::new(fams.clone(), PulseConfig::default());
        let sim = Simulator::new(trace.clone(), fams.clone());
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let s = sim.run(&mut make());
        let r = rt.run(&mut make());
        assert!(s.downgrades > 0, "seed {seed}: no peak was flattened");
        assert_eq!(
            s.keepalive_cost_usd.to_bits(),
            r.keepalive_cost_usd.to_bits(),
            "seed {seed}: cost sim {} vs runtime {}",
            s.keepalive_cost_usd,
            r.keepalive_cost_usd
        );
        assert_eq!(s.warm_starts, r.warm_starts(), "seed {seed}: warm starts");
        assert_eq!(s.cold_starts, r.cold_starts(), "seed {seed}: cold starts");
        assert_eq!(s.downgrades, r.downgrades, "seed {seed}: downgrades");
        assert!(
            s.memory_series_mb == r.memory_at_tick_mb,
            "seed {seed}: billed series differ"
        );
    }
}

/// PULSE with Algorithm 2 run by the linear-scan oracle: a `PulseEngine`
/// records invocations, plans windows and supplies `Ip`, while this
/// policy's own detector and priority structure run Algorithms 1 and 2
/// with `flatten_peak_scan`. `PulsePolicy` flattens with the production
/// victim heap, so the two runs differ only in how victims are selected.
struct ScanPulse {
    engine: PulseEngine,
    detector: PeakDetector,
    priority: PriorityStructure,
    peaks: u64,
}

impl ScanPulse {
    fn new(families: Vec<ModelFamily>) -> Self {
        let cfg = PulseConfig::default();
        let n = families.len();
        Self {
            detector: PeakDetector::new(cfg.km_threshold, cfg.local_window as usize),
            engine: PulseEngine::new(families, cfg),
            priority: PriorityStructure::new(n),
            peaks: 0,
        }
    }
}

impl KeepAlivePolicy for ScanPulse {
    fn name(&self) -> &str {
        "pulse"
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        self.engine.record_invocation(f, t);
        self.engine.schedule_after_invocation(f, t)
    }

    fn cold_start_variant(&mut self, f: FuncId, _t: Minute) -> VariantId {
        self.engine.family(f).highest_id()
    }

    fn adjust_minute(
        &mut self,
        t: Minute,
        mem_history: &[f64],
        first_minute_of_period: bool,
        current_kam_mb: f64,
        alive: &mut Vec<AliveModel>,
    ) -> Vec<DowngradeAction> {
        let prior = self.detector.prior_kam(mem_history, first_minute_of_period);
        if !self.detector.is_peak(current_kam_mb, prior) {
            return Vec::new();
        }
        self.peaks += 1;
        for m in alive.iter_mut() {
            m.invocation_probability = self.engine.invocation_probability_at(m.func, t);
        }
        flatten_peak_scan(
            alive,
            self.engine.families(),
            &mut self.priority,
            current_kam_mb,
            self.detector.flatten_target(prior),
        )
        .actions
    }
}

/// End-to-end pin for Algorithm 2: the production victim heap inside
/// `PulsePolicy` and the linear-scan oracle produce bitwise-equal run
/// metrics on the paper's 12-function trace over more than a day and on a
/// 1000-function fleet, where a peak holds hundreds of alive models and
/// priority bumps keep moving Equation 1's bounds mid-peak.
#[test]
fn pulse_victim_heap_matches_scan_oracle_end_to_end() {
    let cases = [
        pulse::trace::synth::azure_like_12_with_horizon(1, 2160),
        pulse::trace::synth::azure_like_n_with_horizon(1000, 1, 120),
    ];
    for trace in cases {
        let n = trace.n_functions();
        let fams = round_robin_assignment(&pulse::models::zoo::standard(), n);
        let sim = Simulator::new(trace, fams.clone());
        let heap = sim.run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default()));
        let mut oracle = ScanPulse::new(fams);
        let scan = sim.run(&mut oracle);
        assert!(oracle.peaks > 0, "{n} functions: no peak fired");
        assert!(scan.downgrades > 0, "{n} functions: no victim selected");
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(heap.policy, scan.policy);
        assert_eq!(heap.downgrades, scan.downgrades, "{n} functions");
        assert_eq!(heap.warm_starts, scan.warm_starts, "{n} functions");
        assert_eq!(heap.cold_starts, scan.cold_starts, "{n} functions");
        for (name, a, b) in [
            ("cost", heap.keepalive_cost_usd, scan.keepalive_cost_usd),
            ("service", heap.service_time_s, scan.service_time_s),
            ("accuracy", heap.accuracy_sum_pct, scan.accuracy_sum_pct),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{n} functions: {name} {a} vs {b}");
        }
        assert_eq!(bits(&heap.memory_series_mb), bits(&scan.memory_series_mb));
        assert_eq!(bits(&heap.cost_series_usd), bits(&scan.cost_series_usd));
    }
}
