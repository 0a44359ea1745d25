//! Failure-injection and robustness tests: pathological traces and
//! misbehaving policies must not corrupt the platform's accounting.

#![allow(clippy::float_cmp, clippy::cast_possible_truncation)] // tests compare exact values; counts fit usize

use pulse::core::global::{AliveModel, DowngradeAction};
use pulse::core::individual::KeepAliveSchedule;
use pulse::core::types::{FuncId, Minute, PulseConfig};
use pulse::prelude::*;
use pulse::sim::assignment::round_robin_assignment;

fn zoo12() -> Vec<ModelFamily> {
    round_robin_assignment(&pulse::models::zoo::standard(), 12)
}

#[test]
fn all_silent_trace_is_free() {
    let trace = Trace::new(
        (0..12)
            .map(|i| FunctionTrace::new(format!("f{i}"), vec![0; 500]))
            .collect(),
    );
    let fams = zoo12();
    let sim = Simulator::new(trace, fams.clone());
    for metrics in [
        sim.run(&mut OpenWhiskFixed::new(&fams)),
        sim.run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default())),
    ] {
        assert_eq!(metrics.invocations(), 0);
        assert_eq!(metrics.keepalive_cost_usd, 0.0);
        assert_eq!(metrics.service_time_s, 0.0);
        assert!(metrics.memory_series_mb.iter().all(|&m| m == 0.0));
    }
}

#[test]
fn saturated_trace_is_all_warm_after_first_minute() {
    // Every function fires every single minute.
    let trace = Trace::new(
        (0..12)
            .map(|i| FunctionTrace::new(format!("f{i}"), vec![1; 300]))
            .collect(),
    );
    let fams = zoo12();
    let sim = Simulator::new(trace, fams.clone());
    let m = sim.run(&mut OpenWhiskFixed::new(&fams));
    assert_eq!(m.cold_starts, 12, "one cold start per function");
    assert_eq!(m.warm_starts, 12 * 299);
}

#[test]
fn single_mega_burst_is_accounted_once() {
    let mut counts = vec![0u32; 100];
    counts[50] = 10_000;
    let trace = Trace::new(vec![FunctionTrace::new("burst", counts)]);
    let fams = vec![pulse::models::zoo::bert()];
    let sim = Simulator::new(trace, fams.clone());
    let m = sim.run(&mut PulsePolicy::new(fams, PulseConfig::default()));
    assert_eq!(m.invocations(), 10_000);
    assert_eq!(m.cold_starts, 1);
    assert_eq!(m.warm_starts, 9_999);
}

/// A policy that emits downgrade actions for functions that are not alive,
/// repeats actions, and schedules in strange shapes. The engine must ignore
/// the nonsense and keep its accounting invariants.
struct ChaoticPolicy {
    fams: Vec<ModelFamily>,
    tick: u64,
}

impl KeepAlivePolicy for ChaoticPolicy {
    fn name(&self) -> &str {
        "chaotic"
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        // Alternate between empty plans, single-minute plans, and oversized
        // variant ids clamped only by the family ladder (use highest).
        match t % 3 {
            0 => KeepAliveSchedule::new(t, Vec::new()),
            1 => KeepAliveSchedule::new(t, vec![0]),
            _ => KeepAliveSchedule::constant(t, self.fams[f].highest_id(), 10),
        }
    }

    fn cold_start_variant(&mut self, f: FuncId, _t: Minute) -> usize {
        self.fams[f].highest_id()
    }

    fn adjust_minute(
        &mut self,
        _t: Minute,
        _mem_history: &[f64],
        _first: bool,
        _kam: f64,
        _alive: &mut Vec<AliveModel>,
    ) -> Vec<DowngradeAction> {
        self.tick += 1;
        // Bogus actions: downgrades for functions without schedules,
        // evictions of never-alive functions, repeated entries.
        vec![
            DowngradeAction::Downgrade {
                func: (self.tick as usize) % self.fams.len(),
                from: 2,
                to: 0,
            },
            DowngradeAction::Evict {
                func: (self.tick as usize + 1) % self.fams.len(),
                from: 0,
            },
            DowngradeAction::Evict {
                func: (self.tick as usize + 1) % self.fams.len(),
                from: 0,
            },
        ]
    }
}

#[test]
fn engine_survives_chaotic_policy() {
    let trace = pulse::trace::synth::azure_like_12_with_horizon(3, 600);
    let fams = zoo12();
    let sim = Simulator::new(trace.clone(), fams.clone());
    let m = sim.run(&mut ChaoticPolicy {
        fams: fams.clone(),
        tick: 0,
    });
    // Accounting invariants hold regardless of policy nonsense.
    assert_eq!(m.invocations(), trace.total_invocations());
    assert!(m.keepalive_cost_usd >= 0.0);
    assert!(m.service_time_s > 0.0);
    assert_eq!(m.memory_series_mb.len(), trace.minutes());
    assert!(m.memory_series_mb.iter().all(|&x| x >= 0.0));
    let series_total: f64 = m.cost_series_usd.iter().sum();
    assert!((series_total - m.keepalive_cost_usd).abs() < 1e-9);
}

#[test]
fn runtime_survives_chaotic_policy_too() {
    use pulse::runtime::{Runtime, RuntimeConfig};
    let trace = pulse::trace::synth::azure_like_12_with_horizon(3, 300);
    let fams = zoo12();
    let rt = Runtime::new(trace.clone(), fams.clone(), RuntimeConfig::default());
    let s = rt.run(&mut ChaoticPolicy {
        fams: fams.clone(),
        tick: 0,
    });
    assert_eq!(s.requests(), trace.total_invocations());
    assert!(s.keepalive_cost_usd >= 0.0);
    // Every request completed (done >= arrival).
    for r in &s.records {
        assert!(r.done_ms >= r.arrival_ms);
        assert!(r.accuracy_pct > 0.0);
    }
}

// ---------------------------------------------------------------------------
// Fault-injection scenarios (the `pulse::runtime::fault` layer).
//
// CI's chaos job re-runs these under several seeds via PULSE_CHAOS_SEED.
// ---------------------------------------------------------------------------

/// Seed for the fault scenarios; CI sweeps it, local runs default to 7.
fn chaos_seed() -> u64 {
    std::env::var("PULSE_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

/// Builds a fresh instance of a named policy; one factory per policy in
/// pulse-sim/src/policies/. Shared by the bit-identity suites below.
type PolicyFactory = Box<dyn Fn() -> Box<dyn KeepAlivePolicy>>;

fn policy_factories(fams: &[ModelFamily], trace: &Trace) -> Vec<(&'static str, PolicyFactory)> {
    use pulse::sim::policies::{
        CapacityPulse, CapacityRandom, FixedVariant, IdealOracle, IntelligentOracle,
        OpenWhiskFixed, PulsePolicy, RandomMix,
    };
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let fams = fams.to_vec();
    vec![
        ("openwhisk", {
            let f = fams.clone();
            Box::new(move || Box::new(OpenWhiskFixed::new(&f)) as Box<dyn KeepAlivePolicy>)
                as PolicyFactory
        }),
        ("pulse", {
            let f = fams.clone();
            Box::new(move || Box::new(PulsePolicy::new(f.clone(), PulseConfig::default())))
        }),
        ("intelligent", {
            let (f, t) = (fams.clone(), trace.clone());
            Box::new(move || Box::new(IntelligentOracle::new(&f, t.clone())))
        }),
        ("ideal", {
            let (f, t) = (fams.clone(), trace.clone());
            Box::new(move || Box::new(IdealOracle::new(&f, t.clone())))
        }),
        ("random-mix", {
            let f = fams.clone();
            Box::new(move || {
                let mut rng = SmallRng::seed_from_u64(11);
                Box::new(RandomMix::new(&f, &mut rng))
            })
        }),
        ("fixed-low", {
            let f = fams.clone();
            Box::new(move || Box::new(FixedVariant::all_low(&f)))
        }),
        ("capacity-pulse", {
            let f = fams.clone();
            Box::new(move || {
                Box::new(CapacityPulse::new(
                    f.clone(),
                    PulseConfig::default(),
                    4000.0,
                ))
            })
        }),
        ("capacity-random", {
            let f = fams.clone();
            Box::new(move || {
                Box::new(CapacityRandom::new(
                    OpenWhiskFixed::new(&f),
                    f.clone(),
                    4000.0,
                    13,
                ))
            })
        }),
    ]
}

#[test]
fn zero_fault_plan_is_bitwise_identical_for_every_policy() {
    use pulse::runtime::{ClusterConfig, FaultPlan, Runtime, RuntimeConfig};

    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 200);
    let fams = zoo12();
    let rt = Runtime::new(
        trace.clone(),
        fams.clone(),
        RuntimeConfig {
            stochastic_seed: Some(seed),
            ..RuntimeConfig::default()
        },
    );

    // A plan with every rate at zero must not perturb a single bit of any
    // policy's summary, whatever its fault seed: zero-rate draws are
    // skipped, so the injector's RNG is never consulted.
    let zero = FaultPlan::uniform(0.0, 0.0, 0.0, seed ^ 0x5EED);
    for (name, make) in &policy_factories(&fams, &trace) {
        let plain = rt.run(make().as_mut());
        let faulted = rt
            .session(make().as_mut(), &zero, ClusterConfig::unlimited())
            .finish();
        assert_eq!(plain.records, faulted.records, "{name}: records diverged");
        assert_eq!(
            plain.keepalive_cost_usd.to_bits(),
            faulted.keepalive_cost_usd.to_bits(),
            "{name}: cost not bitwise equal"
        );
        assert_eq!(plain.warm_starts(), faulted.warm_starts(), "{name}");
        assert_eq!(plain.cold_starts(), faulted.cold_starts(), "{name}");
        let plain_mem: Vec<u64> = plain
            .memory_at_tick_mb
            .iter()
            .map(|m| m.to_bits())
            .collect();
        let fault_mem: Vec<u64> = faulted
            .memory_at_tick_mb
            .iter()
            .map(|m| m.to_bits())
            .collect();
        assert_eq!(plain_mem, fault_mem, "{name}: memory series diverged");
        assert_eq!(faulted.provision_failures, 0, "{name}");
        assert_eq!(faulted.exec_crashes, 0, "{name}");
        assert_eq!(faulted.degradations, 0, "{name}");
        assert_eq!(faulted.timeouts, 0, "{name}");
        assert_eq!(faulted.failed_requests(), 0, "{name}");
    }
}

#[test]
fn unlimited_cluster_is_bitwise_identical_for_every_policy() {
    use pulse::runtime::{
        AdmissionControl, ClusterConfig, FaultPlan, NodeCapacity, Runtime, RuntimeConfig,
    };

    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 200);
    let fams = zoo12();
    let rt = Runtime::new(
        trace.clone(),
        fams.clone(),
        RuntimeConfig {
            stochastic_seed: Some(seed),
            ..RuntimeConfig::default()
        },
    );
    // A decidedly non-trivial fault plan: the robustness layer must be a
    // pure pass-through when capacity is unlimited, admission unbounded and
    // no watchdog is wrapped — even while faults, retries, degradations and
    // timeouts are all firing.
    let plan = FaultPlan::uniform(0.2, 0.1, 0.05, seed).with_timeout_ms(120_000);

    // Knobs that can never act: a cap above the all-high footprint and an
    // admission bound above the whole request count.
    let all_high: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
    let slack = ClusterConfig {
        capacity: NodeCapacity::mb(all_high * 2.0),
        admission: AdmissionControl::bounded(trace.total_invocations() as usize + 1),
    };
    for (name, make) in &policy_factories(&fams, &trace) {
        let capped = rt.session(make().as_mut(), &plan, slack).finish();
        let cluster = rt
            .session(make().as_mut(), &plan, ClusterConfig::unlimited())
            .finish();
        assert_eq!(capped.records, cluster.records, "{name}: records diverged");
        assert_eq!(
            capped.keepalive_cost_usd.to_bits(),
            cluster.keepalive_cost_usd.to_bits(),
            "{name}: cost not bitwise equal"
        );
        let a: Vec<u64> = capped
            .memory_at_tick_mb
            .iter()
            .map(|m| m.to_bits())
            .collect();
        let b: Vec<u64> = cluster
            .memory_at_tick_mb
            .iter()
            .map(|m| m.to_bits())
            .collect();
        assert_eq!(a, b, "{name}: memory series diverged");
        assert_eq!(
            capped.provision_failures, cluster.provision_failures,
            "{name}"
        );
        assert_eq!(capped.exec_crashes, cluster.exec_crashes, "{name}");
        assert_eq!(capped.degradations, cluster.degradations, "{name}");
        assert_eq!(capped.timeouts, cluster.timeouts, "{name}");
        assert_eq!(
            capped.accuracy_penalty_pct.to_bits(),
            cluster.accuracy_penalty_pct.to_bits(),
            "{name}"
        );
        // The robustness counters must all stay silent.
        assert_eq!(cluster.shed_requests, 0, "{name}");
        assert_eq!(cluster.evictions, 0, "{name}");
        assert_eq!(cluster.pressure_downgrades, 0, "{name}");
        assert_eq!(cluster.pressure_minutes, 0, "{name}");
        assert_eq!(cluster.fallback_minutes, 0, "{name}");
    }
}

#[test]
fn disabled_watchdog_is_bitwise_transparent_for_every_policy() {
    use pulse::runtime::{ClusterConfig, FaultPlan, Runtime, RuntimeConfig};
    use pulse::sim::{Watchdog, WatchdogConfig};

    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 150);
    let fams = zoo12();
    let rt = Runtime::new(
        trace.clone(),
        fams.clone(),
        RuntimeConfig {
            stochastic_seed: Some(seed),
            ..RuntimeConfig::default()
        },
    );
    let plan = FaultPlan::uniform(0.2, 0.1, 0.05, seed).with_timeout_ms(120_000);

    for (name, make) in &policy_factories(&fams, &trace) {
        let bare = rt
            .session(make().as_mut(), &plan, ClusterConfig::unlimited())
            .finish();
        let never_trips = WatchdogConfig {
            max_violation_rate: f64::INFINITY,
            ..WatchdogConfig::default()
        };
        let mut wrapped = Watchdog::new(make(), &fams, never_trips);
        let watched = rt
            .session(&mut wrapped, &plan, ClusterConfig::unlimited())
            .finish();
        assert_eq!(bare.records, watched.records, "{name}: records diverged");
        assert_eq!(
            bare.keepalive_cost_usd.to_bits(),
            watched.keepalive_cost_usd.to_bits(),
            "{name}: cost not bitwise equal"
        );
        assert_eq!(watched.fallback_minutes, 0, "{name}");
        assert!(!wrapped.in_fallback(), "{name}");
        assert_eq!(wrapped.fallback_minutes(), 0, "{name}");
    }
}

#[test]
fn top_rung_outage_degrades_every_request_one_rung_and_never_corrupts_billing() {
    use pulse::runtime::{ClusterConfig, FaultPlan, FaultRates, Runtime, RuntimeConfig};

    let trace = pulse::trace::synth::azure_like_12_with_horizon(chaos_seed(), 120);
    let fams = zoo12();
    // 100% provisioning *and* variant-load failure, scoped per function to
    // its top rung only (ladder lengths differ across the zoo).
    let mut plan = FaultPlan::none();
    for (f, fam) in fams.iter().enumerate() {
        plan = plan.with_function(
            f,
            FaultRates {
                provision_failure: 1.0,
                variant_load_failure: 1.0,
                exec_crash: 0.0,
                min_faulty_variant: Some(fam.highest_id()),
            },
        );
    }
    let rt = Runtime::new(trace.clone(), fams.clone(), RuntimeConfig::default());
    let s = rt
        .session(
            &mut OpenWhiskFixed::new(&fams),
            &plan,
            ClusterConfig::unlimited(),
        )
        .finish();
    let clean = rt.run(&mut OpenWhiskFixed::new(&fams));

    assert_eq!(s.requests(), trace.total_invocations());
    assert_eq!(s.failed_requests(), 0, "degradation must absorb the outage");
    assert_eq!(s.availability(), 1.0);
    assert!(s.degradations > 0);
    assert!(s.provision_failures > 0);
    // OpenWhisk pins the top rung; with it dark, every request must be
    // served exactly one rung lower — never the top, never two rungs down.
    // Check via the accuracy each record delivered: it must match some
    // family's one-below-top accuracy.
    let below_top: Vec<f64> = fams
        .iter()
        .map(|f| f.variant(f.highest_id() - 1).accuracy_pct)
        .collect();
    for r in &s.records {
        assert!(
            below_top.contains(&r.accuracy_pct),
            "request served at unexpected rung: {}",
            r.accuracy_pct
        );
    }
    // Billing is schedule-driven: the outage must not change a single bit
    // of keep-alive cost or the per-minute memory footprint.
    assert_eq!(
        s.keepalive_cost_usd.to_bits(),
        clean.keepalive_cost_usd.to_bits()
    );
    assert_eq!(s.memory_at_tick_mb.len(), clean.memory_at_tick_mb.len());
    for (a, b) in s.memory_at_tick_mb.iter().zip(&clean.memory_at_tick_mb) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn mid_execution_crashes_never_double_bill_gbms() {
    use pulse::runtime::{ClusterConfig, FaultPlan, Runtime, RuntimeConfig};

    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 200);
    let fams = zoo12();
    let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
    let plan = FaultPlan::uniform(0.0, 0.0, 0.4, seed);
    let crashed = rt
        .session(
            &mut OpenWhiskFixed::new(&fams),
            &plan,
            ClusterConfig::unlimited(),
        )
        .finish();
    let clean = rt.run(&mut OpenWhiskFixed::new(&fams));

    assert!(crashed.exec_crashes > 0, "rate 0.4 must hit something");
    assert!(crashed.request_retries > 0);
    // Keep-alive billing is metered from the schedule footprint at minute
    // ticks — a crashed-and-replaced container must not be billed twice.
    assert_eq!(
        crashed.keepalive_cost_usd.to_bits(),
        clean.keepalive_cost_usd.to_bits()
    );
    for (a, b) in crashed
        .memory_at_tick_mb
        .iter()
        .zip(&clean.memory_at_tick_mb)
    {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(crashed.requests(), clean.requests());
}

#[test]
fn fault_scenarios_replay_identically_under_the_chaos_seed() {
    use pulse::runtime::{ClusterConfig, FaultPlan, Runtime, RuntimeConfig};

    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 150);
    let fams = zoo12();
    let rt = Runtime::new(
        trace,
        fams.clone(),
        RuntimeConfig {
            stochastic_seed: Some(seed),
            ..RuntimeConfig::default()
        },
    );
    let plan = FaultPlan::uniform(0.25, 0.1, 0.1, seed).with_timeout_ms(120_000);
    let run = || {
        let mut policy = PulsePolicy::new(fams.clone(), PulseConfig::default());
        rt.session(&mut policy, &plan, ClusterConfig::unlimited())
            .finish()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.records, b.records);
    assert_eq!(a.provision_failures, b.provision_failures);
    assert_eq!(a.provision_retries, b.provision_retries);
    assert_eq!(a.variant_load_failures, b.variant_load_failures);
    assert_eq!(a.exec_crashes, b.exec_crashes);
    assert_eq!(a.request_retries, b.request_retries);
    assert_eq!(a.degradations, b.degradations);
    assert_eq!(a.degraded_requests, b.degraded_requests);
    assert_eq!(a.timeouts, b.timeouts);
    assert_eq!(a.reaped, b.reaped);
    assert_eq!(
        a.keepalive_cost_usd.to_bits(),
        b.keepalive_cost_usd.to_bits()
    );
    assert_eq!(
        a.accuracy_penalty_pct.to_bits(),
        b.accuracy_penalty_pct.to_bits()
    );
}

// ---------------------------------------------------------------------------
// NullSink transparency: tracing with the no-op sink must be bit-identical
// to running untraced, for every policy, on every engine configuration. CI's obs job
// runs these with `cargo test --test robustness null_sink`.
// ---------------------------------------------------------------------------

/// Field-by-field bitwise comparison of two runtime summaries.
fn assert_summaries_bit_identical(
    name: &str,
    a: &pulse::runtime::RuntimeSummary,
    b: &pulse::runtime::RuntimeSummary,
) {
    assert_eq!(a.records, b.records, "{name}: records diverged");
    assert_eq!(
        a.keepalive_cost_usd.to_bits(),
        b.keepalive_cost_usd.to_bits(),
        "{name}: cost not bitwise equal"
    );
    let am: Vec<u64> = a.memory_at_tick_mb.iter().map(|m| m.to_bits()).collect();
    let bm: Vec<u64> = b.memory_at_tick_mb.iter().map(|m| m.to_bits()).collect();
    assert_eq!(am, bm, "{name}: memory series diverged");
    assert_eq!(
        a.accuracy_penalty_pct.to_bits(),
        b.accuracy_penalty_pct.to_bits(),
        "{name}"
    );
    assert_eq!(a.downgrades, b.downgrades, "{name}");
    assert_eq!(a.provision_failures, b.provision_failures, "{name}");
    assert_eq!(a.provision_retries, b.provision_retries, "{name}");
    assert_eq!(a.exec_crashes, b.exec_crashes, "{name}");
    assert_eq!(a.request_retries, b.request_retries, "{name}");
    assert_eq!(a.degradations, b.degradations, "{name}");
    assert_eq!(a.timeouts, b.timeouts, "{name}");
    assert_eq!(a.reaped, b.reaped, "{name}");
    assert_eq!(a.shed_requests, b.shed_requests, "{name}");
    assert_eq!(a.evictions, b.evictions, "{name}");
    assert_eq!(a.pressure_downgrades, b.pressure_downgrades, "{name}");
    assert_eq!(a.pressure_minutes, b.pressure_minutes, "{name}");
    assert_eq!(a.fallback_minutes, b.fallback_minutes, "{name}");
    // Fleet counters and the per-node breakdown.
    assert_eq!(a.migrations, b.migrations, "{name}");
    assert_eq!(a.migration_pause_ms, b.migration_pause_ms, "{name}");
    assert_eq!(a.node_crashes, b.node_crashes, "{name}");
    assert_eq!(a.node_partitions, b.node_partitions, "{name}");
    assert_eq!(a.node_stragglers, b.node_stragglers, "{name}");
    assert_eq!(a.node_recoveries, b.node_recoveries, "{name}");
    assert_eq!(a.redispatched_requests, b.redispatched_requests, "{name}");
    assert_eq!(a.node_loss_evictions, b.node_loss_evictions, "{name}");
    assert_eq!(a.placement_failures, b.placement_failures, "{name}");
    assert_eq!(a.node_summaries, b.node_summaries, "{name}");
}

#[test]
fn null_sink_simulator_run_is_bit_identical_for_every_policy() {
    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 200);
    let fams = zoo12();
    let sim = Simulator::new(trace.clone(), fams.clone());
    for (name, make) in &policy_factories(&fams, &trace) {
        let plain = sim.run(make().as_mut());
        let traced = sim.run_traced(make().as_mut(), &mut NullSink);
        assert_eq!(plain, traced, "{name}: metrics diverged");
        assert_eq!(
            plain.keepalive_cost_usd.to_bits(),
            traced.keepalive_cost_usd.to_bits(),
            "{name}: cost not bitwise equal"
        );
        let pm: Vec<u64> = plain.memory_series_mb.iter().map(|m| m.to_bits()).collect();
        let tm: Vec<u64> = traced
            .memory_series_mb
            .iter()
            .map(|m| m.to_bits())
            .collect();
        assert_eq!(pm, tm, "{name}: memory series diverged");
    }
}

#[test]
fn null_sink_runtime_run_is_bit_identical_for_every_policy() {
    use pulse::runtime::{ClusterConfig, FaultPlan, Runtime, RuntimeConfig};
    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 200);
    let fams = zoo12();
    let rt = Runtime::new(
        trace.clone(),
        fams.clone(),
        RuntimeConfig {
            stochastic_seed: Some(seed),
            ..RuntimeConfig::default()
        },
    );
    for (name, make) in &policy_factories(&fams, &trace) {
        let plain = rt.run(make().as_mut());
        let traced = rt
            .session(
                make().as_mut(),
                &FaultPlan::none(),
                ClusterConfig::unlimited(),
            )
            .traced(&mut NullSink)
            .finish();
        assert_summaries_bit_identical(name, &plain, &traced);
    }
}

#[test]
fn null_sink_faulted_run_is_bit_identical_for_every_policy() {
    use pulse::runtime::{ClusterConfig, FaultPlan, Runtime, RuntimeConfig};
    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 200);
    let fams = zoo12();
    let rt = Runtime::new(
        trace.clone(),
        fams.clone(),
        RuntimeConfig {
            stochastic_seed: Some(seed),
            ..RuntimeConfig::default()
        },
    );
    // Faults, retries, degradations and timeouts all firing: the sink hook
    // sits on every one of those paths and must not perturb them.
    let plan = FaultPlan::uniform(0.2, 0.1, 0.05, seed).with_timeout_ms(120_000);
    for (name, make) in &policy_factories(&fams, &trace) {
        let cluster = ClusterConfig::unlimited();
        let plain = rt.session(make().as_mut(), &plan, cluster).finish();
        let traced = rt
            .session(make().as_mut(), &plan, cluster)
            .traced(&mut NullSink)
            .finish();
        assert_summaries_bit_identical(name, &plain, &traced);
    }
}

#[test]
fn null_sink_cluster_run_is_bit_identical_for_every_policy() {
    use pulse::runtime::{
        AdmissionControl, ClusterConfig, FaultPlan, NodeCapacity, Runtime, RuntimeConfig,
    };
    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 200);
    let fams = zoo12();
    let rt = Runtime::new(
        trace.clone(),
        fams.clone(),
        RuntimeConfig {
            stochastic_seed: Some(seed),
            ..RuntimeConfig::default()
        },
    );
    // A binding cluster: capacity pressure (evictions + pressure
    // downgrades), bounded admission (sheds) and faults at once.
    let all_high: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
    let cluster = ClusterConfig {
        capacity: NodeCapacity::mb(all_high * 0.3),
        admission: AdmissionControl::bounded(16),
    };
    let plan = FaultPlan::uniform(0.1, 0.05, 0.02, seed);
    for (name, make) in &policy_factories(&fams, &trace) {
        let plain = rt.session(make().as_mut(), &plan, cluster).finish();
        let traced = rt
            .session(make().as_mut(), &plan, cluster)
            .traced(&mut NullSink)
            .finish();
        assert_summaries_bit_identical(name, &plain, &traced);
    }
}

// ---------------------------------------------------------------------------
// Fleet-level fault tolerance (the `pulse::runtime::fleet` layer).
//
// CI's fleet job re-runs these under several seeds via PULSE_CHAOS_SEED.
// ---------------------------------------------------------------------------

/// The smallest cold-start duration any zoo variant can draw (deterministic
/// sampling); migrations must beat this to be worth anything.
fn min_cold_ms(fams: &[ModelFamily]) -> u64 {
    fams.iter()
        .flat_map(|f| (0..=f.highest_id()).map(|v| (f.variant(v).cold_start_s * 1000.0) as u64))
        .min()
        .unwrap_or(0)
}

#[test]
fn single_node_fleet_is_bitwise_identical_to_cluster_for_every_policy() {
    use pulse::runtime::{
        AdmissionControl, ClusterConfig, FaultPlan, FleetConfig, NodeCapacity, Runtime,
        RuntimeConfig,
    };
    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 200);
    let fams = zoo12();
    let rt = Runtime::new(
        trace.clone(),
        fams.clone(),
        RuntimeConfig {
            stochastic_seed: Some(seed),
            ..RuntimeConfig::default()
        },
    );
    // A binding cluster (pressure + sheds) plus request-level faults: an
    // independently built fleet of one nominal node with no node faults
    // must reproduce the cluster run exactly.
    let all_high: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
    let cluster = ClusterConfig {
        capacity: NodeCapacity::mb(all_high * 0.3),
        admission: AdmissionControl::bounded(16),
    };
    let plan = FaultPlan::uniform(0.1, 0.05, 0.02, seed);
    for (name, make) in &policy_factories(&fams, &trace) {
        let one_node = FleetConfig::uniform(1, cluster.capacity).with_admission(cluster.admission);
        let via_cluster = rt.session(make().as_mut(), &plan, cluster).finish();
        let via_fleet = rt.session(make().as_mut(), &plan, one_node).finish();
        assert_summaries_bit_identical(name, &via_cluster, &via_fleet);
        // The single node absorbs the whole fleet accounting.
        assert_eq!(via_fleet.node_summaries.len(), 1, "{name}");
        let n0 = &via_fleet.node_summaries[0];
        assert_eq!(
            n0.keepalive_cost_usd.to_bits(),
            via_fleet.keepalive_cost_usd.to_bits(),
            "{name}: node cost must equal total cost"
        );
        let node_mem: Vec<u64> = n0.memory_at_tick_mb.iter().map(|m| m.to_bits()).collect();
        let total_mem: Vec<u64> = via_fleet
            .memory_at_tick_mb
            .iter()
            .map(|m| m.to_bits())
            .collect();
        assert_eq!(node_mem, total_mem, "{name}: node series must equal total");
        assert_eq!(n0.minutes_down, 0, "{name}");
        assert_eq!(via_fleet.migrations, 0, "{name}");
        assert_eq!(via_fleet.node_crashes, 0, "{name}");
        assert_eq!(via_fleet.redispatched_requests, 0, "{name}");
        assert_eq!(via_fleet.placement_failures, 0, "{name}");
    }
}

#[test]
fn idle_unlimited_extra_nodes_are_bitwise_transparent() {
    use pulse::runtime::{FaultPlan, FleetConfig, NodeCapacity, Runtime, RuntimeConfig};
    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 150);
    let fams = zoo12();
    let rt = Runtime::new(
        trace.clone(),
        fams.clone(),
        RuntimeConfig {
            stochastic_seed: Some(seed),
            ..RuntimeConfig::default()
        },
    );
    // With every node unlimited and nominal, the placer always resolves to
    // node 0 (strictly-better-or-first-wins) — so extra empty nodes must
    // not move a single bit of the accounting.
    let fleet = FleetConfig::uniform(3, NodeCapacity::unlimited());
    for (name, make) in &policy_factories(&fams, &trace) {
        let single = rt.run(make().as_mut());
        let spread = rt
            .session(make().as_mut(), &FaultPlan::none(), fleet.clone())
            .finish();
        assert_eq!(single.records, spread.records, "{name}: records diverged");
        assert_eq!(
            single.keepalive_cost_usd.to_bits(),
            spread.keepalive_cost_usd.to_bits(),
            "{name}: cost not bitwise equal"
        );
        assert_eq!(spread.node_summaries.len(), 3, "{name}");
        for idle in &spread.node_summaries[1..] {
            assert_eq!(idle.keepalive_cost_usd, 0.0, "{name}: idle node billed");
            assert!(
                idle.memory_at_tick_mb.iter().all(|&m| m == 0.0),
                "{name}: idle node held memory"
            );
        }
    }
}

#[test]
fn rolling_node_failures_keep_every_policy_available() {
    use pulse::runtime::{
        FaultPlan, FleetConfig, NodeCapacity, NodeFaultPlan, Runtime, RuntimeConfig,
    };
    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 240);
    let fams = zoo12();
    let rt = Runtime::new(
        trace.clone(),
        fams.clone(),
        RuntimeConfig {
            stochastic_seed: Some(seed),
            ..RuntimeConfig::default()
        },
    );
    // Three capped nodes, one crashing at a time on a rolling schedule: the
    // survivors absorb the displaced functions (pushing them near their
    // caps), and the healed node takes migrations back.
    let all_high: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
    let fleet = FleetConfig::uniform(3, NodeCapacity::mb(all_high * 0.45))
        .with_node_faults(NodeFaultPlan::rolling_crashes(3, 10, 6, 30, 240));
    let cheap_bar = min_cold_ms(&fams);
    let mut total_migrations = 0u64;
    for (name, make) in &policy_factories(&fams, &trace) {
        let s = rt
            .session(make().as_mut(), &FaultPlan::none(), fleet.clone())
            .finish();
        assert_eq!(s.requests(), trace.total_invocations(), "{name}");
        assert!(
            s.availability() >= 0.99,
            "{name}: availability {} under rolling crashes",
            s.availability()
        );
        assert!(s.node_crashes > 0, "{name}: plan must actually fire");
        assert!(s.node_recoveries > 0, "{name}");
        let down: u64 = s.node_summaries.iter().map(|n| n.minutes_down).sum();
        assert!(down > 0, "{name}: downtime must be accounted");
        // Migration bookkeeping balances, and the total pause charged is
        // strictly cheaper than cold-starting the same containers.
        let inflow: u64 = s.node_summaries.iter().map(|n| n.migrations_in).sum();
        let outflow: u64 = s.node_summaries.iter().map(|n| n.migrations_out).sum();
        assert_eq!(inflow, s.migrations, "{name}");
        assert_eq!(outflow, s.migrations, "{name}");
        assert!(
            s.migration_pause_ms < (s.migrations + 1) * cheap_bar,
            "{name}: migrations must be cheaper than cold starts"
        );
        total_migrations += s.migrations;
    }
    assert!(
        total_migrations > 0,
        "rolling crashes over capped nodes must trigger migrations"
    );
}

#[test]
fn correlated_outage_fails_over_or_fails_loud() {
    use pulse::runtime::{
        FaultPlan, FleetConfig, NodeCapacity, NodeFaultPlan, Runtime, RuntimeConfig,
    };
    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 120);
    let fams = zoo12();
    let rt = Runtime::new(
        trace.clone(),
        fams.clone(),
        RuntimeConfig {
            stochastic_seed: Some(seed),
            ..RuntimeConfig::default()
        },
    );
    // Two of three nodes partition simultaneously (an AZ outage): the
    // survivor carries everything; with the whole fleet partitioned the
    // failure must be loud (placement failures), never a hang.
    let fleet = FleetConfig::uniform(3, NodeCapacity::unlimited())
        .with_node_faults(NodeFaultPlan::correlated_outage(&[0, 1], 30, 20));
    let s = rt
        .session(
            &mut PulsePolicy::new(fams.clone(), PulseConfig::default()),
            &FaultPlan::none(),
            fleet,
        )
        .finish();
    assert_eq!(s.requests(), trace.total_invocations());
    assert_eq!(s.node_partitions, 2);
    assert!(
        s.availability() >= 0.99,
        "one node survived: {availability}",
        availability = s.availability()
    );
    // Every request reached a terminal state (no lost work).
    for r in &s.records {
        assert!(r.done_ms >= r.arrival_ms);
    }

    let all_down = FleetConfig::uniform(2, NodeCapacity::unlimited())
        .with_node_faults(NodeFaultPlan::correlated_outage(&[0, 1], 30, 20));
    let dark = rt
        .session(
            &mut PulsePolicy::new(fams.clone(), PulseConfig::default()),
            &FaultPlan::none(),
            all_down,
        )
        .finish();
    assert!(
        dark.placement_failures > 0,
        "a fully dark fleet must fail placements loudly"
    );
    assert!(dark.failed_requests() > 0);
    for r in &dark.records {
        assert!(r.done_ms >= r.arrival_ms, "no request may be left hanging");
    }
}

#[test]
fn stragglers_slow_requests_but_fail_nothing() {
    use pulse::runtime::{
        FaultPlan, FleetConfig, NodeCapacity, NodeFaultPlan, Runtime, RuntimeConfig,
    };
    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 120);
    let fams = zoo12();
    let rt = Runtime::new(trace.clone(), fams.clone(), RuntimeConfig::default());
    let slow = FleetConfig::uniform(1, NodeCapacity::unlimited())
        .with_node_faults(NodeFaultPlan::stragglers(1, 5, 110, 1000, 4.0, 120));
    let s = rt
        .session(&mut OpenWhiskFixed::new(&fams), &FaultPlan::none(), slow)
        .finish();
    let clean = rt.run(&mut OpenWhiskFixed::new(&fams));
    assert_eq!(s.node_stragglers, 1);
    assert_eq!(s.failed_requests(), 0, "slow is not broken");
    assert_eq!(s.requests(), clean.requests());
    assert!(
        s.latency_p99_ms() > clean.latency_p99_ms(),
        "a 4x straggler must show up in the tail: {} vs {}",
        s.latency_p99_ms(),
        clean.latency_p99_ms()
    );
    // Billing is schedule-driven: stragglers never change cost.
    assert_eq!(
        s.keepalive_cost_usd.to_bits(),
        clean.keepalive_cost_usd.to_bits()
    );
}

#[test]
fn null_sink_fleet_run_is_bit_identical_for_every_policy() {
    use pulse::runtime::{
        FaultPlan, FleetConfig, NodeCapacity, NodeFaultPlan, Runtime, RuntimeConfig,
    };
    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 200);
    let fams = zoo12();
    let rt = Runtime::new(
        trace.clone(),
        fams.clone(),
        RuntimeConfig {
            stochastic_seed: Some(seed),
            ..RuntimeConfig::default()
        },
    );
    // Node faults, migrations and request-level faults all firing: the sink
    // hook sits on every new fleet path and must not perturb any of them.
    let all_high: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
    let fleet = FleetConfig::uniform(3, NodeCapacity::mb(all_high * 0.45))
        .with_node_faults(NodeFaultPlan::rolling_crashes(3, 10, 6, 30, 200));
    let plan = FaultPlan::uniform(0.05, 0.02, 0.02, seed);
    for (name, make) in &policy_factories(&fams, &trace) {
        let plain = rt.session(make().as_mut(), &plan, fleet.clone()).finish();
        let traced = rt
            .session(make().as_mut(), &plan, fleet.clone())
            .traced(&mut NullSink)
            .finish();
        assert_summaries_bit_identical(name, &plain, &traced);
    }
}

/// Three nominal nodes of 8, 4 and 4 GB under `node_faults`.
fn unequal_fleet(node_faults: pulse::runtime::NodeFaultPlan) -> pulse::runtime::FleetConfig {
    use pulse::runtime::{FleetConfig, NodeCapacity};
    let mut fleet = FleetConfig::uniform(3, NodeCapacity::gb(4.0)).with_node_faults(node_faults);
    fleet.nodes[0].capacity = NodeCapacity::gb(8.0);
    fleet
}

#[test]
fn fleet_scenarios_replay_identically_under_the_chaos_seed() {
    use pulse::runtime::{FaultPlan, NodeFaultPlan, Runtime, RuntimeConfig};
    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 150);
    let fams = zoo12();
    let rt = Runtime::new(
        trace,
        fams.clone(),
        RuntimeConfig {
            stochastic_seed: Some(seed),
            ..RuntimeConfig::default()
        },
    );
    let fleet = unequal_fleet(NodeFaultPlan::rolling_crashes(3, 15, 5, 40, 150));
    let plan = FaultPlan::uniform(0.1, 0.05, 0.05, seed);
    let run = || {
        let mut policy = PulsePolicy::new(fams.clone(), PulseConfig::default());
        rt.session(&mut policy, &plan, fleet.clone()).finish()
    };
    let (a, b) = (run(), run());
    assert_summaries_bit_identical("pulse/fleet-replay", &a, &b);
    assert_eq!(a.records, b.records);
}

#[test]
fn one_minute_horizon_works() {
    let trace = Trace::new(vec![FunctionTrace::new("f", vec![3])]);
    let fams = vec![pulse::models::zoo::gpt()];
    let sim = Simulator::new(trace, fams.clone());
    let m = sim.run(&mut PulsePolicy::new(fams, PulseConfig::default()));
    assert_eq!(m.invocations(), 3);
    assert_eq!(m.cold_starts, 1);
    assert_eq!(m.memory_series_mb.len(), 1);
}

#[test]
fn extreme_config_values_do_not_break_pulse() {
    let trace = pulse::trace::synth::azure_like_12_with_horizon(9, 400);
    let fams = zoo12();
    let sim = Simulator::new(trace.clone(), fams.clone());
    for cfg in [
        PulseConfig {
            km_threshold: 0.0, // every increase is a peak
            ..Default::default()
        },
        PulseConfig {
            km_threshold: 1e9, // nothing is ever a peak
            ..Default::default()
        },
        PulseConfig {
            keepalive_minutes: 1,
            ..Default::default()
        },
        PulseConfig {
            local_window: 1,
            ..Default::default()
        },
    ] {
        let m = sim.run(&mut PulsePolicy::new(fams.clone(), cfg));
        assert_eq!(m.invocations(), trace.total_invocations(), "{cfg:?}");
        assert!(m.keepalive_cost_usd >= 0.0);
    }
}

/// FNV-1a over the bit patterns of every node's billed series, in node order.
fn node_series_digest(s: &pulse::runtime::RuntimeSummary) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for node in &s.node_summaries {
        for mb in &node.memory_at_tick_mb {
            for byte in mb.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn capped_fleet_stages_produce_pinned_outputs() {
    use pulse::runtime::{
        FaultPlan, FleetConfig, NodeCapacity, NodeFaultPlan, Runtime, RuntimeConfig,
    };
    // Exact outputs of capped multi-node runs, where the rebalancer and the
    // capacity enforcer both read the minute footprint every tick. Under
    // PULSE the uniform fleet stays below its caps (it pins the crash path
    // and billing); the unequal one migrates and downgrades.
    let trace = pulse::trace::synth::azure_like_12_with_horizon(7, 240);
    let fams = zoo12();
    let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
    let all_high: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
    let uniform = FleetConfig::uniform(3, NodeCapacity::mb(all_high * 0.45))
        .with_node_faults(NodeFaultPlan::rolling_crashes(3, 10, 6, 30, 240));
    let unequal = unequal_fleet(NodeFaultPlan::rolling_crashes(3, 15, 5, 40, 240));
    // (name, fleet, cost bits, pressure downgrades, evictions, migrations,
    //  node-loss evictions, digest of every node's billed series)
    let pins = [
        (
            "uniform",
            uniform,
            0x4001_5cec_b1b6_37a6_u64,
            0,
            0,
            0,
            0,
            0x71e7_f54a_39ab_959a_u64,
        ),
        (
            "unequal",
            unequal,
            0x4001_29ee_cbfb_15b6,
            16,
            14,
            15,
            0,
            0xfd7d_cb84_b9a5_3507,
        ),
    ];
    let (mut pressure_downgrades, mut migrations) = (0, 0);
    for (name, fleet, cost_bits, downgrades, evictions, migrated, node_loss, digest) in pins {
        let mut policy = PulsePolicy::new(fams.clone(), PulseConfig::default());
        let s = rt.session(&mut policy, &FaultPlan::none(), fleet).finish();
        assert_eq!(s.keepalive_cost_usd.to_bits(), cost_bits, "{name}: cost");
        assert_eq!(
            s.pressure_downgrades, downgrades,
            "{name}: pressure downgrades"
        );
        assert_eq!(s.evictions, evictions, "{name}: evictions");
        assert_eq!(s.migrations, migrated, "{name}: migrations");
        assert_eq!(
            s.node_loss_evictions, node_loss,
            "{name}: node-loss evictions"
        );
        assert_eq!(node_series_digest(&s), digest, "{name}: per-node series");
        pressure_downgrades += s.pressure_downgrades;
        migrations += s.migrations;
    }
    // Both fleet stages must stay exercised, or the pins above prove nothing.
    assert!(pressure_downgrades > 0, "capacity enforcement never acted");
    assert!(migrations > 0, "the rebalancer never migrated");
}
