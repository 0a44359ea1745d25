//! Crash-consistent recovery: kill at any point → restore (replay to the
//! checkpoint's cursor) → resume must be bit-identical to the uninterrupted
//! run, for every policy, on both engines, including the multi-node fleet
//! path under node faults.
//!
//! CI's recovery job re-runs these under several seeds via PULSE_CHAOS_SEED.

#![allow(clippy::float_cmp)] // bit-identity tests compare exact values

use pulse::core::types::PulseConfig;
use pulse::prelude::*;
use pulse::sim::assignment::round_robin_assignment;
use pulse::sim::RecoverError;

fn zoo12() -> Vec<ModelFamily> {
    round_robin_assignment(&pulse::models::zoo::standard(), 12)
}

/// Seed for the recovery scenarios; CI sweeps it, local runs default to 7.
fn chaos_seed() -> u64 {
    std::env::var("PULSE_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

/// Builds a fresh instance of a named policy (same factories as the
/// robustness suite): restore requires a same-constructed policy, whose
/// learned state replay then rebuilds.
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

/// Field-by-field bitwise comparison of two runtime summaries (the same
/// contract the robustness suite pins for sink transparency).
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
fn sim_kill_restore_resume_is_bit_identical_for_every_policy() {
    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 200);
    let fams = zoo12();
    let sim = Simulator::new(trace.clone(), fams.clone());
    for (name, make) in &policy_factories(&fams, &trace) {
        let whole = sim.run(make().as_mut());
        for kill_minute in [1u64, 67, 199] {
            let mut p1 = make();
            let mut sess = sim.session(p1.as_mut());
            while sess.next_minute() < kill_minute && sess.step_minute().is_some() {}
            let snap = sess.snapshot();
            drop(sess);

            let mut p2 = make();
            let resumed = sim
                .restore(p2.as_mut(), &snap)
                .unwrap_or_else(|e| panic!("{name}: restore at {kill_minute}: {e}"))
                .finish();
            assert_eq!(
                whole, resumed,
                "{name}: metrics diverged at kill {kill_minute}"
            );
            assert_eq!(
                whole.keepalive_cost_usd.to_bits(),
                resumed.keepalive_cost_usd.to_bits(),
                "{name}: cost not bitwise equal at kill {kill_minute}"
            );
            let wm: Vec<u64> = whole.memory_series_mb.iter().map(|m| m.to_bits()).collect();
            let rm: Vec<u64> = resumed
                .memory_series_mb
                .iter()
                .map(|m| m.to_bits())
                .collect();
            assert_eq!(
                wm, rm,
                "{name}: memory series diverged at kill {kill_minute}"
            );
        }
    }
}

/// Fig. 8's forecaster policies keep learned state (Wild's histograms,
/// IceBreaker's FFT history, the PULSE engine of the integrated ones) that
/// no checkpoint hook ever exported; replay rebuilds it like any other.
#[test]
fn sim_kill_restore_resume_is_bit_identical_for_forecast_policies() {
    use pulse::forecast::integrate::{
        IceBreakerPolicy, IceBreakerPulsePolicy, WildPolicy, WildPulsePolicy,
    };
    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 200);
    let fams = zoo12();
    let sim = Simulator::new(trace.clone(), fams.clone());
    let factories: Vec<(&str, PolicyFactory)> = vec![
        ("wild", {
            let f = fams.clone();
            Box::new(move || Box::new(WildPolicy::new(&f)))
        }),
        ("wild+pulse", {
            let f = fams.clone();
            Box::new(move || Box::new(WildPulsePolicy::new(f.clone(), PulseConfig::default())))
        }),
        ("icebreaker", {
            let (f, t) = (fams.clone(), trace.clone());
            Box::new(move || Box::new(IceBreakerPolicy::new(&f, t.clone())))
        }),
        ("icebreaker+pulse", {
            let (f, t) = (fams.clone(), trace.clone());
            Box::new(move || {
                Box::new(IceBreakerPulsePolicy::new(
                    f.clone(),
                    t.clone(),
                    PulseConfig::default(),
                ))
            })
        }),
    ];
    for (name, make) in &factories {
        let whole = sim.run(make().as_mut());
        for kill_minute in [1u64, 67, 199] {
            let mut p1 = make();
            let mut sess = sim.session(p1.as_mut());
            while sess.next_minute() < kill_minute && sess.step_minute().is_some() {}
            let snap = sess.snapshot();
            drop(sess);

            let mut p2 = make();
            let resumed = sim
                .restore(p2.as_mut(), &snap)
                .unwrap_or_else(|e| panic!("{name}: restore at {kill_minute}: {e}"))
                .finish();
            assert_eq!(
                whole, resumed,
                "{name}: metrics diverged at kill {kill_minute}"
            );
            assert_eq!(
                whole.keepalive_cost_usd.to_bits(),
                resumed.keepalive_cost_usd.to_bits(),
                "{name}: cost not bitwise equal at kill {kill_minute}"
            );
        }
    }
}

#[test]
fn runtime_kill_restore_resume_is_bit_identical_for_every_policy() {
    use pulse::runtime::{ClusterConfig, FaultPlan, Runtime, RuntimeConfig};
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
    // Request-level faults + stochastic durations: replay must redraw both
    // RNG streams. The cluster-compatible single-node path.
    let plan = FaultPlan::uniform(0.1, 0.05, 0.02, seed).with_timeout_ms(120_000);
    let cluster = ClusterConfig::unlimited();
    for (name, make) in &policy_factories(&fams, &trace) {
        let whole = rt.session(make().as_mut(), &plan, cluster).finish();
        // Kill mid-minute, at an arbitrary event boundary.
        for kill_events in [1usize, 1000] {
            let mut p1 = make();
            let mut sess = rt.session(p1.as_mut(), &plan, cluster);
            for _ in 0..kill_events {
                if sess.step().is_none() {
                    break;
                }
            }
            let snap = sess.snapshot();
            drop(sess);

            let mut p2 = make();
            let resumed = rt
                .restore(p2.as_mut(), &plan, cluster, &snap)
                .unwrap_or_else(|e| panic!("{name}: restore: {e}"));
            assert_summaries_bit_identical(name, &whole, &resumed.finish());
        }
    }
}

#[test]
fn fleet_kill_restore_resume_is_bit_identical_for_every_policy() {
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
    // The full stack at once: capped nodes, rolling node crashes (warm
    // migrations, redispatch), request-level faults. A kill must lose none
    // of it.
    let all_high: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
    let fleet = FleetConfig::uniform(3, NodeCapacity::mb(all_high * 0.45))
        .with_node_faults(NodeFaultPlan::rolling_crashes(3, 10, 6, 30, 200));
    let plan = FaultPlan::uniform(0.05, 0.02, 0.02, seed);
    for (name, make) in &policy_factories(&fams, &trace) {
        let whole = rt.session(make().as_mut(), &plan, fleet.clone()).finish();
        let mut p1 = make();
        let mut sess = rt.session(p1.as_mut(), &plan, fleet.clone());
        for _ in 0..2500 {
            if sess.step().is_none() {
                break;
            }
        }
        let snap = sess.snapshot();
        drop(sess);

        let mut p2 = make();
        let resumed = rt
            .restore(p2.as_mut(), &plan, fleet.clone(), &snap)
            .unwrap_or_else(|e| panic!("{name}: restore: {e}"));
        assert_summaries_bit_identical(name, &whole, &resumed.finish());
    }
}

#[test]
fn watchdog_wrapped_policy_recovers_bit_identically() {
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
    let plan = FaultPlan::uniform(0.2, 0.1, 0.05, seed).with_timeout_ms(120_000);
    let fleet = FleetConfig::uniform(1, NodeCapacity::unlimited());
    // Guardrails tight enough that the faulted run trips before the kill
    // point under every CI seed (the default ones never trip at seed 21),
    // so replay must rebuild a watchdog that has already switched.
    let cfg = WatchdogConfig {
        window: 5,
        max_violation_rate: 0.1,
        enter_after: 2,
        exit_after: 3,
    };
    let make = || {
        Watchdog::new(
            Box::new(pulse::sim::policies::PulsePolicy::new(
                fams.clone(),
                PulseConfig::default(),
            )),
            &fams,
            cfg,
        )
    };
    let switches = |sink: &MemorySink| -> Vec<(u64, bool)> {
        sink.events()
            .iter()
            .filter_map(|e| match *e {
                ObsEvent::Watchdog { minute, fallback } => Some((minute, fallback)),
                _ => None,
            })
            .collect()
    };
    let mut whole_p = make();
    let mut whole_sink = MemorySink::new();
    let whole = rt
        .session(&mut whole_p, &plan, fleet.clone())
        .traced(&mut whole_sink)
        .finish();

    let mut p1 = make();
    let mut head_sink = MemorySink::new();
    let mut sess = rt
        .session(&mut p1, &plan, fleet.clone())
        .traced(&mut head_sink);
    for _ in 0..1500 {
        if sess.step().is_none() {
            break;
        }
    }
    let snap = sess.snapshot();
    drop(sess);
    let head = switches(&head_sink);
    assert!(
        head.iter().any(|&(_, fallback)| fallback),
        "the watchdog must enter fallback before the kill point: {head:?}"
    );

    let mut p2 = make();
    let mut tail_sink = MemorySink::new();
    let resumed = rt
        .restore(&mut p2, &plan, fleet, &snap)
        .expect("watchdog restore")
        .traced(&mut tail_sink)
        .finish();
    assert_summaries_bit_identical("watchdog(pulse)", &whole, &resumed);
    // The resumed run's switches are exactly the uninterrupted run's tail.
    let all = switches(&whole_sink);
    assert_eq!(all[..head.len()], head[..], "switches before the kill");
    assert_eq!(
        all[head.len()..],
        switches(&tail_sink)[..],
        "switches after the restore"
    );
}

#[test]
fn journal_replay_recovers_both_engines_after_torn_write() {
    use pulse::obs::{first_divergence, replay_journal, JournalSink, MemorySink};
    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 120);
    let fams = zoo12();
    let sim = Simulator::new(trace.clone(), fams.clone());

    // Journaled run: checkpoint at minute 40, keep tracing, killed at
    // minute 90 with a torn final line.
    let mut policy = pulse::sim::policies::PulsePolicy::new(fams.clone(), PulseConfig::default());
    let mut journal = JournalSink::new(Vec::new());
    let mut sess = sim.session(&mut policy).traced(&mut journal);
    while sess.next_minute() < 40 && sess.step_minute().is_some() {}
    let snap = sess.snapshot();
    drop(sess);
    journal.checkpoint(&snap);
    // Continue the way a restarted process would: a fresh policy, restored.
    let mut policy = pulse::sim::policies::PulsePolicy::new(fams.clone(), PulseConfig::default());
    let mut sess = sim
        .restore(&mut policy, &snap)
        .expect("continue after checkpoint")
        .traced(&mut journal);
    while sess.next_minute() < 90 && sess.step_minute().is_some() {}
    drop(sess);
    let mut text = String::from_utf8(journal.into_inner()).expect("journal is utf-8");
    text.push_str("{\"type\":\"bill\",\"mi"); // torn final write

    let replay = replay_journal(&text).expect("torn tail must not fail replay");
    assert!(replay.torn_tail);
    let (_, ckpt) = replay.last_checkpoint.as_ref().expect("checkpoint present");

    // Recover: restore the checkpoint, resume, and demand the re-emitted
    // events reproduce the journal tail exactly.
    let mut fresh = pulse::sim::policies::PulsePolicy::new(fams.clone(), PulseConfig::default());
    let mut resume_sink = MemorySink::new();
    let resumed = sim
        .restore(&mut fresh, ckpt)
        .expect("recovery restore")
        .traced(&mut resume_sink)
        .finish();

    let whole = sim.run(&mut pulse::sim::policies::PulsePolicy::new(
        fams.clone(),
        PulseConfig::default(),
    ));
    assert_eq!(whole, resumed, "recovered run diverged from uninterrupted");

    let events = resume_sink.events();
    assert!(
        events.len() >= replay.tail.len(),
        "resumed run emitted too few events"
    );
    assert_eq!(
        first_divergence(&replay.tail, &events[..replay.tail.len()]),
        None,
        "journal tail not reproduced"
    );
}

#[test]
fn snapshot_failures_are_typed_and_soft_on_both_engines() {
    use pulse::runtime::{ClusterConfig, FaultPlan, Runtime, RuntimeConfig};
    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 60);
    let fams = zoo12();

    let sim = Simulator::new(trace.clone(), fams.clone());
    let mut policy = pulse::sim::policies::PulsePolicy::new(fams.clone(), PulseConfig::default());
    let mut sess = sim.session(&mut policy);
    for _ in 0..20 {
        sess.step_minute();
    }
    let snap = sess.snapshot();
    drop(sess);

    // Version skew: a future version, and version 4, which serialized the
    // run state instead of a replay cursor.
    let current = format!("\"version\":{}", pulse::sim::recover::SNAPSHOT_VERSION);
    for found in [77, 4] {
        let skewed = snap.replacen(&current, &format!("\"version\":{found}"), 1);
        let mut p = pulse::sim::policies::PulsePolicy::new(fams.clone(), PulseConfig::default());
        assert!(matches!(
            sim.restore(&mut p, &skewed),
            Err(RecoverError::VersionSkew { found: f, .. }) if f == found
        ));
    }
    // Wrong policy.
    let mut other = pulse::sim::policies::OpenWhiskFixed::new(&fams);
    assert!(matches!(
        sim.restore(&mut other, &snap),
        Err(RecoverError::PolicyMismatch { .. })
    ));
    // Wrong engine, both ways: the engine tag is checked before any
    // fingerprint, so each engine names the other's snapshot as corrupt.
    let rt = Runtime::new(trace.clone(), fams.clone(), RuntimeConfig::default());
    let cluster = ClusterConfig::unlimited();
    let mut p = pulse::sim::policies::PulsePolicy::new(fams.clone(), PulseConfig::default());
    assert_eq!(
        rt.restore(&mut p, &FaultPlan::none(), cluster, &snap).err(),
        Some(RecoverError::corrupt(
            "snapshot is for the \"sim\" engine, not \"rt\""
        ))
    );
    let mut p = pulse::sim::policies::PulsePolicy::new(fams.clone(), PulseConfig::default());
    let mut sess = rt.session(&mut p, &FaultPlan::none(), cluster);
    for _ in 0..500 {
        sess.step();
    }
    let rt_snap = sess.snapshot();
    drop(sess);
    let mut p = pulse::sim::policies::PulsePolicy::new(fams.clone(), PulseConfig::default());
    assert_eq!(
        sim.restore(&mut p, &rt_snap).err(),
        Some(RecoverError::corrupt(
            "snapshot is for the \"rt\" engine, not \"sim\""
        ))
    );
    // Garbage never panics.
    for garbage in [
        "",
        "\n\n",
        "not json",
        "{\"type\":\"snapshot\"}",
        "{\"type\":\"x\"}",
    ] {
        let mut p = pulse::sim::policies::PulsePolicy::new(fams.clone(), PulseConfig::default());
        assert!(sim.restore(&mut p, garbage).is_err(), "{garbage:?}");
        let mut p = pulse::sim::policies::PulsePolicy::new(fams.clone(), PulseConfig::default());
        assert!(
            rt.restore(&mut p, &FaultPlan::none(), cluster, garbage)
                .is_err(),
            "{garbage:?}"
        );
    }
}

/// Assert that two ledgers (one possibly carrying a warm incremental index,
/// one rebuilt by restore's replay) fill every minute footprint
/// bit-identically to the full sweep, and so to each other.
fn assert_ledgers_equivalent(
    fams: &[ModelFamily],
    live: &pulse::core::schedule::ScheduleLedger,
    restored: &pulse::core::schedule::ScheduleLedger,
    horizon: u64,
    what: &str,
) {
    use pulse::core::schedule::MinuteFootprint;
    let mut fa = MinuteFootprint::default();
    let mut fb = MinuteFootprint::default();
    for t in 0..horizon {
        // Compared with the sweep's footprint, not `keep_alive_mb_at`: that
        // is a `Sum` whose empty-minute identity is -0.0, while footprint
        // totals start at +0.0.
        let sweep = live.minute_footprint(fams, t);
        live.fill_minute_footprint(fams, t, &mut fa);
        restored.fill_minute_footprint(fams, t, &mut fb);
        for (fp, side) in [(&fa, "live"), (&fb, "restored")] {
            assert_eq!(
                fp.alive, sweep.alive,
                "{what}: {side} alive set != sweep at minute {t}"
            );
            assert_eq!(
                fp.total_mb.to_bits(),
                sweep.total_mb.to_bits(),
                "{what}: {side} footprint total != sweep at minute {t}"
            );
        }
    }
}

/// Restore rebuilds the ledger deterministically: after a mid-run
/// checkpoint, the restored session's footprint reads are bit-identical to
/// the uninterrupted session's and to the full sweep, on both engines. The
/// simulator meters by sweep; the runtime's ledger carries the incremental
/// index (per-minute alive sets), which replay must rebuild.
#[test]
fn restored_ledger_rebuilds_incremental_cache_deterministically() {
    use pulse::runtime::{ClusterConfig, FaultPlan, Runtime, RuntimeConfig};
    let seed = chaos_seed();
    let trace = pulse::trace::synth::azure_like_12_with_horizon(seed, 120);
    let fams = zoo12();
    let make = || pulse::sim::policies::PulsePolicy::new(fams.clone(), PulseConfig::default());

    // Sim engine: kill at minute 60.
    let sim = Simulator::new(trace.clone(), fams.clone());
    let mut p1 = make();
    let mut sess = sim.session(&mut p1);
    while sess.next_minute() < 60 && sess.step_minute().is_some() {}
    let snap = sess.snapshot();
    let live = sess.ledger().clone();
    drop(sess);
    let mut p2 = make();
    let restored = sim.restore(&mut p2, &snap).expect("sim restore");
    assert_ledgers_equivalent(&fams, &live, &restored.ledger().clone(), 130, "sim");

    // Runtime engine: kill mid-stream after a fixed number of events.
    let rt = Runtime::new(trace.clone(), fams.clone(), RuntimeConfig::default());
    let cluster = ClusterConfig::unlimited();
    let mut p1 = make();
    let mut sess = rt.session(&mut p1, &FaultPlan::none(), cluster);
    for _ in 0..500 {
        if sess.step().is_none() {
            break;
        }
    }
    let snap = sess.snapshot();
    let live = sess.ledger().clone();
    drop(sess);
    let mut p2 = make();
    let restored = rt
        .restore(&mut p2, &FaultPlan::none(), cluster, &snap)
        .expect("runtime restore");
    let restored = restored.ledger().clone();
    assert!(live.is_incremental(), "runtime: live ledger lost its index");
    assert!(
        restored.is_incremental(),
        "runtime: restore dropped the incremental index"
    );
    assert_ledgers_equivalent(&fams, &live, &restored, 130, "runtime");
}
