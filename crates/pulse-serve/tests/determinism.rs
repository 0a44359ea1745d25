//! The serving determinism suite: bit-identical load generation across
//! seeds, and the pinned serve-vs-replay equivalence — feeding a generated
//! stream through pulse-serve on the simulated clock must match
//! a finished `Runtime::session` over the binned trace bitwise, and an
//! unpaced live run must match a synchronous re-drive of its stream.

use pulse_core::types::PulseConfig;
use pulse_obs::{MemorySink, ObsEvent};
use pulse_runtime::Runtime;
use pulse_serve::engine::{replay, serve_live, LiveOptions, ServeConfig};
use pulse_serve::loadgen::{ArrivalStream, LoadGenConfig, LoadMode};
use pulse_sim::assignment::round_robin_assignment;
use pulse_sim::policies::{OpenWhiskFixed, PulsePolicy};
use pulse_trace::{FunctionTrace, Trace};

const MODES: [LoadMode; 3] = [
    LoadMode::Poisson { rate_per_min: 4.0 },
    LoadMode::Bursty {
        quiet_min: 7,
        burst_len_min: 3,
        burst_rate: 5.0,
    },
    LoadMode::SelfExciting {
        base_rate: 0.6,
        excitation: 0.8,
        decay: 0.5,
    },
];

fn cfg(mode: LoadMode, seed: u64) -> LoadGenConfig {
    LoadGenConfig {
        functions: 12,
        minutes: 90,
        mode,
        seed,
    }
}

#[test]
fn same_seed_means_bit_identical_streams() {
    for mode in MODES {
        let a = ArrivalStream::generate(&cfg(mode, 42));
        let b = ArrivalStream::generate(&cfg(mode, 42));
        assert_eq!(a, b, "{} stream not reproducible", mode.label());
    }
}

#[test]
fn different_seeds_mean_different_streams() {
    for mode in MODES {
        let a = ArrivalStream::generate(&cfg(mode, 42));
        let b = ArrivalStream::generate(&cfg(mode, 43));
        assert_ne!(a, b, "{} stream ignores the seed", mode.label());
    }
}

/// The pinned contract: simulated-clock serving of a generated stream is
/// bitwise-identical to a batch `Runtime::session` on the binned trace —
/// per-request records, keep-alive cost bits, and the billed memory series.
#[test]
fn replay_matches_run_with_cluster_bitwise() {
    for mode in MODES {
        let stream = ArrivalStream::generate(&cfg(mode, 9));
        let families = round_robin_assignment(&pulse_models::zoo::standard(), 12);
        let config = ServeConfig::default().with_max_pending(64);

        let mut serve_policy = PulsePolicy::new(families.clone(), PulseConfig::default());
        let served = replay(&stream, families.clone(), &mut serve_policy, &config, None);

        let rt = Runtime::new(stream.trace().clone(), families.clone(), config.runtime);
        let mut batch_policy = PulsePolicy::new(families.clone(), PulseConfig::default());
        let batch = rt
            .session(&mut batch_policy, &config.plan, config.cluster)
            .finish();

        assert_eq!(served.records, batch.records, "{}", mode.label());
        assert_eq!(
            served.keepalive_cost_usd.to_bits(),
            batch.keepalive_cost_usd.to_bits(),
            "{}",
            mode.label()
        );
        assert_eq!(
            served.memory_at_tick_mb,
            batch.memory_at_tick_mb,
            "{}",
            mode.label()
        );
        assert_eq!(
            served.shed_requests,
            batch.shed_requests,
            "{}",
            mode.label()
        );
    }
}

/// The equivalence holds for the fixed-keep-alive baseline policy too — the
/// contract is engine-level, not an artifact of one policy.
#[test]
fn replay_matches_run_with_cluster_for_fixed_policy() {
    let stream = ArrivalStream::generate(&cfg(MODES[2], 17));
    let families = round_robin_assignment(&pulse_models::zoo::standard(), 12);
    let config = ServeConfig::default();

    let mut serve_policy = OpenWhiskFixed::new(&families);
    let served = replay(&stream, families.clone(), &mut serve_policy, &config, None);

    let rt = Runtime::new(stream.trace().clone(), families.clone(), config.runtime);
    let mut batch_policy = OpenWhiskFixed::new(&families);
    let batch = rt
        .session(&mut batch_policy, &config.plan, config.cluster)
        .finish();

    assert_eq!(served.records, batch.records);
    assert_eq!(
        served.keepalive_cost_usd.to_bits(),
        batch.keepalive_cost_usd.to_bits()
    );
}

/// Traced replays emit the same engine events a traced batch run does — the
/// serve path adds no telemetry of its own on the simulated clock.
#[test]
fn traced_replay_matches_traced_batch_run() {
    let stream = ArrivalStream::generate(&cfg(MODES[0], 23));
    let families = round_robin_assignment(&pulse_models::zoo::standard(), 12);
    let config = ServeConfig::default().with_max_pending(32);

    let mut serve_sink = MemorySink::new();
    let mut serve_policy = PulsePolicy::new(families.clone(), PulseConfig::default());
    let _ = replay(
        &stream,
        families.clone(),
        &mut serve_policy,
        &config,
        Some(&mut serve_sink),
    );

    let mut batch_sink = MemorySink::new();
    let rt = Runtime::new(stream.trace().clone(), families.clone(), config.runtime);
    let mut batch_policy = PulsePolicy::new(families.clone(), PulseConfig::default());
    let _ = rt
        .session(&mut batch_policy, &config.plan, config.cluster)
        .traced(&mut batch_sink)
        .finish();

    assert!(!serve_sink.events().is_empty());
    assert_eq!(serve_sink.events(), batch_sink.events());
    assert!(serve_sink
        .events()
        .iter()
        .all(|e| !e.kind().starts_with("serve_")));
    // The engine's arrival events line up with the stream itself.
    let arrivals: Vec<u64> = serve_sink
        .events()
        .iter()
        .filter_map(|e| match e {
            ObsEvent::Arrival { at_ms, .. } => Some(*at_ms),
            _ => None,
        })
        .collect();
    let shed: usize = serve_sink
        .events()
        .iter()
        .filter(|e| matches!(e, ObsEvent::Shed { .. }))
        .count();
    assert_eq!(arrivals.len() + shed, stream.len());
}

/// Unpaced `serve_live` with a channel that holds the whole stream admits
/// every arrival at the running maximum of the timestamps seen and steps
/// every event due by then. A session driven that way on this thread must
/// give the same records, cost bits and memory series; and the live run
/// records one decision sample per admitted arrival and one tick sample per
/// minute, so stepping the other events untimed loses no sample.
#[test]
fn unpaced_live_matches_a_synchronous_redrive_bitwise() {
    for mode in MODES {
        let stream = ArrivalStream::generate(&cfg(mode, 31));
        let minutes = stream.minutes() as u64;
        let families = round_robin_assignment(&pulse_models::zoo::standard(), 12);
        let config = ServeConfig::default();

        let mut live_policy = PulsePolicy::new(families.clone(), PulseConfig::default());
        let live = serve_live(
            stream.clone(),
            families.clone(),
            &mut live_policy,
            &config,
            &LiveOptions {
                channel_capacity: stream.len() + 1,
                speedup: None,
            },
            "test",
            None,
        );

        let zero = Trace::new(
            stream
                .trace()
                .functions()
                .iter()
                .map(|f| FunctionTrace::new(f.name.clone(), vec![0; f.per_minute.len()]))
                .collect(),
        );
        let rt = Runtime::new(zero, families.clone(), config.runtime);
        let mut redrive_policy = PulsePolicy::new(families.clone(), PulseConfig::default());
        let mut session = rt.session(&mut redrive_policy, &config.plan, config.cluster);
        let mut cursor = 0;
        for a in stream.arrivals() {
            cursor = a.at_ms.max(cursor);
            session.admit_at(cursor, a.func);
            while session.peek_time().is_some_and(|t| t <= cursor) {
                session.step();
            }
        }
        let redriven = session.finish();

        let label = mode.label();
        assert_eq!(live.front_door_dropped, 0, "{label}");
        assert_eq!(live.admitted, stream.len() as u64, "{label}");
        assert_eq!(live.summary.records, redriven.records, "{label}");
        assert_eq!(
            live.summary.keepalive_cost_usd.to_bits(),
            redriven.keepalive_cost_usd.to_bits(),
            "{label}"
        );
        assert_eq!(
            live.summary.memory_at_tick_mb, redriven.memory_at_tick_mb,
            "{label}"
        );
        assert_eq!(live.decision_ns.count(), live.admitted, "{label}");
        assert_eq!(live.tick_ns.count(), minutes, "{label}");
    }
}
