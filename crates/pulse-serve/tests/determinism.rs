//! The serving determinism suite: bit-identical load generation across
//! seeds, and the pinned serve-vs-replay equivalence — feeding a generated
//! stream through pulse-serve on the simulated clock must match
//! a finished `Runtime::session` over the binned trace bitwise.

use pulse_core::types::PulseConfig;
use pulse_obs::{MemorySink, ObsEvent};
use pulse_runtime::Runtime;
use pulse_serve::engine::{replay, ServeConfig};
use pulse_serve::loadgen::{ArrivalStream, LoadGenConfig, LoadMode};
use pulse_sim::assignment::round_robin_assignment;
use pulse_sim::policies::{OpenWhiskFixed, PulsePolicy};

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
