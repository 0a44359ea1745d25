//! Serving-path cost: load generation, simulated-clock replay through the
//! serve front door, and the full live pipeline (bounded channel, producer
//! thread, wall-clock decision timing). Throughput is per *arrival*, so the
//! numbers read directly as sustainable requests per second.
//!
//! Run with
//! `PULSE_BENCH_JSON=BENCH_serve.json cargo bench -p pulse-bench --bench serve`
//! to append machine-readable points to the trajectory file.

#![allow(missing_docs)] // criterion_group! generates an undocumented pub fn

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pulse_core::types::PulseConfig;
use pulse_serve::loadgen::ArrivalStream;
use pulse_serve::{replay, run_demo, DemoConfig, LoadGenConfig, LoadMode, ServeConfig};
use pulse_sim::assignment::round_robin_assignment;
use pulse_sim::policies::PulsePolicy;

const FUNCTIONS: usize = 12;
const MINUTES: usize = 10;

fn stream(rate_per_min: f64) -> ArrivalStream {
    ArrivalStream::generate(&LoadGenConfig {
        functions: FUNCTIONS,
        minutes: MINUTES,
        mode: LoadMode::Poisson { rate_per_min },
        seed: 42,
    })
}

fn bench(c: &mut Criterion) {
    // Load generation alone: counts plus millisecond expansion.
    let probe = stream(2_000.0);
    let mut group = c.benchmark_group("serve_loadgen");
    group.throughput(Throughput::Elements(probe.len() as u64));
    group.bench_function("poisson_2k_per_min", |b| b.iter(|| stream(2_000.0)));
    group.finish();

    // Simulated-clock replay: the per-arrival engine decision cost with no
    // transport in the way — the floor the live path is measured against.
    let fams = round_robin_assignment(&pulse_models::zoo::standard(), FUNCTIONS);
    let config = ServeConfig::default().with_max_pending(4_096);
    let mut group = c.benchmark_group("serve_replay");
    group.throughput(Throughput::Elements(probe.len() as u64));
    group.bench_function("pulse_policy", |b| {
        b.iter(|| {
            let mut policy = PulsePolicy::new(fams.clone(), PulseConfig::default());
            replay(&probe, fams.clone(), &mut policy, &config, None)
        })
    });
    group.finish();

    // The full live pipeline: producer thread, bounded channel, wall-clock
    // histograms. Unthrottled, so this measures pipeline capacity. The
    // demo's channel holds the whole stream and `max_pending` exceeds the
    // ~100k offered arrivals, so every arrival is admitted and decided: a
    // faster consumer finishes sooner instead of doing more work in the
    // same wall time (with a tighter bound most arrivals would be shed, and
    // how many depends on speed).
    let demo = DemoConfig {
        rps: 50_000,
        seconds: 2,
        functions: FUNCTIONS,
        seed: 42,
        max_pending: 1 << 17,
    };
    let check = run_demo(&demo, None);
    assert_eq!(
        (check.front_door_dropped, check.engine_shed),
        (0, 0),
        "serve_live must admit every offered arrival"
    );
    assert!(check.admitted > 0);
    let mut group = c.benchmark_group("serve_live");
    group.throughput(Throughput::Elements(demo.expected_arrivals()));
    group.bench_function("demo_100k_arrivals", |b| b.iter(|| run_demo(&demo, None)));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
