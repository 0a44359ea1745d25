//! Event-driven runtime throughput vs the minute simulator on identical
//! inputs — the cost of millisecond fidelity.

#![allow(missing_docs)] // criterion_group! generates an undocumented pub fn

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pulse_core::types::PulseConfig;
use pulse_runtime::{Runtime, RuntimeConfig};
use pulse_sim::assignment::round_robin_assignment;
use pulse_sim::policies::{OpenWhiskFixed, PulsePolicy};
use pulse_sim::Simulator;
use pulse_trace::synth;

const HORIZON: usize = 6 * 60; // six simulated hours

fn bench(c: &mut Criterion) {
    let trace = synth::azure_like_12_with_horizon(42, HORIZON);
    let fams = round_robin_assignment(&pulse_models::zoo::standard(), trace.n_functions());
    let sim = Simulator::new(trace.clone(), fams.clone());
    let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());

    let mut group = c.benchmark_group("engine_comparison_six_hours");
    group.throughput(Throughput::Elements(HORIZON as u64));
    group.bench_function("minute_sim/openwhisk", |b| {
        b.iter(|| sim.run(&mut OpenWhiskFixed::new(&fams)))
    });
    group.bench_function("ms_runtime/openwhisk", |b| {
        b.iter(|| rt.run(&mut OpenWhiskFixed::new(&fams)))
    });
    group.bench_function("minute_sim/pulse", |b| {
        b.iter(|| sim.run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default())))
    });
    group.bench_function("ms_runtime/pulse", |b| {
        b.iter(|| rt.run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default())))
    });
    group.finish();

    c.bench_function("ms_runtime_capped_concurrency", |b| {
        let trace = synth::azure_like_12_with_horizon(42, HORIZON);
        let rt = Runtime::new(
            trace,
            fams.clone(),
            RuntimeConfig {
                max_concurrency: Some(2),
                ..Default::default()
            },
        );
        b.iter(|| rt.run(&mut OpenWhiskFixed::new(&fams)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
