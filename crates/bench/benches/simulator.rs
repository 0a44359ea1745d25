//! Simulator-engine throughput: one simulated day of the 12-function
//! workload under each keep-alive policy (how many trace-minutes per second
//! the platform model sustains).

#![allow(missing_docs)] // criterion_group! generates an undocumented pub fn

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pulse_core::types::PulseConfig;
use pulse_sim::assignment::round_robin_assignment;
use pulse_sim::policies::{FixedVariant, OpenWhiskFixed, PulsePolicy};
use pulse_sim::Simulator;
use pulse_trace::synth;

const DAY: usize = 24 * 60;

fn bench(c: &mut Criterion) {
    let trace = synth::azure_like_12_with_horizon(42, DAY);
    let fams = round_robin_assignment(&pulse_models::zoo::standard(), trace.n_functions());
    let sim = Simulator::new(trace, fams.clone());

    let mut group = c.benchmark_group("simulate_one_day");
    group.throughput(Throughput::Elements(DAY as u64));
    group.bench_function("openwhisk_fixed", |b| {
        b.iter(|| sim.run(&mut OpenWhiskFixed::new(&fams)))
    });
    group.bench_function("all_low", |b| {
        b.iter(|| sim.run(&mut FixedVariant::all_low(&fams)))
    });
    group.bench_function("pulse_full", |b| {
        b.iter(|| sim.run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default())))
    });
    group.bench_function("pulse_individual_only", |b| {
        b.iter(|| {
            sim.run(&mut PulsePolicy::without_global(
                fams.clone(),
                PulseConfig::default(),
            ))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
