//! End-to-end experiment regeneration cost: one full-day simulated
//! comparison per paper element family — the unit of work behind Figures
//! 5–8 — including the forecaster-integrated policies.

#![allow(missing_docs)] // criterion_group! generates an undocumented pub fn

use criterion::{criterion_group, criterion_main, Criterion};
use pulse_core::types::PulseConfig;
use pulse_forecast::integrate::{IceBreakerPolicy, WildPolicy, WildPulsePolicy};
use pulse_sim::assignment::round_robin_assignment;
use pulse_sim::policies::{IdealOracle, OpenWhiskFixed, PulsePolicy};
use pulse_sim::Simulator;
use pulse_trace::synth;

const DAY: usize = 24 * 60;

fn bench(c: &mut Criterion) {
    let trace = synth::azure_like_12_with_horizon(42, DAY);
    let fams = round_robin_assignment(&pulse_models::zoo::standard(), trace.n_functions());
    let sim = Simulator::new(trace.clone(), fams.clone());

    c.bench_function("fig6a_unit_pulse_vs_openwhisk_day", |b| {
        b.iter(|| {
            let ow = sim.run(&mut OpenWhiskFixed::new(&fams));
            let pu = sim.run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default()));
            (ow.keepalive_cost_usd, pu.keepalive_cost_usd)
        })
    });

    c.bench_function("fig6b_unit_ideal_oracle_day", |b| {
        b.iter(|| sim.run(&mut IdealOracle::new(&fams, trace.clone())))
    });

    c.bench_function("fig8_unit_wild_vs_wild_pulse_day", |b| {
        b.iter(|| {
            let w = sim.run(&mut WildPolicy::new(&fams));
            let wp = sim.run(&mut WildPulsePolicy::new(
                fams.clone(),
                PulseConfig::default(),
            ));
            (w.keepalive_cost_usd, wp.keepalive_cost_usd)
        })
    });

    c.bench_function("fig8_unit_icebreaker_day", |b| {
        b.iter(|| sim.run(&mut IceBreakerPolicy::new(&fams, trace.clone())))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
