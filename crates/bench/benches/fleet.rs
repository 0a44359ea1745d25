//! Fleet-runtime throughput: what node-level fault injection, migration,
//! and per-node capacity enforcement cost over the single-node baseline.
//!
//! Run with `PULSE_BENCH_JSON=BENCH_fleet.json cargo bench --bench fleet`
//! to append machine-readable points to the trajectory file.

#![allow(missing_docs)] // criterion_group! generates an undocumented pub fn

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pulse_runtime::{
    ClusterConfig, FaultPlan, FleetConfig, NodeCapacity, NodeFaultPlan, Runtime, RuntimeConfig,
};
use pulse_sim::assignment::round_robin_assignment;
use pulse_sim::policies::OpenWhiskFixed;
use pulse_trace::synth;

const HORIZON: usize = 6 * 60; // six simulated hours

fn bench(c: &mut Criterion) {
    let trace = synth::azure_like_12_with_horizon(42, HORIZON);
    let fams = round_robin_assignment(&pulse_models::zoo::standard(), trace.n_functions());
    let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
    let all_high: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
    let none = FaultPlan::none();

    let mut group = c.benchmark_group("fleet_six_hours");
    group.throughput(Throughput::Elements(HORIZON as u64));
    group.bench_function("single_node_cluster", |b| {
        let cluster = ClusterConfig::unlimited();
        b.iter(|| {
            rt.session(&mut OpenWhiskFixed::new(&fams), &none, cluster)
                .finish()
        })
    });
    group.bench_function("three_nodes_nominal", |b| {
        let fleet = FleetConfig::uniform(3, NodeCapacity::mb(all_high * 0.45));
        b.iter(|| {
            rt.session(&mut OpenWhiskFixed::new(&fams), &none, fleet.clone())
                .finish()
        })
    });
    group.bench_function("three_nodes_rolling_crashes", |b| {
        let fleet = FleetConfig::uniform(3, NodeCapacity::mb(all_high * 0.45))
            .with_node_faults(NodeFaultPlan::rolling_crashes(3, 10, 6, 30, HORIZON as u64));
        b.iter(|| {
            rt.session(&mut OpenWhiskFixed::new(&fams), &none, fleet.clone())
                .finish()
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
