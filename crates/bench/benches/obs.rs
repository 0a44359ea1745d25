//! Observability overhead: the trace-sink hooks sit on both engines' hot
//! paths, so the no-sink and `NullSink` configurations must cost the same
//! (events are built lazily and `NullSink::enabled()` is false — the hook
//! is one branch). `JsonlSink` is benched for scale, not for parity: it
//! pays for serialization by design.
//!
//! Run with `PULSE_BENCH_JSON=BENCH_obs.json cargo bench --bench obs` to
//! append machine-readable points to the trajectory file.

#![allow(missing_docs)] // criterion_group! generates an undocumented pub fn

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pulse_core::types::PulseConfig;
use pulse_models::{zoo, ModelFamily};
use pulse_obs::{JsonlSink, NullSink, ObsEvent, TraceSink};
use pulse_runtime::{ClusterConfig, FaultPlan, Runtime, RuntimeConfig};
use pulse_sim::assignment::round_robin_assignment;
use pulse_sim::policies::PulsePolicy;
use pulse_sim::Simulator;
use pulse_trace::{synth, Trace};

const HORIZON_MIN: usize = 300;

fn setup() -> (Trace, Vec<ModelFamily>) {
    let trace = synth::azure_like_12_with_horizon(7, HORIZON_MIN);
    let fams = round_robin_assignment(&zoo::standard(), trace.n_functions());
    (trace, fams)
}

fn bench(c: &mut Criterion) {
    let (trace, fams) = setup();

    // Simulator: untraced vs NullSink-traced. These two bars are the
    // acceptance gate — NullSink overhead must be in the noise.
    let sim = Simulator::new(trace.clone(), fams.clone());
    c.bench_function("sim_run_untraced", |b| {
        b.iter(|| {
            let mut p = PulsePolicy::new(fams.clone(), PulseConfig::default());
            black_box(sim.run(&mut p))
        })
    });
    c.bench_function("sim_run_null_sink", |b| {
        b.iter(|| {
            let mut p = PulsePolicy::new(fams.clone(), PulseConfig::default());
            black_box(sim.run_traced(&mut p, &mut NullSink))
        })
    });

    // Runtime engine: same pair at millisecond resolution.
    let rt = Runtime::new(trace.clone(), fams.clone(), RuntimeConfig::default());
    c.bench_function("runtime_run_untraced", |b| {
        b.iter(|| {
            let mut p = PulsePolicy::new(fams.clone(), PulseConfig::default());
            black_box(rt.run(&mut p))
        })
    });
    c.bench_function("runtime_run_null_sink", |b| {
        b.iter(|| {
            let mut p = PulsePolicy::new(fams.clone(), PulseConfig::default());
            let session = rt.session(&mut p, &FaultPlan::none(), ClusterConfig::unlimited());
            black_box(session.traced(&mut NullSink).finish())
        })
    });

    // The active-sink cost, for scale: full JSONL serialization into a
    // discarding writer.
    c.bench_function("sim_run_jsonl_sink", |b| {
        b.iter(|| {
            let mut p = PulsePolicy::new(fams.clone(), PulseConfig::default());
            let mut sink = JsonlSink::new(std::io::sink());
            black_box(sim.run_traced(&mut p, &mut sink))
        })
    });

    // Micro: one event's serialization round trip, the unit cost a
    // JsonlSink pays per record.
    c.bench_function("obs_event_to_json", |b| {
        let ev = ObsEvent::Serve {
            minute: 1234,
            func: 7,
            requests: 42,
            cold_starts: 1,
        };
        b.iter(|| black_box(ev.to_json()))
    });

    // Micro: the hook itself against a disabled sink — the branch both
    // engines pay per emission site when tracing is off.
    c.bench_function("obs_emit_null_sink", |b| {
        let mut null = NullSink;
        b.iter(|| {
            let mut sink: Option<&mut dyn TraceSink> = Some(&mut null);
            pulse_obs::emit(black_box(&mut sink), || ObsEvent::Serve {
                minute: 1,
                func: 2,
                requests: 3,
                cold_starts: 0,
            });
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench
}
criterion_main!(benches);
