//! Individual (function-centric) optimization hot path: probability
//! estimation over growing histories, the single-gap `Ip` query the global
//! layer makes for every alive model each minute, and the per-invocation
//! schedule construction — PULSE's per-invocation overhead.
//!
//! Every case goes through `PulseEngine`'s public API and queries three
//! minutes after the last arrival, inside the keep-alive window where the
//! engine's own queries land.
//!
//! Run with `PULSE_BENCH_JSON=BENCH_individual.json cargo bench --bench individual`
//! to append machine-readable points to the trajectory file.

#![allow(missing_docs)] // criterion_group! generates an undocumented pub fn

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pulse_core::types::{Minute, PulseConfig};
use pulse_core::PulseEngine;
use pulse_models::zoo;

/// A one-function engine with `n` recorded arrivals at gaps cycling through
/// 1..=9 minutes, and the minute of its last arrival.
fn history(n: usize) -> (PulseEngine, Minute) {
    let mut e = PulseEngine::new(vec![zoo::gpt()], PulseConfig::default());
    let mut t = 0u64;
    for i in 0..n {
        t += 1 + (i % 9) as u64;
        e.record_invocation(0, t);
    }
    (e, t)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("interarrival_probabilities");
    for &n in &[100usize, 1000, 10_000] {
        let (e, last) = history(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| e.probabilities(0, last + 3))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("invocation_probability_at");
    for &n in &[1000usize, 10_000] {
        let (e, last) = history(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| e.invocation_probability_at(0, last + 3))
        });
    }
    group.finish();

    // The whole per-invocation plan: the combined estimate of every gap in
    // the window and the variant it selects, built in the plan's buffer.
    c.bench_function("schedule_after_invocation", |b| {
        let (e, last) = history(1000);
        b.iter(|| e.schedule_after_invocation(0, last))
    });

    c.bench_function("record_invocation", |b| {
        b.iter_batched(
            || history(1000).0,
            |mut e| e.record_invocation(0, 10_000_000),
            criterion::BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench
}
criterion_main!(benches);
