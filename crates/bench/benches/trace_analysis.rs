//! Trace substrate: synthetic generation (Figures 1–2 inputs), gap
//! analysis, peak finding (Tables II/III inputs), and CSV round trips.

// criterion_group! generates an undocumented pub fn; benches fail fast on
// bad input.
#![allow(missing_docs, clippy::unwrap_used)]

use criterion::{criterion_group, criterion_main, Criterion};
use pulse_trace::interarrival::gap_percentages;
use pulse_trace::peaks::{top_peaks, total_per_minute};
use pulse_trace::{csv, synth};

fn bench(c: &mut Criterion) {
    c.bench_function("generate_azure_like_12_two_weeks", |b| {
        b.iter(|| synth::azure_like_12(42))
    });

    let trace = synth::azure_like_12(42);
    c.bench_function("gap_percentages_fig1", |b| {
        b.iter(|| {
            synth::FIG1_FUNCTIONS
                .iter()
                .map(|&i| gap_percentages(trace.function(i), 10))
                .collect::<Vec<_>>()
        })
    });

    c.bench_function("peak_finding_tables23", |b| {
        b.iter(|| {
            let totals = total_per_minute(&trace);
            top_peaks(&totals, 2, 60)
        })
    });

    let day = synth::azure_like_12_with_horizon(42, 1440);
    c.bench_function("csv_round_trip_one_day", |b| {
        b.iter(|| {
            let s = csv::to_azure_day_csv(&day, 0);
            csv::parse_azure_day(&s).unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
