//! The IceBreaker substrate's FFT: radix-2 vs naive DFT, and the spectral
//! forecaster end to end.

#![allow(missing_docs)] // criterion_group! generates an undocumented pub fn

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pulse_forecast::fft::{fft, naive_dft};
use pulse_forecast::FftPredictor;

fn signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|t| {
            (std::f64::consts::TAU * t as f64 / 16.0).sin()
                + 0.3 * (std::f64::consts::TAU * t as f64 / 5.0).cos()
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for &n in &[256usize, 1024, 4096] {
        let s = signal(n);
        group.bench_with_input(BenchmarkId::new("radix2", n), &n, |b, _| b.iter(|| fft(&s)));
    }
    // The O(N²) oracle, small sizes only.
    for &n in &[64usize, 256] {
        let s = signal(n);
        group.bench_with_input(BenchmarkId::new("naive_dft", n), &n, |b, _| {
            b.iter(|| naive_dft(&s))
        });
    }
    group.finish();

    c.bench_function("icebreaker_forecast_240min", |b| {
        let mut p = FftPredictor::new();
        for x in signal(240) {
            p.push(x.abs());
        }
        b.iter(|| p.predict_active(10))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench
}
criterion_main!(benches);
