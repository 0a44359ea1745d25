//! Figure 9a: per-peak decision overhead — PULSE's greedy downgrade loop vs
//! the exact branch-and-bound MILP on identical peak instances, plus the
//! production victim heap vs the scan oracle at fleet scale.
//!
//! Run with `PULSE_BENCH_JSON=BENCH_policy_overhead.json cargo bench --bench
//! policy_overhead` to append machine-readable points to the trajectory
//! file (the vendored criterion records every bench when the variable is
//! set).

#![allow(missing_docs)] // criterion_group! generates an undocumented pub fn

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pulse_core::global::{
    flatten_peak, flatten_peak_scan, flatten_peak_scratch, AliveModel, FlattenScratch,
};
use pulse_core::priority::PriorityStructure;
use pulse_milp::MilpDowngrader;
use pulse_models::{zoo, ModelFamily};

fn peak_instance(n_models: usize) -> (Vec<ModelFamily>, Vec<AliveModel>, f64) {
    let z = zoo::standard();
    let fams: Vec<ModelFamily> = (0..n_models).map(|i| z[i % z.len()].clone()).collect();
    let alive: Vec<AliveModel> = fams
        .iter()
        .enumerate()
        .map(|(func, f)| AliveModel {
            func,
            variant: f.highest_id(),
            invocation_probability: (func as f64 * 0.37) % 1.0,
        })
        .collect();
    let total: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
    (fams, alive, total)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9a_peak_decision");
    for &n in &[4usize, 8, 12, 24] {
        let (fams, alive, total) = peak_instance(n);
        let target = total * 0.5;
        group.bench_with_input(BenchmarkId::new("pulse_greedy", n), &n, |b, _| {
            b.iter(|| {
                let mut a = alive.clone();
                let mut pr = PriorityStructure::new(n);
                flatten_peak(&mut a, &fams, &mut pr, total, target)
            })
        });
        group.bench_with_input(BenchmarkId::new("milp_branch_bound", n), &n, |b, _| {
            let pr = PriorityStructure::new(n);
            b.iter(|| MilpDowngrader.solve(&alive, &fams, &pr, target))
        });
        group.bench_with_input(BenchmarkId::new("milp_dp", n), &n, |b, _| {
            let pr = PriorityStructure::new(n);
            b.iter(|| MilpDowngrader.solve_dp(&alive, &fams, &pr, target))
        });
    }
    group.finish();

    // Victim selection at fleet scale: the re-score-every-model scan oracle
    // vs the production victim heap (both produce bit-identical actions).
    // The scan normalizes the whole priority structure and re-scores every
    // alive model per action; the heap scores the alive set once per bounds
    // epoch on maintained Equation 1 bounds and pays `O(log alive)` per
    // action, with no work sized by the fleet.
    let mut group = c.benchmark_group("flatten_victim_selection");
    for &n in &[12usize, 100, 1000] {
        let (fams, alive, total) = peak_instance(n);
        let target = total * 0.5;
        group.bench_with_input(BenchmarkId::new("scan", n), &n, |b, _| {
            b.iter(|| {
                let mut a = alive.clone();
                let mut pr = PriorityStructure::new(n);
                flatten_peak_scan(&mut a, &fams, &mut pr, total, target)
            })
        });
        group.bench_with_input(BenchmarkId::new("heap", n), &n, |b, _| {
            let mut scratch = FlattenScratch::default();
            b.iter(|| {
                let mut a = alive.clone();
                let mut pr = PriorityStructure::new(n);
                flatten_peak_scratch(&mut scratch, &mut a, &fams, &mut pr, total, target)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
