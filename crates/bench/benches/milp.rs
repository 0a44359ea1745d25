//! The MILP substrate in isolation: simplex solves and branch-and-bound on
//! knapsack-style instances of growing size.

#![allow(missing_docs)] // criterion_group! generates an undocumented pub fn

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pulse_milp::{Constraint, LinearProgram, MilpProblem, Relation};

fn knapsack(n: usize) -> MilpProblem {
    // Deterministic profits/weights.
    let profits: Vec<f64> = (0..n).map(|i| ((i * 7) % 13 + 1) as f64).collect();
    let weights: Vec<f64> = (0..n).map(|i| ((i * 5) % 9 + 1) as f64).collect();
    let cap = weights.iter().sum::<f64>() * 0.5;
    let mut constraints = vec![Constraint::new(weights, Relation::Le, cap)];
    for j in 0..n {
        let mut c = vec![0.0; n];
        c[j] = 1.0;
        constraints.push(Constraint::new(c, Relation::Le, 1.0));
    }
    MilpProblem {
        lp: LinearProgram {
            n_vars: n,
            objective: profits,
            constraints,
        },
        integer_vars: (0..n).collect(),
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex_relaxation");
    for &n in &[8usize, 16, 32] {
        let p = knapsack(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| p.lp.solve())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("branch_and_bound");
    for &n in &[8usize, 12, 16] {
        let p = knapsack(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| p.solve())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
