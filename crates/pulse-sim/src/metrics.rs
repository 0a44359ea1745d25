//! Per-run accounting: the paper's three metrics plus supporting series.
//!
//! * **Service time** — cumulative seconds across all invocations; a warm
//!   start contributes only execution time, a cold start adds the cold-start
//!   latency ("when an invoked function experiences a warm start, it incurs
//!   zero cold-start time").
//! * **Keep-alive cost** — the provider's monetary cost of keeping containers
//!   alive, metered per minute from the keep-alive memory footprint.
//! * **Accuracy** — "the sum of the accuracy delivered by each model during
//!   invocations, divided by the total number of invocations".

use pulse_models::stats;
use serde::{Deserialize, Serialize};

/// Metrics accumulated over one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Policy that produced this run.
    pub policy: String,
    /// Total service time across all invocations, seconds.
    pub service_time_s: f64,
    /// Total keep-alive cost, USD.
    pub keepalive_cost_usd: f64,
    /// Sum of per-invocation delivered accuracy, percent (divide by
    /// `invocations` for the average — see [`Self::avg_accuracy_pct`]).
    pub accuracy_sum_pct: f64,
    /// Number of invocations served warm.
    pub warm_starts: u64,
    /// Number of invocations that experienced a cold start.
    pub cold_starts: u64,
    /// Keep-alive memory at each minute, MB.
    pub memory_series_mb: Vec<f64>,
    /// Keep-alive cost incurred at each minute, USD.
    pub cost_series_usd: Vec<f64>,
    /// Number of downgrade/evict actions taken by cross-function
    /// optimization (0 for policies without one).
    pub downgrades: u64,
}

impl RunMetrics {
    /// Fresh metrics for a run of `minutes` length.
    pub fn new(policy: impl Into<String>, minutes: usize) -> Self {
        Self {
            policy: policy.into(),
            service_time_s: 0.0,
            keepalive_cost_usd: 0.0,
            accuracy_sum_pct: 0.0,
            warm_starts: 0,
            cold_starts: 0,
            memory_series_mb: Vec::with_capacity(minutes),
            cost_series_usd: Vec::with_capacity(minutes),
            downgrades: 0,
        }
    }

    /// Total invocations served.
    pub fn invocations(&self) -> u64 {
        self.warm_starts + self.cold_starts
    }

    /// The paper's accuracy metric: average delivered accuracy, percent.
    /// Zero when no invocation was served.
    pub fn avg_accuracy_pct(&self) -> f64 {
        stats::ratio_or_zero(self.accuracy_sum_pct, self.invocations() as f64)
    }

    /// Fraction of invocations served warm, in `[0, 1]`.
    pub fn warm_fraction(&self) -> f64 {
        stats::ratio_or_zero(self.warm_starts as f64, self.invocations() as f64)
    }

    /// Peak keep-alive memory over the run, MB.
    pub fn peak_memory_mb(&self) -> f64 {
        stats::max(&self.memory_series_mb)
    }

    /// Mean keep-alive memory over the run, MB.
    pub fn avg_memory_mb(&self) -> f64 {
        stats::mean(&self.memory_series_mb)
    }
}

/// Aggregate of many runs (the 1000-run simulation): streaming mean/σ of the
/// scalar metrics.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Policy name.
    pub policy: String,
    /// Service-time accumulator (seconds).
    pub service_time_s: pulse_models::stats::Running,
    /// Cost accumulator (USD).
    pub keepalive_cost_usd: pulse_models::stats::Running,
    /// Average-accuracy accumulator (percent).
    pub accuracy_pct: pulse_models::stats::Running,
    /// Warm-fraction accumulator.
    pub warm_fraction: pulse_models::stats::Running,
    /// Peak-memory accumulator (MB).
    pub peak_memory_mb: pulse_models::stats::Running,
}

impl Aggregate {
    /// Empty aggregate for a policy.
    pub fn new(policy: impl Into<String>) -> Self {
        Self {
            policy: policy.into(),
            ..Default::default()
        }
    }

    /// Fold in one run.
    pub fn push(&mut self, m: &RunMetrics) {
        self.service_time_s.push(m.service_time_s);
        self.keepalive_cost_usd.push(m.keepalive_cost_usd);
        self.accuracy_pct.push(m.avg_accuracy_pct());
        self.warm_fraction.push(m.warm_fraction());
        self.peak_memory_mb.push(m.peak_memory_mb());
    }

    /// Merge a partial aggregate from another worker.
    pub fn merge(&mut self, other: &Aggregate) {
        self.service_time_s.merge(&other.service_time_s);
        self.keepalive_cost_usd.merge(&other.keepalive_cost_usd);
        self.accuracy_pct.merge(&other.accuracy_pct);
        self.warm_fraction.merge(&other.warm_fraction);
        self.peak_memory_mb.merge(&other.peak_memory_mb);
    }

    /// Number of runs folded in.
    pub fn runs(&self) -> u64 {
        self.service_time_s.count()
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;

    fn sample() -> RunMetrics {
        let mut m = RunMetrics::new("test", 4);
        m.service_time_s = 100.0;
        m.keepalive_cost_usd = 0.5;
        m.accuracy_sum_pct = 80.0 * 8.0;
        m.warm_starts = 6;
        m.cold_starts = 2;
        m.memory_series_mb = vec![100.0, 400.0, 200.0, 300.0];
        m.cost_series_usd = vec![0.1, 0.2, 0.1, 0.1];
        m
    }

    #[test]
    fn derived_metrics() {
        let m = sample();
        assert_eq!(m.invocations(), 8);
        assert!((m.avg_accuracy_pct() - 80.0).abs() < 1e-12);
        assert!((m.warm_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(m.peak_memory_mb(), 400.0);
        assert!((m.avg_memory_mb() - 250.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_all_zero() {
        let m = RunMetrics::new("x", 0);
        assert_eq!(m.invocations(), 0);
        assert_eq!(m.avg_accuracy_pct(), 0.0);
        assert_eq!(m.warm_fraction(), 0.0);
        assert_eq!(m.peak_memory_mb(), 0.0);
    }

    #[test]
    fn aggregate_means_match() {
        let mut agg = Aggregate::new("p");
        let m = sample();
        agg.push(&m);
        agg.push(&m);
        assert_eq!(agg.runs(), 2);
        assert!((agg.service_time_s.mean() - 100.0).abs() < 1e-12);
        assert!((agg.accuracy_pct.mean() - 80.0).abs() < 1e-12);
        assert_eq!(agg.service_time_s.std_dev(), 0.0);
    }

    #[test]
    fn aggregate_merge() {
        let m = sample();
        let mut a = Aggregate::new("p");
        a.push(&m);
        let mut b = Aggregate::new("p");
        b.push(&m);
        a.merge(&b);
        assert_eq!(a.runs(), 2);
        assert!((a.keepalive_cost_usd.mean() - 0.5).abs() < 1e-12);
    }
}
