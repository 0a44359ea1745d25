//! **E11 / Figure 9** — PULSE's greedy loop vs the MILP at peaks.
//!
//! (a) Overhead: per-peak decision latency of Algorithm 2 vs an exact
//! branch-and-bound MILP solve on the same instance — the paper shows MILP
//! is orders of magnitude slower relative to service time. (b) Accuracy:
//! MILP's objective favours parking models at their lowest rung (its `Ai`
//! term is largest there), so the end-to-end accuracy it delivers is *lower*
//! than PULSE's despite being the "exact" optimizer.

use crate::common::ExpConfig;
use crate::milp_policy::MilpPolicy;
use crate::report::{fmt, Table};
use pulse_core::global::{flatten_peak, AliveModel};
use pulse_core::priority::PriorityStructure;
use pulse_core::types::PulseConfig;
use pulse_milp::MilpDowngrader;
use pulse_models::ModelFamily;
use pulse_sim::assignment::random_assignment;
use pulse_sim::policies::PulsePolicy;
use pulse_sim::Simulator;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Micro-benchmark: per-peak decision latency of both optimizers over
/// randomized peak instances. Returns (greedy seconds, milp seconds) pairs.
// Fig. 9a reports solver wall time; the timing never steers a decision.
#[allow(clippy::disallowed_methods)]
pub fn overhead_samples(n_instances: usize, seed: u64) -> Vec<(f64, f64)> {
    let zoo = pulse_models::zoo::standard();
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n_instances)
        .map(|_| {
            let fams: Vec<ModelFamily> = random_assignment(&zoo, 12, &mut rng);
            let alive: Vec<AliveModel> = fams
                .iter()
                .enumerate()
                .map(|(func, f)| AliveModel {
                    func,
                    variant: f.highest_id(),
                    invocation_probability: rng.gen_range(0.0..1.0),
                })
                .collect();
            let total: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
            let target = total * rng.gen_range(0.3..0.8);

            let mut a = alive.clone();
            let mut pr = PriorityStructure::new(fams.len());
            let t0 = Instant::now();
            flatten_peak(&mut a, &fams, &mut pr, total, target);
            let greedy = t0.elapsed().as_secs_f64();

            let pr2 = PriorityStructure::new(fams.len());
            let t1 = Instant::now();
            let _ = MilpDowngrader.solve(&alive, &fams, &pr2, target);
            let milp = t1.elapsed().as_secs_f64();
            (greedy, milp)
        })
        .collect()
}

/// End-to-end accuracy of PULSE vs the MILP policy on the same workload.
pub fn accuracy_comparison(cfg: &ExpConfig) -> (f64, f64) {
    let trace = cfg.trace();
    let fams = random_assignment(
        &cfg.zoo(),
        trace.n_functions(),
        &mut SmallRng::seed_from_u64(cfg.seed),
    );
    let sim = Simulator::new(trace, fams.clone());
    let pulse = sim.run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default()));
    let milp = sim.run(&mut MilpPolicy::new(fams, PulseConfig::default()));
    (pulse.avg_accuracy_pct(), milp.avg_accuracy_pct())
}

/// Render Figure 9.
pub fn run(cfg: &ExpConfig) -> String {
    let samples = overhead_samples(cfg.n_runs.clamp(10, 200), cfg.seed);
    let greedy: Vec<f64> = samples.iter().map(|&(g, _)| g).collect();
    let milp: Vec<f64> = samples.iter().map(|&(_, m)| m).collect();
    let ratio: Vec<f64> = samples
        .iter()
        .map(|&(g, m)| if g > 0.0 { m / g } else { f64::INFINITY })
        .filter(|r| r.is_finite())
        .collect();
    use pulse_models::stats::{mean, percentile};
    let mut out = String::from("== Figure 9a: per-peak decision overhead ==\n");
    let mut table = Table::new(
        "Decision latency per peak (seconds)",
        &["Optimizer", "mean", "p50", "p99"],
    );
    table.row(vec![
        "PULSE (greedy)".into(),
        format!("{:.2e}", mean(&greedy)),
        format!("{:.2e}", percentile(&greedy, 50.0)),
        format!("{:.2e}", percentile(&greedy, 99.0)),
    ]);
    table.row(vec![
        "MILP (B&B)".into(),
        format!("{:.2e}", mean(&milp)),
        format!("{:.2e}", percentile(&milp, 50.0)),
        format!("{:.2e}", percentile(&milp, 99.0)),
    ]);
    out.push_str(&table.render());
    out.push_str(&format!(
        "MILP/greedy latency ratio: mean {}x, p50 {}x\n\n",
        fmt(mean(&ratio), 0),
        fmt(percentile(&ratio, 50.0), 0)
    ));
    let (pulse_acc, milp_acc) = accuracy_comparison(cfg);
    out.push_str("== Figure 9b: delivered accuracy ==\n");
    let mut t2 = Table::new(
        "End-to-end accuracy (same workload & assignment)",
        &["Technique", "Accuracy (%)"],
    );
    t2.row(vec!["PULSE".into(), fmt(pulse_acc, 2)]);
    t2.row(vec!["MILP".into(), fmt(milp_acc, 2)]);
    out.push_str(&t2.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn milp_is_slower_than_greedy() {
        let samples = overhead_samples(10, 3);
        let g: f64 = samples.iter().map(|&(g, _)| g).sum();
        let m: f64 = samples.iter().map(|&(_, m)| m).sum();
        assert!(m > g, "milp total {m} !> greedy total {g}");
    }

    #[test]
    fn milp_accuracy_not_higher_than_pulse() {
        let cfg = ExpConfig {
            seed: 42,
            horizon: 1200,
            n_runs: 4,
            trace_out: None,
            serve: Default::default(),
        };
        let (pulse_acc, milp_acc) = accuracy_comparison(&cfg);
        // The paper's Figure 9b: MILP ends up with lower accuracy. Allow a
        // small tolerance on short horizons.
        assert!(
            milp_acc <= pulse_acc + 1.0,
            "milp {milp_acc} > pulse {pulse_acc} + 1"
        );
    }

    #[test]
    fn report_renders() {
        let cfg = ExpConfig {
            seed: 42,
            horizon: 1000,
            n_runs: 4,
            trace_out: None,
            serve: Default::default(),
        };
        let out = run(&cfg);
        assert!(out.contains("Figure 9a"));
        assert!(out.contains("Figure 9b"));
        assert!(out.contains("MILP"));
    }
}
