//! **E6 / Figure 5**, **E7 / Figure 6a**, **E8 / Figure 6b** — the headline
//! comparison against OpenWhisk's fixed 10-minute policy.
//!
//! * Figure 5: the accuracy-vs-cost plane. Lowest-quality-only and
//!   highest-quality-only span the corners; PULSE lands near the
//!   lowest-quality *cost* at near the highest-quality *accuracy*.
//! * Figure 6a: percentage improvement of PULSE over OpenWhisk. The paper
//!   reports keep-alive cost −39.5 %, service time −8.8 %, accuracy −0.6 %.
//! * Figure 6b: per-minute keep-alive-cost deviation from the ideal oracle
//!   (alive only at invocation minutes), aggregated over 10-minute windows
//!   because the per-minute ideal is frequently zero.

use crate::common::{improvement_higher_better, improvement_lower_better, ExpConfig};
use crate::report::{ascii_series, fmt, pct, Table};
use pulse_core::types::PulseConfig;
use pulse_sim::assignment::round_robin_assignment;
use pulse_sim::policies::{FixedVariant, IdealOracle, OpenWhiskFixed, PulsePolicy};
use pulse_sim::runner::PolicyFactory;
use pulse_sim::Simulator;

/// Aggregated (multi-run) results of the four policies of Figures 5/6a.
pub struct HeadlineResults {
    /// Mean cost/accuracy/service per policy: (name, cost USD, accuracy %,
    /// service time s).
    pub rows: Vec<(String, f64, f64, f64)>,
}

/// Run the multi-run campaign for lowest / highest / PULSE / OpenWhisk.
pub fn evaluate(cfg: &ExpConfig) -> HeadlineResults {
    let trace = cfg.trace();
    let factories: Vec<(&str, Box<PolicyFactory<'_>>)> = vec![
        (
            "lowest-quality",
            Box::new(|fams: &[pulse_models::ModelFamily], _| {
                Box::new(FixedVariant::all_low(fams)) as Box<dyn pulse_sim::KeepAlivePolicy>
            }),
        ),
        (
            "highest-quality",
            Box::new(|fams: &[pulse_models::ModelFamily], _| {
                Box::new(FixedVariant::all_high(fams)) as Box<dyn pulse_sim::KeepAlivePolicy>
            }),
        ),
        (
            "openwhisk",
            Box::new(|fams: &[pulse_models::ModelFamily], _| {
                Box::new(OpenWhiskFixed::new(fams)) as Box<dyn pulse_sim::KeepAlivePolicy>
            }),
        ),
        (
            "pulse",
            Box::new(|fams: &[pulse_models::ModelFamily], _| {
                Box::new(PulsePolicy::new(fams.to_vec(), PulseConfig::default()))
                    as Box<dyn pulse_sim::KeepAlivePolicy>
            }),
        ),
    ];
    let rows = factories
        .into_iter()
        .map(|(name, factory)| {
            let agg = cfg.campaign(&trace, name, factory.as_ref());
            (
                name.to_string(),
                agg.keepalive_cost_usd.mean(),
                agg.accuracy_pct.mean(),
                agg.service_time_s.mean(),
            )
        })
        .collect();
    HeadlineResults { rows }
}

/// Render Figure 5: accuracy vs keep-alive cost.
pub fn run_fig5(cfg: &ExpConfig) -> String {
    let r = evaluate(cfg);
    let mut table = Table::new(
        "Figure 5: accuracy vs keep-alive cost trade-off",
        &["Policy", "Keep-alive Cost ($)", "Accuracy (%)"],
    );
    for (name, cost, acc, _) in &r.rows {
        if name != "openwhisk" {
            table.row(vec![name.clone(), fmt(*cost, 3), fmt(*acc, 2)]);
        }
    }
    table.render()
}

/// Render Figure 6a: % improvement of PULSE over OpenWhisk.
// evaluate() always returns an openwhisk and a pulse row.
#[allow(clippy::expect_used)]
pub fn run_fig6a(cfg: &ExpConfig) -> String {
    let r = evaluate(cfg);
    let find = |n: &str| r.rows.iter().find(|(name, ..)| name == n).expect("present");
    let (_, ow_cost, ow_acc, ow_svc) = find("openwhisk");
    let (_, pu_cost, pu_acc, pu_svc) = find("pulse");
    let mut table = Table::new(
        "Figure 6a: PULSE improvement over OpenWhisk fixed 10-minute policy",
        &["Metric", "Improvement", "Paper reports"],
    );
    table.row(vec![
        "Keep-alive cost".into(),
        pct(improvement_lower_better(*pu_cost, *ow_cost)),
        "+39.5%".into(),
    ]);
    table.row(vec![
        "Service time".into(),
        pct(improvement_lower_better(*pu_svc, *ow_svc)),
        "+8.8%".into(),
    ]);
    table.row(vec![
        "Accuracy".into(),
        pct(improvement_higher_better(*pu_acc, *ow_acc)),
        "-0.6%".into(),
    ]);
    table.render()
}

/// Figure 6b: windowed keep-alive-cost error of a policy vs the ideal
/// oracle, percent, over `window`-minute blocks.
pub fn cost_error_series(policy_cost: &[f64], ideal_cost: &[f64], window: usize) -> Vec<f64> {
    assert_eq!(policy_cost.len(), ideal_cost.len());
    policy_cost
        .chunks(window)
        .zip(ideal_cost.chunks(window))
        .filter_map(|(p, i)| {
            let ps: f64 = p.iter().sum();
            let is: f64 = i.iter().sum();
            if is > 0.0 {
                Some((ps - is) / is * 100.0)
            } else {
                None
            }
        })
        .collect()
}

/// Render Figure 6b.
pub fn run_fig6b(cfg: &ExpConfig) -> String {
    let trace = cfg.trace();
    let fams = round_robin_assignment(&cfg.zoo(), trace.n_functions());
    let sim = Simulator::new(trace.clone(), fams.clone());
    let ow = sim.run(&mut OpenWhiskFixed::new(&fams));
    let pu = sim.run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default()));
    let ideal = sim.run(&mut IdealOracle::new(&fams, trace));
    let ow_err = cost_error_series(&ow.cost_series_usd, &ideal.cost_series_usd, 10);
    let pu_err = cost_error_series(&pu.cost_series_usd, &ideal.cost_series_usd, 10);
    let mean = pulse_models::stats::mean;
    let mut out = String::from(
        "== Figure 6b: keep-alive cost deviation from the ideal oracle (10-min windows) ==\n",
    );
    out.push_str(&format!(
        "OpenWhisk mean error: {}%   PULSE mean error: {}%\n",
        fmt(mean(&ow_err), 1),
        fmt(mean(&pu_err), 1)
    ));
    out.push_str(&ascii_series("OpenWhisk error (%)", &ow_err, 20));
    out.push_str(&ascii_series("PULSE error (%)", &pu_err, 20));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            seed: 42,
            horizon: 1500,
            n_runs: 6,
            trace_out: None,
            serve: Default::default(),
        }
    }

    #[test]
    fn fig5_corners_hold() {
        let r = evaluate(&tiny());
        let get = |n: &str| r.rows.iter().find(|(name, ..)| name == n).cloned().unwrap();
        let (_, low_cost, low_acc, _) = get("lowest-quality");
        let (_, high_cost, high_acc, _) = get("highest-quality");
        let (_, pulse_cost, pulse_acc, _) = get("pulse");
        assert!(low_cost < high_cost);
        assert!(low_acc < high_acc);
        // PULSE: cost below highest-quality, accuracy above lowest-quality.
        assert!(pulse_cost < high_cost);
        assert!(pulse_acc > low_acc);
    }

    #[test]
    fn fig6a_cost_improvement_positive() {
        let r = evaluate(&tiny());
        let get = |n: &str| r.rows.iter().find(|(name, ..)| name == n).cloned().unwrap();
        let (_, ow_cost, ow_acc, _) = get("openwhisk");
        let (_, pu_cost, pu_acc, _) = get("pulse");
        assert!(
            improvement_lower_better(pu_cost, ow_cost) > 0.0,
            "pulse must cut keep-alive cost"
        );
        // Accuracy within 5 points of OpenWhisk.
        assert!(ow_acc - pu_acc < 5.0);
    }

    #[test]
    fn error_series_skips_zero_ideal_windows() {
        let policy = vec![1.0, 1.0, 0.0, 0.0];
        let ideal = vec![0.5, 0.5, 0.0, 0.0];
        let e = cost_error_series(&policy, &ideal, 2);
        assert_eq!(e, vec![100.0]);
    }

    #[test]
    fn fig6b_pulse_closer_to_ideal() {
        let out = run_fig6b(&tiny());
        assert!(out.contains("OpenWhisk mean error"));
        // Parse both means and check PULSE is closer to ideal (smaller).
        let line = out.lines().nth(1).unwrap();
        let nums: Vec<f64> = line
            .split('%')
            .filter_map(|s| s.rsplit(' ').next())
            .filter_map(|s| s.parse().ok())
            .collect();
        assert_eq!(nums.len(), 2, "{line}");
        assert!(
            nums[1] < nums[0],
            "PULSE {} !< OpenWhisk {}",
            nums[1],
            nums[0]
        );
    }

    #[test]
    fn reports_render() {
        let cfg = tiny();
        assert!(run_fig5(&cfg).contains("Figure 5"));
        assert!(run_fig6a(&cfg).contains("+39.5%"));
    }
}
