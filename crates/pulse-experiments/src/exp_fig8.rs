//! **E10 / Figure 8** — integrating PULSE into Wild and IceBreaker.
//!
//! For each technique, the original (model-variant-oblivious, no memory
//! constraint) is compared with the PULSE-integrated version on the same
//! workload and assignments. The paper reports: Wild+PULSE cuts keep-alive
//! cost by 99 % at a 27.1 % service-time and 0.6 % accuracy penalty;
//! IceBreaker+PULSE cuts cost 14 % *and* service time 7 % at a 0.5 %
//! accuracy penalty.

use crate::common::{improvement_higher_better, improvement_lower_better, ExpConfig};
use crate::report::{pct, Table};
use pulse_core::types::PulseConfig;
use pulse_forecast::integrate::{
    IceBreakerPolicy, IceBreakerPulsePolicy, WildPolicy, WildPulsePolicy,
};
use pulse_sim::runner::PolicyFactory;

/// Mean metrics per technique: (name, cost, accuracy, service time).
pub fn evaluate(cfg: &ExpConfig) -> Vec<(String, f64, f64, f64)> {
    let trace = cfg.trace();
    let trace_for_ib = trace.clone();
    let trace_for_ibp = trace.clone();
    let factories: Vec<(&str, Box<PolicyFactory<'_>>)> = vec![
        (
            "wild",
            Box::new(|fams: &[pulse_models::ModelFamily], _| {
                Box::new(WildPolicy::new(fams)) as Box<dyn pulse_sim::KeepAlivePolicy>
            }),
        ),
        (
            "wild+pulse",
            Box::new(|fams: &[pulse_models::ModelFamily], _| {
                Box::new(WildPulsePolicy::new(fams.to_vec(), PulseConfig::default()))
                    as Box<dyn pulse_sim::KeepAlivePolicy>
            }),
        ),
        (
            "icebreaker",
            Box::new(move |fams: &[pulse_models::ModelFamily], _| {
                Box::new(IceBreakerPolicy::new(fams, trace_for_ib.clone()))
                    as Box<dyn pulse_sim::KeepAlivePolicy>
            }),
        ),
        (
            "icebreaker+pulse",
            Box::new(move |fams: &[pulse_models::ModelFamily], _| {
                Box::new(IceBreakerPulsePolicy::new(
                    fams.to_vec(),
                    trace_for_ibp.clone(),
                    PulseConfig::default(),
                )) as Box<dyn pulse_sim::KeepAlivePolicy>
            }),
        ),
    ];
    factories
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
        .collect()
}

/// Render Figure 8.
// evaluate() always returns a row for every strategy looked up here.
#[allow(clippy::unwrap_used)]
pub fn run(cfg: &ExpConfig) -> String {
    let rows = evaluate(cfg);
    let get = |n: &str| rows.iter().find(|(name, ..)| name == n).cloned().unwrap();
    let mut table = Table::new(
        "Figure 8: % improvement from integrating PULSE into each technique",
        &[
            "Technique",
            "Keep-alive Cost",
            "Service Time",
            "Accuracy",
            "Paper (cost/svc/acc)",
        ],
    );
    for (base, integrated, paper) in [
        ("wild", "wild+pulse", "+99% / -27.1% / -0.6%"),
        ("icebreaker", "icebreaker+pulse", "+14% / +7% / -0.5%"),
    ] {
        let (_, b_cost, b_acc, b_svc) = get(base);
        let (_, i_cost, i_acc, i_svc) = get(integrated);
        table.row(vec![
            base.to_string(),
            pct(improvement_lower_better(i_cost, b_cost)),
            pct(improvement_lower_better(i_svc, b_svc)),
            pct(improvement_higher_better(i_acc, b_acc)),
            paper.to_string(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            seed: 42,
            horizon: 1500,
            n_runs: 4,
            trace_out: None,
            serve: Default::default(),
        }
    }

    #[test]
    fn pulse_integration_cuts_wild_cost_substantially() {
        let rows = evaluate(&tiny());
        let get = |n: &str| rows.iter().find(|(name, ..)| name == n).cloned().unwrap();
        let (_, wild_cost, wild_acc, _) = get("wild");
        let (_, wp_cost, wp_acc, _) = get("wild+pulse");
        let cut = improvement_lower_better(wp_cost, wild_cost);
        assert!(cut > 20.0, "wild+pulse cost cut only {cut:.1}%");
        assert!(wild_acc - wp_acc < 5.0);
    }

    #[test]
    fn icebreaker_integration_cuts_cost() {
        let rows = evaluate(&tiny());
        let get = |n: &str| rows.iter().find(|(name, ..)| name == n).cloned().unwrap();
        let (_, ib_cost, ib_acc, _) = get("icebreaker");
        let (_, ibp_cost, ibp_acc, _) = get("icebreaker+pulse");
        assert!(ibp_cost <= ib_cost, "ib+pulse {ibp_cost} !<= ib {ib_cost}");
        assert!(ib_acc - ibp_acc < 5.0);
    }

    #[test]
    fn report_renders_both_rows() {
        let out = run(&tiny());
        assert!(out.contains("wild"));
        assert!(out.contains("icebreaker"));
        assert!(out.contains("Paper"));
    }
}
