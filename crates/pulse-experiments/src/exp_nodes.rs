//! **Extension: IceBreaker's heterogeneous-node layer** — the component the
//! paper explicitly elides ("we used only one type of node … eliminating
//! the need for utility function computation in IceBreaker"), evaluated in
//! its own right: over the workload's learned invocation probabilities,
//! compare utility-based node placement against the static all-high-end /
//! all-low-end / never-warm strategies on expected keep-alive spend and
//! expected latency.

use crate::common::ExpConfig;
use crate::report::{fmt, Table};
use pulse_core::types::PulseConfig;
use pulse_core::PulseEngine;
use pulse_forecast::nodes::{cold_latency_s, place, NodeType, PlacementConfig};
use pulse_sim::assignment::round_robin_assignment;

/// Expected outcome of one strategy over the workload: (keep-alive USD,
/// expected latency seconds, windows warmed).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StrategyOutcome {
    /// Total keep-alive spend, USD.
    pub cost_usd: f64,
    /// Expected service latency across windows, seconds.
    pub latency_s: f64,
    /// Number of (function, window) pairs warmed somewhere.
    pub warmed: u64,
}

/// Evaluate the four strategies analytically over every invocation's
/// following keep-alive window.
// NodeType::standard_cluster() always has a high-end and a low-end node.
#[allow(clippy::expect_used)]
pub fn evaluate(cfg: &ExpConfig) -> Vec<(String, StrategyOutcome)> {
    let trace = cfg.trace();
    let fams = round_robin_assignment(&cfg.zoo(), trace.n_functions());
    let mut engine = PulseEngine::new(fams.clone(), PulseConfig::default());
    let cluster = NodeType::standard_cluster();
    let pcfg = PlacementConfig::default();
    let high = cluster
        .iter()
        .position(|n| n.name == "high-end")
        .expect("cluster has a high-end node");
    let low = cluster
        .iter()
        .position(|n| n.name == "low-end")
        .expect("cluster has a low-end node");

    let names = [
        "utility (icebreaker)",
        "all-high-end",
        "all-low-end",
        "never-warm",
    ];
    let mut outcomes = [StrategyOutcome::default(); 4];

    for (f, fam) in fams.iter().enumerate() {
        let spec = fam.highest().clone();
        let l_cold = cold_latency_s(&spec, &cluster);
        let keepalive_usd = |node: usize| {
            pcfg.cost
                .keepalive_cost_usd_per_minutes(spec.memory_mb, pcfg.horizon_min)
                * cluster[node].price_factor
        };
        let warm_latency = |node: usize| spec.warm_service_time_s * cluster[node].time_factor;
        for &t in &trace.function(f).invocation_minutes() {
            engine.record_invocation(f, t);
            // Probability that this window sees an invocation at all.
            let probs = engine.probabilities(f, t);
            let ip = probs.mass().clamp(0.0, 1.0);
            let choices: [Option<usize>; 4] = [
                place(ip, &spec, &cluster, &pcfg).node,
                Some(high),
                Some(low),
                None,
            ];
            for (o, choice) in outcomes.iter_mut().zip(choices) {
                match choice {
                    Some(node) => {
                        o.cost_usd += keepalive_usd(node);
                        o.latency_s += ip * warm_latency(node);
                        o.warmed += 1;
                    }
                    None => {
                        o.latency_s += ip * l_cold;
                    }
                }
            }
        }
    }
    names.iter().map(|s| s.to_string()).zip(outcomes).collect()
}

/// Render the comparison.
// evaluate() always returns a never-warm row.
#[allow(clippy::unwrap_used)]
pub fn run(cfg: &ExpConfig) -> String {
    let rows = evaluate(cfg);
    let mut table = Table::new(
        "IceBreaker node placement: utility vs static strategies",
        &[
            "Strategy",
            "Keep-alive ($)",
            "E[latency] (s)",
            "Windows warmed",
            "Net value ($)",
        ],
    );
    // Net value baseline: never-warm's latency valued at VoT.
    let never = rows.iter().find(|(n, _)| n == "never-warm").unwrap().1;
    let vot = PlacementConfig::default().value_of_time_usd_per_s;
    for (name, o) in &rows {
        let net = (never.latency_s - o.latency_s) * vot - o.cost_usd;
        table.row(vec![
            name.clone(),
            fmt(o.cost_usd, 3),
            fmt(o.latency_s, 0),
            o.warmed.to_string(),
            fmt(net, 3),
        ]);
    }
    table.render()
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            seed: 42,
            horizon: 1200,
            n_runs: 1,
            trace_out: None,
            serve: Default::default(),
        }
    }

    #[test]
    fn utility_dominates_static_strategies_on_net_value() {
        let rows = evaluate(&tiny());
        let get = |n: &str| rows.iter().find(|(name, _)| name.contains(n)).unwrap().1;
        let never = get("never");
        let vot = PlacementConfig::default().value_of_time_usd_per_s;
        let net = |o: StrategyOutcome| (never.latency_s - o.latency_s) * vot - o.cost_usd;
        let u = net(get("utility"));
        assert!(u >= net(get("all-high")) - 1e-9, "utility {u} < all-high");
        assert!(u >= net(get("all-low")) - 1e-9, "utility {u} < all-low");
        assert!(u >= 0.0, "utility must beat never-warm: {u}");
    }

    #[test]
    fn cost_ordering_is_sane() {
        let rows = evaluate(&tiny());
        let get = |n: &str| rows.iter().find(|(name, _)| name.contains(n)).unwrap().1;
        assert!(get("all-high").cost_usd > get("all-low").cost_usd);
        assert_eq!(get("never").cost_usd, 0.0);
        assert!(get("utility").cost_usd <= get("all-high").cost_usd);
        // Latency: all-high fastest, never slowest.
        assert!(get("all-high").latency_s <= get("all-low").latency_s);
        assert!(get("all-low").latency_s <= get("never").latency_s);
    }

    #[test]
    fn report_renders() {
        let out = run(&tiny());
        assert!(out.contains("utility (icebreaker)"));
        assert!(out.contains("never-warm"));
    }
}
