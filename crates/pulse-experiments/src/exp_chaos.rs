//! **Extension: chaos harness** — how the keep-alive policies behave on an
//! *unreliable* platform.
//!
//! The paper evaluates PULSE on a platform where provisioning always
//! succeeds and containers never crash. This experiment sweeps the
//! fault-injection layer of `pulse-runtime` across increasing fault rates
//! and compares PULSE against the OpenWhisk-style fixed baseline and the
//! intelligent per-function oracle on four axes at once: keep-alive cost,
//! availability, delivered accuracy (after fault-driven ladder
//! degradation), and tail latency (which absorbs the retry/backoff
//! schedules).
//!
//! The interesting question is whether PULSE's mixed-quality ladders are a
//! *resilience* asset: a family with more rungs has more fallback room
//! before a provisioning outage turns into failed requests, so accuracy
//! should degrade gracefully where a single-variant policy goes unavailable.

use crate::common::{sweep_policies, ExpConfig};
use crate::report::{fmt, Table};
use pulse_runtime::{ClusterConfig, FaultPlan, FleetConfig};

/// SLO used for the goodput column, ms (generous: cold start + headroom).
const SLO_MS: u64 = 60_000;

/// The swept fault rates: (label, provision failure, variant-load failure,
/// mid-execution crash). Rates are per-attempt probabilities.
const LEVELS: &[(&str, f64, f64, f64)] = &[
    ("none", 0.0, 0.0, 0.0),
    ("low", 0.05, 0.02, 0.01),
    ("mid", 0.20, 0.10, 0.05),
    ("high", 0.50, 0.30, 0.15),
];

/// The fault plan of one swept level.
fn level_plan(cfg: &ExpConfig, prov: f64, load: f64, crash: f64) -> FaultPlan {
    FaultPlan::uniform(prov, load, crash, cfg.seed ^ 0x000C_4A05).with_timeout_ms(120_000)
}

/// Run the chaos sweep and render the comparison table.
pub fn run(cfg: &ExpConfig) -> String {
    let mut table = Table::new(
        "Chaos sweep: cost / availability / delivered accuracy under faults",
        &[
            "Faults",
            "Policy",
            "Cost ($)",
            "Avail (%)",
            "Goodput (%)",
            "Accuracy (%)",
            "Degr",
            "Retries",
            "Timeouts",
            "p99 (ms)",
        ],
    );

    let mut sink = cfg.open_trace();
    let trace = cfg.trace();
    let fleet = FleetConfig::from(ClusterConfig::unlimited());
    let mut clean_cost = f64::NAN;
    let mut worst = Vec::new();
    for (i, &(label, prov, load, crash)) in LEVELS.iter().enumerate() {
        let out = sweep_policies(
            cfg,
            &format!("chaos/{label}"),
            &trace,
            &level_plan(cfg, prov, load, crash),
            &fleet,
            false,
            &mut sink,
        );
        for (policy, s) in &out {
            table.row(vec![
                label.into(),
                (*policy).into(),
                fmt(s.keepalive_cost_usd, 4),
                fmt(s.availability() * 100.0, 2),
                fmt(s.goodput(SLO_MS) * 100.0, 2),
                fmt(s.avg_accuracy_pct(), 2),
                s.degradations.to_string(),
                (s.provision_retries + s.request_retries).to_string(),
                s.timeouts.to_string(),
                fmt(s.latency_p99_ms(), 0),
            ]);
        }
        if i == 0 {
            if let Some((_, s)) = out.iter().find(|(p, _)| *p == "pulse") {
                clean_cost = s.keepalive_cost_usd;
            }
        }
        worst = out;
    }

    let pulse_worst = worst
        .iter()
        .find(|(p, _)| *p == "pulse")
        .map(|(_, s)| (s.availability(), s.keepalive_cost_usd));
    let note = match pulse_worst {
        Some((avail, cost)) => format!(
            "pulse at the highest fault level: availability {:.1}%, cost {:.4} vs {:.4} clean \
             (ladder degradation trades accuracy for availability; billing stays schedule-driven)",
            avail * 100.0,
            cost,
            clean_cost
        ),
        None => String::new(),
    };
    format!("{}\n{}\n", table.render(), note)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            seed: 42,
            horizon: 300,
            n_runs: 1,
            trace_out: None,
            serve: Default::default(),
        }
    }

    #[test]
    fn sweep_covers_all_levels_and_policies() {
        let out = run(&tiny());
        for level in ["none", "low", "mid", "high"] {
            assert!(out.contains(level), "missing level {level}:\n{out}");
        }
        for policy in ["openwhisk", "intelligent", "pulse"] {
            assert!(out.contains(policy), "missing policy {policy}:\n{out}");
        }
        assert!(out.contains("ladder degradation"));
    }

    #[test]
    fn sweep_is_deterministic() {
        assert_eq!(run(&tiny()), run(&tiny()));
    }

    #[test]
    fn trace_out_event_counts_match_summary_counters() {
        use crate::common::tests::traced_segments;
        use pulse_obs::{ActionSource, ObsEvent};
        let (out, segments) = traced_segments(&tiny(), "chaos", |cfg, sink| {
            let (_, prov, load, crash) = LEVELS[2];
            let plan = level_plan(cfg, prov, load, crash);
            let fleet = ClusterConfig::unlimited().into();
            sweep_policies(cfg, "chaos/mid", &cfg.trace(), &plan, &fleet, false, sink)
        });

        assert_eq!(segments.len(), out.len(), "one segment per policy run");
        for ((label, events), (policy, s)) in segments.iter().zip(&out) {
            assert_eq!(label, &format!("chaos/mid/{policy}"));
            // The acceptance identity: downgrade/eviction event counts in
            // the trace equal the corresponding RuntimeSummary counters.
            let policy_actions = events
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        ObsEvent::Downgrade {
                            source: ActionSource::Policy,
                            ..
                        } | ObsEvent::Evict {
                            source: ActionSource::Policy,
                            ..
                        }
                    )
                })
                .count();
            assert_eq!(policy_actions as u64, s.downgrades, "{policy}");
            let pressure_downgrades = events
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        ObsEvent::Downgrade {
                            source: ActionSource::Pressure,
                            ..
                        }
                    )
                })
                .count();
            assert_eq!(
                pressure_downgrades as u64, s.pressure_downgrades,
                "{policy}"
            );
            let evictions = events
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        ObsEvent::Evict {
                            source: ActionSource::Pressure,
                            ..
                        }
                    )
                })
                .count();
            assert_eq!(evictions as u64, s.evictions, "{policy}");
            // Faulted degradations appear as `degrade` events.
            let degrades = events
                .iter()
                .filter(|e| matches!(e, ObsEvent::Degrade { .. }))
                .count();
            assert_eq!(degrades as u64, s.degradations, "{policy}");
        }
    }
}
