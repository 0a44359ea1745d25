//! **Extension: overload sweep** — the policies on a *finite* node.
//!
//! Every paper experiment assumes the node is infinitely large and the
//! request queue infinitely deep. This experiment turns on the cluster
//! robustness layer of `pulse-runtime` and runs two overload scenarios:
//!
//! * **storm** — a cold-start storm: the workload is near-idle, then every
//!   function fires a synchronized burst in the same minute. Admission is
//!   bounded, so the backlog past the limit is shed rather than queued
//!   forever; the shed rate and availability show how much of the storm
//!   each policy's warm pool absorbs.
//! * **crunch** — a capacity crunch: the steady 12-function workload on a
//!   node whose keep-alive cap is well below the all-high footprint. The
//!   enforcer flattens the overage with Algorithm 2's utility-ordered
//!   downgrades, so the interesting columns are evictions, pressure
//!   downgrades and the accuracy that survives them.
//!
//! Both scenarios also run PULSE wrapped in the policy watchdog
//! (`pulse_sim::watchdog`): if the pressure drives PULSE's SLO-violation
//! rate past the guardrail, the watchdog benches it for the fixed
//! 10-minute baseline and the fallback-minutes column records the stay.

use crate::common::{sweep_policies, ExpConfig};
use crate::report::{fmt, Table};
use pulse_obs::JsonlSink;
use pulse_runtime::{AdmissionControl, ClusterConfig, FaultPlan, NodeCapacity, RuntimeSummary};
use pulse_sim::assignment::round_robin_assignment;
use pulse_trace::{FunctionTrace, Trace};

/// Backlog bound for the storm scenario: past this many waiting requests,
/// arrivals are shed.
const STORM_MAX_PENDING: usize = 16;

/// Requests per function in each synchronized storm burst.
const STORM_BURST: u32 = 20;

/// Minutes between storm bursts.
const STORM_PERIOD: usize = 30;

/// The crunch node's keep-alive cap as a fraction of the all-high footprint.
const CRUNCH_CAP_FRAC: f64 = 0.3;

/// An idle workload punctuated by synchronized all-function bursts. The
/// inter-burst gap exceeds every policy's keep-alive horizon, so each burst
/// lands cold and the whole cluster provisions at once — the worst case for
/// the pending backlog.
fn storm_trace(n_functions: usize, minutes: usize) -> Trace {
    Trace::new(
        (0..n_functions)
            .map(|f| {
                let counts = (0..minutes)
                    .map(|m| {
                        if m % STORM_PERIOD == 5 {
                            STORM_BURST
                        } else {
                            0
                        }
                    })
                    .collect();
                FunctionTrace::new(format!("f{f}"), counts)
            })
            .collect(),
    )
}

/// Every policy, `pulse+watchdog` included, on `trace` under `cluster`,
/// one table row each.
fn run_scenario(
    cfg: &ExpConfig,
    scenario: &str,
    trace: &Trace,
    cluster: ClusterConfig,
    table: &mut Table,
    sink: &mut Option<JsonlSink<std::fs::File>>,
) -> Vec<(&'static str, RuntimeSummary)> {
    let label = format!("overload/{scenario}");
    let out = sweep_policies(
        cfg,
        &label,
        trace,
        &FaultPlan::none(),
        &cluster.into(),
        true,
        sink,
    );
    for (policy, s) in &out {
        table.row(vec![
            scenario.into(),
            (*policy).into(),
            fmt(s.keepalive_cost_usd, 4),
            fmt(s.availability() * 100.0, 2),
            s.shed_requests.to_string(),
            s.evictions.to_string(),
            s.pressure_downgrades.to_string(),
            s.pressure_minutes.to_string(),
            s.fallback_minutes.to_string(),
            fmt(s.avg_accuracy_pct(), 2),
            fmt(s.latency_p99_ms(), 0),
        ]);
    }
    out
}

/// Run both overload scenarios and render the comparison table.
// CRUNCH_CAP_FRAC is a fraction, so its percentage fits u32.
#[allow(clippy::cast_possible_truncation)]
pub fn run(cfg: &ExpConfig) -> String {
    let mut table = Table::new(
        "Overload sweep: bounded admission (storm) and node capacity (crunch)",
        &[
            "Scenario",
            "Policy",
            "Cost ($)",
            "Avail (%)",
            "Shed",
            "Evict",
            "PrDown",
            "PressMin",
            "FbMin",
            "Accuracy (%)",
            "p99 (ms)",
        ],
    );

    // Storm: unlimited memory, bounded backlog.
    let mut sink = cfg.open_trace();
    let storm = storm_trace(12, cfg.horizon);
    let storm_cluster = ClusterConfig {
        admission: AdmissionControl::bounded(STORM_MAX_PENDING),
        ..ClusterConfig::unlimited()
    };
    let storm_out = run_scenario(cfg, "storm", &storm, storm_cluster, &mut table, &mut sink);

    // Crunch: unbounded backlog, a node far smaller than the all-high plan.
    let trace = cfg.trace();
    let fams = round_robin_assignment(&cfg.zoo(), trace.n_functions());
    let all_high: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
    let crunch_cluster = ClusterConfig {
        capacity: NodeCapacity::mb(all_high * CRUNCH_CAP_FRAC),
        ..ClusterConfig::unlimited()
    };
    let crunch_out = run_scenario(cfg, "crunch", &trace, crunch_cluster, &mut table, &mut sink);

    let shed_note = storm_out
        .iter()
        .map(|(p, s)| {
            format!(
                "{p} {:.1}%",
                100.0 * s.shed_requests as f64 / s.requests() as f64
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let press_note = crunch_out
        .iter()
        .map(|(p, s)| format!("{p} {}", s.pressure_minutes))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{}\nstorm shed rate: {}\ncrunch pressure minutes ({}% node): {}\n",
        table.render(),
        shed_note,
        (CRUNCH_CAP_FRAC * 100.0) as u32,
        press_note
    )
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
    fn sweep_covers_both_scenarios_and_all_policies() {
        let out = run(&tiny());
        for scenario in ["storm", "crunch"] {
            assert!(
                out.contains(scenario),
                "missing scenario {scenario}:\n{out}"
            );
        }
        for policy in ["openwhisk", "intelligent", "pulse", "pulse+watchdog"] {
            assert!(out.contains(policy), "missing policy {policy}:\n{out}");
        }
        assert!(out.contains("shed rate"));
        assert!(out.contains("pressure minutes"));
    }

    #[test]
    fn sweep_is_deterministic() {
        assert_eq!(run(&tiny()), run(&tiny()));
    }

    #[test]
    fn trace_out_reconciles_sheds_per_policy_segment() {
        use crate::common::tests::traced_segments;
        use pulse_obs::ObsEvent;
        let (out, segments) = traced_segments(&tiny(), "overload", |cfg, sink| {
            let mut table = Table::new(
                "t",
                &["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k"],
            );
            let storm = storm_trace(12, cfg.horizon);
            let storm_cluster = ClusterConfig {
                admission: AdmissionControl::bounded(STORM_MAX_PENDING),
                ..ClusterConfig::unlimited()
            };
            run_scenario(cfg, "storm", &storm, storm_cluster, &mut table, sink)
        });

        assert_eq!(segments.len(), out.len(), "one segment per policy run");
        for ((label, events), (policy, s)) in segments.iter().zip(&out) {
            assert_eq!(label, &format!("overload/storm/{policy}"));
            let sheds = events
                .iter()
                .filter(|e| matches!(e, ObsEvent::Shed { .. }))
                .count();
            assert_eq!(sheds as u64, s.shed_requests, "{policy}");
            // Every request is either admitted (arrival event) or shed.
            let arrivals = events
                .iter()
                .filter(|e| matches!(e, ObsEvent::Arrival { .. }))
                .count();
            assert_eq!(arrivals as u64 + sheds as u64, s.requests(), "{policy}");
        }
        assert!(
            out.iter().any(|(_, s)| s.shed_requests > 0),
            "storm must shed for the reconciliation to bite"
        );
    }

    #[test]
    fn storm_trace_has_synchronized_bursts() {
        let t = storm_trace(12, 120);
        assert_eq!(t.n_functions(), 12);
        for f in 0..12 {
            assert_eq!(t.function(f).at(5), STORM_BURST);
            assert_eq!(t.function(f).at(35), STORM_BURST);
        }
    }
}
