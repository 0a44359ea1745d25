//! **Extension: fleet robustness** — keep-alive policies on a multi-node
//! fleet that loses nodes.
//!
//! The paper's platform is a single infinitely reliable node. This
//! experiment runs the policies on a capacity-constrained multi-node fleet
//! under three injected failure regimes and measures whether the warm-state
//! machinery (global placement, warm-container migration, redispatch
//! through the retry ladder) keeps the platform available:
//!
//! * **rolling-crash** — nodes crash one after another on a fixed cadence,
//!   so displaced plans pile onto the survivors and must migrate back after
//!   each heal;
//! * **az-outage** — two of three nodes partition simultaneously (a
//!   correlated availability-zone failure), leaving one node to absorb the
//!   fleet;
//! * **stragglers** — a rotating node slows down 4× without dying, which
//!   should cost latency but never availability.
//!
//! The acceptance bar mirrors the robustness suite: every policy stays
//! ≥ 99% available under rolling crashes, and the total migration pause is
//! strictly cheaper than re-provisioning the same containers cold.

use crate::common::{sweep_policies, ExpConfig};
use crate::report::{fmt, Table};
use pulse_models::ModelFamily;
use pulse_runtime::{FaultPlan, FleetConfig, NodeCapacity, NodeFaultPlan};
use pulse_sim::assignment::round_robin_assignment;

/// Fraction of the all-high footprint each node's cap gets. Three nodes at
/// 45% hold the fleet comfortably when healthy but force pressure (and
/// migrations back after heals) whenever one node is down.
const CAP_FRAC: f64 = 0.45;

/// Cheapest cold start in the zoo, ms — the bar a migration pause must beat
/// for warm-state migration to be worth anything.
// Cold starts are seconds-scale, far below u64::MAX ms.
#[allow(clippy::cast_possible_truncation)]
fn min_cold_ms(fams: &[ModelFamily]) -> u64 {
    fams.iter()
        .flat_map(|f| f.variants.iter())
        .map(|v| (v.cold_start_s * 1000.0) as u64)
        .min()
        .unwrap_or(0)
}

/// One failure regime over the experiment horizon.
struct Scenario {
    name: &'static str,
    fleet: FleetConfig,
}

fn scenarios(horizon: usize, cap: f64) -> Vec<Scenario> {
    let h = horizon as u64;
    let capped =
        |plan: NodeFaultPlan| FleetConfig::uniform(3, NodeCapacity::mb(cap)).with_node_faults(plan);
    vec![
        Scenario {
            name: "rolling-crash",
            fleet: capped(NodeFaultPlan::rolling_crashes(3, 10, 6, 30, h)),
        },
        Scenario {
            name: "az-outage",
            fleet: capped(NodeFaultPlan::correlated_outage(&[0, 1], h / 3, 8)),
        },
        Scenario {
            name: "stragglers",
            fleet: capped(NodeFaultPlan::stragglers(3, 5, 10, 45, 4.0, h)),
        },
    ]
}

/// Run the fleet-robustness sweep and render the comparison table.
pub fn run(cfg: &ExpConfig) -> String {
    let trace = cfg.trace();
    let fams = round_robin_assignment(&cfg.zoo(), trace.n_functions());
    let all_high: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
    let cap = all_high * CAP_FRAC;
    let cold_bar = min_cold_ms(&fams);

    let mut table = Table::new(
        "Fleet robustness: 3 capped nodes under injected node failures",
        &[
            "Scenario",
            "Policy",
            "Cost ($)",
            "Avail (%)",
            "Faults",
            "Migr",
            "Pause (ms)",
            "Redisp",
            "Down (min)",
            "p99 (ms)",
        ],
    );

    let mut sink = cfg.open_trace();
    let mut notes = Vec::new();
    for scenario in scenarios(cfg.horizon, cap) {
        let out = sweep_policies(
            cfg,
            &format!("fleet/{}", scenario.name),
            &trace,
            &FaultPlan::none(),
            &scenario.fleet,
            false,
            &mut sink,
        );
        for (policy, s) in &out {
            let faults = s.node_crashes + s.node_partitions + s.node_stragglers;
            table.row(vec![
                scenario.name.into(),
                (*policy).into(),
                fmt(s.keepalive_cost_usd, 4),
                fmt(s.availability() * 100.0, 2),
                faults.to_string(),
                s.migrations.to_string(),
                s.migration_pause_ms.to_string(),
                s.redispatched_requests.to_string(),
                s.node_summaries
                    .iter()
                    .map(|n| n.minutes_down)
                    .sum::<u64>()
                    .to_string(),
                fmt(s.latency_p99_ms(), 0),
            ]);
        }
        let migrations: u64 = out.iter().map(|(_, s)| s.migrations).sum();
        let pause: u64 = out.iter().map(|(_, s)| s.migration_pause_ms).sum();
        let worst_avail = out
            .iter()
            .map(|(_, s)| s.availability())
            .fold(f64::INFINITY, f64::min);
        notes.push(format!(
            "{}: worst availability {:.2}%, {} migrations pausing {} ms total \
             (vs {} ms to cold-start the same containers)",
            scenario.name,
            worst_avail * 100.0,
            migrations,
            pause,
            migrations * cold_bar,
        ));
    }
    format!(
        "{}\nnode cap {} MB ({}% of the all-high footprint); cheapest cold start {} ms\n{}\n",
        table.render(),
        fmt(cap, 0),
        fmt(CAP_FRAC * 100.0, 0),
        cold_bar,
        notes.join("\n"),
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
    fn sweep_covers_all_scenarios_and_policies() {
        let out = run(&tiny());
        for scenario in ["rolling-crash", "az-outage", "stragglers"] {
            assert!(
                out.contains(scenario),
                "missing scenario {scenario}:\n{out}"
            );
        }
        for policy in ["openwhisk", "intelligent", "pulse"] {
            assert!(out.contains(policy), "missing policy {policy}:\n{out}");
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        assert_eq!(run(&tiny()), run(&tiny()));
    }

    #[test]
    fn rolling_crashes_meet_the_availability_and_migration_bars() {
        let cfg = tiny();
        let trace = cfg.trace();
        let fams = round_robin_assignment(&cfg.zoo(), trace.n_functions());
        let all_high: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
        let cold_bar = min_cold_ms(&fams);
        let scenario = &scenarios(cfg.horizon, all_high * CAP_FRAC)[0];
        let plan = FaultPlan::none();
        let out = sweep_policies(&cfg, "t", &trace, &plan, &scenario.fleet, false, &mut None);
        for (policy, s) in &out {
            assert!(
                s.availability() >= 0.99,
                "{policy}: availability {} under rolling crashes",
                s.availability()
            );
            assert!(s.node_crashes > 0, "{policy}: no crashes injected");
            // Migration is strictly cheaper than cold-starting the same
            // containers: the pause per migration stays under the cheapest
            // cold start in the zoo.
            assert!(
                s.migration_pause_ms < (s.migrations + 1) * cold_bar,
                "{policy}: {} ms of migration pause over the {} ms cold bar",
                s.migration_pause_ms,
                s.migrations * cold_bar
            );
        }
        assert!(
            out.iter().any(|(_, s)| s.migrations > 0),
            "rolling crashes never triggered a migration"
        );
    }
}
