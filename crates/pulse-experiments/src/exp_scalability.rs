//! **Extension: scalability and keep-alive-duration generality** — two
//! claims the paper states in prose without a dedicated figure:
//!
//! * "PULSE's overhead remains minimal even when handling a large number of
//!   concurrent functions" (Section V, Overhead) — measured here as the
//!   policy-side wall-clock per simulated minute while the fleet grows from
//!   12 to hundreds of functions;
//! * "the core idea and design behind PULSE are flexible and can be adapted
//!   to different keep-alive durations" — measured as the cost/service/
//!   accuracy improvements over the equally-adapted fixed policy for 5-,
//!   10- and 20-minute windows.

use crate::common::{improvement_higher_better, improvement_lower_better, ExpConfig};
use crate::report::{fmt, pct, Table};
use pulse_core::types::PulseConfig;
use pulse_sim::assignment::round_robin_assignment;
use pulse_sim::policies::{OpenWhiskFixed, PulsePolicy};
use pulse_sim::Simulator;
use pulse_trace::scale::replicate;
use std::time::Instant;

/// Fleet-size sweep: wall-clock per simulated minute and per invocation.
// The sweep's output is wall time; the simulation itself never sees it.
#[allow(clippy::disallowed_methods)]
pub fn run_scalability(cfg: &ExpConfig) -> String {
    let base = cfg.trace();
    let zoo = cfg.zoo();
    let mut table = Table::new(
        "Scalability: PULSE simulation overhead vs fleet size",
        &[
            "Functions",
            "Invocations",
            "Wall (s)",
            "us/sim-minute",
            "us/invocation",
            "Downgrades",
        ],
    );
    for factor in [1usize, 4, 16, 64] {
        let trace = replicate(&base, factor, 37);
        let fams = round_robin_assignment(&zoo, trace.n_functions());
        let sim = Simulator::new(trace.clone(), fams.clone());
        let start = Instant::now();
        let m = sim.run(&mut PulsePolicy::new(fams, PulseConfig::default()));
        let wall = start.elapsed().as_secs_f64();
        table.row(vec![
            trace.n_functions().to_string(),
            m.invocations().to_string(),
            fmt(wall, 2),
            fmt(wall / trace.minutes() as f64 * 1e6, 1),
            fmt(wall / m.invocations().max(1) as f64 * 1e6, 2),
            m.downgrades.to_string(),
        ]);
    }
    table.render()
}

/// Keep-alive duration sweep: PULSE vs the fixed policy at the same window.
pub fn run_window(cfg: &ExpConfig) -> String {
    let trace = cfg.trace();
    let fams = round_robin_assignment(&cfg.zoo(), trace.n_functions());
    let sim = Simulator::new(trace, fams.clone());
    let mut table = Table::new(
        "Keep-alive duration generality: PULSE improvement over the fixed policy",
        &["Window", "Keep-alive Cost", "Service Time", "Accuracy"],
    );
    for window in [5u32, 10, 20] {
        let ow = sim.run(&mut OpenWhiskFixed::with_window(&fams, window));
        let pu = sim.run(&mut PulsePolicy::new(
            fams.clone(),
            PulseConfig {
                keepalive_minutes: window,
                ..Default::default()
            },
        ));
        table.row(vec![
            format!("{window} min"),
            pct(improvement_lower_better(
                pu.keepalive_cost_usd,
                ow.keepalive_cost_usd,
            )),
            pct(improvement_lower_better(
                pu.service_time_s,
                ow.service_time_s,
            )),
            pct(improvement_higher_better(
                pu.avg_accuracy_pct(),
                ow.avg_accuracy_pct(),
            )),
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
            horizon: 700,
            n_runs: 2,
            trace_out: None,
            serve: Default::default(),
        }
    }

    #[test]
    // The claim under test is about wall time.
    #[allow(clippy::disallowed_methods)]
    fn overhead_per_minute_grows_sublinearly_enough() {
        // 4× the functions must not cost 40× the wall clock (per-minute work
        // is linear in fleet size; the claim is no super-linear blow-up).
        let base = tiny().trace();
        let zoo = tiny().zoo();
        let mut walls = Vec::new();
        for factor in [1usize, 4] {
            let trace = replicate(&base, factor, 37);
            let fams = round_robin_assignment(&zoo, trace.n_functions());
            let sim = Simulator::new(trace, fams.clone());
            let start = Instant::now();
            let _ = sim.run(&mut PulsePolicy::new(fams, PulseConfig::default()));
            walls.push(start.elapsed().as_secs_f64());
        }
        assert!(
            walls[1] < walls[0] * 40.0,
            "1x {:.4}s vs 4x {:.4}s",
            walls[0],
            walls[1]
        );
    }

    #[test]
    fn pulse_wins_at_every_window_length() {
        let cfg = tiny();
        let trace = cfg.trace();
        let fams = round_robin_assignment(&cfg.zoo(), trace.n_functions());
        let sim = Simulator::new(trace, fams.clone());
        for window in [5u32, 10, 20] {
            let ow = sim.run(&mut OpenWhiskFixed::with_window(&fams, window));
            let pu = sim.run(&mut PulsePolicy::new(
                fams.clone(),
                PulseConfig {
                    keepalive_minutes: window,
                    ..Default::default()
                },
            ));
            assert!(
                pu.keepalive_cost_usd < ow.keepalive_cost_usd,
                "window {window}: {} !< {}",
                pu.keepalive_cost_usd,
                ow.keepalive_cost_usd
            );
        }
    }

    #[test]
    fn reports_render() {
        let cfg = tiny();
        assert!(run_scalability(&cfg).contains("us/sim-minute"));
        assert!(run_window(&cfg).contains("20 min"));
    }
}
