//! `serve` — the live serving demo: open-loop load through the bounded
//! front door, PULSE keep-alive decisions online, wall-clock decision
//! latency from pulse-obs histograms.
//!
//! `pulse-exp serve` runs a CI-sized load; `pulse-exp serve --demo` runs the
//! single-box throughput claim (200k req/s target over 10 virtual seconds).
//! `--rps` / `--duration` override either. With `--trace-out`, the serve
//! telemetry (`serve_start` / `serve_tick` / `serve_backpressure` /
//! `serve_summary`) lands in the JSONL stream.

use crate::common::ExpConfig;
use crate::report::WALL_CLOCK_MARK;
use pulse_obs::{emit, ObsEvent, TraceSink};
use pulse_serve::{run_demo, DemoConfig, ServeReport};

/// Engine admission bound: pending work beyond this is shed by the engine's
/// own admission control (a decision, not a stall).
const MAX_PENDING: usize = 4_096;

/// Run the live serving demo at `cfg.serve`'s rate and duration and render
/// its report.
pub fn run(cfg: &ExpConfig) -> String {
    let demo = DemoConfig {
        rps: cfg.serve.rps,
        seconds: cfg.serve.seconds,
        functions: 12,
        seed: cfg.seed,
        max_pending: MAX_PENDING,
    };
    let mut sink = cfg.open_trace();
    let mut dyn_sink = sink.as_mut().map(|s| s as &mut dyn TraceSink);
    // The run_start header every traced sweep carries (and the schema
    // checker insists on); the serve telemetry follows it.
    emit(&mut dyn_sink, || ObsEvent::RunStart {
        label: format!("serve/{}rps-{}s/pulse", demo.rps, demo.seconds),
    });
    let report = run_demo(&demo, dyn_sink);
    render(&demo, &report)
}

/// The serve report; its throughput and latency lines are wall-clock lines.
pub(crate) fn render(demo: &DemoConfig, r: &ServeReport) -> String {
    let generated = r.admitted + r.front_door_dropped;
    let wall_s = r.wall_ms as f64 / 1e3;
    let mut out = String::new();
    out.push_str("## Live serving (open-loop, bounded front door)\n\n");
    out.push_str(&format!(
        "target load        : {} req/s x {} s across {} functions (seed {})\n",
        demo.rps, demo.seconds, demo.functions, demo.seed
    ));
    out.push_str(&format!(
        "generated          : {generated} arrivals ({} expected)\n",
        demo.expected_arrivals()
    ));
    out.push_str(&format!(
        "admitted           : {} ({} dropped at front door, {} shed by admission)\n",
        r.admitted, r.front_door_dropped, r.engine_shed
    ));
    out.push_str(&format!(
        "{WALL_CLOCK_MARK} achieved           : {:.0} req/s over {:.2} s of wall clock\n",
        r.rps, wall_s
    ));
    // Histogram percentiles are power-of-two bucket upper bounds, hence "<=".
    out.push_str(&format!(
        "{WALL_CLOCK_MARK} decision latency   : p50 <= {} ns, p99 <= {} ns\n",
        r.p50_decision_ns(),
        r.p99_decision_ns()
    ));
    out.push_str(&format!(
        "{WALL_CLOCK_MARK} minute-tick cost   : p99 <= {} ns across {} ticks\n",
        r.tick_ns.approx_percentile(99).unwrap_or(0),
        r.tick_ns.count()
    ));
    out.push_str(&format!(
        "engine summary     : {} requests, {} cold starts, keep-alive ${:.4}\n",
        r.summary.requests(),
        r.summary.cold_starts(),
        r.summary.keepalive_cost_usd
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ServeOptions;

    #[test]
    fn serve_experiment_reports_throughput_and_latency() {
        let cfg = ExpConfig {
            serve: ServeOptions {
                rps: 5_000,
                seconds: 1,
            },
            ..ExpConfig::quick()
        };
        let out = run(&cfg);
        assert!(out.contains("achieved"), "{out}");
        assert!(out.contains("decision latency"), "{out}");
        assert!(out.contains("5000 req/s x 1 s"), "{out}");
    }
}
