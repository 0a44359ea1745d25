//! End-to-end benchmark for PULSE.
//!
//! Three workloads, each run on a seed passed as an argument:
//!
//! * [`paper`] — `paper-14d`: the paper's Fig. 6a unit, PULSE and OpenWhisk
//!   campaigns over a two-week `azure_like_12` trace through `run_many`;
//! * [`fleet`] — `fleet-10k`: 10 000 functions for two hours under PULSE, on
//!   the minute simulator and then on the millisecond runtime;
//! * [`serve`] — `serve-bursty`: a bursty open-loop stream served live,
//!   paced below capacity and then unpaced to measure capacity.
//!
//! An untraced pass gives the end-to-end metrics; a separate traced pass
//! times each layer from outside, through its public functions, and prints
//! a per-layer self-time table. See `README.md` for what each metric should
//! move.

pub mod fleet;
pub mod paper;
pub mod probe;
pub mod report;
pub mod serve;
pub mod stats;

use report::{Metric, Report};

/// How one benchmark run is invoked.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Run the traced pass (per-layer metrics) instead of the untraced one.
    pub traced: bool,
    /// Shrink every input to smoke-test size.
    pub tiny: bool,
}

/// The seed whose output digests are stored in the workloads.
pub const DEFAULT_SEED: u64 = 1;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["paper-14d", "fleet-10k", "serve-bursty"];

/// End-to-end metrics, reported by every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("fn_minutes_per_s", "fn-min/s"),
    ("decisions_per_s", "1/s"),
    ("cost_saving_pct", "%"),
    ("tick_lag_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run; a layer a workload does
/// not exercise reports 0 with 0 samples.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("tick_lag_p99_ms", "ms"),
    ("core.schedule_ns.p50", "ns"),
    ("core.schedule_ns.p99", "ns"),
    ("core.schedule_calls", "count"),
    ("core.ip_fill_ns.mean", "ns"),
    ("core.ip_fill_calls", "count"),
    ("core.flatten_us.p50", "us"),
    ("core.flatten_us.p99", "us"),
    ("core.flatten_calls", "count"),
    ("core.peak_frac", "frac"),
    ("core.actions", "count"),
    ("core.policy_frac", "frac"),
    ("sim.step_minute_us.p50", "us"),
    ("sim.step_minute_us.p99", "us"),
    ("sim.self_frac", "frac"),
    ("runtime.step_tick_us.p50", "us"),
    ("runtime.step_tick_us.p99", "us"),
    ("runtime.self_frac", "frac"),
    ("runtime.step_arrival_ns.p50", "ns"),
    ("runtime.step_arrival_ns.p99", "ns"),
    ("runtime.events.minute_tick", "count"),
    ("runtime.events.arrival", "count"),
    ("runtime.events.provision_done", "count"),
    ("runtime.events.exec_done", "count"),
    ("runtime.events.other", "count"),
    ("serve.decision_ns.mean", "ns"),
    ("serve.tick_ns.mean", "ns"),
    ("serve.consumer_busy_frac", "frac"),
    ("serve.queue_depth.max", "count"),
    ("serve.offered", "count"),
    ("serve.admitted", "count"),
    ("serve.front_door_dropped", "count"),
    ("serve.engine_shed", "count"),
    ("runner.worker_busy_frac", "frac"),
    ("runner.run_s.p50", "s"),
    ("runner.run_s.max", "s"),
    ("trace.synth_s", "s"),
    ("loadgen.generate_s", "s"),
    ("loadgen.arrivals", "count"),
    ("obs.events", "count"),
    ("obs.jsonl_ns_per_event", "ns"),
    ("failed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
    ("trace.wall_s", "s"),
];

/// Run `workload`; `None` for an unknown name.
pub fn run(workload: &str, opts: &Opts) -> Option<Report> {
    let mut report = match workload {
        "paper-14d" => paper::run(opts),
        "fleet-10k" => fleet::run(opts),
        "serve-bursty" => serve::run(opts),
        _ => return None,
    };
    finish(&mut report, opts);
    Some(report)
}

/// Add the figures every workload shares, order the metrics as listed
/// above, and fill the layers this workload does not exercise with 0. The
/// self-time rows must cover the traced wall at full scale; smoke-test
/// inputs are too small for the benchmark's own loop overhead to vanish.
fn finish(r: &mut Report, opts: &Opts) {
    let failed_frac = r.failed as f64 / r.attempted.max(1) as f64;
    if opts.traced {
        r.layer("failed_frac", failed_frac, "frac", r.attempted as usize);
        if let Some(res) = r.residual_share() {
            r.layer("trace.unattributed_frac", res, "frac", r.rows.len());
            r.layer("trace.wall_s", r.traced_wall_s, "s", 1);
        }
        if let Some(res) = r.residual_share().filter(|_| !opts.tiny) {
            r.check(
                format!(
                    "per-layer rows cover the traced wall within {:.0}%",
                    report::MAX_RESIDUAL * 100.0
                ),
                res.abs() <= report::MAX_RESIDUAL,
            );
        }
    }
    r.note(format!(
        "failed_frac = {failed_frac} ({} of {} attempted)",
        r.failed, r.attempted
    ));
    if opts.traced {
        r.per_layer = ordered(&r.per_layer, &PER_LAYER);
    } else {
        r.end_to_end = ordered(&r.end_to_end, &END_TO_END);
        r.per_layer.clear();
    }
}

fn ordered(have: &[Metric], canon: &[(&str, &'static str)]) -> Vec<Metric> {
    canon
        .iter()
        .map(|&(name, unit)| {
            have.iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or(Metric {
                    name: name.to_string(),
                    value: 0.0,
                    unit,
                    samples: 0,
                })
        })
        .collect()
}

/// Derive an independent sub-seed from the workload seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
