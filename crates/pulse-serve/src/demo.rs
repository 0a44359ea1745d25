//! The single-box throughput demo: a self-contained harness wiring the load
//! generator, the bounded-channel front door, and the PULSE policy together,
//! sized so `pulse-exp serve --demo` can claim sustained requests-per-second
//! and µs-scale decision latency on one machine.

use crate::engine::{serve_live, LiveOptions, ServeConfig, ServeReport};
use crate::loadgen::{ArrivalStream, LoadGenConfig, LoadMode};
use pulse_core::types::PulseConfig;
use pulse_obs::TraceSink;
use pulse_sim::assignment::round_robin_assignment;
use pulse_sim::policies::PulsePolicy;

/// Demo shape. The defaults are deliberately absent — the caller (the CLI)
/// owns rate, duration, and seed, so no literal seed hides in library code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemoConfig {
    /// Target arrival rate, requests per virtual second.
    pub rps: u64,
    /// Virtual seconds of load to generate (`rps * seconds` total arrivals
    /// in expectation).
    pub seconds: u64,
    /// Functions behind the front door (cycled through the model zoo).
    pub functions: usize,
    /// Load-generator seed.
    pub seed: u64,
    /// Engine admission bound (pending-queue backpressure tier).
    pub max_pending: usize,
}

impl DemoConfig {
    /// Expected total arrivals.
    pub fn expected_arrivals(&self) -> u64 {
        self.rps * self.seconds
    }
}

/// Run the open-loop demo: Poisson arrivals at `cfg.rps`, unthrottled
/// producer, PULSE keep-alive policy online. The ingress channel holds the
/// whole generated stream, so no arrival is dropped at the front door and
/// the achieved rate measures the consumer, not how many arrivals it
/// happened to catch; the engine's admission bound still sheds. Serve
/// telemetry (`serve_start` / `serve_tick` / `serve_backpressure` /
/// `serve_summary`) goes to `sink`.
// A demo runs for a handful of minutes.
#[allow(clippy::cast_possible_truncation)]
pub fn run_demo(cfg: &DemoConfig, sink: Option<&mut dyn TraceSink>) -> ServeReport {
    assert!(cfg.functions >= 1 && cfg.rps >= 1 && cfg.seconds >= 1);
    // Spread the target volume over whole virtual minutes so the per-minute
    // rate keeps `rps * seconds` total arrivals in expectation even when
    // `seconds` is not a multiple of 60.
    let minutes = cfg.seconds.div_ceil(60).max(1);
    let rate_per_min = cfg.expected_arrivals() as f64 / minutes as f64 / cfg.functions as f64;
    let stream = ArrivalStream::generate(&LoadGenConfig {
        functions: cfg.functions,
        minutes: minutes as usize,
        mode: LoadMode::Poisson { rate_per_min },
        seed: cfg.seed,
    });
    let families = round_robin_assignment(&pulse_models::zoo::standard(), cfg.functions);
    let mut policy = PulsePolicy::new(families.clone(), PulseConfig::default());
    let config = ServeConfig::default().with_max_pending(cfg.max_pending);
    let opts = LiveOptions {
        channel_capacity: stream.len(),
        speedup: None,
    };
    serve_live(stream, families, &mut policy, &config, &opts, "demo", sink)
}
