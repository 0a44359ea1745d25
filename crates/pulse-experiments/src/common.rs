//! Shared experiment plumbing: workload/zoo construction, multi-run
//! campaigns, the robustness sweeps' policy runs, and improvement
//! arithmetic.

use pulse_core::types::PulseConfig;
use pulse_models::{zoo, ModelFamily};
use pulse_obs::{JsonlSink, ObsEvent, TraceSink};
use pulse_runtime::{FaultPlan, FleetConfig, Runtime, RuntimeConfig, RuntimeSummary};
use pulse_sim::assignment::round_robin_assignment;
use pulse_sim::metrics::Aggregate;
use pulse_sim::policies::{IntelligentOracle, OpenWhiskFixed, PulsePolicy};
use pulse_sim::runner::{self, MultiRunConfig, PolicyFactory};
use pulse_sim::{KeepAlivePolicy, Watchdog, WatchdogConfig};
use pulse_trace::{synth, Trace};

/// Scale knobs for the live serving experiment (`serve`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Target arrival rate, requests per virtual second (`--rps`).
    pub rps: u64,
    /// Virtual seconds of generated load (`--duration`).
    pub seconds: u64,
}

impl Default for ServeOptions {
    /// CI-friendly scale: finishes in about a second even in debug builds.
    fn default() -> Self {
        Self {
            rps: 20_000,
            seconds: 2,
        }
    }
}

impl ServeOptions {
    /// The single-box demo scale behind `pulse-exp serve --demo`.
    pub fn demo() -> Self {
        Self {
            rps: 200_000,
            seconds: 10,
        }
    }
}

/// Experiment-wide configuration.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Trace seed.
    pub seed: u64,
    /// Horizon in minutes.
    pub horizon: usize,
    /// Runs per policy in multi-run campaigns.
    pub n_runs: usize,
    /// Structured JSONL trace destination (`--trace-out`). The CLI
    /// truncates the file once at startup; experiments append, so a
    /// multi-experiment invocation shares one stream.
    pub trace_out: Option<std::path::PathBuf>,
    /// Live serving scale (`serve` experiment only).
    pub serve: ServeOptions,
}

impl ExpConfig {
    /// Fast configuration: 4 days, 30 runs — minutes of wall clock.
    pub fn quick() -> Self {
        Self {
            seed: 42,
            horizon: 4 * pulse_trace::MINUTES_PER_DAY,
            n_runs: 30,
            trace_out: None,
            serve: ServeOptions::default(),
        }
    }

    /// Paper-scale configuration: 14 days, 1000 runs.
    pub fn full() -> Self {
        Self {
            seed: 42,
            horizon: pulse_trace::TWO_WEEKS_MINUTES,
            n_runs: 1000,
            trace_out: None,
            serve: ServeOptions::default(),
        }
    }

    /// Open the configured trace file for appending, if any. Returns `None`
    /// both when tracing is off and when the file cannot be opened (with a
    /// warning on stderr) — experiments run untraced rather than die.
    pub fn open_trace(&self) -> Option<pulse_obs::JsonlSink<std::fs::File>> {
        let path = self.trace_out.as_ref()?;
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            Ok(f) => Some(pulse_obs::JsonlSink::new(f)),
            Err(e) => {
                eprintln!("warning: cannot open trace file {}: {e}", path.display());
                None
            }
        }
    }

    /// The standard 12-function workload at this configuration's horizon.
    pub fn trace(&self) -> Trace {
        synth::azure_like_12_with_horizon(self.seed, self.horizon)
    }

    /// The standard model zoo.
    pub fn zoo(&self) -> Vec<ModelFamily> {
        zoo::standard()
    }

    /// Run a multi-run campaign for one policy and aggregate.
    pub fn campaign(&self, trace: &Trace, name: &str, factory: &PolicyFactory<'_>) -> Aggregate {
        let cfg = MultiRunConfig {
            n_runs: self.n_runs,
            base_seed: self.seed,
            threads: None,
        };
        let z = self.zoo();
        let runs = runner::run_many(trace, &z, &cfg, factory);
        runner::aggregate(name, &runs)
    }
}

/// One scenario of a robustness sweep (`chaos`, `overload`, `fleet`): run
/// openwhisk, intelligent and pulse — then pulse wrapped in the default
/// watchdog when `watchdog` is set — on `trace` under `plan` and `fleet`,
/// each on a runtime seeded with the configuration's seed. Each traced run
/// is one segment of `sink`: a `run_start` line labelled
/// `{label}/{policy}`, then that run's event stream. Returns every
/// policy's summary in run order.
pub fn sweep_policies(
    cfg: &ExpConfig,
    label: &str,
    trace: &Trace,
    plan: &FaultPlan,
    fleet: &FleetConfig,
    watchdog: bool,
    sink: &mut Option<JsonlSink<std::fs::File>>,
) -> Vec<(&'static str, RuntimeSummary)> {
    let fams = round_robin_assignment(&cfg.zoo(), trace.n_functions());
    let rt = Runtime::new(
        trace.clone(),
        fams.clone(),
        RuntimeConfig {
            stochastic_seed: Some(cfg.seed),
            ..RuntimeConfig::default()
        },
    );
    let mut policies: Vec<(&'static str, Box<dyn KeepAlivePolicy>)> = vec![
        ("openwhisk", Box::new(OpenWhiskFixed::new(&fams))),
        (
            "intelligent",
            Box::new(IntelligentOracle::new(&fams, trace.clone())),
        ),
        (
            "pulse",
            Box::new(PulsePolicy::new(fams.clone(), PulseConfig::default())),
        ),
    ];
    if watchdog {
        policies.push((
            "pulse+watchdog",
            Box::new(Watchdog::new(
                PulsePolicy::new(fams.clone(), PulseConfig::default()),
                &fams,
                WatchdogConfig::default(),
            )),
        ));
    }
    policies
        .iter_mut()
        .map(|(policy, p)| {
            let session = rt.session(p.as_mut(), plan, fleet.clone());
            let s = match sink.as_mut() {
                Some(js) => {
                    js.record(&ObsEvent::RunStart {
                        label: format!("{label}/{policy}"),
                    });
                    session.traced(js)
                }
                None => session,
            }
            .finish();
            (*policy, s)
        })
        .collect()
}

/// Percentage improvement of `ours` over `baseline` for lower-is-better
/// quantities (positive = we're cheaper/faster).
pub fn improvement_lower_better(ours: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (baseline - ours) / baseline * 100.0
    }
}

/// Percentage improvement for higher-is-better quantities (accuracy):
/// positive = we're more accurate.
pub fn improvement_higher_better(ours: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (ours - baseline) / baseline * 100.0
    }
}

/// Unit tests, and the trace-reading helper the sweep experiments' tests
/// share.
#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
pub mod tests {
    use super::*;

    /// One run's slice of a JSONL trace: its `run_start` label and the
    /// events after it.
    pub(crate) type Segment = (String, Vec<ObsEvent>);

    /// Run `sweep` under `cfg` with `--trace-out` pointing at a fresh
    /// temporary file named after `name`, then re-parse the file and split
    /// it into per-run segments at its `run_start` lines.
    pub(crate) fn traced_segments<T>(
        cfg: &ExpConfig,
        name: &str,
        sweep: impl FnOnce(&ExpConfig, &mut Option<JsonlSink<std::fs::File>>) -> T,
    ) -> (T, Vec<Segment>) {
        let path = std::env::temp_dir().join(format!(
            "pulse-{name}-trace-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::File::create(&path).expect("truncate trace file");
        let cfg = ExpConfig {
            trace_out: Some(path.clone()),
            ..cfg.clone()
        };
        let mut sink = cfg.open_trace();
        let out = sweep(&cfg, &mut sink);
        assert!(!sink.expect("sink opens").had_error());

        let text = std::fs::read_to_string(&path).expect("trace file exists");
        let _ = std::fs::remove_file(&path);
        let mut segments: Vec<Segment> = Vec::new();
        for line in text.lines() {
            match ObsEvent::from_json(line).expect("every line is a valid event") {
                ObsEvent::RunStart { label } => segments.push((label, Vec::new())),
                ev => segments
                    .last_mut()
                    .expect("run_start precedes events")
                    .1
                    .push(ev),
            }
        }
        (out, segments)
    }

    #[test]
    fn configs_have_expected_scales() {
        let q = ExpConfig::quick();
        let f = ExpConfig::full();
        assert!(q.horizon < f.horizon);
        assert!(q.n_runs < f.n_runs);
        assert_eq!(f.horizon, 20160);
        assert_eq!(f.n_runs, 1000);
    }

    #[test]
    fn trace_matches_config() {
        let q = ExpConfig::quick();
        let t = q.trace();
        assert_eq!(t.minutes(), q.horizon);
        assert_eq!(t.n_functions(), 12);
    }

    #[test]
    fn improvement_signs() {
        assert!(improvement_lower_better(60.0, 100.0) > 0.0);
        assert!(improvement_lower_better(120.0, 100.0) < 0.0);
        assert!(improvement_higher_better(90.0, 80.0) > 0.0);
        assert!(improvement_higher_better(70.0, 80.0) < 0.0);
        assert_eq!(improvement_lower_better(1.0, 0.0), 0.0);
    }
}
