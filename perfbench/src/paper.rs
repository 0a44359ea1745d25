//! `paper-14d`: the unit of the paper's Fig. 6a.
//!
//! A campaign of seeded random model assignments over a two-week
//! `azure_like_12` trace, run through `pulse_sim::runner::run_many` once
//! under PULSE and once under OpenWhisk with the same assignments, on one
//! worker. Long histories make PULSE's inter-arrival estimate and
//! Algorithms 1/2 nearly all of the step time.

use crate::probe::{CoreSink, CoreTimes, RunLog, RunSink, Stamped, TimedJsonl, TracedPulse};
use crate::report::Report;
use crate::stats::{peak_rss_mb, Digest, Fastest, Samples, SetupTimer};
use crate::{sub_seed, Opts, DEFAULT_SEED};
use pulse_core::types::PulseConfig;
use pulse_models::{zoo, ModelFamily};
use pulse_sim::assignment::random_assignment;
use pulse_sim::policies::{OpenWhiskFixed, PulsePolicy};
use pulse_sim::runner::{run_many, MultiRunConfig, PolicyFactory};
use pulse_sim::{KeepAlivePolicy, RunMetrics, Simulator};
use pulse_trace::{synth, Trace};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `run_many` workers. One: a second worker would share the host's cores
/// with the first (on a 2-vCPU guest, possibly one physical core), and how
/// much that slows both changes from run to run.
const WORKERS: usize = 1;

/// Output digest of the full-scale campaign at [`DEFAULT_SEED`].
const DEFAULT_DIGEST: u64 = 0xa385_f66c_76f7_5f51;

/// Workload size.
#[derive(Debug, Clone, Copy)]
struct Scale {
    minutes: usize,
    runs: usize,
    setup_reps: usize,
}

impl Scale {
    fn of(opts: &Opts) -> Self {
        if opts.tiny {
            Self {
                minutes: 600,
                runs: 2,
                setup_reps: 1,
            }
        } else {
            Self {
                minutes: 20_160,
                runs: 3,
                setup_reps: 5,
            }
        }
    }
}

/// One campaign's outputs and wall times.
struct Unit {
    pulse: Vec<RunMetrics>,
    openwhisk: Vec<RunMetrics>,
    /// Start of the PULSE call, start of the OpenWhisk call, end.
    marks: [Instant; 3],
}

impl Unit {
    fn wall(&self) -> f64 {
        (self.marks[2] - self.marks[0]).as_secs_f64()
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for m in self.pulse.iter().chain(&self.openwhisk) {
            d.float(m.keepalive_cost_usd);
            d.float(m.service_time_s);
            d.float(m.accuracy_sum_pct);
            d.word(m.warm_starts);
            d.word(m.cold_starts);
            d.word(m.downgrades);
        }
        d.value()
    }
}

struct Campaign {
    trace: Trace,
    zoo: Vec<ModelFamily>,
    cfg: MultiRunConfig,
    fn_minutes: f64,
}

type Factory = Box<PolicyFactory<'static>>;

impl Campaign {
    /// Run both policies; `None` when a run panicked.
    fn unit(&self, pulse: &Factory, openwhisk: &Factory) -> Option<Unit> {
        self.unit_with(&self.cfg, pulse, openwhisk)
    }

    /// [`Campaign::unit`] with other runs.
    fn unit_with(
        &self,
        cfg: &MultiRunConfig,
        pulse: &Factory,
        openwhisk: &Factory,
    ) -> Option<Unit> {
        let t0 = Instant::now();
        let p = catch_unwind(AssertUnwindSafe(|| {
            run_many(&self.trace, &self.zoo, cfg, pulse.as_ref())
        }))
        .ok()?;
        let t1 = Instant::now();
        let o = catch_unwind(AssertUnwindSafe(|| {
            run_many(&self.trace, &self.zoo, cfg, openwhisk.as_ref())
        }))
        .ok()?;
        Some(Unit {
            pulse: p,
            openwhisk: o,
            marks: [t0, t1, Instant::now()],
        })
    }
}

fn pulse_factory(log: RunSink) -> Factory {
    Box::new(move |fams: &[ModelFamily], _| {
        Box::new(Stamped::new(
            PulsePolicy::new(fams.to_vec(), PulseConfig::default()),
            Arc::clone(&log),
            true,
        )) as Box<dyn KeepAlivePolicy>
    })
}

fn traced_pulse_factory(log: RunSink, core: CoreSink) -> Factory {
    Box::new(move |fams: &[ModelFamily], _| {
        Box::new(Stamped::new(
            TracedPulse::new(fams.to_vec(), Arc::clone(&core)),
            Arc::clone(&log),
            true,
        )) as Box<dyn KeepAlivePolicy>
    })
}

fn openwhisk_factory(log: Option<RunSink>) -> Factory {
    Box::new(move |fams: &[ModelFamily], _| match &log {
        Some(log) => Box::new(Stamped::new(
            OpenWhiskFixed::new(fams),
            Arc::clone(log),
            false,
        )) as Box<dyn KeepAlivePolicy>,
        None => Box::new(OpenWhiskFixed::new(fams)),
    })
}

/// Run the workload.
pub fn run(opts: &Opts) -> Report {
    let scale = Scale::of(opts);
    let mut r = Report::default();

    let (mut setup, trace) = SetupTimer::new(scale.setup_reps, || {
        synth::azure_like_12_with_horizon(opts.seed, scale.minutes)
    });
    let n_fn = trace.n_functions();
    let threads = WORKERS;
    let c = Campaign {
        fn_minutes: (n_fn * scale.minutes) as f64,
        zoo: zoo::standard(),
        cfg: MultiRunConfig {
            n_runs: scale.runs,
            base_seed: sub_seed(opts.seed, 1),
            threads: Some(threads),
        },
        trace,
    };
    r.note(format!(
        "paper-14d: {n_fn} functions x {} minutes, {} runs per policy, {threads} workers",
        scale.minutes, scale.runs
    ));

    // Untraced units: the whole measurement, or its first third before the
    // traced units of a traced run.
    let budget = if opts.traced {
        opts.seconds / 3.0
    } else {
        opts.seconds
    };
    let log: RunSink = Arc::default();
    let plain_pulse = pulse_factory(Arc::clone(&log));
    let plain_ow = openwhisk_factory(None);
    let start = Instant::now();
    let mut first: Option<Unit> = None;
    let mut same = true;
    let mut rss = 0.0;
    let mut plain_wall = Samples::new();
    let mut best = Fastest::default();
    while plain_wall.len() < 2 || start.elapsed().as_secs_f64() < budget {
        r.attempted += 2 * scale.runs as u64;
        let Some(u) = c.unit(&plain_pulse, &plain_ow) else {
            r.failed += 2 * scale.runs as u64;
            r.check("every campaign run completes", false);
            return r;
        };
        plain_wall.push(u.wall());
        best.fold(&std::mem::take(
            &mut log.lock().expect("run log lock").minute_ns,
        ));
        match &first {
            None => {
                first = Some(u);
                rss = peak_rss_mb();
            }
            Some(f) => same &= u.digest() == f.digest(),
        }
        setup.sample();
    }
    let synth_s = setup.secs();
    let (setup_s, n) = setup.figure();
    r.e2e("setup_s", setup_s, "s", n);
    let first = first.expect("at least two repetitions ran");
    let digest = first.digest();
    r.check(
        "every repeat of the campaign gives bitwise-identical outputs",
        same,
    );
    r.check(
        "every repeat of the campaign steps the same PULSE minutes",
        best.consistent() && best.len() == scale.runs * scale.minutes,
    );
    check_outputs(&mut r, &c, &first);
    if opts.seed == DEFAULT_SEED && !opts.tiny {
        r.check(
            format!("output digest {digest:#018x} matches the stored value"),
            digest == DEFAULT_DIGEST,
        );
    }
    // The saving varies with the assignments, and three leave it spread
    // widely across seeds, so untraced runs add a campaign over as many
    // other assignments, run once and untimed.
    let extra = if opts.traced {
        None
    } else {
        let cfg = MultiRunConfig {
            n_runs: scale.runs,
            base_seed: sub_seed(opts.seed, 2),
            threads: Some(threads),
        };
        r.attempted += 2 * scale.runs as u64;
        let Some(u) = c.unit_with(&cfg, &plain_pulse, &plain_ow) else {
            r.failed += 2 * scale.runs as u64;
            r.check("every campaign run completes", false);
            return r;
        };
        let total = c.trace.total_invocations();
        r.check(
            "second campaign: warm + cold = invocations in every run",
            u.pulse
                .iter()
                .chain(&u.openwhisk)
                .all(|m| m.warm_starts + m.cold_starts == total),
        );
        Some(u)
    };
    let cost = |runs: fn(&Unit) -> &[RunMetrics]| -> f64 {
        std::iter::once(&first)
            .chain(&extra)
            .flat_map(runs)
            .map(|m| m.keepalive_cost_usd)
            .sum()
    };
    let ow_cost = cost(|u| &u.openwhisk);
    let pulse_cost = cost(|u| &u.pulse);
    let saving = 100.0 * (ow_cost - pulse_cost) / ow_cost;
    r.check(
        "PULSE keeps models alive for less than OpenWhisk",
        saving > 0.0,
    );

    let lag = best.samples();
    r.layer(
        "tick_lag_p99_ms",
        lag.percentile(99.0) / 1e6,
        "ms",
        lag.len(),
    );
    if !opts.traced {
        // PULSE runs only: the OpenWhisk runs take about 2% of the time
        // and are not stamped minute by minute.
        let pulse_s = lag.sum() / 1e9;
        let invocations: u64 = first.pulse.iter().map(RunMetrics::invocations).sum();
        r.note(format!(
            "PULSE minutes at their fastest over {} repetitions: {pulse_s:.3} s; median campaign wall {:.3} s",
            best.reps(),
            plain_wall.median()
        ));
        r.e2e(
            "fn_minutes_per_s",
            scale.runs as f64 * c.fn_minutes / pulse_s,
            "fn-min/s",
            lag.len(),
        );
        r.e2e(
            "decisions_per_s",
            invocations as f64 / pulse_s,
            "1/s",
            lag.len(),
        );
        r.e2e("cost_saving_pct", saving, "%", 4 * scale.runs);
        r.e2e(
            "tick_lag_p50_ms",
            lag.percentile(50.0) / 1e6,
            "ms",
            lag.len(),
        );
        r.e2e("peak_rss_mb", rss, "MB", 1);
        return r;
    }

    r.layer("trace.synth_s", synth_s.median(), "s", synth_s.len());
    traced(&mut r, opts, &c, threads, digest, plain_wall.median());
    r
}

/// Conservation and sanity checks on one campaign's outputs.
fn check_outputs(r: &mut Report, c: &Campaign, u: &Unit) {
    let total = c.trace.total_invocations();
    r.check(
        "warm + cold = invocations in every run",
        u.pulse
            .iter()
            .chain(&u.openwhisk)
            .all(|m| m.warm_starts + m.cold_starts == total),
    );
    r.check(
        "campaigns return one result per run",
        u.pulse.len() == c.cfg.n_runs && u.openwhisk.len() == c.cfg.n_runs,
    );
    r.check(
        "OpenWhisk never downgrades",
        u.openwhisk.iter().all(|m| m.downgrades == 0),
    );
}

/// The traced pass: the same campaign with [`TracedPulse`] and stamped
/// runs, checked bitwise against the untraced outputs.
fn traced(r: &mut Report, opts: &Opts, c: &Campaign, threads: usize, digest: u64, plain: f64) {
    let log: RunSink = Arc::new(Mutex::new(RunLog::default()));
    let core: CoreSink = Arc::new(Mutex::new(CoreTimes::default()));
    let pulse = traced_pulse_factory(Arc::clone(&log), Arc::clone(&core));
    let ow = openwhisk_factory(Some(Arc::clone(&log)));
    let start = Instant::now();
    let mut walls = Samples::new();
    let mut calls: Vec<(Instant, Instant)> = Vec::new();
    let mut same = true;
    while walls.len() < 2 || start.elapsed().as_secs_f64() < opts.seconds * 2.0 / 3.0 {
        r.attempted += 2 * c.cfg.n_runs as u64;
        let Some(u) = c.unit(&pulse, &ow) else {
            r.failed += 2 * c.cfg.n_runs as u64;
            r.check("every traced campaign run completes", false);
            return;
        };
        calls.push((u.marks[0], u.marks[1]));
        calls.push((u.marks[1], u.marks[2]));
        walls.push(u.wall());
        same &= u.digest() == digest;
    }
    r.check(
        "TracedPulse outputs are bitwise equal to PulsePolicy's",
        same,
    );
    let traced_wall = walls.sum();
    let log = std::mem::take(&mut *log.lock().expect("run log lock"));
    let core = std::mem::take(&mut *core.lock().expect("core lock"));

    // Runner: per call, worker time outside runs (a worker that claimed no
    // run idles for the whole call).
    let mut runner_self = 0.0;
    for &(a, b) in &calls {
        let busy: f64 = log
            .runs
            .iter()
            .filter(|s| s.start >= a && s.end <= b)
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum();
        runner_self += threads as f64 * (b - a).as_secs_f64() - busy;
    }
    let span = |pulse: bool| -> Samples {
        log.runs
            .iter()
            .filter(|s| s.pulse == pulse)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    };
    let (pulse_runs, ow_runs) = (span(true), span(false));
    let run_total = pulse_runs.sum() + ow_runs.sum();
    let core_s = core.total_ns() / 1e9;
    let budget = threads as f64 * traced_wall;

    core.report(r, pulse_runs.sum());
    let minutes = &log.minute_ns;
    r.layer(
        "sim.step_minute_us.p50",
        minutes.percentile(50.0) / 1e3,
        "us",
        minutes.len(),
    );
    r.layer(
        "sim.step_minute_us.p99",
        minutes.percentile(99.0) / 1e3,
        "us",
        minutes.len(),
    );
    r.layer(
        "sim.self_frac",
        (pulse_runs.sum() - core_s) / pulse_runs.sum(),
        "frac",
        pulse_runs.len(),
    );
    r.layer(
        "runner.worker_busy_frac",
        run_total / budget,
        "frac",
        log.runs.len(),
    );
    r.layer(
        "runner.run_s.p50",
        pulse_runs.percentile(50.0),
        "s",
        pulse_runs.len(),
    );
    r.layer("runner.run_s.max", pulse_runs.max(), "s", pulse_runs.len());
    r.layer(
        "trace.overhead_frac",
        walls.median() / plain - 1.0,
        "frac",
        walls.len(),
    );
    obs_cost(r, c);

    r.traced_wall_s = budget;
    core.rows(r);
    r.row(
        "pulse-sim::engine (self)",
        run_total - core_s,
        "run spans - core",
    );
    r.row(
        "pulse-sim::runner (self)",
        runner_self,
        "worker time outside runs",
    );
    r.note(format!(
        "traced wall counted in worker-seconds: {threads} workers x {traced_wall:.3} s"
    ));
}

/// JSONL sink cost: OpenWhisk over the first run's assignment with a timed
/// JSONL sink attached; the traced run must match the untraced one.
fn obs_cost(r: &mut Report, c: &Campaign) {
    let mut rng = SmallRng::seed_from_u64(c.cfg.base_seed);
    let fams = random_assignment(&c.zoo, c.trace.n_functions(), &mut rng);
    let sim = Simulator::new(c.trace.clone(), fams.clone());
    let plain = sim.run(&mut OpenWhiskFixed::new(&fams));
    let mut sink = TimedJsonl::default();
    let traced = sim.run_traced(&mut OpenWhiskFixed::new(&fams), &mut sink);
    r.check(
        "a JSONL sink leaves the simulator's outputs unchanged",
        plain == traced,
    );
    sink.report(r);
}
