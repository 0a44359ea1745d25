//! `fleet-10k`: 10 000 functions over two hours under PULSE.
//!
//! Two phases on the same trace: the minute simulator
//! (`SimSession::step_minute`), then the millisecond runtime
//! (`RuntimeSession::step`). Histories are short, so the policy is a small
//! share of the time; ledger metering, the event queue and the tick stages
//! do the rest.

use crate::probe::{CoreSink, CoreTimes, Steps, TimedJsonl, TracedPulse};
use crate::report::Report;
use crate::stats::{ns, peak_rss_mb, setup_secs, Digest, Fastest, Samples, SetupTimer};
use crate::{sub_seed, Opts, DEFAULT_SEED};
use pulse_core::types::PulseConfig;
use pulse_models::{zoo, ModelFamily};
use pulse_runtime::{
    ClusterConfig, FaultPlan, Runtime, RuntimeConfig, RuntimeSummary, MS_PER_MINUTE,
};
use pulse_sim::assignment::random_assignment;
use pulse_sim::policies::{OpenWhiskFixed, PulsePolicy};
use pulse_sim::{RunMetrics, Simulator};
use pulse_trace::synth;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Output digest of the full-scale workload at [`DEFAULT_SEED`].
const DEFAULT_DIGEST: u64 = 0x9a0a_7dbd_8011_6cd9;

struct Fleet {
    sim: Simulator,
    rt: Runtime,
    families: Vec<ModelFamily>,
    fn_minutes: f64,
    invocations: u64,
}

/// Workload size: functions, minutes, up-front set-up repetitions.
fn scale(opts: &Opts) -> (usize, usize, usize) {
    if opts.tiny {
        (200, 30, 1)
    } else {
        (10_000, 120, 3)
    }
}

fn build(opts: &Opts) -> Fleet {
    let (functions, minutes, _) = scale(opts);
    let trace = synth::azure_like_n_with_horizon(functions, opts.seed, minutes);
    let mut rng = SmallRng::seed_from_u64(sub_seed(opts.seed, 2));
    let families = random_assignment(&zoo::standard(), functions, &mut rng);
    let invocations = trace.total_invocations();
    Fleet {
        sim: Simulator::new(trace.clone(), families.clone()),
        rt: Runtime::new(trace, families.clone(), RuntimeConfig::default()),
        families,
        fn_minutes: (functions * minutes) as f64,
        invocations,
    }
}

/// One pass over both engines.
struct Unit {
    sim: RunMetrics,
    rt: RuntimeSummary,
    /// Wall seconds of the simulator and runtime phases.
    walls: [f64; 2],
}

impl Unit {
    fn wall(&self) -> f64 {
        self.walls[0] + self.walls[1]
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        let m = &self.sim;
        d.float(m.keepalive_cost_usd);
        d.float(m.service_time_s);
        d.float(m.accuracy_sum_pct);
        d.word(m.warm_starts);
        d.word(m.cold_starts);
        d.word(m.downgrades);
        let s = &self.rt;
        d.float(s.keepalive_cost_usd);
        d.word(s.requests());
        d.word(s.warm_starts());
        d.word(s.downgrades);
        for x in &s.memory_at_tick_mb {
            d.float(*x);
        }
        d.value()
    }
}

/// Per-minute wall times of both phases of one repetition.
#[derive(Default)]
struct Lags {
    sim_ns: Samples,
    rt_ns: Samples,
}

fn plain_unit(f: &Fleet, lags: &mut Lags) -> Unit {
    let t0 = Instant::now();
    let mut policy = PulsePolicy::new(f.families.clone(), PulseConfig::default());
    let mut session = f.sim.session(&mut policy);
    let mut t = Instant::now();
    while session.step_minute().is_some() {
        let now = Instant::now();
        lags.sim_ns.push(ns(now - t));
        t = now;
    }
    let sim = session.finish();
    let t1 = Instant::now();

    let mut policy = PulsePolicy::new(f.families.clone(), PulseConfig::default());
    let mut session =
        f.rt.session(&mut policy, &FaultPlan::none(), ClusterConfig::unlimited());
    let mut boundary = MS_PER_MINUTE;
    let mut t = Instant::now();
    while let Some(at) = session.peek_time() {
        while at >= boundary {
            let now = Instant::now();
            lags.rt_ns.push(ns(now - t));
            t = now;
            boundary += MS_PER_MINUTE;
        }
        session.step();
    }
    lags.rt_ns.push(ns(t.elapsed()));
    let rt = session.finish();
    let t2 = Instant::now();
    Unit {
        sim,
        rt,
        walls: [(t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64()],
    }
}

/// Per-layer timings of one traced pass.
#[derive(Default)]
struct Traced {
    sim_step_us: Samples,
    steps: Steps,
    core_sim: CoreTimes,
    core_rt: CoreTimes,
    /// Session construction and `finish` of both engines, seconds.
    sessions_s: f64,
}

fn traced_unit(f: &Fleet, tr: &mut Traced) -> Unit {
    let t0 = Instant::now();
    let sink: CoreSink = Arc::default();
    let sim = {
        let mut policy = TracedPulse::new(f.families.clone(), Arc::clone(&sink));
        let a = Instant::now();
        let mut session = f.sim.session(&mut policy);
        tr.sessions_s += a.elapsed().as_secs_f64();
        loop {
            let a = Instant::now();
            let stepped = session.step_minute();
            let d = ns(a.elapsed());
            if stepped.is_none() {
                break;
            }
            tr.sim_step_us.push(d / 1e3);
        }
        let a = Instant::now();
        let m = session.finish();
        tr.sessions_s += a.elapsed().as_secs_f64();
        m
    };
    tr.core_sim
        .merge(&std::mem::take(&mut *sink.lock().expect("core lock")));
    let t1 = Instant::now();
    let rt = {
        let mut policy = TracedPulse::new(f.families.clone(), Arc::clone(&sink));
        let a = Instant::now();
        let mut session =
            f.rt.session(&mut policy, &FaultPlan::none(), ClusterConfig::unlimited());
        tr.sessions_s += a.elapsed().as_secs_f64();
        while tr.steps.timed(&mut session) {}
        let a = Instant::now();
        let summary = session.finish();
        tr.sessions_s += a.elapsed().as_secs_f64();
        summary
    };
    tr.core_rt
        .merge(&std::mem::take(&mut *sink.lock().expect("core lock")));
    let t2 = Instant::now();
    Unit {
        sim,
        rt,
        walls: [(t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64()],
    }
}

/// Run the workload.
pub fn run(opts: &Opts) -> Report {
    let mut r = Report::default();
    let (mut setup, f) = SetupTimer::new(scale(opts).2, || build(opts));
    r.note(format!(
        "fleet-10k: {} functions x {} minutes, {} invocations",
        f.sim.trace().n_functions(),
        f.sim.trace().minutes(),
        f.invocations
    ));

    let budget = if opts.traced {
        opts.seconds / 3.0
    } else {
        opts.seconds
    };
    let mut first: Option<Unit> = None;
    let mut same = true;
    let mut rss = 0.0;
    let mut plain_wall = Samples::new();
    let (mut sim_best, mut rt_best) = (Fastest::default(), Fastest::default());
    let start = Instant::now();
    while plain_wall.len() < 2 || start.elapsed().as_secs_f64() < budget {
        r.attempted += 2 * f.invocations;
        let mut lag = Lags::default();
        let Ok(u) = catch_unwind(AssertUnwindSafe(|| plain_unit(&f, &mut lag))) else {
            r.failed += 2 * f.invocations;
            r.check("both engines complete the fleet run", false);
            return r;
        };
        r.failed += u.rt.failed_requests();
        plain_wall.push(u.wall());
        sim_best.fold(&lag.sim_ns);
        rt_best.fold(&lag.rt_ns);
        match &first {
            None => {
                first = Some(u);
                rss = peak_rss_mb();
            }
            Some(x) => same &= u.digest() == x.digest(),
        }
        setup.sample();
    }
    let (setup_s, n) = setup.figure();
    r.e2e("setup_s", setup_s, "s", n);
    let first = first.expect("at least two repetitions ran");
    let digest = first.digest();
    r.check("every repeat gives bitwise-identical outputs", same);
    r.check(
        "every repeat steps the same minutes",
        sim_best.consistent() && rt_best.consistent(),
    );
    check_outputs(&mut r, &f, &first);
    if opts.seed == DEFAULT_SEED && !opts.tiny {
        r.check(
            format!("output digest {digest:#018x} matches the stored value"),
            digest == DEFAULT_DIGEST,
        );
    }
    let (sim_lag, rt_lag) = (sim_best.samples(), rt_best.samples());
    let step_s = (sim_lag.sum() + rt_lag.sum()) / 1e9;
    r.note(format!(
        "engine minutes at their fastest over {} repetitions: {step_s:.3} s; median repetition wall {:.3} s",
        sim_best.reps(),
        plain_wall.median()
    ));
    r.note(format!(
        "fastest minute times: simulator p50 {:.3} ms p99 {:.3} ms (n={}), runtime p50 {:.3} ms p99 {:.3} ms (n={})",
        sim_lag.percentile(50.0) / 1e6,
        sim_lag.percentile(99.0) / 1e6,
        sim_lag.len(),
        rt_lag.percentile(50.0) / 1e6,
        rt_lag.percentile(99.0) / 1e6,
        rt_lag.len()
    ));
    r.layer(
        "tick_lag_p99_ms",
        rt_lag.percentile(99.0) / 1e6,
        "ms",
        rt_lag.len(),
    );

    if !opts.traced {
        let ow = f.sim.run(&mut OpenWhiskFixed::new(&f.families));
        let saving =
            100.0 * (ow.keepalive_cost_usd - first.sim.keepalive_cost_usd) / ow.keepalive_cost_usd;
        r.check(
            "PULSE keeps models alive for less than OpenWhisk",
            saving > 0.0,
        );
        let steps = sim_lag.len() + rt_lag.len();
        r.e2e(
            "fn_minutes_per_s",
            2.0 * f.fn_minutes / step_s,
            "fn-min/s",
            steps,
        );
        r.e2e(
            "decisions_per_s",
            2.0 * f.invocations as f64 / step_s,
            "1/s",
            steps,
        );
        r.e2e("cost_saving_pct", saving, "%", 2);
        r.e2e(
            "tick_lag_p50_ms",
            rt_lag.percentile(50.0) / 1e6,
            "ms",
            rt_lag.len(),
        );
        r.e2e("peak_rss_mb", rss, "MB", 1);
        return r;
    }

    let (functions, minutes, reps) = scale(opts);
    let (synth_s, _) = setup_secs(reps, || {
        synth::azure_like_n_with_horizon(functions, opts.seed, minutes)
    });
    r.layer("trace.synth_s", synth_s.median(), "s", synth_s.len());
    let mut tr = Traced::default();
    let mut walls = Samples::new();
    let mut same = true;
    let start = Instant::now();
    while walls.len() < 2 || start.elapsed().as_secs_f64() < opts.seconds * 2.0 / 3.0 {
        r.attempted += 2 * f.invocations;
        let u = traced_unit(&f, &mut tr);
        r.failed += u.rt.failed_requests();
        walls.push(u.wall());
        same &= u.digest() == digest;
    }
    r.check(
        "TracedPulse outputs are bitwise equal to PulsePolicy's",
        same,
    );
    layer_metrics(&mut r, &tr, walls.sum());
    r.layer(
        "trace.overhead_frac",
        walls.median() / plain_wall.median() - 1.0,
        "frac",
        walls.len(),
    );
    obs_cost(&mut r, &f, &first.sim);
    r
}

fn check_outputs(r: &mut Report, f: &Fleet, u: &Unit) {
    let (m, s) = (&u.sim, &u.rt);
    r.check(
        "simulator: warm + cold = invocations",
        m.warm_starts + m.cold_starts == f.invocations,
    );
    r.check(
        "runtime: every invocation is served, none fails",
        s.requests() == f.invocations && s.failed_requests() == 0,
    );
    r.check(
        "simulator and runtime agree on warm, cold and downgrades",
        m.warm_starts == s.warm_starts()
            && m.cold_starts == s.cold_starts()
            && m.downgrades == s.downgrades,
    );
    r.check(
        "simulator keep-alive cost equals runtime keep-alive cost",
        (m.keepalive_cost_usd - s.keepalive_cost_usd).abs()
            <= 1e-9 * m.keepalive_cost_usd.abs().max(1.0),
    );
}

fn layer_metrics(r: &mut Report, tr: &Traced, wall: f64) {
    let mut core = tr.core_sim.clone();
    core.merge(&tr.core_rt);
    let sim_s = tr.sim_step_us.sum() / 1e6;
    let rt_s = tr.steps.total_ns() / 1e9;
    core.report(r, sim_s + rt_s);
    let st = &tr.sim_step_us;
    let sim_core = tr.core_sim.total_ns() / 1e9;
    let rt_core = tr.core_rt.total_ns() / 1e9;
    r.layer(
        "sim.step_minute_us.p50",
        st.percentile(50.0),
        "us",
        st.len(),
    );
    r.layer(
        "sim.step_minute_us.p99",
        st.percentile(99.0),
        "us",
        st.len(),
    );
    r.layer(
        "sim.self_frac",
        (sim_s - sim_core) / sim_s,
        "frac",
        st.len(),
    );
    tr.steps.report(r, rt_core * 1e9);

    r.traced_wall_s = wall;
    core.rows(r);
    r.row(
        "pulse-sim::engine (self)",
        sim_s - sim_core,
        "step_minute spans - core",
    );
    r.row("pulse-runtime (self)", rt_s - rt_core, "step spans - core");
    r.row("sessions: build + finish", tr.sessions_s, "timed calls");
}

/// JSONL sink cost: one simulator phase with a timed JSONL sink attached;
/// the traced run must match the untraced one.
fn obs_cost(r: &mut Report, f: &Fleet, plain: &RunMetrics) {
    let mut sink = TimedJsonl::default();
    let mut policy = PulsePolicy::new(f.families.clone(), PulseConfig::default());
    let traced = f.sim.run_traced(&mut policy, &mut sink);
    r.check(
        "a JSONL sink leaves the simulator's outputs unchanged",
        traced.keepalive_cost_usd.to_bits() == plain.keepalive_cost_usd.to_bits()
            && traced.memory_series_mb == plain.memory_series_mb
            && traced.downgrades == plain.downgrades,
    );
    sink.report(r);
}
