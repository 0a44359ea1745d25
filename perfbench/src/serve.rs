//! `serve-bursty`: a bursty open-loop stream over 12 functions, served live
//! under PULSE.
//!
//! Two phases on the same stream:
//!
//! * (a) paced at a fixed mean offered rate below capacity — a sink stamps
//!   each `serve_tick` against the wall time its minute was due;
//! * (b) unpaced, with a channel that holds the whole stream — capacity.
//!
//! It is the only workload that runs the transport (producer thread,
//! bounded channel, `recv_timeout` poll) and millions of arrival steps.

use crate::probe::{CoreSink, CoreTimes, Steps, TimedJsonl, TracedPulse};
use crate::report::Report;
use crate::stats::{fastest_share, ns, peak_rss_mb, pick, Digest, Fastest, Samples, SetupTimer};
use crate::{Opts, DEFAULT_SEED};
use pulse_core::types::PulseConfig;
use pulse_models::{zoo, ModelFamily};
use pulse_obs::{ObsEvent, TraceSink};
use pulse_runtime::{Runtime, RuntimeSummary, MS_PER_MINUTE};
use pulse_serve::{
    replay, serve_live, ArrivalStream, LiveOptions, LoadGenConfig, LoadMode, ServeConfig,
    ServeReport,
};
use pulse_sim::assignment::round_robin_assignment;
use pulse_sim::policies::{OpenWhiskFixed, PulsePolicy};
use pulse_sim::KeepAlivePolicy;
use pulse_trace::synth::Archetype;
use pulse_trace::{FunctionTrace, Trace};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Output digest of the full-scale replay at [`DEFAULT_SEED`].
const DEFAULT_DIGEST: u64 = 0x9f5f_1434_2ddd_be45;

const FUNCTIONS: usize = 12;

/// Channel slots in phase (a): a backlog this deep means a stall of tens of
/// milliseconds at the paced rate.
const PACED_CHANNEL: usize = 1 << 16;

/// Ticks per window. The tick-lag figures are the medians of the per-window
/// p50 and p99 over the calmest third of the windows (lowest p99), so a
/// disturbed stretch of the run moves some windows, not the figures.
const LAG_WINDOW: usize = 1_000;

/// Workload size.
#[derive(Debug, Clone, Copy)]
struct Scale {
    minutes: usize,
    archetype: Archetype,
    /// Mean offered rate of phase (a), arrivals per wall second.
    paced_rate: f64,
    setup_reps: usize,
}

impl Scale {
    fn of(opts: &Opts) -> Self {
        if opts.tiny {
            Self {
                minutes: 240,
                archetype: Archetype::Bursty {
                    quiet_min: 11,
                    burst_len_min: 1,
                    burst_rate: 50.0,
                },
                paced_rate: 50_000.0,
                setup_reps: 1,
            }
        } else {
            // One burst minute per function every two hours: bursts rarely
            // overlap, so about 10% of minutes carry all the load (near
            // capacity while they last) and the lulls between them run
            // several 5 ms polls.
            Self {
                minutes: 6_000,
                archetype: Archetype::Bursty {
                    quiet_min: 119,
                    burst_len_min: 1,
                    burst_rate: 1_000.0,
                },
                paced_rate: 100_000.0,
                setup_reps: 5,
            }
        }
    }

    fn mode(&self) -> LoadMode {
        match self.archetype {
            Archetype::Bursty {
                quiet_min,
                burst_len_min,
                burst_rate,
            } => LoadMode::Bursty {
                quiet_min,
                burst_len_min,
                burst_rate,
            },
            _ => unreachable!("serve-bursty streams are bursty"),
        }
    }
}

/// Stamps each `serve_tick` against its paced schedule. The producer's
/// start is not observable from outside, so the schedule is anchored at the
/// promptest tick: [`LagSink::lags_ms`] puts the tick that completed
/// soonest after its slot at zero lag. Ticks after the last arrival's
/// minute are left out: once the producer is done, `serve_live` runs the
/// rest of the timeline without pacing.
#[derive(Debug)]
struct LagSink {
    /// Wall ns per virtual minute.
    minute_wall_ns: f64,
    /// Minute of the stream's last arrival.
    last_minute: u64,
    origin: Option<Instant>,
    /// Completion time of each tick minus its slot, from `serve_start`, ns.
    offsets_ns: Vec<f64>,
    max_depth: usize,
}

impl LagSink {
    fn new(speedup: f64, last_minute: u64) -> Self {
        Self {
            minute_wall_ns: MS_PER_MINUTE as f64 * 1e6 / speedup,
            last_minute,
            origin: None,
            offsets_ns: Vec::new(),
            max_depth: 0,
        }
    }

    /// Lag of every tick, ms, in minute order.
    fn lags_ms(&self) -> Vec<f64> {
        let anchor = self
            .offsets_ns
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        self.offsets_ns.iter().map(|o| (o - anchor) / 1e6).collect()
    }
}

impl TraceSink for LagSink {
    fn record(&mut self, event: &ObsEvent) {
        let now = Instant::now();
        match *event {
            ObsEvent::ServeStart { .. } => self.origin = Some(now),
            ObsEvent::ServeTick {
                minute,
                queue_depth,
                ..
            } => {
                if let Some(origin) = self.origin.filter(|_| minute <= self.last_minute) {
                    self.offsets_ns
                        .push(ns(now - origin) - minute as f64 * self.minute_wall_ns);
                }
                self.max_depth = self.max_depth.max(queue_depth);
            }
            _ => {}
        }
    }
}

/// Stamps an unpaced pass at `serve_start` and at each `serve_tick`; with
/// a stamp when `serve_live` returns, the intervals are the pass's
/// stretches between minute ticks, the same work in every pass.
#[derive(Debug, Default)]
struct TickClock {
    last: Option<Instant>,
    /// Wall ns of each stretch, in order.
    stretches: Samples,
}

impl TickClock {
    /// Close the last stretch.
    fn close(&mut self) {
        if let Some(last) = self.last.take() {
            self.stretches.push(ns(last.elapsed()));
        }
    }
}

impl TraceSink for TickClock {
    fn record(&mut self, event: &ObsEvent) {
        if matches!(
            event,
            ObsEvent::ServeStart { .. } | ObsEvent::ServeTick { .. }
        ) {
            let now = Instant::now();
            if let Some(last) = self.last {
                self.stretches.push(ns(now - last));
            }
            self.last = Some(now);
        }
    }
}

struct Serve {
    stream: ArrivalStream,
    families: Vec<ModelFamily>,
    config: ServeConfig,
    /// Virtual ms per wall ms in phase (a).
    speedup: f64,
}

impl Serve {
    fn offered(&self) -> u64 {
        self.stream.len() as u64
    }

    /// One live pass; returns the report and its wall seconds. Paced
    /// passes get a channel of [`PACED_CHANNEL`] slots, unpaced ones a
    /// channel that holds the whole stream.
    fn live(
        &self,
        policy: &mut dyn KeepAlivePolicy,
        speedup: Option<f64>,
        sink: Option<&mut dyn TraceSink>,
    ) -> (ServeReport, f64) {
        let stream = self.stream.clone();
        let opts = LiveOptions {
            channel_capacity: if speedup.is_some() {
                PACED_CHANNEL
            } else {
                stream.len() + 1
            },
            speedup,
        };
        let t0 = Instant::now();
        let rep = serve_live(
            stream,
            self.families.clone(),
            policy,
            &self.config,
            &opts,
            "bench",
            sink,
        );
        (rep, t0.elapsed().as_secs_f64())
    }

    fn replay(
        &self,
        policy: &mut dyn KeepAlivePolicy,
        sink: Option<&mut dyn TraceSink>,
    ) -> RuntimeSummary {
        replay(
            &self.stream,
            self.families.clone(),
            policy,
            &self.config,
            sink,
        )
    }

    /// Drive a runtime session on this thread exactly as the unpaced live
    /// consumer does: admit each arrival at the running maximum of the
    /// timestamps seen (the live virtual clock never runs backwards), then
    /// step every event due by then. Each step is timed by event kind.
    fn redrive(&self, policy: &mut dyn KeepAlivePolicy, steps: &mut Steps) -> RuntimeSummary {
        let zero = Trace::new(
            self.stream
                .trace()
                .functions()
                .iter()
                .map(|f| FunctionTrace::new(f.name.clone(), vec![0; f.per_minute.len()]))
                .collect(),
        );
        let rt = Runtime::new(zero, self.families.clone(), self.config.runtime);
        let mut session = rt.session(policy, &self.config.plan, self.config.cluster);
        let mut cursor = 0;
        for a in self.stream.arrivals() {
            cursor = a.at_ms.max(cursor);
            session.admit_at(cursor, a.func);
            while session.peek_time().is_some_and(|t| t <= cursor) {
                steps.timed(&mut session);
            }
        }
        while steps.timed(&mut session) {}
        session.finish()
    }
}

fn summary_digest(s: &RuntimeSummary) -> u64 {
    let mut d = Digest::default();
    d.float(s.keepalive_cost_usd);
    d.word(s.downgrades);
    d.word(s.shed_requests);
    for r in &s.records {
        d.word(r.arrival_ms);
        d.word(r.done_ms);
        d.word(u64::from(r.warm));
        d.word(u64::from(r.failed));
        d.float(r.accuracy_pct);
    }
    for x in &s.memory_at_tick_mb {
        d.float(*x);
    }
    d.value()
}

/// Account one live pass; true when every arrival was admitted and served.
fn account(r: &mut Report, s: &Serve, rep: &ServeReport) -> bool {
    r.attempted += s.offered();
    r.failed += rep.front_door_dropped + rep.engine_shed + rep.summary.failed_requests();
    rep.admitted + rep.front_door_dropped == s.offered()
        && rep.summary.requests() == rep.admitted
        && rep.front_door_dropped + rep.engine_shed + rep.summary.failed_requests() == 0
}

/// A PULSE policy for one pass: plain, or timed into `core`.
fn policy(s: &Serve, core: Option<&CoreSink>) -> Box<dyn KeepAlivePolicy> {
    match core {
        Some(c) => Box::new(TracedPulse::new(s.families.clone(), Arc::clone(c))),
        None => Box::new(PulsePolicy::new(s.families.clone(), PulseConfig::default())),
    }
}

/// Phase (a) results.
#[derive(Default)]
struct Paced {
    /// p50 and p99 of each window of [`LAG_WINDOW`] consecutive ticks.
    window_p50: Samples,
    window_p99: Samples,
    busy: Samples,
    max_depth: usize,
    /// Offered, admitted, front-door dropped, engine shed.
    totals: [u64; 4],
    ok: bool,
}

fn paced(r: &mut Report, s: &Serve, passes: usize, setup: &mut SetupTimer) -> Paced {
    let mut out = Paced {
        ok: true,
        ..Paced::default()
    };
    let last = s
        .stream
        .arrivals()
        .last()
        .map_or(0, |a| a.at_ms / MS_PER_MINUTE);
    for _ in 0..passes {
        let mut sink = LagSink::new(s.speedup, last);
        let mut p = PulsePolicy::new(s.families.clone(), PulseConfig::default());
        let (rep, wall) = s.live(&mut p, Some(s.speedup), Some(&mut sink));
        out.ok &= account(r, s, &rep);
        let lags = sink.lags_ms();
        // A short (smoke-test) pass is one window.
        for w in lags.chunks_exact(LAG_WINDOW.min(lags.len()).max(1)) {
            let win: Samples = w.iter().copied().collect();
            out.window_p50.push(win.percentile(50.0));
            out.window_p99.push(win.percentile(99.0));
        }
        out.max_depth = out.max_depth.max(sink.max_depth);
        out.busy
            .push((rep.decision_ns.sum() + rep.tick_ns.sum()) as f64 / 1e9 / wall);
        let seen = [
            s.offered(),
            rep.admitted,
            rep.front_door_dropped,
            rep.engine_shed,
        ];
        for (t, v) in out.totals.iter_mut().zip(seen) {
            *t += v;
        }
        setup.sample();
    }
    out
}

/// Phase (b) results.
#[derive(Default)]
struct Unpaced {
    /// Peak RSS after the first pass, MB.
    rss_mb: f64,
    rate: Samples,
    walls: Samples,
    /// Fastest time of each stretch between consecutive ticks.
    stretches: Fastest,
    digests: Vec<u64>,
    decision_ns: (u64, u64),
    tick_ns: (u64, u64),
    ok: bool,
}

fn unpaced(
    r: &mut Report,
    s: &Serve,
    until: f64,
    start: Instant,
    core: Option<&CoreSink>,
    setup: &mut SetupTimer,
) -> Unpaced {
    let mut out = Unpaced {
        ok: true,
        ..Unpaced::default()
    };
    while out.rate.len() < 3 || start.elapsed().as_secs_f64() < until {
        let mut p = policy(s, core);
        let mut clock = TickClock::default();
        let (rep, wall) = s.live(p.as_mut(), None, Some(&mut clock));
        clock.close();
        out.ok &= account(r, s, &rep);
        out.rate.push(rep.admitted as f64 / wall);
        out.walls.push(wall);
        out.stretches.fold(&clock.stretches);
        out.digests.push(summary_digest(&rep.summary));
        if out.walls.len() == 1 {
            out.rss_mb = peak_rss_mb();
        }
        out.decision_ns.0 += rep.decision_ns.sum();
        out.decision_ns.1 += rep.decision_ns.count();
        out.tick_ns.0 += rep.tick_ns.sum();
        out.tick_ns.1 += rep.tick_ns.count();
        setup.sample();
    }
    out
}

/// Run the workload.
pub fn run(opts: &Opts) -> Report {
    let scale = Scale::of(opts);
    let mut r = Report::default();
    let cfg = LoadGenConfig {
        functions: FUNCTIONS,
        minutes: scale.minutes,
        mode: scale.mode(),
        seed: opts.seed,
    };
    let (mut setup, stream) = SetupTimer::new(scale.setup_reps, || ArrivalStream::generate(&cfg));
    let virtual_s = (scale.minutes as u64 * MS_PER_MINUTE) as f64 / 1e3;
    let s = Serve {
        speedup: scale.paced_rate * virtual_s / stream.len().max(1) as f64,
        families: round_robin_assignment(&zoo::standard(), FUNCTIONS),
        config: ServeConfig::default(),
        stream,
    };
    r.note(format!(
        "serve-bursty: {FUNCTIONS} functions x {} minutes, {} arrivals; phase (a) paced at {} arrivals/s (speedup {:.0})",
        scale.minutes,
        s.offered(),
        scale.paced_rate,
        s.speedup
    ));
    let start = Instant::now();

    // Phase (a) gets about 40% of the budget, phase (b) the rest (traced
    // runs split phase (b) into untraced and traced passes).
    let pass_s = s.offered() as f64 / scale.paced_rate;
    let passes_a = ((opts.seconds * 0.4 / pass_s).round() as usize).max(1);
    let a = paced(&mut r, &s, passes_a, &mut setup);
    r.check(
        "phase (a): every arrival admitted and served, none dropped or shed",
        a.ok,
    );
    let b_until = if opts.traced { 0.6 } else { 1.0 } * opts.seconds;
    let b = unpaced(&mut r, &s, b_until, start, None, &mut setup);
    let (setup_s, n) = setup.figure();
    r.e2e("setup_s", setup_s, "s", n);
    r.check(
        "phase (b): every arrival admitted and served, none dropped or shed",
        b.ok,
    );
    r.check(
        "phase (b): every pass gives a bitwise-identical summary",
        b.digests.iter().all(|d| *d == b.digests[0]),
    );
    r.check(
        "phase (b): every pass ticks every minute",
        b.stretches.consistent() && b.stretches.len() == scale.minutes + 1,
    );

    let mut steps = Steps::default();
    let core_re: CoreSink = Arc::default();
    let redriven = {
        let mut p = policy(&s, opts.traced.then_some(&core_re));
        s.redrive(p.as_mut(), &mut steps)
    };
    r.check(
        "phase (b) summary equals a synchronous re-drive of the stream, bitwise",
        summary_digest(&redriven) == b.digests[0],
    );
    let replayed = s.replay(
        &mut PulsePolicy::new(s.families.clone(), PulseConfig::default()),
        None,
    );
    let replay_digest = summary_digest(&replayed);
    if opts.seed == DEFAULT_SEED && !opts.tiny {
        r.check(
            format!("replay digest {replay_digest:#018x} matches the stored value"),
            replay_digest == DEFAULT_DIGEST,
        );
    }
    for (what, sum) in [("replay", &replayed), ("re-drive", &redriven)] {
        r.check(
            format!("{what}: warm + cold = requests = offered, none failed"),
            sum.warm_starts() + sum.cold_starts() == s.offered()
                && sum.requests() == s.offered()
                && sum.failed_requests() == 0,
        );
    }

    // The calmest third of the windows.
    let calm = fastest_share(&a.window_p99, 3);
    let ticks = calm.len() * LAG_WINDOW;
    r.layer(
        "tick_lag_p99_ms",
        pick(&a.window_p99, &calm).median(),
        "ms",
        ticks,
    );
    if !opts.traced {
        let base = s.replay(&mut OpenWhiskFixed::new(&s.families), None);
        let saving = 100.0 * (base.keepalive_cost_usd - replayed.keepalive_cost_usd)
            / base.keepalive_cost_usd;
        r.check(
            "PULSE keeps models alive for less than OpenWhisk",
            saving > 0.0,
        );
        let stretches = b.stretches.samples();
        let pass_s = stretches.sum() / 1e9;
        r.note(format!(
            "phase (b) stretches between ticks at their fastest over {} passes: {pass_s:.4} s a pass; median pass wall {:.4} s, {:.0} decisions/s",
            b.stretches.reps(),
            b.walls.median(),
            b.rate.median()
        ));
        let fn_minutes = (FUNCTIONS * scale.minutes) as f64;
        r.e2e(
            "fn_minutes_per_s",
            fn_minutes / pass_s,
            "fn-min/s",
            stretches.len(),
        );
        r.e2e(
            "decisions_per_s",
            s.offered() as f64 / pass_s,
            "1/s",
            stretches.len(),
        );
        r.e2e("cost_saving_pct", saving, "%", 2);
        r.e2e(
            "tick_lag_p50_ms",
            pick(&a.window_p50, &calm).median(),
            "ms",
            ticks,
        );
        r.e2e("peak_rss_mb", b.rss_mb, "MB", 1);
        return r;
    }

    // Traced pass: phase (b) again with TracedPulse.
    let core_b: CoreSink = Arc::default();
    let tb = unpaced(&mut r, &s, opts.seconds, start, Some(&core_b), &mut setup);
    r.check(
        "TracedPulse outputs are bitwise equal to PulsePolicy's",
        tb.ok && tb.digests.iter().all(|d| *d == b.digests[0]),
    );
    let take = |c: &CoreSink| std::mem::take(&mut *c.lock().expect("core lock"));
    let core_b = take(&core_b);
    let core_re = take(&core_re);
    traced_metrics(&mut r, &s, &a, &tb, &core_b, &core_re, &steps, setup.secs());
    r.layer(
        "trace.overhead_frac",
        tb.walls.median() / b.walls.median() - 1.0,
        "frac",
        tb.walls.len(),
    );
    obs_cost(&mut r, &s, replay_digest);
    synth_check(&mut r, &s, scale, opts.seed);
    r
}

#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    r: &mut Report,
    s: &Serve,
    a: &Paced,
    tb: &Unpaced,
    core_b: &CoreTimes,
    core_re: &CoreTimes,
    steps: &Steps,
    gen_s: &Samples,
) {
    let step_ns = (tb.decision_ns.0 + tb.tick_ns.0) as f64;
    core_b.report(r, step_ns / 1e9);
    r.layer(
        "serve.decision_ns.mean",
        tb.decision_ns.0 as f64 / tb.decision_ns.1.max(1) as f64,
        "ns",
        tb.decision_ns.1 as usize,
    );
    r.layer(
        "serve.tick_ns.mean",
        tb.tick_ns.0 as f64 / tb.tick_ns.1.max(1) as f64,
        "ns",
        tb.tick_ns.1 as usize,
    );
    r.layer(
        "serve.consumer_busy_frac",
        a.busy.median(),
        "frac",
        a.busy.len(),
    );
    r.layer(
        "serve.queue_depth.max",
        a.max_depth as f64,
        "count",
        a.busy.len(),
    );
    for (name, v) in [
        "serve.offered",
        "serve.admitted",
        "serve.front_door_dropped",
        "serve.engine_shed",
    ]
    .into_iter()
    .zip(a.totals)
    {
        r.layer(name, v as f64, "count", a.busy.len());
    }
    steps.report(r, core_re.total_ns());
    r.layer("loadgen.generate_s", gen_s.median(), "s", gen_s.len());
    r.layer("loadgen.arrivals", s.offered() as f64, "count", 1);

    // Self time of the traced phase (b) passes. serve_live times only the
    // arrival and tick steps; the other engine events are charged at the
    // re-drive's per-event mean.
    let wall = tb.walls.sum();
    let passes = tb.walls.len() as f64;
    let core_s = core_b.total_ns() / 1e9;
    let rest_s = passes * steps.rest_ns / 1e9;
    r.traced_wall_s = wall;
    core_b.rows(r);
    r.row(
        "pulse-runtime: arrival + tick steps (self)",
        step_ns / 1e9 - core_s,
        "serve_live step histograms - core",
    );
    r.row(
        "pulse-runtime: other events",
        rest_s,
        "re-drive per-event time",
    );
    r.row(
        "pulse-serve::engine transport",
        wall - step_ns / 1e9 - rest_s,
        "pass wall - engine steps (derived)",
    );
}

/// JSONL sink cost: replay with a timed JSONL sink attached; the traced
/// replay must match the untraced one.
fn obs_cost(r: &mut Report, s: &Serve, plain: u64) {
    let mut sink = TimedJsonl::default();
    let mut p = PulsePolicy::new(s.families.clone(), PulseConfig::default());
    let traced = s.replay(&mut p, Some(&mut sink));
    r.check(
        "a JSONL sink leaves the replay's outputs unchanged",
        summary_digest(&traced) == plain,
    );
    sink.report(r);
}

/// `pulse-trace` synthesis, timed on its own: the load generator draws each
/// function's count series from the bursty archetype with one seeded
/// generator, so drawing them here must reproduce the stream's trace.
fn synth_check(r: &mut Report, s: &Serve, scale: Scale, seed: u64) {
    let t0 = Instant::now();
    let mut rng = SmallRng::seed_from_u64(seed);
    let counts: Vec<Vec<u32>> = (0..FUNCTIONS)
        .map(|_| scale.archetype.generate(scale.minutes, &mut rng))
        .collect();
    let synth_s = t0.elapsed().as_secs_f64();
    r.layer("trace.synth_s", synth_s, "s", 1);
    r.check(
        "pulse-trace synthesis reproduces the load generator's counts",
        counts
            .iter()
            .zip(s.stream.trace().functions())
            .all(|(c, f)| *c == f.per_minute),
    );
}
