//! Probes that time the policy and the engines from outside.
//!
//! * [`TracedPulse`] is a benchmark-side PULSE policy: it drives
//!   [`PulseEngine`] through exactly the calls `pulse_sim::policies::PulsePolicy`
//!   makes, and times each of them. Its outputs must be bitwise equal to
//!   `PulsePolicy`'s; every workload checks that.
//! * [`Stamped`] wraps any policy and stamps the end of every simulated
//!   minute (the `observe_minute` callback) plus the run's lifetime, from
//!   the factory call to the policy's drop. That is how runs inside
//!   `pulse_sim::runner::run_many`, which the benchmark cannot step itself,
//!   are timed.

use crate::report::Report;
use crate::stats::{ns, ns_since, Samples};
use pulse_core::global::{AliveModel, DowngradeAction};
use pulse_core::individual::KeepAliveSchedule;
use pulse_core::types::{FuncId, Minute, PulseConfig};
use pulse_core::PulseEngine;
use pulse_models::{ModelFamily, VariantId};
use pulse_obs::{JsonlSink, ObsEvent, TraceSink};
use pulse_runtime::{Event, RuntimeSession};
use pulse_sim::policy::{KeepAlivePolicy, MinuteObservation};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Time spent in the policy layer (`pulse-core`), by public call.
#[derive(Debug, Clone, Default)]
pub struct CoreTimes {
    /// `record_invocation` + `schedule_after_invocation`, ns per call.
    pub schedule_ns: Samples,
    /// Total ns filling invocation probabilities for alive models.
    pub ip_fill_ns: f64,
    /// `invocation_probability_at` calls.
    pub ip_fill_calls: u64,
    /// `check_and_flatten`, µs per call.
    pub flatten_us: Samples,
    /// `check_and_flatten` calls that found a peak.
    pub peaks: u64,
    /// Downgrade/evict actions returned.
    pub actions: u64,
}

impl CoreTimes {
    /// Fold `other` in.
    pub fn merge(&mut self, other: &CoreTimes) {
        self.schedule_ns.extend(&other.schedule_ns);
        self.ip_fill_ns += other.ip_fill_ns;
        self.ip_fill_calls += other.ip_fill_calls;
        self.flatten_us.extend(&other.flatten_us);
        self.peaks += other.peaks;
        self.actions += other.actions;
    }

    /// Nanoseconds inside the schedule calls.
    pub fn schedule_total_ns(&self) -> f64 {
        self.schedule_ns.sum()
    }

    /// Nanoseconds inside `check_and_flatten`.
    pub fn flatten_total_ns(&self) -> f64 {
        self.flatten_us.sum() * 1e3
    }

    /// Nanoseconds inside the policy layer.
    pub fn total_ns(&self) -> f64 {
        self.schedule_total_ns() + self.ip_fill_ns + self.flatten_total_ns()
    }

    /// Record the `core.*` metrics; `step_s` is the engine step time the
    /// policy ran inside.
    pub fn report(&self, r: &mut Report, step_s: f64) {
        let sched = &self.schedule_ns;
        let flat = &self.flatten_us;
        r.layer(
            "core.schedule_ns.p50",
            sched.percentile(50.0),
            "ns",
            sched.len(),
        );
        r.layer(
            "core.schedule_ns.p99",
            sched.percentile(99.0),
            "ns",
            sched.len(),
        );
        r.layer(
            "core.schedule_calls",
            sched.len() as f64,
            "count",
            sched.len(),
        );
        r.layer(
            "core.ip_fill_ns.mean",
            self.ip_fill_ns / self.ip_fill_calls.max(1) as f64,
            "ns",
            self.ip_fill_calls as usize,
        );
        r.layer("core.ip_fill_calls", self.ip_fill_calls as f64, "count", 1);
        r.layer(
            "core.flatten_us.p50",
            flat.percentile(50.0),
            "us",
            flat.len(),
        );
        r.layer(
            "core.flatten_us.p99",
            flat.percentile(99.0),
            "us",
            flat.len(),
        );
        r.layer("core.flatten_calls", flat.len() as f64, "count", flat.len());
        r.layer(
            "core.peak_frac",
            self.peaks as f64 / flat.len().max(1) as f64,
            "frac",
            flat.len(),
        );
        r.layer("core.actions", self.actions as f64, "count", 1);
        r.layer(
            "core.policy_frac",
            self.total_ns() / 1e9 / step_s,
            "frac",
            1,
        );
    }

    /// The policy layer's self-time rows.
    pub fn rows(&self, r: &mut Report) {
        r.row(
            "pulse-core: record+schedule",
            self.schedule_total_ns() / 1e9,
            "timed calls",
        );
        r.row(
            "pulse-core: invocation_probability_at",
            self.ip_fill_ns / 1e9,
            "timed loop",
        );
        r.row(
            "pulse-core: check_and_flatten",
            self.flatten_total_ns() / 1e9,
            "timed calls",
        );
    }
}

/// Shared collector for policies built inside `run_many` workers.
pub type CoreSink = Arc<Mutex<CoreTimes>>;

/// PULSE, timed call by call. Merges its timings into the shared sink when
/// dropped.
#[derive(Debug)]
pub struct TracedPulse {
    engine: PulseEngine,
    times: CoreTimes,
    sink: CoreSink,
}

impl TracedPulse {
    /// PULSE over `families` with the default configuration.
    pub fn new(families: Vec<ModelFamily>, sink: CoreSink) -> Self {
        Self {
            engine: PulseEngine::new(families, PulseConfig::default()),
            times: CoreTimes::default(),
            sink,
        }
    }
}

impl Drop for TracedPulse {
    fn drop(&mut self) {
        if let Ok(mut s) = self.sink.lock() {
            s.merge(&self.times);
        }
    }
}

impl KeepAlivePolicy for TracedPulse {
    fn name(&self) -> &str {
        "pulse"
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        let t0 = Instant::now();
        self.engine.record_invocation(f, t);
        let s = self.engine.schedule_after_invocation(f, t);
        self.times.schedule_ns.push(ns_since(t0));
        s
    }

    fn cold_start_variant(&mut self, f: FuncId, _t: Minute) -> VariantId {
        self.engine.family(f).highest_id()
    }

    fn adjust_minute(
        &mut self,
        t: Minute,
        mem_history: &[f64],
        first_minute_of_period: bool,
        current_kam_mb: f64,
        alive: &mut Vec<AliveModel>,
    ) -> Vec<DowngradeAction> {
        let t0 = Instant::now();
        for m in alive.iter_mut() {
            m.invocation_probability = self.engine.invocation_probability_at(m.func, t);
        }
        self.times.ip_fill_ns += ns_since(t0);
        self.times.ip_fill_calls += alive.len() as u64;
        let t1 = Instant::now();
        let outcome = self.engine.check_and_flatten(
            mem_history,
            first_minute_of_period,
            current_kam_mb,
            alive,
        );
        self.times.flatten_us.push(ns_since(t1) / 1e3);
        match outcome {
            Some(o) => {
                self.times.peaks += 1;
                self.times.actions += o.actions.len() as u64;
                o.actions
            }
            None => Vec::new(),
        }
    }
}

/// `RuntimeSession::step` wall times by event kind.
#[derive(Debug, Default)]
pub struct Steps {
    /// Minute-tick steps, µs each.
    pub tick_us: Samples,
    /// Arrival steps, ns each.
    pub arrival_ns: Samples,
    /// Provisioning completions stepped.
    pub provision_done: u64,
    /// Execution completions stepped.
    pub exec_done: u64,
    /// Other events stepped.
    pub other: u64,
    /// ns in steps that were neither ticks nor arrivals.
    pub rest_ns: f64,
}

impl Steps {
    /// Step `session` once, timing the call; false once its queue is empty.
    pub fn timed(&mut self, session: &mut RuntimeSession<'_>) -> bool {
        let t0 = Instant::now();
        let stepped = session.step();
        let d = ns(t0.elapsed());
        let Some((_, event)) = stepped else {
            return false;
        };
        match event {
            Event::MinuteTick { .. } => self.tick_us.push(d / 1e3),
            Event::Arrival { .. } => self.arrival_ns.push(d),
            e => {
                self.rest_ns += d;
                match e {
                    Event::ProvisionDone { .. } => self.provision_done += 1,
                    Event::ExecDone { .. } => self.exec_done += 1,
                    _ => self.other += 1,
                }
            }
        }
        true
    }

    /// ns in every step.
    pub fn total_ns(&self) -> f64 {
        self.tick_us.sum() * 1e3 + self.arrival_ns.sum() + self.rest_ns
    }

    /// Record the `runtime.*` metrics; `core_ns` is the policy time inside
    /// the steps.
    pub fn report(&self, r: &mut Report, core_ns: f64) {
        let (tick, arr) = (&self.tick_us, &self.arrival_ns);
        let total = self.total_ns();
        r.layer(
            "runtime.step_tick_us.p50",
            tick.percentile(50.0),
            "us",
            tick.len(),
        );
        r.layer(
            "runtime.step_tick_us.p99",
            tick.percentile(99.0),
            "us",
            tick.len(),
        );
        r.layer("runtime.self_frac", (total - core_ns) / total, "frac", 1);
        r.layer(
            "runtime.step_arrival_ns.p50",
            arr.percentile(50.0),
            "ns",
            arr.len(),
        );
        r.layer(
            "runtime.step_arrival_ns.p99",
            arr.percentile(99.0),
            "ns",
            arr.len(),
        );
        r.layer("runtime.events.minute_tick", tick.len() as f64, "count", 1);
        r.layer("runtime.events.arrival", arr.len() as f64, "count", 1);
        r.layer(
            "runtime.events.provision_done",
            self.provision_done as f64,
            "count",
            1,
        );
        r.layer(
            "runtime.events.exec_done",
            self.exec_done as f64,
            "count",
            1,
        );
        r.layer("runtime.events.other", self.other as f64, "count", 1);
    }
}

/// A JSONL sink writing to `io::sink`, with its own time per event
/// measured around each `record` call.
#[derive(Debug)]
pub struct TimedJsonl {
    inner: JsonlSink<std::io::Sink>,
    ns: f64,
}

impl Default for TimedJsonl {
    fn default() -> Self {
        Self {
            inner: JsonlSink::new(std::io::sink()),
            ns: 0.0,
        }
    }
}

impl TimedJsonl {
    /// Events written.
    pub fn events(&self) -> u64 {
        self.inner.lines()
    }

    /// Record the `obs.*` metrics.
    pub fn report(&self, r: &mut Report) {
        let n = self.events();
        r.layer("obs.events", n as f64, "count", 1);
        r.layer(
            "obs.jsonl_ns_per_event",
            self.ns / n.max(1) as f64,
            "ns",
            n as usize,
        );
    }
}

impl TraceSink for TimedJsonl {
    fn record(&mut self, event: &ObsEvent) {
        let t0 = Instant::now();
        self.inner.record(event);
        self.ns += ns_since(t0);
    }
}

/// One run's lifetime, from its factory call to its policy's drop.
#[derive(Debug, Clone, Copy)]
pub struct RunSpan {
    /// Factory call.
    pub start: Instant,
    /// Policy drop.
    pub end: Instant,
    /// Whether the run was a PULSE run (the baseline's are not).
    pub pulse: bool,
}

/// What [`Stamped`] policies leave behind.
#[derive(Debug, Default)]
pub struct RunLog {
    /// Every finished run.
    pub runs: Vec<RunSpan>,
    /// Wall ns of each simulated minute of the PULSE runs.
    pub minute_ns: Samples,
}

/// Shared collector for [`Stamped`] policies.
pub type RunSink = Arc<Mutex<RunLog>>;

/// A policy wrapper that stamps minute ends and the run's lifetime.
pub struct Stamped<P> {
    inner: P,
    sink: RunSink,
    pulse: bool,
    start: Instant,
    last: Instant,
    minute_ns: Samples,
}

impl<P: KeepAlivePolicy> Stamped<P> {
    /// Wrap `inner`; `pulse` marks the runs whose minutes are kept.
    pub fn new(inner: P, sink: RunSink, pulse: bool) -> Self {
        let now = Instant::now();
        Self {
            inner,
            sink,
            pulse,
            start: now,
            last: now,
            minute_ns: Samples::new(),
        }
    }
}

impl<P> Drop for Stamped<P> {
    fn drop(&mut self) {
        let end = Instant::now();
        if let Ok(mut log) = self.sink.lock() {
            log.runs.push(RunSpan {
                start: self.start,
                end,
                pulse: self.pulse,
            });
            if self.pulse {
                log.minute_ns.extend(&self.minute_ns);
            }
        }
    }
}

impl<P: KeepAlivePolicy> KeepAlivePolicy for Stamped<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        self.inner.schedule_on_invocation(f, t)
    }

    fn cold_start_variant(&mut self, f: FuncId, t: Minute) -> VariantId {
        self.inner.cold_start_variant(f, t)
    }

    fn adjust_minute(
        &mut self,
        t: Minute,
        mem_history: &[f64],
        first_minute_of_period: bool,
        current_kam_mb: f64,
        alive: &mut Vec<AliveModel>,
    ) -> Vec<DowngradeAction> {
        self.inner.adjust_minute(
            t,
            mem_history,
            first_minute_of_period,
            current_kam_mb,
            alive,
        )
    }

    fn observe_minute(&mut self, obs: &MinuteObservation) {
        self.inner.observe_minute(obs);
        if self.pulse {
            let now = Instant::now();
            self.minute_ns.push(crate::stats::ns(now - self.last));
            self.last = now;
        }
    }

    fn in_fallback(&self) -> bool {
        self.inner.in_fallback()
    }
}
