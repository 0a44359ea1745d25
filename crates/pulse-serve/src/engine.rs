//! The online serving engine.
//!
//! Transport and policy logic are strictly split:
//!
//! * the **transport** is a bounded `std::sync::mpsc::sync_channel` between
//!   an open-loop producer (the load generator) and the single consumer
//!   thread that owns the engine. A full channel means arrivals are *dropped at the front door*
//!   and counted — the producer never blocks and nothing queues unbounded;
//! * the **policy logic** is the untouched [`pulse_runtime::RuntimeSession`]:
//!   every admitted request goes through [`RuntimeSession::admit_at`] into
//!   the exact event machinery the offline engines run, including the
//!   engine-side [`AdmissionControl`] backpressure tier.
//!
//! Two clocks, two modes. [`replay`] drives the session on the *simulated*
//! clock only — no wall time touches any decision, which is what makes it
//! bit-identical to a trace-seeded [`Runtime::session`] on the binned trace
//! (the determinism suite pins this). [`serve_live`] maps wall time onto the
//! virtual timeline (optionally scaled), so minute ticks — and therefore
//! keep-alive decisions — happen *online*, while requests race in through
//! the channel. Its consumer reads the clock only for what it records: it
//! polls the channel with `try_recv` and falls back to a 5 ms
//! `recv_timeout` only when the channel is empty, and it peeks each event
//! before stepping it. Every `MinuteTick` step is wall-clocked into
//! `tick_ns`; one `Arrival` step in 16, counted by arrival index, is
//! wall-clocked into `decision_ns` with a weight of the 16 steps it stands
//! for, so that histogram's count equals the admitted arrivals exactly and
//! its mean and percentiles are unbiased estimates. Completions, timers,
//! faults and the other arrivals step untimed. Wall time never feeds back
//! into any decision: summaries from a live run remain a pure function of
//! the admitted stream.

use crate::loadgen::{Arrival, ArrivalStream};
use pulse_models::ModelFamily;
use pulse_obs::{emit, Histogram, ObsEvent, TraceSink};
use pulse_runtime::{
    AdmissionControl, ClusterConfig, Event, FaultPlan, Runtime, RuntimeConfig, RuntimeSession,
    RuntimeSummary, MS_PER_MINUTE,
};
use pulse_sim::policy::KeepAlivePolicy;
use pulse_trace::{FunctionTrace, Trace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine-side configuration shared by both serve modes.
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// Capacity cap and admission bound applied inside the engine.
    pub cluster: ClusterConfig,
    /// Fault plan (usually [`FaultPlan::none`]; a request timeout makes the
    /// front door enforce per-request SLO budgets online).
    pub plan: FaultPlan,
    /// Runtime tunables.
    pub runtime: RuntimeConfig,
}

impl ServeConfig {
    /// Bound the engine's pending queue — the admission-control
    /// backpressure tier.
    #[must_use]
    pub fn with_max_pending(mut self, max_pending: usize) -> Self {
        self.cluster.admission = AdmissionControl::bounded(max_pending);
        self
    }
}

/// Transport knobs for [`serve_live`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveOptions {
    /// Bound of the ingress channel. A full channel sheds at the front
    /// door.
    pub channel_capacity: usize,
    /// Virtual milliseconds per wall millisecond. `None` runs open-loop at
    /// maximum rate (the producer pushes as fast as the channel accepts);
    /// `Some(s)` paces the producer so virtual time tracks wall time
    /// scaled by `s` (1.0 = real time).
    pub speedup: Option<f64>,
}

impl Default for LiveOptions {
    fn default() -> Self {
        Self {
            channel_capacity: 4096,
            speedup: None,
        }
    }
}

/// What a live serve run measured.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests admitted into the engine.
    pub admitted: u64,
    /// Arrivals dropped at the front door (channel full).
    pub front_door_dropped: u64,
    /// Arrivals shed by the engine's admission control.
    pub engine_shed: u64,
    /// Wall-clock nanoseconds per arrival decision (`step` over an
    /// `Arrival` event). One arrival step in 16 is timed, and each timed
    /// value is recorded with the weight of the steps it stands for: the
    /// count equals `admitted`, sum, mean and percentiles are estimates,
    /// and `min`/`max` cover the timed steps only.
    pub decision_ns: Histogram,
    /// Wall-clock nanoseconds per minute-tick pipeline run.
    pub tick_ns: Histogram,
    /// Wall-clock duration of the run, ms.
    pub wall_ms: u64,
    /// Admitted requests per wall second.
    pub rps: f64,
    /// The engine summary — a pure function of the admitted stream.
    pub summary: RuntimeSummary,
}

impl ServeReport {
    /// Median per-decision latency, ns (bucket upper bound of the sampled
    /// estimate; 0 if nothing was admitted).
    pub fn p50_decision_ns(&self) -> u64 {
        self.decision_ns.approx_percentile(50).unwrap_or(0)
    }

    /// p99 per-decision latency, ns (bucket upper bound of the sampled
    /// estimate; 0 if nothing was admitted).
    pub fn p99_decision_ns(&self) -> u64 {
        self.decision_ns.approx_percentile(99).unwrap_or(0)
    }
}

/// An all-zero trace with the same shape as `trace`: sessions built over it
/// seed only minute ticks, so every arrival is externally admitted — with
/// sequence numbers identical to a trace-seeded run when the stream is
/// admitted in canonical order.
fn zero_trace_like(trace: &Trace) -> Trace {
    Trace::new(
        trace
            .functions()
            .iter()
            .map(|f| FunctionTrace::new(f.name.clone(), vec![0; f.per_minute.len()]))
            .collect(),
    )
}

/// Serve `stream` on the simulated clock: admit the whole stream up front
/// in canonical order, then drain the session. Bit-identical to
/// [`Runtime::session`] over [`ArrivalStream::trace`] with the same policy
/// and configuration, finished (pinned in the determinism suite). With a
/// sink attached, the *engine* events are traced, exactly as
/// [`RuntimeSession::traced`] on that session would — no serve telemetry
/// is interleaved.
pub fn replay(
    stream: &ArrivalStream,
    families: Vec<ModelFamily>,
    policy: &mut dyn KeepAlivePolicy,
    config: &ServeConfig,
    sink: Option<&mut dyn TraceSink>,
) -> RuntimeSummary {
    let rt = Runtime::new(zero_trace_like(stream.trace()), families, config.runtime);
    let mut session = rt.session(policy, &config.plan, config.cluster);
    if let Some(s) = sink {
        session = session.traced(s);
    }
    for a in stream.arrivals() {
        session.admit_at(a.at_ms, a.func);
    }
    session.finish()
}

/// Arrival steps are wall-clocked one in this many, by arrival index.
const SAMPLE_EVERY: u64 = 16;

/// The live consumer's step timing: every minute tick is timed into
/// `tick_ns`; arrival step `k` is timed when `k % SAMPLE_EVERY == 0`, and
/// each timed value enters `decision_ns` weighted by the arrival steps it
/// stands for (itself and the untimed ones up to the next timed step). So
/// `decision_ns.count()` equals the arrival steps taken, while its sum,
/// mean and percentiles are estimates and its `min`/`max` cover timed
/// steps only.
#[derive(Default)]
struct StepTimer {
    decision_ns: Histogram,
    tick_ns: Histogram,
    /// Arrival steps taken.
    arrivals: u64,
    /// The latest timed arrival step, not yet recorded: its wall time and
    /// its arrival index. Its weight is known once the next timed step
    /// comes or [`Self::flush`] runs.
    pending: Option<(u64, u64)>,
}

impl StepTimer {
    /// Record the pending timed arrival step, weighted by the arrival steps
    /// taken since it (itself included).
    fn flush(&mut self) {
        if let Some((ns, at)) = self.pending.take() {
            self.decision_ns.record_n(ns, self.arrivals - at);
        }
    }

    /// Step the session once through `next`, the event
    /// [`RuntimeSession::peek`] returned. Only steps whose wall time is
    /// recorded read the clock: a sampled `Arrival` (see [`StepTimer`]), and
    /// every `MinuteTick`, which is followed by an [`ObsEvent::ServeTick`].
    /// Every other event steps untimed.
    // Wall time is measured here, never fed back: the step itself sees only
    // the virtual clock.
    #[allow(clippy::disallowed_methods)]
    fn step(
        &mut self,
        session: &mut RuntimeSession<'_>,
        next: &Event,
        admitted: u64,
        dropped: &AtomicU64,
        sink: &mut Option<&mut dyn TraceSink>,
    ) {
        let nanos = |t0: Instant| u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        match *next {
            Event::Arrival { .. } if self.arrivals.is_multiple_of(SAMPLE_EVERY) => {
                self.flush();
                let t0 = Instant::now();
                session.step();
                self.pending = Some((nanos(t0), self.arrivals));
                self.arrivals += 1;
            }
            Event::Arrival { .. } => {
                session.step();
                self.arrivals += 1;
            }
            Event::MinuteTick { minute } => {
                let t0 = Instant::now();
                session.step();
                self.tick_ns.record(nanos(t0));
                let shed = session.shed_so_far() + dropped.load(Ordering::Relaxed);
                let queue_depth = session.pending_events();
                emit(sink, || ObsEvent::ServeTick {
                    minute,
                    admitted,
                    shed,
                    queue_depth,
                });
            }
            _ => {
                session.step();
            }
        }
    }

    /// Drain every queued engine event with timestamp ≤ `upto`.
    fn drain_through(
        &mut self,
        session: &mut RuntimeSession<'_>,
        upto: u64,
        admitted: u64,
        dropped: &AtomicU64,
        sink: &mut Option<&mut dyn TraceSink>,
    ) {
        while let Some((t, next)) = session.peek() {
            if t > upto {
                break;
            }
            self.step(session, &next, admitted, dropped, sink);
        }
    }

    /// The finished histograms, `(decision_ns, tick_ns)`.
    fn finish(mut self) -> (Histogram, Histogram) {
        self.flush();
        (self.decision_ns, self.tick_ns)
    }
}

/// The next arrival off the channel: take a queued one without touching the
/// clock, and wait up to 5 ms only when the channel is empty.
fn next_arrival(rx: &Receiver<Arrival>) -> Result<Arrival, RecvTimeoutError> {
    match rx.try_recv() {
        Ok(a) => Ok(a),
        Err(TryRecvError::Empty) => rx.recv_timeout(Duration::from_millis(5)),
        Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
    }
}

/// Serve `stream` live: an open-loop producer thread pushes arrivals into
/// a bounded channel while this thread admits them into the engine and
/// steps it, recording sampled per-decision wall latency. `mode_label`
/// tags the [`ObsEvent::ServeStart`] telemetry (e.g. `"demo"`, `"live"`).
///
/// Shedding happens at two independent layers, both reported: the channel
/// (front door, counted in [`ServeReport::front_door_dropped`]) and the
/// engine's admission control ([`ServeReport::engine_shed`]).
// Live serving maps the wall clock onto the virtual cursor: that mapping is
// this mode's purpose, and `replay` is its clock-free twin.
#[allow(clippy::disallowed_methods)]
pub fn serve_live(
    stream: ArrivalStream,
    families: Vec<ModelFamily>,
    policy: &mut dyn KeepAlivePolicy,
    config: &ServeConfig,
    opts: &LiveOptions,
    mode_label: &str,
    mut sink: Option<&mut dyn TraceSink>,
) -> ServeReport {
    let minutes = stream.minutes() as u64;
    let functions = stream.n_functions();
    emit(&mut sink, || ObsEvent::ServeStart {
        minutes,
        functions,
        mode: mode_label.to_string(),
    });

    let (trace, arrivals) = stream.into_parts();
    let rt = Runtime::new(zero_trace_like(&trace), families, config.runtime);
    let mut session = rt.session(policy, &config.plan, config.cluster);

    let (tx, rx) = std::sync::mpsc::sync_channel::<Arrival>(opts.channel_capacity.max(1));
    let dropped = Arc::new(AtomicU64::new(0));
    let producer = spawn_producer(arrivals, tx, Arc::clone(&dropped), opts.speedup);

    let mut timer = StepTimer::default();
    let mut admitted = 0u64;
    let mut cursor = 0u64;
    let start = Instant::now();
    loop {
        match next_arrival(&rx) {
            Ok(a) => {
                // The virtual clock never runs backwards: a request racing
                // in behind an already-processed timestamp is admitted *now*
                // (at the cursor), not into the past.
                cursor = cursor.max(a.at_ms);
                session.admit_at(cursor, a.func);
                admitted += 1;
                timer.drain_through(&mut session, cursor, admitted, &dropped, &mut sink);
            }
            Err(RecvTimeoutError::Timeout) => {
                // A paced lull still advances the virtual clock, so minute
                // ticks (and keep-alive decisions) keep firing on schedule.
                if let Some(speedup) = opts.speedup {
                    // Saturating cast: the virtual clock is clamped to the horizon below.
                    #[allow(clippy::cast_possible_truncation)]
                    let vnow = (start.elapsed().as_secs_f64() * 1_000.0 * speedup) as u64;
                    cursor = cursor.max(vnow.min(minutes * MS_PER_MINUTE));
                    timer.drain_through(&mut session, cursor, admitted, &dropped, &mut sink);
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Producer done: run the tail of the virtual timeline out.
    timer.drain_through(&mut session, u64::MAX, admitted, &dropped, &mut sink);
    let _ = producer.join();
    let (decision_ns, tick_ns) = timer.finish();

    let wall = start.elapsed();
    let wall_ms = u64::try_from(wall.as_millis()).unwrap_or(u64::MAX);
    let front_door_dropped = dropped.load(Ordering::Relaxed);
    if front_door_dropped > 0 {
        emit(&mut sink, || ObsEvent::ServeBackpressure {
            at_ms: minutes * MS_PER_MINUTE,
            dropped: front_door_dropped,
        });
    }
    let summary = session.finish();
    let rps = if wall.as_secs_f64() > 0.0 {
        admitted as f64 / wall.as_secs_f64()
    } else {
        0.0
    };
    let report = ServeReport {
        admitted,
        front_door_dropped,
        engine_shed: summary.shed_requests,
        decision_ns,
        tick_ns,
        wall_ms,
        rps,
        summary,
    };
    emit(&mut sink, || ObsEvent::ServeSummary {
        admitted: report.admitted,
        shed: report.front_door_dropped + report.engine_shed,
        p50_decision_ns: report.p50_decision_ns(),
        p99_decision_ns: report.p99_decision_ns(),
        wall_ms: report.wall_ms,
        rps: report.rps,
    });
    report
}

/// The open-loop producer: pushes the stream through the bounded channel,
/// never blocking on the consumer — a full channel drops the arrival and
/// counts it. With pacing, the producer sleeps so each arrival is offered
/// no earlier than its virtual timestamp maps to on the wall clock.
// Pacing an open-loop load generator needs the wall clock.
#[allow(clippy::disallowed_methods)]
fn spawn_producer(
    arrivals: Vec<Arrival>,
    tx: SyncSender<Arrival>,
    dropped: Arc<AtomicU64>,
    speedup: Option<f64>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let start = Instant::now();
        for a in arrivals {
            if let Some(speedup) = speedup {
                let due = Duration::from_secs_f64(a.at_ms as f64 / 1_000.0 / speedup.max(1e-9));
                let elapsed = start.elapsed();
                if due > elapsed {
                    std::thread::sleep(due - elapsed);
                }
            }
            match tx.try_send(a) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    dropped.fetch_add(1, Ordering::Relaxed);
                }
                Err(TrySendError::Disconnected(_)) => break,
            }
        }
        // Dropping `tx` disconnects the channel and ends the serve loop.
    })
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)] // test-local counts fit
mod tests {
    use super::*;
    use crate::loadgen::{LoadGenConfig, LoadMode};
    use pulse_core::types::PulseConfig;
    use pulse_obs::MemorySink;
    use pulse_sim::assignment::round_robin_assignment;
    use pulse_sim::policies::PulsePolicy;

    fn small_stream(seed: u64) -> ArrivalStream {
        ArrivalStream::generate(&LoadGenConfig {
            functions: 6,
            minutes: 4,
            mode: LoadMode::Poisson { rate_per_min: 50.0 },
            seed,
        })
    }

    #[test]
    fn live_with_roomy_channel_admits_everything() {
        let stream = small_stream(5);
        let total = stream.len() as u64;
        let families = round_robin_assignment(&pulse_models::zoo::standard(), 6);
        let mut policy = PulsePolicy::new(families.clone(), PulseConfig::default());
        let mut sink = MemorySink::new();
        let report = serve_live(
            stream,
            families,
            &mut policy,
            &ServeConfig::default(),
            &LiveOptions {
                channel_capacity: total as usize + 1,
                speedup: None,
            },
            "test",
            Some(&mut sink),
        );
        assert_eq!(report.front_door_dropped, 0);
        assert_eq!(report.admitted, total);
        assert_eq!(report.summary.requests(), total);
        assert_eq!(report.decision_ns.count(), total);
        // Telemetry shape: start first, summary last, one tick per minute.
        let events = sink.events();
        assert!(matches!(
            events.first(),
            Some(ObsEvent::ServeStart {
                minutes: 4,
                functions: 6,
                ..
            })
        ));
        assert!(matches!(events.last(), Some(ObsEvent::ServeSummary { .. })));
        assert_eq!(
            sink.count(|e| matches!(e, ObsEvent::ServeTick { .. })),
            4,
            "one serve_tick per virtual minute"
        );
    }

    #[test]
    fn sampled_decision_histogram_counts_every_admitted_arrival() {
        // Stream lengths that end partway through a 16-step sampling
        // period (including streams shorter than one period): the sample
        // weights must still sum to the admitted count.
        let families = round_robin_assignment(&pulse_models::zoo::standard(), 2);
        let mut partial = 0;
        for (seed, rate_per_min) in [(11, 3.0), (12, 30.0), (13, 30.0), (14, 90.0)] {
            let stream = ArrivalStream::generate(&LoadGenConfig {
                functions: 2,
                minutes: 2,
                mode: LoadMode::Poisson { rate_per_min },
                seed,
            });
            let total = stream.len() as u64;
            partial += usize::from(!total.is_multiple_of(SAMPLE_EVERY));
            let mut policy = PulsePolicy::new(families.clone(), PulseConfig::default());
            let report = serve_live(
                stream,
                families.clone(),
                &mut policy,
                &ServeConfig::default(),
                &LiveOptions {
                    channel_capacity: total as usize + 1,
                    speedup: None,
                },
                "test",
                None,
            );
            assert_eq!(report.admitted, total);
            let h = &report.decision_ns;
            assert_eq!(h.count(), report.admitted, "{total} arrivals");
            let (min, max) = (h.min().unwrap(), h.max().unwrap());
            assert!(
                min as f64 <= h.mean() && h.mean() <= max as f64,
                "{total} arrivals: min {min}, mean {}, max {max}",
                h.mean()
            );
        }
        assert!(partial >= 3, "streams must end mid-period");
    }

    #[test]
    fn live_conserves_arrivals_across_the_front_door() {
        let stream = small_stream(6);
        let total = stream.len() as u64;
        let families = round_robin_assignment(&pulse_models::zoo::standard(), 6);
        let mut policy = PulsePolicy::new(families.clone(), PulseConfig::default());
        let mut sink = MemorySink::new();
        let report = serve_live(
            stream,
            families,
            &mut policy,
            &ServeConfig::default().with_max_pending(8),
            &LiveOptions {
                channel_capacity: 1,
                speedup: None,
            },
            "test",
            Some(&mut sink),
        );
        // Every generated arrival is accounted for exactly once: admitted
        // into the engine or dropped at the front door.
        assert_eq!(report.admitted + report.front_door_dropped, total);
        assert_eq!(report.summary.requests(), report.admitted);
        if report.front_door_dropped > 0 {
            assert_eq!(
                sink.count(|e| matches!(e, ObsEvent::ServeBackpressure { .. })),
                1
            );
        }
    }

    #[test]
    fn paced_live_mode_completes_and_ticks() {
        let stream = ArrivalStream::generate(&LoadGenConfig {
            functions: 2,
            minutes: 2,
            mode: LoadMode::Poisson { rate_per_min: 10.0 },
            seed: 8,
        });
        let families = round_robin_assignment(&pulse_models::zoo::standard(), 2);
        let mut policy = PulsePolicy::new(families.clone(), PulseConfig::default());
        let mut sink = MemorySink::new();
        let report = serve_live(
            stream,
            families,
            &mut policy,
            &ServeConfig::default(),
            &LiveOptions {
                channel_capacity: 1024,
                // 1 wall ms = 2 virtual s: the 2-minute horizon takes ~60 ms.
                speedup: Some(2_000.0),
            },
            "test",
            Some(&mut sink),
        );
        assert_eq!(report.front_door_dropped, 0);
        assert_eq!(sink.count(|e| matches!(e, ObsEvent::ServeTick { .. })), 2);
        assert!(report.wall_ms >= 50, "pacing ran faster than the clock");
    }
}
