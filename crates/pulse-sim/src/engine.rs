//! The minute-resolution simulation loop.
//!
//! See the crate docs for the full semantics. The engine drives a
//! [`pulse_core::schedule::ScheduleLedger`] — the shared substrate that owns
//! keep-alive schedules (one per function, replaced on every invocation),
//! slot typing, downgrade/eviction application and footprint metering — asks
//! the policy for per-minute adjustments, serves invocations, and accounts
//! cost and accuracy.
//!
//! [`Simulator::run`] consumes the whole trace in one call; the same loop is
//! available one minute at a time through [`Simulator::session`] /
//! [`SimSession::step_minute`] for callers that interleave simulation with
//! other work (live dashboards, co-simulation, the cross-engine equivalence
//! tests).

use crate::metrics::RunMetrics;
use crate::policy::KeepAlivePolicy;
use crate::recover::{fingerprint_of, read_header, write_header, RecoverError};
use pulse_core::global::DowngradeAction;
use pulse_core::schedule::{begins_keepalive_period, MinuteFootprint, ScheduleLedger};
use pulse_core::types::Minute;
use pulse_models::{CostModel, ModelFamily};
use pulse_obs::{emit, ActionSource, ObsEvent, TraceSink};
use pulse_trace::Trace;

/// Trace-driven serverless platform simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    trace: Trace,
    families: Vec<ModelFamily>,
    cost: CostModel,
}

impl Simulator {
    /// Simulator over `trace` with one model family per function and AWS
    /// Lambda pricing.
    pub fn new(trace: Trace, families: Vec<ModelFamily>) -> Self {
        assert_eq!(
            trace.n_functions(),
            families.len(),
            "one family per traced function"
        );
        Self {
            trace,
            families,
            cost: CostModel::aws_lambda(),
        }
    }

    /// The workload driving this simulator.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The family assignment.
    pub fn families(&self) -> &[ModelFamily] {
        &self.families
    }

    /// Begin a steppable run of `policy` over the trace. Call
    /// [`SimSession::step_minute`] to advance one minute at a time (or not
    /// at all), then [`SimSession::finish`] to drive the rest and collect
    /// the metrics; [`Self::run`] is this session finished straight away.
    /// Attach an observer with [`SimSession::traced`].
    pub fn session<'a>(&'a self, policy: &'a mut dyn KeepAlivePolicy) -> SimSession<'a> {
        let minutes = self.trace.minutes();
        SimSession {
            sim: self,
            metrics: RunMetrics::new(policy.name(), minutes),
            policy,
            ledger: ScheduleLedger::new(self.families.len()),
            plan: PlanState::new(minutes),
            next: 0,
            minutes: minutes as Minute,
            sink: None,
            prev_fallback: false,
        }
    }

    /// Run the policy over the whole trace.
    pub fn run(&self, policy: &mut dyn KeepAlivePolicy) -> RunMetrics {
        self.session(policy).finish()
    }

    /// [`Self::run`] with a [`TraceSink`] attached (see
    /// [`SimSession::traced`] for the event contract).
    pub fn run_traced(
        &self,
        policy: &mut dyn KeepAlivePolicy,
        sink: &mut dyn TraceSink,
    ) -> RunMetrics {
        self.session(policy).traced(sink).finish()
    }

    /// Fingerprint of this simulator's workload identity (trace + families
    /// + cost model) — stamped into checkpoints and checked on restore.
    fn workload_fingerprint(&self) -> u64 {
        fingerprint_of(&(&self.trace, &self.families, &self.cost))
    }

    /// Resume a run killed after [`SimSession::snapshot`]: build a fresh
    /// session and replay it, untraced, to the checkpoint's next minute, so
    /// that driving it to completion is bit-identical to the uninterrupted
    /// run. `policy` must be freshly constructed with the same arguments as
    /// the checkpointed one (same seeds/config): replay rebuilds its learned
    /// state by driving it again, so a policy that has already run gets the
    /// prefix twice (PULSE's history assert panics on that). Restoring
    /// emits nothing, so
    /// [`SimSession::traced`] continues the event stream exactly where the
    /// killed run's journal left off. Fails soft with a typed
    /// [`RecoverError`] on version skew, corruption, a workload/policy
    /// mismatch, or a cursor past the end of the trace.
    pub fn restore<'a>(
        &'a self,
        policy: &'a mut dyn KeepAlivePolicy,
        snapshot: &str,
    ) -> Result<SimSession<'a>, RecoverError> {
        let head = read_header(
            snapshot,
            "sim",
            &[("workload", self.workload_fingerprint())],
            policy.name(),
        )?;
        let next = head.u64("next").map_err(RecoverError::corrupt)?;
        let mut session = self.session(policy);
        if next > session.minutes {
            return Err(RecoverError::corrupt(format!(
                "the cursor at minute {next} is past the {}-minute trace",
                session.minutes
            )));
        }
        while session.next < next {
            session.step_minute();
        }
        Ok(session)
    }
}

/// The per-minute global layer both engines run: Algorithm 1's peak check
/// on the schedules' keep-alive demand, then Algorithm 2's actions applied to
/// that minute of the ledger. A [`SimSession`] and the runtime's session each
/// own one and call [`Self::adjust`] once per minute, so the two engines plan
/// through the same code.
#[derive(Debug, Clone, Default)]
pub struct PlanState {
    /// What the schedules *asked* to keep alive each minute
    /// (pre-adjustment), MB; the prior of the policy's peak detection.
    /// Feeding post-flattening values back into the prior would drag the
    /// detector's baseline into a death spiral (every flatten lowers the
    /// prior, which makes the next minute a "peak" again). What was actually
    /// kept alive (post-adjustment) drives billing instead.
    pub demand_history: Vec<f64>,
    /// Whether any function was invoked since the last [`Self::adjust`].
    /// The engine sets it on every served arrival; the next adjust takes it.
    pub invoked: bool,
    /// Footprint buffer, refilled in place each minute by
    /// [`ScheduleLedger::fill_minute_footprint`] (no per-minute `Vec`
    /// churn). Its alive set goes to the policy as is, which may mutate it
    /// while selecting victims, so it mirrors the ledger only until the
    /// policy runs: a later reader refills it.
    pub fp: MinuteFootprint,
}

impl PlanState {
    /// Plan state of a fresh `minutes`-minute run: an empty demand history
    /// with room for every minute.
    pub fn new(minutes: usize) -> Self {
        Self {
            demand_history: Vec::with_capacity(minutes),
            invoked: false,
            fp: MinuteFootprint::default(),
        }
    }

    /// Run minute `t`'s cross-function adjustment: fill the footprint, derive
    /// Algorithm 1's period flag ([`begins_keepalive_period`]), ask the
    /// policy for actions on the footprint's alive set, record the minute's
    /// demand, then apply each action to minute `t` of `ledger`, emitting its
    /// [`ObsEvent::Downgrade`]/[`ObsEvent::Evict`] and finally the minute's
    /// [`ObsEvent::Adjust`]. Returns how many actions the policy requested.
    pub fn adjust(
        &mut self,
        policy: &mut dyn KeepAlivePolicy,
        ledger: &mut ScheduleLedger,
        families: &[ModelFamily],
        t: Minute,
        sink: &mut Option<&mut dyn TraceSink>,
    ) -> usize {
        ledger.fill_minute_footprint(families, t, &mut self.fp);
        let current_kam = self.fp.total_mb;
        let invoked = std::mem::take(&mut self.invoked);
        let first_minute = begins_keepalive_period(invoked, current_kam, &self.demand_history);
        let actions = policy.adjust_minute(
            t,
            &self.demand_history,
            first_minute,
            current_kam,
            &mut self.fp.alive,
        );
        self.demand_history.push(current_kam);
        // Apply action-by-action (the exact loop `apply_actions` runs) so
        // each one's applied/ignored outcome can be reported.
        let mut applied = 0usize;
        for a in &actions {
            let moved = ledger.apply_action(t, a);
            applied += usize::from(moved);
            emit(sink, || match *a {
                DowngradeAction::Downgrade { func, from, to } => ObsEvent::Downgrade {
                    minute: t,
                    func,
                    from,
                    to,
                    source: ActionSource::Policy,
                    applied: moved,
                },
                DowngradeAction::Evict { func, from } => ObsEvent::Evict {
                    minute: t,
                    func,
                    from,
                    source: ActionSource::Policy,
                    applied: moved,
                },
            });
        }
        emit(sink, || ObsEvent::Adjust {
            minute: t,
            requested: actions.len(),
            applied,
            keepalive_mb: current_kam,
        });
        actions.len()
    }
}

/// An in-flight minute-engine run: the trace is consumed one minute per
/// [`Self::step_minute`] call, against the shared
/// [`ScheduleLedger`] substrate.
pub struct SimSession<'a> {
    sim: &'a Simulator,
    policy: &'a mut dyn KeepAlivePolicy,
    metrics: RunMetrics,
    ledger: ScheduleLedger,
    plan: PlanState,
    next: Minute,
    minutes: Minute,
    /// Attached observer, if any. Disabled/absent sinks cost one branch per
    /// emission point and change nothing else (the transparency contract).
    sink: Option<&'a mut dyn TraceSink>,
    /// Watchdog state after the last observation (for transition events).
    prev_fallback: bool,
}

impl<'a> SimSession<'a> {
    /// Attach a [`TraceSink`]: from here on every adjust, serve, bill,
    /// downgrade/eviction and watchdog transition is emitted as a typed
    /// [`ObsEvent`]. Neither [`Simulator::session`] nor
    /// [`Simulator::restore`] emits, so a sink attached straight after
    /// either sees the whole stream. With a disabled sink (e.g.
    /// [`pulse_obs::NullSink`]) the run is bit-identical to the un-traced
    /// one: sinks observe, they never steer.
    pub fn traced(mut self, sink: &'a mut dyn TraceSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The minute the next [`Self::step_minute`] call will simulate (equals
    /// the horizon once the trace is exhausted).
    pub fn next_minute(&self) -> Minute {
        self.next
    }

    /// The ledger's current schedule state.
    pub fn ledger(&self) -> &ScheduleLedger {
        &self.ledger
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Simulate one minute: cross-function adjustment, then serving, then
    /// billing/observation. Returns the minute processed, or `None` once the
    /// trace is exhausted.
    pub fn step_minute(&mut self) -> Option<Minute> {
        if self.next >= self.minutes {
            return None;
        }
        let t = self.next;
        self.next += 1;

        let kam = self.stage_adjust(t);
        let (requests, cold) = self.stage_serve(t);
        self.stage_bill_and_observe(t, kam, requests, cold);
        Some(t)
    }

    /// Drive the run to completion and return the metrics ([`Simulator::run`]).
    pub fn finish(mut self) -> RunMetrics {
        while self.step_minute().is_some() {}
        self.metrics
    }

    /// Checkpoint this run: a one-line versioned header naming the
    /// workload, the policy and the next minute to simulate. Restoring it
    /// with [`Simulator::restore`] (same workload, a fresh same-seeded
    /// policy) replays the run to that minute, and stepping on to
    /// completion is bit-identical to never having stopped.
    pub fn snapshot(&self) -> String {
        write_header(
            "sim",
            &[("workload", self.sim.workload_fingerprint())],
            self.policy.name(),
            &[("next", self.next)],
        )
    }

    /// Stage 1: cross-function adjustment on the pre-invocation alive set
    /// ([`PlanState::adjust`]), then re-meter. Returns the billed keep-alive
    /// memory of the minute — what the schedules keep alive at `t`
    /// post-adjustment. (Schedules produced by invocations at `t` begin at
    /// `t + 1`, and cold-start execution memory is in-use, not keep-alive.)
    fn stage_adjust(&mut self, t: Minute) -> f64 {
        let requested = self.plan.adjust(
            &mut *self.policy,
            &mut self.ledger,
            &self.sim.families,
            t,
            &mut self.sink,
        );
        self.metrics.downgrades += requested as u64;
        // Post-action re-meter: the full sweep in ascending function order,
        // the billing contract both engines share.
        self.ledger.keep_alive_mb_at(&self.sim.families, t)
    }

    /// Stage 2: serve the minute's invocations; warm starts ride the alive
    /// variant, a cold start launches the policy's choice (same-minute
    /// followers reuse it warm), and every invoked function gets a fresh
    /// schedule. Returns `(requests, cold starts)` for the minute.
    fn stage_serve(&mut self, t: Minute) -> (u64, u64) {
        let mut minute_requests = 0u64;
        let mut minute_cold = 0u64;
        for f in 0..self.sim.families.len() {
            let count = self.sim.trace.function(f).at(t) as u64;
            if count == 0 {
                continue;
            }
            self.plan.invoked = true;
            minute_requests += count;
            let fam = &self.sim.families[f];
            let alive = self.ledger.alive_variant_at(f, t);
            match alive {
                Some(v) => {
                    let spec = fam.variant(v);
                    self.metrics.service_time_s += spec.warm_service_time_s * count as f64;
                    self.metrics.accuracy_sum_pct += spec.accuracy_pct * count as f64;
                    self.metrics.warm_starts += count;
                }
                None => {
                    let v = self.policy.cold_start_variant(f, t);
                    let spec = fam.variant(v);
                    self.metrics.service_time_s +=
                        spec.cold_service_time_s() + spec.warm_service_time_s * (count - 1) as f64;
                    self.metrics.accuracy_sum_pct += spec.accuracy_pct * count as f64;
                    self.metrics.cold_starts += 1;
                    minute_cold += 1;
                    self.metrics.warm_starts += count - 1;
                }
            }
            emit(&mut self.sink, || ObsEvent::Serve {
                minute: t,
                func: f,
                requests: count,
                cold_starts: u64::from(alive.is_none()),
            });
            self.ledger
                .replace(f, self.policy.schedule_on_invocation(f, t));
        }
        (minute_requests, minute_cold)
    }

    /// Stage 3: accrue cost, record the per-minute series, and report the
    /// completed minute back to the policy (a no-op for plain policies; the
    /// watchdog wrapper keys off it). A cold start is this engine's SLO
    /// violation.
    fn stage_bill_and_observe(&mut self, t: Minute, kam: f64, requests: u64, cold: u64) {
        let minute_cost = self.sim.cost.keepalive_cost_usd_per_minutes(kam, 1.0);
        self.metrics.keepalive_cost_usd += minute_cost;
        self.metrics.memory_series_mb.push(kam);
        self.metrics.cost_series_usd.push(minute_cost);
        emit(&mut self.sink, || ObsEvent::Bill {
            minute: t,
            keepalive_mb: kam,
            cost_usd: minute_cost,
        });
        self.policy
            .observe_minute(&crate::policy::MinuteObservation {
                minute: t,
                requests,
                slo_violations: cold,
            });
        let fb = self.policy.in_fallback();
        if fb != self.prev_fallback {
            self.prev_fallback = fb;
            emit(&mut self.sink, || ObsEvent::Watchdog {
                minute: t,
                fallback: fb,
            });
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;
    use crate::policies::{FixedVariant, IdealOracle, OpenWhiskFixed, PulsePolicy};
    use crate::recover::SNAPSHOT_VERSION;
    use pulse_core::global::AliveModel;
    use pulse_core::individual::KeepAliveSchedule;
    use pulse_core::types::PulseConfig;
    use pulse_models::{zoo, VariantId};
    use pulse_trace::FunctionTrace;

    fn one_func_trace(counts: &[u32]) -> Trace {
        Trace::new(vec![FunctionTrace::new("f", counts.to_vec())])
    }

    #[test]
    fn single_invocation_openwhisk_costs_ten_minutes_of_highest() {
        let trace = one_func_trace(&[0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let fams = vec![zoo::gpt()];
        let sim = Simulator::new(trace, fams.clone());
        let mut p = OpenWhiskFixed::new(&fams);
        let m = sim.run(&mut p);
        assert_eq!(m.cold_starts, 1);
        assert_eq!(m.warm_starts, 0);
        let spec = fams[0].highest();
        assert!((m.service_time_s - spec.cold_service_time_s()).abs() < 1e-9);
        // Alive minutes 2..=11 → 10 minutes of GPT-Large memory.
        let expected = CostModel::aws_lambda().keepalive_cost_usd_per_minutes(spec.memory_mb, 10.0);
        assert!((m.keepalive_cost_usd - expected).abs() < 1e-12);
        assert!((m.avg_accuracy_pct() - spec.accuracy_pct).abs() < 1e-9);
    }

    #[test]
    fn second_invocation_within_window_is_warm() {
        let trace = one_func_trace(&[1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let fams = vec![zoo::bert()];
        let sim = Simulator::new(trace, fams.clone());
        let m = sim.run(&mut OpenWhiskFixed::new(&fams));
        assert_eq!(m.cold_starts, 1);
        assert_eq!(m.warm_starts, 1);
        let spec = fams[0].highest();
        let expected = spec.cold_service_time_s() + spec.warm_service_time_s;
        assert!((m.service_time_s - expected).abs() < 1e-9);
    }

    #[test]
    fn invocation_after_window_expiry_is_cold() {
        let mut counts = vec![0u32; 30];
        counts[0] = 1;
        counts[15] = 1; // 15 > 10-minute window
        let trace = one_func_trace(&counts);
        let fams = vec![zoo::bert()];
        let sim = Simulator::new(trace, fams.clone());
        let m = sim.run(&mut OpenWhiskFixed::new(&fams));
        assert_eq!(m.cold_starts, 2);
    }

    #[test]
    fn same_minute_burst_is_one_cold_plus_warms() {
        let trace = one_func_trace(&[5, 0, 0]);
        let fams = vec![zoo::densenet()];
        let sim = Simulator::new(trace, fams.clone());
        let m = sim.run(&mut OpenWhiskFixed::new(&fams));
        assert_eq!(m.cold_starts, 1);
        assert_eq!(m.warm_starts, 4);
        assert_eq!(m.invocations(), 5);
    }

    #[test]
    fn all_low_is_cheaper_and_less_accurate_than_all_high() {
        let trace = pulse_trace::synth::azure_like_12_with_horizon(5, 2000);
        let fams: Vec<ModelFamily> = (0..12).map(|i| zoo::standard()[i % 5].clone()).collect();
        let sim = Simulator::new(trace, fams.clone());
        let high = sim.run(&mut FixedVariant::all_high(&fams));
        let low = sim.run(&mut FixedVariant::all_low(&fams));
        assert!(low.keepalive_cost_usd < high.keepalive_cost_usd);
        assert!(low.avg_accuracy_pct() < high.avg_accuracy_pct());
        assert!(low.service_time_s < high.service_time_s);
        // Equal warm-start opportunity: both keep *something* alive 10 min.
        assert_eq!(low.invocations(), high.invocations());
        assert_eq!(low.cold_starts, high.cold_starts);
    }

    #[test]
    fn ideal_oracle_never_cold_after_first_and_bills_invocation_minutes_only() {
        let trace = one_func_trace(&[1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0]);
        let fams = vec![zoo::gpt()];
        let sim = Simulator::new(trace.clone(), fams.clone());
        let m = sim.run(&mut IdealOracle::new(&fams, trace));
        assert_eq!(m.cold_starts, 1); // only the very first
        assert_eq!(m.warm_starts, 2);
        // Keep-alive billed exactly at the two warm invocation minutes.
        let spec = fams[0].highest();
        let expected = CostModel::aws_lambda().keepalive_cost_usd_per_minutes(spec.memory_mb, 2.0);
        assert!(
            (m.keepalive_cost_usd - expected).abs() < 1e-12,
            "{} vs {expected}",
            m.keepalive_cost_usd
        );
    }

    #[test]
    fn memory_series_tracks_schedule_lifetimes() {
        let trace = one_func_trace(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let fams = vec![zoo::bert()];
        let sim = Simulator::new(trace, fams.clone());
        let m = sim.run(&mut OpenWhiskFixed::new(&fams));
        let mem = fams[0].highest().memory_mb;
        assert_eq!(m.memory_series_mb.len(), 15);
        assert_eq!(m.memory_series_mb[0], 0.0); // invocation minute: schedule starts at 1
        for t in 1..=10 {
            assert!((m.memory_series_mb[t] - mem).abs() < 1e-9, "t={t}");
        }
        assert_eq!(m.memory_series_mb[11], 0.0);
    }

    #[test]
    fn pulse_flattens_a_synchronized_burst() {
        // 12 functions all invoked at minute 0 and from minute 30 in a
        // staggered steady pattern, then all at once at minute 60 (peak).
        let mut fs = Vec::new();
        for i in 0..12 {
            let mut v = vec![0u32; 120];
            for t in (i % 4..55).step_by(4) {
                v[t] = 1;
            }
            v[60] = 3;
            fs.push(FunctionTrace::new(format!("f{i}"), v));
        }
        let trace = Trace::new(fs);
        let fams: Vec<ModelFamily> = (0..12).map(|i| zoo::standard()[i % 5].clone()).collect();
        let sim = Simulator::new(trace, fams.clone());
        let pulse = sim.run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default()));
        let no_global = sim.run(&mut PulsePolicy::without_global(
            fams.clone(),
            PulseConfig::default(),
        ));
        assert!(pulse.downgrades > 0, "peak must trigger downgrades");
        assert_eq!(no_global.downgrades, 0);
        assert!(pulse.peak_memory_mb() <= no_global.peak_memory_mb());
    }

    #[test]
    fn pulse_cheaper_than_openwhisk_on_mixed_workload() {
        let trace = pulse_trace::synth::azure_like_12_with_horizon(9, 4000);
        let fams: Vec<ModelFamily> = (0..12).map(|i| zoo::standard()[i % 5].clone()).collect();
        let sim = Simulator::new(trace, fams.clone());
        let ow = sim.run(&mut OpenWhiskFixed::new(&fams));
        let pu = sim.run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default()));
        assert!(
            pu.keepalive_cost_usd < ow.keepalive_cost_usd,
            "pulse {} !< openwhisk {}",
            pu.keepalive_cost_usd,
            ow.keepalive_cost_usd
        );
        // Accuracy within a few percent of the all-high baseline.
        assert!(ow.avg_accuracy_pct() - pu.avg_accuracy_pct() < 5.0);
    }

    #[test]
    fn downgrade_applies_to_the_peak_minute_only() {
        use crate::policy::KeepAlivePolicy;
        use pulse_core::global::DowngradeAction;

        // A policy that downgrades function 0 to rung 0 at minute 3.
        struct OneShotDowngrade {
            inner: OpenWhiskFixed,
            fired: bool,
        }
        impl KeepAlivePolicy for OneShotDowngrade {
            fn name(&self) -> &str {
                "one-shot"
            }
            fn schedule_on_invocation(&mut self, f: usize, t: Minute) -> KeepAliveSchedule {
                self.inner.schedule_on_invocation(f, t)
            }
            fn cold_start_variant(&mut self, f: usize, t: Minute) -> VariantId {
                self.inner.cold_start_variant(f, t)
            }
            fn adjust_minute(
                &mut self,
                t: Minute,
                _h: &[f64],
                _first: bool,
                _kam: f64,
                alive: &mut Vec<AliveModel>,
            ) -> Vec<DowngradeAction> {
                if t == 3 && !self.fired {
                    self.fired = true;
                    if let Some(m) = alive.iter_mut().find(|m| m.func == 0) {
                        let from = m.variant;
                        m.variant = 0;
                        return vec![DowngradeAction::Downgrade {
                            func: 0,
                            from,
                            to: 0,
                        }];
                    }
                }
                Vec::new()
            }
        }

        let trace = one_func_trace(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let fams = vec![zoo::gpt()];
        let sim = Simulator::new(trace, fams.clone());
        let m = sim.run(&mut OneShotDowngrade {
            inner: OpenWhiskFixed::new(&fams),
            fired: false,
        });
        let high = fams[0].highest().memory_mb;
        let low = fams[0].lowest().memory_mb;
        // Only minute 3 (the "peak") is clamped to the low rung; the rest of
        // the window keeps the scheduled high rung.
        assert!((m.memory_series_mb[2] - high).abs() < 1e-9);
        assert!((m.memory_series_mb[3] - low).abs() < 1e-9);
        for t in 4..=10 {
            assert!((m.memory_series_mb[t] - high).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn stepped_session_matches_run_exactly() {
        let trace = pulse_trace::synth::azure_like_12_with_horizon(11, 500);
        let fams: Vec<ModelFamily> = (0..12).map(|i| zoo::standard()[i % 5].clone()).collect();
        let sim = Simulator::new(trace, fams.clone());
        let whole = sim.run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default()));

        let mut policy = PulsePolicy::new(fams.clone(), PulseConfig::default());
        let mut session = sim.session(&mut policy);
        let mut seen = 0u64;
        while let Some(t) = session.step_minute() {
            assert_eq!(t, seen);
            seen += 1;
        }
        assert_eq!(session.next_minute(), seen);
        let stepped = session.finish();
        assert_eq!(
            stepped.keepalive_cost_usd.to_bits(),
            whole.keepalive_cost_usd.to_bits()
        );
        assert_eq!(stepped.cold_starts, whole.cold_starts);
        assert_eq!(stepped.warm_starts, whole.warm_starts);
        assert_eq!(stepped.downgrades, whole.downgrades);
        assert_eq!(stepped.memory_series_mb, whole.memory_series_mb);
    }

    #[test]
    fn finish_drains_an_unstepped_or_early_stopped_session() {
        let trace = pulse_trace::synth::azure_like_12_with_horizon(11, 500);
        let fams: Vec<ModelFamily> = (0..12).map(|i| zoo::standard()[i % 5].clone()).collect();
        let sim = Simulator::new(trace, fams.clone());
        let whole = sim.run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default()));
        let mut policy = PulsePolicy::new(fams.clone(), PulseConfig::default());
        let unstepped = sim.session(&mut policy).finish();
        assert_eq!(format!("{unstepped:?}"), format!("{whole:?}"));

        let mut policy = PulsePolicy::new(fams.clone(), PulseConfig::default());
        let mut session = sim.session(&mut policy);
        for _ in 0..250 {
            session.step_minute();
        }
        let stopped = session.finish();
        assert_eq!(format!("{stopped:?}"), format!("{whole:?}"));
    }

    #[test]
    fn session_exposes_ledger_state() {
        let trace = one_func_trace(&[1, 0, 0, 0]);
        let fams = vec![zoo::bert()];
        let sim = Simulator::new(trace, fams.clone());
        let mut policy = OpenWhiskFixed::new(&fams);
        let mut session = sim.session(&mut policy);
        assert!(session.ledger().schedule(0).is_none());
        session.step_minute();
        // The invocation at minute 0 installed a schedule covering 1..=10.
        assert_eq!(session.ledger().alive_variant_at(0, 1), Some(1));
        assert_eq!(session.metrics().cold_starts, 1);
    }

    #[test]
    #[should_panic(expected = "one family per traced function")]
    fn mismatched_assignment_rejected() {
        Simulator::new(one_func_trace(&[1]), vec![]);
    }

    #[test]
    fn traced_run_event_stream_is_consistent_with_metrics() {
        use pulse_obs::MemorySink;
        let trace = pulse_trace::synth::azure_like_12_with_horizon(9, 400);
        let fams: Vec<ModelFamily> = (0..12).map(|i| zoo::standard()[i % 5].clone()).collect();
        let sim = Simulator::new(trace, fams.clone());
        let mut mem = MemorySink::new();
        let m = sim.run_traced(
            &mut PulsePolicy::new(fams.clone(), PulseConfig::default()),
            &mut mem,
        );
        // Per-type event counts reconcile exactly with the run's metrics.
        let actions =
            mem.count(|e| matches!(e, ObsEvent::Downgrade { .. } | ObsEvent::Evict { .. }));
        assert_eq!(actions as u64, m.downgrades);
        let (mut requests, mut colds) = (0u64, 0u64);
        let mut bills = 0usize;
        let mut billed_usd = 0.0f64;
        for ev in mem.events() {
            match *ev {
                ObsEvent::Serve {
                    requests: r,
                    cold_starts: c,
                    ..
                } => {
                    requests += r;
                    colds += c;
                }
                ObsEvent::Bill { cost_usd, .. } => {
                    bills += 1;
                    billed_usd += cost_usd;
                }
                _ => {}
            }
        }
        assert_eq!(requests, m.invocations());
        assert_eq!(colds, m.cold_starts);
        assert_eq!(bills, m.memory_series_mb.len());
        assert!((billed_usd - m.keepalive_cost_usd).abs() < 1e-9);
        // Adjust fires once per simulated minute.
        assert_eq!(
            mem.count(|e| matches!(e, ObsEvent::Adjust { .. })),
            m.memory_series_mb.len()
        );
        // Every line of the stream survives the JSONL round trip.
        for ev in mem.events() {
            assert_eq!(&ObsEvent::from_json(&ev.to_json()).unwrap(), ev);
        }
    }

    #[test]
    fn snapshot_restore_resume_is_bit_identical() {
        let trace = pulse_trace::synth::azure_like_12_with_horizon(23, 800);
        let fams: Vec<ModelFamily> = (0..12).map(|i| zoo::standard()[i % 5].clone()).collect();
        let sim = Simulator::new(trace, fams.clone());
        let whole = sim.run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default()));

        let mut killed = PulsePolicy::new(fams.clone(), PulseConfig::default());
        let mut session = sim.session(&mut killed);
        for _ in 0..317 {
            session.step_minute();
        }
        let snap = session.snapshot();
        drop(session); // the "kill"

        let mut fresh = PulsePolicy::new(fams.clone(), PulseConfig::default());
        let resumed = sim.restore(&mut fresh, &snap).unwrap();
        assert_eq!(resumed.next_minute(), 317);
        let m = resumed.finish();
        assert_eq!(
            m.keepalive_cost_usd.to_bits(),
            whole.keepalive_cost_usd.to_bits()
        );
        assert_eq!(m.service_time_s.to_bits(), whole.service_time_s.to_bits());
        assert_eq!(
            m.accuracy_sum_pct.to_bits(),
            whole.accuracy_sum_pct.to_bits()
        );
        assert_eq!(m.cold_starts, whole.cold_starts);
        assert_eq!(m.warm_starts, whole.warm_starts);
        assert_eq!(m.downgrades, whole.downgrades);
        assert_eq!(m.memory_series_mb, whole.memory_series_mb);
        assert_eq!(m.cost_series_usd, whole.cost_series_usd);
    }

    #[test]
    fn restore_fails_soft_on_skew_mismatch_and_garbage() {
        use crate::recover::RecoverError;
        let trace = pulse_trace::synth::azure_like_12_with_horizon(5, 120);
        let fams: Vec<ModelFamily> = (0..12).map(|i| zoo::standard()[i % 5].clone()).collect();
        let sim = Simulator::new(trace, fams.clone());
        let mut p = PulsePolicy::new(fams.clone(), PulseConfig::default());
        let mut session = sim.session(&mut p);
        for _ in 0..40 {
            session.step_minute();
        }
        let snap = session.snapshot();
        drop(session);

        // Version skew is detected before anything else is trusted.
        let current = format!("\"version\":{SNAPSHOT_VERSION}");
        let skewed = snap.replacen(&current, "\"version\":9", 1);
        let mut q = PulsePolicy::new(fams.clone(), PulseConfig::default());
        assert!(matches!(
            sim.restore(&mut q, &skewed),
            Err(RecoverError::VersionSkew { found: 9, .. })
        ));
        // The wrong policy is a typed mismatch.
        let mut ow = OpenWhiskFixed::new(&fams);
        assert!(matches!(
            sim.restore(&mut ow, &snap),
            Err(RecoverError::PolicyMismatch { .. })
        ));
        // A different workload is a fingerprint mismatch.
        let other = Simulator::new(
            pulse_trace::synth::azure_like_12_with_horizon(6, 120),
            fams.clone(),
        );
        let mut q = PulsePolicy::new(fams.clone(), PulseConfig::default());
        assert!(matches!(
            other.restore(&mut q, &snap),
            Err(RecoverError::ConfigMismatch {
                what: "workload",
                ..
            })
        ));
        // Garbage never panics.
        let mut q = PulsePolicy::new(fams.clone(), PulseConfig::default());
        assert!(sim.restore(&mut q, "").is_err());
        assert!(sim.restore(&mut q, "not json").is_err());
        let bare = format!("{{\"type\":\"snapshot\",\"version\":{SNAPSHOT_VERSION}}}");
        assert!(sim.restore(&mut q, &bare).is_err());
    }

    #[test]
    fn restore_rejects_a_cursor_past_the_end_of_the_trace() {
        use crate::recover::RecoverError;
        let trace = pulse_trace::synth::azure_like_12_with_horizon(5, 120);
        let fams: Vec<ModelFamily> = (0..12).map(|i| zoo::standard()[i % 5].clone()).collect();
        let sim = Simulator::new(trace, fams.clone());
        let mut p = PulsePolicy::new(fams.clone(), PulseConfig::default());
        let session = sim.session(&mut p);
        let snap = session.snapshot();
        drop(session);
        // The end of the trace is a valid cursor: a finished run.
        let done = snap.replacen("\"next\":0", "\"next\":120", 1);
        let mut q = PulsePolicy::new(fams.clone(), PulseConfig::default());
        assert_eq!(sim.restore(&mut q, &done).unwrap().next_minute(), 120);
        let past = snap.replacen("\"next\":0", "\"next\":121", 1);
        let mut q = PulsePolicy::new(fams.clone(), PulseConfig::default());
        match sim.restore(&mut q, &past) {
            Err(RecoverError::Corrupt { message }) => {
                assert!(message.contains("past the 120-minute trace"), "{message}");
            }
            Err(e) => panic!("expected Corrupt, got {e:?}"),
            Ok(_) => panic!("a cursor past the trace restored"),
        }
    }
}
