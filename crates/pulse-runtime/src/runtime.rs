//! The event-driven runtime loop.
//!
//! The loop is a steppable pipeline: [`Runtime::session`] builds a
//! [`RuntimeSession`] whose [`RuntimeSession::step`] processes exactly one
//! event (a minute tick runs observe → adjust → capacity-enforcement →
//! materialize/bill, in that order), and [`RuntimeSession::finish`] drains
//! whatever is left: [`Runtime::run`] is a default-configured session
//! finished straight away. Schedule state lives in
//! the shared [`pulse_core::schedule::ScheduleLedger`] — the same substrate
//! the minute engine drives — so downgrade application, footprint metering
//! and billing are defined once for both engines.
//!
//! Semantics are aligned with `pulse_sim::Simulator` so the two engines can
//! be cross-validated (see the `validation` integration tests and
//! `pulse-exp validate`):
//!
//! * a **minute tick** fires at each minute boundary *before* that minute's
//!   arrivals: keep-alive schedules decide which container (if any) each
//!   function holds during the minute, the policy's cross-function layer may
//!   downgrade/evict (applied to this minute only), and keep-alive memory is
//!   billed from the post-adjustment schedule footprint;
//! * an **arrival** is served warm when its function holds a container
//!   (warm, executing, or still provisioning from an earlier cold start —
//!   in the last case the request queues until the container is ready, and
//!   only the request that *triggered* the provisioning counts as cold);
//! * each function's **schedule** is replaced by the policy's plan at the
//!   first arrival of every active minute, exactly as in the minute engine;
//! * variant swaps at minute boundaries are **proactive**: the plan is known
//!   a minute ahead, so the incoming variant is warm at the tick (the same
//!   assumption the minute engine — and the paper's accounting — makes).
//!
//! What this engine adds over the minute engine: millisecond latency
//! accounting (queueing behind provisioning, optional per-container
//! concurrency limits), a per-request record stream, and — via the
//! [`FaultPlan`] argument of [`Runtime::session`] — a fault-injection and
//! resilience layer.
//!
//! # Fault semantics
//!
//! Under a non-trivial [`FaultPlan`]:
//!
//! * a **provisioning attempt** (cold start, retry, or a failed proactive
//!   variant load) may fail after its full provisioning duration; failed
//!   attempts are retried with capped exponential backoff + jitter, and
//!   after `MAX_RETRIES` (3) retries the runtime **degrades one ladder rung**
//!   (re-pointing queued requests at the lower variant and recording the
//!   accuracy penalty). Only when the cheapest variant also exhausts its
//!   retries is the container reaped and its queued requests failed;
//! * a **proactive variant load** at a minute tick may fail, demoting the
//!   pre-warm to the provisioning path above (the minute is still billed
//!   from the schedule footprint, exactly as in the fault-free engine —
//!   billing is schedule-driven and crashes can never double-bill);
//! * an **execution** may crash its container partway through: the
//!   container is reaped, sibling in-flight executions run to completion
//!   (their results were already materialized), queued requests wait for a
//!   replacement container provisioned on the spot, and the crashed request
//!   is retried with backoff up to `MAX_RETRIES` times before failing;
//! * with a **request timeout** configured, a request that has not
//!   completed within its budget is failed and counted as a timeout; an
//!   execution already in flight runs on (billing is unaffected) but its
//!   record keeps the timeout classification.
//!
//! Faults draw from a dedicated seeded RNG ([`FaultInjector`]) that never
//! touches the duration sampler's stream, so the same
//! `RuntimeConfig.stochastic_seed` + `FaultPlan` reproduce identical
//! failure sequences, retry schedules and summary counters; and
//! [`FaultPlan::none`] consumes no randomness and schedules no extra
//! events, making a session under it bit-identical to [`Runtime::run`].

use crate::cluster::ClusterConfig;
use crate::container::{ContainerState, LiveContainer};
use crate::event::{Event, EventQueue};
use crate::fault::{FaultInjector, FaultPlan, MAX_RETRIES};
use crate::fleet::FleetConfig;
use crate::metrics::{NodeSummary, RequestRecord, RuntimeSummary};
use crate::node::{NodeFaultKind, NodeHealth, NodeSpec};
use crate::MS_PER_MINUTE;
use pulse_core::global::{flatten_peak_scratch, DowngradeAction, FlattenScratch};
use pulse_core::priority::PriorityStructure;
use pulse_core::schedule::ScheduleLedger;
use pulse_models::{CostModel, ModelFamily, VariantId};
use pulse_obs::{emit, ActionSource, ObsEvent, TraceSink};
use pulse_sim::policy::{KeepAlivePolicy, MinuteObservation};
use pulse_sim::recover::{fingerprint_of, read_header, write_header, RecoverError};
use pulse_sim::PlanState;
use pulse_trace::Trace;
use std::collections::VecDeque;

/// Charged pause while a warm container moves between nodes, ms. The
/// container keeps its variant and warm state but cannot serve until the
/// pause elapses; at ~10–100× below the model zoo's cold starts, a
/// migration pays off against the eviction it replaces.
const MIGRATION_PAUSE_MS: u64 = 200;

/// Runtime tunables.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuntimeConfig {
    /// Max in-flight requests per container; `None` = unbounded (the
    /// minute engine's implicit assumption).
    pub max_concurrency: Option<u32>,
    /// When set, execution and provisioning durations are drawn from the
    /// calibrated lognormal profiler (seeded here) instead of being
    /// deterministic means — the measured-style jitter of real Lambda runs.
    pub stochastic_seed: Option<u64>,
}

impl RuntimeConfig {
    /// The most requests one function executes at once (`usize::MAX` when
    /// unbounded).
    pub(crate) fn concurrency_cap(&self) -> usize {
        self.max_concurrency
            .map_or(usize::MAX, |c| usize::try_from(c).unwrap_or(usize::MAX))
    }
}

/// The millisecond-resolution platform.
#[derive(Debug, Clone)]
pub struct Runtime {
    trace: Trace,
    families: Vec<ModelFamily>,
    config: RuntimeConfig,
}

/// Draws execution/provisioning durations — deterministic means, or the
/// calibrated lognormal jitter when a seed is configured.
struct DurationSampler {
    rng: Option<rand::rngs::SmallRng>,
    profiler: pulse_models::Profiler,
}

impl DurationSampler {
    fn new(seed: Option<u64>) -> Self {
        use rand::SeedableRng;
        Self {
            rng: seed.map(rand::rngs::SmallRng::seed_from_u64),
            profiler: pulse_models::Profiler::default(),
        }
    }

    // Saturating cast of a rounded, non-negative service time in ms.
    #[allow(clippy::cast_possible_truncation)]
    fn warm_ms(&mut self, spec: &pulse_models::VariantSpec) -> u64 {
        let s = match self.rng.as_mut() {
            Some(rng) => self.profiler.sample_warm(spec, rng),
            None => spec.warm_service_time_s,
        };
        ((s * 1000.0).round() as u64).max(1)
    }

    // Saturating cast of a rounded, non-negative cold start in ms.
    #[allow(clippy::cast_possible_truncation)]
    fn provision_ms(&mut self, spec: &pulse_models::VariantSpec) -> u64 {
        let s = match self.rng.as_mut() {
            Some(rng) => self.profiler.sample_cold_start(spec, rng),
            None => spec.cold_start_s,
        };
        (s * 1000.0).round() as u64
    }
}

struct FnState {
    container: Option<LiveContainer>,
    /// Requests waiting for provisioning or a concurrency slot.
    waiting: VecDeque<usize>,
    /// Requests currently executing: its length is the in-flight count the
    /// concurrency cap bounds, and a node crash aborts its members.
    executing: Vec<usize>,
    /// Node hosting this function's container (index into the fleet).
    node: usize,
    /// Last minute for which the policy was asked for a schedule.
    scheduled_minute: Option<u64>,
    epoch: u64,
    /// Failed provisioning attempts of the current rung (fault injection).
    provision_attempts: u32,
}

/// Live per-node state of a fleet run.
struct NodeRt {
    spec: NodeSpec,
    health: NodeHealth,
    /// Keep-alive cost billed to this node, USD.
    cost_usd: f64,
    /// This node's billed footprint per minute tick, MB.
    billed_series: Vec<f64>,
    /// Ticks spent crashed or partitioned.
    minutes_down: u64,
    migrations_in: u64,
    migrations_out: u64,
}

impl NodeRt {
    fn new(spec: NodeSpec) -> Self {
        Self {
            spec,
            health: NodeHealth::Up,
            cost_usd: 0.0,
            billed_series: Vec::new(),
            minutes_down: 0,
            migrations_in: 0,
            migrations_out: 0,
        }
    }
}

/// Scale a sampled duration by a node's time factor. Exactly the identity
/// when the factor is exactly `1.0` (the healthy-node fast path the 1-node
/// bit-identity contract relies on).
// Saturating cast of a rounded, positive service time in ms.
#[allow(clippy::cast_possible_truncation)]
fn scale_ms(ms: u64, factor: f64) -> u64 {
    if factor.to_bits() == 1.0f64.to_bits() {
        ms
    } else {
        ((ms as f64) * factor).round().max(1.0) as u64
    }
}

/// Millisecond timestamps at which `count` same-minute invocations of a
/// function are admitted: spread evenly across the minute with a fixed
/// stride, offset ≥ 1 ms so the minute tick always precedes them. This is
/// the *only* trace-to-timestamp expansion in the repo — [`Runtime`] seeds
/// its sessions with it, and external admitters (the `pulse-serve` load
/// generator) reuse it so a binned trace and its expanded stream describe
/// the same run bit-for-bit.
pub fn arrival_times_in_minute(minute: u64, count: u64) -> impl Iterator<Item = u64> {
    let stride = (MS_PER_MINUTE - 2).checked_div(count).unwrap_or(0);
    (0..count).map(move |k| minute * MS_PER_MINUTE + 1 + k * stride)
}

/// The mutable machinery of one execution: event queue, per-function and
/// per-request state, samplers, and the summary being accumulated. Grouping
/// it lets the fault handlers be methods instead of 10-argument functions.
struct RunState<'a> {
    queue: EventQueue,
    /// Time of the last processed event, ms. No queued event is earlier.
    now_ms: u64,
    /// Events processed so far: with `now_ms`, a checkpoint's cursor.
    steps: u64,
    fns: Vec<FnState>,
    /// Keep-alive schedules, one per function — the shared billing/downgrade
    /// substrate (same semantics as the minute engine's ledger).
    ledger: ScheduleLedger,
    records: Vec<RequestRecord>,
    /// Variant serving each request (re-pointed on ladder degradation).
    req_warm_variant: Vec<VariantId>,
    /// Crash retries consumed per request.
    req_retries: Vec<u32>,
    /// Whether each request reached a terminal state (done or failed).
    req_done: Vec<bool>,
    /// Execution generation per request: bumped when a node crash aborts the
    /// in-flight execution, so its already-queued completion is ignored.
    /// Never bumped outside node-fault runs (bit-identity contract).
    req_gen: Vec<u64>,
    summary: RuntimeSummary,
    sampler: DurationSampler,
    injector: FaultInjector,
    /// Concurrency cap per function: the most `executing` requests.
    cap: usize,
    /// Requests currently waiting across all functions (for provisioning or
    /// a concurrency slot) — the backlog admission control bounds.
    pending: usize,
    /// Downgrade counts of the capacity enforcer, one structure per node
    /// (shields repeat victims, exactly as Algorithm 2's priority term does
    /// for policy peaks).
    pressure_priority: Vec<PriorityStructure>,
    /// Live node state, indexed like `FleetConfig::nodes`.
    nodes: Vec<NodeRt>,
    /// Arrivals observed since the last minute tick.
    minute_requests: u64,
    /// SLO violations (cold arrivals, terminal failures, sheds) since the
    /// last minute tick.
    minute_violations: u64,
    /// Watchdog state at the last tick (for transition events).
    prev_fallback: bool,
    /// Attached observer, if any. Disabled/absent sinks cost one branch per
    /// emission point and change nothing else (the transparency contract).
    sink: Option<&'a mut dyn TraceSink>,
}

impl RunState<'_> {
    /// Open the bookkeeping of a new request for `func` arriving at `at_ms`
    /// (its record and per-request slots) and queue its arrival, returning
    /// the request id.
    // `admit_at` runs once per live arrival; without the hint this stays an
    // out-of-line call there.
    #[inline]
    fn push_arrival(&mut self, at_ms: u64, func: usize) -> usize {
        let req = self.records.len();
        self.records.push(RequestRecord {
            arrival_ms: at_ms,
            done_ms: at_ms,
            warm: false,
            accuracy_pct: 0.0,
            failed: false,
        });
        self.req_warm_variant.push(0);
        self.req_retries.push(0);
        self.req_done.push(false);
        self.req_gen.push(0);
        self.queue.push(at_ms, Event::Arrival { func, req });
        req
    }

    /// Duration multiplier currently in force on the node hosting `func`.
    fn node_time_factor(&self, func: usize) -> f64 {
        self.nodes[self.fns[func].node].health.time_scale()
    }

    /// Can the node currently hosting `func` accept new work?
    fn node_ok(&self, func: usize) -> bool {
        self.nodes[self.fns[func].node].health.accepts_work()
    }

    /// Capacity headroom `node` keeps after taking a `needed_mb` container,
    /// as a fraction of its cap: negative when the container would put it
    /// over, `-∞` for a zero cap and `1` for an uncapped node.
    fn headroom(&self, families: &[ModelFamily], node: usize, needed_mb: f64) -> f64 {
        match self.nodes[node].spec.capacity.keepalive_mb {
            Some(cap) if cap > 0.0 => (cap - self.node_used_mb(families, node) - needed_mb) / cap,
            Some(_) => f64::NEG_INFINITY,
            None => 1.0,
        }
    }

    /// Place a cold start needing `needed_mb` MB: the live node with the
    /// most headroom (floored at zero for a node the placement would put
    /// over its cap), ties to the lowest index. `None` only when no node
    /// accepts work.
    fn place_for(&self, families: &[ModelFamily], needed_mb: f64) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (k, node) in self.nodes.iter().enumerate() {
            if !node.health.accepts_work() {
                continue;
            }
            // Scored as `1 + headroom`, not bare headroom: headrooms a
            // rounding step apart then tie to the lower index, which keeps
            // every placement where the pinned fleet outputs expect it.
            let score = 1.0 + self.headroom(families, k, needed_mb).max(0.0);
            if best.is_none_or(|(_, bs)| score > bs) {
                best = Some((k, score));
            }
        }
        best.map(|(k, _)| k)
    }

    /// Best live node other than `exclude` with actual room for a
    /// `needed_mb` container (ranked like [`Self::place_for`], but a node
    /// that would immediately be over its own cap is not a valid migration
    /// target — that would just move the pressure). `None` when nowhere
    /// fits.
    fn migration_target(
        &self,
        families: &[ModelFamily],
        needed_mb: f64,
        exclude: usize,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (k, node) in self.nodes.iter().enumerate() {
            if k == exclude || !node.health.accepts_work() {
                continue;
            }
            let headroom = self.headroom(families, k, needed_mb);
            if headroom < 0.0 {
                continue;
            }
            let score = 1.0 + headroom;
            if best.is_none_or(|(_, bs)| score > bs) {
                best = Some((k, score));
            }
        }
        best.map(|(k, _)| k)
    }

    /// Total footprint of the live containers currently hosted on `node`,
    /// MB.
    fn node_used_mb(&self, families: &[ModelFamily], node: usize) -> f64 {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, st)| st.node == node)
            .filter_map(|(f, st)| st.container.as_ref().map(|c| (f, c)))
            .map(|(f, c)| families[f].variant(c.variant).memory_mb)
            .sum()
    }

    /// Begin executing `req` on `func`'s warm container, drawing the
    /// execution duration and (under faults) a possible mid-execution crash.
    fn start_exec(&mut self, fam: &ModelFamily, func: usize, req: usize, now: u64) {
        self.fns[func].executing.push(req);
        let mut epoch = 0;
        if let Some(c) = self.fns[func].container.as_mut() {
            c.begin_exec();
            epoch = c.epoch;
        }
        let v = self.req_warm_variant[req];
        let exec = scale_ms(
            self.sampler.warm_ms(fam.variant(v)),
            self.node_time_factor(func),
        );
        let gen = self.req_gen[req];
        if self.injector.exec_crashes(func, v) {
            let at = now + self.injector.crash_point_ms(exec);
            self.queue.push(
                at,
                Event::ExecFailed {
                    func,
                    req,
                    epoch,
                    gen,
                },
            );
        } else {
            self.queue
                .push(now + exec, Event::ExecDone { func, req, gen });
        }
    }

    /// Start provisioning variant `v` for `func` after `delay_ms` of
    /// backoff, drawing the provisioning duration and (under faults) the
    /// attempt's outcome. Bumps the epoch so stale completions are ignored.
    fn begin_provision(
        &mut self,
        fam: &ModelFamily,
        func: usize,
        v: VariantId,
        now: u64,
        delay_ms: u64,
    ) {
        let dur = scale_ms(
            self.sampler.provision_ms(fam.variant(v)),
            self.node_time_factor(func),
        );
        let ready = now + delay_ms + dur;
        let st = &mut self.fns[func];
        st.epoch += 1;
        st.container = Some(LiveContainer::provisioning(v, ready, st.epoch));
        let epoch = st.epoch;
        if self.injector.provision_fails(func, v) {
            self.queue
                .push(ready, Event::ProvisionFailed { func, epoch });
        } else {
            self.queue.push(ready, Event::ProvisionDone { func, epoch });
        }
    }

    /// Start as many waiting requests as the concurrency cap allows.
    fn drain_waiting(&mut self, fam: &ModelFamily, func: usize, now: u64) {
        let can_serve = self.fns[func]
            .container
            .as_ref()
            .is_some_and(|c| c.is_warm());
        if !can_serve {
            return;
        }
        while self.fns[func].executing.len() < self.cap {
            let Some(req) = self.fns[func].waiting.pop_front() else {
                break;
            };
            self.pending -= 1;
            self.start_exec(fam, func, req, now);
        }
    }

    /// Mark `req` as terminally failed at `now`.
    fn fail_request(&mut self, req: usize, now: u64) {
        if self.req_done[req] {
            return;
        }
        self.req_done[req] = true;
        self.records[req].failed = true;
        self.records[req].done_ms = now;
        self.minute_violations += 1;
    }

    /// A provisioning attempt failed: retry with backoff, or — once the
    /// rung's retry budget is spent — degrade one ladder rung, reaping the
    /// container only when the cheapest variant is also out of retries.
    fn on_provision_failed(&mut self, fam: &ModelFamily, func: usize, epoch: u64, now: u64) {
        let Some(c) = self.fns[func].container.as_ref() else {
            return;
        };
        if c.epoch != epoch || c.state != ContainerState::Provisioning {
            return;
        }
        let v = c.variant;
        self.summary.provision_failures += 1;
        self.fns[func].provision_attempts += 1;
        let attempts = self.fns[func].provision_attempts;
        if attempts <= MAX_RETRIES {
            self.summary.provision_retries += 1;
            let backoff = self.injector.backoff_ms(attempts);
            self.begin_provision(fam, func, v, now, backoff);
        } else if let Some(lower) = fam.next_lower(v) {
            // Graceful degradation: Algorithm 2's downgrade move, applied as
            // a failure response — one rung down instead of failing requests.
            self.summary.degradations += 1;
            emit(&mut self.sink, || ObsEvent::Degrade {
                at_ms: now,
                func,
                from: v,
                to: lower,
            });
            let new_acc = fam.variant(lower).accuracy_pct;
            let waiting: Vec<usize> = self.fns[func].waiting.iter().copied().collect();
            for r in waiting {
                if self.req_warm_variant[r] != lower {
                    self.summary.degraded_requests += 1;
                    self.summary.accuracy_penalty_pct +=
                        (self.records[r].accuracy_pct - new_acc).max(0.0);
                    self.records[r].accuracy_pct = new_acc;
                    self.req_warm_variant[r] = lower;
                }
            }
            self.fns[func].provision_attempts = 0;
            self.begin_provision(fam, func, lower, now, 0);
        } else {
            // The cheapest variant failed too: the ladder is exhausted.
            self.summary.reaped += 1;
            emit(&mut self.sink, || ObsEvent::Reap { at_ms: now, func });
            if let Some(c) = self.fns[func].container.as_mut() {
                c.state = ContainerState::Reaped;
            }
            self.fns[func].container = None;
            self.fns[func].provision_attempts = 0;
            while let Some(r) = self.fns[func].waiting.pop_front() {
                self.pending -= 1;
                self.fail_request(r, now);
            }
        }
    }

    /// A container crashed mid-execution: reap it (unless already
    /// replaced), retry the aborted request with backoff, and re-provision
    /// for any queued requests.
    fn on_exec_failed(
        &mut self,
        fam: &ModelFamily,
        func: usize,
        req: usize,
        epoch: u64,
        gen: u64,
        now: u64,
    ) {
        if gen != self.req_gen[req] {
            return; // aborted by a node crash; the re-dispatch owns it now
        }
        self.summary.exec_crashes += 1;
        // A live-generation crash event implies an execution this function
        // started and never completed, so `req` must still be executing —
        // a miss here means a completion was double-counted somewhere
        // (crash-abort paths bump `req_gen`, so their stale events return
        // above). Assert in debug; in release a miss frees no slot.
        let pos = self.fns[func].executing.iter().position(|&r| r == req);
        debug_assert!(
            pos.is_some(),
            "exec-crash completion for function {func} (request {req}) that is not executing — duplicate completion?"
        );
        if let Some(pos) = pos {
            self.fns[func].executing.swap_remove(pos);
        }
        let same_container = self.fns[func]
            .container
            .as_ref()
            .is_some_and(|c| c.epoch == epoch);
        if same_container {
            if let Some(c) = self.fns[func].container.as_mut() {
                c.state = ContainerState::Reaped;
            }
            self.fns[func].container = None;
        }
        if !self.req_done[req] {
            self.req_retries[req] += 1;
            if self.req_retries[req] <= MAX_RETRIES {
                self.summary.request_retries += 1;
                let backoff = self.injector.backoff_ms(self.req_retries[req]);
                self.queue
                    .push(now + backoff, Event::RetryRequest { func, req });
            } else {
                self.fail_request(req, now);
            }
        }
        // Queued requests lost their container: provision a replacement at
        // the rung they are assigned to.
        if self.fns[func].container.is_none() {
            if let Some(&front) = self.fns[func].waiting.front() {
                let v = self.req_warm_variant[front];
                self.fns[func].provision_attempts = 0;
                self.begin_provision(fam, func, v, now, 0);
            }
        }
    }

    /// Re-attempt a crashed request after its backoff.
    fn on_retry_request(&mut self, families: &[ModelFamily], func: usize, req: usize, now: u64) {
        if self.req_done[req] {
            return;
        }
        let fam = &families[func];
        let warm_variant = self.fns[func]
            .container
            .as_ref()
            .and_then(|c| c.is_warm().then_some(c.variant));
        match (warm_variant, self.fns[func].container.is_some()) {
            (Some(v), _) => {
                // The retried execution runs on whatever rung is now live.
                if self.req_warm_variant[req] != v {
                    self.records[req].accuracy_pct = fam.variant(v).accuracy_pct;
                    self.req_warm_variant[req] = v;
                }
                if self.fns[func].executing.len() < self.cap {
                    self.start_exec(fam, func, req, now);
                } else {
                    self.pending += 1;
                    self.fns[func].waiting.push_back(req);
                }
            }
            (None, true) => {
                self.pending += 1;
                self.fns[func].waiting.push_back(req);
            }
            (None, false) => {
                let v = self.req_warm_variant[req];
                if !self.node_ok(func) {
                    // The assigned node is down: re-place before
                    // provisioning, or fail the retry if no node is live.
                    match self.place_for(families, fam.variant(v).memory_mb) {
                        Some(k) => self.fns[func].node = k,
                        None => {
                            self.summary.placement_failures += 1;
                            self.fail_request(req, now);
                            return;
                        }
                    }
                }
                self.pending += 1;
                self.fns[func].waiting.push_back(req);
                self.fns[func].provision_attempts = 0;
                self.begin_provision(fam, func, v, now, 0);
            }
        }
    }

    /// A request blew its SLO budget: fail it and drop it from the waiting
    /// queue. An execution already in flight runs on; its completion event
    /// only does container bookkeeping.
    fn on_timeout(&mut self, func: usize, req: usize, now: u64) {
        if self.req_done[req] {
            return;
        }
        self.summary.timeouts += 1;
        self.fail_request(req, now);
        if let Some(pos) = self.fns[func].waiting.iter().position(|&r| r == req) {
            self.fns[func].waiting.remove(pos);
            self.pending -= 1;
        }
    }
}

impl Runtime {
    /// Build over a trace and a per-function family assignment.
    pub fn new(trace: Trace, families: Vec<ModelFamily>, config: RuntimeConfig) -> Self {
        assert_eq!(trace.n_functions(), families.len());
        Self {
            trace,
            families,
            config,
        }
    }

    /// Execute the whole trace under `policy` on a perfectly reliable,
    /// unlimited single node: [`Self::session`] with [`FaultPlan::none`]
    /// and [`ClusterConfig::unlimited`], driven to completion.
    pub fn run(&self, policy: &mut dyn KeepAlivePolicy) -> RuntimeSummary {
        self.session(policy, &FaultPlan::none(), ClusterConfig::unlimited())
            .finish()
    }

    /// Begin a run of `policy` with faults injected per `plan` on `fleet`
    /// — a [`ClusterConfig`] (one finite node: keep-alive memory capped by
    /// [`ClusterConfig::capacity`], overage flattened by utility-ordered
    /// pressure downgrades, backlog bounded by [`ClusterConfig::admission`])
    /// or a multi-node [`FleetConfig`] (headroom placement, per-node
    /// capacity, migration, global admission and node faults; see
    /// [`crate::fleet`]). A cluster is exactly its one-node fleet (the
    /// `From` conversion), so both shapes run one implementation.
    ///
    /// All events (minute ticks, arrivals, node faults, optional SLO
    /// timers) are seeded up front. [`RuntimeSession::finish`] drives the
    /// run to completion; callers that interleave the run with other work
    /// (online serving, co-simulation, the cross-engine equivalence tests)
    /// call [`RuntimeSession::step`] by hand first. Attach an observer with
    /// [`RuntimeSession::traced`]. See the module docs for the fault
    /// semantics.
    pub fn session<'a>(
        &'a self,
        policy: &'a mut dyn KeepAlivePolicy,
        plan: &FaultPlan,
        fleet: impl Into<FleetConfig>,
    ) -> RuntimeSession<'a> {
        let fleet: FleetConfig = fleet.into();
        assert!(!fleet.nodes.is_empty(), "a fleet needs at least one node");
        let n = self.families.len();
        let minutes = self.trace.minutes() as u64;
        let mut rs = RunState {
            // Minute ticks take sequence numbers 0..minutes, ahead of every
            // event pushed below.
            queue: EventQueue::with_minute_ticks(minutes),
            now_ms: 0,
            steps: 0,
            fns: (0..n)
                .map(|_| FnState {
                    container: None,
                    waiting: VecDeque::new(),
                    executing: Vec::new(),
                    node: 0,
                    scheduled_minute: None,
                    epoch: 0,
                    provision_attempts: 0,
                })
                .collect(),
            ledger: ScheduleLedger::for_families(&self.families),
            records: Vec::new(),
            req_warm_variant: Vec::new(),
            req_retries: Vec::new(),
            req_done: Vec::new(),
            req_gen: Vec::new(),
            summary: RuntimeSummary::default(),
            sampler: DurationSampler::new(self.config.stochastic_seed),
            injector: FaultInjector::new(plan),
            cap: self.config.concurrency_cap(),
            pending: 0,
            pressure_priority: (0..fleet.nodes.len())
                .map(|_| PriorityStructure::new(n))
                .collect(),
            nodes: fleet.nodes.iter().cloned().map(NodeRt::new).collect(),
            minute_requests: 0,
            minute_violations: 0,
            prev_fallback: false,
            sink: None,
        };
        let mut req_func: Vec<usize> = Vec::new();

        // Node fault windows (fleet runs only; an empty plan pushes nothing,
        // preserving event sequence numbers — the bit-identity contract).
        // Sequenced after the ticks so that at equal timestamps the minute
        // tick bills first, and before that minute's arrivals.
        for (i, f) in fleet.node_faults.faults.iter().enumerate() {
            assert!(
                f.node < fleet.nodes.len(),
                "fault targets node {} but the fleet has {} nodes",
                f.node,
                fleet.nodes.len()
            );
            rs.queue.push(
                f.at_minute * MS_PER_MINUTE,
                Event::NodeDown {
                    node: f.node,
                    fault: i,
                },
            );
            rs.queue.push(
                (f.at_minute + f.duration_minutes) * MS_PER_MINUTE,
                Event::NodeRecovered {
                    node: f.node,
                    fault: i,
                },
            );
        }
        // Arrivals, spread across each active minute (offset ≥ 1 ms so the
        // tick always precedes them).
        for m in 0..minutes {
            for f in 0..n {
                let count = self.trace.function(f).at(m) as u64;
                for at in arrival_times_in_minute(m, count) {
                    rs.push_arrival(at, f);
                    req_func.push(f);
                }
            }
        }
        // SLO timers (only when the plan configures a timeout, so fault-free
        // runs schedule no extra events).
        if let Some(t) = plan.request_timeout_ms {
            for (req, (rec, &func)) in rs.records.iter().zip(req_func.iter()).enumerate() {
                let at = rec.arrival_ms.saturating_add(t);
                rs.queue.push(at, Event::RequestTimeout { func, req });
            }
        }

        RuntimeSession {
            rt: self,
            policy,
            fleet,
            rs,
            plan: PlanState::new(self.trace.minutes()),
            flatten_scratch: FlattenScratch::default(),
        }
    }

    /// Fingerprint of this runtime's workload identity (trace + families +
    /// config) — stamped into checkpoints and checked on restore.
    fn workload_fingerprint(&self) -> u64 {
        fingerprint_of(&(&self.trace, &self.families, &self.config))
    }

    /// Resume a run killed after [`RuntimeSession::snapshot`]: build a
    /// fresh [`Self::session`] and replay it, untraced, through the
    /// checkpoint's count of events, so that driving it to completion is
    /// bit-identical to the uninterrupted run. `plan` and `fleet` must equal
    /// the checkpointed configuration (checked by fingerprint; a
    /// [`ClusterConfig`] converts to its one-node fleet exactly as in
    /// [`Self::session`]) and `policy` must be freshly constructed with the
    /// same arguments: replay rebuilds its learned state by driving it
    /// again, so a policy that has already run gets the prefix twice
    /// (PULSE's history assert panics on that). Restoring emits nothing, so
    /// [`RuntimeSession::traced`]
    /// continues the event stream exactly where the killed run's journal
    /// left off. Fails soft with a typed [`RecoverError`] on skew,
    /// corruption or any mismatch, and when replay drains the queue before
    /// the cursor or stops at a time other than the checkpoint's.
    ///
    /// Only trace-seeded runs replay: arrivals fed in by
    /// [`RuntimeSession::admit_at`] are not in the checkpoint.
    pub fn restore<'a>(
        &'a self,
        policy: &'a mut dyn KeepAlivePolicy,
        plan: &FaultPlan,
        fleet: impl Into<FleetConfig>,
        snapshot: &str,
    ) -> Result<RuntimeSession<'a>, RecoverError> {
        let fleet: FleetConfig = fleet.into();
        let head = read_header(
            snapshot,
            "rt",
            &[
                ("workload", self.workload_fingerprint()),
                ("plan", fingerprint_of(plan)),
                ("fleet", fingerprint_of(&fleet)),
            ],
            policy.name(),
        )?;
        let steps = head.u64("steps").map_err(RecoverError::corrupt)?;
        let now = head.u64("now").map_err(RecoverError::corrupt)?;
        let mut session = self.session(policy, plan, fleet);
        while session.rs.steps < steps {
            if session.step().is_none() {
                return Err(RecoverError::corrupt(format!(
                    "the cursor at event {steps} is past the run's {} events",
                    session.rs.steps
                )));
            }
        }
        if session.rs.now_ms != now {
            return Err(RecoverError::corrupt(format!(
                "replaying {steps} events reached {} ms, not the checkpoint's {now} ms",
                session.rs.now_ms
            )));
        }
        Ok(session)
    }
}

/// An in-flight runtime execution: one event per [`Self::step`] call, over
/// the shared [`ScheduleLedger`] substrate. Built by [`Runtime::session`].
pub struct RuntimeSession<'a> {
    rt: &'a Runtime,
    policy: &'a mut dyn KeepAlivePolicy,
    fleet: FleetConfig,
    rs: RunState<'a>,
    /// The global layer shared with the simulator; its footprint buffer
    /// also serves the fleet stages, which refill it before reading.
    plan: PlanState,
    /// Victim-heap scratch for the capacity enforcer. Pure scratch: carries
    /// no state across calls.
    flatten_scratch: FlattenScratch,
}

impl<'a> RuntimeSession<'a> {
    /// Attach a [`TraceSink`]: from here on every adjust, bill,
    /// downgrade/eviction (policy- and pressure-sourced), arrival, shed,
    /// fault degradation/reap, node lifecycle, migration and watchdog
    /// transition is emitted as a typed [`ObsEvent`]. Neither
    /// [`Runtime::session`] nor [`Runtime::restore`] emits, so a sink
    /// attached straight after either sees the whole stream — on a restored
    /// session, exactly where the killed run's journal left off. With a
    /// disabled sink (e.g. [`pulse_obs::NullSink`]) the run is
    /// bit-identical to the un-traced one: sinks observe, they never steer.
    pub fn traced(mut self, sink: &'a mut dyn TraceSink) -> Self {
        self.rs.sink = Some(sink);
        self
    }

    /// The ledger's current schedule state.
    pub fn ledger(&self) -> &ScheduleLedger {
        &self.rs.ledger
    }

    /// Events still queued (the run completes when this reaches zero).
    pub fn pending_events(&self) -> usize {
        self.rs.queue.len()
    }

    /// Timestamp (ms) of the next queued event, `None` once drained. Lets a
    /// caller co-stepping this session with another engine advance exactly
    /// through one minute's events without processing the next minute tick.
    pub fn peek_time(&self) -> Option<u64> {
        self.rs.queue.peek_time()
    }

    /// The next queued event and its timestamp (ms), without processing
    /// it: the event the next [`Self::step`] returns. Lets a caller decide
    /// per event kind what to do around the step, e.g. time only arrivals
    /// and minute ticks.
    pub fn peek(&self) -> Option<(u64, Event)> {
        self.rs.queue.peek()
    }

    /// Arrivals shed by admission control so far. The live
    /// serving front door reports this mid-run, per minute tick, without
    /// waiting for [`Self::finish`].
    pub fn shed_so_far(&self) -> u64 {
        self.rs.summary.shed_requests
    }

    /// Admit one externally sourced request for `func` at absolute time
    /// `at_ms`, returning its request id. The request joins the same
    /// machinery trace-seeded arrivals use: it is a queued
    /// [`Event::Arrival`] processed by [`Self::step`], subject to admission
    /// control, warm/cold dispatch and the policy's schedule refresh — and,
    /// when the fault plan configures a per-request SLO budget, a matching
    /// [`Event::RequestTimeout`] is scheduled alongside it.
    ///
    /// This is the online-serving hook: a session built over an all-zero
    /// trace has only minute ticks queued, and a caller (e.g.
    /// `pulse-serve`) feeds arrivals in as they happen. Admitting the full
    /// stream up front in `(minute, func, k)` order with
    /// [`arrival_times_in_minute`] timestamps reproduces the exact event
    /// sequence numbers of a trace-seeded run, which is what makes the
    /// simulated-clock serve mode bit-identical to a trace-seeded
    /// [`Runtime::session`] on the binned trace (with a request
    /// timeout configured, timeout timers interleave with later admissions
    /// instead of following the whole arrival block, so exact-tie ordering
    /// may differ there). `at_ms` should not precede the last processed
    /// event: the run would step back in time. A checkpoint does not record
    /// admitted arrivals, so [`Runtime::restore`] cannot replay them.
    pub fn admit_at(&mut self, at_ms: u64, func: usize) -> usize {
        assert!(
            func < self.rt.families.len(),
            "admit_at targets function {func} but the runtime has {}",
            self.rt.families.len()
        );
        let rs = &mut self.rs;
        let req = rs.push_arrival(at_ms, func);
        if let Some(t) = rs.injector.plan().request_timeout_ms {
            rs.queue
                .push(at_ms.saturating_add(t), Event::RequestTimeout { func, req });
        }
        req
    }

    /// Process the next event. A minute tick runs the full pipeline
    /// (observe previous minute → policy adjustment → capacity enforcement
    /// → materialize containers and bill); every other event advances the
    /// arrival/service machinery. Returns the `(time_ms, event)` processed,
    /// or `None` once the queue is drained.
    pub fn step(&mut self) -> Option<(u64, Event)> {
        let (now, event) = self.rs.queue.pop()?;
        self.rs.now_ms = now;
        self.rs.steps += 1;
        match &event {
            Event::MinuteTick { minute } => self.on_minute_tick(now, *minute),
            Event::Arrival { func, req } => self.on_arrival(now, *func, *req),
            Event::ProvisionDone { func, epoch } => self.on_provision_done(now, *func, *epoch),
            Event::ProvisionFailed { func, epoch } => {
                self.rs
                    .on_provision_failed(&self.rt.families[*func], *func, *epoch, now);
            }
            Event::ExecDone { func, req, gen } => self.on_exec_done(now, *func, *req, *gen),
            Event::ExecFailed {
                func,
                req,
                epoch,
                gen,
            } => {
                self.rs
                    .on_exec_failed(&self.rt.families[*func], *func, *req, *epoch, *gen, now);
            }
            Event::RequestTimeout { func, req } => self.rs.on_timeout(*func, *req, now),
            Event::RetryRequest { func, req } => {
                self.rs
                    .on_retry_request(&self.rt.families, *func, *req, now);
            }
            Event::NodeDown { node, fault } => self.on_node_down(now, *node, *fault),
            Event::NodeRecovered { node, fault } => self.on_node_recovered(now, *node, *fault),
            // A migration pause elapsing is exactly a provisioning attempt
            // succeeding: warm the container (unless stale) and drain.
            Event::MigrationDone { func, epoch } => self.on_provision_done(now, *func, *epoch),
        }
        Some((now, event))
    }

    /// Checkpoint this run: a one-line versioned header naming the
    /// workload, fault plan, fleet and policy, and the cursor (events
    /// processed, and the time of the last). Restoring it with
    /// [`Runtime::restore`] (same workload/plan/fleet, a fresh same-seeded
    /// policy) replays the run to that event, and stepping on to completion
    /// is bit-identical to never having stopped — counters, cost,
    /// per-request records and the emitted observability stream all
    /// included.
    pub fn snapshot(&self) -> String {
        write_header(
            "rt",
            &[
                ("workload", self.rt.workload_fingerprint()),
                ("plan", fingerprint_of(self.rs.injector.plan())),
                ("fleet", fingerprint_of(&self.fleet)),
            ],
            self.policy.name(),
            &[("steps", self.rs.steps), ("now", self.rs.now_ms)],
        )
    }

    /// Drain any remaining events and return the summary. Every request is
    /// resolved before it is reported, so stopping [`Self::step`] early and
    /// calling this is the same run as never stepping by hand.
    pub fn finish(mut self) -> RuntimeSummary {
        while self.step().is_some() {}
        let mut summary = self.rs.summary;
        summary.records = self.rs.records;
        summary.node_summaries = self
            .rs
            .nodes
            .into_iter()
            .map(|nd| NodeSummary {
                name: nd.spec.name,
                keepalive_cost_usd: nd.cost_usd,
                memory_at_tick_mb: nd.billed_series,
                minutes_down: nd.minutes_down,
                migrations_in: nd.migrations_in,
                migrations_out: nd.migrations_out,
            })
            .collect();
        summary
    }

    /// The minute-tick pipeline, in billing-significant order. The two
    /// fleet stages (node health, rebalance) are no-ops on a single healthy
    /// node, keeping cluster-compatible runs bit-identical.
    fn on_minute_tick(&mut self, now: u64, minute: u64) {
        self.stage_observe_previous(minute);
        self.stage_adjust(minute);
        self.stage_node_health(minute);
        self.stage_rebalance(now, minute);
        self.stage_enforce_capacity(minute);
        self.stage_materialize_and_bill(now, minute);
        // Minutes strictly before this one are fully billed; drop their
        // per-minute index state. Mid-minute events still read minute
        // `minute` (arrivals query `alive_variant_at`), which stays live.
        self.rs.ledger.retire_minutes_before(minute);
    }

    /// Tick stage 1: close out the previous minute for the policy's
    /// self-monitoring (a no-op for plain policies; the watchdog wrapper may
    /// flip its fallback state here, before this minute's planning).
    fn stage_observe_previous(&mut self, minute: u64) {
        if minute == 0 {
            return;
        }
        let obs = MinuteObservation {
            minute: minute - 1,
            requests: std::mem::take(&mut self.rs.minute_requests),
            slo_violations: std::mem::take(&mut self.rs.minute_violations),
        };
        self.policy.observe_minute(&obs);
        let fb = self.policy.in_fallback();
        if fb {
            self.rs.summary.fallback_minutes += 1;
        }
        if fb != self.rs.prev_fallback {
            self.rs.prev_fallback = fb;
            emit(&mut self.rs.sink, || ObsEvent::Watchdog {
                minute,
                fallback: fb,
            });
        }
    }

    /// Tick stage 2: the policy's cross-function adjustment against the
    /// schedule demand, applied to this minute of the ledger only
    /// ([`PlanState::adjust`], the simulator's stage too).
    fn stage_adjust(&mut self, minute: u64) {
        let requested = self.plan.adjust(
            &mut *self.policy,
            &mut self.rs.ledger,
            &self.rt.families,
            minute,
            &mut self.rs.sink,
        );
        self.rs.summary.downgrades += requested as u64;
    }

    /// Tick stage 3 (fleet): account downtime and move scheduled functions
    /// off nodes that cannot accept work — each is re-placed on the best
    /// live node, or evicted from the ledger when the whole fleet is down.
    /// A no-op when every node is up, in particular in every
    /// cluster-compatible run without node faults.
    fn stage_node_health(&mut self, minute: u64) {
        if self
            .rs
            .nodes
            .iter()
            .all(|nd| matches!(nd.health, NodeHealth::Up))
        {
            return;
        }
        for nd in &mut self.rs.nodes {
            if !nd.health.accepts_work() {
                nd.minutes_down += 1;
            }
        }
        for f in 0..self.rt.families.len() {
            if self.rs.node_ok(f) {
                continue;
            }
            let Some(v) = self.rs.ledger.alive_variant_at(f, minute) else {
                continue;
            };
            let mem = self.rt.families[f].variant(v).memory_mb;
            match self.rs.place_for(&self.rt.families, mem) {
                Some(k) => self.rs.fns[f].node = k,
                None => {
                    let applied = self.rs.ledger.apply_eviction(f, minute);
                    self.rs.summary.node_loss_evictions += 1;
                    emit(&mut self.rs.sink, || ObsEvent::Evict {
                        minute,
                        func: f,
                        from: v,
                        source: ActionSource::NodeLoss,
                        applied,
                    });
                }
            }
        }
    }

    /// Tick stage 4 (fleet): migrate idle warm containers off nodes whose
    /// planned keep-alive footprint exceeds their capacity, before the
    /// pressure enforcer starts downgrading. A migration is a charged pause
    /// ([`MIGRATION_PAUSE_MS`], during which the container queues arrivals
    /// like a provisioning one) — much cheaper than the cold start an
    /// eviction would cause. Single-node fleets skip
    /// this stage entirely.
    fn stage_rebalance(&mut self, now: u64, minute: u64) {
        if self.rs.nodes.len() < 2 {
            return;
        }
        // Refill the footprint after the adjustment and node-health stages,
        // then detach it so the loop below can borrow `self.rs` mutably
        // (migrations never touch the ledger, so the snapshot stays valid
        // for the whole stage).
        self.rs
            .ledger
            .fill_minute_footprint(&self.rt.families, minute, &mut self.plan.fp);
        let footprint = std::mem::take(&mut self.plan.fp);
        for k in 0..self.rs.nodes.len() {
            let Some(cap) = self.rs.nodes[k].spec.capacity.keepalive_mb else {
                continue;
            };
            let on_node: Vec<(usize, VariantId)> = footprint
                .alive
                .iter()
                .filter(|a| self.rs.fns[a.func].node == k)
                .map(|a| (a.func, a.variant))
                .collect();
            let mut planned: f64 = on_node
                .iter()
                .map(|&(f, v)| self.rt.families[f].variant(v).memory_mb)
                .sum();
            if planned <= cap {
                continue;
            }
            for (f, v) in on_node {
                if planned <= cap {
                    break;
                }
                // Only idle warm containers move: in-flight work and queued
                // requests pin a container to its node.
                let movable = self.rs.fns[f]
                    .container
                    .as_ref()
                    .is_some_and(|c| c.is_warm() && c.busy == 0)
                    && self.rs.fns[f].waiting.is_empty();
                if !movable {
                    continue;
                }
                let mem = self.rt.families[f].variant(v).memory_mb;
                let Some(to) = self.rs.migration_target(&self.rt.families, mem, k) else {
                    continue;
                };
                let st = &mut self.rs.fns[f];
                st.node = to;
                st.epoch += 1;
                let epoch = st.epoch;
                if let Some(c) = st.container.as_mut() {
                    c.state = ContainerState::Provisioning;
                    c.epoch = epoch;
                }
                self.rs.queue.push(
                    now + MIGRATION_PAUSE_MS,
                    Event::MigrationDone { func: f, epoch },
                );
                planned -= mem;
                self.rs.summary.migrations += 1;
                self.rs.summary.migration_pause_ms += MIGRATION_PAUSE_MS;
                self.rs.nodes[k].migrations_out += 1;
                self.rs.nodes[to].migrations_in += 1;
                emit(&mut self.rs.sink, || ObsEvent::Migrate {
                    minute,
                    func: f,
                    from_node: k,
                    to_node: to,
                });
            }
        }
        self.plan.fp = footprint;
    }

    /// Tick stage 5: per-node capacity enforcement — when a node's
    /// post-adjustment plan still exceeds its hard cap, flatten the overage
    /// with Algorithm 2's utility-ordered downgrade loop (lowest `Uv`
    /// first; each node's pressure priority structure shields repeat
    /// victims across ticks). Applied before billing, so no node's billed
    /// footprint can exceed its cap.
    fn stage_enforce_capacity(&mut self, minute: u64) {
        if self
            .rs
            .nodes
            .iter()
            .all(|nd| nd.spec.capacity.keepalive_mb.is_none())
        {
            return;
        }
        // This minute's plan after policy actions and node-loss evictions.
        self.rs
            .ledger
            .fill_minute_footprint(&self.rt.families, minute, &mut self.plan.fp);
        let footprint = std::mem::take(&mut self.plan.fp);
        let mut pressured = false;
        // Nodes partition functions, so flattening node k's plan never
        // touches a model counted for node k+1 — the shared footprint
        // snapshot stays valid across the loop.
        for k in 0..self.rs.nodes.len() {
            let Some(cap_mb) = self.rs.nodes[k].spec.capacity.keepalive_mb else {
                continue;
            };
            let mut planned: Vec<_> = footprint
                .alive
                .iter()
                .filter(|a| self.rs.fns[a.func].node == k)
                .cloned()
                .collect();
            // The whole-fleet case reuses the footprint's own sum so a
            // 1-node fleet stays bitwise identical to the cluster path.
            let planned_mb = if planned.len() == footprint.alive.len() {
                footprint.total_mb
            } else {
                planned
                    .iter()
                    .map(|a| self.rt.families[a.func].variant(a.variant).memory_mb)
                    .sum()
            };
            if planned_mb <= cap_mb {
                continue;
            }
            pressured = true;
            let outcome = flatten_peak_scratch(
                &mut self.flatten_scratch,
                &mut planned,
                &self.rt.families,
                &mut self.rs.pressure_priority[k],
                planned_mb,
                cap_mb,
            );
            self.apply_pressure_actions(minute, &outcome.actions);
        }
        self.plan.fp = footprint;
        if pressured {
            self.rs.summary.pressure_minutes += 1;
        }
    }

    /// Record and apply one node's pressure-flattening actions.
    fn apply_pressure_actions(&mut self, minute: u64, actions: &[DowngradeAction]) {
        for a in actions {
            let moved = self.rs.ledger.apply_action(minute, a);
            match *a {
                DowngradeAction::Downgrade { func, from, to } => {
                    self.rs.summary.pressure_downgrades += 1;
                    emit(&mut self.rs.sink, || ObsEvent::Downgrade {
                        minute,
                        func,
                        from,
                        to,
                        source: ActionSource::Pressure,
                        applied: moved,
                    });
                }
                DowngradeAction::Evict { func, from } => {
                    self.rs.summary.evictions += 1;
                    emit(&mut self.rs.sink, || ObsEvent::Evict {
                        minute,
                        func,
                        from,
                        source: ActionSource::Pressure,
                        applied: moved,
                    });
                }
            }
        }
    }

    /// Tick stage 6: materialize containers per the post-adjustment plan
    /// and bill the minute, per node. Billing is schedule-driven: fault
    /// outcomes below never change what this minute costs. With one node
    /// the sums collapse bitwise to the single-node cluster accounting.
    #[allow(clippy::needless_range_loop)] // parallel per-function tables
    fn stage_materialize_and_bill(&mut self, now: u64, minute: u64) {
        let rs = &mut self.rs;
        let mut billed_node = vec![0.0f64; rs.nodes.len()];
        for f in 0..self.rt.families.len() {
            let desired = rs.ledger.alive_variant_at(f, minute);
            if let Some(v) = desired {
                billed_node[rs.fns[f].node] += self.rt.families[f].variant(v).memory_mb;
            }
            let held = rs.fns[f]
                .container
                .as_ref()
                .map(|c| (c.is_warm(), c.variant));
            match (held, desired) {
                (Some((true, cur)), Some(v)) if cur != v => {
                    // Proactive variant swap: warm by assumption, unless the
                    // variant load fails.
                    if rs.injector.variant_load_fails(f, v) {
                        rs.summary.variant_load_failures += 1;
                        rs.fns[f].provision_attempts = 0;
                        rs.begin_provision(&self.rt.families[f], f, v, now, 0);
                    } else {
                        let st = &mut rs.fns[f];
                        st.epoch += 1;
                        st.container = Some(LiveContainer::warm(v, now, st.epoch));
                    }
                }
                (Some((true, _)), None) => {
                    rs.fns[f].container = None;
                }
                (Some(_), _) => {
                    // Provisioning containers are left alone: the pending
                    // cold start completes first. A warm container at the
                    // desired variant stays.
                }
                (None, Some(v)) => {
                    // Proactive pre-warm.
                    if rs.injector.variant_load_fails(f, v) {
                        rs.summary.variant_load_failures += 1;
                        rs.fns[f].provision_attempts = 0;
                        rs.begin_provision(&self.rt.families[f], f, v, now, 0);
                    } else {
                        let st = &mut rs.fns[f];
                        st.epoch += 1;
                        st.container = Some(LiveContainer::warm(v, now, st.epoch));
                    }
                }
                (None, None) => {}
            }
        }
        let mut billed = 0.0f64;
        let mut minute_cost = 0.0f64;
        // Keep-alive is billed at AWS Lambda's rate, as in the simulator.
        let cost = CostModel::aws_lambda();
        for (k, nd) in rs.nodes.iter_mut().enumerate() {
            billed += billed_node[k];
            let node_cost = cost.keepalive_cost_usd_per_minutes(billed_node[k], 1.0);
            nd.cost_usd += node_cost;
            nd.billed_series.push(billed_node[k]);
            minute_cost += node_cost;
        }
        rs.summary.keepalive_cost_usd += minute_cost;
        rs.summary.memory_at_tick_mb.push(billed);
        emit(&mut rs.sink, || ObsEvent::Bill {
            minute,
            keepalive_mb: billed,
            cost_usd: minute_cost,
        });
    }

    /// Arrival stage: admission check, then warm / queued-behind-provisioning
    /// / cold-start service, then (once per active minute) a schedule
    /// refresh from the policy.
    fn on_arrival(&mut self, now: u64, func: usize, req: usize) {
        let rs = &mut self.rs;
        let minute = now / MS_PER_MINUTE;
        let fam = &self.rt.families[func];
        rs.minute_requests += 1;

        let held = rs.fns[func]
            .container
            .as_ref()
            .map(|c| (c.is_warm(), c.variant));

        // Admission control (global front door): an arrival that
        // cannot start executing immediately joins the pending backlog; once
        // the backlog is full it is shed — no schedule refresh, no
        // provisioning, the policy never hears about it.
        let starts_now = matches!(held, Some((true, _))) && rs.fns[func].executing.len() < rs.cap;
        if let Some(max_pending) = self.fleet.admission.max_pending {
            if !starts_now && rs.pending >= max_pending {
                rs.summary.shed_requests += 1;
                emit(&mut rs.sink, || ObsEvent::Shed { at_ms: now, func });
                rs.fail_request(req, now);
                return;
            }
        }

        self.plan.invoked = true;
        emit(&mut rs.sink, || ObsEvent::Arrival {
            at_ms: now,
            func,
            warm: held.is_some(),
        });
        let need_schedule = rs.fns[func].scheduled_minute != Some(minute);
        match held {
            Some((true, v)) => {
                rs.records[req].warm = true;
                rs.records[req].accuracy_pct = fam.variant(v).accuracy_pct;
                rs.req_warm_variant[req] = v;
                if rs.fns[func].executing.len() < rs.cap {
                    rs.start_exec(fam, func, req, now);
                } else {
                    rs.pending += 1;
                    rs.fns[func].waiting.push_back(req);
                }
            }
            Some((false, v)) => {
                // Provisioning: queue behind the pending cold start. Counts
                // as warm (the container exists), matching the minute engine.
                rs.records[req].warm = true;
                rs.records[req].accuracy_pct = fam.variant(v).accuracy_pct;
                rs.req_warm_variant[req] = v;
                rs.pending += 1;
                rs.fns[func].waiting.push_back(req);
            }
            None => {
                // Cold start (the runtime's SLO violation).
                let v = self.policy.cold_start_variant(func, minute);
                rs.minute_violations += 1;
                rs.records[req].warm = false;
                rs.records[req].accuracy_pct = fam.variant(v).accuracy_pct;
                rs.req_warm_variant[req] = v;
                // Fleet placement: pick the host before provisioning. A
                // single always-up node resolves to node 0 without running
                // the placer, so cluster-compatible runs never touch it.
                if rs.nodes.len() > 1 || !rs.node_ok(func) {
                    match rs.place_for(&self.rt.families, fam.variant(v).memory_mb) {
                        Some(k) => rs.fns[func].node = k,
                        None => {
                            rs.summary.placement_failures += 1;
                            rs.fail_request(req, now);
                            return;
                        }
                    }
                }
                rs.fns[func].provision_attempts = 0;
                rs.begin_provision(fam, func, v, now, 0);
                rs.pending += 1;
                rs.fns[func].waiting.push_back(req);
            }
        }

        if need_schedule {
            rs.fns[func].scheduled_minute = Some(minute);
            rs.ledger
                .replace(func, self.policy.schedule_on_invocation(func, minute));
        }
    }

    /// A provisioning attempt completed: warm the container (unless stale)
    /// and start waiting work.
    fn on_provision_done(&mut self, now: u64, func: usize, epoch: u64) {
        let rs = &mut self.rs;
        let stale = rs.fns[func]
            .container
            .as_ref()
            .is_none_or(|c| c.epoch != epoch);
        if stale {
            return;
        }
        if let Some(c) = rs.fns[func].container.as_mut() {
            c.state = ContainerState::Warm;
        }
        rs.fns[func].provision_attempts = 0;
        rs.drain_waiting(&self.rt.families[func], func, now);
        // If the schedule does not cover the current minute, the container
        // exists only for the in-flight work: drop it once idle so later
        // arrivals cold-start (as the minute engine would count them).
        let minute = now / MS_PER_MINUTE;
        if rs.ledger.alive_variant_at(func, minute).is_none() {
            if let Some(c) = &rs.fns[func].container {
                if c.busy == 0 && rs.fns[func].waiting.is_empty() {
                    rs.fns[func].container = None;
                }
            }
        }
    }

    /// An execution finished: record it, free the slot, start waiting work.
    /// Completions whose generation was bumped by a node crash are stale —
    /// the re-dispatch owns the request now.
    fn on_exec_done(&mut self, now: u64, func: usize, req: usize, gen: u64) {
        let rs = &mut self.rs;
        if gen != rs.req_gen[req] {
            return;
        }
        if !rs.req_done[req] {
            rs.records[req].done_ms = now;
            rs.req_done[req] = true;
        }
        if let Some(pos) = rs.fns[func].executing.iter().position(|&r| r == req) {
            rs.fns[func].executing.swap_remove(pos);
        }
        if let Some(c) = rs.fns[func].container.as_mut() {
            if c.busy > 0 {
                c.end_exec();
            }
        }
        rs.drain_waiting(&self.rt.families[func], func, now);
    }

    /// A node-level fault window opened. Health is recomputed from the
    /// whole plan (overlap precedence: crash > partition > straggler). A
    /// crash reaps the node's containers and aborts its in-flight
    /// executions (each re-dispatched through the retry ladder); a
    /// partition drops the containers but lets in-flight executions finish;
    /// a straggler only stretches durations drawn from now on.
    fn on_node_down(&mut self, now: u64, node: usize, fault: usize) {
        let minute = now / MS_PER_MINUTE;
        let kind = self.fleet.node_faults.faults[fault].kind;
        match kind {
            NodeFaultKind::Crash => self.rs.summary.node_crashes += 1,
            NodeFaultKind::Partition => self.rs.summary.node_partitions += 1,
            NodeFaultKind::Degraded { .. } => self.rs.summary.node_stragglers += 1,
        }
        self.rs.nodes[node].health =
            NodeHealth::from_active(self.fleet.node_faults.active_kind(node, minute));
        emit(&mut self.rs.sink, || ObsEvent::NodeDown {
            minute,
            node,
            kind: obs_fault_class(kind),
        });
        match kind {
            NodeFaultKind::Degraded { .. } => {}
            NodeFaultKind::Crash => self.evacuate_node(now, node, true),
            NodeFaultKind::Partition => self.evacuate_node(now, node, false),
        }
    }

    /// Strip a lost node of its containers. With `abort_in_flight` (crash)
    /// the node's executing requests are aborted and re-dispatched; without
    /// it (partition) they run to completion. Queued requests are re-placed
    /// behind a fresh cold start on the best live node, or failed when the
    /// whole fleet is down.
    fn evacuate_node(&mut self, now: u64, node: usize, abort_in_flight: bool) {
        for f in 0..self.rt.families.len() {
            if self.rs.fns[f].node != node {
                continue;
            }
            // The container is gone either way; pending ProvisionDone /
            // MigrationDone events for it are neutralized by the
            // container-is-none staleness checks.
            self.rs.fns[f].container = None;
            if abort_in_flight {
                let aborted = std::mem::take(&mut self.rs.fns[f].executing);
                for r in aborted {
                    self.rs.req_gen[r] += 1; // the queued completion is now stale
                    if self.rs.req_done[r] {
                        continue;
                    }
                    self.rs.summary.redispatched_requests += 1;
                    self.rs.req_retries[r] += 1;
                    if self.rs.req_retries[r] <= MAX_RETRIES {
                        self.rs.summary.request_retries += 1;
                        let backoff = self.rs.injector.backoff_ms(self.rs.req_retries[r]);
                        self.rs
                            .queue
                            .push(now + backoff, Event::RetryRequest { func: f, req: r });
                    } else {
                        self.rs.fail_request(r, now);
                    }
                }
            }
            let Some(&front) = self.rs.fns[f].waiting.front() else {
                continue;
            };
            let v = self.rs.req_warm_variant[front];
            let mem = self.rt.families[f].variant(v).memory_mb;
            match self.rs.place_for(&self.rt.families, mem) {
                Some(k) => {
                    self.rs.fns[f].node = k;
                    self.rs.fns[f].provision_attempts = 0;
                    self.rs.begin_provision(&self.rt.families[f], f, v, now, 0);
                }
                None => {
                    self.rs.summary.placement_failures += 1;
                    while let Some(r) = self.rs.fns[f].waiting.pop_front() {
                        self.rs.pending -= 1;
                        self.rs.fail_request(r, now);
                    }
                }
            }
        }
    }

    /// A node-level fault window closed: recompute health from the plan
    /// (overlapping windows may keep the node impaired) and log the
    /// recovery only on a transition back to fully up.
    fn on_node_recovered(&mut self, now: u64, node: usize, _fault: usize) {
        let minute = now / MS_PER_MINUTE;
        let was_up = matches!(self.rs.nodes[node].health, NodeHealth::Up);
        let health = NodeHealth::from_active(self.fleet.node_faults.active_kind(node, minute));
        self.rs.nodes[node].health = health;
        if !was_up && matches!(health, NodeHealth::Up) {
            self.rs.summary.node_recoveries += 1;
            emit(&mut self.rs.sink, || ObsEvent::NodeRecovered {
                minute,
                node,
            });
        }
    }
}

/// Map the runtime's fault kind onto the observability taxonomy (pulse-obs
/// cannot depend on this crate).
fn obs_fault_class(kind: NodeFaultKind) -> pulse_obs::NodeFaultClass {
    match kind {
        NodeFaultKind::Crash => pulse_obs::NodeFaultClass::Crash,
        NodeFaultKind::Degraded { .. } => pulse_obs::NodeFaultClass::Straggler,
        NodeFaultKind::Partition => pulse_obs::NodeFaultClass::Partition,
    }
}

#[cfg(test)]
// Tests compare exact values; test-local counts fit.
#[allow(clippy::float_cmp, clippy::cast_possible_truncation)]
mod tests {
    use super::*;
    use crate::fault::{FaultRates, MAX_RETRIES};
    use pulse_core::types::PulseConfig;
    use pulse_sim::assignment::round_robin_assignment;
    use pulse_sim::policies::{OpenWhiskFixed, PulsePolicy};
    use pulse_trace::FunctionTrace;

    fn one_func(counts: &[u32]) -> (Trace, Vec<ModelFamily>) {
        let trace = Trace::new(vec![FunctionTrace::new("f", counts.to_vec())]);
        (trace, vec![pulse_models::zoo::bert()])
    }

    #[test]
    fn single_cold_start_latency_includes_provisioning() {
        let (trace, fams) = one_func(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let s = rt.run(&mut OpenWhiskFixed::new(&fams));
        assert_eq!(s.requests(), 1);
        assert_eq!(s.cold_starts(), 1);
        let expected_ms = (fams[0].highest().cold_service_time_s() * 1000.0).round();
        assert!(
            (s.records[0].latency_ms() as f64 - expected_ms).abs() <= 2.0,
            "{} vs {expected_ms}",
            s.records[0].latency_ms()
        );
    }

    #[test]
    fn second_invocation_is_warm_and_fast() {
        let (trace, fams) = one_func(&[1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let s = rt.run(&mut OpenWhiskFixed::new(&fams));
        assert_eq!(s.warm_starts(), 1);
        assert_eq!(s.cold_starts(), 1);
        let warm = s.records.iter().find(|r| r.warm).unwrap();
        let expected = (fams[0].highest().warm_service_time_s * 1000.0).round();
        assert!((warm.latency_ms() as f64 - expected).abs() <= 2.0);
    }

    #[test]
    fn same_minute_burst_queues_behind_provisioning() {
        let (trace, fams) = one_func(&[3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let s = rt.run(&mut OpenWhiskFixed::new(&fams));
        assert_eq!(s.cold_starts(), 1);
        assert_eq!(s.warm_starts(), 2);
        // The queued "warm" requests still waited for provisioning: their
        // latency exceeds a pure warm execution.
        let warm_exec = fams[0].highest().warm_service_time_s * 1000.0;
        for r in s.records.iter().filter(|r| r.warm) {
            assert!(r.latency_ms() as f64 > warm_exec * 0.9);
        }
    }

    #[test]
    fn keepalive_cost_matches_minute_engine_for_fixed_policy() {
        let trace = pulse_trace::synth::azure_like_12_with_horizon(13, 300);
        let fams = round_robin_assignment(&pulse_models::zoo::standard(), 12);
        let rt = Runtime::new(trace.clone(), fams.clone(), RuntimeConfig::default());
        let sim = pulse_sim::Simulator::new(trace, fams.clone());
        let rt_s = rt.run(&mut OpenWhiskFixed::new(&fams));
        let sim_s = sim.run(&mut OpenWhiskFixed::new(&fams));
        assert!(
            (rt_s.keepalive_cost_usd - sim_s.keepalive_cost_usd).abs() < 1e-9,
            "runtime {} vs sim {}",
            rt_s.keepalive_cost_usd,
            sim_s.keepalive_cost_usd
        );
        assert_eq!(rt_s.warm_starts(), sim_s.warm_starts);
        assert_eq!(rt_s.cold_starts(), sim_s.cold_starts);
    }

    #[test]
    fn pulse_policy_counts_match_minute_engine() {
        let trace = pulse_trace::synth::azure_like_12_with_horizon(19, 400);
        let fams = round_robin_assignment(&pulse_models::zoo::standard(), 12);
        let rt = Runtime::new(trace.clone(), fams.clone(), RuntimeConfig::default());
        let sim = pulse_sim::Simulator::new(trace, fams.clone());
        let rt_s = rt.run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default()));
        let sim_s = sim.run(&mut PulsePolicy::new(fams, PulseConfig::default()));
        // Stateful policy + different call orders within a minute can shift
        // a handful of borderline decisions; the engines must agree closely.
        let warm_delta = (rt_s.warm_starts() as f64 - sim_s.warm_starts as f64).abs();
        let warm_rel = warm_delta / (sim_s.warm_starts.max(1) as f64);
        assert!(
            warm_rel < 0.02,
            "runtime {} vs sim {}",
            rt_s.warm_starts(),
            sim_s.warm_starts
        );
        let cost_ratio = rt_s.keepalive_cost_usd / sim_s.keepalive_cost_usd;
        assert!((0.9..1.1).contains(&cost_ratio), "cost ratio {cost_ratio}");
    }

    #[test]
    fn concurrency_cap_adds_queueing_delay() {
        // 40 same-minute requests (≈1.5 s apart, 2.2 s executions), cap 1:
        // they serialize and queueing delay accumulates.
        let (trace, fams) = one_func(&[0, 40, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let unbounded = Runtime::new(trace.clone(), fams.clone(), RuntimeConfig::default())
            .run(&mut OpenWhiskFixed::new(&fams));
        let capped = Runtime::new(
            trace,
            fams.clone(),
            RuntimeConfig {
                max_concurrency: Some(1),
                ..Default::default()
            },
        )
        .run(&mut OpenWhiskFixed::new(&fams));
        assert!(capped.latency_p99_ms() > unbounded.latency_p99_ms());
        assert_eq!(capped.requests(), unbounded.requests());
        assert_eq!(capped.warm_starts(), unbounded.warm_starts());
    }

    #[test]
    fn no_invocations_costs_nothing() {
        let (trace, fams) = one_func(&[0; 30]);
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let s = rt.run(&mut OpenWhiskFixed::new(&fams));
        assert_eq!(s.requests(), 0);
        assert_eq!(s.keepalive_cost_usd, 0.0);
        assert_eq!(s.memory_at_tick_mb.len(), 30);
        assert!(s.memory_at_tick_mb.iter().all(|&m| m == 0.0));
    }

    #[test]
    fn stochastic_mode_jitters_but_preserves_counts() {
        let trace = pulse_trace::synth::azure_like_12_with_horizon(29, 200);
        let fams = round_robin_assignment(&pulse_models::zoo::standard(), 12);
        let det = Runtime::new(trace.clone(), fams.clone(), RuntimeConfig::default())
            .run(&mut OpenWhiskFixed::new(&fams));
        let sto = Runtime::new(
            trace.clone(),
            fams.clone(),
            RuntimeConfig {
                stochastic_seed: Some(7),
                ..Default::default()
            },
        )
        .run(&mut OpenWhiskFixed::new(&fams));
        // Warm/cold accounting is schedule-driven — jitter must not move it.
        assert_eq!(det.warm_starts(), sto.warm_starts());
        assert_eq!(det.cold_starts(), sto.cold_starts());
        assert_eq!(det.keepalive_cost_usd, sto.keepalive_cost_usd);
        // Latencies differ, but only by the lognormal spread.
        assert_ne!(
            det.records
                .iter()
                .map(|r| r.latency_ms())
                .collect::<Vec<_>>(),
            sto.records
                .iter()
                .map(|r| r.latency_ms())
                .collect::<Vec<_>>()
        );
        let ratio = sto.service_time_s() / det.service_time_s();
        assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
        // Same seed reproduces exactly.
        let sto2 = Runtime::new(
            trace,
            fams.clone(),
            RuntimeConfig {
                stochastic_seed: Some(7),
                ..Default::default()
            },
        )
        .run(&mut OpenWhiskFixed::new(&fams));
        assert_eq!(sto.records, sto2.records);
    }

    #[test]
    fn runtime_is_deterministic() {
        let trace = pulse_trace::synth::azure_like_12_with_horizon(23, 200);
        let fams = round_robin_assignment(&pulse_models::zoo::standard(), 12);
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let a = rt.run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default()));
        let b = rt.run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default()));
        assert_eq!(a.records, b.records);
        assert_eq!(a.keepalive_cost_usd, b.keepalive_cost_usd);
    }

    #[test]
    fn provisioning_failure_retries_then_degrades_one_rung() {
        // bert has 2 rungs; faults scoped to the top rung only.
        let (trace, fams) = one_func(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let top = fams[0].highest_id();
        let plan = FaultPlan {
            default_rates: FaultRates {
                provision_failure: 1.0,
                variant_load_failure: 1.0,
                exec_crash: 0.0,
                min_faulty_variant: Some(top),
            },
            ..FaultPlan::none()
        };
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let s = rt
            .session(
                &mut OpenWhiskFixed::new(&fams),
                &plan,
                ClusterConfig::unlimited(),
            )
            .finish();
        assert_eq!(s.requests(), 1);
        assert_eq!(s.failed_requests(), 0, "one rung down, not failed");
        // Every cycle at the faulty top rung is 1 initial attempt +
        // MAX_RETRIES retries, then a degradation (the keep-alive schedule
        // re-demands the top variant each minute, so the cycle repeats per
        // tick).
        assert!(s.degradations >= 1);
        let retries = u64::from(MAX_RETRIES);
        assert_eq!(s.provision_failures, (1 + retries) * s.degradations);
        assert_eq!(s.provision_retries, retries * s.degradations);
        assert_eq!(s.degraded_requests, 1);
        let lower_acc = fams[0].variant(top - 1).accuracy_pct;
        assert_eq!(s.records[0].accuracy_pct, lower_acc);
        assert!(s.accuracy_penalty_pct > 0.0);
        // Latency absorbed the retries: slower than a clean cold start.
        let clean = (fams[0].highest().cold_service_time_s() * 1000.0) as u64;
        assert!(s.records[0].latency_ms() > clean);
    }

    #[test]
    fn whole_ladder_failure_reaps_and_fails_requests() {
        let (trace, fams) = one_func(&[2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let plan = FaultPlan {
            default_rates: FaultRates {
                provision_failure: 1.0,
                variant_load_failure: 1.0,
                exec_crash: 0.0,
                min_faulty_variant: None,
            },
            ..FaultPlan::none()
        };
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let s = rt
            .session(
                &mut OpenWhiskFixed::new(&fams),
                &plan,
                ClusterConfig::unlimited(),
            )
            .finish();
        assert_eq!(s.requests(), 2);
        assert_eq!(s.failed_requests(), 2, "no rung could provision");
        assert!(s.reaped >= 1);
        assert_eq!(s.availability(), 0.0);
        // Every rung was tried: (1 initial + MAX_RETRIES) × 2 rungs at
        // least.
        assert!(s.provision_failures >= 2 * (1 + u64::from(MAX_RETRIES)));
    }

    #[test]
    fn exec_crashes_retry_and_eventually_serve() {
        let (trace, fams) = one_func(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        // Crash the first execution attempt ~always at rate 1.0 would loop
        // past the budget; use a seeded intermediate rate instead.
        let plan = FaultPlan::uniform(0.0, 0.0, 0.5, 11);
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let s = rt
            .session(
                &mut OpenWhiskFixed::new(&fams),
                &plan,
                ClusterConfig::unlimited(),
            )
            .finish();
        assert_eq!(s.requests(), 1);
        // Either it crashed (and retried) or it ran clean — both must leave
        // coherent accounting.
        assert_eq!(s.exec_crashes, s.request_retries + s.failed_requests());
        if s.exec_crashes == 0 {
            assert_eq!(s.failed_requests(), 0);
        }
    }

    #[test]
    fn request_timeout_fails_slow_requests() {
        let (trace, fams) = one_func(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        // bert cold start is seconds; a 10 ms budget must time out.
        let plan = FaultPlan::none().with_timeout_ms(10);
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let s = rt
            .session(
                &mut OpenWhiskFixed::new(&fams),
                &plan,
                ClusterConfig::unlimited(),
            )
            .finish();
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.failed_requests(), 1);
        assert_eq!(s.records[0].latency_ms(), 10);
        assert_eq!(s.availability(), 0.0);
        assert_eq!(s.goodput(10_000), 0.0);
    }

    #[test]
    fn node_capacity_caps_every_minute_and_logs_pressure() {
        use crate::cluster::{ClusterConfig, NodeCapacity};
        use pulse_obs::{ActionSource, MemorySink, ObsEvent};
        let trace = pulse_trace::synth::azure_like_12_with_horizon(41, 300);
        let fams = round_robin_assignment(&pulse_models::zoo::standard(), 12);
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        // Cap well below the all-high footprint OpenWhisk wants to keep.
        let all_high: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
        let cap = all_high * 0.3;
        let cluster = ClusterConfig {
            capacity: NodeCapacity::mb(cap),
            ..ClusterConfig::unlimited()
        };
        let mut mem = MemorySink::new();
        let s = rt
            .session(&mut OpenWhiskFixed::new(&fams), &FaultPlan::none(), cluster)
            .traced(&mut mem)
            .finish();
        for (t, &mb) in s.memory_at_tick_mb.iter().enumerate() {
            assert!(mb <= cap + 1e-9, "minute {t}: {mb} MB over cap {cap}");
        }
        assert!(
            s.pressure_minutes > 0,
            "the cap must have been under pressure"
        );
        assert!(s.evictions + s.pressure_downgrades > 0);
        let pressure_actions = mem.count(|e| {
            matches!(
                e,
                ObsEvent::Downgrade {
                    source: ActionSource::Pressure,
                    ..
                } | ObsEvent::Evict {
                    source: ActionSource::Pressure,
                    ..
                }
            )
        });
        assert_eq!(pressure_actions as u64, s.evictions + s.pressure_downgrades);
        // The uncapped run exceeds the cap somewhere (the cap was binding).
        let free = rt.run(&mut OpenWhiskFixed::new(&fams));
        assert!(free.peak_memory_mb() > cap);
    }

    #[test]
    fn admission_bound_sheds_backlogged_arrivals() {
        use crate::cluster::{AdmissionControl, ClusterConfig};
        use pulse_obs::{MemorySink, ObsEvent};
        // A synchronized burst against a single-slot container: arrivals come
        // every ~1.2 s while BERT-Large serves one request per ~2.2 s, so the
        // backlog grows without bound unless admission sheds.
        let (trace, fams) = one_func(&[50, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let rt = Runtime::new(
            trace,
            fams.clone(),
            RuntimeConfig {
                max_concurrency: Some(1),
                ..Default::default()
            },
        );
        let cluster = ClusterConfig {
            admission: AdmissionControl::bounded(8),
            ..ClusterConfig::unlimited()
        };
        let mut mem = MemorySink::new();
        let s = rt
            .session(&mut OpenWhiskFixed::new(&fams), &FaultPlan::none(), cluster)
            .traced(&mut mem)
            .finish();
        assert!(s.shed_requests > 0, "burst must overflow an 8-deep backlog");
        assert_eq!(s.failed_requests(), s.shed_requests);
        assert!(s.availability() < 1.0);
        let shed_events = mem.count(|e| matches!(e, ObsEvent::Shed { .. })) as u64;
        assert_eq!(shed_events, s.shed_requests);
        // Unbounded admission serves everything.
        let free = rt.run(&mut OpenWhiskFixed::new(&fams));
        assert_eq!(free.failed_requests(), 0);
        assert_eq!(free.shed_requests, 0);
        assert_eq!(s.requests(), free.requests());
    }

    #[test]
    fn watchdog_falls_back_in_the_runtime_and_is_logged() {
        use crate::cluster::ClusterConfig;
        use pulse_obs::{MemorySink, ObsEvent};
        use pulse_sim::watchdog::{Watchdog, WatchdogConfig};

        // A policy that never keeps anything alive: every arrival is a cold
        // start, so the violation rate pins at 1.0 and the watchdog must
        // bench it in favour of the fixed baseline.
        struct NeverKeep;
        impl KeepAlivePolicy for NeverKeep {
            fn name(&self) -> &str {
                "never-keep"
            }
            fn schedule_on_invocation(
                &mut self,
                _f: usize,
                t: u64,
            ) -> pulse_core::individual::KeepAliveSchedule {
                pulse_core::individual::KeepAliveSchedule::new(t, Vec::new())
            }
            fn cold_start_variant(&mut self, _f: usize, _t: u64) -> usize {
                0
            }
        }

        let (trace, fams) = one_func(&[1; 60]);
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let cfg = WatchdogConfig {
            window: 5,
            enter_after: 3,
            exit_after: 10,
            max_violation_rate: 0.5,
        };
        let mut wd = Watchdog::new(NeverKeep, &fams, cfg);
        let mut mem = MemorySink::new();
        let s = rt
            .session(&mut wd, &FaultPlan::none(), ClusterConfig::unlimited())
            .traced(&mut mem)
            .finish();
        assert!(
            s.fallback_minutes > 0,
            "sustained cold storm must fall back"
        );
        let switches: Vec<bool> = mem
            .events()
            .iter()
            .filter_map(|e| match *e {
                ObsEvent::Watchdog { fallback, .. } => Some(fallback),
                _ => None,
            })
            .collect();
        assert_eq!(
            switches.first(),
            Some(&true),
            "first switch enters fallback"
        );
        assert!(
            switches.windows(2).all(|w| w[0] != w[1]),
            "switches alternate: {switches:?}"
        );
        assert!(wd.fallback_minutes() > 0);
        // Once benched, the fixed baseline keeps the container warm: far
        // fewer cold starts than never keeping anything.
        let bare = rt.run(&mut NeverKeep);
        assert!(s.cold_starts() < bare.cold_starts());
        // The fixed baseline stays healthy, so it eventually recovers; the
        // last logged switch is the watchdog's current state.
        assert_eq!(switches.last(), Some(&wd.in_fallback()));
    }

    #[test]
    fn stepped_session_matches_run_bitwise() {
        let trace = pulse_trace::synth::azure_like_12_with_horizon(47, 240);
        let fams = round_robin_assignment(&pulse_models::zoo::standard(), 12);
        let rt = Runtime::new(
            trace,
            fams.clone(),
            RuntimeConfig {
                stochastic_seed: Some(13),
                ..Default::default()
            },
        );
        let whole = rt.run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default()));

        let mut policy = PulsePolicy::new(fams.clone(), PulseConfig::default());
        let mut session = rt.session(&mut policy, &FaultPlan::none(), ClusterConfig::unlimited());
        let mut ticks = 0u64;
        while let Some((_, ev)) = session.step() {
            if matches!(ev, Event::MinuteTick { .. }) {
                ticks += 1;
            }
        }
        assert_eq!(session.pending_events(), 0);
        let stepped = session.finish();
        assert_eq!(ticks, 240);
        assert_eq!(stepped.records, whole.records);
        assert_eq!(
            stepped.keepalive_cost_usd.to_bits(),
            whole.keepalive_cost_usd.to_bits()
        );
        assert_eq!(stepped.downgrades, whole.downgrades);
    }

    #[test]
    fn finish_drains_an_unstepped_or_early_stopped_session() {
        let trace = pulse_trace::synth::azure_like_12_with_horizon(47, 240);
        let fams = round_robin_assignment(&pulse_models::zoo::standard(), 12);
        let plan = FaultPlan::uniform(0.1, 0.05, 0.02, 3).with_timeout_ms(90_000);
        let rt = Runtime::new(
            trace,
            fams.clone(),
            RuntimeConfig {
                stochastic_seed: Some(13),
                ..Default::default()
            },
        );
        let whole = rt.run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default()));
        let mut policy = PulsePolicy::new(fams.clone(), PulseConfig::default());
        let unstepped = rt
            .session(&mut policy, &FaultPlan::none(), ClusterConfig::unlimited())
            .finish();
        assert_eq!(format!("{unstepped:?}"), format!("{whole:?}"));

        let mut policy = PulsePolicy::new(fams.clone(), PulseConfig::default());
        let faulted = rt
            .session(&mut policy, &plan, ClusterConfig::unlimited())
            .finish();
        let mut policy = PulsePolicy::new(fams.clone(), PulseConfig::default());
        let mut session = rt.session(&mut policy, &plan, ClusterConfig::unlimited());
        for _ in 0..session.pending_events() / 2 {
            session.step();
        }
        let stopped = session.finish();
        assert_eq!(format!("{stopped:?}"), format!("{faulted:?}"));
    }

    #[test]
    fn session_exposes_ledger_state() {
        let (trace, fams) = one_func(&[1, 0, 0, 0]);
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let mut policy = OpenWhiskFixed::new(&fams);
        let mut session = rt.session(&mut policy, &FaultPlan::none(), ClusterConfig::unlimited());
        assert!(session.ledger().schedule(0).is_none());
        // Tick 0, then the arrival that installs the schedule.
        session.step();
        session.step();
        assert_eq!(session.ledger().alive_variant_at(0, 1), Some(1));
    }

    #[test]
    fn traced_cluster_run_event_counts_match_summary_counters() {
        use crate::cluster::{AdmissionControl, NodeCapacity};
        use pulse_obs::{ActionSource, MemorySink, ObsEvent};
        let trace = pulse_trace::synth::azure_like_12_with_horizon(41, 300);
        let fams = round_robin_assignment(&pulse_models::zoo::standard(), 12);
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let all_high: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
        let cluster = ClusterConfig {
            capacity: NodeCapacity::mb(all_high * 0.3),
            ..ClusterConfig::unlimited()
        };
        let mut mem = MemorySink::new();
        let s = rt
            .session(
                &mut PulsePolicy::new(fams.clone(), PulseConfig::default()),
                &FaultPlan::none(),
                cluster,
            )
            .traced(&mut mem)
            .finish();
        // Downgrade/eviction event counts equal the summary counters, per
        // source: policy actions → `downgrades`, pressure actions →
        // `pressure_downgrades` / `evictions`.
        let policy_actions = mem.count(|e| {
            matches!(
                e,
                ObsEvent::Downgrade {
                    source: ActionSource::Policy,
                    ..
                } | ObsEvent::Evict {
                    source: ActionSource::Policy,
                    ..
                }
            )
        });
        assert_eq!(policy_actions as u64, s.downgrades);
        let pressure_downgrades = mem.count(|e| {
            matches!(
                e,
                ObsEvent::Downgrade {
                    source: ActionSource::Pressure,
                    ..
                }
            )
        });
        assert_eq!(pressure_downgrades as u64, s.pressure_downgrades);
        let pressure_evicts = mem.count(|e| {
            matches!(
                e,
                ObsEvent::Evict {
                    source: ActionSource::Pressure,
                    ..
                }
            )
        });
        assert_eq!(pressure_evicts as u64, s.evictions);
        assert!(pressure_downgrades + pressure_evicts > 0, "cap must bind");
        // Arrivals cover every request; one bill per minute tick.
        assert_eq!(
            mem.count(|e| matches!(e, ObsEvent::Arrival { .. })) as u64,
            s.requests()
        );
        assert_eq!(
            mem.count(|e| matches!(e, ObsEvent::Bill { .. })),
            s.memory_at_tick_mb.len()
        );
        // Every emitted event survives the JSONL round trip.
        for ev in mem.events() {
            assert_eq!(&ObsEvent::from_json(&ev.to_json()).unwrap(), ev);
        }

        // A capped 3-node fleet with single-slot containers, rolling
        // crashes plus one partition and one straggler, and a global
        // backlog bound small enough to shed: every fleet action is counted
        // once in the summary and emitted once to the sink.
        let rt = Runtime::new(
            pulse_trace::synth::azure_like_12_with_horizon(41, 300),
            fams.clone(),
            RuntimeConfig {
                max_concurrency: Some(1),
                ..RuntimeConfig::default()
            },
        );
        let faults = crate::node::NodeFaultPlan::rolling_crashes(3, 10, 6, 30, 300)
            .with(crate::node::NodeFault {
                node: 1,
                kind: NodeFaultKind::Partition,
                at_minute: 95,
                duration_minutes: 8,
            })
            .with(crate::node::NodeFault {
                node: 2,
                kind: NodeFaultKind::Degraded { slowdown: 3.0 },
                at_minute: 150,
                duration_minutes: 20,
            });
        let fleet = FleetConfig::uniform(3, NodeCapacity::mb(all_high * 0.15))
            .with_node_faults(faults)
            .with_admission(AdmissionControl::bounded(1));
        let mut mem = MemorySink::new();
        let s = rt
            .session(
                &mut PulsePolicy::new(fams.clone(), PulseConfig::default()),
                &FaultPlan::none(),
                fleet,
            )
            .traced(&mut mem)
            .finish();
        let count = |pred: fn(&ObsEvent) -> bool| mem.count(pred) as u64;
        assert_eq!(
            count(|e| matches!(e, ObsEvent::Shed { .. })),
            s.shed_requests
        );
        assert!(s.shed_requests > 0, "the backlog bound must shed");
        assert!(s.migrations > 0, "pressured nodes must migrate");
        assert_eq!(
            count(|e| matches!(e, ObsEvent::Migrate { .. })),
            s.migrations
        );
        assert_eq!(
            count(|e| matches!(e, ObsEvent::NodeDown { .. })),
            s.node_crashes + s.node_partitions + s.node_stragglers
        );
        assert!(s.node_crashes > 0 && s.node_partitions > 0 && s.node_stragglers > 0);
        assert_eq!(
            count(|e| matches!(e, ObsEvent::NodeRecovered { .. })),
            s.node_recoveries
        );
        assert!(s.node_recoveries > 0);
        assert_eq!(
            count(|e| matches!(
                e,
                ObsEvent::Downgrade {
                    source: ActionSource::Pressure,
                    ..
                }
            )),
            s.pressure_downgrades
        );
        assert_eq!(
            count(|e| matches!(
                e,
                ObsEvent::Evict {
                    source: ActionSource::Pressure,
                    ..
                }
            )),
            s.evictions
        );

        // Both nodes of a 2-node fleet crash together: the health stage
        // cannot re-place anyone, so every scheduled function is evicted
        // with a `node_loss` event, one per counted eviction.
        let faults = [0, 1]
            .into_iter()
            .fold(crate::node::NodeFaultPlan::none(), |plan, node| {
                plan.with(crate::node::NodeFault {
                    node,
                    kind: NodeFaultKind::Crash,
                    at_minute: 120,
                    duration_minutes: 15,
                })
            });
        let fleet = FleetConfig::uniform(2, NodeCapacity::unlimited()).with_node_faults(faults);
        let mut mem = MemorySink::new();
        let s = rt
            .session(
                &mut PulsePolicy::new(fams.clone(), PulseConfig::default()),
                &FaultPlan::none(),
                fleet,
            )
            .traced(&mut mem)
            .finish();
        let node_loss_evicts = mem.count(|e| {
            matches!(
                e,
                ObsEvent::Evict {
                    source: ActionSource::NodeLoss,
                    ..
                }
            )
        }) as u64;
        assert!(s.node_loss_evictions > 0, "a fleet-wide outage must evict");
        assert_eq!(node_loss_evicts, s.node_loss_evictions);
        assert_eq!(
            mem.count(|e| matches!(
                e,
                ObsEvent::Evict {
                    source: ActionSource::Pressure,
                    ..
                }
            )) as u64,
            s.evictions
        );
    }

    #[test]
    fn fault_runs_replay_bit_identically() {
        let trace = pulse_trace::synth::azure_like_12_with_horizon(37, 180);
        let fams = round_robin_assignment(&pulse_models::zoo::standard(), 12);
        let plan = FaultPlan::uniform(0.3, 0.2, 0.1, 99).with_timeout_ms(90_000);
        let rt = Runtime::new(
            trace,
            fams.clone(),
            RuntimeConfig {
                stochastic_seed: Some(3),
                ..Default::default()
            },
        );
        let a = rt
            .session(
                &mut OpenWhiskFixed::new(&fams),
                &plan,
                ClusterConfig::unlimited(),
            )
            .finish();
        let b = rt
            .session(
                &mut OpenWhiskFixed::new(&fams),
                &plan,
                ClusterConfig::unlimited(),
            )
            .finish();
        assert_eq!(a.records, b.records);
        assert_eq!(a.provision_failures, b.provision_failures);
        assert_eq!(a.provision_retries, b.provision_retries);
        assert_eq!(a.variant_load_failures, b.variant_load_failures);
        assert_eq!(a.exec_crashes, b.exec_crashes);
        assert_eq!(a.request_retries, b.request_retries);
        assert_eq!(a.degradations, b.degradations);
        assert_eq!(a.timeouts, b.timeouts);
        assert_eq!(a.reaped, b.reaped);
        assert_eq!(a.keepalive_cost_usd, b.keepalive_cost_usd);
    }

    #[test]
    fn arrival_times_match_the_trace_seeded_layout() {
        // Offsets start 1 ms after the tick and never spill into the next
        // minute, matching the seeding loop this helper was lifted from.
        assert_eq!(arrival_times_in_minute(0, 0).count(), 0);
        assert_eq!(arrival_times_in_minute(0, 1).collect::<Vec<_>>(), vec![1]);
        let ts: Vec<u64> = arrival_times_in_minute(3, 4).collect();
        assert_eq!(ts.len(), 4);
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
        assert!(ts
            .iter()
            .all(|&t| { t > 3 * MS_PER_MINUTE && t < 4 * MS_PER_MINUTE }));
        // Heavy minutes stay in-minute too.
        let dense: Vec<u64> = arrival_times_in_minute(1, 100_000).collect();
        assert!(dense
            .iter()
            .all(|&t| (MS_PER_MINUTE + 1..2 * MS_PER_MINUTE).contains(&t)));
    }

    #[test]
    fn admitted_stream_is_bit_identical_to_trace_seeded_run() {
        // A zero-trace session fed the expanded stream up front must be the
        // trace-seeded run, event sequence numbers and all.
        let trace = pulse_trace::synth::azure_like_12_with_horizon(11, 180);
        let fams = round_robin_assignment(&pulse_models::zoo::standard(), 12);
        let seeded = Runtime::new(trace.clone(), fams.clone(), RuntimeConfig::default())
            .run(&mut PulsePolicy::new(fams.clone(), PulseConfig::default()));

        let zeros = Trace::new(
            trace
                .functions()
                .iter()
                .map(|f| FunctionTrace::new(f.name.clone(), vec![0; trace.minutes()]))
                .collect(),
        );
        let rt = Runtime::new(zeros, fams.clone(), RuntimeConfig::default());
        let mut policy = PulsePolicy::new(fams.clone(), PulseConfig::default());
        let mut session = rt.session(&mut policy, &FaultPlan::none(), ClusterConfig::unlimited());
        for m in 0..trace.minutes() as u64 {
            for f in 0..trace.n_functions() {
                for at in arrival_times_in_minute(m, trace.function(f).at(m) as u64) {
                    session.admit_at(at, f);
                }
            }
        }
        let admitted = session.finish();
        assert_eq!(admitted.records, seeded.records);
        assert_eq!(
            admitted.keepalive_cost_usd.to_bits(),
            seeded.keepalive_cost_usd.to_bits()
        );
        assert_eq!(admitted.memory_at_tick_mb, seeded.memory_at_tick_mb);
    }

    #[test]
    fn admit_at_schedules_the_timeout_timer() {
        let (trace, fams) = one_func(&[0; 5]);
        let plan = FaultPlan::none().with_timeout_ms(10);
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let mut policy = OpenWhiskFixed::new(&fams);
        let mut session = rt.session(&mut policy, &plan, ClusterConfig::unlimited());
        let before = session.pending_events();
        session.admit_at(1, 0);
        assert_eq!(session.pending_events(), before + 2, "arrival + timeout");
        let s = session.finish();
        // A cold start cannot finish inside a 10 ms budget.
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.failed_requests(), 1);
    }

    #[test]
    fn node_crash_abort_ignores_the_stale_crash_completion() {
        // Regression for the in-flight accounting: serialize a long backlog
        // through one container (cap 1) with every execution fated to crash,
        // then crash the node at minute 1 while an execution is in flight.
        // The node crash empties `executing` and bumps the request's
        // generation, so the already-queued ExecFailed for that execution is
        // a *duplicate* completion — it must be dropped by the generation
        // check before the (debug-asserted) removal, and the run must
        // complete with the accounting intact.
        // Seed 15 is pinned: under `MAX_RETRIES` the fault RNG's crash points
        // and backoffs leave one crashing execution straddling the minute-1
        // tick, so the node crash aborts it (`redispatched_requests` below
        // witnesses the abort; seeds 0–14 leave none in flight).
        let (trace, fams) = one_func(&[40, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let plan = FaultPlan {
            seed: 15,
            default_rates: FaultRates {
                provision_failure: 0.0,
                variant_load_failure: 0.0,
                exec_crash: 1.0,
                min_faulty_variant: None,
            },
            ..FaultPlan::none()
        };
        let fleet = FleetConfig::single(NodeSpec::nominal(
            "n0",
            crate::cluster::NodeCapacity::unlimited(),
        ))
        .with_node_faults(crate::node::NodeFaultPlan::none().with(
            crate::node::NodeFault {
                node: 0,
                kind: NodeFaultKind::Crash,
                at_minute: 1,
                duration_minutes: 1,
            },
        ));
        let rt = Runtime::new(
            trace,
            fams.clone(),
            RuntimeConfig {
                max_concurrency: Some(1),
                ..Default::default()
            },
        );
        let s = rt
            .session(&mut OpenWhiskFixed::new(&fams), &plan, fleet)
            .finish();
        assert_eq!(s.requests(), 40);
        assert!(s.exec_crashes > 0, "executions crashed before the node did");
        assert!(
            s.redispatched_requests > 0,
            "the node crash aborted in-flight work"
        );
        // Every request reached a terminal state exactly once.
        assert_eq!(
            s.records.iter().filter(|r| r.failed).count() as u64,
            s.failed_requests()
        );
    }

    /// A 3-node fleet under rolling crashes, request-level faults and the
    /// stochastic sampler: every piece of state replay must rebuild.
    fn restore_fixture() -> (Runtime, Vec<ModelFamily>, FaultPlan, FleetConfig) {
        use crate::cluster::NodeCapacity;
        use crate::node::NodeFaultPlan;
        const HORIZON: usize = 240;
        let trace = pulse_trace::synth::azure_like_12_with_horizon(23, HORIZON);
        let fams = round_robin_assignment(&pulse_models::zoo::standard(), 12);
        let rt = Runtime::new(
            trace,
            fams.clone(),
            RuntimeConfig {
                stochastic_seed: Some(5),
                ..Default::default()
            },
        );
        let plan = FaultPlan::uniform(0.05, 0.05, 0.03, 42);
        let fleet = FleetConfig::uniform(3, NodeCapacity::gb(6.0))
            .with_node_faults(NodeFaultPlan::rolling_crashes(3, 10, 6, 30, HORIZON as u64));
        (rt, fams, plan, fleet)
    }

    fn pulse(fams: &[ModelFamily]) -> PulsePolicy {
        PulsePolicy::new(fams.to_vec(), PulseConfig::default())
    }

    /// The checkpoint of the fixture run after `events` events.
    fn checkpoint_after(events: usize) -> String {
        let (rt, fams, plan, fleet) = restore_fixture();
        let mut p = pulse(&fams);
        let mut sess = rt.session(&mut p, &plan, fleet);
        for _ in 0..events {
            sess.step();
        }
        sess.snapshot()
    }

    #[test]
    fn restore_resumes_bit_identically_under_fleet_faults() {
        let (rt, fams, plan, fleet) = restore_fixture();
        let mut whole_policy = pulse(&fams);
        let whole = rt.session(&mut whole_policy, &plan, fleet.clone()).finish();

        let mut probe_policy = pulse(&fams);
        let mut probe = rt.session(&mut probe_policy, &plan, fleet.clone());
        let mut total = 0usize;
        while probe.step().is_some() {
            total += 1;
        }
        drop(probe);

        for kill_after in [0, total / 7, (total * 4) / 5, total] {
            let snap = checkpoint_after(kill_after);
            let mut p2 = pulse(&fams);
            let resumed = rt
                .restore(&mut p2, &plan, fleet.clone(), &snap)
                .unwrap()
                .finish();
            assert_eq!(
                whole.keepalive_cost_usd.to_bits(),
                resumed.keepalive_cost_usd.to_bits(),
                "cost diverged for kill point {kill_after}"
            );
            assert_eq!(
                format!("{whole:?}"),
                format!("{resumed:?}"),
                "summary diverged for kill point {kill_after}"
            );
        }
    }

    #[test]
    fn restore_fails_soft_on_skew_mismatch_and_garbage() {
        let (rt, fams, plan, fleet) = restore_fixture();
        let snap = checkpoint_after(200);

        // A future version and every older one (which serialized the run
        // state row by row) are skew, never a half-read document.
        let current = format!("\"version\":{}", pulse_sim::SNAPSHOT_VERSION);
        for found in [9, 4, 3, 1] {
            let skewed = snap.replacen(&current, &format!("\"version\":{found}"), 1);
            let mut p2 = pulse(&fams);
            assert!(matches!(
                rt.restore(&mut p2, &plan, fleet.clone(), &skewed),
                Err(RecoverError::VersionSkew { found: f, .. }) if f == found
            ));
        }

        let mut other = OpenWhiskFixed::new(&fams);
        assert!(matches!(
            rt.restore(&mut other, &plan, fleet.clone(), &snap),
            Err(RecoverError::PolicyMismatch { .. })
        ));

        let mut p3 = pulse(&fams);
        let other_plan = FaultPlan::uniform(0.05, 0.05, 0.03, 43);
        assert!(matches!(
            rt.restore(&mut p3, &other_plan, fleet.clone(), &snap),
            Err(RecoverError::ConfigMismatch { what: "plan", .. })
        ));

        let mut p4 = pulse(&fams);
        let other_fleet = FleetConfig::uniform(2, crate::cluster::NodeCapacity::gb(6.0));
        assert!(matches!(
            rt.restore(&mut p4, &plan, other_fleet, &snap),
            Err(RecoverError::ConfigMismatch { what: "fleet", .. })
        ));

        for garbage in ["", "nonsense", "{\"type\":\"snapshot\"}"] {
            let mut p5 = pulse(&fams);
            assert!(
                rt.restore(&mut p5, &plan, fleet.clone(), garbage).is_err(),
                "garbage {garbage:?} must fail soft"
            );
        }
    }

    /// Restore the fixture's checkpoint after 200 events with its cursor
    /// field `key` set to `value`; it must fail as corrupt, and the message
    /// is returned.
    fn corrupt_cursor_message(key: &str, value: u64) -> String {
        let (rt, fams, plan, fleet) = restore_fixture();
        let snap = checkpoint_after(200);
        let head = pulse_obs::Record::parse(&snap).unwrap();
        let old = format!("\"{key}\":{}", head.u64(key).unwrap());
        let doc = snap.replacen(&old, &format!("\"{key}\":{value}"), 1);
        assert_ne!(doc, snap, "the edit must change the checkpoint");
        let mut p = pulse(&fams);
        match rt.restore(&mut p, &plan, fleet, &doc) {
            Err(RecoverError::Corrupt { message }) => message,
            Err(e) => panic!("expected Corrupt, got {e:?}"),
            Ok(_) => panic!("the edited checkpoint restored"),
        }
    }

    #[test]
    fn restore_rejects_a_cursor_past_the_end_of_the_run() {
        let message = corrupt_cursor_message("steps", 10_000_000);
        assert!(message.contains("past the run's"), "{message}");
    }

    #[test]
    fn restore_rejects_a_replay_that_misses_the_checkpoint_time() {
        // 200 events in, the run is past its first minute tick, so a kill
        // point at 0 ms cannot be where replay stops.
        let message = corrupt_cursor_message("now", 0);
        assert!(message.contains("not the checkpoint's 0 ms"), "{message}");
    }
}
