//! Crash-consistent checkpointing of the event-driven runtime.
//!
//! [`RuntimeSession::snapshot`] captures the *complete* resumable state of a
//! run — pending event queue (keys and sequence counter), per-function
//! container/queue state, the schedule ledger, per-request tables, RNG
//! cursors of both the duration sampler and the fault injector, per-node
//! fleet state, accumulated summary counters and the policy's learned state
//! — as a versioned multi-line flat-record document.
//! [`Runtime::restore`] rebuilds a session from it such that
//! finishing the restored session to completion is **bit-identical** to the
//! uninterrupted run, for any kill point.
//!
//! The snapshot never stores the workload, fault plan or fleet themselves;
//! it stamps their fingerprints and the restore call must supply equal
//! configurations (same trace, same seeds). Mismatches, version skew and
//! corruption all fail soft with a typed
//! [`RecoverError`](pulse_sim::recover::RecoverError).

use super::{DurationSampler, FnState, NodeRt, RunState, Runtime, RuntimeSession};
use crate::container::{ContainerState, LiveContainer};
use crate::event::{Event, EventQueue};
use crate::fault::{FaultInjector, FaultPlan};
use crate::fleet::FleetConfig;
use crate::metrics::{RequestRecord, RuntimeSummary};
use crate::node::NodeHealth;
use crate::MS_PER_MINUTE;
use pulse_core::global::FlattenScratch;
use pulse_core::priority::PriorityStructure;
use pulse_core::schedule::ScheduleLedger;
use pulse_models::Profiler;
use pulse_obs::{Record, RecordBuilder};
use pulse_sim::policy::KeepAlivePolicy;
use pulse_sim::recover::{
    decode_ledger_row, encode_ledger, fingerprint_of, read_header, RecoverError, SNAPSHOT_VERSION,
};
use pulse_sim::PlanState;
use rand::rngs::SmallRng;

/// Encode one queued [`Event`] as `(kind code, 4 packed args)`.
fn encode_event(e: &Event) -> (u64, [u64; 4]) {
    match *e {
        Event::Arrival { func, req } => (0, [func as u64, req as u64, 0, 0]),
        Event::ProvisionDone { func, epoch } => (1, [func as u64, epoch, 0, 0]),
        Event::ExecDone { func, req, gen } => (2, [func as u64, req as u64, gen, 0]),
        Event::ProvisionFailed { func, epoch } => (3, [func as u64, epoch, 0, 0]),
        Event::ExecFailed {
            func,
            req,
            epoch,
            gen,
        } => (4, [func as u64, req as u64, epoch, gen]),
        Event::RequestTimeout { func, req } => (5, [func as u64, req as u64, 0, 0]),
        Event::RetryRequest { func, req } => (6, [func as u64, req as u64, 0, 0]),
        Event::MinuteTick { minute } => (7, [minute, 0, 0, 0]),
        Event::NodeDown { node, fault } => (8, [node as u64, fault as u64, 0, 0]),
        Event::NodeRecovered { node, fault } => (9, [node as u64, fault as u64, 0, 0]),
        Event::MigrationDone { func, epoch } => (10, [func as u64, epoch, 0, 0]),
    }
}

/// Sizes of the tables a restored snapshot's ids index into.
struct Tables {
    funcs: usize,
    reqs: usize,
    nodes: usize,
    faults: usize,
}

/// Read `id` as an index into a table of `len` entries; out of range is
/// corrupt, so a well-formed but foreign id can never panic the resumed run.
fn index(what: &str, id: u64, len: usize) -> Result<usize, RecoverError> {
    usize::try_from(id)
        .ok()
        .filter(|&i| i < len)
        .ok_or_else(|| RecoverError::corrupt(format!("{what} {id} out of range 0..{len}")))
}

/// Decode an event written by [`encode_event`], checking every id against
/// its table.
fn decode_event(kind: u64, a: [u64; 4], t: &Tables) -> Result<Event, RecoverError> {
    let [x, y, z, w] = a;
    let func = || index("function", x, t.funcs);
    let req = || index("request", y, t.reqs);
    Ok(match kind {
        0 => Event::Arrival {
            func: func()?,
            req: req()?,
        },
        1 => Event::ProvisionDone {
            func: func()?,
            epoch: y,
        },
        2 => Event::ExecDone {
            func: func()?,
            req: req()?,
            gen: z,
        },
        3 => Event::ProvisionFailed {
            func: func()?,
            epoch: y,
        },
        4 => Event::ExecFailed {
            func: func()?,
            req: req()?,
            epoch: z,
            gen: w,
        },
        5 => Event::RequestTimeout {
            func: func()?,
            req: req()?,
        },
        6 => Event::RetryRequest {
            func: func()?,
            req: req()?,
        },
        7 => Event::MinuteTick { minute: x },
        8 => Event::NodeDown {
            node: index("node", x, t.nodes)?,
            fault: index("fault", y, t.faults)?,
        },
        9 => Event::NodeRecovered {
            node: index("node", x, t.nodes)?,
            fault: index("fault", y, t.faults)?,
        },
        10 => Event::MigrationDone {
            func: func()?,
            epoch: y,
        },
        other => {
            return Err(RecoverError::corrupt(format!(
                "unknown event kind code {other}"
            )))
        }
    })
}

fn encode_health(h: &NodeHealth) -> (u64, f64) {
    match *h {
        NodeHealth::Up => (0, 0.0),
        NodeHealth::Degraded { slowdown } => (1, slowdown),
        NodeHealth::Crashed => (2, 0.0),
        NodeHealth::Partitioned => (3, 0.0),
    }
}

fn decode_health(code: u64, slowdown: f64) -> Result<NodeHealth, RecoverError> {
    Ok(match code {
        0 => NodeHealth::Up,
        1 => NodeHealth::Degraded { slowdown },
        2 => NodeHealth::Crashed,
        3 => NodeHealth::Partitioned,
        other => {
            return Err(RecoverError::corrupt(format!(
                "unknown node health code {other}"
            )))
        }
    })
}

fn encode_container_state(s: ContainerState) -> u64 {
    match s {
        ContainerState::Provisioning => 0,
        ContainerState::Warm => 1,
        ContainerState::Executing => 2,
        ContainerState::Reaped => 3,
    }
}

fn decode_container_state(code: u64) -> Result<ContainerState, RecoverError> {
    Ok(match code {
        0 => ContainerState::Provisioning,
        1 => ContainerState::Warm,
        2 => ContainerState::Executing,
        3 => ContainerState::Reaped,
        other => {
            return Err(RecoverError::corrupt(format!(
                "unknown container state code {other}"
            )))
        }
    })
}

fn summary_row(s: &RuntimeSummary) -> String {
    RecordBuilder::new("summary")
        .f64("cost", s.keepalive_cost_usd)
        .f64_list("mem", &s.memory_at_tick_mb)
        .u64("downgrades", s.downgrades)
        .u64("prov_fail", s.provision_failures)
        .u64("prov_retry", s.provision_retries)
        .u64("vload_fail", s.variant_load_failures)
        .u64("exec_crash", s.exec_crashes)
        .u64("req_retry", s.request_retries)
        .u64("degradations", s.degradations)
        .u64("degraded_reqs", s.degraded_requests)
        .f64("acc_penalty", s.accuracy_penalty_pct)
        .u64("timeouts", s.timeouts)
        .u64("reaped", s.reaped)
        .u64("shed", s.shed_requests)
        .u64("evictions", s.evictions)
        .u64("pressure_down", s.pressure_downgrades)
        .u64("pressure_min", s.pressure_minutes)
        .u64("fallback_min", s.fallback_minutes)
        .u64("migrations", s.migrations)
        .u64("migration_pause", s.migration_pause_ms)
        .u64("node_crashes", s.node_crashes)
        .u64("node_partitions", s.node_partitions)
        .u64("node_stragglers", s.node_stragglers)
        .u64("node_recoveries", s.node_recoveries)
        .u64("redispatched", s.redispatched_requests)
        .u64("node_loss_evictions", s.node_loss_evictions)
        .u64("placement_fail", s.placement_failures)
        .finish()
}

fn decode_summary(rec: &Record) -> Result<RuntimeSummary, RecoverError> {
    let c = RecoverError::corrupt;
    Ok(RuntimeSummary {
        records: Vec::new(),
        keepalive_cost_usd: rec.f64("cost").map_err(c)?,
        memory_at_tick_mb: rec.f64_list("mem").map_err(c)?,
        downgrades: rec.u64("downgrades").map_err(c)?,
        provision_failures: rec.u64("prov_fail").map_err(c)?,
        provision_retries: rec.u64("prov_retry").map_err(c)?,
        variant_load_failures: rec.u64("vload_fail").map_err(c)?,
        exec_crashes: rec.u64("exec_crash").map_err(c)?,
        request_retries: rec.u64("req_retry").map_err(c)?,
        degradations: rec.u64("degradations").map_err(c)?,
        degraded_requests: rec.u64("degraded_reqs").map_err(c)?,
        accuracy_penalty_pct: rec.f64("acc_penalty").map_err(c)?,
        timeouts: rec.u64("timeouts").map_err(c)?,
        reaped: rec.u64("reaped").map_err(c)?,
        shed_requests: rec.u64("shed").map_err(c)?,
        evictions: rec.u64("evictions").map_err(c)?,
        pressure_downgrades: rec.u64("pressure_down").map_err(c)?,
        pressure_minutes: rec.u64("pressure_min").map_err(c)?,
        fallback_minutes: rec.u64("fallback_min").map_err(c)?,
        migrations: rec.u64("migrations").map_err(c)?,
        migration_pause_ms: rec.u64("migration_pause").map_err(c)?,
        node_crashes: rec.u64("node_crashes").map_err(c)?,
        node_partitions: rec.u64("node_partitions").map_err(c)?,
        node_stragglers: rec.u64("node_stragglers").map_err(c)?,
        node_recoveries: rec.u64("node_recoveries").map_err(c)?,
        redispatched_requests: rec.u64("redispatched").map_err(c)?,
        node_loss_evictions: rec.u64("node_loss_evictions").map_err(c)?,
        placement_failures: rec.u64("placement_fail").map_err(c)?,
        node_summaries: Vec::new(),
    })
}

/// The `(func, req)` a request-carrying event names.
fn event_request(e: &Event) -> Option<(usize, usize)> {
    match *e {
        Event::Arrival { func, req }
        | Event::ExecDone { func, req, .. }
        | Event::ExecFailed { func, req, .. }
        | Event::RequestTimeout { func, req }
        | Event::RetryRequest { func, req } => Some((func, req)),
        _ => None,
    }
}

/// Every in-flight execution has exactly one live completion queued: an
/// `ExecDone`/`ExecFailed` carrying its request's current generation names
/// a request its function is executing, and no request twice. Stale
/// completions (a node crash bumped the generation) are dropped by the run
/// unread, so they are not checked.
fn check_completions(
    entries: &[(u64, u64, Event)],
    fns: &[FnState],
    req_gen: &[u64],
) -> Result<(), RecoverError> {
    let mut live = vec![0usize; fns.len()];
    let mut completed = vec![false; req_gen.len()];
    for (_, _, e) in entries {
        let (func, req, gen) = match *e {
            Event::ExecDone { func, req, gen } | Event::ExecFailed { func, req, gen, .. } => {
                (func, req, gen)
            }
            _ => continue,
        };
        if gen != req_gen[req] {
            continue;
        }
        if completed[req] || !fns[func].executing.contains(&req) {
            return Err(RecoverError::corrupt(format!(
                "a queued completion of request {req} names function {func}, \
                 which is not executing it or already completes it"
            )));
        }
        completed[req] = true;
        live[func] += 1;
    }
    match fns
        .iter()
        .zip(&live)
        .position(|(st, &k)| st.executing.len() != k)
    {
        Some(f) => Err(RecoverError::corrupt(format!(
            "function {f} executes {} requests but {} live completions are queued",
            fns[f].executing.len(),
            live[f]
        ))),
        None => Ok(()),
    }
}

/// Decode one function's `"fn"` row; `rungs` is the length of its
/// quality ladder.
fn decode_fn(rec: &Record, rungs: usize, t: &Tables) -> Result<FnState, RecoverError> {
    let c = |e: pulse_obs::ParseError| RecoverError::corrupt(e);
    let reqs = |key: &str| {
        rec.u64_list(key)
            .map_err(c)?
            .into_iter()
            .map(|r| index("request", r, t.reqs))
            .collect::<Result<Vec<usize>, _>>()
    };
    let container = if rec.bool("cont").map_err(c)? {
        Some(LiveContainer {
            variant: index("variant", rec.u64("cvariant").map_err(c)?, rungs)?,
            state: decode_container_state(rec.u64("cstate").map_err(c)?)?,
            busy: u32::try_from(rec.u64("cbusy").map_err(c)?).map_err(RecoverError::corrupt)?,
            warm_since_ms: rec.u64("cwarm").map_err(c)?,
            epoch: rec.u64("cepoch").map_err(c)?,
        })
    } else {
        None
    };
    // The in-flight count is `executing.len()`; the stored field is kept
    // so documents stay byte-identical, and a mismatch marks corruption.
    let executing = reqs("executing")?;
    let in_flight = rec.u64("in_flight").map_err(c)?;
    if usize::try_from(in_flight).ok() != Some(executing.len()) {
        return Err(RecoverError::corrupt(format!(
            "in_flight {in_flight} disagrees with {} executing requests",
            executing.len()
        )));
    }
    Ok(FnState {
        container,
        waiting: reqs("waiting")?.into(),
        executing,
        node: index("node", rec.u64("node").map_err(c)?, t.nodes)?,
        scheduled_minute: rec
            .bool("sched_set")
            .map_err(c)?
            .then(|| rec.u64("sched").map_err(c))
            .transpose()?,
        epoch: rec.u64("epoch").map_err(c)?,
        provision_attempts: u32::try_from(rec.u64("attempts").map_err(c)?)
            .map_err(RecoverError::corrupt)?,
    })
}

impl RuntimeSession<'_> {
    /// Capture the full resumable state of this run as a versioned snapshot
    /// document. Restoring it with [`Runtime::restore`] (same
    /// workload/plan/fleet, a fresh same-seeded policy) and stepping to
    /// completion is bit-identical to never having stopped — counters, cost,
    /// per-request records and the emitted observability stream all
    /// included. Fails with
    /// [`RecoverError::NotCheckpointable`] when the policy cannot export its
    /// state.
    pub fn snapshot(&self) -> Result<String, RecoverError> {
        let state =
            self.policy
                .checkpoint_state()
                .ok_or_else(|| RecoverError::NotCheckpointable {
                    policy: self.policy.name().to_string(),
                })?;
        let rs = &self.rs;
        let mut doc = RecordBuilder::new("snapshot")
            .u64("version", SNAPSHOT_VERSION)
            .str("engine", "rt")
            .u64("workload", self.rt.workload_fingerprint())
            .u64("plan", fingerprint_of(rs.injector.plan()))
            .u64("fleet", fingerprint_of(&self.fleet))
            .str("policy", self.policy.name())
            .bool("invoked", self.plan.invoked)
            .bool("fallback", rs.prev_fallback)
            .u64("minute_requests", rs.minute_requests)
            .u64("minute_violations", rs.minute_violations)
            .u64("next_seq", rs.queue.next_seq())
            .u64("now", rs.now_ms)
            .finish();
        let push = |doc: &mut String, row: String| {
            doc.push('\n');
            doc.push_str(&row);
        };

        let sampler_words = rs.sampler.rng.as_ref().map(SmallRng::state);
        push(
            &mut doc,
            RecordBuilder::new("rng")
                .bool("sampler_set", sampler_words.is_some())
                .u64_list(
                    "sampler",
                    sampler_words.as_ref().map_or(&[][..], |w| &w[..]),
                )
                .u64_list("injector", &rs.injector.rng_state())
                .finish(),
        );
        push(
            &mut doc,
            RecordBuilder::new("policy").str("state", &state).finish(),
        );
        push(
            &mut doc,
            RecordBuilder::new("demand")
                .f64_list("history", &self.plan.demand_history)
                .finish(),
        );
        push(&mut doc, summary_row(&rs.summary));

        push(
            &mut doc,
            RecordBuilder::new("reqs")
                .u64_list(
                    "arrival",
                    &rs.records.iter().map(|r| r.arrival_ms).collect::<Vec<_>>(),
                )
                .u64_list(
                    "done",
                    &rs.records.iter().map(|r| r.done_ms).collect::<Vec<_>>(),
                )
                .u64_list(
                    "warm",
                    &rs.records
                        .iter()
                        .map(|r| u64::from(r.warm))
                        .collect::<Vec<_>>(),
                )
                .f64_list(
                    "acc",
                    &rs.records
                        .iter()
                        .map(|r| r.accuracy_pct)
                        .collect::<Vec<_>>(),
                )
                .u64_list(
                    "failed",
                    &rs.records
                        .iter()
                        .map(|r| u64::from(r.failed))
                        .collect::<Vec<_>>(),
                )
                .u64_list(
                    "variant",
                    &rs.req_warm_variant
                        .iter()
                        .map(|&v| v as u64)
                        .collect::<Vec<_>>(),
                )
                .u64_list(
                    "retries",
                    &rs.req_retries
                        .iter()
                        .map(|&r| u64::from(r))
                        .collect::<Vec<_>>(),
                )
                .u64_list(
                    "terminal",
                    &rs.req_done
                        .iter()
                        .map(|&d| u64::from(d))
                        .collect::<Vec<_>>(),
                )
                .u64_list("gen", &rs.req_gen)
                .finish(),
        );

        let entries = rs.queue.snapshot_entries();
        let (mut qt, mut qs, mut qk, mut qa, mut qb, mut qc, mut qd) = (
            Vec::with_capacity(entries.len()),
            Vec::with_capacity(entries.len()),
            Vec::with_capacity(entries.len()),
            Vec::with_capacity(entries.len()),
            Vec::with_capacity(entries.len()),
            Vec::with_capacity(entries.len()),
            Vec::with_capacity(entries.len()),
        );
        for (t, s, e) in &entries {
            let (k, [p, q, r, w]) = encode_event(e);
            qt.push(*t);
            qs.push(*s);
            qk.push(k);
            qa.push(p);
            qb.push(q);
            qc.push(r);
            qd.push(w);
        }
        push(
            &mut doc,
            RecordBuilder::new("queue")
                .u64_list("t", &qt)
                .u64_list("s", &qs)
                .u64_list("kind", &qk)
                .u64_list("a", &qa)
                .u64_list("b", &qb)
                .u64_list("c", &qc)
                .u64_list("d", &qd)
                .finish(),
        );

        for (f, st) in rs.fns.iter().enumerate() {
            let mut row = RecordBuilder::new("fn")
                .usize("func", f)
                .usize("node", st.node)
                .usize("in_flight", st.executing.len())
                .u64("epoch", st.epoch)
                .u64("attempts", u64::from(st.provision_attempts))
                .bool("sched_set", st.scheduled_minute.is_some())
                .u64("sched", st.scheduled_minute.unwrap_or(0))
                .u64_list(
                    "waiting",
                    &st.waiting.iter().map(|&r| r as u64).collect::<Vec<_>>(),
                )
                .u64_list(
                    "executing",
                    &st.executing.iter().map(|&r| r as u64).collect::<Vec<_>>(),
                )
                .bool("cont", st.container.is_some());
            if let Some(cont) = &st.container {
                row = row
                    .u64("cvariant", cont.variant as u64)
                    .u64("cstate", encode_container_state(cont.state))
                    .u64("cbusy", u64::from(cont.busy))
                    .u64("cwarm", cont.warm_since_ms)
                    .u64("cepoch", cont.epoch);
            }
            push(&mut doc, row.finish());
        }

        for (k, nd) in rs.nodes.iter().enumerate() {
            let (hc, slow) = encode_health(&nd.health);
            push(
                &mut doc,
                RecordBuilder::new("node")
                    .usize("idx", k)
                    .u64("health", hc)
                    .f64("slow", slow)
                    .f64("cost", nd.cost_usd)
                    .f64_list("billed", &nd.billed_series)
                    .u64("down", nd.minutes_down)
                    .u64("migr_in", nd.migrations_in)
                    .u64("migr_out", nd.migrations_out)
                    .u64_list("pressure", rs.pressure_priority[k].counts())
                    .finish(),
            );
        }

        encode_ledger(&mut doc, &rs.ledger);
        Ok(doc)
    }
}

impl Runtime {
    /// Fingerprint of this runtime's workload identity (trace + families +
    /// config) — stamped into snapshots and checked on restore.
    fn workload_fingerprint(&self) -> u64 {
        fingerprint_of(&(&self.trace, &self.families, &self.config))
    }

    /// Resume a run killed after [`RuntimeSession::snapshot`]: rebuild the
    /// session so that driving it to completion is bit-identical to the
    /// uninterrupted run. `plan` and `fleet` must equal the snapshotted
    /// configuration (checked by fingerprint; a [`ClusterConfig`] converts
    /// to its one-node fleet exactly as in [`Runtime::session`]) and
    /// `policy` must be freshly constructed with the same arguments; its
    /// learned state is re-injected through
    /// [`KeepAlivePolicy::restore_state`]. Restoring emits nothing, so
    /// [`RuntimeSession::traced`] continues the event stream exactly where
    /// the killed run's journal left off. Fails soft with a typed
    /// [`RecoverError`] on skew, corruption, or any mismatch.
    ///
    /// [`ClusterConfig`]: crate::cluster::ClusterConfig
    // Ids and counts were written from usize by this build's snapshot path.
    #[allow(clippy::cast_possible_truncation)]
    pub fn restore<'a>(
        &'a self,
        policy: &'a mut dyn KeepAlivePolicy,
        plan: &FaultPlan,
        fleet: impl Into<FleetConfig>,
        snapshot: &str,
    ) -> Result<RuntimeSession<'a>, RecoverError> {
        let fleet: FleetConfig = fleet.into();
        let c = |e: pulse_obs::ParseError| RecoverError::corrupt(e);
        let n = self.families.len();
        let (head, lines) = read_header(
            snapshot,
            "rt",
            &[
                ("workload", self.workload_fingerprint()),
                ("plan", fingerprint_of(plan)),
                ("fleet", fingerprint_of(&fleet)),
            ],
            policy.name(),
        )?;

        let mut sampler_rng = None;
        let mut injector = None;
        let mut policy_state = None;
        let mut demand_history = None;
        let mut summary = None;
        let mut reqs = None;
        let mut queue = None;
        // Fn rows index the request table, so they decode once it is known.
        let mut fn_rows: Vec<Option<Record>> = (0..n).map(|_| None).collect();
        let mut nodes: Vec<Option<(NodeRt, PriorityStructure)>> =
            (0..fleet.nodes.len()).map(|_| None).collect();
        // `for_families` so the rebuilt ledger carries the same incremental
        // index as a fresh session's; decoded rows repopulate its alive sets
        // via `replace`.
        let mut ledger = ScheduleLedger::for_families(&self.families);

        for line in lines {
            let rec = Record::parse(line).map_err(c)?;
            match rec.kind() {
                "rng" => {
                    if rec.bool("sampler_set").map_err(c)? {
                        let words: [u64; 4] = rec
                            .u64_list("sampler")
                            .map_err(c)?
                            .try_into()
                            .map_err(|_| RecoverError::corrupt("sampler cursor must be 4 words"))?;
                        sampler_rng = Some(SmallRng::from_state(words));
                    } else if self.config.stochastic_seed.is_some() {
                        return Err(RecoverError::corrupt(
                            "snapshot has no sampler cursor but the config is stochastic",
                        ));
                    }
                    let words: [u64; 4] = rec
                        .u64_list("injector")
                        .map_err(c)?
                        .try_into()
                        .map_err(|_| RecoverError::corrupt("injector cursor must be 4 words"))?;
                    injector = Some(FaultInjector::from_state(plan, words));
                }
                "policy" => policy_state = Some(rec.str("state").map_err(c)?.to_string()),
                "demand" => demand_history = Some(rec.f64_list("history").map_err(c)?),
                "summary" => summary = Some(decode_summary(&rec)?),
                "reqs" => reqs = Some(rec),
                "queue" => queue = Some(rec),
                "fn" => {
                    let f = rec.usize("func").map_err(c)?;
                    if f >= n {
                        return Err(RecoverError::corrupt(format!(
                            "fn row targets function {f} of {n}"
                        )));
                    }
                    fn_rows[f] = Some(rec);
                }
                "node" => {
                    let k = rec.usize("idx").map_err(c)?;
                    if k >= fleet.nodes.len() {
                        return Err(RecoverError::corrupt(format!(
                            "node row targets node {k} of {}",
                            fleet.nodes.len()
                        )));
                    }
                    let pressure = rec.u64_list("pressure").map_err(c)?;
                    if pressure.len() != n {
                        return Err(RecoverError::corrupt(format!(
                            "node {k} carries {} pressure counts for {n} functions",
                            pressure.len()
                        )));
                    }
                    let mut nd = NodeRt::new(fleet.nodes[k].clone());
                    nd.health =
                        decode_health(rec.u64("health").map_err(c)?, rec.f64("slow").map_err(c)?)?;
                    nd.cost_usd = rec.f64("cost").map_err(c)?;
                    nd.billed_series = rec.f64_list("billed").map_err(c)?;
                    nd.minutes_down = rec.u64("down").map_err(c)?;
                    nd.migrations_in = rec.u64("migr_in").map_err(c)?;
                    nd.migrations_out = rec.u64("migr_out").map_err(c)?;
                    nodes[k] = Some((nd, PriorityStructure::from_counts(pressure)));
                }
                "sched" => decode_ledger_row(&mut ledger, &self.families, &rec)?,
                other => {
                    return Err(RecoverError::corrupt(format!(
                        "unknown snapshot row kind {other:?}"
                    )))
                }
            }
        }

        let injector =
            injector.ok_or_else(|| RecoverError::corrupt("snapshot lacks an rng row"))?;
        let state =
            policy_state.ok_or_else(|| RecoverError::corrupt("snapshot lacks a policy row"))?;
        let demand_history =
            demand_history.ok_or_else(|| RecoverError::corrupt("snapshot lacks a demand row"))?;
        let summary =
            summary.ok_or_else(|| RecoverError::corrupt("snapshot lacks a summary row"))?;
        let reqs = reqs.ok_or_else(|| RecoverError::corrupt("snapshot lacks a reqs row"))?;
        let queue_rec = queue.ok_or_else(|| RecoverError::corrupt("snapshot lacks a queue row"))?;

        let arrival = reqs.u64_list("arrival").map_err(c)?;
        let done = reqs.u64_list("done").map_err(c)?;
        let warm = reqs.u64_list("warm").map_err(c)?;
        let acc = reqs.f64_list("acc").map_err(c)?;
        let failed = reqs.u64_list("failed").map_err(c)?;
        let variant = reqs.u64_list("variant").map_err(c)?;
        let retries = reqs.u64_list("retries").map_err(c)?;
        let terminal = reqs.u64_list("terminal").map_err(c)?;
        let gen = reqs.u64_list("gen").map_err(c)?;
        let len = arrival.len();
        if [
            done.len(),
            warm.len(),
            acc.len(),
            failed.len(),
            variant.len(),
            retries.len(),
            terminal.len(),
            gen.len(),
        ]
        .iter()
        .any(|&l| l != len)
        {
            return Err(RecoverError::corrupt("reqs row lists disagree in length"));
        }
        let records: Vec<RequestRecord> = (0..len)
            .map(|i| RequestRecord {
                arrival_ms: arrival[i],
                done_ms: done[i],
                warm: warm[i] != 0,
                accuracy_pct: acc[i],
                failed: failed[i] != 0,
            })
            .collect();
        let req_retries: Vec<u32> = retries
            .into_iter()
            .map(u32::try_from)
            .collect::<Result<_, _>>()
            .map_err(RecoverError::corrupt)?;

        let qt = queue_rec.u64_list("t").map_err(c)?;
        let qs = queue_rec.u64_list("s").map_err(c)?;
        let qk = queue_rec.u64_list("kind").map_err(c)?;
        let qa = queue_rec.u64_list("a").map_err(c)?;
        let qb = queue_rec.u64_list("b").map_err(c)?;
        let qc = queue_rec.u64_list("c").map_err(c)?;
        let qd = queue_rec.u64_list("d").map_err(c)?;
        if [qs.len(), qk.len(), qa.len(), qb.len(), qc.len(), qd.len()]
            .iter()
            .any(|&l| l != qt.len())
        {
            return Err(RecoverError::corrupt("queue row lists disagree in length"));
        }
        let tables = Tables {
            funcs: n,
            reqs: len,
            nodes: fleet.nodes.len(),
            faults: fleet.node_faults.faults.len(),
        };
        // The kill point: no queued event may precede it, or the resumed
        // run would step back in time.
        let now = head.u64("now").map_err(c)?;
        let mut entries = Vec::with_capacity(qt.len());
        for i in 0..qt.len() {
            if qt[i] < now {
                return Err(RecoverError::corrupt(format!(
                    "a queued event at {} ms precedes the kill point at {now} ms",
                    qt[i]
                )));
            }
            entries.push((
                qt[i],
                qs[i],
                decode_event(qk[i], [qa[i], qb[i], qc[i], qd[i]], &tables)?,
            ));
        }
        let fns: Vec<FnState> = fn_rows
            .into_iter()
            .enumerate()
            .map(|(f, rec)| {
                let rec = rec.ok_or_else(|| {
                    RecoverError::corrupt(format!("snapshot lacks the fn row of {f}"))
                })?;
                decode_fn(&rec, self.families[f].variants.len(), &tables)
            })
            .collect::<Result<_, _>>()?;
        // A request a function holds or an event names is served from that
        // function's ladder.
        let held = fns.iter().enumerate().flat_map(|(f, st)| {
            st.waiting
                .iter()
                .chain(&st.executing)
                .map(move |&req| (f, req))
        });
        let named = entries.iter().filter_map(|(_, _, e)| event_request(e));
        for (f, req) in held.chain(named) {
            let rungs = self.families[f].variants.len();
            if usize::try_from(variant[req]).map_or(true, |v| v >= rungs) {
                return Err(RecoverError::corrupt(format!(
                    "request {req} of function {f}: variant {} out of range 0..{rungs}",
                    variant[req]
                )));
            }
        }
        check_completions(&entries, &fns, &gen)?;
        let queue = EventQueue::from_parts(
            entries,
            head.u64("next_seq").map_err(c)?,
            self.trace.minutes() as u64,
        )
        .map_err(RecoverError::corrupt)?;

        let (nodes, pressure_priority): (Vec<NodeRt>, Vec<PriorityStructure>) = nodes
            .into_iter()
            .enumerate()
            .map(|(k, nd)| {
                nd.ok_or_else(|| {
                    RecoverError::corrupt(format!("snapshot lacks the node row of {k}"))
                })
            })
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .unzip();
        let pending = fns.iter().map(|st| st.waiting.len()).sum();

        policy
            .restore_state(&state)
            .map_err(RecoverError::corrupt)?;
        let kill_minute = now / MS_PER_MINUTE;
        if let Some(m) = policy.last_invocation_minute().filter(|&m| m > kill_minute) {
            return Err(RecoverError::corrupt(format!(
                "the policy recorded an invocation at minute {m}, past the kill point's \
                 minute {kill_minute}"
            )));
        }

        let rs = RunState {
            queue,
            now_ms: now,
            fns,
            ledger,
            records,
            req_warm_variant: variant.into_iter().map(|v| v as usize).collect(),
            req_retries,
            req_done: terminal.into_iter().map(|d| d != 0).collect(),
            req_gen: gen,
            summary,
            sampler: DurationSampler {
                rng: sampler_rng,
                profiler: Profiler::default(),
            },
            injector,
            cap: self.config.concurrency_cap(),
            pending,
            pressure_priority,
            nodes,
            minute_requests: head.u64("minute_requests").map_err(c)?,
            minute_violations: head.u64("minute_violations").map_err(c)?,
            prev_fallback: head.bool("fallback").map_err(c)?,
            sink: None,
        };
        Ok(RuntimeSession {
            rt: self,
            policy,
            fleet,
            rs,
            plan: PlanState::new(demand_history, head.bool("invoked").map_err(c)?),
            flatten_scratch: FlattenScratch::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Runtime, RuntimeConfig};
    use crate::cluster::NodeCapacity;
    use crate::event::Event;
    use crate::fault::FaultPlan;
    use crate::fleet::FleetConfig;
    use crate::node::NodeFaultPlan;
    use pulse_core::types::PulseConfig;
    use pulse_obs::{Record, RecordBuilder};
    use pulse_sim::assignment::round_robin_assignment;
    use pulse_sim::policies::{OpenWhiskFixed, PulsePolicy};
    use pulse_sim::recover::{RecoverError, SNAPSHOT_VERSION};

    const HORIZON: usize = 240;

    fn fixture() -> (
        Runtime,
        Vec<pulse_models::ModelFamily>,
        FaultPlan,
        FleetConfig,
    ) {
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

    fn pulse(fams: &[pulse_models::ModelFamily]) -> PulsePolicy {
        PulsePolicy::new(fams.to_vec(), PulseConfig::default())
    }

    #[test]
    fn kill_restore_resume_is_bit_identical_under_fleet_faults() {
        let (rt, fams, plan, fleet) = fixture();
        let mut whole_policy = pulse(&fams);
        let whole = rt.session(&mut whole_policy, &plan, fleet.clone()).finish();

        let mut probe_policy = pulse(&fams);
        let mut probe = rt.session(&mut probe_policy, &plan, fleet.clone());
        let mut total = 0usize;
        while probe.step().is_some() {
            total += 1;
        }
        drop(probe);

        for kill_after in [total / 7, (total * 4) / 5] {
            let mut p1 = pulse(&fams);
            let mut sess = rt.session(&mut p1, &plan, fleet.clone());
            for _ in 0..kill_after {
                assert!(sess.step().is_some(), "kill point beyond the run");
            }
            let snap = sess.snapshot().unwrap();
            drop(sess);

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
        let (rt, fams, plan, fleet) = fixture();
        let mut p = pulse(&fams);
        let mut sess = rt.session(&mut p, &plan, fleet.clone());
        for _ in 0..200 {
            sess.step();
        }
        let snap = sess.snapshot().unwrap();
        drop(sess);

        // A future version and older ones (1 still carried an ops row, 3
        // lacked the kill point) are all skew, never a half-read document.
        let current = format!("\"version\":{SNAPSHOT_VERSION}");
        for found in [9, 3, 1] {
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
        let other_fleet = FleetConfig::uniform(2, NodeCapacity::gb(6.0));
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

    /// Rewrite the snapshot's queue row: `edit` sees each entry's columns
    /// `[t, s, kind, a, b, c, d]`, may change them, and returns whether to
    /// keep the entry.
    fn with_queue_row(snap: &str, mut edit: impl FnMut(&mut [u64]) -> bool) -> String {
        const COLS: [&str; 7] = ["t", "s", "kind", "a", "b", "c", "d"];
        snap.lines()
            .map(|line| {
                let rec = Record::parse(line).unwrap();
                if rec.kind() != "queue" {
                    return line.to_string();
                }
                let cols: Vec<Vec<u64>> = COLS.iter().map(|k| rec.u64_list(k).unwrap()).collect();
                let mut out = vec![Vec::new(); COLS.len()];
                for i in 0..cols[0].len() {
                    let mut entry: Vec<u64> = cols.iter().map(|c| c[i]).collect();
                    if edit(&mut entry) {
                        for (o, v) in out.iter_mut().zip(entry) {
                            o.push(v);
                        }
                    }
                }
                COLS.iter()
                    .zip(&out)
                    .fold(RecordBuilder::new("queue"), |b, (k, v)| b.u64_list(k, v))
                    .finish()
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn restore_rejects_a_gapped_or_misseqd_tick_run_as_corrupt() {
        let (rt, fams, plan, fleet) = fixture();
        let mut p = pulse(&fams);
        let mut sess = rt.session(&mut p, &plan, fleet.clone());
        // Ticks `first..HORIZON` are still pending at the kill point.
        let mut first = 0;
        for _ in 0..200 {
            if let Some((_, Event::MinuteTick { .. })) = sess.step() {
                first += 1;
            }
        }
        assert!(
            first + 2 < HORIZON as u64,
            "the kill point must leave ticks pending"
        );
        let snap = sess.snapshot().unwrap();
        drop(sess);
        const TICK: u64 = 7;
        let minute = |m: u64| move |k: &mut [u64]| !(k[2] == TICK && k[3] == m);

        // Untouched, the rewrite is the identity.
        assert_eq!(with_queue_row(&snap, |_| true), snap);
        let broken = [
            ("gapped", with_queue_row(&snap, minute(first + 1))),
            (
                "tailless",
                with_queue_row(&snap, minute(HORIZON as u64 - 1)),
            ),
            (
                "misseq",
                with_queue_row(&snap, |k| {
                    if k[2] == TICK && k[3] == first + 1 {
                        k[1] += 1;
                    }
                    true
                }),
            ),
        ];
        for (what, doc) in broken {
            let mut p2 = pulse(&fams);
            match rt.restore(&mut p2, &plan, fleet.clone(), &doc) {
                Err(RecoverError::Corrupt { message }) => {
                    assert!(message.contains("minute ticks"), "{what}: {message}");
                }
                Err(e) => panic!("{what}: expected Corrupt, got {e:?}"),
                Ok(_) => panic!("{what}: a broken tick run restored"),
            }
        }
    }

    /// Apply `edit` to the first row of type `kind` (the other rows are
    /// kept verbatim).
    fn with_row(snap: &str, kind: &str, edit: impl Fn(&str) -> String) -> String {
        let tag = format!("{{\"type\":\"{kind}\",");
        let mut done = false;
        snap.lines()
            .map(|line| {
                if done || !line.starts_with(&tag) {
                    return line.to_string();
                }
                done = true;
                edit(line)
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Replace the value of `"key":"…"` (a packed list) in one row.
    fn set_list(line: &str, key: &str, value: &str) -> String {
        let open = format!("\"{key}\":\"");
        let start = line.find(&open).expect("row has the key") + open.len();
        let end = start + line[start..].find('"').expect("closing quote");
        format!("{}{value}{}", &line[..start], &line[end..])
    }

    /// Restore `edit` of the fleet fixture's snapshot after 200 events
    /// against the same configuration; it must fail as corrupt, and the
    /// message is returned.
    fn corrupt_message(edit: impl Fn(&str) -> String) -> String {
        let (rt, fams, plan, fleet) = fixture();
        let mut p = pulse(&fams);
        let mut sess = rt.session(&mut p, &plan, fleet.clone());
        for _ in 0..200 {
            sess.step();
        }
        let snap = sess.snapshot().unwrap();
        drop(sess);
        let doc = edit(&snap);
        assert_ne!(doc, snap, "the edit must change the snapshot");
        let mut p2 = pulse(&fams);
        match rt.restore(&mut p2, &plan, fleet, &doc) {
            Err(RecoverError::Corrupt { message }) => message,
            Err(e) => panic!("expected Corrupt, got {e:?}"),
            Ok(_) => panic!("the edited snapshot restored"),
        }
    }

    /// The edited snapshot must fail as corrupt with a message naming
    /// `what` as out of range.
    fn assert_out_of_range(edit: impl Fn(&str) -> String, what: &str) {
        let message = corrupt_message(edit);
        assert!(
            message.contains(what) && message.contains("out of range"),
            "{message}"
        );
    }

    #[test]
    fn restore_rejects_a_fn_row_on_a_missing_node() {
        // The fixture fleet has 3 nodes; a leading 7 makes the id ≥ 70.
        assert_out_of_range(
            |snap| with_row(snap, "fn", |l| l.replacen("\"node\":", "\"node\":7", 1)),
            "node",
        );
    }

    #[test]
    fn restore_rejects_waiting_and_executing_ids_past_the_request_table() {
        for key in ["waiting", "executing"] {
            assert_out_of_range(
                |snap| with_row(snap, "fn", |l| set_list(l, key, "999999")),
                "request",
            );
        }
    }

    #[test]
    fn restore_rejects_request_variants_off_their_functions_ladder() {
        // Every zoo ladder has fewer than 99 rungs.
        assert_out_of_range(
            |snap| {
                with_row(snap, "reqs", |l| {
                    let reqs = Record::parse(l).unwrap().u64_list("variant").unwrap();
                    set_list(l, "variant", &vec!["99"; reqs.len()].join(","))
                })
            },
            "variant",
        );
    }

    #[test]
    fn restore_rejects_queued_events_that_index_past_their_tables() {
        const ARRIVAL: u64 = 0;
        const NODE_DOWN: u64 = 8;
        // Columns: [t, s, kind, a, b, c, d].
        let cases: [(u64, usize, &str); 4] = [
            (ARRIVAL, 3, "function"),
            (ARRIVAL, 4, "request"),
            (NODE_DOWN, 3, "node"),
            (NODE_DOWN, 4, "fault"),
        ];
        for (kind, col, what) in cases {
            assert_out_of_range(
                |snap| {
                    with_queue_row(snap, |k| {
                        if k[2] == kind {
                            k[col] = 999_999;
                        }
                        true
                    })
                },
                what,
            );
        }
    }

    /// The three ways an in-range snapshot can disagree with its own kill
    /// point, each of which a resumed run would panic on, are rejected.
    #[test]
    fn restore_rejects_time_inconsistent_snapshots() {
        const EXEC_DONE: u64 = 2;
        const TICK: u64 = 7;
        // Columns: [t, s, kind, a, b, c, d].
        let early = corrupt_message(|snap| {
            let mut moved = false;
            with_queue_row(snap, |k| {
                if !moved && k[2] != TICK {
                    moved = true;
                    k[0] = 0;
                }
                true
            })
        });
        assert!(early.contains("precedes the kill point"), "{early}");

        // Round-robin families repeat every 5 functions, so function
        // f ± 5 has the same ladder and only the completion check can
        // object to the move.
        let foreign = corrupt_message(|snap| {
            let mut moved = false;
            let doc = with_queue_row(snap, |k| {
                if !moved && k[2] == EXEC_DONE {
                    moved = true;
                    k[3] = if k[3] + 5 < 12 { k[3] + 5 } else { k[3] - 5 };
                }
                true
            });
            assert!(moved, "the kill point must leave an execution in flight");
            doc
        });
        assert!(foreign.contains("completion of request"), "{foreign}");

        let late = corrupt_message(|snap| {
            with_row(snap, "policy", |line| {
                let state = Record::parse(line)
                    .unwrap()
                    .str("state")
                    .unwrap()
                    .to_string();
                let mut rows: Vec<String> = state.lines().map(str::to_string).collect();
                let history = Record::parse(&rows[1])
                    .unwrap()
                    .u64_list("minutes")
                    .unwrap();
                let past: Vec<u64> = history.into_iter().chain([10 * HORIZON as u64]).collect();
                rows[1] = RecordBuilder::new("arrivals")
                    .u64_list("minutes", &past)
                    .finish();
                RecordBuilder::new("policy")
                    .str("state", &rows.join("\n"))
                    .finish()
            })
        });
        assert!(late.contains("past the kill point"), "{late}");
    }
}
