//! The typed event taxonomy both engines emit.
//!
//! Every *engine* event carries *simulation* time only — a minute index for
//! tick-pipeline events or a millisecond offset for the event-driven
//! runtime's request-level events. No wall clock anywhere: traces from the
//! same seed are byte-identical across machines and reruns (`clippy.toml`
//! disallows `Instant::now` and `SystemTime` workspace-wide). The one
//! deliberate exception is the `serve_*` family: those are *harness-side*
//! telemetry from the online serving front door (pulse-serve), whose whole
//! point is wall-clock throughput and decision latency. They are never emitted by an engine
//! replay, so engine-trace determinism is untouched.
//!
//! The JSONL encoding is one flat object per line with a `"type"`
//! discriminator, e.g.:
//!
//! ```text
//! {"type":"downgrade","minute":61,"func":4,"from":2,"to":0,"source":"policy","applied":true}
//! ```
//!
//! [`ObsEvent::to_json`] and [`ObsEvent::from_json`] are exact inverses for
//! every variant (the schema self-check below round-trips each one), which
//! is what lets offline tooling consume traces without this crate.

use crate::json::{parse_object, push_f64, push_json_str, Fields, ParseError};
use std::fmt::Write as _;

/// Which layer issued a downgrade/eviction action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionSource {
    /// The policy's cross-function adjustment (Algorithm 2 at a demand peak).
    Policy,
    /// Node-capacity enforcement flattening a footprint over the hard cap.
    Pressure,
    /// Fleet health: the function's node is down and no live node can host
    /// its keep-alive model, so the slot is evicted.
    NodeLoss,
}

impl ActionSource {
    fn as_str(self) -> &'static str {
        match self {
            ActionSource::Policy => "policy",
            ActionSource::Pressure => "pressure",
            ActionSource::NodeLoss => "node_loss",
        }
    }

    fn parse(s: &str) -> Result<Self, ParseError> {
        match s {
            "policy" => Ok(ActionSource::Policy),
            "pressure" => Ok(ActionSource::Pressure),
            "node_loss" => Ok(ActionSource::NodeLoss),
            other => Err(ParseError::new(format!("unknown action source {other:?}"))),
        }
    }
}

/// The observability taxonomy of node-level faults (a mirror of the
/// runtime's fault kinds — this crate stays dependency-free, so the payload
/// a `Degraded` fault carries is not repeated here, only the class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeFaultClass {
    /// The node died: containers reaped, in-flight work aborted.
    Crash,
    /// The node runs slow (a straggler): durations stretched.
    Straggler,
    /// The node is unreachable: containers dropped, in-flight work finishes.
    Partition,
}

impl NodeFaultClass {
    fn as_str(self) -> &'static str {
        match self {
            NodeFaultClass::Crash => "crash",
            NodeFaultClass::Straggler => "straggler",
            NodeFaultClass::Partition => "partition",
        }
    }

    fn parse(s: &str) -> Result<Self, ParseError> {
        match s {
            "crash" => Ok(NodeFaultClass::Crash),
            "straggler" => Ok(NodeFaultClass::Straggler),
            "partition" => Ok(NodeFaultClass::Partition),
            other => Err(ParseError::new(format!("unknown fault class {other:?}"))),
        }
    }
}

/// One structured observation from an engine run. See the module docs for
/// the time semantics; `minute`-carrying events come from the minute-tick
/// pipeline, `at_ms`-carrying events from the runtime's request machinery.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// Marks the start of one labelled run inside a shared stream (the
    /// experiment sweeps write several runs into one file).
    RunStart {
        /// Free-form run identity, e.g. `"chaos/mid/pulse"`.
        label: String,
    },
    /// The cross-function adjustment stage of one minute tick: how many
    /// actions the policy requested, how many actually moved a ledger slot,
    /// and the pre-adjustment keep-alive footprint it saw.
    Adjust {
        /// Minute being adjusted.
        minute: u64,
        /// Actions the policy returned.
        requested: usize,
        /// Actions that changed a slot (the ledger ignores holes, expired
        /// plans, and already-lower slots).
        applied: usize,
        /// Keep-alive demand (MB) presented to the policy.
        keepalive_mb: f64,
    },
    /// One downgrade action routed through the schedule ledger.
    Downgrade {
        /// Minute the clamp targets.
        minute: u64,
        /// Victim function.
        func: usize,
        /// Rung the action believed the slot held.
        from: usize,
        /// Rung the slot is clamped to.
        to: usize,
        /// Issuing layer.
        source: ActionSource,
        /// Whether the slot actually moved.
        applied: bool,
    },
    /// One eviction action routed through the schedule ledger.
    Evict {
        /// Minute the hole is punched at.
        minute: u64,
        /// Victim function.
        func: usize,
        /// Rung the action believed the slot held.
        from: usize,
        /// Issuing layer.
        source: ActionSource,
        /// Whether the slot actually changed.
        applied: bool,
    },
    /// One served function-minute in the minute engine.
    Serve {
        /// Minute served.
        minute: u64,
        /// Function invoked.
        func: usize,
        /// Invocations this minute.
        requests: u64,
        /// Cold starts among them (0 or 1 in the minute engine: same-minute
        /// followers reuse the freshly started container).
        cold_starts: u64,
    },
    /// One arrival served by the event-driven runtime.
    Arrival {
        /// Arrival time, ms since run start.
        at_ms: u64,
        /// Function invoked.
        func: usize,
        /// Whether a container existed (warm or still provisioning).
        warm: bool,
    },
    /// An arrival shed by admission control (never served).
    Shed {
        /// Shed time, ms since run start.
        at_ms: u64,
        /// Function whose arrival was shed.
        func: usize,
    },
    /// A fault-driven ladder degradation: provisioning retries exhausted,
    /// the runtime re-points the function one rung down.
    Degrade {
        /// Degradation time, ms since run start.
        at_ms: u64,
        /// Function degraded.
        func: usize,
        /// Rung that kept failing.
        from: usize,
        /// Rung now being provisioned.
        to: usize,
    },
    /// A container reaped after the whole ladder exhausted its retries.
    Reap {
        /// Reap time, ms since run start.
        at_ms: u64,
        /// Function whose container was reaped.
        func: usize,
    },
    /// The self-monitoring watchdog changed state at a minute tick.
    Watchdog {
        /// Tick at which the transition was observed.
        minute: u64,
        /// `true` = entered fallback, `false` = recovered.
        fallback: bool,
    },
    /// Keep-alive billing of one minute, post-adjustment.
    Bill {
        /// Minute billed.
        minute: u64,
        /// Billed keep-alive footprint, MB.
        keepalive_mb: f64,
        /// Billed keep-alive cost, USD.
        cost_usd: f64,
    },
    /// A node-level fault window opened (fleet runs only).
    NodeDown {
        /// Minute the fault struck.
        minute: u64,
        /// Affected node.
        node: usize,
        /// What kind of fault.
        kind: NodeFaultClass,
    },
    /// A node healed fully — no fault window covers it anymore.
    NodeRecovered {
        /// Minute the node came back up.
        minute: u64,
        /// Affected node.
        node: usize,
    },
    /// The rebalancer migrated a warm container between nodes.
    Migrate {
        /// Minute tick at which the rebalancer ran.
        minute: u64,
        /// Owning function.
        func: usize,
        /// Source node.
        from_node: usize,
        /// Destination node.
        to_node: usize,
    },
    /// A write-ahead journal epoch header. The journal opens with epoch 0;
    /// every checkpoint closes the current epoch and the next header marks
    /// the start of the tail that must be replayed on top of that snapshot.
    JournalEpoch {
        /// Epoch index, starting at 0.
        epoch: u64,
    },
    /// The online serving front door opened (pulse-serve). Harness-side
    /// telemetry: emitted once per serve run, before any request is
    /// admitted.
    ServeStart {
        /// Virtual horizon of the run, minutes.
        minutes: u64,
        /// Functions behind the front door.
        functions: usize,
        /// Load/transport mode label, e.g. `"live"`, `"replay"`, `"demo"`.
        mode: String,
    },
    /// The bounded ingress channel filled up and the front door shed
    /// arrivals without queueing them (transport-level backpressure, before
    /// the engine's admission control ever sees the requests).
    ServeBackpressure {
        /// Virtual time of the observation, ms since serve start.
        at_ms: u64,
        /// Arrivals dropped at the front door since the last report.
        dropped: u64,
    },
    /// One virtual minute of online serving completed.
    ServeTick {
        /// The completed minute.
        minute: u64,
        /// Requests admitted into the engine so far.
        admitted: u64,
        /// Requests shed so far (front door + engine admission).
        shed: u64,
        /// Events still pending in the engine queue at the tick.
        queue_depth: usize,
    },
    /// End-of-run serving report: volume, backpressure, and the
    /// decision-latency distribution (nanoseconds, from the pulse-obs
    /// histogram over per-`step` wall time).
    ServeSummary {
        /// Total requests admitted into the engine.
        admitted: u64,
        /// Total requests shed.
        shed: u64,
        /// Median per-decision latency, ns.
        p50_decision_ns: u64,
        /// Tail per-decision latency, ns.
        p99_decision_ns: u64,
        /// Wall-clock duration of the run, ms.
        wall_ms: u64,
        /// Sustained admitted-request throughput, requests per wall second.
        rps: f64,
    },
    /// A full engine snapshot embedded in the journal: the serialized
    /// document produced by a session's `snapshot()` as one opaque string.
    /// Restoring the snapshot and replaying the events after this record
    /// reproduces the uninterrupted run bit-identically.
    Checkpoint {
        /// Checkpoint sequence number within the run, starting at 0.
        seq: u64,
        /// The engine's checkpoint: its one-line header.
        snapshot: String,
    },
}

impl ObsEvent {
    /// The `"type"` discriminator this event serializes under.
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::RunStart { .. } => "run_start",
            ObsEvent::Adjust { .. } => "adjust",
            ObsEvent::Downgrade { .. } => "downgrade",
            ObsEvent::Evict { .. } => "evict",
            ObsEvent::Serve { .. } => "serve",
            ObsEvent::Arrival { .. } => "arrival",
            ObsEvent::Shed { .. } => "shed",
            ObsEvent::Degrade { .. } => "degrade",
            ObsEvent::Reap { .. } => "reap",
            ObsEvent::Watchdog { .. } => "watchdog",
            ObsEvent::Bill { .. } => "bill",
            ObsEvent::NodeDown { .. } => "node_down",
            ObsEvent::NodeRecovered { .. } => "node_recovered",
            ObsEvent::Migrate { .. } => "migrate",
            ObsEvent::ServeStart { .. } => "serve_start",
            ObsEvent::ServeBackpressure { .. } => "serve_backpressure",
            ObsEvent::ServeTick { .. } => "serve_tick",
            ObsEvent::ServeSummary { .. } => "serve_summary",
            ObsEvent::JournalEpoch { .. } => "journal_epoch",
            ObsEvent::Checkpoint { .. } => "checkpoint",
        }
    }

    /// Serialize to one flat JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64);
        s.push_str("{\"type\":\"");
        s.push_str(self.kind());
        s.push('"');
        match self {
            ObsEvent::RunStart { label } => {
                s.push_str(",\"label\":");
                push_json_str(&mut s, label);
            }
            ObsEvent::Adjust {
                minute,
                requested,
                applied,
                keepalive_mb,
            } => {
                let _ = write!(
                    s,
                    ",\"minute\":{minute},\"requested\":{requested},\"applied\":{applied},\"keepalive_mb\":"
                );
                push_f64(&mut s, *keepalive_mb);
            }
            ObsEvent::Downgrade {
                minute,
                func,
                from,
                to,
                source,
                applied,
            } => {
                let _ = write!(
                    s,
                    ",\"minute\":{minute},\"func\":{func},\"from\":{from},\"to\":{to},\"source\":\"{}\",\"applied\":{applied}",
                    source.as_str()
                );
            }
            ObsEvent::Evict {
                minute,
                func,
                from,
                source,
                applied,
            } => {
                let _ = write!(
                    s,
                    ",\"minute\":{minute},\"func\":{func},\"from\":{from},\"source\":\"{}\",\"applied\":{applied}",
                    source.as_str()
                );
            }
            ObsEvent::Serve {
                minute,
                func,
                requests,
                cold_starts,
            } => {
                let _ = write!(
                    s,
                    ",\"minute\":{minute},\"func\":{func},\"requests\":{requests},\"cold_starts\":{cold_starts}"
                );
            }
            ObsEvent::Arrival { at_ms, func, warm } => {
                let _ = write!(s, ",\"at_ms\":{at_ms},\"func\":{func},\"warm\":{warm}");
            }
            ObsEvent::Shed { at_ms, func } => {
                let _ = write!(s, ",\"at_ms\":{at_ms},\"func\":{func}");
            }
            ObsEvent::Degrade {
                at_ms,
                func,
                from,
                to,
            } => {
                let _ = write!(
                    s,
                    ",\"at_ms\":{at_ms},\"func\":{func},\"from\":{from},\"to\":{to}"
                );
            }
            ObsEvent::Reap { at_ms, func } => {
                let _ = write!(s, ",\"at_ms\":{at_ms},\"func\":{func}");
            }
            ObsEvent::Watchdog { minute, fallback } => {
                let _ = write!(s, ",\"minute\":{minute},\"fallback\":{fallback}");
            }
            ObsEvent::Bill {
                minute,
                keepalive_mb,
                cost_usd,
            } => {
                let _ = write!(s, ",\"minute\":{minute},\"keepalive_mb\":");
                push_f64(&mut s, *keepalive_mb);
                s.push_str(",\"cost_usd\":");
                push_f64(&mut s, *cost_usd);
            }
            ObsEvent::NodeDown { minute, node, kind } => {
                let _ = write!(
                    s,
                    ",\"minute\":{minute},\"node\":{node},\"kind\":\"{}\"",
                    kind.as_str()
                );
            }
            ObsEvent::NodeRecovered { minute, node } => {
                let _ = write!(s, ",\"minute\":{minute},\"node\":{node}");
            }
            ObsEvent::Migrate {
                minute,
                func,
                from_node,
                to_node,
            } => {
                let _ = write!(
                    s,
                    ",\"minute\":{minute},\"func\":{func},\"from_node\":{from_node},\"to_node\":{to_node}"
                );
            }
            ObsEvent::ServeStart {
                minutes,
                functions,
                mode,
            } => {
                let _ = write!(
                    s,
                    ",\"minutes\":{minutes},\"functions\":{functions},\"mode\":"
                );
                push_json_str(&mut s, mode);
            }
            ObsEvent::ServeBackpressure { at_ms, dropped } => {
                let _ = write!(s, ",\"at_ms\":{at_ms},\"dropped\":{dropped}");
            }
            ObsEvent::ServeTick {
                minute,
                admitted,
                shed,
                queue_depth,
            } => {
                let _ = write!(
                    s,
                    ",\"minute\":{minute},\"admitted\":{admitted},\"shed\":{shed},\"queue_depth\":{queue_depth}"
                );
            }
            ObsEvent::ServeSummary {
                admitted,
                shed,
                p50_decision_ns,
                p99_decision_ns,
                wall_ms,
                rps,
            } => {
                let _ = write!(
                    s,
                    ",\"admitted\":{admitted},\"shed\":{shed},\"p50_decision_ns\":{p50_decision_ns},\"p99_decision_ns\":{p99_decision_ns},\"wall_ms\":{wall_ms},\"rps\":"
                );
                push_f64(&mut s, *rps);
            }
            ObsEvent::JournalEpoch { epoch } => {
                let _ = write!(s, ",\"epoch\":{epoch}");
            }
            ObsEvent::Checkpoint { seq, snapshot } => {
                let _ = write!(s, ",\"seq\":{seq},\"snapshot\":");
                push_json_str(&mut s, snapshot);
            }
        }
        s.push('}');
        s
    }

    /// Parse one JSONL line back into an event — the exact inverse of
    /// [`Self::to_json`] (and tolerant of field reordering).
    pub fn from_json(line: &str) -> Result<Self, ParseError> {
        let fields = Fields(parse_object(line)?);
        match fields.str("type")? {
            "run_start" => Ok(ObsEvent::RunStart {
                label: fields.str("label")?.to_string(),
            }),
            "adjust" => Ok(ObsEvent::Adjust {
                minute: fields.u64("minute")?,
                requested: fields.usize("requested")?,
                applied: fields.usize("applied")?,
                keepalive_mb: fields.f64("keepalive_mb")?,
            }),
            "downgrade" => Ok(ObsEvent::Downgrade {
                minute: fields.u64("minute")?,
                func: fields.usize("func")?,
                from: fields.usize("from")?,
                to: fields.usize("to")?,
                source: ActionSource::parse(fields.str("source")?)?,
                applied: fields.bool("applied")?,
            }),
            "evict" => Ok(ObsEvent::Evict {
                minute: fields.u64("minute")?,
                func: fields.usize("func")?,
                from: fields.usize("from")?,
                source: ActionSource::parse(fields.str("source")?)?,
                applied: fields.bool("applied")?,
            }),
            "serve" => Ok(ObsEvent::Serve {
                minute: fields.u64("minute")?,
                func: fields.usize("func")?,
                requests: fields.u64("requests")?,
                cold_starts: fields.u64("cold_starts")?,
            }),
            "arrival" => Ok(ObsEvent::Arrival {
                at_ms: fields.u64("at_ms")?,
                func: fields.usize("func")?,
                warm: fields.bool("warm")?,
            }),
            "shed" => Ok(ObsEvent::Shed {
                at_ms: fields.u64("at_ms")?,
                func: fields.usize("func")?,
            }),
            "degrade" => Ok(ObsEvent::Degrade {
                at_ms: fields.u64("at_ms")?,
                func: fields.usize("func")?,
                from: fields.usize("from")?,
                to: fields.usize("to")?,
            }),
            "reap" => Ok(ObsEvent::Reap {
                at_ms: fields.u64("at_ms")?,
                func: fields.usize("func")?,
            }),
            "watchdog" => Ok(ObsEvent::Watchdog {
                minute: fields.u64("minute")?,
                fallback: fields.bool("fallback")?,
            }),
            "bill" => Ok(ObsEvent::Bill {
                minute: fields.u64("minute")?,
                keepalive_mb: fields.f64("keepalive_mb")?,
                cost_usd: fields.f64("cost_usd")?,
            }),
            "node_down" => Ok(ObsEvent::NodeDown {
                minute: fields.u64("minute")?,
                node: fields.usize("node")?,
                kind: NodeFaultClass::parse(fields.str("kind")?)?,
            }),
            "node_recovered" => Ok(ObsEvent::NodeRecovered {
                minute: fields.u64("minute")?,
                node: fields.usize("node")?,
            }),
            "migrate" => Ok(ObsEvent::Migrate {
                minute: fields.u64("minute")?,
                func: fields.usize("func")?,
                from_node: fields.usize("from_node")?,
                to_node: fields.usize("to_node")?,
            }),
            "serve_start" => Ok(ObsEvent::ServeStart {
                minutes: fields.u64("minutes")?,
                functions: fields.usize("functions")?,
                mode: fields.str("mode")?.to_string(),
            }),
            "serve_backpressure" => Ok(ObsEvent::ServeBackpressure {
                at_ms: fields.u64("at_ms")?,
                dropped: fields.u64("dropped")?,
            }),
            "serve_tick" => Ok(ObsEvent::ServeTick {
                minute: fields.u64("minute")?,
                admitted: fields.u64("admitted")?,
                shed: fields.u64("shed")?,
                queue_depth: fields.usize("queue_depth")?,
            }),
            "serve_summary" => Ok(ObsEvent::ServeSummary {
                admitted: fields.u64("admitted")?,
                shed: fields.u64("shed")?,
                p50_decision_ns: fields.u64("p50_decision_ns")?,
                p99_decision_ns: fields.u64("p99_decision_ns")?,
                wall_ms: fields.u64("wall_ms")?,
                rps: fields.f64("rps")?,
            }),
            "journal_epoch" => Ok(ObsEvent::JournalEpoch {
                epoch: fields.u64("epoch")?,
            }),
            "checkpoint" => Ok(ObsEvent::Checkpoint {
                seq: fields.u64("seq")?,
                snapshot: fields.str("snapshot")?.to_string(),
            }),
            other => Err(ParseError::new(format!("unknown event type {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expands to `variant_name`, a wildcard-free match over the listed
    /// `ObsEvent` variants, and `VARIANTS`, the same list as strings. A new
    /// variant does not compile until it is listed, and the round-trip test
    /// fails until `exemplars()` reaches its arm.
    macro_rules! every_variant {
        ($($v:ident),+ $(,)?) => {
            const VARIANTS: &[&str] = &[$(stringify!($v)),+];

            fn variant_name(ev: &ObsEvent) -> &'static str {
                match ev {
                    $(ObsEvent::$v { .. } => stringify!($v),)+
                }
            }
        };
    }

    every_variant!(
        RunStart,
        Adjust,
        Downgrade,
        Evict,
        Serve,
        Arrival,
        Shed,
        Degrade,
        Reap,
        Watchdog,
        Bill,
        NodeDown,
        NodeRecovered,
        Migrate,
        ServeStart,
        ServeBackpressure,
        ServeTick,
        ServeSummary,
        JournalEpoch,
        Checkpoint,
    );

    /// One exemplar of every variant (the round-trip test checks that they
    /// reach every arm of `variant_name`).
    fn exemplars() -> Vec<ObsEvent> {
        vec![
            ObsEvent::RunStart {
                label: "chaos/mid/pulse \"q\"\n".to_string(),
            },
            ObsEvent::Adjust {
                minute: 61,
                requested: 3,
                applied: 2,
                keepalive_mb: 1536.25,
            },
            ObsEvent::Downgrade {
                minute: 61,
                func: 4,
                from: 2,
                to: 0,
                source: ActionSource::Policy,
                applied: true,
            },
            ObsEvent::Evict {
                minute: 61,
                func: 7,
                from: 0,
                source: ActionSource::Pressure,
                applied: false,
            },
            ObsEvent::Serve {
                minute: 61,
                func: 4,
                requests: 9,
                cold_starts: 1,
            },
            ObsEvent::Arrival {
                at_ms: 3_660_001,
                func: 4,
                warm: true,
            },
            ObsEvent::Shed {
                at_ms: 3_660_777,
                func: 9,
            },
            ObsEvent::Degrade {
                at_ms: 3_661_000,
                func: 2,
                from: 2,
                to: 1,
            },
            ObsEvent::Reap {
                at_ms: 3_662_000,
                func: 2,
            },
            ObsEvent::Watchdog {
                minute: 62,
                fallback: true,
            },
            ObsEvent::Bill {
                minute: 61,
                keepalive_mb: 0.1 + 0.2,
                cost_usd: 1.234e-5,
            },
            ObsEvent::NodeDown {
                minute: 63,
                node: 2,
                kind: NodeFaultClass::Partition,
            },
            ObsEvent::NodeRecovered {
                minute: 68,
                node: 2,
            },
            ObsEvent::Migrate {
                minute: 64,
                func: 5,
                from_node: 2,
                to_node: 0,
            },
            ObsEvent::ServeStart {
                minutes: 10,
                functions: 12,
                mode: "demo \"open-loop\"".to_string(),
            },
            ObsEvent::ServeBackpressure {
                at_ms: 61_250,
                dropped: 4_096,
            },
            ObsEvent::ServeTick {
                minute: 1,
                admitted: 6_000_000,
                shed: 12_345,
                queue_depth: 42,
            },
            ObsEvent::ServeSummary {
                admitted: 60_000_000,
                shed: 54_321,
                p50_decision_ns: 511,
                p99_decision_ns: 1_023,
                wall_ms: 30_000,
                rps: 198_765.25,
            },
            ObsEvent::JournalEpoch { epoch: 2 },
            ObsEvent::Checkpoint {
                seq: 1,
                snapshot: "{\"type\":\"snapshot\",\"version\":1}\n{\"t\":0.30000000000000004}"
                    .to_string(),
            },
        ]
    }

    #[test]
    fn every_event_round_trips_through_jsonl() {
        let mut reached = Vec::new();
        for ev in exemplars() {
            let line = ev.to_json();
            let back = ObsEvent::from_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, ev, "{line}");
            reached.push(variant_name(&ev));
        }
        let missing: Vec<_> = VARIANTS.iter().filter(|v| !reached.contains(v)).collect();
        assert!(
            missing.is_empty(),
            "variants without an exemplar: {missing:?}"
        );
    }

    #[test]
    fn kinds_are_unique_and_stable() {
        let kinds: Vec<&str> = exemplars().iter().map(ObsEvent::kind).collect();
        let mut dedup = kinds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), kinds.len(), "duplicate type discriminator");
        assert!(kinds.contains(&"downgrade"));
        assert!(kinds.contains(&"evict"));
    }

    #[test]
    fn parser_accepts_reordered_fields() {
        let ev = ObsEvent::from_json(
            r#"{"func":4,"applied":true,"minute":61,"source":"policy","to":0,"from":2,"type":"downgrade"}"#,
        )
        .unwrap();
        assert_eq!(
            ev,
            ObsEvent::Downgrade {
                minute: 61,
                func: 4,
                from: 2,
                to: 0,
                source: ActionSource::Policy,
                applied: true,
            }
        );
    }

    #[test]
    fn every_action_source_round_trips_by_name() {
        for (source, name) in [
            (ActionSource::Policy, "policy"),
            (ActionSource::Pressure, "pressure"),
            (ActionSource::NodeLoss, "node_loss"),
        ] {
            let ev = ObsEvent::Evict {
                minute: 2,
                func: 1,
                from: 0,
                source,
                applied: true,
            };
            let line = ev.to_json();
            assert!(line.contains(&format!("\"source\":\"{name}\"")), "{line}");
            assert_eq!(ObsEvent::from_json(&line).unwrap(), ev);
        }
    }

    #[test]
    fn unknown_type_and_bad_source_are_rejected() {
        assert!(ObsEvent::from_json(r#"{"type":"nope"}"#).is_err());
        assert!(ObsEvent::from_json(
            r#"{"type":"evict","minute":1,"func":0,"from":0,"source":"gremlin","applied":true}"#
        )
        .is_err());
    }

    #[test]
    fn non_finite_bill_parses_back_as_nan() {
        let ev = ObsEvent::Bill {
            minute: 5,
            keepalive_mb: f64::INFINITY,
            cost_usd: 0.0,
        };
        let line = ev.to_json();
        match ObsEvent::from_json(&line).unwrap() {
            ObsEvent::Bill { keepalive_mb, .. } => assert!(keepalive_mb.is_nan()),
            other => panic!("wrong variant {other:?}"),
        }
    }
}
