//! # pulse-obs — structured observability for the PULSE engines
//!
//! A dependency-free tracing and metrics layer shared by the minute-engine
//! (`pulse-sim`) and the event-driven runtime (`pulse-runtime`):
//!
//! * [`TraceSink`] — the event consumer contract, with [`NullSink`] (the
//!   zero-cost default), [`JsonlSink`] (structured JSON Lines over any
//!   `io::Write`), and [`MemorySink`] (typed in-memory capture for tests
//!   and programmatic consumers);
//! * [`ObsEvent`] — the typed taxonomy both engines emit: adjust, serve,
//!   bill, downgrade, evict, shed, degrade, reap, watchdog transitions, and
//!   the fleet lifecycle (node down/recovered, container migration), each
//!   timestamped in monotonic *simulation* time (never wall clock —
//!   `clippy.toml` disallows the clock APIs);
//! * [`CounterRegistry`] / [`HistogramRegistry`] — cheap named metrics with
//!   commutative [`CounterRegistry::merge`], built for per-worker
//!   aggregation in the parallel campaign runner;
//! * [`JournalSink`] / [`replay_journal`] — the write-ahead journal for
//!   crash-consistent checkpointing: epoch headers, embedded snapshot
//!   records ([`RecordBuilder`]/[`Record`] is the open-schema flat-record
//!   codec snapshots are written in), torn-tail-tolerant replay, and
//!   [`first_divergence`] for pinpointing replay mismatches.
//!
//! The crate is deliberately free of dependencies (not even the vendored
//! stand-ins): the sink check sits on every engine hot path, and the JSONL
//! schema is hand-rolled so [`ObsEvent::to_json`]/[`ObsEvent::from_json`]
//! round-trip without a serializer (the vendored `serde` is an inert
//! marker-trait stand-in).
//!
//! ## Example
//!
//! ```
//! use pulse_obs::{JsonlSink, ObsEvent, TraceSink};
//!
//! let mut sink = JsonlSink::new(Vec::new());
//! sink.record(&ObsEvent::Bill { minute: 7, keepalive_mb: 512.0, cost_usd: 4.2e-5 });
//! let text = String::from_utf8(sink.into_inner()).unwrap();
//! let back = ObsEvent::from_json(text.lines().next().unwrap()).unwrap();
//! assert_eq!(back.kind(), "bill");
//! ```

mod event;
mod journal;
mod json;
mod record;
mod registry;
mod sink;

pub use event::{ActionSource, NodeFaultClass, ObsEvent};
pub use journal::{
    first_divergence, replay_journal, Divergence, JournalError, JournalReplay, JournalSink,
};
pub use json::ParseError;
pub use record::{Record, RecordBuilder};
pub use registry::{CounterId, CounterRegistry, Histogram, HistogramId, HistogramRegistry};
pub use sink::{emit, JsonlSink, MemorySink, NullSink, TraceSink};
