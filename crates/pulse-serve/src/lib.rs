//! Online real-time serving for PULSE.
//!
//! The paper's economics only matter if the keep-alive/downgrade decision
//! loop is fast enough to sit on a live request path. This crate promotes
//! the event-driven engine (`pulse-runtime`) into exactly that: a serving
//! front door that admits a live request stream through a bounded channel,
//! drives [`pulse_runtime::RuntimeSession::step`] online, and applies the
//! engine's own admission control as genuine backpressure — arrivals are
//! shed at the front door or at admission, never queued unbounded.
//!
//! Three layers, three modules:
//!
//! * [`loadgen`] — deterministic open-loop load generation (seeded
//!   Poisson, bursty on/off, and Hawkes-like self-exciting arrivals,
//!   reusing the pulse-trace archetypes), expanded to millisecond arrivals
//!   with the runtime's own trace expansion so replays are bit-exact;
//! * [`engine`] — the transport/policy split: a bounded
//!   `sync_channel` front door feeding a [`pulse_runtime::RuntimeSession`],
//!   with wall-clock decision latency sampled (one arrival step in 16,
//!   weighted so the count stays exact) into pulse-obs histograms.
//!   [`engine::replay`] runs the same stream on the simulated clock,
//!   bit-identical to a finished `Runtime::session` on the binned trace;
//! * [`demo`] — the single-box throughput demo behind
//!   `pulse-exp serve --demo`.

pub mod demo;
pub mod engine;
pub mod loadgen;

pub use demo::{run_demo, DemoConfig};
pub use engine::{replay, serve_live, LiveOptions, ServeConfig, ServeReport};
pub use loadgen::{Arrival, ArrivalStream, LoadGenConfig, LoadMode};
