//! # pulse-sim — a minute-resolution serverless keep-alive simulator
//!
//! The paper evaluates PULSE with a trace-driven simulation of a serverless
//! platform: functions receive invocations from a two-week trace, containers
//! hosting ML model variants are kept alive according to a policy, and the
//! platform accounts service time (cold vs warm), keep-alive memory and cost,
//! and delivered accuracy. This crate is that platform.
//!
//! ## Simulation semantics
//!
//! Time advances in one-minute steps over a [`pulse_trace::Trace`]. Each
//! function is assigned one model family. Per minute `t`:
//!
//! 1. Containers alive at `t` follow each function's current keep-alive
//!    schedule (produced by the policy after each invocation).
//! 2. The policy may *adjust* the minute (cross-function optimization): it
//!    sees the keep-alive memory history and the alive set and returns
//!    downgrade/evict actions, which persist for the remainder of each
//!    affected schedule.
//! 3. Invocations at `t` are served: if the function has an alive container,
//!    every invocation that minute is a warm start on the alive variant;
//!    otherwise the first invocation cold-starts the policy's chosen variant
//!    and subsequent same-minute invocations reuse it warm. Each invocation
//!    is then reported to the policy, which returns a fresh keep-alive
//!    schedule for the following window.
//! 4. Keep-alive memory at `t` is the sum of alive-container footprints
//!    (after adjustments); it drives the cost meter and the policy's peak
//!    detection. Execution (in-use) memory of cold starts is *not* counted
//!    as keep-alive — it cannot be reclaimed by a downgrade.
//!
//! ## Layout
//!
//! * [`metrics`] — per-run accounting: service time, keep-alive cost,
//!   accuracy, warm/cold starts, per-minute memory and cost series;
//! * [`policy`] — the [`policy::KeepAlivePolicy`] trait;
//! * [`policies`] — OpenWhisk fixed 10-minute, fixed-variant (all-high /
//!   all-low), random mixing, the intelligent oracle (Tables II/III), the
//!   ideal oracle (Figure 6b), and PULSE itself (with and without the global
//!   optimizer, for Figure 4);
//! * [`engine`] — the minute loop;
//! * [`assignment`] — randomized model-to-function assignment (the paper's
//!   1000-run methodology);
//! * [`runner`] — a crossbeam-parallel many-run harness with streaming
//!   mean/σ aggregation;
//! * [`watchdog`] — a guardrailed wrapper over any policy that falls back to
//!   the fixed 10-minute baseline (with hysteresis) when the policy's
//!   SLO-violation rate goes bad;
//! * [`recover`] — crash-consistent checkpointing by deterministic replay:
//!   a checkpoint is a versioned header of input fingerprints and a cursor
//!   ([`SimSession::snapshot`] / [`Simulator::restore`]), with typed
//!   soft-failure errors, shared with the event-driven runtime.

pub mod assignment;
pub mod engine;
pub mod metrics;
pub mod policies;
pub mod policy;
pub mod recover;
pub mod runner;
pub mod watchdog;

pub use engine::{PlanState, SimSession, Simulator};
pub use metrics::RunMetrics;
pub use policy::{KeepAlivePolicy, MinuteObservation};
pub use recover::{RecoverError, SNAPSHOT_VERSION};
pub use watchdog::{Watchdog, WatchdogConfig};
