//! # pulse-core — the PULSE keep-alive policy
//!
//! This crate implements the paper's primary contribution: a dynamic
//! 10-minute keep-alive mechanism that mixes *quality variants* of ML models
//! to balance keep-alive cost, accuracy and service time, in two layers:
//!
//! 1. **Individual (function-centric) optimization** ([`individual`],
//!    [`interarrival`], [`types::SchemeKind`]): per function, the probability of each
//!    inter-arrival gap (1–10 minutes) is estimated over a sliding *local
//!    window* and over the full history, averaged, and mapped through greedy
//!    probability thresholds to a per-minute variant schedule for the
//!    keep-alive window. High invocation probability ⇒ keep the
//!    high-accuracy variant warm; low probability ⇒ the cheap variant.
//!
//! 2. **Cross-function (global) optimization** ([`peak`], [`priority`],
//!    [`utility`], [`global`]): every minute, Algorithm 1 compares current
//!    keep-alive memory against a *prior* keep-alive memory (robust to
//!    periods of inactivity); when a peak is detected, Algorithm 2 repeatedly
//!    downgrades the kept-alive model with the lowest utility value
//!    `Uv = Ai + Pr + Ip` — accuracy improvement, normalized downgrade
//!    priority (Equation 1), invocation probability — until the peak is
//!    flattened.
//!
//! The [`engine::PulseEngine`] ties both layers together behind a small API
//! that the `pulse-sim` simulator (or a real platform shim) drives:
//! [`engine::PulseEngine::record_invocation`] feeds an arrival,
//! [`engine::PulseEngine::schedule_after_invocation`] returns the variant
//! schedule for the window that follows, and
//! [`engine::PulseEngine::flatten_minute`] returns the downgrade actions for
//! the current minute when Algorithm 1 flags a peak. These are the only
//! planner ([`engine::PulseEngine::plan_window`]) and the only peak step
//! ([`engine::PulseEngine::peak_step`]) that every PULSE policy shares.
//!
//! ```
//! use pulse_core::{engine::PulseEngine, PulseConfig};
//! use pulse_models::zoo;
//!
//! // Two functions, each assigned a model family.
//! let mut engine = PulseEngine::new(vec![zoo::gpt(), zoo::bert()], PulseConfig::default());
//!
//! // A function with a tight 2-minute cadence...
//! for t in [0u64, 2, 4, 6, 8, 10] {
//!     engine.record_invocation(0, t);
//! }
//! let schedule = engine.schedule_after_invocation(0, 10);
//! // ...gets its high-accuracy variant warmed at the 2-minute mark.
//! assert!(schedule.variant_at_offset(2).unwrap() > 0);
//! ```

// pulse-core bans raw `as` casts (checked conversions live in `convert`)
// and, on top of the workspace `missing_docs`, flags `pub` items that are
// not reachable from the crate root, which `missing_docs` does not see.
#![warn(clippy::as_conversions, unreachable_pub)]

mod convert;

pub mod engine;
pub mod global;
pub mod individual;
pub mod interarrival;
pub mod peak;
pub mod priority;
pub mod probability;
pub mod schedule;
pub mod types;
pub mod utility;

pub use engine::{Peak, PulseEngine, PulseInitError};
pub use individual::KeepAliveSchedule;
pub use interarrival::{GapProbabilities, InterArrivalModel};
pub use peak::PeakDetector;
pub use priority::PriorityStructure;
pub use probability::{Probability, ProbabilityError};
pub use schedule::{MinuteFootprint, ScheduleLedger, Slot};
pub use types::{ConfigError, FuncId, Minute, PulseConfig};
pub use utility::utility_value;
