//! # pulse-trace — serverless invocation traces for PULSE
//!
//! The paper drives its evaluation with the Microsoft Azure Functions
//! production trace (Shahrad et al., ATC'20): two weeks of per-minute
//! invocation counts, from which it selects the inter-arrival patterns of 12
//! functions. That trace is licensed Microsoft data we cannot vendor, so this
//! crate provides:
//!
//! * [`trace`] — the in-memory representation: per-function, per-minute
//!   invocation counts over a common horizon;
//! * [`csv`] — parsing/serialization of the Azure day-file schema
//!   (`HashOwner,HashApp,HashFunction,Trigger,1,…,1440`), so the real trace
//!   can be dropped in when available;
//! * [`synth`] — a calibrated synthetic generator reproducing the statistical
//!   archetypes the paper's Figures 1–2 illustrate (steady periodic, bursty,
//!   diurnal, nocturnal, drifting-period, heavy-tailed, Poisson, on/off) and
//!   [`synth::azure_like_12`], the 12-function two-week workload with two
//!   engineered global invocation peaks (the paper's Peak I / Peak II);
//! * [`interarrival`] — the gap-percentage analysis behind Figures 1 and 2;
//! * [`peaks`] — cumulative-invocation peak finding behind Tables II and III.
//!
//! ```
//! use pulse_trace::synth;
//! use pulse_trace::peaks;
//!
//! let trace = synth::azure_like_12(42);
//! assert_eq!(trace.n_functions(), 12);
//! assert_eq!(trace.minutes(), 14 * 24 * 60);
//!
//! // The workload has two prominent global peaks.
//! let totals = peaks::total_per_minute(&trace);
//! let top = peaks::top_peaks(&totals, 2, 60);
//! assert_eq!(top.len(), 2);
//! ```

pub mod characterize;
pub mod csv;
pub mod interarrival;
pub mod peaks;
pub mod scale;
pub mod synth;
pub mod trace;

pub use trace::{FunctionTrace, Trace};

/// Minutes in one day.
pub const MINUTES_PER_DAY: usize = 24 * 60;
/// Length of the paper's evaluation horizon: two weeks.
pub const TWO_WEEKS_MINUTES: usize = 14 * MINUTES_PER_DAY;
