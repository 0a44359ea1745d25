//! # pulse — mixed-quality ML model variants for cheap serverless keep-alive
//!
//! A production-quality Rust reproduction of **PULSE: Using Mixed-Quality
//! Models for Reducing Serverless Keep-Alive Cost** (SC-W 2024). PULSE
//! replaces the industry-standard fixed 10-minute keep-alive with a dynamic
//! scheme that keeps *cheaper quality variants* of an ML model warm when the
//! invocation probability is low and the expensive high-accuracy variant
//! warm only at the minutes an invocation is likely — plus a utility-driven
//! cross-function downgrade mechanism that flattens keep-alive memory peaks.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] ([`pulse_core`]) — the policy: inter-arrival probability
//!   model, threshold schemes, Algorithm 1 peak detection, Algorithm 2
//!   utility downgrades, and the shared schedule ledger (typed
//!   `Slot`s, footprint/billing queries, the downgrade write path);
//! * [`models`] ([`pulse_models`]) — the model zoo (BERT/YOLO/GPT/ResNet/
//!   DenseNet variants calibrated to the paper's Table I), cost model,
//!   profiler;
//! * [`trace`] ([`pulse_trace`]) — Azure-schema traces and the synthetic
//!   12-function two-week workload;
//! * [`sim`] ([`pulse_sim`]) — the minute-resolution serverless simulator
//!   and the baseline policies;
//! * [`forecast`] ([`pulse_forecast`]) — Serverless-in-the-Wild and
//!   IceBreaker, standalone and PULSE-integrated;
//! * [`obs`] ([`pulse_obs`]) — structured observability: trace sinks
//!   (JSONL event streams over simulated time), counters and histograms,
//!   all guaranteed not to perturb results;
//! * [`milp`] ([`pulse_milp`]) — the from-scratch simplex + branch-and-bound
//!   MILP baseline.
//!
//! ## Quickstart
//!
//! ```
//! use pulse::prelude::*;
//!
//! // A one-day, 12-function Azure-like workload and a model assignment.
//! let trace = pulse::trace::synth::azure_like_12_with_horizon(7, 1440);
//! let families = pulse::sim::assignment::round_robin_assignment(
//!     &pulse::models::zoo::standard(),
//!     trace.n_functions(),
//! );
//!
//! // Simulate OpenWhisk's fixed policy vs PULSE.
//! let sim = Simulator::new(trace, families.clone());
//! let fixed = sim.run(&mut OpenWhiskFixed::new(&families));
//! let pulse = sim.run(&mut PulsePolicy::new(families, PulseConfig::default()));
//!
//! assert!(pulse.keepalive_cost_usd < fixed.keepalive_cost_usd);
//! ```

pub use pulse_core as core;
pub use pulse_forecast as forecast;
pub use pulse_milp as milp;
pub use pulse_models as models;
pub use pulse_obs as obs;
pub use pulse_runtime as runtime;
pub use pulse_sim as sim;
pub use pulse_trace as trace;

/// The names most programs need, in one import.
pub mod prelude {
    pub use pulse_core::{PulseConfig, PulseEngine, ScheduleLedger, Slot};
    pub use pulse_models::{CostModel, ModelFamily, VariantSpec};
    pub use pulse_obs::{JsonlSink, MemorySink, NullSink, ObsEvent, TraceSink};
    pub use pulse_runtime::{
        AdmissionControl, ClusterConfig, FaultPlan, FaultRates, FleetConfig, NodeCapacity,
        NodeFault, NodeFaultKind, NodeFaultPlan, NodeHealth, NodeSpec, NodeSummary, Runtime,
        RuntimeConfig,
    };
    pub use pulse_sim::policies::{
        FixedVariant, IdealOracle, IntelligentOracle, OpenWhiskFixed, PulsePolicy, RandomMix,
    };
    pub use pulse_sim::{KeepAlivePolicy, RunMetrics, Simulator, Watchdog, WatchdogConfig};
    pub use pulse_trace::{FunctionTrace, Trace};
}
