//! # pulse-runtime — an event-driven container-runtime simulator
//!
//! The paper's experimental platform is real: Docker images in ECR executed
//! by AWS Lambda, with cold starts measured via a memory-resize trick. The
//! reproduction's primary engine (`pulse-sim`) abstracts that platform at
//! *minute* resolution — the resolution PULSE itself operates at. This crate
//! provides the layer below: a **millisecond-resolution, event-driven
//! container runtime** with an explicit container lifecycle
//!
//! ```text
//! Provisioning ──► Loading ──► Warm ⇄ Executing ──► Reaped
//! ```
//!
//! request queueing with configurable per-container concurrency, proactive
//! variant swaps at minute boundaries, and GB-millisecond billing.
//!
//! Its purpose is two-fold:
//!
//! 1. **Validation** — driving the *same* keep-alive policy over the same
//!    trace through both engines and checking that warm/cold counts agree
//!    exactly and costs agree to within minute-boundary rounding. This is
//!    the evidence that the minute-level abstraction used for all paper
//!    experiments is sound (see `pulse-exp validate`).
//! 2. **Fidelity experiments** the minute engine cannot express: queueing
//!    delay under bounded container concurrency, sub-minute latency
//!    percentiles, cold-start tail behaviour.
//! 3. **Resilience experiments** — a seeded, deterministic fault-injection
//!    layer ([`fault`]) with retry/backoff, per-request SLO timeouts, and
//!    graceful ladder degradation (the `FaultPlan` argument of
//!    `Runtime::session`; see `pulse-exp chaos`).
//! 4. **Overload-robustness experiments** — a cluster layer ([`cluster`])
//!    with a hard per-node keep-alive memory cap (overage flattened by
//!    utility-ordered pressure downgrades), bounded-backlog admission
//!    control (excess arrivals shed, not queued forever), and support for
//!    the `pulse_sim::watchdog` policy fallback (a `ClusterConfig` passed to
//!    `Runtime::session`; see `pulse-exp overload`).
//! 5. **Fleet-robustness experiments** — a multi-node generalization
//!    ([`fleet`] + [`node`]): nodes with their own keep-alive caps behind a
//!    headroom-ranked global placer, deterministic node-level faults (crash /
//!    straggler / partition with heal times), warm-container migration off
//!    pressured nodes, and global admission (a `FleetConfig` passed to
//!    `Runtime::session`; see `pulse-exp fleet`). A 1-node fleet with no
//!    node faults is bit-identical to the equivalent `ClusterConfig` run.
//!
//! ```
//! use pulse_runtime::{Runtime, RuntimeConfig};
//! use pulse_sim::policies::OpenWhiskFixed;
//! use pulse_sim::assignment::round_robin_assignment;
//!
//! let trace = pulse_trace::synth::azure_like_12_with_horizon(7, 240);
//! let fams = round_robin_assignment(&pulse_models::zoo::standard(), trace.n_functions());
//! let runtime = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
//! let summary = runtime.run(&mut OpenWhiskFixed::new(&fams));
//! assert!(summary.requests() > 0);
//! assert!(summary.latency_p50_ms() > 0.0);
//! ```

pub mod cluster;
pub mod container;
pub mod event;
pub mod fault;
pub mod fleet;
pub mod metrics;
pub mod node;
pub mod runtime;

pub use cluster::{AdmissionControl, ClusterConfig, NodeCapacity};
pub use container::{ContainerState, LiveContainer};
pub use event::{Event, EventQueue};
pub use fault::{FaultInjector, FaultPlan, FaultRates};
pub use fleet::FleetConfig;
pub use metrics::{NodeSummary, RequestRecord, RuntimeSummary};
pub use node::{NodeFault, NodeFaultKind, NodeFaultPlan, NodeHealth, NodeSpec};
pub use runtime::{arrival_times_in_minute, Runtime, RuntimeConfig, RuntimeSession};

/// Milliseconds per simulated minute.
pub const MS_PER_MINUTE: u64 = 60_000;
