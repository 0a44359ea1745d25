//! Cluster-level robustness configuration: node capacity and admission
//! control.
//!
//! The fault layer ([`crate::fault`]) makes individual operations fail; this
//! module makes the *node itself* finite. Two independent knobs, both off by
//! default ([`ClusterConfig::unlimited`] — bit-identical to running without
//! a cluster layer):
//!
//! * [`NodeCapacity`] — a hard cap on total kept-alive memory. When a
//!   policy's plan exceeds it at a minute tick, the runtime flattens the
//!   overage with Algorithm 2's utility-ordered downgrade loop (the same
//!   `Uv` machinery PULSE uses for peaks), emitting
//!   [`OpsEvent::PressureDowngrade`]/[`OpsEvent::Evicted`] instead of
//!   failing provisioning;
//! * [`AdmissionControl`] — a bound on the global pending queue (requests
//!   waiting for provisioning or a concurrency slot). Arrivals that cannot
//!   start immediately once the backlog is full are shed with
//!   [`OpsEvent::Overloaded`] instead of queueing forever.
//!
//! [`OpsEvent`] also records the policy watchdog's fallback transitions
//! (see `pulse_sim::watchdog`), giving one ordered operational log per run
//! in `RuntimeSummary::ops_events`.

use pulse_models::VariantId;

/// Megabytes per gigabyte (keep-alive footprints are tracked in MB).
const MB_PER_GB: f64 = 1024.0;

/// Per-node keep-alive memory capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCapacity {
    /// Hard cap on total kept-alive memory, MB; `None` = unlimited (the
    /// infinitely large node every prior experiment assumed).
    pub keepalive_mb: Option<f64>,
}

impl NodeCapacity {
    /// No cap.
    pub fn unlimited() -> Self {
        Self { keepalive_mb: None }
    }

    /// Cap at `mb` megabytes.
    pub fn mb(mb: f64) -> Self {
        Self {
            keepalive_mb: Some(mb),
        }
    }

    /// Cap at `gb` gigabytes (the unit operators size nodes in).
    pub fn gb(gb: f64) -> Self {
        Self::mb(gb * MB_PER_GB)
    }
}

impl Default for NodeCapacity {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// Global admission control for the pending queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionControl {
    /// Max requests waiting (for provisioning or a concurrency slot) across
    /// all functions before new arrivals are shed; `None` = unbounded.
    pub max_pending: Option<usize>,
}

impl AdmissionControl {
    /// No backlog limit.
    pub fn unbounded() -> Self {
        Self { max_pending: None }
    }

    /// Shed arrivals once `max_pending` requests are already waiting.
    pub fn bounded(max_pending: usize) -> Self {
        Self {
            max_pending: Some(max_pending),
        }
    }
}

impl Default for AdmissionControl {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// The cluster-level robustness knobs, combined.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClusterConfig {
    /// Keep-alive memory cap.
    pub capacity: NodeCapacity,
    /// Pending-queue bound.
    pub admission: AdmissionControl,
}

impl ClusterConfig {
    /// Unlimited capacity and unbounded admission: neither knob ever acts,
    /// so a session under this configuration is the plain single-node run.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// True when neither knob can ever act.
    pub fn is_unlimited(&self) -> bool {
        self.capacity.keepalive_mb.is_none() && self.admission.max_pending.is_none()
    }
}

/// One operational event logged by the robustness layer, in event order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpsEvent {
    /// Capacity pressure downgraded a kept-alive model one rung.
    PressureDowngrade {
        /// Minute tick at which the enforcer ran.
        minute: u64,
        /// Affected function.
        func: usize,
        /// Variant before the downgrade.
        from: VariantId,
        /// Variant after the downgrade.
        to: VariantId,
    },
    /// Capacity pressure evicted a kept-alive model entirely.
    Evicted {
        /// Minute tick at which the enforcer ran.
        minute: u64,
        /// Affected function.
        func: usize,
        /// Variant that was evicted.
        from: VariantId,
    },
    /// An arrival was shed by admission control.
    Overloaded {
        /// Arrival time, ms.
        at_ms: u64,
        /// The function the request targeted.
        func: usize,
        /// The shed request's index in `RuntimeSummary::records`.
        req: usize,
    },
    /// The policy watchdog switched to its safe fallback.
    WatchdogFallback {
        /// Minute tick at which the switch was observed.
        minute: u64,
    },
    /// The policy watchdog recovered to the inner policy.
    WatchdogRecover {
        /// Minute tick at which the recovery was observed.
        minute: u64,
    },
    /// A node-level fault struck (fleet runs only).
    NodeDown {
        /// Minute at which the fault struck.
        minute: u64,
        /// Affected node.
        node: usize,
        /// What kind of fault.
        kind: crate::node::NodeFaultKind,
    },
    /// A node healed fully (no fault window covers it anymore).
    NodeRecovered {
        /// Minute at which the node came back up.
        minute: u64,
        /// Affected node.
        node: usize,
    },
    /// The rebalancer migrated a warm container between nodes.
    Migrated {
        /// Minute tick at which the rebalancer ran.
        minute: u64,
        /// Owning function.
        func: usize,
        /// Source node.
        from_node: usize,
        /// Destination node.
        to_node: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_is_the_default_and_inert() {
        let c = ClusterConfig::default();
        assert!(c.is_unlimited());
        assert_eq!(c, ClusterConfig::unlimited());
        assert_eq!(c.capacity, NodeCapacity::unlimited());
        assert_eq!(c.admission, AdmissionControl::unbounded());
    }

    #[test]
    fn gb_converts_to_mb() {
        let c = NodeCapacity::gb(8.0);
        assert_eq!(c.keepalive_mb, Some(8192.0));
        assert_eq!(NodeCapacity::mb(512.0).keepalive_mb, Some(512.0));
    }

    #[test]
    fn any_knob_makes_it_limited() {
        let capped = ClusterConfig {
            capacity: NodeCapacity::gb(4.0),
            ..ClusterConfig::unlimited()
        };
        assert!(!capped.is_unlimited());
        let bounded = ClusterConfig {
            admission: AdmissionControl::bounded(64),
            ..ClusterConfig::unlimited()
        };
        assert!(!bounded.is_unlimited());
        assert_eq!(bounded.admission.max_pending, Some(64));
    }
}
