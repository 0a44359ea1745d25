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
//!   `ObsEvent::Downgrade`/`ObsEvent::Evict` instead of failing
//!   provisioning;
//! * [`AdmissionControl`] — a bound on the global pending queue (requests
//!   waiting for provisioning or a concurrency slot). Arrivals that cannot
//!   start immediately once the backlog is full are shed with
//!   `ObsEvent::Shed` instead of queueing forever.
//!
//! Each action is counted in the `RuntimeSummary` and emitted once to the
//! session's trace sink, alongside the policy watchdog's switches (see
//! `pulse_sim::watchdog`): the `ObsEvent` stream is the run's one event log.

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_is_the_default_and_inert() {
        let c = ClusterConfig::default();
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
}
