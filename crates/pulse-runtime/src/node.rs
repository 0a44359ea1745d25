//! Node modeling for the fleet layer: node specs, health, and a
//! deterministic node-level fault plan.
//!
//! A [`NodeSpec`] describes one machine of the fleet: a name and its
//! keep-alive capacity. Every node runs at the nominal speed and price the
//! single-node engine assumes, so nodes differ only in how much memory they
//! can keep alive and in the faults that strike them.
//!
//! The [`NodeFaultPlan`] is the fleet-level analogue of
//! [`crate::fault::FaultPlan`], but deliberately *pure data*: every fault is
//! an explicit `(node, kind, at_minute, duration_minutes)` row, so a plan
//! consumes no randomness at run time and replays bit-identically. The
//! generators ([`NodeFaultPlan::rolling_crashes`],
//! [`NodeFaultPlan::correlated_outage`], [`NodeFaultPlan::stragglers`])
//! produce the scenario shapes the `pulse-exp fleet` sweep uses.

/// One node of a fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Display name (used in per-node summaries and the fleet sweep).
    pub name: String,
    /// Keep-alive memory cap of this node.
    pub capacity: crate::cluster::NodeCapacity,
}

impl NodeSpec {
    /// A node with the given capacity — the shape a `ClusterConfig`
    /// converts to, and therefore the shape whose behavior is bit-identical
    /// to the single-node engine.
    pub fn nominal(name: impl Into<String>, capacity: crate::cluster::NodeCapacity) -> Self {
        Self {
            name: name.into(),
            capacity,
        }
    }
}

/// What kind of node-level fault strikes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeFaultKind {
    /// The node dies: warm containers are reaped, in-flight executions
    /// abort and re-dispatch through the retry ladder.
    Crash,
    /// Straggler: the node stays up but every execution/provisioning
    /// duration is multiplied by `slowdown`.
    Degraded {
        /// Duration multiplier while the fault is active (`> 1.0` = slower).
        slowdown: f64,
    },
    /// The node is unreachable for new work: in-flight executions run to
    /// completion, but containers cannot accept further requests and new
    /// placements avoid the node.
    Partition,
}

impl NodeFaultKind {
    /// Severity order used when overlapping faults cover the same minute:
    /// a crash dominates a partition dominates a straggler.
    fn severity(self) -> u8 {
        match self {
            NodeFaultKind::Crash => 3,
            NodeFaultKind::Partition => 2,
            NodeFaultKind::Degraded { .. } => 1,
        }
    }
}

/// One scheduled node-level fault window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFault {
    /// Target node index.
    pub node: usize,
    /// What happens.
    pub kind: NodeFaultKind,
    /// Minute at which the fault strikes (applied right after that minute's
    /// tick pipeline, before its arrivals).
    pub at_minute: u64,
    /// How many minutes the fault lasts; the node heals at
    /// `at_minute + duration_minutes`.
    pub duration_minutes: u64,
}

impl NodeFault {
    /// Is this fault active at `minute`?
    pub fn active_at(&self, minute: u64) -> bool {
        minute >= self.at_minute && minute < self.at_minute.saturating_add(self.duration_minutes)
    }
}

/// A deterministic schedule of node-level faults — pure data, no RNG.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeFaultPlan {
    /// Fault windows, in the order they were added.
    pub faults: Vec<NodeFault>,
}

impl NodeFaultPlan {
    /// No node faults ever: the fleet behaves like N reliable nodes.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no fault can ever strike.
    pub fn is_none(&self) -> bool {
        self.faults.is_empty()
    }

    /// Builder: append one fault window.
    pub fn with(mut self, fault: NodeFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Rolling single-node crashes: node `k` crashes for `down_minutes`
    /// starting at `first_at + k * period`, then the pattern repeats across
    /// the fleet every `n_nodes * period` minutes until `horizon_minutes`.
    pub fn rolling_crashes(
        n_nodes: usize,
        first_at: u64,
        down_minutes: u64,
        period: u64,
        horizon_minutes: u64,
    ) -> Self {
        let mut plan = Self::none();
        if n_nodes == 0 || period == 0 {
            return plan;
        }
        let mut at = first_at;
        let mut node = 0usize;
        while at < horizon_minutes {
            plan.faults.push(NodeFault {
                node,
                kind: NodeFaultKind::Crash,
                at_minute: at,
                duration_minutes: down_minutes.max(1),
            });
            node = (node + 1) % n_nodes;
            at += period;
        }
        plan
    }

    /// A correlated outage (AZ failure): every listed node is partitioned at
    /// the same minute for the same duration.
    pub fn correlated_outage(nodes: &[usize], at_minute: u64, duration_minutes: u64) -> Self {
        let mut plan = Self::none();
        for &node in nodes {
            plan.faults.push(NodeFault {
                node,
                kind: NodeFaultKind::Partition,
                at_minute,
                duration_minutes: duration_minutes.max(1),
            });
        }
        plan
    }

    /// Rotating stragglers: node `k` degrades (durations × `slowdown`) for
    /// `slow_minutes` starting at `first_at + k * period`, repeating across
    /// the fleet until `horizon_minutes`.
    pub fn stragglers(
        n_nodes: usize,
        first_at: u64,
        slow_minutes: u64,
        period: u64,
        slowdown: f64,
        horizon_minutes: u64,
    ) -> Self {
        let mut plan = Self::none();
        if n_nodes == 0 || period == 0 {
            return plan;
        }
        let mut at = first_at;
        let mut node = 0usize;
        while at < horizon_minutes {
            plan.faults.push(NodeFault {
                node,
                kind: NodeFaultKind::Degraded { slowdown },
                at_minute: at,
                duration_minutes: slow_minutes.max(1),
            });
            node = (node + 1) % n_nodes;
            at += period;
        }
        plan
    }

    /// The strongest fault kind covering `(node, minute)`, or `None` when
    /// the node is healthy there. Overlapping windows resolve by severity
    /// (crash > partition > degraded), ties by earliest start.
    pub fn active_kind(&self, node: usize, minute: u64) -> Option<NodeFaultKind> {
        self.faults
            .iter()
            .filter(|f| f.node == node && f.active_at(minute))
            .max_by_key(|f| (f.kind.severity(), std::cmp::Reverse(f.at_minute)))
            .map(|f| f.kind)
    }
}

/// Live health of one node, derived from the fault plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeHealth {
    /// Healthy: accepts placements, runs at nominal speed.
    Up,
    /// Straggling: accepts placements, durations multiplied by `slowdown`.
    Degraded {
        /// Active duration multiplier.
        slowdown: f64,
    },
    /// Crashed: containers reaped, no placements.
    Crashed,
    /// Partitioned: unreachable for new work, in-flight work completes.
    Partitioned,
}

impl NodeHealth {
    /// Health implied by an active fault kind (or its absence).
    pub fn from_active(kind: Option<NodeFaultKind>) -> Self {
        match kind {
            None => NodeHealth::Up,
            Some(NodeFaultKind::Crash) => NodeHealth::Crashed,
            Some(NodeFaultKind::Partition) => NodeHealth::Partitioned,
            Some(NodeFaultKind::Degraded { slowdown }) => NodeHealth::Degraded { slowdown },
        }
    }

    /// Can the node accept new placements and executions?
    pub fn accepts_work(&self) -> bool {
        matches!(self, NodeHealth::Up | NodeHealth::Degraded { .. })
    }

    /// Duration multiplier currently in force (`1.0` unless degraded).
    pub fn time_scale(&self) -> f64 {
        match self {
            NodeHealth::Degraded { slowdown } => *slowdown,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;

    #[test]
    fn rolling_crashes_rotate_nodes() {
        let plan = NodeFaultPlan::rolling_crashes(3, 10, 5, 20, 100);
        assert_eq!(plan.faults.len(), 5); // at 10, 30, 50, 70, 90
        let nodes: Vec<usize> = plan.faults.iter().map(|f| f.node).collect();
        assert_eq!(nodes, vec![0, 1, 2, 0, 1]);
        assert!(plan
            .faults
            .iter()
            .all(|f| matches!(f.kind, NodeFaultKind::Crash) && f.duration_minutes == 5));
    }

    #[test]
    fn correlated_outage_partitions_all_listed() {
        let plan = NodeFaultPlan::correlated_outage(&[0, 2], 40, 10);
        assert_eq!(plan.faults.len(), 2);
        assert!(plan
            .faults
            .iter()
            .all(|f| matches!(f.kind, NodeFaultKind::Partition) && f.at_minute == 40));
    }

    #[test]
    fn active_kind_resolves_overlap_by_severity() {
        let plan = NodeFaultPlan::none()
            .with(NodeFault {
                node: 0,
                kind: NodeFaultKind::Degraded { slowdown: 2.0 },
                at_minute: 0,
                duration_minutes: 100,
            })
            .with(NodeFault {
                node: 0,
                kind: NodeFaultKind::Crash,
                at_minute: 10,
                duration_minutes: 5,
            });
        assert_eq!(
            plan.active_kind(0, 12),
            Some(NodeFaultKind::Crash),
            "crash dominates the straggler window"
        );
        assert_eq!(
            plan.active_kind(0, 20),
            Some(NodeFaultKind::Degraded { slowdown: 2.0 }),
            "after healing, the longer straggler window is back in force"
        );
        assert_eq!(plan.active_kind(0, 100), None);
        assert_eq!(plan.active_kind(1, 12), None, "other nodes unaffected");
    }

    #[test]
    fn health_from_active_kind() {
        assert_eq!(NodeHealth::from_active(None), NodeHealth::Up);
        assert!(NodeHealth::from_active(None).accepts_work());
        assert!(!NodeHealth::from_active(Some(NodeFaultKind::Crash)).accepts_work());
        assert!(!NodeHealth::from_active(Some(NodeFaultKind::Partition)).accepts_work());
        let degraded = NodeHealth::from_active(Some(NodeFaultKind::Degraded { slowdown: 3.0 }));
        assert!(degraded.accepts_work());
        assert_eq!(degraded.time_scale(), 3.0);
        assert_eq!(NodeHealth::Up.time_scale(), 1.0);
    }

    #[test]
    fn window_boundaries_are_half_open() {
        let f = NodeFault {
            node: 0,
            kind: NodeFaultKind::Crash,
            at_minute: 10,
            duration_minutes: 5,
        };
        assert!(!f.active_at(9));
        assert!(f.active_at(10));
        assert!(f.active_at(14));
        assert!(!f.active_at(15));
    }
}
