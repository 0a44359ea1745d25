//! Fleet configuration: N nodes behind one global scheduler.
//!
//! [`FleetConfig`] is the multi-node generalization of
//! [`crate::cluster::ClusterConfig`]. The runtime places every cold start on
//! the live node with the most capacity headroom after the placement,
//! enforces each node's keep-alive cap separately with Algorithm 2's
//! utility-ordered downgrade loop, and bills each node's footprint.
//!
//! Robustness semantics layered on top:
//!
//! * **node faults** ([`crate::node::NodeFaultPlan`]) strike at minute
//!   ticks: a crash reaps the node's warm containers and re-dispatches its
//!   in-flight requests through the existing retry/degradation ladder; a
//!   partition lets in-flight work finish but moves the node's functions
//!   elsewhere; a straggler multiplies durations;
//! * **migration**: at each tick the rebalancer moves idle warm containers
//!   off nodes whose planned footprint exceeds their cap, onto the node with
//!   the most headroom. Per-node planned footprints come from the ledger's
//!   minute footprint, filled from its per-minute alive set (DESIGN.md
//!   §16), so the tick cost scales with the alive functions, not the fleet
//!   size. A migration is a charged 200 ms pause during which the container
//!   cannot serve — orders of magnitude cheaper than a cold start, and
//!   counted in `RuntimeSummary::migrations` / `migration_pause_ms`;
//! * **admission**: the global front door ([`FleetConfig::admission`])
//!   sheds before per-function queues grow unbounded; each shed counts in
//!   `RuntimeSummary::shed_requests`.
//!
//! Each of these actions is counted in the `RuntimeSummary` and emitted
//! once to the session's trace sink (`ObsEvent::NodeDown`,
//! `NodeRecovered`, `Migrate`, `Shed`): the `ObsEvent` stream is the one
//! event log.
//!
//! The transparency contract mirrors the cluster layer's: a
//! [`ClusterConfig`] converts (`From`) to one nominal node with no node
//! faults, and `Runtime::session` runs every cluster as exactly that fleet.
//! An explicitly built one-node fleet is bit-identical to the cluster run —
//! asserted for all policies in `tests/robustness.rs`.

use crate::cluster::{AdmissionControl, ClusterConfig, NodeCapacity};
use crate::node::{NodeFaultPlan, NodeSpec};

/// A fleet of nodes plus its robustness knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// The nodes, indexed by position. Must be non-empty.
    pub nodes: Vec<NodeSpec>,
    /// Global front-door admission control: bounds the total pending
    /// backlog across the whole fleet.
    pub admission: AdmissionControl,
    /// Deterministic node-level fault schedule.
    pub node_faults: NodeFaultPlan,
}

/// The single-node fleet equivalent to a cluster: one nominal node with the
/// cluster's capacity, the cluster's admission bound as the global front
/// door, no node faults.
impl From<ClusterConfig> for FleetConfig {
    fn from(cluster: ClusterConfig) -> Self {
        Self::single(NodeSpec::nominal("node0", cluster.capacity)).with_admission(cluster.admission)
    }
}

impl FleetConfig {
    /// A one-node fleet over `spec`.
    pub fn single(spec: NodeSpec) -> Self {
        Self {
            nodes: vec![spec],
            admission: AdmissionControl::unbounded(),
            node_faults: NodeFaultPlan::none(),
        }
    }

    /// `n` identical nominal nodes (`node0`, `node1`, …), each with
    /// `capacity`.
    pub fn uniform(n: usize, capacity: NodeCapacity) -> Self {
        assert!(n > 0, "a fleet needs at least one node");
        Self {
            nodes: (0..n)
                .map(|k| NodeSpec::nominal(format!("node{k}"), capacity))
                .collect(),
            admission: AdmissionControl::unbounded(),
            node_faults: NodeFaultPlan::none(),
        }
    }

    /// Builder: set the global front-door admission control.
    pub fn with_admission(mut self, admission: AdmissionControl) -> Self {
        self.admission = admission;
        self
    }

    /// Builder: attach a node-level fault schedule.
    pub fn with_node_faults(mut self, plan: NodeFaultPlan) -> Self {
        self.node_faults = plan;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeFault, NodeFaultKind};

    #[test]
    fn cluster_converts_to_one_nominal_node() {
        let cluster = ClusterConfig {
            capacity: NodeCapacity::gb(4.0),
            admission: AdmissionControl::bounded(64),
        };
        let fleet = FleetConfig::from(cluster);
        assert_eq!(fleet.nodes.len(), 1);
        assert_eq!(fleet.nodes[0].capacity, cluster.capacity);
        assert_eq!(fleet.admission, cluster.admission);
        assert!(fleet.node_faults.is_none());
    }

    #[test]
    fn uniform_names_nodes_by_index() {
        let fleet = FleetConfig::uniform(3, NodeCapacity::mb(512.0));
        let names: Vec<&str> = fleet.nodes.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, vec!["node0", "node1", "node2"]);
    }

    #[test]
    fn builders_compose() {
        let fleet = FleetConfig::uniform(2, NodeCapacity::unlimited())
            .with_admission(AdmissionControl::bounded(10))
            .with_node_faults(NodeFaultPlan::none().with(NodeFault {
                node: 1,
                kind: NodeFaultKind::Crash,
                at_minute: 5,
                duration_minutes: 2,
            }));
        assert_eq!(fleet.admission.max_pending, Some(10));
        assert_eq!(fleet.node_faults.faults.len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_fleet_rejected() {
        let _ = FleetConfig::uniform(0, NodeCapacity::unlimited());
    }
}
