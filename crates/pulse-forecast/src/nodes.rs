//! IceBreaker's heterogeneous-node layer.
//!
//! The published IceBreaker warms functions on a *mix of node types*: a
//! cheap low-end node when an invocation is plausible but not imminent, a
//! fast high-end node when it is imminent, and nowhere when it is unlikely —
//! chosen by a utility function. The PULSE paper evaluates with "only one
//! type of node … eliminating the need for utility function computation";
//! this module implements the elided layer so the substrate is complete.
//!
//! Formulation (net-value placement): for function `f` with invocation
//! probability `ip` over the horizon and variant spec `s`, warming on node
//! `n` (execution-time factor `tf_n`, price factor `pf_n`) is worth
//!
//! ```text
//! net(n) = ip · (L_cold − warm(s)·tf_n) · VoT  −  keepalive(s, horizon)·pf_n
//! ```
//!
//! where `L_cold` is the latency of a cold start on the default (low-end)
//! node and `VoT` converts saved seconds into dollars. The placement is the
//! node with the largest positive net value, or `None` when no node pays
//! for itself — reproducing IceBreaker's hot/warm/cold function tiers.

use pulse_models::{CostModel, VariantSpec};

/// A node type in the heterogeneous cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeType {
    /// Display name.
    pub name: String,
    /// Execution-time multiplier (< 1 = faster than baseline).
    pub time_factor: f64,
    /// Keep-alive price multiplier (> 1 = more expensive than baseline).
    pub price_factor: f64,
}

impl NodeType {
    /// IceBreaker's fast, expensive node.
    pub fn high_end() -> Self {
        Self {
            name: "high-end".into(),
            time_factor: 0.6,
            price_factor: 1.5,
        }
    }

    /// IceBreaker's slow, cheap node.
    pub fn low_end() -> Self {
        Self {
            name: "low-end".into(),
            time_factor: 1.6,
            price_factor: 0.6,
        }
    }

    /// The default two-tier cluster.
    pub fn standard_cluster() -> Vec<NodeType> {
        vec![Self::low_end(), Self::high_end()]
    }
}

/// Placement tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementConfig {
    /// Dollar value of one saved second of service latency.
    pub value_of_time_usd_per_s: f64,
    /// Warm-window length the keep-alive cost is paid over, minutes.
    pub horizon_min: f64,
    /// Cost model for keep-alive pricing.
    pub cost: CostModel,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        Self {
            value_of_time_usd_per_s: 0.01,
            horizon_min: 10.0,
            cost: CostModel::aws_lambda(),
        }
    }
}

/// The outcome of a placement decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Chosen node index into the cluster slice, or `None` (stay cold).
    pub node: Option<usize>,
    /// Net value of the chosen option, USD (0 for `None`).
    pub net_value_usd: f64,
}

/// Latency of a cold start executed on the *cheapest* node of the cluster
/// (where unwarmed invocations land), seconds.
// Callers pass a non-empty cluster with finite price factors.
#[allow(clippy::expect_used)]
pub fn cold_latency_s(spec: &VariantSpec, cluster: &[NodeType]) -> f64 {
    let slowest_cheap = cluster
        .iter()
        .min_by(|a, b| a.price_factor.partial_cmp(&b.price_factor).expect("finite"))
        .expect("non-empty cluster");
    spec.cold_service_time_s() * slowest_cheap.time_factor
}

/// IceBreaker's utility placement: pick the node with the largest positive
/// net value, or none.
pub fn place(
    ip: f64,
    spec: &VariantSpec,
    cluster: &[NodeType],
    cfg: &PlacementConfig,
) -> Placement {
    assert!(!cluster.is_empty(), "cluster must have at least one node");
    let ip = ip.clamp(0.0, 1.0);
    let l_cold = cold_latency_s(spec, cluster);
    let mut best = Placement {
        node: None,
        net_value_usd: 0.0,
    };
    for (i, n) in cluster.iter().enumerate() {
        let warm_latency = spec.warm_service_time_s * n.time_factor;
        let saved_s = (l_cold - warm_latency).max(0.0);
        let benefit = ip * saved_s * cfg.value_of_time_usd_per_s;
        let keepalive = cfg
            .cost
            .keepalive_cost_usd_per_minutes(spec.memory_mb, cfg.horizon_min)
            * n.price_factor;
        let net = benefit - keepalive;
        if net > best.net_value_usd {
            best = Placement {
                node: Some(i),
                net_value_usd: net,
            };
        }
    }
    best
}

/// The probability thresholds at which the placement switches tiers for a
/// given variant: `(cold→low_end, low_end→high_end)` — IceBreaker's
/// function-temperature boundaries, derived rather than hand-tuned.
pub fn tier_boundaries(
    spec: &VariantSpec,
    cluster: &[NodeType],
    cfg: &PlacementConfig,
) -> (f64, f64) {
    let mut first_warm = f64::INFINITY;
    let mut first_high = f64::INFINITY;
    for step in 0..=1000 {
        let ip = step as f64 / 1000.0;
        match place(ip, spec, cluster, cfg).node {
            Some(i) if cluster[i].name == "high-end" => {
                first_high = first_high.min(ip);
                first_warm = first_warm.min(ip);
            }
            Some(_) => first_warm = first_warm.min(ip),
            None => {}
        }
    }
    (first_warm, first_high)
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;
    use pulse_models::zoo;

    fn gpt_small() -> VariantSpec {
        zoo::gpt().variants[0].clone()
    }

    #[test]
    fn zero_probability_stays_cold() {
        let p = place(
            0.0,
            &gpt_small(),
            &NodeType::standard_cluster(),
            &PlacementConfig::default(),
        );
        assert_eq!(p.node, None);
        assert_eq!(p.net_value_usd, 0.0);
    }

    #[test]
    fn certain_invocation_gets_the_fast_node() {
        let cluster = NodeType::standard_cluster();
        let p = place(1.0, &gpt_small(), &cluster, &PlacementConfig::default());
        let node = p.node.expect("must warm somewhere");
        assert_eq!(cluster[node].name, "high-end");
        assert!(p.net_value_usd > 0.0);
    }

    #[test]
    fn moderate_probability_takes_the_cheap_node() {
        let cluster = NodeType::standard_cluster();
        let (warm_at, high_at) =
            tier_boundaries(&gpt_small(), &cluster, &PlacementConfig::default());
        assert!(warm_at < high_at, "warm {warm_at} !< high {high_at}");
        let mid = (warm_at + high_at) / 2.0;
        let p = place(mid, &gpt_small(), &cluster, &PlacementConfig::default());
        assert_eq!(cluster[p.node.unwrap()].name, "low-end");
    }

    #[test]
    fn tier_is_monotone_in_probability() {
        let cluster = NodeType::standard_cluster();
        let cfg = PlacementConfig::default();
        let spec = gpt_small();
        let tier = |ip: f64| -> u8 {
            match place(ip, &spec, &cluster, &cfg).node {
                None => 0,
                Some(i) if cluster[i].name == "low-end" => 1,
                Some(_) => 2,
            }
        };
        let mut prev = 0;
        for step in 0..=100 {
            let t = tier(step as f64 / 100.0);
            assert!(t >= prev, "tier dropped at ip {}", step as f64 / 100.0);
            prev = t;
        }
        assert_eq!(tier(1.0), 2);
    }

    #[test]
    fn cheap_models_warm_at_lower_probability_than_big_ones() {
        let cluster = NodeType::standard_cluster();
        let cfg = PlacementConfig::default();
        let small = zoo::densenet().variants[0].clone(); // ~580 MB
        let big = zoo::gpt().variants[2].clone(); // ~7 GB
        let (small_warm, _) = tier_boundaries(&small, &cluster, &cfg);
        let (big_warm, _) = tier_boundaries(&big, &cluster, &cfg);
        assert!(
            small_warm < big_warm,
            "small {small_warm} !< big {big_warm}"
        );
    }

    #[test]
    fn single_node_cluster_degenerates_gracefully() {
        let cluster = vec![NodeType {
            name: "only".into(),
            time_factor: 1.0,
            price_factor: 1.0,
        }];
        let p = place(0.9, &gpt_small(), &cluster, &PlacementConfig::default());
        assert_eq!(p.node, Some(0));
        let p0 = place(0.0, &gpt_small(), &cluster, &PlacementConfig::default());
        assert_eq!(p0.node, None);
    }

    #[test]
    fn cold_latency_uses_cheapest_node() {
        let cluster = NodeType::standard_cluster();
        let spec = gpt_small();
        let l = cold_latency_s(&spec, &cluster);
        assert!((l - spec.cold_service_time_s() * 1.6).abs() < 1e-9);
    }

    #[test]
    fn higher_value_of_time_expands_warming() {
        let cluster = NodeType::standard_cluster();
        let spec = gpt_small();
        let cheap_time = PlacementConfig {
            value_of_time_usd_per_s: 0.001,
            ..Default::default()
        };
        let dear_time = PlacementConfig {
            value_of_time_usd_per_s: 0.1,
            ..Default::default()
        };
        let (warm_cheap, _) = tier_boundaries(&spec, &cluster, &cheap_time);
        let (warm_dear, _) = tier_boundaries(&spec, &cluster, &dear_time);
        assert!(warm_dear < warm_cheap);
    }
}
