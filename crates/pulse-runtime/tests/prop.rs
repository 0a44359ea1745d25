//! Property tests for the event-driven runtime, including the strongest
//! invariant we have: cost/count equality with the independently implemented
//! minute-resolution engine on arbitrary workloads.

use proptest::prelude::*;
use pulse_runtime::{
    ClusterConfig, FaultInjector, FaultPlan, FleetConfig, NodeCapacity, NodeFault, NodeFaultKind,
    NodeFaultPlan, Runtime, RuntimeConfig,
};
use pulse_sim::assignment::round_robin_assignment;
use pulse_sim::policies::{OpenWhiskFixed, PulsePolicy};
use pulse_sim::Simulator;
use pulse_trace::{FunctionTrace, Trace};

fn arb_trace() -> impl Strategy<Value = Trace> {
    (1usize..4, 30usize..120).prop_flat_map(|(nf, minutes)| {
        proptest::collection::vec(
            proptest::collection::vec(0u32..3, minutes..=minutes),
            nf..=nf,
        )
        .prop_map(|rows| {
            Trace::new(
                rows.into_iter()
                    .enumerate()
                    .map(|(i, counts)| FunctionTrace::new(format!("f{i}"), counts))
                    .collect(),
            )
        })
    })
}

/// An arbitrary node-fault plan against an `n_nodes`-node fleet: up to six
/// windows of crashes, partitions, and stragglers at arbitrary minutes, with
/// arbitrary (possibly overlapping) durations.
fn arb_node_fault_plan(n_nodes: usize, minutes: u64) -> impl Strategy<Value = NodeFaultPlan> {
    proptest::collection::vec((0..n_nodes, 0u8..3, 0..minutes.max(1), 1u64..10), 0..6).prop_map(
        |windows| NodeFaultPlan {
            faults: windows
                .into_iter()
                .map(|(node, kind, at_minute, duration_minutes)| NodeFault {
                    node,
                    kind: match kind {
                        0 => NodeFaultKind::Crash,
                        1 => NodeFaultKind::Partition,
                        _ => NodeFaultKind::Degraded { slowdown: 3.0 },
                    },
                    at_minute,
                    duration_minutes,
                })
                .collect(),
        },
    )
}

/// A workload plus a node-fault plan whose windows fall inside its horizon.
fn arb_faulted_fleet_trace() -> impl Strategy<Value = (Trace, NodeFaultPlan)> {
    arb_trace().prop_flat_map(|trace| {
        let minutes = trace.minutes() as u64;
        (Just(trace), arb_node_fault_plan(3, minutes))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The two engines agree exactly for the deterministic fixed policy on
    /// arbitrary workloads.
    #[test]
    fn engines_agree_on_fixed_policy(trace in arb_trace()) {
        let fams = round_robin_assignment(
            &pulse_models::zoo::standard(),
            trace.n_functions(),
        );
        let sim = Simulator::new(trace.clone(), fams.clone());
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let s = sim.run(&mut OpenWhiskFixed::new(&fams));
        let r = rt.run(&mut OpenWhiskFixed::new(&fams));
        prop_assert_eq!(s.warm_starts, r.warm_starts());
        prop_assert_eq!(s.cold_starts, r.cold_starts());
        prop_assert!((s.keepalive_cost_usd - r.keepalive_cost_usd).abs() < 1e-9);
        prop_assert!((s.avg_accuracy_pct() - r.avg_accuracy_pct()).abs() < 1e-9);
    }

    /// Runtime bookkeeping invariants on arbitrary workloads: every request
    /// completes, no request finishes before its arrival, warm requests are
    /// at least as fast as any cold request of the same function.
    #[test]
    fn runtime_accounting_invariants(trace in arb_trace()) {
        let fams = round_robin_assignment(
            &pulse_models::zoo::standard(),
            trace.n_functions(),
        );
        let rt = Runtime::new(trace.clone(), fams.clone(), RuntimeConfig::default());
        let r = rt.run(&mut OpenWhiskFixed::new(&fams));
        prop_assert_eq!(r.requests(), trace.total_invocations());
        for rec in &r.records {
            prop_assert!(rec.done_ms >= rec.arrival_ms);
            prop_assert!(rec.accuracy_pct > 0.0);
        }
        prop_assert_eq!(r.memory_at_tick_mb.len(), trace.minutes());
        prop_assert!(r.keepalive_cost_usd >= 0.0);
    }

    /// A concurrency cap never changes warm/cold accounting or billing —
    /// only latency.
    #[test]
    fn concurrency_cap_only_affects_latency(trace in arb_trace(), cap in 1u32..4) {
        let fams = round_robin_assignment(
            &pulse_models::zoo::standard(),
            trace.n_functions(),
        );
        let unbounded = Runtime::new(trace.clone(), fams.clone(), RuntimeConfig::default())
            .run(&mut OpenWhiskFixed::new(&fams));
        let capped = Runtime::new(
            trace,
            fams.clone(),
            RuntimeConfig { max_concurrency: Some(cap), ..Default::default() },
        )
        .run(&mut OpenWhiskFixed::new(&fams));
        prop_assert_eq!(unbounded.warm_starts(), capped.warm_starts());
        prop_assert_eq!(unbounded.cold_starts(), capped.cold_starts());
        prop_assert!((unbounded.keepalive_cost_usd - capped.keepalive_cost_usd).abs() < 1e-12);
        prop_assert!(capped.service_time_s() >= unbounded.service_time_s() - 1e-9);
    }

    /// Two fault injectors built from the same plan (same seed, same rates)
    /// make identical draws, call for call — the replay-determinism
    /// foundation every chaos experiment rests on.
    #[test]
    fn same_seed_injectors_draw_identically(
        seed in 0u64..1_000,
        provision in 0.0f64..1.0,
        variant_load in 0.0f64..1.0,
        exec_crash in 0.0f64..1.0,
        calls in proptest::collection::vec((0usize..4, 0usize..3, 0u8..4), 1..200),
    ) {
        let plan = FaultPlan::uniform(provision, variant_load, exec_crash, seed);
        let mut a = FaultInjector::new(&plan);
        let mut b = FaultInjector::new(&plan);
        for &(func, variant, kind) in &calls {
            match kind {
                0 => prop_assert_eq!(
                    a.provision_fails(func, variant),
                    b.provision_fails(func, variant)
                ),
                1 => prop_assert_eq!(
                    a.variant_load_fails(func, variant),
                    b.variant_load_fails(func, variant)
                ),
                2 => prop_assert_eq!(
                    a.exec_crashes(func, variant),
                    b.exec_crashes(func, variant)
                ),
                _ => prop_assert_eq!(
                    a.crash_point_ms(1 + func as u64 * 997),
                    b.crash_point_ms(1 + func as u64 * 997)
                ),
            }
        }
        // And the backoff schedules agree too.
        for attempt in 1..8u32 {
            prop_assert_eq!(a.backoff_ms(attempt), b.backoff_ms(attempt));
        }
    }

    /// The node-capacity enforcer is a hard invariant, not a heuristic: the
    /// billed keep-alive footprint never exceeds the cap at any minute, for
    /// any workload, fault plan, policy, or cap level.
    #[test]
    fn keepalive_memory_never_exceeds_node_cap(
        trace in arb_trace(),
        cap_frac in 0.05f64..1.0,
        seed in 0u64..100,
        faulty in 0u8..2,
        use_pulse in 0u8..2,
    ) {
        let (faulty, use_pulse) = (faulty == 1, use_pulse == 1);
        let fams = round_robin_assignment(
            &pulse_models::zoo::standard(),
            trace.n_functions(),
        );
        let all_high: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
        let cap = all_high * cap_frac;
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let plan = if faulty {
            FaultPlan::uniform(0.2, 0.1, 0.05, seed)
        } else {
            FaultPlan::none()
        };
        let cluster = ClusterConfig {
            capacity: NodeCapacity::mb(cap),
            ..ClusterConfig::unlimited()
        };
        let mut fixed;
        let mut pulse;
        let policy: &mut dyn pulse_sim::KeepAlivePolicy = if use_pulse {
            pulse = PulsePolicy::new(fams.clone(), Default::default());
            &mut pulse
        } else {
            fixed = OpenWhiskFixed::new(&fams);
            &mut fixed
        };
        let s = rt.session(policy, &plan, cluster).finish();
        for (t, &mb) in s.memory_at_tick_mb.iter().enumerate() {
            prop_assert!(
                mb <= cap + 1e-9,
                "minute {}: {} MB kept alive over the {} MB cap",
                t, mb, cap
            );
        }
    }

    /// Per-node capacity enforcement survives arbitrary node-fault plans on
    /// fleets of unequal nodes: no node ever bills over its own cap, the
    /// fleet never bills over the sum of the caps, and the fleet-wide memory series is exactly the sum
    /// of the per-node series (containers are conserved — a migrated
    /// container is never billed on two nodes, and warm state is never
    /// silently dropped from the ledger).
    #[test]
    fn fleet_keepalive_respects_node_caps_under_any_fault_plan(
        (trace, node_faults) in arb_faulted_fleet_trace(),
        cap_fracs in (0.1f64..0.9, 0.1f64..0.9, 0.1f64..0.9),
        use_pulse in 0u8..2,
    ) {
        let fams = round_robin_assignment(
            &pulse_models::zoo::standard(),
            trace.n_functions(),
        );
        let all_high: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
        let caps = [cap_fracs.0, cap_fracs.1, cap_fracs.2].map(|frac| all_high * frac);
        let mut fleet = FleetConfig::uniform(3, NodeCapacity::unlimited())
            .with_node_faults(node_faults);
        for (node, &cap) in fleet.nodes.iter_mut().zip(&caps) {
            node.capacity = NodeCapacity::mb(cap);
        }
        let cap_sum: f64 = caps.iter().sum();
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let mut fixed;
        let mut pulse;
        let policy: &mut dyn pulse_sim::KeepAlivePolicy = if use_pulse == 1 {
            pulse = PulsePolicy::new(fams.clone(), Default::default());
            &mut pulse
        } else {
            fixed = OpenWhiskFixed::new(&fams);
            &mut fixed
        };
        let s = rt.session(policy, &FaultPlan::none(), fleet).finish();
        prop_assert_eq!(s.node_summaries.len(), 3);
        for (n, &cap) in s.node_summaries.iter().zip(&caps) {
            prop_assert_eq!(n.memory_at_tick_mb.len(), s.memory_at_tick_mb.len());
            for (t, &mb) in n.memory_at_tick_mb.iter().enumerate() {
                prop_assert!(
                    mb <= cap + 1e-9,
                    "node {} minute {}: {} MB over its {} MB cap",
                    &n.name, t, mb, cap
                );
            }
        }
        for (t, &mb) in s.memory_at_tick_mb.iter().enumerate() {
            prop_assert!(
                mb <= cap_sum + 1e-9,
                "minute {}: fleet kept {} MB alive over the {} MB cap sum",
                t, mb, cap_sum
            );
            let node_sum: f64 = s
                .node_summaries
                .iter()
                .map(|n| n.memory_at_tick_mb[t])
                .sum();
            prop_assert_eq!(
                mb.to_bits(), node_sum.to_bits(),
                "minute {}: fleet series {} != per-node sum {}",
                t, mb, node_sum
            );
        }
    }

    /// Under arbitrary node faults (with request-level faults layered on
    /// top) every request still reaches a terminal state, migration flows
    /// balance exactly (every container that left a node arrived at
    /// another), and the fleet bill is the sum of the per-node bills.
    #[test]
    fn node_faults_never_strand_requests_and_migrations_balance(
        (trace, node_faults) in arb_faulted_fleet_trace(),
        cap_frac in 0.2f64..0.9,
        seed in 0u64..100,
    ) {
        let fams = round_robin_assignment(
            &pulse_models::zoo::standard(),
            trace.n_functions(),
        );
        let all_high: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
        let total = trace.total_invocations();
        let fleet = FleetConfig::uniform(3, NodeCapacity::mb(all_high * cap_frac))
            .with_node_faults(node_faults);
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let plan = FaultPlan::uniform(0.05, 0.02, 0.02, seed);
        let s = rt
            .session(&mut OpenWhiskFixed::new(&fams), &plan, fleet)
            .finish();
        prop_assert_eq!(s.requests(), total);
        prop_assert_eq!(s.records.len() as u64, total);
        for rec in &s.records {
            prop_assert!(rec.done_ms >= rec.arrival_ms);
        }
        let inflow: u64 = s.node_summaries.iter().map(|n| n.migrations_in).sum();
        let outflow: u64 = s.node_summaries.iter().map(|n| n.migrations_out).sum();
        prop_assert_eq!(inflow, s.migrations, "inflow != migration count");
        prop_assert_eq!(outflow, s.migrations, "outflow != migration count");
        let node_cost: f64 = s
            .node_summaries
            .iter()
            .map(|n| n.keepalive_cost_usd)
            .sum();
        prop_assert!(
            (s.keepalive_cost_usd - node_cost).abs()
                <= 1e-9 * (1.0 + s.keepalive_cost_usd.abs()),
            "fleet bill {} != per-node sum {}",
            s.keepalive_cost_usd, node_cost
        );
    }

    /// Spreading an unconstrained workload across more identical unlimited
    /// nodes changes nothing: the global placer keeps the plan where it was
    /// and the run is bit-identical to the classic single-node cluster.
    #[test]
    fn unlimited_homogeneous_fleet_is_bitwise_transparent(
        trace in arb_trace(),
        n_nodes in 1usize..5,
    ) {
        let fams = round_robin_assignment(
            &pulse_models::zoo::standard(),
            trace.n_functions(),
        );
        let rt = Runtime::new(trace, fams.clone(), RuntimeConfig::default());
        let base = rt
            .session(
                &mut OpenWhiskFixed::new(&fams),
                &FaultPlan::none(),
                ClusterConfig::unlimited(),
            )
            .finish();
        let fleet = FleetConfig::uniform(n_nodes, NodeCapacity::unlimited());
        let f = rt
            .session(&mut OpenWhiskFixed::new(&fams), &FaultPlan::none(), fleet)
            .finish();
        prop_assert_eq!(base.warm_starts(), f.warm_starts());
        prop_assert_eq!(base.cold_starts(), f.cold_starts());
        prop_assert_eq!(base.requests(), f.requests());
        prop_assert_eq!(
            base.keepalive_cost_usd.to_bits(),
            f.keepalive_cost_usd.to_bits()
        );
        for (a, b) in base.memory_at_tick_mb.iter().zip(&f.memory_at_tick_mb) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(f.migrations, 0);
        prop_assert_eq!(f.placement_failures, 0);
    }
}
