//! Millisecond-resolution accounting: per-request latency records,
//! warm/cold counts, GB-millisecond keep-alive billing, and — under fault
//! injection — failure/retry/degradation/timeout counters with availability
//! and goodput. Under a cluster configuration (capacity / admission /
//! watchdog, see [`crate::cluster`]) the summary additionally counts shed
//! requests, pressure evictions/downgrades and fallback minutes. The
//! summary holds counters only: the ordered record of each action is the
//! `ObsEvent` stream the session emits to its trace sink.

use pulse_models::stats;

/// One served (or failed) request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// Arrival time, ms.
    pub arrival_ms: u64,
    /// Completion time, ms (time of final failure for failed requests).
    pub done_ms: u64,
    /// Whether the request hit a warm container *at arrival* (requests that
    /// later fail keep their arrival classification).
    pub warm: bool,
    /// Accuracy (percent) of the variant that served it. Reflects the
    /// delivered rung after any fault-driven ladder degradation.
    pub accuracy_pct: f64,
    /// The request never completed: provisioning exhausted the quality
    /// ladder, its execution crashed past the retry budget, or it timed out.
    pub failed: bool,
}

impl RequestRecord {
    /// End-to-end latency, ms (arrival → completion or final failure).
    pub fn latency_ms(&self) -> u64 {
        self.done_ms - self.arrival_ms
    }
}

/// Summary of one runtime execution.
#[derive(Debug, Clone, Default)]
pub struct RuntimeSummary {
    /// All requests, indexed by request id. Ids are assigned as requests
    /// enter the session (seeded in `(minute, func)` order at session build,
    /// or one per `RuntimeSession::admit_at`), not in completion order.
    pub records: Vec<RequestRecord>,
    /// Keep-alive cost, USD (billed per GB-ms of warm container time).
    pub keepalive_cost_usd: f64,
    /// Keep-alive memory sampled at each minute tick, MB.
    pub memory_at_tick_mb: Vec<f64>,
    /// Downgrade/evict actions taken by the policy's global layer.
    pub downgrades: u64,
    /// Provisioning attempts that failed (fault injection), including
    /// attempts that started as minute-boundary variant loads.
    pub provision_failures: u64,
    /// Provisioning retries scheduled after a failure (capped backoff).
    pub provision_retries: u64,
    /// Proactive minute-boundary variant loads that failed and fell back to
    /// the provisioning path.
    pub variant_load_failures: u64,
    /// Executions whose container crashed partway through.
    pub exec_crashes: u64,
    /// Request re-executions scheduled after a crash.
    pub request_retries: u64,
    /// Fault-driven ladder degradations: a variant's provisioning exhausted
    /// its retry budget and the runtime fell one rung (distinct from the
    /// policy-initiated `downgrades`).
    pub degradations: u64,
    /// Waiting requests re-pointed to a lower rung by a degradation.
    pub degraded_requests: u64,
    /// Accuracy given up by degradations, summed over re-pointed requests
    /// (percentage points).
    pub accuracy_penalty_pct: f64,
    /// Requests failed by the per-request SLO timeout.
    pub timeouts: u64,
    /// Containers reaped because the *cheapest* variant also failed to
    /// provision (the ladder offered no further fallback).
    pub reaped: u64,
    /// Arrivals shed by admission control (they count as failed requests
    /// in [`Self::availability`] and [`Self::goodput`] via their records).
    pub shed_requests: u64,
    /// Kept-alive models evicted by node-capacity pressure.
    pub evictions: u64,
    /// Kept-alive models downgraded one rung by node-capacity pressure
    /// (distinct from the policy-initiated `downgrades`).
    pub pressure_downgrades: u64,
    /// Minute ticks at which the keep-alive plan exceeded the node capacity
    /// and the enforcer had to act.
    pub pressure_minutes: u64,
    /// Minute ticks spent with the policy watchdog in its safe fallback.
    pub fallback_minutes: u64,
    /// Warm-container migrations performed by the fleet rebalancer.
    pub migrations: u64,
    /// Total charged migration pause, ms (each migration pauses its
    /// container for 200 ms).
    pub migration_pause_ms: u64,
    /// Node-crash fault windows that struck.
    pub node_crashes: u64,
    /// Node-partition fault windows that struck.
    pub node_partitions: u64,
    /// Node-straggler (degraded) fault windows that struck.
    pub node_stragglers: u64,
    /// Nodes that healed fully (no fault window covering them anymore).
    pub node_recoveries: u64,
    /// In-flight executions aborted by a node crash and re-dispatched
    /// through the retry ladder (or failed once the budget was spent).
    pub redispatched_requests: u64,
    /// Ledger slots evicted because no live node could host the function.
    pub node_loss_evictions: u64,
    /// Cold starts that failed outright because no live node could take the
    /// placement (counted as failed requests).
    pub placement_failures: u64,
    /// Per-node accounting, in node order. Always one entry per fleet node
    /// (a plain cluster run has exactly one, the implicit `node0`).
    pub node_summaries: Vec<NodeSummary>,
}

/// Per-node slice of a fleet run's accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeSummary {
    /// Node name (from its [`crate::node::NodeSpec`]).
    pub name: String,
    /// Keep-alive cost billed for memory held on this node, USD.
    pub keepalive_cost_usd: f64,
    /// This node's keep-alive memory at each minute tick, MB. Summing these
    /// across nodes reproduces `RuntimeSummary::memory_at_tick_mb` exactly.
    pub memory_at_tick_mb: Vec<f64>,
    /// Minute ticks this node spent crashed or partitioned.
    pub minutes_down: u64,
    /// Warm containers migrated onto this node.
    pub migrations_in: u64,
    /// Warm containers migrated off this node.
    pub migrations_out: u64,
}

impl NodeSummary {
    /// Peak keep-alive memory billed on this node, MB.
    pub fn peak_memory_mb(&self) -> f64 {
        stats::max(&self.memory_at_tick_mb)
    }
}

impl RuntimeSummary {
    /// Number of requests (served and failed).
    pub fn requests(&self) -> u64 {
        self.records.len() as u64
    }

    /// Warm-classified request count (classification at arrival).
    pub fn warm_starts(&self) -> u64 {
        self.records.iter().filter(|r| r.warm).count() as u64
    }

    /// Cold-started request count.
    pub fn cold_starts(&self) -> u64 {
        self.requests() - self.warm_starts()
    }

    /// Requests that completed successfully.
    pub fn successful_requests(&self) -> u64 {
        self.records.iter().filter(|r| !r.failed).count() as u64
    }

    /// Requests that never completed (ladder exhausted, crash-retry budget
    /// exhausted, or timed out).
    pub fn failed_requests(&self) -> u64 {
        self.requests() - self.successful_requests()
    }

    /// Fraction of requests that completed successfully; 1.0 with no
    /// traffic (an idle platform is trivially available).
    pub fn availability(&self) -> f64 {
        if self.records.is_empty() {
            1.0
        } else {
            self.successful_requests() as f64 / self.requests() as f64
        }
    }

    /// Fraction of *all* requests that completed successfully within
    /// `slo_ms` of arrival — the delivered-under-SLO share. 1.0 with no
    /// traffic.
    pub fn goodput(&self, slo_ms: u64) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        let good = self
            .records
            .iter()
            .filter(|r| !r.failed && r.latency_ms() <= slo_ms)
            .count();
        good as f64 / self.records.len() as f64
    }

    /// Total service time across successful requests, seconds (the minute
    /// engine's metric, for cross-validation).
    pub fn service_time_s(&self) -> f64 {
        self.records
            .iter()
            .filter(|r| !r.failed)
            .map(|r| r.latency_ms() as f64 / 1000.0)
            .sum()
    }

    /// Mean delivered accuracy over successful requests, percent.
    pub fn avg_accuracy_pct(&self) -> f64 {
        let ok: Vec<f64> = self
            .records
            .iter()
            .filter(|r| !r.failed)
            .map(|r| r.accuracy_pct)
            .collect();
        stats::mean(&ok)
    }

    /// Latencies of successful requests (failed requests have no meaningful
    /// completion latency).
    fn latencies(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| !r.failed)
            .map(|r| r.latency_ms() as f64)
            .collect()
    }

    /// Median request latency over successful requests, ms. Explicitly 0.0
    /// when no request completed (no reliance on empty-slice behaviour of
    /// the percentile helper).
    pub fn latency_p50_ms(&self) -> f64 {
        self.latency_percentile_ms(50.0)
    }

    /// Tail (p99) request latency over successful requests, ms; 0.0 when no
    /// request completed.
    pub fn latency_p99_ms(&self) -> f64 {
        self.latency_percentile_ms(99.0)
    }

    /// Latency percentile `p` in `[0, 100]` over successful requests; 0.0
    /// when no request completed. An out-of-range `p` is a caller bug
    /// (asserted in debug builds) and is clamped into range in release so
    /// the helper's silent index-clamp can never be reached with a
    /// nonsensical rank.
    pub fn latency_percentile_ms(&self, p: f64) -> f64 {
        debug_assert!(
            (0.0..=100.0).contains(&p),
            "percentile {p} outside [0, 100]"
        );
        let p = p.clamp(0.0, 100.0);
        let xs = self.latencies();
        if xs.is_empty() {
            return 0.0;
        }
        stats::percentile(&xs, p)
    }

    /// Peak sampled keep-alive memory, MB.
    pub fn peak_memory_mb(&self) -> f64 {
        stats::max(&self.memory_at_tick_mb)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;

    fn summary() -> RuntimeSummary {
        RuntimeSummary {
            records: vec![
                RequestRecord {
                    arrival_ms: 0,
                    done_ms: 1000,
                    warm: false,
                    accuracy_pct: 80.0,
                    failed: false,
                },
                RequestRecord {
                    arrival_ms: 500,
                    done_ms: 700,
                    warm: true,
                    accuracy_pct: 90.0,
                    failed: false,
                },
                RequestRecord {
                    arrival_ms: 900,
                    done_ms: 1100,
                    warm: true,
                    accuracy_pct: 90.0,
                    failed: false,
                },
            ],
            keepalive_cost_usd: 0.5,
            memory_at_tick_mb: vec![100.0, 300.0, 200.0],
            downgrades: 2,
            ..Default::default()
        }
    }

    #[test]
    fn counts_and_sums() {
        let s = summary();
        assert_eq!(s.requests(), 3);
        assert_eq!(s.warm_starts(), 2);
        assert_eq!(s.cold_starts(), 1);
        assert!((s.service_time_s() - (1.0 + 0.2 + 0.2)).abs() < 1e-12);
        assert!((s.avg_accuracy_pct() - (80.0 + 90.0 + 90.0) / 3.0).abs() < 1e-12);
        assert_eq!(s.peak_memory_mb(), 300.0);
        assert_eq!(s.failed_requests(), 0);
        assert_eq!(s.availability(), 1.0);
    }

    #[test]
    fn latency_percentiles_ordered() {
        let s = summary();
        assert!(s.latency_p50_ms() <= s.latency_p99_ms());
        assert!(s.latency_p50_ms() >= 200.0);
    }

    #[test]
    fn out_of_range_percentile_is_rejected_or_clamped() {
        let s = summary();
        for p in [-1.0, 150.0] {
            if cfg!(debug_assertions) {
                // Debug builds call the bug out.
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    s.latency_percentile_ms(p)
                }));
                assert!(r.is_err(), "p={p} must trip the debug assertion");
            } else {
                // Release builds clamp to the nearest valid rank.
                let clamped = s.latency_percentile_ms(p);
                let expected = s.latency_percentile_ms(p.clamp(0.0, 100.0));
                assert_eq!(clamped.to_bits(), expected.to_bits(), "p={p}");
            }
        }
    }

    #[test]
    fn boundary_percentiles_are_valid() {
        let s = summary();
        assert_eq!(s.latency_percentile_ms(0.0), 200.0);
        assert_eq!(s.latency_percentile_ms(100.0), 1000.0);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = RuntimeSummary::default();
        assert_eq!(s.requests(), 0);
        assert_eq!(s.avg_accuracy_pct(), 0.0);
        assert_eq!(s.latency_p50_ms(), 0.0);
        assert_eq!(s.peak_memory_mb(), 0.0);
    }

    #[test]
    fn zero_request_percentiles_are_explicitly_zero() {
        // The zero-request case must not depend on the stats helper's
        // empty-slice convention: p50/p99/any-p all report 0.0 directly.
        let s = RuntimeSummary::default();
        assert_eq!(s.latency_p50_ms(), 0.0);
        assert_eq!(s.latency_p99_ms(), 0.0);
        assert_eq!(s.latency_percentile_ms(0.0), 0.0);
        assert_eq!(s.latency_percentile_ms(100.0), 0.0);
        assert_eq!(s.availability(), 1.0, "idle platform is available");
        assert_eq!(s.goodput(1), 1.0);
    }

    #[test]
    fn all_failed_percentiles_are_zero_too() {
        // Records exist but none completed: latency percentiles must be 0.0
        // (only successful requests have completion latencies), while
        // availability reports the outage.
        let s = RuntimeSummary {
            records: vec![RequestRecord {
                arrival_ms: 0,
                done_ms: 9_000,
                warm: false,
                accuracy_pct: 80.0,
                failed: true,
            }],
            ..Default::default()
        };
        assert_eq!(s.latency_p50_ms(), 0.0);
        assert_eq!(s.latency_p99_ms(), 0.0);
        assert_eq!(s.availability(), 0.0);
        assert_eq!(s.successful_requests(), 0);
        assert_eq!(s.failed_requests(), 1);
        assert_eq!(s.avg_accuracy_pct(), 0.0);
        assert_eq!(s.service_time_s(), 0.0);
    }

    #[test]
    fn failed_and_slow_requests_reduce_goodput() {
        let mut s = summary();
        s.records.push(RequestRecord {
            arrival_ms: 0,
            done_ms: 60_000,
            warm: true,
            accuracy_pct: 90.0,
            failed: true,
        });
        assert!((s.availability() - 0.75).abs() < 1e-12);
        // SLO 500 ms: of the three successes, only the 200 ms ones qualify.
        assert!((s.goodput(500) - 0.5).abs() < 1e-12);
        // SLO 1 s: all three successes qualify.
        assert!((s.goodput(1_000) - 0.75).abs() < 1e-12);
    }
}
