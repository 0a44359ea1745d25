//! Parallel many-run harness.
//!
//! The paper's headline numbers average 1000 simulation runs, each with a
//! fresh random model-to-function assignment. Runs are embarrassingly
//! parallel; this module fans them out over crossbeam scoped threads with a
//! lock-free work counter, keeping one metrics accumulator per worker and
//! merging at the end (no shared mutable state on the hot path).

use crate::assignment::random_assignment;
use crate::engine::Simulator;
use crate::metrics::{Aggregate, RunMetrics};
use crate::policy::KeepAlivePolicy;
use parking_lot::Mutex;
use pulse_models::ModelFamily;
use pulse_obs::{CounterRegistry, HistogramRegistry};
use pulse_trace::Trace;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Raised by the first failing worker so siblings stop claiming new runs
/// instead of grinding through the rest of a doomed campaign.
///
/// The raise is a `Release` store and the poll an `Acquire` load: a sibling
/// that observes the flag also observes every write the failing worker
/// published before raising it. This is the workspace's only `AtomicBool`
/// (clippy.toml disallows the type elsewhere), so the pair is spelled once.
#[derive(Debug, Default)]
struct AbortFlag(
    // The one sanctioned AtomicBool: its accesses are fixed by the two
    // methods below.
    #[allow(clippy::disallowed_types)] std::sync::atomic::AtomicBool,
);

impl AbortFlag {
    /// Signal every worker to stop claiming runs.
    fn raise(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether some worker has raised the flag.
    fn is_raised(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Configuration of a multi-run campaign.
#[derive(Debug, Clone, Copy)]
pub struct MultiRunConfig {
    /// Number of runs (the paper uses 1000).
    pub n_runs: usize,
    /// Base seed; run `r` uses `base_seed + r` for its assignment (and for
    /// any policy randomness).
    pub base_seed: u64,
    /// Worker threads; `None` = all available cores.
    pub threads: Option<usize>,
}

impl Default for MultiRunConfig {
    fn default() -> Self {
        Self {
            n_runs: 1000,
            base_seed: 0,
            threads: None,
        }
    }
}

/// Builds a policy for one run, given the run's family assignment and seed.
pub type PolicyFactory<'a> = dyn Fn(&[ModelFamily], u64) -> Box<dyn KeepAlivePolicy> + Sync + 'a;

/// Campaign-level observability: counters and histograms accumulated
/// per-worker during [`run_many_observed`] and merged after the workers
/// join. Because registry merging is commutative and associative, the
/// totals are independent of worker scheduling.
///
/// Counters: `runs`, `invocations`, `cold_starts`, `warm_starts`,
/// `downgrades`. Histograms (one sample per run): `run_cost_uusd`
/// (keep-alive cost in micro-USD), `run_cold_starts`, `run_downgrades`.
#[derive(Debug, Clone, Default)]
pub struct CampaignObs {
    /// Number of per-worker registries merged into the totals.
    pub workers: usize,
    /// Campaign-wide counters.
    pub counters: CounterRegistry,
    /// Campaign-wide per-run distribution histograms.
    pub histograms: HistogramRegistry,
}

/// Keep-alive cost in micro-USD for histogram bucketing (costs are tiny
/// fractions of a dollar, so whole USD would collapse every run into
/// bucket 0).
fn usd_to_micro(usd: f64) -> u64 {
    let micro = (usd * 1e6).round();
    if micro.is_finite() && micro > 0.0 {
        // Guarded: non-negative, finite, and clamped below u64::MAX.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        if micro >= 1.8e19 {
            u64::MAX
        } else {
            micro as u64
        }
    } else {
        0
    }
}

/// Run the campaign: for each run, draw a random assignment from `zoo`,
/// build a policy via `factory`, simulate the whole trace, and return the
/// per-run metrics (ordered by run index, per-minute series dropped to keep
/// memory bounded).
pub fn run_many(
    trace: &Trace,
    zoo: &[ModelFamily],
    cfg: &MultiRunConfig,
    factory: &PolicyFactory<'_>,
) -> Vec<RunMetrics> {
    run_many_observed(trace, zoo, cfg, factory).0
}

/// [`run_many`] plus campaign observability: each worker keeps a private
/// [`CounterRegistry`]/[`HistogramRegistry`] (no shared mutable state on
/// the hot path) and the registries are merged once after the scope joins.
pub fn run_many_observed(
    trace: &Trace,
    zoo: &[ModelFamily],
    cfg: &MultiRunConfig,
    factory: &PolicyFactory<'_>,
) -> (Vec<RunMetrics>, CampaignObs) {
    let threads = cfg
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
        .min(cfg.n_runs.max(1));
    let next = AtomicUsize::new(0);
    let abort = AbortFlag::default();
    let results: Mutex<Vec<(usize, RunMetrics)>> = Mutex::new(Vec::with_capacity(cfg.n_runs));
    let obs_parts: Mutex<Vec<(CounterRegistry, HistogramRegistry)>> =
        Mutex::new(Vec::with_capacity(threads));
    // First failed run's diagnostic context (run index, seed, assignment),
    // so a 1000-run campaign that dies names the exact run to replay.
    let failure: Mutex<Option<String>> = Mutex::new(None);

    let scope_result = crossbeam::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|_| {
                let mut local: Vec<(usize, RunMetrics)> = Vec::new();
                let mut counters = CounterRegistry::new();
                let c_runs = counters.counter("runs");
                let c_invocations = counters.counter("invocations");
                let c_cold = counters.counter("cold_starts");
                let c_warm = counters.counter("warm_starts");
                let c_downgrades = counters.counter("downgrades");
                let mut histograms = HistogramRegistry::new();
                let h_cost = histograms.histogram("run_cost_uusd");
                let h_cold = histograms.histogram("run_cold_starts");
                let h_downgrades = histograms.histogram("run_downgrades");
                loop {
                    if abort.is_raised() {
                        break;
                    }
                    let r = next.fetch_add(1, Ordering::Relaxed);
                    if r >= cfg.n_runs {
                        break;
                    }
                    // Wrapping keeps seeds well-defined for campaigns whose
                    // base seed sits near u64::MAX (run r uses base + r mod 2⁶⁴).
                    let seed = cfg.base_seed.wrapping_add(r as u64);
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let assignment = random_assignment(zoo, trace.n_functions(), &mut rng);
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let sim = Simulator::new(trace.clone(), assignment.clone());
                        let mut policy = factory(&assignment, seed);
                        sim.run(policy.as_mut())
                    }));
                    match run {
                        Ok(mut m) => {
                            counters.inc(c_runs);
                            counters.add(c_invocations, m.invocations());
                            counters.add(c_cold, m.cold_starts);
                            counters.add(c_warm, m.warm_starts);
                            counters.add(c_downgrades, m.downgrades);
                            histograms.record(h_cost, usd_to_micro(m.keepalive_cost_usd));
                            histograms.record(h_cold, m.cold_starts);
                            histograms.record(h_downgrades, m.downgrades);
                            // Series are per-minute × n_runs — drop to bound
                            // memory.
                            m.memory_series_mb = Vec::new();
                            m.cost_series_usd = Vec::new();
                            local.push((r, m));
                        }
                        Err(payload) => {
                            abort.raise();
                            let cause = panic_message(payload.as_ref());
                            let zoo_idx: Vec<String> = assignment
                                .iter()
                                .map(|f| {
                                    zoo.iter()
                                        .position(|z| z.name == f.name)
                                        .map_or_else(|| "?".to_string(), |i| i.to_string())
                                })
                                .collect();
                            let msg = format!(
                                "run {r} (seed {seed}, zoo assignment [{}]) panicked: {cause}",
                                zoo_idx.join(",")
                            );
                            let mut slot = failure.lock();
                            if slot.is_none() {
                                *slot = Some(msg);
                            }
                            break;
                        }
                    }
                }
                results.lock().extend(local);
                obs_parts.lock().push((counters, histograms));
            });
        }
    });
    if let Some(msg) = failure.into_inner() {
        // Re-raise the worker's panic enriched with the failing run's
        // replay coordinates (the bare payload rarely identifies the run).
        std::panic::resume_unwind(Box::new(msg));
    }
    if let Err(panic) = scope_result {
        // A worker panicked outside a simulated run: surface the original
        // panic to the caller instead of wrapping it in a less informative
        // one.
        std::panic::resume_unwind(panic);
    }

    let mut runs = results.into_inner();
    runs.sort_by_key(|&(r, _)| r);
    debug_assert_eq!(runs.len(), cfg.n_runs, "every run produces one result");

    let parts = obs_parts.into_inner();
    let mut obs = CampaignObs {
        workers: parts.len(),
        ..CampaignObs::default()
    };
    for (counters, histograms) in &parts {
        obs.counters.merge(counters);
        obs.histograms.merge(histograms);
    }
    (runs.into_iter().map(|(_, m)| m).collect(), obs)
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Fold per-run metrics into a streaming aggregate.
pub fn aggregate(name: &str, runs: &[RunMetrics]) -> Aggregate {
    let mut agg = Aggregate::new(name);
    for m in runs {
        agg.push(m);
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{OpenWhiskFixed, PulsePolicy};
    use pulse_core::types::PulseConfig;
    use pulse_models::zoo;
    use pulse_trace::synth;

    fn small_cfg(n: usize) -> MultiRunConfig {
        MultiRunConfig {
            n_runs: n,
            base_seed: 7,
            threads: Some(4),
        }
    }

    #[test]
    fn runs_are_deterministic_given_seed() {
        let trace = synth::azure_like_12_with_horizon(3, 600);
        let z = zoo::standard();
        let factory: Box<PolicyFactory<'_>> =
            Box::new(|fams, _| Box::new(OpenWhiskFixed::new(fams)));
        let a = run_many(&trace, &z, &small_cfg(6), factory.as_ref());
        let b = run_many(&trace, &z, &small_cfg(6), factory.as_ref());
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn different_assignments_per_run() {
        let trace = synth::azure_like_12_with_horizon(3, 600);
        let z = zoo::standard();
        let factory: Box<PolicyFactory<'_>> =
            Box::new(|fams, _| Box::new(OpenWhiskFixed::new(fams)));
        let runs = run_many(&trace, &z, &small_cfg(8), factory.as_ref());
        // Different assignments ⇒ different costs (with overwhelming
        // probability over 8 runs of 12 draws from 5 families).
        let first = runs[0].keepalive_cost_usd;
        assert!(runs
            .iter()
            .any(|m| (m.keepalive_cost_usd - first).abs() > 1e-12));
    }

    #[test]
    fn aggregate_counts_match() {
        let trace = synth::azure_like_12_with_horizon(3, 400);
        let z = zoo::standard();
        let factory: Box<PolicyFactory<'_>> =
            Box::new(|fams, _| Box::new(PulsePolicy::new(fams.to_vec(), PulseConfig::default())));
        let runs = run_many(&trace, &z, &small_cfg(5), factory.as_ref());
        let agg = aggregate("pulse", &runs);
        assert_eq!(agg.runs(), 5);
        assert!(agg.keepalive_cost_usd.mean() > 0.0);
        assert!(agg.accuracy_pct.mean() > 50.0);
    }

    #[test]
    fn series_are_dropped() {
        let trace = synth::azure_like_12_with_horizon(3, 300);
        let z = zoo::standard();
        let factory: Box<PolicyFactory<'_>> =
            Box::new(|fams, _| Box::new(OpenWhiskFixed::new(fams)));
        let runs = run_many(&trace, &z, &small_cfg(2), factory.as_ref());
        assert!(runs.iter().all(|m| m.memory_series_mb.is_empty()));
    }

    #[test]
    fn worker_panic_carries_run_seed_and_assignment() {
        let trace = synth::azure_like_12_with_horizon(3, 100);
        let z = zoo::standard();
        // The factory blows up on one specific run; the re-raised panic must
        // name that run's replay coordinates.
        let factory: Box<PolicyFactory<'_>> = Box::new(|fams, seed| {
            assert_ne!(seed, 9, "injected factory failure");
            Box::new(OpenWhiskFixed::new(fams))
        });
        let cfg = small_cfg(4); // seeds 7..=10 — seed 9 is run 2
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_many(&trace, &z, &cfg, factory.as_ref())
        }))
        .expect_err("run 2 must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("enriched payload is a String");
        assert!(msg.contains("run 2"), "missing run index: {msg}");
        assert!(msg.contains("seed 9"), "missing seed: {msg}");
        assert!(
            msg.contains("zoo assignment ["),
            "missing assignment: {msg}"
        );
        assert!(
            msg.contains("injected factory failure"),
            "missing cause: {msg}"
        );
        // The assignment list has one zoo index per function.
        let idx = msg
            .split("zoo assignment [")
            .nth(1)
            .and_then(|s| s.split(']').next())
            .expect("bracketed list");
        assert_eq!(idx.split(',').count(), trace.n_functions());
    }

    #[test]
    fn seed_sum_wraps_at_u64_max() {
        // base + r overflows u64 on run 2; wrapping keeps the campaign
        // well-defined (and deterministic) instead of panicking in debug.
        let trace = synth::azure_like_12_with_horizon(3, 200);
        let z = zoo::standard();
        let factory: Box<PolicyFactory<'_>> =
            Box::new(|fams, _| Box::new(OpenWhiskFixed::new(fams)));
        let cfg = MultiRunConfig {
            n_runs: 4,
            base_seed: u64::MAX - 1,
            threads: Some(2),
        };
        let a = run_many(&trace, &z, &cfg, factory.as_ref());
        let b = run_many(&trace, &z, &cfg, factory.as_ref());
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        // Pin the wrapped seed sequence itself: MAX-1, MAX, 0, 1.
        let seen: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let recording: Box<PolicyFactory<'_>> = Box::new(|fams, seed| {
            seen.lock().push(seed);
            Box::new(OpenWhiskFixed::new(fams))
        });
        run_many(&trace, &z, &cfg, recording.as_ref());
        drop(recording);
        let mut seen = seen.into_inner();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn early_failure_aborts_remaining_runs() {
        let trace = synth::azure_like_12_with_horizon(3, 300);
        let z = zoo::standard();
        let cfg = MultiRunConfig {
            n_runs: 200,
            base_seed: 7,
            threads: Some(4),
        };
        let started = AtomicUsize::new(0);
        // Run 0 (seed 7) fails immediately; the abort flag must stop the
        // sibling workers from claiming the remaining ~200 runs.
        let factory: Box<PolicyFactory<'_>> = Box::new(|fams, seed| {
            started.fetch_add(1, Ordering::Relaxed);
            assert_ne!(seed, 7, "injected early failure");
            Box::new(OpenWhiskFixed::new(fams))
        });
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_many(&trace, &z, &cfg, factory.as_ref())
        }))
        .expect_err("run 0 must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("enriched payload is a String");
        assert!(msg.contains("run 0"), "missing run index: {msg}");
        let n = started.load(Ordering::Relaxed);
        assert!(
            n < cfg.n_runs / 2,
            "abort flag should leave most runs unexecuted, but {n} of {} started",
            cfg.n_runs
        );
    }

    #[test]
    fn observed_campaign_counters_match_metrics_and_scheduling() {
        let trace = synth::azure_like_12_with_horizon(3, 400);
        let z = zoo::standard();
        let factory: Box<PolicyFactory<'_>> =
            Box::new(|fams, _| Box::new(PulsePolicy::new(fams.to_vec(), PulseConfig::default())));
        let (runs, obs) = run_many_observed(&trace, &z, &small_cfg(6), factory.as_ref());
        // Counters reconcile exactly with the per-run metrics.
        assert_eq!(obs.counters.get("runs"), 6);
        let invocations: u64 = runs.iter().map(RunMetrics::invocations).sum();
        assert_eq!(obs.counters.get("invocations"), invocations);
        assert_eq!(
            obs.counters.get("cold_starts"),
            runs.iter().map(|m| m.cold_starts).sum::<u64>()
        );
        assert_eq!(
            obs.counters.get("warm_starts"),
            runs.iter().map(|m| m.warm_starts).sum::<u64>()
        );
        assert_eq!(
            obs.counters.get("downgrades"),
            runs.iter().map(|m| m.downgrades).sum::<u64>()
        );
        // Histograms carry one sample per run.
        for name in ["run_cost_uusd", "run_cold_starts", "run_downgrades"] {
            assert_eq!(obs.histograms.get(name).expect(name).count(), 6, "{name}");
        }
        assert!(obs.histograms.get("run_cost_uusd").unwrap().sum() > 0);
        // Merged totals are independent of worker scheduling.
        let seq_cfg = MultiRunConfig {
            threads: Some(1),
            ..small_cfg(6)
        };
        let (seq_runs, seq_obs) = run_many_observed(&trace, &z, &seq_cfg, factory.as_ref());
        assert_eq!(runs, seq_runs);
        assert_eq!(seq_obs.workers, 1);
        assert_eq!(obs.counters, seq_obs.counters);
        let pairs: Vec<_> = obs.histograms.iter().collect();
        let seq_pairs: Vec<_> = seq_obs.histograms.iter().collect();
        assert_eq!(pairs, seq_pairs);
    }

    #[test]
    fn single_thread_matches_parallel() {
        let trace = synth::azure_like_12_with_horizon(3, 500);
        let z = zoo::standard();
        let factory: Box<PolicyFactory<'_>> =
            Box::new(|fams, _| Box::new(OpenWhiskFixed::new(fams)));
        let par = run_many(&trace, &z, &small_cfg(4), factory.as_ref());
        let seq_cfg = MultiRunConfig {
            threads: Some(1),
            ..small_cfg(4)
        };
        let seq = run_many(&trace, &z, &seq_cfg, factory.as_ref());
        assert_eq!(par, seq);
    }
}
