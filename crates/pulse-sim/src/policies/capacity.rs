//! Hard memory-capacity enforcement (Section III-A's motivation).
//!
//! "The memory, a finite resource for serverless providers, is shared
//! between actual invocations and keep-alive. … During peak memory
//! consumption when total memory consumption exceeds available resources,
//! random functions/models are downgraded, which may result in models with
//! higher-chance of invocation being downgraded while lower-chance models
//! are kept alive."
//!
//! Two enforcers over a hard capacity:
//!
//! * [`CapacityRandom`] — the provider-baseline behaviour: wraps any
//!   scheduling policy and, when keep-alive demand exceeds the capacity,
//!   downgrades *uniformly random* victims until it fits;
//! * [`CapacityPulse`] — PULSE under the same hard cap: schedules with the
//!   individual optimizer and resolves over-capacity minutes with
//!   Algorithm 2's utility-ordered downgrades (the cap acts as the flatten
//!   target).
//!
//! Comparing the two isolates the value of *unbiased, utility-aware*
//! victim selection — the quantified version of the paper's motivating
//! argument.

use crate::policy::KeepAlivePolicy;
use pulse_core::global::{flatten_peak, AliveModel, DowngradeAction};
use pulse_core::individual::KeepAliveSchedule;
use pulse_core::priority::PriorityStructure;
use pulse_core::types::{FuncId, Minute, PulseConfig};
use pulse_core::PulseEngine;
use pulse_models::{ModelFamily, VariantId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random-victim capacity enforcement around an inner scheduling policy.
pub struct CapacityRandom<P> {
    inner: P,
    families: Vec<ModelFamily>,
    capacity_mb: f64,
    rng: SmallRng,
}

impl<P: KeepAlivePolicy> CapacityRandom<P> {
    /// Enforce `capacity_mb` over `inner`'s schedules, choosing victims
    /// uniformly at random (seeded for reproducibility).
    pub fn new(inner: P, families: Vec<ModelFamily>, capacity_mb: f64, seed: u64) -> Self {
        assert!(capacity_mb >= 0.0);
        Self {
            inner,
            families,
            capacity_mb,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl<P: KeepAlivePolicy> KeepAlivePolicy for CapacityRandom<P> {
    fn name(&self) -> &str {
        "capacity-random"
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        self.inner.schedule_on_invocation(f, t)
    }

    fn cold_start_variant(&mut self, f: FuncId, t: Minute) -> VariantId {
        self.inner.cold_start_variant(f, t)
    }

    fn adjust_minute(
        &mut self,
        t: Minute,
        mem_history: &[f64],
        first_minute_of_period: bool,
        current_kam_mb: f64,
        alive: &mut Vec<AliveModel>,
    ) -> Vec<DowngradeAction> {
        let mut actions = self.inner.adjust_minute(
            t,
            mem_history,
            first_minute_of_period,
            current_kam_mb,
            alive,
        );
        let mut kam = current_kam_mb;
        while kam > self.capacity_mb && !alive.is_empty() {
            let idx = self.rng.gen_range(0..alive.len());
            let func = alive[idx].func;
            let from = alive[idx].variant;
            let fam = &self.families[func];
            if from > 0 {
                kam -= fam.variant(from).memory_mb - fam.variant(from - 1).memory_mb;
                alive[idx].variant = from - 1;
                actions.push(DowngradeAction::Downgrade {
                    func,
                    from,
                    to: from - 1,
                });
            } else {
                kam -= fam.variant(0).memory_mb;
                alive.swap_remove(idx);
                actions.push(DowngradeAction::Evict { func, from });
            }
        }
        actions
    }
}

/// PULSE under a hard memory cap: the cap replaces the relative peak
/// detector as the flatten trigger/target. Maintains its own priority
/// structure (the engine's is reserved for the relative detector), so
/// victim selection stays unbiased over time.
pub struct CapacityPulse {
    engine: PulseEngine,
    priority: PriorityStructure,
    capacity_mb: f64,
}

impl CapacityPulse {
    /// PULSE scheduling with utility-ordered enforcement of `capacity_mb`.
    pub fn new(families: Vec<ModelFamily>, config: PulseConfig, capacity_mb: f64) -> Self {
        assert!(capacity_mb >= 0.0);
        let n = families.len();
        Self {
            engine: PulseEngine::new(families, config),
            priority: PriorityStructure::new(n),
            capacity_mb,
        }
    }

    /// The per-function downgrade counts accrued so far.
    pub fn priority(&self) -> &PriorityStructure {
        &self.priority
    }
}

impl KeepAlivePolicy for CapacityPulse {
    fn name(&self) -> &str {
        "capacity-pulse"
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        self.engine.record_invocation(f, t);
        self.engine.schedule_after_invocation(f, t)
    }

    fn cold_start_variant(&mut self, f: FuncId, _t: Minute) -> VariantId {
        self.engine.family(f).highest_id()
    }

    fn adjust_minute(
        &mut self,
        t: Minute,
        _mem_history: &[f64],
        _first_minute_of_period: bool,
        current_kam_mb: f64,
        alive: &mut Vec<AliveModel>,
    ) -> Vec<DowngradeAction> {
        if current_kam_mb <= self.capacity_mb {
            return Vec::new();
        }
        for m in alive.iter_mut() {
            m.invocation_probability = self.engine.invocation_probability_at(m.func, t);
        }
        flatten_peak(
            alive,
            self.engine.families(),
            &mut self.priority,
            current_kam_mb,
            self.capacity_mb,
        )
        .actions
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::policies::OpenWhiskFixed;
    use pulse_models::zoo;
    use pulse_trace::synth;

    fn setup(capacity_frac: f64) -> (pulse_trace::Trace, Vec<ModelFamily>, f64) {
        let trace = synth::azure_like_12_with_horizon(31, 1500);
        let fams: Vec<ModelFamily> = (0..12).map(|i| zoo::standard()[i % 5].clone()).collect();
        let all_high: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
        (trace, fams, all_high * capacity_frac)
    }

    #[test]
    fn both_enforcers_respect_the_cap() {
        let (trace, fams, cap) = setup(0.4);
        let sim = Simulator::new(trace, fams.clone());
        let random = sim.run(&mut CapacityRandom::new(
            OpenWhiskFixed::new(&fams),
            fams.clone(),
            cap,
            7,
        ));
        let pulse = sim.run(&mut CapacityPulse::new(
            fams.clone(),
            PulseConfig::default(),
            cap,
        ));
        for m in [&random, &pulse] {
            assert!(
                m.peak_memory_mb() <= cap + 1e-6,
                "{}: peak {} over cap {cap}",
                m.policy,
                m.peak_memory_mb()
            );
        }
        assert!(random.downgrades > 0);
    }

    #[test]
    fn utility_selection_beats_random_on_warm_accuracy_tradeoff() {
        let (trace, fams, cap) = setup(0.35);
        let sim = Simulator::new(trace, fams.clone());
        let random = sim.run(&mut CapacityRandom::new(
            OpenWhiskFixed::new(&fams),
            fams.clone(),
            cap,
            7,
        ));
        let pulse = sim.run(&mut CapacityPulse::new(
            fams.clone(),
            PulseConfig::default(),
            cap,
        ));
        // The paper's motivating claim: random victim selection downgrades
        // models with a high chance of invocation; utility-aware selection
        // protects them, delivering more warm value per unit of memory.
        // Warm-accuracy product is the combined figure of merit.
        let merit = |m: &crate::metrics::RunMetrics| m.warm_fraction() * m.avg_accuracy_pct();
        assert!(
            merit(&pulse) > merit(&random) * 0.98,
            "pulse merit {} vs random merit {}",
            merit(&pulse),
            merit(&random)
        );
        // And it does so at lower keep-alive cost (variant mixing).
        assert!(pulse.keepalive_cost_usd < random.keepalive_cost_usd);
    }

    #[test]
    fn generous_capacity_never_triggers() {
        let (trace, fams, _) = setup(0.4);
        let sim = Simulator::new(trace, fams.clone());
        let m = sim.run(&mut CapacityRandom::new(
            OpenWhiskFixed::new(&fams),
            fams.clone(),
            f64::INFINITY,
            7,
        ));
        assert_eq!(m.downgrades, 0);
    }

    #[test]
    fn zero_capacity_keeps_nothing_alive() {
        let (trace, fams, _) = setup(0.4);
        let sim = Simulator::new(trace, fams.clone());
        let m = sim.run(&mut CapacityPulse::new(fams, PulseConfig::default(), 0.0));
        assert_eq!(m.peak_memory_mb(), 0.0);
        assert_eq!(m.keepalive_cost_usd, 0.0);
        // Warm starts can only come from same-minute container reuse; every
        // distinct invocation minute cold-starts.
        let distinct_minutes: u64 = sim
            .trace()
            .functions()
            .iter()
            .map(|f| f.invocation_minutes().len() as u64)
            .sum();
        assert_eq!(m.cold_starts, distinct_minutes);
    }

    #[test]
    fn capacity_pulse_spreads_downgrades_via_priority() {
        let (trace, fams, cap) = setup(0.3);
        let sim = Simulator::new(trace, fams.clone());
        let mut p = CapacityPulse::new(fams.clone(), PulseConfig::default(), cap);
        let _ = sim.run(&mut p);
        let counts: Vec<u64> = (0..fams.len()).map(|f| p.priority().count(f)).collect();
        let victims = counts.iter().filter(|&&c| c > 0).count();
        // Unbiasedness: pressure spreads over many functions, not one.
        assert!(victims >= fams.len() / 2, "victims {victims}: {counts:?}");
    }
}
