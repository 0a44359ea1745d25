//! **Extension ablations** — quantifying the design choices the paper
//! argues for but does not ablate:
//!
//! * `ablation-utility` — which components of `Uv = Ai + Pr + Ip` matter:
//!   full utility vs no-priority (`Ai + Ip`), no-probability (`Ai + Pr`),
//!   accuracy-only (`Ai`), and random victim selection. Reports the three
//!   headline metrics plus the *victim concentration* (largest share of
//!   downgrades absorbed by one function — the bias the priority structure
//!   exists to prevent).
//! * `ablation-probability` — the individual optimizer's probability
//!   source: local window only, full history only, or the paper's average
//!   of both (Section III-A's stated motivation for using two windows).
//! * `capacity` — hard memory caps: the provider-baseline *random*
//!   downgrade (Section III-A's motivating strawman) vs PULSE's
//!   utility-ordered downgrade at several capacities.

use crate::common::ExpConfig;
use crate::report::{fmt, Table};
use pulse_core::global::{flatten_peak_with, AliveModel, DowngradeAction};
use pulse_core::individual::{IndividualOptimizer, KeepAliveSchedule};
use pulse_core::interarrival::InterArrivalModel;
use pulse_core::peak::PeakDetector;
use pulse_core::priority::PriorityStructure;
use pulse_core::probability::Probability;
use pulse_core::types::{FuncId, Minute, PulseConfig};
use pulse_core::utility::utility_value;
use pulse_models::ModelFamily;
use pulse_sim::assignment::round_robin_assignment;
use pulse_sim::policies::{CapacityPulse, CapacityRandom, OpenWhiskFixed};
use pulse_sim::policy::KeepAlivePolicy;
use pulse_sim::{RunMetrics, Simulator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Victim-scoring modes for the utility ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UtilityMode {
    /// The paper's `Uv = Ai + Pr + Ip`.
    Full,
    /// Drop the priority term: `Ai + Ip`.
    NoPriority,
    /// Drop the invocation-probability term: `Ai + Pr`.
    NoProbability,
    /// Accuracy improvement alone.
    AccuracyOnly,
    /// Uniform random victim (scores are random draws).
    Random,
}

impl UtilityMode {
    /// All modes in presentation order.
    pub const ALL: [UtilityMode; 5] = [
        UtilityMode::Full,
        UtilityMode::NoPriority,
        UtilityMode::NoProbability,
        UtilityMode::AccuracyOnly,
        UtilityMode::Random,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            UtilityMode::Full => "Uv = Ai+Pr+Ip (paper)",
            UtilityMode::NoPriority => "Ai+Ip (no priority)",
            UtilityMode::NoProbability => "Ai+Pr (no probability)",
            UtilityMode::AccuracyOnly => "Ai only",
            UtilityMode::Random => "random victim",
        }
    }
}

/// PULSE with a configurable flatten score — the ablation vehicle.
pub struct AblationPolicy {
    families: Vec<ModelFamily>,
    arrivals: Vec<InterArrivalModel>,
    priority: PriorityStructure,
    detector: PeakDetector,
    optimizer: IndividualOptimizer,
    config: PulseConfig,
    mode: UtilityMode,
    rng: SmallRng,
}

impl AblationPolicy {
    /// Build with the given scoring mode.
    pub fn new(
        families: Vec<ModelFamily>,
        config: PulseConfig,
        mode: UtilityMode,
        seed: u64,
    ) -> Self {
        let n = families.len();
        Self {
            detector: PeakDetector::new(config.km_threshold, config.local_window as usize),
            optimizer: IndividualOptimizer::new(config.keepalive_minutes),
            arrivals: vec![InterArrivalModel::new(config.keepalive_minutes); n],
            priority: PriorityStructure::new(n),
            families,
            config,
            mode,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Largest share of total downgrades absorbed by a single function
    /// (1.0 = one function takes everything; ~1/n = perfectly spread).
    pub fn victim_concentration(&self) -> f64 {
        let total: u64 = (0..self.families.len())
            .map(|f| self.priority.count(f))
            .sum();
        if total == 0 {
            return 0.0;
        }
        let max = (0..self.families.len())
            .map(|f| self.priority.count(f))
            .max()
            .unwrap_or(0);
        max as f64 / total as f64
    }
}

impl KeepAlivePolicy for AblationPolicy {
    fn name(&self) -> &str {
        "pulse-ablation"
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        self.arrivals[f].record(t);
        let probs = self.arrivals[f].probabilities(t, self.config.local_window);
        self.optimizer
            .schedule(t, &probs, self.families[f].n_variants(), self.config.scheme)
    }

    fn cold_start_variant(&mut self, f: FuncId, _t: Minute) -> usize {
        self.families[f].highest_id()
    }

    fn adjust_minute(
        &mut self,
        t: Minute,
        mem_history: &[f64],
        first_minute_of_period: bool,
        current_kam_mb: f64,
        alive: &mut Vec<AliveModel>,
    ) -> Vec<DowngradeAction> {
        let prior = self.detector.prior_kam(mem_history, first_minute_of_period);
        if !self.detector.is_peak(current_kam_mb, prior) {
            return Vec::new();
        }
        for m in alive.iter_mut() {
            m.invocation_probability = self.arrivals[m.func]
                .invocation_probability_at(t, self.config.local_window)
                .value();
        }
        let target = self.detector.flatten_target(prior);
        let mode = self.mode;
        // Random mode needs per-call randomness; draw a salt outside the
        // closure (the closure is Fn, not FnMut).
        let salt: u64 = self.rng.gen();
        let outcome = flatten_peak_with(
            alive,
            &self.families,
            &mut self.priority,
            current_kam_mb,
            target,
            move |m, fam, pr| {
                let ai = fam.accuracy_improvement(m.variant);
                let ip = m.invocation_probability.clamp(0.0, 1.0);
                match mode {
                    UtilityMode::Full => {
                        utility_value(ai, Probability::saturating(pr), Probability::saturating(ip))
                    }
                    UtilityMode::NoPriority => ai + ip,
                    UtilityMode::NoProbability => ai + pr,
                    UtilityMode::AccuracyOnly => ai,
                    UtilityMode::Random => {
                        // Deterministic hash of (salt, func, variant) → [0,1).
                        let mut h = salt ^ (m.func as u64).wrapping_mul(0x9E3779B97F4A7C15);
                        h ^= (m.variant as u64).wrapping_mul(0xD1B54A32D192ED03);
                        h ^= h >> 33;
                        h = h.wrapping_mul(0xFF51AFD7ED558CCD);
                        h ^= h >> 33;
                        (h >> 11) as f64 / (1u64 << 53) as f64
                    }
                }
            },
        );
        outcome.actions
    }
}

/// Run the utility-component ablation.
pub fn run_utility(cfg: &ExpConfig) -> String {
    let trace = cfg.trace();
    let fams = round_robin_assignment(&cfg.zoo(), trace.n_functions());
    let sim = Simulator::new(trace, fams.clone());
    let mut table = Table::new(
        "Ablation: components of the downgrade utility Uv",
        &[
            "Scoring",
            "Cost ($)",
            "Service (s)",
            "Accuracy (%)",
            "Downgrades",
            "Victim conc.",
        ],
    );
    for mode in UtilityMode::ALL {
        let mut p = AblationPolicy::new(fams.clone(), PulseConfig::default(), mode, cfg.seed);
        let m = sim.run(&mut p);
        table.row(vec![
            mode.label().to_string(),
            fmt(m.keepalive_cost_usd, 3),
            fmt(m.service_time_s, 0),
            fmt(m.avg_accuracy_pct(), 2),
            m.downgrades.to_string(),
            fmt(p.victim_concentration(), 3),
        ]);
    }
    table.render()
}

/// Probability-source modes for the individual-optimizer ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbSource {
    /// Local sliding window only.
    LocalOnly,
    /// Full history only.
    GlobalOnly,
    /// The paper's element-wise average of both.
    Averaged,
}

/// PULSE's individual layer with a selectable probability source (global
/// layer off, to isolate the effect).
pub struct ProbSourcePolicy {
    families: Vec<ModelFamily>,
    arrivals: Vec<InterArrivalModel>,
    optimizer: IndividualOptimizer,
    config: PulseConfig,
    source: ProbSource,
}

impl ProbSourcePolicy {
    /// Build with the given source.
    pub fn new(families: Vec<ModelFamily>, config: PulseConfig, source: ProbSource) -> Self {
        let n = families.len();
        Self {
            arrivals: vec![InterArrivalModel::new(config.keepalive_minutes); n],
            optimizer: IndividualOptimizer::new(config.keepalive_minutes),
            families,
            config,
            source,
        }
    }
}

impl KeepAlivePolicy for ProbSourcePolicy {
    fn name(&self) -> &str {
        match self.source {
            ProbSource::LocalOnly => "prob-local-only",
            ProbSource::GlobalOnly => "prob-global-only",
            ProbSource::Averaged => "prob-averaged",
        }
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        self.arrivals[f].record(t);
        let lw = self.config.local_window;
        let probs = match self.source {
            ProbSource::LocalOnly => self.arrivals[f].local_distribution(t, lw),
            ProbSource::GlobalOnly => self.arrivals[f].global_distribution(),
            ProbSource::Averaged => self.arrivals[f].probabilities(t, lw),
        };
        self.optimizer
            .schedule(t, &probs, self.families[f].n_variants(), self.config.scheme)
    }

    fn cold_start_variant(&mut self, f: FuncId, _t: Minute) -> usize {
        self.families[f].highest_id()
    }
}

/// Run the probability-source ablation.
pub fn run_probability(cfg: &ExpConfig) -> String {
    let trace = cfg.trace();
    let fams = round_robin_assignment(&cfg.zoo(), trace.n_functions());
    let sim = Simulator::new(trace, fams.clone());
    let mut table = Table::new(
        "Ablation: probability source for the individual optimizer",
        &[
            "Source",
            "Cost ($)",
            "Service (s)",
            "Accuracy (%)",
            "Warm rate",
        ],
    );
    for source in [
        ProbSource::LocalOnly,
        ProbSource::GlobalOnly,
        ProbSource::Averaged,
    ] {
        let mut p = ProbSourcePolicy::new(fams.clone(), PulseConfig::default(), source);
        let name = p.name().to_string();
        let m = sim.run(&mut p);
        table.row(vec![
            name,
            fmt(m.keepalive_cost_usd, 3),
            fmt(m.service_time_s, 0),
            fmt(m.avg_accuracy_pct(), 2),
            format!("{:.1}%", m.warm_fraction() * 100.0),
        ]);
    }
    table.render()
}

/// Run the hard-capacity comparison (random vs utility victim selection).
pub fn run_capacity(cfg: &ExpConfig) -> String {
    let trace = cfg.trace();
    let fams = round_robin_assignment(&cfg.zoo(), trace.n_functions());
    let all_high: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
    let sim = Simulator::new(trace, fams.clone());
    let mut table = Table::new(
        "Capacity enforcement: random downgrades vs PULSE utility downgrades",
        &[
            "Capacity",
            "Enforcer",
            "Cost ($)",
            "Service (s)",
            "Accuracy (%)",
            "Cold starts",
        ],
    );
    for frac in [0.3, 0.5, 0.7] {
        let cap = all_high * frac;
        let runs: Vec<RunMetrics> = vec![
            sim.run(&mut CapacityRandom::new(
                OpenWhiskFixed::new(&fams),
                fams.clone(),
                cap,
                cfg.seed,
            )),
            sim.run(&mut CapacityPulse::new(
                fams.clone(),
                PulseConfig::default(),
                cap,
            )),
        ];
        for m in runs {
            table.row(vec![
                format!("{:.0}% of all-high", frac * 100.0),
                m.policy.clone(),
                fmt(m.keepalive_cost_usd, 3),
                fmt(m.service_time_s, 0),
                fmt(m.avg_accuracy_pct(), 2),
                m.cold_starts.to_string(),
            ]);
        }
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            seed: 42,
            horizon: 1500,
            n_runs: 2,
            trace_out: None,
            serve: Default::default(),
        }
    }

    #[test]
    fn full_utility_spreads_victims_better_than_accuracy_only() {
        let cfg = tiny();
        let trace = cfg.trace();
        let fams = round_robin_assignment(&cfg.zoo(), trace.n_functions());
        let sim = Simulator::new(trace, fams.clone());
        let mut full =
            AblationPolicy::new(fams.clone(), PulseConfig::default(), UtilityMode::Full, 1);
        let mut ai_only = AblationPolicy::new(
            fams.clone(),
            PulseConfig::default(),
            UtilityMode::AccuracyOnly,
            1,
        );
        let _ = sim.run(&mut full);
        let _ = sim.run(&mut ai_only);
        // Ai-only systematically victimizes the lowest-Ai ladder (the bias
        // the paper's YOLO/GPT example describes); the priority term spreads
        // the load.
        assert!(
            full.victim_concentration() <= ai_only.victim_concentration() + 1e-9,
            "full {} vs ai-only {}",
            full.victim_concentration(),
            ai_only.victim_concentration()
        );
    }

    #[test]
    fn all_modes_flatten_peaks() {
        let cfg = tiny();
        let trace = cfg.trace();
        let fams = round_robin_assignment(&cfg.zoo(), trace.n_functions());
        let sim = Simulator::new(trace, fams.clone());
        for mode in UtilityMode::ALL {
            let mut p = AblationPolicy::new(fams.clone(), PulseConfig::default(), mode, 3);
            let m = sim.run(&mut p);
            assert!(m.downgrades > 0, "{mode:?} never downgraded");
        }
    }

    #[test]
    fn probability_sources_all_produce_valid_runs() {
        let out = run_probability(&tiny());
        assert!(out.contains("prob-local-only"));
        assert!(out.contains("prob-global-only"));
        assert!(out.contains("prob-averaged"));
    }

    #[test]
    fn capacity_report_renders_all_fractions() {
        let out = run_capacity(&tiny());
        assert!(out.contains("30% of all-high"));
        assert!(out.contains("70% of all-high"));
        assert!(out.contains("capacity-pulse"));
    }

    #[test]
    fn utility_report_renders_all_modes() {
        let out = run_utility(&tiny());
        for mode in UtilityMode::ALL {
            assert!(out.contains(mode.label()), "missing {mode:?}");
        }
    }
}
