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
use pulse_core::individual::KeepAliveSchedule;
use pulse_core::interarrival::InterArrivalModel;
use pulse_core::probability::Probability;
use pulse_core::types::{FuncId, Minute, PulseConfig};
use pulse_core::utility::utility_value;
use pulse_core::PulseEngine;
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

/// PULSE with a configurable flatten score — the ablation vehicle. It
/// plans and detects peaks through a [`PulseEngine`]; only the victim
/// score its peak step hands to `flatten_peak_with` differs from PULSE.
pub struct AblationPolicy {
    engine: PulseEngine,
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
        Self {
            engine: PulseEngine::new(families, config),
            mode,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Largest share of total downgrades absorbed by a single function
    /// (1.0 = one function takes everything; ~1/n = perfectly spread).
    pub fn victim_concentration(&self) -> f64 {
        let priority = self.engine.priority();
        let counts = (0..priority.len()).map(|f| priority.count(f));
        let total: u64 = counts.clone().sum();
        if total == 0 {
            return 0.0;
        }
        counts.max().unwrap_or(0) as f64 / total as f64
    }
}

impl KeepAlivePolicy for AblationPolicy {
    fn name(&self) -> &str {
        "pulse-ablation"
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        self.engine.record_invocation(f, t);
        self.engine.schedule_after_invocation(f, t)
    }

    fn cold_start_variant(&mut self, f: FuncId, _t: Minute) -> usize {
        self.engine.family(f).highest_id()
    }

    fn adjust_minute(
        &mut self,
        t: Minute,
        mem_history: &[f64],
        first_minute_of_period: bool,
        current_kam_mb: f64,
        alive: &mut Vec<AliveModel>,
    ) -> Vec<DowngradeAction> {
        let (mode, rng) = (self.mode, &mut self.rng);
        self.engine
            .peak_step(
                t,
                mem_history,
                first_minute_of_period,
                current_kam_mb,
                alive,
                |p| {
                    // Random mode needs per-peak randomness; draw a salt
                    // outside the score (which is Fn, not FnMut).
                    let salt: u64 = rng.gen();
                    let score = move |m: &_, fam: &_, pr| score(mode, salt, m, fam, pr);
                    let (kam, target) = (p.current_kam_mb, p.target_kam_mb);
                    flatten_peak_with(p.alive, p.families, p.priority, kam, target, score).actions
                },
            )
            .unwrap_or_default()
    }
}

/// The victim score of `mode`: the lowest-scoring alive model is
/// downgraded first.
fn score(mode: UtilityMode, salt: u64, m: &AliveModel, fam: &ModelFamily, pr: f64) -> f64 {
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
/// layer off, to isolate the effect), planned from that distribution of
/// [`InterArrivalModel`]'s.
pub struct ProbSourcePolicy {
    families: Vec<ModelFamily>,
    arrivals: Vec<InterArrivalModel>,
    config: PulseConfig,
    source: ProbSource,
}

impl ProbSourcePolicy {
    /// Build with the given source.
    pub fn new(families: Vec<ModelFamily>, config: PulseConfig, source: ProbSource) -> Self {
        let n = families.len();
        Self {
            arrivals: vec![InterArrivalModel::new(config.keepalive_minutes); n],
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
        let n = self.families[f].n_variants();
        let plan = (1..=u64::from(self.config.keepalive_minutes))
            .map(|m| self.config.scheme.select(probs.prob(m), n))
            .collect();
        KeepAliveSchedule::new(t, plan)
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
