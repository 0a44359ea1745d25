//! Trace characterization in the style of the ATC'20 "Serverless in the
//! Wild" analysis the paper builds on: per-function invocation statistics,
//! idle-time distribution classes, burstiness and periodicity measures.
//!
//! The Wild policy's histogram-vs-ARIMA split, PULSE's local-window choice,
//! and the workload generator's calibration all reason in these terms; this
//! module makes them first-class so users can characterize their own traces
//! before trusting a policy with them.

use crate::trace::{FunctionTrace, Trace};
use pulse_models::stats;

/// Qualitative class of a function's idle-time (inter-arrival) behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleClass {
    /// Too few invocations to say anything (< 3 gaps).
    Insufficient,
    /// Tight, regular cadence: coefficient of variation < 0.3.
    Periodic,
    /// Moderate spread: CV in [0.3, 1.1] — Poisson-like.
    Irregular,
    /// Heavy tail / bursty: CV > 1.1.
    HeavyTailed,
}

/// Per-function characterization summary.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionProfile {
    /// Function name.
    pub name: String,
    /// Total invocations over the horizon.
    pub invocations: u64,
    /// Fraction of minutes with at least one invocation.
    pub active_minute_frac: f64,
    /// Mean inter-arrival gap, minutes (0 with < 2 invocation minutes).
    pub mean_gap_min: f64,
    /// Median gap, minutes.
    pub median_gap_min: f64,
    /// 99th-percentile gap, minutes.
    pub p99_gap_min: f64,
    /// Coefficient of variation of the gaps (σ/μ).
    pub gap_cv: f64,
    /// Burstiness index `B = (σ − μ)/(σ + μ)` ∈ [−1, 1]:
    /// −1 = perfectly periodic, 0 = Poisson, → 1 = extremely bursty.
    pub burstiness: f64,
    /// Idle-behaviour class derived from the CV.
    pub class: IdleClass,
    /// Probability mass of gaps within the 10-minute keep-alive window —
    /// how much of this function a fixed 10-minute policy can ever serve
    /// warm.
    pub in_window_mass: f64,
}

/// Characterize one function.
pub fn profile_function(f: &FunctionTrace) -> FunctionProfile {
    let gaps: Vec<f64> = f.gaps().iter().map(|&g| g as f64).collect();
    let invocations = f.total_invocations();
    let active = f.invocation_minutes().len();
    let (mean, median, p99, cv, burstiness, class, in_window) = if gaps.len() < 3 {
        (
            stats::mean(&gaps),
            stats::percentile(&gaps, 50.0),
            stats::percentile(&gaps, 99.0),
            0.0,
            0.0,
            IdleClass::Insufficient,
            0.0,
        )
    } else {
        let mean = stats::mean(&gaps);
        let sd = stats::std_dev(&gaps);
        let cv = if mean > 0.0 { sd / mean } else { 0.0 };
        let burstiness = if sd + mean > 0.0 {
            (sd - mean) / (sd + mean)
        } else {
            0.0
        };
        let class = if cv < 0.3 {
            IdleClass::Periodic
        } else if cv <= 1.1 {
            IdleClass::Irregular
        } else {
            IdleClass::HeavyTailed
        };
        let in_window = gaps.iter().filter(|&&g| g <= 10.0).count() as f64 / gaps.len() as f64;
        (
            mean,
            stats::percentile(&gaps, 50.0),
            stats::percentile(&gaps, 99.0),
            cv,
            burstiness,
            class,
            in_window,
        )
    };
    FunctionProfile {
        name: f.name.clone(),
        invocations,
        active_minute_frac: active as f64 / f.minutes() as f64,
        mean_gap_min: mean,
        median_gap_min: median,
        p99_gap_min: p99,
        gap_cv: cv,
        burstiness,
        class,
        in_window_mass: in_window,
    }
}

/// Characterize every function of a workload.
pub fn profile_trace(trace: &Trace) -> Vec<FunctionProfile> {
    trace.functions().iter().map(profile_function).collect()
}

/// Workload-level roll-up.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    /// Per-class function counts: (periodic, irregular, heavy-tailed,
    /// insufficient).
    pub class_counts: (usize, usize, usize, usize),
    /// Total invocations.
    pub invocations: u64,
    /// Mean of per-function in-window mass (weighted by nothing — the
    /// figure the 10-minute policy debate turns on).
    pub mean_in_window_mass: f64,
    /// Peak-to-mean ratio of the cumulative per-minute invocation series —
    /// the "sudden spikes" measure of Observation 2.
    pub peak_to_mean: f64,
}

/// Roll a workload up.
pub fn profile_summary(trace: &Trace) -> TraceProfile {
    let profiles = profile_trace(trace);
    let mut counts = (0usize, 0usize, 0usize, 0usize);
    for p in &profiles {
        match p.class {
            IdleClass::Periodic => counts.0 += 1,
            IdleClass::Irregular => counts.1 += 1,
            IdleClass::HeavyTailed => counts.2 += 1,
            IdleClass::Insufficient => counts.3 += 1,
        }
    }
    let totals = crate::peaks::total_per_minute(trace);
    let totals_f: Vec<f64> = totals.iter().map(|&c| c as f64).collect();
    let mean = stats::mean(&totals_f);
    let peak = totals_f.iter().copied().fold(0.0f64, f64::max);
    TraceProfile {
        class_counts: counts,
        invocations: trace.total_invocations(),
        mean_in_window_mass: stats::mean(
            &profiles
                .iter()
                .map(|p| p.in_window_mass)
                .collect::<Vec<_>>(),
        ),
        peak_to_mean: if mean > 0.0 { peak / mean } else { 0.0 },
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;
    use crate::synth::{azure_like_12, Archetype};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn gen(a: Archetype, minutes: usize) -> FunctionTrace {
        let mut rng = SmallRng::seed_from_u64(99);
        FunctionTrace::new("x", a.generate(minutes, &mut rng))
    }

    #[test]
    fn pure_cadence_is_periodic_with_negative_burstiness() {
        let p = profile_function(&gen(
            Archetype::SteadyPeriodic {
                period_min: 5,
                jitter_min: 0,
            },
            2000,
        ));
        assert_eq!(p.class, IdleClass::Periodic);
        assert!(p.gap_cv < 0.05);
        assert!(p.burstiness < -0.9, "burstiness {}", p.burstiness);
        assert!((p.mean_gap_min - 5.0).abs() < 0.1);
        assert!((p.in_window_mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn poisson_is_irregular_near_zero_burstiness() {
        let p = profile_function(&gen(Archetype::Poisson { rate: 0.2 }, 50_000));
        assert_eq!(p.class, IdleClass::Irregular, "cv = {}", p.gap_cv);
        assert!(p.burstiness.abs() < 0.25, "burstiness {}", p.burstiness);
    }

    #[test]
    fn pareto_gaps_are_heavy_tailed() {
        let p = profile_function(&gen(
            Archetype::HeavyTailed {
                min_gap: 2.0,
                alpha: 1.2,
            },
            100_000,
        ));
        assert_eq!(p.class, IdleClass::HeavyTailed, "cv = {}", p.gap_cv);
        assert!(p.burstiness > 0.0);
        assert!(p.p99_gap_min > 5.0 * p.median_gap_min);
    }

    #[test]
    fn silent_function_is_insufficient() {
        let p = profile_function(&FunctionTrace::new("s", vec![0; 100]));
        assert_eq!(p.class, IdleClass::Insufficient);
        assert_eq!(p.invocations, 0);
        assert_eq!(p.active_minute_frac, 0.0);
    }

    #[test]
    fn standard_workload_spans_classes() {
        let t = azure_like_12(42);
        let summary = profile_summary(&t);
        let (periodic, irregular, heavy, insufficient) = summary.class_counts;
        assert_eq!(periodic + irregular + heavy + insufficient, 12);
        assert!(periodic >= 2, "classes: {:?}", summary.class_counts);
        assert!(
            irregular + heavy >= 2,
            "classes: {:?}",
            summary.class_counts
        );
        // Observation 2: the workload has pronounced global spikes.
        assert!(
            summary.peak_to_mean > 3.0,
            "peak/mean {}",
            summary.peak_to_mean
        );
        assert!(summary.mean_in_window_mass > 0.3);
    }

    #[test]
    fn active_fraction_counts_minutes_not_requests() {
        let p = profile_function(&FunctionTrace::new("b", vec![5, 0, 5, 0]));
        assert_eq!(p.active_minute_frac, 0.5);
        assert_eq!(p.invocations, 10);
    }
}
