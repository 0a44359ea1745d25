//! Calibrated synthetic workloads.
//!
//! The paper's evaluation uses the inter-arrival patterns of 12 functions
//! from the Azure production trace. This module generates statistically
//! equivalent workloads: each function follows one of the invocation
//! *archetypes* the trace-characterization literature (and the paper's own
//! Figures 1–2) identifies — steady periodic cadences, bursts, diurnal and
//! nocturnal cycles, period drift across days, heavy-tailed gaps, Poisson
//! background noise, and on/off duty cycles — plus two engineered *global
//! invocation peaks* standing in for the paper's Peak I and Peak II.
//!
//! All generation is deterministic given the seed.

use crate::trace::{FunctionTrace, Trace};
use crate::TWO_WEEKS_MINUTES;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// An invocation-pattern archetype.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Archetype {
    /// One invocation roughly every `period_min` minutes, ± uniform jitter.
    SteadyPeriodic {
        /// Mean gap, minutes.
        period_min: u32,
        /// Max absolute jitter, minutes.
        jitter_min: u32,
    },
    /// Quiet stretches punctuated by dense bursts.
    Bursty {
        /// Quiet gap between bursts, minutes.
        quiet_min: u32,
        /// Burst duration, minutes.
        burst_len_min: u32,
        /// Poisson rate per minute during a burst.
        burst_rate: f64,
    },
    /// A daily Gaussian activity bump (diurnal when peaked at midday,
    /// nocturnal when peaked at night).
    DailyCycle {
        /// Minute-of-day of the activity peak.
        peak_minute: u32,
        /// Gaussian width, minutes.
        width_min: f64,
        /// Expected invocations per day.
        per_day: f64,
    },
    /// A periodic cadence whose period drifts linearly over the horizon —
    /// the Figure-2 "different inter-arrival patterns across periods for the
    /// same function" archetype.
    DriftingPeriod {
        /// Period at the start of the horizon, minutes.
        start_period: u32,
        /// Period at the end of the horizon, minutes.
        end_period: u32,
    },
    /// Pareto-distributed gaps (heavy tail).
    HeavyTailed {
        /// Minimum gap, minutes.
        min_gap: f64,
        /// Pareto shape; smaller ⇒ heavier tail. Must be > 1.
        alpha: f64,
    },
    /// Memoryless background traffic.
    Poisson {
        /// Rate per minute.
        rate: f64,
    },
    /// Active/inactive duty cycle; periodic cadence while active.
    OnOff {
        /// Active stretch, minutes.
        on_min: u32,
        /// Inactive stretch, minutes.
        off_min: u32,
        /// Cadence while active, minutes.
        period_in_on: u32,
    },
    /// Self-exciting (discrete-time Hawkes) arrivals: every invocation
    /// raises the near-future rate, producing the clustered bursts that
    /// stress gap-probability keep-alive policies hardest. Minute `t` draws
    /// `Poisson(base_rate + carry)` where the carry accumulates
    /// `excitation` per past invocation and shrinks geometrically by
    /// `decay` each minute.
    SelfExciting {
        /// Background (immigrant) rate per minute.
        base_rate: f64,
        /// Intensity added per invocation, before decay.
        excitation: f64,
        /// Per-minute geometric memory factor, in `[0, 1)`. The expected
        /// offspring count per event is `excitation * decay / (1 - decay)`;
        /// generation asserts it below 1 so the process stays subcritical.
        decay: f64,
    },
}

impl Archetype {
    /// Generate a per-minute count series of `minutes` length.
    // Generated minutes are non-negative and are checked against the usize
    // horizon before indexing.
    #[allow(clippy::cast_possible_truncation)]
    pub fn generate<R: Rng + ?Sized>(&self, minutes: usize, rng: &mut R) -> Vec<u32> {
        let mut counts = vec![0u32; minutes];
        match *self {
            Archetype::SteadyPeriodic {
                period_min,
                jitter_min,
            } => {
                assert!(period_min >= 1);
                let mut t = rng.gen_range(0..period_min.max(1)) as i64;
                while (t as usize) < minutes {
                    if t >= 0 {
                        counts[t as usize] += 1;
                    }
                    let j = if jitter_min == 0 {
                        0
                    } else {
                        rng.gen_range(-(jitter_min as i64)..=jitter_min as i64)
                    };
                    t += (period_min as i64 + j).max(1);
                }
            }
            Archetype::Bursty {
                quiet_min,
                burst_len_min,
                burst_rate,
            } => {
                assert!(burst_rate >= 0.0);
                let cycle = (quiet_min + burst_len_min).max(1) as usize;
                let offset = rng.gen_range(0..cycle);
                for (t, c) in counts.iter_mut().enumerate() {
                    let phase = (t + offset) % cycle;
                    if phase >= quiet_min as usize {
                        *c += poisson(burst_rate, rng);
                    }
                }
            }
            Archetype::DailyCycle {
                peak_minute,
                width_min,
                per_day,
            } => {
                assert!(width_min > 0.0 && per_day >= 0.0);
                // Normalize a wrapped Gaussian over one day so the expected
                // daily volume is `per_day`.
                let day = crate::MINUTES_PER_DAY as f64;
                let mut weights = vec![0.0f64; crate::MINUTES_PER_DAY];
                let mut norm = 0.0;
                for (m, w) in weights.iter_mut().enumerate() {
                    let mut d = (m as f64 - peak_minute as f64).abs();
                    d = d.min(day - d); // wrap around midnight
                    *w = (-0.5 * (d / width_min).powi(2)).exp();
                    norm += *w;
                }
                for (t, c) in counts.iter_mut().enumerate() {
                    let w = weights[t % crate::MINUTES_PER_DAY];
                    *c += poisson(per_day * w / norm, rng);
                }
            }
            Archetype::DriftingPeriod {
                start_period,
                end_period,
            } => {
                assert!(start_period >= 1 && end_period >= 1);
                let mut t = 0usize;
                while t < minutes {
                    counts[t] += 1;
                    let frac = t as f64 / minutes.max(1) as f64;
                    let period =
                        start_period as f64 + (end_period as f64 - start_period as f64) * frac;
                    t += period.round().max(1.0) as usize;
                }
            }
            Archetype::HeavyTailed { min_gap, alpha } => {
                assert!(alpha > 1.0 && min_gap >= 1.0);
                let mut t = 0.0f64;
                while (t as usize) < minutes {
                    counts[t as usize] += 1;
                    // Inverse-CDF Pareto draw.
                    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                    t += min_gap / u.powf(1.0 / alpha);
                }
            }
            Archetype::Poisson { rate } => {
                assert!(rate >= 0.0);
                for c in counts.iter_mut() {
                    *c += poisson(rate, rng);
                }
            }
            Archetype::OnOff {
                on_min,
                off_min,
                period_in_on,
            } => {
                assert!(period_in_on >= 1);
                let cycle = (on_min + off_min).max(1) as usize;
                let mut t = 0usize;
                while t < minutes {
                    if t % cycle < on_min as usize {
                        counts[t] += 1;
                        t += period_in_on as usize;
                    } else {
                        // Skip to the next on-phase.
                        t = (t / cycle + 1) * cycle;
                    }
                }
            }
            Archetype::SelfExciting {
                base_rate,
                excitation,
                decay,
            } => {
                assert!(base_rate >= 0.0 && excitation >= 0.0);
                assert!((0.0..1.0).contains(&decay));
                assert!(
                    excitation * decay / (1.0 - decay) < 1.0,
                    "supercritical Hawkes parameters: expected offspring per \
                     event must stay below 1"
                );
                let mut carry = 0.0f64;
                for c in counts.iter_mut() {
                    let k = poisson(base_rate + carry, rng);
                    *c += k;
                    carry = (carry + excitation * f64::from(k)) * decay;
                }
            }
        }
        counts
    }
}

/// Knuth's Poisson sampler (fine for the per-minute rates used here; for
/// the serving load generator's very high rates see pulse-serve's
/// normal-approximation fast path).
pub fn poisson<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // safety valve for absurd rates
        }
    }
}

/// Superimpose a burst on *every* function of a workload: during
/// `[start, start + len)`, each function receives extra Poisson(`intensity`)
/// invocations per minute. This models the correlated invocation spikes the
/// paper observes in the production trace (Section II, Observation 2).
pub fn inject_global_peak(
    trace: &mut [FunctionTrace],
    start: usize,
    len: usize,
    intensity: f64,
    rng: &mut impl Rng,
) {
    for f in trace.iter_mut() {
        for t in start..(start + len).min(f.per_minute.len()) {
            f.per_minute[t] += 1 + poisson(intensity, rng);
        }
    }
}

/// Index (into [`azure_like_12`]) of the five diverse functions plotted in
/// Figure 1 (Functions A–E).
pub const FIG1_FUNCTIONS: [usize; 5] = [0, 3, 5, 8, 9];
/// Index of the drifting-period function analyzed across day ranges in
/// Figure 2.
pub const FIG2_FUNCTION: usize = 7;
/// Start minute of the engineered Peak I (day 4, mid-morning).
pub const PEAK1_START: usize = 4 * crate::MINUTES_PER_DAY + 10 * 60;
/// Start minute of the engineered Peak II (day 9, early evening).
pub const PEAK2_START: usize = 9 * crate::MINUTES_PER_DAY + 18 * 60;
/// Length of each engineered peak, minutes.
pub const PEAK_LEN: usize = 5;

/// A global invocation spike to engineer into a synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeakSpec {
    /// Start minute.
    pub start: usize,
    /// Duration, minutes.
    pub len: usize,
    /// Extra Poisson intensity per function per minute (each function also
    /// gets at least one guaranteed invocation per peak minute).
    pub intensity: f64,
}

/// A declarative synthetic-workload description: named archetypes plus
/// engineered peaks, generated deterministically from a seed.
///
/// ```
/// use pulse_trace::synth::{Archetype, PeakSpec, SynthConfig};
///
/// let trace = SynthConfig::new(600)
///     .function("api", Archetype::SteadyPeriodic { period_min: 3, jitter_min: 1 })
///     .function("batch", Archetype::Bursty { quiet_min: 60, burst_len_min: 10, burst_rate: 1.5 })
///     .peak(PeakSpec { start: 300, len: 5, intensity: 2.0 })
///     .generate(7);
/// assert_eq!(trace.n_functions(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Horizon, minutes.
    pub minutes: usize,
    functions: Vec<(String, Archetype)>,
    peaks: Vec<PeakSpec>,
}

impl SynthConfig {
    /// Empty workload over `minutes`.
    pub fn new(minutes: usize) -> Self {
        assert!(minutes >= 1);
        Self {
            minutes,
            functions: Vec::new(),
            peaks: Vec::new(),
        }
    }

    /// Add a function.
    pub fn function(mut self, name: impl Into<String>, archetype: Archetype) -> Self {
        self.functions.push((name.into(), archetype));
        self
    }

    /// Add a global peak (skipped at generation time if it falls outside
    /// the horizon).
    pub fn peak(mut self, peak: PeakSpec) -> Self {
        self.peaks.push(peak);
        self
    }

    /// Number of functions configured.
    pub fn n_functions(&self) -> usize {
        self.functions.len()
    }

    /// Generate the workload.
    ///
    /// # Panics
    /// Panics when no function was configured.
    pub fn generate(&self, seed: u64) -> Trace {
        assert!(
            !self.functions.is_empty(),
            "configure at least one function"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut functions: Vec<FunctionTrace> = self
            .functions
            .iter()
            .map(|(name, a)| FunctionTrace::new(name.clone(), a.generate(self.minutes, &mut rng)))
            .collect();
        for p in &self.peaks {
            if p.start + p.len <= self.minutes {
                inject_global_peak(&mut functions, p.start, p.len, p.intensity, &mut rng);
            }
        }
        Trace::new(functions)
    }
}

/// The 12-function, two-week Azure-like workload used throughout the
/// reproduction — the synthetic stand-in for the paper's "inter-arrival of 12
/// functions observed in the Azure trace, previously employed by Wild and
/// IceBreaker".
///
/// The mix spans every archetype of Figures 1–2, and two global invocation
/// peaks are injected at [`PEAK1_START`] and [`PEAK2_START`] (the paper's
/// Peak I / Peak II).
pub fn azure_like_12(seed: u64) -> Trace {
    azure_like_12_with_horizon(seed, TWO_WEEKS_MINUTES)
}

/// The declarative description of [`azure_like_12`]; build on it to vary
/// the standard workload.
pub fn azure_like_12_config(minutes: usize) -> SynthConfig {
    let mut cfg = SynthConfig::new(minutes);
    for (name, a) in standard_archetypes() {
        cfg = cfg.function(name, a);
    }
    cfg.peak(PeakSpec {
        start: PEAK1_START,
        len: PEAK_LEN,
        intensity: 2.0,
    })
    .peak(PeakSpec {
        start: PEAK2_START,
        len: PEAK_LEN,
        intensity: 2.0,
    })
}

fn standard_archetypes() -> [(&'static str, Archetype); 12] {
    [
        (
            "steady-2m",
            Archetype::SteadyPeriodic {
                period_min: 2,
                jitter_min: 0,
            },
        ),
        (
            "steady-5m",
            Archetype::SteadyPeriodic {
                period_min: 5,
                jitter_min: 1,
            },
        ),
        (
            "steady-9m",
            Archetype::SteadyPeriodic {
                period_min: 9,
                jitter_min: 2,
            },
        ),
        (
            "bursty-45m",
            Archetype::Bursty {
                quiet_min: 45,
                burst_len_min: 8,
                burst_rate: 2.0,
            },
        ),
        (
            "bursty-2h",
            Archetype::Bursty {
                quiet_min: 120,
                burst_len_min: 15,
                burst_rate: 1.0,
            },
        ),
        (
            "diurnal-noon",
            Archetype::DailyCycle {
                peak_minute: 12 * 60,
                width_min: 120.0,
                per_day: 300.0,
            },
        ),
        (
            "nocturnal-3am",
            Archetype::DailyCycle {
                peak_minute: 3 * 60,
                width_min: 90.0,
                per_day: 200.0,
            },
        ),
        (
            "drifting-3to8",
            Archetype::DriftingPeriod {
                start_period: 3,
                end_period: 8,
            },
        ),
        (
            "heavytail",
            Archetype::HeavyTailed {
                min_gap: 2.0,
                alpha: 1.3,
            },
        ),
        ("poisson-9h", Archetype::Poisson { rate: 0.15 }),
        (
            "onoff-6h",
            Archetype::OnOff {
                on_min: 360,
                off_min: 720,
                period_in_on: 4,
            },
        ),
        ("sparse", Archetype::Poisson { rate: 0.02 }),
    ]
}

/// [`azure_like_12`] with a custom horizon (useful for fast tests; peaks are
/// only injected when they fit the horizon).
pub fn azure_like_12_with_horizon(seed: u64, minutes: usize) -> Trace {
    azure_like_12_config(minutes).generate(seed)
}

/// A fleet-scale generalization of [`azure_like_12`]: `n` functions cycling
/// through the 12 standard archetypes, with timing parameters stretched a
/// little on every pass so later cycles are not statistical clones of the
/// first, plus the two standard global peaks. On a peak-free horizon the
/// first 12 functions of `azure_like_n(n, seed)` carry exactly the
/// per-minute series of `azure_like_12(seed)` — the fleet is a strict
/// superset of the paper-scale workload (peak injection draws fresh noise,
/// so full-horizon runs agree in shape rather than bitwise).
pub fn azure_like_n(n: usize, seed: u64) -> Trace {
    azure_like_n_with_horizon(n, seed, TWO_WEEKS_MINUTES)
}

/// [`azure_like_n`] with a custom horizon — the knob the fleet-scale
/// benchmarks use to keep generation time proportional to the scenario.
pub fn azure_like_n_with_horizon(n: usize, seed: u64, minutes: usize) -> Trace {
    azure_like_n_config(n, minutes).generate(seed)
}

/// The declarative description of [`azure_like_n`].
// The variation cycle is n / archetypes, far below u32::MAX for any fleet.
#[allow(clippy::cast_possible_truncation)]
pub fn azure_like_n_config(n: usize, minutes: usize) -> SynthConfig {
    assert!(n >= 1, "a fleet needs at least one function");
    let base = standard_archetypes();
    let mut cfg = SynthConfig::new(minutes);
    for i in 0..n {
        let (name, a) = base[i % base.len()];
        let cycle = (i / base.len()) as u32;
        cfg = cfg.function(format!("{name}-{i}"), vary_archetype(a, cycle));
    }
    cfg.peak(PeakSpec {
        start: PEAK1_START,
        len: PEAK_LEN,
        intensity: 2.0,
    })
    .peak(PeakSpec {
        start: PEAK2_START,
        len: PEAK_LEN,
        intensity: 2.0,
    })
}

/// Deterministically perturb an archetype's timing parameters for cycle `k`
/// of the fleet generator (cycle 0 is the archetype verbatim). Stretches
/// keep every invariant the generators assert (periods ≥ 1, `alpha` > 1).
// Stretched windows stay a few times the archetype's minute counts, and
// MINUTES_PER_DAY fits u32.
#[allow(clippy::cast_possible_truncation)]
fn vary_archetype(a: Archetype, k: u32) -> Archetype {
    if k == 0 {
        return a;
    }
    // 1.0, 1.15, 1.30, … 1.90, then wrapping — bounded so rates stay sane.
    let stretch = 1.0 + 0.15 * f64::from(k % 7);
    let widen = |m: u32| -> u32 { ((f64::from(m) * stretch).round() as u32).max(1) };
    match a {
        Archetype::SteadyPeriodic {
            period_min,
            jitter_min,
        } => Archetype::SteadyPeriodic {
            period_min: widen(period_min),
            jitter_min,
        },
        Archetype::Bursty {
            quiet_min,
            burst_len_min,
            burst_rate,
        } => Archetype::Bursty {
            quiet_min: widen(quiet_min),
            burst_len_min,
            burst_rate: burst_rate / stretch,
        },
        Archetype::DailyCycle {
            peak_minute,
            width_min,
            per_day,
        } => Archetype::DailyCycle {
            // Shift the activity bump around the clock, one hour per cycle.
            peak_minute: (peak_minute + k * 60) % crate::MINUTES_PER_DAY as u32,
            width_min,
            per_day: per_day / stretch,
        },
        Archetype::DriftingPeriod {
            start_period,
            end_period,
        } => Archetype::DriftingPeriod {
            start_period: widen(start_period),
            end_period: widen(end_period),
        },
        Archetype::HeavyTailed { min_gap, alpha } => Archetype::HeavyTailed {
            min_gap: min_gap * stretch,
            alpha,
        },
        Archetype::Poisson { rate } => Archetype::Poisson {
            rate: rate / stretch,
        },
        Archetype::OnOff {
            on_min,
            off_min,
            period_in_on,
        } => Archetype::OnOff {
            on_min,
            off_min: widen(off_min),
            period_in_on: widen(period_in_on),
        },
        Archetype::SelfExciting {
            base_rate,
            excitation,
            decay,
        } => Archetype::SelfExciting {
            // Thinning the background rate keeps the branching ratio — and
            // therefore subcriticality — untouched.
            base_rate: base_rate / stretch,
            excitation,
            decay,
        },
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1234)
    }

    #[test]
    fn steady_periodic_has_constant_gap() {
        let a = Archetype::SteadyPeriodic {
            period_min: 7,
            jitter_min: 0,
        };
        let f = FunctionTrace::new("x", a.generate(1000, &mut rng()));
        let gaps = f.gaps();
        assert!(!gaps.is_empty());
        assert!(gaps.iter().all(|&g| g == 7), "{gaps:?}");
    }

    #[test]
    fn jitter_spreads_gaps() {
        let a = Archetype::SteadyPeriodic {
            period_min: 7,
            jitter_min: 2,
        };
        let f = FunctionTrace::new("x", a.generate(5000, &mut rng()));
        let gaps = f.gaps();
        assert!(gaps.iter().all(|&g| (5..=9).contains(&g)), "{gaps:?}");
        assert!(gaps.iter().any(|&g| g != 7));
    }

    #[test]
    fn bursty_concentrates_in_bursts() {
        let a = Archetype::Bursty {
            quiet_min: 50,
            burst_len_min: 5,
            burst_rate: 3.0,
        };
        let counts = a.generate(5500, &mut rng());
        let active = counts.iter().filter(|&&c| c > 0).count();
        // Activity confined to ~5/55 of the horizon.
        assert!(active < 5500 * 5 / 55 + 200, "active={active}");
        assert!(counts.iter().map(|&c| c as u64).sum::<u64>() > 100);
    }

    #[test]
    fn daily_cycle_peaks_at_the_right_hour() {
        let a = Archetype::DailyCycle {
            peak_minute: 12 * 60,
            width_min: 60.0,
            per_day: 2000.0,
        };
        let counts = a.generate(7 * crate::MINUTES_PER_DAY, &mut rng());
        // Compare volume at the peak hour vs 3 AM across the week.
        let sum_at = |hour: usize| -> u64 {
            (0..7)
                .flat_map(|d| (0..60).map(move |m| d * crate::MINUTES_PER_DAY + hour * 60 + m))
                .map(|t| counts[t] as u64)
                .sum()
        };
        assert!(sum_at(12) > 20 * sum_at(3).max(1));
    }

    #[test]
    fn drifting_period_changes_gap_over_time() {
        let a = Archetype::DriftingPeriod {
            start_period: 3,
            end_period: 9,
        };
        let f = FunctionTrace::new("x", a.generate(10_000, &mut rng()));
        let gaps = f.gaps();
        let first: f64 = gaps[..20].iter().sum::<u64>() as f64 / 20.0;
        let last: f64 = gaps[gaps.len() - 20..].iter().sum::<u64>() as f64 / 20.0;
        assert!(first < 4.0, "early gaps ≈ start period, got {first}");
        assert!(last > 7.0, "late gaps ≈ end period, got {last}");
    }

    #[test]
    fn heavy_tail_produces_outlier_gaps() {
        let a = Archetype::HeavyTailed {
            min_gap: 2.0,
            alpha: 1.3,
        };
        let f = FunctionTrace::new("x", a.generate(50_000, &mut rng()));
        let gaps = f.gaps();
        let max = *gaps.iter().max().unwrap();
        let median = {
            let mut s = gaps.clone();
            s.sort_unstable();
            s[s.len() / 2]
        };
        assert!(max > 10 * median, "max={max}, median={median}");
    }

    #[test]
    fn poisson_volume_matches_rate() {
        let a = Archetype::Poisson { rate: 0.2 };
        let counts = a.generate(50_000, &mut rng());
        let total: u64 = counts.iter().map(|&c| c as u64).sum();
        let expected = 0.2 * 50_000.0;
        assert!(
            (total as f64 - expected).abs() < expected * 0.1,
            "total={total}"
        );
    }

    #[test]
    fn onoff_silent_in_off_phase() {
        let a = Archetype::OnOff {
            on_min: 100,
            off_min: 200,
            period_in_on: 5,
        };
        let counts = a.generate(900, &mut rng());
        // Off phases: [100,300), [400,600), [700,900).
        for t in (100..300).chain(400..600).chain(700..900) {
            assert_eq!(counts[t], 0, "t={t}");
        }
        assert!(counts[..100].iter().any(|&c| c > 0));
    }

    #[test]
    fn azure_like_12_shape() {
        let t = azure_like_12_with_horizon(7, 2000);
        assert_eq!(t.n_functions(), 12);
        assert_eq!(t.minutes(), 2000);
        for f in t.functions() {
            assert!(f.total_invocations() > 0, "{} is silent", f.name);
        }
    }

    #[test]
    fn azure_like_12_is_deterministic() {
        assert_eq!(
            azure_like_12_with_horizon(7, 3000),
            azure_like_12_with_horizon(7, 3000)
        );
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(
            azure_like_12_with_horizon(7, 3000),
            azure_like_12_with_horizon(8, 3000)
        );
    }

    #[test]
    fn peaks_are_injected_on_full_horizon() {
        let t = azure_like_12(3);
        // During Peak I every function is active every minute.
        for f in t.functions() {
            for m in PEAK1_START..PEAK1_START + PEAK_LEN {
                assert!(f.at(m as u64) >= 1, "{} silent at peak minute {m}", f.name);
            }
        }
        // Total volume in the peak window dwarfs a typical window.
        let peak_total: u64 = (PEAK1_START..PEAK1_START + PEAK_LEN)
            .flat_map(|m| t.functions().iter().map(move |f| f.at(m as u64) as u64))
            .sum();
        let typical_total: u64 = (1000..1000 + PEAK_LEN)
            .flat_map(|m| t.functions().iter().map(move |f| f.at(m as u64) as u64))
            .sum();
        assert!(
            peak_total > 3 * typical_total.max(1),
            "{peak_total} vs {typical_total}"
        );
    }

    #[test]
    fn inject_peak_respects_horizon() {
        let mut fs = vec![FunctionTrace::new("a", vec![0; 10])];
        inject_global_peak(&mut fs, 8, 5, 1.0, &mut rng());
        assert_eq!(fs[0].per_minute.len(), 10);
        assert!(fs[0].per_minute[8] >= 1 && fs[0].per_minute[9] >= 1);
    }

    #[test]
    fn poisson_sampler_zero_rate() {
        let mut r = rng();
        assert_eq!(poisson(0.0, &mut r), 0);
        assert_eq!(poisson(-1.0, &mut r), 0);
    }

    #[test]
    fn synth_config_builder_matches_canonical_generator() {
        // The standard workload must be byte-identical whether built via the
        // convenience function or the declarative config.
        let a = azure_like_12_with_horizon(9, 3000);
        let b = azure_like_12_config(3000).generate(9);
        assert_eq!(a, b);
    }

    #[test]
    fn synth_config_custom_workload() {
        let t = SynthConfig::new(500)
            .function(
                "a",
                Archetype::SteadyPeriodic {
                    period_min: 4,
                    jitter_min: 0,
                },
            )
            .function("b", Archetype::Poisson { rate: 0.1 })
            .peak(PeakSpec {
                start: 250,
                len: 3,
                intensity: 1.0,
            })
            .generate(11);
        assert_eq!(t.n_functions(), 2);
        assert_eq!(t.minutes(), 500);
        // Peak guarantees activity for both functions at its minutes.
        for f in t.functions() {
            for m in 250..253u64 {
                assert!(f.at(m) >= 1, "{} silent at {m}", f.name);
            }
        }
    }

    #[test]
    fn synth_config_out_of_horizon_peak_is_skipped() {
        let t = SynthConfig::new(100)
            .function("a", Archetype::Poisson { rate: 0.0 })
            .peak(PeakSpec {
                start: 99,
                len: 5,
                intensity: 1.0,
            })
            .generate(1);
        assert_eq!(t.total_invocations(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one function")]
    fn synth_config_empty_rejected() {
        SynthConfig::new(100).generate(1);
    }

    #[test]
    fn azure_like_n_extends_the_standard_workload() {
        let twelve = azure_like_12_with_horizon(7, 2000);
        let forty = azure_like_n_with_horizon(40, 7, 2000);
        assert_eq!(forty.n_functions(), 40);
        // The first 12 functions are the paper-scale workload verbatim.
        for f in 0..12 {
            assert_eq!(
                twelve.functions()[f].per_minute,
                forty.functions()[f].per_minute,
                "function {f} diverged from azure_like_12"
            );
        }
        // Later cycles are stretched, not clones of the first cycle (a
        // single pair may coincide when rounding restores the period, so
        // assert over the whole cycle).
        assert!((0..12)
            .any(|f| forty.functions()[f].per_minute != forty.functions()[f + 12].per_minute));
        for f in forty.functions() {
            assert!(f.total_invocations() > 0, "{} is silent", f.name);
        }
    }

    #[test]
    fn azure_like_n_is_deterministic() {
        assert_eq!(
            azure_like_n_with_horizon(100, 3, 500),
            azure_like_n_with_horizon(100, 3, 500)
        );
        assert_ne!(
            azure_like_n_with_horizon(100, 3, 500),
            azure_like_n_with_horizon(100, 4, 500)
        );
    }

    #[test]
    fn self_exciting_is_overdispersed() {
        // A Hawkes stream must be burstier than a Poisson stream of the
        // same volume: its variance-to-mean ratio (Fano factor) exceeds the
        // Poisson value of 1 by a wide margin at these parameters.
        let a = Archetype::SelfExciting {
            base_rate: 0.05,
            excitation: 0.9,
            decay: 0.5,
        };
        let counts = a.generate(50_000, &mut rng());
        let n = counts.len() as f64;
        let mean = counts.iter().map(|&c| f64::from(c)).sum::<f64>() / n;
        let var = counts
            .iter()
            .map(|&c| (f64::from(c) - mean).powi(2))
            .sum::<f64>()
            / n;
        assert!(mean > 0.0);
        assert!(var / mean > 1.5, "fano={}", var / mean);
    }

    #[test]
    fn self_exciting_events_cluster_after_events() {
        // Conditioning on an active minute, the next minute is busier than
        // the unconditional average — the signature of self-excitation.
        let a = Archetype::SelfExciting {
            base_rate: 0.05,
            excitation: 0.9,
            decay: 0.5,
        };
        let counts = a.generate(50_000, &mut rng());
        let mean = counts.iter().map(|&c| f64::from(c)).sum::<f64>() / counts.len() as f64;
        let (mut after_sum, mut after_n) = (0.0, 0u32);
        for w in counts.windows(2) {
            if w[0] > 0 {
                after_sum += f64::from(w[1]);
                after_n += 1;
            }
        }
        assert!(after_n > 0);
        assert!(
            after_sum / f64::from(after_n) > 2.0 * mean,
            "after-event mean {} vs unconditional {mean}",
            after_sum / f64::from(after_n)
        );
    }

    #[test]
    #[should_panic(expected = "supercritical")]
    fn supercritical_hawkes_rejected() {
        Archetype::SelfExciting {
            base_rate: 0.1,
            excitation: 3.0,
            decay: 0.9,
        }
        .generate(10, &mut rng());
    }

    #[test]
    fn vary_archetype_thins_self_exciting_background() {
        let a = Archetype::SelfExciting {
            base_rate: 0.2,
            excitation: 0.5,
            decay: 0.5,
        };
        match vary_archetype(a, 1) {
            Archetype::SelfExciting {
                base_rate,
                excitation,
                decay,
            } => {
                assert!(base_rate < 0.2);
                assert_eq!(excitation, 0.5);
                assert_eq!(decay, 0.5);
            }
            other => panic!("variant changed: {other:?}"),
        }
        // Varied parameters still generate (subcriticality preserved).
        assert_eq!(vary_archetype(a, 5).generate(600, &mut rng()).len(), 600);
    }

    #[test]
    fn vary_archetype_keeps_generator_invariants() {
        // Every standard archetype must still generate under heavy cycling.
        let mut r = rng();
        for k in 0..20 {
            for (_, a) in standard_archetypes() {
                let counts = vary_archetype(a, k).generate(600, &mut r);
                assert_eq!(counts.len(), 600);
            }
        }
    }
}
