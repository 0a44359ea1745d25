//! Open-loop load generation for the serving front door.
//!
//! The generator is two-layered, mirroring how the engines consume work:
//! each mode first draws a deterministic *per-minute count series* per
//! function (reusing the pulse-trace archetypes, so the load shapes are the
//! same ones the offline evaluation is calibrated on), then expands the
//! counts to millisecond arrivals with
//! [`pulse_runtime::arrival_times_in_minute`] — the runtime's own
//! trace-to-timestamp expansion. Because binning the expanded stream back
//! to minutes recovers the count series exactly, serving a generated stream
//! in simulated-clock mode is bit-identical to a finished `Runtime::session`
//! on [`ArrivalStream::trace`] (pinned in this crate's determinism tests).
//!
//! Everything is deterministic given [`LoadGenConfig::seed`]: same seed,
//! same mode → byte-identical stream, across machines and reruns.

use pulse_runtime::arrival_times_in_minute;
use pulse_trace::synth::Archetype;
use pulse_trace::{FunctionTrace, Trace};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Per-minute rate above which [`pulse_trace::synth::poisson`]'s O(λ)
/// sampler (and its safety valve) give way to a normal approximation. At
/// λ = 256 the Gaussian approximation error is far below the run-to-run
/// Poisson noise.
const NORMAL_APPROX_THRESHOLD: f64 = 256.0;

/// The arrival-process families the front door can generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Memoryless arrivals at a fixed per-function rate. The only mode that
    /// scales to demo rates (hundreds of thousands of requests per second):
    /// above `NORMAL_APPROX_THRESHOLD` per minute the per-minute count is
    /// drawn from the matching normal approximation instead of the exact
    /// sampler.
    Poisson {
        /// Rate per function per minute.
        rate_per_min: f64,
    },
    /// Quiet stretches punctuated by dense bursts (the pulse-trace
    /// [`Archetype::Bursty`] on/off shape).
    Bursty {
        /// Quiet gap between bursts, minutes.
        quiet_min: u32,
        /// Burst duration, minutes.
        burst_len_min: u32,
        /// Poisson rate per minute during a burst.
        burst_rate: f64,
    },
    /// Hawkes-like self-exciting arrivals ([`Archetype::SelfExciting`]):
    /// every invocation raises the near-future rate, producing the
    /// clustered bursts that stress gap-probability keep-alive policies
    /// hardest.
    SelfExciting {
        /// Background rate per minute.
        base_rate: f64,
        /// Intensity added per invocation, before decay.
        excitation: f64,
        /// Per-minute geometric memory factor, in `[0, 1)`.
        decay: f64,
    },
}

impl LoadMode {
    /// Short mode label for telemetry and function naming.
    pub fn label(&self) -> &'static str {
        match self {
            LoadMode::Poisson { .. } => "poisson",
            LoadMode::Bursty { .. } => "bursty",
            LoadMode::SelfExciting { .. } => "self-exciting",
        }
    }

    /// Draw one function's per-minute count series.
    fn counts(&self, minutes: usize, rng: &mut SmallRng) -> Vec<u32> {
        match *self {
            LoadMode::Poisson { rate_per_min } => {
                assert!(rate_per_min >= 0.0);
                if rate_per_min <= NORMAL_APPROX_THRESHOLD {
                    Archetype::Poisson { rate: rate_per_min }.generate(minutes, rng)
                } else {
                    (0..minutes)
                        .map(|_| high_rate_poisson(rate_per_min, rng))
                        .collect()
                }
            }
            LoadMode::Bursty {
                quiet_min,
                burst_len_min,
                burst_rate,
            } => Archetype::Bursty {
                quiet_min,
                burst_len_min,
                burst_rate,
            }
            .generate(minutes, rng),
            LoadMode::SelfExciting {
                base_rate,
                excitation,
                decay,
            } => Archetype::SelfExciting {
                base_rate,
                excitation,
                decay,
            }
            .generate(minutes, rng),
        }
    }
}

/// Normal approximation to `Poisson(lambda)` for rates where the exact
/// sampler is impractical: `round(lambda + sqrt(lambda) * z)` clamped at
/// zero, with `z` a Box-Muller standard normal.
// Saturating cast of a positive rounded Poisson draw.
#[allow(clippy::cast_possible_truncation)]
fn high_rate_poisson(lambda: f64, rng: &mut SmallRng) -> u32 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    let count = (lambda + lambda.sqrt() * z).round();
    if count <= 0.0 {
        0
    } else {
        count as u32
    }
}

/// What to generate: shape, scale, and the seed everything derives from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadGenConfig {
    /// Functions behind the front door.
    pub functions: usize,
    /// Virtual horizon, minutes.
    pub minutes: usize,
    /// Arrival process.
    pub mode: LoadMode,
    /// RNG seed; the stream is a pure function of this config.
    pub seed: u64,
}

/// One request arrival, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual arrival time, ms since run start.
    pub at_ms: u64,
    /// Target function index.
    pub func: usize,
}

/// A fully materialized arrival stream plus the minute-binned [`Trace`] it
/// expands — the replay-equivalence anchor: a `Runtime::session` over
/// [`Self::trace`] processes exactly this stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalStream {
    trace: Trace,
    arrivals: Vec<Arrival>,
}

impl ArrivalStream {
    /// Generate the stream for `cfg`. Arrivals come out in the engines'
    /// canonical `(minute, func, offset)` order, which is nondecreasing in
    /// time within a minute and across minutes.
    // A stream is held in memory, so its invocation total fits usize.
    #[allow(clippy::cast_possible_truncation)]
    pub fn generate(cfg: &LoadGenConfig) -> Self {
        assert!(cfg.functions >= 1, "a stream needs at least one function");
        assert!(cfg.minutes >= 1, "a stream needs a nonzero horizon");
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let functions: Vec<FunctionTrace> = (0..cfg.functions)
            .map(|f| {
                FunctionTrace::new(
                    format!("{}-{f}", cfg.mode.label()),
                    cfg.mode.counts(cfg.minutes, &mut rng),
                )
            })
            .collect();
        let trace = Trace::new(functions);
        let mut arrivals = Vec::with_capacity(trace.total_invocations() as usize);
        for m in 0..cfg.minutes as u64 {
            for f in 0..cfg.functions {
                for at_ms in arrival_times_in_minute(m, u64::from(trace.function(f).at(m))) {
                    arrivals.push(Arrival { at_ms, func: f });
                }
            }
        }
        Self { trace, arrivals }
    }

    /// The minute-binned view of the stream.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The arrivals, in `(minute, func, offset)` order.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Total arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True when the stream carries no arrivals at all.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Virtual horizon, minutes.
    pub fn minutes(&self) -> usize {
        self.trace.minutes()
    }

    /// Functions behind the front door.
    pub fn n_functions(&self) -> usize {
        self.trace.n_functions()
    }

    /// Split into the binned trace and the owned arrival vector (the live
    /// engine moves the arrivals into the producer thread).
    pub(crate) fn into_parts(self) -> (Trace, Vec<Arrival>) {
        (self.trace, self.arrivals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(mode: LoadMode) -> LoadGenConfig {
        LoadGenConfig {
            functions: 4,
            minutes: 30,
            mode,
            seed: 7,
        }
    }

    const MODES: [LoadMode; 3] = [
        LoadMode::Poisson { rate_per_min: 3.0 },
        LoadMode::Bursty {
            quiet_min: 5,
            burst_len_min: 2,
            burst_rate: 4.0,
        },
        LoadMode::SelfExciting {
            base_rate: 0.5,
            excitation: 0.8,
            decay: 0.5,
        },
    ];

    #[test]
    fn streams_are_nonempty_and_time_ordered() {
        for mode in MODES {
            let s = ArrivalStream::generate(&cfg(mode));
            assert!(!s.is_empty(), "{} generated nothing", mode.label());
            assert!(
                s.arrivals().windows(2).all(|w| w[0].at_ms <= w[1].at_ms
                    || w[0].at_ms / pulse_runtime::MS_PER_MINUTE
                        == w[1].at_ms / pulse_runtime::MS_PER_MINUTE),
                "{} stream departs from canonical order",
                mode.label()
            );
        }
    }

    #[test]
    fn binning_the_stream_recovers_the_trace() {
        for mode in MODES {
            let s = ArrivalStream::generate(&cfg(mode));
            let mut rebinned = vec![vec![0u32; s.minutes()]; s.n_functions()];
            for a in s.arrivals() {
                rebinned[a.func][(a.at_ms / pulse_runtime::MS_PER_MINUTE) as usize] += 1;
            }
            for (f, counts) in rebinned.iter().enumerate() {
                assert_eq!(
                    counts,
                    &s.trace().function(f).per_minute,
                    "{} function {f}",
                    mode.label()
                );
            }
        }
    }

    #[test]
    fn high_rate_poisson_matches_its_rate() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 2_000;
        let total: u64 = (0..n)
            .map(|_| u64::from(high_rate_poisson(100_000.0, &mut rng)))
            .sum();
        let mean = total as f64 / f64::from(n);
        assert!(
            (mean - 100_000.0).abs() < 500.0,
            "mean={mean} far from λ=100000"
        );
    }

    #[test]
    fn high_rate_path_engages_above_the_threshold() {
        let s = ArrivalStream::generate(&LoadGenConfig {
            functions: 2,
            minutes: 3,
            mode: LoadMode::Poisson {
                rate_per_min: 60_000.0,
            },
            seed: 11,
        });
        // The exact sampler's safety valve caps counts at ~10k per minute;
        // the fast path must sail past it.
        assert!(
            s.trace()
                .functions()
                .iter()
                .any(|f| f.per_minute.iter().any(|&c| c > 20_000)),
            "high-rate counts look capped"
        );
    }
}
