//! Stochastic profiler: regenerates the paper's Lambda characterization runs.
//!
//! The paper characterizes each variant by executing its Lambda function on
//! 1000 distinct inputs (warm) and by a memory-resize trick that forces cold
//! starts. We cannot call AWS from a reproduction, so this module *simulates*
//! those measurement campaigns: per-invocation service times are drawn from a
//! lognormal jitter around the variant's calibrated warm/cold means, which is
//! the empirical shape of Lambda latency distributions (right-skewed, long
//! tail). The profiler then reports the same summary a measurement campaign
//! would: mean, median, p99, standard deviation, for warm and cold paths.

use crate::stats;
use crate::variant::VariantSpec;
use rand::Rng;

/// Configuration of a simulated measurement campaign.
#[derive(Debug, Clone, Copy)]
pub struct ProfilerConfig {
    /// Number of warm invocations to sample (paper: 1000).
    pub warm_samples: usize,
    /// Number of cold invocations to sample (paper: repeated resize trick).
    pub cold_samples: usize,
    /// Lognormal sigma of warm-path jitter (relative spread). Lambda warm
    /// latencies typically vary by a few percent.
    pub warm_sigma: f64,
    /// Lognormal sigma of cold-path jitter. Cold starts are noisier (image
    /// pull, placement) — tens of percent.
    pub cold_sigma: f64,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        Self {
            warm_samples: 1000,
            cold_samples: 100,
            warm_sigma: 0.05,
            cold_sigma: 0.15,
        }
    }
}

/// Summary of one measurement campaign over a variant.
#[derive(Debug, Clone)]
pub struct ProfileSummary {
    /// Variant name the campaign profiled.
    pub variant: String,
    /// Warm-path statistics, seconds.
    pub warm: PathStats,
    /// Cold-path statistics (container creation + load + execute), seconds.
    pub cold: PathStats,
}

/// Summary statistics of one latency path.
#[derive(Debug, Clone)]
pub struct PathStats {
    /// Sample mean.
    pub mean_s: f64,
    /// Sample median (p50).
    pub p50_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
    /// Population standard deviation.
    pub std_s: f64,
    /// Number of samples.
    pub n: usize,
}

impl PathStats {
    // The profiler samples finite latencies.
    #[allow(clippy::expect_used)]
    fn from_samples(mut xs: Vec<f64>) -> Self {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        Self {
            mean_s: stats::mean(&xs),
            p50_s: stats::percentile_of_sorted(&xs, 50.0),
            p99_s: stats::percentile_of_sorted(&xs, 99.0),
            std_s: stats::std_dev(&xs),
            n: xs.len(),
        }
    }
}

/// The simulated profiler.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    config: ProfilerConfig,
}

impl Profiler {
    /// Profiler with the paper's campaign sizes.
    pub fn new(config: ProfilerConfig) -> Self {
        Self { config }
    }

    /// Draw one warm-path service time for `v`, seconds.
    ///
    /// Lognormal around the calibrated mean: `t = mean · exp(σ·z − σ²/2)`,
    /// which keeps `E[t] = mean` exactly.
    pub fn sample_warm<R: Rng + ?Sized>(&self, v: &VariantSpec, rng: &mut R) -> f64 {
        lognormal_around(v.warm_service_time_s, self.config.warm_sigma, rng)
    }

    /// Draw one provisioning duration (container creation + model load,
    /// excluding execution) for `v`, seconds.
    pub fn sample_cold_start<R: Rng + ?Sized>(&self, v: &VariantSpec, rng: &mut R) -> f64 {
        lognormal_around(v.cold_start_s, self.config.cold_sigma, rng)
    }

    /// Draw one cold-path service time (cold start + execution) for `v`.
    pub fn sample_cold<R: Rng + ?Sized>(&self, v: &VariantSpec, rng: &mut R) -> f64 {
        self.sample_cold_start(v, rng) + self.sample_warm(v, rng)
    }

    /// Run a full campaign over `v`: `warm_samples` warm and `cold_samples`
    /// cold invocations, summarized.
    pub fn profile<R: Rng + ?Sized>(&self, v: &VariantSpec, rng: &mut R) -> ProfileSummary {
        let warm: Vec<f64> = (0..self.config.warm_samples)
            .map(|_| self.sample_warm(v, rng))
            .collect();
        let cold: Vec<f64> = (0..self.config.cold_samples)
            .map(|_| self.sample_cold(v, rng))
            .collect();
        ProfileSummary {
            variant: v.name.clone(),
            warm: PathStats::from_samples(warm),
            cold: PathStats::from_samples(cold),
        }
    }
}

/// Mean-preserving lognormal jitter: draws `mean · exp(σz − σ²/2)` with
/// `z ~ N(0,1)` (Box–Muller from two uniforms).
fn lognormal_around<R: Rng + ?Sized>(mean: f64, sigma: f64, rng: &mut R) -> f64 {
    if mean == 0.0 {
        return 0.0;
    }
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    mean * (sigma * z - sigma * sigma / 2.0).exp()
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn variant() -> VariantSpec {
        VariantSpec::new("GPT-Small", 12.90, 8.2, 1950.0, 87.65)
    }

    #[test]
    fn warm_samples_center_on_calibrated_mean() {
        let mut rng = SmallRng::seed_from_u64(7);
        let p = Profiler::default();
        let v = variant();
        let xs: Vec<f64> = (0..20_000).map(|_| p.sample_warm(&v, &mut rng)).collect();
        let m = crate::stats::mean(&xs);
        assert!(
            (m - v.warm_service_time_s).abs() / v.warm_service_time_s < 0.01,
            "mean {m} vs {}",
            v.warm_service_time_s
        );
    }

    #[test]
    fn cold_path_is_slower_than_warm_path() {
        let mut rng = SmallRng::seed_from_u64(9);
        let p = Profiler::default();
        let v = variant();
        let s = p.profile(&v, &mut rng);
        assert!(s.cold.mean_s > s.warm.mean_s);
        assert!(s.cold.mean_s > v.cold_start_s);
    }

    #[test]
    fn samples_are_positive() {
        let mut rng = SmallRng::seed_from_u64(11);
        let p = Profiler::default();
        let v = variant();
        for _ in 0..5000 {
            assert!(p.sample_warm(&v, &mut rng) > 0.0);
            assert!(p.sample_cold(&v, &mut rng) > 0.0);
        }
    }

    #[test]
    fn campaign_sizes_respected() {
        let mut rng = SmallRng::seed_from_u64(13);
        let p = Profiler::new(ProfilerConfig {
            warm_samples: 17,
            cold_samples: 5,
            ..Default::default()
        });
        let s = p.profile(&variant(), &mut rng);
        assert_eq!(s.warm.n, 17);
        assert_eq!(s.cold.n, 5);
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut rng = SmallRng::seed_from_u64(17);
        let s = Profiler::default().profile(&variant(), &mut rng);
        assert!(s.warm.p50_s <= s.warm.p99_s);
        assert!(s.cold.p50_s <= s.cold.p99_s);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let p = Profiler::default();
        let v = variant();
        let a = p.profile(&v, &mut SmallRng::seed_from_u64(42)).warm.mean_s;
        let b = p.profile(&v, &mut SmallRng::seed_from_u64(42)).warm.mean_s;
        assert_eq!(a, b);
    }

    #[test]
    fn distribution_is_right_skewed() {
        // Lognormal ⇒ mean > median.
        let mut rng = SmallRng::seed_from_u64(19);
        let p = Profiler::new(ProfilerConfig {
            warm_samples: 50_000,
            cold_samples: 1,
            warm_sigma: 0.5,
            cold_sigma: 0.15,
        });
        let s = p.profile(&variant(), &mut rng);
        assert!(s.warm.mean_s > s.warm.p50_s);
    }
}
