//! Property tests for the forecasting substrate.

use proptest::prelude::*;
use pulse_forecast::ar::{autocovariance, levinson_durbin, ArModel};
use pulse_forecast::fft::{fft, ifft, naive_dft, next_pow2, Complex};
use pulse_forecast::wild::{HybridHistogram, WildConfig};
use pulse_forecast::FftPredictor;

proptest! {
    #[test]
    fn fft_matches_naive_dft_on_pow2(signal in proptest::collection::vec(-100.0f64..100.0, 16..=16)) {
        let fast = fft(&signal);
        let slow = naive_dft(&signal);
        for (a, b) in fast.iter().zip(slow.iter()) {
            prop_assert!((a.re - b.re).abs() < 1e-6);
            prop_assert!((a.im - b.im).abs() < 1e-6);
        }
    }

    #[test]
    fn fft_is_linear(
        a in proptest::collection::vec(-10.0f64..10.0, 32..=32),
        b in proptest::collection::vec(-10.0f64..10.0, 32..=32),
        alpha in -3.0f64..3.0,
    ) {
        let combo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| alpha * x + y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fc = fft(&combo);
        for i in 0..32 {
            let expect = fa[i] * alpha + fb[i];
            prop_assert!((fc[i].re - expect.re).abs() < 1e-6);
            prop_assert!((fc[i].im - expect.im).abs() < 1e-6);
        }
    }

    #[test]
    fn spectrum_of_real_signal_is_conjugate_symmetric(
        signal in proptest::collection::vec(-50.0f64..50.0, 64..=64),
    ) {
        let spec = fft(&signal);
        let n = spec.len();
        for k in 1..n / 2 {
            let a = spec[k];
            let b = spec[n - k].conj();
            prop_assert!((a.re - b.re).abs() < 1e-6);
            prop_assert!((a.im - b.im).abs() < 1e-6);
        }
        prop_assert!(spec[0].im.abs() < 1e-9);
    }

    #[test]
    fn ifft_inverts_fft(signal in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
        let back = ifft(&fft(&signal));
        for (x, y) in signal.iter().zip(back.iter()) {
            prop_assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn levinson_sigma_is_nonnegative_and_nonincreasing(
        xs in proptest::collection::vec(-100.0f64..100.0, 10..200),
        pmax in 1usize..6,
    ) {
        let r = autocovariance(&xs, pmax);
        let mut prev = f64::INFINITY;
        for p in 0..=pmax {
            let (coeffs, s) = levinson_durbin(&r, p);
            prop_assert!(s >= -1e-9, "sigma2 {s}");
            prop_assert!(s <= prev + 1e-9);
            prop_assert!(coeffs.len() <= p);
            prev = s;
        }
    }

    #[test]
    fn ar_forecast_is_finite(
        xs in proptest::collection::vec(0.1f64..1e3, 3..100),
        order in 0usize..5,
    ) {
        prop_assert!(ArModel::fit(&xs, order).forecast_one(&xs).is_finite());
        prop_assert!(ArModel::fit_auto(&xs, order).forecast_one(&xs).is_finite());
    }

    #[test]
    fn predictor_active_minutes_are_within_horizon(
        counts in proptest::collection::vec(0u32..5, 1..300),
        horizon in 1usize..30,
    ) {
        let mut p = FftPredictor::new();
        for &c in &counts {
            p.push(c as f64);
        }
        for m in p.predict_active(horizon) {
            prop_assert!(m >= 1 && m <= horizon as u64);
        }
    }

    #[test]
    fn wild_decisions_are_well_formed(gaps in proptest::collection::vec(1u64..400, 0..80)) {
        let mut h = HybridHistogram::new(WildConfig::default());
        let mut t = 0u64;
        h.record(t);
        for g in gaps {
            t += g;
            h.record(t);
        }
        let d = h.decide();
        prop_assert!(d.prewarm_min < d.keepalive_min,
            "prewarm {} !< keepalive {}", d.prewarm_min, d.keepalive_min);
        // The window is bounded by the histogram bound plus the AR margin.
        prop_assert!(d.keepalive_min <= 400 + 3);
    }

    #[test]
    fn complex_arithmetic_field_axioms_sample(
        (ar, ai, br, bi) in (-10.0f64..10.0, -10.0f64..10.0, -10.0f64..10.0, -10.0f64..10.0),
    ) {
        let a = Complex::new(ar, ai);
        let b = Complex::new(br, bi);
        // Commutativity.
        let ab = a * b;
        let ba = b * a;
        prop_assert!((ab.re - ba.re).abs() < 1e-9 && (ab.im - ba.im).abs() < 1e-9);
        // |ab| = |a||b|.
        prop_assert!((ab.abs() - a.abs() * b.abs()).abs() < 1e-6);
        // Conjugation distributes.
        let cc = (a * b).conj();
        let cd = a.conj() * b.conj();
        prop_assert!((cc.re - cd.re).abs() < 1e-9 && (cc.im - cd.im).abs() < 1e-9);
    }
}

/// `FftPredictor::forecast` as it stood before its bin ranking computed each
/// magnitude once and its horizon loop hoisted the per-harmonic terms: the
/// bitwise oracle for the production forecaster. `history` is the window
/// the predictor holds.
// FFT magnitudes of a finite buffer are finite, as in the original.
#[allow(clippy::unwrap_used)]
fn forecast_oracle(history: &[f64], top_k: usize, horizon: usize) -> Vec<f64> {
    if history.is_empty() {
        return vec![0.0; horizon];
    }
    let n = next_pow2(history.len());
    let spectrum = fft(history);
    let half = n / 2;
    let mut bins: Vec<(usize, Complex)> = (1..=half).map(|k| (k, spectrum[k])).collect();
    bins.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).unwrap());
    bins.truncate(top_k);
    let dc = spectrum[0].re / n as f64;
    (1..=horizon)
        .map(|m| {
            let t = (history.len() - 1 + m) as f64;
            let mut x = dc;
            for &(k, z) in &bins {
                let scale = if k == half { 1.0 } else { 2.0 };
                x += scale / n as f64
                    * z.abs()
                    * (std::f64::consts::TAU * k as f64 * t / n as f64 + z.arg()).cos();
            }
            x
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The production forecaster equals the oracle bit for bit, on sparse
    /// integer counts (many tied magnitudes, the shape of real invocation
    /// histories) and on arbitrary reals, across window sizes that do and
    /// do not fill the sliding history.
    #[test]
    fn icebreaker_forecast_matches_the_oracle_bitwise(
        counts in proptest::collection::vec(0u32..4, 0..300),
        reals in proptest::collection::vec(-5.0f64..5.0, 0..40),
        use_reals in any::<bool>(),
        history_len in 2usize..260,
        top_k in 1usize..12,
        horizon in 0usize..24,
    ) {
        let samples: Vec<f64> = if use_reals {
            reals
        } else {
            counts.iter().map(|&c| f64::from(c)).collect()
        };
        let mut p = FftPredictor::with_params(history_len, top_k, 0.5);
        for &x in &samples {
            p.push(x);
        }
        let window = &samples[samples.len().saturating_sub(history_len)..];
        let got: Vec<u64> = p.forecast(horizon).iter().map(|x| x.to_bits()).collect();
        let want: Vec<u64> = forecast_oracle(window, top_k, horizon)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        prop_assert_eq!(got, want);
    }
}
