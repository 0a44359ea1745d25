//! IceBreaker's FFT-based invocation forecaster (Roy et al., ASPLOS'22).
//!
//! IceBreaker treats a function's recent per-minute invocation counts as a
//! signal, Fourier-transforms it, keeps the dominant harmonics, and
//! extrapolates them to predict invocations in the upcoming window; the
//! function is pre-warmed for the predicted minutes. (The original also
//! picks among heterogeneous node types via a utility function; the paper's
//! integration experiment uses a single node type, so that stage is elided —
//! exactly as the paper does.)

use crate::fft::{fft, next_pow2};

/// Top-k harmonic forecaster over a sliding history of per-minute counts.
#[derive(Debug, Clone)]
pub struct FftPredictor {
    /// Sliding history length (minutes). Analyses use the last `history_len`
    /// samples, zero-padded to a power of two.
    pub history_len: usize,
    /// Number of dominant harmonics (excluding DC) to keep.
    pub top_k: usize,
    /// Threshold on the reconstructed signal above which a minute is
    /// predicted "active".
    pub activity_threshold: f64,
    buffer: Vec<f64>,
}

impl FftPredictor {
    /// Predictor with IceBreaker-like defaults: 4-hour history, 8 harmonics.
    pub fn new() -> Self {
        Self::with_params(240, 8, 0.5)
    }

    /// Fully parameterized constructor.
    pub fn with_params(history_len: usize, top_k: usize, activity_threshold: f64) -> Self {
        assert!(history_len >= 2 && top_k >= 1);
        Self {
            history_len,
            top_k,
            activity_threshold,
            buffer: Vec::new(),
        }
    }

    /// Push one minute's invocation count.
    pub fn push(&mut self, count: f64) {
        self.buffer.push(count);
        if self.buffer.len() > self.history_len {
            let excess = self.buffer.len() - self.history_len;
            self.buffer.drain(..excess);
        }
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// True when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Extrapolate the signal `horizon` minutes past the end of the history:
    /// returns the reconstructed-from-top-k values at offsets `1..=horizon`.
    ///
    /// Reconstruction: with spectrum `X` of length `N`, keep the DC bin plus
    /// the `top_k` strongest bins `k ≤ N/2`; the signal value at (possibly
    /// out-of-range) time `t` is
    /// `X₀/N + Σ_k (2/N)·|X_k|·cos(2π k t / N + arg X_k)` — periodic
    /// extension of the dominant harmonics.
    // FFT magnitudes of a finite buffer are finite.
    #[allow(clippy::expect_used)]
    pub fn forecast(&self, horizon: usize) -> Vec<f64> {
        if self.buffer.is_empty() {
            return vec![0.0; horizon];
        }
        let n = next_pow2(self.buffer.len());
        let spectrum = fft(&self.buffer);
        let half = n / 2;
        // Rank positive-frequency bins by magnitude, computing each
        // magnitude (a `hypot`) once rather than twice per comparison. The
        // sort is stable, so ties keep ascending frequency order.
        let mut bins: Vec<(usize, f64)> = (1..=half).map(|k| (k, spectrum[k].abs())).collect();
        bins.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite magnitudes"));
        bins.truncate(self.top_k);
        // Per-harmonic terms that do not depend on the horizon offset, each
        // the leading sub-product of the term it replaces, so every sum
        // keeps its operand order and the forecast its bits.
        let n_f = n as f64;
        let harmonics: Vec<Harmonic> = bins
            .iter()
            .map(|&(k, magnitude)| {
                let scale = if k == half { 1.0 } else { 2.0 };
                Harmonic {
                    amplitude: scale / n_f * magnitude,
                    angular: std::f64::consts::TAU * k as f64,
                    phase: spectrum[k].arg(),
                }
            })
            .collect();
        let dc = spectrum[0].re / n_f;
        (1..=horizon)
            .map(|m| {
                let t = (self.buffer.len() - 1 + m) as f64;
                let mut x = dc;
                for h in &harmonics {
                    x += h.amplitude * (h.angular * t / n_f + h.phase).cos();
                }
                x
            })
            .collect()
    }

    /// Predicted-active minutes within the next `horizon`: 1-based offsets
    /// where the forecast exceeds the activity threshold.
    pub fn predict_active(&self, horizon: usize) -> Vec<u64> {
        self.forecast(horizon)
            .iter()
            .enumerate()
            .filter(|(_, &x)| x > self.activity_threshold)
            .map(|(i, _)| i as u64 + 1)
            .collect()
    }
}

/// One kept harmonic of [`FftPredictor::forecast`]: the value at time `t`
/// is `amplitude · cos(angular · t / N + phase)`.
struct Harmonic {
    /// `(2/N)·|X_k|` (`(1/N)·|X_k|` at the Nyquist bin).
    amplitude: f64,
    /// `2π·k`.
    angular: f64,
    /// `arg X_k`.
    phase: f64,
}

impl Default for FftPredictor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_periodic(p: &mut FftPredictor, period: usize, total: usize) {
        for t in 0..total {
            p.push(if t % period == 0 { 1.0 } else { 0.0 });
        }
    }

    #[test]
    fn periodic_signal_is_extrapolated() {
        let mut p = FftPredictor::with_params(256, 12, 0.4);
        feed_periodic(&mut p, 8, 256);
        let active = p.predict_active(16);
        // History covers t = 0..255; forecast offsets map to t = 256….
        // Active minutes of the true signal: t ≡ 0 (mod 8) → t = 256, 264 →
        // offsets 1 and 9.
        assert!(active.contains(&1), "{active:?}");
        assert!(active.contains(&9), "{active:?}");
        // Mid-period minutes must not be predicted active.
        assert!(!active.contains(&5), "{active:?}");
    }

    #[test]
    fn constant_signal_forecasts_its_level() {
        let mut p = FftPredictor::with_params(64, 4, 0.5);
        for _ in 0..64 {
            p.push(3.0);
        }
        let f = p.forecast(10);
        for x in f {
            assert!((x - 3.0).abs() < 1e-6, "got {x}");
        }
    }

    #[test]
    fn silent_signal_predicts_nothing() {
        let mut p = FftPredictor::new();
        for _ in 0..100 {
            p.push(0.0);
        }
        assert!(p.predict_active(10).is_empty());
    }

    #[test]
    fn empty_history_forecasts_zero() {
        let p = FftPredictor::new();
        assert_eq!(p.forecast(5), vec![0.0; 5]);
        assert!(p.predict_active(5).is_empty());
    }

    #[test]
    fn sliding_window_evicts_old_samples() {
        let mut p = FftPredictor::with_params(16, 4, 0.5);
        for t in 0..100 {
            p.push(t as f64);
        }
        assert_eq!(p.len(), 16);
    }

    #[test]
    fn sine_wave_reconstruction_error_is_small() {
        let n = 128;
        let mut p = FftPredictor::with_params(n, 2, 0.0);
        let f = |t: usize| 2.0 + (std::f64::consts::TAU * t as f64 / 16.0).sin();
        for t in 0..n {
            p.push(f(t));
        }
        let fc = p.forecast(16);
        for (m, x) in fc.iter().enumerate() {
            let truth = f(n - 1 + m + 1);
            assert!((x - truth).abs() < 0.15, "offset {}: {x} vs {truth}", m + 1);
        }
    }

    #[test]
    fn top_k_one_keeps_only_dominant_harmonic() {
        let n = 128;
        let mut strong = FftPredictor::with_params(n, 1, 0.0);
        // Dominant period 16, weak period 5.
        for t in 0..n {
            let x = (std::f64::consts::TAU * t as f64 / 16.0).sin() * 3.0
                + (std::f64::consts::TAU * t as f64 / 5.0).sin() * 0.2;
            strong.push(x);
        }
        let fc = strong.forecast(32);
        // Reconstruction should be dominated by the period-16 tone: check
        // the period by sign changes, roughly 4 per 32 samples.
        let sign_changes = fc
            .windows(2)
            .filter(|w| w[0].signum() != w[1].signum())
            .count();
        assert!(
            (3..=5).contains(&sign_changes),
            "{sign_changes} sign changes"
        );
    }
}
