//! Autoregressive modelling: Yule–Walker estimation via Levinson–Durbin.
//!
//! Serverless-in-the-Wild falls back to an ARIMA forecast for functions
//! whose idle-time histogram is not representative. A full ARIMA stack is
//! out of scope (and unnecessary at minute resolution over bounded gap
//! series); this module implements the AR(p) core properly: biased
//! autocovariance estimates, the Levinson–Durbin recursion solving the
//! Yule–Walker equations in O(p²), innovation-variance tracking, AIC-based
//! order selection, and the one-step forecast Wild's fallback needs.

/// A fitted AR(p) model of a (weakly stationary) series:
/// `x_t − μ = Σ_i φ_i (x_{t−i} − μ) + ε_t`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArModel {
    /// Series mean `μ`.
    pub mean: f64,
    /// AR coefficients `φ_1 … φ_p` (possibly empty: white noise around μ).
    pub coeffs: Vec<f64>,
    /// Innovation variance `σ²` from the recursion.
    pub sigma2: f64,
}

/// Biased (1/N) autocovariance at lags `0..=max_lag`.
pub fn autocovariance(xs: &[f64], max_lag: usize) -> Vec<f64> {
    let n = xs.len();
    if n == 0 {
        return vec![0.0; max_lag + 1];
    }
    let mean = xs.iter().sum::<f64>() / n as f64;
    (0..=max_lag)
        .map(|lag| {
            if lag >= n {
                return 0.0;
            }
            (0..n - lag)
                .map(|t| (xs[t] - mean) * (xs[t + lag] - mean))
                .sum::<f64>()
                / n as f64
        })
        .collect()
}

/// Levinson–Durbin recursion: solve the order-`p` Yule–Walker equations
/// given autocovariances `r[0..=p]`. Returns `(coeffs, sigma2)`.
///
/// Degenerate inputs (`r[0] ≈ 0`, i.e. a constant series) yield the white-
/// noise model `(vec![], 0.0)`.
pub fn levinson_durbin(r: &[f64], p: usize) -> (Vec<f64>, f64) {
    assert!(r.len() > p, "need autocovariances up to lag p");
    if r[0].abs() < 1e-12 || p == 0 {
        return (Vec::new(), r[0].max(0.0));
    }
    let mut a = vec![0.0f64; p]; // φ_1..φ_p (growing prefix in use)
    let mut e = r[0];
    for k in 0..p {
        let mut acc = r[k + 1];
        for j in 0..k {
            acc -= a[j] * r[k - j];
        }
        if e.abs() < 1e-12 {
            break;
        }
        let kappa = acc / e; // reflection coefficient
                             // Update coefficients: a'_j = a_j − κ a_{k−1−j}.
        let prev = a[..k].to_vec();
        for j in 0..k {
            a[j] = prev[j] - kappa * prev[k - 1 - j];
        }
        a[k] = kappa;
        e *= 1.0 - kappa * kappa;
        if e < 0.0 {
            e = 0.0;
        }
    }
    (a, e)
}

impl ArModel {
    /// Fit AR(`order`) by Yule–Walker. `order` is clamped to `len − 1`.
    pub fn fit(xs: &[f64], order: usize) -> Self {
        let n = xs.len();
        if n == 0 {
            return Self {
                mean: 0.0,
                coeffs: Vec::new(),
                sigma2: 0.0,
            };
        }
        let p = order.min(n.saturating_sub(1));
        let r = autocovariance(xs, p);
        let (coeffs, sigma2) = levinson_durbin(&r, p);
        Self {
            mean: xs.iter().sum::<f64>() / n as f64,
            coeffs,
            sigma2,
        }
    }

    /// Fit with automatic order selection: minimize
    /// `AIC(p) = N·ln σ²_p + 2p` over `p ∈ 0..=max_order`.
    // The loop over 0..=pmax always evaluates order 0.
    #[allow(clippy::expect_used)]
    pub fn fit_auto(xs: &[f64], max_order: usize) -> Self {
        let n = xs.len();
        if n < 3 {
            return Self::fit(xs, 0);
        }
        let pmax = max_order.min(n - 1);
        let r = autocovariance(xs, pmax);
        let mut best: Option<(f64, Self)> = None;
        let mean = xs.iter().sum::<f64>() / n as f64;
        for p in 0..=pmax {
            let (coeffs, sigma2) = levinson_durbin(&r, p);
            let aic = n as f64 * sigma2.max(1e-12).ln() + 2.0 * p as f64;
            let model = Self {
                mean,
                coeffs,
                sigma2,
            };
            if best.as_ref().is_none_or(|(b, _)| aic < *b) {
                best = Some((aic, model));
            }
        }
        best.expect("at least order 0 evaluated").1
    }

    /// Model order `p`.
    pub fn order(&self) -> usize {
        self.coeffs.len()
    }

    /// One-step-ahead forecast given the most recent observations
    /// (`recent[recent.len() − 1]` is the latest). Missing history is
    /// treated as the mean.
    pub fn forecast_one(&self, recent: &[f64]) -> f64 {
        let mut acc = self.mean;
        for (i, &phi) in self.coeffs.iter().enumerate() {
            let x = recent
                .len()
                .checked_sub(i + 1)
                .map(|idx| recent[idx])
                .unwrap_or(self.mean);
            acc += phi * (x - self.mean);
        }
        acc
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;

    fn ar1_series(phi: f64, n: usize, seed: u64) -> Vec<f64> {
        // Deterministic xorshift noise, so tests need no rand dependency.
        let mut state = seed | 1;
        let mut noise = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut xs = vec![0.0f64];
        for _ in 1..n {
            let prev = *xs.last().unwrap();
            xs.push(phi * prev + noise());
        }
        xs
    }

    #[test]
    fn autocovariance_lag0_is_variance() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let r = autocovariance(&xs, 2);
        assert!((r[0] - 2.0).abs() < 1e-12); // population variance of 1..5
        assert!(r[1] < r[0]);
    }

    #[test]
    fn recovers_ar1_coefficient() {
        for &phi in &[0.8, -0.6, 0.3] {
            let xs = ar1_series(phi, 20_000, 42);
            let m = ArModel::fit(&xs, 1);
            assert_eq!(m.order(), 1);
            assert!(
                (m.coeffs[0] - phi).abs() < 0.05,
                "phi {phi}: estimated {}",
                m.coeffs[0]
            );
        }
    }

    #[test]
    fn constant_series_is_white_noise_at_mean() {
        let m = ArModel::fit(&[7.0; 50], 3);
        assert!(m.coeffs.is_empty());
        assert!((m.mean - 7.0).abs() < 1e-12);
        assert!((m.forecast_one(&[7.0; 5]) - 7.0).abs() < 1e-12);
        assert!(m.sigma2.abs() < 1e-12);
    }

    #[test]
    fn auto_order_prefers_low_order_for_white_noise() {
        let xs = ar1_series(0.0, 5000, 9);
        let m = ArModel::fit_auto(&xs, 6);
        // AIC's 2p penalty should keep the order small for iid noise.
        assert!(m.order() <= 2, "order {}", m.order());
    }

    #[test]
    fn auto_order_finds_ar2_structure() {
        // x_t = 0.6 x_{t-1} - 0.3 x_{t-2} + ε.
        let mut xs = vec![0.0, 0.0];
        let mut state = 12345u64;
        let mut noise = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for _ in 2..20_000 {
            let n = xs.len();
            let v = 0.6 * xs[n - 1] - 0.3 * xs[n - 2] + noise();
            xs.push(v);
        }
        let m = ArModel::fit_auto(&xs, 5);
        assert!(m.order() >= 2, "order {}", m.order());
        assert!((m.coeffs[0] - 0.6).abs() < 0.08, "{:?}", m.coeffs);
        assert!((m.coeffs[1] + 0.3).abs() < 0.08, "{:?}", m.coeffs);
    }

    #[test]
    fn forecast_contracts_toward_mean() {
        let xs = ar1_series(0.7, 5000, 5);
        let m = ArModel::fit(&xs, 1);
        // One step from 10 above the mean lands about φ·10 above it.
        let dev = m.forecast_one(&[m.mean + 10.0]) - m.mean;
        assert!(dev > 10.0 * 0.6 && dev < 10.0 * 0.8, "{dev}");
    }

    #[test]
    fn alternating_series_predicts_flip() {
        // 2, 10, 2, 10 … has strong negative lag-1 correlation.
        let xs: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 2.0 } else { 10.0 })
            .collect();
        let m = ArModel::fit(&xs, 1);
        assert!(m.coeffs[0] < -0.9, "{:?}", m.coeffs);
        let after_low = m.forecast_one(&[2.0]);
        let after_high = m.forecast_one(&[10.0]);
        assert!(after_low > 8.0, "{after_low}");
        assert!(after_high < 4.0, "{after_high}");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let m = ArModel::fit(&[], 3);
        assert_eq!(m.order(), 0);
        assert_eq!(m.forecast_one(&[]), 0.0);
        let m = ArModel::fit(&[5.0], 3);
        assert_eq!(m.order(), 0);
        assert!((m.forecast_one(&[]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn short_history_pads_with_mean() {
        let xs = ar1_series(0.5, 2000, 3);
        let m = ArModel::fit(&xs, 3);
        // With no recent observations every term is the mean.
        assert!((m.forecast_one(&[]) - m.mean).abs() < 1e-12);
    }

    #[test]
    fn sigma2_nonincreasing_in_order() {
        let xs = ar1_series(0.7, 5000, 11);
        let r = autocovariance(&xs, 6);
        let mut prev = f64::INFINITY;
        for p in 0..=6 {
            let (_, s) = levinson_durbin(&r, p);
            assert!(s <= prev + 1e-9, "order {p}: {s} > {prev}");
            prev = s;
        }
    }

    #[test]
    #[should_panic(expected = "autocovariances up to lag p")]
    fn levinson_requires_enough_lags() {
        levinson_durbin(&[1.0, 0.5], 2);
    }
}
