//! Serverless in the Wild: the hybrid histogram policy (Shahrad et al.,
//! ATC'20), as used by the paper for the Figure 8 integration experiment.
//!
//! Per function, idle times (inter-arrival gaps at minute resolution) feed a
//! bounded histogram. On each invocation the policy decides a *pre-warm
//! window* (how long to wait before re-warming the container) and a
//! *keep-alive window* (how long past the pre-warm point to keep it warm):
//!
//! * **Representative histogram** → pre-warm at the head percentile (5th)
//!   of the idle-time distribution, keep alive until the tail percentile
//!   (99th).
//! * **Uncertain pattern** (too few samples, or out-of-bounds/heavy tail) →
//!   the original falls back to ARIMA; we fit an AR(1) model on the gap
//!   series and keep alive a margin window around the predicted next gap.
//! * **No data** → the provider-standard fixed window.

use pulse_models::stats;

/// What Wild decides after an invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WildDecision {
    /// Minutes after the invocation to start keeping the container warm
    /// (0 = immediately).
    pub prewarm_min: u32,
    /// Minutes after the invocation to stop keeping it warm (exclusive
    /// upper edge of the warm window).
    pub keepalive_min: u32,
}

impl WildDecision {
    /// The provider-standard fallback: warm immediately, for `window` min.
    pub fn fixed(window: u32) -> Self {
        Self {
            prewarm_min: 0,
            keepalive_min: window,
        }
    }

    /// True when minute-offset `m` (1-based) after the invocation falls in
    /// the warm window.
    pub fn covers(&self, m: u64) -> bool {
        m > self.prewarm_min as u64 && m <= self.keepalive_min as u64
    }
}

/// Per-function hybrid histogram state.
#[derive(Debug, Clone)]
pub struct HybridHistogram {
    /// Bounded idle-time histogram; bin `g` counts gaps of `g` minutes
    /// (gaps beyond the bound land in the out-of-bounds counter).
    bins: Vec<u32>,
    /// Gaps larger than the histogram bound.
    out_of_bounds: u32,
    /// Raw gap series (bounded FIFO) for the AR(1) fallback.
    recent_gaps: Vec<f64>,
    /// Last invocation minute.
    last_arrival: Option<u64>,
    /// Configuration.
    cfg: WildConfig,
}

/// Tunables of the hybrid histogram (defaults follow the ATC'20 paper's
/// 4-hour bound and 5th/99th percentiles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WildConfig {
    /// Histogram bound, minutes (gaps beyond it are "out of bounds").
    pub bound_min: u32,
    /// Head percentile for the pre-warm window.
    pub head_pct: f64,
    /// Tail percentile for the keep-alive window.
    pub tail_pct: f64,
    /// Minimum in-bounds samples before the histogram is trusted.
    pub min_samples: u32,
    /// Fraction of out-of-bounds gaps above which the histogram is not
    /// considered representative.
    pub max_oob_frac: f64,
    /// Margin (minutes) around the AR(1)-predicted gap.
    pub ar_margin_min: u32,
    /// How many recent gaps the AR(1) fallback fits.
    pub ar_history: usize,
    /// Fixed fallback window when there is no usable signal.
    pub fixed_window: u32,
}

impl Default for WildConfig {
    fn default() -> Self {
        Self {
            bound_min: 240,
            head_pct: 5.0,
            tail_pct: 99.0,
            min_samples: 5,
            max_oob_frac: 0.5,
            ar_margin_min: 2,
            ar_history: 64,
            fixed_window: 10,
        }
    }
}

impl HybridHistogram {
    /// Fresh state.
    pub fn new(cfg: WildConfig) -> Self {
        Self {
            bins: vec![0; cfg.bound_min as usize + 1],
            out_of_bounds: 0,
            recent_gaps: Vec::new(),
            last_arrival: None,
            cfg,
        }
    }

    /// Record an invocation at minute `t`; returns the observed gap, if any.
    // g <= bound_min, a u32, so it indexes the histogram exactly.
    #[allow(clippy::cast_possible_truncation)]
    pub fn record(&mut self, t: u64) -> Option<u64> {
        let gap = match self.last_arrival {
            Some(last) if t > last => Some(t - last),
            Some(_) => None, // same-minute duplicate
            None => None,
        };
        if let Some(g) = gap {
            if g <= self.cfg.bound_min as u64 {
                self.bins[g as usize] += 1;
            } else {
                self.out_of_bounds += 1;
            }
            self.recent_gaps.push(g as f64);
            if self.recent_gaps.len() > self.cfg.ar_history {
                self.recent_gaps.remove(0);
            }
        }
        if self.last_arrival.is_none_or(|last| t > last) {
            self.last_arrival = Some(t);
        }
        gap
    }

    /// Number of in-bounds samples.
    pub fn in_bounds(&self) -> u32 {
        self.bins.iter().sum()
    }

    /// Whether the histogram is representative per the ATC'20 criteria.
    pub fn is_representative(&self) -> bool {
        let ib = self.in_bounds();
        if ib < self.cfg.min_samples {
            return false;
        }
        let total = ib + self.out_of_bounds;
        (self.out_of_bounds as f64 / total as f64) <= self.cfg.max_oob_frac
    }

    /// Percentile of the in-bounds idle-time distribution, minutes.
    // The target is at most the in-bounds count, and g indexes the
    // bound_min-sized histogram.
    #[allow(clippy::cast_possible_truncation)]
    fn percentile(&self, pct: f64) -> u32 {
        let total = self.in_bounds();
        if total == 0 {
            return self.cfg.fixed_window;
        }
        let target = (pct / 100.0 * total as f64).ceil().max(1.0) as u32;
        let mut cum = 0u32;
        for (g, &c) in self.bins.iter().enumerate() {
            cum += c;
            if cum >= target {
                return g as u32;
            }
        }
        self.cfg.bound_min
    }

    /// Time-series forecast of the next gap — the stand-in for the
    /// original's ARIMA fallback. Fits an AR(p) model (Yule–Walker via
    /// Levinson–Durbin, AIC order selection up to order 3) on the recent
    /// gap series and predicts one step ahead. Returns the mean gap for
    /// very short series, `None` with no data at all.
    pub fn ar_forecast(&self) -> Option<f64> {
        let xs = &self.recent_gaps;
        if xs.is_empty() {
            return None;
        }
        if xs.len() < 3 {
            return Some(stats::mean(xs));
        }
        let model = crate::ar::ArModel::fit_auto(xs, 3);
        Some(model.forecast_one(xs))
    }

    /// Wild's decision after an invocation (call [`Self::record`] first).
    // Saturating cast of a finite AR forecast of at least one minute.
    #[allow(clippy::cast_possible_truncation)]
    pub fn decide(&self) -> WildDecision {
        if self.is_representative() {
            let head = self.percentile(self.cfg.head_pct);
            let tail = self.percentile(self.cfg.tail_pct).max(head + 1);
            return WildDecision {
                // Pre-warm shortly before the head percentile.
                prewarm_min: head.saturating_sub(1),
                keepalive_min: tail,
            };
        }
        match self.ar_forecast() {
            Some(pred) if pred.is_finite() && pred >= 1.0 => {
                let p = pred.round() as u32;
                let m = self.cfg.ar_margin_min;
                WildDecision {
                    prewarm_min: p.saturating_sub(m).saturating_sub(1),
                    keepalive_min: p + m,
                }
            }
            _ => WildDecision::fixed(self.cfg.fixed_window),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_cadence(h: &mut HybridHistogram, period: u64, n: usize) {
        for i in 0..n {
            h.record(i as u64 * period);
        }
    }

    #[test]
    fn steady_cadence_yields_tight_window() {
        let mut h = HybridHistogram::new(WildConfig::default());
        record_cadence(&mut h, 7, 50);
        assert!(h.is_representative());
        let d = h.decide();
        // Idle time is always 7: pre-warm just before, keep until just after.
        assert_eq!(d.prewarm_min, 6);
        assert_eq!(d.keepalive_min, 8);
        assert!(d.covers(7));
        assert!(!d.covers(3));
        assert!(!d.covers(9));
    }

    #[test]
    fn percentiles_of_spread_histogram() {
        let mut h = HybridHistogram::new(WildConfig::default());
        // Gaps: mostly 5, some 20.
        let mut t = 0;
        for i in 0..100 {
            t += if i % 10 == 0 { 20 } else { 5 };
            h.record(t);
        }
        let d = h.decide();
        assert!(d.prewarm_min <= 5);
        assert!(d.keepalive_min >= 20);
    }

    #[test]
    fn too_few_samples_falls_back() {
        let mut h = HybridHistogram::new(WildConfig::default());
        h.record(0);
        h.record(5);
        assert!(!h.is_representative());
        let d = h.decide();
        // AR fallback on a single gap of 5 → window around 5.
        assert!(d.covers(5), "{d:?}");
    }

    #[test]
    fn no_data_uses_fixed_window() {
        let h = HybridHistogram::new(WildConfig::default());
        assert_eq!(h.decide(), WildDecision::fixed(10));
    }

    #[test]
    fn heavy_out_of_bounds_triggers_fallback() {
        let cfg = WildConfig::default();
        let mut h = HybridHistogram::new(cfg);
        // Most gaps beyond the 240-minute bound.
        let mut t = 0u64;
        for i in 0..20 {
            t += if i % 4 == 0 { 10 } else { 500 };
            h.record(t);
        }
        assert!(!h.is_representative());
        // AR forecast exists (gap series non-empty).
        assert!(h.ar_forecast().is_some());
    }

    #[test]
    fn ar1_tracks_alternating_series() {
        let mut h = HybridHistogram::new(WildConfig {
            min_samples: u32::MAX, // force the AR path
            ..Default::default()
        });
        // Strongly negatively autocorrelated gaps: 2, 10, 2, 10, …
        let mut t = 0u64;
        for i in 0..40 {
            t += if i % 2 == 0 { 2 } else { 10 };
            h.record(t);
        }
        let pred = h.ar_forecast().unwrap();
        let last = *h.recent_gaps.last().unwrap();
        // Prediction moves to the opposite side of the mean from `last`.
        let mu = stats::mean(&h.recent_gaps);
        assert!((pred - mu).signum() != (last - mu).signum(), "pred={pred}");
    }

    #[test]
    fn same_minute_duplicates_ignored() {
        let mut h = HybridHistogram::new(WildConfig::default());
        h.record(5);
        assert_eq!(h.record(5), None);
        assert_eq!(h.record(9), Some(4));
    }

    #[test]
    fn decision_window_is_well_formed() {
        let mut h = HybridHistogram::new(WildConfig::default());
        let mut t = 0u64;
        for g in [1u64, 3, 2, 8, 1, 1, 4, 90, 2, 2, 3, 1] {
            t += g;
            h.record(t);
        }
        let d = h.decide();
        assert!(d.prewarm_min < d.keepalive_min);
    }
}
