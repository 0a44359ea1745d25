//! A common interface over the forecasters, plus simple reference
//! predictors, for head-to-head comparisons (`pulse-exp predictors`).

use crate::ar::ArModel;
use crate::holt_winters::HoltWinters;
use crate::icebreaker::FftPredictor;

/// Anything that consumes a per-minute count series and forecasts the next
/// `h` minutes.
pub trait SeriesPredictor {
    /// Predictor name for reports.
    fn name(&self) -> &'static str;
    /// Feed one observed minute.
    fn push(&mut self, x: f64);
    /// Forecast minutes `1..=h` ahead.
    fn forecast(&self, h: usize) -> Vec<f64>;

    /// Predicted-active minute offsets: forecast above `threshold`.
    fn predict_active(&self, h: usize, threshold: f64) -> Vec<u64> {
        self.forecast(h)
            .iter()
            .enumerate()
            .filter(|(_, &x)| x > threshold)
            .map(|(i, _)| i as u64 + 1)
            .collect()
    }
}

impl SeriesPredictor for FftPredictor {
    fn name(&self) -> &'static str {
        "fft-topk (icebreaker)"
    }
    fn push(&mut self, x: f64) {
        FftPredictor::push(self, x);
    }
    fn forecast(&self, h: usize) -> Vec<f64> {
        FftPredictor::forecast(self, h)
    }
}

impl SeriesPredictor for HoltWinters {
    fn name(&self) -> &'static str {
        "holt-winters"
    }
    fn push(&mut self, x: f64) {
        HoltWinters::push(self, x);
    }
    fn forecast(&self, h: usize) -> Vec<f64> {
        HoltWinters::forecast(self, h)
    }
}

/// AR(p) over a sliding window of the count series, refit on demand.
#[derive(Debug, Clone)]
pub struct ArWindowPredictor {
    window: usize,
    max_order: usize,
    buffer: Vec<f64>,
}

impl ArWindowPredictor {
    /// AR predictor with a 4-hour window and order ≤ 5.
    pub fn new() -> Self {
        Self::with_params(240, 5)
    }

    /// Fully parameterized constructor.
    pub fn with_params(window: usize, max_order: usize) -> Self {
        assert!(window >= 2);
        Self {
            window,
            max_order,
            buffer: Vec::new(),
        }
    }
}

impl Default for ArWindowPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl SeriesPredictor for ArWindowPredictor {
    fn name(&self) -> &'static str {
        "ar-yule-walker"
    }
    fn push(&mut self, x: f64) {
        self.buffer.push(x);
        if self.buffer.len() > self.window {
            let excess = self.buffer.len() - self.window;
            self.buffer.drain(..excess);
        }
    }
    fn forecast(&self, h: usize) -> Vec<f64> {
        if self.buffer.is_empty() {
            return vec![0.0; h];
        }
        ArModel::fit_auto(&self.buffer, self.max_order).forecast(&self.buffer, h)
    }
}

/// Seasonal-naive reference: the forecast for offset `k` is the observation
/// one season (default: one hour) earlier. The baseline any learned
/// predictor must beat.
#[derive(Debug, Clone)]
pub struct SeasonalNaive {
    period: usize,
    buffer: Vec<f64>,
}

impl SeasonalNaive {
    /// Seasonal-naive with the given period.
    pub fn new(period: usize) -> Self {
        assert!(period >= 1);
        Self {
            period,
            buffer: Vec::new(),
        }
    }
}

impl SeriesPredictor for SeasonalNaive {
    fn name(&self) -> &'static str {
        "seasonal-naive"
    }
    fn push(&mut self, x: f64) {
        self.buffer.push(x);
        if self.buffer.len() > 2 * self.period {
            let excess = self.buffer.len() - 2 * self.period;
            self.buffer.drain(..excess);
        }
    }
    fn forecast(&self, h: usize) -> Vec<f64> {
        (1..=h)
            .map(|k| {
                self.buffer
                    .len()
                    .checked_sub(self.period)
                    .map(|base| {
                        let idx = base + (k - 1) % self.period;
                        self.buffer.get(idx).copied().unwrap_or(0.0)
                    })
                    .unwrap_or(0.0)
            })
            .collect()
    }
}

/// Binary-forecast quality over one evaluation: counts of predicted/actual
/// active minutes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForecastScore {
    /// Predicted active and actually active.
    pub true_positives: u64,
    /// Predicted active, actually silent.
    pub false_positives: u64,
    /// Predicted silent, actually active.
    pub false_negatives: u64,
}

impl ForecastScore {
    /// Accumulate one horizon's comparison.
    pub fn record(&mut self, predicted: &[u64], actual_active: &[u64]) {
        for m in predicted {
            if actual_active.contains(m) {
                self.true_positives += 1;
            } else {
                self.false_positives += 1;
            }
        }
        for m in actual_active {
            if !predicted.contains(m) {
                self.false_negatives += 1;
            }
        }
    }

    /// Precision (1.0 when nothing was predicted).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Recall (1.0 when nothing was actually active).
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// F1 score.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;

    fn periodic(period: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| if t % period == 0 { 1.0 } else { 0.0 })
            .collect()
    }

    #[test]
    fn all_predictors_handle_empty_state() {
        let preds: Vec<Box<dyn SeriesPredictor>> = vec![
            Box::new(FftPredictor::new()),
            Box::new(HoltWinters::hourly()),
            Box::new(ArWindowPredictor::new()),
            Box::new(SeasonalNaive::new(60)),
        ];
        for p in preds {
            let fc = p.forecast(5);
            assert_eq!(fc.len(), 5, "{}", p.name());
            assert!(fc.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn seasonal_naive_repeats_last_season() {
        let mut p = SeasonalNaive::new(4);
        for &x in &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0] {
            p.push(x);
        }
        // Last season is [3,0,4,0]... buffer keeps 2 seasons [1,0,2,0,3,0,4,0];
        // base = len-4 = 4 → forecasts cycle [3,0,4,0].
        assert_eq!(p.forecast(4), vec![3.0, 0.0, 4.0, 0.0]);
        assert_eq!(p.forecast(6)[4], 3.0);
    }

    #[test]
    fn seasonal_naive_predicts_pure_period_perfectly() {
        let mut p = SeasonalNaive::new(6);
        for x in periodic(6, 120) {
            p.push(x);
        }
        let active = p.predict_active(12, 0.5);
        // t=120 is phase 0 → next active minutes at offsets where (120+k-1)%6==0+..
        // signal active at t≡0 (mod 6): t=120 is offset... offset k covers t=120+k-1? No:
        // forecast offset k covers time 120 + k - 1? We define offset k = k steps ahead
        // of the last sample (t=119), i.e. t = 119 + k. Active t: 120, 126 → k = 1, 7.
        assert_eq!(active, vec![1, 7]);
    }

    #[test]
    fn ar_window_evicts_old_history() {
        let mut p = ArWindowPredictor::with_params(10, 2);
        for t in 0..100 {
            p.push(t as f64);
        }
        assert_eq!(p.buffer.len(), 10);
        let fc = p.forecast(3);
        assert!(fc.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn score_arithmetic() {
        let mut s = ForecastScore::default();
        s.record(&[1, 3, 5], &[1, 2, 3]);
        assert_eq!(s.true_positives, 2); // 1, 3
        assert_eq!(s.false_positives, 1); // 5
        assert_eq!(s.false_negatives, 1); // 2
        assert!((s.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.f1() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_score_is_perfect() {
        let s = ForecastScore::default();
        assert_eq!(s.precision(), 1.0);
        assert_eq!(s.recall(), 1.0);
    }

    #[test]
    fn trait_objects_are_usable_generically() {
        let mut preds: Vec<Box<dyn SeriesPredictor>> = vec![
            Box::new(FftPredictor::with_params(64, 4, 0.4)),
            Box::new(HoltWinters::new(8, 0.3, 0.05, 0.3)),
            Box::new(ArWindowPredictor::with_params(64, 3)),
            Box::new(SeasonalNaive::new(8)),
        ];
        let signal = periodic(8, 128);
        for p in preds.iter_mut() {
            for &x in &signal {
                p.push(x);
            }
            let active = p.predict_active(8, 0.4);
            assert!(active.iter().all(|&m| (1..=8).contains(&m)), "{}", p.name());
        }
    }
}
