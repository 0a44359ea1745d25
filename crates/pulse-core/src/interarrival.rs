//! Inter-arrival probability model (Section III-A).
//!
//! For each function PULSE keeps the invocation history and estimates, at
//! minute resolution, the probability that the next invocation arrives `k`
//! minutes after the previous one, for `k` within the keep-alive window.
//! Because inter-arrival behaviour drifts over time (Figure 2), the estimate
//! averages two empirical distributions: one over a sliding *local window*
//! of the immediate past, and one over the entire operational history.
//! Following the paper's worked example ("when the inter-arrival time of 2
//! appears 10 times, we compute the probability of 2 as 10 divided by the
//! total number of inter-arrival times"), each distribution divides the count
//! of gap `k` by the total number of gaps — including gaps longer than the
//! window — so the in-window probabilities need not sum to 1.
//!
//! Cost: the full-history side is kept as gap counts bounded by the
//! keep-alive window (`window + 1` counters plus the in-window and total
//! gap counts), updated in O(1) per recorded arrival. The local side is
//! recomputed per query from the slice of the arrival log inside
//! `[now − local_window, now]`: arrival minutes are distinct, so it lies in
//! the last `local_window + 1` arrivals up to `now`, and a query at or after
//! the last arrival (every engine query) binary-searches only those. A
//! query costs O(local_window + window) however long the history grows; a
//! plan allocates one buffer (`map_combined`), a single gap none
//! ([`InterArrivalModel::invocation_probability_at`]). The log itself is
//! kept because the local side re-reads it: each query takes its slice
//! inside the local window (`local_slice`).
//!
//! Every estimate is carried as the validated [`Probability`] newtype from
//! the moment it leaves the count ratios, so downstream policy code never
//! sees an unvalidated float.

use crate::convert::{gap_to_index, len_to_u32, len_to_u64, u64_to_f64, window_to_len};
use crate::probability::Probability;
use crate::types::Minute;
use serde::{Deserialize, Serialize};

/// Estimated probability of each inter-arrival gap within the keep-alive
/// window. `probs[k]` is the probability of a gap of exactly `k` minutes;
/// index 0 is unused (a same-minute re-invocation is already warm by
/// construction) and always 0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GapProbabilities {
    probs: Vec<Probability>,
}

impl GapProbabilities {
    /// All-zero distribution over a window of `w` minutes (no history).
    pub fn zeros(w: u32) -> Self {
        Self {
            probs: vec![Probability::ZERO; window_to_len(w) + 1],
        }
    }

    /// Probability of a gap of exactly `k` minutes, as a validated
    /// [`Probability`] (zero when out of window).
    #[inline]
    pub fn prob(&self, k: u64) -> Probability {
        self.probs
            .get(gap_to_index(k))
            .copied()
            .unwrap_or(Probability::ZERO)
    }

    /// Probability of a gap of exactly `k` minutes as a bare `f64`
    /// (convenience over [`Self::prob`] for reporting and tests).
    #[inline]
    pub fn at(&self, k: u64) -> f64 {
        self.prob(k).value()
    }

    /// Window length (max representable gap).
    #[inline]
    pub fn window(&self) -> u64 {
        len_to_u64(self.probs.len().saturating_sub(1))
    }

    /// Total in-window probability mass (≤ 1).
    pub fn mass(&self) -> f64 {
        self.probs.iter().map(|p| p.value()).sum()
    }
}

/// One gap length's count in a distribution, with the two totals the
/// estimate needs: the in-window count (zero means the distribution is
/// uninformed) and the count of all gaps (the denominator).
#[derive(Debug, Clone, Copy, Default)]
struct GapTally {
    count: u64,
    in_window: u64,
    total: u64,
}

impl GapTally {
    /// The totals over consecutive pairs of `arrivals`, counting gaps up to
    /// `window` as in-window and passing each in-window gap to `count`.
    fn over(arrivals: &[Minute], window: u64, mut count: impl FnMut(u64)) -> Self {
        let mut tally = Self::default();
        for pair in arrivals.windows(2) {
            let gap = pair[1] - pair[0];
            tally.total += 1;
            if gap <= window {
                tally.in_window += 1;
                count(gap);
            }
        }
        tally
    }

    /// `count / total`; zero when there are no gaps.
    fn prob(self) -> Probability {
        if self.total == 0 {
            return Probability::ZERO;
        }
        // count <= total by construction, so the ratio is a valid probability.
        Probability::from_invariant(u64_to_f64(self.count) / u64_to_f64(self.total))
    }

    /// The paper's combination rule: the average of the local and global
    /// estimates, falling back to whichever side is informed when the other
    /// is not.
    fn combine(local: Self, global: Self) -> Probability {
        match (local.in_window == 0, global.in_window == 0) {
            (true, true) => Probability::ZERO,
            (true, false) => global.prob(),
            (false, true) => local.prob(),
            (false, false) => local.prob().average(global.prob()),
        }
    }
}

/// Gap counts over a range of arrivals, bounded by the keep-alive window.
#[derive(Debug, Clone)]
struct GapCounts {
    /// `counts[g]` for gaps `g ≤ window`; index 0 unused (gaps are ≥ 1).
    /// `u32` keeps a model small at fleet scale: a count is at most the
    /// number of distinct minutes in the log, and 2^32 minutes is 8000 years.
    counts: Box<[u32]>,
    /// Gaps inside the window (the sum of `counts`).
    in_window: u64,
    /// All gaps, including those longer than the window.
    total: u64,
}

impl GapCounts {
    fn over(arrivals: &[Minute], window: u32) -> Self {
        let mut counts = Self {
            counts: vec![0; window_to_len(window) + 1].into_boxed_slice(),
            in_window: 0,
            total: 0,
        };
        for pair in arrivals.windows(2) {
            counts.add(pair[1] - pair[0]);
        }
        counts
    }

    fn add(&mut self, gap: u64) {
        self.total += 1;
        if let Some(c) = self.counts.get_mut(gap_to_index(gap)) {
            *c += 1;
            self.in_window += 1;
        }
    }

    fn tally(&self, k: usize) -> GapTally {
        GapTally {
            count: u64::from(self.counts[k]),
            in_window: self.in_window,
            total: self.total,
        }
    }

    fn distribution(&self) -> GapProbabilities {
        GapProbabilities {
            probs: (0..self.counts.len())
                .map(|k| self.tally(k).prob())
                .collect(),
        }
    }
}

/// Per-function invocation history with gap-probability estimation over a
/// keep-alive window fixed at construction.
///
/// Timestamps must be recorded in non-decreasing order; multiple invocations
/// within the same minute are collapsed (a second invocation in the same
/// minute hits an already-warm container and carries no inter-arrival
/// information at minute resolution).
#[derive(Debug, Clone)]
pub struct InterArrivalModel {
    /// Distinct invocation minutes, ascending.
    arrivals: Vec<Minute>,
    /// Gap counts over the whole of `arrivals`.
    global: GapCounts,
}

impl InterArrivalModel {
    /// Empty history for a keep-alive window of `window` minutes (the
    /// largest gap the estimates resolve).
    pub fn new(window: u32) -> Self {
        Self {
            arrivals: Vec::new(),
            global: GapCounts::over(&[], window),
        }
    }

    /// Record an invocation at minute `t`.
    ///
    /// # Panics
    /// Panics if `t` precedes the most recent recorded invocation — the
    /// policy is driven by a forward-moving clock.
    pub fn record(&mut self, t: Minute) {
        if let Some(&last) = self.arrivals.last() {
            assert!(t >= last, "invocations must be recorded in time order");
            if t == last {
                return; // same-minute duplicate carries no gap information
            }
            self.global.add(t - last);
        }
        self.arrivals.push(t);
    }

    /// Number of distinct invocation minutes recorded.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True when no invocation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Minute of the most recent invocation, if any.
    pub fn last_arrival(&self) -> Option<Minute> {
        self.arrivals.last().copied()
    }

    /// The keep-alive window (largest resolved gap), minutes.
    fn window(&self) -> u32 {
        len_to_u32(self.global.counts.len() - 1)
    }

    /// The arrivals within the trailing `local_window` minutes ending at
    /// `now` (inclusive): at most `local_window + 1` of them.
    fn local_slice(&self, now: Minute, local_window: u32) -> &[Minute] {
        let from = now.saturating_sub(u64::from(local_window));
        let end = match self.arrivals.last() {
            Some(&last) if last > now => self.arrivals.partition_point(|&a| a <= now),
            _ => self.arrivals.len(),
        };
        let tail = &self.arrivals[end.saturating_sub(window_to_len(local_window) + 1)..end];
        &tail[tail.partition_point(|&a| a < from)..]
    }

    /// Empirical gap distribution over the full history.
    pub fn global_distribution(&self) -> GapProbabilities {
        self.global.distribution()
    }

    /// Empirical gap distribution over arrivals within the trailing
    /// `local_window` minutes ending at `now`.
    pub fn local_distribution(&self, now: Minute, local_window: u32) -> GapProbabilities {
        GapCounts::over(self.local_slice(now, local_window), self.window()).distribution()
    }

    /// The paper's combined estimate at time `now`: the element-wise average
    /// of the local-window distribution and the full-history distribution.
    /// When one of the two is uninformed (no in-window gaps in range), the
    /// other is used alone, so sparse functions still get a usable estimate.
    pub fn probabilities(&self, now: Minute, local_window: u32) -> GapProbabilities {
        let mut probs = Vec::with_capacity(window_to_len(self.window()) + 1);
        probs.push(Probability::ZERO);
        self.map_combined(now, local_window, |p| {
            probs.push(p);
            0
        });
        GapProbabilities { probs }
    }

    /// [`Self::probabilities`] of every gap `1..=window`, mapped through
    /// `f`, in one buffer: the local gaps are counted into it, then slot
    /// `k − 1` is overwritten, in ascending `k`, with `f` of gap `k`'s
    /// combined estimate. The planner's plan is this buffer.
    pub(crate) fn map_combined(
        &self,
        now: Minute,
        local_window: u32,
        mut f: impl FnMut(Probability) -> usize,
    ) -> Vec<usize> {
        let window = self.window();
        let mut buf = vec![0; window_to_len(window)];
        let slice = self.local_slice(now, local_window);
        // In-window gaps lie in `1..=window`: arrival minutes are distinct.
        let local = GapTally::over(slice, window.into(), |g| buf[gap_to_index(g - 1)] += 1);
        for (i, slot) in buf.iter_mut().enumerate() {
            let local = GapTally {
                count: len_to_u64(*slot),
                ..local
            };
            *slot = f(GapTally::combine(local, self.global.tally(i + 1)));
        }
        buf
    }

    /// `Ip` — the probability that the next invocation comes at minute `t`:
    /// the combined estimate of a gap of `t − last` minutes, where `last` is
    /// the most recent invocation. Zero when nothing was recorded, when
    /// `t ≤ last`, or when the gap exceeds the window. Equal bit for bit to
    /// `self.probabilities(t, local_window).prob(t − last)`, but computes
    /// only that gap and allocates nothing.
    pub fn invocation_probability_at(&self, t: Minute, local_window: u32) -> Probability {
        let window = u64::from(self.window());
        match self.last_arrival() {
            Some(last) if t > last && t - last <= window => {
                let (k, mut count) = (t - last, 0);
                let slice = self.local_slice(t, local_window);
                let local = GapTally::over(slice, window, |g| count += u64::from(g == k));
                GapTally::combine(
                    GapTally { count, ..local },
                    self.global.tally(gap_to_index(k)),
                )
            }
            _ => Probability::ZERO,
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;

    fn model_with(arrivals: &[Minute]) -> InterArrivalModel {
        let mut m = InterArrivalModel::new(10);
        for &t in arrivals {
            m.record(t);
        }
        m
    }

    #[test]
    fn empty_model_is_uninformed() {
        let m = InterArrivalModel::new(10);
        assert_eq!(m.probabilities(100, 60), GapProbabilities::zeros(10));
        assert!(m.is_empty());
        assert_eq!(m.last_arrival(), None);
    }

    #[test]
    fn single_arrival_has_no_gaps() {
        let m = model_with(&[5]);
        assert_eq!(m.probabilities(100, 60), GapProbabilities::zeros(10));
    }

    #[test]
    fn uniform_cadence_concentrates_probability() {
        // Invocations every 2 minutes: P(gap=2) = 1.
        let m = model_with(&[0, 2, 4, 6, 8, 10]);
        let p = m.probabilities(10, 60);
        assert!((p.at(2) - 1.0).abs() < 1e-12);
        for k in [1u64, 3, 4, 5, 10] {
            assert!(p.prob(k).is_zero());
        }
        assert!((p.mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn papers_worked_example() {
        // Gap of 2 appearing 10 times among 20 total gaps → P(2) = 0.5.
        let mut arrivals = vec![0u64];
        let mut t = 0u64;
        for _ in 0..10 {
            t += 2;
            arrivals.push(t);
        }
        for _ in 0..10 {
            t += 30; // out-of-window gaps still count in the denominator
            arrivals.push(t);
        }
        let m = model_with(&arrivals);
        let g = m.global_distribution();
        assert!((g.at(2) - 0.5).abs() < 1e-12);
        assert!((g.mass() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn out_of_window_gaps_dilute_mass() {
        let m = model_with(&[0, 5, 100]); // gaps 5 and 95
        let g = m.global_distribution();
        assert!((g.at(5) - 0.5).abs() < 1e-12);
        assert!(g.mass() < 1.0);
    }

    #[test]
    fn local_and_global_are_averaged() {
        // History: early phase gap 3, recent phase gap 5.
        // Arrivals: 0,3,6,9 then 100,105,110 (now=110, local window 20).
        let m = model_with(&[0, 3, 6, 9, 100, 105, 110]);
        let p = m.probabilities(110, 20);
        // Local window [90,110]: arrivals 100,105,110 → gaps {5,5} → P(5)=1.
        // Global: gaps {3,3,3,91,5,5} → P(5)=2/6, P(3)=3/6.
        assert!((p.at(5) - (1.0 + 2.0 / 6.0) / 2.0).abs() < 1e-12);
        assert!((p.at(3) - (0.0 + 3.0 / 6.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn uninformed_local_falls_back_to_global() {
        let m = model_with(&[0, 2, 4, 6]);
        // now = 1000: local window is empty → use global alone.
        let p = m.probabilities(1000, 60);
        assert!((p.at(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn same_minute_duplicates_collapse() {
        let mut m = InterArrivalModel::new(10);
        m.record(5);
        m.record(5);
        m.record(5);
        m.record(7);
        assert_eq!(m.len(), 2);
        let g = m.global_distribution();
        assert!((g.at(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_rejected() {
        let mut m = InterArrivalModel::new(10);
        m.record(10);
        m.record(9);
    }

    #[test]
    fn gap_index_zero_is_always_zero() {
        let m = model_with(&[0, 1, 2, 3]);
        assert!(m.global_distribution().prob(0).is_zero());
    }

    #[test]
    fn window_bounds_respected() {
        let m = model_with(&[0, 10]);
        let g = m.global_distribution();
        assert!((g.at(10) - 1.0).abs() < 1e-12);
        assert!(g.prob(11).is_zero()); // out of range lookup is 0, not a panic
        assert_eq!(g.window(), 10);
    }

    #[test]
    fn probabilities_are_a_distribution_over_window() {
        let m = model_with(&[0, 1, 3, 6, 10, 15, 21, 28, 36, 45]);
        let p = m.probabilities(45, 60);
        for k in 0..=10 {
            let v = p.at(k);
            assert!((0.0..=1.0).contains(&v));
        }
        assert!(p.mass() <= 1.0 + 1e-12);
    }

    #[test]
    fn queries_before_the_last_arrival_see_only_the_past() {
        // Local window at now=9 holds 0,3,6,9 (gap 3); the later gap-5
        // phase is excluded locally but stays in the global counts.
        let m = model_with(&[0, 3, 6, 9, 100, 105, 110]);
        let p = m.probabilities(9, 20);
        assert!((p.at(3) - (1.0 + 3.0 / 6.0) / 2.0).abs() < 1e-12);
        assert!((p.at(5) - (0.0 + 2.0 / 6.0) / 2.0).abs() < 1e-12);
        // Ip is zero at or before the last arrival.
        assert!(m.invocation_probability_at(110, 20).is_zero());
        assert!(m.invocation_probability_at(50, 20).is_zero());
    }

    #[test]
    fn typed_and_untyped_accessors_agree() {
        let m = model_with(&[0, 2, 4, 6]);
        let p = m.probabilities(6, 60);
        for k in 0..=10 {
            assert_eq!(p.prob(k).value(), p.at(k));
        }
    }
}
