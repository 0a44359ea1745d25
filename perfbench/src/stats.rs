//! Order statistics over raw samples.
//!
//! Percentiles here are exact nearest-rank values over every recorded
//! sample, never bucket bounds, and every reported percentile carries its
//! sample count.

use std::time::{Duration, Instant};

/// A bag of raw samples.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// An empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    /// Append every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The samples, in recording order.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Largest sample, 0 when empty.
    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }

    /// Nearest-rank percentile `p` in `[0, 100]`, 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    /// Median with the midpoint rule for even counts (as Python's
    /// `statistics.median`), 0 when empty. Used for the handful of
    /// per-unit figures an end-to-end metric is the median of.
    pub fn median(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    }
}

/// Indices of the fastest `1/share` (at least one) of repetitions, by
/// time. On a shared host a repetition can be slowed for seconds at a time
/// (see [`Fastest`]); over many short repetitions the fastest few estimate
/// the undisturbed cost whatever share of a run the slow stretches take.
pub fn fastest_share(walls: &Samples, share: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..walls.len()).collect();
    idx.sort_by(|&a, &b| walls.0[a].total_cmp(&walls.0[b]));
    idx.truncate(walls.len().div_ceil(share.max(1)).max(1));
    idx
}

/// The fastest time of each step over repetitions of the same steps.
///
/// A shared host changes speed from one second to the next (by up to 40%
/// on the 2-vCPU guest this benchmark was sized on, from its neighbours'
/// cache and memory traffic, which no clock of this process can see), and
/// a repetition of several seconds rarely runs in one fast stretch. A step
/// of microseconds to milliseconds, repeated at different moments, almost
/// always meets one; its fastest time leaves the slow stretches out, and
/// the sum over the steps is the cost of the work on an undisturbed host.
#[derive(Debug, Clone, Default)]
pub struct Fastest {
    best: Vec<f64>,
    reps: usize,
    mismatched: bool,
}

impl Fastest {
    /// Fold in one repetition's step times, in step order.
    pub fn fold(&mut self, times: &Samples) {
        if self.reps == 0 {
            self.best = times.0.clone();
        } else if times.len() != self.best.len() {
            self.mismatched = true;
        } else {
            for (b, t) in self.best.iter_mut().zip(&times.0) {
                *b = b.min(*t);
            }
        }
        self.reps += 1;
    }

    /// True when every repetition had the same number of steps.
    pub fn consistent(&self) -> bool {
        !self.mismatched
    }

    /// Repetitions folded in.
    pub fn reps(&self) -> usize {
        self.reps
    }

    /// Steps per repetition.
    pub fn len(&self) -> usize {
        self.best.len()
    }

    /// True before any step was folded in.
    pub fn is_empty(&self) -> bool {
        self.best.is_empty()
    }

    /// The fastest time of each step.
    pub fn samples(&self) -> Samples {
        Samples(self.best.clone())
    }
}

/// The samples of `from` at `idx`.
pub fn pick(from: &Samples, idx: &[usize]) -> Samples {
    Samples(idx.iter().map(|&i| from.0[i]).collect())
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self(iter.into_iter().collect())
    }
}

/// Nanoseconds elapsed since `t0`.
pub fn ns_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// Nanoseconds in `d`.
pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Untimed set-up repetitions before the timed ones, so that the median
/// sees warm caches and a settled allocator.
pub const SETUP_WARMUP: usize = 2;

/// Run `f` [`SETUP_WARMUP`] times untimed, then time it `reps` times (at
/// least once); return the seconds of each timed call and the last result.
pub fn setup_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> (Samples, T) {
    for _ in 0..SETUP_WARMUP {
        std::hint::black_box(f());
    }
    let mut secs = Samples::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Free the previous result first, so every call finds the
        // allocator in the same state.
        drop(last.take());
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (secs, last.expect("at least one repetition ran"))
}

/// Shortest gap between two set-up repetitions spread over a run.
const SETUP_EVERY: Duration = Duration::from_millis(250);

/// Times a workload's set-up across the whole run: [`setup_secs`] up
/// front, then one more repetition whenever [`SetupTimer::sample`] is
/// called long enough after the last one. On a shared host the speed of a
/// millisecond-scale job changes from one second to the next, so a figure
/// over repetitions spread through the run ([`SetupTimer::figure`]) is
/// steady where one over a burst at the start is not. Each later repetition
/// follows an untimed
/// call, as the first ones follow [`SETUP_WARMUP`] calls, so that every
/// timed call finds warm caches rather than what the workload left behind.
/// Repetitions take at most a tenth of the time between them.
pub struct SetupTimer<'a> {
    rep: Box<dyn FnMut() -> f64 + 'a>,
    secs: Samples,
    last: Instant,
}

impl<'a> SetupTimer<'a> {
    /// Time `f` `reps` times now; return the timer and the last result.
    pub fn new<T: 'a>(reps: usize, mut f: impl FnMut() -> T + 'a) -> (Self, T) {
        let (secs, value) = setup_secs(reps, &mut f);
        let rep = Box::new(move || {
            std::hint::black_box(f());
            let t0 = Instant::now();
            let out = std::hint::black_box(f());
            let s = t0.elapsed().as_secs_f64();
            drop(out);
            s
        });
        let timer = Self {
            rep,
            secs,
            last: Instant::now(),
        };
        (timer, value)
    }

    /// Time one more repetition if enough time has passed since the last.
    pub fn sample(&mut self) {
        let gap = SETUP_EVERY.max(Duration::from_secs_f64(20.0 * self.secs.median()));
        if self.last.elapsed() >= gap {
            let s = (self.rep)();
            self.secs.push(s);
            self.last = Instant::now();
        }
    }

    /// Seconds of every timed repetition.
    pub fn secs(&self) -> &Samples {
        &self.secs
    }

    /// The set-up figure: the median of the fastest third of the
    /// repetitions (see [`fastest_share`]), and how many that is.
    pub fn figure(&self) -> (f64, usize) {
        let fast = fastest_share(&self.secs, 3);
        (pick(&self.secs, &fast).median(), fast.len())
    }
}

/// Peak resident set size of this process (`VmHWM`), MB; 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over 64-bit words: a stable digest of run outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a float in by its bit pattern.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::new();
        for x in 1..=100 {
            s.push(f64::from(x));
        }
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
    }

    #[test]
    fn fastest_share_picks_the_shortest_walls() {
        let mut w = Samples::new();
        for x in [5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 7.0] {
            w.push(x);
        }
        assert_eq!(fastest_share(&w, 3), vec![1, 3, 4]);
        assert_eq!(fastest_share(&w, 10), vec![1]);
        assert_eq!(pick(&w, &[0, 2]).values(), &[5.0, 4.0]);
    }

    #[test]
    fn fastest_keeps_each_steps_minimum() {
        let mut f = Fastest::default();
        f.fold(&[3.0, 1.0, 5.0].into_iter().collect());
        f.fold(&[2.0, 4.0, 5.0].into_iter().collect());
        assert_eq!(f.samples().values(), &[2.0, 1.0, 5.0]);
        assert!(f.consistent() && f.reps() == 2);
        f.fold(&[1.0].into_iter().collect());
        assert!(!f.consistent());
    }

    #[test]
    fn median_uses_the_midpoint_for_even_counts() {
        let mut s = Samples::new();
        for x in [4.0, 1.0, 3.0, 2.0] {
            s.push(x);
        }
        assert_eq!(s.median(), 2.5);
        s.push(10.0);
        assert_eq!(s.median(), 3.0);
    }
}
