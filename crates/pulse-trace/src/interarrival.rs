//! Inter-arrival analysis behind Figures 1 and 2.
//!
//! Both figures plot, for gaps of 1–10 minutes (the fixed keep-alive
//! period), the *percentage of invocations* arriving exactly `k` minutes
//! after the previous invocation. Figure 1 compares five functions over the
//! full trace; Figure 2 compares the first / middle / last four days of a
//! single function, demonstrating pattern drift.

use crate::trace::FunctionTrace;
use crate::MINUTES_PER_DAY;

/// Percentage of invocations with an inter-arrival gap of exactly `k`
/// minutes, for `k = 1..=window`; index 0 of the result is `k = 1`.
/// The denominator is the total number of gaps (all sizes), matching the
/// paper's probability definition scaled to percent.
// Keep-alive windows are minutes (at most a few hundred).
#[allow(clippy::cast_possible_truncation)]
pub fn gap_percentages(f: &FunctionTrace, window: u32) -> Vec<f64> {
    let gaps = f.gaps();
    let total = gaps.len();
    let mut counts = vec![0u64; window as usize];
    for g in gaps {
        if g >= 1 && g <= window as u64 {
            counts[g as usize - 1] += 1;
        }
    }
    if total == 0 {
        return vec![0.0; window as usize];
    }
    counts
        .iter()
        .map(|&c| c as f64 / total as f64 * 100.0)
        .collect()
}

/// Gap percentages over a day range `[first_day, last_day)` of the trace —
/// the Figure 2 slicing.
pub fn gap_percentages_days(
    f: &FunctionTrace,
    window: u32,
    first_day: usize,
    last_day: usize,
) -> Vec<f64> {
    let s = f.slice(first_day * MINUTES_PER_DAY, last_day * MINUTES_PER_DAY);
    gap_percentages(&s, window)
}

/// The three Figure-2 panels for a two-week trace: first four days, middle
/// four days (days 5–8), last four days (days 10–13).
pub fn fig2_panels(f: &FunctionTrace, window: u32) -> [Vec<f64>; 3] {
    [
        gap_percentages_days(f, window, 0, 4),
        gap_percentages_days(f, window, 5, 9),
        gap_percentages_days(f, window, 10, 14),
    ]
}

/// A scalar summary of how different two gap distributions are: total
/// variation distance over the in-window bins, in `[0, 1]`. Used by tests
/// and by the Figure-2 experiment to quantify drift.
pub fn distribution_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distributions must share support");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y).abs())
        .sum::<f64>()
        / 200.0 // percentages: max Σ|x−y| is 200
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;
    use crate::synth::{azure_like_12, Archetype, FIG2_FUNCTION};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn pure_cadence_is_one_spike() {
        let f = FunctionTrace::new("x", {
            let mut v = vec![0u32; 100];
            for t in (0..100).step_by(4) {
                v[t] = 1;
            }
            v
        });
        let p = gap_percentages(&f, 10);
        assert!((p[3] - 100.0).abs() < 1e-9); // gap 4 → index 3
        assert!(p.iter().enumerate().all(|(i, &v)| i == 3 || v == 0.0));
    }

    #[test]
    fn out_of_window_gaps_shrink_percentages() {
        // Gaps: 5, 50 → only 50 % of gaps are in-window.
        let mut v = vec![0u32; 60];
        v[0] = 1;
        v[5] = 1;
        v[55] = 1;
        let f = FunctionTrace::new("x", v);
        let p = gap_percentages(&f, 10);
        assert!((p[4] - 50.0).abs() < 1e-9);
        assert!((p.iter().sum::<f64>() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn silent_function_is_all_zero() {
        let f = FunctionTrace::new("x", vec![0; 100]);
        assert_eq!(gap_percentages(&f, 10), vec![0.0; 10]);
        let g = FunctionTrace::new("y", {
            let mut v = vec![0u32; 100];
            v[5] = 1;
            v
        });
        assert_eq!(gap_percentages(&g, 10), vec![0.0; 10]);
    }

    #[test]
    fn day_slicing_isolates_regimes() {
        // Cadence 2 for 4 "days" of 10 minutes, then cadence 5.
        let mut v = vec![0u32; 80];
        for t in (0..40).step_by(2) {
            v[t] = 1;
        }
        for t in (40..80).step_by(5) {
            v[t] = 1;
        }
        let f = FunctionTrace::new("x", v);
        // Use raw slices (MINUTES_PER_DAY is too big for this toy example).
        let early = gap_percentages(&f.slice(0, 40), 10);
        let late = gap_percentages(&f.slice(40, 80), 10);
        assert!(early[1] > 90.0);
        assert!(late[4] > 80.0);
        assert!(distribution_distance(&early, &late) > 0.8);
    }

    #[test]
    fn fig2_panels_show_drift_on_drifting_function() {
        let t = azure_like_12(11);
        let [first, mid, last] = fig2_panels(t.function(FIG2_FUNCTION), 10);
        // The drifting function's dominant gap moves right over the weeks.
        let argmax = |p: &[f64]| {
            p.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0
        };
        assert!(argmax(&first) < argmax(&last), "{first:?} vs {last:?}");
        assert!(distribution_distance(&first, &last) > 0.2);
        let _ = mid;
    }

    #[test]
    fn fig1_functions_have_diverse_patterns() {
        let t = azure_like_12(11);
        let dists: Vec<Vec<f64>> = crate::synth::FIG1_FUNCTIONS
            .iter()
            .map(|&i| gap_percentages(t.function(i), 10))
            .collect();
        // Every pair of Figure-1 functions differs noticeably.
        for i in 0..dists.len() {
            for j in i + 1..dists.len() {
                assert!(
                    distribution_distance(&dists[i], &dists[j]) > 0.05,
                    "functions {i} and {j} look identical"
                );
            }
        }
    }

    #[test]
    fn distance_is_zero_for_identical() {
        let p = vec![10.0, 20.0, 70.0];
        assert_eq!(distribution_distance(&p, &p), 0.0);
    }

    #[test]
    fn distance_is_one_for_disjoint_full_mass() {
        let a = vec![100.0, 0.0];
        let b = vec![0.0, 100.0];
        assert!((distribution_distance(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn generated_poisson_has_geometric_like_gaps() {
        let a = Archetype::Poisson { rate: 0.3 };
        let mut rng = SmallRng::seed_from_u64(5);
        let f = FunctionTrace::new("p", a.generate(20_000, &mut rng));
        let p = gap_percentages(&f, 10);
        // Monotone decreasing head for a memoryless process.
        assert!(p[0] > p[4], "{p:?}");
        assert!(p[4] > p[9], "{p:?}");
    }
}
