//! Property tests for the pulse-obs histogram.

use proptest::prelude::*;
use pulse_obs::Histogram;

/// Sample values: mostly latency-sized, with the top of the range mixed in
/// so sums saturate.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..1_000_000, any::<u64>(), (u64::MAX - 64)..=u64::MAX]
}

fn filled(samples: &[(u64, u64)]) -> Histogram {
    let mut h = Histogram::new();
    for &(v, n) in samples {
        h.record_n(v, n);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `record_n(v, n)` leaves the histogram exactly as `n` calls of
    /// `record(v)` do, on top of any prior contents; `n = 0` is a no-op.
    #[test]
    fn record_n_equals_n_single_records(
        prior in proptest::collection::vec(value(), 0..8),
        v in value(),
        n in 0u64..48,
    ) {
        let mut weighted = Histogram::new();
        let mut repeated = Histogram::new();
        for &p in &prior {
            weighted.record(p);
            repeated.record(p);
        }
        let before = weighted.clone();
        weighted.record_n(v, n);
        for _ in 0..n {
            repeated.record(v);
        }
        prop_assert_eq!(weighted.count(), repeated.count());
        prop_assert_eq!(weighted.sum(), repeated.sum());
        prop_assert_eq!(weighted.min(), repeated.min());
        prop_assert_eq!(weighted.max(), repeated.max());
        for pct in [0, 1, 25, 50, 75, 90, 99, 100] {
            prop_assert_eq!(
                weighted.approx_percentile(pct),
                repeated.approx_percentile(pct)
            );
        }
        // Buckets included: the whole state matches.
        prop_assert_eq!(&weighted, &repeated);
        if n == 0 {
            prop_assert_eq!(&weighted, &before);
        }
    }

    /// Merging weighted histograms stays commutative.
    #[test]
    fn merge_of_weighted_histograms_commutes(
        a in proptest::collection::vec((value(), 0u64..48), 0..8),
        b in proptest::collection::vec((value(), 0u64..48), 0..8),
    ) {
        let (ha, hb) = (filled(&a), filled(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb;
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }
}
