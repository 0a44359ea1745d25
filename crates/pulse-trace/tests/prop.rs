//! Property tests for the trace substrate.

use proptest::prelude::*;
use pulse_trace::interarrival::gap_percentages;
use pulse_trace::scale::{merge, replicate};
use pulse_trace::{FunctionTrace, Trace};

fn arb_trace() -> impl Strategy<Value = Trace> {
    (1usize..5, 2usize..80).prop_flat_map(|(nf, minutes)| {
        proptest::collection::vec(
            proptest::collection::vec(0u32..4, minutes..=minutes),
            nf..=nf,
        )
        .prop_map(|rows| {
            Trace::new(
                rows.into_iter()
                    .enumerate()
                    .map(|(i, counts)| FunctionTrace::new(format!("f{i}"), counts))
                    .collect(),
            )
        })
    })
}

proptest! {
    #[test]
    fn gap_percentages_are_bounded(trace in arb_trace(), window in 1u32..20) {
        for f in trace.functions() {
            let p = gap_percentages(f, window);
            prop_assert_eq!(p.len(), window as usize);
            let total: f64 = p.iter().sum();
            prop_assert!(total <= 100.0 + 1e-9);
            for &v in &p {
                prop_assert!((0.0..=100.0).contains(&v));
            }
        }
    }

    #[test]
    fn slice_composition(trace in arb_trace(), a in 0usize..40, b in 0usize..80) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let s = trace.slice(lo, hi);
        // Volume of slices partitions the whole.
        let rest_lo = trace.slice(0, lo);
        let rest_hi = trace.slice(hi, trace.minutes());
        prop_assert_eq!(
            rest_lo.total_invocations() + s.total_invocations() + rest_hi.total_invocations(),
            trace.total_invocations()
        );
    }

    #[test]
    fn replicate_preserves_per_copy_volume(trace in arb_trace(), factor in 1usize..5, step in 0usize..30) {
        let r = replicate(&trace, factor, step);
        prop_assert_eq!(r.n_functions(), trace.n_functions() * factor);
        prop_assert_eq!(r.total_invocations(), trace.total_invocations() * factor as u64);
        prop_assert_eq!(r.minutes(), trace.minutes());
    }

    #[test]
    fn merge_is_additive(trace in arb_trace()) {
        let m = merge(&[trace.clone(), trace.clone()]);
        prop_assert_eq!(m.total_invocations(), 2 * trace.total_invocations());
        prop_assert_eq!(m.n_functions(), 2 * trace.n_functions());
    }

    #[test]
    fn gaps_match_invocation_minutes(trace in arb_trace()) {
        for f in trace.functions() {
            let minutes = f.invocation_minutes();
            let gaps = f.gaps();
            prop_assert_eq!(gaps.len(), minutes.len().saturating_sub(1));
            let gap_sum: u64 = gaps.iter().sum();
            if let (Some(first), Some(last)) = (minutes.first(), minutes.last()) {
                prop_assert_eq!(gap_sum, last - first);
            }
        }
    }
}
