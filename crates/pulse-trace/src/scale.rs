//! Workload scaling: build larger fleets from a base trace.
//!
//! Section V claims "PULSE's overhead remains minimal even when handling a
//! large number of concurrent functions". Reproducing that needs workloads
//! bigger than 12 functions; this module replicates a base trace with
//! deterministic phase shifts (so the copies are neither identical nor
//! synchronized) and merges traces.

use crate::trace::{FunctionTrace, Trace};

/// Replicate every function `factor` times. Copy `k` of a function is
/// rotated left by `k × phase_step` minutes (wrapping), so replicas keep
/// the same inter-arrival *distribution* but are de-synchronized in time.
/// Copy 0 is the original.
pub fn replicate(trace: &Trace, factor: usize, phase_step: usize) -> Trace {
    assert!(factor >= 1, "factor must be >= 1");
    let minutes = trace.minutes();
    let mut functions = Vec::with_capacity(trace.n_functions() * factor);
    for f in trace.functions() {
        for k in 0..factor {
            let shift = (k * phase_step) % minutes.max(1);
            let mut counts = Vec::with_capacity(minutes);
            counts.extend_from_slice(&f.per_minute[shift..]);
            counts.extend_from_slice(&f.per_minute[..shift]);
            functions.push(FunctionTrace::new(
                if k == 0 {
                    f.name.clone()
                } else {
                    format!("{}#{k}", f.name)
                },
                counts,
            ));
        }
    }
    Trace::new(functions)
}

/// Concatenate the function sets of several traces over a common horizon.
///
/// # Panics
/// Panics when traces disagree on the horizon or the input is empty.
pub fn merge(traces: &[Trace]) -> Trace {
    assert!(!traces.is_empty(), "need at least one trace");
    let functions = traces
        .iter()
        .flat_map(|t| t.functions().iter().cloned())
        .collect();
    Trace::new(functions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Trace {
        Trace::new(vec![
            FunctionTrace::new("a", vec![1, 0, 0, 2, 0, 0]),
            FunctionTrace::new("b", vec![0, 3, 0, 0, 0, 0]),
        ])
    }

    #[test]
    fn replicate_multiplies_functions_and_preserves_volume() {
        let t = replicate(&base(), 3, 2);
        assert_eq!(t.n_functions(), 6);
        assert_eq!(t.minutes(), 6);
        assert_eq!(t.total_invocations(), base().total_invocations() * 3);
    }

    #[test]
    fn replicas_are_phase_shifted() {
        let t = replicate(&base(), 2, 2);
        // Copies follow their original: "a", "a#1", "b", "b#1".
        let (orig, copy) = (t.function(0), t.function(1));
        assert_eq!(copy.name, "a#1");
        assert_ne!(orig.per_minute, copy.per_minute);
        // Rotation by 2: [1,0,0,2,0,0] → [0,2,0,0,1,0].
        assert_eq!(copy.per_minute, vec![0, 2, 0, 0, 1, 0]);
        // Same gap multiset up to wraparound: total volume preserved.
        assert_eq!(orig.total_invocations(), copy.total_invocations());
    }

    #[test]
    fn factor_one_is_identity() {
        let t = replicate(&base(), 1, 7);
        assert_eq!(t, base());
    }

    #[test]
    fn zero_phase_step_clones_exactly() {
        let t = replicate(&base(), 2, 0);
        assert_eq!(t.function(0).per_minute, t.function(1).per_minute);
    }

    #[test]
    fn merge_concatenates() {
        let t = merge(&[base(), base()]);
        assert_eq!(t.n_functions(), 4);
        assert_eq!(t.total_invocations(), base().total_invocations() * 2);
    }

    #[test]
    #[should_panic(expected = "different horizon")]
    fn merge_rejects_mismatched_horizons() {
        let other = Trace::new(vec![FunctionTrace::new("c", vec![1, 1])]);
        merge(&[base(), other]);
    }
}
