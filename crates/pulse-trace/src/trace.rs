//! In-memory invocation traces: per-minute counts per function.

use serde::{Deserialize, Serialize};

/// Per-minute invocation counts of one serverless function.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionTrace {
    /// Function name (a hash in the Azure schema).
    pub name: String,
    /// `per_minute[t]` invocations arrived during minute `t`.
    pub per_minute: Vec<u32>,
}

impl FunctionTrace {
    /// Build a trace, validating it is non-empty.
    pub fn new(name: impl Into<String>, per_minute: Vec<u32>) -> Self {
        assert!(!per_minute.is_empty(), "trace must cover at least 1 minute");
        Self {
            name: name.into(),
            per_minute,
        }
    }

    /// Horizon length in minutes.
    pub fn minutes(&self) -> usize {
        self.per_minute.len()
    }

    /// Total number of invocations.
    pub fn total_invocations(&self) -> u64 {
        self.per_minute.iter().map(|&c| c as u64).sum()
    }

    /// Minutes with at least one invocation, ascending.
    pub fn invocation_minutes(&self) -> Vec<u64> {
        self.per_minute
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(t, _)| t as u64)
            .collect()
    }

    /// Count at minute `t` (0 outside the horizon).
    pub fn at(&self, t: u64) -> u32 {
        usize::try_from(t)
            .ok()
            .and_then(|i| self.per_minute.get(i))
            .copied()
            .unwrap_or(0)
    }

    /// Inter-arrival gaps between successive invocation minutes (minute
    /// resolution; multiple invocations within a minute collapse, matching
    /// the paper's analysis).
    pub fn gaps(&self) -> Vec<u64> {
        self.invocation_minutes()
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect()
    }

    /// Restrict to the half-open minute range `[from, to)`.
    pub fn slice(&self, from: usize, to: usize) -> FunctionTrace {
        let to = to.min(self.per_minute.len());
        let from = from.min(to);
        FunctionTrace {
            name: self.name.clone(),
            per_minute: self.per_minute[from..to].to_vec(),
        }
    }
}

/// A workload: several functions over a common horizon.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    functions: Vec<FunctionTrace>,
}

impl Trace {
    /// Build a workload; all functions must share the same horizon.
    pub fn new(functions: Vec<FunctionTrace>) -> Self {
        assert!(!functions.is_empty(), "workload must have >= 1 function");
        let len = functions[0].minutes();
        for f in &functions {
            assert_eq!(
                f.minutes(),
                len,
                "function {} has a different horizon",
                f.name
            );
        }
        Self { functions }
    }

    /// Number of functions.
    pub fn n_functions(&self) -> usize {
        self.functions.len()
    }

    /// Horizon length in minutes.
    pub fn minutes(&self) -> usize {
        self.functions[0].minutes()
    }

    /// All functions.
    pub fn functions(&self) -> &[FunctionTrace] {
        &self.functions
    }

    /// Function by index.
    pub fn function(&self, i: usize) -> &FunctionTrace {
        &self.functions[i]
    }

    /// Total invocations across all functions.
    pub fn total_invocations(&self) -> u64 {
        self.functions.iter().map(|f| f.total_invocations()).sum()
    }

    /// Restrict every function to the half-open minute range `[from, to)`.
    pub fn slice(&self, from: usize, to: usize) -> Trace {
        Trace::new(self.functions.iter().map(|f| f.slice(from, to)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ft(name: &str, counts: &[u32]) -> FunctionTrace {
        FunctionTrace::new(name, counts.to_vec())
    }

    #[test]
    fn function_basics() {
        let f = ft("a", &[0, 2, 0, 1, 0, 0, 3]);
        assert_eq!(f.minutes(), 7);
        assert_eq!(f.total_invocations(), 6);
        assert_eq!(f.invocation_minutes(), vec![1, 3, 6]);
        assert_eq!(f.at(3), 1);
        assert_eq!(f.at(100), 0);
    }

    #[test]
    fn gaps_are_minute_resolution() {
        let f = ft("a", &[1, 0, 1, 0, 0, 1]);
        assert_eq!(f.gaps(), vec![2, 3]);
        // Multiple invocations within a minute carry no gap.
        let g = ft("b", &[5, 0, 0, 0]);
        assert!(g.gaps().is_empty());
    }

    #[test]
    fn slice_clamps_bounds() {
        let f = ft("a", &[1, 2, 3, 4, 5]);
        assert_eq!(f.slice(1, 3).per_minute, vec![2, 3]);
        assert_eq!(f.slice(3, 100).per_minute, vec![4, 5]);
        assert_eq!(f.slice(10, 20).per_minute.len(), 0);
    }

    #[test]
    #[should_panic(expected = "at least 1 minute")]
    fn empty_function_rejected() {
        FunctionTrace::new("x", vec![]);
    }

    #[test]
    fn workload_totals() {
        let t = Trace::new(vec![ft("a", &[1, 0, 2]), ft("b", &[0, 3, 0])]);
        assert_eq!(t.n_functions(), 2);
        assert_eq!(t.minutes(), 3);
        assert_eq!(t.total_invocations(), 6);
    }

    #[test]
    #[should_panic(expected = "different horizon")]
    fn mismatched_horizons_rejected() {
        Trace::new(vec![ft("a", &[1]), ft("b", &[1, 2])]);
    }

    #[test]
    fn workload_slice_preserves_shape() {
        let t = Trace::new(vec![ft("a", &[1, 0, 2, 0]), ft("b", &[0, 3, 0, 1])]);
        let s = t.slice(1, 3);
        assert_eq!(s.minutes(), 2);
        assert_eq!(s.function(0).per_minute, vec![0, 2]);
        assert_eq!(s.function(1).per_minute, vec![3, 0]);
    }
}
