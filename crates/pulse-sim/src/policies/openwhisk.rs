//! The OpenWhisk fixed keep-alive baseline.
//!
//! "The performance of PULSE is compared with OpenWhisk's policy, which keeps
//! the function alive for 10 minutes after invocation … OpenWhisk strategy
//! aligns with those of other major commercial serverless providers like
//! AWS, Google, and Azure Functions." The baseline is model-variant-
//! oblivious: it always keeps (and cold-starts) the highest-quality variant.

use crate::policy::KeepAlivePolicy;
use pulse_core::individual::KeepAliveSchedule;
use pulse_core::types::{FuncId, Minute};
use pulse_models::{ModelFamily, VariantId};

/// Fixed `window`-minute keep-alive of the highest-quality variant.
#[derive(Debug, Clone)]
pub struct OpenWhiskFixed {
    highest: Vec<VariantId>,
    window: u32,
}

impl OpenWhiskFixed {
    /// Baseline over the given family assignment with the provider-standard
    /// 10-minute window.
    pub fn new(families: &[ModelFamily]) -> Self {
        Self::with_window(families, crate::policy::PROVIDER_WINDOW)
    }

    /// Baseline with a custom window (the paper notes the design generalizes
    /// to other durations).
    pub fn with_window(families: &[ModelFamily], window: u32) -> Self {
        assert!(window >= 1);
        Self {
            highest: crate::policy::highest_ids(families),
            window,
        }
    }
}

impl KeepAlivePolicy for OpenWhiskFixed {
    fn name(&self) -> &str {
        "openwhisk-fixed-10min"
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        KeepAliveSchedule::constant(t, self.highest[f], self.window)
    }

    fn cold_start_variant(&mut self, f: FuncId, _t: Minute) -> VariantId {
        self.highest[f]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_models::zoo;

    #[test]
    fn keeps_highest_for_full_window() {
        let fams = vec![zoo::gpt(), zoo::bert()];
        let mut p = OpenWhiskFixed::new(&fams);
        let s = p.schedule_on_invocation(0, 100);
        assert_eq!(s.window(), 10);
        for m in 1..=10u64 {
            assert_eq!(s.variant_at_offset(m), Some(2)); // GPT-Large
        }
        let s = p.schedule_on_invocation(1, 100);
        assert_eq!(s.variant_at_offset(5), Some(1)); // BERT-Large
    }

    #[test]
    fn cold_starts_highest() {
        let fams = vec![zoo::gpt()];
        let mut p = OpenWhiskFixed::new(&fams);
        assert_eq!(p.cold_start_variant(0, 5), 2);
    }

    #[test]
    fn custom_window() {
        let fams = vec![zoo::gpt()];
        let mut p = OpenWhiskFixed::with_window(&fams, 3);
        let s = p.schedule_on_invocation(0, 0);
        assert_eq!(s.window(), 3);
    }
}
