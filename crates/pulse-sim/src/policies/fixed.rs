//! Constant-variant strategies: all-high and all-low.
//!
//! These are the endpoints of the paper's quality/cost trade-off space
//! (Tables II/III rows 1–2, the "Highest Quality" / "Lowest Quality" corners
//! of Figure 5): keep the same rung of every function's quality ladder alive
//! for the provider's fixed 10-minute window.

use crate::policy::{KeepAlivePolicy, PROVIDER_WINDOW};
use pulse_core::individual::KeepAliveSchedule;
use pulse_core::types::{FuncId, Minute};
use pulse_models::{ModelFamily, VariantId};

/// Which rung a [`FixedVariant`] policy pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    /// Every function keeps its lowest-accuracy variant.
    Lowest,
    /// Every function keeps its highest-accuracy variant.
    Highest,
}

/// Keep one fixed rung of each function's ladder alive for a fixed window.
#[derive(Debug, Clone)]
pub struct FixedVariant {
    variants: Vec<VariantId>,
    name: &'static str,
}

impl FixedVariant {
    /// All-low strategy over a family assignment (10-minute window).
    pub fn all_low(families: &[ModelFamily]) -> Self {
        Self::pinned(families, Rung::Lowest)
    }

    /// All-high strategy over a family assignment (10-minute window).
    pub fn all_high(families: &[ModelFamily]) -> Self {
        Self::pinned(families, Rung::Highest)
    }

    fn pinned(families: &[ModelFamily], rung: Rung) -> Self {
        let variants = families
            .iter()
            .map(|f| match rung {
                Rung::Lowest => 0,
                Rung::Highest => f.highest_id(),
            })
            .collect();
        Self {
            variants,
            name: match rung {
                Rung::Lowest => "all-low-quality",
                Rung::Highest => "all-high-quality",
            },
        }
    }
}

impl KeepAlivePolicy for FixedVariant {
    fn name(&self) -> &str {
        self.name
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        KeepAliveSchedule::constant(t, self.variants[f], PROVIDER_WINDOW)
    }

    fn cold_start_variant(&mut self, f: FuncId, _t: Minute) -> VariantId {
        self.variants[f]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_models::zoo;

    #[test]
    fn all_low_pins_zero() {
        let fams = vec![zoo::gpt(), zoo::bert()];
        let mut p = FixedVariant::all_low(&fams);
        assert_eq!(p.cold_start_variant(0, 0), 0);
        assert_eq!(p.schedule_on_invocation(1, 7).variant_at_offset(3), Some(0));
        assert_eq!(p.name(), "all-low-quality");
    }

    #[test]
    fn all_high_pins_top() {
        let fams = vec![zoo::gpt(), zoo::bert()];
        let mut p = FixedVariant::all_high(&fams);
        assert_eq!(p.cold_start_variant(0, 0), 2);
        assert_eq!(p.cold_start_variant(1, 0), 1);
        assert_eq!(p.name(), "all-high-quality");
    }
}
