//! Model families: an ordered ladder of quality variants.

use crate::variant::VariantSpec;
use serde::{Deserialize, Serialize};

/// Index of a model family within a zoo (dense, assigned by construction
/// order). The simulator assigns one family per serverless function.
pub type FamilyId = usize;

/// Index of a variant *within* its family's quality ladder: `0` is the
/// lowest-accuracy variant, `len - 1` the highest. PULSE's downgrade step
/// moves a model from variant `v` to `v - 1` (or evicts it at `v == 0`).
pub type VariantId = usize;

/// A model family — e.g. GPT with {base, medium, large} — whose variants are
/// ordered from lowest to highest accuracy.
///
/// The ordering invariant matters: PULSE's greedy threshold scheme maps the
/// lowest invocation-probability band to index 0 and the highest band to the
/// last index, and the utility-value downgrade walks the ladder downwards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelFamily {
    /// Family name, e.g. `"GPT"`.
    pub name: String,
    /// The inference task, e.g. `"text generation"`.
    pub task: String,
    /// The benchmark dataset accuracies are reported on, e.g. `"wikitext"`.
    pub dataset: String,
    /// Quality ladder, ascending accuracy. Must be non-empty.
    pub variants: Vec<VariantSpec>,
}

impl ModelFamily {
    /// Construct a family, validating the ascending-accuracy invariant.
    ///
    /// # Panics
    /// Panics if `variants` is empty, any variant is invalid, or accuracies
    /// are not strictly increasing.
    // Documented panicking constructor for hand-built zoos; validate() is
    // the fallible check.
    #[allow(clippy::expect_used)]
    pub fn new(
        name: impl Into<String>,
        task: impl Into<String>,
        dataset: impl Into<String>,
        variants: Vec<VariantSpec>,
    ) -> Self {
        let f = Self {
            name: name.into(),
            task: task.into(),
            dataset: dataset.into(),
            variants,
        };
        f.validate().expect("invalid ModelFamily");
        f
    }

    /// Check invariants without panicking.
    pub fn validate(&self) -> Result<(), String> {
        if self.variants.is_empty() {
            return Err(format!("{}: family has no variants", self.name));
        }
        for v in &self.variants {
            v.validate()?;
        }
        for pair in self.variants.windows(2) {
            if pair[1].accuracy_pct <= pair[0].accuracy_pct {
                return Err(format!(
                    "{}: variants must be strictly ascending in accuracy ({} !< {})",
                    self.name, pair[0].accuracy_pct, pair[1].accuracy_pct
                ));
            }
        }
        Ok(())
    }

    /// Number of quality variants (the `N` in the paper's threshold scheme).
    #[inline]
    pub fn n_variants(&self) -> usize {
        self.variants.len()
    }

    /// The lowest-accuracy variant (index 0).
    #[inline]
    pub fn lowest(&self) -> &VariantSpec {
        &self.variants[0]
    }

    /// The highest-accuracy variant (last index).
    #[inline]
    // validate() rejects a family without variants.
    #[allow(clippy::expect_used)]
    pub fn highest(&self) -> &VariantSpec {
        self.variants.last().expect("non-empty by invariant")
    }

    /// Id of the highest-accuracy variant.
    #[inline]
    pub fn highest_id(&self) -> VariantId {
        self.variants.len() - 1
    }

    /// Variant by id. Panics on out-of-range id (ids are produced by this
    /// crate and the policy layer; an out-of-range id is a logic error).
    #[inline]
    pub fn variant(&self, id: VariantId) -> &VariantSpec {
        &self.variants[id]
    }

    /// The next rung *down* the quality ladder from `id`, or `None` when
    /// `id` is already the lowest variant. This is the fallback step both of
    /// PULSE's downgrade move and of the runtime's fault-driven graceful
    /// degradation (a variant that cannot be provisioned falls back here).
    #[inline]
    pub fn next_lower(&self, id: VariantId) -> Option<VariantId> {
        (id > 0 && id < self.n_variants()).then(|| id - 1)
    }

    /// The paper's *accuracy improvement* term `Ai` for keeping variant `id`
    /// alive: the accuracy gain (as a fraction) of `id` over the next-lower
    /// variant, or — when `id` is already the lowest variant — the accuracy of
    /// that lowest variant in decimal form (Section III-B).
    pub fn accuracy_improvement(&self, id: VariantId) -> f64 {
        if id == 0 {
            self.variants[0].accuracy_frac()
        } else {
            self.variants[id].accuracy_frac() - self.variants[id - 1].accuracy_frac()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_tier() -> ModelFamily {
        ModelFamily::new(
            "DenseNet",
            "image classification",
            "CIFAR-10",
            vec![
                VariantSpec::new("DenseNet-121", 1.09, 4.2, 580.0, 74.98),
                VariantSpec::new("DenseNet-169", 1.38, 4.5, 600.0, 76.2),
                VariantSpec::new("DenseNet-201", 1.65, 4.9, 680.0, 77.42),
            ],
        )
    }

    #[test]
    fn lowest_and_highest() {
        let f = three_tier();
        assert_eq!(f.lowest().name, "DenseNet-121");
        assert_eq!(f.highest().name, "DenseNet-201");
        assert_eq!(f.highest_id(), 2);
        assert_eq!(f.n_variants(), 3);
    }

    #[test]
    fn next_lower_walks_the_ladder_down() {
        let f = three_tier();
        assert_eq!(f.next_lower(2), Some(1));
        assert_eq!(f.next_lower(1), Some(0));
        assert_eq!(f.next_lower(0), None, "lowest rung has no fallback");
        assert_eq!(f.next_lower(99), None, "out-of-range id has no fallback");
    }

    #[test]
    fn accuracy_improvement_interior() {
        let f = three_tier();
        // 77.42 - 76.2 = 1.22 points = 0.0122 fraction
        assert!((f.accuracy_improvement(2) - 0.0122).abs() < 1e-9);
        assert!((f.accuracy_improvement(1) - 0.0122).abs() < 1e-2); // 76.2-74.98
    }

    #[test]
    fn accuracy_improvement_lowest_is_own_accuracy() {
        let f = three_tier();
        assert!((f.accuracy_improvement(0) - 0.7498).abs() < 1e-9);
    }

    #[test]
    fn accuracy_improvement_always_in_unit_interval() {
        let f = three_tier();
        for id in 0..f.n_variants() {
            let ai = f.accuracy_improvement(id);
            assert!((0.0..=1.0).contains(&ai), "Ai out of range: {ai}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid ModelFamily")]
    fn non_ascending_accuracy_rejected() {
        ModelFamily::new(
            "bad",
            "t",
            "d",
            vec![
                VariantSpec::new("a", 1.0, 1.0, 100.0, 90.0),
                VariantSpec::new("b", 1.0, 1.0, 100.0, 80.0),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "invalid ModelFamily")]
    fn empty_family_rejected() {
        ModelFamily::new("bad", "t", "d", vec![]);
    }

    #[test]
    fn single_variant_family_is_valid() {
        let f = ModelFamily::new(
            "solo",
            "t",
            "d",
            vec![VariantSpec::new("only", 1.0, 1.0, 100.0, 50.0)],
        );
        assert_eq!(f.lowest(), f.highest());
        assert!((f.accuracy_improvement(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn equal_accuracy_rejected() {
        let f = ModelFamily {
            name: "bad".into(),
            task: "t".into(),
            dataset: "d".into(),
            variants: vec![
                VariantSpec::new("a", 1.0, 1.0, 100.0, 80.0),
                VariantSpec::new("b", 1.0, 1.0, 100.0, 80.0),
            ],
        };
        assert!(f.validate().is_err());
    }
}
