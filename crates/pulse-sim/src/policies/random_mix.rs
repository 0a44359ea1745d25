//! Balanced random high/low mixing (Tables II/III, row 3).
//!
//! "The third approach introduced the concept of blending models of varying
//! qualities, employing random decisions to determine which functions would
//! have high-quality models kept-alive and which would have low-quality
//! models. While these decisions were randomized, we ensured that the number
//! of functions with high-quality and low-quality models kept-alive was
//! balanced."

use crate::policy::{KeepAlivePolicy, PROVIDER_WINDOW};
use pulse_core::individual::KeepAliveSchedule;
use pulse_core::types::{FuncId, Minute};
use pulse_models::{ModelFamily, VariantId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Random, balanced assignment of high/low quality per function, fixed for
/// the run.
#[derive(Debug, Clone)]
pub struct RandomMix {
    variants: Vec<VariantId>,
}

impl RandomMix {
    /// Assign exactly half the functions (rounded up) their highest variant
    /// and the rest their lowest, uniformly at random.
    pub fn new<R: Rng + ?Sized>(families: &[ModelFamily], rng: &mut R) -> Self {
        let n = families.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        let mut variants = vec![0; n];
        for (rank, &f) in order.iter().enumerate() {
            variants[f] = if rank < n.div_ceil(2) {
                families[f].highest_id()
            } else {
                0
            };
        }
        Self { variants }
    }

    /// The per-function choices (testing/inspection).
    pub fn variants(&self) -> &[VariantId] {
        &self.variants
    }
}

impl KeepAlivePolicy for RandomMix {
    fn name(&self) -> &str {
        "random-high-low"
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
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn families(n: usize) -> Vec<ModelFamily> {
        (0..n).map(|i| zoo::standard()[i % 5].clone()).collect()
    }

    #[test]
    fn assignment_is_balanced() {
        let fams = families(12);
        let p = RandomMix::new(&fams, &mut SmallRng::seed_from_u64(3));
        let high = p
            .variants()
            .iter()
            .enumerate()
            .filter(|&(f, &v)| v == fams[f].highest_id())
            .count();
        let low = p.variants().iter().filter(|&&v| v == 0).count();
        assert_eq!(high, 6);
        // BERT's highest is 1 and lowest 0, so `low` counts only true lows.
        assert_eq!(high + low, 12);
    }

    #[test]
    fn odd_count_rounds_up_high() {
        let fams = families(5);
        let p = RandomMix::new(&fams, &mut SmallRng::seed_from_u64(3));
        let high = p
            .variants()
            .iter()
            .enumerate()
            .filter(|&(f, &v)| v == fams[f].highest_id() && v != 0)
            .count();
        assert_eq!(high, 3);
    }

    #[test]
    fn deterministic_per_seed_and_varies_across_seeds() {
        let fams = families(12);
        let a = RandomMix::new(&fams, &mut SmallRng::seed_from_u64(1));
        let b = RandomMix::new(&fams, &mut SmallRng::seed_from_u64(1));
        assert_eq!(a.variants(), b.variants());
        let differs = (0..20).any(|s| {
            RandomMix::new(&fams, &mut SmallRng::seed_from_u64(s)).variants() != a.variants()
        });
        assert!(differs);
    }

    #[test]
    fn schedule_uses_assigned_variant() {
        let fams = families(4);
        let mut p = RandomMix::new(&fams, &mut SmallRng::seed_from_u64(9));
        for f in 0..4 {
            let v = p.variants()[f];
            assert_eq!(p.schedule_on_invocation(f, 0).variant_at_offset(1), Some(v));
            assert_eq!(p.cold_start_variant(f, 0), v);
        }
    }
}
