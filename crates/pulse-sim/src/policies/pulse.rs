//! PULSE as a simulator policy.
//!
//! Thin adapter around [`pulse_core::PulseEngine`]: invocations feed the
//! inter-arrival model and return the individual-optimization schedule; the
//! per-minute adjustment hook runs Algorithm 1 + Algorithm 2. The global
//! layer can be disabled to reproduce Figure 4's "individual optimization
//! only" middle ground.

use crate::policy::KeepAlivePolicy;
use pulse_core::global::{AliveModel, DowngradeAction};
use pulse_core::individual::KeepAliveSchedule;
use pulse_core::types::{FuncId, Minute, PulseConfig};
use pulse_core::PulseEngine;
use pulse_models::{ModelFamily, VariantId};

/// The PULSE keep-alive policy.
#[derive(Debug, Clone)]
pub struct PulsePolicy {
    engine: PulseEngine,
    global_enabled: bool,
    name: String,
}

impl PulsePolicy {
    /// Full PULSE: individual + cross-function optimization.
    pub fn new(families: Vec<ModelFamily>, config: PulseConfig) -> Self {
        Self {
            engine: PulseEngine::new(families, config),
            global_enabled: true,
            name: "pulse".into(),
        }
    }

    /// Individual optimization only (Figure 4b): no peak flattening.
    pub fn without_global(families: Vec<ModelFamily>, config: PulseConfig) -> Self {
        Self {
            engine: PulseEngine::new(families, config),
            global_enabled: false,
            name: "pulse-individual-only".into(),
        }
    }

    /// Access the underlying engine (inspection/testing).
    pub fn engine(&self) -> &PulseEngine {
        &self.engine
    }
}

impl KeepAlivePolicy for PulsePolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        self.engine.record_invocation(f, t);
        self.engine.schedule_after_invocation(f, t)
    }

    fn cold_start_variant(&mut self, f: FuncId, _t: Minute) -> VariantId {
        // A cold start launches the highest variant, as OpenWhisk does, so
        // accuracy comparisons across policies are fair.
        self.engine.family(f).highest_id()
    }

    fn adjust_minute(
        &mut self,
        t: Minute,
        history: &[f64],
        first: bool,
        kam: f64,
        alive: &mut Vec<AliveModel>,
    ) -> Vec<DowngradeAction> {
        if !self.global_enabled {
            return Vec::new();
        }
        let step = self.engine.flatten_minute(t, history, first, kam, alive);
        step.map(|o| o.actions).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_models::zoo;

    fn families() -> Vec<ModelFamily> {
        vec![zoo::gpt(), zoo::bert(), zoo::yolo()]
    }

    #[test]
    fn schedules_reflect_learned_cadence() {
        let mut p = PulsePolicy::new(families(), PulseConfig::default());
        let mut s = None;
        for t in [0u64, 4, 8, 12, 16] {
            s = Some(p.schedule_on_invocation(0, t));
        }
        let s = s.unwrap();
        assert_eq!(s.variant_at_offset(4), Some(2), "cadence-4 → highest at 4");
        assert_eq!(s.variant_at_offset(1), Some(0));
    }

    #[test]
    fn cold_start_uses_highest() {
        let mut p = PulsePolicy::new(families(), PulseConfig::default());
        assert_eq!(p.cold_start_variant(0, 3), 2);
        assert_eq!(p.cold_start_variant(1, 3), 1);
    }

    #[test]
    fn global_layer_flattens_peaks() {
        let mut p = PulsePolicy::new(families(), PulseConfig::default());
        let history = vec![1000.0; 30];
        let mut alive = vec![
            AliveModel {
                func: 0,
                variant: 2,
                invocation_probability: 0.0,
            },
            AliveModel {
                func: 1,
                variant: 1,
                invocation_probability: 0.0,
            },
            AliveModel {
                func: 2,
                variant: 2,
                invocation_probability: 0.0,
            },
        ];
        let actions = p.adjust_minute(30, &history, false, 12_000.0, &mut alive);
        assert!(!actions.is_empty());
    }

    #[test]
    fn disabled_global_layer_never_acts() {
        let mut p = PulsePolicy::without_global(families(), PulseConfig::default());
        let history = vec![100.0; 30];
        let mut alive = vec![AliveModel {
            func: 0,
            variant: 2,
            invocation_probability: 0.0,
        }];
        let actions = p.adjust_minute(30, &history, false, 1e9, &mut alive);
        assert!(actions.is_empty());
        assert_eq!(p.name(), "pulse-individual-only");
    }

    #[test]
    fn adjust_fills_invocation_probabilities() {
        let mut p = PulsePolicy::new(families(), PulseConfig::default());
        for t in [0u64, 5, 10, 15] {
            p.schedule_on_invocation(0, t);
        }
        let history = vec![1000.0; 30];
        let mut alive = vec![AliveModel {
            func: 0,
            variant: 2,
            invocation_probability: 0.0,
        }];
        // t = 20 is 5 minutes after the last invocation; P(gap=5)=1 shields
        // the model, but the point here is that Ip was filled in.
        let _ = p.adjust_minute(20, &history, false, 50_000.0, &mut alive);
        // After flattening the entry may have been downgraded/evicted; if it
        // survives, its Ip must be the engine's estimate.
        if let Some(m) = alive.first() {
            assert!(m.invocation_probability > 0.9);
        }
    }
}
