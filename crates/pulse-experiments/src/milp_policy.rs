//! A PULSE variant whose peak flattening is solved by the MILP (Figure 9).
//!
//! Scheduling (individual optimization) is identical to PULSE; only the
//! cross-function step differs: instead of Algorithm 2's greedy loop, the
//! exact multiple-choice-knapsack MILP picks the levels. This is the
//! apples-to-apples baseline the paper benchmarks: same inputs, same
//! flatten target, different optimizer — so the overhead and accuracy
//! deltas isolate the optimizer choice.

use pulse_core::global::{AliveModel, DowngradeAction};
use pulse_core::individual::KeepAliveSchedule;
use pulse_core::priority::PriorityStructure;
use pulse_core::types::{FuncId, Minute, PulseConfig};
use pulse_core::PulseEngine;
use pulse_milp::MilpDowngrader;
use pulse_models::{ModelFamily, VariantId};
use pulse_sim::policy::KeepAlivePolicy;

/// PULSE with MILP-based peak flattening.
pub struct MilpPolicy {
    engine: PulseEngine,
    priority: PriorityStructure,
    /// Cumulative time spent inside the MILP solver.
    pub solver_time: std::time::Duration,
    /// Number of peaks flattened.
    pub peaks: u64,
}

impl MilpPolicy {
    /// Build over a family assignment.
    pub fn new(families: Vec<ModelFamily>, config: PulseConfig) -> Self {
        let n = families.len();
        Self {
            engine: PulseEngine::new(families, config),
            priority: PriorityStructure::new(n),
            solver_time: std::time::Duration::ZERO,
            peaks: 0,
        }
    }
}

impl KeepAlivePolicy for MilpPolicy {
    fn name(&self) -> &str {
        "pulse-milp"
    }

    fn schedule_on_invocation(&mut self, f: FuncId, t: Minute) -> KeepAliveSchedule {
        self.engine.record_invocation(f, t);
        self.engine.schedule_after_invocation(f, t)
    }

    fn cold_start_variant(&mut self, f: FuncId, _t: Minute) -> VariantId {
        self.engine.family(f).highest_id()
    }

    // Solver wall time is reported for Fig. 9a; the plan does not depend on it.
    #[allow(clippy::disallowed_methods)]
    fn adjust_minute(
        &mut self,
        t: Minute,
        mem_history: &[f64],
        first_minute_of_period: bool,
        current_kam_mb: f64,
        alive: &mut Vec<AliveModel>,
    ) -> Vec<DowngradeAction> {
        let detector = *self.engine.detector();
        let prior = detector.prior_kam(mem_history, first_minute_of_period);
        if !detector.is_peak(current_kam_mb, prior) {
            return Vec::new();
        }
        self.peaks += 1;
        for m in alive.iter_mut() {
            m.invocation_probability = self.engine.invocation_probability_at(m.func, t);
        }
        let target = detector.flatten_target(prior);
        let start = std::time::Instant::now();
        let plan = MilpDowngrader.solve(alive, self.engine.families(), &self.priority, target);
        self.solver_time += start.elapsed();

        // Translate the exact plan into the engine's action vocabulary and
        // update the alive set + priority structure accordingly.
        let mut actions = Vec::new();
        let mut keep: Vec<AliveModel> = Vec::with_capacity(alive.len());
        for (i, m) in alive.iter().enumerate() {
            match plan.levels[i] {
                Some(level) if level == m.variant => keep.push(m.clone()),
                Some(level) => {
                    // The MILP may jump several rungs at once; emit one
                    // single-rung action per step so the engine's clamping
                    // semantics stay uniform.
                    let mut from = m.variant;
                    while from > level {
                        actions.push(DowngradeAction::Downgrade {
                            func: m.func,
                            from,
                            to: from - 1,
                        });
                        from -= 1;
                    }
                    self.priority.bump(m.func);
                    let mut kept = m.clone();
                    kept.variant = level;
                    keep.push(kept);
                }
                None => {
                    actions.push(DowngradeAction::Evict {
                        func: m.func,
                        from: 0,
                    });
                    self.priority.bump(m.func);
                }
            }
        }
        *alive = keep;
        actions
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
    fn no_peak_means_no_solver_time() {
        let mut p = MilpPolicy::new(families(), PulseConfig::default());
        let mut alive = Vec::new();
        let a = p.adjust_minute(5, &[100.0; 20], false, 100.0, &mut alive);
        assert!(a.is_empty());
        assert_eq!(p.peaks, 0);
        assert_eq!(p.solver_time, std::time::Duration::ZERO);
    }

    #[test]
    fn peak_is_solved_within_budget() {
        let mut p = MilpPolicy::new(families(), PulseConfig::default());
        let fams = families();
        let mut alive: Vec<AliveModel> = fams
            .iter()
            .enumerate()
            .map(|(func, f)| AliveModel {
                func,
                variant: f.highest_id(),
                invocation_probability: 0.0,
            })
            .collect();
        let total: f64 = fams.iter().map(|f| f.highest().memory_mb).sum();
        let history = vec![total * 0.3; 30];
        let actions = p.adjust_minute(30, &history, false, total, &mut alive);
        assert!(!actions.is_empty());
        assert_eq!(p.peaks, 1);
        assert!(p.solver_time > std::time::Duration::ZERO);
        // Post-state memory within the flatten target.
        let target = total * 0.3 * 1.1;
        let after: f64 = alive
            .iter()
            .map(|m| fams[m.func].variant(m.variant).memory_mb)
            .sum();
        assert!(after <= target + 1e-6, "{after} > {target}");
    }

    #[test]
    fn multi_rung_downgrades_emit_single_steps() {
        let mut p = MilpPolicy::new(families(), PulseConfig::default());
        let fams = families();
        let mut alive = vec![AliveModel {
            func: 0,
            variant: fams[0].highest_id(),
            invocation_probability: 0.0,
        }];
        let history = vec![fams[0].lowest().memory_mb; 30];
        let actions = p.adjust_minute(30, &history, false, fams[0].highest().memory_mb, &mut alive);
        for a in &actions {
            if let DowngradeAction::Downgrade { from, to, .. } = a {
                assert_eq!(*to + 1, *from);
            }
        }
    }
}
