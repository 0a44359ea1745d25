//! The peak-downgrade problem as a MILP (the Figure 9 baseline).
//!
//! During a detected peak the platform must choose, for every kept-alive
//! model, a level — keep the current variant, downgrade to any lower rung,
//! or evict — such that total keep-alive memory fits the flatten target,
//! maximizing total utility `Uv = Ai + Pr + Ip` (eviction has utility 0).
//! PULSE solves this greedily (Algorithm 2); this module formulates it as a
//! multiple-choice knapsack and solves it exactly with the branch-and-bound
//! MILP solver, plus an independent dynamic-programming solver used to
//! cross-check the MILP in tests.
//!
//! The paper's finding (Figure 9): MILP's solution quality is *not* better
//! in practice — it "tends to favor lower-quality models due to lack of
//! iterative adaptability" — and its overhead is orders of magnitude higher,
//! which is why PULSE ships the greedy loop.

use crate::milp::{MilpProblem, MilpResult, SolveStats};
use crate::simplex::{Constraint, LinearProgram, Relation};
use pulse_core::global::AliveModel;
use pulse_core::priority::PriorityStructure;
use pulse_core::probability::Probability;
use pulse_core::utility::utility_value;
use pulse_models::{ModelFamily, VariantId};

/// The chosen level for one alive model: keep some variant, or evict.
pub type Level = Option<VariantId>;

/// An exact solution of the peak-downgrade problem.
#[derive(Debug, Clone, PartialEq)]
pub struct DowngradePlan {
    /// `levels[i]` is the decision for `alive[i]`.
    pub levels: Vec<Level>,
    /// Total utility of the plan.
    pub utility: f64,
    /// Total keep-alive memory of the plan, MB.
    pub memory_mb: f64,
    /// Branch-and-bound statistics (zero for the DP solver).
    pub stats: SolveStats,
}

/// Exact solver for the peak-downgrade multiple-choice knapsack.
#[derive(Debug, Clone, Copy, Default)]
pub struct MilpDowngrader;

/// The per-(model, level) utility: `Ai + Pr + Ip` of *keeping* the model at
/// `level` (the same terms Algorithm 2 scores), 0 for eviction.
fn level_utility(fam: &ModelFamily, level: VariantId, pr: f64, ip: f64) -> f64 {
    utility_value(
        fam.accuracy_improvement(level),
        Probability::saturating(pr),
        Probability::saturating(ip),
    )
}

impl MilpDowngrader {
    /// Build the MILP: one binary per (model, level) including an implicit
    /// eviction level (no variable needed: evicting contributes nothing to
    /// either the objective or the memory constraint, so `Σ_l x_{i,l} ≤ 1`
    /// encodes it).
    pub fn build_problem(
        alive: &[AliveModel],
        families: &[ModelFamily],
        priority: &PriorityStructure,
        target_kam_mb: f64,
    ) -> (MilpProblem, Vec<(usize, VariantId)>) {
        let pr = priority.normalized();
        // Variable registry: (alive index, level).
        let mut vars: Vec<(usize, VariantId)> = Vec::new();
        for (i, m) in alive.iter().enumerate() {
            for level in 0..=m.variant {
                vars.push((i, level));
            }
        }
        let n = vars.len();
        let mut objective = vec![0.0; n];
        let mut memory = vec![0.0; n];
        for (j, &(i, level)) in vars.iter().enumerate() {
            let m = &alive[i];
            let fam = &families[m.func];
            objective[j] = level_utility(fam, level, pr[m.func], m.invocation_probability);
            memory[j] = fam.variant(level).memory_mb;
        }
        let mut constraints = vec![Constraint::new(
            memory,
            Relation::Le,
            target_kam_mb.max(0.0),
        )];
        // One level (or eviction) per model.
        for i in 0..alive.len() {
            let coeffs: Vec<f64> = vars
                .iter()
                .map(|&(k, _)| if k == i { 1.0 } else { 0.0 })
                .collect();
            constraints.push(Constraint::new(coeffs, Relation::Le, 1.0));
        }
        // Binary bounds.
        for j in 0..n {
            let mut coeffs = vec![0.0; n];
            coeffs[j] = 1.0;
            constraints.push(Constraint::new(coeffs, Relation::Le, 1.0));
        }
        (
            MilpProblem {
                lp: LinearProgram {
                    n_vars: n,
                    objective,
                    constraints,
                },
                integer_vars: (0..n).collect(),
            },
            vars,
        )
    }

    /// Solve exactly via branch-and-bound.
    pub fn solve(
        &self,
        alive: &[AliveModel],
        families: &[ModelFamily],
        priority: &PriorityStructure,
        target_kam_mb: f64,
    ) -> DowngradePlan {
        let (problem, vars) = Self::build_problem(alive, families, priority, target_kam_mb);
        let (result, stats) = problem.solve_with_limit(200_000);
        let x = match result {
            MilpResult::Optimal { x, .. } => x,
            MilpResult::NodeLimit {
                incumbent: Some((x, _)),
            } => x,
            // Eviction of everything is always feasible (target ≥ 0), so
            // Infeasible/Unbounded cannot occur; fall back to all-evict.
            _ => vec![0.0; vars.len()],
        };
        let mut levels: Vec<Level> = vec![None; alive.len()];
        for (j, &(i, level)) in vars.iter().enumerate() {
            if x[j] > 0.5 {
                levels[i] = Some(level);
            }
        }
        Self::plan_from_levels(levels, alive, families, priority, stats)
    }

    /// Independent exact solver: dynamic programming over integer MB
    /// capacities. Used to cross-check branch-and-bound.
    // The DP indexes whole MB: budgets and variant sizes are small non-negative
    // MB counts, and the saturating cast is the intended floor/ceil.
    #[allow(clippy::cast_possible_truncation)]
    pub fn solve_dp(
        &self,
        alive: &[AliveModel],
        families: &[ModelFamily],
        priority: &PriorityStructure,
        target_kam_mb: f64,
    ) -> DowngradePlan {
        let pr = priority.normalized();
        let cap = target_kam_mb.max(0.0).floor() as usize;
        // dp[w] = (best utility with capacity w, chosen levels bitstate)
        // Track choices with a per-item table for reconstruction.
        let n = alive.len();
        let mut dp = vec![0.0f64; cap + 1];
        let mut choice: Vec<Vec<Level>> = vec![vec![None; cap + 1]; n];
        for (i, m) in alive.iter().enumerate() {
            let fam = &families[m.func];
            let mut next = dp.clone(); // eviction: same utility, no memory
            for level in 0..=m.variant {
                let w = fam.variant(level).memory_mb.ceil() as usize;
                let u = level_utility(fam, level, pr[m.func], m.invocation_probability);
                if w > cap {
                    continue;
                }
                for c in w..=cap {
                    let cand = dp[c - w] + u;
                    if cand > next[c] {
                        next[c] = cand;
                        choice[i][c] = Some(level);
                    }
                }
            }
            // Re-derive choices so reconstruction is consistent: where next
            // improved over eviction, the stored level applies.
            dp = next;
        }
        // Reconstruct.
        let mut levels: Vec<Level> = vec![None; n];
        let mut c = cap;
        // Walk items backwards re-running the recurrence decision.
        let mut dp_prev_stack: Vec<Vec<f64>> = Vec::with_capacity(n);
        {
            // Recompute the per-item prefix tables for reconstruction.
            let mut cur = vec![0.0f64; cap + 1];
            dp_prev_stack.push(cur.clone());
            for m in alive.iter() {
                let fam = &families[m.func];
                let mut next = cur.clone();
                for level in 0..=m.variant {
                    let w = fam.variant(level).memory_mb.ceil() as usize;
                    let u = level_utility(fam, level, pr[m.func], m.invocation_probability);
                    if w > cap {
                        continue;
                    }
                    for cc in w..=cap {
                        let cand = cur[cc - w] + u;
                        if cand > next[cc] {
                            next[cc] = cand;
                        }
                    }
                }
                cur = next;
                dp_prev_stack.push(cur.clone());
            }
        }
        for i in (0..n).rev() {
            let prev = &dp_prev_stack[i];
            let cur = &dp_prev_stack[i + 1];
            let m = &alive[i];
            let fam = &families[m.func];
            let mut picked: Level = None;
            if (cur[c] - prev[c]).abs() > 1e-12 {
                // Some level was taken; find one consistent with the values.
                for level in 0..=m.variant {
                    let w = fam.variant(level).memory_mb.ceil() as usize;
                    let u = level_utility(fam, level, pr[m.func], m.invocation_probability);
                    if w <= c && (prev[c - w] + u - cur[c]).abs() < 1e-9 {
                        picked = Some(level);
                        c -= w;
                        break;
                    }
                }
            }
            levels[i] = picked;
        }
        Self::plan_from_levels(levels, alive, families, priority, SolveStats::default())
    }

    fn plan_from_levels(
        levels: Vec<Level>,
        alive: &[AliveModel],
        families: &[ModelFamily],
        priority: &PriorityStructure,
        stats: SolveStats,
    ) -> DowngradePlan {
        let pr = priority.normalized();
        let mut utility = 0.0;
        let mut memory_mb = 0.0;
        for (i, lvl) in levels.iter().enumerate() {
            if let Some(level) = lvl {
                let m = &alive[i];
                let fam = &families[m.func];
                utility += level_utility(fam, *level, pr[m.func], m.invocation_probability);
                memory_mb += fam.variant(*level).memory_mb;
            }
        }
        DowngradePlan {
            levels,
            utility,
            memory_mb,
            stats,
        }
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;
    use pulse_models::zoo;

    fn alive_all_highest(fams: &[ModelFamily]) -> Vec<AliveModel> {
        fams.iter()
            .enumerate()
            .map(|(func, f)| AliveModel {
                func,
                variant: f.highest_id(),
                invocation_probability: 0.3,
            })
            .collect()
    }

    fn total_highest_mem(fams: &[ModelFamily]) -> f64 {
        fams.iter().map(|f| f.highest().memory_mb).sum()
    }

    #[test]
    fn generous_budget_keeps_everything_alive() {
        let fams = vec![zoo::gpt(), zoo::bert(), zoo::yolo()];
        let alive = alive_all_highest(&fams);
        let pr = PriorityStructure::new(3);
        let plan = MilpDowngrader.solve(&alive, &fams, &pr, total_highest_mem(&fams) + 1.0);
        // Nothing needs to be evicted with a generous budget…
        assert!(plan.levels.iter().all(|l| l.is_some()));
        assert!(plan.memory_mb <= total_highest_mem(&fams) + 1.0);
        // …but MILP does NOT keep the highest rungs: because `Ai` of the
        // lowest rung is the model's full accuracy, the objective favors
        // downgrading — the exact "MILP tends to favor lower-quality models"
        // artifact the paper reports in Figure 9(b).
        assert_eq!(plan.levels[0], Some(0), "GPT parked at its lowest rung");
    }

    #[test]
    fn zero_budget_evicts_everything() {
        let fams = vec![zoo::bert(), zoo::yolo()];
        let alive = alive_all_highest(&fams);
        let pr = PriorityStructure::new(2);
        let plan = MilpDowngrader.solve(&alive, &fams, &pr, 0.0);
        assert!(plan.levels.iter().all(|l| l.is_none()));
        assert_eq!(plan.memory_mb, 0.0);
        assert_eq!(plan.utility, 0.0);
    }

    #[test]
    fn plan_respects_budget() {
        let fams = vec![zoo::gpt(), zoo::bert(), zoo::densenet(), zoo::yolo()];
        let alive = alive_all_highest(&fams);
        let pr = PriorityStructure::new(4);
        let target = total_highest_mem(&fams) * 0.5;
        let plan = MilpDowngrader.solve(&alive, &fams, &pr, target);
        assert!(
            plan.memory_mb <= target + 1e-6,
            "{} > {target}",
            plan.memory_mb
        );
        assert!(plan.utility > 0.0);
    }

    #[test]
    fn milp_matches_dp_on_varied_budgets() {
        let fams = vec![zoo::gpt(), zoo::bert(), zoo::densenet()];
        let alive = alive_all_highest(&fams);
        let mut pr = PriorityStructure::new(3);
        pr.bump(1);
        pr.bump(1);
        pr.bump(2);
        let total = total_highest_mem(&fams);
        for frac in [0.15, 0.3, 0.5, 0.75, 0.95] {
            let target = total * frac;
            let bb = MilpDowngrader.solve(&alive, &fams, &pr, target);
            let dp = MilpDowngrader.solve_dp(&alive, &fams, &pr, target);
            // DP discretizes memory to whole MB (ceil weights, floor
            // capacity), so it solves a tighter knapsack: never better than
            // B&B, and on these (non-knife-edge) budgets it matches closely.
            assert!(
                dp.utility <= bb.utility + 1e-9,
                "frac {frac}: dp {} > bb {}",
                dp.utility,
                bb.utility
            );
            assert!(
                bb.utility - dp.utility < 0.05,
                "frac {frac}: bb {} vs dp {}",
                bb.utility,
                dp.utility
            );
            assert!(bb.memory_mb <= target + 1e-6);
            assert!(dp.memory_mb <= target + 1e-6);
        }
    }

    #[test]
    fn milp_beats_or_matches_greedy_utility() {
        use pulse_core::global::flatten_peak;
        let fams = vec![zoo::gpt(), zoo::bert(), zoo::densenet(), zoo::yolo()];
        let alive = alive_all_highest(&fams);
        let total = total_highest_mem(&fams);
        let target = total * 0.45;

        // Greedy (Algorithm 2).
        let mut greedy_alive = alive.clone();
        let mut pr_greedy = PriorityStructure::new(4);
        flatten_peak(&mut greedy_alive, &fams, &mut pr_greedy, total, target);
        let pr_fresh = PriorityStructure::new(4);
        let greedy_utility: f64 = greedy_alive
            .iter()
            .map(|m| {
                level_utility(
                    &fams[m.func],
                    m.variant,
                    pr_fresh.normalized()[m.func],
                    m.invocation_probability,
                )
            })
            .sum();

        // Exact.
        let plan = MilpDowngrader.solve(&alive, &fams, &pr_fresh, target);
        assert!(
            plan.utility >= greedy_utility - 1e-9,
            "milp {} < greedy {}",
            plan.utility,
            greedy_utility
        );
    }

    #[test]
    fn high_ip_models_survive() {
        let fams = vec![zoo::gpt(), zoo::gpt()];
        let mut alive = alive_all_highest(&fams);
        alive[0].invocation_probability = 1.0;
        alive[1].invocation_probability = 0.0;
        let pr = PriorityStructure::new(2);
        // Budget fits exactly one GPT-Large.
        let target = fams[0].highest().memory_mb + 1.0;
        let plan = MilpDowngrader.solve(&alive, &fams, &pr, target);
        // The high-probability model keeps a bigger footprint than the other.
        let mem =
            |lvl: &Level, fam: &ModelFamily| lvl.map(|l| fam.variant(l).memory_mb).unwrap_or(0.0);
        assert!(mem(&plan.levels[0], &fams[0]) >= mem(&plan.levels[1], &fams[1]));
    }

    #[test]
    fn dp_zero_capacity() {
        let fams = vec![zoo::bert()];
        let alive = alive_all_highest(&fams);
        let pr = PriorityStructure::new(1);
        let plan = MilpDowngrader.solve_dp(&alive, &fams, &pr, 0.0);
        assert_eq!(plan.levels, vec![None]);
    }

    #[test]
    fn empty_alive_set() {
        let fams: Vec<ModelFamily> = vec![];
        let pr = PriorityStructure::new(0);
        let plan = MilpDowngrader.solve(&[], &fams, &pr, 100.0);
        assert!(plan.levels.is_empty());
        assert_eq!(plan.utility, 0.0);
    }
}
