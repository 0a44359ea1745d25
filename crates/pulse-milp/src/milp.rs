//! Branch-and-bound over the simplex relaxation.
//!
//! Depth-first search on fractional integer variables with best-bound
//! pruning: a node whose LP relaxation cannot beat the incumbent is cut.
//! Branching adds `x ≤ ⌊v⌋` / `x ≥ ⌈v⌉` bound constraints. A node budget
//! guards against pathological instances (the peak-downgrade models here
//! are small: tens of binaries).

use crate::simplex::{Constraint, LinearProgram, LpResult, Relation};

/// A mixed-integer program: an LP plus a set of integrality requirements.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpProblem {
    /// The relaxation.
    pub lp: LinearProgram,
    /// Indices of variables required to be integral.
    pub integer_vars: Vec<usize>,
}

/// Outcome of a MILP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum MilpResult {
    /// A finite integral optimum.
    Optimal {
        /// Optimal variable values (integral on `integer_vars` up to 1e-6).
        x: Vec<f64>,
        /// Optimal objective value.
        objective: f64,
    },
    /// No integral feasible point exists.
    Infeasible,
    /// The relaxation is unbounded (the integral problem may be too).
    Unbounded,
    /// The node budget was exhausted before proving optimality; the best
    /// incumbent found (if any) is returned.
    NodeLimit {
        /// Best integral solution found, if any.
        incumbent: Option<(Vec<f64>, f64)>,
    },
}

const INT_EPS: f64 = 1e-6;

/// Statistics from a solve (for the overhead experiment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// LP relaxations solved.
    pub nodes: u64,
}

impl MilpProblem {
    /// Solve with the default node budget (100 000).
    pub fn solve(&self) -> MilpResult {
        self.solve_with_limit(100_000).0
    }

    /// Solve with an explicit node budget, returning search statistics.
    pub fn solve_with_limit(&self, max_nodes: u64) -> (MilpResult, SolveStats) {
        self.solve_with_incumbent(max_nodes, None)
    }

    /// Solve with a warm-start incumbent: a known feasible integral point
    /// and its objective, used to prune from the first node. The incumbent
    /// is *trusted* (the caller guarantees feasibility); a wrong incumbent
    /// can only make the result worse, never infeasible, because it is
    /// returned solely when no better point is found.
    pub fn solve_with_incumbent(
        &self,
        max_nodes: u64,
        incumbent: Option<(Vec<f64>, f64)>,
    ) -> (MilpResult, SolveStats) {
        let mut best: Option<(Vec<f64>, f64)> = incumbent;
        let mut stats = SolveStats::default();
        let mut stack: Vec<Vec<Constraint>> = vec![Vec::new()];
        let mut saw_unbounded_root = false;

        while let Some(extra) = stack.pop() {
            if stats.nodes >= max_nodes {
                return (MilpResult::NodeLimit { incumbent: best }, stats);
            }
            stats.nodes += 1;
            let mut lp = self.lp.clone();
            lp.constraints.extend(extra.iter().cloned());
            match lp.solve() {
                LpResult::Infeasible => continue,
                LpResult::Unbounded => {
                    if extra.is_empty() {
                        saw_unbounded_root = true;
                        break;
                    }
                    // A bounded-below branch of an unbounded parent: treat as
                    // unexplorable (cannot rank); conservatively stop.
                    saw_unbounded_root = true;
                    break;
                }
                LpResult::Optimal { x, objective } => {
                    // Bound: can this node beat the incumbent?
                    if let Some((_, inc)) = &best {
                        if objective <= inc + INT_EPS {
                            continue;
                        }
                    }
                    // Find a fractional integer variable.
                    let frac = self
                        .integer_vars
                        .iter()
                        .copied()
                        .find(|&j| (x[j] - x[j].round()).abs() > INT_EPS);
                    match frac {
                        None => {
                            // Integral — new incumbent.
                            let better = best.as_ref().is_none_or(|(_, inc)| objective > *inc);
                            if better {
                                best = Some((x, objective));
                            }
                        }
                        Some(j) => {
                            let v = x[j];
                            let mut up = extra.clone();
                            let mut coeffs = vec![0.0; self.lp.n_vars];
                            coeffs[j] = 1.0;
                            up.push(Constraint::new(coeffs.clone(), Relation::Ge, v.ceil()));
                            let mut down = extra;
                            down.push(Constraint::new(coeffs, Relation::Le, v.floor()));
                            // DFS: explore the "down" branch first (often
                            // tighter for knapsack-like models).
                            stack.push(up);
                            stack.push(down);
                        }
                    }
                }
            }
        }

        let result = if saw_unbounded_root {
            MilpResult::Unbounded
        } else {
            match best {
                Some((x, objective)) => MilpResult::Optimal { x, objective },
                None => MilpResult::Infeasible,
            }
        };
        (result, stats)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;

    fn opt(p: &MilpProblem) -> (Vec<f64>, f64) {
        match p.solve() {
            MilpResult::Optimal { x, objective } => (x, objective),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    fn binary_bounds(n: usize) -> Vec<Constraint> {
        (0..n)
            .map(|j| {
                let mut c = vec![0.0; n];
                c[j] = 1.0;
                Constraint::new(c, Relation::Le, 1.0)
            })
            .collect()
    }

    #[test]
    fn knapsack_integral_beats_relaxation_rounding() {
        // max 6a + 10b + 12c s.t. a + 2b + 3c ≤ 5, binaries.
        // Relaxation gives 24 with c fractional; integral optimum is 22
        // (b + c) — not the greedy-by-ratio rounding (a + b = 16).
        let mut constraints = vec![Constraint::new(vec![1.0, 2.0, 3.0], Relation::Le, 5.0)];
        constraints.extend(binary_bounds(3));
        let p = MilpProblem {
            lp: LinearProgram {
                n_vars: 3,
                objective: vec![6.0, 10.0, 12.0],
                constraints,
            },
            integer_vars: vec![0, 1, 2],
        };
        let (x, v) = opt(&p);
        assert!((v - 22.0).abs() < 1e-6, "got {v}");
        assert!(x[1].round() == 1.0 && x[2].round() == 1.0);
    }

    #[test]
    fn matches_brute_force_on_random_knapsacks() {
        // Deterministic pseudo-random instances; exhaustive check.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..20 {
            let n = 8;
            let profits: Vec<f64> = (0..n).map(|_| (next() * 20.0).round() + 1.0).collect();
            let weights: Vec<f64> = (0..n).map(|_| (next() * 9.0).round() + 1.0).collect();
            let cap = weights.iter().sum::<f64>() * 0.5;
            let mut constraints = vec![Constraint::new(weights.clone(), Relation::Le, cap)];
            constraints.extend(binary_bounds(n));
            let p = MilpProblem {
                lp: LinearProgram {
                    n_vars: n,
                    objective: profits.clone(),
                    constraints,
                },
                integer_vars: (0..n).collect(),
            };
            let (_, v) = opt(&p);
            // Brute force.
            let mut bf = 0.0f64;
            for mask in 0u32..(1 << n) {
                let w: f64 = (0..n)
                    .filter(|&j| mask >> j & 1 == 1)
                    .map(|j| weights[j])
                    .sum();
                if w <= cap + 1e-9 {
                    let pr: f64 = (0..n)
                        .filter(|&j| mask >> j & 1 == 1)
                        .map(|j| profits[j])
                        .sum();
                    bf = bf.max(pr);
                }
            }
            assert!(
                (v - bf).abs() < 1e-6,
                "trial {trial}: milp {v} vs brute {bf}"
            );
        }
    }

    #[test]
    fn multiple_choice_constraint() {
        // Pick exactly one of {a,b,c}: max 3a + 5b + 2c, a+b+c = 1.
        let mut constraints = vec![Constraint::new(vec![1.0, 1.0, 1.0], Relation::Eq, 1.0)];
        constraints.extend(binary_bounds(3));
        let p = MilpProblem {
            lp: LinearProgram {
                n_vars: 3,
                objective: vec![3.0, 5.0, 2.0],
                constraints,
            },
            integer_vars: vec![0, 1, 2],
        };
        let (x, v) = opt(&p);
        assert!((v - 5.0).abs() < 1e-6);
        assert!((x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_integral_problem() {
        // 0.5 ≤ x ≤ 0.7 has no integer point.
        let p = MilpProblem {
            lp: LinearProgram {
                n_vars: 1,
                objective: vec![1.0],
                constraints: vec![
                    Constraint::new(vec![1.0], Relation::Ge, 0.5),
                    Constraint::new(vec![1.0], Relation::Le, 0.7),
                ],
            },
            integer_vars: vec![0],
        };
        assert_eq!(p.solve(), MilpResult::Infeasible);
    }

    #[test]
    fn unbounded_relaxation_reported() {
        let p = MilpProblem {
            lp: LinearProgram {
                n_vars: 1,
                objective: vec![1.0],
                constraints: vec![Constraint::new(vec![1.0], Relation::Ge, 0.0)],
            },
            integer_vars: vec![0],
        };
        assert_eq!(p.solve(), MilpResult::Unbounded);
    }

    #[test]
    fn already_integral_relaxation_needs_one_node() {
        let p = MilpProblem {
            lp: LinearProgram {
                n_vars: 1,
                objective: vec![1.0],
                constraints: vec![Constraint::new(vec![1.0], Relation::Le, 3.0)],
            },
            integer_vars: vec![0],
        };
        let (res, stats) = p.solve_with_limit(10);
        assert!(matches!(res, MilpResult::Optimal { .. }));
        assert_eq!(stats.nodes, 1);
    }

    #[test]
    fn node_limit_returns_incumbent_or_none() {
        let mut constraints = vec![Constraint::new(vec![1.0, 2.0, 3.0, 4.0], Relation::Le, 5.0)];
        constraints.extend(binary_bounds(4));
        let p = MilpProblem {
            lp: LinearProgram {
                n_vars: 4,
                objective: vec![6.0, 10.0, 12.0, 9.0],
                constraints,
            },
            integer_vars: vec![0, 1, 2, 3],
        };
        let (res, _) = p.solve_with_limit(1);
        assert!(matches!(res, MilpResult::NodeLimit { .. }));
    }

    #[test]
    fn warm_start_prunes_without_changing_the_optimum() {
        let mut constraints = vec![Constraint::new(
            vec![1.0, 2.0, 3.0, 4.0, 2.0, 5.0],
            Relation::Le,
            8.0,
        )];
        constraints.extend(binary_bounds(6));
        let p = MilpProblem {
            lp: LinearProgram {
                n_vars: 6,
                objective: vec![6.0, 10.0, 12.0, 9.0, 7.0, 11.0],
                constraints,
            },
            integer_vars: (0..6).collect(),
        };
        let (cold_res, cold_stats) = p.solve_with_limit(100_000);
        // Greedy-by-ratio incumbent: items 0 (6/1), 1 (10/2), 4 (7/2) fit
        // weight 5 ≤ 8 → objective 23.
        let incumbent = (vec![1.0, 1.0, 0.0, 0.0, 1.0, 0.0], 23.0);
        let (warm_res, warm_stats) = p.solve_with_incumbent(100_000, Some(incumbent));
        let obj = |r: &MilpResult| match r {
            MilpResult::Optimal { objective, .. } => *objective,
            other => panic!("{other:?}"),
        };
        assert!((obj(&cold_res) - obj(&warm_res)).abs() < 1e-6);
        assert!(
            warm_stats.nodes <= cold_stats.nodes,
            "warm {} > cold {}",
            warm_stats.nodes,
            cold_stats.nodes
        );
    }

    #[test]
    fn incumbent_is_returned_when_nothing_beats_it() {
        // Feasible region only contains x = 0 (objective 0), but the caller
        // injects an (externally known) incumbent with value 5: since no LP
        // node beats 5, the incumbent comes back unchanged.
        let p = MilpProblem {
            lp: LinearProgram {
                n_vars: 1,
                objective: vec![1.0],
                constraints: vec![Constraint::new(vec![1.0], Relation::Le, 0.0)],
            },
            integer_vars: vec![0],
        };
        let (res, _) = p.solve_with_incumbent(100, Some((vec![9.0], 5.0)));
        match res {
            MilpResult::Optimal { objective, .. } => assert_eq!(objective, 5.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn continuous_vars_stay_fractional() {
        // y continuous: max x + y, x + y ≤ 1.5, x binary → x=1, y=0.5.
        let mut constraints = vec![Constraint::new(vec![1.0, 1.0], Relation::Le, 1.5)];
        constraints.push(Constraint::new(vec![1.0, 0.0], Relation::Le, 1.0));
        let p = MilpProblem {
            lp: LinearProgram {
                n_vars: 2,
                objective: vec![1.0, 1.0],
                constraints,
            },
            integer_vars: vec![0],
        };
        let (x, v) = opt(&p);
        assert!((v - 1.5).abs() < 1e-6);
        assert!((x[0] - 1.0).abs() < 1e-6);
        assert!((x[1] - 0.5).abs() < 1e-6);
    }
}
