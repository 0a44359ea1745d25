//! Dense two-phase primal simplex.
//!
//! Solves `max cᵀx` subject to mixed `≤ / = / ≥` constraints and `x ≥ 0`.
//! Classic tableau formulation: slack variables for `≤`, surplus +
//! artificial for `≥`, artificial for `=`; phase 1 drives the artificials
//! out (infeasible if it cannot), phase 2 optimizes the real objective.
//! Bland's smallest-index pivoting rule guarantees termination (no cycling)
//! at the cost of a few extra pivots — the problem sizes here (tens of
//! variables) make that irrelevant.

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `a·x ≤ b`
    Le,
    /// `a·x = b`
    Eq,
    /// `a·x ≥ b`
    Ge,
}

/// One linear constraint `coeffs · x  rel  rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Coefficients, one per structural variable.
    pub coeffs: Vec<f64>,
    /// Relation.
    pub rel: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

impl Constraint {
    /// Construct a constraint.
    pub fn new(coeffs: Vec<f64>, rel: Relation, rhs: f64) -> Self {
        Self { coeffs, rel, rhs }
    }
}

/// A linear program in `max cᵀx, x ≥ 0` form.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearProgram {
    /// Number of structural variables.
    pub n_vars: usize,
    /// Objective coefficients (maximized).
    pub objective: Vec<f64>,
    /// Constraints.
    pub constraints: Vec<Constraint>,
}

/// Outcome of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpResult {
    /// A finite optimum.
    Optimal {
        /// Optimal structural variable values.
        x: Vec<f64>,
        /// Optimal objective value.
        objective: f64,
    },
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded above on the feasible region.
    Unbounded,
}

impl LpResult {
    /// The optimal objective, if any.
    pub fn objective(&self) -> Option<f64> {
        match self {
            LpResult::Optimal { objective, .. } => Some(*objective),
            _ => None,
        }
    }
}

const EPS: f64 = 1e-9;

impl LinearProgram {
    /// Solve by two-phase simplex.
    pub fn solve(&self) -> LpResult {
        assert_eq!(self.objective.len(), self.n_vars, "objective length");
        for c in &self.constraints {
            assert_eq!(c.coeffs.len(), self.n_vars, "constraint width");
        }
        Tableau::build(self).solve()
    }
}

/// Internal tableau. Column layout: structural | slack/surplus | artificial
/// | rhs. One row per constraint plus an implicit objective handled through
/// reduced costs.
struct Tableau {
    rows: Vec<Vec<f64>>,
    /// Basis variable (column index) of each constraint row.
    basis: Vec<usize>,
    /// Structural objective of the original program.
    struct_obj: Vec<f64>,
    n_struct: usize,
    n_total: usize,
    artificial_start: usize,
}

enum Phase {
    Optimal(f64),
    Unbounded,
}

fn normalized_rel(c: &Constraint) -> Relation {
    if c.rhs < 0.0 {
        match c.rel {
            Relation::Le => Relation::Ge,
            Relation::Ge => Relation::Le,
            Relation::Eq => Relation::Eq,
        }
    } else {
        c.rel
    }
}

impl Tableau {
    fn build(lp: &LinearProgram) -> Self {
        let m = lp.constraints.len();
        let mut n_slack = 0;
        let mut n_art = 0;
        for c in &lp.constraints {
            match normalized_rel(c) {
                Relation::Le => n_slack += 1,
                Relation::Ge => {
                    n_slack += 1;
                    n_art += 1;
                }
                Relation::Eq => n_art += 1,
            }
        }
        let n_struct = lp.n_vars;
        let slack_start = n_struct;
        let artificial_start = slack_start + n_slack;
        let n_total = artificial_start + n_art;

        let mut rows = vec![vec![0.0; n_total + 1]; m];
        let mut basis = vec![usize::MAX; m];
        let mut s = 0; // next slack column
        let mut a = 0; // next artificial column
        for (i, c) in lp.constraints.iter().enumerate() {
            let sign = if c.rhs < 0.0 { -1.0 } else { 1.0 };
            for (j, &coef) in c.coeffs.iter().enumerate() {
                rows[i][j] = sign * coef;
            }
            rows[i][n_total] = sign * c.rhs;
            match normalized_rel(c) {
                Relation::Le => {
                    rows[i][slack_start + s] = 1.0;
                    basis[i] = slack_start + s;
                    s += 1;
                }
                Relation::Ge => {
                    rows[i][slack_start + s] = -1.0;
                    s += 1;
                    rows[i][artificial_start + a] = 1.0;
                    basis[i] = artificial_start + a;
                    a += 1;
                }
                Relation::Eq => {
                    rows[i][artificial_start + a] = 1.0;
                    basis[i] = artificial_start + a;
                    a += 1;
                }
            }
        }
        Self {
            rows,
            basis,
            struct_obj: lp.objective.clone(),
            n_struct,
            n_total,
            artificial_start,
        }
    }

    fn solve(mut self) -> LpResult {
        // Phase 1: maximize −Σ artificials; feasible iff the optimum is 0.
        if self.artificial_start < self.n_total {
            let mut obj = vec![0.0; self.n_total];
            for o in obj.iter_mut().skip(self.artificial_start) {
                *o = -1.0;
            }
            match self.optimize(&obj) {
                Phase::Unbounded => unreachable!("phase-1 objective is bounded above by 0"),
                Phase::Optimal(value) => {
                    if value < -1e-6 {
                        return LpResult::Infeasible;
                    }
                }
            }
            // Drive any artificial still basic (at level 0) out where possible.
            for i in 0..self.rows.len() {
                if self.basis[i] >= self.artificial_start {
                    if let Some(j) =
                        (0..self.artificial_start).find(|&j| self.rows[i][j].abs() > EPS)
                    {
                        self.pivot(i, j);
                    }
                    // Otherwise the row is redundant; the artificial stays at
                    // level 0 and its column is barred from re-entering below.
                }
            }
        }
        // Phase 2: the real objective; artificials get −∞ profit so they
        // never re-enter.
        let mut obj = vec![0.0; self.n_total];
        obj[..self.n_struct].copy_from_slice(&self.struct_obj);
        for o in obj.iter_mut().skip(self.artificial_start) {
            *o = -1e18;
        }
        match self.optimize(&obj) {
            Phase::Unbounded => LpResult::Unbounded,
            Phase::Optimal(_) => {
                let mut x = vec![0.0; self.n_struct];
                for (i, &b) in self.basis.iter().enumerate() {
                    if b < self.n_struct {
                        x[b] = self.rows[i][self.n_total];
                    }
                }
                let objective = self.struct_obj.iter().zip(&x).map(|(c, v)| c * v).sum();
                LpResult::Optimal { x, objective }
            }
        }
    }

    /// Maximize `obj` (length `n_total`) from the current basis.
    #[allow(clippy::needless_range_loop)] // dual index sets over the tableau
    fn optimize(&mut self, obj: &[f64]) -> Phase {
        loop {
            let cb: Vec<f64> = self.basis.iter().map(|&b| obj[b]).collect();
            // Entering column: Bland — smallest index with positive reduced
            // profit c_j − z_j.
            let mut entering = None;
            for j in 0..self.n_total {
                if self.basis.contains(&j) {
                    continue;
                }
                let zj: f64 = (0..self.rows.len()).map(|i| cb[i] * self.rows[i][j]).sum();
                if obj[j] - zj > 1e-7 {
                    entering = Some(j);
                    break;
                }
            }
            let Some(j) = entering else {
                let value: f64 = (0..self.rows.len())
                    .map(|i| cb[i] * self.rows[i][self.n_total])
                    .sum();
                return Phase::Optimal(value);
            };
            // Leaving row: min ratio; ties by smallest basis index (Bland).
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..self.rows.len() {
                let aij = self.rows[i][j];
                if aij > EPS {
                    let ratio = self.rows[i][self.n_total] / aij;
                    let better = match leave {
                        None => true,
                        Some((li, lr)) => {
                            ratio < lr - EPS
                                || ((ratio - lr).abs() <= EPS && self.basis[i] < self.basis[li])
                        }
                    };
                    if better {
                        leave = Some((i, ratio));
                    }
                }
            }
            let Some((i, _)) = leave else {
                return Phase::Unbounded;
            };
            self.pivot(i, j);
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let p = self.rows[row][col];
        debug_assert!(p.abs() > EPS, "pivot on (near-)zero element");
        for v in self.rows[row].iter_mut() {
            *v /= p;
        }
        for i in 0..self.rows.len() {
            if i != row {
                let f = self.rows[i][col];
                if f.abs() > EPS {
                    for j in 0..=self.n_total {
                        self.rows[i][j] -= f * self.rows[row][j];
                    }
                }
            }
        }
        self.basis[row] = col;
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests compare exact constructed values
mod tests {
    use super::*;

    fn opt(lp: &LinearProgram) -> (Vec<f64>, f64) {
        match lp.solve() {
            LpResult::Optimal { x, objective } => (x, objective),
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn textbook_le_program() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), 36.
        let lp = LinearProgram {
            n_vars: 2,
            objective: vec![3.0, 5.0],
            constraints: vec![
                Constraint::new(vec![1.0, 0.0], Relation::Le, 4.0),
                Constraint::new(vec![0.0, 2.0], Relation::Le, 12.0),
                Constraint::new(vec![3.0, 2.0], Relation::Le, 18.0),
            ],
        };
        let (x, v) = opt(&lp);
        assert!((v - 36.0).abs() < 1e-9);
        assert!((x[0] - 2.0).abs() < 1e-9 && (x[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn ge_constraints_need_phase_one() {
        // max −x − y s.t. x + y ≥ 4, x ≤ 10, y ≤ 10 → cost-minimal at x+y=4.
        let lp = LinearProgram {
            n_vars: 2,
            objective: vec![-1.0, -1.0],
            constraints: vec![
                Constraint::new(vec![1.0, 1.0], Relation::Ge, 4.0),
                Constraint::new(vec![1.0, 0.0], Relation::Le, 10.0),
                Constraint::new(vec![0.0, 1.0], Relation::Le, 10.0),
            ],
        };
        let (x, v) = opt(&lp);
        assert!((v + 4.0).abs() < 1e-9);
        assert!((x[0] + x[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn equality_constraints() {
        // max x + 2y s.t. x + y = 5, y ≤ 3 → (2, 3), 8.
        let lp = LinearProgram {
            n_vars: 2,
            objective: vec![1.0, 2.0],
            constraints: vec![
                Constraint::new(vec![1.0, 1.0], Relation::Eq, 5.0),
                Constraint::new(vec![0.0, 1.0], Relation::Le, 3.0),
            ],
        };
        let (x, v) = opt(&lp);
        assert!((v - 8.0).abs() < 1e-9);
        assert!((x[0] - 2.0).abs() < 1e-9 && (x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        // x ≥ 5 and x ≤ 3.
        let lp = LinearProgram {
            n_vars: 1,
            objective: vec![1.0],
            constraints: vec![
                Constraint::new(vec![1.0], Relation::Ge, 5.0),
                Constraint::new(vec![1.0], Relation::Le, 3.0),
            ],
        };
        assert_eq!(lp.solve(), LpResult::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // max x with no upper bound.
        let lp = LinearProgram {
            n_vars: 1,
            objective: vec![1.0],
            constraints: vec![Constraint::new(vec![1.0], Relation::Ge, 0.0)],
        };
        assert_eq!(lp.solve(), LpResult::Unbounded);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // −x ≤ −2  ⇔  x ≥ 2; max −x → x = 2.
        let lp = LinearProgram {
            n_vars: 1,
            objective: vec![-1.0],
            constraints: vec![Constraint::new(vec![-1.0], Relation::Le, -2.0)],
        };
        let (x, v) = opt(&lp);
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((v + 2.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_program_terminates() {
        // A classic degenerate vertex; Bland's rule must not cycle.
        let lp = LinearProgram {
            n_vars: 3,
            objective: vec![10.0, -57.0, -9.0],
            constraints: vec![
                Constraint::new(vec![0.5, -5.5, -2.5], Relation::Le, 0.0),
                Constraint::new(vec![0.5, -1.5, -0.5], Relation::Le, 0.0),
                Constraint::new(vec![1.0, 0.0, 0.0], Relation::Le, 1.0),
            ],
        };
        let (_, v) = opt(&lp);
        assert!((v - 1.0).abs() < 1e-6, "got {v}");
    }

    #[test]
    fn knapsack_relaxation() {
        // max 6a + 10b + 12c s.t. a + 2b + 3c ≤ 5, each ≤ 1 → a=1, b=1, c=2/3.
        let lp = LinearProgram {
            n_vars: 3,
            objective: vec![6.0, 10.0, 12.0],
            constraints: vec![
                Constraint::new(vec![1.0, 2.0, 3.0], Relation::Le, 5.0),
                Constraint::new(vec![1.0, 0.0, 0.0], Relation::Le, 1.0),
                Constraint::new(vec![0.0, 1.0, 0.0], Relation::Le, 1.0),
                Constraint::new(vec![0.0, 0.0, 1.0], Relation::Le, 1.0),
            ],
        };
        let (x, v) = opt(&lp);
        assert!((v - 24.0).abs() < 1e-9);
        assert!((x[2] - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_constraint_program() {
        // max 0 subject to x ≤ 1: any feasible point, objective 0.
        let lp = LinearProgram {
            n_vars: 1,
            objective: vec![0.0],
            constraints: vec![Constraint::new(vec![1.0], Relation::Le, 1.0)],
        };
        let (_, v) = opt(&lp);
        assert_eq!(v, 0.0);
    }

    #[test]
    fn redundant_equalities_are_handled() {
        // x + y = 2 stated twice (redundant row keeps an artificial basic
        // at level 0 — must still solve).
        let lp = LinearProgram {
            n_vars: 2,
            objective: vec![1.0, 0.0],
            constraints: vec![
                Constraint::new(vec![1.0, 1.0], Relation::Eq, 2.0),
                Constraint::new(vec![1.0, 1.0], Relation::Eq, 2.0),
            ],
        };
        let (x, v) = opt(&lp);
        assert!((v - 2.0).abs() < 1e-9);
        assert!((x[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "objective length")]
    fn mismatched_objective_rejected() {
        LinearProgram {
            n_vars: 2,
            objective: vec![1.0],
            constraints: vec![],
        }
        .solve();
    }
}
