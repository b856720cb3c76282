//! Revised simplex, with a dual-simplex re-solve from a kept basis.
//!
//! Solves `min cᵀx  s.t.  Aᵢx {≤,=,≥} bᵢ, x ≥ 0`. The program is held
//! column-sparse in equality form `[A | slacks | artificials]·z = b`,
//! and the basis inverse `B⁻¹` is an explicit dense `m × m` matrix: each
//! pivot applies a rank-one update to it, and it is rebuilt from the
//! basis columns every `m` pivots, or whenever the residual
//! `‖B·x_B − b‖∞` shows it has drifted.
//!
//! A cold solve ([`solve`], [`solve_with`]) runs two primal phases from
//! the slack/artificial basis. Pivoting uses Dantzig's rule (most
//! negative reduced cost) and falls back to Bland's rule once the
//! iteration count suggests cycling, which guarantees termination.
//!
//! `resolve` re-solves a program whose `A` and `c` are unchanged but
//! whose right-hand side `b` moved — consecutive traffic matrices of the
//! multicommodity-flow oracle. The kept optimal basis is then still dual
//! feasible, so a dual simplex from it restores primal feasibility in a
//! few pivots. It solves cold instead when the kept basis does not fit
//! the program, its pivot cap runs out or the residual check fails. A
//! warm answer is the same optimum, but may differ from a cold one in
//! the last bits, so only callers that accept that use it.

use std::fmt;

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `≤ b`
    Le,
    /// `= b`
    Eq,
    /// `≥ b`
    Ge,
}

/// A sparse constraint row: terms, relation and right-hand side.
type ConstraintRow = (Vec<(usize, f64)>, Relation, f64);

/// A linear program in `min cᵀx` form with non-negative variables.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    num_vars: usize,
    objective: Vec<f64>,
    constraints: Vec<ConstraintRow>,
}

/// An optimal solution, including the solver-effort diagnostics that
/// telemetry and error reporting share (one source of truth for pivot
/// accounting).
#[derive(Debug, Clone)]
pub struct Solution {
    /// The optimal objective value.
    pub objective: f64,
    /// The optimal assignment, one entry per variable.
    pub x: Vec<f64>,
    /// Dual multipliers, one per constraint row (in `add_constraint`
    /// order), under the convention for `min cᵀx, x ≥ 0`: `y ≤ 0` on
    /// `≤` rows, `y ≥ 0` on `≥` rows, free on `=` rows, with
    /// `cᵀx = bᵀy` at the optimum. Computed as `y = c_B·B⁻¹` from the
    /// final basis, so an external certificate checker can verify
    /// optimality without trusting the pivot path.
    pub duals: Vec<f64>,
    /// Total pivot operations across both phases (including basis
    /// repair after phase 1).
    pub pivots: usize,
    /// Pivot iterations spent in phase 1 (artificial elimination).
    pub phase1_pivots: usize,
    /// Pivot iterations spent in phase 2 (the real objective).
    pub phase2_pivots: usize,
}

/// Solver failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The pivot limit was exceeded — either the built-in anti-cycling
    /// safety net or an explicit [`SolveOptions::max_pivots`] budget.
    /// Carries the pivot count at abort so diagnostics report the
    /// actual effort spent.
    PivotLimit {
        /// Pivots executed before giving up.
        pivots: usize,
    },
    /// The program itself is malformed (e.g. a non-finite objective
    /// coefficient) — retrying cannot help.
    InvalidInput(String),
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::PivotLimit { pivots } => {
                write!(f, "simplex pivot limit exceeded after {pivots} pivots")
            }
            LpError::InvalidInput(m) => write!(f, "invalid linear program: {m}"),
        }
    }
}

/// Tuning knobs for [`solve_with`], used by the oracle's fallback
/// ladder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveOptions {
    /// Use Bland's anti-cycling rule from the first pivot instead of
    /// switching over only after Dantzig stalls. Slower on benign
    /// problems, immune to cycling.
    pub bland_from_start: bool,
    /// Hard pivot budget across both phases; `None` uses the built-in
    /// safety net. `Some(0)` fails every solve — the fault-injection
    /// hook used by robustness tests.
    pub max_pivots: Option<usize>,
}

impl std::error::Error for LpError {}

impl LinearProgram {
    /// Creates a program over `num_vars` non-negative variables with a
    /// zero objective.
    pub fn new(num_vars: usize) -> Self {
        LinearProgram {
            num_vars,
            objective: vec![0.0; num_vars],
            constraints: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Sets the minimisation objective coefficients.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the variable count.
    pub fn set_objective(&mut self, c: &[f64]) {
        assert_eq!(c.len(), self.num_vars, "objective length mismatch");
        self.objective = c.to_vec();
    }

    /// Sets a single objective coefficient.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set_objective_coeff(&mut self, var: usize, coeff: f64) {
        assert!(var < self.num_vars, "variable out of range");
        self.objective[var] = coeff;
    }

    /// Adds a sparse constraint `Σ coeff·x_var  rel  rhs`.
    ///
    /// # Panics
    ///
    /// Panics if any referenced variable is out of range or a
    /// coefficient is non-finite.
    pub fn add_constraint(&mut self, terms: &[(usize, f64)], rel: Relation, rhs: f64) {
        assert!(
            terms
                .iter()
                .all(|&(v, c)| v < self.num_vars && c.is_finite()),
            "constraint references invalid variable or coefficient"
        );
        assert!(rhs.is_finite(), "rhs must be finite");
        self.constraints.push((terms.to_vec(), rel, rhs));
    }

    /// The minimisation objective coefficients, one per variable.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Iterates the constraint rows as `(terms, relation, rhs)` — the
    /// read side of [`add_constraint`](Self::add_constraint), used by
    /// external certificate checkers.
    pub fn constraints(&self) -> impl Iterator<Item = (&[(usize, f64)], Relation, f64)> {
        self.constraints
            .iter()
            .map(|(terms, rel, rhs)| (terms.as_slice(), *rel, *rhs))
    }
}

/// Pivot-element and reduced-cost tolerance.
const EPS: f64 = 1e-9;
/// Largest phase-1 objective (sum of artificials) still counted as
/// feasible.
const PHASE1_TOL: f64 = 1e-6;
/// A basic value below `-FEAS_TOL · (1 + ‖b‖∞)` is primal infeasible and
/// leaves in the dual simplex.
const FEAS_TOL: f64 = 1e-12;
/// Largest residual `‖B·x_B − b‖∞ / (1 + ‖b‖∞)` accepted before the
/// inverse is rebuilt.
const RESIDUAL_TOL: f64 = 1e-9;
/// Marks a nonbasic column in [`Revised::pos`].
const NONBASIC: usize = usize::MAX;

fn flipped(rel: Relation) -> Relation {
    match rel {
        Relation::Le => Relation::Ge,
        Relation::Ge => Relation::Le,
        Relation::Eq => Relation::Eq,
    }
}

/// A program in equality form `[A | slacks | artificials]·z = b`,
/// column-sparse, after scaling each row by its `sign` (±1).
///
/// Column layout: the original variables, then one slack (`+1`) or
/// surplus (`−1`) per inequality row in row order, then one artificial
/// per `=`/`≥` row in row order.
struct Standard {
    rows: usize,
    /// Number of original variables (the first columns).
    structural: usize,
    /// First artificial column; every column from here on is one.
    artificial: usize,
    cols: usize,
    /// Column `j`'s entries are `index[start[j]..start[j + 1]]` (rows)
    /// and the matching `value`s.
    start: Vec<usize>,
    index: Vec<usize>,
    value: Vec<f64>,
    b: Vec<f64>,
    /// `‖b‖∞`, the scale of the feasibility and residual tolerances.
    b_norm: f64,
    sign: Vec<f64>,
    /// Each row's `+1` unit column (its slack or artificial): the cold
    /// starting basis.
    unit: Vec<usize>,
    /// The real objective over every column (zero past `structural`).
    cost: Vec<f64>,
}

impl Standard {
    /// Builds the equality form under the row scaling `sign` (a kept
    /// basis's), or under the one that makes `b ≥ 0` when `None`.
    fn new(lp: &LinearProgram, sign: Option<&[f64]>) -> Self {
        let m = lp.constraints.len();
        let n = lp.num_vars;
        let sign: Vec<f64> = match sign {
            Some(s) => s.to_vec(),
            None => lp
                .constraints
                .iter()
                .map(|&(_, _, rhs)| if rhs < 0.0 { -1.0 } else { 1.0 })
                .collect(),
        };
        let rel: Vec<Relation> = lp
            .constraints
            .iter()
            .zip(&sign)
            .map(|(&(_, rel, _), &s)| if s < 0.0 { flipped(rel) } else { rel })
            .collect();
        let slacks = rel.iter().filter(|&&r| r != Relation::Eq).count();
        let artificial = n + slacks;
        let cols = artificial + rel.iter().filter(|&&r| r != Relation::Le).count();

        // Transpose the rows into columns, merging repeated terms of a
        // row (they add up, as in the row-wise program).
        let mut offset = vec![0usize; n + 1];
        for (terms, _, _) in &lp.constraints {
            for &(v, _) in terms {
                offset[v + 1] += 1;
            }
        }
        for v in 0..n {
            offset[v + 1] += offset[v];
        }
        let mut entries = vec![(0usize, 0.0f64); offset[n]];
        let mut len = vec![0usize; n];
        for (r, (terms, _, _)) in lp.constraints.iter().enumerate() {
            for &(v, coeff) in terms {
                let at = offset[v] + len[v];
                if len[v] > 0 && entries[at - 1].0 == r {
                    entries[at - 1].1 += sign[r] * coeff;
                } else {
                    entries[at] = (r, sign[r] * coeff);
                    len[v] += 1;
                }
            }
        }
        let mut start = Vec::with_capacity(cols + 1);
        let mut index = Vec::with_capacity(offset[n] + slacks + cols - artificial);
        let mut value = Vec::with_capacity(index.capacity());
        for v in 0..n {
            start.push(index.len());
            for &(r, coeff) in &entries[offset[v]..offset[v] + len[v]] {
                index.push(r);
                value.push(coeff);
            }
        }
        let mut unit = vec![0; m];
        for (r, &rel) in rel.iter().enumerate() {
            if rel != Relation::Eq {
                if rel == Relation::Le {
                    unit[r] = start.len();
                }
                start.push(index.len());
                index.push(r);
                value.push(if rel == Relation::Le { 1.0 } else { -1.0 });
            }
        }
        for (r, &rel) in rel.iter().enumerate() {
            if rel != Relation::Le {
                unit[r] = start.len();
                start.push(index.len());
                index.push(r);
                value.push(1.0);
            }
        }
        start.push(index.len());

        let b: Vec<f64> = lp
            .constraints
            .iter()
            .zip(&sign)
            .map(|(&(_, _, rhs), &s)| s * rhs)
            .collect();
        let b_norm = b.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        let mut cost = vec![0.0; cols];
        cost[..n].copy_from_slice(&lp.objective);
        Standard {
            rows: m,
            structural: n,
            artificial,
            cols,
            start,
            index,
            value,
            b,
            b_norm,
            sign,
            unit,
            cost,
        }
    }

    /// Column `j`'s row indices and values.
    fn column(&self, j: usize) -> (&[usize], &[f64]) {
        let range = self.start[j]..self.start[j + 1];
        (&self.index[range.clone()], &self.value[range])
    }
}

/// An optimal basis kept from an earlier solve, with its inverse: the
/// warm start of `resolve`.
///
/// It belongs to one constraint matrix and objective; `resolve`
/// re-solves from it only a program with the same `A` and `c` (a new
/// right-hand side is what it is for). A basis that still holds an
/// artificial column (a redundant row) is never kept.
#[derive(Debug, Clone)]
pub(crate) struct Basis {
    head: Vec<usize>,
    inv: Vec<f64>,
    sign: Vec<f64>,
    cols: usize,
    updates: usize,
}

/// The working state of one solve: a basis of a [`Standard`] program
/// and its dense inverse.
struct Revised<'a> {
    sf: &'a Standard,
    /// Basic column at each row position.
    head: Vec<usize>,
    /// Position of each column in the basis, or [`NONBASIC`].
    pos: Vec<usize>,
    /// `B⁻¹`, column-major: entry `(i, k)` is `inv[k * m + i]`.
    inv: Vec<f64>,
    /// Basic values `x_B = B⁻¹·b`, by position.
    x: Vec<f64>,
    /// The cost vector being minimised and its simplex multipliers
    /// `y = c_B·B⁻¹`.
    cost: Vec<f64>,
    y: Vec<f64>,
    /// Pivots since the inverse was last rebuilt.
    updates: usize,
    /// Scratch: the entering column `B⁻¹·A_q`, a row of `B⁻¹`, and the
    /// dual ratio test's candidates `(column, −pivot row entry, reduced
    /// cost)`.
    alpha: Vec<f64>,
    rho: Vec<f64>,
    candidates: Vec<(usize, f64, f64)>,
}

impl<'a> Revised<'a> {
    /// The slack/artificial starting basis, `B = I`.
    fn cold(sf: &'a Standard) -> Self {
        Self::with(sf, sf.unit.clone(), identity(sf.rows), 0)
    }

    /// A kept basis, with `x_B` recomputed for this program's `b`.
    fn warm(sf: &'a Standard, basis: Basis) -> Self {
        Self::with(sf, basis.head, basis.inv, basis.updates)
    }

    fn with(sf: &'a Standard, head: Vec<usize>, inv: Vec<f64>, updates: usize) -> Self {
        let m = sf.rows;
        let mut pos = vec![NONBASIC; sf.cols];
        for (i, &j) in head.iter().enumerate() {
            pos[j] = i;
        }
        let mut rs = Revised {
            sf,
            head,
            pos,
            inv,
            x: vec![0.0; m],
            cost: vec![0.0; sf.cols],
            y: vec![0.0; m],
            updates,
            alpha: vec![0.0; m],
            rho: vec![0.0; m],
            candidates: Vec::new(),
        };
        rs.compute_x();
        rs
    }

    /// The kept form of this basis, unless an artificial is still basic.
    fn into_basis(self) -> Option<Basis> {
        if self.head.iter().any(|&j| j >= self.sf.artificial) {
            return None;
        }
        Some(Basis {
            head: self.head,
            inv: self.inv,
            sign: self.sf.sign.clone(),
            cols: self.sf.cols,
            updates: self.updates,
        })
    }

    /// `x_B = B⁻¹·b`.
    fn compute_x(&mut self) {
        self.x.fill(0.0);
        for (col, &bk) in self.inv.chunks_exact(self.sf.rows.max(1)).zip(&self.sf.b) {
            if bk != 0.0 {
                for (xi, inv) in self.x.iter_mut().zip(col) {
                    *xi += bk * inv;
                }
            }
        }
    }

    /// `y = c_B·B⁻¹`.
    fn compute_y(&mut self) {
        self.y.fill(0.0);
        for (i, &j) in self.head.iter().enumerate() {
            let c = self.cost[j];
            if c != 0.0 {
                for (yk, col) in self
                    .y
                    .iter_mut()
                    .zip(self.inv.chunks_exact(self.sf.rows.max(1)))
                {
                    *yk += c * col[i];
                }
            }
        }
    }

    /// Switches the objective being minimised.
    fn set_cost(&mut self, cost: &[f64]) {
        self.cost.copy_from_slice(cost);
        self.compute_y();
    }

    /// Reduced cost `c_j − y·A_j`.
    fn reduced_cost(&self, j: usize) -> f64 {
        let (rows, vals) = self.sf.column(j);
        self.cost[j]
            - rows
                .iter()
                .zip(vals)
                .map(|(&k, v)| self.y[k] * v)
                .sum::<f64>()
    }

    /// `alpha = B⁻¹·A_q`.
    fn ftran(&mut self, q: usize) {
        let m = self.sf.rows;
        self.alpha.fill(0.0);
        let (rows, vals) = self.sf.column(q);
        for (&k, &v) in rows.iter().zip(vals) {
            for (a, inv) in self.alpha.iter_mut().zip(&self.inv[k * m..(k + 1) * m]) {
                *a += v * inv;
            }
        }
    }

    /// `rho = e_rᵀ·B⁻¹`, row `r` of the inverse.
    fn load_row(&mut self, r: usize) {
        for (rho, col) in self
            .rho
            .iter_mut()
            .zip(self.inv.chunks_exact(self.sf.rows.max(1)))
        {
            *rho = col[r];
        }
    }

    /// `rho·A_j`: column `j`'s entry in the loaded row of `B⁻¹·A`.
    fn row_entry(&self, j: usize) -> f64 {
        let (rows, vals) = self.sf.column(j);
        rows.iter().zip(vals).map(|(&k, v)| self.rho[k] * v).sum()
    }

    /// Replaces the basic column at position `r` by `q`, whose
    /// `B⁻¹·A_q` is in `alpha`: updates `x_B`, `y` and the inverse, and
    /// rebuilds the inverse every `m` updates.
    fn pivot(&mut self, r: usize, q: usize) {
        let m = self.sf.rows;
        let ar = self.alpha[r];
        debug_assert!(ar.abs() > EPS, "pivot on a ~zero element");
        let dq = self.reduced_cost(q);
        self.load_row(r);

        let theta = self.x[r] / ar;
        for (xi, a) in self.x.iter_mut().zip(&self.alpha) {
            *xi -= theta * a;
        }
        self.x[r] = theta;
        let step = dq / ar;
        if step != 0.0 {
            for (yk, rho) in self.y.iter_mut().zip(&self.rho) {
                *yk += step * rho;
            }
        }
        eliminate(&mut self.inv, r, &self.alpha, &self.rho);

        self.pos[self.head[r]] = NONBASIC;
        self.head[r] = q;
        self.pos[q] = r;
        self.updates += 1;
        if self.updates >= m {
            self.refactor();
        }
    }

    /// Rebuilds `B⁻¹` from the basis columns by Gauss–Jordan elimination
    /// with partial pivoting, then recomputes `x_B` and `y`. Columns go
    /// in descending index order, so unit slack columns come first and
    /// cause no fill; the result depends only on the set of basic
    /// columns. Returns `false`, keeping the old inverse, if the basis is
    /// numerically singular.
    fn refactor(&mut self) -> bool {
        gddr_telemetry::counter_add("lp.simplex.reinversions", 1);
        let m = self.sf.rows;
        self.updates = 0;
        let old = std::mem::replace(&mut self.inv, identity(m));
        let mut head = vec![NONBASIC; m];
        let mut columns = self.head.clone();
        columns.sort_unstable_by(|a, b| b.cmp(a));
        for &j in &columns {
            self.ftran(j);
            let mut r = NONBASIC;
            let mut best = EPS;
            for (i, a) in self.alpha.iter().enumerate() {
                if head[i] == NONBASIC && a.abs() > best {
                    best = a.abs();
                    r = i;
                }
            }
            if r == NONBASIC {
                self.inv = old;
                return false;
            }
            self.load_row(r);
            eliminate(&mut self.inv, r, &self.alpha, &self.rho);
            head[r] = j;
        }
        for (i, &j) in head.iter().enumerate() {
            self.pos[j] = i;
        }
        self.head = head;
        self.compute_x();
        self.compute_y();
        true
    }

    /// Whether `‖B·x_B − b‖∞ ≤ RESIDUAL_TOL · (1 + ‖b‖∞)`.
    fn residual_ok(&self) -> bool {
        let mut residual: Vec<f64> = self.sf.b.iter().map(|b| -b).collect();
        for (&j, &xi) in self.head.iter().zip(&self.x) {
            let (rows, vals) = self.sf.column(j);
            for (&k, v) in rows.iter().zip(vals) {
                residual[k] += v * xi;
            }
        }
        let worst = residual.iter().fold(0.0f64, |acc, r| acc.max(r.abs()));
        worst <= RESIDUAL_TOL * (1.0 + self.sf.b_norm)
    }

    /// Primal simplex over the columns `0..limit` until no reduced cost
    /// is negative; returns the pivots taken. `max_pivots` is the
    /// remaining explicit budget, if any.
    fn primal(
        &mut self,
        limit: usize,
        bland_from_start: bool,
        max_pivots: Option<usize>,
    ) -> Result<usize, LpError> {
        let m = self.sf.rows;
        let cols = self.sf.cols;
        // Generous limit: Bland's rule guarantees finite termination; the
        // cap is a safety net against numerical pathologies.
        let max_iters = max_pivots.unwrap_or(50 * (m + cols) + 10_000);
        let bland_after = 5 * (m + cols) + 1_000;
        for iter in 0..max_iters {
            let use_bland = bland_from_start || iter > bland_after;
            // Choose the entering column: the first (Bland) or the most
            // (Dantzig) negative reduced cost.
            let mut entering = None;
            let mut best = -EPS;
            for j in 0..limit {
                if self.pos[j] != NONBASIC {
                    continue;
                }
                let d = self.reduced_cost(j);
                if d < best {
                    entering = Some(j);
                    if use_bland {
                        break;
                    }
                    best = d;
                }
            }
            let Some(q) = entering else {
                return Ok(iter); // Optimal.
            };
            // Ratio test, ties to the lowest basic column index.
            self.ftran(q);
            let mut leaving: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for (i, &a) in self.alpha.iter().enumerate() {
                if a > EPS {
                    let ratio = self.x[i].max(0.0) / a;
                    let better = match leaving {
                        None => true,
                        Some(prev) => {
                            ratio < best_ratio - EPS
                                || (ratio < best_ratio + EPS && self.head[i] < self.head[prev])
                        }
                    };
                    if better {
                        best_ratio = ratio;
                        leaving = Some(i);
                    }
                }
            }
            let Some(r) = leaving else {
                return Err(LpError::Unbounded);
            };
            self.pivot(r, q);
        }
        Err(LpError::PivotLimit { pivots: max_iters })
    }

    /// Dual simplex over the columns `0..limit` from a dual-feasible
    /// basis until `x_B` is feasible; returns the pivots taken. The most
    /// infeasible row leaves. The entering column comes from a Harris
    /// two-pass ratio test: the longest dual step that keeps every
    /// reduced cost above `−EPS`, then the largest pivot element among
    /// the columns within it, which keeps the dual simplex from stalling
    /// on the many zero reduced costs of a degenerate basis.
    fn dual(&mut self, limit: usize, max_pivots: Option<usize>) -> Result<usize, LpError> {
        let m = self.sf.rows;
        let max_iters = max_pivots.unwrap_or(50 * (m + self.sf.cols) + 10_000);
        let tol = FEAS_TOL * (1.0 + self.sf.b_norm);
        for iter in 0..max_iters {
            let mut leaving = None;
            let mut worst = -tol;
            for (i, &xi) in self.x.iter().enumerate() {
                if xi < worst {
                    worst = xi;
                    leaving = Some(i);
                }
            }
            let Some(r) = leaving else {
                return Ok(iter); // Primal feasible, hence optimal.
            };
            self.load_row(r);
            let mut candidates = std::mem::take(&mut self.candidates);
            candidates.clear();
            let mut step = f64::INFINITY;
            for j in 0..limit {
                if self.pos[j] != NONBASIC {
                    continue;
                }
                let a = self.row_entry(j);
                if a < -EPS {
                    let d = self.reduced_cost(j).max(0.0);
                    step = step.min((d + EPS) / -a);
                    candidates.push((j, -a, d));
                }
            }
            let mut entering = None;
            let mut best_pivot = 0.0;
            for &(j, a, d) in &candidates {
                if d / a <= step && a > best_pivot {
                    best_pivot = a;
                    entering = Some(j);
                }
            }
            self.candidates = candidates;
            let Some(q) = entering else {
                return Err(LpError::Infeasible);
            };
            self.ftran(q);
            if self.alpha[r] > -EPS {
                // Row and column disagree on the pivot element: the
                // inverse has drifted too far to trust.
                return Err(LpError::Infeasible);
            }
            self.pivot(r, q);
        }
        Err(LpError::PivotLimit { pivots: max_iters })
    }

    /// Pivots every basic artificial out for a real column with a
    /// nonzero entry in its row (phase-1 cleanup); an artificial with no
    /// such column sits on a redundant row and stays basic at zero.
    /// Returns the pivots taken.
    fn drive_out_artificials(&mut self) -> usize {
        let artificials: Vec<usize> = self
            .head
            .iter()
            .copied()
            .filter(|&j| j >= self.sf.artificial)
            .collect();
        let mut pivots = 0;
        for a in artificials {
            // Looked up afresh: a rebuild of the inverse reorders rows.
            let r = self.pos[a];
            self.load_row(r);
            let entering = (0..self.sf.artificial)
                .find(|&j| self.pos[j] == NONBASIC && self.row_entry(j).abs() > EPS);
            if let Some(j) = entering {
                self.ftran(j);
                self.pivot(r, j);
                pivots += 1;
            }
        }
        pivots
    }

    /// Reads off the solution over the original variables: `x` from the
    /// basic values, duals `y = c_B·B⁻¹` undoing the row scaling.
    fn solution(
        &mut self,
        lp: &LinearProgram,
        phase1_pivots: usize,
        phase2_pivots: usize,
    ) -> Solution {
        self.compute_y();
        let n = self.sf.structural;
        let mut x = vec![0.0; n];
        for (&j, &xi) in self.head.iter().zip(&self.x) {
            if j < n {
                x[j] = xi;
            }
        }
        let objective = lp.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
        let duals = self
            .y
            .iter()
            .zip(&self.sf.sign)
            .map(|(y, s)| s * y)
            .collect();
        let pivots = phase1_pivots + phase2_pivots;
        gddr_telemetry::counter_add("lp.simplex.solves", 1);
        gddr_telemetry::counter_add("lp.simplex.pivots", pivots as u64);
        gddr_telemetry::histogram_record("lp.simplex.pivots_per_solve", pivots as f64);
        Solution {
            objective,
            x,
            duals,
            pivots,
            phase1_pivots,
            phase2_pivots,
        }
    }
}

/// The `m × m` identity, column-major.
fn identity(m: usize) -> Vec<f64> {
    let mut inv = vec![0.0; m * m];
    for i in 0..m {
        inv[i * m + i] = 1.0;
    }
    inv
}

/// The rank-one (Gauss–Jordan) update of a column-major inverse for a
/// pivot at row `r` with entering column `alpha`: row `r` is divided by
/// `alpha[r]` and eliminated from every other row. `rho` holds row `r`
/// before the update; columns where it is zero are left untouched.
fn eliminate(inv: &mut [f64], r: usize, alpha: &[f64], rho: &[f64]) {
    let ar = alpha[r];
    for (col, &p) in inv.chunks_exact_mut(alpha.len()).zip(rho) {
        if p == 0.0 {
            continue;
        }
        let p = p / ar;
        for (c, a) in col.iter_mut().zip(alpha) {
            *c -= a * p;
        }
        col[r] = p;
    }
}

/// Solves the linear program with default options.
///
/// Emits telemetry when enabled: an `lp.simplex.solve` span, the
/// `lp.simplex.pivots` counter and a `lp.simplex.pivots_per_solve`
/// histogram observation.
///
/// # Errors
///
/// Returns [`LpError::Infeasible`] or [`LpError::Unbounded`] as
/// appropriate; [`LpError::PivotLimit`] is a safety net that should
/// not occur in practice; [`LpError::InvalidInput`] flags a non-finite
/// objective.
pub fn solve(lp: &LinearProgram) -> Result<Solution, LpError> {
    solve_with(lp, &SolveOptions::default())
}

/// Solves the linear program under explicit [`SolveOptions`] — the
/// entry point of the oracle's retry ladder (Dantzig, then Bland from
/// the first pivot). Always a cold solve: the answer is a function of
/// the program alone.
///
/// # Errors
///
/// As [`solve`], plus [`LpError::PivotLimit`] whenever an explicit
/// `max_pivots` budget runs out.
pub fn solve_with(lp: &LinearProgram, opts: &SolveOptions) -> Result<Solution, LpError> {
    let _span = gddr_telemetry::span("lp.simplex.solve");
    check_objective(lp)?;
    cold(lp, opts).map(|(solution, _)| solution)
}

/// A solve's answer and how it was reached (see
/// [`WarmStart::solve`](crate::mcf::WarmStart::solve)).
#[derive(Debug, Clone)]
pub struct Resolved {
    /// The optimal solution.
    pub solution: Solution,
    /// `true` when it was re-solved from the kept basis, `false` when it
    /// was solved cold.
    pub warm: bool,
}

/// Solves `lp`, re-solving from `kept` when it holds a basis of a
/// program with the same `A` and `c`, and leaves the final optimal basis
/// in `kept` for the next call.
///
/// The warm path recomputes `x_B = B⁻¹·b` for the new right-hand side,
/// runs the dual simplex until `x_B ≥ 0`, then the primal simplex as a
/// cleanup. It falls back to a cold solve — counted in
/// `lp.simplex.cold_fallbacks` — when the basis does not fit `lp`, the
/// built-in pivot cap runs out, or the residual `‖B·x_B − b‖∞` fails
/// even after the inverse is rebuilt. An explicit
/// [`SolveOptions::max_pivots`] budget is honoured exactly as in
/// [`solve_with`]: `Some(0)` fails before any pivot, even when the kept
/// basis is already optimal. Warm answers are counted in
/// `lp.simplex.warm_solves`.
///
/// # Errors
///
/// As [`solve_with`].
pub(crate) fn resolve(
    lp: &LinearProgram,
    opts: &SolveOptions,
    kept: &mut Option<Basis>,
) -> Result<Resolved, LpError> {
    let _span = gddr_telemetry::span("lp.simplex.solve");
    check_objective(lp)?;
    if let Some(basis) = kept.take() {
        let sf = (basis.sign.len() == lp.constraints.len())
            .then(|| Standard::new(lp, Some(&basis.sign)))
            .filter(|sf| sf.cols == basis.cols);
        if let Some(sf) = &sf {
            let mut rs = Revised::warm(sf, basis);
            match rs.reoptimise(opts) {
                Ok(pivots) => {
                    let solution = rs.solution(lp, 0, pivots);
                    *kept = rs.into_basis();
                    gddr_telemetry::counter_add("lp.simplex.warm_solves", 1);
                    return Ok(Resolved {
                        solution,
                        warm: true,
                    });
                }
                Err(WarmStop::Budget(e)) => {
                    *kept = rs.into_basis();
                    return Err(e);
                }
                Err(WarmStop::Cold) => {}
            }
        }
        gddr_telemetry::counter_add("lp.simplex.cold_fallbacks", 1);
    }
    let (solution, basis) = cold(lp, opts)?;
    *kept = basis;
    Ok(Resolved {
        solution,
        warm: false,
    })
}

/// Why a warm re-solve stopped short of an answer.
enum WarmStop {
    /// The explicit pivot budget ran out: the caller's answer.
    Budget(LpError),
    /// Anything else: solve cold instead.
    Cold,
}

impl Revised<'_> {
    /// The warm path of `resolve`: residual check, dual simplex, primal
    /// cleanup, and one rebuild-and-retry if the final residual fails.
    /// Returns the pivots taken.
    fn reoptimise(&mut self, opts: &SolveOptions) -> Result<usize, WarmStop> {
        let usable = self.residual_ok() || (self.refactor() && self.residual_ok());
        if !usable {
            return Err(WarmStop::Cold);
        }
        let sf = self.sf;
        self.set_cost(&sf.cost);
        let limit = sf.artificial;
        let budget = |spent: usize| opts.max_pivots.map(|m| m.saturating_sub(spent));
        let stop = |spent: usize| {
            move |e: LpError| match e {
                LpError::PivotLimit { .. } if opts.max_pivots.is_some() => {
                    WarmStop::Budget(after(spent, e))
                }
                _ => WarmStop::Cold,
            }
        };
        let mut pivots = 0;
        for _ in 0..2 {
            pivots += self.dual(limit, budget(pivots)).map_err(stop(pivots))?;
            pivots += self
                .primal(limit, opts.bland_from_start, budget(pivots))
                .map_err(stop(pivots))?;
            if self.residual_ok() {
                return Ok(pivots);
            }
            if !self.refactor() {
                break;
            }
        }
        Err(WarmStop::Cold)
    }
}

/// `e`, with the pivot count of a [`LpError::PivotLimit`] raised by the
/// `spent` pivots taken before the failing run.
fn after(spent: usize, e: LpError) -> LpError {
    match e {
        LpError::PivotLimit { pivots } => LpError::PivotLimit {
            pivots: pivots + spent,
        },
        other => other,
    }
}

fn check_objective(lp: &LinearProgram) -> Result<(), LpError> {
    match lp.objective.iter().find(|c| !c.is_finite()) {
        Some(bad) => Err(LpError::InvalidInput(format!(
            "non-finite objective coefficient {bad}"
        ))),
        None => Ok(()),
    }
}

/// The two-phase cold solve from the slack/artificial basis; also
/// returns the final basis when it can be kept.
fn cold(lp: &LinearProgram, opts: &SolveOptions) -> Result<(Solution, Option<Basis>), LpError> {
    let sf = Standard::new(lp, None);
    let mut rs = Revised::cold(&sf);

    // Phase 1: minimise the sum of artificials.
    let mut phase1_pivots = 0;
    if sf.artificial < sf.cols {
        let mut cost = vec![0.0; sf.cols];
        cost[sf.artificial..].fill(1.0);
        rs.set_cost(&cost);
        phase1_pivots += rs.primal(sf.cols, opts.bland_from_start, opts.max_pivots)?;
        let infeasibility: f64 = rs
            .head
            .iter()
            .zip(&rs.x)
            .filter(|&(&j, _)| j >= sf.artificial)
            .map(|(_, &xi)| xi)
            .sum();
        if infeasibility > PHASE1_TOL {
            return Err(LpError::Infeasible);
        }
        phase1_pivots += rs.drive_out_artificials();
    }

    // Phase 2: the real objective, artificials barred from entering. A
    // failed final residual rebuilds the inverse and re-checks
    // optimality once.
    rs.set_cost(&sf.cost);
    let budget = |spent: usize| opts.max_pivots.map(|m| m.saturating_sub(spent));
    let mut phase2_pivots = rs
        .primal(sf.artificial, opts.bland_from_start, budget(phase1_pivots))
        .map_err(|e| after(phase1_pivots, e))?;
    if !rs.residual_ok() && rs.refactor() {
        let spent = phase1_pivots + phase2_pivots;
        phase2_pivots += rs
            .primal(sf.artificial, opts.bland_from_start, budget(spent))
            .map_err(|e| after(spent, e))?;
    }
    let solution = rs.solution(lp, phase1_pivots, phase2_pivots);
    Ok((solution, rs.into_basis()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} != {b}");
    }

    #[test]
    fn simple_maximisation() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic).
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[-3.0, -5.0]);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, -36.0);
        assert_close(sol.x[0], 2.0);
        assert_close(sol.x[1], 6.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + 2y s.t. x + y = 10, x - y = 2 → x=6, y=4.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[1.0, 2.0]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 10.0);
        lp.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Eq, 2.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.x[0], 6.0);
        assert_close(sol.x[1], 4.0);
        assert_close(sol.objective, 14.0);
    }

    #[test]
    fn ge_constraints() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1 → x=4 (y=0) cost 8? No:
        // cost(4,0)=8, cost(1,3)=11 → optimum x=4,y=0.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[2.0, 3.0]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 4.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 1.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, 8.0);
        assert_close(sol.x[0], 4.0);
    }

    #[test]
    fn pivot_counts_are_recorded_and_bounded() {
        // The classic 3-constraint max problem: a textbook run takes a
        // handful of pivots; the recorded counts must reflect that and
        // agree across fields.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[-3.0, -5.0]);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.pivots, sol.phase1_pivots + sol.phase2_pivots);
        // All-Le rows start from a feasible slack basis: no phase 1.
        assert_eq!(sol.phase1_pivots, 0);
        assert!(sol.phase2_pivots > 0, "a pivot is needed to improve");
        assert!(
            sol.pivots <= 10,
            "small LP should solve in few pivots, took {}",
            sol.pivots
        );
    }

    #[test]
    fn equality_constraints_report_phase1_effort() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[1.0, 2.0]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 10.0);
        lp.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Eq, 2.0);
        let sol = solve(&lp).unwrap();
        assert!(sol.phase1_pivots > 0, "artificials must be pivoted out");
        assert!(sol.pivots <= 20, "took {}", sol.pivots);
    }

    #[test]
    fn detects_infeasibility() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(&[1.0]);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 2.0);
        assert!(matches!(solve(&lp), Err(LpError::Infeasible)));
    }

    #[test]
    fn detects_unboundedness() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(&[-1.0]); // max x with no upper bound.
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 0.0);
        assert!(matches!(solve(&lp), Err(LpError::Unbounded)));
    }

    #[test]
    fn negative_rhs_is_normalised() {
        // x >= 2 written as -x <= -2.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(&[1.0]);
        lp.add_constraint(&[(0, -1.0)], Relation::Le, -2.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.x[0], 2.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Klee-Minty-style degeneracy magnet; mostly checks we do not
        // cycle forever.
        let n = 6;
        let mut lp = LinearProgram::new(n);
        let obj: Vec<f64> = (0..n).map(|i| -(2f64.powi((n - 1 - i) as i32))).collect();
        lp.set_objective(&obj);
        for i in 0..n {
            let mut terms: Vec<(usize, f64)> =
                (0..i).map(|j| (j, 2f64.powi((i - j + 1) as i32))).collect();
            terms.push((i, 1.0));
            lp.add_constraint(&terms, Relation::Le, 5f64.powi(i as i32 + 1));
        }
        let sol = solve(&lp).unwrap();
        assert!(sol.objective.is_finite());
    }

    #[test]
    fn zero_objective_feasibility_check() {
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 5.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.x[0] + sol.x[1], 5.0);
    }

    #[test]
    fn redundant_equalities() {
        // x + y = 4 twice (redundant) plus x - y = 0 → x = y = 2.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[1.0, 1.0]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 4.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 4.0);
        lp.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Eq, 0.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.x[0], 2.0);
        assert_close(sol.x[1], 2.0);
    }

    #[test]
    fn bland_from_start_agrees_with_dantzig() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[-3.0, -5.0]);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        let dantzig = solve(&lp).unwrap();
        let bland = solve_with(
            &lp,
            &SolveOptions {
                bland_from_start: true,
                max_pivots: None,
            },
        )
        .unwrap();
        assert_close(dantzig.objective, bland.objective);
    }

    #[test]
    fn zero_pivot_budget_forces_pivot_limit() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[-3.0, -5.0]);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
        let err = solve_with(
            &lp,
            &SolveOptions {
                bland_from_start: false,
                max_pivots: Some(0),
            },
        )
        .unwrap_err();
        assert_eq!(err, LpError::PivotLimit { pivots: 0 });
    }

    #[test]
    fn nonfinite_objective_is_invalid_input() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(&[f64::NAN]);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 1.0);
        assert!(matches!(solve(&lp), Err(LpError::InvalidInput(_))));
    }

    /// Deterministic seeded stress on degenerate, cycling-prone
    /// programs: duplicated constraint rows, zero-cost columns and
    /// zero right-hand sides. The contract is termination with `Ok` or
    /// a typed error — never a panic, never a hang.
    #[test]
    fn degenerate_stress_terminates_without_panicking() {
        use gddr_rng::rngs::StdRng;
        use gddr_rng::{Rng, SeedableRng};
        for seed in 0..100u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..6usize);
            let mut lp = LinearProgram::new(n);
            // Zero-cost columns: roughly half the objective is zero.
            let obj: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.gen_range(0u8..2) == 0 {
                        0.0
                    } else {
                        rng.gen_range(-2.0..2.0)
                    }
                })
                .collect();
            lp.set_objective(&obj);
            let n_rows = rng.gen_range(1..4usize);
            for _ in 0..n_rows {
                let coeffs: Vec<(usize, f64)> =
                    (0..n).map(|i| (i, rng.gen_range(-2.0..2.0))).collect();
                let rel = match rng.gen_range(0u8..3) {
                    0 => Relation::Le,
                    1 => Relation::Ge,
                    _ => Relation::Eq,
                };
                // Degenerate RHS: zero half the time.
                let rhs = if rng.gen_range(0u8..2) == 0 {
                    0.0
                } else {
                    rng.gen_range(-3.0..3.0)
                };
                // Duplicate every row — the classic degeneracy magnet.
                lp.add_constraint(&coeffs, rel, rhs);
                lp.add_constraint(&coeffs, rel, rhs);
            }
            // Box the variables so Ok solutions are bounded.
            for i in 0..n {
                lp.add_constraint(&[(i, 1.0)], Relation::Le, 10.0);
            }
            for opts in [
                SolveOptions::default(),
                SolveOptions {
                    bland_from_start: true,
                    max_pivots: None,
                },
            ] {
                match solve_with(&lp, &opts) {
                    Ok(sol) => {
                        assert!(
                            sol.objective.is_finite(),
                            "seed {seed}: non-finite objective"
                        );
                        assert!(sol.x.iter().all(|v| v.is_finite()));
                    }
                    Err(
                        LpError::Infeasible
                        | LpError::Unbounded
                        | LpError::PivotLimit { .. }
                        | LpError::InvalidInput(_),
                    ) => {}
                }
            }
        }
    }

    /// Randomised solver audit, formerly proptest-based; now a
    /// deterministic seeded loop over `gddr-rng` draws.
    mod property {
        use super::*;
        use gddr_rng::rngs::StdRng;
        use gddr_rng::{Rng, SeedableRng};

        /// Builds a random LP that is feasible by construction: draw a
        /// witness `x0 ≥ 0`, random constraint rows, and set each RHS
        /// so `x0` satisfies the row.
        fn feasible_lp(x0: &[f64], rows: &[(Vec<f64>, u8)], objective: &[f64]) -> LinearProgram {
            let n = x0.len();
            let mut lp = LinearProgram::new(n);
            lp.set_objective(objective);
            for (coeffs, kind) in rows {
                let lhs: f64 = coeffs.iter().zip(x0).map(|(c, x)| c * x).sum();
                let terms: Vec<(usize, f64)> =
                    coeffs.iter().enumerate().map(|(i, &c)| (i, c)).collect();
                match kind % 3 {
                    0 => lp.add_constraint(&terms, Relation::Le, lhs + 1.0),
                    1 => lp.add_constraint(&terms, Relation::Ge, lhs - 1.0),
                    _ => lp.add_constraint(&terms, Relation::Eq, lhs),
                }
            }
            lp
        }

        /// On feasible bounded problems the solver returns a point
        /// that satisfies every constraint and whose objective is
        /// no worse than the witness's.
        #[test]
        fn solver_beats_witness_on_feasible_lps() {
            for seed in 0..64u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let n = rng.gen_range(2..5usize);
                let x0: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..5.0)).collect();
                let n_rows = rng.gen_range(1..5usize);
                let rows: Vec<(Vec<f64>, u8)> = (0..n_rows)
                    .map(|_| {
                        let c: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
                        (c, rng.gen_range(0u8..3))
                    })
                    .collect();
                let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
                // Bound the feasible region so the LP cannot be
                // unbounded: x_i <= 10.
                let mut lp = feasible_lp(&x0, &rows, &obj);
                for i in 0..n {
                    lp.add_constraint(&[(i, 1.0)], Relation::Le, 10.0);
                }
                let sol = solve(&lp).expect("constructed LP is feasible");
                // Feasibility of the returned point.
                assert!(sol.x.iter().all(|&v| v >= -1e-7));
                for (coeffs, kind) in &rows {
                    let witness: f64 = coeffs.iter().zip(&x0).map(|(c, x)| c * x).sum();
                    let lhs: f64 = coeffs.iter().zip(&sol.x).map(|(c, x)| c * x).sum();
                    match kind % 3 {
                        0 => assert!(lhs <= witness + 1.0 + 1e-6),
                        1 => assert!(lhs >= witness - 1.0 - 1e-6),
                        _ => assert!((lhs - witness).abs() < 1e-6),
                    }
                }
                // Optimality relative to the witness (x0 may violate the
                // x <= 10 box only if drawn above it, which it is not).
                let witness_obj: f64 = obj.iter().zip(&x0).map(|(c, x)| c * x).sum();
                assert!(sol.objective <= witness_obj + 1e-6);
            }
        }
    }

    #[test]
    fn duals_certify_the_classic_maximisation() {
        // max 3x + 5y (min −3x − 5y): known shadow prices for the max
        // problem are (0, 3/2, 1); the min formulation negates them.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[-3.0, -5.0]);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.duals.len(), 3);
        assert_close(sol.duals[0], 0.0);
        assert_close(sol.duals[1], -1.5);
        assert_close(sol.duals[2], -1.0);
        // Strong duality: bᵀy = cᵀx.
        let dual_obj = 4.0 * sol.duals[0] + 12.0 * sol.duals[1] + 18.0 * sol.duals[2];
        assert_close(dual_obj, sol.objective);
    }

    #[test]
    fn duals_satisfy_strong_duality_on_seeded_feasible_lps() {
        use gddr_rng::rngs::StdRng;
        use gddr_rng::{Rng, SeedableRng};
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..5usize);
            let x0: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..5.0)).collect();
            let mut lp = LinearProgram::new(n);
            let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            lp.set_objective(&obj);
            for _ in 0..rng.gen_range(1..5usize) {
                let coeffs: Vec<(usize, f64)> =
                    (0..n).map(|i| (i, rng.gen_range(-3.0..3.0))).collect();
                let lhs: f64 = coeffs.iter().map(|&(i, c)| c * x0[i]).sum();
                match rng.gen_range(0u8..3) {
                    0 => lp.add_constraint(&coeffs, Relation::Le, lhs + 1.0),
                    1 => lp.add_constraint(&coeffs, Relation::Ge, lhs - 1.0),
                    _ => lp.add_constraint(&coeffs, Relation::Eq, lhs),
                }
            }
            for i in 0..n {
                lp.add_constraint(&[(i, 1.0)], Relation::Le, 10.0);
            }
            let sol = solve(&lp).expect("constructed LP is feasible");
            // Dual sign conventions per relation.
            let mut dual_obj = 0.0;
            let mut at_y = vec![0.0; n];
            for (r, (terms, rel, rhs)) in lp.constraints().enumerate() {
                let y = sol.duals[r];
                assert!(y.is_finite(), "seed {seed}: non-finite dual");
                match rel {
                    Relation::Le => assert!(y <= 1e-7, "seed {seed}: Le dual {y} > 0"),
                    Relation::Ge => assert!(y >= -1e-7, "seed {seed}: Ge dual {y} < 0"),
                    Relation::Eq => {}
                }
                dual_obj += y * rhs;
                for &(v, c) in terms {
                    at_y[v] += c * y;
                }
            }
            // Dual feasibility: reduced costs c − Aᵀy ≥ 0.
            for j in 0..n {
                assert!(
                    obj[j] - at_y[j] >= -1e-6,
                    "seed {seed}: negative reduced cost on x{j}"
                );
            }
            // Strong duality.
            assert!(
                (dual_obj - sol.objective).abs() <= 1e-6 * (1.0 + sol.objective.abs()),
                "seed {seed}: duality gap {} vs {}",
                dual_obj,
                sol.objective
            );
        }
    }

    #[test]
    fn solution_respects_constraints() {
        // Randomised feasibility audit on a fixed seedless grid.
        let mut lp = LinearProgram::new(3);
        lp.set_objective(&[1.0, -2.0, 0.5]);
        lp.add_constraint(&[(0, 1.0), (1, 2.0), (2, 1.0)], Relation::Le, 10.0);
        lp.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Ge, -3.0);
        lp.add_constraint(&[(2, 1.0)], Relation::Le, 4.0);
        let sol = solve(&lp).unwrap();
        let x = &sol.x;
        assert!(x[0] + 2.0 * x[1] + x[2] <= 10.0 + 1e-7);
        assert!(x[0] - x[1] >= -3.0 - 1e-7);
        assert!(x[2] <= 4.0 + 1e-7);
        assert!(x.iter().all(|&v| v >= -1e-9));
        // Optimum: push y as high as possible: y bounded by
        // x - y >= -3 with x >= 0 ... y <= x + 3; and x + 2y <= 10.
        // Best at x=0.8? Solve: maximise 2y - x: x=0.8,y=3.8? check:
        // x+2y = 0.8+7.6 = 8.4 <10 → could raise y more: y <= x+3 and
        // x+2y<=10 → x + 2(x+3) <= 10 → x <= 4/3 → y = 13/3.
        assert_close(sol.objective, 4.0 / 3.0 - 2.0 * (13.0 / 3.0));
    }

    /// `min Σ cᵢxᵢ` over `x ≤ 10` boxes and covering rows `Σ aᵢxᵢ ≥ rhs`:
    /// one `A` and `c`, with the right-hand side drawn from `rng`.
    fn covering_lp(
        rng: &mut gddr_rng::rngs::StdRng,
        rows: &[Vec<f64>],
        cost: &[f64],
    ) -> LinearProgram {
        use gddr_rng::Rng;
        let n = cost.len();
        let mut lp = LinearProgram::new(n);
        lp.set_objective(cost);
        for coeffs in rows {
            let terms: Vec<(usize, f64)> = coeffs.iter().copied().enumerate().collect();
            lp.add_constraint(&terms, Relation::Ge, rng.gen_range(1.0..8.0));
        }
        for i in 0..n {
            lp.add_constraint(&[(i, 1.0)], Relation::Le, 10.0);
        }
        lp
    }

    #[test]
    fn resolve_from_a_kept_basis_matches_cold_solves() {
        use gddr_rng::rngs::StdRng;
        use gddr_rng::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let n = 5;
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..n).map(|_| rng.gen_range(0.1..2.0)).collect())
            .collect();
        let cost: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..3.0)).collect();
        let mut kept = None;
        let mut warm = 0;
        let mut warm_pivots = 0;
        // 9 rows: the inverse is rebuilt every 9 pivots, many times over.
        for step in 0..200 {
            let lp = covering_lp(&mut rng, &rows, &cost);
            let cold = solve(&lp).unwrap();
            let r = resolve(&lp, &SolveOptions::default(), &mut kept).unwrap();
            assert_eq!(r.warm, step > 0, "step {step}");
            assert!(
                kept.is_some(),
                "an optimal basis without artificials is kept"
            );
            let gap = (r.solution.objective - cold.objective).abs();
            assert!(gap <= 1e-9 * cold.objective.abs(), "step {step}: {gap}");
            // Strong duality under the usual sign conventions.
            let by: f64 = lp
                .constraints()
                .zip(&r.solution.duals)
                .map(|((_, _, b), y)| b * y)
                .sum();
            assert!((by - r.solution.objective).abs() <= 1e-9 * (1.0 + by.abs()));
            if r.warm {
                assert_eq!(
                    r.solution.phase1_pivots, 0,
                    "a warm re-solve has no phase 1"
                );
                warm += 1;
                warm_pivots += r.solution.pivots;
            }
        }
        assert_eq!(warm, 199);
        assert!(warm_pivots > 9, "the chain must outlast several rebuilds");
    }

    #[test]
    fn zero_budget_fails_a_warm_resolve_even_at_the_optimum() {
        use gddr_rng::rngs::StdRng;
        use gddr_rng::SeedableRng;
        let mut rng = StdRng::seed_from_u64(22);
        let rows = vec![vec![1.0, 2.0, 0.5], vec![0.3, 1.0, 1.5]];
        let lp = covering_lp(&mut rng, &rows, &[1.0, 2.0, 1.5]);
        let mut kept = None;
        let first = resolve(&lp, &SolveOptions::default(), &mut kept).unwrap();
        let zero = SolveOptions {
            bland_from_start: false,
            max_pivots: Some(0),
        };
        // The kept basis is optimal for the same program, yet a zero
        // budget still fails before any pivot, and keeps the basis.
        let err = resolve(&lp, &zero, &mut kept).unwrap_err();
        assert_eq!(err, LpError::PivotLimit { pivots: 0 });
        assert!(kept.is_some());
        let again = resolve(&lp, &SolveOptions::default(), &mut kept).unwrap();
        assert!(again.warm);
        assert_eq!(again.solution.pivots, 0);
        assert_close(again.solution.objective, first.solution.objective);
    }

    #[test]
    fn resolve_solves_cold_when_the_kept_basis_does_not_fit() {
        use gddr_rng::rngs::StdRng;
        use gddr_rng::SeedableRng;
        let mut rng = StdRng::seed_from_u64(23);
        let small = covering_lp(&mut rng, &[vec![1.0, 1.0]], &[1.0, 2.0]);
        let big = covering_lp(&mut rng, &[vec![1.0, 1.0], vec![2.0, 0.5]], &[1.0, 2.0]);
        let mut kept = None;
        resolve(&small, &SolveOptions::default(), &mut kept).unwrap();
        let r = resolve(&big, &SolveOptions::default(), &mut kept).unwrap();
        assert!(!r.warm, "a different row count is a change of shape");
        assert_close(r.solution.objective, solve(&big).unwrap().objective);
    }

    #[test]
    fn resolve_stays_correct_when_the_matrix_changes_under_the_basis() {
        // Misuse: same shape, different coefficients. The rebuilt
        // inverse and the primal cleanup still reach the true optimum.
        use gddr_rng::rngs::StdRng;
        use gddr_rng::SeedableRng;
        let mut rng = StdRng::seed_from_u64(24);
        let a = covering_lp(&mut rng, &[vec![1.0, 1.0, 1.0]], &[1.0, 2.0, 3.0]);
        let b = covering_lp(&mut rng, &[vec![3.0, 0.2, 1.0]], &[3.0, 1.0, 2.0]);
        let mut kept = None;
        resolve(&a, &SolveOptions::default(), &mut kept).unwrap();
        let r = resolve(&b, &SolveOptions::default(), &mut kept).unwrap();
        assert_close(r.solution.objective, solve(&b).unwrap().objective);
    }

    #[test]
    fn programs_without_constraints_solve() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[1.0, 0.0]);
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.x, vec![0.0, 0.0]);
        assert!(sol.duals.is_empty());
        lp.set_objective(&[1.0, -1.0]);
        assert_eq!(solve(&lp).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn redundant_rows_keep_no_basis() {
        // The redundant row keeps an artificial basic: nothing to reuse.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[1.0, 1.0]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 4.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 4.0);
        let mut kept = None;
        let r = resolve(&lp, &SolveOptions::default(), &mut kept).unwrap();
        assert_close(r.solution.objective, 4.0);
        assert!(kept.is_none());
    }
}
