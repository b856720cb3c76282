//! Optimality certificates for simplex solutions.
//!
//! A [`Solution`] is not trusted on the solver's say-so: given the
//! original [`LinearProgram`] (`min cᵀx, x ≥ 0`) and the reported
//! primal/dual pair, this module re-derives optimality from first
//! principles — primal feasibility, dual feasibility (sign conventions
//! and non-negative reduced costs), complementary slackness, and a
//! duality gap within tolerance. Together these imply optimality
//! without ever inspecting the solver's basis or its inverse.

use gddr_lp::{LinearProgram, Relation, Solution};

use crate::invariants::Violation;

/// Default certificate tolerance. Scaled by problem magnitude where
/// appropriate (see the per-check comments).
pub const DEFAULT_TOL: f64 = 1e-6;

/// Verifies the full optimality certificate of `sol` for `lp`.
///
/// Checks, each contributing violations independently:
/// 1. `x ≥ 0` and every constraint row satisfied (primal feasibility),
/// 2. dual signs: `y ≤ 0` on `≤` rows, `y ≥ 0` on `≥` rows, free on
///    `=` rows,
/// 3. reduced costs `c − Aᵀy ≥ 0` (dual feasibility),
/// 4. complementary slackness: `y_i · (a_iᵀx − b_i) ≈ 0`,
/// 5. duality gap `|cᵀx − bᵀy| ≤ tol · (1 + |cᵀx|)` and agreement of
///    `sol.objective` with `cᵀx`.
pub fn check_certificate(lp: &LinearProgram, sol: &Solution, tol: f64) -> Vec<Violation> {
    let mut out = Vec::new();
    let n = lp.num_vars();
    let c = lp.objective();
    if sol.x.len() != n {
        out.push(Violation::new(
            "lp.shape",
            format!("solution has {} vars, program {}", sol.x.len(), n),
        ));
        return out;
    }
    if sol.duals.len() != lp.num_constraints() {
        out.push(Violation::new(
            "lp.shape",
            format!(
                "solution has {} duals, program {} constraints",
                sol.duals.len(),
                lp.num_constraints()
            ),
        ));
        return out;
    }
    for (j, &v) in sol.x.iter().enumerate() {
        if !v.is_finite() {
            out.push(Violation::new("lp.primal_finite", format!("x{j} = {v}")));
        } else if v < -tol {
            out.push(Violation::new("lp.primal_nonneg", format!("x{j} = {v}")));
        }
    }
    if !out.is_empty() {
        return out;
    }

    let cx: f64 = c.iter().zip(&sol.x).map(|(c, x)| c * x).sum();
    if (cx - sol.objective).abs() > tol * (1.0 + cx.abs()) {
        out.push(Violation::new(
            "lp.objective_agrees",
            format!("cᵀx = {cx} but solution reports {}", sol.objective),
        ));
    }

    let mut by = 0.0;
    let mut at_y = vec![0.0; n];
    for (r, (terms, rel, rhs)) in lp.constraints().enumerate() {
        let lhs: f64 = terms.iter().map(|&(v, coeff)| coeff * sol.x[v]).sum();
        // Tolerance scaled by row magnitude so large-capacity MCF rows
        // are not penalised for honest floating-point error.
        let scale = 1.0 + lhs.abs().max(rhs.abs());
        match rel {
            Relation::Le if lhs > rhs + tol * scale => {
                out.push(Violation::new(
                    "lp.primal_feasible",
                    format!("row {r}: {lhs} > {rhs}"),
                ));
            }
            Relation::Ge if lhs < rhs - tol * scale => {
                out.push(Violation::new(
                    "lp.primal_feasible",
                    format!("row {r}: {lhs} < {rhs}"),
                ));
            }
            Relation::Eq if (lhs - rhs).abs() > tol * scale => {
                out.push(Violation::new(
                    "lp.primal_feasible",
                    format!("row {r}: {lhs} != {rhs}"),
                ));
            }
            _ => {}
        }
        let y = sol.duals[r];
        if !y.is_finite() {
            out.push(Violation::new("lp.dual_finite", format!("y{r} = {y}")));
            continue;
        }
        match rel {
            Relation::Le if y > tol => {
                out.push(Violation::new(
                    "lp.dual_sign",
                    format!("row {r} is ≤ but y{r} = {y} > 0"),
                ));
            }
            Relation::Ge if y < -tol => {
                out.push(Violation::new(
                    "lp.dual_sign",
                    format!("row {r} is ≥ but y{r} = {y} < 0"),
                ));
            }
            _ => {}
        }
        // Complementary slackness: an inactive row must carry no dual.
        let slack = lhs - rhs;
        if y.abs() * slack.abs() > tol * scale * (1.0 + y.abs()) {
            out.push(Violation::new(
                "lp.complementary_slackness",
                format!("row {r}: y = {y} with slack {slack}"),
            ));
        }
        by += y * rhs;
        for &(v, coeff) in terms {
            at_y[v] += coeff * y;
        }
    }

    // Dual feasibility: reduced costs must be non-negative for the
    // minimisation dual; and slack variables with positive value must
    // have zero reduced cost (covered by complementary slackness).
    for j in 0..n {
        let reduced = c[j] - at_y[j];
        let scale = 1.0 + c[j].abs().max(at_y[j].abs());
        if reduced < -tol * scale {
            out.push(Violation::new(
                "lp.reduced_cost",
                format!("x{j}: c − Aᵀy = {reduced} < 0"),
            ));
        }
        // Complementary slackness on variables: x_j > 0 ⇒ reduced = 0.
        if sol.x[j] > tol && reduced.abs() > tol * scale * (1.0 + sol.x[j]) {
            out.push(Violation::new(
                "lp.complementary_slackness",
                format!("x{j} = {} with reduced cost {reduced}", sol.x[j]),
            ));
        }
    }

    if (cx - by).abs() > tol * (1.0 + cx.abs()) {
        out.push(Violation::new(
            "lp.duality_gap",
            format!("cᵀx = {cx} vs bᵀy = {by}"),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gddr_lp::simplex::solve;

    fn classic() -> LinearProgram {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[-3.0, -5.0]);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        lp
    }

    #[test]
    fn certifies_a_correct_solution() {
        let lp = classic();
        let sol = solve(&lp).unwrap();
        assert_eq!(check_certificate(&lp, &sol, DEFAULT_TOL), Vec::new());
    }

    #[test]
    fn rejects_a_tampered_solution() {
        let lp = classic();
        let mut sol = solve(&lp).unwrap();
        // Claim a better objective than the optimum: the gap check and
        // objective-agreement check must both notice.
        sol.objective -= 1.0;
        let v = check_certificate(&lp, &sol, DEFAULT_TOL);
        assert!(v.iter().any(|v| v.check == "lp.objective_agrees"));

        // An infeasible primal point.
        let mut sol = solve(&lp).unwrap();
        sol.x[0] = 100.0;
        let v = check_certificate(&lp, &sol, DEFAULT_TOL);
        assert!(v.iter().any(|v| v.check == "lp.primal_feasible"));

        // A dual with the wrong sign.
        let mut sol = solve(&lp).unwrap();
        sol.duals[1] = 1.0;
        let v = check_certificate(&lp, &sol, DEFAULT_TOL);
        assert!(v.iter().any(|v| v.check == "lp.dual_sign"));

        // A non-finite dual.
        let mut sol = solve(&lp).unwrap();
        sol.duals[0] = f64::NAN;
        let v = check_certificate(&lp, &sol, DEFAULT_TOL);
        assert!(v.iter().any(|v| v.check == "lp.dual_finite"));
    }

    #[test]
    fn certifies_mixed_relation_programs() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[1.0, 2.0]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 10.0);
        lp.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Ge, 2.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 9.0);
        let sol = solve(&lp).unwrap();
        assert_eq!(check_certificate(&lp, &sol, DEFAULT_TOL), Vec::new());
    }
}

/// The oracle's warm path — [`gddr_lp::CachedOracle::u_opt_checked`]
/// re-solving each matrix from the basis kept by the one before — held
/// to the bar of a cold solve: the same optimum within 1e-9 relative,
/// and a certificate for every solution.
#[cfg(test)]
mod warm_tests {
    use super::*;
    use gddr_lp::mcf::{min_max_utilisation, WarmStart};
    use gddr_lp::{CachedOracle, LpError, SolveOptions};
    use gddr_net::topology::zoo;
    use gddr_net::Graph;
    use gddr_rng::rngs::StdRng;
    use gddr_rng::SeedableRng;
    use gddr_traffic::{sequence, DemandMatrix};

    /// The matrix with no demand towards node 1: a smaller destination
    /// set, so it and the matrix after it are solved cold.
    const HOLE: usize = 51;

    /// 13 diurnal blocks of 8 matrices, each block on a fresh gravity
    /// base, with matrix [`HOLE`] stripped of its demand towards node 1.
    fn chain(g: &Graph, seed: u64) -> Vec<DemandMatrix> {
        let n = g.num_nodes();
        let total = 500.0 * (n * (n - 1)) as f64;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out: Vec<DemandMatrix> = (0..13)
            .flat_map(|_| sequence::diurnal(n, 8, 24, 0.5, total, &mut rng))
            .collect();
        let full = &out[HOLE];
        out[HOLE] = DemandMatrix::from_fn(n, |s, t| if t == 1 { 0.0 } else { full.get(s, t) });
        out
    }

    #[test]
    fn warm_lookups_match_cold_solves_and_certify() {
        let opts = SolveOptions::default();
        for g in [zoo::cesnet(), zoo::abilene(), zoo::nsfnet()] {
            let name = g.name().to_string();
            let oracle = CachedOracle::new(g.clone());
            // Takes the oracle's exact path, and shows its solutions.
            let mut mirror = WarmStart::default();
            let (mut run, mut longest, mut rows) = (0, 0, 0);
            for (i, dm) in chain(&g, 40).iter().enumerate() {
                let u = oracle.u_opt_checked(dm).unwrap();
                let (lp, r) = mirror.solve(&g, dm, &opts).unwrap();
                assert_eq!(r.solution.x.last().unwrap().to_bits(), u.to_bits());
                let cold = min_max_utilisation(&g, dm).unwrap().u_max;
                assert!(
                    (u - cold).abs() <= 1e-9 * cold,
                    "{name} matrix {i}: warm {u:?} vs cold {cold:?}"
                );
                let violations = check_certificate(&lp, &r.solution, DEFAULT_TOL);
                assert!(violations.is_empty(), "{name} matrix {i}: {violations:?}");
                let cold_expected = i == 0 || i == HOLE || i == HOLE + 1;
                assert_eq!(r.warm, !cold_expected, "{name} matrix {i}");
                if r.warm {
                    run += r.solution.pivots;
                    longest = longest.max(run);
                } else {
                    run = 0;
                    rows = rows.max(lp.num_constraints());
                }
            }
            // The inverse is rebuilt every `rows` pivots of one basis.
            assert!(
                longest >= rows,
                "{name}: the longest warm run took {longest} pivots, short of {rows}"
            );
            assert_eq!(oracle.stats().misses, 104);
        }
    }

    #[test]
    fn injected_pivot_limit_fails_warm_lookups() {
        let g = zoo::abilene();
        let chain = chain(&g, 41);
        let oracle = CachedOracle::new(g.clone());
        let mut mirror = WarmStart::default();
        let zero = SolveOptions {
            bland_from_start: false,
            max_pivots: Some(0),
        };
        for dm in &chain[..2] {
            oracle.u_opt_checked(dm).unwrap();
            mirror.solve(&g, dm, &SolveOptions::default()).unwrap();
        }
        // The same traffic, scaled: the kept basis is already optimal.
        let scaled = chain[1].scaled(1.5);
        for dm in [&chain[2], &scaled] {
            oracle.inject_pivot_limit(1);
            assert!(matches!(
                oracle.u_opt_checked(dm),
                Err(LpError::PivotLimit { pivots: 0 })
            ));
            assert!(mirror.solve(&g, dm, &zero).is_err());
        }
        let (_, r) = mirror.solve(&g, &scaled, &SolveOptions::default()).unwrap();
        assert!(r.warm);
        assert_eq!(r.solution.pivots, 0, "the kept basis was already optimal");
        let u = oracle.u_opt_checked(&scaled).unwrap();
        assert_eq!(u.to_bits(), r.solution.x.last().unwrap().to_bits());
    }

    #[test]
    fn cold_lookups_are_unchanged_by_a_warm_chain() {
        let g = zoo::abilene();
        let chain = chain(&g, 42);
        let served = CachedOracle::new(g.clone());
        for dm in &chain[..48] {
            served.u_opt_checked(dm).unwrap();
        }
        // Matrices the chain looked up warm, and ones it never saw.
        for (i, dm) in chain[40..56].iter().enumerate() {
            let fresh = CachedOracle::new(g.clone());
            if i % 2 == 0 {
                let (a, b) = (served.u_opt(dm).unwrap(), fresh.u_opt(dm).unwrap());
                assert_eq!(a.to_bits(), b.to_bits(), "u_opt, matrix {}", 40 + i);
            } else {
                let a = served.u_opt_resilient(dm).unwrap();
                let b = fresh.u_opt_resilient(dm).unwrap();
                assert_eq!(
                    a.u_opt.to_bits(),
                    b.u_opt.to_bits(),
                    "resilient, matrix {}",
                    40 + i
                );
                assert!(!a.degraded);
            }
        }
    }
}
