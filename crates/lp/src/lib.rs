//! # gddr-lp
//!
//! Linear-programming substrate for the GDDR reproduction.
//!
//! The paper's environment "implements a linear solver for the optimal
//! routing to calculate the optimal link utilisation ... on top of
//! Google OR-Tools" (§V-A). OR-Tools is unavailable here, so this crate
//! provides:
//!
//! - [`simplex`]: a from-scratch revised simplex over a column-sparse
//!   program with an explicit basis inverse (two phases, Bland
//!   anti-cycling fallback), plus a dual-simplex re-solve from a kept
//!   basis when only the right-hand side changed,
//! - [`mcf`]: the destination-aggregated multicommodity-flow LP that
//!   computes the optimal (minimum) maximum link utilisation `U_opt`
//!   for a demand matrix — the denominator of the paper's reward
//!   (Eq. 2) — plus a per-demand-matrix cache, since the paper's
//!   cyclical sequences revisit the same matrices, and a kept basis for
//!   warm re-solves of never-repeating traffic.
//!
//! # Example
//!
//! ```
//! use gddr_lp::simplex::{LinearProgram, Relation};
//!
//! // max x + y  s.t.  x + y <= 4, x <= 2  ==  min -(x + y)
//! let mut lp = LinearProgram::new(2);
//! lp.set_objective(&[-1.0, -1.0]);
//! lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
//! lp.add_constraint(&[(0, 1.0)], Relation::Le, 2.0);
//! let sol = gddr_lp::simplex::solve(&lp)?;
//! assert!((sol.objective + 4.0).abs() < 1e-9);
//! # Ok::<(), gddr_lp::simplex::LpError>(())
//! ```

pub mod mcf;
pub mod simplex;

pub use mcf::{CacheStats, CachedOracle, McfSolution, OracleValue, WarmStart};
pub use simplex::{LinearProgram, LpError, Relation, Resolved, Solution, SolveOptions};
