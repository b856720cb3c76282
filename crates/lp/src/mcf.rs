//! Multicommodity-flow optimal-routing oracle.
//!
//! Computes the minimum achievable maximum link utilisation `U_opt` for
//! a demand matrix on a capacitated graph — the LP the paper solves
//! with OR-Tools to normalise the agent's reward (Eq. 2):
//!
//! `reward = − U_max_agent / U_max_optimal`.
//!
//! # Formulation
//!
//! The per-commodity LP of §II-A has `|V|²·|E|` variables. For the
//! min-max-utilisation objective, flows towards the same destination
//! are interchangeable, so commodities aggregate exactly by
//! destination (a standard TE reduction):
//!
//! - variables: `x[t][e] ≥ 0` (flow destined to `t` on edge `e`) and
//!   `U ≥ 0`,
//! - for every destination `t` and node `v ≠ t`:
//!   `Σ_out x[t] − Σ_in x[t] = D[v][t]` (conservation + source
//!   injection; absorption at `t` is implied),
//! - for every edge `e`: `Σ_t x[t][e] ≤ U · c(e)`,
//! - objective: `min U`.
//!
//! `U` may exceed 1: the oracle measures over-utilisation rather than
//! enforcing capacity, exactly like the paper's utilisation ratios.

use std::collections::{HashMap, VecDeque};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gddr_net::{Graph, NodeId};
use gddr_telemetry::Event;
use gddr_traffic::DemandMatrix;

use crate::simplex::{
    resolve, solve_with, Basis, LinearProgram, LpError, Relation, Resolved, SolveOptions,
};

/// The oracle's answer for one demand matrix.
#[derive(Debug, Clone)]
pub struct McfSolution {
    /// Minimum achievable maximum link utilisation.
    pub u_max: f64,
    /// Optimal flow per destination per edge: `flows[t][e]`.
    pub flows: Vec<Vec<f64>>,
}

impl McfSolution {
    /// Per-edge total load implied by the optimal flows.
    pub fn edge_loads(&self, graph: &Graph) -> Vec<f64> {
        let mut loads = vec![0.0; graph.num_edges()];
        for per_dest in &self.flows {
            for (e, f) in per_dest.iter().enumerate() {
                loads[e] += f;
            }
        }
        loads
    }

    /// Per-edge utilisation (load / capacity).
    pub fn utilisations(&self, graph: &Graph) -> Vec<f64> {
        self.edge_loads(graph)
            .iter()
            .enumerate()
            .map(|(e, load)| load / graph.capacity(gddr_net::EdgeId(e)))
            .collect()
    }
}

/// Solves the min-max-utilisation multicommodity flow LP with default
/// solver options.
///
/// # Errors
///
/// Returns an [`LpError`] if the LP cannot be solved — on a strongly
/// connected graph this indicates a disconnected destination (the
/// demands cannot be delivered at any utilisation) — or
/// [`LpError::InvalidInput`] if the demand matrix does not fit the
/// graph or contains non-finite entries.
pub fn min_max_utilisation(graph: &Graph, dm: &DemandMatrix) -> Result<McfSolution, LpError> {
    min_max_utilisation_with(graph, dm, &SolveOptions::default())
}

/// [`min_max_utilisation`] under explicit [`SolveOptions`] — the entry
/// point the resilient oracle's retry ladder uses. Always a cold solve.
///
/// # Errors
///
/// As [`min_max_utilisation`].
pub fn min_max_utilisation_with(
    graph: &Graph,
    dm: &DemandMatrix,
    opts: &SolveOptions,
) -> Result<McfSolution, LpError> {
    let _span = gddr_telemetry::span("lp.mcf.solve");
    let (lp, dests) = program(graph, dm)?;
    let sol = solve_with(&lp, opts)?;
    let m = graph.num_edges();
    let mut flows = vec![vec![0.0; m]; graph.num_nodes()];
    for (d, &t) in dests.iter().enumerate() {
        flows[t].copy_from_slice(&sol.x[d * m..(d + 1) * m]);
    }
    Ok(McfSolution {
        u_max: sol.x[dests.len() * m],
        flows,
    })
}

/// The destination-aggregated program for `dm` (see the module docs)
/// and its destinations, the nodes with any incoming demand. Variable
/// `d * |E| + e` is the flow towards `dests[d]` on edge `e`; the last
/// variable is `U`. `A` and `c` depend only on the graph and the
/// destination set; the demands are the right-hand side.
///
/// # Errors
///
/// [`LpError::InvalidInput`] if the demand matrix does not fit the
/// graph or contains non-finite entries.
fn program(graph: &Graph, dm: &DemandMatrix) -> Result<(LinearProgram, Vec<usize>), LpError> {
    let n = graph.num_nodes();
    let m = graph.num_edges();
    if dm.num_nodes() != n {
        return Err(LpError::InvalidInput(format!(
            "demand matrix is {}x{0} but the graph has {n} nodes",
            dm.num_nodes()
        )));
    }
    for s in 0..n {
        for t in 0..n {
            if !dm.get(s, t).is_finite() {
                return Err(LpError::InvalidInput(format!(
                    "non-finite demand at ({s}, {t})"
                )));
            }
        }
    }

    // Only destinations with any incoming demand need flow variables.
    let dests: Vec<usize> = (0..n).filter(|&t| dm.in_sum(t) > 0.0).collect();
    let num_x = dests.len() * m;
    // Variable layout: x[d * m + e] for d-th destination, then U last.
    let u_var = num_x;
    let mut lp = LinearProgram::new(num_x + 1);
    lp.set_objective_coeff(u_var, 1.0);

    for (d, &t) in dests.iter().enumerate() {
        for v in 0..n {
            if v == t {
                continue;
            }
            let mut terms: Vec<(usize, f64)> = Vec::new();
            for &e in graph.out_edges(NodeId(v)) {
                terms.push((d * m + e.0, 1.0));
            }
            for &e in graph.in_edges(NodeId(v)) {
                terms.push((d * m + e.0, -1.0));
            }
            lp.add_constraint(&terms, Relation::Eq, dm.get(v, t));
        }
    }
    for e in 0..m {
        let mut terms: Vec<(usize, f64)> = dests
            .iter()
            .enumerate()
            .map(|(d, _)| (d * m + e, 1.0))
            .collect();
        terms.push((u_var, -graph.capacity(gddr_net::EdgeId(e))));
        lp.add_constraint(&terms, Relation::Le, 0.0);
    }
    Ok((lp, dests))
}

/// The last optimal basis of one graph's program, keyed by the
/// destination set it was solved for, and the warm re-solve from it.
///
/// Consecutive demand matrices with the same destination set share `A`
/// and `c`, so [`WarmStart::solve`] re-solves from the kept basis by
/// dual simplex; a new destination set is a change of shape and is
/// solved cold. Warm answers can differ from cold ones in the last bits,
/// so they depend on the matrices solved before.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    dests: Vec<usize>,
    basis: Option<Basis>,
}

impl WarmStart {
    /// Solves `dm`'s program on `graph` — warm when the kept basis
    /// belongs to the same destination set — and keeps the final basis.
    /// Returns the program with the answer, so that callers can certify
    /// it; `U` is the last variable.
    ///
    /// # Errors
    ///
    /// As [`min_max_utilisation_with`], including an explicit
    /// [`SolveOptions::max_pivots`] budget running out on the warm path.
    pub fn solve(
        &mut self,
        graph: &Graph,
        dm: &DemandMatrix,
        opts: &SolveOptions,
    ) -> Result<(LinearProgram, Resolved), LpError> {
        let _span = gddr_telemetry::span("lp.mcf.solve");
        let (lp, dests) = program(graph, dm)?;
        if dests != self.dests && self.basis.take().is_some() {
            gddr_telemetry::counter_add("lp.simplex.cold_fallbacks", 1);
        }
        self.dests = dests;
        let resolved = resolve(&lp, opts, &mut self.basis)?;
        Ok((lp, resolved))
    }
}

/// Point-in-time cache statistics for a [`CachedOracle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required an LP solve.
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Lookups answered by the fallback ladder (Bland retry or
    /// shortest-path bound) instead of the default LP solve.
    pub fallbacks: u64,
    /// Entries currently cached.
    pub entries: usize,
}

/// An oracle answer carrying its provenance: `degraded` marks values
/// produced by the shortest-path fallback bound rather than the exact
/// LP — an upper bound on the true `U_opt`, good enough to keep an
/// episode alive but not for publication-grade ratios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleValue {
    /// Maximum link utilisation under the chosen routing.
    pub u_opt: f64,
    /// `true` when `u_opt` is the shortest-path upper bound, not the
    /// exact LP optimum.
    pub degraded: bool,
}

/// How a cached value was computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// A cold LP solve: a function of the matrix alone.
    Cold,
    /// A warm re-solve by [`CachedOracle::u_opt_checked`]: the same
    /// optimum, possibly different from a cold solve in the last bits.
    Warm,
    /// The shortest-path fallback bound of
    /// [`CachedOracle::u_opt_resilient`].
    Degraded,
}

/// Keyed cache body: the map (value + source) plus FIFO insertion order
/// for eviction.
#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<u64, (f64, Source)>,
    order: VecDeque<u64>,
}

/// A caching wrapper around the oracle, bound to one graph.
///
/// The paper's demand sequences are cyclical (`q` distinct matrices per
/// sequence), so training revisits identical matrices constantly; the
/// cache keys on the matrix fingerprint and makes the LP cost amortised
/// O(1) per step. Hit/miss/eviction counts are kept in atomics beside
/// the map — reading [`CachedOracle::stats`] never widens the cache
/// lock's critical section.
///
/// Warm and cold lookups: [`CachedOracle::u_opt`] and
/// [`CachedOracle::u_opt_resilient`] solve cold, so their values are a
/// function of the matrix alone; [`CachedOracle::u_opt_checked`]
/// re-solves from the last basis it kept ([`WarmStart`]), so its values
/// may differ from cold ones in the last bits. Each cached value
/// remembers how it was computed, and a cold lookup never returns a warm
/// value.
#[derive(Debug)]
pub struct CachedOracle {
    graph: Graph,
    cache: Mutex<CacheInner>,
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    fallbacks: AtomicU64,
    /// Outstanding forced `PivotLimit` failures — the fault-injection
    /// hook ([`CachedOracle::inject_pivot_limit`]).
    forced_failures: AtomicU64,
    /// The basis [`CachedOracle::u_opt_checked`] re-solves from.
    warm: Mutex<WarmStart>,
}

impl CachedOracle {
    /// Creates an oracle for `graph` with an unbounded cache.
    pub fn new(graph: Graph) -> Self {
        Self::with_capacity(graph, None)
    }

    /// Creates an oracle whose cache holds at most `capacity` entries,
    /// evicting in FIFO insertion order (`None` = unbounded). The
    /// paper's workloads cycle through a small set of matrices, so FIFO
    /// behaves like LRU there at a fraction of the bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity.
    pub fn with_capacity(graph: Graph, capacity: Option<usize>) -> Self {
        assert!(capacity != Some(0), "cache capacity must be positive");
        CachedOracle {
            graph,
            cache: Mutex::new(CacheInner::default()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            forced_failures: AtomicU64::new(0),
            warm: Mutex::new(WarmStart::default()),
        }
    }

    /// The graph this oracle is bound to.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Locks the cache, recovering from a poisoned lock: the cache's
    /// invariants hold at every await-free point inside the critical
    /// sections, so a panic elsewhere must not wedge the oracle.
    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of cached entries.
    pub fn cache_len(&self) -> usize {
        self.lock().map.len()
    }

    /// Current cache statistics (counters read atomically).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            entries: self.cache_len(),
        }
    }

    /// Forces the next `n` cache-miss solves through
    /// [`CachedOracle::u_opt_resilient`] to fail with
    /// [`LpError::PivotLimit`] (a zero pivot budget), exercising the
    /// fallback ladder. Fault injection for robustness tests — strict
    /// [`CachedOracle::u_opt`] lookups are unaffected.
    pub fn inject_pivot_limit(&self, n: u64) {
        self.forced_failures.fetch_add(n, Ordering::Relaxed);
    }

    /// Consumes one forced failure, if any are outstanding.
    fn take_forced_failure(&self) -> bool {
        self.forced_failures
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Records a cache hit (telemetry + counter) and unpacks the entry.
    fn record_hit(&self, entry: (f64, Source)) -> OracleValue {
        self.hits.fetch_add(1, Ordering::Relaxed);
        gddr_telemetry::counter_add("lp.oracle.hits", 1);
        OracleValue {
            u_opt: entry.0,
            degraded: entry.1 == Source::Degraded,
        }
    }

    /// Records a cache miss (telemetry + counter).
    fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        gddr_telemetry::counter_add("lp.oracle.misses", 1);
    }

    /// Inserts (or replaces) an entry, evicts to capacity, and updates
    /// the entries gauge.
    fn insert(&self, key: u64, u: f64, source: Source) {
        let entries = {
            let mut cache = self.lock();
            // A racing thread may have solved the same matrix; only
            // record the key once so FIFO order stays consistent.
            if cache.map.insert(key, (u, source)).is_none() {
                cache.order.push_back(key);
            }
            if let Some(cap) = self.capacity {
                while cache.map.len() > cap {
                    let Some(oldest) = cache.order.pop_front() else {
                        debug_assert!(false, "order must track map");
                        break;
                    };
                    cache.map.remove(&oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    gddr_telemetry::counter_add("lp.oracle.evictions", 1);
                }
            }
            cache.map.len()
        };
        gddr_telemetry::gauge_set("lp.oracle.entries", entries as f64);
    }

    /// The optimal max-link utilisation for `dm`, cached. Exact: a
    /// cached entry produced by the degraded fallback is re-solved with
    /// the real LP and replaced, so fallback bounds never leak through
    /// this method (no cache poisoning).
    ///
    /// Cold: a miss solves from scratch, and an entry cached by a warm
    /// [`CachedOracle::u_opt_checked`] re-solve is re-solved cold and
    /// replaced, so the value is a function of `dm` alone.
    ///
    /// Emits telemetry when enabled: `lp.oracle.hits` / `.misses` /
    /// `.evictions` counters, the `lp.oracle.entries` gauge and an
    /// `lp.oracle.solve` span around cache-miss LP solves.
    ///
    /// # Errors
    ///
    /// Propagates LP failures (see [`min_max_utilisation`]).
    pub fn u_opt(&self, dm: &DemandMatrix) -> Result<f64, LpError> {
        let key = dm.fingerprint();
        if let Some(&entry @ (_, Source::Cold)) = self.lock().map.get(&key) {
            return Ok(self.record_hit(entry).u_opt);
        }
        self.record_miss();
        let sol = {
            let _span = gddr_telemetry::span("lp.oracle.solve");
            min_max_utilisation(&self.graph, dm)?
        };
        self.insert(key, sol.u_max, Source::Cold);
        Ok(sol.u_max)
    }

    /// Strict lookup that honours the fault-injection hook: like
    /// [`CachedOracle::u_opt`] it has **no** fallback ladder, but a
    /// cache-miss solve consumes one outstanding
    /// [`CachedOracle::inject_pivot_limit`] failure (a zero pivot
    /// budget) and surfaces it as an [`LpError::PivotLimit`].
    ///
    /// This is the entry point for callers that supply their own
    /// degradation policy — `gddr-serve` wraps it in a circuit breaker
    /// and must *see* injected faults rather than have them absorbed.
    /// Exact values only: degraded cache entries are re-solved, and
    /// nothing degraded is ever written back.
    ///
    /// Warm: a miss re-solves from the basis kept by the previous miss
    /// when the destination set is unchanged ([`WarmStart`]), and solves
    /// cold on a change of shape, the pivot cap or a residual failure.
    /// Its values can therefore differ from [`CachedOracle::u_opt`]'s in
    /// the last bits and depend on the matrices looked up before. An
    /// injected fault fails the lookup even when the kept basis is
    /// already optimal for `dm`.
    ///
    /// # Errors
    ///
    /// Propagates LP failures, including injected pivot-limit faults.
    pub fn u_opt_checked(&self, dm: &DemandMatrix) -> Result<f64, LpError> {
        let key = dm.fingerprint();
        match self.lock().map.get(&key) {
            Some(&(_, Source::Degraded)) => {} // Re-solve exactly.
            Some(&entry) => return Ok(self.record_hit(entry).u_opt),
            None => {}
        }
        self.record_miss();
        let forced = self.take_forced_failure();
        let max_pivots = if forced { Some(0) } else { None };
        let resolved = {
            let _span = gddr_telemetry::span("lp.oracle.solve");
            // A panic mid-solve leaves no basis kept, which is valid.
            let mut warm = self.warm.lock().unwrap_or_else(|e| e.into_inner());
            let opts = SolveOptions {
                bland_from_start: false,
                max_pivots,
            };
            warm.solve(&self.graph, dm, &opts)?.1
        };
        let u = *resolved.solution.x.last().expect("U is the last variable");
        let source = if resolved.warm {
            Source::Warm
        } else {
            Source::Cold
        };
        self.insert(key, u, source);
        Ok(u)
    }

    /// The optimal max-link utilisation for `dm` with graceful
    /// degradation: a solver failure never propagates as long as a
    /// routing exists at all. The retry ladder on
    /// [`LpError::PivotLimit`]:
    ///
    /// 1. the default solve (Dantzig with late Bland switch-over),
    /// 2. a retry with Bland's rule from the first pivot (immune to
    ///    cycling),
    /// 3. the shortest-path utilisation upper bound, returned with
    ///    `degraded: true` and cached under the degraded flag so a
    ///    later strict [`CachedOracle::u_opt`] re-solves it.
    ///
    /// Each rung taken emits an `lp_fallback` telemetry event and bumps
    /// [`CacheStats::fallbacks`]. Non-retryable errors (infeasible,
    /// unbounded, invalid input) propagate unchanged.
    ///
    /// Cold: every rung solves from scratch, and an entry cached by a
    /// warm [`CachedOracle::u_opt_checked`] re-solve is re-solved cold,
    /// so the value is a function of `dm` alone.
    ///
    /// # Errors
    ///
    /// Propagates LP failures other than [`LpError::PivotLimit`], and
    /// [`LpError::Infeasible`] if some commodity has no path at all
    /// (the fallback bound needs connectivity too).
    pub fn u_opt_resilient(&self, dm: &DemandMatrix) -> Result<OracleValue, LpError> {
        let key = dm.fingerprint();
        match self.lock().map.get(&key) {
            Some(&(_, Source::Warm)) | None => {}
            Some(&entry) => return Ok(self.record_hit(entry)),
        }
        self.record_miss();

        let forced = self.take_forced_failure();
        let max_pivots = if forced { Some(0) } else { None };
        let first = {
            let _span = gddr_telemetry::span("lp.oracle.solve");
            min_max_utilisation_with(
                &self.graph,
                dm,
                &SolveOptions {
                    bland_from_start: false,
                    max_pivots,
                },
            )
        };
        match first {
            Ok(sol) => {
                self.insert(key, sol.u_max, Source::Cold);
                return Ok(OracleValue {
                    u_opt: sol.u_max,
                    degraded: false,
                });
            }
            Err(LpError::PivotLimit { .. }) => {
                let _span = gddr_telemetry::span("lp.oracle.retry_bland");
                match min_max_utilisation_with(
                    &self.graph,
                    dm,
                    &SolveOptions {
                        bland_from_start: true,
                        max_pivots,
                    },
                ) {
                    Ok(sol) => {
                        self.fallbacks.fetch_add(1, Ordering::Relaxed);
                        gddr_telemetry::emit(|| Event::LpFallback {
                            strategy: "bland_retry".to_string(),
                            degraded: false,
                        });
                        self.insert(key, sol.u_max, Source::Cold);
                        return Ok(OracleValue {
                            u_opt: sol.u_max,
                            degraded: false,
                        });
                    }
                    Err(LpError::PivotLimit { .. }) => {}
                    Err(other) => return Err(other),
                }
            }
            Err(other) => return Err(other),
        }

        // Last rung: route every commodity on a hop-count shortest path
        // and report the resulting max utilisation — an upper bound on
        // the true optimum, flagged degraded.
        let u_bound = shortest_path_bound(&self.graph, dm)?;
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        gddr_telemetry::emit(|| Event::LpFallback {
            strategy: "shortest_path_bound".to_string(),
            degraded: true,
        });
        self.insert(key, u_bound, Source::Degraded);
        Ok(OracleValue {
            u_opt: u_bound,
            degraded: true,
        })
    }
}

/// Max link utilisation when every commodity follows one hop-count
/// shortest path — the LP-free upper bound the resilient oracle falls
/// back to.
///
/// # Errors
///
/// [`LpError::InvalidInput`] on a size mismatch, [`LpError::Infeasible`]
/// if some commodity's destination is unreachable.
pub fn shortest_path_bound(graph: &Graph, dm: &DemandMatrix) -> Result<f64, LpError> {
    if dm.num_nodes() != graph.num_nodes() {
        return Err(LpError::InvalidInput(format!(
            "demand matrix is {}x{0} but the graph has {} nodes",
            dm.num_nodes(),
            graph.num_nodes()
        )));
    }
    let w = vec![1.0; graph.num_edges()];
    let mut loads = vec![0.0; graph.num_edges()];
    for (s, t, d) in dm.commodities() {
        let sp = gddr_net::algo::dijkstra(graph, NodeId(s), &w);
        let path =
            gddr_net::algo::extract_path(&sp, graph, NodeId(t)).ok_or(LpError::Infeasible)?;
        for e in path {
            loads[e.0] += d;
        }
    }
    Ok(loads
        .iter()
        .enumerate()
        .map(|(e, l)| l / graph.capacity(gddr_net::EdgeId(e)))
        .fold(0.0f64, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gddr_net::topology::{from_links, zoo};
    use gddr_rng::rngs::StdRng;
    use gddr_rng::SeedableRng;
    use gddr_traffic::gen::{bimodal, BimodalParams};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn single_link_utilisation() {
        // Two nodes, one link of capacity 10, demand 5 → U = 0.5.
        let g = from_links("pair", 2, &[(0, 1)], 10.0);
        let mut dm = DemandMatrix::zeros(2);
        dm.set(0, 1, 5.0);
        let sol = min_max_utilisation(&g, &dm).unwrap();
        assert_close(sol.u_max, 0.5, 1e-7);
    }

    #[test]
    fn over_capacity_demand_gives_u_above_one() {
        let g = from_links("pair", 2, &[(0, 1)], 10.0);
        let mut dm = DemandMatrix::zeros(2);
        dm.set(0, 1, 25.0);
        let sol = min_max_utilisation(&g, &dm).unwrap();
        assert_close(sol.u_max, 2.5, 1e-7);
    }

    #[test]
    fn parallel_paths_split_optimally() {
        // Diamond: 0-1-3 and 0-2-3, all capacity 10; demand 0→3 of 10.
        // Optimal splits 5/5 → U = 0.5.
        let g = from_links("diamond", 4, &[(0, 1), (1, 3), (0, 2), (2, 3)], 10.0);
        let mut dm = DemandMatrix::zeros(4);
        dm.set(0, 3, 10.0);
        let sol = min_max_utilisation(&g, &dm).unwrap();
        assert_close(sol.u_max, 0.5, 1e-7);
    }

    #[test]
    fn asymmetric_capacities_bias_split() {
        // Two disjoint 2-hop paths with capacities 30 (via 1) and
        // 10 (via 2); demand 0→3 of 20.
        // Balanced utilisation: f1/30 = f2/10, f1+f2=20 → f1=15, f2=5,
        // U = 0.5.
        let mut g = gddr_net::Graph::new("asym");
        let n: Vec<_> = (0..4).map(|i| g.add_node(format!("n{i}"))).collect();
        g.add_link(n[0], n[1], 30.0).unwrap();
        g.add_link(n[1], n[3], 30.0).unwrap();
        g.add_link(n[0], n[2], 10.0).unwrap();
        g.add_link(n[2], n[3], 10.0).unwrap();
        let mut dm = DemandMatrix::zeros(4);
        dm.set(0, 3, 20.0);
        let sol = min_max_utilisation(&g, &dm).unwrap();
        assert_close(sol.u_max, 0.5, 1e-7);
    }

    #[test]
    fn flow_conservation_holds_in_solution() {
        let g = zoo::abilene();
        let mut rng = StdRng::seed_from_u64(0);
        let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
        let sol = min_max_utilisation(&g, &dm).unwrap();
        for t in 0..g.num_nodes() {
            for v in 0..g.num_nodes() {
                if v == t {
                    continue;
                }
                let out: f64 = g
                    .out_edges(NodeId(v))
                    .iter()
                    .map(|&e| sol.flows[t][e.0])
                    .sum();
                let inn: f64 = g
                    .in_edges(NodeId(v))
                    .iter()
                    .map(|&e| sol.flows[t][e.0])
                    .sum();
                assert_close(out - inn, dm.get(v, t), 1e-5);
            }
        }
        // U matches the max utilisation implied by the flows.
        let max_util = sol.utilisations(&g).into_iter().fold(0.0f64, f64::max);
        assert_close(sol.u_max, max_util, 1e-5);
        assert!(sol.u_max > 0.0);
    }

    #[test]
    fn optimal_is_at_most_any_shortest_path_utilisation() {
        // Push everything along one fixed shortest path and check the
        // LP never does worse.
        let g = zoo::abilene();
        let mut rng = StdRng::seed_from_u64(1);
        let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
        let sol = min_max_utilisation(&g, &dm).unwrap();

        let w = vec![1.0; g.num_edges()];
        let mut loads = vec![0.0; g.num_edges()];
        for (s, t, d) in dm.commodities() {
            let sp = gddr_net::algo::dijkstra(&g, NodeId(s), &w);
            let path = gddr_net::algo::extract_path(&sp, &g, NodeId(t)).unwrap();
            for e in path {
                loads[e.0] += d;
            }
        }
        let sp_util = loads
            .iter()
            .enumerate()
            .map(|(e, l)| l / g.capacity(gddr_net::EdgeId(e)))
            .fold(0.0f64, f64::max);
        assert!(
            sol.u_max <= sp_util + 1e-6,
            "LP ({}) must beat single shortest path ({})",
            sol.u_max,
            sp_util
        );
    }

    #[test]
    fn utilisation_scales_linearly_with_demands() {
        let g = zoo::cesnet();
        let mut rng = StdRng::seed_from_u64(2);
        let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
        let u1 = min_max_utilisation(&g, &dm).unwrap().u_max;
        let u2 = min_max_utilisation(&g, &dm.scaled(2.0)).unwrap().u_max;
        assert_close(u2, 2.0 * u1, 1e-5);
    }

    #[test]
    fn empty_demand_matrix_is_free() {
        let g = zoo::cesnet();
        let dm = DemandMatrix::zeros(g.num_nodes());
        let sol = min_max_utilisation(&g, &dm).unwrap();
        assert_close(sol.u_max, 0.0, 1e-9);
    }

    #[test]
    fn cached_oracle_hits() {
        let g = zoo::cesnet();
        let oracle = CachedOracle::new(g.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
        let a = oracle.u_opt(&dm).unwrap();
        assert_eq!(oracle.cache_len(), 1);
        let b = oracle.u_opt(&dm).unwrap();
        assert_eq!(oracle.cache_len(), 1);
        assert_eq!(a, b);
        let dm2 = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
        oracle.u_opt(&dm2).unwrap();
        assert_eq!(oracle.cache_len(), 2);
    }

    #[test]
    fn repeated_identical_matrices_produce_hits() {
        let g = zoo::cesnet();
        let oracle = CachedOracle::new(g.clone());
        let mut rng = StdRng::seed_from_u64(5);
        let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
        assert_eq!(oracle.stats(), CacheStats::default());
        for _ in 0..4 {
            oracle.u_opt(&dm).unwrap();
        }
        let stats = oracle.stats();
        assert_eq!(stats.misses, 1, "first lookup solves the LP");
        assert_eq!(stats.hits, 3, "repeats must be served from cache");
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn bounded_cache_evicts_fifo() {
        let g = zoo::cesnet();
        let oracle = CachedOracle::with_capacity(g.clone(), Some(2));
        let mut rng = StdRng::seed_from_u64(6);
        let params = BimodalParams::default();
        let dms: Vec<_> = (0..3)
            .map(|_| bimodal(g.num_nodes(), &params, &mut rng))
            .collect();
        let first = oracle.u_opt(&dms[0]).unwrap();
        oracle.u_opt(&dms[1]).unwrap();
        // Third insert exceeds the capacity of 2 and evicts dms[0].
        oracle.u_opt(&dms[2]).unwrap();
        let stats = oracle.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        // dms[0] was evicted, so asking again re-solves (a miss).
        assert_eq!(oracle.u_opt(&dms[0]).unwrap(), first);
        assert_eq!(oracle.stats().misses, 4);
    }

    #[test]
    fn mismatched_demand_matrix_is_invalid_input_not_panic() {
        let g = zoo::abilene();
        let dm = DemandMatrix::zeros(g.num_nodes() + 3);
        assert!(matches!(
            min_max_utilisation(&g, &dm),
            Err(LpError::InvalidInput(_))
        ));
        assert!(matches!(
            shortest_path_bound(&g, &dm),
            Err(LpError::InvalidInput(_))
        ));
    }

    #[test]
    fn nonfinite_demand_is_invalid_input_not_panic() {
        // `DemandMatrix::set` rejects non-finite values, but `from_fn`
        // lets +inf through — the LP layer must still refuse it.
        let g = zoo::abilene();
        let dm = DemandMatrix::from_fn(g.num_nodes(), |s, t| {
            if (s, t) == (0, 1) {
                f64::INFINITY
            } else {
                0.0
            }
        });
        assert!(matches!(
            min_max_utilisation(&g, &dm),
            Err(LpError::InvalidInput(_))
        ));
    }

    #[test]
    fn resilient_lookup_matches_exact_on_healthy_solver() {
        let g = zoo::cesnet();
        let oracle = CachedOracle::new(g.clone());
        let mut rng = StdRng::seed_from_u64(7);
        let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
        let exact = oracle.u_opt(&dm).unwrap();
        let resilient = oracle.u_opt_resilient(&dm).unwrap();
        assert_eq!(resilient.u_opt, exact);
        assert!(!resilient.degraded);
        assert_eq!(oracle.stats().fallbacks, 0);
    }

    #[test]
    fn forced_pivot_limit_degrades_to_shortest_path_bound() {
        let g = zoo::cesnet();
        let oracle = CachedOracle::new(g.clone());
        let mut rng = StdRng::seed_from_u64(8);
        let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);

        oracle.inject_pivot_limit(1);
        let v = oracle.u_opt_resilient(&dm).unwrap();
        assert!(v.degraded, "zero pivot budget must force the fallback");
        assert_eq!(v.u_opt, shortest_path_bound(&g, &dm).unwrap());
        assert!(v.u_opt.is_finite() && v.u_opt > 0.0);
        let stats = oracle.stats();
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(stats.entries, 1);

        // The degraded value is cached for subsequent resilient
        // lookups (a hit, still flagged).
        let again = oracle.u_opt_resilient(&dm).unwrap();
        assert_eq!(again, v);
        assert_eq!(oracle.stats().hits, 1);

        // The degraded bound really is an upper bound on the optimum.
        let exact = min_max_utilisation(&g, &dm).unwrap().u_max;
        assert!(exact <= v.u_opt + 1e-9);
    }

    #[test]
    fn strict_lookup_repairs_degraded_cache_entry() {
        let g = zoo::cesnet();
        let oracle = CachedOracle::new(g.clone());
        let mut rng = StdRng::seed_from_u64(9);
        let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);

        oracle.inject_pivot_limit(1);
        let degraded = oracle.u_opt_resilient(&dm).unwrap();
        assert!(degraded.degraded);

        // Strict lookup must not serve the degraded bound: it
        // re-solves exactly and replaces the entry.
        let exact = oracle.u_opt(&dm).unwrap();
        assert!(exact <= degraded.u_opt + 1e-9);
        let repaired = oracle.u_opt_resilient(&dm).unwrap();
        assert_eq!(repaired.u_opt, exact);
        assert!(!repaired.degraded, "cache entry must be repaired");
        assert_eq!(oracle.cache_len(), 1);
    }

    #[test]
    fn injected_failures_are_consumed_one_per_miss() {
        let g = zoo::cesnet();
        let oracle = CachedOracle::new(g.clone());
        let mut rng = StdRng::seed_from_u64(10);
        let params = BimodalParams::default();
        let dm1 = bimodal(g.num_nodes(), &params, &mut rng);
        let dm2 = bimodal(g.num_nodes(), &params, &mut rng);

        oracle.inject_pivot_limit(1);
        assert!(oracle.u_opt_resilient(&dm1).unwrap().degraded);
        assert!(
            !oracle.u_opt_resilient(&dm2).unwrap().degraded,
            "only one failure was injected"
        );
    }

    #[test]
    fn checked_lookup_surfaces_injected_faults_without_fallback() {
        let g = zoo::cesnet();
        let oracle = CachedOracle::new(g.clone());
        let mut rng = StdRng::seed_from_u64(11);
        let params = BimodalParams::default();
        let dm1 = bimodal(g.num_nodes(), &params, &mut rng);
        let dm2 = bimodal(g.num_nodes(), &params, &mut rng);

        oracle.inject_pivot_limit(1);
        // The injected fault propagates as an error: no fallback rung.
        assert!(matches!(
            oracle.u_opt_checked(&dm1),
            Err(LpError::PivotLimit { .. })
        ));
        assert_eq!(oracle.stats().fallbacks, 0);
        // The failed solve cached nothing, and the fault was consumed:
        // the next miss solves exactly and matches the strict path.
        assert_eq!(oracle.cache_len(), 0);
        let checked = oracle.u_opt_checked(&dm1).unwrap();
        assert_eq!(checked, oracle.u_opt(&dm1).unwrap());
        // Cache hits never consume injected faults.
        oracle.inject_pivot_limit(1);
        assert_eq!(oracle.u_opt_checked(&dm1).unwrap(), checked);
        assert!(matches!(
            oracle.u_opt_checked(&dm2),
            Err(LpError::PivotLimit { .. })
        ));
    }

    #[test]
    fn checked_lookup_repairs_degraded_entries() {
        let g = zoo::cesnet();
        let oracle = CachedOracle::new(g.clone());
        let mut rng = StdRng::seed_from_u64(12);
        let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);

        oracle.inject_pivot_limit(1);
        let degraded = oracle.u_opt_resilient(&dm).unwrap();
        assert!(degraded.degraded);
        let exact = oracle.u_opt_checked(&dm).unwrap();
        assert!(exact <= degraded.u_opt + 1e-9);
        let repaired = oracle.u_opt_resilient(&dm).unwrap();
        assert!(!repaired.degraded, "checked lookup must repair the entry");
        assert_eq!(repaired.u_opt, exact);
    }

    #[test]
    fn shortest_path_bound_matches_manual_routing() {
        // Two nodes, one link of capacity 10, demand 5 → bound 0.5,
        // identical to the LP on a path-unique topology.
        let g = from_links("pair", 2, &[(0, 1)], 10.0);
        let mut dm = DemandMatrix::zeros(2);
        dm.set(0, 1, 5.0);
        assert_close(shortest_path_bound(&g, &dm).unwrap(), 0.5, 1e-9);
    }

    #[test]
    fn all_zoo_topologies_solvable() {
        let mut rng = StdRng::seed_from_u64(4);
        for g in zoo::all() {
            if g.num_nodes() > 14 {
                continue; // Keep the unit test fast; big graphs are benched.
            }
            let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
            let sol = min_max_utilisation(&g, &dm).unwrap();
            assert!(sol.u_max > 0.0, "{} gave zero utilisation", g.name());
            assert!(sol.u_max.is_finite());
        }
    }

    fn diurnal_chain(g: &Graph, len: usize, seed: u64) -> Vec<DemandMatrix> {
        let n = g.num_nodes();
        let mut rng = StdRng::seed_from_u64(seed);
        gddr_traffic::sequence::diurnal(n, len, 24, 0.5, 500.0 * (n * (n - 1)) as f64, &mut rng)
    }

    #[test]
    fn checked_lookups_re_solve_warm_and_match_cold() {
        let g = zoo::abilene();
        let oracle = CachedOracle::new(g.clone());
        for (i, dm) in diurnal_chain(&g, 24, 13).iter().enumerate() {
            let warm = oracle.u_opt_checked(dm).unwrap();
            let cold = min_max_utilisation(&g, dm).unwrap().u_max;
            assert!(
                (warm - cold).abs() <= 1e-9 * cold,
                "matrix {i}: {warm} vs {cold}"
            );
        }
        assert_eq!(oracle.stats().misses, 24);
    }

    #[test]
    fn cold_lookups_never_serve_warm_values() {
        let g = zoo::cesnet();
        let oracle = CachedOracle::new(g.clone());
        let chain = diurnal_chain(&g, 6, 14);
        for dm in &chain {
            oracle.u_opt_checked(dm).unwrap();
        }
        // Warm entries are re-solved cold (a miss each), then hit.
        let cold = |dm: &DemandMatrix| min_max_utilisation(&g, dm).unwrap().u_max.to_bits();
        assert_eq!(oracle.u_opt(&chain[3]).unwrap().to_bits(), cold(&chain[3]));
        assert_eq!(
            oracle.u_opt_resilient(&chain[4]).unwrap().u_opt.to_bits(),
            cold(&chain[4])
        );
        assert_eq!(oracle.stats().misses, 8);
        assert_eq!(oracle.u_opt(&chain[3]).unwrap().to_bits(), cold(&chain[3]));
        assert_eq!(oracle.stats().hits, 1);
        // A checked lookup accepts any exact entry, warm or cold.
        oracle.u_opt_checked(&chain[3]).unwrap();
        oracle.u_opt_checked(&chain[5]).unwrap();
        assert_eq!(oracle.stats().hits, 3);
    }

    #[test]
    fn a_new_destination_set_is_solved_cold() {
        let g = zoo::cesnet();
        let chain = diurnal_chain(&g, 3, 15);
        let mut warm = WarmStart::default();
        let opts = SolveOptions::default();
        assert!(!warm.solve(&g, &chain[0], &opts).unwrap().1.warm);
        assert!(warm.solve(&g, &chain[1], &opts).unwrap().1.warm);
        // No demand towards node 2: one destination fewer.
        let n = g.num_nodes();
        let sparse = DemandMatrix::from_fn(n, |s, t| if t == 2 { 0.0 } else { chain[2].get(s, t) });
        let (lp, resolved) = warm.solve(&g, &sparse, &opts).unwrap();
        assert!(!resolved.warm);
        assert_eq!(lp.num_vars(), (n - 1) * g.num_edges() + 1);
        let u = *resolved.solution.x.last().unwrap();
        assert!((u - min_max_utilisation(&g, &sparse).unwrap().u_max).abs() <= 1e-12);
        // And back to every destination: cold again.
        assert!(!warm.solve(&g, &chain[2], &opts).unwrap().1.warm);
    }
}
