//! Microbenchmark: LP oracle solve time across topology sizes.
//!
//! The paper notes "the LP step makes the process CPU-bound"
//! (§VIII-C); this bench quantifies the oracle cost per topology, the
//! effect of the demand-matrix cache, and warm re-solves along
//! never-repeating diurnal traffic.

use gddr_bench::harness::BenchGroup;
use gddr_lp::mcf::{min_max_utilisation, CachedOracle, WarmStart};
use gddr_lp::SolveOptions;
use gddr_net::topology::zoo;
use gddr_rng::rngs::StdRng;
use gddr_rng::SeedableRng;
use gddr_traffic::gen::{bimodal, BimodalParams};
use gddr_traffic::sequence;

fn bench_lp_solve() {
    let mut group = BenchGroup::new("lp_solve");
    group.sample_size(10);
    group
        .meta("demand_model", "bimodal_default")
        .meta("seed", 0usize);
    for g in [zoo::cesnet(), zoo::abilene(), zoo::nsfnet()] {
        let mut rng = StdRng::seed_from_u64(0);
        let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
        group.bench(&format!("{}_{}n", g.name(), g.num_nodes()), || {
            min_max_utilisation(&g, &dm).unwrap().u_max
        });
    }
    group.finish();
}

fn bench_lp_cache() {
    let g = zoo::abilene();
    let mut rng = StdRng::seed_from_u64(1);
    let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
    let oracle = CachedOracle::new(g);
    oracle.u_opt(&dm).unwrap(); // warm
    let mut group = BenchGroup::new("lp_cache");
    group
        .meta("topology", "abilene")
        .meta("demand_model", "bimodal_default")
        .meta("seed", 1usize);
    group.bench("lp_cache_hit", || oracle.u_opt(&dm).unwrap());
    group.finish();
}

/// Matrices per diurnal chain in `lp_warm`.
const CHAIN: usize = 64;

/// A 64-matrix diurnal chain looked up through `u_opt_checked` on a
/// fresh oracle per iteration (one cold solve, then warm re-solves), and
/// one cold GÉANT solve. `meta` records the pivots per solve of each.
fn bench_lp_warm() {
    let mut group = BenchGroup::new("lp_warm");
    group.sample_size(10);
    group
        .meta("demand_model", "diurnal_gravity")
        .meta("chain", CHAIN)
        .meta("seed", 2usize);
    let opts = SolveOptions::default();
    for g in [zoo::cesnet(), zoo::abilene(), zoo::nsfnet()] {
        let n = g.num_nodes();
        let mut rng = StdRng::seed_from_u64(2);
        let total = 500.0 * (n * (n - 1)) as f64;
        let chain = sequence::diurnal(n, CHAIN, 24, 0.5, total, &mut rng);
        let mut warm = WarmStart::default();
        let pivots: usize = chain
            .iter()
            .map(|dm| warm.solve(&g, dm, &opts).unwrap().1.solution.pivots)
            .sum();
        let label = format!("{}_{}n_chain{CHAIN}", g.name(), n);
        group.meta(
            &format!("{label}_pivots_per_solve"),
            pivots as f64 / CHAIN as f64,
        );
        group.bench(&label, || {
            let oracle = CachedOracle::new(g.clone());
            chain
                .iter()
                .map(|dm| oracle.u_opt_checked(dm).unwrap())
                .sum::<f64>()
        });
    }
    let g = zoo::geant();
    let mut rng = StdRng::seed_from_u64(2);
    let dm = bimodal(g.num_nodes(), &BimodalParams::default(), &mut rng);
    let label = format!("{}_{}n_cold", g.name(), g.num_nodes());
    let pivots = WarmStart::default()
        .solve(&g, &dm, &opts)
        .unwrap()
        .1
        .solution
        .pivots;
    group.meta(&format!("{label}_pivots_per_solve"), pivots);
    group.bench(&label, || min_max_utilisation(&g, &dm).unwrap().u_max);
    group.finish();
}

fn main() {
    bench_lp_solve();
    bench_lp_cache();
    bench_lp_warm();
}
