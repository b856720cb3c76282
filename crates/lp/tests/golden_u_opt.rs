//! Golden `U_opt` values: the optimum of the min-max-utilisation LP on
//! every zoo topology with at most 14 nodes, for bimodal seeds 0–7 and
//! one 16-matrix diurnal chain each.
//!
//! `golden_u_opt.txt` was recorded from the dense two-phase tableau
//! solver this crate used before the revised simplex, one line per
//! solve: `<topology> <bimodal|diurnal> <index> <u_max>`, with `u_max`
//! written as a lossless `{:?}` decimal. The file is never
//! regenerated: it is the reference every later solver must reproduce.

use gddr_lp::mcf::min_max_utilisation;
use gddr_net::topology::zoo;
use gddr_rng::rngs::StdRng;
use gddr_rng::SeedableRng;
use gddr_traffic::gen::{bimodal, BimodalParams};
use gddr_traffic::{sequence, DemandMatrix};

const GOLDEN: &str = include_str!("golden_u_opt.txt");

/// Largest allowed relative difference from the recorded value.
const REL_TOL: f64 = 1e-9;

/// The recorded cases in fixture order: `(key, demand matrix)`.
fn cases() -> Vec<(String, DemandMatrix)> {
    let mut out = Vec::new();
    for g in zoo::all().into_iter().filter(|g| g.num_nodes() <= 14) {
        let n = g.num_nodes();
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let dm = bimodal(n, &BimodalParams::default(), &mut rng);
            out.push((format!("{} bimodal {seed}", g.name()), dm));
        }
        let mut rng = StdRng::seed_from_u64(0);
        let total = 500.0 * (n * (n - 1)) as f64;
        for (i, dm) in sequence::diurnal(n, 16, 24, 0.5, total, &mut rng)
            .into_iter()
            .enumerate()
        {
            out.push((format!("{} diurnal {i}", g.name()), dm));
        }
    }
    out
}

#[test]
fn optimum_matches_the_recorded_dense_solver() {
    let golden: Vec<(&str, f64)> = GOLDEN
        .lines()
        .map(|line| {
            let (key, value) = line.rsplit_once(' ').expect("key and value");
            (key, value.parse().expect("lossless f64"))
        })
        .collect();
    let cases = cases();
    assert_eq!(golden.len(), cases.len(), "one fixture line per case");
    let mut worst = 0.0f64;
    for ((key, want), (case, dm)) in golden.into_iter().zip(cases) {
        assert_eq!(key, case, "fixture order");
        let name = case.split(' ').next().expect("topology name");
        let g = zoo::by_name(name).expect("zoo topology");
        let got = min_max_utilisation(&g, &dm).expect("solvable").u_max;
        let rel = (got - want).abs() / want.abs().max(f64::MIN_POSITIVE);
        assert!(rel <= REL_TOL, "{case}: {got:?} vs recorded {want:?}");
        worst = worst.max(rel);
    }
    eprintln!("worst relative difference from the recorded optimum: {worst:e}");
}
