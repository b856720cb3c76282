//! `train_abilene`: PPO on the paper's GNN agent with the paper's
//! Abilene workload (Figs. 6/7 settings), then a held-out evaluation.

use gddr_core::eval::eval_oneshot;
use gddr_core::experiment::FixedGraphConfig;
use gddr_core::{DdrEnv, GnnPolicy, GraphContext};
use gddr_net::topology::zoo;
use gddr_net::Graph;
use gddr_rl::{Ppo, TrainingLog};
use gddr_rng::rngs::StdRng;
use gddr_rng::SeedableRng;
use gddr_traffic::DemandMatrix;

use crate::ledger::{cpu_time, median, quantile, share, spread_note, timed, Digest, LedgerSink};
use crate::wrap::{CallTotals, TimedEnv, TimedPolicy};
use crate::{setup_repeated, Outcome, MODEL_SEED, SUSTAINED};

/// Environment steps per `Ppo::train` call (two 128-step iterations).
const CHUNK_STEPS: usize = 256;
/// Env steps per second the run is sized for (2-core x86-64 box), and
/// the share of `--seconds` spent training.
const NOMINAL_STEPS_PER_S: f64 = 160.0;
const TRAIN_SHARE: f64 = 0.85;

/// `train_abilene` inputs.
struct TrainSetup {
    graph: Graph,
    config: FixedGraphConfig,
    train: Vec<Vec<DemandMatrix>>,
    test: Vec<Vec<DemandMatrix>>,
    env: TimedEnv,
    policy: TimedPolicy<GnnPolicy>,
}

fn train_setup(seed: u64) -> TrainSetup {
    let config = FixedGraphConfig::default();
    let graph = zoo::by_name(&config.graph_name).expect("Abilene is in the zoo");
    let w = config.workload;
    let mut rng = StdRng::seed_from_u64(seed);
    let seqs = |rng: &mut StdRng, count| {
        gddr_core::env::standard_sequences(&graph, count, w.seq_length, w.cycle, rng)
    };
    let train = seqs(&mut rng, w.train_sequences);
    let test = seqs(&mut rng, w.test_sequences);
    let env = TimedEnv::new(DdrEnv::new(
        GraphContext::new(graph.clone(), train.clone()),
        config.env,
    ));
    let mut model_rng = StdRng::seed_from_u64(MODEL_SEED);
    let policy = TimedPolicy::new(GnnPolicy::new(
        &config.gnn,
        config.init_log_std,
        &mut model_rng,
    ));
    TrainSetup {
        graph,
        config,
        train,
        test,
        env,
        policy,
    }
}

/// The `train_abilene` workload.
pub fn train_abilene(seed: u64, seconds: f64, trace: bool, out: &mut Outcome) {
    out.fleet_threads = 1;
    let TrainSetup {
        graph,
        config,
        train,
        test,
        mut env,
        mut policy,
    } = setup_repeated(out, || train_setup(seed));
    let chunks = ((NOMINAL_STEPS_PER_S * TRAIN_SHARE * seconds / CHUNK_STEPS as f64).round()
        as usize)
        .max(2);
    let mut ppo = Ppo::new(config.ppo);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x22);
    let mut log = TrainingLog::default();
    let sink = LedgerSink::new();

    let mut chunk_rate = Vec::new();
    let mut iteration_ms = Vec::new();
    let mut traced_walls = Vec::new();
    let mut chunk_walls = Vec::new();
    let mut untraced_steps_ns = Vec::new();
    let mut traced_policy = CallTotals::default();
    let mut traced_step_ns = 0u64;
    for chunk in 0..chunks {
        // In a traced run every second chunk runs with the ledger
        // installed; the others give the untraced reference.
        let traced = trace && chunk % 2 == 1;
        let steps_before = env.step_ns.len();
        let (act0, eval0) = (policy.act_totals(), policy.evaluate_totals());
        policy.take_iteration_starts();
        let ((), took) = timed(traced.then_some(&sink), || {
            ppo.train(&mut env, &mut policy, CHUNK_STEPS, &mut rng, &mut log)
        });
        let (wall, end) = (took.wall, cpu_time());
        let starts = policy.take_iteration_starts();
        let ends = starts.iter().skip(1).copied().chain([end]);
        iteration_ms.extend(
            starts
                .iter()
                .zip(ends)
                .map(|(s, e)| (e - *s).as_secs_f64() * 1e3),
        );
        chunk_walls.push((traced, wall.as_secs_f64()));
        let steps = &env.step_ns[steps_before..];
        chunk_rate.push(steps.len() as f64 / took.cpu.as_secs_f64());
        if traced {
            traced_walls.push(wall.as_secs_f64());
            traced_step_ns += steps.iter().sum::<u64>();
            for d in [
                policy.act_totals().since(&act0),
                policy.evaluate_totals().since(&eval0),
            ] {
                traced_policy.calls += d.calls;
                traced_policy.busy_ns += d.busy_ns;
            }
        } else {
            untraced_steps_ns.extend(steps.iter().map(|&ns| ns as f64));
        }
    }

    // Held-out evaluation, as the fixed-graph experiment does it: a
    // fresh context (and oracle) over the training sequences.
    let eval_ctx = GraphContext::new(graph, train);
    let eval = eval_oneshot(&eval_ctx, &config.env, &policy, &test);

    let mut digest = Digest::default();
    for &(step, reward) in &log.episodes {
        digest.u64(step as u64);
        digest.f64(reward);
    }
    let train_oracle = env.inner().context().oracle.stats();
    let eval_oracle = eval_ctx.oracle.stats();
    let fallbacks = train_oracle.fallbacks + eval_oracle.fallbacks;
    let bad_updates = log
        .updates
        .iter()
        .filter(|u| {
            let fields = [
                u.policy_loss,
                u.value_loss,
                u.entropy,
                u.approx_kl,
                u.grad_norm,
            ];
            fields.iter().any(|v| !v.is_finite()) || u.grad_norm == 0.0
        })
        .count() as u64;
    let nonfinite = policy.nonfinite() + bad_updates;
    let ratios = match eval {
        Ok(result) => result.ratios,
        Err(e) => {
            out.fail(format!("held-out evaluation failed: {e}"));
            Vec::new()
        }
    };
    for &r in &ratios {
        digest.f64(r);
    }
    let bad_ratios = ratios
        .iter()
        .filter(|r| !r.is_finite() || **r < 1.0 - 1e-9)
        .count() as u64;
    if bad_ratios > 0 {
        out.fail(format!("{bad_ratios} held-out ratios below the optimum"));
    }
    if nonfinite > 0 {
        out.fail(format!("{nonfinite} non-finite evaluations or updates"));
    }
    if fallbacks > 0 {
        out.fail(format!("{fallbacks} oracle fallbacks"));
    }
    out.attempted += (log.total_steps + ratios.len()) as u64;
    out.failed += bad_ratios + nonfinite + fallbacks;
    out.digest(digest);
    out.note(format!(
        "trained {} steps in {chunks} chunks, {} updates, held-out ratio {:.6}",
        log.total_steps,
        log.updates.len(),
        crate::mean(&ratios)
    ));

    out.note(spread_note("chunk steps/cpu-s", &chunk_rate));
    out.note(spread_note("PPO iteration cpu ms", &iteration_ms));
    out.e2e("rate_per_cpu_s", quantile(&chunk_rate, SUSTAINED));
    out.e2e("p90_ms", quantile(&iteration_ms, 0.9));
    out.e2e("quality_ratio", crate::mean(&ratios));
    let (hits, misses) = (
        train_oracle.hits + eval_oracle.hits,
        train_oracle.misses + eval_oracle.misses,
    );
    out.layer("lp.solves", misses as f64);
    out.layer(
        "lp.cache_hit_rate",
        share(
            train_oracle.hits as f64,
            (train_oracle.hits + train_oracle.misses) as f64,
        ),
    );
    out.note(format!("oracle lookups: {hits} hits, {misses} solves"));
    if trace {
        let wall: f64 = traced_walls.iter().sum();
        let lp = sink.span("lp.mcf.solve");
        let gnn = sink.span("gnn.block.forward");
        let backward = sink.span("ppo.backward");
        let update = sink.span("ppo.update");
        let policy_s = traced_policy.busy_ns as f64 * 1e-9;
        let step_s = traced_step_ns as f64 * 1e-9;
        out.layer("lp.solve_ms", lp.median_ms());
        out.layer("lp.share", share(lp.total_s(), wall));
        out.layer(
            "lp.pivots_per_solve",
            share(
                sink.counter("lp.simplex.pivots") as f64,
                sink.counter("lp.simplex.solves") as f64,
            ),
        );
        out.layer(
            "gnn.forward_us",
            share(gnn.total_s() * 1e6, traced_policy.calls as f64),
        );
        out.layer("gnn.infer_share", share(policy_s, wall));
        out.layer("nn.backward_ms", backward.median_ms());
        out.layer("ppo.update_ms", update.median_ms());
        out.layer("ppo.rollout_ms", sink.span("ppo.rollout").median_ms());
        out.layer("ppo.update_share", share(update.total_s(), wall));
        out.layer("env.step_us", median(&untraced_steps_ns) * 1e-3);
        out.layer("env.reward_us", sink.span("env.reward").median_ms() * 1e3);
        out.layer(
            "routing.softmin_us",
            sink.span("routing.softmin").median_ms() * 1e3,
        );
        let attributed = policy_s + step_s + backward.total_s();
        out.layer("unattributed_share", 1.0 - share(attributed, wall));
        // Each traced chunk against its untraced neighbours, so the
        // speed-up as the oracle cache warms does not bias the ratio.
        let ratios: Vec<f64> = (0..chunk_walls.len())
            .filter(|&i| chunk_walls[i].0)
            .map(|i| {
                let neighbours: Vec<f64> = [i.wrapping_sub(1), i + 1]
                    .iter()
                    .filter_map(|&j| chunk_walls.get(j))
                    .map(|&(_, w)| w)
                    .collect();
                share(chunk_walls[i].1, crate::mean(&neighbours))
            })
            .collect();
        out.layer("telemetry.overhead_share", median(&ratios) - 1.0);
        out.ledger(&sink);
    }
}
