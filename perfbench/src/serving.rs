//! The two serving workloads: `serve_zoo` (batched GNN inference and
//! softmin translation across the 11-topology zoo fleet, no LP) and
//! `score_diurnal` (the same serving code with every fresh response
//! scored by the LP oracle on never-repeating diurnal traffic).

use std::sync::Arc;
use std::time::{Duration, Instant};

use gddr_core::{try_routing_ratio, DdrEnvConfig, GnnPolicy, GnnPolicyConfig};
use gddr_lp::CachedOracle;
use gddr_net::topology::zoo;
use gddr_net::Graph;
use gddr_rng::rngs::StdRng;
use gddr_rng::SeedableRng;
use gddr_routing::Routing;
use gddr_serve::{
    ControllerConfig, EngineFactory, EpochRequest, FleetConfig, FleetRequest, InferenceEngine,
    PolicyEngine, Rung, ShardOutcome, ShardRouter,
};
use gddr_traffic::gen::{bimodal, BimodalParams};
use gddr_traffic::sequence;
use gddr_traffic::DemandMatrix;

use crate::ledger::{cpu_time, median, quantile, share, spread_note, timed, Digest, LedgerSink};
use crate::wrap::{EngineStats, EngineTotals, TimedEngine};
use crate::{setup_repeated, Outcome, MODEL_SEED, SUSTAINED};

/// The 11 zoo shards of `serve_zoo`, one per topology.
const ZOO_SHARDS: [&str; 11] = [
    "abilene", "nsfnet", "arpanet", "cesnet", "b4", "garr", "renater", "uninett", "geant", "janet",
    "sprint",
];
/// The `score_diurnal` shards. GÉANT is left out: one exact solve there
/// takes most of a second with today's dense simplex.
const SCORE_SHARDS: [&str; 3] = ["cesnet", "abilene", "nsfnet"];
/// Same-tick requests per shard in `serve_zoo`; they coalesce into one
/// batched forward pass per shard per tick.
const CLIENTS: usize = 8;
/// Fleet threads of `serve_zoo`: one, so that a tick's time does not
/// hang on when a shared host lets a second thread run.
const ZOO_THREADS: usize = 1;
/// The open-loop rate ladder, requests per second.
const LADDER_RPS: [f64; 4] = [500.0, 1000.0, 2000.0, 3000.0];
/// Share of `--seconds` each ladder step is scheduled to last.
const LADDER_SHARE: [f64; 4] = [0.5, 0.05, 0.05, 0.05];
/// Order of the open-loop segments, as indices into `LADDER_RPS`: the
/// reported step is split in three so that it spans the whole run.
const LADDER_ORDER: [usize; 6] = [0, 1, 0, 2, 0, 3];
/// The ladder step whose latency is the workload's reported latency:
/// about a third of the one-thread capacity, so that a burst of host
/// contention slows ticks without queueing them behind each other.
const REPORT_RPS: f64 = 500.0;
/// Tick latency limit of the open loop, on p95.
const LIMIT_MS: f64 = 100.0;
/// Share of `--seconds` for the closed-loop capacity phase, and the
/// rate it is sized for (requests per second on one core of a 2-core
/// x86-64 box).
const CLOSED_SHARE: f64 = 0.25;
const CLOSED_NOMINAL_RPS: f64 = 1450.0;
/// Ticks per closed-loop block; each block is one `run` call.
const CLOSED_BLOCK_TICKS: usize = 5;
/// Shards whose served routings are scored offline after the measured
/// phases, for `serve_zoo`'s quality figure (small enough to solve
/// exactly in a few milliseconds).
const QUALITY_SHARDS: [&str; 2] = ["cesnet", "abilene"];
/// `score_diurnal` sizing: ticks per second it is sized for, its share
/// of `--seconds`, and ticks per block (one diurnal segment).
const SCORE_NOMINAL_TICKS_PER_S: f64 = 13.0;
const SCORE_SHARE: f64 = 0.9;
const SCORE_BLOCK_TICKS: usize = 8;
/// Diurnal traffic: ticks per simulated day and swing depth.
const DIURNAL_PERIOD: usize = 24;
const DIURNAL_DEPTH: f64 = 0.5;
/// Per-request deadline: generous, so no response is degraded by time.
const DEADLINE_MS: u64 = 10_000;

/// A fleet plus the engine-call totals its engines report into.
struct Fleet {
    router: ShardRouter,
    engines: Arc<EngineStats>,
    threads: usize,
}

fn shard_seed(shard: usize) -> u64 {
    MODEL_SEED ^ (shard as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15)
}

/// The paper's GNN with fixed untrained weights per shard, wrapped so
/// every engine call is timed.
fn engine_factory(shard: usize, stats: Arc<EngineStats>) -> EngineFactory {
    Arc::new(move |graph: &Graph| {
        let config = GnnPolicyConfig::default();
        let mut rng = StdRng::seed_from_u64(shard_seed(shard));
        let policy = GnnPolicy::new(&config, -0.7, &mut rng);
        let engine = PolicyEngine::new(policy, graph, config.memory);
        Box::new(TimedEngine::new(Box::new(engine), Arc::clone(&stats))) as Box<dyn InferenceEngine>
    })
}

fn build_fleet(shards: &[&str], threads: usize, score: bool) -> Fleet {
    let engines = Arc::new(EngineStats::default());
    let mut router = ShardRouter::new(FleetConfig {
        coalesce_window: CLIENTS,
        threads,
        admit_chunk: CLIENTS,
    })
    .expect("fleet config is valid");
    for (i, name) in shards.iter().enumerate() {
        router
            .add_shard(
                name,
                zoo::by_name(name).expect("zoo topology exists"),
                DdrEnvConfig::default(),
                ControllerConfig {
                    queue_capacity: 64,
                    score_responses: score,
                    ..ControllerConfig::default()
                },
                engine_factory(i, Arc::clone(&engines)),
            )
            .expect("unique shard name");
    }
    Fleet {
        router,
        engines,
        threads,
    }
}

fn request(topology: &str, epoch: u64, demands: DemandMatrix) -> FleetRequest {
    FleetRequest {
        topology: topology.to_string(),
        request: EpochRequest {
            epoch,
            demands,
            deadline_ms: DEADLINE_MS,
        },
    }
}

/// One `serve_zoo` tick: `CLIENTS` fresh bimodal matrices per shard.
fn zoo_tick(seed: u64, tick: u64, sizes: &[usize]) -> Vec<FleetRequest> {
    let mut out = Vec::with_capacity(CLIENTS * sizes.len());
    for client in 0..CLIENTS as u64 {
        for (i, (name, &n)) in ZOO_SHARDS.iter().zip(sizes).enumerate() {
            let mut rng = StdRng::seed_from_u64(
                seed ^ (tick << 24 | client << 8 | i as u64).wrapping_mul(0x100000001b3),
            );
            out.push(request(
                name,
                tick,
                bimodal(n, &BimodalParams::default(), &mut rng),
            ));
        }
    }
    out
}

/// Mixes one routing into `digest`: destination-shared entries by
/// destination, then per-pair overrides by `(s, t)`.
fn digest_routing(digest: &mut Digest, routing: &Routing) {
    let mut shared: Vec<_> = routing.dest_flows().collect();
    shared.sort_by_key(|&(t, _)| t);
    let mut pairs: Vec<_> = routing.pair_flows().collect();
    pairs.sort_by_key(|&(st, _)| st);
    let keyed = shared
        .into_iter()
        .map(|(t, r)| ((usize::MAX, t), r))
        .chain(pairs);
    for ((s, t), ratios) in keyed {
        digest.u64(s as u64);
        digest.u64(t as u64);
        for &ratio in ratios {
            digest.f64(ratio);
        }
    }
}

/// What the checks found in one or more fleet runs.
#[derive(Default)]
struct Served {
    sent: u64,
    answered: u64,
    fresh: u64,
    shed: u64,
    scores: Vec<f64>,
    bad_scores: u64,
}

impl Served {
    /// Checks one `run` result against the requests sent and mixes it
    /// into the digest (rung letters, routings, score bits).
    fn absorb(&mut self, sent: usize, outcomes: &[ShardOutcome], digest: &mut Digest, score: bool) {
        self.sent += sent as u64;
        for outcome in outcomes {
            digest.bytes(outcome.rung_sequence().as_bytes());
            for r in &outcome.responses {
                self.answered += 1;
                self.fresh += u64::from(r.rung == Rung::Fresh);
                self.shed += u64::from(r.shed);
                digest_routing(digest, &r.routing);
                if score {
                    match r.score {
                        Some(s) if s.is_finite() && s >= 1.0 - 1e-9 => {
                            digest.f64(s);
                            self.scores.push(s);
                        }
                        _ => self.bad_scores += 1,
                    }
                }
            }
        }
    }

    /// Requests that were not answered Fresh (and, when scoring, not
    /// scored with a valid ratio).
    fn failed(&self) -> u64 {
        self.sent - self.fresh.min(self.sent) + self.bad_scores
    }
}

/// Per-layer inputs gathered over the traced units of a run, plus the
/// untraced units' totals for the tracing overhead.
#[derive(Default)]
struct TracedUnits {
    wall_s: f64,
    requests: u64,
    engines: EngineTotals,
    untraced_wall_s: f64,
    untraced_requests: u64,
}

impl TracedUnits {
    fn add(&mut self, traced: bool, wall: Duration, requests: usize, engines: EngineTotals) {
        if traced {
            self.wall_s += wall.as_secs_f64();
            self.requests += requests as u64;
            self.engines.calls += engines.calls;
            self.engines.items += engines.items;
            self.engines.busy_ns += engines.busy_ns;
        } else {
            self.untraced_wall_s += wall.as_secs_f64();
            self.untraced_requests += requests as u64;
        }
    }

    /// Per-layer metrics shared by both serving workloads.
    fn layer_metrics(&self, sink: &LedgerSink, threads: usize, out: &mut Outcome) {
        let thread_wall = self.wall_s * threads as f64;
        let engine_s = self.engines.busy_ns as f64 * 1e-9;
        let softmin = sink.span("routing.softmin");
        let lp = sink.span("lp.mcf.solve");
        let gnn = sink.span("gnn.block.forward");
        out.layer(
            "gnn.forward_us",
            share(gnn.total_s() * 1e6, self.engines.items as f64),
        );
        out.layer(
            "gnn.batch_items",
            share(self.engines.items as f64, self.engines.calls as f64),
        );
        out.layer("gnn.infer_share", share(engine_s, thread_wall));
        out.layer("routing.softmin_us", softmin.median_ms() * 1e3);
        out.layer("lp.solve_ms", lp.median_ms());
        out.layer("lp.share", share(lp.total_s(), thread_wall));
        out.layer(
            "lp.pivots_per_solve",
            share(
                sink.counter("lp.simplex.pivots") as f64,
                sink.counter("lp.simplex.solves") as f64,
            ),
        );
        let attributed = engine_s + softmin.total_s() + lp.total_s();
        out.layer(
            "serve.overhead_us_per_req",
            share((thread_wall - attributed) * 1e6, self.requests as f64),
        );
        out.layer("unattributed_share", 1.0 - share(attributed, thread_wall));
        // Wall per request, not per block: `score_diurnal` blocks differ in
        // LP difficulty, and the alternation spreads them over both sides.
        out.layer(
            "telemetry.overhead_share",
            share(
                share(self.wall_s, self.requests as f64),
                share(self.untraced_wall_s, self.untraced_requests as f64),
            ) - 1.0,
        );
    }
}

/// Exact oracle totals over every shard of a fleet.
fn oracle_totals(fleet: &Fleet, shards: usize) -> (u64, u64, u64, u64) {
    let (mut hits, mut misses, mut fallbacks, mut scoring_errors) = (0, 0, 0, 0);
    for shard in 0..shards {
        let (stats, serve) = fleet
            .router
            .with_controller(shard, |c| (c.oracle().stats(), c.stats().clone()))
            .expect("shard exists");
        hits += stats.hits;
        misses += stats.misses;
        fallbacks += stats.fallbacks;
        scoring_errors += serve.scoring_failed + serve.scoring_skipped;
    }
    (hits, misses, fallbacks, scoring_errors)
}

/// What one ladder step measured, over all of its segments.
struct StepReport {
    rps: f64,
    latencies_ms: Vec<f64>,
    run_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Final lateness of each segment.
    final_late_ms: Vec<f64>,
    backlogged: bool,
    misses: u64,
    sent: u64,
}

impl StepReport {
    fn new(rps: f64) -> Self {
        StepReport {
            rps,
            latencies_ms: Vec::new(),
            run_ms: Vec::new(),
            late_ms: Vec::new(),
            final_late_ms: Vec::new(),
            backlogged: false,
            misses: 0,
            sent: 0,
        }
    }

    fn p95(&self) -> f64 {
        quantile(&self.latencies_ms, 0.95)
    }

    /// Meets the latency limit without a growing backlog.
    fn meets_slo(&self) -> bool {
        self.p95() <= LIMIT_MS && !self.backlogged
    }
}

/// Runs one segment of a ladder step open loop: tick `k` is due at
/// `start + k · interval`; the generator sleeps until then, or sends at
/// once when it is already late. A tick's latency runs from its due
/// time to the return of the `run` call carrying it, so a stall is
/// charged to every tick queued behind it; the `run` call itself is
/// charged its process CPU time, so that time the host gives to other
/// guests during the call is not counted (the lateness before it is
/// wall time).
fn run_segment(
    fleet: &Fleet,
    ticks: &[Vec<FleetRequest>],
    report: &mut StepReport,
    served: &mut Served,
    digest: &mut Digest,
) {
    let interval = Duration::from_secs_f64((CLIENTS * ZOO_SHARDS.len()) as f64 / report.rps);
    let mut late_ms = Vec::with_capacity(ticks.len());
    let start = Instant::now();
    for (k, tick) in ticks.iter().enumerate() {
        let due = start + interval * k as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let (sent_at, cpu_at) = (Instant::now(), cpu_time());
        let outcomes = fleet.router.run(tick).expect("every topology is sharded");
        let (done, run_cpu) = (Instant::now(), cpu_time() - cpu_at);
        let late = (sent_at - due).as_secs_f64() * 1e3;
        let latency_ms = late + run_cpu.as_secs_f64() * 1e3;
        report.latencies_ms.push(latency_ms);
        report.run_ms.push((done - sent_at).as_secs_f64() * 1e3);
        late_ms.push(late);
        let fresh = outcomes
            .iter()
            .flat_map(|o| &o.responses)
            .filter(|r| r.rung == Rung::Fresh)
            .count();
        report.sent += tick.len() as u64;
        report.misses += if latency_ms > LIMIT_MS {
            tick.len() as u64
        } else {
            (tick.len() - fresh.min(tick.len())) as u64
        };
        served.absorb(tick.len(), &outcomes, digest, false);
    }
    // Backlogged: lateness at the end of the segment exceeds lateness at
    // its start by more than one tick interval (medians of the first and
    // last quarter, so one stall does not flag a segment).
    let q = (late_ms.len() / 4).max(1);
    let head = median(&late_ms[..q]);
    let tail = median(&late_ms[late_ms.len() - q..]);
    report.backlogged |= tail - head > interval.as_secs_f64() * 1e3;
    report
        .final_late_ms
        .push(late_ms.last().copied().unwrap_or(0.0));
    report.late_ms.extend(late_ms);
}

/// One phase of the `serve_zoo` schedule.
enum Phase {
    /// A segment of ladder step `step`, run open loop.
    Open {
        step: usize,
        ticks: Vec<Vec<FleetRequest>>,
    },
    /// Closed-loop blocks, each handed to `run` whole.
    Closed(Vec<Vec<FleetRequest>>),
}

/// `serve_zoo` inputs.
struct ZooSetup {
    fleet: Fleet,
    phases: Vec<Phase>,
}

/// Builds the schedule: the open-loop segments in `LADDER_ORDER`, with
/// the closed-loop blocks spread over the slots before, between and
/// after them, so drift in machine speed during a run reaches every
/// phase alike.
fn zoo_setup(seed: u64, seconds: f64, threads: usize) -> ZooSetup {
    let sizes: Vec<usize> = ZOO_SHARDS
        .iter()
        .map(|n| zoo::by_name(n).expect("zoo topology exists").num_nodes())
        .collect();
    let per_tick = (CLIENTS * ZOO_SHARDS.len()) as f64;
    let mut tick = 0u64;
    let mut next_tick = || {
        tick += 1;
        zoo_tick(seed, tick, &sizes)
    };
    let segments = |step: usize| LADDER_ORDER.iter().filter(|&&s| s == step).count();
    let segment_ticks: Vec<usize> = LADDER_RPS
        .iter()
        .zip(LADDER_SHARE)
        .enumerate()
        .map(|(step, (&rps, part))| {
            let ticks = rps * part * seconds / per_tick / segments(step) as f64;
            (ticks.round() as usize).max(4)
        })
        .collect();
    let closed_ticks = CLOSED_NOMINAL_RPS * CLOSED_SHARE * seconds / per_tick;
    let blocks = ((closed_ticks / CLOSED_BLOCK_TICKS as f64).round() as usize).max(2);
    let slots = LADDER_ORDER.len() + 1;
    let mut phases = Vec::new();
    for slot in 0..slots {
        let in_slot = blocks * (slot + 1) / slots - blocks * slot / slots;
        phases.push(Phase::Closed(
            (0..in_slot)
                .map(|_| (0..CLOSED_BLOCK_TICKS).flat_map(|_| next_tick()).collect())
                .collect(),
        ));
        if let Some(&step) = LADDER_ORDER.get(slot) {
            phases.push(Phase::Open {
                step,
                ticks: (0..segment_ticks[step]).map(|_| next_tick()).collect(),
            });
        }
    }
    ZooSetup {
        fleet: build_fleet(&ZOO_SHARDS, threads, false),
        phases,
    }
}

/// Mean `U_agent / U_opt` of the Fresh routings served to the quality
/// shards in `outcomes`, against the requests of `block`. Scored after
/// the measured phases, with no telemetry sink installed.
fn zoo_quality(block: &[FleetRequest], outcomes: &[ShardOutcome]) -> Result<Vec<f64>, String> {
    let mut ratios = Vec::new();
    for name in QUALITY_SHARDS {
        let graph = zoo::by_name(name).expect("zoo topology exists");
        let oracle = CachedOracle::new(graph.clone());
        let outcome = outcomes
            .iter()
            .find(|o| o.name == name)
            .ok_or_else(|| format!("no outcome for shard {name}"))?;
        let demands = block.iter().filter(|r| r.topology == name);
        for (req, resp) in demands.zip(&outcome.responses) {
            let ratio = try_routing_ratio(&graph, &oracle, &resp.routing, &req.request.demands)
                .map_err(|e| format!("{name}: {e}"))?;
            ratios.push(ratio.ratio);
        }
    }
    Ok(ratios)
}

/// The `serve_zoo` workload.
pub fn serve_zoo(seed: u64, seconds: f64, trace: bool, out: &mut Outcome) {
    out.fleet_threads = ZOO_THREADS;
    let ZooSetup { fleet, phases } = setup_repeated(out, || zoo_setup(seed, seconds, ZOO_THREADS));
    let mut served = Served::default();
    let mut digest = Digest::default();
    let mut steps: Vec<StepReport> = LADDER_RPS.iter().map(|&rps| StepReport::new(rps)).collect();
    // Closed-loop blocks alternate between untraced and traced in a
    // traced run; the open loop always runs untraced.
    let sink = LedgerSink::new();
    let mut units = TracedUnits::default();
    let mut block_rps = Vec::new();
    let mut last = None;
    for phase in &phases {
        match phase {
            Phase::Open { step, ticks } => {
                run_segment(&fleet, ticks, &mut steps[*step], &mut served, &mut digest)
            }
            Phase::Closed(blocks) => {
                for block in blocks {
                    let traced = trace && block_rps.len() % 2 == 1;
                    let before = fleet.engines.totals();
                    let (outcomes, took) = timed(traced.then_some(&sink), || {
                        fleet.router.run(block).expect("every topology is sharded")
                    });
                    units.add(
                        traced,
                        took.wall,
                        block.len(),
                        fleet.engines.totals().since(&before),
                    );
                    block_rps.push(block.len() as f64 / took.cpu.as_secs_f64());
                    served.absorb(block.len(), &outcomes, &mut digest, false);
                    last = Some((block, outcomes));
                }
            }
        }
    }
    for s in &steps {
        let finals: Vec<String> = s.final_late_ms.iter().map(|l| format!("{l:.2}")).collect();
        out.note(format!(
            "ladder {:>5.0} req/s: {} ticks, p50 {:.2} ms, p95 {:.2} ms, late max {:.2} ms final {} ms, {}",
            s.rps,
            s.latencies_ms.len(),
            median(&s.latencies_ms),
            s.p95(),
            s.late_ms.iter().copied().fold(0.0, f64::max),
            finals.join("/"),
            if s.backlogged { "BACKLOGGED" } else { "steady" }
        ));
    }
    out.note(spread_note("closed-loop block req/cpu-s", &block_rps));
    let report = steps
        .iter()
        .find(|s| s.rps == REPORT_RPS)
        .expect("the ladder holds the reported rate");
    out.note(spread_note(
        "tick latency ms at the reported step",
        &report.latencies_ms,
    ));
    let (block, outcomes) = last.expect("at least two closed-loop blocks");
    let quality = zoo_quality(block, &outcomes);
    let quality = match quality {
        Ok(ratios) => ratios,
        Err(e) => {
            out.fail(format!("quality scoring failed: {e}"));
            Vec::new()
        }
    };
    for &r in &quality {
        digest.f64(r);
    }
    let bad_quality = quality
        .iter()
        .filter(|r| !r.is_finite() || **r < 1.0 - 1e-9)
        .count() as u64;
    if bad_quality > 0 {
        out.fail(format!(
            "{bad_quality} served routings scored below the optimum"
        ));
    }

    if served.answered != served.sent {
        out.fail(format!(
            "{} requests sent but {} answered",
            served.sent, served.answered
        ));
    }
    if served.fresh != served.sent {
        out.fail(format!(
            "{} of {} responses were not Fresh on the healthy path",
            served.sent - served.fresh.min(served.sent),
            served.sent
        ));
    }
    out.attempted += served.sent + quality.len() as u64;
    out.failed += served.failed() + bad_quality;
    out.digest(digest);

    let slo_rps = steps
        .iter()
        .filter(|s| s.meets_slo())
        .map(|s| s.rps)
        .fold(0.0, f64::max);
    let (misses, sent) = steps
        .iter()
        .fold((0, 0), |(m, n), s| (m + s.misses, n + s.sent));
    out.e2e("rate_per_cpu_s", quantile(&block_rps, SUSTAINED));
    out.e2e("p90_ms", quantile(&report.latencies_ms, 0.9));
    out.e2e("quality_ratio", crate::mean(&quality));
    out.layer("serve.max_rps_at_slo", slo_rps);
    out.layer("serve.miss_share", share(misses as f64, sent as f64));
    out.layer("serve.run_ms", median(&report.run_ms));
    out.layer(
        "serve.late_ms",
        report.late_ms.iter().copied().fold(0.0, f64::max),
    );
    out.layer("serve.shed", served.shed as f64);
    let (hits, misses, _, _) = oracle_totals(&fleet, ZOO_SHARDS.len());
    out.layer("lp.solves", misses as f64);
    out.layer(
        "lp.cache_hit_rate",
        share(hits as f64, (hits + misses) as f64),
    );
    if trace {
        units.layer_metrics(&sink, fleet.threads, out);
        out.ledger(&sink);
    }
}

/// `score_diurnal` inputs: one request per shard per tick.
struct ScoreSetup {
    fleet: Fleet,
    ticks: Vec<Vec<FleetRequest>>,
}

fn score_setup(seed: u64, seconds: f64) -> ScoreSetup {
    let blocks = ((SCORE_NOMINAL_TICKS_PER_S * SCORE_SHARE * seconds / SCORE_BLOCK_TICKS as f64)
        .round() as usize)
        .max(2);
    let ticks = blocks * SCORE_BLOCK_TICKS;
    // Each block is one diurnal segment with its own gravity base, so a
    // run averages the LP's cost over many traffic shapes while
    // consecutive matrices within a segment differ only slightly.
    let streams: Vec<Vec<DemandMatrix>> = SCORE_SHARDS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let n = zoo::by_name(name).expect("zoo topology exists").num_nodes();
            let mut rng = StdRng::seed_from_u64(seed ^ (i as u64 + 1).wrapping_mul(0x100000001b3));
            let total = 500.0 * (n * (n - 1)) as f64;
            (0..blocks)
                .flat_map(|_| {
                    sequence::diurnal(
                        n,
                        SCORE_BLOCK_TICKS,
                        DIURNAL_PERIOD,
                        DIURNAL_DEPTH,
                        total,
                        &mut rng,
                    )
                })
                .collect()
        })
        .collect();
    let ticks = (0..ticks)
        .map(|t| {
            SCORE_SHARDS
                .iter()
                .zip(&streams)
                .map(|(name, stream)| request(name, t as u64 + 1, stream[t].clone()))
                .collect()
        })
        .collect();
    ScoreSetup {
        fleet: build_fleet(&SCORE_SHARDS, 1, true),
        ticks,
    }
}

/// The `score_diurnal` workload.
pub fn score_diurnal(seed: u64, seconds: f64, trace: bool, out: &mut Outcome) {
    out.fleet_threads = 1;
    let ScoreSetup { fleet, ticks } = setup_repeated(out, || score_setup(seed, seconds));
    let mut served = Served::default();
    let mut digest = Digest::default();
    let sink = LedgerSink::new();
    let mut units = TracedUnits::default();
    let mut tick_ms = Vec::new();
    let mut block_rps = Vec::new();

    // Closed loop: one `run` per tick; blocks of ticks alternate between
    // untraced and traced in a traced run.
    for (b, block) in ticks.chunks(SCORE_BLOCK_TICKS).enumerate() {
        let traced = trace && b % 2 == 1;
        let before = fleet.engines.totals();
        let (tick_cpus, took) = timed(traced.then_some(&sink), || {
            block
                .iter()
                .map(|tick| {
                    let start = cpu_time();
                    let outcomes = fleet.router.run(tick).expect("every topology is sharded");
                    (cpu_time() - start, outcomes)
                })
                .collect::<Vec<_>>()
        });
        let requests: usize = block.iter().map(Vec::len).sum();
        units.add(
            traced,
            took.wall,
            requests,
            fleet.engines.totals().since(&before),
        );
        block_rps.push(requests as f64 / took.cpu.as_secs_f64());
        for (tick, (tick_cpu, outcomes)) in block.iter().zip(tick_cpus) {
            tick_ms.push(tick_cpu.as_secs_f64() * 1e3);
            served.absorb(tick.len(), &outcomes, &mut digest, true);
        }
    }

    out.note(spread_note("scored block req/cpu-s", &block_rps));
    out.note(spread_note("scored tick cpu ms", &tick_ms));
    let (hits, misses, fallbacks, scoring_errors) = oracle_totals(&fleet, SCORE_SHARDS.len());
    if served.answered != served.sent || served.fresh != served.sent {
        out.fail(format!(
            "{} sent, {} answered, {} Fresh",
            served.sent, served.answered, served.fresh
        ));
    }
    if served.bad_scores > 0 {
        out.fail(format!(
            "{} responses unscored or scored below the optimum",
            served.bad_scores
        ));
    }
    if scoring_errors > 0 || fallbacks > 0 {
        out.fail(format!(
            "scoring_failed + scoring_skipped = {scoring_errors}, oracle fallbacks = {fallbacks}"
        ));
    }
    out.attempted += served.sent;
    out.failed += served.failed() + scoring_errors;
    out.digest(digest);

    out.e2e("rate_per_cpu_s", quantile(&block_rps, SUSTAINED));
    out.e2e("p90_ms", quantile(&tick_ms, 0.9));
    out.e2e("quality_ratio", crate::mean(&served.scores));
    out.layer("serve.run_ms", median(&tick_ms));
    out.layer("serve.shed", served.shed as f64);
    out.layer("lp.solves", misses as f64);
    out.layer(
        "lp.cache_hit_rate",
        share(hits as f64, (hits + misses) as f64),
    );
    if trace {
        units.layer_metrics(&sink, fleet.threads, out);
        out.ledger(&sink);
    }
}
