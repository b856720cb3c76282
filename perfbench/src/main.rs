//! The GDDR benchmark: three workloads, each generated from `--seed`
//! inside this one process, measured end to end with no telemetry sink
//! installed, or per layer (`--trace 1`) with an in-memory ledger.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_zoo|train_abilene|score_diurnal \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! are the provenance, the run notes, the determinism digest and every
//! metric by name. The exit code is 0 only when every output check
//! passed. See `perfbench/README.md` for what each metric means on each
//! workload.

mod ledger;
mod serving;
mod training;
mod wrap;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use gddr_ser::Json;

use crate::ledger::{median, LedgerSink};

/// Seed of the untrained model weights. Fixed, so the model is the same
/// program on every run and `--seed` varies only the traffic and the
/// training samples.
pub const MODEL_SEED: u64 = 0x6dd2;
/// Set-up is built at least `SETUP_MIN_REPEATS` times per run, and
/// again while the builds so far took less than `SETUP_BUDGET_S` in
/// all, up to `SETUP_MAX_REPEATS`; `setup_s` is the median.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

/// The quantile of per-unit rates reported as `rate_per_cpu_s`: the rate
/// that nine units in ten reach or beat. A shared host runs the same work
/// at a steady slow speed with bursts of a faster one whose share varies
/// from run to run; low quantiles of rate (and high quantiles of time,
/// hence `p90_ms`) track the steady speed, where medians move with the
/// bursts.
pub const SUSTAINED: f64 = 0.1;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rate_per_cpu_s", "1/cpu-s"),
    ("p90_ms", "ms"),
    ("quality_ratio", "ratio"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`
/// (0 where the workload does not reach the layer).
const LAYER: [(&str, &str); 23] = [
    ("lp.solves", "count"),
    ("lp.pivots_per_solve", "count"),
    ("lp.solve_ms", "ms"),
    ("lp.cache_hit_rate", "share"),
    ("lp.share", "share"),
    ("gnn.forward_us", "us"),
    ("gnn.batch_items", "count"),
    ("gnn.infer_share", "share"),
    ("nn.backward_ms", "ms"),
    ("ppo.update_ms", "ms"),
    ("ppo.rollout_ms", "ms"),
    ("ppo.update_share", "share"),
    ("env.step_us", "us"),
    ("env.reward_us", "us"),
    ("routing.softmin_us", "us"),
    ("serve.run_ms", "ms"),
    ("serve.overhead_us_per_req", "us"),
    ("serve.late_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.max_rps_at_slo", "req/s"),
    ("serve.miss_share", "share"),
    ("telemetry.overhead_share", "share"),
    ("unattributed_share", "share"),
];

const WORKLOADS: [&str; 3] = ["serve_zoo", "train_abilene", "score_diurnal"];

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Available parallelism of this machine.
    pub nproc: usize,
    /// Threads the workload serves or trains with.
    pub fleet_threads: usize,
    /// Operations attempted (requests sent, env steps taken, matrices
    /// evaluated).
    pub attempted: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
    setup_s: Vec<f64>,
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<&'static str, f64>,
    digest: Option<String>,
}

fn lookup(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
        .0
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64) {
        self.e2e.insert(lookup(&E2E, name), value);
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.insert(lookup(&LAYER, name), value);
    }

    /// Records a failed output check.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Adds a line to the run's report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records the run's determinism digest.
    pub fn digest(&mut self, digest: ledger::Digest) {
        self.digest = Some(digest.hex());
    }

    /// Adds the traced run's span table to the report.
    pub fn ledger(&mut self, sink: &LedgerSink) {
        for (name, count, total_s) in sink.span_table() {
            self.notes.push(format!(
                "span {name:<22} {count:>8} calls {:>10.3} ms total",
                total_s * 1e3
            ));
        }
        for name in [
            "lp.oracle.hits",
            "lp.oracle.misses",
            "lp.simplex.solves",
            "lp.simplex.pivots",
        ] {
            self.notes
                .push(format!("counter {name:<20} {}", sink.counter(name)));
        }
    }
}

/// Builds the workload's inputs several times (see
/// `SETUP_MIN_REPEATS`), timing each build, and keeps the last.
pub fn setup_repeated<T>(out: &mut Outcome, mut build: impl FnMut() -> T) -> T {
    let mut kept = None;
    let mut total_s = 0.0;
    while out.setup_s.len() < SETUP_MIN_REPEATS
        || (out.setup_s.len() < SETUP_MAX_REPEATS && total_s < SETUP_BUDGET_S)
    {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(build());
        let took = start.elapsed().as_secs_f64();
        total_s += took;
        out.setup_s.push(took);
    }
    kept.expect("at least one set-up")
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds as f64,
        trace: trace.unwrap_or(false),
    })
}

/// The commit being measured, when the working directory is the top of
/// a git checkout; "unknown" otherwise.
fn git_sha() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let here = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    let top = git(&["rev-parse", "--show-toplevel"])
        .and_then(|t| std::path::PathBuf::from(t).canonicalize().ok());
    match (here, top) {
        (Some(here), Some(top)) if here == top => {
            git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string())
        }
        _ => "unknown".to_string(),
    }
}

fn metrics_json(table: &[(&'static str, &'static str)], values: &BTreeMap<&str, f64>) -> Json {
    Json::Obj(
        table
            .iter()
            .map(|&(name, unit)| {
                let value = values.get(name).copied().unwrap_or(0.0);
                (
                    name.to_string(),
                    Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..Outcome::default()
    };
    match args.workload.as_str() {
        "serve_zoo" => serving::serve_zoo(args.seed, args.seconds, args.trace, &mut out),
        "train_abilene" => training::train_abilene(args.seed, args.seconds, args.trace, &mut out),
        _ => serving::score_diurnal(args.seed, args.seconds, args.trace, &mut out),
    }
    out.e2e("setup_s", median(&out.setup_s.clone()));
    match ledger::peak_rss_mb() {
        Some(mb) => out.e2e("peak_rss_mb", mb),
        None => out.fail("peak RSS is unavailable".to_string()),
    }

    let provenance = Json::obj([
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Num(out.nproc as f64)),
        ("fleet_threads", Json::Num(out.fleet_threads as f64)),
        ("git_sha", Json::Str(git_sha())),
        (
            "rustc",
            Json::Str(env!("PERFBENCH_RUSTC_VERSION").to_string()),
        ),
    ]);
    println!("provenance {}", provenance.to_string());
    for note in &out.notes {
        println!("{note}");
    }
    if let Some(hex) = &out.digest {
        println!("digest {} {hex}", args.workload);
    }
    let setup: Vec<String> = out.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("setup runs (s): {}", setup.join(" "));
    let reported = if args.trace { &LAYER[..] } else { &E2E[..] };
    for (table, values) in [(&E2E[..], &out.e2e), (&LAYER[..], &out.layer)] {
        for &(name, unit) in table {
            if let Some(v) = values.get(name) {
                println!("metric {name:<26} {v:>14.6} {unit}");
            }
        }
    }
    for (name, value) in out.e2e.iter().chain(&out.layer) {
        if !value.is_finite() {
            out.failures.push(format!("metric {name} is not finite"));
        }
    }
    for why in &out.failures {
        println!("FAILED: {why}");
    }
    let correct = out.failures.is_empty() && out.failed == 0;
    let values = if args.trace { &out.layer } else { &out.e2e };
    let finite: BTreeMap<&str, f64> = values
        .iter()
        .map(|(&k, &v)| (k, if v.is_finite() { v } else { 0.0 }))
        .collect();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics_json(reported, &finite)),
    ]);
    println!("{}", result.to_string());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
