//! Validates a telemetry JSONL trace produced by a figure binary.
//!
//! Two modes share the same lossless-parsing gate (every line must
//! parse with `gddr-ser` and re-serialise to identical bytes):
//!
//! - `--mode train` (default): the trace of a short seeded
//!   `fig7_learning_curves --telemetry` run must contain the
//!   span/metric names the instrumented training hot paths emit.
//! - `--mode serve`: the trace of a seeded
//!   `chaos_harness --telemetry` run must contain all five required
//!   serving event kinds (`rung_served`, `breaker_transition`,
//!   `worker_restart`, `request_shed`, `health_transition`), and each
//!   must agree 1:1 with its paired counter, including the counter's
//!   final total. Every other kind that `gddr_telemetry::event::KINDS`
//!   pairs with a counter (`slo_alert`, the replication kinds
//!   `failover`, `hedge_fired`, `replica_recovered`, the durability
//!   kinds `snapshot_written`, `recovery`, ...) is optional but
//!   counter-consistent: the counter's streamed deltas must equal
//!   the deltas its events imply. Fields are checked per kind: rung,
//!   breaker and health names are known, transitions change state,
//!   SLO alerts fire at or above their own threshold, a failover
//!   never targets its own source, hedge wins never exceed the batch,
//!   recoveries carry a positive probe count, snapshots have positive
//!   shard/byte counts, warm restores carry a generation and cold
//!   starts a corruption-class detail. `--relax k1,k2` demotes the
//!   listed required kinds to optional-but-consistent — the dynamics
//!   smoke leg uses it for kinds its scenarios never trigger (no
//!   breaker trips, no worker restarts).
//! - `--mode trace`: the stream of a `serve_load --telemetry` run
//!   must reconstruct — every trace id referenced by a `rung_served`
//!   event has exactly one `fleet.admitted` and one `fleet.response`
//!   annotation, no trace event carries the untraced id 0, response
//!   markers carry a parseable positive `latency_ns` and a valid
//!   `rung`, and `serve.infer` spans carry a positive `batch_size`.
//!
//! ```text
//! cargo run -p gddr-bench --bin telemetry_check -- --file trace.jsonl
//! cargo run -p gddr-bench --bin telemetry_check -- --file chaos.jsonl --mode serve
//! cargo run -p gddr-bench --bin telemetry_check -- --file fleet.jsonl --mode trace
//! ```
//!
//! Exits non-zero (panics) on any violation so CI fails loudly.

use std::collections::{BTreeMap, BTreeSet};

use gddr_bench::parse_args;
use gddr_ser::{FromJson, Json, ToJson};
use gddr_telemetry::event::KINDS;
use gddr_telemetry::Event;

/// Spans that a training run must have opened at least once.
const EXPECTED_SPANS: &[&str] = &[
    "ppo.rollout",
    "ppo.update",
    "ppo.backward",
    "env.step",
    "env.reward",
    "lp.simplex.solve",
    "lp.oracle.solve",
    "routing.softmin",
    "gnn.block.forward",
];

/// Counters that must have been incremented.
const EXPECTED_COUNTERS: &[&str] = &[
    "ppo.updates",
    "ppo.env_steps",
    "lp.oracle.hits",
    "lp.oracle.misses",
    "lp.simplex.solves",
    "lp.simplex.pivots",
];

/// Gauges the PPO update loop must have set.
const EXPECTED_GAUGES: &[&str] = &[
    "ppo.entropy",
    "ppo.approx_kl",
    "ppo.clip_fraction",
    "ppo.grad_norm",
    "ppo.policy_loss",
    "ppo.value_loss",
];

/// Serving event kinds a serve trace must contain unless `--relax`ed.
const REQUIRED_KINDS: &[&str] = &[
    "rung_served",
    "breaker_transition",
    "worker_restart",
    "request_shed",
    "health_transition",
];

const RUNG_NAMES: &[&str] = &["fresh", "last_good", "ecmp", "shortest_path"];
const FAILOVER_REASONS: &[&str] = &["consecutive_degraded", "pool_dead"];
const BREAKER_STATES: &[&str] = &["closed", "open", "half_open"];
const HEALTH_STATES: &[&str] = &["starting", "healthy", "degraded", "unhealthy"];

fn validate_train(events: &[Event]) {
    let mut spans = BTreeSet::new();
    let mut counters = BTreeSet::new();
    let mut gauges = BTreeSet::new();
    for event in events {
        match event {
            Event::Span { name, .. } => {
                spans.insert(name.clone());
            }
            Event::Counter { name, .. } => {
                counters.insert(name.clone());
            }
            Event::Gauge { name, .. } => {
                gauges.insert(name.clone());
            }
            _ => {}
        }
    }
    let check = |kind: &str, expected: &[&str], seen: &BTreeSet<String>| {
        for name in expected {
            assert!(seen.contains(*name), "missing {kind} {name:?} in trace");
        }
    };
    check("span", EXPECTED_SPANS, &spans);
    check("counter", EXPECTED_COUNTERS, &counters);
    check("gauge", EXPECTED_GAUGES, &gauges);
    println!(
        "telemetry_check(train): OK — {} events, {} span names, {} counters, {} gauges",
        events.len(),
        spans.len(),
        counters.len(),
        gauges.len()
    );
}

fn validate_serve(events: &[Event], relax: &BTreeSet<String>) {
    // Per-kind event counts, per-counter (delta sum, last total), and
    // per-counter delta sums implied by the typed events.
    let mut kind_counts: BTreeMap<&str, u64> = BTreeMap::new();
    let mut counter_stats: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut implied: BTreeMap<&str, u64> = BTreeMap::new();
    let mut shed_served = 0u64;
    let named = |what: &str, value: &str, allowed: &[&str]| {
        assert!(
            allowed.contains(&value),
            "unknown {what} {value:?} (allowed: {allowed:?})"
        );
    };
    for event in events {
        *kind_counts.entry(event.kind()).or_default() += 1;
        if let Some((counter, delta)) = event.counter() {
            *implied.entry(counter).or_default() += delta;
        }
        match event {
            Event::Counter { name, delta, total } => {
                let entry = counter_stats.entry(name.clone()).or_insert((0, 0));
                entry.0 += delta;
                entry.1 = *total;
            }
            Event::RungServed { rung, shed, .. } => {
                named("rung", rung, RUNG_NAMES);
                // Shed requests bypass inference entirely; a "fresh"
                // tag on one would mean the ladder was not consulted.
                assert!(
                    !(*shed && rung == "fresh"),
                    "shed request tagged with the fresh rung"
                );
                if *shed {
                    shed_served += 1;
                }
            }
            Event::BreakerTransition { from, to, .. } => {
                named("breaker state", from, BREAKER_STATES);
                named("breaker state", to, BREAKER_STATES);
                assert_ne!(from, to, "breaker transition with from == to");
            }
            Event::WorkerRestart { restarts, .. } => {
                assert!(*restarts > 0, "worker restart with zero restarts consumed");
            }
            Event::HealthTransition { from, to, .. } => {
                named("health state", from, HEALTH_STATES);
                named("health state", to, HEALTH_STATES);
                assert_ne!(from, to, "health transition with from == to");
            }
            Event::SloAlert {
                burn_rate,
                threshold,
                window,
                ..
            } => {
                assert!(
                    burn_rate >= threshold,
                    "slo_alert fired below its own threshold ({burn_rate} < {threshold})"
                );
                assert!(*window > 0, "slo_alert with zero window");
            }
            Event::Failover {
                from_replica,
                to_replica,
                reason,
                ..
            } => {
                named("failover reason", reason, FAILOVER_REASONS);
                assert_ne!(
                    from_replica, to_replica,
                    "failover from a replica to itself"
                );
            }
            Event::HedgeFired {
                primary,
                standby,
                wins,
                batch,
                ..
            } => {
                assert_ne!(primary, standby, "hedge re-issued to the primary itself");
                assert!(*batch > 0, "hedge_fired with an empty batch");
                assert!(
                    wins <= batch,
                    "hedge_fired with more standby wins ({wins}) than batch items ({batch})"
                );
            }
            Event::ReplicaRecovered { probes, .. } => {
                assert!(*probes > 0, "replica_recovered with zero probes");
            }
            Event::SnapshotWritten {
                shards,
                generation,
                bytes,
                path,
                ..
            } => {
                assert!(*shards > 0, "snapshot_written with zero shards");
                assert!(*generation > 0, "snapshot_written with generation 0");
                assert!(*bytes > 0, "snapshot_written with zero bytes");
                assert!(!path.is_empty(), "snapshot_written with an empty path");
            }
            Event::Recovery {
                shards,
                outcome,
                generation,
                detail,
                ..
            } => {
                assert!(*shards > 0, "recovery with zero shards");
                match outcome.as_str() {
                    "warm" => {
                        assert!(*generation > 0, "warm recovery with generation 0");
                        assert!(
                            detail.is_empty(),
                            "warm recovery carries a corruption detail {detail:?}"
                        );
                    }
                    "cold" => {
                        assert!(
                            !detail.is_empty(),
                            "cold recovery without a corruption-class detail"
                        );
                    }
                    other => panic!("unknown recovery outcome {other:?}"),
                }
            }
            _ => {}
        }
    }
    for (kind, counter) in KINDS {
        let Some(counter) = counter else { continue };
        let seen = kind_counts.get(kind).copied().unwrap_or(0);
        let (delta_sum, last_total) = counter_stats.get(*counter).copied().unwrap_or((0, 0));
        // `emit` bumps the paired counter with every typed event, so the
        // trace must agree with itself.
        let expected = implied.get(counter).copied().unwrap_or(0);
        assert_eq!(
            delta_sum, expected,
            "counter {counter:?} deltas ({delta_sum}) disagree with {kind:?} events ({seen})"
        );
        if !REQUIRED_KINDS.contains(kind) {
            continue;
        }
        // A relaxed kind may be absent (e.g. no breaker ever trips in a
        // dynamics run), but then its counter must agree.
        assert!(
            seen > 0 || relax.contains(*kind),
            "missing serve event kind {kind:?} in trace"
        );
        assert_eq!(
            last_total, seen,
            "counter {counter:?} final total ({last_total}) disagrees with {kind:?} events ({seen})"
        );
    }
    // Every shed victim produces one request_shed event at admission
    // and one shed-tagged rung_served event when answered.
    let shed_events = kind_counts.get("request_shed").copied().unwrap_or(0);
    assert_eq!(
        shed_events, shed_served,
        "request_shed events ({shed_events}) disagree with shed-tagged responses ({shed_served})"
    );
    println!(
        "telemetry_check(serve): OK — {} events, {} responses ({} shed), {} breaker transitions, {} worker restarts, {} health transitions, {} slo alerts, {} failovers, {} hedges, {} recoveries, {} snapshots, {} restore attempts",
        events.len(),
        kind_counts.get("rung_served").copied().unwrap_or(0),
        shed_served,
        kind_counts.get("breaker_transition").copied().unwrap_or(0),
        kind_counts.get("worker_restart").copied().unwrap_or(0),
        kind_counts.get("health_transition").copied().unwrap_or(0),
        kind_counts.get("slo_alert").copied().unwrap_or(0),
        kind_counts.get("failover").copied().unwrap_or(0),
        kind_counts.get("hedge_fired").copied().unwrap_or(0),
        kind_counts.get("replica_recovered").copied().unwrap_or(0),
        kind_counts.get("snapshot_written").copied().unwrap_or(0),
        kind_counts.get("recovery").copied().unwrap_or(0),
    );
}

/// Validates the request-scoped trace layer of a fleet run: every
/// served trace reconstructs into exactly one admission and one
/// response marker, and every trace event is well-formed.
fn validate_trace(events: &[Event]) {
    let mut served: BTreeSet<u64> = BTreeSet::new();
    // Per trace id: (admitted, response) marker counts.
    let mut markers: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let mut spans = 0u64;
    let mut annotations = 0u64;
    let attr = |attrs: &[(String, String)], key: &str| -> Option<String> {
        attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    for event in events {
        match event {
            Event::RungServed { trace, .. } if *trace != 0 => {
                served.insert(*trace);
            }
            Event::TraceAnnotation {
                trace_id,
                name,
                attrs,
                ..
            } => {
                annotations += 1;
                assert_ne!(*trace_id, 0, "trace_annotation with the untraced id 0");
                let entry = markers.entry(*trace_id).or_insert((0, 0));
                match name.as_str() {
                    "fleet.admitted" => entry.0 += 1,
                    "fleet.response" => {
                        entry.1 += 1;
                        let latency: u64 = attr(attrs, "latency_ns")
                            .unwrap_or_else(|| {
                                panic!("trace {trace_id}: response without latency_ns")
                            })
                            .parse()
                            .unwrap_or_else(|e| panic!("trace {trace_id}: bad latency_ns: {e}"));
                        assert!(latency > 0, "trace {trace_id}: zero response latency");
                        let rung = attr(attrs, "rung")
                            .unwrap_or_else(|| panic!("trace {trace_id}: response without rung"));
                        assert!(
                            RUNG_NAMES.contains(&rung.as_str()),
                            "trace {trace_id}: unknown rung {rung:?}"
                        );
                    }
                    "fleet.hedge" => {
                        // Hedged duplicate marker on the primary's
                        // trace: the duplicate serve itself is
                        // untraced, so the (1, 1) admission/response
                        // invariant below is untouched.
                        let winner = attr(attrs, "winner").unwrap_or_else(|| {
                            panic!("trace {trace_id}: hedge marker without winner")
                        });
                        assert!(
                            winner == "primary" || winner == "standby",
                            "trace {trace_id}: unknown hedge winner {winner:?}"
                        );
                        let generation: u64 = attr(attrs, "generation")
                            .unwrap_or_else(|| {
                                panic!("trace {trace_id}: hedge marker without generation")
                            })
                            .parse()
                            .unwrap_or_else(|e| panic!("trace {trace_id}: bad generation: {e}"));
                        assert!(generation > 0, "trace {trace_id}: zero hedge generation");
                    }
                    other => panic!("unknown trace annotation {other:?}"),
                }
            }
            Event::TraceSpan {
                trace_id,
                name,
                dur_ns: _,
                attrs,
                ..
            } => {
                spans += 1;
                assert_ne!(*trace_id, 0, "trace_span with the untraced id 0");
                assert_eq!(name, "serve.infer", "unknown trace span {name:?}");
                let batch: u64 = attr(attrs, "batch_size")
                    .unwrap_or_else(|| panic!("trace {trace_id}: infer span without batch_size"))
                    .parse()
                    .unwrap_or_else(|e| panic!("trace {trace_id}: bad batch_size: {e}"));
                assert!(batch >= 1, "trace {trace_id}: batch_size < 1");
            }
            _ => {}
        }
    }
    assert!(!served.is_empty(), "no traced rung_served events in stream");
    // The completeness invariant: every served trace has exactly one
    // admission marker and one response marker — a full waterfall.
    let mut complete = 0u64;
    for id in &served {
        let (admitted, responded) = markers.get(id).copied().unwrap_or((0, 0));
        assert_eq!(
            (admitted, responded),
            (1, 1),
            "trace {id}: {admitted} admissions / {responded} responses (want 1/1)"
        );
        complete += 1;
    }
    if let Some(id) = markers.keys().find(|id| !served.contains(id)) {
        panic!("trace {id} has markers but no rung_served event");
    }
    println!(
        "telemetry_check(trace): OK — {} events, {complete} complete traces, {annotations} annotations, {spans} infer spans",
        events.len()
    );
}

fn main() {
    let args = parse_args(&["file", "mode", "relax"]);
    let path = args.get("file").expect("--file <trace.jsonl> is required");
    let mode = args.get("mode").map(String::as_str).unwrap_or("train");
    let relax: BTreeSet<String> = args
        .get("relax")
        .map(|s| s.split(',').map(str::to_string).collect())
        .unwrap_or_default();
    for kind in &relax {
        assert!(
            REQUIRED_KINDS.contains(&kind.as_str()),
            "--relax {kind:?} is not a serve event kind"
        );
    }
    let text = std::fs::read_to_string(path).expect("read trace file");

    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let json = Json::parse(line)
            .unwrap_or_else(|e| panic!("line {}: does not parse as JSON: {e}", i + 1));
        let event = Event::from_json(&json)
            .unwrap_or_else(|e| panic!("line {}: does not parse as an event: {e}", i + 1));
        // Lossless: re-serialising the parsed event reproduces the line.
        assert_eq!(
            event.to_json().to_string(),
            line,
            "line {}: round-trip is not byte-identical",
            i + 1
        );
        events.push(event);
    }
    assert!(!events.is_empty(), "trace is empty");

    match mode {
        "train" => validate_train(&events),
        "serve" => validate_serve(&events, &relax),
        "trace" => validate_trace(&events),
        other => panic!("unknown --mode {other:?} (expected train, serve or trace)"),
    }
}
